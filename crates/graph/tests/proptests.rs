//! Property-based tests of the graph planners over arbitrary standard
//! size sets — the engines only ever use powers of two, but the
//! planners must be correct for any configuration a user might choose.

use hetero_graph::plan::{candidate_plans, next_standard, padding_plan, pipe_plan};
use hetero_graph::{CompileModel, GraphCache, GraphSet, OpTemplate, PartitionPlan};
use hetero_tensor::shape::MatmulShape;
use proptest::prelude::*;

/// A sorted, deduplicated, non-empty set of standard sizes.
fn arb_standards() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::btree_set(1usize..2048, 1..8)
        .prop_map(|s| s.into_iter().collect::<Vec<_>>())
}

/// A plan of one of the shapes the solver produces, for a random
/// Matmul, with the padding area (`rows × cols`) its NPU side adds.
fn arb_solver_plan() -> impl Strategy<Value = (PartitionPlan, MatmulShape, usize)> {
    (
        (1usize..1100, 1usize..4096, 2usize..4096),
        arb_standards(),
        0usize..6,
        0usize..1 << 20,
    )
        .prop_map(|((m, k, n), standards, variant, pick)| {
            let shape = MatmulShape::new(m, k, n);
            let padded_m = next_standard(m, &standards).unwrap_or(m);
            let gpu_cols = 1 + pick % (n - 1);
            match variant {
                0 => (PartitionPlan::GpuOnly, shape, 0),
                1 => (
                    PartitionPlan::NpuOnly { padded_m },
                    shape,
                    (padded_m - m) * n,
                ),
                2 => {
                    let pipe = pipe_plan(m, &standards);
                    let pad = pipe.padded_rows * n;
                    let plan = PartitionPlan::NpuPipe {
                        chunks: pipe.npu_chunks,
                        padded_rows: pipe.padded_rows,
                    };
                    (plan, shape, pad)
                }
                3 => {
                    let plan = PartitionPlan::RowCut { gpu_cols, padded_m };
                    (plan, shape, (padded_m - m) * (n - gpu_cols))
                }
                4 => {
                    let plan = PartitionPlan::HybridCut { padded_m, gpu_cols };
                    (plan, shape, (padded_m - m) * (n - gpu_cols))
                }
                _ => {
                    // Sequence cuts leave the GPU a non-empty margin.
                    let cuts: Vec<_> = candidate_plans(m, &standards)
                        .into_iter()
                        .filter(|c| c.margin > 0)
                        .collect();
                    let cut = cuts[pick % cuts.len()].clone();
                    let plan = PartitionPlan::SeqCut {
                        npu_chunks: cut.npu_chunks,
                        gpu_rows: cut.margin,
                    };
                    (plan, shape, 0)
                }
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lowering conserves work: the GPU and NPU sub-problems together
    /// cover `m × n`, the GPU side never exceeds the problem (only the
    /// NPU side carries padding), and the parallel flag is exactly
    /// `is_parallel`.
    #[test]
    fn lowering_conserves_work((plan, shape, pad) in arb_solver_plan()) {
        let lowered = plan.lower(shape);
        prop_assert_eq!(lowered.parallel, plan.is_parallel());
        let mut gpu_area = 0;
        if let Some(gpu) = lowered.gpu {
            prop_assert!(gpu.m <= shape.m && gpu.n <= shape.n && gpu.k == shape.k, "{:?}", gpu);
            gpu_area = gpu.m * gpu.n;
        } else {
            prop_assert!(!lowered.parallel, "a parallel plan needs a GPU side");
        }
        let mut npu_area = 0;
        for npu in lowered.npu() {
            prop_assert_eq!(npu.k, shape.k);
            npu_area += npu.m * npu.n;
        }
        prop_assert_eq!(gpu_area + npu_area, shape.m * shape.n + pad, "{:?}", plan);
    }

    #[test]
    fn padding_plan_covers_and_bounds_waste(
        len in 1usize..5000,
        standards in arb_standards(),
    ) {
        let p = padding_plan(len, &standards);
        prop_assert!(p.npu_rows() >= len);
        prop_assert_eq!(p.useful_rows(), len);
        // Waste bounded by the largest standard size.
        let max = *standards.iter().max().unwrap();
        prop_assert!(p.padded_rows < max, "waste {} with max {}", p.padded_rows, max);
        // All chunks are standard sizes.
        for c in &p.npu_chunks {
            prop_assert!(standards.contains(c));
        }
    }

    #[test]
    fn pipe_plan_covers_with_minimal_tail_waste(
        len in 1usize..5000,
        standards in arb_standards(),
    ) {
        let p = pipe_plan(len, &standards);
        prop_assert!(p.npu_rows() >= len);
        prop_assert_eq!(p.useful_rows(), len);
        // Pipe's padding is bounded by the *smallest* standard size.
        let min = *standards.iter().min().unwrap();
        prop_assert!(p.padded_rows < min.max(1), "waste {} with min {}", p.padded_rows, min);
    }

    #[test]
    fn pipe_never_wastes_more_than_padding(
        len in 1usize..5000,
        standards in arb_standards(),
    ) {
        let pad = padding_plan(len, &standards);
        let pipe = pipe_plan(len, &standards);
        prop_assert!(pipe.padded_rows <= pad.padded_rows);
    }

    #[test]
    fn candidates_are_exact_and_nonempty(
        len in 1usize..3000,
        standards in arb_standards(),
    ) {
        let plans = candidate_plans(len, &standards);
        prop_assert!(!plans.is_empty());
        for p in &plans {
            prop_assert_eq!(p.npu_rows() + p.margin, len);
            prop_assert_eq!(p.padded_rows, 0);
            for c in &p.npu_chunks {
                prop_assert!(standards.contains(c));
            }
        }
        // The all-GPU candidate is always present.
        prop_assert!(plans.iter().any(|p| p.npu_chunks.is_empty()));
    }

    #[test]
    fn next_standard_is_tight(len in 1usize..5000, standards in arb_standards()) {
        match next_standard(len, &standards) {
            Some(s) => {
                prop_assert!(s >= len);
                prop_assert!(standards.contains(&s));
                // No smaller standard also covers len.
                for &other in &standards {
                    if other >= len {
                        prop_assert!(other >= s);
                    }
                }
            }
            None => prop_assert!(standards.iter().all(|&s| s < len)),
        }
    }

    #[test]
    fn compile_cost_is_superadditive_in_chunks(
        k in 64usize..8192,
        n in 64usize..8192,
        m in 64usize..1024,
    ) {
        // Splitting a graph into two halves must not cost more than ~2x
        // the full graph (sub-linear exponent), and each half costs
        // less than the whole.
        let model = CompileModel::default();
        let whole = model.op_compile_time(MatmulShape::new(m, k, n)).as_secs_f64();
        let half = model.op_compile_time(MatmulShape::new(m / 2, k, n)).as_secs_f64();
        prop_assert!(half < whole);
        prop_assert!(2.0 * half < 2.0 * whole);
    }

    #[test]
    fn cache_total_equals_sum_of_charges(sizes in proptest::collection::vec(1usize..2048, 1..12)) {
        let mut cache = GraphCache::new(
            GraphSet::new(vec![OpTemplate::new("op", 1024, 1024)]),
            CompileModel::default(),
        );
        let mut sum = hetero_soc::SimTime::ZERO;
        for &s in &sizes {
            sum += cache.ensure(s);
        }
        prop_assert_eq!(cache.total_compile_time(), sum);
        // Every distinct size is now cached and free.
        for &s in &sizes {
            prop_assert_eq!(cache.ensure(s), hetero_soc::SimTime::ZERO);
        }
    }
}
