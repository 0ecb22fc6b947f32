//! Property-based tests of the graph planners over arbitrary standard
//! size sets — the engines only ever use powers of two, but the
//! planners must be correct for any configuration a user might choose.

use hetero_graph::plan::{candidate_plans, next_standard, padding_plan, pipe_plan};
use hetero_graph::{CompileModel, GraphCache, GraphSet, OpTemplate, PartitionPlan, Step};
use hetero_soc::Backend;
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

/// A plan of any of the six variants for a small Matmul, degenerate
/// forms included (`gpu_cols: 0`, `gpu_rows: 0`, empty chunk lists).
/// With `clean` the plan is built to pass shape conservation;
/// without, its split is drawn freely and usually does not.
fn arb_any_plan() -> impl Strategy<Value = (PartitionPlan, MatmulShape)> {
    (
        (0usize..160, 1usize..40),
        0usize..6,
        proptest::collection::vec(1usize..96, 0..4),
        0usize..48,
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|((m, n), variant, mut chunks, extra, clean, degenerate)| {
            let shape = MatmulShape::new(m, 8, n);
            let gpu_cols = match (degenerate, clean) {
                (true, _) => 0,
                (false, true) => extra % n,
                (false, false) => n + extra,
            };
            let padded_m = if clean { m + extra } else { extra };
            let plan = match variant {
                0 => PartitionPlan::GpuOnly,
                1 => PartitionPlan::NpuOnly { padded_m },
                2 => {
                    let sum: usize = chunks.iter().sum();
                    if clean && sum < m {
                        chunks.push(m - sum + extra);
                    }
                    let sum: usize = chunks.iter().sum();
                    let padded_rows = if clean { sum.saturating_sub(m) } else { extra };
                    PartitionPlan::NpuPipe {
                        chunks,
                        padded_rows,
                    }
                }
                3 => PartitionPlan::RowCut { gpu_cols, padded_m },
                4 => PartitionPlan::HybridCut { padded_m, gpu_cols },
                _ if clean => {
                    // Keep the chunks that fit, then split the rest
                    // between one more chunk and the GPU.
                    let mut sum = 0;
                    chunks.retain(|&c| {
                        let fits = sum + c <= m;
                        sum += if fits { c } else { 0 };
                        fits
                    });
                    let rest = m - sum;
                    let gpu_rows = if degenerate { 0 } else { extra.min(rest) };
                    if rest > gpu_rows {
                        chunks.push(rest - gpu_rows);
                    }
                    PartitionPlan::SeqCut {
                        npu_chunks: chunks,
                        gpu_rows,
                    }
                }
                _ => PartitionPlan::SeqCut {
                    npu_chunks: chunks,
                    gpu_rows: if degenerate { 0 } else { extra },
                },
            };
            (plan, shape)
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

    /// `lower()` lists the plan's steps: its sub-problems in order (GPU,
    /// then NPU in submission order), then one publishing step — a
    /// rendezvous for a parallel plan, a switch for a serial plan with
    /// an NPU side, none for `GpuOnly`. For a conservation-clean plan
    /// the compute steps' tiles cover `[m, n]` exactly once.
    #[test]
    fn lowering_lists_the_plan_steps((plan, shape) in arb_any_plan()) {
        let lowered = plan.lower(shape);
        let steps: Vec<Step> = lowered.steps().collect();
        let subproblems: Vec<(Backend, MatmulShape)> = lowered
            .gpu
            .map(|g| (Backend::Gpu, g))
            .into_iter()
            .chain(lowered.npu().map(|s| (Backend::Npu, s)))
            .collect();
        let compute: Vec<(Backend, MatmulShape)> = steps
            .iter()
            .map_while(|s| match s {
                Step::Compute(c) => Some((c.backend, c.shape)),
                _ => None,
            })
            .collect();
        prop_assert_eq!(&compute, &subproblems, "{:?}", plan);

        let publish = if plan.is_parallel() {
            Some(Step::Rendezvous)
        } else if plan.uses_npu() {
            Some(Step::Switch)
        } else {
            None
        };
        prop_assert_eq!(&steps[compute.len()..], publish.as_slice(), "{:?}", plan);

        let MatmulShape { m, n, .. } = shape;
        if plan.conservation_violations(m, n).is_empty() {
            let mut hits = vec![0u32; m * n];
            for c in lowered.compute() {
                prop_assert!(c.rows.end <= m && c.cols.end <= n, "{:?}: {:?}", plan, c);
                for r in c.rows {
                    for col in c.cols.clone() {
                        hits[r * n + col] += 1;
                    }
                }
            }
            prop_assert!(hits.iter().all(|&h| h == 1), "{:?} on {:?}: {:?}", plan, shape, hits);
        }
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
