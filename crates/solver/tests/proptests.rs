//! Property-based tests of the partition solver.

use std::sync::OnceLock;

use hetero_graph::plan::{candidate_plans, next_standard, pipe_plan};
use hetero_profiler::db::BwCondition;
use hetero_profiler::measure::{partition_shape_grid, profile_matmuls};
use hetero_profiler::{CostProvider, PredictedProvider, RealExecProvider};
use hetero_soc::specs::{project_config, table1};
use hetero_soc::sync::Dominance;
use hetero_soc::{Backend, SimTime, Soc, SocConfig};
use hetero_solver::{DeratedProvider, PartitionPlan, PlanChoice, Solver, SolverConfig};
use hetero_tensor::shape::MatmulShape;
use hetero_tensor::DType;
use proptest::prelude::*;

/// Cases per property: `PROPTEST_CASES` if set, else 48.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

fn solver() -> Solver<RealExecProvider> {
    Solver::new(
        RealExecProvider::new(SocConfig::snapdragon_8gen3()),
        SolverConfig::default(),
    )
}

fn arb_shape() -> impl Strategy<Value = MatmulShape> {
    // LLM-plausible dims: sequence 1..1100, hidden/ffn-like k and n.
    (
        1usize..1100,
        prop_oneof![Just(2048usize), Just(4096), Just(8192), Just(14336)],
        prop_oneof![
            Just(2048usize),
            Just(4096),
            Just(6144),
            Just(14336),
            Just(28672)
        ],
    )
        .prop_map(|(m, k, n)| MatmulShape::new(m, k, n))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn plan_always_covers_the_problem(shape in arb_shape()) {
        let choice = solver().solve(shape, Dominance::NpuDominant);
        match &choice.plan {
            PartitionPlan::GpuOnly => {}
            PartitionPlan::NpuOnly { padded_m } => prop_assert!(*padded_m >= shape.m),
            PartitionPlan::NpuPipe { chunks, padded_rows } => {
                let rows: usize = chunks.iter().sum();
                prop_assert_eq!(rows - padded_rows, shape.m);
            }
            PartitionPlan::RowCut { gpu_cols, padded_m }
            | PartitionPlan::HybridCut { gpu_cols, padded_m } => {
                prop_assert!(*gpu_cols > 0 && *gpu_cols < shape.n);
                prop_assert!(*padded_m >= shape.m);
            }
            PartitionPlan::SeqCut { npu_chunks, gpu_rows } => {
                let covered: usize = npu_chunks.iter().sum::<usize>() + gpu_rows;
                prop_assert_eq!(covered, shape.m);
            }
        }
    }

    #[test]
    fn estimate_never_worse_than_either_backend_alone(shape in arb_shape()) {
        let s = solver();
        let choice = s.solve(shape, Dominance::NpuDominant);
        let provider = RealExecProvider::new(SocConfig::snapdragon_8gen3());
        let gpu_only = provider.matmul_cost(
            Backend::Gpu, shape, DType::F16, DType::Int4, BwCondition::Solo,
        );
        prop_assert!(choice.est_time <= gpu_only + SimTime::from_micros(1));
    }

    #[test]
    fn row_cuts_respect_alignment(shape in arb_shape()) {
        let choice = solver().solve(shape, Dominance::NpuDominant);
        if let PartitionPlan::RowCut { gpu_cols, .. }
        | PartitionPlan::HybridCut { gpu_cols, .. } = choice.plan
        {
            prop_assert_eq!(gpu_cols % 256, 0, "row cut {} misaligned", gpu_cols);
        }
    }

    #[test]
    fn seq_chunks_are_standard_sizes(shape in arb_shape()) {
        let choice = solver().solve(shape, Dominance::NpuDominant);
        if let PartitionPlan::SeqCut { npu_chunks, .. } = &choice.plan {
            for c in npu_chunks {
                prop_assert!(
                    hetero_soc::calib::STANDARD_GRAPH_SIZES.contains(c),
                    "chunk {c} is not a standard graph size"
                );
            }
        }
    }

    #[test]
    fn max_threshold_forbids_parallelism(shape in arb_shape()) {
        // min_parallel_gain = 1.0 can never be met (a parallel plan
        // cannot be infinitely better), so the solver must go serial.
        let s = Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            SolverConfig { min_parallel_gain: 1.0, ..SolverConfig::default() },
        );
        let choice = s.solve(shape, Dominance::NpuDominant);
        prop_assert!(!choice.plan.is_parallel(), "{:?}", choice.plan);
    }

    #[test]
    fn decode_plans_cover_decode_shapes(
        k in prop_oneof![Just(2048usize), Just(4096), Just(14336)],
        n in prop_oneof![Just(2048usize), Just(4096), Just(28672)],
    ) {
        let s = Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            SolverConfig::decode(1),
        );
        let choice = s.solve(MatmulShape::new(1, k, n), Dominance::GpuDominant);
        // Decode is memory-bound: a parallel bandwidth-aggregating plan
        // or a serial plan, never padding beyond the decode graph.
        if let PartitionPlan::NpuOnly { padded_m } = choice.plan {
            prop_assert_eq!(padded_m, 1);
        }
    }

    #[test]
    fn solving_is_deterministic(shape in arb_shape()) {
        let a = solver().solve(shape, Dominance::NpuDominant);
        let b = solver().solve(shape, Dominance::NpuDominant);
        prop_assert_eq!(a, b);
    }
}

/// Reference solver: the §4.3 search with every row cut priced, no
/// early exit. `Solver::solve` must return exactly its answer.
fn full_scan_solve<P: CostProvider>(
    provider: &P,
    cfg: &SolverConfig,
    shape: MatmulShape,
    dominance: Dominance,
) -> PlanChoice {
    let npu = |s: MatmulShape, cond| {
        if cfg.permute_for_npu {
            provider.matmul_cost(
                Backend::Npu,
                s.reversed(),
                cfg.weight_dtype,
                DType::F16,
                cond,
            )
        } else {
            provider.matmul_cost(Backend::Npu, s, DType::F16, cfg.weight_dtype, cond)
        }
    };
    let gpu = |s: MatmulShape, cond| {
        provider.matmul_cost(Backend::Gpu, s, DType::F16, cfg.weight_dtype, cond)
    };
    let npu_chunks = |chunks: &[usize], cond| -> SimTime {
        chunks
            .iter()
            .map(|&c| npu(MatmulShape { m: c, ..shape }, cond))
            .sum()
    };
    let mut serial = vec![(PartitionPlan::GpuOnly, gpu(shape, BwCondition::Solo))];
    let mut parallel = Vec::new();
    let switch = cfg.sync.backend_switch();
    let rendezvous = cfg.sync.rendezvous(dominance);
    let padded = next_standard(shape.m, &cfg.standards);
    match padded {
        Some(padded_m) => serial.push((
            PartitionPlan::NpuOnly { padded_m },
            npu(
                MatmulShape {
                    m: padded_m,
                    ..shape
                },
                BwCondition::Solo,
            ) + switch,
        )),
        None => {
            let pipe = pipe_plan(shape.m, &cfg.standards);
            let t = npu_chunks(&pipe.npu_chunks, BwCondition::Solo) + switch;
            serial.push((
                PartitionPlan::NpuPipe {
                    chunks: pipe.npu_chunks,
                    padded_rows: pipe.padded_rows,
                },
                t,
            ));
        }
    }
    if let (true, Some(padded_m)) = (cfg.enable_row_cut, padded) {
        for c in (1..)
            .map(|i| i * cfg.row_align)
            .take_while(|&c| c < shape.n)
        {
            let t = npu(
                MatmulShape::new(padded_m, shape.k, shape.n - c),
                BwCondition::Contended,
            )
            .max(gpu(
                MatmulShape::new(shape.m, shape.k, c),
                BwCondition::Contended,
            )) + rendezvous;
            let plan = if padded_m == shape.m {
                PartitionPlan::RowCut {
                    gpu_cols: c,
                    padded_m,
                }
            } else {
                PartitionPlan::HybridCut {
                    padded_m,
                    gpu_cols: c,
                }
            };
            parallel.push((plan, t));
        }
    }
    let seq = if cfg.enable_seq_cut {
        candidate_plans(shape.m, &cfg.standards)
    } else {
        Vec::new()
    };
    for cand in seq.into_iter().filter(|c| !c.npu_chunks.is_empty()) {
        if cand.margin == 0 {
            let t = npu_chunks(&cand.npu_chunks, BwCondition::Solo) + switch;
            serial.push((
                PartitionPlan::SeqCut {
                    npu_chunks: cand.npu_chunks,
                    gpu_rows: 0,
                },
                t,
            ));
        } else {
            let t = npu_chunks(&cand.npu_chunks, BwCondition::Contended).max(gpu(
                MatmulShape {
                    m: cand.margin,
                    ..shape
                },
                BwCondition::Contended,
            )) + rendezvous;
            parallel.push((
                PartitionPlan::SeqCut {
                    npu_chunks: cand.npu_chunks,
                    gpu_rows: cand.margin,
                },
                t,
            ));
        }
    }
    // First strict minimum, as the solver keeps it.
    let first_min = |plans: Vec<(PartitionPlan, SimTime)>| {
        plans
            .into_iter()
            .reduce(|best, p| if p.1 < best.1 { p } else { best })
    };
    let (serial_plan, serial_t) = first_min(serial).expect("GPU-only is always a candidate");
    let (plan, est_time) = match first_min(parallel) {
        Some((p, t))
            if t.as_secs_f64() < serial_t.as_secs_f64() * (1.0 - cfg.min_parallel_gain) =>
        {
            (p, t)
        }
        _ => (serial_plan, serial_t),
    };
    PlanChoice {
        plan: plan.normalize(),
        est_time,
    }
}

/// A prediction-mode provider trained on a small real-execution
/// profile (shared across cases: training dominates its cost).
fn predicted_provider() -> PredictedProvider {
    static PROVIDER: OnceLock<PredictedProvider> = OnceLock::new();
    PROVIDER
        .get_or_init(|| {
            let cfg = SocConfig::snapdragon_8gen3();
            let mut shapes = Vec::new();
            for (k, n) in [(2048, 2048), (4096, 14336), (14336, 4096)] {
                shapes.extend(
                    partition_shape_grid(&[1, 256], k, n)
                        .into_iter()
                        .map(|s| s.reversed()),
                );
            }
            let db = profile_matmuls(
                &Soc::new(cfg.clone()),
                &shapes,
                &[Backend::Npu],
                DType::Int4,
                DType::F16,
            );
            PredictedProvider::train(&db, cfg).expect("profile grid is non-empty")
        })
        .clone()
}

/// The configuration with every memory bandwidth scaled by
/// `ppm / 10⁶` (the fleet's silicon-lottery perturbation).
fn bandwidth_scaled(mut cfg: SocConfig, ppm: u64) -> SocConfig {
    let f = ppm as f64 / 1e6;
    cfg.mem.soc_peak_gbps *= f;
    cfg.mem.cpu_cap_gbps *= f;
    cfg.mem.gpu_cap_gbps *= f;
    cfg.mem.npu_cap_gbps *= f;
    cfg
}

/// Real-execution costs rounded up to a whole number of `quantum_ns`.
/// Rounding up keeps every order the inner provider guarantees, and
/// the plateaus it makes give the row-cut search many exact ties.
#[derive(Clone)]
struct QuantizedProvider {
    inner: RealExecProvider,
    quantum_ns: u64,
}

impl CostProvider for QuantizedProvider {
    fn matmul_cost(
        &self,
        backend: Backend,
        shape: MatmulShape,
        act_dtype: DType,
        weight_dtype: DType,
        condition: BwCondition,
    ) -> SimTime {
        let t = self
            .inner
            .matmul_cost(backend, shape, act_dtype, weight_dtype, condition)
            .as_nanos();
        SimTime::from_nanos(t.div_ceil(self.quantum_ns) * self.quantum_ns)
    }

    fn npu_monotone_past_depth(&self) -> bool {
        self.inner.npu_monotone_past_depth()
    }
}

fn solve_matches_full_scan<P: CostProvider + Clone>(
    provider: P,
    cfg: SolverConfig,
    shape: MatmulShape,
    dominance: Dominance,
) -> Result<(), TestCaseError> {
    let want = full_scan_solve(&provider, &cfg, shape, dominance);
    let got = Solver::new(provider, cfg).solve(shape, dominance);
    prop_assert_eq!(&got, &want, "{:?} {:?}", shape, dominance);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn early_exit_row_cut_scan_matches_full_scan(
        m in prop_oneof![1usize..=64, 1usize..1100, 1usize..2200],
        k in prop_oneof![Just(1536usize), Just(2048), Just(4096), Just(8960), Just(14336)],
        n in prop_oneof![
            Just(256usize), Just(1000), Just(2048), Just(4096), Just(6144), Just(14336),
            Just(28672), 1usize..40_000, Just(92544), Just(128_256), Just(151_936)
        ],
        config_ix in 0usize..5,
        gain_permille in 0u64..400,
        provider_ix in 0usize..5,
        soc_ix in 0usize..16,
        bw_ppm in 970_000u64..=1_030_000,
        derate_ppm in 1_000_000u64..=3_000_000,
        quantum_ns in prop_oneof![1u64..1_000, 1_000u64..200_000, 200_000u64..5_000_000],
        gpu_dominant in proptest::bool::ANY,
    ) {
        let shape = MatmulShape::new(m, k, n);
        let dominance = if gpu_dominant { Dominance::GpuDominant } else { Dominance::NpuDominant };
        let cfg = match config_ix {
            0 => SolverConfig::default(),
            1 => SolverConfig::decode(1),
            2 => SolverConfig {
                min_parallel_gain: gain_permille as f64 / 1000.0,
                ..SolverConfig::default()
            },
            3 => SolverConfig { enable_seq_cut: false, ..SolverConfig::default() },
            _ => SolverConfig { permute_for_npu: false, ..SolverConfig::default() },
        };
        match provider_ix {
            0 => {
                let soc = bandwidth_scaled(SocConfig::snapdragon_8gen3(), bw_ppm);
                solve_matches_full_scan(RealExecProvider::new(soc), cfg, shape, dominance)?;
            }
            1 => {
                let socs: Vec<SocConfig> = table1().iter().filter_map(project_config).collect();
                let soc = socs[soc_ix % socs.len()].clone();
                solve_matches_full_scan(RealExecProvider::new(soc), cfg, shape, dominance)?;
            }
            2 => solve_matches_full_scan(predicted_provider(), cfg, shape, dominance)?,
            3 => {
                // The drift re-solve path: a slowed NPU over a real one.
                let socs: Vec<SocConfig> = table1().iter().filter_map(project_config).collect();
                let soc = bandwidth_scaled(socs[soc_ix % socs.len()].clone(), bw_ppm);
                let provider = DeratedProvider::new(RealExecProvider::new(soc), derate_ppm);
                solve_matches_full_scan(provider, cfg, shape, dominance)?;
            }
            _ => {
                let soc = bandwidth_scaled(SocConfig::snapdragon_8gen3(), bw_ppm);
                let provider = QuantizedProvider { inner: RealExecProvider::new(soc), quantum_ns };
                solve_matches_full_scan(provider, cfg, shape, dominance)?;
            }
        }
    }

    #[test]
    fn real_npu_cost_is_monotone_past_depth(
        bw_ppm in 970_000u64..=1_030_000,
        k in prop_oneof![1usize..20_000, Just(1536), Just(2048), Just(4096), Just(14336)],
        depth in prop_oneof![0usize..64, 0usize..200_000],
        grow in prop_oneof![1usize..=32, 1usize..100_000],
        padded_m in prop_oneof![Just(1usize), Just(64), Just(256), 1usize..2200],
    ) {
        // The solver's permuted NPU operands, `[n−c, k, padded_m]` with
        // the INT4 weight streamed and the FP16 activation stationary,
        // on every projected SoC under its silicon-lottery bandwidth.
        let m = k + depth;
        for soc in table1().iter().filter_map(project_config) {
            let provider = RealExecProvider::new(bandwidth_scaled(soc, bw_ppm));
            prop_assert!(provider.npu_monotone_past_depth());
            for condition in [BwCondition::Solo, BwCondition::Contended] {
                let cost = |m| {
                    provider.matmul_cost(
                        Backend::Npu,
                        MatmulShape::new(m, k, padded_m),
                        DType::Int4,
                        DType::F16,
                        condition,
                    )
                };
                let (short, long) = (cost(m), cost(m + grow));
                prop_assert!(
                    long >= short,
                    "[{m},{k},{padded_m}] {condition:?}: {short:?} > {long:?} at m + {grow}"
                );
            }
        }
    }
}
