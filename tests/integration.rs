//! Cross-crate integration tests: profiler ↔ solver ↔ engine ↔
//! simulator consistency.

use heterollm_suite::engine::engines::{Engine, HeteroTensorEngine};
use heterollm_suite::engine::{EngineKind, ModelConfig};
use heterollm_suite::graph::{CompileModel, GraphCache};
use heterollm_suite::profiler::db::BwCondition;
use heterollm_suite::profiler::measure::{partition_shape_grid, profile_matmuls};
use heterollm_suite::profiler::{CostProvider, PredictedProvider, RealExecProvider};
use heterollm_suite::soc::sync::{Dominance, SyncMechanism};
use heterollm_suite::soc::{Backend, Soc, SocConfig};
use heterollm_suite::solver::{PartitionPlan, Solver, SolverConfig};
use heterollm_suite::tensor::shape::MatmulShape;
use heterollm_suite::tensor::DType;

/// The solver's estimate for a plan must track what the engine's
/// simulator actually charges for executing that plan.
#[test]
fn solver_estimates_match_simulated_execution() {
    let cfg = SocConfig::snapdragon_8gen3();
    let solver = Solver::new(RealExecProvider::new(cfg.clone()), SolverConfig::default());
    let shape = MatmulShape::new(256, 14336, 4096); // FFN-down

    let choice = solver.solve(shape, Dominance::NpuDominant);
    let mut soc = Soc::new(cfg);
    let elapsed = match &choice.plan {
        PartitionPlan::RowCut { gpu_cols, padded_m } => {
            let gpu = heterollm_suite::engine::engines::gpu_kernel(MatmulShape::new(
                shape.m, shape.k, *gpu_cols,
            ));
            let npu = heterollm_suite::engine::engines::npu_kernel(MatmulShape::new(
                *padded_m,
                shape.k,
                shape.n - gpu_cols,
            ));
            soc.run_parallel(&[gpu], &[npu], Dominance::NpuDominant);
            soc.clock()
        }
        other => panic!("expected a row cut for FFN-down, got {other:?}"),
    };
    let est = choice.est_time.as_secs_f64();
    let act = elapsed.as_secs_f64();
    assert!(
        (est / act - 1.0).abs() < 0.15,
        "solver {est} vs simulator {act}"
    );
}

/// Prediction-mode solving must produce plans whose real cost is close
/// to the real-execution solver's plans (§4.3: "minor inaccuracies ...
/// are tolerable for our solver").
#[test]
fn prediction_mode_solver_is_competitive() {
    let cfg = SocConfig::snapdragon_8gen3();
    let soc = Soc::new(cfg.clone());
    // Profile the model's operator grid offline — in the *permuted*
    // execution order the solver queries (INT4 weight streamed, FP16
    // activation stationary).
    let mut shapes = Vec::new();
    for (_, k, n) in ModelConfig::llama_8b().matmul_ops() {
        shapes.extend(
            partition_shape_grid(&[64, 256, 1024], k, n)
                .into_iter()
                .map(|s| s.reversed()),
        );
    }
    shapes.sort_unstable_by_key(|s| (s.m, s.k, s.n));
    shapes.dedup();
    let db = profile_matmuls(&soc, &shapes, &[Backend::Npu], DType::Int4, DType::F16);
    let predicted = PredictedProvider::train(&db, cfg.clone()).expect("training data exists");

    let real_solver = Solver::new(RealExecProvider::new(cfg.clone()), SolverConfig::default());
    let pred_solver = Solver::new(predicted, SolverConfig::default());
    let real_cost = RealExecProvider::new(cfg);

    for (name, k, n) in ModelConfig::llama_8b().matmul_ops() {
        let shape = MatmulShape::new(256, k, n);
        let real_choice = real_solver.solve(shape, Dominance::NpuDominant);
        let pred_choice = pred_solver.solve(shape, Dominance::NpuDominant);

        // Evaluate BOTH plans under the true cost model.
        let true_cost = |plan: &PartitionPlan| -> f64 {
            match plan {
                PartitionPlan::GpuOnly => real_cost
                    .matmul_cost(
                        Backend::Gpu,
                        shape,
                        DType::F16,
                        DType::Int4,
                        BwCondition::Solo,
                    )
                    .as_secs_f64(),
                PartitionPlan::NpuOnly { padded_m } => real_cost
                    .matmul_cost(
                        Backend::Npu,
                        MatmulShape {
                            m: *padded_m,
                            ..shape
                        }
                        .reversed(),
                        DType::Int4,
                        DType::F16,
                        BwCondition::Solo,
                    )
                    .as_secs_f64(),
                PartitionPlan::RowCut { gpu_cols, padded_m }
                | PartitionPlan::HybridCut { gpu_cols, padded_m } => {
                    let g = real_cost
                        .matmul_cost(
                            Backend::Gpu,
                            MatmulShape::new(shape.m, shape.k, *gpu_cols),
                            DType::F16,
                            DType::Int4,
                            BwCondition::Contended,
                        )
                        .as_secs_f64();
                    let n_ = real_cost
                        .matmul_cost(
                            Backend::Npu,
                            MatmulShape::new(*padded_m, shape.k, shape.n - gpu_cols).reversed(),
                            DType::Int4,
                            DType::F16,
                            BwCondition::Contended,
                        )
                        .as_secs_f64();
                    g.max(n_)
                }
                other => panic!("unexpected plan {other:?} for aligned prefill"),
            }
        };

        let t_real = true_cost(&real_choice.plan);
        let t_pred = true_cost(&pred_choice.plan);
        assert!(
            t_pred <= t_real * 1.6,
            "{name}: prediction-mode plan {:?} costs {t_pred}, real-mode {:?} costs {t_real}",
            pred_choice.plan,
            real_choice.plan
        );
    }
}

/// Graph-cache accounting must show up in engine latency: the first
/// misaligned request through an Online-prepare engine is slower than
/// the second by approximately the compile time.
#[test]
fn graph_compilation_charged_exactly_once() {
    let model = ModelConfig::llama_8b();
    let compile = CompileModel::default();
    let expected = compile
        .set_compile_time(&model.graph_set(), 300)
        .as_secs_f64();

    let mut engine = EngineKind::NpuOnlinePrepare.build(&model, SyncMechanism::Fast);
    let first = engine.prefill(300).elapsed.as_secs_f64();
    let second = engine.prefill(300).elapsed.as_secs_f64();
    let delta = first - second;
    assert!(
        (delta / expected - 1.0).abs() < 0.05,
        "compile charge {delta} vs expected {expected}"
    );
}

/// The engine's plan table reuses solved plans across layers: a 32-layer
/// prefill solves each of the 4 operator shapes only once.
#[test]
fn plan_table_amortizes_solver_work() {
    let model = ModelConfig::llama_8b();
    let mut engine = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
    // Warm: solving happens during the first prefill.
    engine.prefill(256);
    // All per-layer shapes plus the LM head => 5 distinct plans.
    let plan = engine.plan_for("ffn_down", MatmulShape::new(256, model.ffn, model.hidden));
    assert!(plan.is_parallel());
}

/// Cache reuse across engines: padding and pipe engines share the same
/// standard graph set semantics.
#[test]
fn preloaded_graph_sizes_cover_standards() {
    let model = ModelConfig::llama_8b();
    let mut cache = GraphCache::new(model.graph_set(), CompileModel::default());
    let t = cache.preload(&heterollm_suite::soc::calib::STANDARD_GRAPH_SIZES);
    assert!(
        t.as_secs_f64() > 1.0,
        "offline preparation is expensive: {t}"
    );
    for s in heterollm_suite::soc::calib::STANDARD_GRAPH_SIZES {
        assert!(cache.has(s));
    }
}

/// End-to-end session reports are internally consistent.
#[test]
fn session_reports_consistent_across_engines() {
    let model = ModelConfig::llama_3b();
    for kind in EngineKind::ALL {
        let mut session = heterollm_suite::engine::InferenceSession::new(kind, &model);
        let r = session.try_run(64, 4).expect("built-in trace");
        assert_eq!(r.prefill.tokens, 64, "{}", r.engine);
        assert_eq!(r.decode.tokens, 4, "{}", r.engine);
        assert!(
            r.ttft() > heterollm_suite::soc::SimTime::ZERO,
            "{}",
            r.engine
        );
        assert!(
            r.power.avg_power_w > 0.2 && r.power.avg_power_w < 8.0,
            "{}",
            r.engine
        );
        // TPOT should exceed per-prompt-token time (decode is
        // memory-bound and unbatched).
        assert!(r.tpot() > r.prefill.per_token(), "{}", r.engine);
    }
}

/// Degenerate requests must not panic: zero-length prompts cost only
/// fixed per-kernel overheads and zero-token decodes cost nothing.
#[test]
fn zero_length_requests_are_harmless() {
    let model = ModelConfig::tiny();
    for kind in EngineKind::ALL {
        let mut e = kind.build(&model, SyncMechanism::Fast);
        let p = e.prefill(0);
        assert_eq!(p.tokens, 0, "{}", e.name());
        assert!(
            p.elapsed.as_millis_f64() < 5.0,
            "{}: {}",
            e.name(),
            p.elapsed
        );
        let d = e.decode(0, 0);
        assert_eq!(
            d.elapsed,
            heterollm_suite::soc::SimTime::ZERO,
            "{}",
            e.name()
        );
    }
}
