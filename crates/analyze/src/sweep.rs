//! Lint sweep over solver output for the paper's model configurations.
//!
//! Shared by the `analyze` binary and the experiment harness's
//! `--analyze` flag: for each model the per-layer weight Matmuls are
//! solved over a set of prefill sequence lengths (NPU-dominant) plus
//! the decode shape (m = 1, GPU-dominant), and every resulting plan is
//! run through the full rule set.

use hetero_profiler::RealExecProvider;
use hetero_soc::disturb::DisturbanceTrace;
use hetero_soc::sync::{Dominance, SyncMechanism, SyncModel};
use hetero_soc::{SimTime, SocConfig};
use hetero_solver::{Solver, SolverConfig};
use hetero_tensor::shape::MatmulShape;
use heterollm::runtime::{conversation_traffic, ControllerConfig, RuntimeController, SloPolicy};
use heterollm::{EngineKind, ModelConfig};

use crate::diag::Report;
use crate::explore::{explore_schedule, DeterminismCertificate, ExploreConfig};
use crate::plan_rules::PlanContext;
use crate::race;
use crate::sched::{retry_schedule, verified_schedule, SyncSchedule};

/// Default prefill sequence lengths: the standard (aligned) sizes plus
/// the paper's misaligned examples (135 from §5.2.2, 300/600 from
/// §4.1.1, 2100 beyond the largest compiled graph).
pub const DEFAULT_SEQS: [usize; 10] = [32, 128, 135, 256, 300, 512, 600, 1024, 2048, 2100];

/// Solve and lint every weight Matmul of `models` over `seqs` (prefill)
/// plus the decode shape, under the given sync mechanism.
pub fn lint_models(models: &[ModelConfig], seqs: &[usize], mechanism: SyncMechanism) -> Report {
    let mut report = Report::new();
    let prefill_cfg = SolverConfig {
        sync: SyncModel::new(mechanism),
        ..SolverConfig::default()
    };
    let decode_cfg = SolverConfig {
        sync: SyncModel::new(mechanism),
        ..SolverConfig::decode(1)
    };
    for model in models {
        let prefill = Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            prefill_cfg.clone(),
        );
        let decode = Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            decode_cfg.clone(),
        );
        for (op, k, n) in model.matmul_ops() {
            for &m in seqs {
                let choice = prefill.solve(MatmulShape::new(m, k, n), Dominance::NpuDominant);
                let mut ctx = PlanContext::standard(format!("{}/{op}[m={m}]", model.name), m, n);
                ctx.mechanism = mechanism;
                ctx.compiled_sizes = prefill_cfg.standards.clone();
                report.extend(crate::check_plan_full(&choice.plan, &ctx));
            }
            // Decode: m = 1, GPU-dominant, graphs only for length 1.
            let choice = decode.solve(MatmulShape::new(1, k, n), Dominance::GpuDominant);
            let mut ctx = PlanContext::standard(format!("{}/{op}[decode]", model.name), 1, n);
            ctx.mechanism = mechanism;
            ctx.compiled_sizes = decode_cfg.standards.clone();
            report.extend(crate::check_plan_full(&choice.plan, &ctx));
        }
    }
    report
}

/// Lint the *verified* sync schedules of every solver-chosen plan for
/// `models`: each plan's schedule is rewritten by [`verified_schedule`]
/// (one ABFT verify node per submission, consumers rerouted through
/// it) and must then pass the happens-before sanity check, the
/// `unverified-sink` rule, and the vector-clock race check. The base
/// (unverified) schedules intentionally fail `unverified-sink` — that
/// negative case is covered by unit tests, not this sweep, so CI can
/// gate on a clean report here.
pub fn integrity_lint_models(
    models: &[ModelConfig],
    seqs: &[usize],
    mechanism: SyncMechanism,
) -> Report {
    let mut report = Report::new();
    let prefill_cfg = SolverConfig {
        sync: SyncModel::new(mechanism),
        ..SolverConfig::default()
    };
    let decode_cfg = SolverConfig {
        sync: SyncModel::new(mechanism),
        ..SolverConfig::decode(1)
    };
    let mut lint_one = |schedule: &SyncSchedule, location: String| {
        let verified = verified_schedule(schedule);
        let mut diags = crate::sched::check_schedule(&verified, &location);
        diags.extend(crate::sched::check_unverified_sink(&verified, &location));
        diags.extend(race::check_schedule_races(&verified, mechanism, &location));
        report.extend(diags);
    };
    for model in models {
        let prefill = Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            prefill_cfg.clone(),
        );
        let decode = Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            decode_cfg.clone(),
        );
        for (op, k, n) in model.matmul_ops() {
            for &m in seqs {
                let shape = MatmulShape::new(m, k, n);
                let choice = prefill.solve(shape, Dominance::NpuDominant);
                lint_one(
                    &SyncSchedule::for_plan(&choice.plan, shape),
                    format!("{}/{op}[m={m},verified]", model.name),
                );
            }
            let shape = MatmulShape::new(1, k, n);
            let choice = decode.solve(shape, Dominance::GpuDominant);
            lint_one(
                &SyncSchedule::for_plan(&choice.plan, shape),
                format!("{}/{op}[decode,verified]", model.name),
            );
        }
    }
    report
}

/// Engine kinds whose recorded event logs the race sweep checks: the
/// two heterogeneous engines (cross-backend sync), an NPU-serial engine
/// with backend switches, and a GPU-only baseline as the trivial case.
const RACE_SWEEP_ENGINES: [EngineKind; 4] = [
    EngineKind::HeteroTensor,
    EngineKind::HeteroLayer,
    EngineKind::NpuPipe,
    EngineKind::PplOpenCl,
];

/// Record and race-check real engine event logs for `models`.
///
/// Two kinds of evidence per model: each engine in
/// [`RACE_SWEEP_ENGINES`] runs a prefill + short decode with recording
/// on, and a [`RuntimeController`] serves a seeded conversation under
/// the standard disturbance trace so replan/fallback/retry quiesce
/// markers appear in the log. Every recorded log must be race-free.
pub fn race_lint_models(models: &[ModelConfig], mechanism: SyncMechanism, seq: usize) -> Report {
    let mut report = Report::new();
    for model in models {
        for kind in RACE_SWEEP_ENGINES {
            let mut engine = kind.build(model, mechanism);
            engine.enable_concurrency_log();
            engine
                .try_prefill(seq)
                .expect("race sweep prefill must not fail");
            engine
                .try_decode(seq, 2)
                .expect("race sweep decode must not fail");
            let log = engine
                .take_concurrency_log()
                .expect("recording was enabled");
            let location = format!("{}/{}[m={seq}]", model.name, engine.name());
            report.extend(race::check_log(&log, &location));
        }
    }
    report
}

/// Race-check the concurrency log of a disturbed multi-request
/// controller session (replans, fallbacks, and sync downgrades
/// included), seeded for reproducibility.
pub fn race_lint_degraded_session(model: &ModelConfig, seed: u64, requests: usize) -> Report {
    let mut report = Report::new();
    let mut ctrl = RuntimeController::new(
        model,
        ControllerConfig::adaptive(SloPolicy::calibrated(model)),
    );
    ctrl.enable_concurrency_log();
    let reqs = conversation_traffic(seed, requests, SimTime::from_millis(200));
    let trace = DisturbanceTrace::standard(seed);
    ctrl.run(&reqs, &trace)
        .expect("degraded race sweep session must complete");
    let log = ctrl.take_concurrency_log().expect("recording was enabled");
    let location = format!("{}/degraded[seed={seed}]", model.name);
    report.extend(race::check_log(&log, &location));
    report
}

/// Explore the interleaving space of every solver-chosen plan's sync
/// schedule (and its rendezvous-retry variant) for `models`.
///
/// Returns the aggregated report plus one
/// [`DeterminismCertificate`] per explored schedule, labelled by
/// location.
pub fn explore_models(
    models: &[ModelConfig],
    seqs: &[usize],
    mechanism: SyncMechanism,
) -> (Report, Vec<(String, DeterminismCertificate)>) {
    let mut report = Report::new();
    let mut certs = Vec::new();
    let cfg = ExploreConfig {
        mechanism,
        ..ExploreConfig::default()
    };
    let solver_cfg = SolverConfig {
        sync: SyncModel::new(mechanism),
        ..SolverConfig::default()
    };
    let decode_cfg = SolverConfig {
        sync: SyncModel::new(mechanism),
        ..SolverConfig::decode(1)
    };
    let mut explore_one = |schedule: &SyncSchedule, location: String| {
        let (cert, diags) = explore_schedule(schedule, &cfg, &location);
        report.extend(diags);
        certs.push((location, cert));
    };
    for model in models {
        let prefill = Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            solver_cfg.clone(),
        );
        let decode = Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            decode_cfg.clone(),
        );
        for (op, k, n) in model.matmul_ops() {
            for &m in seqs {
                let shape = MatmulShape::new(m, k, n);
                let choice = prefill.solve(shape, Dominance::NpuDominant);
                let s = SyncSchedule::for_plan(&choice.plan, shape);
                explore_one(&s, format!("{}/{op}[m={m}]", model.name));
                explore_one(
                    &retry_schedule(&s),
                    format!("{}/{op}[m={m},retry]", model.name),
                );
            }
            let shape = MatmulShape::new(1, k, n);
            let choice = decode.solve(shape, Dominance::GpuDominant);
            let s = SyncSchedule::for_plan(&choice.plan, shape);
            explore_one(&s, format!("{}/{op}[decode]", model.name));
            explore_one(
                &retry_schedule(&s),
                format!("{}/{op}[decode,retry]", model.name),
            );
        }
    }
    (report, certs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_output_is_clean_for_one_model() {
        let models = [ModelConfig::internlm_1_8b()];
        let report = lint_models(&models, &[32, 300], SyncMechanism::Fast);
        assert!(report.is_clean(), "{}", report.to_json());
        assert_eq!(report.summary.warn, 0, "{}", report.to_json());
        // 4 matmul ops × (2 prefill seqs + 1 decode).
        assert_eq!(report.summary.checked, 12);
    }

    #[test]
    fn verified_solver_schedules_pass_integrity_lint() {
        let models = [ModelConfig::internlm_1_8b()];
        let report = integrity_lint_models(&models, &[32, 300], SyncMechanism::Fast);
        assert!(report.is_clean(), "{}", report.to_json());
        assert_eq!(report.summary.warn, 0, "{}", report.to_json());
        // 4 matmul ops × (2 prefill seqs + 1 decode).
        assert_eq!(report.summary.checked, 12);
    }

    #[test]
    fn engine_logs_are_race_free() {
        let models = [ModelConfig::internlm_1_8b()];
        for mech in [SyncMechanism::Fast, SyncMechanism::Driver] {
            let report = race_lint_models(&models, mech, 64);
            assert!(report.is_clean(), "{mech:?}: {}", report.to_json());
            assert_eq!(report.summary.warn, 0);
            assert_eq!(report.summary.checked, RACE_SWEEP_ENGINES.len());
        }
    }

    #[test]
    fn degraded_session_log_is_race_free() {
        let report = race_lint_degraded_session(&ModelConfig::internlm_1_8b(), 42, 4);
        assert!(report.is_clean(), "{}", report.to_json());
        assert_eq!(report.summary.checked, 1);
    }

    #[test]
    fn solver_schedules_explore_deterministic() {
        let models = [ModelConfig::internlm_1_8b()];
        let (report, certs) = explore_models(&models, &[300], SyncMechanism::Fast);
        assert!(report.is_clean(), "{}", report.to_json());
        // 4 matmul ops × (1 prefill seq + decode) × (base + retry).
        assert_eq!(certs.len(), 16);
        for (loc, cert) in &certs {
            assert!(cert.deterministic, "{loc}: {cert:?}");
            assert!(!cert.truncated, "{loc}");
            assert!(cert.canonical.is_some(), "{loc}");
        }
    }

    #[test]
    fn driver_sync_sweep_warns_but_does_not_deny() {
        let models = [ModelConfig::internlm_1_8b()];
        let report = lint_models(&models, &[300], SyncMechanism::Driver);
        assert!(report.is_clean(), "{}", report.to_json());
        assert!(
            report
                .findings
                .iter()
                .all(|d| d.rule_id == crate::rules::SYNC_MECHANISM),
            "{}",
            report.to_json()
        );
    }
}
