//! Lint sweep over the plans the engine adopts, for the paper's model
//! configurations.
//!
//! Shared by the `analyze` binary and the experiment harness's
//! `--analyze` flag: for each model the per-layer weight Matmuls are
//! planned over a set of prefill sequence lengths (NPU-dominant) plus
//! the decode shape (m = 1, GPU-dominant) by the engine's own planner
//! ([`HeteroMirror`]), and every resulting plan is run through the
//! full rule set.

use hetero_soc::disturb::DisturbanceTrace;
use hetero_soc::sync::{Dominance, SyncMechanism};
use hetero_soc::SimTime;
use hetero_solver::PartitionPlan;
use hetero_tensor::shape::MatmulShape;
use heterollm::admit::HeteroMirror;
use heterollm::runtime::{conversation_traffic, ControllerConfig, RuntimeController, SloPolicy};
use heterollm::{EngineKind, ModelConfig};

use crate::diag::Report;
use crate::explore::{explore_schedule, DeterminismCertificate, ExploreConfig};
use crate::plan_rules::PlanContext;
use crate::race;
use crate::sched::{retry_schedule, verified_schedule, SyncSchedule};

/// Default prefill sequence lengths: the standard (aligned) sizes plus
/// the paper's misaligned examples (135 from §5.2.2, 300/600 from
/// §4.1.1, 2100 beyond the largest compiled graph). A model is swept
/// only at the lengths its context holds.
pub const DEFAULT_SEQS: [usize; 10] = [32, 128, 135, 256, 300, 512, 600, 1024, 2048, 2100];

/// The one prefill length the race, explore and bound sweeps run for
/// `model` unless given one: the paper's misaligned 300 (§4.1.1), or,
/// on a shorter context, the longest prompt that leaves room for the
/// `decode_tokens` the sweep decodes after it.
pub fn representative_seq(model: &ModelConfig, decode_tokens: usize) -> usize {
    300.min(model.max_seq.saturating_sub(decode_tokens))
}

/// Tokens each engine of the race sweep decodes after its prefill.
pub const RACE_DECODE_TOKENS: usize = 2;

/// One weight-Matmul site of a sweep (`m = 1` at the decode site) and
/// the plan `HeteroTensorEngine::new(model, mechanism)` runs there.
struct SweepSite<'a> {
    model: &'a str,
    op: &'static str,
    shape: MatmulShape,
    decode: bool,
    plan: PartitionPlan,
}

impl SweepSite<'_> {
    /// The site's diagnostic location, e.g. `Llama-8B/qkv[m=300]` or
    /// `Llama-8B/qkv[decode,retry]` for `tag = ",retry"`.
    fn location(&self, tag: &str) -> String {
        let (model, op) = (self.model, self.op);
        if self.decode {
            format!("{model}/{op}[decode{tag}]")
        } else {
            format!("{model}/{op}[m={}{tag}]", self.shape.m)
        }
    }
}

/// The plan sites of `model`, in sweep order: for each of its weight
/// Matmuls, every length of `seqs` its context holds, then the decode
/// shape. Each plan comes from the planner of the engine under
/// `mechanism`, which designs plans for fast sync whatever the
/// mechanism.
fn plan_sites<'a>(
    model: &'a ModelConfig,
    seqs: &[usize],
    mechanism: SyncMechanism,
) -> Vec<SweepSite<'a>> {
    let mut sites = Vec::new();
    let mut mirror = HeteroMirror::new(model, mechanism);
    for (op, k, n) in model.matmul_ops() {
        let prefill = seqs
            .iter()
            .filter(|&&m| m <= model.max_seq)
            .map(|&m| (m, Dominance::NpuDominant));
        for (m, dominance) in prefill.chain([(1, Dominance::GpuDominant)]) {
            let shape = MatmulShape::new(m, k, n);
            sites.push(SweepSite {
                model: &model.name,
                op,
                shape,
                decode: dominance == Dominance::GpuDominant,
                plan: mirror.plan(op, shape, dominance),
            });
        }
    }
    sites
}

/// Lint every weight-Matmul plan of `models` over `seqs` (prefill) plus
/// the decode shape, for an engine under the given sync mechanism.
pub fn lint_models(models: &[ModelConfig], seqs: &[usize], mechanism: SyncMechanism) -> Report {
    let mut report = Report::new();
    for site in models.iter().flat_map(|m| plan_sites(m, seqs, mechanism)) {
        let mut ctx = PlanContext::standard(site.location(""), site.shape.m, site.shape.n);
        ctx.mechanism = mechanism;
        if site.decode {
            // Decode graphs are compiled for length 1 only.
            ctx.compiled_sizes = vec![1];
        }
        report.extend(crate::check_plan_full(&site.plan, &ctx));
    }
    report
}

/// Lint the *verified* sync schedules of every engine plan for
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
    for site in models.iter().flat_map(|m| plan_sites(m, seqs, mechanism)) {
        let location = site.location(",verified");
        let verified = verified_schedule(&SyncSchedule::for_plan(&site.plan, site.shape));
        let mut diags = crate::sched::check_schedule(&verified, &location);
        diags.extend(crate::sched::check_unverified_sink(&verified, &location));
        diags.extend(race::check_schedule_races(&verified, mechanism, &location));
        report.extend(diags);
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
/// `RACE_SWEEP_ENGINES` (Hetero-tensor, Hetero-layer, NPU-pipe and
/// PPL-OpenCL) runs a prefill of `seq` tokens (when `None`, the
/// model's [`representative_seq`]) plus [`RACE_DECODE_TOKENS`] of
/// decode with recording on, and a [`RuntimeController`] serves a
/// seeded conversation under the standard disturbance trace so
/// replan/fallback/retry quiesce markers appear in the log. Every
/// recorded log must be race-free.
pub fn race_lint_models(
    models: &[ModelConfig],
    mechanism: SyncMechanism,
    seq: Option<usize>,
) -> Report {
    let mut report = Report::new();
    for model in models {
        let seq = seq.unwrap_or_else(|| representative_seq(model, RACE_DECODE_TOKENS));
        for kind in RACE_SWEEP_ENGINES {
            let mut engine = kind.build(model, mechanism);
            engine.enable_concurrency_log();
            engine
                .try_prefill(seq)
                .expect("race sweep prefill must not fail");
            engine
                .try_decode(seq, RACE_DECODE_TOKENS)
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

/// Explore the interleaving space of every engine plan's sync
/// schedule (and its rendezvous-retry variant) for `models` at the
/// prefill lengths `seqs` (when `None`, each model's
/// [`representative_seq`]) plus the decode shape.
///
/// Returns the aggregated report plus one
/// [`DeterminismCertificate`] per explored schedule, labelled by
/// location.
pub fn explore_models(
    models: &[ModelConfig],
    seqs: Option<&[usize]>,
    mechanism: SyncMechanism,
) -> (Report, Vec<(String, DeterminismCertificate)>) {
    let mut report = Report::new();
    let mut certs = Vec::new();
    let cfg = ExploreConfig {
        mechanism,
        ..ExploreConfig::default()
    };
    for model in models {
        let representative = [representative_seq(model, 0)];
        for site in plan_sites(model, seqs.unwrap_or(&representative), mechanism) {
            let base = SyncSchedule::for_plan(&site.plan, site.shape);
            for (schedule, location) in [
                (&base, site.location("")),
                (&retry_schedule(&base), site.location(",retry")),
            ] {
                let (cert, diags) = explore_schedule(schedule, &cfg, &location);
                report.extend(diags);
                certs.push((location, cert));
            }
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
            let report = race_lint_models(&models, mech, Some(64));
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
        let (report, certs) = explore_models(&models, Some(&[300]), SyncMechanism::Fast);
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
    fn swept_prefill_plans_are_the_engines() {
        use heterollm::engines::{Engine, HeteroTensorEngine};
        for mechanism in [SyncMechanism::Fast, SyncMechanism::Driver] {
            for model in ModelConfig::evaluation_models() {
                let mut engine = HeteroTensorEngine::new(&model, mechanism);
                let sites = plan_sites(&model, &[300], mechanism);
                let prefill: Vec<_> = sites.iter().filter(|s| !s.decode).collect();
                assert_eq!(prefill.len(), model.matmul_ops().len());
                for site in prefill {
                    assert_eq!(
                        site.plan,
                        engine.plan_for(site.op, site.shape),
                        "{mechanism:?} {}",
                        site.location("")
                    );
                }
            }
        }
    }

    #[test]
    fn representative_lengths_leave_room_for_the_decode() {
        for model in ModelConfig::evaluation_models() {
            assert_eq!(representative_seq(&model, RACE_DECODE_TOKENS), 300);
        }
        // Tiny-Test's context is 128 tokens.
        let tiny = ModelConfig::tiny();
        assert_eq!(representative_seq(&tiny, 0), 128);
        assert_eq!(representative_seq(&tiny, RACE_DECODE_TOKENS), 126);
        let (_, certs) = explore_models(&[tiny], None, SyncMechanism::Fast);
        assert_eq!(certs[0].0, "Tiny-Test/qkv[m=128]");
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
