//! Staged canary rollout of candidate routing policies with
//! auto-rollback, driven by the online drift profiler.
//!
//! A candidate [`PolicyRevision`] (a re-tuned partition-plan table,
//! modeled as per-profile service multipliers) is shipped to seeded
//! device cohorts in stages — [`ROLLOUT_STAGES`] percent of the fleet
//! — and each stage replays the *identical* seeded workload and fault
//! plan from t = 0 with fresh devices, as one window of the rollout's
//! event log. Window 0 is the baseline (zero canaries); it reads no
//! candidate, so a controller replays it once and every rollout it
//! runs shares it. Canary devices run the candidate; a matching share
//! of requests is pinned to the canary pool so the canary-vs-control
//! comparison sees the same traffic mix. After each window the
//! controller compares the two groups on all-integer SLO deltas
//! (attainment ppm, exact order-statistic quantiles of the normalized
//! service ratio, with a min-sample starvation guard) and either
//! promotes to the next stage or rolls back, reverting every canary.
//! Only the verdict passes from one window to the next.
//!
//! Every decision is a typed event in the canonical
//! [`FleetEventLog`] — [`FleetEvent::RolloutStage`],
//! [`FleetEvent::ProfileUpdate`], [`FleetEvent::Promote`],
//! [`FleetEvent::Rollback`] — so `hetero_analyze` can certify the
//! rollout after the fact: promotion-legality, rollback-completeness
//! and blast-radius are pLTL specs over this log, and the rollout
//! state machine is model-checked exhaustively.
//!
//! Cohorts are nested (stage cohorts are prefixes of one seeded
//! Fisher–Yates permutation), so a device exposed at 1% stays exposed
//! at 10% — blast radius grows monotonically and rollback at stage
//! `k` bounds exposure to the stage-`k` cohort.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use hetero_profiler::RealExecProvider;
use hetero_soc::sync::Dominance;
use hetero_soc::{SimTime, SocConfig};
use hetero_solver::{resolve_for_drift, SolverConfig};
use hetero_tensor::rng::draw;
use hetero_tensor::shape::MatmulShape;
use heterollm::obs::metrics::exact_quantile;
use serde::{Deserialize, Serialize};

use crate::device::{CALIB_DECODE, CALIB_PROMPT};
use crate::events::{FleetEvent, FleetEventLog, ProfileCause};
use crate::profiler::{OnlineProfiler, DRIFT_RESOLVE_THRESHOLD_PPM, FEW_SHOT_SAMPLES, PPM};
use crate::report::ArmReport;
use crate::router::FleetSim;

/// Draw-offset namespace for the cohort permutation (decorrelated
/// from routing's `9 << 40` and the fault plan's lower namespaces).
const OFF_COHORT: u64 = 10 << 40;

/// Draw-offset namespace for pinning requests to the canary pool.
const OFF_CANARY_POOL: u64 = 11 << 40;

/// Drift estimates are bucketed to this granularity before a
/// partition re-solve so one solver run serves every device of the
/// same profile drifting in the same band.
const RESOLVE_BUCKET_PPM: u64 = 250_000;

/// Staged exposure schedule, percent of the fleet per stage.
pub const ROLLOUT_STAGES: [u32; 4] = [1, 10, 50, 100];

/// A candidate routing-policy revision under rollout: per-profile
/// service-time multipliers (ppm, `1_000_000` = unchanged) modeling a
/// re-tuned partition-plan table. A multiplier above `PPM` on a
/// profile is a stage inversion — the plan that benched faster in the
/// lab runs the NPU-dominant stage slower on that device subclass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyRevision {
    /// Monotone revision id (0 is reserved for the baseline).
    pub revision: u64,
    /// Human-readable candidate name (appears in the log's policy).
    pub name: String,
    /// Prefill service multiplier per profile index, ppm.
    pub prefill_mult_ppm: Vec<u64>,
    /// Decode service multiplier per profile index, ppm.
    pub decode_mult_ppm: Vec<u64>,
}

impl PolicyRevision {
    /// A candidate applying the same multiplier to every profile.
    pub fn uniform(revision: u64, name: &str, profiles: usize, mult_ppm: u64) -> Self {
        Self {
            revision,
            name: name.to_string(),
            prefill_mult_ppm: vec![mult_ppm; profiles],
            decode_mult_ppm: vec![mult_ppm; profiles],
        }
    }

    /// A candidate regressing only the profiles in `targets` (the
    /// device subclass whose NPU the candidate plan inverts), leaving
    /// the rest unchanged.
    pub fn targeting(
        revision: u64,
        name: &str,
        profiles: usize,
        targets: &[usize],
        mult_ppm: u64,
    ) -> Self {
        let mut mults = vec![PPM; profiles];
        for &t in targets {
            if t < profiles {
                mults[t] = mult_ppm;
            }
        }
        Self {
            revision,
            name: name.to_string(),
            prefill_mult_ppm: mults.clone(),
            decode_mult_ppm: mults,
        }
    }
}

/// Controller tuning: exposure schedule, verdict thresholds, decision
/// timing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RolloutConfig {
    /// Exposure per stage, percent of the fleet.
    pub stages: Vec<u32>,
    /// Minimum canary-group completions for a statistical verdict;
    /// below it the stage is `starved` and the controller rolls back
    /// conservatively rather than promoting blind.
    pub min_canary_samples: u64,
    /// Maximum tolerated canary attainment drop vs control, ppm.
    pub max_attainment_drop_ppm: u64,
    /// Maximum tolerated canary median normalized-service regression
    /// vs control, percent. Service ratios (observed / static-profile
    /// expectation, ppm — the same normalization the drift profiler
    /// uses) are profile-independent, so a small cohort that happens
    /// to skew toward slow SoC profiles does not read as a
    /// regression; quantiles are exact order statistics, so the ratio
    /// is meaningful at canary sample sizes.
    pub max_p50_regress_pct: u64,
    /// Maximum tolerated canary p99 normalized-service regression vs
    /// control, percent (the tail gate; wider, because small canary
    /// samples make tails noisy).
    pub max_p99_regress_pct: u64,
    /// Minimum completions in *both* groups before the p99 tail gate
    /// applies — a 10-sample p99 is the sample maximum, and one
    /// brownout-window sample would fail a healthy candidate.
    pub tail_min_samples: u64,
    /// Lag from the end of a stage window's retry horizon to the
    /// promote/rollback decision event.
    pub decision_lag: SimTime,
    /// Lag from a rollback decision to the canary revert events.
    pub revert_lag: SimTime,
}

impl RolloutConfig {
    /// The shipped schedule: 1% → 10% → 50% → 100%, ≥ 8 canary
    /// samples, ≤ 15% attainment drop, ≤ 50% median and ≤ 100% p99
    /// normalized-service regression (tail gate needs ≥ 128 samples
    /// per group, so it arms at the 50% stage), 1 ms decision and
    /// revert lags.
    pub fn standard() -> Self {
        Self {
            stages: ROLLOUT_STAGES.to_vec(),
            min_canary_samples: 8,
            max_attainment_drop_ppm: 150_000,
            max_p50_regress_pct: 50,
            max_p99_regress_pct: 100,
            tail_min_samples: 128,
            decision_lag: SimTime::from_millis(1),
            revert_lag: SimTime::from_millis(1),
        }
    }

    /// The thresholds [`stage_regressed`] judges a stage against.
    pub fn thresholds(&self) -> StageThresholds {
        StageThresholds {
            max_attainment_drop_ppm: self.max_attainment_drop_ppm,
            max_p50_regress_pct: self.max_p50_regress_pct,
            max_p99_regress_pct: self.max_p99_regress_pct,
            tail_min_samples: self.tail_min_samples,
        }
    }
}

/// The four stage-verdict thresholds. [`RolloutConfig`] sets them and
/// [`RolloutReport`] echoes them, so the controller and the evidence
/// lint judge a stage through the one [`stage_regressed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageThresholds {
    /// See [`RolloutConfig::max_attainment_drop_ppm`].
    pub max_attainment_drop_ppm: u64,
    /// See [`RolloutConfig::max_p50_regress_pct`].
    pub max_p50_regress_pct: u64,
    /// See [`RolloutConfig::max_p99_regress_pct`].
    pub max_p99_regress_pct: u64,
    /// See [`RolloutConfig::tail_min_samples`].
    pub tail_min_samples: u64,
}

impl StageThresholds {
    /// A sub-100% stage's `(canary, control)` p99 pair, gated on both
    /// groups' completions `served` reaching `tail_min_samples`.
    pub fn tail(&self, served: (u64, u64), p99: (u64, u64)) -> Option<(u64, u64)> {
        (served.0 >= self.tail_min_samples && served.1 >= self.tail_min_samples).then_some(p99)
    }
}

/// The stage-regression predicate over `(observed, reference)` pairs:
/// attainment (ppm) dropped past the threshold, or the p50 or the
/// optional p99 tail grew past its percent bound. A zero reference
/// disables its quantile gate.
pub fn stage_regressed(
    t: &StageThresholds,
    (att, att_ref): (u64, u64),
    (p50, p50_ref): (u64, u64),
    tail: Option<(u64, u64)>,
) -> bool {
    let grew = |x: u64, reference: u64, pct: u64| {
        reference > 0 && x.saturating_mul(100) > reference.saturating_mul(100 + pct)
    };
    att.saturating_add(t.max_attainment_drop_ppm) < att_ref
        || grew(p50, p50_ref, t.max_p50_regress_pct)
        || tail.is_some_and(|(p99, p99_ref)| grew(p99, p99_ref, t.max_p99_regress_pct))
}

/// All-integer per-group SLO stats accumulated during one stage
/// window. Quantiles are exact order statistics over the raw samples
/// (sorted at verdict time, so order-independent), read through the
/// shared [`exact_quantile`] rank rule: the fleet report's histogram
/// buckets overstate a quantile by up to 12.5%, and at canary sample
/// sizes that error would blur the `max_p50_regress_pct` comparison.
#[derive(Debug, Default)]
pub(crate) struct GroupStats {
    /// Raw per-completion TTFTs, arrival order (observability).
    ttft_ns: Vec<u64>,
    /// Raw per-completion normalized service ratios (observed ns ·
    /// 10⁶ / static-profile expectation), arrival order — the
    /// verdict's profile-independent regression signal.
    service_ppm: Vec<u64>,
    /// Completions attributed to the group.
    pub(crate) served: u64,
    /// Completions meeting both SLOs.
    pub(crate) slo_met: u64,
}

impl GroupStats {
    fn new() -> Self {
        Self::default()
    }

    fn attainment_ppm(&self) -> u64 {
        (self.slo_met * PPM).checked_div(self.served).unwrap_or(0)
    }

    fn ttft_quantiles(&self) -> (u64, u64, u64) {
        let mut sorted = self.ttft_ns.clone();
        sorted.sort_unstable();
        (
            exact_quantile(&sorted, 50, 100),
            exact_quantile(&sorted, 99, 100),
            exact_quantile(&sorted, 999, 1000),
        )
    }

    fn service_quantiles_ppm(&self) -> (u64, u64) {
        let mut sorted = self.service_ppm.clone();
        sorted.sort_unstable();
        (
            exact_quantile(&sorted, 50, 100),
            exact_quantile(&sorted, 99, 100),
        )
    }
}

/// The per-stage state the replay loop consults: which devices run
/// the candidate, each device's online drift profiler, and the
/// canary/control accounting. Built by [`RolloutController`] per
/// window, threaded through `FleetSim::replay` by `&mut`.
pub(crate) struct StageOverlay {
    candidate: PolicyRevision,
    pct: u32,
    /// Whether each device runs the candidate this window.
    pub(crate) canary: Vec<bool>,
    /// The control (`[0]`) and canary (`[1]`) pools, each ascending.
    pools: [Vec<usize>; 2],
    /// Per-device online drift profilers (few-shot calibrated).
    pub(crate) profilers: Vec<OnlineProfiler>,
    /// Per-device service gain from a drift-triggered partition
    /// re-solve, ppm (`PPM` = no re-solve yet or plan kept).
    resolved_gain_ppm: Vec<u64>,
    drift_emitted: Vec<bool>,
    drift_resolves: u64,
    resolve_cache: BTreeMap<(usize, u64), u64>,
    socs: Vec<SocConfig>,
    model_hidden: usize,
    model_ffn: usize,
    pub(crate) canary_group: GroupStats,
    pub(crate) control_group: GroupStats,
}

/// Scale a duration by a ppm ratio, round-down integer math.
pub(crate) fn scale_ppm(t: SimTime, ppm: u64) -> SimTime {
    SimTime::from_nanos(((u128::from(t.as_nanos()) * u128::from(ppm)) / u128::from(PPM)) as u64)
}

impl StageOverlay {
    /// Whether request `req_id` is pinned to the canary pool this
    /// stage: a seeded-phase exact-share assignment (`pct` of every
    /// 100 consecutive ids), so canary traffic share tracks the
    /// stage's device exposure exactly — a binomial draw could starve
    /// a 1% stage of evidence entirely — while the phase keeps the
    /// pinned subset seed-dependent.
    pub(crate) fn is_canary_request(&self, seed: u64, req_id: u64) -> bool {
        let phase = draw(seed, OFF_CANARY_POOL + u64::from(self.pct)) % 100;
        (req_id + phase) % 100 < u64::from(self.pct)
    }

    /// The canary (`true`) or control (`false`) pool's devices, in
    /// ascending order.
    pub(crate) fn pool(&self, canary: bool) -> &[usize] {
        &self.pools[usize::from(canary)]
    }

    /// Candidate service multipliers for device `idx` (ppm), with any
    /// drift-resolve gain folded in. Control devices run the baseline
    /// plan (multiplier [`PPM`]) but still benefit from re-solves.
    pub(crate) fn service_mults_ppm(&self, idx: usize, profile_idx: usize) -> (u64, u64) {
        let (pm, dm) = if self.canary[idx] {
            (
                self.candidate.prefill_mult_ppm[profile_idx],
                self.candidate.decode_mult_ppm[profile_idx],
            )
        } else {
            (PPM, PPM)
        };
        let gain = self.resolved_gain_ppm[idx];
        (pm * gain / PPM, dm * gain / PPM)
    }

    /// Fold one completion into device `idx`'s profiler. The first
    /// time the estimate crosses the re-solve threshold this window,
    /// re-solve the device's partition plan under the drifted costs
    /// and return the [`ProfileCause::Drift`] event to log.
    pub(crate) fn observe_completion(
        &mut self,
        idx: usize,
        profile_idx: usize,
        observed_ns: u64,
        expected_ns: u64,
        at: SimTime,
    ) -> Option<FleetEvent> {
        self.profilers[idx].observe(observed_ns, expected_ns);
        if self.drift_emitted[idx]
            || !self.profilers[idx].needs_resolve(DRIFT_RESOLVE_THRESHOLD_PPM)
        {
            return None;
        }
        Some(self.resolve_drift(idx, profile_idx, at))
    }

    /// Record a completion's SLO outcome and normalized service ratio
    /// into its group.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_outcome(
        &mut self,
        canary_device: bool,
        service_ppm: u64,
        ttft: SimTime,
        tpot: SimTime,
        slo_ttft: SimTime,
        slo_tpot: SimTime,
    ) {
        let group = if canary_device {
            &mut self.canary_group
        } else {
            &mut self.control_group
        };
        group.served += 1;
        group.ttft_ns.push(ttft.as_nanos());
        group.service_ppm.push(service_ppm);
        if ttft <= slo_ttft && tpot <= slo_tpot {
            group.slo_met += 1;
        }
    }

    /// Mark device `idx` drifted: re-solve its partition plan under
    /// the estimated slowdown (one solver run per profile × drift
    /// bucket, cached) and build the `Drift` event.
    fn resolve_drift(&mut self, idx: usize, profile_idx: usize, at: SimTime) -> FleetEvent {
        self.drift_emitted[idx] = true;
        self.drift_resolves += 1;
        let est = self.profilers[idx].estimate_ppm();
        let bucket = (est / RESOLVE_BUCKET_PPM) * RESOLVE_BUCKET_PPM;
        let gain = match self.resolve_cache.get(&(profile_idx, bucket)) {
            Some(&g) => g,
            None => {
                let provider = RealExecProvider::new(self.socs[profile_idx].clone());
                let shape = MatmulShape::new(CALIB_PROMPT, self.model_hidden, self.model_ffn);
                let r = resolve_for_drift(
                    &provider,
                    &SolverConfig::default(),
                    shape,
                    Dominance::NpuDominant,
                    bucket,
                );
                self.resolve_cache.insert((profile_idx, bucket), r.gain_ppm);
                r.gain_ppm
            }
        };
        self.resolved_gain_ppm[idx] = gain;
        FleetEvent::ProfileUpdate {
            at,
            device: idx as u64,
            slowdown_ppm: est,
            revision: if self.canary[idx] {
                self.candidate.revision
            } else {
                0
            },
            cause: ProfileCause::Drift,
        }
    }
}

/// One stage's all-integer verdict evidence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage number, 1-based.
    pub stage: u32,
    /// Exposure, percent of the fleet.
    pub pct: u32,
    /// Canary cohort size, devices.
    pub canary_devices: u64,
    /// Canary-group completions.
    pub canary_served: u64,
    /// Control-group completions.
    pub control_served: u64,
    /// Canary SLO attainment over completions, ppm.
    pub canary_attainment_ppm: u64,
    /// Control SLO attainment over completions, ppm.
    pub control_attainment_ppm: u64,
    /// Canary median TTFT, ns (exact order statistic).
    pub canary_ttft_p50_ns: u64,
    /// Control median TTFT, ns.
    pub control_ttft_p50_ns: u64,
    /// Canary p99 TTFT, ns.
    pub canary_ttft_p99_ns: u64,
    /// Control p99 TTFT, ns.
    pub control_ttft_p99_ns: u64,
    /// Canary median normalized service ratio, ppm of the static
    /// profile (the verdict's profile-independent signal).
    pub canary_service_p50_ppm: u64,
    /// Control median normalized service ratio, ppm.
    pub control_service_p50_ppm: u64,
    /// Canary p99 normalized service ratio, ppm.
    pub canary_service_p99_ppm: u64,
    /// Control p99 normalized service ratio, ppm.
    pub control_service_p99_ppm: u64,
    /// Requests lost fleet-wide during the stage window.
    pub lost: u64,
    /// Drift-triggered partition re-solves during the window.
    pub drift_resolves: u64,
    /// `promote`, `rollback`, or `starved` (rolled back for lack of
    /// canary evidence).
    pub verdict: String,
}

/// Outcome of one full staged rollout, all integers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RolloutReport {
    /// Candidate name.
    pub candidate: String,
    /// Candidate revision id.
    pub revision: u64,
    /// Run seed.
    pub seed: u64,
    /// Fleet size.
    pub devices: u64,
    /// Requests offered per window.
    pub requests: u64,
    /// Baseline-window fleet SLO attainment, ppm.
    pub baseline_attainment_ppm: u64,
    /// Baseline-window fleet p99 TTFT, ns.
    pub baseline_ttft_p99_ns: u64,
    /// Fleet attainment of the last replayed window, ppm.
    pub final_attainment_ppm: u64,
    /// `promoted` or `rolled-back`.
    pub outcome: String,
    /// Last stage reached, 1-based.
    pub final_stage: u32,
    /// Largest canary cohort ever exposed, devices.
    pub exposed_devices: u64,
    /// `exposed_devices · 10⁶ / devices` — the blast radius.
    pub exposed_ppm: u64,
    /// Stage-open to rollback-decision latency, ns (0 if promoted).
    pub rollback_latency_ns: u64,
    /// Requests lost across every window (baseline included).
    pub lost: u64,
    /// Verdict threshold echoed for the evidence lint.
    pub min_canary_samples: u64,
    /// Verdict threshold echoed for the evidence lint.
    pub max_attainment_drop_ppm: u64,
    /// Verdict threshold echoed for the evidence lint.
    pub max_p50_regress_pct: u64,
    /// Verdict threshold echoed for the evidence lint.
    pub max_p99_regress_pct: u64,
    /// Verdict threshold echoed for the evidence lint.
    pub tail_min_samples: u64,
    /// Per-stage evidence, in replay order.
    pub stages: Vec<StageReport>,
}

impl RolloutReport {
    /// The echoed thresholds the stage verdicts were judged against.
    pub fn thresholds(&self) -> StageThresholds {
        StageThresholds {
            max_attainment_drop_ppm: self.max_attainment_drop_ppm,
            max_p50_regress_pct: self.max_p50_regress_pct,
            max_p99_regress_pct: self.max_p99_regress_pct,
            tail_min_samples: self.tail_min_samples,
        }
    }
}

/// A set of rollout event logs (one per candidate), the JSON shape
/// `rollout_sweep --events-out` writes and `analyze monitor` reads.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RolloutLogSet {
    /// One windowed log per rollout run.
    pub runs: Vec<FleetEventLog>,
}

/// The staged-rollout controller: replays one seeded fleet world per
/// stage window and promotes or rolls back on all-integer SLO deltas.
pub struct RolloutController<'a> {
    sim: &'a FleetSim,
    cfg: RolloutConfig,
    /// Window 0's fleet report and normalized events, replayed on
    /// first use.
    baseline: OnceLock<(ArmReport, Vec<FleetEvent>)>,
}

impl<'a> RolloutController<'a> {
    /// Controller over one materialized fleet world.
    pub fn new(sim: &'a FleetSim, cfg: RolloutConfig) -> Self {
        Self {
            sim,
            cfg,
            baseline: OnceLock::new(),
        }
    }

    /// The seeded cohort permutation: stage cohorts are prefixes, so
    /// exposure is nested and monotone.
    pub fn cohort_permutation(&self) -> Vec<usize> {
        let n = self.sim.config().devices;
        let seed = self.sim.config().seed;
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (draw(seed, OFF_COHORT + i as u64) % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        perm
    }

    /// Run the staged rollout of `candidate`: the baseline window, then
    /// one window per stage until promotion at 100% or rollback.
    /// Returns the all-integer report and the windowed event log
    /// (each window canonically ordered on its own clock,
    /// byte-identical per seed).
    pub fn run(&self, candidate: &PolicyRevision) -> (RolloutReport, FleetEventLog) {
        let sim = self.sim;
        let n = sim.config().devices;
        let mut log = sim.event_log(format!("rollout-{}", candidate.name));
        let perm = self.cohort_permutation();

        let (base_report, base_events) = self.baseline();
        log.windows.push(0);
        log.events.extend_from_slice(base_events);
        let baseline_attainment_ppm = base_report.attainment_ppm;
        let baseline_ttft_p99_ns = base_report.ttft_p99_ns;
        let mut lost = base_report.lost;

        let decision_at = sim.horizon() + sim.lost_penalty() + self.cfg.decision_lag;
        let mut stages = Vec::new();
        let mut outcome = "promoted";
        let mut final_stage = 0u32;
        let mut exposed_devices = 0u64;
        let mut rollback_latency_ns = 0u64;
        let mut final_attainment_ppm = baseline_attainment_ppm;

        for (k, &pct) in self.cfg.stages.iter().enumerate() {
            let stage_no = k as u32 + 1;
            let cohort = (n * pct as usize).div_ceil(100).min(n);
            let (win_report, mut events, overlay) = self.window(candidate, pct, &perm[..cohort]);
            events.push(FleetEvent::RolloutStage {
                at: SimTime::ZERO,
                stage: stage_no,
                pct,
                canary: cohort as u64,
            });

            let report = self.stage_report(
                stage_no,
                pct,
                cohort as u64,
                &overlay,
                &win_report,
                baseline_attainment_ppm,
                baseline_ttft_p99_ns,
            );
            let promote = report.verdict == "promote";
            if promote {
                events.push(FleetEvent::Promote {
                    at: decision_at,
                    stage: stage_no,
                });
            } else {
                events.push(FleetEvent::Rollback {
                    at: decision_at,
                    stage: stage_no,
                });
                let revert_at = decision_at + self.cfg.revert_lag;
                for &d in &perm[..cohort] {
                    events.push(FleetEvent::ProfileUpdate {
                        at: revert_at,
                        device: d as u64,
                        slowdown_ppm: PPM,
                        revision: candidate.revision,
                        cause: ProfileCause::Rollback,
                    });
                }
            }
            events.sort_by(FleetEvent::canonical_cmp);
            log.windows.push(log.events.len() as u64);
            log.events.extend(events);

            lost += win_report.lost;
            exposed_devices = exposed_devices.max(cohort as u64);
            final_stage = stage_no;
            final_attainment_ppm = win_report.attainment_ppm;
            stages.push(report);
            if !promote {
                outcome = "rolled-back";
                rollback_latency_ns = decision_at.as_nanos();
                break;
            }
        }

        let report = RolloutReport {
            candidate: candidate.name.clone(),
            revision: candidate.revision,
            seed: sim.config().seed,
            devices: n as u64,
            requests: sim.config().requests as u64,
            baseline_attainment_ppm,
            baseline_ttft_p99_ns,
            final_attainment_ppm,
            outcome: outcome.to_string(),
            final_stage,
            exposed_devices,
            exposed_ppm: (exposed_devices * PPM).checked_div(n as u64).unwrap_or(0),
            rollback_latency_ns,
            lost,
            min_canary_samples: self.cfg.min_canary_samples,
            max_attainment_drop_ppm: self.cfg.max_attainment_drop_ppm,
            max_p50_regress_pct: self.cfg.max_p50_regress_pct,
            max_p99_regress_pct: self.cfg.max_p99_regress_pct,
            tail_min_samples: self.cfg.tail_min_samples,
            stages,
        };
        (report, log)
    }

    /// Window 0, the baseline: the overlay machinery active (profiler
    /// scoring, drift re-solves) but zero canaries, so stage verdicts
    /// compare against the same serving stack. With no canary device
    /// and no canary request the window reads no candidate, so it is
    /// replayed once, under the baseline revision, and shared by every
    /// rollout this controller runs.
    fn baseline(&self) -> &(ArmReport, Vec<FleetEvent>) {
        self.baseline.get_or_init(|| {
            let baseline = PolicyRevision::uniform(0, "baseline", self.sim.profiles().len(), PPM);
            let (report, mut events, _) = self.window(&baseline, 0, &[]);
            events.sort_by(FleetEvent::canonical_cmp);
            (report, events)
        })
    }

    /// Replay one stage window: build the overlay (canary flags,
    /// few-shot-calibrated profilers, candidate-apply events), run
    /// the seeded world through it, and return the fleet report, the
    /// stage-local events, and the overlay's group accounting.
    fn window(
        &self,
        candidate: &PolicyRevision,
        pct: u32,
        cohort: &[usize],
    ) -> (ArmReport, Vec<FleetEvent>, StageOverlay) {
        let sim = self.sim;
        let n = sim.config().devices;
        let profiles = sim.profiles();
        let mut canary = vec![false; n];
        for &d in cohort {
            canary[d] = true;
        }

        let mut events = Vec::new();
        // The candidate lands on its cohort at window open.
        for &d in cohort {
            let profile_idx = d % profiles.len();
            events.push(FleetEvent::ProfileUpdate {
                at: SimTime::ZERO,
                device: d as u64,
                slowdown_ppm: candidate.prefill_mult_ppm[profile_idx],
                revision: candidate.revision,
                cause: ProfileCause::CanaryApply,
            });
        }

        let pools = [false, true].map(|pool| (0..n).filter(|&d| canary[d] == pool).collect());
        let mut overlay = StageOverlay {
            candidate: candidate.clone(),
            pct,
            canary,
            pools,
            profilers: Vec::with_capacity(n),
            resolved_gain_ppm: vec![PPM; n],
            drift_emitted: vec![false; n],
            drift_resolves: 0,
            resolve_cache: BTreeMap::new(),
            socs: sim.socs().to_vec(),
            model_hidden: sim.config().model.hidden,
            model_ffn: sim.config().model.ffn,
            canary_group: GroupStats::new(),
            control_group: GroupStats::new(),
        };

        // Few-shot micro-benchmark at session start: each device runs
        // the calibration shape FEW_SHOT_SAMPLES times on its own
        // serving stack (candidate multipliers included on canaries)
        // under whatever disturbance the fault plan has at the probe
        // instants, and seeds its profiler with the mean.
        let probe = sim.config().probe_interval;
        for d in 0..n {
            let profile_idx = d % profiles.len();
            let profile = &profiles[profile_idx];
            let expected = profile.service_estimate(CALIB_PROMPT, CALIB_DECODE);
            let mut profiler = OnlineProfiler::new(expected.as_nanos());
            let (pm, dm) = overlay.service_mults_ppm(d, profile_idx);
            let quiet = scale_ppm(
                SimTime::from_nanos(profile.prefill_ns_per_token * CALIB_PROMPT as u64),
                pm,
            ) + scale_ppm(
                SimTime::from_nanos(profile.decode_ns_per_token * CALIB_DECODE as u64),
                dm,
            );
            let samples: [u64; FEW_SHOT_SAMPLES] = std::array::from_fn(|j| {
                let t = SimTime::from_nanos(probe.as_nanos() * j as u64);
                quiet.scale(sim.injector().slowdown_at(d, t)).as_nanos()
            });
            profiler.calibrate(&samples);
            events.push(FleetEvent::ProfileUpdate {
                at: SimTime::ZERO,
                device: d as u64,
                slowdown_ppm: profiler.estimate_ppm(),
                revision: if overlay.canary[d] {
                    candidate.revision
                } else {
                    0
                },
                cause: ProfileCause::Calibration,
            });
            overlay.profilers.push(profiler);
        }
        // A candidate bad enough to show up in the few-shot bench
        // drifts immediately: re-solve before the first request.
        for d in 0..n {
            if overlay.profilers[d].needs_resolve(DRIFT_RESOLVE_THRESHOLD_PPM) {
                let ev = overlay.resolve_drift(d, d % profiles.len(), SimTime::ZERO);
                events.push(ev);
            }
        }

        let (report, stage_log) = sim.replay_stage(&mut overlay);
        events.extend(stage_log.events);
        (report, events, overlay)
    }

    /// The all-integer stage verdict. Stages below 100% compare the
    /// canary group against the same-window control group; the 100%
    /// stage has no control group and compares the whole fleet
    /// against the baseline window.
    #[allow(clippy::too_many_arguments)]
    fn stage_report(
        &self,
        stage_no: u32,
        pct: u32,
        canary_devices: u64,
        overlay: &StageOverlay,
        win_report: &ArmReport,
        baseline_attainment_ppm: u64,
        baseline_ttft_p99_ns: u64,
    ) -> StageReport {
        let cfg = &self.cfg;
        let canary = &overlay.canary_group;
        let control = &overlay.control_group;
        let (c_p50, c_p99, _) = canary.ttft_quantiles();
        let (k_p50, k_p99, _) = control.ttft_quantiles();
        let (c_sv50, c_sv99) = canary.service_quantiles_ppm();
        let (k_sv50, k_sv99) = control.service_quantiles_ppm();
        let canary_att = canary.attainment_ppm();
        let control_att = control.attainment_ppm();

        let t = cfg.thresholds();
        let verdict = if pct < 100 {
            let tail = t.tail((canary.served, control.served), (c_sv99, k_sv99));
            if canary.served < cfg.min_canary_samples {
                "starved"
            } else if stage_regressed(&t, (canary_att, control_att), (c_sv50, k_sv50), tail) {
                "rollback"
            } else {
                "promote"
            }
        } else if stage_regressed(
            &t,
            (win_report.attainment_ppm, baseline_attainment_ppm),
            (0, 0),
            Some((win_report.ttft_p99_ns, baseline_ttft_p99_ns)),
        ) {
            "rollback"
        } else {
            "promote"
        };

        StageReport {
            stage: stage_no,
            pct,
            canary_devices,
            canary_served: canary.served,
            control_served: control.served,
            canary_attainment_ppm: canary_att,
            control_attainment_ppm: control_att,
            canary_ttft_p50_ns: c_p50,
            control_ttft_p50_ns: k_p50,
            canary_ttft_p99_ns: c_p99,
            control_ttft_p99_ns: k_p99,
            canary_service_p50_ppm: c_sv50,
            control_service_p50_ppm: k_sv50,
            canary_service_p99_ppm: c_sv99,
            control_service_p99_ppm: k_sv99,
            lost: win_report.lost,
            drift_resolves: overlay.drift_resolves,
            verdict: verdict.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::FleetConfig;

    fn small_sim(seed: u64) -> FleetSim {
        FleetSim::new(FleetConfig::standard(seed, 48, 1000))
    }

    #[test]
    fn cohorts_are_seeded_nested_prefixes() {
        let sim = small_sim(42);
        let ctl = RolloutController::new(&sim, RolloutConfig::standard());
        let a = ctl.cohort_permutation();
        let b = ctl.cohort_permutation();
        assert_eq!(a, b, "cohort permutation must be seed-deterministic");
        assert_eq!(a.len(), 48);
        let mut sorted = a;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..48).collect::<Vec<_>>(), "must be a permutation");
        // Stage cohorts are prefixes: 1% ⊂ 10% ⊂ 50% ⊂ 100% by
        // construction — assert the sizes are monotone and nested.
        let sizes: Vec<usize> = ROLLOUT_STAGES
            .iter()
            .map(|&p| (48 * p as usize).div_ceil(100))
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn regressing_candidate_rolls_back_in_stage_one() {
        let sim = small_sim(42);
        let ctl = RolloutController::new(&sim, RolloutConfig::standard());
        let bad = PolicyRevision::uniform(7, "npu-inversion", sim.profiles().len(), 2_500_000);
        let (report, log) = ctl.run(&bad);
        assert_eq!(report.outcome, "rolled-back");
        assert_eq!(report.final_stage, 1, "must catch the regression at 1%");
        assert!(
            report.exposed_ppm < 50_000,
            "blast radius {} ppm too wide",
            report.exposed_ppm
        );
        assert!(report.rollback_latency_ns > 0);
        assert!(
            report.stages[0].drift_resolves > 0,
            "2.5x inversion must trip the drift profiler"
        );
        // The rollback and its reverts are in the log.
        assert!(log
            .events
            .iter()
            .any(|e| matches!(e, FleetEvent::Rollback { stage: 1, .. })));
        assert!(log.events.iter().any(|e| matches!(
            e,
            FleetEvent::ProfileUpdate {
                cause: ProfileCause::Rollback,
                ..
            }
        )));
        assert!(!log
            .events
            .iter()
            .any(|e| matches!(e, FleetEvent::Promote { .. })));
    }

    #[test]
    fn improving_candidate_promotes_to_full_fleet() {
        let sim = small_sim(42);
        let ctl = RolloutController::new(&sim, RolloutConfig::standard());
        let good = PolicyRevision::uniform(8, "tuned-partition", sim.profiles().len(), 930_000);
        let (report, log) = ctl.run(&good);
        assert_eq!(report.outcome, "promoted", "stages: {:?}", report.stages);
        assert_eq!(report.final_stage, ROLLOUT_STAGES.len() as u32);
        assert!(report.final_attainment_ppm >= report.baseline_attainment_ppm);
        assert_eq!(
            log.events
                .iter()
                .filter(|e| matches!(e, FleetEvent::Promote { .. }))
                .count(),
            ROLLOUT_STAGES.len()
        );
        assert!(!log
            .events
            .iter()
            .any(|e| matches!(e, FleetEvent::Rollback { .. })));
    }

    #[test]
    fn the_baseline_window_reads_no_candidate() {
        // The shared window 0 equals window 0 replayed under each
        // candidate, as every rollout replayed it before it was shared.
        let sim = small_sim(42);
        let ctl = RolloutController::new(&sim, RolloutConfig::standard());
        let (base_report, base_events) = ctl.baseline();
        let profiles = sim.profiles().len();
        for candidate in [
            PolicyRevision::uniform(7, "npu-inversion", profiles, 2_500_000),
            PolicyRevision::uniform(8, "tuned-partition", profiles, 930_000),
        ] {
            let (report, mut events, _) = ctl.window(&candidate, 0, &[]);
            events.sort_by(FleetEvent::canonical_cmp);
            assert_eq!(&events, base_events, "{}", candidate.name);
            assert_eq!(&report, base_report, "{}", candidate.name);
        }
    }

    #[test]
    fn pool_walk_matches_the_full_scan() {
        // A 1% stage's canary requests fall back to the pool scan on
        // almost every attempt; the oracle replay scans the whole
        // fleet there, so equal logs mean the member walk picked the
        // same devices and polled the same breakers.
        for seed in 0..5 {
            let sim = FleetSim::new(FleetConfig::standard(seed, 512, 1000));
            let ctl = RolloutController::new(&sim, RolloutConfig::standard());
            let profiles = sim.profiles().len();
            for candidate in [
                PolicyRevision::uniform(7, "npu-inversion", profiles, 2_500_000),
                PolicyRevision::uniform(8, "tuned-partition", profiles, 930_000),
            ] {
                let walked = ctl.run(&candidate);
                // A fresh controller, so the oracle replays window 0 too.
                let scanned = crate::router::tests::with_oracle_scans(|| {
                    RolloutController::new(&sim, RolloutConfig::standard()).run(&candidate)
                });
                assert_eq!(walked, scanned, "seed {seed}, {}", candidate.name);
            }
        }
    }

    #[test]
    fn same_seed_rollout_is_byte_identical() {
        let bad = |sim: &FleetSim| {
            PolicyRevision::uniform(7, "npu-inversion", sim.profiles().len(), 2_500_000)
        };
        let sim_a = small_sim(11);
        let sim_b = small_sim(11);
        let (ra, la) = RolloutController::new(&sim_a, RolloutConfig::standard()).run(&bad(&sim_a));
        let (rb, lb) = RolloutController::new(&sim_b, RolloutConfig::standard()).run(&bad(&sim_b));
        assert_eq!(
            serde_json::to_string(&ra).expect("serialize"),
            serde_json::to_string(&rb).expect("serialize")
        );
        assert_eq!(
            serde_json::to_string(&la).expect("serialize"),
            serde_json::to_string(&lb).expect("serialize")
        );
    }
}
