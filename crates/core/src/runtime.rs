//! Adaptive runtime degradation controller.
//!
//! The paper characterizes the SoC under *dynamic* conditions — FIFO
//! GPU queue contention from rendering (Fig. 18), thermal throttling
//! under sustained load (§4) — but the engines themselves plan once,
//! at calibration time. This module closes the loop: a
//! [`RuntimeController`] serves a stream of inference requests while a
//! seeded [`DisturbanceTrace`]
//! perturbs the SoC, watches per-phase SLO deadlines, and reacts:
//!
//! - **Replan**: re-solve the tensor partition against the
//!   disturbance-adjusted profile
//!   ([`SocCondition::apply_to`](hetero_soc::disturb::SocCondition)),
//!   so row/hybrid cut ratios track the SoC as it is now.
//! - **Backend fallback**: under severe one-sided degradation (NPU
//!   claimed by another subsystem, GPU saturated by rendering), drop
//!   from tensor-hybrid execution to the healthy backend alone.
//! - **Sync downgrade**: when fast-sync rendezvous turn flaky, retry
//!   with bounded exponential backoff; past the retry budget, route
//!   the affected rendezvous through the reliable (slower) driver
//!   path; restore fast sync once the window passes.
//! - **Load shedding**: refuse requests whose queueing delay already
//!   exceeds the TTFT budget, so a backlog cannot push every
//!   subsequent request over its SLO.
//!
//! A *static* controller (`adaptive = false`) runs the same engine
//! under the same disturbances with none of the reactions — the
//! baseline every `fault_sweep` comparison is made against.

use hetero_graph::{CompileModel, GraphCache};
use hetero_soc::calib::STANDARD_GRAPH_SIZES;
use hetero_soc::disturb::{DisturbanceTrace, SdcFault, SdcTrace, SocCondition, Timeline};
use hetero_soc::kernel::KernelLabel;
use hetero_soc::power::PowerReport;
use hetero_soc::sync::{Dominance, SyncMechanism, SyncModel};
use hetero_soc::{Backend, KernelDesc, SimTime, Soc, SocConfig};
use hetero_solver::PartitionPlan;
use hetero_tensor::rng::draw;
use hetero_tensor::shape::MatmulShape;
use serde::{Deserialize, Serialize};

use crate::engines::HeteroTensorEngine;
use crate::engines::{hetero_soc_config, Engine, EngineKind};
use crate::error::EngineError;
use crate::integrity::{IntegrityCounters, IntegrityMode};
use crate::model::ModelConfig;
use crate::obs::metrics::exact_quantile;
use crate::obs::{MetricsRegistry, SpanKind, Timeline as SpanTimeline, Track};
use crate::report::{DegradationSummary, SessionReport};
use crate::trace::ConcurrencyLog;

/// Longest prompt the traffic generator emits; SLO calibration probes
/// at this length so every quiet request has headroom.
pub const MAX_PROMPT: usize = 512;

/// One inference request in an arrival stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InferenceRequest {
    /// When the request arrives at the engine.
    pub arrival: SimTime,
    /// Prompt tokens to prefill.
    pub prompt_tokens: usize,
    /// Tokens to decode.
    pub response_tokens: usize,
}

/// A seeded stream of conversation-style requests: arrival gaps are
/// 25–175% of `mean_gap`, prompts 64..[`MAX_PROMPT`] tokens, responses
/// 8..64 tokens. Same seed, same stream.
pub fn conversation_traffic(seed: u64, count: usize, mean_gap: SimTime) -> Vec<InferenceRequest> {
    let mut arrival = SimTime::ZERO;
    (0..count as u64)
        .map(|i| {
            let pct = 25 + draw(seed, 3 * i) % 150;
            arrival += SimTime::from_nanos(mean_gap.as_nanos() * pct / 100);
            InferenceRequest {
                arrival,
                prompt_tokens: 64 + (draw(seed, 3 * i + 1) % (MAX_PROMPT as u64 - 64)) as usize,
                response_tokens: 8 + (draw(seed, 3 * i + 2) % 56) as usize,
            }
        })
        .collect()
}

/// Service-level objectives the watchdog enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Time-to-first-token budget (queueing included).
    pub ttft: SimTime,
    /// Time-per-output-token budget.
    pub tpot: SimTime,
    /// Consecutive SLO violations before the watchdog forces a backend
    /// fallback even without a severe condition reading.
    pub streak: usize,
    /// Queueing delay beyond which a request is shed: once the wait
    /// alone exceeds this, the TTFT SLO is unmeetable.
    pub shed_wait: SimTime,
}

impl SloPolicy {
    /// Calibrate SLOs from a quiet run of the tensor-hybrid engine at
    /// the worst-case prompt length: TTFT budget is 3x the quiet TTFT
    /// (headroom for queueing and mild disturbances), TPOT budget 2x
    /// the quiet TPOT.
    pub fn calibrated(model: &ModelConfig) -> Self {
        let mut probe = HeteroTensorEngine::new(model, SyncMechanism::Fast);
        let prefill = probe.prefill(MAX_PROMPT);
        let decode = probe.decode(MAX_PROMPT, 16);
        let ttft = SimTime::from_nanos(prefill.elapsed.as_nanos() * 3);
        Self {
            ttft,
            tpot: SimTime::from_nanos(decode.per_token().as_nanos() * 2),
            streak: 3,
            shed_wait: ttft,
        }
    }
}

/// Controller configuration: the SLO policy plus reaction knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Deadlines the watchdog checks every request against.
    pub slo: SloPolicy,
    /// Whether the controller reacts at all; `false` is the static
    /// baseline that keeps its calibration-time plans throughout.
    pub adaptive: bool,
    /// Flaky-rendezvous retries tolerated per rendezvous before the
    /// sync mechanism is downgraded to the driver path.
    pub max_sync_retries: u32,
    /// Backoff before the first rendezvous retry; doubles per attempt.
    pub retry_backoff: SimTime,
    /// Charged once per replan, fallback, or sync-mechanism switch
    /// (solver re-solve + graph swap on the real runtime).
    pub replan_overhead: SimTime,
    /// Data-integrity layer mode; `Off` preserves the pre-integrity
    /// controller behavior exactly.
    pub integrity: IntegrityMode,
    /// Whether backend-fallback choices are vetted against the static
    /// pre-admission bound ([`crate::admit`]): a fallback whose
    /// *lower-bound* prefill latency at [`MAX_PROMPT`] already busts
    /// the TTFT budget is rejected in favor of a statically feasible
    /// alternative, without building or simulating either engine.
    pub bound_precheck: bool,
}

impl ControllerConfig {
    /// An adaptive controller with default reaction knobs.
    pub fn adaptive(slo: SloPolicy) -> Self {
        Self {
            slo,
            adaptive: true,
            max_sync_retries: 1,
            retry_backoff: SimTime::from_micros(500),
            replan_overhead: SimTime::from_millis(5),
            integrity: IntegrityMode::Off,
            bound_precheck: false,
        }
    }

    /// The static baseline: same SLO accounting, no reactions.
    pub fn static_baseline(slo: SloPolicy) -> Self {
        Self {
            adaptive: false,
            ..Self::adaptive(slo)
        }
    }

    /// Same configuration with the integrity layer in `mode`.
    #[must_use]
    pub fn with_integrity(self, mode: IntegrityMode) -> Self {
        Self {
            integrity: mode,
            ..self
        }
    }

    /// Same configuration with the static fallback pre-check enabled.
    #[must_use]
    pub fn with_bound_precheck(self) -> Self {
        Self {
            bound_precheck: true,
            ..self
        }
    }
}

/// A partition plan the controller adopted while reacting, kept for
/// offline invariant checking (`hetero-analyze`'s fallback-integrity
/// rule).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanRecord {
    /// Logical matmul the plan covers.
    pub op: String,
    /// Rows (sequence length) the plan was solved at.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// The adopted plan.
    pub plan: PartitionPlan,
}

/// Everything a disturbed multi-request run produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Whether the adaptive reactions were enabled.
    pub adaptive: bool,
    /// Seed of the disturbance trace the run was driven by.
    pub seed: u64,
    /// Degradation metrics (duplicated into `session.degradation`).
    pub summary: DegradationSummary,
    /// Aggregate session totals; `degradation` is always `Some`.
    pub session: SessionReport,
    /// Plans adopted by replans and fallbacks, in adoption order.
    pub fallback_plans: Vec<PlanRecord>,
}

/// Which engine currently serves requests.
enum ActiveEngine {
    /// The tensor-hybrid primary (replannable, concrete type so the
    /// controller can extract its partition plans).
    Primary(Box<HeteroTensorEngine>),
    /// A single-backend fallback engine.
    Fallback(Box<dyn Engine>),
}

impl ActiveEngine {
    fn as_engine(&mut self) -> &mut dyn Engine {
        match self {
            ActiveEngine::Primary(e) => e.as_mut(),
            ActiveEngine::Fallback(b) => b.as_mut(),
        }
    }
}

/// Serves a request stream under a disturbance trace, reacting (or
/// not) per its [`ControllerConfig`]; see the module docs for the
/// reaction policy.
///
/// A controller instance runs one stream: build a fresh one per
/// experiment arm.
pub struct RuntimeController {
    model: ModelConfig,
    cfg: ControllerConfig,
    sync: SyncMechanism,
    engine: ActiveEngine,
    /// Quiet-SoC config of the *current* engine; execution-time
    /// conditions are always applied to this pristine base so derates
    /// never compound across requests.
    pristine: SocConfig,
    /// Condition the current engine's plans were solved under.
    planned: SocCondition,
    now: SimTime,
    energy_j: f64,
    slow_streak: usize,
    /// Whether flagged rendezvous currently route through the driver
    /// path (adaptive reaction to a flaky window).
    sync_downgraded: bool,
    ttfts: Vec<SimTime>,
    tpots: Vec<SimTime>,
    /// `(completion time, met SLO)` per completed request, in order.
    completions: Vec<(SimTime, bool)>,
    fallback_plans: Vec<PlanRecord>,
    shed: usize,
    slo_violations: usize,
    replans: usize,
    fallbacks: usize,
    sync_retries: usize,
    sync_downgrades: usize,
    prefill_tokens: usize,
    prefill_time: SimTime,
    decode_tokens: usize,
    decode_time: SimTime,
    /// Session-wide concurrency log spanning engine rebuilds
    /// (`None` = recording off).
    clog: Option<ConcurrencyLog>,
    /// Session-wide span timeline spanning engine rebuilds (`None` =
    /// recording off). Engine segments record against each engine's own
    /// clock (which restarts at zero on rebuild) and are spliced in at
    /// the request's execution start on the controller clock.
    tl: Option<SpanTimeline>,
    /// The NPU graph store requests dispatch through; the target of
    /// persistent [`SdcFault::GraphPoison`] faults.
    graphs: GraphCache,
    /// SDC events not yet due, ascending by time.
    sdc_pending: Vec<hetero_soc::disturb::SdcEvent>,
    icounters: IntegrityCounters,
    /// Consecutive served requests that observed a detection; at
    /// [`SloPolicy::streak`] the controller escalates to a
    /// single-backend fallback (a stuck corruption source is treated
    /// like a failing backend).
    corruption_streak: usize,
    /// Fallback candidates rejected by the static pre-admission bound
    /// (not serialized — an in-process observability counter).
    bound_rejections: usize,
}

impl RuntimeController {
    /// A controller serving `model` on the tensor-hybrid engine with
    /// fast synchronization.
    pub fn new(model: &ModelConfig, cfg: ControllerConfig) -> Self {
        let sync = SyncMechanism::Fast;
        let engine = HeteroTensorEngine::new(model, sync);
        let pristine = engine.soc().config().clone();
        let mut graphs = GraphCache::new(model.graph_set(), CompileModel::default());
        graphs.preload(&STANDARD_GRAPH_SIZES);
        Self {
            model: model.clone(),
            cfg,
            sync,
            engine: ActiveEngine::Primary(Box::new(engine)),
            pristine,
            planned: SocCondition::quiet(),
            now: SimTime::ZERO,
            energy_j: 0.0,
            slow_streak: 0,
            sync_downgraded: false,
            ttfts: Vec::new(),
            tpots: Vec::new(),
            completions: Vec::new(),
            fallback_plans: Vec::new(),
            shed: 0,
            slo_violations: 0,
            replans: 0,
            fallbacks: 0,
            sync_retries: 0,
            sync_downgrades: 0,
            prefill_tokens: 0,
            prefill_time: SimTime::ZERO,
            decode_tokens: 0,
            decode_time: SimTime::ZERO,
            clog: None,
            tl: None,
            graphs,
            sdc_pending: Vec::new(),
            icounters: IntegrityCounters::default(),
            corruption_streak: 0,
            bound_rejections: 0,
        }
    }

    /// Fallback candidates the static pre-admission bound rejected.
    pub fn bound_rejections(&self) -> usize {
        self.bound_rejections
    }

    /// Start recording a session-wide concurrency event log. Each
    /// engine instance records its own segment; the controller merges
    /// segments (with disjoint buffer/token spaces) across replans and
    /// fallbacks, inserting a quiesce marker at every transition.
    pub fn enable_concurrency_log(&mut self) {
        self.clog = Some(ConcurrencyLog::new());
        self.engine.as_engine().enable_concurrency_log();
    }

    /// Take the session-wide concurrency log, ending recording.
    pub fn take_concurrency_log(&mut self) -> Option<ConcurrencyLog> {
        self.harvest_concurrency_log();
        self.clog.take()
    }

    /// Merge the active engine's recorded segment into the session log.
    fn harvest_concurrency_log(&mut self) {
        if self.clog.is_some() {
            let seg = self.engine.as_engine().take_concurrency_log();
            if let (Some(clog), Some(seg)) = (&mut self.clog, seg) {
                clog.append_shifted(&seg);
            }
        }
    }

    /// Re-arm recording on a freshly installed engine and mark the
    /// transition (replan/fallback quiesce point) in the session log.
    fn rearm_concurrency_log(&mut self, mechanism: SyncMechanism) {
        let at = self.now;
        if let Some(clog) = &mut self.clog {
            clog.push_marker(mechanism, at);
            self.engine.as_engine().enable_concurrency_log();
        }
    }

    /// Arm the session-wide span timeline. Each served request arms the
    /// active engine's recorder, so segments survive replans and
    /// fallbacks; controller reactions appear as `Control` spans on the
    /// [`Track::Controller`] row.
    pub fn enable_timeline(&mut self) {
        self.tl = Some(SpanTimeline::default());
    }

    /// Take the session-wide span timeline, ending recording.
    pub fn take_timeline(&mut self) -> Option<SpanTimeline> {
        self.tl.take()
    }

    /// Push a controller-track span if the timeline is armed.
    fn push_control(&mut self, name: &str, start: SimTime, end: SimTime) {
        if let Some(tl) = &mut self.tl {
            tl.push_span(Track::Controller, SpanKind::Control, name, start, end);
        }
    }

    /// Serve `requests` in arrival order while `trace` disturbs the
    /// SoC; returns the aggregated [`DegradationReport`].
    ///
    /// # Errors
    ///
    /// [`EngineError::Causality`] if the trace is malformed (a window
    /// ending before it starts); any [`EngineError`] an engine phase
    /// surfaces.
    pub fn run(
        &mut self,
        requests: &[InferenceRequest],
        trace: &DisturbanceTrace,
    ) -> Result<DegradationReport, EngineError> {
        self.run_with_sdc(requests, trace, &SdcTrace::new(0))
    }

    /// [`Self::run`] with a seeded silent-data-corruption trace landing
    /// faults while the stream is served. With integrity `Off` the SDC
    /// events are inert (nothing observes them — the silent-corruption
    /// baseline); `Verify` detects and quarantines; `Recover`
    /// additionally recomputes/rebuilds, charging the recovery time to
    /// the victim request.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_with_sdc(
        &mut self,
        requests: &[InferenceRequest],
        trace: &DisturbanceTrace,
        sdc: &SdcTrace,
    ) -> Result<DegradationReport, EngineError> {
        let timeline = trace.timeline()?;
        self.sdc_pending = sdc.events.clone();
        self.sdc_pending.sort_by_key(|e| e.at);
        for req in requests {
            self.serve(req, &timeline)?;
        }
        self.energy_j += self.engine.as_engine().finish().energy_j;

        // Recovery time per disturbance window: from the window closing
        // to the first SLO-meeting completion after it.
        let mut recovered = 0usize;
        let mut unrecovered = 0usize;
        let mut recovery_total = SimTime::ZERO;
        for w in &trace.windows {
            match self.completions.iter().find(|(t, met)| *met && *t >= w.end) {
                Some((t, _)) => {
                    recovered += 1;
                    recovery_total += t.saturating_sub(w.end);
                }
                None => unrecovered += 1,
            }
        }
        let mean_recovery = if recovered == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_nanos(recovery_total.as_nanos() / recovered as u64)
        };

        let mut ttfts = self.ttfts.clone();
        let mut tpots = self.tpots.clone();
        ttfts.sort_unstable();
        tpots.sort_unstable();
        let summary = DegradationSummary {
            total_requests: requests.len(),
            completed: self.completions.len(),
            shed: self.shed,
            slo_violations: self.slo_violations,
            p50_ttft: exact_quantile(&ttfts, 50, 100),
            p99_ttft: exact_quantile(&ttfts, 99, 100),
            p50_tpot: exact_quantile(&tpots, 50, 100),
            p99_tpot: exact_quantile(&tpots, 99, 100),
            replans: self.replans,
            fallbacks: self.fallbacks,
            sync_retries: self.sync_retries,
            sync_downgrades: self.sync_downgrades,
            mean_recovery,
            unrecovered,
        };
        let secs = self.now.as_secs_f64();
        let session = SessionReport {
            engine: if self.cfg.adaptive {
                "Runtime-adaptive".to_string()
            } else {
                "Runtime-static".to_string()
            },
            model: self.model.name.clone(),
            prefill: crate::report::PhaseReport {
                tokens: self.prefill_tokens,
                elapsed: self.prefill_time,
            },
            decode: crate::report::PhaseReport {
                tokens: self.decode_tokens,
                elapsed: self.decode_time,
            },
            power: PowerReport {
                avg_power_w: if secs > 0.0 {
                    self.energy_j / secs
                } else {
                    0.0
                },
                energy_j: self.energy_j,
                makespan: self.now,
            },
            degradation: Some(summary.clone()),
            integrity: self
                .cfg
                .integrity
                .verifies()
                .then(|| self.icounters.summary(self.now)),
            metrics: self
                .tl
                .as_ref()
                .map(|tl| MetricsRegistry::from_timeline(tl).snapshot()),
        };
        Ok(DegradationReport {
            adaptive: self.cfg.adaptive,
            seed: trace.seed,
            summary,
            session,
            fallback_plans: self.fallback_plans.clone(),
        })
    }

    fn serve(&mut self, req: &InferenceRequest, timeline: &Timeline) -> Result<(), EngineError> {
        let start = self.now.max(req.arrival);
        let wait = start.saturating_sub(req.arrival);
        let cond = timeline.condition_at(start).clone();

        // React to the current condition even for requests about to be
        // shed — restoring a downgraded sync path or a fallen-back
        // backend must not wait for an admissible request.
        let mut overhead = SimTime::ZERO;
        let pre_fallbacks = self.fallbacks;
        let pre_replans = self.replans;
        if self.cfg.adaptive {
            overhead += self.adapt(&cond);
        }
        if overhead > SimTime::ZERO {
            let name = if self.fallbacks > pre_fallbacks {
                "fallback"
            } else if self.replans > pre_replans {
                "replan"
            } else {
                "restore"
            };
            self.push_control(name, start, start + overhead);
        }
        if self.cfg.adaptive && wait > self.cfg.slo.shed_wait {
            // The TTFT budget is already spent queueing: shed rather
            // than serve a guaranteed violation and deepen the backlog.
            self.shed += 1;
            self.push_control("shed", start + overhead, start + overhead);
            self.now = start + overhead;
            return Ok(());
        }
        let sync_pen = self.sync_penalty(&cond);
        if sync_pen > SimTime::ZERO {
            self.push_control("sync_retry", start + overhead, start + overhead + sync_pen);
        }
        overhead += sync_pen;
        let integrity = self.integrity_step(start, req);
        if integrity > SimTime::ZERO {
            self.push_control("integrity", start + overhead, start + overhead + integrity);
        }
        overhead += integrity;

        // Execution always experiences the disturbance, adaptive or
        // not; derates apply to the pristine base so they never stack.
        let exec_start = start + overhead;
        let exec_cfg = cond.apply_to(&self.pristine);
        if self.tl.is_some() {
            self.engine.as_engine().enable_timeline();
        }
        let engine = self.engine.as_engine();
        engine.soc_mut().set_config(exec_cfg);
        // The engine clock keeps running across requests (and restarts
        // at zero on rebuild); the segment is re-based onto the
        // controller clock at this request's execution start.
        let eng_clock0 = engine.soc().clock();
        let prefill = engine.try_prefill(req.prompt_tokens)?;
        let decode = engine.try_decode(req.prompt_tokens, req.response_tokens)?;
        if self.tl.is_some() {
            let seg = self.engine.as_engine().take_timeline();
            if let (Some(tl), Some(seg)) = (&mut self.tl, seg) {
                tl.append_shifted(&seg, eng_clock0, exec_start);
            }
        }

        let ttft = wait + overhead + prefill.elapsed;
        let tpot = decode.per_token();
        self.now = start + overhead + prefill.elapsed + decode.elapsed;
        let met = ttft <= self.cfg.slo.ttft && tpot <= self.cfg.slo.tpot;
        if met {
            self.slow_streak = 0;
        } else {
            self.slo_violations += 1;
            self.slow_streak += 1;
        }
        self.ttfts.push(ttft);
        self.tpots.push(tpot);
        self.completions.push((self.now, met));
        self.prefill_tokens += prefill.tokens;
        self.prefill_time += prefill.elapsed;
        self.decode_tokens += decode.tokens;
        self.decode_time += decode.elapsed;
        Ok(())
    }

    /// Price `kernels` on a quiet copy of the current pristine SoC
    /// (pure pricing — the live engine's clock and power are
    /// untouched).
    fn price(&self, backend: Backend, kernels: &[KernelDesc]) -> SimTime {
        Soc::new(self.pristine.clone()).run_serial(backend, kernels)
    }

    /// The per-request integrity pass: land due SDC events, charge the
    /// detection tax, and quarantine/recover what the verifiers flag.
    /// Returns the latency charged to this request.
    ///
    /// The controller serves timing-level engines, so detection here is
    /// event-driven rather than arithmetic: an SDC event that has
    /// landed *is* what the matching verifier (tile checksum, KV seal,
    /// graph fingerprint — the `FunctionalHeteroEngine` implements the
    /// real math) reports. The tax and recovery costs are priced
    /// through the SoC model so the overhead shows up in TTFT.
    fn integrity_step(&mut self, start: SimTime, req: &InferenceRequest) -> SimTime {
        if !self.cfg.integrity.verifies() {
            return SimTime::ZERO;
        }
        let recover = self.cfg.integrity.recovers();
        let layers = self.model.layers as u64;
        let ops = self.model.matmul_ops();

        // Land every event due by this request's start.
        let split = self.sdc_pending.partition_point(|e| e.at <= start);
        let mut tile_flips: Vec<u64> = Vec::new();
        let mut kv_hits: Vec<u64> = Vec::new();
        for e in self.sdc_pending.drain(..split) {
            self.icounters.injected += 1;
            match e.fault {
                SdcFault::TileFlip { elem_draw, .. } => tile_flips.push(elem_draw),
                SdcFault::KvCorrupt { row_draw, .. } => kv_hits.push(row_draw),
                SdcFault::GraphPoison { size_draw } => {
                    let sizes = self.graphs.compiled_sizes();
                    let m = sizes[(size_draw % sizes.len() as u64) as usize];
                    self.graphs.poison(m, size_draw);
                }
            }
        }

        // Detection tax. At production scale the checksum sums ride the
        // GEMM itself (`s` folds into the weight upload, row sums of C
        // accumulate in the epilogue — both vanish inside the GEMM's
        // own O(m·k·n)), so what the CPU verifier pays per tile is
        // reading the two per-row checksum vectors and comparing, plus
        // one fast-sync rendezvous per verified tile; the KV-seal
        // rehash streams the rows appended this request.
        let m = req.prompt_tokens as u64;
        let reductions: Vec<KernelDesc> = ops
            .iter()
            .map(|_| KernelDesc::mem_bound(KernelLabel::Other, 16 * m, 8, 4 * m))
            .collect();
        let kv_bytes = 2 * layers * m * self.model.kv_dim() as u64 * 2;
        let rehash = KernelDesc::mem_bound(KernelLabel::KvAppend, kv_bytes, 8, kv_bytes / 4);
        let per_layer = self.price(Backend::Cpu, &reductions);
        let tiles = layers * ops.len() as u64;
        let rdv = SyncModel::new(self.sync).rendezvous(Dominance::NpuDominant);
        let tax = SimTime::from_nanos(per_layer.as_nanos() * layers + rdv.as_nanos() * tiles)
            + self.price(Backend::Cpu, &[rehash]);
        self.icounters.tiles_verified += tiles as usize;
        self.icounters.kv_rows_verified += req.prompt_tokens * self.model.layers;
        self.icounters.graphs_verified += self.graphs.compiled_sizes().len();
        self.icounters.verify_time += tax;
        let mut overhead = tax;

        // Quarantine and recover what the verifiers flagged.
        let mut detections = 0usize;
        for draw in tile_flips {
            self.icounters.tile_mismatches += 1;
            self.icounters.detected += 1;
            detections += 1;
            if recover {
                // Recompute the tile on the backend that did not
                // produce it; under the NPU-dominant plans the victim
                // tile is NPU work, so the GPU arbitrates.
                let (_, k, n) = ops[(draw % ops.len() as u64) as usize];
                let shape = MatmulShape::new(req.prompt_tokens.max(1), k, n);
                let t = self.price(Backend::Gpu, &[crate::engines::gpu_kernel(shape)]);
                overhead += t;
                self.icounters.tile_recomputes += 1;
                self.icounters.corrected += 1;
                self.icounters.recompute_latencies.push(t);
            } else {
                self.icounters.uncorrectable += 1;
            }
        }
        for draw in kv_hits {
            self.icounters.kv_mismatches += 1;
            self.icounters.detected += 1;
            detections += 1;
            if recover {
                // Roll back to the sealed prefix and replay the
                // dropped suffix through the NPU prefill path.
                let replay = 1 + (draw % 32) as usize;
                let replays: Vec<KernelDesc> = ops
                    .iter()
                    .map(|&(_, k, n)| crate::engines::npu_kernel(MatmulShape::new(replay, k, n)))
                    .collect();
                let t = SimTime::from_nanos(self.price(Backend::Npu, &replays).as_nanos() * layers);
                overhead += t;
                self.icounters.kv_rollbacks += 1;
                self.icounters.replayed_tokens += replay;
                self.icounters.corrected += 1;
                self.icounters.recompute_latencies.push(t);
            } else {
                self.icounters.uncorrectable += 1;
            }
        }
        for size in self.graphs.poisoned_sizes() {
            self.icounters.graph_mismatches += 1;
            self.icounters.detected += 1;
            detections += 1;
            // Either way the poisoned artifact is quarantined (dropped
            // from the store — a miss compiles fresh, it can never
            // dispatch); only `Recover` rebuilds it now and pays the
            // compile time.
            self.graphs.invalidate(size);
            if recover {
                let t = self.graphs.ensure(size);
                overhead += t;
                self.icounters.graph_rebuilds += 1;
                self.icounters.corrected += 1;
                self.icounters.recompute_latencies.push(t);
            } else {
                self.icounters.uncorrectable += 1;
            }
        }

        // A corruption streak reads as a failing backend: escalate to
        // single-backend fallback through the watchdog.
        if detections > 0 {
            self.corruption_streak += 1;
            if recover
                && self.cfg.adaptive
                && self.corruption_streak >= self.cfg.slo.streak
                && matches!(self.engine, ActiveEngine::Primary(_))
            {
                self.slow_streak = self.cfg.slo.streak;
                self.icounters.fallback_escalations += 1;
                self.corruption_streak = 0;
            }
        } else {
            self.corruption_streak = 0;
        }
        overhead
    }

    /// The single-backend fallback the controller would adopt for
    /// `cond`: the healthy backend by efficiency, optionally vetoed by
    /// the static pre-admission bound.
    ///
    /// With [`ControllerConfig::bound_precheck`] enabled, each
    /// candidate's *exact* prefill floor at [`MAX_PROMPT`] (the
    /// single-backend mirrors of [`crate::admit`] — pure cost
    /// arithmetic, no engine build, no simulation) is compared against
    /// the TTFT budget: a preferred candidate that cannot meet the
    /// budget even in the best case is swapped for the alternative when
    /// the alternative can. If both are statically infeasible the
    /// healthy-backend preference stands (degraded service beats no
    /// service).
    pub fn fallback_decision(&mut self, cond: &SocCondition) -> (EngineKind, PartitionPlan) {
        let npu_eff = cond.npu_derate * cond.thermal_factor;
        let gpu_eff = cond.gpu_derate * cond.thermal_factor;
        let gpu_side = (EngineKind::PplOpenCl, PartitionPlan::GpuOnly);
        let npu_side = (
            EngineKind::NpuPipe,
            PartitionPlan::NpuOnly { padded_m: 256 },
        );
        let prefer_gpu = npu_eff <= gpu_eff;
        let (preferred, alternative) = if prefer_gpu {
            (gpu_side, npu_side)
        } else {
            (npu_side, gpu_side)
        };
        if !self.cfg.bound_precheck {
            return preferred;
        }
        let exec_cfg = cond.apply_to(&hetero_soc_config(self.sync));
        let floor = |kind: EngineKind| match kind {
            EngineKind::PplOpenCl => {
                crate::admit::gpu_only_prefill(&self.model, &exec_cfg, MAX_PROMPT)
            }
            _ => crate::admit::npu_pipe_prefill(&self.model, &exec_cfg, MAX_PROMPT),
        };
        if floor(preferred.0) <= self.cfg.slo.ttft {
            return preferred;
        }
        if floor(alternative.0) <= self.cfg.slo.ttft {
            self.bound_rejections += 1;
            return alternative;
        }
        preferred
    }

    /// Apply the adaptive reaction policy for the condition at this
    /// request's start; returns the reaction overhead charged.
    fn adapt(&mut self, cond: &SocCondition) -> SimTime {
        let mut overhead = SimTime::ZERO;

        // Sync downgrade / restore reacts to the flaky window itself:
        // past the retry budget, flagged rendezvous go through the
        // driver path (priced in `sync_penalty`) until the window ends.
        if cond.sync_failures > self.cfg.max_sync_retries && !self.sync_downgraded {
            self.sync_downgraded = true;
            self.sync_downgrades += 1;
        } else if cond.sync_failures == 0 && self.sync_downgraded {
            self.sync_downgraded = false;
        }

        let npu_eff = cond.npu_derate * cond.thermal_factor;
        let gpu_eff = cond.gpu_derate * cond.thermal_factor;
        let severe = npu_eff < 0.2 || gpu_eff < 0.2;
        let watchdog = self.slow_streak >= self.cfg.slo.streak;
        match &self.engine {
            ActiveEngine::Primary(_) if severe || watchdog => {
                // Backend fallback: run on the healthy backend alone,
                // subject to the static pre-admission veto.
                let (kind, plan) = self.fallback_decision(cond);
                self.harvest_concurrency_log();
                self.energy_j += self.engine.as_engine().finish().energy_j;
                let engine = kind.build(&self.model, self.sync);
                self.pristine = engine.soc().config().clone();
                self.engine = ActiveEngine::Fallback(engine);
                self.rearm_concurrency_log(self.sync);
                self.planned = cond.clone();
                self.fallbacks += 1;
                self.slow_streak = 0;
                self.record_plans_uniform(&plan);
                overhead += self.cfg.replan_overhead;
            }
            ActiveEngine::Fallback(_) if cond.is_quiet() => {
                // Disturbance passed: restore the tensor-hybrid primary.
                overhead += self.rebuild(cond);
            }
            ActiveEngine::Primary(_) if *cond != self.planned => {
                // Re-solve the partition against the adjusted profile.
                self.replans += 1;
                overhead += self.rebuild(cond);
                self.record_primary_plans();
            }
            _ => {}
        }
        overhead
    }

    /// Replace the active engine with a primary re-planned for `cond`
    /// under the current sync mechanism.
    fn rebuild(&mut self, cond: &SocCondition) -> SimTime {
        self.harvest_concurrency_log();
        self.energy_j += self.engine.as_engine().finish().energy_j;
        let quiet_base = hetero_soc_config(self.sync);
        let engine = HeteroTensorEngine::with_soc_config(&self.model, cond.apply_to(&quiet_base));
        self.pristine = quiet_base;
        self.engine = ActiveEngine::Primary(Box::new(engine));
        self.rearm_concurrency_log(self.sync);
        self.planned = cond.clone();
        self.cfg.replan_overhead
    }

    /// Record the primary engine's current plans for the model's
    /// weight matmuls at the standard prefill shape.
    fn record_primary_plans(&mut self) {
        let ops = self.model.matmul_ops();
        if let ActiveEngine::Primary(engine) = &mut self.engine {
            for (op, k, n) in ops {
                let plan = engine.plan_for(op, MatmulShape::new(256, k, n));
                self.fallback_plans.push(PlanRecord {
                    op: op.to_string(),
                    m: 256,
                    k,
                    n,
                    plan,
                });
            }
        }
    }

    /// Record one degenerate plan per weight matmul (what a
    /// single-backend fallback effectively runs).
    fn record_plans_uniform(&mut self, plan: &PartitionPlan) {
        for (op, k, n) in self.model.matmul_ops() {
            self.fallback_plans.push(PlanRecord {
                op: op.to_string(),
                m: 256,
                k,
                n,
                plan: plan.clone(),
            });
        }
    }

    /// Extra latency paid to flaky rendezvous this request.
    ///
    /// Only the tensor-hybrid primary rendezvouses across backends;
    /// single-backend fallbacks are unaffected. One merge rendezvous
    /// per layer is exposed to the race. Retries back off
    /// exponentially — `backoff * (2^attempts - 1)` per rendezvous —
    /// and the static baseline retries for every failure. An adaptive
    /// controller caps attempts at its retry budget and, once
    /// downgraded, pays the driver path's fixed rendezvous cost
    /// instead (reliable, no retries).
    fn sync_penalty(&mut self, cond: &SocCondition) -> SimTime {
        if cond.sync_failures == 0 || !matches!(self.engine, ActiveEngine::Primary(_)) {
            return SimTime::ZERO;
        }
        let per_rendezvous = if self.cfg.adaptive && self.sync_downgraded {
            // Flagged rendezvous route through the reliable driver
            // path: record the downgrade as a driver-carried marker.
            let at = self.now;
            if let Some(clog) = &mut self.clog {
                clog.push_marker(SyncMechanism::Driver, at);
            }
            SyncModel::new(SyncMechanism::Driver)
                .rendezvous(Dominance::NpuDominant)
                .as_nanos()
        } else {
            let attempts = if self.cfg.adaptive {
                cond.sync_failures.min(self.cfg.max_sync_retries)
            } else {
                cond.sync_failures
            };
            self.sync_retries += attempts as usize;
            // Each retry re-arms the flag: one marker per attempt.
            let at = self.now;
            if let Some(clog) = &mut self.clog {
                for _ in 0..attempts {
                    clog.push_marker(self.sync, at);
                }
            }
            self.cfg.retry_backoff.as_nanos() * ((1u64 << attempts) - 1)
        };
        SimTime::from_nanos(per_rendezvous * self.model.layers as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_run(adaptive: bool, seed: u64) -> DegradationReport {
        let model = ModelConfig::internlm_1_8b();
        let slo = SloPolicy::calibrated(&model);
        let cfg = if adaptive {
            ControllerConfig::adaptive(slo)
        } else {
            ControllerConfig::static_baseline(slo)
        };
        let requests = conversation_traffic(seed, 24, SimTime::from_millis(500));
        let trace = DisturbanceTrace::standard(seed);
        RuntimeController::new(&model, cfg)
            .run(&requests, &trace)
            .expect("standard trace is well-formed")
    }

    #[test]
    fn quiet_trace_meets_slo_everywhere() {
        let model = ModelConfig::internlm_1_8b();
        let slo = SloPolicy::calibrated(&model);
        let requests = conversation_traffic(7, 8, SimTime::from_millis(1200));
        let trace = DisturbanceTrace::new(7); // no windows
        let report = RuntimeController::new(&model, ControllerConfig::adaptive(slo))
            .run(&requests, &trace)
            .unwrap();
        assert_eq!(report.summary.slo_violations, 0);
        assert_eq!(report.summary.shed, 0);
        assert_eq!(report.summary.fallbacks, 0);
        assert_eq!(report.summary.completed, 8);
        assert!(report.session.power.energy_j > 0.0);
    }

    #[test]
    fn adaptive_reacts_under_standard_trace() {
        let report = small_run(true, 42);
        // The NPU-unavailable window forces a severe one-sided derate:
        // the controller must fall back, and condition changes must
        // trigger replans with recorded plans.
        assert!(report.summary.fallbacks >= 1, "{:?}", report.summary);
        assert!(report.summary.replans >= 1, "{:?}", report.summary);
        assert!(!report.fallback_plans.is_empty());
        assert!(report.summary.sync_retries + report.summary.sync_downgrades >= 1);
        assert!(report.session.degradation.is_some());
    }

    #[test]
    fn adaptive_beats_static_p99_ttft() {
        let adaptive = small_run(true, 42);
        let r#static = small_run(false, 42);
        assert!(
            adaptive.summary.p99_ttft < r#static.summary.p99_ttft,
            "adaptive p99 TTFT {:?} must degrade strictly less than static {:?}",
            adaptive.summary.p99_ttft,
            r#static.summary.p99_ttft
        );
        assert!(adaptive.summary.slo_violation_rate() <= r#static.summary.slo_violation_rate());
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let a = serde_json::to_string(&small_run(true, 11)).unwrap();
        let b = serde_json::to_string(&small_run(true, 11)).unwrap();
        assert_eq!(a, b);
        let c = serde_json::to_string(&small_run(true, 12)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn traffic_is_seeded_and_monotone() {
        let a = conversation_traffic(3, 16, SimTime::from_millis(100));
        let b = conversation_traffic(3, 16, SimTime::from_millis(100));
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[1].arrival > w[0].arrival);
        }
        for r in &a {
            assert!((64..MAX_PROMPT).contains(&r.prompt_tokens));
            assert!((8..64).contains(&r.response_tokens));
        }
    }

    #[test]
    fn malformed_trace_is_a_typed_error() {
        let model = ModelConfig::tiny();
        let slo = SloPolicy::calibrated(&model);
        let trace = DisturbanceTrace::new(0).with(
            SimTime::from_millis(100),
            SimTime::from_millis(50),
            hetero_soc::disturb::Disturbance::NpuUnavailable,
        );
        let err = RuntimeController::new(&model, ControllerConfig::adaptive(slo))
            .run(&[], &trace)
            .unwrap_err();
        assert!(matches!(err, EngineError::Causality(_)));
    }

    fn sdc_run(mode: IntegrityMode, seed: u64, sdc_seed: u64) -> DegradationReport {
        let model = ModelConfig::internlm_1_8b();
        let slo = SloPolicy::calibrated(&model);
        let cfg = ControllerConfig::adaptive(slo).with_integrity(mode);
        let requests = conversation_traffic(seed, 12, SimTime::from_millis(500));
        // Quiet disturbance trace: isolate the integrity layer.
        let trace = DisturbanceTrace::new(seed);
        RuntimeController::new(&model, cfg)
            .run_with_sdc(&requests, &trace, &SdcTrace::standard(sdc_seed))
            .expect("quiet trace is well-formed")
    }

    #[test]
    fn integrity_off_leaves_sdc_events_inert() {
        let faulted = sdc_run(IntegrityMode::Off, 5, 42);
        assert!(faulted.session.integrity.is_none());
        // Byte-identical to a run that never saw the SDC trace at all:
        // nothing observes silent corruption at the timing level.
        let model = ModelConfig::internlm_1_8b();
        let slo = SloPolicy::calibrated(&model);
        let requests = conversation_traffic(5, 12, SimTime::from_millis(500));
        let clean = RuntimeController::new(&model, ControllerConfig::adaptive(slo))
            .run(&requests, &DisturbanceTrace::new(5))
            .unwrap();
        assert_eq!(
            serde_json::to_string(&faulted).unwrap(),
            serde_json::to_string(&clean).unwrap()
        );
    }

    #[test]
    fn recover_arm_detects_and_repairs_every_injection() {
        let r = sdc_run(IntegrityMode::Recover, 5, 42);
        let s = r.session.integrity.expect("integrity summary present");
        assert_eq!(s.injected, 6, "standard SDC trace lands 3+2+1 faults");
        assert_eq!(s.detected, s.injected, "{s:?}");
        assert_eq!(s.corrected, s.detected, "{s:?}");
        assert_eq!(s.uncorrectable, 0);
        assert_eq!(s.tile_recomputes, 3);
        assert_eq!(s.kv_rollbacks, 2);
        assert_eq!(s.graph_rebuilds, 1);
        assert!(s.replayed_tokens > 0);
        assert!(s.tiles_verified > 0 && s.kv_rows_verified > 0 && s.graphs_verified > 0);
        assert!(s.recompute_p99 >= s.recompute_p50);
    }

    #[test]
    fn verify_arm_detects_but_does_not_repair() {
        let r = sdc_run(IntegrityMode::Verify, 5, 42);
        let s = r.session.integrity.expect("integrity summary present");
        assert_eq!(s.detected, s.injected);
        assert_eq!(s.corrected, 0);
        assert_eq!(s.uncorrectable, s.detected);
        assert_eq!(s.tile_recomputes + s.kv_rollbacks + s.graph_rebuilds, 0);
    }

    #[test]
    fn verify_overhead_is_bounded() {
        // The acceptance bound from the integrity experiment: turning
        // verification on inflates p99 TTFT by less than 15% on a
        // clean trace.
        let off = sdc_run(IntegrityMode::Off, 5, 0);
        let on = sdc_run(IntegrityMode::Verify, 5, 0);
        let (off_p99, on_p99) = (
            off.summary.p99_ttft.as_nanos(),
            on.summary.p99_ttft.as_nanos(),
        );
        assert!(on_p99 >= off_p99, "verification cannot be free");
        assert!(
            on_p99 * 100 < off_p99 * 115,
            "verify-on p99 TTFT {on_p99}ns vs off {off_p99}ns exceeds 15%"
        );
        let s = on.session.integrity.unwrap();
        assert!(s.verify_overhead_pct < 15);
    }

    #[test]
    fn integrity_reports_are_seed_deterministic() {
        let a = serde_json::to_string(&sdc_run(IntegrityMode::Recover, 5, 42)).unwrap();
        let b = serde_json::to_string(&sdc_run(IntegrityMode::Recover, 5, 42)).unwrap();
        assert_eq!(a, b);
        let c = serde_json::to_string(&sdc_run(IntegrityMode::Recover, 5, 43)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn corruption_streak_escalates_to_fallback() {
        use hetero_soc::disturb::SdcEvent;
        let model = ModelConfig::internlm_1_8b();
        let slo = SloPolicy::calibrated(&model);
        let cfg = ControllerConfig::adaptive(slo).with_integrity(IntegrityMode::Recover);
        let mut c = RuntimeController::new(&model, cfg);
        let req = InferenceRequest {
            arrival: SimTime::ZERO,
            prompt_tokens: 64,
            response_tokens: 8,
        };
        for i in 0..c.cfg.slo.streak {
            c.sdc_pending = vec![SdcEvent {
                at: SimTime::ZERO,
                fault: SdcFault::TileFlip {
                    proj_index: i,
                    elem_draw: 7,
                    bit: 30,
                },
            }];
            c.integrity_step(SimTime::from_millis(1), &req);
        }
        assert_eq!(c.icounters.fallback_escalations, 1);
        assert_eq!(c.slow_streak, c.cfg.slo.streak, "watchdog armed");
        assert_eq!(c.corruption_streak, 0, "streak resets after escalating");
    }

    #[test]
    fn bound_precheck_rejects_infeasible_fallback_without_simulation() {
        let model = ModelConfig::internlm_1_8b();
        let slo = SloPolicy::calibrated(&model);
        // Tie on efficiency → the controller prefers the GPU-only
        // fallback; but PPL-quality GPU prefill is ~4x the tensor
        // engine's, so its *exact* static floor at MAX_PROMPT busts
        // the 3x-quiet TTFT budget, while the NPU-pipe floor fits.
        let cond = SocCondition::quiet();
        let cfg_base = hetero_soc_config(SyncMechanism::Fast);
        let exec_cfg = cond.apply_to(&cfg_base);
        let gpu_floor = crate::admit::gpu_only_prefill(&model, &exec_cfg, MAX_PROMPT);
        let npu_floor = crate::admit::npu_pipe_prefill(&model, &exec_cfg, MAX_PROMPT);
        assert!(
            gpu_floor > slo.ttft,
            "gpu floor {gpu_floor} vs ttft {:?}",
            slo.ttft
        );
        assert!(
            npu_floor <= slo.ttft,
            "npu floor {npu_floor} vs ttft {:?}",
            slo.ttft
        );

        // Without the pre-check: healthy-backend preference stands.
        let mut plain = RuntimeController::new(&model, ControllerConfig::adaptive(slo));
        assert_eq!(plain.fallback_decision(&cond).0, EngineKind::PplOpenCl);
        assert_eq!(plain.bound_rejections(), 0);

        // With the pre-check: the infeasible candidate is rejected by
        // static arithmetic alone — no fallback engine is built and no
        // request is simulated.
        let mut checked = RuntimeController::new(
            &model,
            ControllerConfig::adaptive(slo).with_bound_precheck(),
        );
        let (kind, plan) = checked.fallback_decision(&cond);
        assert_eq!(kind, EngineKind::NpuPipe);
        assert_eq!(plan, PartitionPlan::NpuOnly { padded_m: 256 });
        assert_eq!(checked.bound_rejections(), 1);
    }

    #[test]
    fn bound_precheck_keeps_feasible_preference() {
        let model = ModelConfig::internlm_1_8b();
        let slo = SloPolicy::calibrated(&model);
        let mut c = RuntimeController::new(
            &model,
            ControllerConfig::adaptive(slo).with_bound_precheck(),
        );
        // GPU saturated by rendering: the NPU side is preferred and its
        // static floor fits the budget — no veto, no counter bump.
        let cond = SocCondition {
            gpu_derate: 0.1,
            ..SocCondition::quiet()
        };
        let (kind, _) = c.fallback_decision(&cond);
        assert_eq!(kind, EngineKind::NpuPipe);
        assert_eq!(c.bound_rejections(), 0);
    }
}
