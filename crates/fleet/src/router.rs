//! The cluster-level request router and fleet simulator.
//!
//! [`FleetSim`] materializes one seeded world — request stream, fault
//! plan, calibrated device profiles — and replays it under either
//! routing policy, so arms differ *only* in policy:
//!
//! - [`RouterPolicy::RoundRobin`] — the naive baseline: next device
//!   modulo fleet size, one attempt, no health state. A dispatch into
//!   a crash or a lost link strands the request.
//! - [`RouterPolicy::Robust`] — health-probe-informed
//!   power-of-d-choices selection scored by EWMA latency plus queue
//!   wait, seeded exponential-backoff retries with per-request device
//!   exclusion, per-device circuit breakers, and priority-aware
//!   admission control. Retries are deadline-bounded: the exponential
//!   schedule runs first, then the capped delay, until the request's
//!   lost-penalty deadline — fault windows are finite and far shorter
//!   than the deadline, so a routed request always recovers.
//!
//! The router is a discrete-time replay over requests in arrival
//! order; each device serves its own queue (`busy_until`), so the
//! fleet serves in parallel while the replay stays sequential and
//! deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hetero_soc::{SimTime, SocConfig};
use heterollm::obs::{Histogram, MetricsRegistry};
use heterollm::ModelConfig;
use serde::{Deserialize, Serialize};

use crate::calib::{calibrate_devices, FleetCalibration};
use crate::device::{calibrate_profiles_with_socs, Device, DeviceProfile};
use crate::draw;
use crate::events::{FleetEvent, FleetEventLog, FleetLogPair, EVENT_LOG_VERSION};
use crate::fault::{DowntimeSweep, FaultInjector, FaultPlanConfig};
use crate::policy::{AdmissionControl, BreakerConfig, BreakerState, RetryPolicy};
use crate::profiler::PPM;
use crate::report::{quantiles_ns, ArmReport, FleetComparison, PriorityStats};
use crate::rollout::{scale_ppm, StageOverlay};
use crate::workload::{fleet_traffic, FleetRequest, Priority};

/// Draw-offset namespace for candidate sampling (decorrelated from
/// the fault-plan offsets in [`crate::fault`]).
const OFF_SELECT: u64 = 9 << 40;

/// Candidates sampled per selection round (power-of-d-choices).
const SELECT_SAMPLES: u64 = 16;

/// Hard safety cap on dispatch attempts per request (robust arm).
///
/// The real bound is the per-request deadline; this cap only bounds
/// the loop if a zero-delay policy sneaks past the `retry-storm`
/// lint, and keeps each request inside its private draw namespace
/// (`MAX_DISPATCHES × SELECT_SAMPLES = 1024` draws per request).
/// Public so the `hetero_analyze` model checker can clamp its attempt
/// budget to it; that budget is `RetryPolicy::max_attempts`, not this
/// cap.
pub const MAX_DISPATCHES: u32 = 64;

/// Reference request shape for sizing arrival rate and EWMA seeds.
const TYPICAL_PROMPT: usize = 272;
/// Reference decode length for the same.
const TYPICAL_DECODE: usize = 36;

/// Routing policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Naive round-robin: no health, no retry, no shedding.
    RoundRobin,
    /// The full robustness toolkit.
    Robust,
}

impl RouterPolicy {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::Robust => "robust",
        }
    }
}

/// Configuration of one fleet world.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Run seed (workload, faults, jitter, sampling).
    pub seed: u64,
    /// Fleet size.
    pub devices: usize,
    /// Requests offered.
    pub requests: usize,
    /// Model every device serves.
    pub model: ModelConfig,
    /// Target fleet utilization in percent; the arrival rate is
    /// derived from it and the calibrated mean service time.
    pub target_busy_pct: u32,
    /// Retry/backoff/timeout schedule (robust arm).
    pub retry: RetryPolicy,
    /// Circuit-breaker tuning (robust arm).
    pub breaker: BreakerConfig,
    /// Load-shedding thresholds (robust arm).
    pub admission: AdmissionControl,
    /// Health-probe period: the router's view of reachability lags
    /// real state by at most this much.
    pub probe_interval: SimTime,
    /// Fault-plan shape.
    pub fault: FaultPlanConfig,
}

impl FleetConfig {
    /// The shipped configuration at `seed` with `devices` devices and
    /// `requests` requests on InternLM-1.8B at ~60% fleet load.
    pub fn standard(seed: u64, devices: usize, requests: usize) -> Self {
        Self {
            seed,
            devices,
            requests,
            model: ModelConfig::internlm_1_8b(),
            target_busy_pct: 60,
            retry: RetryPolicy::standard(),
            breaker: BreakerConfig::standard(),
            admission: AdmissionControl::standard(),
            probe_interval: SimTime::from_millis(50),
            fault: FaultPlanConfig::standard(),
        }
    }
}

/// The robust router's health census: devices whose breaker admits a
/// dispatch and whose last probe saw them up.
///
/// It is swept, not scanned. A [`DowntimeSweep`] counts the crashed
/// devices, and only breakers that may be open are polled: `poll`
/// changes nothing but `Open → HalfOpen`, so polling any other breaker
/// would leave every state and transition as it is.
struct HealthCensus<'a> {
    injector: &'a FaultInjector,
    down: DowntimeSweep<'a>,
    /// Every device whose breaker is open, plus some that no longer
    /// are: an entry leaves when a poll finds its breaker admitting.
    open: Vec<usize>,
    listed: Vec<bool>,
}

impl<'a> HealthCensus<'a> {
    fn new(injector: &'a FaultInjector, devices: usize) -> Self {
        Self {
            injector,
            down: injector.downtime_sweep(),
            open: Vec::new(),
            listed: vec![false; devices],
        }
    }

    /// Start tracking `idx` if its breaker's `state` is open. Only a
    /// recorded failure opens a breaker, so the router calls this after
    /// each.
    fn note(&mut self, idx: usize, state: BreakerState) {
        if state == BreakerState::Open && !self.listed[idx] {
            self.listed[idx] = true;
            self.open.push(idx);
        }
    }

    /// Poll every possibly-open breaker at `t` except those in `skip`,
    /// as a scan over the whole fleet would, and drop the entries that
    /// now admit.
    fn poll_open(&mut self, devices: &mut [Device], t: SimTime, skip: &[usize]) {
        let listed = &mut self.listed;
        self.open.retain(|&d| {
            if skip.contains(&d) {
                return true;
            }
            let admits = devices[d].breaker.allows(t);
            if admits {
                listed[d] = false;
            }
            !admits
        });
    }

    /// Devices with an admitting breaker that the probe at `probe_t`
    /// sees up. Queries must come in non-decreasing `probe_t` order.
    fn healthy(&mut self, devices: &mut [Device], probe_t: SimTime) -> usize {
        #[cfg(test)]
        let scan =
            tests::oracle_scans().then(|| tests::scan_healthy(self.injector, devices, probe_t));
        self.poll_open(devices, probe_t, &[]);
        let up = devices.len() - self.down.down_at(probe_t);
        let blocked = self
            .open
            .iter()
            .filter(|&&d| self.injector.probe_reachable_at(d, probe_t))
            .count();
        #[cfg(test)]
        if let Some(scan) = scan {
            assert_eq!(up - blocked, scan, "swept census diverged at {probe_t:?}");
        }
        up - blocked
    }
}

/// Fleet-wide replay metrics, kept typed while the replay runs and
/// assembled into the report's one [`MetricsRegistry`] at the end.
#[derive(Default)]
struct ReplayMetrics {
    ttft: Histogram,
    tpot: Histogram,
    shed_penalty: Histogram,
    dispatch_failures: u64,
}

/// One materialized fleet world, replayable under any policy.
pub struct FleetSim {
    config: FleetConfig,
    profiles: Vec<DeviceProfile>,
    socs: Vec<SocConfig>,
    calibration: FleetCalibration,
    requests: Vec<FleetRequest>,
    injector: FaultInjector,
    horizon: SimTime,
    slo_ttft: SimTime,
    slo_tpot: SimTime,
    lost_penalty: SimTime,
}

impl FleetSim {
    /// [`Self::with_jobs`] on one worker — the serial construction
    /// every pre-executor caller gets.
    ///
    /// # Panics
    ///
    /// Panics if no Table-1 SoC yields a usable profile (requires an
    /// FP16-capable NPU and a fault-free calibration run).
    pub fn new(config: FleetConfig) -> Self {
        Self::with_jobs(config, 1)
    }

    /// Calibrate class profiles, run the calibration micro-sessions
    /// (one per class and bandwidth step, see [`crate::calib`]) across
    /// `jobs` workers, generate the seeded workload and fault plan,
    /// and derive fleet SLOs (3× the slowest profile's quiet per-token
    /// latencies at a 512-token prompt).
    ///
    /// `jobs` lives *outside* [`FleetConfig`] because it must never
    /// change the world: the materialized sim — profiles, per-device
    /// calibration, workload, fault plan — is byte-identical for every
    /// `jobs` value (see [`crate::calib`]); only construction
    /// wall-clock changes.
    ///
    /// # Panics
    ///
    /// Panics if no Table-1 SoC yields a usable profile (requires an
    /// FP16-capable NPU and a fault-free calibration run).
    pub fn with_jobs(config: FleetConfig, jobs: usize) -> Self {
        let (profiles, socs) = calibrate_profiles_with_socs(&config.model);
        assert!(
            !profiles.is_empty(),
            "no projectable Table-1 SoC profile calibrated"
        );
        let calibration = calibrate_devices(
            &config.model,
            &profiles,
            &socs,
            config.seed,
            config.devices,
            jobs,
        );
        let mean_service = profiles
            .iter()
            .map(|p| {
                p.service_estimate(TYPICAL_PROMPT, TYPICAL_DECODE)
                    .as_nanos()
            })
            .sum::<u64>()
            / profiles.len() as u64;
        // offered_rate ≈ target_busy × devices / mean_service.
        let mean_gap = SimTime::from_nanos(
            (mean_service * 100 / u64::from(config.target_busy_pct).max(1))
                / config.devices.max(1) as u64,
        );
        let requests = fleet_traffic(config.seed, config.requests, mean_gap);
        let last_arrival = requests.last().map_or(SimTime::ZERO, |r| r.arrival);
        let horizon = last_arrival + SimTime::from_secs_f64(2.0);
        let injector = FaultInjector::generate(
            config.seed,
            config.devices,
            &config.model,
            horizon,
            &config.fault,
        );
        let slowest_prefill = profiles
            .iter()
            .map(|p| p.prefill_ns_per_token)
            .max()
            .unwrap_or(0);
        let slowest_decode = profiles
            .iter()
            .map(|p| p.decode_ns_per_token)
            .max()
            .unwrap_or(0);
        let slo_ttft = SimTime::from_nanos(3 * slowest_prefill * 512);
        let slo_tpot = SimTime::from_nanos(3 * slowest_decode);
        let lost_penalty = SimTime::from_nanos(4 * slo_ttft.as_nanos());
        Self {
            config,
            profiles,
            socs,
            calibration,
            requests,
            injector,
            horizon,
            slo_ttft,
            slo_tpot,
            lost_penalty,
        }
    }

    /// The calibrated profile table.
    pub fn profiles(&self) -> &[DeviceProfile] {
        &self.profiles
    }

    /// The per-device silicon-lottery calibration.
    pub fn calibration(&self) -> &FleetCalibration {
        &self.calibration
    }

    /// The world's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Profile-aligned SoC configs (drift re-solves run the solver on
    /// the config each profile was calibrated on).
    pub(crate) fn socs(&self) -> &[SocConfig] {
        &self.socs
    }

    /// The seeded fault injector (the rollout controller's few-shot
    /// micro-benchmarks sample its disturbances).
    pub(crate) fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Replay horizon (last arrival plus drain slack).
    pub(crate) fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Per-request lost-penalty deadline (4× the TTFT SLO): a lost
    /// request is recorded in the TTFT histogram at this value.
    pub fn lost_penalty(&self) -> SimTime {
        self.lost_penalty
    }

    /// The generated request stream.
    pub fn requests(&self) -> &[FleetRequest] {
        &self.requests
    }

    /// TTFT SLO, nanoseconds.
    pub fn slo_ttft(&self) -> SimTime {
        self.slo_ttft
    }

    /// TPOT SLO, nanoseconds.
    pub fn slo_tpot(&self) -> SimTime {
        self.slo_tpot
    }

    /// Replay the world under both policies.
    pub fn compare(&self) -> FleetComparison {
        FleetComparison {
            seed: self.config.seed,
            devices: self.config.devices as u64,
            requests: self.config.requests as u64,
            robust: self.run(RouterPolicy::Robust),
            naive: self.run(RouterPolicy::RoundRobin),
        }
    }

    /// Replay the world under both policies while recording typed
    /// event logs. The reports are byte-identical to [`Self::compare`]
    /// — recording is purely observational.
    pub fn compare_events(&self) -> (FleetComparison, FleetLogPair) {
        let (robust, robust_log) = self.run_events(RouterPolicy::Robust);
        let (naive, naive_log) = self.run_events(RouterPolicy::RoundRobin);
        (
            FleetComparison {
                seed: self.config.seed,
                devices: self.config.devices as u64,
                requests: self.config.requests as u64,
                robust,
                naive,
            },
            FleetLogPair {
                robust: robust_log,
                naive: naive_log,
            },
        )
    }

    /// The probe-view timestamp for `t`: reality as of the last probe
    /// tick.
    fn probe_view(&self, t: SimTime) -> SimTime {
        let p = self.config.probe_interval.as_nanos().max(1);
        SimTime::from_nanos(t.as_nanos() / p * p)
    }

    /// Robust candidate selection: sample [`SELECT_SAMPLES`] seeded
    /// candidates, drop devices already failed for this request,
    /// breaker-blocked, or unreachable as of the last health probe,
    /// and keep the best score. Falls back to a full deterministic
    /// scan when every sample is filtered (mid-storm); a
    /// pool-restricted fallback walks only the pool's members.
    ///
    /// Under a rollout overlay, selection is pool-restricted
    /// (`want_canary`) so canary traffic share tracks the stage's
    /// device exposure, and speed scoring uses each device's *online
    /// profiler estimate* instead of the probe's ground-truth
    /// slowdown — the drift-aware routing the profiler exists for.
    /// When no device of the request's pool is selectable (storm over
    /// a 1% cohort), selection fails over to the whole fleet rather
    /// than stranding the request; outcomes are attributed to the
    /// *serving* device's group, so the comparison stays pure.
    #[allow(clippy::too_many_arguments)]
    fn select_robust(
        &self,
        devices: &mut [Device],
        req: &FleetRequest,
        attempt: u32,
        t: SimTime,
        failed: &[usize],
        overlay: Option<&StageOverlay>,
        want_canary: Option<bool>,
        census: &mut HealthCensus<'_>,
    ) -> Option<usize> {
        let probe_t = self.probe_view(t);
        let n = devices.len() as u64;
        let eval =
            |idx: usize, devices: &mut [Device], pool: Option<bool>| -> Option<(u64, usize)> {
                if failed.contains(&idx) {
                    return None;
                }
                if !devices[idx].breaker.allows(t) {
                    return None;
                }
                if !self.injector.probe_reachable_at(idx, probe_t) {
                    return None;
                }
                let score = match overlay {
                    Some(ov) => {
                        if let Some(w) = pool {
                            if ov.canary[idx] != w {
                                return None;
                            }
                        }
                        // Drift-aware scoring: the profiler's integer
                        // estimate stands in for the probe's slowdown.
                        ((u128::from(devices[idx].score(t))
                            * u128::from(ov.profilers[idx].estimate_ppm()))
                            / u128::from(PPM)) as u64
                    }
                    None => {
                        // Probes measure service speed too: a browned-out
                        // device (thermal throttle, NPU claimed) scores
                        // worse by its probe-observed slowdown, steering
                        // load off it.
                        let slow = self.injector.slowdown_at(idx, probe_t);
                        (devices[idx].score(t) as f64 * slow) as u64
                    }
                };
                Some((score, idx))
            };
        let mut best: Option<(u64, usize)> = None;
        for j in 0..SELECT_SAMPLES {
            let idx = draw(
                self.config.seed,
                OFF_SELECT + req.id * 1024 + u64::from(attempt) * SELECT_SAMPLES + j,
            ) % n;
            if let Some(key) = eval(idx as usize, devices, want_canary) {
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        if best.is_none() {
            // A pool-restricted scan walks only the pool's members, in
            // ascending order like the full scan, so the argmin is the
            // same. The full scan also polled every other breaker;
            // polling the possibly-open ones keeps that state.
            let pool = overlay.zip(want_canary).map(|(ov, w)| ov.pool(w));
            #[cfg(test)]
            let pool = pool.filter(|_| !tests::oracle_scans());
            let mut consider = |idx: usize, devices: &mut [Device]| {
                if let Some(key) = eval(idx, devices, want_canary) {
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            };
            match pool {
                Some(members) => {
                    census.poll_open(devices, t, failed);
                    for &idx in members {
                        consider(idx, devices);
                    }
                }
                None => {
                    for idx in 0..devices.len() {
                        consider(idx, devices);
                    }
                }
            }
        }
        if best.is_none() && want_canary.is_some() {
            // Pool exhausted: fail over to the whole fleet.
            for idx in 0..devices.len() {
                if let Some(key) = eval(idx, devices, None) {
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
        }
        best.map(|(_, idx)| idx)
    }

    /// Replay the world under one policy.
    pub fn run(&self, policy: RouterPolicy) -> ArmReport {
        self.replay(policy, None, None).0
    }

    /// Replay the world under one policy while recording the typed
    /// event log. The report is byte-identical to [`Self::run`].
    pub fn run_events(&self, policy: RouterPolicy) -> (ArmReport, FleetEventLog) {
        let log = FleetEventLog {
            version: EVENT_LOG_VERSION,
            seed: self.config.seed,
            policy: policy.name().to_string(),
            devices: self.config.devices as u64,
            requests: self.config.requests as u64,
            slo_ttft_ns: self.slo_ttft.as_nanos(),
            deadline_ns: self.lost_penalty.as_nanos(),
            census_interval_ns: self.config.probe_interval.as_nanos(),
            rollout_window_ns: 0,
            events: Vec::new(),
        };
        let (report, log) = self.replay(policy, Some(log), None);
        (report, log.expect("recording replay returns its log"))
    }

    /// Replay the world under the robust policy through a rollout
    /// stage overlay, recording stage-local events. The overlay
    /// carries the canary flags, profilers, and group accounting back
    /// to the rollout controller.
    pub(crate) fn replay_stage(&self, overlay: &mut StageOverlay) -> (ArmReport, FleetEventLog) {
        let log = FleetEventLog {
            version: EVENT_LOG_VERSION,
            seed: self.config.seed,
            policy: "rollout-stage".to_string(),
            devices: self.config.devices as u64,
            requests: self.config.requests as u64,
            slo_ttft_ns: self.slo_ttft.as_nanos(),
            deadline_ns: self.lost_penalty.as_nanos(),
            census_interval_ns: self.config.probe_interval.as_nanos(),
            rollout_window_ns: 0,
            events: Vec::new(),
        };
        let (report, log) = self.replay(RouterPolicy::Robust, Some(log), Some(overlay));
        (report, log.expect("recording replay returns its log"))
    }

    /// Push `ev` onto the log when recording is on.
    fn emit(log: &mut Option<FleetEventLog>, ev: FleetEvent) {
        if let Some(l) = log.as_mut() {
            l.events.push(ev);
        }
    }

    /// The replay loop shared by [`Self::run`] (no log),
    /// [`Self::run_events`] (recording), and [`Self::replay_stage`]
    /// (recording through a rollout overlay). Recording never touches
    /// the draw streams or any routing state, so the returned report
    /// does not depend on whether a log is attached; without an
    /// overlay the routing path is bit-for-bit the pre-rollout one.
    fn replay(
        &self,
        policy: RouterPolicy,
        mut log: Option<FleetEventLog>,
        mut overlay: Option<&mut StageOverlay>,
    ) -> (ArmReport, Option<FleetEventLog>) {
        let cfg = &self.config;
        let n = cfg.devices;
        let mut devices: Vec<Device> = (0..n)
            .map(|d| {
                let profile = d % self.profiles.len();
                let ewma = self.profiles[profile].service_estimate(TYPICAL_PROMPT, TYPICAL_DECODE);
                Device::new(d as u32, profile, ewma, cfg.breaker)
            })
            .collect();
        let mut metrics = ReplayMetrics::default();
        let mut census = HealthCensus::new(&self.injector, n);
        let mut by_priority: Vec<PriorityStats> = Priority::ALL
            .iter()
            .map(|&p| PriorityStats::new(p))
            .collect();
        let mut releases: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        let mut healthy = n;
        let mut healthy_tick = u64::MAX;
        let mut rr_next = 0usize;
        let (mut served, mut shed, mut lost, mut retries, mut goodput) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        // Devices already failed for the current request, reused
        // across requests.
        let mut failed: Vec<usize> = Vec::new();

        // Naive: one shot. Robust: retry until the per-request
        // deadline (the lost-penalty point) — the exponential
        // schedule first, then the capped delay. Fault windows are
        // finite and much shorter than the deadline, so recovery is
        // structural, not probabilistic.
        let budget = match policy {
            RouterPolicy::RoundRobin => 1,
            RouterPolicy::Robust => MAX_DISPATCHES,
        };

        if log.is_some() {
            // World-level fault windows exist under either policy.
            for (k, &(open, close)) in self.injector.storm_windows().iter().enumerate() {
                Self::emit(
                    &mut log,
                    FleetEvent::FaultOpen {
                        at: open,
                        storm: k as u32,
                    },
                );
                Self::emit(
                    &mut log,
                    FleetEvent::FaultClose {
                        at: close,
                        storm: k as u32,
                    },
                );
            }
            // The probe subsystem ticks on its own clock regardless of
            // traffic; record its census at every tick through the
            // last instant a deadline-bounded retry can still fire.
            // Only the robust router runs probes at all.
            if policy == RouterPolicy::Robust {
                let period = cfg.probe_interval.as_nanos().max(1);
                let end = self.horizon.as_nanos() + self.lost_penalty.as_nanos();
                let mut down = self.injector.downtime_sweep();
                let mut tick_ns = 0u64;
                while tick_ns <= end {
                    let probe_t = SimTime::from_nanos(tick_ns);
                    let reachable = n - down.down_at(probe_t);
                    #[cfg(test)]
                    if tests::oracle_scans() {
                        assert_eq!(reachable, tests::scan_reachable(&self.injector, n, probe_t));
                    }
                    Self::emit(
                        &mut log,
                        FleetEvent::CensusRefresh {
                            at: probe_t,
                            healthy: reachable as u64,
                        },
                    );
                    tick_ns += period;
                }
            }
        }

        for req in &self.requests {
            let now = req.arrival;
            let class = &mut by_priority[req.priority.index()];
            class.offered += 1;
            Self::emit(
                &mut log,
                FleetEvent::Offered {
                    at: now,
                    req: req.id,
                    priority: req.priority,
                    prompt_tokens: req.prompt_tokens as u64,
                    decode_tokens: req.decode_tokens as u64,
                },
            );
            while releases
                .peek()
                .is_some_and(|Reverse(r)| *r <= now.as_nanos())
            {
                releases.pop();
            }

            if policy == RouterPolicy::Robust {
                // Refresh the router's health census once per probe tick.
                let tick = now.as_nanos() / cfg.probe_interval.as_nanos().max(1);
                if tick != healthy_tick {
                    healthy_tick = tick;
                    healthy = census.healthy(&mut devices, self.probe_view(now));
                }
                if cfg
                    .admission
                    .should_shed(req.priority, releases.len(), healthy)
                {
                    shed += 1;
                    class.shed += 1;
                    // A shed request is a refused user: charge the
                    // class-weighted TTFT-SLO penalty (interactive
                    // 4×, standard 2×, batch 1×) so the report prices
                    // shedding instead of hiding it.
                    let penalty = SimTime::from_nanos(
                        self.slo_ttft.as_nanos() * (4u64 >> req.priority.index()),
                    );
                    class.penalty_ns += penalty.as_nanos();
                    metrics.shed_penalty.observe(penalty);
                    Self::emit(
                        &mut log,
                        FleetEvent::Shed {
                            at: now,
                            req: req.id,
                            priority: req.priority,
                        },
                    );
                    continue;
                }
            }

            // Under a rollout overlay, pin the request to the canary
            // or control pool for the whole retry chain.
            let want_canary = overlay
                .as_deref()
                .map(|ov| ov.is_canary_request(cfg.seed, req.id));
            let deadline = now + self.lost_penalty;
            // Delay before the next attempt: the seeded exponential
            // schedule while it lasts, then the policy's cap.
            let backoff = |attempt: u32| cfg.retry.delay_after(cfg.seed, req.id, attempt);
            let mut t = now;
            failed.clear();
            let mut done = false;
            for attempt in 0..budget {
                if attempt > 0 && t >= deadline {
                    break;
                }
                let picked = match policy {
                    RouterPolicy::RoundRobin => {
                        let idx = rr_next % n;
                        rr_next += 1;
                        Some(idx)
                    }
                    RouterPolicy::Robust => self.select_robust(
                        &mut devices,
                        req,
                        attempt,
                        t,
                        &failed,
                        overlay.as_deref(),
                        want_canary,
                        &mut census,
                    ),
                };
                let Some(idx) = picked else {
                    // Nobody routable right now: wait out the backoff.
                    let delay = backoff(attempt);
                    if attempt + 1 < budget {
                        Self::emit(
                            &mut log,
                            FleetEvent::Retry {
                                at: t,
                                req: req.id,
                                attempt: attempt + 1,
                                delay,
                            },
                        );
                    }
                    t += delay;
                    continue;
                };
                if attempt > 0 {
                    retries += 1;
                }
                Self::emit(
                    &mut log,
                    FleetEvent::Dispatch {
                        at: t,
                        req: req.id,
                        device: idx as u64,
                        attempt,
                        priority: req.priority,
                    },
                );
                let start = t.max(devices[idx].busy_until);
                let link = self.injector.link_delay_at(idx, start);
                let profile = &self.profiles[devices[idx].profile];
                let slowdown = self.injector.slowdown_at(idx, start);
                // Price from the class profile, adjusted to *this*
                // device's measured silicon-lottery ratio, then
                // derated by the current fault condition.
                let cal = &self.calibration.devices[idx];
                let mut prefill = scale_ppm(
                    SimTime::from_nanos(profile.prefill_ns_per_token * req.prompt_tokens as u64),
                    cal.prefill_adjust_ppm,
                )
                .scale(slowdown);
                let mut decode = scale_ppm(
                    SimTime::from_nanos(profile.decode_ns_per_token * req.decode_tokens as u64),
                    cal.decode_adjust_ppm,
                )
                .scale(slowdown);
                if let Some(ov) = overlay.as_deref() {
                    // Canary devices run the candidate's plan; any
                    // drift-resolved device runs its re-solved plan.
                    let (pm, dm) = ov.service_mults_ppm(idx, devices[idx].profile);
                    prefill = scale_ppm(prefill, pm);
                    decode = scale_ppm(decode, dm);
                }
                let end = start + prefill + decode;

                let faulted = self.injector.link_lost_at(idx, start)
                    || self.injector.first_downtime_in(idx, start, end).is_some();
                if faulted {
                    let fail_at = start + cfg.retry.timeout;
                    metrics.dispatch_failures += 1;
                    if policy == RouterPolicy::Robust {
                        devices[idx].breaker.record_failure(fail_at);
                        census.note(idx, devices[idx].breaker.state());
                    }
                    failed.push(idx);
                    Self::emit(
                        &mut log,
                        FleetEvent::DispatchFail {
                            at: fail_at,
                            req: req.id,
                            device: idx as u64,
                            attempt,
                        },
                    );
                    let delay = backoff(attempt);
                    if attempt + 1 < budget {
                        Self::emit(
                            &mut log,
                            FleetEvent::Retry {
                                at: fail_at,
                                req: req.id,
                                attempt: attempt + 1,
                                delay,
                            },
                        );
                    }
                    t = fail_at + delay;
                    continue;
                }

                devices[idx].busy_until = end;
                devices[idx].busy_ns += (end - start).as_nanos();
                releases.push(Reverse(end.as_nanos()));
                let ttft = (start - req.arrival) + link + prefill;
                let tpot = SimTime::from_nanos(decode.as_nanos() / req.decode_tokens.max(1) as u64);
                metrics.ttft.observe(ttft);
                metrics.tpot.observe(tpot);
                devices[idx].observe_latency(prefill + decode);
                if policy == RouterPolicy::Robust {
                    devices[idx].breaker.record_success(end);
                }
                Self::emit(
                    &mut log,
                    FleetEvent::Complete {
                        at: end,
                        req: req.id,
                        device: idx as u64,
                        ttft,
                        tpot,
                    },
                );
                served += 1;
                class.served += 1;
                if ttft <= self.slo_ttft && tpot <= self.slo_tpot {
                    goodput += 1;
                    class.slo_met += 1;
                }
                if let Some(ov) = overlay.as_deref_mut() {
                    // Feed the device's online profiler; the first
                    // threshold crossing re-solves its partition plan
                    // and logs the drift.
                    let expected = profile.service_estimate(req.prompt_tokens, req.decode_tokens);
                    let observed = (prefill + decode).as_nanos();
                    let service_ppm = observed.saturating_mul(PPM) / expected.as_nanos().max(1);
                    if let Some(ev) = ov.observe_completion(
                        idx,
                        devices[idx].profile,
                        observed,
                        expected.as_nanos(),
                        end,
                    ) {
                        Self::emit(&mut log, ev);
                    }
                    let served_by_canary = ov.canary[idx];
                    ov.record_outcome(
                        served_by_canary,
                        service_ppm,
                        ttft,
                        tpot,
                        self.slo_ttft,
                        self.slo_tpot,
                    );
                }
                done = true;
                break;
            }
            if !done {
                lost += 1;
                class.lost += 1;
                class.penalty_ns += self.lost_penalty.as_nanos();
                // A stranded user never saw a token: record the
                // penalty deadline so tail quantiles carry the loss.
                metrics.ttft.observe(self.lost_penalty);
                Self::emit(
                    &mut log,
                    FleetEvent::Lost {
                        at: deadline,
                        req: req.id,
                    },
                );
            }
        }

        if log.is_some() {
            // Drain the typed breaker transition logs into the event
            // stream, then fix canonical order once.
            for (di, d) in devices.iter().enumerate() {
                for tr in d.breaker.transitions() {
                    Self::emit(
                        &mut log,
                        FleetEvent::Breaker {
                            at: tr.at,
                            device: di as u64,
                            from: tr.from,
                            to: tr.to,
                            cause: tr.cause,
                        },
                    );
                }
            }
            if let Some(l) = log.as_mut() {
                l.normalize();
            }
        }

        let breaker_trips: u64 = devices.iter().map(|d| d.breaker.trips()).sum();
        // The one registry of the report. `breaker_trips` and `retries`
        // are always present; every other name appears once its count
        // is nonzero.
        let mut registry = MetricsRegistry::new();
        registry.incr("breaker_trips", breaker_trips);
        registry.incr("retries", retries);
        for (name, count) in [
            ("dispatch_failures", metrics.dispatch_failures),
            ("lost", lost),
            ("retry_dispatches", retries),
            ("served", served),
        ] {
            if count > 0 {
                registry.incr(name, count);
            }
        }
        for (p, class) in Priority::ALL.iter().zip(&by_priority) {
            if class.shed > 0 {
                registry.incr(&format!("shed_{}", p.name()), class.shed);
            }
        }
        registry.merge_histogram("shed_penalty_ns", &metrics.shed_penalty);
        registry.merge_histogram("ttft_ns", &metrics.ttft);
        registry.merge_histogram("tpot_ns", &metrics.tpot);
        let (ttft_p50, ttft_p99, ttft_p999) = quantiles_ns(&registry, "ttft_ns");
        let (tpot_p50, tpot_p99, tpot_p999) = quantiles_ns(&registry, "tpot_ns");
        let busy_total: u64 = devices.iter().map(|d| d.busy_ns).sum();
        let offered = self.requests.len() as u64;
        let report = ArmReport {
            policy: policy.name().to_string(),
            devices: n as u64,
            offered,
            served,
            shed,
            lost,
            retries,
            breaker_trips,
            ttft_p50_ns: ttft_p50,
            ttft_p99_ns: ttft_p99,
            ttft_p999_ns: ttft_p999,
            tpot_p50_ns: tpot_p50,
            tpot_p99_ns: tpot_p99,
            tpot_p999_ns: tpot_p999,
            slo_ttft_ns: self.slo_ttft.as_nanos(),
            slo_tpot_ns: self.slo_tpot.as_nanos(),
            goodput,
            attainment_ppm: (goodput * 1_000_000).checked_div(offered).unwrap_or(0),
            busy_ppm: {
                let cap = self.horizon.as_nanos().saturating_mul(n as u64).max(1);
                ((u128::from(busy_total) * 1_000_000) / u128::from(cap)) as u64
            },
            by_priority,
            metrics: registry.snapshot(),
        };
        (report, log)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::cell::Cell;

    use super::*;

    thread_local! {
        /// Replay with the O(devices) scans the census sweep and the
        /// pool member walk replace, checking each swept census
        /// against its scan.
        static ORACLE_SCANS: Cell<bool> = const { Cell::new(false) };
    }

    pub(crate) fn oracle_scans() -> bool {
        ORACLE_SCANS.with(Cell::get)
    }

    /// Run `f` with the oracle scans on.
    pub(crate) fn with_oracle_scans<T>(f: impl FnOnce() -> T) -> T {
        ORACLE_SCANS.with(|on| on.set(true));
        let out = f();
        ORACLE_SCANS.with(|on| on.set(false));
        out
    }

    /// The census as a scan over every device: poll each breaker and
    /// count the admitting, probe-reachable ones.
    pub(crate) fn scan_healthy(
        injector: &FaultInjector,
        devices: &mut [Device],
        probe_t: SimTime,
    ) -> usize {
        (0..devices.len())
            .filter(|&d| {
                devices[d].breaker.allows(probe_t) && injector.probe_reachable_at(d, probe_t)
            })
            .count()
    }

    /// The logged census as a scan: probe-reachable devices.
    pub(crate) fn scan_reachable(
        injector: &FaultInjector,
        devices: usize,
        probe_t: SimTime,
    ) -> usize {
        (0..devices)
            .filter(|&d| injector.probe_reachable_at(d, probe_t))
            .count()
    }

    fn small_sim(seed: u64) -> FleetSim {
        FleetSim::new(FleetConfig::standard(seed, 48, 400))
    }

    #[test]
    fn swept_census_matches_the_scan() {
        for seed in 0..5 {
            for devices in [1, 7, 64, 512] {
                let sim = FleetSim::new(FleetConfig::standard(seed, devices, 400));
                // The oracle replay asserts every tick's swept census
                // against the scan; its polls are the scan's, so equal
                // logs mean the sweep polled every breaker the scan did,
                // at the same instants.
                let swept = sim.run_events(RouterPolicy::Robust);
                let scanned = with_oracle_scans(|| sim.run_events(RouterPolicy::Robust));
                assert_eq!(swept.0, scanned.0, "seed {seed}, {devices} devices");
                assert_eq!(swept.1, scanned.1, "seed {seed}, {devices} devices");
                assert!(swept
                    .1
                    .events
                    .iter()
                    .any(|e| matches!(e, FleetEvent::CensusRefresh { .. })));
            }
        }
    }

    #[test]
    fn same_seed_byte_identical_comparison() {
        let a = small_sim(42).compare();
        let b = small_sim(42).compare();
        assert_eq!(
            serde_json::to_string(&a).expect("serialize"),
            serde_json::to_string(&b).expect("serialize")
        );
    }

    #[test]
    fn robust_arm_recovers_everything_round_robin_does_not() {
        let cmp = small_sim(42).compare();
        assert_eq!(cmp.robust.lost, 0, "robust arm strands requests");
        assert!(cmp.naive.lost > 0, "storm never bit the naive arm");
        assert!(cmp.robust.retries > 0, "retries should fire mid-storm");
        assert!(cmp.robust.breaker_trips > 0, "breakers should trip");
    }

    #[test]
    fn robust_arm_dominates_on_slo_attainment_and_goodput() {
        let cmp = small_sim(42).compare();
        assert!(cmp.robust.attainment_ppm > cmp.naive.attainment_ppm);
        assert!(cmp.robust.goodput > cmp.naive.goodput);
        assert!(cmp.robust.ttft_p999_ns < cmp.naive.ttft_p999_ns);
    }

    #[test]
    fn lossy_arm_tail_carries_the_lost_penalty() {
        let sim = small_sim(42);
        let naive = sim.compare().naive;
        // More than 0.1% lost puts the lost penalty at or below p999.
        assert!(naive.lost * 1000 > naive.offered, "lost {}", naive.lost);
        let penalty = sim.lost_penalty().as_nanos();
        assert!(
            naive.ttft_p999_ns >= penalty,
            "p999 TTFT {} ns understates the {penalty} ns lost penalty",
            naive.ttft_p999_ns
        );
    }

    #[test]
    fn accounting_balances_per_class_and_fleet_wide() {
        let cmp = small_sim(7).compare();
        for arm in [&cmp.robust, &cmp.naive] {
            assert_eq!(arm.offered, arm.served + arm.shed + arm.lost);
            let by_class: u64 = arm.by_priority.iter().map(|c| c.offered).sum();
            assert_eq!(by_class, arm.offered);
            for c in &arm.by_priority {
                assert_eq!(c.offered, c.served + c.shed + c.lost);
            }
        }
        // Only the robust arm sheds, and interactive never sheds on
        // utilization alone.
        assert_eq!(cmp.naive.shed, 0);
        assert_eq!(cmp.robust.by_priority[0].class, "interactive");
    }
}
