//! Router robustness policies: the per-attempt dispatch step and its
//! deadline gate, retry/backoff, circuit breakers, and priority-aware
//! admission control.
//!
//! All schedules are integer-nanosecond and seeded — the same seed
//! yields a byte-identical backoff schedule, which the fleet
//! determinism gate (and a proptest) pins.

use hetero_soc::SimTime;
use hetero_tensor::rng::draw;
use serde::{Deserialize, Serialize};

use crate::workload::Priority;

/// Dispatch attempts one robust-router request may use: the robust
/// arm's budget in [`RouterPolicy::step`].
///
/// Every attempt uses one, including a round in which no device was
/// routable. Most chains end earlier, at the request's deadline
/// ([`RouterPolicy::may_dispatch`]); the cap bounds a chain whose
/// backoff never reaches the deadline, and keeps each request inside
/// its private draw namespace (`MAX_DISPATCHES × SELECT_SAMPLES = 1024`
/// draws per request).
pub const MAX_DISPATCHES: u32 = 64;

/// Routing policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// Naive round-robin: no health, no retry, no shedding.
    RoundRobin,
    /// The full robustness toolkit.
    Robust,
}

/// How one dispatch attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The device served the request.
    Served,
    /// The dispatch went out and failed (crash or lost link).
    Failed,
    /// No device was routable, so nothing went out.
    Unroutable,
}

/// What the router does after one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchStep {
    /// The request is served.
    Served,
    /// Back off, then try dispatch `attempt`.
    Retry {
        /// The next attempt's zero-based index.
        attempt: u32,
    },
    /// The budget is spent: the request is lost.
    Lost,
}

impl RouterPolicy {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::Robust => "robust",
        }
    }

    /// The router's one per-attempt rule: after zero-based dispatch
    /// `attempt` ends in `outcome`, serve, retry while the dispatch
    /// budget (1 for round-robin, [`MAX_DISPATCHES`] for robust)
    /// remains, or lose the request. [`crate::FleetSim`] runs it for
    /// every attempt; `hetero_analyze::model_check` explores it
    /// exhaustively.
    pub fn step(self, attempt: u32, outcome: AttemptOutcome) -> DispatchStep {
        let budget = match self {
            RouterPolicy::RoundRobin => 1,
            RouterPolicy::Robust => MAX_DISPATCHES,
        };
        match outcome {
            AttemptOutcome::Served => DispatchStep::Served,
            _ if attempt < budget - 1 => DispatchStep::Retry {
                attempt: attempt + 1,
            },
            _ => DispatchStep::Lost,
        }
    }

    /// The deadline gate: whether dispatch `attempt` of a request due
    /// at `deadline` may still go out at `t`. The first attempt always
    /// may, a retry only before the deadline; a closed gate loses the
    /// request.
    pub fn may_dispatch(attempt: u32, t: SimTime, deadline: SimTime) -> bool {
        attempt == 0 || t < deadline
    }
}

/// Deterministic retry schedule: exponential backoff with seeded
/// jitter and a delay cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Length of the exponential schedule plus one: [`Self::delay_after`]
    /// follows it for the first `max_attempts - 1` retries. It does
    /// not bound a request's dispatches. The robust router retries
    /// until the request's deadline, up to [`MAX_DISPATCHES`], waiting
    /// `cap` (or the last scheduled delay, if jitter lifted it higher)
    /// once the schedule runs out. Zero or one leaves no schedule, so
    /// every retry waits the cap; the `retry-storm` analyzer rule
    /// rejects both.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base: SimTime,
    /// Multiplier applied per retry (must be ≥ 2 to count as
    /// backoff; the analyzer denies smaller factors).
    pub factor: u32,
    /// Upper bound on any single backoff delay (pre-jitter).
    pub cap: SimTime,
    /// Jitter span as a percentage of the capped delay; the drawn
    /// jitter is added on top.
    pub jitter_pct: u32,
    /// How long a dispatched attempt waits before the router declares
    /// it failed (crash/link-loss detection latency).
    pub timeout: SimTime,
}

impl RetryPolicy {
    /// The shipped robust-router schedule: 2 ms → 8 ms → 32 ms (×4),
    /// then the 200 ms cap for every later retry, 20% jitter, 250 ms
    /// attempt timeout.
    pub fn standard() -> Self {
        Self {
            max_attempts: 4,
            base: SimTime::from_millis(2),
            factor: 4,
            cap: SimTime::from_millis(200),
            jitter_pct: 20,
            timeout: SimTime::from_millis(250),
        }
    }

    /// Raw (pre-monotonization) delay before retry `attempt`
    /// (1-based: `attempt = 1` is the delay between the first failure
    /// and the second try).
    fn raw_backoff(&self, seed: u64, request_id: u64, attempt: u32) -> SimTime {
        let growth = u64::from(self.factor).saturating_pow(attempt.saturating_sub(1));
        let exp = self.base.as_nanos().saturating_mul(growth);
        let capped = exp.min(self.cap.as_nanos());
        let span = capped / 100 * u64::from(self.jitter_pct);
        let jitter = if span == 0 {
            0
        } else {
            draw(seed ^ request_id.rotate_left(17), u64::from(attempt)) % (span + 1)
        };
        SimTime::from_nanos(capped + jitter)
    }

    /// The delay the robust router waits after zero-based dispatch
    /// `attempt` fails or finds no routable device. While the
    /// exponential schedule lasts (`attempt + 1 < max_attempts`) it is
    /// the largest jittered delay so far, so delays never decrease even
    /// when jitter at the cap would dip. Past the schedule it is `cap`,
    /// or the last scheduled delay where jitter lifted that above the
    /// cap, so the wait never dips where the schedule meets the cap
    /// either. Deterministic in `(seed, request_id)`.
    pub fn delay_after(&self, seed: u64, request_id: u64, attempt: u32) -> SimTime {
        let retries = attempt.saturating_add(1);
        // Monotonized: the largest raw delay of the schedule up to
        // this retry.
        let scheduled = (1..=retries.min(self.max_attempts.saturating_sub(1)))
            .map(|retry| self.raw_backoff(seed, request_id, retry))
            .max();
        if retries < self.max_attempts {
            scheduled.unwrap_or(SimTime::ZERO)
        } else {
            scheduled.map_or(self.cap, |last| last.max(self.cap))
        }
    }
}

/// Circuit-breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: no dispatches until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe request may pass.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Why a breaker changed state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerCause {
    /// Consecutive failures reached the trip threshold.
    FailureThreshold,
    /// The open cooldown elapsed.
    CooldownElapsed,
    /// The half-open probe succeeded.
    ProbeSuccess,
    /// The half-open probe failed.
    ProbeFailure,
}

/// One input to the breaker state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerInput {
    /// A dispatch succeeded.
    Success,
    /// A dispatch failed.
    Failure,
    /// The open cooldown elapsed.
    Cooldown,
}

/// One typed breaker state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerTransition {
    /// When the transition happened.
    pub at: SimTime,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
    /// What drove it.
    pub cause: BreakerCause,
}

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failures before tripping open.
    pub failure_threshold: u32,
    /// How long an open breaker blocks dispatches.
    pub cooldown: SimTime,
}

impl BreakerConfig {
    /// The shipped tuning: trip after 2 consecutive failures, 500 ms
    /// cooldown.
    pub fn standard() -> Self {
        Self {
            failure_threshold: 2,
            cooldown: SimTime::from_millis(500),
        }
    }

    /// The breaker's one transition rule. From `state` with
    /// `failures` consecutive failures (counted only while closed),
    /// `input` gives the next pair, plus the cause when the state
    /// changes. [`CircuitBreaker`] runs it against its clock;
    /// `hetero_analyze::model_check` explores it exhaustively.
    pub fn step(
        &self,
        (state, failures): (BreakerState, u32),
        input: BreakerInput,
    ) -> ((BreakerState, u32), Option<BreakerCause>) {
        use BreakerState::{Closed, HalfOpen, Open};
        match (state, input) {
            (Closed, BreakerInput::Success) => ((Closed, 0), None),
            (Closed, BreakerInput::Failure) if failures + 1 >= self.failure_threshold => {
                ((Open, 0), Some(BreakerCause::FailureThreshold))
            }
            (Closed, BreakerInput::Failure) => ((Closed, failures + 1), None),
            (Open, BreakerInput::Cooldown) => ((HalfOpen, 0), Some(BreakerCause::CooldownElapsed)),
            (HalfOpen, BreakerInput::Success) => ((Closed, 0), Some(BreakerCause::ProbeSuccess)),
            (HalfOpen, BreakerInput::Failure) => ((Open, 0), Some(BreakerCause::ProbeFailure)),
            _ => ((state, failures), None),
        }
    }
}

/// Per-device circuit breaker.
///
/// The state machine only leaves [`BreakerState::Open`] through
/// [`BreakerState::HalfOpen`], and only reaches
/// [`BreakerState::Closed`] from there on a probe success — the
/// invariant the breaker proptest checks over the typed transition
/// log.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    open_until: SimTime,
    transitions: Vec<BreakerTransition>,
}

impl CircuitBreaker {
    /// New breaker in the closed state.
    pub fn new(config: BreakerConfig) -> Self {
        Self {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_until: SimTime::ZERO,
            transitions: Vec::new(),
        }
    }

    fn transition(&mut self, at: SimTime, to: BreakerState, cause: BreakerCause) {
        // The replay advances per-request chains, not one global
        // clock, so raw call times can interleave backwards across
        // requests (a completion recorded after a later chain already
        // polled this breaker). The state machine itself is serialized
        // in call order; clamp timestamps strictly monotone so the
        // emitted transition log carries that serialization and sorts
        // back into it.
        let at = match self.transitions.last() {
            Some(prev) if at <= prev.at => prev.at + SimTime::from_nanos(1),
            _ => at,
        };
        self.transitions.push(BreakerTransition {
            at,
            from: self.state,
            to,
            cause,
        });
        self.state = to;
    }

    /// Run one input through [`BreakerConfig::step`] at `now`,
    /// arming the cooldown clock whenever the breaker opens.
    fn apply(&mut self, now: SimTime, input: BreakerInput) {
        let ((to, failures), cause) = self
            .config
            .step((self.state, self.consecutive_failures), input);
        self.consecutive_failures = failures;
        if let Some(cause) = cause {
            if to == BreakerState::Open {
                self.open_until = now + self.config.cooldown;
            }
            self.transition(now, to, cause);
        }
    }

    /// Advance the timed part of the state machine: an open breaker
    /// whose cooldown has elapsed becomes half-open.
    pub fn poll(&mut self, now: SimTime) -> BreakerState {
        if now >= self.open_until {
            self.apply(now, BreakerInput::Cooldown);
        }
        self.state
    }

    /// Whether a dispatch may pass at `now` (closed, or half-open
    /// probe).
    pub fn allows(&mut self, now: SimTime) -> bool {
        self.poll(now) != BreakerState::Open
    }

    /// Record a successful dispatch outcome.
    pub fn record_success(&mut self, now: SimTime) {
        self.poll(now);
        self.apply(now, BreakerInput::Success);
    }

    /// Record a failed dispatch outcome.
    pub fn record_failure(&mut self, now: SimTime) {
        self.poll(now);
        self.apply(now, BreakerInput::Failure);
    }

    /// Current state (without advancing the clock).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Number of times the breaker tripped open.
    pub fn trips(&self) -> u64 {
        self.transitions
            .iter()
            .filter(|t| t.to == BreakerState::Open)
            .count() as u64
    }

    /// The typed transition log.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }
}

/// Priority-aware load shedding thresholds.
///
/// A request is shed at admission when the fleet's busy fraction (in
/// percent, over devices the router believes healthy) is at or above
/// its class threshold. Batch sheds first, interactive effectively
/// never (threshold above 100%).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionControl {
    /// Busy-percent shed thresholds indexed like [`Priority::ALL`].
    pub shed_busy_pct: [u32; 3],
}

impl AdmissionControl {
    /// The shipped policy: batch sheds at 70% utilization, standard
    /// at 90%, interactive only under total outage (101 = never by
    /// utilization).
    pub fn standard() -> Self {
        Self {
            shed_busy_pct: [101, 90, 70],
        }
    }

    /// Whether to shed a request of `priority` when `busy` of
    /// `healthy` believed-healthy devices are occupied.
    pub fn should_shed(&self, priority: Priority, busy: usize, healthy: usize) -> bool {
        if healthy == 0 {
            // Nothing to route to; shedding is forced regardless of
            // class (counted separately by the router).
            return true;
        }
        let pct = busy * 100 / healthy;
        pct as u32 >= self.shed_busy_pct[priority.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    /// Every delay a request can wait, one per attempt of the robust
    /// router's budget.
    fn delays(p: &RetryPolicy, seed: u64, request_id: u64) -> Vec<SimTime> {
        (0..MAX_DISPATCHES)
            .map(|attempt| p.delay_after(seed, request_id, attempt))
            .collect()
    }

    #[test]
    fn schedule_is_seed_deterministic_and_monotone() {
        let p = RetryPolicy::standard();
        let a = delays(&p, 42, 7);
        assert_eq!(a, delays(&p, 42, 7));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert_ne!(a, delays(&p, 43, 7), "different seed, different jitter");
    }

    #[test]
    fn delays_are_capped() {
        let p = RetryPolicy::standard();
        let jittered_cap = p.cap + SimTime::from_nanos(p.cap.as_nanos() / 100 * 20);
        for rid in 0..50 {
            let d = delays(&p, 9, rid);
            assert!(d.iter().all(|&x| x <= jittered_cap), "{d:?}");
            // Past the three-step schedule every retry waits the cap.
            assert!(d[3..].iter().all(|&x| x == p.cap), "{d:?}");
        }
    }

    #[test]
    fn dispatch_step_spends_the_budget() {
        use AttemptOutcome::{Failed, Served, Unroutable};
        let rr = RouterPolicy::RoundRobin;
        assert_eq!(rr.step(0, Served), DispatchStep::Served);
        assert_eq!(rr.step(0, Failed), DispatchStep::Lost);
        assert_eq!(rr.step(0, Unroutable), DispatchStep::Lost);
        let robust = RouterPolicy::Robust;
        for attempt in 0..MAX_DISPATCHES {
            assert_eq!(robust.step(attempt, Served), DispatchStep::Served);
            let expected = if attempt + 1 < MAX_DISPATCHES {
                DispatchStep::Retry {
                    attempt: attempt + 1,
                }
            } else {
                DispatchStep::Lost
            };
            assert_eq!(robust.step(attempt, Failed), expected);
            assert_eq!(robust.step(attempt, Unroutable), expected);
        }
    }

    #[test]
    fn deadline_gate_holds_retries_only() {
        let deadline = ms(10);
        assert!(RouterPolicy::may_dispatch(0, ms(20), deadline));
        assert!(RouterPolicy::may_dispatch(1, ms(9), deadline));
        assert!(!RouterPolicy::may_dispatch(1, deadline, deadline));
        assert!(!RouterPolicy::may_dispatch(5, ms(11), deadline));
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_via_half_open() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            cooldown: ms(100),
        });
        b.record_failure(ms(1));
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(ms(2));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows(ms(50)));
        // Cooldown elapses: half-open, probe allowed.
        assert!(b.allows(ms(102)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success(ms(110));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 1);
        // No Open → Closed transition anywhere in the log.
        assert!(!b
            .transitions()
            .iter()
            .any(|t| t.from == BreakerState::Open && t.to == BreakerState::Closed));
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            cooldown: ms(100),
        });
        b.record_failure(ms(1));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allows(ms(150)));
        b.record_failure(ms(160));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        let probe_fail = b
            .transitions()
            .iter()
            .find(|t| t.cause == BreakerCause::ProbeFailure)
            .expect("reopen recorded");
        assert_eq!(probe_fail.from, BreakerState::HalfOpen);
    }

    #[test]
    fn breaker_step_transition_table() {
        use BreakerCause::*;
        use BreakerInput::{Cooldown, Failure, Success};
        use BreakerState::{Closed, HalfOpen, Open};
        for threshold in 0..=3 {
            let cfg = BreakerConfig {
                failure_threshold: threshold,
                cooldown: ms(100),
            };
            let mut table = vec![
                ((Open, 0), Success, (Open, 0), None),
                ((Open, 0), Failure, (Open, 0), None),
                ((Open, 0), Cooldown, (HalfOpen, 0), Some(CooldownElapsed)),
                ((HalfOpen, 0), Success, (Closed, 0), Some(ProbeSuccess)),
                ((HalfOpen, 0), Failure, (Open, 0), Some(ProbeFailure)),
                ((HalfOpen, 0), Cooldown, (HalfOpen, 0), None),
            ];
            // A threshold of 0 trips like 1: on the first failure.
            let trip_at = threshold.max(1) - 1;
            for f in 0..=trip_at {
                table.push(((Closed, f), Success, (Closed, 0), None));
                table.push(((Closed, f), Cooldown, (Closed, f), None));
                table.push(if f == trip_at {
                    ((Closed, f), Failure, (Open, 0), Some(FailureThreshold))
                } else {
                    ((Closed, f), Failure, (Closed, f + 1), None)
                });
            }
            for (from, input, to, cause) in table {
                assert_eq!(
                    cfg.step(from, input),
                    (to, cause),
                    "threshold {threshold}: {from:?} on {input:?}"
                );
            }
        }
    }

    #[test]
    fn admission_sheds_batch_before_standard() {
        let a = AdmissionControl::standard();
        assert!(a.should_shed(Priority::Batch, 70, 100));
        assert!(!a.should_shed(Priority::Standard, 70, 100));
        assert!(a.should_shed(Priority::Standard, 90, 100));
        assert!(!a.should_shed(Priority::Interactive, 100, 100));
        assert!(a.should_shed(Priority::Interactive, 0, 0));
    }
}
