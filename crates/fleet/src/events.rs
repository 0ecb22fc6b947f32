//! Typed, seed-deterministic fleet event logs.
//!
//! [`crate::router::FleetSim::run_events`] emits one [`FleetEventLog`]
//! per replayed arm: every admission decision, dispatch, retry (with
//! its computed delay), completion, breaker transition (with cause),
//! census refresh, and fault-window boundary, all stamped with
//! integer-nanosecond [`SimTime`]s. The log is *observational* — the
//! recorded replay produces a byte-identical [`crate::ArmReport`] to
//! an unrecorded one — and is the substrate the
//! `hetero_analyze::monitor` past-time-LTL sweep certifies.
//!
//! Events are kept in **canonical order**: sorted by a content-based
//! total key ([`FleetEvent::sort_key`]) rather than emission order, so
//! any per-device interleaved merge of the same events normalizes to
//! the same byte sequence and monitor verdicts cannot depend on merge
//! order.
//!
//! A staged-rollout log is a sequence of **windows**: one replay of
//! the same seeded world per stage, each with its own clock from
//! t = 0. [`FleetEventLog::windows`] holds the offset in `events`
//! where each window starts; the canonical order holds within each
//! window, and the windows stay in replay order.

use hetero_soc::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::ops::Range;

use crate::policy::{BreakerCause, BreakerState};
use crate::workload::Priority;

/// Schema version of [`FleetEventLog`] (bumped on any field change;
/// the fleet golden test pins the serialized form). v2 added the four
/// rollout events (`RolloutStage`, `ProfileUpdate`, `Promote`,
/// `Rollback`); v3 replaced v2's rollout window span, which placed
/// the windows on one shared timeline, with the `windows` offsets.
pub const EVENT_LOG_VERSION: u32 = 3;

/// Why a device's profile estimate or policy revision changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProfileCause {
    /// Few-shot micro-benchmark at session start seeded the estimate.
    Calibration,
    /// The online EWMA crossed the re-solve drift threshold.
    Drift,
    /// The rollout controller shipped the candidate revision to a
    /// canary device.
    CanaryApply,
    /// The rollout controller reverted a canary device to the
    /// baseline revision after a failed stage.
    Rollback,
}

fn profile_cause_rank(c: ProfileCause) -> u64 {
    match c {
        ProfileCause::Calibration => 0,
        ProfileCause::Drift => 1,
        ProfileCause::CanaryApply => 2,
        ProfileCause::Rollback => 3,
    }
}

/// One observable fleet occurrence, integer-ns timestamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetEvent {
    /// A request arrived at the router.
    Offered {
        /// Arrival time.
        at: SimTime,
        /// Request id.
        req: u64,
        /// Admission-control class.
        priority: Priority,
        /// Prompt tokens to prefill.
        prompt_tokens: u64,
        /// Tokens to decode.
        decode_tokens: u64,
    },
    /// The health-probe subsystem refreshed its census (one per probe
    /// tick; `healthy` counts probe-reachable devices at the tick).
    CensusRefresh {
        /// Probe-tick time.
        at: SimTime,
        /// Probe-reachable devices at the tick.
        healthy: u64,
    },
    /// Admission control rejected the request.
    Shed {
        /// Decision time (the request's arrival).
        at: SimTime,
        /// Request id.
        req: u64,
        /// Class the shed request belonged to.
        priority: Priority,
    },
    /// The router committed attempt `attempt` of `req` to `device`.
    Dispatch {
        /// Routing-decision time.
        at: SimTime,
        /// Request id.
        req: u64,
        /// Target device index.
        device: u64,
        /// Zero-based dispatch attempt.
        attempt: u32,
        /// Class of the dispatched request.
        priority: Priority,
    },
    /// A dispatched attempt was declared failed after the attempt
    /// timeout.
    DispatchFail {
        /// Failure-declaration time (dispatch start + timeout).
        at: SimTime,
        /// Request id.
        req: u64,
        /// Device the attempt was on.
        device: u64,
        /// Zero-based attempt that failed.
        attempt: u32,
    },
    /// The router scheduled another attempt after a computed backoff
    /// delay.
    Retry {
        /// Scheduling time (the failure or give-up instant).
        at: SimTime,
        /// Request id.
        req: u64,
        /// Zero-based attempt being scheduled.
        attempt: u32,
        /// Computed backoff delay before that attempt.
        delay: SimTime,
    },
    /// A request finished serving.
    Complete {
        /// Service end time.
        at: SimTime,
        /// Request id.
        req: u64,
        /// Device that served it.
        device: u64,
        /// Time to first token.
        ttft: SimTime,
        /// Time per output token.
        tpot: SimTime,
    },
    /// A request exhausted its budget/deadline and was stranded.
    Lost {
        /// The request's lost-penalty deadline.
        at: SimTime,
        /// Request id.
        req: u64,
    },
    /// A per-device circuit breaker changed state.
    Breaker {
        /// Transition time.
        at: SimTime,
        /// Device the breaker guards.
        device: u64,
        /// State before.
        from: BreakerState,
        /// State after.
        to: BreakerState,
        /// What drove the transition.
        cause: BreakerCause,
    },
    /// A correlated fault-storm window opened.
    FaultOpen {
        /// Window start.
        at: SimTime,
        /// Storm index within the fault plan.
        storm: u32,
    },
    /// A correlated fault-storm window closed (crash + cold-start
    /// replay done).
    FaultClose {
        /// Window end.
        at: SimTime,
        /// Storm index within the fault plan.
        storm: u32,
    },
    /// A staged rollout opened a stage: the candidate revision now
    /// runs on `canary` devices (`pct`% of the fleet).
    RolloutStage {
        /// Stage open time.
        at: SimTime,
        /// One-based stage index.
        stage: u32,
        /// Fleet percentage this stage exposes.
        pct: u32,
        /// Devices in the stage's canary cohort.
        canary: u64,
    },
    /// A device's profile estimate or policy revision changed.
    ProfileUpdate {
        /// Update time.
        at: SimTime,
        /// Device the update concerns.
        device: u64,
        /// The device's current slowdown estimate, parts per million
        /// of its static calibrated profile (1_000_000 = on-profile).
        slowdown_ppm: u64,
        /// Policy revision the device runs after the update
        /// (0 = baseline).
        revision: u64,
        /// What drove the update.
        cause: ProfileCause,
    },
    /// The rollout controller judged a stage clean and promoted the
    /// candidate past it.
    Promote {
        /// Verdict time.
        at: SimTime,
        /// One-based stage the verdict covers.
        stage: u32,
    },
    /// The rollout controller judged a stage regressed and rolled the
    /// candidate back.
    Rollback {
        /// Verdict time.
        at: SimTime,
        /// One-based stage the verdict covers.
        stage: u32,
    },
}

/// The kind of a [`FleetEvent`], one per variant, declared in
/// same-timestamp order: rollout stage boundaries open their window
/// before anything inside it; window boundaries sort before the
/// observations inside the tick; completions and breaker transitions
/// (which happen *at* service end) sort before the admission/dispatch
/// activity of requests arriving at the same instant; census refreshes
/// and profile updates precede the decisions they inform; rollout
/// verdicts (`Promote`/`Rollback`) close their stage after every
/// observation inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// [`FleetEvent::RolloutStage`].
    RolloutStage,
    /// [`FleetEvent::FaultClose`].
    FaultClose,
    /// [`FleetEvent::FaultOpen`].
    FaultOpen,
    /// [`FleetEvent::Complete`].
    Complete,
    /// [`FleetEvent::Breaker`].
    Breaker,
    /// [`FleetEvent::CensusRefresh`].
    CensusRefresh,
    /// [`FleetEvent::ProfileUpdate`].
    ProfileUpdate,
    /// [`FleetEvent::Offered`].
    Offered,
    /// [`FleetEvent::Shed`].
    Shed,
    /// [`FleetEvent::Dispatch`].
    Dispatch,
    /// [`FleetEvent::DispatchFail`].
    DispatchFail,
    /// [`FleetEvent::Retry`].
    Retry,
    /// [`FleetEvent::Lost`].
    Lost,
    /// [`FleetEvent::Promote`].
    Promote,
    /// [`FleetEvent::Rollback`].
    Rollback,
}

impl EventKind {
    /// Number of kinds; `kind as usize` indexes `0..COUNT`.
    pub const COUNT: usize = EventKind::Rollback as usize + 1;

    /// The kind's stable name (used in diagnostics and bench
    /// summaries).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::RolloutStage => "rollout-stage",
            EventKind::FaultClose => "fault-close",
            EventKind::FaultOpen => "fault-open",
            EventKind::Complete => "complete",
            EventKind::Breaker => "breaker",
            EventKind::CensusRefresh => "census-refresh",
            EventKind::ProfileUpdate => "profile-update",
            EventKind::Offered => "offered",
            EventKind::Shed => "shed",
            EventKind::Dispatch => "dispatch",
            EventKind::DispatchFail => "dispatch-fail",
            EventKind::Retry => "retry",
            EventKind::Lost => "lost",
            EventKind::Promote => "promote",
            EventKind::Rollback => "rollback",
        }
    }
}

fn breaker_state_rank(s: BreakerState) -> u64 {
    match s {
        BreakerState::Closed => 0,
        BreakerState::Open => 1,
        BreakerState::HalfOpen => 2,
    }
}

fn breaker_cause_rank(c: BreakerCause) -> u64 {
    match c {
        BreakerCause::CooldownElapsed => 0,
        BreakerCause::ProbeSuccess => 1,
        BreakerCause::ProbeFailure => 2,
        BreakerCause::FailureThreshold => 3,
    }
}

impl FleetEvent {
    /// The event's timestamp.
    pub fn at(&self) -> SimTime {
        match *self {
            FleetEvent::Offered { at, .. }
            | FleetEvent::CensusRefresh { at, .. }
            | FleetEvent::Shed { at, .. }
            | FleetEvent::Dispatch { at, .. }
            | FleetEvent::DispatchFail { at, .. }
            | FleetEvent::Retry { at, .. }
            | FleetEvent::Complete { at, .. }
            | FleetEvent::Lost { at, .. }
            | FleetEvent::Breaker { at, .. }
            | FleetEvent::FaultOpen { at, .. }
            | FleetEvent::FaultClose { at, .. }
            | FleetEvent::RolloutStage { at, .. }
            | FleetEvent::ProfileUpdate { at, .. }
            | FleetEvent::Promote { at, .. }
            | FleetEvent::Rollback { at, .. } => at,
        }
    }

    /// The same event with its timestamp shifted forward by `delta`.
    /// Durations carried in fields (`ttft`, `tpot`, `delay`) are
    /// relative and stay put — only `at` moves.
    #[must_use]
    pub fn shifted(&self, delta: SimTime) -> FleetEvent {
        let mut ev = *self;
        match &mut ev {
            FleetEvent::Offered { at, .. }
            | FleetEvent::CensusRefresh { at, .. }
            | FleetEvent::Shed { at, .. }
            | FleetEvent::Dispatch { at, .. }
            | FleetEvent::DispatchFail { at, .. }
            | FleetEvent::Retry { at, .. }
            | FleetEvent::Complete { at, .. }
            | FleetEvent::Lost { at, .. }
            | FleetEvent::Breaker { at, .. }
            | FleetEvent::FaultOpen { at, .. }
            | FleetEvent::FaultClose { at, .. }
            | FleetEvent::RolloutStage { at, .. }
            | FleetEvent::ProfileUpdate { at, .. }
            | FleetEvent::Promote { at, .. }
            | FleetEvent::Rollback { at, .. } => *at += delta,
        }
        ev
    }

    /// The request the event belongs to, if any.
    pub fn req(&self) -> Option<u64> {
        match *self {
            FleetEvent::Offered { req, .. }
            | FleetEvent::Shed { req, .. }
            | FleetEvent::Dispatch { req, .. }
            | FleetEvent::DispatchFail { req, .. }
            | FleetEvent::Retry { req, .. }
            | FleetEvent::Complete { req, .. }
            | FleetEvent::Lost { req, .. } => Some(req),
            _ => None,
        }
    }

    /// The device the event concerns, if any.
    pub fn device(&self) -> Option<u64> {
        match *self {
            FleetEvent::Dispatch { device, .. }
            | FleetEvent::DispatchFail { device, .. }
            | FleetEvent::Complete { device, .. }
            | FleetEvent::Breaker { device, .. }
            | FleetEvent::ProfileUpdate { device, .. } => Some(device),
            _ => None,
        }
    }

    /// Stable kind name (used in diagnostics and bench summaries).
    pub fn kind(&self) -> &'static str {
        self.event_kind().name()
    }

    /// The event's kind, whose order is the same-timestamp order of
    /// the canonical sort.
    pub fn event_kind(&self) -> EventKind {
        match self {
            FleetEvent::RolloutStage { .. } => EventKind::RolloutStage,
            FleetEvent::FaultClose { .. } => EventKind::FaultClose,
            FleetEvent::FaultOpen { .. } => EventKind::FaultOpen,
            FleetEvent::Complete { .. } => EventKind::Complete,
            FleetEvent::Breaker { .. } => EventKind::Breaker,
            FleetEvent::CensusRefresh { .. } => EventKind::CensusRefresh,
            FleetEvent::ProfileUpdate { .. } => EventKind::ProfileUpdate,
            FleetEvent::Offered { .. } => EventKind::Offered,
            FleetEvent::Shed { .. } => EventKind::Shed,
            FleetEvent::Dispatch { .. } => EventKind::Dispatch,
            FleetEvent::DispatchFail { .. } => EventKind::DispatchFail,
            FleetEvent::Retry { .. } => EventKind::Retry,
            FleetEvent::Lost { .. } => EventKind::Lost,
            FleetEvent::Promote { .. } => EventKind::Promote,
            FleetEvent::Rollback { .. } => EventKind::Rollback,
        }
    }

    /// Content-based total ordering key: `(t_ns, kind, discriminating
    /// fields)`, kinds in [`EventKind`] order. Two events compare equal
    /// under this key only if they are field-for-field identical, so
    /// sorting by it canonicalizes any interleaved merge of the same
    /// event set.
    pub fn sort_key(&self) -> (u64, u64, u64, u64, u64, u64) {
        let t = self.at().as_nanos();
        let r = self.event_kind() as u64;
        match *self {
            FleetEvent::Offered { req, priority, .. } | FleetEvent::Shed { req, priority, .. } => {
                (t, r, req, priority.index() as u64, 0, 0)
            }
            FleetEvent::CensusRefresh { healthy, .. } => (t, r, healthy, 0, 0, 0),
            FleetEvent::Dispatch {
                req,
                device,
                attempt,
                ..
            }
            | FleetEvent::DispatchFail {
                req,
                device,
                attempt,
                ..
            } => (t, r, req, device, u64::from(attempt), 0),
            FleetEvent::Retry {
                req,
                attempt,
                delay,
                ..
            } => (t, r, req, u64::from(attempt), delay.as_nanos(), 0),
            FleetEvent::Complete {
                req, device, ttft, ..
            } => (t, r, req, device, ttft.as_nanos(), 0),
            FleetEvent::Lost { req, .. } => (t, r, req, 0, 0, 0),
            FleetEvent::Breaker {
                device,
                from,
                to,
                cause,
                ..
            } => (
                t,
                r,
                device,
                breaker_cause_rank(cause),
                breaker_state_rank(from),
                breaker_state_rank(to),
            ),
            FleetEvent::FaultOpen { storm, .. } | FleetEvent::FaultClose { storm, .. } => {
                (t, r, u64::from(storm), 0, 0, 0)
            }
            FleetEvent::RolloutStage {
                stage, pct, canary, ..
            } => (t, r, u64::from(stage), u64::from(pct), canary, 0),
            FleetEvent::ProfileUpdate {
                device,
                slowdown_ppm,
                revision,
                cause,
                ..
            } => (
                t,
                r,
                device,
                profile_cause_rank(cause),
                slowdown_ppm,
                revision,
            ),
            FleetEvent::Promote { stage, .. } | FleetEvent::Rollback { stage, .. } => {
                (t, r, u64::from(stage), 0, 0, 0)
            }
        }
    }

    /// The canonical order: that of [`Self::sort_key`], whose first
    /// field is the timestamp. Comparing timestamps first and building
    /// the full keys only on a tie gives the same comparison.
    pub fn canonical_cmp(a: &FleetEvent, b: &FleetEvent) -> Ordering {
        a.at()
            .cmp(&b.at())
            .then_with(|| a.sort_key().cmp(&b.sort_key()))
    }
}

/// One arm's typed event log plus the contract constants the temporal
/// specs are evaluated against.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetEventLog {
    /// Schema version ([`EVENT_LOG_VERSION`]).
    pub version: u32,
    /// Run seed of the replayed world.
    pub seed: u64,
    /// Routing policy name (`robust` / `round-robin`).
    pub policy: String,
    /// Fleet size.
    pub devices: u64,
    /// Requests offered.
    pub requests: u64,
    /// TTFT SLO the world was sized against, nanoseconds.
    pub slo_ttft_ns: u64,
    /// Per-request retry deadline (the 4×-SLO lost-penalty point),
    /// nanoseconds after arrival.
    pub deadline_ns: u64,
    /// Census contract: routing decisions must not act on a census
    /// older than this, nanoseconds.
    pub census_interval_ns: u64,
    /// Rollout windows: the offset in `events` where each window
    /// starts, ascending from 0. Each window is one replay of the
    /// seeded world with its own clock from t = 0 (window 0 the
    /// baseline, window `k` stage `k`). Empty on a plain arm, which
    /// disables the rollout temporal specs.
    #[serde(default)]
    pub windows: Vec<u64>,
    /// Canonically ordered events.
    pub events: Vec<FleetEvent>,
}

/// Why a log's `windows` header does not describe its events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowsError {
    /// The first window does not start at offset 0.
    FirstNotZero {
        /// The offset found.
        offset: u64,
    },
    /// An offset does not exceed the one before it.
    NotIncreasing {
        /// Index into `windows`.
        index: usize,
        /// The offset found.
        offset: u64,
        /// The offset before it.
        previous: u64,
    },
    /// An offset is not below the number of events.
    PastEnd {
        /// Index into `windows`.
        index: usize,
        /// The offset found.
        offset: u64,
        /// Events in the log.
        events: usize,
    },
    /// A log without windows carries a rollout event.
    RolloutEventWithoutWindows {
        /// Index of the event in `events`.
        index: usize,
        /// The event's kind name.
        kind: &'static str,
    },
}

impl std::fmt::Display for WindowsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WindowsError::FirstNotZero { offset } => {
                write!(f, "windows[0] is {offset}, not 0")
            }
            WindowsError::NotIncreasing {
                index,
                offset,
                previous,
            } => write!(
                f,
                "windows[{index}] = {offset} does not exceed windows[{}] = {previous}",
                index - 1
            ),
            WindowsError::PastEnd {
                index,
                offset,
                events,
            } => write!(
                f,
                "windows[{index}] = {offset} is not below the log's {events} events"
            ),
            WindowsError::RolloutEventWithoutWindows { index, kind } => write!(
                f,
                "events[{index}] is a `{kind}` rollout event, but the log has no windows"
            ),
        }
    }
}

impl std::error::Error for WindowsError {}

/// The event range of each window: one per offset in `windows`, or the
/// whole log when there are none. Offsets are read leniently, clamped
/// into the log and made non-decreasing, so any header gives ranges
/// that tile `0..len` ([`FleetEventLog::check_windows`] names what a
/// malformed header gets wrong).
fn window_ranges(windows: &[u64], len: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut start = 0;
    windows
        .iter()
        .skip(1)
        .map(move |&offset| usize::try_from(offset).map_or(len, |o| o.min(len)))
        .chain(std::iter::once(len))
        .map(move |end| {
            let range = start..end.max(start);
            start = range.end;
            range
        })
}

impl FleetEventLog {
    /// The event range of each window, in replay order: one range per
    /// offset in [`Self::windows`], or the whole log when it has none.
    /// The ranges tile `0..events.len()` for any header; a malformed
    /// one is read leniently (see [`Self::check_windows`]).
    pub fn window_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        window_ranges(&self.windows, self.events.len())
    }

    /// Check the `windows` header against the events: it starts at 0,
    /// increases strictly, stays below the event count, and is present
    /// whenever a rollout event is.
    pub fn check_windows(&self) -> Result<(), WindowsError> {
        if let Some(&offset) = self.windows.first() {
            if offset != 0 {
                return Err(WindowsError::FirstNotZero { offset });
            }
        } else if let Some(index) = self.events.iter().position(|e| {
            matches!(
                e.event_kind(),
                EventKind::RolloutStage
                    | EventKind::ProfileUpdate
                    | EventKind::Promote
                    | EventKind::Rollback
            )
        }) {
            return Err(WindowsError::RolloutEventWithoutWindows {
                index,
                kind: self.events[index].kind(),
            });
        }
        for (index, pair) in self.windows.windows(2).enumerate() {
            if pair[1] <= pair[0] {
                return Err(WindowsError::NotIncreasing {
                    index: index + 1,
                    offset: pair[1],
                    previous: pair[0],
                });
            }
        }
        match self.windows.last() {
            Some(&offset) if offset >= self.events.len() as u64 => Err(WindowsError::PastEnd {
                index: self.windows.len() - 1,
                offset,
                events: self.events.len(),
            }),
            _ => Ok(()),
        }
    }

    /// Sort each window's events into canonical content order (stable
    /// under any interleaved merge of the same event set); the windows
    /// keep their order.
    ///
    /// The order is exactly that of a stable sort by
    /// [`FleetEvent::sort_key`] ([`FleetEvent::canonical_cmp`]), and the
    /// sort stays stable and in place.
    pub fn normalize(&mut self) {
        for range in window_ranges(&self.windows, self.events.len()) {
            self.events[range].sort_by(FleetEvent::canonical_cmp);
        }
    }

    /// Whether every window is already in canonical order, checked in
    /// one linear pass. A normalized log sorts to itself, so a reader
    /// may use it as it is.
    pub fn is_normalized(&self) -> bool {
        self.window_ranges().all(|range| {
            self.events[range]
                .windows(2)
                .all(|w| FleetEvent::canonical_cmp(&w[0], &w[1]).is_le())
        })
    }
}

/// Both arms' logs from one [`crate::router::FleetSim::compare_events`]
/// replay — the on-disk shape `fleet_sweep --events-out` writes and
/// `analyze monitor FILE` reads.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetLogPair {
    /// The robust arm's log.
    pub robust: FleetEventLog,
    /// The round-robin arm's log.
    pub naive: FleetEventLog,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn plain_log(events: Vec<FleetEvent>) -> FleetEventLog {
        FleetEventLog {
            version: EVENT_LOG_VERSION,
            seed: 7,
            policy: "robust".to_string(),
            devices: 2,
            requests: 1,
            slo_ttft_ns: 5,
            deadline_ns: 20,
            census_interval_ns: 3,
            windows: Vec::new(),
            events,
        }
    }

    #[test]
    fn log_without_windows_loads_as_a_plain_arm() {
        let log = plain_log(vec![FleetEvent::Lost { at: t(1), req: 0 }]);
        let json = serde_json::to_string(&log).expect("log serializes");
        let v1 = json.replace("\"windows\":[],", "");
        assert_ne!(v1, json);
        assert_eq!(
            serde_json::from_str::<FleetEventLog>(&v1).expect("v1 log loads"),
            log
        );
    }

    #[test]
    fn normalize_sorts_each_window_and_keeps_their_order() {
        let lost = |ms, req| FleetEvent::Lost { at: t(ms), req };
        let mut log = plain_log(vec![lost(9, 0), lost(1, 1), lost(5, 2), lost(2, 3)]);
        log.windows = vec![0, 2];
        assert!(!log.is_normalized());
        log.normalize();
        assert!(log.is_normalized());
        assert_eq!(
            log.events,
            vec![lost(1, 1), lost(9, 0), lost(2, 3), lost(5, 2)]
        );
        assert_eq!(log.window_ranges().collect::<Vec<_>>(), vec![0..2, 2..4]);
    }

    #[test]
    fn malformed_windows_are_named_and_still_tile_the_log() {
        let lost = |req| FleetEvent::Lost { at: t(1), req };
        let stage = FleetEvent::Promote { at: t(1), stage: 1 };
        let cases = [
            (
                vec![1, 2],
                vec![lost(0), lost(1), lost(2)],
                "windows[0] is 1, not 0",
            ),
            (
                vec![0, 2, 2],
                vec![lost(0), lost(1), lost(2)],
                "windows[2] = 2 does not exceed windows[1] = 2",
            ),
            (
                vec![0, 3],
                vec![lost(0), lost(1), lost(2)],
                "windows[1] = 3 is not below the log's 3 events",
            ),
            (
                vec![0, u64::MAX, 1],
                vec![lost(0), lost(1)],
                "windows[2] = 1 does not exceed windows[1] = 18446744073709551615",
            ),
            (
                Vec::new(),
                vec![lost(0), stage],
                "events[1] is a `promote` rollout event, but the log has no windows",
            ),
        ];
        for (windows, events, message) in cases {
            let mut log = plain_log(events);
            log.windows = windows;
            let err = log.check_windows().expect_err(message);
            assert_eq!(err.to_string(), message);
            let ranges: Vec<_> = log.window_ranges().collect();
            assert_eq!(ranges.first().map(|r| r.start), Some(0), "{message}");
            assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
            assert_eq!(ranges.last().map(|r| r.end), Some(log.events.len()));
            log.normalize();
        }
        let mut ok = plain_log(vec![lost(0), stage]);
        ok.windows = vec![0, 1];
        assert_eq!(ok.check_windows(), Ok(()));
        assert_eq!(plain_log(Vec::new()).check_windows(), Ok(()));
    }

    #[test]
    fn sort_key_orders_ticks_canonically() {
        let census = FleetEvent::CensusRefresh {
            at: t(50),
            healthy: 4,
        };
        let dispatch = FleetEvent::Dispatch {
            at: t(50),
            req: 1,
            device: 0,
            attempt: 0,
            priority: Priority::Standard,
        };
        let close = FleetEvent::FaultClose {
            at: t(50),
            storm: 0,
        };
        let mut evs = [dispatch, census, close];
        evs.sort_by_key(FleetEvent::sort_key);
        assert_eq!(evs[0].kind(), "fault-close");
        assert_eq!(evs[1].kind(), "census-refresh");
        assert_eq!(evs[2].kind(), "dispatch");
    }

    #[test]
    fn sort_key_discriminates_identical_timestamps() {
        let a = FleetEvent::Dispatch {
            at: t(1),
            req: 3,
            device: 7,
            attempt: 0,
            priority: Priority::Batch,
        };
        let b = FleetEvent::Dispatch {
            at: t(1),
            req: 4,
            device: 7,
            attempt: 0,
            priority: Priority::Batch,
        };
        assert_ne!(a.sort_key(), b.sort_key());
        assert_eq!(a.sort_key(), a.sort_key());
    }

    #[test]
    fn rollout_events_bracket_their_stage_window() {
        let stage = FleetEvent::RolloutStage {
            at: t(100),
            stage: 1,
            pct: 1,
            canary: 3,
        };
        let apply = FleetEvent::ProfileUpdate {
            at: t(100),
            device: 2,
            slowdown_ppm: 1_000_000,
            revision: 1,
            cause: ProfileCause::CanaryApply,
        };
        let offered = FleetEvent::Offered {
            at: t(100),
            req: 0,
            priority: Priority::Interactive,
            prompt_tokens: 8,
            decode_tokens: 8,
        };
        let rollback = FleetEvent::Rollback {
            at: t(100),
            stage: 1,
        };
        let mut evs = [rollback, offered, apply, stage];
        evs.sort_by_key(FleetEvent::sort_key);
        assert_eq!(evs[0].kind(), "rollout-stage");
        assert_eq!(evs[1].kind(), "profile-update");
        assert_eq!(evs[2].kind(), "offered");
        assert_eq!(evs[3].kind(), "rollback");
        assert_eq!(apply.device(), Some(2));
        assert_eq!(apply.req(), None);
    }

    #[test]
    fn shifted_moves_timestamps_but_not_durations() {
        let ev = FleetEvent::Complete {
            at: t(5),
            req: 1,
            device: 0,
            ttft: t(2),
            tpot: t(1),
        };
        let moved = ev.shifted(SimTime::from_millis(100));
        assert_eq!(moved.at(), t(105));
        let FleetEvent::Complete { ttft, tpot, .. } = moved else {
            panic!("variant changed");
        };
        assert_eq!((ttft, tpot), (t(2), t(1)));
    }

    #[test]
    fn accessors_expose_slice_keys() {
        let ev = FleetEvent::Breaker {
            at: t(9),
            device: 5,
            from: BreakerState::Open,
            to: BreakerState::HalfOpen,
            cause: BreakerCause::CooldownElapsed,
        };
        assert_eq!(ev.device(), Some(5));
        assert_eq!(ev.req(), None);
        assert_eq!(ev.at(), t(9));
    }
}
