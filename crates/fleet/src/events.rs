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

use hetero_soc::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

use crate::policy::{BreakerCause, BreakerState};
use crate::workload::Priority;

/// Schema version of [`FleetEventLog`] (bumped on any field change;
/// the fleet golden test pins the serialized form). v2 added the four
/// rollout events (`RolloutStage`, `ProfileUpdate`, `Promote`,
/// `Rollback`) and the `rollout_window_ns` header field.
pub const EVENT_LOG_VERSION: u32 = 2;

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
    /// relative and stay put — only `at` moves. Used by the rollout
    /// controller to place each stage's replay window on one shared
    /// timeline.
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
        match self {
            FleetEvent::Offered { .. } => "offered",
            FleetEvent::CensusRefresh { .. } => "census-refresh",
            FleetEvent::Shed { .. } => "shed",
            FleetEvent::Dispatch { .. } => "dispatch",
            FleetEvent::DispatchFail { .. } => "dispatch-fail",
            FleetEvent::Retry { .. } => "retry",
            FleetEvent::Complete { .. } => "complete",
            FleetEvent::Lost { .. } => "lost",
            FleetEvent::Breaker { .. } => "breaker",
            FleetEvent::FaultOpen { .. } => "fault-open",
            FleetEvent::FaultClose { .. } => "fault-close",
            FleetEvent::RolloutStage { .. } => "rollout-stage",
            FleetEvent::ProfileUpdate { .. } => "profile-update",
            FleetEvent::Promote { .. } => "promote",
            FleetEvent::Rollback { .. } => "rollback",
        }
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
    /// Rollout stage window span, nanoseconds: stage `k` of a staged
    /// rollout starts at `k·span` on the shared timeline, where its
    /// requests arrive and its verdict must land before `(k+1)·span`.
    /// The window's late events (completions, drift updates) can land
    /// after `(k+1)·span`, among the next window's. Zero means the log
    /// contains no rollout (plain `fleet_sweep` arms), which disables
    /// the rollout temporal specs.
    #[serde(default)]
    pub rollout_window_ns: u64,
    /// Canonically ordered events.
    pub events: Vec<FleetEvent>,
}

impl FleetEventLog {
    /// Sort `events` into canonical content order (stable under any
    /// interleaved merge of the same event set).
    ///
    /// The order is exactly that of a stable sort by
    /// [`FleetEvent::sort_key`] ([`FleetEvent::canonical_cmp`]), and the
    /// sort stays stable and in place.
    pub fn normalize(&mut self) {
        self.events.sort_by(FleetEvent::canonical_cmp);
    }

    /// Whether `events` is already in canonical order, checked in one
    /// linear pass. A normalized log sorts to itself, so a reader may
    /// use it as it is.
    pub fn is_normalized(&self) -> bool {
        self.events
            .windows(2)
            .all(|w| FleetEvent::canonical_cmp(&w[0], &w[1]).is_le())
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

    #[test]
    fn v1_log_without_rollout_window_loads_with_zero_window() {
        let log = FleetEventLog {
            version: 1,
            seed: 7,
            policy: "robust".to_string(),
            devices: 2,
            requests: 1,
            slo_ttft_ns: 5,
            deadline_ns: 20,
            census_interval_ns: 3,
            rollout_window_ns: 0,
            events: vec![FleetEvent::Lost { at: t(1), req: 0 }],
        };
        let json = serde_json::to_string(&log).expect("log serializes");
        let v1 = json.replace("\"rollout_window_ns\":0,", "");
        assert_ne!(v1, json);
        assert_eq!(
            serde_json::from_str::<FleetEventLog>(&v1).expect("v1 log loads"),
            log
        );
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
