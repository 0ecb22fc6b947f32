//! Conformance of the router to its own dispatch step: in both arms,
//! every request's logged `Dispatch`/`DispatchFail`/`Retry`/
//! `Complete`/`Lost` sequence is a path that `RouterPolicy::step`
//! allows, and no retry goes out at or past the request's deadline.
//!
//! The walk checks, per request:
//!
//! - attempts rise by one, and each dispatch goes out when the last
//!   retry's backoff ends;
//! - a `Retry` appears only where the step grants one, so only while
//!   dispatch budget remains;
//! - no `Dispatch` with `attempt > 0` at or past the deadline, and no
//!   unroutable round either (checked against the clock, not through
//!   the router's gate);
//! - a `Lost` comes only after the last attempt the budget allows or
//!   once the next attempt would start at or past the deadline.

use std::collections::BTreeMap;

use hetero_fleet::{
    AttemptOutcome, DispatchStep, FleetConfig, FleetEvent, FleetEventLog, FleetSim, RouterPolicy,
};
use hetero_soc::SimTime;

/// Requests per world: the `fleet_sweep` default.
const REQUESTS: usize = 3000;

/// What the walk saw over every log, so the test cannot pass vacuously.
#[derive(Debug, Default)]
struct Seen {
    retries: u64,
    unroutable: u64,
    lost_at_gate: u64,
    lost_at_budget: u64,
}

fn request_of(ev: &FleetEvent) -> Option<u64> {
    match *ev {
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

/// Walk one request's events (in logical order) through the step.
fn walk(req: u64, evs: &[&FleetEvent], policy: RouterPolicy, deadline_ns: u64, seen: &mut Seen) {
    let FleetEvent::Offered { at: arrival, .. } = *evs[0] else {
        panic!("request {req} does not start with Offered: {:?}", evs[0]);
    };
    let deadline = arrival + SimTime::from_nanos(deadline_ns);
    let mut attempt = 0u32;
    // The current attempt: `None` until it goes out, then whether it
    // failed.
    let mut sent: Option<bool> = None;
    // When the current attempt meets the deadline gate.
    let mut gate_at = arrival;
    let mut resolved = false;
    for ev in &evs[1..] {
        assert!(!resolved, "request {req}: {ev:?} after its resolution");
        match **ev {
            FleetEvent::Shed { .. } => {
                assert_eq!(
                    (attempt, sent),
                    (0, None),
                    "request {req}: shed after admission"
                );
                resolved = true;
            }
            FleetEvent::Dispatch { at, attempt: a, .. } => {
                assert_eq!(a, attempt, "request {req}: dispatch skips an attempt");
                assert_eq!(sent, None, "request {req}: attempt {a} dispatched twice");
                assert_eq!(at, gate_at, "request {req}: attempt {a} off its backoff");
                assert!(
                    a == 0 || at < deadline,
                    "request {req}: retry {a} dispatched at {at:?}, deadline {deadline:?}"
                );
                sent = Some(false);
            }
            FleetEvent::DispatchFail { attempt: a, .. } => {
                assert_eq!(a, attempt, "request {req}: failure of another attempt");
                assert_eq!(
                    sent,
                    Some(false),
                    "request {req}: attempt {a} failed unsent"
                );
                sent = Some(true);
            }
            FleetEvent::Complete { .. } => {
                assert_eq!(sent, Some(false), "request {req}: completion unsent");
                assert_eq!(
                    policy.step(attempt, AttemptOutcome::Served),
                    DispatchStep::Served
                );
                resolved = true;
            }
            FleetEvent::Retry {
                at,
                attempt: next,
                delay,
                ..
            } => {
                let outcome = match sent {
                    None => {
                        // An unroutable round: the attempt was made at
                        // `gate_at`, with nothing dispatched.
                        assert!(
                            attempt == 0 || gate_at < deadline,
                            "request {req}: retry {attempt} made at {gate_at:?}, \
                             deadline {deadline:?}"
                        );
                        AttemptOutcome::Unroutable
                    }
                    Some(true) => AttemptOutcome::Failed,
                    Some(false) => panic!("request {req}: retry while {attempt} in flight"),
                };
                assert_eq!(
                    policy.step(attempt, outcome),
                    DispatchStep::Retry { attempt: next },
                    "request {req}: retry {next} the step does not grant"
                );
                seen.retries += 1;
                seen.unroutable += u64::from(outcome == AttemptOutcome::Unroutable);
                (attempt, sent, gate_at) = (next, None, at + delay);
            }
            FleetEvent::Lost { at, .. } => {
                assert_eq!(at, deadline, "request {req}: lost off its deadline");
                let budget_spent = match sent {
                    Some(true) => policy.step(attempt, AttemptOutcome::Failed),
                    None => policy.step(attempt, AttemptOutcome::Unroutable),
                    Some(false) => panic!("request {req}: lost while {attempt} in flight"),
                } == DispatchStep::Lost;
                let gate_closed = sent.is_none() && attempt > 0 && gate_at >= deadline;
                assert!(
                    budget_spent || gate_closed,
                    "request {req}: lost at attempt {attempt} with budget and time left"
                );
                if gate_closed {
                    seen.lost_at_gate += 1;
                } else {
                    seen.lost_at_budget += 1;
                }
                resolved = true;
            }
            _ => unreachable!("request_of keeps request events only"),
        }
    }
    assert!(resolved, "request {req} never resolved");
}

fn check_log(log: &FleetEventLog, policy: RouterPolicy, seen: &mut Seen) {
    let mut by_req: BTreeMap<u64, Vec<&FleetEvent>> = BTreeMap::new();
    for ev in &log.events {
        if let Some(req) = request_of(ev) {
            by_req.entry(req).or_default().push(ev);
        }
    }
    assert_eq!(by_req.len() as u64, log.requests, "every request is logged");
    for (req, mut evs) in by_req {
        // `Lost` is stamped at the deadline, which a late failure's
        // `DispatchFail`/`Retry` can follow in time; logically it is
        // the chain's last event.
        evs.sort_by_key(|e| matches!(e, FleetEvent::Lost { .. }));
        walk(req, &evs, policy, log.deadline_ns, seen);
    }
}

#[test]
fn both_arms_follow_the_dispatch_step() {
    let (mut robust, mut naive) = (Seen::default(), Seen::default());
    // At 7 and 64 devices the robust arm recovers every request; the
    // 2-device worlds add unroutable rounds behind open breakers and a
    // chain that runs into its deadline (seed 1).
    for devices in [2, 7, 64] {
        for seed in 0..5 {
            let sim = FleetSim::new(FleetConfig::standard(seed, devices, REQUESTS));
            let (_, logs) = sim.compare_events();
            check_log(&logs.robust, RouterPolicy::Robust, &mut robust);
            check_log(&logs.naive, RouterPolicy::RoundRobin, &mut naive);
        }
    }
    // Round-robin has one attempt: every failure loses its request.
    assert_eq!((naive.retries, naive.lost_at_gate), (0, 0), "{naive:?}");
    assert!(naive.lost_at_budget > 0, "{naive:?}");
    // The robust arm exercises retries, unroutable rounds and the
    // deadline exit.
    assert!(robust.retries > 0 && robust.unroutable > 0, "{robust:?}");
    assert!(robust.lost_at_gate > 0, "{robust:?}");
}
