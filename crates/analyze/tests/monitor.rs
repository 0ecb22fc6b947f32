//! Integration tests for the past-time-LTL fleet monitor: merge-order
//! invariance and seeded log mutations.
//!
//! The mutation tests are the monitor's "does it actually detect
//! things" evidence: each takes the *clean* robust-arm log of a seeded
//! fleet run, applies one surgical corruption, and asserts that
//! exactly the expected named spec — and no other — trips.

use hetero_analyze::{monitor_fleet_log, rules};
use hetero_fleet::{
    BreakerCause, BreakerState, FleetConfig, FleetEvent, FleetEventLog, FleetSim, PolicyRevision,
    Priority, ProfileCause, RolloutConfig, RolloutController, RouterPolicy,
};
use hetero_soc::SimTime;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::OnceLock;

fn robust_log() -> FleetEventLog {
    let sim = FleetSim::new(FleetConfig::standard(42, 48, 400));
    sim.run_events(RouterPolicy::Robust).1
}

/// One seeded windowed rollout log per candidate kind, cached: the
/// regressing NPU-inversion candidate (rolls back at 1%) and the
/// genuinely better one (promotes to 100%).
fn rollout_log(mult_ppm: u64) -> FleetEventLog {
    static BAD: OnceLock<FleetEventLog> = OnceLock::new();
    static GOOD: OnceLock<FleetEventLog> = OnceLock::new();
    let build = || {
        let sim = FleetSim::new(FleetConfig::standard(42, 48, 1000));
        let ctl = RolloutController::new(&sim, RolloutConfig::standard());
        let candidate = PolicyRevision::uniform(7, "candidate", sim.profiles().len(), mult_ppm);
        ctl.run(&candidate).1
    };
    if mult_ppm > 1_000_000 {
        BAD.get_or_init(build).clone()
    } else {
        GOOD.get_or_init(build).clone()
    }
}

fn violated_rules(log: &FleetEventLog) -> BTreeSet<String> {
    monitor_fleet_log(log)
        .findings
        .into_iter()
        .map(|d| d.rule_id)
        .collect()
}

#[test]
fn robust_arm_sweeps_clean() {
    let log = robust_log();
    let verdict = monitor_fleet_log(&log);
    assert!(verdict.findings.is_empty(), "{:?}", verdict.findings);
    assert_eq!(verdict.violations, 0);
    assert!(verdict.events > 0 && verdict.instances > 0);
}

#[test]
fn naive_arm_reproduces_known_violations() {
    let sim = FleetSim::new(FleetConfig::standard(42, 48, 400));
    let log = sim.run_events(RouterPolicy::RoundRobin).1;
    let violated = violated_rules(&log);
    assert!(violated.contains(rules::CENSUS_STALENESS), "{violated:?}");
    assert!(violated.contains(rules::BROWNOUT_UNSHED), "{violated:?}");
}

// Mutation 1: drop a device's cooldown→half-open breaker entry whose
// immediate successor (same device) is the probe-success re-close.
// The re-close then has no half-open predecessor: breaker-skip-probe.
#[test]
fn dropping_the_half_open_probe_trips_breaker_skip_probe() {
    let mut log = robust_log();
    let drop_idx = log
        .events
        .iter()
        .enumerate()
        .find_map(|(i, e)| {
            let FleetEvent::Breaker {
                device,
                cause: BreakerCause::CooldownElapsed,
                ..
            } = *e
            else {
                return None;
            };
            // Next breaker event of the same device must be the
            // probe-success re-close.
            let next = log.events[i + 1..].iter().find_map(|n| match *n {
                FleetEvent::Breaker {
                    device: d,
                    to,
                    cause,
                    ..
                } if d == device => Some((to, cause)),
                _ => None,
            });
            (next == Some((BreakerState::Closed, BreakerCause::ProbeSuccess))).then_some(i)
        })
        .expect("seed 42 has a cooldown→probe-success recovery");
    log.events.remove(drop_idx);
    assert_eq!(
        violated_rules(&log),
        BTreeSet::from([rules::BREAKER_SKIP_PROBE.to_string()])
    );
}

// Mutation 2: move an early interactive first dispatch past the
// request's lost-penalty deadline: retry-past-deadline (and nothing
// else — interactive admits are outside every other spec's atoms).
#[test]
fn moving_a_dispatch_past_the_deadline_trips_retry_past_deadline() {
    let mut log = robust_log();
    let deadline = log.deadline_ns;
    let (idx, req) = log
        .events
        .iter()
        .enumerate()
        .find_map(|(i, e)| match *e {
            FleetEvent::Dispatch {
                req,
                attempt: 0,
                priority: Priority::Interactive,
                ..
            } => Some((i, req)),
            _ => None,
        })
        .expect("an interactive request is admitted");
    let offered_at = log
        .events
        .iter()
        .find_map(|e| match *e {
            FleetEvent::Offered { at, req: r, .. } if r == req => Some(at),
            _ => None,
        })
        .expect("admitted request was offered");
    let FleetEvent::Dispatch { at, .. } = &mut log.events[idx] else {
        unreachable!()
    };
    *at = offered_at + SimTime::from_nanos(deadline) + SimTime::from_millis(1);
    assert_eq!(
        violated_rules(&log),
        BTreeSet::from([rules::RETRY_PAST_DEADLINE.to_string()])
    );
}

// Mutation 3: find a shed that is followed — with no census refresh
// in between — by a first-attempt admit of a non-interactive class,
// and flip the shed's class to interactive. A lower class now passes
// admission in the same census epoch an interactive request was shed
// in: shed-inversion. The shed event itself still satisfies
// brownout-unshed's "shed since window open", and the census ≤ one
// probe tick behind the admit keeps every freshness spec clean.
#[test]
fn flipping_a_shed_above_an_admit_trips_shed_inversion() {
    let mut log = robust_log();
    let flip_idx = log
        .events
        .iter()
        .enumerate()
        .find_map(|(i, e)| {
            if !matches!(e, FleetEvent::Shed { .. }) {
                return None;
            }
            for n in &log.events[i + 1..] {
                match n {
                    FleetEvent::CensusRefresh { .. } => return None,
                    FleetEvent::Dispatch {
                        attempt: 0,
                        priority,
                        ..
                    } if *priority != Priority::Interactive => return Some(i),
                    _ => {}
                }
            }
            None
        })
        .expect("seed 42 sheds in a census epoch that still admits a lower class");
    let FleetEvent::Shed { priority, .. } = &mut log.events[flip_idx] else {
        unreachable!()
    };
    *priority = Priority::Interactive;
    assert_eq!(
        violated_rules(&log),
        BTreeSet::from([rules::SHED_INVERSION.to_string()])
    );
}

#[test]
fn rollout_arms_sweep_clean() {
    // Both controller outputs — the stage-1 rollback and the full
    // promotion ladder — pass every spec untouched, so the mutations
    // below isolate exactly one corruption each.
    for log in [rollout_log(2_500_000), rollout_log(930_000)] {
        assert!(log.windows.len() >= 2);
        let verdict = monitor_fleet_log(&log);
        assert!(verdict.findings.is_empty(), "{:?}", verdict.findings);
    }
}

// Rollout mutation 1: drop the Rollback verdict from the regressing
// candidate's log. Its canary reverts are now orphaned — no Rollback
// ever precedes them: rollback-completeness.
#[test]
fn dropping_the_rollback_verdict_trips_rollback_completeness() {
    let mut log = rollout_log(2_500_000);
    let idx = log
        .events
        .iter()
        .position(|e| matches!(e, FleetEvent::Rollback { .. }))
        .expect("the regressing candidate rolls back");
    log.events.remove(idx);
    assert_eq!(
        violated_rules(&log),
        BTreeSet::from([rules::ROLLBACK_COMPLETENESS.to_string()])
    );
}

// Rollout mutation 2: move the good candidate's stage-2 Promote out
// of its window to the end of the window before, ahead of the 10%
// stage it claims to close. The verdict now lands inside the 1%
// window — whose own Promote already closed it — so the stage it
// claims to close was never cleanly completed: promotion-legality.
#[test]
fn reordering_promote_before_its_stage_trips_promotion_legality() {
    let mut log = rollout_log(930_000);
    let window2 = log.windows[2] as usize;
    assert!(matches!(
        log.events[window2],
        FleetEvent::RolloutStage { stage: 2, .. }
    ));
    let idx = log
        .events
        .iter()
        .position(|e| matches!(e, FleetEvent::Promote { stage: 2, .. }))
        .expect("the 10% stage is promoted");
    assert!(idx > window2, "the stage-2 verdict lies in window 2");
    let promote = log.events.remove(idx);
    log.events.insert(window2, promote);
    for offset in &mut log.windows[2..] {
        if *offset as usize <= idx {
            *offset += 1;
        }
    }
    assert_eq!(log.check_windows(), Ok(()));
    assert_eq!(
        violated_rules(&log),
        BTreeSet::from([rules::PROMOTION_LEGALITY.to_string()])
    );
}

// Rollout mutation 3: inject one extra canary apply inside the 1%
// stage. 48 devices at 1% allow ⌈48/100⌉ = 1 canary device; a second
// CanaryApply inside the stage overflows the cohort: blast-radius.
// The regressing candidate's log ends with the 1% window, so the
// pushed event lands in it.
#[test]
fn injecting_an_extra_canary_apply_trips_blast_radius() {
    let mut log = rollout_log(2_500_000);
    let (stage1_open, revision) = log
        .events
        .iter()
        .find_map(|e| match *e {
            FleetEvent::RolloutStage { at, stage: 1, .. } => Some(at),
            _ => None,
        })
        .zip(log.events.iter().find_map(|e| match *e {
            FleetEvent::ProfileUpdate {
                cause: ProfileCause::CanaryApply,
                revision,
                ..
            } => Some(revision),
            _ => None,
        }))
        .expect("the 1% stage opens and applies its canary");
    assert_eq!(log.windows.len(), 2, "the log ends with the 1% window");
    log.events.push(FleetEvent::ProfileUpdate {
        at: stage1_open + SimTime::from_nanos(1),
        device: 47,
        slowdown_ppm: 1_000_000,
        revision,
        cause: ProfileCause::CanaryApply,
    });
    assert_eq!(
        violated_rules(&log),
        BTreeSet::from([rules::BLAST_RADIUS.to_string()])
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The monitor re-normalizes into canonical content order, so the
    // verdict must be identical under ANY interleaved merge of the
    // same events — per-device shards, reversed, shuffled.
    #[test]
    fn verdict_is_invariant_under_event_merge_order(shuffle_seed in 1u64..u64::MAX) {
        let canonical = FleetSim::new(FleetConfig::standard(42, 32, 240))
            .run_events(RouterPolicy::Robust).1;
        let mut shuffled = canonical.clone();
        // Fisher–Yates over the canonical order, driven by a cheap
        // xorshift off the drawn seed.
        let mut state = shuffle_seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in (1..shuffled.events.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            shuffled.events.swap(i, j);
        }
        prop_assert_eq!(
            monitor_fleet_log(&shuffled),
            monitor_fleet_log(&canonical)
        );
    }
}
