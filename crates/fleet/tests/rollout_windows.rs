//! The window structure of rollout logs, on the 64-device, 480-request
//! seed-42 world `json_golden` pins, for both candidates.
//!
//! A staged rollout replays the same seeded world once per window, each
//! from t = 0 with fresh devices. Its log keeps the windows apart
//! (`FleetEventLog::windows`), so nothing of one replay may leak into
//! another: every request is offered and settled in one window, and
//! every window's breakers start `Closed`. Window 0, the baseline, runs
//! no candidate, so it is the same in both candidates' logs. The
//! reports themselves are pinned byte for byte by `json_golden`'s
//! `rollout_reports.compact` line.

use std::collections::BTreeMap;

use hetero_fleet::{
    BreakerState, FleetConfig, FleetEvent, FleetEventLog, FleetSim, PolicyRevision, RolloutConfig,
    RolloutController, RolloutReport,
};

/// Both candidates' reports and logs: the regressing `npu-inversion`
/// and the improving `tuned-partition`.
fn rollouts() -> Vec<(RolloutReport, FleetEventLog)> {
    let sim = FleetSim::new(FleetConfig::standard(42, 64, 480));
    let ctl = RolloutController::new(&sim, RolloutConfig::standard());
    let profiles = sim.profiles().len();
    [
        PolicyRevision::uniform(7, "npu-inversion", profiles, 2_500_000),
        PolicyRevision::uniform(8, "tuned-partition", profiles, 930_000),
    ]
    .iter()
    .map(|candidate| ctl.run(candidate))
    .collect()
}

/// Each window's events.
fn windows(log: &FleetEventLog) -> Vec<&[FleetEvent]> {
    log.window_ranges().map(|r| &log.events[r]).collect()
}

#[test]
fn one_window_per_replay_in_canonical_order() {
    for (report, log) in rollouts() {
        assert_eq!(log.check_windows(), Ok(()), "{}", report.candidate);
        assert_eq!(log.windows.len(), 1 + report.stages.len());
        assert!(log.is_normalized(), "{}", report.candidate);
        for (k, window) in windows(&log).iter().enumerate().skip(1) {
            assert!(
                matches!(window[0], FleetEvent::RolloutStage { stage, .. } if stage as usize == k),
                "{}: window {k} opens with {:?}",
                report.candidate,
                window[0]
            );
        }
    }
}

#[test]
fn the_baseline_window_is_the_same_for_both_candidates() {
    let runs = rollouts();
    let (bad, good) = (&runs[0].1, &runs[1].1);
    assert_eq!(windows(bad)[0], windows(good)[0]);
    assert_eq!(
        runs[0].0.baseline_attainment_ppm,
        runs[1].0.baseline_attainment_ppm
    );
}

#[test]
fn every_request_is_offered_and_settled_in_one_window() {
    for (report, log) in rollouts() {
        for (k, window) in windows(&log).iter().enumerate() {
            // Per request: (offers, settlements) inside this window.
            let mut seen: BTreeMap<u64, (u32, u32)> = BTreeMap::new();
            for ev in *window {
                match *ev {
                    FleetEvent::Offered { req, .. } => seen.entry(req).or_default().0 += 1,
                    FleetEvent::Complete { req, .. }
                    | FleetEvent::Shed { req, .. }
                    | FleetEvent::Lost { req, .. } => seen.entry(req).or_default().1 += 1,
                    _ => {}
                }
            }
            assert_eq!(seen.len() as u64, report.requests, "{}", report.candidate);
            for (req, counts) in seen {
                assert_eq!(
                    counts,
                    (1, 1),
                    "{}: request {req} in window {k} (offers, settlements)",
                    report.candidate
                );
            }
        }
    }
}

#[test]
fn every_window_starts_each_breaker_closed() {
    for (report, log) in rollouts() {
        let mut trips = 0;
        for (k, window) in windows(&log).iter().enumerate() {
            // Per device: the state its last transition left it in.
            let mut state: BTreeMap<u64, BreakerState> = BTreeMap::new();
            for ev in *window {
                if let FleetEvent::Breaker {
                    device, from, to, ..
                } = *ev
                {
                    let before = state.insert(device, to).unwrap_or(BreakerState::Closed);
                    assert_eq!(
                        from, before,
                        "{}: device {device} in window {k}",
                        report.candidate
                    );
                    trips += u32::from(to == BreakerState::Open);
                }
            }
        }
        assert!(trips > 0, "{}: no breaker tripped", report.candidate);
    }
}
