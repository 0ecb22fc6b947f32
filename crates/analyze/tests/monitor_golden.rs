//! Cross-commit golden of the temporal monitor's verdicts.
//!
//! One line per seeded event log: the events swept, the monitor
//! instances spun up, the violating positions, then every finding's
//! rule, location and message. The logs are both arms and both
//! windowed rollout logs of the 64-device, 480-request seed-42 world
//! `json_golden` pins, and of the 512-device, 3000-request seed-42
//! world the `fleet-replay` benchmark sweeps. A copy of every log
//! shuffled within each window must produce the same line, so the
//! verdict cannot depend on the order the events arrive in.
//!
//! A speed change to the monitor must leave every line in place.
//! Regenerate (only for an intended, reviewed change of a spec) with
//! `UPDATE_GOLDEN=1 cargo test -p hetero-analyze --test monitor_golden`.

use hetero_analyze::{monitor_fleet_log, MonitorVerdict};
use hetero_fleet::{
    FleetConfig, FleetEventLog, FleetSim, PolicyRevision, RolloutConfig, RolloutController,
};

/// Both arms' logs, then the regressing and the improving candidate's
/// windowed rollout logs, named.
fn world_logs(devices: usize, requests: usize) -> Vec<(&'static str, FleetEventLog)> {
    let sim = FleetSim::new(FleetConfig::standard(42, devices, requests));
    let (_, pair) = sim.compare_events();
    let ctl = RolloutController::new(&sim, RolloutConfig::standard());
    let profiles = sim.profiles().len();
    let bad = PolicyRevision::uniform(7, "npu-inversion", profiles, 2_500_000);
    let good = PolicyRevision::uniform(8, "tuned-partition", profiles, 930_000);
    vec![
        ("robust", pair.robust),
        ("round-robin", pair.naive),
        ("npu-inversion", ctl.run(&bad).1),
        ("tuned-partition", ctl.run(&good).1),
    ]
}

/// A Fisher–Yates shuffle of each window's events, driven by a fixed
/// xorshift; the windows keep their order.
fn shuffled(log: &FleetEventLog) -> FleetEventLog {
    let mut out = log.clone();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for range in log.window_ranges() {
        let window = &mut out.events[range];
        for i in (1..window.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            window.swap(i, (state % (i as u64 + 1)) as usize);
        }
    }
    out
}

fn verdict_line(name: &str, v: &MonitorVerdict) -> String {
    let mut line = format!(
        "{name} events={} instances={} violations={}",
        v.events, v.instances, v.violations
    );
    for d in &v.findings {
        line.push_str(&format!(" | {} @ {}: {}", d.rule_id, d.location, d.message));
    }
    line
}

#[test]
fn monitor_verdicts_are_golden() {
    let mut lines = String::new();
    for (world, devices, requests) in [("world64", 64, 480), ("replay_world_512", 512, 3000)] {
        for (log_name, log) in world_logs(devices, requests) {
            let name = format!("{world}/{log_name}");
            let line = verdict_line(&name, &monitor_fleet_log(&log));
            assert_eq!(
                verdict_line(&name, &monitor_fleet_log(&shuffled(&log))),
                line,
                "{name}: the verdict depends on event order"
            );
            lines.push_str(&line);
            lines.push('\n');
        }
    }

    let path = format!(
        "{}/tests/golden/monitor_verdicts.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &lines).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path).expect("golden file checked in");
    assert_eq!(
        lines, golden,
        "monitor verdicts changed; review, and regenerate with UPDATE_GOLDEN=1 only if a spec \
         changed on purpose"
    );
}
