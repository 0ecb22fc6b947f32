//! The temporal monitor on adversarial logs: bounded time per event,
//! and no panic, neither in `monitor_fleet_log` nor in
//! `analyze monitor -`.
//!
//! Each adversarial log is built from a valid robust log of a seeded
//! 64-device world:
//!
//! - every request id distinct (one per-request instance per event);
//! - every timestamp equal (the canonical order falls back to the
//!   full sort key on every comparison);
//! - reversed order (the sweep must sort a copy);
//! - the distinct-request-id log as one window, then every event again
//!   as a window of its own (fresh per-window state on every event,
//!   after a window that filled the per-request map with one key per
//!   event: a sweep that cleared its maps per window would pay their
//!   capacity on every one);
//! - 16 time-shifted copies concatenated.
//!
//! The first four are also built from the 16-copy log. Time per
//! event on the 16× log must stay within [`MAX_PER_EVENT_GROWTH`]× the
//! time per event on the 1× log, best of [`RUNS`] timings each. This
//! test is alone in its binary so no other test shares its cores
//! while it times.

use hetero_analyze::monitor_fleet_log;
use hetero_fleet::{FleetConfig, FleetEvent, FleetEventLog, FleetSim, RolloutLogSet, RouterPolicy};
use hetero_soc::SimTime;
use std::io::Write;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Copies concatenated into the large log.
const COPIES: u64 = 16;
/// Bound on (time per event at 16×) / (time per event at 1×). A linear
/// sweep reads 1; sorting a copy adds log n, about 1.4 between these
/// sizes; a sweep quadratic in the events, or linear in the instances
/// per event, reads about 16.
const MAX_PER_EVENT_GROWTH: f64 = 3.0;
/// Timings per log; the best is kept.
const RUNS: usize = 5;

/// One way to turn a valid log into an adversarial one.
type Transform = fn(&FleetEventLog) -> FleetEventLog;

/// `COPIES` copies of `log`, each shifted past the end of the previous.
fn concatenated(log: &FleetEventLog) -> FleetEventLog {
    let span = log.events.last().map_or(0, |e| e.at().as_nanos()) + 1;
    let mut out = log.clone();
    out.events = (0..COPIES)
        .flat_map(|c| {
            let delta = SimTime::from_nanos(c * span);
            log.events.iter().map(move |e| e.shifted(delta))
        })
        .collect();
    out
}

/// The same events with every request id replaced by a fresh one.
fn distinct_requests(log: &FleetEventLog) -> FleetEventLog {
    let mut out = log.clone();
    for (id, ev) in out.events.iter_mut().enumerate() {
        let id = id as u64;
        match ev {
            FleetEvent::Offered { req, .. }
            | FleetEvent::Shed { req, .. }
            | FleetEvent::Dispatch { req, .. }
            | FleetEvent::DispatchFail { req, .. }
            | FleetEvent::Retry { req, .. }
            | FleetEvent::Complete { req, .. }
            | FleetEvent::Lost { req, .. } => *req = id,
            _ => {}
        }
    }
    out
}

/// The same events, all at the last event's timestamp.
fn equal_timestamps(log: &FleetEventLog) -> FleetEventLog {
    let mut out = log.clone();
    let end = log
        .events
        .iter()
        .map(FleetEvent::at)
        .max()
        .unwrap_or(SimTime::ZERO);
    for ev in &mut out.events {
        *ev = ev.shifted(end - ev.at());
    }
    out
}

/// `log` with distinct request ids as window 0, then each of `log`'s
/// events again as a one-event window.
fn one_event_windows(log: &FleetEventLog) -> FleetEventLog {
    let mut out = distinct_requests(log);
    let len = log.events.len() as u64;
    out.events.extend_from_slice(&log.events);
    out.windows = std::iter::once(0).chain(len..2 * len).collect();
    out
}

fn reversed(log: &FleetEventLog) -> FleetEventLog {
    let mut out = log.clone();
    out.events.reverse();
    out
}

fn best_time(log: &FleetEventLog) -> Duration {
    (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(monitor_fleet_log(std::hint::black_box(log)));
            start.elapsed()
        })
        .min()
        .expect("at least one run")
}

/// `analyze monitor -` on `log` exits 0 or 1, never with a panic.
fn cli_does_not_panic(name: &str, log: &FleetEventLog) {
    let text = serde_json::to_string(&RolloutLogSet {
        runs: vec![log.clone()],
    })
    .expect("log serializes");
    let mut child = Command::new(env!("CARGO_BIN_EXE_analyze"))
        .args(["monitor", "-", "--json"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run analyze binary");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(text.as_bytes())
        .expect("write the log");
    let out = child.wait_with_output().expect("analyze exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        matches!(out.status.code(), Some(0 | 1)) && !stderr.contains("panicked"),
        "{name}: analyze monitor - exited {:?}: {stderr}",
        out.status
    );
}

#[test]
fn adversarial_logs_sweep_in_bounded_time_per_event() {
    let base = FleetSim::new(FleetConfig::standard(42, 64, 480))
        .run_events(RouterPolicy::Robust)
        .1;
    let big = concatenated(&base);
    let transforms: [(&str, Transform); 5] = [
        ("as recorded", FleetEventLog::clone),
        ("distinct request ids", distinct_requests),
        ("equal timestamps", equal_timestamps),
        ("reversed", reversed),
        ("one-event windows", one_event_windows),
    ];
    for (name, transform) in transforms {
        let (small, large) = (transform(&base), transform(&big));
        for log in [&small, &large] {
            let verdict = monitor_fleet_log(log);
            assert_eq!(verdict.events, log.events.len() as u64, "{name}");
            cli_does_not_panic(name, log);
        }
        let per_event =
            |log: &FleetEventLog| best_time(log).as_secs_f64() / log.events.len().max(1) as f64;
        let growth = per_event(&large) / per_event(&small);
        eprintln!("{name}: time per event x{growth:.2} at {COPIES}x the events");
        assert!(
            growth <= MAX_PER_EVENT_GROWTH,
            "{name}: time per event grew {growth:.2}x from {} to {} events",
            small.events.len(),
            large.events.len()
        );
    }
}
