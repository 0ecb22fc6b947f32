//! The JSON reader on adversarial event-log text: bounded time per
//! input byte, and an `Ok` or an `Err`, never a panic.
//!
//! Each corpus is a rollout log set holding copies of one transformed
//! robust log of a seeded 64-device, 240-request world:
//!
//! - the log as written;
//! - every object's keys shuffled (the reader's declaration-order key
//!   guess misses on almost every key);
//! - pretty text padded with extra whitespace;
//! - every string's first letter escaped (keys and enum tags go
//!   through the decoding path);
//! - an unknown key in every fourth event whose value nests containers
//!   down to exactly `MAX_DEPTH`.
//!
//! Time per byte reading [`COPIES`] copies must stay within
//! [`MAX_PER_BYTE_GROWTH`]× the time per byte reading one, best of
//! [`RUNS`] timings each. One more level of nesting must be an error.
//! This test is alone in its binary so no other test shares its cores
//! while it times.

use hetero_fleet::{FleetConfig, FleetEventLog, FleetSim, RolloutLogSet, RouterPolicy};
use serde::__private::MAX_DEPTH;
use serde_json::Value;
use std::time::{Duration, Instant};

/// Copies in the large corpus.
const COPIES: usize = 16;
/// Bound on (time per byte at 16×) / (time per byte at 1×). A linear
/// reader reads about 1; one that rescans what it has read, or whose
/// key lookup grows with the input, reads about 16.
const MAX_PER_BYTE_GROWTH: f64 = 3.0;
/// Timings per corpus; the best is kept.
const RUNS: usize = 5;
/// Containers opened above an event's fields: the set, `runs`, the log,
/// `events`, the variant object and its fields.
const EVENT_BODY_DEPTH: usize = 6;

/// A step of a xorshift generator: deterministic shuffles without a
/// dependency.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// `v` with every object's keys shuffled; one-entry objects keyed by a
/// capitalised name are enum variants and keep their entry.
fn shuffled(v: &Value, state: &mut u64) -> Value {
    match v {
        Value::Seq(items) => Value::Seq(items.iter().map(|i| shuffled(i, state)).collect()),
        Value::Map(entries) => {
            let mut out: Vec<(String, Value)> = entries
                .iter()
                .map(|(k, v)| (k.clone(), shuffled(v, state)))
                .collect();
            for i in (1..out.len()).rev() {
                out.swap(i, (next(state) % (i as u64 + 1)) as usize);
            }
            Value::Map(out)
        }
        other => other.clone(),
    }
}

/// `v` with an `unknown` key in every fourth event's fields whose value
/// opens `levels` nested containers.
fn deep_unknown_keys(v: &Value, levels: usize) -> Value {
    let mut out = v.clone();
    let Value::Map(log) = &mut out else {
        panic!("a log is an object")
    };
    let Some((_, Value::Seq(events))) = log.iter_mut().find(|(k, _)| k == "events") else {
        panic!("a log has events")
    };
    let mut junk = Value::Null;
    for level in 0..levels {
        junk = if level % 2 == 0 {
            Value::Seq(vec![junk])
        } else {
            Value::Map(vec![("k".into(), junk)])
        };
    }
    for event in events.iter_mut().step_by(4) {
        if let Value::Map(wrapper) = event {
            if let Value::Map(fields) = &mut wrapper[0].1 {
                fields.insert(1, ("unknown".into(), junk.clone()));
            }
        }
    }
    out
}

/// `json` with the first letter of every string written as a `\u`
/// escape.
fn escaped(json: &str) -> String {
    let mut out = String::with_capacity(json.len() * 2);
    let (mut in_string, mut backslash, mut opened) = (false, false, false);
    for c in json.chars() {
        if opened && c.is_ascii_alphabetic() {
            out.push_str(&format!("\\u{:04x}", c as u32));
        } else {
            out.push(c);
        }
        opened = false;
        if in_string {
            in_string = backslash || c != '"';
            backslash = !backslash && c == '\\';
        } else if c == '"' {
            in_string = true;
            opened = true;
        }
    }
    out
}

/// A rollout log set text holding `copies` copies of the log text
/// `log`.
fn corpus(log: &str, copies: usize) -> String {
    format!("{{\"runs\":[{}]}}", vec![log; copies].join(","))
}

fn best_time(text: &str) -> Duration {
    (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            let read = serde_json::from_str::<RolloutLogSet>(std::hint::black_box(text));
            std::hint::black_box(read.is_ok());
            start.elapsed()
        })
        .min()
        .expect("at least one run")
}

#[test]
fn adversarial_log_text_reads_in_bounded_time_per_byte() {
    let log: FleetEventLog = FleetSim::new(FleetConfig::standard(42, 64, 240))
        .run_events(RouterPolicy::Robust)
        .1;
    let compact = serde_json::to_string(&log).expect("log serializes");
    let tree: Value = serde_json::from_str(&compact).expect("log reads as a tree");
    let pretty = serde_json::to_string_pretty(&log).expect("log serializes");
    let at_cap = MAX_DEPTH - EVENT_BODY_DEPTH;
    let corpora = [
        ("as written", compact.clone()),
        (
            "shuffled keys",
            serde_json::to_string(&shuffled(&tree, &mut 0x9E37_79B9_7F4A_7C15)).expect("renders"),
        ),
        ("whitespace padding", pretty.replace('\n', "\n \t\r\n  ")),
        ("escaped strings", escaped(&compact)),
        (
            "unknown keys nested to the depth cap",
            serde_json::to_string(&deep_unknown_keys(&tree, at_cap)).expect("renders"),
        ),
    ];
    for (name, text) in &corpora {
        let (small, large) = (corpus(text, 1), corpus(text, COPIES));
        for (copies, text) in [(1, &small), (COPIES, &large)] {
            let read = serde_json::from_str::<RolloutLogSet>(text)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(read.runs.len(), copies, "{name}");
            assert!(read.runs.iter().all(|r| *r == log), "{name}");
        }
        let per_byte = |text: &str| best_time(text).as_secs_f64() / text.len() as f64;
        let growth = per_byte(&large) / per_byte(&small);
        eprintln!(
            "{name}: {} bytes, time per byte x{growth:.2} at {COPIES}x",
            small.len()
        );
        assert!(
            growth <= MAX_PER_BYTE_GROWTH,
            "{name}: time per byte grew {growth:.2}x from {} to {} bytes",
            small.len(),
            large.len()
        );
    }

    // One level past the cap is a typed error, at either size.
    let past_cap = serde_json::to_string(&deep_unknown_keys(&tree, at_cap + 1)).expect("renders");
    for copies in [1, COPIES] {
        let err = serde_json::from_str::<RolloutLogSet>(&corpus(&past_cap, copies))
            .expect_err("nesting past the cap is refused");
        assert!(
            err.to_string().contains("recursion limit exceeded"),
            "{err}"
        );
    }
}
