//! Chrome trace-event lint: structural checks over exported timelines.
//!
//! The observability layer (`heterollm::obs`) exports span timelines
//! as Chrome trace-event JSON (`--trace-out` on the experiment
//! binaries). This module re-checks an exported file from the
//! *outside* — parsing the JSON like any trace viewer would — so a
//! regression in the exporter (or a hand-edited trace) is caught by
//! the same CI gate that checks plans and schedules:
//!
//! - [`TRACE_FORMAT`](crate::rules::TRACE_FORMAT): the document is a
//!   trace-event object; every event has a `ph`, duration/flow events
//!   carry integer `pid`/`tid`/`ts` (floating-point timestamps would
//!   break byte-stable determinism).
//! - [`SPAN_NESTING`](crate::rules::SPAN_NESTING): per `(pid, tid)`
//!   track, `B`/`E` events observe stack discipline with
//!   non-decreasing timestamps — spans are either disjoint or nested,
//!   never partially overlapping.
//! - [`SUBMIT_COMPLETE`](crate::rules::SUBMIT_COMPLETE): every `B`
//!   (submit) has a matching `E` (complete) on its track and vice
//!   versa — no kernel is left in flight at the end of the trace.
//! - [`FLOW_MATCH`](crate::rules::FLOW_MATCH): every flow id has
//!   exactly one start (`s`) and one finish (`f`), and the finish does
//!   not precede the start.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::rules;

/// One parsed duration/flow event (the fields the lint needs).
struct Event {
    index: usize,
    ph: String,
    name: String,
    pid: u64,
    tid: u64,
    ts: u64,
    id: Option<u64>,
}

/// Lint a Chrome trace-event JSON document.
///
/// `loc` labels findings (typically the file path). Returns every
/// finding; an unparseable document yields a single
/// [`rules::TRACE_FORMAT`] finding.
pub fn check_trace(text: &str, loc: &str) -> Vec<Diagnostic> {
    let doc: serde_json::Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => {
            return vec![Diagnostic::new(
                rules::TRACE_FORMAT,
                loc,
                format!("not valid JSON: {e}"),
            )];
        }
    };
    let Some(events) = doc.get("traceEvents").and_then(|v| v.as_array()) else {
        return vec![Diagnostic::new(
            rules::TRACE_FORMAT,
            loc,
            "document has no `traceEvents` array",
        )];
    };

    let mut findings = Vec::new();
    let mut parsed: Vec<Event> = Vec::new();
    for (index, ev) in events.iter().enumerate() {
        let Some(ph) = ev.get("ph").and_then(|v| v.as_str()) else {
            findings.push(Diagnostic::new(
                rules::TRACE_FORMAT,
                loc,
                format!("event #{index} has no `ph` phase field"),
            ));
            continue;
        };
        if ph == "M" {
            continue; // metadata rows carry no timestamp
        }
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .unwrap_or("")
            .to_string();
        let int = |key: &str| ev.get(key).and_then(|v| v.as_u64());
        let (Some(pid), Some(tid), Some(ts)) = (int("pid"), int("tid"), int("ts")) else {
            findings.push(Diagnostic::new(
                rules::TRACE_FORMAT,
                loc,
                format!(
                    "event #{index} ({ph} {name:?}) lacks integer pid/tid/ts \
                     (fractional timestamps break determinism)"
                ),
            ));
            continue;
        };
        parsed.push(Event {
            index,
            ph: ph.to_string(),
            name,
            pid,
            tid,
            ts,
            id: int("id"),
        });
    }

    // Per-track stack discipline over B/E events, in file order.
    // Each open B is (event index, name, ts).
    type OpenSpans = Vec<(usize, String, u64)>;
    let mut stacks: BTreeMap<(u64, u64), OpenSpans> = BTreeMap::new();
    let mut last_ts: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for ev in &parsed {
        let track = (ev.pid, ev.tid);
        if ev.ph != "B" && ev.ph != "E" {
            continue;
        }
        let prev = last_ts.entry(track).or_insert(ev.ts);
        if ev.ts < *prev {
            findings.push(Diagnostic::new(
                rules::SPAN_NESTING,
                loc,
                format!(
                    "track {track:?}: event #{} ({} {:?}) at ts {} precedes \
                     earlier event at ts {} (timestamps must be non-decreasing)",
                    ev.index, ev.ph, ev.name, ev.ts, prev
                ),
            ));
        }
        *prev = (*prev).max(ev.ts);
        let stack = stacks.entry(track).or_default();
        if ev.ph == "B" {
            stack.push((ev.index, ev.name.clone(), ev.ts));
        } else {
            match stack.pop() {
                Some((_, open_name, open_ts)) => {
                    if ev.ts < open_ts {
                        findings.push(Diagnostic::new(
                            rules::SPAN_NESTING,
                            loc,
                            format!(
                                "track {track:?}: span {open_name:?} completes at ts {} \
                                 before its submit at ts {open_ts}",
                                ev.ts
                            ),
                        ));
                    }
                }
                None => {
                    findings.push(Diagnostic::new(
                        rules::SUBMIT_COMPLETE,
                        loc,
                        format!(
                            "track {track:?}: complete event #{} ({:?}) has no \
                             matching submit",
                            ev.index, ev.name
                        ),
                    ));
                }
            }
        }
    }
    for (track, stack) in &stacks {
        for (index, name, ts) in stack {
            findings.push(Diagnostic::new(
                rules::SUBMIT_COMPLETE,
                loc,
                format!(
                    "track {track:?}: submit event #{index} ({name:?} at ts {ts}) \
                     never completes"
                ),
            ));
        }
    }

    // Flow events: each id pairs one start with one finish, in order.
    let mut flows: BTreeMap<u64, (usize, usize, Option<u64>, Option<u64>)> = BTreeMap::new();
    for ev in &parsed {
        if ev.ph != "s" && ev.ph != "f" {
            continue;
        }
        let Some(id) = ev.id else {
            findings.push(Diagnostic::new(
                rules::FLOW_MATCH,
                loc,
                format!("flow event #{} ({:?}) has no integer id", ev.index, ev.name),
            ));
            continue;
        };
        let entry = flows.entry(id).or_insert((0, 0, None, None));
        if ev.ph == "s" {
            entry.0 += 1;
            entry.2 = Some(ev.ts);
        } else {
            entry.1 += 1;
            entry.3 = Some(ev.ts);
        }
    }
    for (id, (starts, finishes, s_ts, f_ts)) in &flows {
        if *starts != 1 || *finishes != 1 {
            findings.push(Diagnostic::new(
                rules::FLOW_MATCH,
                loc,
                format!("flow id {id}: {starts} start(s) and {finishes} finish(es), expected 1+1"),
            ));
            continue;
        }
        if let (Some(s), Some(f)) = (s_ts, f_ts) {
            if f < s {
                findings.push(Diagnostic::new(
                    rules::FLOW_MATCH,
                    loc,
                    format!("flow id {id}: finish at ts {f} precedes start at ts {s}"),
                ));
            }
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(findings: &[Diagnostic]) -> Vec<&str> {
        findings.iter().map(|d| d.rule_id.as_str()).collect()
    }

    const GOOD: &str = r#"{"displayTimeUnit":"ns","traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":1,"args":{"name":"GPU"}},
{"name":"a","cat":"kernel","ph":"B","pid":1,"tid":1,"ts":0},
{"name":"b","cat":"kernel","ph":"B","pid":1,"tid":1,"ts":10},
{"name":"b","cat":"kernel","ph":"E","pid":1,"tid":1,"ts":20},
{"name":"a","cat":"kernel","ph":"E","pid":1,"tid":1,"ts":30},
{"name":"x","cat":"sync","ph":"s","pid":1,"tid":1,"ts":20,"id":1},
{"name":"x","cat":"sync","ph":"f","bp":"e","pid":2,"tid":1,"ts":25,"id":1}
]}"#;

    #[test]
    fn well_formed_trace_is_clean() {
        assert!(check_trace(GOOD, "t").is_empty());
    }

    #[test]
    fn real_exporter_output_is_clean() {
        let mut tl = heterollm::obs::Timeline::default();
        use hetero_soc::SimTime;
        use heterollm::obs::{SpanKind, Track};
        tl.push_span(
            Track::Gpu,
            SpanKind::Kernel,
            "outer",
            SimTime::ZERO,
            SimTime::from_micros(30),
        );
        tl.push_span(
            Track::Gpu,
            SpanKind::Kernel,
            "inner",
            SimTime::from_micros(5),
            SimTime::from_micros(10),
        );
        tl.push_flow(
            "edge",
            Track::Gpu,
            SimTime::from_micros(10),
            Track::Npu,
            SimTime::from_micros(12),
        );
        let json = heterollm::obs::chrome::to_chrome_json(&tl);
        assert!(check_trace(&json, "t").is_empty(), "{json}");
    }

    #[test]
    fn garbage_is_a_format_finding() {
        let f = check_trace("not json", "t");
        assert_eq!(ids(&f), vec![rules::TRACE_FORMAT]);
        let f = check_trace(r#"{"foo": 1}"#, "t");
        assert_eq!(ids(&f), vec![rules::TRACE_FORMAT]);
    }

    #[test]
    fn fractional_timestamp_is_a_format_finding() {
        let bad = r#"{"traceEvents":[
{"name":"a","ph":"B","pid":1,"tid":1,"ts":1.5},
{"name":"a","ph":"E","pid":1,"tid":1,"ts":2}
]}"#;
        let f = check_trace(bad, "t");
        assert!(ids(&f).contains(&rules::TRACE_FORMAT), "{f:?}");
    }

    #[test]
    fn partial_overlap_is_a_nesting_finding() {
        // a: [0, 20), b: [10, 30) — E at 20 closes b (LIFO), fine; but
        // decreasing timestamps across B/E events are the giveaway.
        let bad = r#"{"traceEvents":[
{"name":"a","ph":"B","pid":1,"tid":1,"ts":0},
{"name":"b","ph":"B","pid":1,"tid":1,"ts":10},
{"name":"a","ph":"E","pid":1,"tid":1,"ts":5}
]}"#;
        let f = check_trace(bad, "t");
        assert!(ids(&f).contains(&rules::SPAN_NESTING), "{f:?}");
    }

    #[test]
    fn unmatched_events_are_submit_complete_findings() {
        let open = r#"{"traceEvents":[
{"name":"a","ph":"B","pid":1,"tid":1,"ts":0}
]}"#;
        let f = check_trace(open, "t");
        assert_eq!(ids(&f), vec![rules::SUBMIT_COMPLETE]);

        let stray = r#"{"traceEvents":[
{"name":"a","ph":"E","pid":1,"tid":1,"ts":0}
]}"#;
        let f = check_trace(stray, "t");
        assert_eq!(ids(&f), vec![rules::SUBMIT_COMPLETE]);
    }

    #[test]
    fn dangling_and_reversed_flows_are_findings() {
        let dangling = r#"{"traceEvents":[
{"name":"x","ph":"s","pid":1,"tid":1,"ts":0,"id":7}
]}"#;
        let f = check_trace(dangling, "t");
        assert_eq!(ids(&f), vec![rules::FLOW_MATCH]);

        let reversed = r#"{"traceEvents":[
{"name":"x","ph":"s","pid":1,"tid":1,"ts":10,"id":7},
{"name":"x","ph":"f","pid":2,"tid":1,"ts":5,"id":7}
]}"#;
        let f = check_trace(reversed, "t");
        assert_eq!(ids(&f), vec![rules::FLOW_MATCH]);
    }
}
