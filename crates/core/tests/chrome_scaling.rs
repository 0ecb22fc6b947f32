//! The Chrome trace writer on names that are not interned: bounded
//! time per event.
//!
//! The runtime controller's control spans and the `&str` phase spans
//! each get a label of their own, so the writer's prefix cache sees a
//! new key on every such span. Time per span on [`GROWTH`]× the spans
//! must stay within [`MAX_PER_SPAN_GROWTH`]× the time per span on the
//! small timeline, best of [`RUNS`] timings each. This test is alone
//! in its binary so no other test shares its cores while it times.

use std::time::{Duration, Instant};

use hetero_soc::SimTime;
use heterollm::obs::{chrome, SpanKind, Timeline, Track};

/// Control spans in the small timeline.
const SPANS: u64 = 4096;
/// Size of the large timeline relative to the small one.
const GROWTH: u64 = 8;
/// Bound on (time per span at 8×) / (time per span at 1×). A writer
/// linear in the spans reads about 1; one that scans its cache per
/// event, with one entry per distinct label, reads about 8.
const MAX_PER_SPAN_GROWTH: f64 = 3.0;
/// Timings per timeline; the best is kept.
const RUNS: usize = 5;

/// `n` back-to-back controller spans, each given its own label the
/// way `Timeline::push_span` does for a `&str` name, half of them
/// with one shared text and half with text of their own.
fn control_spans(n: u64) -> Timeline {
    let mut tl = Timeline::new();
    for i in 0..n {
        let (start, end) = (SimTime::from_nanos(10 * i), SimTime::from_nanos(10 * i + 7));
        if i % 2 == 0 {
            tl.push_span(Track::Controller, SpanKind::Control, "replan", start, end);
        } else {
            let name = format!("fallback#{i}");
            tl.push_span(Track::Controller, SpanKind::Control, name, start, end);
        }
    }
    tl
}

fn best_time(tl: &Timeline) -> Duration {
    (0..RUNS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(chrome::to_chrome_json(std::hint::black_box(tl)));
            start.elapsed()
        })
        .min()
        .expect("at least one run")
}

#[test]
fn writer_time_per_span_is_flat_for_labels_that_are_not_interned() {
    let (small, large) = (control_spans(SPANS), control_spans(GROWTH * SPANS));
    // Every span becomes a B and an E event, after the header and
    // the eight metadata rows.
    let json = chrome::to_chrome_json(&large);
    assert_eq!(json.lines().count() as u64, 2 * GROWTH * SPANS + 8 + 2);

    let per_span = |tl: &Timeline, n: u64| best_time(tl).as_secs_f64() / n as f64;
    let (t_small, t_large) = (per_span(&small, SPANS), per_span(&large, GROWTH * SPANS));
    let growth = t_large / t_small;
    assert!(
        growth <= MAX_PER_SPAN_GROWTH,
        "time per span grew {growth:.2}x from {SPANS} to {} spans \
         ({:.0} ns -> {:.0} ns)",
        GROWTH * SPANS,
        t_small * 1e9,
        t_large * 1e9,
    );
}
