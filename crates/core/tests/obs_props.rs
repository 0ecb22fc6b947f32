//! Property-based tests of the observability layer: for any engine,
//! model preset, prompt/decode length, and sync mechanism, an observed
//! session must yield a well-formed timeline whose export and metrics
//! keep their structural contracts, and the timeline the plan walk
//! records by repeating one decoder layer must equal the one it
//! records walking every layer; and for any timeline, run records
//! included, the streaming Chrome exporter must write the same bytes as
//! the one-string-per-event reference below and the metrics fold must
//! match a per-span reference, both read from the same timeline
//! recorded copy by copy.

use hetero_soc::sync::SyncMechanism;
use hetero_soc::SimTime;
use heterollm::obs::{chrome, FlowEdge, MetricsRegistry, Span, SpanKind, Timeline, Track};
use heterollm::{EngineKind, InferenceSession, ModelConfig};
use proptest::prelude::*;

/// Reference exporter: renders every event to its own `String` with
/// `format!`, escapes each name into a fresh `String`, and joins the
/// events at the end. Slow, but each event's bytes are spelled out in
/// one place; [`chrome::to_chrome_json`] must match it byte for byte.
mod oracle {
    use super::*;

    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Spans of one track: by start ascending, then end descending,
    /// then recording order.
    fn track_spans(spans: &[Span], track: Track) -> Vec<&Span> {
        let mut spans: Vec<(usize, &Span)> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.track == track)
            .collect();
        spans.sort_by(|(ia, a), (ib, b)| {
            a.start
                .cmp(&b.start)
                .then(b.end.cmp(&a.end))
                .then(ia.cmp(ib))
        });
        spans.into_iter().map(|(_, s)| s).collect()
    }

    pub fn to_chrome_json(tl: &Timeline) -> String {
        let spans: Vec<Span> = tl.spans().collect();
        let mut events: Vec<String> = Vec::new();

        for track in Track::ALL {
            let pid = track.pid();
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                track.name()
            ));
            events.push(format!(
                "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\
                 \"args\":{{\"sort_index\":{pid}}}}}"
            ));
        }

        for track in Track::ALL {
            let pid = track.pid();
            let mut stack: Vec<(&str, &str, u64)> = Vec::new(); // (name, cat, end)
            let emit_end = |events: &mut Vec<String>, (name, cat, end): (&str, &str, u64)| {
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"E\",\"ts\":{},\
                     \"pid\":{},\"tid\":1}}",
                    escape(name),
                    cat,
                    end,
                    pid
                ));
            };
            for span in track_spans(&spans, track) {
                while let Some(top) = stack.last() {
                    if top.2 <= span.start.as_nanos() {
                        let top = stack.pop().expect("non-empty stack");
                        emit_end(&mut events, top);
                    } else {
                        break;
                    }
                }
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"B\",\"ts\":{},\
                     \"pid\":{},\"tid\":1}}",
                    escape(&span.name),
                    span.kind.cat(),
                    span.start.as_nanos(),
                    pid
                ));
                stack.push((&span.name, span.kind.cat(), span.end.as_nanos()));
            }
            while let Some(top) = stack.pop() {
                emit_end(&mut events, top);
            }
        }

        let mut flows: Vec<FlowEdge> = tl.flows().collect();
        flows.sort_by_key(|f| f.id);
        for f in flows {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"s\",\"ts\":{},\
                 \"pid\":{},\"tid\":1,\"id\":{}}}",
                escape(&f.name),
                f.from_time.as_nanos(),
                f.from_track.pid(),
                f.id
            ));
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"ts\":{},\
                 \"pid\":{},\"tid\":1,\"id\":{}}}",
                escape(&f.name),
                f.to_time.as_nanos(),
                f.to_track.pid(),
                f.id
            ));
        }

        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

/// Characters a name is drawn from: plain ASCII, every character the
/// exporter escapes by name, other control characters (`\u00XX`),
/// DEL (not escaped), and multi-byte UTF-8.
const NAME_CHARS: [char; 18] = [
    'a', 'Z', '0', ':', ' ', '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}',
    'é', '×', '漢', '🦀',
];

fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..NAME_CHARS.len(), 0..6)
        .prop_map(|ix| ix.into_iter().map(|i| NAME_CHARS[i]).collect())
}

fn arb_track() -> impl Strategy<Value = Track> {
    (0..Track::ALL.len()).prop_map(|i| Track::ALL[i])
}

fn arb_kind() -> impl Strategy<Value = SpanKind> {
    const KINDS: [SpanKind; 5] = [
        SpanKind::Kernel,
        SpanKind::Sync,
        SpanKind::Cache,
        SpanKind::Phase,
        SpanKind::Control,
    ];
    (0..KINDS.len()).prop_map(|i| KINDS[i])
}

/// A drawn span: track, kind, name, start and length in ticks, and
/// whether a child nests inside it.
type SpanDraw = (Track, SpanKind, String, u64, u64, bool);
/// A drawn flow: name, producing track and tick, consuming track and
/// ticks later.
type FlowDraw = (String, Track, u64, Track, u64);

/// A span on a coarse clock (so equal starts and ends are common),
/// zero-length about one time in eight, optionally with a child
/// nested inside it.
fn arb_span() -> impl Strategy<Value = SpanDraw> {
    (
        arb_track(),
        arb_kind(),
        arb_name(),
        0u64..40,
        (0u64..8, 0u64..20).prop_map(|(z, len)| if z == 0 { 0 } else { len }),
        proptest::bool::ANY,
    )
}

fn arb_flow() -> impl Strategy<Value = FlowDraw> {
    (arb_name(), arb_track(), 0u64..60, arb_track(), 0u64..10)
}

/// Clock ticks are 250 ns so timestamps run to several digits.
fn t(tick: u64) -> SimTime {
    SimTime::from_nanos(tick * 250)
}

/// Record drawn spans and flows into `tl`, `origin` ticks in.
fn record(tl: &mut Timeline, origin: u64, spans: &[SpanDraw], flows: &[FlowDraw]) {
    for (track, kind, name, start, len, nest) in spans {
        let start = origin + start;
        tl.push_span(*track, *kind, name.as_str(), t(start), t(start + len));
        if *nest {
            let (s, e) = (start + len / 3, start + len - len / 3);
            tl.push_span(*track, SpanKind::Kernel, name.as_str(), t(s), t(e));
        }
    }
    for (name, from, at, to, dt) in flows {
        let at = origin + at;
        tl.push_flow(name.as_str(), *from, t(at), *to, t(at + dt));
    }
}

/// A drawn repeat: a stretch of spans and flows recorded from its
/// mark, then `times` more copies of it every `period` ticks.
#[derive(Debug, Clone)]
struct RunDraw {
    spans: Vec<SpanDraw>,
    flows: Vec<FlowDraw>,
    period: u64,
    times: u64,
}

/// A drawn stretch folded into one period, as a decoder layer's spans
/// are: zero-length spans on the period boundary are common.
fn arb_fitted_run() -> impl Strategy<Value = RunDraw> {
    let spans = proptest::collection::vec(arb_span(), 0..8);
    let flows = proptest::collection::vec(arb_flow(), 0..4);
    (spans, flows, 0u64..12, 0u64..6).prop_map(|(spans, flows, period, times)| {
        let fit = |start: u64, len: u64| {
            let start = start % (period + 1);
            (start, len.min(period - start))
        };
        let spans = spans
            .into_iter()
            .map(|(track, kind, name, start, len, nest)| {
                let (start, len) = fit(start, len);
                (track, kind, name, start, len, nest)
            })
            .collect();
        let flows = flows
            .into_iter()
            .map(|(name, from, at, to, dt)| {
                let (at, dt) = fit(at, dt);
                (name, from, at, to, dt)
            })
            .collect();
        RunDraw {
            spans,
            flows,
            period,
            times,
        }
    })
}

/// A drawn stretch whose copies may overlap one another.
fn arb_loose_run() -> impl Strategy<Value = RunDraw> {
    (
        proptest::collection::vec(arb_span(), 2..12),
        proptest::collection::vec(arb_flow(), 0..3),
        0u64..40,
        0u64..5,
    )
        .prop_map(|(spans, flows, period, times)| RunDraw {
            spans,
            flows,
            period,
            times,
        })
}

/// One drawn piece of a timeline: spans and flows recorded from the
/// piece's origin, then maybe a repeated stretch marked `lead` ticks
/// later. The next piece starts where the last copy ends, or `back`
/// ticks before it.
#[derive(Debug, Clone)]
struct Piece {
    spans: Vec<SpanDraw>,
    flows: Vec<FlowDraw>,
    run: Option<RunDraw>,
    lead: u64,
    back: u64,
}

fn arb_piece() -> impl Strategy<Value = Piece> {
    let run = prop_oneof![
        Just(None),
        arb_fitted_run().prop_map(Some),
        arb_fitted_run().prop_map(Some),
        arb_loose_run().prop_map(Some),
    ];
    (
        proptest::collection::vec(arb_span(), 0..6),
        proptest::collection::vec(arb_flow(), 0..3),
        run,
        0u64..70,
        (0u64..2, 0u64..8).prop_map(|(z, back)| z * back),
    )
        .prop_map(|(spans, flows, run, lead, back)| Piece {
            spans,
            flows,
            run,
            lead,
            back,
        })
}

/// Record `pieces` into one timeline: each repeat as a run record, or,
/// with `walk`, copy by copy (the flat timeline the runs stand for).
fn build(pieces: &[Piece], walk: bool) -> Timeline {
    let mut tl = Timeline::new();
    let mut origin = 0;
    for piece in pieces {
        record(&mut tl, origin, &piece.spans, &piece.flows);
        origin += piece.lead;
        if let Some(run) = &piece.run {
            let mark = tl.mark(t(origin));
            let copies = if walk { run.times + 1 } else { 1 };
            for k in 0..copies {
                record(&mut tl, origin + k * run.period, &run.spans, &run.flows);
            }
            if !walk {
                tl.repeat_since(mark, t(origin + run.period), run.times);
            }
            origin += (run.times + 1) * run.period;
        }
        origin = origin.saturating_sub(piece.back);
    }
    tl
}

/// A drawn timeline and the same timeline recorded copy by copy: some
/// pieces, with more pieces spliced in at a drawn base (so the run
/// records move across), and counters named like derived metrics.
fn arb_timelines() -> impl Strategy<Value = (Timeline, Timeline)> {
    (
        proptest::collection::vec(arb_piece(), 0..4),
        proptest::collection::vec(arb_piece(), 0..3),
        0u64..100_000,
        proptest::collection::vec((0usize..3, 0u64..5), 0..4),
    )
        .prop_map(|(pieces, more, base, counters)| {
            let build = |walk: bool| {
                let mut tl = build(&pieces, walk);
                let base = SimTime::from_nanos(base);
                tl.append_shifted(&build(&more, walk), SimTime::ZERO, base);
                for &(name, n) in &counters {
                    tl.count(["switches", "sync_wait_ns", "spans_gpu"][name], n);
                }
                tl
            };
            (build(false), build(true))
        })
}

/// Reference metrics derivation: one registry write per span, the
/// way [`MetricsRegistry::from_timeline`] worked before it folded each
/// name locally. It must match the registry the fold builds.
fn metrics_oracle(tl: &Timeline) -> MetricsRegistry {
    let spans: Vec<Span> = tl.spans().collect();
    let mut reg = MetricsRegistry::new();
    for (name, n) in tl.counters() {
        reg.incr(name, *n);
    }
    reg.incr("flows_total", tl.flows().count() as u64);
    for track in Track::ALL {
        let name = format!("spans_{}", track.name().to_ascii_lowercase());
        let n = spans.iter().filter(|s| s.track == track).count();
        reg.incr(&name, n as u64);
    }
    for span in &spans {
        match span.kind {
            SpanKind::Kernel => {
                let name = format!("kernel_ns_{}", span.track.name().to_ascii_lowercase());
                reg.observe(&name, span.duration());
            }
            SpanKind::Sync => {
                reg.incr("sync_wait_ns", span.duration().as_nanos());
                reg.observe("sync_ns", span.duration());
            }
            SpanKind::Cache => reg.incr("graph_compile_ns", span.duration().as_nanos()),
            SpanKind::Phase | SpanKind::Control => {}
        }
    }
    reg
}

proptest! {
    /// The metrics fold over stored spans and run records writes the
    /// same registry as the per-span reference over the timeline
    /// recorded copy by copy, zero-length sync and compile spans and
    /// counters named like a derived metric included.
    #[test]
    fn metrics_fold_matches_the_per_span_reference((tl, walked) in arb_timelines()) {
        prop_assert_eq!(tl.span_count(), walked.span_count());
        prop_assert_eq!(tl.flow_count(), walked.flow_count());
        prop_assert_eq!(MetricsRegistry::from_timeline(&tl), metrics_oracle(&walked));
    }

    /// The streaming exporter writes exactly the reference bytes for
    /// timelines with hostile names, zero-length and nested spans,
    /// equal starts and flows, repeated stretches (copies in their own
    /// periods, touching at the boundary, or overlapping) and spliced
    /// segments with re-based flow ids; the reference reads the same
    /// timeline recorded copy by copy, which the run-record timeline
    /// must equal.
    #[test]
    fn chrome_writer_matches_the_reference((tl, walked) in arb_timelines()) {
        prop_assert!(tl == walked, "run records expand to the walked timeline");
        prop_assert_eq!(tl.end_time(), walked.end_time());
        prop_assert_eq!(tl.check_well_formed(), walked.check_well_formed());
        let want = oracle::to_chrome_json(&walked);
        serde_json::from_str::<serde_json::Value>(&want).expect("reference output parses");
        prop_assert_eq!(chrome::to_chrome_json(&tl), want);
    }
}

/// Real observed sessions (every engine, both sync mechanisms) export
/// the reference bytes too.
#[test]
fn chrome_writer_matches_the_reference_on_observed_sessions() {
    for kind in EngineKind::ALL {
        for sync in [SyncMechanism::Fast, SyncMechanism::Driver] {
            let mut session =
                InferenceSession::with_sync(kind, &ModelConfig::internlm_1_8b(), sync);
            let (_, tl) = session.try_run_observed(64, 2).expect("built-in trace");
            assert_eq!(
                chrome::to_chrome_json(&tl),
                oracle::to_chrome_json(&tl),
                "{kind:?} {sync:?}"
            );
        }
    }
}

fn arb_engine() -> impl Strategy<Value = EngineKind> {
    (0..EngineKind::ALL.len()).prop_map(|i| EngineKind::ALL[i])
}

fn arb_model() -> impl Strategy<Value = ModelConfig> {
    prop_oneof![
        Just(ModelConfig::tiny()),
        Just(ModelConfig::internlm_1_8b()),
        Just(ModelConfig::llama_3b()),
    ]
}

fn arb_sync() -> impl Strategy<Value = SyncMechanism> {
    prop_oneof![Just(SyncMechanism::Fast), Just(SyncMechanism::Driver)]
}

proptest! {
    // 11 engine kinds: 48 cases draw each several times.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Spans always nest per track, ends never precede starts, and the
    /// exported JSON parses with every submit matched by a complete.
    #[test]
    fn observed_sessions_are_well_formed(
        kind in arb_engine(),
        model in arb_model(),
        prompt in 1usize..220,
        decode in 0usize..5,
        sync in arb_sync(),
    ) {
        let mut session = InferenceSession::with_sync(kind, &model, sync);
        let (_, tl) = session.try_run_observed(prompt, decode).expect("built-in trace");
        prop_assert!(tl.check_well_formed().is_ok(), "{:?}", tl.check_well_formed());

        let json = chrome::to_chrome_json(&tl);
        let v: serde_json::Value = serde_json::from_str(&json).expect("trace parses");
        let events = v["traceEvents"].as_array().expect("traceEvents");

        // Per-track B/E stack discipline over the file order.
        let mut depth = std::collections::BTreeMap::new();
        let mut submits = 0i64;
        for ev in events {
            match ev["ph"].as_str().expect("ph") {
                "B" => {
                    *depth.entry(ev["pid"].as_u64().expect("pid")).or_insert(0i64) += 1;
                    submits += 1;
                }
                "E" => {
                    let d = depth.entry(ev["pid"].as_u64().expect("pid")).or_insert(0i64);
                    *d -= 1;
                    prop_assert!(*d >= 0, "complete without submit");
                    submits -= 1;
                }
                _ => {}
            }
        }
        prop_assert_eq!(submits, 0, "unmatched submits at end of trace");
    }

    /// The metrics snapshot agrees with the timeline it came from and
    /// stays all-integer for every session shape.
    #[test]
    fn metrics_agree_with_timeline(
        kind in arb_engine(),
        prompt in 1usize..220,
        decode in 0usize..5,
    ) {
        let mut session = InferenceSession::new(kind, &ModelConfig::tiny());
        let (report, tl) = session.try_run_observed(prompt, decode).expect("built-in trace");

        let reg = MetricsRegistry::from_timeline(&tl);
        prop_assert_eq!(reg.counter("flows_total"), tl.flows().count() as u64);
        for track in Track::ALL {
            let name = format!("spans_{}", track.name().to_ascii_lowercase());
            let expect = tl.spans().filter(|s| s.track == track).count() as u64;
            prop_assert_eq!(reg.counter(&name), expect);
        }
        let sync_ns: u64 = tl
            .spans()
            .filter(|s| s.kind == SpanKind::Sync)
            .map(|s| s.duration().as_nanos())
            .sum();
        prop_assert_eq!(reg.counter("sync_wait_ns"), sync_ns);

        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        prop_assert!(!json.contains('.'), "all-integer snapshot: {}", json);
        // The observed report carries the same snapshot.
        prop_assert_eq!(report.metrics.as_ref(), Some(&snap));
    }
}

proptest! {
    /// An observed session records repeated decoder layers as run
    /// records of the first one's spans and flows; one that also
    /// records a concurrency log walks every layer. Both must give the
    /// same timeline, the same trace bytes and the same report.
    #[test]
    fn repeated_timelines_match_walked_ones(
        kind in arb_engine(),
        model in arb_model(),
        prompt in 1usize..1100,
        decode in 0usize..40,
        sync in arb_sync(),
    ) {
        let run = |walk_every_layer: bool| {
            let mut session = InferenceSession::with_sync(kind, &model, sync);
            if walk_every_layer {
                session.engine_mut().enable_concurrency_log();
            }
            let (report, tl) = session.try_run_observed(prompt, decode).expect("built-in trace");
            (serde_json::to_string(&report).expect("serialize"), tl)
        };
        let (report, repeated) = run(false);
        let (walked_report, walked) = run(true);
        prop_assert!(
            repeated == walked,
            "{:?} {} at {}+{}: {} spans and {} flows repeated, {} and {} walked",
            kind,
            model.name,
            prompt,
            decode,
            repeated.span_count(),
            repeated.flow_count(),
            walked.span_count(),
            walked.flow_count(),
        );
        prop_assert_eq!(chrome::to_chrome_json(&repeated), chrome::to_chrome_json(&walked));
        prop_assert_eq!(report, walked_report);
    }
}
