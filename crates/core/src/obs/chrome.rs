//! Chrome trace-event JSON export.
//!
//! The output loads directly in Perfetto (`ui.perfetto.dev`) or
//! `chrome://tracing`. Encoding choices, all in service of byte
//! stability and lintability:
//!
//! - Spans are `B`/`E` *duration-event pairs* (not `X` complete
//!   events), so "every submit has a matching complete" is a real
//!   property of the artifact that `analyze timeline` can check with
//!   a per-track stack.
//! - Every `ts` is an **integer count of simulated nanoseconds**. The
//!   trace-event format nominally reads `ts` as microseconds, so one
//!   displayed microsecond equals one simulated nanosecond — a pure
//!   relabeling that keeps sub-microsecond sync costs visible and the
//!   file free of floating point.
//! - JSON is rendered by hand, one event per line, with a fixed key
//!   order — two same-seed runs produce byte-identical files (the CI
//!   `cmp` gate).
//! - One process row per [`Track`] (`process_name`/`process_sort_index`
//!   metadata), and `s`/`f` flow events with shared ids crossing
//!   tracks at sync edges.

use std::fmt::Write as _;

use super::timeline::{Span, Timeline, Track};

/// Most bytes of one span event besides its name and timestamp
/// digits: `{"name":"","cat":"control","ph":"B","ts":,"pid":1,"tid":1}`
/// and the `,\n` separator.
const SPAN_EVENT_BYTES: usize = 60;
/// Bytes of one flow event besides its name, timestamp and id digits:
/// `{"name":"","cat":"flow","ph":"f","bp":"e","ts":,"pid":1,"tid":1,"id":}`
/// and the `,\n` separator.
const FLOW_EVENT_BYTES: usize = 72;
/// Digits reserved per rendered integer in the size estimate: enough
/// for timestamps below 10¹² ns (about 17 simulated minutes). A longer
/// trace, or a name that needs escaping, only makes the buffer grow.
const INT_BYTES: usize = 12;

/// The trace document under construction: one `String`, written in
/// place event by event.
struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn with_capacity(bytes: usize) -> Self {
        let mut out = String::with_capacity(bytes);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        Self { out, first: true }
    }

    /// Open the next event: the `,\n` separator (none before the
    /// first) and `{"name":"<escaped name>"`.
    fn open(&mut self, name: &str) {
        if !std::mem::take(&mut self.first) {
            self.out.push_str(",\n");
        }
        self.out.push_str("{\"name\":\"");
        self.escaped(name);
        self.out.push('"');
    }

    /// Append `s` as the body of a JSON string literal. A name with no
    /// byte to escape (the common case) is copied as one slice; every
    /// byte that needs escaping is ASCII, so splitting at those bytes
    /// never cuts a UTF-8 sequence.
    fn escaped(&mut self, s: &str) {
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            let esc = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\t' => "\\t",
                b'\r' => "\\r",
                0..=0x1f => "",
                _ => continue,
            };
            self.out.push_str(&s[run..i]);
            if esc.is_empty() {
                let _ = write!(self.out, "\\u{b:04x}");
            } else {
                self.out.push_str(esc);
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
    }

    /// Append `n` in decimal.
    fn int(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    /// A `B` or `E` event of a span on process `pid`.
    fn span_event(&mut self, name: &str, cat: &str, ph: &str, ts: u64, pid: u32) {
        self.open(name);
        self.out.push_str(",\"cat\":\"");
        self.out.push_str(cat);
        self.out.push_str("\",\"ph\":\"");
        self.out.push_str(ph);
        self.out.push_str("\",\"ts\":");
        self.int(ts);
        self.out.push_str(",\"pid\":");
        self.int(pid.into());
        self.out.push_str(",\"tid\":1}");
    }

    /// One end of flow `id`: `ph` is the raw JSON after `"ph":` —
    /// `"s"`, or `"f"` with its binding point.
    fn flow_event(&mut self, name: &str, ph: &str, ts: u64, pid: u32, id: u64) {
        self.open(name);
        self.out.push_str(",\"cat\":\"flow\",\"ph\":");
        self.out.push_str(ph);
        self.out.push_str(",\"ts\":");
        self.int(ts);
        self.out.push_str(",\"pid\":");
        self.int(pid.into());
        self.out.push_str(",\"tid\":1,\"id\":");
        self.int(id);
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Render `tl` as a Chrome trace-event JSON document.
///
/// Metadata rows for all four tracks are always emitted (so the
/// Perfetto layout is stable across engines), followed by each
/// track's `B`/`E` span events in stack order, then flow events
/// sorted by id. Every event is written straight into one buffer
/// sized up front from the timeline.
pub fn to_chrome_json(tl: &Timeline) -> String {
    // The metadata rows, header and trailer fit in the first KiB.
    let bytes = 1024
        + tl.spans()
            .iter()
            .map(|s| 2 * (SPAN_EVENT_BYTES + INT_BYTES + s.name.len()))
            .sum::<usize>()
        + tl.flows()
            .iter()
            .map(|f| 2 * (FLOW_EVENT_BYTES + 2 * INT_BYTES + f.name.len()))
            .sum::<usize>();
    let mut w = Writer::with_capacity(bytes);

    for track in Track::ALL {
        let pid = track.pid();
        w.open("process_name");
        let _ = write!(
            w.out,
            ",\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\"args\":{{\"name\":\"{}\"}}}}",
            track.name()
        );
        w.open("process_sort_index");
        let _ = write!(
            w.out,
            ",\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\"args\":{{\"sort_index\":{pid}}}}}"
        );
    }

    // Stack-disciplined traversal: sorted parents-first; close every
    // span whose end precedes the next span's start.
    let mut stack: Vec<&Span> = Vec::new();
    for track in Track::ALL {
        let pid = track.pid();
        let end = |w: &mut Writer, s: &Span| {
            w.span_event(&s.name, s.kind.cat(), "E", s.end.as_nanos(), pid);
        };
        for span in tl.track_spans(track) {
            while let Some(top) = stack.pop_if(|top| top.end <= span.start) {
                end(&mut w, top);
            }
            w.span_event(&span.name, span.kind.cat(), "B", span.start.as_nanos(), pid);
            stack.push(span);
        }
        while let Some(top) = stack.pop() {
            end(&mut w, top);
        }
    }

    let mut flows: Vec<_> = tl.flows().iter().collect();
    flows.sort_by_key(|f| f.id);
    for f in flows {
        let (from, to) = (f.from_time.as_nanos(), f.to_time.as_nanos());
        w.flow_event(&f.name, "\"s\"", from, f.from_track.pid(), f.id);
        w.flow_event(&f.name, "\"f\",\"bp\":\"e\"", to, f.to_track.pid(), f.id);
    }

    w.finish()
}

#[cfg(test)]
mod tests {
    use super::super::timeline::{SpanKind, Timeline, Track};
    use super::*;
    use hetero_soc::SimTime;

    fn us(x: u64) -> SimTime {
        SimTime::from_micros(x)
    }

    #[test]
    fn export_parses_and_has_all_track_rows() {
        let mut tl = Timeline::new();
        tl.push_span(Track::Gpu, SpanKind::Kernel, "qkv", us(0), us(10));
        let json = to_chrome_json(&tl);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v["traceEvents"].as_array().expect("array");
        // 4 tracks × 2 metadata rows + 1 B + 1 E.
        assert_eq!(events.len(), 10);
        for name in ["GPU", "NPU", "CPU", "Controller"] {
            assert!(json.contains(&format!("\"name\":\"{name}\"")), "{name} row");
        }
    }

    #[test]
    fn nested_spans_close_children_before_parents() {
        let mut tl = Timeline::new();
        tl.push_span(Track::Cpu, SpanKind::Phase, "prefill", us(0), us(100));
        tl.push_span(Track::Cpu, SpanKind::Kernel, "inner", us(10), us(100));
        let json = to_chrome_json(&tl);
        let inner_e = json.find("\"name\":\"inner\",\"cat\":\"kernel\",\"ph\":\"E\"");
        let outer_e = json.find("\"name\":\"prefill\",\"cat\":\"phase\",\"ph\":\"E\"");
        assert!(inner_e.expect("inner E") < outer_e.expect("outer E"));
    }

    #[test]
    fn flow_events_share_ids_across_tracks() {
        let mut tl = Timeline::new();
        tl.push_span(Track::Gpu, SpanKind::Kernel, "a", us(0), us(10));
        tl.push_span(Track::Npu, SpanKind::Kernel, "b", us(10), us(20));
        tl.push_flow("sync:fast", Track::Gpu, us(10), Track::Npu, us(10));
        let json = to_chrome_json(&tl);
        assert!(json.contains("\"ph\":\"s\",\"ts\":10000,\"pid\":1,\"tid\":1,\"id\":0"));
        assert!(
            json.contains("\"ph\":\"f\",\"bp\":\"e\",\"ts\":10000,\"pid\":2,\"tid\":1,\"id\":0")
        );
    }

    #[test]
    fn timestamps_are_integer_nanoseconds() {
        let mut tl = Timeline::new();
        tl.push_span(
            Track::Gpu,
            SpanKind::Kernel,
            "a",
            SimTime::from_nanos(1),
            us(3),
        );
        let json = to_chrome_json(&tl);
        assert!(json.contains("\"ts\":1,"), "{json}");
        assert!(json.contains("\"ts\":3000,"), "{json}");
    }

    #[test]
    fn names_are_escaped() {
        let mut tl = Timeline::new();
        tl.push_span(Track::Gpu, SpanKind::Kernel, "a\"b\\c", us(0), us(1));
        let json = to_chrome_json(&tl);
        assert!(json.contains("a\\\"b\\\\c"), "{json}");
        serde_json::from_str::<serde_json::Value>(&json).expect("still valid JSON");
    }
}
