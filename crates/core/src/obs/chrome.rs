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

use super::timeline::{Span, SpanKind, Timeline, Track};

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
/// `"00"`, `"01"`, …, `"99"`: integers are written two digits a step.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};
/// Slots of the prefix cache, as a power of two: 256 slots hold every
/// distinct kernel, sync and phase name of a session several times
/// over.
const PREFIX_SLOT_BITS: u32 = 8;

/// What an event's prefix holds after its name: the category and the
/// phase.
#[derive(Clone, Copy)]
enum Head {
    /// `B` of a span.
    Begin(SpanKind),
    /// `E` of a span.
    End(SpanKind),
    /// `s` of a flow.
    FlowStart,
    /// `f` of a flow, bound to the enclosing slice.
    FlowFinish,
}

impl Head {
    /// A small integer naming the head; part of the cache key.
    fn index(self) -> usize {
        match self {
            Self::Begin(kind) => 2 * kind as usize,
            Self::End(kind) => 2 * kind as usize + 1,
            Self::FlowStart => 10,
            Self::FlowFinish => 11,
        }
    }

    /// The category and the phase as raw JSON.
    fn cat_ph(self) -> (&'static str, &'static str) {
        match self {
            Self::Begin(kind) => (kind.cat(), "\"B\""),
            Self::End(kind) => (kind.cat(), "\"E\""),
            Self::FlowStart => ("flow", "\"s\""),
            Self::FlowFinish => ("flow", "\"f\",\"bp\":\"e\""),
        }
    }
}

/// One rendered prefix, `,\n{"name":"…","cat":"…","ph":…,"ts":`, and
/// its key: the name's address and length and the head's index.
#[derive(Clone)]
struct Prefix {
    key: (usize, usize, usize),
    text: String,
}

impl Prefix {
    /// An empty slot: no head has index `usize::MAX`.
    const EMPTY: Self = Self {
        key: (0, 0, usize::MAX),
        text: String::new(),
    };
}

/// The trace document under construction: one `String`, written in
/// place event by event.
///
/// Span and flow events start from a direct-mapped cache of rendered
/// prefixes. Every name is borrowed from the timeline for the whole
/// export, so a name's address and length identify its bytes: the
/// interned kernel labels of a session hit the cache on every repeat,
/// and a name that is not interned (a fresh label per span) only
/// misses, at the cost of rendering its prefix once. Either way each
/// event costs O(1) cache work.
struct Writer {
    out: String,
    prefixes: Vec<Prefix>,
    /// `,"pid":<pid>,"tid":1` of each track, by `Track as usize`.
    pid_tid: [String; Track::ALL.len()],
}

impl Writer {
    fn with_capacity(bytes: usize) -> Self {
        let mut out = String::with_capacity(bytes);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        Self {
            out,
            prefixes: std::iter::repeat_n(Prefix::EMPTY, 1 << PREFIX_SLOT_BITS).collect(),
            pid_tid: Track::ALL.map(|t| format!(",\"pid\":{},\"tid\":1", t.pid())),
        }
    }

    /// Open a span or flow event up to its `ts` value: the separator,
    /// the escaped name and `head`'s category and phase, copied from
    /// the cache when this name and head rendered them before. The
    /// metadata rows always come first, so the separator is part of
    /// every cached prefix.
    fn head(&mut self, name: &str, head: Head) {
        let key = (name.as_ptr() as usize, name.len(), head.index());
        let hash = (key.0 ^ key.1.rotate_left(24) ^ key.2.rotate_left(48)) as u64;
        let slot = hash.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - PREFIX_SLOT_BITS);
        let prefix = &mut self.prefixes[slot as usize];
        if prefix.key != key {
            let (cat, ph) = head.cat_ph();
            prefix.key = key;
            prefix.text.clear();
            prefix.text.push_str(",\n{\"name\":\"");
            escape_into(&mut prefix.text, name);
            prefix.text.push_str("\",\"cat\":\"");
            prefix.text.push_str(cat);
            prefix.text.push_str("\",\"ph\":");
            prefix.text.push_str(ph);
            prefix.text.push_str(",\"ts\":");
        }
        self.out.push_str(&prefix.text);
    }

    /// Append `n` in decimal.
    fn int(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        while n >= 100 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if n >= 10 {
            let pair = n as usize * 2;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            at -= 1;
            digits[at] = b'0' + n as u8;
        }
        self.out
            .push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
    }

    /// A `B` or `E` event of a span on `track`.
    fn span_event(&mut self, name: &str, head: Head, ts: u64, track: Track) {
        self.head(name, head);
        self.int(ts);
        self.out.push_str(&self.pid_tid[track as usize]);
        self.out.push('}');
    }

    /// One end of flow `id`, on `track`.
    fn flow_event(&mut self, name: &str, head: Head, ts: u64, track: Track, id: u64) {
        self.head(name, head);
        self.int(ts);
        self.out.push_str(&self.pid_tid[track as usize]);
        self.out.push_str(",\"id\":");
        self.int(id);
        self.out.push('}');
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// Append `s` to `out` as the body of a JSON string literal. A name
/// with no byte to escape (the common case) is copied as one slice;
/// every byte that needs escaping is ASCII, so splitting at those
/// bytes never cuts a UTF-8 sequence.
fn escape_into(out: &mut String, s: &str) {
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
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
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

    for (i, track) in Track::ALL.into_iter().enumerate() {
        let (pid, sep) = (track.pid(), if i == 0 { "" } else { ",\n" });
        let _ = write!(
            w.out,
            "{sep}{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\
             \"args\":{{\"name\":\"{}\"}}}},\n\
             {{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\
             \"args\":{{\"sort_index\":{pid}}}}}",
            track.name()
        );
    }

    // Stack-disciplined traversal: sorted parents-first; close every
    // span whose end precedes the next span's start.
    let mut stack: Vec<&Span> = Vec::new();
    for track in Track::ALL {
        let end = |w: &mut Writer, s: &Span| {
            w.span_event(&s.name, Head::End(s.kind), s.end.as_nanos(), track);
        };
        for span in tl.track_spans(track) {
            while let Some(top) = stack.pop_if(|top| top.end <= span.start) {
                end(&mut w, top);
            }
            w.span_event(
                &span.name,
                Head::Begin(span.kind),
                span.start.as_nanos(),
                track,
            );
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
        w.flow_event(&f.name, Head::FlowStart, from, f.from_track, f.id);
        w.flow_event(&f.name, Head::FlowFinish, to, f.to_track, f.id);
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
