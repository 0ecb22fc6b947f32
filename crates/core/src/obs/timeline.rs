//! Span/flow timeline types and the engine-side recorder.
//!
//! A [`Timeline`] is a flat list of closed spans on per-hardware-unit
//! tracks plus flow edges across synchronization points, all stamped
//! with simulated time. Spans on one track must *nest*: two spans
//! either are disjoint or one contains the other — the invariant the
//! Chrome exporter's `B`/`E` encoding relies on and
//! `hetero-analyze`'s `timeline` lint re-checks on the exported
//! artifact.

use std::collections::BTreeMap;
use std::sync::Arc;

use hetero_soc::sync::SyncMechanism;
use hetero_soc::{Backend, KernelDesc, OpKind, SimTime};

/// A shared, immutable display label for spans and flows.
///
/// Cloning a `Label` bumps a reference count instead of copying
/// characters, so splicing per-request engine timelines into the
/// controller-wide timeline ([`Timeline::append_shifted`]) is
/// allocation-free per span, and [`TimelineRecorder`] hands the same
/// interned kernel name to every span that repeats it rather than
/// re-formatting and re-allocating per kernel launch — the dominant
/// allocation on the observed-session hot path.
///
/// It dereferences to `str`, so every read-side consumer (the Chrome
/// exporter, the swimlane renderer, assertions against `&str`
/// literals) treats it exactly like the `String` it replaced.
///
/// # Examples
///
/// ```
/// use heterollm::obs::Label;
///
/// let a = Label::from("matmul[256x4096x4096]");
/// let b = a.clone(); // O(1): shared, not copied
/// assert_eq!(a, b);
/// assert_eq!(b, "matmul[256x4096x4096]");
/// assert!(a.starts_with("matmul")); // derefs to &str
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(Arc<str>);

impl std::ops::Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Self(Arc::from(s))
    }
}

impl From<String> for Label {
    fn from(s: String) -> Self {
        Self(Arc::from(s))
    }
}

impl From<&String> for Label {
    fn from(s: &String) -> Self {
        Self(Arc::from(s.as_str()))
    }
}

impl From<&Label> for Label {
    fn from(l: &Label) -> Self {
        l.clone()
    }
}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One horizontal row of the timeline — a hardware unit or the
/// runtime controller's control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// GPU queue.
    Gpu,
    /// NPU queue.
    Npu,
    /// CPU (aux kernels, graph compiles, rendezvous bookkeeping).
    Cpu,
    /// Runtime controller (replans, fallbacks, quarantines, shedding).
    Controller,
}

impl Track {
    /// All tracks in display order.
    pub const ALL: [Track; 4] = [Track::Gpu, Track::Npu, Track::Cpu, Track::Controller];

    /// Display name (the Perfetto process row label).
    pub const fn name(self) -> &'static str {
        match self {
            Self::Gpu => "GPU",
            Self::Npu => "NPU",
            Self::Cpu => "CPU",
            Self::Controller => "Controller",
        }
    }

    /// Stable process id in the Chrome trace encoding.
    pub const fn pid(self) -> u32 {
        match self {
            Self::Gpu => 1,
            Self::Npu => 2,
            Self::Cpu => 3,
            Self::Controller => 4,
        }
    }

    /// The track a backend's kernels land on.
    pub const fn from_backend(b: Backend) -> Self {
        match b {
            Backend::Gpu => Self::Gpu,
            Backend::Npu => Self::Npu,
            Backend::Cpu => Self::Cpu,
        }
    }
}

/// What a span represents (the Chrome `cat` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// Kernel execution (submit at `start`, complete at `end`).
    Kernel,
    /// Synchronization wait: backend switch, rendezvous, queue restart.
    Sync,
    /// NPU graph compilation.
    Cache,
    /// A whole inference phase (prefill, decode) or request.
    Phase,
    /// Runtime-controller action (replan, fallback, quarantine, shed).
    Control,
}

impl SpanKind {
    /// Short lowercase category name.
    pub const fn cat(self) -> &'static str {
        match self {
            Self::Kernel => "kernel",
            Self::Sync => "sync",
            Self::Cache => "cache",
            Self::Phase => "phase",
            Self::Control => "control",
        }
    }
}

/// One closed interval on one track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Track the span occupies.
    pub track: Track,
    /// Category.
    pub kind: SpanKind,
    /// Display name (kernel op, sync mechanism, controller action).
    pub name: Label,
    /// Start, simulated nanoseconds.
    pub start: SimTime,
    /// End, simulated nanoseconds (`end >= start`).
    pub end: SimTime,
}

impl Span {
    /// Span duration.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// A flow arrow across a synchronization edge (Chrome `s` → `f`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEdge {
    /// Unique id binding the `s` and `f` events.
    pub id: u64,
    /// Display name, e.g. `sync:fast`.
    pub name: Label,
    /// Producing track.
    pub from_track: Track,
    /// Time on the producing track.
    pub from_time: SimTime,
    /// Consuming track.
    pub to_track: Track,
    /// Time on the consuming track (`to_time >= from_time`).
    pub to_time: SimTime,
}

/// A recorded session timeline: spans, flows, and named integer
/// counters (graph-cache hits, controller decisions, …) that have no
/// natural span representation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timeline {
    spans: Vec<Span>,
    flows: Vec<FlowEdge>,
    counters: BTreeMap<String, u64>,
    next_flow_id: u64,
}

impl Timeline {
    /// New, empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a closed span. `end` is clamped up to `start` so a
    /// zero-cost action still leaves a (zero-length) mark.
    pub fn push_span(
        &mut self,
        track: Track,
        kind: SpanKind,
        name: impl Into<Label>,
        start: SimTime,
        end: SimTime,
    ) {
        self.spans.push(Span {
            track,
            kind,
            name: name.into(),
            start,
            end: end.max(start),
        });
    }

    /// Record a flow edge, returning its id.
    pub fn push_flow(
        &mut self,
        name: impl Into<Label>,
        from_track: Track,
        from_time: SimTime,
        to_track: Track,
        to_time: SimTime,
    ) -> u64 {
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        self.flows.push(FlowEdge {
            id,
            name: name.into(),
            from_track,
            from_time,
            to_track,
            to_time: to_time.max(from_time),
        });
        id
    }

    /// Bump the named counter by `n`.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All flow edges, in recording order.
    pub fn flows(&self) -> &[FlowEdge] {
        &self.flows
    }

    /// Named counters, sorted by name.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.flows.is_empty() && self.counters.is_empty()
    }

    /// Latest time any span or flow touches.
    pub fn end_time(&self) -> SimTime {
        let span_max = self.spans.iter().map(|s| s.end).max();
        let flow_max = self.flows.iter().map(|f| f.to_time).max();
        span_max.max(flow_max).unwrap_or(SimTime::ZERO)
    }

    /// Merge `other` into `self`, mapping every time `t` recorded
    /// against `other`'s local clock to `local_base + (t - other_base)`.
    ///
    /// The runtime controller uses this to splice per-request engine
    /// timelines (whose SoC clocks restart at zero on every engine
    /// rebuild) into controller time, which keeps advancing across
    /// rebuilds and queue gaps. Flow ids are re-based to stay unique;
    /// counters are summed.
    pub fn append_shifted(&mut self, other: &Timeline, other_base: SimTime, local_base: SimTime) {
        let shift = |t: SimTime| local_base + t.saturating_sub(other_base);
        for s in &other.spans {
            self.spans.push(Span {
                track: s.track,
                kind: s.kind,
                name: s.name.clone(),
                start: shift(s.start),
                end: shift(s.end),
            });
        }
        let id_base = self.next_flow_id;
        for f in &other.flows {
            self.flows.push(FlowEdge {
                id: id_base + f.id,
                name: f.name.clone(),
                from_track: f.from_track,
                from_time: shift(f.from_time),
                to_track: f.to_track,
                to_time: shift(f.to_time),
            });
        }
        self.next_flow_id = id_base + other.next_flow_id;
        for (name, n) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += n;
        }
    }

    /// Spans of one track sorted for stack-disciplined traversal:
    /// by start ascending, then end *descending* (parents before
    /// children at equal starts), then recording order.
    pub(crate) fn track_spans(&self, track: Track) -> Vec<&Span> {
        let mut spans: Vec<(usize, &Span)> = self
            .spans
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

    /// Check the structural invariants the exported trace must hold:
    /// every span has `end >= start`, spans on one track nest (no
    /// partial overlap), and every flow edge moves forward in time.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for s in &self.spans {
            if s.end < s.start {
                return Err(format!("span {:?} ends before it starts", s.name));
            }
        }
        for track in Track::ALL {
            let mut stack: Vec<&Span> = Vec::new();
            for span in self.track_spans(track) {
                while let Some(top) = stack.last() {
                    if top.end <= span.start {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(top) = stack.last() {
                    if span.end > top.end {
                        return Err(format!(
                            "track {}: span {:?} [{}, {}] partially overlaps {:?} [{}, {}]",
                            track.name(),
                            span.name,
                            span.start.as_nanos(),
                            span.end.as_nanos(),
                            top.name,
                            top.start.as_nanos(),
                            top.end.as_nanos(),
                        ));
                    }
                }
                stack.push(span);
            }
        }
        for f in &self.flows {
            if f.to_time < f.from_time {
                return Err(format!("flow {:?} travels backwards in time", f.name));
            }
        }
        Ok(())
    }
}

/// Engine-side recorder: the timeline analog of
/// [`crate::trace::ConcurrencyRecorder`]. Engines call it at the same
/// hook points (serial kernels, backend switches, parallel sections)
/// with SoC-clock readings taken before and after each action.
///
/// Label memoization: a decode loop launches the *same* kernels layer
/// after layer, token after token, so the recorder interns every
/// derived name ([`Label`]) keyed by what it was derived from (matmul
/// shape, sync mechanism, compile bucket) and hands out O(1) clones —
/// the formatted string is built once per distinct name per session,
/// not once per span.
#[derive(Debug, Default)]
pub struct TimelineRecorder {
    tl: Timeline,
    matmul_labels: BTreeMap<(usize, usize, usize), Label>,
    static_labels: BTreeMap<&'static str, Label>,
    sync_labels: BTreeMap<(&'static str, &'static str), Label>,
    compile_labels: BTreeMap<usize, Label>,
}

/// Display name of a kernel, derived from its descriptor.
pub(crate) fn kernel_span_name(kernel: &KernelDesc) -> String {
    match &kernel.op {
        OpKind::Matmul { shape, .. } => format!("matmul[{}x{}x{}]", shape.m, shape.k, shape.n),
        OpKind::MemBound { label, .. } => label.name().to_string(),
        OpKind::HostCopy { .. } => "host_copy".to_string(),
    }
}

impl TimelineRecorder {
    /// New recorder with an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The interned label for a kernel descriptor.
    fn kernel_label(&mut self, kernel: &KernelDesc) -> Label {
        match &kernel.op {
            OpKind::Matmul { shape, .. } => self
                .matmul_labels
                .entry((shape.m, shape.k, shape.n))
                .or_insert_with(|| Label::from(kernel_span_name(kernel)))
                .clone(),
            OpKind::MemBound { label, .. } => Self::intern(&mut self.static_labels, label.name()),
            OpKind::HostCopy { .. } => Self::intern(&mut self.static_labels, "host_copy"),
        }
    }

    /// The interned `prefix:mechanism` label (switch/rendezvous).
    fn sync_label(&mut self, prefix: &'static str, mechanism: SyncMechanism) -> Label {
        self.sync_labels
            .entry((prefix, mechanism.name()))
            .or_insert_with(|| Label::from(format!("{prefix}:{}", mechanism.name())))
            .clone()
    }

    fn intern(map: &mut BTreeMap<&'static str, Label>, s: &'static str) -> Label {
        map.entry(s).or_insert_with(|| Label::from(s)).clone()
    }

    /// A serial kernel ran on `backend` over `[start, end]`.
    pub fn kernel(&mut self, backend: Backend, kernel: &KernelDesc, start: SimTime, end: SimTime) {
        let name = self.kernel_label(kernel);
        let track = Track::from_backend(backend);
        self.tl.push_span(track, SpanKind::Kernel, name, start, end);
    }

    /// A backend switch `from → to` paid `[start, end]` of sync cost.
    /// The wait lands on the destination track; a flow arrow crosses
    /// the sync edge.
    pub fn switch(
        &mut self,
        from: Backend,
        to: Backend,
        mechanism: SyncMechanism,
        start: SimTime,
        end: SimTime,
    ) {
        let name = self.sync_label("switch", mechanism);
        self.tl.push_span(
            Track::from_backend(to),
            SpanKind::Sync,
            name.clone(),
            start,
            end,
        );
        self.tl.push_flow(
            name,
            Track::from_backend(from),
            start,
            Track::from_backend(to),
            end,
        );
        self.tl.count("switches", 1);
    }

    /// A GPU∥NPU parallel section started at `start`; the GPU side
    /// finished at `gpu_end`, the NPU side at `npu_end`, and the
    /// rendezvous completed at `rendezvous_end`. Each side gets a
    /// kernel span; the rendezvous wait lands on the CPU track with a
    /// flow arrow from each producer.
    #[allow(clippy::too_many_arguments)]
    pub fn parallel_section(
        &mut self,
        gpu_name: &str,
        npu_name: &str,
        mechanism: SyncMechanism,
        start: SimTime,
        gpu_end: SimTime,
        npu_end: SimTime,
        rendezvous_end: SimTime,
    ) {
        self.tl
            .push_span(Track::Gpu, SpanKind::Kernel, gpu_name, start, gpu_end);
        self.tl
            .push_span(Track::Npu, SpanKind::Kernel, npu_name, start, npu_end);
        let rendezvous_start = gpu_end.max(npu_end);
        let name = self.sync_label("rendezvous", mechanism);
        self.tl.push_span(
            Track::Cpu,
            SpanKind::Sync,
            name.clone(),
            rendezvous_start,
            rendezvous_end,
        );
        self.tl.push_flow(
            name.clone(),
            Track::Gpu,
            gpu_end,
            Track::Cpu,
            rendezvous_start,
        );
        self.tl
            .push_flow(name, Track::Npu, npu_end, Track::Cpu, rendezvous_start);
        self.tl.count("parallel_sections", 1);
    }

    /// An NPU graph for sequence length `m` compiled over
    /// `[start, end]` (the CPU does the compiling).
    pub fn graph_compile(&mut self, m: usize, start: SimTime, end: SimTime) {
        let name = self
            .compile_labels
            .entry(m)
            .or_insert_with(|| Label::from(format!("graph_compile[{m}]")))
            .clone();
        self.tl
            .push_span(Track::Cpu, SpanKind::Cache, name, start, end);
    }

    /// Count a graph-cache lookup: hit (already compiled) or miss.
    pub fn graph_lookup(&mut self, hit: bool) {
        self.tl
            .count(if hit { "graph_hits" } else { "graph_misses" }, 1);
    }

    /// Bump a named counter (controller decisions, cache events).
    pub fn count(&mut self, name: &str, n: u64) {
        self.tl.count(name, n);
    }

    /// Record a controller-track action span.
    pub fn control(&mut self, name: &str, start: SimTime, end: SimTime) {
        self.tl
            .push_span(Track::Controller, SpanKind::Control, name, start, end);
    }

    /// Finish recording, yielding the timeline.
    pub fn finish(self) -> Timeline {
        self.tl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> SimTime {
        SimTime::from_micros(x)
    }

    #[test]
    fn spans_and_flows_record() {
        let mut tl = Timeline::new();
        tl.push_span(Track::Gpu, SpanKind::Kernel, "a", us(0), us(10));
        let id = tl.push_flow("sync", Track::Gpu, us(10), Track::Npu, us(12));
        tl.count("graph_hits", 2);
        assert_eq!(tl.spans().len(), 1);
        assert_eq!(tl.flows()[0].id, id);
        assert_eq!(tl.counters()["graph_hits"], 2);
        assert_eq!(tl.end_time(), us(12));
        assert!(tl.check_well_formed().is_ok());
    }

    #[test]
    fn nesting_accepts_contained_and_disjoint_spans() {
        let mut tl = Timeline::new();
        tl.push_span(Track::Cpu, SpanKind::Phase, "prefill", us(0), us(100));
        tl.push_span(Track::Cpu, SpanKind::Kernel, "a", us(0), us(40));
        tl.push_span(Track::Cpu, SpanKind::Kernel, "b", us(40), us(100));
        tl.push_span(Track::Cpu, SpanKind::Phase, "decode", us(100), us(150));
        assert!(tl.check_well_formed().is_ok());
    }

    #[test]
    fn nesting_rejects_partial_overlap() {
        let mut tl = Timeline::new();
        tl.push_span(Track::Gpu, SpanKind::Kernel, "a", us(0), us(10));
        tl.push_span(Track::Gpu, SpanKind::Kernel, "b", us(5), us(15));
        let err = tl.check_well_formed().expect_err("partial overlap");
        assert!(err.contains("partially overlaps"), "{err}");
    }

    #[test]
    fn overlap_on_different_tracks_is_fine() {
        let mut tl = Timeline::new();
        tl.push_span(Track::Gpu, SpanKind::Kernel, "a", us(0), us(10));
        tl.push_span(Track::Npu, SpanKind::Kernel, "b", us(5), us(15));
        assert!(tl.check_well_formed().is_ok());
    }

    #[test]
    fn append_shifted_rebases_times_ids_and_counters() {
        let mut seg = Timeline::new();
        seg.push_span(Track::Npu, SpanKind::Kernel, "k", us(2), us(5));
        seg.push_flow("sync", Track::Npu, us(5), Track::Gpu, us(6));
        seg.count("graph_hits", 1);

        let mut tl = Timeline::new();
        tl.push_flow("sync", Track::Gpu, us(0), Track::Npu, us(1));
        tl.count("graph_hits", 2);
        // Segment clock 2µs ↦ controller clock 100µs.
        tl.append_shifted(&seg, us(2), us(100));

        assert_eq!(tl.spans()[0].start, us(100));
        assert_eq!(tl.spans()[0].end, us(103));
        assert_eq!(tl.flows().len(), 2);
        assert_ne!(tl.flows()[0].id, tl.flows()[1].id);
        assert_eq!(tl.flows()[1].from_time, us(103));
        assert_eq!(tl.counters()["graph_hits"], 3);
        // Fresh flows after the merge stay unique.
        let id = tl.push_flow("sync", Track::Gpu, us(0), Track::Npu, us(1));
        assert!(tl.flows().iter().filter(|f| f.id == id).count() == 1);
    }

    #[test]
    fn recorder_parallel_section_produces_cross_track_flows() {
        let mut rec = TimelineRecorder::new();
        rec.parallel_section(
            "matmul[256x4096x4096]",
            "matmul[256x4096x4096]",
            SyncMechanism::Fast,
            us(0),
            us(40),
            us(55),
            us(57),
        );
        let tl = rec.finish();
        assert!(tl.check_well_formed().is_ok());
        assert_eq!(tl.flows().len(), 2);
        assert_eq!(tl.counters()["parallel_sections"], 1);
        let rendezvous = tl
            .spans()
            .iter()
            .find(|s| s.kind == SpanKind::Sync)
            .expect("rendezvous span");
        assert_eq!(rendezvous.track, Track::Cpu);
        assert_eq!(rendezvous.start, us(55));
        assert_eq!(rendezvous.end, us(57));
    }

    #[test]
    fn recorder_switch_records_wait_on_destination_track() {
        let mut rec = TimelineRecorder::new();
        rec.switch(
            Backend::Gpu,
            Backend::Npu,
            SyncMechanism::Driver,
            us(10),
            us(860),
        );
        let tl = rec.finish();
        assert_eq!(tl.spans()[0].track, Track::Npu);
        assert_eq!(tl.spans()[0].name, "switch:driver");
        assert_eq!(tl.flows()[0].from_track, Track::Gpu);
        assert_eq!(tl.counters()["switches"], 1);
    }

    #[test]
    fn kernel_names_derive_from_descriptors() {
        use hetero_tensor::shape::MatmulShape;
        let mm = KernelDesc::matmul_w4a16(MatmulShape { m: 8, k: 16, n: 32 });
        assert_eq!(kernel_span_name(&mm), "matmul[8x16x32]");
        let mb = KernelDesc::mem_bound(hetero_soc::kernel::KernelLabel::Softmax, 1, 1, 1);
        assert_eq!(kernel_span_name(&mb), "softmax");
        assert_eq!(kernel_span_name(&KernelDesc::host_copy(64)), "host_copy");
    }
}
