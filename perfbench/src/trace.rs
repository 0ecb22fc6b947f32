//! Layer spans recorded from the benchmark's own code, plus the
//! allocation counter behind the per-layer `allocs_*` metrics.
//!
//! Tracing is off in end-to-end runs: [`Tracer::span`] then calls its
//! closure and nothing else, and the counting allocator pays one
//! relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::stats::{self_costs, Interval};

/// Counts allocator calls that obtain memory while counting is on.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations counted so far.
fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Turn allocation counting on or off; returns the previous state.
fn set_counting(on: bool) -> bool {
    COUNTING.swap(on, Ordering::Relaxed)
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `replay.robust`; `op` for an op's root span.
    pub name: &'static str,
    /// Op the span belongs to (probes carry the id of the op they
    /// split).
    pub op: u32,
    /// Host interval and allocations.
    pub at: Interval,
}

/// In-memory span recorder, written out once the run ends.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder, off: every span is a plain call until [`Self::set_on`].
    pub fn new() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording (and allocation counting) for the next ops.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        set_counting(on);
    }

    /// Attribute the following spans to op `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        // The recorder's own bookkeeping is kept out of the counts.
        let was = set_counting(false);
        self.spans.push(Span {
            name,
            op: self.op,
            at: Interval {
                parent: self.open.last().copied(),
                start_ns: 0,
                end_ns: 0,
                allocs: 0,
            },
        });
        self.open.push(self.spans.len() - 1);
        set_counting(was);
        let (start_allocs, start_ns) = (allocs(), self.now_ns());
        let span = &mut self.spans.last_mut().expect("span just pushed").at;
        span.allocs = start_allocs;
        span.start_ns = start_ns;
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let end_allocs = allocs();
        let idx = self.open.pop().expect("end without begin");
        let span = &mut self.spans[idx].at;
        span.end_ns = end_ns;
        span.allocs = end_allocs - span.allocs;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Every span recorded, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time and self allocations, aligned with
    /// [`Self::spans`].
    pub fn self_costs(&self) -> Vec<(u64, u64)> {
        let at: Vec<Interval> = self.spans.iter().map(|s| s.at.clone()).collect();
        self_costs(&at)
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.at.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}{}",
                s.name,
                s.op,
                s.at.start_ns,
                s.at.end_ns,
                s.at.allocs,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}
