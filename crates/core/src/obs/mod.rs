//! Deterministic observability: span timelines, Chrome-trace export,
//! and an all-integer metrics registry.
//!
//! Every timestamp in this module is simulated time ([`SimTime`],
//! integer nanoseconds) taken from the SoC simulator's clock — never
//! the wall clock — so a captured timeline is a pure function of the
//! session's inputs and two same-seed runs serialize byte-identically
//! (the CI trace-determinism gate `cmp`s the files).
//!
//! The layer has three parts:
//!
//! - [`Timeline`] / [`TimelineRecorder`]: spans (kernel execution,
//!   sync waits, graph compiles, controller actions) on one track per
//!   hardware unit ([`Track`]), plus flow edges across synchronization
//!   points. Engines record through the same hook style as the
//!   concurrency log (`enable_timeline` / `take_timeline` on
//!   [`crate::engines::Engine`]).
//! - [`chrome::to_chrome_json`]: exports a timeline as Chrome
//!   trace-event JSON loadable in Perfetto (`ui.perfetto.dev`), with
//!   one process row per track and `s`/`f` flow arrows across sync
//!   edges.
//! - [`MetricsRegistry`] / [`MetricsSnapshot`]: integer counters and
//!   log-linear histograms derived from a timeline, attached to
//!   [`crate::report::SessionReport`] behind an opt-in so existing
//!   golden reports stay byte-identical.
//!
//! # Examples
//!
//! Build a two-span timeline by hand and export it:
//!
//! ```
//! use hetero_soc::SimTime;
//! use heterollm::obs::{chrome, SpanKind, Timeline, Track};
//!
//! let mut tl = Timeline::new();
//! let us = SimTime::from_micros;
//! tl.push_span(Track::Gpu, SpanKind::Kernel, "qkv", us(0), us(40));
//! tl.push_span(Track::Npu, SpanKind::Kernel, "gate_up", us(40), us(90));
//! tl.push_flow("sync:fast", Track::Gpu, us(40), Track::Npu, us(40));
//! assert!(tl.check_well_formed().is_ok());
//!
//! let json = chrome::to_chrome_json(&tl);
//! assert!(json.contains("\"traceEvents\""));
//! assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
//! ```

pub mod chrome;
pub mod metrics;
pub mod swimlane;
pub mod timeline;

pub use metrics::{Histogram, MetricCounter, MetricHistogram, MetricsRegistry, MetricsSnapshot};
pub use timeline::{FlowEdge, Label, Span, SpanKind, Timeline, TimelineRecorder, Track};

#[allow(unused_imports)] // rustdoc link target
use hetero_soc::SimTime;
