//! All-integer metrics: counters and fixed-bucket histograms.
//!
//! Same determinism discipline as
//! [`crate::runtime::DegradationSummary`] and
//! [`crate::report::IntegritySummary`]: every value is a `u64`
//! (counts or nanoseconds), containers iterate in sorted order, and
//! the serialized form is byte-stable across same-seed runs.
//!
//! # Examples
//!
//! ```
//! use hetero_soc::SimTime;
//! use heterollm::obs::MetricsRegistry;
//!
//! let mut reg = MetricsRegistry::new();
//! reg.incr("graph_hits", 3);
//! reg.observe("kernel_ns_gpu", SimTime::from_micros(42));
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters[0].name, "graph_hits");
//! assert_eq!(snap.counters[0].value, 3);
//! assert_eq!(snap.histograms[0].count, 1);
//! // Every serialized value is an integer: no '.' outside names.
//! let json = serde_json::to_string(&snap).unwrap();
//! assert!(!json.contains('.'));
//! ```

use std::collections::BTreeMap;

use hetero_soc::SimTime;
use serde::{Deserialize, Serialize};

use super::timeline::{SpanKind, Timeline, Track};

/// Number of power-of-two histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket duration histogram: bucket `i` counts observations
/// with `floor(log2(ns)) == i` (zero-duration observations land in
/// bucket 0), clamped to [`HISTOGRAM_BUCKETS`] buckets — covering
/// 1 ns to ~2 simulated seconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum_ns: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum_ns: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration.
    pub fn observe(&mut self, t: SimTime) {
        let ns = t.as_nanos();
        let bucket = if ns == 0 {
            0
        } else {
            (63 - ns.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_ns += ns;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed durations, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Fold another histogram into this one (bucket-wise sums).
    ///
    /// Merging is commutative and associative, so per-device fleet
    /// histograms can be combined in any order with a byte-identical
    /// result.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Upper bound (inclusive, nanoseconds) of the bucket holding the
    /// `num/den` nearest-rank quantile; 0 when the histogram is empty.
    ///
    /// Because buckets are powers of two, the bound is exact to within
    /// one bucket of the true sample quantile — the property the fleet
    /// merge proptests pin against a sorted-sample oracle.
    pub fn quantile_upper_ns(&self, num: u64, den: u64) -> u64 {
        assert!(den > 0 && num <= den, "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        // Nearest-rank: the ceil(num/den * count)-th smallest sample
        // (1-based), clamped to at least the first.
        let rank = (u128::from(num) * u128::from(self.count)).div_ceil(u128::from(den));
        let rank = rank.max(1) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return (1u64 << (i + 1)) - 1;
            }
        }
        (1u64 << HISTOGRAM_BUCKETS) - 1
    }
}

/// One named counter in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricCounter {
    /// Metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// One named histogram in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricHistogram {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed durations, nanoseconds.
    pub sum_ns: u64,
    /// Power-of-two bucket counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

/// Serializable, byte-stable view of a [`MetricsRegistry`]: counters
/// and histograms sorted by name, every value an integer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<MetricCounter>,
    /// All histograms, sorted by name.
    pub histograms: Vec<MetricHistogram>,
}

/// Mutable registry of named counters and histograms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// New, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bump `name` by `n`.
    pub fn incr(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Record a duration observation under `name`.
    pub fn observe(&mut self, name: &str, t: SimTime) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(t);
    }

    /// Value of counter `name` (zero if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Derive the standard session metrics from a recorded timeline:
    ///
    /// - the timeline's own named counters (graph-cache lookups,
    ///   switches, controller decisions), carried over verbatim;
    /// - `spans_<track>` / `flows_total` structural counts;
    /// - `sync_wait_ns` — total simulated time spent in sync spans;
    /// - `kernel_ns_<track>` histograms of kernel-span durations and a
    ///   `sync_ns` histogram of sync-span durations.
    pub fn from_timeline(tl: &Timeline) -> Self {
        let mut reg = Self::new();
        for (name, n) in tl.counters() {
            reg.incr(name, *n);
        }
        reg.incr("flows_total", tl.flows().len() as u64);
        for track in Track::ALL {
            let name = format!("spans_{}", track.name().to_ascii_lowercase());
            reg.incr(
                &name,
                tl.spans().iter().filter(|s| s.track == track).count() as u64,
            );
        }
        for span in tl.spans() {
            match span.kind {
                SpanKind::Kernel => {
                    let name = format!("kernel_ns_{}", span.track.name().to_ascii_lowercase());
                    reg.observe(&name, span.duration());
                }
                SpanKind::Sync => {
                    reg.incr("sync_wait_ns", span.duration().as_nanos());
                    reg.observe("sync_ns", span.duration());
                }
                SpanKind::Cache => {
                    reg.incr("graph_compile_ns", span.duration().as_nanos());
                }
                SpanKind::Phase | SpanKind::Control => {}
            }
        }
        reg
    }

    /// Fold another registry into this one: counters add, histograms
    /// merge bucket-wise. Order-independent, like
    /// [`Histogram::merge`].
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, n) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += n;
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Freeze into the serializable, name-sorted snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, value)| MetricCounter {
                    name: name.clone(),
                    value: *value,
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, h)| MetricHistogram {
                    name: name.clone(),
                    count: h.count,
                    sum_ns: h.sum_ns,
                    buckets: h.buckets.to_vec(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::timeline::TimelineRecorder;
    use super::*;
    use hetero_soc::sync::SyncMechanism;
    use hetero_soc::{Backend, KernelDesc};
    use hetero_tensor::shape::MatmulShape;

    fn us(x: u64) -> SimTime {
        SimTime::from_micros(x)
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let mut h = Histogram::new();
        h.observe(SimTime::ZERO); // bucket 0
        h.observe(SimTime::from_nanos(1)); // bucket 0
        h.observe(SimTime::from_nanos(1024)); // bucket 10
        h.observe(SimTime::from_nanos(1500)); // bucket 10
        h.observe(SimTime::from_secs_f64(10.0)); // clamped to last bucket
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets()[0], 2);
        assert_eq!(h.buckets()[10], 2);
        assert_eq!(h.buckets()[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn merge_sums_counts_and_buckets() {
        let mut a = Histogram::new();
        a.observe(SimTime::from_nanos(3));
        a.observe(SimTime::from_micros(10));
        let mut b = Histogram::new();
        b.observe(SimTime::from_nanos(3));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.sum_ns(), a.sum_ns() + b.sum_ns());
        assert_eq!(merged.buckets()[1], 2); // two 3 ns observations

        // Commutative: b.merge(a) gives the same histogram.
        let mut other = b.clone();
        other.merge(&a);
        assert_eq!(merged, other);
    }

    #[test]
    fn quantile_upper_bound_brackets_samples() {
        let mut h = Histogram::new();
        for ns in [10u64, 20, 30, 1000, 5000] {
            h.observe(SimTime::from_nanos(ns));
        }
        // p50 is the 3rd sample (30 ns, bucket 4: [16, 32)).
        assert_eq!(h.quantile_upper_ns(50, 100), 31);
        // p100 is the largest sample (5000 ns, bucket 12).
        assert_eq!(h.quantile_upper_ns(100, 100), 8191);
        assert_eq!(Histogram::new().quantile_upper_ns(99, 100), 0);
    }

    #[test]
    fn registry_merge_is_order_independent() {
        let mut a = MetricsRegistry::new();
        a.incr("served", 2);
        a.observe("ttft_ns", us(10));
        let mut b = MetricsRegistry::new();
        b.incr("served", 5);
        b.incr("shed", 1);
        b.observe("ttft_ns", us(90));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.snapshot(), ba.snapshot());
        assert_eq!(ab.counter("served"), 7);
        assert_eq!(ab.histogram("ttft_ns").expect("merged").count(), 2);
    }

    #[test]
    fn snapshot_is_sorted_and_all_integer() {
        let mut reg = MetricsRegistry::new();
        reg.incr("z_metric", 1);
        reg.incr("a_metric", 2);
        reg.observe("lat", us(5));
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].name, "a_metric");
        assert_eq!(snap.counters[1].name, "z_metric");
        let json = serde_json::to_string(&snap).expect("serialize");
        assert!(!json.contains('.'), "non-integer value leaked: {json}");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(back, snap);
    }

    #[test]
    fn from_timeline_derives_span_and_sync_metrics() {
        let mut rec = TimelineRecorder::new();
        let matmul = KernelDesc::matmul_w4a16(MatmulShape::new(64, 512, 512));
        rec.kernel(Backend::Gpu, &matmul, us(0), us(40));
        rec.switch(
            Backend::Gpu,
            Backend::Npu,
            SyncMechanism::Fast,
            us(40),
            us(43),
        );
        rec.kernel(Backend::Npu, &matmul, us(43), us(90));
        rec.graph_lookup(true);
        let reg = MetricsRegistry::from_timeline(&rec.finish());
        assert_eq!(reg.counter("spans_gpu"), 1);
        assert_eq!(reg.counter("spans_npu"), 2); // kernel + switch wait
        assert_eq!(reg.counter("graph_hits"), 1);
        assert_eq!(reg.counter("switches"), 1);
        assert_eq!(reg.counter("flows_total"), 1);
        assert_eq!(reg.counter("sync_wait_ns"), us(3).as_nanos());
        assert_eq!(reg.histogram("kernel_ns_gpu").expect("gpu hist").count(), 1);
        assert_eq!(reg.histogram("sync_ns").expect("sync hist").count(), 1);
    }

    #[test]
    fn byte_stable_across_identical_builds() {
        let build = || {
            let mut reg = MetricsRegistry::new();
            reg.incr("switches", 7);
            reg.observe("lat", us(10));
            reg.observe("lat", us(20));
            serde_json::to_string(&reg.snapshot()).expect("serialize")
        };
        assert_eq!(build(), build());
    }
}
