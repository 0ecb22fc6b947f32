//! All-integer metrics: counters, log-linear histograms and the one
//! quantile rank rule every reported quantile uses.
//!
//! Same determinism discipline as
//! [`crate::report::DegradationSummary`] and
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

/// Sub-bucket bits: each octave `[2^e, 2^(e+1))` splits into
/// `2^SUB_BUCKET_BITS` = 8 equal-width buckets, so a bucket's upper
/// bound exceeds any value in it by at most 1/8 (12.5%) of that value.
const SUB_BUCKET_BITS: u32 = 3;

/// 1-based nearest rank of the `num/den` quantile among `n` samples:
/// `max(1, ⌈n·num/den⌉)`. A fraction above one (`num > den`) or with
/// `den == 0` is clamped to one, i.e. rank `n`: the maximum. The one
/// rank rule behind [`exact_quantile`] and
/// [`Histogram::quantile_upper_ns`].
pub fn nearest_rank(n: u64, num: u64, den: u64) -> u64 {
    if den == 0 || num >= den {
        return n.max(1);
    }
    // num < den, so the rank is at most n and fits a u64.
    let rank = (u128::from(num) * u128::from(n)).div_ceil(u128::from(den)) as u64;
    rank.max(1)
}

/// Exact `num/den` quantile of an ascending-sorted slice: the sample
/// at [`nearest_rank`], i.e. the smallest sample with at least
/// `num/den` of the mass at or below it. `T::default()` when empty.
pub fn exact_quantile<T: Copy + Default>(sorted: &[T], num: u64, den: u64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    sorted[(nearest_rank(sorted.len() as u64, num, den) - 1) as usize]
}

/// Bucket index of `ns`: values below 16 get one exact bucket each;
/// above, `(shift << 3) + (ns >> shift)` where `shift` keeps the top
/// four significant bits. `u64::MAX` lands in the last index, 495.
fn bucket_index(ns: u64) -> u16 {
    let shift = (63 - (ns | 1).leading_zeros()).saturating_sub(SUB_BUCKET_BITS);
    ((u64::from(shift) << SUB_BUCKET_BITS) + (ns >> shift)) as u16
}

/// Largest value (inclusive, nanoseconds) that lands in bucket
/// `index`; the inverse of [`bucket_index`].
fn bucket_upper_ns(index: u16) -> u64 {
    let index = u64::from(index);
    let shift = (index >> SUB_BUCKET_BITS).saturating_sub(1);
    let lower = (index - (shift << SUB_BUCKET_BITS)) << shift;
    lower + ((1u64 << shift) - 1)
}

/// A log-linear duration histogram in the HDR style: one exact bucket
/// per value below 16 ns, then eight equal-width buckets per octave
/// (496 in all), the last one ending at `u64::MAX` — nothing clamps. Only non-empty buckets are stored, as
/// `(index, count)` pairs sorted by index, so a histogram that saw a
/// handful of values stays a handful of pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum_ns: u64,
    buckets: Vec<(u16, u64)>,
}

impl Histogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration.
    pub fn observe(&mut self, t: SimTime) {
        self.observe_times(t, 1);
    }

    /// Record `n` observations of one duration: the bucket's count and
    /// the observation count grow by `n`, the sum by `n` times the
    /// duration (saturating, as `n` separate observations would).
    fn observe_times(&mut self, t: SimTime, n: u64) {
        let ns = t.as_nanos();
        self.add(bucket_index(ns), n);
        self.count += n;
        self.sum_ns = self.sum_ns.saturating_add(ns.saturating_mul(n));
    }

    fn add(&mut self, index: u16, n: u64) {
        match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(at) => self.buckets[at].1 += n,
            Err(at) => {
                // Grow one pair at a time: most histograms (one per
                // device and metric) hold a handful of buckets, and
                // doubling's spare capacity showed in fleet peak RSS.
                self.buckets.reserve_exact(1);
                self.buckets.insert(at, (index, n));
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed durations, nanoseconds; saturates at
    /// `u64::MAX` rather than wrapping.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Non-empty buckets as `(index, count)`, sorted by index.
    pub fn buckets(&self) -> &[(u16, u64)] {
        &self.buckets
    }

    /// Fold another histogram into this one (bucket-wise sums; the
    /// sum saturates).
    ///
    /// Merging is commutative and associative, so per-device fleet
    /// histograms can be combined in any order with a byte-identical
    /// result.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        for &(index, n) in &other.buckets {
            self.add(index, n);
        }
    }

    /// Upper bound (inclusive, nanoseconds) of the bucket holding the
    /// [`nearest_rank`] `num/den` quantile; 0 when the histogram is
    /// empty. The bound is at most 12.5% above the true sample
    /// quantile `q` (`q ≤ bound ≤ q + q/8`), and exact below 16 ns.
    /// Like the rank, a fraction above one or `den == 0` clamps to
    /// the maximum: the highest non-empty bucket's upper bound.
    pub fn quantile_upper_ns(&self, num: u64, den: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank(self.count, num, den);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper_ns(index);
            }
        }
        unreachable!("bucket counts sum to the observation count")
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
    /// Non-empty log-linear buckets as `(index, count)`, sorted by
    /// index (see [`Histogram`]).
    pub buckets: Vec<(u16, u64)>,
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

    /// Bump `name` by `n`. The name is copied only the first time it
    /// is seen.
    pub fn incr(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Record a duration observation under `name`. The name is copied
    /// only the first time it is seen.
    pub fn observe(&mut self, name: &str, t: SimTime) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(t),
            None => self
                .histograms
                .entry(name.to_string())
                .or_default()
                .observe(t),
        }
    }

    /// Fold a whole histogram into `name`, as if every observation it
    /// holds had been recorded here through [`Self::observe`]. An
    /// empty histogram leaves the registry unchanged, so `name`
    /// appears exactly when something was observed.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        if h.count() > 0 {
            self.histograms
                .entry(name.to_string())
                .or_default()
                .merge(h);
        }
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
    /// - `sync_wait_ns` — total simulated time spent in sync spans,
    ///   and `graph_compile_ns` the same for graph-compile spans;
    /// - `kernel_ns_<track>` histograms of kernel-span durations and a
    ///   `sync_ns` histogram of sync-span durations.
    ///
    /// One pass over the stored spans folds each track's kernel
    /// durations into a local [`Histogram`] and the sync and compile
    /// time into local sums; each name is then written once. A span a
    /// run repeats counts once per copy: the copies have its duration,
    /// so they add its bucket count and its nanoseconds times the copy
    /// count, exactly. A sum's counter appears exactly when a span of
    /// its kind exists, zero-length ones included.
    pub fn from_timeline(tl: &Timeline) -> Self {
        let mut reg = Self::new();
        for (name, n) in tl.counters() {
            reg.incr(name, *n);
        }
        reg.incr("flows_total", tl.flow_count() as u64);
        // Indexed by `Track as usize`: `Track::ALL` is in declaration
        // order.
        let mut spans = [0u64; Track::ALL.len()];
        let mut kernel_ns: [Histogram; Track::ALL.len()] = Default::default();
        let mut sync_ns = Histogram::new();
        let (mut sync_wait, mut compile) = (None, None);
        for (span, n) in tl.weighted_spans() {
            spans[span.track as usize] += n;
            let d = span.duration();
            match span.kind {
                SpanKind::Kernel => kernel_ns[span.track as usize].observe_times(d, n),
                SpanKind::Sync => {
                    *sync_wait.get_or_insert(0) += d.as_nanos() * n;
                    sync_ns.observe_times(d, n);
                }
                SpanKind::Cache => *compile.get_or_insert(0) += d.as_nanos() * n,
                SpanKind::Phase | SpanKind::Control => {}
            }
        }
        for (track, n) in Track::ALL.iter().zip(spans) {
            reg.incr(&format!("spans_{}", track.name().to_ascii_lowercase()), n);
        }
        for (track, h) in Track::ALL.iter().zip(&kernel_ns) {
            let name = format!("kernel_ns_{}", track.name().to_ascii_lowercase());
            reg.merge_histogram(&name, h);
        }
        reg.merge_histogram("sync_ns", &sync_ns);
        for (name, sum) in [("sync_wait_ns", sync_wait), ("graph_compile_ns", compile)] {
            if let Some(ns) = sum {
                reg.incr(name, ns);
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
                    buckets: h.buckets.clone(),
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
    fn buckets_are_log_linear_with_no_clamp() {
        // Exact below 16 ns, then eight buckets per octave.
        for ns in 0..16 {
            assert_eq!(bucket_index(ns), ns as u16);
            assert_eq!(bucket_upper_ns(ns as u16), ns);
        }
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(17), 16);
        assert_eq!(bucket_upper_ns(16), 17);
        assert_eq!(bucket_index(u64::MAX), 495);
        assert_eq!(bucket_upper_ns(495), u64::MAX);
        // Every bucket's upper bound lands in it, and the next value
        // starts the next bucket.
        for i in 0..495u16 {
            let up = bucket_upper_ns(i);
            assert_eq!(bucket_index(up), i);
            assert_eq!(bucket_index(up + 1), i + 1);
        }
    }

    #[test]
    fn histogram_stores_only_non_empty_buckets() {
        let mut h = Histogram::new();
        h.observe(SimTime::ZERO);
        h.observe(SimTime::from_nanos(1500));
        h.observe(SimTime::from_nanos(1024));
        h.observe(SimTime::from_nanos(1));
        h.observe(SimTime::from_nanos(1100));
        h.observe(SimTime::from_nanos(u64::MAX));
        assert_eq!(h.count(), 6);
        // 1024 and 1100 share [1024, 1151]; 1500 is in [1408, 1535].
        assert_eq!(h.buckets(), &[(0, 1), (1, 1), (64, 2), (67, 1), (495, 1)]);
    }

    #[test]
    fn sum_saturates_instead_of_overflowing() {
        let mut h = Histogram::new();
        h.observe(SimTime::from_nanos(u64::MAX - 1));
        h.observe(SimTime::from_nanos(5));
        assert_eq!(h.sum_ns(), u64::MAX);
        let mut merged = h.clone();
        merged.merge(&h);
        assert_eq!(merged.sum_ns(), u64::MAX);
        assert_eq!(merged.count(), 4);
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
        assert_eq!(merged.buckets()[0], (3, 2)); // two 3 ns observations

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
        // p50 is the 3rd sample (30 ns, bucket [30, 31]).
        assert_eq!(h.quantile_upper_ns(50, 100), 31);
        // p100 is the largest sample (5000 ns, bucket [4608, 5119]).
        assert_eq!(h.quantile_upper_ns(100, 100), 5119);
        assert_eq!(Histogram::new().quantile_upper_ns(99, 100), 0);
        // Far past the old 2^32 ns clamp, still within 12.5%.
        let mut big = Histogram::new();
        big.observe(SimTime::from_millis(6618));
        let got = big.quantile_upper_ns(999, 1000);
        let want = SimTime::from_millis(6618).as_nanos();
        assert!(want <= got && got <= want + want / 8, "{got}");
    }

    #[test]
    fn quantile_clamps_fractions_above_one_to_the_maximum() {
        let mut h = Histogram::new();
        for ns in [10u64, 20, 5000] {
            h.observe(SimTime::from_nanos(ns));
        }
        let max = h.quantile_upper_ns(1, 1);
        assert_eq!(max, 5119);
        assert_eq!(h.quantile_upper_ns(101, 100), max);
        assert_eq!(h.quantile_upper_ns(u64::MAX, 1), max);
        assert_eq!(h.quantile_upper_ns(50, 0), max);
        assert_eq!(h.quantile_upper_ns(0, 0), max);
    }

    #[test]
    fn nearest_rank_and_exact_quantile() {
        assert_eq!(nearest_rank(100, 50, 100), 50);
        assert_eq!(nearest_rank(24, 99, 100), 24);
        assert_eq!(nearest_rank(5, 0, 100), 1);
        assert_eq!(nearest_rank(7, 3, 0), 7);
        assert_eq!(nearest_rank(u64::MAX, u64::MAX - 1, u64::MAX), u64::MAX - 1);
        let v: Vec<SimTime> = (1..=100).map(SimTime::from_nanos).collect();
        assert_eq!(exact_quantile(&v, 50, 100), SimTime::from_nanos(50));
        assert_eq!(exact_quantile(&v, 99, 100), SimTime::from_nanos(99));
        assert_eq!(exact_quantile(&v, 100, 100), SimTime::from_nanos(100));
        assert_eq!(exact_quantile(&v, 999, 1000), SimTime::from_nanos(100));
        assert_eq!(exact_quantile::<SimTime>(&[], 50, 100), SimTime::ZERO);
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
