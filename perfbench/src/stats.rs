//! Order statistics, rates, failure accounting and span self time.
//!
//! Quantiles use the "exclusive" interpolation of Python's
//! `statistics.quantiles`, so a spread computed here agrees with one
//! computed over the printed results.

/// Quantile `p` in `(0, 1)` of `xs` by the exclusive method: the value
/// at rank `p · (n + 1)`, interpolated between neighbours and clamped
/// to the sample range. `None` for an empty sample.
pub fn quantile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = (p * (n + 1) as f64).clamp(1.0, n as f64);
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let below = sorted[lo - 1];
    Some(match sorted.get(lo) {
        Some(&above) if frac > 0.0 => below + (above - below) * frac,
        _ => below,
    })
}

/// Median of `xs`; `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Items per second over a measured phase: every item of every timed
/// op divided by the summed op time. Unlike the median op time this
/// charges an occasional slow op in full.
pub fn rate_per_s(items: u64, elapsed_ns: u64) -> f64 {
    items as f64 * 1e9 / elapsed_ns.max(1) as f64
}

/// Checked ops: every op is counted, and a failed check is recorded
/// rather than ending the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops run and checked.
    pub attempted: u64,
    /// Ops whose outputs failed their check.
    pub failed: u64,
}

impl Tally {
    /// Count one op and whether its check passed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Failed ops as a share of ops attempted (0 before any op).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A closed interval of host time with an allocation count and the
/// index of its enclosing span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interval {
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Allocations made while the span was open.
    pub allocs: u64,
}

/// Self time and self allocations of every span: its own duration and
/// count minus those of its direct children. Spans come from one
/// thread, so children never overlap one another.
pub fn self_costs(spans: &[Interval]) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.end_ns.saturating_sub(s.start_ns), s.allocs))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            out[p].0 = out[p].0.saturating_sub(dur);
            out[p].1 = out[p].1.saturating_sub(s.allocs);
        }
    }
    out
}

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_START`]).
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(quantile(&xs, 0.25).unwrap(), 2.75));
        assert!(close(quantile(&xs, 0.5).unwrap(), 5.5));
        assert!(close(quantile(&xs, 0.75).unwrap(), 8.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        let ys = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert!(close(quantile(&ys, 0.25).unwrap(), 1.5));
        assert!(close(quantile(&ys, 0.75).unwrap(), 4.5));
    }

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_quantiles_clamp_to_the_sample_range() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(quantile(&xs, 0.99), Some(3.0));
        assert_eq!(quantile(&xs, 0.01), Some(1.0));
        // statistics.quantiles(range(1, 21), n=10)[-1] == 18.9
        let ys: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!(close(quantile(&ys, 0.9).unwrap(), 18.9));
    }

    #[test]
    fn rate_covers_every_item_over_the_whole_phase() {
        assert!(close(rate_per_s(1024, 500_000_000), 2048.0));
        // One slow op in ten lowers the rate though not the median.
        let ops_ns = [100u64, 100, 100, 100, 100, 100, 100, 100, 100, 1000];
        let total: u64 = ops_ns.iter().sum();
        let ms: Vec<f64> = ops_ns.iter().map(|&n| n as f64).collect();
        assert_eq!(median(&ms), Some(100.0));
        assert!(close(rate_per_s(10, total), 10.0 * 1e9 / 1900.0));
        assert!(rate_per_s(3, 0).is_finite());
    }

    #[test]
    fn tally_counts_failures_without_stopping() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        for ok in [true, false, true, true] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert!(close(t.fail_frac(), 0.25));
    }

    #[test]
    fn self_cost_is_span_minus_direct_children() {
        let span = |parent, start_ns, end_ns, allocs| Interval {
            parent,
            start_ns,
            end_ns,
            allocs,
        };
        // op [0,100) holds a [10,40) and b [50,90); b holds c [60,70).
        let spans = [
            span(None, 0, 100, 50),
            span(Some(0), 10, 40, 10),
            span(Some(0), 50, 90, 30),
            span(Some(2), 60, 70, 5),
        ];
        let costs = self_costs(&spans);
        assert_eq!(costs, vec![(30, 10), (30, 10), (30, 25), (10, 5)]);
        let total: u64 = costs.iter().map(|c| c.0).sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn fnv_distinguishes_inputs_and_chains() {
        let a = fnv1a(FNV_START, b"robust");
        assert_ne!(a, fnv1a(FNV_START, b"robusT"));
        assert_eq!(
            fnv1a(fnv1a(FNV_START, b"ab"), b"c"),
            fnv1a(FNV_START, b"abc")
        );
    }
}
