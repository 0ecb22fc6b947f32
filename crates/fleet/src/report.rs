//! All-integer fleet reports.
//!
//! Same determinism discipline as `heterollm`'s
//! `DegradationSummary`/`MetricsSnapshot`: every value is a count or
//! integer nanoseconds, every container iterates in a fixed order,
//! and same-seed runs serialize byte-identically (the CI `cmp` gate).

use heterollm::obs::{MetricsRegistry, MetricsSnapshot};
use serde::{Deserialize, Serialize};

use crate::workload::Priority;

/// Per-priority-class accounting for one arm.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PriorityStats {
    /// Class name (`interactive` / `standard` / `batch`).
    pub class: String,
    /// Requests offered.
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests lost (dispatched but never completed).
    pub lost: u64,
    /// Served requests meeting both TTFT and TPOT SLOs.
    pub slo_met: u64,
    /// Total SLO penalty charged to this class, nanoseconds: every
    /// shed request is charged a class-weighted TTFT-SLO penalty
    /// (interactive 4×, standard 2×, batch 1× — shedding interactive
    /// traffic is the worst outcome admission control can buy), and
    /// every lost request is charged the full lost-penalty deadline.
    pub penalty_ns: u64,
}

impl PriorityStats {
    /// Empty stats for one class.
    pub fn new(p: Priority) -> Self {
        Self {
            class: p.name().to_string(),
            offered: 0,
            served: 0,
            shed: 0,
            lost: 0,
            slo_met: 0,
            penalty_ns: 0,
        }
    }
}

/// Fleet-wide outcome of one routing arm under the seeded fault
/// storm.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArmReport {
    /// Routing policy name (`robust` / `round-robin`).
    pub policy: String,
    /// Fleet size.
    pub devices: u64,
    /// Requests offered to the router.
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed at admission (priority-aware, robust arm only).
    pub shed: u64,
    /// Unrecovered requests: dispatched but never completed.
    pub lost: u64,
    /// Retry dispatches beyond each request's first attempt.
    pub retries: u64,
    /// Circuit-breaker trips across the fleet.
    pub breaker_trips: u64,
    /// TTFT quantiles (merged log-linear histograms, bucket upper
    /// bounds at most 12.5% above the sample quantile, nanoseconds).
    /// Lost requests are recorded at the penalty deadline so tail
    /// quantiles reflect them.
    pub ttft_p50_ns: u64,
    /// p99 TTFT upper bound, nanoseconds.
    pub ttft_p99_ns: u64,
    /// p999 TTFT upper bound, nanoseconds.
    pub ttft_p999_ns: u64,
    /// p50 TPOT upper bound, nanoseconds.
    pub tpot_p50_ns: u64,
    /// p99 TPOT upper bound, nanoseconds.
    pub tpot_p99_ns: u64,
    /// p999 TPOT upper bound, nanoseconds.
    pub tpot_p999_ns: u64,
    /// TTFT SLO used for attainment, nanoseconds.
    pub slo_ttft_ns: u64,
    /// TPOT SLO used for attainment, nanoseconds.
    pub slo_tpot_ns: u64,
    /// Served requests meeting both SLOs (goodput).
    pub goodput: u64,
    /// `goodput * 1_000_000 / offered`.
    pub attainment_ppm: u64,
    /// Fleet busy time over `horizon × devices`, parts per million —
    /// the capacity-idle signal the `shed-starvation` analyzer rule
    /// reads.
    pub busy_ppm: u64,
    /// Per-class breakdown, ordered like [`Priority::ALL`].
    pub by_priority: Vec<PriorityStats>,
    /// Fleet-wide metrics registry (counters + histograms).
    pub metrics: MetricsSnapshot,
}

/// Both arms under the identical seeded workload and fault plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetComparison {
    /// Run seed.
    pub seed: u64,
    /// Fleet size.
    pub devices: u64,
    /// Requests offered.
    pub requests: u64,
    /// The robust router arm.
    pub robust: ArmReport,
    /// The naive round-robin arm.
    pub naive: ArmReport,
}

/// Pull the three report quantiles out of a merged histogram in `reg`
/// (0 when the histogram never got an observation).
pub fn quantiles_ns(reg: &MetricsRegistry, name: &str) -> (u64, u64, u64) {
    match reg.histogram(name) {
        None => (0, 0, 0),
        Some(h) => (
            h.quantile_upper_ns(50, 100),
            h.quantile_upper_ns(99, 100),
            h.quantile_upper_ns(999, 1000),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_soc::SimTime;

    #[test]
    fn report_serializes_all_integer() {
        let mut reg = MetricsRegistry::new();
        reg.incr("served", 3);
        reg.observe("ttft_ns", SimTime::from_millis(12));
        let arm = ArmReport {
            policy: "robust".into(),
            devices: 8,
            offered: 3,
            served: 3,
            shed: 0,
            lost: 0,
            retries: 1,
            breaker_trips: 0,
            ttft_p50_ns: 1,
            ttft_p99_ns: 2,
            ttft_p999_ns: 3,
            tpot_p50_ns: 4,
            tpot_p99_ns: 5,
            tpot_p999_ns: 6,
            slo_ttft_ns: 7,
            slo_tpot_ns: 8,
            goodput: 3,
            attainment_ppm: 1_000_000,
            busy_ppm: 10,
            by_priority: Priority::ALL
                .iter()
                .map(|&p| PriorityStats::new(p))
                .collect(),
            metrics: reg.snapshot(),
        };
        let json = serde_json::to_string(&arm).expect("serialize");
        assert!(!json.contains('.'), "non-integer value leaked: {json}");
        let back: ArmReport = serde_json::from_str(&json).expect("roundtrip");
        assert_eq!(back, arm);
    }

    #[test]
    fn quantiles_come_from_merged_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        for i in 1..=50u64 {
            a.observe("ttft_ns", SimTime::from_micros(i));
            b.observe("ttft_ns", SimTime::from_micros(100 * i));
        }
        let mut merged = MetricsRegistry::new();
        merged.merge(&a);
        merged.merge(&b);
        let (p50, p99, p999) = quantiles_ns(&merged, "ttft_ns");
        assert!(p50 <= p99 && p99 <= p999);
        assert!(p50 > 0);
        assert_eq!(quantiles_ns(&merged, "missing"), (0, 0, 0));
    }
}
