//! Shared pieces of the data-integrity layer: the mode switch, the
//! event counters both execution paths accumulate, and the summary
//! builder.
//!
//! The detection substrate lives in [`hetero_tensor::abft`]; the
//! injection schedule in [`hetero_soc::disturb::SdcTrace`]. This module
//! only aggregates what the functional engine
//! ([`crate::functional_engine::FunctionalHeteroEngine`]) and the
//! runtime controller ([`crate::RuntimeController`]) observe into the
//! all-integer [`IntegritySummary`] carried by session reports.

use hetero_soc::SimTime;
use serde::{Deserialize, Serialize};

use crate::obs::metrics::exact_quantile;
use crate::report::IntegritySummary;

/// How much of the integrity layer is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum IntegrityMode {
    /// No verification, no recovery — corruption flows through
    /// silently. The baseline arm.
    #[default]
    Off,
    /// Verify every GEMM tile, KV read, and graph dispatch; count
    /// detections as uncorrectable but do not repair.
    Verify,
    /// Verify and repair: cross-backend tile recompute, KV
    /// rollback+replay, graph invalidate+rebuild.
    Recover,
}

impl IntegrityMode {
    /// Whether any verification happens.
    pub fn verifies(self) -> bool {
        !matches!(self, Self::Off)
    }

    /// Whether detected corruption is repaired.
    pub fn recovers(self) -> bool {
        matches!(self, Self::Recover)
    }
}

/// Raw integrity event counts accumulated during a run.
#[derive(Debug, Clone, Default)]
pub struct IntegrityCounters {
    /// Faults actually applied.
    pub injected: usize,
    /// Corruptions flagged by any verifier.
    pub detected: usize,
    /// Detections repaired.
    pub corrected: usize,
    /// Detections left in place.
    pub uncorrectable: usize,
    /// Tiles checked.
    pub tiles_verified: usize,
    /// Tile checksum mismatches.
    pub tile_mismatches: usize,
    /// Cross-backend tile recomputes.
    pub tile_recomputes: usize,
    /// `(layer, row)` seals re-checked.
    pub kv_rows_verified: usize,
    /// Seal mismatches.
    pub kv_mismatches: usize,
    /// Rollbacks to a sealed prefix.
    pub kv_rollbacks: usize,
    /// Tokens re-forwarded during replay.
    pub replayed_tokens: usize,
    /// Graph fingerprints checked.
    pub graphs_verified: usize,
    /// Fingerprint mismatches.
    pub graph_mismatches: usize,
    /// Poisoned graphs rebuilt.
    pub graph_rebuilds: usize,
    /// Corruption-streak escalations to single-backend fallback.
    pub fallback_escalations: usize,
    /// Simulated time charged to verification kernels + rendezvous.
    pub verify_time: SimTime,
    /// Latency of each recovery action, in occurrence order.
    pub recompute_latencies: Vec<SimTime>,
}

impl IntegrityCounters {
    /// Fold the counters into the serializable summary. `total` is the
    /// run's full simulated duration (the denominator of the overhead
    /// percentage).
    pub fn summary(&self, total: SimTime) -> IntegritySummary {
        let mut lat = self.recompute_latencies.clone();
        lat.sort_unstable();
        let overhead = if total.as_nanos() == 0 {
            0
        } else {
            self.verify_time.as_nanos() * 100 / total.as_nanos()
        };
        IntegritySummary {
            injected: self.injected,
            detected: self.detected,
            corrected: self.corrected,
            uncorrectable: self.uncorrectable,
            tiles_verified: self.tiles_verified,
            tile_mismatches: self.tile_mismatches,
            tile_recomputes: self.tile_recomputes,
            kv_rows_verified: self.kv_rows_verified,
            kv_mismatches: self.kv_mismatches,
            kv_rollbacks: self.kv_rollbacks,
            replayed_tokens: self.replayed_tokens,
            graphs_verified: self.graphs_verified,
            graph_mismatches: self.graph_mismatches,
            graph_rebuilds: self.graph_rebuilds,
            fallback_escalations: self.fallback_escalations,
            verify_overhead_pct: overhead,
            recompute_p50: exact_quantile(&lat, 50, 100),
            recompute_p99: exact_quantile(&lat, 99, 100),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(!IntegrityMode::Off.verifies());
        assert!(IntegrityMode::Verify.verifies());
        assert!(!IntegrityMode::Verify.recovers());
        assert!(IntegrityMode::Recover.verifies());
        assert!(IntegrityMode::Recover.recovers());
    }

    #[test]
    fn summary_percentiles_and_overhead() {
        let mut c = IntegrityCounters {
            verify_time: SimTime::from_millis(5),
            ..IntegrityCounters::default()
        };
        c.recompute_latencies = (1..=100).map(SimTime::from_micros).collect();
        let s = c.summary(SimTime::from_millis(100));
        assert_eq!(s.verify_overhead_pct, 5);
        assert_eq!(s.recompute_p50, SimTime::from_micros(50));
        assert_eq!(s.recompute_p99, SimTime::from_micros(99));
        // Empty-run denominators do not divide by zero.
        let empty = IntegrityCounters::default().summary(SimTime::ZERO);
        assert_eq!(empty.verify_overhead_pct, 0);
        assert_eq!(empty.recompute_p50, SimTime::ZERO);
    }
}
