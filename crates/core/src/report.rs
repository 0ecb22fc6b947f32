//! Run reports: the metrics every experiment consumes.
//!
//! A [`SessionReport`] serializes deterministically: all optional
//! sections ([`SessionReport::degradation`],
//! [`SessionReport::integrity`], [`SessionReport::metrics`]) are
//! skipped when absent, so a report produced by a plain
//! [`crate::InferenceSession::try_run`] is byte-identical to one from
//! before those sections existed.
//!
//! ```
//! use heterollm::{EngineKind, InferenceSession, ModelConfig};
//!
//! let mut s = InferenceSession::new(EngineKind::HeteroTensor, &ModelConfig::internlm_1_8b());
//! let report = s.try_run(64, 4).expect("built-in trace");
//! let json = serde_json::to_string(&report).unwrap();
//! // Opt-in sections absent -> keys absent, not null.
//! assert!(!json.contains("\"metrics\""));
//! assert!(!json.contains("\"integrity\""));
//! ```

use hetero_soc::power::PowerReport;
use hetero_soc::SimTime;
use serde::{Deserialize, Serialize};

use crate::obs::MetricsSnapshot;

/// Outcome of one inference phase (prefill or a decode run).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseReport {
    /// Tokens processed (prompt length for prefill, generated count for
    /// decode).
    pub tokens: usize,
    /// Simulated wall-clock duration of the phase.
    pub elapsed: SimTime,
}

impl PhaseReport {
    /// Tokens per second.
    pub fn tokens_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s <= 0.0 {
            return 0.0;
        }
        self.tokens as f64 / s
    }

    /// Mean latency per token.
    pub fn per_token(&self) -> SimTime {
        if self.tokens == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_nanos(self.elapsed.as_nanos() / self.tokens as u64)
    }
}

/// Degradation metrics of a disturbed multi-request run.
///
/// All fields are integers or [`SimTime`] (integer nanoseconds) so the
/// serialized report is byte-identical across runs with the same seed;
/// derived rates are computed on demand.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationSummary {
    /// Requests offered to the engine.
    pub total_requests: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests shed by the admission controller under backlog.
    pub shed: usize,
    /// Completed requests that missed the TTFT or TPOT SLO.
    pub slo_violations: usize,
    /// Median time-to-first-token over completed requests
    /// (queueing + recovery overheads included).
    pub p50_ttft: SimTime,
    /// 99th-percentile time-to-first-token.
    pub p99_ttft: SimTime,
    /// Median time-per-output-token.
    pub p50_tpot: SimTime,
    /// 99th-percentile time-per-output-token.
    pub p99_tpot: SimTime,
    /// Partition-plan re-solves against a disturbance-adjusted profile.
    pub replans: usize,
    /// Backend fallbacks (tensor-hybrid → GPU-only or NPU-only).
    pub fallbacks: usize,
    /// Rendezvous retry attempts paid across the run.
    pub sync_retries: usize,
    /// Sync-mechanism downgrades (fast → driver) after retry budget
    /// exhaustion.
    pub sync_downgrades: usize,
    /// Mean time from a disturbance window closing to the first
    /// SLO-meeting completion, over recovered windows.
    pub mean_recovery: SimTime,
    /// Disturbance windows with no SLO-meeting completion afterwards.
    pub unrecovered: usize,
}

impl DegradationSummary {
    /// Fraction of offered requests that violated their SLO or were
    /// shed outright.
    pub fn slo_violation_rate(&self) -> f64 {
        if self.total_requests == 0 {
            return 0.0;
        }
        (self.slo_violations + self.shed) as f64 / self.total_requests as f64
    }
}

/// Data-integrity metrics of a run with verification enabled.
///
/// Like [`DegradationSummary`], every field is an integer or a
/// [`SimTime`] (integer nanoseconds) so same-seed reports serialize
/// byte-identically.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntegritySummary {
    /// SDC faults actually applied to this run (a scheduled fault whose
    /// target never executes is not counted).
    pub injected: usize,
    /// Corruptions flagged by a verifier (tile checksum, KV seal, or
    /// graph fingerprint).
    pub detected: usize,
    /// Detected corruptions repaired by recompute/rollback/rebuild.
    pub corrected: usize,
    /// Detected corruptions left in place (verify-only mode).
    pub uncorrectable: usize,
    /// GEMM output tiles checked against their ABFT row checksums.
    pub tiles_verified: usize,
    /// Tiles whose checksum residual exceeded tolerance.
    pub tile_mismatches: usize,
    /// Tiles recomputed on the opposite backend.
    pub tile_recomputes: usize,
    /// `(layer, row)` KV seals re-verified at read time.
    pub kv_rows_verified: usize,
    /// Sealed KV rows whose stored bits no longer match their seal.
    pub kv_mismatches: usize,
    /// KV rollbacks to the last sealed prefix.
    pub kv_rollbacks: usize,
    /// Tokens re-forwarded to rebuild rolled-back KV rows.
    pub replayed_tokens: usize,
    /// Compiled-graph fingerprints checked before dispatch.
    pub graphs_verified: usize,
    /// Cached graphs whose fingerprint no longer matched.
    pub graph_mismatches: usize,
    /// Poisoned graphs invalidated and recompiled.
    pub graph_rebuilds: usize,
    /// Escalations to single-backend fallback after a corruption
    /// streak.
    pub fallback_escalations: usize,
    /// Verification overhead as an integer percentage of the run's
    /// simulated time (detection tax: checksum reductions plus one
    /// rendezvous per verified tile).
    pub verify_overhead_pct: u64,
    /// Median latency of a recovery action (tile recompute, KV
    /// rollback+replay, or graph rebuild).
    pub recompute_p50: SimTime,
    /// 99th-percentile recovery-action latency.
    pub recompute_p99: SimTime,
}

/// A full prefill + decode session summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionReport {
    /// Engine name.
    pub engine: String,
    /// Model name.
    pub model: String,
    /// Prefill phase metrics (TTFT ≈ `prefill.elapsed`).
    pub prefill: PhaseReport,
    /// Decode phase metrics (TPOT ≈ `decode.per_token()`).
    pub decode: PhaseReport,
    /// Power/energy over the whole session.
    pub power: PowerReport,
    /// Degradation metrics when the session ran under a disturbance
    /// trace (`None` for quiet single-request sessions).
    pub degradation: Option<DegradationSummary>,
    /// Integrity metrics when the session ran with verification
    /// enabled (`None` when integrity mode is off). Omitted from the
    /// serialized form when absent so integrity-off reports are
    /// byte-identical to pre-integrity ones.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub integrity: Option<IntegritySummary>,
    /// All-integer observability metrics (counters + log-linear
    /// histograms derived from the span timeline) when the session ran
    /// through the opt-in observed path
    /// ([`crate::InferenceSession::try_run_observed`] or a runtime
    /// controller with the timeline armed). `None` — and omitted from
    /// the serialized form — otherwise, keeping pre-observability
    /// golden reports byte-identical.
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub metrics: Option<MetricsSnapshot>,
}

impl SessionReport {
    /// Time to first token.
    pub fn ttft(&self) -> SimTime {
        self.prefill.elapsed
    }

    /// Time per output token.
    pub fn tpot(&self) -> SimTime {
        self.decode.per_token()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_latencies() {
        let p = PhaseReport {
            tokens: 256,
            elapsed: SimTime::from_millis(1000),
        };
        assert!((p.tokens_per_sec() - 256.0).abs() < 1e-9);
        assert_eq!(p.per_token(), SimTime::from_nanos(1_000_000_000 / 256));
    }

    #[test]
    fn zero_cases() {
        let p = PhaseReport {
            tokens: 0,
            elapsed: SimTime::ZERO,
        };
        assert_eq!(p.tokens_per_sec(), 0.0);
        assert_eq!(p.per_token(), SimTime::ZERO);
    }
}
