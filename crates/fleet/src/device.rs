//! Fleet devices: heterogeneous SoC profiles calibrated from real
//! engine sessions, plus per-device router-side state.
//!
//! Building a full [`heterollm::engines::HeteroTensorEngine`] per
//! device would make a 1k-device sweep pay 1k DES runs per request.
//! Instead the fleet calibrates each *distinct* Table-1 profile once
//! — by driving a real engine through the fallible
//! [`InferenceSession::try_run`] session API — and prices requests
//! from the calibrated per-token latencies, derated by the device's
//! current fault condition. Engine faults during calibration are
//! counted, not panicked on: that is exactly why the session API is
//! typed.

use hetero_soc::specs::{project_config, table1};
use hetero_soc::{SimTime, SocConfig};
use heterollm::engines::HeteroTensorEngine;
use heterollm::{InferenceSession, ModelConfig};
use serde::{Deserialize, Serialize};

use crate::policy::{BreakerConfig, CircuitBreaker};

/// Prompt length used to calibrate per-token prefill latency (also
/// the online profiler's few-shot micro-benchmark shape).
pub const CALIB_PROMPT: usize = 256;
/// Decode steps used to calibrate per-token decode latency.
pub const CALIB_DECODE: usize = 16;

/// One distinct SoC profile in the fleet, calibrated from a real
/// engine run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Vendor + SoC name (Table 1).
    pub soc: String,
    /// Calibrated quiet prefill latency per prompt token.
    pub prefill_ns_per_token: u64,
    /// Calibrated quiet decode latency per output token.
    pub decode_ns_per_token: u64,
}

impl DeviceProfile {
    /// Quiet service estimate for one request shape.
    pub fn service_estimate(&self, prompt_tokens: usize, decode_tokens: usize) -> SimTime {
        SimTime::from_nanos(
            self.prefill_ns_per_token * prompt_tokens as u64
                + self.decode_ns_per_token * decode_tokens as u64,
        )
    }
}

/// Calibrate one [`DeviceProfile`] per projectable Table-1 SoC by
/// running the Hetero-tensor engine on the projected
/// [`hetero_soc::SocConfig`] behind the fallible session API. SoCs
/// whose engines fault during calibration are skipped (counted by the
/// caller as configuration faults) rather than aborting the sweep.
pub fn calibrate_profiles(model: &ModelConfig) -> Vec<DeviceProfile> {
    calibrate_profiles_with_socs(model).0
}

/// [`calibrate_profiles`] plus the projected [`SocConfig`] behind each
/// profile, index-aligned — consumers that re-solve partition plans
/// for a drifted device (the rollout overlay) need the config the
/// profile was calibrated on.
pub fn calibrate_profiles_with_socs(model: &ModelConfig) -> (Vec<DeviceProfile>, Vec<SocConfig>) {
    let mut profiles = Vec::new();
    let mut socs = Vec::new();
    for spec in table1() {
        let Some(cfg) = project_config(&spec) else {
            continue; // No FP16 NPU: not a HeteroLLM target.
        };
        let engine = HeteroTensorEngine::with_soc_config(model, cfg.clone());
        let mut session = InferenceSession::from_engine(Box::new(engine));
        let Ok(report) = session.try_run(CALIB_PROMPT, CALIB_DECODE) else {
            continue; // Engine fault — a device-config fault, not a crash.
        };
        profiles.push(DeviceProfile {
            soc: format!("{} {}", spec.vendor, spec.soc),
            prefill_ns_per_token: report.prefill.elapsed.as_nanos() / CALIB_PROMPT as u64,
            decode_ns_per_token: report.decode.per_token().as_nanos(),
        });
        socs.push(cfg);
    }
    (profiles, socs)
}

/// Router-side state for one device.
#[derive(Debug, Clone)]
pub struct Device {
    /// Fleet-wide id.
    pub id: u32,
    /// Index into the calibrated profile table.
    pub profile: usize,
    /// When the device's local queue drains.
    pub busy_until: SimTime,
    /// EWMA of observed service latency, nanoseconds (α = 1/8).
    pub ewma_ns: u64,
    /// The device's circuit breaker.
    pub breaker: CircuitBreaker,
    /// Total simulated busy time.
    pub busy_ns: u64,
}

impl Device {
    /// New idle device seeded with the profile's quiet estimate so
    /// scoring is meaningful before the first observation.
    pub fn new(id: u32, profile: usize, ewma_init: SimTime, breaker: BreakerConfig) -> Self {
        Self {
            id,
            profile,
            busy_until: SimTime::ZERO,
            ewma_ns: ewma_init.as_nanos(),
            breaker: CircuitBreaker::new(breaker),
            busy_ns: 0,
        }
    }

    /// Fold one observed service latency into the EWMA.
    pub fn observe_latency(&mut self, t: SimTime) {
        self.ewma_ns = (self.ewma_ns * 7 + t.as_nanos()) / 8;
    }

    /// Routing score at `now`: estimated latency plus queue wait
    /// (lower is better).
    pub fn score(&self, now: SimTime) -> u64 {
        self.ewma_ns
            .saturating_add(self.busy_until.saturating_sub(now).as_nanos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_covers_projectable_socs() {
        let profiles = calibrate_profiles(&ModelConfig::internlm_1_8b());
        assert_eq!(profiles.len(), 3, "three Table-1 SoCs have FP16 NPUs");
        assert!(profiles.iter().any(|p| p.soc.contains("Qualcomm")));
        for p in &profiles {
            assert!(p.prefill_ns_per_token > 0);
            assert!(p.decode_ns_per_token > p.prefill_ns_per_token);
        }
        // Heterogeneous: profiles differ.
        assert!(profiles
            .windows(2)
            .any(|w| w[0].prefill_ns_per_token != w[1].prefill_ns_per_token));
    }

    #[test]
    fn ewma_tracks_and_queue_wait_raises_score() {
        let mut d = Device::new(0, 0, SimTime::from_millis(100), BreakerConfig::standard());
        let before = d.ewma_ns;
        d.observe_latency(SimTime::from_millis(20));
        assert!(d.ewma_ns < before);
        // Queue wait raises the score.
        d.busy_until = SimTime::from_millis(500);
        assert!(d.score(SimTime::ZERO) > d.ewma_ns);
    }
}
