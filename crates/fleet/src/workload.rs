//! Seeded fleet request streams.
//!
//! Same idiom as `heterollm::runtime::conversation_traffic`, extended
//! with per-request priority classes for admission control.

use hetero_soc::SimTime;
use hetero_tensor::rng::draw;
use serde::{Deserialize, Serialize};

/// Priority class of one request, highest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Priority {
    /// A user is waiting on the first token (chat foreground).
    Interactive,
    /// Latency matters but a retry dialog is acceptable.
    Standard,
    /// Offline work (summarization queues, embeddings backfill).
    Batch,
}

impl Priority {
    /// All classes, highest priority first.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Batch];

    /// Stable lowercase name (used as a metrics suffix).
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Batch => "batch",
        }
    }

    /// Index into [`Priority::ALL`].
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Batch => 2,
        }
    }
}

/// One request offered to the fleet router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetRequest {
    /// Stable request id (also the retry-jitter decorrelator).
    pub id: u64,
    /// Arrival time at the router.
    pub arrival: SimTime,
    /// Prompt tokens to prefill.
    pub prompt_tokens: usize,
    /// Tokens to decode.
    pub decode_tokens: usize,
    /// Admission-control class.
    pub priority: Priority,
}

/// Generate `count` seeded requests with mean inter-arrival gap
/// `mean_gap`: gaps are 25%–175% of the mean, prompts 32–511 tokens,
/// responses 8–63 tokens, priorities split ≈50/30/20 across
/// interactive/standard/batch. Deterministic in `seed`.
pub fn fleet_traffic(seed: u64, count: usize, mean_gap: SimTime) -> Vec<FleetRequest> {
    let mut arrival = SimTime::ZERO;
    (0..count as u64)
        .map(|i| {
            let pct = 25 + draw(seed, 4 * i) % 150;
            arrival += SimTime::from_nanos(mean_gap.as_nanos() * pct / 100);
            let pclass = match draw(seed, 4 * i + 3) % 10 {
                0..=4 => Priority::Interactive,
                5..=7 => Priority::Standard,
                _ => Priority::Batch,
            };
            FleetRequest {
                id: i,
                arrival,
                prompt_tokens: 32 + (draw(seed, 4 * i + 1) % 480) as usize,
                decode_tokens: 8 + (draw(seed, 4 * i + 2) % 56) as usize,
                priority: pclass,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_deterministic_and_ordered() {
        let a = fleet_traffic(7, 100, SimTime::from_millis(5));
        let b = fleet_traffic(7, 100, SimTime::from_millis(5));
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|r| r.prompt_tokens >= 32));
    }

    #[test]
    fn all_priorities_appear() {
        let reqs = fleet_traffic(42, 200, SimTime::from_millis(1));
        for p in Priority::ALL {
            assert!(reqs.iter().any(|r| r.priority == p), "{} missing", p.name());
        }
    }
}
