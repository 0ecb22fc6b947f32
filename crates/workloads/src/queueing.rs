//! Request-queueing simulation: on-device serving under bursty load.
//!
//! Mobile assistants receive requests sporadically, but an on-device
//! engine is a single server — when a notification-summarizer fires
//! while a chat response streams, the second request queues. This
//! module drives per-request latencies (from any engine) through a
//! FIFO queueing simulation and reports waiting-time percentiles.

use hetero_soc::des::FifoServer;
use hetero_soc::SimTime;
use heterollm::obs::metrics::exact_quantile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One request in an arrival trace.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Request {
    /// Arrival time.
    pub arrival: SimTime,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Decode length in tokens.
    pub decode_len: usize,
}

/// Generate a seeded bursty arrival trace: exponential-ish gaps with
/// occasional bursts, prompt/decode lengths in the given ranges.
pub fn bursty_trace(
    seed: u64,
    count: usize,
    mean_gap: SimTime,
    prompt_range: (usize, usize),
    decode_range: (usize, usize),
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = SimTime::ZERO;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        // Geometric-ish gap: sum of two uniforms biases toward the
        // mean; one-in-five requests arrive in a burst (tiny gap).
        let gap = if rng.gen_bool(0.2) {
            mean_gap.scale(0.02)
        } else {
            mean_gap.scale(rng.gen_range(0.2..2.0))
        };
        t += gap;
        out.push(Request {
            arrival: t,
            prompt_len: rng.gen_range(prompt_range.0..=prompt_range.1),
            decode_len: rng.gen_range(decode_range.0..=decode_range.1),
        });
    }
    out
}

/// Per-request outcome of a queueing simulation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RequestOutcome {
    /// Time spent waiting behind earlier requests.
    pub queue_wait: SimTime,
    /// Service (inference) time.
    pub service: SimTime,
    /// Arrival-to-first-token latency (wait + prefill portion is not
    /// separable here; this is wait + full service start latency).
    pub ttft: SimTime,
}

/// Aggregate percentiles of a queueing run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct QueueStats {
    /// Median time to completion start (wait).
    pub p50_wait: SimTime,
    /// 95th-percentile wait.
    pub p95_wait: SimTime,
    /// Server utilization over the makespan.
    pub utilization: f64,
}

/// Run a FIFO queueing simulation given a latency oracle
/// `service_time(prompt_len, decode_len)`.
pub fn simulate_queue(
    trace: &[Request],
    mut service_time: impl FnMut(usize, usize) -> SimTime,
) -> (Vec<RequestOutcome>, QueueStats) {
    let mut server = FifoServer::new();
    let mut outcomes = Vec::with_capacity(trace.len());
    let mut busy = SimTime::ZERO;
    for r in trace {
        let service = service_time(r.prompt_len, r.decode_len);
        let (start, _end) = server.serve(r.arrival, service);
        busy += service;
        outcomes.push(RequestOutcome {
            queue_wait: start - r.arrival,
            service,
            ttft: start - r.arrival + service.scale(0.2), // first token ≈ prefill share
        });
    }
    let makespan = server.free_at();
    let mut waits: Vec<SimTime> = outcomes.iter().map(|o| o.queue_wait).collect();
    waits.sort_unstable();
    let stats = QueueStats {
        p50_wait: exact_quantile(&waits, 50, 100),
        p95_wait: exact_quantile(&waits, 95, 100),
        utilization: if makespan == SimTime::ZERO {
            0.0
        } else {
            busy.as_secs_f64() / makespan.as_secs_f64()
        },
    };
    (outcomes, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn trace_is_deterministic_and_ordered() {
        let a = bursty_trace(1, 40, ms(500), (32, 256), (16, 64));
        let b = bursty_trace(1, 40, ms(500), (32, 256), (16, 64));
        assert_eq!(a.len(), 40);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.prompt_len, y.prompt_len);
        }
        assert!(a.windows(2).all(|w| w[1].arrival >= w[0].arrival));
    }

    #[test]
    fn idle_server_has_zero_wait() {
        // Huge gaps, tiny service: nobody queues.
        let trace = bursty_trace(2, 30, SimTime::from_secs_f64(100.0), (32, 64), (4, 8));
        let (outcomes, stats) = simulate_queue(&trace, |_, _| ms(10));
        assert!(outcomes.iter().all(|o| o.queue_wait == SimTime::ZERO));
        assert_eq!(stats.p95_wait, SimTime::ZERO);
        assert!(stats.utilization < 0.01);
    }

    #[test]
    fn empty_trace_has_zero_waits() {
        let (outcomes, stats) = simulate_queue(&[], |_, _| ms(10));
        assert!(outcomes.is_empty());
        assert_eq!(stats.p50_wait, SimTime::ZERO);
        assert_eq!(stats.p95_wait, SimTime::ZERO);
        assert_eq!(stats.utilization, 0.0);
    }

    #[test]
    fn overloaded_server_builds_queue() {
        // Service far longer than the mean gap: waits accumulate.
        let trace = bursty_trace(3, 30, ms(100), (32, 64), (4, 8));
        let (outcomes, stats) = simulate_queue(&trace, |_, _| ms(500));
        assert!(stats.p95_wait > ms(1000), "p95 {}", stats.p95_wait);
        assert!(stats.utilization > 0.9);
        // Waits grow over the trace for a saturated queue.
        assert!(outcomes.last().expect("outcomes").queue_wait > outcomes[0].queue_wait);
    }

    #[test]
    fn faster_engine_cuts_tail_latency() {
        let trace = bursty_trace(4, 60, ms(800), (64, 256), (16, 64));
        let (_, slow) = simulate_queue(&trace, |p, d| {
            SimTime::from_secs_f64(p as f64 / 70.0 + d as f64 / 11.0)
        });
        let (_, fast) = simulate_queue(&trace, |p, d| {
            SimTime::from_secs_f64(p as f64 / 320.0 + d as f64 / 14.0)
        });
        assert!(fast.p95_wait < slow.p95_wait);
        assert!(fast.utilization < slow.utilization);
    }
}
