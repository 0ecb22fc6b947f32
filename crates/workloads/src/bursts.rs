//! GPU burst extraction: convert a simulated engine run into the burst
//! profile the render-interference simulation consumes (Fig. 18).
//!
//! An engine's GPU usage pattern — continuous queue flooding
//! (PPL-OpenCL) versus short bursts gated by NPU work (HeteroLLM) — is
//! exactly what determines whether a co-running game keeps its frame
//! rate. The extraction coalesces adjacent GPU intervals and records
//! the idle gaps between them.

use hetero_soc::interference::LlmBurst;
use hetero_soc::soc::TraceEvent;
use hetero_soc::{Backend, SimTime};

/// Coalesce the GPU intervals of `events` into bursts, merging
/// intervals separated by less than `merge_gap`.
pub fn gpu_bursts(events: &[TraceEvent], merge_gap: SimTime) -> Vec<LlmBurst> {
    let mut gpu: Vec<(SimTime, SimTime)> = events
        .iter()
        .filter(|e| e.backend == Backend::Gpu && e.duration > SimTime::ZERO)
        .map(|e| (e.start, e.start + e.duration))
        .collect();
    gpu.sort_unstable_by_key(|&(s, _)| s);

    // Coalesce.
    let mut merged: Vec<(SimTime, SimTime)> = Vec::new();
    for (s, e) in gpu {
        match merged.last_mut() {
            Some((_, last_end)) if s <= *last_end + merge_gap => {
                *last_end = (*last_end).max(e);
            }
            _ => merged.push((s, e)),
        }
    }

    // Convert to (gap, duration) pairs.
    let mut bursts = Vec::with_capacity(merged.len());
    let mut prev_end = SimTime::ZERO;
    for (s, e) in merged {
        bursts.push(LlmBurst {
            gap_before: s.saturating_sub(prev_end),
            gpu_time: e - s,
        });
        prev_end = e;
    }
    bursts
}

/// Split bursts into paced sub-kernels.
///
/// HeteroLLM's control plane submits GPU kernels one at a time: the
/// fast-synchronization thread polls for completion and only then
/// submits the next kernel (§4.2), so a co-running application's work
/// can enter the FIFO queue between any two kernels. This chops each
/// burst into chunks of at most `max_chunk`, separated by the
/// `pacing_gap` submission latency. Flood-style engines (PPL-OpenCL)
/// must *not* be paced — they enqueue their whole kernel stream
/// asynchronously, which is exactly why they starve the render queue.
pub fn pace_bursts(bursts: &[LlmBurst], max_chunk: SimTime, pacing_gap: SimTime) -> Vec<LlmBurst> {
    assert!(max_chunk > SimTime::ZERO, "max_chunk must be positive");
    let mut out = Vec::new();
    for b in bursts {
        let mut remaining = b.gpu_time;
        let mut first = true;
        while remaining > SimTime::ZERO {
            let chunk = remaining.min(max_chunk);
            out.push(LlmBurst {
                gap_before: if first {
                    b.gap_before.max(pacing_gap)
                } else {
                    pacing_gap
                },
                gpu_time: chunk,
            });
            remaining = remaining - chunk;
            first = false;
        }
    }
    out
}

/// The fraction of the trace's span during which the GPU was busy.
pub fn gpu_occupancy(bursts: &[LlmBurst]) -> f64 {
    let busy: SimTime = bursts.iter().map(|b| b.gpu_time).sum();
    let total: SimTime = bursts.iter().map(|b| b.gap_before + b.gpu_time).sum();
    if total == SimTime::ZERO {
        return 0.0;
    }
    busy.as_secs_f64() / total.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(backend: Backend, start_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            backend,
            start: SimTime::from_micros(start_us),
            duration: SimTime::from_micros(dur_us),
        }
    }

    #[test]
    fn extracts_gaps_and_durations() {
        let events = vec![
            ev(Backend::Gpu, 0, 100),
            ev(Backend::Npu, 100, 500),
            ev(Backend::Gpu, 600, 50),
        ];
        let bursts = gpu_bursts(&events, SimTime::ZERO);
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].gap_before, SimTime::ZERO);
        assert_eq!(bursts[0].gpu_time, SimTime::from_micros(100));
        assert_eq!(bursts[1].gap_before, SimTime::from_micros(500));
        assert_eq!(bursts[1].gpu_time, SimTime::from_micros(50));
    }

    #[test]
    fn coalesces_adjacent_intervals() {
        let events = vec![
            ev(Backend::Gpu, 0, 100),
            ev(Backend::Gpu, 105, 100), // 5 µs gap
            ev(Backend::Gpu, 400, 100),
        ];
        let bursts = gpu_bursts(&events, SimTime::from_micros(10));
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].gpu_time, SimTime::from_micros(205));
    }

    #[test]
    fn ignores_non_gpu_events() {
        let events = vec![ev(Backend::Npu, 0, 100), ev(Backend::Cpu, 100, 100)];
        assert!(gpu_bursts(&events, SimTime::ZERO).is_empty());
    }

    #[test]
    fn occupancy_computation() {
        let bursts = vec![
            LlmBurst {
                gap_before: SimTime::from_micros(75),
                gpu_time: SimTime::from_micros(25),
            },
            LlmBurst {
                gap_before: SimTime::from_micros(75),
                gpu_time: SimTime::from_micros(25),
            },
        ];
        assert!((gpu_occupancy(&bursts) - 0.25).abs() < 1e-9);
        assert_eq!(gpu_occupancy(&[]), 0.0);
    }

    #[test]
    fn pacing_splits_long_bursts() {
        let bursts = vec![LlmBurst {
            gap_before: SimTime::from_millis(5),
            gpu_time: SimTime::from_micros(7_000),
        }];
        let paced = pace_bursts(&bursts, SimTime::from_millis(2), SimTime::from_micros(15));
        assert_eq!(paced.len(), 4);
        assert_eq!(paced[0].gap_before, SimTime::from_millis(5));
        assert_eq!(paced[1].gap_before, SimTime::from_micros(15));
        let total: SimTime = paced.iter().map(|b| b.gpu_time).sum();
        assert_eq!(total, SimTime::from_micros(7_000));
        assert!(paced.iter().all(|b| b.gpu_time <= SimTime::from_millis(2)));
        // Pacing gaps are non-zero, so the interference simulation uses
        // dependency (not flooding) semantics.
        assert!(paced.iter().all(|b| b.gap_before > SimTime::ZERO));
    }

    #[test]
    fn pacing_keeps_short_bursts_intact() {
        let bursts = vec![LlmBurst {
            gap_before: SimTime::ZERO,
            gpu_time: SimTime::from_micros(500),
        }];
        let paced = pace_bursts(&bursts, SimTime::from_millis(2), SimTime::from_micros(15));
        assert_eq!(paced.len(), 1);
        assert_eq!(paced[0].gpu_time, SimTime::from_micros(500));
    }

    #[test]
    fn hetero_engine_trace_has_low_gpu_occupancy() {
        // End-to-end: a Hetero-layer prefill leaves the GPU mostly idle
        // (NPU-dominant), unlike a GPU-only engine.
        use heterollm::engines::{BaselineEngine, Engine};
        use heterollm::ModelConfig;

        let model = ModelConfig::llama_8b();
        let mut hetero =
            BaselineEngine::hetero_layer(&model, hetero_soc::sync::SyncMechanism::Fast);
        hetero.soc_mut().enable_trace();
        hetero.prefill(256);
        let h_occ = gpu_occupancy(&gpu_bursts(hetero.soc().trace(), SimTime::from_micros(20)));

        let mut ppl = BaselineEngine::gpu(&model, heterollm::engines::GpuTier::PplOpenCl);
        ppl.soc_mut().enable_trace();
        ppl.prefill(256);
        let p_occ = gpu_occupancy(&gpu_bursts(ppl.soc().trace(), SimTime::from_micros(20)));

        assert!(h_occ < 0.5, "hetero occupancy {h_occ}");
        assert!(p_occ > 0.95, "ppl occupancy {p_occ}");
    }
}
