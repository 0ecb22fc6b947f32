//! Unified-memory bandwidth arbiter.
//!
//! Implements the paper's Memory-① characteristic (§3.3): no single
//! initiator can saturate the SoC's DRAM bandwidth — each is capped by
//! its own interface — while concurrent initiators together approach
//! (but do not reach) the SoC peak.

use serde::{Deserialize, Serialize};

use crate::backend::Backend;
use crate::calib;

/// Bandwidth model of the shared LPDDR subsystem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemorySystem {
    /// Peak SoC bandwidth, GB/s.
    pub soc_peak_gbps: f64,
    /// Per-initiator achievable caps, GB/s.
    pub cpu_cap_gbps: f64,
    /// GPU cap.
    pub gpu_cap_gbps: f64,
    /// NPU cap.
    pub npu_cap_gbps: f64,
    /// Fraction of the peak reachable by multiple concurrent initiators
    /// (arbitration/refresh losses).
    pub multi_efficiency: f64,
}

impl Default for MemorySystem {
    fn default() -> Self {
        Self {
            soc_peak_gbps: calib::SOC_PEAK_BW_GBPS,
            cpu_cap_gbps: calib::CPU_MAX_BW_GBPS,
            gpu_cap_gbps: calib::GPU_MAX_BW_GBPS,
            npu_cap_gbps: calib::NPU_MAX_BW_GBPS,
            multi_efficiency: calib::MULTI_INITIATOR_EFFICIENCY,
        }
    }
}

impl MemorySystem {
    /// The solo achievable bandwidth of one backend, GB/s.
    pub fn solo_bw(&self, backend: Backend) -> f64 {
        let cap = self.cap(backend);
        cap.min(self.soc_peak_gbps)
    }

    fn cap(&self, backend: Backend) -> f64 {
        match backend {
            Backend::Cpu => self.cpu_cap_gbps,
            Backend::Gpu => self.gpu_cap_gbps,
            Backend::Npu => self.npu_cap_gbps,
        }
    }

    /// Effective per-backend bandwidth when `active` backends stream
    /// concurrently. Each backend is limited by its own cap, and the
    /// total is limited by `multi_efficiency × soc_peak` (for more than
    /// one initiator) with proportional scaling.
    pub fn concurrent_bw(&self, active: &[Backend]) -> Vec<(Backend, f64)> {
        if active.len() == 1 {
            return vec![(active[0], self.solo_bw(active[0]))];
        }
        let scale = self.contention_scale(active);
        active.iter().map(|&b| (b, self.cap(b) * scale)).collect()
    }

    /// `backend`'s entry of [`MemorySystem::concurrent_bw`], without
    /// building the vector; `None` if `backend` is not in `active`.
    pub fn concurrent_bw_of(&self, backend: Backend, active: &[Backend]) -> Option<f64> {
        if !active.contains(&backend) {
            return None;
        }
        if active.len() == 1 {
            return Some(self.solo_bw(backend));
        }
        Some(self.cap(backend) * self.contention_scale(active))
    }

    /// The proportional scale-down that fits several initiators' caps
    /// into the multi-initiator budget.
    fn contention_scale(&self, active: &[Backend]) -> f64 {
        let total: f64 = active.iter().map(|&b| self.cap(b)).sum();
        let budget = self.soc_peak_gbps * self.multi_efficiency;
        if total > budget {
            budget / total
        } else {
            1.0
        }
    }

    /// Total bandwidth observed when `active` backends stream together
    /// (the quantity Fig. 6 plots).
    pub fn total_bw(&self, active: &[Backend]) -> f64 {
        self.concurrent_bw(active).iter().map(|(_, bw)| bw).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_initiator_underutilizes_soc() {
        let mem = MemorySystem::default();
        for b in Backend::ALL {
            let bw = mem.solo_bw(b);
            assert!(bw < mem.soc_peak_gbps * 0.7, "{b} solo {bw} too high");
            assert!((40.0..=45.0).contains(&bw), "{b} solo {bw} out of band");
        }
    }

    #[test]
    fn gpu_npu_reach_measured_combined_bandwidth() {
        let mem = MemorySystem::default();
        let total = mem.total_bw(&[Backend::Gpu, Backend::Npu]);
        assert!((total - 59.1).abs() < 0.2, "combined {total}");
        // And it beats either alone by a wide margin.
        assert!(total > mem.solo_bw(Backend::Gpu) * 1.3);
    }

    #[test]
    fn concurrent_allocation_respects_caps() {
        let mem = MemorySystem::default();
        for (b, bw) in mem.concurrent_bw(&[Backend::Gpu, Backend::Npu]) {
            assert!(bw <= mem.solo_bw(b) + 1e-9, "{b} got {bw}");
            assert!(bw > 0.0);
        }
    }

    #[test]
    fn three_initiators_bounded_by_budget() {
        let mem = MemorySystem::default();
        let total = mem.total_bw(&[Backend::Cpu, Backend::Gpu, Backend::Npu]);
        assert!(total <= mem.soc_peak_gbps * mem.multi_efficiency + 1e-9);
        assert!(total > 55.0);
    }

    #[test]
    fn scalar_accessor_matches_vector() {
        let mut mem = MemorySystem::default();
        let sets: [&[Backend]; 5] = [
            &[],
            &[Backend::Npu],
            &[Backend::Gpu, Backend::Npu],
            &[Backend::Npu, Backend::Gpu],
            &[Backend::Cpu, Backend::Gpu, Backend::Npu],
        ];
        for factor in [0.97, 1.0, 1.03, 3.0] {
            mem.soc_peak_gbps = calib::SOC_PEAK_BW_GBPS * factor;
            for active in sets {
                let all = mem.concurrent_bw(active);
                for b in Backend::ALL {
                    let want = all.iter().find(|(x, _)| *x == b).map(|&(_, bw)| bw);
                    let got = mem.concurrent_bw_of(b, active);
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{b} {active:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_active_set() {
        let mem = MemorySystem::default();
        assert!(mem.concurrent_bw(&[]).is_empty());
        assert_eq!(mem.total_bw(&[]), 0.0);
    }
}
