//! Power and energy accounting (Fig. 19).
//!
//! Engines report per-backend busy time and DRAM traffic; the meter
//! integrates engine-level active power over the makespan. Constants
//! are calibrated to Fig. 19's three operating points (see [`crate::calib`]).

use serde::{Deserialize, Serialize};

use crate::backend::Backend;
use crate::calib::power as pw;
use crate::calib::SOC_PEAK_BW_GBPS;
use crate::time::SimTime;

/// Accumulated activity of one inference run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EnergyMeter {
    busy_ns: [u64; 3],
    dram_bytes: u64,
    makespan: SimTime,
    /// Whether the CPU ran compute kernels (llama.cpp) rather than just
    /// the control plane.
    cpu_as_compute: bool,
    /// Whether the GPU served as a partitioned assist unit (HeteroLLM)
    /// rather than the primary full-throttle backend.
    gpu_assist: bool,
}

/// The additive counters of an [`EnergyMeter`] at one point of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MeterMark {
    busy_ns: [u64; 3],
    dram_bytes: u64,
}

/// A power/energy summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerReport {
    /// Mean power over the makespan, W.
    pub avg_power_w: f64,
    /// Total energy, J.
    pub energy_j: f64,
    /// Makespan the energy was integrated over.
    pub makespan: SimTime,
}

impl EnergyMeter {
    /// New, empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `dur` of busy time on `backend`.
    pub fn add_busy(&mut self, backend: Backend, dur: SimTime) {
        self.busy_ns[Self::idx(backend)] += dur.as_nanos();
    }

    /// Record DRAM traffic.
    pub fn add_dram_bytes(&mut self, bytes: u64) {
        self.dram_bytes += bytes;
    }

    /// Mark the CPU as a compute backend for this run (affects its
    /// power tier).
    pub fn set_cpu_compute(&mut self, yes: bool) {
        self.cpu_as_compute = yes;
    }

    /// Mark the GPU as an assist unit (low-DVFS power tier).
    pub fn set_gpu_assist(&mut self, yes: bool) {
        self.gpu_assist = yes;
    }

    /// Set the total wall-clock (simulated) duration of the run.
    pub fn set_makespan(&mut self, makespan: SimTime) {
        self.makespan = makespan;
    }

    /// Busy time recorded for a backend.
    pub fn busy(&self, backend: Backend) -> SimTime {
        SimTime::from_nanos(self.busy_ns[Self::idx(backend)])
    }

    /// Snapshot of the additive counters, for [`EnergyMeter::repeat_since`].
    pub(crate) fn mark(&self) -> MeterMark {
        MeterMark {
            busy_ns: self.busy_ns,
            dram_bytes: self.dram_bytes,
        }
    }

    /// Add `times` more copies of the activity recorded since `mark`:
    /// the exact integer result of recording that activity `times`
    /// more times.
    pub(crate) fn repeat_since(&mut self, mark: MeterMark, times: u64) {
        for (now, then) in self.busy_ns.iter_mut().zip(mark.busy_ns) {
            *now += (*now - then) * times;
        }
        self.dram_bytes += (self.dram_bytes - mark.dram_bytes) * times;
    }

    fn idx(backend: Backend) -> usize {
        match backend {
            Backend::Cpu => 0,
            Backend::Gpu => 1,
            Backend::Npu => 2,
        }
    }

    /// Integrate power over the makespan.
    ///
    /// Engine active power is weighted by its duty cycle; DRAM power is
    /// proportional to achieved average bandwidth relative to peak.
    pub fn report(&self) -> PowerReport {
        let t = self.makespan.as_secs_f64();
        if t <= 0.0 {
            return PowerReport {
                avg_power_w: 0.0,
                energy_j: 0.0,
                makespan: self.makespan,
            };
        }
        let duty = |b: Backend| (self.busy(b).as_secs_f64() / t).min(1.0);
        let cpu_w = if self.cpu_as_compute {
            pw::CPU_COMPUTE_W
        } else {
            pw::CPU_CONTROL_W
        };
        let gpu_w = if self.gpu_assist {
            pw::GPU_ASSIST_W
        } else {
            pw::GPU_ACTIVE_W
        };
        let avg_bw_gbps = self.dram_bytes as f64 / t / 1e9;
        let dram_w = pw::DRAM_MAX_W * (avg_bw_gbps / SOC_PEAK_BW_GBPS).min(1.0);
        let avg = pw::BASE_W
            + cpu_w * duty(Backend::Cpu)
            + gpu_w * duty(Backend::Gpu)
            + pw::NPU_ACTIVE_W * duty(Backend::Npu)
            + dram_w;
        PowerReport {
            avg_power_w: avg,
            energy_j: avg * t,
            makespan: self.makespan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_only_draws_more_than_npu_dominant() {
        // PPL-OpenCL-like: GPU busy 100% of a 1 s run.
        let mut gpu_run = EnergyMeter::new();
        gpu_run.add_busy(Backend::Gpu, SimTime::from_millis(1000));
        gpu_run.add_busy(Backend::Cpu, SimTime::from_millis(1000));
        gpu_run.add_dram_bytes(43_000_000_000);
        gpu_run.set_makespan(SimTime::from_millis(1000));

        // Hetero-layer-like: NPU busy 90%, GPU 10%.
        let mut npu_run = EnergyMeter::new();
        npu_run.add_busy(Backend::Npu, SimTime::from_millis(900));
        npu_run.add_busy(Backend::Gpu, SimTime::from_millis(100));
        npu_run.add_busy(Backend::Cpu, SimTime::from_millis(1000));
        npu_run.add_dram_bytes(40_000_000_000);
        npu_run.set_makespan(SimTime::from_millis(1000));

        let g = gpu_run.report();
        let n = npu_run.report();
        assert!(
            g.avg_power_w > n.avg_power_w * 1.4,
            "{} vs {}",
            g.avg_power_w,
            n.avg_power_w
        );
        // Fig. 19 magnitudes: NPU-dominant ≈ 2–3 W, GPU-only ≈ 4–5 W.
        assert!(
            (1.5..=3.2).contains(&n.avg_power_w),
            "npu power {}",
            n.avg_power_w
        );
        assert!(
            (3.5..=5.5).contains(&g.avg_power_w),
            "gpu power {}",
            g.avg_power_w
        );
    }

    #[test]
    fn energy_is_power_times_time() {
        let mut m = EnergyMeter::new();
        m.add_busy(Backend::Gpu, SimTime::from_millis(500));
        m.set_makespan(SimTime::from_millis(2000));
        let r = m.report();
        assert!((r.energy_j - r.avg_power_w * 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_meter_reports_zero() {
        let r = EnergyMeter::new().report();
        assert_eq!(r.avg_power_w, 0.0);
        assert_eq!(r.energy_j, 0.0);
    }

    #[test]
    fn cpu_compute_tier_is_heavy() {
        let mut m = EnergyMeter::new();
        m.add_busy(Backend::Cpu, SimTime::from_millis(1000));
        m.set_cpu_compute(true);
        m.set_makespan(SimTime::from_millis(1000));
        assert!(m.report().avg_power_w > 4.0);
    }
}
