//! The SoC façade: a simulated clock plus the per-backend cost models,
//! bandwidth arbiter, synchronization model and energy meter.

use serde::{Deserialize, Serialize};

use crate::backend::Backend;
use crate::cpu::CpuModel;
use crate::gpu::GpuModel;
use crate::kernel::KernelDesc;
use crate::memory::MemorySystem;
use crate::npu::NpuModel;
use crate::parallel::{overlap, OverlapOutcome};
use crate::power::{EnergyMeter, MeterMark};
use crate::sync::{Dominance, SyncMechanism, SyncModel};
use crate::time::SimTime;

/// Full configuration of a simulated SoC.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SocConfig {
    /// GPU cost model.
    pub gpu: GpuModel,
    /// NPU cost model.
    pub npu: NpuModel,
    /// CPU cost model.
    pub cpu: CpuModel,
    /// Memory bandwidth arbiter.
    pub mem: MemorySystem,
    /// Synchronization cost model.
    pub sync: SyncModel,
}

impl SocConfig {
    /// The paper's evaluation platform with HeteroLLM's fast
    /// synchronization enabled.
    pub fn snapdragon_8gen3() -> Self {
        Self {
            gpu: GpuModel::default(),
            npu: NpuModel::default(),
            cpu: CpuModel::default(),
            mem: MemorySystem::default(),
            sync: SyncModel::new(SyncMechanism::Fast),
        }
    }

    /// Same platform with the given synchronization mechanism.
    pub fn with_sync(mut self, mechanism: SyncMechanism) -> Self {
        self.sync = SyncModel::new(mechanism);
        self
    }

    /// Same platform with a GPU kernel-efficiency tier applied
    /// (baseline frameworks; see [`crate::calib::engine_eff`]).
    pub fn with_gpu_efficiency(mut self, efficiency: f64) -> Self {
        self.gpu = GpuModel::with_efficiency(efficiency);
        self
    }
}

/// One recorded execution interval (for interference modelling and
/// debugging).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Which backend executed.
    pub backend: Backend,
    /// Interval start.
    pub start: SimTime,
    /// Interval duration.
    pub duration: SimTime,
}

/// The additive state of a [`Soc`] at one point of a run: the clock
/// and the energy meter's counters (see [`Soc::repeat_since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocMark {
    clock: SimTime,
    meter: MeterMark,
}

/// A simulated SoC instance with a clock and an energy meter.
///
/// # Examples
///
/// ```
/// use hetero_soc::{Backend, KernelDesc, Soc, SocConfig};
/// use hetero_tensor::shape::MatmulShape;
///
/// let mut soc = Soc::new(SocConfig::snapdragon_8gen3());
/// let gemm = KernelDesc::matmul_w4a16(MatmulShape::new(256, 4096, 4096));
/// // The NPU finishes a well-shaped GEMM far ahead of the GPU.
/// assert!(soc.solo_kernel_time(Backend::Npu, &gemm)
///     < soc.solo_kernel_time(Backend::Gpu, &gemm));
/// soc.run_serial(Backend::Npu, &[gemm]);
/// assert!(soc.clock() > hetero_soc::SimTime::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct Soc {
    cfg: SocConfig,
    clock: SimTime,
    meter: EnergyMeter,
    record_trace: bool,
    events: Vec<TraceEvent>,
}

impl Soc {
    /// New SoC at time zero.
    pub fn new(cfg: SocConfig) -> Self {
        Self {
            cfg,
            clock: SimTime::ZERO,
            meter: EnergyMeter::new(),
            record_trace: false,
            events: Vec::new(),
        }
    }

    /// Enable per-interval trace recording.
    pub fn enable_trace(&mut self) {
        self.record_trace = true;
    }

    /// Whether per-interval trace recording is on.
    pub fn trace_enabled(&self) -> bool {
        self.record_trace
    }

    /// Recorded trace events.
    pub fn trace(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The configuration in use.
    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }

    /// Replace the configuration mid-run, preserving the clock, meter
    /// and recorded trace.
    ///
    /// This is how a runtime controller applies a disturbance-adjusted
    /// profile (thermal derating, bandwidth contention) to an engine
    /// without resetting its simulated session.
    pub fn set_config(&mut self, cfg: SocConfig) {
        self.cfg = cfg;
    }

    /// Current simulated time.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// The energy meter (finalized via [`Soc::finish`]).
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Snapshot of the clock and meter, for [`Soc::repeat_since`].
    pub fn mark(&self) -> SocMark {
        SocMark {
            clock: self.clock,
            meter: self.meter.mark(),
        }
    }

    /// Charge `times` more copies of everything that ran since `mark`
    /// — clock, per-backend busy time and DRAM traffic — without
    /// running it again.
    ///
    /// Kernel costs depend on the configuration and the kernel, never
    /// on the clock, so under an unchanged configuration this is
    /// exactly the integer result of re-running the same kernels
    /// `times` more times.
    ///
    /// # Panics
    ///
    /// Panics if trace recording is on: the repeated intervals would
    /// be missing from the trace, so tracing callers must run every
    /// kernel.
    pub fn repeat_since(&mut self, mark: SocMark, times: u64) {
        assert!(!self.record_trace, "repeat_since would drop trace events");
        self.clock += SimTime::from_nanos((self.clock - mark.clock).as_nanos() * times);
        self.meter.repeat_since(mark.meter, times);
    }

    /// Mark the CPU as a compute backend for power accounting.
    pub fn set_cpu_compute(&mut self) {
        self.meter.set_cpu_compute(true);
    }

    /// Mark the GPU as a partitioned assist unit for power accounting.
    pub fn set_gpu_assist(&mut self) {
        self.meter.set_gpu_assist(true);
    }

    /// Kernel duration on `backend` with the memory system granted
    /// exclusively to it.
    pub fn solo_kernel_time(&self, backend: Backend, kernel: &KernelDesc) -> SimTime {
        let bw = self.cfg.mem.solo_bw(backend);
        self.kernel_time_at(backend, kernel, bw)
    }

    /// Kernel duration on `backend` while `active` backends stream
    /// concurrently (`backend` must be in `active`).
    pub fn contended_kernel_time(
        &self,
        backend: Backend,
        kernel: &KernelDesc,
        active: &[Backend],
    ) -> SimTime {
        let bw = self
            .cfg
            .mem
            .concurrent_bw_of(backend, active)
            .unwrap_or_else(|| self.cfg.mem.solo_bw(backend));
        self.kernel_time_at(backend, kernel, bw)
    }

    fn kernel_time_at(&self, backend: Backend, kernel: &KernelDesc, bw: f64) -> SimTime {
        match backend {
            Backend::Cpu => self.cfg.cpu.kernel_time(kernel, bw),
            Backend::Gpu => self.cfg.gpu.kernel_time(kernel, bw),
            Backend::Npu => self.cfg.npu.kernel_time(kernel, bw),
        }
    }

    /// Execute `kernels` serially on one backend, advancing the clock
    /// and metering energy. Returns the elapsed duration.
    pub fn run_serial(&mut self, backend: Backend, kernels: &[KernelDesc]) -> SimTime {
        let mut total = SimTime::ZERO;
        let mut bytes = 0u64;
        for k in kernels {
            total += self.solo_kernel_time(backend, k);
            bytes += k.bytes();
        }
        self.commit(backend, total, bytes);
        total
    }

    /// Execute a GPU kernel set and an NPU kernel set concurrently,
    /// applying the bandwidth-contention overlap model plus one
    /// rendezvous synchronization. Returns the overlap outcome; the
    /// clock advances by `makespan + rendezvous`.
    pub fn run_parallel(
        &mut self,
        gpu_kernels: &[KernelDesc],
        npu_kernels: &[KernelDesc],
        dominance: Dominance,
    ) -> OverlapOutcome {
        let both = [Backend::Gpu, Backend::Npu];
        let sum = |soc: &Self, backend: Backend, ks: &[KernelDesc], contended: bool| {
            ks.iter()
                .map(|k| {
                    if contended {
                        soc.contended_kernel_time(backend, k, &both)
                    } else {
                        soc.solo_kernel_time(backend, k)
                    }
                })
                .sum::<SimTime>()
        };
        let g_cont = sum(self, Backend::Gpu, gpu_kernels, true);
        let g_solo = sum(self, Backend::Gpu, gpu_kernels, false);
        let n_cont = sum(self, Backend::Npu, npu_kernels, true);
        let n_solo = sum(self, Backend::Npu, npu_kernels, false);

        let outcome = overlap(g_cont, g_solo, n_cont, n_solo);
        let sync = self.cfg.sync.rendezvous(dominance);

        let bytes: u64 = gpu_kernels
            .iter()
            .chain(npu_kernels)
            .map(|k| k.bytes())
            .sum();
        if self.record_trace {
            self.events.push(TraceEvent {
                backend: Backend::Gpu,
                start: self.clock,
                duration: outcome.a_finish,
            });
            self.events.push(TraceEvent {
                backend: Backend::Npu,
                start: self.clock,
                duration: outcome.b_finish,
            });
        }
        self.meter.add_busy(Backend::Gpu, outcome.a_finish);
        self.meter.add_busy(Backend::Npu, outcome.b_finish);
        self.meter.add_dram_bytes(bytes);
        self.clock += outcome.makespan() + sync;
        outcome
    }

    /// Pay a serial backend-switch synchronization cost.
    pub fn backend_switch(&mut self) -> SimTime {
        let cost = self.cfg.sync.backend_switch();
        self.clock += cost;
        cost
    }

    /// Advance the clock by idle/waiting time.
    pub fn advance(&mut self, t: SimTime) {
        self.clock += t;
    }

    fn commit(&mut self, backend: Backend, dur: SimTime, bytes: u64) {
        if self.record_trace {
            self.events.push(TraceEvent {
                backend,
                start: self.clock,
                duration: dur,
            });
        }
        self.meter.add_busy(backend, dur);
        self.meter.add_dram_bytes(bytes);
        self.clock += dur;
    }

    /// Finalize the run: stamps the makespan into the energy meter and
    /// charges CPU control-plane residency for the full duration.
    pub fn finish(&mut self) -> &EnergyMeter {
        self.meter.set_makespan(self.clock);
        // The control plane (sync threads, scheduling) runs for the
        // whole inference unless the CPU was itself the compute tier.
        let cpu_busy = self.meter.busy(Backend::Cpu);
        if cpu_busy < self.clock {
            self.meter.add_busy(Backend::Cpu, self.clock - cpu_busy);
        }
        &self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_tensor::shape::MatmulShape;

    fn soc() -> Soc {
        Soc::new(SocConfig::snapdragon_8gen3())
    }

    fn big_gemm() -> KernelDesc {
        KernelDesc::matmul_w4a16(MatmulShape::new(1024, 4096, 4096))
    }

    #[test]
    fn serial_execution_advances_clock() {
        let mut s = soc();
        let t = s.run_serial(Backend::Gpu, &[big_gemm(), big_gemm()]);
        assert_eq!(s.clock(), t);
        assert!(t > SimTime::ZERO);
        assert_eq!(s.meter().busy(Backend::Gpu), t);
    }

    #[test]
    fn npu_beats_gpu_on_good_shapes() {
        let s = soc();
        // Permuted order: streamed operand large, stationary small.
        let k = KernelDesc::matmul_w4a16(MatmulShape::new(4096, 4096, 1024));
        let npu = s.solo_kernel_time(Backend::Npu, &k);
        let gpu = s.solo_kernel_time(Backend::Gpu, &k);
        assert!(
            npu.as_secs_f64() * 3.0 < gpu.as_secs_f64(),
            "npu {npu} should be ≫ faster than gpu {gpu}"
        );
    }

    #[test]
    fn contended_time_never_faster_than_solo() {
        let s = soc();
        let k = big_gemm();
        for b in [Backend::Gpu, Backend::Npu] {
            let solo = s.solo_kernel_time(b, &k);
            let cont = s.contended_kernel_time(b, &k, &[Backend::Gpu, Backend::Npu]);
            assert!(cont >= solo, "{b}: {cont} < {solo}");
        }
    }

    #[test]
    fn parallel_section_beats_serial_for_balanced_work() {
        // Memory-bound decode-style kernels: parallel GPU+NPU uses more
        // total bandwidth than either alone.
        let decode = KernelDesc::matmul_w4a16(MatmulShape::new(4096, 4096, 1));
        let mut s1 = soc();
        let serial = s1.run_serial(Backend::Gpu, &[decode.clone(), decode.clone()]);
        let mut s2 = soc();
        let out = s2.run_parallel(
            std::slice::from_ref(&decode),
            std::slice::from_ref(&decode),
            Dominance::GpuDominant,
        );
        assert!(
            out.makespan() < serial,
            "parallel {} should beat serial {serial}",
            out.makespan()
        );
    }

    #[test]
    fn finish_charges_control_plane() {
        let mut s = soc();
        s.run_serial(Backend::Npu, &[big_gemm()]);
        let clock = s.clock();
        let meter = s.finish();
        assert_eq!(meter.busy(Backend::Cpu), clock);
        let report = meter.report();
        assert!(report.avg_power_w > 0.0);
    }

    #[test]
    fn trace_records_intervals() {
        let mut s = soc();
        s.enable_trace();
        s.run_serial(Backend::Gpu, &[big_gemm()]);
        s.run_parallel(&[big_gemm()], &[big_gemm()], Dominance::NpuDominant);
        assert_eq!(s.trace().len(), 3);
        assert_eq!(s.trace()[0].backend, Backend::Gpu);
    }

    #[test]
    fn repeat_since_equals_running_again() {
        let step = |s: &mut Soc| {
            s.run_serial(Backend::Gpu, &[big_gemm()]);
            s.backend_switch();
            s.run_parallel(&[big_gemm()], &[big_gemm()], Dominance::GpuDominant);
        };
        let mut walked = soc();
        walked.run_serial(Backend::Npu, &[big_gemm()]);
        let mut repeated = walked.clone();
        for _ in 0..5 {
            step(&mut walked);
        }
        let mark = repeated.mark();
        step(&mut repeated);
        repeated.repeat_since(mark, 4);
        assert_eq!(repeated.mark(), walked.mark());
        assert_eq!(repeated.finish().report(), walked.finish().report());
    }

    #[test]
    fn backend_switch_costs_depend_on_sync() {
        let mut fast = soc();
        let mut driver = Soc::new(SocConfig::snapdragon_8gen3().with_sync(SyncMechanism::Driver));
        let f = fast.backend_switch();
        let d = driver.backend_switch();
        assert!(d.as_nanos() > f.as_nanos() * 10);
    }
}
