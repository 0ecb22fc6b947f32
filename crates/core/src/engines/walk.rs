//! The one plan walk: how every engine runs a phase trace, written
//! once and run in two cost domains.
//!
//! A [`Planner`] is an engine's per-op policy: a partition plan (or
//! none) for each weight Matmul, the host backend of every other op,
//! and the NPU kernel of a lowered NPU sub-problem. [`SolverPlanner`]
//! solves plans per `(op, m)` (Hetero-tensor);
//! [`crate::engines::baseline::FixedRoute`] is a baseline's fixed
//! route. [`run_phase`] walks a [`PhaseTrace`]: a planned weight Matmul
//! runs its plan's lowering ([`hetero_graph::PartitionPlan::lower`]),
//! everything else runs on the host backend, and a serial step pays a
//! backend switch whenever the backend changes. The walk is generic
//! over a [`CostDomain`]:
//!
//! - [`Des`] executes each step on the discrete-event [`Soc`] and feeds
//!   the per-kernel [`Observers`]. Every engine
//!   ([`crate::engines::WalkEngine`]) and the speculative-decoding
//!   drivers run here.
//! - [`Intervals`] prices each step as a [`CostInterval`] without
//!   advancing any clock. [`crate::admit::HeteroMirror`] and the
//!   fallback mirrors run here.
//!
//! Because both domains share the walk, a mirror's bound covers
//! exactly the steps the engine executes.

use hetero_profiler::{CostInterval, CostProvider};
use hetero_soc::sync::{Dominance, SyncMechanism, SyncModel};
use hetero_soc::{Backend, KernelDesc, SimTime, Soc, SocMark};
use hetero_solver::{PartitionPlan, PlanChoice, PlanTable, Solver, SolverConfig};
use hetero_tensor::shape::MatmulShape;

use crate::engines::{gpu_kernel, npu_kernel};
use crate::error::EngineError;
use crate::obs::{Timeline, TimelineRecorder};
use crate::trace::{ConcurrencyLog, ConcurrencyRecorder, OpRole, PhaseTrace, TraceOp};

/// An engine's per-op policy for [`run_phase`]. Prefill walks are
/// NPU-dominant and decode walks GPU-dominant, so `dominance` also
/// names the phase.
pub(crate) trait Planner {
    /// The plan for the weight Matmul `op` at `shape`, or `None` to
    /// run its trace kernel unpartitioned on [`Planner::host`].
    fn plan(
        &mut self,
        op: &'static str,
        shape: MatmulShape,
        dominance: Dominance,
    ) -> Option<PartitionPlan>;

    /// The backend of every op that is not a planned weight Matmul.
    fn host(&self) -> Backend {
        Backend::Gpu
    }

    /// The NPU kernel of one lowered NPU sub-problem (logical shape).
    fn npu_kernel(&self, shape: MatmulShape) -> KernelDesc {
        npu_kernel(shape)
    }

    /// Per-request prefill prologue on the DES, before the walk (graph
    /// preparation). Nothing by default.
    fn prepare(&mut self, _des: &mut Des, _prompt_len: usize) {}
}

/// The solver-backed planner: NPU-dominant prefill plans and
/// GPU-dominant decode plans, each solved once per `(op, m)` and
/// memoized.
pub struct SolverPlanner<P: CostProvider> {
    prefill_solver: Solver<P>,
    decode_solver: Solver<P>,
    prefill_table: PlanTable,
    decode_table: PlanTable,
}

impl<P: CostProvider + Clone> SolverPlanner<P> {
    /// Planner over `provider` with the standard prefill graph sizes
    /// and single-row decode.
    pub(crate) fn standard(provider: P) -> Self {
        Self::new(provider, SolverConfig::default(), SolverConfig::decode(1))
    }

    /// Planner with explicit prefill and decode solver settings.
    ///
    /// Partition plans are part of the *design* and always assume fast
    /// synchronization; the runtime's sync mechanism only changes what
    /// each rendezvous costs (the Figs. 15/17 ablation varies the
    /// mechanism, not the plans).
    pub(crate) fn new(provider: P, prefill: SolverConfig, decode: SolverConfig) -> Self {
        let fast = |cfg| SolverConfig {
            sync: SyncModel::new(SyncMechanism::Fast),
            ..cfg
        };
        Self {
            prefill_solver: Solver::new(provider.clone(), fast(prefill)),
            decode_solver: Solver::new(provider, fast(decode)),
            prefill_table: PlanTable::new(),
            decode_table: PlanTable::new(),
        }
    }
}

impl<P: CostProvider> SolverPlanner<P> {
    /// The solved choice for `op` at `shape`: prefill plans are solved
    /// NPU-dominant, decode plans GPU-dominant.
    pub(crate) fn choice(
        &mut self,
        op: &'static str,
        shape: MatmulShape,
        dominance: Dominance,
    ) -> PlanChoice {
        let (table, solver) = match dominance {
            Dominance::NpuDominant => (&mut self.prefill_table, &self.prefill_solver),
            Dominance::GpuDominant => (&mut self.decode_table, &self.decode_solver),
        };
        table.get_or_solve(solver, op, shape, dominance)
    }
}

impl<P: CostProvider> Planner for SolverPlanner<P> {
    fn plan(
        &mut self,
        op: &'static str,
        shape: MatmulShape,
        dominance: Dominance,
    ) -> Option<PartitionPlan> {
        Some(self.choice(op, shape, dominance).plan)
    }
}

/// A cost domain for [`run_phase`]. Each domain carries the
/// backend-switch machine: the backend the last step left primed.
pub(crate) trait CostDomain {
    /// A snapshot of the accumulated cost, for [`CostDomain::repeat_since`].
    type Mark: Copy;

    /// Run `kernel` serially on `backend`, first paying a backend
    /// switch if another backend is primed.
    fn serial(&mut self, backend: Backend, kernel: &KernelDesc);

    /// Run the GPU kernel against the NPU kernels as one parallel
    /// section ending in a rendezvous. The GPU ends the section primed.
    fn parallel(
        &mut self,
        gpu: &KernelDesc,
        npu: impl Iterator<Item = KernelDesc> + Clone,
        dominance: Dominance,
    );

    /// The accumulated cost so far.
    fn mark(&self) -> Self::Mark;

    /// Charge `times` more copies of everything since `mark`.
    fn repeat_since(&mut self, mark: Self::Mark, times: u64);

    /// Whether a per-kernel observer needs every step walked.
    fn observed(&self) -> bool;

    /// The primed backend (`None` before the first step).
    fn primed(&self) -> Option<Backend>;
}

/// Move the switch machine to `backend`; returns the backend left
/// behind when that is a paid switch.
fn switch_to(primed: &mut Option<Backend>, backend: Backend) -> Option<Backend> {
    let from = primed.filter(|&b| b != backend);
    *primed = Some(backend);
    from
}

/// Run one partition plan for the Matmul `shape`.
fn run_plan(
    domain: &mut impl CostDomain,
    planner: &impl Planner,
    plan: &PartitionPlan,
    shape: MatmulShape,
    dominance: Dominance,
) {
    let lowered = plan.lower(shape);
    let npu = lowered.npu().map(|s| planner.npu_kernel(s));
    if lowered.parallel {
        let gpu = lowered.gpu.expect("a parallel plan has a GPU side");
        domain.parallel(&gpu_kernel(gpu), npu, dominance);
        return;
    }
    if let Some(gpu) = lowered.gpu {
        domain.serial(Backend::Gpu, &gpu_kernel(gpu));
    }
    for kernel in npu {
        domain.serial(Backend::Npu, &kernel);
    }
}

/// Run one trace op: a planned weight Matmul through its plan,
/// anything else on the host backend.
fn run_op(
    domain: &mut impl CostDomain,
    planner: &mut impl Planner,
    op: &TraceOp,
    dominance: Dominance,
) -> Result<(), EngineError> {
    if op.role == OpRole::WeightMatmul {
        let shape = op.shape.ok_or(EngineError::MissingShape { op: op.op })?;
        if let Some(plan) = planner.plan(op.op, shape, dominance) {
            run_plan(domain, planner, &plan, shape, dominance);
            return Ok(());
        }
    }
    domain.serial(planner.host(), &op.kernel);
    Ok(())
}

/// Run one phase trace: prologue, decoder layers, epilogue.
///
/// Every decoder layer runs the same ops through the same plans (a
/// planner's answer depends only on the op, its shape and the phase),
/// and step costs never depend on the clock. So once a layer
/// leaves the switch machine as it found it, each remaining layer
/// would cost exactly what that one did, and the domain charges them
/// as repeats of it. Per-kernel observers need every kernel, so while
/// any is on the same loop walks every layer.
pub(crate) fn run_phase(
    domain: &mut impl CostDomain,
    planner: &mut impl Planner,
    trace: &PhaseTrace,
    dominance: Dominance,
) -> Result<(), EngineError> {
    for op in &trace.prologue {
        run_op(domain, planner, op, dominance)?;
    }
    let observed = domain.observed();
    for walked in 1..=trace.layers {
        let (entry, mark) = (domain.primed(), domain.mark());
        for op in &trace.layer {
            run_op(domain, planner, op, dominance)?;
        }
        if !observed && domain.primed() == entry {
            domain.repeat_since(mark, (trace.layers - walked) as u64);
            break;
        }
    }
    for op in &trace.epilogue {
        run_op(domain, planner, op, dominance)?;
    }
    Ok(())
}

/// The per-kernel observers of a DES run: the concurrency recorder for
/// race analysis and the span timeline, each on only while enabled.
#[derive(Default)]
pub struct Observers {
    recorder: Option<ConcurrencyRecorder>,
    timeline: Option<TimelineRecorder>,
}

impl Observers {
    /// Start (or reset) concurrency-event recording.
    pub fn enable_concurrency_log(&mut self) {
        self.recorder = Some(ConcurrencyRecorder::new());
    }

    /// Take the recorded concurrency log, ending recording.
    pub fn take_concurrency_log(&mut self) -> Option<ConcurrencyLog> {
        self.recorder.take().map(ConcurrencyRecorder::finish)
    }

    /// Start (or reset) span-timeline recording.
    pub fn enable_timeline(&mut self) {
        self.timeline = Some(TimelineRecorder::new());
    }

    /// Take the recorded timeline, ending recording.
    pub fn take_timeline(&mut self) -> Option<Timeline> {
        self.timeline.take().map(TimelineRecorder::finish)
    }

    /// The timeline recorder, while recording.
    pub(crate) fn timeline(&mut self) -> Option<&mut TimelineRecorder> {
        self.timeline.as_mut()
    }
}

/// The discrete-event domain: steps execute on the simulated [`Soc`]
/// and are reported to the [`Observers`].
pub(crate) struct Des {
    pub(crate) soc: Soc,
    pub(crate) obs: Observers,
    primed: Option<Backend>,
    /// Reused NPU-side kernel list of parallel sections.
    npu: Vec<KernelDesc>,
}

impl Des {
    /// A domain over `soc` with no backend primed and no observer on.
    pub(crate) fn new(soc: Soc) -> Self {
        Self {
            soc,
            obs: Observers::default(),
            primed: None,
            npu: Vec::new(),
        }
    }
}

impl CostDomain for Des {
    type Mark = SocMark;

    fn serial(&mut self, backend: Backend, kernel: &KernelDesc) {
        let mech = self.soc.config().sync.mechanism;
        if let Some(from) = switch_to(&mut self.primed, backend) {
            let switch_start = self.soc.clock();
            self.soc.backend_switch();
            if let Some(rec) = &mut self.obs.recorder {
                rec.switch(backend, mech, self.soc.clock());
            }
            if let Some(tl) = &mut self.obs.timeline {
                tl.switch(from, backend, mech, switch_start, self.soc.clock());
            }
        }
        if let Some(rec) = &mut self.obs.recorder {
            rec.serial_kernel(backend, kernel.bytes(), mech, self.soc.clock());
        }
        let start = self.soc.clock();
        self.soc.run_serial(backend, std::slice::from_ref(kernel));
        if let Some(tl) = &mut self.obs.timeline {
            tl.kernel(backend, kernel, start, self.soc.clock());
        }
    }

    fn parallel(
        &mut self,
        gpu: &KernelDesc,
        npu: impl Iterator<Item = KernelDesc> + Clone,
        dominance: Dominance,
    ) {
        self.npu.clear();
        self.npu.extend(npu);
        let (gpu, npu) = (std::slice::from_ref(gpu), &self.npu[..]);
        let mech = self.soc.config().sync.mechanism;
        if let Some(rec) = &mut self.obs.recorder {
            let bytes = |ks: &[KernelDesc]| ks.iter().map(KernelDesc::bytes).sum();
            rec.parallel_section(bytes(gpu), bytes(npu), mech, self.soc.clock());
        }
        let start = self.soc.clock();
        let outcome = self.soc.run_parallel(gpu, npu, dominance);
        if let Some(tl) = &mut self.obs.timeline {
            let side_name = |ks: &[KernelDesc]| match ks {
                [k] => crate::obs::timeline::kernel_span_name(k),
                ks => format!("batch×{}", ks.len()),
            };
            tl.parallel_section(
                &side_name(gpu),
                &side_name(npu),
                mech,
                start,
                start + outcome.a_finish,
                start + outcome.b_finish,
                self.soc.clock(),
            );
        }
        self.primed = Some(Backend::Gpu);
    }

    fn mark(&self) -> SocMark {
        self.soc.mark()
    }

    fn repeat_since(&mut self, mark: SocMark, times: u64) {
        self.soc.repeat_since(mark, times);
    }

    fn observed(&self) -> bool {
        self.obs.recorder.is_some() || self.obs.timeline.is_some() || self.soc.trace_enabled()
    }

    fn primed(&self) -> Option<Backend> {
        self.primed
    }
}

/// The interval domain: each step is priced through the SoC's pure
/// cost queries and summed into `total`; no clock advances.
///
/// Serial kernels, backend switches and rendezvous are exact points. A
/// parallel section is `[max(solo sums), max(contended sums)]`, the
/// pinned envelope of `Soc::run_parallel`'s overlap model. All bounds
/// are integer nanoseconds, so charging repeats is exact.
pub(crate) struct Intervals {
    /// Pricing-only SoC; its clock is never advanced.
    soc: Soc,
    primed: Option<Backend>,
    /// The cost accumulated so far.
    pub(crate) total: CostInterval,
}

impl Intervals {
    /// A domain pricing on `soc`, with no backend primed.
    pub(crate) fn new(soc: Soc) -> Self {
        Self {
            soc,
            primed: None,
            total: CostInterval::ZERO,
        }
    }
}

impl CostDomain for Intervals {
    type Mark = CostInterval;

    fn serial(&mut self, backend: Backend, kernel: &KernelDesc) {
        if switch_to(&mut self.primed, backend).is_some() {
            self.total += CostInterval::exact(self.soc.config().sync.backend_switch());
        }
        self.total += CostInterval::exact(self.soc.solo_kernel_time(backend, kernel));
    }

    fn parallel(
        &mut self,
        gpu: &KernelDesc,
        npu: impl Iterator<Item = KernelDesc> + Clone,
        dominance: Dominance,
    ) {
        let both = [Backend::Gpu, Backend::Npu];
        let soc = &self.soc;
        let g_solo = soc.solo_kernel_time(Backend::Gpu, gpu);
        let g_cont = soc.contended_kernel_time(Backend::Gpu, gpu, &both);
        let n_solo: SimTime = npu
            .clone()
            .map(|k| soc.solo_kernel_time(Backend::Npu, &k))
            .sum();
        let n_cont: SimTime = npu
            .map(|k| soc.contended_kernel_time(Backend::Npu, &k, &both))
            .sum();
        let lo = g_solo.max(n_solo);
        let hi = g_cont.max(n_cont).max(lo);
        let rendezvous = soc.config().sync.rendezvous(dominance);
        self.total += CostInterval { lo, hi } + CostInterval::exact(rendezvous);
        self.primed = Some(Backend::Gpu);
    }

    fn mark(&self) -> CostInterval {
        self.total
    }

    fn repeat_since(&mut self, mark: CostInterval, times: u64) {
        let repeat = |now: SimTime, then: SimTime| {
            now + SimTime::from_nanos((now - then).as_nanos() * times)
        };
        self.total = CostInterval {
            lo: repeat(self.total.lo, mark.lo),
            hi: repeat(self.total.hi, mark.hi),
        };
    }

    fn observed(&self) -> bool {
        false
    }

    fn primed(&self) -> Option<Backend> {
        self.primed
    }
}
