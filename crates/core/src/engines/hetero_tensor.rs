//! Tensor-level heterogeneous execution — the full HeteroLLM engine.
//!
//! Every weight Matmul consults the partition solver: depending on the
//! shape and phase it runs NPU-only, GPU-only, or split across both via
//! row-cutting, sequence-length cutting or hybrid-cutting, with the
//! fast-synchronization runtime bounding rendezvous costs (§4).

use hetero_graph::{CompileModel, GraphCache};
use hetero_profiler::measure::{partition_shape_grid, profile_matmuls};
use hetero_profiler::{CostProvider, PredictedProvider, RealExecProvider};
use hetero_soc::calib::STANDARD_GRAPH_SIZES;
use hetero_soc::sync::{Dominance, SyncMechanism, SyncModel};
use hetero_soc::{Backend, KernelDesc, Soc};
use hetero_solver::{PartitionPlan, PlanTable, Solver, SolverConfig};
use hetero_tensor::shape::MatmulShape;

use crate::engines::{gpu_kernel, hetero_soc_config, npu_kernel, Engine};
use crate::error::EngineError;
use crate::model::ModelConfig;
use crate::obs::{Timeline, TimelineRecorder};
use crate::report::PhaseReport;
use crate::trace::{
    decode_trace, prefill_trace, ConcurrencyLog, ConcurrencyRecorder, OpRole, PhaseTrace, TraceOp,
};

/// HeteroLLM with tensor-level heterogeneous execution.
///
/// Generic over the solver's cost provider: [`RealExecProvider`] (the
/// default — exact offline profiling) or [`PredictedProvider`] (the
/// decision-tree prediction mode of §4.3).
pub struct HeteroTensorEngine<P: CostProvider = RealExecProvider> {
    cfg: ModelConfig,
    soc: Soc,
    #[allow(dead_code)] // Graphs are preloaded; retained for inspection.
    cache: GraphCache,
    prefill_solver: Solver<P>,
    decode_solver: Solver<P>,
    prefill_table: PlanTable,
    decode_table: PlanTable,
    current: Option<Backend>,
    recorder: Option<ConcurrencyRecorder>,
    timeline: Option<TimelineRecorder>,
}

impl HeteroTensorEngine<RealExecProvider> {
    /// New engine for `model` with the given sync mechanism.
    pub fn new(model: &ModelConfig, sync: SyncMechanism) -> Self {
        Self::with_gpu_derate(model, sync, 1.0)
    }

    /// Engine whose solver sees a GPU derated to `derate` of its
    /// throughput and bandwidth.
    ///
    /// This models the §4.3 runtime decider under GPU co-workloads
    /// (Fig. 18): when a game occupies part of the GPU, the profiler
    /// observes lower effective GPU throughput and the solver shifts
    /// partition shares toward the NPU, so the LLM sheds only a small
    /// slowdown instead of stalling behind render work.
    pub fn with_gpu_derate(model: &ModelConfig, sync: SyncMechanism, derate: f64) -> Self {
        assert!((0.0..=1.0).contains(&derate), "derate must be in (0, 1]");
        let mut soc_cfg = hetero_soc_config(sync);
        soc_cfg.gpu.achieved_tflops *= derate;
        soc_cfg.gpu.mem_efficiency *= derate;
        let provider = RealExecProvider::new(soc_cfg.clone());
        Self::from_provider(model, soc_cfg, provider)
    }

    /// Engine over an explicit SoC configuration — e.g. a Table-1
    /// cross-SoC projection from [`hetero_soc::specs::project_config`].
    pub fn with_soc_config(model: &ModelConfig, soc_cfg: hetero_soc::SocConfig) -> Self {
        let provider = RealExecProvider::new(soc_cfg.clone());
        Self::from_provider(model, soc_cfg, provider)
    }

    /// Engine with a custom minimum-parallel-gain threshold (§4.3's
    /// "opts not to partition" bar), for the ablation study.
    pub fn with_min_parallel_gain(
        model: &ModelConfig,
        sync: SyncMechanism,
        min_parallel_gain: f64,
    ) -> Self {
        let soc_cfg = hetero_soc_config(sync);
        let provider = RealExecProvider::new(soc_cfg.clone());
        let mut engine = Self::from_provider(model, soc_cfg, provider.clone());
        let plan_sync = SyncModel::new(SyncMechanism::Fast);
        engine.prefill_solver = Solver::new(
            provider.clone(),
            SolverConfig {
                sync: plan_sync.clone(),
                min_parallel_gain,
                ..SolverConfig::default()
            },
        );
        engine.decode_solver = Solver::new(
            provider,
            SolverConfig {
                sync: plan_sync,
                min_parallel_gain,
                ..SolverConfig::decode(1)
            },
        );
        engine
    }
}

impl HeteroTensorEngine<PredictedProvider> {
    /// Engine whose solver runs in prediction mode (§4.3): the NPU cost
    /// model is a decision-tree regressor trained on an offline
    /// real-execution profile of the model's operator grid; GPU costs
    /// are estimated analytically from a fixed TFLOPS rate.
    pub fn with_predicted_profiler(model: &ModelConfig, sync: SyncMechanism) -> Self {
        let soc_cfg = hetero_soc_config(sync);
        let soc = Soc::new(soc_cfg.clone());
        // Offline profiling pass over the permuted execution shapes the
        // solver will query.
        let mut seqs: Vec<usize> = STANDARD_GRAPH_SIZES.to_vec();
        seqs.push(1);
        let mut shapes = Vec::new();
        for (_, k, n) in model.matmul_ops() {
            shapes.extend(
                partition_shape_grid(&seqs, k, n)
                    .into_iter()
                    .map(|s| s.reversed()),
            );
        }
        shapes.push(MatmulShape::new(model.vocab, model.hidden, 1).reversed());
        shapes.sort_unstable_by_key(|s| (s.m, s.k, s.n));
        shapes.dedup();
        let db = profile_matmuls(
            &soc,
            &shapes,
            &[Backend::Npu],
            hetero_tensor::DType::Int4,
            hetero_tensor::DType::F16,
        );
        let provider =
            PredictedProvider::train(&db, soc_cfg.clone()).expect("profile grid is non-empty");
        Self::from_provider(model, soc_cfg, provider)
    }
}

impl<P: CostProvider + Clone> HeteroTensorEngine<P> {
    /// Shared construction: graph preloading, plan-design solvers and
    /// the assist-tier SoC.
    fn from_provider(model: &ModelConfig, soc_cfg: hetero_soc::SocConfig, provider: P) -> Self {
        let mut cache = GraphCache::new(model.graph_set(), CompileModel::default());
        cache.preload(&STANDARD_GRAPH_SIZES);
        cache.preload(&[1]);

        // Partition plans are part of the *design* and always assume
        // fast synchronization; the runtime's sync mechanism only
        // changes what each rendezvous costs (the Figs. 15/17 ablation
        // varies the mechanism, not the plans).
        let plan_sync = SyncModel::new(SyncMechanism::Fast);
        let prefill_solver = Solver::new(
            provider.clone(),
            SolverConfig {
                sync: plan_sync.clone(),
                ..SolverConfig::default()
            },
        );
        let decode_solver = Solver::new(
            provider,
            SolverConfig {
                sync: plan_sync,
                ..SolverConfig::decode(1)
            },
        );

        let mut soc = Soc::new(soc_cfg);
        // Assist-tier GPU power (shallow queues between sync points).
        soc.set_gpu_assist();
        Self {
            cfg: model.clone(),
            soc,
            cache,
            prefill_solver,
            decode_solver,
            prefill_table: PlanTable::new(),
            decode_table: PlanTable::new(),
            current: None,
            recorder: None,
            timeline: None,
        }
    }
}

impl<P: CostProvider> HeteroTensorEngine<P> {
    fn run_on(&mut self, backend: Backend, kernel: &KernelDesc) {
        if self.current != Some(backend) {
            if let Some(from) = self.current {
                let switch_start = self.soc.clock();
                self.soc.backend_switch();
                let mech = self.soc.config().sync.mechanism;
                if let Some(rec) = &mut self.recorder {
                    rec.switch(backend, mech, self.soc.clock());
                }
                if let Some(tl) = &mut self.timeline {
                    tl.switch(from, backend, mech, switch_start, self.soc.clock());
                }
            }
            self.current = Some(backend);
        }
        if let Some(rec) = &mut self.recorder {
            let mech = self.soc.config().sync.mechanism;
            rec.serial_kernel(backend, kernel.bytes(), mech, self.soc.clock());
        }
        let kernel_start = self.soc.clock();
        self.soc.run_serial(backend, std::slice::from_ref(kernel));
        if let Some(tl) = &mut self.timeline {
            tl.kernel(backend, kernel, kernel_start, self.soc.clock());
        }
    }

    fn run_parallel(&mut self, gpu: &[KernelDesc], npu: &[KernelDesc], dominance: Dominance) {
        if let Some(rec) = &mut self.recorder {
            let mech = self.soc.config().sync.mechanism;
            let gpu_bytes: u64 = gpu.iter().map(KernelDesc::bytes).sum();
            let npu_bytes: u64 = npu.iter().map(KernelDesc::bytes).sum();
            rec.parallel_section(gpu_bytes, npu_bytes, mech, self.soc.clock());
        }
        let start = self.soc.clock();
        let outcome = self.soc.run_parallel(gpu, npu, dominance);
        if let Some(tl) = &mut self.timeline {
            let mech = self.soc.config().sync.mechanism;
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
        // Both backends just ran; the GPU ends the section primed.
        self.current = Some(Backend::Gpu);
    }

    fn execute_plan(&mut self, plan: &PartitionPlan, shape: MatmulShape, dominance: Dominance) {
        match plan {
            PartitionPlan::GpuOnly => self.run_on(Backend::Gpu, &gpu_kernel(shape)),
            PartitionPlan::NpuOnly { padded_m } => {
                let k = npu_kernel(MatmulShape {
                    m: *padded_m,
                    ..shape
                });
                self.run_on(Backend::Npu, &k);
            }
            PartitionPlan::NpuPipe { chunks, .. } => {
                for &c in chunks {
                    let k = npu_kernel(MatmulShape { m: c, ..shape });
                    self.run_on(Backend::Npu, &k);
                }
            }
            PartitionPlan::RowCut { gpu_cols, padded_m }
            | PartitionPlan::HybridCut { gpu_cols, padded_m } => {
                let gpu = gpu_kernel(MatmulShape::new(shape.m, shape.k, *gpu_cols));
                let npu = npu_kernel(MatmulShape::new(*padded_m, shape.k, shape.n - gpu_cols));
                self.run_parallel(&[gpu], &[npu], dominance);
            }
            PartitionPlan::SeqCut {
                npu_chunks,
                gpu_rows,
            } => {
                let npu: Vec<KernelDesc> = npu_chunks
                    .iter()
                    .map(|&c| npu_kernel(MatmulShape { m: c, ..shape }))
                    .collect();
                if *gpu_rows == 0 {
                    for k in &npu {
                        self.run_on(Backend::Npu, k);
                    }
                } else {
                    let gpu = gpu_kernel(MatmulShape {
                        m: *gpu_rows,
                        ..shape
                    });
                    self.run_parallel(&[gpu], &npu, dominance);
                }
            }
        }
    }

    /// Run one trace op: a weight Matmul through its memoized plan
    /// (prefill plans are solved NPU-dominant, decode plans
    /// GPU-dominant), anything else on the GPU.
    fn run_op(&mut self, op: &TraceOp, dominance: Dominance) -> Result<(), EngineError> {
        if op.role != OpRole::WeightMatmul {
            self.run_on(Backend::Gpu, &op.kernel);
            return Ok(());
        }
        let shape = op.shape.ok_or(EngineError::MissingShape { op: op.op })?;
        let (table, solver) = match dominance {
            Dominance::NpuDominant => (&mut self.prefill_table, &self.prefill_solver),
            Dominance::GpuDominant => (&mut self.decode_table, &self.decode_solver),
        };
        let choice = table.get_or_solve(solver, op.op, shape, dominance);
        self.execute_plan(&choice.plan, shape, dominance);
        Ok(())
    }

    /// Run one phase step: prologue, decoder layers, epilogue.
    ///
    /// Every decoder layer runs the same ops through the same memoized
    /// plans, and SoC costs never depend on the clock. So once a layer
    /// leaves the backend state as it found it, each remaining layer
    /// would cost exactly what that one did, and the SoC charges them
    /// as repeats of it ([`Soc::repeat_since`]). Per-kernel observers
    /// (concurrency recorder, timeline, SoC trace) need every kernel,
    /// so while any is on the same loop walks every layer.
    fn run_trace(&mut self, trace: &PhaseTrace, dominance: Dominance) -> Result<(), EngineError> {
        for op in &trace.prologue {
            self.run_op(op, dominance)?;
        }
        let observed =
            self.recorder.is_some() || self.timeline.is_some() || self.soc.trace_enabled();
        for walked in 1..=trace.layers {
            let (entry, mark) = (self.current, self.soc.mark());
            for op in &trace.layer {
                self.run_op(op, dominance)?;
            }
            if !observed && self.current == entry {
                self.soc.repeat_since(mark, (trace.layers - walked) as u64);
                break;
            }
        }
        for op in &trace.epilogue {
            self.run_op(op, dominance)?;
        }
        Ok(())
    }

    /// Execute a partition plan for one logical Matmul (public for the
    /// speculative-decoding driver and the experiment harness).
    pub fn execute_plan_pub(
        &mut self,
        plan: &PartitionPlan,
        shape: MatmulShape,
        dominance: Dominance,
    ) {
        self.execute_plan(plan, shape, dominance);
    }

    /// Run one kernel serially on a backend (public for the
    /// speculative-decoding driver).
    pub fn run_on_pub(&mut self, backend: Backend, kernel: &KernelDesc) {
        self.run_on(backend, kernel);
    }

    /// The solved plan for an operator at a sequence length (exposed
    /// for the experiment harness).
    pub fn plan_for(&mut self, op: &'static str, shape: MatmulShape) -> PartitionPlan {
        self.prefill_table
            .get_or_solve(&self.prefill_solver, op, shape, Dominance::NpuDominant)
            .plan
    }
}

impl<P: CostProvider> Engine for HeteroTensorEngine<P> {
    fn name(&self) -> String {
        "Hetero-tensor".into()
    }

    fn model(&self) -> &ModelConfig {
        &self.cfg
    }

    fn try_prefill(&mut self, prompt_len: usize) -> Result<PhaseReport, EngineError> {
        let start = self.soc.clock();
        self.run_trace(
            &prefill_trace(&self.cfg, prompt_len),
            Dominance::NpuDominant,
        )?;
        Ok(PhaseReport {
            tokens: prompt_len,
            elapsed: self.soc.clock() - start,
        })
    }

    fn try_decode(
        &mut self,
        prompt_len: usize,
        n_tokens: usize,
    ) -> Result<PhaseReport, EngineError> {
        let start = self.soc.clock();
        for t in 0..n_tokens {
            let trace = decode_trace(&self.cfg, prompt_len + t + 1, 1);
            self.run_trace(&trace, Dominance::GpuDominant)?;
        }
        Ok(PhaseReport {
            tokens: n_tokens,
            elapsed: self.soc.clock() - start,
        })
    }

    fn enable_concurrency_log(&mut self) {
        self.recorder = Some(ConcurrencyRecorder::new());
    }

    fn take_concurrency_log(&mut self) -> Option<ConcurrencyLog> {
        self.recorder.take().map(ConcurrencyRecorder::finish)
    }

    fn enable_timeline(&mut self) {
        self.timeline = Some(TimelineRecorder::new());
    }

    fn take_timeline(&mut self) -> Option<Timeline> {
        self.timeline.take().map(TimelineRecorder::finish)
    }

    fn soc(&self) -> &Soc {
        &self.soc
    }

    fn soc_mut(&mut self) -> &mut Soc {
        &mut self.soc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::hetero_layer::HeteroLayerEngine;
    use crate::engines::single::{GpuTier, SingleBackendEngine};

    #[test]
    fn tensor_level_beats_layer_level_in_prefill() {
        // §5.2.1: Hetero-tensor outperforms Hetero-layer by ~30% on
        // average (up to ~41%).
        let model = ModelConfig::llama_8b();
        let mut tensor = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let mut layer = HeteroLayerEngine::new(&model, SyncMechanism::Fast);
        let t = tensor.prefill(1024).tokens_per_sec();
        let l = layer.prefill(1024).tokens_per_sec();
        let gain = t / l - 1.0;
        assert!((0.10..0.70).contains(&gain), "gain {gain} (t={t} l={l})");
    }

    #[test]
    fn decode_beats_gpu_only_via_bandwidth_aggregation() {
        // §5.3: Hetero-tensor decodes ~23% faster than PPL-OpenCL on
        // Llama-8B by using both backends' bandwidth.
        let model = ModelConfig::llama_8b();
        let mut tensor = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let mut ppl = SingleBackendEngine::gpu(&model, GpuTier::PplOpenCl);
        let t = tensor.decode(256, 8).tokens_per_sec();
        let p = ppl.decode(256, 8).tokens_per_sec();
        let gain = t / p - 1.0;
        assert!((0.08..0.45).contains(&gain), "gain {gain} (t={t} p={p})");
    }

    #[test]
    fn llama8b_decode_rate_matches_paper_scale() {
        // Fig. 16: ≈14 tokens/s on Llama-8B.
        let model = ModelConfig::llama_8b();
        let mut e = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let rate = e.decode(256, 8).tokens_per_sec();
        assert!((11.0..18.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn internlm_prefill_approaches_1000_tokens_per_sec() {
        // §1/§5.2.1: >1000 tokens/s prefill on InternLM-1.8B.
        let model = ModelConfig::internlm_1_8b();
        let mut e = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let rate = e.prefill(256).tokens_per_sec();
        assert!(rate > 700.0, "rate {rate}");
    }

    #[test]
    fn fast_sync_matters_more_for_decode() {
        // Fig. 15 vs Fig. 17: decode gains much more from fast sync
        // because kernels are hundreds of microseconds.
        let model = ModelConfig::llama_8b();
        let gain = |prefill: bool| {
            let mut fast = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
            let mut slow = HeteroTensorEngine::new(&model, SyncMechanism::Driver);
            if prefill {
                fast.prefill(256).tokens_per_sec() / slow.prefill(256).tokens_per_sec()
            } else {
                fast.decode(256, 4).tokens_per_sec() / slow.decode(256, 4).tokens_per_sec()
            }
        };
        let prefill_gain = gain(true);
        let decode_gain = gain(false);
        assert!(
            decode_gain > prefill_gain,
            "decode {decode_gain} vs prefill {prefill_gain}"
        );
        assert!(decode_gain > 1.5, "decode gain {decode_gain}");
    }

    #[test]
    fn misaligned_beats_padding_baseline() {
        // Fig. 14: Hetero-tensor vs Padding at misaligned lengths.
        use crate::engines::npu_only::{MisalignStrategy, NpuOnlyEngine};
        let model = ModelConfig::llama_8b();
        for len in [300usize, 525] {
            let mut tensor = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
            let mut pad =
                NpuOnlyEngine::new(&model, MisalignStrategy::Padding, SyncMechanism::Fast);
            let t = tensor.prefill(len).elapsed.as_millis_f64();
            let p = pad.prefill(len).elapsed.as_millis_f64();
            assert!(t < p, "len {len}: tensor {t} !< padding {p}");
        }
    }

    #[test]
    fn prediction_mode_engine_tracks_real_mode() {
        // §4.3: "minor inaccuracies in performance results across
        // different backends are tolerable for our solver" — the
        // prediction-mode engine must land within ~20% of the
        // real-execution-profiled engine end to end.
        let model = ModelConfig::llama_3b();
        let mut real = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let mut pred = HeteroTensorEngine::with_predicted_profiler(&model, SyncMechanism::Fast);
        let r = real.prefill(256).tokens_per_sec();
        let p = pred.prefill(256).tokens_per_sec();
        assert!((p / r - 1.0).abs() < 0.20, "pred {p} vs real {r}");
        let rd = real.decode(256, 4).tokens_per_sec();
        let pd = pred.decode(256, 4).tokens_per_sec();
        assert!(
            (pd / rd - 1.0).abs() < 0.25,
            "pred decode {pd} vs real {rd}"
        );
    }

    #[test]
    fn ffn_down_plan_is_parallel() {
        let model = ModelConfig::llama_8b();
        let mut e = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let plan = e.plan_for("ffn_down", MatmulShape::new(256, model.ffn, model.hidden));
        assert!(plan.is_parallel(), "{plan:?}");
    }
}
