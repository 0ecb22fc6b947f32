//! Layer-level heterogeneous execution (and its NPU-only-matmul
//! variants).
//!
//! Operators are routed to their best backend — weight Matmuls to the
//! NPU in permuted order, everything else to the GPU — and executed
//! serially with a synchronization cost at every backend transition.
//! In the decode phase the NPU is slower than the GPU at sequence
//! length 1, so layer-level execution routes Matmuls to the GPU and
//! performs like PPL-OpenCL (§5.3).

use hetero_graph::plan::{padding_plan, pipe_plan};
use hetero_graph::{CompileModel, GraphCache};
use hetero_soc::calib::STANDARD_GRAPH_SIZES;
use hetero_soc::sync::SyncMechanism;
use hetero_soc::{Backend, SimTime, Soc};
use hetero_tensor::shape::MatmulShape;

use crate::engines::walk::{Des, Observers};
use crate::engines::{gpu_kernel, hetero_soc_config, npu_kernel, Engine};
use crate::error::EngineError;
use crate::model::ModelConfig;
use crate::report::PhaseReport;
use crate::trace::{decode_trace, prefill_trace, OpRole, PhaseTrace};

/// How the NPU handles sequence lengths without a compiled graph
/// (§5.2.2's baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisalignStrategy {
    /// Pad to the next standard graph size.
    Padding,
    /// Generate exact-size graphs at request time.
    OnlinePrepare,
    /// Decompose into standard-size chunks run sequentially.
    Pipe,
    /// MLLM-NPU-style chunked prefill: one fixed chunk size, every
    /// request padded to a multiple of it (§5.2.2: "the chunk size
    /// must be chosen carefully ... performance is degraded to half
    /// when the sequence length is shortened to 256").
    Chunked {
        /// The fixed chunk size.
        chunk: usize,
    },
}

/// Shared core: serial execution with per-op backend routing.
pub(crate) struct RoutedCore {
    pub cfg: ModelConfig,
    pub des: Des,
    pub cache: GraphCache,
    pub strategy: MisalignStrategy,
    /// Backend of the decode-phase weight Matmuls.
    pub decode_matmul_backend: Backend,
    /// Backend of the non-Matmul (attention/norm/activation) kernels.
    pub aux_backend: Backend,
    /// Whether NPU Matmuls use INT8 storage for both operands (the
    /// INT-only frameworks of Table 2) instead of the permuted W4A16
    /// convention.
    pub int8_matmuls: bool,
}

impl RoutedCore {
    pub fn new(
        model: &ModelConfig,
        strategy: MisalignStrategy,
        sync: SyncMechanism,
        decode_matmul_backend: Backend,
    ) -> Self {
        let mut cache = GraphCache::new(model.graph_set(), CompileModel::default());
        // Offline preparation: standard prefill graphs (except for
        // Online-prepare, whose whole point is runtime generation) and
        // the decode graph.
        if strategy != MisalignStrategy::OnlinePrepare {
            cache.preload(&STANDARD_GRAPH_SIZES);
        }
        if let MisalignStrategy::Chunked { chunk } = strategy {
            cache.preload(&[chunk]);
        }
        cache.preload(&[1]);
        let mut soc = Soc::new(hetero_soc_config(sync));
        // HeteroLLM's GPU runs partitioned assist work, not a deep
        // full-throttle queue (power tier; Fig. 19).
        soc.set_gpu_assist();
        Self {
            cfg: model.clone(),
            des: Des::new(soc),
            cache,
            strategy,
            decode_matmul_backend,
            aux_backend: Backend::Gpu,
            int8_matmuls: false,
        }
    }

    fn npu_matmul_kernel(&self, shape: MatmulShape) -> hetero_soc::KernelDesc {
        if self.int8_matmuls {
            // INT-only frameworks: INT8 activations and weights, no
            // operand permutation (they execute the stock order).
            hetero_soc::KernelDesc::matmul(
                shape,
                hetero_tensor::DType::Int8,
                hetero_tensor::DType::Int8,
                hetero_tensor::DType::Int8,
            )
        } else {
            npu_kernel(shape)
        }
    }

    /// The NPU chunk sizes covering `m` rows under this strategy, plus
    /// any graph-preparation time to charge to the request.
    fn npu_chunks(&mut self, m: usize) -> (Vec<usize>, SimTime) {
        match self.strategy {
            MisalignStrategy::Padding => (
                padding_plan(m, &STANDARD_GRAPH_SIZES).npu_chunks,
                SimTime::ZERO,
            ),
            MisalignStrategy::OnlinePrepare => {
                let hit = self.cache.has(m);
                let prep = self.cache.ensure(m);
                if let Some(tl) = self.des.obs.timeline() {
                    tl.graph_lookup(hit || m == 0);
                }
                (vec![m], prep)
            }
            MisalignStrategy::Pipe => (
                pipe_plan(m, &STANDARD_GRAPH_SIZES).npu_chunks,
                SimTime::ZERO,
            ),
            MisalignStrategy::Chunked { chunk } => (vec![chunk; m.div_ceil(chunk)], SimTime::ZERO),
        }
    }

    pub fn run_prefill(&mut self, prompt_len: usize) -> Result<PhaseReport, EngineError> {
        let start = self.des.soc.clock();
        let (chunks, prep) = self.npu_chunks(prompt_len);
        // Graph generation (Online-prepare) delays the whole request.
        self.des.soc.advance(prep);
        if prep > SimTime::ZERO {
            let end = self.des.soc.clock();
            if let Some(tl) = self.des.obs.timeline() {
                tl.graph_compile(prompt_len, start, end);
            }
        }

        let trace = prefill_trace(&self.cfg, prompt_len);
        self.run_routed(&trace, &chunks)?;
        Ok(PhaseReport {
            tokens: prompt_len,
            elapsed: self.des.soc.clock() - start,
        })
    }

    fn run_routed(&mut self, trace: &PhaseTrace, npu_chunks: &[usize]) -> Result<(), EngineError> {
        // Clone the per-layer op list to avoid borrowing `trace` across
        // `&mut self` calls.
        let ops: Vec<_> = trace.iter_all().cloned().collect();
        for op in &ops {
            match op.role {
                OpRole::WeightMatmul => {
                    let shape = op.shape.ok_or(EngineError::MissingShape { op: op.op })?;
                    if shape.m == 1 {
                        // LM head (single row): a standard graph exists.
                        let k = self.npu_matmul_kernel(shape);
                        self.des.serial_named(Backend::Npu, &k, Some(op.op));
                    } else {
                        for &c in npu_chunks {
                            let k = self.npu_matmul_kernel(MatmulShape { m: c, ..shape });
                            self.des.serial_named(Backend::Npu, &k, Some(op.op));
                        }
                    }
                }
                OpRole::Attention | OpRole::Aux => {
                    let k = op.kernel.clone();
                    let backend = self.aux_backend;
                    self.des.serial_named(backend, &k, Some(op.op));
                }
            }
        }
        Ok(())
    }

    pub fn run_decode(
        &mut self,
        prompt_len: usize,
        n_tokens: usize,
    ) -> Result<PhaseReport, EngineError> {
        let start = self.des.soc.clock();
        for t in 0..n_tokens {
            let trace = decode_trace(&self.cfg, prompt_len + t + 1, 1);
            let ops: Vec<_> = trace.iter_all().cloned().collect();
            for op in &ops {
                match op.role {
                    OpRole::WeightMatmul => {
                        let shape = op.shape.ok_or(EngineError::MissingShape { op: op.op })?;
                        match self.decode_matmul_backend {
                            Backend::Npu => {
                                let k = self.npu_matmul_kernel(shape);
                                self.des.serial_named(Backend::Npu, &k, Some(op.op));
                            }
                            other => {
                                let k = gpu_kernel(shape);
                                self.des.serial_named(other, &k, Some(op.op));
                            }
                        }
                    }
                    _ => {
                        let k = op.kernel.clone();
                        let backend = self.aux_backend;
                        self.des.serial_named(backend, &k, Some(op.op));
                    }
                }
            }
        }
        Ok(PhaseReport {
            tokens: n_tokens,
            elapsed: self.des.soc.clock() - start,
        })
    }
}

/// HeteroLLM with layer-level heterogeneous execution.
pub struct HeteroLayerEngine {
    core: RoutedCore,
}

impl HeteroLayerEngine {
    /// New engine for `model` with the given sync mechanism.
    pub fn new(model: &ModelConfig, sync: SyncMechanism) -> Self {
        // Layer-level prefill pads misaligned lengths; decode Matmuls
        // go to the GPU (§5.3).
        Self {
            core: RoutedCore::new(model, MisalignStrategy::Padding, sync, Backend::Gpu),
        }
    }
}

impl Engine for HeteroLayerEngine {
    fn name(&self) -> String {
        "Hetero-layer".into()
    }

    fn model(&self) -> &ModelConfig {
        &self.core.cfg
    }

    fn try_prefill(&mut self, prompt_len: usize) -> Result<PhaseReport, EngineError> {
        self.core.run_prefill(prompt_len)
    }

    fn try_decode(
        &mut self,
        prompt_len: usize,
        n_tokens: usize,
    ) -> Result<PhaseReport, EngineError> {
        self.core.run_decode(prompt_len, n_tokens)
    }

    fn observers(&mut self) -> &mut Observers {
        &mut self.core.des.obs
    }

    fn soc(&self) -> &Soc {
        &self.core.des.soc
    }

    fn soc_mut(&mut self) -> &mut Soc {
        &mut self.core.des.soc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::single::{GpuTier, SingleBackendEngine};

    #[test]
    fn hetero_layer_beats_gpu_only_in_prefill() {
        // Fig. 13: Hetero-layer ≈ 3× PPL-OpenCL at seq 256 (Llama-8B).
        let model = ModelConfig::llama_8b();
        let mut hetero = HeteroLayerEngine::new(&model, SyncMechanism::Fast);
        let mut ppl = SingleBackendEngine::gpu(&model, GpuTier::PplOpenCl);
        let h = hetero.prefill(256).tokens_per_sec();
        let p = ppl.prefill(256).tokens_per_sec();
        let speedup = h / p;
        assert!(
            (2.0..4.5).contains(&speedup),
            "speedup {speedup} (h={h}, p={p})"
        );
    }

    #[test]
    fn hetero_layer_decode_close_to_ppl() {
        // §5.3: Hetero-layer decode "performs similarly to PPL-OpenCL".
        let model = ModelConfig::llama_8b();
        let mut hetero = HeteroLayerEngine::new(&model, SyncMechanism::Fast);
        let mut ppl = SingleBackendEngine::gpu(&model, GpuTier::PplOpenCl);
        let h = hetero.decode(256, 8).tokens_per_sec();
        let p = ppl.decode(256, 8).tokens_per_sec();
        let ratio = h / p;
        assert!((0.8..1.15).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fast_sync_improves_prefill() {
        // Fig. 15: Hetero-layer gains ~15% from fast synchronization.
        let model = ModelConfig::llama_8b();
        let mut fast = HeteroLayerEngine::new(&model, SyncMechanism::Fast);
        let mut slow = HeteroLayerEngine::new(&model, SyncMechanism::Driver);
        let f = fast.prefill(256).tokens_per_sec();
        let s = slow.prefill(256).tokens_per_sec();
        let gain = f / s - 1.0;
        assert!((0.05..0.60).contains(&gain), "gain {gain}");
    }

    #[test]
    fn prefill_speed_is_hundreds_of_tokens_per_sec() {
        let model = ModelConfig::llama_8b();
        let mut e = HeteroLayerEngine::new(&model, SyncMechanism::Fast);
        let rate = e.prefill(256).tokens_per_sec();
        assert!((120.0..350.0).contains(&rate), "rate {rate}");
    }
}
