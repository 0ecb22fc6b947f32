//! MLLM-NPU-style comparator engine.
//!
//! Models the INT-only NPU frameworks of Table 2 (MLLM-NPU in
//! particular): weight Matmuls run on the NPU with INT8 activations
//! *and* weights, prompts are processed as fixed-size chunks
//! ("Chunked Prefill", §5.2.2), non-Matmul kernels run on the CPU, and
//! the GPU is unused. The effective NPU throughput is calibrated from
//! the single datum the paper publishes: 564 prefill tokens/s on a
//! 1.8B model at sequence 256 (§5.2.1), which folds in that
//! framework's quantization/outlier-handling overheads.
//!
//! Its *accuracy* cost — the reason HeteroLLM insists on FLOAT NPU
//! GEMMs — is quantified functionally in
//! [`crate::functional::quant_divergence`].

use hetero_soc::sync::SyncMechanism;
use hetero_soc::{Backend, Soc};

use crate::engines::hetero_layer::{MisalignStrategy, RoutedCore};
use crate::engines::{hetero_soc_config, Engine, Observers};
use crate::error::EngineError;
use crate::model::ModelConfig;
use crate::report::PhaseReport;

/// Effective INT8 NPU throughput of the MLLM-NPU software stack,
/// TFLOPS-equivalent. Derived from the published 564 tokens/s prefill
/// on a 1.8B model at sequence 256 (2·1.8e9·256 FLOPs ≈ 0.92 TFLOP in
/// 0.454 s ⇒ ≈2 effective TFLOPS), comfortably below the Hexagon's raw
/// INT8 peak because of per-chunk layout transforms and CPU outlier
/// handling.
pub const MLLM_EFFECTIVE_INT8_TFLOPS: f64 = 2.2;

/// The fixed prefill chunk size MLLM-NPU uses.
pub const MLLM_CHUNK: usize = 256;

/// MLLM-NPU-style engine: chunked INT8 NPU prefill, CPU aux kernels.
pub struct MllmNpuEngine {
    core: RoutedCore,
}

impl MllmNpuEngine {
    /// New engine for `model`.
    pub fn new(model: &ModelConfig, sync: SyncMechanism) -> Self {
        let mut core = RoutedCore::new(
            model,
            MisalignStrategy::Chunked { chunk: MLLM_CHUNK },
            sync,
            Backend::Npu,
        );
        core.aux_backend = Backend::Cpu;
        core.int8_matmuls = true;
        let mut soc_cfg = hetero_soc_config(sync);
        // The calibrated effective throughput already folds in the
        // framework's own layout transformations and outlier handling,
        // so the generic shape penalty is disabled (floor = peak) to
        // avoid double-counting.
        soc_cfg.npu.peak_tflops = MLLM_EFFECTIVE_INT8_TFLOPS;
        soc_cfg.npu.min_effective_tflops = MLLM_EFFECTIVE_INT8_TFLOPS;
        core.des.soc = Soc::new(soc_cfg);
        core.cache.preload(&[MLLM_CHUNK, 1]);
        Self { core }
    }
}

impl Engine for MllmNpuEngine {
    fn name(&self) -> String {
        "MLLM-NPU".into()
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

    #[test]
    fn matches_published_internlm_rate() {
        // §5.2.1: "MLLM-npu attains only 564 tokens/s" at 1.8B / 256.
        let mut e = MllmNpuEngine::new(&ModelConfig::internlm_1_8b(), SyncMechanism::Fast);
        let rate = e.prefill(256).tokens_per_sec();
        assert!((400.0..750.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn hetero_tensor_beats_mllm_npu_without_int_quantization() {
        // The paper's point: FLOAT NPU GEMMs + GPU assistance beat the
        // INT-only stack (1092 vs 564 ⇒ ≈1.9×) while preserving
        // accuracy.
        use crate::engines::HeteroTensorEngine;
        let model = ModelConfig::internlm_1_8b();
        let mut mllm = MllmNpuEngine::new(&model, SyncMechanism::Fast);
        let mut hetero = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let m = mllm.prefill(256).tokens_per_sec();
        let h = hetero.prefill(256).tokens_per_sec();
        let ratio = h / m;
        assert!((1.3..3.2).contains(&ratio), "ratio {ratio} (h={h}, m={m})");
    }

    #[test]
    fn chunked_prefill_wastes_short_prompts() {
        let model = ModelConfig::internlm_1_8b();
        let rate = |seq: usize| {
            let mut e = MllmNpuEngine::new(&model, SyncMechanism::Fast);
            e.prefill(seq).tokens_per_sec()
        };
        // A 64-token prompt still pays for a full 256-chunk.
        assert!(rate(64) < rate(256) * 0.5);
    }
}
