//! Tensor-level heterogeneous execution — the full HeteroLLM engine.
//!
//! Every weight Matmul consults the partition solver: depending on the
//! shape and phase it runs NPU-only, GPU-only, or split across both via
//! row-cutting, sequence-length cutting or hybrid-cutting, with the
//! fast-synchronization runtime bounding rendezvous costs (§4).

use hetero_profiler::measure::{partition_shape_grid, profile_matmuls};
use hetero_profiler::{CostProvider, PredictedProvider, RealExecProvider};
use hetero_soc::calib::STANDARD_GRAPH_SIZES;
use hetero_soc::sync::SyncMechanism;
use hetero_soc::{Backend, Soc};
use hetero_solver::SolverConfig;
use hetero_tensor::shape::MatmulShape;

use crate::engines::{assist_soc, hetero_soc_config, SolverPlanner, WalkEngine};
use crate::model::ModelConfig;

/// HeteroLLM with tensor-level heterogeneous execution: the one
/// engine under the solver-backed planner.
///
/// Generic over the solver's cost provider: [`RealExecProvider`] (the
/// default — exact offline profiling) or [`PredictedProvider`] (the
/// decision-tree prediction mode of §4.3).
pub type HeteroTensorEngine<P = RealExecProvider> = WalkEngine<SolverPlanner<P>>;

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
        assert!(
            derate > 0.0 && derate <= 1.0,
            "derate must be in (0, 1], got {derate}"
        );
        let mut soc_cfg = hetero_soc_config(sync);
        soc_cfg.gpu.achieved_tflops *= derate;
        soc_cfg.gpu.mem_efficiency *= derate;
        Self::with_soc_config(model, soc_cfg)
    }

    /// Engine over an explicit SoC configuration — e.g. a Table-1
    /// cross-SoC projection from [`hetero_soc::specs::project_config`].
    pub fn with_soc_config(model: &ModelConfig, soc_cfg: hetero_soc::SocConfig) -> Self {
        let provider = RealExecProvider::new(soc_cfg.clone());
        Self::with_planner(model, soc_cfg, SolverPlanner::standard(provider))
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
        let planner = SolverPlanner::new(
            provider,
            SolverConfig {
                min_parallel_gain,
                ..SolverConfig::default()
            },
            SolverConfig {
                min_parallel_gain,
                ..SolverConfig::decode(1)
            },
        );
        Self::with_planner(model, soc_cfg, planner)
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
        Self::with_planner(model, soc_cfg, SolverPlanner::standard(provider))
    }
}

impl<P: CostProvider> HeteroTensorEngine<P> {
    /// Shared construction: the plan-design planner and the
    /// assist-tier SoC.
    fn with_planner(
        model: &ModelConfig,
        soc_cfg: hetero_soc::SocConfig,
        planner: SolverPlanner<P>,
    ) -> Self {
        Self::with_parts("Hetero-tensor", model, assist_soc(soc_cfg), planner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{BaselineEngine, Engine, GpuTier, MisalignStrategy};

    #[test]
    fn tensor_level_beats_layer_level_in_prefill() {
        // §5.2.1: Hetero-tensor outperforms Hetero-layer by ~30% on
        // average (up to ~41%).
        let model = ModelConfig::llama_8b();
        let mut tensor = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let mut layer = BaselineEngine::hetero_layer(&model, SyncMechanism::Fast);
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
        let mut ppl = BaselineEngine::gpu(&model, GpuTier::PplOpenCl);
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
        let model = ModelConfig::llama_8b();
        for len in [300usize, 525] {
            let mut tensor = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
            let mut pad =
                BaselineEngine::npu_only(&model, MisalignStrategy::Padding, SyncMechanism::Fast);
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
    #[should_panic(expected = "derate must be in (0, 1]")]
    fn zero_gpu_derate_is_rejected() {
        HeteroTensorEngine::with_gpu_derate(&ModelConfig::tiny(), SyncMechanism::Fast, 0.0);
    }

    #[test]
    fn ffn_down_plan_is_parallel() {
        let model = ModelConfig::llama_8b();
        let mut e = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let plan = e.plan_for("ffn_down", MatmulShape::new(256, model.ffn, model.hidden));
        assert!(plan.is_parallel(), "{plan:?}");
    }
}
