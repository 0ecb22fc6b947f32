//! The engines HeteroLLM is compared against, each a fixed per-op
//! route through the one plan walk.
//!
//! - **Single-backend** (llama.cpp on the CPU; MLC, MNN-OpenCL and
//!   PPL-OpenCL on the GPU): every kernel of the trace runs serially on
//!   one backend. No cross-backend synchronization, but the other
//!   accelerators — and most of the SoC's memory bandwidth — stay idle
//!   (Memory-①).
//! - **Layer-level** (Hetero-layer): weight Matmuls go to the NPU in
//!   permuted order, everything else to the GPU, serially, with a
//!   synchronization cost at every backend transition. In decode the
//!   NPU is slower than the GPU at sequence length 1, so decode Matmuls
//!   stay on the GPU and it performs like PPL-OpenCL (§5.3).
//! - **NPU-only** (Padding, Online-prepare, Pipe, Chunked-Prefill; the
//!   Fig. 14 baselines): every weight Matmul runs on the NPU — no GPU
//!   offloading of Matmul work — and the engines differ only in how a
//!   sequence length without a compiled static graph is handled
//!   ([`MisalignStrategy`]).
//! - **MLLM-NPU**: the INT-only NPU frameworks of Table 2. Weight
//!   Matmuls run on the NPU with INT8 activations *and* weights in
//!   fixed-size chunks ("Chunked Prefill", §5.2.2), non-Matmul kernels
//!   run on the CPU, and the GPU is unused. Its *accuracy* cost — the
//!   reason HeteroLLM insists on FLOAT NPU GEMMs — is quantified
//!   functionally in [`crate::functional::quant_divergence`].

use hetero_graph::plan::{padding_plan, pipe_plan};
use hetero_graph::{CompileModel, GraphCache};
use hetero_soc::calib::STANDARD_GRAPH_SIZES;
use hetero_soc::gpu::GpuModel;
use hetero_soc::sync::{Dominance, SyncMechanism};
use hetero_soc::{calib, Backend, KernelDesc, SimTime, Soc, SocConfig};
use hetero_solver::PartitionPlan;
use hetero_tensor::shape::MatmulShape;
use hetero_tensor::DType;

use crate::engines::walk::{Des, Planner};
use crate::engines::{
    assist_soc, hetero_soc_config, llama_cpp_soc_config, npu_kernel, EngineKind, WalkEngine,
};
use crate::model::ModelConfig;

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

impl MisalignStrategy {
    /// The NPU plan covering `m` prompt rows.
    fn plan(self, m: usize) -> PartitionPlan {
        let pipe = |seq: hetero_graph::plan::SeqPlan| PartitionPlan::NpuPipe {
            chunks: seq.npu_chunks,
            padded_rows: seq.padded_rows,
        };
        match self {
            Self::Padding => pipe(padding_plan(m, &STANDARD_GRAPH_SIZES)),
            Self::OnlinePrepare => PartitionPlan::NpuOnly { padded_m: m },
            Self::Pipe => pipe(pipe_plan(m, &STANDARD_GRAPH_SIZES)),
            Self::Chunked { chunk } => {
                let n = m.div_ceil(chunk);
                PartitionPlan::NpuPipe {
                    chunks: vec![chunk; n],
                    padded_rows: n * chunk - m,
                }
            }
        }
    }
}

/// A baseline's fixed per-op route: which weight Matmuls go to the
/// NPU and how they are chunked, and where everything else runs.
pub struct FixedRoute {
    /// How prefill weight Matmuls reach the NPU; `None` keeps them on
    /// the host backend.
    prefill: Option<MisalignStrategy>,
    /// Whether decode weight Matmuls run on the NPU (else on the host).
    decode_on_npu: bool,
    /// Backend of every op that is not an NPU Matmul.
    host: Backend,
    /// INT8 activations and weights in the stock operand order (the
    /// INT-only frameworks of Table 2) instead of the permuted W4A16
    /// NPU kernel.
    int8: bool,
    /// Graphs compiled at request time (Online-prepare only).
    graphs: Option<GraphCache>,
}

impl FixedRoute {
    /// Every op on `backend`.
    pub(crate) fn host_only(backend: Backend) -> Self {
        Self {
            prefill: None,
            decode_on_npu: false,
            host: backend,
            int8: false,
            graphs: None,
        }
    }

    /// Prefill weight Matmuls on the NPU under `strategy` (single-row
    /// ones always have a graph), decode weight Matmuls on the NPU when
    /// `decode_on_npu`, everything else on the GPU.
    pub(crate) fn npu(
        model: &ModelConfig,
        strategy: MisalignStrategy,
        decode_on_npu: bool,
    ) -> Self {
        // Online-prepare generates prefill graphs per request; only the
        // decode graph is prepared offline.
        let graphs = (strategy == MisalignStrategy::OnlinePrepare).then(|| {
            let mut cache = GraphCache::new(model.graph_set(), CompileModel::default());
            cache.preload(&[1]);
            cache
        });
        Self {
            prefill: Some(strategy),
            decode_on_npu,
            graphs,
            ..Self::host_only(Backend::Gpu)
        }
    }
}

impl Planner for FixedRoute {
    fn plan(
        &mut self,
        _op: &'static str,
        shape: MatmulShape,
        dominance: Dominance,
    ) -> Option<PartitionPlan> {
        let m = shape.m;
        match dominance {
            Dominance::GpuDominant => self
                .decode_on_npu
                .then_some(PartitionPlan::NpuOnly { padded_m: m }),
            Dominance::NpuDominant => self.prefill.map(|strategy| match m {
                // The LM head's single row: a standard graph exists.
                1 => PartitionPlan::NpuOnly { padded_m: 1 },
                m => strategy.plan(m),
            }),
        }
    }

    fn host(&self) -> Backend {
        self.host
    }

    fn npu_kernel(&self, shape: MatmulShape) -> KernelDesc {
        if self.int8 {
            KernelDesc::matmul(shape, DType::Int8, DType::Int8, DType::Int8)
        } else {
            npu_kernel(shape)
        }
    }

    /// Online-prepare's graph generation delays the whole request.
    fn prepare(&mut self, des: &mut Des, prompt_len: usize) {
        let Some(graphs) = &mut self.graphs else {
            return;
        };
        let hit = graphs.has(prompt_len) || prompt_len == 0;
        let start = des.soc.clock();
        let prep = graphs.ensure(prompt_len);
        des.soc.advance(prep);
        if let Some(tl) = des.obs.timeline() {
            tl.graph_lookup(hit);
            if prep > SimTime::ZERO {
                tl.graph_compile(prompt_len, start, des.soc.clock());
            }
        }
    }
}

/// GPU kernel-quality tiers of the baseline frameworks (derived from
/// the paper's relative results; see [`calib::engine_eff`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuTier {
    /// PPL-OpenCL: hand-tuned kernels, ≈1 TFLOPS achieved, full
    /// streaming bandwidth.
    PplOpenCl,
    /// MLC (TVM-compiled kernels).
    Mlc,
    /// MNN-OpenCL.
    Mnn,
}

impl GpuTier {
    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            Self::PplOpenCl => "PPL-OpenCL",
            Self::Mlc => "MLC",
            Self::Mnn => "MNN-OpenCL",
        }
    }

    /// The GPU model of this tier.
    pub fn gpu_model(self) -> GpuModel {
        // Sequence slopes reproduce Fig. 13's divergence at long
        // prompts: MNN's tiling improves with rows (≈4.36× gap to
        // Hetero-tensor at 1024 vs 5.85× at 256) while MLC's TVM
        // kernels degrade (9.99× gap at 1024).
        let (eff, decode_bw, seq_slope) = match self {
            Self::PplOpenCl => (
                calib::engine_eff::PPL_OPENCL,
                calib::engine_decode_bw::PPL_OPENCL,
                0.0,
            ),
            Self::Mlc => (calib::engine_eff::MLC, calib::engine_decode_bw::MLC, -0.12),
            Self::Mnn => (calib::engine_eff::MNN, calib::engine_decode_bw::MNN, 0.375),
        };
        let mut gpu = GpuModel::with_efficiency(eff);
        gpu.mem_efficiency = decode_bw / calib::GPU_MAX_BW_GBPS;
        gpu.seq_slope = seq_slope;
        gpu
    }
}

/// Effective INT8 NPU throughput of the MLLM-NPU software stack,
/// TFLOPS-equivalent. Derived from the published 564 tokens/s prefill
/// on a 1.8B model at sequence 256 (2·1.8e9·256 FLOPs ≈ 0.92 TFLOP in
/// 0.454 s ⇒ ≈2 effective TFLOPS), comfortably below the Hexagon's raw
/// INT8 peak because of per-chunk layout transforms and CPU outlier
/// handling.
pub const MLLM_EFFECTIVE_INT8_TFLOPS: f64 = 2.2;

/// The fixed prefill chunk size MLLM-NPU uses.
pub const MLLM_CHUNK: usize = 256;

/// A baseline engine: the one engine under a [`FixedRoute`].
pub type BaselineEngine = WalkEngine<FixedRoute>;

impl EngineKind {
    /// The fixed route a baseline kind runs, or `None` for
    /// Hetero-tensor, whose solver plans every weight Matmul.
    ///
    /// [`EngineKind::build`] and the static fallback floor
    /// ([`crate::admit::fallback_prefill`]) both read their routes
    /// here.
    pub(crate) fn route(self, model: &ModelConfig) -> Option<FixedRoute> {
        let npu = |strategy| FixedRoute::npu(model, strategy, true);
        Some(match self {
            Self::LlamaCpp => FixedRoute::host_only(Backend::Cpu),
            Self::Mlc | Self::MnnOpenCl | Self::PplOpenCl => FixedRoute::host_only(Backend::Gpu),
            Self::NpuPadding => npu(MisalignStrategy::Padding),
            Self::NpuOnlinePrepare => npu(MisalignStrategy::OnlinePrepare),
            Self::NpuPipe => npu(MisalignStrategy::Pipe),
            Self::ChunkedPrefill => npu(MisalignStrategy::Chunked { chunk: 512 }),
            Self::MllmNpu => FixedRoute {
                host: Backend::Cpu,
                int8: true,
                ..npu(MisalignStrategy::Chunked { chunk: MLLM_CHUNK })
            },
            Self::HeteroLayer => FixedRoute::npu(model, MisalignStrategy::Padding, false),
            Self::HeteroTensor => return None,
        })
    }
}

impl BaselineEngine {
    /// The engine of a baseline `kind`: its legend name, its stock SoC
    /// and its route from [`EngineKind::route`].
    ///
    /// # Panics
    ///
    /// Panics for Hetero-tensor, which follows no fixed route.
    pub(crate) fn of(kind: EngineKind, model: &ModelConfig, sync: SyncMechanism) -> Self {
        let route = kind
            .route(model)
            .expect("a baseline kind has a fixed route");
        let gpu_tier = |tier: GpuTier| {
            let mut soc_cfg = SocConfig::snapdragon_8gen3();
            soc_cfg.gpu = tier.gpu_model();
            Soc::new(soc_cfg)
        };
        let soc = match kind {
            EngineKind::LlamaCpp => {
                let mut soc = Soc::new(llama_cpp_soc_config());
                soc.set_cpu_compute();
                soc
            }
            EngineKind::Mlc => gpu_tier(GpuTier::Mlc),
            EngineKind::MnnOpenCl => gpu_tier(GpuTier::Mnn),
            EngineKind::PplOpenCl => gpu_tier(GpuTier::PplOpenCl),
            EngineKind::MllmNpu => {
                let mut soc_cfg = hetero_soc_config(sync);
                // The calibrated effective throughput already folds in
                // the framework's own layout transformations and
                // outlier handling, so the generic shape penalty is
                // disabled (floor = peak) to avoid double-counting.
                soc_cfg.npu.peak_tflops = MLLM_EFFECTIVE_INT8_TFLOPS;
                soc_cfg.npu.min_effective_tflops = MLLM_EFFECTIVE_INT8_TFLOPS;
                Soc::new(soc_cfg)
            }
            _ => assist_soc(hetero_soc_config(sync)),
        };
        Self::with_parts(kind.name(), model, soc, route)
    }

    /// A GPU-only engine of the given framework tier.
    pub fn gpu(model: &ModelConfig, tier: GpuTier) -> Self {
        let kind = match tier {
            GpuTier::PplOpenCl => EngineKind::PplOpenCl,
            GpuTier::Mlc => EngineKind::Mlc,
            GpuTier::Mnn => EngineKind::MnnOpenCl,
        };
        Self::of(kind, model, SyncMechanism::Fast)
    }

    /// The llama.cpp-style CPU engine.
    pub fn llama_cpp(model: &ModelConfig) -> Self {
        Self::of(EngineKind::LlamaCpp, model, SyncMechanism::Fast)
    }

    /// HeteroLLM with layer-level heterogeneous execution: prefill pads
    /// misaligned lengths, decode Matmuls go to the GPU (§5.3).
    pub fn hetero_layer(model: &ModelConfig, sync: SyncMechanism) -> Self {
        Self::of(EngineKind::HeteroLayer, model, sync)
    }

    /// An engine whose weight Matmuls all run on the NPU under one
    /// misalignment strategy (any chunk size for
    /// [`MisalignStrategy::Chunked`]).
    pub fn npu_only(model: &ModelConfig, strategy: MisalignStrategy, sync: SyncMechanism) -> Self {
        let name = match strategy {
            MisalignStrategy::Padding => "Padding",
            MisalignStrategy::OnlinePrepare => "Online-prepare",
            MisalignStrategy::Pipe => "Pipe",
            MisalignStrategy::Chunked { .. } => "Chunked-Prefill",
        };
        let route = FixedRoute::npu(model, strategy, true);
        Self::with_parts(name, model, assist_soc(hetero_soc_config(sync)), route)
    }

    /// MLLM-NPU-style engine: chunked INT8 NPU prefill, CPU aux kernels.
    pub fn mllm_npu(model: &ModelConfig, sync: SyncMechanism) -> Self {
        Self::of(EngineKind::MllmNpu, model, sync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{Engine, HeteroTensorEngine};

    #[test]
    fn ppl_decode_hits_calibrated_rate() {
        // Llama-8B decode on PPL-OpenCL: weights ≈ 3.8 GB at 43.3 GB/s
        // ≈ 11 tokens/s (the paper's Fig. 16 PPL point).
        let mut e = BaselineEngine::gpu(&ModelConfig::llama_8b(), GpuTier::PplOpenCl);
        let d = e.decode(256, 8);
        let rate = d.tokens_per_sec();
        assert!((9.0..13.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn gpu_tier_ordering_holds_in_prefill() {
        // Fig. 13: PPL > MLC ≈ MNN for prefill throughput.
        let model = ModelConfig::llama_8b();
        let rate = |tier| {
            let mut e = BaselineEngine::gpu(&model, tier);
            e.prefill(256).tokens_per_sec()
        };
        let ppl = rate(GpuTier::PplOpenCl);
        let mlc = rate(GpuTier::Mlc);
        let mnn = rate(GpuTier::Mnn);
        assert!(ppl > mlc * 1.5, "ppl {ppl} mlc {mlc}");
        assert!(
            (mlc / mnn) > 0.8 && (mlc / mnn) < 1.3,
            "mlc {mlc} mnn {mnn}"
        );
        // Absolute scale: PPL ≈ 60–90 tok/s at seq 256 on Llama-8B.
        assert!((50.0..100.0).contains(&ppl), "ppl {ppl}");
    }

    #[test]
    fn llama_cpp_is_slowest() {
        let model = ModelConfig::llama_8b();
        let mut cpu = BaselineEngine::llama_cpp(&model);
        let mut gpu = BaselineEngine::gpu(&model, GpuTier::Mlc);
        let c = cpu.prefill(64).tokens_per_sec();
        let g = gpu.prefill(64).tokens_per_sec();
        assert!(g > c * 2.0, "gpu {g} cpu {c}");
        // Decode: ≈ 23 GB/s over ≈3.8 GB of weights ≈ 5–7 tok/s.
        let d = cpu.decode(64, 4).tokens_per_sec();
        assert!((4.0..8.0).contains(&d), "cpu decode {d}");
    }

    #[test]
    fn prefill_scales_roughly_linearly() {
        let mut e = BaselineEngine::gpu(&ModelConfig::llama_3b(), GpuTier::PplOpenCl);
        let t64 = e.prefill(64).elapsed.as_secs_f64();
        let t256 = e.prefill(256).elapsed.as_secs_f64();
        let ratio = t256 / t64;
        assert!((3.0..6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn hetero_layer_beats_gpu_only_in_prefill() {
        // Fig. 13: Hetero-layer ≈ 3× PPL-OpenCL at seq 256 (Llama-8B).
        let model = ModelConfig::llama_8b();
        let mut hetero = BaselineEngine::hetero_layer(&model, SyncMechanism::Fast);
        let mut ppl = BaselineEngine::gpu(&model, GpuTier::PplOpenCl);
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
        let mut hetero = BaselineEngine::hetero_layer(&model, SyncMechanism::Fast);
        let mut ppl = BaselineEngine::gpu(&model, GpuTier::PplOpenCl);
        let h = hetero.decode(256, 8).tokens_per_sec();
        let p = ppl.decode(256, 8).tokens_per_sec();
        let ratio = h / p;
        assert!((0.8..1.15).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fast_sync_improves_prefill() {
        // Fig. 15: Hetero-layer gains ~15% from fast synchronization.
        let model = ModelConfig::llama_8b();
        let mut fast = BaselineEngine::hetero_layer(&model, SyncMechanism::Fast);
        let mut slow = BaselineEngine::hetero_layer(&model, SyncMechanism::Driver);
        let f = fast.prefill(256).tokens_per_sec();
        let s = slow.prefill(256).tokens_per_sec();
        let gain = f / s - 1.0;
        assert!((0.05..0.60).contains(&gain), "gain {gain}");
    }

    #[test]
    fn prefill_speed_is_hundreds_of_tokens_per_sec() {
        let model = ModelConfig::llama_8b();
        let mut e = BaselineEngine::hetero_layer(&model, SyncMechanism::Fast);
        let rate = e.prefill(256).tokens_per_sec();
        assert!((120.0..350.0).contains(&rate), "rate {rate}");
    }

    fn prefill_latency(strategy: MisalignStrategy, len: usize) -> f64 {
        let model = ModelConfig::llama_8b();
        let mut e = BaselineEngine::npu_only(&model, strategy, SyncMechanism::Fast);
        e.prefill(len).elapsed.as_millis_f64()
    }

    #[test]
    fn online_prepare_pays_graph_generation() {
        // §5.2.2: at misaligned lengths, Online-prepare's latency is
        // dominated by graph generation (408 ms at length 135).
        let online = prefill_latency(MisalignStrategy::OnlinePrepare, 135);
        let pipe = prefill_latency(MisalignStrategy::Pipe, 135);
        assert!(online > pipe + 300.0, "online {online} vs pipe {pipe}");
    }

    #[test]
    fn padding_latency_is_stepwise() {
        // Latency just above a standard size jumps to the next step
        // and stays ~flat until the following one.
        let at_513 = prefill_latency(MisalignStrategy::Padding, 513);
        let at_768 = prefill_latency(MisalignStrategy::Padding, 768);
        let at_1024 = prefill_latency(MisalignStrategy::Padding, 1024);
        let step_spread = (at_1024 - at_513).abs() / at_1024;
        assert!(
            step_spread < 0.25,
            "513→1024 should be one step: {at_513} {at_768} {at_1024}"
        );
    }

    #[test]
    fn pipe_beats_padding_on_misaligned_lengths() {
        // §5.2.2: "Pipe compensates for the overhead of Padding".
        for len in [300usize, 525, 700] {
            let pad = prefill_latency(MisalignStrategy::Padding, len);
            let pipe = prefill_latency(MisalignStrategy::Pipe, len);
            assert!(pipe < pad, "len {len}: pipe {pipe} >= pad {pad}");
        }
    }

    #[test]
    fn aligned_lengths_equalize_padding_and_pipe() {
        let pad = prefill_latency(MisalignStrategy::Padding, 512);
        let pipe = prefill_latency(MisalignStrategy::Pipe, 512);
        assert!((pad - pipe).abs() / pad < 0.02, "pad {pad} pipe {pipe}");
    }

    #[test]
    fn online_prepare_amortizes_on_repeat_lengths() {
        // A second request with the same length hits the graph cache.
        let model = ModelConfig::llama_8b();
        let mut e =
            BaselineEngine::npu_only(&model, MisalignStrategy::OnlinePrepare, SyncMechanism::Fast);
        let first = e.prefill(135).elapsed.as_millis_f64();
        let second = e.prefill(135).elapsed.as_millis_f64();
        assert!(second < first - 300.0, "first {first} second {second}");
    }

    #[test]
    fn matches_published_internlm_rate() {
        // §5.2.1: "MLLM-npu attains only 564 tokens/s" at 1.8B / 256.
        let mut e = BaselineEngine::mllm_npu(&ModelConfig::internlm_1_8b(), SyncMechanism::Fast);
        let rate = e.prefill(256).tokens_per_sec();
        assert!((400.0..750.0).contains(&rate), "rate {rate}");
    }

    #[test]
    fn hetero_tensor_beats_mllm_npu_without_int_quantization() {
        // The paper's point: FLOAT NPU GEMMs + GPU assistance beat the
        // INT-only stack (1092 vs 564 ⇒ ≈1.9×) while preserving
        // accuracy.
        let model = ModelConfig::internlm_1_8b();
        let mut mllm = BaselineEngine::mllm_npu(&model, SyncMechanism::Fast);
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
            let mut e = BaselineEngine::mllm_npu(&model, SyncMechanism::Fast);
            e.prefill(seq).tokens_per_sec()
        };
        // A 64-token prompt still pays for a full 256-chunk.
        assert!(rate(64) < rate(256) * 0.5);
    }
}
