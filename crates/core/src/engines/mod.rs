//! Inference engines: HeteroLLM (layer- and tensor-level) plus the
//! baseline engines the paper compares against.
//!
//! Every engine is one [`WalkEngine`]: it executes the same
//! [`crate::trace`] through the one plan walk (`walk`) on the
//! `hetero-soc` simulator, and engines differ only in their per-op
//! policy — which backend each kernel runs on, whether and how
//! Matmuls are partitioned — and in their SoC configuration (kernel
//! quality tier, synchronization mechanism). That is exactly the
//! degrees of freedom the paper explores.

pub mod baseline;
pub mod hetero_tensor;
pub(crate) mod walk;

pub use baseline::{BaselineEngine, FixedRoute, GpuTier, MisalignStrategy};
pub use hetero_tensor::HeteroTensorEngine;
pub use walk::{Observers, SolverPlanner};

use ::hetero_tensor::shape::MatmulShape;
use ::hetero_tensor::DType;
use hetero_soc::power::PowerReport;
use hetero_soc::sync::{Dominance, SyncMechanism};
use hetero_soc::{calib, KernelDesc, Soc, SocConfig};

use crate::error::EngineError;
use crate::model::ModelConfig;
use crate::report::PhaseReport;
use crate::trace::{decode_trace, prefill_trace, ConcurrencyLog};
use walk::{run_phase, Des, Planner};

/// A schedulable inference engine (timing mode).
pub trait Engine {
    /// Engine display name (matches the paper's figure legends).
    fn name(&self) -> String;

    /// The model this engine instance serves.
    fn model(&self) -> &ModelConfig;

    /// Run the prefill phase for a prompt of `prompt_len` tokens,
    /// surfacing malformed traces as typed errors.
    fn try_prefill(&mut self, prompt_len: usize) -> Result<PhaseReport, EngineError>;

    /// Run `n_tokens` decode steps following a prompt of `prompt_len`,
    /// surfacing malformed traces as typed errors.
    fn try_decode(
        &mut self,
        prompt_len: usize,
        n_tokens: usize,
    ) -> Result<PhaseReport, EngineError>;

    /// Infallible prefill for experiment harnesses running well-formed
    /// built-in traces.
    ///
    /// # Panics
    ///
    /// Panics if [`Engine::try_prefill`] fails; runtime callers that
    /// must survive faults use the fallible form.
    fn prefill(&mut self, prompt_len: usize) -> PhaseReport {
        match self.try_prefill(prompt_len) {
            Ok(r) => r,
            Err(e) => panic!("prefill failed: {e}"),
        }
    }

    /// Infallible decode for experiment harnesses running well-formed
    /// built-in traces.
    ///
    /// # Panics
    ///
    /// Panics if [`Engine::try_decode`] fails; runtime callers that
    /// must survive faults use the fallible form.
    fn decode(&mut self, prompt_len: usize, n_tokens: usize) -> PhaseReport {
        match self.try_decode(prompt_len, n_tokens) {
            Ok(r) => r,
            Err(e) => panic!("decode failed: {e}"),
        }
    }

    /// The engine's per-kernel observers.
    fn observers(&mut self) -> &mut Observers;

    /// Start recording a concurrency event log (buffer accesses, queue
    /// submissions, rendezvous signal/wait) for race analysis. Calling
    /// again resets any partial log.
    fn enable_concurrency_log(&mut self) {
        self.observers().enable_concurrency_log();
    }

    /// Take the concurrency log recorded since
    /// [`Engine::enable_concurrency_log`], ending recording. Returns
    /// `None` if recording was never enabled.
    fn take_concurrency_log(&mut self) -> Option<ConcurrencyLog> {
        self.observers().take_concurrency_log()
    }

    /// Start recording a span timeline (kernel submit/complete, sync
    /// waits, graph compiles) against the SoC's simulated clock, for
    /// the observability layer ([`crate::obs`]). Calling again resets
    /// any partial timeline.
    fn enable_timeline(&mut self) {
        self.observers().enable_timeline();
    }

    /// Take the timeline recorded since [`Engine::enable_timeline`],
    /// ending recording. Returns `None` if recording was never enabled.
    fn take_timeline(&mut self) -> Option<crate::obs::Timeline> {
        self.observers().take_timeline()
    }

    /// Access the simulated SoC (clock, meter, trace).
    fn soc(&self) -> &Soc;

    /// Mutable SoC access.
    fn soc_mut(&mut self) -> &mut Soc;

    /// Finalize energy accounting and report power for the whole run.
    fn finish(&mut self) -> PowerReport {
        self.soc_mut().finish().report()
    }
}

/// The one engine: a model, the discrete-event domain and a per-op
/// policy (`walk::Planner`), with prefill and decode run through
/// `walk::run_phase`. [`HeteroTensorEngine`] plans with the solver,
/// [`BaselineEngine`] follows a [`FixedRoute`].
pub struct WalkEngine<Pl> {
    name: &'static str,
    pub(crate) cfg: ModelConfig,
    pub(crate) des: Des,
    pub(crate) planner: Pl,
}

impl<Pl> WalkEngine<Pl> {
    /// An engine named `name` serving `model` on `soc` under `planner`.
    pub(crate) fn with_parts(
        name: &'static str,
        model: &ModelConfig,
        soc: Soc,
        planner: Pl,
    ) -> Self {
        Self {
            name,
            cfg: model.clone(),
            des: Des::new(soc),
            planner,
        }
    }
}

impl<Pl: Planner> Engine for WalkEngine<Pl> {
    fn name(&self) -> String {
        self.name.into()
    }

    fn model(&self) -> &ModelConfig {
        &self.cfg
    }

    fn try_prefill(&mut self, prompt_len: usize) -> Result<PhaseReport, EngineError> {
        let start = self.des.soc.clock();
        self.planner.prepare(&mut self.des, prompt_len);
        let trace = prefill_trace(&self.cfg, prompt_len);
        run_phase(
            &mut self.des,
            &mut self.planner,
            &trace,
            Dominance::NpuDominant,
        )?;
        Ok(PhaseReport {
            tokens: prompt_len,
            elapsed: self.des.soc.clock() - start,
        })
    }

    fn try_decode(
        &mut self,
        prompt_len: usize,
        n_tokens: usize,
    ) -> Result<PhaseReport, EngineError> {
        let start = self.des.soc.clock();
        for t in 0..n_tokens {
            let trace = decode_trace(&self.cfg, prompt_len + t + 1, 1);
            run_phase(
                &mut self.des,
                &mut self.planner,
                &trace,
                Dominance::GpuDominant,
            )?;
        }
        Ok(PhaseReport {
            tokens: n_tokens,
            elapsed: self.des.soc.clock() - start,
        })
    }

    fn observers(&mut self) -> &mut Observers {
        &mut self.des.obs
    }

    fn soc(&self) -> &Soc {
        &self.des.soc
    }

    fn soc_mut(&mut self) -> &mut Soc {
        &mut self.des.soc
    }
}

/// The engines evaluated in the paper, constructible by name.
///
/// # Examples
///
/// ```
/// use hetero_soc::sync::SyncMechanism;
/// use heterollm::{EngineKind, ModelConfig};
///
/// let model = ModelConfig::internlm_1_8b();
/// let mut engine = EngineKind::HeteroTensor.build(&model, SyncMechanism::Fast);
/// let report = engine.prefill(256);
/// assert!(report.tokens_per_sec() > 1000.0); // the paper's headline claim
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// llama.cpp: CPU-only, W4A16.
    LlamaCpp,
    /// MLC: GPU-only (TVM-compiled kernels).
    Mlc,
    /// MNN-OpenCL: GPU-only.
    MnnOpenCl,
    /// PPL-OpenCL: GPU-only (the baseline HeteroLLM builds on).
    PplOpenCl,
    /// NPU matmuls with padding to standard graph sizes.
    NpuPadding,
    /// NPU matmuls with runtime graph generation per request.
    NpuOnlinePrepare,
    /// NPU matmuls with pipe (multi-sequence-length) decomposition.
    NpuPipe,
    /// MLLM-NPU-style chunked prefill (fixed 512-token chunks).
    ChunkedPrefill,
    /// MLLM-NPU comparator: chunked INT8 NPU prefill, CPU aux kernels.
    MllmNpu,
    /// HeteroLLM, layer-level heterogeneous execution.
    HeteroLayer,
    /// HeteroLLM, tensor-level heterogeneous execution.
    HeteroTensor,
}

impl EngineKind {
    /// All engine kinds.
    pub const ALL: [EngineKind; 11] = [
        EngineKind::LlamaCpp,
        EngineKind::Mlc,
        EngineKind::MnnOpenCl,
        EngineKind::PplOpenCl,
        EngineKind::NpuPadding,
        EngineKind::NpuOnlinePrepare,
        EngineKind::NpuPipe,
        EngineKind::ChunkedPrefill,
        EngineKind::MllmNpu,
        EngineKind::HeteroLayer,
        EngineKind::HeteroTensor,
    ];

    /// Display name matching the paper's legends.
    pub const fn name(self) -> &'static str {
        match self {
            Self::LlamaCpp => "llama.cpp",
            Self::Mlc => "MLC",
            Self::MnnOpenCl => "MNN-OpenCL",
            Self::PplOpenCl => "PPL-OpenCL",
            Self::NpuPadding => "Padding",
            Self::NpuOnlinePrepare => "Online-prepare",
            Self::NpuPipe => "Pipe",
            Self::ChunkedPrefill => "Chunked-Prefill",
            Self::MllmNpu => "MLLM-NPU",
            Self::HeteroLayer => "Hetero-layer",
            Self::HeteroTensor => "Hetero-tensor",
        }
    }

    /// Build an engine for `model` with the given sync mechanism.
    ///
    /// `sync` prices every cross-backend rendezvous and backend switch.
    /// The single-backend engines (llama.cpp, MLC, MNN, PPL) never
    /// cross backends and run their stock SoC configuration, so they
    /// ignore it; every other engine pays it.
    pub fn build(self, model: &ModelConfig, sync: SyncMechanism) -> Box<dyn Engine> {
        let npu_only = |strategy| Box::new(BaselineEngine::npu_only(model, strategy, sync));
        match self {
            Self::LlamaCpp => Box::new(BaselineEngine::llama_cpp(model)),
            Self::Mlc => Box::new(BaselineEngine::gpu(model, GpuTier::Mlc)),
            Self::MnnOpenCl => Box::new(BaselineEngine::gpu(model, GpuTier::Mnn)),
            Self::PplOpenCl => Box::new(BaselineEngine::gpu(model, GpuTier::PplOpenCl)),
            Self::NpuPadding => npu_only(MisalignStrategy::Padding),
            Self::NpuOnlinePrepare => npu_only(MisalignStrategy::OnlinePrepare),
            Self::NpuPipe => npu_only(MisalignStrategy::Pipe),
            Self::ChunkedPrefill => npu_only(MisalignStrategy::Chunked { chunk: 512 }),
            Self::MllmNpu => Box::new(BaselineEngine::mllm_npu(model, sync)),
            Self::HeteroLayer => Box::new(BaselineEngine::hetero_layer(model, sync)),
            Self::HeteroTensor => Box::new(HeteroTensorEngine::new(model, sync)),
        }
    }
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    /// Parse a CLI-style engine name (`"hetero-tensor"`, `"mlc"`, ...).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "hetero-tensor" => Self::HeteroTensor,
            "hetero-layer" => Self::HeteroLayer,
            "ppl-opencl" | "ppl" => Self::PplOpenCl,
            "mlc" => Self::Mlc,
            "mnn-opencl" | "mnn" => Self::MnnOpenCl,
            "llama-cpp" | "llama.cpp" => Self::LlamaCpp,
            "padding" => Self::NpuPadding,
            "online-prepare" => Self::NpuOnlinePrepare,
            "pipe" => Self::NpuPipe,
            "chunked-prefill" => Self::ChunkedPrefill,
            "mllm-npu" => Self::MllmNpu,
            other => return Err(format!("unknown engine '{other}'")),
        })
    }
}

/// The SoC configuration HeteroLLM-family engines run on: PPL-quality
/// GPU kernels (HeteroLLM extends PPL, §5.1) plus the chosen sync
/// mechanism.
pub fn hetero_soc_config(sync: SyncMechanism) -> SocConfig {
    let mut cfg = SocConfig::snapdragon_8gen3().with_sync(sync);
    cfg.gpu = GpuTier::PplOpenCl.gpu_model();
    cfg
}

/// A HeteroLLM-family SoC on `cfg`: its GPU runs short assist kernels
/// between sync points, not a deep full-throttle queue (power tier;
/// Fig. 19).
pub(crate) fn assist_soc(cfg: SocConfig) -> Soc {
    let mut soc = Soc::new(cfg);
    soc.set_gpu_assist();
    soc
}

/// The NPU-side kernel for a logical Matmul `[m,k] x [k,n]`: operands
/// permuted to `[n,k] x [k,m]` (§4) so the INT4 weight streams and the
/// FP16 activation is stationary.
pub fn npu_kernel(shape: MatmulShape) -> KernelDesc {
    KernelDesc::matmul(shape.reversed(), DType::Int4, DType::F16, DType::F16)
}

/// The GPU-side kernel for a logical Matmul (W4A16: FP16 activations,
/// INT4 weights dequantized in-kernel).
pub fn gpu_kernel(shape: MatmulShape) -> KernelDesc {
    KernelDesc::matmul_w4a16(shape)
}

/// Decode bandwidth tier helper: clamp the CPU's achievable bandwidth
/// for the llama.cpp engine.
pub(crate) fn llama_cpp_soc_config() -> SocConfig {
    let mut cfg = SocConfig::snapdragon_8gen3();
    cfg.mem.cpu_cap_gbps = calib::engine_decode_bw::LLAMA_CPP;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(EngineKind::Mlc.name(), "MLC");
        assert_eq!(EngineKind::HeteroTensor.name(), "Hetero-tensor");
        assert_eq!(EngineKind::ALL.len(), 11);
    }

    #[test]
    fn all_engines_construct_and_run_tiny() {
        let model = ModelConfig::tiny();
        for kind in EngineKind::ALL {
            let mut e = kind.build(&model, SyncMechanism::Fast);
            let p = e.prefill(33); // deliberately misaligned
            assert!(p.elapsed > hetero_soc::SimTime::ZERO, "{}", e.name());
            let d = e.decode(33, 3);
            assert_eq!(d.tokens, 3, "{}", e.name());
            let power = e.finish();
            assert!(power.avg_power_w > 0.0, "{}", e.name());
        }
    }

    #[test]
    fn engine_names_parse() {
        for kind in EngineKind::ALL {
            // Round-trip through a CLI-style slug.
            let slug = kind.name().to_ascii_lowercase();
            let parsed: EngineKind = slug
                .parse()
                .unwrap_or_else(|_| panic!("{} failed to parse", kind.name()));
            assert_eq!(parsed, kind);
        }
        assert!("warp-drive".parse::<EngineKind>().is_err());
    }

    #[test]
    fn npu_kernel_is_permuted() {
        let k = npu_kernel(MatmulShape::new(256, 4096, 14336));
        match &k.op {
            hetero_soc::OpKind::Matmul {
                shape, act, weight, ..
            } => {
                assert_eq!((shape.m, shape.k, shape.n), (14336, 4096, 256));
                assert_eq!(*act, DType::Int4);
                assert_eq!(*weight, DType::F16);
            }
            _ => panic!("not a matmul"),
        }
    }
}
