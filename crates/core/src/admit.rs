//! Static pre-admission cost mirrors: sound `[lo, hi]` latency bounds
//! and peak-footprint figures for engine executions, computed purely
//! from SoC cost queries — no discrete-event simulation runs and no
//! engine clock advances.
//!
//! The mirrors are the interval domain of the engines' own walk
//! ([`crate::engines::walk`]): [`HeteroMirror`] runs the same phase
//! walk, plan tables and backend-switch machine as
//! [`crate::engines::HeteroTensorEngine`], but each step is priced
//! through `Soc::solo_kernel_time` / `Soc::contended_kernel_time`,
//! which are pure `&self` queries, instead of being executed.
//! Soundness then reduces to the overlap model's pinned envelope: a
//! parallel section's makespan is never below the larger per-side
//! *solo* sum and never above the larger *contended* sum, while serial
//! kernels, backend switches and rendezvous are exact constants. Every
//! serial step is an exact point, so the hetero mirror's interval
//! width comes only from parallel partitions — and collapses to an
//! equality for the single-backend fallback mirrors, which the runtime
//! controller uses to veto statically TTFT-infeasible fallback plans
//! before building (let alone simulating) the fallback engine.

use hetero_graph::plan::pipe_plan;
use hetero_profiler::{CostInterval, RealExecProvider};
use hetero_soc::calib::STANDARD_GRAPH_SIZES;
use hetero_soc::sync::{Dominance, SyncMechanism};
use hetero_soc::{Backend, SimTime, Soc, SocConfig};
use hetero_solver::{PartitionPlan, RegionTable};
use hetero_tensor::shape::MatmulShape;

use crate::engines::walk::{run_phase, CostDomain, Intervals, Planner};
use crate::engines::{hetero_soc_config, npu_kernel};
use crate::model::ModelConfig;
use crate::trace::{decode_trace, prefill_trace, OpRole, PhaseTrace};

/// A solved weight-Matmul site in a phase: operator name, logical
/// shape, and the partition plan the mirror (and the engine) adopts.
pub type PlanSite = (&'static str, MatmulShape, PartitionPlan);

/// Static mirror of [`crate::engines::HeteroTensorEngine`]: the
/// engine's phase walk over identical plan tables, run in the interval
/// domain.
///
/// Because the engine's plan choice and switch sequence are
/// deterministic functions of the model and prompt length, the
/// mirror's interval brackets the engine's observed elapsed time for
/// the same phase sequence.
pub struct HeteroMirror {
    cfg: ModelConfig,
    costs: Intervals,
    planner: Planner<RealExecProvider>,
}

impl HeteroMirror {
    /// Mirror of `HeteroTensorEngine::new(model, sync)`.
    pub fn new(model: &ModelConfig, sync: SyncMechanism) -> Self {
        Self::with_soc_config(model, hetero_soc_config(sync))
    }

    /// Mirror of an engine over an explicit SoC configuration (e.g. a
    /// disturbance-adjusted one).
    pub fn with_soc_config(model: &ModelConfig, soc_cfg: SocConfig) -> Self {
        let provider = RealExecProvider::new(soc_cfg.clone());
        Self {
            cfg: model.clone(),
            costs: Intervals::new(Soc::new(soc_cfg)),
            planner: Planner::standard(provider),
        }
    }

    /// Interval over one phase trace, continuing the switch machine
    /// from wherever the previous phase left it.
    fn phase_bound(&mut self, trace: &PhaseTrace, dominance: Dominance) -> CostInterval {
        self.costs.total = CostInterval::ZERO;
        run_phase(&mut self.costs, &mut self.planner, trace, dominance)
            .expect("built-in traces give every weight matmul a shape");
        self.costs.total
    }

    /// Sound `[lo, hi]` bound on the engine's prefill elapsed time for
    /// a prompt of `prompt_len` tokens, from the same switch-machine
    /// state the engine would be in (call in the same phase order).
    pub fn prefill_bound(&mut self, prompt_len: usize) -> CostInterval {
        let trace = prefill_trace(&self.cfg, prompt_len);
        self.phase_bound(&trace, Dominance::NpuDominant)
    }

    /// Sound `[lo, hi]` bound on decoding `n_tokens` tokens after a
    /// prompt of `prompt_len`.
    pub fn decode_bound(&mut self, prompt_len: usize, n_tokens: usize) -> CostInterval {
        let mut total = CostInterval::ZERO;
        for t in 0..n_tokens {
            let trace = decode_trace(&self.cfg, prompt_len + t + 1, 1);
            total += self.phase_bound(&trace, Dominance::GpuDominant);
        }
        total
    }

    /// The weight-Matmul plan sites of a prefill at `prompt_len`, in
    /// trace order — what the footprint analyzer folds region tables
    /// over.
    pub fn prefill_plans(&mut self, prompt_len: usize) -> Vec<PlanSite> {
        let trace = prefill_trace(&self.cfg, prompt_len);
        trace
            .iter_all()
            .filter(|op| op.role == OpRole::WeightMatmul)
            .map(|op| {
                let shape = op.shape.expect("weight matmul carries a shape");
                let choice = self.planner.plan(op.op, shape, Dominance::NpuDominant);
                (op.op, shape, choice.plan)
            })
            .collect()
    }

    /// Static peak pooled activation footprint of a prefill at
    /// `prompt_len`: the max over plan sites of the site's
    /// [`RegionTable`] peak. Plan arenas are transient and disjoint in
    /// time (one logical Matmul in flight at once), so the phase peak
    /// is the per-site max, not the sum.
    pub fn prefill_peak_bytes(&mut self, prompt_len: usize) -> usize {
        self.prefill_plans(prompt_len)
            .iter()
            .map(|(_, shape, plan)| RegionTable::for_plan(plan, *shape).peak_bytes())
            .max()
            .unwrap_or(0)
    }
}

/// Exact prefill latency of the GPU-only (PPL-OpenCL tier) fallback
/// engine under `soc_cfg`: the single-backend engine runs every trace
/// kernel serially on the GPU, so the mirror is a plain sum of solo
/// kernel times.
pub fn gpu_only_prefill(model: &ModelConfig, soc_cfg: &SocConfig, prompt_len: usize) -> SimTime {
    let mut costs = Intervals::new(Soc::new(soc_cfg.clone()));
    for op in prefill_trace(model, prompt_len).iter_all() {
        costs.serial(Backend::Gpu, &op.kernel);
    }
    costs.total.lo
}

/// Exact prefill latency of the NPU-pipe fallback engine under
/// `soc_cfg`: weight Matmuls decompose into standard-size pipe chunks
/// on the NPU, aux/attention kernels run on the GPU, with the routed
/// core's switch machine (starting unprimed) paying one backend-switch
/// constant per transition.
pub fn npu_pipe_prefill(model: &ModelConfig, soc_cfg: &SocConfig, prompt_len: usize) -> SimTime {
    let mut costs = Intervals::new(Soc::new(soc_cfg.clone()));
    let chunks = pipe_plan(prompt_len, &STANDARD_GRAPH_SIZES).npu_chunks;
    for op in prefill_trace(model, prompt_len).iter_all() {
        match op.role {
            OpRole::WeightMatmul => {
                let shape = op.shape.expect("weight matmul carries a shape");
                if shape.m == 1 {
                    costs.serial(Backend::Npu, &npu_kernel(shape));
                } else {
                    for &c in &chunks {
                        costs.serial(Backend::Npu, &npu_kernel(MatmulShape { m: c, ..shape }));
                    }
                }
            }
            OpRole::Attention | OpRole::Aux => costs.serial(Backend::Gpu, &op.kernel),
        }
    }
    costs.total.lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::npu_only::{MisalignStrategy, NpuOnlyEngine};
    use crate::engines::single::{GpuTier, SingleBackendEngine};
    use crate::engines::{Engine, HeteroTensorEngine};

    #[test]
    fn hetero_mirror_brackets_engine_prefill_and_decode() {
        let model = ModelConfig::llama_3b();
        let mut mirror = HeteroMirror::new(&model, SyncMechanism::Fast);
        let mut engine = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        for len in [135usize, 300] {
            let bound = mirror.prefill_bound(len);
            let observed = engine.prefill(len).elapsed;
            assert!(
                bound.contains(observed),
                "len {len}: observed {observed} outside [{}, {}]",
                bound.lo,
                bound.hi
            );
        }
        let bound = mirror.decode_bound(300, 4);
        let observed = engine.decode(300, 4).elapsed;
        assert!(
            bound.contains(observed),
            "decode observed {observed} outside [{}, {}]",
            bound.lo,
            bound.hi
        );
    }

    #[test]
    fn gpu_only_mirror_is_exact() {
        let model = ModelConfig::llama_3b();
        // The PPL fallback engine's SoC config is hetero_soc_config
        // modulo the sync model, which a single-backend engine never
        // consults.
        let cfg = hetero_soc_config(SyncMechanism::Fast);
        let bound = gpu_only_prefill(&model, &cfg, 300);
        let mut e = SingleBackendEngine::gpu(&model, GpuTier::PplOpenCl);
        assert_eq!(bound, e.prefill(300).elapsed);
    }

    #[test]
    fn npu_pipe_mirror_is_exact() {
        let model = ModelConfig::llama_3b();
        let cfg = hetero_soc_config(SyncMechanism::Fast);
        let bound = npu_pipe_prefill(&model, &cfg, 300);
        let mut e = NpuOnlyEngine::new(&model, MisalignStrategy::Pipe, SyncMechanism::Fast);
        assert_eq!(bound, e.prefill(300).elapsed);
    }

    #[test]
    fn prefill_peak_covers_every_site_table() {
        let model = ModelConfig::llama_3b();
        let mut mirror = HeteroMirror::new(&model, SyncMechanism::Fast);
        let peak = mirror.prefill_peak_bytes(300);
        assert!(peak > 0);
        for (op, shape, plan) in mirror.prefill_plans(300) {
            let site = RegionTable::for_plan(&plan, shape).peak_bytes();
            assert!(
                site <= peak,
                "{op}: site peak {site} above phase peak {peak}"
            );
        }
    }

    #[test]
    fn derated_soc_inflates_the_bound() {
        let model = ModelConfig::llama_3b();
        let quiet = HeteroMirror::new(&model, SyncMechanism::Fast).prefill_bound(256);
        let mut slow_cfg = hetero_soc_config(SyncMechanism::Fast);
        slow_cfg.gpu.achieved_tflops *= 0.5;
        slow_cfg.gpu.mem_efficiency *= 0.5;
        let slow = HeteroMirror::with_soc_config(&model, slow_cfg).prefill_bound(256);
        assert!(slow.hi > quiet.hi, "slow {} vs quiet {}", slow.hi, quiet.hi);
    }
}
