//! Static pre-admission cost mirrors: sound `[lo, hi]` latency bounds
//! and peak-footprint figures for engine executions, computed purely
//! from SoC cost queries — no discrete-event simulation runs and no
//! engine clock advances.
//!
//! The mirrors are the interval domain of the engines' own walk
//! (`crate::engines::walk`): [`HeteroMirror`] runs the same phase
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
//! equality for the fallback floor ([`fallback_prefill`]), which walks
//! a fallback engine's serial route. The runtime controller uses it to
//! veto statically TTFT-infeasible fallbacks before building (let
//! alone simulating) the fallback engine.

use hetero_profiler::{CostInterval, RealExecProvider};
use hetero_soc::sync::{Dominance, SyncMechanism};
use hetero_soc::{SimTime, Soc, SocConfig};
use hetero_solver::{PartitionPlan, RegionTable};
use hetero_tensor::shape::MatmulShape;

use crate::engines::walk::{run_phase, Intervals};
use crate::engines::{hetero_soc_config, EngineKind, SolverPlanner};
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
    planner: SolverPlanner<RealExecProvider>,
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
            planner: SolverPlanner::standard(provider),
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
                (
                    op.op,
                    shape,
                    self.plan(op.op, shape, Dominance::NpuDominant),
                )
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

    /// The plan the engine adopts for `op` at `shape`: prefill plans
    /// are solved NPU-dominant, decode plans GPU-dominant, each once
    /// per `(op, m)`.
    pub fn plan(
        &mut self,
        op: &'static str,
        shape: MatmulShape,
        dominance: Dominance,
    ) -> PartitionPlan {
        self.planner.choice(op, shape, dominance).plan
    }
}

/// Prefill latency of the fixed-route engine `kind` under `soc_cfg`:
/// the route [`EngineKind::build`] gives it, walked in the interval
/// domain, or `None` for Hetero-tensor, which follows no fixed route
/// (see [`HeteroMirror`]). The route is serial, so the interval is a
/// point: the prefill time of that route on `Soc::new(soc_cfg)`, less
/// any per-request prologue (Online-prepare's graph generation). The
/// runtime controller vets its GPU-only and NPU-pipe fallbacks with
/// it.
pub fn fallback_prefill(
    kind: EngineKind,
    model: &ModelConfig,
    soc_cfg: &SocConfig,
    prompt_len: usize,
) -> Option<SimTime> {
    let mut route = kind.route(model)?;
    let mut costs = Intervals::new(Soc::new(soc_cfg.clone()));
    let trace = prefill_trace(model, prompt_len);
    run_phase(&mut costs, &mut route, &trace, Dominance::NpuDominant)
        .expect("built-in traces give every weight matmul a shape");
    Some(costs.total.lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{BaselineEngine, Engine, HeteroTensorEngine};
    use hetero_soc::specs::{project_config, table1};
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fallback floor is exact: for both fallback kinds,
        /// three models, prompts past the largest graph size, and the
        /// default engine config or a Table-1 projection, the interval
        /// walk equals the DES engine's prefill time on the same route
        /// and config — and on the default config, the stock engine's.
        #[test]
        fn fallback_mirrors_are_exact(
            pipe in proptest::bool::ANY,
            model_ix in 0usize..3,
            soc_ix in 0usize..16,
            m in 1usize..=1100,
        ) {
            let model = [
                ModelConfig::internlm_1_8b(),
                ModelConfig::qwen2_1_5b(),
                ModelConfig::llama_3b(),
            ][model_ix]
                .clone();
            let socs: Vec<SocConfig> = std::iter::once(hetero_soc_config(SyncMechanism::Fast))
                .chain(table1().iter().filter_map(project_config))
                .collect();
            let cfg = &socs[soc_ix % socs.len()];
            let kind = if pipe { EngineKind::NpuPipe } else { EngineKind::PplOpenCl };
            let bound = fallback_prefill(kind, &model, cfg, m).expect("a fixed-route kind");
            let route = kind.route(&model).expect("a fixed-route kind");
            let mut engine =
                BaselineEngine::with_parts(kind.name(), &model, Soc::new(cfg.clone()), route);
            prop_assert_eq!(bound, engine.prefill(m).elapsed);
            if soc_ix % socs.len() == 0 {
                let mut stock = kind.build(&model, SyncMechanism::Fast);
                prop_assert_eq!(bound, stock.prefill(m).elapsed);
            }
        }
    }
}
