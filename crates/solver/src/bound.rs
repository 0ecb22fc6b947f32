//! Static `[lo, hi]` cost intervals for partition plans.
//!
//! The solver's `solve` picks a plan by *estimating* its latency; this
//! module exposes the same cost arithmetic as a sound interval per
//! step of the plan's lowering (`PartitionPlan::lower`). The sync
//! schedule has one event per step of the same list, so the abstract
//! interpreter in `hetero-analyze` can propagate the intervals through
//! the submission DAG.
//!
//! Soundness argument (matched against `hetero_soc::Soc`):
//!
//! - Serial plans (`GpuOnly`, `NpuOnly`, `NpuPipe`, degenerate
//!   `SeqCut`) execute via `run_serial`, which charges exactly the
//!   solo kernel time — their intervals are exact points.
//! - Parallel plans execute via `run_parallel`, whose overlap model
//!   runs both sides contended until the shorter finishes and re-prices
//!   the remainder solo. The makespan is therefore never below the
//!   larger *solo* duration and never above the larger *contended*
//!   duration (pinned by `hetero-soc`'s
//!   `contended_time_never_faster_than_solo` and the overlap tests) —
//!   exactly the `[max(lo), max(hi)]` interval this module returns.
//! - Rendezvous and backend-switch costs are fixed constants of the
//!   sync model, unaffected by bandwidth conditions: exact points.

use hetero_graph::partition::{ComputeStep, Step};
use hetero_profiler::db::BwCondition;
use hetero_profiler::{CostInterval, CostProvider};
use hetero_soc::sync::Dominance;
use hetero_soc::Backend;
use hetero_tensor::shape::MatmulShape;

use crate::plan::PartitionPlan;
use crate::solver::Solver;

impl<P: CostProvider> Solver<P> {
    /// Per-step cost intervals for `plan`, one per step of the plan's
    /// lowering ([`PartitionPlan::lower`]), so interval `i` prices
    /// event `i` of the sync schedule.
    ///
    /// Serial plans run each compute step solo (exact points); parallel
    /// plans carry `[solo, contended]` compute intervals under the
    /// solver's operand-permutation convention. A backend switch or
    /// rendezvous costs its exact sync constant.
    pub fn event_cost_intervals(
        &self,
        plan: &PartitionPlan,
        shape: MatmulShape,
        dominance: Dominance,
    ) -> Vec<CostInterval> {
        let sync = &self.config().sync;
        let lowered = plan.lower(shape);
        let cost = |c: &ComputeStep, bw| match c.backend {
            Backend::Gpu => self.gpu_cost(c.shape, bw),
            _ => self.npu_cost(c.shape, bw),
        };
        lowered
            .steps()
            .map(|step| match step {
                Step::Compute(c) => {
                    let lo = cost(&c, BwCondition::Solo);
                    let hi = if lowered.parallel {
                        cost(&c, BwCondition::Contended).max(lo)
                    } else {
                        lo
                    };
                    CostInterval { lo, hi }
                }
                Step::Switch => CostInterval::exact(sync.backend_switch()),
                Step::Rendezvous => CostInterval::exact(sync.rendezvous(dominance)),
            })
            .collect()
    }

    /// Closed-form completion-time interval of `plan`: serial plans sum
    /// their events; parallel plans take the pointwise max of the GPU
    /// side against the summed NPU side, plus the rendezvous constant.
    ///
    /// For parallel plans, `hi` equals the estimate `solve` would
    /// assign the plan (contended max + rendezvous), and serial
    /// intervals are the exact estimate — so the bound degrades to the
    /// solver's objective when the interval collapses.
    pub fn plan_cost_interval(
        &self,
        plan: &PartitionPlan,
        shape: MatmulShape,
        dominance: Dominance,
    ) -> CostInterval {
        let events = self.event_cost_intervals(plan, shape, dominance);
        let sum = |es: &[CostInterval]| es.iter().fold(CostInterval::ZERO, |a, &b| a + b);
        if !plan.is_parallel() {
            return sum(&events);
        }
        let [gpu, npu @ .., rendezvous] = &events[..] else {
            unreachable!("a parallel plan has a GPU event and a rendezvous");
        };
        gpu.join_max(sum(npu)) + *rendezvous
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolverConfig;
    use hetero_profiler::RealExecProvider;
    use hetero_soc::SocConfig;

    fn solver() -> Solver<RealExecProvider> {
        Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            SolverConfig::default(),
        )
    }

    #[test]
    fn serial_plan_interval_is_exact_and_matches_estimate() {
        let s = solver();
        let shape = MatmulShape::new(256, 4096, 4096);
        let plan = PartitionPlan::NpuOnly { padded_m: 256 };
        let iv = s.plan_cost_interval(&plan, shape, Dominance::NpuDominant);
        assert_eq!(iv.lo, iv.hi, "serial plans are exact points");
        let est = s.npu_cost(shape, BwCondition::Solo) + s.config().sync.backend_switch();
        assert_eq!(iv.hi, est);
    }

    #[test]
    fn parallel_plan_hi_matches_solver_estimate() {
        let s = solver();
        let shape = MatmulShape::new(256, 14336, 4096);
        let plan = PartitionPlan::HybridCut {
            padded_m: 256,
            gpu_cols: 1024,
        };
        let iv = s.plan_cost_interval(&plan, shape, Dominance::NpuDominant);
        assert!(iv.is_valid());
        // The solver prices a hybrid cut as max(contended sides) + sync;
        // the interval's upper bound must reproduce that estimate.
        let npu = s.npu_cost(
            MatmulShape::new(256, shape.k, shape.n - 1024),
            BwCondition::Contended,
        );
        let gpu = s.gpu_cost(
            MatmulShape::new(shape.m, shape.k, 1024),
            BwCondition::Contended,
        );
        let est = npu.max(gpu) + s.config().sync.rendezvous(Dominance::NpuDominant);
        assert_eq!(iv.hi, est);
        assert!(iv.lo <= iv.hi);
    }

    #[test]
    fn chosen_plan_estimate_always_inside_interval() {
        let s = solver();
        for m in [1usize, 64, 135, 300, 512, 1024, 2100] {
            let shape = MatmulShape::new(m, 4096, 4096);
            let choice = s.solve(shape, Dominance::NpuDominant);
            let iv = s.plan_cost_interval(&choice.plan, shape, Dominance::NpuDominant);
            assert!(
                iv.contains(choice.est_time),
                "m={m}: est {} outside [{}, {}]",
                choice.est_time,
                iv.lo,
                iv.hi
            );
        }
    }
}
