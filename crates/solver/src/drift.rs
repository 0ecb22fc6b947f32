//! Per-device partition re-solve from drifted online profiles.
//!
//! A device whose NPU has drifted slower than its calibrated profile
//! (sustained thermal brownout, stage-level NPU inversion from a bad
//! candidate policy) is still running the partition plan solved for
//! the *calibrated* costs. [`resolve_for_drift`] re-prices that stale
//! plan under the drifted costs, re-solves for a fresh plan under the
//! same drift, and reports the achievable gain as an all-integer
//! ppm ratio — the entry point `hetero_fleet`'s rollout overlay calls
//! when a device's [`OnlineProfiler`] estimate crosses the re-solve
//! threshold.
//!
//! [`OnlineProfiler`]: ../hetero_fleet/profiler/struct.OnlineProfiler.html

use hetero_profiler::db::BwCondition;
use hetero_profiler::CostProvider;
use hetero_soc::sync::Dominance;
use hetero_soc::{Backend, SimTime};
use hetero_tensor::shape::MatmulShape;
use hetero_tensor::DType;

use crate::plan::PartitionPlan;
use crate::solver::{Solver, SolverConfig};

/// ppm scale of drift ratios (matches `hetero_fleet::profiler`).
const PPM: u64 = 1_000_000;

/// A cost provider whose NPU kernels run `derate_ppm / 10⁶` slower
/// than the wrapped provider's (1_000_000 = undrifted). GPU and CPU
/// costs pass through: the drift model is NPU-side (thermal throttle
/// and stage inversion both hit the static-graph NPU path).
#[derive(Debug, Clone)]
pub struct DeratedProvider<P> {
    inner: P,
    derate_ppm: u64,
}

impl<P> DeratedProvider<P> {
    /// Wrap `inner`, scaling NPU costs by `derate_ppm` (≥ 10⁶).
    pub fn new(inner: P, derate_ppm: u64) -> Self {
        Self {
            inner,
            derate_ppm: derate_ppm.max(PPM),
        }
    }
}

impl<P: CostProvider> CostProvider for DeratedProvider<P> {
    fn matmul_cost(
        &self,
        backend: Backend,
        shape: MatmulShape,
        act_dtype: DType,
        weight_dtype: DType,
        condition: BwCondition,
    ) -> SimTime {
        let base = self
            .inner
            .matmul_cost(backend, shape, act_dtype, weight_dtype, condition);
        match backend {
            Backend::Npu => SimTime::from_nanos(
                ((u128::from(base.as_nanos()) * u128::from(self.derate_ppm)) / u128::from(PPM))
                    as u64,
            ),
            Backend::Gpu | Backend::Cpu => base,
        }
    }

    /// Scaling by a fixed factor and flooring keeps the order.
    fn npu_monotone_past_depth(&self) -> bool {
        self.inner.npu_monotone_past_depth()
    }
}

/// Outcome of one drifted re-solve, all integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftResolve {
    /// The plan solved for the calibrated (undrifted) costs.
    pub stale_plan: PartitionPlan,
    /// The plan solved under the drifted costs.
    pub resolved_plan: PartitionPlan,
    /// Worst-case cost of the stale plan under the drifted costs, ns.
    pub stale_ns: u64,
    /// Worst-case cost of the resolved plan under the drifted costs,
    /// ns.
    pub resolved_ns: u64,
    /// `resolved_ns · 10⁶ / stale_ns`, clamped to ≤ 10⁶: the service
    /// multiplier re-planning buys (1_000_000 = re-solve kept the
    /// stale plan).
    pub gain_ppm: u64,
    /// Whether the re-solve chose a different partition.
    pub replanned: bool,
}

/// Re-solve `shape` under an NPU drift of `npu_derate_ppm` and price
/// the stale (calibrated-cost) plan against the fresh one, both under
/// the drifted costs via the sound interval upper bound
/// ([`Solver::plan_cost_interval`]), so the comparison is
/// apples-to-apples with the solver's own objective.
pub fn resolve_for_drift<P: CostProvider + Clone>(
    provider: &P,
    cfg: &SolverConfig,
    shape: MatmulShape,
    dominance: Dominance,
    npu_derate_ppm: u64,
) -> DriftResolve {
    let calibrated = Solver::new(provider.clone(), cfg.clone());
    let stale_plan = calibrated.solve(shape, dominance).plan;

    let drifted = Solver::new(
        DeratedProvider::new(provider.clone(), npu_derate_ppm),
        cfg.clone(),
    );
    let resolved_plan = drifted.solve(shape, dominance).plan;

    let stale_ns = drifted
        .plan_cost_interval(&stale_plan, shape, dominance)
        .hi
        .as_nanos();
    let resolved_ns = drifted
        .plan_cost_interval(&resolved_plan, shape, dominance)
        .hi
        .as_nanos();
    let gain_ppm = (resolved_ns.saturating_mul(PPM) / stale_ns.max(1)).min(PPM);
    let replanned = resolved_plan != stale_plan;
    DriftResolve {
        stale_plan,
        resolved_plan,
        stale_ns,
        resolved_ns,
        gain_ppm,
        replanned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_profiler::RealExecProvider;
    use hetero_soc::SocConfig;

    fn provider() -> RealExecProvider {
        RealExecProvider::new(SocConfig::snapdragon_8gen3())
    }

    #[test]
    fn undrifted_resolve_is_a_noop() {
        let shape = MatmulShape::new(256, 4096, 4096);
        let r = resolve_for_drift(
            &provider(),
            &SolverConfig::default(),
            shape,
            Dominance::NpuDominant,
            PPM,
        );
        assert_eq!(r.stale_plan, r.resolved_plan);
        assert_eq!(r.gain_ppm, PPM);
        assert!(!r.replanned);
    }

    #[test]
    fn heavy_npu_drift_shifts_work_to_the_gpu_and_never_hurts() {
        // FFN-up-like shape: NPU-leaning when calibrated, worth
        // re-partitioning toward the GPU once the NPU drifts.
        let shape = MatmulShape::new(256, 4096, 14336);
        for derate in [1_500_000u64, 2_500_000, 5_000_000] {
            let r = resolve_for_drift(
                &provider(),
                &SolverConfig::default(),
                shape,
                Dominance::NpuDominant,
                derate,
            );
            assert!(
                r.resolved_ns <= r.stale_ns,
                "derate={derate}: re-solve made things worse ({} > {})",
                r.resolved_ns,
                r.stale_ns
            );
            assert!(r.gain_ppm <= PPM);
        }
        // At 2.5× NPU drift the calibrated NPU-leaning plan must lose
        // to a re-partition: the gain is real, not just non-negative.
        let r = resolve_for_drift(
            &provider(),
            &SolverConfig::default(),
            shape,
            Dominance::NpuDominant,
            2_500_000,
        );
        assert!(r.replanned, "2.5x NPU drift kept the stale plan");
        assert!(r.gain_ppm < PPM);
    }

    #[test]
    fn derated_provider_scales_only_npu_costs() {
        let p = provider();
        let d = DeratedProvider::new(p.clone(), 2_000_000);
        let shape = MatmulShape::new(256, 4096, 4096);
        let npu_base = p.matmul_cost(
            Backend::Npu,
            shape,
            DType::Int4,
            DType::F16,
            BwCondition::Solo,
        );
        let npu_derated = d.matmul_cost(
            Backend::Npu,
            shape,
            DType::Int4,
            DType::F16,
            BwCondition::Solo,
        );
        assert_eq!(npu_derated.as_nanos(), npu_base.as_nanos() * 2);
        let gpu_base = p.matmul_cost(
            Backend::Gpu,
            shape,
            DType::F16,
            DType::Int4,
            BwCondition::Solo,
        );
        let gpu_derated = d.matmul_cost(
            Backend::Gpu,
            shape,
            DType::F16,
            DType::Int4,
            BwCondition::Solo,
        );
        assert_eq!(gpu_derated, gpu_base);
    }
}
