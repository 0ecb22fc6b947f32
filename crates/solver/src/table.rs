//! Plan table — the control-plane runtime decider (§4.3).
//!
//! Plans are solved offline for the model's operator set across the
//! predefined sequence lengths and cached; at runtime the decider
//! returns the cached plan or solves once and memoizes.

use std::collections::BTreeMap;

use hetero_profiler::CostProvider;
use hetero_soc::sync::Dominance;
use hetero_tensor::shape::MatmulShape;

use crate::plan::PlanChoice;
use crate::solver::Solver;

/// Memoized plan store keyed by `(operator name, sequence length)`.
///
/// Keyed by name first so that a lookup borrows the `&str` instead of
/// building an owned key.
#[derive(Debug, Clone, Default)]
pub struct PlanTable {
    plans: BTreeMap<String, BTreeMap<usize, PlanChoice>>,
}

impl PlanTable {
    /// New, empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.values().map(BTreeMap::len).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Look up a cached plan.
    pub fn get(&self, op: &str, seq: usize) -> Option<&PlanChoice> {
        self.plans.get(op)?.get(&seq)
    }

    /// Insert a plan.
    pub fn insert(&mut self, op: &str, seq: usize, choice: PlanChoice) {
        match self.plans.get_mut(op) {
            Some(by_seq) => {
                by_seq.insert(seq, choice);
            }
            None => {
                self.plans
                    .insert(op.to_string(), BTreeMap::from([(seq, choice)]));
            }
        }
    }

    /// Return the cached plan or solve-and-memoize.
    pub fn get_or_solve<P: CostProvider>(
        &mut self,
        solver: &Solver<P>,
        op: &str,
        shape: MatmulShape,
        dominance: Dominance,
    ) -> PlanChoice {
        if let Some(hit) = self.get(op, shape.m) {
            return hit.clone();
        }
        let choice = solver.solve(shape, dominance);
        self.insert(op, shape.m, choice.clone());
        choice
    }

    /// Pre-solve an operator set (`(name, k, n)` triples) across the
    /// given sequence lengths.
    pub fn prebuild<P: CostProvider>(
        &mut self,
        solver: &Solver<P>,
        ops: &[(&str, usize, usize)],
        seq_lens: &[usize],
        dominance: Dominance,
    ) {
        for &(name, k, n) in ops {
            for &m in seq_lens {
                self.get_or_solve(solver, name, MatmulShape::new(m, k, n), dominance);
            }
        }
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
    fn memoizes_solutions() {
        let s = solver();
        let mut table = PlanTable::new();
        let shape = MatmulShape::new(256, 4096, 4096);
        let a = table.get_or_solve(&s, "qkv", shape, Dominance::NpuDominant);
        assert_eq!(table.len(), 1);
        let b = table.get_or_solve(&s, "qkv", shape, Dominance::NpuDominant);
        assert_eq!(a, b);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn distinct_ops_and_lengths_are_distinct_keys() {
        let s = solver();
        let mut table = PlanTable::new();
        table.get_or_solve(
            &s,
            "qkv",
            MatmulShape::new(256, 4096, 4096),
            Dominance::NpuDominant,
        );
        table.get_or_solve(
            &s,
            "down",
            MatmulShape::new(256, 14336, 4096),
            Dominance::NpuDominant,
        );
        table.get_or_solve(
            &s,
            "qkv",
            MatmulShape::new(64, 4096, 4096),
            Dominance::NpuDominant,
        );
        assert_eq!(table.len(), 3);
        assert!(table.get("qkv", 256).is_some());
        assert!(table.get("qkv", 128).is_none());
    }

    #[test]
    fn prebuild_covers_grid() {
        let s = solver();
        let mut table = PlanTable::new();
        table.prebuild(
            &s,
            &[("qkv", 4096, 6144), ("down", 14336, 4096)],
            &[64, 256],
            Dominance::NpuDominant,
        );
        assert_eq!(table.len(), 4);
    }
}
