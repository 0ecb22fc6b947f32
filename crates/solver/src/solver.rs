//! The partition solver.

use hetero_graph::plan::{candidate_plans, next_standard, pipe_plan};
use hetero_profiler::db::BwCondition;
use hetero_profiler::CostProvider;
use hetero_soc::calib::{ROW_PARTITION_ALIGN, STANDARD_GRAPH_SIZES};
use hetero_soc::sync::{Dominance, SyncMechanism, SyncModel};
use hetero_soc::{Backend, SimTime};
use hetero_tensor::shape::MatmulShape;
use hetero_tensor::DType;

use hetero_graph::partition::{PartitionPlan, PlanChoice};

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Weight storage type (W4A16 ⇒ INT4).
    pub weight_dtype: DType,
    /// Pre-compiled NPU graph sequence sizes.
    pub standards: Vec<usize>,
    /// Row-cut alignment (output-feature dimension).
    pub row_align: usize,
    /// Synchronization cost model used for `T_sync + T_copy`.
    pub sync: SyncModel,
    /// Whether operands are permuted into the NPU-preferred order
    /// (`[m,k]x[k,n] → ([n,k]x[k,m])ᵀ`, §4) before costing the NPU.
    pub permute_for_npu: bool,
    /// Minimum relative latency gain a *parallel* plan must deliver
    /// over the best single-backend plan to be selected. §4.3: "for
    /// certain tensor sizes where GPU-NPU parallelism does not yield
    /// any performance benefits, the solver opts not to partition" —
    /// marginal splits waste GPU power (Fig. 19) and GPU headroom
    /// (Fig. 18) for noise-level speedups.
    pub min_parallel_gain: f64,
    /// Whether row-cutting (and hybrid-cutting) candidates are
    /// considered. Disabling strategy families supports the ablation
    /// study of the partition design space.
    pub enable_row_cut: bool,
    /// Whether sequence-length-cutting candidates are considered.
    pub enable_seq_cut: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            weight_dtype: DType::Int4,
            standards: STANDARD_GRAPH_SIZES.to_vec(),
            row_align: ROW_PARTITION_ALIGN,
            sync: SyncModel::new(SyncMechanism::Fast),
            permute_for_npu: true,
            min_parallel_gain: 0.10,
            enable_row_cut: true,
            enable_seq_cut: true,
        }
    }
}

impl SolverConfig {
    /// Configuration for the decode phase: graphs exist only for the
    /// designated decoding length (1, or `n` for speculative decoding).
    pub fn decode(decode_len: usize) -> Self {
        Self {
            standards: vec![decode_len],
            ..Self::default()
        }
    }
}

/// The tensor partition solver (§4.3).
///
/// # Examples
///
/// ```
/// use hetero_profiler::RealExecProvider;
/// use hetero_soc::sync::Dominance;
/// use hetero_soc::SocConfig;
/// use hetero_solver::{Solver, SolverConfig};
/// use hetero_tensor::shape::MatmulShape;
///
/// let solver = Solver::new(
///     RealExecProvider::new(SocConfig::snapdragon_8gen3()),
///     SolverConfig::default(),
/// );
/// // The NPU-hostile FFN-down shape gets a parallel partition.
/// let choice = solver.solve(MatmulShape::new(256, 14336, 4096), Dominance::NpuDominant);
/// assert!(choice.plan.is_parallel());
/// ```
#[derive(Debug, Clone)]
pub struct Solver<P> {
    provider: P,
    cfg: SolverConfig,
}

impl<P: CostProvider> Solver<P> {
    /// New solver over a cost provider.
    pub fn new(provider: P, cfg: SolverConfig) -> Self {
        Self { provider, cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &SolverConfig {
        &self.cfg
    }

    pub(crate) fn npu_cost(&self, shape: MatmulShape, condition: BwCondition) -> SimTime {
        if self.cfg.permute_for_npu {
            // Permuted execution `[n,k] x [k,m]`: the INT4 weight is the
            // streamed operand, the FP16 activation is stationary.
            self.provider.matmul_cost(
                Backend::Npu,
                shape.reversed(),
                self.cfg.weight_dtype,
                DType::F16,
                condition,
            )
        } else {
            self.provider.matmul_cost(
                Backend::Npu,
                shape,
                DType::F16,
                self.cfg.weight_dtype,
                condition,
            )
        }
    }

    pub(crate) fn gpu_cost(&self, shape: MatmulShape, condition: BwCondition) -> SimTime {
        self.provider.matmul_cost(
            Backend::Gpu,
            shape,
            DType::F16,
            self.cfg.weight_dtype,
            condition,
        )
    }

    /// Solve for the optimal partition of `[m,k] x [k,n]`.
    ///
    /// `dominance` selects the rendezvous cost regime (prefill is
    /// NPU-dominant, decode GPU-dominant; Fig. 11).
    pub fn solve(&self, shape: MatmulShape, dominance: Dominance) -> PlanChoice {
        let mut best_serial = PlanChoice {
            plan: PartitionPlan::GpuOnly,
            est_time: self.gpu_cost(shape, BwCondition::Solo),
        };
        let mut best_parallel: Option<PlanChoice> = None;
        let mut consider = |plan: PartitionPlan, t: SimTime| {
            if plan.is_parallel() {
                if best_parallel.as_ref().is_none_or(|b| t < b.est_time) {
                    best_parallel = Some(PlanChoice { plan, est_time: t });
                }
            } else if t < best_serial.est_time {
                best_serial = PlanChoice { plan, est_time: t };
            }
        };

        let switch = self.cfg.sync.backend_switch();
        let rendezvous = self.cfg.sync.rendezvous(dominance);

        // NPU-only via a single (possibly padded) graph.
        if let Some(padded_m) = next_standard(shape.m, &self.cfg.standards) {
            let t = self.npu_cost(
                MatmulShape {
                    m: padded_m,
                    ..shape
                },
                BwCondition::Solo,
            );
            consider(PartitionPlan::NpuOnly { padded_m }, t + switch);
        } else {
            // m exceeds the largest graph: sequential pipe chunks.
            let pipe = pipe_plan(shape.m, &self.cfg.standards);
            let t: SimTime = pipe
                .npu_chunks
                .iter()
                .map(|&c| self.npu_cost(MatmulShape { m: c, ..shape }, BwCondition::Solo))
                .sum();
            consider(
                PartitionPlan::NpuPipe {
                    chunks: pipe.npu_chunks.clone(),
                    padded_rows: pipe.padded_rows,
                },
                t + switch,
            );
        }

        // Row-cutting (and hybrid-cutting when m is misaligned): the
        // NPU runs [padded_m, k, n−c], the GPU [m, k, c], in parallel.
        if let (true, Some(padded_m)) = (
            self.cfg.enable_row_cut,
            next_standard(shape.m, &self.cfg.standards),
        ) {
            if let Some((c, t)) = self.best_row_cut(shape, padded_m, rendezvous) {
                let plan = if padded_m == shape.m {
                    PartitionPlan::RowCut {
                        gpu_cols: c,
                        padded_m,
                    }
                } else {
                    PartitionPlan::HybridCut {
                        padded_m,
                        gpu_cols: c,
                    }
                };
                consider(plan, t);
            }
        }

        // Sequence-length cutting: NPU standard chunks + GPU margin.
        let seq_candidates = if self.cfg.enable_seq_cut {
            candidate_plans(shape.m, &self.cfg.standards)
        } else {
            Vec::new()
        };
        for cand in seq_candidates {
            if cand.npu_chunks.is_empty() {
                continue; // GPU-only already considered.
            }
            if cand.margin == 0 {
                // Fully covered by exact chunks — a *serial* NPU plan,
                // so the NPU streams with exclusive bandwidth.
                let solo: SimTime = cand
                    .npu_chunks
                    .iter()
                    .map(|&c| self.npu_cost(MatmulShape { m: c, ..shape }, BwCondition::Solo))
                    .sum();
                consider(
                    PartitionPlan::SeqCut {
                        npu_chunks: cand.npu_chunks.clone(),
                        gpu_rows: 0,
                    },
                    solo + switch,
                );
                continue;
            }
            let npu: SimTime = cand
                .npu_chunks
                .iter()
                .map(|&c| self.npu_cost(MatmulShape { m: c, ..shape }, BwCondition::Contended))
                .sum();
            let gpu = self.gpu_cost(
                MatmulShape {
                    m: cand.margin,
                    ..shape
                },
                BwCondition::Contended,
            );
            let t = npu.max(gpu) + rendezvous;
            consider(
                PartitionPlan::SeqCut {
                    npu_chunks: cand.npu_chunks.clone(),
                    gpu_rows: cand.margin,
                },
                t,
            );
        }

        // A parallel plan must clear the minimum-gain bar (§4.3).
        let mut choice = match best_parallel {
            Some(p)
                if p.est_time.as_secs_f64()
                    < best_serial.est_time.as_secs_f64() * (1.0 - self.cfg.min_parallel_gain) =>
            {
                p
            }
            _ => best_serial,
        };
        // Canonicalize degenerate forms (SeqCut with an empty GPU share
        // is an NpuPipe, etc.) so downstream sync accounting is honest.
        choice.plan = choice.plan.normalize();
        #[cfg(debug_assertions)]
        self.validate_choice(&choice, shape);
        choice
    }

    /// The smallest row cut `c` (a multiple of `row_align` in `(0, n)`)
    /// whose cost `max(npu, gpu) + rendezvous` is least, with that
    /// cost; `None` when `n` admits no cut. The NPU runs
    /// `[padded_m, k, n−c]`, the GPU `[m, k, c]`.
    ///
    /// GPU cost never falls as `c` grows (the `CostProvider` contract).
    /// With permuted operands the NPU streams the `n − c` weight rows,
    /// so where the provider declares
    /// [`CostProvider::npu_monotone_past_depth`], NPU cost never rises
    /// as `c` grows over the prefix of cuts with `n − c ≥ k`. There the
    /// best cut sits where the two curves cross, and two bisections
    /// find it. The cuts past the prefix (the weight-stall regime, or
    /// every cut without the guarantee) are scanned in increasing `c`:
    /// each costs at least its GPU side plus the rendezvous, so once
    /// that floor reaches the best cost so far no later cut can beat it
    /// strictly and the scan stops.
    fn best_row_cut(
        &self,
        shape: MatmulShape,
        padded_m: usize,
        rendezvous: SimTime,
    ) -> Option<(usize, SimTime)> {
        let align = self.cfg.row_align;
        // Cut `i` gives the GPU `i · align` columns; cuts `1..=last` exist.
        let gpu = |i: usize| {
            self.gpu_cost(
                MatmulShape::new(shape.m, shape.k, i * align),
                BwCondition::Contended,
            )
        };
        let npu = |i: usize| {
            self.npu_cost(
                MatmulShape::new(padded_m, shape.k, shape.n - i * align),
                BwCondition::Contended,
            )
        };
        let last = shape.n.saturating_sub(1) / align;
        let prefix = if self.cfg.permute_for_npu && self.provider.npu_monotone_past_depth() {
            (shape.n.saturating_sub(shape.k) / align).min(last)
        } else {
            0
        };

        let mut best: Option<(usize, SimTime)> = None;
        if prefix > 0 {
            // First cut `j` in `1..=prefix` whose GPU cost reaches its
            // NPU cost (`prefix + 1` if none). Before `j` a cut costs its
            // NPU side, which falls to `npu(j − 1)`; from `j` on it
            // costs its GPU side, which rises from `gpu(j)`. The search
            // keeps both values from its last probes on either side.
            let (mut lo, mut hi) = (1, prefix + 1);
            let (mut npu_before, mut gpu_at) = (None, None);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let (g, n) = (gpu(mid), npu(mid));
                if g >= n {
                    hi = mid;
                    gpu_at = Some(g);
                } else {
                    lo = mid + 1;
                    npu_before = Some(n);
                }
            }
            let j = lo;
            best = match (npu_before, gpu_at) {
                // A tie goes to the NPU side: its cuts come first. The
                // smallest cut at that cost is the first whose NPU
                // cost has fallen to it.
                (Some(v), g) if g.is_none_or(|g| v <= g) => {
                    let (mut lo, mut hi) = (1, j - 1);
                    while lo < hi {
                        let mid = lo + (hi - lo) / 2;
                        if npu(mid) <= v {
                            hi = mid;
                        } else {
                            lo = mid + 1;
                        }
                    }
                    Some((lo, v + rendezvous))
                }
                (_, g) => g.map(|g| (j, g + rendezvous)),
            };
        }

        for i in prefix + 1..=last {
            let gpu = gpu(i);
            if best.is_some_and(|(_, t)| gpu + rendezvous >= t) {
                break;
            }
            let t = npu(i).max(gpu) + rendezvous;
            if best.is_none_or(|(_, b)| t < b) {
                best = Some((i, t));
            }
        }
        best.map(|(i, t)| (i * align, t))
    }

    /// Debug-build self-check: re-verify the chosen plan against the
    /// shared structural invariants in [`hetero_graph::partition`]
    /// (shape conservation, tile alignment, graph membership,
    /// canonical form). Compiled out of release binaries; a violation
    /// here is a solver bug, so it panics rather than diagnosing.
    #[cfg(debug_assertions)]
    fn validate_choice(&self, choice: &PlanChoice, shape: MatmulShape) {
        let plan = &choice.plan;
        let mut violations = plan.conservation_violations(shape.m, shape.n);
        violations.extend(plan.alignment_violations(hetero_soc::calib::NPU_TILE));
        violations.extend(plan.membership_violations(&self.cfg.standards));
        assert!(
            violations.is_empty(),
            "solver produced invalid plan {plan:?} for {shape:?}: {violations:?}"
        );
        assert!(
            plan.is_normalized(),
            "solver produced non-canonical plan {plan:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_profiler::RealExecProvider;
    use hetero_soc::SocConfig;
    use std::cell::Cell;
    use std::rc::Rc;

    fn solver() -> Solver<RealExecProvider> {
        Solver::new(
            RealExecProvider::new(SocConfig::snapdragon_8gen3()),
            SolverConfig::default(),
        )
    }

    #[test]
    fn aligned_prefill_qkv_prefers_npu() {
        // Well-shaped large matmul: NPU is ≈10× the GPU; plans that
        // keep (nearly) everything on the NPU must win.
        let choice = solver().solve(MatmulShape::new(256, 4096, 4096), Dominance::NpuDominant);
        assert!(choice.plan.uses_npu(), "{:?}", choice.plan);
        match &choice.plan {
            PartitionPlan::NpuOnly { padded_m } => assert_eq!(*padded_m, 256),
            PartitionPlan::RowCut { gpu_cols, .. } => {
                assert!(*gpu_cols <= 1024, "GPU share too large: {gpu_cols}");
            }
            other => panic!("unexpected plan {other:?}"),
        }
    }

    #[test]
    fn ffn_down_gets_row_cut() {
        // The NPU-hostile FFN-down shape: the solver should offload a
        // significant share to the GPU via row-cutting (§4.1.1).
        let shape = MatmulShape::new(256, 14336, 4096);
        let choice = solver().solve(shape, Dominance::NpuDominant);
        assert!(
            choice.plan.is_parallel(),
            "expected parallel plan, got {:?}",
            choice.plan
        );
        if let PartitionPlan::RowCut { gpu_cols, .. } = choice.plan {
            assert!((256..4096).contains(&gpu_cols));
        }
    }

    #[test]
    fn row_cut_beats_both_single_backends_on_ffn_down() {
        let s = solver();
        let shape = MatmulShape::new(256, 14336, 4096);
        let choice = s.solve(shape, Dominance::NpuDominant);
        let gpu_only = s.gpu_cost(shape, BwCondition::Solo);
        let npu_only = s.npu_cost(shape, BwCondition::Solo);
        assert!(choice.est_time < gpu_only);
        assert!(choice.est_time < npu_only);
    }

    #[test]
    fn misaligned_seq_uses_seq_or_hybrid_cut() {
        // m=300: graphs exist for 256/512 etc. The solver should avoid
        // pure padding-to-512 in favour of a heterogeneous plan.
        let shape = MatmulShape::new(300, 4096, 4096);
        let choice = solver().solve(shape, Dominance::NpuDominant);
        match &choice.plan {
            PartitionPlan::SeqCut {
                npu_chunks,
                gpu_rows,
            } => {
                assert_eq!(npu_chunks.iter().sum::<usize>() + gpu_rows, 300);
            }
            PartitionPlan::HybridCut { padded_m, .. } => assert_eq!(*padded_m, 512),
            other => panic!("expected heterogeneous plan, got {other:?}"),
        }
    }

    #[test]
    fn decode_uses_row_cut_for_bandwidth() {
        // Decode m=1: memory-bound; GPU+NPU row-cut aggregates
        // bandwidth and must beat single backends.
        let cfg = SolverConfig::decode(1);
        let s = Solver::new(RealExecProvider::new(SocConfig::snapdragon_8gen3()), cfg);
        let shape = MatmulShape::new(1, 4096, 14336);
        let choice = s.solve(shape, Dominance::GpuDominant);
        assert!(
            matches!(choice.plan, PartitionPlan::RowCut { .. }),
            "expected row-cut, got {:?}",
            choice.plan
        );
    }

    #[test]
    fn tiny_problems_stay_on_one_backend() {
        // Partitioning a tiny matmul can't amortize even fast sync.
        let choice = solver().solve(MatmulShape::new(32, 64, 64), Dominance::NpuDominant);
        assert!(!choice.plan.is_parallel(), "{:?}", choice.plan);
    }

    #[test]
    fn estimate_is_never_worse_than_gpu_only() {
        let s = solver();
        for shape in [
            MatmulShape::new(64, 4096, 4096),
            MatmulShape::new(300, 4096, 14336),
            MatmulShape::new(1024, 14336, 4096),
        ] {
            let choice = s.solve(shape, Dominance::NpuDominant);
            assert!(choice.est_time <= s.gpu_cost(shape, BwCondition::Solo));
        }
    }

    #[test]
    fn huge_misaligned_seq_still_covered() {
        // m beyond the largest standard graph.
        let shape = MatmulShape::new(2100, 4096, 4096);
        let choice = solver().solve(shape, Dominance::NpuDominant);
        assert!(choice.plan.uses_npu());
        if let PartitionPlan::SeqCut {
            npu_chunks,
            gpu_rows,
        } = &choice.plan
        {
            assert_eq!(npu_chunks.iter().sum::<usize>() + gpu_rows, 2100);
        }
    }

    /// Counts the cost queries a solve makes.
    struct Counting {
        inner: RealExecProvider,
        queries: Rc<Cell<u64>>,
    }

    impl CostProvider for Counting {
        fn matmul_cost(
            &self,
            backend: Backend,
            shape: MatmulShape,
            act_dtype: DType,
            weight_dtype: DType,
            condition: BwCondition,
        ) -> SimTime {
            self.queries.set(self.queries.get() + 1);
            self.inner
                .matmul_cost(backend, shape, act_dtype, weight_dtype, condition)
        }

        fn npu_monotone_past_depth(&self) -> bool {
            self.inner.npu_monotone_past_depth()
        }
    }

    #[test]
    fn lm_head_row_cut_search_makes_few_cost_queries() {
        // The `lm_head` projections of InternLM-1.8B (n = 92 544) and
        // Llama-8B (n = 128 256) offer 361 and 500 row cuts. A linear
        // scan with the GPU-floor exit alone makes 100, 354, 130 and
        // 488 queries for these prefill (m = 64) and decode (m = 1)
        // solves; the crossover search 24 to 27.
        for (m, k, n) in [
            (64, 2048, 92_544),
            (1, 2048, 92_544),
            (64, 4096, 128_256),
            (1, 4096, 128_256),
        ] {
            let (cfg, dominance) = if m == 1 {
                (SolverConfig::decode(1), Dominance::GpuDominant)
            } else {
                (SolverConfig::default(), Dominance::NpuDominant)
            };
            let queries = Rc::new(Cell::new(0));
            let solver = Solver::new(
                Counting {
                    inner: RealExecProvider::new(SocConfig::snapdragon_8gen3()),
                    queries: Rc::clone(&queries),
                },
                cfg,
            );
            solver.solve(MatmulShape::new(m, k, n), dominance);
            assert!(
                queries.get() <= 40,
                "[{m},{k},{n}] took {} cost queries",
                queries.get()
            );
        }
    }
}
