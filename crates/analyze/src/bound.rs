//! Abstract interpretation over submission DAGs: sound memory and
//! latency bounds (§4.2, §4.3).
//!
//! This module is the analyzer's *cost* layer. Where the structural
//! rules decide whether a plan can execute at all, the bound rules
//! decide whether it can execute **within resources**: a static peak
//! memory-pool footprint and a static `[lo, hi]` latency interval,
//! both certified sound against the discrete-event simulator.
//!
//! # Framework
//!
//! A generic forward worklist solver ([`solve_forward`]) propagates a
//! join-semilattice [`AbstractDomain`] through the happens-before DAG
//! of a [`SyncSchedule`]: the in-state of an event is the join of its
//! predecessors' out-states, and a per-event transfer function
//! produces the out-state. Two instantiations:
//!
//! - **Completion time** over [`CostInterval`] (join = pointwise max,
//!   transfer = interval addition of the event's cost): the join over
//!   all out-states is a sound `[lo, hi]` bound on the schedule's
//!   makespan, and reproduces the solver's closed-form
//!   `plan_cost_interval` exactly (pinned by a test).
//! - **Peak footprint** over [`PeakBytes`] (join = max, transfer =
//!   running max of the bytes live at the event's schedule step, from
//!   the plan's [`RegionTable`]): the join over all out-states is the
//!   static peak pooled footprint, equal to the region table's
//!   max-plateau.
//!
//! # Model-level bounds and rules
//!
//! [`model_bounds`] lifts the per-plan intervals to a whole serving
//! phase through [`HeteroMirror`] (the engine-faithful static cost
//! mirror in `heterollm::admit`) and adds KV-cache growth at the final
//! context length. The rules:
//!
//! - `mem-overcommit` (deny): static peak footprint exceeds the pool
//!   capacity.
//! - `buffer-leak` (deny): a region stays live past its last
//!   structural reader.
//! - `deadline-infeasible` (deny): the *lower* latency bound already
//!   busts the SLO — the plan is provably doomed, don't simulate it.
//! - `deadline-at-risk` (warn): only the *upper* bound busts the SLO.
//! - `bound-unsound` (deny): a DES observation (simulated TTFT/TPOT,
//!   replayed pool peak) escaped its static bound — the gate that
//!   keeps the whole layer honest, swept over every evaluation model
//!   and a seeded degraded session by [`bound_lint_models`] and
//!   [`bound_lint_degraded_session`].

use hetero_profiler::CostInterval;
use hetero_soc::disturb::DisturbanceTrace;
use hetero_soc::sync::SyncMechanism;
use hetero_soc::{SimTime, SocConfig};
use hetero_solver::RegionTable;
use heterollm::admit::{HeteroMirror, PlanSite};
use heterollm::engines::{hetero_soc_config, HeteroTensorEngine};
use heterollm::kv::KvCache;
use heterollm::mempool::MemoryPool;
use heterollm::runtime::SloPolicy;
use heterollm::{Engine, ModelConfig};

use crate::diag::{Diagnostic, Report};
use crate::mem::{self, TensorRegion};
use crate::rules;
use crate::sched::{SyncEvent, SyncSchedule};

/// A join-semilattice abstract domain for forward dataflow over a
/// schedule's happens-before DAG.
pub trait AbstractDomain: Clone + PartialEq {
    /// The least element (state of an event with no predecessors).
    fn bottom() -> Self;
    /// Least upper bound of two states.
    fn join(&self, other: &Self) -> Self;
}

/// Completion-time intervals form a join-semilattice under pointwise
/// max: an event that waits on several predecessors starts no earlier
/// than the latest of them in both the best and worst case.
impl AbstractDomain for CostInterval {
    fn bottom() -> Self {
        CostInterval::ZERO
    }
    fn join(&self, other: &Self) -> Self {
        self.join_max(*other)
    }
}

/// Running peak of pool-rounded live bytes — a max-semilattice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeakBytes(pub u64);

impl AbstractDomain for PeakBytes {
    fn bottom() -> Self {
        PeakBytes(0)
    }
    fn join(&self, other: &Self) -> Self {
        PeakBytes(self.0.max(other.0))
    }
}

/// Forward worklist solver over `schedule`'s happens-before DAG.
///
/// For each event, the in-state is the join of the out-states of every
/// event it waits on (bottom for sources); `transfer(index, event,
/// in_state)` produces the out-state. Events are re-queued until a
/// fixpoint, so the result is well-defined even if the wait graph is
/// not topologically ordered. Out-of-range waits are ignored — dangling
/// edges are the `sync-schedule` rule's business, not the interpreter's.
///
/// Returns the out-state of every event.
pub fn solve_forward<D, F>(schedule: &SyncSchedule, mut transfer: F) -> Vec<D>
where
    D: AbstractDomain,
    F: FnMut(usize, &SyncEvent, &D) -> D,
{
    let n = schedule.events.len();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, e) in schedule.events.iter().enumerate() {
        for &w in &e.waits_on {
            if w < n {
                dependents[w].push(i);
            }
        }
    }
    let mut out: Vec<D> = vec![D::bottom(); n];
    let mut queued = vec![true; n];
    let mut worklist: std::collections::VecDeque<usize> = (0..n).collect();
    while let Some(i) = worklist.pop_front() {
        queued[i] = false;
        let input = schedule.events[i]
            .waits_on
            .iter()
            .filter(|&&w| w < n)
            .fold(D::bottom(), |acc, &w| acc.join(&out[w]));
        let next = transfer(i, &schedule.events[i], &input);
        if next != out[i] {
            out[i] = next;
            for &d in &dependents[i] {
                if !queued[d] {
                    queued[d] = true;
                    worklist.push_back(d);
                }
            }
        }
    }
    out
}

/// Sound `[lo, hi]` completion-time interval of `schedule` given one
/// cost interval per event (in event order, e.g. from
/// `Solver::event_cost_intervals`).
///
/// Instantiates [`solve_forward`] with the completion-time domain and
/// joins the out-states; equals the solver's closed-form
/// `plan_cost_interval` for every plan layout.
pub fn schedule_completion_interval(
    schedule: &SyncSchedule,
    costs: &[CostInterval],
) -> CostInterval {
    assert_eq!(
        costs.len(),
        schedule.events.len(),
        "one cost interval per schedule event"
    );
    solve_forward(schedule, |i, _e, input: &CostInterval| *input + costs[i])
        .into_iter()
        .fold(CostInterval::ZERO, CostInterval::join_max)
}

/// Static peak pooled footprint of a plan's schedule, in bytes, by
/// propagating the running-peak domain through the DAG against the
/// plan's region table. Equals `table.peak_bytes()` (the region
/// table's max-plateau) — pinned by a test.
pub fn schedule_peak_bytes(schedule: &SyncSchedule, table: &RegionTable) -> u64 {
    solve_forward(schedule, |i, _e, input: &PeakBytes| {
        PeakBytes(input.0.max(table.live_bytes_at(i) as u64))
    })
    .into_iter()
    .fold(PeakBytes(0), |a, b| a.join(&b))
    .0
}

/// Default pool capacity the footprint rule checks against when the
/// caller does not supply one: 1 GiB of pooled activations + KV, the
/// order of what a flagship mobile SoC can pin for an inference
/// runtime without starving the OS.
pub const DEFAULT_POOL_BYTES: u64 = 1 << 30;

/// Statically certified bounds for one model serving a prompt of
/// `prompt_len` tokens followed by `decode_tokens` decode steps.
#[derive(Debug, Clone)]
pub struct ModelBounds {
    /// Model name (diagnostic locations).
    pub model: String,
    /// Prompt length the bounds were computed for.
    pub prompt_len: usize,
    /// Decode steps the bounds were computed for.
    pub decode_tokens: usize,
    /// Sound `[lo, hi]` bound on TTFT (prefill elapsed).
    pub ttft: CostInterval,
    /// Sound bound on the total decode elapsed time.
    pub decode_total: CostInterval,
    /// Sound per-token bound (floor/ceil division of `decode_total`).
    pub tpot: CostInterval,
    /// Peak pooled activation footprint over all prefill plan sites.
    pub plan_peak_bytes: u64,
    /// KV-cache bytes at the final context length.
    pub kv_bytes: u64,
    /// Total static peak: activations + KV.
    pub peak_bytes: u64,
    /// The distinct prefill weight-Matmul plan sites (one per operator;
    /// all layers share shapes).
    pub sites: Vec<PlanSite>,
}

/// Sound per-token interval from a total over `n` tokens: floor the
/// lower bound, ceil the upper, so the true mean always lies inside.
fn per_token(total: CostInterval, n: usize) -> CostInterval {
    let n = n.max(1) as u64;
    CostInterval {
        lo: SimTime::from_nanos(total.lo.as_nanos() / n),
        hi: SimTime::from_nanos(total.hi.as_nanos().div_ceil(n)),
    }
}

/// First occurrence of each operator name, in trace order. All decoder
/// layers share shapes, so per-layer repetition adds no information.
fn distinct_sites(sites: &[PlanSite]) -> Vec<PlanSite> {
    let mut seen: Vec<&str> = Vec::new();
    let mut out = Vec::new();
    for site in sites {
        if !seen.contains(&site.0) {
            seen.push(site.0);
            out.push(site.clone());
        }
    }
    out
}

/// Compute [`ModelBounds`] under an explicit SoC configuration (e.g. a
/// disturbance-adjusted one). The mirror is consulted in engine phase
/// order — prefill, then decode — so switch-machine state matches a
/// fresh engine serving the same request.
pub fn model_bounds_under(
    model: &ModelConfig,
    soc_cfg: SocConfig,
    prompt_len: usize,
    decode_tokens: usize,
) -> ModelBounds {
    let mut mirror = HeteroMirror::with_soc_config(model, soc_cfg);
    let ttft = mirror.prefill_bound(prompt_len);
    let decode_total = mirror.decode_bound(prompt_len, decode_tokens);
    let sites = distinct_sites(&mirror.prefill_plans(prompt_len));
    let plan_peak_bytes = sites
        .iter()
        .map(|(_, shape, plan)| {
            let table = RegionTable::for_plan(plan, *shape);
            schedule_peak_bytes(&SyncSchedule::for_plan(plan, *shape), &table)
        })
        .max()
        .unwrap_or(0);
    let kv_bytes = KvCache::decode_read_bytes(
        model.layers,
        model.kv_dim(),
        prompt_len + decode_tokens,
        model.kv_dtype,
    );
    ModelBounds {
        model: model.name.clone(),
        prompt_len,
        decode_tokens,
        ttft,
        decode_total,
        tpot: per_token(decode_total, decode_tokens),
        plan_peak_bytes,
        kv_bytes,
        peak_bytes: plan_peak_bytes + kv_bytes,
        sites,
    }
}

/// Compute [`ModelBounds`] for the quiet SoC under fast sync — the
/// configuration `HeteroTensorEngine::new` serves with.
pub fn model_bounds(model: &ModelConfig, prompt_len: usize, decode_tokens: usize) -> ModelBounds {
    model_bounds_under(
        model,
        hetero_soc_config(SyncMechanism::Fast),
        prompt_len,
        decode_tokens,
    )
}

/// Check the static peak footprint against a pool capacity
/// (`mem-overcommit`).
pub fn check_footprint(bounds: &ModelBounds, pool_bytes: u64, location: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if bounds.peak_bytes > pool_bytes {
        out.push(Diagnostic::with_suggestion(
            rules::MEM_OVERCOMMIT,
            location,
            format!(
                "static peak footprint {} bytes (activations {} + KV {}) exceeds \
                 pool capacity {} bytes",
                bounds.peak_bytes, bounds.plan_peak_bytes, bounds.kv_bytes, pool_bytes
            ),
            Some(
                "shrink the context length, quantize the KV cache, or provision a \
                 larger pool"
                    .into(),
            ),
        ));
    }
    out
}

/// Check one plan's region table: no region outlives its last
/// structural reader (`buffer-leak`), and the pool layout is
/// alias-free (`mempool-aliasing`, via [`mem::check_regions`]).
pub fn check_plan_regions(table: &RegionTable, location: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for r in table.leaked_regions() {
        let last_reader = r.readers.iter().max();
        out.push(Diagnostic::with_suggestion(
            rules::BUFFER_LEAK,
            location,
            match last_reader {
                Some(&last) => format!(
                    "region '{}' stays live through step {} but its last reader is \
                     step {last}",
                    r.label, r.live_until
                ),
                None => format!("region '{}' is live but never read", r.label),
            },
            Some("end the region's lifetime at its last reader".into()),
        ));
    }
    // The same table, seen as a pool layout: live_until is inclusive in
    // schedule steps, TensorRegion's is exclusive — hence the +1.
    let pool_view: Vec<TensorRegion> = table
        .regions
        .iter()
        .map(|r| TensorRegion {
            label: r.label.clone(),
            offset: r.offset as u64,
            bytes: r.rounded_bytes() as u64,
            live_from: r.live_from as u64,
            live_until: r.live_until as u64 + 1,
        })
        .collect();
    out.extend(mem::check_regions(&pool_view, location));
    out
}

/// Check the latency bounds against an SLO: a lower bound past the
/// budget is `deadline-infeasible` (deny — provably doomed), an upper
/// bound past it while the lower meets it is `deadline-at-risk` (warn).
pub fn check_deadlines(bounds: &ModelBounds, slo: &SloPolicy, location: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut check = |what: &str, iv: CostInterval, budget: SimTime| {
        if iv.lo > budget {
            out.push(Diagnostic::with_suggestion(
                rules::DEADLINE_INFEASIBLE,
                location,
                format!(
                    "{what} lower bound {} already exceeds the SLO budget {budget} — \
                     statically infeasible",
                    iv.lo
                ),
                Some("reject this configuration before simulation".into()),
            ));
        } else if iv.hi > budget {
            out.push(Diagnostic::new(
                rules::DEADLINE_AT_RISK,
                location,
                format!(
                    "{what} upper bound {} exceeds the SLO budget {budget} (lower \
                     bound {} still meets it)",
                    iv.hi, iv.lo
                ),
            ));
        }
    };
    check("TTFT", bounds.ttft, slo.ttft);
    check("TPOT", bounds.tpot, slo.tpot);
    out
}

/// Replay a region table's acquisitions through a real [`MemoryPool`]
/// and return the pool's high-water mark: at each schedule step, first
/// acquire every region whose lifetime starts there, then release
/// every region whose (inclusive) lifetime ends there.
pub fn replay_pool_peak(table: &RegionTable) -> u64 {
    let mut pool = MemoryPool::new();
    let mut live = Vec::new();
    for step in 0..table.steps {
        for r in &table.regions {
            if r.live_from == step {
                live.push((r.live_until, pool.acquire(r.bytes as u64)));
            }
        }
        live.retain(|&(until, handle)| {
            if until == step {
                pool.release(handle);
                false
            } else {
                true
            }
        });
    }
    pool.stats().peak_live_bytes
}

/// Gate a DES-replayed pool peak against the static claim
/// (`bound-unsound` when the observation escapes the bound).
pub fn check_pool_replay(
    table: &RegionTable,
    claimed_peak: u64,
    location: &str,
) -> Vec<Diagnostic> {
    let replayed = replay_pool_peak(table);
    if replayed > claimed_peak {
        vec![Diagnostic::new(
            rules::BOUND_UNSOUND,
            location,
            format!(
                "memory pool replay peaked at {replayed} bytes, above the static \
                 bound of {claimed_peak}"
            ),
        )]
    } else {
        Vec::new()
    }
}

/// Gate an observed duration against a static interval
/// (`bound-unsound` when it falls outside).
pub fn check_observed_within(
    bound: CostInterval,
    observed: SimTime,
    what: &str,
    location: &str,
) -> Vec<Diagnostic> {
    if bound.contains(observed) {
        Vec::new()
    } else {
        vec![Diagnostic::new(
            rules::BOUND_UNSOUND,
            location,
            format!(
                "observed {what} {observed} outside the static bound [{}, {}]",
                bound.lo, bound.hi
            ),
        )]
    }
}

/// Shared knobs of one bound-sweep pass.
struct SweepCtx {
    slo: SloPolicy,
    prompt_len: usize,
    decode_tokens: usize,
    pool_bytes: u64,
}

/// The full bound sweep for one model under one SoC configuration:
/// footprint + deadline rules on the static bounds, region lint and
/// pool-replay gate per distinct plan site, and the TTFT/TPOT
/// soundness gate against a freshly simulated engine.
fn bound_lint_one(
    model: &ModelConfig,
    soc_cfg: SocConfig,
    ctx: &SweepCtx,
    location: &str,
    report: &mut Report,
) {
    let bounds = model_bounds_under(model, soc_cfg.clone(), ctx.prompt_len, ctx.decode_tokens);
    let mut diags = check_footprint(&bounds, ctx.pool_bytes, location);
    diags.extend(check_deadlines(&bounds, &ctx.slo, location));

    for (op, shape, plan) in &bounds.sites {
        let table = RegionTable::for_plan(plan, *shape);
        let site_loc = format!("{location}/{op}");
        let mut site = check_plan_regions(&table, &site_loc);
        let static_peak = schedule_peak_bytes(&SyncSchedule::for_plan(plan, *shape), &table);
        site.extend(check_pool_replay(&table, static_peak, &site_loc));
        report.extend(site);
    }

    // DES soundness gate: a fresh engine over the same SoC config must
    // land inside the mirror's intervals, phase for phase.
    let mut engine = HeteroTensorEngine::with_soc_config(model, soc_cfg);
    let observed_ttft = engine.prefill(ctx.prompt_len).elapsed;
    diags.extend(check_observed_within(
        bounds.ttft,
        observed_ttft,
        "TTFT",
        location,
    ));
    let observed_decode = engine.decode(ctx.prompt_len, ctx.decode_tokens).elapsed;
    diags.extend(check_observed_within(
        bounds.decode_total,
        observed_decode,
        "decode elapsed",
        location,
    ));
    report.extend(diags);
}

/// Certify every model in `models`: compute static footprint and
/// latency bounds at `prompt_len`/`decode_tokens`, check them against
/// `pool_bytes` and each model's calibrated SLO, and gate the bounds
/// against a fresh DES run (`bound-unsound` on any escape).
pub fn bound_lint_models(
    models: &[ModelConfig],
    prompt_len: usize,
    decode_tokens: usize,
    pool_bytes: u64,
) -> Report {
    let mut report = Report::new();
    for model in models {
        let ctx = SweepCtx {
            slo: SloPolicy::calibrated(model),
            prompt_len,
            decode_tokens,
            pool_bytes,
        };
        let location = format!("{}/bound[m={prompt_len}]", model.name);
        bound_lint_one(
            model,
            hetero_soc_config(SyncMechanism::Fast),
            &ctx,
            &location,
            &mut report,
        );
    }
    report
}

/// Certify the bounds across a seeded degraded session: at every
/// condition change point of the standard disturbance trace, recompute
/// the static bounds under the disturbance-adjusted SoC and gate them
/// against an engine simulated under the same conditions.
///
/// The SLO stays the quiet-calibrated one — that is exactly the
/// situation the runtime controller's `--bound` pre-check faces when
/// vetting fallback plans mid-degradation.
pub fn bound_lint_degraded_session(model: &ModelConfig, seed: u64, prompt_len: usize) -> Report {
    let mut report = Report::new();
    let ctx = SweepCtx {
        slo: SloPolicy::calibrated(model),
        prompt_len,
        decode_tokens: 2,
        pool_bytes: DEFAULT_POOL_BYTES,
    };
    let base = hetero_soc_config(SyncMechanism::Fast);
    let timeline = DisturbanceTrace::standard(seed)
        .timeline()
        .expect("standard traces are causal");
    for (t, cond) in timeline.points() {
        let location = format!(
            "{}/degraded[seed={seed},t={}us]",
            model.name,
            t.as_nanos() / 1_000
        );
        bound_lint_one(model, cond.apply_to(&base), &ctx, &location, &mut report);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_profiler::RealExecProvider;
    use hetero_soc::sync::Dominance;
    use hetero_solver::{PartitionPlan, Solver, SolverConfig};
    use hetero_tensor::shape::MatmulShape;
    use proptest::prelude::*;

    fn solver() -> Solver<RealExecProvider> {
        Solver::new(
            RealExecProvider::new(hetero_soc::SocConfig::snapdragon_8gen3()),
            SolverConfig::default(),
        )
    }

    fn plans() -> Vec<PartitionPlan> {
        vec![
            PartitionPlan::GpuOnly,
            PartitionPlan::NpuOnly { padded_m: 512 },
            PartitionPlan::NpuPipe {
                chunks: vec![256, 64],
                padded_rows: 20,
            },
            PartitionPlan::RowCut {
                gpu_cols: 1024,
                padded_m: 512,
            },
            PartitionPlan::HybridCut {
                padded_m: 512,
                gpu_cols: 1024,
            },
            PartitionPlan::SeqCut {
                npu_chunks: vec![256, 32],
                gpu_rows: 12,
            },
        ]
    }

    /// The worklist interpreter over a plan's event intervals.
    fn interval_via_dag(
        solver: &Solver<RealExecProvider>,
        plan: &PartitionPlan,
        shape: MatmulShape,
        dominance: Dominance,
    ) -> CostInterval {
        let costs = solver.event_cost_intervals(plan, shape, dominance);
        schedule_completion_interval(&SyncSchedule::for_plan(plan, shape), &costs)
    }

    /// The worklist interpreter reproduces the closed-form completion
    /// interval of `plan` under both dominances.
    fn assert_dag_interval(s: &Solver<RealExecProvider>, plan: &PartitionPlan, shape: MatmulShape) {
        for dominance in [Dominance::NpuDominant, Dominance::GpuDominant] {
            let dag = interval_via_dag(s, plan, shape, dominance);
            let closed = s.plan_cost_interval(plan, shape, dominance);
            assert_eq!(dag, closed, "{plan:?} {shape:?} {dominance:?}");
        }
    }

    /// The worklist interpreter reproduces the region table's peak
    /// plateau for `plan`.
    fn assert_dag_peak(plan: &PartitionPlan, shape: MatmulShape) {
        let table = RegionTable::for_plan(plan, shape);
        let via_dag = schedule_peak_bytes(&SyncSchedule::for_plan(plan, shape), &table);
        assert_eq!(via_dag, table.peak_bytes() as u64, "{plan:?} {shape:?}");
    }

    #[test]
    fn dag_interpreter_matches_closed_form_interval() {
        let s = solver();
        for plan in plans() {
            assert_dag_interval(&s, &plan, MatmulShape::new(300, 4096, 4096));
        }
    }

    #[test]
    fn dag_peak_matches_region_table_plateau() {
        for plan in plans() {
            assert_dag_peak(&plan, MatmulShape::new(300, 4096, 4096));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Both cross-checks on the plans the solver chooses for drawn
        /// shapes under either dominance.
        #[test]
        fn dag_interpreters_match_closed_forms_on_solver_plans(
            m in 1usize..2200,
            k in prop_oneof![Just(2048usize), Just(4096), Just(14336)],
            n in prop_oneof![Just(2048usize), Just(4096), Just(14336)],
        ) {
            let s = solver();
            let shape = MatmulShape::new(m, k, n);
            for dominance in [Dominance::NpuDominant, Dominance::GpuDominant] {
                let plan = s.solve(shape, dominance).plan;
                assert_dag_interval(&s, &plan, shape);
                assert_dag_peak(&plan, shape);
            }
        }
    }

    #[test]
    fn pool_replay_reaches_exactly_the_static_peak() {
        let shape = MatmulShape::new(300, 4096, 14336);
        for plan in plans() {
            let table = RegionTable::for_plan(&plan, shape);
            assert_eq!(
                replay_pool_peak(&table),
                table.peak_bytes() as u64,
                "{plan:?}"
            );
            assert!(check_pool_replay(&table, table.peak_bytes() as u64, "test").is_empty());
        }
    }

    #[test]
    fn understated_peak_claim_is_unsound() {
        let table = RegionTable::for_plan(
            &PartitionPlan::HybridCut {
                padded_m: 512,
                gpu_cols: 1024,
            },
            MatmulShape::new(300, 4096, 4096),
        );
        let claimed = table.peak_bytes() as u64 - 1;
        let diags = check_pool_replay(&table, claimed, "test");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule_id, rules::BOUND_UNSOUND);
    }

    #[test]
    fn shrunken_pool_fires_mem_overcommit() {
        let model = ModelConfig::internlm_1_8b();
        let bounds = model_bounds(&model, 300, 2);
        assert!(check_footprint(&bounds, DEFAULT_POOL_BYTES, "test").is_empty());
        let diags = check_footprint(&bounds, bounds.peak_bytes - 1, "test");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule_id, rules::MEM_OVERCOMMIT);
    }

    #[test]
    fn crafted_leak_fires_buffer_leak() {
        let mut table = RegionTable::for_plan(
            &PartitionPlan::NpuOnly { padded_m: 512 },
            MatmulShape::new(300, 4096, 4096),
        );
        assert!(check_plan_regions(&table, "test").is_empty());
        table.steps += 1;
        table.regions[1].live_until = 2; // past its last reader at step 1
        let diags = check_plan_regions(&table, "test");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule_id, rules::BUFFER_LEAK);
    }

    #[test]
    fn tiny_slo_fires_deadline_rules() {
        let model = ModelConfig::internlm_1_8b();
        let bounds = model_bounds(&model, 300, 2);
        assert!(
            bounds.ttft.lo < bounds.ttft.hi,
            "prefill has parallel sites"
        );
        // Budget below the lower bound: provably infeasible.
        let doomed = SloPolicy {
            ttft: SimTime::from_nanos(bounds.ttft.lo.as_nanos() - 1),
            tpot: SimTime::from_nanos(bounds.tpot.lo.as_nanos() - 1),
            streak: 3,
            shed_wait: SimTime::from_millis(1),
        };
        let diags = check_deadlines(&bounds, &doomed, "test");
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags
            .iter()
            .all(|d| d.rule_id == rules::DEADLINE_INFEASIBLE));
        // Budget between the bounds: at risk, not doomed.
        let tight = SloPolicy {
            ttft: bounds.ttft.lo,
            tpot: SimTime::from_nanos(u64::MAX),
            streak: 3,
            shed_wait: SimTime::from_millis(1),
        };
        let diags = check_deadlines(&bounds, &tight, "test");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule_id, rules::DEADLINE_AT_RISK);
    }

    #[test]
    fn model_sweep_is_sound_and_deny_free() {
        let models = [ModelConfig::internlm_1_8b()];
        let report = bound_lint_models(&models, 300, 2, DEFAULT_POOL_BYTES);
        assert!(report.is_clean(), "{}", report.to_json());
        assert!(
            !report
                .findings
                .iter()
                .any(|d| d.rule_id == rules::BOUND_UNSOUND),
            "{}",
            report.to_json()
        );
    }

    #[test]
    fn degraded_session_sweep_is_sound() {
        let report = bound_lint_degraded_session(&ModelConfig::internlm_1_8b(), 42, 64);
        assert!(
            !report
                .findings
                .iter()
                .any(|d| d.rule_id == rules::BOUND_UNSOUND),
            "{}",
            report.to_json()
        );
        // Several condition points were checked.
        assert!(report.summary.checked > 3, "{}", report.to_json());
    }

    #[test]
    fn per_token_division_is_sound() {
        let total = CostInterval {
            lo: SimTime::from_nanos(10),
            hi: SimTime::from_nanos(11),
        };
        let tp = per_token(total, 3);
        assert_eq!(tp.lo, SimTime::from_nanos(3)); // floor
        assert_eq!(tp.hi, SimTime::from_nanos(4)); // ceil
    }
}
