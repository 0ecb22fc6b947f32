//! Bounded exhaustive model checking of the fleet policy automata.
//!
//! [`check_policy_product`] enumerates every reachable state of the
//! product automaton *request lifecycle × circuit breaker* under a
//! given [`PolicyAutomata`] (breaker config × admission control) and
//! proves three liveness/boundedness properties with exact state and
//! transition counts:
//!
//! - **no livelock** ([`rules::POLICY_LIVELOCK`]): every reachable
//!   state can reach a resolution (`Served`, `Shed`, or `Lost`);
//! - **bounded retry** ([`rules::RETRY_UNBOUNDED`]): no retry edge (a
//!   failed or unroutable attempt) sits on a per-request cycle, i.e.
//!   every retry consumes dispatch budget;
//! - **Open escapability** ([`rules::BREAKER_TRAP`]): every state with
//!   an `Open` breaker can reach a non-`Open` breaker state.
//!
//! Both sides of the product are the fleet's own rules. The breaker is
//! a `(BreakerState, consecutive failures)` pair stepped by
//! [`hetero_fleet::BreakerConfig::step`], the transition the router's
//! [`hetero_fleet::CircuitBreaker`] runs. The request is its pending
//! attempt index, stepped by the robust router's
//! [`hetero_fleet::RouterPolicy::step`] behind the deadline gate
//! [`hetero_fleet::RouterPolicy::may_dispatch`], the two calls
//! `FleetSim::replay` makes per attempt. The checker keeps no budget of
//! its own, so `max_retry_chain` is the router's own bound
//! ([`hetero_fleet::MAX_DISPATCHES`]). Only the inputs are modelling
//! choices: an attempt behind a non-`Open` breaker is served or fails,
//! one behind an `Open` breaker is unroutable and still uses an
//! attempt; the clock is abstracted away, so the gate is asked both
//! before the request's deadline and at it; and the cooldown fires
//! from a pending attempt behind an `Open` breaker.
//!
//! `Start(p)` makes the admission decision under every representative
//! census *band* — one `(busy, healthy)` pair per distinct admission
//! outcome (idle, each shed threshold, total outage) — so the product
//! stays finite while covering every admission branch. `NextRequest`
//! edges loop terminals back to `Start` with the breaker state
//! *preserved*, so breaker behaviour across consecutive requests is
//! part of the reachable space; these edges are excluded from the
//! retry-cycle analysis (budget is per request).
//!
//! Both checks here, the policy product and the rollout ladder of
//! [`check_rollout_product`], run one breadth-first explorer and then
//! a separate property pass over the explored graph. The explorer
//! reuses the truncation discipline of
//! [`crate::explore::ExploreConfig`]: a hard state cap, an explicit
//! `truncated` flag in the [`ProductCertificate`], and — when
//! truncated — *no* property claims (all three proofs report `false`
//! and no diagnostics are emitted, since the subgraph is incomplete).
//! The rollout ladder is small and finite and runs uncapped.
//! Everything is deterministic: states are numbered in discovery
//! order and edges dedupe through a `BTreeSet`.

use hetero_fleet::{
    AdmissionControl, AttemptOutcome, BreakerConfig, BreakerInput, BreakerState, DispatchStep,
    Priority, RouterPolicy, ROLLOUT_STAGES,
};
use hetero_soc::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::diag::Diagnostic;
use crate::rules;

/// The policy state machines whose product is checked with the robust
/// router's dispatch step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyAutomata {
    /// Circuit-breaker tuning (threshold, cooldown).
    pub breaker: BreakerConfig,
    /// Priority shed thresholds (shape the admission bands).
    pub admission: AdmissionControl,
}

impl PolicyAutomata {
    /// The shipped robust-router policy set.
    pub fn standard() -> Self {
        Self {
            breaker: BreakerConfig::standard(),
            admission: AdmissionControl::standard(),
        }
    }
}

/// Exploration options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelOptions {
    /// Hard cap on interned states; exceeding it sets `truncated`.
    pub max_states: usize,
}

impl Default for ModelOptions {
    fn default() -> Self {
        Self {
            max_states: 1 << 16,
        }
    }
}

/// Request-lifecycle side of the product state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ReqState {
    /// Arrived, admission not yet decided (priority index).
    Start(u8),
    /// Dispatch `attempt` waiting at the deadline gate.
    Pending { attempt: u32 },
    /// Completed within SLO accounting.
    Served,
    /// Rejected at admission.
    Shed,
    /// Dropped (budget exhausted or deadline).
    Lost,
}

/// Breaker side of the product state: the fleet breaker's state and
/// its consecutive failures, stepped by [`BreakerConfig::step`].
type Breaker = (BreakerState, u32);

type State = (ReqState, Breaker);

/// Edge labels (dedupe key component; also used to classify retry
/// edges for the retry-cycle analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EdgeKind {
    Admit,
    Shed,
    DispatchOk,
    DispatchFail,
    Unroutable,
    Cooldown,
    Deadline,
    NextRequest,
}

/// The router whose dispatch step the product explores: round-robin
/// has no breaker, no admission control and a single attempt.
const ROUTER: RouterPolicy = RouterPolicy::Robust;

/// The abstract request deadline: a pending attempt meets the deadline
/// gate at `SimTime::ZERO` (before it) or here (at it).
const DEADLINE: SimTime = SimTime::from_nanos(1);

/// Exact exploration results and property proofs. All counts are
/// integers and the whole struct serializes deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProductCertificate {
    /// Reachable product states.
    pub states: u64,
    /// Distinct labeled transitions between explored states.
    pub transitions: u64,
    /// Whether the state cap cut exploration short (if so, no
    /// property below is claimed).
    pub truncated: bool,
    /// States whose breaker side is `Open`.
    pub open_states: u64,
    /// States whose request side is a resolution (served/shed/lost).
    pub terminal_states: u64,
    /// Maximum dispatch attempts any single request makes (pending
    /// attempt index + 1).
    pub max_retry_chain: u32,
    /// Every reachable state reaches a resolution.
    pub livelock_free: bool,
    /// Every `Open`-breaker state reaches a non-`Open` state.
    pub open_escapable: bool,
    /// No retry edge lies on a per-request cycle.
    pub retry_bounded: bool,
}

/// Representative `(busy, healthy)` census bands: one per distinct
/// admission outcome of the given thresholds.
fn admission_bands(admission: &AdmissionControl) -> Vec<(usize, usize)> {
    let mut bands = vec![(0usize, 0usize), (0, 100)];
    for &pct in &admission.shed_busy_pct {
        if pct <= 100 {
            bands.push((pct as usize, 100));
        }
    }
    bands.sort_unstable();
    bands.dedup();
    bands
}

fn successors(
    (req, brk): State,
    automata: &PolicyAutomata,
    bands: &[(usize, usize)],
) -> Vec<(EdgeKind, State)> {
    let step = |input| automata.breaker.step(brk, input).0;
    let open = brk.0 == BreakerState::Open;
    let mut out = Vec::new();
    match req {
        ReqState::Start(p) => {
            let priority = Priority::ALL[p as usize];
            for &(busy, healthy) in bands {
                out.push(if automata.admission.should_shed(priority, busy, healthy) {
                    (EdgeKind::Shed, (ReqState::Shed, brk))
                } else {
                    (EdgeKind::Admit, (ReqState::Pending { attempt: 0 }, brk))
                });
            }
        }
        ReqState::Pending { attempt } => {
            use AttemptOutcome::{Failed, Served, Unroutable};
            let after = |outcome| match ROUTER.step(attempt, outcome) {
                DispatchStep::Served => ReqState::Served,
                DispatchStep::Retry { attempt } => ReqState::Pending { attempt },
                DispatchStep::Lost => ReqState::Lost,
            };
            let (ok, fail) = (step(BreakerInput::Success), step(BreakerInput::Failure));
            for now in [SimTime::ZERO, DEADLINE] {
                if !RouterPolicy::may_dispatch(attempt, now, DEADLINE) {
                    out.push((EdgeKind::Deadline, (ReqState::Lost, brk)));
                } else if open {
                    out.push((EdgeKind::Unroutable, (after(Unroutable), brk)));
                } else {
                    out.push((EdgeKind::DispatchOk, (after(Served), ok)));
                    out.push((EdgeKind::DispatchFail, (after(Failed), fail)));
                }
            }
            if open {
                out.push((EdgeKind::Cooldown, (req, step(BreakerInput::Cooldown))));
            }
        }
        ReqState::Served | ReqState::Shed | ReqState::Lost => {
            for p in 0..Priority::ALL.len() as u8 {
                out.push((EdgeKind::NextRequest, (ReqState::Start(p), brk)));
            }
        }
    }
    out
}

fn is_terminal(req: ReqState) -> bool {
    matches!(req, ReqState::Served | ReqState::Shed | ReqState::Lost)
}

/// Tarjan-free SCC via Kosaraju (two BFS-ordered DFS passes,
/// iterative).
fn sccs(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut fwd = vec![Vec::new(); n];
    let mut rev = vec![Vec::new(); n];
    for &(u, v) in edges {
        fwd[u].push(v);
        rev[v].push(u);
    }
    // Pass 1: finish order on the forward graph.
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for root in 0..n {
        if seen[root] {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        seen[root] = true;
        while let Some(&mut (u, ref mut i)) = stack.last_mut() {
            if *i < fwd[u].len() {
                let v = fwd[u][*i];
                *i += 1;
                if !seen[v] {
                    seen[v] = true;
                    stack.push((v, 0));
                }
            } else {
                order.push(u);
                stack.pop();
            }
        }
    }
    // Pass 2: components on the reverse graph in reverse finish order.
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    for &root in order.iter().rev() {
        if comp[root] != usize::MAX {
            continue;
        }
        let mut stack = vec![root];
        comp[root] = next;
        while let Some(u) = stack.pop() {
            for &v in &rev[u] {
                if comp[v] == usize::MAX {
                    comp[v] = next;
                    stack.push(v);
                }
            }
        }
        next += 1;
    }
    comp
}

/// Reverse-reachability: the set of nodes that can reach `targets`.
fn can_reach(n: usize, edges: &[(usize, usize)], targets: &[usize]) -> Vec<bool> {
    let mut rev = vec![Vec::new(); n];
    for &(u, v) in edges {
        rev[v].push(u);
    }
    let mut seen = vec![false; n];
    let mut queue: VecDeque<usize> = targets.iter().copied().collect();
    for &t in targets {
        seen[t] = true;
    }
    while let Some(u) = queue.pop_front() {
        for &v in &rev[u] {
            if !seen[v] {
                seen[v] = true;
                queue.push_back(v);
            }
        }
    }
    seen
}

fn describe((req, brk): &State) -> String {
    format!("{req:?} x {brk:?}")
}

/// The reachable graph of one automaton: states interned in
/// breadth-first discovery order, labelled edges deduplicated.
struct Explored<S, E> {
    states: Vec<S>,
    edges: BTreeSet<(usize, E, usize)>,
    /// Whether `max_states` cut exploration short.
    truncated: bool,
}

impl<S, E: Copy> Explored<S, E> {
    /// The edges with their labels dropped, optionally filtered.
    fn pairs(&self, keep: impl Fn(E) -> bool) -> Vec<(usize, usize)> {
        self.edges
            .iter()
            .filter(|&&(_, k, _)| keep(k))
            .map(|&(u, _, v)| (u, v))
            .collect()
    }
}

/// Breadth-first exploration from `init`, interning at most
/// `max_states` states; an edge to a state past the cap is dropped and
/// sets `truncated`.
fn explore<S: Copy + Ord, E: Copy + Ord>(
    init: impl IntoIterator<Item = S>,
    max_states: usize,
    successors: impl Fn(S) -> Vec<(E, S)>,
) -> Explored<S, E> {
    let mut ids: BTreeMap<S, usize> = BTreeMap::new();
    let mut states: Vec<S> = Vec::new();
    for s in init {
        ids.insert(s, states.len());
        states.push(s);
    }
    let mut queue: VecDeque<usize> = (0..states.len()).collect();
    let mut edges = BTreeSet::new();
    let mut truncated = false;
    while let Some(uid) = queue.pop_front() {
        for (kind, next) in successors(states[uid]) {
            let vid = match ids.get(&next) {
                Some(&v) => v,
                None if states.len() >= max_states => {
                    truncated = true;
                    continue;
                }
                None => {
                    let v = states.len();
                    ids.insert(next, v);
                    states.push(next);
                    queue.push_back(v);
                    v
                }
            };
            edges.insert((uid, kind, vid));
        }
    }
    Explored {
        states,
        edges,
        truncated,
    }
}

/// Explore the policy product from one fresh-breaker `Start` per
/// priority class along `successors`.
fn explore_policy(
    max_states: usize,
    successors: impl Fn(State) -> Vec<(EdgeKind, State)>,
) -> Explored<State, EdgeKind> {
    explore(
        (0..Priority::ALL.len() as u8).map(|p| (ReqState::Start(p), (BreakerState::Closed, 0))),
        max_states,
        successors,
    )
}

/// Exhaustively explore the product automaton and prove (or refute)
/// livelock freedom, bounded retry, and Open escapability. Returns
/// the exact-count certificate plus one diagnostic per refuted
/// property; diagnostics are suppressed (and all proofs report
/// `false`) when the state cap truncated exploration.
pub fn check_policy_product(
    automata: &PolicyAutomata,
    opts: &ModelOptions,
    location: &str,
) -> (ProductCertificate, Vec<Diagnostic>) {
    let bands = admission_bands(&automata.admission);
    let graph = explore_policy(opts.max_states, |s| successors(s, automata, &bands));
    certify_policy(&graph, location)
}

/// The property pass over an explored policy product.
fn certify_policy(
    graph: &Explored<State, EdgeKind>,
    location: &str,
) -> (ProductCertificate, Vec<Diagnostic>) {
    let states = &graph.states;
    let n = states.len();
    let is_open = |i: usize| matches!(states[i], (_, (BreakerState::Open, _)));
    let open_states = (0..n).filter(|&i| is_open(i)).count() as u64;
    let terminal_states = states.iter().filter(|(r, _)| is_terminal(*r)).count() as u64;
    let max_retry_chain = states
        .iter()
        .filter_map(|(r, _)| match r {
            ReqState::Pending { attempt } => Some(attempt + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);

    let mut cert = ProductCertificate {
        states: n as u64,
        transitions: graph.edges.len() as u64,
        truncated: graph.truncated,
        open_states,
        terminal_states,
        max_retry_chain,
        livelock_free: false,
        open_escapable: false,
        retry_bounded: false,
    };
    if graph.truncated {
        // Incomplete subgraph: claim nothing, flag nothing.
        return (cert, Vec::new());
    }

    let all_edges = graph.pairs(|_| true);
    let per_request_edges = graph.pairs(|k| k != EdgeKind::NextRequest);

    let mut diags = Vec::new();

    // Livelock freedom: every state reaches a resolution.
    let resolutions: Vec<usize> = (0..n).filter(|&i| is_terminal(states[i].0)).collect();
    let reaches = can_reach(n, &all_edges, &resolutions);
    let stuck: Vec<usize> = (0..n).filter(|&i| !reaches[i]).collect();
    cert.livelock_free = stuck.is_empty();
    if let Some(&first) = stuck.first() {
        diags.push(Diagnostic::new(
            rules::POLICY_LIVELOCK,
            location,
            format!(
                "{} state(s) cannot reach served/shed/lost; e.g. {}",
                stuck.len(),
                describe(&states[first])
            ),
        ));
    }

    // Open escapability: every Open state reaches a non-Open state.
    let non_open: Vec<usize> = (0..n).filter(|&i| !is_open(i)).collect();
    let escapes = can_reach(n, &all_edges, &non_open);
    let trapped: Vec<usize> = (0..n).filter(|&i| is_open(i) && !escapes[i]).collect();
    cert.open_escapable = trapped.is_empty();
    if let Some(&first) = trapped.first() {
        diags.push(Diagnostic::new(
            rules::BREAKER_TRAP,
            location,
            format!(
                "{} Open-breaker state(s) can never re-close; e.g. {}",
                trapped.len(),
                describe(&states[first])
            ),
        ));
    }

    // Bounded retry: no retry edge inside a per-request cycle.
    let comp = sccs(n, &per_request_edges);
    let cyclic_retry = graph.edges.iter().find(|&&(u, k, v)| {
        matches!(k, EdgeKind::DispatchFail | EdgeKind::Unroutable) && comp[u] == comp[v]
    });
    cert.retry_bounded = cyclic_retry.is_none();
    if let Some(&(u, _, _)) = cyclic_retry {
        diags.push(Diagnostic::new(
            rules::RETRY_UNBOUNDED,
            location,
            format!(
                "a retry repeats without consuming dispatch budget; cycle through {}",
                describe(&states[u])
            ),
        ));
    }

    (cert, diags)
}

/// The staged-rollout controller abstracted as a finite automaton:
/// per stage a canary cohort serves (possibly under drift), the stage
/// closes into a deciding state, and the verdict either promotes to
/// the next stage (or to full fleet after the last) or rolls back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RolloutAutomata {
    /// Number of rollout stages (the shipped controller uses 4:
    /// 1% → 10% → 50% → 100%).
    pub stages: u32,
}

impl RolloutAutomata {
    /// The shipped staged-rollout ladder.
    pub fn standard() -> Self {
        Self {
            stages: ROLLOUT_STAGES.len() as u32,
        }
    }
}

/// Rollout-side automaton state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RolState {
    /// Stage `stage` is serving its canary cohort; `drifted` tracks
    /// whether the online profiler currently reports drift on a canary.
    Canary { stage: u32, drifted: bool },
    /// Stage `stage` closed; the controller is comparing canary vs
    /// control deltas.
    Deciding { stage: u32, drifted: bool },
    /// The candidate reached 100% and the rollout terminated clean.
    Promoted,
    /// The candidate was reverted fleet-wide.
    RolledBack,
}

/// Rollout edge labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RolEdge {
    DriftUp,
    DriftDown,
    StageDone,
    CleanVerdict,
    RegressedVerdict,
}

/// Exact exploration results for the rollout automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RolloutCertificate {
    /// Reachable rollout states.
    pub states: u64,
    /// Distinct labeled transitions between explored states.
    pub transitions: u64,
    /// Terminal states (`Promoted`, `RolledBack`).
    pub terminal_states: u64,
    /// Stages the ladder models.
    pub stages: u32,
    /// `Promoted` is reachable from the initial 1%-stage state.
    pub promote_reachable: bool,
    /// `RolledBack` is reachable from every non-terminal state.
    pub rollback_reachable: bool,
}

fn rollout_successors(s: RolState, automata: &RolloutAutomata) -> Vec<(RolEdge, RolState)> {
    let mut out = Vec::new();
    match s {
        RolState::Canary { stage, drifted } => {
            if drifted {
                out.push((
                    RolEdge::DriftDown,
                    RolState::Canary {
                        stage,
                        drifted: false,
                    },
                ));
            } else {
                out.push((
                    RolEdge::DriftUp,
                    RolState::Canary {
                        stage,
                        drifted: true,
                    },
                ));
            }
            out.push((RolEdge::StageDone, RolState::Deciding { stage, drifted }));
        }
        RolState::Deciding { stage, .. } => {
            let next = if stage >= automata.stages {
                RolState::Promoted
            } else {
                RolState::Canary {
                    stage: stage + 1,
                    drifted: false,
                }
            };
            out.push((RolEdge::CleanVerdict, next));
            out.push((RolEdge::RegressedVerdict, RolState::RolledBack));
        }
        RolState::Promoted | RolState::RolledBack => {}
    }
    out
}

/// Explore the rollout ladder from its initial 1%-stage state along
/// `successors`.
fn explore_rollout(
    successors: impl Fn(RolState) -> Vec<(RolEdge, RolState)>,
) -> Explored<RolState, RolEdge> {
    let init = RolState::Canary {
        stage: 1,
        drifted: false,
    };
    explore([init], usize::MAX, successors)
}

/// Exhaustively explore the rollout automaton and prove (or refute)
/// that promotion is reachable and that rollback is reachable from
/// *every* non-terminal state — the blast-radius safety argument: no
/// matter where in the ladder a regression is detected, the controller
/// can always revert.
pub fn check_rollout_product(
    automata: &RolloutAutomata,
    location: &str,
) -> (RolloutCertificate, Vec<Diagnostic>) {
    let graph = explore_rollout(|s| rollout_successors(s, automata));
    certify_rollout(&graph, automata, location)
}

/// The property pass over an explored rollout ladder.
fn certify_rollout(
    graph: &Explored<RolState, RolEdge>,
    automata: &RolloutAutomata,
    location: &str,
) -> (RolloutCertificate, Vec<Diagnostic>) {
    let states = &graph.states;
    let n = states.len();
    let terminal = |s: &RolState| matches!(s, RolState::Promoted | RolState::RolledBack);
    let edges = graph.pairs(|_| true);

    let promoted: Vec<usize> = (0..n)
        .filter(|&i| states[i] == RolState::Promoted)
        .collect();
    let promote_reachable = can_reach(n, &edges, &promoted)[0];

    let rolled_back: Vec<usize> = (0..n)
        .filter(|&i| states[i] == RolState::RolledBack)
        .collect();
    let reaches_rollback = can_reach(n, &edges, &rolled_back);
    let unrevertable: Vec<usize> = (0..n)
        .filter(|&i| !terminal(&states[i]) && !reaches_rollback[i])
        .collect();

    let cert = RolloutCertificate {
        states: n as u64,
        transitions: graph.edges.len() as u64,
        terminal_states: states.iter().filter(|s| terminal(s)).count() as u64,
        stages: automata.stages,
        promote_reachable,
        rollback_reachable: unrevertable.is_empty(),
    };

    let mut diags = Vec::new();
    if !promote_reachable {
        diags.push(Diagnostic::new(
            rules::ROLLOUT_STUCK,
            location,
            format!(
                "no path from the initial 1% stage to Promoted across {} stage(s)",
                automata.stages
            ),
        ));
    }
    if let Some(&first) = unrevertable.first() {
        diags.push(Diagnostic::new(
            rules::ROLLBACK_MISSED,
            location,
            format!(
                "{} non-terminal state(s) cannot reach RolledBack; e.g. {:?}",
                unrevertable.len(),
                states[first]
            ),
        ));
    }
    (cert, diags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_fleet::MAX_DISPATCHES;

    type Edges = Vec<(EdgeKind, State)>;

    fn rule_ids(diags: Vec<Diagnostic>) -> Vec<String> {
        diags.into_iter().map(|d| d.rule_id).collect()
    }

    /// Certify the standard product with every state's real successor
    /// edges passed through `edit`: a broken router the checker must
    /// refute.
    fn check_edited(edit: impl Fn(State, Edges) -> Edges) -> (ProductCertificate, Vec<String>) {
        let automata = PolicyAutomata::standard();
        let bands = admission_bands(&automata.admission);
        let graph = explore_policy(ModelOptions::default().max_states, |s| {
            edit(s, successors(s, &automata, &bands))
        });
        let (cert, diags) = certify_policy(&graph, "test");
        (cert, rule_ids(diags))
    }

    /// The real successor edges without those of the given kinds.
    fn without(kinds: &'static [EdgeKind]) -> impl Fn(State, Edges) -> Edges {
        |_, edges| {
            edges
                .into_iter()
                .filter(|(k, _)| !kinds.contains(k))
                .collect()
        }
    }

    #[test]
    fn standard_policies_certify_with_exact_counts() {
        let (cert, diags) = check_policy_product(
            &PolicyAutomata::standard(),
            &ModelOptions::default(),
            "test",
        );
        let rules_hit = rule_ids(diags);
        assert!(rules_hit.is_empty(), "{rules_hit:?}");
        assert!(!cert.truncated);
        assert!(cert.livelock_free);
        assert!(cert.open_escapable);
        assert!(cert.retry_bounded);
        assert_eq!(cert.max_retry_chain, MAX_DISPATCHES, "the router's budget");
        // Exact reachable product: pinned so any policy or abstraction
        // change shows up as a diff here.
        assert_eq!(cert.states, 151);
        assert_eq!(cert.transitions, 437);
    }

    #[test]
    fn failure_that_keeps_its_attempt_is_unbounded_retry() {
        // A router whose failed dispatch does not use budget.
        let (cert, rules_hit) = check_edited(|(req, _), edges| {
            edges
                .into_iter()
                .map(|(k, (next, brk))| match (k, req, next) {
                    (
                        EdgeKind::DispatchFail,
                        ReqState::Pending { .. },
                        ReqState::Pending { .. },
                    ) => (k, (req, brk)),
                    _ => (k, (next, brk)),
                })
                .collect()
        });
        assert!(!cert.retry_bounded);
        assert!(rules_hit.contains(&rules::RETRY_UNBOUNDED.to_string()));
        assert!(cert.livelock_free, "the deadline still resolves requests");
    }

    #[test]
    fn missing_cooldown_edge_traps_the_breaker() {
        let (cert, rules_hit) = check_edited(without(&[EdgeKind::Cooldown]));
        assert!(!cert.open_escapable);
        assert!(rules_hit.contains(&rules::BREAKER_TRAP.to_string()));
    }

    #[test]
    fn waiting_forever_behind_an_open_breaker_livelocks() {
        // No cooldown, no deadline, and an unroutable round that does
        // not count: a pending request behind an Open breaker has no
        // way out.
        let (cert, rules_hit) = check_edited(without(&[
            EdgeKind::Cooldown,
            EdgeKind::Deadline,
            EdgeKind::Unroutable,
        ]));
        assert!(!cert.livelock_free);
        assert!(rules_hit.contains(&rules::POLICY_LIVELOCK.to_string()));
    }

    #[test]
    fn truncation_is_flagged_and_claims_nothing() {
        let opts = ModelOptions { max_states: 10 };
        let (cert, diags) = check_policy_product(&PolicyAutomata::standard(), &opts, "test");
        assert!(cert.truncated);
        assert_eq!(cert.states, 10);
        assert!(!cert.livelock_free && !cert.open_escapable && !cert.retry_bounded);
        assert!(diags.is_empty(), "no claims from a truncated graph");
    }

    #[test]
    fn certificate_roundtrips_through_json() {
        let (cert, _) = check_policy_product(
            &PolicyAutomata::standard(),
            &ModelOptions::default(),
            "test",
        );
        let json = serde_json::to_string(&cert).expect("serialize");
        let back: ProductCertificate = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, cert);
    }

    /// Certify the standard ladder without the edges of `dropped`.
    fn check_rollout_without(dropped: RolEdge) -> (RolloutCertificate, Vec<String>) {
        let automata = RolloutAutomata::standard();
        let graph = explore_rollout(|s| {
            rollout_successors(s, &automata)
                .into_iter()
                .filter(|&(k, _)| k != dropped)
                .collect()
        });
        let (cert, diags) = certify_rollout(&graph, &automata, "test");
        (cert, rule_ids(diags))
    }

    #[test]
    fn rollout_ladder_certifies_with_exact_counts() {
        let (cert, diags) = check_rollout_product(&RolloutAutomata::standard(), "test");
        assert!(diags.is_empty(), "{diags:?}");
        assert!(cert.promote_reachable);
        assert!(cert.rollback_reachable);
        assert_eq!(cert.terminal_states, 2);
        // 4 stages × {Canary, Deciding} × {drifted, not} + 2 terminals.
        assert_eq!(cert.states, 18);
        // Per stage: DriftUp, DriftDown, 2×StageDone, 2×CleanVerdict,
        // 2×RegressedVerdict = 8 edges × 4 stages.
        assert_eq!(cert.transitions, 32);
    }

    #[test]
    fn missing_clean_verdict_edge_is_rollout_stuck() {
        let (cert, rules_hit) = check_rollout_without(RolEdge::CleanVerdict);
        assert!(!cert.promote_reachable);
        assert!(cert.rollback_reachable, "rollback path is intact");
        assert!(rules_hit.contains(&rules::ROLLOUT_STUCK.to_string()));
    }

    #[test]
    fn missing_rollback_edge_is_rollback_missed() {
        let (cert, rules_hit) = check_rollout_without(RolEdge::RegressedVerdict);
        assert!(cert.promote_reachable, "promotion path is intact");
        assert!(!cert.rollback_reachable);
        assert!(rules_hit.contains(&rules::ROLLBACK_MISSED.to_string()));
    }

    #[test]
    fn rollout_certificate_roundtrips_through_json() {
        let (cert, _) = check_rollout_product(&RolloutAutomata::standard(), "test");
        let json = serde_json::to_string(&cert).expect("serialize");
        let back: RolloutCertificate = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, cert);
    }
}
