//! Bounded exhaustive model checking of the fleet policy automata.
//!
//! [`check_policy_product`] enumerates every reachable state of the
//! product automaton *request lifecycle × circuit breaker* under a
//! given [`PolicyAutomata`] (breaker config × retry policy × admission
//! control) and proves three liveness/boundedness properties with
//! exact state and transition counts:
//!
//! - **no livelock** ([`rules::POLICY_LIVELOCK`]): every reachable
//!   state can reach a resolution (`Served`, `Shed`, or `Lost`);
//! - **bounded retry** ([`rules::RETRY_UNBOUNDED`]): no dispatch-fail
//!   edge sits on a cycle, i.e. no failure loop repeats without
//!   consuming retry budget (`max_attempts == 0` models "retry
//!   forever" and is caught here);
//! - **Open escapability** ([`rules::BREAKER_TRAP`]): every state with
//!   an `Open` breaker can reach a non-`Open` breaker state.
//!
//! The breaker side is the fleet's own breaker: a `(BreakerState,
//! consecutive failures)` pair stepped by
//! [`hetero_fleet::BreakerConfig::step`], the transition the router's
//! [`hetero_fleet::CircuitBreaker`] runs. Only when the cooldown input
//! fires is the checker's modelling choice: from a pending retry
//! behind an `Open` breaker.
//!
//! The request side abstracts the router's per-request lifecycle:
//! `Start(p)` (admission decision under every representative census
//! band), `Admitted{p, attempt}` (dispatch in flight),
//! `Pending{p, attempt}` (failed, waiting to re-dispatch), and the
//! three terminal resolutions. Census state is abstracted into
//! *bands* — one representative `(busy, healthy)` pair per distinct
//! admission outcome (idle, each shed threshold, total outage) — so
//! the product stays finite while covering every admission branch.
//! `NextRequest` edges loop terminals back to `Start` with the breaker
//! state *preserved*, so breaker behaviour across consecutive requests
//! is part of the reachable space; these edges are excluded from the
//! retry-cycle analysis (budget is per request). The budget is
//! `RetryPolicy::max_attempts`; the router itself retries until the
//! request's deadline, up to `MAX_DISPATCHES`, so `max_retry_chain`
//! bounds the model, not the router.
//!
//! Both checks here, the policy product and the rollout ladder of
//! [`check_rollout_product`], run one breadth-first explorer. It
//! reuses the truncation discipline of
//! [`crate::explore::ExploreConfig`]: a hard state cap, an explicit
//! `truncated` flag in the [`ProductCertificate`], and — when
//! truncated — *no* property claims (all three proofs report `false`
//! and no diagnostics are emitted, since the subgraph is incomplete).
//! The rollout ladder is small and finite and runs uncapped.
//! Everything is deterministic: states are numbered in discovery
//! order and edges dedupe through a `BTreeSet`.

use hetero_fleet::{
    AdmissionControl, BreakerConfig, BreakerInput, BreakerState, Priority, RetryPolicy,
    MAX_DISPATCHES, ROLLOUT_STAGES,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::diag::Diagnostic;
use crate::rules;

/// The three policy state machines whose product is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyAutomata {
    /// Circuit-breaker tuning (threshold, cooldown).
    pub breaker: BreakerConfig,
    /// Retry/backoff schedule (only `max_attempts` shapes the graph).
    pub retry: RetryPolicy,
    /// Priority shed thresholds (shape the admission bands).
    pub admission: AdmissionControl,
}

impl PolicyAutomata {
    /// The shipped robust-router policy set.
    pub fn standard() -> Self {
        Self {
            breaker: BreakerConfig::standard(),
            retry: RetryPolicy::standard(),
            admission: AdmissionControl::standard(),
        }
    }
}

/// Exploration options (the fault-injection knobs exist so tests can
/// prove the checker *detects* broken automata, not just passes good
/// ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelOptions {
    /// Hard cap on interned states; exceeding it sets `truncated`.
    pub max_states: usize,
    /// Model the breaker's cooldown → half-open timer edge. Disabling
    /// it models a breaker with no recovery path.
    pub cooldown_edges: bool,
    /// Model the router's lost-penalty deadline edge out of a pending
    /// retry. Disabling it models a router that waits forever.
    pub deadline_edges: bool,
}

impl Default for ModelOptions {
    fn default() -> Self {
        Self {
            max_states: 1 << 16,
            cooldown_edges: true,
            deadline_edges: true,
        }
    }
}

/// Request-lifecycle side of the product state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ReqState {
    /// Arrived, admission not yet decided (priority index).
    Start(u8),
    /// Dispatch `attempt` in flight.
    Admitted { p: u8, attempt: u32 },
    /// Dispatch failed, waiting to re-dispatch `attempt`.
    Pending { p: u8, attempt: u32 },
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

/// Edge labels (dedupe key component; also used to classify fail
/// edges for the retry-cycle analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EdgeKind {
    Admit,
    Shed,
    DispatchOk,
    DispatchFail,
    Redispatch,
    Cooldown,
    Deadline,
    NextRequest,
}

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
    /// Maximum dispatches any single request performs (attempt index
    /// + 1 over in-flight states).
    pub max_retry_chain: u32,
    /// Every reachable state reaches a resolution.
    pub livelock_free: bool,
    /// Every `Open`-breaker state reaches a non-`Open` state.
    pub open_escapable: bool,
    /// No dispatch-fail edge lies on a per-request cycle.
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
    opts: &ModelOptions,
    bands: &[(usize, usize)],
) -> Vec<(EdgeKind, State)> {
    // Budget: `max_attempts == 0` means retry forever (the attempt
    // counter then never advances, producing the fail cycle the SCC
    // pass detects); otherwise capped by the router's hard ceiling.
    let budget = if automata.retry.max_attempts == 0 {
        None
    } else {
        Some(automata.retry.max_attempts.min(MAX_DISPATCHES))
    };
    let step = |input| automata.breaker.step(brk, input).0;
    let open = brk.0 == BreakerState::Open;
    let mut out = Vec::new();
    match req {
        ReqState::Start(p) => {
            let priority = Priority::ALL[p as usize];
            for &(busy, healthy) in bands {
                if automata.admission.should_shed(priority, busy, healthy) {
                    out.push((EdgeKind::Shed, (ReqState::Shed, brk)));
                } else if open {
                    out.push((EdgeKind::Admit, (ReqState::Pending { p, attempt: 0 }, brk)));
                } else {
                    out.push((EdgeKind::Admit, (ReqState::Admitted { p, attempt: 0 }, brk)));
                }
            }
        }
        ReqState::Admitted { p, attempt } => {
            out.push((
                EdgeKind::DispatchOk,
                (ReqState::Served, step(BreakerInput::Success)),
            ));
            let next_req = match budget {
                None => ReqState::Pending { p, attempt },
                Some(b) if attempt + 1 >= b => ReqState::Lost,
                Some(_) => ReqState::Pending {
                    p,
                    attempt: attempt + 1,
                },
            };
            out.push((
                EdgeKind::DispatchFail,
                (next_req, step(BreakerInput::Failure)),
            ));
        }
        ReqState::Pending { p, attempt } => {
            if !open {
                out.push((
                    EdgeKind::Redispatch,
                    (ReqState::Admitted { p, attempt }, brk),
                ));
            } else if opts.cooldown_edges {
                out.push((
                    EdgeKind::Cooldown,
                    (
                        ReqState::Pending { p, attempt },
                        step(BreakerInput::Cooldown),
                    ),
                ));
            }
            if opts.deadline_edges {
                out.push((EdgeKind::Deadline, (ReqState::Lost, brk)));
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
    // One initial state per priority class, breaker fresh.
    let graph = explore(
        (0..Priority::ALL.len() as u8).map(|p| (ReqState::Start(p), (BreakerState::Closed, 0))),
        opts.max_states,
        |s| successors(s, automata, opts, &bands),
    );
    let states = &graph.states;
    let n = states.len();
    let is_open = |i: usize| matches!(states[i], (_, (BreakerState::Open, _)));
    let open_states = (0..n).filter(|&i| is_open(i)).count() as u64;
    let terminal_states = states.iter().filter(|(r, _)| is_terminal(*r)).count() as u64;
    let max_retry_chain = states
        .iter()
        .filter_map(|(r, _)| match r {
            ReqState::Admitted { attempt, .. } | ReqState::Pending { attempt, .. } => {
                Some(attempt + 1)
            }
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

    // Bounded retry: no fail edge inside a per-request cycle.
    let comp = sccs(n, &per_request_edges);
    let cyclic_fail = graph
        .edges
        .iter()
        .find(|&&(u, k, v)| k == EdgeKind::DispatchFail && comp[u] == comp[v]);
    cert.retry_bounded = cyclic_fail.is_none();
    if let Some(&(u, _, _)) = cyclic_fail {
        diags.push(Diagnostic::new(
            rules::RETRY_UNBOUNDED,
            location,
            format!(
                "dispatch failure repeats without consuming retry budget; cycle through {}",
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

/// Fault-injection knobs for the rollout checker (tests prove the
/// checker *detects* a controller that cannot promote or cannot roll
/// back, not just passes the shipped one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RolloutOptions {
    /// Model the clean-verdict edge out of a deciding state. Disabling
    /// it models a controller that can never promote past a stage.
    pub verdict_edges: bool,
    /// Model the regressed-verdict edge out of a deciding state.
    /// Disabling it models a controller with no rollback path.
    pub rollback_edges: bool,
}

impl Default for RolloutOptions {
    fn default() -> Self {
        Self {
            verdict_edges: true,
            rollback_edges: true,
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

fn rollout_successors(
    s: RolState,
    automata: &RolloutAutomata,
    opts: &RolloutOptions,
) -> Vec<(RolEdge, RolState)> {
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
            if opts.verdict_edges {
                let next = if stage >= automata.stages {
                    RolState::Promoted
                } else {
                    RolState::Canary {
                        stage: stage + 1,
                        drifted: false,
                    }
                };
                out.push((RolEdge::CleanVerdict, next));
            }
            if opts.rollback_edges {
                out.push((RolEdge::RegressedVerdict, RolState::RolledBack));
            }
        }
        RolState::Promoted | RolState::RolledBack => {}
    }
    out
}

/// Exhaustively explore the rollout automaton and prove (or refute)
/// that promotion is reachable and that rollback is reachable from
/// *every* non-terminal state — the blast-radius safety argument: no
/// matter where in the ladder a regression is detected, the controller
/// can always revert.
pub fn check_rollout_product(
    automata: &RolloutAutomata,
    opts: &RolloutOptions,
    location: &str,
) -> (RolloutCertificate, Vec<Diagnostic>) {
    let init = RolState::Canary {
        stage: 1,
        drifted: false,
    };
    let graph = explore([init], usize::MAX, |s| {
        rollout_successors(s, automata, opts)
    });
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

    fn check(automata: PolicyAutomata, opts: ModelOptions) -> (ProductCertificate, Vec<String>) {
        let (cert, diags) = check_policy_product(&automata, &opts, "test");
        (cert, diags.into_iter().map(|d| d.rule_id).collect())
    }

    #[test]
    fn standard_policies_certify_with_exact_counts() {
        let (cert, rules_hit) = check(PolicyAutomata::standard(), ModelOptions::default());
        assert!(rules_hit.is_empty(), "{rules_hit:?}");
        assert!(!cert.truncated);
        assert!(cert.livelock_free);
        assert!(cert.open_escapable);
        assert!(cert.retry_bounded);
        assert_eq!(cert.max_retry_chain, 4, "max_attempts dispatches");
        // Exact reachable product: pinned so any policy or abstraction
        // change shows up as a diff here.
        assert_eq!(cert.states, 68);
        assert_eq!(cert.transitions, 144);
    }

    #[test]
    fn unbounded_retry_is_refuted() {
        let mut automata = PolicyAutomata::standard();
        automata.retry.max_attempts = 0;
        let (cert, rules_hit) = check(automata, ModelOptions::default());
        assert!(!cert.retry_bounded);
        assert!(rules_hit.contains(&rules::RETRY_UNBOUNDED.to_string()));
        assert!(cert.livelock_free, "ok edges still resolve requests");
    }

    #[test]
    fn missing_cooldown_edge_traps_the_breaker() {
        let opts = ModelOptions {
            cooldown_edges: false,
            ..ModelOptions::default()
        };
        let (cert, rules_hit) = check(PolicyAutomata::standard(), opts);
        assert!(!cert.open_escapable);
        assert!(rules_hit.contains(&rules::BREAKER_TRAP.to_string()));
    }

    #[test]
    fn no_cooldown_and_no_deadline_livelocks() {
        let opts = ModelOptions {
            cooldown_edges: false,
            deadline_edges: false,
            ..ModelOptions::default()
        };
        let (cert, rules_hit) = check(PolicyAutomata::standard(), opts);
        assert!(!cert.livelock_free);
        assert!(rules_hit.contains(&rules::POLICY_LIVELOCK.to_string()));
    }

    #[test]
    fn truncation_is_flagged_and_claims_nothing() {
        let opts = ModelOptions {
            max_states: 10,
            ..ModelOptions::default()
        };
        let (cert, rules_hit) = check(PolicyAutomata::standard(), opts);
        assert!(cert.truncated);
        assert_eq!(cert.states, 10);
        assert!(!cert.livelock_free && !cert.open_escapable && !cert.retry_bounded);
        assert!(rules_hit.is_empty(), "no claims from a truncated graph");
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

    #[test]
    fn rollout_ladder_certifies_with_exact_counts() {
        let (cert, diags) = check_rollout_product(
            &RolloutAutomata::standard(),
            &RolloutOptions::default(),
            "test",
        );
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
        let opts = RolloutOptions {
            verdict_edges: false,
            ..RolloutOptions::default()
        };
        let (cert, diags) = check_rollout_product(&RolloutAutomata::standard(), &opts, "test");
        assert!(!cert.promote_reachable);
        assert!(cert.rollback_reachable, "rollback path is intact");
        assert!(diags.iter().any(|d| d.rule_id == rules::ROLLOUT_STUCK));
    }

    #[test]
    fn missing_rollback_edge_is_rollback_missed() {
        let opts = RolloutOptions {
            rollback_edges: false,
            ..RolloutOptions::default()
        };
        let (cert, diags) = check_rollout_product(&RolloutAutomata::standard(), &opts, "test");
        assert!(cert.promote_reachable, "promotion path is intact");
        assert!(!cert.rollback_reachable);
        assert!(diags.iter().any(|d| d.rule_id == rules::ROLLBACK_MISSED));
    }

    #[test]
    fn rollout_certificate_roundtrips_through_json() {
        let (cert, _) = check_rollout_product(
            &RolloutAutomata::standard(),
            &RolloutOptions::default(),
            "test",
        );
        let json = serde_json::to_string(&cert).expect("serialize");
        let back: RolloutCertificate = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, cert);
    }
}
