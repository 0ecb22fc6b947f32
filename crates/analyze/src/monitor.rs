//! Past-time-LTL certification of fleet event logs.
//!
//! [`monitor_fleet_log`] runs a one-pass incremental sweep over a
//! canonically ordered [`FleetEventLog`] and checks a library of named
//! temporal specs — the policy-monitoring gate ROADMAP item 5 calls
//! for. Each spec is a past-time LTL formula ([`Ltl`]) over event
//! atoms, evaluated by [`LtlMonitor`] in O(|formula|) per event with
//! O(1) state per subformula:
//!
//! | operator | semantics at position `i` |
//! |---|---|
//! | `Yesterday φ` | `φ` held at `i−1` (false at the first position) |
//! | `Once φ` | `φ` held at some `j ≤ i` |
//! | `Historically φ` | `φ` held at every `j ≤ i` |
//! | `φ Since ψ` | some `j ≤ i` had `ψ`, and `φ` held at every position after `j` |
//! | `OnceWithin(φ, d)` | `φ` held at some `j ≤ i` with `t_i − t_j ≤ d` ns |
//! | `CountLe{φ, ρ, k, χ, c}` | `#φ ≤ k·#χ + c`, both counted since the last `ρ` |
//!
//! Specs are *sliced*: per-device, per-request, or global monitor
//! instances are spun up lazily per slice key, so one sweep certifies
//! every device's breaker discipline and every request's deadline at
//! once. Because the log is normalized to a content-based total order
//! first, the verdict is identical under any per-device interleaved
//! merge of the same events (a proptest pins this).
//!
//! The spec library (severities in [`crate::rules`]):
//!
//! - [`rules::BREAKER_SKIP_PROBE`] — deny: per device, a logged
//!   breaker `Closed` entry must be a `ProbeSuccess` immediately
//!   preceded by the `HalfOpen` entry.
//! - [`rules::RETRY_PAST_DEADLINE`] — deny: per request, every
//!   dispatch happens within the 4×-SLO lost-penalty deadline of the
//!   request's arrival.
//! - [`rules::SHED_INVERSION`] — deny: no admission of a
//!   lower-priority request while a higher class was shed with no
//!   census refresh in between (one instance per guarded class).
//! - [`rules::CENSUS_STALENESS`] — warn: every dispatch decision has
//!   a census refresh within the probe contract behind it.
//! - [`rules::STORM_AMPLIFICATION`] — deny: at every fault-window
//!   close, retry dispatches since the window opened stay within
//!   [`STORM_AMPLIFICATION_FACTOR`]× the offered load plus
//!   [`STORM_AMPLIFICATION_SLACK`].
//! - [`rules::BROWNOUT_UNSHED`] — warn: a batch-class admission
//!   inside a fault window requires a contract-fresh census or a shed
//!   since the window opened (no admitting batch blind mid-storm).
//!
//! Rollout logs (`rollout_window_ns > 0` in the header) additionally
//! arm three staged-rollout specs:
//!
//! - [`rules::PROMOTION_LEGALITY`] — deny: every `Promote` verdict
//!   immediately follows a cleanly completed stage — no verdict since
//!   that stage opened.
//! - [`rules::ROLLBACK_COMPLETENESS`] — deny: every baseline-revert
//!   `ProfileUpdate` follows a `Rollback` with no newer stage between
//!   them, and every `Rollback` lands within the stage window of a
//!   `RolloutStage` event.
//! - [`rules::BLAST_RADIUS`] — deny: one instance per stage
//!   percentage; inside stage `k`, canary-apply profile updates stay
//!   within the stage's cohort bound `⌈devices × pct / 100⌉`.

use hetero_fleet::{FleetEvent, FleetEventLog, Priority, ProfileCause, ROLLOUT_STAGES};
use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::rules;

/// K in the storm-amplification bound: retries inside a fault window
/// may not exceed `K × offered + slack`.
pub const STORM_AMPLIFICATION_FACTOR: u64 = 3;
/// Additive slack in the storm-amplification bound (absorbs retries
/// scheduled just before the window that land inside it).
pub const STORM_AMPLIFICATION_SLACK: u64 = 16;

/// A past-time LTL formula over indexed boolean atoms.
#[derive(Debug, Clone)]
pub enum Ltl {
    /// The `i`-th atom of the owning spec at the current event.
    Atom(usize),
    /// Logical negation.
    Not(Box<Ltl>),
    /// Logical conjunction.
    And(Box<Ltl>, Box<Ltl>),
    /// Logical disjunction.
    Or(Box<Ltl>, Box<Ltl>),
    /// Material implication.
    Implies(Box<Ltl>, Box<Ltl>),
    /// The operand held at the previous position.
    Yesterday(Box<Ltl>),
    /// The operand held at some past-or-present position.
    Once(Box<Ltl>),
    /// The operand held at every past-and-present position.
    Historically(Box<Ltl>),
    /// `lhs Since rhs`: `rhs` held at some past-or-present position
    /// and `lhs` held ever since (exclusive of that position).
    Since(Box<Ltl>, Box<Ltl>),
    /// The operand held at some position at most this many
    /// nanoseconds ago (timestamps, not positions).
    OnceWithin(Box<Ltl>, u64),
    /// Counting comparison: occurrences of `count` since the last
    /// `reset` stay `≤ mul × occurrences of bound + add`.
    CountLe {
        /// Counted formula.
        count: Box<Ltl>,
        /// Both counters reset (then re-accumulate) when this holds.
        reset: Box<Ltl>,
        /// Multiplier on the bounding count.
        mul: u64,
        /// Bounding formula.
        bound: Box<Ltl>,
        /// Additive slack.
        add: u64,
    },
}

impl Ltl {
    /// Atom shorthand.
    pub fn atom(i: usize) -> Self {
        Ltl::Atom(i)
    }
    /// `¬self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Ltl::Not(Box::new(self))
    }
    /// `self ∧ rhs`.
    pub fn and(self, rhs: Self) -> Self {
        Ltl::And(Box::new(self), Box::new(rhs))
    }
    /// `self ∨ rhs`.
    pub fn or(self, rhs: Self) -> Self {
        Ltl::Or(Box::new(self), Box::new(rhs))
    }
    /// `self → rhs`.
    pub fn implies(self, rhs: Self) -> Self {
        Ltl::Implies(Box::new(self), Box::new(rhs))
    }
    /// `Y self`.
    pub fn yesterday(self) -> Self {
        Ltl::Yesterday(Box::new(self))
    }
    /// `◇⁻ self`.
    pub fn once(self) -> Self {
        Ltl::Once(Box::new(self))
    }
    /// `□⁻ self`.
    pub fn historically(self) -> Self {
        Ltl::Historically(Box::new(self))
    }
    /// `self S rhs`.
    pub fn since(self, rhs: Self) -> Self {
        Ltl::Since(Box::new(self), Box::new(rhs))
    }
    /// `◇⁻_{≤ d ns} self`.
    pub fn once_within(self, d_ns: u64) -> Self {
        Ltl::OnceWithin(Box::new(self), d_ns)
    }
}

/// One compiled subformula node (children precede parents).
#[derive(Debug, Clone, Copy)]
enum Op {
    Atom(usize),
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    Implies(usize, usize),
    Yesterday(usize),
    Once(usize),
    Historically(usize),
    Since(usize, usize),
    OnceWithin(usize, u64),
    CountLe {
        count: usize,
        reset: usize,
        mul: u64,
        bound: usize,
        add: u64,
    },
}

fn compile(f: &Ltl, ops: &mut Vec<Op>) -> usize {
    let op = match f {
        Ltl::Atom(i) => Op::Atom(*i),
        Ltl::Not(c) => Op::Not(compile(c, ops)),
        Ltl::And(a, b) => Op::And(compile(a, ops), compile(b, ops)),
        Ltl::Or(a, b) => Op::Or(compile(a, ops), compile(b, ops)),
        Ltl::Implies(a, b) => Op::Implies(compile(a, ops), compile(b, ops)),
        Ltl::Yesterday(c) => Op::Yesterday(compile(c, ops)),
        Ltl::Once(c) => Op::Once(compile(c, ops)),
        Ltl::Historically(c) => Op::Historically(compile(c, ops)),
        Ltl::Since(a, b) => Op::Since(compile(a, ops), compile(b, ops)),
        Ltl::OnceWithin(c, d) => Op::OnceWithin(compile(c, ops), *d),
        Ltl::CountLe {
            count,
            reset,
            mul,
            bound,
            add,
        } => Op::CountLe {
            count: compile(count, ops),
            reset: compile(reset, ops),
            mul: *mul,
            bound: compile(bound, ops),
            add: *add,
        },
    };
    ops.push(op);
    ops.len() - 1
}

/// Incremental evaluator for one [`Ltl`] formula: O(|formula|) work
/// and O(1) state per subformula per event.
#[derive(Debug, Clone)]
pub struct LtlMonitor {
    ops: Vec<Op>,
    root: usize,
    prev: Vec<bool>,
    cur: Vec<bool>,
    /// Timestamp of the operand's most recent hold (`OnceWithin`),
    /// `u64::MAX` = never.
    last_true: Vec<u64>,
    /// `CountLe` tallies since the last reset.
    tally: Vec<(u64, u64)>,
    first: bool,
}

impl LtlMonitor {
    /// Compile `formula` into a fresh monitor at the initial state.
    pub fn new(formula: &Ltl) -> Self {
        let mut ops = Vec::new();
        let root = compile(formula, &mut ops);
        let n = ops.len();
        Self {
            ops,
            root,
            prev: vec![false; n],
            cur: vec![false; n],
            last_true: vec![u64::MAX; n],
            tally: vec![(0, 0); n],
            first: true,
        }
    }

    /// Advance one position with the given atom values at timestamp
    /// `t_ns` (non-decreasing across calls); returns whether the
    /// formula holds at this position.
    pub fn step(&mut self, atoms: &[bool], t_ns: u64) -> bool {
        for i in 0..self.ops.len() {
            self.cur[i] = match self.ops[i] {
                Op::Atom(a) => atoms[a],
                Op::Not(c) => !self.cur[c],
                Op::And(a, b) => self.cur[a] && self.cur[b],
                Op::Or(a, b) => self.cur[a] || self.cur[b],
                Op::Implies(a, b) => !self.cur[a] || self.cur[b],
                Op::Yesterday(c) => !self.first && self.prev[c],
                Op::Once(c) => self.cur[c] || (!self.first && self.prev[i]),
                Op::Historically(c) => self.cur[c] && (self.first || self.prev[i]),
                Op::Since(p, q) => self.cur[q] || (self.cur[p] && !self.first && self.prev[i]),
                Op::OnceWithin(c, d) => {
                    if self.cur[c] {
                        self.last_true[i] = t_ns;
                    }
                    self.last_true[i] != u64::MAX && t_ns - self.last_true[i] <= d
                }
                Op::CountLe {
                    count,
                    reset,
                    mul,
                    bound,
                    add,
                } => {
                    if self.cur[reset] {
                        self.tally[i] = (0, 0);
                    }
                    if self.cur[count] {
                        self.tally[i].0 += 1;
                    }
                    if self.cur[bound] {
                        self.tally[i].1 += 1;
                    }
                    self.tally[i].0 <= mul.saturating_mul(self.tally[i].1).saturating_add(add)
                }
            };
        }
        self.prev.copy_from_slice(&self.cur);
        self.first = false;
        self.cur[self.root]
    }
}

/// How a spec's monitor instances are keyed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slice {
    /// One instance for the whole log.
    Global,
    /// One instance per device id.
    PerDevice,
    /// One instance per request id.
    PerRequest,
}

type EventPred = Box<dyn Fn(&FleetEvent) -> bool>;

/// One named temporal spec: an event filter, atom extractors, and a
/// must-hold formula over them.
struct Spec {
    rule: &'static str,
    /// Instance qualifier for parameterized specs (empty otherwise).
    instance: &'static str,
    slice: Slice,
    relevant: EventPred,
    atoms: Vec<EventPred>,
    formula: Ltl,
    describe: String,
}

fn is_census(e: &FleetEvent) -> bool {
    matches!(e, FleetEvent::CensusRefresh { .. })
}

fn is_stage(e: &FleetEvent) -> bool {
    matches!(e, FleetEvent::RolloutStage { .. })
}

/// Static instance qualifier for one rollout stage percentage.
fn stage_instance(pct: u32) -> &'static str {
    match pct {
        1 => "stage-1pct",
        10 => "stage-10pct",
        50 => "stage-50pct",
        100 => "stage-100pct",
        _ => "stage",
    }
}

/// The spec library, with timing bounds taken from the log's contract
/// header.
fn build_specs(log: &FleetEventLog) -> Vec<Spec> {
    let deadline = log.deadline_ns;
    let contract = log.census_interval_ns;
    let mut specs = Vec::new();

    // breaker-skip-probe: per device, over breaker transitions only,
    //   enter_closed → probe_success ∧ Y enter_half_open.
    specs.push(Spec {
        rule: rules::BREAKER_SKIP_PROBE,
        instance: "",
        slice: Slice::PerDevice,
        relevant: Box::new(|e| matches!(e, FleetEvent::Breaker { .. })),
        atoms: vec![
            Box::new(|e| {
                matches!(
                    e,
                    FleetEvent::Breaker {
                        to: hetero_fleet::BreakerState::Closed,
                        ..
                    }
                )
            }),
            Box::new(|e| {
                matches!(
                    e,
                    FleetEvent::Breaker {
                        cause: hetero_fleet::BreakerCause::ProbeSuccess,
                        ..
                    }
                )
            }),
            Box::new(|e| {
                matches!(
                    e,
                    FleetEvent::Breaker {
                        to: hetero_fleet::BreakerState::HalfOpen,
                        ..
                    }
                )
            }),
        ],
        formula: Ltl::atom(0).implies(Ltl::atom(1).and(Ltl::atom(2).yesterday())),
        describe: "breaker closed without an immediately preceding successful half-open probe"
            .into(),
    });

    // retry-past-deadline: per request,
    //   dispatch → OnceWithin(offered, deadline).
    specs.push(Spec {
        rule: rules::RETRY_PAST_DEADLINE,
        instance: "",
        slice: Slice::PerRequest,
        relevant: Box::new(|e| {
            matches!(e, FleetEvent::Offered { .. } | FleetEvent::Dispatch { .. })
        }),
        atoms: vec![
            Box::new(|e| matches!(e, FleetEvent::Dispatch { .. })),
            Box::new(|e| matches!(e, FleetEvent::Offered { .. })),
        ],
        formula: Ltl::atom(0).implies(Ltl::atom(1).once_within(deadline)),
        describe: format!(
            "dispatch more than the lost-penalty deadline ({deadline} ns) after the request's \
             arrival"
        ),
    });

    // shed-inversion: one instance per guarded class p,
    //   ¬(admit_lower(p) ∧ ((¬census) S shed(p))).
    for guarded in [Priority::Interactive, Priority::Standard] {
        let lower_than = guarded.index();
        specs.push(Spec {
            rule: rules::SHED_INVERSION,
            instance: guarded.name(),
            slice: Slice::Global,
            relevant: Box::new(move |e| match *e {
                FleetEvent::CensusRefresh { .. } => true,
                FleetEvent::Shed { priority, .. } => priority == guarded,
                FleetEvent::Dispatch {
                    attempt, priority, ..
                } => attempt == 0 && priority.index() > lower_than,
                _ => false,
            }),
            atoms: vec![
                Box::new(move |e| match *e {
                    FleetEvent::Dispatch {
                        attempt, priority, ..
                    } => attempt == 0 && priority.index() > lower_than,
                    _ => false,
                }),
                Box::new(
                    move |e| matches!(*e, FleetEvent::Shed { priority, .. } if priority == guarded),
                ),
                Box::new(is_census),
            ],
            formula: Ltl::atom(0)
                .and(Ltl::atom(2).not().since(Ltl::atom(1)))
                .not(),
            describe: format!(
                "lower-priority request admitted while a {} request was shed in the same census \
                 epoch",
                guarded.name()
            ),
        });
    }

    // census-staleness: global,
    //   dispatch → OnceWithin(census, contract).
    specs.push(Spec {
        rule: rules::CENSUS_STALENESS,
        instance: "",
        slice: Slice::Global,
        relevant: Box::new(|e| {
            matches!(
                e,
                FleetEvent::Dispatch { .. } | FleetEvent::CensusRefresh { .. }
            )
        }),
        atoms: vec![
            Box::new(|e| matches!(e, FleetEvent::Dispatch { .. })),
            Box::new(is_census),
        ],
        formula: Ltl::atom(0).implies(Ltl::atom(1).once_within(contract)),
        describe: format!(
            "routing decision without a census refresh within the {contract} ns probe contract"
        ),
    });

    // storm-amplification: global, evaluated at fault-window close,
    //   close → #retry ≤ K·#offered + C, counted since the open.
    specs.push(Spec {
        rule: rules::STORM_AMPLIFICATION,
        instance: "",
        slice: Slice::Global,
        relevant: Box::new(|e| match *e {
            FleetEvent::FaultOpen { .. }
            | FleetEvent::FaultClose { .. }
            | FleetEvent::Offered { .. } => true,
            FleetEvent::Dispatch { attempt, .. } => attempt > 0,
            _ => false,
        }),
        atoms: vec![
            Box::new(|e| matches!(e, FleetEvent::FaultClose { .. })),
            Box::new(|e| matches!(e, FleetEvent::FaultOpen { .. })),
            Box::new(|e| matches!(e, FleetEvent::Dispatch { attempt, .. } if *attempt > 0)),
            Box::new(|e| matches!(e, FleetEvent::Offered { .. })),
        ],
        formula: Ltl::atom(0).implies(Ltl::CountLe {
            count: Box::new(Ltl::atom(2)),
            reset: Box::new(Ltl::atom(1)),
            mul: STORM_AMPLIFICATION_FACTOR,
            bound: Box::new(Ltl::atom(3)),
            add: STORM_AMPLIFICATION_SLACK,
        }),
        describe: format!(
            "retry dispatches inside a fault window exceeded {STORM_AMPLIFICATION_FACTOR}x \
             offered load + {STORM_AMPLIFICATION_SLACK}"
        ),
    });

    // brownout-unshed: global,
    //   ¬(batch_admit ∧ inside_window ∧ no_shed_since_open ∧ ¬fresh_census)
    // where inside_window = (¬close) S open, no_shed_since_open =
    // (¬shed) S open, fresh_census = OnceWithin(census, contract).
    specs.push(Spec {
        rule: rules::BROWNOUT_UNSHED,
        instance: "",
        slice: Slice::Global,
        relevant: Box::new(|e| match *e {
            FleetEvent::FaultOpen { .. }
            | FleetEvent::FaultClose { .. }
            | FleetEvent::Shed { .. }
            | FleetEvent::CensusRefresh { .. } => true,
            FleetEvent::Dispatch {
                attempt, priority, ..
            } => attempt == 0 && priority == Priority::Batch,
            _ => false,
        }),
        atoms: vec![
            Box::new(|e| {
                matches!(*e, FleetEvent::Dispatch { attempt, priority, .. }
                    if attempt == 0 && priority == Priority::Batch)
            }),
            Box::new(|e| matches!(e, FleetEvent::FaultOpen { .. })),
            Box::new(|e| matches!(e, FleetEvent::FaultClose { .. })),
            Box::new(|e| matches!(e, FleetEvent::Shed { .. })),
            Box::new(is_census),
        ],
        formula: Ltl::atom(0)
            .and(Ltl::atom(2).not().since(Ltl::atom(1)))
            .and(Ltl::atom(3).not().since(Ltl::atom(1)))
            .and(Ltl::atom(4).once_within(contract).not())
            .not(),
        describe: format!(
            "batch request admitted inside a fault window with no shed since the window opened \
             and no census within {contract} ns"
        ),
    });

    // The staged-rollout specs only arm on rollout logs (the master
    // timeline `RolloutController::run` emits); plain `fleet_sweep`
    // arms carry `rollout_window_ns = 0` and skip them.
    if log.rollout_window_ns > 0 {
        let window = log.rollout_window_ns;

        // promotion-legality: global, over stage/verdict events only,
        //   promote → Y((¬promote ∧ ¬rollback) S stage):
        // the stage the verdict covers completed with no verdict since
        // it opened (no double promotion, no promotion after rollback
        // without a fresh stage).
        specs.push(Spec {
            rule: rules::PROMOTION_LEGALITY,
            instance: "",
            slice: Slice::Global,
            relevant: Box::new(|e| {
                matches!(
                    e,
                    FleetEvent::RolloutStage { .. }
                        | FleetEvent::Promote { .. }
                        | FleetEvent::Rollback { .. }
                )
            }),
            atoms: vec![
                Box::new(|e| matches!(e, FleetEvent::Promote { .. })),
                Box::new(|e| matches!(e, FleetEvent::Rollback { .. })),
                Box::new(is_stage),
            ],
            formula: Ltl::atom(0).implies(
                Ltl::atom(0)
                    .not()
                    .and(Ltl::atom(1).not())
                    .since(Ltl::atom(2))
                    .yesterday(),
            ),
            describe: "candidate promoted without a cleanly completed stage immediately behind \
                       the verdict"
                .into(),
        });

        // rollback-completeness: global,
        //   (revert → (¬stage) S rollback) ∧
        //   (rollback → OnceWithin(stage, window)):
        // every baseline revert traces back to a Rollback verdict with
        // no newer stage in between, and the verdict itself lands
        // inside its stage window.
        specs.push(Spec {
            rule: rules::ROLLBACK_COMPLETENESS,
            instance: "",
            slice: Slice::Global,
            relevant: Box::new(|e| match *e {
                FleetEvent::RolloutStage { .. } | FleetEvent::Rollback { .. } => true,
                FleetEvent::ProfileUpdate { cause, .. } => cause == ProfileCause::Rollback,
                _ => false,
            }),
            atoms: vec![
                Box::new(|e| {
                    matches!(*e, FleetEvent::ProfileUpdate { cause, .. }
                        if cause == ProfileCause::Rollback)
                }),
                Box::new(is_stage),
                Box::new(|e| matches!(e, FleetEvent::Rollback { .. })),
            ],
            formula: Ltl::atom(0)
                .implies(Ltl::atom(1).not().since(Ltl::atom(2)))
                .and(Ltl::atom(2).implies(Ltl::atom(1).once_within(window))),
            describe: format!(
                "baseline revert without a governing Rollback verdict, or a Rollback more than \
                 the {window} ns stage window after its stage opened"
            ),
        });

        // blast-radius: one instance per stage percentage,
        //   ((¬stage_other) S stage_k) → #canary_apply ≤ ⌈devices·pct/100⌉,
        // counted since the last stage boundary.
        for pct in ROLLOUT_STAGES {
            let allowed = (log.devices * u64::from(pct)).div_ceil(100);
            specs.push(Spec {
                rule: rules::BLAST_RADIUS,
                instance: stage_instance(pct),
                slice: Slice::Global,
                relevant: Box::new(|e| match *e {
                    FleetEvent::RolloutStage { .. } => true,
                    FleetEvent::ProfileUpdate { cause, .. } => cause == ProfileCause::CanaryApply,
                    _ => false,
                }),
                atoms: vec![
                    Box::new(|e| {
                        matches!(*e, FleetEvent::ProfileUpdate { cause, .. }
                            if cause == ProfileCause::CanaryApply)
                    }),
                    Box::new(is_stage),
                    Box::new(
                        move |e| matches!(*e, FleetEvent::RolloutStage { pct: p, .. } if p == pct),
                    ),
                    Box::new(
                        move |e| matches!(*e, FleetEvent::RolloutStage { pct: p, .. } if p != pct),
                    ),
                ],
                formula: Ltl::atom(3)
                    .not()
                    .since(Ltl::atom(2))
                    .implies(Ltl::CountLe {
                        count: Box::new(Ltl::atom(0)),
                        reset: Box::new(Ltl::atom(1)),
                        mul: 0,
                        bound: Box::new(Ltl::atom(1)),
                        add: allowed,
                    }),
                describe: format!(
                    "more than {allowed} canary devices exposed inside the {pct}% stage"
                ),
            });
        }
    }

    specs
}

/// One spec's aggregated outcome after a sweep.
#[derive(Debug, Clone)]
struct SpecTally {
    violations: u64,
    first: Option<(u64, String)>,
}

/// The outcome of one [`monitor_fleet_log`] sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorVerdict {
    /// One diagnostic per violated spec instance, in spec order.
    pub findings: Vec<Diagnostic>,
    /// Events swept.
    pub events: u64,
    /// Monitor instances instantiated across all specs and slices.
    pub instances: u64,
    /// Total violating positions across all specs.
    pub violations: u64,
}

fn slice_key(e: &FleetEvent, slice: Slice) -> Option<u64> {
    match slice {
        Slice::Global => Some(0),
        Slice::PerDevice => e.device(),
        Slice::PerRequest => e.req(),
    }
}

fn slice_desc(e: &FleetEvent, slice: Slice) -> String {
    match slice {
        Slice::Global => String::new(),
        Slice::PerDevice => format!(" (device {})", e.device().unwrap_or(0)),
        Slice::PerRequest => format!(" (request {})", e.req().unwrap_or(0)),
    }
}

/// Sweep `log` once against the whole spec library and report one
/// diagnostic per violated spec instance. The log is re-normalized
/// into canonical content order first, so verdicts do not depend on
/// how per-device streams were interleaved.
pub fn monitor_fleet_log(log: &FleetEventLog) -> MonitorVerdict {
    let mut events = log.events.clone();
    events.sort_by_key(FleetEvent::sort_key);
    let specs = build_specs(log);
    let mut instances: Vec<BTreeMap<u64, LtlMonitor>> =
        specs.iter().map(|_| BTreeMap::new()).collect();
    let mut tallies: Vec<SpecTally> = specs
        .iter()
        .map(|_| SpecTally {
            violations: 0,
            first: None,
        })
        .collect();
    let mut atom_buf: Vec<bool> = Vec::new();

    for ev in &events {
        for (si, spec) in specs.iter().enumerate() {
            if !(spec.relevant)(ev) {
                continue;
            }
            let Some(key) = slice_key(ev, spec.slice) else {
                continue;
            };
            atom_buf.clear();
            atom_buf.extend(spec.atoms.iter().map(|a| a(ev)));
            let monitor = instances[si]
                .entry(key)
                .or_insert_with(|| LtlMonitor::new(&spec.formula));
            if !monitor.step(&atom_buf, ev.at().as_nanos()) {
                let tally = &mut tallies[si];
                tally.violations += 1;
                if tally.first.is_none() {
                    tally.first = Some((ev.at().as_nanos(), slice_desc(ev, spec.slice)));
                }
            }
        }
    }

    let mut findings = Vec::new();
    let mut total_violations = 0u64;
    for (spec, tally) in specs.iter().zip(&tallies) {
        total_violations += tally.violations;
        if tally.violations == 0 {
            continue;
        }
        let (first_t, first_where) = tally.first.clone().expect("violations imply a first");
        let qualifier = if spec.instance.is_empty() {
            String::new()
        } else {
            format!("/{}", spec.instance)
        };
        findings.push(Diagnostic::new(
            spec.rule,
            format!("fleet[{}]/{}{}", log.seed, log.policy, qualifier),
            format!(
                "{}: {} violating event(s); first at t={} ns{}",
                spec.describe, tally.violations, first_t, first_where
            ),
        ));
    }
    MonitorVerdict {
        findings,
        events: events.len() as u64,
        instances: instances.iter().map(|m| m.len() as u64).sum(),
        violations: total_violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_fleet::{BreakerCause, BreakerState, EVENT_LOG_VERSION};
    use hetero_soc::SimTime;

    fn eval_seq(f: &Ltl, steps: &[(&[bool], u64)]) -> Vec<bool> {
        let mut m = LtlMonitor::new(f);
        steps.iter().map(|(a, t)| m.step(a, *t)).collect()
    }

    #[test]
    fn yesterday_once_historically_semantics() {
        let y = Ltl::atom(0).yesterday();
        assert_eq!(
            eval_seq(&y, &[(&[true], 0), (&[false], 1), (&[false], 2)]),
            vec![false, true, false]
        );
        let o = Ltl::atom(0).once();
        assert_eq!(
            eval_seq(&o, &[(&[false], 0), (&[true], 1), (&[false], 2)]),
            vec![false, true, true]
        );
        let h = Ltl::atom(0).historically();
        assert_eq!(
            eval_seq(
                &h,
                &[(&[true], 0), (&[true], 1), (&[false], 2), (&[true], 3)]
            ),
            vec![true, true, false, false]
        );
    }

    #[test]
    fn since_resets_on_rhs_and_decays_on_lhs_gap() {
        // a0 S a1 over (a0, a1) pairs.
        let s = Ltl::atom(0).since(Ltl::atom(1));
        let steps: &[(&[bool], u64)] = &[
            (&[true, false], 0),  // no anchor yet
            (&[false, true], 1),  // anchor
            (&[true, false], 2),  // held since
            (&[false, false], 3), // gap: broken
            (&[true, false], 4),  // still broken
            (&[true, true], 5),   // re-anchored
        ];
        assert_eq!(
            eval_seq(&s, steps),
            vec![false, true, true, false, false, true]
        );
    }

    #[test]
    fn once_within_respects_the_time_bound() {
        let f = Ltl::atom(0).once_within(10);
        let steps: &[(&[bool], u64)] = &[
            (&[true], 0),
            (&[false], 5),
            (&[false], 10),
            (&[false], 11),
            (&[true], 20),
            (&[false], 30),
        ];
        assert_eq!(
            eval_seq(&f, steps),
            vec![true, true, true, false, true, true]
        );
    }

    #[test]
    fn count_le_resets_and_compares() {
        // atoms: (count, reset, bound); mul=2, add=1.
        let f = Ltl::CountLe {
            count: Box::new(Ltl::atom(0)),
            reset: Box::new(Ltl::atom(1)),
            mul: 2,
            bound: Box::new(Ltl::atom(2)),
            add: 1,
        };
        let steps: &[(&[bool], u64)] = &[
            (&[true, false, false], 0), // 1 ≤ 0+1
            (&[true, false, false], 1), // 2 > 1 → false
            (&[false, false, true], 2), // 2 ≤ 2+1
            (&[false, true, false], 3), // reset: 0 ≤ 1
            (&[true, false, false], 4), // 1 ≤ 1
        ];
        assert_eq!(eval_seq(&f, steps), vec![true, false, true, true, true]);
    }

    fn tiny_log(events: Vec<FleetEvent>) -> FleetEventLog {
        FleetEventLog {
            version: EVENT_LOG_VERSION,
            seed: 1,
            policy: "robust".into(),
            devices: 2,
            requests: 2,
            slo_ttft_ns: 1_000_000,
            deadline_ns: 4_000_000,
            census_interval_ns: 50_000_000,
            rollout_window_ns: 0,
            events,
        }
    }

    fn rollout_log(events: Vec<FleetEvent>) -> FleetEventLog {
        let mut log = tiny_log(events);
        log.rollout_window_ns = 10_000_000_000;
        log
    }

    #[test]
    fn synthetic_open_to_closed_shortcut_trips_breaker_skip_probe() {
        let t = SimTime::from_millis;
        let log = tiny_log(vec![
            FleetEvent::Breaker {
                at: t(1),
                device: 0,
                from: BreakerState::Closed,
                to: BreakerState::Open,
                cause: BreakerCause::FailureThreshold,
            },
            // Shortcut: Closed without the HalfOpen entry in between.
            FleetEvent::Breaker {
                at: t(2),
                device: 0,
                from: BreakerState::Open,
                to: BreakerState::Closed,
                cause: BreakerCause::ProbeSuccess,
            },
        ]);
        let verdict = monitor_fleet_log(&log);
        assert_eq!(verdict.findings.len(), 1);
        assert_eq!(verdict.findings[0].rule_id, rules::BREAKER_SKIP_PROBE);
        assert_eq!(verdict.violations, 1);
    }

    #[test]
    fn synthetic_legal_probe_recovery_is_clean() {
        let t = SimTime::from_millis;
        let log = tiny_log(vec![
            FleetEvent::Breaker {
                at: t(1),
                device: 0,
                from: BreakerState::Closed,
                to: BreakerState::Open,
                cause: BreakerCause::FailureThreshold,
            },
            FleetEvent::Breaker {
                at: t(2),
                device: 0,
                from: BreakerState::Open,
                to: BreakerState::HalfOpen,
                cause: BreakerCause::CooldownElapsed,
            },
            FleetEvent::Breaker {
                at: t(3),
                device: 0,
                from: BreakerState::HalfOpen,
                to: BreakerState::Closed,
                cause: BreakerCause::ProbeSuccess,
            },
        ]);
        let verdict = monitor_fleet_log(&log);
        assert!(verdict.findings.is_empty(), "{:?}", verdict.findings);
        assert_eq!(verdict.instances, 1);
    }

    #[test]
    fn synthetic_shed_inversion_needs_no_census_between() {
        let t = SimTime::from_millis;
        let shed = FleetEvent::Shed {
            at: t(10),
            req: 1,
            priority: Priority::Standard,
        };
        let admit = |at_ms: u64| FleetEvent::Dispatch {
            at: SimTime::from_millis(at_ms),
            req: 2,
            device: 0,
            attempt: 0,
            priority: Priority::Batch,
        };
        let census = FleetEvent::CensusRefresh {
            at: t(11),
            healthy: 2,
        };
        // Admit right after the shed, same epoch: inversion.
        let bad = monitor_fleet_log(&tiny_log(vec![shed, admit(10)]));
        assert!(bad
            .findings
            .iter()
            .any(|d| d.rule_id == rules::SHED_INVERSION));
        // A census refresh between them clears it.
        let ok = monitor_fleet_log(&tiny_log(vec![shed, census, admit(12)]));
        assert!(ok
            .findings
            .iter()
            .all(|d| d.rule_id != rules::SHED_INVERSION));
    }

    fn stage(at_ms: u64, stage: u32, pct: u32, canary: u64) -> FleetEvent {
        FleetEvent::RolloutStage {
            at: SimTime::from_millis(at_ms),
            stage,
            pct,
            canary,
        }
    }

    fn profile(at_ms: u64, device: u64, cause: ProfileCause) -> FleetEvent {
        FleetEvent::ProfileUpdate {
            at: SimTime::from_millis(at_ms),
            device,
            slowdown_ppm: 1_000_000,
            revision: u64::from(cause == ProfileCause::CanaryApply),
            cause,
        }
    }

    #[test]
    fn rollout_specs_stay_dormant_without_a_window() {
        // An orphan revert in a non-rollout log (window 0) is ignored:
        // the rollout specs never arm.
        let log = tiny_log(vec![profile(5, 0, ProfileCause::Rollback)]);
        let verdict = monitor_fleet_log(&log);
        assert!(verdict.findings.is_empty(), "{:?}", verdict.findings);
    }

    #[test]
    fn synthetic_legal_rollout_is_clean() {
        let promote = |at_ms: u64, s: u32| FleetEvent::Promote {
            at: SimTime::from_millis(at_ms),
            stage: s,
        };
        let log = rollout_log(vec![
            stage(100, 1, 1, 1),
            profile(100, 0, ProfileCause::CanaryApply),
            promote(200, 1),
            stage(300, 2, 10, 1),
            profile(300, 0, ProfileCause::CanaryApply),
            promote(400, 2),
        ]);
        let verdict = monitor_fleet_log(&log);
        assert!(verdict.findings.is_empty(), "{:?}", verdict.findings);
    }

    #[test]
    fn synthetic_double_promote_trips_promotion_legality() {
        let promote = |at_ms: u64| FleetEvent::Promote {
            at: SimTime::from_millis(at_ms),
            stage: 1,
        };
        let log = rollout_log(vec![stage(100, 1, 1, 1), promote(200), promote(300)]);
        let verdict = monitor_fleet_log(&log);
        assert_eq!(verdict.findings.len(), 1, "{:?}", verdict.findings);
        assert_eq!(verdict.findings[0].rule_id, rules::PROMOTION_LEGALITY);
    }

    #[test]
    fn synthetic_orphan_revert_trips_rollback_completeness() {
        // Reverting canaries without a Rollback verdict on record.
        let log = rollout_log(vec![
            stage(100, 1, 1, 1),
            profile(100, 0, ProfileCause::CanaryApply),
            profile(200, 0, ProfileCause::Rollback),
        ]);
        let verdict = monitor_fleet_log(&log);
        assert_eq!(verdict.findings.len(), 1, "{:?}", verdict.findings);
        assert_eq!(verdict.findings[0].rule_id, rules::ROLLBACK_COMPLETENESS);
        // With the verdict in place the same revert is legal.
        let rollback = FleetEvent::Rollback {
            at: SimTime::from_millis(150),
            stage: 1,
        };
        let ok = monitor_fleet_log(&rollout_log(vec![
            stage(100, 1, 1, 1),
            profile(100, 0, ProfileCause::CanaryApply),
            rollback,
            profile(200, 0, ProfileCause::Rollback),
        ]));
        assert!(ok.findings.is_empty(), "{:?}", ok.findings);
    }

    #[test]
    fn synthetic_cohort_overflow_trips_blast_radius() {
        // tiny_log has devices = 2, so the 1% stage allows
        // ⌈2·1/100⌉ = 1 canary apply; a second one overflows.
        let log = rollout_log(vec![
            stage(100, 1, 1, 1),
            profile(100, 0, ProfileCause::CanaryApply),
            profile(100, 1, ProfileCause::CanaryApply),
        ]);
        let verdict = monitor_fleet_log(&log);
        assert_eq!(verdict.findings.len(), 1, "{:?}", verdict.findings);
        assert_eq!(verdict.findings[0].rule_id, rules::BLAST_RADIUS);
        assert!(verdict.findings[0].message.contains("1% stage"));
    }
}
