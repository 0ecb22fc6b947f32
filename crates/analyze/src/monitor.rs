//! Past-time-LTL certification of fleet event logs.
//!
//! [`monitor_fleet_log`] runs a one-pass incremental sweep over a
//! canonically ordered [`FleetEventLog`] and checks a library of named
//! temporal specs: the fleet's policy-monitoring gate. Each spec is a
//! past-time LTL formula ([`Ltl`]) over event atoms. A formula is
//! compiled once into a flat program, and one evaluator runs it, for
//! [`LtlMonitor`] and for the sweep alike: O(|formula|) work and O(1)
//! state per subformula per event.
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
//! Specs are *sliced*: per-device, per-request, or per-window monitor
//! instances are spun up lazily per slice key, so one sweep certifies
//! every device's breaker discipline and every request's deadline at
//! once. A rollout log is a sequence of windows (`windows` in the
//! header), each a replay of the same world on its own clock, so a
//! serving spec's slice key is `(window, id)`: every window starts
//! from fresh per-device, per-request and global state. The rollout
//! specs alone run once across all windows in order. An instance is
//! only its state (the previous node values, one clock per
//! `OnceWithin`, one tally per `CountLe`), kept in flat per-spec
//! arrays. A global spec's instance has a fixed slot; the sliced ones
//! are found through std's keyed hash map, because slice keys come
//! from the log, which may be untrusted. A serving spec drops the
//! instances of a window when it enters the next one, replacing its
//! map rather than clearing it (a clear costs the map's capacity), so
//! the sweep holds one window's state at a time and a log of many
//! small windows stays linear in its events.
//!
//! Each spec declares once which events it reads: a set of
//! [`EventKind`]s and, where its atoms test fields, the guard that an
//! event of those kinds counts only when one of its atoms holds. The
//! sweep dispatches every event by its kind to the specs that read
//! that kind and hands the atoms over as a bitmask.
//!
//! The verdict is that of the log in canonical content order within
//! each window, so it is identical under any per-device interleaved
//! merge of the same events (a proptest pins this). Every producer
//! writes its logs in that order, so a log that passes the linear
//! order check is swept in place; any other (a shuffled or hand-edited
//! input) is sorted in a copy first. A malformed `windows` header is
//! read leniently ([`FleetEventLog::window_ranges`]); the `analyze`
//! CLI rejects one before it gets here
//! ([`FleetEventLog::check_windows`]).
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
//! Rollout logs (a non-empty `windows` header) additionally arm three
//! staged-rollout specs, each one instance across all windows:
//!
//! - [`rules::PROMOTION_LEGALITY`] — deny: every `Promote` verdict
//!   immediately follows a cleanly completed stage — no verdict since
//!   that stage opened.
//! - [`rules::ROLLBACK_COMPLETENESS`] — deny: every baseline-revert
//!   `ProfileUpdate` follows a `Rollback` with no newer stage between
//!   them, and every `Rollback` lies in the window its `RolloutStage`
//!   opened.
//! - [`rules::BLAST_RADIUS`] — deny: one instance per stage
//!   percentage; inside stage `k`, canary-apply profile updates stay
//!   within the stage's cohort bound `⌈devices × pct / 100⌉`.

use hetero_fleet::{
    BreakerCause, BreakerState, EventKind, FleetEvent, FleetEventLog, Priority, ProfileCause,
    ROLLOUT_STAGES,
};
use std::borrow::Cow;
use std::collections::HashMap;

use crate::diag::Diagnostic;
use crate::rules;

/// K in the storm-amplification bound: retries inside a fault window
/// may not exceed `K × offered + slack`.
pub const STORM_AMPLIFICATION_FACTOR: u64 = 3;
/// Additive slack in the storm-amplification bound (absorbs retries
/// scheduled just before the window that land inside it).
pub const STORM_AMPLIFICATION_SLACK: u64 = 16;

/// Atoms one formula can read: they travel as the bits of a `u64`.
const MAX_ATOMS: usize = u64::BITS as usize;

/// The atom the sweep sets for a [`Slice::Log`] spec on the first
/// event it reads in a window; the specs' own atoms sit below it.
const WINDOW_OPEN: u32 = MAX_ATOMS as u32 - 1;

/// A past-time LTL formula over indexed boolean atoms.
#[derive(Debug, Clone)]
pub enum Ltl {
    /// The `i`-th atom of the owning spec at the current event
    /// (`i < 64`).
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
    Atom(u32),
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
    Implies(usize, usize),
    Yesterday(usize),
    Once(usize),
    Historically(usize),
    Since(usize, usize),
    OnceWithin {
        of: usize,
        within: u64,
        clock: usize,
    },
    CountLe {
        count: usize,
        reset: usize,
        mul: u64,
        bound: usize,
        add: u64,
        tally: usize,
    },
}

/// A formula compiled once: its nodes in evaluation order, and the
/// clocks and tallies each instance of it keeps.
#[derive(Debug, Clone)]
struct Program {
    ops: Vec<Op>,
    root: usize,
    clocks: usize,
    tallies: usize,
}

impl Program {
    fn compile(formula: &Ltl) -> Self {
        let mut program = Program {
            ops: Vec::new(),
            root: 0,
            clocks: 0,
            tallies: 0,
        };
        program.root = program.push(formula);
        program
    }

    /// Append `f`'s nodes, children first; returns `f`'s node.
    fn push(&mut self, f: &Ltl) -> usize {
        let op = match f {
            Ltl::Atom(i) => {
                assert!(
                    *i < MAX_ATOMS,
                    "atom {i}: a formula reads atoms 0..{MAX_ATOMS}"
                );
                Op::Atom(*i as u32)
            }
            Ltl::Not(c) => Op::Not(self.push(c)),
            Ltl::And(a, b) => Op::And(self.push(a), self.push(b)),
            Ltl::Or(a, b) => Op::Or(self.push(a), self.push(b)),
            Ltl::Implies(a, b) => Op::Implies(self.push(a), self.push(b)),
            Ltl::Yesterday(c) => Op::Yesterday(self.push(c)),
            Ltl::Once(c) => Op::Once(self.push(c)),
            Ltl::Historically(c) => Op::Historically(self.push(c)),
            Ltl::Since(a, b) => Op::Since(self.push(a), self.push(b)),
            Ltl::OnceWithin(c, d) => {
                let of = self.push(c);
                self.clocks += 1;
                Op::OnceWithin {
                    of,
                    within: *d,
                    clock: self.clocks - 1,
                }
            }
            Ltl::CountLe {
                count,
                reset,
                mul,
                bound,
                add,
            } => {
                let (count, reset, bound) = (self.push(count), self.push(reset), self.push(bound));
                self.tallies += 1;
                Op::CountLe {
                    count,
                    reset,
                    mul: *mul,
                    bound,
                    add: *add,
                    tally: self.tallies - 1,
                }
            }
        };
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// The evaluator: advance instance `k` of `states` one position,
    /// with atom `i` = bit `i` of `atoms`, at timestamp `t_ns`
    /// (non-decreasing across the instance's calls); returns whether
    /// the formula holds at this position.
    fn step(&self, states: &mut States, k: usize, atoms: u64, t_ns: u64) -> bool {
        let n = self.ops.len();
        let first = !std::mem::replace(&mut states.started[k], true);
        let prev = &mut states.prev[k * n..(k + 1) * n];
        let clocks = &mut states.clocks[k * self.clocks..(k + 1) * self.clocks];
        let tallies = &mut states.tallies[k * self.tallies..(k + 1) * self.tallies];
        let cur = &mut states.cur[..n];
        for (i, op) in self.ops.iter().enumerate() {
            cur[i] = match *op {
                Op::Atom(a) => atoms >> a & 1 == 1,
                Op::Not(c) => !cur[c],
                Op::And(a, b) => cur[a] && cur[b],
                Op::Or(a, b) => cur[a] || cur[b],
                Op::Implies(a, b) => !cur[a] || cur[b],
                Op::Yesterday(c) => !first && prev[c],
                Op::Once(c) => cur[c] || (!first && prev[i]),
                Op::Historically(c) => cur[c] && (first || prev[i]),
                Op::Since(p, q) => cur[q] || (cur[p] && !first && prev[i]),
                Op::OnceWithin { of, within, clock } => {
                    if cur[of] {
                        clocks[clock] = Some(t_ns);
                    }
                    clocks[clock].is_some_and(|held| t_ns - held <= within)
                }
                Op::CountLe {
                    count,
                    reset,
                    mul,
                    bound,
                    add,
                    tally,
                } => {
                    let tally = &mut tallies[tally];
                    if cur[reset] {
                        *tally = (0, 0);
                    }
                    if cur[count] {
                        tally.0 += 1;
                    }
                    if cur[bound] {
                        tally.1 += 1;
                    }
                    tally.0 <= mul.saturating_mul(tally.1).saturating_add(add)
                }
            };
        }
        prev.copy_from_slice(cur);
        cur[self.root]
    }
}

/// The state of every instance of one [`Program`], in flat arrays:
/// instance `k` owns `prev[k·n..(k+1)·n]` for a program of `n` nodes,
/// and likewise its run of `clocks` and `tallies`.
#[derive(Debug, Clone, Default)]
struct States {
    /// Whether the instance has seen a position.
    started: Vec<bool>,
    /// Node values at the instance's previous position.
    prev: Vec<bool>,
    /// Per `OnceWithin`: the timestamp its operand last held, if it
    /// ever did. Every `u64` is a valid timestamp, so "never" is
    /// `None` rather than a reserved clock value.
    clocks: Vec<Option<u64>>,
    /// Per `CountLe`: both counts since the last reset.
    tallies: Vec<(u64, u64)>,
    /// Node values at the position being evaluated (a work buffer).
    cur: Vec<bool>,
}

impl States {
    fn len(&self) -> usize {
        self.started.len()
    }

    /// Drop every instance, keeping the buffers.
    fn clear(&mut self) {
        self.started.clear();
        self.prev.clear();
        self.clocks.clear();
        self.tallies.clear();
    }

    /// Add an instance of `program` at the initial state; returns its
    /// index.
    fn add(&mut self, program: &Program) -> usize {
        let n = program.ops.len();
        self.started.push(false);
        self.prev.resize(self.prev.len() + n, false);
        self.clocks.resize(self.clocks.len() + program.clocks, None);
        self.tallies
            .resize(self.tallies.len() + program.tallies, (0, 0));
        if self.cur.len() < n {
            self.cur.resize(n, false);
        }
        self.len() - 1
    }
}

/// Incremental evaluator for one [`Ltl`] formula: O(|formula|) work
/// and O(1) state per subformula per event. It runs the same compiled
/// program step as [`monitor_fleet_log`].
#[derive(Debug, Clone)]
pub struct LtlMonitor {
    program: Program,
    state: States,
}

impl LtlMonitor {
    /// Compile `formula` into a fresh monitor at the initial state.
    ///
    /// # Panics
    ///
    /// If the formula reads an atom numbered 64 or more.
    pub fn new(formula: &Ltl) -> Self {
        let program = Program::compile(formula);
        let mut state = States::default();
        state.add(&program);
        Self { program, state }
    }

    /// Advance one position with the given atom values at timestamp
    /// `t_ns` (non-decreasing across calls); returns whether the
    /// formula holds at this position. An atom past the end of
    /// `atoms` reads false.
    pub fn step(&mut self, atoms: &[bool], t_ns: u64) -> bool {
        let bits = atoms
            .iter()
            .take(MAX_ATOMS)
            .enumerate()
            .fold(0, |bits, (i, &a)| bits | bit(i as u32, a));
        self.program.step(&mut self.state, 0, bits, t_ns)
    }
}

/// Atom `i` as a bit of an atom mask.
fn bit(i: u32, holds: bool) -> u64 {
    u64::from(holds) << i
}

/// How a spec's monitor instances are keyed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slice {
    /// One instance across every window, which also reads atom
    /// [`WINDOW_OPEN`].
    Log,
    /// One instance per window.
    Window,
    /// One instance per device id per window.
    PerDevice,
    /// One instance per request id per window.
    PerRequest,
}

/// An event's atom values for one spec, atom `i` in bit `i`.
type AtomFn = Box<dyn Fn(&FleetEvent) -> u64>;

/// One named temporal spec: the events it reads, their atoms, and a
/// must-hold formula over them.
struct Spec {
    rule: &'static str,
    /// Instance qualifier for parameterized specs (empty otherwise).
    instance: &'static str,
    slice: Slice,
    /// The event kinds the spec reads.
    kinds: &'static [EventKind],
    /// The field guard: an event of `kinds` is read only when one of
    /// its atoms holds. Set on the specs whose atoms test fields and
    /// that must skip the rest of a kind.
    guarded: bool,
    atoms: AtomFn,
    formula: Ltl,
    describe: String,
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
    use EventKind as K;
    let deadline = log.deadline_ns;
    let contract = log.census_interval_ns;
    let mut specs = Vec::new();

    // breaker-skip-probe: per device, over every breaker transition,
    //   enter_closed → probe_success ∧ Y enter_half_open.
    specs.push(Spec {
        rule: rules::BREAKER_SKIP_PROBE,
        instance: "",
        slice: Slice::PerDevice,
        kinds: &[K::Breaker],
        guarded: false,
        atoms: Box::new(|e| match *e {
            FleetEvent::Breaker { to, cause, .. } => {
                bit(0, to == BreakerState::Closed)
                    | bit(1, cause == BreakerCause::ProbeSuccess)
                    | bit(2, to == BreakerState::HalfOpen)
            }
            _ => 0,
        }),
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
        kinds: &[K::Offered, K::Dispatch],
        guarded: false,
        atoms: Box::new(|e| match e {
            FleetEvent::Dispatch { .. } => bit(0, true),
            FleetEvent::Offered { .. } => bit(1, true),
            _ => 0,
        }),
        formula: Ltl::atom(0).implies(Ltl::atom(1).once_within(deadline)),
        describe: format!(
            "dispatch more than the lost-penalty deadline ({deadline} ns) after the request's \
             arrival"
        ),
    });

    // shed-inversion: one instance per guarded class p, over census
    // refreshes, sheds of p and first admits of a lower class,
    //   ¬(admit_lower(p) ∧ ((¬census) S shed(p))).
    for guarded in [Priority::Interactive, Priority::Standard] {
        let lower_than = guarded.index();
        specs.push(Spec {
            rule: rules::SHED_INVERSION,
            instance: guarded.name(),
            slice: Slice::Window,
            kinds: &[K::CensusRefresh, K::Shed, K::Dispatch],
            guarded: true,
            atoms: Box::new(move |e| match *e {
                FleetEvent::Dispatch {
                    attempt, priority, ..
                } => bit(0, attempt == 0 && priority.index() > lower_than),
                FleetEvent::Shed { priority, .. } => bit(1, priority == guarded),
                FleetEvent::CensusRefresh { .. } => bit(2, true),
                _ => 0,
            }),
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
        slice: Slice::Window,
        kinds: &[K::Dispatch, K::CensusRefresh],
        guarded: false,
        atoms: Box::new(|e| match e {
            FleetEvent::Dispatch { .. } => bit(0, true),
            FleetEvent::CensusRefresh { .. } => bit(1, true),
            _ => 0,
        }),
        formula: Ltl::atom(0).implies(Ltl::atom(1).once_within(contract)),
        describe: format!(
            "routing decision without a census refresh within the {contract} ns probe contract"
        ),
    });

    // storm-amplification: global, over window boundaries, offers and
    // retry dispatches, evaluated at fault-window close,
    //   close → #retry ≤ K·#offered + C, counted since the open.
    specs.push(Spec {
        rule: rules::STORM_AMPLIFICATION,
        instance: "",
        slice: Slice::Window,
        kinds: &[K::FaultOpen, K::FaultClose, K::Offered, K::Dispatch],
        guarded: true,
        atoms: Box::new(|e| match *e {
            FleetEvent::FaultClose { .. } => bit(0, true),
            FleetEvent::FaultOpen { .. } => bit(1, true),
            FleetEvent::Dispatch { attempt, .. } => bit(2, attempt > 0),
            FleetEvent::Offered { .. } => bit(3, true),
            _ => 0,
        }),
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

    // brownout-unshed: global, over window boundaries, sheds, census
    // refreshes and first batch admits,
    //   ¬(batch_admit ∧ inside_window ∧ no_shed_since_open ∧ ¬fresh_census)
    // where inside_window = (¬close) S open, no_shed_since_open =
    // (¬shed) S open, fresh_census = OnceWithin(census, contract).
    specs.push(Spec {
        rule: rules::BROWNOUT_UNSHED,
        instance: "",
        slice: Slice::Window,
        kinds: &[
            K::FaultOpen,
            K::FaultClose,
            K::Shed,
            K::CensusRefresh,
            K::Dispatch,
        ],
        guarded: true,
        atoms: Box::new(|e| match *e {
            FleetEvent::Dispatch {
                attempt, priority, ..
            } => bit(0, attempt == 0 && priority == Priority::Batch),
            FleetEvent::FaultOpen { .. } => bit(1, true),
            FleetEvent::FaultClose { .. } => bit(2, true),
            FleetEvent::Shed { .. } => bit(3, true),
            FleetEvent::CensusRefresh { .. } => bit(4, true),
            _ => 0,
        }),
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

    // The staged-rollout specs only arm on rollout logs (the windowed
    // logs `RolloutController::run` emits); plain `fleet_sweep` arms
    // carry no windows and skip them.
    if !log.windows.is_empty() {
        // promotion-legality: global, over stage/verdict events only,
        //   promote → Y((¬promote ∧ ¬rollback) S stage):
        // the stage the verdict covers completed with no verdict since
        // it opened (no double promotion, no promotion after rollback
        // without a fresh stage).
        specs.push(Spec {
            rule: rules::PROMOTION_LEGALITY,
            instance: "",
            slice: Slice::Log,
            kinds: &[K::RolloutStage, K::Promote, K::Rollback],
            guarded: false,
            atoms: Box::new(|e| match e {
                FleetEvent::Promote { .. } => bit(0, true),
                FleetEvent::Rollback { .. } => bit(1, true),
                FleetEvent::RolloutStage { .. } => bit(2, true),
                _ => 0,
            }),
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

        // rollback-completeness: across windows, over stages, Rollback
        // verdicts and baseline reverts,
        //   (revert → (¬stage) S rollback) ∧
        //   (rollback → (¬window_open) S stage):
        // every baseline revert traces back to a Rollback verdict with
        // no newer stage in between, and the verdict itself lies in
        // the window its stage opened.
        specs.push(Spec {
            rule: rules::ROLLBACK_COMPLETENESS,
            instance: "",
            slice: Slice::Log,
            kinds: &[K::RolloutStage, K::Rollback, K::ProfileUpdate],
            guarded: true,
            atoms: Box::new(|e| match *e {
                FleetEvent::ProfileUpdate { cause, .. } => bit(0, cause == ProfileCause::Rollback),
                FleetEvent::RolloutStage { .. } => bit(1, true),
                FleetEvent::Rollback { .. } => bit(2, true),
                _ => 0,
            }),
            formula: Ltl::atom(0)
                .implies(Ltl::atom(1).not().since(Ltl::atom(2)))
                .and(
                    Ltl::atom(2).implies(Ltl::atom(WINDOW_OPEN as usize).not().since(Ltl::atom(1))),
                ),
            describe: "baseline revert without a governing Rollback verdict, or a Rollback \
                       outside the window its stage opened"
                .into(),
        });

        // blast-radius: one instance per stage percentage, over stages
        // and canary applies,
        //   ((¬stage_other) S stage_k) → #canary_apply ≤ ⌈devices·pct/100⌉,
        // counted since the last stage boundary.
        for pct in ROLLOUT_STAGES {
            let allowed = (log.devices * u64::from(pct)).div_ceil(100);
            specs.push(Spec {
                rule: rules::BLAST_RADIUS,
                instance: stage_instance(pct),
                slice: Slice::Log,
                kinds: &[K::RolloutStage, K::ProfileUpdate],
                guarded: true,
                atoms: Box::new(move |e| match *e {
                    FleetEvent::ProfileUpdate { cause, .. } => {
                        bit(0, cause == ProfileCause::CanaryApply)
                    }
                    FleetEvent::RolloutStage { pct: p, .. } => {
                        bit(1, true) | bit(2, p == pct) | bit(3, p != pct)
                    }
                    _ => 0,
                }),
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

/// One spec's outcome after a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpecOutcome {
    /// Monitor instances spun up.
    instances: u64,
    /// Violating positions across the instances.
    violations: u64,
    /// Timestamp and slice description of the first violating event.
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

/// The instance key of `e` under `slice` within its window, if the
/// event has one.
fn slice_key(e: &FleetEvent, slice: Slice) -> Option<u64> {
    match slice {
        Slice::Log | Slice::Window => Some(0),
        Slice::PerDevice => e.device(),
        Slice::PerRequest => e.req(),
    }
}

/// Where a violation happened: the slice's id, and the window when the
/// log has windows.
fn slice_desc(e: &FleetEvent, slice: Slice, window: Option<u64>) -> String {
    let id = match slice {
        Slice::Log | Slice::Window => None,
        Slice::PerDevice => Some(format!("device {}", e.device().unwrap_or(0))),
        Slice::PerRequest => Some(format!("request {}", e.req().unwrap_or(0))),
    };
    let parts: Vec<String> = id
        .into_iter()
        .chain(window.map(|w| format!("window {w}")))
        .collect();
    if parts.is_empty() {
        String::new()
    } else {
        format!(" ({})", parts.join(", "))
    }
}

/// One spec's compiled program, its instances and its tally.
struct Pool {
    program: Program,
    /// Instance per slice key of a sliced spec in the current window
    /// (a global spec's one instance is instance 0). Keyed SipHash,
    /// because the keys come from the log.
    by_key: HashMap<u64, usize>,
    states: States,
    /// Instances of the windows the spec has left.
    retired: u64,
    /// The window of the last event the spec read.
    window: Option<u64>,
    violations: u64,
    first: Option<(u64, String)>,
}

impl Pool {
    fn new(spec: &Spec) -> Self {
        Self {
            program: Program::compile(&spec.formula),
            by_key: HashMap::new(),
            states: States::default(),
            retired: 0,
            window: None,
            violations: 0,
            first: None,
        }
    }

    /// Move the spec into window `w` (windows come in order); returns
    /// whether `w` is new to it. A spec sliced per window drops the
    /// instances of the window it leaves.
    fn enter(&mut self, slice: Slice, w: u64) -> bool {
        let opens = self.window.replace(w) != Some(w);
        if opens && slice != Slice::Log {
            self.retired += self.states.len() as u64;
            self.states.clear();
            self.by_key = HashMap::new();
        }
        opens
    }

    /// The instance for `key`, spun up on first use.
    fn instance(&mut self, slice: Slice, key: u64) -> usize {
        let (states, program) = (&mut self.states, &self.program);
        match slice {
            Slice::Log | Slice::Window if states.len() > 0 => 0,
            Slice::Log | Slice::Window => states.add(program),
            Slice::PerDevice | Slice::PerRequest => *self
                .by_key
                .entry(key)
                .or_insert_with(|| states.add(program)),
        }
    }

    fn outcome(self) -> SpecOutcome {
        SpecOutcome {
            instances: self.retired + self.states.len() as u64,
            violations: self.violations,
            first: self.first,
        }
    }
}

/// Sweep `log` in canonical order against `specs`, window by window;
/// one outcome per spec.
fn sweep(log: &FleetEventLog, specs: &[Spec]) -> Vec<SpecOutcome> {
    let events: Cow<'_, [FleetEvent]> = if log.is_normalized() {
        Cow::Borrowed(&log.events)
    } else {
        let mut sorted = log.clone();
        sorted.normalize();
        Cow::Owned(sorted.events)
    };
    let windowed = !log.windows.is_empty();
    let mut pools: Vec<Pool> = specs.iter().map(Pool::new).collect();
    // The specs that read each kind, in spec order.
    let mut readers: [Vec<usize>; EventKind::COUNT] = Default::default();
    for (si, spec) in specs.iter().enumerate() {
        for &kind in spec.kinds {
            readers[kind as usize].push(si);
        }
    }

    for (w, range) in log.window_ranges().enumerate() {
        let w = w as u64;
        for ev in &events[range] {
            let t_ns = ev.at().as_nanos();
            for &si in &readers[ev.event_kind() as usize] {
                let spec = &specs[si];
                let mut atoms = (spec.atoms)(ev);
                if spec.guarded && atoms == 0 {
                    continue;
                }
                let Some(key) = slice_key(ev, spec.slice) else {
                    continue;
                };
                let pool = &mut pools[si];
                let opens = pool.enter(spec.slice, w);
                if spec.slice == Slice::Log {
                    atoms |= bit(WINDOW_OPEN, opens);
                }
                let k = pool.instance(spec.slice, key);
                if !pool.program.step(&mut pool.states, k, atoms, t_ns) {
                    pool.violations += 1;
                    if pool.first.is_none() {
                        let window = windowed.then_some(w);
                        pool.first = Some((t_ns, slice_desc(ev, spec.slice, window)));
                    }
                }
            }
        }
    }
    pools.into_iter().map(Pool::outcome).collect()
}

/// Sweep `log` once against the whole spec library and report one
/// diagnostic per violated spec instance. The verdict is that of the
/// log in canonical content order within each window, so it does not
/// depend on how per-device streams were interleaved. It never panics:
/// a malformed `windows` header is read leniently.
pub fn monitor_fleet_log(log: &FleetEventLog) -> MonitorVerdict {
    let specs = build_specs(log);
    let outcomes = sweep(log, &specs);
    let mut findings = Vec::new();
    for (spec, outcome) in specs.iter().zip(&outcomes) {
        let Some((first_t, first_where)) = &outcome.first else {
            continue;
        };
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
                spec.describe, outcome.violations, first_t, first_where
            ),
        ));
    }
    MonitorVerdict {
        findings,
        events: log.events.len() as u64,
        instances: outcomes.iter().map(|o| o.instances).sum(),
        violations: outcomes.iter().map(|o| o.violations).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_fleet::{
        FleetConfig, FleetSim, PolicyRevision, RolloutConfig, RolloutController, EVENT_LOG_VERSION,
    };
    use hetero_soc::SimTime;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

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
    fn once_within_holds_at_the_last_timestamp() {
        // u64::MAX is a valid timestamp, not a "never held" marker.
        let f = Ltl::atom(0).once_within(0);
        assert_eq!(
            eval_seq(&f, &[(&[false], u64::MAX - 1), (&[true], u64::MAX)]),
            vec![false, true]
        );
        let deadline = Ltl::atom(0).implies(Ltl::atom(1).once_within(10));
        assert_eq!(
            eval_seq(
                &deadline,
                &[(&[false, true], u64::MAX), (&[true, false], u64::MAX)]
            ),
            vec![true, true]
        );
    }

    #[test]
    fn dispatch_at_arrival_on_the_last_timestamp_is_in_time() {
        let at = SimTime::from_nanos(u64::MAX);
        let log = tiny_log(vec![
            FleetEvent::Offered {
                at,
                req: 0,
                priority: Priority::Interactive,
                prompt_tokens: 1,
                decode_tokens: 1,
            },
            FleetEvent::Dispatch {
                at,
                req: 0,
                device: 0,
                attempt: 0,
                priority: Priority::Interactive,
            },
        ]);
        let verdict = monitor_fleet_log(&log);
        assert!(
            verdict
                .findings
                .iter()
                .all(|d| d.rule_id != rules::RETRY_PAST_DEADLINE),
            "{:?}",
            verdict.findings
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
            windows: Vec::new(),
            events,
        }
    }

    /// A one-window rollout log.
    fn rollout_log(events: Vec<FleetEvent>) -> FleetEventLog {
        let mut log = tiny_log(events);
        log.windows = vec![0];
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
    fn guarded_specs_skip_events_none_of_their_atoms_hold_on() {
        // A first interactive dispatch is of a kind shed-inversion,
        // storm-amplification and brownout-unshed read, but none of
        // their atoms holds on it: only retry-past-deadline and
        // census-staleness spin up an instance.
        let log = tiny_log(vec![FleetEvent::Dispatch {
            at: SimTime::from_millis(1),
            req: 0,
            device: 0,
            attempt: 0,
            priority: Priority::Interactive,
        }]);
        assert_eq!(monitor_fleet_log(&log).instances, 2);
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
    fn a_rollback_outside_its_stage_window_trips_rollback_completeness() {
        let rollback = FleetEvent::Rollback {
            at: SimTime::from_millis(150),
            stage: 1,
        };
        let mut log = rollout_log(vec![
            stage(0, 1, 1, 1),
            profile(0, 0, ProfileCause::CanaryApply),
            rollback,
        ]);
        assert!(monitor_fleet_log(&log).findings.is_empty());
        // The same verdict one window later, on that window's clock.
        log.windows = vec![0, 2];
        let verdict = monitor_fleet_log(&log);
        assert_eq!(verdict.findings.len(), 1, "{:?}", verdict.findings);
        assert_eq!(verdict.findings[0].rule_id, rules::ROLLBACK_COMPLETENESS);
        assert!(verdict.findings[0].message.ends_with("(window 1)"));
    }

    #[test]
    fn each_window_starts_every_breaker_from_fresh_state() {
        let t = SimTime::from_millis;
        let breaker = |at, from, to, cause| FleetEvent::Breaker {
            at: t(at),
            device: 3,
            from,
            to,
            cause,
        };
        // Window 0 leaves device 3 half-open; window 1 re-closes it on
        // its own clock, with no half-open entry of its own.
        let mut log = tiny_log(vec![
            breaker(
                5,
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerCause::CooldownElapsed,
            ),
            breaker(
                1,
                BreakerState::HalfOpen,
                BreakerState::Closed,
                BreakerCause::ProbeSuccess,
            ),
        ]);
        log.windows = vec![0, 1];
        let verdict = monitor_fleet_log(&log);
        assert_eq!(verdict.instances, 2);
        assert_eq!(verdict.findings.len(), 1, "{:?}", verdict.findings);
        assert_eq!(verdict.findings[0].rule_id, rules::BREAKER_SKIP_PROBE);
        assert!(verdict.findings[0]
            .message
            .ends_with("first at t=1000000 ns (device 3, window 1)"));
    }

    #[test]
    fn malformed_windows_sweep_without_panicking() {
        let lost = |req| FleetEvent::Lost {
            at: SimTime::from_millis(1),
            req,
        };
        for windows in [
            vec![7],
            vec![0, 0, 0],
            vec![0, 9, 1],
            vec![0, u64::MAX],
            vec![u64::MAX, 1, 2],
        ] {
            let mut log = tiny_log(vec![lost(0), lost(1), lost(2)]);
            log.windows = windows;
            assert_eq!(monitor_fleet_log(&log).events, 3);
        }
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

    #[test]
    #[should_panic(expected = "atom 64")]
    fn atoms_past_the_mask_are_refused_at_compile_time() {
        LtlMonitor::new(&Ltl::atom(64));
    }

    /// Seeded logs to corrupt: both arms of a 32-device world and the
    /// regressing candidate's two-window rollout log.
    fn seed_logs() -> &'static [FleetEventLog] {
        static LOGS: OnceLock<Vec<FleetEventLog>> = OnceLock::new();
        LOGS.get_or_init(|| {
            let sim = FleetSim::new(FleetConfig::standard(42, 32, 240));
            let (_, pair) = sim.compare_events();
            let ctl = RolloutController::new(&sim, RolloutConfig::standard());
            let bad = PolicyRevision::uniform(7, "npu-inversion", sim.profiles().len(), 2_500_000);
            vec![pair.robust, pair.naive, ctl.run(&bad).1]
        })
    }

    /// One seeded corruption of `log`: `op` picks what, `a` and `b`
    /// pick where and how.
    fn mutate(log: &mut FleetEventLog, op: u8, a: u64, b: u64) {
        const PRIORITIES: [Priority; 3] =
            [Priority::Interactive, Priority::Standard, Priority::Batch];
        const STATES: [BreakerState; 3] = [
            BreakerState::Closed,
            BreakerState::Open,
            BreakerState::HalfOpen,
        ];
        const CAUSES: [BreakerCause; 4] = [
            BreakerCause::FailureThreshold,
            BreakerCause::CooldownElapsed,
            BreakerCause::ProbeSuccess,
            BreakerCause::ProbeFailure,
        ];
        const PROFILE_CAUSES: [ProfileCause; 4] = [
            ProfileCause::Calibration,
            ProfileCause::Drift,
            ProfileCause::CanaryApply,
            ProfileCause::Rollback,
        ];
        if op == 6 {
            // Move, drop or add a window boundary, in range or not.
            let w = &mut log.windows;
            match (a % 3, w.is_empty()) {
                (0, false) => {
                    let i = (b % w.len() as u64) as usize;
                    w[i] = a >> 2;
                }
                (1, false) => {
                    w.remove((b % w.len() as u64) as usize);
                }
                _ => w.push(b % (log.events.len() as u64 + 2)),
            }
            return;
        }
        let events = &mut log.events;
        if events.is_empty() {
            return;
        }
        let n = events.len() as u64;
        let (i, j) = ((a % n) as usize, (b % n) as usize);
        let pick = |len: usize| (b >> 8) as usize % len;
        match op {
            0 => {
                events.remove(i);
            }
            1 => events.insert(i, events[i]),
            // Move the earlier of two events to the later one's time.
            2 => {
                let (lo, hi) = if events[i].at() <= events[j].at() {
                    (i, j)
                } else {
                    (j, i)
                };
                events[lo] = events[lo].shifted(events[hi].at() - events[lo].at());
            }
            3 => match &mut events[i] {
                FleetEvent::Dispatch {
                    attempt, priority, ..
                } => {
                    *attempt = if *attempt == 0 { 1 + (b % 3) as u32 } else { 0 };
                    *priority = PRIORITIES[pick(3)];
                }
                FleetEvent::Shed { priority, .. } | FleetEvent::Offered { priority, .. } => {
                    *priority = PRIORITIES[pick(3)];
                }
                FleetEvent::Breaker { to, cause, .. } => {
                    *to = STATES[pick(3)];
                    *cause = CAUSES[(b % 4) as usize];
                }
                FleetEvent::ProfileUpdate { cause, .. } => *cause = PROFILE_CAUSES[pick(4)],
                FleetEvent::RolloutStage { pct, .. } => *pct = ROLLOUT_STAGES[pick(4)],
                _ => {}
            },
            // Merge slices: a few request and device ids only.
            4 => match &mut events[i] {
                FleetEvent::Offered { req, .. } => *req = b % 4,
                FleetEvent::Dispatch { req, device, .. } => {
                    *req = b % 4;
                    *device = b % 3;
                }
                FleetEvent::Breaker { device, .. } => *device = b % 3,
                _ => {}
            },
            _ => events.swap(i, j),
        }
    }

    /// The sweep's bookkeeping by brute force: each window sorted by
    /// the sort key on its own, then per spec the events it reads,
    /// grouped by slice key, each group through a fresh public
    /// [`LtlMonitor`]; a [`Slice::Log`] group sets [`WINDOW_OPEN`] on
    /// its first event of each window.
    fn oracle(log: &FleetEventLog, specs: &[Spec]) -> Vec<SpecOutcome> {
        let mut events: Vec<(u64, FleetEvent)> = Vec::new();
        for (w, range) in log.window_ranges().enumerate() {
            let mut window = log.events[range].to_vec();
            window.sort_by_key(FleetEvent::sort_key);
            events.extend(window.into_iter().map(|ev| (w as u64, ev)));
        }
        let windowed = !log.windows.is_empty();
        specs
            .iter()
            .map(|spec| {
                // Positions in `events`, per slice key.
                let mut groups: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
                for (pos, (w, ev)) in events.iter().enumerate() {
                    let atoms = (spec.atoms)(ev);
                    if !spec.kinds.contains(&ev.event_kind()) || (spec.guarded && atoms == 0) {
                        continue;
                    }
                    if let Some(key) = slice_key(ev, spec.slice) {
                        let w = if spec.slice == Slice::Log { 0 } else { *w };
                        groups.entry((w, key)).or_default().push(pos);
                    }
                }
                let mut violations = 0;
                let mut first: Option<(usize, u64, String)> = None;
                for group in groups.values() {
                    let mut monitor = LtlMonitor::new(&spec.formula);
                    let mut last_window = None;
                    for &pos in group {
                        let (w, ev) = &events[pos];
                        let w = *w;
                        let mut atoms: Vec<bool> =
                            (0..64).map(|i| (spec.atoms)(ev) >> i & 1 == 1).collect();
                        if spec.slice == Slice::Log {
                            atoms[WINDOW_OPEN as usize] = last_window != Some(w);
                        }
                        last_window = Some(w);
                        let t = ev.at().as_nanos();
                        if !monitor.step(&atoms, t) {
                            violations += 1;
                            if first.as_ref().is_none_or(|f| pos < f.0) {
                                let window = windowed.then_some(w);
                                first = Some((pos, t, slice_desc(ev, spec.slice, window)));
                            }
                        }
                    }
                }
                SpecOutcome {
                    instances: groups.len() as u64,
                    violations,
                    first: first.map(|(_, t, desc)| (t, desc)),
                }
            })
            .collect()
    }

    proptest! {
        /// Per spec, the sweep counts the same instances and
        /// violations and reports the same first violation as the
        /// brute-force oracle, on seeded corruptions of real logs and
        /// of their `windows` headers, shuffled or left in order.
        #[test]
        fn sweep_matches_the_per_slice_oracle(
            which in 0usize..3,
            ops in proptest::collection::vec((0u8..7, 0u64..u64::MAX, 0u64..u64::MAX), 0..12),
            shuffle in 0u64..u64::MAX,
        ) {
            let mut log = seed_logs()[which].clone();
            for &(op, a, b) in &ops {
                mutate(&mut log, op, a, b);
            }
            // Odd draws shuffle (xorshift Fisher–Yates); even ones keep
            // the order, so the in-place path runs too.
            if shuffle % 2 == 1 {
                let mut state = shuffle;
                for i in (1..log.events.len()).rev() {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    log.events.swap(i, (state % (i as u64 + 1)) as usize);
                }
            }
            let specs = build_specs(&log);
            let expected = oracle(&log, &specs);
            prop_assert_eq!(sweep(&log, &specs), expected);
            let verdict = monitor_fleet_log(&log);
            prop_assert_eq!(verdict.events, log.events.len() as u64);
            prop_assert_eq!(verdict.instances, expected.iter().map(|o| o.instances).sum::<u64>());
            prop_assert_eq!(verdict.violations, expected.iter().map(|o| o.violations).sum::<u64>());
            prop_assert_eq!(
                verdict.findings.len(),
                expected.iter().filter(|o| o.first.is_some()).count()
            );
        }
    }
}
