//! The named-rule registry.
//!
//! Every diagnostic the analyzer emits carries one of these stable
//! identifiers; severities are fixed per rule so a CI gate can fail on
//! deny-level findings without parsing messages.

use crate::diag::Severity;

/// Rule: a plan must neither drop nor duplicate rows/columns of the
/// Matmul it partitions.
pub const SHAPE_CONSERVATION: &str = "shape-conservation";
/// Rule: every NPU sequence size must be a multiple of the systolic
/// tile edge.
pub const TILE_ALIGNMENT: &str = "tile-alignment";
/// Rule: every NPU sequence size must have a compiled graph.
pub const GRAPH_MEMBERSHIP: &str = "graph-membership";
/// Rule: degenerate parallel forms should be in canonical serial form.
pub const PLAN_NORMALIZATION: &str = "plan-normalization";
/// Rule: prefer fast synchronization when the platform supports it.
pub const SYNC_MECHANISM: &str = "sync-mechanism";
/// Rule: the submission happens-before graph must be sane.
pub const SYNC_SCHEDULE: &str = "sync-schedule";
/// Rule: live pooled tensor regions must not overlap.
pub const MEMPOOL_ALIASING: &str = "mempool-aliasing";
/// Rule: plans adopted by the runtime controller while degrading must
/// satisfy every plan/sync-schedule invariant, including an acyclic
/// submission graph after flaky rendezvous are rescheduled for retry.
pub const FALLBACK_INTEGRITY: &str = "fallback-integrity";
/// Rule: conflicting accesses to a pooled buffer from different actors
/// must be ordered by a signal→wait or FIFO-queue happens-before edge.
pub const DATA_RACE: &str = "data-race";
/// Rule: a pooled slot must not be re-acquired while an earlier
/// lifetime's accesses are unordered with the new owner.
pub const UNSYNCHRONIZED_REUSE: &str = "unsynchronized-reuse";
/// Rule: every wait must observe a flag some actor actually signals.
pub const LOST_SIGNAL: &str = "lost-signal";
/// Rule: every legal interleaving of a sync schedule must produce a
/// byte-identical session report.
pub const INTERLEAVING_DETERMINISM: &str = "interleaving-determinism";
/// Rule: no submission's output may reach a sink without passing
/// through an ABFT verify node first.
pub const UNVERIFIED_SINK: &str = "unverified-sink";
/// Rule: an exported trace is a Chrome trace-event document with
/// integer `pid`/`tid`/`ts` fields on every duration/flow event.
pub const TRACE_FORMAT: &str = "trace-format";
/// Rule: per track, submit/complete events observe stack discipline
/// with non-decreasing timestamps (spans nest, never partially
/// overlap).
pub const SPAN_NESTING: &str = "span-nesting";
/// Rule: every submit (`B`) has a matching complete (`E`) on its
/// track, and vice versa.
pub const SUBMIT_COMPLETE: &str = "submit-complete";
/// Rule: every flow id pairs exactly one start with one finish, and
/// the finish never precedes the start.
pub const FLOW_MATCH: &str = "flow-match";
/// Rule: the static peak-footprint bound of a plan's region table plus
/// KV growth must fit inside the declared memory-pool capacity.
pub const MEM_OVERCOMMIT: &str = "mem-overcommit";
/// Rule: no pooled region may stay live past its last structural
/// reader in the submission DAG.
pub const BUFFER_LEAK: &str = "buffer-leak";
/// Rule: the static *lower* latency bound of a schedule must not
/// already exceed the SLO deadline (such a plan is provably doomed).
pub const DEADLINE_INFEASIBLE: &str = "deadline-infeasible";
/// Rule: the static *upper* latency bound of a schedule exceeds the
/// SLO deadline even though the lower bound meets it.
pub const DEADLINE_AT_RISK: &str = "deadline-at-risk";
/// Rule: DES-simulated peak bytes and observed TTFT/TPOT must fall
/// inside the abstract interpreter's static bounds.
pub const BOUND_UNSOUND: &str = "bound-unsound";
/// Rule: a retry policy must have a real exponential backoff (a
/// schedule, factor ≥ 2, non-zero base, jitter) so correlated failures
/// cannot amplify into a fleet-wide retry storm.
pub const RETRY_STORM: &str = "retry-storm";
/// Rule: no priority class may be starved by load shedding while the
/// fleet still has idle capacity.
pub const SHED_STARVATION: &str = "shed-starvation";
/// Rule (temporal): a breaker may only close after a successful
/// half-open probe — the event log must show `HalfOpen` immediately
/// before every `Closed` entry, per device.
pub const BREAKER_SKIP_PROBE: &str = "breaker-skip-probe";
/// Rule (temporal): no dispatch may happen after the request's 4×-SLO
/// lost-penalty deadline.
pub const RETRY_PAST_DEADLINE: &str = "retry-past-deadline";
/// Rule (temporal): no lower-priority request may be admitted while a
/// higher-priority one was shed within the same census epoch.
pub const SHED_INVERSION: &str = "shed-inversion";
/// Rule (temporal): every routing decision must act on a census no
/// older than the probe contract.
pub const CENSUS_STALENESS: &str = "census-staleness";
/// Rule (temporal): inside a fault window, retry dispatches must stay
/// within K× the offered load plus slack.
pub const STORM_AMPLIFICATION: &str = "storm-amplification";
/// Rule (temporal): inside a fault window, batch-class admissions
/// require either a fresh census or prior load shedding.
pub const BROWNOUT_UNSHED: &str = "brownout-unshed";
/// Rule (temporal): every baseline-revert `ProfileUpdate` in a rollout
/// log must follow a `Rollback` verdict with no newer stage in
/// between, and every `Rollback` must lie in the window its stage
/// opened.
pub const ROLLBACK_COMPLETENESS: &str = "rollback-completeness";
/// Rule (temporal): a `Promote` verdict is only legal immediately
/// after a cleanly completed stage — no double-promotion and no
/// promotion after a rollback without a fresh stage.
pub const PROMOTION_LEGALITY: &str = "promotion-legality";
/// Rule (temporal): inside stage `k` of a rollout, canary-apply
/// profile updates never exceed the stage's declared cohort size
/// (`⌈devices × pct / 100⌉`).
pub const BLAST_RADIUS: &str = "blast-radius";
/// Rule (evidence): a rollout run must terminate — the report outcome
/// is `promoted` or `rolled-back` and is consistent with its per-stage
/// verdicts.
pub const ROLLOUT_STUCK: &str = "rollout-stuck";
/// Rule (evidence): a stage whose re-derived canary-vs-control deltas
/// regress past the echoed thresholds must not have been promoted.
pub const ROLLBACK_MISSED: &str = "rollback-missed";
/// Rule (evidence): every decided stage must have served the canary
/// cohort at least the configured minimum sample count.
pub const CANARY_STARVED: &str = "canary-starved";
/// Rule (model checker): every non-terminal state of the
/// breaker×retry×admission product must reach a request resolution.
pub const POLICY_LIVELOCK: &str = "policy-livelock";
/// Rule (model checker): no cycle of the product automaton may
/// contain a retry edge, a failed or unroutable attempt (retry chains
/// are bounded).
pub const RETRY_UNBOUNDED: &str = "retry-unbounded";
/// Rule (model checker): from every reachable Open-breaker state the
/// breaker can eventually leave Open.
pub const BREAKER_TRAP: &str = "breaker-trap";

/// Metadata for one registered rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable identifier (used in diagnostics and CLI filters).
    pub id: &'static str,
    /// Severity of every finding this rule emits.
    pub severity: Severity,
    /// One-line description.
    pub summary: &'static str,
    /// Paper anchor the invariant traces to.
    pub paper: &'static str,
}

/// All registered rules.
pub const RULES: [RuleInfo; 39] = [
    RuleInfo {
        id: SHAPE_CONSERVATION,
        severity: Severity::Deny,
        summary: "partition covers the Matmul exactly: Σnpu_chunks + gpu_rows = m, \
                  gpu_cols < n, padded_m ≥ m",
        paper: "§4.1",
    },
    RuleInfo {
        id: TILE_ALIGNMENT,
        severity: Severity::Deny,
        summary: "NPU sequence sizes are multiples of the 32×32 systolic tile",
        paper: "§3.2, §4.3",
    },
    RuleInfo {
        id: GRAPH_MEMBERSHIP,
        severity: Severity::Deny,
        summary: "every NPU sequence size has a pre-compiled static graph",
        paper: "§4.1.1, §5.2.2",
    },
    RuleInfo {
        id: PLAN_NORMALIZATION,
        severity: Severity::Warn,
        summary: "degenerate parallel plans (empty GPU share) are written in \
                  canonical serial form; GPU column cuts stay on the solver's \
                  row alignment",
        paper: "§4.1.1, §4.3",
    },
    RuleInfo {
        id: SYNC_MECHANISM,
        severity: Severity::Warn,
        summary: "driver-level synchronization used where fast sync is available",
        paper: "§4.2",
    },
    RuleInfo {
        id: SYNC_SCHEDULE,
        severity: Severity::Deny,
        summary: "the GPU/NPU submission graph is acyclic and every rendezvous \
                  joins both backends",
        paper: "§4.2",
    },
    RuleInfo {
        id: MEMPOOL_ALIASING,
        severity: Severity::Deny,
        summary: "live tensor regions in the shared memory pool never overlap",
        paper: "§4.2",
    },
    RuleInfo {
        id: FALLBACK_INTEGRITY,
        severity: Severity::Deny,
        summary: "degradation-time fallback plans keep every invariant; the \
                  submission graph stays acyclic when flaky rendezvous are \
                  rescheduled for retry",
        paper: "§4.2",
    },
    RuleInfo {
        id: DATA_RACE,
        severity: Severity::Deny,
        summary: "conflicting pooled-buffer accesses from different actors are \
                  ordered by a signal→wait or FIFO-queue happens-before edge",
        paper: "§4.2",
    },
    RuleInfo {
        id: UNSYNCHRONIZED_REUSE,
        severity: Severity::Deny,
        summary: "a recycled pool slot is only re-acquired after every access \
                  of its previous lifetime happens-before the new owner",
        paper: "§4.2",
    },
    RuleInfo {
        id: LOST_SIGNAL,
        severity: Severity::Deny,
        summary: "every rendezvous wait observes a flag some actor signals \
                  (no wait-on-nothing, including after rendezvous retry)",
        paper: "§4.2",
    },
    RuleInfo {
        id: INTERLEAVING_DETERMINISM,
        severity: Severity::Deny,
        summary: "all legal interleavings of a sync schedule yield a \
                  byte-identical session report",
        paper: "§4.2",
    },
    RuleInfo {
        id: UNVERIFIED_SINK,
        severity: Severity::Deny,
        summary: "with integrity verification on, every submission's output \
                  passes an ABFT verify node before any sink consumes it",
        paper: "§4.2",
    },
    RuleInfo {
        id: TRACE_FORMAT,
        severity: Severity::Deny,
        summary: "an exported trace is a Chrome trace-event document whose \
                  duration/flow events all carry integer pid/tid/ts",
        paper: "§5 (methodology)",
    },
    RuleInfo {
        id: SPAN_NESTING,
        severity: Severity::Deny,
        summary: "per backend track, submit/complete events keep stack \
                  discipline with non-decreasing timestamps",
        paper: "§5 (methodology)",
    },
    RuleInfo {
        id: SUBMIT_COMPLETE,
        severity: Severity::Deny,
        summary: "every kernel submit has a matching complete on its track \
                  (nothing left in flight at end of trace)",
        paper: "§5 (methodology)",
    },
    RuleInfo {
        id: FLOW_MATCH,
        severity: Severity::Deny,
        summary: "every cross-backend flow arrow pairs one start with one \
                  finish, finish never before start",
        paper: "§4.2",
    },
    RuleInfo {
        id: MEM_OVERCOMMIT,
        severity: Severity::Deny,
        summary: "the static peak-footprint bound (region table + KV growth) \
                  fits inside the declared memory-pool capacity",
        paper: "§4.2",
    },
    RuleInfo {
        id: BUFFER_LEAK,
        severity: Severity::Deny,
        summary: "no pooled region stays live past its last structural reader \
                  in the submission DAG",
        paper: "§4.2",
    },
    RuleInfo {
        id: DEADLINE_INFEASIBLE,
        severity: Severity::Deny,
        summary: "the static lower latency bound already exceeds the SLO \
                  deadline: the plan is provably doomed, do not simulate it",
        paper: "§4.3",
    },
    RuleInfo {
        id: DEADLINE_AT_RISK,
        severity: Severity::Warn,
        summary: "the static upper latency bound exceeds the SLO deadline \
                  while the lower bound meets it",
        paper: "§4.3",
    },
    RuleInfo {
        id: BOUND_UNSOUND,
        severity: Severity::Deny,
        summary: "DES-simulated peak bytes and observed TTFT/TPOT fall inside \
                  the abstract interpreter's static bounds",
        paper: "§4.2, §4.3",
    },
    RuleInfo {
        id: RETRY_STORM,
        severity: Severity::Deny,
        summary: "retry policies are storm-safe: an exponential schedule \
                  with non-zero base delay, backoff factor ≥ 2 and jitter, \
                  and a cap no smaller than the base",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: SHED_STARVATION,
        severity: Severity::Warn,
        summary: "load shedding never starves a priority class while the \
                  fleet has idle capacity",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: BREAKER_SKIP_PROBE,
        severity: Severity::Deny,
        summary: "per device, every logged breaker Closed entry follows a \
                  successful half-open probe (no Open → Closed shortcut in \
                  the event log)",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: RETRY_PAST_DEADLINE,
        severity: Severity::Deny,
        summary: "no dispatch of a request happens after its 4×-SLO \
                  lost-penalty deadline",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: SHED_INVERSION,
        severity: Severity::Deny,
        summary: "no lower-priority request is admitted while a \
                  higher-priority one was shed in the same census epoch",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: CENSUS_STALENESS,
        severity: Severity::Warn,
        summary: "every routing decision acts on a health census no older \
                  than the probe contract",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: STORM_AMPLIFICATION,
        severity: Severity::Deny,
        summary: "inside any fault window, retry dispatches stay within K× \
                  the offered load plus a fixed slack",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: BROWNOUT_UNSHED,
        severity: Severity::Warn,
        summary: "batch admissions inside a fault window require a \
                  contract-fresh census or prior shedding since the window \
                  opened",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: ROLLBACK_COMPLETENESS,
        severity: Severity::Deny,
        summary: "every baseline-revert profile update follows a Rollback \
                  verdict with no newer stage between them, and every \
                  Rollback lies in the window its stage opened",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: PROMOTION_LEGALITY,
        severity: Severity::Deny,
        summary: "a Promote verdict only follows a cleanly completed stage: \
                  no double promotion, no promotion after a rollback \
                  without a fresh stage",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: BLAST_RADIUS,
        severity: Severity::Deny,
        summary: "inside stage k, canary-apply profile updates never exceed \
                  the stage's declared cohort size ⌈devices × pct / 100⌉",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: ROLLOUT_STUCK,
        severity: Severity::Deny,
        summary: "a rollout terminates in promoted or rolled-back, \
                  consistent with its per-stage verdicts",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: ROLLBACK_MISSED,
        severity: Severity::Deny,
        summary: "a stage whose re-derived canary-vs-control deltas regress \
                  past the echoed thresholds is never promoted",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: CANARY_STARVED,
        severity: Severity::Warn,
        summary: "every decided rollout stage served the canary cohort at \
                  least the configured minimum sample count",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: POLICY_LIVELOCK,
        severity: Severity::Deny,
        summary: "every reachable breaker×retry×admission product state can \
                  still reach a request resolution (served/shed/lost)",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: RETRY_UNBOUNDED,
        severity: Severity::Deny,
        summary: "no cycle of the policy product automaton contains a \
                  retry edge (failed or unroutable attempt): every retry \
                  chain is finite",
        paper: "§6 (fleet serving)",
    },
    RuleInfo {
        id: BREAKER_TRAP,
        severity: Severity::Deny,
        summary: "from every reachable Open-breaker product state the \
                  breaker can eventually leave Open",
        paper: "§6 (fleet serving)",
    },
];

/// Look up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        for (i, a) in RULES.iter().enumerate() {
            for b in &RULES[i + 1..] {
                assert_ne!(a.id, b.id);
            }
        }
    }

    #[test]
    fn every_exported_const_is_registered() {
        for id in [
            SHAPE_CONSERVATION,
            TILE_ALIGNMENT,
            GRAPH_MEMBERSHIP,
            PLAN_NORMALIZATION,
            SYNC_MECHANISM,
            SYNC_SCHEDULE,
            MEMPOOL_ALIASING,
            FALLBACK_INTEGRITY,
            DATA_RACE,
            UNSYNCHRONIZED_REUSE,
            LOST_SIGNAL,
            INTERLEAVING_DETERMINISM,
            UNVERIFIED_SINK,
            TRACE_FORMAT,
            SPAN_NESTING,
            SUBMIT_COMPLETE,
            FLOW_MATCH,
            MEM_OVERCOMMIT,
            BUFFER_LEAK,
            DEADLINE_INFEASIBLE,
            DEADLINE_AT_RISK,
            BOUND_UNSOUND,
            RETRY_STORM,
            SHED_STARVATION,
            BREAKER_SKIP_PROBE,
            RETRY_PAST_DEADLINE,
            SHED_INVERSION,
            CENSUS_STALENESS,
            STORM_AMPLIFICATION,
            BROWNOUT_UNSHED,
            ROLLBACK_COMPLETENESS,
            PROMOTION_LEGALITY,
            BLAST_RADIUS,
            ROLLOUT_STUCK,
            ROLLBACK_MISSED,
            CANARY_STARVED,
            POLICY_LIVELOCK,
            RETRY_UNBOUNDED,
            BREAKER_TRAP,
        ] {
            assert!(rule(id).is_some(), "{id} missing from RULES");
        }
        assert_eq!(RULES.len(), 39, "registry and const list out of sync");
    }

    #[test]
    fn bound_rule_severities() {
        assert_eq!(rule(MEM_OVERCOMMIT).unwrap().severity, Severity::Deny);
        assert_eq!(rule(BUFFER_LEAK).unwrap().severity, Severity::Deny);
        assert_eq!(rule(DEADLINE_INFEASIBLE).unwrap().severity, Severity::Deny);
        assert_eq!(rule(DEADLINE_AT_RISK).unwrap().severity, Severity::Warn);
        assert_eq!(rule(BOUND_UNSOUND).unwrap().severity, Severity::Deny);
    }

    #[test]
    fn fleet_rule_severities() {
        assert_eq!(rule(RETRY_STORM).unwrap().severity, Severity::Deny);
        assert_eq!(rule(SHED_STARVATION).unwrap().severity, Severity::Warn);
    }

    #[test]
    fn monitor_rule_severities() {
        for id in [
            BREAKER_SKIP_PROBE,
            RETRY_PAST_DEADLINE,
            SHED_INVERSION,
            STORM_AMPLIFICATION,
            ROLLBACK_COMPLETENESS,
            PROMOTION_LEGALITY,
            BLAST_RADIUS,
            ROLLOUT_STUCK,
            ROLLBACK_MISSED,
            POLICY_LIVELOCK,
            RETRY_UNBOUNDED,
            BREAKER_TRAP,
        ] {
            assert_eq!(rule(id).unwrap().severity, Severity::Deny, "{id}");
        }
        for id in [CENSUS_STALENESS, BROWNOUT_UNSHED, CANARY_STARVED] {
            assert_eq!(rule(id).unwrap().severity, Severity::Warn, "{id}");
        }
    }

    #[test]
    fn lookup_finds_registered_rules() {
        assert_eq!(rule(SHAPE_CONSERVATION).unwrap().severity, Severity::Deny);
        assert_eq!(rule(SYNC_MECHANISM).unwrap().severity, Severity::Warn);
        assert!(rule("no-such-rule").is_none());
    }
}
