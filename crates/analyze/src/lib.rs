#![warn(missing_docs)]

//! Static invariant checker for HeteroLLM partition plans, graph sets,
//! and sync schedules.
//!
//! The simulator can tell you a plan is *slow*; this crate tells you a
//! plan is *wrong* — without running anything. It checks solver output
//! and hand-built artifacts against a registry of named invariants
//! drawn from the paper's hardware constraints:
//!
//! | rule | severity | invariant |
//! |------|----------|-----------|
//! | `shape-conservation` | deny | the split covers the Matmul exactly (§4.1) |
//! | `tile-alignment`     | deny | NPU sizes fit the 32×32 systolic array (§3.2) |
//! | `graph-membership`   | deny | every NPU size has a compiled graph (§4.1.1) |
//! | `plan-normalization` | warn | degenerate splits in canonical form (§4.3) |
//! | `sync-mechanism`     | warn | fast sync used where available (§4.2) |
//! | `sync-schedule`      | deny | submission graph acyclic, rendezvous two-sided (§4.2) |
//! | `mempool-aliasing`   | deny | live pooled tensors never overlap (§4.2) |
//! | `fallback-integrity` | deny | degradation-time plans keep every invariant, acyclic under retry rescheduling (§4.2) |
//! | `data-race`          | deny | conflicting buffer accesses ordered by signal→wait or queue edges (§4.2) |
//! | `unsynchronized-reuse` | deny | pool slots recycle only across ordered lifetime boundaries (§4.2) |
//! | `lost-signal`        | deny | every wait observes a flag some actor signals (§4.2) |
//! | `interleaving-determinism` | deny | all legal interleavings yield one byte-identical report (§4.2) |
//! | `unverified-sink`    | deny | with verification on, no submission reaches a sink unchecked (§4.2) |
//! | `trace-format`       | deny | exported traces are Chrome trace-event JSON with integer pid/tid/ts (§5) |
//! | `span-nesting`       | deny | per track, submit/complete events keep stack discipline (§5) |
//! | `submit-complete`    | deny | every submit has a matching complete on its track (§5) |
//! | `flow-match`         | deny | every flow id pairs one start with one finish, in order (§4.2) |
//! | `mem-overcommit`     | deny | static peak footprint (regions + KV growth) fits the pool (§4.2) |
//! | `buffer-leak`        | deny | no region outlives its last structural reader (§4.2) |
//! | `deadline-infeasible` | deny | static *lower* latency bound already busts the SLO (§4.3) |
//! | `deadline-at-risk`   | warn | static *upper* latency bound busts the SLO, lower meets it (§4.3) |
//! | `bound-unsound`      | deny | DES peak bytes and TTFT/TPOT stay inside the static bounds (§4.2, §4.3) |
//! | `retry-storm`        | deny | fleet retry policies are storm-safe: scheduled, backed-off, jittered (§6) |
//! | `shed-starvation`    | warn | load shedding never starves a class while the fleet is idle (§6) |
//! | `breaker-skip-probe` | deny | breakers only re-close via a successful half-open probe (§6) |
//! | `retry-past-deadline` | deny | no dispatch after the request's lost-penalty deadline (§6) |
//! | `shed-inversion`     | deny | no lower-priority admit while a higher class sheds, same census epoch (§6) |
//! | `census-staleness`   | warn | routing decisions see a census within the probe contract (§6) |
//! | `storm-amplification` | deny | in-window retries bounded by K× offered load + slack (§6) |
//! | `brownout-unshed`    | warn | no blind batch admission mid-storm without shed or fresh census (§6) |
//! | `policy-livelock`    | deny | every product-automaton state can reach a resolution (§6) |
//! | `retry-unbounded`    | deny | no failure cycle that never consumes retry budget (§6) |
//! | `breaker-trap`       | deny | every Open breaker state can escape to HalfOpen (§6) |
//! | `promotion-legality` | deny | every Promote verdict follows a cleanly completed stage (§6) |
//! | `rollback-completeness` | deny | every canary revert follows a Rollback, which lies in the window its stage opened (§6) |
//! | `blast-radius`       | deny | canary exposure inside stage k stays within ⌈devices·pct/100⌉ (§6) |
//! | `rollout-stuck`      | deny | a rollout terminates, consistently with its stage verdicts (§6) |
//! | `rollback-missed`    | deny | no stage with regressing re-derived deltas is promoted (§6) |
//! | `canary-starved`     | warn | decided stages carry at least the minimum canary evidence (§6) |
//!
//! The trace rules ([`timeline`]) re-check exported `--trace-out`
//! files from the outside — `analyze timeline <FILE>` parses the JSON
//! like a trace viewer would, so exporter regressions fail CI.
//!
//! The last four rules are *dynamic-evidence* rules: they run over a
//! typed concurrency event log ([`heterollm::trace::ConcurrencyLog`])
//! either recorded by the engines or lowered from a [`SyncSchedule`]
//! by [`race::log_from_schedule`], using a three-actor vector clock to
//! decide happens-before ([`race`]) and a bounded exhaustive replay of
//! legal orderings to certify output determinism ([`explore`]).
//!
//! The fleet rules ([`fleet`]) gate the `hetero-fleet` serving layer:
//! `retry-storm` statically rejects retry policies that amplify
//! correlated faults, and `shed-starvation` reads a finished fleet
//! arm report as dynamic evidence that admission control starved a
//! priority class while capacity sat idle (`analyze fleet` in CI).
//!
//! The temporal rules ([`monitor`], [`model_check`]) certify the fleet
//! layer's *dynamic behaviour*: a past-time-LTL evaluator sweeps a
//! typed [`hetero_fleet::FleetEventLog`] once against six named specs
//! (sliced per device, per request, or globally) — plus three
//! staged-rollout specs when the log header declares a rollout window
//! — and a bounded exhaustive model checker enumerates the
//! breaker × retry × admission product automaton to prove livelock
//! freedom, bounded retry, and Open-state escapability with exact
//! state counts (`analyze monitor` in CI). The rollout ladder gets the
//! same treatment: [`model_check::check_rollout_product`] proves
//! promotion reachable and rollback reachable from *every* non-terminal
//! rollout state, and the [`rollout`] evidence rules re-derive every
//! stage verdict of a finished [`hetero_fleet::RolloutReport`] through
//! the controller's own [`hetero_fleet::stage_regressed`] on its
//! echoed evidence and thresholds.
//!
//! The bound rules ([`bound`]) are the analyzer's cost layer: each
//! plan's peak footprint is its region table's plateau, each serving
//! phase's `[lo, hi]` latency is the static cost mirror's walk, and
//! every static bound is gated against the discrete-event simulator
//! (`analyze bound` in CI).
//!
//! Findings are typed [`Diagnostic`]s aggregated into a [`Report`] with
//! a stable JSON encoding (`Report::to_json`). The `analyze` binary
//! lints the plans the engine adopts across the paper's model
//! configurations and exits non-zero on deny-level findings, so CI can
//! gate on it.
//!
//! The invariant *predicates* live beside the plan types in
//! [`hetero_graph::partition`]; the solver re-checks its own output
//! through them in every debug build. This crate
//! adds the rule registry, severities, locations, reporting, and the
//! checks that need more context than a single plan.

pub mod bound;
pub mod diag;
pub mod explore;
pub mod fallback;
pub mod fleet;
pub mod mem;
pub mod model_check;
pub mod monitor;
pub mod plan_rules;
pub mod race;
pub mod rollout;
pub mod rules;
pub mod sched;
pub mod sweep;
pub mod timeline;

pub use bound::{
    bound_lint_degraded_session, bound_lint_models, bound_sweep, model_bounds, ModelBounds,
    BOUND_DECODE_TOKENS, DEFAULT_POOL_BYTES,
};
pub use diag::{Diagnostic, Report, Severity, Summary};
pub use explore::{explore_schedule, DeterminismCertificate, ExploreConfig};
pub use fallback::check_fallback;
pub use fleet::{check_fleet_arm, check_retry_policy};
pub use mem::{check_regions, TensorRegion};
pub use model_check::{
    check_policy_product, check_rollout_product, ModelOptions, PolicyAutomata, ProductCertificate,
    RolloutAutomata, RolloutCertificate,
};
pub use monitor::{
    monitor_fleet_log, Ltl, LtlMonitor, MonitorVerdict, STORM_AMPLIFICATION_FACTOR,
    STORM_AMPLIFICATION_SLACK,
};
pub use plan_rules::{check_plan, PlanContext};
pub use race::{check_log, check_schedule_races, log_from_schedule};
pub use rollout::check_rollout_report;
pub use rules::{rule, RuleInfo, RULES};
pub use sched::{
    check_schedule, check_unverified_sink, retry_schedule, verified_schedule, EventKind, SyncEvent,
    SyncSchedule,
};
pub use sweep::{integrity_lint_models, lint_models};
pub use timeline::check_trace;

use hetero_graph::partition::PartitionPlan;

/// Run every applicable rule against one plan: the plan-level rules, a
/// sanity check of the sync schedule the plan implies, and a
/// vector-clock race check of that schedule's lowered event log.
pub fn check_plan_full(plan: &PartitionPlan, ctx: &PlanContext) -> Vec<Diagnostic> {
    let mut out = plan_rules::check_plan(plan, ctx);
    let schedule = SyncSchedule::for_plan(plan, ctx.shape());
    out.extend(sched::check_schedule(&schedule, &ctx.location));
    out.extend(race::check_schedule_races(
        &schedule,
        ctx.mechanism,
        &ctx.location,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_check_is_clean_on_good_plans() {
        for (plan, m, n) in [
            (PartitionPlan::GpuOnly, 300, 4096),
            (PartitionPlan::NpuOnly { padded_m: 512 }, 300, 4096),
            (
                PartitionPlan::SeqCut {
                    npu_chunks: vec![256, 32],
                    gpu_rows: 12,
                },
                300,
                4096,
            ),
            (
                PartitionPlan::HybridCut {
                    padded_m: 512,
                    gpu_cols: 1024,
                },
                300,
                4096,
            ),
        ] {
            let ctx = PlanContext::standard("test", m, n);
            let diags = check_plan_full(&plan, &ctx);
            assert!(diags.is_empty(), "{plan:?}: {diags:?}");
        }
    }

    #[test]
    fn full_check_flags_bad_plan_once_per_rule() {
        // padded_m 96: compiled-graph miss; m 100 covered (96 < 100 →
        // also a conservation violation).
        let plan = PartitionPlan::NpuOnly { padded_m: 96 };
        let ctx = PlanContext::standard("test", 100, 4096);
        let diags = check_plan_full(&plan, &ctx);
        let mut ids: Vec<&str> = diags.iter().map(|d| d.rule_id.as_str()).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            vec![rules::GRAPH_MEMBERSHIP, rules::SHAPE_CONSERVATION],
            "{diags:?}"
        );
    }
}
