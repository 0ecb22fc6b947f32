//! Fallback-plan integrity (`fallback-integrity`).
//!
//! When the runtime controller degrades — re-solving partitions
//! against a disturbance-adjusted profile, or dropping to a
//! single-backend engine — the plans it adopts are produced *under
//! duress*, far from the calibration-time conditions the solver was
//! validated at. This check holds them to the same bar as any solver
//! output, plus one condition unique to degraded operation: the
//! submission happens-before graph must remain acyclic when flaky
//! rendezvous are rescheduled for retry
//! ([`retry_schedule`](crate::sched::retry_schedule)) — the
//! controller's bounded-retry reaction must never deadlock the queues
//! it is trying to rescue.

use hetero_graph::partition::PartitionPlan;

use crate::diag::Diagnostic;
use crate::plan_rules::PlanContext;
use crate::rules;
use crate::sched::{check_schedule, retry_schedule, SyncSchedule};

/// Check a plan adopted during degradation: every plan/sync-schedule
/// invariant ([`crate::check_plan_full`]) plus schedule sanity of the
/// retry-rescheduled submission graph, reported under
/// [`rules::FALLBACK_INTEGRITY`].
pub fn check_fallback(plan: &PartitionPlan, ctx: &PlanContext) -> Vec<Diagnostic> {
    let mut out = crate::check_plan_full(plan, ctx);
    let retried = retry_schedule(&SyncSchedule::for_plan(plan, ctx.shape()));
    for d in check_schedule(&retried, &ctx.location) {
        out.push(Diagnostic::with_suggestion(
            rules::FALLBACK_INTEGRITY,
            d.location,
            format!("under retry rescheduling: {}", d.message),
            d.suggestion,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_shaped_fallback_plans_are_clean() {
        for (plan, m) in [
            (PartitionPlan::GpuOnly, 300),
            (PartitionPlan::NpuOnly { padded_m: 512 }, 300),
            (
                PartitionPlan::SeqCut {
                    npu_chunks: vec![256, 32],
                    gpu_rows: 12,
                },
                300,
            ),
            (
                PartitionPlan::HybridCut {
                    padded_m: 512,
                    gpu_cols: 1024,
                },
                300,
            ),
        ] {
            let ctx = PlanContext::standard("fallback", m, 4096);
            let diags = check_fallback(&plan, &ctx);
            assert!(diags.is_empty(), "{plan:?}: {diags:?}");
        }
    }

    #[test]
    fn bad_fallback_plan_keeps_base_rule_findings() {
        // An uncompiled, unaligned NPU graph size: the base rules fire
        // through the fallback check unchanged.
        let plan = PartitionPlan::NpuOnly { padded_m: 96 };
        let ctx = PlanContext::standard("fallback", 100, 4096);
        let diags = check_fallback(&plan, &ctx);
        assert!(diags.iter().any(|d| d.rule_id == rules::GRAPH_MEMBERSHIP));
        assert!(!diags.iter().any(|d| d.rule_id == rules::FALLBACK_INTEGRITY));
    }

    #[test]
    fn retry_findings_are_reported_under_fallback_integrity() {
        // Hand-build the degenerate schedule a buggy controller could
        // emit (a rendezvous with no NPU side) and push it through the
        // same path `check_fallback` uses.
        use crate::sched::{EventKind, SyncEvent};
        use hetero_soc::Backend;
        let s = SyncSchedule {
            events: vec![
                SyncEvent {
                    label: "gpu".into(),
                    backend: Backend::Gpu,
                    kind: EventKind::Submit,
                    waits_on: vec![],
                },
                SyncEvent {
                    label: "join".into(),
                    backend: Backend::Cpu,
                    kind: EventKind::Rendezvous,
                    waits_on: vec![0],
                },
            ],
        };
        let retried = retry_schedule(&s);
        assert!(!check_schedule(&retried, "fallback").is_empty());
    }
}
