//! Staged-rollout evidence rules: `rollout-stuck`, `rollback-missed`,
//! and `canary-starved`.
//!
//! These read a finished [`RolloutReport`] — the all-integer evidence
//! `rollout_sweep` emits — and re-derive every stage verdict from the
//! echoed evidence and thresholds through the controller's own
//! predicate, [`hetero_fleet::stage_regressed`]:
//!
//! - `rollout-stuck` (deny): the rollout must *terminate* — the
//!   outcome is `promoted` or `rolled-back`, and is consistent with
//!   the per-stage verdicts (promotion requires every stage clean and
//!   a 100% final stage; a rollback outcome requires a non-clean final
//!   stage verdict).
//! - `rollback-missed` (deny): a stage whose echoed canary-vs-control
//!   deltas regress past the echoed thresholds must not carry a
//!   `promote` verdict — the controller shipped a regressing candidate
//!   further down the ladder. The report does not echo the final
//!   window's p99 TTFT, so at the 100% stage only attainment against
//!   the baseline is re-checked.
//! - `canary-starved` (warn): a decided sub-100% stage must have
//!   served the canary cohort at least `min_canary_samples`
//!   completions; below that the verdict carries no statistical
//!   weight (the shipped controller rolls back conservatively and
//!   marks the stage `starved`).

use hetero_fleet::{stage_regressed, RolloutReport, StageReport};

use crate::diag::Diagnostic;
use crate::rules;

/// Check one finished rollout report against the three rollout
/// evidence rules.
pub fn check_rollout_report(report: &RolloutReport, location: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let loc = |stage: &StageReport| format!("{location}/stage-{}", stage.stage);

    // rollout-stuck: the run terminated, consistently with its stages.
    let terminal = matches!(report.outcome.as_str(), "promoted" | "rolled-back");
    if !terminal {
        out.push(Diagnostic::new(
            rules::ROLLOUT_STUCK,
            location,
            format!(
                "rollout outcome `{}` is not a terminal verdict (promoted / rolled-back)",
                report.outcome
            ),
        ));
    } else {
        let clean_prefix = report
            .stages
            .iter()
            .take(report.stages.len().saturating_sub(1))
            .all(|s| s.verdict == "promote");
        let last = report.stages.last();
        let consistent = match (report.outcome.as_str(), last) {
            ("promoted", Some(last)) => {
                clean_prefix && last.verdict == "promote" && last.pct == 100
            }
            ("rolled-back", Some(last)) => clean_prefix && last.verdict != "promote",
            _ => false,
        };
        if !consistent {
            out.push(Diagnostic::new(
                rules::ROLLOUT_STUCK,
                location,
                format!(
                    "outcome `{}` is inconsistent with the stage verdicts [{}]",
                    report.outcome,
                    report
                        .stages
                        .iter()
                        .map(|s| s.verdict.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ));
        }
    }

    let t = report.thresholds();
    for stage in &report.stages {
        // rollback-missed: promote verdicts must survive the
        // controller's predicate on the echoed evidence. The 100%
        // stage has no control group: the final window's attainment
        // is compared against the baseline window.
        let regressed = if stage.pct < 100 {
            stage_regressed(
                &t,
                (stage.canary_attainment_ppm, stage.control_attainment_ppm),
                (stage.canary_service_p50_ppm, stage.control_service_p50_ppm),
                t.tail(
                    (stage.canary_served, stage.control_served),
                    (stage.canary_service_p99_ppm, stage.control_service_p99_ppm),
                ),
            )
        } else {
            stage_regressed(
                &t,
                (report.final_attainment_ppm, report.baseline_attainment_ppm),
                (0, 0),
                None,
            )
        };
        if stage.verdict == "promote" && regressed {
            out.push(Diagnostic::new(
                rules::ROLLBACK_MISSED,
                loc(stage),
                format!(
                    "stage {} ({}%) was promoted but its deltas regress past the echoed \
                     thresholds (attainment {} vs {} ppm, service p50 {} vs {} ppm, \
                     p99 {} vs {} ppm)",
                    stage.stage,
                    stage.pct,
                    stage.canary_attainment_ppm,
                    stage.control_attainment_ppm,
                    stage.canary_service_p50_ppm,
                    stage.control_service_p50_ppm,
                    stage.canary_service_p99_ppm,
                    stage.control_service_p99_ppm,
                ),
            ));
        }
        // canary-starved: decided sub-100% stages carried evidence.
        if stage.pct < 100 && stage.canary_served < report.min_canary_samples {
            out.push(Diagnostic::new(
                rules::CANARY_STARVED,
                loc(stage),
                format!(
                    "stage {} ({}%) decided on {} canary completions, below the {}-sample \
                     minimum — the verdict carries no statistical weight",
                    stage.stage, stage.pct, stage.canary_served, report.min_canary_samples,
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn stage(no: u32, pct: u32, verdict: &str) -> StageReport {
        StageReport {
            stage: no,
            pct,
            canary_devices: 5,
            canary_served: 100,
            control_served: 900,
            canary_attainment_ppm: 950_000,
            control_attainment_ppm: 940_000,
            canary_ttft_p50_ns: 40_000_000,
            control_ttft_p50_ns: 41_000_000,
            canary_ttft_p99_ns: 200_000_000,
            control_ttft_p99_ns: 210_000_000,
            canary_service_p50_ppm: 1_000_000,
            control_service_p50_ppm: 1_000_000,
            canary_service_p99_ppm: 1_400_000,
            control_service_p99_ppm: 1_350_000,
            lost: 0,
            drift_resolves: 0,
            verdict: verdict.into(),
        }
    }

    fn promoted_report() -> RolloutReport {
        RolloutReport {
            candidate: "good".into(),
            revision: 1,
            seed: 42,
            devices: 256,
            requests: 1500,
            baseline_attainment_ppm: 930_000,
            baseline_ttft_p99_ns: 250_000_000,
            final_attainment_ppm: 940_000,
            outcome: "promoted".into(),
            final_stage: 4,
            exposed_devices: 256,
            exposed_ppm: 1_000_000,
            rollback_latency_ns: 0,
            lost: 0,
            min_canary_samples: 8,
            max_attainment_drop_ppm: 150_000,
            max_p50_regress_pct: 50,
            max_p99_regress_pct: 100,
            tail_min_samples: 128,
            stages: vec![
                stage(1, 1, "promote"),
                stage(2, 10, "promote"),
                stage(3, 50, "promote"),
                stage(4, 100, "promote"),
            ],
        }
    }

    #[test]
    fn consistent_promotion_is_clean() {
        let diags = check_rollout_report(&promoted_report(), "rollout[42]");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn consistent_rollback_is_clean() {
        let mut report = promoted_report();
        report.outcome = "rolled-back".into();
        report.final_stage = 2;
        report.rollback_latency_ns = 5_000_000_000;
        report.stages.truncate(2);
        report.stages[1].verdict = "rollback".into();
        report.stages[1].canary_attainment_ppm = 600_000;
        let diags = check_rollout_report(&report, "rollout[42]");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn non_terminal_outcome_is_rollout_stuck() {
        let mut report = promoted_report();
        report.outcome = "deciding".into();
        let diags = check_rollout_report(&report, "rollout[42]");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule_id, rules::ROLLOUT_STUCK);
    }

    #[test]
    fn outcome_contradicting_verdicts_is_rollout_stuck() {
        // Claimed promoted while a stage verdict says rollback.
        let mut report = promoted_report();
        report.stages[2].verdict = "rollback".into();
        report.stages[2].canary_attainment_ppm = 600_000;
        let diags = check_rollout_report(&report, "rollout[42]");
        assert!(
            diags.iter().any(|d| d.rule_id == rules::ROLLOUT_STUCK),
            "{diags:?}"
        );
        // Claimed promoted without reaching the 100% stage.
        let mut short = promoted_report();
        short.stages.truncate(2);
        let diags = check_rollout_report(&short, "rollout[42]");
        assert!(
            diags.iter().any(|d| d.rule_id == rules::ROLLOUT_STUCK),
            "{diags:?}"
        );
    }

    #[test]
    fn promote_on_regressed_deltas_is_rollback_missed() {
        // Attainment drop past the threshold.
        let mut report = promoted_report();
        report.stages[1].canary_attainment_ppm = 700_000;
        let diags = check_rollout_report(&report, "rollout[42]");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule_id, rules::ROLLBACK_MISSED);
        assert!(diags[0].location.ends_with("/stage-2"));

        // Median normalized-service blowup on a promoted stage.
        let mut report = promoted_report();
        report.stages[0].canary_service_p50_ppm = 2_000_000;
        let diags = check_rollout_report(&report, "rollout[42]");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule_id, rules::ROLLBACK_MISSED);

        // p99 blowup only counts once both groups clear the tail
        // sample floor.
        let mut report = promoted_report();
        report.stages[0].canary_service_p99_ppm = 4_000_000;
        report.stages[0].canary_served = 64; // below tail_min_samples
        assert!(check_rollout_report(&report, "rollout[42]").is_empty());
        report.stages[0].canary_served = 200;
        let diags = check_rollout_report(&report, "rollout[42]");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule_id, rules::ROLLBACK_MISSED);
    }

    #[test]
    fn thin_canary_evidence_warns_starved() {
        let mut report = promoted_report();
        report.stages[0].canary_served = 3;
        let diags = check_rollout_report(&report, "rollout[42]");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule_id, rules::CANARY_STARVED);
        assert_eq!(diags[0].severity, Severity::Warn);
    }
}
