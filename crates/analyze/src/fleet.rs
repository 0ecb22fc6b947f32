//! Fleet-serving robustness rules: `retry-storm` and
//! `shed-starvation`.
//!
//! `retry-storm` (deny) is a *configuration* rule: it rejects retry
//! policies that can amplify a correlated fault into a fleet-wide
//! traffic storm — no exponential schedule at all, zero base delay,
//! multiplicative factors below 2 (not actually exponential), and
//! unjittered schedules that synchronize every client's retries onto
//! the same instant.
//!
//! `shed-starvation` (warn) is an *evidence* rule: it reads a
//! finished [`ArmReport`] and flags a priority class that lost more
//! than half its offered requests to admission control while the
//! fleet's measured busy fraction shows idle capacity — the shed
//! thresholds are tuned against the wrong utilization signal.

use hetero_fleet::{ArmReport, RetryPolicy};

use crate::diag::Diagnostic;
use crate::rules;

/// A class is starving when it sheds more than this fraction of its
/// offered requests (in percent).
const STARVATION_SHED_PCT: u64 = 50;

/// Below this fleet busy fraction (parts per million) the fleet has
/// idle capacity, so heavy shedding is a mis-tune rather than an
/// overload response.
const IDLE_CAPACITY_PPM: u64 = 900_000;

/// Check one retry policy against the `retry-storm` rule.
pub fn check_retry_policy(policy: &RetryPolicy, location: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // `max_attempts` is the schedule length plus one: below 2 there is
    // no exponential schedule, and every retry waits the bare cap.
    let has_schedule = policy.max_attempts >= 2;
    if !has_schedule {
        out.push(Diagnostic::with_suggestion(
            rules::RETRY_STORM,
            location,
            format!(
                "max_attempts = {} leaves no exponential schedule: every retry \
                 waits exactly the cap, unjittered, so requests that failed in \
                 the same fault retry in lockstep",
                policy.max_attempts
            ),
            Some("give the schedule its exponential steps (the shipped policy uses 4)".into()),
        ));
    }
    if has_schedule && policy.base.as_nanos() == 0 {
        out.push(Diagnostic::with_suggestion(
            rules::RETRY_STORM,
            location,
            "zero base delay retries immediately: every failure is retried \
             within the same fault window it failed in",
            Some("use a non-zero base delay (the shipped policy uses 2 ms)".into()),
        ));
    }
    // The factor first applies to the schedule's second delay.
    if policy.factor < 2 && policy.max_attempts > 2 {
        out.push(Diagnostic::with_suggestion(
            rules::RETRY_STORM,
            location,
            format!(
                "backoff factor {} is not exponential: retry pressure never \
                 decays, so a correlated fault keeps the full offered load \
                 hammering the surviving devices",
                policy.factor
            ),
            Some("use a multiplicative factor of at least 2 (the shipped policy uses 4)".into()),
        ));
    }
    if has_schedule && policy.jitter_pct == 0 {
        out.push(Diagnostic::with_suggestion(
            rules::RETRY_STORM,
            location,
            "unjittered backoff synchronizes retries: every request that \
             failed in the same storm retries at the same instant",
            Some("add jitter (the shipped policy adds up to 20% of each delay)".into()),
        ));
    }
    if policy.cap < policy.base {
        out.push(Diagnostic::with_suggestion(
            rules::RETRY_STORM,
            location,
            format!(
                "delay cap {} ns is below the base delay {} ns: the schedule \
                 is capped into immediate-retry territory",
                policy.cap.as_nanos(),
                policy.base.as_nanos()
            ),
            Some("set the cap at or above the base delay".into()),
        ));
    }
    out
}

/// Check one finished arm report against the `shed-starvation` rule.
pub fn check_fleet_arm(arm: &ArmReport, location: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if arm.busy_ppm >= IDLE_CAPACITY_PPM {
        // Genuinely saturated: shedding is the mechanism working.
        return out;
    }
    for class in &arm.by_priority {
        if class.offered == 0 {
            continue;
        }
        let shed_pct = class.shed * 100 / class.offered;
        if shed_pct > STARVATION_SHED_PCT {
            out.push(Diagnostic::with_suggestion(
                rules::SHED_STARVATION,
                format!("{location}/{}", class.class),
                format!(
                    "class shed {}/{} offered requests ({shed_pct}%) while the \
                     fleet was only {}.{:04}% busy — admission control is \
                     starving it despite idle capacity",
                    class.shed,
                    class.offered,
                    arm.busy_ppm / 10_000,
                    arm.busy_ppm % 10_000
                ),
                Some(
                    "raise the class's shed threshold or fix the busy/healthy \
                     signal admission control reads"
                        .into(),
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
    use hetero_fleet::{FleetConfig, FleetSim, RouterPolicy};
    use hetero_soc::SimTime;

    #[test]
    fn shipped_policy_is_storm_safe() {
        assert!(check_retry_policy(&RetryPolicy::standard(), "std").is_empty());
    }

    /// The rule ids of `policy`'s findings, by message head.
    fn storm_findings(policy: RetryPolicy) -> Vec<&'static str> {
        check_retry_policy(&policy, "p")
            .iter()
            .map(|d| {
                assert!(d.rule_id == rules::RETRY_STORM && d.severity == Severity::Deny);
                [
                    "max_attempts",
                    "zero base",
                    "backoff factor",
                    "unjittered",
                    "delay cap",
                ]
                .into_iter()
                .find(|head| d.message.starts_with(head))
                .expect("known retry-storm finding")
            })
            .collect()
    }

    #[test]
    fn storm_prone_policies_are_denied() {
        let bad = RetryPolicy {
            max_attempts: 2,
            base: SimTime::ZERO,
            factor: 1,
            cap: SimTime::ZERO,
            jitter_pct: 0,
            timeout: SimTime::from_millis(250),
        };
        // A one-step schedule never applies its factor.
        assert_eq!(storm_findings(bad), ["zero base", "unjittered"]);
        // Factor 1 with a real schedule is still a deny: no decay.
        let linear = RetryPolicy {
            factor: 1,
            ..RetryPolicy::standard()
        };
        assert_eq!(storm_findings(linear), ["backoff factor"]);
        let inverted = RetryPolicy {
            cap: SimTime::from_millis(1),
            ..RetryPolicy::standard()
        };
        assert_eq!(storm_findings(inverted), ["delay cap"]);
    }

    #[test]
    fn no_schedule_is_denied_alike_for_zero_and_one_attempts() {
        // Without a schedule every retry waits the bare cap: base,
        // factor and jitter are never read, so only the missing
        // schedule is reported, for 0 and 1 alike.
        for max_attempts in [0, 1] {
            let flat = RetryPolicy {
                max_attempts,
                base: SimTime::ZERO,
                factor: 1,
                jitter_pct: 0,
                ..RetryPolicy::standard()
            };
            assert_eq!(storm_findings(flat), ["max_attempts"], "{max_attempts}");
            let msg = &check_retry_policy(&flat, "p")[0].message;
            assert!(
                msg.starts_with(&format!("max_attempts = {max_attempts} ")),
                "{msg}"
            );
        }
    }

    #[test]
    fn real_fleet_run_passes_both_rules() {
        let sim = FleetSim::new(FleetConfig::standard(42, 32, 250));
        let arm = sim.run(RouterPolicy::Robust);
        assert!(
            check_fleet_arm(&arm, "fleet[42]").is_empty(),
            "shipped admission starves"
        );
    }

    #[test]
    fn starved_class_on_idle_fleet_warns() {
        let sim = FleetSim::new(FleetConfig::standard(42, 32, 250));
        let mut arm = sim.run(RouterPolicy::Robust);
        // Fabricate a mis-tuned outcome: batch shed 80% while idle.
        arm.busy_ppm = 200_000;
        let batch = arm
            .by_priority
            .iter_mut()
            .find(|c| c.class == "batch")
            .expect("batch class present");
        batch.offered = 100;
        batch.shed = 80;
        batch.served = 20;
        let diags = check_fleet_arm(&arm, "fleet[42]");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule_id, rules::SHED_STARVATION);
        assert_eq!(diags[0].severity, Severity::Warn);
        assert!(diags[0].location.ends_with("/batch"));

        // A saturated fleet shedding batch is the mechanism working.
        arm.busy_ppm = 950_000;
        assert!(check_fleet_arm(&arm, "fleet[42]").is_empty());
    }
}
