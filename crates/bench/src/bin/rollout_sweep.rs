//! Staged-rollout experiment: canary a candidate partition policy
//! through 1% → 10% → 50% → 100% of a seeded device fleet, with
//! auto-rollback on regressing all-integer SLO deltas.
//!
//! Two candidates are shipped against the same seeded world (Table-1
//! device profiles, priority-mixed requests, correlated crash storms
//! and brownouts):
//!
//! - `npu-inversion` (2.5× uniform slowdown) — a deliberately
//!   regressing policy. Must roll back during the 1% stage, exposing
//!   under 2% of the fleet and stranding zero requests.
//! - `tuned-partition` (0.93× uniform speedup) — a genuinely better
//!   policy. Must ride the full ladder to 100% with final fleet
//!   attainment at or above the baseline window.
//!
//! Each verdict compares canary vs control through profile-normalized
//! service ratios (exact order-statistic quantiles, ppm), so slow-SoC
//! canary cohorts are not mistaken for regressions. Every decision is
//! re-derived from the echoed thresholds by the `analyze` evidence
//! lint, every windowed event log is swept through the past-time-LTL
//! monitor (promotion-legality, rollback-completeness, blast-radius),
//! and the rollout ladder automaton is exhaustively model-checked for
//! rollback reachability — all gated in-binary.
//!
//! With a fixed `--seed`, output is byte-identical across runs — CI
//! runs the binary twice and `cmp`s the recorded event logs.
//!
//! `--events-out FILE` records the windowed event log of both
//! rollouts as a JSON `RolloutLogSet`; `--jobs` only changes
//! wall-clock time. Run with `--help` for the flags, their defaults
//! and ranges.

use hetero_bench::cli::{self, Flag, MAX_DEVICES, MAX_JOBS, MAX_REQUESTS};
use hetero_bench::{save_json, Table};
use hetero_fleet::{
    FleetConfig, FleetEventLog, FleetSim, PolicyRevision, RolloutConfig, RolloutController,
    RolloutLogSet, RolloutReport,
};
use serde::Serialize;

fn pct_ppm(ppm: u64) -> String {
    format!("{:.2}", ppm as f64 / 10_000.0)
}

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

fn stage_table(report: &RolloutReport) {
    let mut t = Table::new(&[
        "stage",
        "pct",
        "canaries",
        "served c/k",
        "attain c/k (%)",
        "svc p50 c/k (ppm)",
        "svc p99 c/k (ppm)",
        "verdict",
    ]);
    for s in &report.stages {
        t.row(&[
            s.stage.to_string(),
            format!("{}%", s.pct),
            s.canary_devices.to_string(),
            format!("{}/{}", s.canary_served, s.control_served),
            format!(
                "{}/{}",
                pct_ppm(s.canary_attainment_ppm),
                pct_ppm(s.control_attainment_ppm)
            ),
            format!("{}/{}", s.canary_service_p50_ppm, s.control_service_p50_ppm),
            format!("{}/{}", s.canary_service_p99_ppm, s.control_service_p99_ppm),
            s.verdict.clone(),
        ]);
    }
    t.print();
    println!(
        "outcome: {} (final stage {}, exposed {} devices = {}% of fleet, \
         rollback latency {} ms, lost {})\n",
        report.outcome,
        report.final_stage,
        report.exposed_devices,
        pct_ppm(report.exposed_ppm),
        ms(report.rollback_latency_ns),
        report.lost,
    );
}

/// The regressing candidate must be caught at the 1% stage: bounded
/// blast radius, zero stranded requests, and a rollback decided within
/// one stage window.
fn gate_bad(report: &RolloutReport) {
    assert_eq!(
        report.outcome, "rolled-back",
        "the 2.5x-regressing candidate was not rolled back"
    );
    assert_eq!(
        report.final_stage, 1,
        "regression escaped the 1% canary stage (reached stage {})",
        report.final_stage
    );
    assert!(
        report.exposed_ppm < 20_000,
        "blast radius {} ppm breaches the 2% budget",
        report.exposed_ppm
    );
    assert_eq!(
        report.lost, 0,
        "rollback stranded {} requests mid-flight",
        report.lost
    );
    assert!(
        report.rollback_latency_ns > 0,
        "rolled back without a recorded stage-open-to-decision latency"
    );
}

/// The genuinely better candidate must ride the whole ladder.
fn gate_good(report: &RolloutReport, stages: u32) {
    assert_eq!(
        report.outcome,
        "promoted",
        "the strictly better candidate failed to promote: {:?}",
        report
            .stages
            .iter()
            .map(|s| s.verdict.as_str())
            .collect::<Vec<_>>()
    );
    assert_eq!(report.final_stage, stages, "promotion skipped a stage");
    assert_eq!(
        report.exposed_ppm, 1_000_000,
        "a promoted candidate must end at 100% exposure"
    );
    assert!(
        report.final_attainment_ppm >= report.baseline_attainment_ppm,
        "promoted fleet attainment {} ppm regressed below baseline {} ppm",
        report.final_attainment_ppm,
        report.baseline_attainment_ppm
    );
    assert_eq!(
        report.lost, 0,
        "promotion stranded {} requests",
        report.lost
    );
}

/// Evidence lint: re-derive every stage verdict from the echoed
/// thresholds, independently of the controller.
fn evidence_gate(report: &RolloutReport, label: &str) {
    let diags = hetero_analyze::check_rollout_report(report, &format!("rollout_sweep/{label}"));
    for d in &diags {
        eprintln!("{d}");
    }
    assert!(
        diags.is_empty(),
        "{label}: rollout evidence lint failed (rollout-stuck / rollback-missed / canary-starved)"
    );
}

/// Temporal gate: both windowed logs sweep clean through every
/// past-time-LTL spec — including the three rollout specs armed by the
/// log's windows — and the rollout ladder automaton proves
/// promotion reachable and rollback reachable from every non-terminal
/// state.
fn monitor_gate(logs: &[(&str, &FleetEventLog)]) {
    for (label, log) in logs {
        let verdict = hetero_analyze::monitor_fleet_log(log);
        assert!(
            verdict.findings.is_empty(),
            "{label}: rollout log violated temporal specs: {:?}",
            verdict.findings
        );
        println!(
            "temporal monitor [{label}]: clean ({} events, {} spec instances)",
            verdict.events, verdict.instances
        );
    }
    let (cert, diags) = hetero_analyze::check_rollout_product(
        &hetero_analyze::RolloutAutomata::standard(),
        "rollout_sweep/ladder",
    );
    assert!(diags.is_empty(), "{diags:?}");
    assert!(cert.promote_reachable && cert.rollback_reachable);
    println!(
        "model check [ladder]: {} states, {} transitions, promote-reachable={}, \
         rollback-reachable from every non-terminal state={}",
        cert.states, cert.transitions, cert.promote_reachable, cert.rollback_reachable
    );
}

#[derive(Serialize)]
struct SweepSummary {
    seed: u64,
    devices: usize,
    requests: usize,
    bad: RolloutReport,
    good: RolloutReport,
}

fn main() {
    let args = cli::parse(
        "rollout_sweep",
        "staged canary rollout with auto-rollback: regressing vs improving candidate policies",
        &[
            Flag::uint(
                "--seed",
                "N",
                42,
                0..=u64::MAX,
                "workload/fault/cohort seed",
            ),
            Flag::uint("--devices", "N", 256, 1..=MAX_DEVICES, "fleet size"),
            Flag::uint(
                "--requests",
                "N",
                1500,
                1..=MAX_REQUESTS,
                "requests offered per stage window",
            ),
            Flag::uint(
                "--jobs",
                "N",
                1,
                1..=MAX_JOBS,
                "workers for the calibration sessions, one per SoC class and bandwidth \
step; output is byte-identical for every value",
            ),
            Flag::switch("--json", "print the machine-readable report pair on stdout"),
            Flag::path(
                "--events-out",
                "FILE",
                "record both rollouts' windowed event logs as a JSON RolloutLogSet",
            ),
        ],
    );
    let (seed, devices, requests) = (
        args.uint("--seed"),
        args.size("--devices"),
        args.size("--requests"),
    );
    println!(
        "Rollout sweep: staged canary ladder 1% -> 10% -> 50% -> 100% \
         ({} devices, {} requests/window, seed {})\n",
        devices, requests, seed
    );

    let sim = FleetSim::with_jobs(
        FleetConfig::standard(seed, devices, requests),
        args.size("--jobs"),
    );
    let cfg = RolloutConfig::standard();
    let stages = cfg.stages.len() as u32;
    let ctl = RolloutController::new(&sim, cfg);

    let bad_candidate =
        PolicyRevision::uniform(7, "npu-inversion", sim.profiles().len(), 2_500_000);
    let good_candidate =
        PolicyRevision::uniform(8, "tuned-partition", sim.profiles().len(), 930_000);

    println!("candidate `npu-inversion` (2.5x slowdown — must roll back):");
    let (bad, bad_log) = ctl.run(&bad_candidate);
    stage_table(&bad);

    println!("candidate `tuned-partition` (0.93x — must promote):");
    let (good, good_log) = ctl.run(&good_candidate);
    stage_table(&good);

    gate_bad(&bad);
    println!(
        "bad candidate: rolled back at stage 1 in {} ms, {} of {} devices exposed \
         ({}% < 2% blast budget), 0 stranded [verified]",
        ms(bad.rollback_latency_ns),
        bad.exposed_devices,
        bad.devices,
        pct_ppm(bad.exposed_ppm),
    );
    gate_good(&good, stages);
    println!(
        "good candidate: promoted to 100% across {} stages, fleet attainment \
         {}% >= baseline {}% [verified]",
        stages,
        pct_ppm(good.final_attainment_ppm),
        pct_ppm(good.baseline_attainment_ppm),
    );
    evidence_gate(&bad, "npu-inversion");
    evidence_gate(&good, "tuned-partition");
    println!("evidence lint: both reports re-derive clean from echoed thresholds [verified]");
    if let Some(path) = args.path("--events-out") {
        let set = RolloutLogSet {
            runs: vec![bad_log.clone(), good_log.clone()],
        };
        let mut text = serde_json::to_string(&set).expect("serialize rollout log set");
        text.push('\n');
        std::fs::write(path, text).expect("write rollout event logs");
        println!("events: wrote {path}");
    }
    monitor_gate(&[("npu-inversion", &bad_log), ("tuned-partition", &good_log)]);

    let summary = SweepSummary {
        seed,
        devices,
        requests,
        bad,
        good,
    };
    if args.switch("--json") {
        println!(
            "{}",
            serde_json::to_string(&summary).expect("serialize summary")
        );
    }
    save_json("rollout_sweep", &summary);
}
