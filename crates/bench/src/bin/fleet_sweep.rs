//! Fleet robustness experiment: health-routed serving vs naive
//! round-robin under identical seeded fault storms.
//!
//! One seeded world — heterogeneous Table-1 device profiles, a
//! priority-mixed request stream, and a fleet-level fault plan
//! (correlated crash storms with cold-start replay, independent
//! crashes, link delay/loss, per-device brownout traces) — is
//! replayed under both routing policies by [`FleetSim`]. The robust
//! arm routes on health probes and EWMA latency, retries with seeded
//! exponential backoff, trips per-device circuit breakers, and sheds
//! by priority; the naive arm dispatches round-robin, once.
//!
//! With a fixed `--seed`, output is byte-identical across runs — CI
//! runs the binary twice at 1000 devices and compares (`cmp`), then
//! gates on the in-binary asserts: zero unrecovered requests in the
//! robust arm, strictly better p999 TTFT, SLO attainment, and
//! goodput than round-robin, p999 TTFT at or above the lost penalty
//! in any arm that loses more than 0.1% of its requests, and a clean
//! `retry-storm` / `shed-starvation` fleet lint.
//!
//! `--events-out FILE` also records the typed fleet event-log pair and
//! gates the arms through the past-time-LTL monitor: robust must
//! certify clean, round-robin must reproduce its known violations.
//! `--jobs` only changes wall-clock time (CI `cmp`s `--jobs 1` against
//! `--jobs 4`). Run with `--help` for the flags, their defaults and
//! ranges.

use hetero_bench::cli::{self, Flag, MAX_DEVICES, MAX_JOBS, MAX_REQUESTS};
use hetero_bench::{save_json, Table};
use hetero_fleet::{FleetComparison, FleetConfig, FleetLogPair, FleetSim, RetryPolicy};

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

fn pct_ppm(ppm: u64) -> String {
    format!("{:.2}", ppm as f64 / 10_000.0)
}

fn gate(cmp: &FleetComparison, lost_penalty_ns: u64) {
    let (r, n) = (&cmp.robust, &cmp.naive);
    // Each lost request is recorded at the lost penalty, so an arm
    // losing more than 0.1% of its requests has its p999 TTFT at or
    // above it — a histogram that clamps its tail would fail here.
    for arm in [r, n] {
        assert!(
            arm.lost * 1000 <= arm.offered || arm.ttft_p999_ns >= lost_penalty_ns,
            "{} arm lost {} of {} requests but reports p999 TTFT {} ns below the \
             {} ns lost penalty",
            arm.policy,
            arm.lost,
            arm.offered,
            arm.ttft_p999_ns,
            lost_penalty_ns
        );
    }
    assert_eq!(
        r.lost, 0,
        "robust arm stranded {} requests: retry/breaker/probe layers failed to recover",
        r.lost
    );
    assert!(
        n.lost > 0,
        "fault plan never bit the naive arm; storm too weak to gate on"
    );
    assert!(
        r.ttft_p999_ns < n.ttft_p999_ns,
        "robust p999 TTFT {} must beat round-robin {}",
        r.ttft_p999_ns,
        n.ttft_p999_ns
    );
    assert!(
        r.attainment_ppm > n.attainment_ppm,
        "robust SLO attainment {} ppm must beat round-robin {} ppm",
        r.attainment_ppm,
        n.attainment_ppm
    );
    assert!(
        r.goodput > n.goodput,
        "robust goodput {} must beat round-robin {}",
        r.goodput,
        n.goodput
    );
    assert!(
        r.retries > 0,
        "no retry fired under the standard fault plan"
    );
    assert!(
        r.breaker_trips > 0,
        "no breaker tripped under the standard fault plan"
    );
}

fn fleet_lint(cmp: &FleetComparison) {
    let mut report = hetero_analyze::Report::new();
    report.extend(hetero_analyze::check_retry_policy(
        &RetryPolicy::standard(),
        "fleet_sweep/RetryPolicy::standard",
    ));
    report.extend(hetero_analyze::check_fleet_arm(
        &cmp.robust,
        &format!("fleet_sweep[{}]/robust", cmp.seed),
    ));
    for d in &report.findings {
        eprintln!("{d}");
    }
    println!(
        "fleet lint (retry-storm, shed-starvation): {} deny, {} warn",
        report.summary.deny, report.summary.warn
    );
    assert!(report.is_clean(), "fleet policy/evidence failed the lint");
    assert_eq!(
        report.summary.warn, 0,
        "shed-starvation warning on the shipped policy"
    );
}

/// Temporal certification gate over the recorded event-log pair: the
/// robust arm must sweep clean through every past-time-LTL spec, and
/// the round-robin arm must reproduce its two known violations (no
/// census contract, blind batch admission mid-storm) — so the monitor
/// is continuously proven able to detect what the naive design does
/// wrong, not just to pass the good one.
fn monitor_gate(pair: &FleetLogPair) {
    let robust = hetero_analyze::monitor_fleet_log(&pair.robust);
    assert!(
        robust.findings.is_empty(),
        "robust arm violated temporal specs: {:?}",
        robust.findings
    );
    let naive = hetero_analyze::monitor_fleet_log(&pair.naive);
    for expected in [
        hetero_analyze::rules::CENSUS_STALENESS,
        hetero_analyze::rules::BROWNOUT_UNSHED,
    ] {
        assert!(
            naive.findings.iter().any(|d| d.rule_id == expected),
            "round-robin arm no longer trips `{expected}`; naive-violation evidence lost"
        );
    }
    println!(
        "temporal monitor: robust clean ({} events, {} spec instances); round-robin \
         violates [census-staleness, brownout-unshed] [verified]",
        robust.events, robust.instances
    );
}

fn main() {
    let args = cli::parse(
        "fleet_sweep",
        "fleet-scale fault-tolerant serving: robust router vs round-robin under seeded fault storms",
        &[
            Flag::uint("--seed", "N", 42, 0..=u64::MAX, "workload/fault/jitter seed"),
            Flag::uint("--devices", "N", 256, 1..=MAX_DEVICES, "fleet size"),
            Flag::uint("--requests", "N", 3000, 1..=MAX_REQUESTS, "requests offered"),
            Flag::uint(
                "--jobs",
                "N",
                1,
                1..=MAX_JOBS,
                "workers for the calibration sessions, one per SoC class and bandwidth \
step; output is byte-identical for every value",
            ),
            Flag::switch("--json", "print the machine-readable comparison on stdout"),
            Flag::path(
                "--events-out",
                "FILE",
                "record the typed event-log pair as JSON and run the temporal monitor gate",
            ),
        ],
    );
    let (seed, devices, requests) = (
        args.uint("--seed"),
        args.size("--devices"),
        args.size("--requests"),
    );
    let events_out = args.path("--events-out");
    println!(
        "Fleet sweep: robust router vs round-robin (InternLM-1.8B, {} devices, \
         {} requests, seed {})\n",
        devices, requests, seed
    );

    let sim = FleetSim::with_jobs(
        FleetConfig::standard(seed, devices, requests),
        args.size("--jobs"),
    );
    for p in sim.profiles() {
        println!(
            "profile: {} (prefill {} ns/tok, decode {} ns/tok)",
            p.soc, p.prefill_ns_per_token, p.decode_ns_per_token
        );
    }
    println!();
    // Event recording is opt-in and purely observational: the default
    // path must keep producing byte-identical reports.
    let (cmp, pair) = if events_out.is_some() {
        let (cmp, pair) = sim.compare_events();
        (cmp, Some(pair))
    } else {
        (sim.compare(), None)
    };

    let (r, n) = (&cmp.robust, &cmp.naive);
    let mut t = Table::new(&["metric", "robust", "round-robin"]);
    for (name, a, b) in [
        ("offered", r.offered, n.offered),
        ("served", r.served, n.served),
        ("shed", r.shed, n.shed),
        ("unrecovered", r.lost, n.lost),
        ("retries", r.retries, n.retries),
        ("breaker trips", r.breaker_trips, n.breaker_trips),
        ("goodput", r.goodput, n.goodput),
    ] {
        t.row(&[name.into(), a.to_string(), b.to_string()]);
    }
    t.row(&[
        "SLO attainment (%)".into(),
        pct_ppm(r.attainment_ppm),
        pct_ppm(n.attainment_ppm),
    ]);
    t.row(&["p50 TTFT (ms)".into(), ms(r.ttft_p50_ns), ms(n.ttft_p50_ns)]);
    t.row(&["p99 TTFT (ms)".into(), ms(r.ttft_p99_ns), ms(n.ttft_p99_ns)]);
    t.row(&[
        "p999 TTFT (ms)".into(),
        ms(r.ttft_p999_ns),
        ms(n.ttft_p999_ns),
    ]);
    t.row(&["p99 TPOT (ms)".into(), ms(r.tpot_p99_ns), ms(n.tpot_p99_ns)]);
    t.row(&[
        "fleet busy (%)".into(),
        pct_ppm(r.busy_ppm),
        pct_ppm(n.busy_ppm),
    ]);
    t.print();
    println!(
        "\nSLOs: TTFT {} ms, TPOT {} ms (quantiles are log-linear bucket \
         upper bounds; lost requests recorded at the 4x-SLO penalty)",
        ms(r.slo_ttft_ns),
        ms(r.slo_tpot_ns)
    );

    gate(&cmp, sim.lost_penalty().as_nanos());
    println!(
        "robust arm: 0 unrecovered, p999 TTFT / attainment / goodput all \
         strictly better than round-robin [verified]"
    );
    fleet_lint(&cmp);
    if let (Some(path), Some(pair)) = (events_out, &pair) {
        let mut text = serde_json::to_string(pair).expect("serialize event-log pair");
        text.push('\n');
        std::fs::write(path, text).expect("write event log");
        println!("events: wrote {path}");
        monitor_gate(pair);
    }

    if args.switch("--json") {
        println!(
            "{}",
            serde_json::to_string(&cmp).expect("serialize comparison")
        );
    }
    save_json("fleet_sweep", &cmp);
}
