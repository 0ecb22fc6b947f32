//! Robustness experiment: adaptive vs static degradation under a
//! seeded disturbance trace.
//!
//! Both arms serve the identical conversation-traffic stream while the
//! identical [`DisturbanceTrace::standard`] perturbs the SoC — render
//! bursts contending for the FIFO GPU queue (Fig. 18), a thermal
//! throttle step (§4), memory-bandwidth contention, an
//! NPU-unavailability window, and flaky fast-sync rendezvous. The
//! adaptive arm replans, falls back, downgrades sync, and sheds; the
//! static arm keeps its calibration-time plans. Every plan the
//! adaptive controller adopted while degrading is then pushed through
//! `hetero-analyze`'s `fallback-integrity` rule.
//!
//! With a fixed `--seed`, output is byte-identical across runs — CI
//! runs the binary twice and compares (the determinism gate).
//!
//! `--integrity` switches to the silent-data-corruption experiment
//! instead: a seeded [`SdcTrace`] is injected into both a functional
//! engine (real W4A16 math) and the runtime controller, and the run
//! proves 100% detection, zero false positives on clean traces,
//! bit-for-bit recovery of the un-faulted outputs, bounded
//! verification overhead, and a clean `unverified-sink` lint of the
//! verified sync schedules.
//!
//! Flags: `--seed N` (default 42), `--requests N` (default 24),
//! `--jobs N` (workers for the two controller arms, default 1 —
//! output is byte-identical for every value), `--json` (print the
//! machine-readable comparison on stdout), `--integrity` (run the
//! SDC arm), `--analyze` (standard
//! pre-experiment solver lint), `--trace-out PATH` (record the
//! adaptive arm through the observability layer and write a Chrome
//! trace-event JSON — replans, fallbacks, and shed requests appear as
//! `Control` spans on the Controller track), `--metrics` (print the
//! adaptive arm's all-integer metrics snapshot as one JSON line).

use hetero_analyze::sweep::{integrity_lint_models, race_lint_degraded_session};
use hetero_analyze::{check_fallback, PlanContext};
use hetero_bench::{save_json, Table};
use hetero_soc::disturb::{DisturbanceTrace, SdcTrace};
use hetero_soc::SimTime;
use heterollm::functional_engine::FunctionalHeteroEngine;
use heterollm::integrity::IntegrityMode;
use heterollm::report::IntegritySummary;
use heterollm::runtime::{
    conversation_traffic, ControllerConfig, DegradationReport, RuntimeController, SloPolicy,
};
use heterollm::ModelConfig;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Comparison {
    seed: u64,
    adaptive: DegradationReport,
    baseline: DegradationReport,
}

struct Args {
    seed: u64,
    requests: usize,
    jobs: usize,
    json: bool,
    integrity: bool,
    trace_out: Option<String>,
    metrics: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fault_sweep [--seed N] [--requests N] [--jobs N] [--json] [--integrity]\n\
         \x20                  [--analyze] [--trace-out PATH] [--metrics]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 42,
        requests: 24,
        jobs: 1,
        json: false,
        integrity: false,
        trace_out: None,
        metrics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => args.seed = hetero_bench::parse_flag("fault_sweep", "--seed", &value()),
            "--requests" => {
                args.requests = hetero_bench::parse_positive("fault_sweep", "--requests", &value());
            }
            "--jobs" => args.jobs = hetero_bench::parse_positive("fault_sweep", "--jobs", &value()),
            "--json" => args.json = true,
            "--integrity" => args.integrity = true,
            "--trace-out" => args.trace_out = Some(value()),
            "--metrics" => args.metrics = true,
            "--analyze" => {} // consumed by maybe_analyze
            _ => usage(),
        }
    }
    args
}

/// Machine-readable output of the `--integrity` arm. Every field is a
/// token id, an integer counter, or [`SimTime`] nanoseconds, so
/// same-seed runs serialize byte-identically (the CI determinism
/// gate).
#[derive(Debug, Serialize)]
struct IntegrityComparison {
    seed: u64,
    clean_tokens: Vec<u32>,
    recovered_tokens: Vec<u32>,
    functional_recover: IntegritySummary,
    functional_verify: IntegritySummary,
    controller_recover: IntegritySummary,
    controller_verify: IntegritySummary,
    ttft_p99_off: SimTime,
    ttft_p99_verify: SimTime,
}

/// Weight seed of the functional arms. Fixed (the SDC trace varies
/// with `--seed` instead) so every seed exercises the same ground
/// truth the unit tests pin.
const WEIGHT_SEED: u64 = 77;

fn functional_arm(
    mode: IntegrityMode,
    sdc: Option<&SdcTrace>,
) -> (Vec<u32>, Option<IntegritySummary>) {
    const PROMPT: [u32; 8] = [3, 17, 99, 4, 42, 7, 250, 1];
    let mut engine = FunctionalHeteroEngine::new(ModelConfig::tiny(), WEIGHT_SEED)
        .expect("tiny functional engine")
        .with_integrity(mode);
    if let Some(trace) = sdc {
        engine.inject(trace);
    }
    let tokens = engine.generate(&PROMPT, 12).expect("functional generate");
    (tokens, engine.integrity_summary())
}

fn controller_arm(
    model: &ModelConfig,
    mode: IntegrityMode,
    seed: u64,
    n: usize,
    sdc: &SdcTrace,
) -> DegradationReport {
    // Quiet disturbance trace: the comparison isolates the cost of
    // verification from the cost of degradation recovery.
    let requests = conversation_traffic(seed, n, SimTime::from_millis(500));
    let quiet = DisturbanceTrace::new(seed);
    let cfg = ControllerConfig::adaptive(SloPolicy::calibrated(model)).with_integrity(mode);
    RuntimeController::new(model, cfg)
        .run_with_sdc(&requests, &quiet, sdc)
        .expect("quiet trace is well-formed")
}

fn run_integrity(args: &Args) {
    let sdc = SdcTrace::standard(args.seed);
    println!(
        "Integrity: SDC injection, ABFT detection, quarantine-and-recompute \
         (seed {}, {} requests)\n",
        args.seed, args.requests
    );

    // Functional arms: real W4A16 math, so detection and repair are
    // measured against ground truth.
    let (clean, _) = functional_arm(IntegrityMode::Off, None);
    let (vc_tokens, vc) = functional_arm(IntegrityMode::Verify, None);
    let vc = vc.expect("verify summary");
    assert_eq!(vc.detected, 0, "false positive on a clean run: {vc:?}");
    assert_eq!(vc_tokens, clean, "verification must not change the math");
    println!(
        "clean run: {} tiles + {} KV rows verified, 0 false positives [verified]",
        vc.tiles_verified, vc.kv_rows_verified
    );

    let (rec_tokens, rec) = functional_arm(IntegrityMode::Recover, Some(&sdc));
    let rec = rec.expect("recover summary");
    assert!(rec.injected > 0, "no fault landed: {rec:?}");
    assert_eq!(rec.detected, rec.injected, "missed corruption: {rec:?}");
    assert_eq!(
        rec.corrected, rec.detected,
        "unrepaired corruption: {rec:?}"
    );
    assert_eq!(rec.uncorrectable, 0);
    assert_eq!(
        rec_tokens, clean,
        "recovered run must reproduce the un-faulted tokens bit-for-bit"
    );
    println!(
        "faulted run: {} injected, {} detected, {} corrected, output \
         bit-identical to un-faulted run [verified]",
        rec.injected, rec.detected, rec.corrected
    );

    let (ver_tokens, ver) = functional_arm(IntegrityMode::Verify, Some(&sdc));
    let ver = ver.expect("verify summary");
    assert!(ver.detected >= ver.injected, "missed corruption: {ver:?}");
    assert_eq!(ver.corrected, 0);
    assert_eq!(ver.uncorrectable, ver.detected);
    assert_ne!(
        ver_tokens, clean,
        "verify-only must leave the corruption visible in the output"
    );
    println!("verify-only run: detects but does not repair; output diverges [verified]");

    // Controller arms: the DES engines charge the calibrated detection
    // tax, and the quarantine policy prices recovery work.
    let model = ModelConfig::internlm_1_8b();
    let off = controller_arm(&model, IntegrityMode::Off, args.seed, args.requests, &sdc);
    let verify = controller_arm(
        &model,
        IntegrityMode::Verify,
        args.seed,
        args.requests,
        &sdc,
    );
    let recover = controller_arm(
        &model,
        IntegrityMode::Recover,
        args.seed,
        args.requests,
        &sdc,
    );
    assert!(off.session.integrity.is_none());
    let cv = verify.session.integrity.clone().expect("verify summary");
    let cr = recover.session.integrity.expect("recover summary");
    assert_eq!(cr.detected, cr.injected, "missed corruption: {cr:?}");
    assert_eq!(cr.corrected, cr.detected, "unrepaired corruption: {cr:?}");
    assert_eq!(cr.uncorrectable, 0);
    assert_eq!(cv.detected, cv.injected);
    assert_eq!(cv.corrected, 0);
    assert_eq!(cv.uncorrectable, cv.detected);

    // Verification tax stays under the issue's 15% TTFT ceiling.
    let (p99_off, p99_on) = (off.summary.p99_ttft, verify.summary.p99_ttft);
    assert!(
        p99_on.as_nanos() * 100 < p99_off.as_nanos() * 115,
        "verify-on p99 TTFT {p99_on:?} inflates un-verified {p99_off:?} by ≥ 15%"
    );
    assert!(cv.verify_overhead_pct < 15, "{cv:?}");

    let mut t = Table::new(&["metric", "verify", "recover"]);
    for (name, v, r) in [
        ("injected", cv.injected, cr.injected),
        ("detected", cv.detected, cr.detected),
        ("corrected", cv.corrected, cr.corrected),
        ("uncorrectable", cv.uncorrectable, cr.uncorrectable),
        ("tile recomputes", cv.tile_recomputes, cr.tile_recomputes),
        ("kv rollbacks", cv.kv_rollbacks, cr.kv_rollbacks),
        ("graph rebuilds", cv.graph_rebuilds, cr.graph_rebuilds),
        (
            "fallback escalations",
            cv.fallback_escalations,
            cr.fallback_escalations,
        ),
    ] {
        t.row(&[name.into(), v.to_string(), r.to_string()]);
    }
    t.row(&[
        "verify overhead (%)".into(),
        cv.verify_overhead_pct.to_string(),
        cr.verify_overhead_pct.to_string(),
    ]);
    t.row(&[
        "recompute p99 (ms)".into(),
        ms(cv.recompute_p99),
        ms(cr.recompute_p99),
    ]);
    t.print();
    println!(
        "\nverify-on p99 TTFT {} ms vs un-verified {} ms (< 15% inflation) [verified]",
        ms(p99_on),
        ms(p99_off)
    );

    // Static gate: the verified sync schedules of every solver-chosen
    // plan pass the `unverified-sink` rule (and stay race-free).
    let lint = integrity_lint_models(&[model], &[300], hetero_soc::sync::SyncMechanism::Fast);
    for d in &lint.findings {
        eprintln!("{d}");
    }
    println!(
        "verified schedules linted: {} checked, {} deny, {} warn",
        lint.summary.checked, lint.summary.deny, lint.summary.warn
    );
    assert!(lint.is_clean(), "verified schedule failed the lint");

    let comparison = IntegrityComparison {
        seed: args.seed,
        clean_tokens: clean,
        recovered_tokens: rec_tokens,
        functional_recover: rec,
        functional_verify: ver,
        controller_recover: cr,
        controller_verify: cv,
        ttft_p99_off: p99_off,
        ttft_p99_verify: p99_on,
    };
    if args.json {
        println!(
            "{}",
            serde_json::to_string(&comparison).expect("serialize comparison")
        );
    }
    save_json("fault_sweep_integrity", &comparison);
}

fn run_arm(
    model: &ModelConfig,
    cfg: ControllerConfig,
    seed: u64,
    n: usize,
    timeline: bool,
) -> (DegradationReport, Option<heterollm::obs::Timeline>) {
    let requests = conversation_traffic(seed, n, SimTime::from_millis(800));
    let trace = DisturbanceTrace::standard(seed);
    let mut ctl = RuntimeController::new(model, cfg);
    if timeline {
        ctl.enable_timeline();
    }
    let report = ctl
        .run(&requests, &trace)
        .expect("standard trace is well-formed");
    (report, ctl.take_timeline())
}

fn ms(t: SimTime) -> String {
    format!("{:.2}", t.as_millis_f64())
}

fn main() {
    hetero_bench::maybe_help(
        "fault_sweep",
        "adaptive vs static degradation under a seeded disturbance trace",
        &[
            ("--seed N", "disturbance/traffic seed (default 42)"),
            ("--requests N", "requests per arm (default 24)"),
            (
                "--jobs N",
                "workers for the two controller arms (default 1; output is byte-identical \
for every value)",
            ),
            ("--json", "print the machine-readable comparison on stdout"),
            ("--integrity", "run the silent-data-corruption arm instead"),
            (
                "--trace-out PATH",
                "write a Chrome trace-event JSON of the adaptive arm",
            ),
            (
                "--metrics",
                "print the adaptive arm's all-integer metrics snapshot as one JSON line",
            ),
        ],
    );
    hetero_bench::maybe_analyze();
    let args = parse_args();
    if args.integrity {
        run_integrity(&args);
        return;
    }
    let model = ModelConfig::internlm_1_8b();
    println!(
        "Robustness: fault sweep (InternLM-1.8B, {} requests, seed {})\n",
        args.requests, args.seed
    );

    let observed = args.trace_out.is_some() || args.metrics;
    let slo = SloPolicy::calibrated(&model);
    // The two controller arms share nothing but the (cloned) model and
    // seed, so they run as two executor tasks; results come back in
    // index order, keeping output byte-identical for every --jobs.
    let mut arms = heterollm::exec::Executor::new(args.jobs).run(2, |i| {
        if i == 0 {
            run_arm(
                &model,
                ControllerConfig::adaptive(slo),
                args.seed,
                args.requests,
                observed,
            )
        } else {
            run_arm(
                &model,
                ControllerConfig::static_baseline(slo),
                args.seed,
                args.requests,
                false,
            )
        }
    });
    let (baseline, _) = arms.pop().expect("baseline arm");
    let (adaptive, timeline) = arms.pop().expect("adaptive arm");

    let mut t = Table::new(&["metric", "adaptive", "static"]);
    let (a, s) = (&adaptive.summary, &baseline.summary);
    t.row(&[
        "completed".into(),
        a.completed.to_string(),
        s.completed.to_string(),
    ]);
    t.row(&["shed".into(), a.shed.to_string(), s.shed.to_string()]);
    t.row(&[
        "SLO violations".into(),
        a.slo_violations.to_string(),
        s.slo_violations.to_string(),
    ]);
    t.row(&[
        "SLO violation rate".into(),
        format!("{:.2}", a.slo_violation_rate()),
        format!("{:.2}", s.slo_violation_rate()),
    ]);
    t.row(&["p50 TTFT (ms)".into(), ms(a.p50_ttft), ms(s.p50_ttft)]);
    t.row(&["p99 TTFT (ms)".into(), ms(a.p99_ttft), ms(s.p99_ttft)]);
    t.row(&["p50 TPOT (ms)".into(), ms(a.p50_tpot), ms(s.p50_tpot)]);
    t.row(&["p99 TPOT (ms)".into(), ms(a.p99_tpot), ms(s.p99_tpot)]);
    t.row(&[
        "replans".into(),
        a.replans.to_string(),
        s.replans.to_string(),
    ]);
    t.row(&[
        "fallbacks".into(),
        a.fallbacks.to_string(),
        s.fallbacks.to_string(),
    ]);
    t.row(&[
        "sync retries".into(),
        a.sync_retries.to_string(),
        s.sync_retries.to_string(),
    ]);
    t.row(&[
        "sync downgrades".into(),
        a.sync_downgrades.to_string(),
        s.sync_downgrades.to_string(),
    ]);
    t.row(&[
        "mean recovery (ms)".into(),
        ms(a.mean_recovery),
        ms(s.mean_recovery),
    ]);
    t.row(&[
        "unrecovered".into(),
        a.unrecovered.to_string(),
        s.unrecovered.to_string(),
    ]);
    t.row(&[
        "energy (J)".into(),
        format!("{:.2}", adaptive.session.power.energy_j),
        format!("{:.2}", baseline.session.power.energy_j),
    ]);
    t.print();

    // Every plan the adaptive controller adopted while degrading must
    // pass the fallback-integrity rule (acyclic under retry
    // rescheduling, plus all base plan invariants).
    let mut findings = 0usize;
    for rec in &adaptive.fallback_plans {
        let ctx =
            PlanContext::standard(format!("fault_sweep/{}[m={}]", rec.op, rec.m), rec.m, rec.n);
        for d in check_fallback(&rec.plan, &ctx) {
            eprintln!("{d}");
            findings += 1;
        }
    }
    println!(
        "\n{} adopted plans checked against fallback-integrity: {} findings",
        adaptive.fallback_plans.len(),
        findings
    );
    assert_eq!(findings, 0, "degradation-time plans violated invariants");

    // The tentpole claim: adaptive degrades strictly less at the tail.
    assert!(
        a.p99_ttft < s.p99_ttft,
        "adaptive p99 TTFT {:?} must degrade strictly less than static {:?}",
        a.p99_ttft,
        s.p99_ttft
    );
    assert!(a.slo_violation_rate() <= s.slo_violation_rate());
    println!("adaptive p99 TTFT < static p99 TTFT under the same seeded trace [verified]");

    // Happens-before race gate: replay the adaptive arm with the
    // concurrency event log enabled and push it through the
    // vector-clock detector — degradation-time replans, fallbacks, and
    // sync downgrades must never drop an ordering edge.
    let race = race_lint_degraded_session(&model, args.seed, args.requests);
    for d in &race.findings {
        eprintln!("{d}");
    }
    println!(
        "degraded-session concurrency log race-checked: {} deny, {} warn",
        race.summary.deny, race.summary.warn
    );
    assert!(race.is_clean(), "degradation-time schedule raced");

    if let Some(tl) = &timeline {
        tl.check_well_formed()
            .expect("adaptive timeline well-formed");
        if let Some(path) = &args.trace_out {
            let json = heterollm::obs::chrome::to_chrome_json(tl);
            std::fs::write(path, json).expect("write trace");
            println!(
                "trace: {path} ({} spans, {} flows)",
                tl.spans().len(),
                tl.flows().len()
            );
        }
        if args.metrics {
            let snap = heterollm::obs::MetricsRegistry::from_timeline(tl).snapshot();
            println!(
                "{}",
                serde_json::to_string(&snap).expect("metrics serialize")
            );
        }
    }

    let comparison = Comparison {
        seed: args.seed,
        adaptive,
        baseline,
    };
    if args.json {
        println!(
            "{}",
            serde_json::to_string(&comparison).expect("serialize comparison")
        );
    }
    save_json("fault_sweep", &comparison);
}
