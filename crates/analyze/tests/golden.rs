//! Golden-file test pinning the JSON encoding of the concurrency and
//! integrity diagnostics (`data-race`, `unsynchronized-reuse`,
//! `lost-signal`, `interleaving-determinism`, `unverified-sink`).
//!
//! The `analyze` CLI's JSON output is consumed by the CI gate; the
//! golden file makes any change to field names, severity strings,
//! message wording, or ordering an explicit, reviewed diff. Regenerate
//! with `UPDATE_GOLDEN=1 cargo test -p hetero-analyze --test golden`.

use hetero_analyze::explore::{explore_schedule, ExploreConfig};
use hetero_analyze::race::{check_log, check_schedule_races};
use hetero_analyze::sched::check_unverified_sink;
use hetero_analyze::{rules, EventKind, Report, SyncEvent, SyncSchedule};
use hetero_graph::partition::PartitionPlan;
use hetero_soc::sync::SyncMechanism;
use hetero_soc::{Backend, SimTime};
use hetero_tensor::shape::MatmulShape;
use heterollm::trace::{ConcurrencyLog, ConcurrencyOp};

fn ev(label: &str, backend: Backend, kind: EventKind, waits_on: Vec<usize>) -> SyncEvent {
    SyncEvent {
        label: label.into(),
        backend,
        kind,
        waits_on,
    }
}

/// One deterministic finding per new rule, aggregated in a fixed order.
fn diagnostics_report() -> Report {
    let mut report = Report::new();
    let mech = SyncMechanism::Fast;

    // data-race: a hybrid plan's rendezvous with the NPU edge deleted.
    let mut racy = SyncSchedule::for_plan(
        &PartitionPlan::HybridCut {
            padded_m: 512,
            gpu_cols: 1024,
        },
        MatmulShape::new(300, 4096, 4096),
    );
    racy.events[2].waits_on.pop();
    report.extend(check_schedule_races(
        &racy,
        mech,
        "golden/hybrid[deleted-npu-edge]",
    ));

    // lost-signal: an extra wait on a flag nothing signals.
    let mut lost = SyncSchedule::for_plan(
        &PartitionPlan::HybridCut {
            padded_m: 512,
            gpu_cols: 1024,
        },
        MatmulShape::new(300, 4096, 4096),
    );
    lost.events[2].waits_on.push(77);
    report.extend(check_schedule_races(
        &lost,
        mech,
        "golden/hybrid[dangling-wait]",
    ));

    // unsynchronized-reuse: a recycled slot re-acquired with no edge.
    let mut log = ConcurrencyLog::new();
    for op in [
        ConcurrencyOp::BufferAcquire {
            buffer: 1,
            bytes: 4096,
        },
        ConcurrencyOp::BufferWrite { buffer: 1 },
        ConcurrencyOp::BufferRelease { buffer: 1 },
        ConcurrencyOp::Signal {
            mechanism: mech,
            token: 1,
        },
    ] {
        log.push(SimTime::ZERO, Backend::Gpu, op);
    }
    log.push(
        SimTime::ZERO,
        Backend::Npu,
        ConcurrencyOp::BufferAcquire {
            buffer: 1,
            bytes: 4096,
        },
    );
    report.extend(check_log(&log, "golden/recycled-slot"));

    // interleaving-determinism: two unordered same-backend submissions.
    let nondet = SyncSchedule {
        events: vec![
            ev("gpu a", Backend::Gpu, EventKind::Submit, vec![]),
            ev("gpu b", Backend::Gpu, EventKind::Submit, vec![]),
            ev("npu c", Backend::Npu, EventKind::Submit, vec![]),
            ev("join", Backend::Cpu, EventKind::Rendezvous, vec![0, 2]),
        ],
    };
    let (_, diags) = explore_schedule(&nondet, &ExploreConfig::default(), "golden/unordered-gpu");
    report.extend(diags);

    // unverified-sink: a base plan schedule with no verify nodes lets
    // the NPU output flow into its consumer unchecked.
    let unverified = SyncSchedule::for_plan(
        &PartitionPlan::NpuOnly { padded_m: 512 },
        MatmulShape::new(300, 4096, 4096),
    );
    report.extend(check_unverified_sink(
        &unverified,
        "golden/npu-only[no-verify]",
    ));

    report
}

#[test]
fn concurrency_diagnostics_json_is_golden() {
    let json = diagnostics_report().to_json();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/race_diagnostics.json"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &json).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("golden file checked in");
    assert_eq!(
        json, golden,
        "diagnostic JSON encoding changed; review and regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_report_covers_every_new_rule() {
    let report = diagnostics_report();
    let ids: Vec<&str> = report.findings.iter().map(|d| d.rule_id.as_str()).collect();
    for rule in [
        rules::DATA_RACE,
        rules::LOST_SIGNAL,
        rules::UNSYNCHRONIZED_REUSE,
        rules::INTERLEAVING_DETERMINISM,
        rules::UNVERIFIED_SINK,
    ] {
        assert!(ids.contains(&rule), "missing {rule}: {ids:?}");
    }
    assert_eq!(report.summary.checked, 5);
    assert!(!report.is_clean());
}
