//! Golden-file test pinning the JSON encoding of
//! [`heterollm::report::IntegritySummary`].
//!
//! The integrity report is consumed by the CI determinism gate
//! (`fault_sweep --integrity` runs twice and `cmp`s the output), so
//! any change to field names, field order, or value encoding must be
//! an explicit, reviewed diff. Three runs are pinned: `Recover` and
//! `Verify` under the standard SDC trace, and a clean `Verify` run.
//! Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p heterollm --test integrity_golden`.

use hetero_soc::disturb::SdcTrace;
use heterollm::functional_engine::FunctionalHeteroEngine;
use heterollm::integrity::IntegrityMode;
use heterollm::ModelConfig;

/// The summary of one deterministic run: tiny weights (seed 77), the
/// 8-token prompt, 12 generated tokens, in `mode`, optionally injected
/// with the standard SDC trace (seed 42).
fn summary_json(mode: IntegrityMode, sdc: bool) -> String {
    let mut engine = FunctionalHeteroEngine::new(ModelConfig::tiny(), 77)
        .unwrap()
        .with_integrity(mode);
    if sdc {
        engine.inject(&SdcTrace::standard(42));
    }
    engine.generate(&[3, 17, 99, 4, 42, 7, 250, 1], 12).unwrap();
    let summary = engine.integrity_summary().expect("integrity summary");
    serde_json::to_string_pretty(&summary).expect("serialize summary")
}

/// The summary the unit tests also pin: recover mode under the
/// standard SDC trace.
fn recover_summary_json() -> String {
    summary_json(IntegrityMode::Recover, true)
}

/// Compare `json` with `tests/golden/{name}`, rewriting it first when
/// `UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, json: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, json).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path).expect("golden file checked in");
    assert_eq!(
        json, golden,
        "{name}: IntegritySummary JSON changed; review and regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn integrity_summary_json_is_golden() {
    assert_golden("integrity_summary.json", &recover_summary_json());
}

#[test]
fn clean_verify_summary_is_golden() {
    // Verify mode on a clean run: the tile and KV-row counts and the
    // detection tax, with nothing detected.
    assert_golden(
        "integrity_summary_verify.json",
        &summary_json(IntegrityMode::Verify, false),
    );
}

#[test]
fn faulted_verify_summary_is_golden() {
    // Verify mode under the standard trace: every fault detected,
    // none corrected, sticky KV corruption re-flagging each forward.
    assert_golden(
        "integrity_summary_verify_sdc.json",
        &summary_json(IntegrityMode::Verify, true),
    );
}

#[test]
fn integrity_summary_covers_every_counter() {
    // The golden file must exercise the full shape: every field name
    // appears, and the structural counters are non-zero so a field
    // accidentally hard-wired to zero cannot hide.
    let json = recover_summary_json();
    for field in [
        "injected",
        "detected",
        "corrected",
        "uncorrectable",
        "tiles_verified",
        "tile_mismatches",
        "tile_recomputes",
        "kv_rows_verified",
        "kv_mismatches",
        "kv_rollbacks",
        "replayed_tokens",
        "graphs_verified",
        "graph_mismatches",
        "graph_rebuilds",
        "fallback_escalations",
        "verify_overhead_pct",
        "recompute_p50",
        "recompute_p99",
    ] {
        assert!(json.contains(&format!("\"{field}\"")), "missing {field}");
    }
}
