//! Golden-file tests pinning the observability layer's two exported
//! encodings: the Chrome trace-event JSON and the metrics snapshot.
//!
//! Both artifacts are consumed outside the crate — traces load in
//! Perfetto and are `cmp`'d by the CI determinism gate, metrics ride
//! on `SessionReport` — so any change to event layout, key order, or
//! value encoding must be an explicit, reviewed diff. Two larger
//! traces are pinned by length and FNV-1a digest only
//! (`obs_digests.txt`): the 300/32 session `perfbench`'s `device-mix`
//! exports, and the adaptive `fault_sweep` arm the runtime controller
//! splices from per-request engine timelines. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p heterollm --test obs_golden`.

use hetero_soc::disturb::DisturbanceTrace;
use hetero_soc::SimTime;
use heterollm::obs::{chrome, MetricsRegistry, Timeline};
use heterollm::runtime::{conversation_traffic, ControllerConfig, RuntimeController, SloPolicy};
use heterollm::{EngineKind, InferenceSession, ModelConfig};

/// The pinned session: Hetero-tensor on InternLM-1.8B, 64-token
/// prompt, 1 decoded token — small enough that the golden trace stays
/// reviewable, big enough that the solver actually partitions across
/// GPU and NPU (sync flows, graph-cache work, both phases). The tiny
/// config is no good here: its shapes solve to GPU-only plans with no
/// cross-track structure to pin.
fn observed_session() -> Timeline {
    let mut session =
        InferenceSession::new(EngineKind::HeteroTensor, &ModelConfig::internlm_1_8b());
    let (_, tl) = session.try_run_observed(64, 1).expect("built-in trace");
    tl
}

fn assert_golden(actual: &str, path: &str, what: &str) {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, actual).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("golden file checked in");
    assert_eq!(
        actual, golden,
        "{what} encoding changed; review and regenerate with UPDATE_GOLDEN=1"
    );
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The adaptive arm of `fault_sweep --seed 42` at its default 24
/// requests, recorded through the runtime controller. `hetero-bench`'s
/// `fault_trace_golden` test runs the binary itself against the same
/// digest lines.
fn controller_session() -> Timeline {
    let model = ModelConfig::internlm_1_8b();
    let requests = conversation_traffic(42, 24, SimTime::from_millis(800));
    let cfg = ControllerConfig::adaptive(SloPolicy::calibrated(&model));
    let mut ctl = RuntimeController::new(&model, cfg);
    ctl.enable_timeline();
    ctl.run(&requests, &DisturbanceTrace::standard(42))
        .expect("standard trace is well-formed");
    ctl.take_timeline().expect("timeline armed")
}

#[test]
fn chrome_trace_json_is_golden() {
    let tl = observed_session();
    tl.check_well_formed().expect("well-formed timeline");
    assert_golden(
        &chrome::to_chrome_json(&tl),
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/obs_trace.json"),
        "Chrome trace",
    );
}

#[test]
fn metrics_snapshot_json_is_golden_and_all_integer() {
    let tl = observed_session();
    let snap = MetricsRegistry::from_timeline(&tl).snapshot();
    let json = serde_json::to_string_pretty(&snap).expect("serialize snapshot");
    assert!(
        !json.contains('.'),
        "metrics snapshot must be all-integer (no floats, no dotted names): {json}"
    );
    assert_golden(
        &json,
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/obs_metrics.json"),
        "metrics snapshot",
    );
}

/// Length and digest of the Chrome trace and compact metrics snapshot
/// of traces too large to check in whole: Hetero-tensor InternLM-1.8B
/// at 300/32 (the session `perfbench` `device-mix` exports) and the
/// adaptive `fault_sweep` arm.
#[test]
fn larger_trace_digests_are_golden() {
    let mut session =
        InferenceSession::new(EngineKind::HeteroTensor, &ModelConfig::internlm_1_8b());
    let (_, session) = session.try_run_observed(300, 32).expect("built-in trace");
    let mut lines = String::new();
    for (name, tl) in [
        ("session_300_32", session),
        ("fault_sweep_adaptive", controller_session()),
    ] {
        tl.check_well_formed().expect("well-formed timeline");
        let metrics = MetricsRegistry::from_timeline(&tl).snapshot();
        let metrics = serde_json::to_string(&metrics).expect("serialize snapshot");
        for (what, text) in [("trace", chrome::to_chrome_json(&tl)), ("metrics", metrics)] {
            lines.push_str(&format!(
                "{name}.{what} bytes={} fnv1a={:016x}\n",
                text.len(),
                fnv1a(text.as_bytes())
            ));
        }
    }
    assert_golden(
        &lines,
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/obs_digests.txt"),
        "large trace",
    );
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let a = chrome::to_chrome_json(&observed_session());
    let b = chrome::to_chrome_json(&observed_session());
    assert_eq!(a, b, "same-seed traces must serialize byte-identically");
}

#[test]
fn golden_trace_parses_with_expected_structure() {
    let json = chrome::to_chrome_json(&observed_session());
    let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let events = v["traceEvents"].as_array().expect("traceEvents array");

    // All four process rows present (stable Perfetto layout), every
    // non-metadata event has integer pid/tid/ts, and kernel spans land
    // on more than one backend track.
    for name in ["GPU", "NPU", "CPU", "Controller"] {
        assert!(
            events.iter().any(|e| {
                e["name"].as_str() == Some("process_name")
                    && e["args"]["name"].as_str() == Some(name)
            }),
            "missing process row {name}"
        );
    }
    let mut kernel_pids = std::collections::BTreeSet::new();
    let mut b_count = 0u64;
    let mut e_count = 0u64;
    for ev in events {
        let ph = ev["ph"].as_str().expect("ph");
        if ph == "M" {
            continue;
        }
        for key in ["pid", "tid", "ts"] {
            assert!(
                ev[key].as_u64().is_some(),
                "{key} must be an integer: {ev:?}"
            );
        }
        match ph {
            "B" => {
                b_count += 1;
                if ev["cat"].as_str() == Some("kernel") {
                    kernel_pids.insert(ev["pid"].as_u64().expect("pid"));
                }
            }
            "E" => e_count += 1,
            _ => {}
        }
    }
    assert_eq!(b_count, e_count, "every submit needs a matching complete");
    assert!(
        kernel_pids.len() >= 2,
        "hetero-tensor kernels should span multiple backend tracks, got {kernel_pids:?}"
    );
}

#[test]
fn flows_cross_tracks_at_sync_edges() {
    let json = chrome::to_chrome_json(&observed_session());
    let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    let mut crossed = false;
    for ev in events {
        if ev["ph"].as_str() == Some("s") {
            let id = ev["id"].as_u64().expect("flow id");
            let finish = events
                .iter()
                .find(|e| e["ph"].as_str() == Some("f") && e["id"].as_u64() == Some(id))
                .expect("matching finish");
            if finish["pid"].as_u64() != ev["pid"].as_u64() {
                crossed = true;
                break;
            }
        }
    }
    assert!(crossed, "at least one flow should cross backend tracks");
}
