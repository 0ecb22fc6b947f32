//! Property-based tests of the observability layer: for any engine,
//! model preset, prompt/decode length, and sync mechanism, an observed
//! session must yield a well-formed timeline whose export and metrics
//! keep their structural contracts.

use hetero_soc::sync::SyncMechanism;
use heterollm::obs::{chrome, MetricsRegistry, SpanKind, Track};
use heterollm::{EngineKind, InferenceSession, ModelConfig};
use proptest::prelude::*;

fn arb_engine() -> impl Strategy<Value = EngineKind> {
    (0..EngineKind::ALL.len()).prop_map(|i| EngineKind::ALL[i])
}

fn arb_model() -> impl Strategy<Value = ModelConfig> {
    prop_oneof![
        Just(ModelConfig::tiny()),
        Just(ModelConfig::internlm_1_8b()),
        Just(ModelConfig::llama_3b()),
    ]
}

fn arb_sync() -> impl Strategy<Value = SyncMechanism> {
    prop_oneof![Just(SyncMechanism::Fast), Just(SyncMechanism::Driver)]
}

proptest! {
    // 11 engine kinds: 48 cases draw each several times.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Spans always nest per track, ends never precede starts, and the
    /// exported JSON parses with every submit matched by a complete.
    #[test]
    fn observed_sessions_are_well_formed(
        kind in arb_engine(),
        model in arb_model(),
        prompt in 1usize..220,
        decode in 0usize..5,
        sync in arb_sync(),
    ) {
        let mut session = InferenceSession::with_sync(kind, &model, sync);
        let (_, tl) = session.try_run_observed(prompt, decode).expect("built-in trace");
        prop_assert!(tl.check_well_formed().is_ok(), "{:?}", tl.check_well_formed());

        let json = chrome::to_chrome_json(&tl);
        let v: serde_json::Value = serde_json::from_str(&json).expect("trace parses");
        let events = v["traceEvents"].as_array().expect("traceEvents");

        // Per-track B/E stack discipline over the file order.
        let mut depth = std::collections::BTreeMap::new();
        let mut submits = 0i64;
        for ev in events {
            match ev["ph"].as_str().expect("ph") {
                "B" => {
                    *depth.entry(ev["pid"].as_u64().expect("pid")).or_insert(0i64) += 1;
                    submits += 1;
                }
                "E" => {
                    let d = depth.entry(ev["pid"].as_u64().expect("pid")).or_insert(0i64);
                    *d -= 1;
                    prop_assert!(*d >= 0, "complete without submit");
                    submits -= 1;
                }
                _ => {}
            }
        }
        prop_assert_eq!(submits, 0, "unmatched submits at end of trace");
    }

    /// The metrics snapshot agrees with the timeline it came from and
    /// stays all-integer for every session shape.
    #[test]
    fn metrics_agree_with_timeline(
        kind in arb_engine(),
        prompt in 1usize..220,
        decode in 0usize..5,
    ) {
        let mut session = InferenceSession::new(kind, &ModelConfig::tiny());
        let (report, tl) = session.try_run_observed(prompt, decode).expect("built-in trace");

        let reg = MetricsRegistry::from_timeline(&tl);
        prop_assert_eq!(reg.counter("flows_total"), tl.flows().len() as u64);
        for track in Track::ALL {
            let name = format!("spans_{}", track.name().to_ascii_lowercase());
            let expect = tl.spans().iter().filter(|s| s.track == track).count() as u64;
            prop_assert_eq!(reg.counter(&name), expect);
        }
        let sync_ns: u64 = tl
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Sync)
            .map(|s| s.duration().as_nanos())
            .sum();
        prop_assert_eq!(reg.counter("sync_wait_ns"), sync_ns);

        let snap = reg.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        prop_assert!(!json.contains('.'), "all-integer snapshot: {}", json);
        // The observed report carries the same snapshot.
        prop_assert_eq!(report.metrics.as_ref(), Some(&snap));
    }
}
