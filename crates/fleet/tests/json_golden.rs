//! Cross-commit golden of the JSON bytes the fleet writes.
//!
//! The other goldens pin small, hand-built shapes; this one pins the
//! FNV-1a digest and byte length of whole seeded artifacts: the compact
//! `FleetLogPair` and `RolloutLogSet` of a 64-device world (the bytes
//! `--events-out` writes) and the pretty-printed `ArmReport` of both
//! arms. Any change to how the JSON layer renders a value shows here.
//! A host-speed change must leave every line in place. Regenerate (only
//! for an intended, reviewed change of the serialized form) with
//! `UPDATE_GOLDEN=1 cargo test -p hetero-fleet --test json_golden`.

use hetero_fleet::{
    FleetConfig, FleetSim, PolicyRevision, RolloutConfig, RolloutController, RolloutLogSet,
};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn seeded_fleet_json_is_golden() {
    let sim = FleetSim::new(FleetConfig::standard(42, 64, 480));
    let (cmp, pair) = sim.compare_events();
    let profiles = sim.profiles().len();
    let ctl = RolloutController::new(&sim, RolloutConfig::standard());
    let runs = [
        PolicyRevision::uniform(7, "npu-inversion", profiles, 2_500_000),
        PolicyRevision::uniform(8, "tuned-partition", profiles, 930_000),
    ]
    .iter()
    .map(|candidate| ctl.run(candidate).1)
    .collect();
    let set = RolloutLogSet { runs };

    let artifacts = [
        ("pair.compact", serde_json::to_string(&pair)),
        ("rollout_set.compact", serde_json::to_string(&set)),
        (
            "robust_arm.pretty",
            serde_json::to_string_pretty(&cmp.robust),
        ),
        ("naive_arm.pretty", serde_json::to_string_pretty(&cmp.naive)),
    ];
    let mut lines = String::new();
    for (name, json) in artifacts {
        let json = json.expect("fleet artifacts serialize");
        lines.push_str(&format!(
            "{name} bytes={} fnv1a={:016x}\n",
            json.len(),
            fnv1a(json.as_bytes())
        ));
    }

    let path = format!(
        "{}/tests/golden/json_digests.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &lines).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path).expect("golden file checked in");
    assert_eq!(
        lines, golden,
        "serialized fleet JSON changed; review, and regenerate with UPDATE_GOLDEN=1 only if the \
         change is intended"
    );
}
