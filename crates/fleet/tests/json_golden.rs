//! Cross-commit golden of the JSON bytes the fleet writes.
//!
//! The other goldens pin small, hand-built shapes; this one pins the
//! FNV-1a digest and byte length of whole seeded artifacts: the compact
//! `FleetLogPair` and `RolloutLogSet` of a 64-device world (the bytes
//! `--events-out` writes) and the pretty-printed `ArmReport` of both
//! arms. Any change to how the JSON layer renders a value shows here.
//! One more line digests the 512-device, 3000-request seed-42 world the
//! `fleet-replay` benchmark replays (fault storms, pool fallbacks and
//! breaker churn): its recorded arm pair plus both candidates' rollout
//! reports and master logs, concatenated. The last line digests the
//! four rollout reports alone (both candidates in both worlds), so a
//! change to how the logs are laid out cannot move a verdict unseen.
//! A host-speed change must leave every line in place. Regenerate (only
//! for an intended, reviewed change of the serialized form) with
//! `UPDATE_GOLDEN=1 cargo test -p hetero-fleet --test json_golden`.

use hetero_fleet::{
    FleetConfig, FleetSim, PolicyRevision, RolloutConfig, RolloutController, RolloutLogSet,
};

/// The two rollout candidates every world here is rolled out against:
/// a 2.5× regression and a 0.93× improvement.
fn candidates(profiles: usize) -> [PolicyRevision; 2] {
    [
        PolicyRevision::uniform(7, "npu-inversion", profiles, 2_500_000),
        PolicyRevision::uniform(8, "tuned-partition", profiles, 930_000),
    ]
}

/// The recorded arm pair, then each candidate's rollout report and
/// master log, as one compact JSON text; and the reports alone.
fn replay_world_json(sim: &FleetSim) -> serde_json::Result<(String, String)> {
    let (_, pair) = sim.compare_events();
    let mut text = serde_json::to_string(&pair)?;
    let mut reports = String::new();
    let ctl = RolloutController::new(sim, RolloutConfig::standard());
    for candidate in candidates(sim.profiles().len()) {
        let (report, log) = ctl.run(&candidate);
        let report = serde_json::to_string(&report)?;
        text.push_str(&report);
        text.push_str(&serde_json::to_string(&log)?);
        reports.push_str(&report);
    }
    Ok((text, reports))
}

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
    let ctl = RolloutController::new(&sim, RolloutConfig::standard());
    let (reports, runs): (Vec<_>, Vec<_>) = candidates(sim.profiles().len())
        .iter()
        .map(|candidate| ctl.run(candidate))
        .unzip();
    let set = RolloutLogSet { runs };
    let (replay_world, replay_reports) =
        replay_world_json(&FleetSim::new(FleetConfig::standard(42, 512, 3000)))
            .expect("fleet artifacts serialize");
    let mut all_reports = String::new();
    for report in &reports {
        all_reports.push_str(&serde_json::to_string(report).expect("reports serialize"));
    }
    all_reports.push_str(&replay_reports);

    let artifacts = [
        ("pair.compact", serde_json::to_string(&pair)),
        ("rollout_set.compact", serde_json::to_string(&set)),
        (
            "robust_arm.pretty",
            serde_json::to_string_pretty(&cmp.robust),
        ),
        ("naive_arm.pretty", serde_json::to_string_pretty(&cmp.naive)),
        ("replay_world_512.compact", Ok(replay_world)),
        ("rollout_reports.compact", Ok(all_reports)),
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
