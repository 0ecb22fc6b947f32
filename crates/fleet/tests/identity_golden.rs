//! Cross-commit identity goldens for the simulated numbers the fleet
//! is built from.
//!
//! CI's `cmp` gates compare two runs of the *same* build, so a
//! deterministic change to what an engine session or the solver
//! computes would pass them. These files pin the outputs themselves:
//! the class calibration profiles, the per-device calibration ppm
//! values, and both arms' `ArmReport` of a small fleet. A host-speed
//! change must leave every byte in place. Regenerate (only for an
//! intended, reviewed change of simulated numbers) with
//! `UPDATE_GOLDEN=1 cargo test -p hetero-fleet --test identity_golden`.

use hetero_fleet::{
    calibrate_devices, calibrate_profiles_with_socs, FleetConfig, FleetSim, RouterPolicy,
};
use heterollm::ModelConfig;

fn check_golden(file: &str, mut json: String) {
    json.push('\n');
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &json).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path).expect("golden file checked in");
    assert_eq!(
        json, golden,
        "{file}: simulated numbers changed; review, and regenerate with UPDATE_GOLDEN=1 only if \
         the change is intended"
    );
}

#[test]
fn class_and_device_calibration_are_golden() {
    let model = ModelConfig::internlm_1_8b();
    let (profiles, socs) = calibrate_profiles_with_socs(&model);
    check_golden(
        "class_profiles.json",
        serde_json::to_string(&profiles).expect("serialize profiles"),
    );
    let calib = calibrate_devices(&model, &profiles, &socs, 42, 64, 1);
    assert_eq!(calib.faulted, 0);
    check_golden(
        "device_calibration.json",
        serde_json::to_string(&calib.devices).expect("serialize calibration"),
    );
}

#[test]
fn fleet_arm_reports_are_golden() {
    let sim = FleetSim::new(FleetConfig::standard(42, 32, 240));
    let arms = [RouterPolicy::Robust, RouterPolicy::RoundRobin].map(|p| sim.run(p));
    check_golden(
        "fleet_arms.json",
        serde_json::to_string(&arms.to_vec()).expect("serialize arm reports"),
    );
}
