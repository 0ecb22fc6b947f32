//! Per-device calibration micro-sessions.
//!
//! Class-level calibration ([`crate::device::calibrate_profiles`])
//! prices every device of a Table-1 SoC class identically. Real
//! fleets are not that uniform: two phones with the same SoC differ
//! by binning, DVFS tables, DRAM vendor, and ambient temperature —
//! the silicon lottery. Each device draws a memory-bandwidth factor
//! on a 0.1% grid across ±3% ([`SILICON_STEP_PPM`],
//! [`SILICON_SPREAD_PPM`]: 61 steps), and this module runs one *real
//! engine micro-session per distinct (class, step)* on the class
//! [`hetero_soc::SocConfig`] scaled by that factor. It records how far
//! each device's measured per-token latencies sit from its class
//! profile, as all-integer parts-per-million adjustments. At most
//! `classes × 61` sessions run at any fleet size; every device then
//! reads its key's result.
//!
//! The sessions are completely independent — each is a pure function
//! of its `(class, step)` key: the engine runs on its own SoC
//! simulator instance, and the result lands in the output vector *by
//! key index*. That makes the stage embarrassingly parallel, and
//! [`heterollm::exec::Executor`] runs it under `--jobs N` with
//! byte-identical output for every worker count (the determinism
//! contract `fleet_sweep` is gated on).
//!
//! A device whose key's engine session faults during calibration
//! falls back to its class profile exactly
//! ([`DeviceCalibration::neutral`]) and is counted, mirroring how
//! class calibration skips faulting SoCs.

use hetero_soc::SocConfig;
use hetero_tensor::rng::draw;
use heterollm::engines::HeteroTensorEngine;
use heterollm::exec::Executor;
use heterollm::{InferenceSession, ModelConfig};
use serde::{Deserialize, Serialize};

use crate::device::DeviceProfile;
use crate::profiler::PPM;

/// Draw-offset namespace for per-device silicon-lottery perturbation
/// (decorrelated from fault-plan and selection namespaces).
const OFF_SILICON: u64 = 11 << 40;

/// Prompt length of the per-device micro-session. Much shorter than
/// the class shape ([`crate::device::CALIB_PROMPT`]): the class pass
/// anchors absolute latency, this pass only measures the *ratio* to
/// it, and a fleet runs up to `classes × 61` of these.
pub const DEVICE_CALIB_PROMPT: usize = 64;
/// Decode steps of the per-device micro-session.
pub const DEVICE_CALIB_DECODE: usize = 4;

/// Half-width of the silicon-lottery bandwidth perturbation, ppm.
/// Memory bandwidth moves by at most ±3%, which keeps every device
/// well inside the online profiler's 25% drift-resolve threshold:
/// binning spread must never masquerade as drift.
pub const SILICON_SPREAD_PPM: u64 = 30_000;

/// Width of one silicon-lottery step, ppm: every device's bandwidth
/// factor sits on a 0.1% grid across the spread.
pub const SILICON_STEP_PPM: u64 = 1_000;

/// Grid points across `[1 - spread, 1 + spread]`, both ends included
/// (61 at 0.1% steps over ±3%).
const SILICON_STEPS: u64 = 2 * SILICON_SPREAD_PPM / SILICON_STEP_PPM + 1;

/// How one device's measured per-token latencies sit relative to its
/// class profile, in parts per million (exactly [`PPM`] = on-profile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceCalibration {
    /// Measured prefill ns/token as ppm of the class profile's.
    pub prefill_adjust_ppm: u64,
    /// Measured decode ns/token as ppm of the class profile's.
    pub decode_adjust_ppm: u64,
}

impl DeviceCalibration {
    /// The class profile verbatim — used when a device's calibration
    /// session faults.
    pub const fn neutral() -> Self {
        Self {
            prefill_adjust_ppm: PPM,
            decode_adjust_ppm: PPM,
        }
    }
}

/// The calibrated fleet: one [`DeviceCalibration`] per device plus
/// the count of devices whose sessions faulted (and fell back to
/// their class profile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetCalibration {
    /// Per-device adjustments, indexed by device id.
    pub devices: Vec<DeviceCalibration>,
    /// Devices whose calibration session faulted.
    pub faulted: u64,
    /// Engine micro-sessions actually run: one per distinct
    /// `(class, step)` key, class baselines included.
    pub sessions: u64,
}

/// The per-device silicon-lottery step, drawn uniformly from the
/// grid's `0..SILICON_STEPS` on the device-indexed stream.
fn silicon_step(seed: u64, device: usize) -> usize {
    (draw(seed, OFF_SILICON + device as u64) % SILICON_STEPS) as usize
}

/// The bandwidth factor of grid step `step`: `1 - spread` at step 0,
/// exactly `1.0` at the centre step, `1 + spread` at the last.
fn step_factor(step: usize) -> f64 {
    let ppm = PPM - SILICON_SPREAD_PPM + step as u64 * SILICON_STEP_PPM;
    ppm as f64 / PPM as f64
}

/// A device's individual SoC: its class config with every memory
/// bandwidth cap scaled by the silicon-lottery factor.
fn device_soc(class: &SocConfig, factor: f64) -> SocConfig {
    let mut cfg = class.clone();
    cfg.mem.soc_peak_gbps *= factor;
    cfg.mem.cpu_cap_gbps *= factor;
    cfg.mem.gpu_cap_gbps *= factor;
    cfg.mem.npu_cap_gbps *= factor;
    cfg
}

/// Per-token `(prefill, decode)` ns of one calibration micro-session
/// on `cfg`, or `None` if the engine faults.
fn micro_session(model: &ModelConfig, cfg: SocConfig) -> Option<(u64, u64)> {
    let engine = HeteroTensorEngine::with_soc_config(model, cfg);
    let mut session = InferenceSession::from_engine(Box::new(engine));
    let report = session
        .try_run(DEVICE_CALIB_PROMPT, DEVICE_CALIB_DECODE)
        .ok()?;
    Some((
        report.prefill.elapsed.as_nanos() / DEVICE_CALIB_PROMPT as u64,
        report.decode.per_token().as_nanos(),
    ))
}

/// Calibrate every device in the fleet: run one micro-session per
/// distinct `(class, step)` key among devices `0..devices`, across
/// `jobs` workers, and return the index-ordered adjustments.
///
/// Device `d` belongs to class `d % profiles.len()` (the same
/// assignment the replay loop uses) and draws its grid step from
/// `(seed, d)`. Every class's centre step is always run: its factor
/// is exactly `1.0`, so it is the class's unperturbed baseline. At
/// most `classes × 61` sessions run at any fleet size. The output is
/// byte-identical for every `jobs` value — each session depends only
/// on its key and the executor merges by index.
pub fn calibrate_devices(
    model: &ModelConfig,
    profiles: &[DeviceProfile],
    socs: &[SocConfig],
    seed: u64,
    devices: usize,
    jobs: usize,
) -> FleetCalibration {
    assert_eq!(profiles.len(), socs.len(), "profile/soc tables misaligned");
    assert!(!profiles.is_empty(), "no calibrated class profiles");
    let steps = SILICON_STEPS as usize;
    let centre = steps / 2;
    // Key `class * steps + step`, so ascending keys are ascending
    // `(class, step)` pairs.
    let key = |d: usize| (d % socs.len()) * steps + silicon_step(seed, d);
    let mut wanted = vec![false; socs.len() * steps];
    for class in 0..socs.len() {
        wanted[class * steps + centre] = true;
    }
    for d in 0..devices {
        wanted[key(d)] = true;
    }
    let keys: Vec<usize> = (0..wanted.len()).filter(|&k| wanted[k]).collect();
    let measured = Executor::new(jobs).run(keys.len(), |i| {
        let (class, step) = (keys[i] / steps, keys[i] % steps);
        micro_session(model, device_soc(&socs[class], step_factor(step)))
    });
    // The memo: each run key's per-token latencies, indexed by key.
    let mut memo = vec![None; wanted.len()];
    for (&k, m) in keys.iter().zip(measured) {
        memo[k] = m;
    }
    // Project a key's per-token latencies onto its class's centre
    // step — the class profile's *micro-session* measurement, not its
    // headline numbers: the short shape pays proportionally more fixed
    // cost, and only same-shape ratios cancel that.
    let adjust = |k: usize| {
        let ((prefill_ns, decode_ns), (base_prefill, base_decode)) =
            memo[k].zip(memo[k - k % steps + centre])?;
        Some(DeviceCalibration {
            prefill_adjust_ppm: prefill_ns.saturating_mul(PPM) / base_prefill.max(1),
            decode_adjust_ppm: decode_ns.saturating_mul(PPM) / base_decode.max(1),
        })
    };
    let mut faulted = 0u64;
    let devices = (0..devices)
        .map(|d| {
            adjust(key(d)).unwrap_or_else(|| {
                faulted += 1;
                DeviceCalibration::neutral()
            })
        })
        .collect();
    FleetCalibration {
        devices,
        faulted,
        sessions: keys.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::calibrate_profiles_with_socs;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::OnceLock;

    /// InternLM-1.8B with its calibrated class profiles and SoCs,
    /// computed once.
    fn world() -> &'static (ModelConfig, Vec<DeviceProfile>, Vec<SocConfig>) {
        static WORLD: OnceLock<(ModelConfig, Vec<DeviceProfile>, Vec<SocConfig>)> = OnceLock::new();
        WORLD.get_or_init(|| {
            let model = ModelConfig::internlm_1_8b();
            let (profiles, socs) = calibrate_profiles_with_socs(&model);
            (model, profiles, socs)
        })
    }

    /// The unmemoized reference: one micro-session per device at its
    /// grid factor, against a per-class baseline run on the
    /// unperturbed class config. Returns the adjustments and the
    /// faulted-device count.
    fn per_device_reference(seed: u64, devices: usize) -> (Vec<DeviceCalibration>, u64) {
        let (model, _, socs) = world();
        let baseline: Vec<_> = socs
            .iter()
            .map(|cfg| micro_session(model, cfg.clone()))
            .collect();
        let mut faulted = 0;
        let calibration = (0..devices)
            .map(|d| {
                let class = d % socs.len();
                let factor = step_factor(silicon_step(seed, d));
                micro_session(model, device_soc(&socs[class], factor))
                    .zip(baseline[class])
                    .map(
                        |((prefill, decode), (base_prefill, base_decode))| DeviceCalibration {
                            prefill_adjust_ppm: prefill.saturating_mul(PPM) / base_prefill.max(1),
                            decode_adjust_ppm: decode.saturating_mul(PPM) / base_decode.max(1),
                        },
                    )
                    .unwrap_or_else(|| {
                        faulted += 1;
                        DeviceCalibration::neutral()
                    })
            })
            .collect();
        (calibration, faulted)
    }

    proptest! {
        // Each case runs up to 400 reference sessions.
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The memo is exact: every device reads what its own session
        /// would have measured, at any worker count.
        #[test]
        fn memoized_calibration_matches_per_device_sessions(
            seed in 0u64..1_000_000,
            devices in 1usize..=400,
            jobs in prop_oneof![Just(1usize), Just(2), Just(4)],
        ) {
            let (model, profiles, socs) = world();
            let memo = calibrate_devices(model, profiles, socs, seed, devices, jobs);
            let (reference, faulted) = per_device_reference(seed, devices);
            prop_assert_eq!(&memo.devices, &reference);
            prop_assert_eq!(memo.faulted, faulted);
        }
    }

    #[test]
    fn centre_step_device_reads_its_class_profile_exactly() {
        let (model, profiles, socs) = world();
        let centre = SILICON_STEPS as usize / 2;
        assert_eq!(step_factor(centre), 1.0);
        let d = (0..)
            .find(|&d| silicon_step(42, d) == centre)
            .expect("some device draws the centre step");
        let calibration = calibrate_devices(model, profiles, socs, 42, d + 1, 1);
        assert_eq!(calibration.faulted, 0);
        assert_eq!(calibration.devices[d], DeviceCalibration::neutral());
    }

    #[test]
    fn sessions_are_bounded_by_the_grid_not_the_fleet() {
        let (model, profiles, socs) = world();
        let calibration = calibrate_devices(model, profiles, socs, 42, 4096, 2);
        assert_eq!(calibration.devices.len(), 4096);
        assert!(
            calibration.sessions <= socs.len() as u64 * SILICON_STEPS,
            "{} sessions",
            calibration.sessions
        );
    }

    #[test]
    fn per_device_calibration_is_jobs_invariant_and_bounded() {
        let model = ModelConfig::internlm_1_8b();
        let (profiles, socs) = calibrate_profiles_with_socs(&model);
        let serial = calibrate_devices(&model, &profiles, &socs, 42, 12, 1);
        let parallel = calibrate_devices(&model, &profiles, &socs, 42, 12, 4);
        assert_eq!(serial, parallel, "jobs must not change the output");
        assert_eq!(serial.devices.len(), 12);
        assert_eq!(serial.faulted, 0);
        for c in &serial.devices {
            // ±3% bandwidth wiggle cannot move per-token time by more
            // than ~10%, let alone toward the 25% drift threshold.
            assert!(c.prefill_adjust_ppm.abs_diff(PPM) < 100_000, "{c:?}");
            assert!(c.decode_adjust_ppm.abs_diff(PPM) < 100_000, "{c:?}");
        }
        // The lottery is not a constant: some spread must exist.
        assert!(
            serial
                .devices
                .windows(2)
                .any(|w| w[0].prefill_adjust_ppm != w[1].prefill_adjust_ppm),
            "silicon lottery produced a uniform fleet"
        );
    }

    #[test]
    fn silicon_factor_stays_in_band_and_varies() {
        let mut seen_lo = false;
        let mut seen_hi = false;
        let mut steps = BTreeSet::new();
        for d in 0..4000 {
            let step = silicon_step(7, d);
            let f = step_factor(step);
            assert!((0.97..=1.03).contains(&f), "{f}");
            let ppm = (f * PPM as f64).round() as u64;
            assert_eq!(ppm % SILICON_STEP_PPM, 0, "{f} is off the 0.1% grid");
            assert_eq!(ppm as f64 / PPM as f64, f, "{f} is not a grid point");
            seen_lo |= f < 0.995;
            seen_hi |= f > 1.005;
            steps.insert(step);
        }
        assert!(seen_lo && seen_hi, "draws never left the midband");
        assert_eq!(steps.len(), 61, "4000 draws missed a grid step");
    }
}
