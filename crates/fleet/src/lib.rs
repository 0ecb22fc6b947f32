#![warn(missing_docs)]

//! Fleet-scale fault-tolerant serving over the HeteroLLM simulator.
//!
//! The paper characterizes one mobile SoC; production serving runs
//! *millions* of them, and at that scale failures are per-device:
//! crashes, link loss, thermal brownouts, correlated fault storms.
//! This crate layers a cluster-level request router over hundreds to
//! thousands of simulated device sessions (heterogeneous Table-1 SoC
//! profiles, per-device [`hetero_soc::disturb::DisturbanceTrace`]s)
//! and gives it the full robustness toolkit:
//!
//! - per-device health probes and EWMA latency tracking
//!   ([`device::Device`]),
//! - deterministic retry/timeout/exponential-backoff-with-jitter
//!   ([`policy::RetryPolicy`] — seeded, integer-nanosecond,
//!   byte-identical across runs),
//! - per-device circuit breakers with typed state transitions
//!   ([`policy::CircuitBreaker`]),
//! - admission control with priority-aware load shedding
//!   ([`policy::AdmissionControl`]),
//! - a fleet-level fault injector layered on `hetero_soc::disturb`
//!   ([`fault::FaultInjector`] — device crash/restart with cold-start
//!   replay via [`heterollm::coldstart`], link delay/loss, correlated
//!   fault storms, brownout via thermal traces).
//!
//! [`router::FleetSim`] replays an identical seeded workload and
//! fault plan under either the robust policy or naive round-robin and
//! reports fleet-wide SLO attainment ([`report::ArmReport`] — all
//! integers, fleet-wide histograms reported through one
//! [`heterollm::obs::MetricsRegistry`]), so the `fleet_sweep` bench
//! can gate on the robust router strictly dominating round-robin
//! under the same storm.
//!
//! Everything follows the repo-wide determinism discipline: all
//! randomness is splitmix64 draws over the run seed, all reported
//! values are integer nanoseconds or counts, and same-seed runs
//! serialize byte-identically (CI `cmp`s two runs).

pub mod calib;
pub mod device;
pub mod events;
pub mod fault;
pub mod policy;
pub mod profiler;
pub mod report;
pub mod rollout;
pub mod router;
pub mod workload;

pub use calib::{
    calibrate_devices, DeviceCalibration, FleetCalibration, DEVICE_CALIB_DECODE,
    DEVICE_CALIB_PROMPT, SILICON_SPREAD_PPM, SILICON_STEP_PPM,
};
pub use device::{
    calibrate_profiles, calibrate_profiles_with_socs, Device, DeviceProfile, CALIB_DECODE,
    CALIB_PROMPT,
};
pub use events::{
    EventKind, FleetEvent, FleetEventLog, FleetLogPair, ProfileCause, WindowsError,
    EVENT_LOG_VERSION,
};
pub use fault::{FaultInjector, FaultPlanConfig};
pub use policy::{
    AdmissionControl, AttemptOutcome, BreakerCause, BreakerConfig, BreakerInput, BreakerState,
    BreakerTransition, CircuitBreaker, DispatchStep, RetryPolicy, RouterPolicy, MAX_DISPATCHES,
};
pub use profiler::{OnlineProfiler, DRIFT_RESOLVE_THRESHOLD_PPM, FEW_SHOT_SAMPLES, PPM};
pub use report::{ArmReport, FleetComparison, PriorityStats};
pub use rollout::{
    stage_regressed, PolicyRevision, RolloutConfig, RolloutController, RolloutLogSet,
    RolloutReport, StageReport, StageThresholds, ROLLOUT_STAGES,
};
pub use router::{FleetConfig, FleetSim};
pub use workload::{fleet_traffic, FleetRequest, Priority};
