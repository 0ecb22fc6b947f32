//! Fleet-level fault injection, layered on [`hetero_soc::disturb`].
//!
//! Per-session disturbances (render bursts, thermal throttle, memory
//! contention) model a *busy* device; this module adds the failure
//! modes that only exist at fleet scale:
//!
//! - **Device crash/restart** — the device is unreachable for the
//!   crash window plus a cold-start replay
//!   ([`heterollm::coldstart::cold_start`] with cached graphs: weights
//!   re-stream from flash, NPU graphs reload).
//! - **Correlated fault storms** — a seeded fraction of the whole
//!   fleet crashes at the same instant (pushed OS update, power
//!   event), which is what actually breaks naive routing.
//! - **Link delay / link loss** — the request path to a device slows
//!   or drops entirely while the device itself is fine.
//! - **Brownout** — a per-device [`DisturbanceTrace`] timeline
//!   (thermal throttle, contention, NPU claims) derates service
//!   speed.
//!
//! Everything is generated from splitmix64 draws over the run seed:
//! same seed, byte-identical fault plan.

use hetero_soc::disturb::{DisturbanceTrace, SocCondition, Timeline};
use hetero_soc::SimTime;
use hetero_tensor::rng::draw;
use heterollm::coldstart::{cold_start, GraphPrep};
use heterollm::ModelConfig;
use serde::{Deserialize, Serialize};

/// Draw-offset namespaces so fault classes decorrelate.
const OFF_STORM: u64 = 1 << 40;
const OFF_CRASH: u64 = 2 << 40;
const OFF_DELAY: u64 = 3 << 40;
const OFF_LOSS: u64 = 4 << 40;
const OFF_DISTURB: u64 = 5 << 40;

/// Cap on the brownout slowdown factor derived from a disturbance
/// condition (an NPU-unavailable window alone is ~8×).
const MAX_SLOWDOWN: f64 = 20.0;

/// Shape of the seeded fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlanConfig {
    /// Correlated crash storms across the horizon.
    pub storms: u32,
    /// Percent of the fleet each storm crashes.
    pub storm_fraction_pct: u32,
    /// Crash window length per storm (restart replay is added on
    /// top).
    pub storm_duration: SimTime,
    /// Percent of devices with one independent crash.
    pub crash_rate_pct: u32,
    /// Percent of devices with one link-delay window.
    pub link_delay_pct: u32,
    /// Percent of devices with one link-loss window.
    pub link_loss_pct: u32,
    /// Percent of devices running under a standard
    /// [`DisturbanceTrace`] (brownout).
    pub disturb_pct: u32,
}

impl FaultPlanConfig {
    /// The shipped storm plan: two fleet-wide storms crashing 25%
    /// each, 10% independent crashes, 20%/10% link delay/loss, 30%
    /// browned-out devices.
    pub fn standard() -> Self {
        Self {
            storms: 2,
            storm_fraction_pct: 25,
            storm_duration: SimTime::from_millis(150),
            crash_rate_pct: 10,
            link_delay_pct: 20,
            link_loss_pct: 10,
            disturb_pct: 30,
        }
    }
}

/// One closed fault window (`[start, end)`).
type Window = (SimTime, SimTime);

/// One link-delay window: `[start, end)` plus the added latency.
type DelayWindow = (SimTime, SimTime, SimTime);

/// Per-device windows of one fault kind in compressed sparse rows:
/// device `d`'s windows are `windows[offsets[d]..offsets[d + 1]]`. Two
/// flat arrays instead of one heap vector per device.
#[derive(Debug, Clone)]
struct DeviceWindows<W> {
    offsets: Vec<u32>,
    windows: Vec<W>,
}

impl<W> DeviceWindows<W> {
    fn with_devices(devices: usize) -> Self {
        let mut offsets = Vec::with_capacity(devices + 1);
        offsets.push(0);
        Self {
            offsets,
            windows: Vec::new(),
        }
    }

    /// Close the current device's row: the windows pushed since the
    /// last call belong to it.
    fn end_device(&mut self) {
        let end = u32::try_from(self.windows.len()).expect("fewer than 2^32 fault windows");
        self.offsets.push(end);
    }

    /// Device `d`'s windows.
    fn of(&self, d: usize) -> &[W] {
        &self.windows[self.offsets[d] as usize..self.offsets[d + 1] as usize]
    }
}

/// The materialized per-device fault plan for one run.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    downtime: DeviceWindows<Window>,
    delay: DeviceWindows<DelayWindow>,
    loss: DeviceWindows<Window>,
    timelines: Vec<Option<Timeline>>,
    restart_cost: SimTime,
    storms: Vec<Window>,
    /// Starts of every device's merged downtime intervals, ascending.
    down_starts: Vec<SimTime>,
    /// Ends of the same intervals, ascending.
    down_ends: Vec<SimTime>,
}

/// A forward cursor over the fleet's downtime edges: how many devices
/// are crashed at a non-decreasing sequence of instants, in amortized
/// O(1) per query instead of an O(devices) scan.
#[derive(Debug)]
pub(crate) struct DowntimeSweep<'a> {
    starts: &'a [SimTime],
    ends: &'a [SimTime],
    started: usize,
    ended: usize,
    last: SimTime,
}

impl DowntimeSweep<'_> {
    /// Devices crashed (or replaying their cold start) at `t`: the
    /// same count as `crashed_at` over every device.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `t` is earlier than the previous query.
    pub(crate) fn down_at(&mut self, t: SimTime) -> usize {
        debug_assert!(t >= self.last, "downtime sweep queried backwards");
        self.last = t;
        while self.started < self.starts.len() && self.starts[self.started] <= t {
            self.started += 1;
        }
        while self.ended < self.ends.len() && self.ends[self.ended] <= t {
            self.ended += 1;
        }
        self.started - self.ended
    }
}

impl FaultInjector {
    /// Generate the seeded plan for `devices` devices of `model`
    /// across `[0, horizon)`.
    pub fn generate(
        seed: u64,
        devices: usize,
        model: &ModelConfig,
        horizon: SimTime,
        cfg: &FaultPlanConfig,
    ) -> Self {
        let restart_cost = cold_start(model, GraphPrep::LoadCachedStandards).total;
        let h = horizon.as_nanos();
        let mut downtime = DeviceWindows::with_devices(devices);
        let mut delay = DeviceWindows::with_devices(devices);
        let mut loss = DeviceWindows::with_devices(devices);
        let mut timelines = vec![None; devices];
        let (mut down_starts, mut down_ends) = (Vec::new(), Vec::new());

        // Correlated storms: one instant, a seeded device subset. The
        // fleet-wide window is recorded even when the draw happens to
        // select no device — the storm is a world-level occurrence.
        let mut storms: Vec<Window> = (0..u64::from(cfg.storms))
            .map(|k| {
                let nominal = h * (k + 1) / (u64::from(cfg.storms) + 1);
                let jitter = draw(seed, OFF_STORM + k) % (h / 20 + 1);
                let at = SimTime::from_nanos(nominal.saturating_sub(jitter));
                (at, at + cfg.storm_duration + restart_cost)
            })
            .collect();

        // Every draw is a pure function of (seed, offset), so each
        // device's row is built whole, in device order.
        for d in 0..devices as u64 {
            for (k, &window) in storms.iter().enumerate() {
                let k = k as u64;
                let pick = draw(seed, OFF_STORM + 64 + k * devices as u64 + d) % 100;
                if (pick as u32) < cfg.storm_fraction_pct {
                    downtime.windows.push(window);
                }
            }
            // Independent crash: one per selected device.
            if (draw(seed, OFF_CRASH + 3 * d) % 100) < u64::from(cfg.crash_rate_pct) {
                let at = SimTime::from_nanos(draw(seed, OFF_CRASH + 3 * d + 1) % h.max(1));
                let dur = SimTime::from_millis(20 + draw(seed, OFF_CRASH + 3 * d + 2) % 180);
                downtime.windows.push((at, at + dur + restart_cost));
            }
            let row = downtime.offsets[d as usize] as usize;
            downtime.windows[row..].sort_unstable();
            push_union_edges(&downtime.windows[row..], &mut down_starts, &mut down_ends);
            downtime.end_device();
            // Link delay window.
            if (draw(seed, OFF_DELAY + 4 * d) % 100) < u64::from(cfg.link_delay_pct) {
                let at = SimTime::from_nanos(draw(seed, OFF_DELAY + 4 * d + 1) % h.max(1));
                let dur = SimTime::from_millis(200 + draw(seed, OFF_DELAY + 4 * d + 2) % 600);
                let added = SimTime::from_millis(1 + draw(seed, OFF_DELAY + 4 * d + 3) % 9);
                delay.windows.push((at, at + dur, added));
            }
            delay.end_device();
            // Link loss window.
            if (draw(seed, OFF_LOSS + 3 * d) % 100) < u64::from(cfg.link_loss_pct) {
                let at = SimTime::from_nanos(draw(seed, OFF_LOSS + 3 * d + 1) % h.max(1));
                let dur = SimTime::from_millis(200 + draw(seed, OFF_LOSS + 3 * d + 2) % 600);
                loss.windows.push((at, at + dur));
            }
            loss.end_device();
            // Brownout: a standard per-device disturbance trace.
            if (draw(seed, OFF_DISTURB + d) % 100) < u64::from(cfg.disturb_pct) {
                let trace = DisturbanceTrace::standard(seed ^ (d.rotate_left(23)));
                let tl = trace
                    .timeline()
                    .expect("standard disturbance traces are well-formed");
                timelines[d as usize] = Some(tl);
            }
        }
        down_starts.sort_unstable();
        down_ends.sort_unstable();
        storms.sort_unstable();
        Self {
            downtime,
            delay,
            loss,
            timelines,
            restart_cost,
            storms,
            down_starts,
            down_ends,
        }
    }

    /// A fresh [`DowntimeSweep`] from time zero.
    pub(crate) fn downtime_sweep(&self) -> DowntimeSweep<'_> {
        DowntimeSweep {
            starts: &self.down_starts,
            ends: &self.down_ends,
            started: 0,
            ended: 0,
            last: SimTime::ZERO,
        }
    }

    /// The fleet-wide correlated storm windows `[start, end)` (crash
    /// plus cold-start replay), sorted by start.
    pub fn storm_windows(&self) -> &[(SimTime, SimTime)] {
        &self.storms
    }

    /// Cold-start replay cost appended to every crash window.
    pub fn restart_cost(&self) -> SimTime {
        self.restart_cost
    }

    /// Whether the device is crashed (or replaying its cold start)
    /// at `t`.
    pub fn crashed_at(&self, device: usize, t: SimTime) -> bool {
        self.downtime
            .of(device)
            .iter()
            .any(|&(s, e)| s <= t && t < e)
    }

    /// First instant in `[from, to)` at which the device is down, if
    /// any (a crash landing mid-service fails the request).
    pub fn first_downtime_in(&self, device: usize, from: SimTime, to: SimTime) -> Option<SimTime> {
        self.downtime
            .of(device)
            .iter()
            .filter(|&&(s, e)| s < to && from < e)
            .map(|&(s, _)| s.max(from))
            .min()
    }

    /// Whether the request path to the device is dropping at `t`.
    pub fn link_lost_at(&self, device: usize, t: SimTime) -> bool {
        self.loss.of(device).iter().any(|&(s, e)| s <= t && t < e)
    }

    /// Added link latency toward the device at `t`.
    pub fn link_delay_at(&self, device: usize, t: SimTime) -> SimTime {
        self.delay
            .of(device)
            .iter()
            .filter(|&&(s, e, _)| s <= t && t < e)
            .map(|&(_, _, d)| d)
            .sum()
    }

    /// Whether the data path to the device works at `t`: neither
    /// crashed nor behind a lost link.
    pub fn reachable_at(&self, device: usize, t: SimTime) -> bool {
        !self.crashed_at(device, t) && !self.link_lost_at(device, t)
    }

    /// What a health probe at `t` observes. The lightweight
    /// control-path probe detects crashes but does **not** traverse
    /// the request data path, so link-loss windows are invisible to
    /// it — circuit breakers are the layer that catches what probes
    /// miss.
    pub fn probe_reachable_at(&self, device: usize, t: SimTime) -> bool {
        !self.crashed_at(device, t)
    }

    /// Service-time multiplier (≥ 1) from the device's brownout
    /// condition at `t`.
    pub fn slowdown_at(&self, device: usize, t: SimTime) -> f64 {
        match &self.timelines[device] {
            None => 1.0,
            Some(tl) => condition_slowdown(tl.condition_at(t)),
        }
    }
}

/// Push the edges of the union of one device's `windows` (sorted by
/// start): the census counts a device once however many of its windows
/// overlap or touch.
fn push_union_edges(windows: &[Window], starts: &mut Vec<SimTime>, ends: &mut Vec<SimTime>) {
    let mut open: Option<Window> = None;
    for &(s, e) in windows {
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            _ => {
                if let Some((os, oe)) = open {
                    starts.push(os);
                    ends.push(oe);
                }
                Some((s, e))
            }
        };
    }
    if let Some((os, oe)) = open {
        starts.push(os);
        ends.push(oe);
    }
}

/// Fold a [`SocCondition`] into one service-speed multiplier: the
/// worse compute derate (heterogeneous engines lean on both
/// backends), the thermal step, and the bandwidth fraction compound;
/// the result is clamped to [`MAX_SLOWDOWN`].
pub fn condition_slowdown(c: &SocCondition) -> f64 {
    let compute = c.gpu_derate.min(c.npu_derate) * c.thermal_factor * c.bw_fraction;
    (1.0 / compute.max(1.0 / MAX_SLOWDOWN)).clamp(1.0, MAX_SLOWDOWN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(seed: u64) -> FaultInjector {
        FaultInjector::generate(
            seed,
            64,
            &ModelConfig::internlm_1_8b(),
            SimTime::from_secs_f64(20.0),
            &FaultPlanConfig::standard(),
        )
    }

    #[test]
    fn same_seed_same_plan() {
        let a = injector(42);
        let b = injector(42);
        for d in 0..64 {
            assert_eq!(a.downtime.of(d), b.downtime.of(d));
            assert_eq!(a.loss.of(d), b.loss.of(d));
            assert_eq!(a.delay.of(d), b.delay.of(d));
        }
    }

    #[test]
    fn storms_are_correlated_and_partial() {
        let inj = injector(42);
        let crashed: Vec<usize> = (0..64)
            .filter(|&d| !inj.downtime.of(d).is_empty())
            .collect();
        assert!(!crashed.is_empty(), "some devices crash");
        assert!(crashed.len() < 64, "storms never take the whole fleet");
        // Storm windows include the cold-start replay.
        let (s, e) = inj.downtime.of(crashed[0])[0];
        assert!(e - s >= inj.restart_cost());
    }

    #[test]
    fn downtime_lookup_matches_windows() {
        let inj = injector(7);
        for d in 0..64 {
            for &(s, e) in inj.downtime.of(d) {
                assert!(inj.crashed_at(d, s));
                assert!(!inj.crashed_at(d, e));
                assert_eq!(inj.first_downtime_in(d, s, e), Some(s));
                assert!(!inj.reachable_at(d, s));
            }
        }
    }

    #[test]
    fn downtime_sweep_counts_like_a_scan_at_every_edge() {
        let inj = injector(7);
        let mut instants: Vec<SimTime> = (0..64)
            .flat_map(|d| inj.downtime.of(d).to_vec())
            .flat_map(|(s, e)| [s, e].map(|t| [t.saturating_sub(SimTime(1)), t]))
            .flatten()
            .collect();
        instants.sort_unstable();
        instants.dedup();
        let mut sweep = inj.downtime_sweep();
        for t in instants {
            let scan = (0..64).filter(|&d| inj.crashed_at(d, t)).count();
            assert_eq!(sweep.down_at(t), scan, "at {t:?}");
        }
    }

    #[test]
    fn union_edges_merge_overlapping_and_touching_windows() {
        let w = |s: u64, e: u64| (SimTime(s), SimTime(e));
        let (mut starts, mut ends) = (Vec::new(), Vec::new());
        push_union_edges(
            &[w(1, 5), w(2, 3), w(5, 8), w(10, 12)],
            &mut starts,
            &mut ends,
        );
        assert_eq!(starts, [SimTime(1), SimTime(10)]);
        assert_eq!(ends, [SimTime(8), SimTime(12)]);
    }

    #[test]
    fn slowdown_is_bounded_and_quiet_is_identity() {
        assert_eq!(condition_slowdown(&SocCondition::quiet()), 1.0);
        let mut c = SocCondition::quiet();
        c.npu_derate = 0.12;
        let s = condition_slowdown(&c);
        assert!(s > 8.0 && s <= MAX_SLOWDOWN);
        c.thermal_factor = 0.01;
        assert!(condition_slowdown(&c) <= MAX_SLOWDOWN);
    }
}
