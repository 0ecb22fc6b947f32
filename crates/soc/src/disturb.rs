//! Deterministic, seedable disturbance injection.
//!
//! The engines elsewhere in this workspace simulate a *quiet* SoC. Real
//! mobile SoCs are shared and power-constrained: render workloads
//! contend for the GPU FIFO queue (Fig. 18), thermal limits cap
//! sustained throughput (§4), background apps steal memory bandwidth,
//! the camera/ISP stack can claim the NPU outright, and rendezvous
//! synchronization occasionally has to be retried. This module models
//! those disturbances as *timed windows*, compiled by one sweep over
//! the window edges into a [`Timeline`] of piecewise-constant
//! [`SocCondition`]s that a runtime controller can sample and apply to
//! a [`SocConfig`].
//!
//! Traces are external inputs, so compiling one checks every window: a
//! malformed window (`end` before `start`) surfaces as a typed
//! [`CausalityError`] instead of a panic. Generation is seeded
//! (splitmix64) and uses no ambient randomness, so the same seed always
//! yields the same trace and the same timeline.

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use hetero_tensor::rng::draw;

use crate::interference::RenderWorkload;
use crate::soc::SocConfig;
use crate::thermal::ThermalModel;
use crate::time::SimTime;

/// Throughput derate applied to the NPU while the camera/ISP stack
/// holds it: graphs must fall back to tiny time-sliced windows, so the
/// accelerator is effectively an order of magnitude slower.
pub const NPU_UNAVAILABLE_DERATE: f64 = 0.12;

/// One kind of runtime disturbance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Disturbance {
    /// A render workload shares the GPU FIFO submission queue
    /// (Fig. 18). Its duty cycle derates effective GPU throughput.
    RenderBurst {
        /// The contending frame workload.
        render: RenderWorkload,
    },
    /// A thermal throttle step (§4): sustained power pushes the SoC
    /// past its throttle knee and both accelerators derate together.
    ThermalThrottle {
        /// Throughput multiplier in `(0, 1]` while the window is open.
        factor: f64,
    },
    /// Background apps stream memory, shrinking every bandwidth cap.
    MemContention {
        /// Fraction of each bandwidth cap left to the inference
        /// session, in `(0, 1]`.
        bw_fraction: f64,
    },
    /// The camera/ISP stack claims the NPU; see
    /// [`NPU_UNAVAILABLE_DERATE`].
    NpuUnavailable,
    /// Rendezvous synchronization transiently fails and must be
    /// retried.
    SyncFlaky {
        /// Failed attempts per rendezvous before one succeeds.
        failures: u32,
    },
}

/// A disturbance active over the half-open interval `[start, end)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisturbanceWindow {
    /// When the disturbance switches on.
    pub start: SimTime,
    /// When it switches off (must not precede `start`).
    pub end: SimTime,
    /// What happens while the window is open.
    pub disturbance: Disturbance,
}

/// The aggregate SoC condition at one instant: the product of all open
/// disturbance windows, relative to a quiet SoC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocCondition {
    /// GPU throughput multiplier from queue contention.
    pub gpu_derate: f64,
    /// NPU throughput multiplier from accelerator claims.
    pub npu_derate: f64,
    /// Memory-bandwidth multiplier from background streaming.
    pub bw_fraction: f64,
    /// Shared thermal throughput multiplier (applies to GPU and NPU).
    pub thermal_factor: f64,
    /// Failed rendezvous attempts before one succeeds.
    pub sync_failures: u32,
}

impl Default for SocCondition {
    fn default() -> Self {
        Self::quiet()
    }
}

impl SocCondition {
    /// The undisturbed condition: all multipliers 1, no sync failures.
    pub fn quiet() -> Self {
        Self {
            gpu_derate: 1.0,
            npu_derate: 1.0,
            bw_fraction: 1.0,
            thermal_factor: 1.0,
            sync_failures: 0,
        }
    }

    /// Whether this condition is exactly the quiet SoC.
    pub fn is_quiet(&self) -> bool {
        self == &Self::quiet()
    }

    /// Fold one open disturbance into the aggregate condition.
    /// Multiplicative effects compound; thermal factors take the worst
    /// (lowest) open step; sync failures add.
    fn absorb(&mut self, d: &Disturbance) {
        match d {
            Disturbance::RenderBurst { render } => {
                let interval = render.frame_interval.as_nanos().max(1);
                let busy = render.frame_gpu_time.as_nanos().min(interval);
                let duty = busy as f64 / interval as f64;
                self.gpu_derate *= 1.0 - duty;
            }
            Disturbance::ThermalThrottle { factor } => {
                self.thermal_factor = self.thermal_factor.min(factor.clamp(0.01, 1.0));
            }
            Disturbance::MemContention { bw_fraction } => {
                self.bw_fraction *= bw_fraction.clamp(0.01, 1.0);
            }
            Disturbance::NpuUnavailable => {
                self.npu_derate *= NPU_UNAVAILABLE_DERATE;
            }
            Disturbance::SyncFlaky { failures } => {
                self.sync_failures += failures;
            }
        }
    }

    /// The disturbance-adjusted profile: `base` with this condition's
    /// derates applied. A controller hands this to the solver (or to
    /// [`crate::soc::Soc::set_config`]) so planning sees the SoC as it
    /// currently is, not as it was at calibration time.
    pub fn apply_to(&self, base: &SocConfig) -> SocConfig {
        let mut cfg = base.clone();
        let gpu = self.gpu_derate * self.thermal_factor;
        cfg.gpu.achieved_tflops *= gpu;
        cfg.gpu.mem_efficiency *= gpu;
        let npu = self.npu_derate * self.thermal_factor;
        cfg.npu.peak_tflops *= npu;
        cfg.npu.min_effective_tflops *= npu;
        cfg.mem.soc_peak_gbps *= self.bw_fraction;
        cfg.mem.cpu_cap_gbps *= self.bw_fraction;
        cfg.mem.gpu_cap_gbps *= self.bw_fraction;
        cfg.mem.npu_cap_gbps *= self.bw_fraction;
        cfg
    }
}

/// A disturbance window that ends before it starts: switching it off
/// would move the clock into the past.
///
/// Returned by [`DisturbanceTrace::timeline`], which rejects malformed
/// external traces instead of crashing the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalityError {
    /// The clock when the window's end was reached: its start.
    pub now: SimTime,
    /// The (past) time the window claims to end.
    pub at: SimTime,
}

impl core::fmt::Display for CausalityError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "cannot schedule into the past: event at {} but the clock is at {}",
            self.at, self.now
        )
    }
}

impl std::error::Error for CausalityError {}

/// A seeded schedule of disturbance windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DisturbanceTrace {
    /// Seed the trace was generated from (0 for hand-built traces).
    pub seed: u64,
    /// The scheduled windows, in construction order.
    pub windows: Vec<DisturbanceWindow>,
}

/// A draw mapped into `[lo, hi)` milliseconds.
fn ms_in(seed: u64, i: u64, lo: u64, hi: u64) -> SimTime {
    SimTime::from_millis(lo + draw(seed, i) % (hi - lo))
}

impl DisturbanceTrace {
    /// An empty, hand-buildable trace.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            windows: Vec::new(),
        }
    }

    /// Add a window.
    #[must_use]
    pub fn with(mut self, start: SimTime, end: SimTime, disturbance: Disturbance) -> Self {
        self.windows.push(DisturbanceWindow {
            start,
            end,
            disturbance,
        });
        self
    }

    /// The standard evaluation trace: one window of every disturbance
    /// kind over a ~6 s horizon, with seeded starts, durations and
    /// magnitudes. The same seed always produces the same trace.
    pub fn standard(seed: u64) -> Self {
        // Thermal step from the calibrated model: the factor a sustained
        // GPU-class power draw reaches after 90 s (§4). It does not
        // depend on the seed, so it is computed once per process.
        static THERMAL: OnceLock<f64> = OnceLock::new();
        let thermal = *THERMAL.get_or_init(|| ThermalModel::default().sustained_factor(7.0, 90.0));
        let render_start = ms_in(seed, 0, 400, 1_200);
        let render_len = ms_in(seed, 1, 1_200, 2_200);
        let thermal_start = ms_in(seed, 2, 1_800, 2_800);
        let thermal_len = ms_in(seed, 3, 1_800, 2_800);
        let mem_start = ms_in(seed, 4, 900, 3_600);
        let mem_len = ms_in(seed, 5, 700, 1_500);
        let mem_fraction = 0.45 + (draw(seed, 6) % 30) as f64 / 100.0;
        let npu_start = ms_in(seed, 7, 2_800, 4_400);
        let npu_len = ms_in(seed, 8, 1_200, 2_400);
        let sync_start = ms_in(seed, 9, 500, 4_000);
        let sync_len = ms_in(seed, 10, 500, 1_000);
        let failures = 1 + (draw(seed, 11) % 3) as u32;
        Self::new(seed)
            .with(
                render_start,
                render_start + render_len,
                Disturbance::RenderBurst {
                    render: RenderWorkload::game_60fps(),
                },
            )
            .with(
                thermal_start,
                thermal_start + thermal_len,
                Disturbance::ThermalThrottle { factor: thermal },
            )
            .with(
                mem_start,
                mem_start + mem_len,
                Disturbance::MemContention {
                    bw_fraction: mem_fraction,
                },
            )
            .with(npu_start, npu_start + npu_len, Disturbance::NpuUnavailable)
            .with(
                sync_start,
                sync_start + sync_len,
                Disturbance::SyncFlaky { failures },
            )
    }

    /// Compile the trace into a [`Timeline`] with one sweep over the
    /// window edges.
    ///
    /// The first window, in `(start, index)` order, whose `end`
    /// precedes its `start` is rejected with a [`CausalityError`]
    /// rather than silently reordered: traces are external inputs.
    /// Otherwise the timeline has a point at zero and at every distinct
    /// window edge `t`, holding the condition of every window with
    /// `start <= t < end`, absorbed in window order (a zero-length
    /// window leaves a point but no effect).
    pub fn timeline(&self) -> Result<Timeline, CausalityError> {
        let malformed = self.windows.iter().filter(|w| w.end < w.start);
        if let Some(w) = malformed.min_by_key(|w| w.start) {
            return Err(CausalityError {
                now: w.start,
                at: w.end,
            });
        }
        let mut edges: Vec<SimTime> = self
            .windows
            .iter()
            .flat_map(|w| [w.start, w.end])
            .chain([SimTime::ZERO])
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let points = edges
            .into_iter()
            .map(|t| {
                let mut cond = SocCondition::quiet();
                for w in self.windows.iter().filter(|w| w.start <= t && t < w.end) {
                    cond.absorb(&w.disturbance);
                }
                (t, cond)
            })
            .collect();
        Ok(Timeline { points })
    }
}

/// One kind of silent-data-corruption (SDC) fault.
///
/// Unlike [`Disturbance`] windows, which perturb *timing*, SDC faults
/// perturb *values*: a flipped element in a GEMM output tile, a
/// corrupted stored KV row, or a poisoned compiled NPU graph. Faults
/// carry raw seeded draws (`*_draw`) rather than resolved coordinates
/// so one trace can be replayed against models of any size — the
/// consumer reduces each draw modulo its own dimension.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SdcFault {
    /// Transient: one bit flip in the output tile of one weight
    /// projection. Detected (or not) by the ABFT tile checksum the
    /// moment the tile is produced.
    TileFlip {
        /// Which weight projection (0-based launch index across the
        /// session) the flip lands in.
        proj_index: usize,
        /// Seeded draw selecting the flipped element (`% numel`).
        elem_draw: u64,
        /// Which bit of the `f32` representation flips.
        bit: u32,
    },
    /// Sticky: a stored KV-cache element is corrupted in place and
    /// stays wrong until rewritten — caught by read-time seal
    /// verification, possibly many forwards later.
    KvCorrupt {
        /// The corruption lands after this many completed forwards.
        after_forwards: usize,
        /// Seeded draw selecting the layer (`% layers`).
        layer_draw: u64,
        /// Seeded draw selecting the stored row (`% len`).
        row_draw: u64,
        /// Seeded draw selecting the column (`% kv_dim`).
        col_draw: u64,
        /// Which bit of the stored `f32` flips.
        bit: u32,
    },
    /// Persistent: a corrupt weight upload poisons one *cached,
    /// compiled* NPU graph (§3.2's static-graph model), tainting every
    /// inference routed through it until the cache entry is invalidated
    /// and rebuilt.
    GraphPoison {
        /// Seeded draw selecting the poisoned graph size (`% |sizes|`).
        size_draw: u64,
    },
}

/// An SDC fault scheduled at a point in simulated time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SdcEvent {
    /// When the fault strikes (used by timing-level consumers; the
    /// functional path keys off the fault's own launch indices).
    pub at: SimTime,
    /// The fault.
    pub fault: SdcFault,
}

/// A seeded schedule of SDC faults. Same seed, same faults.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SdcTrace {
    /// Seed the trace was generated from (0 for hand-built traces).
    pub seed: u64,
    /// The scheduled faults, ordered by construction.
    pub events: Vec<SdcEvent>,
}

impl SdcTrace {
    /// An empty, hand-buildable trace.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            events: Vec::new(),
        }
    }

    /// Add a fault at `at`.
    #[must_use]
    pub fn with(mut self, at: SimTime, fault: SdcFault) -> Self {
        self.events.push(SdcEvent { at, fault });
        self
    }

    /// The standard SDC evaluation trace: three transient tile flips,
    /// two sticky KV corruptions and one persistent graph poisoning
    /// over a ~5 s horizon. Draw indices start at 100 so the stream
    /// does not overlap [`DisturbanceTrace::standard`] on the same
    /// seed.
    ///
    /// Tile flips always target the top exponent bit
    /// ([`hetero_tensor::abft::SDC_FLIP_BIT`]), the harm floor of the
    /// ABFT detectability envelope; KV corruptions flip an arbitrary
    /// bit, since seal verification is bit-exact.
    pub fn standard(seed: u64) -> Self {
        let flip_bit = hetero_tensor::abft::SDC_FLIP_BIT;
        let mut trace = Self::new(seed);
        for f in 0..3u64 {
            let i = 100 + 8 * f;
            trace = trace.with(
                ms_in(seed, i, 300 + 1_200 * f, 1_200 + 1_200 * f),
                SdcFault::TileFlip {
                    proj_index: (32 * f + draw(seed, i + 1) % 32) as usize,
                    elem_draw: draw(seed, i + 2),
                    bit: flip_bit,
                },
            );
        }
        for f in 0..2u64 {
            let i = 140 + 8 * f;
            trace = trace.with(
                ms_in(seed, i, 800 + 1_500 * f, 2_000 + 1_500 * f),
                SdcFault::KvCorrupt {
                    after_forwards: (1 + 5 * f + draw(seed, i + 1) % 4) as usize,
                    layer_draw: draw(seed, i + 2),
                    row_draw: draw(seed, i + 3),
                    col_draw: draw(seed, i + 4),
                    bit: (draw(seed, i + 5) % 32) as u32,
                },
            );
        }
        trace.with(
            ms_in(seed, 160, 1_000, 3_000),
            SdcFault::GraphPoison {
                size_draw: draw(seed, 161),
            },
        )
    }
}

/// A piecewise-constant condition function of time, compiled from a
/// [`DisturbanceTrace`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// `(change time, condition from that time on)`, strictly
    /// increasing in time; always starts at time zero.
    points: Vec<(SimTime, SocCondition)>,
}

impl Timeline {
    /// A timeline that is quiet forever.
    pub fn quiet() -> Self {
        Self {
            points: vec![(SimTime::ZERO, SocCondition::quiet())],
        }
    }

    /// The change points.
    pub fn points(&self) -> &[(SimTime, SocCondition)] {
        &self.points
    }

    /// The condition in effect at time `t` (binary search).
    pub fn condition_at(&self, t: SimTime) -> &SocCondition {
        let idx = self.points.partition_point(|(start, _)| *start <= t);
        &self.points[idx.saturating_sub(1)].1
    }

    /// Time of the last change point; the condition is constant (and,
    /// for well-formed traces, quiet) afterwards.
    pub fn settled_at(&self) -> SimTime {
        self.points.last().map(|(t, _)| *t).unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn standard_trace_is_deterministic() {
        let a = DisturbanceTrace::standard(42);
        let b = DisturbanceTrace::standard(42);
        assert_eq!(a, b);
        assert_eq!(a.timeline().unwrap(), b.timeline().unwrap());
        // And a different seed moves the windows.
        assert_ne!(a, DisturbanceTrace::standard(43));
    }

    #[test]
    fn timeline_tracks_open_windows() {
        let trace = DisturbanceTrace::new(0)
            .with(ms(10), ms(30), Disturbance::NpuUnavailable)
            .with(
                ms(20),
                ms(40),
                Disturbance::MemContention { bw_fraction: 0.5 },
            );
        let tl = trace.timeline().unwrap();
        assert!(tl.condition_at(ms(5)).is_quiet());
        assert_eq!(tl.condition_at(ms(10)).npu_derate, NPU_UNAVAILABLE_DERATE);
        let both = tl.condition_at(ms(25));
        assert_eq!(both.npu_derate, NPU_UNAVAILABLE_DERATE);
        assert_eq!(both.bw_fraction, 0.5);
        let after_npu = tl.condition_at(ms(35));
        assert_eq!(after_npu.npu_derate, 1.0);
        assert_eq!(after_npu.bw_fraction, 0.5);
        assert!(tl.condition_at(ms(40)).is_quiet());
        assert_eq!(tl.settled_at(), ms(40));
    }

    #[test]
    fn overlapping_effects_compound() {
        let trace = DisturbanceTrace::new(0)
            .with(ms(0), ms(10), Disturbance::SyncFlaky { failures: 2 })
            .with(ms(0), ms(10), Disturbance::SyncFlaky { failures: 1 })
            .with(ms(0), ms(10), Disturbance::ThermalThrottle { factor: 0.8 })
            .with(ms(0), ms(10), Disturbance::ThermalThrottle { factor: 0.6 });
        let tl = trace.timeline().unwrap();
        let c = tl.condition_at(ms(5));
        assert_eq!(c.sync_failures, 3);
        // Thermal steps take the worst open factor, not the product.
        assert_eq!(c.thermal_factor, 0.6);
    }

    #[test]
    fn malformed_window_is_a_typed_error() {
        let trace = DisturbanceTrace::new(0).with(ms(30), ms(10), Disturbance::NpuUnavailable);
        let err = trace.timeline().expect_err("end precedes start");
        assert_eq!(err.at, ms(10));
        assert_eq!(err.now, ms(30));
    }

    #[test]
    fn render_burst_derates_gpu_by_duty_cycle() {
        let mut c = SocCondition::quiet();
        c.absorb(&Disturbance::RenderBurst {
            render: RenderWorkload::game_60fps(),
        });
        // 4 ms of frame time per 16.667 ms interval ≈ 24% of the GPU.
        assert!((c.gpu_derate - 0.76).abs() < 0.01, "{}", c.gpu_derate);
    }

    #[test]
    fn apply_to_slows_the_affected_backends() {
        use crate::backend::Backend;
        use crate::kernel::KernelDesc;
        use crate::soc::Soc;
        use hetero_tensor::shape::MatmulShape;

        let base = SocConfig::snapdragon_8gen3();
        let cond = SocCondition {
            gpu_derate: 0.5,
            npu_derate: 1.0,
            bw_fraction: 0.7,
            thermal_factor: 0.9,
            sync_failures: 0,
        };
        let derated = Soc::new(cond.apply_to(&base));
        let quiet = Soc::new(base);
        let k = KernelDesc::matmul_w4a16(MatmulShape::new(256, 4096, 4096));
        for b in [Backend::Gpu, Backend::Npu] {
            assert!(
                derated.solo_kernel_time(b, &k) > quiet.solo_kernel_time(b, &k),
                "{b} must slow down"
            );
        }
    }

    #[test]
    fn standard_sdc_trace_is_deterministic_and_complete() {
        let a = SdcTrace::standard(42);
        assert_eq!(a, SdcTrace::standard(42));
        assert_ne!(a, SdcTrace::standard(43));
        let kinds =
            |pred: fn(&SdcFault) -> bool| a.events.iter().filter(|e| pred(&e.fault)).count();
        assert_eq!(kinds(|f| matches!(f, SdcFault::TileFlip { .. })), 3);
        assert_eq!(kinds(|f| matches!(f, SdcFault::KvCorrupt { .. })), 2);
        assert_eq!(kinds(|f| matches!(f, SdcFault::GraphPoison { .. })), 1);
        for e in &a.events {
            if let SdcFault::TileFlip { bit, .. } = e.fault {
                assert_eq!(bit, hetero_tensor::abft::SDC_FLIP_BIT);
            }
        }
    }

    #[test]
    fn standard_trace_covers_every_disturbance_kind() {
        let t = DisturbanceTrace::standard(7);
        let has = |pred: fn(&Disturbance) -> bool| t.windows.iter().any(|w| pred(&w.disturbance));
        assert!(has(|d| matches!(d, Disturbance::RenderBurst { .. })));
        assert!(has(|d| matches!(d, Disturbance::ThermalThrottle { .. })));
        assert!(has(|d| matches!(d, Disturbance::MemContention { .. })));
        assert!(has(|d| matches!(d, Disturbance::NpuUnavailable)));
        assert!(has(|d| matches!(d, Disturbance::SyncFlaky { .. })));
        for w in &t.windows {
            assert!(w.end > w.start);
        }
    }
}
