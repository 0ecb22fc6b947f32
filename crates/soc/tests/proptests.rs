//! Property-based tests of the SoC simulator's invariants.
//!
//! These pin down the *sanity* of the timing models: more work never
//! takes less time, more bandwidth never hurts, the arbiter never
//! over-allocates, and the overlap algebra stays within its bounds.

use hetero_soc::disturb::{
    CausalityError, Disturbance, DisturbanceTrace, SocCondition, NPU_UNAVAILABLE_DERATE,
};
use hetero_soc::gpu::GpuModel;
use hetero_soc::interference::RenderWorkload;
use hetero_soc::memory::MemorySystem;
use hetero_soc::npu::NpuModel;
use hetero_soc::parallel::overlap;
use hetero_soc::{Backend, KernelDesc, SimTime};
use hetero_tensor::shape::MatmulShape;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn npu_time_monotone_in_k_and_n(
        m in 1usize..2048,
        k in 1usize..8192,
        n in 1usize..2048,
        grow in 1usize..512,
    ) {
        let npu = NpuModel::default();
        let t = |m, k, n| npu
            .matmul_timing(MatmulShape::new(m, k, n), 16, 16, 16, 45.0)
            .total;
        let base = t(m, k, n);
        prop_assert!(t(m, k + grow, n) >= base, "k growth");
        prop_assert!(t(m, k, n + grow) >= base, "n growth");
    }

    #[test]
    fn npu_time_monotone_in_m_within_a_regime(
        m in 1usize..2048,
        k in 1usize..8192,
        n in 1usize..2048,
        grow in 1usize..512,
    ) {
        // Streamed-row growth is monotone *within* a weight-stall
        // regime. Crossing m ≥ k exits the stationary-pressure regime
        // and time can legitimately drop — the kind of shape cliff
        // Fig. 5 documents and the reason the paper profiles the NPU
        // empirically rather than assuming a smooth cost surface.
        let pad = |x: usize| x.div_ceil(32) * 32;
        let same_regime = (pad(k) > pad(m)) == (pad(k) > pad(m + grow));
        prop_assume!(same_regime);
        let npu = NpuModel::default();
        let t = |m| npu
            .matmul_timing(MatmulShape::new(m, k, n), 16, 16, 16, 45.0)
            .total;
        // Within the penalized regime the per-row penalty shrinks as
        // rows amortize the stationary reloads; total time may stay
        // flat but must not *collapse* (bounded by 1 bucket's slack).
        let base = t(m);
        let grown = t(m + grow);
        if pad(k) > pad(m) {
            prop_assert!(
                grown >= base.scale(0.5),
                "penalized regime: {grown} vs {base}"
            );
        } else {
            prop_assert!(grown >= base, "unpenalized regime must be monotone");
        }
    }

    #[test]
    fn npu_stage_buckets_are_flat(
        bucket in 0usize..32,
        a in 1usize..=32,
        b in 1usize..=32,
    ) {
        // Any two m values inside the same 32-bucket cost the same.
        let npu = NpuModel::default();
        let m1 = bucket * 32 + a;
        let m2 = bucket * 32 + b;
        let t1 = npu.matmul_timing(MatmulShape::new(m1, 1024, 1024), 16, 16, 16, 45.0);
        let t2 = npu.matmul_timing(MatmulShape::new(m2, 1024, 1024), 16, 16, 16, 45.0);
        prop_assert_eq!(t1.total, t2.total);
    }

    #[test]
    fn gpu_time_monotone_in_bandwidth(
        m in 1usize..1024,
        n in 1usize..4096,
        bw_lo in 1u32..40,
        bw_delta in 1u32..40,
    ) {
        let gpu = GpuModel::default();
        let kernel = KernelDesc::matmul_w4a16(MatmulShape::new(m, 4096, n));
        let slow = gpu.kernel_time(&kernel, bw_lo as f64);
        let fast = gpu.kernel_time(&kernel, (bw_lo + bw_delta) as f64);
        prop_assert!(fast <= slow);
    }

    #[test]
    fn gpu_effective_tflops_never_exceeds_ceiling(
        m in 1usize..2048,
        k in 1usize..4096,
        n in 1usize..2048,
    ) {
        let gpu = GpuModel::default();
        let kernel = KernelDesc::matmul_f16(MatmulShape::new(m, k, n));
        prop_assert!(gpu.effective_tflops(&kernel, 43.3) <= gpu.achieved_tflops * 1.001);
    }

    #[test]
    fn arbiter_never_overallocates(
        use_cpu in proptest::bool::ANY,
        use_gpu in proptest::bool::ANY,
        use_npu in proptest::bool::ANY,
    ) {
        let mem = MemorySystem::default();
        let mut active = Vec::new();
        if use_cpu { active.push(Backend::Cpu); }
        if use_gpu { active.push(Backend::Gpu); }
        if use_npu { active.push(Backend::Npu); }
        let grants = mem.concurrent_bw(&active);
        let total: f64 = grants.iter().map(|(_, bw)| bw).sum();
        prop_assert!(total <= mem.soc_peak_gbps + 1e-9);
        for (b, bw) in grants {
            prop_assert!(bw <= mem.solo_bw(b) + 1e-9);
            prop_assert!(bw > 0.0);
        }
        // Concurrency can only help total bandwidth.
        if active.len() >= 2 {
            let solo_max = active.iter().map(|b| mem.solo_bw(*b)).fold(0.0f64, f64::max);
            prop_assert!(total >= solo_max - 1e-9);
        }
    }

    #[test]
    fn overlap_bounds_hold(
        a_cont in 0u64..1_000_000,
        a_solo_frac in 0.1f64..1.0,
        b_cont in 0u64..1_000_000,
        b_solo_frac in 0.1f64..1.0,
    ) {
        let a_cont = SimTime::from_nanos(a_cont);
        let b_cont = SimTime::from_nanos(b_cont);
        let a_solo = a_cont.scale(a_solo_frac);
        let b_solo = b_cont.scale(b_solo_frac);
        let o = overlap(a_cont, a_solo, b_cont, b_solo);
        // Each side finishes no later than fully-contended serial time,
        // and no earlier than its own solo time.
        prop_assert!(o.a_finish <= a_cont);
        prop_assert!(o.b_finish <= b_cont);
        prop_assert!(o.a_finish + SimTime::from_nanos(1) >= a_solo);
        prop_assert!(o.b_finish + SimTime::from_nanos(1) >= b_solo);
        // Makespan at least the larger solo time.
        prop_assert!(o.makespan() + SimTime::from_nanos(1) >= a_solo.max(b_solo));
    }

    #[test]
    fn kernel_accounting_nonnegative_and_consistent(
        m in 1usize..512,
        k in 1usize..512,
        n in 1usize..512,
    ) {
        let kernel = KernelDesc::matmul_w4a16(MatmulShape::new(m, k, n));
        prop_assert_eq!(kernel.flops(), 2 * (m * k * n) as u64);
        prop_assert!(kernel.bytes() > 0);
        prop_assert!(kernel.weight_bytes() <= kernel.bytes());
    }
}

/// One generated window: `(start ms, length ms, malformed draw, kind)`.
/// A zero draw (one in twelve) turns the window around so it ends
/// before it starts; a zero length makes it zero-length.
type WindowDraw = (u64, u64, u8, u8);

fn build_trace(draws: &[WindowDraw]) -> DisturbanceTrace {
    draws.iter().fold(
        DisturbanceTrace::new(0),
        |trace, &(start, len, bad, kind)| {
            let end = if bad == 0 {
                start.saturating_sub(len + 1)
            } else {
                start + len
            };
            let disturbance = match kind {
                0 => Disturbance::RenderBurst {
                    render: RenderWorkload::game_60fps(),
                },
                1 => Disturbance::ThermalThrottle {
                    factor: 0.5 + 0.1 * f64::from(bad % 5),
                },
                2 => Disturbance::MemContention {
                    bw_fraction: 0.3 + 0.1 * f64::from(bad % 7),
                },
                3 => Disturbance::NpuUnavailable,
                _ => Disturbance::SyncFlaky {
                    failures: u32::from(bad % 3) + 1,
                },
            };
            trace.with(
                SimTime::from_millis(start),
                SimTime::from_millis(end),
                disturbance,
            )
        },
    )
}

/// The condition at `t`, folded directly from the windows open at `t`
/// in window order: multiplicative derates compound, the worst thermal
/// step wins and sync failures add.
fn brute_condition(trace: &DisturbanceTrace, t: SimTime) -> SocCondition {
    let mut c = SocCondition::quiet();
    for w in trace.windows.iter().filter(|w| w.start <= t && t < w.end) {
        match &w.disturbance {
            Disturbance::RenderBurst { render } => {
                let interval = render.frame_interval.as_nanos().max(1);
                let busy = render.frame_gpu_time.as_nanos().min(interval);
                c.gpu_derate *= 1.0 - busy as f64 / interval as f64;
            }
            Disturbance::ThermalThrottle { factor } => {
                c.thermal_factor = c.thermal_factor.min(factor.clamp(0.01, 1.0));
            }
            Disturbance::MemContention { bw_fraction } => {
                c.bw_fraction *= bw_fraction.clamp(0.01, 1.0);
            }
            Disturbance::NpuUnavailable => c.npu_derate *= NPU_UNAVAILABLE_DERATE,
            Disturbance::SyncFlaky { failures } => c.sync_failures += failures,
        }
    }
    c
}

proptest! {
    /// `DisturbanceTrace::timeline` against a brute-force reference,
    /// on traces with zero-length windows, shared edges, starts at
    /// zero and malformed windows. A malformed trace must name its
    /// first malformed window in `(start, index)` order; a well-formed
    /// one has a point at zero and at every distinct edge, and at
    /// every millisecond its condition is the fold of the windows open
    /// then.
    #[test]
    fn timeline_matches_the_brute_force_reference(
        draws in proptest::collection::vec((0u64..12, 0u64..6, 0u8..12, 0u8..5), 0..9),
    ) {
        let trace = build_trace(&draws);
        let mut by_start: Vec<usize> = (0..trace.windows.len()).collect();
        by_start.sort_by_key(|&i| trace.windows[i].start);
        let first_bad = by_start.iter().find(|&&i| trace.windows[i].end < trace.windows[i].start);
        match (trace.timeline(), first_bad) {
            (Err(err), Some(&i)) => {
                let w = &trace.windows[i];
                prop_assert_eq!(err, CausalityError { now: w.start, at: w.end });
                prop_assert!(err.to_string().contains("cannot schedule into the past"));
            }
            (Ok(tl), None) => {
                let mut edges: Vec<SimTime> = trace
                    .windows
                    .iter()
                    .flat_map(|w| [w.start, w.end])
                    .collect();
                edges.push(SimTime::ZERO);
                edges.sort();
                edges.dedup();
                let times: Vec<SimTime> = tl.points().iter().map(|(t, _)| *t).collect();
                prop_assert_eq!(&times, &edges);
                for (t, cond) in tl.points() {
                    prop_assert_eq!(cond, &brute_condition(&trace, *t));
                }
                let last = edges.last().copied().unwrap_or(SimTime::ZERO);
                for ms in 0..=last.as_nanos() / 1_000_000 + 1 {
                    let t = SimTime::from_millis(ms);
                    prop_assert_eq!(tl.condition_at(t), &brute_condition(&trace, t));
                }
            }
            (got, want) => {
                prop_assert!(false, "timeline {:?} but first malformed window {:?}", got, want);
            }
        }
    }
}
