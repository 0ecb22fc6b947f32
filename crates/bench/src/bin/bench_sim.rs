//! Simulator micro-benchmarks: the all-integer counters behind
//! `BENCH_sim.json`.
//!
//! Times the three hot paths the perf pass optimized (see
//! `PERFORMANCE.md`) and reports each as an integer rate, so the
//! checked-in `BENCH_sim.json` baseline can gate regressions without
//! float-comparison noise:
//!
//! - **calibration sessions/s** — silicon-lottery calibration
//!   micro-sessions ([`hetero_fleet::calibrate_devices`], one per
//!   distinct `(class, step)` key, counted by
//!   [`hetero_fleet::FleetCalibration::sessions`]), serial
//!   (`jobs = 1`) vs parallel (`--jobs`, default: all cores). This is
//!   the stage `fleet_sweep --jobs` parallelizes; the two runs are
//!   asserted byte-identical here, not just in CI.
//! - **GEMM MFLOP/s** — the blocked functional-mode matmul
//!   ([`hetero_tensor::ops::matmul`]), FLOPs counted as `2·m·k·n`.
//! - **monitor events/s** — the past-time-LTL fleet monitor
//!   ([`hetero_analyze::monitor_fleet_log`]) swept repeatedly over a
//!   recorded robust-arm event log.
//!
//! Run with `--help` for the flags, their defaults and ranges.
//!
//! Wall-clock rates are machine-dependent by nature; everything else
//! in the snapshot (session counts, FLOPs, event counts) is exact.
//! `scripts/bench_sim.sh` wraps this binary, gates the serial vs
//! parallel calibration speedup, adds the `fleet_sweep` --jobs
//! byte-identity check and wall-clock comparison, and writes the
//! combined `BENCH_sim.json`.

use std::time::Instant;

use hetero_bench::cli::{self, Flag, MAX_DEVICES, MAX_JOBS};
use hetero_bench::{save_json, Table};
use hetero_fleet::{calibrate_devices, FleetConfig, FleetSim, RouterPolicy};
use hetero_tensor::ops::matmul;
use hetero_tensor::rng::splitmix64;
use hetero_tensor::Tensor;
use heterollm::ModelConfig;
use serde::Serialize;

/// The machine-readable snapshot: every field an integer.
#[derive(Debug, Serialize)]
struct BenchSim {
    /// Calibration fleet size (`--devices`).
    devices: u64,
    /// Parallel-arm worker count (`--jobs`).
    jobs: u64,
    /// Engine micro-sessions one calibration run executes.
    calib_sessions: u64,
    /// Serial (`jobs = 1`) calibration wall time, microseconds.
    calib_serial_us: u64,
    /// Parallel (`--jobs`) calibration wall time, microseconds.
    calib_parallel_us: u64,
    /// Serial calibration throughput, sessions/second.
    calib_serial_sessions_per_sec: u64,
    /// Parallel calibration throughput, sessions/second.
    calib_parallel_sessions_per_sec: u64,
    /// Blocked functional-mode GEMM throughput, MFLOP/s.
    gemm_mflops: u64,
    /// GEMM problem: FLOPs per iteration (`2·m·k·n`).
    gemm_flops_per_iter: u64,
    /// GEMM iterations timed.
    gemm_iters: u64,
    /// Temporal fleet monitor sweep rate, events/second.
    monitor_events_per_sec: u64,
    /// Events in the monitored robust-arm log.
    monitor_log_events: u64,
}

/// Integer rate with a division-by-zero guard: `count` per elapsed
/// second, from an elapsed time in nanoseconds.
fn per_sec(count: u64, elapsed_ns: u64) -> u64 {
    count.saturating_mul(1_000_000_000) / elapsed_ns.max(1)
}

fn time<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    (out, ns)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    let args = cli::parse(
        "bench_sim",
        "simulator micro-benchmarks: the all-integer counters behind BENCH_sim.json",
        &[
            Flag::uint(
                "--devices",
                "N",
                128,
                0..=MAX_DEVICES,
                "calibration fleet size",
            ),
            Flag::uint(
                "--jobs",
                "N",
                cores.min(MAX_JOBS),
                1..=MAX_JOBS,
                "workers for the parallel calibration arm; defaults to the machine's cores",
            ),
            Flag::switch("--json", "print the machine-readable snapshot on stdout"),
        ],
    );
    let (devices, jobs) = (args.size("--devices"), args.size("--jobs"));
    println!(
        "Simulator micro-benchmarks ({} calibration devices, {} jobs)\n",
        devices, jobs
    );

    // --- calibration sessions/s, serial vs parallel ------------------
    let model = ModelConfig::internlm_1_8b();
    let (profiles, socs) = hetero_fleet::calibrate_profiles_with_socs(&model);
    let (serial, serial_ns) = time(|| calibrate_devices(&model, &profiles, &socs, 42, devices, 1));
    let (parallel, parallel_ns) =
        time(|| calibrate_devices(&model, &profiles, &socs, 42, devices, jobs));
    assert_eq!(
        serial.devices, parallel.devices,
        "parallel calibration diverged from serial: the determinism contract is broken"
    );
    let sessions = serial.sessions;

    // --- blocked GEMM MFLOP/s ----------------------------------------
    let (m, k, n) = (64usize, 256usize, 256usize);
    let a = Tensor::from_vec(
        (0..m * k)
            .map(|i| (splitmix64(i as u64) % 1000) as f32 / 500.0 - 1.0)
            .collect(),
        &[m, k],
    )
    .expect("lhs");
    let b = Tensor::from_vec(
        (0..k * n)
            .map(|i| (splitmix64(i as u64 + 7) % 1000) as f32 / 500.0 - 1.0)
            .collect(),
        &[k, n],
    )
    .expect("rhs");
    let gemm_iters = 200u64;
    let flops_per_iter = 2 * (m * k * n) as u64;
    let (checksum, gemm_ns) = time(|| {
        let mut acc = 0.0f64;
        for _ in 0..gemm_iters {
            let c = matmul(&a, &b).expect("matmul");
            acc += c.data()[0] as f64;
        }
        acc
    });
    assert!(checksum.is_finite());
    let gemm_mflops =
        flops_per_iter.saturating_mul(gemm_iters) / 1_000_000 * 1_000_000_000 / gemm_ns.max(1);

    // --- temporal fleet monitor events/s -----------------------------
    let sim = FleetSim::new(FleetConfig::standard(42, 32, 400));
    let (_, log) = sim.run_events(RouterPolicy::Robust);
    let monitor_reps = 10u64;
    let (swept, monitor_ns) = time(|| {
        let mut swept = 0u64;
        for _ in 0..monitor_reps {
            let verdict = hetero_analyze::monitor_fleet_log(&log);
            assert!(verdict.findings.is_empty(), "robust log must stay clean");
            swept += verdict.events;
        }
        swept
    });

    let snapshot = BenchSim {
        devices: devices as u64,
        jobs: jobs as u64,
        calib_sessions: sessions,
        calib_serial_us: serial_ns / 1_000,
        calib_parallel_us: parallel_ns / 1_000,
        calib_serial_sessions_per_sec: per_sec(sessions, serial_ns),
        calib_parallel_sessions_per_sec: per_sec(sessions, parallel_ns),
        gemm_mflops,
        gemm_flops_per_iter: flops_per_iter,
        gemm_iters,
        monitor_events_per_sec: per_sec(swept, monitor_ns),
        monitor_log_events: swept / monitor_reps,
    };

    let mut t = Table::new(&["hot path", "metric", "value"]);
    t.row(&[
        "calibration (serial)".into(),
        "sessions/s".into(),
        snapshot.calib_serial_sessions_per_sec.to_string(),
    ]);
    t.row(&[
        format!("calibration ({} jobs)", jobs),
        "sessions/s".into(),
        snapshot.calib_parallel_sessions_per_sec.to_string(),
    ]);
    t.row(&[
        "functional GEMM".into(),
        "MFLOP/s".into(),
        snapshot.gemm_mflops.to_string(),
    ]);
    t.row(&[
        "temporal monitor".into(),
        "events/s".into(),
        snapshot.monitor_events_per_sec.to_string(),
    ]);
    t.print();
    println!(
        "\nserial and parallel calibration verified identical over {} devices \
         ({} sessions, {} faulted)",
        devices, sessions, serial.faulted
    );

    if args.switch("--json") {
        println!(
            "{}",
            serde_json::to_string(&snapshot).expect("serialize snapshot")
        );
    }
    save_json("bench_sim", &snapshot);
}
