//! Simulator micro-benchmarks: the all-integer counters behind
//! `BENCH_sim.json`.
//!
//! Times the four hot paths the perf pass optimized (see
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
//! - **DES events/s** — schedule/pop churn through the calendar-queue
//!   [`hetero_soc::des::EventQueue`].
//! - **monitor events/s** — the past-time-LTL fleet monitor
//!   ([`hetero_analyze::monitor_fleet_log`]) swept repeatedly over a
//!   recorded robust-arm event log.
//!
//! Flags: `--devices N` (calibration fleet size, default 128),
//! `--jobs N` (parallel-arm workers, default: available cores),
//! `--json` (print the machine-readable snapshot on stdout).
//!
//! Wall-clock rates are machine-dependent by nature; everything else
//! in the snapshot (session counts, FLOPs, event counts) is exact.
//! `scripts/bench_sim.sh` wraps this binary, gates the serial vs
//! parallel calibration speedup, adds the `fleet_sweep` --jobs
//! byte-identity check and wall-clock comparison, and writes the
//! combined `BENCH_sim.json`.

use std::time::Instant;

use hetero_bench::{save_json, Table};
use hetero_fleet::{calibrate_devices, FleetConfig, FleetSim, RouterPolicy};
use hetero_soc::des::EventQueue;
use hetero_soc::SimTime;
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
    /// Calendar-queue DES churn, events/second.
    des_events_per_sec: u64,
    /// DES events scheduled and popped.
    des_events: u64,
    /// Temporal fleet monitor sweep rate, events/second.
    monitor_events_per_sec: u64,
    /// Events in the monitored robust-arm log.
    monitor_log_events: u64,
}

struct Args {
    devices: usize,
    jobs: usize,
    json: bool,
}

fn usage() -> ! {
    eprintln!("usage: bench_sim [--devices N] [--jobs N] [--json] [--analyze]");
    std::process::exit(2);
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_args() -> Args {
    let mut args = Args {
        devices: 128,
        jobs: default_jobs(),
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--devices" => {
                args.devices = hetero_bench::parse_flag("bench_sim", "--devices", &value());
            }
            "--jobs" => args.jobs = hetero_bench::parse_positive("bench_sim", "--jobs", &value()),
            "--json" => args.json = true,
            "--analyze" => {} // consumed by maybe_analyze
            _ => usage(),
        }
    }
    args
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
    hetero_bench::maybe_help(
        "bench_sim",
        "simulator micro-benchmarks: the all-integer counters behind BENCH_sim.json",
        &[
            ("--devices N", "calibration fleet size (default 128)"),
            (
                "--jobs N",
                "workers for the parallel calibration arm (default: all cores)",
            ),
            ("--json", "print the machine-readable snapshot on stdout"),
        ],
    );
    hetero_bench::maybe_analyze();
    let args = parse_args();
    println!(
        "Simulator micro-benchmarks ({} calibration devices, {} jobs)\n",
        args.devices, args.jobs
    );

    // --- calibration sessions/s, serial vs parallel ------------------
    let model = ModelConfig::internlm_1_8b();
    let (profiles, socs) = hetero_fleet::calibrate_profiles_with_socs(&model);
    let (serial, serial_ns) =
        time(|| calibrate_devices(&model, &profiles, &socs, 42, args.devices, 1));
    let (parallel, parallel_ns) =
        time(|| calibrate_devices(&model, &profiles, &socs, 42, args.devices, args.jobs));
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

    // --- calendar-queue DES events/s ---------------------------------
    let des_events = 400_000u64;
    let ((), des_ns) = time(|| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut popped = 0u64;
        // Seeded burst pattern: schedule 8, pop 4, so the queue both
        // grows and drains like a busy device simulation.
        let mut t = 0u64;
        let mut i = 0u64;
        while i < des_events {
            for _ in 0..8 {
                if i >= des_events {
                    break;
                }
                let dt = splitmix64(i) % 10_000;
                q.schedule(SimTime::from_nanos(t + dt), i);
                i += 1;
            }
            for _ in 0..4 {
                if let Some((at, _)) = q.pop() {
                    t = at.as_nanos();
                    popped += 1;
                }
            }
        }
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, des_events, "DES churn lost events");
    });

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
        devices: args.devices as u64,
        jobs: args.jobs as u64,
        calib_sessions: sessions,
        calib_serial_us: serial_ns / 1_000,
        calib_parallel_us: parallel_ns / 1_000,
        calib_serial_sessions_per_sec: per_sec(sessions, serial_ns),
        calib_parallel_sessions_per_sec: per_sec(sessions, parallel_ns),
        gemm_mflops,
        gemm_flops_per_iter: flops_per_iter,
        gemm_iters,
        des_events_per_sec: per_sec(des_events, des_ns),
        des_events,
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
        format!("calibration ({} jobs)", args.jobs),
        "sessions/s".into(),
        snapshot.calib_parallel_sessions_per_sec.to_string(),
    ]);
    t.row(&[
        "functional GEMM".into(),
        "MFLOP/s".into(),
        snapshot.gemm_mflops.to_string(),
    ]);
    t.row(&[
        "calendar-queue DES".into(),
        "events/s".into(),
        snapshot.des_events_per_sec.to_string(),
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
        args.devices, sessions, serial.faulted
    );

    if args.json {
        println!(
            "{}",
            serde_json::to_string(&snapshot).expect("serialize snapshot")
        );
    }
    save_json("bench_sim", &snapshot);
}
