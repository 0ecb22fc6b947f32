//! Host-time benchmark of the simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process, one thread, `jobs = 1` everywhere. A run sets its
//! workload up [`SETUPS`] times (each set-up ends with one warm-up op,
//! charged to set-up), then runs whole seed cycles of identical,
//! checked ops for `--seconds`. The last stdout line is one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a span-traced run with `--trace 1`. Every timing is host
//! time, what the simulator costs to run, scaled to nominal host speed
//! (see [`host`]). See `perfbench/README.md`.

mod device;
mod fleet;
mod host;
mod stats;
mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use stats::{median, quantile, rate_per_s, Tally};
use trace::{CountingAlloc, Tracer};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; a layer a workload
/// does not reach reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("calib.class_ms", "ms"),
    ("calib.device_ms", "ms"),
    ("calib.sessions", "count"),
    ("calib.faulted_frac", "ratio"),
    ("calib.allocs_per_session", "count"),
    ("world.build_ms", "ms"),
    ("world.other_ms", "ms"),
    ("replay.robust_ms", "ms"),
    ("replay.naive_ms", "ms"),
    ("replay.record_ms", "ms"),
    ("replay.dispatches_per_served", "ratio"),
    ("replay.allocs_per_request", "count"),
    ("rollout.rollback_ms", "ms"),
    ("rollout.promote_ms", "ms"),
    ("rollout.windows", "count"),
    ("monitor.sweep_ms", "ms"),
    ("monitor.events", "count"),
    ("lint.rollout_ms", "ms"),
    ("events.write_ms", "ms"),
    ("events.read_ms", "ms"),
    ("events.bytes", "B"),
    ("events.allocs_per_event", "count"),
    ("session.hetero_ms", "ms"),
    ("session.baseline_ms", "ms"),
    ("session.allocs_per_session", "count"),
    ("runtime.serve_ms", "ms"),
    ("bound.lint_ms", "ms"),
    ("functional.generate_ms", "ms"),
    ("obs.trace_ms", "ms"),
    ("obs.trace_bytes", "B"),
    ("op_ms_p90", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("trace.ops", "count"),
    ("host.ref_ms", "ms"),
];

/// splitmix64: derives the workload's inputs from `--seed`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The outcome of checking one op.
pub struct Checked {
    /// Why outputs failed their check; empty when every one passed.
    pub failures: Vec<String>,
    /// Items the op processed (the unit of `items_per_s`).
    pub items: u64,
    /// Digest of the op's simulated outputs.
    pub digest: u64,
    /// Per-op work counts, averaged into per-layer metrics.
    pub counts: Vec<(&'static str, f64)>,
}

/// One benchmark workload.
pub trait Workload {
    /// What one op returns for checking.
    type Out;
    /// Ops in one seed cycle; a run covers whole cycles.
    fn cycle(&self) -> usize;
    /// Op `k` of the cycle: the timed work.
    fn run(&mut self, k: usize, tr: &mut Tracer) -> Self::Out;
    /// Check op `k`'s outputs (untimed).
    fn check(&self, k: usize, out: Self::Out) -> Checked;
    /// Calls that split a layer out of op `k`, traced outside the op.
    fn probe(&mut self, _k: usize, _tr: &mut Tracer) {}
    /// Per-layer metrics derived from the traced ops.
    fn layers(&self, _l: &Layers) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// One traced op: scaled self time (ns) and allocations per layer.
#[derive(Default)]
pub struct OpLayers {
    costs: BTreeMap<&'static str, (f64, u64)>,
    counts: Vec<(&'static str, f64)>,
}

impl OpLayers {
    /// Self time of layer `name` in this op, ns (0 if absent).
    pub fn ns(&self, name: &str) -> f64 {
        self.costs.get(name).map_or(0.0, |c| c.0)
    }
}

/// Every traced op of a run.
pub struct Layers {
    ops: Vec<OpLayers>,
}

impl Layers {
    /// Traced ops.
    pub fn ops(&self) -> usize {
        self.ops.len()
    }

    /// Median over ops of `f(op)` ns, in ms.
    pub fn median_ms_of(&self, f: impl Fn(&OpLayers) -> f64) -> f64 {
        let xs: Vec<f64> = self.ops.iter().map(|op| f(op) / 1e6).collect();
        median(&xs).unwrap_or(0.0)
    }

    /// Self allocations of the named layers over every traced op.
    pub fn allocs(&self, names: &[&str]) -> u64 {
        self.ops
            .iter()
            .flat_map(|op| names.iter().filter_map(|n| op.costs.get(n)))
            .map(|c| c.1)
            .sum()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.clamp(1, 120)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

/// Everything a run measured; times are scaled to nominal host speed.
#[derive(Default)]
struct Run {
    tally: Tally,
    digest: u64,
    setup_s: Vec<f64>,
    /// Ops timed, traced or not.
    timed: usize,
    /// Untraced ops: ms each; their items and total ns.
    op_ms: Vec<f64>,
    items: u64,
    op_ns: f64,
    /// Mean op time of each untraced and each traced cycle, ms.
    cycle_ms: Vec<f64>,
    traced_cycle_ms: Vec<f64>,
    /// Unscaled op times, ms.
    wall_ms: Vec<f64>,
    /// Reference kernel times, ms.
    ref_ms: Vec<f64>,
    metrics: Vec<(&'static str, f64)>,
}

/// Record op `k`'s check, comparing its digest with the first op at
/// the same cycle position; the first failing op's reasons go to
/// stderr.
fn record(tally: &mut Tally, refs: &mut [Option<u64>], k: usize, c: &Checked) {
    let repeats = *refs[k].get_or_insert(c.digest) == c.digest;
    let ok = c.failures.is_empty() && repeats;
    if !ok && tally.failed == 0 {
        let why = c.failures.join("; ");
        eprintln!(
            "perfbench: op {} failed: {why} (digest repeats: {repeats})",
            tally.attempted + 1
        );
    }
    tally.record(ok);
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn bench<W: Workload>(make: impl Fn(u64) -> W, args: &Args) -> Run {
    let mut run = Run::default();
    let mut tr = Tracer::new();
    let mut speedo = host::Speedometer::new();
    let mut refs: Vec<Option<u64>> = Vec::new();
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let start = Instant::now();
        let mut w = make(args.seed);
        let out = w.run(0, &mut tr);
        let setup = ns_since(start);
        run.setup_s.push(setup as f64 * speedo.factor() / 1e9);
        refs.resize(w.cycle(), None);
        record(&mut run.tally, &mut refs, 0, &w.check(0, out));
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");

    // Traced ops by id: host-speed factor and counts (costs come later).
    let mut traced: BTreeMap<u32, (f64, OpLayers)> = BTreeMap::new();
    let start = Instant::now();
    let mut op_id = 0u32;
    for cycle in 0.. {
        // A trace run alternates untraced and traced cycles, so both
        // see the same host conditions.
        let traced_cycle = args.trace && cycle % 2 == 1;
        tr.set_on(traced_cycle);
        let mut cycle_ms = 0.0;
        for k in 0..w.cycle() {
            op_id += 1;
            tr.set_op(op_id);
            if traced_cycle {
                w.probe(k, &mut tr);
            }
            let t0 = Instant::now();
            tr.begin("op");
            let out = w.run(k, &mut tr);
            tr.end();
            let ns = ns_since(t0);
            let speed = speedo.factor();
            let ms = ns as f64 * speed / 1e6;
            run.timed += 1;
            cycle_ms += ms / w.cycle() as f64;
            let c = w.check(k, out);
            record(&mut run.tally, &mut refs, k, &c);
            if traced_cycle {
                let counts = c.counts;
                let costs = BTreeMap::new();
                traced.insert(op_id, (speed, OpLayers { costs, counts }));
            } else {
                run.op_ms.push(ms);
                run.wall_ms.push(ns as f64 / 1e6);
                run.op_ns += ns as f64 * speed;
                run.items += c.items;
            }
        }
        if traced_cycle {
            run.traced_cycle_ms.push(cycle_ms);
        } else {
            run.cycle_ms.push(cycle_ms);
        }
        let done = start.elapsed().as_secs() >= args.seconds;
        if done && (!args.trace || traced_cycle) {
            break;
        }
    }
    tr.set_on(false);
    run.ref_ms = speedo.samples().to_vec();
    run.digest = refs
        .iter()
        .flatten()
        .fold(stats::FNV_START, |h, d| stats::fnv1a(h, &d.to_le_bytes()));
    if args.trace {
        run.metrics = layer_metrics(&w, &tr, traced, &run);
        write_spans(&tr, args);
    }
    run
}

/// The per-layer metrics of a trace run.
fn layer_metrics<W: Workload>(
    w: &W,
    tr: &Tracer,
    mut traced: BTreeMap<u32, (f64, OpLayers)>,
    run: &Run,
) -> Vec<(&'static str, f64)> {
    // Coverage: the share of op time spent inside layer spans.
    let (mut op_total, mut op_self) = (0u64, 0u64);
    for (span, (self_ns, self_allocs)) in tr.spans().iter().zip(tr.self_costs()) {
        if span.name == "op" {
            op_total += span.at.end_ns - span.at.start_ns;
            op_self += self_ns;
        }
        if let Some((speed, op)) = traced.get_mut(&span.op) {
            let entry = op.costs.entry(span.name).or_default();
            entry.0 += self_ns as f64 * *speed;
            entry.1 += self_allocs;
        }
    }
    let layers = Layers {
        ops: traced.into_values().map(|(_, op)| op).collect(),
    };
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    let mut set = |name: &str, value: f64| {
        let slot = out
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric `{name}` is not declared"));
        *slot = value;
    };
    let span_names: BTreeSet<&'static str> = tr.spans().iter().map(|s| s.name).collect();
    for name in span_names.into_iter().filter(|&n| n != "op") {
        set(&format!("{name}_ms"), layers.median_ms_of(|op| op.ns(name)));
    }
    let count_names: BTreeSet<&'static str> = layers
        .ops
        .iter()
        .flat_map(|op| op.counts.iter().map(|c| c.0))
        .collect();
    for name in count_names {
        let sum: f64 = layers
            .ops
            .iter()
            .flat_map(|op| op.counts.iter().filter(|c| c.0 == name).map(|c| c.1))
            .sum();
        set(name, sum / layers.ops().max(1) as f64);
    }
    for (name, value) in w.layers(&layers) {
        set(name, value);
    }
    let untraced_p50 = median(&run.cycle_ms).unwrap_or(0.0);
    set("op_ms_p90", quantile(&run.op_ms, 0.9).unwrap_or(0.0));
    set(
        "trace.overhead_frac",
        median(&run.traced_cycle_ms).unwrap_or(0.0) / untraced_p50.max(f64::MIN_POSITIVE) - 1.0,
    );
    set(
        "trace.coverage_frac",
        1.0 - op_self as f64 / op_total.max(1) as f64,
    );
    set("trace.ops", layers.ops() as f64);
    set("host.ref_ms", median(&run.ref_ms).unwrap_or(0.0));
    PER_LAYER.iter().map(|&(n, _)| (n, out[n])).collect()
}

/// Write the recorded spans next to the benchmark's sources.
fn write_spans(tr: &Tracer, args: &Args) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_json())) {
        Ok(()) => println!("spans: {} written to {}", tr.spans().len(), path.display()),
        Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload \
                 <fleet-sweep|fleet-replay|event-log-io|device-mix> --seed N --seconds N --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc {nproc}, cpu {}, 1 thread, jobs 1",
        host::cpu_model()
    );
    let run = match args.workload.as_str() {
        "fleet-sweep" => bench(fleet::FleetSweep::new, &args),
        "fleet-replay" => bench(fleet::FleetReplay::new, &args),
        "event-log-io" => bench(fleet::EventLogIo::new, &args),
        "device-mix" => bench(device::DeviceMix::new, &args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .zip(&run.metrics)
            .map(|(&(n, u), &(_, v))| (n, u, v))
            .collect()
    } else {
        // The median is over whole cycles, whose ops differ by seed.
        let values = [
            median(&run.setup_s).unwrap_or(0.0),
            median(&run.cycle_ms).unwrap_or(0.0),
            rate_per_s(run.items, run.op_ns as u64),
            host::peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    };
    println!(
        "ops: {} timed in {} whole cycles; {} checked (set-up warm-ups included), \
         {} failed, fail_frac {}",
        run.timed,
        run.cycle_ms.len() + run.traced_cycle_ms.len(),
        run.tally.attempted,
        run.tally.failed,
        run.tally.fail_frac()
    );
    println!(
        "host speed: reference kernel median {:.3} ms (nominal {:.3}); unscaled op median {:.3} ms",
        median(&run.ref_ms).unwrap_or(0.0),
        host::REF_NOMINAL_MS,
        median(&run.wall_ms).unwrap_or(0.0)
    );
    println!("digest: {:016x}", run.digest);
    for (name, unit, value) in &metrics {
        println!("  {name:<28} {value:>14.4} {unit}");
    }
    let mut json = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        run.tally.failed == 0,
        run.tally.attempted,
        run.tally.failed
    );
    ExitCode::SUCCESS
}
