//! ASCII swimlane of one observed session: what each backend was doing
//! when, on the simulated clock.
//!
//! ```text
//! cargo run --release -p hetero-bench --bin timeline -- \
//!     --model internlm-1.8b --engine hetero-tensor --prompt 256 --decode 8 \
//!     [--width 100] [--trace-out trace.json]
//! ```
//!
//! The render places one row per track (GPU, NPU, CPU, Controller):
//! `#` = kernel execution, `~` = synchronization (switches,
//! rendezvous), `c` = graph-cache work, `*` = controller reactions,
//! `.` = an enclosing phase with nothing else scheduled. A phase
//! header row marks prefill vs decode. `--trace-out` additionally
//! writes the full-fidelity Chrome trace-event JSON of the same run.

use hetero_soc::sync::SyncMechanism;
use heterollm::obs::{swimlane, MetricsRegistry};
use heterollm::{EngineKind, InferenceSession, ModelConfig};

struct Args {
    model: ModelConfig,
    engine: EngineKind,
    prompt: usize,
    decode: usize,
    sync: SyncMechanism,
    width: usize,
    trace_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: timeline [--model MODEL] [--engine ENGINE] [--prompt N] [--decode N]\n\
         \x20               [--sync fast|driver] [--width COLS] [--trace-out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        model: ModelConfig::internlm_1_8b(),
        engine: EngineKind::HeteroTensor,
        prompt: 256,
        decode: 8,
        sync: SyncMechanism::Fast,
        width: 100,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--model" => args.model = ModelConfig::by_name(&value()).unwrap_or_else(|| usage()),
            "--engine" => args.engine = hetero_bench::parse_flag("timeline", "--engine", &value()),
            "--prompt" => args.prompt = hetero_bench::parse_flag("timeline", "--prompt", &value()),
            "--decode" => args.decode = hetero_bench::parse_flag("timeline", "--decode", &value()),
            "--sync" => {
                args.sync = match value().as_str() {
                    "fast" => SyncMechanism::Fast,
                    "driver" => SyncMechanism::Driver,
                    _ => usage(),
                }
            }
            "--width" => args.width = hetero_bench::parse_flag("timeline", "--width", &value()),
            "--trace-out" => args.trace_out = Some(value()),
            "--analyze" => {} // handled by maybe_analyze
            _ => usage(),
        }
    }
    if args.width < 20 {
        usage();
    }
    args
}

fn main() {
    hetero_bench::maybe_help(
        "timeline",
        "render an ASCII swimlane of one observed prefill+decode session",
        &[
            ("--model MODEL", "model config (default internlm-1.8b)"),
            (
                "--engine ENGINE",
                "engine under test (default hetero-tensor)",
            ),
            ("--prompt N", "prompt tokens to prefill (default 256)"),
            ("--decode N", "tokens to decode (default 8)"),
            ("--sync fast|driver", "sync mechanism (default fast)"),
            (
                "--width COLS",
                "swimlane width in columns (default 100, min 20)",
            ),
            (
                "--trace-out PATH",
                "also write the Chrome trace-event JSON of the same run",
            ),
        ],
    );
    hetero_bench::maybe_analyze();
    let args = parse_args();
    println!(
        "timeline: {} on {} ({} prompt, {} decode, {:?} sync)\n",
        args.engine.name(),
        args.model.name,
        args.prompt,
        args.decode,
        args.sync
    );
    let mut session = InferenceSession::with_sync(args.engine, &args.model, args.sync);
    let run = session.try_run_observed(args.prompt, args.decode);
    let (report, tl) = hetero_bench::or_engine_exit("timeline", run);
    tl.check_well_formed().expect("timeline well-formed");

    print!("{}", swimlane::render(&tl, args.width));

    let snap = MetricsRegistry::from_timeline(&tl).snapshot();
    println!();
    for c in &snap.counters {
        println!("  {:<20} {}", c.name, c.value);
    }
    println!(
        "\nTTFT {}  TPOT {}  ({} spans, {} flows)",
        report.ttft(),
        report.tpot(),
        tl.spans().len(),
        tl.flows().len()
    );

    if let Some(path) = &args.trace_out {
        std::fs::write(path, heterollm::obs::chrome::to_chrome_json(&tl)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("trace written to {path}");
    }
}
