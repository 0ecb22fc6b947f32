//! ASCII swimlane of one observed session: what each backend was doing
//! when, on the simulated clock.
//!
//! The render places one row per track (GPU, NPU, CPU, Controller):
//! `#` = kernel execution, `~` = synchronization (switches,
//! rendezvous), `c` = graph-cache work, `*` = controller reactions,
//! `.` = an enclosing phase with nothing else scheduled. A phase
//! header row marks prefill vs decode. `--trace-out` additionally
//! writes the full-fidelity Chrome trace-event JSON of the same run.
//! Run with `--help` for the flags, their defaults and ranges.

use hetero_bench::cli::{self, max_tokens, Flag};
use hetero_soc::sync::SyncMechanism;
use heterollm::obs::{swimlane, MetricsRegistry};
use heterollm::{EngineKind, InferenceSession, ModelConfig};

/// Widest swimlane `--width` accepts.
const MAX_WIDTH: u64 = 1000;

fn main() {
    let args = cli::parse(
        "timeline",
        "render an ASCII swimlane of one observed prefill+decode session",
        &[
            Flag::one_of::<ModelConfig>("--model", "MODEL", "internlm-1.8b", "model config"),
            Flag::one_of::<EngineKind>("--engine", "ENGINE", "hetero-tensor", "engine under test"),
            Flag::uint(
                "--prompt",
                "N",
                256,
                0..=max_tokens(),
                "prompt tokens to prefill",
            ),
            Flag::uint("--decode", "N", 8, 0..=max_tokens(), "tokens to decode"),
            Flag::one_of::<SyncMechanism>("--sync", "SYNC", "fast", "sync mechanism"),
            Flag::uint(
                "--width",
                "COLS",
                100,
                20..=MAX_WIDTH,
                "swimlane width in columns",
            ),
            Flag::path(
                "--trace-out",
                "PATH",
                "also write the Chrome trace-event JSON of the same run",
            ),
        ],
    );
    let model: ModelConfig = args.choice("--model");
    let engine: EngineKind = args.choice("--engine");
    let sync: SyncMechanism = args.choice("--sync");
    let (prompt, decode) = (args.size("--prompt"), args.size("--decode"));
    println!(
        "timeline: {} on {} ({} prompt, {} decode, {:?} sync)\n",
        engine.name(),
        model.name,
        prompt,
        decode,
        sync
    );
    let mut session = InferenceSession::with_sync(engine, &model, sync);
    let run = session.try_run_observed(prompt, decode);
    let (report, tl) = hetero_bench::or_engine_exit("timeline", run);
    tl.check_well_formed().expect("timeline well-formed");

    print!("{}", swimlane::render(&tl, args.size("--width")));

    let snap = MetricsRegistry::from_timeline(&tl).snapshot();
    println!();
    for c in &snap.counters {
        println!("  {:<20} {}", c.name, c.value);
    }
    println!(
        "\nTTFT {}  TPOT {}  ({} spans, {} flows)",
        report.ttft(),
        report.tpot(),
        tl.span_count(),
        tl.flow_count()
    );

    if let Some(path) = args.path("--trace-out") {
        std::fs::write(path, heterollm::obs::chrome::to_chrome_json(&tl)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("trace written to {path}");
    }
}
