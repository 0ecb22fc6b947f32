//! Command-line driver for the simulated inference stack.
//!
//! ```text
//! cargo run --release -p hetero-bench --bin heterollm_sim -- \
//!     --model llama-8b --engine hetero-tensor --prompt 256 --decode 64 \
//!     [--sync driver] [--trace-out trace.json] [--metrics]
//! ```
//!
//! `--trace-out` records the run through the observability layer and
//! writes a Chrome trace-event JSON (open in Perfetto / `chrome://
//! tracing`; see `OBSERVABILITY.md`). `--metrics` prints the
//! all-integer metrics snapshot as one JSON line. Both are
//! deterministic: same arguments, byte-identical output.

use hetero_soc::sync::SyncMechanism;
use heterollm::{EngineKind, InferenceSession, ModelConfig};

struct Args {
    model: ModelConfig,
    engine: EngineKind,
    prompt: usize,
    decode: usize,
    sync: SyncMechanism,
    trace_out: Option<String>,
    metrics: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: heterollm_sim [--model MODEL] [--engine ENGINE] [--prompt N] [--decode N]\n\
         \x20                    [--sync fast|driver] [--trace-out PATH] [--metrics]\n\
         \n\
         MODEL:  llama-8b | llama-7b | llama-3b | internlm-1.8b | mistral-7b | qwen2-1.5b\n\
         ENGINE: hetero-tensor | hetero-layer | ppl-opencl | mlc | mnn-opencl |\n\
                 llama-cpp | padding | online-prepare | pipe | chunked-prefill | mllm-npu"
    );
    std::process::exit(2);
}

fn parse_model(s: &str) -> Option<ModelConfig> {
    ModelConfig::by_name(s)
}

fn parse_engine(s: &str) -> Option<EngineKind> {
    s.parse().ok()
}

fn parse_args() -> Args {
    let mut args = Args {
        model: ModelConfig::llama_8b(),
        engine: EngineKind::HeteroTensor,
        prompt: 256,
        decode: 64,
        sync: SyncMechanism::Fast,
        trace_out: None,
        metrics: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--model" => args.model = parse_model(&value()).unwrap_or_else(|| usage()),
            "--engine" => args.engine = parse_engine(&value()).unwrap_or_else(|| usage()),
            "--prompt" => {
                args.prompt = hetero_bench::parse_flag("heterollm_sim", "--prompt", &value());
            }
            "--decode" => {
                args.decode = hetero_bench::parse_flag("heterollm_sim", "--decode", &value());
            }
            "--sync" => {
                args.sync = match value().as_str() {
                    "fast" => SyncMechanism::Fast,
                    "driver" => SyncMechanism::Driver,
                    _ => usage(),
                }
            }
            "--trace-out" => args.trace_out = Some(value()),
            "--metrics" => args.metrics = true,
            "--analyze" => {} // handled by maybe_analyze
            _ => usage(),
        }
    }
    args
}

fn main() {
    hetero_bench::maybe_help(
        "heterollm_sim",
        "simulate one prefill+decode session on a chosen engine/model",
        &[
            ("--model MODEL", "model config (default llama-8b)"),
            (
                "--engine ENGINE",
                "engine under test (default hetero-tensor)",
            ),
            ("--prompt N", "prompt tokens to prefill (default 256)"),
            ("--decode N", "tokens to decode (default 64)"),
            ("--sync fast|driver", "sync mechanism (default fast)"),
            (
                "--trace-out PATH",
                "write a Chrome trace-event JSON of the run (Perfetto-loadable)",
            ),
            (
                "--metrics",
                "print the all-integer metrics snapshot as one JSON line",
            ),
        ],
    );
    hetero_bench::maybe_analyze();
    let args = parse_args();
    println!(
        "simulating {} on {} ({} prompt tokens, {} decode tokens, {:?} sync)\n",
        args.engine.name(),
        args.model.name,
        args.prompt,
        args.decode,
        args.sync
    );
    let mut session = InferenceSession::with_sync(args.engine, &args.model, args.sync);
    let observed = args.trace_out.is_some() || args.metrics;
    let (r, timeline) = if observed {
        let run = session.try_run_observed(args.prompt, args.decode);
        let (r, tl) = hetero_bench::or_engine_exit("heterollm_sim", run);
        (r, Some(tl))
    } else {
        let run = session.try_run(args.prompt, args.decode);
        (hetero_bench::or_engine_exit("heterollm_sim", run), None)
    };
    println!(
        "prefill : {:>10}  ({:.1} tokens/s)",
        r.prefill.elapsed.to_string(),
        r.prefill.tokens_per_sec()
    );
    println!(
        "decode  : {:>10}  ({:.2} tokens/s)",
        r.decode.elapsed.to_string(),
        r.decode.tokens_per_sec()
    );
    println!("TTFT    : {:>10}", r.ttft().to_string());
    println!("TPOT    : {:>10}", r.tpot().to_string());
    println!(
        "power   : {:>9.2}W  energy {:.2} J",
        r.power.avg_power_w, r.power.energy_j
    );
    if let Some(tl) = &timeline {
        if let Err(e) = tl.check_well_formed() {
            eprintln!("timeline malformed: {e}");
            std::process::exit(1);
        }
        if let Some(path) = &args.trace_out {
            let json = heterollm::obs::chrome::to_chrome_json(tl);
            std::fs::write(path, json).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!(
                "trace   : {path} ({} spans, {} flows)",
                tl.spans().len(),
                tl.flows().len()
            );
        }
        if args.metrics {
            let snap = heterollm::obs::MetricsRegistry::from_timeline(tl).snapshot();
            println!(
                "{}",
                serde_json::to_string(&snap).expect("metrics serialize")
            );
        }
    }
}
