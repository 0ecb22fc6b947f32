//! Command-line driver for the simulated inference stack.
//!
//! `--trace-out` records the run through the observability layer and
//! writes a Chrome trace-event JSON (open in Perfetto / `chrome://
//! tracing`; see `OBSERVABILITY.md`). `--metrics` prints the
//! all-integer metrics snapshot as one JSON line. Both are
//! deterministic: same arguments, byte-identical output. Run with
//! `--help` for the flags, their defaults and ranges.

use hetero_bench::cli::{self, max_tokens, Flag};
use hetero_soc::sync::SyncMechanism;
use heterollm::{EngineKind, InferenceSession, ModelConfig};

fn main() {
    let args = cli::parse(
        "heterollm_sim",
        "simulate one prefill+decode session on a chosen engine/model",
        &[
            Flag::one_of::<ModelConfig>("--model", "MODEL", "llama-8b", "model config"),
            Flag::one_of::<EngineKind>("--engine", "ENGINE", "hetero-tensor", "engine under test"),
            Flag::uint(
                "--prompt",
                "N",
                256,
                0..=max_tokens(),
                "prompt tokens to prefill",
            ),
            Flag::uint("--decode", "N", 64, 0..=max_tokens(), "tokens to decode"),
            Flag::one_of::<SyncMechanism>("--sync", "SYNC", "fast", "sync mechanism"),
            Flag::path(
                "--trace-out",
                "PATH",
                "write a Chrome trace-event JSON of the run (Perfetto-loadable)",
            ),
            Flag::switch(
                "--metrics",
                "print the all-integer metrics snapshot as one JSON line",
            ),
        ],
    );
    let model: ModelConfig = args.choice("--model");
    let engine: EngineKind = args.choice("--engine");
    let sync: SyncMechanism = args.choice("--sync");
    let (prompt, decode) = (args.size("--prompt"), args.size("--decode"));
    let (trace_out, metrics) = (args.path("--trace-out"), args.switch("--metrics"));
    println!(
        "simulating {} on {} ({} prompt tokens, {} decode tokens, {:?} sync)\n",
        engine.name(),
        model.name,
        prompt,
        decode,
        sync
    );
    let mut session = InferenceSession::with_sync(engine, &model, sync);
    let observed = trace_out.is_some() || metrics;
    let (r, timeline) = if observed {
        let run = session.try_run_observed(prompt, decode);
        let (r, tl) = hetero_bench::or_engine_exit("heterollm_sim", run);
        (r, Some(tl))
    } else {
        let run = session.try_run(prompt, decode);
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
        if let Some(path) = trace_out {
            let json = heterollm::obs::chrome::to_chrome_json(tl);
            std::fs::write(path, json).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!(
                "trace   : {path} ({} spans, {} flows)",
                tl.span_count(),
                tl.flow_count()
            );
        }
        if metrics {
            let snap = heterollm::obs::MetricsRegistry::from_timeline(tl).snapshot();
            println!(
                "{}",
                serde_json::to_string(&snap).expect("metrics serialize")
            );
        }
    }
}
