//! Figure 16: decoding rate of all engines across the four models
//! (prompt length 256).
//!
//! `--trace-out PATH` additionally captures the representative run of
//! the figure — Hetero-tensor decoding 16 tokens on Llama-8B after a
//! 256-token prompt — through the observability layer and writes a
//! Chrome trace-event JSON (Perfetto-loadable; see
//! `OBSERVABILITY.md`).

use hetero_bench::cli::{self, Flag, MAX_JOBS};
use hetero_bench::{fmt, or_engine_exit, print_claims, save_json, Claim, Table};
use hetero_soc::sync::SyncMechanism;
use heterollm::{EngineKind, InferenceSession, ModelConfig};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    model: String,
    engine: String,
    tokens_per_sec: f64,
}

const ENGINES: [EngineKind; 6] = [
    EngineKind::MnnOpenCl,
    EngineKind::LlamaCpp,
    EngineKind::Mlc,
    EngineKind::PplOpenCl,
    EngineKind::HeteroLayer,
    EngineKind::HeteroTensor,
];

fn main() {
    let args = cli::parse(
        "fig16_decode",
        "Figure 16: decoding rate of all engines across the four models",
        &[
            Flag::path(
                "--trace-out",
                "PATH",
                "also write a Chrome trace of Hetero-tensor decoding 16 tokens on Llama-8B",
            ),
            Flag::uint(
                "--jobs",
                "N",
                1,
                1..=MAX_JOBS,
                "workers for the engine sessions; output is byte-identical for every value",
            ),
        ],
    );
    let (trace_out, jobs) = (args.path("--trace-out"), args.size("--jobs"));
    println!("Figure 16: decoding rate (tokens/s), prompt length 256\n");
    let models = ModelConfig::evaluation_models();
    let mut t = Table::new(&[
        "engine",
        "Llama-8B",
        "Llama-7B",
        "Llama-3B",
        "InternLM-1.8B",
    ]);
    // Every (engine, model) cell is an independent session; the
    // executor merges by index, so the table renders identically for
    // every --jobs value.
    let rates = heterollm::exec::Executor::new(jobs).run(ENGINES.len() * models.len(), |i| {
        let (ei, mi) = (i / models.len(), i % models.len());
        let mut e = ENGINES[ei].build(&models[mi], SyncMechanism::Fast);
        e.decode(256, 16).tokens_per_sec()
    });
    let mut points = Vec::new();
    for (ei, kind) in ENGINES.iter().enumerate() {
        let mut cells = vec![kind.name().to_string()];
        for (mi, model) in models.iter().enumerate() {
            let rate = rates[ei * models.len() + mi];
            cells.push(fmt(rate));
            points.push(Point {
                model: model.name.clone(),
                engine: kind.name().into(),
                tokens_per_sec: rate,
            });
        }
        t.row(&cells);
    }
    t.print();

    let rate = |model: &str, engine: &str| {
        points
            .iter()
            .find(|p| p.model == model && p.engine == engine)
            .map(|p| p.tokens_per_sec)
            .expect("point exists")
    };

    print_claims(
        "fig16_decode",
        "Paper claims (§5.3)",
        &[
            Claim {
                what: "Llama-8B Hetero-tensor tokens/s (paper 14.01)".into(),
                paper: 14.01,
                measured: rate("Llama-8B", "Hetero-tensor"),
                rel_tol: 0.25,
            },
            Claim {
                what: "Llama-3B Hetero-tensor tokens/s (paper 29.9)".into(),
                paper: 29.9,
                measured: rate("Llama-3B", "Hetero-tensor"),
                rel_tol: 0.30,
            },
            Claim {
                what: "InternLM-1.8B Hetero-tensor tokens/s (paper 51.12)".into(),
                paper: 51.12,
                measured: rate("InternLM-1.8B", "Hetero-tensor"),
                rel_tol: 0.30,
            },
            Claim {
                what: "Llama-8B: Hetero-tensor / PPL-OpenCL (paper 1.234x)".into(),
                paper: 1.234,
                measured: rate("Llama-8B", "Hetero-tensor") / rate("Llama-8B", "PPL-OpenCL"),
                rel_tol: 0.15,
            },
            Claim {
                what: "Llama-8B: Hetero-tensor / MNN (paper 1.50x)".into(),
                paper: 1.50,
                measured: rate("Llama-8B", "Hetero-tensor") / rate("Llama-8B", "MNN-OpenCL"),
                rel_tol: 0.25,
            },
            Claim {
                what: "Llama-8B: Hetero-tensor / llama.cpp (paper 2.53x)".into(),
                paper: 2.53,
                measured: rate("Llama-8B", "Hetero-tensor") / rate("Llama-8B", "llama.cpp"),
                rel_tol: 0.25,
            },
            Claim {
                what: "Llama-8B: Hetero-layer ≈ PPL-OpenCL (ratio ≈ 1)".into(),
                paper: 1.0,
                measured: rate("Llama-8B", "Hetero-layer") / rate("Llama-8B", "PPL-OpenCL"),
                rel_tol: 0.12,
            },
        ],
    );
    save_json("fig16_decode", &points);

    if let Some(path) = trace_out {
        let mut session = InferenceSession::new(EngineKind::HeteroTensor, &ModelConfig::llama_8b());
        let (_, tl) = or_engine_exit("fig16_decode", session.try_run_observed(256, 16));
        tl.check_well_formed().expect("fig16 timeline well-formed");
        std::fs::write(path, heterollm::obs::chrome::to_chrome_json(&tl)).expect("write trace");
        println!(
            "\n[trace: Hetero-tensor Llama-8B decode 16@256 -> {path} ({} spans)]",
            tl.span_count()
        );
    }
}
