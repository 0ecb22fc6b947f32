//! Figure 13: prefill speed of different models under different prompt
//! lengths, across all engines.
//!
//! `--trace-out PATH` additionally captures the representative run of
//! the figure — Hetero-tensor prefilling Llama-8B at sequence 256 —
//! through the observability layer and writes a Chrome trace-event
//! JSON (Perfetto-loadable; see `OBSERVABILITY.md`).

use hetero_bench::cli::{self, Flag, MAX_JOBS};
use hetero_bench::{fmt, or_engine_exit, print_claims, save_json, Claim, Table};
use hetero_soc::sync::SyncMechanism;
use heterollm::{EngineKind, InferenceSession, ModelConfig};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    model: String,
    engine: String,
    seq: usize,
    tokens_per_sec: f64,
}

const ENGINES: [EngineKind; 7] = [
    EngineKind::MnnOpenCl,
    EngineKind::LlamaCpp,
    EngineKind::Mlc,
    EngineKind::PplOpenCl,
    EngineKind::MllmNpu,
    EngineKind::HeteroLayer,
    EngineKind::HeteroTensor,
];

fn main() {
    let args = cli::parse(
        "fig13_prefill",
        "Figure 13: prefill speed across engines, models, and prompt lengths",
        &[
            Flag::path(
                "--trace-out",
                "PATH",
                "also write a Chrome trace of Hetero-tensor prefilling Llama-8B at seq 256",
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
    println!("Figure 13: prefill speed (tokens/s)\n");
    let seqs = [64usize, 256, 1024];

    // Every (model, engine, seq) cell is an independent session; the
    // executor merges by index, so tables render identically for
    // every --jobs value.
    let models = ModelConfig::evaluation_models();
    let cells: Vec<(usize, usize, usize)> = (0..models.len())
        .flat_map(|mi| {
            (0..ENGINES.len()).flat_map(move |ei| (0..seqs.len()).map(move |si| (mi, ei, si)))
        })
        .collect();
    let rates = heterollm::exec::Executor::new(jobs).run(cells.len(), |i| {
        let (mi, ei, si) = cells[i];
        let mut e = ENGINES[ei].build(&models[mi], SyncMechanism::Fast);
        e.prefill(seqs[si]).tokens_per_sec()
    });
    let mut points = Vec::new();
    for (&(mi, ei, si), &rate) in cells.iter().zip(&rates) {
        points.push(Point {
            model: models[mi].name.clone(),
            engine: ENGINES[ei].name().into(),
            seq: seqs[si],
            tokens_per_sec: rate,
        });
    }
    for (mi, model) in models.iter().enumerate() {
        println!("== {} ==", model.name);
        let mut t = Table::new(&["engine", "seq 64", "seq 256", "seq 1024"]);
        for (ei, kind) in ENGINES.iter().enumerate() {
            let mut row_cells = vec![kind.name().to_string()];
            for si in 0..seqs.len() {
                let idx = (mi * ENGINES.len() + ei) * seqs.len() + si;
                row_cells.push(fmt(rates[idx]));
            }
            t.row(&row_cells);
        }
        t.print();
        println!();
    }

    let rate = |model: &str, engine: &str, seq: usize| {
        points
            .iter()
            .find(|p| p.model == model && p.engine == engine && p.seq == seq)
            .map(|p| p.tokens_per_sec)
            .expect("point exists")
    };

    let hl = |m: &str, s: usize| rate(m, "Hetero-layer", s);
    let ht = |m: &str, s: usize| rate(m, "Hetero-tensor", s);

    print_claims(
        "fig13_prefill",
        "Paper claims (§5.2.1)",
        &[
            Claim {
                what: "Llama-8B seq256: Hetero-layer / PPL-OpenCL (paper 2.99x)".into(),
                paper: 2.99,
                measured: hl("Llama-8B", 256) / rate("Llama-8B", "PPL-OpenCL", 256),
                rel_tol: 0.35,
            },
            Claim {
                what: "Llama-8B seq256: Hetero-layer / MLC (paper 5.64x)".into(),
                paper: 5.64,
                measured: hl("Llama-8B", 256) / rate("Llama-8B", "MLC", 256),
                rel_tol: 0.35,
            },
            Claim {
                what: "Llama-8B seq256: Hetero-layer / MNN (paper 5.85x)".into(),
                paper: 5.85,
                measured: hl("Llama-8B", 256) / rate("Llama-8B", "MNN-OpenCL", 256),
                rel_tol: 0.35,
            },
            Claim {
                what: "Llama-8B seq256: Hetero-layer / llama.cpp (paper 24.9x)".into(),
                paper: 24.9,
                measured: hl("Llama-8B", 256) / rate("Llama-8B", "llama.cpp", 256),
                rel_tol: 0.45,
            },
            Claim {
                what: "Llama-8B seq1024: Hetero-tensor / MLC (paper 9.99x)".into(),
                paper: 9.99,
                measured: ht("Llama-8B", 1024) / rate("Llama-8B", "MLC", 1024),
                rel_tol: 0.45,
            },
            Claim {
                what: "Llama-8B seq1024: Hetero-tensor / MNN (paper 4.36x)".into(),
                paper: 4.36,
                measured: ht("Llama-8B", 1024) / rate("Llama-8B", "MNN-OpenCL", 1024),
                rel_tol: 0.60,
            },
            Claim {
                what: "Llama-8B seq1024: Hetero-tensor tokens/s (paper 247.9)".into(),
                paper: 247.9,
                measured: ht("Llama-8B", 1024),
                rel_tol: 0.35,
            },
            Claim {
                what: "InternLM-1.8B seq256: Hetero-tensor tokens/s (paper 1092)".into(),
                paper: 1092.0,
                measured: ht("InternLM-1.8B", 256),
                rel_tol: 0.35,
            },
            Claim {
                what: "InternLM-1.8B@256: Hetero-tensor / MLLM-NPU (paper 1092/564 = 1.94x)".into(),
                paper: 1.94,
                measured: ht("InternLM-1.8B", 256) / rate("InternLM-1.8B", "MLLM-NPU", 256),
                rel_tol: 0.35,
            },
            Claim {
                what: "Hetero-tensor / Hetero-layer avg gain (paper ~1.30x)".into(),
                paper: 1.30,
                measured: {
                    let mut acc = 0.0;
                    let mut n = 0.0;
                    for m in ["Llama-8B", "Llama-7B", "Llama-3B", "InternLM-1.8B"] {
                        for s in seqs {
                            acc += ht(m, s) / hl(m, s);
                            n += 1.0;
                        }
                    }
                    acc / n
                },
                rel_tol: 0.20,
            },
        ],
    );
    save_json("fig13_prefill", &points);

    if let Some(path) = trace_out {
        let mut session = InferenceSession::new(EngineKind::HeteroTensor, &ModelConfig::llama_8b());
        let (_, tl) = or_engine_exit("fig13_prefill", session.try_run_observed(256, 0));
        tl.check_well_formed().expect("fig13 timeline well-formed");
        std::fs::write(path, heterollm::obs::chrome::to_chrome_json(&tl)).expect("write trace");
        println!(
            "\n[trace: Hetero-tensor Llama-8B prefill@256 -> {path} ({} spans)]",
            tl.span_count()
        );
    }
}
