//! Ablation: real-execution profiling vs decision-tree prediction.
//!
//! §4.3 argues prediction-mode profiling is sufficient because "minor
//! inaccuracies in performance results across different backends are
//! tolerable for our solver". This ablation runs the full engine with
//! both providers and compares end-to-end throughput.

use hetero_bench::{fmt, print_claims, save_json, Claim, Table};
use hetero_soc::sync::SyncMechanism;
use heterollm::engines::{Engine, HeteroTensorEngine};
use heterollm::ModelConfig;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    model: String,
    seq: usize,
    real_exec: f64,
    predicted: f64,
}

fn main() {
    hetero_bench::cli::parse(
        "ablate_profiler",
        "Ablation: real-execution profiling vs decision-tree prediction",
        &[],
    );
    println!("Ablation: profiler mode (real-execution vs decision-tree prediction)\n");
    let mut t = Table::new(&[
        "model",
        "seq",
        "real-exec tok/s",
        "predicted tok/s",
        "delta",
    ]);
    let mut points = Vec::new();
    for model in [
        ModelConfig::llama_8b(),
        ModelConfig::llama_3b(),
        ModelConfig::internlm_1_8b(),
    ] {
        for seq in [64usize, 256, 1024] {
            let mut real = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
            let mut pred = HeteroTensorEngine::with_predicted_profiler(&model, SyncMechanism::Fast);
            let r = real.prefill(seq).tokens_per_sec();
            let p = pred.prefill(seq).tokens_per_sec();
            t.row(&[
                model.name.clone(),
                seq.to_string(),
                fmt(r),
                fmt(p),
                format!("{:+.1}%", (p / r - 1.0) * 100.0),
            ]);
            points.push(Point {
                model: model.name.clone(),
                seq,
                real_exec: r,
                predicted: p,
            });
        }
    }
    t.print();

    let worst = points
        .iter()
        .map(|p| (p.predicted / p.real_exec - 1.0).abs())
        .fold(0.0f64, f64::max);
    println!(
        "\nworst end-to-end delta from prediction-mode profiling: {:.1}%",
        worst * 100.0
    );
    assert!(
        worst < 0.25,
        "prediction mode must stay within 25% end to end"
    );
    print_claims(
        "ablate_profiler",
        "Paper claims (§4.3)",
        &[Claim {
            what: "worst end-to-end delta of prediction-mode solving (fraction)".into(),
            paper: 0.05,
            measured: worst,
            rel_tol: 5.0,
        }],
    );
    save_json("ablate_profiler", &points);
}
