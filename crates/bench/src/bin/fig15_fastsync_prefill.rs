//! Figure 15: prefill speed of Hetero-layer and Hetero-tensor with and
//! without fast synchronization.

use hetero_bench::{fmt, print_claims, save_json, Claim, Table};
use hetero_soc::sync::SyncMechanism;
use heterollm::{EngineKind, ModelConfig};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    model: String,
    engine: String,
    seq: usize,
    fast: f64,
    driver: f64,
}

fn main() {
    hetero_bench::cli::parse(
        "fig15_fastsync_prefill",
        "Figure 15: prefill speed of the hetero engines with and without fast sync",
        &[],
    );
    println!("Figure 15: prefill tokens/s with and without fast synchronization\n");
    let mut points = Vec::new();
    for model in ModelConfig::evaluation_models() {
        println!("== {} ==", model.name);
        let mut t = Table::new(&["engine", "seq", "fast sync", "driver sync", "improvement"]);
        for kind in [EngineKind::HeteroLayer, EngineKind::HeteroTensor] {
            for seq in [64usize, 256, 1024] {
                let mut fast_e = kind.build(&model, SyncMechanism::Fast);
                let mut slow_e = kind.build(&model, SyncMechanism::Driver);
                let fast = fast_e.prefill(seq).tokens_per_sec();
                let driver = slow_e.prefill(seq).tokens_per_sec();
                t.row(&[
                    kind.name().into(),
                    seq.to_string(),
                    fmt(fast),
                    fmt(driver),
                    format!("{:+.1}%", (fast / driver - 1.0) * 100.0),
                ]);
                points.push(Point {
                    model: model.name.clone(),
                    engine: kind.name().into(),
                    seq,
                    fast,
                    driver,
                });
            }
        }
        t.print();
        println!();
    }

    let avg_gain = |model: &str, engine: &str| {
        let sel: Vec<_> = points
            .iter()
            .filter(|p| p.model == model && p.engine == engine)
            .collect();
        sel.iter().map(|p| p.fast / p.driver - 1.0).sum::<f64>() / sel.len() as f64
    };

    print_claims(
        "fig15_fastsync_prefill",
        "Paper claims (§5.4, averages over 64/256/1024)",
        &[
            Claim {
                what: "Llama-8B Hetero-layer gain (paper +15.8%)".into(),
                paper: 0.158,
                measured: avg_gain("Llama-8B", "Hetero-layer"),
                rel_tol: 0.8,
            },
            Claim {
                what: "Llama-8B Hetero-tensor gain (paper +24.3%)".into(),
                paper: 0.243,
                measured: avg_gain("Llama-8B", "Hetero-tensor"),
                rel_tol: 0.8,
            },
            Claim {
                what: "InternLM-1.8B Hetero-tensor gain (paper +34.5%)".into(),
                paper: 0.345,
                measured: avg_gain("InternLM-1.8B", "Hetero-tensor"),
                rel_tol: 0.8,
            },
        ],
    );

    // Structural claim: tensor-level is more sync-sensitive than
    // layer-level ("Hetero-tensor is more susceptible to the
    // synchronization cost").
    let t8 = avg_gain("Llama-8B", "Hetero-tensor");
    let l8 = avg_gain("Llama-8B", "Hetero-layer");
    println!(
        "\nsync sensitivity: tensor {:.1}% vs layer {:.1}% [{}]",
        t8 * 100.0,
        l8 * 100.0,
        if t8 > l8 {
            "tensor more susceptible, as in paper"
        } else {
            "UNEXPECTED"
        }
    );
    save_json("fig15_fastsync_prefill", &points);
}
