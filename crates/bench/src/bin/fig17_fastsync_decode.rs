//! Figure 17: decoding rate of Hetero-tensor with and without fast
//! synchronization (prompt length 256).

use hetero_bench::{fmt, print_claims, save_json, Claim, Table};
use hetero_soc::sync::SyncMechanism;
use heterollm::{EngineKind, ModelConfig};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    model: String,
    fast: f64,
    driver: f64,
}

fn main() {
    hetero_bench::cli::parse(
        "fig17_fastsync_decode",
        "Figure 17: decoding rate of Hetero-tensor with and without fast sync",
        &[],
    );
    println!("Figure 17: Hetero-tensor decode tokens/s with/without fast sync\n");
    let mut t = Table::new(&["model", "fast sync", "driver sync", "speedup"]);
    let mut points = Vec::new();
    for model in ModelConfig::evaluation_models() {
        let mut fast_e = EngineKind::HeteroTensor.build(&model, SyncMechanism::Fast);
        let mut slow_e = EngineKind::HeteroTensor.build(&model, SyncMechanism::Driver);
        let fast = fast_e.decode(256, 16).tokens_per_sec();
        let driver = slow_e.decode(256, 16).tokens_per_sec();
        t.row(&[
            model.name.clone(),
            fmt(fast),
            fmt(driver),
            format!("{:.2}x", fast / driver),
        ]);
        points.push(Point {
            model: model.name.clone(),
            fast,
            driver,
        });
    }
    t.print();

    let speedup = |m: &str| {
        points
            .iter()
            .find(|p| p.model == m)
            .map(|p| p.fast / p.driver)
            .expect("model")
    };
    let geomean =
        (points.iter().map(|p| (p.fast / p.driver).ln()).sum::<f64>() / points.len() as f64).exp();
    print_claims(
        "fig17_fastsync_decode",
        "Paper claims (§5.4)",
        &[
            Claim {
                what: "Llama-8B decode speedup from fast sync (paper 4.01x)".into(),
                paper: 4.01,
                measured: speedup("Llama-8B"),
                rel_tol: 0.5,
            },
            Claim {
                what: "all-model geomean decode speedup (paper geomean ~2.6x)".into(),
                paper: 2.6,
                measured: geomean,
                rel_tol: 0.5,
            },
        ],
    );
    println!(
        "\nnote: the paper reports larger gains on the larger model (4.01x on 8B vs ~2.2x\n\
         on smaller models); in this reproduction the relative gain grows as models\n\
         shrink, because modelled sync costs are per-event and smaller models have\n\
         shorter kernels. The headline shape — fast synchronization is worth multiple\n\
         x in decode, far more than in prefill — holds for every model."
    );

    // Structural: decode speedup must exceed the prefill-side gains of
    // Fig. 15 (decode kernels are hundreds of µs, §5.4).
    for p in &points {
        assert!(
            p.fast / p.driver > 1.3,
            "{}: decode gain too small",
            p.model
        );
    }
    save_json("fig17_fastsync_decode", &points);
}
