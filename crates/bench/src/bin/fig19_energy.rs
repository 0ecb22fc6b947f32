//! Figure 19: power and energy consumption during the Llama-8B prefill
//! phase (sequence length 256).

use hetero_bench::{fmt, print_claims, save_json, Claim, Table};
use hetero_soc::sync::SyncMechanism;
use heterollm::{EngineKind, ModelConfig};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    engine: String,
    power_w: f64,
    energy_j: f64,
    tokens_per_sec: f64,
}

fn main() {
    hetero_bench::cli::parse(
        "fig19_energy",
        "Figure 19: power and energy consumption during the Llama-8B prefill",
        &[],
    );
    println!("Figure 19: power and energy, Llama-8B prefill @ seq 256\n");
    let model = ModelConfig::llama_8b();
    let mut t = Table::new(&["engine", "power (W)", "energy (J)", "tokens/s"]);
    let mut points = Vec::new();
    for kind in [
        EngineKind::PplOpenCl,
        EngineKind::HeteroLayer,
        EngineKind::HeteroTensor,
    ] {
        let mut e = kind.build(&model, SyncMechanism::Fast);
        let report = e.prefill(256);
        let power = e.finish();
        t.row(&[
            kind.name().into(),
            fmt(power.avg_power_w),
            fmt(power.energy_j),
            fmt(report.tokens_per_sec()),
        ]);
        points.push(Point {
            engine: kind.name().into(),
            power_w: power.avg_power_w,
            energy_j: power.energy_j,
            tokens_per_sec: report.tokens_per_sec(),
        });
    }
    t.print();

    let p = |e: &str| points.iter().find(|x| x.engine == e).expect("engine");
    let (ppl, hl, ht) = (p("PPL-OpenCL"), p("Hetero-layer"), p("Hetero-tensor"));

    print_claims(
        "fig19_energy",
        "Paper claims (§5.6)",
        &[
            Claim {
                what: "Hetero-layer power W (paper 2.23)".into(),
                paper: 2.23,
                measured: hl.power_w,
                rel_tol: 0.30,
            },
            Claim {
                what: "Hetero-tensor / Hetero-layer power (paper 1.232x)".into(),
                paper: 1.232,
                measured: ht.power_w / hl.power_w,
                rel_tol: 0.25,
            },
            Claim {
                what: "Hetero-tensor power reduction vs PPL (paper -36.7%)".into(),
                paper: 0.367,
                measured: 1.0 - ht.power_w / ppl.power_w,
                rel_tol: 0.40,
            },
            Claim {
                what: "Hetero-tensor energy vs Hetero-layer (paper +3.3%)".into(),
                paper: 1.033,
                measured: ht.energy_j / hl.energy_j,
                rel_tol: 0.15,
            },
            Claim {
                what: "Hetero-tensor energy efficiency vs PPL (paper 5.87x)".into(),
                paper: 5.87,
                measured: ppl.energy_j / ht.energy_j,
                rel_tol: 0.5,
            },
        ],
    );
    save_json("fig19_energy", &points);
}
