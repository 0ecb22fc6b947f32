//! Extension experiment: tokens per battery charge.
//!
//! Converts Fig. 19-style energy measurements into the number a user
//! feels: how many tokens one phone charge buys. A typical flagship
//! battery holds ≈5000 mAh × 3.85 V ≈ 69 kJ; we budget 30% of it for
//! LLM workloads and divide by each engine's measured energy per token
//! in both phases.

use hetero_bench::{fmt, save_json, Table};
use hetero_soc::sync::SyncMechanism;
use heterollm::{EngineKind, ModelConfig};
use serde::Serialize;

/// Battery energy budgeted for LLM inference, joules (30% of ≈69 kJ).
const LLM_BUDGET_J: f64 = 69_000.0 * 0.30;

#[derive(Debug, Serialize)]
struct Point {
    engine: String,
    prefill_j_per_token: f64,
    decode_j_per_token: f64,
    prefill_tokens_per_charge: f64,
    decode_tokens_per_charge: f64,
}

fn main() {
    hetero_bench::cli::parse(
        "ablate_battery",
        "Extension experiment: tokens per battery charge",
        &[],
    );
    println!("Extension: tokens per battery charge (Llama-3B, 30% of a 69 kJ battery)\n");
    let model = ModelConfig::llama_3b();
    let mut t = Table::new(&[
        "engine",
        "prefill mJ/token",
        "decode mJ/token",
        "prefill tokens/charge",
        "decode tokens/charge",
    ]);
    let mut points = Vec::new();
    for kind in [
        EngineKind::LlamaCpp,
        EngineKind::PplOpenCl,
        EngineKind::HeteroLayer,
        EngineKind::HeteroTensor,
    ] {
        // Measure each phase on its own engine instance so energy is
        // attributable.
        let prefill_j = {
            let mut e = kind.build(&model, SyncMechanism::Fast);
            let r = e.prefill(512);
            e.finish().energy_j / r.tokens as f64
        };
        let decode_j = {
            let mut e = kind.build(&model, SyncMechanism::Fast);
            let r = e.decode(256, 32);
            e.finish().energy_j / r.tokens as f64
        };
        t.row(&[
            kind.name().into(),
            fmt(prefill_j * 1000.0),
            fmt(decode_j * 1000.0),
            fmt(LLM_BUDGET_J / prefill_j),
            fmt(LLM_BUDGET_J / decode_j),
        ]);
        points.push(Point {
            engine: kind.name().into(),
            prefill_j_per_token: prefill_j,
            decode_j_per_token: decode_j,
            prefill_tokens_per_charge: LLM_BUDGET_J / prefill_j,
            decode_tokens_per_charge: LLM_BUDGET_J / decode_j,
        });
    }
    t.print();

    let p = |e: &str| points.iter().find(|x| x.engine == e).expect("engine");
    // Ordering: hetero engines beat GPU-only, which beats CPU.
    assert!(
        p("Hetero-tensor").prefill_tokens_per_charge > p("PPL-OpenCL").prefill_tokens_per_charge
    );
    assert!(p("PPL-OpenCL").prefill_tokens_per_charge > p("llama.cpp").prefill_tokens_per_charge);
    println!(
        "\none charge prefills {} tokens with Hetero-tensor vs {} with PPL-OpenCL [verified]",
        fmt(p("Hetero-tensor").prefill_tokens_per_charge),
        fmt(p("PPL-OpenCL").prefill_tokens_per_charge)
    );
    save_json("ablate_battery", &points);
}
