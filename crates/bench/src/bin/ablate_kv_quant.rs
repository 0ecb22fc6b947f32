//! Extension experiment: INT8 KV-cache quantization.
//!
//! The paper's decode analysis is bandwidth-bound; KV-cache traffic is
//! the component that *grows* with context. Halving its width shifts
//! the long-context decode curve — an extension in the spirit of the
//! KV-compression work the paper cites (InfiniGen, CacheGen).

use hetero_bench::{fmt, save_json, Table};
use hetero_soc::sync::SyncMechanism;
use heterollm::{EngineKind, ModelConfig};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    ctx: usize,
    f16_tokens_per_sec: f64,
    int8_tokens_per_sec: f64,
}

fn main() {
    hetero_bench::cli::parse(
        "ablate_kv_quant",
        "Extension experiment: INT8 KV-cache quantization",
        &[],
    );
    println!("Extension: INT8 KV cache vs FP16 (Llama-8B decode, Hetero-tensor)\n");
    let f16_model = ModelConfig::llama_8b();
    let int8_model = ModelConfig::llama_8b().with_int8_kv();

    let mut t = Table::new(&["context", "FP16 KV tok/s", "INT8 KV tok/s", "gain"]);
    let mut points = Vec::new();
    for ctx in [256usize, 1024, 2048, 3584] {
        let rate = |model: &ModelConfig| {
            let mut e = EngineKind::HeteroTensor.build(model, SyncMechanism::Fast);
            e.decode(ctx, 8).tokens_per_sec()
        };
        let f16 = rate(&f16_model);
        let int8 = rate(&int8_model);
        t.row(&[
            ctx.to_string(),
            fmt(f16),
            fmt(int8),
            format!("{:+.1}%", (int8 / f16 - 1.0) * 100.0),
        ]);
        points.push(Point {
            ctx,
            f16_tokens_per_sec: f16,
            int8_tokens_per_sec: int8,
        });
    }
    t.print();

    // The gain grows with context (KV traffic share rises) and INT8
    // never loses.
    let gain = |p: &Point| p.int8_tokens_per_sec / p.f16_tokens_per_sec;
    for p in &points {
        assert!(gain(p) >= 0.999, "ctx {}: int8 KV must not lose", p.ctx);
    }
    assert!(
        gain(points.last().expect("points")) > gain(&points[0]),
        "gain must grow with context"
    );
    println!(
        "\nINT8 KV gain grows from {:+.1}% at ctx 256 to {:+.1}% at ctx 3584 [verified]",
        (gain(&points[0]) - 1.0) * 100.0,
        (gain(points.last().expect("points")) - 1.0) * 100.0
    );
    save_json("ablate_kv_quant", &points);
}
