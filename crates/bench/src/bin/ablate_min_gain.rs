//! Ablation: the solver's minimum-parallel-gain threshold.
//!
//! §4.3: "for certain tensor sizes where GPU-NPU parallelism does not
//! yield any performance benefits, the solver opts not to partition the
//! tensor." This sweep shows the latency/power/GPU-headroom trade-off
//! the threshold buys: aggressive splitting shaves a few percent of
//! latency but doubles GPU occupancy (hurting power and co-running
//! apps).

use hetero_bench::{fmt, save_json, Table};
use hetero_soc::sync::SyncMechanism;
use hetero_soc::Backend;
use heterollm::engines::{Engine, HeteroTensorEngine};
use heterollm::ModelConfig;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    min_gain: f64,
    tokens_per_sec: f64,
    gpu_duty: f64,
    power_w: f64,
}

fn main() {
    hetero_bench::cli::parse(
        "ablate_min_gain",
        "Ablation: the solver's minimum-parallel-gain threshold",
        &[],
    );
    println!("Ablation: min-parallel-gain threshold (Llama-8B, seq 256 prefill)\n");
    let model = ModelConfig::llama_8b();
    let mut t = Table::new(&["min gain", "tokens/s", "GPU duty", "power (W)"]);
    let mut points = Vec::new();
    for min_gain in [0.0, 0.05, 0.10, 0.25, 0.50] {
        let mut engine =
            HeteroTensorEngine::with_min_parallel_gain(&model, SyncMechanism::Fast, min_gain);
        let report = engine.prefill(256);
        let clock = engine.soc().clock().as_secs_f64();
        let power = engine.finish();
        let gpu_duty = engine.soc().meter().busy(Backend::Gpu).as_secs_f64() / clock;
        t.row(&[
            format!("{min_gain:.2}"),
            fmt(report.tokens_per_sec()),
            format!("{:.0}%", gpu_duty * 100.0),
            fmt(power.avg_power_w),
        ]);
        points.push(Point {
            min_gain,
            tokens_per_sec: report.tokens_per_sec(),
            gpu_duty,
            power_w: power.avg_power_w,
        });
    }
    t.print();

    // Trade-off shape: latency decreases monotonically as the threshold
    // drops, but GPU duty and power rise.
    let split_all = &points[0]; // 0.0 — split everything
    let default = points
        .iter()
        .find(|p| p.min_gain == 0.10)
        .expect("default point");
    let split_rarely = points.last().expect("points"); // 0.50 — splits only huge wins
    assert!(split_all.tokens_per_sec >= split_rarely.tokens_per_sec * 0.99);
    assert!(split_all.gpu_duty > split_rarely.gpu_duty);
    assert!(split_all.power_w > split_rarely.power_w);
    // The default keeps ≥95% of split-everything throughput at a
    // fraction of the GPU duty and power.
    assert!(default.tokens_per_sec > split_all.tokens_per_sec * 0.95);
    assert!(default.gpu_duty < split_all.gpu_duty * 0.8);
    println!(
        "\nsplit-everything vs default(0.10): {:+.1}% throughput for {:+.0}% GPU duty and {:+.2} W;\nraising the bar to 0.50 unsplits FFN-down and costs {:.0}% of the throughput.",
        (split_all.tokens_per_sec / default.tokens_per_sec - 1.0) * 100.0,
        (split_all.gpu_duty - default.gpu_duty) * 100.0,
        split_all.power_w - default.power_w,
        (1.0 - split_rarely.tokens_per_sec / default.tokens_per_sec) * 100.0
    );
    save_json("ablate_min_gain", &points);
}
