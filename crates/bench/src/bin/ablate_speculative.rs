//! Extension experiment: speculative decoding (§4.1.2).
//!
//! The paper notes the decode-phase NPU graph can be pre-generated for
//! "n for speculative decoding". This experiment sweeps draft length
//! and acceptance rate, comparing Hetero-tensor against the GPU-only
//! baseline — speculation multiplies committed tokens per weight pass,
//! so the bandwidth-bound decode phase speeds up almost linearly with
//! the mean accepted prefix.

use hetero_bench::{fmt, save_json, Table};
use hetero_soc::sync::SyncMechanism;
use hetero_workloads::spec::{simulate_steps, SpecDecodeConfig};
use heterollm::engines::{BaselineEngine, Engine, GpuTier, HeteroTensorEngine};
use heterollm::spec_decode::{run_speculative_gpu, run_speculative_hetero};
use heterollm::ModelConfig;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Point {
    draft_len: usize,
    acceptance: f64,
    hetero_tokens_per_sec: f64,
    gpu_tokens_per_sec: f64,
    standard_hetero: f64,
}

fn main() {
    hetero_bench::maybe_help(
        "ablate_speculative",
        "Extension experiment: speculative decoding (§4.1.2)",
        &[],
    );
    hetero_bench::maybe_analyze();
    hetero_bench::expect_no_flags("ablate_speculative");
    println!("Extension: speculative decoding (Llama-8B, prompt 256)\n");
    let model = ModelConfig::llama_8b();
    let target = 64usize;

    let mut std_engine = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
    let standard = std_engine.decode(256, target).tokens_per_sec();

    let mut t = Table::new(&[
        "draft",
        "accept",
        "E[tokens/step]",
        "Hetero-tensor tok/s",
        "PPL-OpenCL tok/s",
        "vs standard",
    ]);
    let mut points = Vec::new();
    for draft_len in [2usize, 4, 8] {
        for acceptance in [0.5, 0.7, 0.9] {
            let cfg = SpecDecodeConfig {
                draft_len,
                acceptance,
            };
            let commits: Vec<usize> = simulate_steps(cfg, target, 42)
                .iter()
                .map(|s| s.committed)
                .collect();

            let mut hetero = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
            let h = run_speculative_hetero(&mut hetero, 256, draft_len + 1, &commits)
                .expect("built-in trace is well-formed");
            let mut gpu = BaselineEngine::gpu(&model, GpuTier::PplOpenCl);
            let g = run_speculative_gpu(&mut gpu, 256, draft_len + 1, &commits)
                .expect("built-in trace is well-formed");

            t.row(&[
                draft_len.to_string(),
                format!("{acceptance:.1}"),
                fmt(cfg.expected_tokens_per_step()),
                fmt(h.tokens_per_sec()),
                fmt(g.tokens_per_sec()),
                format!("{:.2}x", h.tokens_per_sec() / standard),
            ]);
            points.push(Point {
                draft_len,
                acceptance,
                hetero_tokens_per_sec: h.tokens_per_sec(),
                gpu_tokens_per_sec: g.tokens_per_sec(),
                standard_hetero: standard,
            });
        }
    }
    t.print();
    println!(
        "\nstandard (non-speculative) Hetero-tensor decode: {} tok/s",
        fmt(standard)
    );

    // Structure: higher acceptance → higher throughput; hetero beats
    // the GPU baseline at every configuration.
    for w in points.chunks(3) {
        assert!(w[2].hetero_tokens_per_sec > w[0].hetero_tokens_per_sec);
    }
    for p in &points {
        assert!(p.hetero_tokens_per_sec > p.gpu_tokens_per_sec);
        assert!(p.hetero_tokens_per_sec > p.standard_hetero);
    }
    println!("speculation helps at every configuration; hetero > GPU-only everywhere [verified]");
    save_json("ablate_speculative", &points);
}
