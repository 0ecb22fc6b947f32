//! Quickstart: run HeteroLLM on the simulated Snapdragon 8 Gen 3 and
//! print the end-to-end latency profile.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use heterollm_suite::engine::{EngineError, EngineKind, InferenceSession, ModelConfig};

fn main() -> Result<(), EngineError> {
    let model = ModelConfig::llama_8b();
    println!(
        "model: {} ({:.1}B params, {:.1} GB as W4A16)",
        model.name,
        model.param_count() as f64 / 1e9,
        model.weight_bytes_w4() as f64 / 1e9
    );

    // The full HeteroLLM engine: tensor-level GPU+NPU heterogeneous
    // execution with fast synchronization.
    let mut session = InferenceSession::new(EngineKind::HeteroTensor, &model);

    // A 256-token prompt followed by 64 generated tokens.
    let report = session.try_run(256, 64)?;

    println!("\nengine: {}", report.engine);
    println!(
        "prefill: {} tokens in {}  ({:.1} tokens/s)",
        report.prefill.tokens,
        report.prefill.elapsed,
        report.prefill.tokens_per_sec()
    );
    println!(
        "decode:  {} tokens in {}  ({:.1} tokens/s)",
        report.decode.tokens,
        report.decode.elapsed,
        report.decode.tokens_per_sec()
    );
    println!("TTFT: {}   TPOT: {}", report.ttft(), report.tpot());
    println!(
        "power: {:.2} W   energy: {:.2} J",
        report.power.avg_power_w, report.power.energy_j
    );

    // Compare with the GPU-only baseline HeteroLLM builds on.
    let mut baseline = InferenceSession::new(EngineKind::PplOpenCl, &model);
    let base = baseline.try_run(256, 64)?;
    println!(
        "\nvs {}: prefill {:.2}x, decode {:.2}x",
        base.engine,
        report.prefill.tokens_per_sec() / base.prefill.tokens_per_sec(),
        report.decode.tokens_per_sec() / base.decode.tokens_per_sec()
    );
    Ok(())
}
