//! Gaming assistant scenario (the paper's §5.5 motivation): an
//! in-game AI assistant answers a prompt while a 60 FPS game renders.
//!
//! Shows why the execution strategy matters: a GPU-flooding engine
//! destroys the game's frame rate, while HeteroLLM's NPU-dominant,
//! paced execution coexists with it.
//!
//! ```sh
//! cargo run --release --example gaming_assistant
//! ```

use heterollm_suite::engine::{EngineKind, ModelConfig};
use heterollm_suite::soc::interference::{simulate, RenderWorkload};
use heterollm_suite::soc::sync::SyncMechanism;
use heterollm_suite::soc::SimTime;
use heterollm_suite::workloads::bursts::{gpu_bursts, gpu_occupancy, pace_bursts};

fn main() {
    let model = ModelConfig::llama_3b();
    let game = RenderWorkload::game_60fps();
    println!("scenario: {} assistant + 60 FPS game\n", model.name);

    for kind in [EngineKind::PplOpenCl, EngineKind::HeteroTensor] {
        let mut engine = kind.build(&model, SyncMechanism::Fast);
        engine.enable_timeline();
        let solo = engine.prefill(256);

        let timeline = engine.take_timeline().expect("timeline enabled");
        let raw = gpu_bursts(&timeline, SimTime::from_micros(25));
        let occupancy = gpu_occupancy(&raw);
        let bursts = if kind == EngineKind::PplOpenCl {
            raw // stock runtime floods the submission queue
        } else {
            // HeteroLLM's control plane paces GPU submissions.
            pace_bursts(&raw, SimTime::from_millis(2), SimTime::from_micros(15))
        };
        let sim = simulate(&bursts, &game);

        println!("{}:", engine.name());
        println!(
            "  prompt processed alone:  {:.0} tokens/s",
            solo.tokens_per_sec()
        );
        println!("  GPU occupancy:           {:.0}%", occupancy * 100.0);
        println!("  game FPS while inferring: {:.0}", sim.fps.min(60.0));
        println!(
            "  assistant slowdown:       {:+.1}%\n",
            (sim.llm_slowdown() - 1.0) * 100.0
        );
    }
    println!("The GPU-only engine starves the render queue (FPS collapse);\nHeteroLLM leaves the GPU mostly idle and both workloads coexist.");
}
