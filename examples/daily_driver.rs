//! Daily-driver scenario: a multi-turn on-device chat session.
//!
//! Shows how context growth affects TTFT/TPOT over a realistic mobile
//! conversation, and compares HeteroLLM against the GPU-only engine a
//! stock phone would use.
//!
//! ```sh
//! cargo run --release --example daily_driver
//! ```

use heterollm_suite::engine::api::ChatTurn;
use heterollm_suite::engine::{EngineError, EngineKind, InferenceSession, ModelConfig};

fn conversation() -> Vec<ChatTurn> {
    vec![
        ChatTurn {
            prompt_tokens: 210,
            response_tokens: 60,
        }, // system + first question
        ChatTurn {
            prompt_tokens: 45,
            response_tokens: 90,
        }, // follow-up
        ChatTurn {
            prompt_tokens: 30,
            response_tokens: 40,
        },
        ChatTurn {
            prompt_tokens: 120,
            response_tokens: 150,
        }, // pasted snippet
        ChatTurn {
            prompt_tokens: 25,
            response_tokens: 35,
        },
    ]
}

fn main() -> Result<(), EngineError> {
    let model = ModelConfig::llama_3b();
    println!(
        "5-turn chat on {} (simulated Snapdragon 8 Gen 3)\n",
        model.name
    );

    for kind in [EngineKind::PplOpenCl, EngineKind::HeteroTensor] {
        let mut session = InferenceSession::new(kind, &model);
        let report = session.try_run_conversation(&conversation())?;

        println!("== {} ==", kind.name());
        println!("turn  context  TTFT        TPOT");
        for (i, t) in report.turns.iter().enumerate() {
            println!(
                "{:>4}  {:>7}  {:>10}  {:>10}",
                i + 1,
                t.context_at_start,
                t.ttft.to_string(),
                t.tpot.to_string()
            );
        }
        println!(
            "total {}   avg power {:.2} W   energy {:.2} J\n",
            report.total, report.power.avg_power_w, report.power.energy_j
        );
    }
    println!("HeteroLLM keeps every turn's TTFT interactive; the GPU-only engine\nstalls noticeably on long prompts and burns substantially more energy.");
    Ok(())
}
