//! Cross-commit identity golden for every engine's simulated numbers.
//!
//! CI's `cmp` gates compare two runs of the *same* build, so a
//! deterministic change to how an engine schedules its trace would
//! pass them. This file pins the outputs themselves, for every
//! [`EngineKind`] over four models, six prompt lengths (aligned,
//! misaligned, single-row and past the largest graph size) and two
//! decode lengths: prefill and decode elapsed time, the SoC's final
//! mark (clock, per-backend busy time, DRAM bytes) and the power
//! report — plus, for Online-prepare, a second prefill at the same
//! length, which hits the graph cache. A refactor of the engines must
//! leave every byte in place. Regenerate (only for an intended,
//! reviewed change of simulated numbers) with
//! `UPDATE_GOLDEN=1 cargo test -p heterollm --test engine_identity_golden`.

use std::fmt::Write as _;

use hetero_soc::sync::SyncMechanism;
use heterollm::{EngineKind, ModelConfig};

const PROMPTS: [usize; 6] = [1, 33, 135, 256, 300, 1024];
const DECODES: [usize; 2] = [0, 3];

/// One line per engine run.
fn engine_line(kind: EngineKind, model: &ModelConfig, prompt: usize, decode: usize) -> String {
    let mut engine = kind.build(model, SyncMechanism::Fast);
    let mut line = format!("{} {} p{prompt} d{decode}", kind.name(), model.name);
    let prefill = engine.prefill(prompt).elapsed.as_nanos();
    write!(line, " prefill={prefill}").unwrap();
    if kind == EngineKind::NpuOnlinePrepare {
        let again = engine.prefill(prompt).elapsed.as_nanos();
        write!(line, " prefill_again={again}").unwrap();
    }
    let decoded = engine.decode(prompt, decode).elapsed.as_nanos();
    write!(line, " decode={decoded} mark={:?}", engine.soc().mark()).unwrap();
    let power = engine.finish();
    write!(
        line,
        " power={:?}/{:?}/{}",
        power.avg_power_w,
        power.energy_j,
        power.makespan.as_nanos()
    )
    .unwrap();
    line
}

#[test]
fn every_engine_is_golden() {
    let models = [
        ModelConfig::tiny(),
        ModelConfig::internlm_1_8b(),
        ModelConfig::llama_3b(),
        ModelConfig::llama_8b(),
    ];
    let mut out = String::new();
    for kind in EngineKind::ALL {
        for model in &models {
            for prompt in PROMPTS {
                for decode in DECODES {
                    out.push_str(&engine_line(kind, model, prompt, decode));
                    out.push('\n');
                }
            }
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/engine_identity.txt"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &out).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("golden file checked in");
    for (i, (got, want)) in out.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "engine_identity.txt line {}", i + 1);
    }
    assert_eq!(
        out, golden,
        "engine numbers changed; review, and regenerate with UPDATE_GOLDEN=1 only if the change \
         is intended"
    );
}
