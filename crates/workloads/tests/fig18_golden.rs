//! Cross-commit identity golden for the Fig. 18 burst extraction.
//!
//! `fig18_interference` turns a Llama-8B prefill of 256 tokens into the
//! GPU burst list the render-interference simulation consumes. This
//! file pins that list for the three engines the figure compares: the
//! raw bursts (25 µs merge gap), the paced bursts (2 ms chunks, 15 µs
//! submission gap) as their count, Σ`gap_before` and Σ`gpu_time` in
//! ns, and the raw list's `gpu_occupancy` as f64 bits. A change to how
//! the GPU's busy intervals are recorded must leave every byte in
//! place. Regenerate (only for an intended, reviewed change of
//! simulated numbers) with
//! `UPDATE_GOLDEN=1 cargo test -p hetero-workloads --test fig18_golden`.

use std::fmt::Write as _;

use hetero_soc::interference::LlmBurst;
use hetero_soc::sync::SyncMechanism;
use hetero_soc::SimTime;
use hetero_workloads::bursts::{gpu_bursts, gpu_occupancy, pace_bursts};
use heterollm::{EngineKind, ModelConfig};

fn sums(bursts: &[LlmBurst]) -> String {
    let gap: u64 = bursts.iter().map(|b| b.gap_before.as_nanos()).sum();
    let gpu: u64 = bursts.iter().map(|b| b.gpu_time.as_nanos()).sum();
    format!("n={} gap_ns={gap} gpu_ns={gpu}", bursts.len())
}

#[test]
fn fig18_bursts_are_golden() {
    let model = ModelConfig::llama_8b();
    let mut out = String::new();
    for kind in [
        EngineKind::PplOpenCl,
        EngineKind::HeteroLayer,
        EngineKind::HeteroTensor,
    ] {
        let mut e = kind.build(&model, SyncMechanism::Fast);
        e.enable_timeline();
        e.prefill(256);
        let timeline = e.take_timeline().expect("timeline enabled");
        let raw = gpu_bursts(&timeline, SimTime::from_micros(25));
        let paced = pace_bursts(&raw, SimTime::from_millis(2), SimTime::from_micros(15));
        writeln!(
            out,
            "{} raw[{}] paced[{}] occupancy_bits={:#018x}",
            kind.name(),
            sums(&raw),
            sums(&paced),
            gpu_occupancy(&raw).to_bits()
        )
        .unwrap();
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig18_bursts.txt");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
            .expect("golden dir");
        std::fs::write(path, &out).expect("write golden");
    }
    let golden = std::fs::read_to_string(path).expect("golden file checked in");
    assert_eq!(
        out, golden,
        "Fig. 18 bursts changed; review, and regenerate with UPDATE_GOLDEN=1 only if the change \
         of simulated numbers is intended"
    );
}
