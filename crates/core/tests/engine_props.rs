//! Property-based tests of the engines over randomized model
//! architectures — the scheduling policies must stay sound for any
//! Llama-shaped decoder, not just the four evaluation presets.

use hetero_soc::power::PowerReport;
use hetero_soc::specs::{project_config, table1};
use hetero_soc::sync::SyncMechanism;
use hetero_soc::{SocConfig, SocMark};
use heterollm::engines::{Engine, HeteroTensorEngine};
use heterollm::{EngineKind, ModelConfig, PhaseReport};
use proptest::prelude::*;

/// Random but valid Llama-style architecture.
fn arb_model() -> impl Strategy<Value = ModelConfig> {
    (
        1usize..=6,                                                      // layers
        prop_oneof![Just(512usize), Just(1024), Just(2048), Just(3072)], // hidden
        1usize..=4,                                                      // ffn multiple of hidden
        prop_oneof![Just(4usize), Just(8), Just(16)],                    // heads
        0usize..=2,                                                      // kv group shift
        prop_oneof![Just(8192usize), Just(32000), Just(92544)],          // vocab
    )
        .prop_map(|(layers, hidden, ffn_mult, heads, kv_shift, vocab)| {
            let kv_heads = (heads >> kv_shift).max(1);
            ModelConfig {
                name: format!("rand-{layers}l-{hidden}h-{heads}a"),
                hidden,
                ffn: hidden * ffn_mult,
                layers,
                heads,
                kv_heads,
                vocab,
                max_seq: 2048,
                rope_theta: 10_000.0,
                norm_eps: 1e-5,
                kv_dtype: hetero_tensor::DType::F16,
            }
        })
        .prop_filter("head_dim must be even for RoPE", |m| m.head_dim() % 2 == 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_engine_completes_on_random_models(
        model in arb_model(),
        prompt in 1usize..400,
    ) {
        for kind in [
            EngineKind::HeteroTensor,
            EngineKind::HeteroLayer,
            EngineKind::PplOpenCl,
            EngineKind::NpuPipe,
            EngineKind::MllmNpu,
        ] {
            let mut e = kind.build(&model, SyncMechanism::Fast);
            let p = e.prefill(prompt);
            prop_assert!(p.elapsed > hetero_soc::SimTime::ZERO, "{}", kind.name());
            let d = e.decode(prompt, 2);
            prop_assert_eq!(d.tokens, 2);
        }
    }

    #[test]
    fn hetero_tensor_never_loses_to_ppl(
        model in arb_model(),
        prompt in 32usize..512,
    ) {
        // The solver's serial fallback guarantees Hetero-tensor is at
        // least competitive with the GPU-only engine it builds on
        // (within sync-overhead noise).
        let mut ht = EngineKind::HeteroTensor.build(&model, SyncMechanism::Fast);
        let mut ppl = EngineKind::PplOpenCl.build(&model, SyncMechanism::Fast);
        let h = ht.prefill(prompt).tokens_per_sec();
        let p = ppl.prefill(prompt).tokens_per_sec();
        prop_assert!(h > p * 0.9, "{}: hetero {h} vs ppl {p}", model.name);
    }

    #[test]
    fn prefill_time_monotone_in_prompt_length(
        model in arb_model(),
        base in 16usize..256,
        grow in 32usize..256,
    ) {
        let mut a = EngineKind::HeteroTensor.build(&model, SyncMechanism::Fast);
        let mut b = EngineKind::HeteroTensor.build(&model, SyncMechanism::Fast);
        let t_small = a.prefill(base).elapsed;
        let t_large = b.prefill(base + grow).elapsed;
        prop_assert!(t_large >= t_small, "{}: {t_large} < {t_small}", model.name);
    }

    #[test]
    fn decode_slower_with_longer_context(
        model in arb_model(),
    ) {
        let mut short = EngineKind::PplOpenCl.build(&model, SyncMechanism::Fast);
        let mut long = EngineKind::PplOpenCl.build(&model, SyncMechanism::Fast);
        let a = short.decode(32, 4).elapsed;
        let b = long.decode(1024, 4).elapsed;
        prop_assert!(b >= a, "KV growth must not speed decoding up");
    }

    #[test]
    fn energy_consistent_with_power_and_time(
        model in arb_model(),
        prompt in 32usize..256,
    ) {
        let mut e = EngineKind::HeteroLayer.build(&model, SyncMechanism::Fast);
        e.prefill(prompt);
        let clock = e.soc().clock().as_secs_f64();
        let power = e.finish();
        prop_assert!((power.energy_j - power.avg_power_w * clock).abs() < 1e-6);
        prop_assert!(power.avg_power_w > 0.2 && power.avg_power_w < 10.0);
    }
}

/// How a Hetero-tensor session is watched.
#[derive(Debug, Clone, Copy)]
enum Observer {
    None,
    Timeline,
    ConcurrencyLog,
}

/// One `kind` session under `observer`: prefill and decode reports,
/// the SoC's clock and meter counters, and the power report.
/// Hetero-tensor runs on `cfg`; every other engine on its own SoC
/// config under `cfg`'s sync mechanism.
fn observed_session(
    kind: EngineKind,
    model: &ModelConfig,
    cfg: &SocConfig,
    observer: Observer,
    prompt: usize,
    decode: usize,
) -> (PhaseReport, PhaseReport, SocMark, PowerReport) {
    let mut e: Box<dyn Engine> = match kind {
        EngineKind::HeteroTensor => {
            Box::new(HeteroTensorEngine::with_soc_config(model, cfg.clone()))
        }
        kind => kind.build(model, cfg.sync.mechanism),
    };
    match observer {
        Observer::None => {}
        Observer::Timeline => e.enable_timeline(),
        Observer::ConcurrencyLog => e.enable_concurrency_log(),
    }
    let p = e.prefill(prompt);
    let d = e.decode(prompt, decode);
    let mark = e.soc().mark();
    (p, d, mark, e.finish())
}

proptest! {
    // 11 engine kinds: 64 cases draw each about six times.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_numbers_do_not_depend_on_observation(
        kind_ix in 0usize..EngineKind::ALL.len(),
        model_ix in 0usize..3,
        soc_ix in 0usize..16,
        driver_sync in proptest::bool::ANY,
        prompt in 1usize..=1100,
        decode in 0usize..=8,
    ) {
        // Unobserved and timeline sessions charge repeated decoder
        // layers without walking them; a concurrency log walks every
        // kernel. The simulated
        // numbers must be bit-identical either way, for every engine's
        // route, backend mix and kernel types.
        let kind = EngineKind::ALL[kind_ix];
        let model = [
            ModelConfig::internlm_1_8b(),
            ModelConfig::qwen2_1_5b(),
            ModelConfig::llama_3b(),
        ][model_ix]
            .clone();
        let socs: Vec<SocConfig> = table1().iter().filter_map(project_config).collect();
        let mechanism = if driver_sync { SyncMechanism::Driver } else { SyncMechanism::Fast };
        let cfg = socs[soc_ix % socs.len()].clone().with_sync(mechanism);
        let plain = observed_session(kind, &model, &cfg, Observer::None, prompt, decode);
        for observer in [Observer::Timeline, Observer::ConcurrencyLog] {
            let watched = observed_session(kind, &model, &cfg, observer, prompt, decode);
            prop_assert_eq!(
                &watched,
                &plain,
                "{} under {:?} on {} at {}+{}",
                kind.name(),
                observer,
                model.name,
                prompt,
                decode
            );
        }
    }
}
