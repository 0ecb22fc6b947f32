//! NPU-matmul engines with the three misaligned-sequence strategies
//! (the Fig. 14 baselines: Padding, Online-prepare, Pipe).
//!
//! These are HeteroLLM variants that keep every weight Matmul on the
//! NPU — no GPU offloading of Matmul work — differing only in how a
//! sequence length without a compiled static graph is handled.

use hetero_soc::sync::SyncMechanism;
use hetero_soc::{Backend, Soc};

pub use crate::engines::hetero_layer::MisalignStrategy;
use crate::engines::hetero_layer::RoutedCore;
use crate::engines::{Engine, Observers};
use crate::error::EngineError;
use crate::model::ModelConfig;
use crate::report::PhaseReport;

/// An engine whose weight Matmuls all run on the NPU under one
/// misalignment strategy.
pub struct NpuOnlyEngine {
    core: RoutedCore,
}

impl NpuOnlyEngine {
    /// New engine for `model`.
    pub fn new(model: &ModelConfig, strategy: MisalignStrategy, sync: SyncMechanism) -> Self {
        Self {
            core: RoutedCore::new(model, strategy, sync, Backend::Npu),
        }
    }

    /// The strategy in use.
    pub fn strategy(&self) -> MisalignStrategy {
        self.core.strategy
    }
}

impl Engine for NpuOnlyEngine {
    fn name(&self) -> String {
        match self.core.strategy {
            MisalignStrategy::Padding => "Padding".into(),
            MisalignStrategy::OnlinePrepare => "Online-prepare".into(),
            MisalignStrategy::Pipe => "Pipe".into(),
            MisalignStrategy::Chunked { .. } => "Chunked-Prefill".into(),
        }
    }

    fn model(&self) -> &ModelConfig {
        &self.core.cfg
    }

    fn try_prefill(&mut self, prompt_len: usize) -> Result<PhaseReport, EngineError> {
        self.core.run_prefill(prompt_len)
    }

    fn try_decode(
        &mut self,
        prompt_len: usize,
        n_tokens: usize,
    ) -> Result<PhaseReport, EngineError> {
        self.core.run_decode(prompt_len, n_tokens)
    }

    fn observers(&mut self) -> &mut Observers {
        &mut self.core.des.obs
    }

    fn soc(&self) -> &Soc {
        &self.core.des.soc
    }

    fn soc_mut(&mut self) -> &mut Soc {
        &mut self.core.des.soc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefill_latency(strategy: MisalignStrategy, len: usize) -> f64 {
        let model = ModelConfig::llama_8b();
        let mut e = NpuOnlyEngine::new(&model, strategy, SyncMechanism::Fast);
        e.prefill(len).elapsed.as_millis_f64()
    }

    #[test]
    fn online_prepare_pays_graph_generation() {
        // §5.2.2: at misaligned lengths, Online-prepare's latency is
        // dominated by graph generation (408 ms at length 135).
        let online = prefill_latency(MisalignStrategy::OnlinePrepare, 135);
        let pipe = prefill_latency(MisalignStrategy::Pipe, 135);
        assert!(online > pipe + 300.0, "online {online} vs pipe {pipe}");
    }

    #[test]
    fn padding_latency_is_stepwise() {
        // Latency just above a standard size jumps to the next step
        // and stays ~flat until the following one.
        let at_513 = prefill_latency(MisalignStrategy::Padding, 513);
        let at_768 = prefill_latency(MisalignStrategy::Padding, 768);
        let at_1024 = prefill_latency(MisalignStrategy::Padding, 1024);
        let step_spread = (at_1024 - at_513).abs() / at_1024;
        assert!(
            step_spread < 0.25,
            "513→1024 should be one step: {at_513} {at_768} {at_1024}"
        );
    }

    #[test]
    fn pipe_beats_padding_on_misaligned_lengths() {
        // §5.2.2: "Pipe compensates for the overhead of Padding".
        for len in [300usize, 525, 700] {
            let pad = prefill_latency(MisalignStrategy::Padding, len);
            let pipe = prefill_latency(MisalignStrategy::Pipe, len);
            assert!(pipe < pad, "len {len}: pipe {pipe} >= pad {pad}");
        }
    }

    #[test]
    fn aligned_lengths_equalize_padding_and_pipe() {
        let pad = prefill_latency(MisalignStrategy::Padding, 512);
        let pipe = prefill_latency(MisalignStrategy::Pipe, 512);
        assert!((pad - pipe).abs() / pad < 0.02, "pad {pad} pipe {pipe}");
    }

    #[test]
    fn online_prepare_amortizes_on_repeat_lengths() {
        // A second request with the same length hits the graph cache.
        let model = ModelConfig::llama_8b();
        let mut e =
            NpuOnlyEngine::new(&model, MisalignStrategy::OnlinePrepare, SyncMechanism::Fast);
        let first = e.prefill(135).elapsed.as_millis_f64();
        let second = e.prefill(135).elapsed.as_millis_f64();
        assert!(second < first - 300.0, "first {first} second {second}");
    }
}
