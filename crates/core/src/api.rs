//! High-level session API.

use hetero_soc::sync::SyncMechanism;

use crate::engines::{Engine, EngineKind};
use crate::error::EngineError;
use crate::model::ModelConfig;
use crate::obs::{MetricsRegistry, SpanKind, Timeline, Track};
use crate::report::SessionReport;

/// A full inference session: engine + model, driven through prefill
/// and decode, producing a [`SessionReport`].
///
/// # Examples
///
/// ```
/// use heterollm::{EngineKind, InferenceSession, ModelConfig};
///
/// let mut session = InferenceSession::new(
///     EngineKind::HeteroTensor,
///     &ModelConfig::internlm_1_8b(),
/// );
/// let report = session.try_run(256, 32)?;
/// assert!(report.prefill.tokens_per_sec() > 100.0);
/// # Ok::<(), heterollm::EngineError>(())
/// ```
pub struct InferenceSession {
    engine: Box<dyn Engine>,
}

impl InferenceSession {
    /// New session with fast synchronization (HeteroLLM default).
    pub fn new(kind: EngineKind, model: &ModelConfig) -> Self {
        Self::with_sync(kind, model, SyncMechanism::Fast)
    }

    /// New session with an explicit sync mechanism.
    pub fn with_sync(kind: EngineKind, model: &ModelConfig, sync: SyncMechanism) -> Self {
        Self {
            engine: kind.build(model, sync),
        }
    }

    /// Wrap an already-built engine (e.g. one constructed with a
    /// projected [`hetero_soc::SocConfig`] for another Table-1 SoC).
    ///
    /// This is the router-facing entry point: fleet devices build
    /// their engines per device profile and drive them through the
    /// fallible session API so engine faults surface as values.
    pub fn from_engine(engine: Box<dyn Engine>) -> Self {
        Self { engine }
    }

    /// Access the underlying engine.
    pub fn engine(&self) -> &dyn Engine {
        self.engine.as_ref()
    }

    /// Mutable engine access.
    pub fn engine_mut(&mut self) -> &mut dyn Engine {
        self.engine.as_mut()
    }

    /// Run prefill over `prompt_len` tokens, then `decode_tokens`
    /// decode steps; finalize power accounting. Engine faults
    /// (malformed traces, causality violations, exhausted sync
    /// retries) come back as typed [`EngineError`]s so callers like
    /// the fleet router can count them as device faults instead of
    /// aborting a sweep.
    pub fn try_run(
        &mut self,
        prompt_len: usize,
        decode_tokens: usize,
    ) -> Result<SessionReport, EngineError> {
        let prefill = self.engine.try_prefill(prompt_len)?;
        let decode = self.engine.try_decode(prompt_len, decode_tokens)?;
        let power = self.engine.finish();
        Ok(SessionReport {
            engine: self.engine.name(),
            model: self.engine.model().name.clone(),
            prefill,
            decode,
            power,
            degradation: None,
            integrity: None,
            metrics: None,
        })
    }

    /// Run the session with the observability layer armed: records a
    /// span [`Timeline`] against the SoC's simulated clock (kernel
    /// submit/complete, sync waits, graph compiles, prefill/decode
    /// phase spans) and attaches an all-integer
    /// [`crate::obs::MetricsSnapshot`] to the report.
    ///
    /// Engine faults are returned instead of panicking, with the
    /// partial timeline dropped. Plain [`InferenceSession::try_run`]
    /// leaves `report.metrics` as `None`, so existing golden reports
    /// are unaffected by this opt-in path.
    pub fn try_run_observed(
        &mut self,
        prompt_len: usize,
        decode_tokens: usize,
    ) -> Result<(SessionReport, Timeline), EngineError> {
        self.engine.enable_timeline();
        let phase_start = self.engine.soc().clock();
        let prefill = self.engine.try_prefill(prompt_len)?;
        let prefill_end = self.engine.soc().clock();
        let decode = self.engine.try_decode(prompt_len, decode_tokens)?;
        let decode_end = self.engine.soc().clock();
        let power = self.engine.finish();

        let mut tl = self.engine.take_timeline().unwrap_or_default();
        tl.push_span(
            Track::Cpu,
            SpanKind::Phase,
            "prefill",
            phase_start,
            prefill_end,
        );
        tl.push_span(
            Track::Cpu,
            SpanKind::Phase,
            "decode",
            prefill_end,
            decode_end,
        );
        let metrics = MetricsRegistry::from_timeline(&tl).snapshot();

        let report = SessionReport {
            engine: self.engine.name(),
            model: self.engine.model().name.clone(),
            prefill,
            decode,
            power,
            degradation: None,
            integrity: None,
            metrics: Some(metrics),
        };
        Ok((report, tl))
    }
}

/// One turn of a chat conversation.
#[derive(Debug, Clone, Copy)]
pub struct ChatTurn {
    /// New prompt tokens appended this turn (user message + template).
    pub prompt_tokens: usize,
    /// Tokens generated in response.
    pub response_tokens: usize,
}

/// Per-turn latency metrics of a conversation.
#[derive(Debug, Clone)]
pub struct ConversationReport {
    /// TTFT and TPOT per turn, with the context length at turn start.
    pub turns: Vec<TurnReport>,
    /// End-to-end simulated duration.
    pub total: hetero_soc::SimTime,
    /// Average power over the whole conversation.
    pub power: hetero_soc::power::PowerReport,
}

/// Metrics of one conversation turn.
#[derive(Debug, Clone, Copy)]
pub struct TurnReport {
    /// Context length when the turn started.
    pub context_at_start: usize,
    /// Time to first token of this turn.
    pub ttft: hetero_soc::SimTime,
    /// Mean time per generated token.
    pub tpot: hetero_soc::SimTime,
}

impl InferenceSession {
    /// Run a multi-turn conversation: each turn prefills the new prompt
    /// tokens (the KV prefix persists) and decodes a response.
    ///
    /// Attention cost during a turn's prefill is approximated with the
    /// turn's own length; decode attends over the full accumulated
    /// context.
    ///
    /// The first engine fault aborts the conversation and is returned
    /// as a value.
    pub fn try_run_conversation(
        &mut self,
        turns: &[ChatTurn],
    ) -> Result<ConversationReport, EngineError> {
        let mut ctx = 0usize;
        let mut reports = Vec::with_capacity(turns.len());
        for turn in turns {
            let prefill = self.engine.try_prefill(turn.prompt_tokens)?;
            ctx += turn.prompt_tokens;
            let decode = self.engine.try_decode(ctx, turn.response_tokens)?;
            reports.push(TurnReport {
                context_at_start: ctx - turn.prompt_tokens,
                ttft: prefill.elapsed,
                tpot: decode.per_token(),
            });
            ctx += turn.response_tokens;
        }
        let total = self.engine.soc().clock();
        let power = self.engine.finish();
        Ok(ConversationReport {
            turns: reports,
            total,
            power,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_produces_full_report() {
        let mut s = InferenceSession::new(EngineKind::HeteroTensor, &ModelConfig::llama_3b());
        let r = s.try_run(64, 8).expect("built-in trace");
        assert_eq!(r.engine, "Hetero-tensor");
        assert_eq!(r.model, "Llama-3B");
        assert_eq!(r.prefill.tokens, 64);
        assert_eq!(r.decode.tokens, 8);
        assert!(r.ttft() > hetero_soc::SimTime::ZERO);
        assert!(r.tpot() > hetero_soc::SimTime::ZERO);
        assert!(r.power.energy_j > 0.0);
    }

    #[test]
    fn conversation_accumulates_context() {
        let mut s = InferenceSession::new(EngineKind::HeteroTensor, &ModelConfig::llama_3b());
        let turns = [
            ChatTurn {
                prompt_tokens: 64,
                response_tokens: 8,
            },
            ChatTurn {
                prompt_tokens: 32,
                response_tokens: 8,
            },
            ChatTurn {
                prompt_tokens: 32,
                response_tokens: 8,
            },
        ];
        let r = s.try_run_conversation(&turns).expect("built-in trace");
        assert_eq!(r.turns.len(), 3);
        assert_eq!(r.turns[0].context_at_start, 0);
        assert_eq!(r.turns[1].context_at_start, 72);
        assert_eq!(r.turns[2].context_at_start, 112);
        // Later turns decode over longer context: TPOT non-decreasing.
        assert!(r.turns[2].tpot >= r.turns[0].tpot);
        assert!(r.total > hetero_soc::SimTime::ZERO);
        assert!(r.power.avg_power_w > 0.0);
    }

    #[test]
    fn from_engine_runs_a_prebuilt_engine() {
        let model = ModelConfig::llama_3b();
        let cfg = crate::engines::hetero_soc_config(SyncMechanism::Fast);
        let engine = crate::engines::HeteroTensorEngine::with_soc_config(&model, cfg);
        let mut s = InferenceSession::from_engine(Box::new(engine));
        let r = s.try_run(64, 8).expect("well-formed trace");
        assert_eq!(r.prefill.tokens, 64);
        assert_eq!(r.engine, "Hetero-tensor");
    }

    #[test]
    fn ttft_scales_with_prompt() {
        let mut short = InferenceSession::new(EngineKind::PplOpenCl, &ModelConfig::llama_3b());
        let mut long = InferenceSession::new(EngineKind::PplOpenCl, &ModelConfig::llama_3b());
        let a = short.try_run(64, 1).expect("built-in trace");
        let b = long.try_run(512, 1).expect("built-in trace");
        assert!(b.ttft() > a.ttft());
    }
}
