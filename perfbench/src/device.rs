//! The single-device workload, `device-mix`: engine sessions, the
//! adaptive runtime, the static bound lint, the functional engine and
//! the observability export, with no fleet layer in the way.

use hetero_analyze::{bound_lint_models, Report, DEFAULT_POOL_BYTES};
use hetero_soc::disturb::DisturbanceTrace;
use hetero_soc::SimTime;
use heterollm::functional_engine::FunctionalHeteroEngine;
use heterollm::integrity::IntegrityMode;
use heterollm::obs::chrome::to_chrome_json;
use heterollm::report::{IntegritySummary, SessionReport};
use heterollm::runtime::{
    conversation_traffic, ControllerConfig, DegradationReport, InferenceRequest, SloPolicy,
};
use heterollm::{EngineError, EngineKind, InferenceSession, ModelConfig, RuntimeController};

use crate::stats::{fnv1a, FNV_START};
use crate::trace::Tracer;
use crate::{splitmix64, Checked, Layers, Workload};

/// Engines of the session sweep: the two HeteroLLM levels and three
/// baselines (NPU-chunked, GPU-only, CPU-only).
const ENGINES: [EngineKind; 5] = [
    EngineKind::HeteroTensor,
    EngineKind::HeteroLayer,
    EngineKind::MllmNpu,
    EngineKind::Mlc,
    EngineKind::LlamaCpp,
];
/// Prompt/decode shapes: short chat, mid prompt, long prompt.
const SHAPES: [(usize, usize); 3] = [(64, 16), (300, 32), (1024, 8)];
/// Requests per model served by the adaptive runtime.
const RUNTIME_REQUESTS: usize = 24;
/// Shape the bound lint certifies.
const BOUND_SHAPE: (usize, usize) = (300, 4);
/// Weight seed of the functional engine, as in `fault_sweep`.
const WEIGHT_SEED: u64 = 77;
/// Functional prompt length and tokens generated.
const FUNCTIONAL_SHAPE: (usize, usize) = (8, 12);
/// Shape of the observed InternLM-1.8B session.
const OBSERVED_SHAPE: (usize, usize) = (300, 32);
/// Runtime input draws one cycle visits.
const MIX_SEEDS: usize = 4;

fn is_hetero(kind: EngineKind) -> bool {
    matches!(kind, EngineKind::HeteroTensor | EngineKind::HeteroLayer)
}

/// `device-mix`: four models through five engines at three shapes,
/// the adaptive runtime under a seeded disturbance trace, the bound
/// lint, one functional generate and one observed session.
pub struct DeviceMix {
    models: Vec<ModelConfig>,
    slos: Vec<SloPolicy>,
    /// Runtime inputs of op `k` for model `m`: `streams[k][m]`.
    streams: Vec<Vec<(Vec<InferenceRequest>, DisturbanceTrace)>>,
    prompt: Vec<u32>,
    /// Tokens op `k` requests.
    tokens: Vec<u64>,
}

impl DeviceMix {
    /// Draw the traffic, disturbance traces and functional prompt from
    /// `seed`, and calibrate each model's SLOs.
    pub fn new(seed: u64) -> Self {
        let models = vec![
            ModelConfig::llama_8b(),
            ModelConfig::llama_3b(),
            ModelConfig::internlm_1_8b(),
            ModelConfig::qwen2_1_5b(),
        ];
        let slos = models.iter().map(SloPolicy::calibrated).collect();
        // How much the runtime replans depends on its trace, so every
        // model of every op gets its own: 16 draws per cycle keep one
        // unlucky draw from moving a run.
        let streams: Vec<Vec<_>> = (0..MIX_SEEDS as u64)
            .map(|k| {
                (0..models.len() as u64)
                    .map(|m| {
                        let s = splitmix64(seed.wrapping_add(k << 8 | m));
                        let gap = SimTime::from_millis(500);
                        (
                            conversation_traffic(s, RUNTIME_REQUESTS, gap),
                            DisturbanceTrace::standard(s),
                        )
                    })
                    .collect()
            })
            .collect();
        let vocab = ModelConfig::tiny().vocab as u64;
        let prompt = (0..FUNCTIONAL_SHAPE.0 as u64)
            .map(|i| (splitmix64(seed ^ (i << 32)) % vocab) as u32)
            .collect();
        let session_tokens: usize = SHAPES.iter().map(|(p, d)| p + d).sum();
        let fixed_tokens = models.len() * ENGINES.len() * session_tokens
            + FUNCTIONAL_SHAPE.0
            + FUNCTIONAL_SHAPE.1
            + OBSERVED_SHAPE.0
            + OBSERVED_SHAPE.1;
        let tokens = streams
            .iter()
            .map(|op| {
                let runtime: usize = op
                    .iter()
                    .flat_map(|(requests, _)| requests)
                    .map(|r| r.prompt_tokens + r.response_tokens)
                    .sum();
                (fixed_tokens + runtime) as u64
            })
            .collect();
        Self {
            models,
            slos,
            streams,
            prompt,
            tokens,
        }
    }
}

type Functional = Result<(Vec<u32>, Option<IntegritySummary>), String>;

/// Everything one `device-mix` op produces.
pub struct MixOut {
    sessions: Vec<Result<SessionReport, EngineError>>,
    runtime: Vec<Result<DegradationReport, EngineError>>,
    bound: Report,
    functional: Functional,
    observed: Result<(SessionReport, String), EngineError>,
}

impl Workload for DeviceMix {
    type Out = MixOut;

    fn cycle(&self) -> usize {
        MIX_SEEDS
    }

    fn run(&mut self, k: usize, tr: &mut Tracer) -> MixOut {
        let mut sessions = Vec::with_capacity(self.models.len() * ENGINES.len() * SHAPES.len());
        for model in &self.models {
            for kind in ENGINES {
                let layer = if is_hetero(kind) {
                    "session.hetero"
                } else {
                    "session.baseline"
                };
                for (prompt, decode) in SHAPES {
                    sessions.push(tr.span(layer, || {
                        InferenceSession::new(kind, model).try_run(prompt, decode)
                    }));
                }
            }
        }
        let mut runtime = Vec::with_capacity(self.models.len());
        for ((model, slo), (requests, trace)) in
            self.models.iter().zip(&self.slos).zip(&self.streams[k])
        {
            runtime.push(tr.span("runtime.serve", || {
                RuntimeController::new(model, ControllerConfig::adaptive(*slo)).run(requests, trace)
            }));
        }
        let bound = tr.span("bound.lint", || {
            bound_lint_models(
                &self.models,
                BOUND_SHAPE.0,
                BOUND_SHAPE.1,
                DEFAULT_POOL_BYTES,
            )
        });
        let functional = tr.span("functional.generate", || {
            let mut engine = FunctionalHeteroEngine::new(ModelConfig::tiny(), WEIGHT_SEED)
                .map_err(|e| format!("{e:?}"))?
                .with_integrity(IntegrityMode::Verify);
            let tokens = engine
                .generate(&self.prompt, FUNCTIONAL_SHAPE.1)
                .map_err(|e| format!("{e:?}"))?;
            Ok((tokens, engine.integrity_summary()))
        });
        let observed = tr.span("obs.trace", || {
            let mut session =
                InferenceSession::new(EngineKind::HeteroTensor, &ModelConfig::internlm_1_8b());
            let (report, timeline) =
                session.try_run_observed(OBSERVED_SHAPE.0, OBSERVED_SHAPE.1)?;
            Ok((report, to_chrome_json(&timeline)))
        });
        MixOut {
            sessions,
            runtime,
            bound,
            functional,
            observed,
        }
    }

    fn check(&self, k: usize, out: MixOut) -> Checked {
        let mut failures = Vec::new();
        if !out.bound.is_clean() {
            failures.push(format!("bound lint: {} deny", out.bound.summary.deny));
        }
        let mut digest = FNV_START;
        let mut mix = |bytes: &[u8]| digest = fnv1a(digest, bytes);
        for s in &out.sessions {
            match s {
                Ok(r) => {
                    mix(&r.prefill.elapsed.as_nanos().to_le_bytes());
                    mix(&r.decode.elapsed.as_nanos().to_le_bytes());
                }
                Err(e) => failures.push(format!("session: {e}")),
            }
        }
        for r in &out.runtime {
            match r {
                Ok(r) => mix(serde_json::to_string(r)
                    .expect("report serializes")
                    .as_bytes()),
                Err(e) => failures.push(format!("runtime: {e}")),
            }
        }
        match &out.functional {
            Ok((tokens, summary)) => {
                // Verify mode on a clean run: no false detection.
                if summary.as_ref().is_none_or(|s| s.detected != 0) {
                    failures.push(format!("functional verify summary: {summary:?}"));
                }
                for t in tokens {
                    mix(&t.to_le_bytes());
                }
            }
            Err(e) => failures.push(format!("functional: {e}")),
        }
        let mut trace_bytes = 0;
        match &out.observed {
            Ok((_, json)) => {
                trace_bytes = json.len();
                mix(json.as_bytes());
            }
            Err(e) => failures.push(format!("observed session: {e}")),
        }
        Checked {
            failures,
            items: self.tokens[k],
            digest,
            counts: vec![("obs.trace_bytes", trace_bytes as f64)],
        }
    }

    fn layers(&self, l: &Layers) -> Vec<(&'static str, f64)> {
        let sessions = (self.models.len() * ENGINES.len() * SHAPES.len() * l.ops()) as f64;
        vec![(
            "session.allocs_per_session",
            l.allocs(&["session.hetero", "session.baseline"]) as f64 / sessions,
        )]
    }
}
