//! Functional mode: real W4A16 transformer execution.
//!
//! Runs actual math — embedding gather, RMSNorm, W4A16 GEMMs, RoPE,
//! GQA attention, SwiGLU, sampling — on scaled-down configs. This is
//! the correctness anchor for the whole system: the partitioned
//! execution paths (row-cut / seq-cut / hybrid) are checked here to be
//! numerically identical to the monolithic computation, which is what
//! makes the timing engines' scheduling policies *legal*.
//!
//! The forward pass is written once, in a decoder stack generic over
//! its projection arm: [`FunctionalModel`] runs it with monolithic
//! projections, [`crate::functional_engine::FunctionalHeteroEngine`]
//! with solver-partitioned ones.

use hetero_solver::PartitionPlan;
use hetero_tensor::ops;
use hetero_tensor::quant::{Int8Matrix, W4Matrix};
use hetero_tensor::shape::MatmulShape;
use hetero_tensor::{Result, Tensor, TensorError};

use crate::kv::KvCache;
use crate::model::{ModelConfig, ModelWeights};
use crate::upload::{ModelUpload, PerWeight, WeightId, WeightUpload};

/// Arithmetic mode of the weight projections.
///
/// [`QuantMode::W4A16`] dequantizes INT4 weights to floating point —
/// the paper's accuracy-preserving choice. [`QuantMode::Int8`] models
/// the INT-only NPU path of comparator frameworks (Table 2): both the
/// activation and the weight are quantized to per-row INT8 before each
/// projection, which changes results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// INT4 weight storage, floating-point arithmetic.
    W4A16,
    /// INT8 weights *and* activations (integer GEMM).
    Int8,
}

/// The weight matrices as an arithmetic mode reads them, uploaded once
/// per model.
#[derive(Debug)]
enum Upload {
    /// Dequantized INT4 weights.
    W4A16(ModelUpload),
    /// Per-row INT8 weights, quantized once from the dequantized ones.
    Int8(PerWeight<Int8Matrix>),
}

/// How a [`DecoderStack`] computes its weight projections: the one
/// place the monolithic model ([`Monolithic`]) and the partitioned
/// engine ([`crate::functional_engine::FunctionalHeteroEngine`])
/// differ.
pub(crate) trait Projection: Sized {
    /// `x` (`[m, k]`) times weight `id` (`[k, n]`).
    fn project(&mut self, x: &Tensor, id: WeightId) -> Result<Tensor>;

    /// One forward of `tokens` through `stack`: embedding, every layer
    /// and the KV append. An arm that brackets every pass (the
    /// integrity layer's KV checks) wraps the plain forward here.
    fn forward(stack: &mut DecoderStack<Self>, tokens: &[u32]) -> Result<Tensor> {
        stack.forward(tokens)
    }
}

/// A transformer decoder — embedding, the layers' norms, RoPE, GQA
/// attention and SwiGLU, the KV cache, the LM head and greedy
/// sampling — over the projection arm `P`.
#[derive(Debug)]
pub(crate) struct DecoderStack<P> {
    pub(crate) cfg: ModelConfig,
    pub(crate) weights: ModelWeights,
    pub(crate) kv: KvCache,
    pub(crate) proj: P,
}

/// A functional (real-math) model instance with its KV cache: the
/// decoder stack over monolithic projections.
#[derive(Debug)]
pub struct FunctionalModel {
    stack: DecoderStack<Monolithic>,
}

/// The monolithic projection arm: one whole GEMM per projection under
/// the configured arithmetic mode.
#[derive(Debug)]
struct Monolithic {
    upload: Upload,
    /// Shapes of every weight Matmul executed, in order — used to
    /// validate that functional execution launches exactly the kernels
    /// the timing trace prices.
    matmul_log: Vec<MatmulShape>,
}

impl Projection for Monolithic {
    fn project(&mut self, x: &Tensor, id: WeightId) -> Result<Tensor> {
        let (m, _) = x.matrix_dims()?;
        let (k, n) = match &self.upload {
            Upload::W4A16(up) => up.get(id).dims(),
            Upload::Int8(q) => q.get(id).dims(),
        };
        self.matmul_log.push(MatmulShape::new(m, k, n));
        match &self.upload {
            Upload::W4A16(up) => ops::matmul(x, up.get(id).dequantized()),
            // The activation is quantized to per-row INT8 too: integer
            // GEMM.
            Upload::Int8(q) => Int8Matrix::quantize(x)?.matmul_int8(q.get(id)),
        }
    }
}

impl FunctionalModel {
    /// Build a model with seeded synthetic weights (W4A16 arithmetic).
    pub fn new(cfg: ModelConfig, seed: u64) -> Result<Self> {
        Self::with_mode(cfg, seed, QuantMode::W4A16)
    }

    /// Build a model with an explicit arithmetic mode.
    pub fn with_mode(cfg: ModelConfig, seed: u64, mode: QuantMode) -> Result<Self> {
        let weights = ModelWeights::generate(&cfg, seed)?;
        let dequantized = ModelUpload::new(&weights)?;
        let upload = match mode {
            QuantMode::W4A16 => Upload::W4A16(dequantized),
            // INT-only NPU path: the dequantized weight re-quantized to
            // per-row INT8.
            QuantMode::Int8 => {
                Upload::Int8(dequantized.try_map(|w| Int8Matrix::quantize(w.dequantized()))?)
            }
        };
        let proj = Monolithic {
            upload,
            matmul_log: Vec::new(),
        };
        Ok(Self {
            stack: DecoderStack::with_projection(cfg, weights, proj),
        })
    }

    /// Shapes of every weight Matmul executed so far, in launch order.
    pub fn executed_matmuls(&self) -> &[MatmulShape] {
        &self.stack.proj.matmul_log
    }

    /// The arithmetic mode in use.
    pub fn mode(&self) -> QuantMode {
        match self.stack.proj.upload {
            Upload::W4A16(_) => QuantMode::W4A16,
            Upload::Int8(_) => QuantMode::Int8,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.stack.cfg
    }

    /// Current KV length.
    pub fn context_len(&self) -> usize {
        self.stack.kv.len()
    }

    /// Reset the KV cache.
    pub fn reset(&mut self) {
        self.stack.kv.clear();
    }

    /// Run the prefill phase over `tokens`, returning the logits of the
    /// final position `[1, vocab]`.
    pub fn prefill(&mut self, tokens: &[u32]) -> Result<Tensor> {
        self.stack.prefill(tokens)
    }

    /// Run one decode step for `token`, returning `[1, vocab]` logits.
    pub fn decode_step(&mut self, token: u32) -> Result<Tensor> {
        self.stack.decode_step(token)
    }

    /// Greedy generation: prefill `prompt`, then emit `n` tokens.
    pub fn generate(&mut self, prompt: &[u32], n: usize) -> Result<Vec<u32>> {
        self.stack.generate(prompt, n)
    }
}

impl<P: Projection> DecoderStack<P> {
    /// The stack over `weights` with an empty KV cache.
    pub(crate) fn with_projection(cfg: ModelConfig, weights: ModelWeights, proj: P) -> Self {
        let kv = KvCache::new(cfg.layers, cfg.max_seq, cfg.kv_dim());
        Self {
            cfg,
            weights,
            kv,
            proj,
        }
    }

    /// Run the prefill phase over `tokens`, returning the logits of the
    /// final position `[1, vocab]`.
    pub fn prefill(&mut self, tokens: &[u32]) -> Result<Tensor> {
        if tokens.is_empty() {
            return Err(TensorError::OutOfBounds {
                context: "empty prompt".into(),
            });
        }
        let h = P::forward(self, tokens)?;
        let last = h.slice_rows(tokens.len() - 1, tokens.len())?;
        self.logits(&last)
    }

    /// Run one decode step for `token`, returning `[1, vocab]` logits.
    pub fn decode_step(&mut self, token: u32) -> Result<Tensor> {
        let h = P::forward(self, &[token])?;
        self.logits(&h)
    }

    /// Greedy generation: prefill `prompt`, then emit `n` tokens.
    pub fn generate(&mut self, prompt: &[u32], n: usize) -> Result<Vec<u32>> {
        let mut logits = self.prefill(prompt)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let next = ops::argmax(logits.row(0)?).expect("non-empty logits");
            out.push(next);
            if out.len() == n {
                break;
            }
            logits = self.decode_step(next)?;
        }
        Ok(out)
    }

    fn logits(&mut self, h: &Tensor) -> Result<Tensor> {
        let normed = ops::rmsnorm(h, &self.weights.final_norm, self.cfg.norm_eps)?;
        self.proj.project(&normed, WeightId::LmHead)
    }

    /// Embed `tokens` and forward them (`[m, hidden]`, the new rows)
    /// through all layers, appending to the KV cache.
    pub(crate) fn forward(&mut self, tokens: &[u32]) -> Result<Tensor> {
        let mut x = ops::embed(&self.weights.embedding, tokens)?;
        let pos = self.kv.len();
        for layer in 0..self.cfg.layers {
            x = self.layer_forward(layer, &x, pos)?;
        }
        self.kv.advance(tokens.len())?;
        Ok(x)
    }

    fn layer_forward(&mut self, layer: usize, x: &Tensor, pos: usize) -> Result<Tensor> {
        let Self {
            cfg,
            weights,
            kv,
            proj,
        } = self;
        let (hidden, kv_dim) = (cfg.hidden, cfg.kv_dim());
        let norms = &weights.layers[layer];

        // Attention block.
        let normed = ops::rmsnorm(x, &norms.attn_norm, cfg.norm_eps)?;
        let qkv = proj.project(&normed, WeightId::Qkv(layer))?;
        let mut q = qkv.slice_cols(0, hidden)?;
        let mut k = qkv.slice_cols(hidden, hidden + kv_dim)?;
        let v = qkv.slice_cols(hidden + kv_dim, hidden + 2 * kv_dim)?;
        ops::apply_rope(&mut q, cfg.heads, cfg.head_dim(), pos, cfg.rope_theta)?;
        ops::apply_rope(&mut k, cfg.kv_heads, cfg.head_dim(), pos, cfg.rope_theta)?;
        kv.append(layer, &k, &v)?;

        let (m, _) = x.matrix_dims()?;
        let ctx = pos + m;
        let keys = kv.keys(layer, ctx)?;
        let values = kv.values(layer, ctx)?;
        let attn = attention_gqa(cfg, &q, &keys, &values, pos)?;
        let attn_out = proj.project(&attn, WeightId::AttnOut(layer))?;
        let x = ops::add(x, &attn_out)?;

        // FFN block.
        let normed = ops::rmsnorm(&x, &norms.ffn_norm, cfg.norm_eps)?;
        let gate_up = proj.project(&normed, WeightId::GateUp(layer))?;
        let gate = gate_up.slice_cols(0, cfg.ffn)?;
        let up = gate_up.slice_cols(cfg.ffn, 2 * cfg.ffn)?;
        let act = ops::swiglu(&gate, &up)?;
        let down = proj.project(&act, WeightId::FfnDown(layer))?;
        ops::add(&x, &down)
    }
}

/// Causal GQA attention: queries `[m, hidden]` (rows at absolute
/// positions `pos..pos+m`) over `keys`/`values` `[ctx, kv_dim]`.
fn attention_gqa(
    cfg: &ModelConfig,
    q: &Tensor,
    keys: &Tensor,
    values: &Tensor,
    pos: usize,
) -> Result<Tensor> {
    ops::causal_attention(
        ops::AttentionConfig {
            heads: cfg.heads,
            kv_heads: cfg.kv_heads,
            head_dim: cfg.head_dim(),
        },
        q,
        keys,
        values,
        pos,
    )
}

/// Execute a Matmul `x [m,k] × w [k,n]` under a partition plan, on a
/// one-off upload of `w` (see [`WeightUpload::matmul_partitioned`]).
/// Code that runs many projections of one weight keeps its
/// [`WeightUpload`] instead, so the weight is dequantized once.
pub fn matmul_partitioned(x: &Tensor, w: &W4Matrix, plan: &PartitionPlan) -> Result<Tensor> {
    WeightUpload::new(w)?.matmul_partitioned(x, plan)
}

/// Divergence statistics between two arithmetic modes on the same
/// model and prompt (the data behind Table 2's accuracy column).
#[derive(Debug, Clone, Copy)]
pub struct QuantDivergence {
    /// Fraction of greedily-decoded tokens that agree.
    pub token_agreement: f64,
    /// Mean squared error between the prefill logits.
    pub logit_mse: f64,
    /// Whether the argmax of the first generated token agrees.
    pub first_token_agrees: bool,
}

/// Compare greedy generations of two arithmetic modes on one prompt.
pub fn quant_divergence(
    cfg: &ModelConfig,
    seed: u64,
    prompt: &[u32],
    gen_tokens: usize,
    a: QuantMode,
    b: QuantMode,
) -> Result<QuantDivergence> {
    let mut ma = FunctionalModel::with_mode(cfg.clone(), seed, a)?;
    let mut mb = FunctionalModel::with_mode(cfg.clone(), seed, b)?;

    let la = ma.prefill(prompt)?;
    let lb = mb.prefill(prompt)?;
    let mse = la
        .data()
        .iter()
        .zip(lb.data())
        .map(|(x, y)| (x - y).powi(2))
        .sum::<f32>() as f64
        / la.numel() as f64;

    ma.reset();
    mb.reset();
    let ta = ma.generate(prompt, gen_tokens)?;
    let tb = mb.generate(prompt, gen_tokens)?;
    let agree = ta.iter().zip(&tb).filter(|(x, y)| x == y).count();
    Ok(QuantDivergence {
        token_agreement: agree as f64 / gen_tokens.max(1) as f64,
        logit_mse: mse,
        first_token_agrees: ta.first() == tb.first(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_tensor::rng::WeightRng;

    fn model() -> FunctionalModel {
        FunctionalModel::new(ModelConfig::tiny(), 42).unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let prompt = [1u32, 5, 9, 2];
        let mut a = model();
        let mut b = model();
        let ta = a.generate(&prompt, 8).unwrap();
        let tb = b.generate(&prompt, 8).unwrap();
        assert_eq!(ta, tb);
        assert_eq!(ta.len(), 8);
        assert!(ta.iter().all(|&t| (t as usize) < a.config().vocab));
    }

    #[test]
    fn prefill_then_decode_equals_token_by_token_prefill() {
        // Feeding the prompt at once must match feeding it token by
        // token (KV-cache correctness).
        let prompt = [3u32, 7, 11];
        let mut batch = model();
        let batch_logits = batch.prefill(&prompt).unwrap();

        let mut seq = model();
        let mut logits = seq.prefill(&prompt[..1]).unwrap();
        for &t in &prompt[1..] {
            logits = seq.decode_step(t).unwrap();
        }
        batch_logits.assert_close(&logits, 2e-2);
    }

    #[test]
    fn context_len_tracks_tokens() {
        let mut m = model();
        m.prefill(&[1, 2, 3]).unwrap();
        assert_eq!(m.context_len(), 3);
        m.decode_step(4).unwrap();
        assert_eq!(m.context_len(), 4);
        m.reset();
        assert_eq!(m.context_len(), 0);
    }

    #[test]
    fn causality_first_token_ignores_suffix() {
        // The first position's output must not depend on later tokens:
        // compare the *first* decode continuation after 1-token prefill
        // against prefix independence.
        let mut a = model();
        let la = a.prefill(&[5]).unwrap();
        let mut b = model();
        let lb = b.prefill(&[5]).unwrap();
        la.assert_close(&lb, 0.0);
        // And a longer prompt's final logits differ (sanity).
        let mut c = model();
        let lc = c.prefill(&[5, 6]).unwrap();
        assert!(la.max_abs_diff(&lc).unwrap() > 1e-4);
    }

    #[test]
    fn empty_prompt_rejected() {
        let mut m = model();
        assert!(m.prefill(&[]).is_err());
    }

    fn partition_fixture() -> (Tensor, W4Matrix) {
        let rng = WeightRng::new(9);
        let x = rng.uniform("x", &[48, 64], 1.0).unwrap();
        let w = rng.uniform("w", &[64, 96], 0.3).unwrap();
        (x, W4Matrix::quantize(&w, 32).unwrap())
    }

    #[test]
    fn all_partition_plans_match_monolithic() {
        let (x, w) = partition_fixture();
        let whole = ops::matmul_w4(&x, &w).unwrap();
        let plans = [
            PartitionPlan::GpuOnly,
            PartitionPlan::NpuOnly { padded_m: 64 },
            PartitionPlan::NpuPipe {
                chunks: vec![32, 16],
                padded_rows: 0,
            },
            PartitionPlan::NpuPipe {
                chunks: vec![32, 32],
                padded_rows: 16,
            },
            PartitionPlan::RowCut {
                gpu_cols: 32,
                padded_m: 48,
            },
            PartitionPlan::HybridCut {
                gpu_cols: 64,
                padded_m: 64,
            },
            PartitionPlan::SeqCut {
                npu_chunks: vec![32],
                gpu_rows: 16,
            },
            PartitionPlan::SeqCut {
                npu_chunks: vec![16, 16],
                gpu_rows: 16,
            },
        ];
        for plan in &plans {
            let got = matmul_partitioned(&x, &w, plan).unwrap();
            assert_eq!(
                got.max_abs_diff(&whole).unwrap(),
                0.0,
                "plan {plan:?} is not numerically identical"
            );
        }
    }

    #[test]
    fn w4a16_mode_is_self_consistent() {
        // Comparing W4A16 against itself must be exact.
        let cfg = ModelConfig::tiny();
        let d = quant_divergence(
            &cfg,
            3,
            &[1, 2, 3, 4],
            8,
            QuantMode::W4A16,
            QuantMode::W4A16,
        )
        .unwrap();
        assert_eq!(d.token_agreement, 1.0);
        assert_eq!(d.logit_mse, 0.0);
        assert!(d.first_token_agrees);
    }

    #[test]
    fn int8_mode_diverges_from_w4a16() {
        // Table 2: INT-only NPU computation changes results; W4A16
        // preserves them. The INT8 path always perturbs logits, and on
        // some prompts the greedy generations diverge (on others the
        // noise stays below the argmax margin — exactly the
        // "depends on activation" character the paper describes).
        let cfg = ModelConfig::tiny();
        let mut any_token_divergence = false;
        for seed in 0..4u64 {
            let prompt: Vec<u32> = (0..12).map(|i| (i * 37 + seed as u32 * 11) % 256).collect();
            let d = quant_divergence(&cfg, seed, &prompt, 24, QuantMode::W4A16, QuantMode::Int8)
                .unwrap();
            assert!(d.logit_mse > 0.0, "seed {seed}: int8 must perturb logits");
            if d.token_agreement < 1.0 {
                any_token_divergence = true;
            }
        }
        assert!(
            any_token_divergence,
            "int8 generations should diverge on some prompts"
        );
    }

    #[test]
    fn int8_generation_is_deterministic_too() {
        let cfg = ModelConfig::tiny();
        let gen = || {
            let mut m = FunctionalModel::with_mode(cfg.clone(), 7, QuantMode::Int8).unwrap();
            m.generate(&[3, 1, 4], 8).unwrap()
        };
        assert_eq!(gen(), gen());
    }

    #[test]
    fn plans_that_drop_or_repeat_results_are_rejected() {
        let (x, w) = partition_fixture();
        for plan in [
            // Rows dropped: 32 + 8 < 48.
            PartitionPlan::SeqCut {
                npu_chunks: vec![32],
                gpu_rows: 8,
            },
            // Rows computed twice: 32 + 32 > 48.
            PartitionPlan::SeqCut {
                npu_chunks: vec![32],
                gpu_rows: 32,
            },
            // Rows dropped: the graph covers 32 < 48.
            PartitionPlan::NpuOnly { padded_m: 32 },
            // Columns computed twice: the GPU takes more than n = 96.
            PartitionPlan::RowCut {
                gpu_cols: 128,
                padded_m: 48,
            },
        ] {
            let err = matmul_partitioned(&x, &w, &plan).unwrap_err();
            assert!(
                matches!(err, TensorError::ShapeMismatch { .. }),
                "{plan:?}: {err:?}"
            );
        }
    }

    #[test]
    fn padding_rows_are_discarded_not_leaked() {
        let (x, w) = partition_fixture();
        let out = matmul_partitioned(&x, &w, &PartitionPlan::NpuOnly { padded_m: 128 }).unwrap();
        assert_eq!(out.shape().dims(), &[48, 96]);
    }
}
