//! Functional mode: real W4A16 transformer execution.
//!
//! Runs actual math — embedding gather, RMSNorm, W4A16 GEMMs, RoPE,
//! GQA attention, SwiGLU, sampling — on scaled-down configs. This is
//! the correctness anchor for the whole system: the partitioned
//! execution paths (row-cut / seq-cut / hybrid) are checked here to be
//! numerically identical to the monolithic computation, which is what
//! makes the timing engines' scheduling policies *legal*.

use hetero_graph::partition::ComputeStep;
use hetero_solver::PartitionPlan;
use hetero_tensor::ops;
use hetero_tensor::quant::{Int8Matrix, W4Matrix};
use hetero_tensor::shape::MatmulShape;
use hetero_tensor::{Result, Tensor, TensorError};

use crate::kv::KvCache;
use crate::model::{ModelConfig, ModelWeights};

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

/// A functional (real-math) model instance with its KV cache.
#[derive(Debug)]
pub struct FunctionalModel {
    cfg: ModelConfig,
    weights: ModelWeights,
    kv: KvCache,
    mode: QuantMode,
    /// Shapes of every weight Matmul executed, in order — used to
    /// validate that functional execution launches exactly the kernels
    /// the timing trace prices.
    matmul_log: Vec<hetero_tensor::shape::MatmulShape>,
}

impl FunctionalModel {
    /// Build a model with seeded synthetic weights (W4A16 arithmetic).
    pub fn new(cfg: ModelConfig, seed: u64) -> Result<Self> {
        Self::with_mode(cfg, seed, QuantMode::W4A16)
    }

    /// Build a model with an explicit arithmetic mode.
    pub fn with_mode(cfg: ModelConfig, seed: u64, mode: QuantMode) -> Result<Self> {
        let weights = ModelWeights::generate(&cfg, seed)?;
        let kv = KvCache::new(cfg.layers, cfg.max_seq, cfg.kv_dim());
        Ok(Self {
            cfg,
            weights,
            kv,
            mode,
            matmul_log: Vec::new(),
        })
    }

    /// Shapes of every weight Matmul executed so far, in launch order.
    pub fn executed_matmuls(&self) -> &[hetero_tensor::shape::MatmulShape] {
        &self.matmul_log
    }

    /// The arithmetic mode in use.
    pub fn mode(&self) -> QuantMode {
        self.mode
    }

    /// A weight projection under the configured arithmetic mode.
    fn proj(&mut self, x: &Tensor, w: &W4Matrix) -> Result<Tensor> {
        let (m, _) = x.matrix_dims()?;
        let (k, n) = w.dims();
        self.matmul_log
            .push(hetero_tensor::shape::MatmulShape::new(m, k, n));
        match self.mode {
            QuantMode::W4A16 => ops::matmul_w4(x, w),
            QuantMode::Int8 => {
                // INT-only NPU path: re-quantize the dequantized weight
                // and the activation to per-row INT8, integer GEMM.
                let qx = Int8Matrix::quantize(x)?;
                let qw = Int8Matrix::quantize(&w.dequantize()?)?;
                qx.matmul_int8(&qw)
            }
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Current KV length.
    pub fn context_len(&self) -> usize {
        self.kv.len()
    }

    /// Reset the KV cache.
    pub fn reset(&mut self) {
        self.kv.clear();
    }

    /// Run the prefill phase over `tokens`, returning the logits of the
    /// final position `[1, vocab]`.
    pub fn prefill(&mut self, tokens: &[u32]) -> Result<Tensor> {
        if tokens.is_empty() {
            return Err(TensorError::OutOfBounds {
                context: "empty prompt".into(),
            });
        }
        let x = ops::embed(&self.weights.embedding, tokens)?;
        let h = self.forward(x)?;
        let last = h.slice_rows(tokens.len() - 1, tokens.len())?;
        self.logits(&last)
    }

    /// Run one decode step for `token`, returning `[1, vocab]` logits.
    pub fn decode_step(&mut self, token: u32) -> Result<Tensor> {
        let x = ops::embed(&self.weights.embedding, &[token])?;
        let h = self.forward(x)?;
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
        let lm_head = self.weights.lm_head.clone();
        self.proj(&normed, &lm_head)
    }

    /// Forward `x` (`[m, hidden]`, the new rows) through all layers,
    /// appending to the KV cache.
    fn forward(&mut self, mut x: Tensor) -> Result<Tensor> {
        let (m, _) = x.matrix_dims()?;
        let pos = self.kv.len();
        for layer in 0..self.cfg.layers {
            x = self.layer_forward(layer, &x, pos)?;
        }
        self.kv.advance(m)?;
        Ok(x)
    }

    fn layer_forward(&mut self, layer: usize, x: &Tensor, pos: usize) -> Result<Tensor> {
        let cfg = self.cfg.clone();
        let (hidden, kv_dim) = (cfg.hidden, cfg.kv_dim());
        let lw = self.weights.layers[layer].clone();

        // Attention block.
        let normed = ops::rmsnorm(x, &lw.attn_norm, cfg.norm_eps)?;
        let qkv = self.proj(&normed, &lw.qkv)?;
        let mut q = qkv.slice_cols(0, hidden)?;
        let mut k = qkv.slice_cols(hidden, hidden + kv_dim)?;
        let v = qkv.slice_cols(hidden + kv_dim, hidden + 2 * kv_dim)?;
        ops::apply_rope(&mut q, cfg.heads, cfg.head_dim(), pos, cfg.rope_theta)?;
        ops::apply_rope(&mut k, cfg.kv_heads, cfg.head_dim(), pos, cfg.rope_theta)?;
        self.kv.append(layer, &k, &v)?;

        let (m, _) = x.matrix_dims()?;
        let ctx = pos + m;
        let keys = self.kv.keys(layer, ctx)?;
        let values = self.kv.values(layer, ctx)?;
        let attn = attention_gqa(&self.cfg, &q, &keys, &values, pos)?;
        let attn_out = self.proj(&attn, &lw.attn_out)?;
        let x = ops::add(x, &attn_out)?;

        // FFN block.
        let normed = ops::rmsnorm(&x, &lw.ffn_norm, cfg.norm_eps)?;
        let gate_up = self.proj(&normed, &lw.gate_up)?;
        let gate = gate_up.slice_cols(0, cfg.ffn)?;
        let up = gate_up.slice_cols(cfg.ffn, 2 * cfg.ffn)?;
        let act = ops::swiglu(&gate, &up)?;
        let down = self.proj(&act, &lw.ffn_down)?;
        ops::add(&x, &down)
    }
}

/// Causal GQA attention: queries `[m, hidden]` (rows at absolute
/// positions `pos..pos+m`) over `keys`/`values` `[ctx, kv_dim]`.
pub(crate) fn attention_gqa(
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

/// Execute a Matmul `x [m,k] × w [k,n]` under a partition plan: each
/// compute step of the plan's lowering ([`PartitionPlan::lower`])
/// computes its output tile, and the tiles are assembled into the
/// result.
///
/// A full-width tile runs [`ops::matmul_w4`] on its row slice; a column
/// tile multiplies its row slice by the dequantized columns. Padding
/// rows produce nothing (each output row depends only on its own input
/// row). A plan whose tiles do not cover `[m, n]` exactly once is
/// rejected.
pub fn matmul_partitioned(x: &Tensor, w: &W4Matrix, plan: &PartitionPlan) -> Result<Tensor> {
    let (m, k) = x.matrix_dims()?;
    let (_, n) = w.dims();
    let tiles = plan_tiles(plan, MatmulShape::new(m, k, n));
    if !covers_exactly_once(&tiles, m, n) {
        return Err(TensorError::ShapeMismatch {
            context: format!("plan {plan:?} does not cover the [{m}, {n}] result exactly once"),
        });
    }
    let mut out = vec![0.0f32; m * n];
    for t in tiles {
        let rows = x.slice_rows(t.rows.start, t.rows.end)?;
        let part = if t.cols.len() == n {
            ops::matmul_w4(&rows, w)?
        } else {
            ops::matmul(&rows, &w.dequantize_cols(t.cols.start, t.cols.end)?)?
        };
        for (r, src) in t.rows.zip(part.data().chunks_exact(t.cols.len())) {
            out[r * n + t.cols.start..r * n + t.cols.end].copy_from_slice(src);
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// The non-empty output tiles of a plan's compute steps for the
/// `[m, n]` result of `shape`, each with the backend that produces it.
pub(crate) fn plan_tiles(plan: &PartitionPlan, shape: MatmulShape) -> Vec<ComputeStep> {
    plan.lower(shape)
        .compute()
        .filter(|t| !t.rows.is_empty() && !t.cols.is_empty())
        .collect()
}

/// Whether `tiles` cover the `[m, n]` result exactly once: inside it,
/// pairwise disjoint, with areas summing to the whole.
fn covers_exactly_once(tiles: &[ComputeStep], m: usize, n: usize) -> bool {
    let inside = tiles.iter().all(|t| t.rows.end <= m && t.cols.end <= n);
    let overlap = |a: &ComputeStep, b: &ComputeStep| {
        a.rows.start < b.rows.end
            && b.rows.start < a.rows.end
            && a.cols.start < b.cols.end
            && b.cols.start < a.cols.end
    };
    let disjoint = tiles
        .iter()
        .enumerate()
        .all(|(i, a)| tiles[i + 1..].iter().all(|b| !overlap(a, b)));
    let sum: usize = tiles.iter().map(|t| t.rows.len() * t.cols.len()).sum();
    inside && disjoint && sum == m * n
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

    let ta = {
        let mut m = FunctionalModel::with_mode(cfg.clone(), seed, a)?;
        m.generate(prompt, gen_tokens)?
    };
    let tb = {
        let mut m = FunctionalModel::with_mode(cfg.clone(), seed, b)?;
        m.generate(prompt, gen_tokens)?
    };
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
