//! Decoder model configurations.
//!
//! Shapes follow the published architectures of the models the paper
//! evaluates (Llama-8B/7B/3B, InternLM-1.8B). Weights are synthetic —
//! the performance results depend only on shapes — but the shapes are
//! architecture-exact so every kernel in the simulated trace matches
//! what the real model would launch.

use hetero_graph::{GraphSet, OpTemplate};
use hetero_tensor::DType;
use serde::{Deserialize, Serialize};

/// Configuration of a Llama-style decoder-only transformer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Display name.
    pub name: String,
    /// Hidden (embedding) dimension.
    pub hidden: usize,
    /// FFN intermediate dimension.
    pub ffn: usize,
    /// Number of decoder layers.
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// KV heads (GQA when < heads).
    pub kv_heads: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum context length supported by the KV cache.
    pub max_seq: usize,
    /// RoPE base frequency.
    pub rope_theta: f32,
    /// RMSNorm epsilon.
    pub norm_eps: f32,
    /// KV-cache storage type (FP16 by default; INT8 halves decode
    /// attention traffic at a small accuracy cost).
    pub kv_dtype: DType,
}

/// A preset's CLI-style name and constructor.
type Preset = (&'static str, fn() -> ModelConfig);

impl ModelConfig {
    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// KV projection width (`kv_heads × head_dim`).
    pub fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim()
    }

    /// Llama-3.1-8B: 32 layers, 4096 hidden, 14336 FFN, GQA 32/8.
    pub fn llama_8b() -> Self {
        Self {
            name: "Llama-8B".into(),
            hidden: 4096,
            ffn: 14336,
            layers: 32,
            heads: 32,
            kv_heads: 8,
            vocab: 128_256,
            max_seq: 4096,
            rope_theta: 500_000.0,
            norm_eps: 1e-5,
            kv_dtype: DType::F16,
        }
    }

    /// Llama-2-7B: 32 layers, 4096 hidden, 11008 FFN, MHA.
    pub fn llama_7b() -> Self {
        Self {
            name: "Llama-7B".into(),
            hidden: 4096,
            ffn: 11008,
            layers: 32,
            heads: 32,
            kv_heads: 32,
            vocab: 32_000,
            max_seq: 4096,
            rope_theta: 10_000.0,
            norm_eps: 1e-5,
            kv_dtype: DType::F16,
        }
    }

    /// Llama-3.2-3B: 28 layers, 3072 hidden, 8192 FFN, GQA 24/8.
    pub fn llama_3b() -> Self {
        Self {
            name: "Llama-3B".into(),
            hidden: 3072,
            ffn: 8192,
            layers: 28,
            heads: 24,
            kv_heads: 8,
            vocab: 128_256,
            max_seq: 4096,
            rope_theta: 500_000.0,
            norm_eps: 1e-5,
            kv_dtype: DType::F16,
        }
    }

    /// InternLM2-1.8B: 24 layers, 2048 hidden, 8192 FFN, GQA 16/8.
    pub fn internlm_1_8b() -> Self {
        Self {
            name: "InternLM-1.8B".into(),
            hidden: 2048,
            ffn: 8192,
            layers: 24,
            heads: 16,
            kv_heads: 8,
            vocab: 92_544,
            max_seq: 4096,
            rope_theta: 1_000_000.0,
            norm_eps: 1e-5,
            kv_dtype: DType::F16,
        }
    }

    /// A scaled-down config for functional-mode tests: real math runs
    /// in milliseconds while exercising every code path (GQA included).
    pub fn tiny() -> Self {
        Self {
            name: "Tiny-Test".into(),
            hidden: 64,
            ffn: 128,
            layers: 2,
            heads: 4,
            kv_heads: 2,
            vocab: 256,
            max_seq: 128,
            rope_theta: 10_000.0,
            norm_eps: 1e-5,
            kv_dtype: DType::F16,
        }
    }

    /// Mistral-7B-v0.1: 32 layers, 4096 hidden, 14336 FFN, GQA 32/8.
    /// (Not in the paper's evaluation; provided as a library preset.)
    pub fn mistral_7b() -> Self {
        Self {
            name: "Mistral-7B".into(),
            hidden: 4096,
            ffn: 14336,
            layers: 32,
            heads: 32,
            kv_heads: 8,
            vocab: 32_000,
            max_seq: 4096,
            rope_theta: 10_000.0,
            norm_eps: 1e-5,
            kv_dtype: DType::F16,
        }
    }

    /// Qwen2-1.5B: 28 layers, 1536 hidden, 8960 FFN, GQA 12/2.
    /// (Not in the paper's evaluation; provided as a library preset.)
    pub fn qwen2_1_5b() -> Self {
        Self {
            name: "Qwen2-1.5B".into(),
            hidden: 1536,
            ffn: 8960,
            layers: 28,
            heads: 12,
            kv_heads: 2,
            vocab: 151_936,
            max_seq: 4096,
            rope_theta: 1_000_000.0,
            norm_eps: 1e-6,
            kv_dtype: DType::F16,
        }
    }

    /// This configuration with an INT8-quantized KV cache.
    pub fn with_int8_kv(mut self) -> Self {
        self.kv_dtype = DType::Int8;
        self.name = format!("{}+kv8", self.name);
        self
    }

    /// Every preset [`by_name`](Self::by_name) accepts, under its
    /// CLI-style name.
    const PRESETS: [Preset; 7] = [
        ("llama-8b", Self::llama_8b),
        ("llama-7b", Self::llama_7b),
        ("llama-3b", Self::llama_3b),
        ("internlm-1.8b", Self::internlm_1_8b),
        ("mistral-7b", Self::mistral_7b),
        ("qwen2-1.5b", Self::qwen2_1_5b),
        ("tiny", Self::tiny),
    ];

    /// Look up a preset by CLI-style name (`"llama-8b"`, ...), ignoring
    /// ASCII case.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::PRESETS
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, preset)| preset())
    }

    /// The names [`by_name`](Self::by_name) accepts, in lowercase.
    pub fn preset_names() -> impl Iterator<Item = &'static str> {
        Self::PRESETS.iter().map(|(n, _)| *n)
    }

    /// The longest `max_seq` of any preset: the most tokens a CLI may
    /// ask one session to hold.
    pub fn longest_preset_seq() -> usize {
        Self::PRESETS
            .iter()
            .map(|(_, preset)| preset().max_seq)
            .max()
            .unwrap_or(0)
    }

    /// The four evaluation models of the paper, largest first.
    pub fn evaluation_models() -> Vec<Self> {
        vec![
            Self::llama_8b(),
            Self::llama_7b(),
            Self::llama_3b(),
            Self::internlm_1_8b(),
        ]
    }

    /// Total parameter count (embeddings + decoder + LM head; the
    /// embedding and LM head are untied).
    pub fn param_count(&self) -> u64 {
        let h = self.hidden as u64;
        let per_layer = h * (self.hidden as u64)            // q
            + 2 * h * self.kv_dim() as u64                  // k, v
            + h * h                                          // o
            + 3 * h * self.ffn as u64                        // gate, up, down
            + 2 * h; // norms
        let embed = self.vocab as u64 * h;
        embed + self.layers as u64 * per_layer + h + embed
    }

    /// Weight storage footprint under W4A16 (group-64 scales), bytes.
    pub fn weight_bytes_w4(&self) -> u64 {
        let p = self.param_count();
        p / 2 + p / 64 * 4
    }

    /// The weight-Matmul operator set of one decoder layer plus the LM
    /// head — the NPU graph set (§5.2.2's "typically 4 graphs" plus the
    /// head).
    pub fn graph_set(&self) -> GraphSet {
        GraphSet::new(vec![
            OpTemplate::new("qkv", self.hidden, self.hidden + 2 * self.kv_dim()),
            OpTemplate::new("attn_out", self.hidden, self.hidden),
            OpTemplate::new("gate_up", self.hidden, 2 * self.ffn),
            OpTemplate::new("ffn_down", self.ffn, self.hidden),
        ])
    }

    /// `(name, k, n)` triples of the per-layer weight Matmuls (solver
    /// prebuild input).
    pub fn matmul_ops(&self) -> Vec<(&'static str, usize, usize)> {
        vec![
            ("qkv", self.hidden, self.hidden + 2 * self.kv_dim()),
            ("attn_out", self.hidden, self.hidden),
            ("gate_up", self.hidden, 2 * self.ffn),
            ("ffn_down", self.ffn, self.hidden),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama8b_architecture() {
        let c = ModelConfig::llama_8b();
        assert_eq!(c.head_dim(), 128);
        assert_eq!(c.kv_dim(), 1024);
        // ≈ 8.0B parameters.
        let b = c.param_count() as f64 / 1e9;
        assert!((7.5..8.6).contains(&b), "params {b}B");
        // W4 storage ≈ 4.3 GB.
        let gb = c.weight_bytes_w4() as f64 / 1e9;
        assert!((3.9..4.8).contains(&gb), "w4 {gb}GB");
    }

    #[test]
    fn internlm_is_billion_scale() {
        let c = ModelConfig::internlm_1_8b();
        let b = c.param_count() as f64 / 1e9;
        assert!((1.5..2.1).contains(&b), "params {b}B");
    }

    #[test]
    fn all_models_have_consistent_dims() {
        for c in ModelConfig::evaluation_models() {
            assert_eq!(c.hidden % c.heads, 0, "{}", c.name);
            assert_eq!(c.heads % c.kv_heads, 0, "{}", c.name);
            assert!(
                c.head_dim() % 2 == 0,
                "{}: RoPE needs even head_dim",
                c.name
            );
        }
    }

    #[test]
    fn graph_set_has_four_ops() {
        let g = ModelConfig::llama_8b().graph_set();
        assert_eq!(g.len(), 4);
        let shapes = g.shapes_at(256);
        assert_eq!(shapes[0].n, 4096 + 2048);
        assert_eq!(shapes[3].k, 14336);
    }

    #[test]
    fn extra_presets_are_consistent() {
        for c in [ModelConfig::mistral_7b(), ModelConfig::qwen2_1_5b()] {
            assert_eq!(c.hidden % c.heads, 0, "{}", c.name);
            assert_eq!(c.heads % c.kv_heads, 0, "{}", c.name);
        }
        let q = ModelConfig::qwen2_1_5b();
        assert!((1.2..2.0).contains(&(q.param_count() as f64 / 1e9)));
    }

    #[test]
    fn by_name_covers_presets() {
        assert_eq!(ModelConfig::by_name("llama-8b").unwrap().name, "Llama-8B");
        assert_eq!(
            ModelConfig::by_name("QWEN2-1.5B").unwrap().name,
            "Qwen2-1.5B"
        );
        assert!(ModelConfig::by_name("gpt-5").is_none());
        for name in ModelConfig::preset_names() {
            assert!(ModelConfig::by_name(name).is_some(), "{name}");
        }
        assert_eq!(ModelConfig::longest_preset_seq(), 4096);
    }

    #[test]
    fn int8_kv_halves_cache_width() {
        let c = ModelConfig::llama_8b().with_int8_kv();
        assert_eq!(c.kv_dtype, DType::Int8);
        assert!(c.name.ends_with("+kv8"));
    }

    #[test]
    fn tiny_is_fast_but_complete() {
        let c = ModelConfig::tiny();
        assert!(c.param_count() < 1_000_000);
        assert!(c.kv_heads < c.heads, "tiny config must exercise GQA");
    }
}
