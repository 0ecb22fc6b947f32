//! Functional heterogeneous engine: real math through solver plans.
//!
//! [`FunctionalHeteroEngine`] executes an actual W4A16 transformer
//! (like [`crate::functional::FunctionalModel`]) but routes every
//! weight Matmul through the partition plan the solver chooses for its
//! shape — slicing operands, computing the parts as the GPU/NPU sides
//! would, and merging. Simultaneously it charges the same simulated
//! time the timing engine would.
//!
//! This is the strongest correctness statement in the reproduction:
//! *the full engine pipeline (profiler → solver → partitioned
//! execution) produces bit-identical logits and tokens to monolithic
//! inference*, on every prompt, while the timing side stays consistent
//! with the pure timing engine.
//!
//! # Integrity mode
//!
//! With [`IntegrityMode::Verify`] or [`IntegrityMode::Recover`] the
//! engine becomes the functional arm of the data-integrity layer:
//! every projection's output is checked per partition tile against its
//! ABFT row checksum ([`hetero_tensor::abft`]), the KV cache's sealed
//! prefix is re-verified at the start of every forward, and seeded
//! [`SdcTrace`] faults are applied deterministically. In `Recover`
//! mode a mismatched tile is recomputed (charged to the *opposite*
//! backend — cross-backend diversity as the arbiter) and a corrupted
//! KV row triggers rollback to the last sealed batch boundary plus
//! bit-identical replay of the dropped tokens. Detection and recovery
//! both charge simulated time, so the integrity tax is visible in the
//! timing reports.

use hetero_graph::partition::ComputeStep;
use hetero_profiler::RealExecProvider;
use hetero_soc::disturb::{SdcFault, SdcTrace};
use hetero_soc::kernel::KernelLabel;
use hetero_soc::sync::{Dominance, SyncMechanism};
use hetero_soc::{Backend, KernelDesc, Soc};
use hetero_solver::{PartitionPlan, SolverConfig};
use hetero_tensor::quant::W4Matrix;
use hetero_tensor::shape::MatmulShape;
use hetero_tensor::{abft, ops};
use hetero_tensor::{Result, Tensor, TensorError};

use crate::engines::SolverPlanner;
use crate::engines::{gpu_kernel, hetero_soc_config, npu_kernel};
use crate::functional::{matmul_partitioned, plan_tiles};
use crate::integrity::{IntegrityCounters, IntegrityMode};
use crate::kv::KvCache;
use crate::model::{ModelConfig, ModelWeights};
use crate::report::{IntegritySummary, PhaseReport};

/// Real-math engine executing solver-partitioned kernels.
pub struct FunctionalHeteroEngine {
    cfg: ModelConfig,
    weights: ModelWeights,
    kv: KvCache,
    soc: Soc,
    planner: SolverPlanner<RealExecProvider>,
    integrity: IntegrityMode,
    counters: IntegrityCounters,
    /// Injected faults not yet applied.
    pending: Vec<SdcFault>,
    /// Weight projections launched (nominal sequence; replay excluded).
    proj_count: usize,
    /// Completed forwards (nominal sequence; replay excluded).
    forward_count: usize,
    /// Token batches fed so far, in order — the replay source. Batch
    /// boundaries are the rollback points.
    history: Vec<Vec<u32>>,
    /// Inside a recovery replay: skip injection, verification and
    /// history recording; keep charging time.
    replaying: bool,
}

impl FunctionalHeteroEngine {
    /// Build with seeded synthetic weights.
    pub fn new(cfg: ModelConfig, seed: u64) -> Result<Self> {
        let soc_cfg = hetero_soc_config(SyncMechanism::Fast);
        let provider = RealExecProvider::new(soc_cfg.clone());
        // Graph standards for tiny functional configs: multiples of 32
        // up to max_seq so any test prompt has candidates.
        let standards: Vec<usize> = (1..=8).map(|i| i * 32).collect();
        let planner = SolverPlanner::new(
            provider,
            SolverConfig {
                standards,
                ..SolverConfig::default()
            },
            SolverConfig::decode(1),
        );
        Ok(Self {
            weights: ModelWeights::generate(&cfg, seed)?,
            kv: KvCache::new(cfg.layers, cfg.max_seq, cfg.kv_dim()),
            soc: Soc::new(soc_cfg),
            planner,
            cfg,
            integrity: IntegrityMode::Off,
            counters: IntegrityCounters::default(),
            pending: Vec::new(),
            proj_count: 0,
            forward_count: 0,
            history: Vec::new(),
            replaying: false,
        })
    }

    /// Enable the integrity layer in the given mode.
    #[must_use]
    pub fn with_integrity(mut self, mode: IntegrityMode) -> Self {
        self.integrity = mode;
        self
    }

    /// Stage the faults of `trace` for deterministic application
    /// (tile flips by projection launch index, KV corruptions by
    /// forward count). [`SdcFault::GraphPoison`] events are skipped:
    /// the functional path executes reference kernels directly and
    /// holds no compiled-graph cache — graph poisoning is exercised at
    /// the controller level.
    pub fn inject(&mut self, trace: &SdcTrace) {
        for e in &trace.events {
            if !matches!(e.fault, SdcFault::GraphPoison { .. }) {
                self.pending.push(e.fault.clone());
            }
        }
    }

    /// The integrity summary so far (`None` when integrity is off).
    /// Overhead is measured against the engine's full simulated time.
    pub fn integrity_summary(&self) -> Option<IntegritySummary> {
        self.integrity
            .verifies()
            .then(|| self.counters.summary(self.soc.clock()))
    }

    /// Simulated time consumed so far.
    pub fn sim_time(&self) -> hetero_soc::SimTime {
        self.soc.clock()
    }

    /// A partitioned, time-charged weight projection.
    fn proj(&mut self, op: &'static str, x: &Tensor, w: &W4Matrix) -> Result<Tensor> {
        let (m, _) = x.matrix_dims()?;
        let (k, n) = w.dims();
        let shape = MatmulShape::new(m, k, n);
        let choice = self.planner.choice(op, shape, Dominance::NpuDominant);

        // Charge simulated time for the plan's lowering: NPU chunks as
        // one serial batch, parallel plans NPU-dominant.
        let lowered = choice.plan.lower(shape);
        let npu: Vec<_> = lowered.npu().map(npu_kernel).collect();
        match lowered.gpu.map(gpu_kernel) {
            Some(gpu) if lowered.parallel => {
                self.soc.run_parallel(&[gpu], &npu, Dominance::NpuDominant);
            }
            Some(gpu) => {
                self.soc.run_serial(Backend::Gpu, &[gpu]);
            }
            None => {
                self.soc.run_serial(Backend::Npu, &npu);
            }
        }

        // Execute the real math through the same plan.
        let mut out = matmul_partitioned(x, w, &choice.plan)?;
        if self.integrity.verifies() && !self.replaying {
            let idx = self.proj_count;
            self.proj_count += 1;
            self.apply_tile_faults(idx, &mut out);
            self.verify_tiles(x, w, &choice.plan, &mut out)?;
        }
        Ok(out)
    }

    /// Apply pending transient flips targeting projection `idx`.
    fn apply_tile_faults(&mut self, idx: usize, out: &mut Tensor) {
        let mut kept = Vec::with_capacity(self.pending.len());
        for fault in std::mem::take(&mut self.pending) {
            match fault {
                SdcFault::TileFlip {
                    proj_index,
                    elem_draw,
                    bit,
                } if proj_index == idx => {
                    let at = (elem_draw % out.numel() as u64) as usize;
                    let data = out.data_mut();
                    data[at] = abft::flip_bit(data[at], bit);
                    self.counters.injected += 1;
                }
                other => kept.push(other),
            }
        }
        self.pending = kept;
    }

    /// Verify every tile of `out` against its ABFT checksum, charging
    /// the detection tax; in `Recover` mode, repair mismatched tiles by
    /// recomputing on the opposite backend.
    fn verify_tiles(
        &mut self,
        x: &Tensor,
        w: &W4Matrix,
        plan: &PartitionPlan,
        out: &mut Tensor,
    ) -> Result<()> {
        let (m, k) = x.matrix_dims()?;
        let (_, n) = w.dims();
        let tiles = plan_tiles(plan, MatmulShape::new(m, k, n));
        let mut bad: Vec<ComputeStep> = Vec::new();
        for tile in tiles {
            self.counters.tiles_verified += 1;
            let xt = x.slice_rows(tile.rows.start, tile.rows.end)?;
            let bt = w.dequantize_cols(tile.cols.start, tile.cols.end)?;
            let checksum = abft::input_checksum(&xt, &bt)?;
            let out_t = out
                .slice_rows(tile.rows.start, tile.rows.end)?
                .slice_cols(tile.cols.start, tile.cols.end)?;
            let got = abft::output_checksum(&out_t)?;

            // Detection tax: the checksum reductions (O(m·(k+n)) per
            // tile) plus one fast-sync rendezvous with the verifier.
            let (mt, nt) = (tile.rows.len() as u64, tile.cols.len() as u64);
            let reduce = KernelDesc::mem_bound(
                KernelLabel::Other,
                4 * mt * (k as u64 + nt),
                8 * mt,
                2 * mt * (k as u64 + nt),
            );
            let mut tax = self.soc.run_serial(Backend::Cpu, &[reduce]);
            let rdv = self.soc.config().sync.rendezvous(Dominance::NpuDominant);
            self.soc.advance(rdv);
            tax += rdv;
            self.counters.verify_time += tax;

            if abft::verify_tile(&checksum, &got).is_some() {
                self.counters.tile_mismatches += 1;
                self.counters.detected += 1;
                bad.push(tile);
            }
        }
        if bad.is_empty() {
            return Ok(());
        }
        if !self.integrity.recovers() {
            self.counters.uncorrectable += bad.len();
            return Ok(());
        }
        // Quarantine-and-recompute: charge each bad tile's GEMM to the
        // backend that did NOT produce it, then rebuild the region from
        // a pristine re-execution of the plan (the inputs are intact —
        // the flip only struck the output copy — so the recompute is
        // bit-identical by construction).
        let t0 = self.soc.clock();
        for tile in &bad {
            let shape = MatmulShape::new(tile.rows.len(), k, tile.cols.len());
            match tile.backend {
                Backend::Npu | Backend::Cpu => {
                    self.soc.run_serial(Backend::Gpu, &[gpu_kernel(shape)]);
                }
                Backend::Gpu => {
                    self.soc.run_serial(Backend::Npu, &[npu_kernel(shape)]);
                }
            }
            self.soc.backend_switch();
        }
        let pristine = matmul_partitioned(x, w, plan)?;
        for tile in &bad {
            for r in tile.rows.clone() {
                let lo = r * n + tile.cols.start;
                let hi = r * n + tile.cols.end;
                out.data_mut()[lo..hi].copy_from_slice(&pristine.data()[lo..hi]);
            }
        }
        self.counters.tile_recomputes += bad.len();
        self.counters.corrected += bad.len();
        self.counters
            .recompute_latencies
            .push(self.soc.clock() - t0);
        Ok(())
    }

    /// Apply pending sticky KV corruptions that are due.
    fn apply_kv_faults(&mut self) -> Result<()> {
        if self.kv.is_empty() {
            return Ok(());
        }
        let (layers, kv_dim, len) = (self.cfg.layers, self.cfg.kv_dim(), self.kv.len());
        let due = self.forward_count;
        let mut kept = Vec::with_capacity(self.pending.len());
        for fault in std::mem::take(&mut self.pending) {
            match fault {
                SdcFault::KvCorrupt {
                    after_forwards,
                    layer_draw,
                    row_draw,
                    col_draw,
                    bit,
                } if after_forwards <= due => {
                    self.kv.corrupt_key(
                        (layer_draw % layers as u64) as usize,
                        (row_draw % len as u64) as usize,
                        (col_draw % kv_dim as u64) as usize,
                        bit,
                    )?;
                    self.counters.injected += 1;
                }
                other => kept.push(other),
            }
        }
        self.pending = kept;
        Ok(())
    }

    /// Read-time KV verification: re-hash the sealed prefix, charge the
    /// detection tax, and (in `Recover` mode) roll back to the last
    /// clean batch boundary and replay the dropped tokens.
    fn verify_kv(&mut self) -> Result<()> {
        let sealed = self.kv.sealed_rows();
        self.counters.kv_rows_verified += sealed;
        let bytes = (sealed * 2 * self.cfg.kv_dim() * 4) as u64;
        let rehash = KernelDesc::mem_bound(KernelLabel::KvAppend, bytes, 8, bytes / 4);
        let mut tax = self.soc.run_serial(Backend::Cpu, &[rehash]);
        let rdv = self.soc.config().sync.rendezvous(Dominance::NpuDominant);
        self.soc.advance(rdv);
        tax += rdv;
        self.counters.verify_time += tax;

        let Some((_, row)) = self.kv.verify() else {
            return Ok(());
        };
        self.counters.kv_mismatches += 1;
        self.counters.detected += 1;
        if !self.integrity.recovers() {
            self.counters.uncorrectable += 1;
            return Ok(());
        }
        // Roll back to the last batch boundary at or before the first
        // corrupted row, then replay the recorded batches: every
        // replayed forward recomputes its rows on the identical prefix,
        // so the restored cache is bit-identical.
        let t0 = self.soc.clock();
        let mut boundary = 0;
        let mut first_batch = 0;
        for (i, batch) in self.history.iter().enumerate() {
            if boundary + batch.len() > row {
                first_batch = i;
                break;
            }
            boundary += batch.len();
        }
        self.kv.rollback(boundary)?;
        self.counters.kv_rollbacks += 1;
        self.replaying = true;
        for i in first_batch..self.history.len() {
            let batch = self.history[i].clone();
            let x = ops::embed(&self.weights.embedding, &batch)?;
            self.forward_layers(x)?;
            self.counters.replayed_tokens += batch.len();
        }
        self.replaying = false;
        self.counters.corrected += 1;
        self.counters
            .recompute_latencies
            .push(self.soc.clock() - t0);
        Ok(())
    }

    /// Prefill over `tokens`, returning final-position logits and the
    /// phase timing report.
    pub fn prefill(&mut self, tokens: &[u32]) -> Result<(Tensor, PhaseReport)> {
        if tokens.is_empty() {
            return Err(TensorError::OutOfBounds {
                context: "empty prompt".into(),
            });
        }
        let start = self.soc.clock();
        let x = ops::embed(&self.weights.embedding, tokens)?;
        let h = self.forward(x, tokens)?;
        let last = h.slice_rows(tokens.len() - 1, tokens.len())?;
        let logits = self.logits(&last)?;
        let report = PhaseReport {
            tokens: tokens.len(),
            elapsed: self.soc.clock() - start,
        };
        Ok((logits, report))
    }

    /// One decode step.
    pub fn decode_step(&mut self, token: u32) -> Result<Tensor> {
        let x = ops::embed(&self.weights.embedding, &[token])?;
        let h = self.forward(x, &[token])?;
        self.logits(&h)
    }

    /// Greedy generation (identical semantics to
    /// [`crate::functional::FunctionalModel::generate`]).
    pub fn generate(&mut self, prompt: &[u32], n: usize) -> Result<Vec<u32>> {
        let (mut logits, _) = self.prefill(prompt)?;
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
        self.proj("lm_head", &normed, &lm_head)
    }

    fn forward(&mut self, x: Tensor, tokens: &[u32]) -> Result<Tensor> {
        if self.integrity.verifies() && !self.replaying {
            self.apply_kv_faults()?;
            self.verify_kv()?;
        }
        let h = self.forward_layers(x)?;
        if self.integrity.verifies() && !self.replaying {
            self.history.push(tokens.to_vec());
            self.forward_count += 1;
        }
        Ok(h)
    }

    fn forward_layers(&mut self, mut x: Tensor) -> Result<Tensor> {
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
        // Clone the layer weights up front: `proj` needs `&mut self`.
        let lw = self.weights.layers[layer].clone();

        let normed = ops::rmsnorm(x, &lw.attn_norm, cfg.norm_eps)?;
        let qkv = self.proj("qkv", &normed, &lw.qkv)?;
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
        let attn = crate::functional::attention_gqa(&cfg, &q, &keys, &values, pos)?;
        let attn_out = self.proj("attn_out", &attn, &lw.attn_out)?;
        let x = ops::add(x, &attn_out)?;

        let normed = ops::rmsnorm(&x, &lw.ffn_norm, cfg.norm_eps)?;
        let gate_up = self.proj("gate_up", &normed, &lw.gate_up)?;
        let gate = gate_up.slice_cols(0, cfg.ffn)?;
        let up = gate_up.slice_cols(cfg.ffn, 2 * cfg.ffn)?;
        let act = ops::swiglu(&gate, &up)?;
        let down = self.proj("ffn_down", &act, &lw.ffn_down)?;
        ops::add(&x, &down)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::FunctionalModel;
    use hetero_soc::SimTime;

    #[test]
    fn partitioned_engine_matches_monolithic_exactly() {
        // The headline correctness property: solver-partitioned
        // execution generates the *same tokens* as monolithic W4A16
        // inference, bit for bit.
        let cfg = ModelConfig::tiny();
        let prompt = [3u32, 17, 99, 4, 42, 7, 250, 1];
        let mut mono = FunctionalModel::new(cfg.clone(), 77).unwrap();
        let expected = mono.generate(&prompt, 12).unwrap();

        let mut hetero = FunctionalHeteroEngine::new(cfg, 77).unwrap();
        let got = hetero.generate(&prompt, 12).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn logits_match_exactly_at_prefill() {
        let cfg = ModelConfig::tiny();
        let prompt = [5u32, 1, 200, 30, 64];
        let mut mono = FunctionalModel::new(cfg.clone(), 3).unwrap();
        let expected = mono.prefill(&prompt).unwrap();
        let mut hetero = FunctionalHeteroEngine::new(cfg, 3).unwrap();
        let (got, report) = hetero.prefill(&prompt).unwrap();
        assert_eq!(got.max_abs_diff(&expected).unwrap(), 0.0);
        assert_eq!(report.tokens, 5);
        assert!(report.elapsed > hetero_soc::SimTime::ZERO);
    }

    #[test]
    fn sim_time_accumulates_across_calls() {
        let cfg = ModelConfig::tiny();
        let mut e = FunctionalHeteroEngine::new(cfg, 1).unwrap();
        e.prefill(&[1, 2, 3]).unwrap();
        let after_prefill = e.sim_time();
        e.decode_step(4).unwrap();
        assert!(e.sim_time() > after_prefill);
    }

    #[test]
    fn larger_prompts_charge_more_time() {
        let cfg = ModelConfig::tiny();
        let mut small = FunctionalHeteroEngine::new(cfg.clone(), 1).unwrap();
        let mut large = FunctionalHeteroEngine::new(cfg, 1).unwrap();
        let (_, rs) = small.prefill(&[1; 8]).unwrap();
        let (_, rl) = large.prefill(&[1; 64]).unwrap();
        assert!(rl.elapsed > rs.elapsed);
    }

    const PROMPT: [u32; 8] = [3, 17, 99, 4, 42, 7, 250, 1];

    fn clean_tokens(seed: u64) -> Vec<u32> {
        let mut e = FunctionalHeteroEngine::new(ModelConfig::tiny(), seed).unwrap();
        e.generate(&PROMPT, 12).unwrap()
    }

    #[test]
    fn verify_on_clean_run_has_zero_false_positives() {
        let mut e = FunctionalHeteroEngine::new(ModelConfig::tiny(), 77)
            .unwrap()
            .with_integrity(IntegrityMode::Verify);
        let got = e.generate(&PROMPT, 12).unwrap();
        assert_eq!(got, clean_tokens(77), "verification must not alter math");
        let s = e.integrity_summary().unwrap();
        assert!(s.tiles_verified > 0);
        assert!(s.kv_rows_verified > 0);
        assert_eq!(s.detected, 0, "{s:?}");
        assert_eq!(s.tile_mismatches, 0);
        assert_eq!(s.kv_mismatches, 0);
        assert!(s.verify_overhead_pct < 100);
    }

    #[test]
    fn injected_faults_are_all_detected_and_recovered_bit_for_bit() {
        let expected = clean_tokens(77);
        let sdc = SdcTrace::standard(42);
        let mut e = FunctionalHeteroEngine::new(ModelConfig::tiny(), 77)
            .unwrap()
            .with_integrity(IntegrityMode::Recover);
        e.inject(&sdc);
        let got = e.generate(&PROMPT, 12).unwrap();
        let s = e.integrity_summary().unwrap();
        assert!(s.injected > 0, "standard trace must land faults: {s:?}");
        assert_eq!(s.detected, s.injected, "every fault detected: {s:?}");
        assert_eq!(s.corrected, s.detected, "every detection repaired: {s:?}");
        assert_eq!(s.uncorrectable, 0);
        assert_eq!(
            got, expected,
            "recovered run must reproduce the un-faulted tokens bit-for-bit"
        );
        assert!(s.recompute_p99 >= s.recompute_p50);
        assert!(s.recompute_p99 > SimTime::ZERO);
    }

    #[test]
    fn verify_only_detects_but_leaves_corruption() {
        let sdc = SdcTrace::standard(42);
        let mut e = FunctionalHeteroEngine::new(ModelConfig::tiny(), 77)
            .unwrap()
            .with_integrity(IntegrityMode::Verify);
        e.inject(&sdc);
        let got = e.generate(&PROMPT, 12).unwrap();
        let s = e.integrity_summary().unwrap();
        // Sticky KV corruption is never repaired in verify-only mode,
        // so the same corrupted row re-flags on every later forward:
        // detections exceed injections.
        assert!(s.detected >= s.injected, "{s:?}");
        assert!(s.kv_mismatches > s.injected - s.tile_mismatches, "{s:?}");
        assert_eq!(s.corrected, 0);
        assert_eq!(s.uncorrectable, s.detected);
        // An exponent-bit flip left in place derails the generation.
        assert_ne!(got, clean_tokens(77), "corruption must visibly propagate");
    }

    #[test]
    fn faulted_verify_off_run_corrupts_silently() {
        let sdc = SdcTrace::standard(42);
        let mut e = FunctionalHeteroEngine::new(ModelConfig::tiny(), 77).unwrap();
        // Off mode: faults are staged but never applied (no injection
        // points execute), so the run matches the clean one — the
        // "silent" baseline is produced by the Verify arm instead.
        e.inject(&sdc);
        assert!(e.integrity_summary().is_none());
    }
}
