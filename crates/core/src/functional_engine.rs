//! Functional heterogeneous engine: real math through solver plans.
//!
//! [`FunctionalHeteroEngine`] runs the transformer forward of
//! [`crate::functional::FunctionalModel`] (the same decoder stack)
//! but routes every weight Matmul through the partition plan the
//! solver chooses for its shape — slicing operands, computing the
//! parts as the GPU/NPU sides would, and merging.
//!
//! Its simulated time is a partial account: it charges each
//! projection's plan lowering (NPU chunks serially, split plans as one
//! NPU-dominant parallel section) and the integrity layer's work, but
//! no backend switches and no non-Matmul kernels, and it plans decode
//! projections NPU-dominant where the timing engine plans them
//! GPU-dominant. Its clock orders the integrity tax against the
//! projections; it is not the timing engine's elapsed time.
//!
//! This is the strongest correctness statement in the reproduction:
//! *the full engine pipeline (profiler → solver → partitioned
//! execution) produces bit-identical logits and tokens to monolithic
//! inference*, on every prompt.
//!
//! # Integrity mode
//!
//! With [`IntegrityMode::Verify`] or [`IntegrityMode::Recover`] the
//! engine becomes the functional arm of the data-integrity layer:
//! every projection's output is checked per partition tile against its
//! ABFT row checksum ([`hetero_tensor::abft`]). The weight side of
//! that checksum, the column sums `s` and `|s|`, is taken once per
//! (weight, tile column range), when the engine's upload
//! ([`crate::upload`]) first builds the range; a verified tile then
//! costs only its `O(m·k)` dot products and output row sums. The KV
//! cache's sealed prefix is re-verified at the start of every forward,
//! and seeded [`SdcTrace`] faults are applied deterministically. In
//! `Recover` mode a mismatched tile is recomputed (charged to the
//! *opposite* backend — cross-backend diversity as the arbiter) and a
//! corrupted KV row triggers rollback to the last sealed batch
//! boundary plus bit-identical replay of the dropped tokens. Detection
//! and recovery both charge simulated time, so the integrity tax is
//! visible in the timing reports.

use hetero_graph::partition::ComputeStep;
use hetero_profiler::RealExecProvider;
use hetero_soc::disturb::{SdcFault, SdcTrace};
use hetero_soc::kernel::KernelLabel;
use hetero_soc::sync::{Dominance, SyncMechanism};
use hetero_soc::{Backend, KernelDesc, Soc};
use hetero_solver::{PartitionPlan, SolverConfig};
use hetero_tensor::shape::MatmulShape;
use hetero_tensor::{abft, Result, Tensor};

use crate::engines::SolverPlanner;
use crate::engines::{gpu_kernel, hetero_soc_config, npu_kernel};
use crate::functional::{DecoderStack, Projection};
use crate::integrity::{IntegrityCounters, IntegrityMode};
use crate::model::{ModelConfig, ModelWeights};
use crate::report::{IntegritySummary, PhaseReport};
use crate::upload::{plan_tiles, ModelUpload, WeightId};

/// Real-math engine executing solver-partitioned kernels: the decoder
/// stack of [`crate::functional::FunctionalModel`] over a partitioned
/// projection arm.
pub struct FunctionalHeteroEngine {
    stack: DecoderStack<Partitioned>,
}

/// The engine's projection arm: each weight projection planned by the
/// solver, its lowering charged on the simulated SoC, its result
/// computed through the plan and, with integrity on, verified per
/// tile; plus the integrity bracket around every forward.
struct Partitioned {
    /// The weight matrices, dequantized once, with the column blocks
    /// and ABFT column sums of the tiles the plans have read.
    upload: ModelUpload,
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
        let weights = ModelWeights::generate(&cfg, seed)?;
        let arm = Partitioned {
            upload: ModelUpload::new(&weights)?,
            soc: Soc::new(soc_cfg),
            planner,
            integrity: IntegrityMode::Off,
            counters: IntegrityCounters::default(),
            pending: Vec::new(),
            proj_count: 0,
            forward_count: 0,
            history: Vec::new(),
            replaying: false,
        };
        Ok(Self {
            stack: DecoderStack::with_projection(cfg, weights, arm),
        })
    }

    /// Enable the integrity layer in the given mode.
    #[must_use]
    pub fn with_integrity(mut self, mode: IntegrityMode) -> Self {
        self.stack.proj.integrity = mode;
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
                self.stack.proj.pending.push(e.fault.clone());
            }
        }
    }

    /// The integrity summary so far (`None` when integrity is off).
    /// Overhead is measured against the engine's full simulated time.
    pub fn integrity_summary(&self) -> Option<IntegritySummary> {
        let arm = &self.stack.proj;
        arm.integrity
            .verifies()
            .then(|| arm.counters.summary(arm.soc.clock()))
    }

    /// Simulated time consumed so far.
    pub fn sim_time(&self) -> hetero_soc::SimTime {
        self.stack.proj.soc.clock()
    }

    /// Prefill over `tokens`, returning final-position logits and the
    /// phase timing report.
    pub fn prefill(&mut self, tokens: &[u32]) -> Result<(Tensor, PhaseReport)> {
        let start = self.sim_time();
        let logits = self.stack.prefill(tokens)?;
        let report = PhaseReport {
            tokens: tokens.len(),
            elapsed: self.sim_time() - start,
        };
        Ok((logits, report))
    }

    /// One decode step.
    pub fn decode_step(&mut self, token: u32) -> Result<Tensor> {
        self.stack.decode_step(token)
    }

    /// Greedy generation (the stack's, as
    /// [`crate::functional::FunctionalModel::generate`] runs it).
    pub fn generate(&mut self, prompt: &[u32], n: usize) -> Result<Vec<u32>> {
        self.stack.generate(prompt, n)
    }
}

impl Projection for Partitioned {
    /// A partitioned, time-charged weight projection.
    fn project(&mut self, x: &Tensor, id: WeightId) -> Result<Tensor> {
        let (m, _) = x.matrix_dims()?;
        let (k, n) = self.upload.get(id).dims();
        let shape = MatmulShape::new(m, k, n);
        let choice = self.planner.choice(id.op(), shape, Dominance::NpuDominant);

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
        let mut out = self
            .upload
            .get_mut(id)
            .matmul_partitioned(x, &choice.plan)?;
        if self.integrity.verifies() && !self.replaying {
            let idx = self.proj_count;
            self.proj_count += 1;
            self.apply_tile_faults(idx, &mut out);
            self.verify_tiles(x, id, &choice.plan, &mut out)?;
        }
        Ok(out)
    }

    /// The integrity bracket: with verification on, apply the KV
    /// faults that are due and verify the cache before the pass, and
    /// record the batch for replay after it.
    fn forward(stack: &mut DecoderStack<Self>, tokens: &[u32]) -> Result<Tensor> {
        let bracketed = stack.proj.integrity.verifies() && !stack.proj.replaying;
        if bracketed {
            stack.apply_kv_faults()?;
            stack.verify_kv()?;
        }
        let h = stack.forward(tokens)?;
        if bracketed {
            stack.proj.history.push(tokens.to_vec());
            stack.proj.forward_count += 1;
        }
        Ok(h)
    }
}

impl Partitioned {
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
    /// recomputing on the opposite backend. The weight side of each
    /// checksum comes from the upload, built when the tile was first
    /// computed.
    fn verify_tiles(
        &mut self,
        x: &Tensor,
        id: WeightId,
        plan: &PartitionPlan,
        out: &mut Tensor,
    ) -> Result<()> {
        let (m, k) = x.matrix_dims()?;
        let (_, n) = self.upload.get(id).dims();
        let tiles = plan_tiles(plan, MatmulShape::new(m, k, n));
        let mut bad: Vec<ComputeStep> = Vec::new();
        for tile in tiles {
            self.counters.tiles_verified += 1;
            let xt = x.slice_rows(tile.rows.start, tile.rows.end)?;
            let checksum = self.upload.get(id).tile_checksum(&xt, &tile.cols)?;
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
        // backend that did NOT produce it, then rebuild each region from
        // a pristine re-execution of its tile (the inputs are intact —
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
        for tile in &bad {
            let pristine = self.upload.get(id).tile_product(x, tile)?;
            let rows = pristine.data().chunks_exact(tile.cols.len());
            for (r, src) in tile.rows.clone().zip(rows) {
                out.data_mut()[r * n + tile.cols.start..r * n + tile.cols.end].copy_from_slice(src);
            }
        }
        self.counters.tile_recomputes += bad.len();
        self.counters.corrected += bad.len();
        self.counters
            .recompute_latencies
            .push(self.soc.clock() - t0);
        Ok(())
    }
}

impl DecoderStack<Partitioned> {
    /// Apply pending sticky KV corruptions that are due.
    fn apply_kv_faults(&mut self) -> Result<()> {
        if self.kv.is_empty() {
            return Ok(());
        }
        let (layers, kv_dim, len) = (self.cfg.layers, self.cfg.kv_dim(), self.kv.len());
        let arm = &mut self.proj;
        let due = arm.forward_count;
        let mut kept = Vec::with_capacity(arm.pending.len());
        for fault in std::mem::take(&mut arm.pending) {
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
                    arm.counters.injected += 1;
                }
                other => kept.push(other),
            }
        }
        arm.pending = kept;
        Ok(())
    }

    /// Read-time KV verification: re-hash the sealed prefix, charge the
    /// detection tax, and (in `Recover` mode) roll back to the last
    /// clean batch boundary and replay the dropped tokens.
    fn verify_kv(&mut self) -> Result<()> {
        let sealed = self.kv.sealed_rows();
        let bytes = (sealed * 2 * self.cfg.kv_dim() * 4) as u64;
        let arm = &mut self.proj;
        arm.counters.kv_rows_verified += sealed;
        let rehash = KernelDesc::mem_bound(KernelLabel::KvAppend, bytes, 8, bytes / 4);
        let mut tax = arm.soc.run_serial(Backend::Cpu, &[rehash]);
        let rdv = arm.soc.config().sync.rendezvous(Dominance::NpuDominant);
        arm.soc.advance(rdv);
        tax += rdv;
        arm.counters.verify_time += tax;

        let Some((_, row)) = self.kv.verify() else {
            return Ok(());
        };
        arm.counters.kv_mismatches += 1;
        arm.counters.detected += 1;
        if !arm.integrity.recovers() {
            arm.counters.uncorrectable += 1;
            return Ok(());
        }
        // Roll back to the last batch boundary at or before the first
        // corrupted row, then replay the recorded batches: every
        // replayed forward recomputes its rows on the identical prefix,
        // so the restored cache is bit-identical.
        let t0 = arm.soc.clock();
        let mut boundary = 0;
        let mut first_batch = 0;
        for (i, batch) in arm.history.iter().enumerate() {
            if boundary + batch.len() > row {
                first_batch = i;
                break;
            }
            boundary += batch.len();
        }
        self.kv.rollback(boundary)?;
        arm.counters.kv_rollbacks += 1;
        arm.replaying = true;
        for i in first_batch..self.proj.history.len() {
            let batch = self.proj.history[i].clone();
            self.forward(&batch)?;
            self.proj.counters.replayed_tokens += batch.len();
        }
        let arm = &mut self.proj;
        arm.replaying = false;
        arm.counters.corrected += 1;
        arm.counters.recompute_latencies.push(arm.soc.clock() - t0);
        Ok(())
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
    fn the_upload_is_built_once_however_many_tokens() {
        // Each (weight, column range) block is dequantized and summed
        // once per engine: decode steps after the first read cached
        // blocks, so twice the tokens build no more of them.
        let blocks = |tokens| {
            let mut e = FunctionalHeteroEngine::new(ModelConfig::tiny(), 77)
                .unwrap()
                .with_integrity(IntegrityMode::Verify);
            e.generate(&PROMPT, tokens).unwrap();
            e.stack.proj.upload.blocks_built()
        };
        let short = blocks(12);
        // At least one block for each layer matrix and the LM head.
        assert!(short > 4 * ModelConfig::tiny().layers, "{short}");
        assert_eq!(blocks(24), short);
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
