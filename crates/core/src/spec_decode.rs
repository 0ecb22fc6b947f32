//! Speculative decoding support (§4.1.2).
//!
//! "During the decoding phase, the sequence length of the input token
//! is fixed — typically one for standard decoding and *n* for
//! speculative decoding. We can pre-generate the NPU graph using the
//! designated decoding tensor shape and employ a row-cutting strategy
//! for tensor partition."
//!
//! A verification step runs the decode trace with `m = draft_len + 1`
//! rows: weight traffic is unchanged (the whole point — weights are
//! read once per step regardless of how many tokens are verified), so
//! committed-token throughput rises with the acceptance rate.

use hetero_profiler::RealExecProvider;
use hetero_soc::sync::{Dominance, SyncMechanism};
use hetero_solver::SolverConfig;

use crate::engines::walk::{run_phase, Des, Planner};
use crate::engines::{hetero_soc_config, BaselineEngine, HeteroTensorEngine, SolverPlanner};
use crate::error::EngineError;
use crate::model::ModelConfig;
use crate::trace::decode_trace;

/// Outcome of a speculative decoding run.
#[derive(Debug, Clone, Copy)]
pub struct SpecDecodeReport {
    /// Verification steps executed.
    pub steps: usize,
    /// Tokens committed across all steps.
    pub committed_tokens: usize,
    /// Total simulated time.
    pub elapsed: hetero_soc::SimTime,
}

impl SpecDecodeReport {
    /// Committed tokens per second.
    pub fn tokens_per_sec(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s <= 0.0 {
            return 0.0;
        }
        self.committed_tokens as f64 / s
    }
}

/// Run speculative decoding on the tensor-level heterogeneous engine.
///
/// `step_commits[i]` is the number of tokens committed by step `i`
/// (from a draft/acceptance simulation such as
/// `hetero_workloads::spec::simulate_steps`); each step verifies
/// `verify_rows` rows (`draft_len + 1`).
pub fn run_speculative_hetero(
    engine: &mut HeteroTensorEngine,
    prompt_len: usize,
    verify_rows: usize,
    step_commits: &[usize],
) -> Result<SpecDecodeReport, EngineError> {
    assert!(verify_rows >= 1, "verify at least one row");
    // Plans for the speculative decode shape: graphs exist for the
    // designated verification length.
    let mut planner = SolverPlanner::new(
        RealExecProvider::new(hetero_soc_config(SyncMechanism::Fast)),
        SolverConfig::default(),
        SolverConfig::decode(verify_rows),
    );
    let (des, model) = (&mut engine.des, &engine.cfg);
    run_steps(
        des,
        &mut planner,
        model,
        prompt_len,
        verify_rows,
        step_commits,
    )
}

/// Speculative decoding on a baseline engine (a GPU-only one, for
/// comparison), along the engine's own route.
pub fn run_speculative_gpu(
    engine: &mut BaselineEngine,
    prompt_len: usize,
    verify_rows: usize,
    step_commits: &[usize],
) -> Result<SpecDecodeReport, EngineError> {
    let (des, route, model) = (&mut engine.des, &mut engine.planner, &engine.cfg);
    run_steps(des, route, model, prompt_len, verify_rows, step_commits)
}

/// Walk one `verify_rows`-row decode step per entry of `step_commits`.
fn run_steps(
    des: &mut Des,
    planner: &mut impl Planner,
    model: &ModelConfig,
    prompt_len: usize,
    verify_rows: usize,
    step_commits: &[usize],
) -> Result<SpecDecodeReport, EngineError> {
    let start = des.soc.clock();
    let mut ctx = prompt_len;
    let mut committed = 0usize;
    for &commit in step_commits {
        let trace = decode_trace(model, ctx + verify_rows, verify_rows);
        run_phase(des, planner, &trace, Dominance::GpuDominant)?;
        ctx += commit;
        committed += commit;
    }
    Ok(SpecDecodeReport {
        steps: step_commits.len(),
        committed_tokens: committed,
        elapsed: des.soc.clock() - start,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{Engine, GpuTier};
    use hetero_workloads_testshim::simulate_steps_shim;

    // `hetero-workloads` depends on this crate, so tests generate the
    // commit stream locally with the same i.i.d.-acceptance model.
    mod hetero_workloads_testshim {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        pub fn simulate_steps_shim(
            draft_len: usize,
            acceptance: f64,
            target: usize,
            seed: u64,
        ) -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::new();
            let mut total = 0;
            while total < target {
                let mut committed = 1;
                for _ in 0..draft_len {
                    if rng.gen_bool(acceptance) {
                        committed += 1;
                    } else {
                        break;
                    }
                }
                total += committed;
                out.push(committed);
            }
            out
        }
    }

    #[test]
    fn speculation_beats_standard_decoding() {
        let model = ModelConfig::llama_8b();
        let commits = simulate_steps_shim(4, 0.8, 48, 7);

        let mut spec_engine = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let spec = run_speculative_hetero(&mut spec_engine, 256, 5, &commits).unwrap();

        let mut std_engine = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let std_report = std_engine.decode(256, 48);

        let spec_rate = spec.tokens_per_sec();
        let std_rate = std_report.tokens_per_sec();
        assert!(
            spec_rate > std_rate * 1.5,
            "speculative {spec_rate} should beat standard {std_rate}"
        );
    }

    #[test]
    fn speculation_gain_bounded_by_mean_commit() {
        // Weights dominate decode traffic, so the speedup cannot exceed
        // the mean committed tokens per step.
        let model = ModelConfig::llama_3b();
        let commits = simulate_steps_shim(4, 0.7, 64, 3);
        let mean_commit = commits.iter().sum::<usize>() as f64 / commits.len() as f64;

        let mut spec_engine = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let spec = run_speculative_hetero(&mut spec_engine, 128, 5, &commits).unwrap();
        let mut std_engine = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let std_report = std_engine.decode(128, spec.committed_tokens);

        let gain = spec.tokens_per_sec() / std_report.tokens_per_sec();
        assert!(
            gain <= mean_commit * 1.05,
            "gain {gain} vs mean commit {mean_commit}"
        );
        assert!(gain > 1.0);
    }

    #[test]
    fn gpu_baseline_also_benefits_but_stays_behind() {
        let model = ModelConfig::llama_3b();
        let commits = simulate_steps_shim(4, 0.8, 32, 11);

        let mut gpu = BaselineEngine::gpu(&model, GpuTier::PplOpenCl);
        let gpu_spec = run_speculative_gpu(&mut gpu, 128, 5, &commits).unwrap();

        let mut hetero = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let hetero_spec = run_speculative_hetero(&mut hetero, 128, 5, &commits).unwrap();

        assert!(
            hetero_spec.tokens_per_sec() > gpu_spec.tokens_per_sec() * 1.05,
            "hetero {} vs gpu {}",
            hetero_spec.tokens_per_sec(),
            gpu_spec.tokens_per_sec()
        );
    }

    #[test]
    fn empty_steps_are_a_noop() {
        let model = ModelConfig::llama_3b();
        let mut e = HeteroTensorEngine::new(&model, SyncMechanism::Fast);
        let r = run_speculative_hetero(&mut e, 128, 4, &[]).unwrap();
        assert_eq!(r.committed_tokens, 0);
        assert_eq!(r.elapsed, hetero_soc::SimTime::ZERO);
    }
}
