//! Graph-generation cost model (Fig. 9).
//!
//! The paper measures that NPU graph generation cost "is highly
//! dependent on tensor size, as larger tensors expand the search space
//! for optimization" (§4.1.1), quoting two end-to-end anchors for a
//! typical 4-graph Llama-8B set: 408.4 ms at sequence length 135 and
//! ≈2050 ms at length 1000. A sub-linear power law in the problem
//! volume `m·k·n` fits both anchors:
//!
//! `t(op) = base + coef · (m·k·n)^0.8`

use hetero_soc::SimTime;
use hetero_tensor::shape::MatmulShape;
use serde::{Deserialize, Serialize};

use crate::template::GraphSet;

/// Graph compile-time model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompileModel {
    /// Fixed per-operator cost, ms (graph construction, validation).
    pub base_ms: f64,
    /// Coefficient of the size term, ms per `(m·k·n)^exponent`.
    pub coef: f64,
    /// Exponent of the size term.
    pub exponent: f64,
}

impl Default for CompileModel {
    fn default() -> Self {
        // coef calibrated so the Llama-8B 4-graph set at m=135 sums to
        // the paper's 408.4 ms (see `calibration_anchor` test).
        Self {
            base_ms: 15.0,
            coef: 1.161e-6,
            exponent: 0.8,
        }
    }
}

impl CompileModel {
    /// Compile time of one Matmul operator graph.
    pub fn op_compile_time(&self, shape: MatmulShape) -> SimTime {
        #[cfg(debug_assertions)]
        self.validate();
        let volume = shape.m as f64 * shape.k as f64 * shape.n as f64;
        let ms = self.base_ms + self.coef * volume.powf(self.exponent);
        SimTime::from_secs_f64(ms * 1e-3)
    }

    /// Debug-build self-check: a usable compile model charges a
    /// non-negative base cost and grows sub-linearly in problem volume
    /// (exponent in `(0, 1]`), so cached totals stay finite and
    /// monotone. Compiled out of release binaries.
    #[cfg(debug_assertions)]
    fn validate(&self) {
        debug_assert!(
            self.base_ms >= 0.0 && self.coef >= 0.0,
            "compile model charges negative time: {self:?}"
        );
        debug_assert!(
            self.exponent > 0.0 && self.exponent <= 1.0,
            "compile model exponent outside (0, 1]: {self:?}"
        );
    }

    /// Compile time of a whole graph set at sequence length `m`.
    pub fn set_compile_time(&self, set: &GraphSet, m: usize) -> SimTime {
        set.shapes_at(m)
            .into_iter()
            .map(|s| self.op_compile_time(s))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_anchor_matches_paper() {
        // §5.2.2: "Under sequence length 135, preparation time is
        // 408.4 ms" for the typical 4-graph set.
        let model = CompileModel::default();
        let t = model.set_compile_time(&GraphSet::llama8b(), 135);
        let ms = t.as_millis_f64();
        assert!((ms - 408.4).abs() / 408.4 < 0.10, "got {ms} ms");
    }

    #[test]
    fn seq_1000_anchor_within_tolerance() {
        // "This overhead increases to 2050 ms as the sequence length
        // extends to 1000." Power-law fit lands within 20%.
        let model = CompileModel::default();
        let ms = model
            .set_compile_time(&GraphSet::llama8b(), 1000)
            .as_millis_f64();
        assert!((ms - 2050.0).abs() / 2050.0 < 0.20, "got {ms} ms");
    }

    #[test]
    fn cost_grows_with_every_dimension() {
        let model = CompileModel::default();
        let base = model.op_compile_time(MatmulShape::new(128, 4096, 4096));
        for s in [
            MatmulShape::new(256, 4096, 4096),
            MatmulShape::new(128, 8192, 4096),
            MatmulShape::new(128, 4096, 8192),
        ] {
            assert!(model.op_compile_time(s) > base);
        }
    }

    #[test]
    fn sublinear_in_size() {
        // Doubling volume should less-than-double the size-dependent
        // part (exponent < 1).
        let model = CompileModel {
            base_ms: 0.0,
            ..Default::default()
        };
        let t1 = model
            .op_compile_time(MatmulShape::new(128, 4096, 4096))
            .as_secs_f64();
        let t2 = model
            .op_compile_time(MatmulShape::new(256, 4096, 4096))
            .as_secs_f64();
        assert!(t2 / t1 < 2.0);
        assert!(t2 / t1 > 1.5);
    }

    #[test]
    fn nonneg_and_hundreds_of_ms_scale() {
        // Fig. 9: single-op generation is tens to hundreds of ms.
        let model = CompileModel::default();
        let small = model.op_compile_time(MatmulShape::new(32, 1024, 1024));
        let large = model.op_compile_time(MatmulShape::new(1024, 4096, 14336));
        assert!(small.as_millis_f64() >= 15.0);
        assert!((100.0..2000.0).contains(&large.as_millis_f64()));
    }
}
