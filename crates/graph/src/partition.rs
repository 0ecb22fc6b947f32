//! Partition plan types (§4.1) and their structural invariants.
//!
//! [`PartitionPlan`] describes how one Matmul `[m,k] x [k,n]` is split
//! across the GPU and NPU. The type lives here — beside the
//! sequence-length planners that generate its NPU chunks — so that
//! everything *above* it (the solver that searches plans, the engines
//! that execute them, and the `hetero-analyze` checker that lints them)
//! shares one definition and one set of invariant predicates.
//!
//! The `*_violations` methods are the single source of truth for the
//! plan-shape invariants. The solver re-checks its own output through
//! them in debug builds (behind its `validate` feature) and the
//! analyzer wraps them into named diagnostics.

use core::ops::Range;

use hetero_soc::{Backend, SimTime};
use hetero_tensor::shape::MatmulShape;
use serde::{Deserialize, Serialize};

/// How one Matmul `[m,k] x [k,n]` is split across backends (§4.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionPlan {
    /// Whole problem on the GPU.
    GpuOnly,
    /// Whole problem on the NPU (requires a compiled graph for `m`,
    /// padding `m` up to `padded_m`).
    NpuOnly {
        /// The graph's (standard) sequence size; ≥ `m`.
        padded_m: usize,
    },
    /// Whole problem on the NPU as sequential standard-size chunks
    /// (pipe / multi-sequence-length cutting without GPU help). The
    /// final chunk may include padding.
    NpuPipe {
        /// Standard chunk sizes summing to ≥ `m`.
        chunks: Vec<usize>,
        /// Rows of padding inside the last chunk.
        padded_rows: usize,
    },
    /// Row-cutting: the weight's output dimension `n` is split; the GPU
    /// takes `gpu_cols` columns, the NPU the rest, in parallel.
    RowCut {
        /// Output features assigned to the GPU.
        gpu_cols: usize,
        /// The NPU side's graph sequence size; ≥ `m`.
        padded_m: usize,
    },
    /// Sequence-length cutting: the activation's `m` rows are split;
    /// the NPU runs standard-size chunks sequentially while the GPU
    /// takes the misaligned margin, in parallel.
    SeqCut {
        /// Standard chunk sizes executed on the NPU.
        npu_chunks: Vec<usize>,
        /// Rows assigned to the GPU (`m − Σchunks`).
        gpu_rows: usize,
    },
    /// Hybrid-cutting: padding on the sequence dimension *and* a row
    /// cut — the NPU runs `[padded_m, k, n − gpu_cols]`, the GPU
    /// `[m, k, gpu_cols]`, in parallel (§4.1.1).
    HybridCut {
        /// The NPU graph's sequence size; ≥ `m`.
        padded_m: usize,
        /// Output features assigned to the GPU.
        gpu_cols: usize,
    },
}

impl PartitionPlan {
    /// Whether this plan uses both backends in parallel.
    pub fn is_parallel(&self) -> bool {
        matches!(
            self,
            Self::RowCut { .. } | Self::SeqCut { gpu_rows: 1.., .. } | Self::HybridCut { .. }
        )
    }

    /// Lower this plan onto the Matmul `shape`: the steps it runs, in
    /// order (see [`Lowering::steps`]). Every consumer that executes,
    /// prices, schedules or lays out a plan (the engines, the static
    /// mirror, the solver's cost intervals and region tables, the sync
    /// schedule and the functional math) reads the plan through this
    /// one lowering.
    ///
    /// A serial plan runs one side only. A parallel plan (exactly
    /// [`PartitionPlan::is_parallel`]) always has a GPU side, even a
    /// degenerate one such as `RowCut { gpu_cols: 0 }`. Lowering never
    /// panics, even for a plan that violates conservation against
    /// `shape`.
    pub fn lower(&self, shape: MatmulShape) -> Lowering<'_> {
        let MatmulShape { m, k, n } = shape;
        // The NPU side's rows, its columns (the ones the GPU leaves),
        // and whether it is one padded graph.
        let (gpu, npu_rows, npu_cols, npu_graph) = match self {
            Self::GpuOnly => (Some(shape), &[][..], n, false),
            Self::NpuOnly { padded_m } => (None, std::slice::from_ref(padded_m), n, true),
            Self::NpuPipe { chunks, .. } => (None, &chunks[..], n, false),
            Self::RowCut { gpu_cols, padded_m } | Self::HybridCut { padded_m, gpu_cols } => (
                Some(MatmulShape::new(m, k, *gpu_cols)),
                std::slice::from_ref(padded_m),
                n.saturating_sub(*gpu_cols),
                true,
            ),
            Self::SeqCut {
                npu_chunks,
                gpu_rows,
            } => (
                (*gpu_rows > 0).then_some(MatmulShape {
                    m: *gpu_rows,
                    ..shape
                }),
                &npu_chunks[..],
                n,
                false,
            ),
        };
        Lowering {
            shape,
            gpu,
            npu_rows,
            npu_cols,
            npu_graph,
            parallel: self.is_parallel(),
        }
    }

    /// Whether the NPU participates at all.
    pub fn uses_npu(&self) -> bool {
        !matches!(self, Self::GpuOnly)
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Self::GpuOnly => "gpu-only",
            Self::NpuOnly { .. } => "npu-only",
            Self::NpuPipe { .. } => "npu-pipe",
            Self::RowCut { .. } => "row-cut",
            Self::SeqCut { .. } => "seq-cut",
            Self::HybridCut { .. } => "hybrid-cut",
        }
    }

    /// NPU graph sequence sizes this plan dispatches (each needs a
    /// compiled graph).
    pub fn npu_sizes(&self) -> Vec<usize> {
        match self {
            Self::GpuOnly => vec![],
            Self::NpuOnly { padded_m }
            | Self::RowCut { padded_m, .. }
            | Self::HybridCut { padded_m, .. } => vec![*padded_m],
            Self::NpuPipe { chunks, .. } => chunks.clone(),
            Self::SeqCut { npu_chunks, .. } => npu_chunks.clone(),
        }
    }

    /// Rewrite degenerate parallel forms into their canonical serial
    /// equivalents:
    ///
    /// - `SeqCut { gpu_rows: 0 }` assigns nothing to the GPU — it *is*
    ///   an [`PartitionPlan::NpuPipe`] (exact chunks, no padding).
    /// - `RowCut`/`HybridCut` with `gpu_cols: 0` assign every output
    ///   column to the NPU — they *are* [`PartitionPlan::NpuOnly`].
    ///
    /// Canonical forms keep `is_parallel`, sync-cost accounting, and
    /// downstream `match`es honest: a degenerate `RowCut` would
    /// otherwise be charged a rendezvous it never performs.
    pub fn normalize(self) -> Self {
        match self {
            Self::SeqCut {
                npu_chunks,
                gpu_rows: 0,
            } => Self::NpuPipe {
                chunks: npu_chunks,
                padded_rows: 0,
            },
            Self::RowCut {
                gpu_cols: 0,
                padded_m,
            }
            | Self::HybridCut {
                padded_m,
                gpu_cols: 0,
            } => Self::NpuOnly { padded_m },
            other => other,
        }
    }

    /// Whether [`PartitionPlan::normalize`] would rewrite this plan.
    pub fn is_normalized(&self) -> bool {
        !matches!(
            self,
            Self::SeqCut { gpu_rows: 0, .. }
                | Self::RowCut { gpu_cols: 0, .. }
                | Self::HybridCut { gpu_cols: 0, .. }
        )
    }

    /// Shape-conservation violations of this plan against a problem
    /// with `m` activation rows and `n` output features.
    ///
    /// Checks that the split neither drops nor duplicates work:
    /// `Σnpu_chunks + gpu_rows = m` for sequence cuts, `gpu_cols < n`
    /// for row cuts, `padded_m ≥ m` wherever the NPU runs a padded
    /// graph, and `padded_rows` consistent with the chunk sum.
    pub fn conservation_violations(&self, m: usize, n: usize) -> Vec<String> {
        let mut out = Vec::new();
        match self {
            Self::GpuOnly => {}
            Self::NpuOnly { padded_m } => {
                if *padded_m < m {
                    out.push(format!("padded_m {padded_m} < m {m}: rows dropped"));
                }
            }
            Self::NpuPipe {
                chunks,
                padded_rows,
            } => {
                let sum: usize = chunks.iter().sum();
                if m > 0 && chunks.is_empty() {
                    out.push(format!("no chunks cover m {m}"));
                }
                if chunks.contains(&0) {
                    out.push("zero-size chunk".into());
                }
                if sum < m {
                    out.push(format!("chunks cover {sum} < m {m}: rows dropped"));
                }
                if sum >= m && sum - m != *padded_rows {
                    out.push(format!(
                        "padded_rows {padded_rows} inconsistent: chunks cover {sum} for m {m}"
                    ));
                }
            }
            Self::RowCut { gpu_cols, padded_m } | Self::HybridCut { padded_m, gpu_cols } => {
                if *gpu_cols >= n {
                    out.push(format!("gpu_cols {gpu_cols} ≥ n {n}: NPU side empty"));
                }
                if *padded_m < m {
                    out.push(format!("padded_m {padded_m} < m {m}: rows dropped"));
                }
            }
            Self::SeqCut {
                npu_chunks,
                gpu_rows,
            } => {
                let sum: usize = npu_chunks.iter().sum();
                if npu_chunks.contains(&0) {
                    out.push("zero-size chunk".into());
                }
                if sum + gpu_rows != m {
                    out.push(format!(
                        "chunks {sum} + gpu_rows {gpu_rows} ≠ m {m}: rows {}",
                        if sum + gpu_rows < m {
                            "dropped"
                        } else {
                            "duplicated"
                        }
                    ));
                }
            }
        }
        out
    }

    /// Tile-alignment violations against the NPU systolic-array edge
    /// `tile` (§3.2: 32×32; the solver's sequence alignment).
    ///
    /// Every multi-tile sequence size the NPU executes — padded graph
    /// sizes and pipe/seq chunks — must be a whole multiple of `tile`.
    /// Sizes at or below one tile (decode's `m = 1` graphs) are exempt:
    /// the array pads a single partial pass internally.
    pub fn alignment_violations(&self, tile: usize) -> Vec<String> {
        self.npu_sizes()
            .into_iter()
            .filter(|&s| s > tile && s % tile != 0)
            .map(|s| format!("NPU sequence size {s} not a multiple of tile {tile}"))
            .collect()
    }

    /// Graph-membership violations against the sequence lengths that
    /// actually have compiled graphs.
    ///
    /// A static-graph NPU can only run pre-generated graphs (§4.1.1);
    /// referencing an uncompiled length means a multi-hundred-ms
    /// online-prepare stall at execution time.
    pub fn membership_violations(&self, compiled: &[usize]) -> Vec<String> {
        self.npu_sizes()
            .into_iter()
            .filter(|s| !compiled.contains(s))
            .map(|s| format!("no compiled graph for NPU sequence size {s}"))
            .collect()
    }
}

/// A [`PartitionPlan`] lowered onto one Matmul by
/// [`PartitionPlan::lower`]: the one list of the steps the plan runs.
/// It borrows the plan's chunk list, so lowering never allocates.
///
/// The steps, in order ([`Lowering::steps`]):
///
/// 1. the GPU sub-problem, if the GPU runs;
/// 2. the NPU sub-problems, in submission order, padding included;
/// 3. one publishing step: [`Step::Rendezvous`] for a parallel plan,
///    [`Step::Switch`] for a serial plan with an NPU side, none for
///    `GpuOnly`.
///
/// Each compute step carries the tile of the `[m, n]` result it
/// produces. The NPU sub-problems fill the leading columns in
/// consecutive row bands from row 0 (padding rows fall outside `m`);
/// the GPU sub-problem fills the trailing rows and columns (a GPU side
/// larger than the result overruns it). For a plan with no
/// shape-conservation violation the tiles cover `[m, n]` exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lowering<'a> {
    shape: MatmulShape,
    /// The GPU sub-problem, if the GPU runs.
    pub gpu: Option<MatmulShape>,
    npu_rows: &'a [usize],
    npu_cols: usize,
    /// Whether the NPU side is one padded graph (`NpuOnly`, `RowCut`,
    /// `HybridCut`) rather than a list of chunks. Only display labels
    /// read it.
    pub npu_graph: bool,
    /// Whether the two sides run as one parallel section ending in a
    /// rendezvous; otherwise each sub-problem runs serially.
    pub parallel: bool,
}

/// One step of a lowered plan (§4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// A sub-problem on one backend.
    Compute(ComputeStep),
    /// Serial handoff of the NPU side's result to the GPU consumer.
    Switch,
    /// Parallel-section join: both sides' results become visible.
    Rendezvous,
}

/// A sub-problem of a lowered plan and the tile of the result it
/// produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeStep {
    /// The backend that runs it ([`Backend::Gpu`] or [`Backend::Npu`]).
    pub backend: Backend,
    /// The sub-problem, padding included.
    pub shape: MatmulShape,
    /// Result rows it produces.
    pub rows: Range<usize>,
    /// Result columns it produces.
    pub cols: Range<usize>,
}

impl<'a> Lowering<'a> {
    /// The NPU sub-problems in submission order, padding included.
    pub fn npu(&self) -> impl ExactSizeIterator<Item = MatmulShape> + Clone + 'a {
        let (k, n) = (self.shape.k, self.npu_cols);
        self.npu_rows
            .iter()
            .map(move |&m| MatmulShape::new(m, k, n))
    }

    /// The compute steps: the GPU sub-problem, then the NPU ones.
    pub fn compute(&self) -> impl Iterator<Item = ComputeStep> + 'a {
        let MatmulShape { m, n, .. } = self.shape;
        let trailing = |len: usize, of: usize| {
            let start = of.saturating_sub(len);
            start..start + len
        };
        let gpu = self.gpu.map(|g| ComputeStep {
            backend: Backend::Gpu,
            shape: g,
            rows: trailing(g.m, m),
            cols: trailing(g.n, n),
        });
        let mut row = 0;
        let npu = self.npu().map(move |s| {
            let start = row;
            row = (row + s.m).min(m);
            ComputeStep {
                backend: Backend::Npu,
                shape: s,
                rows: start..row,
                cols: 0..s.n,
            }
        });
        gpu.into_iter().chain(npu)
    }

    /// The step that publishes the result, if any.
    pub fn publish(&self) -> Option<Step> {
        if self.parallel {
            Some(Step::Rendezvous)
        } else if self.gpu.is_none() {
            Some(Step::Switch)
        } else {
            None
        }
    }

    /// Every step in order: the compute steps, then the publishing
    /// step.
    pub fn steps(&self) -> impl Iterator<Item = Step> + 'a {
        self.compute().map(Step::Compute).chain(self.publish())
    }
}

/// A solved plan with its estimated latency.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanChoice {
    /// The chosen partition.
    pub plan: PartitionPlan,
    /// The solver's latency estimate under the objective.
    pub est_time: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_classification() {
        assert!(!PartitionPlan::GpuOnly.is_parallel());
        assert!(!PartitionPlan::NpuOnly { padded_m: 256 }.is_parallel());
        assert!(PartitionPlan::RowCut {
            gpu_cols: 512,
            padded_m: 256
        }
        .is_parallel());
        assert!(PartitionPlan::HybridCut {
            padded_m: 512,
            gpu_cols: 256
        }
        .is_parallel());
        assert!(PartitionPlan::SeqCut {
            npu_chunks: vec![256],
            gpu_rows: 44
        }
        .is_parallel());
        assert!(!PartitionPlan::SeqCut {
            npu_chunks: vec![256, 32],
            gpu_rows: 0
        }
        .is_parallel());
    }

    #[test]
    fn npu_usage() {
        assert!(!PartitionPlan::GpuOnly.uses_npu());
        assert!(PartitionPlan::NpuPipe {
            chunks: vec![32],
            padded_rows: 8
        }
        .uses_npu());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PartitionPlan::GpuOnly.label(), "gpu-only");
        assert_eq!(
            PartitionPlan::RowCut {
                gpu_cols: 1,
                padded_m: 1
            }
            .label(),
            "row-cut"
        );
    }

    #[test]
    fn degenerate_seq_cut_normalizes_to_pipe() {
        let plan = PartitionPlan::SeqCut {
            npu_chunks: vec![256, 32],
            gpu_rows: 0,
        };
        assert!(!plan.is_normalized());
        assert_eq!(
            plan.normalize(),
            PartitionPlan::NpuPipe {
                chunks: vec![256, 32],
                padded_rows: 0
            }
        );
    }

    #[test]
    fn degenerate_row_and_hybrid_cut_normalize_to_npu_only() {
        let row = PartitionPlan::RowCut {
            gpu_cols: 0,
            padded_m: 256,
        };
        assert!(!row.is_normalized());
        assert_eq!(row.normalize(), PartitionPlan::NpuOnly { padded_m: 256 });

        let hybrid = PartitionPlan::HybridCut {
            padded_m: 512,
            gpu_cols: 0,
        };
        assert!(!hybrid.is_normalized());
        assert_eq!(hybrid.normalize(), PartitionPlan::NpuOnly { padded_m: 512 });
    }

    #[test]
    fn normalize_keeps_canonical_plans() {
        for plan in [
            PartitionPlan::GpuOnly,
            PartitionPlan::NpuOnly { padded_m: 256 },
            PartitionPlan::RowCut {
                gpu_cols: 256,
                padded_m: 256,
            },
            PartitionPlan::SeqCut {
                npu_chunks: vec![256],
                gpu_rows: 44,
            },
        ] {
            assert!(plan.is_normalized(), "{plan:?}");
            assert_eq!(plan.clone().normalize(), plan);
        }
    }

    #[test]
    fn conservation_accepts_exact_cover() {
        let plan = PartitionPlan::SeqCut {
            npu_chunks: vec![256],
            gpu_rows: 44,
        };
        assert!(plan.conservation_violations(300, 4096).is_empty());
    }

    #[test]
    fn conservation_rejects_dropped_rows() {
        let plan = PartitionPlan::SeqCut {
            npu_chunks: vec![256],
            gpu_rows: 20,
        };
        let v = plan.conservation_violations(300, 4096);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("dropped"), "{v:?}");
    }

    #[test]
    fn conservation_rejects_oversized_gpu_cols() {
        let plan = PartitionPlan::RowCut {
            gpu_cols: 4096,
            padded_m: 256,
        };
        assert!(!plan.conservation_violations(256, 4096).is_empty());
    }

    #[test]
    fn alignment_checks_npu_sizes() {
        let good = PartitionPlan::NpuPipe {
            chunks: vec![512, 32],
            padded_rows: 0,
        };
        assert!(good.alignment_violations(32).is_empty());
        let bad = PartitionPlan::NpuOnly { padded_m: 300 };
        assert_eq!(bad.alignment_violations(32).len(), 1);
        // Sub-tile decode graphs (m = 1) are exempt.
        let decode = PartitionPlan::NpuOnly { padded_m: 1 };
        assert!(decode.alignment_violations(32).is_empty());
    }

    #[test]
    fn membership_checks_compiled_sizes() {
        let std = [32, 64, 128, 256, 512, 1024];
        let good = PartitionPlan::SeqCut {
            npu_chunks: vec![512, 32],
            gpu_rows: 56,
        };
        assert!(good.membership_violations(&std).is_empty());
        let bad = PartitionPlan::NpuOnly { padded_m: 96 };
        assert_eq!(bad.membership_violations(&std).len(), 1);
    }

    #[test]
    fn npu_sizes_per_variant() {
        assert!(PartitionPlan::GpuOnly.npu_sizes().is_empty());
        assert_eq!(
            PartitionPlan::HybridCut {
                padded_m: 512,
                gpu_cols: 256
            }
            .npu_sizes(),
            vec![512]
        );
        assert_eq!(
            PartitionPlan::NpuPipe {
                chunks: vec![1024, 64],
                padded_rows: 12
            }
            .npu_sizes(),
            vec![1024, 64]
        );
    }
}
