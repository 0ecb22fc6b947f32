//! Functional weight upload.
//!
//! A real runtime moves each weight to the device once, in the layout
//! its kernels read, and folds per-weight metadata such as the ABFT
//! column sums into that upload. [`WeightUpload`] is the functional
//! path's counterpart: it dequantizes a [`W4Matrix`] once, and the
//! first time a plan's tile reads a column range it keeps that range's
//! dequantized block and its column sums ([`abft::column_sums`]).
//! Plans depend on `m`, but a shape's tiles are fixed, so after the
//! first forward at each `m` every projection reads cached blocks and
//! verification is left with the `O(m·k)` dot products per tile.
//!
//! The cache changes no bit: a block is a column slice of the one
//! dequantized matrix (equal to [`W4Matrix::dequantize_cols`]), and its
//! sums are taken in [`abft::input_checksum`]'s order.

use core::ops::Range;

use hetero_graph::partition::ComputeStep;
use hetero_solver::PartitionPlan;
use hetero_tensor::abft::{self, ColumnSums, TileChecksum};
use hetero_tensor::ops;
use hetero_tensor::quant::W4Matrix;
use hetero_tensor::shape::MatmulShape;
use hetero_tensor::{Result, Tensor, TensorError};

use crate::model::ModelWeights;

/// One weight matrix, uploaded: dequantized once, with the column
/// blocks and ABFT column sums of the tiles that have read it.
#[derive(Debug, Clone)]
pub struct WeightUpload {
    /// The whole weight `[k, n]`, dequantized.
    w: Tensor,
    /// The column ranges built so far, in first-use order.
    blocks: Vec<ColumnBlock>,
}

/// One tile column range of an uploaded weight.
#[derive(Debug, Clone)]
struct ColumnBlock {
    cols: Range<usize>,
    /// The range's dequantized columns; `None` when the range is the
    /// whole width, which is [`WeightUpload::w`] itself.
    w: Option<Tensor>,
    sums: ColumnSums,
}

impl WeightUpload {
    /// Dequantize `w` once.
    pub fn new(w: &W4Matrix) -> Result<Self> {
        Ok(Self {
            w: w.dequantize()?,
            blocks: Vec::new(),
        })
    }

    /// The weight's dimensions `[k, n]`.
    pub(crate) fn dims(&self) -> (usize, usize) {
        let d = self.w.shape().dims();
        (d[0], d[1])
    }

    /// The whole weight, dequantized.
    pub(crate) fn dequantized(&self) -> &Tensor {
        &self.w
    }

    /// Column ranges built so far: each is dequantized and summed
    /// once, however many tiles read it.
    pub fn blocks_built(&self) -> usize {
        self.blocks.len()
    }

    /// Execute `x [m,k] × w [k,n]` under `plan`: each compute step of
    /// the plan's lowering ([`PartitionPlan::lower`]) multiplies its
    /// row slice of `x` by its column block, and the tiles are
    /// assembled into the result.
    ///
    /// Padding rows produce nothing (each output row depends only on
    /// its own input row). A plan whose tiles do not cover `[m, n]`
    /// exactly once is rejected.
    pub fn matmul_partitioned(&mut self, x: &Tensor, plan: &PartitionPlan) -> Result<Tensor> {
        let (m, k) = x.matrix_dims()?;
        let (_, n) = self.dims();
        let tiles = plan_tiles(plan, MatmulShape::new(m, k, n));
        if !covers_exactly_once(&tiles, m, n) {
            return Err(TensorError::ShapeMismatch {
                context: format!("plan {plan:?} does not cover the [{m}, {n}] result exactly once"),
            });
        }
        let mut out = vec![0.0f32; m * n];
        for t in &tiles {
            self.upload_cols(&t.cols)?;
            let part = self.tile_product(x, t)?;
            for (r, src) in t.rows.clone().zip(part.data().chunks_exact(t.cols.len())) {
                out[r * n + t.cols.start..r * n + t.cols.end].copy_from_slice(src);
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// One tile of `x × w`: the tile's rows of `x` times its column
    /// block. The block must have been built by an earlier
    /// [`WeightUpload::matmul_partitioned`] over a plan with this tile.
    ///
    /// # Errors
    ///
    /// [`TensorError::OutOfBounds`] if the tile's columns were never
    /// uploaded; [`TensorError::ShapeMismatch`] if `x` is not `[_, k]`.
    pub(crate) fn tile_product(&self, x: &Tensor, tile: &ComputeStep) -> Result<Tensor> {
        let rows = x.slice_rows(tile.rows.start, tile.rows.end)?;
        let block = self.block(&tile.cols)?;
        ops::matmul(&rows, block.w.as_ref().unwrap_or(&self.w))
    }

    /// The ABFT checksum of a tile whose input rows are `x_tile`
    /// (`[rows, k]`), from the uploaded column sums of `cols`: equal,
    /// bit for bit, to [`abft::input_checksum`] of `x_tile` and those
    /// columns dequantized.
    ///
    /// # Errors
    ///
    /// [`TensorError::OutOfBounds`] if `cols` was never uploaded;
    /// [`TensorError::ShapeMismatch`] if `x_tile` is not `[_, k]`.
    pub fn tile_checksum(&self, x_tile: &Tensor, cols: &Range<usize>) -> Result<TileChecksum> {
        abft::checksum_with_sums(x_tile, &self.block(cols)?.sums)
    }

    /// Build the block of `cols` unless it exists.
    fn upload_cols(&mut self, cols: &Range<usize>) -> Result<()> {
        if self.blocks.iter().any(|b| b.cols == *cols) {
            return Ok(());
        }
        let (_, n) = self.dims();
        let w = (cols.len() != n)
            .then(|| self.w.slice_cols(cols.start, cols.end))
            .transpose()?;
        let sums = abft::column_sums(w.as_ref().unwrap_or(&self.w))?;
        self.blocks.push(ColumnBlock {
            cols: cols.clone(),
            w,
            sums,
        });
        Ok(())
    }

    fn block(&self, cols: &Range<usize>) -> Result<&ColumnBlock> {
        self.blocks
            .iter()
            .find(|b| b.cols == *cols)
            .ok_or_else(|| TensorError::OutOfBounds {
                context: format!("columns {cols:?} were never uploaded"),
            })
    }
}

/// Which weight matrix of a model a projection reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WeightId {
    /// Layer `l`'s fused QKV projection.
    Qkv(usize),
    /// Layer `l`'s attention output projection.
    AttnOut(usize),
    /// Layer `l`'s fused gate/up projection.
    GateUp(usize),
    /// Layer `l`'s down projection.
    FfnDown(usize),
    /// The LM head.
    LmHead,
}

impl WeightId {
    /// The operator name of the projection, as the timing traces and
    /// plan tables call it.
    pub(crate) fn op(self) -> &'static str {
        match self {
            WeightId::Qkv(_) => "qkv",
            WeightId::AttnOut(_) => "attn_out",
            WeightId::GateUp(_) => "gate_up",
            WeightId::FfnDown(_) => "ffn_down",
            WeightId::LmHead => "lm_head",
        }
    }
}

/// One `T` per weight matrix of a model.
#[derive(Debug, Clone)]
pub(crate) struct PerWeight<T> {
    /// Per layer: QKV, attention output, gate/up, down.
    layers: Vec<[T; 4]>,
    lm_head: T,
}

/// Every weight matrix of a model, uploaded.
pub(crate) type ModelUpload = PerWeight<WeightUpload>;

impl ModelUpload {
    /// Upload every weight matrix of `weights`.
    pub(crate) fn new(weights: &ModelWeights) -> Result<Self> {
        Ok(Self {
            layers: weights
                .layers
                .iter()
                .map(|l| {
                    Ok([
                        WeightUpload::new(&l.qkv)?,
                        WeightUpload::new(&l.attn_out)?,
                        WeightUpload::new(&l.gate_up)?,
                        WeightUpload::new(&l.ffn_down)?,
                    ])
                })
                .collect::<Result<_>>()?,
            lm_head: WeightUpload::new(&weights.lm_head)?,
        })
    }

    /// Column blocks built across all weights.
    #[cfg(test)]
    pub(crate) fn blocks_built(&self) -> usize {
        let layers: usize = self.layers.iter().flatten().map(|w| w.blocks_built()).sum();
        layers + self.lm_head.blocks_built()
    }
}

impl<T> PerWeight<T> {
    /// Map every entry through `f`.
    pub(crate) fn try_map<U>(&self, mut f: impl FnMut(&T) -> Result<U>) -> Result<PerWeight<U>> {
        Ok(PerWeight {
            layers: self
                .layers
                .iter()
                .map(|[a, b, c, d]| Ok([f(a)?, f(b)?, f(c)?, f(d)?]))
                .collect::<Result<_>>()?,
            lm_head: f(&self.lm_head)?,
        })
    }

    pub(crate) fn get(&self, id: WeightId) -> &T {
        match id {
            WeightId::Qkv(l) => &self.layers[l][0],
            WeightId::AttnOut(l) => &self.layers[l][1],
            WeightId::GateUp(l) => &self.layers[l][2],
            WeightId::FfnDown(l) => &self.layers[l][3],
            WeightId::LmHead => &self.lm_head,
        }
    }

    pub(crate) fn get_mut(&mut self, id: WeightId) -> &mut T {
        match id {
            WeightId::Qkv(l) => &mut self.layers[l][0],
            WeightId::AttnOut(l) => &mut self.layers[l][1],
            WeightId::GateUp(l) => &mut self.layers[l][2],
            WeightId::FfnDown(l) => &mut self.layers[l][3],
            WeightId::LmHead => &mut self.lm_head,
        }
    }
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
