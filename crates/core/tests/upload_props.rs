//! Property test of the functional weight upload against the raw,
//! per-call dequantization it replaced: one upload reused across
//! projections of random shapes under random partition plans computes
//! the same bits, and its cached column sums give the same tile
//! checksums as [`abft::input_checksum`] over freshly dequantized
//! columns.

use std::collections::BTreeSet;
use std::ops::Range;

use hetero_solver::PartitionPlan;
use hetero_tensor::abft;
use hetero_tensor::ops;
use hetero_tensor::quant::W4Matrix;
use hetero_tensor::rng::WeightRng;
use hetero_tensor::shape::MatmulShape;
use hetero_tensor::Tensor;
use heterollm::functional::matmul_partitioned;
use heterollm::upload::WeightUpload;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The non-empty compute tiles of `plan` on `[m,k] × [k,n]`.
fn tiles(plan: &PartitionPlan, m: usize, k: usize, n: usize) -> Vec<(Range<usize>, Range<usize>)> {
    plan.lower(MatmulShape::new(m, k, n))
        .compute()
        .filter(|t| !t.rows.is_empty() && !t.cols.is_empty())
        .map(|t| (t.rows, t.cols))
        .collect()
}

/// The partitioned matmul as it was before the upload: every call
/// dequantizes the whole weight for a full-width tile and the tile's
/// columns for a narrower one.
fn raw_partitioned(x: &Tensor, w: &W4Matrix, plan: &PartitionPlan) -> Tensor {
    let (m, k) = x.matrix_dims().unwrap();
    let (_, n) = w.dims();
    let mut out = vec![0.0f32; m * n];
    for (rows, cols) in tiles(plan, m, k, n) {
        let xr = x.slice_rows(rows.start, rows.end).unwrap();
        let part = if cols.len() == n {
            ops::matmul_w4(&xr, w).unwrap()
        } else {
            ops::matmul(&xr, &w.dequantize_cols(cols.start, cols.end).unwrap()).unwrap()
        };
        for (r, src) in rows.zip(part.data().chunks_exact(cols.len())) {
            out[r * n + cols.start..r * n + cols.end].copy_from_slice(src);
        }
    }
    Tensor::from_vec(out, &[m, n]).unwrap()
}

/// `total` rows cut into 0 or more positive chunks.
fn chunks(rng: &mut StdRng, total: usize) -> Vec<usize> {
    let mut left = total;
    let mut out = Vec::new();
    while left > 0 {
        let c = rng.gen_range(1..=left);
        out.push(c);
        left -= c;
    }
    out
}

/// A plan covering `[m, n]` exactly once, of a kind drawn uniformly:
/// GPU-only, NPU-only, NPU pipe, row cut, hybrid cut or sequence cut,
/// padded where the kind allows.
fn arb_plan(draw: u64, m: usize, n: usize) -> PartitionPlan {
    let mut rng = StdRng::seed_from_u64(draw);
    let pad = rng.gen_range(0..8usize);
    match rng.gen_range(0..6u32) {
        0 => PartitionPlan::GpuOnly,
        1 => PartitionPlan::NpuOnly { padded_m: m + pad },
        2 => PartitionPlan::NpuPipe {
            chunks: chunks(&mut rng, m + pad),
            padded_rows: pad,
        },
        3 => PartitionPlan::RowCut {
            gpu_cols: rng.gen_range(0..=n),
            padded_m: m + pad,
        },
        4 => PartitionPlan::HybridCut {
            padded_m: m + pad,
            gpu_cols: rng.gen_range(0..=n),
        },
        _ => {
            let gpu_rows = rng.gen_range(0..=m);
            PartitionPlan::SeqCut {
                npu_chunks: chunks(&mut rng, m - gpu_rows),
                gpu_rows,
            }
        }
    }
}

fn bits32(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// One upload serves every projection: each result equals the raw
    /// per-call dequantization bit for bit (and so does the one-off
    /// [`matmul_partitioned`]), each tile's cached-sum checksum equals
    /// [`abft::input_checksum`] over the freshly dequantized columns,
    /// and each distinct column range is built exactly once.
    #[test]
    fn upload_matches_the_raw_oracle(
        seed in 0u64..100_000,
        group_log in 3u32..6,
        groups in 1usize..4,
        n in 1usize..48,
        projections in proptest::collection::vec((1usize..24, 0u64..u64::MAX), 1..5),
    ) {
        let k = (1usize << group_log) * groups;
        let rng = WeightRng::new(seed);
        let w = W4Matrix::quantize(&rng.uniform("w", &[k, n], 0.5).unwrap(), 1 << group_log)
            .unwrap();
        let mut upload = WeightUpload::new(&w).unwrap();
        let mut ranges = BTreeSet::new();
        for (i, &(m, draw)) in projections.iter().enumerate() {
            let x = rng.uniform(&format!("x{i}"), &[m, k], 2.0).unwrap();
            let plan = arb_plan(draw, m, n);
            let want = raw_partitioned(&x, &w, &plan);
            let got = upload.matmul_partitioned(&x, &plan).unwrap();
            prop_assert_eq!(bits32(&got), bits32(&want), "{:?} on [{}, {}]", plan, m, n);
            let once = matmul_partitioned(&x, &w, &plan).unwrap();
            prop_assert_eq!(bits32(&once), bits32(&want));
            for (rows, cols) in tiles(&plan, m, k, n) {
                let xt = x.slice_rows(rows.start, rows.end).unwrap();
                let cached = upload.tile_checksum(&xt, &cols).unwrap();
                let fresh = abft::input_checksum(
                    &xt,
                    &w.dequantize_cols(cols.start, cols.end).unwrap(),
                )
                .unwrap();
                prop_assert_eq!(bits64(&cached.predicted), bits64(&fresh.predicted));
                prop_assert_eq!(bits64(&cached.scale), bits64(&fresh.scale));
                ranges.insert((cols.start, cols.end));
            }
        }
        prop_assert_eq!(upload.blocks_built(), ranges.len());
    }
}

#[test]
fn a_range_no_plan_read_is_not_uploaded() {
    let w = WeightRng::new(3).uniform("w", &[32, 16], 0.5).unwrap();
    let mut upload = WeightUpload::new(&W4Matrix::quantize(&w, 32).unwrap()).unwrap();
    let x = Tensor::ones(&[4, 32]);
    let plan = PartitionPlan::RowCut {
        gpu_cols: 6,
        padded_m: 4,
    };
    upload.matmul_partitioned(&x, &plan).unwrap();
    assert_eq!(upload.blocks_built(), 2);
    assert!(upload.tile_checksum(&x, &(0..10)).is_ok());
    assert!(upload.tile_checksum(&x, &(0..16)).is_err());
}
