//! Algorithm-based fault tolerance (ABFT) primitives.
//!
//! Detection substrate for the data-integrity layer: Huang–Abraham
//! style row checksums over GEMM tiles, exact bit-pattern seals for
//! stored tensors (KV rows, compiled graphs), and the deterministic
//! bit-flip fault used by the SDC injector.
//!
//! # Checksum scheme
//!
//! For a tile `C = A·B` (`A` is `[m,k]`, `B` is `[k,n]`), the verifier
//! compares, per output row `i`,
//!
//! ```text
//! pred_i = Σ_k A[i,k] · s_k      where  s_k = Σ_j B[k,j]
//! got_i  = Σ_j C[i,j]
//! ```
//!
//! Both sides are accumulated in `f64`. In exact arithmetic they are
//! equal; in floating point they differ by rounding noise, so the
//! comparison uses a calibrated tolerance proportional to the
//! magnitude checksum `scale_i = Σ_k |A[i,k]| · Σ_j |B[k,j]|`.
//!
//! The weight side, `s` and `|s|` ([`column_sums`]), depends only on
//! the weight, so it is taken once, when the weight is uploaded: the
//! functional engine's upload (`heterollm::upload`) keeps them per tile
//! column range, and each verified tile then costs only the `O(m·k)`
//! dot products of [`checksum_with_sums`] plus the `O(m·n)` output row
//! sums, against the GEMM's `O(m·k·n)`. [`input_checksum`] is the two
//! halves composed, for a one-off tile.
//!
//! # Detectability envelope
//!
//! The comparison is written `!(diff <= tol)` so `NaN`/`Inf` residuals
//! (an exponent flip driving an element out of range) always flag. A
//! single flipped [`SDC_FLIP_BIT`] (the top exponent bit) perturbs the
//! row sum by at least 2.0 — flipping it on `v = 0.0` yields `2.0`,
//! on `|v| < 2` yields `v·2^128` (overflowing to `Inf` for `|v| ≥
//! 2^-126`... still ≥ 2), and on `|v| ≥ 2` removes the value entirely
//! — so detection is guaranteed while `tol < 2.0`, which
//! [`row_tolerance`] enforces by clamping. Low-order mantissa flips
//! sit below both the rounding-noise floor and the harm floor and are
//! out of scope (they are also harmless at W4A16 precision).

use crate::tensor::Tensor;
use crate::Result;

/// Bit index the transient SDC injector flips: the top exponent bit of
/// an IEEE-754 `f32`. Flipping it perturbs any element by at least 2.0
/// in absolute value, keeping injected faults strictly above the
/// checksum rounding-noise floor (see the module docs).
pub const SDC_FLIP_BIT: u32 = 30;

/// Relative tolerance of the row-checksum comparison: `2^-14` of the
/// magnitude checksum, ~1000× the worst random-walk rounding noise of
/// the tiny functional configs while staying far below the 2.0 harm
/// floor of an exponent-bit flip.
pub const ABFT_REL_TOL: f64 = 1.0 / 16_384.0;

/// Ceiling of the clamped per-row tolerance, strictly below the 2.0
/// minimum perturbation of a [`SDC_FLIP_BIT`] flip so detection never
/// silently degrades on large-magnitude tiles.
pub const ABFT_TOL_CEIL: f64 = 1.9;

/// Flip one bit of an `f32`'s IEEE-754 representation.
pub fn flip_bit(x: f32, bit: u32) -> f32 {
    f32::from_bits(x.to_bits() ^ (1u32 << (bit % 32)))
}

/// Per-row checksums of one GEMM tile's inputs: the predicted output
/// row sums and the magnitude scale the tolerance is calibrated from.
#[derive(Debug, Clone, PartialEq)]
pub struct TileChecksum {
    /// `pred_i = Σ_k A[i,k]·(Σ_j B[k,j])`, accumulated in `f64`.
    pub predicted: Vec<f64>,
    /// `scale_i = Σ_k |A[i,k]|·(Σ_j |B[k,j]|)` — an upper-bound proxy
    /// for the magnitude flowing through row `i`.
    pub scale: Vec<f64>,
}

/// The weight-side half of a tile checksum: for `b [k,n]`, per row
/// `kk`, `s_kk = Σ_j b[kk,j]` and `|s|_kk = Σ_j |b[kk,j]|`, accumulated
/// in `f64` with `j` ascending. They depend only on the weight, so a
/// runtime takes them once, when it uploads the weight.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSums {
    /// `s`, one entry per reduction index `kk`.
    pub sum: Vec<f64>,
    /// `|s|`, the magnitude sums the tolerance scale is built from.
    pub abs: Vec<f64>,
}

/// The column sums `s` and `|s|` of a tile's weight operand `b [k,n]`.
///
/// # Errors
///
/// [`crate::TensorError::RankMismatch`] if `b` is not a matrix.
pub fn column_sums(b: &Tensor) -> Result<ColumnSums> {
    let (k, n) = b.matrix_dims()?;
    let mut sum = vec![0.0f64; k];
    let mut abs = vec![0.0f64; k];
    let bd = b.data();
    for (kk, (sv, sa)) in sum.iter_mut().zip(abs.iter_mut()).enumerate() {
        for j in 0..n {
            let v = f64::from(bd[kk * n + j]);
            *sv += v;
            *sa += v.abs();
        }
    }
    Ok(ColumnSums { sum, abs })
}

/// Checksum a GEMM tile's input rows `a [m,k]` against the
/// precomputed [`column_sums`] of its weight operand.
///
/// # Errors
///
/// [`crate::TensorError::ShapeMismatch`] if `a` has not `k` columns,
/// [`crate::TensorError::RankMismatch`] if `a` is not a matrix.
pub fn checksum_with_sums(a: &Tensor, sums: &ColumnSums) -> Result<TileChecksum> {
    let (m, k) = a.matrix_dims()?;
    if k != sums.sum.len() {
        return Err(crate::TensorError::ShapeMismatch {
            context: format!("abft checksum [{m},{k}] x [{},_]", sums.sum.len()),
        });
    }
    let ad = a.data();
    let mut predicted = vec![0.0f64; m];
    let mut scale = vec![0.0f64; m];
    for i in 0..m {
        let (mut p, mut sc) = (0.0f64, 0.0f64);
        for kk in 0..k {
            let v = f64::from(ad[i * k + kk]);
            p += v * sums.sum[kk];
            sc += v.abs() * sums.abs[kk];
        }
        predicted[i] = p;
        scale[i] = sc;
    }
    Ok(TileChecksum { predicted, scale })
}

/// Checksum the inputs of a GEMM tile `a [m,k] × b [k,n]`: the
/// [`column_sums`] of `b`, then [`checksum_with_sums`].
///
/// # Errors
///
/// [`crate::TensorError::ShapeMismatch`] if the inner dimensions
/// disagree, [`crate::TensorError::RankMismatch`] if an operand is not
/// a matrix.
pub fn input_checksum(a: &Tensor, b: &Tensor) -> Result<TileChecksum> {
    let (m, k) = a.matrix_dims()?;
    let (bk, n) = b.matrix_dims()?;
    if k != bk {
        return Err(crate::TensorError::ShapeMismatch {
            context: format!("abft input checksum [{m},{k}] x [{bk},{n}]"),
        });
    }
    checksum_with_sums(a, &column_sums(b)?)
}

/// Row sums of a GEMM tile's output, accumulated in `f64`.
///
/// # Errors
///
/// [`crate::TensorError::RankMismatch`] if `c` is not a matrix.
pub fn output_checksum(c: &Tensor) -> Result<Vec<f64>> {
    let (m, n) = c.matrix_dims()?;
    let cd = c.data();
    Ok((0..m)
        .map(|i| (0..n).map(|j| f64::from(cd[i * n + j])).sum())
        .collect())
}

/// The clamped comparison tolerance for one row's checksum residual.
pub fn row_tolerance(scale: f64) -> f64 {
    (ABFT_REL_TOL * scale).clamp(1e-9, ABFT_TOL_CEIL)
}

/// Verify a GEMM tile's output against its input checksum.
///
/// Returns the index of the first row whose checksum residual exceeds
/// tolerance (`None` when the tile is clean). The comparison is
/// NaN-safe: a non-finite residual always flags.
pub fn verify_tile(checksum: &TileChecksum, got: &[f64]) -> Option<usize> {
    checksum
        .predicted
        .iter()
        .zip(&checksum.scale)
        .zip(got)
        .position(|((pred, scale), got)| {
            let residual = (got - pred).abs();
            residual.is_nan() || residual > row_tolerance(*scale)
        })
}

/// The FNV-1a offset basis: the state [`fingerprint_bytes`] and
/// [`seal_bits`] start from.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over raw bytes — the hash under both [`seal_bits`]
/// and the compiled-graph fingerprints in `hetero-graph`.
pub fn fingerprint_bytes(data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for byte in data {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 64-bit FNV-1a hash over the IEEE-754 bit patterns of a slice — the
/// exact seal used for KV-cache rows. Any single-bit (indeed, any)
/// change to the stored pattern changes the seal: the per-byte
/// transform is a bijection on the running state.
pub fn seal_bits(data: &[f32]) -> u64 {
    seal_bits_from(FNV_OFFSET, data)
}

/// Continue a [`seal_bits`] hash state `h` over `data`: sealing `a`
/// and then `b` this way, `seal_bits_from(seal_bits(a), b)`, equals
/// `seal_bits` of `a` followed by `b`, with no joined copy.
pub fn seal_bits_from(mut h: u64, data: &[f32]) -> u64 {
    for x in data {
        for byte in x.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::rng::WeightRng;

    fn fixture(seed: u64, m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
        let rng = WeightRng::new(seed);
        let a = rng.uniform("a", &[m, k], 1.0).unwrap();
        let b = rng.uniform("b", &[k, n], 0.5).unwrap();
        (a, b)
    }

    #[test]
    fn clean_tile_verifies() {
        let (a, b) = fixture(1, 24, 48, 32);
        let c = ops::matmul(&a, &b).unwrap();
        let cs = input_checksum(&a, &b).unwrap();
        let got = output_checksum(&c).unwrap();
        assert_eq!(verify_tile(&cs, &got), None);
    }

    #[test]
    fn exponent_flip_is_detected_everywhere() {
        let (a, b) = fixture(2, 8, 32, 16);
        let c = ops::matmul(&a, &b).unwrap();
        let cs = input_checksum(&a, &b).unwrap();
        for idx in 0..c.numel() {
            let mut bad = c.clone();
            bad.data_mut()[idx] = flip_bit(c.data()[idx], SDC_FLIP_BIT);
            let got = output_checksum(&bad).unwrap();
            let row = verify_tile(&cs, &got);
            assert_eq!(row, Some(idx / 16), "flip at {idx} missed");
        }
    }

    #[test]
    fn zero_element_flip_is_detected() {
        // Flipping the top exponent bit of 0.0 produces exactly 2.0 —
        // the worst-case perturbation — which must clear the clamped
        // tolerance ceiling.
        let mut c = Tensor::zeros(&[2, 4]);
        let cs = TileChecksum {
            predicted: vec![0.0; 2],
            scale: vec![1e12; 2], // pathological scale: tolerance clamps
        };
        c.data_mut()[5] = flip_bit(0.0, SDC_FLIP_BIT);
        assert_eq!(c.data()[5], 2.0);
        let got = output_checksum(&c).unwrap();
        assert_eq!(verify_tile(&cs, &got), Some(1));
    }

    #[test]
    fn nan_and_inf_residuals_flag() {
        let cs = TileChecksum {
            predicted: vec![0.0],
            scale: vec![1.0],
        };
        assert_eq!(verify_tile(&cs, &[f64::NAN]), Some(0));
        assert_eq!(verify_tile(&cs, &[f64::INFINITY]), Some(0));
    }

    #[test]
    fn seal_changes_on_any_bit() {
        let data = [0.0f32, 1.5, -2.25, 1e-8];
        let base = seal_bits(&data);
        for (i, _) in data.iter().enumerate() {
            for bit in [0u32, 7, 15, 22, 23, 30, 31] {
                let mut d = data;
                d[i] = flip_bit(d[i], bit);
                assert_ne!(seal_bits(&d), base, "element {i} bit {bit}");
            }
        }
        // Sign of zero is a distinct bit pattern too.
        assert_ne!(seal_bits(&[0.0]), seal_bits(&[-0.0]));
    }

    #[test]
    fn seal_matches_byte_fingerprint() {
        let data = [1.0f32, -3.5, 0.0, 1e-20];
        let bytes: Vec<u8> = data
            .iter()
            .flat_map(|x| x.to_bits().to_le_bytes())
            .collect();
        assert_eq!(seal_bits(&data), fingerprint_bytes(&bytes));
    }

    #[test]
    fn seal_continues_across_slices() {
        let data = [1.0f32, -3.5, 0.0, 1e-20, -0.0];
        for cut in 0..=data.len() {
            let (a, b) = data.split_at(cut);
            assert_eq!(seal_bits_from(seal_bits(a), b), seal_bits(&data));
        }
    }

    #[test]
    fn flip_bit_is_an_involution() {
        for v in [0.0f32, -1.0, 3.75, 1e-30, 1e30] {
            for bit in 0..32 {
                let f = flip_bit(v, bit);
                assert_eq!(flip_bit(f, bit).to_bits(), v.to_bits());
                assert_ne!(f.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn tolerance_clamps_below_harm_floor() {
        assert!(row_tolerance(f64::MAX) < 2.0);
        assert!(row_tolerance(0.0) > 0.0);
        assert!((row_tolerance(16_384.0) - 1.0).abs() < 1e-12);
    }
}
