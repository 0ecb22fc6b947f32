//! KV cache.
//!
//! Contiguous per-layer key/value storage with GQA-aware head counts.
//! During decode each step appends one row; attention reads the full
//! prefix — the memory-intensive pattern that makes decoding
//! bandwidth-bound (§2.1).
//!
//! # Integrity sealing
//!
//! Every call to [`KvCache::advance`] seals the freshly appended rows
//! with an exact bit-pattern hash ([`hetero_tensor::abft::seal_bits`]
//! over the row's keys then values). [`KvCache::verify`] re-hashes the
//! sealed prefix and reports the first corrupted `(layer, row)`; the
//! recovery path then calls [`KvCache::rollback`] to the last good
//! prefix and replays the dropped tokens, which rewrites the corrupted
//! rows bit-for-bit (decoder rows are position-independent: row `i` of
//! every projection depends only on row `i` of its input).

use hetero_tensor::abft::{flip_bit, seal_bits, seal_bits_from};
use hetero_tensor::{DType, Result, Tensor, TensorError};

/// Per-layer key/value cache for one sequence.
#[derive(Debug, Clone)]
pub struct KvCache {
    kv_dim: usize,
    max_seq: usize,
    /// `layers × [max_seq, kv_dim]`, keys.
    k: Vec<Tensor>,
    /// `layers × [max_seq, kv_dim]`, values.
    v: Vec<Tensor>,
    /// `layers × len`, one bit-exact seal per stored row (keys ‖ values).
    seals: Vec<Vec<u64>>,
    len: usize,
}

impl KvCache {
    /// Allocate a cache for `layers` layers.
    pub fn new(layers: usize, max_seq: usize, kv_dim: usize) -> Self {
        Self {
            kv_dim,
            max_seq,
            k: (0..layers)
                .map(|_| Tensor::zeros(&[max_seq, kv_dim]))
                .collect(),
            v: (0..layers)
                .map(|_| Tensor::zeros(&[max_seq, kv_dim]))
                .collect(),
            seals: vec![Vec::new(); layers],
            len: 0,
        }
    }

    /// Current sequence length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum sequence length.
    pub fn capacity(&self) -> usize {
        self.max_seq
    }

    /// Append `rows` of keys/values to `layer` starting at the current
    /// position (the position advances only via [`KvCache::advance`],
    /// after all layers have appended).
    pub fn append(&mut self, layer: usize, keys: &Tensor, values: &Tensor) -> Result<()> {
        let (rows, width) = keys.matrix_dims()?;
        let (vrows, vwidth) = values.matrix_dims()?;
        if width != self.kv_dim || vwidth != self.kv_dim || rows != vrows {
            return Err(TensorError::ShapeMismatch {
                context: format!(
                    "kv append [{rows},{width}]/[{vrows},{vwidth}] to kv_dim {}",
                    self.kv_dim
                ),
            });
        }
        if self.len + rows > self.max_seq {
            return Err(TensorError::OutOfBounds {
                context: format!(
                    "kv cache overflow: {} + {rows} > {}",
                    self.len, self.max_seq
                ),
            });
        }
        self.check_layer(layer)?;
        let k = &mut self.k[layer];
        let v = &mut self.v[layer];
        for r in 0..rows {
            let dst = (self.len + r) * self.kv_dim;
            k.data_mut()[dst..dst + self.kv_dim].copy_from_slice(keys.row(r)?);
            v.data_mut()[dst..dst + self.kv_dim].copy_from_slice(values.row(r)?);
        }
        Ok(())
    }

    /// Advance the shared position after all layers appended `rows`,
    /// sealing the new rows in every layer.
    ///
    /// # Errors
    ///
    /// [`TensorError::OutOfBounds`] if the advance would push the
    /// position past `max_seq` — lost rows must never be masked by
    /// clamping (the truncation would be exactly the kind of silent
    /// corruption the integrity layer exists to catch).
    pub fn advance(&mut self, rows: usize) -> Result<()> {
        if self.len + rows > self.max_seq {
            return Err(TensorError::OutOfBounds {
                context: format!(
                    "kv advance overflow: {} + {rows} > {}",
                    self.len, self.max_seq
                ),
            });
        }
        for layer in 0..self.k.len() {
            for r in self.len..self.len + rows {
                let seal = self.seal_row(layer, r);
                self.seals[layer].push(seal);
            }
        }
        self.len += rows;
        Ok(())
    }

    /// Keys of `layer` up to `ctx` rows (a copy; `[ctx, kv_dim]`).
    pub fn keys(&self, layer: usize, ctx: usize) -> Result<Tensor> {
        self.check_layer(layer)?;
        self.k[layer].slice_rows(0, ctx)
    }

    /// Values of `layer` up to `ctx` rows.
    pub fn values(&self, layer: usize, ctx: usize) -> Result<Tensor> {
        self.check_layer(layer)?;
        self.v[layer].slice_rows(0, ctx)
    }

    fn check_layer(&self, layer: usize) -> Result<()> {
        if layer >= self.k.len() {
            return Err(TensorError::OutOfBounds {
                context: format!("kv layer {layer} out of range ({} layers)", self.k.len()),
            });
        }
        Ok(())
    }

    /// Bit-exact seal of one stored row: keys then values, hashed in
    /// place as one FNV-1a stream.
    fn seal_row(&self, layer: usize, row: usize) -> u64 {
        let lo = row * self.kv_dim;
        let hi = lo + self.kv_dim;
        let keys = seal_bits(&self.k[layer].data()[lo..hi]);
        seal_bits_from(keys, &self.v[layer].data()[lo..hi])
    }

    /// Re-hash the sealed prefix and return the first corrupted
    /// `(layer, row)`, or `None` when every sealed row is intact.
    pub fn verify(&self) -> Option<(usize, usize)> {
        for row in 0..self.len {
            for layer in 0..self.k.len() {
                if self.seals[layer][row] != self.seal_row(layer, row) {
                    return Some((layer, row));
                }
            }
        }
        None
    }

    /// Number of `(layer, row)` seals covering the current prefix.
    pub fn sealed_rows(&self) -> usize {
        self.len * self.k.len()
    }

    /// Roll the cache back to a previously sealed prefix of `len` rows.
    /// Stored data past the prefix is left in place — replaying the
    /// dropped tokens overwrites it bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`TensorError::OutOfBounds`] if `len` exceeds the current length.
    pub fn rollback(&mut self, len: usize) -> Result<()> {
        if len > self.len {
            return Err(TensorError::OutOfBounds {
                context: format!("kv rollback to {len} > current {}", self.len),
            });
        }
        for seals in &mut self.seals {
            seals.truncate(len);
        }
        self.len = len;
        Ok(())
    }

    /// Fault-injection hook: flip `bit` of the stored *key* element at
    /// `(layer, row, col)` without updating the row's seal — the sticky
    /// storage corruption the read-time verifier must catch.
    ///
    /// # Errors
    ///
    /// [`TensorError::OutOfBounds`] on an out-of-range coordinate.
    pub fn corrupt_key(&mut self, layer: usize, row: usize, col: usize, bit: u32) -> Result<()> {
        self.check_layer(layer)?;
        if row >= self.len || col >= self.kv_dim {
            return Err(TensorError::OutOfBounds {
                context: format!(
                    "kv corrupt ({row},{col}) outside [{},{}]",
                    self.len, self.kv_dim
                ),
            });
        }
        let idx = row * self.kv_dim + col;
        let data = self.k[layer].data_mut();
        data[idx] = flip_bit(data[idx], bit);
        Ok(())
    }

    /// Bytes one decode step must read from the cache across all layers
    /// (both K and V) at context length `ctx`, for elements stored as
    /// `dtype`.
    pub fn decode_read_bytes(layers: usize, kv_dim: usize, ctx: usize, dtype: DType) -> u64 {
        let elems = 2 * layers as u64 * ctx as u64 * kv_dim as u64;
        (elems * dtype.bits() as u64).div_ceil(8)
    }

    /// Reset to empty (retains allocation).
    pub fn clear(&mut self) {
        self.len = 0;
        for seals in &mut self.seals {
            seals.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(rows: usize, width: usize, base: f32) -> Tensor {
        Tensor::from_vec(
            (0..rows * width).map(|i| base + i as f32).collect(),
            &[rows, width],
        )
        .unwrap()
    }

    #[test]
    fn append_and_read_back() {
        let mut kv = KvCache::new(2, 16, 4);
        let k = filled(3, 4, 0.0);
        let v = filled(3, 4, 100.0);
        kv.append(0, &k, &v).unwrap();
        kv.append(1, &k, &v).unwrap();
        kv.advance(3).unwrap();
        assert_eq!(kv.len(), 3);
        assert_eq!(kv.keys(0, 3).unwrap(), k);
        assert_eq!(kv.values(1, 3).unwrap(), v);
    }

    #[test]
    fn incremental_decode_appends() {
        let mut kv = KvCache::new(1, 8, 2);
        for step in 0..4 {
            let k = filled(1, 2, step as f32 * 10.0);
            kv.append(0, &k, &k).unwrap();
            kv.advance(1).unwrap();
        }
        assert_eq!(kv.len(), 4);
        let keys = kv.keys(0, 4).unwrap();
        assert_eq!(keys.at(&[2, 0]).unwrap(), 20.0);
        assert_eq!(keys.at(&[3, 1]).unwrap(), 31.0);
    }

    #[test]
    fn overflow_rejected() {
        let mut kv = KvCache::new(1, 2, 2);
        let k = filled(2, 2, 0.0);
        kv.append(0, &k, &k).unwrap();
        kv.advance(2).unwrap();
        assert!(kv
            .append(0, &filled(1, 2, 0.0), &filled(1, 2, 0.0))
            .is_err());
    }

    #[test]
    fn advance_overflow_is_a_typed_error() {
        let mut kv = KvCache::new(1, 2, 2);
        let k = filled(2, 2, 0.0);
        kv.append(0, &k, &k).unwrap();
        kv.advance(2).unwrap();
        let err = kv.advance(1).unwrap_err();
        assert!(matches!(err, TensorError::OutOfBounds { .. }), "{err}");
        // The position must not have moved.
        assert_eq!(kv.len(), 2);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut kv = KvCache::new(1, 8, 4);
        let bad = filled(1, 3, 0.0);
        let good = filled(1, 4, 0.0);
        assert!(kv.append(0, &bad, &good).is_err());
        assert!(kv.append(0, &good, &bad).is_err());
    }

    #[test]
    fn clear_retains_capacity() {
        let mut kv = KvCache::new(1, 8, 2);
        kv.append(0, &filled(1, 2, 0.0), &filled(1, 2, 0.0))
            .unwrap();
        kv.advance(1).unwrap();
        kv.clear();
        assert!(kv.is_empty());
        assert_eq!(kv.capacity(), 8);
        assert_eq!(kv.sealed_rows(), 0);
    }

    #[test]
    fn out_of_range_layer_is_a_typed_error() {
        let mut kv = KvCache::new(2, 8, 2);
        let t = filled(1, 2, 0.0);
        assert!(kv.append(2, &t, &t).is_err());
        assert!(kv.keys(2, 0).is_err());
        assert!(kv.values(5, 0).is_err());
        // In-range layers still work.
        assert!(kv.append(1, &t, &t).is_ok());
    }

    #[test]
    fn decode_read_bytes_formula() {
        // 32 layers, kv_dim 1024, ctx 256: 2 * 32 * 256 * 1024 * 2B = 32 MB.
        assert_eq!(
            KvCache::decode_read_bytes(32, 1024, 256, DType::F16),
            33_554_432
        );
        // INT8 storage halves the traffic; INT4 halves it again.
        assert_eq!(
            KvCache::decode_read_bytes(32, 1024, 256, DType::Int8),
            16_777_216
        );
        assert_eq!(
            KvCache::decode_read_bytes(32, 1024, 256, DType::Int4),
            8_388_608
        );
    }

    #[test]
    fn seal_and_verify_detect_corruption() {
        let mut kv = KvCache::new(2, 8, 4);
        let k = filled(3, 4, 0.0);
        let v = filled(3, 4, 50.0);
        kv.append(0, &k, &v).unwrap();
        kv.append(1, &k, &v).unwrap();
        kv.advance(3).unwrap();
        assert_eq!(kv.verify(), None);
        kv.corrupt_key(1, 2, 1, 0).unwrap();
        assert_eq!(kv.verify(), Some((1, 2)));
    }

    #[test]
    fn in_place_seal_equals_the_joined_row_seal() {
        let mut kv = KvCache::new(2, 8, 4);
        let (k, v) = (filled(3, 4, -1.5), filled(3, 4, 0.25));
        kv.append(0, &k, &v).unwrap();
        kv.append(1, &v, &k).unwrap();
        kv.advance(3).unwrap();
        for layer in 0..2 {
            for row in 0..3 {
                let mut joined = kv.keys(layer, 3).unwrap().row(row).unwrap().to_vec();
                joined.extend_from_slice(kv.values(layer, 3).unwrap().row(row).unwrap());
                assert_eq!(kv.seal_row(layer, row), seal_bits(&joined));
                assert_eq!(kv.seals[layer][row], seal_bits(&joined));
            }
        }
    }

    #[test]
    fn rollback_drops_corruption_and_replay_restores() {
        let mut kv = KvCache::new(1, 8, 2);
        let rows: Vec<Tensor> = (0..4).map(|s| filled(1, 2, s as f32 * 10.0)).collect();
        for r in &rows {
            kv.append(0, r, r).unwrap();
            kv.advance(1).unwrap();
        }
        let pristine = kv.keys(0, 4).unwrap();
        kv.corrupt_key(0, 2, 0, 7).unwrap();
        let (_, bad_row) = kv.verify().unwrap();
        kv.rollback(bad_row).unwrap();
        assert_eq!(kv.verify(), None, "rolled-back prefix must be clean");
        // Replay the dropped tokens.
        for r in &rows[bad_row..] {
            kv.append(0, r, r).unwrap();
            kv.advance(1).unwrap();
        }
        assert_eq!(kv.verify(), None);
        let restored = kv.keys(0, 4).unwrap();
        assert_eq!(
            restored.data(),
            pristine.data(),
            "bit-identical after replay"
        );
    }
}
