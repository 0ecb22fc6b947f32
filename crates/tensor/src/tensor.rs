//! Dense FP32 tensors with row-major storage.

use serde::{Deserialize, Serialize};

use crate::{Result, Shape, TensorError};

/// A dense, row-major FP32 tensor.
///
/// This is the activation/compute representation; quantized *storage*
/// lives in [`crate::quant`]. Cloning is a deep copy.
///
/// # Examples
///
/// ```
/// use hetero_tensor::Tensor;
///
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape().dims(), &[2, 3]);
/// assert_eq!(t.numel(), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Create a tensor from a flat buffer and shape.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.numel() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Self { shape, data })
    }

    /// All-zeros tensor.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.numel()];
        Self { shape, data }
    }

    /// All-ones tensor.
    pub fn ones(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![1.0; shape.numel()];
        Self { shape, data }
    }

    /// Tensor filled with a constant.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.numel()];
        Self { shape, data }
    }

    /// The `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Flat data slice.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data slice.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Interpret as `[rows, cols]` and return the dimensions.
    pub fn matrix_dims(&self) -> Result<(usize, usize)> {
        self.shape.as_matrix()
    }

    /// Element access by multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> Result<f32> {
        Ok(self.data[self.shape.linear_index(index)?])
    }

    /// Set element by multi-dimensional index.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let i = self.shape.linear_index(index)?;
        self.data[i] = value;
        Ok(())
    }

    /// Row `r` of a rank-2 tensor.
    pub fn row(&self, r: usize) -> Result<&[f32]> {
        let (rows, cols) = self.matrix_dims()?;
        if r >= rows {
            return Err(TensorError::OutOfBounds {
                context: format!("row {r} of {rows}"),
            });
        }
        Ok(&self.data[r * cols..(r + 1) * cols])
    }

    /// Reshape to new dims with the same element count.
    pub fn reshape(&self, dims: &[usize]) -> Result<Self> {
        let shape = Shape::new(dims);
        if shape.numel() != self.numel() {
            return Err(TensorError::LengthMismatch {
                expected: shape.numel(),
                actual: self.numel(),
            });
        }
        Ok(Self {
            shape,
            data: self.data.clone(),
        })
    }

    /// Transpose a rank-2 tensor.
    pub fn transpose(&self) -> Result<Self> {
        let (rows, cols) = self.matrix_dims()?;
        let mut out = vec![0.0; self.numel()];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = self.data[r * cols + c];
            }
        }
        Tensor::from_vec(out, &[cols, rows])
    }

    /// Extract rows `[start, end)` of a rank-2 tensor.
    pub fn slice_rows(&self, start: usize, end: usize) -> Result<Self> {
        let (rows, cols) = self.matrix_dims()?;
        if start >= end || end > rows {
            return Err(TensorError::OutOfBounds {
                context: format!("rows {start}..{end} of {rows}"),
            });
        }
        let data = self.data[start * cols..end * cols].to_vec();
        Tensor::from_vec(data, &[end - start, cols])
    }

    /// Extract columns `[start, end)` of a rank-2 tensor.
    pub fn slice_cols(&self, start: usize, end: usize) -> Result<Self> {
        let (rows, cols) = self.matrix_dims()?;
        if start >= end || end > cols {
            return Err(TensorError::OutOfBounds {
                context: format!("cols {start}..{end} of {cols}"),
            });
        }
        let width = end - start;
        let mut data = Vec::with_capacity(rows * width);
        for r in 0..rows {
            data.extend_from_slice(&self.data[r * cols + start..r * cols + end]);
        }
        Tensor::from_vec(data, &[rows, width])
    }

    /// Vertically concatenate rank-2 tensors (stack rows).
    pub fn concat_rows(parts: &[&Tensor]) -> Result<Self> {
        if parts.is_empty() {
            return Err(TensorError::ShapeMismatch {
                context: "concat of zero tensors".into(),
            });
        }
        let (_, cols) = parts[0].matrix_dims()?;
        let mut rows = 0;
        for p in parts {
            let (r, c) = p.matrix_dims()?;
            if c != cols {
                return Err(TensorError::ShapeMismatch {
                    context: format!("concat_rows with widths {cols} and {c}"),
                });
            }
            rows += r;
        }
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(p.data());
        }
        Tensor::from_vec(data, &[rows, cols])
    }

    /// Horizontally concatenate rank-2 tensors (stack columns).
    pub fn concat_cols(parts: &[&Tensor]) -> Result<Self> {
        if parts.is_empty() {
            return Err(TensorError::ShapeMismatch {
                context: "concat of zero tensors".into(),
            });
        }
        let (rows, _) = parts[0].matrix_dims()?;
        let mut cols = 0;
        for p in parts {
            let (r, c) = p.matrix_dims()?;
            if r != rows {
                return Err(TensorError::ShapeMismatch {
                    context: format!("concat_cols with heights {rows} and {r}"),
                });
            }
            cols += c;
        }
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for p in parts {
                let (_, c) = p.matrix_dims()?;
                data.extend_from_slice(&p.data()[r * c..(r + 1) * c]);
            }
        }
        Tensor::from_vec(data, &[rows, cols])
    }

    /// Maximum absolute difference against another tensor of equal shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> Result<f32> {
        if !self.shape.same_as(&other.shape) {
            return Err(TensorError::ShapeMismatch {
                context: format!("max_abs_diff between {} and {}", self.shape, other.shape),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max))
    }

    /// Assert element-wise closeness within `tol`, for tests.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or any element differs by more than `tol`.
    pub fn assert_close(&self, other: &Tensor, tol: f32) {
        let diff = self
            .max_abs_diff(other)
            .expect("shape mismatch in assert_close");
        assert!(diff <= tol, "tensors differ by {diff} (tolerance {tol})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        assert_eq!(t.at(&[0, 0]).unwrap(), 1.0);
        assert_eq!(t.at(&[1, 2]).unwrap(), 6.0);
        assert!(t.at(&[2, 0]).is_err());
        assert!(Tensor::from_vec(vec![1.0], &[2]).is_err());
    }

    #[test]
    fn eye_and_full() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[1, 1]).unwrap(), 1.0);
        assert_eq!(i.at(&[0, 1]).unwrap(), 0.0);
        let f = Tensor::full(&[2, 2], 7.5);
        assert!(f.data().iter().all(|&x| x == 7.5));
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let tt = t.transpose().unwrap().transpose().unwrap();
        assert_eq!(t, tt);
        assert_eq!(
            t.transpose().unwrap().at(&[2, 1]).unwrap(),
            t.at(&[1, 2]).unwrap()
        );
    }

    #[test]
    fn slicing_rows_and_cols() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[3, 4]).unwrap();
        let top = t.slice_rows(0, 2).unwrap();
        assert_eq!(top.shape().dims(), &[2, 4]);
        assert_eq!(top.at(&[1, 3]).unwrap(), 7.0);
        let mid = t.slice_cols(1, 3).unwrap();
        assert_eq!(mid.shape().dims(), &[3, 2]);
        assert_eq!(mid.at(&[2, 0]).unwrap(), 9.0);
        assert!(t.slice_rows(2, 2).is_err());
        assert!(t.slice_cols(0, 5).is_err());
    }

    #[test]
    fn concat_inverts_slice() {
        let t = Tensor::from_vec((0..20).map(|x| x as f32).collect(), &[4, 5]).unwrap();
        let a = t.slice_rows(0, 1).unwrap();
        let b = t.slice_rows(1, 4).unwrap();
        assert_eq!(Tensor::concat_rows(&[&a, &b]).unwrap(), t);
        let l = t.slice_cols(0, 2).unwrap();
        let r = t.slice_cols(2, 5).unwrap();
        assert_eq!(Tensor::concat_cols(&[&l, &r]).unwrap(), t);
    }

    #[test]
    fn concat_shape_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 4]);
        assert!(Tensor::concat_rows(&[&a, &b]).is_err());
        let c = Tensor::zeros(&[3, 3]);
        assert!(Tensor::concat_cols(&[&a, &c]).is_err());
        assert!(Tensor::concat_rows(&[]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn max_abs_diff_and_close() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.5], &[1, 2]).unwrap();
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.5);
        a.assert_close(&b, 0.5);
    }

    #[test]
    #[should_panic(expected = "tensors differ")]
    fn assert_close_panics() {
        let a = Tensor::zeros(&[1, 2]);
        let b = Tensor::ones(&[1, 2]);
        a.assert_close(&b, 0.1);
    }
}
