//! Integer tensors for kernel-side inference.
//!
//! The RMT virtual machine's ML instruction set (`RMT_VECTOR_LD`,
//! `RMT_MAT_MUL`, `RMT_SCALAR_VAL` — §3.2 of the paper) operates on
//! dense fixed-point tensors. This module provides the storage type and
//! the small set of linear-algebra kernels those instructions lower to:
//! matrix-vector product, matrix-matrix product, elementwise maps, and a
//! 2-D convolution used by `conv_layer`-style models.
//!
//! Everything here is integer-only ([`Fix`]); there is no floating point
//! on this path, mirroring the paper's FPU-free kernel constraint.

use crate::error::MlError;
use crate::fixed::Fix;

/// A dense, row-major fixed-point tensor of rank 1 or 2.
///
/// Rank-1 tensors are represented as `rows == 1`.
///
/// # Examples
///
/// ```
/// use rkd_ml::tensor::Tensor;
/// use rkd_ml::fixed::Fix;
///
/// let m = Tensor::from_f64(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
/// let v = Tensor::vector_f64(&[1.0, 1.0]);
/// let out = m.matvec(&v).unwrap();
/// assert_eq!(out.get(0, 0).to_f64(), 3.0);
/// assert_eq!(out.get(0, 1).to_f64(), 7.0);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<Fix>,
}

impl Tensor {
    /// Creates a zero-filled tensor with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        assert!(rows > 0 && cols > 0, "tensor dimensions must be nonzero");
        Tensor {
            rows,
            cols,
            data: vec![Fix::ZERO; rows * cols],
        }
    }

    /// Creates a tensor from raw fixed-point values in row-major order.
    ///
    /// Returns [`MlError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_fix(rows: usize, cols: usize, data: Vec<Fix>) -> Result<Tensor, MlError> {
        if rows == 0 || cols == 0 || data.len() != rows * cols {
            return Err(MlError::ShapeMismatch {
                expected: rows * cols,
                got: data.len(),
            });
        }
        Ok(Tensor { rows, cols, data })
    }

    /// Creates a tensor by converting `f64` values (userspace side only).
    pub fn from_f64(rows: usize, cols: usize, data: &[f64]) -> Result<Tensor, MlError> {
        Tensor::from_fix(rows, cols, data.iter().map(|&v| Fix::from_f64(v)).collect())
    }

    /// Creates a rank-1 (row) vector from fixed-point values.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn vector(data: Vec<Fix>) -> Tensor {
        assert!(!data.is_empty(), "vector must be nonempty");
        Tensor {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    /// Creates a rank-1 vector from `f64` values (userspace side only).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn vector_f64(data: &[f64]) -> Tensor {
        Tensor::vector(data.iter().map(|&v| Fix::from_f64(v)).collect())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the tensor has no elements (never true for a
    /// constructed tensor; present for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Fix {
        assert!(
            row < self.rows && col < self.cols,
            "tensor index out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: Fix) {
        assert!(
            row < self.rows && col < self.cols,
            "tensor index out of bounds"
        );
        self.data[row * self.cols + col] = v;
    }

    /// Returns the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[Fix] {
        &self.data
    }

    /// Returns the underlying row-major data mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [Fix] {
        &mut self.data
    }

    /// Returns row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[inline]
    pub fn row(&self, r: usize) -> &[Fix] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product: `self (r x c) * v (c)` producing a length-`r`
    /// row vector.
    pub fn matvec(&self, v: &Tensor) -> Result<Tensor, MlError> {
        if v.rows != 1 {
            return Err(MlError::ShapeMismatch {
                expected: self.cols,
                got: v.len(),
            });
        }
        let mut out = Vec::with_capacity(self.rows);
        self.matvec_into(&v.data, &mut out)?;
        Ok(Tensor::vector(out))
    }

    /// [`Tensor::matvec`] over a plain slice, replacing the contents of
    /// a caller-owned buffer. This is the workhorse of `RMT_MAT_MUL`,
    /// which keeps its vector registers across instructions.
    pub fn matvec_into(&self, v: &[Fix], out: &mut Vec<Fix>) -> Result<(), MlError> {
        if v.len() != self.cols {
            return Err(MlError::ShapeMismatch {
                expected: self.cols,
                got: v.len(),
            });
        }
        out.clear();
        out.extend(self.data.chunks_exact(self.cols).map(|row| {
            // Accumulate in i64 to avoid intermediate saturation: the
            // sum of Q16.16 products fits comfortably in Q48.16.
            let mut acc: i64 = 0;
            for (a, b) in row.iter().zip(v) {
                acc += (a.raw() as i64 * b.raw() as i64) >> crate::fixed::FRAC_BITS;
            }
            clamp_i64(acc)
        }));
        Ok(())
    }

    /// Matrix-matrix product `self (m x k) * rhs (k x n)`.
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, MlError> {
        if self.cols != rhs.rows {
            return Err(MlError::ShapeMismatch {
                expected: self.cols,
                got: rhs.rows,
            });
        }
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for j in 0..rhs.cols {
                let mut acc: i64 = 0;
                for k in 0..self.cols {
                    acc += (self.get(i, k).raw() as i64 * rhs.get(k, j).raw() as i64)
                        >> crate::fixed::FRAC_BITS;
                }
                out.set(i, j, clamp_i64(acc));
            }
        }
        Ok(out)
    }

    /// Elementwise addition.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor, MlError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(MlError::ShapeMismatch {
                expected: self.len(),
                got: rhs.len(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| a + b)
            .collect();
        Ok(Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Applies a function to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(Fix) -> Fix) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise ReLU, the activation the paper's quantized DNNs use.
    pub fn relu(&self) -> Tensor {
        self.map(Fix::relu)
    }

    /// Sum of all elements (i64 accumulation, saturated at the end).
    pub fn sum(&self) -> Fix {
        let acc: i64 = self.data.iter().map(|v| v.raw() as i64).sum();
        clamp_i64(acc)
    }

    /// Index of the maximum element (first occurrence wins).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, v) in self.data.iter().enumerate() {
            if *v > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// Dot product of two equal-length vectors.
    pub fn dot(&self, rhs: &Tensor) -> Result<Fix, MlError> {
        if self.len() != rhs.len() {
            return Err(MlError::ShapeMismatch {
                expected: self.len(),
                got: rhs.len(),
            });
        }
        let mut acc: i64 = 0;
        for (a, b) in self.data.iter().zip(rhs.data.iter()) {
            acc += (a.raw() as i64 * b.raw() as i64) >> crate::fixed::FRAC_BITS;
        }
        Ok(clamp_i64(acc))
    }

    /// Valid-mode 2-D convolution of `self` (treated as an image) with a
    /// `kh x kw` kernel, the primitive behind `conv_layer` models.
    ///
    /// Output shape is `(rows - kh + 1, cols - kw + 1)`.
    pub fn conv2d(&self, kernel: &Tensor) -> Result<Tensor, MlError> {
        if kernel.rows > self.rows || kernel.cols > self.cols {
            return Err(MlError::ShapeMismatch {
                expected: self.rows * self.cols,
                got: kernel.rows * kernel.cols,
            });
        }
        let oh = self.rows - kernel.rows + 1;
        let ow = self.cols - kernel.cols + 1;
        let mut out = Tensor::zeros(oh, ow);
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc: i64 = 0;
                for ky in 0..kernel.rows {
                    for kx in 0..kernel.cols {
                        acc += (self.get(oy + ky, ox + kx).raw() as i64
                            * kernel.get(ky, kx).raw() as i64)
                            >> crate::fixed::FRAC_BITS;
                    }
                }
                out.set(oy, ox, clamp_i64(acc));
            }
        }
        Ok(out)
    }

    /// Converts to a `Vec<f64>` for userspace-side inspection.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        self.data.iter().map(|v| v.to_f64()).collect()
    }
}

fn clamp_i64(acc: i64) -> Fix {
    if acc > i32::MAX as i64 {
        Fix::MAX
    } else if acc < i32::MIN as i64 {
        Fix::MIN
    } else {
        Fix::from_raw(acc as i32)
    }
}

impl core::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)
    }
}

impl rkd_testkit::json::ToJson for Tensor {
    fn to_json(&self) -> rkd_testkit::json::Json {
        rkd_testkit::json::Json::Obj(vec![
            (
                "rows".to_string(),
                rkd_testkit::json::ToJson::to_json(&self.rows),
            ),
            (
                "cols".to_string(),
                rkd_testkit::json::ToJson::to_json(&self.cols),
            ),
            (
                "data".to_string(),
                rkd_testkit::json::ToJson::to_json(&self.data),
            ),
        ])
    }
}

impl rkd_testkit::json::FromJson for Tensor {
    fn from_json(json: &rkd_testkit::json::Json) -> Result<Tensor, rkd_testkit::json::JsonError> {
        use rkd_testkit::json::JsonError;
        let rows = usize::from_json(json.field("rows")?).map_err(|e| e.context("rows"))?;
        let cols = usize::from_json(json.field("cols")?).map_err(|e| e.context("cols"))?;
        let data = Vec::<Fix>::from_json(json.field("data")?).map_err(|e| e.context("data"))?;
        Tensor::from_fix(rows, cols, data)
            .map_err(|_| JsonError::new("tensor data length does not match shape"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let t = Tensor::zeros(3, 4);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.len(), 12);
        assert!(!t.is_empty());
        assert_eq!(t.get(2, 3), Fix::ZERO);
    }

    #[test]
    fn from_fix_shape_mismatch() {
        let err = Tensor::from_fix(2, 2, vec![Fix::ONE; 3]).unwrap_err();
        assert!(matches!(
            err,
            MlError::ShapeMismatch {
                expected: 4,
                got: 3
            }
        ));
    }

    #[test]
    fn matvec_correctness() {
        let m = Tensor::from_f64(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let v = Tensor::vector_f64(&[1.0, 0.5, -1.0]);
        let out = m.matvec(&v).unwrap();
        assert_eq!(out.to_f64_vec(), vec![-1.0, 0.5]);
    }

    #[test]
    fn matvec_shape_errors() {
        let m = Tensor::zeros(2, 3);
        let bad = Tensor::zeros(1, 2);
        assert!(m.matvec(&bad).is_err());
        let not_vec = Tensor::zeros(3, 1);
        assert!(m.matvec(&not_vec).is_err());
    }

    #[test]
    fn matmul_identity() {
        let m = Tensor::from_f64(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let id = Tensor::from_f64(2, 2, &[1.0, 0.0, 0.0, 1.0]).unwrap();
        assert_eq!(m.matmul(&id).unwrap(), m);
        assert_eq!(id.matmul(&m).unwrap(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_f64(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_f64(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.to_f64_vec(), vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn add_and_map() {
        let a = Tensor::from_f64(1, 3, &[1.0, -2.0, 3.0]).unwrap();
        let b = Tensor::from_f64(1, 3, &[0.5, 0.5, 0.5]).unwrap();
        assert_eq!(a.add(&b).unwrap().to_f64_vec(), vec![1.5, -1.5, 3.5]);
        assert_eq!(a.relu().to_f64_vec(), vec![1.0, 0.0, 3.0]);
        assert!(a.add(&Tensor::zeros(1, 2)).is_err());
    }

    #[test]
    fn sum_argmax_dot() {
        let a = Tensor::vector_f64(&[1.0, 5.0, 3.0]);
        assert_eq!(a.sum().to_f64(), 9.0);
        assert_eq!(a.argmax(), 1);
        let b = Tensor::vector_f64(&[2.0, 0.0, 1.0]);
        assert_eq!(a.dot(&b).unwrap().to_f64(), 5.0);
        assert!(a.dot(&Tensor::vector_f64(&[1.0])).is_err());
    }

    #[test]
    fn conv2d_valid_mode() {
        // 3x3 image, 2x2 averaging-ish kernel.
        let img = Tensor::from_f64(3, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]).unwrap();
        let k = Tensor::from_f64(2, 2, &[1.0, 0.0, 0.0, 1.0]).unwrap();
        let out = img.conv2d(&k).unwrap();
        assert_eq!(out.rows(), 2);
        assert_eq!(out.cols(), 2);
        assert_eq!(out.to_f64_vec(), vec![6.0, 8.0, 12.0, 14.0]);
        assert!(k.conv2d(&img).is_err());
    }

    #[test]
    fn accumulation_does_not_saturate_prematurely() {
        // 1000 products of 100 * 1 would saturate pairwise Fix adds if the
        // accumulator were 32-bit; the i64 accumulator must survive.
        let row: Vec<f64> = vec![100.0; 1000];
        let m = Tensor::from_f64(1, 1000, &row).unwrap();
        let v = Tensor::vector_f64(&vec![1.0; 1000]);
        // 100_000 overflows Q16.16 (max ~32767) so the *final* clamp
        // applies, but only once.
        assert_eq!(m.matvec(&v).unwrap().get(0, 0), Fix::MAX);
        let v_small = Tensor::vector_f64(&vec![0.001; 1000]);
        let got = m.matvec(&v_small).unwrap().get(0, 0).to_f64();
        assert!((got - 100.0).abs() < 2.0, "got {got}");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let t = Tensor::zeros(2, 2);
        let _ = t.get(2, 0);
    }
}
