//! Minimal row-major matrix containers used across the PacQ stack.
//!
//! GEMM convention follows the paper (Figure 3): `A` is `[m, k]`
//! activations, `B` is `[k, n]` weights, `C` is `[m, n]` outputs.

use core::fmt;
use pacq_fp16::Fp16;

/// A row-major `rows × cols` matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixF32 {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl MatrixF32 {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        MatrixF32 {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        MatrixF32 { rows, cols, data }
    }

    /// Builds a matrix element-wise.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        MatrixF32 { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds"
        );
        self.data[row * self.cols + col] = value;
    }

    /// The underlying row-major slice, mutable. Row `i` occupies
    /// `[i * cols, (i + 1) * cols)` — chunking by `cols` yields rows,
    /// which is how the execution engines fan work out across threads.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The underlying row-major slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// One row as a slice.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row {row} out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Converts to an FP16 matrix.
    pub fn to_f16(&self) -> MatrixF16 {
        MatrixF16 {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| Fp16::from_f32(v)).collect(),
        }
    }

    /// Reference GEMM `self × rhs` in f64 accumulation (the functional
    /// oracle for every dataflow engine).
    ///
    /// Output rows are independent, so they are fanned out across the
    /// rayon pool; the k-loop stays sequential per element, making the
    /// result bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, rhs: &MatrixF32) -> MatrixF32 {
        use rayon::prelude::*;
        assert_eq!(self.cols, rhs.rows, "inner dimensions must match");
        let n = rhs.cols;
        let mut out = MatrixF32::zeros(self.rows, n);
        if self.rows == 0 || n == 0 {
            return out;
        }
        out.data.par_chunks_mut(n).enumerate().for_each(|(i, row)| {
            let lhs = self.row(i);
            for (j, cell) in row.iter_mut().enumerate() {
                let mut acc = 0f64;
                for (t, &l) in lhs.iter().enumerate() {
                    acc += l as f64 * rhs.get(t, j) as f64;
                }
                *cell = acc as f32;
            }
        });
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Mean squared difference with another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse(&self, other: &MatrixF32) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        if self.data.is_empty() {
            return 0.0;
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| {
                let d = a as f64 - b as f64;
                d * d
            })
            .sum::<f64>()
            / self.data.len() as f64
    }
}

impl fmt::Display for MatrixF32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "MatrixF32 {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "…")?;
        }
        Ok(())
    }
}

/// A row-major matrix of FP16 values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixF16 {
    rows: usize,
    cols: usize,
    data: Vec<Fp16>,
}

impl MatrixF16 {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        MatrixF16 {
            rows,
            cols,
            data: vec![Fp16::ZERO; rows * cols],
        }
    }

    /// Creates from row-major FP16 data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<Fp16>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        MatrixF16 { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Fp16 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: Fp16) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row},{col}) out of bounds"
        );
        self.data[row * self.cols + col] = value;
    }

    /// One row as a slice.
    pub fn row(&self, row: usize) -> &[Fp16] {
        assert!(row < self.rows, "row {row} out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Converts to f32 (exact).
    pub fn to_f32(&self) -> MatrixF32 {
        MatrixF32 {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v.to_f32()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_manual() {
        let a = MatrixF32::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = MatrixF32::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn from_fn_and_accessors() {
        let m = MatrixF32::from_fn(3, 4, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.get(2, 3), 23.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0, 13.0]);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
    }

    #[test]
    fn f16_roundtrip() {
        let m = MatrixF32::from_fn(4, 4, |r, c| (r as f32 - c as f32) * 0.5);
        assert_eq!(m.to_f16().to_f32(), m);
    }

    #[test]
    fn mse_of_identical_is_zero() {
        let m = MatrixF32::from_fn(5, 5, |r, c| (r + c) as f32);
        assert_eq!(m.mse(&m), 0.0);
        assert!(m.frobenius_norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_checked() {
        MatrixF32::zeros(2, 2).get(2, 0);
    }
}
