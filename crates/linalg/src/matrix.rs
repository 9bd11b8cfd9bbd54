//! Row-major dense matrix.

use crate::error::{LinalgError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `f64` matrix.
///
/// This is deliberately a simple owned buffer: the matrices that appear in
/// model fitting are small (p × p normal matrices for p parameters, n × p
/// design matrices for one group's observations), so we optimize for clear
/// code and cache-friendly row-major traversal rather than for views and
/// strides.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch { expected: (rows, cols), got: data.len() });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Create a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create the n×n identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Build a design matrix from column slices: each slice becomes one
    /// column. All slices must have equal length.
    pub fn from_columns(columns: &[&[f64]]) -> Result<Self> {
        let cols = columns.len();
        let rows = columns.first().map_or(0, |c| c.len());
        for (i, c) in columns.iter().enumerate() {
            if c.len() != rows {
                return Err(LinalgError::DimensionMismatch {
                    op: "from_columns",
                    lhs: (rows, i),
                    rhs: (c.len(), i),
                });
            }
        }
        Ok(Matrix::from_fn(rows, cols, |r, c| columns[c][r]))
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

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    /// Copy column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Unchecked-by-type get; panics on out-of-range indices like slice
    /// indexing does.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Set one entry.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// True when every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute entry (∞-norm of the vectorization).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        crate::norm2(&self.data)
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps both the rhs row and the output row in
        // cache; this matters for the n×p by p×p products in fitting.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for j in 0..rrow.len() {
                    orow[j] += a * rrow[j];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows).map(|r| crate::dot(self.row(r), v)).collect())
    }

    /// `selfᵀ * v` without materializing the transpose.
    pub fn tr_matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.rows != v.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "tr_matvec",
                lhs: (self.cols, self.rows),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = self.row(r);
            let s = v[r];
            if s == 0.0 {
                continue;
            }
            for (o, &x) in out.iter_mut().zip(row) {
                *o += s * x;
            }
        }
        Ok(out)
    }

    /// Gram matrix `selfᵀ * self` (the `XᵀX` of the normal equations),
    /// exploiting symmetry: only the upper triangle is computed and then
    /// mirrored.
    pub fn gram(&self) -> Matrix {
        let p = self.cols;
        let mut g = Matrix::zeros(p, p);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..p {
                let xi = row[i];
                if xi == 0.0 {
                    continue;
                }
                for j in i..p {
                    g[(i, j)] += xi * row[j];
                }
            }
        }
        for i in 0..p {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// Elementwise sum with `rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Elementwise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a - b).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Scaled copy `self * s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|x| x * s).collect() }
    }

    /// Add `lambda` to every diagonal entry in place (Levenberg-Marquardt
    /// damping and ridge regularization both need this).
    pub fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self.data[i * self.cols + i] += lambda;
        }
    }

    /// Estimate the 1-norm condition number of a square matrix by explicit
    /// inversion through LU. Intended for small fitting matrices where the
    /// O(n³) cost is irrelevant; returns `f64::INFINITY` when singular.
    pub fn condition_estimate(&self) -> f64 {
        if !self.is_square() {
            return f64::NAN;
        }
        let inv = match crate::solve::Lu::new(self).and_then(|lu| lu.inverse()) {
            Ok(inv) => inv,
            Err(_) => return f64::INFINITY,
        };
        self.norm1() * inv.norm1()
    }

    /// Maximum absolute column sum (induced 1-norm).
    pub fn norm1(&self) -> f64 {
        let mut best = 0.0_f64;
        for c in 0..self.cols {
            let mut s = 0.0;
            for r in 0..self.rows {
                s += self[(r, c)].abs();
            }
            best = best.max(s);
        }
        best
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>12.5} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, d: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, d.to_vec()).unwrap()
    }

    #[test]
    fn from_vec_rejects_bad_shape() {
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn identity_matmul_is_identity_op() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let i = Matrix::identity(2);
        assert_eq!(i.matmul(&a).unwrap(), a);
        let i3 = Matrix::identity(3);
        assert_eq!(a.matmul(&i3).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 2, &[1., 2., 3., 4.]);
        let b = m(2, 2, &[5., 6., 7., 8.]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = m(2, 3, &[0.0; 6]);
        let b = m(2, 2, &[0.0; 4]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose()[(0, 1)], 4.0);
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let x = m(4, 2, &[1., 2., 3., 4., 5., 6., 7., 8.]);
        let g = x.gram();
        let explicit = x.transpose().matmul(&x).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((g[(i, j)] - explicit[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn tr_matvec_matches_transpose_matvec() {
        let x = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let v = [1.0, -1.0, 2.0];
        let a = x.tr_matvec(&v).unwrap();
        let b = x.transpose().matvec(&v).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_columns_builds_design_matrix() {
        let c0 = [1.0, 1.0, 1.0];
        let c1 = [2.0, 3.0, 4.0];
        let x = Matrix::from_columns(&[&c0, &c1]).unwrap();
        assert_eq!(x.shape(), (3, 2));
        assert_eq!(x.col(1), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn from_columns_rejects_ragged() {
        let c0 = [1.0, 1.0];
        let c1 = [2.0];
        assert!(Matrix::from_columns(&[&c0, &c1]).is_err());
    }

    #[test]
    fn add_diagonal_damps() {
        let mut a = Matrix::identity(3);
        a.add_diagonal(0.5);
        assert_eq!(a[(0, 0)], 1.5);
        assert_eq!(a[(2, 2)], 1.5);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn condition_of_identity_is_one() {
        let i = Matrix::identity(4);
        assert!((i.condition_estimate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn condition_of_singular_is_infinite() {
        let s = m(2, 2, &[1., 2., 2., 4.]);
        assert!(s.condition_estimate().is_infinite());
    }

    #[test]
    fn norm1_is_max_col_sum() {
        let a = m(2, 2, &[1., -5., 2., 1.]);
        assert_eq!(a.norm1(), 6.0);
    }
}
