//! Dense factorizations: Cholesky, Householder QR and LU with partial
//! pivoting, plus the triangular solves built on top of them.
//!
//! The fitting layer chooses between two OLS paths (Section 3 of the
//! paper solves the normal equations `(XᵀX)β̂ = Xᵀy`):
//!
//! * **Cholesky of the Gram matrix** — fastest, used for well-conditioned
//!   grouped fits where the same tiny normal matrix shape repeats tens of
//!   thousands of times;
//! * **Householder QR of the design matrix** — numerically preferable when
//!   the design is ill-conditioned (squaring the condition number in the
//!   Gram matrix loses half the digits).

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::PIVOT_TOL;

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
/// matrix. Only the lower triangle of the input is read.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored dense.
    l: Matrix,
}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        // Scale-aware positive-definiteness threshold: a diagonal pivot is
        // "zero" relative to the largest diagonal entry of A.
        let diag_max = (0..n).fold(0.0_f64, |m, i| m.max(a[(i, i)].abs())).max(1.0);
        let tol = diag_max * PIVOT_TOL * PIVOT_TOL;
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if !(d > tol) {
                return Err(LinalgError::NotPositiveDefinite { index: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A·x = b` via forward then backward substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // L·y = b
        let mut y = b.to_vec();
        for i in 0..n {
            let mut s = y[i];
            for k in 0..i {
                s -= self.l[(i, k)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Lᵀ·x = y
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.l[(k, i)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Inverse of the factored matrix (used for parameter covariance
    /// `σ²(XᵀX)⁻¹` in fit diagnostics).
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        Ok(inv)
    }
}

/// Householder QR factorization of an m×n matrix with m ≥ n.
///
/// Stores the Householder vectors in the lower trapezoid of the working
/// matrix and R in the upper triangle, exactly like LAPACK's `geqrf`.
#[derive(Debug, Clone)]
pub struct Qr {
    qr: Matrix,
    /// Householder scalar coefficients τ.
    tau: Vec<f64>,
}

impl Qr {
    /// Factor a matrix with at least as many rows as columns.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::UnderDetermined { rows: m, cols: n });
        }
        let mut qr = a.clone();
        let mut tau = vec![0.0; n];
        for k in 0..n {
            // Build the Householder reflector for column k below row k.
            let mut norm = 0.0_f64;
            for i in k..m {
                norm = norm.hypot(qr[(i, k)]);
            }
            if norm == 0.0 {
                tau[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] > 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // Normalize so v[k] = 1 implicitly; store v below the diagonal.
            for i in (k + 1)..m {
                qr[(i, k)] /= v0;
            }
            tau[k] = -v0 / alpha;
            qr[(k, k)] = alpha;
            // Apply reflector to the trailing columns.
            for j in (k + 1)..n {
                let mut s = qr[(k, j)];
                for i in (k + 1)..m {
                    s += qr[(i, k)] * qr[(i, j)];
                }
                s *= tau[k];
                qr[(k, j)] -= s;
                for i in (k + 1)..m {
                    let vik = qr[(i, k)];
                    qr[(i, j)] -= s * vik;
                }
            }
        }
        Ok(Qr { qr, tau })
    }

    /// Shape of the factored matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.qr.shape()
    }

    /// Apply `Qᵀ` to a vector in place.
    fn apply_qt(&self, b: &mut [f64]) {
        let (m, n) = self.qr.shape();
        for k in 0..n {
            if self.tau[k] == 0.0 {
                continue;
            }
            let mut s = b[k];
            for i in (k + 1)..m {
                s += self.qr[(i, k)] * b[i];
            }
            s *= self.tau[k];
            b[k] -= s;
            for i in (k + 1)..m {
                b[i] -= s * self.qr[(i, k)];
            }
        }
    }

    /// Solve the least-squares problem `min ‖A·x − b‖₂`.
    ///
    /// Returns the coefficient vector of length `n`. Fails with
    /// [`LinalgError::Singular`] when `A` is rank-deficient.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "qr solve",
                lhs: (m, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        // Back substitution on R (n×n upper triangle).
        let rmax = (0..n).fold(0.0_f64, |acc, i| acc.max(self.qr[(i, i)].abs())).max(1.0);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.qr[(i, j)] * x[j];
            }
            let d = self.qr[(i, i)];
            if d.abs() <= rmax * PIVOT_TOL {
                return Err(LinalgError::Singular { what: "qr", pivot: i });
            }
            x[i] = s / d;
        }
        Ok(x)
    }

    /// Residual sum of squares of the least-squares solution, available
    /// for free as the squared norm of the trailing part of `Qᵀb`.
    pub fn residual_sum_of_squares(&self, b: &[f64]) -> Result<f64> {
        let (m, n) = self.qr.shape();
        if b.len() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "qr rss",
                lhs: (m, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        Ok(crate::dot(&y[n..], &y[n..]))
    }

    /// Copy of the upper-triangular factor R (n×n).
    pub fn r(&self) -> Matrix {
        let n = self.qr.cols();
        Matrix::from_fn(n, n, |i, j| if j >= i { self.qr[(i, j)] } else { 0.0 })
    }

    /// `(RᵀR)⁻¹ = (XᵀX)⁻¹` — the unscaled parameter covariance.
    pub fn xtx_inverse(&self) -> Result<Matrix> {
        let r = self.r();
        let n = r.rows();
        // Invert R by back substitution against identity columns, then
        // form R⁻¹·R⁻ᵀ.
        let rmax = (0..n).fold(0.0_f64, |acc, i| acc.max(r[(i, i)].abs())).max(1.0);
        let mut rinv = Matrix::zeros(n, n);
        for col in 0..n {
            let mut x = vec![0.0; n];
            for i in (0..=col).rev() {
                let mut s = if i == col { 1.0 } else { 0.0 };
                for j in (i + 1)..=col {
                    s -= r[(i, j)] * x[j];
                }
                let d = r[(i, i)];
                if d.abs() <= rmax * PIVOT_TOL {
                    return Err(LinalgError::Singular { what: "qr xtx_inverse", pivot: i });
                }
                x[i] = s / d;
            }
            for i in 0..n {
                rinv[(i, col)] = x[i];
            }
        }
        rinv.matmul(&rinv.transpose())
    }
}

/// LU factorization with partial pivoting for general square systems.
#[derive(Debug, Clone)]
pub struct Lu {
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now at position i.
    perm: Vec<usize>,
}

impl Lu {
    /// Factor a square matrix.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let scale = lu.max_abs().max(1.0);
        for k in 0..n {
            // Partial pivot: largest absolute entry in column k at/below k.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val <= scale * PIVOT_TOL {
                return Err(LinalgError::Singular { what: "lu", pivot: k });
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    let d = lu[(k, j)];
                    lu[(i, j)] -= factor * d;
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solve `A·x = b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Apply permutation.
        let mut y: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit lower triangle.
        for i in 1..n {
            let mut s = y[i];
            for k in 0..i {
                s -= self.lu[(i, k)] * y[k];
            }
            y[i] = s;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.lu[(i, k)] * y[k];
            }
            y[i] = s / self.lu[(i, i)];
        }
        Ok(y)
    }

    /// Explicit inverse, one solve per identity column.
    pub fn inverse(&self) -> Result<Matrix> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, d: &[f64]) -> Matrix {
        Matrix::from_vec(rows, cols, d.to_vec()).unwrap()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]], b = [10, 9] → x = [2, 5/3]... compute: solve.
        let a = m(2, 2, &[4., 2., 2., 3.]);
        let ch = Cholesky::new(&a).unwrap();
        let x = ch.solve(&[10.0, 9.0]).unwrap();
        let back = a.matvec(&x).unwrap();
        assert_close(&back, &[10.0, 9.0], 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = m(2, 2, &[1., 2., 2., 1.]); // eigenvalues 3, -1
        assert!(matches!(Cholesky::new(&a), Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let a = m(2, 3, &[0.0; 6]);
        assert!(matches!(Cholesky::new(&a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn cholesky_factor_reconstructs() {
        let a = m(3, 3, &[25., 15., -5., 15., 18., 0., -5., 0., 11.]);
        let ch = Cholesky::new(&a).unwrap();
        let l = ch.l();
        let back = l.matmul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((back[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
        // Known factor: L = [[5,0,0],[3,3,0],[-1,1,3]]
        assert!((l[(0, 0)] - 5.0).abs() < 1e-12);
        assert!((l[(2, 2)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cholesky_inverse() {
        let a = m(2, 2, &[2., 0., 0., 8.]);
        let ch = Cholesky::new(&a).unwrap();
        let inv = ch.inverse().unwrap();
        assert!((inv[(0, 0)] - 0.5).abs() < 1e-12);
        assert!((inv[(1, 1)] - 0.125).abs() < 1e-12);
    }

    #[test]
    fn qr_least_squares_recovers_line() {
        // y = 3 + 2x exactly.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x).collect();
        let ones = [1.0; 4];
        let design = Matrix::from_columns(&[&ones, &xs]).unwrap();
        let qr = Qr::new(&design).unwrap();
        let beta = qr.solve_least_squares(&ys).unwrap();
        assert_close(&beta, &[3.0, 2.0], 1e-10);
        assert!(qr.residual_sum_of_squares(&ys).unwrap() < 1e-18);
    }

    #[test]
    fn qr_matches_cholesky_on_overdetermined() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64 / 3.0).collect();
        let ys: Vec<f64> = xs.iter().enumerate().map(|(i, x)| 1.5 - 0.7 * x + ((i * 37) % 11) as f64 * 0.01).collect();
        let ones = vec![1.0; 20];
        let design = Matrix::from_columns(&[&ones, &xs]).unwrap();
        let qr_beta = Qr::new(&design).unwrap().solve_least_squares(&ys).unwrap();
        let gram = design.gram();
        let rhs = design.tr_matvec(&ys).unwrap();
        let ch_beta = Cholesky::new(&gram).unwrap().solve(&rhs).unwrap();
        assert_close(&qr_beta, &ch_beta, 1e-8);
    }

    #[test]
    fn qr_detects_rank_deficiency() {
        // Second column is 2× the first.
        let c0 = [1.0, 2.0, 3.0];
        let c1 = [2.0, 4.0, 6.0];
        let design = Matrix::from_columns(&[&c0, &c1]).unwrap();
        let qr = Qr::new(&design).unwrap();
        assert!(qr.solve_least_squares(&[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn qr_rejects_underdetermined() {
        let a = m(2, 3, &[0.0; 6]);
        assert!(matches!(Qr::new(&a), Err(LinalgError::UnderDetermined { .. })));
    }

    #[test]
    fn qr_xtx_inverse_matches_direct() {
        let c0 = [1.0, 1.0, 1.0, 1.0];
        let c1 = [0.0, 1.0, 2.0, 5.0];
        let x = Matrix::from_columns(&[&c0, &c1]).unwrap();
        let viaqr = Qr::new(&x).unwrap().xtx_inverse().unwrap();
        let direct = Lu::new(&x.gram()).unwrap().inverse().unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((viaqr[(i, j)] - direct[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn lu_solves_general_system() {
        let a = m(3, 3, &[0., 2., 1., 1., -2., -3., -1., 1., 2.]);
        let lu = Lu::new(&a).unwrap();
        let b = [-8.0, 0.0, 3.0];
        let x = lu.solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        assert_close(&back, &b, 1e-10);
    }

    #[test]
    fn lu_rejects_singular() {
        let a = m(2, 2, &[1., 2., 2., 4.]);
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn lu_inverse_times_matrix_is_identity() {
        let a = m(3, 3, &[2., 1., 1., 1., 3., 2., 1., 0., 0.]);
        let inv = Lu::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - expect).abs() < 1e-10);
            }
        }
    }
}
