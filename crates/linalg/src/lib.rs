//! # lawsdb-linalg
//!
//! Dense linear algebra and statistical special functions for LawsDB.
//!
//! This crate is the numerical substrate for the model-fitting machinery
//! described in Section 3 of *"Capturing the Laws of (Data) Nature"*
//! (CIDR 2015): ordinary least squares via the normal equations
//! `β̂ = (XᵀX)⁻¹Xᵀy` or (better conditioned) a Householder QR
//! factorization, and the Gauss-Newton / Levenberg-Marquardt updates
//! `β⁽ˢ⁺¹⁾ = β⁽ˢ⁾ − (JᵀJ)⁻¹Jᵀr` which require solving small dense
//! symmetric systems per iteration.
//!
//! Everything is implemented from scratch on plain `f64` buffers: no BLAS,
//! no external numerics crates. Matrices are row-major [`Matrix`] values;
//! factorizations are separate types ([`Cholesky`], [`Qr`], [`Lu`]) so a
//! factorization can be reused across many right-hand sides (the grouped
//! fitting path in `lawsdb-fit` relies on this).
//!
//! The [`special`] module provides ln-gamma, regularized incomplete
//! beta/gamma and erf, from which the [`dist`] module derives the Normal,
//! Student-t and F distributions used to judge model quality
//! (residual standard error, F-tests, parameter t-statistics).

// `!(x > y)` is a deliberate NaN-aware guard (NaN must take the error
// branch), and index loops over multiple co-indexed buffers are the
// clearest form for the factorization kernels.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]

pub mod dist;
pub mod error;
pub mod matrix;
pub mod ops;
pub mod solve;
pub mod special;

pub use error::{LinalgError, Result};
pub use matrix::Matrix;
pub use solve::{Cholesky, Lu, Qr};

/// Machine-epsilon-scaled tolerance used by the factorizations to decide
/// that a pivot is numerically zero.
pub const PIVOT_TOL: f64 = 1e-12;

/// Dot product of two equal-length slices.
///
/// Panics in debug builds if the lengths differ; in release builds the
/// shorter length wins (callers in this workspace always pass equal
/// lengths — the debug assertion documents the contract).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Four independent partial sums: faster on the long residual vectors
    // produced by grouped fitting and less rounding correlation.
    let n = a.len().min(b.len());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let chunks = n / 4;
    for i in 0..chunks {
        let k = i * 4;
        s0 += a[k] * b[k];
        s1 += a[k + 1] * b[k + 1];
        s2 += a[k + 2] * b[k + 2];
        s3 += a[k + 3] * b[k + 3];
    }
    for k in chunks * 4..n {
        s0 += a[k] * b[k];
    }
    (s0 + s1) + (s2 + s3)
}

/// Euclidean (L2) norm of a slice, guarded against overflow/underflow by
/// scaling with the largest absolute entry.
#[inline]
pub fn norm2(v: &[f64]) -> f64 {
    let maxabs = v.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
    if maxabs == 0.0 || !maxabs.is_finite() {
        return maxabs;
    }
    let mut s = 0.0;
    for &x in v {
        let t = x / maxabs;
        s += t * t;
    }
    maxabs * s.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f64> = (0..17).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..17).map(|i| (i as f64).sin()).collect();
        let naive: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-12);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm2_is_scale_safe() {
        // Naive sum-of-squares would overflow here.
        let v = [1e200, 1e200];
        let n = norm2(&v);
        assert!((n - 2.0_f64.sqrt() * 1e200).abs() / n < 1e-12);
    }

    #[test]
    fn norm2_zero_vector() {
        assert_eq!(norm2(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn norm2_tiny_values_do_not_underflow() {
        let v = [1e-200, 1e-200];
        let n = norm2(&v);
        assert!((n - 2.0_f64.sqrt() * 1e-200).abs() / n < 1e-12);
    }
}
