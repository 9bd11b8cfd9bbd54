//! Property tests for the dense linear algebra kernels: algebraic
//! identities and solver residuals on random inputs.

use lawsdb_linalg::{Cholesky, Lu, Matrix, Qr};
use proptest::prelude::*;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-5.0f64..5.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("exact size"))
}

fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
    let mut worst = 0.0f64;
    for i in 0..a.rows() {
        for j in 0..a.cols() {
            worst = worst.max((a[(i, j)] - b[(i, j)]).abs());
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_of_product(a in arb_matrix(4, 3), b in arb_matrix(3, 5)) {
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(max_abs_diff(&lhs, &rhs) < 1e-10);
    }

    /// Gram matrix equals the explicit XᵀX product.
    #[test]
    fn gram_matches_explicit(x in arb_matrix(6, 3)) {
        let g = x.gram();
        let explicit = x.transpose().matmul(&x).unwrap();
        prop_assert!(max_abs_diff(&g, &explicit) < 1e-10);
    }

    /// Cholesky solves random SPD systems: ‖A·x − b‖ tiny.
    /// (A = MᵀM + I is positive definite by construction.)
    #[test]
    fn cholesky_solves_random_spd(
        m in arb_matrix(5, 4),
        b in prop::collection::vec(-5.0f64..5.0, 4),
    ) {
        let mut a = m.gram();
        a.add_diagonal(1.0);
        let x = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    /// LU solves random diagonally-dominant systems exactly.
    #[test]
    fn lu_solves_diag_dominant(
        m in arb_matrix(4, 4),
        b in prop::collection::vec(-5.0f64..5.0, 4),
    ) {
        // Make it safely invertible: add a strong diagonal.
        let mut a = m.clone();
        a.add_diagonal(25.0);
        let x = Lu::new(&a).unwrap().solve(&b).unwrap();
        let back = a.matvec(&x).unwrap();
        for (u, v) in back.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }

    /// Least-squares optimality: the QR residual is orthogonal to the
    /// column space (Xᵀ·r ≈ 0) — the normal equations, verified.
    #[test]
    fn qr_residual_is_orthogonal_to_columns(
        m in arb_matrix(8, 3),
        y in prop::collection::vec(-5.0f64..5.0, 8),
    ) {
        // Guard against rank deficiency with a diagonal nudge on the
        // first rows.
        let mut x = m.clone();
        for j in 0..3 {
            x[(j, j)] += 10.0;
        }
        let qr = Qr::new(&x).unwrap();
        let beta = qr.solve_least_squares(&y).unwrap();
        let fitted = x.matvec(&beta).unwrap();
        let r: Vec<f64> = y.iter().zip(&fitted).map(|(a, b)| a - b).collect();
        let xtr = x.tr_matvec(&r).unwrap();
        for v in xtr {
            prop_assert!(v.abs() < 1e-7, "Xᵀr component {v}");
        }
        // And the RSS shortcut agrees with the explicit residual.
        let rss_direct: f64 = r.iter().map(|v| v * v).sum();
        let rss_qr = qr.residual_sum_of_squares(&y).unwrap();
        prop_assert!((rss_direct - rss_qr).abs() <= 1e-7 * (1.0 + rss_direct));
    }
}
