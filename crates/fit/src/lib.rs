//! # lawsdb-fit
//!
//! Model fitting for LawsDB — the algorithmic core of Section 3 of
//! *"Capturing the Laws of (Data) Nature"*.
//!
//! The paper distinguishes exactly two classes:
//!
//! > "In the simpler case of linear models (y = Xβ + ε), we can use the
//! > ordinary least squares method to find an analytical solution …
//! > Contrary, in the general (non-linear) case, we have to fall back to
//! > optimization algorithms. For example, the Gauss-Newton algorithm…"
//!
//! and this crate implements both, plus the machinery around them:
//!
//! * [`linear`] — **linearity detection**: a formula is linear in its
//!   *parameters* iff every ∂f/∂βᵢ is parameter-free; the detector
//!   derives the design-matrix columns symbolically and dispatches to
//!   OLS (QR by default, normal equations + Cholesky as the fast
//!   ablation path), with weighted and ridge variants.
//! * [`nlls`] — **Gauss-Newton** exactly as printed in the paper
//!   (β⁽ˢ⁺¹⁾ = β⁽ˢ⁾ − (JᵀJ)⁻¹Jᵀr) and **Levenberg-Marquardt** damping
//!   for the ill-conditioned cases where plain Gauss-Newton diverges;
//!   Jacobians are symbolic by default with a finite-difference option
//!   (the ablation benchmark compares both).
//! * [`diagnostics`] — the quality judgment the interception layer
//!   applies before storing a model: R², adjusted R², residual standard
//!   error (the paper's Table 1 column), the F-test against the
//!   intercept-only model, AIC/BIC, and per-parameter standard errors
//!   and t-statistics.
//! * [`grouped`] — per-group fitting ("we would get a set of model
//!   parameters for each aggregation group"): one small fit per source,
//!   parallelized across OS threads, producing exactly the paper's
//!   Table 1 parameter table — source, p, α, residual SE.
//!
//! The part of a fit that does not depend on the rows (symbol split,
//! detection, Jacobian, compiled programs) is prepared once per capture
//! as a fit plan and run over every group.
//!
//! The paper leaves the start of Gauss-Newton to the user. A database
//! fitting unattended picks it from the data: when `ln f` is linear in
//! transformed parameters ([`detect_log_linear`]), each fit starts from
//! the least-squares fit of `ln y` over its own rows, so the start is a
//! function of the group's rows alone.

// `!(x >= y)` guards are NaN-aware: an undefined diagnostic must fail
// the quality gate.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod data;
pub mod diagnostics;
pub mod error;
pub mod grouped;
pub mod linear;
pub mod nlls;
pub mod options;
mod plan;

pub use data::DataSet;
pub use diagnostics::FitDiagnostics;
pub use error::{FitError, Result};
pub use grouped::{fit_grouped, GroupFit, GroupedFitResult};
pub use linear::{detect_linear, detect_log_linear, LinearForm, LogLinearForm};
pub use nlls::fit_nonlinear;
pub use options::{Algorithm, FitOptions, JacobianMode, LinearSolver};

use lawsdb_expr::Formula;
use plan::FitPlan;

/// The result of fitting one model to one data set.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// Fitted parameter values, keyed by name, sorted by name.
    pub params: Vec<(String, f64)>,
    /// Goodness-of-fit report.
    pub diagnostics: FitDiagnostics,
    /// Iterations consumed (0 for linear fits).
    pub iterations: usize,
    /// True when the optimizer met its convergence tolerance (always
    /// true for linear fits).
    pub converged: bool,
    /// Whether the linear (analytic) or non-linear (iterative) path ran.
    pub used_linear_path: bool,
}

impl FitResult {
    /// Value of the named parameter.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Fit a formula to data, choosing the analytic linear path when the
/// model is linear in its parameters and Gauss-Newton/LM otherwise —
/// the dispatch rule of Section 3.
pub fn fit_auto(formula: &Formula, data: &DataSet<'_>, options: &FitOptions) -> Result<FitResult> {
    FitPlan::new(formula, &data.names(), options)?.fit(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_expr::parse_formula;

    #[test]
    fn auto_dispatches_linear_to_analytic_path() {
        let f = parse_formula("y ~ a + b * x").unwrap();
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x).collect();
        let data = DataSet::new(vec![("x", &xs[..]), ("y", &ys[..])]).unwrap();
        let r = fit_auto(&f, &data, &FitOptions::default()).unwrap();
        assert!(r.used_linear_path);
        assert!((r.param("a").unwrap() - 2.0).abs() < 1e-10);
        assert!((r.param("b").unwrap() - 3.0).abs() < 1e-10);
    }

    #[test]
    fn auto_dispatches_power_law_to_nlls() {
        let f = parse_formula("y ~ p * x ^ alpha").unwrap();
        let xs: Vec<f64> = (1..60).map(|i| 0.1 + i as f64 * 0.01).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x.powf(-0.7)).collect();
        let data = DataSet::new(vec![("x", &xs[..]), ("y", &ys[..])]).unwrap();
        let r = fit_auto(&f, &data, &FitOptions::default()).unwrap();
        assert!(!r.used_linear_path);
        assert!(r.converged);
        assert!((r.param("p").unwrap() - 2.0).abs() < 1e-6);
        assert!((r.param("alpha").unwrap() + 0.7).abs() < 1e-6);
    }

    #[test]
    fn formula_without_parameters_is_rejected() {
        let f = parse_formula("y ~ x * 2").unwrap();
        let xs = [1.0, 2.0];
        let ys = [2.0, 4.0];
        let data = DataSet::new(vec![("x", &xs[..]), ("y", &ys[..])]).unwrap();
        assert!(matches!(
            fit_auto(&f, &data, &FitOptions::default()),
            Err(FitError::NoParameters { .. })
        ));
    }
}
