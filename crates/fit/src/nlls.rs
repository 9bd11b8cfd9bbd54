//! Non-linear least squares: Gauss-Newton and Levenberg-Marquardt.
//!
//! The paper (Section 3) prints the Gauss-Newton update
//! `β⁽ˢ⁺¹⁾ = β⁽ˢ⁾ − (Jr ᵀ Jr)⁻¹ Jr ᵀ r(β⁽ˢ⁾)` and notes that
//! convergence "can be highly dependent on the choice of starting
//! parameters" and that the optimizer can be "trapped in local extrema"
//! — responsibilities it assigns to the user. We implement the printed
//! algorithm faithfully (with a backtracking safeguard so a bad step
//! degrades into an error instead of a NaN spiral) and add
//! Levenberg-Marquardt as the unattended-operation default.

use crate::data::DataSet;
use crate::diagnostics::FitDiagnostics;
use crate::error::{FitError, Result};
use crate::linear::{detect_log_linear, non_positive_weights, LogStart};
use crate::options::{Algorithm, FitOptions, JacobianMode};
use crate::plan::{Compiled, FitPlan};
use crate::FitResult;
use lawsdb_expr::compile::ExecStack;
use lawsdb_expr::deriv::differentiate;
use lawsdb_expr::parser::SymbolSplit;
use lawsdb_expr::{Expr, Formula};
use lawsdb_linalg::{Cholesky, Lu, Matrix};

/// Fit a (generally non-linear) formula by iterative least squares.
pub fn fit_nonlinear(
    formula: &Formula,
    data: &DataSet<'_>,
    options: &FitOptions,
) -> Result<FitResult> {
    FitPlan::iterative(formula, &data.names(), options)?.fit(data)
}

/// The row-independent part of an iterative fit: the compiled body, its
/// symbolic Jacobian columns, and the log-linear form its start is
/// fitted from.
pub(crate) struct IterativePlan {
    body: Compiled,
    /// ∂f/∂βⱼ, one per parameter; `None` for finite differences.
    jacobian: Option<Vec<Compiled>>,
    /// `None` when the formula is not log-linear or the caller named a
    /// start.
    log_start: Option<LogStart>,
}

impl IterativePlan {
    pub(crate) fn new(
        formula: &Formula,
        split: &SymbolSplit,
        columns: &[String],
        options: &FitOptions,
    ) -> Result<IterativePlan> {
        let variables: Vec<&str> = split.variables.iter().map(String::as_str).collect();
        let params = &split.parameters;
        let compile = |e: &Expr| Compiled::new(e, &variables, columns, params);
        let body = compile(&formula.rhs)?;
        let jacobian = match options.jacobian {
            JacobianMode::Symbolic => Some(
                params
                    .iter()
                    .map(|prm| compile(&differentiate(&formula.rhs, prm)?))
                    .collect::<Result<_>>()?,
            ),
            JacobianMode::FiniteDifference => None,
        };
        let log_start = if options.initial.is_empty() {
            detect_log_linear(formula, split)
                .map(|form| LogStart::new(&form, &variables, columns))
                .transpose()?
        } else {
            None
        };
        Ok(IterativePlan { body, jacobian, log_start })
    }

    /// The start the log-space least squares over `cols`' rows gives,
    /// if the formula is log-linear and it succeeds.
    pub(crate) fn start_from_rows(
        &self,
        cols: &[&[f64]],
        stack: &mut ExecStack,
    ) -> Result<Option<Vec<f64>>> {
        match &self.log_start {
            Some(s) => s.start(cols, stack),
            None => Ok(None),
        }
    }

    /// Fit over usable rows: `cols` are the plan's columns, the
    /// response first, all finite.
    pub(crate) fn fit(
        &self,
        params: &[String],
        cols: &[&[f64]],
        weights: Option<usize>,
        options: &FitOptions,
    ) -> Result<FitResult> {
        let p = params.len();
        let y = cols[0];
        let n = y.len();
        if n <= p {
            return Err(FitError::TooFewObservations { observations: n, parameters: p });
        }
        let sqrt_w: Option<Vec<f64>> = match weights.map(|i| cols[i]) {
            None => None,
            Some(w) => {
                if w.iter().any(|&x| x <= 0.0) {
                    return Err(non_positive_weights(options));
                }
                Some(w.iter().map(|x| x.sqrt()).collect())
            }
        };
        let model = &self.body;
        let mut stack = ExecStack::default();

        let weighted_residuals = |beta: &[f64], stack: &mut ExecStack| -> Result<Vec<f64>> {
            let pred = model.eval(cols, beta, stack)?;
            let mut r: Vec<f64> = y.iter().zip(&pred).map(|(yi, fi)| yi - fi).collect();
            if let Some(sw) = &sqrt_w {
                for (ri, swi) in r.iter_mut().zip(sw) {
                    *ri *= swi;
                }
            }
            Ok(r)
        };
        let rss_of = |r: &[f64]| -> f64 { r.iter().map(|v| v * v).sum() };

        let options_start = || params.iter().map(|prm| options.start_for(prm)).collect();
        let from_rows = self.start_from_rows(cols, &mut stack)?;
        let started_from_rows = from_rows.is_some();
        let mut beta: Vec<f64> = from_rows.unwrap_or_else(options_start);
        let mut r = weighted_residuals(&beta, &mut stack)?;
        let mut rss = rss_of(&r);
        if !rss.is_finite() && started_from_rows {
            // The start from the rows skipped rows the model cannot
            // take there; `options`' start may still be finite.
            beta = options_start();
            r = weighted_residuals(&beta, &mut stack)?;
            rss = rss_of(&r);
        }
        if !rss.is_finite() {
            return Err(FitError::NumericalBreakdown {
                detail: "model is non-finite at the starting parameters".to_string(),
            });
        }

        let mut lambda = 1e-3; // LM damping
        let mut converged = false;
        let mut iterations = 0usize;
        let mut final_jtj: Option<Matrix> = None;

        for iter in 0..options.max_iterations {
            iterations = iter + 1;
            // Jacobian of the *model* (∂f/∂β); the residual Jacobian is its
            // negation, which cancels in the normal equations.
            let j = match &self.jacobian {
                Some(jcols) => {
                    let mut m = Matrix::zeros(n, p);
                    for (cidx, c) in jcols.iter().enumerate() {
                        let col = c.eval(cols, &beta, &mut stack)?;
                        for (ridx, v) in col.iter().enumerate() {
                            m[(ridx, cidx)] = *v;
                        }
                    }
                    m
                }
                None => {
                    finite_difference_jacobian(model, cols, &beta, options.fd_step, &mut stack)?
                }
            };
            let j = match &sqrt_w {
                None => j,
                Some(sw) => {
                    let mut m = j;
                    for ridx in 0..n {
                        let s = sw[ridx];
                        for cidx in 0..p {
                            m[(ridx, cidx)] *= s;
                        }
                    }
                    m
                }
            };
            if !j.all_finite() {
                return Err(FitError::NumericalBreakdown {
                    detail: format!("non-finite Jacobian at iteration {iter}"),
                });
            }
            let jtj = j.gram();
            let jtr = j.tr_matvec(&r)?;
            final_jtj = Some(jtj.clone());

            let improved = match options.algorithm {
                Algorithm::GaussNewton => {
                    let delta = solve_spd(&jtj, &jtr)?;
                    // Backtracking: halve the step until RSS improves (or
                    // give up after 12 halvings — the paper's "it is the
                    // user's responsibility" case).
                    let mut step = 1.0;
                    let mut accepted = false;
                    for _ in 0..12 {
                        let cand: Vec<f64> =
                            beta.iter().zip(&delta).map(|(b, d)| b + step * d).collect();
                        if let Ok(rc) = weighted_residuals(&cand, &mut stack) {
                            let rssc = rss_of(&rc);
                            if rssc.is_finite() && rssc < rss {
                                beta = cand;
                                r = rc;
                                let old = rss;
                                rss = rssc;
                                accepted = true;
                                if (old - rss).abs() <= options.tolerance * rss.max(1e-300) {
                                    converged = true;
                                }
                                break;
                            }
                        }
                        step *= 0.5;
                    }
                    accepted
                }
                Algorithm::LevenbergMarquardt => {
                    let mut accepted = false;
                    for _ in 0..30 {
                        // (JᵀJ + λ·diag(JᵀJ))δ = Jᵀr
                        let mut damped = jtj.clone();
                        for d in 0..p {
                            let dd = jtj[(d, d)];
                            damped[(d, d)] = dd + lambda * dd.max(1e-12);
                        }
                        let delta = match solve_spd(&damped, &jtr) {
                            Ok(d) => d,
                            Err(_) => {
                                lambda *= 10.0;
                                continue;
                            }
                        };
                        let cand: Vec<f64> =
                            beta.iter().zip(&delta).map(|(b, d)| b + d).collect();
                        if let Ok(rc) = weighted_residuals(&cand, &mut stack) {
                            let rssc = rss_of(&rc);
                            if rssc.is_finite() && rssc < rss {
                                beta = cand;
                                r = rc;
                                let old = rss;
                                rss = rssc;
                                lambda = (lambda / 3.0).max(1e-12);
                                accepted = true;
                                if (old - rss).abs() <= options.tolerance * rss.max(1e-300)
                                {
                                    converged = true;
                                }
                                break;
                            }
                        }
                        lambda *= 5.0;
                        if lambda > 1e12 {
                            break;
                        }
                    }
                    accepted
                }
            };

            if converged {
                break;
            }
            if !improved {
                // No direction improves: either converged to machine
                // precision or stuck; treat tiny gradients as convergence.
                let grad_norm = lawsdb_linalg::norm2(&jtr);
                if grad_norm <= 1e-10 * (1.0 + rss) {
                    converged = true;
                }
                break;
            }
        }

        if !converged && iterations >= options.max_iterations {
            return Err(FitError::DidNotConverge { iterations, rss });
        }

        let tss = lawsdb_linalg::ops::total_sum_of_squares(y);
        let xtx_inv =
            final_jtj.and_then(|m| Cholesky::new(&m).ok().and_then(|c| c.inverse().ok()));
        let diagnostics = FitDiagnostics::compute(n, params, &beta, rss, tss, xtx_inv.as_ref());
        Ok(FitResult {
            params: params.iter().cloned().zip(beta).collect(),
            diagnostics,
            iterations,
            converged,
            used_linear_path: false,
        })
    }
}

/// Solve a symmetric positive-(semi)definite system, falling back to LU
/// when Cholesky rejects a semidefinite matrix.
fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    match Cholesky::new(a) {
        Ok(ch) => Ok(ch.solve(b)?),
        Err(_) => Ok(Lu::new(a)?.solve(b)?),
    }
}

/// Central-difference Jacobian of the model in the parameters.
fn finite_difference_jacobian(
    model: &Compiled,
    cols: &[&[f64]],
    beta: &[f64],
    step: f64,
    stack: &mut ExecStack,
) -> Result<Matrix> {
    let (n, p) = (cols[0].len(), beta.len());
    let mut j = Matrix::zeros(n, p);
    let mut work = beta.to_vec();
    for cidx in 0..p {
        let h = step * (1.0 + beta[cidx].abs());
        work[cidx] = beta[cidx] + h;
        let hi = model.eval(cols, &work, stack)?;
        work[cidx] = beta[cidx] - h;
        let lo = model.eval(cols, &work, stack)?;
        work[cidx] = beta[cidx];
        for ridx in 0..n {
            j[(ridx, cidx)] = (hi[ridx] - lo[ridx]) / (2.0 * h);
        }
    }
    Ok(j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_expr::parse_formula;

    fn power_law_data(p: f64, alpha: f64, noise: f64) -> (Vec<f64>, Vec<f64>) {
        let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
        let mut nu = Vec::new();
        let mut y = Vec::new();
        for i in 0..80 {
            let f = freqs[i % 4];
            let e = ((i * 2654435761usize % 1000) as f64 / 1000.0 - 0.5) * noise;
            nu.push(f);
            y.push(p * f.powf(alpha) + e);
        }
        (nu, y)
    }

    fn fit(formula: &str, nu: &[f64], y: &[f64], options: FitOptions) -> Result<FitResult> {
        let f = parse_formula(formula).unwrap();
        let data = DataSet::new(vec![("nu", nu), ("y", y)]).unwrap();
        fit_nonlinear(&f, &data, &options)
    }

    #[test]
    fn lm_recovers_exact_power_law() {
        let (nu, y) = power_law_data(2.0, -0.7, 0.0);
        let r = fit("y ~ p * nu ^ alpha", &nu, &y, FitOptions::default()).unwrap();
        assert!(r.converged);
        assert!((r.param("p").unwrap() - 2.0).abs() < 1e-8, "{:?}", r.params);
        assert!((r.param("alpha").unwrap() + 0.7).abs() < 1e-8);
        assert!(r.diagnostics.r2 > 0.999999);
    }

    #[test]
    fn lm_recovers_noisy_power_law() {
        let (nu, y) = power_law_data(0.0626, -0.718, 0.005);
        let r = fit("y ~ p * nu ^ alpha", &nu, &y, FitOptions::default()).unwrap();
        assert!((r.param("p").unwrap() - 0.0626).abs() < 0.01);
        assert!((r.param("alpha").unwrap() + 0.718).abs() < 0.15);
        assert!(r.diagnostics.residual_se < 0.01);
    }

    #[test]
    fn gauss_newton_matches_lm_on_well_behaved_problem() {
        let (nu, y) = power_law_data(2.0, -0.7, 0.001);
        let gn = fit(
            "y ~ p * nu ^ alpha",
            &nu,
            &y,
            FitOptions::default().with_algorithm(Algorithm::GaussNewton),
        )
        .unwrap();
        let lm = fit("y ~ p * nu ^ alpha", &nu, &y, FitOptions::default()).unwrap();
        assert!((gn.param("p").unwrap() - lm.param("p").unwrap()).abs() < 1e-5);
        assert!((gn.param("alpha").unwrap() - lm.param("alpha").unwrap()).abs() < 1e-5);
    }

    #[test]
    fn finite_difference_jacobian_agrees_with_symbolic() {
        let (nu, y) = power_law_data(1.5, -0.5, 0.002);
        let sym = fit("y ~ p * nu ^ alpha", &nu, &y, FitOptions::default()).unwrap();
        let fd = fit(
            "y ~ p * nu ^ alpha",
            &nu,
            &y,
            FitOptions::default().with_jacobian(JacobianMode::FiniteDifference),
        )
        .unwrap();
        assert!((sym.param("p").unwrap() - fd.param("p").unwrap()).abs() < 1e-5);
        assert!((sym.param("alpha").unwrap() - fd.param("alpha").unwrap()).abs() < 1e-5);
    }

    #[test]
    fn exponential_decay_fit() {
        let xs: Vec<f64> = (0..60).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 * (-0.8 * x).exp()).collect();
        let f = parse_formula("y ~ a * exp(b * x)").unwrap();
        let data = DataSet::new(vec![("x", &xs[..]), ("y", &ys[..])]).unwrap();
        let opts = FitOptions::default().with_initial("b", -0.1);
        let r = fit_nonlinear(&f, &data, &opts).unwrap();
        assert!((r.param("a").unwrap() - 5.0).abs() < 1e-6);
        assert!((r.param("b").unwrap() + 0.8).abs() < 1e-6);
    }

    #[test]
    fn sinusoid_fit_with_good_start() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * (1.5 * x).sin() + 0.5).collect();
        let f = parse_formula("y ~ amp * sin(freq * x) + off").unwrap();
        let data = DataSet::new(vec![("x", &xs[..]), ("y", &ys[..])]).unwrap();
        let opts = FitOptions::default().with_initial("freq", 1.4).with_initial("amp", 1.5);
        let r = fit_nonlinear(&f, &data, &opts).unwrap();
        assert!((r.param("freq").unwrap() - 1.5).abs() < 1e-6);
        assert!((r.param("amp").unwrap() - 2.0).abs() < 1e-6);
        assert!((r.param("off").unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn weighted_nlls_downweights_outliers() {
        let (nu, mut y) = power_law_data(2.0, -0.7, 0.0);
        // Poison two observations; give them negligible weight.
        y[0] = 100.0;
        y[1] = -50.0;
        let mut w = vec![1.0; y.len()];
        w[0] = 1e-9;
        w[1] = 1e-9;
        let f = parse_formula("y ~ p * nu ^ alpha").unwrap();
        let data = DataSet::new(vec![("nu", &nu[..]), ("y", &y[..]), ("w", &w[..])]).unwrap();
        let opts = FitOptions { weights_column: Some("w".to_string()), ..Default::default() };
        let r = fit_nonlinear(&f, &data, &opts).unwrap();
        assert!((r.param("p").unwrap() - 2.0).abs() < 1e-4);
        assert!((r.param("alpha").unwrap() + 0.7).abs() < 1e-3);
    }

    #[test]
    fn too_few_observations_rejected() {
        let nu = [0.12, 0.15];
        let y = [1.0, 2.0];
        assert!(matches!(
            fit("y ~ p * nu ^ alpha", &nu, &y, FitOptions::default()),
            Err(FitError::TooFewObservations { .. })
        ));
    }

    #[test]
    fn non_finite_start_is_a_clean_error() {
        let (nu, y) = power_law_data(2.0, -0.7, 0.0);
        // ln of a negative start value → NaN predictions.
        let opts = FitOptions::default().with_initial("p", f64::NAN);
        assert!(matches!(
            fit("y ~ p * nu ^ alpha", &nu, &y, opts),
            Err(FitError::NumericalBreakdown { .. })
        ));
    }

    #[test]
    fn iteration_budget_exhaustion_is_reported() {
        let (nu, y) = power_law_data(2.0, -0.7, 0.01);
        let opts = FitOptions { max_iterations: 1, tolerance: 0.0, ..Default::default() };
        let res = fit("y ~ p * nu ^ alpha", &nu, &y, opts);
        // Either converged in one step (unlikely with tol 0) or a
        // DidNotConverge error; both are acceptable, a panic is not.
        if let Err(e) = res {
            assert!(matches!(e, FitError::DidNotConverge { .. }));
        }
    }

    #[test]
    fn nan_rows_are_dropped_before_fitting() {
        let (mut nu, mut y) = power_law_data(2.0, -0.7, 0.0);
        nu[3] = f64::NAN;
        y[7] = f64::NAN;
        let r = fit("y ~ p * nu ^ alpha", &nu, &y, FitOptions::default()).unwrap();
        assert_eq!(r.diagnostics.n, nu.len() - 2);
        assert!((r.param("alpha").unwrap() + 0.7).abs() < 1e-6);
    }

    #[test]
    fn a_fit_that_names_a_start_keeps_its_bits() {
        // Recorded before fits took their start from the data: naming
        // any parameter keeps `options`' start, and so every bit.
        let (nu, y) = power_law_data(0.0626, -0.718, 0.005);
        let w: Vec<f64> = (0..nu.len()).map(|i| 1.0 + (i % 3) as f64).collect();
        let data = DataSet::new(vec![("nu", &nu[..]), ("y", &y[..]), ("w", &w[..])]).unwrap();
        let f = parse_formula("y ~ p * nu ^ alpha").unwrap();
        let cases = [
            (
                FitOptions::default().with_initial("alpha", -0.5),
                [0xbfe6ca8b18c97622, 0x3fb032ac6406fd23, 0x3f25845d6cb73d36],
                7,
            ),
            (
                FitOptions {
                    weights_column: Some("w".into()),
                    ..FitOptions::default().with_initial("p", 0.2)
                },
                [0xbfe6cd902d96e3e8, 0x3fb02f959270e5bc, 0x3f3519c2253f017e],
                17,
            ),
            (
                FitOptions::default()
                    .with_initial("alpha", -0.5)
                    .with_algorithm(Algorithm::GaussNewton),
                [0xbfe6ca8b18c7fa1e, 0x3fb032ac64086fe4, 0x3f25845d6cb73d30],
                7,
            ),
        ];
        for (options, bits, iterations) in cases {
            let r = crate::fit_auto(&f, &data, &options).unwrap();
            let got = [r.params[0].1, r.params[1].1, r.diagnostics.rss].map(f64::to_bits);
            assert_eq!((got, r.iterations), (bits, iterations), "{options:?}");
        }
    }

    #[test]
    fn a_start_the_model_cannot_take_falls_back_to_the_options_start() {
        // ln x is NaN at the negative x, so the log-space fit skips those
        // rows, and x ^ a is NaN there at its non-integer a.
        let x: Vec<f64> =
            (0..40).map(|i| if i % 5 == 0 { -1.0 } else { 0.1 + i as f64 * 0.05 }).collect();
        let y: Vec<f64> = x.iter().map(|x| 2.0 * x.abs().powf(-0.7)).collect();
        let data = DataSet::new(vec![("x", &x[..]), ("y", &y[..])]).unwrap();
        let f = parse_formula("y ~ p * x ^ a").unwrap();
        // At a = 1 the model is finite, and the fit then fails where
        // it failed before it took its start from the data.
        let from_data = fit_nonlinear(&f, &data, &FitOptions::default()).unwrap_err();
        let pinned = FitOptions::default().with_initial("a", 1.0);
        assert_eq!(from_data, fit_nonlinear(&f, &data, &pinned).unwrap_err());
        assert!(from_data.to_string().contains("Jacobian"), "{from_data}");
    }
}
