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
//!
//! With a symbolic Jacobian, one program computes the body and every
//! ∂f/∂βⱼ together, so evaluating a candidate yields its residuals and
//! its Jacobian, and an accepted candidate's Jacobian is the next
//! iteration's. JᵀJ and Jᵀr are summed straight from the Jacobian's
//! columns.

use crate::data::DataSet;
use crate::diagnostics::FitDiagnostics;
use crate::error::{FitError, Result};
use crate::linear::{detect_log_linear, non_positive_weights, LogStart};
use crate::options::{Algorithm, FitOptions, JacobianMode};
use crate::plan::{Compiled, FitPlan, Workspace};
use crate::FitResult;
use lawsdb_expr::compile::Registers;
use lawsdb_expr::deriv::differentiate;
use lawsdb_expr::parser::SymbolSplit;
use lawsdb_expr::Formula;
use lawsdb_linalg::{Cholesky, Lu, Matrix};

/// Fit a (generally non-linear) formula by iterative least squares.
pub fn fit_nonlinear(
    formula: &Formula,
    data: &DataSet<'_>,
    options: &FitOptions,
) -> Result<FitResult> {
    FitPlan::iterative(formula, &data.names(), options)?.fit(data)
}

/// The row-independent part of an iterative fit: the compiled program
/// and the log-linear form its start is fitted from.
pub(crate) struct IterativePlan {
    /// Outputs f, then ∂f/∂βⱼ per parameter with a symbolic Jacobian;
    /// f alone with finite differences.
    program: Compiled,
    symbolic: bool,
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
        let symbolic = options.jacobian == JacobianMode::Symbolic;
        let mut roots = vec![formula.rhs.clone()];
        if symbolic {
            for prm in params {
                roots.push(differentiate(&formula.rhs, prm)?);
            }
        }
        let program = Compiled::new(&roots, &variables, columns, params)?;
        let log_start = if options.initial.is_empty() {
            detect_log_linear(formula, split)
                .map(|form| LogStart::new(&form, &variables, columns))
                .transpose()?
        } else {
            None
        };
        Ok(IterativePlan { program, symbolic, log_start })
    }

    /// The start the log-space least squares over `cols`' rows gives,
    /// if the formula is log-linear and it succeeds.
    pub(crate) fn start_from_rows(
        &self,
        cols: &[&[f64]],
        regs: &mut Registers,
    ) -> Result<Option<Vec<f64>>> {
        match &self.log_start {
            Some(s) => s.start(cols, regs),
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
        ws: &mut Workspace,
    ) -> Result<FitResult> {
        let p = params.len();
        let y = cols[0];
        let n = y.len();
        if n <= p {
            return Err(FitError::TooFewObservations { observations: n, parameters: p });
        }
        let Workspace { regs, residuals: r, candidate, sqrt_w, jacobian: jac } = ws;
        let sqrt_w: Option<&[f64]> = match weights.map(|i| cols[i]) {
            None => None,
            Some(w) => {
                if w.iter().any(|&x| x <= 0.0) {
                    return Err(non_positive_weights(options));
                }
                sqrt_w.clear();
                sqrt_w.extend(w.iter().map(|x| x.sqrt()));
                Some(sqrt_w)
            }
        };

        let options_start = || params.iter().map(|prm| options.start_for(prm)).collect();
        let from_rows = self.start_from_rows(cols, regs)?;
        let started_from_rows = from_rows.is_some();
        let mut beta: Vec<f64> = from_rows.unwrap_or_else(options_start);

        // Evaluate the program at `beta`, leaving its outputs in `regs`,
        // and write the weighted residuals to `out`; returns their RSS.
        let program = &self.program;
        let slots = program.bind(cols, regs)?;
        let residuals = |beta: &[f64], regs: &mut Registers, out: &mut Vec<f64>| -> Result<f64> {
            program.eval(&slots, beta, regs)?;
            let f = program.output(0, &slots, regs);
            out.clear();
            out.extend(y.iter().enumerate().map(|(i, yi)| yi - f.get(i)));
            if let Some(sw) = sqrt_w {
                for (ri, swi) in out.iter_mut().zip(sw) {
                    *ri *= swi;
                }
            }
            Ok(out.iter().map(|v| v * v).sum())
        };

        let mut rss = residuals(&beta, regs, r)?;
        if !rss.is_finite() && started_from_rows {
            // The start from the rows skipped rows the model cannot
            // take there; `options`' start may still be finite.
            beta = options_start();
            rss = residuals(&beta, regs, r)?;
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
        jac.resize_with(p, Vec::new);

        for iter in 0..options.max_iterations {
            iterations = iter + 1;
            // Jacobian of the *model* (∂f/∂β) at `beta`, whose outputs
            // `regs` holds; the residual Jacobian is its negation, which
            // cancels in the normal equations.
            if self.symbolic {
                for (k, col) in jac.iter_mut().enumerate() {
                    let d = program.output(k + 1, &slots, regs);
                    col.clear();
                    col.extend((0..n).map(|i| d.get(i)));
                }
            } else {
                let h = options.fd_step;
                finite_difference_jacobian(program, &slots, &beta, h, n, regs, jac)?;
            }
            if let Some(sw) = sqrt_w {
                for col in jac.iter_mut() {
                    for (v, s) in col.iter_mut().zip(sw) {
                        *v *= s;
                    }
                }
            }
            if jac.iter().flatten().any(|v| !v.is_finite()) {
                return Err(FitError::NumericalBreakdown {
                    detail: format!("non-finite Jacobian at iteration {iter}"),
                });
            }
            let (jtj, jtr) = normal_equations(jac, r);

            // Evaluate a candidate; on acceptance its residuals become
            // `r` and its outputs stay in `regs`.
            let mut accept = |cand: Vec<f64>, beta: &mut Vec<f64>, rss: &mut f64| -> Result<bool> {
                let rssc = residuals(&cand, regs, candidate)?;
                if !(rssc.is_finite() && rssc < *rss) {
                    return Ok(false);
                }
                *beta = cand;
                std::mem::swap(r, candidate);
                let old = *rss;
                *rss = rssc;
                if (old - rssc).abs() <= options.tolerance * rssc.max(1e-300) {
                    converged = true;
                }
                Ok(true)
            };
            let improved = match options.algorithm {
                Algorithm::GaussNewton => {
                    let delta = solve_spd(&jtj, &jtr)?;
                    // Backtracking: halve the step until RSS improves (or
                    // give up after 12 halvings — the paper's "it is the
                    // user's responsibility" case).
                    let mut step = 1.0;
                    let mut accepted = false;
                    for _ in 0..12 {
                        let cand = beta.iter().zip(&delta).map(|(b, d)| b + step * d).collect();
                        if accept(cand, &mut beta, &mut rss)? {
                            accepted = true;
                            break;
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
                        let cand = beta.iter().zip(&delta).map(|(b, d)| b + d).collect();
                        if accept(cand, &mut beta, &mut rss)? {
                            lambda = (lambda / 3.0).max(1e-12);
                            accepted = true;
                            break;
                        }
                        lambda *= 5.0;
                        if lambda > 1e12 {
                            break;
                        }
                    }
                    accepted
                }
            };
            final_jtj = Some(jtj);

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
        let xtx_inv = final_jtj.and_then(|m| Cholesky::new(&m).ok().and_then(|c| c.inverse().ok()));
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

/// JᵀJ and Jᵀr from the Jacobian's columns. Each entry is summed in row
/// order, leaving out the rows where its left factor is zero, as
/// [`Matrix::gram`] and [`Matrix::tr_matvec`] sum it.
fn normal_equations(jac: &[Vec<f64>], r: &[f64]) -> (Matrix, Vec<f64>) {
    let p = jac.len();
    let mut jtj = Matrix::zeros(p, p);
    for i in 0..p {
        for j in i..p {
            let mut s = 0.0;
            for (&a, &b) in jac[i].iter().zip(&jac[j]) {
                if a != 0.0 {
                    s += a * b;
                }
            }
            jtj[(i, j)] = s;
            jtj[(j, i)] = s;
        }
    }
    let jtr = jac
        .iter()
        .map(|col| {
            let mut s = 0.0;
            for (&x, &ri) in col.iter().zip(r) {
                if ri != 0.0 {
                    s += ri * x;
                }
            }
            s
        })
        .collect();
    (jtj, jtr)
}

/// Solve a symmetric positive-(semi)definite system, falling back to LU
/// when Cholesky rejects a semidefinite matrix.
fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    match Cholesky::new(a) {
        Ok(ch) => Ok(ch.solve(b)?),
        Err(_) => Ok(Lu::new(a)?.solve(b)?),
    }
}

/// Central-difference Jacobian of the body (output 0) in the
/// parameters over `n` rows, one column of `jac` per parameter.
fn finite_difference_jacobian(
    body: &Compiled,
    slots: &[&[f64]],
    beta: &[f64],
    step: f64,
    n: usize,
    regs: &mut Registers,
    jac: &mut [Vec<f64>],
) -> Result<()> {
    let mut work = beta.to_vec();
    for (cidx, col) in jac.iter_mut().enumerate() {
        let h = step * (1.0 + beta[cidx].abs());
        work[cidx] = beta[cidx] + h;
        body.eval(slots, &work, regs)?;
        let hi = body.output(0, slots, regs);
        col.clear();
        col.extend((0..n).map(|i| hi.get(i)));
        work[cidx] = beta[cidx] - h;
        body.eval(slots, &work, regs)?;
        let lo = body.output(0, slots, regs);
        for (i, v) in col.iter_mut().enumerate() {
            *v = (*v - lo.get(i)) / (2.0 * h);
        }
        work[cidx] = beta[cidx];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit_grouped;
    use lawsdb_expr::{parse_formula, CompiledExpr, Expr};

    /// One expression compiled alone, with its slots' positions among
    /// the plan's columns and the parameters.
    struct Alone {
        program: CompiledExpr,
        columns: Vec<usize>,
        scalars: Vec<usize>,
    }

    impl Alone {
        fn new(e: &Expr, variables: &[&str], columns: &[String], params: &[String]) -> Alone {
            let at = |names: &[String], name: &String| names.iter().position(|n| n == name);
            let program = CompiledExpr::compile(e, variables).unwrap();
            let columns = program.columns().iter().map(|c| at(columns, c).unwrap()).collect();
            let scalars = program.scalars().iter().map(|s| at(params, s).unwrap()).collect();
            Alone { program, columns, scalars }
        }

        /// One value per row of `cols` at `beta`.
        fn eval(&self, cols: &[&[f64]], beta: &[f64]) -> Vec<f64> {
            let slots: Vec<&[f64]> = self.columns.iter().map(|&i| cols[i]).collect();
            let scalars: Vec<f64> = self.scalars.iter().map(|&i| beta[i]).collect();
            let v = self.program.eval_batch(&slots, &scalars).unwrap();
            if slots.is_empty() {
                vec![v[0]; cols[0].len()]
            } else {
                v
            }
        }
    }

    /// The iteration as it was before one pass served a step, kept as
    /// the reference the fit is held to bit for bit: the body and each
    /// ∂f/∂βⱼ evaluated by programs of their own, the Jacobian at the
    /// start of every iteration into an n × p `Matrix`, and the normal
    /// equations from `gram` and `tr_matvec`. `data` is finite.
    fn reference_fit(
        formula: &Formula,
        data: &DataSet<'_>,
        options: &FitOptions,
    ) -> Result<FitResult> {
        let plan = FitPlan::iterative(formula, &data.names(), options)?;
        let (it, weights, options) = plan.iterative_parts();
        let (names, params) = (plan.columns(), plan.param_names());
        let cols: Vec<&[f64]> = names.iter().map(|c| data.column(c)).collect::<Result<_>>()?;
        let split = formula.split_symbols(&data.names());
        let variables: Vec<&str> = split.variables.iter().map(String::as_str).collect();
        let model = Alone::new(&formula.rhs, &variables, names, params);
        let jacobian: Option<Vec<Alone>> = match options.jacobian {
            JacobianMode::Symbolic => Some(
                params
                    .iter()
                    .map(|prm| differentiate(&formula.rhs, prm))
                    .map(|d| Ok(Alone::new(&d?, &variables, names, params)))
                    .collect::<Result<_>>()?,
            ),
            JacobianMode::FiniteDifference => None,
        };

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
        let weighted_residuals = |beta: &[f64]| -> Vec<f64> {
            let pred = model.eval(&cols, beta);
            let mut r: Vec<f64> = y.iter().zip(&pred).map(|(yi, fi)| yi - fi).collect();
            if let Some(sw) = &sqrt_w {
                for (ri, swi) in r.iter_mut().zip(sw) {
                    *ri *= swi;
                }
            }
            r
        };
        let rss_of = |r: &[f64]| -> f64 { r.iter().map(|v| v * v).sum() };

        let options_start = || params.iter().map(|prm| options.start_for(prm)).collect();
        let from_rows = it.start_from_rows(&cols, &mut Registers::default())?;
        let started_from_rows = from_rows.is_some();
        let mut beta: Vec<f64> = from_rows.unwrap_or_else(options_start);
        let mut r = weighted_residuals(&beta);
        let mut rss = rss_of(&r);
        if !rss.is_finite() && started_from_rows {
            beta = options_start();
            r = weighted_residuals(&beta);
            rss = rss_of(&r);
        }
        if !rss.is_finite() {
            return Err(FitError::NumericalBreakdown {
                detail: "model is non-finite at the starting parameters".to_string(),
            });
        }

        let mut lambda = 1e-3;
        let mut converged = false;
        let mut iterations = 0usize;
        let mut final_jtj: Option<Matrix> = None;
        for iter in 0..options.max_iterations {
            iterations = iter + 1;
            let mut j = Matrix::zeros(n, p);
            for cidx in 0..p {
                let col = match &jacobian {
                    Some(jcols) => jcols[cidx].eval(&cols, &beta),
                    None => {
                        let h = options.fd_step * (1.0 + beta[cidx].abs());
                        let mut work = beta.clone();
                        work[cidx] = beta[cidx] + h;
                        let hi = model.eval(&cols, &work);
                        work[cidx] = beta[cidx] - h;
                        let lo = model.eval(&cols, &work);
                        hi.iter().zip(&lo).map(|(a, b)| (a - b) / (2.0 * h)).collect()
                    }
                };
                for (ridx, v) in col.iter().enumerate() {
                    j[(ridx, cidx)] = *v;
                }
            }
            if let Some(sw) = &sqrt_w {
                for ridx in 0..n {
                    for cidx in 0..p {
                        j[(ridx, cidx)] *= sw[ridx];
                    }
                }
            }
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
                    let mut step = 1.0;
                    let mut accepted = false;
                    for _ in 0..12 {
                        let cand: Vec<f64> =
                            beta.iter().zip(&delta).map(|(b, d)| b + step * d).collect();
                        let rc = weighted_residuals(&cand);
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
                        step *= 0.5;
                    }
                    accepted
                }
                Algorithm::LevenbergMarquardt => {
                    let mut accepted = false;
                    for _ in 0..30 {
                        let mut damped = jtj.clone();
                        for d in 0..p {
                            let dd = jtj[(d, d)];
                            damped[(d, d)] = dd + lambda * dd.max(1e-12);
                        }
                        let Ok(delta) = solve_spd(&damped, &jtr) else {
                            lambda *= 10.0;
                            continue;
                        };
                        let cand: Vec<f64> = beta.iter().zip(&delta).map(|(b, d)| b + d).collect();
                        let rc = weighted_residuals(&cand);
                        let rssc = rss_of(&rc);
                        if rssc.is_finite() && rssc < rss {
                            beta = cand;
                            r = rc;
                            let old = rss;
                            rss = rssc;
                            lambda = (lambda / 3.0).max(1e-12);
                            accepted = true;
                            if (old - rss).abs() <= options.tolerance * rss.max(1e-300) {
                                converged = true;
                            }
                            break;
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
                if lawsdb_linalg::norm2(&jtr) <= 1e-10 * (1.0 + rss) {
                    converged = true;
                }
                break;
            }
        }
        if !converged && iterations >= options.max_iterations {
            return Err(FitError::DidNotConverge { iterations, rss });
        }
        let tss = lawsdb_linalg::ops::total_sum_of_squares(y);
        let xtx_inv = final_jtj.and_then(|m| Cholesky::new(&m).ok().and_then(|c| c.inverse().ok()));
        let diagnostics = FitDiagnostics::compute(n, params, &beta, rss, tss, xtx_inv.as_ref());
        Ok(FitResult {
            params: params.iter().cloned().zip(beta).collect(),
            diagnostics,
            iterations,
            converged,
            used_linear_path: false,
        })
    }

    /// Power-law groups of several sizes: clean, noisy, one with a
    /// planted spike, one of pure noise and one with negative responses
    /// (rows the log-space start skips). Keys, `nu`, `y` and a weight.
    fn anomalous_groups() -> (Vec<i64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut noise = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let laws = [(2.0, -0.7, 0.0, 40), (0.5, -1.2, 0.05, 23), (1.0, 0.3, 0.02, 7)];
        let freqs: [f64; 5] = [0.12, 0.15, 0.16, 0.18, 0.3];
        let (mut keys, mut nu, mut y, mut w) = (vec![], vec![], vec![], vec![]);
        let mut push = |key: i64, f: f64, v: f64, wt: f64| {
            keys.push(key);
            nu.push(f);
            y.push(v);
            w.push(wt);
        };
        for (key, &(p, a, sd, rows)) in laws.iter().enumerate() {
            for i in 0..rows {
                let f = freqs[i % 5];
                push(key as i64, f, p * f.powf(a) * (1.0 + sd * noise()), 1.0 + (i % 3) as f64);
            }
        }
        for i in 0..30 {
            let f = freqs[i % 5];
            let spike = if i == 11 { 40.0 } else { 1.0 };
            push(3, f, 0.06 * f.powf(-0.72) * spike, 0.5 + noise().abs());
        }
        for i in 0..35 {
            push(4, freqs[i % 5], 10.0 * noise(), 1.0);
        }
        for i in 0..25 {
            let f = freqs[i % 5];
            push(5, f, 1.5 * f.powf(-0.4) + 0.6 * noise() - 0.2, 2.0);
        }
        (keys, nu, y, w)
    }

    #[test]
    fn one_pass_fits_match_the_matrix_reference_bit_for_bit() {
        let (keys, nu, y, w) = anomalous_groups();
        let f = parse_formula("y ~ p * nu ^ alpha").unwrap();
        let weighted = || FitOptions { weights_column: Some("w".into()), ..Default::default() };
        let cases = [
            FitOptions::default(),
            weighted(),
            FitOptions::default().with_algorithm(Algorithm::GaussNewton),
            weighted().with_algorithm(Algorithm::GaussNewton),
            FitOptions::default().with_jacobian(JacobianMode::FiniteDifference),
            weighted().with_jacobian(JacobianMode::FiniteDifference),
            FitOptions::default().with_initial("alpha", -0.5),
            FitOptions { max_iterations: 2, tolerance: 0.0, ..Default::default() },
        ];
        let mut compared = 0;
        for options in &cases {
            // Every group alone, then all of them through one workspace.
            let mut each = Vec::new();
            for key in 0..6 {
                let rows: Vec<usize> = (0..keys.len()).filter(|&r| keys[r] == key).collect();
                let pick = |c: &[f64]| rows.iter().map(|&r| c[r]).collect::<Vec<f64>>();
                let (nu, y, w) = (pick(&nu), pick(&y), pick(&w));
                let data = DataSet::new(vec![("nu", &nu[..]), ("y", &y[..]), ("w", &w[..])]);
                let data = data.unwrap();
                let want = format!("{:?}", reference_fit(&f, &data, options));
                assert_eq!(format!("{:?}", fit_nonlinear(&f, &data, options)), want, "{key}");
                each.push(want);
                compared += 1;
            }
            let data = DataSet::new(vec![("nu", &nu[..]), ("y", &y[..]), ("w", &w[..])]);
            let grouped = fit_grouped(&f, &keys, &data.unwrap(), options, 1).unwrap();
            let got: Vec<String> =
                grouped.fits.iter().map(|g| format!("{:?}", g.outcome)).collect();
            assert_eq!(got, each, "{options:?}");
        }
        assert_eq!(compared, 48);

        // A start from the rows the model cannot take: ln x skips the
        // negative x, where x ^ a is NaN.
        let x: Vec<f64> =
            (0..40).map(|i| if i % 5 == 0 { -1.0 } else { 0.1 + i as f64 * 0.05 }).collect();
        let y: Vec<f64> = x.iter().map(|x| 2.0 * x.abs().powf(-0.7)).collect();
        let data = DataSet::new(vec![("x", &x[..]), ("y", &y[..])]).unwrap();
        let f = parse_formula("y ~ p * x ^ a").unwrap();
        for options in &cases {
            let want = format!("{:?}", reference_fit(&f, &data, options));
            assert_eq!(format!("{:?}", fit_nonlinear(&f, &data, options)), want);
        }
        let error = fit_nonlinear(&f, &data, &FitOptions::default()).unwrap_err();
        assert!(error.to_string().contains("Jacobian"), "{error}");
    }

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
