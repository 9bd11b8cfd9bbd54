//! The analytic path: linearity detection and (weighted/ridge) ordinary
//! least squares, and the log-linear detection an iterative fit takes
//! its start from.

use crate::diagnostics::FitDiagnostics;
use crate::error::{FitError, Result};
use crate::options::{FitOptions, LinearSolver};
use crate::plan::Compiled;
use crate::FitResult;
use lawsdb_expr::compile::ExecStack;
use lawsdb_expr::deriv::differentiate;
use lawsdb_expr::parser::SymbolSplit;
use lawsdb_expr::simplify::simplify;
use lawsdb_expr::{Expr, Formula, Func};
use lawsdb_linalg::{Cholesky, Matrix, Qr};

/// A model rewritten as `y = offset(x) + Σ βⱼ·basisⱼ(x)`.
///
/// Detection is symbolic: a formula is linear in its parameters exactly
/// when every ∂f/∂βⱼ is free of parameters; then that derivative *is*
/// the j-th design column and `f` at β = 0 is the offset.
#[derive(Debug, Clone)]
pub struct LinearForm {
    /// Response column name.
    pub response: String,
    /// Parameter names, sorted.
    pub params: Vec<String>,
    /// Data variables used.
    pub variables: Vec<String>,
    /// Design-column expressions, one per parameter.
    pub basis: Vec<Expr>,
    /// Parameter-free offset term.
    pub offset: Expr,
    /// The original formula source (for the model catalog).
    pub source: String,
}

/// Detect linearity of `formula` in its parameters. Returns `None` for
/// genuinely non-linear models (e.g. the power law `p * nu ^ alpha`).
pub fn detect_linear(formula: &Formula, split: &SymbolSplit) -> Option<LinearForm> {
    let mut basis = Vec::with_capacity(split.parameters.len());
    for p in &split.parameters {
        let d = differentiate(&formula.rhs, p).ok()?;
        // Linear ⟺ the derivative mentions no parameter at all.
        if split.parameters.iter().any(|q| d.contains_symbol(q)) {
            return None;
        }
        basis.push(d);
    }
    // Offset = f with every parameter set to zero.
    let mut offset = formula.rhs.clone();
    for p in &split.parameters {
        offset = offset.substitute(p, &Expr::Num(0.0));
    }
    let offset = simplify(&offset);
    Some(LinearForm {
        response: formula.response.clone(),
        params: split.parameters.clone(),
        variables: split.variables.clone(),
        basis,
        offset,
        source: formula.source.clone(),
    })
}

/// A formula whose logarithm is linear in transformed parameters, as
/// [`detect_log_linear`] rewrote it.
#[derive(Debug, Clone)]
pub struct LogLinearForm {
    /// `ln f` as a linear form in the transformed parameters, in the
    /// formula's parameter order: θⱼ = ln βⱼ where `log[j]`, else βⱼ.
    pub form: LinearForm,
    /// Which parameters enter `ln f` through their logarithm.
    pub log: Vec<bool>,
}

/// Detect formulas whose logarithm is linear in transformed parameters,
/// such as `p * x ^ a`, `p * exp(b * x)` and their products, whose
/// start an iterative fit can take from ordinary least squares of `ln y`.
///
/// `ln f` is rewritten symbolically: `ln(a·b)` → `ln a + ln b`,
/// `ln(a/b)` → `ln a − ln b`, `ln(x^e)` with `x` parameter-free →
/// `e·ln x`, `ln(exp(e))` → `e`, a bare parameter coefficient `p` → the
/// transformed parameter `ln(p)`, and a parameter-free factor `c` →
/// the offset `ln c`. The formula is log-linear when every parameter
/// sits where one of these rules reaches it, none is both a coefficient
/// and elsewhere, and the result is linear ([`detect_linear`]) in the
/// transformed parameters.
pub fn detect_log_linear(formula: &Formula, split: &SymbolSplit) -> Option<LogLinearForm> {
    let mut logs = Vec::new();
    let rhs = log_of(&formula.rhs, &split.parameters, &mut logs)?;
    if logs.iter().any(|p| rhs.contains_symbol(p)) {
        return None;
    }
    let log: Vec<bool> = split.parameters.iter().map(|p| logs.contains(p)).collect();
    let parameters = split
        .parameters
        .iter()
        .zip(&log)
        .map(|(p, &l)| if l { log_name(p) } else { p.clone() })
        .collect();
    let ln = Formula { response: formula.response.clone(), rhs, source: formula.source.clone() };
    let split = SymbolSplit { variables: split.variables.clone(), parameters };
    Some(LogLinearForm { form: detect_linear(&ln, &split)?, log })
}

/// `ln e` by [`detect_log_linear`]'s rules, each parameter coefficient
/// recorded in `logs`; `None` when a parameter sits where no rule
/// reaches it.
fn log_of(e: &Expr, params: &[String], logs: &mut Vec<String>) -> Option<Expr> {
    let has_param = |e: &Expr| params.iter().any(|p| e.contains_symbol(p));
    if !has_param(e) {
        return Some(Expr::Call(Func::Ln, vec![e.clone()]));
    }
    Some(match e {
        Expr::Mul(a, b) => {
            Expr::Add(Box::new(log_of(a, params, logs)?), Box::new(log_of(b, params, logs)?))
        }
        Expr::Div(a, b) => {
            Expr::Sub(Box::new(log_of(a, params, logs)?), Box::new(log_of(b, params, logs)?))
        }
        Expr::Pow(x, k) if !has_param(x) => {
            Expr::Mul(k.clone(), Box::new(Expr::Call(Func::Ln, vec![(**x).clone()])))
        }
        Expr::Call(Func::Exp, args) if args.len() == 1 => args[0].clone(),
        Expr::Sym(p) => {
            if !logs.contains(p) {
                logs.push(p.clone());
            }
            Expr::Sym(log_name(p))
        }
        _ => return None,
    })
}

/// The name of `ln p`; no identifier holds parentheses, so it names no
/// column or parameter.
fn log_name(p: &str) -> String {
    format!("ln({p})")
}

/// A [`LinearForm`] compiled over a plan's columns.
pub(crate) struct LinearPlan {
    basis: Vec<Compiled>,
    offset: Compiled,
}

impl LinearPlan {
    pub(crate) fn new(
        form: &LinearForm,
        variables: &[&str],
        columns: &[String],
    ) -> Result<LinearPlan> {
        let compile = |e: &Expr| Compiled::new(e, variables, columns, &form.params);
        Ok(LinearPlan {
            basis: form.basis.iter().map(compile).collect::<Result<_>>()?,
            offset: compile(&form.offset)?,
        })
    }

    /// The design columns and the offset over `cols`' rows.
    fn design(
        &self,
        cols: &[&[f64]],
        stack: &mut ExecStack,
    ) -> Result<(Vec<Vec<f64>>, Vec<f64>)> {
        let basis =
            self.basis.iter().map(|b| b.eval(cols, &[], stack)).collect::<Result<_>>()?;
        Ok((basis, self.offset.eval(cols, &[], stack)?))
    }

    /// Fit by (weighted, optionally ridge-penalized) least squares over
    /// usable rows: `cols` are the plan's columns, the response first,
    /// all finite.
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
        if n < p {
            return Err(FitError::TooFewObservations { observations: n, parameters: p });
        }
        let mut stack = ExecStack::default();
        let (mut design_cols, offset) = self.design(cols, &mut stack)?;

        // Adjusted response: y − offset.
        let mut y_adj: Vec<f64> = y.iter().zip(&offset).map(|(a, b)| a - b).collect();

        // Optional WLS: scale rows by √w.
        if let Some(w) = weights.map(|i| cols[i]) {
            if w.iter().any(|&x| x <= 0.0) {
                return Err(non_positive_weights(options));
            }
            for (i, &wi) in w.iter().enumerate() {
                let s = wi.sqrt();
                y_adj[i] *= s;
                for c in design_cols.iter_mut() {
                    c[i] *= s;
                }
            }
        }

        let col_slices: Vec<&[f64]> = design_cols.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_columns(&col_slices)?;
        if !x.all_finite() || y_adj.iter().any(|v| !v.is_finite()) {
            return Err(FitError::NumericalBreakdown {
                detail: "design matrix or response contains non-finite values".to_string(),
            });
        }

        // Ridge forces the normal-equation path (penalty lives on XᵀX).
        let use_normal =
            options.ridge_lambda > 0.0 || options.linear_solver == LinearSolver::NormalEquations;
        let (beta, xtx_inv) = if use_normal {
            let mut gram = x.gram();
            gram.add_diagonal(options.ridge_lambda);
            let rhs = x.tr_matvec(&y_adj)?;
            let ch = Cholesky::new(&gram)?;
            (ch.solve(&rhs)?, ch.inverse().ok())
        } else {
            let qr = Qr::new(&x)?;
            let beta = qr.solve_least_squares(&y_adj)?;
            let inv = qr.xtx_inverse().ok();
            (beta, inv)
        };

        // Residuals against the *unweighted* original response for R².
        let fitted_adj = x.matvec(&beta)?;
        let rss: f64 = y_adj
            .iter()
            .zip(&fitted_adj)
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let tss = lawsdb_linalg::ops::total_sum_of_squares(y);

        let diagnostics = FitDiagnostics::compute(n, params, &beta, rss, tss, xtx_inv.as_ref());
        Ok(FitResult {
            params: params.iter().cloned().zip(beta).collect(),
            diagnostics,
            iterations: 0,
            converged: true,
            used_linear_path: true,
        })
    }
}

/// The error for a weights column with a non-positive entry.
pub(crate) fn non_positive_weights(options: &FitOptions) -> FitError {
    let name = options.weights_column.as_deref().unwrap_or_default();
    FitError::BadData { detail: format!("weights column {name:?} has non-positive entries") }
}

/// The start of an iterative fit of a log-linear formula: ordinary least
/// squares of `ln y` in the transformed parameters, mapped back.
pub(crate) struct LogStart {
    design: LinearPlan,
    log: Vec<bool>,
}

impl LogStart {
    pub(crate) fn new(
        form: &LogLinearForm,
        variables: &[&str],
        columns: &[String],
    ) -> Result<LogStart> {
        let design = LinearPlan::new(&form.form, variables, columns)?;
        Ok(LogStart { design, log: form.log.clone() })
    }

    /// The unweighted least-squares fit of `ln y − offset` on the basis
    /// over the rows of `cols` (the response first) with `y > 0` and a
    /// finite basis and offset, with βⱼ = e^θⱼ for the log parameters.
    /// `None` when fewer such rows than parameters remain, or the
    /// solution is singular or not finite.
    pub(crate) fn start(
        &self,
        cols: &[&[f64]],
        stack: &mut ExecStack,
    ) -> Result<Option<Vec<f64>>> {
        let (basis, offset) = self.design.design(cols, stack)?;
        let y = cols[0];
        let usable = |i: usize| {
            y[i] > 0.0 && offset[i].is_finite() && basis.iter().all(|b| b[i].is_finite())
        };
        let rows: Vec<usize> = (0..y.len()).filter(|&i| usable(i)).collect();
        if rows.len() < basis.len() {
            return Ok(None);
        }
        let z: Vec<f64> = rows.iter().map(|&i| y[i].ln() - offset[i]).collect();
        let x: Vec<Vec<f64>> =
            basis.iter().map(|b| rows.iter().map(|&i| b[i]).collect()).collect();
        let x: Vec<&[f64]> = x.iter().map(Vec::as_slice).collect();
        let Ok(theta) = Matrix::from_columns(&x).and_then(|x| Qr::new(&x)?.solve_least_squares(&z))
        else {
            return Ok(None);
        };
        let beta: Vec<f64> =
            theta.iter().zip(&self.log).map(|(&t, &log)| if log { t.exp() } else { t }).collect();
        Ok(beta.iter().all(|b| b.is_finite()).then_some(beta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fit_auto, DataSet};
    use lawsdb_expr::parse_formula;

    fn split(f: &Formula, cols: &[&str]) -> SymbolSplit {
        f.split_symbols(cols)
    }

    #[test]
    fn detects_simple_line_as_linear() {
        let f = parse_formula("y ~ a + b * x").unwrap();
        let s = split(&f, &["x", "y"]);
        let form = detect_linear(&f, &s).unwrap();
        assert_eq!(form.params, vec!["a", "b"]);
        // Basis for a is 1, for b is x.
        assert_eq!(form.basis[0], Expr::Num(1.0));
        assert_eq!(form.basis[1], Expr::Sym("x".to_string()));
        assert_eq!(form.offset, Expr::Num(0.0));
    }

    #[test]
    fn detects_polynomial_and_transformed_bases() {
        let f = parse_formula("y ~ b0 + b1 * x + b2 * x ^ 2 + b3 * ln(x)").unwrap();
        let s = split(&f, &["x", "y"]);
        let form = detect_linear(&f, &s).unwrap();
        assert_eq!(form.params.len(), 4);
    }

    #[test]
    fn power_law_is_not_linear() {
        let f = parse_formula("y ~ p * x ^ alpha").unwrap();
        let s = split(&f, &["x", "y"]);
        assert!(detect_linear(&f, &s).is_none());
    }

    #[test]
    fn product_of_parameters_is_not_linear() {
        let f = parse_formula("y ~ a * b * x").unwrap();
        let s = split(&f, &["x", "y"]);
        assert!(detect_linear(&f, &s).is_none());
    }

    #[test]
    fn offset_term_is_separated() {
        // y = sin(x) + a*x: the sin(x) has no parameter → offset.
        let f = parse_formula("y ~ sin(x) + a * x").unwrap();
        let s = split(&f, &["x", "y"]);
        let form = detect_linear(&f, &s).unwrap();
        assert_eq!(form.offset.to_string(), "sin(x)");
        // Fit: y = sin(x) + 2x exactly.
        let xs: Vec<f64> = (1..40).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.sin() + 2.0 * x).collect();
        let data = DataSet::new(vec![("x", &xs[..]), ("y", &ys[..])]).unwrap();
        let r = fit_auto(&f, &data, &FitOptions::default()).unwrap();
        assert!((r.param("a").unwrap() - 2.0).abs() < 1e-10);
        assert!(r.diagnostics.r2 > 0.999999);
    }

    #[test]
    fn recovers_noisy_line_with_good_diagnostics() {
        let f = parse_formula("y ~ a + b * x").unwrap();
        let s = split(&f, &["x", "y"]);
        assert!(detect_linear(&f, &s).is_some());
        let xs: Vec<f64> = (0..200).map(|i| i as f64 * 0.05).collect();
        // Deterministic noise in [-0.05, 0.05].
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 1.0 - 0.5 * x + ((i * 37 % 100) as f64 / 1000.0 - 0.05))
            .collect();
        let data = DataSet::new(vec![("x", &xs[..]), ("y", &ys[..])]).unwrap();
        let r = fit_auto(&f, &data, &FitOptions::default()).unwrap();
        assert!((r.param("a").unwrap() - 1.0).abs() < 0.02);
        assert!((r.param("b").unwrap() + 0.5).abs() < 0.01);
        assert!(r.diagnostics.r2 > 0.99);
        assert!(r.diagnostics.param_stats[1].p_value < 1e-10);
    }

    #[test]
    fn nan_rows_are_dropped() {
        let f = parse_formula("y ~ a + b * x").unwrap();
        let s = split(&f, &["x", "y"]);
        assert!(detect_linear(&f, &s).is_some());
        let xs = [0.0, 1.0, f64::NAN, 2.0, 3.0];
        let ys = [1.0, 3.0, 100.0, f64::NAN, 7.0];
        let data = DataSet::new(vec![("x", &xs[..]), ("y", &ys[..])]).unwrap();
        let r = fit_auto(&f, &data, &FitOptions::default()).unwrap();
        assert_eq!(r.diagnostics.n, 3);
        assert!((r.param("b").unwrap() - 2.0).abs() < 1e-10);
    }

    #[test]
    fn qr_and_normal_equations_agree() {
        let f = parse_formula("y ~ a + b * x").unwrap();
        let s = split(&f, &["x", "y"]);
        assert!(detect_linear(&f, &s).is_some());
        let xs: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 + 0.25 * x + (x * 0.7).sin()).collect();
        let data = DataSet::new(vec![("x", &xs[..]), ("y", &ys[..])]).unwrap();
        let rq = fit_auto(&f, &data, &FitOptions::default()).unwrap();
        let opts = FitOptions { linear_solver: LinearSolver::NormalEquations, ..Default::default() };
        let rn = fit_auto(&f, &data, &opts).unwrap();
        assert!((rq.param("a").unwrap() - rn.param("a").unwrap()).abs() < 1e-8);
        assert!((rq.param("b").unwrap() - rn.param("b").unwrap()).abs() < 1e-8);
    }

    #[test]
    fn ridge_shrinks_coefficients() {
        let f = parse_formula("y ~ a + b * x").unwrap();
        let s = split(&f, &["x", "y"]);
        assert!(detect_linear(&f, &s).is_some());
        let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 10.0 * x).collect();
        let data = DataSet::new(vec![("x", &xs[..]), ("y", &ys[..])]).unwrap();
        let plain = fit_auto(&f, &data, &FitOptions::default()).unwrap();
        let opts = FitOptions { ridge_lambda: 100.0, ..Default::default() };
        let ridged = fit_auto(&f, &data, &opts).unwrap();
        assert!(ridged.param("b").unwrap().abs() < plain.param("b").unwrap().abs());
    }

    #[test]
    fn weighted_fit_prioritizes_heavy_rows() {
        let f = parse_formula("y ~ c").unwrap();
        // Model: y = c (constant). Two clusters; weights pick cluster 2.
        let ys = [1.0, 1.0, 5.0, 5.0];
        let w = [0.001, 0.001, 1000.0, 1000.0];
        let dummy = [0.0, 0.0, 0.0, 0.0];
        let data =
            DataSet::new(vec![("y", &ys[..]), ("w", &w[..]), ("x", &dummy[..])]).unwrap();
        let s = f.split_symbols(&["y", "w", "x"]);
        assert!(detect_linear(&f, &s).is_some());
        let opts = FitOptions { weights_column: Some("w".to_string()), ..Default::default() };
        let r = fit_auto(&f, &data, &opts).unwrap();
        assert!((r.param("c").unwrap() - 5.0).abs() < 0.01);
    }

    #[test]
    fn non_positive_weights_rejected() {
        let f = parse_formula("y ~ c").unwrap();
        let ys = [1.0, 2.0];
        let w = [1.0, 0.0];
        let data = DataSet::new(vec![("y", &ys[..]), ("w", &w[..])]).unwrap();
        let s = f.split_symbols(&["y", "w"]);
        assert!(detect_linear(&f, &s).is_some());
        let opts = FitOptions { weights_column: Some("w".to_string()), ..Default::default() };
        assert!(matches!(fit_auto(&f, &data, &opts), Err(FitError::BadData { .. })));
    }

    #[test]
    fn too_few_observations_rejected() {
        let f = parse_formula("y ~ a + b * x").unwrap();
        let s = split(&f, &["x", "y"]);
        assert!(detect_linear(&f, &s).is_some());
        let xs = [1.0];
        let ys = [1.0];
        let data = DataSet::new(vec![("x", &xs[..]), ("y", &ys[..])]).unwrap();
        assert!(matches!(
            fit_auto(&f, &data, &FitOptions::default()),
            Err(FitError::TooFewObservations { .. })
        ));
    }
}
