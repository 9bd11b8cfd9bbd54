//! One fit, prepared once.
//!
//! Everything about a fit that depends on the formula, the columns and
//! the options, and not on the rows, is done here once: the symbol
//! split, linearity and log-linearity detection, the symbolic Jacobian
//! and the compiled programs. A grouped capture builds one plan and
//! runs it over every group's rows; [`crate::fit_auto`] is a plan run
//! once.

use crate::data::DataSet;
use crate::error::{FitError, Result};
use crate::linear::{detect_linear, LinearPlan};
use crate::nlls::IterativePlan;
use crate::options::FitOptions;
use crate::FitResult;
use lawsdb_expr::compile::{Registers, Value};
use lawsdb_expr::{CompiledExpr, Expr, Formula};
use std::borrow::Cow;

/// A prepared fit of one formula over named columns with one set of
/// options, run over any number of row sets.
pub(crate) struct FitPlan {
    /// The columns a fit reads, each once: the response, the formula's
    /// variables (sorted), then the weights column.
    columns: Vec<String>,
    /// Position of the weights column in `columns`.
    weights: Option<usize>,
    /// Parameter names, sorted.
    params: Vec<String>,
    method: Method,
    options: FitOptions,
}

enum Method {
    /// Linear in its parameters: ordinary least squares.
    Linear(LinearPlan),
    /// Gauss-Newton or Levenberg-Marquardt.
    Iterative(IterativePlan),
}

impl FitPlan {
    /// Prepare the fit of `formula` over data with the given column
    /// names: the analytic path when the formula is linear in its
    /// parameters, the iterative one otherwise.
    pub(crate) fn new(
        formula: &Formula,
        columns: &[&str],
        options: &FitOptions,
    ) -> Result<FitPlan> {
        FitPlan::build(formula, columns, options, true)
    }

    /// Prepare the iterative fit of `formula`, linear or not.
    pub(crate) fn iterative(
        formula: &Formula,
        columns: &[&str],
        options: &FitOptions,
    ) -> Result<FitPlan> {
        FitPlan::build(formula, columns, options, false)
    }

    fn build(
        formula: &Formula,
        columns: &[&str],
        options: &FitOptions,
        allow_linear: bool,
    ) -> Result<FitPlan> {
        let split = formula.split_symbols(columns);
        if split.parameters.is_empty() {
            return Err(FitError::NoParameters { formula: formula.source.clone() });
        }
        let mut read = vec![formula.response.clone()];
        for name in split.variables.iter().chain(&options.weights_column) {
            if !read.contains(name) {
                read.push(name.clone());
            }
        }
        let weights = options.weights_column.as_ref().map(|w| position(&read, w));
        let variables: Vec<&str> = split.variables.iter().map(String::as_str).collect();
        let linear = if allow_linear { detect_linear(formula, &split) } else { None };
        let method = match linear {
            Some(form) => Method::Linear(LinearPlan::new(&form, &variables, &read)?),
            None => Method::Iterative(IterativePlan::new(formula, &split, &read, options)?),
        };
        Ok(FitPlan {
            columns: read,
            weights,
            params: split.parameters,
            method,
            options: options.clone(),
        })
    }

    /// The columns a fit reads, in the order [`FitPlan::fit_columns`]
    /// takes them.
    pub(crate) fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Parameter names, sorted: the order of [`FitResult::params`].
    pub(crate) fn param_names(&self) -> &[String] {
        &self.params
    }

    /// Fit the rows of `data`.
    pub(crate) fn fit(&self, data: &DataSet<'_>) -> Result<FitResult> {
        let cols: Vec<&[f64]> =
            self.columns.iter().map(|c| data.column(c)).collect::<Result<_>>()?;
        self.fit_columns(&cols, &mut Workspace::default())
    }

    /// Fit one set of rows: `cols[i]` holds the column named
    /// `self.columns()[i]`, all of one length. Rows where any of them
    /// is not finite (NULLs arrive as NaN) are left out. `ws` may come
    /// from any earlier fit.
    pub(crate) fn fit_columns(&self, cols: &[&[f64]], ws: &mut Workspace) -> Result<FitResult> {
        let usable = finite_rows(cols);
        let cols: Vec<&[f64]> = usable.iter().map(|c| &**c).collect();
        let (params, weights, options) = (&self.params, self.weights, &self.options);
        match &self.method {
            Method::Linear(l) => l.fit(params, &cols, weights, options, &mut ws.regs),
            Method::Iterative(it) => it.fit(params, &cols, weights, options, ws),
        }
    }
}

/// The buffers a fit runs in, reused across the row sets one worker
/// fits.
#[derive(Default)]
pub(crate) struct Workspace {
    pub(crate) regs: Registers,
    /// Weighted residuals at the current parameters.
    pub(crate) residuals: Vec<f64>,
    /// Weighted residuals at a candidate.
    pub(crate) candidate: Vec<f64>,
    /// √w per row, when the fit is weighted.
    pub(crate) sqrt_w: Vec<f64>,
    /// The Jacobian's columns, √w-scaled.
    pub(crate) jacobian: Vec<Vec<f64>>,
}

#[cfg(test)]
impl FitPlan {
    /// The iterative fit this plan runs and the weights column's
    /// position, for tests that hold it to a reference.
    pub(crate) fn iterative_parts(&self) -> (&IterativePlan, Option<usize>, &FitOptions) {
        let Method::Iterative(it) = &self.method else { panic!("a linear plan") };
        (it, self.weights, &self.options)
    }
}

fn position(names: &[String], name: &str) -> usize {
    names.iter().position(|n| n == name).expect("the plan reads every column it names")
}

/// `cols` restricted to the rows where every one of them is finite, in
/// order; borrowed when that is every row.
fn finite_rows<'a>(cols: &[&'a [f64]]) -> Vec<Cow<'a, [f64]>> {
    let n = cols.first().map_or(0, |c| c.len());
    let finite = |r: usize| cols.iter().all(|c| c[r].is_finite());
    if (0..n).all(finite) {
        return cols.iter().map(|&c| Cow::Borrowed(c)).collect();
    }
    let rows: Vec<usize> = (0..n).filter(|&r| finite(r)).collect();
    cols.iter().map(|c| Cow::Owned(rows.iter().map(|&r| c[r]).collect())).collect()
}

/// Expressions compiled once into one program, with the positions of
/// its column slots among a plan's columns. Its scalar slots, if any,
/// are the parameters in `beta` order.
pub(crate) struct Compiled {
    program: CompiledExpr,
    columns: Vec<usize>,
}

impl Compiled {
    /// Compile `roots` with `variables` as its columns; `columns` are the
    /// plan's columns and `params` the parameters, in `beta` order.
    pub(crate) fn new(
        roots: &[Expr],
        variables: &[&str],
        columns: &[String],
        params: &[String],
    ) -> Result<Compiled> {
        let program = CompiledExpr::compile_roots(roots, variables)?;
        // A fit's program reads every parameter (its first root is the
        // body) or none (a linear form's basis and offset).
        assert!(program.scalars().is_empty() || program.scalars() == params);
        let columns = program.columns().iter().map(|c| position(columns, c)).collect();
        Ok(Compiled { program, columns })
    }

    /// Bind the rows of `cols` (the plan's columns, at least the
    /// response): run the prologue into `regs`, and return the columns
    /// [`Compiled::eval`] and [`Compiled::output`] take.
    pub(crate) fn bind<'c>(
        &self,
        cols: &[&'c [f64]],
        regs: &mut Registers,
    ) -> Result<Vec<&'c [f64]>> {
        let slots: Vec<&[f64]> = self.columns.iter().map(|&i| cols[i]).collect();
        self.program.bind(&slots, regs)?;
        Ok(slots)
    }

    /// Evaluate at parameters `beta` (none for a program without
    /// scalar slots) over the rows last bound.
    pub(crate) fn eval(&self, slots: &[&[f64]], beta: &[f64], regs: &mut Registers) -> Result<()> {
        Ok(self.program.eval(slots, beta, regs)?)
    }

    /// Root `k`'s value at the last [`Compiled::eval`].
    pub(crate) fn output<'a>(
        &self,
        k: usize,
        slots: &[&'a [f64]],
        regs: &'a Registers,
    ) -> Value<'a> {
        self.program.output(k, slots, regs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect_log_linear;
    use lawsdb_expr::parse_formula;

    /// The start an iterative fit of `formula` over `data`'s rows with
    /// `options` takes.
    fn start(formula: &str, data: &DataSet<'_>, options: FitOptions) -> Vec<f64> {
        let f = parse_formula(formula).unwrap();
        let plan = FitPlan::new(&f, &data.names(), &options).unwrap();
        let cols: Vec<&[f64]> = plan.columns.iter().map(|c| data.column(c).unwrap()).collect();
        let Method::Iterative(it) = &plan.method else { panic!("{formula} is linear") };
        let from_rows = it.start_from_rows(&cols, &mut Registers::default()).unwrap();
        from_rows.unwrap_or_else(|| plan.params.iter().map(|p| options.start_for(p)).collect())
    }

    fn assert_close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{got:?} vs {want:?}");
        }
    }

    fn xs() -> Vec<f64> {
        (1..40).map(|i| 0.1 + i as f64 * 0.05).collect()
    }

    #[test]
    fn power_law_starts_from_its_log_space_fit() {
        let x = xs();
        let y: Vec<f64> = x.iter().map(|x| 2.0 * x.powf(-0.7)).collect();
        let data = DataSet::new(vec![("x", &x[..]), ("y", &y[..])]).unwrap();
        let f = parse_formula("y ~ p * x ^ a").unwrap();
        let form = detect_log_linear(&f, &f.split_symbols(&["x", "y"])).unwrap();
        assert_eq!(form.log, [false, true]);
        assert_eq!(form.form.params, ["a", "ln(p)"]);
        // Parameters in name order: a, p.
        assert_close(&start("y ~ p * x ^ a", &data, FitOptions::default()), &[-0.7, 2.0]);
    }

    #[test]
    fn exponential_and_product_forms_are_log_linear() {
        let x = xs();
        let y: Vec<f64> = x.iter().map(|x| 5.0 * (-0.8 * x).exp()).collect();
        let data = DataSet::new(vec![("x", &x[..]), ("y", &y[..])]).unwrap();
        assert_close(&start("y ~ a * exp(b * x)", &data, FitOptions::default()), &[5.0, -0.8]);

        let w: Vec<f64> = x.iter().map(|x| (x * 7.0).sin()).collect();
        let z: Vec<f64> =
            x.iter().zip(&w).map(|(x, w)| 0.3 * x.powf(1.5) * (0.4 * w).exp()).collect();
        let data = DataSet::new(vec![("x", &x[..]), ("w", &w[..]), ("z", &z[..])]).unwrap();
        let got = start("z ~ p * x ^ a * exp(b * w)", &data, FitOptions::default());
        assert_close(&got, &[1.5, 0.4, 0.3]);
    }

    #[test]
    fn a_parameter_free_factor_is_an_offset() {
        let x = xs();
        let y: Vec<f64> = x.iter().map(|x| 3.0 * x.sqrt() * 0.5 * x.powf(-1.2)).collect();
        let data = DataSet::new(vec![("x", &x[..]), ("y", &y[..])]).unwrap();
        let f = parse_formula("y ~ 3 * sqrt(x) * p / x ^ a").unwrap();
        let form = detect_log_linear(&f, &f.split_symbols(&["x", "y"])).unwrap();
        assert_eq!(form.form.offset.to_string(), "ln((3 * sqrt(x)))");
        let got = start("y ~ 3 * sqrt(x) * p / x ^ a", &data, FitOptions::default());
        assert_close(&got, &[1.2, 0.5]);
    }

    #[test]
    fn a_linear_formula_stays_on_the_analytic_path() {
        let f = parse_formula("y ~ a + b * x").unwrap();
        let plan = FitPlan::new(&f, &["x", "y"], &FitOptions::default()).unwrap();
        assert!(matches!(plan.method, Method::Linear(_)));
        assert!(detect_log_linear(&f, &f.split_symbols(&["x", "y"])).is_none());
    }

    #[test]
    fn other_formulas_and_pinned_fits_keep_the_options_start() {
        let x = xs();
        let y: Vec<f64> = x.iter().map(|x| 2.0 * (1.5 * x).sin() + 0.5).collect();
        let data = DataSet::new(vec![("x", &x[..]), ("y", &y[..])]).unwrap();
        let sinusoid = "y ~ amp * sin(freq * x) + off";
        assert_eq!(start(sinusoid, &data, FitOptions::default()), [1.0; 3]);
        let f = parse_formula("y ~ p * x ^ p").unwrap();
        assert!(detect_log_linear(&f, &f.split_symbols(&["x", "y"])).is_none());

        // No row has y > 0.
        let y: Vec<f64> = x.iter().map(|x| -2.0 * x.powf(-0.7)).collect();
        let data = DataSet::new(vec![("x", &x[..]), ("y", &y[..])]).unwrap();
        assert_eq!(start("y ~ p * x ^ a", &data, FitOptions::default()), [1.0, 1.0]);

        // Naming one parameter keeps the options' start for all.
        let y: Vec<f64> = x.iter().map(|x| 2.0 * x.powf(-0.7)).collect();
        let data = DataSet::new(vec![("x", &x[..]), ("y", &y[..])]).unwrap();
        let pinned = FitOptions::default().with_initial("a", -0.5);
        assert_eq!(start("y ~ p * x ^ a", &data, pinned), [-0.5, 1.0]);

        // Fewer usable rows than parameters.
        let data = DataSet::new(vec![("x", &x[..1]), ("y", &y[..1])]).unwrap();
        assert_eq!(start("y ~ p * x ^ a", &data, FitOptions::default()), [1.0, 1.0]);
    }

    #[test]
    fn rows_with_a_non_finite_column_are_left_out() {
        let a = [1.0, f64::NAN, 3.0, 4.0];
        let b = [1.0, 2.0, f64::INFINITY, 4.0];
        let kept = finite_rows(&[&a, &b]);
        assert_eq!(kept.iter().map(|c| c.to_vec()).collect::<Vec<_>>(), [[1.0, 4.0]; 2]);
        assert!(finite_rows(&[&a[..1], &b[..1]]).iter().all(|c| matches!(c, Cow::Borrowed(_))));
    }
}
