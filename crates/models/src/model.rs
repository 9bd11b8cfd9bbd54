//! The captured model artifact.
//!
//! A [`CapturedModel`] is its formula, its coverage and its parameter
//! table. [`ModelParams`] holds that table column by column — strictly
//! increasing group keys, one column per parameter, then each row's
//! residual SE, R² and observation count — the shape of the paper's
//! Table 1 and of the `lawsdb_model_<id>` table the catalog is stored
//! as (`persist`). A global model is the one-row table with no key
//! column. [`CapturedModel::new`] compiles the body once, reading the
//! coverage variables and the parameters alike as columns: a prediction
//! gathers each input row's parameter row and runs that one program
//! over the whole batch, whatever the number of groups it spans.

use crate::error::{ModelError, Result};
use crate::legal::BloomFilter;
use lawsdb_expr::{Bindings, CompiledExpr, Expr, Formula};
use std::sync::Arc;

/// Opaque model identifier assigned by the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelId(pub u64);

/// Lifecycle state of a captured model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelState {
    /// Judged good and current: usable for approximate answers and
    /// semantic compression.
    Active,
    /// The underlying data changed since the fit; usable only if the
    /// caller tolerates staleness, pending a re-fit.
    Stale,
    /// Superseded or judged poor — kept, because "changing or added
    /// observations … could also make a model with a previously poor
    /// fit relevant again" (Section 4.1).
    Retired,
}

/// A model's fitted parameters: the paper's Table 1, "a set of model
/// parameters for each aggregation group" (Section 4.1), held as the
/// catalog stores it — the group keys, one column per parameter, then
/// each row's fit statistics. A global model is the one-row table with
/// no group column. Row `i` of every column belongs to `keys[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// The grouping column (the LOFAR source id); `None` when global.
    pub group_column: Option<String>,
    /// Parameter names: sorted by a fit, kept in column order by the
    /// catalog tables.
    pub names: Vec<String>,
    /// Group keys, strictly increasing; empty when global.
    pub keys: Vec<i64>,
    /// One column per parameter, in `names` order.
    pub values: Vec<Vec<f64>>,
    /// Residual standard error of each row's fit (the error bound
    /// attached to approximate answers).
    pub residual_se: Vec<f64>,
    /// R² of each row's fit.
    pub r2: Vec<f64>,
    /// Observations behind each row's fit.
    pub n: Vec<usize>,
}

impl ModelParams {
    /// The one-row parameters of a global model.
    pub fn global(
        names: Vec<String>,
        values: Vec<f64>,
        residual_se: f64,
        r2: f64,
        n: usize,
    ) -> ModelParams {
        ModelParams {
            group_column: None,
            names,
            keys: Vec::new(),
            values: values.into_iter().map(|v| vec![v]).collect(),
            residual_se: vec![residual_se],
            r2: vec![r2],
            n: vec![n],
        }
    }

    /// Number of parameter vectors stored: 1, or the group count.
    pub fn rows(&self) -> usize {
        self.residual_se.len()
    }

    /// The row holding `group`'s parameters: a global model's one row
    /// whatever the group, else the key's row, found by binary search.
    pub fn row(&self, group: Option<i64>) -> Result<usize> {
        match (&self.group_column, group) {
            (None, _) => Ok(0),
            (Some(_), Some(key)) => {
                self.keys.binary_search(&key).map_err(|_| ModelError::UnknownGroup { key })
            }
            (Some(g), None) => Err(ModelError::MissingInput { variable: g.clone() }),
        }
    }

    /// Row `row`'s parameter values, by name.
    pub fn row_values(&self, row: usize) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.names.iter().zip(&self.values).map(move |(n, v)| (n.as_str(), v[row]))
    }

    /// Storage footprint in bytes: 8 bytes per stored number (group key,
    /// each parameter, residual SE) — the measure behind Table 1's
    /// "640 KB of model parameters".
    pub fn byte_size(&self) -> usize {
        let key = usize::from(self.group_column.is_some());
        8 * self.rows() * (key + self.names.len() + 1)
    }

    /// Every column holds one value per row, a global model has exactly
    /// one row, and the keys strictly increase.
    fn check(&self) -> Result<()> {
        let bad = |detail: &str| Err(ModelError::BadConstruction { detail: detail.to_string() });
        let rows = match self.group_column {
            Some(_) => self.keys.len(),
            None if self.keys.is_empty() => 1,
            None => return bad("a global model has group keys"),
        };
        if self.values.len() != self.names.len() {
            return bad("parameter columns do not match the names");
        }
        let lengths = self.values.iter().map(Vec::len);
        let mut lengths = lengths.chain([self.residual_se.len(), self.r2.len(), self.n.len()]);
        if !lengths.all(|len| len == rows) {
            return bad("a column does not hold one value per row");
        }
        if !self.keys.windows(2).all(|w| w[0] < w[1]) {
            return bad("group keys are not strictly increasing");
        }
        Ok(())
    }
}

/// One parameter row's residual figures over the rows its group holds,
/// from a fit's residual pass: what [`CapturedModel::overall_r2`] and
/// [`CapturedModel::max_abs_residual`] fold, in key order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Residuals {
    /// Σ w·(actual − predicted)² over the rows with a finite actual,
    /// prediction and weight (w = 1 unweighted).
    pub rss: f64,
    /// Total sum of squares of those rows' actual values.
    pub tss: f64,
    /// Largest |actual − predicted| over the rows with both finite; NaN
    /// when no row has.
    pub max_abs: f64,
}

impl Residuals {
    /// The figures of a group without rows.
    pub const NONE: Residuals = Residuals { rss: 0.0, tss: 0.0, max_abs: f64::NAN };
}

/// What part of the database the model describes.
#[derive(Debug, Clone, PartialEq)]
pub struct Coverage {
    /// The covered table.
    pub table: String,
    /// The reconstructed (response) column.
    pub response: String,
    /// Input-variable columns.
    pub variables: Vec<String>,
    /// Row count of the table at fit time — the staleness trigger.
    pub rows_at_fit: usize,
    /// The SQL predicate the fitted subset satisfied, as source text, if
    /// the model was fit on a filtered view (Section 4.1's *partial
    /// models* challenge). It names only the group column and the
    /// variables. `None` means the whole table.
    pub predicate: Option<String>,
    /// Enumerated value domains of the input variables, captured at fit
    /// time (the paper's enumerable columns: "our telescope only creates
    /// observations at a small set of frequencies"). Variables absent
    /// here were not enumerable; queries that leave them unbound cannot
    /// be answered by parameter-space enumeration.
    pub domains: Vec<(String, Vec<f64>)>,
}

impl Coverage {
    /// Enumerated domain of one variable, if it was enumerable.
    pub fn domain_of(&self, variable: &str) -> Option<&[f64]> {
        self.domains
            .iter()
            .find(|(n, _)| n == variable)
            .map(|(_, v)| v.as_slice())
    }
}

/// A captured user model: formula in source form, fitted parameters,
/// quality record and coverage. Immutable once stored — re-fits create
/// new versions via the catalog. Built only by [`CapturedModel::new`],
/// which compiles the body against `rhs`, `coverage.variables` and
/// `params`: those three must not change afterwards, or the compiled
/// body reads the wrong slots. What a catalog, the engine or a loader
/// sets after `new` is `id`, `version`, `state`, `overall_r2`,
/// `max_abs_residual`, `residuals`, `legal_filter`, `observed_combos`,
/// `table_version` and the rest of `coverage` (`table`, `predicate`,
/// `rows_at_fit`, `domains`).
#[derive(Debug, Clone)]
pub struct CapturedModel {
    /// Catalog-assigned id.
    pub id: ModelId,
    /// Monotonic version among models covering the same (table,
    /// response).
    pub version: u32,
    /// Formula exactly as the user wrote it.
    pub formula_source: String,
    /// Parsed model body.
    pub rhs: Expr,
    /// Fitted parameters.
    pub params: ModelParams,
    /// Coverage description.
    pub coverage: Coverage,
    /// Pooled R² over the coverage, 1 − ΣRSS/ΣTSS over the groups in
    /// key order (a global model is one group), from the fit's residual
    /// pass over every covered row.
    pub overall_r2: f64,
    /// Largest |actual − predicted| observed over the fitted rows, if
    /// any row had both values finite. Every finite response value at
    /// fit time lies within `prediction ± max_abs_residual`; the drift
    /// guard, the cluster's shard-model fallback and quarantined-column
    /// re-derive check against it. Scans do not prune with it: the
    /// zone maps built from the data are never looser.
    pub max_abs_residual: Option<f64>,
    /// Per parameter row, its residual figures as the fit's residual
    /// pass left them. A refit folds them anew with the figures of the
    /// groups it fits and copies the rest. Held in memory only, like
    /// `table_version`: a model loaded from the stored catalog tables
    /// has none.
    pub residuals: Option<Arc<[Residuals]>>,
    /// Lifecycle state.
    pub state: ModelState,
    /// Optional legal-domain filter for parameter-space enumeration
    /// (Section 4.2: "require the model implementation to restrict the
    /// legal values of the parameter space … by supplying a filter
    /// function"): a SQL predicate over the group column and the
    /// variables, as source text. The model leaf applies it as a
    /// `Filter`; point lookups bypass it.
    pub legal_filter: Option<String>,
    /// Bloom filter of the (group, variables…) combinations observed at
    /// capture, so enumeration does not invent tuples that never existed
    /// (Section 4.2's "compressed lookup structure"). A refit extends the
    /// live model's filter by the appended rows when its size allows.
    /// Held in memory only: a model loaded from the stored catalog tables
    /// has none.
    pub observed_combos: Option<Arc<BloomFilter>>,
    /// Content id (`Table::id`) of the table version the model was
    /// fitted on, which held `coverage.rows_at_fit` rows. A refit re-fits
    /// only the groups of rows added since, when the table still extends
    /// that version. Held in memory only: ids are per process, so a
    /// model loaded from the stored catalog tables has none.
    pub table_version: Option<u64>,
    /// The body compiled with the coverage variables and the parameter
    /// names all as column slots.
    program: CompiledExpr,
    /// Per column slot of `program`, its source: coverage variable `i`
    /// when `i` is below the variable count, else parameter column
    /// `i - variables`.
    slots: Vec<usize>,
}

impl CapturedModel {
    /// The model of `formula` with fitted `params` over `coverage`, as a
    /// fit or the catalog loader makes it: id and version 0 (the catalog
    /// assigns them), active, with no residual bound, legal filter or
    /// Bloom filter. The body is compiled here, once, with each symbol
    /// that is not a coverage variable read from the parameter column of
    /// its name; a symbol with no such column, or parameters that are
    /// not one value per row under strictly increasing keys, is
    /// [`ModelError::BadConstruction`].
    pub fn new(
        formula: Formula,
        params: ModelParams,
        coverage: Coverage,
        overall_r2: f64,
    ) -> Result<CapturedModel> {
        params.check()?;
        let sources: Vec<&str> =
            coverage.variables.iter().chain(&params.names).map(String::as_str).collect();
        let program = CompiledExpr::compile(&formula.rhs, &sources)?;
        if let Some(s) = program.scalars().first() {
            let detail = format!("no column for parameter {s:?}");
            return Err(ModelError::BadConstruction { detail });
        }
        // A name that is both a variable and a parameter is the variable.
        let slots =
            program.columns().iter().filter_map(|c| sources.iter().position(|s| s == c)).collect();
        Ok(CapturedModel {
            id: ModelId(0),
            version: 0,
            formula_source: formula.source,
            rhs: formula.rhs,
            params,
            coverage,
            overall_r2,
            max_abs_residual: None,
            residuals: None,
            state: ModelState::Active,
            legal_filter: None,
            observed_combos: None,
            table_version: None,
            program,
            slots,
        })
    }

    /// Predict the response for one input point by walking the model
    /// body: the reference [`CapturedModel::predict`] is held to.
    ///
    /// `group` selects the parameter vector for grouped models; `inputs`
    /// must bind every input variable.
    pub fn predict_scalar(&self, group: Option<i64>, inputs: &[(&str, f64)]) -> Result<f64> {
        let mut b = Bindings::new();
        for (k, v) in inputs {
            b.set(k, *v);
        }
        for (name, v) in self.params.row_values(self.params.row(group)?) {
            b.set(name, v);
        }
        for v in &self.coverage.variables {
            if b.get(v).is_none() {
                return Err(ModelError::MissingInput { variable: v.clone() });
            }
        }
        Ok(self.rhs.eval(&b)?)
    }

    /// Predict the response for a batch of input points, point `i` with
    /// parameter row `param_rows[i]` (as [`ModelParams::row`] finds it):
    /// one compiled pass over the batch, each parameter read as the
    /// column of its gathered rows. The operations are the tree walk's,
    /// so each prediction has [`CapturedModel::predict_scalar`]'s bits.
    ///
    /// `columns` supplies one slice per coverage variable, in
    /// [`Coverage::variables`] order, each `param_rows.len()` long.
    ///
    /// # Panics
    ///
    /// If a parameter row is not below [`ModelParams::rows`].
    pub fn predict(&self, param_rows: &[usize], columns: &[&[f64]]) -> Result<Vec<f64>> {
        let (n, vars) = (param_rows.len(), self.coverage.variables.len());
        if columns.len() != vars || columns.iter().any(|c| c.len() != n) {
            let variable = format!("{vars} input columns of {n} values each");
            return Err(ModelError::MissingInput { variable });
        }
        let gathered: Vec<Vec<f64>> = self
            .slots
            .iter()
            .map(|&s| match s.checked_sub(vars) {
                Some(j) => param_rows.iter().map(|&row| self.params.values[j][row]).collect(),
                None => Vec::new(),
            })
            .collect();
        let cols: Vec<&[f64]> = self
            .slots
            .iter()
            .zip(&gathered)
            .map(|(&s, param)| columns.get(s).copied().unwrap_or(param))
            .collect();
        let v = self.program.eval_batch(&cols, &[])?;
        // A body that reads no column is one value for every point.
        Ok(if cols.is_empty() { vec![v[0]; n] } else { v })
    }

    /// Attach a legal-domain filter, SQL source text (builder-style).
    /// It is parsed where it is applied: a model leaf whose filter does
    /// not parse refuses to answer, and a stored catalog with one does
    /// not load.
    pub fn with_legal_filter(mut self, source: &str) -> CapturedModel {
        self.legal_filter = Some(source.trim().to_string());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_expr::parse_formula;

    fn coverage(table: &str, response: &str, variable: &str, rows: usize) -> Coverage {
        Coverage {
            table: table.to_string(),
            response: response.to_string(),
            variables: vec![variable.to_string()],
            rows_at_fit: rows,
            predicate: None,
            domains: Vec::new(),
        }
    }

    fn grouped(keys: Vec<i64>, alpha: Vec<f64>, p: Vec<f64>, rse: Vec<f64>) -> ModelParams {
        let rows = keys.len();
        ModelParams {
            group_column: Some("source".to_string()),
            names: vec!["alpha".to_string(), "p".to_string()],
            keys,
            values: vec![alpha, p],
            residual_se: rse,
            r2: vec![0.99; rows],
            n: vec![40; rows],
        }
    }

    /// A hand-built grouped power-law model with two sources.
    fn power_law_model() -> CapturedModel {
        let f = parse_formula("intensity ~ p * nu ^ alpha").unwrap();
        let params = grouped(vec![7, 42], vec![-1.2, -0.7], vec![0.5, 2.0], vec![0.02, 0.01]);
        let cov = coverage("measurements", "intensity", "nu", 80);
        CapturedModel::new(f, params, cov, 0.97).unwrap()
    }

    #[test]
    fn scalar_prediction_per_group() {
        let m = power_law_model();
        let i42 = m.predict_scalar(Some(42), &[("nu", 0.14)]).unwrap();
        assert!((i42 - 2.0 * 0.14_f64.powf(-0.7)).abs() < 1e-12);
        let i7 = m.predict_scalar(Some(7), &[("nu", 0.14)]).unwrap();
        assert!((i7 - 0.5 * 0.14_f64.powf(-1.2)).abs() < 1e-12);
    }

    #[test]
    fn unknown_group_and_missing_inputs_error() {
        let m = power_law_model();
        assert!(matches!(
            m.predict_scalar(Some(999), &[("nu", 0.14)]),
            Err(ModelError::UnknownGroup { key: 999 })
        ));
        assert!(matches!(
            m.predict_scalar(Some(42), &[]),
            Err(ModelError::MissingInput { .. })
        ));
        assert!(matches!(
            m.predict_scalar(None, &[("nu", 0.14)]),
            Err(ModelError::MissingInput { .. })
        ));
        assert!(matches!(m.params.row(Some(8)), Err(ModelError::UnknownGroup { key: 8 })));
        assert!(matches!(m.predict(&[0, 1], &[&[0.14]]), Err(ModelError::MissingInput { .. })));
        assert!(matches!(m.predict(&[0], &[]), Err(ModelError::MissingInput { .. })));
    }

    #[test]
    fn batch_prediction_has_the_scalar_bits_across_groups() {
        let m = power_law_model();
        // Both groups interleaved in one batch, each row with its own
        // parameter row.
        let keys = [7, 42, 42, 7, 42, 7];
        let nus = [0.12, 0.15, 0.16, 0.18, 0.12, 0.14];
        let rows: Vec<usize> = keys.iter().map(|&k| m.params.row(Some(k)).unwrap()).collect();
        let batch = m.predict(&rows, &[&nus]).unwrap();
        for ((&k, &nu), p) in keys.iter().zip(&nus).zip(&batch) {
            let s = m.predict_scalar(Some(k), &[("nu", nu)]).unwrap();
            assert_eq!(p.to_bits(), s.to_bits(), "key {k} at nu {nu}");
        }
        assert!(m.predict(&[], &[&[]]).unwrap().is_empty());
    }

    #[test]
    fn error_bound_is_group_residual_se() {
        let m = power_law_model();
        let p = &m.params;
        assert_eq!(p.residual_se[p.row(Some(42)).unwrap()], 0.01);
        assert_eq!(p.residual_se[p.row(Some(7)).unwrap()], 0.02);
        assert!(p.row(None).is_err());
    }

    #[test]
    fn byte_size_matches_paper_accounting() {
        let m = power_law_model();
        // 2 groups × (key + 2 params + rse) × 8 = 64 bytes.
        assert_eq!(m.params.byte_size(), 64);
        assert_eq!(m.params.rows(), 2);
        assert_eq!(m.params.row(Some(42)).unwrap(), 1);
    }

    #[test]
    fn the_constructor_refuses_what_cannot_predict() {
        let f = || parse_formula("intensity ~ p * nu ^ alpha").unwrap();
        let cov = || coverage("measurements", "intensity", "nu", 80);
        let refused = |params: ModelParams| {
            let e = CapturedModel::new(f(), params, cov(), 0.9).unwrap_err();
            assert!(matches!(e, ModelError::BadConstruction { .. }), "{e}");
        };
        // Keys repeated or out of order.
        refused(grouped(vec![7, 7], vec![1.0; 2], vec![1.0; 2], vec![0.1; 2]));
        refused(grouped(vec![42, 7], vec![1.0; 2], vec![1.0; 2], vec![0.1; 2]));
        // A column one value short.
        refused(grouped(vec![7, 42], vec![1.0; 2], vec![1.0], vec![0.1; 2]));
        // No column for the body's parameter `p`.
        let mut params = grouped(vec![7], vec![1.0], vec![1.0], vec![0.1]);
        params.names[1] = "q".to_string();
        refused(params);
    }

    #[test]
    fn global_model_prediction() {
        let f = parse_formula("y ~ a + b * x").unwrap();
        let names = vec!["a".to_string(), "b".to_string()];
        let params = ModelParams::global(names, vec![1.0, 2.0], 0.1, 0.99, 100);
        let m = CapturedModel::new(f, params, coverage("t", "y", "x", 100), 0.99).unwrap();
        assert_eq!(m.predict_scalar(None, &[("x", 3.0)]).unwrap(), 7.0);
        // Group argument is ignored for global models.
        assert_eq!(m.predict_scalar(Some(5), &[("x", 3.0)]).unwrap(), 7.0);
        assert_eq!(m.predict(&[0, 0], &[&[3.0, 4.0]]).unwrap(), [7.0, 9.0]);
        assert_eq!(m.params.byte_size(), 24);
        // A body that reads nothing is one value per point.
        let f = parse_formula("y ~ 2 + 3").unwrap();
        let params = ModelParams::global(Vec::new(), Vec::new(), 0.1, 0.99, 100);
        let m = CapturedModel::new(f, params, coverage("t", "y", "x", 100), 0.99).unwrap();
        assert_eq!(m.predict(&[0, 0, 0], &[&[1.0, 2.0, 3.0]]).unwrap(), [5.0; 3]);
    }
}
