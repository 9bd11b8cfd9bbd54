//! The captured model artifact.

use crate::error::{ModelError, Result};
use crate::legal::BloomFilter;
use lawsdb_expr::compile::ExecStack;
use lawsdb_expr::{Bindings, CompiledExpr, Expr};
use std::collections::HashMap;
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

/// Fitted parameters of one group in a grouped model.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupParams {
    /// Parameter values in `param_names` order.
    pub values: Vec<f64>,
    /// Residual standard error of this group's fit (the per-group error
    /// bound attached to approximate answers).
    pub residual_se: f64,
    /// R² of this group's fit.
    pub r2: f64,
    /// Observations behind the fit.
    pub n: usize,
}

/// A model's fitted parameters: one global vector, or one vector per
/// group ("we would get a set of model parameters for each aggregation
/// group", Section 4.1).
#[derive(Debug, Clone, PartialEq)]
pub enum ModelParams {
    /// Single parameter vector for the whole coverage.
    Global {
        /// Parameter names, sorted.
        names: Vec<String>,
        /// Values in `names` order.
        values: Vec<f64>,
        /// Residual standard error.
        residual_se: f64,
        /// R².
        r2: f64,
        /// Observations behind the fit.
        n: usize,
    },
    /// One parameter vector per group key.
    Grouped {
        /// The grouping column (the LOFAR source id).
        group_column: String,
        /// Parameter names, sorted.
        names: Vec<String>,
        /// Per-group parameters keyed by group value.
        groups: HashMap<i64, GroupParams>,
    },
}

impl ModelParams {
    /// Parameter names.
    pub fn names(&self) -> &[String] {
        match self {
            ModelParams::Global { names, .. } | ModelParams::Grouped { names, .. } => names,
        }
    }

    /// Number of parameter vectors stored (1 or the group count).
    pub fn vector_count(&self) -> usize {
        match self {
            ModelParams::Global { .. } => 1,
            ModelParams::Grouped { groups, .. } => groups.len(),
        }
    }

    /// Storage footprint in bytes: 8 bytes per stored number (group key,
    /// each parameter, residual SE) — the measure behind Table 1's
    /// "640 KB of model parameters".
    pub fn byte_size(&self) -> usize {
        match self {
            ModelParams::Global { values, .. } => 8 * (values.len() + 1),
            ModelParams::Grouped { names, groups, .. } => {
                groups.len() * 8 * (names.len() + 2)
            }
        }
    }
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
/// new versions via the catalog.
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
    /// Pooled R² over the coverage (grouped: 1 − ΣRSS/ΣTSS).
    pub overall_r2: f64,
    /// Largest |actual − predicted| observed over the fitted rows, if
    /// any row had both values finite. Every finite response value at
    /// fit time lies within `prediction ± max_abs_residual`; the drift
    /// guard, the cluster's shard-model fallback and quarantined-column
    /// re-derive check against it. Scans do not prune with it: the
    /// zone maps built from the data are never looser.
    pub max_abs_residual: Option<f64>,
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
    /// (Section 4.2's "compressed lookup structure"). Held in memory
    /// only: a model loaded from the stored catalog tables has none.
    pub observed_combos: Option<Arc<BloomFilter>>,
}

impl CapturedModel {
    /// Bind this model's parameters for one group (or the global vector)
    /// into `Bindings`, ready for evaluation.
    fn bind_params(&self, group: Option<i64>, b: &mut Bindings) -> Result<()> {
        match (&self.params, group) {
            (ModelParams::Global { names, values, .. }, _) => {
                for (n, v) in names.iter().zip(values) {
                    b.set(n, *v);
                }
                Ok(())
            }
            (ModelParams::Grouped { names, groups, .. }, Some(key)) => {
                let g = groups.get(&key).ok_or(ModelError::UnknownGroup { key })?;
                for (n, v) in names.iter().zip(&g.values) {
                    b.set(n, *v);
                }
                Ok(())
            }
            (ModelParams::Grouped { group_column, .. }, None) => {
                Err(ModelError::MissingInput { variable: group_column.clone() })
            }
        }
    }

    /// Predict the response for one input point.
    ///
    /// `group` selects the parameter vector for grouped models; `inputs`
    /// must bind every input variable.
    pub fn predict_scalar(&self, group: Option<i64>, inputs: &[(&str, f64)]) -> Result<f64> {
        let mut b = Bindings::new();
        for (k, v) in inputs {
            b.set(k, *v);
        }
        self.bind_params(group, &mut b)?;
        for v in &self.coverage.variables {
            if b.get(v).is_none() {
                return Err(ModelError::MissingInput { variable: v.clone() });
            }
        }
        Ok(self.rhs.eval(&b)?)
    }

    /// Predict the response for a batch of input points of one group.
    ///
    /// `columns` supplies one slice per coverage variable, in
    /// [`Coverage::variables`] order.
    pub fn predict_batch(&self, group: Option<i64>, columns: &[&[f64]]) -> Result<Vec<f64>> {
        if columns.len() != self.coverage.variables.len() {
            return Err(ModelError::MissingInput {
                variable: format!(
                    "expected {} input columns, got {}",
                    self.coverage.variables.len(),
                    columns.len()
                ),
            });
        }
        let compiled = self.compile()?;
        let mut b = Bindings::new();
        self.bind_params(group, &mut b)?;
        let scalars: Vec<f64> = compiled
            .scalars()
            .iter()
            .map(|s| b.get(s).ok_or_else(|| ModelError::MissingInput { variable: s.clone() }))
            .collect::<Result<_>>()?;
        // Map compiled column order back to coverage order.
        let cols: Vec<&[f64]> = compiled
            .columns()
            .iter()
            .map(|c| {
                self.coverage
                    .variables
                    .iter()
                    .position(|v| v == c)
                    .map(|i| columns[i])
                    .ok_or_else(|| ModelError::MissingInput { variable: c.clone() })
            })
            .collect::<Result<_>>()?;
        let n = columns.first().map_or(1, |c| c.len());
        let mut stack = ExecStack::default();
        let v = compiled.eval_batch_with(&cols, &scalars, &mut stack)?;
        Ok(if v.len() == 1 && n != 1 { vec![v[0]; n] } else { v })
    }

    /// Compile the model body against its coverage variables.
    pub fn compile(&self) -> Result<CompiledExpr> {
        let vars: Vec<&str> = self.coverage.variables.iter().map(String::as_str).collect();
        Ok(CompiledExpr::compile(&self.rhs, &vars)?)
    }

    /// The error bound attached to approximate answers from this model:
    /// the residual SE of the chosen group (grouped) or of the fit
    /// (global). Approximate answers quote ±2·SE (~95% under Gaussian
    /// residuals).
    pub fn error_bound(&self, group: Option<i64>) -> Result<f64> {
        match (&self.params, group) {
            (ModelParams::Global { residual_se, .. }, _) => Ok(*residual_se),
            (ModelParams::Grouped { groups, .. }, Some(key)) => groups
                .get(&key)
                .map(|g| g.residual_se)
                .ok_or(ModelError::UnknownGroup { key }),
            (ModelParams::Grouped { group_column, .. }, None) => {
                Err(ModelError::MissingInput { variable: group_column.clone() })
            }
        }
    }

    /// Group keys for grouped models, sorted (the enumerable "source"
    /// dimension of the parameter space).
    pub fn group_keys(&self) -> Vec<i64> {
        match &self.params {
            ModelParams::Global { .. } => Vec::new(),
            ModelParams::Grouped { groups, .. } => {
                let mut ks: Vec<i64> = groups.keys().copied().collect();
                ks.sort_unstable();
                ks
            }
        }
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

    /// A hand-built grouped power-law model with two sources.
    pub(crate) fn power_law_model() -> CapturedModel {
        let f = parse_formula("intensity ~ p * nu ^ alpha").unwrap();
        let mut groups = HashMap::new();
        groups.insert(
            42,
            GroupParams { values: vec![-0.7, 2.0], residual_se: 0.01, r2: 0.99, n: 40 },
        );
        groups.insert(
            7,
            GroupParams { values: vec![-1.2, 0.5], residual_se: 0.02, r2: 0.95, n: 40 },
        );
        CapturedModel {
            id: ModelId(1),
            version: 1,
            formula_source: f.source.clone(),
            rhs: f.rhs.clone(),
            params: ModelParams::Grouped {
                group_column: "source".to_string(),
                names: vec!["alpha".to_string(), "p".to_string()],
                groups,
            },
            coverage: Coverage {
                table: "measurements".to_string(),
                response: "intensity".to_string(),
                variables: vec!["nu".to_string()],
                rows_at_fit: 80,
                predicate: None,
                domains: Vec::new(),
            },
            overall_r2: 0.97,
            max_abs_residual: None,
            state: ModelState::Active,
            legal_filter: None,
            observed_combos: None,
        }
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
    }

    #[test]
    fn batch_prediction_matches_scalar() {
        let m = power_law_model();
        let nus = [0.12, 0.15, 0.16, 0.18];
        let batch = m.predict_batch(Some(42), &[&nus]).unwrap();
        for (i, &nu) in nus.iter().enumerate() {
            let s = m.predict_scalar(Some(42), &[("nu", nu)]).unwrap();
            assert!((batch[i] - s).abs() < 1e-14);
        }
    }

    #[test]
    fn error_bound_is_group_residual_se() {
        let m = power_law_model();
        assert_eq!(m.error_bound(Some(42)).unwrap(), 0.01);
        assert_eq!(m.error_bound(Some(7)).unwrap(), 0.02);
        assert!(m.error_bound(None).is_err());
    }

    #[test]
    fn byte_size_matches_paper_accounting() {
        let m = power_law_model();
        // 2 groups × (key + 2 params + rse) × 8 = 64 bytes.
        assert_eq!(m.params.byte_size(), 64);
        assert_eq!(m.params.vector_count(), 2);
        assert_eq!(m.group_keys(), vec![7, 42]);
    }

    #[test]
    fn global_model_prediction() {
        let f = parse_formula("y ~ a + b * x").unwrap();
        let m = CapturedModel {
            id: ModelId(2),
            version: 1,
            formula_source: f.source.clone(),
            rhs: f.rhs.clone(),
            params: ModelParams::Global {
                names: vec!["a".to_string(), "b".to_string()],
                values: vec![1.0, 2.0],
                residual_se: 0.1,
                r2: 0.99,
                n: 100,
            },
            coverage: Coverage {
                table: "t".to_string(),
                response: "y".to_string(),
                variables: vec!["x".to_string()],
                rows_at_fit: 100,
                predicate: None,
                domains: Vec::new(),
            },
            overall_r2: 0.99,
            max_abs_residual: None,
            state: ModelState::Active,
            legal_filter: None,
            observed_combos: None,
        };
        assert_eq!(m.predict_scalar(None, &[("x", 3.0)]).unwrap(), 7.0);
        // Group argument is ignored for global models.
        assert_eq!(m.predict_scalar(Some(5), &[("x", 3.0)]).unwrap(), 7.0);
        assert_eq!(m.error_bound(None).unwrap(), 0.1);
        assert_eq!(m.params.byte_size(), 24);
    }
}
