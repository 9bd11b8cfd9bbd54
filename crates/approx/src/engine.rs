//! The model-backed approximate query engine.
//!
//! Given a SQL query over a modeled table, the engine answers it without
//! touching a single base-table row:
//!
//! 1. **Resolve** the best active model covering the referenced response
//!    column (catalog model selection).
//! 2. **Constrain** the reconstruction dimensions from the predicate's
//!    conjunctive equality/range constraints: the group column restricts
//!    to specific keys, pinned variables evaluate at the given point,
//!    remaining variables fall back to their **enumerated domains**
//!    captured at fit time (Section 4.2's parameter-space enumeration;
//!    a non-enumerable unpinned dimension makes the query
//!    [`ApproxError::NotAnswerable`] — exactly the paper's "the cost for
//!    this could quickly overwhelm the savings" case).
//! 3. **Reconstruct** the virtual relation `(group, variables…,
//!    response)` by evaluating the model per group over the variable
//!    grid, optionally dropping combinations rejected by the model's
//!    legal filter or a registered Bloom filter of observed
//!    combinations.
//! 4. **Execute** the original SQL against the virtual relation through
//!    the ordinary query executor — filters, projections, aggregates,
//!    ORDER BY and LIMIT all apply unchanged.
//! 5. **Annotate** the answer with an error bound derived from the
//!    involved groups' residual standard errors (±2·SE), Figure 2's
//!    step 5: "returned with error bounds".
//!
//! Pure aggregate queries over *linear* models short-circuit into
//! closed-form answers ([`crate::analytic`]) without materializing the
//! grid at all.

use crate::analytic::{linear_aggregate_groups, Aggregate, Domain};
use crate::error::{ApproxError, Result};
use crate::legal::{combo_hash, BloomFilter};
use lawsdb_expr::ast::CmpOp;
use lawsdb_expr::{Bindings, Expr};
use lawsdb_models::model::ModelId;
use lawsdb_models::{CapturedModel, ModelCatalog, ModelParams};
use lawsdb_query::morsel::parallel_morsels;
use lawsdb_query::sql::{AggFunc, SelectItem, SelectStatement};
use lawsdb_query::{parse_select, ExecOptions, PruningPredicate, ScalarExpr};
use lawsdb_storage::zonemap::PredOp;
use lawsdb_storage::schema::{DataType, Field};
use lawsdb_storage::{Catalog, Column, Table, TableBuilder};
use std::collections::HashMap;
use std::sync::Arc;

/// How an approximate answer was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// All dimensions pinned by equality: a single model evaluation.
    PointLookup,
    /// Parameter-space enumeration over captured domains.
    Enumeration,
    /// Closed-form linear-model aggregate; nothing materialized.
    AnalyticAggregate,
}

/// An approximate query answer.
#[derive(Debug, Clone)]
pub struct ApproxAnswer {
    /// Result rows.
    pub table: Table,
    /// Base-table rows touched — zero by construction on every model
    /// path (the paper's zero-IO property).
    pub rows_scanned: usize,
    /// Virtual tuples reconstructed from the model (the CPU cost the
    /// paper trades the IO for).
    pub tuples_reconstructed: usize,
    /// ±bound on reconstructed response values (2·max residual SE over
    /// the involved groups), when derivable.
    pub error_bound: Option<f64>,
    /// Which strategy answered the query.
    pub strategy: Strategy,
    /// The model that answered it.
    pub model: ModelId,
}

/// Per-dimension constraint extracted from a conjunctive predicate.
#[derive(Debug, Clone, Default)]
struct DimConstraint {
    /// Pinned exact values (from `=`).
    eq: Vec<f64>,
    /// Range lower bound (from `>`/`>=`; we treat both as closed — the
    /// residual predicate re-applies exact semantics later).
    lo: Option<f64>,
    /// Range upper bound.
    hi: Option<f64>,
}

impl DimConstraint {
    fn admits(&self, v: f64) -> bool {
        if !self.eq.is_empty() && !self.eq.contains(&v) {
            return false;
        }
        if let Some(lo) = self.lo {
            if v < lo {
                return false;
            }
        }
        if let Some(hi) = self.hi {
            if v > hi {
                return false;
            }
        }
        true
    }

    fn pinned(&self) -> Option<f64> {
        if self.eq.len() == 1 {
            Some(self.eq[0])
        } else {
            None
        }
    }
}

/// The approximate query engine. Holds the model catalog plus optional
/// registered legal-combination Bloom filters.
pub struct ApproxEngine {
    models: Arc<ModelCatalog>,
    legal_filters: HashMap<u64, BloomFilter>,
    /// Cap on reconstructed tuples per query.
    pub enumeration_cap: usize,
    /// Parallel-execution knobs; reconstruction fans `predict_batch`
    /// out over group keys and the residual SQL runs through the
    /// morsel-parallel executor. Results are identical for any setting.
    pub exec: ExecOptions,
}

impl ApproxEngine {
    /// New engine over a model catalog.
    pub fn new(models: Arc<ModelCatalog>) -> ApproxEngine {
        ApproxEngine {
            models,
            legal_filters: HashMap::new(),
            enumeration_cap: 10_000_000,
            exec: ExecOptions::default(),
        }
    }

    /// Register a Bloom filter of observed (group, variables…) combos
    /// for a model; enumeration will drop combinations it rejects.
    pub fn register_legal_filter(&mut self, model: ModelId, filter: BloomFilter) {
        self.legal_filters.insert(model.0, filter);
    }

    /// Answer a SELECT approximately from captured models.
    pub fn answer(&self, sql: &str) -> Result<ApproxAnswer> {
        let stmt = parse_select(sql)?;
        if stmt.join.is_some() {
            return Err(ApproxError::NotAnswerable {
                reason: "joins are not answerable from a single model".to_string(),
            });
        }
        let referenced = referenced_columns(&stmt);
        let model = self.resolve_model(&stmt.table, &referenced)?;
        // The virtual relation holds the group column, the variables and
        // the response; a statement naming anything else is the base
        // table's to answer.
        let group_column = match &model.params {
            ModelParams::Grouped { group_column, .. } => Some(group_column),
            ModelParams::Global { .. } => None,
        };
        let reconstructs = |c: &str| {
            let c = c.split_once('.').map_or(c, |(_, plain)| plain);
            c == model.coverage.response
                || model.coverage.variables.iter().any(|v| v == c)
                || group_column.is_some_and(|g| g == c)
        };
        if let Some(c) = referenced.iter().find(|c| !reconstructs(c)) {
            return Err(ApproxError::NotAnswerable {
                reason: format!("model {} does not reconstruct column {c:?}", model.id.0),
            });
        }
        let constraints = extract_constraints(stmt.predicate.as_ref());

        // Try the closed-form path first: aggregate-only query over a
        // linear model.
        if let Some(answer) = self.try_analytic(&stmt, &model, &constraints)? {
            return Ok(answer);
        }

        // Build the reconstruction dimensions.
        let (keys, pinned_all) = self.group_dimension(&model, &constraints)?;
        let (var_values, vars_pinned) = self.variable_dimensions(&model, &constraints)?;

        let grid = cartesian(&var_values);
        let tuples = keys.len().checked_mul(grid_len(&grid)).ok_or(
            ApproxError::EnumerationTooLarge { tuples: usize::MAX, cap: self.enumeration_cap },
        )?;
        if tuples > self.enumeration_cap {
            return Err(ApproxError::EnumerationTooLarge {
                tuples,
                cap: self.enumeration_cap,
            });
        }

        let pure_point = pinned_all && vars_pinned;
        // Partial model (Section 4.1): reconstruction is clipped to the
        // coverage predicate; a point lookup outside it is refused
        // rather than answered from an inapplicable model.
        let coverage_pred: Option<Expr> = match &model.coverage.predicate {
            None => None,
            Some(src) => Some(lawsdb_expr::parse_expr(src).map_err(|e| {
                ApproxError::NotAnswerable {
                    reason: format!("unparseable coverage predicate: {e}"),
                }
            })?),
        };
        // The scan pruner, reused on the model path: sargable conjuncts
        // on the response column refute whole group keys from each
        // key's predicted range *before* any tuple materializes (the
        // reconstructed response IS the prediction, so the residual
        // bound is zero here).
        let response_conjuncts: Vec<(PredOp, f64)> = stmt
            .predicate
            .as_ref()
            .and_then(PruningPredicate::extract)
            .map(|p| {
                p.conjuncts
                    .into_iter()
                    .filter(|c| c.column == model.coverage.response)
                    .map(|c| (c.op, c.rhs))
                    .collect()
            })
            .unwrap_or_default();

        let virtual_table = self.reconstruct(
            &model,
            &keys,
            &grid,
            pure_point,
            coverage_pred.as_ref(),
            &response_conjuncts,
        )?;
        let reconstructed = virtual_table.row_count();

        // Error bound: 2·max residual SE over involved groups.
        let error_bound = max_residual_se(&model, &keys).map(|se| 2.0 * se);

        // Run the original SQL over the virtual relation.
        let catalog = Catalog::new();
        catalog.register(virtual_table).map_err(ApproxError::Storage)?;
        let result = lawsdb_query::execute_with(&catalog, sql, &self.exec)?;

        Ok(ApproxAnswer {
            table: result.table,
            rows_scanned: 0,
            tuples_reconstructed: reconstructed,
            error_bound,
            strategy: if pure_point { Strategy::PointLookup } else { Strategy::Enumeration },
            model: model.id,
        })
    }

    /// Find the model whose response is one of the referenced columns.
    fn resolve_model(&self, table: &str, referenced: &[String]) -> Result<Arc<CapturedModel>> {
        for col in referenced {
            if let Ok(m) = self.models.best_for(table, col, false) {
                return Ok(m);
            }
        }
        Err(ApproxError::NotAnswerable {
            reason: format!("no active model covers any referenced column of {table:?}"),
        })
    }

    /// Group-key dimension: restricted keys and whether it is pinned.
    fn group_dimension(
        &self,
        model: &CapturedModel,
        constraints: &Option<HashMap<String, DimConstraint>>,
    ) -> Result<(Vec<Option<i64>>, bool)> {
        match &model.params {
            ModelParams::Global { .. } => Ok((vec![None], true)),
            ModelParams::Grouped { group_column, .. } => {
                let all = model.group_keys();
                if let Some(cs) = constraints {
                    if let Some(c) = cs.get(group_column) {
                        let keys: Vec<Option<i64>> = all
                            .iter()
                            .copied()
                            .filter(|&k| c.admits(k as f64))
                            .map(Some)
                            .collect();
                        let pinned = c.pinned().is_some();
                        return Ok((keys, pinned));
                    }
                }
                Ok((all.into_iter().map(Some).collect(), false))
            }
        }
    }

    /// Variable dimensions: per variable the values to evaluate at, and
    /// whether all variables were pinned by equality.
    fn variable_dimensions(
        &self,
        model: &CapturedModel,
        constraints: &Option<HashMap<String, DimConstraint>>,
    ) -> Result<(Vec<Vec<f64>>, bool)> {
        let mut out = Vec::with_capacity(model.coverage.variables.len());
        let mut all_pinned = true;
        for var in &model.coverage.variables {
            let c = constraints.as_ref().and_then(|cs| cs.get(var));
            if let Some(v) = c.and_then(|c| c.pinned()) {
                out.push(vec![v]);
                continue;
            }
            all_pinned = false;
            match model.coverage.domain_of(var) {
                Some(domain) => {
                    let values: Vec<f64> = match c {
                        Some(c) => domain.iter().copied().filter(|&v| c.admits(v)).collect(),
                        None => domain.to_vec(),
                    };
                    out.push(values);
                }
                None => {
                    return Err(ApproxError::NotAnswerable {
                        reason: format!(
                            "variable {var:?} is unbound and not enumerable \
                             (the paper's parameter-space-enumeration limit)"
                        ),
                    })
                }
            }
        }
        Ok((out, all_pinned))
    }

    /// Materialize the virtual relation.
    fn reconstruct(
        &self,
        model: &CapturedModel,
        keys: &[Option<i64>],
        grid: &[Vec<f64>],
        pure_point: bool,
        coverage_pred: Option<&Expr>,
        response_conjuncts: &[(PredOp, f64)],
    ) -> Result<Table> {
        let vars = &model.coverage.variables;
        let grid_rows = grid_len(grid);
        let legal_bloom = self.legal_filters.get(&model.id.0);

        // The model's own legal filter (user-supplied expression over
        // the inputs — Section 4.2's first remedy).
        let legal_expr: Option<&Expr> = model.legal_filter.as_ref();

        /// Columns reconstructed for one group key.
        struct KeyPartial {
            group: Vec<i64>,
            vars: Vec<Vec<f64>>,
            resp: Vec<f64>,
        }

        // Evaluate one group key's whole grid in a batch, then filter
        // rows through coverage/legality. Each key is independent, so
        // the keys fan out across the morsel worker pool; partials are
        // merged back in key order, which makes the reconstructed
        // relation identical for any thread count.
        let per_key = |key: Option<i64>| -> Result<KeyPartial> {
            let var_slices: Vec<&[f64]> = grid.iter().map(Vec::as_slice).collect();
            let pred = model.predict_batch(key, &var_slices)?;
            let mut out = KeyPartial {
                group: Vec::new(),
                vars: vec![Vec::new(); vars.len()],
                resp: Vec::new(),
            };
            // Zone-map pruning over the virtual relation: if the key's
            // whole predicted range refutes a response conjunct, none of
            // its rows can survive the SQL filter — skip reconstruction.
            // A non-finite prediction makes the range unbounded (never
            // prunable).
            if !pure_point && !response_conjuncts.is_empty() && grid_rows > 0 {
                let mut lo = f64::INFINITY;
                let mut hi = f64::NEG_INFINITY;
                let mut unbounded = false;
                for &p in &pred {
                    if !p.is_finite() {
                        unbounded = true;
                        break;
                    }
                    lo = lo.min(p);
                    hi = hi.max(p);
                }
                if !unbounded
                    && response_conjuncts.iter().any(|&(op, rhs)| !op.may_match(lo, hi, rhs))
                {
                    return Ok(out);
                }
            }
            let mut combo = vec![0.0; vars.len()];
            for row in 0..grid_rows {
                for (d, g) in grid.iter().enumerate() {
                    combo[d] = g[row];
                }
                // Coverage predicate applies to *every* path: a partial
                // model must not speak for rows outside its subset.
                if let Some(cov) = coverage_pred {
                    let mut b = Bindings::new();
                    for (d, var) in vars.iter().enumerate() {
                        b.set(var, combo[d]);
                    }
                    if let (Some(k), ModelParams::Grouped { group_column, .. }) =
                        (key, &model.params)
                    {
                        b.set(group_column, k as f64);
                    }
                    let covered = cov.eval(&b).map(|v| v != 0.0).unwrap_or(false);
                    if !covered {
                        if pure_point {
                            return Err(ApproxError::NotAnswerable {
                                reason: format!(
                                    "point lies outside the model's coverage \
                                     predicate {:?}",
                                    model.coverage.predicate.as_deref().unwrap_or("")
                                ),
                            });
                        }
                        continue;
                    }
                }
                // Point lookups bypass legality: they are prediction
                // requests, not relation reconstruction (the paper's own
                // first query asks for ν = 0.14, a never-observed point).
                if !pure_point {
                    if let Some(bf) = legal_bloom {
                        if !bf.contains(combo_hash(key.unwrap_or(0), &combo)) {
                            continue;
                        }
                    }
                    if let Some(f) = legal_expr {
                        let mut b = Bindings::new();
                        for (d, var) in vars.iter().enumerate() {
                            b.set(var, combo[d]);
                        }
                        if let Some(k) = key {
                            if let ModelParams::Grouped { group_column, .. } = &model.params {
                                b.set(group_column, k as f64);
                            }
                        }
                        if f.eval(&b).map(|v| v == 0.0).unwrap_or(false) {
                            continue;
                        }
                    }
                }
                out.group.push(key.unwrap_or(0));
                for (d, c) in out.vars.iter_mut().enumerate() {
                    c.push(combo[d]);
                }
                out.resp.push(pred[row]);
            }
            Ok(out)
        };

        // One key per morsel; errors propagate in key order below so
        // failures are deterministic too.
        let key_opts = ExecOptions { morsel_rows: 1, ..self.exec.clone() };
        let partials = parallel_morsels(keys.len(), &key_opts, |offset, _| {
            Ok(per_key(keys[offset]))
        })?;

        let mut col_group: Vec<i64> = Vec::new();
        let mut col_vars: Vec<Vec<f64>> = vec![Vec::new(); vars.len()];
        let mut col_resp: Vec<f64> = Vec::new();
        for partial in partials {
            let mut p = partial?;
            col_group.append(&mut p.group);
            for (d, c) in col_vars.iter_mut().enumerate() {
                c.append(&mut p.vars[d]);
            }
            col_resp.append(&mut p.resp);
        }

        let mut tb = TableBuilder::new(model.coverage.table.clone());
        if let ModelParams::Grouped { group_column, .. } = &model.params {
            tb.add_i64(group_column.clone(), col_group);
        }
        for (d, var) in vars.iter().enumerate() {
            tb.add_f64(var.clone(), std::mem::take(&mut col_vars[d]));
        }
        tb.add_f64(model.coverage.response.clone(), col_resp);
        tb.build().map_err(ApproxError::Storage)
    }

    /// Closed-form aggregates for linear models.
    fn try_analytic(
        &self,
        stmt: &SelectStatement,
        model: &CapturedModel,
        constraints: &Option<HashMap<String, DimConstraint>>,
    ) -> Result<Option<ApproxAnswer>> {
        // Shape: exactly one aggregate over the response, no grouping.
        if !stmt.group_by.is_empty() || stmt.items.len() != 1 {
            return Ok(None);
        }
        let (func, arg) = match &stmt.items[0] {
            SelectItem::Agg { func, arg: Some(ScalarExpr::Column(c)), .. }
                if c == &model.coverage.response =>
            {
                (*func, c.clone())
            }
            _ => return Ok(None),
        };
        let _ = arg;
        // The answer's column is named and typed as the exact path's.
        let out = Field::nullable(stmt.items[0].output_name(), func.result_type(false));
        let agg = match func {
            AggFunc::Count => Aggregate::Count,
            AggFunc::Sum => Aggregate::Sum,
            AggFunc::Avg => Aggregate::Avg,
            AggFunc::Min => Aggregate::Min,
            AggFunc::Max => Aggregate::Max,
        };
        // Single input variable, enumerable domain.
        if model.coverage.variables.len() != 1 {
            return Ok(None);
        }
        let var = &model.coverage.variables[0];
        let Some(domain) = model.coverage.domain_of(var) else {
            return Ok(None);
        };
        // Predicate may constrain only the variable and the group column.
        let Some(cs) = (match constraints {
            Some(cs) => Some(cs),
            None if stmt.predicate.is_none() => {
                // No predicate at all: empty constraint map.
                return self.analytic_over(model, agg, out, domain, &DimConstraint::default(), None);
            }
            None => None, // disjunctive predicate: bail to enumeration
        }) else {
            return Ok(None);
        };
        let group_col = match &model.params {
            ModelParams::Grouped { group_column, .. } => Some(group_column.clone()),
            ModelParams::Global { .. } => None,
        };
        for col in cs.keys() {
            if col != var && Some(col.clone()) != group_col {
                return Ok(None);
            }
        }
        let var_c = cs.get(var).cloned().unwrap_or_default();
        let group_c = group_col.as_ref().and_then(|g| cs.get(g)).cloned();
        self.analytic_over(model, agg, out, domain, &var_c, group_c.as_ref())
    }

    fn analytic_over(
        &self,
        model: &CapturedModel,
        agg: Aggregate,
        out: Field,
        domain: &[f64],
        var_c: &DimConstraint,
        group_c: Option<&DimConstraint>,
    ) -> Result<Option<ApproxAnswer>> {
        let points: Vec<f64> = domain.iter().copied().filter(|&v| var_c.admits(v)).collect();
        let var = &model.coverage.variables[0];
        // Linearize per parameter vector: substitute fitted params and
        // check d/dvar is constant.
        let mut groups: Vec<(f64, f64, Domain)> = Vec::new();
        let mut max_se = 0.0f64;
        match &model.params {
            ModelParams::Global { names, values, residual_se, .. } => {
                let Some((a, b)) = linearize(&model.rhs, var, names, values) else {
                    // Non-linear model: fall back to enumeration.
                    return Ok(None);
                };
                groups.push((a, b, Domain::Points(points.clone())));
                max_se = *residual_se;
            }
            ModelParams::Grouped { names, groups: map, .. } => {
                for &key in &model.group_keys() {
                    if let Some(c) = group_c {
                        if !c.admits(key as f64) {
                            continue;
                        }
                    }
                    let g = &map[&key];
                    let Some((a, b)) = linearize(&model.rhs, var, names, &g.values) else {
                        return Ok(None);
                    };
                    groups.push((a, b, Domain::Points(points.clone())));
                    max_se = max_se.max(g.residual_se);
                }
            }
        }
        if groups.is_empty() {
            return Ok(None); // constraint excluded every group
        }
        let value = linear_aggregate_groups(&groups, agg)?;
        let column = match out.data_type {
            DataType::Int64 => Column::from_i64(vec![value.round() as i64]),
            _ => Column::from_f64(vec![value]),
        };
        let table = TableBuilder::new("result")
            .add_column(out, column)
            .build()
            .map_err(ApproxError::Storage)?;
        Ok(Some(ApproxAnswer {
            table,
            rows_scanned: 0,
            tuples_reconstructed: 0,
            error_bound: Some(2.0 * max_se),
            strategy: Strategy::AnalyticAggregate,
            model: model.id,
        }))
    }
}

/// Substitute fitted parameters into the model body and test linearity
/// in `var`: returns `(intercept, slope)` when `f(x) = intercept +
/// slope·x` exactly.
fn linearize(rhs: &Expr, var: &str, names: &[String], values: &[f64]) -> Option<(f64, f64)> {
    let mut bound = rhs.clone();
    for (n, v) in names.iter().zip(values) {
        bound = bound.substitute(n, &Expr::Num(*v));
    }
    let d = lawsdb_expr::deriv::differentiate(&bound, var).ok()?;
    let slope = d.as_const()?;
    let at_zero = lawsdb_expr::simplify::simplify(&bound.substitute(var, &Expr::Num(0.0)));
    let intercept = at_zero.as_const()?;
    Some((intercept, slope))
}

/// Every column the statement names: in its SELECT list, its WHERE and
/// its GROUP BY. (ORDER BY names output columns.)
fn referenced_columns(stmt: &SelectStatement) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Expr { expr, .. } | SelectItem::Agg { arg: Some(expr), .. } => {
                out.extend(expr.columns())
            }
            SelectItem::Star | SelectItem::Agg { arg: None, .. } => {}
        }
    }
    out.extend(stmt.predicate.iter().flat_map(ScalarExpr::columns));
    out.extend(stmt.group_by.iter().cloned());
    out
}

/// Extract per-column constraints from a *conjunctive* predicate.
/// Returns `None` when the predicate contains OR/NOT (dimensions then
/// stay unrestricted and the residual predicate filters after
/// reconstruction).
fn extract_constraints(
    predicate: Option<&ScalarExpr>,
) -> Option<HashMap<String, DimConstraint>> {
    let mut map = HashMap::new();
    match predicate {
        None => return None,
        Some(p) => {
            if !collect(p, &mut map) {
                return None;
            }
        }
    }
    return Some(map);

    fn collect(e: &ScalarExpr, map: &mut HashMap<String, DimConstraint>) -> bool {
        match e {
            ScalarExpr::And(a, b) => collect(a, map) && collect(b, map),
            ScalarExpr::Cmp(op, a, b) => {
                let (col, val, op) = match (&**a, &**b) {
                    (ScalarExpr::Column(c), ScalarExpr::Number(v)) => (c.clone(), *v, *op),
                    (ScalarExpr::Number(v), ScalarExpr::Column(c)) => {
                        (c.clone(), *v, flip(*op))
                    }
                    // Comparisons between columns etc.: no dimension
                    // restriction, but still conjunctive — keep going.
                    _ => return true,
                };
                let c = map.entry(col).or_default();
                match op {
                    CmpOp::Eq => c.eq.push(val),
                    CmpOp::Lt | CmpOp::Le => {
                        c.hi = Some(c.hi.map_or(val, |h| h.min(val)));
                    }
                    CmpOp::Gt | CmpOp::Ge => {
                        c.lo = Some(c.lo.map_or(val, |l| l.max(val)));
                    }
                    CmpOp::Ne => {} // cannot restrict; post-filter handles it
                }
                true
            }
            // Any non-conjunctive structure: give up on restriction.
            ScalarExpr::Or(..) | ScalarExpr::Not(..) => false,
            // Other leaves restrict nothing but stay conjunctive.
            _ => true,
        }
    }

    fn flip(op: CmpOp) -> CmpOp {
        match op {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    }
}

/// Cartesian product of variable value lists, column-wise: result[d] is
/// the d-th variable's value for every grid row.
fn cartesian(dims: &[Vec<f64>]) -> Vec<Vec<f64>> {
    if dims.is_empty() {
        return Vec::new();
    }
    let total: usize = dims.iter().map(Vec::len).product();
    let mut out: Vec<Vec<f64>> = dims.iter().map(|_| Vec::with_capacity(total)).collect();
    if total == 0 {
        return out;
    }
    let mut repeat = total;
    for (d, values) in dims.iter().enumerate() {
        repeat /= values.len();
        let cycles = total / (values.len() * repeat);
        for _ in 0..cycles {
            for &v in values {
                for _ in 0..repeat {
                    out[d].push(v);
                }
            }
        }
    }
    out
}

fn grid_len(grid: &[Vec<f64>]) -> usize {
    grid.first().map_or(1, Vec::len)
}

fn max_residual_se(model: &CapturedModel, keys: &[Option<i64>]) -> Option<f64> {
    match &model.params {
        ModelParams::Global { residual_se, .. } => Some(*residual_se),
        ModelParams::Grouped { groups, .. } => {
            let mut best: Option<f64> = None;
            for key in keys.iter().flatten() {
                if let Some(g) = groups.get(key) {
                    best = Some(best.map_or(g.residual_se, |b| b.max(g.residual_se)));
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_fit::FitOptions;
    use lawsdb_models::bridge::fit_table_grouped;
    use lawsdb_storage::Value;

    /// Synthetic LOFAR table: 5 sources × 4 frequencies × 10 repeats.
    fn lofar_setup() -> (Arc<ModelCatalog>, ModelId, Table) {
        let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
        let laws: [(f64, f64); 5] =
            [(2.0, -0.7), (0.5, -1.2), (1.0, 0.3), (3.0, -0.5), (0.8, -0.9)];
        let mut src = Vec::new();
        let mut nu = Vec::new();
        let mut intensity = Vec::new();
        for (s, &(p, a)) in laws.iter().enumerate() {
            for rep in 0..10 {
                for &f in &freqs {
                    let _ = rep;
                    src.push(s as i64);
                    nu.push(f);
                    intensity.push(p * f.powf(a));
                }
            }
        }
        let mut b = TableBuilder::new("measurements");
        b.add_i64("source", src);
        b.add_f64("nu", nu);
        b.add_f64("intensity", intensity);
        let table = b.build().unwrap();
        let (model, _) = fit_table_grouped(
            &table,
            "intensity ~ p * nu ^ alpha",
            "source",
            &FitOptions::default(),
            2,
        )
        .unwrap();
        let catalog = Arc::new(ModelCatalog::new());
        let stored = catalog.store(model);
        (catalog, stored.id, table)
    }

    #[test]
    fn paper_query_one_is_a_zero_io_point_lookup() {
        let (models, _, _) = lofar_setup();
        let engine = ApproxEngine::new(models);
        let a = engine
            .answer("SELECT intensity FROM measurements WHERE source = 1 AND nu = 0.14")
            .unwrap();
        assert_eq!(a.strategy, Strategy::PointLookup);
        assert_eq!(a.rows_scanned, 0);
        assert_eq!(a.table.row_count(), 1);
        let got = a.table.column("intensity").unwrap().f64_data().unwrap()[0];
        let want = 0.5 * 0.14_f64.powf(-1.2);
        assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        assert!(a.error_bound.is_some());
    }

    #[test]
    fn paper_query_two_enumerates_the_parameter_space() {
        let (models, _, _) = lofar_setup();
        let engine = ApproxEngine::new(models);
        let a = engine
            .answer(
                "SELECT source, intensity FROM measurements \
                 WHERE nu = 0.15 AND intensity > 1.5 ORDER BY source",
            )
            .unwrap();
        assert_eq!(a.strategy, Strategy::Enumeration);
        assert_eq!(a.rows_scanned, 0);
        // Truth: sources with p·0.15^α > 1.5 → s0: 2·0.15^-0.7≈7.6 ✓,
        // s1: 0.5·0.15^-1.2≈4.8 ✓, s2: 1·0.15^0.3≈0.57 ✗,
        // s3: 3·0.15^-0.5≈7.7 ✓, s4: 0.8·0.15^-0.9≈4.4 ✓.
        let sources: Vec<Value> =
            (0..a.table.row_count()).map(|i| a.table.row(i).unwrap()[0].clone()).collect();
        assert_eq!(
            sources,
            vec![Value::Int(0), Value::Int(1), Value::Int(3), Value::Int(4)]
        );
    }

    #[test]
    fn response_conjuncts_prune_refuted_keys_before_reconstruction() {
        let (models, _, _) = lofar_setup();
        let engine = ApproxEngine::new(models);
        let a = engine
            .answer(
                "SELECT source, intensity FROM measurements \
                 WHERE nu = 0.15 AND intensity > 1.5 ORDER BY source",
            )
            .unwrap();
        // Source 2's predicted intensity at nu = 0.15 (≈0.57) refutes
        // the conjunct, so its tuple is never reconstructed: only the
        // four surviving keys materialize.
        assert_eq!(a.tuples_reconstructed, 4);
        assert_eq!(a.table.row_count(), 4);
    }

    #[test]
    fn unsatisfiable_response_predicate_reconstructs_nothing() {
        let (models, _, _) = lofar_setup();
        let engine = ApproxEngine::new(models);
        let a = engine
            .answer("SELECT source, intensity FROM measurements WHERE intensity > 1000.0")
            .unwrap();
        assert_eq!(a.tuples_reconstructed, 0);
        assert_eq!(a.table.row_count(), 0);
    }

    #[test]
    fn unbound_source_enumerates_all_groups_once_per_nu() {
        let (models, _, _) = lofar_setup();
        let engine = ApproxEngine::new(models);
        let a = engine.answer("SELECT source, nu, intensity FROM measurements").unwrap();
        // 5 sources × 4 frequencies, regardless of the 200 base rows.
        assert_eq!(a.table.row_count(), 20);
        assert_eq!(a.tuples_reconstructed, 20);
    }

    #[test]
    fn aggregate_over_reconstruction() {
        let (models, _, _) = lofar_setup();
        let engine = ApproxEngine::new(models);
        let a = engine
            .answer(
                "SELECT source, MAX(intensity) AS peak FROM measurements \
                 GROUP BY source ORDER BY source",
            )
            .unwrap();
        assert_eq!(a.table.row_count(), 5);
        // Source 0 peaks at the lowest frequency: 2·0.12^-0.7.
        let peak0 = a.table.row(0).unwrap()[1].clone();
        let want = 2.0 * 0.12_f64.powf(-0.7);
        match peak0 {
            Value::Float(v) => assert!((v - want).abs() < 1e-6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn range_constraint_restricts_enumerated_domain() {
        let (models, _, _) = lofar_setup();
        let engine = ApproxEngine::new(models);
        let a = engine
            .answer("SELECT nu, intensity FROM measurements WHERE source = 2 AND nu >= 0.15")
            .unwrap();
        // Domain {0.12, 0.15, 0.16, 0.18} restricted to ≥ 0.15 → 3 rows.
        assert_eq!(a.table.row_count(), 3);
    }

    #[test]
    fn registered_bloom_filter_drops_unobserved_combos() {
        let (models, id, table) = lofar_setup();
        let mut engine = ApproxEngine::new(models);
        // Build the filter from rows where source ≠ 4 at nu = 0.18, i.e.
        // pretend source 4 was never observed at 0.18.
        let src = table.column("source").unwrap().i64_data().unwrap();
        let nu = table.column("nu").unwrap().f64_data().unwrap();
        let keep: Vec<usize> = (0..table.row_count())
            .filter(|&i| !(src[i] == 4 && nu[i] == 0.18))
            .collect();
        let groups: Vec<i64> = keep.iter().map(|&i| src[i]).collect();
        let nus: Vec<f64> = keep.iter().map(|&i| nu[i]).collect();
        let bf = crate::legal::build_legal_filter(&groups, &[&nus[..]], 12);
        engine.register_legal_filter(id, bf);
        let a = engine.answer("SELECT source, nu, intensity FROM measurements").unwrap();
        // 20 combos minus the one pruned.
        assert_eq!(a.table.row_count(), 19);
        for i in 0..a.table.row_count() {
            let row = a.table.row(i).unwrap();
            assert!(
                !(row[0] == Value::Int(4) && row[1] == Value::Float(0.18)),
                "pruned combo resurfaced"
            );
        }
    }

    #[test]
    fn point_lookup_bypasses_legality() {
        // The paper's query 1 asks for ν = 0.14 — never observed.
        let (models, id, table) = lofar_setup();
        let mut engine = ApproxEngine::new(models);
        let src = table.column("source").unwrap().i64_data().unwrap().to_vec();
        let nu = table.column("nu").unwrap().f64_data().unwrap().to_vec();
        let bf = crate::legal::build_legal_filter(&src, &[&nu[..]], 12);
        engine.register_legal_filter(id, bf);
        let a = engine
            .answer("SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.14")
            .unwrap();
        assert_eq!(a.table.row_count(), 1, "prediction requests are not filtered");
    }

    #[test]
    fn non_enumerable_unbound_dimension_is_not_answerable() {
        // Build a model over a continuous variable (not enumerable).
        let xs: Vec<f64> = (0..2000).map(|i| i as f64 * 0.001 + (i as f64 * 0.37).sin() * 1e-6).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 + 2.0 * x).collect();
        let mut b = TableBuilder::new("cont");
        b.add_f64("x", xs);
        b.add_f64("y", ys);
        let t = b.build().unwrap();
        let m = lawsdb_models::bridge::fit_table(&t, "y ~ a + b * x", &FitOptions::default())
            .unwrap();
        let models = Arc::new(ModelCatalog::new());
        models.store(m);
        let engine = ApproxEngine::new(models);
        // Unbound x, non-enumerable, and the projection needs tuples.
        let err = engine.answer("SELECT x, y FROM cont").unwrap_err();
        assert!(matches!(err, ApproxError::NotAnswerable { .. }), "{err}");
        // But a pinned x answers fine.
        let a = engine.answer("SELECT y FROM cont WHERE x = 0.5").unwrap();
        let got = a.table.column("y").unwrap().f64_data().unwrap()[0];
        assert!((got - 2.0).abs() < 1e-6);
    }

    #[test]
    fn analytic_aggregate_short_circuits_for_linear_models() {
        // Linear per-group model over an enumerable domain.
        let hours: Vec<f64> = (0..24).map(|h| h as f64).collect();
        let mut g = Vec::new();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for key in 0..3i64 {
            for &h in &hours {
                g.push(key);
                x.push(h);
                y.push(10.0 * (key + 1) as f64 + 2.0 * h);
            }
        }
        let mut b = TableBuilder::new("load");
        b.add_i64("sensor", g);
        b.add_f64("hour", x);
        b.add_f64("temp", y);
        let t = b.build().unwrap();
        let (m, _) = fit_table_grouped(&t, "temp ~ a + b * hour", "sensor", &FitOptions::default(), 1)
            .unwrap();
        let models = Arc::new(ModelCatalog::new());
        models.store(m);
        let engine = ApproxEngine::new(models);
        let a = engine.answer("SELECT MAX(temp) FROM load").unwrap();
        assert_eq!(a.strategy, Strategy::AnalyticAggregate);
        assert_eq!(a.tuples_reconstructed, 0, "nothing materialized");
        let got = a.table.column("max(temp)").unwrap().f64_data().unwrap()[0];
        // Max = sensor 2 at hour 23: 30 + 46 = 76.
        assert!((got - 76.0).abs() < 1e-6, "{got}");
        // AVG: mean over sensors of (10(k+1) + 2·11.5) = 20 + 23 = 43.
        let a = engine.answer("SELECT AVG(temp) AS mean FROM load").unwrap();
        let got = a.table.column("mean").unwrap().f64_data().unwrap()[0];
        assert!((got - 43.0).abs() < 1e-6, "{got}");
        // COUNT over the reconstruction = 3 × 24.
        let a = engine.answer("SELECT COUNT(temp) FROM load").unwrap();
        assert_eq!(a.table.column("count(temp)").unwrap().i64_data().unwrap()[0], 72);
    }

    #[test]
    fn analytic_respects_constraints() {
        let hours: Vec<f64> = (0..24).map(|h| h as f64).collect();
        let mut g = Vec::new();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for key in 0..3i64 {
            for &h in &hours {
                g.push(key);
                x.push(h);
                y.push(10.0 * (key + 1) as f64 + 2.0 * h);
            }
        }
        let mut b = TableBuilder::new("load");
        b.add_i64("sensor", g);
        b.add_f64("hour", x);
        b.add_f64("temp", y);
        let t = b.build().unwrap();
        let (m, _) = fit_table_grouped(&t, "temp ~ a + b * hour", "sensor", &FitOptions::default(), 1)
            .unwrap();
        let models = Arc::new(ModelCatalog::new());
        models.store(m);
        let engine = ApproxEngine::new(models);
        let a = engine
            .answer("SELECT MIN(temp) FROM load WHERE sensor = 1 AND hour >= 12")
            .unwrap();
        assert_eq!(a.strategy, Strategy::AnalyticAggregate);
        let got = a.table.column("min(temp)").unwrap().f64_data().unwrap()[0];
        // Sensor 1: 20 + 2·12 = 44.
        assert!((got - 44.0).abs() < 1e-6, "{got}");
    }

    #[test]
    fn enumeration_cap_is_enforced() {
        let (models, _, _) = lofar_setup();
        let mut engine = ApproxEngine::new(models);
        engine.enumeration_cap = 10;
        let err = engine.answer("SELECT source, intensity FROM measurements").unwrap_err();
        assert!(matches!(err, ApproxError::EnumerationTooLarge { tuples: 20, cap: 10 }));
    }

    #[test]
    fn stale_model_does_not_answer() {
        let (models, id, _) = lofar_setup();
        models.set_state(id, lawsdb_models::ModelState::Stale).unwrap();
        let engine = ApproxEngine::new(models);
        assert!(matches!(
            engine.answer("SELECT intensity FROM measurements WHERE source = 1 AND nu = 0.15"),
            Err(ApproxError::NotAnswerable { .. })
        ));
    }

    #[test]
    fn unmodeled_table_is_not_answerable() {
        let models = Arc::new(ModelCatalog::new());
        let engine = ApproxEngine::new(models);
        assert!(matches!(
            engine.answer("SELECT a FROM nowhere"),
            Err(ApproxError::NotAnswerable { .. })
        ));
    }

    #[test]
    fn cartesian_product_shape() {
        let grid = cartesian(&[vec![1.0, 2.0], vec![10.0, 20.0, 30.0]]);
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].len(), 6);
        assert_eq!(grid[0], vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0]);
        assert_eq!(grid[1], vec![10.0, 20.0, 30.0, 10.0, 20.0, 30.0]);
        let empty = cartesian(&[]);
        assert!(empty.is_empty());
        let with_empty_dim = cartesian(&[vec![1.0], vec![]]);
        assert_eq!(grid_len(&with_empty_dim), 0);
    }

    #[test]
    fn reconstruction_is_identical_serial_vs_parallel() {
        let (models, _, _) = lofar_setup();
        let mut serial = ApproxEngine::new(Arc::clone(&models));
        serial.exec = ExecOptions::serial();
        let mut parallel = ApproxEngine::new(models);
        parallel.exec = ExecOptions { threads: 4, morsel_rows: 1, ..ExecOptions::default() };
        // No ORDER BY: row order must already match because per-key
        // partials merge in key order.
        let sql = "SELECT source, nu, intensity FROM measurements";
        let a = serial.answer(sql).unwrap();
        let b = parallel.answer(sql).unwrap();
        assert_eq!(a.tuples_reconstructed, b.tuples_reconstructed);
        assert_eq!(a.table.row_count(), b.table.row_count());
        for i in 0..a.table.row_count() {
            assert_eq!(a.table.row(i).unwrap(), b.table.row(i).unwrap());
        }
    }

    #[test]
    fn disjunctive_predicates_still_answer_correctly() {
        let (models, _, _) = lofar_setup();
        let engine = ApproxEngine::new(models);
        let a = engine
            .answer(
                "SELECT source, nu, intensity FROM measurements \
                 WHERE source = 0 OR source = 2 ORDER BY source, nu",
            )
            .unwrap();
        // Full enumeration post-filtered: 2 sources × 4 nus.
        assert_eq!(a.table.row_count(), 8);
    }
}
