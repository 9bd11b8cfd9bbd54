//! The model leaf: answering from a captured model where a scan would
//! read base rows.
//!
//! PAPER.md §4.2 answers a query by enumerating a model's parameter
//! space. Here that enumeration is a plan leaf, [`ModelScan`], standing
//! where the statement's `Scan` stood. [`ModelPlan::lower`] builds it
//! from the statement and the engine's optimized plan:
//!
//! 1. **Resolve** the best active model whose response the statement
//!    names, and refuse ([`ApproxError::NotAnswerable`]) when the
//!    statement names a column the model does not reconstruct.
//! 2. **Constrain** the dimensions from the predicate's conjunctive
//!    equality and range constraints, with names resolved against the
//!    model's relation the way the executor resolves them: the group
//!    column restricts the keys, pinned variables evaluate at the given
//!    point, and the others fall back to the domains enumerated at fit
//!    time. An unpinned variable with no domain, or more than
//!    [`ENUMERATION_CAP`] cells, is refused.
//! 3. **Rewrite** `Aggregate(ModelScan)` to its closed form when the
//!    model is linear in its one variable ([`lawsdb_approx::analytic`])
//!    and the statement's predicate, the model's coverage and its legal
//!    filter together are nothing but sargable, non-`!=` conjuncts on
//!    the variable and the group column: the leaf then holds the
//!    one-row answer and nothing is enumerated.
//! 4. **Clip** the leaf to the model's own predicates. Its coverage (a
//!    partial model speaks only for the subset it was fitted on) and,
//!    unless the statement is a point lookup, its legal filter are SQL
//!    over the relation, placed as a `Filter` directly above the leaf.
//!    A point outside the coverage is refused instead.
//!
//! The executor materializes the leaf's relation `(group, variables…,
//! response)` a cell at a time: a morsel is a run of whole keys, its
//! cells predicted in one compiled pass with each cell's parameter row
//! gathered as a column, and morsels merge in key order. Keys whose
//! predicted range refutes a response conjunct and combinations never
//! observed at capture are dropped. Everything above the leaf
//! (the model's filter, the statement's filters, aggregates, sorts,
//! limits) is the ordinary executor. Every answer quotes ±2·the largest
//! residual SE of the keys it spans.

use crate::cost::CostConstants;
use crate::error::{QueryError, Result};
use crate::exec::{normalize_expr, normalize_name};
use crate::morsel::{parallel_morsels, ExecOptions};
use crate::physical::{execute_physical_with, plan_physical, PhysicalPlan};
use crate::plan::LogicalPlan;
use crate::pruning::PruningPredicate;
use crate::sexpr::ScalarExpr;
use crate::sql::{parse_predicate, AggFunc, SelectItem, SelectStatement};
use lawsdb_approx::analytic::{model_aggregate, Aggregate};
use lawsdb_approx::{ApproxAnswer, ApproxError, Strategy};
use lawsdb_models::legal::combo_hash;
use lawsdb_models::model::ModelId;
use lawsdb_models::{CapturedModel, ModelCatalog};
use lawsdb_storage::schema::{DataType, Field, Schema};
use lawsdb_storage::zonemap::PredOp;
use lawsdb_storage::{Catalog, Column, Table, TableBuilder};
use std::collections::HashMap;
use std::sync::Arc;

/// Most cells one model leaf may enumerate.
pub const ENUMERATION_CAP: usize = 10_000_000;

/// A plan leaf that reconstructs a modelled table's relation `(group,
/// variables…, response)` from a captured model instead of reading its
/// rows. It reads no base row: `rows_scanned` stays 0, and the cells it
/// materializes are counted in
/// [`QueryResult::cells_reconstructed`](crate::QueryResult).
#[derive(Debug, Clone)]
pub struct ModelScan {
    /// Columns to materialize, or `None` for all (the replaced scan's).
    pub projection: Option<Vec<String>>,
    /// The model snapshot the plan was lowered against.
    pub model: Arc<CapturedModel>,
    /// Admitted group keys in key order (`[None]` for a global model).
    pub keys: Vec<Option<i64>>,
    /// Per input variable, in coverage order, the values enumerated.
    pub values: Vec<Vec<f64>>,
    /// Keys × grid points: the cells enumerated before any is dropped.
    pub cells: usize,
    /// Every dimension pinned by equality: a prediction request, which
    /// bypasses legality.
    pub point: bool,
    /// Sargable conjuncts on the response: a key whose predicted range
    /// refutes one is dropped before its cells materialize (the
    /// reconstructed response is the prediction, so no residual slack).
    pub response_conjuncts: Vec<(PredOp, f64)>,
    /// ±bound the answer quotes: 2·the largest residual SE of the keys.
    pub bound: Option<f64>,
    /// The analytic rewrite of the aggregate above this leaf: its
    /// one-row answer, computed in closed form at lowering.
    pub analytic: Option<Table>,
}

/// A leaf equals only itself: it is lowered once per cached plan, and
/// the model snapshot it holds has no value equality.
impl PartialEq for ModelScan {
    fn eq(&self, other: &ModelScan) -> bool {
        std::ptr::eq(self, other)
    }
}

impl ModelScan {
    /// The EXPLAIN line: `ModelScan t model=<id> cells=<n> bound=±<b>`.
    pub(crate) fn describe(&self) -> String {
        let bound = self.bound.map_or("none".to_string(), |b| format!("±{b:.3e}"));
        let analytic = if self.analytic.is_some() { " analytic" } else { "" };
        let (table, id, cells) = (&self.model.coverage.table, self.model.id.0, self.cells);
        format!("ModelScan {table} model={id} cells={cells} bound={bound}{analytic}")
    }

    /// Materialize the relation. A morsel is a run of whole keys holding
    /// about `opts.morsel_rows` cells: its grid is tiled over its keys,
    /// predicted in one pass, then walked key by key, dropping the keys
    /// whose predicted range refutes a response conjunct and the cells
    /// never observed at capture. Morsels merge in key order, so the
    /// cells come out in key order, then grid order, for any thread
    /// count and morsel size.
    pub(crate) fn materialize(&self, opts: &ExecOptions) -> Result<Table> {
        let model = &self.model;
        let grid = cartesian(&self.values);
        let grid_rows = grid.first().map_or(1, Vec::len);
        // Point lookups bypass legality: they are prediction requests,
        // not relation reconstruction (the paper's own first query asks
        // for ν = 0.14, a never-observed point).
        let observed = model.observed_combos.as_ref().filter(|_| !self.point);
        let prune = !self.point && !self.response_conjuncts.is_empty();
        let keys_per_morsel = opts.morsel_rows.checked_div(grid_rows).unwrap_or(usize::MAX);
        // The leaf's own span times the fan-out; it adds no morsel leaves.
        let morsel_opts =
            ExecOptions { morsel_rows: keys_per_morsel.max(1), profile: None, ..opts.clone() };
        // Per morsel, its first key, the indices of its kept cells (key
        // `k` of the morsel holds cells `k·grid_rows..`) and every
        // cell's prediction.
        let partials = parallel_morsels(self.keys.len(), &morsel_opts, |offset, len| {
            let keys = &self.keys[offset..offset + len];
            let mut param_rows = Vec::with_capacity(len * grid_rows);
            for &key in keys {
                let row = model.params.row(key).map_err(QueryError::Model)?;
                param_rows.extend(std::iter::repeat_n(row, grid_rows));
            }
            let tiled: Vec<Vec<f64>> = grid.iter().map(|g| g.repeat(len)).collect();
            let slices: Vec<&[f64]> = tiled.iter().map(Vec::as_slice).collect();
            let pred = model.predict(&param_rows, &slices).map_err(QueryError::Model)?;
            let (mut kept, mut combo) = (Vec::new(), vec![0.0; grid.len()]);
            for (k, &key) in keys.iter().enumerate() {
                let cells = k * grid_rows..(k + 1) * grid_rows;
                let range = &pred[cells.clone()];
                // Zone-map pruning over the relation: when the key's
                // whole predicted range refutes a response conjunct,
                // none of its cells can pass the filter above. A
                // non-finite prediction makes the range unbounded.
                if prune && grid_rows > 0 && range.iter().all(|p| p.is_finite()) {
                    let lo = range.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = range.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    if self.response_conjuncts.iter().any(|&(op, rhs)| !op.may_match(lo, hi, rhs)) {
                        continue;
                    }
                }
                kept.extend(cells.filter(|&cell| {
                    observed.is_none_or(|bf| {
                        combo.iter_mut().zip(&grid).for_each(|(c, g)| *c = g[cell % grid_rows]);
                        bf.contains(combo_hash(key.unwrap_or(0), &combo))
                    })
                }));
            }
            Ok((offset, kept, pred))
        })?;
        let (mut group, mut response) = (Vec::new(), Vec::new());
        let mut vars: Vec<Vec<f64>> = vec![Vec::new(); grid.len()];
        for (offset, kept, pred) in partials {
            for cell in kept {
                group.push(self.keys[offset + cell / grid_rows].unwrap_or(0));
                for (col, g) in vars.iter_mut().zip(&grid) {
                    col.push(g[cell % grid_rows]);
                }
                response.push(pred[cell]);
            }
        }
        let mut tb = TableBuilder::new(model.coverage.table.clone());
        if let Some(g) = &model.params.group_column {
            tb.add_i64(g.clone(), group);
        }
        for (var, values) in model.coverage.variables.iter().zip(vars) {
            tb.add_f64(var.clone(), values);
        }
        tb.add_f64(model.coverage.response.clone(), response);
        Ok(tb.build()?)
    }
}

/// A statement's model alternative: its plan with a [`ModelScan`] leaf
/// where the scan stood, priced, plus what the answer reports besides
/// its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPlan {
    /// The priced tree the executor runs.
    pub plan: PhysicalPlan,
    /// How the answer is produced.
    pub strategy: Strategy,
    /// The answering model.
    pub model: ModelId,
    /// ±bound the answer quotes.
    pub bound: Option<f64>,
}

impl ModelPlan {
    /// Lower `logical`, the statement's optimized plan, onto a model of
    /// `models`: the statement's scan becomes a [`ModelScan`] and the
    /// tree is priced against `catalog` as any plan is. Refuses with
    /// [`ApproxError::NotAnswerable`] or
    /// [`ApproxError::EnumerationTooLarge`] when no model can stand in.
    pub fn lower(
        stmt: &SelectStatement,
        logical: &LogicalPlan,
        models: &ModelCatalog,
        catalog: &Catalog,
        consts: &CostConstants,
    ) -> std::result::Result<ModelPlan, ApproxError> {
        let not_answerable = |reason: String| ApproxError::NotAnswerable { reason };
        if stmt.join.is_some() {
            return Err(not_answerable("joins are not answerable from a single model".to_string()));
        }
        let referenced = referenced_columns(stmt);
        let model = referenced
            .iter()
            .map(|c| c.split_once('.').map_or(c.as_str(), |(_, plain)| plain))
            .find_map(|c| models.best_for(&stmt.table, c, false).ok())
            .ok_or_else(|| {
                not_answerable(format!(
                    "no active model covers any referenced column of {:?}",
                    stmt.table
                ))
            })?;
        // The relation holds the group column, the variables and the
        // response; a statement naming anything else is the base table's
        // to answer.
        let relation = relation_schema(&model);
        if let Some(c) = referenced.iter().find(|c| normalize_name(&relation, c).is_err()) {
            return Err(not_answerable(format!(
                "model {} does not reconstruct column {c:?}",
                model.id.0
            )));
        }
        let predicate = match &stmt.predicate {
            Some(p) => {
                Some(normalize_expr(p, &relation).map_err(|e| not_answerable(e.to_string()))?)
            }
            None => None,
        };
        let coverage = model_predicate(model.coverage.predicate.as_deref(), &relation)?;
        let legal = model_predicate(model.legal_filter.as_deref(), &relation)?;
        let constraints = extract_constraints(predicate.as_ref());
        let group_column = model.params.group_column.as_deref();
        let mut leaf = ModelScan {
            projection: None,
            model: Arc::clone(&model),
            keys: Vec::new(),
            values: Vec::new(),
            cells: 0,
            point: false,
            response_conjuncts: Vec::new(),
            bound: None,
            analytic: None,
        };

        let group_c = group_column.and_then(|g| constraints.as_ref()?.get(g));
        let admitted = admitted_keys(&model, group_c);
        // The closed form replaces every filter over the leaf, so it
        // answers under all three predicates at once.
        let whole = [&predicate, &coverage, &legal].into_iter().flatten().cloned().reduce(and);
        let analytic = analytic(stmt, &model, group_column, whole.as_ref(), &admitted)?;
        if let Some((table, max_se)) = analytic {
            leaf.analytic = Some(table);
            leaf.bound = Some(2.0 * max_se);
            return Ok(ModelPlan::priced(
                logical,
                leaf,
                None,
                Strategy::AnalyticAggregate,
                catalog,
                consts,
            ));
        }

        let (keys, keys_pinned) = match group_column {
            None => (vec![None], true),
            Some(_) => (
                admitted.into_iter().map(Some).collect(),
                group_c.is_some_and(|c| c.pinned().is_some()),
            ),
        };
        let mut vars_pinned = true;
        for var in &model.coverage.variables {
            let c = constraints.as_ref().and_then(|cs| cs.get(var));
            if let Some(v) = c.and_then(DimConstraint::pinned) {
                leaf.values.push(vec![v]);
                continue;
            }
            vars_pinned = false;
            let Some(domain) = model.coverage.domain_of(var) else {
                return Err(not_answerable(format!(
                    "variable {var:?} is unbound and not enumerable \
                     (the paper's parameter-space-enumeration limit)"
                )));
            };
            leaf.values
                .push(domain.iter().copied().filter(|&v| c.is_none_or(|c| c.admits(v))).collect());
        }
        let too_large = |tuples| ApproxError::EnumerationTooLarge { tuples, cap: ENUMERATION_CAP };
        leaf.cells = leaf
            .values
            .iter()
            .try_fold(keys.len(), |n, v| n.checked_mul(v.len()))
            .ok_or(too_large(usize::MAX))?;
        if leaf.cells > ENUMERATION_CAP {
            return Err(too_large(leaf.cells));
        }
        leaf.point = keys_pinned && vars_pinned;
        // A prediction needs parameters: a point whose key was not
        // fitted is the base table's to answer.
        if leaf.point && keys.is_empty() {
            return Err(not_answerable(format!(
                "model {} has no fitted parameters for the pinned key",
                model.id.0
            )));
        }
        // A point outside a partial model's coverage is refused rather
        // than answered from an inapplicable model (Section 4.1).
        if let (true, Some(cov), Some(&key)) = (leaf.point, &coverage, keys.first()) {
            let row = point_row(&model, key, &leaf.values)?;
            if cov.eval_mask(&row).map_or(true, |m| m.get(0) != Some(true)) {
                return Err(not_answerable(format!(
                    "point lies outside the model's coverage predicate {:?}",
                    model.coverage.predicate.as_deref().unwrap_or("")
                )));
            }
        }
        leaf.response_conjuncts = predicate
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
        leaf.bound = max_residual_se(&model, &keys).map(|se| 2.0 * se);
        leaf.keys = keys;
        let strategy = if leaf.point { Strategy::PointLookup } else { Strategy::Enumeration };
        let legal = legal.filter(|_| !leaf.point);
        let clip = [coverage, legal].into_iter().flatten().reduce(and);
        Ok(ModelPlan::priced(logical, leaf, clip, strategy, catalog, consts))
    }

    fn priced(
        logical: &LogicalPlan,
        leaf: ModelScan,
        clip: Option<ScalarExpr>,
        strategy: Strategy,
        catalog: &Catalog,
        consts: &CostConstants,
    ) -> ModelPlan {
        let (model, bound) = (leaf.model.id, leaf.bound);
        let tree = with_model_leaf(logical, &leaf, clip.as_ref());
        ModelPlan { plan: plan_physical(catalog, &tree, consts), strategy, model, bound }
    }

    /// Run the tree. `catalog` is the one the plan was priced against;
    /// the model leaf reads none of its tables.
    pub fn run(&self, catalog: &Catalog, opts: &ExecOptions) -> Result<ApproxAnswer> {
        let r = execute_physical_with(catalog, &self.plan, opts)?;
        Ok(ApproxAnswer {
            table: r.table,
            rows_scanned: r.rows_scanned,
            tuples_reconstructed: r.cells_reconstructed,
            error_bound: self.bound,
            strategy: self.strategy,
            model: self.model,
        })
    }
}

/// `logical` with its scan of the modelled table replaced by `leaf`,
/// which takes over the scan's projection, under a `Filter` of `clip`
/// when the model has one (the projection then gains the columns it
/// reads). An `Aggregate` over the scan (filtered or not) is itself
/// replaced when `leaf` carries the analytic rewrite: the leaf then
/// answers it in closed form, every predicate already applied.
fn with_model_leaf(
    logical: &LogicalPlan,
    leaf: &ModelScan,
    clip: Option<&ScalarExpr>,
) -> LogicalPlan {
    let model_scan = |projection: &Option<Vec<String>>| {
        let mut projection = projection.clone();
        if let (Some(names), Some(clip)) = (&mut projection, clip) {
            for c in clip.columns() {
                if !names.contains(&c) {
                    names.push(c);
                }
            }
        }
        let scan = LogicalPlan::ModelScan(Arc::new(ModelScan { projection, ..leaf.clone() }));
        match clip {
            Some(clip) => LogicalPlan::Filter { input: Box::new(scan), predicate: clip.clone() },
            None => scan,
        }
    };
    match logical {
        LogicalPlan::Scan { projection, .. } | LogicalPlan::EmptyScan { projection, .. } => {
            model_scan(projection)
        }
        LogicalPlan::Aggregate { group_by, aggs, .. } if leaf.analytic.is_some() => {
            let (group_by, aggs) = (group_by.clone(), aggs.clone());
            let input = Arc::new(ModelScan { projection: None, ..leaf.clone() });
            let input = Box::new(LogicalPlan::ModelScan(input));
            LogicalPlan::Aggregate { input, group_by, aggs }
        }
        other => other.map_inputs(|input| with_model_leaf(input, leaf, clip)),
    }
}

fn and(a: ScalarExpr, b: ScalarExpr) -> ScalarExpr {
    ScalarExpr::And(Box::new(a), Box::new(b))
}

/// One of the model's stored predicates (coverage or legal filter),
/// parsed and resolved against its relation. One that does not parse or
/// names a column outside the relation makes the model unusable here.
fn model_predicate(
    src: Option<&str>,
    relation: &Schema,
) -> std::result::Result<Option<ScalarExpr>, ApproxError> {
    let Some(src) = src else { return Ok(None) };
    let resolved = parse_predicate(src).and_then(|p| normalize_expr(&p, relation));
    let reason = |e: QueryError| format!("the model's predicate {src:?} does not apply: {e}");
    resolved.map(Some).map_err(|e| ApproxError::NotAnswerable { reason: reason(e) })
}

/// The one-row relation of a point lookup, without the response: the
/// group column at `key`, each variable at its pinned value.
fn point_row(
    model: &CapturedModel,
    key: Option<i64>,
    values: &[Vec<f64>],
) -> std::result::Result<Table, ApproxError> {
    let mut row = TableBuilder::new(model.coverage.table.clone());
    if let (Some(k), Some(group_column)) = (key, &model.params.group_column) {
        row.add_i64(group_column.clone(), vec![k]);
    }
    for (var, v) in model.coverage.variables.iter().zip(values) {
        row.add_f64(var.clone(), v.clone());
    }
    Ok(row.build()?)
}

/// The schema of the relation a model reconstructs: group column,
/// variables, response (the order the leaf materializes them in).
fn relation_schema(model: &CapturedModel) -> Schema {
    let mut fields = Vec::new();
    if let Some(group_column) = &model.params.group_column {
        fields.push(Field::new(group_column.clone(), DataType::Int64));
    }
    for var in &model.coverage.variables {
        fields.push(Field::new(var.clone(), DataType::Float64));
    }
    fields.push(Field::new(model.coverage.response.clone(), DataType::Float64));
    Schema::new(fields)
}

/// The closed form of a statement that is exactly one aggregate of the
/// response, ungrouped, over a model linear in its one enumerable
/// variable, where `predicate` (the statement's, the coverage and the
/// legal filter, AND-ed) is wholly sargable conjuncts other than `!=`
/// on that variable and the group column: the one-row answer, named
/// and typed as the exact path names and types it, and the largest
/// residual SE it spans. `keys` are the admitted keys, a superset of
/// those the conjuncts pass. `None` sends the statement to enumeration.
fn analytic(
    stmt: &SelectStatement,
    model: &CapturedModel,
    group_column: Option<&str>,
    predicate: Option<&ScalarExpr>,
    keys: &[i64],
) -> std::result::Result<Option<(Table, f64)>, ApproxError> {
    let [item @ SelectItem::Agg { func, arg: Some(ScalarExpr::Column(c)), .. }] =
        stmt.items.as_slice()
    else {
        return Ok(None);
    };
    if !stmt.group_by.is_empty() || *c != model.coverage.response {
        return Ok(None);
    }
    let [var] = model.coverage.variables.as_slice() else {
        return Ok(None);
    };
    let Some(domain) = model.coverage.domain_of(var) else {
        return Ok(None);
    };
    // The rewrite stands in for the filters, so it must apply every
    // conjunct exactly: anything it cannot (an OR, a NOT, `!=`, a
    // non-sargable or another column's conjunct) goes to enumeration.
    let conjuncts = match predicate.map(PruningPredicate::extract) {
        None => Vec::new(),
        Some(Some(p)) if p.exact => p.conjuncts,
        Some(_) => return Ok(None),
    };
    let on_dimension = |c: &str| c == var || Some(c) == group_column;
    if conjuncts.iter().any(|c| c.op == PredOp::Ne || !on_dimension(&c.column)) {
        return Ok(None);
    }
    let passes = |column: &str, v: f64| {
        conjuncts.iter().filter(|c| c.column == column).all(|c| c.op.eval(v, c.rhs))
    };
    let points: Vec<f64> = domain.iter().copied().filter(|&v| passes(var, v)).collect();
    let filtered: Vec<i64>;
    let keys = match group_column {
        Some(g) if conjuncts.iter().any(|c| c.column == g) => {
            filtered = keys.iter().copied().filter(|&k| passes(g, k as f64)).collect();
            &filtered[..]
        }
        _ => keys,
    };
    let agg = match func {
        AggFunc::Count => Aggregate::Count,
        AggFunc::Sum => Aggregate::Sum,
        AggFunc::Avg => Aggregate::Avg,
        AggFunc::Min => Aggregate::Min,
        AggFunc::Max => Aggregate::Max,
    };
    let Some((value, max_se)) = model_aggregate(model, agg, &points, keys)? else {
        return Ok(None);
    };
    // The closed form ranges over every key × point. Enumeration keeps
    // only the combinations observed at capture, so a grid holding one
    // that was not is enumerated too.
    if let Some(bf) = &model.observed_combos {
        if keys.iter().any(|&k| points.iter().any(|&p| !bf.contains(combo_hash(k, &[p])))) {
            return Ok(None);
        }
    }
    let out = Field::nullable(item.output_name(), func.result_type(false));
    let column = match out.data_type {
        DataType::Int64 => Column::from_i64(vec![value.round() as i64]),
        _ => Column::from_f64(vec![value]),
    };
    let table = TableBuilder::new("result").add_column(out, column).build()?;
    Ok(Some((table, max_se)))
}

/// A grouped model's keys the group column's constraint admits, in key
/// order (none for a global model): the slice of the sorted keys between
/// the constraint's bounds, found by binary search, then filtered by it.
/// A pinned key is a slice of at most one.
fn admitted_keys(model: &CapturedModel, c: Option<&DimConstraint>) -> Vec<i64> {
    let keys = &model.params.keys;
    let Some(c) = c else { return keys.clone() };
    // `=` values bound the keys too: `admits` holds only at one of them.
    let eq_lo = c.eq.iter().copied().reduce(f64::min);
    let eq_hi = c.eq.iter().copied().reduce(f64::max);
    let lo = [c.lo, eq_lo].into_iter().flatten().fold(f64::NEG_INFINITY, f64::max);
    let hi = [c.hi, eq_hi].into_iter().flatten().fold(f64::INFINITY, f64::min);
    let start = keys.partition_point(|&k| (k as f64) < lo);
    let end = start + keys[start..].partition_point(|&k| (k as f64) <= hi);
    keys[start..end].iter().copied().filter(|&k| c.admits(k as f64)).collect()
}

/// Per-dimension constraint extracted from a conjunctive predicate.
#[derive(Debug, Clone, Default)]
struct DimConstraint {
    /// Pinned exact values (from `=`).
    eq: Vec<f64>,
    /// Range lower bound (from `>`/`>=`, both treated as closed: the
    /// filter above the leaf re-applies the exact semantics).
    lo: Option<f64>,
    /// Range upper bound.
    hi: Option<f64>,
}

impl DimConstraint {
    fn admits(&self, v: f64) -> bool {
        (self.eq.is_empty() || self.eq.contains(&v))
            && self.lo.is_none_or(|lo| !(v < lo))
            && self.hi.is_none_or(|hi| !(v > hi))
    }

    fn pinned(&self) -> Option<f64> {
        match self.eq.as_slice() {
            [v] => Some(*v),
            _ => None,
        }
    }
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

/// Per-column constraints of a *conjunctive* predicate: its sargable
/// conjuncts, as the scan pruner extracts them. `None` when there is no
/// predicate, or an AND-ed part is an OR or a NOT (the dimensions then
/// stay unrestricted and the filter above the leaf does the work).
fn extract_constraints(predicate: Option<&ScalarExpr>) -> Option<HashMap<String, DimConstraint>> {
    let predicate = predicate?;
    if predicate.conjuncts().iter().any(|c| matches!(c, ScalarExpr::Or(..) | ScalarExpr::Not(..))) {
        return None;
    }
    let mut map: HashMap<String, DimConstraint> = HashMap::new();
    for c in PruningPredicate::extract(predicate).map(|p| p.conjuncts).unwrap_or_default() {
        let d = map.entry(c.column).or_default();
        match c.op {
            PredOp::Eq => d.eq.push(c.rhs),
            PredOp::Lt | PredOp::Le => d.hi = Some(d.hi.map_or(c.rhs, |h| h.min(c.rhs))),
            PredOp::Gt | PredOp::Ge => d.lo = Some(d.lo.map_or(c.rhs, |l| l.max(c.rhs))),
            PredOp::Ne => {} // cannot restrict; the filter handles it
        }
    }
    Some(map)
}

/// Cartesian product of variable value lists, column-wise: `out[d]` is
/// the d-th variable's value for every grid point, the first variable
/// varying slowest.
fn cartesian(dims: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let total: usize = dims.iter().map(Vec::len).product();
    let mut out: Vec<Vec<f64>> = dims.iter().map(|_| Vec::with_capacity(total)).collect();
    if dims.is_empty() || total == 0 {
        return out;
    }
    let mut repeat = total;
    for (d, values) in dims.iter().enumerate() {
        repeat /= values.len();
        for _ in 0..total / (values.len() * repeat) {
            for &v in values {
                out[d].extend(std::iter::repeat_n(v, repeat));
            }
        }
    }
    out
}

/// The largest residual SE among the rows of `keys` (`[None]`: a global
/// model's one row).
fn max_residual_se(model: &CapturedModel, keys: &[Option<i64>]) -> Option<f64> {
    let params = &model.params;
    let rows = keys.iter().filter_map(|&k| params.row(k).ok());
    rows.map(|row| params.residual_se[row]).reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::optimize;
    use crate::sql::parse_select;
    use lawsdb_fit::FitOptions;
    use lawsdb_models::bridge::{fit_table, fit_table_grouped};
    use lawsdb_models::legal::build_legal_filter;
    use lawsdb_storage::Value;

    /// Synthetic LOFAR table: 5 sources × 4 frequencies × 10 repeats,
    /// and its grouped power-law fit (not yet stored).
    fn lofar() -> (CapturedModel, Table) {
        let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
        let laws: [(f64, f64); 5] =
            [(2.0, -0.7), (0.5, -1.2), (1.0, 0.3), (3.0, -0.5), (0.8, -0.9)];
        let (mut src, mut nu, mut intensity) = (Vec::new(), Vec::new(), Vec::new());
        for (s, &(p, a)) in laws.iter().enumerate() {
            for _ in 0..10 {
                for &f in &freqs {
                    src.push(s as i64);
                    nu.push(f);
                    intensity.push(p * f.powf(a));
                }
            }
        }
        let mut b = TableBuilder::new("measurements");
        b.add_i64("source", src).add_f64("nu", nu).add_f64("intensity", intensity);
        let table = b.build().unwrap();
        let formula = "intensity ~ p * nu ^ alpha";
        let (model, _) =
            fit_table_grouped(&table, formula, "source", &FitOptions::default(), 2).unwrap();
        (model, table)
    }

    fn catalog_of(model: CapturedModel) -> ModelCatalog {
        let models = ModelCatalog::new();
        models.store(model);
        models
    }

    fn lofar_models() -> ModelCatalog {
        catalog_of(lofar().0)
    }

    /// Lower `sql` onto `models` the way the engine does, from the
    /// statement's optimized plan.
    fn lower(models: &ModelCatalog, sql: &str) -> std::result::Result<ModelPlan, ApproxError> {
        let stmt = parse_select(sql).unwrap();
        let logical = optimize(&LogicalPlan::from_statement(&stmt).unwrap());
        ModelPlan::lower(&stmt, &logical, models, &Catalog::new(), &CostConstants::default())
    }

    fn answer_with(models: &ModelCatalog, sql: &str, opts: &ExecOptions) -> ApproxAnswer {
        lower(models, sql).unwrap().run(&Catalog::new(), opts).unwrap()
    }

    fn answer(models: &ModelCatalog, sql: &str) -> ApproxAnswer {
        answer_with(models, sql, &ExecOptions::default())
    }

    fn rows(t: &Table) -> Vec<Vec<Value>> {
        (0..t.row_count()).map(|i| t.row(i).unwrap()).collect()
    }

    #[test]
    fn paper_query_one_is_a_zero_io_point_lookup() {
        let a = answer(
            &lofar_models(),
            "SELECT intensity FROM measurements WHERE source = 1 AND nu = 0.14",
        );
        assert_eq!(a.strategy, Strategy::PointLookup);
        assert_eq!((a.rows_scanned, a.table.row_count()), (0, 1));
        let got = a.table.column("intensity").unwrap().f64_data().unwrap()[0];
        let want = 0.5 * 0.14_f64.powf(-1.2);
        assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        assert!(a.error_bound.is_some());
    }

    #[test]
    fn qualified_names_constrain_like_plain_ones() {
        let models = lofar_models();
        let plain =
            answer(&models, "SELECT intensity FROM measurements WHERE source = 1 AND nu = 0.14");
        let qualified = answer(
            &models,
            "SELECT intensity FROM measurements \
             WHERE measurements.source = 1 AND measurements.nu = 0.14",
        );
        assert_eq!(qualified.strategy, Strategy::PointLookup);
        assert_eq!(qualified.tuples_reconstructed, 1);
        assert_eq!(qualified.table, plain.table);
    }

    #[test]
    fn paper_query_two_enumerates_and_prunes_refuted_keys() {
        let a = answer(
            &lofar_models(),
            "SELECT source, intensity FROM measurements \
             WHERE nu = 0.15 AND intensity > 1.5 ORDER BY source",
        );
        assert_eq!(a.strategy, Strategy::Enumeration);
        assert_eq!(a.rows_scanned, 0);
        // p·0.15^α > 1.5 for sources 0, 1, 3, 4; source 2 (≈0.57) is
        // refuted by its predicted range before its cell materializes.
        let sources: Vec<Value> = rows(&a.table).into_iter().map(|r| r[0].clone()).collect();
        assert_eq!(sources, [0, 1, 3, 4].map(Value::Int));
        assert_eq!(a.tuples_reconstructed, 4);
    }

    #[test]
    fn unsatisfiable_response_predicate_reconstructs_nothing() {
        let a = answer(
            &lofar_models(),
            "SELECT source, intensity FROM measurements WHERE intensity > 1000.0",
        );
        assert_eq!((a.tuples_reconstructed, a.table.row_count()), (0, 0));
    }

    #[test]
    fn enumeration_covers_keys_times_domain_and_aggregates_over_it() {
        let models = lofar_models();
        // 5 sources × 4 frequencies, regardless of the 200 base rows.
        let a = answer(&models, "SELECT source, nu, intensity FROM measurements");
        assert_eq!((a.table.row_count(), a.tuples_reconstructed), (20, 20));
        let a = answer(
            &models,
            "SELECT source, MAX(intensity) AS peak FROM measurements GROUP BY source ORDER BY source",
        );
        assert_eq!(a.table.row_count(), 5);
        // Source 0 peaks at the lowest frequency: 2·0.12^-0.7.
        let Value::Float(peak) = a.table.row(0).unwrap()[1] else { panic!() };
        assert!((peak - 2.0 * 0.12_f64.powf(-0.7)).abs() < 1e-6);
        // A range restricts the domain {0.12, 0.15, 0.16, 0.18} to 3.
        let a = answer(
            &models,
            "SELECT nu, intensity FROM measurements WHERE source = 2 AND nu >= 0.15",
        );
        assert_eq!(a.table.row_count(), 3);
        // A disjunction restricts nothing; the filter above does.
        let a = answer(
            &models,
            "SELECT source, nu, intensity FROM measurements \
             WHERE source = 0 OR source = 2 ORDER BY source, nu",
        );
        assert_eq!(a.table.row_count(), 8);
    }

    #[test]
    fn observed_combinations_gate_enumeration_but_not_points() {
        let (mut model, table) = lofar();
        // Pretend source 4 was never observed at nu = 0.18.
        let src = table.column("source").unwrap().i64_data().unwrap();
        let nu = table.column("nu").unwrap().f64_data().unwrap();
        let keep: Vec<usize> =
            (0..table.row_count()).filter(|&i| !(src[i] == 4 && nu[i] == 0.18)).collect();
        let groups = keep.iter().map(|&i| Some(src[i]));
        let nus: Vec<f64> = keep.iter().map(|&i| nu[i]).collect();
        model.observed_combos = Some(Arc::new(build_legal_filter(groups, &[&nus[..]], 12)));
        let models = catalog_of(model);
        let a = answer(&models, "SELECT source, nu, intensity FROM measurements");
        assert_eq!(a.table.row_count(), 19, "20 combinations minus the unobserved one");
        assert!(rows(&a.table)
            .iter()
            .all(|r| !(r[0] == Value::Int(4) && r[1] == Value::Float(0.18))));
        // The paper's query 1 asks for nu = 0.14, never observed: a
        // prediction request is not filtered.
        let a =
            answer(&models, "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.14");
        assert_eq!(a.table.row_count(), 1);
    }

    #[test]
    fn the_legal_filter_is_a_filter_above_the_leaf_that_points_bypass() {
        let legal = lofar().0.with_legal_filter("nu <= 0.16 AND source != 3");
        let models = catalog_of(legal);
        let sql = "SELECT source, nu, intensity FROM measurements";
        let a = answer(&models, sql);
        // 4 of 5 sources × 3 of 4 frequencies.
        assert_eq!(a.table.row_count(), 12);
        let illegal = |r: &Vec<Value>| r[0] == Value::Int(3) || r[1] == Value::Float(0.18);
        assert!(!rows(&a.table).iter().any(illegal));
        let text = lower(&models, sql).unwrap().plan.explain();
        let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
        assert!(lines[1].starts_with("Filter ((nu <= 0.16) AND (source != 3))"), "{text}");
        assert!(lines[2].starts_with("ModelScan measurements"), "{text}");
        // A prediction request is not filtered.
        let point = "SELECT intensity FROM measurements WHERE source = 3 AND nu = 0.18";
        let a = answer(&models, point);
        assert_eq!((a.strategy, a.table.row_count()), (Strategy::PointLookup, 1));
        // A filter naming a column the relation does not hold refuses.
        let models = catalog_of(lofar().0.with_legal_filter("flag = 0"));
        assert!(matches!(lower(&models, sql), Err(ApproxError::NotAnswerable { .. })));
    }

    #[test]
    fn non_enumerable_unbound_dimension_is_not_answerable() {
        let xs: Vec<f64> =
            (0..2000).map(|i| i as f64 * 0.001 + (i as f64 * 0.37).sin() * 1e-6).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.0 + 2.0 * x).collect();
        let mut b = TableBuilder::new("cont");
        b.add_f64("x", xs).add_f64("y", ys);
        let models = catalog_of(
            fit_table(&b.build().unwrap(), "y ~ a + b * x", &FitOptions::default()).unwrap().0,
        );
        let err = lower(&models, "SELECT x, y FROM cont").unwrap_err();
        assert!(matches!(err, ApproxError::NotAnswerable { .. }), "{err}");
        // A pinned x answers fine.
        let a = answer(&models, "SELECT y FROM cont WHERE x = 0.5");
        let got = a.table.column("y").unwrap().f64_data().unwrap()[0];
        assert!((got - 2.0).abs() < 1e-6);
    }

    /// Three sensors, `temp = 10(k+1) + 2·hour` over hours 0..24, and
    /// its grouped linear fit (not yet stored).
    fn linear_model() -> CapturedModel {
        let (mut g, mut x, mut y) = (Vec::new(), Vec::new(), Vec::new());
        for key in 0..3i64 {
            for h in 0..24 {
                g.push(key);
                x.push(h as f64);
                y.push(10.0 * (key + 1) as f64 + 2.0 * h as f64);
            }
        }
        let mut b = TableBuilder::new("load");
        b.add_i64("sensor", g).add_f64("hour", x).add_f64("temp", y);
        let formula = "temp ~ a + b * hour";
        let (m, _) =
            fit_table_grouped(&b.build().unwrap(), formula, "sensor", &FitOptions::default(), 1)
                .unwrap();
        m
    }

    fn linear_models() -> ModelCatalog {
        catalog_of(linear_model())
    }

    #[test]
    fn linear_aggregates_answer_in_closed_form() {
        let models = linear_models();
        let value = |sql: &str, column: &str| {
            let a = answer(&models, sql);
            assert_eq!(
                (a.strategy, a.tuples_reconstructed),
                (Strategy::AnalyticAggregate, 0),
                "{sql}"
            );
            a.table.column(column).unwrap().to_f64_lossy().unwrap()[0]
        };
        // Max = sensor 2 at hour 23: 30 + 46 = 76.
        assert!((value("SELECT MAX(temp) FROM load", "max(temp)") - 76.0).abs() < 1e-6);
        // AVG: mean over sensors of (10(k+1) + 2·11.5) = 20 + 23 = 43.
        assert!((value("SELECT AVG(temp) AS mean FROM load", "mean") - 43.0).abs() < 1e-6);
        assert_eq!(value("SELECT COUNT(temp) FROM load", "count(temp)"), 72.0);
        // Sensor 1 from hour 12: 20 + 2·12 = 44.
        let sql = "SELECT MIN(temp) FROM load WHERE sensor = 1 AND hour >= 12";
        assert!((value(sql, "min(temp)") - 44.0).abs() < 1e-6);
        // The rewrite is the aggregate's lowering: one aggregate over
        // one model leaf, which EXPLAIN shows with its bound.
        let text = lower(&models, sql).unwrap().plan.explain();
        let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
        assert!(lines[0].starts_with("Aggregate"), "{text}");
        assert!(lines[1].starts_with("ModelScan load model=1 cells=0 bound=±"), "{text}");
        assert!(lines[1].contains(" analytic"), "{text}");
    }

    #[test]
    fn the_closed_form_applies_the_legal_filter_and_declines_what_it_cannot() {
        let models = catalog_of(linear_model().with_legal_filter("hour < 12"));
        // Sensor 2, hours 0..11: at most 30 + 2·11 = 52.
        // `!=` and a non-sargable conjunct are enumerated, and the
        // filters above the leaf apply them.
        for (conjunct, want, strategy) in [
            ("", 52.0, Strategy::AnalyticAggregate),
            (" AND hour != 11", 50.0, Strategy::Enumeration),
            (" AND hour * 2 < 20", 48.0, Strategy::Enumeration),
        ] {
            let sql = format!("SELECT MAX(temp) FROM load WHERE sensor = 2{conjunct}");
            let a = answer(&models, &sql);
            assert_eq!(a.strategy, strategy, "{sql}");
            let got = a.table.column("max(temp)").unwrap().f64_data().unwrap()[0];
            assert!((got - want).abs() < 1e-9, "{sql}: {got}");
        }
    }

    #[test]
    fn an_empty_admitted_domain_declines_the_closed_form() {
        let models = linear_models();
        for (sql, want) in [
            ("SELECT AVG(temp) FROM load WHERE hour > 100", Value::Null),
            ("SELECT SUM(temp) FROM load WHERE hour > 100", Value::Null),
            ("SELECT MIN(temp) FROM load WHERE hour > 100", Value::Null),
            ("SELECT COUNT(temp) FROM load WHERE hour > 100", Value::Int(0)),
        ] {
            let a = answer(&models, sql);
            assert_eq!(a.strategy, Strategy::Enumeration, "{sql}");
            assert_eq!(rows(&a.table), [[want]], "{sql}");
        }
    }

    #[test]
    fn enumeration_past_the_cap_is_refused() {
        let (mut model, _) = lofar();
        // 5 sources × (cap / 4) frequencies is past the cap.
        let wide: Vec<f64> = (0..ENUMERATION_CAP / 4).map(|i| i as f64).collect();
        model.coverage.domains = vec![("nu".to_string(), wide)];
        let err =
            lower(&catalog_of(model), "SELECT source, intensity FROM measurements").unwrap_err();
        let tuples = 5 * (ENUMERATION_CAP / 4);
        assert_eq!(err, ApproxError::EnumerationTooLarge { tuples, cap: ENUMERATION_CAP });
    }

    #[test]
    fn stale_unmodelled_and_unreconstructed_are_not_answerable() {
        let models = lofar_models();
        let sql = "SELECT intensity FROM measurements WHERE source = 1 AND nu = 0.15";
        let stale = ModelCatalog::new();
        let id = stale.store(lofar().0).id;
        stale.set_state(id, lawsdb_models::ModelState::Stale).unwrap();
        for (models, sql) in [
            (&stale, sql),
            (&models, "SELECT a FROM nowhere"),
            (&models, "SELECT intensity, flux FROM measurements"),
        ] {
            let err = lower(models, sql).unwrap_err();
            assert!(matches!(err, ApproxError::NotAnswerable { .. }), "{sql}: {err}");
        }
    }

    #[test]
    fn reconstruction_is_identical_serial_vs_parallel() {
        let models = lofar_models();
        // No ORDER BY: row order must already match, because per-key
        // partials merge in key order.
        let sql = "SELECT source, nu, intensity FROM measurements";
        let a = answer_with(&models, sql, &ExecOptions::serial());
        let b = answer_with(
            &models,
            sql,
            &ExecOptions { threads: 4, morsel_rows: 1, ..ExecOptions::default() },
        );
        assert_eq!(a.tuples_reconstructed, b.tuples_reconstructed);
        assert_eq!(a.table, b.table);
    }

    /// Nine keys of `y ~ a * x ^ b + c * z` over a 4 × 3 grid, with a
    /// third of the (key, x, z) combinations never observed, as a leaf
    /// enumerating every key under `y > 2 AND y <= 40`.
    fn two_variable_leaf() -> ModelScan {
        use lawsdb_models::model::{Coverage, ModelParams};
        let (xs, zs) = (vec![0.5, 1.0, 2.0, 4.0], vec![-1.0, 0.0, 1.0]);
        let keys: Vec<i64> = (0..9).map(|k| 3 * k - 4).collect();
        let column = |f: fn(f64) -> f64| keys.iter().map(|&k| f(k as f64)).collect();
        let params = ModelParams {
            group_column: Some("g".to_string()),
            names: ["a", "b", "c"].map(String::from).to_vec(),
            values: vec![column(|k| 1.0 + k * k / 8.0), column(|k| k / 7.0), column(|k| k / 3.0)],
            residual_se: vec![0.1; keys.len()],
            r2: vec![0.9; keys.len()],
            n: vec![12; keys.len()],
            keys: keys.clone(),
        };
        let coverage = Coverage {
            table: "t".to_string(),
            response: "y".to_string(),
            variables: vec!["x".to_string(), "z".to_string()],
            rows_at_fit: 0,
            predicate: None,
            domains: Vec::new(),
        };
        let formula = lawsdb_expr::parse_formula("y ~ a * x ^ b + c * z").unwrap();
        let mut model = CapturedModel::new(formula, params, coverage, 0.9).unwrap();
        let (mut groups, mut x, mut z) = (Vec::new(), Vec::new(), Vec::new());
        for (i, &k) in keys.iter().enumerate() {
            for (j, &xv) in xs.iter().enumerate() {
                for (l, &zv) in zs.iter().enumerate() {
                    if (i + j + l) % 3 != 0 {
                        groups.push(Some(k));
                        x.push(xv);
                        z.push(zv);
                    }
                }
            }
        }
        let observed = build_legal_filter(groups.into_iter(), &[&x[..], &z[..]], 20);
        model.observed_combos = Some(Arc::new(observed));
        ModelScan {
            projection: None,
            model: Arc::new(model),
            cells: keys.len() * xs.len() * zs.len(),
            keys: keys.into_iter().map(Some).collect(),
            values: vec![xs, zs],
            point: false,
            response_conjuncts: vec![(PredOp::Gt, 2.0), (PredOp::Le, 40.0)],
            bound: None,
            analytic: None,
        }
    }

    /// The leaf's relation computed the slow way: key by key, each grid
    /// point predicted by the tree walk, a key dropped when its range
    /// refutes a response conjunct, a cell when it was never observed.
    fn reference_cells(leaf: &ModelScan) -> Vec<(i64, Vec<u64>)> {
        let model = &leaf.model;
        let grid = cartesian(&leaf.values);
        let mut out = Vec::new();
        for &key in &leaf.keys {
            let inputs = |row: usize| -> Vec<(&str, f64)> {
                model
                    .coverage
                    .variables
                    .iter()
                    .map(String::as_str)
                    .zip(grid.iter().map(|g| g[row]))
                    .collect()
            };
            let pred: Vec<f64> = (0..grid[0].len())
                .map(|row| model.predict_scalar(key, &inputs(row)).unwrap())
                .collect();
            let lo = pred.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = pred.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let refuted =
                leaf.response_conjuncts.iter().any(|&(op, rhs)| !op.may_match(lo, hi, rhs));
            if !leaf.point && pred.iter().all(|p| p.is_finite()) && refuted {
                continue;
            }
            for (row, p) in pred.iter().enumerate() {
                let point: Vec<f64> = grid.iter().map(|g| g[row]).collect();
                let bf = model.observed_combos.as_ref().filter(|_| !leaf.point);
                if bf.is_some_and(|bf| !bf.contains(combo_hash(key.unwrap_or(0), &point))) {
                    continue;
                }
                let bits = point.iter().chain([p]).map(|v| v.to_bits()).collect();
                out.push((key.unwrap_or(0), bits));
            }
        }
        out
    }

    fn cells_of(t: &Table) -> Vec<(i64, Vec<u64>)> {
        let g = t.column("g").unwrap().i64_data().unwrap();
        let cols: Vec<&[f64]> =
            ["x", "z", "y"].iter().map(|c| t.column(c).unwrap().f64_data().unwrap()).collect();
        (0..t.row_count()).map(|i| (g[i], cols.iter().map(|c| c[i].to_bits()).collect())).collect()
    }

    #[test]
    fn every_cell_has_the_tree_walks_bits_and_the_same_cells_are_dropped() {
        let leaf = two_variable_leaf();
        let want = reference_cells(&leaf);
        // Both kinds of drop happen: some keys are refuted whole, and
        // some kept keys lose unobserved cells.
        let kept_keys: std::collections::BTreeSet<i64> = want.iter().map(|(k, _)| *k).collect();
        assert!(kept_keys.len() > 1 && kept_keys.len() < leaf.keys.len(), "{kept_keys:?}");
        assert!(want.len() < kept_keys.len() * 12, "{}", want.len());
        for threads in [1, 4] {
            for morsel_rows in [1, 7, 12, 25, crate::morsel::DEFAULT_MORSEL_ROWS] {
                let opts = ExecOptions { threads, morsel_rows, ..ExecOptions::default() };
                let got = cells_of(&leaf.materialize(&opts).unwrap());
                assert_eq!(got, want, "{threads} threads, {morsel_rows} cells per morsel");
            }
        }
        // A point lookup keeps its cell whatever was observed.
        let unobserved = ModelScan {
            keys: vec![Some(-4)],
            values: vec![vec![0.5], vec![-1.0]],
            cells: 1,
            point: true,
            ..leaf.clone()
        };
        let want = reference_cells(&unobserved);
        assert_eq!(want.len(), 1);
        assert_eq!(cells_of(&unobserved.materialize(&ExecOptions::default()).unwrap()), want);
    }

    #[test]
    fn cartesian_product_shape() {
        let grid = cartesian(&[vec![1.0, 2.0], vec![10.0, 20.0, 30.0]]);
        assert_eq!(
            grid,
            [vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0], vec![10.0, 20.0, 30.0, 10.0, 20.0, 30.0]]
        );
        assert!(cartesian(&[]).is_empty());
        assert_eq!(cartesian(&[vec![1.0], vec![]]), [Vec::<f64>::new(), Vec::new()]);
    }
}
