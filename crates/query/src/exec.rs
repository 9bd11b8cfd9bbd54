//! Vectorized, morsel-parallel plan execution.
//!
//! The executor recognizes `Scan → Filter → Aggregate` pipeline shapes
//! and runs them morsel-at-a-time on a scoped worker pool (see
//! [`crate::morsel`]); per-morsel partial states merge in morsel order,
//! which keeps row and group order serial, and aggregates keep exact
//! sums, so results are bit-identical for any thread count or morsel
//! size. Every other plan node runs serially on its (possibly
//! parallel-computed) input.

use crate::aggregate::{aggregate, aggregate_pipeline, GroupTable, NO_GROUP};
use crate::error::{QueryError, Result};
use crate::governor::Governor;
use crate::morsel::{morsel_ranges, parallel_morsels, ExecOptions};
use crate::optimize::optimize;
use crate::plan::LogicalPlan;
use crate::pruning::{PruningPredicate, ScanStats, ScanStatsCollector, ZoneDecision};
use crate::sexpr::{PredMask, ScalarExpr};
use crate::sql::{parse_select, OrderBy};
use lawsdb_obs::fields;
use lawsdb_storage::bitmap::Bitmap;
use lawsdb_storage::schema::{Field, Schema};
use lawsdb_storage::{Catalog, Column, Table, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Result of executing a query: the output table plus the exact number
/// of base-table rows the executor materialized.
///
/// `rows_scanned` is the paper's currency — the model path's whole
/// point is answering with `rows_scanned == 0`. It deliberately keeps
/// its pre-pruning meaning (rows the scans covered); the zones that
/// pruning actually skipped are reported in `scan_stats`.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output rows.
    pub table: Table,
    /// Base-table rows materialized by scans.
    pub rows_scanned: usize,
    /// Cells materialized by model leaves (the CPU the model path pays
    /// instead of IO).
    pub cells_reconstructed: usize,
    /// Zone-level pruning counters for this query.
    pub scan_stats: ScanStats,
}

/// What a plan's leaves touched: base rows scanned and model cells
/// reconstructed.
#[derive(Debug, Default)]
struct Touched {
    rows: usize,
    cells: usize,
}

/// Parse, plan, optimize and execute a SELECT statement with explicit
/// execution options.
pub fn execute_with(catalog: &Catalog, sql: &str, opts: &ExecOptions) -> Result<QueryResult> {
    let stmt = parse_select(sql)?;
    let plan = LogicalPlan::from_statement(&stmt)?;
    let plan = optimize(&plan);
    execute_plan_with(catalog, &plan, opts)
}

/// [`execute_with`] under default options: the unit tests' shorthand.
#[cfg(test)]
pub(crate) fn execute(catalog: &Catalog, sql: &str) -> Result<QueryResult> {
    execute_with(catalog, sql, &ExecOptions::default())
}

/// Execute an already-built logical plan with explicit options (the
/// body of both public entry points).
pub(crate) fn execute_plan_with(
    catalog: &Catalog,
    plan: &LogicalPlan,
    opts: &ExecOptions,
) -> Result<QueryResult> {
    // This run counts its zones privately: a caller-supplied collector
    // may be shared by concurrent queries, so it only receives this
    // run's totals, once, whether the run succeeds or fails.
    let collector = Arc::new(ScanStatsCollector::default());
    let shared = opts.stats.clone();
    // Arm the governor *here* so the deadline clock measures this
    // query; `arm` returns None for unlimited budgets, keeping the
    // common unbudgeted path free of governor checks entirely.
    let opts = ExecOptions {
        stats: Some(collector.clone()),
        governor: Governor::arm(opts.budget, opts.cancel.clone()),
        ..opts.clone()
    };
    // Admission check: plans that never reach a morsel boundary (a
    // bare zero-copy scan) must still honour an already-cancelled
    // token or an already-expired deadline.
    opts.governor_check()?;
    let mut touched = Touched::default();
    let table = exec(catalog, plan, &mut touched, &opts);
    let scan_stats = collector.snapshot();
    if let Some(shared) = shared {
        shared.add(&scan_stats);
    }
    let table = table?;
    if let Some(ctx) = &opts.profile {
        ctx.point(
            "scan.stats",
            fields![
                pages_total = scan_stats.pages_total,
                pruned_zonemap = scan_stats.pages_pruned_zonemap,
                accepted = scan_stats.zones_accepted,
                zones_agg_synopsis = scan_stats.zones_agg_synopsis,
            ],
        );
        if let Some(g) = &opts.governor {
            ctx.point(
                "governor.summary",
                fields![
                    rows_admitted = g.rows_admitted(),
                    memory_used = g.memory_used(),
                ],
            );
        }
    }
    Ok(QueryResult {
        table,
        rows_scanned: touched.rows,
        cells_reconstructed: touched.cells,
        scan_stats,
    })
}

/// Materialize a base-table scan: zero-copy clone/projection plus the
/// `rows_scanned` accounting. `touched.rows` is bumped by the full table row
/// count *before* any filter runs, identically on the serial and
/// parallel paths.
fn scan_table(
    catalog: &Catalog,
    table: &str,
    projection: &Option<Vec<String>>,
    touched: &mut Touched,
    opts: &ExecOptions,
) -> Result<Table> {
    let t = catalog.get(table)?;
    touched.rows += t.row_count();
    // Rows are charged at scan admission, before any filter runs; the
    // scan itself is zero-copy and charges no memory.
    opts.charge_rows(t.row_count())?;
    project_known(&t, projection)
}

/// Apply a scan's projection list. The optimizer prunes without schema
/// knowledge, so a join plan lists both tables' columns at each scan;
/// keep only the ones this table actually has. Truly unknown names
/// surface later as UnknownColumn when an expression references them.
fn project_known(t: &Table, projection: &Option<Vec<String>>) -> Result<Table> {
    let names: Vec<&str> = projection
        .iter()
        .flatten()
        .map(String::as_str)
        .filter(|n| t.schema().index_of(n).is_some())
        .collect();
    if names.is_empty() {
        Ok(t.clone())
    } else {
        Ok(t.project(&names)?)
    }
}

/// Dotted span name for a plan node (DESIGN.md §12 taxonomy).
fn plan_node_name(plan: &LogicalPlan) -> &'static str {
    match plan {
        LogicalPlan::Scan { .. } => "plan.scan",
        LogicalPlan::EmptyScan { .. } => "plan.scan.empty",
        LogicalPlan::ModelScan(_) => "plan.scan.model",
        LogicalPlan::Join { .. } => "plan.join",
        LogicalPlan::Filter { .. } => "plan.filter",
        LogicalPlan::Aggregate { .. } => "plan.aggregate",
        LogicalPlan::Project { .. } => "plan.project",
        LogicalPlan::Sort { .. } => "plan.sort",
        LogicalPlan::Distinct { .. } => "plan.distinct",
        LogicalPlan::Limit { .. } => "plan.limit",
    }
}

/// Execute one plan node, wrapped in a profile span when a sink is set.
/// The span's child context becomes the options' profile for everything
/// the node does — recursive input execution, morsel leaves, zone
/// points — so the profile tree mirrors the plan tree.
fn exec(
    catalog: &Catalog,
    plan: &LogicalPlan,
    touched: &mut Touched,
    opts: &ExecOptions,
) -> Result<Table> {
    let Some(ctx) = &opts.profile else {
        return exec_node(catalog, plan, touched, opts);
    };
    let mut span = ctx.span(plan_node_name(plan));
    let child = ExecOptions { profile: Some(span.child()), ..opts.clone() };
    let r = exec_node(catalog, plan, touched, &child);
    match &r {
        Ok(t) => span.field("rows_out", t.row_count() as u64),
        Err(e) => span.field("error", e.to_string()),
    }
    r
}

fn exec_node(
    catalog: &Catalog,
    plan: &LogicalPlan,
    touched: &mut Touched,
    opts: &ExecOptions,
) -> Result<Table> {
    match plan {
        LogicalPlan::Scan { table, projection } => {
            scan_table(catalog, table, projection, touched, opts)
        }
        LogicalPlan::EmptyScan { table, projection } => {
            // Statically empty (`LIMIT 0` elision): resolve the schema
            // like a scan, but touch zero rows and charge nothing.
            let t = project_known(&*catalog.get(table)?, projection)?;
            Ok(t.take(&[])?)
        }
        LogicalPlan::ModelScan(m) => {
            let t = m.materialize(opts)?;
            touched.cells += t.row_count();
            project_known(&t, &m.projection)
        }
        LogicalPlan::Join { left, right, left_col, right_col } => {
            let lt = exec(catalog, left, touched, opts)?;
            let rt = exec(catalog, right, touched, opts)?;
            hash_join(&lt, &rt, left_col, right_col, opts)
        }
        LogicalPlan::Filter { input, predicate } => {
            let t = exec(catalog, input, touched, opts)?;
            let predicate = normalize_expr(predicate, t.schema())?;
            parallel_filter(&t, &predicate, opts)
        }
        LogicalPlan::Aggregate { input, group_by, aggs } => {
            // Pipeline shape Aggregate(Filter?(Scan | ModelScan)): fuse
            // the filter into the per-morsel aggregation instead of
            // materializing the filtered table. A model leaf carrying
            // the analytic rewrite already holds the aggregate's row.
            if let Some((leaf, predicate)) = scan_pipeline(input) {
                let t = match leaf {
                    // The model leaf keeps its own span under the
                    // aggregate's; a base scan stays part of the kernel.
                    LogicalPlan::ModelScan(m) => match &m.analytic {
                        Some(row) => return Ok(row.clone()),
                        None => exec(catalog, leaf, touched, opts)?,
                    },
                    _ => exec_node(catalog, leaf, touched, opts)?,
                };
                let predicate =
                    predicate.map(|p| normalize_expr(p, t.schema())).transpose()?;
                return aggregate_pipeline(&t, predicate.as_ref(), group_by, aggs, opts);
            }
            let t = exec(catalog, input, touched, opts)?;
            aggregate(&t, group_by, aggs)
        }
        LogicalPlan::Project { input, exprs, star } => {
            let t = exec(catalog, input, touched, opts)?;
            project(&t, exprs, *star, opts)
        }
        LogicalPlan::Sort { input, keys } => {
            let t = exec(catalog, input, touched, opts)?;
            // Sorting gathers every input row into a fresh table.
            charge_take(opts, &t, t.row_count())?;
            sort(&t, keys)
        }
        LogicalPlan::Distinct { input } => {
            let t = exec(catalog, input, touched, opts)?;
            // Every row keyed by all its cells; each group keeps its first.
            let cols: Vec<&Column> = t.columns().iter().collect();
            let mut keep = Vec::new();
            GroupTable::default().group_ids(&cols, t.row_count(), None, |row| keep.push(row));
            charge_take(opts, &t, keep.len())?;
            Ok(t.take(&keep)?)
        }
        LogicalPlan::Limit { input, n } => {
            let t = exec(catalog, input, touched, opts)?;
            let keep: Vec<usize> = (0..t.row_count().min(*n)).collect();
            charge_take(opts, &t, keep.len())?;
            Ok(t.take(&keep)?)
        }
    }
}

/// The engine's projection: `t`'s columns when `star`, then one column
/// per `(expression, output name)`.
pub(crate) fn project(
    t: &Table,
    exprs: &[(ScalarExpr, String)],
    star: bool,
    opts: &ExecOptions,
) -> Result<Table> {
    let mut fields = Vec::new();
    let mut cols = Vec::new();
    if star {
        fields.extend(t.schema().fields().iter().cloned());
        cols.extend(t.columns().iter().cloned());
    }
    for (e, name) in exprs {
        let e = normalize_expr(e, t.schema())?;
        let col = parallel_eval_batch(&e, t, opts)?;
        fields.push(Field::nullable(name.clone(), col.data_type()));
        cols.push(col);
    }
    Ok(Table::new("result", Schema::new(fields), cols)?)
}

/// Heap bytes a column holds (fixed-width types exactly; strings by
/// content length plus the per-`String` header).
fn column_bytes(c: &Column) -> usize {
    match c {
        Column::Int64 { data, .. } => data.len() * 8,
        Column::Float64 { data, .. } => data.len() * 8,
        Column::Bool { data, .. } => data.len().div_ceil(8),
        Column::Str { data, .. } => data
            .iter()
            .map(|s| s.len() + std::mem::size_of::<String>())
            .sum(),
    }
}

/// Charge a pending `take(rows)` materialization of `t` against the
/// memory budget *before* allocating it, using `t`'s average row width.
/// Conservative by construction: the estimate is what the output will
/// actually occupy for fixed-width columns, and the content average for
/// strings.
fn charge_take(opts: &ExecOptions, t: &Table, rows: usize) -> Result<()> {
    if opts.governor.is_none() || rows == 0 || t.row_count() == 0 {
        return Ok(());
    }
    let table_bytes: usize = t.columns().iter().map(column_bytes).sum();
    opts.charge_memory(table_bytes / t.row_count() * rows)
}

/// Recognize a morselizable pipeline tail: a bare scan leaf (`Scan` or
/// `ModelScan`), or `Filter` over one. Returns the leaf and the filter's
/// predicate.
fn scan_pipeline(plan: &LogicalPlan) -> Option<(&LogicalPlan, Option<&ScalarExpr>)> {
    let is_leaf =
        |p: &LogicalPlan| matches!(p, LogicalPlan::Scan { .. } | LogicalPlan::ModelScan(_));
    match plan {
        LogicalPlan::Filter { input, predicate } if is_leaf(input) => {
            Some((input, Some(predicate)))
        }
        leaf if is_leaf(leaf) => Some((leaf, None)),
        _ => None,
    }
}

/// The sargable part of a filter, when these options allow pruning.
pub(crate) fn pruner_for(predicate: Option<&ScalarExpr>, opts: &ExecOptions) -> Option<PruningPredicate> {
    predicate.filter(|_| opts.pruning).and_then(PruningPredicate::extract)
}

/// Split one morsel into zone-aligned chunks with the synopsis'
/// decision for each — the one place the executor consults the pruner.
///
/// With a pruner and a synopsis the chunks come from
/// [`PruningPredicate::plan_range`] on the pruner's grid; the zone
/// counters go to `opts.stats` and one `zone`
/// profile leaf per chunk records the verdict (`skip_zonemap` = bounds
/// refute a conjunct, `accept_all` = bounds prove every row passes,
/// `eval`; leaves index by chunk offset, so sibling order is
/// worker-schedule-independent). Without
/// them the morsel is one chunk and nothing is planned or counted: with
/// pruning on and no filter at all every row is trivially accepted
/// (`AcceptAll`, so an aggregate can answer from the synopsis with
/// `pages_total == 0`), otherwise every row is evaluated (`Eval`).
pub(crate) fn zone_chunks(
    t: &Table,
    pruner: Option<&PruningPredicate>,
    filtered: bool,
    opts: &ExecOptions,
    offset: usize,
    len: usize,
) -> Vec<(usize, usize, ZoneDecision)> {
    let (Some(pruner), Some(synopsis)) = (pruner, t.synopsis()) else {
        let accept_all = opts.pruning && !filtered;
        let all = if accept_all { ZoneDecision::AcceptAll } else { ZoneDecision::Eval };
        return vec![(offset, len, all)];
    };
    let mut stats = ScanStats::default();
    let chunks = pruner.plan_range(synopsis, pruner.grid(synopsis), offset, len, &mut stats);
    if let Some(c) = &opts.stats {
        c.add(&stats);
    }
    if let Some(ctx) = &opts.profile {
        for &(o, l, d) in &chunks {
            let decision = match d {
                ZoneDecision::Skip => "skip_zonemap",
                ZoneDecision::AcceptAll => "accept_all",
                ZoneDecision::Eval => "eval",
            };
            ctx.leaf("zone", o as u64, fields![rows = l, decision]);
        }
    }
    chunks
}

/// Morsel-parallel filter: each worker evaluates the predicate mask on
/// a zero-copy slice and reports offset-adjusted global row indices;
/// concatenating them in morsel order reproduces the serial selection
/// exactly, and a single `take` materializes the output.
///
/// Each worker first splits its morsel with [`zone_chunks`]: refuted
/// zones are skipped without touching a value, zones that satisfy the
/// whole predicate accept every row without evaluation, and only
/// inconclusive chunks fall through to per-row `eval_mask`. Pruning
/// never changes the kept row set (skipped zones provably hold no TRUE
/// rows), so output is bit-identical to the unpruned path.
fn parallel_filter(t: &Table, predicate: &ScalarExpr, opts: &ExecOptions) -> Result<Table> {
    let pruner = pruner_for(Some(predicate), opts);
    let conjuncts = predicate.conjuncts();
    let locals = parallel_morsels(t.row_count(), opts, |offset, len| {
        let mut keep = Vec::new();
        for (o, l, d) in zone_chunks(t, pruner.as_ref(), true, opts, offset, len) {
            match d {
                ZoneDecision::Skip => {}
                ZoneDecision::AcceptAll => keep.extend(o..o + l),
                ZoneDecision::Eval => {
                    let mask = eval_conjuncts_mask(&conjuncts, &t.slice(o, l)?)?;
                    keep.extend(mask.selected_indices().into_iter().map(|i| o + i));
                }
            }
        }
        Ok(keep)
    })?;
    let keep: Vec<usize> = locals.concat();
    charge_take(opts, t, keep.len())?;
    Ok(t.take(&keep)?)
}

/// Evaluate AND-connected conjuncts left to right, short-circuiting
/// once no row can still pass. The fold reproduces
/// `predicate.eval_mask` bit for bit: `PredMask::and` is Kleene AND,
/// which is associative, and once the running truth mask is empty the
/// final truth mask is empty no matter what the remaining conjuncts
/// say — and only truth bits select rows. The planner orders the
/// conjuncts most-selective-first so this early-out fires often.
pub(crate) fn eval_conjuncts_mask(conjuncts: &[&ScalarExpr], m: &Table) -> Result<PredMask> {
    let (first, rest) = conjuncts.split_first().expect("predicate has >= 1 conjunct");
    let mut mask = first.eval_mask(m)?;
    for c in rest {
        if mask.selected_count() == 0 {
            break;
        }
        mask = mask.and(&c.eval_mask(m)?);
    }
    Ok(mask)
}

/// Morsel-parallel projection: evaluate the expression per morsel and
/// stitch the partial columns back together in morsel order. Falls back
/// to a single whole-table evaluation when there is only one morsel.
fn parallel_eval_batch(e: &ScalarExpr, t: &Table, opts: &ExecOptions) -> Result<Column> {
    if morsel_ranges(t.row_count(), opts.morsel_rows).len() <= 1 {
        let col = e.eval_batch(t)?;
        opts.charge_memory(column_bytes(&col))?;
        return Ok(col);
    }
    let parts = parallel_morsels(t.row_count(), opts, |offset, len| {
        let m = t.slice(offset, len)?;
        let col = e.eval_batch(&m)?;
        // Projection output is materialized per morsel, so memory is
        // charged incrementally — an over-budget projection stops
        // mid-query instead of after the full column exists.
        opts.charge_memory(column_bytes(&col))?;
        Ok(col)
    })?;
    let mut parts = parts.into_iter();
    let Some(mut out) = parts.next() else {
        // Unreachable given the single-morsel guard above, but a
        // whole-table evaluation is the correct degenerate answer.
        return e.eval_batch(t);
    };
    for p in parts {
        out.append(&p)?;
    }
    Ok(out)
}

/// Resolve possibly-qualified column names against a schema: exact
/// match first, then `qualifier.name` → `name`, then `name` → any
/// single `x.name`.
pub(crate) fn normalize_name(schema: &Schema, name: &str) -> Result<String> {
    if schema.index_of(name).is_some() {
        return Ok(name.to_string());
    }
    if let Some((_, plain)) = name.split_once('.') {
        if schema.index_of(plain).is_some() {
            return Ok(plain.to_string());
        }
    }
    let suffix = format!(".{name}");
    let matches: Vec<&str> = schema
        .names()
        .into_iter()
        .filter(|n| n.ends_with(&suffix))
        .collect();
    match matches.as_slice() {
        [one] => Ok(one.to_string()),
        _ => Err(QueryError::UnknownColumn { name: name.to_string() }),
    }
}

/// `expr` with every column name resolved against `schema` as the
/// executor resolves it (see `normalize_name`), ready for
/// [`ScalarExpr::eval_mask`] over a table of that schema.
pub fn normalize_expr(expr: &ScalarExpr, schema: &Schema) -> Result<ScalarExpr> {
    Ok(match expr {
        ScalarExpr::Column(c) => ScalarExpr::Column(normalize_name(schema, c)?),
        ScalarExpr::Number(_) | ScalarExpr::Str(_) => expr.clone(),
        ScalarExpr::Neg(a) => ScalarExpr::Neg(Box::new(normalize_expr(a, schema)?)),
        ScalarExpr::Not(a) => ScalarExpr::Not(Box::new(normalize_expr(a, schema)?)),
        ScalarExpr::Arith(op, a, b) => ScalarExpr::Arith(
            *op,
            Box::new(normalize_expr(a, schema)?),
            Box::new(normalize_expr(b, schema)?),
        ),
        ScalarExpr::Cmp(op, a, b) => ScalarExpr::Cmp(
            *op,
            Box::new(normalize_expr(a, schema)?),
            Box::new(normalize_expr(b, schema)?),
        ),
        ScalarExpr::And(a, b) => ScalarExpr::And(
            Box::new(normalize_expr(a, schema)?),
            Box::new(normalize_expr(b, schema)?),
        ),
        ScalarExpr::Or(a, b) => ScalarExpr::Or(
            Box::new(normalize_expr(a, schema)?),
            Box::new(normalize_expr(b, schema)?),
        ),
    })
}

// ---------------------------------------------------------------- join

fn hash_join(
    left: &Table,
    right: &Table,
    left_col: &str,
    right_col: &str,
    opts: &ExecOptions,
) -> Result<Table> {
    let lkey = normalize_name(left.schema(), left_col)
        .or_else(|_| normalize_name(right.schema(), left_col))?;
    let rkey = normalize_name(right.schema(), right_col)
        .or_else(|_| normalize_name(left.schema(), right_col))?;
    // Allow the user to write the join condition in either order.
    let (lkey, rkey) = if left.schema().index_of(&lkey).is_some() {
        (lkey, rkey)
    } else {
        (rkey, lkey)
    };
    let lcol = left.column(&lkey)?;
    let rcol = right.column(&rkey)?;

    // Build on the right side, then probe the left through the same
    // table: a left row lands in a right group only when the keys are
    // equal under the grouping rule. NULL and NaN never join, since
    // `k = k` is UNKNOWN for both.
    let joinable = |c: &Column| match c {
        Column::Float64 { data, validity } => {
            Bitmap::from_fn(data.len(), |i| validity.get(i) && !data[i].is_nan())
        }
        _ => c.validity().clone(),
    };
    let mut table = GroupTable::default();
    let mut build: Vec<Vec<usize>> = Vec::new();
    let rids = table.group_ids(&[rcol], right.row_count(), Some(&joinable(rcol)), |_| {
        build.push(Vec::new())
    });
    for (r, &g) in rids.iter().enumerate().filter(|&(_, &g)| g != NO_GROUP) {
        build[g as usize].push(r);
    }
    let lids = table.group_ids(&[lcol], left.row_count(), Some(&joinable(lcol)), |_| {});
    let mut lidx = Vec::new();
    let mut ridx = Vec::new();
    for (i, &g) in lids.iter().enumerate() {
        for &r in build.get(g as usize).into_iter().flatten() {
            lidx.push(i);
            ridx.push(r);
        }
    }

    // Join output is fully materialized (both sides gathered), so the
    // whole fan-out is charged before the gather allocates it.
    charge_take(opts, left, lidx.len())?;
    charge_take(opts, right, ridx.len())?;
    let lt = left.take(&lidx)?;
    let rt = right.take(&ridx)?;
    let mut fields = Vec::new();
    let mut cols = Vec::new();
    for (f, c) in lt.schema().fields().iter().zip(lt.columns()) {
        fields.push(f.clone());
        cols.push(c.clone());
    }
    for (f, c) in rt.schema().fields().iter().zip(rt.columns()) {
        let clash = lt.schema().index_of(&f.name).is_some();
        let name = if clash {
            format!("{}.{}", right.name(), f.name)
        } else {
            f.name.clone()
        };
        fields.push(Field { name, data_type: f.data_type, nullable: f.nullable });
        cols.push(c.clone());
    }
    Ok(Table::new("result", Schema::new(fields), cols)?)
}

// ---------------------------------------------------------------- sort

pub(crate) fn sort(t: &Table, keys: &[OrderBy]) -> Result<Table> {
    let mut resolved = Vec::with_capacity(keys.len());
    for k in keys {
        resolved.push((normalize_name(t.schema(), &k.column)?, k.desc));
    }
    let mut idx: Vec<usize> = (0..t.row_count()).collect();
    // Pre-fetch key values per row to avoid re-reading during comparison.
    let mut key_vals: Vec<Vec<Value>> = Vec::with_capacity(resolved.len());
    for (name, _) in &resolved {
        let col = t.column(name)?;
        let mut vals = Vec::with_capacity(t.row_count());
        for i in 0..t.row_count() {
            vals.push(col.value(i)?);
        }
        key_vals.push(vals);
    }
    idx.sort_by(|&a, &b| {
        for (ki, (_, desc)) in resolved.iter().enumerate() {
            let va = &key_vals[ki][a];
            let vb = &key_vals[ki][b];
            let ord = match (va.is_null(), vb.is_null()) {
                (true, true) => Ordering::Equal,
                // NULLs sort last regardless of direction.
                (true, false) => return Ordering::Greater,
                (false, true) => return Ordering::Less,
                (false, false) => order_cmp(va, vb),
            };
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    Ok(t.take(&idx)?)
}

/// ORDER BY's total order on two non-NULL values of one column: ints as
/// `i64`; floats by [`f64::total_cmp`] (so −0.0 before +0.0), with every
/// NaN, of either sign, after +inf and tied with the other NaNs.
/// Predicates compare with `sql_cmp`, which has no answer for NaN; a
/// sort comparator built on it is not an order at all.
fn order_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        // Floats (and the int/float mix no single column holds).
        _ => {
            let (x, y) = (a.as_f64().unwrap_or(f64::NAN), b.as_f64().unwrap_or(f64::NAN));
            match (x.is_nan(), y.is_nan()) {
                (false, false) => x.total_cmp(&y),
                (x_nan, y_nan) => x_nan.cmp(&y_nan),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_storage::schema::DataType;
    use lawsdb_storage::TableBuilder;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        let mut b = TableBuilder::new("m");
        b.add_i64("source", vec![1, 1, 2, 2, 3]);
        b.add_f64("nu", vec![0.12, 0.15, 0.12, 0.15, 0.12]);
        b.add_f64_opt(
            "intensity",
            vec![Some(1.0), Some(2.0), Some(10.0), Some(20.0), None],
        );
        c.register(b.build().unwrap()).unwrap();

        let mut s = TableBuilder::new("sources");
        s.add_i64("id", vec![1, 2, 3]);
        s.add_str("kind", vec!["pulsar".into(), "quasar".into(), "star".into()]);
        c.register(s.build().unwrap()).unwrap();
        c
    }

    #[test]
    fn select_star() {
        let r = execute(&catalog(), "SELECT * FROM m").unwrap();
        assert_eq!(r.table.row_count(), 5);
        assert_eq!(r.table.schema().len(), 3);
        assert_eq!(r.rows_scanned, 5);
    }

    #[test]
    fn filter_with_nulls_drops_unknown() {
        let r = execute(&catalog(), "SELECT source FROM m WHERE intensity > 0").unwrap();
        // Row with NULL intensity is UNKNOWN → dropped.
        assert_eq!(r.table.row_count(), 4);
    }

    #[test]
    fn group_by_with_aggregates() {
        let r = execute(
            &catalog(),
            "SELECT source, COUNT(*) AS n, AVG(intensity) AS mean, SUM(intensity) AS tot, \
             MIN(intensity) AS lo, MAX(intensity) AS hi \
             FROM m GROUP BY source ORDER BY source",
        )
        .unwrap();
        assert_eq!(r.table.row_count(), 3);
        // Source 1: n=2, mean=1.5; source 3: count(*)=1 but all-NULL agg.
        assert_eq!(r.table.row(0).unwrap()[1], Value::Int(2));
        assert_eq!(r.table.row(0).unwrap()[2], Value::Float(1.5));
        assert_eq!(r.table.row(2).unwrap()[1], Value::Int(1));
        assert_eq!(r.table.row(2).unwrap()[2], Value::Null);
        assert_eq!(r.table.row(1).unwrap()[4], Value::Float(10.0));
        assert_eq!(r.table.row(1).unwrap()[5], Value::Float(20.0));
    }

    #[test]
    fn global_aggregate_on_empty_filter() {
        let r = execute(&catalog(), "SELECT COUNT(*) AS n, AVG(intensity) AS a FROM m WHERE source = 99")
            .unwrap();
        assert_eq!(r.table.row_count(), 1);
        assert_eq!(r.table.row(0).unwrap()[0], Value::Int(0));
        assert_eq!(r.table.row(0).unwrap()[1], Value::Null);
    }

    #[test]
    fn count_ignores_nulls_count_star_does_not() {
        let r = execute(
            &catalog(),
            "SELECT COUNT(*) AS all_rows, COUNT(intensity) AS with_i FROM m",
        )
        .unwrap();
        assert_eq!(r.table.row(0).unwrap()[0], Value::Int(5));
        assert_eq!(r.table.row(0).unwrap()[1], Value::Int(4));
    }

    #[test]
    fn order_by_desc_with_nulls_last() {
        let r = execute(&catalog(), "SELECT intensity FROM m ORDER BY intensity DESC").unwrap();
        let rows: Vec<Value> = (0..5).map(|i| r.table.row(i).unwrap()[0].clone()).collect();
        assert_eq!(
            rows,
            vec![
                Value::Float(20.0),
                Value::Float(10.0),
                Value::Float(2.0),
                Value::Float(1.0),
                Value::Null
            ]
        );
    }

    #[test]
    fn order_by_is_a_total_order_over_nan_and_signed_zeros() {
        // Regression: NaN used to tie with every number, so `1.0` could
        // land between `-0.0` and NaN and the output was not sorted.
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let v = [1.0, nan, -0.0, 9.0, inf, 0.0, -nan, -2.5, -inf, 1.0, nan, 0.5];
        let c = Catalog::new();
        let mut b = TableBuilder::new("t");
        b.add_i64("k", (0..12).collect());
        b.add_f64_opt("v", v.iter().enumerate().map(|(i, &x)| (i != 3).then_some(x)).collect());
        c.register(b.build().unwrap()).unwrap();
        let keys = |sql: &str| {
            let r = execute(&c, sql).unwrap();
            r.table.column("k").unwrap().i64_data().unwrap().to_vec()
        };
        // NaNs of either sign after +inf, tied in input order; NULL last.
        assert_eq!(keys("SELECT k, v FROM t ORDER BY v"), [8, 7, 2, 5, 11, 0, 9, 4, 1, 6, 10, 3]);
        // DESC reverses the non-NULL order only.
        assert_eq!(
            keys("SELECT k, v FROM t ORDER BY v DESC"),
            [1, 6, 10, 4, 0, 9, 11, 5, 2, 7, 8, 3]
        );
    }

    #[test]
    fn aggregate_types_follow_the_function_not_the_rows() {
        // Regression: types were inferred from the values, so zero
        // groups made COUNT Float64, and so did an all-NULL string MIN.
        let c = Catalog::new();
        let mut b = TableBuilder::new("t");
        b.add_i64("g", vec![1, 2]);
        b.add_str("s", vec!["a".into(), "b".into()]);
        c.register(b.build().unwrap()).unwrap();
        let types = |sql: &str| -> Vec<DataType> {
            let r = execute(&c, sql).unwrap();
            r.table.schema().fields().iter().map(|f| f.data_type).collect()
        };
        use DataType::*;
        let sql = "SELECT g, COUNT(*) AS n, MIN(s) AS lo, SUM(g) AS sg FROM t \
                   WHERE g > 5 GROUP BY g";
        assert_eq!(types(sql), [Int64, Int64, Str, Float64]);
        assert_eq!(types("SELECT COUNT(s) AS n, MAX(s) AS hi FROM t WHERE g > 5"), [Int64, Str]);
    }

    #[test]
    fn limit_caps_rows() {
        let r = execute(&catalog(), "SELECT * FROM m LIMIT 2").unwrap();
        assert_eq!(r.table.row_count(), 2);
        let r = execute(&catalog(), "SELECT * FROM m LIMIT 0").unwrap();
        assert_eq!(r.table.row_count(), 0);
    }

    #[test]
    fn limit_zero_elision_agrees_with_unoptimized_execution_and_scans_nothing() {
        let c = catalog();
        for sql in [
            "SELECT * FROM m LIMIT 0",
            "SELECT intensity FROM m WHERE source = 1 LIMIT 0",
            "SELECT COUNT(*) FROM m LIMIT 0",
            "SELECT source, AVG(intensity) FROM m GROUP BY source ORDER BY source LIMIT 0",
        ] {
            let stmt = parse_select(sql).unwrap();
            let raw = LogicalPlan::from_statement(&stmt).unwrap();
            // Optimized path: EmptyScan, zero IO.
            let opt = execute_with(&c, sql, &ExecOptions::default()).unwrap();
            // Unoptimized path: full scan, limit drops everything.
            let mut touched = Touched::default();
            let base =
                exec(&c, &raw, &mut touched, &ExecOptions::default()).unwrap();
            assert_eq!(opt.table.row_count(), 0, "{sql}");
            assert_eq!(base.row_count(), 0, "{sql}");
            assert_eq!(
                opt.table.schema().names(),
                base.schema().names(),
                "schema must survive elision: {sql}"
            );
            assert_eq!(opt.rows_scanned, 0, "elided plan must do zero IO: {sql}");
            assert_eq!(touched.rows, 5, "unoptimized plan scans the table: {sql}");
        }
    }

    #[test]
    fn projection_expressions_and_aliases() {
        let r = execute(&catalog(), "SELECT intensity * 2 AS dbl FROM m WHERE source = 1").unwrap();
        assert_eq!(r.table.schema().names(), vec!["dbl"]);
        assert_eq!(r.table.row(0).unwrap()[0], Value::Float(2.0));
    }

    #[test]
    fn join_matches_and_renames() {
        let r = execute(
            &catalog(),
            "SELECT source, kind, intensity FROM m JOIN sources ON source = id \
             WHERE intensity > 5 ORDER BY intensity",
        )
        .unwrap();
        assert_eq!(r.table.row_count(), 2);
        assert_eq!(r.table.row(0).unwrap()[1], Value::Str("quasar".to_string()));
    }

    #[test]
    fn join_keys_group_like_group_by_but_nan_never_joins() {
        // Regression: two NaN keys joined, though `k = k` is UNKNOWN for NaN.
        let nan = f64::NAN;
        let c = Catalog::new();
        let mut a = TableBuilder::new("a");
        a.add_i64("x", (0..6).collect());
        a.add_f64_opt("k", vec![Some(nan), Some(-0.0), None, Some(2.0), Some(0.5), Some(-nan)]);
        let mut b = TableBuilder::new("b");
        b.add_i64("y", (0..5).collect());
        b.add_f64_opt("j", vec![Some(-nan), Some(0.0), None, Some(0.5), Some(2.0)]);
        let mut d = TableBuilder::new("d");
        d.add_i64("z", (0..4).collect());
        d.add_column(
            Field::nullable("i", DataType::Int64),
            Column::from_i64_opt(vec![Some(2), Some(0), None, Some(7)]),
        );
        for mut t in [a, b, d] {
            c.register(t.build().unwrap()).unwrap();
        }
        let pairs = |sql: &str| {
            let t = execute(&c, sql).unwrap().table;
            (0..t.row_count()).map(|r| t.row(r).unwrap()).collect::<Vec<_>>()
        };
        use Value::Int;
        assert_eq!(
            pairs("SELECT x, y FROM a JOIN b ON k = j"),
            [[Int(1), Int(1)], [Int(3), Int(4)], [Int(4), Int(3)]]
        );
        // Integral floats join the equal int, from either side.
        assert_eq!(pairs("SELECT x, z FROM a JOIN d ON k = i"), [[Int(1), Int(1)], [Int(3), Int(0)]]);
        assert_eq!(pairs("SELECT z, x FROM d JOIN a ON i = k"), [[Int(0), Int(3)], [Int(1), Int(1)]]);
    }

    #[test]
    fn join_with_qualified_columns() {
        let r = execute(
            &catalog(),
            "SELECT m.source, sources.kind FROM m JOIN sources ON m.source = sources.id LIMIT 1",
        )
        .unwrap();
        assert_eq!(r.table.row_count(), 1);
    }

    #[test]
    fn string_aggregates_min_max() {
        let r = execute(&catalog(), "SELECT MIN(kind) AS lo, MAX(kind) AS hi FROM sources").unwrap();
        assert_eq!(r.table.row(0).unwrap()[0], Value::Str("pulsar".to_string()));
        assert_eq!(r.table.row(0).unwrap()[1], Value::Str("star".to_string()));
    }

    #[test]
    fn sum_over_string_rejected() {
        assert!(matches!(
            execute(&catalog(), "SELECT SUM(kind) FROM sources"),
            Err(QueryError::InvalidAggregate { .. })
        ));
    }

    #[test]
    fn unknown_column_reported() {
        assert!(matches!(
            execute(&catalog(), "SELECT zz FROM m"),
            Err(QueryError::UnknownColumn { .. })
        ));
        assert!(matches!(
            execute(&catalog(), "SELECT source FROM m WHERE zz = 1"),
            Err(QueryError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn unknown_table_reported() {
        assert!(execute(&catalog(), "SELECT a FROM nope").is_err());
    }

    #[test]
    fn rows_scanned_counts_join_inputs() {
        let r = execute(&catalog(), "SELECT source FROM m JOIN sources ON source = id").unwrap();
        assert_eq!(r.rows_scanned, 5 + 3);
    }

    #[test]
    fn filter_keeps_only_known_true_rows() {
        // A NULL comparison is UNKNOWN, and NOT(UNKNOWN) is still
        // UNKNOWN: the NULL-intensity row satisfies neither the filter
        // nor its negation.
        let c = catalog();
        let pos = execute(&c, "SELECT source FROM m WHERE intensity > 5").unwrap();
        let neg = execute(&c, "SELECT source FROM m WHERE NOT (intensity > 5)").unwrap();
        assert_eq!(pos.table.row_count(), 2);
        assert_eq!(neg.table.row_count(), 2);
        assert_eq!(pos.table.row_count() + neg.table.row_count(), 4, "NULL row in neither");
    }

    #[test]
    fn rows_scanned_identical_serial_vs_parallel() {
        let c = catalog();
        let serial = ExecOptions { threads: 1, morsel_rows: 2, ..ExecOptions::default() };
        let parallel = ExecOptions { threads: 4, morsel_rows: 2, ..ExecOptions::default() };
        for sql in [
            "SELECT * FROM m",
            "SELECT source FROM m WHERE intensity > 5",
            "SELECT source, COUNT(*) AS n, SUM(intensity) AS s FROM m GROUP BY source",
            "SELECT AVG(intensity) AS a FROM m WHERE nu = 0.12",
            "SELECT source, kind FROM m JOIN sources ON source = id",
        ] {
            let a = execute_with(&c, sql, &serial).unwrap();
            let b = execute_with(&c, sql, &parallel).unwrap();
            assert_eq!(a.rows_scanned, b.rows_scanned, "{sql}");
            assert_eq!(a.table.row_count(), b.table.row_count(), "{sql}");
            for i in 0..a.table.row_count() {
                assert_eq!(a.table.row(i).unwrap(), b.table.row(i).unwrap(), "{sql} row {i}");
            }
        }
    }

    #[test]
    fn scan_shares_column_buffers_with_the_base_table() {
        // The acceptance bar for the zero-copy data plane: scanning
        // must hand out views of the stored buffers, never an O(N)
        // value copy.
        let c = catalog();
        let base = c.get("m").unwrap();
        let base_ptr = base.column("nu").unwrap().f64_data().unwrap().as_ptr();
        let r = execute(&c, "SELECT * FROM m").unwrap();
        let out_ptr = r.table.column("nu").unwrap().f64_data().unwrap().as_ptr();
        assert_eq!(base_ptr, out_ptr, "scan must not deep-copy column values");
    }

    #[test]
    fn group_by_float_column_groups_by_value() {
        let r = execute(
            &catalog(),
            "SELECT nu, COUNT(*) AS n FROM m GROUP BY nu ORDER BY nu",
        )
        .unwrap();
        assert_eq!(r.table.row_count(), 2);
        assert_eq!(r.table.row(0).unwrap()[1], Value::Int(3));
        assert_eq!(r.table.row(1).unwrap()[1], Value::Int(2));
    }
}

#[cfg(test)]
mod name_resolution_tests {
    use super::*;
    use lawsdb_storage::schema::{DataType, Field, Schema};

    #[test]
    fn ambiguous_suffix_is_rejected() {
        // Two qualified columns share the suffix `.k`: a bare `k` must
        // not silently pick one.
        let schema = Schema::new(vec![
            Field::new("t.k", DataType::Int64),
            Field::new("u.k", DataType::Int64),
        ]);
        assert!(matches!(
            normalize_name(&schema, "k"),
            Err(QueryError::UnknownColumn { .. })
        ));
        // Qualified references resolve exactly.
        assert_eq!(normalize_name(&schema, "t.k").unwrap(), "t.k");
    }

    #[test]
    fn qualifier_strips_to_plain_when_unique() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int64)]);
        assert_eq!(normalize_name(&schema, "t.k").unwrap(), "k");
    }
}

#[cfg(test)]
mod distinct_tests {
    use super::*;
    use lawsdb_storage::TableBuilder;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        let mut b = TableBuilder::new("t");
        b.add_i64("a", vec![1, 1, 2, 2, 2, 3]);
        b.add_str(
            "s",
            vec!["x".into(), "x".into(), "y".into(), "y".into(), "z".into(), "z".into()],
        );
        c.register(b.build().unwrap()).unwrap();
        c
    }

    #[test]
    fn distinct_single_column() {
        let r = execute(&catalog(), "SELECT DISTINCT a FROM t ORDER BY a").unwrap();
        assert_eq!(r.table.row_count(), 3);
        assert_eq!(r.table.column("a").unwrap().i64_data().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn distinct_multi_column_keeps_distinct_pairs() {
        let r = execute(&catalog(), "SELECT DISTINCT a, s FROM t ORDER BY a, s").unwrap();
        // Pairs: (1,x), (2,y), (2,z), (3,z).
        assert_eq!(r.table.row_count(), 4);
        assert_eq!(r.table.row(2).unwrap()[0], Value::Int(2));
        assert_eq!(r.table.row(2).unwrap()[1], Value::Str("z".to_string()));
    }

    #[test]
    fn distinct_star_dedups_full_rows() {
        let r = execute(&catalog(), "SELECT DISTINCT * FROM t").unwrap();
        assert_eq!(r.table.row_count(), 4);
    }

    #[test]
    fn distinct_respects_limit_after_dedup() {
        let r = execute(&catalog(), "SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 2").unwrap();
        assert_eq!(r.table.column("a").unwrap().i64_data().unwrap(), &[3, 2]);
    }

    #[test]
    fn non_distinct_unaffected() {
        let r = execute(&catalog(), "SELECT a FROM t").unwrap();
        assert_eq!(r.table.row_count(), 6);
    }
}

#[cfg(test)]
mod pruning_exec_tests {
    use super::*;
    use crate::morsel::ExecOptions;
    use lawsdb_storage::TableBuilder;

    /// 512 rows in 8 zones of 64: `k` strictly increasing (disjoint
    /// zone ranges), `g` constant per zone, `v` with NULLs and a NaN.
    fn zoned_catalog() -> Catalog {
        let n = 512usize;
        let mut b = TableBuilder::new("z");
        b.add_i64("k", (0..n as i64).collect());
        b.add_i64("g", (0..n as i64).map(|i| i / 64).collect());
        b.add_f64_opt(
            "v",
            (0..n)
                .map(|i| match i % 7 {
                    0 => None,
                    1 => Some(f64::NAN),
                    _ => Some(i as f64 / 3.0),
                })
                .collect(),
        );
        let mut t = b.build().unwrap();
        t.rebuild_synopsis_with(64);
        let c = Catalog::new();
        c.register(t).unwrap();
        c
    }

    /// Rows rendered through Debug so NaN compares equal to NaN (the
    /// bit-identity the equivalence tests assert includes NaN cells).
    fn rows(sql: &str, opts: &ExecOptions, c: &Catalog) -> (QueryResult, Vec<String>) {
        let r = execute_with(c, sql, opts).unwrap();
        let rows = (0..r.table.row_count())
            .map(|i| format!("{:?}", r.table.row(i).unwrap()))
            .collect();
        (r, rows)
    }

    #[test]
    fn zonemap_pruning_skips_refuted_zones_and_matches_baseline() {
        let c = zoned_catalog();
        let sql = "SELECT k, v FROM z WHERE k < 64";
        let (pruned, got) = rows(sql, &ExecOptions::default(), &c);
        let (baseline, want) = rows(sql, &ExecOptions::unpruned(), &c);
        assert_eq!(got, want);
        assert_eq!(pruned.rows_scanned, baseline.rows_scanned);
        // k < 64 refutes zones 1..8 outright; zone 0 needs evaluation.
        assert_eq!(pruned.scan_stats.pages_total, 8);
        assert_eq!(pruned.scan_stats.pages_pruned_zonemap, 7);
        assert_eq!(baseline.scan_stats, ScanStats::default());
    }

    #[test]
    fn constant_zone_with_exact_predicate_accepts_wholesale() {
        let c = zoned_catalog();
        let sql = "SELECT k FROM z WHERE g = 3";
        let (pruned, got) = rows(sql, &ExecOptions::default(), &c);
        let (_, want) = rows(sql, &ExecOptions::unpruned(), &c);
        assert_eq!(got, want);
        assert_eq!(pruned.table.row_count(), 64);
        // Zone 3 is constant g=3 with no NULLs: accepted without
        // per-row evaluation; the other 7 zones are refuted.
        assert_eq!(pruned.scan_stats.pages_pruned_zonemap, 7);
        assert_eq!(pruned.scan_stats.zones_accepted, 1);
    }

    #[test]
    fn aggregates_prune_and_match_baseline_bit_for_bit() {
        let c = zoned_catalog();
        let sql = "SELECT COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, \
                   MAX(v) AS hi FROM z WHERE k >= 128 AND k < 256";
        let (pruned, got) = rows(sql, &ExecOptions::default(), &c);
        let (_, want) = rows(sql, &ExecOptions::unpruned(), &c);
        assert_eq!(got, want);
        assert!(pruned.scan_stats.pages_pruned_zonemap >= 6);
    }

    #[test]
    fn null_and_nan_rows_survive_pruning_identically() {
        let c = zoned_catalog();
        // v has NULLs (dropped as UNKNOWN) and NaNs (never > rhs);
        // zone bounds exclude both, so pruning must not change which
        // rows the predicate keeps.
        for sql in [
            "SELECT k FROM z WHERE v > 100",
            "SELECT k FROM z WHERE v <= 10 AND k < 200",
            "SELECT COUNT(*) AS n FROM z WHERE v >= 0",
        ] {
            let (_, got) = rows(sql, &ExecOptions::default(), &c);
            let (_, want) = rows(sql, &ExecOptions::unpruned(), &c);
            assert_eq!(got, want, "{sql}");
        }
    }

    #[test]
    fn shared_collector_accumulates_across_queries() {
        let c = zoned_catalog();
        let sink = Arc::new(ScanStatsCollector::default());
        let opts = ExecOptions { stats: Some(sink.clone()), ..ExecOptions::default() };
        let first = execute_with(&c, "SELECT k FROM z WHERE k < 64", &opts).unwrap();
        let second = execute_with(&c, "SELECT k FROM z WHERE k >= 448", &opts).unwrap();
        let total = sink.snapshot();
        assert_eq!(
            total.pages_total,
            first.scan_stats.pages_total + second.scan_stats.pages_total
        );
        assert_eq!(
            total.pages_pruned_zonemap,
            first.scan_stats.pages_pruned_zonemap + second.scan_stats.pages_pruned_zonemap
        );
    }

    #[test]
    fn concurrent_adds_to_a_shared_sink_stay_out_of_a_querys_stats() {
        use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
        let c = zoned_catalog();
        let sql = "SELECT k FROM z WHERE k < 64";
        let solo = execute(&c, sql).unwrap().scan_stats;
        let sink = Arc::new(ScanStatsCollector::default());
        let opts = ExecOptions { stats: Some(sink.clone()), ..ExecOptions::default() };
        let stop = AtomicBool::new(false);
        let one = ScanStats {
            pages_total: 1,
            pages_pruned_zonemap: 1,
            zones_accepted: 1,
            zones_agg_synopsis: 1,
        };
        // Another session's zones land in the shared sink while this
        // query runs.
        let runs: Result<Vec<ScanStats>> = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Relaxed) {
                    sink.add(&one);
                }
            });
            while sink.snapshot().pages_total == 0 {
                std::hint::spin_loop();
            }
            let runs =
                (0..50).map(|_| execute_with(&c, sql, &opts).map(|r| r.scan_stats)).collect();
            stop.store(true, Relaxed);
            runs
        });
        let runs = runs.unwrap();
        assert!(runs.iter().all(|r| *r == solo), "solo {solo:?}, runs {runs:?}");
        // The sink still received every run's totals.
        assert!(sink.snapshot().pages_total >= 50 * solo.pages_total);
    }

    #[test]
    fn profiled_run_attaches_a_plan_shaped_tree() {
        use lawsdb_obs::FieldValue;
        let c = zoned_catalog();
        let collector = lawsdb_obs::ProfileCollector::new();
        execute_with(
            &c,
            "SELECT k FROM z WHERE k < 64",
            &ExecOptions {
                threads: 4,
                morsel_rows: 128,
                profile: Some(collector.context()),
                ..ExecOptions::default()
            },
        )
        .unwrap();
        let p = collector.build("query");
        assert_eq!(p.name, "query");
        // Optimizer pushes the projection above Filter(Scan).
        assert!(!p.find("plan.filter").is_empty());
        assert!(!p.find("plan.scan").is_empty());
        // Per-morsel timing leaves, ordered by offset under the filter.
        let morsels = p.find("morsel");
        assert_eq!(morsels.len(), 4, "512 rows / 128-row morsels");
        let offsets: Vec<Option<u64>> = morsels.iter().map(|m| m.index).collect();
        assert_eq!(offsets, vec![Some(0), Some(128), Some(256), Some(384)]);
        // Zone decisions carry the pruning verdict.
        let zones = p.find("zone");
        assert!(zones.iter().any(|z| {
            z.field("decision").and_then(FieldValue::as_str) == Some("skip_zonemap")
        }));
        // Per-query pruning totals are a root-level point.
        let stats = p.find("scan.stats");
        assert_eq!(stats.len(), 1);
        assert_eq!(
            stats[0].field("pruned_zonemap").and_then(FieldValue::as_u64),
            Some(7)
        );
    }

    #[test]
    fn profiled_run_records_governor_charges() {
        use crate::governor::ResourceBudget;
        use lawsdb_obs::FieldValue;
        let c = zoned_catalog();
        let collector = lawsdb_obs::ProfileCollector::new();
        let opts = ExecOptions {
            budget: ResourceBudget { max_rows: Some(10_000), ..ResourceBudget::default() },
            profile: Some(collector.context()),
            ..ExecOptions::default()
        };
        execute_with(&c, "SELECT k FROM z WHERE k < 64", &opts).unwrap();
        let p = collector.build("query");
        let charges = p.find("governor.rows");
        assert_eq!(charges.len(), 1, "one admission charge per scan");
        assert_eq!(charges[0].field("rows").and_then(FieldValue::as_u64), Some(512));
        assert_eq!(charges[0].field("ok"), Some(&FieldValue::Bool(true)));
        let summary = p.find("governor.summary");
        assert_eq!(summary.len(), 1);
        assert_eq!(
            summary[0].field("rows_admitted").and_then(FieldValue::as_u64),
            Some(512)
        );
    }

    #[test]
    fn unfiltered_aggregates_answer_from_the_synopsis_without_io() {
        let c = zoned_catalog();
        let sql = "SELECT COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS s, AVG(v) AS a, \
                   MIN(v) AS lo, MAX(v) AS hi, SUM(k) AS sk FROM z";
        let (pushed, got) = rows(sql, &ExecOptions::default(), &c);
        let (baseline, want) = rows(sql, &ExecOptions::unpruned(), &c);
        assert_eq!(got, want, "pushed answers must be bit-identical");
        // Every one of the 8 zones substitutes its materialized
        // partial: no pages are planned, let alone read.
        assert_eq!(pushed.scan_stats.zones_agg_synopsis, 8);
        assert_eq!(pushed.scan_stats.pages_total, 0);
        assert_eq!(baseline.scan_stats.zones_agg_synopsis, 0);
    }

    #[test]
    fn range_filter_pushes_interior_zones_and_scans_none() {
        let c = zoned_catalog();
        // k is strictly increasing: zones 2–3 satisfy the whole
        // conjunction by their bounds alone (interval proof), the rest
        // are refuted. No Eval zones remain.
        let sql = "SELECT COUNT(*) AS n, SUM(v) AS s FROM z WHERE k >= 128 AND k < 256";
        let (pushed, got) = rows(sql, &ExecOptions::default(), &c);
        let (_, want) = rows(sql, &ExecOptions::unpruned(), &c);
        assert_eq!(got, want);
        assert_eq!(pushed.scan_stats.zones_agg_synopsis, 2);
        assert_eq!(pushed.scan_stats.pages_pruned_zonemap, 6);
    }

    #[test]
    fn pushdown_is_bit_identical_across_threads_and_morsel_sizes() {
        let c = zoned_catalog();
        // v's sums are float-inexact (i/3.0), so a sum that depended on
        // the order of its adds would show in the bits.
        let sql = "SELECT SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi, \
                   SUM(k) AS sk FROM z";
        let (_, want) = rows(sql, &ExecOptions::unpruned(), &c);
        // Pushed == scanned at every configuration, including morsel
        // sizes that clip zones (96).
        for (threads, morsel_rows) in [(1, 64), (4, 128), (4, 96), (2, 512), (3, 100_000)] {
            for base in [ExecOptions::default(), ExecOptions::unpruned()] {
                let opts = ExecOptions { threads, morsel_rows, ..base };
                let (_, got) = rows(sql, &opts, &c);
                assert_eq!(got, want, "threads={threads} morsel_rows={morsel_rows}");
            }
        }
    }

    #[test]
    fn all_null_zones_push_their_counts_but_no_values() {
        let n = 192usize;
        let mut b = TableBuilder::new("holes");
        // Zone 1 (rows 64..128) is entirely NULL.
        b.add_f64_opt(
            "v",
            (0..n).map(|i| if (64..128).contains(&i) { None } else { Some(i as f64) }).collect(),
        );
        let mut t = b.build().unwrap();
        t.rebuild_synopsis_with(64);
        let c = Catalog::new();
        c.register(t).unwrap();
        let sql = "SELECT COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS s, \
                   MIN(v) AS lo, MAX(v) AS hi FROM holes";
        let (pushed, got) = rows(sql, &ExecOptions::default(), &c);
        let (_, want) = rows(sql, &ExecOptions::unpruned(), &c);
        assert_eq!(got, want);
        // The all-NULL zone still answers from its partial (count 0,
        // no sums): 3 of 3 zones pushed, zero pages planned.
        assert_eq!(pushed.scan_stats.zones_agg_synopsis, 3);
        assert_eq!(pushed.scan_stats.pages_total, 0);
        assert_eq!(got[0], "[Int(192), Int(128), Float(12224.0), Float(0.0), Float(191.0)]");
    }

    #[test]
    fn grouped_and_expression_aggregates_keep_the_scan_grammar() {
        let c = zoned_catalog();
        // GROUP BY and computed arguments are not pushdown-eligible;
        // they must keep answering correctly through the scan path.
        for sql in [
            "SELECT g, SUM(v) AS s FROM z GROUP BY g ORDER BY g",
            "SELECT SUM(k + 1) AS s FROM z",
        ] {
            let (r, got) = rows(sql, &ExecOptions::default(), &c);
            let (_, want) = rows(sql, &ExecOptions::unpruned(), &c);
            assert_eq!(got, want, "{sql}");
            assert_eq!(r.scan_stats.zones_agg_synopsis, 0, "{sql}");
        }
    }

    #[test]
    fn tables_without_synopsis_run_unpruned() {
        let c = Catalog::new();
        let mut b = TableBuilder::new("plain");
        b.add_i64("a", (0..100).collect());
        let mut t = b.build().unwrap();
        // slice() drops the synopsis; re-registering the slice gives a
        // synopsis-free table the executor must still handle.
        t = t.slice(0, 100).unwrap();
        assert!(t.synopsis().is_none());
        c.register(t).unwrap();
        let r = execute(&c, "SELECT a FROM plain WHERE a < 10").unwrap();
        assert_eq!(r.table.row_count(), 10);
        assert_eq!(r.scan_stats, ScanStats::default());
    }
}
