//! Bridge between the storage engine and the fitting layer: fit a
//! formula directly against a [`Table`], producing a [`CapturedModel`].
//!
//! The table is every row the model speaks for. A partial model's
//! subset is chosen before it gets here: `lawsdb-core` reads the rows
//! satisfying the SQL coverage predicate through the query engine and
//! fits them with these same functions, so this crate parses and
//! evaluates no predicate.

use crate::error::{ModelError, Result};
use crate::model::{CapturedModel, Coverage, ModelParams, Residuals};
use lawsdb_expr::{parse_formula, Formula};
use lawsdb_fit::{fit_auto, fit_grouped, DataSet, FitOptions, FitResult, GroupedFitResult};
use lawsdb_storage::{Column, Table};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Rows predicted in one compiled pass by a residual pass or
/// [`predict_table`]: whole groups are batched up to about this many.
const CHUNK_ROWS: usize = 1024;

/// A numeric column as f64s, NULL → NaN (the fit layer drops NaN rows):
/// borrowed when it is floats without NULLs.
fn numeric_view(column: &Column) -> Result<Cow<'_, [f64]>> {
    match column.f64_data() {
        Ok(data) if column.null_count() == 0 => Ok(Cow::Borrowed(data)),
        _ => Ok(Cow::Owned(column.to_f64_lossy()?)),
    }
}

/// `column`'s values at the rows of `runs`, in run order, as
/// [`numeric_view`] reads them.
fn gather<T>(column: &Column, runs: &[(T, Range<usize>)]) -> Result<Vec<f64>> {
    let rows = runs.iter().flat_map(|(_, span)| span.clone());
    let mut out = Vec::with_capacity(runs.iter().map(|(_, span)| span.len()).sum());
    let valid = column.validity();
    match column {
        Column::Float64 { data, .. } => {
            out.extend(rows.map(|i| if valid.get(i) { data[i] } else { f64::NAN }));
        }
        Column::Int64 { data, .. } => {
            out.extend(rows.map(|i| if valid.get(i) { data[i] as f64 } else { f64::NAN }));
        }
        other => return Err(other.to_f64_lossy().expect_err("not numeric").into()),
    }
    Ok(out)
}

/// The runs of equal keys in `keys` that `select` tags, each with its
/// tag, sorted by tag and then position: each tag's runs sit together,
/// in table order. `select` is asked once per run, so the work is the
/// column's rows and runs, not a lookup per row. NULL keys are in no
/// run.
fn key_runs<T: Ord + Copy>(
    keys: &Column,
    select: impl Fn(i64) -> Option<T>,
) -> Result<Vec<(T, Range<usize>)>> {
    let mut runs: Vec<(T, Range<usize>)> = Vec::new();
    let mut current = None;
    for (i, key) in keys.i64_values()?.enumerate() {
        let tag = match current {
            Some((k, tag)) if k == key => tag,
            _ => key.and_then(&select),
        };
        current = Some((key, tag));
        let Some(tag) = tag else { continue };
        match runs.last_mut() {
            Some((t, run)) if *t == tag && run.end == i => run.end += 1,
            _ => runs.push((tag, i..i + 1)),
        }
    }
    runs.sort_unstable_by_key(|(tag, rows)| (*tag, rows.start));
    Ok(runs)
}

/// The columns a grouped fit and its residual pass read, over the rows
/// they read, in key order and in table order within a key.
struct KeyOrdered<'t> {
    /// Each row's key, ascending.
    keys: Cow<'t, [i64]>,
    /// One column per name asked for, in that order.
    columns: Vec<Cow<'t, [f64]>>,
}

impl<'t> KeyOrdered<'t> {
    /// The rows of `table` whose key is in `touched` (sorted), or every
    /// row with a key when `touched` is `None`: the keys are looked up
    /// once per run of equal keys, and each of the `names` columns is
    /// gathered once in key order. Already-sorted keys without NULLs,
    /// every row selected, gather nothing.
    fn select(
        table: &'t Table,
        group_column: &str,
        names: &[String],
        touched: Option<&[i64]>,
    ) -> Result<KeyOrdered<'t>> {
        let keys = table.column(group_column)?;
        if let (None, 0, Ok(sorted)) = (touched, keys.null_count(), keys.i64_data()) {
            if sorted.is_sorted() {
                let columns = names.iter().map(|n| numeric_view(table.column(n)?));
                let columns = columns.collect::<Result<_>>()?;
                return Ok(KeyOrdered { keys: Cow::Borrowed(sorted), columns });
            }
        }
        let wanted = |k: i64| touched.is_none_or(|t| t.binary_search(&k).is_ok()).then_some(k);
        let runs = key_runs(keys, wanted)?;
        let rows = runs.iter().map(|(_, span)| span.len()).sum();
        let mut sorted = Vec::with_capacity(rows);
        for (key, span) in &runs {
            sorted.resize(sorted.len() + span.len(), *key);
        }
        let columns = names.iter().map(|n| Ok(Cow::Owned(gather(table.column(n)?, &runs)?)));
        Ok(KeyOrdered { keys: Cow::Owned(sorted), columns: columns.collect::<Result<_>>()? })
    }

    /// Each run of one key with the parameter row `params` holds for
    /// it; keys without one are skipped.
    fn groups<'a>(
        &'a self,
        params: &'a ModelParams,
    ) -> impl Iterator<Item = (usize, Range<usize>)> + 'a {
        self.keys
            .chunk_by(|a, b| a == b)
            .scan(0, |start, run| {
                let rows = *start..*start + run.len();
                *start = rows.end;
                Some((run[0], rows))
            })
            .filter_map(|(key, rows)| Some((params.keys.binary_search(&key).ok()?, rows)))
    }
}

/// Enumerated domains of the given variables, captured at fit time via
/// column statistics (cap 1024 distinct values — beyond that a column is
/// not usefully enumerable for parameter-space enumeration).
fn capture_domains(table: &Table, variables: &[String]) -> Vec<(String, Vec<f64>)> {
    variables
        .iter()
        .filter_map(|v| {
            let col = table.column(v).ok()?;
            let stats = lawsdb_storage::stats::ColumnStats::analyze(col, 1024);
            // Stepped ranges can be huge; only materialize domains the
            // enumeration engine could plausibly sweep.
            if stats.enumerability.cardinality().is_some_and(|c| c > 100_000) {
                return None;
            }
            stats.enumerability.enumerate().map(|vals| (v.clone(), vals))
        })
        .collect()
}

/// Whether every value `appended` holds of `live`'s variables is already
/// in the variable's live domain, by the equality
/// `ColumnStats::analyze` counts distinct values with (NULL and NaN are
/// no value, −0.0 is 0.0, an integer is its exact `f64`). Appends never
/// remove a value, so then the grown table's distinct values, and with
/// them its domains, are `live`'s.
fn domains_hold(live: &CapturedModel, appended: &Table) -> bool {
    live.coverage.variables.iter().all(|v| {
        let (Some(domain), Ok(column)) = (live.coverage.domain_of(v), appended.column(v)) else {
            return false;
        };
        let known = |x: f64| {
            let x = if x == 0.0 { 0.0 } else { x };
            domain.binary_search_by(|d| d.total_cmp(&x)).is_ok()
        };
        let valid = column.validity();
        match column {
            Column::Float64 { data, .. } => {
                data.iter().enumerate().all(|(i, &x)| !valid.get(i) || x.is_nan() || known(x))
            }
            // Below 2^53 no other integer has the same f64.
            Column::Int64 { data, .. } => data
                .iter()
                .enumerate()
                .all(|(i, &x)| !valid.get(i) || (x.unsigned_abs() < 1 << 53 && known(x as f64))),
            _ => false,
        }
    })
}

/// The residual figures of one group's rows, in row order: `actual`,
/// their `weights` if weighted, and `preds`.
fn group_residuals(
    actual: &[f64],
    weights: Option<&[f64]>,
    preds: &[f64],
    used: &mut Vec<f64>,
) -> Residuals {
    used.clear();
    let (mut rss, mut max_abs) = (0.0, f64::NAN);
    for (i, (&a, &p)) in actual.iter().zip(preds).enumerate() {
        if !(a.is_finite() && p.is_finite()) {
            continue;
        }
        let r = (a - p).abs();
        max_abs = max_abs.max(r);
        let w = weights.map_or(1.0, |w| w[i]);
        if w.is_finite() {
            rss += w * r * r;
            used.push(a);
        }
    }
    Residuals { rss, tss: lawsdb_linalg::ops::total_sum_of_squares(used), max_abs }
}

/// The residual pass of `model` over the rows of `groups`, each a
/// parameter row and its rows' range in `columns`: the response, each
/// coverage variable in order, then the weights when `weighted`. Sets
/// `figures[row]` for each group. Runs of adjacent groups are predicted
/// in one compiled pass of about [`CHUNK_ROWS`] rows.
fn residual_pass(
    model: &CapturedModel,
    columns: &[Cow<'_, [f64]>],
    weighted: bool,
    groups: impl Iterator<Item = (usize, Range<usize>)>,
    figures: &mut [Residuals],
) -> Result<()> {
    let vars = model.coverage.variables.len();
    let (actual, inputs) = (&columns[0], &columns[1..=vars]);
    let weights = weighted.then(|| &*columns[vars + 1]);
    let (mut batch, mut param_rows, mut used) = (Vec::new(), Vec::new(), Vec::new());
    let mut groups = groups.peekable();
    while let Some((row, rows)) = groups.next() {
        param_rows.resize(param_rows.len() + rows.len(), row);
        let end = rows.end;
        batch.push((row, rows));
        let adjacent = groups.peek().is_some_and(|(_, next)| next.start == end);
        if adjacent && param_rows.len() < CHUNK_ROWS {
            continue;
        }
        let start = batch[0].1.start;
        let slices: Vec<&[f64]> = inputs.iter().map(|c| &c[start..end]).collect();
        let pred = model.predict(&param_rows, &slices)?;
        for (row, rows) in batch.drain(..) {
            let w = weights.map(|w| &w[rows.clone()]);
            let p = &pred[rows.start - start..rows.end - start];
            figures[row] = group_residuals(&actual[rows], w, p, &mut used);
        }
        param_rows.clear();
    }
    Ok(())
}

/// Record `figures`, one per parameter row, on `model`, with the two
/// whole-coverage figures they fold to in key order.
///
/// `max_abs_residual` is the largest |actual − predicted| over rows
/// where both are finite: the bound the drift guard, the cluster's
/// shard-model fallback and quarantined-column re-derive hold a model
/// to. `None` when no row has both finite (then the model bounds
/// nothing). Rows with a non-finite actual (`±inf`, NaN) or prediction
/// (unfitted group, NULL key, missing input) are excluded, so the bound
/// says nothing about them: it is not a synopsis a scan could prune
/// with.
///
/// `overall_r2` is the pooled `1 − ΣRSS/ΣTSS`, each group's RSS
/// (weighted as the fit weighs it) and TSS taken over its rows with a
/// finite actual, prediction and weight, and summed in key order. It is
/// a function of the parameters and the rows alone, so a refit that
/// copies some groups' figures with their parameters gets the same
/// figure as a cold fit.
fn settle(model: &mut CapturedModel, figures: Vec<Residuals>) {
    let (mut rss, mut tss, mut worst) = (0.0, 0.0, f64::NAN);
    for f in &figures {
        rss += f.rss;
        tss += f.tss;
        worst = worst.max(f.max_abs);
    }
    model.max_abs_residual = (!worst.is_nan()).then_some(worst);
    model.overall_r2 = if tss > 0.0 { 1.0 - rss / tss } else { f64::NAN };
    model.residuals = Some(Arc::from(figures));
}

/// The columns a fit of `formula` reads: the response, the `variables`,
/// then the weights column if any.
fn needed_columns(formula: &Formula, variables: &[String], options: &FitOptions) -> Vec<String> {
    let mut needed = vec![formula.response.clone()];
    needed.extend(variables.iter().cloned());
    needed.extend(options.weights_column.iter().cloned());
    needed
}

/// Fit `formula_src` globally against `table` and wrap the result as a
/// captured model (id/version 0 — the catalog assigns real ones).
/// Returns the model together with the fit's report.
pub fn fit_table(
    table: &Table,
    formula_src: &str,
    options: &FitOptions,
) -> Result<(CapturedModel, FitResult)> {
    let formula = parse_formula(formula_src)?;
    let split = formula.split_symbols(&table.schema().names());
    let needed = needed_columns(&formula, &split.variables, options);
    let columns: Vec<Cow<[f64]>> =
        needed.iter().map(|n| numeric_view(table.column(n)?)).collect::<Result<_>>()?;
    let pairs = needed.iter().zip(&columns).map(|(n, c)| (n.as_str(), &**c)).collect();
    let data = DataSet::new(pairs).map_err(ModelError::Fit)?;
    let fit = fit_auto(&formula, &data, options)?;

    let names = fit.params.iter().map(|(n, _)| n.clone()).collect();
    let values = fit.params.iter().map(|(_, v)| *v).collect();
    let d = &fit.diagnostics;
    let params = ModelParams::global(names, values, d.residual_se, d.r2, d.n);
    let coverage = coverage(table, &formula, split.variables, None);
    let mut model = CapturedModel::new(formula, params, coverage, f64::NAN)?;
    let mut figures = vec![Residuals::NONE];
    let weighted = options.weights_column.is_some();
    let all = std::iter::once((0, 0..table.row_count()));
    residual_pass(&model, &columns, weighted, all, &mut figures)?;
    settle(&mut model, figures);
    Ok((model, fit))
}

/// The coverage of a model of `formula` fit on all of `table`, with
/// `domains` when they are known, else the table's.
fn coverage(
    table: &Table,
    formula: &Formula,
    variables: Vec<String>,
    domains: Option<Vec<(String, Vec<f64>)>>,
) -> Coverage {
    Coverage {
        table: table.name().to_string(),
        response: formula.response.clone(),
        domains: domains.unwrap_or_else(|| capture_domains(table, &variables)),
        variables,
        rows_at_fit: table.row_count(),
        predicate: None,
    }
}

/// Fit `formula_src` per group of `group_column` and wrap the per-group
/// parameter table as a captured model. Returns the model together with
/// the full grouped-fit report (the caller may want failure details).
/// A row whose key is NULL belongs to no group: it is fitted in none,
/// and the model predicts NaN for it.
pub fn fit_table_grouped(
    table: &Table,
    formula_src: &str,
    group_column: &str,
    options: &FitOptions,
    threads: usize,
) -> Result<(CapturedModel, GroupedFitResult)> {
    fit_groups(table, formula_src, group_column, None, options, threads)
}

/// Fit `live`'s formula per group again over `table`, but only the
/// groups with a key among the rows of `appended`: those are fitted from
/// their rows in `table`, and every other group keeps its row of
/// `live.params` and its residual figures, the two merged in key order.
/// The report covers the re-fitted groups.
///
/// `appended` holds the rows `table` gained since `live` was fitted, or
/// more (a partial model's refit passes the whole table's new rows).
/// Only those rows and the touched groups' are read: the residual pass
/// predicts the touched groups' rows, and the domains are `live`'s when
/// every appended value is already in them, else they are analyzed
/// again. A `live` model without residual figures (one loaded from a
/// store) is fitted again in full, as [`fit_table_grouped`].
///
/// A group's fit reads its own rows in table order and nothing else.
/// So when `table` holds the rows `live` was fitted on, unchanged, and
/// `appended` every row added since, the result equals
/// [`fit_table_grouped`] on `table` with the same options, bit for bit.
pub fn refit_table_grouped(
    live: &CapturedModel,
    table: &Table,
    appended: &Table,
    options: &FitOptions,
    threads: usize,
) -> Result<(CapturedModel, GroupedFitResult)> {
    let group_column = live.params.group_column.as_deref().ok_or_else(|| {
        ModelError::BadConstruction { detail: "a global model has no groups to refit".to_string() }
    })?;
    let mut touched: Vec<i64> = appended.column(group_column)?.i64_values()?.flatten().collect();
    touched.sort_unstable();
    touched.dedup();
    let formula = &live.formula_source;
    let figures = live.residuals.as_deref().filter(|f| f.len() == live.params.rows());
    let Some(figures) = figures else {
        return fit_groups(table, formula, group_column, None, options, threads);
    };
    let refit = Refit { live, figures, touched: &touched, domains: domains_hold(live, appended) };
    fit_groups(table, formula, group_column, Some(refit), options, threads)
}

/// What a refit keeps of its live model.
struct Refit<'a> {
    live: &'a CapturedModel,
    /// `live`'s residual figures, one per parameter row.
    figures: &'a [Residuals],
    /// The keys to fit again, sorted, each once.
    touched: &'a [i64],
    /// Whether `live`'s domains are proven to be the table's.
    domains: bool,
}

/// The fit behind [`fit_table_grouped`] (`refit` is `None`: every group
/// is fitted) and [`refit_table_grouped`].
fn fit_groups(
    table: &Table,
    formula_src: &str,
    group_column: &str,
    refit: Option<Refit<'_>>,
    options: &FitOptions,
    threads: usize,
) -> Result<(CapturedModel, GroupedFitResult)> {
    let formula: Formula = parse_formula(formula_src)?;
    // The group column is input, not a model variable: exclude it from
    // the symbol split by listing only the remaining columns.
    let col_names: Vec<&str> = table
        .schema()
        .names()
        .into_iter()
        .filter(|n| *n != group_column)
        .collect();
    let split = formula.split_symbols(&col_names);
    let needed = needed_columns(&formula, &split.variables, options);

    // The rows fitted, chosen once: every row with a key, or on a refit
    // every row of a touched group, in key order. The fit and the
    // residual pass both read them.
    let touched = refit.as_ref().map(|r| r.touched);
    let rows = KeyOrdered::select(table, group_column, &needed, touched)?;
    let pairs = needed.iter().zip(&rows.columns).map(|(n, c)| (n.as_str(), &**c)).collect();
    let data = DataSet::new(pairs).map_err(ModelError::Fit)?;
    let grouped = fit_grouped(&formula, &rows.keys, &data, options, threads)?;

    // Table 1: a row per fitted group, in key order.
    let fitted: Vec<(i64, &FitResult)> =
        grouped.fits.iter().filter_map(|g| Some((g.key, g.outcome.as_ref().ok()?))).collect();
    let names = &grouped.param_names;
    let column = |f: &dyn Fn(&FitResult) -> f64| fitted.iter().map(|(_, r)| f(r)).collect();
    let mut params = ModelParams {
        group_column: Some(group_column.to_string()),
        names: names.clone(),
        keys: fitted.iter().map(|(k, _)| *k).collect(),
        values: names.iter().map(|p| column(&|r| r.param(p).unwrap_or(f64::NAN))).collect(),
        residual_se: column(&|r| r.diagnostics.residual_se),
        r2: column(&|r| r.diagnostics.r2),
        n: fitted.iter().map(|(_, r)| r.diagnostics.n).collect(),
    };
    let mut figures = vec![Residuals::NONE; params.rows()];
    let mut domains = None;
    if let Some(refit) = &refit {
        // The kept groups' figures come with their parameters.
        (params, figures) = merge(refit, params)?;
        domains = refit.domains.then(|| refit.live.coverage.domains.clone());
    }
    let coverage = coverage(table, &formula, split.variables, domains);
    let mut model = CapturedModel::new(formula, params, coverage, f64::NAN)?;
    // The fitted groups' figures come from the rows just fitted.
    let weighted = options.weights_column.is_some();
    residual_pass(&model, &rows.columns, weighted, rows.groups(&model.params), &mut figures)?;
    settle(&mut model, figures);
    Ok((model, grouped))
}

/// The live parameter rows of the keys not in `refit.touched` and every
/// row of `fitted`, in key order, with the kept rows' residual figures
/// ([`Residuals::NONE`] for the fitted rows).
fn merge(refit: &Refit<'_>, fitted: ModelParams) -> Result<(ModelParams, Vec<Residuals>)> {
    let (old, touched) = (&refit.live.params, refit.touched);
    if old.names != fitted.names {
        return Err(ModelError::BadConstruction {
            detail: format!("refit parameters {:?} differ from {:?}", fitted.names, old.names),
        });
    }
    // Each merged row: its key, whether it is kept, and its row there.
    let kept = (0..old.rows()).filter(|&r| touched.binary_search(&old.keys[r]).is_err());
    let mut rows: Vec<(i64, bool, usize)> = kept.map(|r| (old.keys[r], true, r)).collect();
    rows.extend((0..fitted.rows()).map(|r| (fitted.keys[r], false, r)));
    rows.sort_unstable_by_key(|&(key, _, _)| key);
    let source = |kept: bool| if kept { old } else { &fitted };
    let column = |f: &dyn Fn(&ModelParams, usize) -> f64| -> Vec<f64> {
        rows.iter().map(|&(_, kept, r)| f(source(kept), r)).collect()
    };
    let figure = |kept: bool, r: usize| if kept { refit.figures[r] } else { Residuals::NONE };
    let figures = rows.iter().map(|&(_, kept, r)| figure(kept, r)).collect();
    let params = ModelParams {
        group_column: fitted.group_column.clone(),
        names: fitted.names.clone(),
        keys: rows.iter().map(|&(key, _, _)| key).collect(),
        values: (0..fitted.names.len()).map(|j| column(&|p, r| p.values[j][r])).collect(),
        residual_se: column(&|p, r| p.residual_se[r]),
        r2: column(&|p, r| p.r2[r]),
        n: rows.iter().map(|&(_, kept, r)| source(kept).n[r]).collect(),
    };
    Ok((params, figures))
}

/// Reconstruct (predict) the response column of `table` from a grouped
/// or global model — the engine of both semantic compression and
/// zero-IO scans. Rows whose group has no fitted parameters, or whose
/// key is NULL, come back as NaN.
pub fn predict_table(model: &CapturedModel, table: &Table) -> Result<Vec<f64>> {
    let mut out = vec![f64::NAN; table.row_count()];
    for_each_group(model, table, |rows, preds| {
        rows.iter().zip(preds).for_each(|(&i, &p)| out[i] = p);
    })?;
    Ok(out)
}

/// Predict `table`'s rows and hand them over a parameter row at a time:
/// `f(rows, preds)` once per row of `model.params` that has rows in
/// `table`, in key order, with those rows' indices in table order and
/// one prediction per row. A global model's one row takes every row.
/// Rows whose key is NULL or has no parameters are in no call.
fn for_each_group(
    model: &CapturedModel,
    table: &Table,
    mut f: impl FnMut(&[usize], &[f64]),
) -> Result<()> {
    let var_views: Vec<Cow<[f64]>> = model
        .coverage
        .variables
        .iter()
        .map(|v| numeric_view(table.column(v)?))
        .collect::<Result<_>>()?;
    // The runs of equal keys with their parameter row: each group's
    // runs sit together, in table order.
    let runs = match &model.params.group_column {
        None => vec![(0, 0..table.row_count())],
        Some(group_column) => {
            let keys = &model.params.keys;
            key_runs(table.column(group_column)?, |k| keys.binary_search(&k).ok())?
        }
    };
    // Whole groups are gathered into chunks of about `CHUNK_ROWS` rows,
    // each predicted in one compiled pass and handed to `f` a group at
    // a time.
    let (mut rows, mut param_rows, mut ends) = (Vec::new(), Vec::new(), Vec::new());
    let mut groups = runs.chunk_by(|a, b| a.0 == b.0).peekable();
    while let Some(group) = groups.next() {
        for (row, span) in group {
            rows.extend(span.clone());
            param_rows.resize(rows.len(), *row);
        }
        ends.push(rows.len());
        if rows.len() < CHUNK_ROWS && groups.peek().is_some() {
            continue;
        }
        let gathered: Vec<Vec<f64>> =
            var_views.iter().map(|c| rows.iter().map(|&i| c[i]).collect()).collect();
        let slices: Vec<&[f64]> = gathered.iter().map(Vec::as_slice).collect();
        let pred = model.predict(&param_rows, &slices)?;
        let mut start = 0;
        for end in ends.drain(..) {
            f(&rows[start..end], &pred[start..end]);
            start = end;
        }
        rows.clear();
        param_rows.clear();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_storage::TableBuilder;

    fn lofar_table() -> Table {
        let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
        let laws: [(f64, f64); 3] = [(2.0, -0.7), (0.5, -1.2), (1.0, 0.3)];
        let mut src = Vec::new();
        let mut nu = Vec::new();
        let mut intensity = Vec::new();
        for (s, &(p, a)) in laws.iter().enumerate() {
            for i in 0..40 {
                src.push(s as i64);
                nu.push(freqs[i % 4]);
                intensity.push(p * freqs[i % 4].powf(a));
            }
        }
        let mut b = TableBuilder::new("measurements");
        b.add_i64("source", src);
        b.add_f64("nu", nu);
        b.add_f64("intensity", intensity);
        b.build().unwrap()
    }

    #[test]
    fn grouped_capture_produces_parameter_table() {
        let t = lofar_table();
        let (model, report) = fit_table_grouped(
            &t,
            "intensity ~ p * nu ^ alpha",
            "source",
            &FitOptions::default(),
            2,
        )
        .unwrap();
        assert_eq!(report.success_count(), 3);
        assert!(model.overall_r2 > 0.999999);
        let i = model.predict_scalar(Some(0), &[("nu", 0.14)]).unwrap();
        assert!((i - 2.0 * 0.14_f64.powf(-0.7)).abs() < 1e-6);
        // The parameter table is ~64x smaller than the raw data here?
        // 3 groups × 4 numbers × 8B = 96B vs 120 rows × 3 cols × 8B.
        assert_eq!(model.params.byte_size(), 96);
    }

    #[test]
    fn global_capture_of_linear_model() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 - 0.5 * x).collect();
        let mut b = TableBuilder::new("t");
        b.add_f64("x", xs);
        b.add_f64("y", ys);
        let t = b.build().unwrap();
        let (m, _) = fit_table(&t, "y ~ a + b * x", &FitOptions::default()).unwrap();
        assert_eq!((m.params.group_column.as_ref(), m.params.rows()), (None, 1));
        assert!((m.predict_scalar(None, &[("x", 2.0)]).unwrap() - 2.0).abs() < 1e-9);
        assert!(m.overall_r2 > 0.999999);
    }

    #[test]
    fn predict_table_reconstructs_response() {
        let t = lofar_table();
        let (model, _) = fit_table_grouped(
            &t,
            "intensity ~ p * nu ^ alpha",
            "source",
            &FitOptions::default(),
            1,
        )
        .unwrap();
        let pred = predict_table(&model, &t).unwrap();
        let actual = t.column("intensity").unwrap().f64_data().unwrap();
        for (p, a) in pred.iter().zip(actual) {
            assert!((p - a).abs() < 1e-6, "{p} vs {a}");
        }
    }

    #[test]
    fn predict_table_does_not_depend_on_row_order() {
        let t = lofar_table();
        let (model, _) = fit_table_grouped(
            &t,
            "intensity ~ p * nu ^ alpha",
            "source",
            &FitOptions::default(),
            1,
        )
        .unwrap();
        // Row i of the interleaved table is row `order[i]` of `t`: one
        // row of each source in turn, so no two neighbours share a group.
        let order: Vec<usize> = (0..40).flat_map(|i| (0..3).map(move |s| s * 40 + i)).collect();
        let src = t.column("source").unwrap().i64_data().unwrap();
        let nu = t.column("nu").unwrap().f64_data().unwrap();
        let mut b = TableBuilder::new("measurements");
        b.add_i64("source", order.iter().map(|&i| src[i]).collect());
        b.add_f64("nu", order.iter().map(|&i| nu[i]).collect());
        let interleaved = b.build().unwrap();
        let want = predict_table(&model, &t).unwrap();
        let got = predict_table(&model, &interleaved).unwrap();
        for (&i, g) in order.iter().zip(&got) {
            assert_eq!(g.to_bits(), want[i].to_bits());
        }
    }

    #[test]
    fn predict_table_at_any_rows_has_the_full_tables_bits() {
        let t = lofar_table();
        let formula = "intensity ~ p * nu ^ alpha";
        let (grouped, _) =
            fit_table_grouped(&t, formula, "source", &FitOptions::default(), 1).unwrap();
        let (global, _) = fit_table(&t, formula, &FitOptions::default()).unwrap();
        let src = t.column("source").unwrap().i64_data().unwrap();
        let nu = t.column("nu").unwrap().f64_data().unwrap();
        let (full, full_global) =
            (predict_table(&grouped, &t).unwrap(), predict_table(&global, &t).unwrap());
        // Each case is rows of `t`, each with its key or another one:
        // key 99 has no parameters, and `None` is NULL.
        let own = |rows: Vec<usize>| rows.into_iter().map(|i| (i, Some(src[i]))).collect();
        let cases: [Vec<(usize, Option<i64>)>; 5] = [
            own(vec![5, 17, 60, 61, 119]),
            own((0..40).flat_map(|i| (0..3).map(move |s| s * 40 + i)).collect()),
            own((0..120).rev().chain(0..7).collect()),
            (0..16).map(|i| (i * 7, [Some(src[i * 7]), Some(99), None][i % 3])).collect(),
            vec![(3, None), (4, Some(99))],
        ];
        for rows in cases {
            let mut b = TableBuilder::new("measurements");
            b.add_column(
                lawsdb_storage::Field::nullable("source", lawsdb_storage::DataType::Int64),
                lawsdb_storage::Column::from_i64_opt(rows.iter().map(|&(_, k)| k).collect()),
            );
            b.add_f64("nu", rows.iter().map(|&(i, _)| nu[i]).collect());
            let sub = b.build().unwrap();
            let got = predict_table(&grouped, &sub).unwrap();
            let got_global = predict_table(&global, &sub).unwrap();
            for (j, &(i, key)) in rows.iter().enumerate() {
                let want = if key == Some(src[i]) { full[i] } else { f64::NAN };
                assert_eq!(got[j].to_bits(), want.to_bits(), "row {i} with key {key:?}");
                assert_eq!(got_global[j].to_bits(), full_global[i].to_bits(), "row {i}");
            }
        }
    }

    #[test]
    fn predict_table_marks_unfitted_groups_nan() {
        let mut t = lofar_table();
        // Append a single-row group that cannot be fitted.
        t.append_rows(&[
            lawsdb_storage::Column::from_i64(vec![99]),
            lawsdb_storage::Column::from_f64(vec![0.15]),
            lawsdb_storage::Column::from_f64(vec![1.0]),
        ])
        .unwrap();
        let (model, report) = fit_table_grouped(
            &t,
            "intensity ~ p * nu ^ alpha",
            "source",
            &FitOptions::default(),
            1,
        )
        .unwrap();
        assert_eq!(report.failure_count(), 1);
        let pred = predict_table(&model, &t).unwrap();
        assert!(pred.last().unwrap().is_nan());
        assert!(!pred[0].is_nan());
    }

    #[test]
    fn a_null_key_is_no_group() {
        // Sources 0 and 1 follow their laws; 40 rows with a NULL source
        // follow a third law, and would corrupt group 0 if read as key 0.
        let t = lofar_table();
        let src = t.column("source").unwrap().i64_data().unwrap();
        let rows: Vec<usize> = (0..120).collect();
        let keys = rows.iter().map(|&i| (src[i] < 2).then_some(src[i])).collect();
        let mut b = TableBuilder::new("measurements");
        b.add_column(
            lawsdb_storage::Field::nullable("source", lawsdb_storage::DataType::Int64),
            lawsdb_storage::Column::from_i64_opt(keys),
        );
        b.add_column(t.schema().fields()[1].clone(), t.column("nu").unwrap().clone());
        let mut intensity = t.column("intensity").unwrap().f64_data().unwrap().to_vec();
        intensity[80..].iter_mut().for_each(|v| *v *= 1e3);
        b.add_f64("intensity", intensity);
        let t = b.build().unwrap();
        let formula = "intensity ~ p * nu ^ alpha";
        let (model, report) =
            fit_table_grouped(&t, formula, "source", &FitOptions::default(), 1).unwrap();
        assert_eq!(report.fits.len(), 2, "two groups: the NULL key is none");
        assert_eq!(model.params.keys, [0, 1]);
        assert_eq!(model.params.n, [40, 40]);
        let alpha = model.params.names.iter().position(|n| n == "alpha").unwrap();
        assert!((model.params.values[alpha][0] + 0.7).abs() < 1e-6);
        assert!(model.overall_r2 > 0.999999);
        // The NULL rows predict NaN and stay out of the residual bound.
        let pred = predict_table(&model, &t).unwrap();
        assert!(pred[..80].iter().all(|p| p.is_finite()));
        assert!(pred[80..].iter().all(|p| p.is_nan()));
        assert!(model.max_abs_residual.unwrap() < 1e-6);
    }

    #[test]
    fn a_refit_of_the_touched_groups_equals_a_cold_fit() {
        let t = lofar_table();
        let formula = "intensity ~ p * nu ^ alpha";
        let options = FitOptions::default();
        let (live, _) = fit_table_grouped(&t, formula, "source", &options, 1).unwrap();
        // Group 1 gains a row off its law, and a new group 7 a row too
        // few to fit: both are touched, group 0 and 2 are not.
        let mut grown = t.clone();
        grown
            .append_rows(&[
                lawsdb_storage::Column::from_i64(vec![1, 7]),
                lawsdb_storage::Column::from_f64(vec![0.15, 0.15]),
                lawsdb_storage::Column::from_f64(vec![9.0, 1.0]),
            ])
            .unwrap();
        let appended = grown.slice(120, 2).unwrap();
        let (got, report) = refit_table_grouped(&live, &grown, &appended, &options, 2).unwrap();
        assert_eq!(report.fits.iter().map(|g| g.key).collect::<Vec<_>>(), [1, 7]);
        let (want, _) = fit_table_grouped(&grown, formula, "source", &options, 1).unwrap();
        assert_eq!(got.params, want.params);
        assert_eq!(got.overall_r2.to_bits(), want.overall_r2.to_bits());
        assert_eq!(got.max_abs_residual.map(f64::to_bits), want.max_abs_residual.map(f64::to_bits));
        assert_eq!(got.coverage, want.coverage);
        assert_eq!(got.residuals, want.residuals);
        // Group 0's row is the live one; group 1's moved.
        assert_eq!(got.params.values[0][0].to_bits(), live.params.values[0][0].to_bits());
        assert_ne!(got.params.values[0][1].to_bits(), live.params.values[0][1].to_bits());
        // A live model without residual figures (one loaded from a
        // store) is fitted again in full.
        let mut loaded = live.clone();
        loaded.residuals = None;
        let (full, report) = refit_table_grouped(&loaded, &grown, &appended, &options, 1).unwrap();
        assert_eq!(report.fits.iter().map(|g| g.key).collect::<Vec<_>>(), [0, 1, 2, 7]);
        assert_eq!((full.params, full.residuals), (want.params.clone(), want.residuals.clone()));
        // Nothing touched: nothing is fitted, and every row is the live one.
        let (same, report) =
            refit_table_grouped(&live, &t, &t.slice(120, 0).unwrap(), &options, 1).unwrap();
        assert!(report.fits.is_empty());
        assert_eq!(same.params, live.params);
        assert_eq!(same.overall_r2.to_bits(), live.overall_r2.to_bits());
    }

    #[test]
    fn a_body_without_variables_predicts_every_row() {
        let t = lofar_table();
        let (model, _) =
            fit_table_grouped(&t, "intensity ~ c", "source", &FitOptions::default(), 1).unwrap();
        let pred = predict_table(&model, &t).unwrap();
        let keys = t.column("source").unwrap().i64_data().unwrap();
        for (p, &k) in pred.iter().zip(keys) {
            assert_eq!(p.to_bits(), model.predict_scalar(Some(k), &[]).unwrap().to_bits());
        }
        let (global, _) = fit_table(&t, "intensity ~ c", &FitOptions::default()).unwrap();
        let pred = predict_table(&global, &t).unwrap();
        let want = global.predict_scalar(None, &[]).unwrap();
        assert_eq!(pred.len(), t.row_count());
        assert!(pred.iter().all(|p| p.to_bits() == want.to_bits()));
    }

    #[test]
    fn missing_formula_column_is_reported() {
        let t = lofar_table();
        assert!(fit_table(&t, "zz ~ a + b * nu", &FitOptions::default()).is_err());
    }
}
