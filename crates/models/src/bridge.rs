//! Bridge between the storage engine and the fitting layer: fit a
//! formula directly against a [`Table`], producing a [`CapturedModel`].
//!
//! The table is every row the model speaks for. A partial model's
//! subset is chosen before it gets here: `lawsdb-core` reads the rows
//! satisfying the SQL coverage predicate through the query engine and
//! fits them with these same functions, so this crate parses and
//! evaluates no predicate.

use crate::error::{ModelError, Result};
use crate::model::{CapturedModel, Coverage, ModelParams};
use lawsdb_expr::{parse_formula, Formula};
use lawsdb_fit::{fit_auto, fit_grouped, DataSet, FitOptions, FitResult, GroupedFitResult};
use lawsdb_storage::Table;
use std::ops::Range;

/// Numeric views of the table columns a formula needs, with NULL → NaN
/// (the fit layer drops NaN rows).
fn numeric_views(table: &Table, names: &[String]) -> Result<Vec<(String, Vec<f64>)>> {
    names
        .iter()
        .map(|n| {
            let col = table.column(n)?;
            Ok((n.clone(), col.to_f64_lossy()?))
        })
        .collect()
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

/// The coverage of a model of `formula` fit on all of `table`.
fn coverage(table: &Table, formula: &Formula, variables: Vec<String>) -> Coverage {
    Coverage {
        table: table.name().to_string(),
        response: formula.response.clone(),
        domains: capture_domains(table, &variables),
        variables,
        rows_at_fit: table.row_count(),
        predicate: None,
    }
}

/// Run the residual pass of a freshly fitted `model` over `table`,
/// every row it speaks for, and record its two whole-table figures.
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
/// (weighted by `weights_column`, as the fit weighs it) and TSS taken
/// over its rows with a finite actual, prediction and weight, and
/// summed in key order. It is a function of the parameters and the
/// rows alone, so a refit that copies some groups' parameters gets the
/// same figure as a cold fit.
fn settle(model: &mut CapturedModel, table: &Table, weights_column: Option<&str>) -> Result<()> {
    let actual = table.column(&model.coverage.response)?.to_f64_lossy()?;
    let weights = weights_column.map(|w| table.column(w)?.to_f64_lossy()).transpose()?;
    let (mut worst, mut rss, mut tss) = (None::<f64>, 0.0, 0.0);
    let mut used = Vec::new();
    for_each_group(model, table, |rows, preds| {
        used.clear();
        let mut group_rss = 0.0;
        for (&i, &p) in rows.iter().zip(preds) {
            let a = actual[i];
            if !(a.is_finite() && p.is_finite()) {
                continue;
            }
            let r = (a - p).abs();
            worst = Some(worst.map_or(r, |w| w.max(r)));
            let w = weights.as_ref().map_or(1.0, |w| w[i]);
            if w.is_finite() {
                group_rss += w * r * r;
                used.push(a);
            }
        }
        rss += group_rss;
        tss += lawsdb_linalg::ops::total_sum_of_squares(&used);
    })?;
    model.max_abs_residual = worst;
    model.overall_r2 = if tss > 0.0 { 1.0 - rss / tss } else { f64::NAN };
    Ok(())
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
    let mut needed = vec![formula.response.clone()];
    needed.extend(split.variables.iter().cloned());
    if let Some(w) = &options.weights_column {
        needed.push(w.clone());
    }
    let views = numeric_views(table, &needed)?;
    let pairs: Vec<(&str, &[f64])> =
        views.iter().map(|(n, v)| (n.as_str(), v.as_slice())).collect();
    let data = DataSet::new(pairs).map_err(ModelError::Fit)?;
    let fit = fit_auto(&formula, &data, options)?;

    let names = fit.params.iter().map(|(n, _)| n.clone()).collect();
    let values = fit.params.iter().map(|(_, v)| *v).collect();
    let d = &fit.diagnostics;
    let params = ModelParams::global(names, values, d.residual_se, d.r2, d.n);
    let coverage = coverage(table, &formula, split.variables);
    let mut model = CapturedModel::new(formula, params, coverage, f64::NAN)?;
    settle(&mut model, table, options.weights_column.as_deref())?;
    Ok((model, fit))
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
/// groups whose keys are in `touched` (sorted, each once): those are
/// fitted from their rows in `table`, and every other group keeps its
/// row of `live.params`, the two merged in key order. The report covers
/// the re-fitted groups; domains, `max_abs_residual` and `overall_r2`
/// cover all of `table`.
///
/// A group's fit reads its own rows in table order and nothing else.
/// So when `table` holds the rows `live` was fitted on, unchanged, and
/// `touched` names every key of the rows added since, the result equals
/// [`fit_table_grouped`] on `table` with the same options, bit for bit.
pub fn refit_table_grouped(
    live: &CapturedModel,
    table: &Table,
    touched: &[i64],
    options: &FitOptions,
    threads: usize,
) -> Result<(CapturedModel, GroupedFitResult)> {
    let group_column = live.params.group_column.as_deref().ok_or_else(|| {
        ModelError::BadConstruction { detail: "a global model has no groups to refit".to_string() }
    })?;
    let keep = Some((&live.params, touched));
    fit_groups(table, &live.formula_source, group_column, keep, options, threads)
}

/// The fit behind [`fit_table_grouped`] (`live` is `None`: every group
/// is fitted) and [`refit_table_grouped`] (`live` holds the parameters
/// to keep and the keys to fit again).
fn fit_groups(
    table: &Table,
    formula_src: &str,
    group_column: &str,
    live: Option<(&ModelParams, &[i64])>,
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
    let mut needed = vec![formula.response.clone()];
    needed.extend(split.variables.iter().cloned());
    if let Some(w) = &options.weights_column {
        needed.push(w.clone());
    }

    // The rows fitted: every row with a key, or on a refit every row of
    // a touched group, in table order either way.
    let keys_col = table.column(group_column)?;
    let subset = match live {
        None if keys_col.null_count() == 0 => None,
        _ => {
            let fitted = |k: Option<i64>| match (k, live) {
                (Some(k), Some((_, touched))) => touched.binary_search(&k).is_ok(),
                (k, _) => k.is_some(),
            };
            let keys = keys_col.i64_values()?.enumerate();
            let rows: Vec<usize> = keys.filter(|&(_, k)| fitted(k)).map(|(i, _)| i).collect();
            let mut columns: Vec<&str> = needed.iter().map(String::as_str).collect();
            columns.push(group_column);
            columns.sort_unstable();
            columns.dedup();
            Some(table.project(&columns)?.take(&rows)?)
        }
    };
    let rows = subset.as_ref().unwrap_or(table);
    let views = numeric_views(rows, &needed)?;
    let pairs: Vec<(&str, &[f64])> =
        views.iter().map(|(n, v)| (n.as_str(), v.as_slice())).collect();
    let data = DataSet::new(pairs).map_err(ModelError::Fit)?;
    let keys = rows.column(group_column)?.i64_data()?;
    let grouped = fit_grouped(&formula, keys, &data, options, threads)?;

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
    if let Some((live, touched)) = live {
        params = merge(live, touched, params)?;
    }
    let coverage = coverage(table, &formula, split.variables);
    let mut model = CapturedModel::new(formula, params, coverage, f64::NAN)?;
    settle(&mut model, table, options.weights_column.as_deref())?;
    Ok((model, grouped))
}

/// `live`'s rows of the keys not in `touched` and every row of
/// `fitted`, in key order.
fn merge(live: &ModelParams, touched: &[i64], fitted: ModelParams) -> Result<ModelParams> {
    if live.names != fitted.names {
        return Err(ModelError::BadConstruction {
            detail: format!("refit parameters {:?} differ from {:?}", fitted.names, live.names),
        });
    }
    let kept = (0..live.rows()).filter(|&r| touched.binary_search(&live.keys[r]).is_err());
    let mut rows: Vec<(i64, &ModelParams, usize)> = kept.map(|r| (live.keys[r], live, r)).collect();
    rows.extend((0..fitted.rows()).map(|r| (fitted.keys[r], &fitted, r)));
    rows.sort_unstable_by_key(|&(key, _, _)| key);
    Ok(ModelParams {
        group_column: fitted.group_column.clone(),
        names: fitted.names.clone(),
        keys: rows.iter().map(|&(key, _, _)| key).collect(),
        values: (0..fitted.names.len())
            .map(|j| rows.iter().map(|&(_, p, r)| p.values[j][r]).collect())
            .collect(),
        residual_se: rows.iter().map(|&(_, p, r)| p.residual_se[r]).collect(),
        r2: rows.iter().map(|&(_, p, r)| p.r2[r]).collect(),
        n: rows.iter().map(|&(_, p, r)| p.n[r]).collect(),
    })
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
    let var_views = numeric_views(table, &model.coverage.variables)?;
    let cols: Vec<&[f64]> = var_views.iter().map(|(_, v)| v.as_slice()).collect();
    // The runs of equal keys with their parameter row, sorted by that
    // row and then position: each group's runs sit together, in table
    // order. The work is the table's rows and runs, not the groups.
    let mut runs: Vec<(usize, Range<usize>)> = Vec::new();
    match &model.params.group_column {
        None => runs.push((0, 0..table.row_count())),
        Some(group_column) => {
            let mut last = None;
            for (i, key) in table.column(group_column)?.i64_values()?.enumerate() {
                match runs.last_mut() {
                    Some((_, run)) if key == last && run.end == i => run.end += 1,
                    _ => {
                        let row = key.and_then(|k| model.params.keys.binary_search(&k).ok());
                        runs.extend(row.map(|row| (row, i..i + 1)));
                    }
                }
                last = key;
            }
        }
    }
    runs.sort_unstable_by_key(|(row, rows)| (*row, rows.start));
    // Whole groups are gathered into chunks of about `CHUNK_ROWS` rows,
    // each predicted in one compiled pass and handed to `f` a group at
    // a time.
    const CHUNK_ROWS: usize = 1024;
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
            cols.iter().map(|c| rows.iter().map(|&i| c[i]).collect()).collect();
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
        let (got, report) = refit_table_grouped(&live, &grown, &[1, 7], &options, 2).unwrap();
        assert_eq!(report.fits.iter().map(|g| g.key).collect::<Vec<_>>(), [1, 7]);
        let (want, _) = fit_table_grouped(&grown, formula, "source", &options, 1).unwrap();
        assert_eq!(got.params, want.params);
        assert_eq!(got.overall_r2.to_bits(), want.overall_r2.to_bits());
        assert_eq!(got.max_abs_residual.map(f64::to_bits), want.max_abs_residual.map(f64::to_bits));
        assert_eq!(got.coverage, want.coverage);
        // Group 0's row is the live one; group 1's moved.
        assert_eq!(got.params.values[0][0].to_bits(), live.params.values[0][0].to_bits());
        assert_ne!(got.params.values[0][1].to_bits(), live.params.values[0][1].to_bits());
        // Nothing touched: nothing is fitted, and every row is the live one.
        let (same, report) = refit_table_grouped(&live, &t, &[], &options, 1).unwrap();
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
