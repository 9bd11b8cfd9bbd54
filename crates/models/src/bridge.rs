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

/// Largest |actual − predicted| over rows of `table` where both are
/// finite — the bound the drift guard, the cluster's shard-model
/// fallback and quarantined-column re-derive hold a model to. `None`
/// when no row has both finite (then the model bounds nothing). Rows
/// with a non-finite actual (`±inf`, NaN) or prediction (unfitted
/// group, missing input) are excluded, so the bound says nothing about
/// them: it is not a synopsis a scan could prune with.
pub fn max_abs_residual(model: &CapturedModel, table: &Table) -> Result<Option<f64>> {
    let preds = predict_table(model, table)?;
    let actual = table.column(&model.coverage.response)?.to_f64_lossy()?;
    let mut worst: Option<f64> = None;
    for (&a, &p) in actual.iter().zip(&preds) {
        if a.is_finite() && p.is_finite() {
            let r = (a - p).abs();
            if worst.map(|w| r > w).unwrap_or(true) {
                worst = Some(r);
            }
        }
    }
    Ok(worst)
}

/// Fit `formula_src` globally against `table` and wrap the result as a
/// captured model (id/version 0 — the catalog assigns real ones).
pub fn fit_table(
    table: &Table,
    formula_src: &str,
    options: &FitOptions,
) -> Result<CapturedModel> {
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
    let mut model = CapturedModel::new(formula, params, coverage, d.r2)?;
    model.max_abs_residual = max_abs_residual(&model, table)?;
    Ok(model)
}

/// Fit `formula_src` per group of `group_column` and wrap the per-group
/// parameter table as a captured model. Returns the model together with
/// the full grouped-fit report (the caller may want failure details).
pub fn fit_table_grouped(
    table: &Table,
    formula_src: &str,
    group_column: &str,
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
    let views = numeric_views(table, &needed)?;
    let pairs: Vec<(&str, &[f64])> =
        views.iter().map(|(n, v)| (n.as_str(), v.as_slice())).collect();
    let data = DataSet::new(pairs).map_err(ModelError::Fit)?;

    let keys_col = table.column(group_column)?;
    let keys: Vec<i64> = keys_col.i64_data()?.to_vec();
    let grouped = fit_grouped(&formula, &keys, &data, options, threads)?;

    // Table 1: a row per fitted group, in key order.
    let fitted: Vec<(i64, &FitResult)> =
        grouped.fits.iter().filter_map(|g| Some((g.key, g.outcome.as_ref().ok()?))).collect();
    let names = &grouped.param_names;
    let column = |f: &dyn Fn(&FitResult) -> f64| fitted.iter().map(|(_, r)| f(r)).collect();
    let params = ModelParams {
        group_column: Some(group_column.to_string()),
        names: names.clone(),
        keys: fitted.iter().map(|(k, _)| *k).collect(),
        values: names.iter().map(|p| column(&|r| r.param(p).unwrap_or(f64::NAN))).collect(),
        residual_se: column(&|r| r.diagnostics.residual_se),
        r2: column(&|r| r.diagnostics.r2),
        n: fitted.iter().map(|(_, r)| r.diagnostics.n).collect(),
    };
    let coverage = coverage(table, &formula, split.variables);
    let mut model = CapturedModel::new(formula, params, coverage, grouped.overall_r2())?;
    model.max_abs_residual = max_abs_residual(&model, table)?;
    Ok((model, grouped))
}


/// Reconstruct (predict) the response column of `table` from a grouped
/// or global model — the engine of both semantic compression and
/// zero-IO scans. Rows whose group has no fitted parameters come back
/// as NaN.
pub fn predict_table(model: &CapturedModel, table: &Table) -> Result<Vec<f64>> {
    let var_views = numeric_views(table, &model.coverage.variables)?;
    let cols: Vec<&[f64]> = var_views.iter().map(|(_, v)| v.as_slice()).collect();
    let mut out = vec![f64::NAN; table.row_count()];
    let Some(group_column) = &model.params.group_column else {
        match model.predict_batch(None, &cols)?[..] {
            // A body without variables is one value for all the rows.
            [v] => out.fill(v),
            ref pred => out.copy_from_slice(pred),
        }
        return Ok(out);
    };
    // Group the row indices by parameter row once: one key lookup per
    // run of equal keys, then a counting sort, so every group pays one
    // compiled pass whatever the table's layout. Rows of a group without
    // parameters stay NaN.
    let keys = &model.params.keys;
    let mut runs: Vec<(usize, Range<usize>)> = Vec::new();
    let mut start = vec![0; keys.len() + 1];
    let mut end = 0;
    for run in table.column(group_column)?.i64_data()?.chunk_by(|a, b| a == b) {
        let rows = end..end + run.len();
        end = rows.end;
        if let Ok(row) = keys.binary_search(&run[0]) {
            start[row + 1] += rows.len();
            runs.push((row, rows));
        }
    }
    for row in 0..keys.len() {
        start[row + 1] += start[row];
    }
    let mut order = vec![0; start[keys.len()]];
    let mut next = start.clone();
    for (row, rows) in runs {
        for i in rows {
            order[next[row]] = i;
            next[row] += 1;
        }
    }
    for (row, span) in start.windows(2).enumerate().filter(|(_, s)| s[0] < s[1]) {
        let rows = &order[span[0]..span[1]];
        let gathered: Vec<Vec<f64>> =
            cols.iter().map(|c| rows.iter().map(|&i| c[i]).collect()).collect();
        let slices: Vec<&[f64]> = gathered.iter().map(Vec::as_slice).collect();
        match model.predict_batch(Some(keys[row]), &slices)?[..] {
            [v] => rows.iter().for_each(|&i| out[i] = v),
            ref pred => rows.iter().zip(pred).for_each(|(&i, &p)| out[i] = p),
        }
    }
    Ok(out)
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
        let m = fit_table(&t, "y ~ a + b * x", &FitOptions::default()).unwrap();
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
    fn a_body_without_variables_predicts_every_row() {
        let t = lofar_table();
        let (model, _) =
            fit_table_grouped(&t, "intensity ~ c", "source", &FitOptions::default(), 1).unwrap();
        let pred = predict_table(&model, &t).unwrap();
        let keys = t.column("source").unwrap().i64_data().unwrap();
        for (p, &k) in pred.iter().zip(keys) {
            assert_eq!(p.to_bits(), model.predict_scalar(Some(k), &[]).unwrap().to_bits());
        }
        let global = fit_table(&t, "intensity ~ c", &FitOptions::default()).unwrap();
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
