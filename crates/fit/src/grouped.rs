//! Grouped fitting: one model fit per group key.
//!
//! The LOFAR example fits `I = p·ν^α` *per source* — 35,692 independent
//! two-parameter fits — and the paper's Table 1 is the resulting
//! parameter table (source, α, p, residual SE). This module groups rows
//! by an integer key column and fits every group (in parallel across OS
//! threads), returning each group's outcome in key order. The table
//! itself is the captured model's parameters (`lawsdb-models`), built
//! from the successful fits.

use crate::data::DataSet;
use crate::error::{FitError, Result};
use crate::options::FitOptions;
use crate::plan::FitPlan;
use crate::FitResult;
use lawsdb_expr::Formula;
use std::borrow::Cow;
use std::ops::Range;

/// Outcome for one group.
#[derive(Debug, Clone)]
pub struct GroupFit {
    /// Group key value.
    pub key: i64,
    /// Rows in this group.
    pub rows: usize,
    /// The fit, or why it failed (groups with too few observations are
    /// the common case — the paper keeps them in the raw store).
    pub outcome: std::result::Result<FitResult, FitError>,
}

/// All per-group fits, in key order.
#[derive(Debug, Clone)]
pub struct GroupedFitResult {
    /// Parameter names in output order (sorted).
    pub param_names: Vec<String>,
    /// Per-group outcomes, ordered by key.
    pub fits: Vec<GroupFit>,
}

impl GroupedFitResult {
    /// Number of groups whose fit succeeded.
    pub fn success_count(&self) -> usize {
        self.fits.iter().filter(|g| g.outcome.is_ok()).count()
    }

    /// Number of groups whose fit failed.
    pub fn failure_count(&self) -> usize {
        self.fits.len() - self.success_count()
    }

    /// Optimizer iterations, summed over the groups whose fit succeeded.
    pub fn iterations(&self) -> usize {
        self.fits.iter().filter_map(|g| g.outcome.as_ref().ok()).map(|f| f.iterations).sum()
    }
}

/// Fit `formula` independently within each group of `group_keys`.
///
/// `group_keys` must have one entry per data row. `threads` caps the
/// worker count (1 = sequential; grouped fitting is embarrassingly
/// parallel, so the default of available parallelism is usually right).
///
/// One fit plan serves every group. The rows are stable-sorted by key
/// once, so each group is one contiguous run of rows in table order,
/// and each column the plan reads is gathered once in that order (not
/// at all when the keys are already sorted). A group's fit therefore
/// reads its own rows in table order and nothing else, whatever the
/// other groups and the thread count.
pub fn fit_grouped(
    formula: &Formula,
    group_keys: &[i64],
    data: &DataSet<'_>,
    options: &FitOptions,
    threads: usize,
) -> Result<GroupedFitResult> {
    if group_keys.len() != data.rows() {
        return Err(FitError::BadData {
            detail: format!(
                "group key column has {} rows, data has {}",
                group_keys.len(),
                data.rows()
            ),
        });
    }
    let plan = FitPlan::new(formula, &data.names(), options)?;
    let cols: Vec<&[f64]> =
        plan.columns().iter().map(|c| data.column(c)).collect::<Result<_>>()?;

    let (keys, cols): (Cow<[i64]>, Vec<Cow<[f64]>>) = if group_keys.is_sorted() {
        (Cow::Borrowed(group_keys), cols.into_iter().map(Cow::Borrowed).collect())
    } else {
        let mut order: Vec<usize> = (0..group_keys.len()).collect();
        order.sort_by_key(|&r| group_keys[r]);
        let gather = |c: &[f64]| Cow::Owned(order.iter().map(|&r| c[r]).collect());
        let keys = order.iter().map(|&r| group_keys[r]).collect();
        (Cow::Owned(keys), cols.iter().map(|c| gather(c)).collect())
    };
    let groups: Vec<(i64, Range<usize>)> = keys
        .chunk_by(|a, b| a == b)
        .scan(0, |start, run| {
            let rows = *start..*start + run.len();
            *start = rows.end;
            Some((run[0], rows))
        })
        .collect();

    let threads = threads.max(1).min(groups.len().max(1));
    let fit_one = |(key, rows): &(i64, Range<usize>)| -> GroupFit {
        let slices: Vec<&[f64]> = cols.iter().map(|c| &c[rows.clone()]).collect();
        GroupFit { key: *key, rows: rows.len(), outcome: plan.fit_columns(&slices) }
    };

    let fits: Vec<GroupFit> = if threads == 1 {
        groups.iter().map(fit_one).collect()
    } else {
        // Static chunking over sorted keys; groups are similar in size
        // in the workloads we target, so work stays balanced.
        let chunk = groups.len().div_ceil(threads);
        let mut out: Vec<Vec<GroupFit>> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = groups
                .chunks(chunk)
                .map(|gs| s.spawn(|| gs.iter().map(fit_one).collect::<Vec<_>>()))
                .collect();
            for h in handles {
                out.push(h.join().expect("fit worker panicked"));
            }
        });
        out.into_iter().flatten().collect()
    };

    Ok(GroupedFitResult { param_names: plan.param_names().to_vec(), fits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_expr::parse_formula;

    /// The fit of group `key`, read from the key-ordered outcomes.
    fn fit_of(r: &GroupedFitResult, key: i64) -> &std::result::Result<FitResult, FitError> {
        &r.fits[r.fits.binary_search_by_key(&key, |g| g.key).unwrap()].outcome
    }

    /// Three sources with distinct power laws + one tiny group.
    fn dataset() -> (Vec<i64>, Vec<f64>, Vec<f64>) {
        let laws = [(2.0, -0.7), (0.5, -1.2), (1.0, 0.3)];
        let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
        let mut keys = Vec::new();
        let mut nu = Vec::new();
        let mut y = Vec::new();
        for (src, &(p, a)) in laws.iter().enumerate() {
            for i in 0..40 {
                let f = freqs[i % 4];
                keys.push(src as i64);
                nu.push(f);
                y.push(p * f.powf(a));
            }
        }
        // Group 99 has one observation — cannot fit two parameters.
        keys.push(99);
        nu.push(0.15);
        y.push(1.0);
        (keys, nu, y)
    }

    #[test]
    fn fits_each_group_independently() {
        let (keys, nu, y) = dataset();
        let f = parse_formula("y ~ p * nu ^ alpha").unwrap();
        let data = DataSet::new(vec![("nu", &nu[..]), ("y", &y[..])]).unwrap();
        let r = fit_grouped(&f, &keys, &data, &FitOptions::default(), 1).unwrap();
        assert_eq!(r.fits.len(), 4);
        assert_eq!(r.success_count(), 3);
        assert_eq!(r.failure_count(), 1);
        let g0 = fit_of(&r, 0).as_ref().unwrap();
        assert!((g0.param("alpha").unwrap() + 0.7).abs() < 1e-6);
        let g1 = fit_of(&r, 1).as_ref().unwrap();
        assert!((g1.param("alpha").unwrap() + 1.2).abs() < 1e-6);
        let g2 = fit_of(&r, 2).as_ref().unwrap();
        assert!((g2.param("alpha").unwrap() - 0.3).abs() < 1e-6);
        assert!(matches!(fit_of(&r, 99), Err(FitError::TooFewObservations { .. })));
        let fits = r.fits.iter().filter_map(|g| g.outcome.as_ref().ok());
        assert!(fits.clone().all(|f| f.diagnostics.r2 > 0.999999));
        let fitted_rows: usize = r.fits.iter().filter(|g| g.outcome.is_ok()).map(|g| g.rows).sum();
        assert_eq!(fitted_rows, 120);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (keys, nu, y) = dataset();
        let f = parse_formula("y ~ p * nu ^ alpha").unwrap();
        let data = DataSet::new(vec![("nu", &nu[..]), ("y", &y[..])]).unwrap();
        let seq = fit_grouped(&f, &keys, &data, &FitOptions::default(), 1).unwrap();
        let par = fit_grouped(&f, &keys, &data, &FitOptions::default(), 4).unwrap();
        assert_eq!(seq.fits.len(), par.fits.len());
        for (a, b) in seq.fits.iter().zip(&par.fits) {
            assert_eq!(a.key, b.key);
            match (&a.outcome, &b.outcome) {
                (Ok(x), Ok(y)) => {
                    for ((_, xv), (_, yv)) in x.params.iter().zip(&y.params) {
                        assert_eq!(xv.to_bits(), yv.to_bits());
                    }
                    assert_eq!(x.diagnostics.rss.to_bits(), y.diagnostics.rss.to_bits());
                }
                (Err(_), Err(_)) => {}
                other => panic!("outcome mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn outcomes_come_in_key_order_with_every_parameter() {
        let (keys, nu, y) = dataset();
        let f = parse_formula("y ~ p * nu ^ alpha").unwrap();
        let data = DataSet::new(vec![("nu", &nu[..]), ("y", &y[..])]).unwrap();
        let r = fit_grouped(&f, &keys, &data, &FitOptions::default(), 1).unwrap();
        // (source, [alpha, p], residual SE) per fitted source.
        assert_eq!(r.param_names, vec!["alpha", "p"]);
        assert_eq!(r.fits.iter().map(|g| g.key).collect::<Vec<_>>(), [0, 1, 2, 99]);
        for g in r.fits.iter().filter_map(|g| g.outcome.as_ref().ok()) {
            assert!(r.param_names.iter().all(|p| g.param(p).is_some()));
        }
    }

    #[test]
    fn the_anomalous_group_has_the_largest_residual_se() {
        // Two clean power-law groups, one group that is pure noise.
        let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
        let mut keys = Vec::new();
        let mut nu = Vec::new();
        let mut y = Vec::new();
        for src in 0..2i64 {
            for i in 0..40 {
                keys.push(src);
                nu.push(freqs[i % 4]);
                y.push(2.0 * freqs[i % 4].powf(-0.7));
            }
        }
        for i in 0..40 {
            keys.push(7);
            nu.push(freqs[i % 4]);
            // Signal unrelated to frequency.
            y.push(((i * 2654435761usize % 1000) as f64 / 100.0) - 5.0);
        }
        let f = parse_formula("y ~ p * nu ^ alpha").unwrap();
        let data = DataSet::new(vec![("nu", &nu[..]), ("y", &y[..])]).unwrap();
        let r = fit_grouped(&f, &keys, &data, &FitOptions::default(), 2).unwrap();
        let se = |key| fit_of(&r, key).as_ref().unwrap().diagnostics.residual_se;
        assert!(se(7) > 10.0 * se(0).max(se(1)).max(1e-12), "noise group must misfit most");
    }

    #[test]
    fn key_length_mismatch_rejected() {
        let f = parse_formula("y ~ a + b * x").unwrap();
        let xs = [1.0, 2.0];
        let ys = [1.0, 2.0];
        let data = DataSet::new(vec![("x", &xs[..]), ("y", &ys[..])]).unwrap();
        assert!(matches!(
            fit_grouped(&f, &[1], &data, &FitOptions::default(), 1),
            Err(FitError::BadData { .. })
        ));
    }

    #[test]
    fn grouped_linear_model_uses_analytic_path() {
        let keys = vec![0, 0, 0, 1, 1, 1];
        let xs = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0];
        let ys = [2.0, 4.0, 6.0, 5.0, 8.0, 11.0];
        let f = parse_formula("y ~ a + b * x").unwrap();
        let data = DataSet::new(vec![("x", &xs[..]), ("y", &ys[..])]).unwrap();
        let r = fit_grouped(&f, &keys, &data, &FitOptions::default(), 1).unwrap();
        let g0 = fit_of(&r, 0).as_ref().unwrap();
        assert!(g0.used_linear_path);
        assert!((g0.param("b").unwrap() - 2.0).abs() < 1e-10);
        let g1 = fit_of(&r, 1).as_ref().unwrap();
        assert!((g1.param("b").unwrap() - 3.0).abs() < 1e-10);
        assert!((g1.param("a").unwrap() - 2.0).abs() < 1e-10);
    }
}
