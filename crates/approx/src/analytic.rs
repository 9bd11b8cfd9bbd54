//! Analytic aggregate solutions for linear models (Section 4.2):
//!
//! > "For the common class of linear models, we can even go one step
//! > further and calculate analytic solutions for aggregation queries.
//! > For example, given a well-fitting linear model we can calculate the
//! > minimum and maximum value for a column."
//!
//! For a single-variable linear model `y = a + b·x` over a known input
//! domain (an interval or an enumerated set), every standard aggregate
//! has a closed form:
//!
//! * monotonicity gives MIN/MAX at the domain endpoints (sign of `b`);
//! * linearity of expectation gives `AVG(y) = a + b·AVG(x)` and
//!   `SUM(y) = n·a + b·SUM(x)`.
//!
//! No tuple is materialized — this is the extreme point of the zero-IO
//! spectrum, O(1) work regardless of data size.

use crate::error::{ApproxError, Result};
use lawsdb_expr::Expr;
use lawsdb_models::CapturedModel;

/// The input domain an analytic aggregate ranges over.
#[derive(Debug, Clone, PartialEq)]
pub enum Domain {
    /// A continuous interval `[lo, hi]` with a known point count
    /// (`count` matters for SUM/COUNT; AVG over an interval uses the
    /// midpoint, the uniform-grid limit).
    Interval {
        /// Lower endpoint.
        lo: f64,
        /// Upper endpoint.
        hi: f64,
        /// Number of (evenly spaced) points the interval stands for.
        count: usize,
    },
    /// An explicit enumerated set of input values.
    Points(Vec<f64>),
}

impl Domain {
    fn count(&self) -> usize {
        match self {
            Domain::Interval { count, .. } => *count,
            Domain::Points(p) => p.len(),
        }
    }

    fn min(&self) -> f64 {
        match self {
            Domain::Interval { lo, .. } => *lo,
            Domain::Points(p) => p.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }

    fn max(&self) -> f64 {
        match self {
            Domain::Interval { hi, .. } => *hi,
            Domain::Points(p) => p.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    fn sum(&self) -> f64 {
        match self {
            // Evenly spaced points over [lo, hi] sum to count·midpoint.
            Domain::Interval { lo, hi, count } => (lo + hi) / 2.0 * *count as f64,
            Domain::Points(p) => p.iter().sum(),
        }
    }

    fn mean(&self) -> f64 {
        match self {
            Domain::Interval { lo, hi, .. } => (lo + hi) / 2.0,
            Domain::Points(p) => {
                if p.is_empty() {
                    f64::NAN
                } else {
                    p.iter().sum::<f64>() / p.len() as f64
                }
            }
        }
    }
}

/// Aggregates with analytic solutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// Row count.
    Count,
    /// Sum of the modeled column.
    Sum,
    /// Mean of the modeled column.
    Avg,
    /// Minimum of the modeled column.
    Min,
    /// Maximum of the modeled column.
    Max,
}

/// Closed-form aggregate of `y = intercept + slope·x` over `domain`.
///
/// Returns the value without evaluating the model at a single point
/// beyond the endpoints.
pub fn linear_aggregate(
    intercept: f64,
    slope: f64,
    domain: &Domain,
    agg: Aggregate,
) -> Result<f64> {
    let n = domain.count();
    if n == 0 {
        return Err(ApproxError::BadInput { detail: "empty domain".to_string() });
    }
    Ok(match agg {
        Aggregate::Count => n as f64,
        Aggregate::Sum => intercept * n as f64 + slope * domain.sum(),
        Aggregate::Avg => intercept + slope * domain.mean(),
        Aggregate::Min => {
            if slope >= 0.0 {
                intercept + slope * domain.min()
            } else {
                intercept + slope * domain.max()
            }
        }
        Aggregate::Max => {
            if slope >= 0.0 {
                intercept + slope * domain.max()
            } else {
                intercept + slope * domain.min()
            }
        }
    })
}

/// Closed-form aggregate over the union of several groups' linear
/// models (each with its own intercept/slope and domain): exact
/// combination rules — counts and sums add, min/max take extrema, and
/// AVG is the count-weighted mean.
pub fn linear_aggregate_groups(
    models: &[(f64, f64, Domain)],
    agg: Aggregate,
) -> Result<f64> {
    if models.is_empty() {
        return Err(ApproxError::BadInput { detail: "no groups".to_string() });
    }
    match agg {
        Aggregate::Count => {
            Ok(models.iter().map(|(_, _, d)| d.count() as f64).sum())
        }
        Aggregate::Sum => {
            let mut s = 0.0;
            for (a, b, d) in models {
                s += linear_aggregate(*a, *b, d, Aggregate::Sum)?;
            }
            Ok(s)
        }
        Aggregate::Avg => {
            let mut s = 0.0;
            let mut n = 0.0;
            for (a, b, d) in models {
                s += linear_aggregate(*a, *b, d, Aggregate::Sum)?;
                n += d.count() as f64;
            }
            Ok(s / n)
        }
        Aggregate::Min => {
            let mut best = f64::INFINITY;
            for (a, b, d) in models {
                best = best.min(linear_aggregate(*a, *b, d, Aggregate::Min)?);
            }
            Ok(best)
        }
        Aggregate::Max => {
            let mut best = f64::NEG_INFINITY;
            for (a, b, d) in models {
                best = best.max(linear_aggregate(*a, *b, d, Aggregate::Max)?);
            }
            Ok(best)
        }
    }
}

/// Closed-form `agg` of a captured model's response over `points` of
/// its one input variable, summed over the group `keys` (ignored for an
/// ungrouped model, whose one vector always answers).
/// Returns the value and the largest residual SE of the groups it
/// spans, or `None` when no closed form applies: the model is not
/// linear in the variable, or no group or no point is admitted (SQL's
/// aggregate over no rows is NULL, which enumeration yields).
pub fn model_aggregate(
    model: &CapturedModel,
    agg: Aggregate,
    points: &[f64],
    keys: &[i64],
) -> Result<Option<(f64, f64)>> {
    let [var] = model.coverage.variables.as_slice() else {
        return Ok(None);
    };
    if points.is_empty() {
        return Ok(None);
    }
    let params = &model.params;
    let rows: Vec<usize> = match params.group_column {
        None => vec![0],
        Some(_) => {
            keys.iter().map(|&k| params.row(Some(k))).collect::<std::result::Result<_, _>>()?
        }
    };
    let mut groups: Vec<(f64, f64, Domain)> = Vec::new();
    for &row in &rows {
        let Some((a, b)) = linearize(&model.rhs, var, params.row_values(row)) else {
            return Ok(None);
        };
        groups.push((a, b, Domain::Points(points.to_vec())));
    }
    let max_se = match params.group_column {
        None => params.residual_se[0],
        Some(_) => rows.iter().map(|&row| params.residual_se[row]).fold(0.0, f64::max),
    };
    if groups.is_empty() {
        return Ok(None);
    }
    Ok(Some((linear_aggregate_groups(&groups, agg)?, max_se)))
}

/// Substitute fitted parameters into the model body and test linearity
/// in `var`: returns `(intercept, slope)` when `f(x) = intercept +
/// slope·x` exactly.
fn linearize<'a>(
    rhs: &Expr,
    var: &str,
    params: impl Iterator<Item = (&'a str, f64)>,
) -> Option<(f64, f64)> {
    let mut bound = rhs.clone();
    for (n, v) in params {
        bound = bound.substitute(n, &Expr::Num(v));
    }
    let d = lawsdb_expr::deriv::differentiate(&bound, var).ok()?;
    let slope = d.as_const()?;
    let at_zero = lawsdb_expr::simplify::simplify(&bound.substitute(var, &Expr::Num(0.0)));
    let intercept = at_zero.as_const()?;
    Some((intercept, slope))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(intercept: f64, slope: f64, xs: &[f64], agg: Aggregate) -> f64 {
        let ys: Vec<f64> = xs.iter().map(|x| intercept + slope * x).collect();
        match agg {
            Aggregate::Count => ys.len() as f64,
            Aggregate::Sum => ys.iter().sum(),
            Aggregate::Avg => ys.iter().sum::<f64>() / ys.len() as f64,
            Aggregate::Min => ys.iter().copied().fold(f64::INFINITY, f64::min),
            Aggregate::Max => ys.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    #[test]
    fn points_domain_matches_brute_force() {
        let xs = vec![0.12, 0.15, 0.16, 0.18];
        let d = Domain::Points(xs.clone());
        for agg in [Aggregate::Count, Aggregate::Sum, Aggregate::Avg, Aggregate::Min, Aggregate::Max]
        {
            let analytic = linear_aggregate(2.0, -3.0, &d, agg).unwrap();
            let expect = brute(2.0, -3.0, &xs, agg);
            assert!((analytic - expect).abs() < 1e-12, "{agg:?}: {analytic} vs {expect}");
        }
    }

    #[test]
    fn negative_slope_swaps_min_max_endpoints() {
        let d = Domain::Interval { lo: 0.0, hi: 10.0, count: 11 };
        // y = 5 − x: min at x=10, max at x=0.
        assert_eq!(linear_aggregate(5.0, -1.0, &d, Aggregate::Min).unwrap(), -5.0);
        assert_eq!(linear_aggregate(5.0, -1.0, &d, Aggregate::Max).unwrap(), 5.0);
        // y = 5 + x: the other way round.
        assert_eq!(linear_aggregate(5.0, 1.0, &d, Aggregate::Min).unwrap(), 5.0);
        assert_eq!(linear_aggregate(5.0, 1.0, &d, Aggregate::Max).unwrap(), 15.0);
    }

    #[test]
    fn interval_matches_evenly_spaced_points() {
        let n = 101;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64 * 4.0).collect();
        let d = Domain::Interval { lo: 0.0, hi: 4.0, count: n };
        for agg in [Aggregate::Sum, Aggregate::Avg] {
            let analytic = linear_aggregate(1.0, 2.5, &d, agg).unwrap();
            let expect = brute(1.0, 2.5, &xs, agg);
            assert!((analytic - expect).abs() < 1e-9, "{agg:?}");
        }
    }

    #[test]
    fn group_combination_rules() {
        let groups = vec![
            (1.0, 2.0, Domain::Points(vec![0.0, 1.0])),  // y ∈ {1, 3}
            (10.0, -1.0, Domain::Points(vec![0.0, 5.0])), // y ∈ {10, 5}
        ];
        assert_eq!(linear_aggregate_groups(&groups, Aggregate::Count).unwrap(), 4.0);
        assert_eq!(linear_aggregate_groups(&groups, Aggregate::Sum).unwrap(), 19.0);
        assert!((linear_aggregate_groups(&groups, Aggregate::Avg).unwrap() - 4.75).abs() < 1e-12);
        assert_eq!(linear_aggregate_groups(&groups, Aggregate::Min).unwrap(), 1.0);
        assert_eq!(linear_aggregate_groups(&groups, Aggregate::Max).unwrap(), 10.0);
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(linear_aggregate(0.0, 1.0, &Domain::Points(vec![]), Aggregate::Sum).is_err());
        assert!(linear_aggregate_groups(&[], Aggregate::Sum).is_err());
    }
}
