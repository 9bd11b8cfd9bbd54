//! Rule-based plan optimization.
//!
//! Three rules, applied in order:
//!
//! 1. **Constant folding** — predicates and projection expressions fold
//!    constant subtrees (`x > 1 + 2` → `x > 3`).
//! 2. **Projection pruning** — every scan is narrowed to the columns the
//!    plan actually references, so the executor touches only those
//!    columns.
//! 3. **Trivial-limit elision** — nested limits fold to the tighter
//!    bound, and `LIMIT 0` collapses every scan beneath it to an
//!    [`LogicalPlan::EmptyScan`] of the same shape: the schema survives
//!    (so the result's columns are unchanged) but the executor performs
//!    zero IO and charges no scan budget.

use crate::plan::{AggSpec, LogicalPlan};
use crate::sql::SelectItem;

/// Optimize a plan.
pub fn optimize(plan: &LogicalPlan) -> LogicalPlan {
    let folded = fold_constants(plan);
    let needed = folded.referenced_columns();
    let star = plan_has_star(&folded);
    prune_scans(&folded, &needed, star)
}

fn plan_has_star(plan: &LogicalPlan) -> bool {
    match plan {
        // A bare scan pipeline (SELECT *) or an explicit star projection
        // must materialize every column.
        LogicalPlan::Scan { .. } | LogicalPlan::EmptyScan { .. } | LogicalPlan::ModelScan(_) => {
            true
        }
        LogicalPlan::Project { star, .. } => *star,
        LogicalPlan::Join { .. } => true,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::Limit { input, .. } => plan_has_star(input),
        LogicalPlan::Aggregate { .. } => false,
    }
}

fn fold_constants(plan: &LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(fold_constants(input)),
            predicate: predicate.fold_constants(),
        },
        LogicalPlan::Aggregate { input, group_by, aggs } => LogicalPlan::Aggregate {
            input: Box::new(fold_constants(input)),
            group_by: group_by.clone(),
            aggs: aggs
                .iter()
                .map(|a| AggSpec {
                    func: a.func,
                    arg: a.arg.as_ref().map(|e| e.fold_constants()),
                    name: a.name.clone(),
                })
                .collect(),
        },
        LogicalPlan::Project { input, exprs, star } => LogicalPlan::Project {
            input: Box::new(fold_constants(input)),
            exprs: exprs.iter().map(|(e, n)| (e.fold_constants(), n.clone())).collect(),
            star: *star,
        },
        LogicalPlan::Limit { input, n } => {
            // Fold nested limits to the tighter bound.
            let inner = fold_constants(input);
            let (inner, n) = if let LogicalPlan::Limit { input: inner2, n: n2 } = inner {
                (*inner2, (*n).min(n2))
            } else {
                (inner, *n)
            };
            // LIMIT 0 can produce no rows: keep the plan shape (an
            // aggregate below would still emit its one global row for
            // the limit to drop) but turn every scan into an EmptyScan
            // so the executor does zero IO.
            let inner = if n == 0 { empty_scans(&inner) } else { inner };
            LogicalPlan::Limit { input: Box::new(inner), n }
        }
        other => other.map_inputs(fold_constants),
    }
}

/// Replace every `Scan` in the subtree with an `EmptyScan` of the same
/// table and projection (the `LIMIT 0` rewrite).
fn empty_scans(plan: &LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { table, projection } => LogicalPlan::EmptyScan {
            table: table.clone(),
            projection: projection.clone(),
        },
        other => other.map_inputs(empty_scans),
    }
}

fn prune_scans(plan: &LogicalPlan, needed: &[String], star: bool) -> LogicalPlan {
    // Keep only needed columns that plausibly belong to the scanned
    // table (plain names, or `table.col` qualified names). An EmptyScan
    // reads nothing, but narrowing keeps its schema identical to the
    // scan it replaced.
    let narrow = |table: &str, projection: &Option<Vec<String>>| {
        if star {
            return projection.clone();
        }
        let cols: Vec<String> = needed
            .iter()
            .filter_map(|n| match n.split_once('.') {
                Some((t, c)) if t == table => Some(c.to_string()),
                Some(_) => None,
                None => Some(n.clone()),
            })
            .collect();
        if cols.is_empty() { None } else { Some(cols) }
    };
    match plan {
        LogicalPlan::Scan { table, projection } => {
            LogicalPlan::Scan { table: table.clone(), projection: narrow(table, projection) }
        }
        LogicalPlan::EmptyScan { table, projection } => {
            LogicalPlan::EmptyScan { table: table.clone(), projection: narrow(table, projection) }
        }
        other => other.map_inputs(|input| prune_scans(input, needed, star)),
    }
}

/// Used by tests and EXPLAIN consumers: whether any `SELECT *` forces
/// full-width scans.
pub fn is_star_query(items: &[SelectItem]) -> bool {
    items.iter().any(|i| matches!(i, SelectItem::Star))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::LogicalPlan;
    use crate::sql::parse_select;

    fn plan(sql: &str) -> LogicalPlan {
        optimize(&LogicalPlan::from_statement(&parse_select(sql).unwrap()).unwrap())
    }

    fn find_scan(p: &LogicalPlan) -> &LogicalPlan {
        match p {
            LogicalPlan::Scan { .. } | LogicalPlan::EmptyScan { .. } | LogicalPlan::ModelScan(_) => p,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Limit { input, .. } => find_scan(input),
            LogicalPlan::Join { left, .. } => find_scan(left),
        }
    }

    #[test]
    fn projection_is_pruned_to_referenced_columns() {
        let p = plan("SELECT intensity FROM m WHERE source = 1");
        match find_scan(&p) {
            LogicalPlan::Scan { projection: Some(cols), .. } => {
                assert_eq!(cols.clone(), vec!["intensity", "source"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn star_query_keeps_full_scan() {
        let p = plan("SELECT * FROM m WHERE source = 1");
        match find_scan(&p) {
            LogicalPlan::Scan { projection: None, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn predicate_constants_fold() {
        let p = plan("SELECT a FROM m WHERE a > 1 + 2");
        fn find_filter(p: &LogicalPlan) -> Option<&crate::sexpr::ScalarExpr> {
            match p {
                LogicalPlan::Filter { predicate, .. } => Some(predicate),
                LogicalPlan::Project { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. }
                | LogicalPlan::Aggregate { input, .. } => find_filter(input),
                _ => None,
            }
        }
        assert_eq!(find_filter(&p).unwrap().to_string(), "(a > 3)");
    }

    #[test]
    fn nested_arithmetic_constants_fold_to_one_literal() {
        let p = plan("SELECT a FROM m WHERE a > (1 + 2) * 3 - 4");
        fn find_filter(p: &LogicalPlan) -> Option<&crate::sexpr::ScalarExpr> {
            match p {
                LogicalPlan::Filter { predicate, .. } => Some(predicate),
                LogicalPlan::Project { input, .. }
                | LogicalPlan::Sort { input, .. }
                | LogicalPlan::Limit { input, .. }
                | LogicalPlan::Aggregate { input, .. } => find_filter(input),
                _ => None,
            }
        }
        assert_eq!(find_filter(&p).unwrap().to_string(), "(a > 5)");
    }

    #[test]
    fn filter_column_dropped_by_projection_still_scanned() {
        // `b` appears only in the WHERE clause; the scan must still
        // materialize it for the filter even though the projection
        // discards it.
        let p = plan("SELECT a FROM t WHERE b > 1");
        match find_scan(&p) {
            LogicalPlan::Scan { projection: Some(cols), .. } => {
                assert_eq!(cols.clone(), vec!["a", "b"]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn explain_surfaces_pruning_predicate_after_optimization() {
        // Folding happens first, so the pruning line shows the folded
        // literal — the same rhs the executor checks against zone maps.
        let p = plan("SELECT a FROM t WHERE b > 1 + 2 AND a < 10 OR a > 99");
        let text = p.explain();
        assert!(
            !text.contains("Pruning"),
            "top-level OR is not sargable, got:\n{text}"
        );
        let p = plan("SELECT a FROM t WHERE b > 1 + 2 AND a < 10");
        let text = p.explain();
        assert!(
            text.contains("Pruning [b > 3 AND a < 10] (exact)"),
            "expected folded pruning line, got:\n{text}"
        );
    }

    #[test]
    fn nested_limits_fold_to_tighter() {
        let inner = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Limit {
                input: Box::new(LogicalPlan::Scan { table: "t".into(), projection: None }),
                n: 5,
            }),
            n: 10,
        };
        match optimize(&inner) {
            LogicalPlan::Limit { n, .. } => assert_eq!(n, 5),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn limit_zero_collapses_scans_to_empty() {
        let p = plan("SELECT a FROM t WHERE b > 1 LIMIT 0");
        match find_scan(&p) {
            LogicalPlan::EmptyScan { table, projection } => {
                assert_eq!(table, "t");
                // Projection pruning still ran before the collapse.
                assert_eq!(projection.clone().unwrap(), vec!["a", "b"]);
            }
            other => panic!("expected EmptyScan, got {other:?}"),
        }
        // The limit node survives (an aggregate below would still emit
        // its one global row for the limit to drop).
        assert!(matches!(p, LogicalPlan::Limit { n: 0, .. }));
    }

    #[test]
    fn limit_zero_from_nested_limits_also_collapses() {
        let inner = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Limit {
                input: Box::new(LogicalPlan::Scan { table: "t".into(), projection: None }),
                n: 0,
            }),
            n: 10,
        };
        let p = optimize(&inner);
        assert!(matches!(p, LogicalPlan::Limit { n: 0, .. }));
        assert!(matches!(find_scan(&p), LogicalPlan::EmptyScan { .. }));
    }

    #[test]
    fn nonzero_limit_keeps_real_scans() {
        let p = plan("SELECT a FROM t LIMIT 3");
        assert!(matches!(find_scan(&p), LogicalPlan::Scan { .. }));
    }

    #[test]
    fn aggregate_scan_pruned_to_group_and_arg_columns() {
        let p = plan("SELECT source, AVG(intensity) FROM m GROUP BY source");
        match find_scan(&p) {
            LogicalPlan::Scan { projection: Some(cols), .. } => {
                assert_eq!(cols.clone(), vec!["intensity", "source"]);
            }
            other => panic!("{other:?}"),
        }
    }
}
