//! Logical query plans.

use crate::error::{QueryError, Result};
use crate::model_scan::ModelScan;
use crate::sexpr::ScalarExpr;
use crate::sql::{AggFunc, OrderBy, SelectItem, SelectStatement};
use std::sync::Arc;

/// One aggregate output: function, argument (None = `COUNT(*)`), output
/// column name.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Aggregate function.
    pub func: AggFunc,
    /// Argument expression (`None` means `*`).
    pub arg: Option<ScalarExpr>,
    /// Output column name.
    pub name: String,
}

/// A logical plan node. The tree shape is the textbook pipeline:
/// `Scan → [Join] → [Filter] → [Aggregate | Project] → [Sort] → [Limit]`.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base-table scan. `projection = None` reads every column;
    /// the optimizer narrows it to the referenced set.
    Scan {
        /// Table name.
        table: String,
        /// Columns to materialize, or `None` for all.
        projection: Option<Vec<String>>,
    },
    /// A scan statically known to produce no rows (`LIMIT 0` elision):
    /// same schema as the base table, but the executor performs no IO
    /// and charges no budget for it.
    EmptyScan {
        /// Table name (kept for schema resolution).
        table: String,
        /// Columns to materialize, or `None` for all.
        projection: Option<Vec<String>>,
    },
    /// A scan answered from a captured model: the leaf enumerates the
    /// model's parameter space where a `Scan` would read base rows
    /// (see [`crate::model_scan`]).
    ModelScan(Arc<ModelScan>),
    /// Inner hash equi-join.
    Join {
        /// Left (FROM) input.
        left: Box<LogicalPlan>,
        /// Right (JOIN) input.
        right: Box<LogicalPlan>,
        /// Key column on the left input.
        left_col: String,
        /// Key column on the right input.
        right_col: String,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Predicate (SQL three-valued: keep only TRUE rows).
        predicate: ScalarExpr,
    },
    /// Hash aggregation; with `group_by` empty, one output row.
    Aggregate {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Grouping columns.
        group_by: Vec<String>,
        /// Aggregates to compute.
        aggs: Vec<AggSpec>,
    },
    /// Projection of scalar expressions. `star` keeps all input
    /// columns (then appends the explicit expressions, if any).
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// `(expression, output name)` pairs.
        exprs: Vec<(ScalarExpr, String)>,
        /// `SELECT *`?
        star: bool,
    },
    /// Duplicate elimination over the input's full row.
    Distinct {
        /// Input plan.
        input: Box<LogicalPlan>,
    },
    /// Sort by one or more keys.
    Sort {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Sort keys in priority order.
        keys: Vec<OrderBy>,
    },
    /// Keep only the first `n` rows.
    Limit {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Row cap.
        n: usize,
    },
}

impl LogicalPlan {
    /// Build a plan from a parsed statement.
    pub fn from_statement(stmt: &SelectStatement) -> Result<LogicalPlan> {
        let mut plan = LogicalPlan::Scan { table: stmt.table.clone(), projection: None };
        if let Some(join) = &stmt.join {
            plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(LogicalPlan::Scan {
                    table: join.table.clone(),
                    projection: None,
                }),
                left_col: join.left_col.clone(),
                right_col: join.right_col.clone(),
            };
        }
        if let Some(pred) = &stmt.predicate {
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate: pred.clone() };
        }

        let has_agg = stmt.items.iter().any(|i| matches!(i, SelectItem::Agg { .. }));
        if has_agg || !stmt.group_by.is_empty() {
            let mut aggs = Vec::new();
            // The SELECT list over the aggregate's output, which holds
            // the group columns, then the aggregates.
            let mut outputs = Vec::new();
            for item in &stmt.items {
                match item {
                    SelectItem::Agg { func, arg, .. } => {
                        let name = item.output_name();
                        outputs.push((ScalarExpr::Column(name.clone()), name.clone()));
                        aggs.push(AggSpec { func: *func, arg: arg.clone(), name });
                    }
                    SelectItem::Expr { expr, .. } => {
                        // Bare expressions must be grouping columns.
                        match expr {
                            ScalarExpr::Column(c) if stmt.group_by.contains(c) => {
                                outputs.push((expr.clone(), item.output_name()));
                            }
                            other => {
                                return Err(QueryError::InvalidAggregate {
                                    reason: format!(
                                        "{other} is neither aggregated nor in GROUP BY"
                                    ),
                                })
                            }
                        }
                    }
                    SelectItem::Star => {
                        return Err(QueryError::InvalidAggregate {
                            reason: "SELECT * cannot be combined with aggregates".to_string(),
                        })
                    }
                }
            }
            let natural = stmt.group_by.iter().chain(aggs.iter().map(|a| &a.name));
            let in_order = outputs.len() == stmt.group_by.len() + aggs.len()
                && outputs.iter().zip(natural).all(|((e, name), n)| {
                    name == n && matches!(e, ScalarExpr::Column(c) if c == n)
                });
            plan = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group_by: stmt.group_by.clone(),
                aggs,
            };
            // Columns come in SELECT-list order: a list that is not the
            // group columns, then the aggregates, is projected.
            if !in_order {
                plan = LogicalPlan::Project { input: Box::new(plan), exprs: outputs, star: false };
            }
        } else {
            let star = stmt.items.iter().any(|i| matches!(i, SelectItem::Star));
            let mut exprs = Vec::new();
            for item in &stmt.items {
                if let SelectItem::Expr { expr, .. } = item {
                    exprs.push((expr.clone(), item.output_name()));
                }
            }
            if !(star && exprs.is_empty()) {
                plan = LogicalPlan::Project { input: Box::new(plan), exprs, star };
            }
        }

        if stmt.distinct {
            plan = LogicalPlan::Distinct { input: Box::new(plan) };
        }
        if !stmt.order_by.is_empty() {
            plan = LogicalPlan::Sort { input: Box::new(plan), keys: stmt.order_by.clone() };
        }
        if let Some(n) = stmt.limit {
            plan = LogicalPlan::Limit { input: Box::new(plan), n };
        }
        Ok(plan)
    }

    /// All column names this plan references above its scans (used by
    /// projection pruning).
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            LogicalPlan::Join { left_col, right_col, .. } => {
                out.push(left_col.clone());
                out.push(right_col.clone());
            }
            LogicalPlan::Filter { predicate, .. } => out.extend(predicate.columns()),
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                out.extend(group_by.iter().cloned());
                out.extend(aggs.iter().filter_map(|a| a.arg.as_ref()).flat_map(|e| e.columns()));
            }
            LogicalPlan::Project { exprs, .. } => {
                out.extend(exprs.iter().flat_map(|(e, _)| e.columns()));
            }
            LogicalPlan::Sort { keys, .. } => out.extend(keys.iter().map(|k| k.column.clone())),
            LogicalPlan::Scan { .. }
            | LogicalPlan::EmptyScan { .. }
            | LogicalPlan::ModelScan(_)
            | LogicalPlan::Distinct { .. }
            | LogicalPlan::Limit { .. } => {}
        }
        for input in self.inputs() {
            input.collect_columns(out);
        }
    }

    /// This node's inputs in EXPLAIN (preorder) order.
    pub fn inputs(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::EmptyScan { .. } | LogicalPlan::ModelScan(_) => {
                Vec::new()
            }
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Distinct { input }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. } => vec![input],
        }
    }

    /// This node with each input replaced by `f(input)`: the one place
    /// a rewrite that only cares about some nodes recurses through the
    /// rest.
    pub fn map_inputs(&self, mut f: impl FnMut(&LogicalPlan) -> LogicalPlan) -> LogicalPlan {
        let mut map = |input: &LogicalPlan| Box::new(f(input));
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::EmptyScan { .. } | LogicalPlan::ModelScan(_) => {
                self.clone()
            }
            LogicalPlan::Join { left, right, left_col, right_col } => LogicalPlan::Join {
                left: map(left),
                right: map(right),
                left_col: left_col.clone(),
                right_col: right_col.clone(),
            },
            LogicalPlan::Filter { input, predicate } => {
                LogicalPlan::Filter { input: map(input), predicate: predicate.clone() }
            }
            LogicalPlan::Aggregate { input, group_by, aggs } => LogicalPlan::Aggregate {
                input: map(input),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            LogicalPlan::Project { input, exprs, star } => {
                LogicalPlan::Project { input: map(input), exprs: exprs.clone(), star: *star }
            }
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct { input: map(input) },
            LogicalPlan::Sort { input, keys } => {
                LogicalPlan::Sort { input: map(input), keys: keys.clone() }
            }
            LogicalPlan::Limit { input, n } => LogicalPlan::Limit { input: map(input), n: *n },
        }
    }

    /// Pretty-print the plan tree (EXPLAIN-style, one node per line).
    pub fn explain(&self) -> String {
        self.explain_annotated(None)
    }

    /// The one EXPLAIN renderer. `annotate`, when given, is asked once
    /// per node — by preorder index — for two suffixes: one for the
    /// node's own line and one for the `Pruning` line a filter over a
    /// scan emits. Suffixes are appended, never restructure a line:
    /// consumers index EXPLAIN output by line.
    pub fn explain_annotated(
        &self,
        annotate: Option<&dyn Fn(usize) -> (String, String)>,
    ) -> String {
        let mut s = String::new();
        self.explain_into(&mut s, 0, &mut 0, annotate);
        s
    }

    fn explain_into(
        &self,
        out: &mut String,
        depth: usize,
        next: &mut usize,
        annotate: Option<&dyn Fn(usize) -> (String, String)>,
    ) {
        let pad = "  ".repeat(depth);
        let (ann, pruning_ann) = annotate.map(|f| f(*next)).unwrap_or_default();
        *next += 1;
        let scan_cols = |projection: &Option<Vec<String>>| match projection {
            None => "*".to_string(),
            Some(cols) => cols.join(", "),
        };
        let head = match self {
            LogicalPlan::Scan { table, projection } => {
                format!("Scan {table} [{}]", scan_cols(projection))
            }
            LogicalPlan::EmptyScan { table, projection } => {
                format!("EmptyScan {table} [{}]", scan_cols(projection))
            }
            LogicalPlan::ModelScan(m) => m.describe(),
            LogicalPlan::Join { left_col, right_col, .. } => {
                format!("Join on {left_col} = {right_col}")
            }
            LogicalPlan::Filter { predicate, .. } => format!("Filter {predicate}"),
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                let aggs: Vec<&str> = aggs.iter().map(|a| a.name.as_str()).collect();
                format!("Aggregate group_by=[{}] aggs=[{}]", group_by.join(", "), aggs.join(", "))
            }
            LogicalPlan::Project { exprs, star, .. } => {
                let mut items: Vec<String> = Vec::new();
                if *star {
                    items.push("*".to_string());
                }
                items.extend(exprs.iter().map(|(e, n)| format!("{e} AS {n}")));
                format!("Project [{}]", items.join(", "))
            }
            LogicalPlan::Sort { keys, .. } => {
                let keys: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{}{}", k.column, if k.desc { " DESC" } else { "" }))
                    .collect();
                format!("Sort [{}]", keys.join(", "))
            }
            LogicalPlan::Distinct { .. } => "Distinct".to_string(),
            LogicalPlan::Limit { n, .. } => format!("Limit {n}"),
        };
        out.push_str(&format!("{pad}{head}{ann}\n"));
        // Surface what the executor will be able to prune: the sargable
        // conjuncts a scan below this filter checks against zone maps
        // before any IO.
        if let LogicalPlan::Filter { input, predicate } = self {
            if matches!(&**input, LogicalPlan::Scan { .. }) {
                if let Some(p) = crate::pruning::PruningPredicate::extract(predicate) {
                    out.push_str(&format!(
                        "{pad}  Pruning [{}]{}{pruning_ann}\n",
                        p.describe(),
                        if p.exact { " (exact)" } else { "" }
                    ));
                }
            }
        }
        for input in self.inputs() {
            input.explain_into(out, depth + 1, next, annotate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse_select;

    #[test]
    fn plan_shape_for_full_query() {
        let stmt = parse_select(
            "SELECT source, AVG(intensity) FROM m WHERE nu = 0.14 \
             GROUP BY source ORDER BY source LIMIT 5",
        )
        .unwrap();
        let plan = LogicalPlan::from_statement(&stmt).unwrap();
        let text = plan.explain();
        let lines: Vec<&str> = text.lines().map(|l| l.trim_start()).collect();
        assert!(lines[0].starts_with("Limit"));
        assert!(lines[1].starts_with("Sort"));
        assert!(lines[2].starts_with("Aggregate"));
        assert!(lines[3].starts_with("Filter"));
        assert!(lines[4].starts_with("Pruning [nu = 0.14] (exact)"));
        assert!(lines[5].starts_with("Scan"));
    }

    #[test]
    fn bare_column_outside_group_by_rejected() {
        let stmt = parse_select("SELECT intensity, COUNT(*) FROM m GROUP BY source").unwrap();
        assert!(matches!(
            LogicalPlan::from_statement(&stmt),
            Err(QueryError::InvalidAggregate { .. })
        ));
    }

    #[test]
    fn star_with_aggregate_rejected() {
        let stmt = parse_select("SELECT *, COUNT(*) FROM m").unwrap();
        assert!(LogicalPlan::from_statement(&stmt).is_err());
    }

    #[test]
    fn referenced_columns_cover_all_clauses() {
        let stmt = parse_select(
            "SELECT a + b AS s FROM t WHERE c > 1 ORDER BY d",
        )
        .unwrap();
        let plan = LogicalPlan::from_statement(&stmt).unwrap();
        assert_eq!(plan.referenced_columns(), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn select_star_is_a_bare_scan_pipeline() {
        let stmt = parse_select("SELECT * FROM t").unwrap();
        let plan = LogicalPlan::from_statement(&stmt).unwrap();
        assert!(matches!(plan, LogicalPlan::Scan { .. }));
    }
}
