//! # lawsdb-query
//!
//! Relational query processing for LawsDB: a SQL subset, a logical plan,
//! a rule-based optimizer, a pricing pass that annotates that plan with
//! per-node estimates and zone access paths, and a vectorized executor
//! over the columnar storage engine.
//!
//! The paper's Section 2 poses two concrete SQL queries against the
//! LOFAR measurements table:
//!
//! ```sql
//! SELECT intensity FROM measurements
//!  WHERE source = 42 AND wavelength = 0.14;
//!
//! SELECT source, intensity FROM measurements
//!  WHERE wavelength = 0.14 AND intensity > 3.0;
//! ```
//!
//! This crate answers them *exactly* (the baseline every approximate
//! answer is judged against) and, when a captured model covers the
//! statement, *from the model*: [`model_scan`] lowers the same plan onto
//! a [`ModelScan`] leaf that enumerates the model's parameter space
//! where the scan would read rows, and the same executor runs the rest.
//! The executor counts the base-table rows it touches —
//! [`QueryResult::rows_scanned`] — which is the denominator of every
//! "zero-IO" claim.
//!
//! Supported SQL: `SELECT [DISTINCT]` with expressions and aggregates
//! (`COUNT(*)`, `COUNT/SUM/AVG/MIN/MAX(expr)`), `FROM` a single table,
//! optional single `INNER JOIN … ON a = b`, `WHERE` with arithmetic,
//! comparisons, `AND`/`OR`/`NOT` and `BETWEEN`, `GROUP BY`, `ORDER BY
//! … [ASC|DESC]`, `LIMIT`.

// `!(x > y)` guards are NaN-aware in predicate evaluation.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// User-facing paths must return structured `QueryError`s, never panic;
// tests are exempt (unwrap on known-good fixtures is idiomatic there).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod aggregate;
pub mod cost;
pub mod error;
pub mod exec;
pub mod governor;
pub mod model_scan;
pub mod morsel;
pub mod optimize;
pub mod partial;
pub mod physical;
pub mod plan;
pub mod plan_cache;
pub mod pruning;
pub mod sexpr;
pub mod sql;

pub use cost::CostConstants;
pub use error::{QueryError, Result};
pub use exec::{execute_with, QueryResult};
pub use lawsdb_obs::{ProfileCollector, ProfileContext, TraceNode};
pub use governor::{CancelToken, Governor, ResourceBudget};
pub use model_scan::{ModelPlan, ModelScan};
pub use morsel::ExecOptions;
pub use partial::{
    assemble_partials, group_key_hash, limit_rows, merge_shard_partials, project_rows,
    shard_partials, sort_rows, ShardPartials,
};
pub use physical::{
    execute_physical_with, plan_physical, AccessPlan, Estimate, PhysicalPlan, PlanNote,
};
pub use plan::LogicalPlan;
pub use plan_cache::{normalize_statement, PlanCache};
pub use pruning::{PruningPredicate, ScanStats, ScanStatsCollector, ZoneDecision};
pub use sexpr::{CmpOp, PredMask, ScalarExpr};
pub use sql::{parse_predicate, parse_select};

#[cfg(test)]
mod tests {
    use crate::exec::execute;
    use lawsdb_storage::{Catalog, TableBuilder, Value};

    fn catalog() -> Catalog {
        let c = Catalog::new();
        let mut b = TableBuilder::new("measurements");
        b.add_i64("source", vec![42, 42, 7, 7, 42]);
        b.add_f64("wavelength", vec![0.14, 0.15, 0.14, 0.15, 0.14]);
        b.add_f64("intensity", vec![3.2, 2.9, 4.0, 1.0, 2.8]);
        c.register(b.build().unwrap()).unwrap();
        c
    }

    #[test]
    fn paper_query_one() {
        let c = catalog();
        let r = execute(
            &c,
            "SELECT intensity FROM measurements WHERE source = 42 AND wavelength = 0.14",
        )
        .unwrap();
        assert_eq!(r.table.row_count(), 2);
        let vals = r.table.column("intensity").unwrap().f64_data().unwrap().to_vec();
        assert_eq!(vals, vec![3.2, 2.8]);
        assert_eq!(r.rows_scanned, 5);
    }

    #[test]
    fn paper_query_two() {
        let c = catalog();
        let r = execute(
            &c,
            "SELECT source, intensity FROM measurements \
             WHERE wavelength = 0.14 AND intensity > 3.0",
        )
        .unwrap();
        assert_eq!(r.table.row_count(), 2);
        assert_eq!(r.table.row(0).unwrap()[0], Value::Int(42));
        assert_eq!(r.table.row(1).unwrap()[0], Value::Int(7));
    }
}
