//! Property test for the cost-based planner's soundness claim: lowering
//! through the physical layer — per-zone access costing, cost-based
//! conjunct reordering, LIMIT 0 elision — is observationally invisible.
//! On random tables (with NULLs and NaNs), random zone granularities,
//! morsel sizes and thread counts, the physical plan's execution returns
//! exactly the rows and bits the heuristic logical plan returns.
//!
//! Reordering is safe because Kleene (SQL 3VL) AND is commutative and
//! associative, and only truth bits ever select rows; this test is the
//! executable form of that argument.

use lawsdb_query::{
    execute_plan_with, execute_physical_with, optimize::optimize, parse_select, plan_physical,
    CostConstants, ExecOptions, LogicalPlan,
};
use lawsdb_storage::{Catalog, TableBuilder};
use proptest::prelude::*;

/// One generated row: clustered key base, value, null/NaN marker.
type Row = (i64, f64, u8);

fn build_catalog(rows: &[Row], zone_rows: usize) -> Catalog {
    let c = Catalog::new();
    let mut b = TableBuilder::new("t");
    // Sorted keys give zones tight ranges, so access-path costing sees
    // a mix of skipped, accepted and evaluated zones.
    let mut keys: Vec<i64> = rows.iter().map(|r| r.0).collect();
    keys.sort_unstable();
    b.add_i64("k", keys);
    b.add_f64_opt(
        "v",
        rows.iter()
            .map(|r| match r.2 {
                0 => None,
                1 => Some(f64::NAN),
                _ => Some(r.1),
            })
            .collect(),
    );
    let mut t = b.build().unwrap();
    t.rebuild_synopsis_with(zone_rows);
    c.register(t).unwrap();
    c
}

fn queries(thr: f64, key: i64) -> Vec<String> {
    vec![
        // Multi-conjunct shapes where the cost model reorders: a wide
        // key range (low selectivity) ANDed with narrower ones.
        format!("SELECT k, v FROM t WHERE k < {} AND k < {key} AND v > {thr}", key + 40),
        format!("SELECT k, v FROM t WHERE v <= {thr} AND k >= {key} AND k != {}", key + 3),
        format!("SELECT k FROM t WHERE k <= {} AND k = {key}", key + 20),
        // Residual ORs and NaN-aware negation ride along unreordered.
        format!("SELECT k, v FROM t WHERE k > {key} AND (v < {thr} OR v > {})", thr + 5.0),
        format!("SELECT k, v FROM t WHERE NOT (v < {thr}) AND k BETWEEN {key} AND {}", key + 25),
        // Aggregates over reordered filters (fused accumulate path).
        format!(
            "SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi \
             FROM t WHERE v > {thr} AND k < {key} AND k >= {}",
            key - 30
        ),
        format!(
            "SELECT k, COUNT(*) AS n FROM t WHERE k < {key} AND v != {thr} \
             GROUP BY k ORDER BY k DESC LIMIT 7"
        ),
        // LIMIT 0 elision: schema must survive, zero rows must come out.
        format!("SELECT k, v FROM t WHERE k < {key} LIMIT 0"),
        "SELECT COUNT(*) AS n FROM t LIMIT 0".to_string(),
    ]
}

fn node_count(plan: &LogicalPlan) -> usize {
    1 + plan.inputs().into_iter().map(node_count).sum::<usize>()
}

/// Cut a rendered physical line back to what the logical renderer prints.
fn strip_notes(line: &str) -> &str {
    let cut = [" · est_", " zones["].iter().filter_map(|m| line.find(m)).min();
    &line[..cut.unwrap_or(line.len())]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn physical_plan_is_bit_identical_to_heuristic_plan(
        rows in prop::collection::vec((0i64..64, -100.0f64..100.0, 0u8..8), 0..300),
        thr in -90.0f64..90.0,
        key in 0i64..64,
        zone_rows in 1usize..48,
        morsel_rows in 1usize..80,
        par in any::<bool>(),
    ) {
        let catalog = build_catalog(&rows, zone_rows);
        let threads = if par { 4 } else { 1 };
        let opts = ExecOptions { threads, morsel_rows, ..ExecOptions::default() };
        for sql in queries(thr, key) {
            let stmt = parse_select(&sql).unwrap();
            let heuristic = optimize(&LogicalPlan::from_statement(&stmt).unwrap());
            let physical = plan_physical(&catalog, &heuristic, &CostConstants::default());
            // The physical plan annotates the logical tree it holds: one
            // note per node, and its explain is the logical explain plus
            // suffixes — estimates on every node line, zone access paths
            // alone on Pruning lines.
            let logical = physical.logical();
            prop_assert_eq!(physical.notes().len(), node_count(logical), "{}", sql);
            let (annotated, bare) = (physical.explain(), logical.explain());
            prop_assert_eq!(annotated.lines().count(), bare.lines().count(), "{}", sql);
            for (a, b) in annotated.lines().zip(bare.lines()) {
                prop_assert_eq!(strip_notes(a), b, "{}", sql);
                let pruning = b.trim_start().starts_with("Pruning");
                prop_assert!(a.contains(" · est_") != pruning, "{}", a);
            }
            let a = execute_physical_with(&catalog, &physical, &opts).unwrap();
            let b = execute_plan_with(&catalog, &heuristic, &opts).unwrap();
            // Reordering never changes which zones are pruned (same
            // conjunct set), so even the IO accounting must agree.
            prop_assert_eq!(a.rows_scanned, b.rows_scanned, "rows_scanned: {}", sql);
            prop_assert_eq!(a.table.row_count(), b.table.row_count(), "row count: {}", sql);
            prop_assert_eq!(a.table.schema().names(), b.table.schema().names());
            for i in 0..a.table.row_count() {
                // Debug rendering keeps NaN cells comparable (NaN !=
                // NaN under PartialEq, but the bits must match).
                prop_assert_eq!(
                    format!("{:?}", a.table.row(i).unwrap()),
                    format!("{:?}", b.table.row(i).unwrap()),
                    "row {} of {}",
                    i,
                    sql
                );
            }
        }
    }
}
