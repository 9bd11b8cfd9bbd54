//! Property test for the cluster's headline claim: scatter-gather
//! partial-aggregate merging is **bit-identical** to the single-engine
//! answer — across random shard counts (1–8), hash vs range
//! partitioning, replica failure patterns, morsel sizes, and thread
//! counts. Float SUM/AVG are the hard cases (IEEE-754 addition is not
//! associative); exact bit comparison is the point, so results render
//! floats as their raw bit patterns.

use lawsdb_cluster::{Cluster, ClusterConfig, PartitionScheme};
use lawsdb_obs::MetricsRegistry;
use lawsdb_query::{execute_with, ExecOptions};
use lawsdb_storage::{Catalog, Table, TableBuilder, Value};
use proptest::prelude::*;

type Row = (i64, f64, u8);

fn build_table(rows: &[Row], zone_rows: usize) -> Table {
    let mut b = TableBuilder::new("t");
    b.add_i64("g", rows.iter().map(|r| r.0).collect());
    b.add_f64_opt(
        "v",
        rows.iter()
            .map(|r| match r.2 {
                0 => None,
                _ => Some(r.1),
            })
            .collect(),
    );
    let mut t = b.build().unwrap();
    t.rebuild_synopsis_with(zone_rows);
    t
}

/// Canonical rendering with floats as raw bits: equal strings ⇔ equal
/// bits, row order included.
fn render(t: &Table) -> String {
    let mut out = String::new();
    for f in t.schema().fields() {
        out.push_str(&format!("{}:{:?} ", f.name, f.data_type));
    }
    out.push('\n');
    for row in 0..t.row_count() {
        for c in t.columns() {
            match c.value(row).unwrap() {
                Value::Null => out.push_str("∅ "),
                Value::Int(i) => out.push_str(&format!("i{i} ")),
                Value::Float(x) => out.push_str(&format!("f{:016x} ", x.to_bits())),
                Value::Str(s) => out.push_str(&format!("s{s:?} ")),
                Value::Bool(b) => out.push_str(&format!("b{b} ")),
            }
        }
        out.push('\n');
    }
    out
}

fn queries(thr: f64) -> Vec<String> {
    vec![
        // Grouped, every aggregate — SUM float ordering is the acid test.
        "SELECT g, COUNT(*) AS n, SUM(v) AS s, AVG(v) AS m, MIN(v) AS lo, MAX(v) AS hi \
         FROM t GROUP BY g"
            .to_string(),
        // Filtered grouped aggregation.
        format!("SELECT g, SUM(v) AS s FROM t WHERE v > {thr} GROUP BY g"),
        // ORDER BY + LIMIT above the aggregate.
        "SELECT g, AVG(v) AS m FROM t GROUP BY g ORDER BY m DESC LIMIT 3".to_string(),
        // Global aggregates (no GROUP BY): scatter-gather on range
        // shards, gather-execute on hash shards — both must match.
        "SELECT COUNT(*) AS n, SUM(v) AS s, AVG(v) AS m FROM t".to_string(),
        format!("SELECT MIN(v) AS lo, MAX(v) AS hi FROM t WHERE v < {thr}"),
        // A non-aggregate shape takes the gather-execute route.
        format!("SELECT g, v FROM t WHERE v >= {thr} ORDER BY v LIMIT 7"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    #[test]
    fn sharded_answers_are_bit_identical_to_the_engine(
        rows in prop::collection::vec((0i64..6, -100.0f64..100.0, 0u8..5), 1..300),
        shards in 1usize..9,
        hash in any::<bool>(),
        zone_rows in 4usize..40,
        morsel_rows in 4usize..96,
        threads in 1usize..4,
        thr in -60.0f64..60.0,
        kill_mask in 0u16..256,
    ) {
        let table = build_table(&rows, zone_rows);
        let catalog = Catalog::new();
        catalog.register(build_table(&rows, zone_rows)).unwrap();

        let scheme = if hash {
            PartitionScheme::Hash { key: "g".to_string() }
        } else {
            PartitionScheme::Range
        };
        let cfg = ClusterConfig {
            shards,
            replicas: 2,
            scheme,
            fail_threshold: 1,
            probe_after: 0,
            ..ClusterConfig::default()
        };
        let registry = MetricsRegistry::new();
        let cluster = Cluster::new(&table, cfg, &registry).unwrap();
        // Random replica failure pattern: kill replica 0 of the masked
        // shards — every query must transparently fail over to replica
        // 1 and still produce the same bits.
        for s in 0..shards {
            if kill_mask & (1 << s) != 0 {
                cluster.kill_replica(s, 0);
            }
        }

        let opts = ExecOptions { threads, morsel_rows, ..ExecOptions::default() };
        for sql in queries(thr) {
            let engine = execute_with(&catalog, &sql, &opts).unwrap();
            let clustered = cluster.query(&sql, &opts).unwrap();
            prop_assert!(!clustered.approximate);
            prop_assert_eq!(
                render(&clustered.table),
                render(&engine.table),
                "bits diverged: {} (shards={}, hash={}, morsel={}, threads={})",
                sql, shards, hash, morsel_rows, threads
            );
        }
    }
}
