//! Tier-1 smoke path through every layer, on one small LOFAR fixture.
//!
//! The end-to-end `benchmark/` package sits outside this workspace, so
//! `cargo test` never builds it. Every public item it calls is called
//! here, so a change to the engine's surface that would break the
//! benchmark breaks this file first. The last three tests pin the
//! structural facts the benchmark's `query.*` and `trace.*` numbers
//! stand on.

use lawsdb::cluster::{Cluster, ClusterConfig, PartitionScheme};
use lawsdb::core::{AnswerMode, DurableDb, FitOptions, LawsDb};
use lawsdb::data::lofar::{LofarConfig, LofarDataset};
use lawsdb::models::ModelId;
use lawsdb::obs::{attribute_layers, global_metrics, LAYERS};
use lawsdb::query::{execute_with, parse_select, ExecOptions};
use lawsdb::server::{Client, PipeStream, QueryMode, Server, ServerConfig};
use lawsdb::storage::{Column, SimulatedDevice, Table};
use std::sync::Arc;

const TABLE: &str = "measurements";
const POINT: &str = "SELECT intensity FROM measurements WHERE source = 7 AND nu = 0.15";
const SRC_AVG: &str = "SELECT AVG(intensity) AS a FROM measurements WHERE source = 7";
const GROUP_AGG: &str =
    "SELECT source, COUNT(*) AS n, SUM(intensity) AS s FROM measurements GROUP BY source";

/// 200 sources (≈ 8k rows, two zones), one power law per source,
/// captured through the interception session.
fn fixture() -> (LawsDb, Table, ModelId) {
    let cfg =
        LofarConfig { noise_rel: 0.02, anomaly_fraction: 0.0, ..LofarConfig::with_sources(200) };
    let table = LofarDataset::generate(&cfg).table;
    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(table.clone()).unwrap();
    let mut session = db.session();
    let frame = session.frame(TABLE).unwrap();
    let report = session
        .fit(&frame, "intensity ~ p * nu ^ alpha", FitOptions::grouped_by("source"))
        .unwrap();
    (db, table, report.model)
}

/// The benchmark's oracle: one thread, pruning off, heuristic plan.
fn reference(db: &LawsDb, sql: &str) -> Table {
    let opts = ExecOptions { threads: 1, pruning: false, ..ExecOptions::default() };
    execute_with(db.tables(), sql, &opts).unwrap().table
}

/// The benchmark's cluster shape, smaller: hash shards on `source`,
/// two replicas each.
fn hash_cluster(db: &LawsDb, table: &Table) -> Cluster {
    let config = ClusterConfig {
        shards: 2,
        replicas: 2,
        scheme: PartitionScheme::Hash { key: "source".to_string() },
        ..ClusterConfig::default()
    };
    Cluster::new(table, config, db.metrics()).unwrap()
}

/// A server over the fixture with the cluster attached, and one client
/// on the in-process pipe.
fn served() -> (Arc<LawsDb>, Client<PipeStream>) {
    let (db, table, _) = fixture();
    let db = Arc::new(db);
    let server = Server::new(Arc::clone(&db), ServerConfig::default());
    server.attach_cluster(Arc::new(hash_cluster(&db, &table)));
    let client = Client::connect(server.connect()).unwrap();
    (db, client)
}

#[test]
fn embedded_engine_surface() {
    let (db, table, model) = fixture();
    assert_eq!(db.table(TABLE).unwrap().row_count(), table.row_count());
    assert!(db.models().get(model).is_ok());
    assert!(db.model_parameter_bytes() > 0);
    assert!(parse_select(GROUP_AGG).is_ok());

    // Plan once, hit the cache after.
    db.plan_cache().clear();
    db.physical_plan(GROUP_AGG).unwrap();
    db.physical_plan(GROUP_AGG).unwrap();
    assert_eq!((db.plan_cache().hit_count(), db.plan_cache().miss_count()), (1, 1));

    // Exact answers are bit-identical to the oracle.
    let exec = ExecOptions { threads: 1, ..ExecOptions::default() };
    for sql in [POINT, SRC_AVG, GROUP_AGG] {
        assert_eq!(db.query_with(sql, &exec).unwrap().table, reference(&db, sql), "{sql}");
    }

    // The model answers without touching a row, through either door.
    assert_eq!(db.query_approx(SRC_AVG).unwrap().rows_scanned, 0);
    let r = db.answer(SRC_AVG, AnswerMode::Resilient, &exec).unwrap();
    assert!(r.answer.is_approximate() && r.degraded.is_empty());
    db.answer(SRC_AVG, AnswerMode::Adaptive, &exec).unwrap();
    assert!(db.metrics().snapshot().counter("lawsdb_core_approx_answers") >= 1);

    // Appending invalidates the model; a refit brings it back.
    let stale = db
        .append_rows(
            TABLE,
            &[Column::from_i64(vec![7]), Column::from_f64(vec![0.15]), Column::from_f64(vec![1.0])],
        )
        .unwrap();
    assert_eq!(stale, vec![model]);
    let r = db.answer(SRC_AVG, AnswerMode::Resilient, &exec).unwrap();
    assert!(!r.answer.is_approximate() && !r.degraded.is_empty());
    let fresh = db.refit(model, &Default::default()).unwrap();
    assert_ne!(fresh.id, model);
    assert!(db.answer(SRC_AVG, AnswerMode::Resilient, &exec).unwrap().answer.is_approximate());
}

#[test]
fn every_query_mode_through_the_wire() {
    let (db, mut client) = served();

    let exact = client.query(QueryMode::Exact, GROUP_AGG).unwrap();
    assert_eq!(exact.table, reference(&db, GROUP_AGG));
    assert!(!exact.approximate);
    let sharded = client.query(QueryMode::Cluster, GROUP_AGG).unwrap();
    assert_eq!(sharded.table, exact.table);
    for mode in [QueryMode::Resilient, QueryMode::Adaptive] {
        let r = client.query(mode, SRC_AVG).unwrap();
        assert_eq!(r.table.row_count(), 1, "{mode:?}");
        // Whichever rung answered, the reply says so consistently.
        assert_eq!(r.approximate, r.rows_scanned == 0, "{mode:?}");
    }
    assert!(client.explain(POINT).unwrap().contains("Scan measurements"));

    let traced = client.query_traced(QueryMode::Exact, SRC_AVG).unwrap();
    assert!(traced.trace.is_some());
    client.close().unwrap();
}

#[test]
fn cluster_and_durable_surface() {
    let (db, table, _) = fixture();
    let cluster = hash_cluster(&db, &table);
    assert_eq!(cluster.config().shards, 2);
    let exec = ExecOptions { threads: 1, ..ExecOptions::default() };
    let a = cluster.query(GROUP_AGG, &exec).unwrap();
    assert_eq!(a.table, reference(&db, GROUP_AGG));
    assert!(a.degraded.is_empty() && !a.approximate);
    assert!(cluster.fetch_ops(0, 0).unwrap() > 0);

    let commits = global_metrics().counter("lawsdb_storage_wal_commits");
    let before = commits.get();
    let mut durable = DurableDb::new(SimulatedDevice::new(4096));
    durable.recover().unwrap();
    durable.store_table(&table).unwrap();
    durable.replace_table(&db.table(TABLE).unwrap()).unwrap();
    durable.save_models(db.models()).unwrap();
    assert!(commits.get() > before);
    // Restart: what was acknowledged is what comes back.
    let mut durable = DurableDb::new(durable.into_device());
    durable.recover().unwrap();
    // Honest accounting: a read charges one full device page per page
    // of every column extent, and charges it again on every read.
    let pages: u64 = (0..table.schema().len())
        .map(|i| durable.column_pages(TABLE, i).unwrap().1.div_ceil(4096))
        .sum();
    for _ in 0..2 {
        let before = durable.stats();
        assert_eq!(durable.read_table(TABLE).unwrap().row_count(), table.row_count());
        let after = durable.stats();
        assert_eq!(after.pages_read - before.pages_read, pages);
        assert_eq!(after.bytes_read - before.bytes_read, pages * 4096);
    }
    assert_eq!(durable.load_models().unwrap().len(), db.models().len());
}

#[test]
fn explain_keeps_pruning_and_zone_agg_annotations_on_their_lines() {
    let (db, _, _) = fixture();
    let text = db
        .explain("SELECT COUNT(*) AS n, SUM(nu) AS s FROM measurements WHERE source < 100")
        .unwrap();
    let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
    assert!(
        lines.len() == 4
            && lines[0].starts_with("Aggregate group_by=[] aggs=[n, s] · est_rows=1 ")
            && lines[0].contains(" zone_agg[push=")
            && lines[1].starts_with("Filter (source < 100) · est_rows=")
            && lines[2].starts_with("Pruning [source < 100] (exact) zones[eval=")
            && lines[3].starts_with("Scan measurements [nu, source] · est_rows="),
        "{text}"
    );
}

#[test]
fn model_tier_pruning_is_live() {
    let (db, _, _) = fixture();
    // No source is that bright: `prediction ± max residual` refutes
    // every zone without reading the column.
    let r = db.query("SELECT intensity FROM measurements WHERE intensity > 1000000").unwrap();
    assert_eq!(r.table.row_count(), 0);
    assert!(r.scan_stats.pages_pruned_model > 0, "{:?}", r.scan_stats);
}

#[test]
fn unfiltered_aggregates_answer_from_zone_partials() {
    let (db, table, _) = fixture();
    // Over `nu`, not `intensity`: capture swapped the response column's
    // data zones for model zones, which carry no partials.
    let sql = "SELECT COUNT(*) AS n, SUM(nu) AS s, MAX(source) AS hi FROM measurements";
    let r = db.query(sql).unwrap();
    assert_eq!(r.table, reference(&db, sql));
    assert_eq!(r.table.row(0).unwrap()[0], lawsdb::storage::Value::Int(table.row_count() as i64));
    assert_eq!(r.scan_stats.pages_total, 0, "{:?}", r.scan_stats);
    assert!(r.scan_stats.zones_agg_synopsis > 0, "{:?}", r.scan_stats);
}

#[test]
fn traced_cluster_query_attributes_to_canonical_layers() {
    let (_, mut client) = served();
    let r = client.query_traced(QueryMode::Cluster, GROUP_AGG).unwrap();
    let layers = attribute_layers(r.trace.as_ref().expect("v2 session returns the tree"));
    let names: Vec<&str> = layers.iter().map(|(n, _)| n.as_str()).collect();
    assert!(!names.is_empty(), "no layer attributed");
    assert!(names.iter().all(|n| LAYERS.contains(n)), "{names:?}");
    client.close().unwrap();
}
