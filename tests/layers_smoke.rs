//! Tier-1 smoke path through every layer, on one small LOFAR fixture.
//!
//! The end-to-end `benchmark/` package sits outside this workspace, so
//! `cargo test` never builds it. Every public item it calls is called
//! here, so a change to the engine's surface that would break the
//! benchmark breaks this file first. The last four tests pin the
//! structural facts the benchmark's `query.*`, `approx.*` and `trace.*`
//! numbers stand on. Exact answers are held to the naive interpreter in
//! `oracle/`, the same one `tests/equivalence.rs` drives every path
//! against.

mod oracle;

use lawsdb::approx::Strategy;
use lawsdb::cluster::{Cluster, ClusterConfig, PartitionScheme};
use lawsdb::core::{AnswerMode, DurableDb, FitOptions, LawsDb};
use lawsdb::data::lofar::{LofarConfig, LofarDataset};
use lawsdb::data::timeseries::{TimeSeriesConfig, TimeSeriesDataset};
use lawsdb::models::bridge::fit_table_grouped;
use lawsdb::models::{CapturedModel, ModelId, ModelState};
use lawsdb::obs::{attribute_layers, global_metrics, LAYERS};
use lawsdb::query::{
    execute_with, parse_select, CostConstants, ExecOptions, ModelPlan, ProfileCollector,
};
use lawsdb::server::{Client, PipeStream, QueryMode, Server, ServerConfig};
use lawsdb::storage::{
    Column, DataType, Field, Schema, SimulatedDevice, Table, TableBuilder, Value,
};
use oracle::fingerprint;
use std::sync::Arc;

const TABLE: &str = "measurements";
const POINT: &str = "SELECT intensity FROM measurements WHERE source = 7 AND nu = 0.15";
const SRC_AVG: &str = "SELECT AVG(intensity) AS a FROM measurements WHERE source = 7";
const GROUP_AGG: &str =
    "SELECT source, COUNT(*) AS n, SUM(intensity) AS s FROM measurements GROUP BY source";
/// The benchmark's model shapes that enumerate: `m_point`, `m_src_avg`,
/// `m_band_avg`, `m_group_avg`.
const MODEL_SHAPES: [&str; 4] = [
    POINT,
    SRC_AVG,
    "SELECT AVG(intensity) AS m FROM measurements WHERE nu = 0.15",
    "SELECT source, AVG(intensity) AS m FROM measurements GROUP BY source",
];

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

/// The exact answer's fingerprint, from the naive interpreter.
fn reference(db: &LawsDb, sql: &str) -> String {
    oracle::answer(&db.table(TABLE).unwrap(), sql).fingerprint()
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

    // Exact answers carry the interpreter's bits, through the engine and
    // through the benchmark's own reference (one thread, pruning off).
    let exec = ExecOptions { threads: 1, ..ExecOptions::default() };
    let bench_reference = ExecOptions { pruning: false, ..exec.clone() };
    for sql in [POINT, SRC_AVG, GROUP_AGG] {
        assert_eq!(fingerprint(&db.query_with(sql, &exec).unwrap().table), reference(&db, sql));
        let r = execute_with(db.tables(), sql, &bench_reference).unwrap();
        assert_eq!(fingerprint(&r.table), reference(&db, sql), "{sql}");
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
    assert_eq!(fingerprint(&exact.table), reference(&db, GROUP_AGG));
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
    assert_eq!(fingerprint(&a.table), reference(&db, GROUP_AGG));
    assert!(a.degraded.is_empty() && !a.approximate);
    // A warm replica fetches nothing; a healed one reads its shard again.
    assert_eq!(cluster.fetch_ops(0, 0).unwrap(), 0);
    cluster.heal_replica(0, 0).unwrap();
    assert!(cluster.fetch_ops(0, 0).unwrap() > 0);
    // Equality on the hash key asks one shard; the GROUP BY asks both.
    let shard_queries = || db.metrics().snapshot().counter("lawsdb_cluster_shard_queries");
    for (sql, shards) in [(SRC_AVG, 1), (GROUP_AGG, 2)] {
        let before = shard_queries();
        let a = cluster.query(sql, &exec).unwrap();
        assert_eq!(fingerprint(&a.table), reference(&db, sql), "{sql}");
        assert_eq!(shard_queries() - before, shards, "{sql}");
    }

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
        .flat_map(|i| durable.column_pages(TABLE, i).unwrap())
        .map(|(_, len)| len.div_ceil(4096))
        .sum();
    for _ in 0..2 {
        let before = durable.stats();
        assert_eq!(durable.read_table(TABLE).unwrap().row_count(), table.row_count());
        let after = durable.stats();
        assert_eq!(after.pages_read - before.pages_read, pages);
        assert_eq!(after.bytes_read - before.bytes_read, pages * 4096);
    }
    // Every model survives the restart field for field, and predicts
    // one point bit for bit.
    let reloaded = durable.load_models().unwrap();
    assert_eq!(reloaded.len(), db.models().len());
    assert!(!reloaded.is_empty());
    for live in db.models().all() {
        let got = reloaded.get(live.id).unwrap();
        assert_eq!(got.params, live.params, "model {:?}", live.id);
        assert_eq!(got.coverage, live.coverage, "model {:?}", live.id);
        assert_eq!(
            (got.state, got.version, &got.formula_source),
            (live.state, live.version, &live.formula_source)
        );
        let group = live.params.keys.first().copied();
        let cov = &live.coverage;
        let inputs: Vec<(&str, f64)> = cov
            .variables
            .iter()
            .map(|v| (v.as_str(), cov.domain_of(v).map_or(1.0, |d| d[0])))
            .collect();
        let want = live.predict_scalar(group, &inputs).unwrap();
        assert_eq!(got.predict_scalar(group, &inputs).unwrap().to_bits(), want.to_bits());
    }
}

/// `rows` appended LOFAR-shaped rows; `seed` varies their values.
fn append_batch(rows: usize, seed: i64) -> Vec<Column> {
    let ints = (0..rows as i64).map(|i| (i * 31 + seed) % 200);
    let floats = (0..rows).map(|i| 0.12 + 0.01 * (i % 7) as f64);
    vec![
        Column::from_i64(ints.collect()),
        Column::from_f64(floats.collect()),
        Column::from_f64((0..rows).map(|i| (i as f64 + seed as f64).sqrt()).collect()),
    ]
}

#[test]
fn an_append_commits_in_o_batch_and_reads_back_bit_identical() {
    // The benchmark's page size and append batch, at two table sizes
    // 4x apart: the append writes the same pages at both.
    let pages_per_append = |sources: usize| -> u64 {
        let cfg = LofarConfig { noise_rel: 0.02, ..LofarConfig::with_sources(sources) };
        let db = LawsDb::new();
        db.register_table(LofarDataset::generate(&cfg).table).unwrap();
        let mut durable = DurableDb::new(SimulatedDevice::new(4096));
        durable.recover().unwrap();
        durable.store_table(&db.table(TABLE).unwrap()).unwrap();
        let mut written = Vec::new();
        for seed in 0..2 {
            db.append_rows(TABLE, &append_batch(200, seed)).unwrap();
            let before = durable.stats().pages_written;
            durable.replace_table(&db.table(TABLE).unwrap()).unwrap();
            written.push(durable.stats().pages_written - before);
        }
        assert_eq!(written[0], written[1], "{sources} sources: {written:?}");
        // Restart: the table reads back bit-identical.
        let live = db.table(TABLE).unwrap();
        let mut durable = DurableDb::new(durable.into_device());
        durable.recover().unwrap();
        assert_eq!(fingerprint(&durable.read_table(TABLE).unwrap()), fingerprint(&live));
        written[0]
    };
    let (small, large) = (pages_per_append(100), pages_per_append(400));
    assert_eq!(small, large, "an append's pages do not depend on the table's size");
    assert!(small <= 10, "{small} pages per append");

    // Two divergent appends from one parent: the second is not a child
    // of what the store holds, so it is written in full, and what reads
    // back is its own rows.
    let (_, table, _) = fixture();
    let mut durable = DurableDb::new(SimulatedDevice::new(4096));
    durable.recover().unwrap();
    let before = durable.stats().pages_written;
    durable.store_table(&table).unwrap();
    let full = durable.stats().pages_written - before;
    let (mut a, mut b) = (table.clone(), table.clone());
    a.append_rows(&append_batch(200, 1)).unwrap();
    b.append_rows(&append_batch(200, 2)).unwrap();
    durable.replace_table(&a).unwrap();
    let before = durable.stats().pages_written;
    durable.replace_table(&b).unwrap();
    assert!(durable.stats().pages_written - before >= full, "rewritten in full");
    let mut durable = DurableDb::new(durable.into_device());
    durable.recover().unwrap();
    assert_eq!(fingerprint(&durable.read_table(TABLE).unwrap()), fingerprint(&b));
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
fn capture_keeps_the_data_synopsis() {
    // One `y = +inf` row on the line `y = 1 + 2x`. The model's residual
    // bound skips non-finite values, so no `prediction ± bound` band
    // holds that row; the data zone does.
    let x: Vec<f64> = (0..400).map(f64::from).collect();
    let mut y: Vec<f64> = x.iter().map(|x| 1.0 + 2.0 * x).collect();
    y[200] = f64::INFINITY;
    let mut b = TableBuilder::new("t");
    b.add_f64("x", x).add_f64("y", y);
    let db = LawsDb::new();
    db.register_table(b.build().unwrap()).unwrap();
    let huge = "SELECT COUNT(*) AS n FROM t WHERE y > 1e300";
    let count = |db: &LawsDb| db.query(huge).unwrap().table.row(0).unwrap()[0].clone();
    assert_eq!(count(&db), Value::Int(1));
    db.capture_model("t", "y ~ a + b * x", None, &Default::default()).unwrap();
    assert_eq!(count(&db), Value::Int(1), "capture must not drop the +inf row");

    // The fixture's response column still answers its unfiltered
    // aggregates from zone partials after capture…
    let (db, _, _) = fixture();
    let sql = "SELECT COUNT(*) AS n, SUM(intensity) AS s FROM measurements";
    let r = db.query(sql).unwrap();
    assert_eq!(fingerprint(&r.table), reference(&db, sql));
    let s = r.scan_stats;
    assert!(s.pages_total == 0 && s.zones_agg_synopsis > 0, "{s:?}");
    // …and its data zones refute what no source reaches.
    let r = db.query("SELECT intensity FROM measurements WHERE intensity > 1000000").unwrap();
    assert_eq!(r.table.row_count(), 0);
    assert!(r.scan_stats.pages_pruned_zonemap > 0, "{:?}", r.scan_stats);
}

#[test]
fn unfiltered_aggregates_answer_from_zone_partials() {
    let (db, table, _) = fixture();
    let sql = "SELECT COUNT(*) AS n, SUM(intensity) AS s, MAX(source) AS hi FROM measurements";
    let r = db.query(sql).unwrap();
    assert_eq!(fingerprint(&r.table), reference(&db, sql));
    assert_eq!(r.table.row(0).unwrap()[0], Value::Int(table.row_count() as i64));
    assert_eq!(r.scan_stats.pages_total, 0, "{:?}", r.scan_stats);
    assert!(r.scan_stats.zones_agg_synopsis > 0, "{:?}", r.scan_stats);
}

#[test]
fn exact_aggregates_are_a_function_of_the_data() {
    const GLOBAL: &str = "SELECT COUNT(*) AS n, SUM(intensity) AS s, AVG(intensity) AS a, \
                          MIN(intensity) AS lo FROM measurements";
    let filtered = format!("{GLOBAL} WHERE nu > 0.13");
    let cfg =
        LofarConfig { noise_rel: 0.02, anomaly_fraction: 0.0, ..LofarConfig::with_sources(200) };
    let table = LofarDataset::generate(&cfg).table;
    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(table.clone()).unwrap();
    // One fingerprint per query, the same at every thread count and
    // morsel size (which also moves where zones are folded vs scanned).
    let prints = |db: &LawsDb| -> Vec<String> {
        [GLOBAL, filtered.as_str()]
            .map(|sql| {
                let runs: Vec<String> = [(1, 4096), (4, 4096), (1, 65536), (4, 65536)]
                    .map(|(threads, morsel_rows)| {
                        let exec = ExecOptions { threads, morsel_rows, ..ExecOptions::default() };
                        fingerprint(&db.query_with(sql, &exec).unwrap().table)
                    })
                    .into();
                assert!(runs.iter().all(|r| *r == runs[0]), "{sql}: {runs:#?}");
                assert_eq!(runs[0], oracle::answer(&table, sql).fingerprint(), "{sql}");
                runs[0].clone()
            })
            .into()
    };
    let before = prints(&db);
    let mut session = db.session();
    let frame = session.frame(TABLE).unwrap();
    session.fit(&frame, "intensity ~ p * nu ^ alpha", FitOptions::grouped_by("source")).unwrap();
    assert_eq!(prints(&db), before, "capturing a model must not move an exact answer");

    // Hash shards scatter the global aggregate and merge the partials.
    let collector = lawsdb::query::ProfileCollector::new();
    let exec = ExecOptions { profile: Some(collector.context()), ..ExecOptions::default() };
    let sharded = hash_cluster(&db, &table).query(&filtered, &exec).unwrap();
    assert_eq!(fingerprint(&sharded.table), before[1]);
    let profile = collector.build("query");
    assert!(!profile.find("cluster.merge").is_empty(), "not the scatter route");
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

#[test]
fn a_reloaded_catalog_answers_like_the_live_one() {
    // Every (source, ν) cell of the fixture is observed, so the live
    // model's Bloom filter of observed combinations, which is not stored,
    // drops no cell the reloaded model keeps.
    let (db, _, _) = fixture();
    let mut durable = DurableDb::new(SimulatedDevice::new(4096));
    durable.recover().unwrap();
    durable.save_models(db.models()).unwrap();
    let mut durable = DurableDb::new(durable.into_device());
    durable.recover().unwrap();
    let reloaded = durable.load_models().unwrap();

    let exec = ExecOptions { threads: 1, ..ExecOptions::default() };
    let consts = CostConstants::default();
    for sql in MODEL_SHAPES {
        let stmt = parse_select(sql).unwrap();
        let plan = db.physical_plan(sql).unwrap();
        let lower = |models| {
            ModelPlan::lower(&stmt, plan.logical(), models, db.tables(), &consts).unwrap()
        };
        let (live, loaded) = (lower(db.models()), lower(&reloaded));
        let what = |p: &ModelPlan| (p.strategy, p.model, p.bound.map(f64::to_bits));
        assert_eq!(what(&loaded), what(&live), "{sql}");
        assert_eq!(loaded.plan.explain(), live.plan.explain(), "{sql}");
        let table = |p: &ModelPlan| fingerprint(&p.run(db.tables(), &exec).unwrap().table);
        let want = table(&live);
        assert!(want.lines().count() > 1, "{sql}: no rows");
        assert_eq!(table(&loaded), want, "{sql}");
    }
}

#[test]
fn a_model_answer_is_a_leaf_of_the_one_plan() {
    let (db, _, model) = fixture();
    let exec = ExecOptions { threads: 1, ..ExecOptions::default() };
    // The exact query plans once; the ladder's model rung reuses it.
    db.plan_cache().clear();
    db.query(SRC_AVG).unwrap();
    let hits = db.plan_cache().hit_count();
    let r = db.answer(SRC_AVG, AnswerMode::Resilient, &exec).unwrap();
    assert!(r.answer.is_approximate() && r.degraded.is_empty());
    assert_eq!(db.plan_cache().hit_count(), hits + 1, "one lookup, one hit");
    assert_eq!(db.plan_cache().miss_count(), 1);

    // EXPLAIN keeps the exact lines and adds the model's tree, its leaf
    // where the scan was.
    let exact = db.physical_plan(SRC_AVG).unwrap().explain();
    let text = db.explain(SRC_AVG).unwrap();
    let model_tree = text.strip_prefix(exact.as_str()).expect("exact lines first, unchanged");
    let leaf = model_tree.lines().last().unwrap().trim_start();
    let prefix = format!("ModelScan measurements model={} cells=4 bound=±", model.0);
    assert!(leaf.starts_with(&prefix), "{text}");
    assert!(leaf.contains(" · est_rows=4 "), "{text}");

    // A profiled model answer is a plan-shaped tree.
    let collector = ProfileCollector::new();
    let traced = ExecOptions { profile: Some(collector.context()), ..exec };
    assert!(db.answer(SRC_AVG, AnswerMode::Resilient, &traced).unwrap().answer.is_approximate());
    let tree = collector.build("query");
    let aggregate = tree.find("plan.aggregate");
    assert_eq!(aggregate.len(), 1, "{tree:?}");
    let leaves: Vec<&str> = aggregate[0].children.iter().map(|c| c.name.as_str()).collect();
    assert!(leaves.contains(&"plan.scan.model"), "{leaves:?}");
    assert_eq!(tree.find("resilient.approx").len(), 1);

    // E7's claim: an aggregate over a linear law answers in closed form,
    // reconstructing nothing.
    let cfg = TimeSeriesConfig { sensors: 20, ticks: 100, noise_sd: 0.05, ..Default::default() };
    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(TimeSeriesDataset::generate(&cfg).table).unwrap();
    db.capture_model("readings", "value ~ a + b * ts", Some("sensor"), &Default::default())
        .unwrap();
    for agg in ["COUNT", "SUM", "AVG", "MIN", "MAX"] {
        let a = db.query_approx(&format!("SELECT {agg}(value) AS v FROM readings")).unwrap();
        assert_eq!((a.strategy, a.tuples_reconstructed, a.rows_scanned), (Strategy::AnalyticAggregate, 0, 0));
    }
}

/// Rows for an incremental refit to meet: `rows` rows of the fixture's
/// sources (each source at most once) at its frequencies, then a new
/// source with eight rows, a new source with one row (its fit fails)
/// and a NULL source.
fn growth_batch(cfg: &LofarConfig, rows: usize, batch: i64) -> Vec<Column> {
    let n = cfg.sources as i64;
    let mut keys: Vec<Option<i64>> =
        (0..rows as i64).map(|i| Some((i * 37 + batch * 11) % n)).collect();
    keys.extend([Some(n + 2 * batch); 8]);
    keys.extend([Some(n + 2 * batch + 1), None]);
    let freqs = &cfg.frequencies;
    let nu: Vec<f64> = (0..keys.len()).map(|i| freqs[i % freqs.len()]).collect();
    let wiggle = |i: usize| 1.0 + 0.01 * (i as f64 * 0.7 + batch as f64).sin();
    let intensity = nu.iter().enumerate().map(|(i, f)| 2.0 * f.powf(-0.7) * wiggle(i)).collect();
    vec![Column::from_i64_opt(keys), Column::from_f64(nu), Column::from_f64(intensity)]
}

/// `got` and `want` hold the same fit, bit for bit.
fn assert_same_fit(got: &CapturedModel, want: &CapturedModel, ctx: &str) {
    let (g, w) = (&got.params, &want.params);
    assert_eq!(g.keys, w.keys, "{ctx}: keys");
    assert_eq!(g.names, w.names, "{ctx}: parameter names");
    let same = |column: &str, got: &[f64], want: &[f64]| {
        if let Some(i) = got.iter().zip(want).position(|(a, b)| a.to_bits() != b.to_bits()) {
            panic!("{ctx}: {column} of source {} is {} against {}", w.keys[i], got[i], want[i]);
        }
    };
    for (name, (gv, wv)) in w.names.iter().zip(g.values.iter().zip(&w.values)) {
        same(name, gv, wv);
    }
    same("residual_se", &g.residual_se, &w.residual_se);
    same("r2", &g.r2, &w.r2);
    assert_eq!(g.n, w.n, "{ctx}: n");
    assert_eq!(got.overall_r2.to_bits(), want.overall_r2.to_bits(), "{ctx}: overall_r2");
    let bound = |m: &CapturedModel| m.max_abs_residual.map(f64::to_bits);
    assert_eq!(bound(got), bound(want), "{ctx}: max_abs_residual");
    assert_eq!(got.coverage.domains, want.coverage.domains, "{ctx}: domains");
    let figures = |m: &CapturedModel| -> Vec<[u64; 3]> {
        let figures = m.residuals.as_deref().expect("a fitted model has residual figures");
        figures.iter().map(|f| [f.rss, f.tss, f.max_abs].map(f64::to_bits)).collect()
    };
    assert_eq!(figures(got), figures(want), "{ctx}: per-group residual figures");
    assert!(want.observed_combos.is_some(), "{ctx}: no legal filter");
    assert_eq!(got.observed_combos, want.observed_combos, "{ctx}: legal filter");
}

#[test]
fn an_incremental_refit_equals_a_cold_capture() {
    const FORMULA: &str = "intensity ~ p * nu ^ alpha";
    const COVERAGE: &str = "source < 30";
    let options = lawsdb::fit::FitOptions::default();
    for seed in 1..=3 {
        let cfg = LofarConfig {
            noise_rel: 0.02,
            anomaly_fraction: 0.0,
            seed,
            ..LofarConfig::with_sources(60)
        };
        // The fixture with a nullable key column, so appends may carry
        // a NULL source.
        let table = LofarDataset::generate(&cfg).table;
        let mut fields = table.schema().fields().to_vec();
        fields[0] = Field::nullable("source", DataType::Int64);
        let table = Table::new(TABLE, Schema::new(fields), table.columns().to_vec()).unwrap();
        let mut db = LawsDb::new();
        db.quality.min_r2 = 0.0;
        db.register_table(table).unwrap();
        let fitted = |db: &LawsDb| db.metrics().snapshot().counter("lawsdb_fit_groups_fitted");
        let iterations = |db: &LawsDb| db.metrics().snapshot().counter("lawsdb_fit_lm_iterations");
        let rows_fitted = |db: &LawsDb| db.metrics().snapshot().counter("lawsdb_fit_rows_fitted");
        let mut full = db.capture_model(TABLE, FORMULA, Some("source"), &options).unwrap();
        let mut partial =
            db.capture_model_where(TABLE, FORMULA, Some("source"), COVERAGE, &options).unwrap();
        // The cold capture of `table` in a second engine.
        let cold = |table: &Table| {
            let mut db = LawsDb::new();
            db.quality.min_r2 = 0.0;
            db.register_table(table.clone()).unwrap();
            let full = db.capture_model(TABLE, FORMULA, Some("source"), &options).unwrap();
            let partial =
                db.capture_model_where(TABLE, FORMULA, Some("source"), COVERAGE, &options);
            (full, partial.unwrap())
        };
        let filter_bits = |m: &CapturedModel| m.observed_combos.as_ref().unwrap().byte_size() * 8;
        for cycle in 0..5 {
            let ctx = format!("seed {seed}, cycle {cycle}");
            let mut keys = std::collections::BTreeSet::new();
            let rows = db.table(TABLE).unwrap().row_count();
            let mut batches = Vec::new();
            match cycle {
                // Two appends between refits, touching about a third of
                // the groups.
                0 | 1 => {
                    batches.extend((0..2).map(|part| growth_batch(&cfg, 10, 2 * cycle + part)));
                }
                // A covered source observed at a new frequency: the
                // domains grow, so they are analyzed again.
                2 => {
                    let mut batch = growth_batch(&cfg, 10, 4);
                    let keys: Vec<Option<i64>> = batch[0].i64_values().unwrap().collect();
                    let row = keys.iter().position(|k| k.is_some_and(|k| k < 30)).unwrap();
                    let mut nu = batch[1].f64_data().unwrap().to_vec();
                    assert!(!cfg.frequencies.contains(&0.21));
                    nu[row] = 0.21;
                    batch[1] = Column::from_f64(nu);
                    batches.push(batch);
                }
                // Enough rows to cross the legal filter's power of two
                // of bits: it is built again.
                3 => {
                    let capacity = filter_bits(&full) / 10;
                    assert!(rows <= capacity, "{ctx}: {rows} rows in {capacity}");
                    batches.push(growth_batch(&cfg, capacity + 1 - rows, 5));
                }
                // A table replaced behind the engine, one old row
                // changed: it proves nothing, so every group is fitted.
                _ => {
                    let table = db.table(TABLE).unwrap();
                    let mut columns = table.columns().to_vec();
                    let mut intensity = columns[2].f64_data().unwrap().to_vec();
                    intensity[0] *= 3.0;
                    columns[2] = Column::from_f64(intensity);
                    let replaced = Table::new(TABLE, table.schema().clone(), columns).unwrap();
                    keys.extend(replaced.column("source").unwrap().i64_values().unwrap().flatten());
                    db.tables().replace(replaced);
                }
            }
            for batch in &batches {
                keys.extend(batch[0].i64_values().unwrap().flatten());
                db.append_rows(TABLE, batch).unwrap();
            }
            let table = db.table(TABLE).unwrap();
            let (before, iterations_before) = (fitted(&db), iterations(&db));
            let rows_before = rows_fitted(&db);
            let got_full = db.refit(full.id, &options).unwrap();
            let full_fitted = fitted(&db) - before;
            let full_iterations = iterations(&db) - iterations_before;
            let full_rows = rows_fitted(&db) - rows_before;
            let got_partial = db.refit(partial.id, &options).unwrap();
            let partial_fitted = fitted(&db) - before - full_fitted;
            let partial_iterations = iterations(&db) - iterations_before - full_iterations;
            let partial_rows = rows_fitted(&db) - rows_before - full_rows;
            let (want_full, want_partial) = cold(&table);
            assert_same_fit(&got_full, &want_full, &format!("{ctx}, full"));
            assert_same_fit(&got_partial, &want_partial, &format!("{ctx}, partial"));
            let grew = got_full.coverage.domains[0].1.len() > full.coverage.domains[0].1.len();
            assert_eq!(grew, cycle == 2, "{ctx}: the domain grows at the new frequency");
            let doubled = filter_bits(&got_full) == 2 * filter_bits(&full);
            assert_eq!(doubled, cycle == 3, "{ctx}: the filter doubles once");
            // Exactly the touched groups were fitted: after small
            // appends about a third of them, after the replace every one.
            assert_eq!(full_fitted, keys.len() as u64, "{ctx}: groups fitted");
            assert!(cycle >= 3 || keys.len() < full.params.rows() / 2, "{ctx}: {keys:?}");
            let covered = keys.range(..30).count() as u64;
            assert_eq!(partial_fitted, covered, "{ctx}: partial groups fitted");
            // The fit and its residual pass read the touched groups'
            // rows, not the table's.
            let source = table.column("source").unwrap();
            let touched_rows = |covered: &dyn Fn(i64) -> bool| -> u64 {
                let of = source.i64_values().unwrap().flatten();
                of.filter(|&k| keys.contains(&k) && covered(k)).count() as u64
            };
            assert_eq!(full_rows, touched_rows(&|_| true), "{ctx}: rows fitted");
            assert_eq!(partial_rows, touched_rows(&|k| k < 30), "{ctx}: partial rows fitted");
            assert!(cycle >= 3 || full_rows < table.row_count() as u64 / 2, "{ctx}: {full_rows}");
            // The iteration counter rises by the refitted groups' sum,
            // read from the cold fit's report of those groups.
            let (_, report) = fit_table_grouped(&table, FORMULA, "source", &options, 1).unwrap();
            let sum = |touched: &dyn Fn(i64) -> bool| -> u64 {
                let fits = report.fits.iter().filter(|g| touched(g.key));
                fits.filter_map(|g| g.outcome.as_ref().ok()).map(|f| f.iterations as u64).sum()
            };
            assert!(full_iterations > 0, "{ctx}: no iteration counted");
            assert_eq!(full_iterations, sum(&|k| keys.contains(&k)), "{ctx}: iterations");
            let partial_sum = sum(&|k| k < 30 && keys.contains(&k));
            assert_eq!(partial_iterations, partial_sum, "{ctx}: partial iterations");
            assert_eq!(got_partial.coverage.predicate.as_deref(), Some(COVERAGE));
            // Each refit retired only its own model's versions.
            for fresh in [&got_full, &got_partial] {
                let state = db.models().get(fresh.id).unwrap().state;
                assert_eq!(state, ModelState::Active, "{ctx}: model {:?}", fresh.id);
            }
            (full, partial) = (got_full, got_partial);
        }
        // The NULL source and each one-row source have no parameters.
        assert!(full.params.keys.iter().all(|&k| k < 60 || (k - 60) % 2 == 0), "seed {seed}");
    }
}

/// Table 1: a grouped capture with default options turns the
/// measurements into one (source, α, p, residual SE) row per source, and
/// each well-behaved source's α is the one it was generated with.
#[test]
fn a_default_capture_yields_table_one() {
    let cfg =
        LofarConfig { noise_rel: 0.02, anomaly_fraction: 0.05, ..LofarConfig::with_sources(200) };
    let data = LofarDataset::generate(&cfg);
    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(data.table.clone()).unwrap();
    let options = lawsdb::fit::FitOptions::default();
    let model = db
        .capture_model(TABLE, "intensity ~ p * nu ^ alpha", Some("source"), &options)
        .unwrap();
    let params = &model.params;
    assert_eq!(params.names, ["alpha", "p"]);
    assert_eq!(params.keys, (0..200).collect::<Vec<i64>>(), "every source has a row");
    assert!(params.residual_se.iter().all(|se| se.is_finite() && *se > 0.0));
    assert!(!data.anomalies.is_empty());
    for (row, truth) in data.truth.iter().enumerate() {
        if truth.anomaly.is_none() {
            let alpha = params.values[0][row];
            let p = params.values[1][row];
            let ctx = format!("source {}: α {alpha}, p {p} vs {truth:?}", truth.source);
            assert!((alpha - truth.alpha).abs() < 0.1, "{ctx}");
            assert!((p / truth.p - 1.0).abs() < 0.5, "{ctx}");
        }
    }
    assert_eq!(db.metrics().snapshot().counter("lawsdb_fit_groups_fitted"), 200);
    assert!(db.metrics().snapshot().counter("lawsdb_fit_lm_iterations") > 0);
}
