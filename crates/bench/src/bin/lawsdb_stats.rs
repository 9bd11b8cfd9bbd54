//! Metrics exposition and `EXPLAIN ANALYZE` from the command line.
//!
//! ```text
//! cargo run --release -p lawsdb-bench --bin lawsdb-stats -- prom
//! cargo run --release -p lawsdb-bench --bin lawsdb-stats -- json
//! cargo run --release -p lawsdb-bench --bin lawsdb-stats -- plan \
//!     "SELECT y FROM t WHERE x >= 15000 AND y <= 32000"
//! cargo run --release -p lawsdb-bench --bin lawsdb-stats -- explain \
//!     "SELECT y FROM t WHERE x >= 15000 AND y <= 32000"
//! ```
//!
//! Each subcommand spins up a demo engine — `t(x, y = 2x)` with a
//! captured linear law, so the resilient ladder has a model to try and
//! the zone maps of both columns have ranges to refute — runs a short
//! mixed workload through the resilient path, and renders the asked-for view: the engine's metrics registry
//! as Prometheus text (`prom`) or JSON (`json`), the cost-based
//! physical plan with estimated rows/cost per node (`plan`), or the
//! per-query profile tree for one statement (`explain`). The same
//! views are available programmatically via `LawsDb::stats_prometheus`,
//! `LawsDb::stats_json`, `LawsDb::explain`, and
//! `Session::explain_analyze`.

use lawsdb_cluster::{Cluster, ClusterConfig, PartitionScheme, ReplicaState};
use lawsdb_core::{AnswerMode, LawsDb};
use lawsdb_fit::FitOptions;
use lawsdb_obs::{MetricsRegistry, MockClock, RecorderConfig};
use lawsdb_query::{ExecOptions, ResourceBudget};
use lawsdb_server::{Client, QueryMode, Server, ServerConfig};
use lawsdb_storage::{Table, TableBuilder};
use std::sync::Arc;

const ROWS: usize = 20_000;

/// The demo engine every subcommand runs against.
fn demo_engine() -> LawsDb {
    let mut b = TableBuilder::new("t");
    b.add_f64("x", (0..ROWS).map(|i| i as f64).collect());
    b.add_f64("y", (0..ROWS).map(|i| 2.0 * i as f64).collect());
    let db = LawsDb::new().with_exec_options(ExecOptions {
        budget: ResourceBudget {
            max_rows: Some(10 * ROWS),
            ..ResourceBudget::default()
        },
        ..ExecOptions::default()
    });
    db.register_table(b.build().expect("demo table builds")).expect("registers");
    db.capture_model("t", "y ~ a + b * x", None, &FitOptions::default())
        .expect("perfect linear law passes the quality gate");
    db
}

/// A short mixed workload so the exposition has non-zero counters:
/// a zone-pruned range scan and an aggregate.
fn warm(db: &LawsDb) {
    for sql in [
        "SELECT y FROM t WHERE x >= 15000 AND y <= 32000",
        "SELECT COUNT(*) AS n, MAX(y) AS hi FROM t WHERE y > 30000",
    ] {
        db.answer(sql, AnswerMode::Resilient, &db.exec).expect("demo workload runs");
    }
}

/// The demo cluster: a law-structured table (`intensity = p * nu^alpha`
/// per source) hash-sharded on `source` across 3 shards × 2 replicas,
/// with one captured model per shard so total shard loss can degrade.
/// Walks the failure ladder — healthy, one replica dead (failover),
/// whole shard dead (model fallback) — then renders per-shard health
/// and the `lawsdb_cluster_*` metrics.
fn demo_measurements() -> Table {
    let laws: [(f64, f64); 4] = [(2.0, -0.7), (0.5, -1.2), (1.0, 0.3), (3.0, -0.5)];
    let nus = [0.12, 0.15, 0.16, 0.18];
    let mut source = Vec::new();
    let mut nu = Vec::new();
    let mut intensity = Vec::new();
    for (s, &(p, alpha)) in laws.iter().enumerate() {
        for i in 0..50 {
            source.push(s as i64);
            let x: f64 = nus[i % nus.len()];
            nu.push(x);
            intensity.push(p * x.powf(alpha));
        }
    }
    let mut b = TableBuilder::new("measurements");
    b.add_i64("source", source);
    b.add_f64("nu", nu);
    b.add_f64("intensity", intensity);
    let mut t = b.build().expect("demo table builds");
    t.rebuild_synopsis_with(16);
    t
}

fn demo_cluster() {
    let table = demo_measurements();
    let registry = MetricsRegistry::new();
    let cluster = Cluster::new(
        &table,
        ClusterConfig {
            shards: 3,
            replicas: 2,
            scheme: PartitionScheme::Hash { key: "source".to_string() },
            ..ClusterConfig::default()
        },
        &registry,
    )
    .expect("demo cluster builds");
    cluster
        .capture_models("intensity ~ p * nu ^ alpha", "source", &FitOptions::default(), 1)
        .expect("perfect power law passes the quality gate");

    let sql = "SELECT source, AVG(intensity) AS m FROM measurements \
               GROUP BY source ORDER BY source";
    let opts = ExecOptions { threads: 1, ..ExecOptions::default() };
    let show = |label: &str, a: &lawsdb_cluster::ClusterAnswer| {
        println!("-- {label}: {} rows, approximate={}", a.table.row_count(), a.approximate);
        for d in &a.degraded {
            println!("   degraded: {}", d.name());
        }
    };

    let healthy = cluster.query(sql, &opts).expect("healthy query");
    show("healthy", &healthy);
    cluster.kill_replica(0, 0);
    let failover = cluster.query(sql, &opts).expect("failover query");
    show("replica 0.0 dead (failover)", &failover);
    cluster.kill_shard(1);
    // Twice: the second crossing of `fail_threshold` marks shard 1's
    // replicas Down, so the health table below shows the transition.
    cluster.query(sql, &opts).expect("model fallback query");
    let degraded = cluster.query(sql, &opts).expect("model fallback query");
    show("shard 1 fully dead (model fallback)", &degraded);

    println!("\nper-shard health:");
    for s in 0..cluster.config().shards {
        let states: Vec<String> = (0..cluster.config().replicas)
            .map(|r| match cluster.replica_state(s, r) {
                ReplicaState::Up => format!("r{r}=up"),
                ReplicaState::Down => format!("r{r}=down"),
            })
            .collect();
        println!(
            "  shard {s}: {} rows, {}/{} replicas up  [{}]",
            cluster.shard_rows(s),
            cluster.replicas_up(s),
            cluster.config().replicas,
            states.join(" ")
        );
    }

    println!("\ncluster metrics:");
    for line in registry.snapshot().render_prometheus().lines() {
        if line.starts_with("lawsdb_cluster_") {
            println!("  {line}");
        }
    }
}

/// The slow-query flight recorder, end to end: a server over the demo
/// cluster, timed by a `MockClock` so every duration is deterministic,
/// with one replica dead (in-trace failover) and one shard fully dead
/// (in-trace model fallback). Runs a traced cluster query and a plain
/// exact query, then prints the recorder's worst entries with their
/// per-layer attribution and full trace trees — exactly what
/// `Client::slowlog` returns over the wire.
fn demo_slowlog() {
    let table = demo_measurements();
    let db = LawsDb::new();
    db.register_table(table.clone()).expect("registers");
    let cluster = Arc::new(
        Cluster::new(
            &table,
            ClusterConfig {
                shards: 3,
                replicas: 2,
                scheme: PartitionScheme::Hash { key: "source".to_string() },
                fail_threshold: 1,
                probe_after: 1,
                max_abs_residual: 1e-6,
            },
            db.metrics(),
        )
        .expect("demo cluster builds"),
    );
    cluster
        .capture_models("intensity ~ p * nu ^ alpha", "source", &FitOptions::default(), 2)
        .expect("perfect power law passes the quality gate");
    let server = Server::new(
        Arc::new(db),
        ServerConfig {
            clock: Arc::new(MockClock::new(3)),
            recorder: RecorderConfig::default(),
            ..ServerConfig::default()
        },
    );
    server.attach_cluster(Arc::clone(&cluster));

    // Pick two populated shards deterministically: the first loses one
    // replica (failover inside the trace), the second loses both
    // (model fallback inside the trace).
    let populated: Vec<usize> =
        (0..cluster.config().shards).filter(|&s| cluster.shard_rows(s) > 0).collect();
    cluster.kill_replica(populated[0], 0);
    cluster.kill_shard(populated[1]);

    let sql = "SELECT source, AVG(intensity) AS m FROM measurements \
               GROUP BY source ORDER BY source";
    let mut c = Client::connect(server.connect()).expect("connects");
    c.query_traced(QueryMode::Cluster, sql).expect("traced cluster query");
    c.query_exact("SELECT COUNT(*) AS n FROM measurements").expect("exact query");
    let entries = c.slowlog(8).expect("slowlog");

    println!("slow queries (worst first):");
    for (i, e) in entries.iter().enumerate() {
        let status = e.error.as_deref().unwrap_or("ok");
        println!();
        println!(
            "#{} query {}  mode={}  total={} us  status={}",
            i + 1,
            e.query_id,
            e.mode,
            e.total_us,
            status
        );
        println!("  {}", e.sql);
        let layers: Vec<String> =
            e.layers.iter().map(|(l, us)| format!("{l}={us}")).collect();
        println!(
            "  layers: {}  dominant={} ({} us)",
            layers.join(" "),
            e.dominant_layer,
            e.dominant_us
        );
        if let Some(t) = &e.trace {
            for line in t.render().lines() {
                println!("  {line}");
            }
        }
    }
    c.close().expect("close");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("prom") => {
            let db = demo_engine();
            warm(&db);
            print!("{}", db.stats_prometheus());
        }
        Some("json") => {
            let db = demo_engine();
            warm(&db);
            println!("{}", db.stats_json());
        }
        Some("plan") => {
            let sql = args
                .get(1)
                .map(String::as_str)
                .unwrap_or("SELECT y FROM t WHERE x >= 15000 AND y <= 32000");
            let db = demo_engine();
            match db.explain(sql) {
                Ok(text) => print!("{text}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2)
                }
            }
        }
        Some("explain") => {
            let sql = args
                .get(1)
                .map(String::as_str)
                .unwrap_or("SELECT y FROM t WHERE x >= 15000 AND y <= 32000");
            let db = demo_engine();
            match db.session().explain_analyze(sql) {
                Ok(tree) => print!("{tree}"),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2)
                }
            }
        }
        Some("cluster") => demo_cluster(),
        Some("slowlog") => demo_slowlog(),
        _ => {
            eprintln!(
                "usage: lawsdb-stats <prom|json|plan [SQL]|explain [SQL]|cluster|slowlog>\n\
                 \x20 prom     render the demo engine's metrics as Prometheus text\n\
                 \x20 json     render the demo engine's metrics as JSON\n\
                 \x20 plan     print one statement's cost-based EXPLAIN (estimates, no run)\n\
                 \x20 explain  run one statement and print its EXPLAIN ANALYZE tree\n\
                 \x20 cluster  walk the demo cluster's failure ladder; print shard health \
                 and lawsdb_cluster_* metrics\n\
                 \x20 slowlog  run traced queries against a faulted demo cluster and print \
                 the flight recorder's worst entries"
            );
            std::process::exit(2)
        }
    }
}
