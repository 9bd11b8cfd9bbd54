//! End-to-end distributed query tracing: one client-requested trace
//! stitches the admission queue wait, frame decode/encode, per-shard
//! scatter-gather phases (fetch / execute / gather), replica failover
//! attempts, and total-loss model fallback into a single tree — pinned
//! byte-identical across runs under a `MockClock` — and the same query
//! lands in the slow-query flight recorder with its dominant layer
//! correctly attributed. The encode span charges the result body the
//! session ships, encoded once.
//!
//! Faults are seeded: `LAWSDB_FAULT_SEED=<seed>` is printed, and
//! re-running with it set reproduces the exact shard choices.

use lawsdb_cluster::{Cluster, ClusterConfig, PartitionScheme};
use lawsdb_core::LawsDb;
use lawsdb_obs::{dominant_layer, FieldValue, MockClock, RecorderConfig, TraceNode, LAYERS};
use lawsdb_server::{
    Client, ClientError, Frame, QueryMode, Server, ServerConfig, WireError, WireResult,
};
use lawsdb_storage::{Table, TableBuilder};
use std::sync::Arc;

fn seed() -> u64 {
    let s = lawsdb_storage::fault::fault_seed();
    println!("LAWSDB_FAULT_SEED={s} (set to reproduce)");
    s
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Noise-free power-law measurements: per-shard fitted models
/// reconstruct intensity essentially exactly, so total-loss model
/// fallback stays inside the residual bound.
fn lofar() -> Table {
    let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
    let laws: [(f64, f64); 4] = [(2.0, -0.7), (0.5, -1.2), (1.0, 0.3), (3.0, -0.5)];
    let mut src = Vec::new();
    let mut nu = Vec::new();
    let mut intensity = Vec::new();
    for (s, &(p, a)) in laws.iter().enumerate() {
        for i in 0..40 {
            src.push(s as i64);
            nu.push(freqs[i % 4]);
            intensity.push(p * freqs[i % 4].powf(a));
        }
    }
    let mut b = TableBuilder::new("measurements");
    b.add_i64("source", src);
    b.add_f64("nu", nu);
    b.add_f64("intensity", intensity);
    let mut t = b.build().unwrap();
    t.rebuild_synopsis_with(16);
    t
}

const AVG_SQL: &str =
    "SELECT source, AVG(intensity) AS m FROM measurements GROUP BY source ORDER BY source";

/// A server over a 3×2 sharded cluster with captured per-shard models,
/// timed by a fresh `MockClock`, flight recorder on.
fn traced_server() -> (Arc<Server>, Arc<Cluster>) {
    let db = LawsDb::new();
    let t = lofar();
    db.register_table(t.clone()).unwrap();
    let cluster = Arc::new(
        Cluster::new(
            &t,
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
        .unwrap(),
    );
    cluster
        .capture_models("intensity ~ p * nu ^ alpha", "source", &lawsdb_fit::FitOptions::default(), 2)
        .unwrap();
    let server = Server::new(
        Arc::new(db),
        ServerConfig {
            clock: Arc::new(MockClock::new(3)),
            recorder: RecorderConfig::default(),
            ..ServerConfig::default()
        },
    );
    server.attach_cluster(Arc::clone(&cluster));
    (server, cluster)
}

/// Run the acceptance scenario once: a seed-chosen populated shard
/// loses one replica (failover), a different populated shard loses
/// every replica (model fallback), and one traced cluster query runs
/// through the full wire path. Returns the trace and the slowlog.
fn faulted_traced_query(
    state: &mut u64,
) -> (TraceNode, u64, Vec<lawsdb_obs::FlightRecord>) {
    let (server, cluster) = traced_server();
    let populated: Vec<usize> =
        (0..cluster.config().shards).filter(|&s| cluster.shard_rows(s) > 0).collect();
    assert!(populated.len() >= 2, "need two populated shards, got {populated:?}");
    let failover_at = populated[(splitmix64(state) as usize) % populated.len()];
    let lost = *populated.iter().find(|&&s| s != failover_at).unwrap();
    cluster.kill_replica(failover_at, 0);
    cluster.kill_shard(lost);

    let mut c = Client::connect(server.connect()).unwrap();
    let r = c.query_traced(QueryMode::Cluster, AVG_SQL).unwrap();
    assert!(r.approximate, "total shard loss must degrade to the model");
    assert!(r.query_id > 0, "the server must mint a nonzero query id");
    let trace = r.trace.expect("a traced query must carry its trace tree");
    let slowlog = c.slowlog(8).unwrap();
    c.close().unwrap();
    (trace, r.query_id, slowlog)
}

#[test]
fn distributed_trace_is_complete_deterministic_and_slowlogged() {
    let s = seed();

    let mut state = s;
    let (trace, query_id, slowlog) = faulted_traced_query(&mut state);

    // -- Span taxonomy: every layer of the distributed query is there.
    assert!(!trace.find("server.admission").is_empty(), "missing queue-wait span:\n{trace}");
    assert!(!trace.find("server.decode").is_empty(), "missing decode span:\n{trace}");
    assert!(!trace.find("server.encode").is_empty(), "missing encode span:\n{trace}");
    for phase in ["cluster.fetch", "cluster.execute", "cluster.gather"] {
        assert!(!trace.find(phase).is_empty(), "missing {phase} span:\n{trace}");
    }
    // Failover attempt and health outcome are structured child spans.
    assert!(!trace.find("cluster.failover").is_empty(), "missing failover point:\n{trace}");
    // Total shard loss surfaces as a model-fallback point carrying the
    // degrade reason.
    let fallbacks = trace.find("cluster.model_fallback");
    assert!(!fallbacks.is_empty(), "missing model fallback point:\n{trace}");
    assert_eq!(
        fallbacks[0].field("reason").map(ToString::to_string).as_deref(),
        Some("shard_model_fallback"),
        "fallback must carry its reason:\n{trace}"
    );
    // The engine's morsel-grammar leaves are stitched under the shard
    // execute spans — one tree from wire to morsel.
    let executes = trace.find("cluster.execute");
    assert!(
        executes.iter().any(|e| !e.find("morsel").is_empty()),
        "missing engine morsel leaves under cluster.execute:\n{trace}"
    );

    // -- Determinism: a fresh server + cluster + MockClock and the same
    // seed reproduce the trace byte for byte.
    let mut state = s;
    let (again, _, _) = faulted_traced_query(&mut state);
    assert_eq!(trace.render(), again.render(), "trace must be byte-identical across runs");

    // -- Flight recorder: the same query is in the slowlog, worst
    // first, with its dominant layer correctly attributed.
    let rec = slowlog
        .iter()
        .find(|r| r.query_id == query_id)
        .expect("the traced query must appear in the slowlog");
    assert_eq!(rec.sql, AVG_SQL);
    assert_eq!(rec.mode, "cluster");
    assert!(rec.error.is_none());
    assert!(rec.total_us > 0);
    let kept = rec.trace.as_ref().expect("slowlog entries keep the full trace");
    assert_eq!(kept.render(), trace.render(), "recorder must hold the same tree");
    // Dominant-layer attribution recomputes from the tree itself.
    let (want_layer, want_us) = dominant_layer(&rec.layers);
    assert_eq!(rec.dominant_layer, want_layer);
    assert_eq!(rec.dominant_us, want_us);
    assert!(
        LAYERS.contains(&rec.dominant_layer.as_str()),
        "dominant layer {} must be canonical",
        rec.dominant_layer
    );
    assert!(
        rec.layers.iter().any(|(l, _)| l == "fetch") && rec.layers.iter().any(|(l, _)| l == "execute"),
        "cluster phases must be attributed: {:?}",
        rec.layers
    );
    // Frame decode is a span on the server clock: the decode layer is
    // credited with it, and the root starts where the decode started,
    // so the query's total includes it.
    let decode = trace.find("server.decode")[0];
    assert_eq!(decode.duration_us, Some(3), "one MockClock step:\n{trace}");
    assert_eq!(decode.start_us, trace.start_us, "root must start at decode:\n{trace}");
    assert!(
        rec.layers.iter().any(|(l, us)| l == "decode" && *us == 3),
        "decode must be attributed: {:?}",
        rec.layers
    );
}

#[test]
fn queue_wait_runs_on_the_mockable_server_clock() {
    // The queue-wait measurement must come from the server's clock
    // (mockable), not a raw `Instant` — a MockClock stepping 5 µs per
    // reading makes every wait a nonzero multiple of 5.
    let db = LawsDb::new();
    let mut b = TableBuilder::new("t");
    b.add_i64("g", vec![1, 2, 3, 4]);
    db.register_table(b.build().unwrap()).unwrap();
    let server = Server::new(
        Arc::new(db),
        ServerConfig { clock: Arc::new(MockClock::new(5)), ..ServerConfig::default() },
    );
    let mut c = Client::connect(server.connect()).unwrap();
    let r = c.query_exact("SELECT COUNT(*) FROM t").unwrap();
    assert!(r.queue_us > 0, "mock clock steps on every reading; wait cannot be zero");
    assert_eq!(r.queue_us % 5, 0, "queue wait must be measured on the mock clock");
    assert_eq!(r.service_us % 5, 0, "service time must be measured on the mock clock");
    c.close().unwrap();
}

#[test]
fn untraced_queries_carry_ids_but_no_tree_and_failures_reach_the_slowlog() {
    let db = LawsDb::new();
    let mut b = TableBuilder::new("t");
    b.add_i64("g", vec![1, 2, 3, 4]);
    db.register_table(b.build().unwrap()).unwrap();
    let server = Server::new(
        Arc::new(db),
        ServerConfig { clock: Arc::new(MockClock::new(3)), ..ServerConfig::default() },
    );
    let mut c = Client::connect(server.connect()).unwrap();

    // Plain query: id stamped, no tree shipped, still recorded.
    let r = c.query_exact("SELECT COUNT(*) FROM t").unwrap();
    assert!(r.query_id > 0);
    assert!(r.trace.is_none(), "untraced queries must not pay for the tree on the wire");

    // A failing query is admitted to the recorder with its error.
    let err = c.query_exact("SELECT nope FROM t");
    assert!(matches!(err, Err(ClientError::Server(WireError::Query { .. }))));

    let log = c.slowlog(8).unwrap();
    assert_eq!(log.len(), 2, "both queries must be recorded");
    assert!(log.iter().any(|e| e.error.is_none() && e.sql.contains("COUNT")));
    let failed = log.iter().find(|e| e.error.is_some()).expect("failure must be recorded");
    assert!(failed.sql.contains("nope"));
    assert!(failed.trace.is_some(), "failed queries keep their partial trace");
    c.close().unwrap();
}

#[test]
fn recorder_capacity_zero_disables_profiling_but_tracing_still_works() {
    let db = LawsDb::new();
    let mut b = TableBuilder::new("t");
    b.add_i64("g", vec![1, 2, 3, 4]);
    db.register_table(b.build().unwrap()).unwrap();
    let server = Server::new(
        Arc::new(db),
        ServerConfig {
            recorder: RecorderConfig { capacity: 0, ..RecorderConfig::default() },
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(server.connect()).unwrap();
    // No recorder and no trace request: nothing is collected.
    let plain = c.query_exact("SELECT COUNT(*) FROM t").unwrap();
    assert!(plain.trace.is_none());
    assert!(c.slowlog(8).unwrap().is_empty(), "capacity 0 must record nothing");
    // An explicit trace request still collects, ships, and is not kept.
    let traced = c.query_traced(QueryMode::Exact, "SELECT COUNT(*) FROM t").unwrap();
    assert!(traced.trace.is_some(), "explicit trace requests bypass the disabled recorder");
    assert!(c.slowlog(8).unwrap().is_empty());
    c.close().unwrap();
}

#[test]
fn encode_span_charges_the_shipped_payload_less_the_trace_tail() {
    let db = LawsDb::new();
    let mut b = TableBuilder::new("t");
    b.add_i64("g", (0..100).collect());
    b.add_str("s", (0..100).map(|i| format!("row {i}")).collect());
    db.register_table(b.build().unwrap()).unwrap();
    let server = Server::new(Arc::new(db), ServerConfig::default());
    let mut c = Client::connect(server.connect()).unwrap();
    let r = c.query_traced(QueryMode::Exact, "SELECT g, s FROM t").unwrap();
    let trace = r.trace.clone().expect("a traced query carries its tree");
    let charged = match trace.find("server.encode")[0].field("bytes") {
        Some(FieldValue::U64(n)) => *n as usize,
        other => panic!("server.encode carries no byte count: {other:?}"),
    };
    // The shipped payload re-encodes byte for byte; its tail is the
    // trace's presence byte and the tree.
    let shipped = Frame::ResultSet(Box::new(r.clone())).encode().len();
    let untraced = Frame::ResultSet(Box::new(WireResult { trace: None, ..r })).encode().len();
    let tail = 1 + (shipped - untraced);
    assert_eq!(charged, shipped - tail);
    c.close().unwrap();
}
