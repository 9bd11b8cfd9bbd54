//! Concurrent sessions over one shared engine: N clients issuing mixed
//! exact / model / resilient / adaptive queries at once must produce
//! results **bit-identical** to serial execution, and one session's
//! cancel, timeout, or kernel panic must never perturb its siblings.
//!
//! Schedules are seeded (`LAWSDB_FAULT_SEED=<seed>` is printed); the
//! deliberate faults ride the server's test-only `FAULT` directives,
//! which exercise the real morsel-level catch-unwind and governor
//! paths end-to-end over the wire.

use lawsdb_core::LawsDb;
use lawsdb_fit::FitOptions as RawFitOptions;
use lawsdb_server::{
    AdmissionConfig, Client, ClientError, QueryMode, Server, ServerConfig, SessionOptions,
    WireError, WireResult,
};
use lawsdb_storage::TableBuilder;
use std::sync::Arc;
use std::time::Duration;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn seed() -> u64 {
    let s = lawsdb_storage::fault::fault_seed();
    println!("LAWSDB_FAULT_SEED={s}");
    s
}

/// The shared engine: a power-law table with a captured model (so the
/// resilient/adaptive paths have a real model rung to take) plus a
/// model-less table (so the `no_model` degradation rung is exercised).
fn shared_db() -> Arc<LawsDb> {
    let db = LawsDb::new();
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
    db.register_table(b.build().unwrap()).unwrap();
    db.capture_model(
        "measurements",
        "intensity ~ p * nu ^ alpha",
        Some("source"),
        &RawFitOptions::default(),
    )
    .unwrap();

    let mut plain = TableBuilder::new("plain");
    plain.add_i64("g", (0..200).map(|i| i % 7).collect());
    plain.add_f64("v", (0..200).map(|i| i as f64 * 0.25 - 20.0).collect());
    db.register_table(plain.build().unwrap()).unwrap();
    Arc::new(db)
}

fn test_server(admission: AdmissionConfig) -> Arc<Server> {
    Server::new(
        shared_db(),
        ServerConfig { admission, fault_injection: true, ..ServerConfig::default() },
    )
}

/// The mixed workload every session replays: exact aggregates, a
/// model-path resilient hit, a `no_model` resilient fallback, adaptive,
/// and a model point query.
const WORKLOAD: &[(QueryMode, &str)] = &[
    (QueryMode::Exact, "SELECT COUNT(*) FROM measurements"),
    (QueryMode::Exact, "SELECT source, AVG(intensity) FROM measurements GROUP BY source"),
    (QueryMode::Exact, "SELECT g, SUM(v) FROM plain GROUP BY g"),
    (QueryMode::Exact, "SELECT v FROM plain WHERE g = 3"),
    (
        QueryMode::Resilient,
        "SELECT intensity FROM measurements WHERE source = 1 AND nu = 0.15",
    ),
    (QueryMode::Resilient, "SELECT AVG(v) FROM plain"),
    (
        QueryMode::Adaptive,
        "SELECT intensity FROM measurements WHERE source = 2 AND nu = 0.18",
    ),
    (QueryMode::Adaptive, "SELECT MAX(v) FROM plain"),
];

/// The comparable portion of a result: everything except the
/// per-execution timings.
fn comparable(r: &WireResult) -> (String, bool, Option<u64>, Vec<String>, u64) {
    (
        format!("{:?}", r.table),
        r.approximate,
        r.error_bound.map(f64::to_bits),
        r.degraded.clone(),
        r.rows_scanned,
    )
}

#[test]
fn eight_concurrent_sessions_match_serial_execution_bit_for_bit() {
    let server = test_server(AdmissionConfig::default());

    // Serial reference: one session runs the workload alone.
    let mut reference = Vec::new();
    let mut serial = Client::connect(server.connect()).unwrap();
    for &(mode, sql) in WORKLOAD {
        reference.push(comparable(&serial.query(mode, sql).unwrap()));
    }
    serial.close().unwrap();

    // 8 concurrent sessions, each replaying the workload several times
    // in a seeded per-client order.
    let base_seed = seed();
    let reference = Arc::new(reference);
    let handles: Vec<_> = (0..8)
        .map(|client_id| {
            let server = Arc::clone(&server);
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut rng = Rng(base_seed ^ (client_id as u64).wrapping_mul(0x9E37));
                let mut client = Client::connect(server.connect()).unwrap();
                for round in 0..3 {
                    // A seeded permutation: every query runs each round,
                    // in an order that differs per client and round.
                    let mut order: Vec<usize> = (0..WORKLOAD.len()).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
                    }
                    for qi in order {
                        let (mode, sql) = WORKLOAD[qi];
                        let got = comparable(&client.query(mode, sql).unwrap());
                        assert_eq!(
                            got, reference[qi],
                            "client {client_id} round {round} query {qi} diverged from serial"
                        );
                    }
                }
                client.close().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread must not panic");
    }

    // All sessions tear down cleanly. The Goodbye reply races the
    // server thread's unregister by design, so drain briefly.
    for _ in 0..200 {
        if server.sessions().active() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.sessions().active(), 0);
    assert_eq!(server.admission().active(), 0);
}

#[test]
fn explain_is_identical_across_concurrent_sessions() {
    let server = test_server(AdmissionConfig::default());
    let sql = "SELECT source, AVG(intensity) FROM measurements GROUP BY source";
    let mut c = Client::connect(server.connect()).unwrap();
    let reference = c.explain(sql).unwrap();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let server = Arc::clone(&server);
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(server.connect()).unwrap();
                for _ in 0..5 {
                    assert_eq!(c.explain(sql).unwrap(), reference);
                }
                c.close().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    c.close().unwrap();
}

/// Expect a query-kind error and return its detail.
fn expect_query_error(r: Result<WireResult, ClientError>, kind: &str) -> String {
    match r {
        Err(ClientError::Server(WireError::Query { kind: k, detail })) if k == kind => detail,
        other => panic!("expected a structured `{kind}` error, got {other:?}"),
    }
}

#[test]
fn cancelling_one_session_never_perturbs_siblings() {
    let server = test_server(AdmissionConfig {
        max_concurrent_queries: 4,
        ..AdmissionConfig::default()
    });
    let mut victim = Client::connect(server.connect()).unwrap();
    let victim_id = victim.session_id();

    // The victim runs a long cancellable query on its own thread.
    let victim_thread = std::thread::spawn(move || {
        let detail =
            expect_query_error(victim.query_exact("FAULT SLEEP 30000 300"), "cancelled");
        (victim, detail)
    });

    // A sibling cancels it by session id, then keeps working.
    let mut sibling = Client::connect(server.connect()).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    assert!(sibling.cancel(victim_id).unwrap(), "cancel must reach the running query");

    let (mut victim, detail) = victim_thread.join().unwrap();
    assert!(detail.contains("cancel"), "{detail}");

    // The cancelled session survives and runs the next query fine...
    let r = victim.query_exact("SELECT COUNT(*) FROM plain").unwrap();
    assert_eq!(r.table.row_count(), 1);
    // ...and the sibling never felt a thing.
    let r = sibling.query_exact("SELECT COUNT(*) FROM measurements").unwrap();
    assert_eq!(r.table.row_count(), 1);
    victim.close().unwrap();
    sibling.close().unwrap();
}

#[test]
fn per_session_deadline_trips_only_its_own_query() {
    let server = test_server(AdmissionConfig {
        max_concurrent_queries: 4,
        ..AdmissionConfig::default()
    });
    let mut hasty = Client::connect_with(
        server.connect(),
        SessionOptions { deadline_ms: Some(120), ..SessionOptions::default() },
    )
    .unwrap();
    let mut patient = Client::connect(server.connect()).unwrap();

    let detail = expect_query_error(hasty.query_exact("FAULT SLEEP 10000 100"), "timeout");
    assert!(detail.contains("budget"), "{detail}");

    // The timed-out session is still serviceable, and an un-budgeted
    // sibling runs the same shape of query to completion.
    let r = hasty.query_exact("SELECT COUNT(*) FROM plain").unwrap();
    assert_eq!(r.table.row_count(), 1);
    let r = patient.query_exact("FAULT SLEEP 100 4").unwrap();
    assert_eq!(r.table.name(), "fault_sleep");
    hasty.close().unwrap();
    patient.close().unwrap();
}

#[test]
fn a_panicking_kernel_is_contained_to_its_own_query() {
    let server = test_server(AdmissionConfig::default());
    let mut unlucky = Client::connect(server.connect()).unwrap();
    let mut sibling = Client::connect(server.connect()).unwrap();

    let detail = expect_query_error(unlucky.query_exact("FAULT PANIC"), "worker_panic");
    assert!(detail.contains("panic"), "{detail}");

    // The session that hit the panic keeps serving...
    let r = unlucky.query_exact("SELECT COUNT(*) FROM measurements").unwrap();
    assert_eq!(r.table.row_count(), 1);
    // ...the sibling is untouched...
    let r = sibling
        .query(QueryMode::Resilient, "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.12")
        .unwrap();
    assert!(r.approximate, "the model path must still answer");
    // ...and the admission slot was released despite the panic.
    assert_eq!(server.admission().active(), 0);
    unlucky.close().unwrap();
    sibling.close().unwrap();
}

#[test]
fn session_options_are_isolated_per_session() {
    let server = test_server(AdmissionConfig::default());
    let mut tight = Client::connect_with(
        server.connect(),
        SessionOptions { max_rows: Some(10), ..SessionOptions::default() },
    )
    .unwrap();
    let mut loose = Client::connect(server.connect()).unwrap();

    // The tight session's row budget trips on a 200-row scan...
    let detail =
        expect_query_error(tight.query_exact("SELECT SUM(v) FROM plain"), "row_limit_exceeded");
    assert!(detail.contains("10"), "{detail}");
    // ...while the loose session scans the same table freely.
    let r = loose.query_exact("SELECT SUM(v) FROM plain").unwrap();
    assert_eq!(r.rows_scanned, 200);

    // Options can be replaced mid-session.
    tight.set_options(SessionOptions::default()).unwrap();
    let r = tight.query_exact("SELECT SUM(v) FROM plain").unwrap();
    assert_eq!(r.rows_scanned, 200);
    tight.close().unwrap();
    loose.close().unwrap();
}

#[test]
fn tcp_transport_serves_the_same_protocol() {
    let server = test_server(AdmissionConfig::default());
    let handle = server.serve_tcp("127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr();
    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut client = Client::connect(stream).unwrap();
    let r = client.query_exact("SELECT COUNT(*) FROM measurements").unwrap();
    assert_eq!(r.table.row_count(), 1);
    client.close().unwrap();
    handle.shutdown();
}

#[test]
fn stats_exposition_carries_pushdown_and_plan_cache_counters() {
    use lawsdb_server::StatsFormat;
    let server = test_server(AdmissionConfig::default());
    let mut c = Client::connect(server.connect()).unwrap();
    // An unfiltered global aggregate over data zones takes the
    // zone-synopsis path (`intensity` would not: model capture replaced
    // its zones); running it twice exercises the plan cache too.
    c.query_exact("SELECT COUNT(v), SUM(v) FROM plain").unwrap();
    c.query_exact("SELECT COUNT(v), SUM(v) FROM plain").unwrap();
    let text = c.stats(StatsFormat::Prometheus).unwrap();
    let value = |name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name))
            .unwrap_or_else(|| panic!("{name} missing from exposition:\n{text}"))
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(value("lawsdb_query_zones_agg_synopsis") > 0);
    assert!(value("lawsdb_query_plan_cache_hit") >= 1);
    // Present (and zero) until something actually evicts.
    assert_eq!(value("lawsdb_query_plan_cache_evictions"), 0);
    c.close().unwrap();
}
