//! Admission control over the wire: queue-full rejection with a
//! structured retry hint, queue timeouts honored within tolerance,
//! global concurrency and memory caps held under a seeded burst, and
//! the `lawsdb_server_*` metrics pinned to exact values — asserted both
//! through the registry and through the wire-level Prometheus
//! exposition a real operator would scrape.

use lawsdb_core::LawsDb;
use lawsdb_server::{
    AdmissionConfig, Client, ClientError, Server, ServerConfig, SessionOptions, StatsFormat,
    WireError,
};
use lawsdb_storage::TableBuilder;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn server_with(admission: AdmissionConfig) -> Arc<Server> {
    let db = LawsDb::new();
    let mut b = TableBuilder::new("t");
    b.add_i64("g", (0..100).map(|i| i % 5).collect());
    b.add_f64("v", (0..100).map(|i| i as f64).collect());
    db.register_table(b.build().unwrap()).unwrap();
    Server::new(
        Arc::new(db),
        ServerConfig { admission, fault_injection: true, ..ServerConfig::default() },
    )
}

/// Hold one admission slot by running a long sleep query on a thread;
/// returns after the query is actually admitted (active == 1).
fn occupy_slot(server: &Arc<Server>, ms: u64) -> std::thread::JoinHandle<()> {
    let s = Arc::clone(server);
    let h = std::thread::spawn(move || {
        let mut c = Client::connect(s.connect()).unwrap();
        let sql = format!("FAULT SLEEP {ms} {}", (ms / 10).max(1));
        let _ = c.query_exact(&sql);
        c.close().unwrap();
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.admission().active() == 0 {
        assert!(Instant::now() < deadline, "occupier was never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    h
}

#[test]
fn queue_full_rejects_over_the_wire_with_a_retry_hint() {
    let server = server_with(AdmissionConfig {
        max_concurrent_queries: 1,
        max_queued: 0,
        queue_timeout: Duration::from_millis(400),
        ..AdmissionConfig::default()
    });
    let occupier = occupy_slot(&server, 2_000);

    let mut rejected = Client::connect(server.connect()).unwrap();
    match rejected.query_exact("SELECT COUNT(*) FROM t") {
        Err(ClientError::Server(WireError::Rejected { active, queued, retry_after_ms })) => {
            assert_eq!((active, queued, retry_after_ms), (1, 0, 400));
        }
        other => panic!("expected a structured Rejected error, got {other:?}"),
    }
    // The rejected session stays open; once the slot frees it succeeds.
    occupier.join().unwrap();
    let r = rejected.query_exact("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.table.row_count(), 1);

    // Metrics pinned: exactly the occupier's query and the retry were
    // admitted, exactly one request was rejected, none ever queued.
    let stats = rejected.stats(StatsFormat::Prometheus).unwrap();
    for line in [
        "lawsdb_server_admitted 2",
        "lawsdb_server_rejected 1",
        "lawsdb_server_queued 0",
        "lawsdb_server_queue_timeout 0",
        "lawsdb_server_active_queries 0",
        "lawsdb_server_queries 3",
        "lawsdb_server_query_errors 1",
    ] {
        assert!(stats.contains(line), "missing `{line}` in:\n{stats}");
    }
    rejected.close().unwrap();
}

/// Satellite path for saturated servers: `query_with_retry` absorbs
/// the structured rejection, waits out the (capped) `retry_after_ms`
/// hint, and re-sends — the caller sees one successful result, never
/// the intermediate pushback.
#[test]
fn rejected_then_admitted_query_succeeds_transparently() {
    let server = server_with(AdmissionConfig {
        max_concurrent_queries: 1,
        max_queued: 0,
        queue_timeout: Duration::from_millis(40),
        ..AdmissionConfig::default()
    });
    // Hold the only slot long enough that the first attempt is
    // certainly rejected, short enough that a later retry is admitted.
    let occupier = occupy_slot(&server, 250);

    let mut c = Client::connect(server.connect()).unwrap();
    let policy = lawsdb_server::AdmissionRetry::default_queries();
    let r = c
        .query_with_retry(lawsdb_server::QueryMode::Exact, "SELECT COUNT(*) FROM t", policy)
        .expect("retry helper must ride out the busy window");
    assert_eq!(r.table.row_count(), 1);
    occupier.join().unwrap();

    // The transparency is observable server-side: at least one
    // rejection was issued, yet the client call returned Ok.
    let stats = c.stats(StatsFormat::Prometheus).unwrap();
    let rejected: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("lawsdb_server_rejected "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap();
    assert!(rejected >= 1, "expected at least one rejection in:\n{stats}");
    c.close().unwrap();
}

/// The client-side policy is deterministic and capped: the wait honors
/// the server hint as a floor, doubles across consecutive rejections,
/// and never exceeds `max_delay_ms` regardless of hint or attempt
/// index (the exponent clamps, so huge indices cannot overflow).
#[test]
fn admission_retry_backoff_honors_hint_and_caps() {
    let p = lawsdb_server::AdmissionRetry { max_attempts: 8, base_delay_ms: 10, max_delay_ms: 200 };
    let ms = |retry, hint| p.delay_for(retry, hint).as_millis() as u64;
    assert_eq!(ms(1, 0), 10, "pure client schedule when the hint is zero");
    assert_eq!(ms(2, 0), 20);
    assert_eq!(ms(1, 150), 150, "server hint floors the early waits");
    assert_eq!(ms(1, 30_000), 200, "a hostile hint is capped");
    assert_eq!(ms(6, 0), 200, "doubling is capped");
    assert_eq!(ms(u32::MAX, 0), 200, "exponent clamps, no overflow");
    assert_eq!(lawsdb_server::AdmissionRetry::none().delay_for(1, 400), Duration::ZERO);
}

#[test]
fn queue_timeout_is_honored_within_tolerance_over_the_wire() {
    let budget_ms = 250u64;
    let server = server_with(AdmissionConfig {
        max_concurrent_queries: 1,
        max_queued: 8,
        queue_timeout: Duration::from_millis(budget_ms),
        ..AdmissionConfig::default()
    });
    let occupier = occupy_slot(&server, 3_000);

    let mut waiter = Client::connect(server.connect()).unwrap();
    let started = Instant::now();
    match waiter.query_exact("SELECT COUNT(*) FROM t") {
        Err(ClientError::Server(WireError::QueueTimeout { waited_ms, budget_ms: b })) => {
            assert_eq!(b, budget_ms);
            assert!(waited_ms >= budget_ms, "gave up early: {waited_ms} < {budget_ms} ms");
        }
        other => panic!("expected a structured QueueTimeout, got {other:?}"),
    }
    let waited = started.elapsed();
    assert!(waited >= Duration::from_millis(budget_ms), "returned in {waited:?}");
    // Generous upper tolerance for a loaded 1-CPU container.
    assert!(waited < Duration::from_secs(5), "took {waited:?}, budget {budget_ms} ms");

    let stats = waiter.stats(StatsFormat::Prometheus).unwrap();
    for line in [
        "lawsdb_server_queued 1",
        "lawsdb_server_queue_timeout 1",
        "lawsdb_server_rejected 1",
    ] {
        assert!(stats.contains(line), "missing `{line}` in:\n{stats}");
    }
    waiter.close().unwrap();
    occupier.join().unwrap();
}

#[test]
fn concurrency_cap_holds_under_a_seeded_burst() {
    let cap = 2usize;
    let server = server_with(AdmissionConfig {
        max_concurrent_queries: cap,
        max_queued: 32,
        queue_timeout: Duration::from_secs(30),
        ..AdmissionConfig::default()
    });
    let base = seed();
    let clients = 8;
    let per_client = 4;
    let handles: Vec<_> = (0..clients)
        .map(|id| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut rng = Rng(base ^ (id as u64).wrapping_mul(0xABCD));
                let mut c = Client::connect(server.connect()).unwrap();
                for _ in 0..per_client {
                    // Seeded mix of short sleeps and real scans, all
                    // passing through admission.
                    let r = if rng.next().is_multiple_of(2) {
                        c.query_exact("FAULT SLEEP 20 2")
                    } else {
                        c.query_exact("SELECT g, SUM(v) FROM t GROUP BY g")
                    };
                    r.unwrap();
                }
                c.close().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("burst client must not fail");
    }

    assert!(
        server.admission().peak_active() <= cap,
        "cap breached: peak {} > {cap}",
        server.admission().peak_active()
    );
    assert_eq!(server.admission().active(), 0, "all slots released");

    // Every query in the burst was admitted exactly once, none were
    // rejected or timed out; the peak gauge proves the cap was reached
    // (8 clients against 2 slots must have collided).
    let snap = server.db().metrics().snapshot();
    assert_eq!(snap.counter("lawsdb_server_admitted"), (clients * per_client) as u64);
    assert_eq!(snap.counter("lawsdb_server_rejected"), 0);
    assert_eq!(snap.counter("lawsdb_server_queue_timeout"), 0);
    assert_eq!(snap.gauge("lawsdb_server_active_queries"), 0);
    assert_eq!(snap.gauge("lawsdb_server_active_queries_peak"), cap as i64);
    assert_eq!(snap.counter("lawsdb_server_queries"), (clients * per_client) as u64);
    assert_eq!(
        snap.histogram("lawsdb_server_queue_wait_us").map(|h| h.count),
        Some((clients * per_client) as u64),
        "every admitted query records a queue-wait sample"
    );
}

#[test]
fn global_memory_cap_gates_admission_by_requested_budget() {
    let server = server_with(AdmissionConfig {
        max_concurrent_queries: 8,
        max_queued: 8,
        queue_timeout: Duration::from_millis(200),
        global_memory_bytes: Some(64 << 20),
        default_reserve_bytes: 1 << 20,
        ..AdmissionConfig::default()
    });

    // A reservation that could never fit fails immediately and
    // structurally, without waiting out the queue timeout.
    let mut greedy = Client::connect_with(
        server.connect(),
        SessionOptions { memory_bytes: Some(128 << 20), ..SessionOptions::default() },
    )
    .unwrap();
    let started = Instant::now();
    match greedy.query_exact("SELECT COUNT(*) FROM t") {
        Err(ClientError::Server(WireError::Server { detail })) => {
            assert!(detail.contains("exceeds the server's global cap"), "{detail}");
        }
        other => panic!("expected a reservation refusal, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_millis(150), "must fail fast");

    // Within the cap, the same session is served.
    greedy
        .set_options(SessionOptions { memory_bytes: Some(8 << 20), ..SessionOptions::default() })
        .unwrap();
    let r = greedy.query_exact("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.table.row_count(), 1);
    greedy.close().unwrap();
}

#[test]
fn active_sessions_gauge_tracks_connects_and_disconnects() {
    let server = server_with(AdmissionConfig::default());
    let mut a = Client::connect(server.connect()).unwrap();
    let b = Client::connect(server.connect()).unwrap();
    let c = Client::connect(server.connect()).unwrap();

    let stats = a.stats(StatsFormat::Prometheus).unwrap();
    assert!(stats.contains("lawsdb_server_active_sessions 3"), "{stats}");
    assert!(stats.contains("lawsdb_server_sessions_total 3"), "{stats}");

    c.close().unwrap();
    b.close().unwrap();
    // Close replies race the server-side unregister; drain briefly.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.sessions().active() != 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = a.stats(StatsFormat::Prometheus).unwrap();
    assert!(stats.contains("lawsdb_server_active_sessions 1"), "{stats}");
    assert!(stats.contains("lawsdb_server_sessions_total 3"), "{stats}");
    a.close().unwrap();
}

#[test]
fn session_cap_refuses_the_next_connection_with_a_structured_error() {
    let db = Arc::new(LawsDb::new());
    let server = Server::new(
        db,
        ServerConfig { max_sessions: 2, ..ServerConfig::default() },
    );
    let a = Client::connect(server.connect()).unwrap();
    let b = Client::connect(server.connect()).unwrap();
    match Client::connect(server.connect()) {
        Err(ClientError::Server(WireError::SessionLimit { active, max })) => {
            assert_eq!((active, max), (2, 2));
        }
        other => panic!("expected SessionLimit, got {other:?}"),
    }
    a.close().unwrap();
    b.close().unwrap();
}

#[test]
fn queued_query_is_admitted_when_the_slot_frees_and_counts_once() {
    let server = server_with(AdmissionConfig {
        max_concurrent_queries: 1,
        max_queued: 8,
        queue_timeout: Duration::from_secs(30),
        ..AdmissionConfig::default()
    });
    let occupier = occupy_slot(&server, 400);

    // This query queues behind the occupier, then runs.
    let mut waiter = Client::connect(server.connect()).unwrap();
    let r = waiter.query_exact("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.table.row_count(), 1);
    assert!(
        r.queue_us > 0,
        "a queued query must report its wait ({} us)",
        r.queue_us
    );
    occupier.join().unwrap();

    let snap = server.db().metrics().snapshot();
    assert_eq!(snap.counter("lawsdb_server_admitted"), 2);
    assert_eq!(snap.counter("lawsdb_server_queued"), 1);
    assert_eq!(snap.counter("lawsdb_server_rejected"), 0);
    waiter.close().unwrap();
}
