//! Protocol robustness: the wire codec under friendly and hostile
//! bytes.
//!
//! Three disciplines, all seeded (`LAWSDB_FAULT_SEED=<seed>` is
//! printed; re-running with it set reproduces the exact corpus):
//!
//! 1. **Round-trip identity** — for every frame type, over randomly
//!    generated frames (tables with all four column types, nulls,
//!    unicode strings, every error variant): `decode(encode(f)) == f`.
//! 2. **Decode is total** — random byte blobs, truncated prefixes of
//!    valid frames, and single-bit-flipped valid frames never panic;
//!    every malformed input yields a structured [`ProtocolError`].
//! 3. **Failure scoping** — a malformed frame on one session produces a
//!    structured protocol error and closes *that* session only; a
//!    sibling session on the same server keeps answering queries.

use lawsdb_core::LawsDb;
use lawsdb_obs::{FieldValue, FlightRecord, TraceNode};
use lawsdb_server::protocol::{read_frame, Frame, QueryMode, SessionOptions, StatsFormat};
use lawsdb_server::{
    Client, ProtocolError, Server, ServerConfig, WireError, WireResult, PROTOCOL_VERSION,
};
use lawsdb_storage::TableBuilder;
use proptest::prelude::*;
use std::sync::Arc;

/// SplitMix64 — the workspace's deterministic generator discipline
/// (`storage::fault` uses the same constants).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

fn seed() -> u64 {
    let s = lawsdb_storage::fault::fault_seed();
    println!("LAWSDB_FAULT_SEED={s}");
    s
}

fn random_string(rng: &mut Rng) -> String {
    const ALPHABET: &[char] = &['a', 'B', '7', '_', ' ', 'δ', 'λ', '→', '\n', '"', '\\'];
    let len = rng.below(12) as usize;
    (0..len).map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize]).collect()
}

/// A finite f64 (NaN breaks `PartialEq` equality, not the codec — the
/// bits themselves round-trip — so the identity corpus avoids it).
fn random_f64(rng: &mut Rng) -> f64 {
    let raw = (rng.next() as i64 % 1_000_000) as f64 / 128.0;
    if rng.chance(10) {
        0.0
    } else {
        raw
    }
}

fn random_options(rng: &mut Rng) -> SessionOptions {
    let opt_u64 = |r: &mut Rng| if r.chance(50) { Some(r.below(1 << 40)) } else { None };
    SessionOptions {
        threads: if rng.chance(50) { Some(rng.below(16) as u32) } else { None },
        morsel_rows: if rng.chance(50) { Some(rng.below(1 << 20) as u32) } else { None },
        pruning: if rng.chance(50) { Some(rng.chance(50)) } else { None },
        deadline_ms: opt_u64(rng),
        memory_bytes: opt_u64(rng),
        max_rows: opt_u64(rng),
    }
}

fn random_table(rng: &mut Rng) -> lawsdb_storage::Table {
    let rows = rng.below(20) as usize;
    let mut b = TableBuilder::new(random_string(rng));
    // Column names must be distinct; prefix with a counter.
    let ncols = 1 + rng.below(4);
    for c in 0..ncols {
        let name = format!("c{c}_{}", random_string(rng).replace(['\n', '"', '\\'], ""));
        match rng.below(4) {
            0 => {
                b.add_i64(&name, (0..rows).map(|_| rng.next() as i64).collect());
            }
            1 => {
                if rng.chance(50) {
                    b.add_f64_opt(
                        &name,
                        (0..rows)
                            .map(|_| if rng.chance(30) { None } else { Some(random_f64(rng)) })
                            .collect(),
                    );
                } else {
                    b.add_f64(&name, (0..rows).map(|_| random_f64(rng)).collect());
                }
            }
            2 => {
                b.add_str(&name, (0..rows).map(|_| random_string(rng)).collect());
            }
            _ => {
                let bits: Vec<bool> = (0..rows).map(|_| rng.chance(50)).collect();
                b.add_bool(&name, &bits);
            }
        }
    }
    b.build().expect("generated table must be valid")
}

fn random_field_value(rng: &mut Rng) -> FieldValue {
    match rng.below(5) {
        0 => FieldValue::U64(rng.next()),
        1 => FieldValue::I64(rng.next() as i64),
        2 => FieldValue::F64(random_f64(rng)),
        3 => FieldValue::Bool(rng.chance(50)),
        _ => FieldValue::Str(random_string(rng)),
    }
}

/// A random trace tree, at most 4 levels deep so the corpus stays
/// well inside `MAX_TRACE_DEPTH` (a separate unit test pins the
/// over-deep refusal).
fn random_trace(rng: &mut Rng, depth: usize) -> TraceNode {
    let nchildren = if depth >= 3 { 0 } else { rng.below(3) };
    TraceNode {
        name: random_string(rng),
        start_us: rng.next(),
        duration_us: if rng.chance(70) { Some(rng.next()) } else { None },
        index: if rng.chance(30) { Some(rng.below(64)) } else { None },
        fields: (0..rng.below(3))
            .map(|_| (random_string(rng), random_field_value(rng)))
            .collect(),
        children: (0..nchildren).map(|_| random_trace(rng, depth + 1)).collect(),
    }
}

fn random_flight_record(rng: &mut Rng) -> FlightRecord {
    FlightRecord {
        query_id: rng.next(),
        sql: random_string(rng),
        mode: random_string(rng),
        total_us: rng.next(),
        error: if rng.chance(30) { Some(random_string(rng)) } else { None },
        layers: (0..rng.below(4)).map(|_| (random_string(rng), rng.next())).collect(),
        dominant_layer: random_string(rng),
        dominant_us: rng.next(),
        trace: if rng.chance(60) { Some(random_trace(rng, 0)) } else { None },
    }
}

fn random_wire_error(rng: &mut Rng) -> WireError {
    match rng.below(6) {
        0 => WireError::Rejected {
            active: rng.next() as u32,
            queued: rng.next() as u32,
            retry_after_ms: rng.next(),
        },
        1 => WireError::QueueTimeout { waited_ms: rng.next(), budget_ms: rng.next() },
        2 => WireError::SessionLimit { active: rng.next() as u32, max: rng.next() as u32 },
        3 => WireError::Query { kind: random_string(rng), detail: random_string(rng) },
        4 => WireError::Protocol { detail: random_string(rng) },
        _ => WireError::Server { detail: random_string(rng) },
    }
}

/// One random frame of each of the 16 wire types, in tag order.
fn frame_corpus(rng: &mut Rng) -> Vec<Frame> {
    vec![
        Frame::Hello { protocol_version: rng.next() as u32, options: random_options(rng) },
        Frame::Query {
            mode: match rng.below(5) {
                0 => QueryMode::Exact,
                1 => QueryMode::Resilient,
                2 => QueryMode::Adaptive,
                3 => QueryMode::Explain,
                _ => QueryMode::Cluster,
            },
            sql: random_string(rng),
            trace: rng.chance(50),
        },
        Frame::SetOptions { options: random_options(rng) },
        Frame::Stats {
            format: if rng.chance(50) { StatsFormat::Prometheus } else { StatsFormat::Json },
        },
        Frame::Cancel { session: rng.next() },
        Frame::Close,
        Frame::SlowLog { n: rng.next() as u32 },
        Frame::HelloAck { session: rng.next(), protocol_version: rng.next() as u32 },
        Frame::ResultSet(Box::new(WireResult {
            table: random_table(rng),
            rows_scanned: rng.next(),
            approximate: rng.chance(50),
            error_bound: if rng.chance(50) { Some(random_f64(rng)) } else { None },
            degraded: (0..rng.below(4)).map(|_| random_string(rng)).collect(),
            service_us: rng.next(),
            queue_us: rng.next(),
            query_id: rng.next(),
            trace: if rng.chance(50) { Some(random_trace(rng, 0)) } else { None },
        })),
        Frame::Error(random_wire_error(rng)),
        Frame::StatsReply { text: random_string(rng) },
        Frame::ExplainReply { text: random_string(rng) },
        Frame::OptionsAck,
        Frame::CancelAck { delivered: rng.chance(50) },
        Frame::Goodbye,
        Frame::SlowLogReply {
            entries: (0..rng.below(3)).map(|_| random_flight_record(rng)).collect(),
        },
    ]
}

#[test]
fn every_frame_type_roundtrips_over_many_seeds() {
    let mut rng = Rng(seed());
    for round in 0..64 {
        for frame in frame_corpus(&mut rng) {
            let payload = frame.encode();
            let decoded = Frame::decode(&payload)
                .unwrap_or_else(|e| panic!("round {round}: {frame:?} failed to decode: {e}"));
            assert_eq!(decoded, frame, "round {round}");
        }
    }
}

#[test]
fn every_strict_prefix_of_a_valid_frame_is_an_error() {
    // The wire has one version and no optional tails, so no strict
    // prefix of a well-formed body is itself well-formed.
    let mut rng = Rng(seed() ^ 0x5EED_0001);
    for frame in frame_corpus(&mut rng) {
        let payload = frame.encode();
        for cut in 0..payload.len() {
            if let Ok(f) = Frame::decode(&payload[..cut]) {
                panic!(
                    "prefix {cut}/{} of {frame:?} decoded as {f:?} — the format is ambiguous",
                    payload.len()
                );
            }
        }
    }
}

#[test]
fn bit_flipped_frames_never_panic() {
    let mut rng = Rng(seed() ^ 0x5EED_0002);
    for _ in 0..16 {
        for frame in frame_corpus(&mut rng) {
            let payload = frame.encode();
            if payload.is_empty() {
                continue;
            }
            for _ in 0..32 {
                let mut corrupted = payload.clone();
                let bit = rng.below((corrupted.len() * 8) as u64) as usize;
                corrupted[bit / 8] ^= 1 << (bit % 8);
                // Either a valid (different or same-typed) frame or a
                // structured error — anything but a panic.
                let _ = Frame::decode(&corrupted);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn decode_of_random_bytes_is_total(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        // No panic, no abort; errors must be structured.
        let _ = Frame::decode(&bytes);
    }

    #[test]
    fn framed_read_of_random_streams_is_total(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut stream = &bytes[..];
        // Drain the stream; every iteration either yields a frame,
        // a clean EOF, or a structured transport error.
        for _ in 0..8 {
            match read_frame(&mut stream) {
                Ok(Some(_)) => {}
                Ok(None) | Err(_) => break,
            }
        }
    }
}

fn tiny_server() -> Arc<Server> {
    let db = LawsDb::new();
    let mut b = TableBuilder::new("t");
    b.add_i64("g", vec![1, 2, 3, 4]);
    b.add_f64("v", vec![1.0, 2.0, 3.0, 4.0]);
    db.register_table(b.build().unwrap()).unwrap();
    Server::new(Arc::new(db), ServerConfig::default())
}

#[test]
fn malformed_frame_closes_only_the_offending_session() {
    let server = tiny_server();
    let mut rogue = Client::connect(server.connect()).unwrap();
    let mut sibling = Client::connect(server.connect()).unwrap();

    // The sibling is healthy before the attack.
    let before = sibling.query_exact("SELECT COUNT(*) FROM t").unwrap();

    // The rogue session speaks garbage: an unknown frame tag.
    rogue.send_raw(&[0x7F, 1, 2, 3]).unwrap();
    match rogue.recv().unwrap() {
        Some(Frame::Error(WireError::Protocol { detail })) => {
            assert!(detail.contains("tag"), "unexpected detail: {detail}");
        }
        other => panic!("expected a structured protocol error, got {other:?}"),
    }
    // ... and its session is closed: the stream ends cleanly.
    assert!(rogue.recv().unwrap().is_none(), "rogue session must be closed");

    // The sibling never noticed.
    let after = sibling.query_exact("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(before.table, after.table);
    let stats = sibling.stats(StatsFormat::Prometheus).unwrap();
    assert!(
        stats.contains("lawsdb_server_protocol_errors 1"),
        "exactly one protocol error must be counted:\n{stats}"
    );
    sibling.close().unwrap();
}

#[test]
fn truncated_stream_mid_frame_is_a_structured_close() {
    use std::io::Write;
    let server = tiny_server();
    let mut stream = server.connect();
    lawsdb_server::write_frame(
        &mut stream,
        &Frame::Hello { protocol_version: lawsdb_server::PROTOCOL_VERSION, options: SessionOptions::default() },
    )
    .unwrap();
    assert!(matches!(read_frame(&mut stream).unwrap(), Some(Frame::HelloAck { .. })));
    // Promise 100 payload bytes, deliver 4, then hang up: the server
    // sees EOF mid-frame. It must tear this session down without
    // hanging or panicking, and siblings must not notice.
    stream.write_all(&100u32.to_le_bytes()).unwrap();
    stream.write_all(&[1, 2, 3, 4]).unwrap();
    drop(stream);
    let mut sibling = Client::connect(server.connect()).unwrap();
    let r = sibling.query_exact("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.table.row_count(), 1);
    sibling.close().unwrap();
}

#[test]
fn version_mismatch_is_refused_with_a_structured_error() {
    let server = tiny_server();
    let mut stream = server.connect();
    lawsdb_server::write_frame(
        &mut stream,
        &Frame::Hello { protocol_version: 999, options: SessionOptions::default() },
    )
    .unwrap();
    match read_frame(&mut stream).unwrap() {
        Some(Frame::Error(WireError::Protocol { detail })) => {
            assert!(detail.contains("version"), "{detail}");
        }
        other => panic!("expected version refusal, got {other:?}"),
    }
}

#[test]
fn v1_hello_is_refused_with_version_mismatch_and_the_session_closes_cleanly() {
    let server = tiny_server();
    let mut stream = server.connect();
    lawsdb_server::write_frame(
        &mut stream,
        &Frame::Hello { protocol_version: 1, options: SessionOptions::default() },
    )
    .unwrap();
    let expected = ProtocolError::VersionMismatch { client: 1, server: PROTOCOL_VERSION };
    match read_frame(&mut stream).unwrap() {
        Some(Frame::Error(WireError::Protocol { detail })) => {
            assert_eq!(detail, expected.to_string());
        }
        other => panic!("expected version refusal, got {other:?}"),
    }
    // The server hung up at a frame boundary — clean EOF, not a
    // truncated frame — and keeps serving everyone else.
    assert!(matches!(read_frame(&mut stream), Ok(None)));
    let mut sibling = Client::connect(server.connect()).unwrap();
    assert_eq!(sibling.query_exact("SELECT COUNT(*) FROM t").unwrap().table.row_count(), 1);
    sibling.close().unwrap();
}

#[test]
fn protocol_error_display_is_stable() {
    let e = ProtocolError::Truncated { needed: 8, available: 3 };
    assert_eq!(e.to_string(), "truncated frame: needed 8 bytes, 3 available");
}
