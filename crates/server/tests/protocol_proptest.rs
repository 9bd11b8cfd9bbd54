//! Protocol failure scoping: a malformed frame on one session produces
//! a structured protocol error and closes *that* session only; a
//! sibling session on the same server keeps answering queries. What the
//! decoder does with hostile bytes is the root `tests/hostile_bytes.rs`
//! driver's job.

use lawsdb_core::LawsDb;
use lawsdb_server::protocol::{read_frame, Frame, SessionOptions, StatsFormat};
use lawsdb_server::{Client, ProtocolError, Server, ServerConfig, WireError, PROTOCOL_VERSION};
use lawsdb_storage::TableBuilder;
use std::sync::Arc;

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
    let e = ProtocolError::Corrupt { detail: "truncated u64".to_string() };
    assert_eq!(e.to_string(), "malformed frame: truncated u64");
}
