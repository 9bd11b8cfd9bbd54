//! The LawsDB wire protocol: length-prefixed binary frames.
//!
//! Every frame on the wire is `[u32 little-endian payload length]`
//! followed by exactly that many payload bytes; the first payload byte
//! is the frame tag, the rest is the tag-specific body. Integers are
//! little-endian, floats are IEEE-754 bit patterns, strings are
//! `u32 length + UTF-8 bytes`, options are a one-byte presence flag,
//! vectors are `u32 count + elements`. A result table is its name, then
//! per column the field the WAL directory also writes
//! ([`lawsdb_storage::codec::put_field`]) and the column in the store's
//! own layout ([`lawsdb_storage::page::put_column`]).
//!
//! Decoding is *total*: [`Frame::decode`] reads an untrusted byte slice
//! through the storage layer's one bounds-checked cursor
//! ([`lawsdb_storage::codec::Reader`]), which checks every claimed
//! length against the bytes actually present before allocating, and
//! returns [`ProtocolError::Corrupt`] on any malformed input — it never
//! panics or over-allocates. The root `tests/hostile_bytes.rs` driver
//! feeds it, with every other decoder, seeded hostile bytes.

use crate::error::{ProtocolError, TransportError, WireError};
use lawsdb_obs::{FieldValue, FlightRecord, TraceNode};
use lawsdb_storage::codec::{put_field, put_str, Reader};
use lawsdb_storage::{page, Schema, StorageError, Table};
use std::io::{Read, Write};

type Result<T, E = StorageError> = std::result::Result<T, E>;

/// The one protocol version this build speaks. Version 3 carries result
/// columns in the store's column layout. There is no negotiation: a
/// [`Frame::Hello`] naming any other version is answered with a
/// structured `VersionMismatch` protocol error and the session is
/// closed.
pub const PROTOCOL_VERSION: u32 = 3;

/// Decode-side cap on trace-tree nesting; deeper claims are rejected
/// (a real profile nests plan depth + a few cluster levels, nowhere
/// near this).
pub const MAX_TRACE_DEPTH: usize = 64;

/// Hard cap on a single frame's payload. Larger claims are rejected
/// before any allocation happens.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// How a [`Frame::Query`] should be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// Exact base-table execution.
    Exact,
    /// The degradation ladder: model when fresh, exact otherwise, with
    /// the taken rungs reported in [`WireResult::degraded`].
    Resilient,
    /// Cost-based choice between the exact plan and the model path.
    Adaptive,
    /// `EXPLAIN`: the costed physical plan, not executed.
    Explain,
    /// Sharded scatter-gather execution with replica failover, when the
    /// server fronts a cluster.
    Cluster,
}

impl QueryMode {
    /// Stable lower-case name — the `mode` label flight-recorder
    /// entries and stats output carry.
    pub fn name(self) -> &'static str {
        match self {
            QueryMode::Exact => "exact",
            QueryMode::Resilient => "resilient",
            QueryMode::Adaptive => "adaptive",
            QueryMode::Explain => "explain",
            QueryMode::Cluster => "cluster",
        }
    }

    fn tag(self) -> u8 {
        match self {
            QueryMode::Exact => 0,
            QueryMode::Resilient => 1,
            QueryMode::Adaptive => 2,
            QueryMode::Explain => 3,
            QueryMode::Cluster => 4,
        }
    }

    fn read(r: &mut Reader<'_>) -> Result<QueryMode> {
        match r.u8()? {
            0 => Ok(QueryMode::Exact),
            1 => Ok(QueryMode::Resilient),
            2 => Ok(QueryMode::Adaptive),
            3 => Ok(QueryMode::Explain),
            4 => Ok(QueryMode::Cluster),
            tag => Err(r.corrupt(format!("unknown query mode tag {tag}"))),
        }
    }
}

/// Requested exposition format for [`Frame::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// Prometheus text exposition.
    Prometheus,
    /// JSON object.
    Json,
}

/// Per-session execution knobs, all optional: `None` keeps the
/// server-side default. Budgets a client requests are *intersected*
/// with the server's per-query caps — a session can tighten its
/// limits, never exceed the server's.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionOptions {
    /// Worker threads for this session's queries (0 = one per core).
    pub threads: Option<u32>,
    /// Rows per morsel.
    pub morsel_rows: Option<u32>,
    /// Consult zone synopses before scanning.
    pub pruning: Option<bool>,
    /// Per-query wall-clock budget, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-query materialization budget, bytes.
    pub memory_bytes: Option<u64>,
    /// Per-query scanned-row cap.
    pub max_rows: Option<u64>,
}

/// A successful query response: the result rows plus the execution
/// provenance a client needs to trust (or distrust) them.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// Result rows.
    pub table: Table,
    /// Base-table rows scanned (0 on the model path).
    pub rows_scanned: u64,
    /// True when a captured model answered.
    pub approximate: bool,
    /// ±bound on approximate values, when derivable.
    pub error_bound: Option<f64>,
    /// Degradation-ladder rungs taken (stable names, e.g.
    /// `residual_drift`), empty on the exact and approx fast paths.
    pub degraded: Vec<String>,
    /// Server-side execution time, microseconds, measured *after*
    /// admission — the denominator of the bench gate.
    pub service_us: u64,
    /// Time spent waiting in the admission queue, microseconds.
    pub queue_us: u64,
    /// Server-minted query id. Links this result to histogram
    /// exemplars and the slow-query log.
    pub query_id: u64,
    /// The full distributed trace, present when the query asked for one.
    pub trace: Option<TraceNode>,
}

/// One protocol frame, client→server or server→client.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    // ---- client → server ------------------------------------------
    /// Session handshake; must be the first frame on a connection.
    Hello {
        /// Client's protocol version; must equal [`PROTOCOL_VERSION`].
        protocol_version: u32,
        /// Initial session options.
        options: SessionOptions,
    },
    /// Execute SQL under this session's options.
    Query {
        /// Execution mode.
        mode: QueryMode,
        /// SQL text.
        sql: String,
        /// Ask for the full distributed trace on the result.
        trace: bool,
    },
    /// Replace this session's options.
    SetOptions {
        /// The new options.
        options: SessionOptions,
    },
    /// Fetch the server's metrics registry.
    Stats {
        /// Exposition format.
        format: StatsFormat,
    },
    /// Cancel the named session's in-flight query (the engine's
    /// `pg_cancel_backend`): delivery is reported, the cancelled query
    /// fails with a structured `cancelled` error in *its own* session.
    Cancel {
        /// Target session id (from that session's [`Frame::HelloAck`]).
        session: u64,
    },
    /// Orderly goodbye; the server answers [`Frame::Goodbye`].
    Close,
    /// Pull the `n` worst traces from the server's flight recorder (v2).
    SlowLog {
        /// Maximum records to return.
        n: u32,
    },

    // ---- server → client ------------------------------------------
    /// Handshake accepted; carries the session's id.
    HelloAck {
        /// This session's id (the handle siblings cancel by).
        session: u64,
        /// Server's protocol version.
        protocol_version: u32,
    },
    /// A query's result rows.
    ResultSet(Box<WireResult>),
    /// A structured failure: admission rejection, query error,
    /// protocol violation.
    Error(WireError),
    /// Metrics text in the requested format.
    StatsReply {
        /// Rendered registry snapshot.
        text: String,
    },
    /// The costed plan, one node per line.
    ExplainReply {
        /// `EXPLAIN` text.
        text: String,
    },
    /// Options applied.
    OptionsAck,
    /// Cancel processed; `delivered` is false when the target session
    /// does not exist or has no query in flight.
    CancelAck {
        /// Whether a cancel token was actually tripped.
        delivered: bool,
    },
    /// Orderly shutdown of this session.
    Goodbye,
    /// The flight recorder's worst queries, slowest first (v2).
    SlowLogReply {
        /// Complete records, each carrying its full trace tree.
        entries: Vec<FlightRecord>,
    },
}

// ---- encoding primitives ------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt<T>(out: &mut Vec<u8>, v: Option<T>, put: impl FnOnce(&mut Vec<u8>, T)) {
    out.push(v.is_some() as u8);
    if let Some(v) = v {
        put(out, v);
    }
}

fn put_list<T>(out: &mut Vec<u8>, items: &[T], put: impl Fn(&mut Vec<u8>, &T)) {
    put_u32(out, items.len() as u32);
    for item in items {
        put(out, item);
    }
}

/// A `u32`-counted list whose elements each take at least `min_bytes`.
fn read_list<T>(
    r: &mut Reader<'_>,
    min_bytes: usize,
    what: &str,
    mut read: impl FnMut(&mut Reader<'_>) -> Result<T>,
) -> Result<Vec<T>> {
    (0..r.count(min_bytes, what)?).map(|_| read(r)).collect()
}

fn read_str(r: &mut Reader<'_>) -> Result<String> {
    r.str_u32("string")
}

// ---- session options ----------------------------------------------

fn put_options(out: &mut Vec<u8>, o: &SessionOptions) {
    put_opt(out, o.threads, put_u32);
    put_opt(out, o.morsel_rows, put_u32);
    put_opt(out, o.pruning, |out, v| out.push(v as u8));
    put_opt(out, o.deadline_ms, put_u64);
    put_opt(out, o.memory_bytes, put_u64);
    put_opt(out, o.max_rows, put_u64);
}

fn read_options(r: &mut Reader<'_>) -> Result<SessionOptions> {
    Ok(SessionOptions {
        threads: r.opt(Reader::u32)?,
        morsel_rows: r.opt(Reader::u32)?,
        pruning: r.opt(Reader::bool)?,
        deadline_ms: r.opt(Reader::u64)?,
        memory_bytes: r.opt(Reader::u64)?,
        max_rows: r.opt(Reader::u64)?,
    })
}

// ---- table --------------------------------------------------------

/// The fewest bytes a column takes: an empty name, its type tag and
/// nullable byte, then the column layout's header.
const MIN_COLUMN_BYTES: usize = 4 + 2 + page::HEADER_BYTES;

/// The table name, then per column its field and its bytes in the
/// store's column layout, written straight into `out`.
fn put_table(out: &mut Vec<u8>, t: &Table) {
    put_str(out, t.name());
    put_u32(out, t.columns().len() as u32);
    for (field, col) in t.schema().fields().iter().zip(t.columns()) {
        put_field(out, field);
        page::put_column(out, col);
    }
}

fn read_table(r: &mut Reader<'_>) -> Result<Table> {
    let name = r.str_u32("table name")?;
    let (mut fields, mut columns) = (Vec::new(), Vec::new());
    for _ in 0..r.count(MIN_COLUMN_BYTES, "column")? {
        fields.push(r.field()?);
        columns.push(page::read_column(r)?);
    }
    Table::new(name, Schema::new(fields), columns)
}

// ---- trace trees and flight records -------------------------------

fn put_field_value(out: &mut Vec<u8>, v: &FieldValue) {
    match v {
        FieldValue::U64(x) => {
            out.push(0);
            put_u64(out, *x);
        }
        FieldValue::I64(x) => {
            out.push(1);
            put_u64(out, *x as u64);
        }
        FieldValue::F64(x) => {
            out.push(2);
            put_u64(out, x.to_bits());
        }
        FieldValue::Bool(x) => {
            out.push(3);
            out.push(*x as u8);
        }
        FieldValue::Str(x) => {
            out.push(4);
            put_str(out, x);
        }
    }
}

fn read_field_value(r: &mut Reader<'_>) -> Result<FieldValue> {
    match r.u8()? {
        0 => Ok(FieldValue::U64(r.u64()?)),
        1 => Ok(FieldValue::I64(r.i64()?)),
        2 => Ok(FieldValue::F64(r.f64()?)),
        3 => Ok(FieldValue::Bool(r.bool()?)),
        4 => Ok(FieldValue::Str(read_str(r)?)),
        tag => Err(r.corrupt(format!("unknown field value tag {tag}"))),
    }
}

fn put_trace_node(out: &mut Vec<u8>, n: &TraceNode) {
    put_str(out, &n.name);
    put_u64(out, n.start_us);
    put_opt(out, n.duration_us, put_u64);
    put_opt(out, n.index, put_u64);
    put_list(out, &n.fields, |out, (k, v)| {
        put_str(out, k);
        put_field_value(out, v);
    });
    put_list(out, &n.children, put_trace_node);
}

fn read_trace_node(r: &mut Reader<'_>, depth: usize) -> Result<TraceNode> {
    if depth > MAX_TRACE_DEPTH {
        return Err(r.corrupt(format!("trace nested deeper than {MAX_TRACE_DEPTH}")));
    }
    Ok(TraceNode {
        name: read_str(r)?,
        start_us: r.u64()?,
        duration_us: r.opt(Reader::u64)?,
        index: r.opt(Reader::u64)?,
        // A field is at least a key length and a value tag + byte.
        fields: read_list(r, 6, "trace field", |r| Ok((read_str(r)?, read_field_value(r)?)))?,
        // A node is at least a name length, a start, two flags and two
        // counts.
        children: read_list(r, 22, "trace child", |r| read_trace_node(r, depth + 1))?,
    })
}

/// The trace tail of a result body: a presence byte, then the tree.
pub(crate) fn put_trace_tail(out: &mut Vec<u8>, trace: Option<&TraceNode>) {
    put_opt(out, trace, put_trace_node);
}

fn put_flight_record(out: &mut Vec<u8>, rec: &FlightRecord) {
    put_u64(out, rec.query_id);
    put_str(out, &rec.sql);
    put_str(out, &rec.mode);
    put_u64(out, rec.total_us);
    put_opt(out, rec.error.as_deref(), put_str);
    put_list(out, &rec.layers, |out, (layer, us)| {
        put_str(out, layer);
        put_u64(out, *us);
    });
    put_str(out, &rec.dominant_layer);
    put_u64(out, rec.dominant_us);
    put_trace_tail(out, rec.trace.as_ref());
}

fn read_flight_record(r: &mut Reader<'_>) -> Result<FlightRecord> {
    Ok(FlightRecord {
        query_id: r.u64()?,
        sql: read_str(r)?,
        mode: read_str(r)?,
        total_us: r.u64()?,
        error: r.opt(read_str)?,
        layers: read_list(r, 12, "layer", |r| Ok((read_str(r)?, r.u64()?)))?,
        dominant_layer: read_str(r)?,
        dominant_us: r.u64()?,
        trace: r.opt(|r| read_trace_node(r, 0))?,
    })
}

// ---- results and errors -------------------------------------------

/// A `ResultSet` payload up to, not including, its trace tail — what
/// the session measures before it attaches the trace, which cannot
/// contain the cost of encoding itself.
pub(crate) fn encode_result_head(r: &WireResult) -> Vec<u8> {
    let mut out = vec![0x82];
    put_table(&mut out, &r.table);
    put_u64(&mut out, r.rows_scanned);
    out.push(r.approximate as u8);
    put_opt(&mut out, r.error_bound, |out, v| put_u64(out, v.to_bits()));
    put_list(&mut out, &r.degraded, |out, d| put_str(out, d));
    put_u64(&mut out, r.service_us);
    put_u64(&mut out, r.queue_us);
    put_u64(&mut out, r.query_id);
    out
}

fn read_result(r: &mut Reader<'_>) -> Result<WireResult> {
    Ok(WireResult {
        table: read_table(r)?,
        rows_scanned: r.u64()?,
        approximate: r.bool()?,
        error_bound: r.opt(Reader::f64)?,
        degraded: read_list(r, 4, "degraded rung", read_str)?,
        service_us: r.u64()?,
        queue_us: r.u64()?,
        query_id: r.u64()?,
        trace: r.opt(|r| read_trace_node(r, 0))?,
    })
}

fn put_wire_error(out: &mut Vec<u8>, e: &WireError) {
    match e {
        WireError::Rejected { active, queued, retry_after_ms } => {
            out.push(0);
            put_u32(out, *active);
            put_u32(out, *queued);
            put_u64(out, *retry_after_ms);
        }
        WireError::QueueTimeout { waited_ms, budget_ms } => {
            out.push(1);
            put_u64(out, *waited_ms);
            put_u64(out, *budget_ms);
        }
        WireError::SessionLimit { active, max } => {
            out.push(2);
            put_u32(out, *active);
            put_u32(out, *max);
        }
        WireError::Query { kind, detail } => {
            out.push(3);
            put_str(out, kind);
            put_str(out, detail);
        }
        WireError::Protocol { detail } => {
            out.push(4);
            put_str(out, detail);
        }
        WireError::Server { detail } => {
            out.push(5);
            put_str(out, detail);
        }
    }
}

fn read_wire_error(r: &mut Reader<'_>) -> Result<WireError> {
    match r.u8()? {
        0 => Ok(WireError::Rejected {
            active: r.u32()?,
            queued: r.u32()?,
            retry_after_ms: r.u64()?,
        }),
        1 => Ok(WireError::QueueTimeout { waited_ms: r.u64()?, budget_ms: r.u64()? }),
        2 => Ok(WireError::SessionLimit { active: r.u32()?, max: r.u32()? }),
        3 => Ok(WireError::Query { kind: read_str(r)?, detail: read_str(r)? }),
        4 => Ok(WireError::Protocol { detail: read_str(r)? }),
        5 => Ok(WireError::Server { detail: read_str(r)? }),
        tag => Err(r.corrupt(format!("unknown error kind tag {tag}"))),
    }
}

// ---- frames -------------------------------------------------------

impl Frame {
    /// Encode this frame's payload (tag byte + body, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Hello { protocol_version, options } => {
                out.push(0x01);
                put_u32(&mut out, *protocol_version);
                put_options(&mut out, options);
            }
            Frame::Query { mode, sql, trace } => {
                out.push(0x02);
                out.push(mode.tag());
                put_str(&mut out, sql);
                out.push(*trace as u8);
            }
            Frame::SetOptions { options } => {
                out.push(0x03);
                put_options(&mut out, options);
            }
            Frame::Stats { format } => {
                out.push(0x04);
                out.push(match format {
                    StatsFormat::Prometheus => 0,
                    StatsFormat::Json => 1,
                });
            }
            Frame::Cancel { session } => {
                out.push(0x05);
                put_u64(&mut out, *session);
            }
            Frame::Close => out.push(0x06),
            Frame::SlowLog { n } => {
                out.push(0x07);
                put_u32(&mut out, *n);
            }
            Frame::HelloAck { session, protocol_version } => {
                out.push(0x81);
                put_u64(&mut out, *session);
                put_u32(&mut out, *protocol_version);
            }
            Frame::ResultSet(r) => {
                out = encode_result_head(r);
                put_trace_tail(&mut out, r.trace.as_ref());
            }
            Frame::Error(e) => {
                out.push(0x83);
                put_wire_error(&mut out, e);
            }
            Frame::StatsReply { text } => {
                out.push(0x84);
                put_str(&mut out, text);
            }
            Frame::ExplainReply { text } => {
                out.push(0x85);
                put_str(&mut out, text);
            }
            Frame::OptionsAck => out.push(0x86),
            Frame::CancelAck { delivered } => {
                out.push(0x87);
                out.push(*delivered as u8);
            }
            Frame::Goodbye => out.push(0x88),
            Frame::SlowLogReply { entries } => {
                out.push(0x89);
                put_list(&mut out, entries, put_flight_record);
            }
        }
        out
    }

    /// Decode a frame from a complete payload slice (everything between
    /// two length prefixes). Total: returns a structured error on any
    /// malformed input, never panics, and rejects trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<Frame, ProtocolError> {
        let mut r = Reader::new("wire", payload);
        let frame = read_body(&mut r)?;
        r.end()?;
        Ok(frame)
    }
}

fn read_body(r: &mut Reader<'_>) -> Result<Frame> {
    Ok(match r.u8()? {
        0x01 => Frame::Hello { protocol_version: r.u32()?, options: read_options(r)? },
        0x02 => Frame::Query {
            mode: QueryMode::read(r)?,
            sql: read_str(r)?,
            trace: r.bool()?,
        },
        0x03 => Frame::SetOptions { options: read_options(r)? },
        0x04 => Frame::Stats {
            format: match r.u8()? {
                0 => StatsFormat::Prometheus,
                1 => StatsFormat::Json,
                tag => return Err(r.corrupt(format!("unknown stats format tag {tag}"))),
            },
        },
        0x05 => Frame::Cancel { session: r.u64()? },
        0x06 => Frame::Close,
        0x07 => Frame::SlowLog { n: r.u32()? },
        0x81 => Frame::HelloAck { session: r.u64()?, protocol_version: r.u32()? },
        0x82 => Frame::ResultSet(Box::new(read_result(r)?)),
        0x83 => Frame::Error(read_wire_error(r)?),
        0x84 => Frame::StatsReply { text: read_str(r)? },
        0x85 => Frame::ExplainReply { text: read_str(r)? },
        0x86 => Frame::OptionsAck,
        0x87 => Frame::CancelAck { delivered: r.bool()? },
        0x88 => Frame::Goodbye,
        // A record is at least three u64s, three string lengths, a list
        // count and two option flags.
        0x89 => {
            Frame::SlowLogReply { entries: read_list(r, 42, "slowlog entry", read_flight_record)? }
        }
        tag => return Err(r.corrupt(format!("unknown frame tag 0x{tag:02X}"))),
    })
}

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), TransportError> {
    write_payload(w, &frame.encode())
}

/// Write one already-encoded frame payload behind its length prefix.
pub(crate) fn write_payload<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), TransportError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(corrupt(format!("outgoing frame of {} bytes exceeds the cap", payload.len())));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes()).map_err(TransportError::io)?;
    w.write_all(payload).map_err(TransportError::io)?;
    w.flush().map_err(TransportError::io)?;
    Ok(())
}

fn corrupt(detail: String) -> TransportError {
    TransportError::Protocol(ProtocolError::Corrupt { detail })
}

/// Read one length-prefixed frame. `Ok(None)` is a clean end-of-stream
/// exactly at a frame boundary; EOF anywhere inside a frame is a
/// [`ProtocolError::Corrupt`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, TransportError> {
    match read_frame_payload(r)? {
        None => Ok(None),
        Some(payload) => Frame::decode(&payload).map_err(TransportError::Protocol).map(Some),
    }
}

/// Read one frame's raw payload without decoding it — the session loop
/// uses this so the decode step can be timed on the server clock and
/// charged to the query's `server.decode` span.
pub(crate) fn read_frame_payload<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, TransportError> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut len_buf[got..]).map_err(TransportError::io)?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(corrupt(format!("stream ended {got} bytes into a frame length")));
        }
        got += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(corrupt(format!("incoming frame of {len} bytes exceeds the cap")));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        let n = r.read(&mut payload[filled..]).map_err(TransportError::io)?;
        if n == 0 {
            return Err(corrupt(format!("stream ended {filled} bytes into a {len}-byte frame")));
        }
        filled += n;
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_storage::{DataType, Field, TableBuilder};

    fn sample_table() -> Table {
        let mut b = TableBuilder::new("t");
        b.add_i64("g", vec![1, 2, 3]);
        b.add_f64_opt("v", vec![Some(1.5), None, Some(-2.25)]);
        b.add_str("s", vec!["a".into(), "".into(), "δ".into()]);
        b.add_bool("ok", &[true, false, true]);
        b.build().unwrap()
    }

    fn sample_trace() -> TraceNode {
        TraceNode {
            name: "query".to_string(),
            start_us: 10,
            duration_us: Some(90),
            index: None,
            fields: vec![
                ("rows".to_string(), FieldValue::U64(3)),
                ("note".to_string(), FieldValue::Str("δ".to_string())),
                ("bound".to_string(), FieldValue::F64(0.5)),
            ],
            children: vec![TraceNode {
                name: "cluster.shard".to_string(),
                start_us: 20,
                duration_us: Some(40),
                index: Some(0),
                fields: vec![("ok".to_string(), FieldValue::Bool(true))],
                children: Vec::new(),
            }],
        }
    }

    #[test]
    fn table_roundtrip_preserves_every_column_type() {
        let t = sample_table();
        let frame = Frame::ResultSet(Box::new(WireResult {
            table: t.clone(),
            rows_scanned: 7,
            approximate: true,
            error_bound: Some(0.5),
            degraded: vec!["no_model".into()],
            service_us: 11,
            queue_us: 3,
            query_id: 42,
            trace: Some(sample_trace()),
        }));
        let decoded = Frame::decode(&frame.encode()).unwrap();
        assert_eq!(decoded, frame);
    }

    #[test]
    fn slowlog_frames_roundtrip() {
        let req = Frame::SlowLog { n: 5 };
        assert_eq!(Frame::decode(&req.encode()).unwrap(), req);
        let reply = Frame::SlowLogReply {
            entries: vec![FlightRecord {
                query_id: 9,
                sql: "SELECT g FROM t".to_string(),
                mode: "cluster".to_string(),
                total_us: 90,
                error: Some("shard 1 lost".to_string()),
                layers: vec![("fetch".to_string(), 40), ("execute".to_string(), 50)],
                dominant_layer: "execute".to_string(),
                dominant_us: 50,
                trace: Some(sample_trace()),
            }],
        };
        assert_eq!(Frame::decode(&reply.encode()).unwrap(), reply);
        // The smallest record, so the entry-count guard's per-entry
        // minimum is exactly what a record can take.
        let smallest = FlightRecord {
            query_id: 0,
            sql: String::new(),
            mode: String::new(),
            total_us: 0,
            error: None,
            layers: Vec::new(),
            dominant_layer: String::new(),
            dominant_us: 0,
            trace: None,
        };
        for entries in [Vec::new(), vec![smallest]] {
            let reply = Frame::SlowLogReply { entries };
            assert_eq!(Frame::decode(&reply.encode()).unwrap(), reply);
        }
    }

    #[test]
    fn over_deep_trace_claims_are_rejected() {
        // A chain of nested single-child nodes deeper than the cap.
        fn chain(depth: usize) -> TraceNode {
            TraceNode {
                name: "n".to_string(),
                start_us: 0,
                duration_us: None,
                index: None,
                fields: Vec::new(),
                children: if depth == 0 { Vec::new() } else { vec![chain(depth - 1)] },
            }
        }
        let deep = Frame::ResultSet(Box::new(WireResult {
            table: sample_table(),
            rows_scanned: 0,
            approximate: false,
            error_bound: None,
            degraded: Vec::new(),
            service_us: 0,
            queue_us: 0,
            query_id: 1,
            trace: Some(chain(MAX_TRACE_DEPTH + 1)),
        }));
        let err = Frame::decode(&deep.encode()).unwrap_err();
        assert_eq!(err.to_string(), "malformed frame: trace nested deeper than 64");
    }

    #[test]
    fn stream_roundtrip() {
        let mut buf = Vec::new();
        let frames = [
            Frame::Hello { protocol_version: PROTOCOL_VERSION, options: SessionOptions::default() },
            Frame::Query { mode: QueryMode::Resilient, sql: "SELECT 1".into(), trace: false },
            Frame::Goodbye,
        ];
        for f in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = &buf[..];
        for f in &frames {
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(f));
        }
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn decode_rejects_trailing_garbage_and_bad_tags() {
        let mut payload = Frame::Close.encode();
        payload.push(0xFF);
        let detail = |bytes: &[u8]| match Frame::decode(bytes) {
            Err(ProtocolError::Corrupt { detail }) => detail,
            other => panic!("expected a corrupt frame, got {other:?}"),
        };
        assert_eq!(detail(&payload), "1 trailing bytes");
        assert_eq!(detail(&[0x7F]), "unknown frame tag 0x7F");
        assert_eq!(detail(&[]), "truncated u8");
    }

    #[test]
    fn oversized_claims_are_rejected_before_allocation() {
        // A ResultSet claiming u32::MAX columns in a tiny payload.
        let mut payload = vec![0x82];
        put_str(&mut payload, "t");
        put_u32(&mut payload, u32::MAX);
        let err = Frame::decode(&payload).unwrap_err();
        assert_eq!(err.to_string(), "malformed frame: implausible column count 4294967295");
        // One column claiming u64::MAX rows.
        let mut payload = vec![0x82];
        put_str(&mut payload, "t");
        put_u32(&mut payload, 1);
        put_field(&mut payload, &Field::new("v", DataType::Float64));
        payload.push(lawsdb_storage::codec::type_tag(DataType::Float64));
        put_u64(&mut payload, u64::MAX);
        put_u64(&mut payload, 1 << 58);
        assert!(Frame::decode(&payload).is_err());
    }
}
