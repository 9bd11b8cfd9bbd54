//! The LawsDB wire protocol: length-prefixed binary frames.
//!
//! Every frame on the wire is `[u32 little-endian payload length]`
//! followed by exactly that many payload bytes; the first payload byte
//! is the frame tag, the rest is the tag-specific body. Integers are
//! little-endian, floats are IEEE-754 bit patterns, strings are
//! `u32 length + UTF-8 bytes`, options are a one-byte presence flag,
//! vectors are `u32 count + elements`.
//!
//! Decoding is *total*: [`Frame::decode`] consumes an untrusted byte
//! slice and returns a structured [`ProtocolError`] on any malformed
//! input — truncation, unknown tags, bad UTF-8, inconsistent table
//! shapes, oversized claims — and never panics or over-allocates
//! (every claimed length is checked against the bytes actually
//! present before any allocation). The proptest suite in
//! `tests/protocol_proptest.rs` pins both directions: encode∘decode is
//! the identity for every frame type, and decode survives random,
//! truncated and bit-flipped streams.

use crate::error::{ProtocolError, TransportError, WireError};
use lawsdb_obs::{FieldValue, FlightRecord, TraceNode};
use lawsdb_storage::bitmap::Bitmap;
use lawsdb_storage::{Column, DataType, Field, Schema, Table};
use std::io::{Read, Write};

/// The one protocol version this build speaks. Version 2 added query
/// ids, the `Query` trace flag, the trace tree on `ResultSet`, and the
/// `SlowLog` request. There is no negotiation: a [`Frame::Hello`]
/// naming any other version is answered with a structured
/// `VersionMismatch` protocol error and the session is closed.
pub const PROTOCOL_VERSION: u32 = 2;

/// Decode-side cap on trace-tree nesting; deeper claims are rejected
/// (a real profile nests plan depth + a few cluster levels, nowhere
/// near this).
pub const MAX_TRACE_DEPTH: usize = 64;

/// Hard cap on a single frame's payload. Larger claims are rejected
/// before any allocation happens.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Cap on columns in a wire-encoded table (a decode-side sanity bound;
/// the engine never produces result sets remotely this wide).
const MAX_WIRE_COLUMNS: u64 = 4096;

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

    fn from_tag(tag: u8) -> Result<QueryMode, ProtocolError> {
        match tag {
            0 => Ok(QueryMode::Exact),
            1 => Ok(QueryMode::Resilient),
            2 => Ok(QueryMode::Adaptive),
            3 => Ok(QueryMode::Explain),
            4 => Ok(QueryMode::Cluster),
            _ => Err(ProtocolError::BadTag { context: "query mode", tag }),
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
    /// Server-minted query id (v2; 0 when the peer spoke v1). Links
    /// this result to histogram exemplars and the slow-query log.
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

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(v as u8);
}

fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u32(out, v);
        }
        None => out.push(0),
    }
}

fn put_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u64(out, v);
        }
        None => out.push(0),
    }
}

fn put_opt_bool(out: &mut Vec<u8>, v: Option<bool>) {
    match v {
        Some(v) => {
            out.push(1);
            put_bool(out, v);
        }
        None => out.push(0),
    }
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u64(out, v.to_bits());
        }
        None => out.push(0),
    }
}

fn put_bitmap(out: &mut Vec<u8>, bits: &Bitmap, len: usize) {
    let mut byte = 0u8;
    for i in 0..len {
        if bits.get(i) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            out.push(byte);
            byte = 0;
        }
    }
    if !len.is_multiple_of(8) {
        out.push(byte);
    }
}

/// Bounds-checked reader over a fully-buffered frame payload. Every
/// accessor returns [`ProtocolError::Truncated`] instead of reading
/// past the end, so no combination of claimed lengths can panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated { needed: n, available: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool_(&mut self) -> Result<bool, ProtocolError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ProtocolError::BadTag { context: "bool", tag }),
        }
    }

    fn str_(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
    }

    fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, ProtocolError>,
    ) -> Result<Option<T>, ProtocolError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(read(self)?)),
            tag => Err(ProtocolError::BadTag { context: "option flag", tag }),
        }
    }

    fn bitmap(&mut self, rows: usize) -> Result<Bitmap, ProtocolError> {
        let bytes = self.bytes(rows.div_ceil(8))?;
        let mut bm = Bitmap::new();
        for i in 0..rows {
            bm.push(bytes[i / 8] & (1 << (i % 8)) != 0);
        }
        Ok(bm)
    }
}

// ---- session options ----------------------------------------------

fn put_options(out: &mut Vec<u8>, o: &SessionOptions) {
    put_opt_u32(out, o.threads);
    put_opt_u32(out, o.morsel_rows);
    put_opt_bool(out, o.pruning);
    put_opt_u64(out, o.deadline_ms);
    put_opt_u64(out, o.memory_bytes);
    put_opt_u64(out, o.max_rows);
}

fn read_options(r: &mut Reader<'_>) -> Result<SessionOptions, ProtocolError> {
    Ok(SessionOptions {
        threads: r.opt(Reader::u32)?,
        morsel_rows: r.opt(Reader::u32)?,
        pruning: r.opt(Reader::bool_)?,
        deadline_ms: r.opt(Reader::u64)?,
        memory_bytes: r.opt(Reader::u64)?,
        max_rows: r.opt(Reader::u64)?,
    })
}

// ---- table --------------------------------------------------------

fn column_type_tag(c: &Column) -> u8 {
    match c {
        Column::Int64 { .. } => 0,
        Column::Float64 { .. } => 1,
        Column::Str { .. } => 2,
        Column::Bool { .. } => 3,
    }
}

fn put_table(out: &mut Vec<u8>, t: &Table) {
    put_str(out, t.name());
    put_u32(out, t.columns().len() as u32);
    put_u64(out, t.row_count() as u64);
    let rows = t.row_count();
    for (field, col) in t.schema().fields().iter().zip(t.columns()) {
        put_str(out, &field.name);
        out.push(column_type_tag(col));
        put_bool(out, field.nullable);
        put_bitmap(out, col.validity(), rows);
        match col {
            Column::Int64 { data, .. } => {
                for &v in data.iter() {
                    put_u64(out, v as u64);
                }
            }
            Column::Float64 { data, .. } => {
                for &v in data.iter() {
                    put_u64(out, v.to_bits());
                }
            }
            Column::Str { data, .. } => {
                for v in data.iter() {
                    put_str(out, v);
                }
            }
            Column::Bool { data, .. } => put_bitmap(out, data, rows),
        }
    }
}

fn read_table(r: &mut Reader<'_>) -> Result<Table, ProtocolError> {
    let name = r.str_()?;
    let ncols = r.u32()? as u64;
    let nrows64 = r.u64()?;
    if ncols > MAX_WIRE_COLUMNS {
        return Err(ProtocolError::Oversized { what: "table columns", claimed: ncols });
    }
    // A row needs at least one validity bit on the wire, so any claim
    // beyond 8× the remaining bytes is provably bogus — reject before
    // looping, let alone allocating.
    if nrows64 > (r.remaining() as u64).saturating_mul(8).max(1) {
        return Err(ProtocolError::Oversized { what: "table rows", claimed: nrows64 });
    }
    let nrows = nrows64 as usize;
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for _ in 0..ncols {
        let fname = r.str_()?;
        let tag = r.u8()?;
        let nullable = r.bool_()?;
        let validity = r.bitmap(nrows)?;
        let (dtype, col) = match tag {
            0 => {
                let raw = r.bytes(nrows.checked_mul(8).ok_or(ProtocolError::Oversized {
                    what: "int column bytes",
                    claimed: nrows64,
                })?)?;
                let data: Vec<i64> = raw
                    .chunks_exact(8)
                    .map(|b| i64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
                    .collect();
                (DataType::Int64, Column::Int64 { data: data.into(), validity })
            }
            1 => {
                let raw = r.bytes(nrows.checked_mul(8).ok_or(ProtocolError::Oversized {
                    what: "float column bytes",
                    claimed: nrows64,
                })?)?;
                let data: Vec<f64> = raw
                    .chunks_exact(8)
                    .map(|b| {
                        f64::from_bits(u64::from_le_bytes([
                            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
                        ]))
                    })
                    .collect();
                (DataType::Float64, Column::Float64 { data: data.into(), validity })
            }
            2 => {
                let mut data = Vec::new();
                for _ in 0..nrows {
                    data.push(r.str_()?);
                }
                (DataType::Str, Column::Str { data: data.into(), validity })
            }
            3 => {
                let data = r.bitmap(nrows)?;
                (DataType::Bool, Column::Bool { data, validity })
            }
            tag => return Err(ProtocolError::BadTag { context: "column type", tag }),
        };
        fields.push(if nullable {
            Field::nullable(fname, dtype)
        } else {
            Field::new(fname, dtype)
        });
        columns.push(col);
    }
    Table::new(name, Schema::new(fields), columns)
        .map_err(|e| ProtocolError::BadTable { detail: e.to_string() })
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
            put_bool(out, *x);
        }
        FieldValue::Str(x) => {
            out.push(4);
            put_str(out, x);
        }
    }
}

fn read_field_value(r: &mut Reader<'_>) -> Result<FieldValue, ProtocolError> {
    match r.u8()? {
        0 => Ok(FieldValue::U64(r.u64()?)),
        1 => Ok(FieldValue::I64(r.u64()? as i64)),
        2 => Ok(FieldValue::F64(r.f64()?)),
        3 => Ok(FieldValue::Bool(r.bool_()?)),
        4 => Ok(FieldValue::Str(r.str_()?)),
        tag => Err(ProtocolError::BadTag { context: "field value", tag }),
    }
}

fn put_trace_node(out: &mut Vec<u8>, n: &TraceNode) {
    put_str(out, &n.name);
    put_u64(out, n.start_us);
    put_opt_u64(out, n.duration_us);
    put_opt_u64(out, n.index);
    put_u32(out, n.fields.len() as u32);
    for (k, v) in &n.fields {
        put_str(out, k);
        put_field_value(out, v);
    }
    put_u32(out, n.children.len() as u32);
    for c in &n.children {
        put_trace_node(out, c);
    }
}

fn read_trace_node(r: &mut Reader<'_>, depth: usize) -> Result<TraceNode, ProtocolError> {
    if depth > MAX_TRACE_DEPTH {
        return Err(ProtocolError::Oversized { what: "trace depth", claimed: depth as u64 });
    }
    let name = r.str_()?;
    let start_us = r.u64()?;
    let duration_us = r.opt(Reader::u64)?;
    let index = r.opt(Reader::u64)?;
    let nfields = r.u32()? as usize;
    // A field needs at least a length + tag on the wire; any claim
    // beyond the remaining bytes is bogus — reject before allocating.
    if nfields > r.remaining() {
        return Err(ProtocolError::Oversized { what: "trace fields", claimed: nfields as u64 });
    }
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        let k = r.str_()?;
        fields.push((k, read_field_value(r)?));
    }
    let nchildren = r.u32()? as usize;
    if nchildren > r.remaining() {
        return Err(ProtocolError::Oversized {
            what: "trace children",
            claimed: nchildren as u64,
        });
    }
    let mut children = Vec::with_capacity(nchildren);
    for _ in 0..nchildren {
        children.push(read_trace_node(r, depth + 1)?);
    }
    Ok(TraceNode { name, start_us, duration_us, index, fields, children })
}

fn put_flight_record(out: &mut Vec<u8>, rec: &FlightRecord) {
    put_u64(out, rec.query_id);
    put_str(out, &rec.sql);
    put_str(out, &rec.mode);
    put_u64(out, rec.total_us);
    match &rec.error {
        Some(e) => {
            out.push(1);
            put_str(out, e);
        }
        None => out.push(0),
    }
    put_u32(out, rec.layers.len() as u32);
    for (layer, us) in &rec.layers {
        put_str(out, layer);
        put_u64(out, *us);
    }
    put_str(out, &rec.dominant_layer);
    put_u64(out, rec.dominant_us);
    match &rec.trace {
        Some(t) => {
            out.push(1);
            put_trace_node(out, t);
        }
        None => out.push(0),
    }
}

fn read_flight_record(r: &mut Reader<'_>) -> Result<FlightRecord, ProtocolError> {
    let query_id = r.u64()?;
    let sql = r.str_()?;
    let mode = r.str_()?;
    let total_us = r.u64()?;
    let error = r.opt(Reader::str_)?;
    let nlayers = r.u32()? as usize;
    if nlayers > r.remaining() {
        return Err(ProtocolError::Oversized { what: "layer list", claimed: nlayers as u64 });
    }
    let mut layers = Vec::with_capacity(nlayers);
    for _ in 0..nlayers {
        let layer = r.str_()?;
        layers.push((layer, r.u64()?));
    }
    let dominant_layer = r.str_()?;
    let dominant_us = r.u64()?;
    let trace = r.opt(|r| read_trace_node(r, 0))?;
    Ok(FlightRecord {
        query_id,
        sql,
        mode,
        total_us,
        error,
        layers,
        dominant_layer,
        dominant_us,
        trace,
    })
}

// ---- results and errors -------------------------------------------

fn put_result(out: &mut Vec<u8>, r: &WireResult) {
    put_table(out, &r.table);
    put_u64(out, r.rows_scanned);
    put_bool(out, r.approximate);
    put_opt_f64(out, r.error_bound);
    put_u32(out, r.degraded.len() as u32);
    for d in &r.degraded {
        put_str(out, d);
    }
    put_u64(out, r.service_us);
    put_u64(out, r.queue_us);
    put_u64(out, r.query_id);
    match &r.trace {
        Some(t) => {
            out.push(1);
            put_trace_node(out, t);
        }
        None => out.push(0),
    }
}

fn read_result(r: &mut Reader<'_>) -> Result<WireResult, ProtocolError> {
    let table = read_table(r)?;
    let rows_scanned = r.u64()?;
    let approximate = r.bool_()?;
    let error_bound = r.opt(Reader::f64)?;
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return Err(ProtocolError::Oversized { what: "degraded list", claimed: n as u64 });
    }
    let mut degraded = Vec::with_capacity(n);
    for _ in 0..n {
        degraded.push(r.str_()?);
    }
    let service_us = r.u64()?;
    let queue_us = r.u64()?;
    let query_id = r.u64()?;
    let trace = r.opt(|r| read_trace_node(r, 0))?;
    Ok(WireResult {
        table,
        rows_scanned,
        approximate,
        error_bound,
        degraded,
        service_us,
        queue_us,
        query_id,
        trace,
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

fn read_wire_error(r: &mut Reader<'_>) -> Result<WireError, ProtocolError> {
    match r.u8()? {
        0 => Ok(WireError::Rejected {
            active: r.u32()?,
            queued: r.u32()?,
            retry_after_ms: r.u64()?,
        }),
        1 => Ok(WireError::QueueTimeout { waited_ms: r.u64()?, budget_ms: r.u64()? }),
        2 => Ok(WireError::SessionLimit { active: r.u32()?, max: r.u32()? }),
        3 => Ok(WireError::Query { kind: r.str_()?, detail: r.str_()? }),
        4 => Ok(WireError::Protocol { detail: r.str_()? }),
        5 => Ok(WireError::Server { detail: r.str_()? }),
        tag => Err(ProtocolError::BadTag { context: "error kind", tag }),
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
                put_bool(&mut out, *trace);
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
                out.push(0x82);
                put_result(&mut out, r);
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
                put_bool(&mut out, *delivered);
            }
            Frame::Goodbye => out.push(0x88),
            Frame::SlowLogReply { entries } => {
                out.push(0x89);
                put_u32(&mut out, entries.len() as u32);
                for e in entries {
                    put_flight_record(&mut out, e);
                }
            }
        }
        out
    }

    /// Decode a frame from a complete payload slice (everything between
    /// two length prefixes). Total: returns a structured error on any
    /// malformed input, never panics, and rejects trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<Frame, ProtocolError> {
        let mut r = Reader::new(payload);
        let tag = r.u8()?;
        let frame = match tag {
            0x01 => Frame::Hello { protocol_version: r.u32()?, options: read_options(&mut r)? },
            0x02 => Frame::Query {
                mode: QueryMode::from_tag(r.u8()?)?,
                sql: r.str_()?,
                trace: r.bool_()?,
            },
            0x03 => Frame::SetOptions { options: read_options(&mut r)? },
            0x04 => Frame::Stats {
                format: match r.u8()? {
                    0 => StatsFormat::Prometheus,
                    1 => StatsFormat::Json,
                    tag => return Err(ProtocolError::BadTag { context: "stats format", tag }),
                },
            },
            0x05 => Frame::Cancel { session: r.u64()? },
            0x06 => Frame::Close,
            0x07 => Frame::SlowLog { n: r.u32()? },
            0x81 => Frame::HelloAck { session: r.u64()?, protocol_version: r.u32()? },
            0x82 => Frame::ResultSet(Box::new(read_result(&mut r)?)),
            0x83 => Frame::Error(read_wire_error(&mut r)?),
            0x84 => Frame::StatsReply { text: r.str_()? },
            0x85 => Frame::ExplainReply { text: r.str_()? },
            0x86 => Frame::OptionsAck,
            0x87 => Frame::CancelAck { delivered: r.bool_()? },
            0x88 => Frame::Goodbye,
            0x89 => {
                let n = r.u32()? as usize;
                if n > r.remaining() {
                    return Err(ProtocolError::Oversized {
                        what: "slowlog entries",
                        claimed: n as u64,
                    });
                }
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    entries.push(read_flight_record(&mut r)?);
                }
                Frame::SlowLogReply { entries }
            }
            tag => return Err(ProtocolError::BadTag { context: "frame", tag }),
        };
        if r.remaining() != 0 {
            return Err(ProtocolError::TrailingBytes { count: r.remaining() });
        }
        Ok(frame)
    }
}

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), TransportError> {
    let payload = frame.encode();
    if payload.len() > MAX_FRAME_BYTES {
        return Err(TransportError::Protocol(ProtocolError::Oversized {
            what: "outgoing frame",
            claimed: payload.len() as u64,
        }));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes()).map_err(TransportError::io)?;
    w.write_all(&payload).map_err(TransportError::io)?;
    w.flush().map_err(TransportError::io)?;
    Ok(())
}

/// Encoded size of a result body, without assembling the full frame. The session's `server.encode` span charges the payload
/// it is about to ship, measured *before* the trace tree is attached —
/// a trace cannot contain the cost of encoding itself.
pub(crate) fn encoded_result_len(r: &WireResult) -> usize {
    let mut out = Vec::new();
    put_result(&mut out, r);
    out.len() + 1 // + the frame tag byte
}

/// Read one length-prefixed frame. `Ok(None)` is a clean end-of-stream
/// exactly at a frame boundary; EOF anywhere inside a frame is a
/// [`ProtocolError::Truncated`].
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
            return Err(TransportError::Protocol(ProtocolError::Truncated {
                needed: 4,
                available: got,
            }));
        }
        got += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(TransportError::Protocol(ProtocolError::Oversized {
            what: "incoming frame",
            claimed: len as u64,
        }));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        let n = r.read(&mut payload[filled..]).map_err(TransportError::io)?;
        if n == 0 {
            return Err(TransportError::Protocol(ProtocolError::Truncated {
                needed: len,
                available: filled,
            }));
        }
        filled += n;
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_storage::TableBuilder;

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
        assert_eq!(
            Frame::decode(&Frame::SlowLogReply { entries: Vec::new() }.encode()).unwrap(),
            Frame::SlowLogReply { entries: Vec::new() }
        );
    }

    #[test]
    fn bodies_without_the_v2_fields_are_truncated_not_defaulted() {
        // A v1-era Query body (no trace flag byte) is an error now.
        let mut payload = vec![0x02, 0u8];
        put_str(&mut payload, "SELECT 1");
        assert!(matches!(Frame::decode(&payload), Err(ProtocolError::Truncated { .. })));
        let traced = Frame::Query { mode: QueryMode::Exact, sql: "SELECT 1".into(), trace: true };
        assert_eq!(Frame::decode(&traced.encode()).unwrap(), traced);
        // So is a result body that stops before the query id (9 bytes:
        // the id's last 8 plus the absent-trace tag).
        let result = Frame::ResultSet(Box::new(WireResult {
            table: sample_table(),
            rows_scanned: 7,
            approximate: false,
            error_bound: None,
            degraded: Vec::new(),
            service_us: 11,
            queue_us: 3,
            query_id: 42,
            trace: None,
        }));
        let bytes = result.encode();
        assert!(matches!(
            Frame::decode(&bytes[..bytes.len() - 9]),
            Err(ProtocolError::Truncated { .. })
        ));
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
        assert!(matches!(
            Frame::decode(&deep.encode()),
            Err(ProtocolError::Oversized { what: "trace depth", .. })
        ));
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
        assert!(matches!(
            Frame::decode(&payload),
            Err(ProtocolError::TrailingBytes { count: 1 })
        ));
        assert!(matches!(
            Frame::decode(&[0x7F]),
            Err(ProtocolError::BadTag { context: "frame", .. })
        ));
        assert!(matches!(Frame::decode(&[]), Err(ProtocolError::Truncated { .. })));
    }

    #[test]
    fn oversized_claims_are_rejected_before_allocation() {
        // A ResultSet claiming u64::MAX rows in a tiny payload.
        let mut payload = vec![0x82];
        put_str(&mut payload, "t");
        put_u32(&mut payload, 1);
        put_u64(&mut payload, u64::MAX);
        assert!(matches!(
            Frame::decode(&payload),
            Err(ProtocolError::Oversized { what: "table rows", .. })
        ));
    }
}
