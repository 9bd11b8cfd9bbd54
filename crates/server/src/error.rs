//! Structured errors for the server front end.
//!
//! Three layers, kept distinct on purpose:
//!
//! * [`ProtocolError`] — a byte stream that is not a well-formed frame,
//!   or a peer speaking another protocol version. Pure data
//!   (`Clone + PartialEq`), produced only by framing and decoding.
//! * [`TransportError`] — a protocol error *or* an IO failure while
//!   moving frames; what the framed read/write functions return.
//! * [`WireError`] — the failure vocabulary that crosses the wire:
//!   admission rejections (with retry hints), per-query engine errors
//!   (with stable kind names), protocol violations, server faults.

use lawsdb_query::QueryError;
use lawsdb_storage::StorageError;
use std::fmt;

/// A malformed frame or a refused handshake. Every variant is a
/// refusal, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Bytes that are not a frame: a truncated or oversized frame, an
    /// unknown tag, bad UTF-8, an implausible count, trailing bytes or
    /// an inconsistent table — the decoding cursor's message.
    Corrupt {
        /// What was wrong.
        detail: String,
    },
    /// The client spoke a different protocol version.
    VersionMismatch {
        /// Client's version.
        client: u32,
        /// This server's version.
        server: u32,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Corrupt { detail } => write!(f, "malformed frame: {detail}"),
            ProtocolError::VersionMismatch { client, server } => {
                write!(f, "protocol version mismatch: client {client}, server {server}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<StorageError> for ProtocolError {
    fn from(e: StorageError) -> ProtocolError {
        let detail = match e {
            StorageError::CorruptData { detail, .. } => detail,
            other => other.to_string(),
        };
        ProtocolError::Corrupt { detail }
    }
}

/// A failure while moving frames over a stream.
#[derive(Debug)]
pub enum TransportError {
    /// The bytes were readable but not a valid frame.
    Protocol(ProtocolError),
    /// The stream itself failed.
    Io(std::io::Error),
}

impl TransportError {
    pub(crate) fn io(e: std::io::Error) -> TransportError {
        TransportError::Io(e)
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Protocol(e) => write!(f, "{e}"),
            TransportError::Io(e) => write!(f, "transport IO error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Protocol(e) => Some(e),
            TransportError::Io(e) => Some(e),
        }
    }
}

impl From<ProtocolError> for TransportError {
    fn from(e: ProtocolError) -> TransportError {
        TransportError::Protocol(e)
    }
}

/// The structured failure vocabulary that crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The admission queue was full; retry after the hinted delay.
    Rejected {
        /// Queries running when the request arrived.
        active: u32,
        /// Requests already waiting.
        queued: u32,
        /// Suggested client backoff (the queue's drain horizon).
        retry_after_ms: u64,
    },
    /// The request waited its full queue budget without being admitted.
    QueueTimeout {
        /// Milliseconds actually waited.
        waited_ms: u64,
        /// The queue-wait budget.
        budget_ms: u64,
    },
    /// The server is at its session cap; the connection is closed.
    SessionLimit {
        /// Sessions currently open.
        active: u32,
        /// The configured cap.
        max: u32,
    },
    /// The engine refused or aborted the query. `kind` is a stable
    /// machine-readable name (`timeout`, `cancelled`, `memory_exceeded`,
    /// `row_limit_exceeded`, `worker_panic`, `parse`, …); `detail` is
    /// the engine's human-readable rendering.
    Query {
        /// Stable error-kind name.
        kind: String,
        /// Full error text.
        detail: String,
    },
    /// The client sent a malformed frame; the session closes after
    /// this reply (and only this session).
    Protocol {
        /// What was wrong.
        detail: String,
    },
    /// An internal server failure.
    Server {
        /// What happened.
        detail: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Rejected { active, queued, retry_after_ms } => write!(
                f,
                "admission rejected: {active} active, {queued} queued; retry after {retry_after_ms} ms"
            ),
            WireError::QueueTimeout { waited_ms, budget_ms } => {
                write!(f, "queue timeout: waited {waited_ms} ms (budget {budget_ms} ms)")
            }
            WireError::SessionLimit { active, max } => {
                write!(f, "session limit reached: {active} of {max} open")
            }
            WireError::Query { kind, detail } => write!(f, "query error ({kind}): {detail}"),
            WireError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            WireError::Server { detail } => write!(f, "server error: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Stable machine-readable name for each engine error variant —
/// the `kind` field of [`WireError::Query`].
pub fn query_error_kind(e: &QueryError) -> &'static str {
    match e {
        QueryError::Lex { .. } => "lex",
        QueryError::Parse { .. } => "parse",
        QueryError::UnknownColumn { .. } => "unknown_column",
        QueryError::InvalidAggregate { .. } => "invalid_aggregate",
        QueryError::Type { .. } => "type",
        QueryError::Unsupported { .. } => "unsupported",
        QueryError::Timeout { .. } => "timeout",
        QueryError::MemoryExceeded { .. } => "memory_exceeded",
        QueryError::Cancelled => "cancelled",
        QueryError::RowLimitExceeded { .. } => "row_limit_exceeded",
        QueryError::WorkerPanic { .. } => "worker_panic",
        QueryError::Storage(_) => "storage",
        QueryError::Model(_) => "model",
    }
}

/// Map an engine error to its wire form.
pub fn core_error_to_wire(e: &lawsdb_core::CoreError) -> WireError {
    match e {
        lawsdb_core::CoreError::Query(q) => {
            WireError::Query { kind: query_error_kind(q).to_string(), detail: q.to_string() }
        }
        other => WireError::Query { kind: "engine".to_string(), detail: other.to_string() },
    }
}

/// Map a cluster error to its wire form. `partial_result` and
/// `cluster_unsupported` are stable kinds clients branch on; query- and
/// storage-layer failures keep their engine kinds.
pub fn cluster_error_to_wire(e: &lawsdb_cluster::ClusterError) -> WireError {
    match e {
        lawsdb_cluster::ClusterError::Unsupported { .. } => {
            WireError::Query { kind: "cluster_unsupported".to_string(), detail: e.to_string() }
        }
        lawsdb_cluster::ClusterError::PartialResult { .. } => {
            WireError::Query { kind: "partial_result".to_string(), detail: e.to_string() }
        }
        lawsdb_cluster::ClusterError::Query(q) => {
            WireError::Query { kind: query_error_kind(q).to_string(), detail: q.to_string() }
        }
        lawsdb_cluster::ClusterError::Storage(s) => {
            WireError::Query { kind: "storage".to_string(), detail: s.to_string() }
        }
    }
}
