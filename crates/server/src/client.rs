//! The in-process client library: a thin, synchronous, typed wrapper
//! over the wire protocol. One [`Client`] owns one session; calls are
//! strict request→response, mirroring the server's session loop.
//!
//! The client works over any `Read + Write` stream — the in-process
//! [`PipeStream`](crate::pipe::PipeStream) from
//! [`Server::connect`](crate::Server::connect), or a `TcpStream`
//! against [`Server::serve_tcp`](crate::Server::serve_tcp).

use crate::error::{TransportError, WireError};
use crate::protocol::{
    read_frame, write_frame, Frame, QueryMode, SessionOptions, StatsFormat, WireResult,
    PROTOCOL_VERSION,
};
use lawsdb_obs::FlightRecord;
use std::fmt;
use std::io::{Read, Write};
use std::time::Duration;

/// Deterministic client-side backoff for admission rejections — the
/// same shape as `lawsdb_storage::RetryPolicy` (attempt budget, base
/// delay, hard ceiling), in milliseconds because admission hints are.
///
/// The wait before each retry honors the server's `retry_after_ms`
/// hint as a floor — retrying sooner would just get rejected again —
/// escalates by doubling for repeated rejections, and is capped at
/// `max_delay_ms` no matter what the server suggests, so a
/// misconfigured (or hostile) hint can never park a client for
/// minutes. Every delay is a pure function of the attempt index and
/// the hint, so a logged schedule replays exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionRetry {
    /// Total attempts per query, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Client-side backoff before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Hard ceiling on any single wait, in milliseconds. Also caps the
    /// server's `retry_after_ms` hint.
    pub max_delay_ms: u64,
}

impl AdmissionRetry {
    /// No retries: every rejection surfaces immediately.
    pub fn none() -> AdmissionRetry {
        AdmissionRetry { max_attempts: 1, base_delay_ms: 0, max_delay_ms: 0 }
    }

    /// The default query policy: 6 attempts, 10 ms doubling, capped at
    /// 500 ms per wait. Worst case a client burns ~1.8 s before giving
    /// up on a saturated server.
    pub fn default_queries() -> AdmissionRetry {
        AdmissionRetry { max_attempts: 6, base_delay_ms: 10, max_delay_ms: 500 }
    }

    /// The wait before retry number `retry` (1-based), given the
    /// server's `retry_after_ms` hint from the rejection it follows.
    pub fn delay_for(&self, retry: u32, retry_after_ms: u64) -> Duration {
        let exp = retry.saturating_sub(1).min(32);
        let own = self.base_delay_ms.saturating_mul(1u64 << exp);
        Duration::from_millis(own.max(retry_after_ms).min(self.max_delay_ms))
    }
}

impl Default for AdmissionRetry {
    fn default() -> AdmissionRetry {
        AdmissionRetry::default_queries()
    }
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The stream failed or carried a malformed frame.
    Transport(TransportError),
    /// The server answered with a structured error.
    Server(WireError),
    /// The server answered with a frame this request cannot accept.
    Unexpected {
        /// What the client was waiting for.
        expected: &'static str,
        /// What arrived, rendered.
        got: String,
    },
    /// The server closed the stream mid-conversation.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "{e}"),
            ClientError::Server(e) => write!(f, "{e}"),
            ClientError::Unexpected { expected, got } => {
                write!(f, "expected {expected}, got {got}")
            }
            ClientError::Disconnected => write!(f, "server disconnected"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> ClientError {
        ClientError::Transport(e)
    }
}

/// One connected session.
#[derive(Debug)]
pub struct Client<S> {
    stream: S,
    session: u64,
}

impl<S: Read + Write> Client<S> {
    /// Handshake over `stream` with default options.
    pub fn connect(stream: S) -> Result<Client<S>, ClientError> {
        Client::connect_with(stream, SessionOptions::default())
    }

    /// Handshake over `stream` with initial session options.
    pub fn connect_with(mut stream: S, options: SessionOptions) -> Result<Client<S>, ClientError> {
        write_frame(&mut stream, &Frame::Hello { protocol_version: PROTOCOL_VERSION, options })?;
        match read_frame(&mut stream)? {
            Some(Frame::HelloAck { session, .. }) => Ok(Client { stream, session }),
            Some(Frame::Error(e)) => Err(ClientError::Server(e)),
            Some(other) => {
                Err(ClientError::Unexpected { expected: "HelloAck", got: format!("{other:?}") })
            }
            None => Err(ClientError::Disconnected),
        }
    }

    /// This session's id — the handle another session would pass to
    /// [`Client::cancel`] to cancel this session's running query.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    fn roundtrip(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        write_frame(&mut self.stream, request)?;
        match read_frame(&mut self.stream)? {
            Some(frame) => Ok(frame),
            None => Err(ClientError::Disconnected),
        }
    }

    /// Run `sql` in `mode`; returns the typed result set.
    pub fn query(&mut self, mode: QueryMode, sql: &str) -> Result<WireResult, ClientError> {
        self.query_inner(mode, sql, false)
    }

    /// Run `sql` in `mode` with tracing: the result carries the full
    /// distributed trace tree in [`WireResult::trace`] (admission
    /// queue, decode/encode, per-shard scatter-gather phases, plan and
    /// morsel spans). Requires a v2 session; a v1 server simply never
    /// attaches the tree.
    pub fn query_traced(&mut self, mode: QueryMode, sql: &str) -> Result<WireResult, ClientError> {
        self.query_inner(mode, sql, true)
    }

    fn query_inner(
        &mut self,
        mode: QueryMode,
        sql: &str,
        trace: bool,
    ) -> Result<WireResult, ClientError> {
        match self.roundtrip(&Frame::Query { mode, sql: sql.to_string(), trace })? {
            Frame::ResultSet(r) => Ok(*r),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => {
                Err(ClientError::Unexpected { expected: "ResultSet", got: format!("{other:?}") })
            }
        }
    }

    /// Fetch the server's slow-query flight recorder: up to `n`
    /// complete profiles of the slowest (or failed) recent queries,
    /// worst first.
    pub fn slowlog(&mut self, n: u32) -> Result<Vec<FlightRecord>, ClientError> {
        match self.roundtrip(&Frame::SlowLog { n })? {
            Frame::SlowLogReply { entries } => Ok(entries),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => {
                Err(ClientError::Unexpected { expected: "SlowLogReply", got: format!("{other:?}") })
            }
        }
    }

    /// Run `sql` in `mode`, transparently retrying admission
    /// rejections under `policy`. Each `Rejected` answer is absorbed,
    /// the client sleeps for [`AdmissionRetry::delay_for`] (which
    /// honors the server's `retry_after_ms` hint up to the policy
    /// ceiling), and the query is re-sent. Every other outcome —
    /// success, engine errors, transport failures — passes through
    /// unchanged on the first occurrence; only admission pushback is
    /// worth re-asking about.
    pub fn query_with_retry(
        &mut self,
        mode: QueryMode,
        sql: &str,
        policy: AdmissionRetry,
    ) -> Result<WireResult, ClientError> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.query(mode, sql) {
                Err(ClientError::Server(WireError::Rejected { retry_after_ms, .. }))
                    if attempt < policy.max_attempts =>
                {
                    std::thread::sleep(policy.delay_for(attempt, retry_after_ms));
                }
                other => return other,
            }
        }
    }

    /// Exact-mode shorthand.
    pub fn query_exact(&mut self, sql: &str) -> Result<WireResult, ClientError> {
        self.query(QueryMode::Exact, sql)
    }

    /// Cluster-mode shorthand: dispatch to the server's attached
    /// sharded cluster.
    pub fn query_cluster(&mut self, sql: &str) -> Result<WireResult, ClientError> {
        self.query(QueryMode::Cluster, sql)
    }

    /// Resilient-mode shorthand.
    pub fn query_resilient(&mut self, sql: &str) -> Result<WireResult, ClientError> {
        self.query(QueryMode::Resilient, sql)
    }

    /// Adaptive-mode shorthand.
    pub fn query_adaptive(&mut self, sql: &str) -> Result<WireResult, ClientError> {
        self.query(QueryMode::Adaptive, sql)
    }

    /// `EXPLAIN sql`: the costed plan text, nothing executed.
    pub fn explain(&mut self, sql: &str) -> Result<String, ClientError> {
        let request = Frame::Query { mode: QueryMode::Explain, sql: sql.to_string(), trace: false };
        match self.roundtrip(&request)? {
            Frame::ExplainReply { text } => Ok(text),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => {
                Err(ClientError::Unexpected { expected: "ExplainReply", got: format!("{other:?}") })
            }
        }
    }

    /// Replace this session's options.
    pub fn set_options(&mut self, options: SessionOptions) -> Result<(), ClientError> {
        match self.roundtrip(&Frame::SetOptions { options })? {
            Frame::OptionsAck => Ok(()),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => {
                Err(ClientError::Unexpected { expected: "OptionsAck", got: format!("{other:?}") })
            }
        }
    }

    /// Fetch the server's metrics registry.
    pub fn stats(&mut self, format: StatsFormat) -> Result<String, ClientError> {
        match self.roundtrip(&Frame::Stats { format })? {
            Frame::StatsReply { text } => Ok(text),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => {
                Err(ClientError::Unexpected { expected: "StatsReply", got: format!("{other:?}") })
            }
        }
    }

    /// Cancel another session's in-flight query. Returns whether a
    /// cancel token was actually tripped.
    pub fn cancel(&mut self, session: u64) -> Result<bool, ClientError> {
        match self.roundtrip(&Frame::Cancel { session })? {
            Frame::CancelAck { delivered } => Ok(delivered),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => {
                Err(ClientError::Unexpected { expected: "CancelAck", got: format!("{other:?}") })
            }
        }
    }

    /// Orderly goodbye; consumes the client.
    pub fn close(mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Frame::Close)? {
            Frame::Goodbye => Ok(()),
            Frame::Error(e) => Err(ClientError::Server(e)),
            other => {
                Err(ClientError::Unexpected { expected: "Goodbye", got: format!("{other:?}") })
            }
        }
    }

    /// Send raw payload bytes as one frame — the corruption test
    /// suite's hook for speaking malformed protocol on purpose.
    pub fn send_raw(&mut self, payload: &[u8]) -> Result<(), ClientError> {
        self.stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .and_then(|()| self.stream.write_all(payload))
            .and_then(|()| self.stream.flush())
            .map_err(|e| ClientError::Transport(TransportError::Io(e)))
    }

    /// Read the next frame off the stream (pairs with [`send_raw`]).
    ///
    /// [`send_raw`]: Client::send_raw
    pub fn recv(&mut self) -> Result<Option<Frame>, ClientError> {
        read_frame(&mut self.stream).map_err(ClientError::from)
    }
}
