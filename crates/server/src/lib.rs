//! # lawsdb-server — the multi-session front end
//!
//! Turns one embedded [`LawsDb`](lawsdb_core::LawsDb) into a server:
//! concurrent client sessions over a shared engine (one table catalog,
//! one model catalog, one plan cache), with every query passing
//! through global admission control before it can touch a core.
//!
//! * [`protocol`] — the length-prefixed binary wire format; total,
//!   never-panicking decode.
//! * [`pipe`] — in-process loopback transport (no sockets needed).
//! * [`admission`] — bounded-queue admission with concurrency and
//!   memory caps, timeouts, and structured rejections.
//! * [`session`] — the per-connection request loop and the live-session
//!   directory (cross-session cancel lives here).
//! * [`server`] — ties it together; TCP and in-process listeners.
//! * [`client`] — the typed synchronous client library the tests and
//!   benches drive the server with.
//!
//! Every server metric lands in the engine's own
//! [`MetricsRegistry`](lawsdb_obs::MetricsRegistry) under the
//! `lawsdb_server_*` namespace, so one stats snapshot covers storage,
//! query, and server behavior together.

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod error;
pub mod pipe;
pub mod protocol;
pub mod server;
pub mod session;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionError, AdmissionPermit};
pub use client::{AdmissionRetry, Client, ClientError};
pub use error::{ProtocolError, TransportError, WireError};
pub use pipe::{duplex, PipeStream};
pub use protocol::{
    read_frame, write_frame, Frame, QueryMode, SessionOptions, StatsFormat, WireResult,
    MAX_FRAME_BYTES, MAX_TRACE_DEPTH, PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, TcpHandle};
pub use session::SessionDirectory;
