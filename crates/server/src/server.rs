//! The assembled server: one shared [`LawsDb`], a session directory,
//! an admission controller, and the transports that feed them.
//!
//! Connections arrive three ways, all ending in the same session loop:
//!
//! * [`Server::connect`] — in-process loopback over a
//!   [`PipeStream`] pair (tests, benches,
//!   embedded use);
//! * [`Server::serve_stream`] — any `Read + Write + Send` stream the
//!   caller already owns;
//! * [`Server::serve_tcp`] — a real TCP listener, one thread per
//!   connection, with an orderly [`TcpHandle::shutdown`].

use crate::admission::{AdmissionConfig, AdmissionController};
use crate::pipe::{duplex, PipeStream};
use crate::protocol::SessionOptions;
use crate::session::{run_session, SessionDirectory};
use lawsdb_cluster::Cluster;
use lawsdb_core::LawsDb;
use lawsdb_obs::{Clock, Counter, FlightRecorder, Histogram, MonotonicClock, RecorderConfig};
use parking_lot::RwLock;
use lawsdb_query::ResourceBudget;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server-wide policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Global admission caps (concurrency, queue, memory).
    pub admission: AdmissionConfig,
    /// Concurrent sessions allowed; the next connection is refused
    /// with a structured `SessionLimit` error.
    pub max_sessions: usize,
    /// Per-query resource ceiling. Session budgets are intersected
    /// with this, so no client can exceed it.
    pub max_budget: ResourceBudget,
    /// Baseline session options; client `Hello`/`SetOptions` knobs
    /// layer over these. Defaults to single-threaded query execution —
    /// on a loaded server, parallelism comes from sessions, not from
    /// oversubscribing cores per query.
    pub default_options: SessionOptions,
    /// Compile-in deterministic fault hooks (`FAULT PANIC`,
    /// `FAULT SLEEP`) for the concurrency test suites. Off by default.
    pub fault_injection: bool,
    /// The clock behind queue-wait and service timing and behind every
    /// per-query profile collector. Tests pin a
    /// [`MockClock`](lawsdb_obs::MockClock) here so distributed traces
    /// render byte-identically across runs.
    pub clock: Arc<dyn Clock>,
    /// Slow-query flight-recorder admission policy; `capacity: 0`
    /// disables recording (and the per-query profiling it implies)
    /// entirely.
    pub recorder: RecorderConfig,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            admission: AdmissionConfig::default(),
            max_sessions: 64,
            max_budget: ResourceBudget::unlimited()
                .with_deadline(Duration::from_secs(60)),
            default_options: SessionOptions { threads: Some(1), ..SessionOptions::default() },
            fault_injection: false,
            clock: Arc::new(MonotonicClock::new()),
            recorder: RecorderConfig::default(),
        }
    }
}

impl ServerConfig {
    /// The baseline session options.
    pub fn default_options(&self) -> &SessionOptions {
        &self.default_options
    }
}

/// Per-server counters that are not admission-specific.
#[derive(Debug)]
pub struct ServerMetricHooks {
    /// Queries received (any mode).
    pub queries: Arc<Counter>,
    /// Queries answered with a structured error (admission or engine).
    pub query_errors: Arc<Counter>,
    /// Malformed frames received.
    pub protocol_errors: Arc<Counter>,
    /// Post-admission service time per query, microseconds.
    pub query_us: Arc<Histogram>,
}

/// A multi-session front end over one shared engine.
pub struct Server {
    db: Arc<LawsDb>,
    cfg: ServerConfig,
    admission: Arc<AdmissionController>,
    sessions: Arc<SessionDirectory>,
    hooks: ServerMetricHooks,
    /// The sharded execution layer, when this server fronts one.
    /// `QueryMode::Cluster` requests dispatch here; without an attached
    /// cluster they answer a structured `cluster_unavailable` error.
    cluster: RwLock<Option<Arc<Cluster>>>,
    /// Bounded ring of complete profiles for the slowest / failed
    /// queries, served over [`Frame::SlowLog`](crate::protocol::Frame).
    recorder: Arc<FlightRecorder>,
    /// Monotonic query-id mint: unique per server process, never zero,
    /// stamped on results, exemplars, and flight-recorder entries.
    next_query_id: AtomicU64,
}

impl Server {
    /// Stand a server up over `db`. All `lawsdb_server_*` metrics bind
    /// into the engine's own registry, so one stats snapshot covers
    /// storage, query, and server counters together.
    pub fn new(db: Arc<LawsDb>, cfg: ServerConfig) -> Arc<Server> {
        let registry = Arc::clone(db.metrics());
        let admission =
            Arc::new(AdmissionController::for_registry(cfg.admission.clone(), &registry));
        let sessions = Arc::new(SessionDirectory::new(cfg.max_sessions, &registry));
        let hooks = ServerMetricHooks {
            queries: registry.counter("lawsdb_server_queries"),
            query_errors: registry.counter("lawsdb_server_query_errors"),
            protocol_errors: registry.counter("lawsdb_server_protocol_errors"),
            query_us: registry.histogram("lawsdb_server_query_us"),
        };
        let recorder = Arc::new(FlightRecorder::new(cfg.recorder.clone()));
        Arc::new(Server {
            db,
            cfg,
            admission,
            sessions,
            hooks,
            cluster: RwLock::new(None),
            recorder,
            next_query_id: AtomicU64::new(1),
        })
    }

    /// Front a sharded cluster: `QueryMode::Cluster` queries dispatch
    /// to it (behind the same admission gate as every other mode).
    pub fn attach_cluster(&self, cluster: Arc<Cluster>) {
        *self.cluster.write() = Some(cluster);
    }

    /// The attached cluster, if any.
    pub fn cluster(&self) -> Option<Arc<Cluster>> {
        self.cluster.read().clone()
    }

    /// The shared engine.
    pub fn db(&self) -> &Arc<LawsDb> {
        &self.db
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The admission gate.
    pub fn admission(&self) -> &Arc<AdmissionController> {
        &self.admission
    }

    /// The live-session directory.
    pub fn sessions(&self) -> &Arc<SessionDirectory> {
        &self.sessions
    }

    pub(crate) fn metrics_hooks(&self) -> &ServerMetricHooks {
        &self.hooks
    }

    /// The server-wide clock (mockable for deterministic traces).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.cfg.clock
    }

    /// The slow-query flight recorder.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Mint the next query id.
    pub(crate) fn mint_query_id(&self) -> u64 {
        self.next_query_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Cancel the in-flight query of `session` (same semantics as a
    /// wire [`Frame::Cancel`](crate::protocol::Frame::Cancel)).
    pub fn cancel_session(&self, session: u64) -> bool {
        self.sessions.cancel(session)
    }

    /// Run a session over a caller-owned stream on a fresh thread.
    pub fn serve_stream<S>(self: &Arc<Self>, stream: S) -> JoinHandle<()>
    where
        S: Read + Write + Send + 'static,
    {
        let server = Arc::clone(self);
        std::thread::spawn(move || run_session(&server, stream))
    }

    /// Open an in-process connection: returns the client half of a
    /// loopback pipe whose server half is already being served. The
    /// full wire path (framing, decoding, admission) runs exactly as
    /// over TCP.
    pub fn connect(self: &Arc<Self>) -> PipeStream {
        let (client_half, server_half) = duplex();
        self.serve_stream(server_half);
        client_half
    }

    /// Bind a TCP listener and serve every connection on its own
    /// thread until [`TcpHandle::shutdown`].
    pub fn serve_tcp(self: &Arc<Self>, addr: &str) -> std::io::Result<TcpHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let server = Arc::clone(self);
        let stop_accept = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop_accept.load(Ordering::Acquire) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        server.serve_stream(stream);
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(TcpHandle { addr: local, stop, accept_thread: Some(accept_thread) })
    }
}

/// Handle on a running TCP listener.
#[derive(Debug)]
pub struct TcpHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpHandle {
    /// The bound address (use `127.0.0.1:0` to let the OS pick a port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept thread. Already
    /// established sessions drain on their own threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpHandle {
    fn drop(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            self.stop.store(true, Ordering::Release);
            let _ = TcpStream::connect(self.addr);
            let _ = t.join();
        }
    }
}
