//! The session layer: one thread per client connection, all sessions
//! sharing one [`LawsDb`] (one table catalog, one model catalog, one
//! plan cache, one metrics registry).
//!
//! A session owns its [`SessionOptions`] (layered over the server's
//! defaults), and every query it runs passes through the
//! [`AdmissionController`](crate::admission::AdmissionController)
//! before touching the engine. Failure scoping is strict:
//!
//! * a *query* error (timeout, budget, panic, parse, …) is answered
//!   with a structured [`WireError::Query`] and the session lives on;
//! * a *protocol* error (malformed frame) is answered and then closes
//!   **this** session only — sibling sessions never notice;
//! * a client disconnect (EOF) tears the session down cleanly,
//!   unregistering it from the directory and freeing its gauge.
//!
//! In-flight queries are cancellable across sessions: the directory
//! maps session id → the [`CancelToken`] of its running query, and
//! [`Frame::Cancel`] trips it from any connection.

use crate::admission::AdmissionPermit;
use crate::error::{
    cluster_error_to_wire, core_error_to_wire, query_error_kind, ProtocolError, TransportError,
    WireError,
};
use crate::protocol::{
    encode_result_head, put_trace_tail, read_frame, read_frame_payload, write_frame,
    write_payload, Frame, QueryMode, SessionOptions, StatsFormat, WireResult, PROTOCOL_VERSION,
};
use crate::server::Server;
use lawsdb_core::{Answer, AnswerMode, LawsDb};
use lawsdb_obs::{
    fields, FlightRecord, FlightRecorder, Gauge, ProfileCollector, TraceNode,
};
use lawsdb_query::{morsel::parallel_morsels, CancelToken, ExecOptions, Governor, ResourceBudget};
use lawsdb_storage::TableBuilder;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

impl SessionOptions {
    /// Layer these options over `base`: any knob the client left unset
    /// falls back to the server's default.
    pub fn merged_over(&self, base: &SessionOptions) -> SessionOptions {
        SessionOptions {
            threads: self.threads.or(base.threads),
            morsel_rows: self.morsel_rows.or(base.morsel_rows),
            pruning: self.pruning.or(base.pruning),
            deadline_ms: self.deadline_ms.or(base.deadline_ms),
            memory_bytes: self.memory_bytes.or(base.memory_bytes),
            max_rows: self.max_rows.or(base.max_rows),
        }
    }

    /// The per-query [`ResourceBudget`] these options request.
    pub fn budget(&self) -> ResourceBudget {
        ResourceBudget {
            deadline: self.deadline_ms.map(Duration::from_millis),
            memory_bytes: self.memory_bytes.map(|b| b as usize),
            max_rows: self.max_rows.map(|r| r as usize),
        }
    }
}

/// Registry of live sessions: ids, per-session cancel hooks, and the
/// `lawsdb_server_active_sessions` gauge.
#[derive(Debug)]
pub struct SessionDirectory {
    slots: Mutex<HashMap<u64, Option<CancelToken>>>,
    next_id: AtomicU64,
    max_sessions: usize,
    active_sessions: Arc<Gauge>,
    sessions_total: Arc<lawsdb_obs::Counter>,
}

impl SessionDirectory {
    pub(crate) fn new(
        max_sessions: usize,
        registry: &lawsdb_obs::MetricsRegistry,
    ) -> SessionDirectory {
        SessionDirectory {
            slots: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            max_sessions,
            active_sessions: registry.gauge("lawsdb_server_active_sessions"),
            sessions_total: registry.counter("lawsdb_server_sessions_total"),
        }
    }

    /// Admit a new session, or refuse with the current/max counts when
    /// the cap is reached.
    pub fn register(&self) -> Result<u64, (usize, usize)> {
        let mut slots = self.slots.lock();
        if slots.len() >= self.max_sessions {
            return Err((slots.len(), self.max_sessions));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        slots.insert(id, None);
        self.active_sessions.add(1);
        self.sessions_total.inc();
        Ok(id)
    }

    /// Remove a session (idempotent).
    pub fn unregister(&self, id: u64) {
        if self.slots.lock().remove(&id).is_some() {
            self.active_sessions.add(-1);
        }
    }

    /// Publish the cancel token of `id`'s in-flight query.
    pub fn set_cancel(&self, id: u64, token: CancelToken) {
        if let Some(slot) = self.slots.lock().get_mut(&id) {
            *slot = Some(token);
        }
    }

    /// Clear the in-flight hook after a query finishes.
    pub fn clear_cancel(&self, id: u64) {
        if let Some(slot) = self.slots.lock().get_mut(&id) {
            *slot = None;
        }
    }

    /// Trip the cancel token of `id`'s running query. Returns whether a
    /// token was actually delivered.
    pub fn cancel(&self, id: u64) -> bool {
        match self.slots.lock().get(&id) {
            Some(Some(token)) => {
                token.cancel();
                true
            }
            _ => false,
        }
    }

    /// Open sessions right now.
    pub fn active(&self) -> usize {
        self.slots.lock().len()
    }
}

/// Serve one connection: handshake, then a strict request→response
/// loop until EOF, `Close`, or a protocol violation.
pub(crate) fn run_session<S: Read + Write>(server: &Arc<Server>, mut stream: S) {
    let session_id = match server.sessions().register() {
        Ok(id) => id,
        Err((active, max)) => {
            let _ = write_frame(
                &mut stream,
                &Frame::Error(WireError::SessionLimit { active: active as u32, max: max as u32 }),
            );
            return;
        }
    };
    serve_registered(server, &mut stream, session_id);
    server.sessions().unregister(session_id);
}

fn serve_registered<S: Read + Write>(server: &Arc<Server>, stream: &mut S, session_id: u64) {
    // Handshake: the first frame must be a Hello naming this build's
    // protocol version; any other version is refused and the session
    // closes.
    let mut options = match read_frame(stream) {
        Ok(Some(Frame::Hello { protocol_version, options })) => {
            if protocol_version != PROTOCOL_VERSION {
                let mismatch = ProtocolError::VersionMismatch {
                    client: protocol_version,
                    server: PROTOCOL_VERSION,
                };
                reply_transport_error(server, stream, &TransportError::Protocol(mismatch));
                return;
            }
            options.merged_over(server.config().default_options())
        }
        Ok(Some(_)) => {
            let _ = write_frame(
                stream,
                &Frame::Error(WireError::Protocol {
                    detail: "expected Hello as the first frame".to_string(),
                }),
            );
            return;
        }
        Ok(None) => return,
        Err(e) => {
            reply_transport_error(server, stream, &e);
            return;
        }
    };
    let ack = Frame::HelloAck { session: session_id, protocol_version: PROTOCOL_VERSION };
    if write_frame(stream, &ack).is_err() {
        return;
    }

    loop {
        // Read the raw payload first so the decode step runs under the
        // server clock and can be charged to the query's trace.
        let payload = match read_frame_payload(stream) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean disconnect
            Err(e) => {
                reply_transport_error(server, stream, &e);
                return;
            }
        };
        let clock = server.clock();
        let decode_started = clock.now_micros();
        let decoded = Frame::decode(&payload);
        let decode_ended = clock.now_micros();
        let reply = match decoded {
            Ok(Frame::Query { mode, sql, trace }) => {
                let wire = WireContext {
                    trace,
                    decode: (decode_started, decode_ended),
                    frame_bytes: payload.len(),
                };
                run_query(server, session_id, &options, mode, &sql, wire)
            }
            Ok(Frame::SetOptions { options: new }) => {
                options = new.merged_over(server.config().default_options());
                Frame::OptionsAck.encode()
            }
            Ok(Frame::Stats { format }) => Frame::StatsReply {
                text: match format {
                    StatsFormat::Prometheus => server.db().stats_prometheus(),
                    StatsFormat::Json => server.db().stats_json(),
                },
            }
            .encode(),
            Ok(Frame::SlowLog { n }) => {
                Frame::SlowLogReply { entries: server.recorder().worst(n as usize) }.encode()
            }
            Ok(Frame::Cancel { session }) => {
                Frame::CancelAck { delivered: server.sessions().cancel(session) }.encode()
            }
            Ok(Frame::Close) => {
                let _ = write_frame(stream, &Frame::Goodbye);
                return;
            }
            Ok(other) => {
                // A server→client frame arriving at the server is a
                // protocol violation: answer and close this session.
                let _ = write_frame(
                    stream,
                    &Frame::Error(WireError::Protocol {
                        detail: format!("unexpected frame from client: {other:?}"),
                    }),
                );
                server.metrics_hooks().protocol_errors.inc();
                return;
            }
            Err(e) => {
                reply_transport_error(server, stream, &TransportError::Protocol(e));
                return;
            }
        };
        if write_payload(stream, &reply).is_err() {
            return;
        }
    }
}

fn reply_transport_error<S: Read + Write>(server: &Arc<Server>, stream: &mut S, e: &TransportError) {
    if let TransportError::Protocol(p) = e {
        server.metrics_hooks().protocol_errors.inc();
        let _ = write_frame(
            stream,
            &Frame::Error(WireError::Protocol { detail: p.to_string() }),
        );
    }
    // IO errors mean the stream is gone; nothing to say, just close.
}

/// Per-request wire context handed from the session loop into
/// [`run_query`]: what the client asked for and what the framing layer
/// already measured.
struct WireContext {
    /// The client requested the full trace tree on its result.
    trace: bool,
    /// When the frame decode started and ended (server clock).
    decode: (u64, u64),
    /// Raw payload size of the query frame.
    frame_bytes: usize,
}

/// Admit, execute, and encode one query's reply payload.
fn run_query(
    server: &Arc<Server>,
    session_id: u64,
    options: &SessionOptions,
    mode: QueryMode,
    sql: &str,
    wire: WireContext,
) -> Vec<u8> {
    let hooks = server.metrics_hooks();
    hooks.queries.inc();
    let clock = Arc::clone(server.clock());
    let recorder = server.recorder();
    let query_id = server.mint_query_id();
    // A profile is collected when the client asked for a trace or when
    // the flight recorder might keep this query; otherwise the
    // collector — and every span under it — never exists.
    let collector = (wire.trace || recorder.enabled())
        .then(|| ProfileCollector::with_clock(Arc::clone(&clock)));
    let ctx = collector.as_ref().map(|c| c.context());
    if let Some(c) = &ctx {
        let (started, ended) = wire.decode;
        c.timed_span("server.decode", started, ended, fields![bytes = wire.frame_bytes as u64]);
    }
    // The session's requested budget, clamped by the server's per-query
    // caps: a client may tighten its limits, never exceed the server's.
    let budget = options.budget().intersect(&server.config().max_budget);
    let cancel = CancelToken::new();
    server.sessions().set_cancel(session_id, cancel.clone());
    let reserve = budget
        .memory_bytes
        .unwrap_or(server.admission().config().default_reserve_bytes);
    // Queue wait runs on the mockable server clock (not `Instant`), so
    // MockClock tests pin it and traces stay deterministic.
    let queue_started = clock.now_micros();
    let admitted = {
        let _queue_span = ctx.as_ref().map(|c| c.span("server.admission"));
        server.admission().admit(reserve)
    };
    let queue_us = clock.now_micros().saturating_sub(queue_started);
    let permit = match admitted {
        Ok(p) => p,
        Err(e) => {
            server.sessions().clear_cancel(session_id);
            hooks.query_errors.inc();
            let err = e.to_wire();
            finish_record(recorder, collector, query_id, sql, mode, Some(err.to_string()), false);
            return Frame::Error(err).encode();
        }
    };
    let exec = ExecOptions {
        threads: options.threads.unwrap_or(1) as usize,
        morsel_rows: options
            .morsel_rows
            .map(|m| (m as usize).max(1))
            .unwrap_or(lawsdb_query::morsel::DEFAULT_MORSEL_ROWS),
        pruning: options.pruning.unwrap_or(true),
        budget,
        cancel: Some(cancel),
        profile: ctx.clone(),
        query_id,
        ..ExecOptions::default()
    };
    let service_started = clock.now_micros();
    let outcome = dispatch(server, &permit, mode, sql, &exec);
    let service_us = clock.now_micros().saturating_sub(service_started);
    drop(permit);
    server.sessions().clear_cancel(session_id);
    hooks.query_us.observe_with_exemplar(service_us, query_id);
    match outcome {
        Ok(Frame::ResultSet(mut r)) => {
            r.service_us = service_us;
            r.queue_us = queue_us;
            r.query_id = query_id;
            // Encode the body once, charging it to `server.encode`. The
            // trace is appended afterwards: it cannot contain the cost
            // of encoding itself.
            let mut span = ctx.as_ref().map(|c| c.span("server.encode"));
            let mut payload = encode_result_head(&r);
            if let Some(span) = &mut span {
                span.field("bytes", payload.len() as u64);
            }
            drop(span);
            let tree = finish_record(recorder, collector, query_id, sql, mode, None, wire.trace);
            put_trace_tail(&mut payload, tree.as_ref());
            payload
        }
        Ok(other) => {
            finish_record(recorder, collector, query_id, sql, mode, None, false);
            other.encode()
        }
        Err(e) => {
            hooks.query_errors.inc();
            let err = Some(e.to_string());
            finish_record(recorder, collector, query_id, sql, mode, err, false);
            Frame::Error(e).encode()
        }
    }
}

/// Build the query's trace tree once and move it into the flight
/// recorder; a copy comes back only when the client asked for it.
fn finish_record(
    recorder: &FlightRecorder,
    collector: Option<Arc<ProfileCollector>>,
    query_id: u64,
    sql: &str,
    mode: QueryMode,
    error: Option<String>,
    reply_trace: bool,
) -> Option<TraceNode> {
    let tree = collector?.build("query");
    let reply = reply_trace.then(|| tree.clone());
    recorder.observe(FlightRecord::from_trace(query_id, sql, mode.name(), error, tree));
    reply
}

fn dispatch(
    server: &Arc<Server>,
    _permit: &AdmissionPermit,
    mode: QueryMode,
    sql: &str,
    exec: &ExecOptions,
) -> Result<Frame, WireError> {
    if server.config().fault_injection {
        if let Some(frame) = injected_fault(sql, exec)? {
            return Ok(frame);
        }
    }
    let db = server.db();
    match mode {
        QueryMode::Exact => {
            let r = db.query_with(sql, exec).map_err(|e| core_error_to_wire(&e))?;
            Ok(result_frame(r.table, r.rows_scanned as u64, false, None, Vec::new()))
        }
        QueryMode::Resilient => answer_frame(db, sql, AnswerMode::Resilient, exec),
        QueryMode::Adaptive => answer_frame(db, sql, AnswerMode::Adaptive, exec),
        QueryMode::Explain => {
            let text = db.explain(sql).map_err(|e| core_error_to_wire(&e))?;
            Ok(Frame::ExplainReply { text })
        }
        QueryMode::Cluster => {
            let Some(cluster) = server.cluster() else {
                return Err(WireError::Query {
                    kind: "cluster_unavailable".to_string(),
                    detail: "this server fronts no sharded cluster".to_string(),
                });
            };
            let a = cluster.query(sql, exec).map_err(|e| cluster_error_to_wire(&e))?;
            let degraded = a.degraded.iter().map(|d| d.name().to_string()).collect();
            Ok(result_frame(
                a.table,
                a.rows_scanned as u64,
                a.approximate,
                a.error_bound,
                degraded,
            ))
        }
    }
}

fn answer_frame(
    db: &LawsDb,
    sql: &str,
    mode: AnswerMode,
    exec: &ExecOptions,
) -> Result<Frame, WireError> {
    let r = db.answer(sql, mode, exec).map_err(|e| core_error_to_wire(&e))?;
    let degraded = r.degraded.iter().map(|d| d.name().to_string()).collect();
    Ok(match r.answer {
        Answer::Exact(r) => {
            result_frame(r.table, r.rows_scanned as u64, false, None, degraded)
        }
        Answer::Approx(a) => {
            result_frame(a.table, a.rows_scanned as u64, true, a.error_bound, degraded)
        }
    })
}

fn result_frame(
    table: lawsdb_storage::Table,
    rows_scanned: u64,
    approximate: bool,
    error_bound: Option<f64>,
    degraded: Vec<String>,
) -> Frame {
    Frame::ResultSet(Box::new(WireResult {
        table,
        rows_scanned,
        approximate,
        error_bound,
        degraded,
        service_us: 0,
        queue_us: 0,
        query_id: 0,
        trace: None,
    }))
}

/// Test-only fault hooks, compiled in but dead unless
/// [`ServerConfig::fault_injection`](crate::ServerConfig) is set:
///
/// * `FAULT PANIC` — a kernel that panics inside a morsel worker, so
///   the catch-unwind isolation path is exercised end-to-end over the
///   wire (the session answers a structured `worker_panic` error and
///   stays up).
/// * `FAULT SLEEP <total_ms> <morsels>` — a deterministic long query:
///   `morsels` one-row morsels each sleeping `total_ms / morsels`,
///   governor-checked between morsels, so cancel and deadline tests
///   have a predictable target.
fn injected_fault(sql: &str, exec: &ExecOptions) -> Result<Option<Frame>, WireError> {
    let Some(rest) = sql.strip_prefix("FAULT ") else {
        return Ok(None);
    };
    let opts = ExecOptions {
        morsel_rows: 1,
        threads: 1,
        governor: Governor::arm(exec.budget, exec.cancel.clone()),
        ..exec.clone()
    };
    let wire = |e: lawsdb_query::QueryError| WireError::Query {
        kind: query_error_kind(&e).to_string(),
        detail: e.to_string(),
    };
    if rest == "PANIC" {
        let err = parallel_morsels(4, &opts, |_, _| -> lawsdb_query::Result<usize> {
            panic!("injected fault: deliberate kernel panic")
        })
        .expect_err("a panicking kernel must surface as a structured error");
        return Err(wire(err));
    }
    if let Some(args) = rest.strip_prefix("SLEEP ") {
        let mut it = args.split_whitespace();
        let (Some(total_ms), Some(morsels)) = (
            it.next().and_then(|v| v.parse::<u64>().ok()),
            it.next().and_then(|v| v.parse::<u64>().ok()),
        ) else {
            return Err(WireError::Query {
                kind: "parse".to_string(),
                detail: "FAULT SLEEP expects <total_ms> <morsels>".to_string(),
            });
        };
        let morsels = morsels.clamp(1, 10_000) as usize;
        let nap = Duration::from_millis(total_ms / morsels as u64);
        parallel_morsels(morsels, &opts, |offset, _| {
            std::thread::sleep(nap);
            Ok(offset)
        })
        .map_err(wire)?;
        let mut b = TableBuilder::new("fault_sleep");
        b.add_i64("slept_morsels", vec![morsels as i64]);
        let table = b.build().map_err(|e| WireError::Server { detail: e.to_string() })?;
        return Ok(Some(result_frame(table, 0, false, None, Vec::new())));
    }
    Err(WireError::Query {
        kind: "parse".to_string(),
        detail: format!("unknown fault directive: {rest:?}"),
    })
}
