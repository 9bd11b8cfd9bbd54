//! The system under test as a workload needs it — engine, server,
//! cluster, durable store — and the execution of one op against it,
//! checked against the reference.

use crate::fixture::{approx_error, fingerprint, reference, Fixture, Oracle, Reference};
use crate::spans::SpanLog;
use crate::workload::{Action, Op, Workload, TABLE};
use lawsdb::cluster::{Cluster, ClusterConfig, PartitionScheme};
use lawsdb::core::{DurableDb, FitOptions, LawsDb};
use lawsdb::models::ModelId;
use lawsdb::obs::{attribute_layers, Counter, LAYERS};
use lawsdb::server::{Client, PipeStream, QueryMode, Server, ServerConfig, WireResult};
use lawsdb::storage::SimulatedDevice;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The model every model workload captures (the paper's Section 2 law).
pub const FORMULA: &str = "intensity ~ p * nu ^ alpha";

/// Page size of the simulated device behind `ingest_refit`.
pub const PAGE_SIZE: usize = 4096;

/// Set-up stopwatches around the public entry point of each layer, µs
/// (0 when the workload does not use the layer).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimings {
    /// `Session::fit`.
    pub fit_capture_us: f64,
    /// `Cluster::new`.
    pub cluster_build_us: f64,
}

/// Appends a phase counts device writes for: the first two cycles' —
/// a fixed amount of work, so the counts repeat exactly for a seed
/// however many cycles the machine fits in the phase.
pub const COUNTED_APPENDS: u64 = 20;

/// Counts `ingest_refit` keeps beside its first [`COUNTED_APPENDS`]
/// appends of a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestCounts {
    /// Acknowledged appends counted.
    pub appends: u64,
    /// Device bytes written by their `replace_table`.
    pub bytes_written: u64,
    /// Device pages written by their `replace_table`.
    pub pages_written: u64,
    /// `lawsdb_storage_wal_commits` they caused.
    pub wal_commits: u64,
}

/// The system under test.
pub struct System {
    /// The engine.
    pub db: Arc<LawsDb>,
    /// The wire front end (`ServerConfig::default()`).
    pub server: Arc<Server>,
    /// The 4 × 2 cluster, when the workload has one.
    pub cluster: Option<Arc<Cluster>>,
    /// The durable copy, when the workload has one. Only the single
    /// `ingest_refit` client locks it.
    pub durable: Mutex<Option<DurableDb<SimulatedDevice>>>,
    /// Id of the active model (0 = none); `refit` replaces it.
    model: AtomicU64,
    /// Set-up stopwatches.
    pub timings: SetupTimings,
}

fn us_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1_000.0
}

impl System {
    /// Stand the system up over the fixture's table as `w` needs it.
    pub fn build(w: &Workload, fx: &Fixture) -> Result<System, String> {
        let mut db = LawsDb::new();
        // Anomalous sources pull the pooled R² below the default gate;
        // the benchmark wants the model kept, not judged.
        db.quality.min_r2 = 0.0;
        db.register_table(fx.dataset.table.clone()).map_err(|e| e.to_string())?;
        let db = Arc::new(db);
        let mut timings = SetupTimings::default();
        let mut model = 0;
        if w.fit_model {
            let t = Instant::now();
            let mut session = db.session();
            let frame = session.frame(TABLE).map_err(|e| e.to_string())?;
            let report = session
                .fit(&frame, FORMULA, FitOptions::grouped_by("source"))
                .map_err(|e| e.to_string())?;
            timings.fit_capture_us = us_since(t);
            model = report.model.0;
        }
        let server = Server::new(Arc::clone(&db), ServerConfig::default());
        let cluster = if w.cluster {
            let t = Instant::now();
            let config = ClusterConfig {
                shards: 4,
                replicas: 2,
                scheme: PartitionScheme::Hash { key: "source".to_string() },
                ..ClusterConfig::default()
            };
            let cluster = Arc::new(
                Cluster::new(&fx.dataset.table, config, db.metrics()).map_err(|e| e.to_string())?,
            );
            timings.cluster_build_us = us_since(t);
            server.attach_cluster(Arc::clone(&cluster));
            Some(cluster)
        } else {
            None
        };
        let durable = if w.durable {
            let mut durable = DurableDb::new(SimulatedDevice::new(PAGE_SIZE));
            durable.recover().map_err(|e| e.to_string())?;
            let table = db.table(TABLE).map_err(|e| e.to_string())?;
            durable.store_table(&table).map_err(|e| e.to_string())?;
            durable.save_models(db.models()).map_err(|e| e.to_string())?;
            Some(durable)
        } else {
            None
        };
        Ok(System {
            db,
            server,
            cluster,
            durable: Mutex::new(durable),
            model: AtomicU64::new(model),
            timings,
        })
    }

    /// Open one client connection over the in-process pipe: the full
    /// wire path (framing, decode, admission) without the kernel's
    /// loopback.
    pub fn connect(&self) -> Result<Client<PipeStream>, String> {
        Client::connect(self.server.connect()).map_err(|e| e.to_string())
    }

    /// The active model's id.
    pub fn model(&self) -> ModelId {
        ModelId(self.model.load(Ordering::SeqCst))
    }

    /// A counter of the engine's own registry (0 when never bound).
    pub fn counter(&self, name: &str) -> u64 {
        self.db.metrics().snapshot().counter(name)
    }
}

/// What one op did, as the client saw it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Index into the workload's shapes.
    pub shape: usize,
    /// Client-observed latency.
    pub latency_ns: u64,
    /// No error, and the answer agreed with the reference.
    pub ok: bool,
    /// The op went over the wire.
    pub is_query: bool,
    /// `WireResult::service_us` (0 for embedded ops).
    pub service_us: u64,
    /// `WireResult::queue_us`.
    pub queue_us: u64,
    /// A model answered.
    pub approximate: bool,
    /// The degradation ladder took a rung.
    pub degraded: bool,
    /// An approximate value lay outside its quoted bound.
    pub bound_violation: bool,
    /// Relative error of an approximate answer.
    pub rel_err: Option<f64>,
    /// The seven canonical layers' microseconds, when traced.
    pub layers: Option<[u64; LAYERS.len()]>,
}

/// What a client tallies beside its samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// The first few failures, with the shape that failed.
    pub failures: Vec<String>,
    /// Failed ops (all of them, not only the first few).
    pub failed: u64,
    /// Append-side counts.
    pub ingest: IngestCounts,
}

impl Tally {
    /// Fold another client's tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        let room = FAILURES_KEPT.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
        self.failed += other.failed;
        self.ingest.appends += other.ingest.appends;
        self.ingest.bytes_written += other.ingest.bytes_written;
        self.ingest.pages_written += other.ingest.pages_written;
        self.ingest.wal_commits += other.ingest.wal_commits;
    }
}

/// One client's side of a phase: its connection, its span log and its
/// tally.
pub struct ClientRun<'a> {
    sys: &'a System,
    w: &'a Workload,
    fx: &'a Fixture,
    oracle: &'a Oracle,
    client: Client<PipeStream>,
    wal_commits: Arc<Counter>,
    /// Spans, when this run keeps them.
    pub spans: Option<SpanLog>,
    /// Failures and append-side counts.
    pub tally: Tally,
}

/// Failure messages kept per client; the count is kept in full.
const FAILURES_KEPT: usize = 5;

impl<'a> ClientRun<'a> {
    /// Connect a client. `oracle` may be empty while answers are not
    /// checked (warm-up) or are checked inline (`ingest_refit`).
    pub fn connect(
        sys: &'a System,
        w: &'a Workload,
        fx: &'a Fixture,
        oracle: &'a Oracle,
        spans: Option<SpanLog>,
    ) -> Result<ClientRun<'a>, String> {
        Ok(ClientRun {
            sys,
            w,
            fx,
            oracle,
            client: sys.connect()?,
            // The WAL counts its commits in the process-wide registry.
            wal_commits: lawsdb::obs::global_metrics().counter("lawsdb_storage_wal_commits"),
            spans,
            tally: Tally::default(),
        })
    }

    fn fail(&mut self, shape: usize, detail: String) {
        self.tally.failed += 1;
        if self.tally.failures.len() < FAILURES_KEPT {
            self.tally.failures.push(format!("{}: {detail}", self.w.shapes[shape].name));
        }
    }

    fn span_begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op_id: u64,
    ) -> Option<usize> {
        self.spans.as_mut().map(|log| log.begin(name, parent, op_id))
    }

    fn span_end(&mut self, id: Option<usize>) {
        if let (Some(log), Some(id)) = (self.spans.as_mut(), id) {
            log.end(id);
        }
    }

    /// Run one op. `check` compares the answer with the reference;
    /// `traced` asks the server for the trace tree.
    pub fn run(&mut self, op: &Op, op_id: u64, check: bool, traced: bool) -> Sample {
        match self.w.shapes[op.shape].action {
            Action::Query(mode) => self.query(op, op_id, mode, check, traced),
            Action::Append => self.append(op, op_id),
            Action::Refit => self.refit(op, op_id),
        }
    }

    fn query(&mut self, op: &Op, op_id: u64, mode: QueryMode, check: bool, traced: bool) -> Sample {
        let span = self.span_begin("client.query", None, op_id);
        let started = Instant::now();
        let reply = if traced {
            self.client.query_traced(mode, &op.sql)
        } else {
            self.client.query(mode, &op.sql)
        };
        let latency_ns = started.elapsed().as_nanos() as u64;
        self.span_end(span);
        let mut sample =
            Sample { shape: op.shape, latency_ns, is_query: true, ..Sample::default() };
        let result = match reply {
            Ok(r) => r,
            Err(e) => {
                self.fail(op.shape, format!("{e} ({})", op.sql));
                return sample;
            }
        };
        sample.service_us = result.service_us;
        sample.queue_us = result.queue_us;
        sample.approximate = result.approximate;
        sample.degraded = !result.degraded.is_empty();
        sample.layers = result.trace.as_ref().map(|tree| {
            let mut layers = [0u64; LAYERS.len()];
            for (name, us) in attribute_layers(tree) {
                if let Some(i) = LAYERS.iter().position(|l| *l == name) {
                    layers[i] = us;
                }
            }
            layers
        });
        sample.ok = true;
        if check {
            if let Err(detail) = self.check(op, &result, &mut sample) {
                sample.ok = false;
                self.fail(op.shape, format!("{detail} ({})", op.sql));
            }
        }
        sample
    }

    /// Hold a reply to the reference: an exact answer must be
    /// bit-identical, an approximate one within its quoted bound.
    fn check(&self, op: &Op, result: &WireResult, sample: &mut Sample) -> Result<(), String> {
        let inline;
        let expected: &Reference = if self.w.cycle {
            // The table changes under `ingest_refit`, so its reference is
            // computed on the spot (one thread: nothing moves meanwhile).
            inline = reference(self.sys.db.tables(), &op.sql, true)?;
            &inline
        } else {
            self.oracle.get(&op.sql).ok_or("no reference for this text")?
        };
        if !result.approximate {
            return if fingerprint(&result.table) == expected.fingerprint {
                Ok(())
            } else {
                Err(format!(
                    "exact answer is not bit-identical to the reference ({} rows, {} expected)",
                    result.table.row_count(),
                    expected.rows
                ))
            };
        }
        if matches!(self.w.shapes[op.shape].action, Action::Query(QueryMode::Exact)) {
            return Err("exact mode returned an approximate answer".to_string());
        }
        let error = approx_error(expected, &result.table)?;
        sample.rel_err = Some(error.relative);
        match result.error_bound {
            Some(bound) if error.max_abs <= bound => Ok(()),
            bound => {
                sample.bound_violation = true;
                Err(format!(
                    "approximate value off by {} with quoted bound {bound:?}",
                    error.max_abs
                ))
            }
        }
    }

    /// One acknowledged durable append: the rows reach the engine's
    /// table, then the durable store commits the table.
    fn append(&mut self, op: &Op, op_id: u64) -> Sample {
        let batch = self.fx.append_batch(op.seq);
        let commits_before = self.wal_commits.get();
        let root = self.span_begin("ingest.append", None, op_id);
        let started = Instant::now();
        let span = self.span_begin("storage.append", root, op_id);
        let appended = self.sys.db.append_rows(TABLE, &batch).map_err(|e| e.to_string());
        self.span_end(span);
        let mut durable = self.sys.durable.lock().expect("only this client locks the store");
        let store = durable.as_mut().expect("ingest workload has a durable store");
        let io_before = store.stats();
        let span = self.span_begin("storage.replace", root, op_id);
        let replaced = self
            .sys
            .db
            .table(TABLE)
            .and_then(|table| store.replace_table(&table))
            .map_err(|e| e.to_string());
        self.span_end(span);
        let latency_ns = started.elapsed().as_nanos() as u64;
        self.span_end(root);
        let io = store.stats();
        drop(durable);
        let outcome = appended.and(replaced);
        if let Err(e) = &outcome {
            self.fail(op.shape, e.clone());
        } else if self.tally.ingest.appends < COUNTED_APPENDS {
            let counts = &mut self.tally.ingest;
            counts.appends += 1;
            counts.bytes_written += io.bytes_written - io_before.bytes_written;
            counts.pages_written += io.pages_written - io_before.pages_written;
            counts.wal_commits += self.wal_commits.get() - commits_before;
        }
        Sample { shape: op.shape, latency_ns, ok: outcome.is_ok(), ..Sample::default() }
    }

    /// Refit the stale model on the current data and persist the catalog.
    fn refit(&mut self, op: &Op, op_id: u64) -> Sample {
        let root = self.span_begin("ingest.refit", None, op_id);
        let started = Instant::now();
        let span = self.span_begin("fit.refit", root, op_id);
        let fresh =
            self.sys.db.refit(self.sys.model(), &Default::default()).map_err(|e| e.to_string());
        self.span_end(span);
        let span = self.span_begin("models.save", root, op_id);
        let saved = self
            .sys
            .durable
            .lock()
            .expect("only this client locks the store")
            .as_mut()
            .expect("ingest workload has a durable store")
            .save_models(self.sys.db.models())
            .map_err(|e| e.to_string());
        self.span_end(span);
        let latency_ns = started.elapsed().as_nanos() as u64;
        self.span_end(root);
        let outcome = fresh.map(|m| self.sys.model.store(m.id.0, Ordering::SeqCst)).and(saved);
        if let Err(e) = &outcome {
            self.fail(op.shape, e.clone());
        }
        Sample { shape: op.shape, latency_ns, ok: outcome.is_ok(), ..Sample::default() }
    }

    /// Orderly goodbye, so the session thread ends before the phase does.
    pub fn close(self) -> (Option<SpanLog>, Tally) {
        let _ = self.client.close();
        (self.spans, self.tally)
    }
}

/// Outcome of the simulated restart that ends `ingest_refit`.
#[derive(Debug, Clone, PartialEq)]
pub struct Restart {
    /// `recover` + `read_table`, µs.
    pub recover_us: f64,
    /// `load_models`, µs.
    pub load_models_us: f64,
    /// Device pages × page size ÷ raw column bytes of the table.
    pub stored_bytes_per_user_byte: f64,
}

/// Restart from only what the device holds: every acknowledged append
/// must be in the recovered table and the reloaded model must predict
/// bit-identically to the live one.
pub fn simulated_restart(sys: &System) -> Result<Restart, String> {
    let durable = sys
        .durable
        .lock()
        .expect("no client is running")
        .take()
        .ok_or("workload has no durable store")?;
    let live = sys.db.table(TABLE).map_err(|e| e.to_string())?;
    let mut reopened = DurableDb::new(durable.into_device());
    let started = Instant::now();
    reopened.recover().map_err(|e| e.to_string())?;
    let recovered = reopened.read_table(TABLE).map_err(|e| e.to_string())?;
    let recover_us = us_since(started);
    if fingerprint(&recovered) != fingerprint(&live) {
        return Err(format!(
            "restart lost acknowledged appends: {} rows recovered, {} acknowledged",
            recovered.row_count(),
            live.row_count()
        ));
    }
    let started = Instant::now();
    let catalog = reopened.load_models().map_err(|e| e.to_string())?;
    let load_models_us = us_since(started);
    let live_model = sys.db.models().get(sys.model()).map_err(|e| e.to_string())?;
    let reloaded = catalog.get(sys.model()).map_err(|e| e.to_string())?;
    let predict = |m| lawsdb::models::bridge::predict_table(m, &live).map_err(|e| e.to_string());
    let (want, got) = (predict(&live_model)?, predict(&reloaded)?);
    if want.len() != got.len() || want.iter().zip(&got).any(|(a, b)| a.to_bits() != b.to_bits()) {
        return Err("reloaded model does not predict bit-identically".to_string());
    }
    let device_bytes = (reopened.device().page_count() * PAGE_SIZE) as f64;
    let user_bytes: usize = live.columns().iter().map(|c| c.len() * 8).sum();
    Ok(Restart {
        recover_us,
        load_models_us,
        stored_bytes_per_user_byte: device_bytes / user_bytes as f64,
    })
}
