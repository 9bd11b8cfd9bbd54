//! The scatter-gather coordinator.
//!
//! A [`Cluster`] owns the shards, their replicas, the health matrix,
//! and the per-shard captured models. A query takes one of two routes:
//!
//! * **Scatter-gather** — for the aggregate pipeline shape
//!   `[LIMIT] [ORDER BY] AGG(SCAN | FILTER(SCAN))` over range shards,
//!   or over hash shards when the GROUP BY contains the hash key. Each
//!   shard computes per-global-morsel partial aggregates locally
//!   (`lawsdb_query::partial`); the coordinator merges them in global
//!   morsel order and assembles the answer — bit-identical to the
//!   unsharded engine by the argument in that module.
//! * **Gather-execute** — every other single-table shape: the
//!   coordinator fetches all shards, reassembles the global table in
//!   original row order (synopsis rebuilt on the global zone grid), and
//!   runs the engine on it. Trivially bit-identical.
//!
//! Joins are refused ([`ClusterError::Unsupported`]): shard-local joins
//! are not equivalent to global joins under either partitioning.
//!
//! Per-shard failures walk the replica list under the
//! [`HealthTracker`]'s direction; when every replica of a shard is
//! down, a hash-sharded aggregate within the model-soundness envelope
//! (AVG/MIN/MAX, no LIMIT, residual bound within
//! [`ClusterConfig::max_abs_residual`]) degrades to the shard's
//! captured model, surfaced as
//! [`DegradeReason::ShardModelFallback`]; anything else returns the
//! structured [`ClusterError::PartialResult`]. Never a panic, never a
//! hang.

use std::sync::Arc;
use std::time::Instant;

use lawsdb_approx::ApproxEngine;
use lawsdb_core::DegradeReason;
use lawsdb_fit::FitOptions;
use lawsdb_models::bridge::fit_table_grouped;
use lawsdb_models::ModelCatalog;
use lawsdb_obs::{fields, Counter, Gauge, Histogram, MetricsRegistry, ProfileContext};
use lawsdb_query::plan::AggSpec;
use lawsdb_query::sql::{AggFunc, OrderBy};
use lawsdb_query::{
    assemble_partials, execute_with, limit_rows, merge_shard_partials, parse_select,
    shard_partials_contiguous, shard_partials_sparse, sort_rows, ExecOptions, LogicalPlan,
    QueryError, ShardPartials,
};
use lawsdb_storage::{Catalog, FaultMode, Schema, Table, Value};
use parking_lot::Mutex;

use crate::health::{HealthTracker, ReplicaState};
use crate::partition::{self, PartitionScheme, RowAssignment};
use crate::replica::Replica;
pub use crate::replica::Phase;
use crate::{ClusterError, Result};

/// Cluster shape and policy knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shards.
    pub shards: usize,
    /// Replicas per shard (≥ 1).
    pub replicas: usize,
    /// How rows map to shards.
    pub scheme: PartitionScheme,
    /// Morsel size every query runs at. Fixed per cluster because range
    /// shard boundaries are aligned to it at partition time.
    pub morsel_rows: usize,
    /// Consecutive failures before a replica is marked `Down`.
    pub fail_threshold: u32,
    /// Selections a `Down` replica is skipped before being probed.
    pub probe_after: u32,
    /// Largest captured-model residual bound the coordinator will
    /// answer from when a whole shard is lost.
    pub max_abs_residual: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            replicas: 2,
            scheme: PartitionScheme::Range,
            morsel_rows: lawsdb_query::morsel::DEFAULT_MORSEL_ROWS,
            fail_threshold: 2,
            probe_after: 2,
            max_abs_residual: 1e-3,
        }
    }
}

/// A cluster query's answer plus its degradation record.
#[derive(Debug)]
pub struct ClusterAnswer {
    /// Result rows.
    pub table: Table,
    /// Base-table rows scanned across all shards (zero contribution
    /// from model-answered shards).
    pub rows_scanned: usize,
    /// Every degradation taken, in shard order.
    pub degraded: Vec<DegradeReason>,
    /// Did any shard answer from its model?
    pub approximate: bool,
    /// Worst ±bound over model-answered shards, when derivable.
    pub error_bound: Option<f64>,
}

struct ShardModel {
    engine: ApproxEngine,
    bound: Option<f64>,
}

struct Shard {
    rows: RowAssignment,
    row_count: usize,
    replicas: Vec<Mutex<Replica>>,
    model: Mutex<Option<ShardModel>>,
}

struct Metrics {
    shard_queries: Arc<Counter>,
    failovers: Arc<Counter>,
    replicas_down: Arc<Gauge>,
    model_fallbacks: Arc<Counter>,
    partial_results: Arc<Counter>,
    shard_up: Vec<Arc<Gauge>>,
    /// Whole-cluster-query latency; observed with the query id as an
    /// exemplar so `/stats` spikes link to flight-recorder traces.
    query_us: Arc<Histogram>,
}

/// The coordinator: shards, replicas, health, models, metrics.
pub struct Cluster {
    cfg: ClusterConfig,
    table_name: String,
    schema: Schema,
    zone_rows: usize,
    total_rows: usize,
    /// Zero-row table with the global schema — the seed for gather-path
    /// reassembly (and the answer shape when the table is empty).
    template: Table,
    shards: Vec<Shard>,
    health: Mutex<HealthTracker>,
    metrics: Metrics,
}

/// The scatter-gather-eligible plan shape.
struct AggShape {
    group_by: Vec<String>,
    aggs: Vec<AggSpec>,
    predicate: Option<lawsdb_query::ScalarExpr>,
    order: Vec<OrderBy>,
    limit: Option<usize>,
}

enum AttemptError {
    /// Retry on another replica.
    Replica(String),
    /// Deterministic failure — retrying elsewhere gives the same error.
    Fatal(ClusterError),
}

impl Cluster {
    /// Partition `table` under `cfg` and store every shard on
    /// `cfg.replicas` fresh durable replicas. Metrics register under
    /// `lawsdb_cluster_*` in `registry`.
    pub fn new(table: &Table, cfg: ClusterConfig, registry: &MetricsRegistry) -> Result<Cluster> {
        if cfg.replicas == 0 {
            return Err(ClusterError::Unsupported {
                detail: "a shard needs at least one replica".to_string(),
            });
        }
        let zone_rows = partition::global_zone_rows(table);
        let parts = partition::partition(table, &cfg.scheme, cfg.shards, cfg.morsel_rows)?;
        let mut shards = Vec::with_capacity(parts.len());
        for part in parts {
            let mut replicas = Vec::with_capacity(cfg.replicas);
            for _ in 0..cfg.replicas {
                replicas.push(Mutex::new(Replica::create(&part.table)?));
            }
            shards.push(Shard {
                rows: part.rows,
                row_count: part.table.row_count(),
                replicas,
                model: Mutex::new(None),
            });
        }
        let metrics = Metrics {
            shard_queries: registry.counter("lawsdb_cluster_shard_queries"),
            failovers: registry.counter("lawsdb_cluster_failovers"),
            replicas_down: registry.gauge("lawsdb_cluster_replicas_down"),
            model_fallbacks: registry.counter("lawsdb_cluster_model_fallbacks"),
            partial_results: registry.counter("lawsdb_cluster_partial_results"),
            shard_up: (0..cfg.shards)
                .map(|s| registry.gauge(&format!("lawsdb_cluster_shard_{s}_replicas_up")))
                .collect(),
            query_us: registry.histogram("lawsdb_cluster_query_us"),
        };
        for g in &metrics.shard_up {
            g.set(cfg.replicas as i64);
        }
        Ok(Cluster {
            health: Mutex::new(HealthTracker::new(
                cfg.shards,
                cfg.replicas,
                cfg.fail_threshold,
                cfg.probe_after,
            )),
            table_name: table.name().to_string(),
            schema: table.schema().clone(),
            zone_rows,
            total_rows: table.row_count(),
            template: table.slice(0, 0)?,
            shards,
            metrics,
            cfg,
        })
    }

    /// Fit one captured model per non-empty shard (`formula` grouped by
    /// `group`), so total shard loss can degrade to the model. The
    /// residual bound recorded at fit time gates the fallback.
    pub fn capture_models(
        &self,
        formula: &str,
        group: &str,
        options: &FitOptions,
        threads: usize,
    ) -> Result<()> {
        for s in 0..self.shards.len() {
            if self.shards[s].row_count == 0 {
                continue;
            }
            let table = self
                .fetch_shard(s, None)
                .map_err(|detail| ClusterError::PartialResult { shard: s, detail })?;
            let (model, _) = fit_table_grouped(&table, formula, group, options, threads)
                .map_err(|e| ClusterError::Unsupported {
                    detail: format!("model capture on shard {s}: {e}"),
                })?;
            let bound = model.max_abs_residual;
            let catalog = Arc::new(ModelCatalog::new());
            catalog.store(model);
            *self.shards[s].model.lock() = Some(ShardModel {
                engine: ApproxEngine::new(catalog),
                bound,
            });
        }
        Ok(())
    }

    /// Execute `sql` across the cluster. `opts.morsel_rows` is
    /// overridden by the cluster's configured morsel size (shard
    /// alignment depends on it); every other knob passes through.
    pub fn query(&self, sql: &str, opts: &ExecOptions) -> Result<ClusterAnswer> {
        let stmt = parse_select(sql)?;
        if stmt.join.is_some() {
            return Err(ClusterError::Unsupported {
                detail: "joins are not shard-local under either partitioning".to_string(),
            });
        }
        if !stmt.table.eq_ignore_ascii_case(&self.table_name) {
            return Err(ClusterError::Unsupported {
                detail: format!("table {:?} is not sharded here", stmt.table),
            });
        }
        let mut opts = opts.clone();
        opts.morsel_rows = self.cfg.morsel_rows;
        // The coordinator owns the profile context: cluster phase spans
        // (shard/fetch/execute/gather/merge) are opened here and the
        // engine's plan tree is re-attached underneath the execute
        // spans, so one tree covers the whole distributed query.
        let ctx = opts.profile.take();
        let plan = LogicalPlan::from_statement(&stmt)?;
        let started = Instant::now();
        let answer = match decompose(&plan) {
            Some(shape) if self.scatter_eligible(&shape) => {
                self.scatter_gather(sql, &shape, &opts, ctx.as_ref())
            }
            _ => self.gather_execute(sql, &opts, ctx.as_ref()),
        };
        self.metrics
            .query_us
            .observe_with_exemplar(started.elapsed().as_micros() as u64, opts.query_id);
        self.publish_health();
        answer
    }

    fn scatter_eligible(&self, shape: &AggShape) -> bool {
        match &self.cfg.scheme {
            PartitionScheme::Range => true,
            PartitionScheme::Hash { key } => {
                !shape.group_by.is_empty()
                    && shape.group_by.iter().any(|g| g.eq_ignore_ascii_case(key))
            }
        }
    }

    fn scatter_gather(
        &self,
        sql: &str,
        shape: &AggShape,
        opts: &ExecOptions,
        ctx: Option<&ProfileContext>,
    ) -> Result<ClusterAnswer> {
        let mut partials: Vec<ShardPartials> = Vec::new();
        let mut tables: Vec<Option<Table>> = (0..self.shards.len()).map(|_| None).collect();
        let mut degraded = Vec::new();
        let mut model_tables = Vec::new();
        let mut error_bound: Option<f64> = None;
        // `s` is a shard id addressing several parallel structures
        // (shards, tables, health, metrics), not an iteration over one.
        #[allow(clippy::needless_range_loop)]
        for s in 0..self.shards.len() {
            if self.shards[s].row_count == 0 {
                continue;
            }
            self.metrics.shard_queries.inc();
            let mut shard_span = ctx.map(|c| {
                let mut sp = c.span("cluster.shard");
                sp.field("shard", s as u64);
                sp
            });
            let shard_ctx = shard_span.as_ref().map(|sp| sp.child());
            match self.run_shard(s, shape, opts, shard_ctx.as_ref()) {
                Ok((table, sp)) => {
                    tables[s] = Some(table);
                    partials.push(sp);
                }
                Err(AttemptError::Fatal(e)) => return Err(e),
                Err(AttemptError::Replica(detail)) => match self.model_answer(s, shape, sql) {
                    Ok((mt, bound)) => {
                        self.metrics.model_fallbacks.inc();
                        error_bound = match (error_bound, bound) {
                            (Some(a), Some(b)) => Some(a.max(b)),
                            (a, b) => a.or(b),
                        };
                        if let Some(c) = &shard_ctx {
                            c.point(
                                "cluster.model_fallback",
                                fields![
                                    reason = "shard_model_fallback",
                                    bound = bound.unwrap_or(f64::NAN),
                                ],
                            );
                        }
                        if let Some(sp) = shard_span.as_mut() {
                            sp.field("degraded", "model");
                        }
                        degraded.push(DegradeReason::ShardModelFallback { shard: s, error_bound: bound });
                        model_tables.push(mt);
                    }
                    Err(reason) => {
                        self.metrics.partial_results.inc();
                        return Err(ClusterError::PartialResult {
                            shard: s,
                            detail: format!("{detail}; {reason}"),
                        });
                    }
                },
            }
        }
        let _merge_span = ctx.map(|c| c.span("cluster.merge"));
        let merged = merge_shard_partials(partials);
        let rows_scanned = merged.rows_scanned;
        let mut out = assemble_partials(
            &self.schema,
            &shape.group_by,
            &shape.aggs,
            merged,
            |row, col| self.key_value(&tables, row, col),
        )?;
        let approximate = !model_tables.is_empty();
        for mt in model_tables {
            out.append_rows(mt.columns())?;
        }
        if !shape.order.is_empty() {
            out = sort_rows(&out, &shape.order)?;
        }
        if let Some(n) = shape.limit {
            out = limit_rows(&out, n)?;
        }
        Ok(ClusterAnswer { table: out, rows_scanned, degraded, approximate, error_bound })
    }

    /// Resolve a group key value by global first-encounter row: find
    /// the owning shard, read from its fetched table.
    fn key_value(
        &self,
        tables: &[Option<Table>],
        row: usize,
        col: &str,
    ) -> lawsdb_query::Result<Value> {
        for (s, shard) in self.shards.iter().enumerate() {
            let local = match &shard.rows {
                RowAssignment::Contiguous { start } => {
                    if row < *start || row >= start + shard.row_count {
                        continue;
                    }
                    row - start
                }
                RowAssignment::Sparse(rows) => match rows.binary_search(&row) {
                    Ok(i) => i,
                    Err(_) => continue,
                },
            };
            let t = tables[s].as_ref().ok_or_else(|| QueryError::InvalidAggregate {
                reason: format!("group first-row {row} belongs to unanswered shard {s}"),
            })?;
            let c = t.column(col).map_err(QueryError::Storage)?;
            return c.value(local).map_err(QueryError::Storage);
        }
        Err(QueryError::InvalidAggregate { reason: format!("row {row} is in no shard") })
    }

    /// Walk the shard's replicas under health direction; first success
    /// wins. Every failed attempt followed by another is a failover,
    /// recorded both in metrics and — under a profile context — as a
    /// `cluster.failover` point in the trace.
    fn run_shard(
        &self,
        s: usize,
        shape: &AggShape,
        opts: &ExecOptions,
        ctx: Option<&ProfileContext>,
    ) -> std::result::Result<(Table, ShardPartials), AttemptError> {
        let mut last = format!("all {} replicas unavailable", self.cfg.replicas);
        let mut failed_before = false;
        for r in 0..self.cfg.replicas {
            let probing = self.health.lock().state(s, r) == ReplicaState::Down;
            if !self.health.lock().try_now(s, r) {
                continue;
            }
            if failed_before {
                self.metrics.failovers.inc();
                if let Some(c) = ctx {
                    c.point("cluster.failover", fields![replica = r as u64]);
                }
            }
            match self.attempt(s, r, shape, opts, ctx) {
                Ok(v) => {
                    self.health.lock().record_ok(s, r);
                    if probing {
                        if let Some(c) = ctx {
                            c.point(
                                "cluster.health.probe",
                                fields![replica = r as u64, outcome = "ok"],
                            );
                        }
                    }
                    return Ok(v);
                }
                Err(AttemptError::Replica(e)) => {
                    self.health.lock().record_fail(s, r);
                    if let Some(c) = ctx {
                        c.point(
                            if probing { "cluster.health.probe" } else { "cluster.attempt.fail" },
                            fields![replica = r as u64, error = e.clone()],
                        );
                    }
                    last = format!("replica {r}: {e}");
                    failed_before = true;
                }
                Err(fatal) => return Err(fatal),
            }
        }
        Err(AttemptError::Replica(last))
    }

    fn attempt(
        &self,
        s: usize,
        r: usize,
        shape: &AggShape,
        opts: &ExecOptions,
        ctx: Option<&ProfileContext>,
    ) -> std::result::Result<(Table, ShardPartials), AttemptError> {
        let mut rep = self.shards[s].replicas[r].lock();
        let table = {
            let mut span = ctx.map(|c| c.span("cluster.fetch"));
            if let Some(sp) = span.as_mut() {
                sp.field("replica", r as u64);
            }
            let mut table = rep.fetch().map_err(|e| AttemptError::Replica(e.to_string()))?;
            // The durable store persists no synopsis, so the table comes
            // back without one; build it on the global zone grid so the
            // shard's pruning and zone-aggregate decisions are exactly
            // the global engine's.
            table.rebuild_synopsis_with(self.zone_rows);
            if let Some(sp) = span.as_mut() {
                sp.field("rows", table.row_count() as u64);
            }
            table
        };
        if rep.take_injection(Phase::Execute) {
            return Err(AttemptError::Replica("injected failure at execute".to_string()));
        }
        let sp = {
            let span = ctx.map(|c| c.span("cluster.execute"));
            match &self.shards[s].rows {
                RowAssignment::Contiguous { start } => shard_partials_contiguous(
                    &table,
                    *start,
                    shape.predicate.as_ref(),
                    &shape.group_by,
                    &shape.aggs,
                    // Re-attach the engine's plan/morsel/zone spans under
                    // this shard's execute span.
                    &ExecOptions {
                        profile: span.as_ref().map(|sp| sp.child()),
                        ..opts.clone()
                    },
                ),
                RowAssignment::Sparse(rows) => shard_partials_sparse(
                    &table,
                    rows,
                    shape.predicate.as_ref(),
                    &shape.group_by,
                    &shape.aggs,
                    &ExecOptions {
                        profile: span.as_ref().map(|sp| sp.child()),
                        ..opts.clone()
                    },
                ),
            }
            // Execution errors are deterministic functions of the
            // shard's data — the same error would come back from every
            // replica.
            .map_err(|e| AttemptError::Fatal(ClusterError::Query(e)))?
        };
        {
            let _span = ctx.map(|c| c.span("cluster.gather"));
            if rep.take_injection(Phase::Gather) {
                return Err(AttemptError::Replica("injected failure at gather".to_string()));
            }
        }
        Ok((table, sp))
    }

    /// Fetch a shard's table with replica failover (gather path).
    fn fetch_shard(
        &self,
        s: usize,
        ctx: Option<&ProfileContext>,
    ) -> std::result::Result<Table, String> {
        let mut last = format!("all {} replicas unavailable", self.cfg.replicas);
        let mut failed_before = false;
        for r in 0..self.cfg.replicas {
            let probing = self.health.lock().state(s, r) == ReplicaState::Down;
            if !self.health.lock().try_now(s, r) {
                continue;
            }
            if failed_before {
                self.metrics.failovers.inc();
                if let Some(c) = ctx {
                    c.point("cluster.failover", fields![replica = r as u64]);
                }
            }
            let mut rep = self.shards[s].replicas[r].lock();
            let mut span = ctx.map(|c| c.span("cluster.fetch"));
            if let Some(sp) = span.as_mut() {
                sp.field("replica", r as u64);
            }
            match rep.fetch() {
                Ok(t) => {
                    if rep.take_injection(Phase::Gather) {
                        self.health.lock().record_fail(s, r);
                        drop(span);
                        if let Some(c) = ctx {
                            c.point(
                                if probing { "cluster.health.probe" } else { "cluster.attempt.fail" },
                                fields![replica = r as u64, error = "injected failure at gather"],
                            );
                        }
                        last = format!("replica {r}: injected failure at gather");
                        failed_before = true;
                        continue;
                    }
                    self.health.lock().record_ok(s, r);
                    if let Some(sp) = span.as_mut() {
                        sp.field("rows", t.row_count() as u64);
                    }
                    if probing {
                        drop(span);
                        if let Some(c) = ctx {
                            c.point(
                                "cluster.health.probe",
                                fields![replica = r as u64, outcome = "ok"],
                            );
                        }
                    }
                    return Ok(t);
                }
                Err(e) => {
                    self.health.lock().record_fail(s, r);
                    drop(span);
                    if let Some(c) = ctx {
                        c.point(
                            if probing { "cluster.health.probe" } else { "cluster.attempt.fail" },
                            fields![replica = r as u64, error = e.to_string()],
                        );
                    }
                    last = format!("replica {r}: {e}");
                    failed_before = true;
                }
            }
        }
        Err(last)
    }

    /// The gather-execute route: reassemble the global table in
    /// original row order and run the engine on it.
    fn gather_execute(
        &self,
        sql: &str,
        opts: &ExecOptions,
        ctx: Option<&ProfileContext>,
    ) -> Result<ClusterAnswer> {
        let mut fetched: Vec<(usize, Table)> = Vec::new();
        for s in 0..self.shards.len() {
            if self.shards[s].row_count == 0 {
                continue;
            }
            self.metrics.shard_queries.inc();
            let shard_span = ctx.map(|c| {
                let mut sp = c.span("cluster.shard");
                sp.field("shard", s as u64);
                sp
            });
            let shard_ctx = shard_span.as_ref().map(|sp| sp.child());
            let t = self.fetch_shard(s, shard_ctx.as_ref()).map_err(|detail| {
                self.metrics.partial_results.inc();
                ClusterError::PartialResult {
                    shard: s,
                    detail: format!("{detail}; raw rows have no model fallback"),
                }
            })?;
            fetched.push((s, t));
        }
        let gather_span = ctx.map(|c| c.span("cluster.gather"));
        let mut global = self.template.slice(0, 0)?;
        match &self.cfg.scheme {
            PartitionScheme::Range => {
                // Shards are ordered by start offset already.
                for (_, t) in &fetched {
                    global.append_rows(t.columns())?;
                }
            }
            PartitionScheme::Hash { .. } => {
                // Concatenate shard-major, then permute into original
                // row order.
                let mut pos = vec![0usize; self.total_rows];
                let mut offset = 0usize;
                for (s, t) in &fetched {
                    let RowAssignment::Sparse(rows) = &self.shards[*s].rows else {
                        unreachable!("hash shards carry sparse assignments")
                    };
                    for (local, orig) in rows.iter().enumerate() {
                        pos[*orig] = offset + local;
                    }
                    offset += t.row_count();
                    global.append_rows(t.columns())?;
                }
                global = global.take(&pos)?;
            }
        }
        global.rebuild_synopsis_with(self.zone_rows);
        let catalog = Catalog::new();
        catalog.register(global)?;
        drop(gather_span);
        let exec_span = ctx.map(|c| c.span("cluster.execute"));
        let run_opts = ExecOptions {
            profile: exec_span.as_ref().map(|sp| sp.child()),
            ..opts.clone()
        };
        let res = execute_with(&catalog, sql, &run_opts)?;
        drop(exec_span);
        Ok(ClusterAnswer {
            table: res.table,
            rows_scanned: res.rows_scanned,
            degraded: Vec::new(),
            approximate: false,
            error_bound: None,
        })
    }

    /// Answer a lost shard from its captured model, if sound:
    /// hash-partitioned (groups are shard-local, so model rows append
    /// disjointly), AVG/MIN/MAX only (reconstruction loses row
    /// multiplicity, so COUNT/SUM are out), no LIMIT (a per-shard
    /// LIMIT is not the global LIMIT), and the model's residual bound
    /// within policy.
    fn model_answer(
        &self,
        s: usize,
        shape: &AggShape,
        sql: &str,
    ) -> std::result::Result<(Table, Option<f64>), String> {
        if !matches!(self.cfg.scheme, PartitionScheme::Hash { .. }) {
            return Err(
                "range shards interleave groups, so a per-shard model cannot stand in".to_string()
            );
        }
        if shape.limit.is_some() {
            return Err("LIMIT cannot be applied per shard".to_string());
        }
        if let Some(bad) = shape
            .aggs
            .iter()
            .find(|a| !matches!(a.func, AggFunc::Avg | AggFunc::Min | AggFunc::Max))
        {
            return Err(format!(
                "{} is unsound from a reconstructed model (row multiplicity is lost)",
                bad.func.name()
            ));
        }
        let guard = self.shards[s].model.lock();
        let Some(model) = guard.as_ref() else {
            return Err("no captured model for the shard".to_string());
        };
        match model.bound {
            Some(b) if b <= self.cfg.max_abs_residual => {}
            other => {
                return Err(format!(
                    "model residual bound {other:?} exceeds max_abs_residual {}",
                    self.cfg.max_abs_residual
                ))
            }
        }
        let ans = model.engine.answer(sql).map_err(|e| format!("model cannot answer: {e}"))?;
        Ok((ans.table, ans.error_bound))
    }

    fn publish_health(&self) {
        let health = self.health.lock();
        let mut down_total = 0i64;
        for (s, g) in self.metrics.shard_up.iter().enumerate() {
            let up = health.replicas_up(s) as i64;
            g.set(up);
            down_total += self.cfg.replicas as i64 - up;
        }
        self.metrics.replicas_down.set(down_total);
    }

    // ------------------------------------------------- admin / test API

    /// Cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The sharded table's name.
    pub fn table_name(&self) -> &str {
        &self.table_name
    }

    /// Rows held by shard `s`.
    pub fn shard_rows(&self, s: usize) -> usize {
        self.shards[s].row_count
    }

    /// Health state of one replica.
    pub fn replica_state(&self, s: usize, r: usize) -> ReplicaState {
        self.health.lock().state(s, r)
    }

    /// `Up` replicas of shard `s`.
    pub fn replicas_up(&self, s: usize) -> usize {
        self.health.lock().replicas_up(s)
    }

    /// Administratively kill one replica.
    pub fn kill_replica(&self, s: usize, r: usize) {
        self.shards[s].replicas[r].lock().kill();
    }

    /// Kill every replica of shard `s` (total shard loss).
    pub fn kill_shard(&self, s: usize) {
        for r in 0..self.cfg.replicas {
            self.kill_replica(s, r);
        }
    }

    /// Heal one replica (clears kill state and any armed fault).
    pub fn heal_replica(&self, s: usize, r: usize) -> Result<()> {
        self.shards[s].replicas[r].lock().heal()
    }

    /// Arm a one-shot coordinator-level failure at `phase`.
    pub fn inject_failure(&self, s: usize, r: usize, phase: Phase) {
        self.shards[s].replicas[r].lock().inject(phase);
    }

    /// Arm a device fault `op_offset` ops into the replica's next read.
    pub fn arm_read_fault(
        &self,
        s: usize,
        r: usize,
        mode: FaultMode,
        seed: u64,
        op_offset: u64,
    ) -> Result<()> {
        self.shards[s].replicas[r].lock().arm_read_fault(mode, seed, op_offset)
    }

    /// Did the replica's armed device fault fire?
    pub fn replica_fault_fired(&self, s: usize, r: usize) -> bool {
        self.shards[s].replicas[r].lock().fault_fired()
    }

    /// Device ops one shard fetch consumes on this replica.
    pub fn fetch_ops(&self, s: usize, r: usize) -> Result<u64> {
        self.shards[s].replicas[r].lock().fetch_ops().map_err(|e| {
            ClusterError::PartialResult { shard: s, detail: e.to_string() }
        })
    }
}

/// Peel `[Limit] [Sort] Aggregate(Scan | Filter(Scan))` off a plan.
fn decompose(plan: &LogicalPlan) -> Option<AggShape> {
    let mut limit = None;
    let mut order: Vec<OrderBy> = Vec::new();
    let mut p = plan;
    if let LogicalPlan::Limit { input, n } = p {
        limit = Some(*n);
        p = input;
    }
    if let LogicalPlan::Sort { input, keys } = p {
        order = keys.clone();
        p = input;
    }
    let LogicalPlan::Aggregate { input, group_by, aggs } = p else {
        return None;
    };
    let (predicate, source) = match input.as_ref() {
        LogicalPlan::Filter { input, predicate } => (Some(predicate.clone()), input.as_ref()),
        other => (None, other),
    };
    if !matches!(source, LogicalPlan::Scan { .. }) {
        return None;
    }
    Some(AggShape { group_by: group_by.clone(), aggs: aggs.clone(), predicate, order, limit })
}
