//! The scatter-gather coordinator.
//!
//! A [`Cluster`] owns the shards, their replicas, the health matrix,
//! and the per-shard captured models. A query takes one of two routes:
//!
//! * **Scatter-gather** — every aggregate pipeline shape
//!   `[LIMIT] [ORDER BY] [PROJECT] AGG(SCAN | FILTER(SCAN))`, under either
//!   partitioning. Each shard runs the engine's aggregate pipeline on
//!   its resident rows (`lawsdb_query::partial`); the coordinator merges
//!   the shards' partials and assembles the answer. Accumulators hold
//!   exact sums, so the merge is bit-identical to the unsharded engine.
//!   Hash-key equality asks only the shard that owns the key.
//! * **Gather-execute** — every non-aggregate single-table shape: the
//!   coordinator fetches all shards, reassembles the global table in
//!   original row order, and runs the engine on it.
//!
//! Joins are refused ([`ClusterError::Unsupported`]): shard-local joins
//! are not equivalent to global joins under either partitioning.
//!
//! Per-shard failures walk the replica list under the
//! [`HealthTracker`]'s direction; when every replica of a shard is
//! down, a hash-sharded aggregate within the model-soundness envelope
//! (GROUP BY on the shard key, AVG/MIN/MAX, no LIMIT, residual bound
//! within [`ClusterConfig::max_abs_residual`]) degrades to the shard's
//! captured model, surfaced as
//! [`DegradeReason::ShardModelFallback`]; anything else returns the
//! structured [`ClusterError::PartialResult`]. Never a panic, never a
//! hang.

use std::sync::Arc;
use std::time::Instant;

use lawsdb_core::DegradeReason;
use lawsdb_fit::FitOptions;
use lawsdb_models::bridge::fit_table_grouped;
use lawsdb_models::ModelCatalog;
use lawsdb_obs::{fields, Counter, Gauge, Histogram, MetricsRegistry, ProfileContext};
use lawsdb_query::optimize::optimize;
use lawsdb_query::plan::AggSpec;
use lawsdb_query::sql::{AggFunc, OrderBy, SelectStatement};
use lawsdb_query::{
    assemble_partials, execute_with, group_key_hash, limit_rows, merge_shard_partials,
    parse_select, project_rows, shard_partials, sort_rows, CostConstants, ExecOptions, LogicalPlan,
    ModelPlan, PruningPredicate, QueryError, ShardPartials,
};
use lawsdb_storage::zonemap::PredOp;
use lawsdb_storage::{Catalog, DataType, FaultMode, Schema, Table, Value};
use parking_lot::Mutex;

use crate::health::{HealthTracker, ReplicaState};
use crate::partition::{self, PartitionScheme, RowAssignment};
use crate::replica::{Replica, ReplicaError};
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

/// A shard's captured model, in a catalog of its own for the model
/// leaf to resolve against, and the residual bound that gates it.
struct ShardModel {
    models: ModelCatalog,
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
    /// The SELECT list over the aggregate's output, when it is not the
    /// group columns and then the aggregates.
    project: Option<Vec<(lawsdb_query::ScalarExpr, String)>>,
    order: Vec<OrderBy>,
    limit: Option<usize>,
}

enum AttemptError {
    /// Retry on another replica.
    Replica(String),
    /// Deterministic failure — retrying elsewhere gives the same error.
    Fatal(ClusterError),
}

impl From<ReplicaError> for AttemptError {
    fn from(e: ReplicaError) -> Self {
        AttemptError::Replica(e.to_string())
    }
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
        let parts = partition::partition(table, &cfg.scheme, cfg.shards)?;
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
            let models = ModelCatalog::new();
            models.store(model);
            *self.shards[s].model.lock() = Some(ShardModel { models, bound });
        }
        Ok(())
    }

    /// Execute `sql` across the cluster; every shard runs under `opts`.
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
        // The coordinator owns the profile context: cluster phase spans
        // (shard/fetch/execute/gather/merge) are opened here and the
        // engine's plan tree is re-attached underneath the execute
        // spans, so one tree covers the whole distributed query.
        let ctx = opts.profile.take();
        let plan = LogicalPlan::from_statement(&stmt)?;
        let started = Instant::now();
        let answer = match decompose(&plan) {
            Some(shape) => self.scatter_gather(&stmt, &shape, &opts, ctx.as_ref()),
            None => self.gather_execute(sql, &opts, ctx.as_ref()),
        };
        self.metrics
            .query_us
            .observe_with_exemplar(started.elapsed().as_micros() as u64, opts.query_id);
        self.publish_health();
        answer
    }

    fn scatter_gather(
        &self,
        stmt: &SelectStatement,
        shape: &AggShape,
        opts: &ExecOptions,
        ctx: Option<&ProfileContext>,
    ) -> Result<ClusterAnswer> {
        let mut partials: Vec<ShardPartials> = Vec::new();
        let mut tables: Vec<Option<Arc<Table>>> = vec![None; self.shards.len()];
        let routed = self.route(shape);
        let mut degraded = Vec::new();
        let mut model_tables = Vec::new();
        let mut error_bound: Option<f64> = None;
        // `s` is a shard id addressing several parallel structures
        // (shards, tables, health, metrics), not an iteration over one.
        #[allow(clippy::needless_range_loop)]
        for s in 0..self.shards.len() {
            if self.shards[s].row_count == 0 || routed.is_some_and(|t| t != s) {
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
                Err(AttemptError::Replica(detail)) => match self.model_answer(s, shape, stmt, opts)
                {
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
                    Err(AttemptError::Fatal(e)) => return Err(e),
                    Err(AttemptError::Replica(reason)) => {
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
        if let Some(exprs) = &shape.project {
            out = project_rows(&out, exprs, opts)?;
        }
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

    /// The shard owning `key = literal`, a top-level conjunct, when SQL
    /// equality implies equal grouping hashes: an `Int64` key compares
    /// as `f64`, exact only below 2^53; equal non-NaN floats hash alike.
    fn route(&self, shape: &AggShape) -> Option<usize> {
        let PartitionScheme::Hash { key } = &self.cfg.scheme else {
            return None;
        };
        let dtype = self.schema.field(key)?.data_type;
        let sound = |lit: f64| match dtype {
            DataType::Int64 => lit.fract() == 0.0 && lit.abs() < 9_007_199_254_740_992.0,
            DataType::Float64 => !lit.is_nan(),
            _ => false,
        };
        let pruner = PruningPredicate::extract(shape.predicate.as_ref()?)?;
        let lit = pruner
            .conjuncts
            .iter()
            .find(|c| c.column == *key && c.op == PredOp::Eq && sound(c.rhs))?
            .rhs;
        Some((group_key_hash(&Value::Float(lit)) % self.shards.len() as u64) as usize)
    }

    /// Resolve a group key value by global first-encounter row: find
    /// the owning shard, read from its fetched table.
    fn key_value(
        &self,
        tables: &[Option<Arc<Table>>],
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

    /// Walk shard `s`'s replicas under health direction, calling
    /// `attempt(replica)` on each one `try_now` admits; the first success
    /// wins. A replica error moves on to the next replica, and every
    /// failed attempt followed by another is a failover — recorded both
    /// in metrics and, under a profile context, as a `cluster.failover`
    /// point. Health outcomes (`record_ok` / `record_fail`) and the
    /// `cluster.attempt.fail` / `cluster.health.probe` points are
    /// recorded here, once, for both routes.
    fn walk_replicas<T>(
        &self,
        s: usize,
        ctx: Option<&ProfileContext>,
        mut attempt: impl FnMut(usize) -> std::result::Result<T, AttemptError>,
    ) -> std::result::Result<T, AttemptError> {
        let mut last = format!("all {} replicas unavailable", self.cfg.replicas);
        let mut failed_before = false;
        for r in 0..self.cfg.replicas {
            // One lock for both reads, so a concurrent query cannot flip
            // the state in between and mislabel this attempt.
            let (probing, admitted) = {
                let mut health = self.health.lock();
                (health.state(s, r) == ReplicaState::Down, health.try_now(s, r))
            };
            if !admitted {
                continue;
            }
            if failed_before {
                self.metrics.failovers.inc();
                if let Some(c) = ctx {
                    c.point("cluster.failover", fields![replica = r as u64]);
                }
            }
            match attempt(r) {
                Ok(v) => {
                    self.health.lock().record_ok(s, r);
                    if let (Some(c), true) = (ctx, probing) {
                        c.point("cluster.health.probe", fields![replica = r as u64, outcome = "ok"]);
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

    /// Take replica `r`'s copy of shard `s` inside a `cluster.fetch`
    /// span. The gather route fails an armed `Gather` injection here,
    /// before the span records the row count. Every replica lock here
    /// and in `run_shard` lasts one call, never a shard's execution.
    fn fetch_from(
        &self,
        s: usize,
        r: usize,
        ctx: Option<&ProfileContext>,
        gather_route: bool,
    ) -> std::result::Result<Arc<Table>, AttemptError> {
        let mut span = ctx.map(|c| c.span("cluster.fetch"));
        if let Some(sp) = span.as_mut() {
            sp.field("replica", r as u64);
        }
        let table = self.shards[s].replicas[r].lock().fetch()?;
        if gather_route {
            self.shards[s].replicas[r].lock().take_injection(Phase::Gather)?;
        }
        if let Some(sp) = span.as_mut() {
            sp.field("rows", table.row_count() as u64);
        }
        Ok(table)
    }

    /// Compute shard `s`'s partial aggregates, with replica failover.
    fn run_shard(
        &self,
        s: usize,
        shape: &AggShape,
        opts: &ExecOptions,
        ctx: Option<&ProfileContext>,
    ) -> std::result::Result<(Arc<Table>, ShardPartials), AttemptError> {
        self.walk_replicas(s, ctx, |r| {
            let table = self.fetch_from(s, r, ctx, false)?;
            self.shards[s].replicas[r].lock().take_injection(Phase::Execute)?;
            let partials = {
                let span = ctx.map(|c| c.span("cluster.execute"));
                let rows = &self.shards[s].rows;
                shard_partials(
                    &table,
                    |i| rows.global_row(i),
                    shape.predicate.as_ref(),
                    &shape.group_by,
                    &shape.aggs,
                    // Re-attach the engine's morsel/zone leaves under
                    // this shard's execute span.
                    &ExecOptions { profile: span.as_ref().map(|sp| sp.child()), ..opts.clone() },
                )
                // Execution errors are deterministic functions of the
                // shard's data — the same error would come back from
                // every replica.
                .map_err(|e| AttemptError::Fatal(ClusterError::Query(e)))?
            };
            let _span = ctx.map(|c| c.span("cluster.gather"));
            self.shards[s].replicas[r].lock().take_injection(Phase::Gather)?;
            Ok((table, partials))
        })
    }

    /// Fetch a shard's table with replica failover (gather path).
    fn fetch_shard(
        &self,
        s: usize,
        ctx: Option<&ProfileContext>,
    ) -> std::result::Result<Arc<Table>, String> {
        self.walk_replicas(s, ctx, |r| self.fetch_from(s, r, ctx, true))
        .map_err(|e| match e {
            AttemptError::Replica(detail) => detail,
            AttemptError::Fatal(e) => e.to_string(),
        })
    }

    /// The gather-execute route for non-aggregate shapes: reassemble the
    /// global table in original row order and run the engine on it.
    fn gather_execute(
        &self,
        sql: &str,
        opts: &ExecOptions,
        ctx: Option<&ProfileContext>,
    ) -> Result<ClusterAnswer> {
        let mut fetched: Vec<(usize, Arc<Table>)> = Vec::new();
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
        global.rebuild_synopsis();
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
    /// hash-partitioned with the shard key in the GROUP BY (only then are
    /// the shard's groups its own, so model rows append disjointly),
    /// AVG/MIN/MAX only (reconstruction loses row multiplicity, so
    /// COUNT/SUM are out), no LIMIT (a per-shard LIMIT is not the global
    /// LIMIT), and the model's residual bound within policy. The model
    /// tree runs under the query's `opts`: its own cancellation or
    /// deadline ends the query as that error ([`AttemptError::Fatal`]);
    /// every other refusal is a reason ([`AttemptError::Replica`]).
    fn model_answer(
        &self,
        s: usize,
        shape: &AggShape,
        stmt: &SelectStatement,
        opts: &ExecOptions,
    ) -> std::result::Result<(Table, Option<f64>), AttemptError> {
        let refuse = |reason: String| Err(AttemptError::Replica(reason));
        let PartitionScheme::Hash { key } = &self.cfg.scheme else {
            return refuse(
                "range shards interleave groups, so a per-shard model cannot stand in".to_string(),
            );
        };
        if !shape.group_by.iter().any(|g| g.eq_ignore_ascii_case(key)) {
            return refuse(format!(
                "the GROUP BY does not contain the shard key {key}, so the shard's model rows \
                 would not be disjoint from the other shards' groups"
            ));
        }
        if shape.limit.is_some() {
            return refuse("LIMIT cannot be applied per shard".to_string());
        }
        if let Some(bad) = shape
            .aggs
            .iter()
            .find(|a| !matches!(a.func, AggFunc::Avg | AggFunc::Min | AggFunc::Max))
        {
            return refuse(format!(
                "{} is unsound from a reconstructed model (row multiplicity is lost)",
                bad.func.name()
            ));
        }
        let guard = self.shards[s].model.lock();
        let Some(model) = guard.as_ref() else {
            return refuse("no captured model for the shard".to_string());
        };
        match model.bound {
            Some(b) if b <= self.cfg.max_abs_residual => {}
            other => {
                return refuse(format!(
                    "model residual bound {other:?} exceeds max_abs_residual {}",
                    self.cfg.max_abs_residual
                ))
            }
        }
        // The engine's own lowering and executor; the leaf reads no
        // table, so the catalog it is priced and run against is empty.
        let cannot =
            |e: &dyn std::fmt::Display| AttemptError::Replica(format!("model cannot answer: {e}"));
        let logical = optimize(&LogicalPlan::from_statement(stmt).map_err(|e| cannot(&e))?);
        let catalog = Catalog::new();
        let consts = CostConstants::default();
        let plan = ModelPlan::lower(stmt, &logical, &model.models, &catalog, &consts);
        let plan = plan.map_err(|e| cannot(&e))?;
        let ans = plan.run(&catalog, opts).map_err(|e| match e {
            QueryError::Cancelled | QueryError::Timeout { .. } => {
                AttemptError::Fatal(ClusterError::Query(e))
            }
            other => cannot(&other),
        })?;
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

    /// Device ops the replica's next fetch pays: 0 while its shard is
    /// resident, a full read once a heal or an armed fault drops it.
    pub fn fetch_ops(&self, s: usize, r: usize) -> Result<u64> {
        self.shards[s].replicas[r].lock().fetch_ops().map_err(|e| {
            ClusterError::PartialResult { shard: s, detail: e.to_string() }
        })
    }
}

/// Peel `[Limit] [Sort] [Project] Aggregate(Scan | Filter(Scan))` off a
/// plan.
fn decompose(plan: &LogicalPlan) -> Option<AggShape> {
    let mut limit = None;
    let mut order: Vec<OrderBy> = Vec::new();
    let mut project = None;
    let mut p = plan;
    if let LogicalPlan::Limit { input, n } = p {
        limit = Some(*n);
        p = input;
    }
    if let LogicalPlan::Sort { input, keys } = p {
        order = keys.clone();
        p = input;
    }
    if let LogicalPlan::Project { input, exprs, star: false } = p {
        project = Some(exprs.clone());
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
    let (group_by, aggs) = (group_by.clone(), aggs.clone());
    Some(AggShape { group_by, aggs, predicate, project, order, limit })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `k = 2^53` also matches 2^53 + 1, since an `Int64` key compares
    /// as `f64`; with the two keys on different shards, it must scatter.
    #[test]
    fn key_literals_past_2_pow_53_scatter() {
        let big = 1i64 << 53;
        let shard_of = |k: i64, n: u64| group_key_hash(&Value::Int(k)) % n;
        let shards = (2..16).find(|&n| shard_of(big, n) != shard_of(big + 1, n)).unwrap() as usize;
        let mut b = lawsdb_storage::TableBuilder::new("t");
        b.add_i64("k", vec![big, big + 1, 7, 7, -3]).add_f64("v", vec![1.0, 2.0, 4.0, 8.0, 16.0]);
        let (table, registry, catalog) = (b.build().unwrap(), MetricsRegistry::new(), Catalog::new());
        let scheme = PartitionScheme::Hash { key: "k".to_string() };
        let cfg = ClusterConfig { shards, scheme, ..ClusterConfig::default() };
        let cluster = Cluster::new(&table, cfg, &registry).unwrap();
        catalog.register(table).unwrap();
        let queries = || registry.snapshot().counter("lawsdb_cluster_shard_queries");
        let all = (0..shards).filter(|&s| cluster.shard_rows(s) > 0).count() as u64;
        let opts = ExecOptions::default();
        for (lit, asked, n) in [("9007199254740992", all, 2), ("7", 1, 2), ("7.5", all, 0)] {
            let sql = format!("SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE k = {lit}");
            let before = queries();
            let got = cluster.query(&sql, &opts).unwrap().table;
            assert_eq!(got, execute_with(&catalog, &sql, &opts).unwrap().table, "{sql}");
            let seen = (got.row(0).unwrap()[0].clone(), queries() - before);
            assert_eq!(seen, (Value::Int(n), asked), "{sql}");
        }
    }

    /// A GROUP BY that lists its aggregate first plans as a projection
    /// over the aggregate: it scatters like the group-first text, asks
    /// only the owning shard when routed, and merges to the single
    /// engine's bits.
    #[test]
    fn a_projected_aggregate_scatters() {
        let mut b = lawsdb_storage::TableBuilder::new("t");
        let keys: Vec<i64> = (0..60).map(|i| i % 9).collect();
        let vals: Vec<f64> = (0..60).map(|i| 0.1 * i as f64 + 1.0 / (1 + i) as f64).collect();
        b.add_i64("k", keys).add_f64("v", vals);
        let (table, registry) = (b.build().unwrap(), MetricsRegistry::new());
        let catalog = Catalog::new();
        let scheme = PartitionScheme::Hash { key: "k".to_string() };
        let cfg = ClusterConfig { shards: 3, scheme, ..ClusterConfig::default() };
        let cluster = Cluster::new(&table, cfg, &registry).unwrap();
        catalog.register(table).unwrap();
        let queries = || registry.snapshot().counter("lawsdb_cluster_shard_queries");
        let opts = ExecOptions::default();
        for (sql, asked) in [
            ("SELECT AVG(v) AS m, k FROM t WHERE k = 7 GROUP BY k", 1),
            ("SELECT k, AVG(v) AS m FROM t WHERE k = 7 GROUP BY k", 1),
            ("SELECT MAX(v) AS hi, COUNT(*) AS n FROM t GROUP BY k ORDER BY hi DESC LIMIT 4", 3),
        ] {
            let plan = LogicalPlan::from_statement(&parse_select(sql).unwrap()).unwrap();
            assert!(decompose(&plan).is_some(), "{sql} scatters");
            let before = queries();
            let got = cluster.query(sql, &opts).unwrap().table;
            assert_eq!(got, execute_with(&catalog, sql, &opts).unwrap().table, "{sql}");
            assert_eq!(queries() - before, asked, "{sql}");
        }
    }
}
