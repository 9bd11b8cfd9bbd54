//! The assembled LawsDB engine.

use crate::error::{CoreError, Result};
use crate::resilience::{
    sample_rows, DegradeReason, HealthCounters, HealthSnapshot, ResilientAnswer,
};
use crate::session::Session;
use lawsdb_approx::{ApproxAnswer, ApproxError};
use lawsdb_fit::FitOptions as RawFitOptions;
use lawsdb_models::bridge::{fit_table, fit_table_grouped, refit_table_grouped};
use lawsdb_models::legal::BloomFilter;
use lawsdb_models::model::ModelId;
use lawsdb_models::{CapturedModel, ModelCatalog, ModelState};
use lawsdb_obs::{fields, Counter, MetricsRegistry};
use lawsdb_query::exec::normalize_expr;
use lawsdb_query::sql::SelectStatement;
use lawsdb_query::{
    CostConstants, ExecOptions, LogicalPlan, ModelPlan, PhysicalPlan, PlanCache, QueryResult,
    ScalarExpr, ScanStatsCollector,
};
use lawsdb_storage::{Catalog, Column, Table};
use std::sync::Arc;

/// Rows sampled by the residual drift check — enough to catch a
/// replaced or rescaled column with near-certainty, cheap enough to run
/// on every model-path answer.
const DRIFT_SAMPLE_ROWS: usize = 16;

/// Most rounds of [`DRIFT_SAMPLE_ROWS`] rows a partial model's drift
/// check draws looking for rows inside its coverage (≤ 1,024 rows).
const DRIFT_SAMPLE_ROUNDS: usize = 64;

/// Bits per key of the legal-combination Bloom filter capture builds
/// for a grouped model (≈ 1 % false positives), its bit count rounded up
/// to a power of two so a refit can extend the live filter.
const LEGAL_FILTER_BITS_PER_KEY: usize = 10;

/// The quality gate applied to every captured model before it becomes
/// usable (Section 3, step 2: "Judge the quality of the model").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityPolicy {
    /// Minimum pooled R².
    pub min_r2: f64,
    /// Significance level for the F-test on global fits.
    pub alpha: f64,
    /// Whether rejected models are kept as `Retired` (true — the paper
    /// argues poor models may become relevant later) or dropped.
    pub keep_rejected: bool,
}

impl Default for QualityPolicy {
    fn default() -> Self {
        QualityPolicy { min_r2: 0.8, alpha: 0.05, keep_rejected: true }
    }
}

/// An answer that may be exact or approximate.
#[derive(Debug, Clone)]
pub enum Answer {
    /// Exact answer from base-table execution.
    Exact(QueryResult),
    /// Model-based approximate answer.
    Approx(ApproxAnswer),
}

impl Answer {
    /// The result rows, whichever path produced them.
    pub fn table(&self) -> &Table {
        match self {
            Answer::Exact(r) => &r.table,
            Answer::Approx(a) => &a.table,
        }
    }

    /// Base-table rows scanned (0 on the model path).
    pub fn rows_scanned(&self) -> usize {
        match self {
            Answer::Exact(r) => r.rows_scanned,
            Answer::Approx(a) => a.rows_scanned,
        }
    }

    /// True when the model path answered.
    pub fn is_approximate(&self) -> bool {
        matches!(self, Answer::Approx(_))
    }
}

/// How [`LawsDb::answer`] decides whether to try the model rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerMode {
    /// Always try the model first.
    Resilient,
    /// Try the model only when the cost model prices its answer at or
    /// below the exact physical plan.
    Adaptive,
}

/// The database engine: table catalog, model catalog, exact and
/// approximate query paths, capture and maintenance.
pub struct LawsDb {
    tables: Catalog,
    models: Arc<ModelCatalog>,
    /// Quality gate for captured models.
    pub quality: QualityPolicy,
    /// Knobs for both query paths, exact and model: worker thread count
    /// (0 = one per core) and morsel size. Results are identical for any
    /// setting.
    pub exec: ExecOptions,
    /// Per-engine metrics registry: every subsystem counter this engine
    /// owns (health, scan pruning) binds here, so one snapshot renders
    /// the whole engine's state (Prometheus text or JSON).
    metrics: Arc<MetricsRegistry>,
    /// Degradation health counters (see [`crate::resilience`]) — views
    /// over `lawsdb_core_*` counters in [`LawsDb::metrics`].
    health: HealthCounters,
    /// Per-operator cost constants the planner prices with.
    cost: CostConstants,
    /// Physical plan cache keyed on `(normalized query, stats epoch)`;
    /// hit/miss counters live in [`LawsDb::metrics`].
    plan_cache: PlanCache,
    /// `lawsdb_fit_groups_fitted`: groups fitted by captures and refits
    /// (a global model is one group).
    groups_fitted: Arc<Counter>,
    /// `lawsdb_fit_lm_iterations`: optimizer iterations of the groups
    /// captures and refits fitted successfully (0 for a linear fit).
    lm_iterations: Arc<Counter>,
    /// `lawsdb_fit_rows_fitted`: rows captures and refits hand to the
    /// fit and its residual pass (a refit's, the touched groups' rows).
    rows_fitted: Arc<Counter>,
}

impl Default for LawsDb {
    fn default() -> Self {
        Self::new()
    }
}

impl LawsDb {
    /// Fresh empty engine.
    pub fn new() -> LawsDb {
        let models = Arc::new(ModelCatalog::new());
        let metrics = Arc::new(MetricsRegistry::new());
        // The engine's default scan-stats sink binds to the registry,
        // so `lawsdb_query_pages_*` accumulate engine-wide while every
        // query still reports its own delta through `QueryResult`.
        let exec = ExecOptions {
            stats: Some(Arc::new(ScanStatsCollector::for_registry(&metrics))),
            ..ExecOptions::default()
        };
        LawsDb {
            tables: Catalog::new(),
            models,
            quality: QualityPolicy::default(),
            exec,
            health: HealthCounters::for_registry(&metrics),
            cost: CostConstants::default(),
            plan_cache: PlanCache::for_registry(&metrics),
            groups_fitted: metrics.counter("lawsdb_fit_groups_fitted"),
            lm_iterations: metrics.counter("lawsdb_fit_lm_iterations"),
            rows_fitted: metrics.counter("lawsdb_fit_rows_fitted"),
            metrics,
        }
    }

    /// Builder-style override of the execution options. A `None` stats
    /// sink keeps the engine's registry-bound collector, so overriding
    /// thread counts does not silently disconnect DB-wide pruning
    /// metrics.
    pub fn with_exec_options(mut self, exec: ExecOptions) -> LawsDb {
        let stats = exec.stats.clone().or_else(|| self.exec.stats.clone());
        self.exec = ExecOptions { stats, ..exec };
        self
    }

    /// The engine's metrics registry (counters named
    /// `lawsdb_<crate>_<name>`; see DESIGN.md §12).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The engine's metrics in Prometheus text exposition format.
    pub fn stats_prometheus(&self) -> String {
        self.metrics.snapshot().render_prometheus()
    }

    /// The engine's metrics as a JSON object.
    pub fn stats_json(&self) -> String {
        self.metrics.snapshot().render_json()
    }

    /// Register a base table.
    pub fn register_table(&self, table: Table) -> Result<Arc<Table>> {
        Ok(self.tables.register(table)?)
    }

    /// Snapshot of a base table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        Ok(self.tables.get(name)?)
    }

    /// The table catalog.
    pub fn tables(&self) -> &Catalog {
        &self.tables
    }

    /// The model catalog.
    pub fn models(&self) -> &Arc<ModelCatalog> {
        &self.models
    }

    /// Open an interception session (Figure 2).
    pub fn session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// Combined statistics epoch: table catalog in the high bits, model
    /// catalog in the low. Any append, refit, demotion or drop moves
    /// it, which is exactly the plan-cache invalidation signal — a plan
    /// priced against stale row counts or a changed model set must be
    /// re-planned, never reused.
    pub fn stats_epoch(&self) -> u64 {
        (self.tables.epoch() << 32) | (self.models.epoch() & 0xFFFF_FFFF)
    }

    /// The physical plan cache (`lawsdb_query_plan_cache_{hit,miss}`
    /// counters live in [`LawsDb::metrics`]).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Parse, optimize, and cost `sql` — or fetch the cached physical
    /// plan when one was built against the current stats epoch.
    pub fn physical_plan(&self, sql: &str) -> Result<Arc<PhysicalPlan>> {
        Ok(self.plan(sql)?.1)
    }

    /// The one parse and plan-cache lookup behind every entry point;
    /// the statement comes back too, for lowering the model alternative.
    fn plan(&self, sql: &str) -> Result<(SelectStatement, Arc<PhysicalPlan>)> {
        let stmt = lawsdb_query::parse_select(sql)?;
        let key = lawsdb_query::normalize_statement(&stmt);
        let epoch = self.stats_epoch();
        if let Some(plan) = self.plan_cache.get(&key, epoch) {
            return Ok((stmt, plan));
        }
        let logical = lawsdb_query::LogicalPlan::from_statement(&stmt)?;
        let optimized = lawsdb_query::optimize::optimize(&logical);
        let plan = Arc::new(lawsdb_query::plan_physical(&self.tables, &optimized, &self.cost));
        self.plan_cache.put(key, epoch, Arc::clone(&plan));
        Ok((stmt, plan))
    }

    /// The cached plan's model alternative, lowered onto the engine's
    /// models on the first model request for that plan.
    fn model_plan<'p>(
        &self,
        stmt: &SelectStatement,
        plan: &'p PhysicalPlan,
    ) -> std::result::Result<&'p ModelPlan, ApproxError> {
        plan.model_plan(|| {
            ModelPlan::lower(stmt, plan.logical(), &self.models, &self.tables, &self.cost)
        })
    }

    /// Execute a query exactly against base tables, using the engine's
    /// [`ExecOptions`] (morsel-parallel by default) and the cached
    /// cost-based physical plan.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        let plan = self.physical_plan(sql)?;
        Ok(lawsdb_query::execute_physical_with(&self.tables, &plan, &self.exec)?)
    }

    /// [`LawsDb::query`] under caller-provided [`ExecOptions`] — the
    /// per-session entry point a server front end uses: each session
    /// brings its own threads, budget and cancel token while sharing
    /// this engine's tables, plan cache and metrics. The caller's knobs
    /// win; the stats sink falls back to the engine's own so registry
    /// counters keep flowing.
    pub fn query_with(&self, sql: &str, exec: &ExecOptions) -> Result<QueryResult> {
        let plan = self.physical_plan(sql)?;
        self.run_exact(&plan, exec)
    }

    fn run_exact(&self, plan: &PhysicalPlan, exec: &ExecOptions) -> Result<QueryResult> {
        let opts = self.resolve_exec(exec);
        Ok(lawsdb_query::execute_physical_with(&self.tables, plan, &opts)?)
    }

    /// EXPLAIN: the cost-based physical plan for a query, one node per
    /// line with estimated rows and cost appended, without executing
    /// it. The line sequence matches the logical
    /// [`lawsdb_query::LogicalPlan::explain`] exactly; estimates are
    /// appended to each line, never inserted as new lines. When a
    /// captured model can answer the query, its tree follows, rooted
    /// at column 0 again, with the `ModelScan` leaf where the scan was.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let (stmt, plan) = self.plan(sql)?;
        let mut text = plan.explain();
        if let Ok(model) = self.model_plan(&stmt, &plan) {
            text.push_str(&model.plan.explain());
        }
        Ok(text)
    }

    /// Answer a query approximately from captured models (zero-IO): the
    /// cached plan's model alternative, run under the engine's options.
    pub fn query_approx(&self, sql: &str) -> Result<ApproxAnswer> {
        let (stmt, plan) = self.plan(sql)?;
        Ok(self.model_plan(&stmt, &plan)?.run(&self.tables, &self.exec)?)
    }

    /// The paper's single user-facing act (Fig. 2 steps 4–5): answer
    /// from a captured model when one covers the query *and is still
    /// current*, exactly otherwise — and say which rungs of the ladder
    /// were taken and why. A model that fails the freshness guard is
    /// demoted to [`ModelState::Stale`] so the next query does not retry
    /// it; every decision is returned in [`ResilientAnswer::degraded`]
    /// and counted in [`LawsDb::health`].
    ///
    /// [`AnswerMode::Adaptive`] puts the cost gate in front of the same
    /// ladder. Both rungs run from the one cached plan, and both under
    /// `exec` (the caller's threads, budget and cancel token). A
    /// profile context riding on `exec.profile` collects the ladder's
    /// own decisions (`resilient.*` points) next to the plan tree of
    /// whichever rung ran.
    pub fn answer(
        &self,
        sql: &str,
        mode: AnswerMode,
        exec: &ExecOptions,
    ) -> Result<ResilientAnswer> {
        let ctx = exec.profile.as_ref();
        let (stmt, plan) = self.plan(sql)?;
        let try_model = match mode {
            AnswerMode::Resilient => true,
            AnswerMode::Adaptive => {
                let est = plan.root_estimate();
                self.cost.model_answer_cost_us(est.rows) <= est.cost_us
            }
        };
        let mut degraded = Vec::new();
        if try_model {
            let opts = self.resolve_exec(exec);
            let reason = match self.model_plan(&stmt, &plan) {
                Err(
                    e @ (ApproxError::NotAnswerable { .. }
                    | ApproxError::EnumerationTooLarge { .. }),
                ) => DegradeReason::NoModel { detail: e.to_string() },
                Err(e) => return Err(e.into()),
                Ok(model) => {
                    let a = model.run(&self.tables, &opts)?;
                    let Some(reason) = self.freshness_guard(&a) else {
                        self.health.record_approx();
                        if let Some(ctx) = ctx {
                            ctx.point(
                                "resilient.approx",
                                fields![
                                    model = a.model.0,
                                    tuples = a.tuples_reconstructed,
                                    rows_scanned = a.rows_scanned,
                                ],
                            );
                        }
                        return Ok(ResilientAnswer { answer: Answer::Approx(a), degraded });
                    };
                    // Demote so the next query doesn't retry the model,
                    // then answer this one exactly.
                    let _ = self.models.set_state(a.model, ModelState::Stale);
                    reason
                }
            };
            self.health.record(&reason);
            if let Some(ctx) = ctx {
                ctx.point(
                    "resilient.degrade",
                    fields![reason = reason.name(), detail = reason.to_string()],
                );
            }
            degraded.push(reason);
        }
        Ok(ResilientAnswer { answer: Answer::Exact(self.run_exact(&plan, exec)?), degraded })
    }

    /// Caller options resolved against the engine's defaults: the
    /// caller's knobs win, the stats sink falls back to the engine's
    /// own so shared registry counters keep flowing.
    fn resolve_exec(&self, exec: &ExecOptions) -> ExecOptions {
        ExecOptions {
            stats: exec.stats.clone().or_else(|| self.exec.stats.clone()),
            ..exec.clone()
        }
    }

    /// Degradation health counters.
    pub fn health(&self) -> HealthSnapshot {
        self.health.snapshot()
    }

    /// Post-hoc staleness verification of the model that produced `a`
    /// (the model leaf is zero-IO by design, so the base-table
    /// comparison has to happen here). Returns the reason to degrade,
    /// or `None` when the model is still current.
    fn freshness_guard(&self, a: &ApproxAnswer) -> Option<DegradeReason> {
        let model = self.models.get(a.model).ok()?;
        let table = self.table(&model.coverage.table).ok()?;
        if table.row_count() != model.coverage.rows_at_fit {
            return Some(DegradeReason::StaleRowCount {
                model: a.model,
                rows_at_fit: model.coverage.rows_at_fit,
                rows_now: table.row_count(),
            });
        }
        // Sampled-residual drift check, skipped for models without a
        // fitted residual bound. A partial model is held to the sampled
        // rows inside its coverage: it draws further rounds from the
        // same seeded stream until it holds DRIFT_SAMPLE_ROWS of them,
        // or DRIFT_SAMPLE_ROUNDS rounds are drawn, so a narrow coverage
        // is checked too. A full model draws one round.
        let bound = model.max_abs_residual?;
        let seed = lawsdb_storage::fault::fault_seed() ^ a.model.0;
        let coverage = match &model.coverage.predicate {
            Some(src) => {
                let coverage = lawsdb_query::parse_predicate(src).ok()?;
                Some(normalize_expr(&coverage, table.schema()).ok()?)
            }
            None => None,
        };
        let (mut state, mut rows) = (seed, std::collections::BTreeSet::new());
        for _ in 0..DRIFT_SAMPLE_ROUNDS {
            let drawn = sample_rows(&mut state, table.row_count(), DRIFT_SAMPLE_ROWS);
            let Some(coverage) = &coverage else {
                rows.extend(drawn);
                break;
            };
            let covered = coverage.eval_mask(&table.take(&drawn).ok()?).ok()?;
            rows.extend(covered.selected_indices().into_iter().map(|i| drawn[i]));
            if rows.len() >= DRIFT_SAMPLE_ROWS || drawn.len() == table.row_count() {
                break;
            }
        }
        if rows.is_empty() {
            return None;
        }
        let sampled = table.take(&rows.into_iter().collect::<Vec<_>>()).ok()?;
        let preds = lawsdb_models::bridge::predict_table(&model, &sampled).ok()?;
        let observed = sampled
            .column(&model.coverage.response)
            .ok()
            .and_then(|c| c.to_f64_lossy().ok())?;
        let drift = preds
            .iter()
            .zip(&observed)
            .filter(|(p, o)| p.is_finite() && o.is_finite())
            .map(|(p, o)| (p - o).abs())
            .fold(0.0_f64, f64::max);
        // Every row satisfied |residual| ≤ bound at fit time, so the
        // factor-of-two margin only tolerates numeric wiggle — real
        // drift (edits, replaced columns) blows far past it.
        if drift > (bound * 2.0).max(1e-12) {
            return Some(DegradeReason::ResidualDrift {
                model: a.model,
                observed: drift,
                bound,
                seed,
            });
        }
        None
    }

    /// Capture a model: fit `formula` against `table` (grouped by
    /// `group_column` if given), judge it, attach its legal-combination
    /// filter, store it, and return the stored snapshot.
    ///
    /// Models failing the quality gate are stored `Retired` (or dropped
    /// per policy) and reported as [`CoreError::QualityRejected`].
    pub fn capture_model(
        &self,
        table_name: &str,
        formula: &str,
        group_column: Option<&str>,
        options: &RawFitOptions,
    ) -> Result<Arc<CapturedModel>> {
        self.capture(table_name, formula, group_column, None, options, None)
    }

    /// Capture a *partial* model, fitted only on the rows satisfying
    /// `predicate` (Section 4.1's partial-models challenge), a SQL
    /// boolean expression as it would follow `WHERE`. The covered rows
    /// are read through the engine's own plan path, zone pruning
    /// included. The predicate may name only the group column and the
    /// formula's variables ([`CoreError::CoverageColumn`] otherwise);
    /// its source is recorded in the model's coverage, approximate
    /// answers are clipped to it, and point queries outside it refuse
    /// rather than extrapolate.
    pub fn capture_model_where(
        &self,
        table_name: &str,
        formula: &str,
        group_column: Option<&str>,
        predicate: &str,
        options: &RawFitOptions,
    ) -> Result<Arc<CapturedModel>> {
        self.capture(table_name, formula, group_column, Some(predicate), options, None)
    }

    /// Fit and store a model. On a refit, `live` is the model it
    /// replaces: when the table proves it only grew since `live` was
    /// fitted, only the groups of the appended rows are fitted again
    /// ([`appended_rows`]), and the legal-combination filter is `live`'s
    /// extended by those rows while its size holds; otherwise every
    /// group is fitted and the filter built over every row.
    fn capture(
        &self,
        table_name: &str,
        formula: &str,
        group_column: Option<&str>,
        predicate: Option<&str>,
        options: &RawFitOptions,
        live: Option<&CapturedModel>,
    ) -> Result<Arc<CapturedModel>> {
        let table = self.table(table_name)?;
        let coverage = predicate.map(lawsdb_query::parse_predicate).transpose()?;
        let rows = match &coverage {
            Some(p) => Arc::new(self.covered_rows(table_name, p)?),
            None => Arc::clone(&table),
        };
        let appended = live.and_then(|m| Some((m, appended_rows(m, &table)?)));
        let threads = default_threads();
        let (mut model, groups, iterations, fitted_rows) = match (group_column, &appended) {
            (Some(_), Some((live, appended))) => {
                let (model, report) = refit_table_grouped(live, &rows, appended, options, threads)?;
                let fitted_rows = report.fits.iter().map(|g| g.rows).sum();
                (model, report.fits.len(), report.iterations(), fitted_rows)
            }
            (Some(g), None) => {
                let (model, report) = fit_table_grouped(&rows, formula, g, options, threads)?;
                let fitted_rows = report.fits.iter().map(|g| g.rows).sum();
                (model, report.fits.len(), report.iterations(), fitted_rows)
            }
            (None, _) => {
                let (model, fit) = fit_table(&rows, formula, options)?;
                (model, 1, fit.iterations, rows.row_count())
            }
        };
        self.groups_fitted.add(groups as u64);
        self.lm_iterations.add(iterations as u64);
        self.rows_fitted.add(fitted_rows as u64);
        model.table_version = Some(table.id());
        if let (Some(p), Some(src)) = (&coverage, predicate) {
            model.coverage.table = table_name.to_string();
            check_coverage_columns(&model, p)?;
            model.coverage.rows_at_fit = table.row_count();
            model.coverage.predicate = Some(src.trim().to_string());
        }
        let r2 = model.overall_r2;
        let passed = r2.is_finite() && r2 >= self.quality.min_r2;
        if !passed {
            if !self.quality.keep_rejected {
                return Err(CoreError::QualityRejected { r2, min_r2: self.quality.min_r2 });
            }
            model.state = ModelState::Retired;
        }
        // The legal-combination Bloom filter of the covered rows
        // (Section 4.2's compressed lookup structure) rides with the
        // model, so enumeration never invents a combination. A partial
        // model's `rows_at_fit` counts the table's rows, not its covered
        // ones, so its filter is built again.
        if let (true, Some(g)) = (passed, group_column) {
            let grown = appended.filter(|_| coverage.is_none()).and_then(|(live, _)| {
                Some((live.observed_combos.as_deref()?, live.coverage.rows_at_fit))
            });
            let variables = &model.coverage.variables;
            model.observed_combos = observed_combos(&rows, g, variables, grown).map(Arc::new);
        }
        let stored = self.models.store(model);
        if !passed {
            return Err(CoreError::QualityRejected { r2, min_r2: self.quality.min_r2 });
        }
        Ok(stored)
    }

    /// The rows of `table` satisfying `predicate`, read the way a query
    /// reads them: optimized, priced and run by the executor, with zone
    /// pruning.
    fn covered_rows(&self, table: &str, predicate: &ScalarExpr) -> Result<Table> {
        let scan = LogicalPlan::Scan { table: table.to_string(), projection: None };
        let filter = LogicalPlan::Filter { input: Box::new(scan), predicate: predicate.clone() };
        let optimized = lawsdb_query::optimize::optimize(&filter);
        let plan = lawsdb_query::plan_physical(&self.tables, &optimized, &self.cost);
        Ok(lawsdb_query::execute_physical_with(&self.tables, &plan, &self.exec)?.table)
    }

    /// Append rows to a base table, invalidating dependent models
    /// (Section 4.1's data-change challenge). Returns the ids marked
    /// stale.
    ///
    /// Appends to one table apply one after another, and each costs
    /// O(batch) unless a reader holds the table's snapshot (see
    /// [`Catalog::append_rows`]).
    pub fn append_rows(&self, table_name: &str, batch: &[Column]) -> Result<Vec<ModelId>> {
        self.tables.append_rows(table_name, batch)?;
        Ok(self.models.invalidate_table(table_name))
    }

    /// Re-fit a stale model against the current data: stores a fresh
    /// version, retires the others, returns the new snapshot.
    ///
    /// A refit costs what changed. When the table only grew since the
    /// model was fitted — it extends the fitted version by appends — a
    /// grouped model fits again only the groups that have rows among
    /// the appended ones, and keeps every other group's parameters and
    /// residual figures. Apart from the appended rows, it reads only the
    /// touched groups' rows: once, for their fit and residual pass. The
    /// legal-combination filter is the live one extended by the appended
    /// rows (rebuilt when the row count crosses a power of two of its
    /// size), and the domains are the live ones when every appended
    /// value is already in them. A group's fit reads only its own rows,
    /// so the result equals a cold [`LawsDb::capture_model`] on the
    /// current table bit for bit, filter and domains included.
    /// Otherwise (the table was replaced, the model was loaded from a
    /// store, or it is global) every group is fitted over every row.
    ///
    /// `options` apply to the groups the refit fits. Untouched groups
    /// keep the live parameters whatever options they were fitted
    /// with, so to change the options for every group, capture again.
    pub fn refit(&self, id: ModelId, options: &RawFitOptions) -> Result<Arc<CapturedModel>> {
        let old = self.models.get(id)?;
        let fresh = self.capture(
            &old.coverage.table,
            &old.formula_source,
            old.params.group_column.as_deref(),
            old.coverage.predicate.as_deref(),
            options,
            Some(&old),
        )?;
        self.models.retire_others(fresh.id)?;
        Ok(fresh)
    }

    /// Total bytes of active model parameters (the "640 KB" side of the
    /// Table 1 accounting).
    pub fn model_parameter_bytes(&self) -> usize {
        self.models.active_parameter_bytes()
    }
}

/// The rows `table` gained since `model` was fitted: `None` unless
/// `model` is grouped, was fitted in this process, and `table` extends
/// the version it was fitted on.
fn appended_rows(model: &CapturedModel, table: &Table) -> Option<Table> {
    model.params.group_column.as_ref()?;
    let from = model.coverage.rows_at_fit;
    if !table.extends(model.table_version?, from) {
        return None;
    }
    table.slice(from, table.row_count() - from).ok()
}

/// The legal-combination filter of `table`'s rows under `group` and the
/// `variables`, sized to a power of two of
/// [`LEGAL_FILTER_BITS_PER_KEY`] bits per row. Given `grown`, a filter
/// of the table's first rows and their count, whose size the table's
/// rows keep, only the rows after those are inserted into a copy of it:
/// insertion ORs bits in, so that is the filter built over every row.
/// `None` when a column is not of the filter's types (integer keys,
/// float variables).
fn observed_combos(
    table: &Table,
    group: &str,
    variables: &[String],
    grown: Option<(&BloomFilter, usize)>,
) -> Option<BloomFilter> {
    let rows = table.row_count();
    let (mut filter, from) = match grown {
        Some((live, from)) if live.has_power_of_two_shape(rows, LEGAL_FILTER_BITS_PER_KEY) => {
            (live.clone(), from)
        }
        _ => (BloomFilter::with_power_of_two_bits(rows, LEGAL_FILTER_BITS_PER_KEY), 0),
    };
    let groups = table.column(group).ok()?.slice(from, rows - from).ok()?;
    let vars: Vec<&[f64]> = variables
        .iter()
        .map(|v| Some(&table.column(v).ok()?.f64_data().ok()?[from..]))
        .collect::<Option<_>>()?;
    filter.insert_rows(groups.i64_values().ok()?, &vars);
    Some(filter)
}

/// A coverage predicate may name only what the model's relation holds
/// besides the response: the group column and the variables. The model
/// leaf evaluates it over enumerated cells, which have nothing else.
fn check_coverage_columns(model: &CapturedModel, predicate: &ScalarExpr) -> Result<()> {
    let group = model.params.group_column.as_deref();
    let held = |c: &str| Some(c) == group || model.coverage.variables.iter().any(|v| v == c);
    for column in predicate.columns() {
        let plain = match column.split_once('.') {
            Some((t, c)) if t == model.coverage.table => c,
            _ => column.as_str(),
        };
        if !held(plain) {
            return Err(CoreError::CoverageColumn { column });
        }
    }
    Ok(())
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_storage::TableBuilder;

    fn lofar_db() -> LawsDb {
        lofar_db_of(&[(2.0, -0.7), (0.5, -1.2), (1.0, 0.3), (3.0, -0.5)])
    }

    /// A noise-free `measurements` table: source `s` follows the power
    /// law `laws[s]` over 40 rows at four frequencies.
    fn lofar_db_of(laws: &[(f64, f64)]) -> LawsDb {
        let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
        let mut src = Vec::new();
        let mut nu = Vec::new();
        let mut intensity = Vec::new();
        for (s, &(p, a)) in laws.iter().enumerate() {
            for i in 0..40 {
                src.push(s as i64);
                nu.push(freqs[i % 4]);
                intensity.push(p * freqs[i % 4].powf(a));
            }
        }
        let mut b = TableBuilder::new("measurements");
        b.add_i64("source", src);
        b.add_f64("nu", nu);
        b.add_f64("intensity", intensity);
        let db = LawsDb::new();
        db.register_table(b.build().unwrap()).unwrap();
        db
    }

    fn resilient(db: &LawsDb, sql: &str) -> ResilientAnswer {
        db.answer(sql, AnswerMode::Resilient, &db.exec).unwrap()
    }

    #[test]
    fn capture_then_zero_io_answers() {
        let db = lofar_db();
        let m = db
            .capture_model(
                "measurements",
                "intensity ~ p * nu ^ alpha",
                Some("source"),
                &RawFitOptions::default(),
            )
            .unwrap();
        assert!(m.overall_r2 > 0.99);
        let a = db
            .query_approx("SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15")
            .unwrap();
        assert_eq!(a.rows_scanned, 0);
        let got = a.table.column("intensity").unwrap().f64_data().unwrap()[0];
        assert!((got - 2.0 * 0.15_f64.powf(-0.7)).abs() < 1e-6);
    }

    #[test]
    fn transparent_query_falls_back_without_model() {
        let db = lofar_db();
        let sql = "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15";
        let ans = resilient(&db, sql).answer;
        assert!(!ans.is_approximate());
        assert!(ans.rows_scanned() > 0);
        // After capture, the same query goes zero-IO.
        db.capture_model(
            "measurements",
            "intensity ~ p * nu ^ alpha",
            Some("source"),
            &RawFitOptions::default(),
        )
        .unwrap();
        let ans = resilient(&db, sql).answer;
        assert!(ans.is_approximate());
        assert_eq!(ans.rows_scanned(), 0);
    }

    #[test]
    fn quality_gate_rejects_lawless_data() {
        let db = LawsDb::new();
        // Pure pseudo-noise: no power law to find.
        let mut b = TableBuilder::new("noise");
        let n = 200;
        b.add_i64("g", (0..n).map(|i| i % 4).collect());
        b.add_f64("x", (0..n).map(|i| 0.1 + (i % 10) as f64 * 0.05).collect());
        b.add_f64(
            "y",
            (0..n)
                .map(|i| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40) as f64)
                .collect(),
        );
        db.register_table(b.build().unwrap()).unwrap();
        let err = db
            .capture_model("noise", "y ~ a + b * x", Some("g"), &RawFitOptions::default())
            .unwrap_err();
        assert!(matches!(err, CoreError::QualityRejected { .. }), "{err}");
        // The rejected model is kept as Retired, and is not used.
        assert_eq!(db.models().len(), 1);
        assert!(db.query_approx("SELECT y FROM noise WHERE g = 0 AND x = 0.1").is_err());
    }

    #[test]
    fn append_invalidates_and_refit_restores() {
        let db = lofar_db();
        let m = db
            .capture_model(
                "measurements",
                "intensity ~ p * nu ^ alpha",
                Some("source"),
                &RawFitOptions::default(),
            )
            .unwrap();
        let stale = db
            .append_rows(
                "measurements",
                &[
                    Column::from_i64(vec![0]),
                    Column::from_f64(vec![0.15]),
                    Column::from_f64(vec![2.0 * 0.15_f64.powf(-0.7)]),
                ],
            )
            .unwrap();
        assert_eq!(stale, vec![m.id]);
        // Stale models no longer answer by default.
        assert!(db
            .query_approx("SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15")
            .is_err());
        let fresh = db.refit(m.id, &RawFitOptions::default()).unwrap();
        assert_ne!(fresh.id, m.id);
        assert_eq!(fresh.version, 2);
        assert!(db
            .query_approx("SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15")
            .is_ok());
        // Old model retired, not deleted.
        assert_eq!(db.models().get(m.id).unwrap().state, ModelState::Retired);
    }

    #[test]
    fn parameter_bytes_accounting() {
        let db = lofar_db();
        assert_eq!(db.model_parameter_bytes(), 0);
        db.capture_model(
            "measurements",
            "intensity ~ p * nu ^ alpha",
            Some("source"),
            &RawFitOptions::default(),
        )
        .unwrap();
        // 4 sources × (key + 2 params + rse) × 8.
        assert_eq!(db.model_parameter_bytes(), 4 * 4 * 8);
    }

    #[test]
    fn explain_prints_the_optimized_plan() {
        let db = lofar_db();
        let text = db
            .explain(
                "SELECT source, AVG(intensity) FROM measurements \
                 WHERE nu = 0.15 GROUP BY source ORDER BY source LIMIT 3",
            )
            .unwrap();
        let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
        assert!(lines[0].starts_with("Limit"));
        assert!(lines[1].starts_with("Sort"));
        assert!(lines[2].starts_with("Aggregate"));
        assert!(lines[3].starts_with("Filter"));
        // Scan pruning surfaced below the filter, projection pruning in
        // the scan node.
        assert!(lines[4].starts_with("Pruning [nu = 0.15] (exact)"), "{text}");
        assert!(lines[5].contains("Scan measurements [intensity, nu, source]"), "{text}");
    }

    #[test]
    fn capture_leaves_the_table_and_its_zones_in_place() {
        let db = lofar_db();
        let before = db.table("measurements").unwrap();
        let formula = "intensity ~ p * nu ^ alpha";
        db.capture_model("measurements", formula, Some("source"), &RawFitOptions::default())
            .unwrap();
        let partial = RawFitOptions::default().with_initial("alpha", -0.7);
        db.capture_model_where("measurements", formula, Some("source"), "nu >= 0.16", &partial)
            .unwrap();
        assert!(Arc::ptr_eq(&before, &db.table("measurements").unwrap()));
        // An exact scan the data zones refute does no per-row work…
        let r = db.query("SELECT intensity FROM measurements WHERE intensity > 1000").unwrap();
        assert_eq!(r.table.row_count(), 0);
        assert!(r.scan_stats.pages_pruned_zonemap > 0, "{:?}", r.scan_stats);
        // …and an unfiltered aggregate of the response reads no page.
        let r = db.query("SELECT SUM(intensity) AS s FROM measurements").unwrap();
        assert_eq!(r.scan_stats.pages_total, 0, "{:?}", r.scan_stats);
        assert!(r.scan_stats.zones_agg_synopsis > 0, "{:?}", r.scan_stats);
    }

    #[test]
    fn partial_model_is_clipped_to_its_coverage() {
        let db = lofar_db();
        // Fit only on the upper two bands.
        let m = db
            .capture_model_where(
                "measurements",
                "intensity ~ p * nu ^ alpha",
                Some("source"),
                "nu >= 0.16",
                &RawFitOptions::default().with_initial("alpha", -0.7),
            )
            .unwrap();
        assert_eq!(m.coverage.predicate.as_deref(), Some("nu >= 0.16"));
        // Covered point: answered.
        let a = db
            .query_approx("SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.18")
            .unwrap();
        assert_eq!(a.table.row_count(), 1);
        // Uncovered point: refused, not extrapolated.
        assert!(db
            .query_approx("SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.12")
            .is_err());
        // Enumeration only reconstructs the covered bands (domains were
        // captured from the filtered subset).
        let e = db.query_approx("SELECT source, nu, intensity FROM measurements").unwrap();
        let nus = e.table.column("nu").unwrap().f64_data().unwrap();
        assert!(nus.iter().all(|&v| v >= 0.16), "{nus:?}");
        assert_eq!(e.table.row_count(), 4 * 2); // 4 sources × {0.16, 0.18}
    }

    #[test]
    fn a_partial_models_coverage_is_a_filter_above_its_leaf() {
        let db = lofar_db();
        let options = RawFitOptions::default().with_initial("alpha", -0.7);
        let formula = "intensity ~ p * nu ^ alpha";
        db.capture_model_where("measurements", formula, Some("source"), "nu >= 0.16", &options)
            .unwrap();
        let sql = "SELECT source, intensity FROM measurements WHERE source < 2";
        let text = db.explain(sql).unwrap();
        let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
        let leaf = lines.iter().position(|l| l.starts_with("ModelScan")).unwrap();
        assert!(lines[leaf - 1].starts_with("Filter (nu >= 0.16)"), "{text}");
        // The statement's own filter stays where it was, above.
        assert!(lines[leaf - 2].starts_with("Filter (source < 2)"), "{text}");
    }

    #[test]
    fn coverage_naming_a_column_outside_the_relation_is_refused() {
        let t = lofar_db().table("measurements").unwrap();
        let mut b = TableBuilder::new("measurements");
        for name in ["source", "nu", "intensity"] {
            b.add_column(t.schema().field(name).unwrap().clone(), t.column(name).unwrap().clone());
        }
        b.add_i64("flag", vec![0; t.row_count()]);
        let db = LawsDb::new();
        db.register_table(b.build().unwrap()).unwrap();
        let options = RawFitOptions::default().with_initial("alpha", -0.7);
        let formula = "intensity ~ p * nu ^ alpha";
        for (coverage, column) in [
            ("flag = 0", "flag"),
            ("intensity > 0.5", "intensity"),
            ("nu >= 0.12 AND measurements.flag = 0", "measurements.flag"),
        ] {
            let err = db
                .capture_model_where("measurements", formula, Some("source"), coverage, &options)
                .unwrap_err();
            assert_eq!(err, CoreError::CoverageColumn { column: column.to_string() }, "{coverage}");
        }
        assert!(db.models().is_empty());
        // The group column and the variables, qualified or not, are fine.
        let covered = "source < 3 AND measurements.nu >= 0.15";
        db.capture_model_where("measurements", formula, Some("source"), covered, &options)
            .unwrap();
        let a = resilient(&db, "SELECT source, nu, intensity FROM measurements").answer;
        assert!(a.is_approximate());
        assert_eq!(a.table().row_count(), 3 * 3);
    }

    #[test]
    fn a_partial_model_gets_the_drift_check() {
        let db = lofar_db();
        let m = db
            .capture_model_where(
                "measurements",
                "intensity ~ p * nu ^ alpha",
                Some("source"),
                "nu >= 0.15",
                &RawFitOptions::default().with_initial("alpha", -0.7),
            )
            .unwrap();
        let sql = "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15";
        assert!(resilient(&db, sql).answer.is_approximate());
        replace_measurements(&db, 10.0, None);
        let r = resilient(&db, sql);
        assert!(!r.answer.is_approximate(), "a drifted partial model must not answer");
        match r.degraded.as_slice() {
            [DegradeReason::ResidualDrift { model, .. }] => assert_eq!(*model, m.id),
            other => panic!("expected ResidualDrift, got {other:?}"),
        }
    }

    #[test]
    fn a_narrow_coverage_gets_the_drift_check_under_every_seed() {
        // Coverage `source = 3` holds 1/16 of the rows: one round of 16
        // sampled rows misses it about a third of the time.
        let laws: Vec<(f64, f64)> =
            (0..16).map(|s| (1.0 + s as f64, -0.5 - 0.05 * s as f64)).collect();
        let db = lofar_db_of(&laws);
        let options = RawFitOptions::default().with_initial("alpha", -0.7);
        let formula = "intensity ~ p * nu ^ alpha";
        let capture = || {
            db.capture_model_where("measurements", formula, Some("source"), "source = 3", &options)
        };
        let ids: Vec<ModelId> = (0..20).map(|_| capture().unwrap().id).collect();
        replace_measurements(&db, 10.0, None);
        let sql = "SELECT intensity FROM measurements WHERE source = 3 AND nu = 0.15";
        // Each model answers alone in turn, so each draws under its own
        // seed (the fault seed XOR its id).
        for &id in &ids {
            for &other in &ids {
                let state = if other == id { ModelState::Active } else { ModelState::Retired };
                db.models().set_state(other, state).unwrap();
            }
            let r = resilient(&db, sql);
            assert!(!r.answer.is_approximate(), "model {id:?} answered from drifted data");
            match r.degraded.as_slice() {
                [DegradeReason::ResidualDrift { model, .. }] => assert_eq!(*model, id),
                other => panic!("model {id:?}: expected ResidualDrift, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_partial_models_legal_filter_is_built_over_its_covered_rows() {
        // `source = 3` covers a tenth of the rows.
        let laws: Vec<(f64, f64)> =
            (0..10).map(|s| (1.0 + s as f64, -0.5 - 0.05 * s as f64)).collect();
        let db = lofar_db_of(&laws);
        let formula = "intensity ~ p * nu ^ alpha";
        let options = RawFitOptions::default();
        let over_covered = |m: &CapturedModel| {
            let table = db.table("measurements").unwrap();
            let source = table.column("source").unwrap().i64_values().unwrap();
            let rows: Vec<usize> =
                source.enumerate().filter(|(_, k)| *k == Some(3)).map(|(r, _)| r).collect();
            let covered = table.take(&rows).unwrap();
            observed_combos(&covered, "source", &m.coverage.variables, None).unwrap()
        };
        let m = db
            .capture_model_where("measurements", formula, Some("source"), "source = 3", &options)
            .unwrap();
        assert_eq!(m.params.keys, [3]);
        assert_eq!(m.observed_combos.as_deref(), Some(&over_covered(&m)));
        // A refit after an append builds it again over the covered rows.
        let batch = [
            Column::from_i64(vec![3; 10].into_iter().chain([7; 10]).collect()),
            Column::from_f64(vec![0.15; 20]),
            Column::from_f64(vec![4.0 * 0.15_f64.powf(-0.65); 20]),
        ];
        db.append_rows("measurements", &batch).unwrap();
        let refit = db.refit(m.id, &options).unwrap();
        assert_eq!(refit.observed_combos.as_deref(), Some(&over_covered(&refit)));
        assert_eq!(db.models().get(refit.id).unwrap().state, ModelState::Active);
    }

    #[test]
    fn unknown_table_errors() {
        let db = LawsDb::new();
        assert!(db.table("zz").is_err());
        assert!(db
            .capture_model("zz", "y ~ a + b * x", None, &RawFitOptions::default())
            .is_err());
        assert!(db.append_rows("zz", &[]).is_err());
    }

    /// Swap the measurements table for one with `intensity` rescaled by
    /// `scale`, keeping (or truncating to) `rows` rows — a data change
    /// that bypasses the engine's invalidation hooks, exactly what the
    /// freshness guard exists to catch.
    fn replace_measurements(db: &LawsDb, scale: f64, rows: Option<usize>) {
        let t = db.table("measurements").unwrap();
        let n = rows.unwrap_or(t.row_count());
        let src = t.column("source").unwrap().i64_data().unwrap()[..n].to_vec();
        let nu = t.column("nu").unwrap().f64_data().unwrap()[..n].to_vec();
        let intensity: Vec<f64> = t.column("intensity").unwrap().f64_data().unwrap()[..n]
            .iter()
            .map(|v| v * scale)
            .collect();
        let mut b = TableBuilder::new("measurements");
        b.add_i64("source", src);
        b.add_f64("nu", nu);
        b.add_f64("intensity", intensity);
        db.tables().replace(b.build().unwrap());
    }

    #[test]
    fn resilient_query_prefers_the_model_when_fresh() {
        let db = lofar_db();
        db.capture_model(
            "measurements",
            "intensity ~ p * nu ^ alpha",
            Some("source"),
            &RawFitOptions::default(),
        )
        .unwrap();
        let sql = "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15";
        let r = resilient(&db, sql);
        assert!(r.answer.is_approximate());
        assert!(r.degraded.is_empty());
        let h = db.health();
        assert_eq!(h.approx_answers, 1);
        assert_eq!(h.exact_fallbacks, 0);
    }

    #[test]
    fn a_model_answer_honours_the_callers_cancel_token() {
        let db = lofar_db();
        let formula = "intensity ~ p * nu ^ alpha";
        db.capture_model("measurements", formula, Some("source"), &RawFitOptions::default())
            .unwrap();
        let cancel = lawsdb_query::CancelToken::new();
        cancel.cancel();
        let exec = ExecOptions { cancel: Some(cancel), threads: 1, ..db.exec.clone() };
        for sql in [
            "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15",
            "SELECT AVG(intensity) FROM measurements WHERE nu = 0.15",
        ] {
            // The model covers both, so the model rung runs, and stops.
            assert!(resilient(&db, sql).answer.is_approximate(), "{sql}");
            let err = db.answer(sql, AnswerMode::Resilient, &exec).unwrap_err();
            let cancelled = matches!(err, CoreError::Query(lawsdb_query::QueryError::Cancelled));
            assert!(cancelled, "{sql}: {err}");
        }
    }

    #[test]
    fn residual_drift_demotes_the_model_and_answers_exactly() {
        let db = lofar_db();
        let m = db
            .capture_model(
                "measurements",
                "intensity ~ p * nu ^ alpha",
                Some("source"),
                &RawFitOptions::default(),
            )
            .unwrap();
        // Rescale the data under the model at constant row count.
        replace_measurements(&db, 10.0, None);
        let sql = "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15";
        let r = resilient(&db, sql);
        assert!(!r.answer.is_approximate(), "drifted model must not answer");
        match r.degraded.as_slice() {
            [DegradeReason::ResidualDrift { model, observed, bound, .. }] => {
                assert_eq!(*model, m.id);
                assert!(observed > bound);
            }
            other => panic!("expected ResidualDrift, got {other:?}"),
        }
        // The exact answer reflects the new data.
        let got = match &r.answer {
            Answer::Exact(q) => q.table.column("intensity").unwrap().f64_data().unwrap()[0],
            Answer::Approx(_) => unreachable!(),
        };
        assert!((got - 10.0 * 2.0 * 0.15_f64.powf(-0.7)).abs() < 1e-6);
        // Demotion is durable: the model is Stale and the next query
        // degrades with NoModel instead of re-running the drift check.
        assert_eq!(db.models().get(m.id).unwrap().state, ModelState::Stale);
        let again = resilient(&db, sql);
        assert!(matches!(again.degraded.as_slice(), [DegradeReason::NoModel { .. }]));
        let h = db.health();
        assert_eq!(h.drift_demotions, 1);
        assert_eq!(h.exact_fallbacks, 2);
        assert_eq!(h.approx_answers, 0);
    }

    #[test]
    fn row_count_mismatch_demotes_the_model() {
        let db = lofar_db();
        let m = db
            .capture_model(
                "measurements",
                "intensity ~ p * nu ^ alpha",
                Some("source"),
                &RawFitOptions::default(),
            )
            .unwrap();
        // Values untouched, but four rows vanish behind the engine's
        // back — the residual check alone would not notice.
        replace_measurements(&db, 1.0, Some(156));
        let r = resilient(&db, "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15");
        assert!(!r.answer.is_approximate());
        match r.degraded.as_slice() {
            [DegradeReason::StaleRowCount { model, rows_at_fit, rows_now }] => {
                assert_eq!(*model, m.id);
                assert_eq!(*rows_at_fit, 160);
                assert_eq!(*rows_now, 156);
            }
            other => panic!("expected StaleRowCount, got {other:?}"),
        }
        assert_eq!(db.models().get(m.id).unwrap().state, ModelState::Stale);
        assert_eq!(db.health().stale_demotions, 1);
    }

    #[test]
    fn no_model_fallback_is_counted_but_not_a_demotion() {
        let db = lofar_db();
        let r = resilient(&db, "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15");
        assert!(!r.answer.is_approximate());
        assert!(matches!(r.degraded.as_slice(), [DegradeReason::NoModel { .. }]));
        let h = db.health();
        assert_eq!(h.exact_fallbacks, 1);
        assert_eq!(h.stale_demotions + h.drift_demotions, 0);
    }

    #[test]
    fn plan_cache_reuses_plans_within_a_stats_epoch() {
        let db = lofar_db();
        let sql = "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15";
        db.query(sql).unwrap();
        assert_eq!((db.plan_cache().hit_count(), db.plan_cache().miss_count()), (0, 1));
        db.query(sql).unwrap();
        assert_eq!((db.plan_cache().hit_count(), db.plan_cache().miss_count()), (1, 1));
        // Spelling variants normalize to the same cache entry.
        db.query("SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15").unwrap();
        assert_eq!(db.plan_cache().hit_count(), 2);
        // The counters surface in the engine's Prometheus export.
        let prom = db.stats_prometheus();
        assert!(prom.contains("lawsdb_query_plan_cache_hit 2"), "{prom}");
        assert!(prom.contains("lawsdb_query_plan_cache_miss 1"), "{prom}");
    }

    #[test]
    fn appending_rows_invalidates_cached_plans() {
        let db = lofar_db();
        let sql = "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15";
        db.query(sql).unwrap();
        let epoch = db.stats_epoch();
        db.append_rows(
            "measurements",
            &[
                Column::from_i64(vec![0]),
                Column::from_f64(vec![0.15]),
                Column::from_f64(vec![2.0 * 0.15_f64.powf(-0.7)]),
            ],
        )
        .unwrap();
        assert!(db.stats_epoch() > epoch, "table change must move the stats epoch");
        // The cached plan was priced against a 160-row table; the
        // epoch mismatch forces a re-plan instead of a reuse.
        db.query(sql).unwrap();
        assert_eq!((db.plan_cache().hit_count(), db.plan_cache().miss_count()), (0, 2));
    }

    #[test]
    fn stale_epoch_evictions_surface_in_prometheus() {
        let db = lofar_db();
        let sql = "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15";
        db.query(sql).unwrap();
        db.append_rows(
            "measurements",
            &[
                Column::from_i64(vec![0]),
                Column::from_f64(vec![0.15]),
                Column::from_f64(vec![2.0 * 0.15_f64.powf(-0.7)]),
            ],
        )
        .unwrap();
        db.query(sql).unwrap();
        assert_eq!(db.plan_cache().eviction_count(), 1);
        let prom = db.stats_prometheus();
        assert!(prom.contains("lawsdb_query_plan_cache_evictions 1"), "{prom}");
    }

    #[test]
    fn aggregate_pushdown_survives_appends_through_the_plan_cache() {
        let db = lofar_db();
        let sql = "SELECT COUNT(*) AS n, SUM(intensity) AS s FROM measurements";
        let r = db.query(sql).unwrap();
        assert_eq!(r.table.row(0).unwrap()[0], lawsdb_storage::Value::Int(160));
        assert!(
            r.scan_stats.zones_agg_synopsis > 0,
            "unfiltered aggregate must answer from zone partials: {:?}",
            r.scan_stats
        );
        // Appends move the stats epoch: the cached plan (and its zone
        // partials) must not leak into the post-append answer.
        db.append_rows(
            "measurements",
            &[
                Column::from_i64(vec![9]),
                Column::from_f64(vec![0.15]),
                Column::from_f64(vec![1.0]),
            ],
        )
        .unwrap();
        let r = db.query(sql).unwrap();
        assert_eq!(r.table.row(0).unwrap()[0], lawsdb_storage::Value::Int(161));
        assert_eq!((db.plan_cache().hit_count(), db.plan_cache().miss_count()), (0, 2));
        // The pushdown counter surfaces through the shared registry.
        let prom = db.stats_prometheus();
        assert!(prom.contains("lawsdb_query_zones_agg_synopsis"), "{prom}");
        let line = prom
            .lines()
            .find(|l| l.starts_with("lawsdb_query_zones_agg_synopsis"))
            .unwrap();
        let count: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        assert!(count >= 2, "both queries pushed at least one zone: {line}");
    }

    #[test]
    fn model_catalog_changes_invalidate_cached_plans() {
        let db = lofar_db();
        let sql = "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15";
        db.query(sql).unwrap();
        let epoch = db.stats_epoch();
        // Capturing a model changes what the ladder may assume (approx
        // coverage), so the epoch moves even though no base rows
        // changed and the table is untouched.
        let m = db
            .capture_model(
                "measurements",
                "intensity ~ p * nu ^ alpha",
                Some("source"),
                &RawFitOptions::default(),
            )
            .unwrap();
        assert!(db.stats_epoch() != epoch, "model capture must move the stats epoch");
        db.query(sql).unwrap();
        assert_eq!((db.plan_cache().hit_count(), db.plan_cache().miss_count()), (0, 2));
        // Demoting the model (refit/degrade path) moves it again.
        let epoch = db.stats_epoch();
        db.models().set_state(m.id, ModelState::Stale).unwrap();
        assert!(db.stats_epoch() != epoch, "model demotion must move the stats epoch");
        db.query(sql).unwrap();
        assert_eq!((db.plan_cache().hit_count(), db.plan_cache().miss_count()), (0, 3));
    }

    #[test]
    fn adaptive_query_answers_exactly_without_models() {
        let db = lofar_db();
        let sql = "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15";
        let a = db.answer(sql, AnswerMode::Adaptive, &db.exec).unwrap().answer;
        assert!(!a.is_approximate());
        assert!(a.rows_scanned() > 0);
    }

    /// Sources interleaved round-robin, so every zone spans the full
    /// key range and zone maps cannot rescue the exact scan: the costed
    /// plan reads all 16k rows, while the model reconstructs an
    /// estimated handful of tuples. Returns the captured model too.
    fn interleaved_db() -> (LawsDb, Arc<CapturedModel>) {
        let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
        let sources = 100usize;
        let rounds = 160usize;
        let mut src = Vec::new();
        let mut nu = Vec::new();
        let mut intensity = Vec::new();
        for i in 0..sources * rounds {
            let s = i % sources;
            let f = freqs[(i / sources) % 4];
            let p = 0.5 + s as f64 * 0.05;
            src.push(s as i64);
            nu.push(f);
            intensity.push(p * f.powf(-0.7));
        }
        let mut b = TableBuilder::new("measurements");
        b.add_i64("source", src);
        b.add_f64("nu", nu);
        b.add_f64("intensity", intensity);
        let db = LawsDb::new();
        db.register_table(b.build().unwrap()).unwrap();
        let m = db
            .capture_model(
                "measurements",
                "intensity ~ p * nu ^ alpha",
                Some("source"),
                &RawFitOptions::default(),
            )
            .unwrap();
        (db, m)
    }

    const INTERLEAVED_POINT: &str =
        "SELECT intensity FROM measurements WHERE source = 50 AND nu = 0.15";

    #[test]
    fn adaptive_query_prefers_the_model_when_the_scan_is_expensive() {
        let (db, _) = interleaved_db();
        let plan = db.physical_plan(INTERLEAVED_POINT).unwrap();
        let est = plan.root_estimate();
        let model_cost = db.cost.model_answer_cost_us(est.rows);
        assert!(
            model_cost <= est.cost_us,
            "model path ({model_cost:.1}us) should undercut the scan ({:.1}us)",
            est.cost_us
        );
        let r = db.answer(INTERLEAVED_POINT, AnswerMode::Adaptive, &db.exec).unwrap();
        assert!(r.answer.is_approximate());
        assert_eq!(r.answer.rows_scanned(), 0);
        assert!(r.degraded.is_empty());
        assert_eq!(db.health().approx_answers, 1);
    }

    #[test]
    fn adaptive_query_demotes_a_stale_model_once() {
        let (db, m) = interleaved_db();
        // Rows arrive behind the engine's invalidation hook: the model
        // stays Active while the table outgrows it.
        let mut grown = (*db.table("measurements").unwrap()).clone();
        grown
            .append_rows(&[
                Column::from_i64(vec![50]),
                Column::from_f64(vec![0.15]),
                Column::from_f64(vec![3.0 * 0.15_f64.powf(-0.7)]),
            ])
            .unwrap();
        db.tables().replace(grown);
        let r = db.answer(INTERLEAVED_POINT, AnswerMode::Adaptive, &db.exec).unwrap();
        assert!(!r.answer.is_approximate(), "stale model must not answer");
        match r.degraded.as_slice() {
            [DegradeReason::StaleRowCount { model, rows_at_fit, rows_now }] => {
                assert_eq!(*model, m.id);
                assert_eq!((*rows_at_fit, *rows_now), (16_000, 16_001));
            }
            other => panic!("expected StaleRowCount, got {other:?}"),
        }
        assert_eq!(db.models().get(m.id).unwrap().state, ModelState::Stale);
        // The demotion sticks: the second call never reaches the
        // freshness guard again.
        let again = db.answer(INTERLEAVED_POINT, AnswerMode::Adaptive, &db.exec).unwrap();
        assert!(!again.answer.is_approximate());
        assert!(matches!(again.degraded.as_slice(), [DegradeReason::NoModel { .. }]));
        let h = db.health();
        assert_eq!(h.stale_demotions, 1);
        assert_eq!(h.exact_fallbacks, 2);
        assert_eq!(h.approx_answers, 0);
    }
}
