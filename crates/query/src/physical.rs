//! Logical→physical planning.
//!
//! The heuristic optimizer ([`crate::optimize`]) rewrites the logical
//! tree; this pass then prices it. For every node it derives an
//! [`Estimate`] (output cardinality + cumulative cost in µs) from
//! zonemap selectivity statistics and the per-operator constants in
//! [`CostConstants`], and for `Filter`-over-`Scan` pipelines it
//! additionally:
//!
//! - walks the table synopsis zone-by-zone to build an [`AccessPlan`]
//!   (how many zones will be skipped outright, accepted wholesale from
//!   their bounds, or evaluated row-at-a-time), pricing
//!   exact page scans against the accept/skip paths the pruner exposes;
//! - reorders AND-connected conjuncts most-selective-first (stable on
//!   ties), so the executor's short-circuit evaluation drops rows as
//!   early as possible. SQL `AND` is Kleene: commutative and
//!   associative over `(truth, known)` masks, so any reordering is
//!   result-preserving — the root package's `tests/equivalence.rs`
//!   driver holds every priced plan to the naive interpreter's bits.
//!
//! The result, [`PhysicalPlan`], is the logical plan plus a note table:
//! the tree the executor runs (conjuncts in priced order) and one
//! [`PlanNote`] per node in preorder. EXPLAIN is the logical plan's own
//! renderer with each note appended to its line. It is the unit cached
//! by [`crate::plan_cache::PlanCache`].

use crate::cost::CostConstants;
use crate::error::Result;
use crate::exec::{execute_plan_with, QueryResult};
use crate::model_scan::ModelPlan;
use crate::morsel::ExecOptions;
use crate::plan::{AggSpec, LogicalPlan};
use crate::pruning::{PruningConjunct, PruningPredicate, ScanStats, ZoneDecision};
use crate::sexpr::ScalarExpr;
use lawsdb_approx::ApproxError;
use lawsdb_storage::Catalog;
use std::sync::{Arc, OnceLock};

/// Selectivity assumed for conjuncts the synopsis cannot estimate
/// (non-sargable residuals, unknown columns).
pub const DEFAULT_SELECTIVITY: f64 = 0.25;

/// Cardinality and cumulative cost estimate for one plan node.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Estimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated cumulative cost (this node plus its inputs), µs.
    pub cost_us: f64,
}

/// Zone-level access path for a pruned scan, computed at plan time by
/// replaying [`PruningPredicate::plan_range`] against the synopsis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccessPlan {
    /// Zone-aligned chunks the executor will evaluate row-at-a-time.
    pub zones_eval: usize,
    /// Chunks accepted wholesale from their bounds.
    pub zones_accept: usize,
    /// Chunks skipped by their zone map.
    pub zones_skip: usize,
    /// Rows inside Eval chunks.
    pub rows_eval: usize,
    /// Rows inside AcceptAll chunks.
    pub rows_accept: usize,
    /// Rows never touched at all.
    pub rows_skipped: usize,
}

impl AccessPlan {
    /// Total zone-aligned chunks consulted.
    pub fn zones_total(&self) -> usize {
        self.zones_eval + self.zones_accept + self.zones_skip
    }

    /// Compact render folded into the EXPLAIN Pruning line.
    fn describe(&self) -> String {
        format!(
            "zones[eval={} accept={} skip={}]",
            self.zones_eval, self.zones_accept, self.zones_skip
        )
    }
}

/// Plan-time estimate of the zone-aggregate pushdown path: for eligible
/// global aggregates, zones the pruner accepts wholesale answer from
/// their materialized [`ZoneAgg`](lawsdb_storage::zonemap::ZoneAgg)
/// partials (constant work per zone, zero page reads) while residual
/// `Eval` zones run the fused filter+aggregate kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ZoneAggPath {
    /// Zones expected to substitute materialized partials.
    pub zones_pushed: usize,
    /// Rows expected to run the fused scan kernel instead.
    pub rows_fused: usize,
}

impl ZoneAggPath {
    /// Compact render appended to the EXPLAIN Aggregate line.
    fn describe(&self) -> String {
        format!("zone_agg[push={} fused_rows={}]", self.zones_pushed, self.rows_fused)
    }
}

/// What pricing adds to a `Filter` node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterNote {
    /// Combined estimated selectivity of all conjuncts.
    pub selectivity: f64,
    /// Zone access path when the input is a base scan with a synopsis.
    pub access: Option<AccessPlan>,
    /// True when costing changed the conjunct order.
    pub reordered: bool,
}

/// What pricing knows about one plan node. Every node has an estimate;
/// filters add a [`FilterNote`], aggregates a [`ZoneAggPath`] when the
/// query shape and the scanned table's synopsis make one available.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanNote {
    /// Output cardinality and cumulative cost.
    pub est: Estimate,
    /// Set on `Filter` nodes.
    pub filter: Option<FilterNote>,
    /// Set on pushdown-eligible `Aggregate` nodes.
    pub zone_agg: Option<ZoneAggPath>,
}

impl From<Estimate> for PlanNote {
    fn from(est: Estimate) -> PlanNote {
        PlanNote { est, filter: None, zone_agg: None }
    }
}

impl PlanNote {
    /// EXPLAIN suffixes for this node's line and for its Pruning line
    /// (see [`LogicalPlan::explain_annotated`]).
    fn suffixes(&self) -> (String, String) {
        let Estimate { rows, cost_us } = self.est;
        let mut line = format!(" · est_rows={rows:.0} est_cost={cost_us:.1}us");
        let mut pruning = String::new();
        if let Some(f) = &self.filter {
            line.push_str(&format!(" sel={:.3}", f.selectivity));
            if f.reordered {
                line.push_str(" (reordered)");
            }
            if let Some(a) = &f.access {
                pruning = format!(" {}", a.describe());
            }
        }
        if let Some(z) = &self.zone_agg {
            line.push_str(&format!(" {}", z.describe()));
        }
        (line, pruning)
    }
}

/// A costed physical plan, ready to execute or cache: the optimized
/// logical tree the executor runs — filter conjuncts already in priced
/// order — plus one [`PlanNote`] per node, in preorder. It also carries,
/// once asked for, the statement's model alternative under the same
/// cache entry: the tree lowered onto a model leaf, or why no model can
/// stand in.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    logical: LogicalPlan,
    notes: Vec<PlanNote>,
    model: OnceLock<std::result::Result<Arc<ModelPlan>, ApproxError>>,
}

impl PhysicalPlan {
    /// The root node's estimate.
    pub fn root_estimate(&self) -> Estimate {
        self.notes[0].est
    }

    /// The logical tree the executor runs.
    pub fn logical(&self) -> &LogicalPlan {
        &self.logical
    }

    /// Per-node notes, indexed by the node's preorder position in
    /// [`Self::logical`] (a join's left subtree precedes its right).
    pub fn notes(&self) -> &[PlanNote] {
        &self.notes
    }

    /// EXPLAIN text: the logical plan's own rendering with each node's
    /// note appended to its line.
    pub fn explain(&self) -> String {
        self.logical.explain_annotated(Some(&|i| self.notes[i].suffixes()))
    }

    /// The statement's model alternative. `lower` runs on the first
    /// request only ([`ModelPlan::lower`]); every later request on this
    /// plan reuses its outcome, so exact-only traffic never pays for it.
    pub fn model_plan(
        &self,
        lower: impl FnOnce() -> std::result::Result<ModelPlan, ApproxError>,
    ) -> std::result::Result<&ModelPlan, ApproxError> {
        self.model.get_or_init(|| lower().map(Arc::new)).as_deref().map_err(Clone::clone)
    }
}

/// Price a (heuristically optimized) logical plan against the catalog's
/// current statistics. Infallible by design: unknown tables or missing
/// synopses degrade to default estimates, never to planning errors —
/// execution reports those.
pub fn plan_physical(catalog: &Catalog, plan: &LogicalPlan, consts: &CostConstants) -> PhysicalPlan {
    let mut logical = plan.clone();
    let mut notes = Vec::new();
    price_node(catalog, &mut logical, consts, &mut notes);
    PhysicalPlan { logical, notes, model: OnceLock::new() }
}

/// Execute a physical plan. Estimates ride along into the profile (one
/// `plan.estimate` point) so `explain_analyze` can show estimated vs
/// actual cost side by side.
pub fn execute_physical_with(
    catalog: &Catalog,
    plan: &PhysicalPlan,
    opts: &ExecOptions,
) -> Result<QueryResult> {
    if let Some(ctx) = &opts.profile {
        let est = plan.root_estimate();
        ctx.point(
            "plan.estimate",
            vec![
                ("est_rows", (est.rows.max(0.0).round() as u64).into()),
                ("est_cost_us", (est.cost_us.max(0.0).round() as u64).into()),
            ],
        );
    }
    execute_plan_with(catalog, plan.logical(), opts)
}

/// Price `node` and everything below it, appending one note per node in
/// preorder; returns the node's own estimate. The only edit to the tree
/// is [`price_filter`] putting conjuncts in priced order.
fn price_node(
    catalog: &Catalog,
    node: &mut LogicalPlan,
    consts: &CostConstants,
    notes: &mut Vec<PlanNote>,
) -> Estimate {
    let at = notes.len();
    notes.push(PlanNote::default());
    let note = match node {
        LogicalPlan::Scan { table, .. } => {
            let rows = catalog.get(table).map(|t| t.row_count()).unwrap_or(0) as f64;
            Estimate { rows, cost_us: rows * consts.scan_tuple_us }.into()
        }
        LogicalPlan::EmptyScan { .. } => PlanNote::default(),
        LogicalPlan::ModelScan(m) => {
            let cells = m.cells as f64;
            Estimate { rows: cells, cost_us: consts.model_answer_cost_us(cells) }.into()
        }
        LogicalPlan::Join { left, right, .. } => {
            let le = price_node(catalog, left, consts, notes);
            let re = price_node(catalog, right, consts, notes);
            // Equi-join proxy: at most one match per probe row.
            let rows = le.rows.min(re.rows);
            let cost_us = le.cost_us
                + re.cost_us
                + (le.rows + re.rows) * consts.agg_tuple_us
                + rows * consts.accept_tuple_us;
            Estimate { rows, cost_us }.into()
        }
        LogicalPlan::Filter { input, predicate } => {
            let ie = price_node(catalog, input, consts, notes);
            price_filter(catalog, input, predicate, ie, consts)
        }
        LogicalPlan::Aggregate { input, group_by, aggs } => {
            let ie = price_node(catalog, input, consts, notes);
            let rows =
                if group_by.is_empty() { 1.0 } else { ie.rows.sqrt().ceil().max(1.0) };
            // A unary node's input is the next note in preorder.
            let access = notes[at + 1].filter.and_then(|f| f.access);
            let zone_agg = price_zone_agg(catalog, input, access, group_by, aggs);
            let n_aggs = aggs.len().max(1) as f64;
            // Price zone-aggregate vs row-scan per zone: pushed units
            // cost one constant fold each; only fused-kernel rows pay
            // per-row aggregation. A bare scan under a fully pushed
            // aggregate is elided entirely (the paper's zero-IO path),
            // so its cost drops out; a filtered input keeps its pruned
            // scan cost since Eval zones still materialize.
            let cost_us = match &zone_agg {
                Some(z) => {
                    let bare_scan = matches!(**input, LogicalPlan::Scan { .. });
                    let scan = if bare_scan { 0.0 } else { ie.cost_us };
                    scan + z.zones_pushed as f64 * consts.agg_zone_fold_us
                        + z.rows_fused as f64 * n_aggs * consts.agg_tuple_us
                }
                None => ie.cost_us + ie.rows * n_aggs * consts.agg_tuple_us,
            };
            PlanNote { est: Estimate { rows, cost_us }, filter: None, zone_agg }
        }
        LogicalPlan::Project { input, exprs, .. } => {
            let ie = price_node(catalog, input, consts, notes);
            let cost_us = ie.cost_us + ie.rows * exprs.len() as f64 * consts.eval_tuple_us;
            Estimate { rows: ie.rows, cost_us }.into()
        }
        LogicalPlan::Distinct { input } => {
            let ie = price_node(catalog, input, consts, notes);
            Estimate {
                rows: ie.rows.sqrt().ceil().max(1.0).min(ie.rows.max(1.0)),
                cost_us: ie.cost_us + ie.rows * consts.agg_tuple_us,
            }
            .into()
        }
        LogicalPlan::Sort { input, .. } => {
            let ie = price_node(catalog, input, consts, notes);
            let cost_us =
                ie.cost_us + ie.rows * (ie.rows + 2.0).log2() * consts.sort_tuple_us;
            Estimate { rows: ie.rows, cost_us }.into()
        }
        LogicalPlan::Limit { input, n } => {
            let ie = price_node(catalog, input, consts, notes);
            let rows = ie.rows.min(*n as f64);
            Estimate { rows, cost_us: ie.cost_us + rows * consts.accept_tuple_us }.into()
        }
    };
    notes[at] = note;
    note.est
}

/// One AND-connected conjunct with its costing metadata.
struct ConjunctInfo {
    expr: ScalarExpr,
    /// Present when the conjunct alone is an exact sargable comparison.
    sargable: Option<PruningConjunct>,
    /// Estimated selectivity (DEFAULT_SELECTIVITY when unknowable).
    selectivity: f64,
    /// Position in the original predicate (stable tie-break).
    index: usize,
}

/// Price a filter whose input (already priced at `ie`) is `input`, and
/// put its conjuncts in priced order in place.
fn price_filter(
    catalog: &Catalog,
    input: &LogicalPlan,
    predicate: &mut ScalarExpr,
    ie: Estimate,
    consts: &CostConstants,
) -> PlanNote {
    // Synopsis of the base table, when the filter sits on a scan.
    let scanned = match input {
        LogicalPlan::Scan { table, .. } => catalog.get(table).ok(),
        _ => None,
    };
    let synopsis = scanned.as_ref().and_then(|t| t.synopsis());

    // Decompose, estimate, and order the conjuncts.
    let mut infos: Vec<ConjunctInfo> = predicate
        .conjuncts()
        .into_iter()
        .enumerate()
        .map(|(index, expr)| {
            let sargable = PruningPredicate::extract(expr)
                .filter(|p| p.exact && p.conjuncts.len() == 1)
                .map(|p| p.conjuncts.into_iter().next().expect("len checked"));
            let selectivity = sargable
                .as_ref()
                .and_then(|c| {
                    synopsis.and_then(|s| s.estimate_selectivity(&c.column, c.op, c.rhs))
                })
                .unwrap_or(DEFAULT_SELECTIVITY);
            ConjunctInfo { expr: expr.clone(), sargable, selectivity, index }
        })
        .collect();
    // Most-selective sargable conjuncts first; residuals (which cannot
    // prune and tend to be arithmetic-heavy) keep their original order
    // at the back. Kleene AND makes any order result-identical.
    infos.sort_by(|a, b| {
        match (a.sargable.is_some(), b.sargable.is_some()) {
            (true, false) => std::cmp::Ordering::Less,
            (false, true) => std::cmp::Ordering::Greater,
            (false, false) => a.index.cmp(&b.index),
            (true, true) => a
                .selectivity
                .partial_cmp(&b.selectivity)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.index.cmp(&b.index)),
        }
    });
    let reordered = infos.windows(2).any(|w| w[0].index > w[1].index);
    let selectivities: Vec<f64> = infos.iter().map(|c| c.selectivity).collect();
    let combined_sel: f64 = selectivities.iter().product();

    // Rebuild the predicate left-deep in the chosen order: the executor
    // evaluates conjuncts left to right with short-circuiting.
    *predicate = and_chain(infos.into_iter().map(|c| c.expr));

    // Per-zone access path + cost, when the synopsis can prune.
    let mut access = None;
    let mut cost_us = ie.cost_us + ie.rows * selectivities.len() as f64 * consts.eval_tuple_us;
    if let (Some(table), Some(syn)) = (&scanned, synopsis) {
        if let Some(pruner) = PruningPredicate::extract(predicate) {
            let a = access_plan(&pruner, syn, table.row_count());
            // Eval zones pay materialize + short-circuit conjunct
            // evaluation (conjunct i only sees rows surviving 0..i);
            // accept zones pay a gather; skipped zones pay nothing.
            let mut eval_per_row = 0.0;
            let mut alive = 1.0;
            for sel in &selectivities {
                eval_per_row += alive * consts.eval_tuple_us;
                alive *= sel;
            }
            cost_us = a.zones_total() as f64 * consts.zone_decide_us
                + a.rows_accept as f64 * consts.accept_tuple_us
                + a.rows_eval as f64 * (consts.scan_tuple_us + eval_per_row);
            access = Some(a);
        }
    }

    PlanNote {
        est: Estimate { rows: (ie.rows * combined_sel).max(0.0), cost_us },
        filter: Some(FilterNote { selectivity: combined_sel, access, reordered }),
        zone_agg: None,
    }
}

/// Replay the pruner over the whole table to see which zones each
/// access path gets (throwaway stats; the executor re-counts at run
/// time).
fn access_plan(
    pruner: &PruningPredicate,
    synopsis: &lawsdb_storage::TableSynopsis,
    row_count: usize,
) -> AccessPlan {
    let mut stats = ScanStats::default();
    let zone_rows = pruner.grid(synopsis);
    let mut a = AccessPlan::default();
    for (_, len, decision) in pruner.plan_range(synopsis, zone_rows, 0, row_count, &mut stats) {
        // plan_range coalesces adjacent same-decision chunks; recover
        // the zone count from the chunk length.
        let zones = len.div_ceil(zone_rows).max(1);
        match decision {
            ZoneDecision::Eval => {
                a.zones_eval += zones;
                a.rows_eval += len;
            }
            ZoneDecision::AcceptAll => {
                a.zones_accept += zones;
                a.rows_accept += len;
            }
            ZoneDecision::Skip => {
                a.zones_skip += zones;
                a.rows_skipped += len;
            }
        }
    }
    a
}

/// Price the zone-aggregate pushdown path for a global aggregate whose
/// input is a base scan (optionally filtered, with that filter's priced
/// `access` path). Eligibility is decided by
/// [`crate::aggregate::agg_pushdown_zones`] — the executor's own rule — so
/// the planner never advertises a path execution won't take.
fn price_zone_agg(
    catalog: &Catalog,
    input: &LogicalPlan,
    access: Option<AccessPlan>,
    group_by: &[String],
    aggs: &[AggSpec],
) -> Option<ZoneAggPath> {
    let (table, predicate) = match input {
        LogicalPlan::Scan { table, .. } => (table, None),
        LogicalPlan::Filter { input, predicate } => match &**input {
            LogicalPlan::Scan { table, .. } => (table, Some(predicate)),
            _ => return None,
        },
        _ => return None,
    };
    let t = catalog.get(table).ok()?;
    // No filter: every zone answers from its partial. Pruned filter:
    // accepted rows push, Eval rows run the fused kernel, skipped rows
    // vanish. Unsargable filter: every row scans.
    let (accepted, rows_fused) = match (predicate, access) {
        (None, _) => (t.row_count(), 0),
        (Some(_), Some(a)) => (a.rows_accept, a.rows_eval),
        (Some(_), None) => (0, t.row_count()),
    };
    let zones_pushed = crate::aggregate::agg_pushdown_zones(&t, group_by, aggs, accepted)?;
    Some(ZoneAggPath { zones_pushed, rows_fused })
}

/// Left-deep AND chain over `exprs` (len ≥ 1).
fn and_chain(mut exprs: impl Iterator<Item = ScalarExpr>) -> ScalarExpr {
    let first = exprs.next().expect("predicate has at least one conjunct");
    exprs.fold(first, |acc, e| ScalarExpr::And(Box::new(acc), Box::new(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::optimize;
    use crate::sql::parse_select;
    use lawsdb_storage::TableBuilder;

    /// 512-row table: `k` increasing (tight zones), `u` uniform noise
    /// (useless zones), zone granularity 64.
    fn zoned_catalog() -> Catalog {
        let catalog = Catalog::new();
        let mut b = TableBuilder::new("t");
        b.add_i64("k", (0..512).collect());
        b.add_f64("u", (0..512).map(|i| ((i * 37) % 100) as f64).collect());
        let mut table = b.build().unwrap();
        table.rebuild_synopsis_with(64);
        catalog.register(table).unwrap();
        catalog
    }

    fn physical_for(catalog: &Catalog, sql: &str) -> PhysicalPlan {
        let stmt = parse_select(sql).unwrap();
        let plan = optimize(&LogicalPlan::from_statement(&stmt).unwrap());
        plan_physical(catalog, &plan, &CostConstants::default())
    }

    /// Every node of the plan with its note, in preorder.
    fn noted(plan: &PhysicalPlan) -> Vec<(&LogicalPlan, PlanNote)> {
        fn walk<'p>(node: &'p LogicalPlan, out: &mut Vec<&'p LogicalPlan>) {
            out.push(node);
            for input in node.inputs() {
                walk(input, out);
            }
        }
        let mut nodes = Vec::new();
        walk(plan.logical(), &mut nodes);
        assert_eq!(nodes.len(), plan.notes().len(), "one note per node");
        nodes.into_iter().zip(plan.notes().iter().copied()).collect()
    }

    /// The plan's (only) filter: its predicate, filter note and estimate.
    fn filter_of(plan: &PhysicalPlan) -> (&ScalarExpr, FilterNote, Estimate) {
        noted(plan)
            .into_iter()
            .find_map(|(node, note)| match node {
                LogicalPlan::Filter { predicate, .. } => {
                    Some((predicate, note.filter.expect("filters carry a FilterNote"), note.est))
                }
                _ => None,
            })
            .expect("no filter in plan")
    }

    #[test]
    fn selective_conjunct_moves_first() {
        let catalog = zoned_catalog();
        // `k < 8` keeps ~8/512 rows; `k < 400` keeps ~400/512. The
        // cost-based order flips them.
        let plan = physical_for(&catalog, "SELECT k FROM t WHERE k < 400 AND k < 8");
        let (predicate, note, _) = filter_of(&plan);
        assert!(note.reordered, "expected conjunct reorder");
        assert_eq!(format!("{predicate}"), "((k < 8) AND (k < 400))");
    }

    #[test]
    fn already_ordered_conjuncts_stay_put() {
        let catalog = zoned_catalog();
        let plan = physical_for(&catalog, "SELECT k FROM t WHERE k < 8 AND k < 400");
        let (predicate, note, _) = filter_of(&plan);
        assert!(!note.reordered);
        assert_eq!(format!("{predicate}"), "((k < 8) AND (k < 400))");
    }

    #[test]
    fn access_plan_counts_skipped_zones() {
        let catalog = zoned_catalog();
        // k < 50 cuts into the first of 8 zones (Eval); the other 7
        // zones have min >= 64 and are refuted outright.
        let plan = physical_for(&catalog, "SELECT k FROM t WHERE k < 50");
        let (_, note, est) = filter_of(&plan);
        let a = note.access.expect("synopsis present, expected an access plan");
        assert_eq!(a.zones_total(), 8);
        assert_eq!(a.zones_eval, 1);
        assert_eq!(a.zones_skip, 7);
        assert_eq!(a.rows_skipped, 448);
        // Cardinality estimate should land near the true 64 rows.
        assert!(est.rows > 32.0 && est.rows < 128.0, "est.rows = {}", est.rows);
    }

    #[test]
    fn pruned_scan_costs_less_than_full_eval() {
        let catalog = zoned_catalog();
        let pruned = physical_for(&catalog, "SELECT k FROM t WHERE k < 50");
        // `u` zones are useless (full-range noise): every zone evals.
        let full = physical_for(&catalog, "SELECT k FROM t WHERE u < 12.0");
        assert!(
            pruned.root_estimate().cost_us < full.root_estimate().cost_us,
            "pruned {} vs full {}",
            pruned.root_estimate().cost_us,
            full.root_estimate().cost_us
        );
    }

    #[test]
    fn explain_annotates_every_line_and_keeps_shape() {
        let catalog = zoned_catalog();
        let plan = physical_for(
            &catalog,
            "SELECT k, COUNT(*) FROM t WHERE k < 50 GROUP BY k ORDER BY k LIMIT 5",
        );
        let text = plan.explain();
        let lines: Vec<&str> = text.lines().map(|l| l.trim_start()).collect();
        assert!(lines[0].starts_with("Limit"));
        assert!(lines[1].starts_with("Sort"));
        assert!(lines[2].starts_with("Aggregate"));
        assert!(lines[3].starts_with("Filter"));
        assert!(lines[4].starts_with("Pruning [k < 50] (exact)"));
        assert!(lines[4].contains("zones[eval=1 accept=0 skip=7]"));
        assert!(lines[5].starts_with("Scan"));
        for (i, line) in lines.iter().enumerate().take(4) {
            assert!(line.contains("est_rows="), "line {i} missing estimate: {line}");
            assert!(line.contains("est_cost="), "line {i} missing estimate: {line}");
        }
    }

    #[test]
    fn zone_aggregate_path_prices_and_annotates_eligible_aggregates() {
        let catalog = zoned_catalog();
        // Unfiltered global aggregate: every zone answers from its
        // materialized partial, the scan is elided entirely.
        let plan = physical_for(&catalog, "SELECT COUNT(*), SUM(k) FROM t");
        assert!(matches!(plan.logical(), LogicalPlan::Aggregate { .. }), "{:?}", plan.logical());
        let root = plan.notes()[0];
        let z = root.zone_agg.expect("eligible aggregate gets a zone_agg path");
        assert_eq!(z.zones_pushed, 8);
        assert_eq!(z.rows_fused, 0);
        assert!(plan.explain().contains("zone_agg[push=8 fused_rows=0]"), "{}", plan.explain());
        // 8 constant-time folds price far below a 512-row scan+agg.
        let consts = CostConstants::default();
        assert!(root.est.cost_us < 512.0 * consts.scan_tuple_us, "cost {}", root.est.cost_us);

        // Range filter: interior zones push, the boundary zone fuses.
        let plan = physical_for(&catalog, "SELECT SUM(k) FROM t WHERE k < 100");
        assert!(matches!(plan.logical(), LogicalPlan::Aggregate { .. }));
        let z = plan.notes()[0].zone_agg.expect("filtered aggregate still eligible");
        assert_eq!(z.zones_pushed, 1, "zone 0 accepted wholesale by k < 100");
        assert_eq!(z.rows_fused, 64, "zone 1 straddles the bound");

        // GROUP BY keeps the scan grammar: no pushdown advertised.
        let plan = physical_for(&catalog, "SELECT k, COUNT(*) FROM t GROUP BY k");
        let aggs: Vec<PlanNote> = noted(&plan)
            .into_iter()
            .filter(|(node, _)| matches!(node, LogicalPlan::Aggregate { .. }))
            .map(|(_, note)| note)
            .collect();
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].zone_agg, None);
    }

    #[test]
    fn unknown_table_degrades_to_zero_estimates() {
        let catalog = Catalog::new();
        let plan = physical_for(&catalog, "SELECT x FROM nope WHERE x > 1");
        assert_eq!(plan.root_estimate().rows, 0.0);
    }
}
