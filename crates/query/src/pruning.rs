//! Synopsis-driven scan pruning.
//!
//! The optimizer hands the executor a [`PruningPredicate`] — the
//! sargable conjuncts of a filter (`col <op> literal`, AND-connected at
//! the top level). Before a morsel worker materializes or evaluates
//! anything, it consults the scanned table's
//! [`lawsdb_storage::TableSynopsis`]: a zone whose bounds refute any
//! single conjunct cannot contain a qualifying row (`FALSE AND x` is
//! FALSE in SQL three-valued logic, even when `x` is UNKNOWN), so the
//! whole zone is skipped with zero IO and zero predicate evaluations.
//!
//! Soundness rests on the zone-map NULL/NaN policy: bounds exclude NULL
//! and NaN rows, which is safe exactly because no comparison operator
//! evaluates TRUE for a NULL or NaN operand — a skipped zone never
//! loses a row the filter would have kept.
//!
//! There is one synopsis (see DESIGN.md §10): the zones the write path
//! builds from the stored values. A zone whose bounds prove every row
//! satisfies every conjunct is also accepted wholesale, with no row
//! evaluated.

use crate::sexpr::{CmpOp, ScalarExpr};
use lawsdb_obs::{Counter, MetricsRegistry};
use lawsdb_storage::zonemap::{PredOp, TableSynopsis};
use std::sync::Arc;

/// Per-query scan-pruning counters, in zones (the pruning granule:
/// [`lawsdb_storage::DEFAULT_ZONE_ROWS`] rows, one or more device pages).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Zones the scans covered before pruning.
    pub pages_total: usize,
    /// Zones skipped by their zone map.
    pub pages_pruned_zonemap: usize,
    /// Zones accepted wholesale: their bounds plus NULL/NaN-freedom
    /// certificate prove every row satisfies the predicate (see
    /// [`lawsdb_storage::zonemap::ZoneEntry::satisfies_all`]), so no
    /// row is evaluated.
    pub zones_accepted: usize,
    /// Zones whose aggregate partials were folded straight out of the
    /// materialized zone synopsis: zero page reads, zero per-row work.
    pub zones_agg_synopsis: usize,
}

/// Thread-safe accumulator the morsel workers write into; shareable
/// across queries via [`crate::morsel::ExecOptions::stats`].
///
/// A thin view over [`lawsdb_obs`] counters: bind one to an engine's
/// registry with [`ScanStatsCollector::for_registry`] and its totals
/// are the registry's `lawsdb_query_*` counters (Prometheus/JSON
/// exposition). The `Default` collector's counters are its own. Each
/// query counts into a private collector and publishes its totals into
/// the shared one when it finishes, so a query's
/// [`crate::QueryResult::scan_stats`] never includes a concurrent
/// query's zones.
#[derive(Debug, Default)]
pub struct ScanStatsCollector {
    total: Arc<Counter>,
    zonemap: Arc<Counter>,
    accepted: Arc<Counter>,
    agg_synopsis: Arc<Counter>,
}

impl ScanStatsCollector {
    /// A collector whose counters live in `registry` under the
    /// `lawsdb_query_pages_*` names.
    pub fn for_registry(registry: &MetricsRegistry) -> ScanStatsCollector {
        ScanStatsCollector {
            total: registry.counter("lawsdb_query_pages_total"),
            zonemap: registry.counter("lawsdb_query_pages_pruned_zonemap"),
            accepted: registry.counter("lawsdb_query_zones_accepted"),
            agg_synopsis: registry.counter("lawsdb_query_zones_agg_synopsis"),
        }
    }

    /// Fold one worker's counters in.
    pub fn add(&self, s: &ScanStats) {
        self.total.add(s.pages_total as u64);
        self.zonemap.add(s.pages_pruned_zonemap as u64);
        self.accepted.add(s.zones_accepted as u64);
        self.agg_synopsis.add(s.zones_agg_synopsis as u64);
    }

    /// Current totals.
    pub fn snapshot(&self) -> ScanStats {
        ScanStats {
            pages_total: self.total.get() as usize,
            pages_pruned_zonemap: self.zonemap.get() as usize,
            zones_accepted: self.accepted.get() as usize,
            zones_agg_synopsis: self.agg_synopsis.get() as usize,
        }
    }
}

/// One sargable conjunct: `column <op> rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct PruningConjunct {
    /// Column name (as it appears in the scanned table's schema).
    pub column: String,
    /// Comparison operator, column on the left.
    pub op: PredOp,
    /// Literal right-hand side.
    pub rhs: f64,
}

/// The sargable subset of a filter predicate, usable against zone maps.
#[derive(Debug, Clone, PartialEq)]
pub struct PruningPredicate {
    /// AND-connected conjuncts; a zone refuting any one is skippable.
    pub conjuncts: Vec<PruningConjunct>,
    /// True when the conjuncts ARE the whole filter (no residual OR/NOT
    /// or non-sargable subtree). Only then can a zone that *satisfies*
    /// every conjunct accept all its rows without per-row evaluation.
    pub exact: bool,
}

fn pred_op(op: CmpOp) -> PredOp {
    match op {
        CmpOp::Lt => PredOp::Lt,
        CmpOp::Le => PredOp::Le,
        CmpOp::Gt => PredOp::Gt,
        CmpOp::Ge => PredOp::Ge,
        CmpOp::Eq => PredOp::Eq,
        CmpOp::Ne => PredOp::Ne,
    }
}

/// `a <op> b` with operands swapped: `5 < x` ≡ `x > 5`.
fn flip(op: PredOp) -> PredOp {
    match op {
        PredOp::Lt => PredOp::Gt,
        PredOp::Le => PredOp::Ge,
        PredOp::Gt => PredOp::Lt,
        PredOp::Ge => PredOp::Le,
        PredOp::Eq => PredOp::Eq,
        PredOp::Ne => PredOp::Ne,
    }
}

/// What the synopsis says about one zone of the scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneDecision {
    /// Some conjunct is unsatisfiable over the zone: skip it entirely.
    Skip,
    /// Every conjunct provably holds for every row (`exact` predicates
    /// only): constant zones decide with one comparison, and
    /// non-constant zones qualify when their interval plus the
    /// aggregate synopsis' NULL/NaN-freedom certificate proves
    /// whole-zone satisfaction. Take all rows without evaluating —
    /// and aggregate queries fold such zones straight from their
    /// materialized partials, reading nothing at all.
    AcceptAll,
    /// Bounds are inconclusive: evaluate the predicate per row.
    Eval,
}

impl PruningPredicate {
    /// Extract the sargable conjuncts of a (schema-normalized) filter
    /// expression. Returns `None` when nothing is sargable — OR and NOT
    /// subtrees are not descended, and only `col <op> number` /
    /// `number <op> col` shapes qualify.
    pub fn extract(expr: &ScalarExpr) -> Option<PruningPredicate> {
        let mut conjuncts = Vec::new();
        let exact = collect(expr, &mut conjuncts);
        if conjuncts.is_empty() {
            None
        } else {
            Some(PruningPredicate { conjuncts, exact })
        }
    }

    /// Chunking granularity for [`Self::plan_range`]: the finest
    /// `zone_rows` among the referenced columns that actually have
    /// zones (falling back to [`lawsdb_storage::DEFAULT_ZONE_ROWS`]),
    /// so decisions are exact per zone.
    pub fn grid(&self, synopsis: &TableSynopsis) -> usize {
        self.conjuncts
            .iter()
            .filter_map(|c| synopsis.column(&c.column).map(|z| z.zone_rows))
            .min()
            .unwrap_or(lawsdb_storage::DEFAULT_ZONE_ROWS)
    }

    /// Decide one zone-aligned row range (callers pass ranges that do
    /// not straddle a zone boundary of `zone_rows`).
    pub fn decide(&self, synopsis: &TableSynopsis, offset: usize, len: usize) -> ZoneDecision {
        for c in &self.conjuncts {
            if let Some(z) = synopsis.column(&c.column) {
                if !z.range_may_match(offset, len, c.op, c.rhs) {
                    return ZoneDecision::Skip;
                }
            }
        }
        if self.exact && !self.conjuncts.is_empty() {
            let all_decided = self.conjuncts.iter().all(|c| {
                synopsis.column(&c.column).is_some_and(|z| {
                    let zones = z.zones_for(offset, len);
                    !zones.is_empty()
                        && zones.clone().all(|zi| {
                            z.entries[zi].decides_all(c.op, c.rhs) == Some(true)
                                || z.entries[zi].satisfies_all(c.op, c.rhs)
                        })
                })
            });
            if all_decided {
                return ZoneDecision::AcceptAll;
            }
        }
        ZoneDecision::Eval
    }

    /// Split `[offset, offset + len)` into zone-aligned chunks with
    /// their decisions, bumping `stats` as it goes. Adjacent chunks
    /// with the same decision coalesce, so an unprunable scan costs one
    /// slice, exactly like the pre-pruning executor.
    pub fn plan_range(
        &self,
        synopsis: &TableSynopsis,
        zone_rows: usize,
        offset: usize,
        len: usize,
        stats: &mut ScanStats,
    ) -> Vec<(usize, usize, ZoneDecision)> {
        let mut out: Vec<(usize, usize, ZoneDecision)> = Vec::new();
        let end = offset + len;
        let mut pos = offset;
        while pos < end {
            let chunk_end = ((pos / zone_rows + 1) * zone_rows).min(end);
            let clen = chunk_end - pos;
            stats.pages_total += 1;
            let d = self.decide(synopsis, pos, clen);
            match d {
                ZoneDecision::Skip => stats.pages_pruned_zonemap += 1,
                ZoneDecision::AcceptAll => stats.zones_accepted += 1,
                ZoneDecision::Eval => {}
            }
            match out.last_mut() {
                Some((_, l, prev)) if *prev == d => *l += clen,
                _ => out.push((pos, clen, d)),
            }
            pos = chunk_end;
        }
        out
    }

    /// Render for EXPLAIN: `nu <= 0.14 AND intensity > 3`.
    pub fn describe(&self) -> String {
        let parts: Vec<String> = self
            .conjuncts
            .iter()
            .map(|c| {
                let op = match c.op {
                    PredOp::Lt => "<",
                    PredOp::Le => "<=",
                    PredOp::Gt => ">",
                    PredOp::Ge => ">=",
                    PredOp::Eq => "=",
                    PredOp::Ne => "!=",
                };
                format!("{} {op} {}", c.column, c.rhs)
            })
            .collect();
        parts.join(" AND ")
    }
}

/// Walk top-level AND structure; returns true when the whole subtree
/// was captured as conjuncts (no residual predicate remains).
fn collect(expr: &ScalarExpr, out: &mut Vec<PruningConjunct>) -> bool {
    match expr {
        ScalarExpr::And(a, b) => {
            // Order matters for `exact`: both sides must be fully
            // captured, and && must not short-circuit the recursion.
            let ea = collect(a, out);
            let eb = collect(b, out);
            ea && eb
        }
        ScalarExpr::Cmp(op, a, b) => match (&**a, &**b) {
            (ScalarExpr::Column(c), ScalarExpr::Number(n)) => {
                out.push(PruningConjunct { column: c.clone(), op: pred_op(*op), rhs: *n });
                true
            }
            (ScalarExpr::Number(n), ScalarExpr::Column(c)) => {
                out.push(PruningConjunct {
                    column: c.clone(),
                    op: flip(pred_op(*op)),
                    rhs: *n,
                });
                true
            }
            _ => false,
        },
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_storage::zonemap::ColumnZones;
    use lawsdb_storage::Column;

    fn cmp(op: CmpOp, col: &str, n: f64) -> ScalarExpr {
        ScalarExpr::Cmp(
            op,
            Box::new(ScalarExpr::Column(col.into())),
            Box::new(ScalarExpr::Number(n)),
        )
    }

    #[test]
    fn extracts_top_level_conjuncts() {
        let e = ScalarExpr::And(
            Box::new(cmp(CmpOp::Gt, "a", 5.0)),
            Box::new(cmp(CmpOp::Eq, "b", 1.0)),
        );
        let p = PruningPredicate::extract(&e).unwrap();
        assert_eq!(p.conjuncts.len(), 2);
        assert!(p.exact);
        assert_eq!(p.describe(), "a > 5 AND b = 1");
    }

    #[test]
    fn flipped_literal_comparison_normalizes() {
        // 5 < a  ≡  a > 5
        let e = ScalarExpr::Cmp(
            CmpOp::Lt,
            Box::new(ScalarExpr::Number(5.0)),
            Box::new(ScalarExpr::Column("a".into())),
        );
        let p = PruningPredicate::extract(&e).unwrap();
        assert_eq!(p.conjuncts[0].op, PredOp::Gt);
        assert_eq!(p.conjuncts[0].rhs, 5.0);
    }

    #[test]
    fn or_subtrees_are_not_sargable_but_and_siblings_are() {
        let or = ScalarExpr::Or(
            Box::new(cmp(CmpOp::Gt, "a", 1.0)),
            Box::new(cmp(CmpOp::Lt, "a", -1.0)),
        );
        assert!(PruningPredicate::extract(&or).is_none());
        let e = ScalarExpr::And(Box::new(cmp(CmpOp::Eq, "b", 2.0)), Box::new(or));
        let p = PruningPredicate::extract(&e).unwrap();
        assert_eq!(p.conjuncts.len(), 1);
        assert!(!p.exact, "OR residue must disable accept-all");
    }

    #[test]
    fn decide_skips_refuted_zones_and_accepts_constant_zones() {
        // 8 rows, zone_rows=4: zone 0 = all 1s (constant), zone 1 = 5..9.
        let col = Column::from_i64(vec![1, 1, 1, 1, 5, 6, 7, 8]);
        let zones = ColumnZones::build(&col, 4).unwrap();
        let mut syn = TableSynopsis::new();
        syn.insert("a", zones);
        let p = PruningPredicate::extract(&cmp(CmpOp::Eq, "a", 1.0)).unwrap();
        assert_eq!(p.decide(&syn, 0, 4), ZoneDecision::AcceptAll);
        assert_eq!(p.decide(&syn, 4, 4), ZoneDecision::Skip);
        let p2 = PruningPredicate::extract(&cmp(CmpOp::Gt, "a", 6.0)).unwrap();
        assert_eq!(p2.decide(&syn, 4, 4), ZoneDecision::Eval);
    }

    #[test]
    fn unknown_columns_never_prune() {
        let syn = TableSynopsis::new();
        let p = PruningPredicate::extract(&cmp(CmpOp::Eq, "missing", 1.0)).unwrap();
        assert_eq!(p.decide(&syn, 0, 100), ZoneDecision::Eval);
    }

    #[test]
    fn plan_range_coalesces_and_counts() {
        // 12 rows, zone_rows=4: zones [1s][2s][3s]; predicate a = 2.
        let col = Column::from_i64(vec![1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3]);
        let zones = ColumnZones::build(&col, 4).unwrap();
        let mut syn = TableSynopsis::new();
        syn.insert("a", zones);
        let p = PruningPredicate::extract(&cmp(CmpOp::Eq, "a", 2.0)).unwrap();
        let mut stats = ScanStats::default();
        let chunks = p.plan_range(&syn, 4, 0, 12, &mut stats);
        assert_eq!(
            chunks,
            vec![
                (0, 4, ZoneDecision::Skip),
                (4, 4, ZoneDecision::AcceptAll),
                (8, 4, ZoneDecision::Skip),
            ]
        );
        assert_eq!(stats.pages_total, 3);
        assert_eq!(stats.pages_pruned_zonemap, 2);
        assert_eq!(stats.zones_accepted, 1);
        // Unaligned sub-range: decisions still per zone-aligned chunk.
        let mut s2 = ScanStats::default();
        let chunks = p.plan_range(&syn, 4, 2, 8, &mut s2);
        assert_eq!(chunks.len(), 3);
        assert_eq!(s2.pages_total, 3);
    }

    #[test]
    fn collector_accumulates_across_threads() {
        let c = std::sync::Arc::new(ScanStatsCollector::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    c.add(&ScanStats {
                        pages_total: 10,
                        pages_pruned_zonemap: 3,
                        zones_accepted: 1,
                        zones_agg_synopsis: 5,
                    })
                });
            }
        });
        let snap = c.snapshot();
        assert_eq!(snap.pages_total, 40);
        assert_eq!(snap.pages_pruned_zonemap, 12);
        assert_eq!(snap.zones_accepted, 4);
        assert_eq!(snap.zones_agg_synopsis, 20);
    }

    #[test]
    fn interval_proofs_accept_non_constant_zones() {
        // Zone 0 holds 1..=4, zone 1 holds 5..=8 — neither constant.
        let col = Column::from_i64(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let mut syn = TableSynopsis::new();
        syn.insert("a", ColumnZones::build(&col, 4).unwrap());
        // a >= 5: zone 1's min proves every row qualifies.
        let p = PruningPredicate::extract(&cmp(CmpOp::Ge, "a", 5.0)).unwrap();
        assert_eq!(p.decide(&syn, 4, 4), ZoneDecision::AcceptAll);
        assert_eq!(p.decide(&syn, 0, 4), ZoneDecision::Skip);
        // a >= 3 splits zone 0: bounds can't certify, so per-row eval.
        let p2 = PruningPredicate::extract(&cmp(CmpOp::Ge, "a", 3.0)).unwrap();
        assert_eq!(p2.decide(&syn, 0, 4), ZoneDecision::Eval);
        // A NULL poisons the certificate: the NULL row fails `>=`.
        let nullable = Column::from_i64_opt(vec![Some(5), Some(6), None, Some(8)]);
        let mut syn2 = TableSynopsis::new();
        syn2.insert("a", ColumnZones::build(&nullable, 4).unwrap());
        assert_eq!(p.decide(&syn2, 0, 4), ZoneDecision::Eval);
        // Inexact predicates (OR residue) never accept wholesale.
        let mut inexact = p.clone();
        inexact.exact = false;
        assert_eq!(inexact.decide(&syn, 4, 4), ZoneDecision::Eval);
    }
}
