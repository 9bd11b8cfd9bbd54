//! Zone maps: per-zone min/max/null-count/constant synopses.
//!
//! A *zone* is a fixed run of rows (default [`DEFAULT_ZONE_ROWS`]). For
//! every numeric/bool column the write path records, per zone, the
//! minimum and maximum valid value, the null count, and whether the
//! zone is constant. A scan with a sargable comparison predicate can
//! then prove a zone irrelevant — no row in it can satisfy the
//! predicate — and skip it without touching the values (for stored
//! tables: without any page IO). This is the paper's "zero-IO scan"
//! made mechanical: the synopsis answers the page-relevance question,
//! the pages themselves are never read.
//!
//! Every zone is built from the stored values. A captured model's
//! `prediction ± max_abs_residual` band adds nothing to it: where the
//! band is sound it contains the zone's `[min, max]`, so it never
//! refutes a predicate the data zone keeps, and where it is not (a
//! `±inf` value the residual bound skips) it would drop rows a filter
//! keeps.
//!
//! NaN/NULL policy: NaN values and NULL rows are excluded from min/max.
//! This is sound for pruning because a comparison predicate is never
//! *true* for a NaN or NULL operand (three-valued logic evaluates it
//! unknown, and filters only keep true rows). A zone containing only
//! NULLs/NaNs has the empty interval `(+inf, -inf)` and prunes against
//! every comparison. Note the bounds alone therefore cannot prove a
//! zone satisfies a predicate *for every row*: a NaN row hides outside
//! `[min, max]` yet fails the comparison. Whole-zone acceptance
//! ([`ZoneEntry::satisfies_all`]) additionally needs the aggregate
//! synopsis to certify the zone is NaN-free.
//!
//! Each zone also carries an **aggregate synopsis**
//! ([`ZoneAgg`]): the count of aggregate-visible values and their exact
//! sum. The same exclusion rule applies — NULL rows and NaN values are
//! invisible to SQL aggregates (the expression layer maps NaN to NULL) —
//! so an accepted zone can contribute COUNT/SUM/AVG/MIN/MAX partials
//! with zero IO and zero per-row work. An all-NULL/NaN zone has count
//! zero and the empty sum: it contributes nothing, exactly like the scan
//! would.

use crate::bitmap::Bitmap;
use crate::column::{Column, NumericAggState};
use crate::exact::ExactSum;
use std::collections::BTreeMap;

/// Default zone granularity, in rows.
pub const DEFAULT_ZONE_ROWS: usize = 4096;

/// Comparison operator vocabulary of zone pruning.
///
/// Storage cannot depend on the expression crate, so this mirrors the
/// sargable subset of its comparison ops; the query layer maps onto it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `!=`
    Ne,
}

impl PredOp {
    /// Apply the operator to `(lhs, rhs)`. NaN operands compare false
    /// under every operator (including `Ne`), matching the executor's
    /// three-valued logic where unknown rows never pass a filter.
    #[inline]
    pub fn eval(self, lhs: f64, rhs: f64) -> bool {
        match self {
            PredOp::Lt => lhs < rhs,
            PredOp::Le => lhs <= rhs,
            PredOp::Gt => lhs > rhs,
            PredOp::Ge => lhs >= rhs,
            PredOp::Eq => lhs == rhs,
            PredOp::Ne => !lhs.is_nan() && !rhs.is_nan() && lhs != rhs,
        }
    }

    /// Could some value in `[min, max]` satisfy `value <op> rhs`?
    ///
    /// `false` is a proof; `true` is merely "cannot rule it out". An
    /// empty interval (`min > max`) and a NaN literal match nothing.
    pub fn may_match(self, min: f64, max: f64, rhs: f64) -> bool {
        if rhs.is_nan() || min > max {
            return false;
        }
        match self {
            PredOp::Lt => min < rhs,
            PredOp::Le => min <= rhs,
            PredOp::Gt => max > rhs,
            PredOp::Ge => max >= rhs,
            PredOp::Eq => min <= rhs && rhs <= max,
            PredOp::Ne => !(min == max && min == rhs),
        }
    }
}

/// Default selectivity for an equality predicate over a zone whose
/// value range is narrower than one unit — a continuous (floating)
/// domain, where the dense-integer `1/(width+1)` estimate degenerates.
/// The System R convention of 1/20 for equality without distinct-value
/// statistics.
const CONTINUOUS_EQ_SELECTIVITY: f64 = 0.05;

/// Per-zone aggregate synopsis: materialized partials for the
/// aggregate pushdown path.
///
/// `count` is the number of *aggregate-visible* values in the zone —
/// rows that are neither NULL nor NaN, mirroring the executor's
/// semantics where the expression layer maps NaN to NULL and SQL
/// aggregates ignore NULL. Together with [`ZoneEntry::rows`] and
/// [`ZoneEntry::null_count`] this gives the full count / non-null
/// count / visible-count triple.
///
/// `sum` is their [`ExactSum`]: a function of the zone's values alone,
/// not of the order they were added in, so a zone's partial stands in
/// for scanning it on any morsel grid, thread count or shard layout. An
/// all-NULL/NaN zone has `count == 0` and the empty sum.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneAgg {
    /// Aggregate-visible values (non-NULL, non-NaN) in the sum.
    pub count: u32,
    /// Exact sum of the visible values.
    pub sum: ExactSum,
}

/// Synopsis of one zone of one column.
///
/// `min > max` encodes "no bounded values" (all rows NULL/NaN, or an
/// empty zone). `min`/`max` are never NaN. Because NULL and NaN rows
/// are *excluded* from the bounds, `[min, max]` refutes predicates
/// soundly but cannot by itself certify that every row satisfies one —
/// see [`ZoneEntry::satisfies_all`] for the certified accept path.
/// A `±0.0` tie resolves by sign: `min` keeps `-0.0`, `max` keeps
/// `+0.0`, as in [`NumericAggState`].
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneEntry {
    /// Rows in this zone (the final zone of a column may be short).
    pub rows: u32,
    /// NULL rows in this zone.
    pub null_count: u32,
    /// Minimum valid, non-NaN value (`+inf` when none).
    pub min: f64,
    /// Maximum valid, non-NaN value (`-inf` when none).
    pub max: f64,
    /// True when every row is valid and equal to `min` (== `max`).
    /// Constant zones admit whole-zone predicate evaluation: one
    /// comparison decides all rows.
    pub constant: bool,
    /// Materialized aggregate partials.
    pub agg: ZoneAgg,
}

impl ZoneEntry {
    /// True when the zone holds at least one bounded value.
    #[inline]
    pub fn has_values(&self) -> bool {
        self.min <= self.max
    }

    /// The zone's COUNT/SUM/MIN/MAX state.
    pub fn agg_state(&self) -> NumericAggState {
        NumericAggState {
            count: self.agg.count.into(),
            sum: self.agg.sum.clone(),
            min: self.min,
            max: self.max,
        }
    }

    /// Could *any* row in this zone satisfy `value <op> rhs`?
    ///
    /// `false` is a proof (the zone can be skipped); `true` is merely
    /// "cannot rule it out". Sound only for predicates that no NULL or
    /// NaN row can satisfy — true of every comparison operator here.
    pub fn may_match(&self, op: PredOp, rhs: f64) -> bool {
        op.may_match(self.min, self.max, rhs)
    }

    /// For a constant zone, the single comparison that decides every
    /// row: `Some(true)` means all rows match, `Some(false)` none do.
    /// `None` when the zone is not constant (per-row evaluation
    /// required).
    pub fn decides_all(&self, op: PredOp, rhs: f64) -> Option<bool> {
        if self.constant && self.null_count == 0 && self.rows > 0 {
            Some(op.eval(self.min, rhs))
        } else {
            None
        }
    }

    /// Does *every* row of this zone satisfy `value <op> rhs`?
    ///
    /// `true` is a proof that the zone can be accepted wholesale (the
    /// interval analogue of `decides_all(..) == Some(true)`, also valid
    /// for non-constant zones); `false` only means "cannot certify".
    ///
    /// The certificate needs more than the bounds: NULL rows and NaN
    /// values are excluded from `[min, max]` yet fail every comparison,
    /// so the zone must be proven free of both. The aggregate synopsis
    /// proves it: `agg.count` counts non-NULL *non-NaN* values, so it
    /// equals `rows` exactly when no row hides outside the bounds.
    pub fn satisfies_all(&self, op: PredOp, rhs: f64) -> bool {
        if rhs.is_nan() || self.agg.count != self.rows || !self.has_values() {
            return false;
        }
        match op {
            PredOp::Lt => self.max < rhs,
            PredOp::Le => self.max <= rhs,
            PredOp::Gt => self.min > rhs,
            PredOp::Ge => self.min >= rhs,
            PredOp::Eq => self.min == rhs && self.max == rhs,
            PredOp::Ne => self.max < rhs || self.min > rhs,
        }
    }

    /// Estimated fraction of this zone's rows satisfying `value <op> rhs`,
    /// assuming values are spread uniformly over `[min, max]`. Exact at
    /// the boundaries the zone map can prove (`0.0` when `may_match` is
    /// false, `0.0`/`1.0` when `decides_all` fires); an interpolation in
    /// between. Equality uses `1 / (width + 1)` — exact for dense
    /// stepped-integer zones — but on fractional-width (continuous)
    /// domains that formula saturates toward 1.0 as the range narrows,
    /// the opposite of how selective an equality on a continuous column
    /// actually is; those fall back to the conventional 1/20 default.
    /// NULL and NaN rows never satisfy a comparison and scale the
    /// estimate down.
    pub fn selectivity(&self, op: PredOp, rhs: f64) -> f64 {
        if self.rows == 0 || !self.may_match(op, rhs) {
            return 0.0;
        }
        if let Some(all) = self.decides_all(op, rhs) {
            return if all { 1.0 } else { 0.0 };
        }
        let valid = (self.rows - self.null_count) as f64 / self.rows as f64;
        let width = self.max - self.min;
        let eq = if !width.is_finite() {
            0.0
        } else if width < 1.0 {
            CONTINUOUS_EQ_SELECTIVITY
        } else {
            (width + 1.0).recip().min(1.0)
        };
        let frac = if !width.is_finite() {
            // Unbounded (a ±inf value): even odds.
            0.5
        } else if width <= 0.0 {
            // Point interval that may_match admitted: everything matches
            // for range ops; equality/inequality resolved above unless
            // nulls/NaNs kept the zone non-constant.
            match op {
                PredOp::Eq => 1.0,
                PredOp::Ne => 0.0,
                _ => 1.0,
            }
        } else {
            match op {
                PredOp::Lt | PredOp::Le => ((rhs - self.min) / width).clamp(0.0, 1.0),
                PredOp::Gt | PredOp::Ge => ((self.max - rhs) / width).clamp(0.0, 1.0),
                PredOp::Eq => eq,
                PredOp::Ne => 1.0 - eq,
            }
        };
        (frac * valid).clamp(0.0, 1.0)
    }
}

/// The zone map of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnZones {
    /// Zone granularity in rows.
    pub zone_rows: usize,
    /// One entry per zone, in row order.
    pub entries: Vec<ZoneEntry>,
}

impl ColumnZones {
    /// Build the zones of a column from its values. Strings carry no usable
    /// bounds for numeric comparison pruning and return `None`.
    pub fn build(col: &Column, zone_rows: usize) -> Option<ColumnZones> {
        assert!(zone_rows > 0, "zone_rows must be positive");
        Some(ColumnZones { zone_rows, entries: zone_entries(col, 0, zone_rows)? })
    }

    /// Extend the zones over rows appended to the column they were
    /// built from: `col` must hold those rows unchanged, then the new
    /// ones. Only the last partial zone and the new zones are computed,
    /// so the cost is O(appended rows + one zone), and the result equals
    /// `build(col, self.zone_rows)` bit for bit — every zone is the same
    /// function of the same rows.
    pub(crate) fn extend(&mut self, col: &Column) {
        let partial = self.entries.last().is_some_and(|e| (e.rows as usize) < self.zone_rows);
        let full = self.entries.len() - usize::from(partial);
        self.entries.truncate(full);
        let tail = zone_entries(col, full * self.zone_rows, self.zone_rows)
            .expect("zones are only built for non-string columns");
        self.entries.extend(tail);
    }

    /// Total rows covered.
    pub fn row_count(&self) -> usize {
        self.entries.iter().map(|e| e.rows as usize).sum()
    }

    /// Row range `[start, end)` of zone `zi`.
    pub fn zone_range(&self, zi: usize) -> (usize, usize) {
        let start = zi * self.zone_rows;
        (start, start + self.entries[zi].rows as usize)
    }

    /// Indices of the zones overlapping rows `[offset, offset + len)`.
    pub fn zones_for(&self, offset: usize, len: usize) -> std::ops::Range<usize> {
        if len == 0 {
            return 0..0;
        }
        let first = offset / self.zone_rows;
        let last = (offset + len - 1) / self.zone_rows;
        first.min(self.entries.len())..(last + 1).min(self.entries.len())
    }

    /// Could any row in `[offset, offset + len)` satisfy the predicate?
    pub fn range_may_match(&self, offset: usize, len: usize, op: PredOp, rhs: f64) -> bool {
        self.zones_for(offset, len).any(|zi| self.entries[zi].may_match(op, rhs))
    }

    /// Row-weighted selectivity estimate for `column <op> rhs` over the
    /// whole column: the expected fraction of rows satisfying the
    /// predicate, combining per-zone uniform interpolation with the
    /// zone map's hard refutations (skipped zones contribute zero).
    pub fn estimate_selectivity(&self, op: PredOp, rhs: f64) -> f64 {
        let total: u64 = self.entries.iter().map(|e| e.rows as u64).sum();
        if total == 0 {
            return 0.0;
        }
        let expected: f64 = self
            .entries
            .iter()
            .map(|e| e.selectivity(op, rhs) * e.rows as f64)
            .sum();
        (expected / total as f64).clamp(0.0, 1.0)
    }
}

/// The zones of `col` starting at row `from` (a multiple of
/// `zone_rows`); `None` for strings.
fn zone_entries(col: &Column, from: usize, zone_rows: usize) -> Option<Vec<ZoneEntry>> {
    Some(match col {
        Column::Int64 { data, validity } => {
            data_zones(from, data.len(), zone_rows, validity, |i| data[i] as f64)
        }
        Column::Float64 { data, validity } => {
            data_zones(from, data.len(), zone_rows, validity, |i| data[i])
        }
        Column::Bool { data, validity } => {
            data_zones(from, data.len(), zone_rows, validity, |i| if data.get(i) { 1.0 } else { 0.0 })
        }
        Column::Str { .. } => return None,
    })
}

/// Exact data zones over rows `[from, n)` whose value at row `i` is
/// `value_at(i)` (monomorphized per column type: this loop runs over
/// every value on every build). An empty column gets one empty zone.
fn data_zones(
    from: usize,
    n: usize,
    zone_rows: usize,
    validity: &Bitmap,
    value_at: impl Fn(usize) -> f64,
) -> Vec<ZoneEntry> {
    let zone = |start: usize| {
        let end = (start + zone_rows).min(n);
        let all_valid = validity.count_set_in(start, end) == end - start;
        let mut state = NumericAggState::default();
        let mut nulls = 0u32;
        let mut saw_nan = false;
        for i in start..end {
            if !all_valid && !validity.get(i) {
                nulls += 1;
                continue;
            }
            let v = value_at(i);
            if v.is_nan() {
                // NaN never satisfies a comparison and is invisible to
                // aggregates (the expression layer maps it to NULL);
                // exclude it from the bounds and the sum but poison the
                // constant flag.
                saw_nan = true;
                continue;
            }
            state.update(v);
        }
        let NumericAggState { count, sum, min, max } = state;
        // Constant ⇔ every row is valid, non-NaN, and equal.
        let constant = end > start && nulls == 0 && !saw_nan && min == max;
        ZoneEntry {
            rows: (end - start) as u32,
            null_count: nulls,
            min,
            max,
            constant,
            agg: ZoneAgg { count: count as u32, sum },
        }
    };
    if n == 0 {
        return vec![zone(0)];
    }
    (from..n).step_by(zone_rows).map(zone).collect()
}

/// Zone maps for a whole table, keyed by column name.
///
/// Built at write time ([`crate::table::TableBuilder::build`]) and
/// extended by [`crate::table::Table::append_rows`]. Never persisted: a
/// table read back from [`crate::wal::DurableStore`] carries no
/// synopsis, and the caller rebuilds one on its own zone grid.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableSynopsis {
    columns: BTreeMap<String, ColumnZones>,
}

impl TableSynopsis {
    /// Empty synopsis.
    pub fn new() -> TableSynopsis {
        TableSynopsis::default()
    }

    /// Zones for `column`, if any.
    pub fn column(&self, column: &str) -> Option<&ColumnZones> {
        self.columns.get(column)
    }

    /// Mutable zones for `column`, if any (the append path extends them).
    pub(crate) fn column_mut(&mut self, column: &str) -> Option<&mut ColumnZones> {
        self.columns.get_mut(column)
    }

    /// Insert (or replace) the zones of one column.
    pub fn insert(&mut self, column: impl Into<String>, zones: ColumnZones) {
        self.columns.insert(column.into(), zones);
    }

    /// Remove one column's zones (projection path).
    pub fn remove(&mut self, column: &str) -> Option<ColumnZones> {
        self.columns.remove(column)
    }

    /// True when no column carries zones.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Iterate `(column, zones)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ColumnZones)> {
        self.columns.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Selectivity estimate for `column <op> rhs`, or `None` when the
    /// column carries no zones (strings, or synopsis never built).
    pub fn estimate_selectivity(&self, column: &str, op: PredOp, rhs: f64) -> Option<f64> {
        self.columns.get(column).map(|z| z.estimate_selectivity(op, rhs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zones(col: &Column, zone_rows: usize) -> ColumnZones {
        ColumnZones::build(col, zone_rows).unwrap()
    }

    /// A NaN-free zone over `[min, max]` (its partial's sum is unused).
    fn entry(rows: u32, null_count: u32, min: f64, max: f64, constant: bool) -> ZoneEntry {
        let agg = ZoneAgg { count: rows - null_count, sum: ExactSum::new() };
        ZoneEntry { rows, null_count, min, max, constant, agg }
    }

    #[test]
    fn build_records_min_max_per_zone() {
        let c = Column::from_i64((0..10).collect());
        let z = zones(&c, 4);
        assert_eq!(z.entries.len(), 3);
        assert_eq!((z.entries[0].min, z.entries[0].max), (0.0, 3.0));
        assert_eq!((z.entries[1].min, z.entries[1].max), (4.0, 7.0));
        assert_eq!((z.entries[2].min, z.entries[2].max), (8.0, 9.0));
        assert_eq!(z.entries[2].rows, 2);
        assert_eq!(z.row_count(), 10);
    }

    #[test]
    fn nulls_and_nans_are_excluded_from_bounds() {
        let c = Column::from_f64_opt(vec![
            Some(1.0),
            None,
            Some(f64::NAN),
            Some(-2.0),
        ]);
        let z = zones(&c, 4);
        let e = &z.entries[0];
        assert_eq!((e.min, e.max), (-2.0, 1.0));
        assert_eq!(e.null_count, 1);
        assert!(!e.constant);
    }

    #[test]
    fn all_null_zone_prunes_everything() {
        let c = Column::from_f64_opt(vec![None, None, None]);
        let z = zones(&c, 4);
        let e = &z.entries[0];
        assert!(!e.has_values());
        for op in [PredOp::Lt, PredOp::Le, PredOp::Gt, PredOp::Ge, PredOp::Eq, PredOp::Ne] {
            assert!(!e.may_match(op, 0.0), "{op:?}");
        }
    }

    #[test]
    fn constant_zone_detected_and_decides_all() {
        let c = Column::from_i64(vec![7, 7, 7, 7, 7, 8]);
        let z = zones(&c, 4);
        assert!(z.entries[0].constant);
        assert_eq!(z.entries[0].decides_all(PredOp::Eq, 7.0), Some(true));
        assert_eq!(z.entries[0].decides_all(PredOp::Gt, 7.0), Some(false));
        assert!(!z.entries[1].constant);
        assert_eq!(z.entries[1].decides_all(PredOp::Eq, 7.0), None);
    }

    #[test]
    fn constant_with_nulls_does_not_decide_all() {
        let c = Column::from_i64_opt(vec![Some(5), None, Some(5)]);
        let z = zones(&c, 4);
        assert!(!z.entries[0].constant);
        assert_eq!(z.entries[0].decides_all(PredOp::Eq, 5.0), None);
    }

    #[test]
    fn may_match_interval_logic() {
        let e = entry(4, 0, 10.0, 20.0, false);
        assert!(!e.may_match(PredOp::Lt, 10.0));
        assert!(e.may_match(PredOp::Le, 10.0));
        assert!(e.may_match(PredOp::Lt, 10.5));
        assert!(!e.may_match(PredOp::Gt, 20.0));
        assert!(e.may_match(PredOp::Ge, 20.0));
        assert!(e.may_match(PredOp::Eq, 15.0));
        assert!(!e.may_match(PredOp::Eq, 21.0));
        assert!(e.may_match(PredOp::Ne, 15.0));
        // NaN literal: no row can satisfy any comparison against it.
        assert!(!e.may_match(PredOp::Lt, f64::NAN));
        // Constant zone and != its value: provably empty.
        let k = entry(4, 0, 3.0, 3.0, true);
        assert!(!k.may_match(PredOp::Ne, 3.0));
        assert!(k.may_match(PredOp::Ne, 4.0));
    }

    #[test]
    fn strings_have_no_zones() {
        assert!(ColumnZones::build(&Column::from_str(vec!["a".into()]), 4).is_none());
    }

    #[test]
    fn bool_zones_are_zero_one() {
        let c = Column::from_bool(&[true, false, true]);
        let z = zones(&c, 4);
        assert_eq!((z.entries[0].min, z.entries[0].max), (0.0, 1.0));
    }

    #[test]
    fn zones_for_maps_row_ranges() {
        let c = Column::from_i64((0..100).collect());
        let z = zones(&c, 10);
        assert_eq!(z.zones_for(0, 10), 0..1);
        assert_eq!(z.zones_for(5, 10), 0..2);
        assert_eq!(z.zones_for(95, 5), 9..10);
        assert_eq!(z.zones_for(0, 100), 0..10);
        assert_eq!(z.zones_for(50, 0), 0..0);
        assert_eq!(z.zone_range(3), (30, 40));
    }

    #[test]
    fn range_may_match_consults_only_overlapping_zones() {
        let c = Column::from_i64((0..100).collect());
        let z = zones(&c, 10);
        // Rows 0..10 hold 0..=9: v > 50 cannot match there…
        assert!(!z.range_may_match(0, 10, PredOp::Gt, 50.0));
        // …but the whole table can.
        assert!(z.range_may_match(0, 100, PredOp::Gt, 50.0));
    }

    #[test]
    fn infinite_values_bound_their_zone() {
        // +inf is a value like any other: the zone keeps it in `max`, so
        // a filter that +inf satisfies is never refuted.
        let z = zones(&Column::from_f64(vec![1.0, f64::INFINITY]), 2);
        assert!(z.entries[0].may_match(PredOp::Gt, 1e300));
        assert!(!z.entries[0].may_match(PredOp::Lt, -1e300));
    }

    #[test]
    fn selectivity_interpolates_and_respects_proofs() {
        let e = entry(100, 0, 0.0, 100.0, false);
        // Hard refutation → exactly zero.
        assert_eq!(e.selectivity(PredOp::Gt, 200.0), 0.0);
        // Linear interpolation on ranges.
        let lt = e.selectivity(PredOp::Lt, 25.0);
        assert!((lt - 0.25).abs() < 1e-9, "{lt}");
        let ge = e.selectivity(PredOp::Ge, 75.0);
        assert!((ge - 0.25).abs() < 1e-9, "{ge}");
        // Equality: 1/(width+1) heuristic, small but nonzero.
        let eq = e.selectivity(PredOp::Eq, 50.0);
        assert!(eq > 0.0 && eq < 0.05, "{eq}");
        // On a fractional-width (continuous) domain the integer
        // heuristic would claim ~0.94; the default kicks in instead.
        let f = entry(100, 0, 0.12, 0.18, false);
        assert_eq!(f.selectivity(PredOp::Eq, 0.15), 0.05);
        assert_eq!(f.selectivity(PredOp::Ne, 0.15), 0.95);
        // Constant zones decide exactly.
        let k = entry(10, 0, 7.0, 7.0, true);
        assert_eq!(k.selectivity(PredOp::Eq, 7.0), 1.0);
        assert_eq!(k.selectivity(PredOp::Eq, 8.0), 0.0);
        // NULLs scale the estimate down.
        let h = entry(10, 5, 0.0, 10.0, false);
        assert!(h.selectivity(PredOp::Ge, 0.0) <= 0.5 + 1e-9);
    }

    #[test]
    fn column_selectivity_is_row_weighted() {
        let c = Column::from_i64((0..100).collect());
        let z = zones(&c, 10);
        // v < 50 ≈ half the rows; zones 5..10 are refuted outright.
        let s = z.estimate_selectivity(PredOp::Lt, 50.0);
        assert!((s - 0.5).abs() < 0.06, "{s}");
        let none = z.estimate_selectivity(PredOp::Gt, 1000.0);
        assert_eq!(none, 0.0);
        let mut syn = TableSynopsis::new();
        syn.insert("a", z);
        assert!(syn.estimate_selectivity("a", PredOp::Lt, 50.0).is_some());
        assert!(syn.estimate_selectivity("missing", PredOp::Lt, 50.0).is_none());
    }

    #[test]
    fn empty_column_gets_one_empty_zone() {
        let c = Column::from_i64(vec![]);
        let z = zones(&c, 4);
        assert_eq!(z.entries.len(), 1);
        assert!(!z.entries[0].has_values());
        assert_eq!(z.row_count(), 0);
    }

    #[test]
    fn build_materializes_exact_aggregate_partials() {
        let sums = |z: &ColumnZones| -> Vec<(u32, f64)> {
            z.entries.iter().map(|e| (e.agg.count, e.agg.sum.value())).collect()
        };
        let c = Column::from_i64(vec![1, 2, 3, 4, 10, 20]);
        assert_eq!(sums(&zones(&c, 4)), vec![(4, 10.0), (2, 30.0)]);
        assert_eq!(sums(&zones(&Column::from_f64(vec![0.5, 1.5]), 4)), vec![(2, 2.0)]);
        // Bools sum as 0/1.
        assert_eq!(sums(&zones(&Column::from_bool(&[true, false, true]), 4)), vec![(3, 2.0)]);
        // The sum is exactly rounded: a row-order fold would give 0.0.
        let f = zones(&Column::from_f64(vec![1e16, 1.0, -1e16]), 4);
        assert_eq!(sums(&f), vec![(3, 1.0)]);
    }

    #[test]
    fn agg_excludes_nulls_and_nans_like_the_executor() {
        // NaN is aggregate-invisible (the expression layer maps it to
        // NULL), so the visible count differs from rows - null_count.
        let c = Column::from_f64_opt(vec![Some(1.0), None, Some(f64::NAN), Some(-2.0)]);
        let z = zones(&c, 4);
        let e = &z.entries[0];
        let a = &e.agg;
        assert_eq!(a.count, 2);
        assert_eq!(a.sum.value(), -1.0);
        assert!(a.count < e.rows - e.null_count, "NaN must not count");
    }

    #[test]
    fn all_null_zone_keeps_count_and_an_empty_sum() {
        let empty = ZoneAgg { count: 0, sum: ExactSum::new() };
        let z = zones(&Column::from_f64_opt(vec![None, None, None]), 4);
        assert_eq!(z.entries[0].agg, empty);
        // And an all-NaN zone looks the same to aggregates.
        let n = zones(&Column::from_f64(vec![f64::NAN, f64::NAN]), 4);
        assert_eq!(n.entries[0].agg, empty);
    }

    #[test]
    fn signed_zeros_resolve_by_sign_not_by_row_order() {
        let z = zones(&Column::from_f64(vec![-0.0, -0.0]), 4);
        let a = &z.entries[0].agg;
        assert_eq!(a.sum.value().to_bits(), 0.0f64.to_bits(), "an exact zero reads +0.0");
        for values in [vec![0.0, -0.0], vec![-0.0, 0.0]] {
            let e = &zones(&Column::from_f64(values), 4).entries[0];
            assert_eq!(e.min.to_bits(), (-0.0f64).to_bits());
            assert_eq!(e.max.to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn satisfies_all_certifies_interval_accepts() {
        let c = Column::from_i64(vec![10, 11, 12, 13]);
        let z = zones(&c, 4);
        let e = &z.entries[0];
        assert!(e.satisfies_all(PredOp::Ge, 10.0));
        assert!(e.satisfies_all(PredOp::Lt, 14.0));
        assert!(e.satisfies_all(PredOp::Ne, 20.0));
        assert!(!e.satisfies_all(PredOp::Gt, 10.0), "min row fails");
        assert!(!e.satisfies_all(PredOp::Eq, 10.0), "non-constant");
        assert!(!e.satisfies_all(PredOp::Ge, f64::NAN));
    }

    #[test]
    fn satisfies_all_requires_null_and_nan_freedom() {
        // One NULL: the NULL row fails every comparison.
        let with_null = zones(&Column::from_i64_opt(vec![Some(1), None]), 4);
        assert!(!with_null.entries[0].satisfies_all(PredOp::Ge, 0.0));
        // One NaN: hides outside the bounds, fails every comparison.
        let with_nan = zones(&Column::from_f64(vec![1.0, f64::NAN]), 4);
        assert!(!with_nan.entries[0].satisfies_all(PredOp::Ge, 0.0));
    }
}
