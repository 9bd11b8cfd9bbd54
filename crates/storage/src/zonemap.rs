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
//! Two provenances share the representation ([`ZoneSource`]):
//!
//! * **Data** zones are exact min/max computed from the stored values.
//! * **Model** zones are `prediction ± max-absolute-residual` bounds
//!   derived from a captured model covering the column. They bound
//!   every stored value (the residual bound is computed against the
//!   same snapshot), so pruning against them is exactly as sound, but
//!   they exist *without* the column being materialized — a
//!   semantically compressed column still supports pruning.
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
//! Data zones also carry a per-zone **aggregate synopsis**
//! ([`ZoneAgg`]): the count of aggregate-visible values and their
//! in-row-order f64 (and, for integer sources, exact i64) sums. The
//! same exclusion rule applies — NULL rows and NaN values are invisible
//! to SQL aggregates (the expression layer maps NaN to NULL) — so an
//! accepted zone can contribute COUNT/SUM/AVG/MIN/MAX partials with
//! zero IO and zero per-row work. An all-NULL/NaN zone keeps its count
//! (zero) but carries no sums, and still aggregates correctly: it
//! contributes nothing, exactly like the scan would.

use crate::column::Column;
use std::collections::BTreeMap;

/// Default zone granularity, in rows.
pub const DEFAULT_ZONE_ROWS: usize = 4096;

/// Comparison operator vocabulary shared by zone pruning and the
/// compressed-domain predicate kernels (`compress::*::eval_cmp`).
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

    /// Apply to a total ordering of `lhs` relative to `rhs` (integer,
    /// packed-code, and string kernels all reduce to this).
    #[inline]
    pub fn eval_ord(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            PredOp::Lt => ord == Less,
            PredOp::Le => ord != Greater,
            PredOp::Gt => ord == Greater,
            PredOp::Ge => ord != Less,
            PredOp::Eq => ord == Equal,
            PredOp::Ne => ord != Equal,
        }
    }

    /// Apply to integer operands (compressed-domain kernels).
    #[inline]
    pub fn eval_i64(self, lhs: i64, rhs: i64) -> bool {
        self.eval_ord(lhs.cmp(&rhs))
    }

    /// Apply to unsigned operands (packed-domain kernels).
    #[inline]
    pub fn eval_u64(self, lhs: u64, rhs: u64) -> bool {
        self.eval_ord(lhs.cmp(&rhs))
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
/// `sum_f64` is the f64 sum folded **in row order** starting from
/// `0.0` — the exact order (and therefore the exact bits) a scan-time
/// accumulator produces over the same zone, which is what keeps pushed
/// answers bit-identical to full scans. `sum_i64` is the wrapping
/// exact integer sum for integer-valued sources (Int64 and Bool 0/1
/// columns); it is not subject to f64 rounding and serves consumers
/// that want exactness over bit-replay. Invariant: when `count == 0`
/// (an all-NULL/NaN zone) both sums are absent — the count is still
/// present, and aggregation stays correct because such a zone
/// contributes nothing, exactly like the scan would.
#[derive(Debug, Clone, Copy)]
pub struct ZoneAgg {
    /// Aggregate-visible values (non-NULL, non-NaN) folded into sums.
    pub count: u32,
    /// Row-order f64 sum of visible values; `None` when `count == 0`.
    /// May be non-finite (overflow to ±inf, or NaN via `inf + -inf`)
    /// even though the inputs never are.
    pub sum_f64: Option<f64>,
    /// Wrapping i64 sum for integer-valued sources; `None` for float
    /// columns or when `count == 0`.
    pub sum_i64: Option<i64>,
}

impl PartialEq for ZoneAgg {
    fn eq(&self, other: &ZoneAgg) -> bool {
        // Sums compare by bits: the whole point of the row-order fold
        // is bit-level reproducibility (and NaN sums must round-trip).
        self.count == other.count
            && self.sum_f64.map(f64::to_bits) == other.sum_f64.map(f64::to_bits)
            && self.sum_i64 == other.sum_i64
    }
}

/// Synopsis of one zone of one column.
///
/// `min > max` encodes "no bounded values" (all rows NULL/NaN, or an
/// empty zone). `min`/`max` are never NaN. Because NULL and NaN rows
/// are *excluded* from the bounds, `[min, max]` refutes predicates
/// soundly but cannot by itself certify that every row satisfies one —
/// see [`ZoneEntry::satisfies_all`] for the certified accept path.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// Materialized aggregate partials. `Some` for exact data zones
    /// built by the write path; `None` for model zones (no exact values
    /// to sum).
    pub agg: Option<ZoneAgg>,
}

impl ZoneEntry {
    /// A zone with no bounded values (prunes against any comparison).
    pub fn empty(rows: u32, null_count: u32) -> ZoneEntry {
        ZoneEntry {
            rows,
            null_count,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            constant: false,
            agg: None,
        }
    }

    /// A zone whose rows are only known to lie in `[lo, hi]` (model
    /// bounds; unknown null structure, so never constant and never
    /// carrying aggregate partials).
    pub fn bounded(rows: u32, lo: f64, hi: f64) -> ZoneEntry {
        ZoneEntry { rows, null_count: 0, min: lo, max: hi, constant: false, agg: None }
    }

    /// True when the zone holds at least one bounded value.
    #[inline]
    pub fn has_values(&self) -> bool {
        self.min <= self.max
    }

    /// Could *any* row in this zone satisfy `value <op> rhs`?
    ///
    /// `false` is a proof (the zone can be skipped); `true` is merely
    /// "cannot rule it out". Sound only for predicates that no NULL or
    /// NaN row can satisfy — true of every comparison operator here.
    pub fn may_match(&self, op: PredOp, rhs: f64) -> bool {
        if rhs.is_nan() || !self.has_values() {
            return false;
        }
        match op {
            PredOp::Lt => self.min < rhs,
            PredOp::Le => self.min <= rhs,
            PredOp::Gt => self.max > rhs,
            PredOp::Ge => self.max >= rhs,
            PredOp::Eq => self.min <= rhs && rhs <= self.max,
            PredOp::Ne => !(self.min == self.max && self.min == rhs),
        }
    }

    /// For a constant zone, the single comparison that decides every
    /// row: `Some(true)` means all rows match, `Some(false)` none do.
    /// `None` when the zone is not constant (per-row evaluation
    /// required). Only meaningful for exact (`ZoneSource::Data`) zones.
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
    /// so the zone must be proven free of both. `null_count == 0` rules
    /// out NULLs; NaN-freedom comes from the aggregate synopsis
    /// (`agg.count` counts non-NULL *non-NaN* values, so it equals
    /// `rows` exactly when no NaN hides outside the bounds) or from the
    /// `constant` flag, whose construction already excludes NaN. Model
    /// zones carry neither certificate (`bounded()` claims zero nulls
    /// without knowing the null structure) and are never accepted.
    pub fn satisfies_all(&self, op: PredOp, rhs: f64) -> bool {
        if rhs.is_nan() || self.rows == 0 || self.null_count > 0 || !self.has_values() {
            return false;
        }
        let nan_free = match &self.agg {
            Some(a) => a.count == self.rows,
            None => self.constant,
        };
        if !nan_free {
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
            // Unbounded (model said nothing): even odds.
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

/// Where a column's zone bounds came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneSource {
    /// Exact min/max computed from stored values at write time.
    Data,
    /// `prediction ± max-abs-residual` bounds from a captured model.
    Model,
}

/// The zone map of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnZones {
    /// Provenance of the bounds.
    pub source: ZoneSource,
    /// Zone granularity in rows.
    pub zone_rows: usize,
    /// One entry per zone, in row order.
    pub entries: Vec<ZoneEntry>,
}

impl ColumnZones {
    /// Build exact data zones for a column. Strings carry no usable
    /// bounds for numeric comparison pruning and return `None`.
    pub fn build(col: &Column, zone_rows: usize) -> Option<ColumnZones> {
        assert!(zone_rows > 0, "zone_rows must be positive");
        let n = col.len();
        let validity = col.validity();
        let all_valid = validity.all_set();
        let value_at: Box<dyn Fn(usize) -> f64> = match col {
            Column::Int64 { data, .. } => Box::new(move |i| data[i] as f64),
            Column::Float64 { data, .. } => Box::new(move |i| data[i]),
            Column::Bool { data, .. } => {
                Box::new(move |i| if data.get(i) { 1.0 } else { 0.0 })
            }
            Column::Str { .. } => return None,
        };
        // Exact integer view for the wrapping i64 sum; floats have none.
        let int_at: Option<Box<dyn Fn(usize) -> i64>> = match col {
            Column::Int64 { data, .. } => Some(Box::new(move |i| data[i])),
            Column::Bool { data, .. } => Some(Box::new(move |i| data.get(i) as i64)),
            _ => None,
        };
        let mut entries = Vec::with_capacity(n.div_ceil(zone_rows).max(1));
        let mut start = 0;
        loop {
            let end = (start + zone_rows).min(n);
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            let mut nulls = 0u32;
            let mut saw_nan = false;
            let mut count = 0u32;
            let mut sum_f = 0.0f64;
            let mut sum_i = 0i64;
            for i in start..end {
                if !all_valid && !validity.get(i) {
                    nulls += 1;
                    continue;
                }
                let v = value_at(i);
                if v.is_nan() {
                    // NaN never satisfies a comparison and is invisible
                    // to aggregates (the expression layer maps it to
                    // NULL); exclude it from the bounds and the sums but
                    // poison the constant flag.
                    saw_nan = true;
                    continue;
                }
                if v < min {
                    min = v;
                }
                if v > max {
                    max = v;
                }
                // Row-order fold from 0.0: bitwise the same sum a
                // scan-time accumulator computes over this zone.
                count += 1;
                sum_f += v;
                if let Some(ia) = &int_at {
                    sum_i = sum_i.wrapping_add(ia(i));
                }
            }
            // Constant ⇔ every row is valid, non-NaN, and equal.
            let constant = end > start && nulls == 0 && !saw_nan && min == max;
            let agg = ZoneAgg {
                count,
                sum_f64: (count > 0).then_some(sum_f),
                sum_i64: (count > 0 && int_at.is_some()).then_some(sum_i),
            };
            entries.push(ZoneEntry {
                rows: (end - start) as u32,
                null_count: nulls,
                min,
                max,
                constant,
                agg: Some(agg),
            });
            start = end;
            if start >= n {
                break;
            }
        }
        Some(ColumnZones { source: ZoneSource::Data, zone_rows, entries })
    }

    /// Build model-provenance zones from per-row predictions and a max
    /// absolute residual: every stored value of row `i` lies in
    /// `[pred[i] - bound, pred[i] + bound]`. Rows with non-finite
    /// predictions make their zone unbounded (never prunable) — the
    /// model says nothing about them.
    pub fn from_model_bounds(preds: &[f64], bound: f64, zone_rows: usize) -> ColumnZones {
        assert!(zone_rows > 0, "zone_rows must be positive");
        let n = preds.len();
        let mut entries = Vec::with_capacity(n.div_ceil(zone_rows).max(1));
        let mut start = 0;
        loop {
            let end = (start + zone_rows).min(n);
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut unbounded = false;
            for &p in &preds[start..end] {
                if !p.is_finite() {
                    unbounded = true;
                    break;
                }
                if p < lo {
                    lo = p;
                }
                if p > hi {
                    hi = p;
                }
            }
            let entry = if unbounded || !bound.is_finite() {
                ZoneEntry::bounded((end - start) as u32, f64::NEG_INFINITY, f64::INFINITY)
            } else if lo > hi {
                ZoneEntry::empty((end - start) as u32, 0)
            } else {
                ZoneEntry::bounded((end - start) as u32, lo - bound, hi + bound)
            };
            entries.push(entry);
            start = end;
            if start >= n {
                break;
            }
        }
        ColumnZones { source: ZoneSource::Model, zone_rows, entries }
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

/// Zone maps for a whole table, keyed by column name.
///
/// Built at write time ([`crate::table::TableBuilder::build`],
/// [`crate::table::Table::append_rows`]). Never persisted: a table read
/// back from [`crate::wal::DurableStore`] carries no synopsis, and the
/// caller rebuilds one on its own zone grid.
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
        let e = ZoneEntry { rows: 4, null_count: 0, min: 10.0, max: 20.0, constant: false, agg: None };
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
        let k = ZoneEntry { rows: 4, null_count: 0, min: 3.0, max: 3.0, constant: true, agg: None };
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
    fn model_bounds_widen_by_residual() {
        let preds = vec![10.0, 12.0, 30.0, 31.0];
        let z = ColumnZones::from_model_bounds(&preds, 0.5, 2);
        assert_eq!(z.source, ZoneSource::Model);
        assert_eq!((z.entries[0].min, z.entries[0].max), (9.5, 12.5));
        assert_eq!((z.entries[1].min, z.entries[1].max), (29.5, 31.5));
        // Model zones never claim constantness.
        assert_eq!(z.entries[0].decides_all(PredOp::Eq, 10.0), None);
    }

    #[test]
    fn non_finite_predictions_make_zone_unprunable() {
        let preds = vec![1.0, f64::NAN];
        let z = ColumnZones::from_model_bounds(&preds, 0.1, 2);
        assert!(z.entries[0].may_match(PredOp::Gt, 1e300));
        assert!(z.entries[0].may_match(PredOp::Lt, -1e300));
    }

    #[test]
    fn selectivity_interpolates_and_respects_proofs() {
        let e = ZoneEntry { rows: 100, null_count: 0, min: 0.0, max: 100.0, constant: false, agg: None };
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
        let f = ZoneEntry { rows: 100, null_count: 0, min: 0.12, max: 0.18, constant: false, agg: None };
        assert_eq!(f.selectivity(PredOp::Eq, 0.15), 0.05);
        assert_eq!(f.selectivity(PredOp::Ne, 0.15), 0.95);
        // Constant zones decide exactly.
        let k = ZoneEntry { rows: 10, null_count: 0, min: 7.0, max: 7.0, constant: true, agg: None };
        assert_eq!(k.selectivity(PredOp::Eq, 7.0), 1.0);
        assert_eq!(k.selectivity(PredOp::Eq, 8.0), 0.0);
        // NULLs scale the estimate down.
        let h = ZoneEntry { rows: 10, null_count: 5, min: 0.0, max: 10.0, constant: false, agg: None };
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
    fn build_materializes_row_order_aggregate_partials() {
        let c = Column::from_i64(vec![1, 2, 3, 4, 10, 20]);
        let z = zones(&c, 4);
        let a0 = z.entries[0].agg.unwrap();
        assert_eq!((a0.count, a0.sum_f64, a0.sum_i64), (4, Some(10.0), Some(10)));
        let a1 = z.entries[1].agg.unwrap();
        assert_eq!((a1.count, a1.sum_f64, a1.sum_i64), (2, Some(30.0), Some(30)));
        // Floats carry no i64 sum.
        let f = zones(&Column::from_f64(vec![0.5, 1.5]), 4);
        let af = f.entries[0].agg.unwrap();
        assert_eq!((af.count, af.sum_f64, af.sum_i64), (2, Some(2.0), None));
        // Bools sum as 0/1 with an exact integer view.
        let b = zones(&Column::from_bool(&[true, false, true]), 4);
        let ab = b.entries[0].agg.unwrap();
        assert_eq!((ab.count, ab.sum_f64, ab.sum_i64), (3, Some(2.0), Some(2)));
    }

    #[test]
    fn agg_excludes_nulls_and_nans_like_the_executor() {
        // NaN is aggregate-invisible (the expression layer maps it to
        // NULL), so the visible count differs from rows - null_count.
        let c = Column::from_f64_opt(vec![Some(1.0), None, Some(f64::NAN), Some(-2.0)]);
        let z = zones(&c, 4);
        let e = &z.entries[0];
        let a = e.agg.unwrap();
        assert_eq!(a.count, 2);
        assert_eq!(a.sum_f64, Some(-1.0));
        assert!(a.count < e.rows - e.null_count, "NaN must not count");
    }

    #[test]
    fn all_null_zone_keeps_count_but_no_sums() {
        let c = Column::from_f64_opt(vec![None, None, None]);
        let z = zones(&c, 4);
        let e = &z.entries[0];
        let a = e.agg.unwrap();
        assert_eq!((a.count, a.sum_f64, a.sum_i64), (0, None, None));
        // And an all-NaN zone looks the same to aggregates.
        let n = zones(&Column::from_f64(vec![f64::NAN, f64::NAN]), 4);
        let an = n.entries[0].agg.unwrap();
        assert_eq!((an.count, an.sum_f64), (0, None));
    }

    #[test]
    fn negative_zero_sums_match_the_accumulator_fold() {
        // The fold starts from +0.0 exactly like a scan-time
        // accumulator, so `0.0 + -0.0 = +0.0` applies to the first
        // value too: a zone of -0.0s sums to +0.0 in both places —
        // bitwise agreement is what matters, not sign preservation.
        let z = zones(&Column::from_f64(vec![-0.0, -0.0]), 4);
        let a = z.entries[0].agg.unwrap();
        assert_eq!(a.sum_f64.map(f64::to_bits), Some(0.0f64.to_bits()));
        // Bitwise equality still distinguishes genuinely different sums
        // (a -0.0 sum can arrive via hand-built synopses).
        let neg = ZoneAgg { sum_f64: Some(-0.0), ..a };
        assert_ne!(neg, a);
        // min/max keep-first folds preserve -0.0 (-0.0 < 0.0 is false,
        // so the first-seen zero wins) — again matching the scan.
        let p = zones(&Column::from_f64(vec![0.0, -0.0]), 4);
        assert_eq!(p.entries[0].min.to_bits(), 0.0f64.to_bits());
        let q = zones(&Column::from_f64(vec![-0.0, 0.0]), 4);
        assert_eq!(q.entries[0].min.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn integer_sums_wrap_instead_of_truncating() {
        let c = Column::from_i64(vec![i64::MAX, 1]);
        let z = zones(&c, 4);
        let a = z.entries[0].agg.unwrap();
        assert_eq!(a.sum_i64, Some(i64::MIN));
        // The f64 fold rounds; the i64 view is the exact complement.
        assert_eq!(a.sum_f64, Some(i64::MAX as f64 + 1.0));
    }

    #[test]
    fn model_zones_carry_no_aggregate_partials() {
        let z = ColumnZones::from_model_bounds(&[1.0, 2.0], 0.5, 2);
        assert!(z.entries.iter().all(|e| e.agg.is_none()));
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
        // Model zones have no certificate at all.
        let model = ColumnZones::from_model_bounds(&[5.0, 6.0], 0.0, 2);
        assert!(!model.entries[0].satisfies_all(PredOp::Ge, 0.0));
        // Entries without agg: only the constant flag certifies.
        let legacy = ZoneEntry {
            rows: 4,
            null_count: 0,
            min: 1.0,
            max: 2.0,
            constant: false,
            agg: None,
        };
        assert!(!legacy.satisfies_all(PredOp::Ge, 0.0));
        let konst = ZoneEntry { constant: true, max: 1.0, ..legacy };
        assert!(konst.satisfies_all(PredOp::Ge, 0.0));
    }
}
