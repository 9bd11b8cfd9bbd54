//! The aggregate operator: accumulators, the group table, zone-synopsis
//! pushdown, the morsel-parallel aggregate pipeline, partial merge and
//! output assembly.

use crate::error::{QueryError, Result};
use crate::exec::{eval_conjuncts_mask, normalize_expr, normalize_name, pruner_for, zone_chunks};
use crate::morsel::{parallel_morsels, ExecOptions};
use crate::plan::AggSpec;
use crate::pruning::{ScanStats, ZoneDecision};
use crate::sexpr::ScalarExpr;
use crate::sql::AggFunc;
use lawsdb_obs::fields;
use lawsdb_storage::column::NumericAggState;
use lawsdb_storage::schema::{DataType, Field, Schema};
use lawsdb_storage::zonemap::ColumnZones;
use lawsdb_storage::bitmap::Bitmap;
use lawsdb_storage::{Column, Table, Value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

// --------------------------------------------------------- group table

/// A group/join key cell under the grouping rule: NULL is its own key,
/// an integral finite float with |f| < 9e18 is the equal int (so −0.0,
/// +0.0 and 0 are one key), and any other float is its bit pattern (so
/// each NaN payload is its own key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum KeyPart {
    Null,
    Int(i64),
    Float(u64),
    Str(String),
    Bool(bool),
}

impl KeyPart {
    pub(crate) fn from_value(v: &Value) -> KeyPart {
        match v {
            Value::Null => KeyPart::Null,
            Value::Int(i) => KeyPart::Int(*i),
            Value::Float(f) => float_part(*f),
            Value::Str(s) => KeyPart::Str(s.clone()),
            Value::Bool(b) => KeyPart::Bool(*b),
        }
    }
}

fn float_part(f: f64) -> KeyPart {
    if f.fract() == 0.0 && f.is_finite() && f.abs() < 9.0e18 {
        KeyPart::Int(f as i64)
    } else {
        KeyPart::Float(f.to_bits())
    }
}

/// The hash of one key cell. Equal parts hash equal, and the column
/// loops of [`hash_column`] produce the same value for each cell.
pub(crate) fn hash_key_part(k: &KeyPart) -> u64 {
    match k {
        KeyPart::Null => mix(0x6e75_6c6c),
        KeyPart::Int(i) => mix(*i as u64),
        KeyPart::Float(bits) => mix(bits ^ 0x9e37_79b9_7f4a_7c15),
        KeyPart::Str(s) => hash_str(s),
        KeyPart::Bool(b) => mix(0xb001 + *b as u64),
    }
}

/// A multi-column key's hash: each column's part folded in, in order.
fn combine(h: u64, part: u64) -> u64 {
    (h ^ part).wrapping_mul(0xff51_afd7_ed55_8ccd)
}

/// The murmur3 finalizer: every input bit reaches every output bit.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

fn hash_str(s: &str) -> u64 {
    mix(s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3)))
}

/// Fold every row's cell of `col` into `hashes`, one typed loop per
/// column type.
fn hash_column(col: &Column, hashes: &mut [u64]) {
    let validity = col.validity();
    let null = hash_key_part(&KeyPart::Null);
    let mut fold = |i: usize, part: u64| {
        hashes[i] = combine(hashes[i], if validity.get(i) { part } else { null });
    };
    match col {
        Column::Int64 { data, .. } => {
            data.iter().enumerate().for_each(|(i, &v)| fold(i, hash_key_part(&KeyPart::Int(v))))
        }
        Column::Float64 { data, .. } => {
            data.iter().enumerate().for_each(|(i, &v)| fold(i, hash_key_part(&float_part(v))))
        }
        Column::Str { data, .. } => {
            data.iter().enumerate().for_each(|(i, s)| fold(i, hash_str(s)))
        }
        Column::Bool { data, .. } => {
            (0..data.len()).for_each(|i| fold(i, hash_key_part(&KeyPart::Bool(data.get(i)))))
        }
    }
}

/// The key part of one cell, read from the raw buffers.
fn cell_part(col: &Column, row: usize) -> KeyPart {
    if !col.validity().get(row) {
        return KeyPart::Null;
    }
    match col {
        Column::Int64 { data, .. } => KeyPart::Int(data[row]),
        Column::Float64 { data, .. } => float_part(data[row]),
        Column::Str { data, .. } => KeyPart::Str(data[row].clone()),
        Column::Bool { data, .. } => KeyPart::Bool(data.get(row)),
    }
}

/// `cell_part(col, row) == *k`, without copying a string cell.
fn cell_eq(col: &Column, row: usize, k: &KeyPart) -> bool {
    match col {
        Column::Str { data, validity } if validity.get(row) => {
            matches!(k, KeyPart::Str(s) if *s == data[row])
        }
        _ => cell_part(col, row) == *k,
    }
}

/// The id of a row the selection dropped: it belongs to no group.
pub(crate) const NO_GROUP: u32 = u32::MAX;

/// Hands a precomputed key hash to the map unchanged.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the group table hashes keys itself");
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h;
    }
}

/// Group ids by key, in first-encounter order. The map holds each hash's
/// newest group and `next` chains the older groups sharing that hash;
/// every hit is checked against the stored key, so distinct keys never
/// share a group whatever their hashes. A key is copied out once per
/// new group, never per row.
#[derive(Default)]
pub(crate) struct GroupTable {
    heads: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    next: Vec<u32>,
    pub(crate) keys: Vec<Vec<KeyPart>>,
}

impl GroupTable {
    fn find(&self, hash: u64, eq: impl Fn(&[KeyPart]) -> bool) -> Option<u32> {
        let mut g = *self.heads.get(&hash)?;
        while !eq(&self.keys[g as usize]) {
            g = self.next[g as usize];
            if g == NO_GROUP {
                return None;
            }
        }
        Some(g)
    }

    fn insert(&mut self, hash: u64, key: Vec<KeyPart>) -> u32 {
        let g = u32::try_from(self.keys.len()).expect("fewer than 2^32 - 1 groups");
        self.next.push(self.heads.insert(hash, g).unwrap_or(NO_GROUP));
        self.keys.push(key);
        g
    }

    /// The group of `key` (whose hash is `hash`) and whether it is new.
    pub(crate) fn group_of(&mut self, hash: u64, key: Vec<KeyPart>) -> (u32, bool) {
        match self.find(hash, |k| *k == key[..]) {
            Some(g) => (g, false),
            None => (self.insert(hash, key), true),
        }
    }

    /// The group id of each of `n` rows keyed by the columns `keys`
    /// ([`NO_GROUP`] for rows `sel` drops). `opened(row)` runs for each
    /// row that opens a group, in row order.
    pub(crate) fn group_ids(
        &mut self,
        keys: &[&Column],
        n: usize,
        sel: Option<&Bitmap>,
        opened: impl FnMut(usize),
    ) -> Vec<u32> {
        let mut hashes = vec![0; n];
        for col in keys {
            hash_column(col, &mut hashes);
        }
        self.probe(keys, &hashes, sel, opened)
    }

    /// [`Self::group_ids`] under precomputed row hashes.
    fn probe(
        &mut self,
        keys: &[&Column],
        hashes: &[u64],
        sel: Option<&Bitmap>,
        mut opened: impl FnMut(usize),
    ) -> Vec<u32> {
        let mut ids = vec![NO_GROUP; hashes.len()];
        let mut probe_row = |row: usize| {
            // No key columns: one group, and no probe once it exists.
            let found = if keys.is_empty() && !self.keys.is_empty() {
                Some(0)
            } else {
                let eq = |k: &[KeyPart]| keys.iter().zip(k).all(|(c, k)| cell_eq(c, row, k));
                self.find(hashes[row], eq)
            };
            ids[row] = found.unwrap_or_else(|| {
                opened(row);
                self.insert(hashes[row], keys.iter().map(|c| cell_part(c, row)).collect())
            });
        };
        match sel {
            Some(sel) => sel.iter_set().for_each(&mut probe_row),
            None => (0..hashes.len()).for_each(probe_row),
        }
        ids
    }
}

// ----------------------------------------------------------- aggregate

/// One aggregate's running state. Numbers fold into a
/// [`NumericAggState`] (exact sum, sign-ordered ±0 bounds), so the state
/// is a function of the multiset of rows it has seen: partials merge in
/// any order to the same bits. `num.count` also counts `*` rows and
/// strings.
#[derive(Debug, Clone, Default)]
pub(crate) struct Accumulator {
    num: NumericAggState,
    /// `[MIN, MAX]` of a string argument. Boxed: a GROUP BY holds one
    /// accumulator per group and aggregate, nearly all numeric.
    strs: Option<Box<[String; 2]>>,
}

impl Accumulator {
    fn add_str(&mut self, s: &str) {
        self.num.count += 1;
        self.merge_strs(&[s, s]);
    }

    fn merge_strs(&mut self, [lo, hi]: &[&str; 2]) {
        match &mut self.strs {
            None => self.strs = Some(Box::new([lo.to_string(), hi.to_string()])),
            Some(b) => {
                if *lo < b[0].as_str() {
                    b[0] = lo.to_string();
                }
                if *hi > b[1].as_str() {
                    b[1] = hi.to_string();
                }
            }
        }
    }

    /// Combine with the accumulator of any other set of rows.
    pub(crate) fn merge(&mut self, other: &Accumulator) {
        self.num.merge(&other.num);
        if let Some(b) = &other.strs {
            self.merge_strs(&[b[0].as_str(), b[1].as_str()]);
        }
    }

    pub(crate) fn finish(&self, func: AggFunc) -> Value {
        let num = |v: f64| if self.num.count == 0 { Value::Null } else { Value::Float(v) };
        match func {
            AggFunc::Count => Value::Int(self.num.count as i64),
            AggFunc::Sum => num(self.num.sum.value()),
            AggFunc::Avg => self.num.mean().map_or(Value::Null, Value::Float),
            AggFunc::Min => match &self.strs {
                Some(b) => Value::Str(b[0].clone()),
                None => num(self.num.min),
            },
            AggFunc::Max => match &self.strs {
                Some(b) => Value::Str(b[1].clone()),
                None => num(self.num.max),
            },
        }
    }
}

/// Aggregate argument plan: what to evaluate per morsel. A string
/// column (MIN/MAX/COUNT only) is named, and folds its raw strings.
pub(crate) enum AggArg {
    Star,
    Numeric(ScalarExpr),
    Strings(String),
}

/// Resolve aggregate argument expressions against the input schema and
/// reject invalid shapes (e.g. SUM over strings) before any morsel runs.
pub(crate) fn prepare_agg_args(t: &Table, aggs: &[AggSpec]) -> Result<Vec<AggArg>> {
    let mut args = Vec::with_capacity(aggs.len());
    for a in aggs {
        match &a.arg {
            None => args.push(AggArg::Star),
            Some(e) => {
                let e = normalize_expr(e, t.schema())?;
                // String column? Only a bare column can be stringy here.
                let stringy = matches!(
                    &e,
                    ScalarExpr::Column(c)
                        if t.column(c).map(|col| col.data_type() == DataType::Str).unwrap_or(false)
                );
                if stringy {
                    if !matches!(a.func, AggFunc::Min | AggFunc::Max | AggFunc::Count) {
                        return Err(QueryError::InvalidAggregate {
                            reason: format!("{} over a string column", a.func.name()),
                        });
                    }
                    let ScalarExpr::Column(c) = e else { unreachable!() };
                    args.push(AggArg::Strings(c));
                } else {
                    args.push(AggArg::Numeric(e));
                }
            }
        }
    }
    Ok(args)
}

/// Partial aggregation state of one morsel: groups in first-encounter
/// order, each with the global row index of its first row, and one
/// accumulator per aggregate per group, group-major.
#[derive(Debug)]
pub(crate) struct GroupPartial {
    pub(crate) keys: Vec<Vec<KeyPart>>,
    pub(crate) first_rows: Vec<usize>,
    pub(crate) accs: Vec<Accumulator>,
}

// ------------------------------------------------- aggregate pushdown

/// Zone-synopsis aggregate pushdown plan for one eligible query.
///
/// Eligible shapes are global (no GROUP BY) aggregates whose every
/// argument is `*` or a bare Int64/Float64 column carrying zones. Each
/// morsel folds into one accumulator per aggregate: a zone
/// the pruner accepts wholesale folds its materialized [`ZoneAgg`]
/// partial, and every other row runs the fused filter+aggregate kernel.
/// Both produce exact sums, so which rows take which path never shows
/// in the answer.
///
/// [`ZoneAgg`]: lawsdb_storage::zonemap::ZoneAgg
struct AggPushdown<'t> {
    /// The distinct argument columns, with their zones.
    columns: Vec<(String, &'t ColumnZones)>,
    /// Per aggregate: `None` for `*`, else an index into `columns`.
    args: Vec<Option<usize>>,
}

/// Decide pushdown eligibility.
fn plan_agg_pushdown<'t>(
    t: &'t Table,
    group_by: &[String],
    args: &[AggArg],
) -> Option<AggPushdown<'t>> {
    if !group_by.is_empty() {
        return None;
    }
    let synopsis = t.synopsis()?;
    let mut push = AggPushdown { columns: Vec::new(), args: Vec::with_capacity(args.len()) };
    for a in args {
        let c = match a {
            AggArg::Star => {
                push.args.push(None);
                continue;
            }
            AggArg::Numeric(ScalarExpr::Column(c)) => c,
            _ => return None,
        };
        let zones = synopsis.column(c)?;
        // Bool columns aggregate through the 0/1 coercion path, which
        // the fused numeric kernel does not speak.
        let numeric = t
            .column(c)
            .map(|col| matches!(col.data_type(), DataType::Int64 | DataType::Float64))
            .unwrap_or(false);
        if !numeric {
            return None;
        }
        let i = push.columns.iter().position(|(n, _)| n == c).unwrap_or_else(|| {
            push.columns.push((c.clone(), zones));
            push.columns.len() - 1
        });
        push.args.push(Some(i));
    }
    Some(push)
}

/// Plan-time view of pushdown: the zones the executor would fold from
/// their partials if `rows` rows were accepted wholesale, or `None` when
/// the query shape is not eligible. The physical planner prices the
/// zone-aggregate access path with this — the executor's own rule — so
/// EXPLAIN never advertises a path execution won't take.
pub(crate) fn agg_pushdown_zones(
    t: &Table,
    group_by: &[String],
    aggs: &[AggSpec],
    rows: usize,
) -> Option<usize> {
    let args = prepare_agg_args(t, aggs).ok()?;
    let push = plan_agg_pushdown(t, group_by, &args)?;
    Some(push.columns.iter().map(|(_, z)| rows.div_ceil(z.zone_rows)).max().unwrap_or(0))
}

impl AggPushdown<'_> {
    /// Fold the accepted rows `[o, o + l)` into `accs`: each argument
    /// column folds the partials of its zones that lie wholly inside the
    /// range — zero page reads, zero per-row work — and scans the rows of
    /// zones the range clips. Returns the zones folded (per column; a
    /// table's columns share one zone grid).
    fn fold_accepted(
        &self,
        t: &Table,
        o: usize,
        l: usize,
        accs: &mut [Accumulator],
    ) -> Result<usize> {
        let mut folded = 0;
        let mut states = Vec::with_capacity(self.columns.len());
        for (name, zones) in &self.columns {
            let mut state = NumericAggState::default();
            let mut n = 0;
            for zi in zones.zones_for(o, l) {
                let (zs, ze) = zones.zone_range(zi);
                if zs >= o && ze <= o + l {
                    state.merge(&zones.entries[zi].agg_state());
                    n += 1;
                } else {
                    let (s, e) = (zs.max(o), ze.min(o + l));
                    state.merge(&t.column(name)?.slice(s, e - s)?.numeric_agg(None)?);
                }
            }
            folded = folded.max(n);
            states.push(state);
        }
        self.apply(accs, l, &states);
        Ok(folded)
    }

    /// Scan `[o, o + l)` with the fused filter+aggregate kernel:
    /// evaluate the selection mask once, then a single pass per column
    /// through [`NumericAggState`] — no intermediate `Option<f64>`
    /// materialization.
    fn scan(
        &self,
        t: &Table,
        o: usize,
        l: usize,
        predicate: Option<&ScalarExpr>,
        accs: &mut [Accumulator],
    ) -> Result<()> {
        let m = t.slice(o, l)?;
        let mask = predicate.map(|p| eval_conjuncts_mask(&p.conjuncts(), &m)).transpose()?;
        let sel = mask.as_ref().map(|pm| pm.truth());
        let states = self
            .columns
            .iter()
            .map(|(name, _)| Ok(m.column(name)?.numeric_agg(sel)?))
            .collect::<Result<Vec<_>>>()?;
        self.apply(accs, sel.map_or(l, |b| b.count_set()), &states);
        Ok(())
    }

    /// Fold per-column states into the aggregates; `*` counts `rows`.
    fn apply(&self, accs: &mut [Accumulator], rows: usize, states: &[NumericAggState]) {
        for (arg, acc) in self.args.iter().zip(accs) {
            match arg {
                None => acc.num.count += rows as u64,
                Some(c) => acc.num.merge(&states[*c]),
            }
        }
    }
}

/// Running group-and-accumulate state for one morsel. Zone pruning
/// feeds a morsel to [`Self::accumulate`] in several row-range chunks,
/// which all share one group table.
struct MorselAccumulator<'a> {
    group_by: &'a [String],
    args: &'a [AggArg],
    table: GroupTable,
    first_rows: Vec<usize>,
    accs: Vec<Accumulator>,
}

impl<'a> MorselAccumulator<'a> {
    fn new(group_by: &'a [String], args: &'a [AggArg]) -> Self {
        MorselAccumulator {
            group_by,
            args,
            table: GroupTable::default(),
            first_rows: Vec::new(),
            accs: Vec::new(),
        }
    }

    fn finish(self) -> GroupPartial {
        GroupPartial { keys: self.table.keys, first_rows: self.first_rows, accs: self.accs }
    }

    /// Group-and-accumulate one chunk (`m` is the zero-copy slice
    /// starting at row `offset`): assign every row its group id, then
    /// fold each aggregate's argument one column at a time. The optional
    /// predicate mask is fused in: only known-TRUE rows get a group.
    fn accumulate(
        &mut self,
        m: &Table,
        offset: usize,
        predicate: Option<&ScalarExpr>,
    ) -> Result<()> {
        let mask = predicate.map(|p| eval_conjuncts_mask(&p.conjuncts(), m)).transpose()?;
        let key_cols: Vec<&Column> = self
            .group_by
            .iter()
            .map(|g| m.column(g))
            .collect::<lawsdb_storage::Result<_>>()?;
        let n_aggs = self.args.len();
        let (first_rows, accs) = (&mut self.first_rows, &mut self.accs);
        let ids = self.table.group_ids(
            &key_cols,
            m.row_count(),
            mask.as_ref().map(|pm| pm.truth()),
            |row| {
                first_rows.push(offset + row);
                accs.resize(accs.len() + n_aggs, Accumulator::default());
            },
        );
        for (ai, arg) in self.args.iter().enumerate() {
            fold_arg(arg, m, &ids, accs, |g| g as usize * n_aggs + ai)?;
        }
        Ok(())
    }
}

/// Fold one aggregate's argument over a chunk: row `i` goes to the
/// accumulator `slot(ids[i])`. Bare numeric columns read their raw
/// buffer and validity, as [`Column::numeric_agg`] does; NULL and NaN
/// are skipped.
fn fold_arg(
    arg: &AggArg,
    m: &Table,
    ids: &[u32],
    accs: &mut [Accumulator],
    slot: impl Fn(u32) -> usize,
) -> Result<()> {
    fn fold(
        ids: &[u32],
        accs: &mut [Accumulator],
        slot: impl Fn(u32) -> usize,
        value: impl Fn(usize) -> Option<f64>,
    ) {
        for (i, &g) in ids.iter().enumerate() {
            if let (true, Some(v)) = (g != NO_GROUP, value(i)) {
                accs[slot(g)].num.update(v);
            }
        }
    }
    let rows = || ids.iter().enumerate().filter(|&(_, &g)| g != NO_GROUP);
    match arg {
        AggArg::Star => rows().for_each(|(_, &g)| accs[slot(g)].num.count += 1),
        AggArg::Numeric(e) => {
            let raw = match e {
                ScalarExpr::Column(c) => Some(m.column(c)?),
                _ => None,
            };
            match raw {
                Some(Column::Float64 { data, validity }) => {
                    fold(ids, accs, slot, |i| Some(data[i]).filter(|v| validity.get(i) && !v.is_nan()))
                }
                Some(Column::Int64 { data, validity }) => {
                    fold(ids, accs, slot, |i| validity.get(i).then(|| data[i] as f64))
                }
                _ => {
                    let vals = e.eval_numeric(m)?;
                    fold(ids, accs, slot, |i| vals[i])
                }
            }
        }
        AggArg::Strings(c) => {
            let col = m.column(c)?;
            let data = col.str_data()?;
            for (i, &g) in rows() {
                if col.validity().get(i) {
                    accs[slot(g)].add_str(&data[i]);
                }
            }
        }
    }
    Ok(())
}

/// Fold partials, passed in any order, into one state whose groups come
/// in ascending first row: the first-encounter order of a serial pass
/// over the same rows. The accumulators merge to the same bits in any
/// order. A lone partial is that state already: its groups are unique
/// and in first-row order.
pub(crate) fn merge_partials(mut parts: Vec<GroupPartial>) -> GroupPartial {
    if parts.len() == 1 {
        return parts.remove(0);
    }
    let mut order: Vec<(usize, usize)> = (0..parts.len())
        .flat_map(|p| (0..parts[p].first_rows.len()).map(move |i| (p, i)))
        .collect();
    // Stable, and the engine's morsel partials arrive already sorted.
    order.sort_by_key(|&(p, i)| parts[p].first_rows[i]);
    let mut table = GroupTable::default();
    let (mut first_rows, mut accs) = (Vec::new(), Vec::<Accumulator>::new());
    for (p, i) in order {
        let part = &mut parts[p];
        let n = part.accs.len() / part.keys.len();
        let key = std::mem::take(&mut part.keys[i]);
        let hash = key.iter().fold(0, |h, k| combine(h, hash_key_part(k)));
        let theirs = &part.accs[i * n..(i + 1) * n];
        match table.group_of(hash, key) {
            (g, false) => {
                let mine = &mut accs[g as usize * n..(g as usize + 1) * n];
                mine.iter_mut().zip(theirs).for_each(|(mine, theirs)| mine.merge(theirs));
            }
            (_, true) => {
                first_rows.push(part.first_rows[i]);
                accs.extend_from_slice(theirs);
            }
        }
    }
    GroupPartial { keys: table.keys, first_rows, accs }
}

/// Assemble the output table from merged group state: group key columns
/// (gathered from each group's first row) in declared order, then one
/// column per aggregate.
fn assemble_aggregate(
    t: &Table,
    group_by: &[String],
    aggs: &[AggSpec],
    mut part: GroupPartial,
) -> Result<Table> {
    // Global aggregate over an empty input still yields one row.
    if group_by.is_empty() && part.first_rows.is_empty() {
        part.first_rows.push(usize::MAX);
        part.accs = vec![Accumulator::default(); aggs.len()];
    }
    let mut fields = Vec::new();
    let mut cols = Vec::new();
    for g in group_by {
        let src = t.column(g)?;
        fields.push(Field {
            name: g.clone(),
            data_type: src.data_type(),
            nullable: true,
        });
        cols.push(src.take(&part.first_rows)?);
    }
    for (ai, a) in aggs.iter().enumerate() {
        let values: Vec<Value> =
            part.accs.iter().skip(ai).step_by(aggs.len()).map(|acc| acc.finish(a.func)).collect();
        let (field, col) = aggregate_column(t.schema(), a, &values);
        fields.push(field);
        cols.push(col);
    }
    Ok(Table::new("result", Schema::new(fields), cols)?)
}

/// Morsel-parallel aggregation over a scanned table, with an optional
/// fused filter predicate.
///
/// Each morsel splits into zone chunks ([`zone_chunks`]); skipped
/// chunks vanish, and the rest fold into the morsel's accumulators:
///
/// * **Pushdown-eligible global aggregates** ([`plan_agg_pushdown`])
///   keep one accumulator per aggregate. Accepted zones fold their
///   materialized [`ZoneAgg`] partials (`zones_agg_synopsis` counts
///   them — zero page reads, zero per-row work); every other row runs
///   the fused vectorized filter+aggregate kernel.
/// * **Everything else** (grouped or non-bare-column aggregates) shares
///   one group table across the morsel's chunks; accept-all chunks
///   accumulate without evaluating the mask.
///
/// Accumulators hold exact sums and sign-ordered bounds, so the answer
/// is the same at any thread count, morsel size, zone grid or pruning
/// setting.
///
/// [`ZoneAgg`]: lawsdb_storage::zonemap::ZoneAgg
pub(crate) fn aggregate_pipeline(
    t: &Table,
    predicate: Option<&ScalarExpr>,
    group_by: &[String],
    aggs: &[AggSpec],
    opts: &ExecOptions,
) -> Result<Table> {
    let (group_by, groups) = aggregate_groups(t, predicate, group_by, aggs, opts)?;
    assemble_aggregate(t, &group_by, aggs, groups)
}

/// The pipeline body of [`aggregate_pipeline`], stopping before the
/// output table: normalized GROUP BY names plus the merged groups, in
/// first-encounter order. The sharded scatter-gather coordinator
/// (`crate::partial`) runs this per shard and merges the shards' groups.
pub(crate) fn aggregate_groups(
    t: &Table,
    predicate: Option<&ScalarExpr>,
    group_by: &[String],
    aggs: &[AggSpec],
    opts: &ExecOptions,
) -> Result<(Vec<String>, GroupPartial)> {
    let group_by: Vec<String> = group_by
        .iter()
        .map(|g| normalize_name(t.schema(), g))
        .collect::<Result<_>>()?;
    let args = prepare_agg_args(t, aggs)?;
    let push = plan_agg_pushdown(t, &group_by, &args);
    let pruner = pruner_for(predicate, opts);
    let parts = parallel_morsels(t.row_count(), opts, |offset, len| {
        let chunks = zone_chunks(t, pruner.as_ref(), predicate.is_some(), opts, offset, len);
        let Some(push) = &push else {
            let mut acc = MorselAccumulator::new(&group_by, &args);
            for (o, l, d) in chunks {
                let pred = match d {
                    ZoneDecision::Skip => continue,
                    ZoneDecision::AcceptAll => None,
                    ZoneDecision::Eval => predicate,
                };
                acc.accumulate(&t.slice(o, l)?, o, pred)?;
            }
            return Ok(acc.finish());
        };
        let mut accs = vec![Accumulator::default(); aggs.len()];
        let mut pushed = 0;
        for (o, l, d) in chunks {
            match d {
                ZoneDecision::Skip => {}
                ZoneDecision::AcceptAll => {
                    let zones = push.fold_accepted(t, o, l, &mut accs)?;
                    if let (Some(ctx), true) = (&opts.profile, zones > 0) {
                        ctx.leaf("zone", o as u64, fields![rows = l, zones, decision = "agg_synopsis"]);
                    }
                    pushed += zones;
                }
                ZoneDecision::Eval => push.scan(t, o, l, predicate, &mut accs)?,
            }
        }
        if let (Some(c), true) = (&opts.stats, pushed > 0) {
            c.add(&ScanStats { zones_agg_synopsis: pushed, ..ScanStats::default() });
        }
        Ok(GroupPartial { keys: vec![Vec::new()], first_rows: vec![offset], accs })
    })?;
    Ok((group_by, merge_partials(parts)))
}

/// Aggregate an already-materialized input table (non-pipeline shapes:
/// joins, nested aggregates, ...). One morsel covering the whole table,
/// so this is the plain serial pass.
pub(crate) fn aggregate(t: &Table, group_by: &[String], aggs: &[AggSpec]) -> Result<Table> {
    aggregate_pipeline(
        t,
        None,
        group_by,
        aggs,
        &ExecOptions { threads: 1, morsel_rows: usize::MAX, ..ExecOptions::default() },
    )
}

/// An aggregate's output column. Its type follows from the function
/// and argument, never from the values, so zero groups or all-NULL
/// groups type it the same: COUNT is Int64, MIN/MAX over a string
/// column is Str, everything else is Float64.
pub(crate) fn aggregate_column(schema: &Schema, a: &AggSpec, values: &[Value]) -> (Field, Column) {
    let over_strings = || match &a.arg {
        Some(ScalarExpr::Column(c)) => normalize_name(schema, c)
            .is_ok_and(|c| schema.field(&c).is_some_and(|f| f.data_type == DataType::Str)),
        _ => false,
    };
    let dtype = a.func.result_type(over_strings());
    (Field::nullable(a.name.clone(), dtype), column_from_typed(dtype, values))
}

/// Build a column of a known type from dynamic values — the same shape
/// `Column::take` over a source column of that type produces.
pub(crate) fn column_from_typed(dtype: DataType, values: &[Value]) -> Column {
    let mut col = match dtype {
        DataType::Int64 => Column::from_i64_opt(values.iter().map(|v| v.as_i64()).collect()),
        DataType::Float64 => Column::from_f64_opt(values.iter().map(|v| v.as_f64()).collect()),
        DataType::Str => {
            Column::from_str(values.iter().map(|v| v.as_str().unwrap_or("").to_string()).collect())
        }
        DataType::Bool => {
            let bits: Vec<bool> = values.iter().map(|v| matches!(v, Value::Bool(true))).collect();
            Column::from_bool(&bits)
        }
    };
    mark_nulls(&mut col, values);
    col
}

fn mark_nulls(col: &mut Column, values: &[Value]) {
    let validity = match col {
        Column::Int64 { validity, .. }
        | Column::Float64 { validity, .. }
        | Column::Str { validity, .. }
        | Column::Bool { validity, .. } => validity,
    };
    for (i, v) in values.iter().enumerate() {
        if v.is_null() {
            validity.set(i, false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_storage::{Catalog, TableBuilder};

    #[test]
    fn keys_forced_onto_one_hash_keep_their_own_groups() {
        let mut t = GroupTable::default();
        assert_eq!(t.group_of(7, vec![KeyPart::Int(1)]), (0, true));
        assert_eq!(t.group_of(7, vec![KeyPart::Str("1".into())]), (1, true));
        assert_eq!(t.group_of(7, vec![KeyPart::Int(1)]), (0, false));
        assert_eq!(t.group_of(7, vec![KeyPart::Str("1".into())]), (1, false));
        // The column probe with every row forced onto hash 0.
        let col = Column::from_i64(vec![5, 3, 5, 9, 3]);
        let mut t = GroupTable::default();
        let mut opened = Vec::new();
        let ids = t.probe(&[&col], &[0; 5], None, |row| opened.push(row));
        assert_eq!(ids, [0, 1, 0, 2, 1]);
        assert_eq!(opened, [0, 1, 3]);
        assert_eq!(t.keys, [[KeyPart::Int(5)], [KeyPart::Int(3)], [KeyPart::Int(9)]]);
    }

    #[test]
    fn column_hashes_equal_hash_key_part_of_each_cell() {
        use Value::{Bool, Float, Int, Null, Str};
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let payload = f64::from_bits(nan.to_bits() | 1);
        let floats = [nan, -nan, payload, -payload, -0.0, 0.0, 2.0, 2.5, inf, -inf, 9.5e18];
        let cols = [
            column_from_typed(
                DataType::Float64,
                &floats.iter().map(|&f| Float(f)).chain([Null]).collect::<Vec<_>>(),
            ),
            column_from_typed(DataType::Int64, &[Int(2), Int(0), Null, Int(-1), Int(i64::MIN)]),
            column_from_typed(DataType::Str, &[Str("b".into()), Null, Str(String::new())]),
            column_from_typed(DataType::Bool, &[Bool(true), Null, Bool(false)]),
        ];
        for col in &cols {
            let mut hashes = vec![0; col.len()];
            hash_column(col, &mut hashes);
            for (row, &h) in hashes.iter().enumerate() {
                let part = KeyPart::from_value(&col.value(row).unwrap());
                assert_eq!(h, combine(0, hash_key_part(&part)), "{col:?} row {row}");
                assert!(cell_eq(col, row, &part), "{col:?} row {row}");
            }
        }
        // The rule: ±0.0 are 0, 2.0 is 2, and each NaN payload is its own key.
        assert_eq!([float_part(-0.0), float_part(0.0)], [KeyPart::Int(0), KeyPart::Int(0)]);
        assert_eq!(float_part(2.0), KeyPart::Int(2));
        let nans: Vec<KeyPart> = [nan, -nan, payload].map(float_part).into();
        assert!(nans.iter().enumerate().all(|(i, a)| nans[..i].iter().all(|b| a != b)));
    }

    #[test]
    fn group_by_string_and_bool_columns_in_first_encounter_order() {
        use Value::{Bool, Int, Null, Str};
        let s = |v: &str| Str(v.into());
        let mut b = TableBuilder::new("t");
        let strs = [s("b"), s("a"), Null, s("b"), s("a"), s("b")];
        b.add_column(Field::nullable("s", DataType::Str), column_from_typed(DataType::Str, &strs));
        let bools = [Bool(true), Bool(false), Bool(true), Null, Bool(false), Bool(true)];
        b.add_column(Field::nullable("f", DataType::Bool), column_from_typed(DataType::Bool, &bools));
        let c = Catalog::new();
        c.register(b.build().unwrap()).unwrap();
        // Two-row morsels: the groups also merge across morsels.
        let opts = ExecOptions { threads: 1, morsel_rows: 2, ..ExecOptions::default() };
        let rows = |sql: &str| {
            let t = crate::exec::execute_with(&c, sql, &opts).unwrap().table;
            (0..t.row_count()).map(|i| t.row(i).unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(
            rows("SELECT s, COUNT(*) AS n FROM t GROUP BY s"),
            [vec![s("b"), Int(3)], vec![s("a"), Int(2)], vec![Null, Int(1)]]
        );
        assert_eq!(
            rows("SELECT f, COUNT(*) AS n FROM t GROUP BY f"),
            [vec![Bool(true), Int(3)], vec![Bool(false), Int(2)], vec![Null, Int(1)]]
        );
    }

    #[test]
    fn aggregate_columns_follow_the_select_list() {
        let mut b = TableBuilder::new("t");
        b.add_i64("g", vec![2, 1, 2]).add_f64("x", vec![1.0, 5.0, 3.0]);
        let c = Catalog::new();
        c.register(b.build().unwrap()).unwrap();
        let answer = |sql: &str| {
            let t = crate::exec::execute_with(&c, sql, &ExecOptions::default()).unwrap().table;
            let names = t.schema().names().into_iter().map(String::from).collect::<Vec<_>>();
            (names, (0..t.row_count()).map(|i| t.row(i).unwrap()).collect::<Vec<_>>())
        };
        let (names, rows) = answer("SELECT AVG(x) AS m, g FROM t GROUP BY g");
        assert_eq!(names, ["m", "g"]);
        assert_eq!(rows, [[Value::Float(2.0), Value::Int(2)], [Value::Float(5.0), Value::Int(1)]]);
        let (names, rows) = answer("SELECT COUNT(*) AS n FROM t GROUP BY g ORDER BY n");
        assert_eq!(names, ["n"]);
        assert_eq!(rows, [[Value::Int(1)], [Value::Int(2)]]);
    }

    #[test]
    fn one_morsel_and_many_give_the_same_bits() {
        let n = 500;
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // Float group keys with NaN, ±0.0 and NULL among them; values
        // spanning magnitudes, so the exact sums and folds are tested.
        let keys = [0.0, -0.0, 1.5, f64::NAN, 2.0, 7.25];
        let g: Vec<Option<f64>> = (0..n)
            .map(|_| (unit() > 0.05).then(|| keys[(unit() * keys.len() as f64) as usize]))
            .collect();
        let v: Vec<Option<f64>> = (0..n)
            .map(|_| (unit() > 0.1).then(|| (unit() - 0.5) * 10f64.powf(unit() * 12.0)))
            .collect();
        let mut b = TableBuilder::new("t");
        b.add_column(Field::nullable("g", DataType::Float64), Column::from_f64_opt(g));
        b.add_column(Field::nullable("v", DataType::Float64), Column::from_f64_opt(v));
        let c = Catalog::new();
        c.register(b.build().unwrap()).unwrap();
        let sql = "SELECT g, COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS s, AVG(v) AS m, \
                   MIN(v) AS lo, MAX(v) AS hi FROM t GROUP BY g";
        let bits = |threads: usize, morsel_rows: usize| {
            let opts = ExecOptions { threads, morsel_rows, ..ExecOptions::default() };
            let t = crate::exec::execute_with(&c, sql, &opts).unwrap().table;
            let cell = |v: &Value| match v {
                Value::Float(f) => format!("f{:016x}", f.to_bits()),
                other => format!("{other:?}"),
            };
            let row = |i| t.row(i).unwrap().iter().map(cell).collect::<Vec<_>>();
            (0..t.row_count()).map(row).collect::<Vec<_>>()
        };
        let lone = bits(1, usize::MAX);
        // ±0.0 are one group, and NULL is one more.
        assert_eq!(lone.len(), 6, "{lone:?}");
        for (threads, morsel_rows) in [(1, 1), (1, 7), (4, 7), (4, 64)] {
            assert_eq!(bits(threads, morsel_rows), lone, "{threads} threads, {morsel_rows} rows");
        }
    }
}
