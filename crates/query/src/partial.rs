//! Shard-side partial aggregation and coordinator-side merge for the
//! sharded scatter-gather execution layer (`lawsdb-cluster`).
//!
//! Every aggregate accumulator holds an exact sum and sign-ordered
//! bounds (`lawsdb_storage::column::NumericAggState`), so a group's
//! state is a function of the multiset of its rows: partials over any
//! split of the table merge, in any order, to the bits the single
//! engine computes. A shard therefore runs the engine's own pipeline on
//! its rows ([`shard_partials`]), whatever the partitioning, and reports
//! one merged partial; a group split across shards — any group of a
//! global aggregate, or of a GROUP BY that misses the hash key — simply
//! merges across them.
//!
//! [`merge_shard_partials`] merges the shards' groups and orders them by
//! ascending first-occurrence row in the global table — the
//! first-encounter order a serial scan of the global table produces.

use crate::aggregate::{
    aggregate_column, aggregate_groups, column_from_typed, merge_partials, Accumulator,
    GroupPartial, KeyPart,
};
use crate::error::{QueryError, Result};
use crate::exec::{normalize_expr, normalize_name, project, sort};
use crate::morsel::ExecOptions;
use crate::plan::AggSpec;
use crate::sexpr::ScalarExpr;
use crate::sql::OrderBy;
use lawsdb_storage::{Field, Schema, Table, Value};

/// The partial aggregate of one shard, or of several merged: its groups,
/// each carrying its *global* first-occurrence row.
#[derive(Debug)]
pub struct ShardPartials {
    part: GroupPartial,
    /// Base-table rows scanned to produce the partials.
    pub rows_scanned: usize,
}

/// Partial-aggregate one shard with the engine's own pipeline (zone
/// pruning and zone-aggregate pushdown included). `global_row(i)` is the
/// global row index of the shard's local row `i` and must increase with
/// `i`, so group order survives the mapping.
pub fn shard_partials(
    shard: &Table,
    global_row: impl Fn(usize) -> usize,
    predicate: Option<&ScalarExpr>,
    group_by: &[String],
    aggs: &[AggSpec],
    opts: &ExecOptions,
) -> Result<ShardPartials> {
    let predicate = predicate.map(|p| normalize_expr(p, shard.schema())).transpose()?;
    let (_, mut part) = aggregate_groups(shard, predicate.as_ref(), group_by, aggs, opts)?;
    for r in &mut part.first_rows {
        *r = global_row(*r);
    }
    Ok(ShardPartials { part, rows_scanned: shard.row_count() })
}

/// Merge shard partials (in any order); the groups come in ascending
/// global first row — the single engine's output order.
pub fn merge_shard_partials(shards: Vec<ShardPartials>) -> ShardPartials {
    let rows_scanned = shards.iter().map(|s| s.rows_scanned).sum();
    let part = merge_partials(shards.into_iter().map(|s| s.part).collect());
    ShardPartials { part, rows_scanned }
}

/// Assemble the merged groups into the engine-shaped result table:
/// group key columns (typed per the global `schema`) in declared order,
/// then one column per aggregate. `key_value(row, column)` resolves a
/// group key value at a *global* row — the coordinator maps the row back
/// to its owning shard, since no global table exists to gather from.
pub fn assemble_partials(
    schema: &Schema,
    group_by: &[String],
    aggs: &[AggSpec],
    merged: ShardPartials,
    mut key_value: impl FnMut(usize, &str) -> Result<Value>,
) -> Result<Table> {
    let group_by: Vec<String> = group_by
        .iter()
        .map(|g| normalize_name(schema, g))
        .collect::<Result<_>>()?;
    let mut part = merged.part;
    // Global aggregate over an empty input still yields one row.
    if group_by.is_empty() && part.first_rows.is_empty() {
        part.first_rows.push(usize::MAX);
        part.accs = vec![Accumulator::default(); aggs.len()];
    }
    let mut fields = Vec::new();
    let mut cols = Vec::new();
    for g in &group_by {
        let idx = schema
            .index_of(g)
            .ok_or_else(|| QueryError::UnknownColumn { name: g.clone() })?;
        let dtype = schema.fields()[idx].data_type;
        let values: Vec<Value> = part
            .first_rows
            .iter()
            .map(|&r| key_value(r, g))
            .collect::<Result<_>>()?;
        fields.push(Field { name: g.clone(), data_type: dtype, nullable: true });
        cols.push(column_from_typed(dtype, &values));
    }
    for (ai, a) in aggs.iter().enumerate() {
        let values: Vec<Value> =
            part.accs.iter().skip(ai).step_by(aggs.len()).map(|acc| acc.finish(a.func)).collect();
        let (field, col) = aggregate_column(schema, a, &values);
        fields.push(field);
        cols.push(col);
    }
    Ok(Table::new("result", Schema::new(fields), cols)?)
}

/// The engine's ORDER BY (NULLs last, stable), exposed for the
/// coordinator's final sort over the assembled table.
pub fn sort_rows(t: &Table, keys: &[OrderBy]) -> Result<Table> {
    sort(t, keys)
}

/// The engine's projection of an aggregate's output onto its SELECT
/// list, for the coordinator to apply after the merge.
pub fn project_rows(
    t: &Table,
    exprs: &[(ScalarExpr, String)],
    opts: &ExecOptions,
) -> Result<Table> {
    project(t, exprs, false, opts)
}

/// The engine's LIMIT: the first `n` rows.
pub fn limit_rows(t: &Table, n: usize) -> Result<Table> {
    let keep: Vec<usize> = (0..t.row_count().min(n)).collect();
    Ok(t.take(&keep)?)
}

/// Stable hash of a value under the engine's *grouping* equivalence
/// (integral floats coerce to integers, exactly like GROUP BY), for
/// hash partitioning on a group key. FNV-1a, deterministic across runs
/// and platforms.
pub fn group_key_hash(v: &Value) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    match KeyPart::from_value(v) {
        KeyPart::Null => eat(&[0]),
        KeyPart::Int(i) => {
            eat(&[1]);
            eat(&i.to_le_bytes());
        }
        KeyPart::Float(bits) => {
            eat(&[2]);
            eat(&bits.to_le_bytes());
        }
        KeyPart::Str(s) => {
            eat(&[3]);
            eat(s.as_bytes());
        }
        KeyPart::Bool(b) => eat(&[4, b as u8]),
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_with;
    use crate::plan::LogicalPlan;
    use crate::sql::parse_select;
    use lawsdb_storage::{Catalog, TableBuilder};

    fn fixture(rows: usize) -> Table {
        let mut b = TableBuilder::new("t");
        let mut g = Vec::new();
        let mut h = Vec::new();
        let mut v = Vec::new();
        let mut state = 0x5DEECE66Du64;
        for i in 0..rows {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            g.push((i % 7) as i64);
            h.push((i % 5) as i64);
            v.push(((state >> 11) as f64 / (1u64 << 53) as f64) * 2000.0 - 1000.0 + 0.1);
        }
        b.add_i64("g", g);
        b.add_i64("h", h);
        b.add_f64("v", v);
        let mut t = b.build().unwrap();
        t.rebuild_synopsis_with(16);
        t
    }

    fn agg_parts(sql: &str) -> (Vec<String>, Vec<AggSpec>, Option<ScalarExpr>) {
        let stmt = parse_select(sql).unwrap();
        let mut plan = LogicalPlan::from_statement(&stmt).unwrap();
        loop {
            match plan {
                LogicalPlan::Aggregate { input, group_by, aggs } => {
                    let pred = match *input {
                        LogicalPlan::Filter { predicate, .. } => Some(predicate),
                        _ => None,
                    };
                    return (group_by, aggs, pred);
                }
                LogicalPlan::Sort { input, .. } | LogicalPlan::Limit { input, .. } => {
                    plan = *input;
                }
                other => panic!("not an aggregate shape: {other:?}"),
            }
        }
    }

    fn bits(t: &Table) -> Vec<Vec<String>> {
        (0..t.row_count())
            .map(|r| {
                t.row(r)
                    .unwrap()
                    .iter()
                    .map(|v| match v {
                        Value::Float(f) => format!("f{:016x}", f.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    /// Answer `sql` by partial-aggregating each shard (`rowsets[s]` are
    /// its global rows, increasing) and merging — shards in reverse, on
    /// their own zone grid and morsel size, to show neither matters.
    fn sharded(t: &Table, sql: &str, rowsets: &[Vec<usize>]) -> Table {
        let (group_by, aggs, pred) = agg_parts(sql);
        let opts = ExecOptions { threads: 1, morsel_rows: 24, ..ExecOptions::default() };
        let mut shards = Vec::new();
        for rows in rowsets.iter().rev() {
            let mut s = t.take(rows).unwrap();
            s.rebuild_synopsis_with(7);
            shards.push(
                shard_partials(&s, |i| rows[i], pred.as_ref(), &group_by, &aggs, &opts).unwrap(),
            );
        }
        let merged = merge_shard_partials(shards);
        assemble_partials(t.schema(), &group_by, &aggs, merged, |row, col| {
            Ok(t.column(col).unwrap().value(row).unwrap())
        })
        .unwrap()
    }

    #[test]
    fn range_shards_merge_bit_identically() {
        let catalog = Catalog::new();
        let t = catalog.register(fixture(500)).unwrap();
        let opts = ExecOptions { threads: 2, morsel_rows: 64, ..ExecOptions::default() };
        // Boundaries aligned to nothing in particular.
        let rowsets: Vec<Vec<usize>> = [0..101, 101..317, 317..500].map(Vec::from_iter).into();
        for sql in [
            "SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g",
            "SELECT SUM(v), AVG(v), MIN(v), MAX(v) FROM t",
            "SELECT g, AVG(v) FROM t WHERE v > 0.0 GROUP BY g",
        ] {
            let expect = execute_with(&catalog, sql, &opts).unwrap();
            assert_eq!(bits(&sharded(&t, sql, &rowsets)), bits(&expect.table), "{sql}");
        }
    }

    /// Hash-partition the fixture's rows on `g` into three shards.
    fn hash_rowsets(t: &Table) -> Vec<Vec<usize>> {
        let mut rowsets: Vec<Vec<usize>> = vec![Vec::new(); 3];
        let gcol = t.column("g").unwrap();
        for row in 0..t.row_count() {
            let h = group_key_hash(&gcol.value(row).unwrap());
            rowsets[(h % 3) as usize].push(row);
        }
        rowsets
    }

    #[test]
    fn hash_shards_merge_bit_identically() {
        let catalog = Catalog::new();
        let t = catalog.register(fixture(400)).unwrap();
        let opts = ExecOptions { threads: 1, morsel_rows: 32, ..ExecOptions::default() };
        for sql in [
            "SELECT g, SUM(v), COUNT(*), MIN(v) FROM t GROUP BY g",
            "SELECT g, AVG(v) FROM t WHERE v > -200.0 GROUP BY g",
            // A GROUP BY without the hash key: its groups span shards.
            "SELECT h, SUM(v), MAX(v) FROM t GROUP BY h",
        ] {
            let expect = execute_with(&catalog, sql, &opts).unwrap();
            assert_eq!(bits(&sharded(&t, sql, &hash_rowsets(&t))), bits(&expect.table), "{sql}");
        }
    }

    #[test]
    fn hash_shard_global_aggregates_are_bit_identical() {
        let catalog = Catalog::new();
        let t = catalog.register(fixture(400)).unwrap();
        let opts = ExecOptions { threads: 2, morsel_rows: 48, ..ExecOptions::default() };
        for sql in [
            "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM t",
            "SELECT SUM(v), AVG(v) FROM t WHERE v > 100.5",
            "SELECT MIN(v), COUNT(v) FROM t WHERE v > 5000.0",
        ] {
            let expect = execute_with(&catalog, sql, &opts).unwrap();
            assert_eq!(bits(&sharded(&t, sql, &hash_rowsets(&t))), bits(&expect.table), "{sql}");
        }
    }

    #[test]
    fn grouping_hash_coerces_integral_floats() {
        assert_eq!(group_key_hash(&Value::Float(2.0)), group_key_hash(&Value::Int(2)));
        assert_eq!(group_key_hash(&Value::Float(-0.0)), group_key_hash(&Value::Int(0)));
        assert_ne!(group_key_hash(&Value::Int(1)), group_key_hash(&Value::Int(2)));
    }
}
