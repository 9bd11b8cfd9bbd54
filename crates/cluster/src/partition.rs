//! Table partitioning: contiguous range shards, or hash shards on a
//! group key.
//!
//! Any split is as good as any other for exact answers: aggregates hold
//! exact sums, so partials merge to the same bits whatever the shard
//! boundaries. Every shard keeps where its rows sit in the global table
//! — a start row, or the strictly increasing list of original row
//! indices — so the coordinator can order groups by global first row
//! and reassemble rows in global order.

use crate::{ClusterError, Result};
use lawsdb_query::group_key_hash;
use lawsdb_storage::Table;

/// How rows map to shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionScheme {
    /// Contiguous row ranges of (nearly) equal size.
    Range,
    /// Hash of the named group-key column.
    Hash {
        /// Column whose grouping-equivalent hash picks the shard.
        key: String,
    },
}

/// A shard's rows in terms of the original (global) table.
#[derive(Debug, Clone)]
pub enum RowAssignment {
    /// Global rows `[start, start + len)`.
    Contiguous {
        /// First global row of the shard.
        start: usize,
    },
    /// Strictly increasing original row index per local row.
    Sparse(Vec<usize>),
}

impl RowAssignment {
    /// The global row of the shard's local row `local`.
    pub fn global_row(&self, local: usize) -> usize {
        match self {
            RowAssignment::Contiguous { start } => start + local,
            RowAssignment::Sparse(rows) => rows[local],
        }
    }
}

/// One shard's data: its slice of the table plus the row assignment.
#[derive(Debug)]
pub struct ShardData {
    /// The shard's rows as a standalone table.
    pub table: Table,
    /// Where those rows sit in the global table.
    pub rows: RowAssignment,
}

/// Split `table` into `shards` partitions under `scheme`. Range shards
/// differ in size by at most one row (trailing shards are empty for
/// tables with fewer rows than shards); hash shards scatter rows by the
/// grouping hash of the key column.
pub fn partition(table: &Table, scheme: &PartitionScheme, shards: usize) -> Result<Vec<ShardData>> {
    if shards == 0 {
        return Err(ClusterError::Unsupported {
            detail: "cluster needs at least one shard".to_string(),
        });
    }
    match scheme {
        PartitionScheme::Range => {
            let rows = table.row_count();
            let mut out = Vec::with_capacity(shards);
            let mut start = 0;
            for s in 0..shards {
                let len = rows / shards + usize::from(s < rows % shards);
                out.push(ShardData {
                    table: table.slice(start, len)?,
                    rows: RowAssignment::Contiguous { start },
                });
                start += len;
            }
            Ok(out)
        }
        PartitionScheme::Hash { key } => {
            let col = table.column(key)?;
            let mut rowsets: Vec<Vec<usize>> = vec![Vec::new(); shards];
            for row in 0..table.row_count() {
                let h = group_key_hash(&col.value(row)?);
                rowsets[(h % shards as u64) as usize].push(row);
            }
            rowsets
                .into_iter()
                .map(|rows| {
                    Ok(ShardData {
                        table: table.take(&rows)?,
                        rows: RowAssignment::Sparse(rows),
                    })
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_storage::TableBuilder;

    fn fixture(rows: usize) -> Table {
        let mut b = TableBuilder::new("t");
        b.add_i64("g", (0..rows as i64).map(|i| i % 5).collect());
        b.add_f64("v", (0..rows).map(|i| i as f64 * 0.25).collect());
        b.build().unwrap()
    }

    #[test]
    fn range_shards_are_balanced_and_cover_everything() {
        let t = fixture(1000);
        let parts = partition(&t, &PartitionScheme::Range, 3).unwrap();
        assert_eq!(parts.len(), 3);
        let mut covered = 0;
        for p in &parts {
            let RowAssignment::Contiguous { start } = p.rows else {
                panic!("range shard")
            };
            assert_eq!(start, covered);
            assert!((333..=334).contains(&p.table.row_count()));
            assert_eq!(p.rows.global_row(1), start + 1);
            covered += p.table.row_count();
        }
        assert_eq!(covered, 1000);
    }

    #[test]
    fn hash_shards_keep_groups_whole_and_rows_increasing() {
        let t = fixture(500);
        let parts = partition(&t, &PartitionScheme::Hash { key: "g".into() }, 4).unwrap();
        let mut total = 0;
        let mut group_shard = std::collections::HashMap::new();
        for (si, p) in parts.iter().enumerate() {
            let RowAssignment::Sparse(rows) = &p.rows else {
                panic!("hash shard")
            };
            assert!(rows.windows(2).all(|w| w[0] < w[1]));
            total += rows.len();
            let g = p.table.column("g").unwrap();
            for r in 0..p.table.row_count() {
                let key = g.value(r).unwrap();
                let prev = group_shard.insert(format!("{key:?}"), si);
                assert!(prev.is_none_or(|s| s == si), "group split across shards");
            }
        }
        assert_eq!(total, 500);
    }

    #[test]
    fn tiny_tables_leave_trailing_shards_empty_without_panic() {
        let t = fixture(2);
        let parts = partition(&t, &PartitionScheme::Range, 4).unwrap();
        let sizes: Vec<usize> = parts.iter().map(|p| p.table.row_count()).collect();
        assert_eq!(sizes, vec![1, 1, 0, 0]);
    }
}
