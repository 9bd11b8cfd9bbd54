//! Concurrent table catalog.

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::table::Table;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A thread-safe registry of named tables.
///
/// Tables are handed out as `Arc<Table>` snapshots: readers (query
/// execution, model fitting) never block each other, and replacing a
/// table (the recompress path, or an append while a reader holds the
/// snapshot) swaps the Arc atomically — the same copy-on-write
/// discipline analytic engines use for immutable column chunks.
///
/// Writers (register, replace, append, drop) are serialised by one
/// mutex, so two appends can never both read the same version and drop
/// each other's rows. Readers only ever take the map's read lock for an
/// `Arc` clone, and never wait behind an O(table) copy: an append
/// holds the write lock only to grow an unshared table in place.
///
/// Every mutation bumps a monotonically increasing *epoch*. Plan caches
/// key on it: a cached physical plan is valid only for the epoch it was
/// built against, so any change to row counts, synopses, or table
/// shapes invalidates it without the cache having to understand what
/// changed.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<BTreeMap<String, Arc<Table>>>,
    writer: Mutex<()>,
    epoch: AtomicU64,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Current statistics epoch. Bumped on every `register`, `replace`
    /// and `drop_table`; never decreases.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Register a new table; fails if the name is taken.
    pub fn register(&self, table: Table) -> Result<Arc<Table>> {
        let _writer = self.writer.lock();
        let mut guard = self.tables.write();
        if guard.contains_key(table.name()) {
            return Err(StorageError::TableExists { name: table.name().to_string() });
        }
        let arc = Arc::new(table);
        guard.insert(arc.name().to_string(), Arc::clone(&arc));
        drop(guard);
        self.bump_epoch();
        Ok(arc)
    }

    /// Replace an existing table (or insert if absent), returning the
    /// previous version when there was one.
    pub fn replace(&self, table: Table) -> Option<Arc<Table>> {
        let _writer = self.writer.lock();
        let arc = Arc::new(table);
        let prev = self.tables.write().insert(arc.name().to_string(), arc);
        self.bump_epoch();
        prev
    }

    /// Append a batch of rows (one column per field, in schema order)
    /// to a table and return the new snapshot.
    ///
    /// When no reader holds the current snapshot and no other table
    /// shares its buffers, the columns grow in place under the write
    /// lock, at amortised O(batch) cost. Otherwise the table is copied
    /// once, into room for the batch, outside any lock readers take,
    /// and the copy replaces it. Either way a reader's snapshot never
    /// changes, and appends to one table apply one after another.
    pub fn append_rows(&self, name: &str, batch: &[Column]) -> Result<Arc<Table>> {
        let _writer = self.writer.lock();
        let current = {
            let mut tables = self.tables.write();
            let slot = tables
                .get_mut(name)
                .ok_or_else(|| StorageError::TableNotFound { name: name.to_string() })?;
            if Arc::get_mut(slot).is_some_and(|t| t.grows_in_place()) {
                Arc::get_mut(slot).expect("checked above").append_rows(batch)?;
                let grown = Arc::clone(slot);
                drop(tables);
                self.bump_epoch();
                return Ok(grown);
            }
            Arc::clone(slot)
        };
        let mut grown = Table::clone(&current);
        drop(current);
        grown.append_rows(batch)?;
        let grown = Arc::new(grown);
        self.tables.write().insert(name.to_string(), Arc::clone(&grown));
        self.bump_epoch();
        Ok(grown)
    }

    /// Snapshot of a table by name.
    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::TableNotFound { name: name.to_string() })
    }

    /// Drop a table; returns it if present.
    pub fn drop_table(&self, name: &str) -> Option<Arc<Table>> {
        let _writer = self.writer.lock();
        let prev = self.tables.write().remove(name);
        if prev.is_some() {
            self.bump_epoch();
        }
        prev
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.read().len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn t(name: &str) -> Table {
        let mut b = TableBuilder::new(name);
        b.add_i64("x", vec![1, 2]);
        b.build().unwrap()
    }

    #[test]
    fn register_get_drop() {
        let c = Catalog::new();
        assert!(c.is_empty());
        c.register(t("a")).unwrap();
        c.register(t("b")).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.table_names(), vec!["a", "b"]);
        assert_eq!(c.get("a").unwrap().row_count(), 2);
        assert!(matches!(c.get("zz"), Err(StorageError::TableNotFound { .. })));
        assert!(c.drop_table("a").is_some());
        assert!(c.drop_table("a").is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn duplicate_registration_fails() {
        let c = Catalog::new();
        c.register(t("a")).unwrap();
        assert!(matches!(c.register(t("a")), Err(StorageError::TableExists { .. })));
    }

    #[test]
    fn replace_swaps_snapshot_without_touching_old_readers() {
        let c = Catalog::new();
        c.register(t("a")).unwrap();
        let old = c.get("a").unwrap();
        let mut b = TableBuilder::new("a");
        b.add_i64("x", vec![1, 2, 3]);
        let prev = c.replace(b.build().unwrap());
        assert_eq!(prev.unwrap().row_count(), 2);
        // Old snapshot is unaffected; new lookups see the replacement.
        assert_eq!(old.row_count(), 2);
        assert_eq!(c.get("a").unwrap().row_count(), 3);
    }

    #[test]
    fn epoch_advances_on_every_mutation() {
        let c = Catalog::new();
        let e0 = c.epoch();
        c.register(t("a")).unwrap();
        let e1 = c.epoch();
        assert!(e1 > e0);
        c.replace(t("a"));
        let e2 = c.epoch();
        assert!(e2 > e1);
        c.drop_table("a");
        let e3 = c.epoch();
        assert!(e3 > e2);
        // Dropping a missing table is not a statistics change.
        c.drop_table("a");
        assert_eq!(c.epoch(), e3);
        // A failed (duplicate) registration changes nothing.
        c.register(t("b")).unwrap();
        let e4 = c.epoch();
        assert!(c.register(t("b")).is_err());
        assert_eq!(c.epoch(), e4);
    }

    #[test]
    fn append_grows_an_unshared_table_in_place() {
        let c = Catalog::new();
        c.register(t("a")).unwrap();
        let e0 = c.epoch();
        let ptr = |t: &Table| t.column("x").unwrap().i64_data().unwrap().as_ptr();
        let first = c.append_rows("a", &[Column::from_i64(vec![3])]).unwrap();
        let (at, first_id) = (ptr(&first), first.id());
        assert!(c.epoch() > e0);
        drop(first);
        // Amortised growth leaves room: the next small batch fits in
        // the same allocation, and the table keeps its `Arc`.
        let before = Arc::as_ptr(&c.get("a").unwrap());
        let second = c.append_rows("a", &[Column::from_i64(vec![4])]).unwrap();
        assert_eq!(Arc::as_ptr(&second), before, "grown in place");
        assert_eq!(ptr(&second), at);
        assert_eq!(second.column("x").unwrap().i64_data().unwrap(), &[1, 2, 3, 4]);
        assert!(second.extends(first_id, 3));
        assert!(c.append_rows("zz", &[]).is_err());
        assert!(c.append_rows("a", &[Column::from_f64(vec![1.0])]).is_err());
        assert_eq!(c.get("a").unwrap().row_count(), 4, "a failed append changes nothing");
    }

    #[test]
    fn append_copies_a_held_snapshot_once_and_leaves_it_alone() {
        let c = Catalog::new();
        c.register(t("a")).unwrap();
        let held = c.get("a").unwrap();
        let grown = c.append_rows("a", &[Column::from_i64(vec![3])]).unwrap();
        assert!(!Arc::ptr_eq(&held, &grown));
        assert_eq!(held.row_count(), 2, "the reader's snapshot is unchanged");
        assert_eq!(grown.row_count(), 3);
        assert!(grown.extends(held.id(), 2));
        // A column shared with another table also forces the copy.
        drop(held);
        let shared = grown.column("x").unwrap().clone();
        drop(grown);
        let again = c.append_rows("a", &[Column::from_i64(vec![4])]).unwrap();
        assert_eq!(shared.len(), 3);
        assert_eq!(again.column("x").unwrap().i64_data().unwrap(), &[1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_appends_keep_every_batch() {
        let c = Arc::new(Catalog::new());
        c.register(t("a")).unwrap();
        std::thread::scope(|s| {
            for k in 0..4i64 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..50 {
                        c.append_rows("a", &[Column::from_i64(vec![k * 100 + i])]).unwrap();
                        assert!(c.get("a").unwrap().row_count() >= 3);
                    }
                });
            }
        });
        let x = c.get("a").unwrap();
        let mut got = x.column("x").unwrap().i64_data().unwrap()[2..].to_vec();
        got.sort_unstable();
        let want: Vec<i64> = (0..4).flat_map(|k| (0..50).map(move |i| k * 100 + i)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_readers() {
        let c = Arc::new(Catalog::new());
        c.register(t("a")).unwrap();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        assert_eq!(c.get("a").unwrap().row_count(), 2);
                    }
                });
            }
        });
    }
}
