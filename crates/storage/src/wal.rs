//! Write-ahead log + atomic-commit protocol: the durability layer.
//!
//! The paper's premise is that captured models *outlive* the fitting
//! session — "we can store the models in their source code form inside
//! the database" (Section 3). This module makes that survival a proved
//! property rather than an asserted one: a [`DurableStore`] keeps paged
//! tables on a [`BlockDevice`] behind a commit protocol that recovers to
//! exactly the pre- or post-commit state from any crash the fault
//! injector ([`crate::fault`]) can produce. The model catalog is stored
//! as ordinary tables (`lawsdb-models::persist`), so it rides the same
//! protocol as the data it describes.
//!
//! ## Device layout
//!
//! ```text
//! page 0, 1        superblock slots A/B (alternating by commit seq)
//! page 2           WAL: the newest commit record
//! page 3..         data area: shadow-written blobs (column extents,
//!                  directory images); never overwritten
//! ```
//!
//! ## Tables as segments
//!
//! A stored table is a list of [`Segment`]s — runs of consecutive rows,
//! each one checksummed extent per column — which `read_table` and
//! `read_column` decode and concatenate in order. A commit writes each
//! table it puts as one segment. It keeps the stored segments and writes
//! only rows `[stored rows, t.rows)` when `t` was grown, by
//! [`Table::append_rows`], from the version this store last wrote
//! ([`Table::extends`] that version's [`Table::id`] and row count);
//! otherwise it writes every row as the only segment. Content ids are
//! unique within a process, a clone keeps its id, and an append mints a
//! new one, so the proof holds only when the stored rows are the first
//! rows of `t`. The store learns a table's new id only after the
//! commit lands; ids are not persisted, so the first append after
//! `recover` is a full write.
//!
//! ## Commit protocol ([`DurableStore::commit`])
//!
//! One commit puts any number of tables and drops any number of others.
//! `store_table`, `replace_table` and `drop_table` are its one-table
//! cases.
//!
//! 1. The puts' column blobs and the next table directory are
//!    shadow-written to freshly allocated pages; live pages are never
//!    overwritten, so a torn data write can only damage the in-flight
//!    transaction.
//! 2. The new *root* (commit seq and the checksummed directory extent,
//!    29 bytes) is written to the WAL page, sealed with a CRC.
//!    **The WAL write is the commit point.** Only then does the store
//!    install the next directory in memory, so a commit that fails
//!    before it leaves no trace for a later commit to persist.
//! 3. The root is written to the superblock slot `seq % 2`; the other
//!    slot still holds the previous root, so a torn superblock write
//!    is always survivable.
//!
//! ## Recovery ([`DurableStore::recover`])
//!
//! Pick the valid superblock with the highest seq; read the WAL. A
//! checksummed WAL record newer than the superblock is **replayed**
//! (the crash hit between commit point and superblock write); a torn
//! WAL record is **rolled back** (discarded — its shadow pages were
//! never reachable). Either way the store opens to exactly one
//! committed state.

use crate::checksum::crc32;
use crate::codec::{put_field, put_str, Reader};
use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::io::{BlockDevice, IoStats};
use crate::page::{decode_column, encode_column};
use crate::schema::Schema;
use crate::table::Table;
use lawsdb_obs::{event, global_metrics};
use std::collections::BTreeMap;

const SB_MAGIC: &[u8; 4] = b"LWSB";
const WAL_MAGIC: &[u8; 4] = b"LWFR";
const FORMAT_VERSION: u32 = 3;
/// The WAL: one page holding the newest commit record. A root record
/// is 29 bytes, so one page of the 128 a store needs at least holds it.
const WAL_PAGE: u64 = 2;
/// Pages reserved ahead of the data area: two superblocks and the WAL.
const RESERVED: usize = 3;
/// Header of a sealed root: crc + magic + format + root length.
const SEAL_HEADER: usize = 16;

/// Location and checksum of one shadow-written byte blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extent {
    /// First page id (meaningless when `byte_len == 0`).
    pub start: u64,
    /// Exact byte length (the final page is partially used).
    pub byte_len: u64,
    /// CRC-32 of the blob's bytes.
    pub crc: u32,
}

impl Extent {
    fn pages(&self, page_size: usize) -> u64 {
        self.byte_len.div_ceil(page_size as u64)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.byte_len.to_le_bytes());
        out.extend_from_slice(&self.crc.to_le_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Extent> {
        Ok(Extent { start: r.u64()?, byte_len: r.u64()?, crc: r.u32()? })
    }
}

/// The committed root: everything needed to reach all live data.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Root {
    seq: u64,
    directory: Option<Extent>,
}

/// What [`DurableStore::recover`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// The device held no committed state; a fresh store was formatted.
    pub formatted: bool,
    /// A committed-but-not-superblocked WAL record was replayed.
    pub replayed: bool,
    /// A torn or incomplete WAL tail was discarded.
    pub rolled_back: bool,
    /// Commit sequence the store opened at.
    pub seq: u64,
}

/// One durably stored table: its schema and a list of segments, which
/// concatenated in order hold its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTable {
    /// Schema in column order.
    pub schema: Schema,
    /// Row count: the sum of the segments' rows.
    pub rows: usize,
    /// Row runs in order; never empty.
    pub segments: Vec<Segment>,
}

/// One run of consecutive rows of a stored table: one checksummed
/// extent per column, each holding these rows' encoded column.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Rows in this segment.
    pub rows: usize,
    /// One extent per column, in schema order.
    pub columns: Vec<Extent>,
}

/// Crash-safe store of paged tables — user tables and the model
/// catalog's tables alike.
///
/// Construct with [`DurableStore::new`], then call
/// [`DurableStore::recover`] before anything else — it formats an
/// empty device, replays or rolls back a crashed one, and is the only
/// entry point after a crash. Every mutating call is one atomic
/// [`DurableStore::commit`], and a commit that returns an error before
/// its commit point changes nothing, in memory or on the device.
#[derive(Debug)]
pub struct DurableStore<D: BlockDevice> {
    dev: D,
    opened: bool,
    seq: u64,
    /// The committed directory.
    tables: BTreeMap<String, StoredTable>,
    /// [`Table::id`] of the version each table's segments hold, for
    /// tables this process wrote. Never persisted: ids are per process.
    written: BTreeMap<String, u64>,
}

impl<D: BlockDevice> DurableStore<D> {
    /// Wrap a device. Performs no IO; call [`DurableStore::recover`]
    /// next.
    pub fn new(device: D) -> DurableStore<D> {
        DurableStore {
            dev: device,
            opened: false,
            seq: 0,
            tables: BTreeMap::new(),
            written: BTreeMap::new(),
        }
    }

    /// Open the store: format an empty device, or recover a used one by
    /// replaying a committed WAL record / rolling back a torn one. Safe
    /// to call on any surviving disk image; until it succeeds, all data
    /// operations refuse.
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        let ps = self.dev.page_size();
        if ps < 128 {
            return Err(StorageError::Io {
                op: "open",
                page: 0,
                detail: format!("durable store needs pages of at least 128 bytes, got {ps}"),
            });
        }
        let mut report = RecoveryReport::default();
        while self.dev.page_count() < RESERVED {
            self.dev.allocate();
        }
        // Best committed superblock; a torn or unwritten slot is no
        // candidate.
        let mut best: Option<Root> = None;
        for slot in 0..2u64 {
            if let Some(root) = unseal(SB_MAGIC, &self.dev.read_page_owned(slot)?) {
                if best.as_ref().is_none_or(|b| root.seq > b.seq) {
                    best = Some(root);
                }
            }
        }
        // The WAL may hold a newer committed record (crash between
        // commit point and superblock write) or a torn one.
        let wal = self.dev.read_page_owned(WAL_PAGE)?;
        match unseal(WAL_MAGIC, &wal) {
            Some(root) if best.as_ref().is_none_or(|b| root.seq > b.seq) => {
                report.replayed = true;
                self.write_superblock(&root)?;
                best = Some(root);
            }
            Some(_) => {} // already superblocked
            None if wal.iter().all(|&b| b == 0) => {} // never written
            None => report.rolled_back = true,
        }
        self.written.clear();
        match best {
            Some(root) => {
                self.tables = match &root.directory {
                    Some(ext) => decode_directory(&self.read_extent(ext)?)?,
                    None => BTreeMap::new(),
                };
                self.seq = root.seq;
            }
            None => {
                // Nothing ever committed (fresh device, or a crash
                // mid-format): format from scratch.
                report.formatted = true;
                self.seq = 0;
                self.tables = BTreeMap::new();
                self.write_superblock(&Root::default())?;
            }
        }
        self.opened = true;
        report.seq = self.seq;
        event!(
            "storage.wal.recovered",
            seq = report.seq,
            formatted = report.formatted,
            replayed = report.replayed,
            rolled_back = report.rolled_back
        );
        let reg = global_metrics();
        reg.counter("lawsdb_storage_wal_recoveries").inc();
        if report.replayed {
            reg.counter("lawsdb_storage_wal_replays").inc();
        }
        if report.rolled_back {
            reg.counter("lawsdb_storage_wal_rollbacks").inc();
        }
        Ok(report)
    }

    /// Commit sequence of the opened store.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Names of all stored tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Metadata of one stored table.
    pub fn stored_table(&self, name: &str) -> Result<&StoredTable> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::TableNotFound { name: name.to_string() })
    }

    /// Durably store a new table (one atomic commit).
    pub fn store_table(&mut self, table: &Table) -> Result<()> {
        if self.tables.contains_key(table.name()) {
            return Err(StorageError::TableExists { name: table.name().to_string() });
        }
        self.commit(std::slice::from_ref(table), &[])
    }

    /// Replace a stored table (or store it fresh) in one atomic commit,
    /// by the tail-segment rule of [`DurableStore::commit`].
    pub fn replace_table(&mut self, table: &Table) -> Result<()> {
        self.commit(std::slice::from_ref(table), &[])
    }

    /// Drop a stored table in one atomic commit.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.commit(&[], &[name])
    }

    /// One atomic transaction: drop every table in `drops`, then store
    /// or replace every table in `puts`. Either all of it is durable
    /// and visible or none of it.
    ///
    /// A put grown by [`Table::append_rows`] from the version this
    /// store last wrote ([`Table::extends`] that version's id and row
    /// count) keeps the stored segments and writes only the rows
    /// appended since, as one new segment. Any other put writes the
    /// whole table as one segment. Pages of a replaced or dropped
    /// version are abandoned, never freed. A name may appear once per
    /// commit, and every dropped table must exist.
    pub fn commit(&mut self, puts: &[Table], drops: &[&str]) -> Result<()> {
        self.ensure_open()?;
        let mut names: Vec<&str> = puts.iter().map(Table::name).collect();
        names.extend(drops);
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err(StorageError::InvalidTable { reason: "a commit names a table twice" });
        }
        let mut next = self.tables.clone();
        for &name in drops {
            if next.remove(name).is_none() {
                return Err(StorageError::TableNotFound { name: name.to_string() });
            }
        }
        for table in puts {
            self.write_segment(&mut next, table)?;
        }
        let root = self.write_root(next)?;
        // The commit landed: the store now holds these versions.
        for &name in drops {
            self.written.remove(name);
        }
        for table in puts {
            self.written.insert(table.name().to_string(), table.id());
        }
        self.write_superblock(&root)
    }

    /// Read a stored table back, verifying every extent's checksum.
    pub fn read_table(&self, name: &str) -> Result<Table> {
        self.ensure_open()?;
        let st = self.stored_table(name)?;
        let cols = (0..st.schema.len())
            .map(|i| self.read_segments(st, i))
            .collect::<Result<Vec<_>>>()?;
        Table::new(name.to_string(), st.schema.clone(), cols)
    }

    /// Read one column of a stored table, checksum-verified. Columns
    /// live in separate extents, so corruption in one column leaves the
    /// others readable — this is the hook `lawsdb-core`'s resilient
    /// reader uses to salvage a table around a quarantined page.
    pub fn read_column(&self, name: &str, index: usize) -> Result<Column> {
        self.ensure_open()?;
        let st = self.stored_table(name)?;
        if index >= st.schema.len() {
            return Err(StorageError::ColumnNotFound { name: format!("{name}[{index}]") });
        }
        self.read_segments(st, index)
    }

    /// Device access counters.
    pub fn stats(&self) -> IoStats {
        self.dev.stats()
    }

    /// The wrapped device.
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Surrender the device (e.g. to re-open after a simulated crash).
    pub fn into_device(self) -> D {
        self.dev
    }

    // ---- internals ----

    fn ensure_open(&self) -> Result<()> {
        if self.opened {
            Ok(())
        } else {
            Err(StorageError::Io {
                op: "open",
                page: 0,
                detail: "store not recovered; call recover() first".to_string(),
            })
        }
    }

    /// Shadow-write `table` into the directory `next`: rows
    /// `[stored rows, rows)` as one more segment when the tail-segment
    /// rule of [`DurableStore::commit`] keeps the committed segments,
    /// else every row as the only segment.
    fn write_segment(
        &mut self,
        next: &mut BTreeMap<String, StoredTable>,
        table: &Table,
    ) -> Result<()> {
        let name = table.name();
        let from = match (self.tables.get(name), self.written.get(name)) {
            (Some(st), Some(&id)) if id != table.id() && table.extends(id, st.rows) => st.rows,
            _ => 0,
        };
        let rows = table.row_count() - from;
        let mut columns = Vec::with_capacity(table.columns().len());
        for col in table.columns() {
            columns.push(self.write_blob(&encode_column(&col.slice(from, rows)?))?);
        }
        let segment = Segment { rows, columns };
        match next.get_mut(name) {
            Some(st) if from > 0 => {
                st.rows = table.row_count();
                st.segments.push(segment);
            }
            _ => {
                let st = StoredTable {
                    schema: table.schema().clone(),
                    rows: table.row_count(),
                    segments: vec![segment],
                };
                next.insert(name.to_string(), st);
            }
        }
        Ok(())
    }

    /// Column `index` of a stored table: its segments' extents, decoded
    /// and concatenated.
    fn read_segments(&self, st: &StoredTable, index: usize) -> Result<Column> {
        let mut out: Option<Column> = None;
        for seg in &st.segments {
            let col = decode_column(&self.read_extent(&seg.columns[index])?)?;
            if col.len() != seg.rows {
                return Err(StorageError::CorruptData {
                    codec: "wal",
                    detail: format!("segment claims {} rows, its column holds {}", seg.rows, col.len()),
                });
            }
            match &mut out {
                None => out = Some(col),
                Some(acc) => acc.append(&col)?,
            }
        }
        out.ok_or_else(|| StorageError::CorruptData {
            codec: "wal",
            detail: "stored table has no segments".to_string(),
        })
    }

    /// Shadow-write one blob to freshly allocated contiguous pages.
    fn write_blob(&mut self, bytes: &[u8]) -> Result<Extent> {
        let ps = self.dev.page_size();
        let ext = Extent { start: self.dev.page_count() as u64, byte_len: bytes.len() as u64, crc: crc32(bytes) };
        for chunk in bytes.chunks(ps) {
            let id = self.dev.allocate();
            self.dev.write_page(id, chunk)?;
        }
        Ok(ext)
    }

    /// Read a blob back and verify its checksum.
    fn read_extent(&self, ext: &Extent) -> Result<Vec<u8>> {
        let ps = self.dev.page_size();
        // Cap the preallocation: `byte_len` is checksummed upstream, but
        // an implausible value must degrade to an error, not an abort.
        let mut out = Vec::with_capacity(ext.byte_len.min(1 << 20) as usize);
        for i in 0..ext.pages(ps) {
            let page = self.dev.read_page_owned(ext.start + i)?;
            let want = (ext.byte_len - i * ps as u64).min(ps as u64) as usize;
            out.extend_from_slice(&page[..want]);
        }
        if crc32(&out) != ext.crc {
            event!(
                "storage.page.quarantine",
                page = ext.start,
                expected = ext.crc,
                got = crc32(&out)
            );
            return Err(StorageError::CorruptData {
                codec: "blob",
                detail: format!(
                    "checksum mismatch reading {} bytes at page {}",
                    ext.byte_len, ext.start
                ),
            });
        }
        Ok(out)
    }

    /// Shadow-write the directory `next`, log the new root to the WAL
    /// (the commit point), and install `next` as the committed
    /// directory. The caller writes the superblock.
    fn write_root(&mut self, next: BTreeMap<String, StoredTable>) -> Result<Root> {
        let dir_ext = self.write_blob(&encode_directory(&next))?;
        let root = Root { seq: self.seq + 1, directory: Some(dir_ext) };
        self.dev.write_page(WAL_PAGE, &seal(WAL_MAGIC, &root))?; // ← commit point
        self.tables = next;
        self.seq = root.seq;
        global_metrics().counter("lawsdb_storage_wal_commits").inc();
        event!("storage.wal.commit", seq = self.seq);
        Ok(root)
    }

    fn write_superblock(&mut self, root: &Root) -> Result<()> {
        self.dev.write_page(root.seq % 2, &seal(SB_MAGIC, root))
    }
}

/// A root as one checksummed page image: crc | magic | format | root
/// length | root. Superblocks and the WAL record share it.
fn seal(magic: &[u8; 4], root: &Root) -> Vec<u8> {
    let body = encode_root(root);
    let mut page = Vec::with_capacity(SEAL_HEADER + body.len());
    page.extend_from_slice(&[0; 4]); // crc placeholder
    page.extend_from_slice(magic);
    page.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    page.extend_from_slice(&(body.len() as u32).to_le_bytes());
    page.extend_from_slice(&body);
    let crc = crc32(&page[4..]).to_le_bytes();
    page[..4].copy_from_slice(&crc);
    page
}

/// The root a page sealed with `magic` holds; `None` when the page is
/// torn, unwritten or otherwise invalid (never an error: the other
/// copies decide).
fn unseal(magic: &[u8; 4], page: &[u8]) -> Option<Root> {
    if page.len() < SEAL_HEADER || &page[4..8] != magic {
        return None;
    }
    let word = |at: usize| u32::from_le_bytes(page[at..at + 4].try_into().expect("4 bytes"));
    let end = SEAL_HEADER + word(12) as usize;
    if word(8) != FORMAT_VERSION || end > page.len() || crc32(&page[4..end]) != word(0) {
        return None;
    }
    decode_root(&page[SEAL_HEADER..end]).ok()
}

fn encode_root(root: &Root) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&root.seq.to_le_bytes());
    match &root.directory {
        None => out.push(0),
        Some(e) => {
            out.push(1);
            e.encode(&mut out);
        }
    }
    out
}

fn decode_root(buf: &[u8]) -> Result<Root> {
    let mut r = Reader::new("wal", buf);
    let seq = r.u64()?;
    let directory = match r.u8()? {
        0 => None,
        1 => Some(Extent::decode(&mut r)?),
        other => return Err(r.corrupt(format!("bad extent tag {other}"))),
    };
    Ok(Root { seq, directory })
}

// ---- table-directory serialization ----
//
// u32 tables, then per table: name, u64 rows, u32 fields, the fields,
// u32 segments, then per segment: u64 rows and one extent per field.

fn encode_directory(tables: &BTreeMap<String, StoredTable>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    for (name, t) in tables {
        put_str(&mut out, name);
        out.extend_from_slice(&(t.rows as u64).to_le_bytes());
        out.extend_from_slice(&(t.schema.len() as u32).to_le_bytes());
        for field in t.schema.fields() {
            put_field(&mut out, field);
        }
        out.extend_from_slice(&(t.segments.len() as u32).to_le_bytes());
        for seg in &t.segments {
            out.extend_from_slice(&(seg.rows as u64).to_le_bytes());
            for ext in &seg.columns {
                ext.encode(&mut out);
            }
        }
    }
    out
}

fn decode_directory(buf: &[u8]) -> Result<BTreeMap<String, StoredTable>> {
    let mut r = Reader::new("wal", buf);
    let mut tables = BTreeMap::new();
    for _ in 0..r.count(1, "table")? {
        let name = r.str_u32("table name")?;
        let rows = r.u64()?;
        let n_fields = r.count(1, "field")?;
        let fields = (0..n_fields).map(|_| r.field()).collect::<Result<Vec<_>>>()?;
        // A segment is its row count plus one 20-byte extent per field.
        let n_segments = r.count(8 + 20 * n_fields, "segment")?;
        if n_segments == 0 {
            return Err(r.corrupt(format!("table {name:?} has no segments")));
        }
        let mut segments = Vec::with_capacity(n_segments);
        let mut covered = 0u64;
        for _ in 0..n_segments {
            let seg_rows = r.u64()?;
            covered = covered
                .checked_add(seg_rows)
                .ok_or_else(|| r.corrupt("segment rows overflow"))?;
            let columns = (0..n_fields).map(|_| Extent::decode(&mut r)).collect::<Result<_>>()?;
            segments.push(Segment { rows: seg_rows as usize, columns });
        }
        if covered != rows {
            return Err(r.corrupt(format!("segments hold {covered} rows, table {name:?} {rows}")));
        }
        let st = StoredTable { schema: Schema::new(fields), rows: rows as usize, segments };
        tables.insert(name, st);
    }
    r.end()?;
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::SimulatedDevice;
    use crate::table::TableBuilder;

    fn demo_table(name: &str, rows: usize) -> Table {
        let mut b = TableBuilder::new(name);
        b.add_i64("id", (0..rows as i64).collect());
        b.add_f64("v", (0..rows).map(|i| i as f64 * 0.25).collect());
        b.build().unwrap()
    }

    fn open(ps: usize) -> DurableStore<SimulatedDevice> {
        let mut s = DurableStore::new(SimulatedDevice::new(ps));
        assert!(s.recover().unwrap().formatted);
        s
    }

    fn reopen(store: DurableStore<SimulatedDevice>) -> (DurableStore<SimulatedDevice>, RecoveryReport) {
        let mut s = DurableStore::new(store.into_device());
        let r = s.recover().unwrap();
        (s, r)
    }

    #[test]
    fn table_survives_reopen() {
        let mut s = open(256);
        let t = demo_table("demo", 100);
        s.store_table(&t).unwrap();
        let (s, report) = reopen(s);
        assert!(!report.formatted && !report.replayed && !report.rolled_back);
        assert_eq!(report.seq, 1);
        assert_eq!(s.read_table("demo").unwrap(), t);
    }

    #[test]
    fn a_multi_table_commit_is_one_seq() {
        let mut s = open(256);
        s.store_table(&demo_table("old", 4)).unwrap();
        s.commit(&[demo_table("a", 3), demo_table("b", 7)], &["old"]).unwrap();
        assert_eq!(s.seq(), 2);
        // A name twice, or a missing drop, refuses the whole commit.
        assert!(s.commit(&[demo_table("a", 1)], &["a"]).is_err());
        assert!(s.commit(&[demo_table("c", 1), demo_table("c", 2)], &[]).is_err());
        assert!(s.commit(&[demo_table("c", 1)], &["zz"]).is_err());
        assert_eq!(s.seq(), 2);
        let (s, report) = reopen(s);
        assert_eq!(report.seq, 2);
        assert_eq!(s.table_names(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(s.read_table("b").unwrap(), demo_table("b", 7));
    }

    #[test]
    fn multiple_commits_alternate_superblocks_and_keep_latest() {
        let mut s = open(256);
        for i in 0..5 {
            s.replace_table(&demo_table("demo", 10 + i)).unwrap();
        }
        assert_eq!(s.seq(), 5);
        let (s, report) = reopen(s);
        assert_eq!(report.seq, 5);
        assert_eq!(s.read_table("demo").unwrap(), demo_table("demo", 14));
    }

    #[test]
    fn replace_and_drop_are_atomic_commits() {
        let mut s = open(256);
        s.store_table(&demo_table("a", 10)).unwrap();
        s.store_table(&demo_table("b", 10)).unwrap();
        assert!(s.store_table(&demo_table("a", 5)).is_err(), "duplicate refused");
        s.replace_table(&demo_table("a", 20)).unwrap();
        s.drop_table("b").unwrap();
        assert!(s.drop_table("zz").is_err());
        let (s, report) = reopen(s);
        assert_eq!(report.seq, 4);
        assert_eq!(s.table_names(), vec!["a".to_string()]);
        assert_eq!(s.read_table("a").unwrap().row_count(), 20);
    }

    /// `t` grown by `n` rows through `Table::append_rows`.
    fn appended(t: &Table, n: usize) -> Table {
        let base = t.row_count();
        let mut grown = t.clone();
        grown
            .append_rows(&[
                Column::from_i64((base as i64..(base + n) as i64).map(|i| -i).collect()),
                Column::from_f64((0..n).map(|i| i as f64 - 0.5).collect()),
            ])
            .unwrap();
        grown
    }

    #[test]
    fn an_append_commits_one_tail_segment() {
        let mut s = open(256);
        let t0 = demo_table("demo", 300);
        s.store_table(&t0).unwrap();
        let t1 = appended(&t0, 5);
        let before = s.stats().pages_written;
        s.replace_table(&t1).unwrap();
        // Two column extents of 5 rows, the directory, the WAL record
        // and the superblock: one page each.
        assert_eq!(s.stats().pages_written - before, 5);
        let t2 = appended(&t1, 7);
        s.replace_table(&t2).unwrap();
        let st = s.stored_table("demo").unwrap();
        let rows: Vec<usize> = st.segments.iter().map(|g| g.rows).collect();
        assert_eq!((st.rows, rows), (312, vec![300, 5, 7]));
        assert_eq!(s.read_table("demo").unwrap(), t2);
        assert_eq!(s.read_column("demo", 0).unwrap(), *t2.column("id").unwrap());
        assert!(s.read_column("demo", 2).is_err());
        let (mut s, _) = reopen(s);
        assert_eq!(s.read_table("demo").unwrap(), t2);
        // Ids are per process: after a restart the first append is
        // written in full.
        let t3 = appended(&t2, 1);
        s.replace_table(&t3).unwrap();
        assert_eq!(s.stored_table("demo").unwrap().segments.len(), 1);
        assert_eq!(s.read_table("demo").unwrap(), t3);
    }

    #[test]
    fn only_the_written_version_keeps_its_segments() {
        let mut s = open(256);
        let t0 = demo_table("demo", 40);
        s.store_table(&t0).unwrap();
        // Two appends from one parent: the second is not a child of
        // what the store holds after the first, so it rewrites in full.
        let (a, b) = (appended(&t0, 3), appended(&t0, 9));
        s.replace_table(&a).unwrap();
        assert_eq!(s.stored_table("demo").unwrap().segments.len(), 2);
        s.replace_table(&b).unwrap();
        assert_eq!(s.stored_table("demo").unwrap().segments.len(), 1);
        assert_eq!(s.read_table("demo").unwrap(), b);
        // Two appends with no commit between: the grandchild still
        // extends what the store holds, so one tail segment takes both
        // batches.
        let c = appended(&appended(&b, 2), 2);
        s.replace_table(&c).unwrap();
        let st = s.stored_table("demo").unwrap();
        let rows: Vec<usize> = st.segments.iter().map(|g| g.rows).collect();
        assert_eq!(rows, vec![49, 4]);
        assert_eq!(s.read_table("demo").unwrap(), c);
        // A dropped table forgets its version.
        s.drop_table("demo").unwrap();
        s.store_table(&demo_table("demo", 4)).unwrap();
        let d = appended(&c, 1);
        s.replace_table(&d).unwrap();
        assert_eq!(s.stored_table("demo").unwrap().segments.len(), 1);
        let (s, _) = reopen(s);
        assert_eq!(s.read_table("demo").unwrap(), d);
    }

    #[test]
    fn directory_decoder_is_total() {
        let mut s = open(256);
        let t0 = demo_table("demo", 10);
        s.store_table(&t0).unwrap();
        s.replace_table(&appended(&t0, 2)).unwrap();
        let dir = encode_directory(&s.tables);
        assert_eq!(decode_directory(&dir).unwrap(), s.tables);
        for cut in 0..dir.len() {
            assert!(decode_directory(&dir[..cut]).is_err(), "prefix {cut}");
        }
        // The table, field and segment counts, each claiming u32::MAX.
        let fields_at = 4 + 4 + "demo".len() + 8;
        let segments_at = dir.len() - 2 * (8 + 2 * 20) - 4;
        for at in [0, fields_at, segments_at] {
            let mut bad = dir.clone();
            bad[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(decode_directory(&bad).is_err(), "claim at {at}");
        }
        // Segments that do not add up to the table's rows.
        let mut bad = dir.clone();
        bad[segments_at + 4] ^= 1;
        assert!(decode_directory(&bad).is_err());
    }

    #[test]
    fn wal_replay_covers_missing_superblock() {
        // Commit, then manually roll the superblock back to the
        // previous root — recovery must replay from the WAL.
        let mut s = open(256);
        s.store_table(&demo_table("demo", 3)).unwrap();
        s.replace_table(&demo_table("demo", 9)).unwrap(); // seq 2, superblock slot 0
        // Clobber slot 0 with a seq-1 root again (as if the slot-0
        // write never happened). Slot 1 holds seq 1 as well.
        let mut dev = s.into_device();
        dev.write_page(0, &seal(SB_MAGIC, &Root { seq: 1, directory: None })).unwrap();
        let mut s = DurableStore::new(dev);
        let report = s.recover().unwrap();
        assert!(report.replayed, "{report:?}");
        assert_eq!(report.seq, 2);
        assert_eq!(s.read_table("demo").unwrap(), demo_table("demo", 9));
    }

    #[test]
    fn torn_wal_tail_rolls_back() {
        let mut s = open(256);
        s.store_table(&demo_table("committed", 5)).unwrap();
        let mut dev = s.into_device();
        // Scribble a half-written record for a phantom seq-2 txn.
        let mut junk = seal(WAL_MAGIC, &Root { seq: 2, directory: None });
        junk[SEAL_HEADER] ^= 0x40; // torn: crc no longer matches
        dev.write_page(WAL_PAGE, &junk).unwrap();
        let mut s = DurableStore::new(dev);
        let report = s.recover().unwrap();
        assert!(report.rolled_back, "{report:?}");
        assert_eq!(report.seq, 1, "pre-commit state");
        assert_eq!(s.read_table("committed").unwrap(), demo_table("committed", 5));
    }

    #[test]
    fn operations_refuse_before_recover() {
        let mut s: DurableStore<SimulatedDevice> = DurableStore::new(SimulatedDevice::new(256));
        assert!(s.store_table(&demo_table("t", 3)).is_err());
        assert!(s.commit(&[], &[]).is_err());
        assert!(s.read_table("t").is_err());
    }

    #[test]
    fn tiny_pages_are_refused() {
        let mut s = DurableStore::new(SimulatedDevice::new(64));
        assert!(s.recover().is_err());
    }

    #[test]
    fn corrupt_data_page_is_detected_by_checksum() {
        let mut s = open(256);
        s.store_table(&demo_table("demo", 30)).unwrap();
        let ext = s.stored_table("demo").unwrap().segments[0].columns[1].clone();
        let mut dev = s.into_device();
        dev.poke_page(ext.start).unwrap()[17] ^= 0x40;
        let mut s = DurableStore::new(dev);
        s.recover().unwrap();
        let err = s.read_table("demo").unwrap_err();
        assert!(matches!(err, StorageError::CorruptData { codec: "blob", .. }), "{err}");
        assert!(s.read_column("demo", 0).is_ok(), "the other column still reads");
    }

    #[test]
    fn string_and_null_columns_roundtrip_durably() {
        let mut b = TableBuilder::new("mixed");
        b.add_str("s", vec!["α".into(), "".into(), "xyz".into()]);
        b.add_f64_opt("v", vec![Some(1.5), None, Some(-2.0)]);
        let t = b.build().unwrap();
        let mut s = open(128);
        s.store_table(&t).unwrap();
        let (s, _) = reopen(s);
        assert_eq!(s.read_table("mixed").unwrap(), t);
    }
}
