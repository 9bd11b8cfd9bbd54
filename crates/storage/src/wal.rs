//! Write-ahead log + atomic-commit protocol: the durability layer.
//!
//! The paper's premise is that captured models *outlive* the fitting
//! session — "we can store the models in their source code form inside
//! the database" (Section 3). This module makes that survival a proved
//! property rather than an asserted one: a [`DurableStore`] keeps the
//! model-catalog image and paged tables on a [`BlockDevice`] behind a
//! commit protocol that recovers to exactly the pre- or post-commit
//! state from any crash the fault injector ([`crate::fault`]) can
//! produce.
//!
//! ## Device layout
//!
//! ```text
//! page 0, 1        superblock slots A/B (alternating by commit seq)
//! page 2..2+W      WAL region (W = wal_pages, one frame per page)
//! page 2+W..       data area: shadow-written blobs (column extents,
//!                  catalog images, directory images); never overwritten
//! ```
//!
//! ## Tables as segments
//!
//! A stored table is a list of [`Segment`]s — runs of consecutive rows,
//! each one checksummed extent per column — which `read_table` and
//! `read_column` decode and concatenate in order. `store_table` writes
//! one segment holding every row. `replace_table(t)` keeps the stored
//! segments and writes only rows `[stored rows, t.rows)` as one new
//! segment when `t` extends, by [`Table::append_rows`], the very version
//! this store last wrote ([`Table::parent`] equals that version's
//! [`Table::id`] and row count); otherwise it writes every row as the
//! only segment. Content ids are unique within a process, a clone keeps
//! its id, and an append mints a new one, so a matching parent proves
//! the stored rows are the first rows of `t`. The store forgets a
//! table's id before it writes anything for that table and learns the
//! new one only after the commit lands; ids are not persisted, so the
//! first append after `recover` is a full write.
//!
//! ## Commit protocol
//!
//! 1. New data (column blobs, catalog image, directory image) is
//!    shadow-written to freshly allocated pages; live pages are never
//!    overwritten, so a torn data write can only damage the in-flight
//!    transaction.
//! 2. The new *root* (commit seq, catalog extent, directory extent —
//!    each extent checksummed) is written to the WAL as checksummed
//!    frames, terminated by a commit frame carrying the CRC of the
//!    whole record. **The commit-frame write is the commit point.**
//! 3. The root is written to the superblock slot `seq % 2`; the other
//!    slot still holds the previous root, so a torn superblock write
//!    is always survivable.
//!
//! ## Recovery ([`DurableStore::recover`])
//!
//! Pick the valid superblock with the highest seq; scan the WAL. A
//! complete, checksummed WAL record newer than the superblock is
//! **replayed** (the crash hit between commit point and superblock
//! write); a torn or incomplete WAL tail is **rolled back** (discarded
//! — its shadow pages were never reachable). Either way the store
//! opens to exactly one committed state.

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
const FORMAT_VERSION: u32 = 2;
const SB_HEADER: usize = 16; // crc + magic + format + root_len
const FRAME_HEADER: usize = 20; // crc + magic + seq + kind + index + len
const FRAME_DATA: u8 = 1;
const FRAME_COMMIT: u8 = 2;

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
    catalog: Option<Extent>,
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

/// Crash-safe store for the model catalog and paged tables.
///
/// Construct with [`DurableStore::new`], then call
/// [`DurableStore::recover`] before anything else — it formats an
/// empty device, replays or rolls back a crashed one, and is the only
/// entry point after a crash. Every mutating call commits one atomic
/// transaction.
#[derive(Debug)]
pub struct DurableStore<D: BlockDevice> {
    dev: D,
    wal_pages: usize,
    opened: bool,
    seq: u64,
    catalog: Option<Extent>,
    tables: BTreeMap<String, StoredTable>,
    /// [`Table::id`] of the version each table's segments hold, for
    /// tables this process wrote. Never persisted: ids are per process.
    written: BTreeMap<String, u64>,
}

impl<D: BlockDevice> DurableStore<D> {
    /// Wrap a device. Performs no IO; call [`DurableStore::recover`]
    /// next. `wal_pages` bounds the WAL region (8 is plenty — a root
    /// record is ~50 bytes).
    pub fn new(device: D, wal_pages: usize) -> DurableStore<D> {
        assert!(wal_pages >= 2, "need at least a data and a commit frame");
        DurableStore {
            dev: device,
            wal_pages,
            opened: false,
            seq: 0,
            catalog: None,
            tables: BTreeMap::new(),
            written: BTreeMap::new(),
        }
    }

    /// Pages reserved ahead of the data area.
    fn reserved(&self) -> usize {
        2 + self.wal_pages
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
        while self.dev.page_count() < self.reserved() {
            self.dev.allocate();
        }
        // Best committed superblock.
        let mut best: Option<Root> = None;
        for slot in 0..2u64 {
            if let Some(root) = self.read_superblock(slot)? {
                if best.as_ref().is_none_or(|b| root.seq > b.seq) {
                    best = Some(root);
                }
            }
        }
        // The WAL may hold a newer committed record (crash between
        // commit point and superblock write) or a torn tail.
        let best_seq = best.as_ref().map_or(0, |r| r.seq);
        match self.scan_wal()? {
            WalScan::Committed(root) if best.is_none() || root.seq > best_seq => {
                report.replayed = true;
                self.write_superblock(&root)?;
                best = Some(root);
            }
            WalScan::Committed(_) => {} // already superblocked
            WalScan::Torn => report.rolled_back = true,
            WalScan::Empty => {}
        }
        self.written.clear();
        match best {
            Some(root) => {
                self.tables = match &root.directory {
                    Some(ext) => decode_directory(&self.read_extent(ext)?)?,
                    None => BTreeMap::new(),
                };
                self.catalog = root.catalog;
                self.seq = root.seq;
            }
            None => {
                // Nothing ever committed (fresh device, or a crash
                // mid-format): format from scratch.
                report.formatted = true;
                self.seq = 0;
                self.catalog = None;
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

    /// Durably store a table (one atomic commit).
    pub fn store_table(&mut self, table: &Table) -> Result<()> {
        self.ensure_open()?;
        if self.tables.contains_key(table.name()) {
            return Err(StorageError::TableExists { name: table.name().to_string() });
        }
        self.write_table(table, 0)
    }

    /// Replace a stored table (or store it fresh) in one atomic commit.
    ///
    /// When `table` extends by [`Table::append_rows`] the very version
    /// this store last wrote (its [`Table::parent`] is that version's
    /// id and row count), the stored segments are kept and only the
    /// appended rows are written, as one new segment. Otherwise the
    /// whole table is written as one segment. Pages of a replaced
    /// version are abandoned, never freed.
    pub fn replace_table(&mut self, table: &Table) -> Result<()> {
        self.ensure_open()?;
        let name = table.name();
        let from = match (self.tables.get(name), self.written.get(name), table.parent()) {
            (Some(st), Some(&id), Some((parent, rows))) if id == parent && st.rows == rows => rows,
            _ => 0,
        };
        self.write_table(table, from)
    }

    /// Drop a stored table in one atomic commit.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.ensure_open()?;
        if self.tables.remove(name).is_none() {
            return Err(StorageError::TableNotFound { name: name.to_string() });
        }
        self.written.remove(name);
        self.commit()
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

    /// Durably store the (opaque) model-catalog image in one atomic
    /// commit. `lawsdb-models` writes its `LAWM` serialization here.
    pub fn put_catalog(&mut self, bytes: &[u8]) -> Result<()> {
        self.ensure_open()?;
        let ext = self.write_blob(bytes)?;
        self.catalog = Some(ext);
        self.commit()
    }

    /// The stored catalog image, checksum-verified; `None` if no
    /// catalog was ever stored.
    pub fn catalog(&self) -> Result<Option<Vec<u8>>> {
        self.ensure_open()?;
        match &self.catalog {
            Some(ext) => Ok(Some(self.read_extent(ext)?)),
            None => Ok(None),
        }
    }

    /// Device access counters.
    pub fn stats(&self) -> IoStats {
        self.dev.stats()
    }

    /// Reset the device counters (between benchmark phases).
    pub fn reset_stats(&self) {
        self.dev.reset_stats()
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

    /// Write rows `[from, rows)` of `table` as one segment, appended to
    /// the stored segments (which must hold rows `[0, from)`, so `from`
    /// is 0 for a full write), then commit.
    fn write_table(&mut self, table: &Table, from: usize) -> Result<()> {
        let name = table.name();
        // Until this commit lands, no stored image is known to hold a
        // version of `table`.
        self.written.remove(name);
        let rows = table.row_count() - from;
        let mut columns = Vec::with_capacity(table.columns().len());
        for col in table.columns() {
            columns.push(self.write_blob(&encode_column(&col.slice(from, rows)?))?);
        }
        let segment = Segment { rows, columns };
        match self.tables.get_mut(name) {
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
                self.tables.insert(name.to_string(), st);
            }
        }
        self.commit()?;
        self.written.insert(name.to_string(), table.id());
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

    /// One atomic transaction: shadow-write the directory, log the new
    /// root to the WAL (commit point), then update the superblock.
    fn commit(&mut self) -> Result<()> {
        let dir = encode_directory(&self.tables);
        let dir_ext = self.write_blob(&dir)?;
        let root = Root {
            seq: self.seq + 1,
            catalog: self.catalog.clone(),
            directory: Some(dir_ext),
        };
        self.write_wal(&root)?; // ← commit point
        self.seq = root.seq;
        global_metrics().counter("lawsdb_storage_wal_commits").inc();
        event!("storage.wal.commit", seq = self.seq);
        self.write_superblock(&root)
    }

    fn write_wal(&mut self, root: &Root) -> Result<()> {
        let ps = self.dev.page_size();
        let record = encode_root(root);
        let cap = ps - FRAME_HEADER;
        let chunks: Vec<&[u8]> = record.chunks(cap).collect();
        if chunks.len() + 1 > self.wal_pages {
            return Err(StorageError::Io {
                op: "write",
                page: 2,
                detail: format!("root record of {} bytes overflows the WAL", record.len()),
            });
        }
        for (i, chunk) in chunks.iter().enumerate() {
            let frame = encode_frame(root.seq, FRAME_DATA, i as u8, chunk);
            self.dev.write_page(2 + i as u64, &frame)?;
        }
        let commit =
            encode_frame(root.seq, FRAME_COMMIT, chunks.len() as u8, &crc32(&record).to_le_bytes());
        self.dev.write_page(2 + chunks.len() as u64, &commit)
    }

    fn scan_wal(&self) -> Result<WalScan> {
        let mut record = Vec::new();
        let mut seq = 0u64;
        for i in 0..self.wal_pages {
            let page = self.dev.read_page_owned(2 + i as u64)?;
            let Some(frame) = decode_frame(&page) else {
                // Frame i is invalid. An untouched (all-zero) first
                // page means the WAL was never written; anything else
                // is a torn in-flight record.
                return if i == 0 && page.iter().all(|&b| b == 0) {
                    Ok(WalScan::Empty)
                } else {
                    Ok(WalScan::Torn)
                };
            };
            if i == 0 {
                seq = frame.seq;
            }
            if frame.seq != seq || frame.index as usize != i {
                return Ok(WalScan::Torn); // stale leftover from an older record
            }
            match frame.kind {
                FRAME_DATA => record.extend_from_slice(frame.payload),
                FRAME_COMMIT => {
                    let want = frame.payload.get(..4).map(|b| {
                        u32::from_le_bytes(b.try_into().expect("4 bytes"))
                    });
                    if want != Some(crc32(&record)) {
                        return Ok(WalScan::Torn);
                    }
                    let root = decode_root(&record)?;
                    if root.seq != seq {
                        return Ok(WalScan::Torn);
                    }
                    return Ok(WalScan::Committed(root));
                }
                _ => return Ok(WalScan::Torn),
            }
        }
        // Ran out of WAL pages without a commit frame.
        Ok(WalScan::Torn)
    }

    fn write_superblock(&mut self, root: &Root) -> Result<()> {
        let body = encode_root(root);
        let mut page = Vec::with_capacity(SB_HEADER + body.len());
        page.extend_from_slice(&[0; 4]); // crc placeholder
        page.extend_from_slice(SB_MAGIC);
        page.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        page.extend_from_slice(&(body.len() as u32).to_le_bytes());
        page.extend_from_slice(&body);
        let crc = crc32(&page[4..]).to_le_bytes();
        page[..4].copy_from_slice(&crc);
        self.dev.write_page(root.seq % 2, &page)
    }

    /// Parse one superblock slot; `Ok(None)` when the slot is torn,
    /// unwritten or otherwise invalid (never an error — the other slot
    /// or the WAL decides).
    fn read_superblock(&self, slot: u64) -> Result<Option<Root>> {
        let page = self.dev.read_page_owned(slot)?;
        if page.len() < SB_HEADER || &page[4..8] != SB_MAGIC {
            return Ok(None);
        }
        let stored = u32::from_le_bytes(page[..4].try_into().expect("4 bytes"));
        let format = u32::from_le_bytes(page[8..12].try_into().expect("4 bytes"));
        let root_len = u32::from_le_bytes(page[12..16].try_into().expect("4 bytes")) as usize;
        if format != FORMAT_VERSION || SB_HEADER + root_len > page.len() {
            return Ok(None);
        }
        if crc32(&page[4..SB_HEADER + root_len]) != stored {
            return Ok(None);
        }
        match decode_root(&page[SB_HEADER..SB_HEADER + root_len]) {
            Ok(root) => Ok(Some(root)),
            Err(_) => Ok(None),
        }
    }
}

enum WalScan {
    /// No WAL record present.
    Empty,
    /// A complete, checksummed record.
    Committed(Root),
    /// An incomplete or corrupt record — discard.
    Torn,
}

struct Frame<'a> {
    seq: u64,
    kind: u8,
    index: u8,
    payload: &'a [u8],
}

fn encode_frame(seq: u64, kind: u8, index: u8, payload: &[u8]) -> Vec<u8> {
    let mut page = Vec::with_capacity(FRAME_HEADER + payload.len());
    page.extend_from_slice(&[0; 4]); // crc placeholder
    page.extend_from_slice(WAL_MAGIC);
    page.extend_from_slice(&seq.to_le_bytes());
    page.push(kind);
    page.push(index);
    page.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    page.extend_from_slice(payload);
    let crc = crc32(&page[4..]).to_le_bytes();
    page[..4].copy_from_slice(&crc);
    page
}

fn decode_frame(page: &[u8]) -> Option<Frame<'_>> {
    if page.len() < FRAME_HEADER || &page[4..8] != WAL_MAGIC {
        return None;
    }
    let stored = u32::from_le_bytes(page[..4].try_into().expect("4 bytes"));
    let seq = u64::from_le_bytes(page[8..16].try_into().expect("8 bytes"));
    let kind = page[16];
    let index = page[17];
    let len = u16::from_le_bytes(page[18..20].try_into().expect("2 bytes")) as usize;
    if FRAME_HEADER + len > page.len() {
        return None;
    }
    if crc32(&page[4..FRAME_HEADER + len]) != stored {
        return None;
    }
    Some(Frame { seq, kind, index, payload: &page[FRAME_HEADER..FRAME_HEADER + len] })
}

fn encode_root(root: &Root) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&root.seq.to_le_bytes());
    for ext in [&root.catalog, &root.directory] {
        match ext {
            None => out.push(0),
            Some(e) => {
                out.push(1);
                e.encode(&mut out);
            }
        }
    }
    out
}

fn decode_root(buf: &[u8]) -> Result<Root> {
    let mut r = Reader::new("wal", buf);
    let seq = r.u64()?;
    let mut exts = [None, None];
    for slot in &mut exts {
        *slot = match r.u8()? {
            0 => None,
            1 => Some(Extent::decode(&mut r)?),
            other => return Err(r.corrupt(format!("bad extent tag {other}"))),
        };
    }
    let [catalog, directory] = exts;
    Ok(Root { seq, catalog, directory })
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
        let mut s = DurableStore::new(SimulatedDevice::new(ps), 8);
        assert!(s.recover().unwrap().formatted);
        s
    }

    fn reopen(store: DurableStore<SimulatedDevice>) -> (DurableStore<SimulatedDevice>, RecoveryReport) {
        let mut s = DurableStore::new(store.into_device(), 8);
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
    fn catalog_blob_survives_reopen() {
        let mut s = open(256);
        assert_eq!(s.catalog().unwrap(), None);
        s.put_catalog(b"LAWM catalog image").unwrap();
        let (s, _) = reopen(s);
        assert_eq!(s.catalog().unwrap().as_deref(), Some(&b"LAWM catalog image"[..]));
    }

    #[test]
    fn multiple_commits_alternate_superblocks_and_keep_latest() {
        let mut s = open(256);
        for i in 0..5u8 {
            s.put_catalog(&[i; 37]).unwrap();
        }
        assert_eq!(s.seq(), 5);
        let (s, report) = reopen(s);
        assert_eq!(report.seq, 5);
        assert_eq!(s.catalog().unwrap(), Some(vec![4u8; 37]));
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
        // Two column extents of 5 rows, the directory, one WAL data
        // frame, the commit frame and the superblock: one page each.
        assert_eq!(s.stats().pages_written - before, 6);
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
        // Two appends with no commit between: the grandchild's parent
        // was never written, so it too rewrites in full.
        let c = appended(&appended(&b, 2), 2);
        s.replace_table(&c).unwrap();
        assert_eq!(s.stored_table("demo").unwrap().segments.len(), 1);
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
        s.put_catalog(b"v1").unwrap();
        let old_root = Root { seq: s.seq(), catalog: s.catalog.clone(), directory: None };
        s.put_catalog(b"v2").unwrap(); // seq 2, superblock slot 0
        // Clobber slot 0 with the seq-1 root again (as if the slot-0
        // write never happened). Slot 1 holds seq 1 as well.
        let mut fake = Root { seq: 1, ..old_root };
        fake.directory = None;
        let body = encode_root(&fake);
        let mut page = vec![0u8; 16 + body.len()];
        page[4..8].copy_from_slice(SB_MAGIC);
        page[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        page[12..16].copy_from_slice(&(body.len() as u32).to_le_bytes());
        page[16..].copy_from_slice(&body);
        let crc = crc32(&page[4..]).to_le_bytes();
        page[..4].copy_from_slice(&crc);
        let mut dev = s.into_device();
        dev.write_page(0, &page).unwrap();
        let mut s = DurableStore::new(dev, 8);
        let report = s.recover().unwrap();
        assert!(report.replayed, "{report:?}");
        assert_eq!(report.seq, 2);
        assert_eq!(s.catalog().unwrap().as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn torn_wal_tail_rolls_back() {
        let mut s = open(256);
        s.put_catalog(b"committed").unwrap();
        let mut dev = s.into_device();
        // Scribble a half-written frame for a phantom seq-2 txn.
        let mut junk = encode_frame(2, FRAME_DATA, 0, b"half-written root record");
        let n = junk.len();
        junk.truncate(n - 5); // torn: crc no longer matches
        dev.write_page(2, &junk).unwrap();
        let mut s = DurableStore::new(dev, 8);
        let report = s.recover().unwrap();
        assert!(report.rolled_back, "{report:?}");
        assert_eq!(report.seq, 1, "pre-commit state");
        assert_eq!(s.catalog().unwrap().as_deref(), Some(&b"committed"[..]));
    }

    #[test]
    fn operations_refuse_before_recover() {
        let mut s: DurableStore<SimulatedDevice> =
            DurableStore::new(SimulatedDevice::new(256), 8);
        assert!(s.store_table(&demo_table("t", 3)).is_err());
        assert!(s.catalog().is_err());
        assert!(s.read_table("t").is_err());
    }

    #[test]
    fn tiny_pages_are_refused() {
        let mut s = DurableStore::new(SimulatedDevice::new(64), 8);
        assert!(s.recover().is_err());
    }

    #[test]
    fn corrupt_data_page_is_detected_by_checksum() {
        let mut s = open(256);
        s.put_catalog(&[0xAB; 300]).unwrap();
        let ext = s.catalog.clone().unwrap();
        let mut dev = s.into_device();
        let mut page = dev.peek_page(ext.start).unwrap().to_vec();
        page[17] ^= 0x40;
        dev.write_page(ext.start, &page).unwrap();
        let mut s = DurableStore::new(dev, 8);
        s.recover().unwrap();
        let err = s.catalog().unwrap_err();
        assert!(matches!(err, StorageError::CorruptData { codec: "blob", .. }), "{err}");
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
