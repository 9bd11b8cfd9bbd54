//! Tables: a schema plus equal-length columns.

use crate::column::Column;
use crate::error::{Result, StorageError};
use crate::schema::{DataType, Field, Schema};
use crate::value::Value;
use crate::zonemap::{ColumnZones, TableSynopsis, DEFAULT_ZONE_ROWS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of content ids: unique within the process, never reused.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn mint_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// An immutable-by-convention columnar table.
///
/// The ingestion path goes through [`TableBuilder`]; appends (for the
/// data-change experiments) go through [`Table::append_rows`], which
/// keeps column lengths in lock-step.
///
/// Tables built through the write paths carry a [`TableSynopsis`] —
/// per-zone min/max/null-count/constant bounds used by the scan pruner.
/// The synopsis is derived metadata: it never participates in equality,
/// and row-level derivations (`take`, `slice`) drop it rather than pay
/// to rebuild it per morsel.
///
/// Every table also carries a content [`id`](Table::id): every
/// constructor mints a fresh one, `Clone` keeps it, and
/// [`Table::append_rows`] — the only way to change a table's content —
/// mints a new one and records the version it extended. So two tables
/// with the same id hold the same content, and a table that
/// [`extends`](Table::extends) `(id, rows)` holds that version's `rows`
/// rows unchanged, then its own. The durable store relies on this to
/// write only the rows appends added, and a refit to re-fit only the
/// groups they touched.
#[derive(Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    columns: Vec<Column>,
    rows: usize,
    synopsis: Option<Arc<TableSynopsis>>,
    id: u64,
    /// `(id, rows)` of every version this table was grown from by
    /// appends, oldest first (so ids increase); `None` until the first
    /// append, so constructing a table allocates nothing for it. Shared
    /// by clones; an append copies it only when a clone still holds it.
    lineage: Option<Arc<Vec<(u64, usize)>>>,
}

impl std::fmt::Debug for Table {
    /// Content only, like `==`: two tables holding the same rows print
    /// the same whatever their ids.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("schema", &self.schema)
            .field("columns", &self.columns)
            .field("rows", &self.rows)
            .field("synopsis", &self.synopsis)
            .finish()
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        // The synopsis and the ids are derived metadata, excluded on
        // purpose: a table read back from pages compares equal to the
        // one stored.
        self.name == other.name
            && self.schema == other.schema
            && self.columns == other.columns
            && self.rows == other.rows
    }
}

impl Table {
    /// Construct from parts; validates lengths and name uniqueness.
    pub fn new(name: impl Into<String>, schema: Schema, columns: Vec<Column>) -> Result<Table> {
        let name = name.into();
        if schema.len() != columns.len() {
            return Err(StorageError::InvalidTable {
                reason: "schema and column counts differ",
            });
        }
        if schema.is_empty() {
            return Err(StorageError::InvalidTable { reason: "table needs at least one column" });
        }
        let mut seen: Vec<&str> = Vec::with_capacity(schema.len());
        for f in schema.fields() {
            if seen.contains(&f.name.as_str()) {
                return Err(StorageError::DuplicateColumn { name: f.name.clone() });
            }
            seen.push(&f.name);
        }
        let rows = columns[0].len();
        for (f, c) in schema.fields().iter().zip(&columns) {
            if c.len() != rows {
                return Err(StorageError::ColumnLengthMismatch {
                    expected: rows,
                    column: f.name.clone(),
                    got: c.len(),
                });
            }
            if c.data_type() != f.data_type {
                return Err(StorageError::TypeMismatch {
                    op: "table construction",
                    expected: f.data_type.name(),
                    got: c.data_type().name(),
                });
            }
        }
        Ok(Table { name, schema, columns, rows, synopsis: None, id: mint_id(), lineage: None })
    }

    /// Content id: equal ids mean equal content (see the type docs).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// True when this table's first `rows` rows are version `id`'s
    /// rows, unchanged: `id` is this table with its `rows` rows, or a
    /// version it was grown from by [`Table::append_rows`] that held
    /// `rows` rows. A constructed table extends only itself.
    pub fn extends(&self, id: u64, rows: usize) -> bool {
        let lineage = self.lineage.as_deref().map_or(&[][..], Vec::as_slice);
        let earlier = lineage.binary_search_by_key(&id, |&(v, _)| v);
        (id, rows) == (self.id, self.rows) || earlier.is_ok_and(|i| lineage[i].1 == rows)
    }

    /// The table's zone-map synopsis, when one has been built.
    pub fn synopsis(&self) -> Option<&TableSynopsis> {
        self.synopsis.as_deref()
    }

    /// Build (or rebuild) zone maps for every non-string column at the
    /// default granularity. Called by the write paths; scans only ever
    /// read the result.
    pub fn rebuild_synopsis(&mut self) {
        self.rebuild_synopsis_with(DEFAULT_ZONE_ROWS);
    }

    /// Build (or rebuild) zone maps with an explicit zone granularity.
    pub fn rebuild_synopsis_with(&mut self, zone_rows: usize) {
        let mut s = TableSynopsis::new();
        for (f, c) in self.schema.fields().iter().zip(&self.columns) {
            if let Some(z) = ColumnZones::build(c, zone_rows) {
                s.insert(f.name.clone(), z);
            }
        }
        self.synopsis = Some(Arc::new(s));
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| StorageError::ColumnNotFound { name: name.to_string() })?;
        Ok(&self.columns[idx])
    }

    /// One row as dynamic values (API/debug path, not the scan path).
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.rows {
            return Err(StorageError::RowOutOfRange { row, len: self.rows });
        }
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Total byte footprint of all column buffers.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(Column::byte_size).sum()
    }

    /// Append a batch of rows given as one column per field, in schema
    /// order. Types and lengths must match.
    ///
    /// Costs amortised O(batch) when no other table shares a column
    /// buffer; otherwise each shared buffer is copied once into room
    /// for the batch. The table gets a new [`id`](Table::id) and still
    /// [`extends`](Table::extends) every version it held before; a
    /// failed append changes nothing.
    pub fn append_rows(&mut self, batch: &[Column]) -> Result<()> {
        if batch.len() != self.columns.len() {
            return Err(StorageError::InvalidTable {
                reason: "append batch has wrong column count",
            });
        }
        let n = batch[0].len();
        for (f, c) in self.schema.fields().iter().zip(batch) {
            if c.len() != n {
                return Err(StorageError::ColumnLengthMismatch {
                    expected: n,
                    column: f.name.clone(),
                    got: c.len(),
                });
            }
        }
        // Validate all types before mutating anything, so a failed append
        // leaves the table unchanged.
        for (mine, theirs) in self.columns.iter().zip(batch) {
            if mine.data_type() != theirs.data_type() {
                return Err(StorageError::TypeMismatch {
                    op: "append_rows",
                    expected: mine.data_type().name(),
                    got: theirs.data_type().name(),
                });
            }
        }
        for (mine, theirs) in self.columns.iter_mut().zip(batch) {
            mine.append(theirs).expect("types validated above");
        }
        Arc::make_mut(self.lineage.get_or_insert_default()).push((self.id, self.rows));
        self.id = mint_id();
        self.rows += n;
        // Appending is a write: extend each column's zones over the new
        // rows (on the grid they were built with) so zone bounds keep
        // covering every row.
        if let Some(s) = &mut self.synopsis {
            let s = Arc::make_mut(s);
            for (f, c) in self.schema.fields().iter().zip(&self.columns) {
                if let Some(z) = s.column_mut(&f.name) {
                    z.extend(c);
                }
            }
        }
        Ok(())
    }

    /// True when [`Table::append_rows`] grows every column in place,
    /// at O(batch) cost: no other table shares a column buffer.
    pub(crate) fn grows_in_place(&self) -> bool {
        self.columns.iter().all(Column::grows_in_place)
    }

    /// New table with only the named columns (projection).
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let mut fields = Vec::with_capacity(names.len());
        let mut cols = Vec::with_capacity(names.len());
        for n in names {
            let idx = self
                .schema
                .index_of(n)
                .ok_or_else(|| StorageError::ColumnNotFound { name: n.to_string() })?;
            fields.push(self.schema.fields()[idx].clone());
            cols.push(self.columns[idx].clone());
        }
        let mut t = Table::new(self.name.clone(), Schema::new(fields), cols)?;
        // Projection keeps rows intact, so the surviving columns' zones
        // stay valid — carry them over instead of rebuilding.
        if let Some(s) = &self.synopsis {
            let mut kept = TableSynopsis::new();
            for n in names {
                if let Some(z) = s.column(n) {
                    kept.insert(n.to_string(), z.clone());
                }
            }
            if !kept.is_empty() {
                t.synopsis = Some(Arc::new(kept));
            }
        }
        Ok(t)
    }

    /// New table keeping only the rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> Result<Table> {
        let cols: Result<Vec<Column>> = self.columns.iter().map(|c| c.take(indices)).collect();
        Table::new(self.name.clone(), self.schema.clone(), cols?)
    }

    /// Contiguous row range `[offset, offset + len)` as a new table.
    ///
    /// Value buffers are shared with `self` (zero-copy); this is how
    /// the parallel executor splits a base table into morsels.
    pub fn slice(&self, offset: usize, len: usize) -> Result<Table> {
        let cols: Result<Vec<Column>> =
            self.columns.iter().map(|c| c.slice(offset, len)).collect();
        Table::new(self.name.clone(), self.schema.clone(), cols?)
    }
}

/// Builder assembling a table column by column.
#[derive(Debug, Default)]
pub struct TableBuilder {
    name: String,
    fields: Vec<Field>,
    columns: Vec<Column>,
}

impl TableBuilder {
    /// Start building a table with the given name.
    pub fn new(name: impl Into<String>) -> TableBuilder {
        TableBuilder { name: name.into(), fields: Vec::new(), columns: Vec::new() }
    }

    /// Add a non-nullable integer column.
    pub fn add_i64(&mut self, name: impl Into<String>, data: Vec<i64>) -> &mut Self {
        self.fields.push(Field::new(name, DataType::Int64));
        self.columns.push(Column::from_i64(data));
        self
    }

    /// Add a non-nullable float column.
    pub fn add_f64(&mut self, name: impl Into<String>, data: Vec<f64>) -> &mut Self {
        self.fields.push(Field::new(name, DataType::Float64));
        self.columns.push(Column::from_f64(data));
        self
    }

    /// Add a nullable float column.
    pub fn add_f64_opt(&mut self, name: impl Into<String>, data: Vec<Option<f64>>) -> &mut Self {
        self.fields.push(Field::nullable(name, DataType::Float64));
        self.columns.push(Column::from_f64_opt(data));
        self
    }

    /// Add a non-nullable string column.
    pub fn add_str(&mut self, name: impl Into<String>, data: Vec<String>) -> &mut Self {
        self.fields.push(Field::new(name, DataType::Str));
        self.columns.push(Column::from_str(data));
        self
    }

    /// Add a non-nullable boolean column.
    pub fn add_bool(&mut self, name: impl Into<String>, data: &[bool]) -> &mut Self {
        self.fields.push(Field::new(name, DataType::Bool));
        self.columns.push(Column::from_bool(data));
        self
    }

    /// Add an already-built column with an explicit field definition.
    pub fn add_column(&mut self, field: Field, column: Column) -> &mut Self {
        self.fields.push(field);
        self.columns.push(column);
        self
    }

    /// Finish, validating shape and types. The built table carries a
    /// zone-map synopsis computed in one extra pass (write-time cost,
    /// scan-time payoff).
    pub fn build(&mut self) -> Result<Table> {
        let mut t = Table::new(
            std::mem::take(&mut self.name),
            Schema::new(std::mem::take(&mut self.fields)),
            std::mem::take(&mut self.columns),
        )?;
        t.rebuild_synopsis();
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitmap::Bitmap;
    use crate::zonemap::ZoneEntry;

    fn lofar_like() -> Table {
        let mut b = TableBuilder::new("measurements");
        b.add_i64("source", vec![1, 1, 2, 2]);
        b.add_f64("nu", vec![0.12, 0.15, 0.12, 0.15]);
        b.add_f64("intensity", vec![0.23, 0.34, 1.59, 1.41]);
        b.build().unwrap()
    }

    #[test]
    fn builder_builds_consistent_table() {
        let t = lofar_like();
        assert_eq!(t.name(), "measurements");
        assert_eq!(t.row_count(), 4);
        assert_eq!(t.schema().names(), vec!["source", "nu", "intensity"]);
        assert_eq!(t.column("nu").unwrap().f64_data().unwrap()[1], 0.15);
        assert!(t.column("zz").is_err());
    }

    #[test]
    fn ragged_columns_rejected() {
        let mut b = TableBuilder::new("bad");
        b.add_i64("a", vec![1, 2]);
        b.add_f64("b", vec![1.0]);
        assert!(matches!(b.build(), Err(StorageError::ColumnLengthMismatch { .. })));
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut b = TableBuilder::new("bad");
        b.add_i64("a", vec![1]);
        b.add_f64("a", vec![1.0]);
        assert!(matches!(b.build(), Err(StorageError::DuplicateColumn { .. })));
    }

    #[test]
    fn empty_table_rejected() {
        let mut b = TableBuilder::new("bad");
        assert!(matches!(b.build(), Err(StorageError::InvalidTable { .. })));
    }

    #[test]
    fn row_access() {
        let t = lofar_like();
        let r = t.row(2).unwrap();
        assert_eq!(r, vec![Value::Int(2), Value::Float(0.12), Value::Float(1.59)]);
        assert!(t.row(4).is_err());
    }

    #[test]
    fn append_rows_grows_table() {
        let mut t = lofar_like();
        let batch = vec![
            Column::from_i64(vec![3]),
            Column::from_f64(vec![0.16]),
            Column::from_f64(vec![2.0]),
        ];
        t.append_rows(&batch).unwrap();
        assert_eq!(t.row_count(), 5);
        assert_eq!(t.row(4).unwrap()[0], Value::Int(3));
    }

    #[test]
    fn append_rejects_bad_types_without_mutating() {
        let mut t = lofar_like();
        let batch = vec![
            Column::from_f64(vec![3.0]), // wrong: should be i64
            Column::from_f64(vec![0.16]),
            Column::from_f64(vec![2.0]),
        ];
        assert!(t.append_rows(&batch).is_err());
        assert_eq!(t.row_count(), 4);
    }

    #[test]
    fn projection_and_take() {
        let t = lofar_like();
        let p = t.project(&["intensity", "source"]).unwrap();
        assert_eq!(p.schema().names(), vec!["intensity", "source"]);
        let s = t.take(&[0, 3]).unwrap();
        assert_eq!(s.row_count(), 2);
        assert_eq!(s.row(1).unwrap()[2], Value::Float(1.41));
    }

    #[test]
    fn byte_size_of_paper_shape() {
        // Three 8-byte columns over 4 rows + 3 validity bytes.
        let t = lofar_like();
        assert_eq!(t.byte_size(), 3 * (4 * 8 + 1));
    }

    #[test]
    fn builder_attaches_zone_synopsis() {
        let t = lofar_like();
        let s = t.synopsis().expect("write path builds a synopsis");
        let z = s.column("intensity").unwrap();
        assert_eq!((z.entries[0].min, z.entries[0].max), (0.23, 1.59));
        assert!(s.column("nu").is_some());
        // Derived row subsets drop the (now-invalid) synopsis.
        assert!(t.take(&[0, 2]).unwrap().synopsis().is_none());
        assert!(t.slice(1, 2).unwrap().synopsis().is_none());
    }

    #[test]
    fn append_refreshes_zone_bounds() {
        let mut t = lofar_like();
        t.append_rows(&[
            Column::from_i64(vec![3]),
            Column::from_f64(vec![0.16]),
            Column::from_f64(vec![99.0]),
        ])
        .unwrap();
        let z = t.synopsis().unwrap().column("intensity").unwrap();
        assert_eq!(z.entries[0].max, 99.0);
        assert_eq!(z.row_count(), 5);
    }

    #[test]
    fn append_mints_an_id_and_extends_every_earlier_version() {
        let t = lofar_like();
        assert!(t.extends(t.id(), 4));
        assert!(!t.extends(t.id(), 3), "a version is its id and its rows");
        let copy = t.clone();
        assert_eq!(copy.id(), t.id(), "a clone is the same content");
        let mut grown = t.clone();
        grown
            .append_rows(&[
                Column::from_i64(vec![3]),
                Column::from_f64(vec![0.16]),
                Column::from_f64(vec![2.0]),
            ])
            .unwrap();
        assert_ne!(grown.id(), t.id());
        assert!(grown.extends(t.id(), 4));
        let middle = grown.id();
        grown
            .append_rows(&[
                Column::from_i64(vec![4, 5]),
                Column::from_f64(vec![0.12, 0.15]),
                Column::from_f64(vec![1.0, 2.0]),
            ])
            .unwrap();
        // Two appends on, the table still proves both earlier versions.
        assert!(grown.extends(t.id(), 4) && grown.extends(middle, 5));
        assert!(!grown.extends(middle, 4) && !t.extends(middle, 5));
        // A rebuilt table with the same rows extends nothing it was not
        // grown from.
        assert!(!lofar_like().extends(t.id(), 4));
        // A failed append changes nothing, the id included.
        let before = grown.id();
        assert!(grown.append_rows(&[Column::from_i64(vec![1])]).is_err());
        assert_eq!(grown.id(), before);
        // Equality ignores ids: the same rows built again compare equal.
        let rebuilt = lofar_like();
        assert_ne!(rebuilt.id(), t.id());
        assert_eq!(rebuilt, t);
    }

    /// Rows `[from, from + n)` of a table whose columns cycle through
    /// NULL, NaN, ±0.0 and ±inf.
    fn hostile_rows(from: usize, n: usize) -> Vec<Column> {
        const FLOATS: [Option<f64>; 8] = [
            Some(1.5),
            None,
            Some(f64::NAN),
            Some(-0.0),
            Some(0.0),
            Some(f64::INFINITY),
            Some(f64::NEG_INFINITY),
            Some(-2.25),
        ];
        let rows = from..from + n;
        let ints = rows.clone().map(|i| (i % 5 != 3).then_some(i as i64 * 7 - 40));
        let bool_valid = Bitmap::from_fn(n, |i| (from + i) % 4 != 1);
        vec![
            Column::from_i64_opt(ints.collect()),
            Column::from_f64_opt(rows.map(|i| FLOATS[i % FLOATS.len()]).collect()),
            Column::Bool { data: Bitmap::from_fn(n, |i| (from + i).is_multiple_of(3)), validity: bool_valid },
        ]
    }

    #[test]
    fn extended_synopsis_equals_a_rebuilt_one() {
        let schema = Schema::new(vec![
            Field::nullable("k", DataType::Int64),
            Field::nullable("f", DataType::Float64),
            Field::nullable("b", DataType::Bool),
        ]);
        for zone_rows in [1, 7, 64, 4096] {
            // Bases that end on a zone boundary and off one.
            let bases = [0, 1, zone_rows, 3 * zone_rows, 3 * zone_rows + 2, 5000];
            for base in bases {
                let mut t = Table::new("t", schema.clone(), hostile_rows(0, base)).unwrap();
                t.rebuild_synopsis_with(zone_rows);
                let mut rows = base;
                for batch in [1, zone_rows, 200, 0] {
                    t.append_rows(&hostile_rows(rows, batch)).unwrap();
                    rows += batch;
                    let mut rebuilt = t.clone();
                    rebuilt.rebuild_synopsis_with(zone_rows);
                    let ctx = format!("zone_rows {zone_rows}, base {base}, {rows} rows");
                    for name in ["k", "f", "b"] {
                        let got = t.synopsis().unwrap().column(name).unwrap();
                        let want = rebuilt.synopsis().unwrap().column(name).unwrap();
                        assert_eq!(got.zone_rows, zone_rows, "{ctx}: grid kept");
                        assert_eq!(got, want, "{ctx}: column {name}");
                        for (g, w) in got.entries.iter().zip(&want.entries) {
                            let bits = |e: &ZoneEntry| {
                                (e.min.to_bits(), e.max.to_bits(), e.agg.sum.value().to_bits())
                            };
                            assert_eq!(bits(g), bits(w), "{ctx}: column {name}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn projection_carries_surviving_zones() {
        let t = lofar_like();
        let p = t.project(&["nu"]).unwrap();
        let s = p.synopsis().unwrap();
        assert!(s.column("nu").is_some());
        assert!(s.column("intensity").is_none());
    }

    #[test]
    fn slice_rows_and_share_buffers() {
        let t = lofar_like();
        let s = t.slice(1, 2).unwrap();
        assert_eq!(s.row_count(), 2);
        assert_eq!(s.row(0).unwrap(), t.row(1).unwrap());
        assert_eq!(s.row(1).unwrap(), t.row(2).unwrap());
        assert!(t.slice(3, 2).is_err());
        // Zero-copy: clone, project, and slice all alias the original
        // value buffers instead of copying them.
        let cloned = t.clone();
        let projected = t.project(&["nu"]).unwrap();
        assert!(std::ptr::eq(
            t.column("nu").unwrap().f64_data().unwrap().as_ptr(),
            cloned.column("nu").unwrap().f64_data().unwrap().as_ptr()
        ));
        assert!(std::ptr::eq(
            t.column("nu").unwrap().f64_data().unwrap().as_ptr(),
            projected.column("nu").unwrap().f64_data().unwrap().as_ptr()
        ));
        assert!(std::ptr::eq(
            &t.column("nu").unwrap().f64_data().unwrap()[1],
            &s.column("nu").unwrap().f64_data().unwrap()[0]
        ));
    }
}
