//! Model-based physical storage — Section 4.1 realized.
//!
//! "If we use the user-supplied model as a compression model, we can
//! expect high compression rates … A straightforward compression method
//! would be to store only the differences between the predicted and
//! observed values. Using the model and trained parameters, we can then
//! recompute the original dataset without loss of information."
//!
//! [`compress_column`] does exactly that: predict the response column
//! from a captured model, encode only the residual stream (lossless XOR
//! or bounded-error quantized), and account the bytes. Decompression
//! re-predicts and adds the residuals back — bit-exact in lossless mode.
//!
//! Rows the model cannot predict (groups whose fit failed) are carried
//! as an explicit exception list, preserving losslessness over partial
//! coverage (Section 4.1's "multiple, partial or grouped models").

use crate::error::{CoreError, Result};
use crate::resilience::DegradeReason;
use lawsdb_models::bridge::predict_table;
use lawsdb_models::persist::CATALOG_PREFIX;
use lawsdb_models::{CapturedModel, ModelCatalog};
use lawsdb_storage::codec::Reader;
use lawsdb_storage::compress::{residual, varint};
use lawsdb_storage::wal::DurableStore;
use lawsdb_storage::{BlockDevice, Column, IoStats, RecoveryReport, Table};

/// Residual encoding mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompressionMode {
    /// Bit-exact reconstruction (XOR residuals).
    Lossless,
    /// Bounded-error reconstruction: |error| ≤ eps/2.
    Quantized {
        /// Quantization step.
        eps: f64,
    },
}

/// A semantically compressed column.
#[derive(Debug, Clone)]
pub struct CompressedColumn {
    /// Source table.
    pub table: String,
    /// Compressed column name.
    pub column: String,
    /// Mode used.
    pub mode: CompressionMode,
    /// The encoded payload (residual stream + exception list).
    payload: Vec<u8>,
    /// Raw byte size of the original column buffer.
    pub raw_bytes: usize,
}

impl CompressedColumn {
    /// Compressed payload size in bytes (excludes the model parameters,
    /// which are shared across all uses of the model; add
    /// `model.params.byte_size()` for standalone accounting).
    pub fn compressed_bytes(&self) -> usize {
        self.payload.len()
    }

    /// Compression ratio `compressed / raw` for this column alone.
    pub fn ratio(&self) -> f64 {
        self.compressed_bytes() as f64 / self.raw_bytes.max(1) as f64
    }
}

/// Compress the model's response column of `table` against the model's
/// predictions.
pub fn compress_column(
    model: &CapturedModel,
    table: &Table,
    mode: CompressionMode,
) -> Result<CompressedColumn> {
    let column = &model.coverage.response;
    let observed_col = table.column(column)?;
    let observed = observed_col.to_f64_lossy()?;
    let mut predicted = predict_table(model, table)?;

    // Exception list: rows without a usable prediction (NaN from
    // unfitted groups). Their raw values ride along verbatim so
    // reconstruction stays exact. NaN *observations* are fine — the
    // lossless XOR codec round-trips them; only NaN predictions with
    // non-NaN observations need the escape hatch.
    let mut exceptions: Vec<(usize, f64)> = Vec::new();
    for (i, p) in predicted.iter_mut().enumerate() {
        if p.is_nan() {
            exceptions.push((i, observed[i]));
            *p = 0.0; // stable baseline for the codec
        }
    }

    let body = match mode {
        CompressionMode::Lossless => residual::encode_lossless(&observed, &predicted)?,
        CompressionMode::Quantized { eps } => {
            residual::encode_quantized(&observed, &predicted, eps)?
        }
    };
    let mut payload = Vec::with_capacity(body.len() + exceptions.len() * 12 + 16);
    varint::put_u64(&mut payload, exceptions.len() as u64);
    let mut prev = 0u64;
    for (i, v) in &exceptions {
        // Delta-coded row indices; raw value bits.
        varint::put_u64(&mut payload, *i as u64 - prev);
        prev = *i as u64;
        payload.extend_from_slice(&v.to_le_bytes());
    }
    payload.extend_from_slice(&body);
    Ok(CompressedColumn {
        table: table.name().to_string(),
        column: column.clone(),
        mode,
        payload,
        raw_bytes: observed_col.byte_size(),
    })
}

/// Reconstruct the column values from a compressed payload plus the
/// model and the table's *input* columns (which stay stored raw — the
/// model needs them to re-predict).
pub fn decompress_column(
    compressed: &CompressedColumn,
    model: &CapturedModel,
    table: &Table,
) -> Result<Vec<f64>> {
    let mut predicted = predict_table(model, table)?;
    let mut r = Reader::new("compressed column", &compressed.payload);
    // Each exception is a row delta varint and 8 value bytes.
    let n_exc = r.varint_u64()?;
    let mut exceptions = Vec::with_capacity(r.claim(n_exc, 9, "exception")?);
    let mut row = 0u64;
    for _ in 0..n_exc {
        // Delta-coded row indices; raw value bits.
        let delta = r.varint_u64()?;
        row = row.checked_add(delta).ok_or_else(|| r.corrupt("exception row overflows"))?;
        exceptions.push((row as usize, r.f64()?));
    }
    for p in predicted.iter_mut().filter(|p| p.is_nan()) {
        *p = 0.0; // must mirror the encode-side baseline
    }
    let body = r.rest();
    let mut values = match compressed.mode {
        CompressionMode::Lossless => residual::decode_lossless(body, &predicted)?,
        CompressionMode::Quantized { .. } => residual::decode_quantized(body, &predicted)?,
    };
    for (idx, v) in exceptions {
        if idx >= values.len() {
            return Err(CoreError::CompressionState {
                detail: format!("exception row {idx} out of range"),
            });
        }
        values[idx] = v;
    }
    Ok(values)
}

/// Crash-safe database state: paged tables plus the model catalog
/// behind the storage crate's WAL + atomic-commit protocol.
///
/// This is the engine-facing face of the durability layer. Open with
/// [`DurableDb::new`] + [`DurableDb::recover`]; every mutation is one
/// atomic commit, so a crash at any device operation recovers to
/// exactly the pre- or post-commit state (the crash-matrix suites in
/// `lawsdb-storage` and this crate prove it op by op). The model
/// catalog is stored as tables whose names start with `lawsdb_model`
/// (see `lawsdb_models::persist`); that namespace is reserved, so user
/// tables there are refused.
#[derive(Debug)]
pub struct DurableDb<D: BlockDevice> {
    store: DurableStore<D>,
}

impl<D: BlockDevice> DurableDb<D> {
    /// Wrap a device; performs no IO until [`DurableDb::recover`].
    pub fn new(device: D) -> DurableDb<D> {
        DurableDb { store: DurableStore::new(device) }
    }

    /// Open the database: format an empty device, or replay / roll back
    /// a crashed one. Must be called (successfully) before anything
    /// else.
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        self.store.recover().map_err(CoreError::Storage)
    }

    /// Commit sequence the database is at.
    pub fn seq(&self) -> u64 {
        self.store.seq()
    }

    /// Durably store a new table (one atomic commit).
    pub fn store_table(&mut self, table: &Table) -> Result<()> {
        user_table(table.name())?;
        self.store.store_table(table).map_err(CoreError::Storage)
    }

    /// Replace (or freshly store) a table in one atomic commit — the
    /// data-change path after appends or recompression.
    pub fn replace_table(&mut self, table: &Table) -> Result<()> {
        user_table(table.name())?;
        self.store.replace_table(table).map_err(CoreError::Storage)
    }

    /// Drop a table in one atomic commit.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        user_table(name)?;
        self.store.drop_table(name).map_err(CoreError::Storage)
    }

    /// Read a stored table back, checksum-verified.
    pub fn read_table(&self, name: &str) -> Result<Table> {
        self.store.read_table(name).map_err(CoreError::Storage)
    }

    /// Read a stored table, degrading gracefully around checksum
    /// failures instead of refusing the whole table.
    ///
    /// Columns live in separate extents, so a corrupt (quarantined)
    /// page takes out exactly one column. For each unreadable column
    /// the ladder is: re-derive it from the best active model in
    /// `models` covering `(table, column)` — predictions are within the
    /// model's fitted residual bound — else drop the column and carry a
    /// [`DegradeReason::ColumnLost`] warning. A clean read returns the
    /// exact table and no reasons. Only a table whose *every* column is
    /// unreadable (or whose directory is gone) still errors.
    pub fn read_table_resilient(
        &self,
        name: &str,
        models: &ModelCatalog,
    ) -> Result<(Table, Vec<DegradeReason>)> {
        match self.store.read_table(name) {
            Ok(t) => return Ok((t, Vec::new())),
            Err(lawsdb_storage::StorageError::CorruptData { .. }) => {}
            Err(e) => return Err(CoreError::Storage(e)),
        }
        // Salvage pass: read column by column.
        let st = self.store.stored_table(name).map_err(CoreError::Storage)?;
        let schema = st.schema.clone();
        let mut good: Vec<Option<Column>> = Vec::with_capacity(schema.len());
        let mut failed: Vec<(usize, String)> = Vec::new();
        for (i, field) in schema.fields().iter().enumerate() {
            match self.store.read_column(name, i) {
                Ok(c) => good.push(Some(c)),
                Err(e) => {
                    good.push(None);
                    failed.push((i, format!("{}: {e}", field.name)));
                }
            }
        }
        let mut degraded = Vec::new();
        // Reconstruction needs the model's input columns, which must
        // themselves have survived; a partial table holding only the
        // readable columns is what the model predicts against.
        let readable = Table::new(
            name.to_string(),
            lawsdb_storage::schema::Schema::new(
                schema
                    .fields()
                    .iter()
                    .zip(&good)
                    .filter(|(_, c)| c.is_some())
                    .map(|(f, _)| f.clone())
                    .collect(),
            ),
            good.iter().flatten().cloned().collect(),
        )
        .map_err(CoreError::Storage)?;
        for (i, detail) in failed {
            let field = &schema.fields()[i];
            let column = field.name.clone();
            // Models predict floats; a lost non-float column can only
            // be dropped. `best_for(…, false)` already restricts to
            // Active models.
            let rederived = (field.data_type == lawsdb_storage::DataType::Float64)
                .then(|| models.best_for(name, &column, false).ok())
                .flatten()
                .filter(|m| {
                    m.coverage.predicate.is_none() && m.coverage.rows_at_fit == st.rows
                })
                .and_then(|m| {
                    let preds = predict_table(&m, &readable).ok()?;
                    preds.iter().all(|p| p.is_finite()).then_some((m, preds))
                });
            match rederived {
                Some((m, preds)) => {
                    good[i] = Some(Column::from_f64(preds));
                    degraded.push(DegradeReason::ColumnReconstructed {
                        column,
                        model: m.id,
                        error_bound: m.max_abs_residual,
                    });
                }
                None => {
                    degraded.push(DegradeReason::ColumnLost { column, detail });
                }
            }
        }
        let fields: Vec<lawsdb_storage::schema::Field> = schema
            .fields()
            .iter()
            .zip(&good)
            .filter(|(_, c)| c.is_some())
            .map(|(f, _)| f.clone())
            .collect();
        if fields.is_empty() {
            return Err(CoreError::CompressionState {
                detail: format!("table {name:?}: every column failed verification"),
            });
        }
        let table = Table::new(
            name.to_string(),
            lawsdb_storage::schema::Schema::new(fields),
            good.into_iter().flatten().collect(),
        )
        .map_err(CoreError::Storage)?;
        Ok((table, degraded))
    }

    /// Names of all stored tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.store.table_names()
    }

    /// Durably persist the model catalog as its tables, in one atomic
    /// commit that also drops every catalog table the catalog no longer
    /// names, so the store holds exactly this catalog. Models travel in
    /// source form — the paper's "store the models in their source code
    /// form inside the database", made crash-safe.
    pub fn save_models(&mut self, catalog: &ModelCatalog) -> Result<()> {
        let tables = catalog.to_tables().map_err(CoreError::Model)?;
        let stale: Vec<String> = self
            .catalog_tables()
            .filter(|name| tables.iter().all(|t| t.name() != name))
            .collect();
        let drops: Vec<&str> = stale.iter().map(String::as_str).collect();
        self.store.commit(&tables, &drops).map_err(CoreError::Storage)
    }

    /// Load the model catalog the store recovered to (empty if none was
    /// ever saved). Every model's coverage predicate and legal filter,
    /// stored as SQL text, must parse: a catalog holding one that does
    /// not is refused with the parser's [`CoreError::Query`].
    pub fn load_models(&self) -> Result<ModelCatalog> {
        let tables = self
            .catalog_tables()
            .map(|name| self.store.read_table(&name))
            .collect::<lawsdb_storage::Result<Vec<_>>>()
            .map_err(CoreError::Storage)?;
        let catalog = ModelCatalog::from_tables(&tables).map_err(CoreError::Model)?;
        for m in catalog.all() {
            for src in [&m.coverage.predicate, &m.legal_filter].into_iter().flatten() {
                lawsdb_query::parse_predicate(src)?;
            }
        }
        Ok(catalog)
    }

    /// Names of the stored model-catalog tables.
    fn catalog_tables(&self) -> impl Iterator<Item = String> {
        self.store.table_names().into_iter().filter(|name| name.starts_with(CATALOG_PREFIX))
    }

    /// Page ranges `(start, byte_len)` of one stored column's extents,
    /// one per segment in row order — the targeting hook
    /// fault-injection tests use to corrupt a specific column.
    pub fn column_pages(&self, name: &str, index: usize) -> Result<Vec<(u64, u64)>> {
        let st = self.store.stored_table(name).map_err(CoreError::Storage)?;
        if index >= st.schema.len() {
            return Err(CoreError::CompressionState {
                detail: format!("table {name:?} has no column {index}"),
            });
        }
        let extents = st.segments.iter().map(|g| &g.columns[index]);
        Ok(extents.map(|e| (e.start, e.byte_len)).collect())
    }

    /// Device access counters.
    pub fn stats(&self) -> IoStats {
        self.store.stats()
    }

    /// Surrender the device (simulated-restart path).
    pub fn into_device(self) -> D {
        self.store.into_device()
    }

    /// Borrow the underlying device (fault-injection harnesses count
    /// device operations through this).
    pub fn device(&self) -> &D {
        self.store.device()
    }
}

/// Refuse a user table in the model catalog's reserved namespace.
fn user_table(name: &str) -> Result<()> {
    if name.starts_with(CATALOG_PREFIX) {
        return Err(CoreError::ReservedTableName { name: name.to_string() });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_fit::FitOptions;
    use lawsdb_models::bridge::fit_table_grouped;
    use lawsdb_storage::{Column, TableBuilder};

    fn noisy_lofar(n_sources: usize) -> Table {
        let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
        let mut src = Vec::new();
        let mut nu = Vec::new();
        let mut intensity = Vec::new();
        for s in 0..n_sources as i64 {
            let p = 0.5 + (s as f64 * 0.37) % 2.0;
            let a = -0.9 + (s as f64 * 0.13) % 0.5;
            for i in 0..40usize {
                let f = freqs[i % 4];
                let noise =
                    ((i as u64 ^ s as u64).wrapping_mul(0x9E3779B9) % 1000) as f64 / 1e5;
                src.push(s);
                nu.push(f);
                intensity.push(p * f.powf(a) + noise);
            }
        }
        let mut b = TableBuilder::new("measurements");
        b.add_i64("source", src);
        b.add_f64("nu", nu);
        b.add_f64("intensity", intensity);
        b.build().unwrap()
    }

    fn fitted(table: &Table) -> CapturedModel {
        fit_table_grouped(
            table,
            "intensity ~ p * nu ^ alpha",
            "source",
            &FitOptions::default(),
            2,
        )
        .unwrap()
        .0
    }

    #[test]
    fn lossless_roundtrip_is_bit_exact() {
        let t = noisy_lofar(10);
        let m = fitted(&t);
        let c = compress_column(&m, &t, CompressionMode::Lossless).unwrap();
        let back = decompress_column(&c, &m, &t).unwrap();
        let original = t.column("intensity").unwrap().f64_data().unwrap();
        assert_eq!(back.len(), original.len());
        for (a, b) in original.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(c.ratio() < 1.0, "semantic compression should win: {}", c.ratio());
    }

    #[test]
    fn quantized_respects_bound_and_compresses_harder() {
        let t = noisy_lofar(10);
        let m = fitted(&t);
        let eps = 1e-4;
        let lossless = compress_column(&m, &t, CompressionMode::Lossless).unwrap();
        let quant = compress_column(&m, &t, CompressionMode::Quantized { eps }).unwrap();
        assert!(quant.compressed_bytes() < lossless.compressed_bytes());
        let back = decompress_column(&quant, &m, &t).unwrap();
        let original = t.column("intensity").unwrap().f64_data().unwrap();
        for (a, b) in original.iter().zip(&back) {
            assert!((a - b).abs() <= eps / 2.0 + 1e-12);
        }
    }

    #[test]
    fn unfitted_group_rows_ride_as_exceptions() {
        let mut t = noisy_lofar(5);
        // A one-row group cannot be fitted → its row must be exact.
        t.append_rows(&[
            Column::from_i64(vec![999]),
            Column::from_f64(vec![0.15]),
            Column::from_f64(vec![123.456]),
        ])
        .unwrap();
        let m = fitted(&t);
        let c = compress_column(&m, &t, CompressionMode::Quantized { eps: 1e-3 }).unwrap();
        let back = decompress_column(&c, &m, &t).unwrap();
        assert_eq!(*back.last().unwrap(), 123.456, "exception row must be exact");
    }

    /// Store `t`, flip a byte inside the extent of column `index`, and
    /// reopen — the fault-injection preamble both salvage tests share.
    fn corrupted_db(
        t: &Table,
        index: usize,
    ) -> DurableDb<lawsdb_storage::SimulatedDevice> {
        let mut db = DurableDb::new(lawsdb_storage::SimulatedDevice::new(256));
        db.recover().unwrap();
        db.store_table(t).unwrap();
        let (start, _) = db.column_pages("measurements", index).unwrap()[0];
        let mut dev = db.into_device();
        dev.poke_page(start).unwrap()[0] ^= 0xFF;
        let mut db = DurableDb::new(dev);
        db.recover().unwrap();
        db
    }

    #[test]
    fn quarantined_column_is_rederived_from_the_model() {
        let t = noisy_lofar(6);
        let models = ModelCatalog::new();
        let stored = models.store(fitted(&t));
        let db = corrupted_db(&t, 2); // intensity
        assert!(db.read_table("measurements").is_err(), "corruption must be detected");
        let (salvaged, reasons) = db.read_table_resilient("measurements", &models).unwrap();
        assert!(
            matches!(
                reasons.as_slice(),
                [DegradeReason::ColumnReconstructed { column, .. }] if column == "intensity"
            ),
            "{reasons:?}"
        );
        let bound = stored.max_abs_residual.unwrap();
        let recon = salvaged.column("intensity").unwrap().f64_data().unwrap();
        let orig = t.column("intensity").unwrap().f64_data().unwrap();
        assert_eq!(recon.len(), orig.len());
        for (r, o) in recon.iter().zip(orig) {
            assert!(
                (r - o).abs() <= bound + 1e-9,
                "reconstruction must stay within the fitted bound: |{r} - {o}| > {bound}"
            );
        }
        // The surviving columns come back exact.
        assert_eq!(
            salvaged.column("nu").unwrap().f64_data().unwrap(),
            t.column("nu").unwrap().f64_data().unwrap()
        );
    }

    #[test]
    fn quarantined_column_without_model_is_dropped_with_warning() {
        let t = noisy_lofar(4);
        let db = corrupted_db(&t, 2);
        let (salvaged, reasons) =
            db.read_table_resilient("measurements", &ModelCatalog::new()).unwrap();
        assert!(
            matches!(
                reasons.as_slice(),
                [DegradeReason::ColumnLost { column, .. }] if column == "intensity"
            ),
            "{reasons:?}"
        );
        assert!(salvaged.column("intensity").is_err(), "lost column is dropped");
        assert_eq!(salvaged.schema().len(), 2);
        assert_eq!(salvaged.row_count(), t.row_count());
    }

    #[test]
    fn clean_reads_carry_no_degradation() {
        let t = noisy_lofar(3);
        let mut db = DurableDb::new(lawsdb_storage::SimulatedDevice::new(256));
        db.recover().unwrap();
        db.store_table(&t).unwrap();
        let (salvaged, reasons) =
            db.read_table_resilient("measurements", &ModelCatalog::new()).unwrap();
        assert!(reasons.is_empty());
        assert_eq!(salvaged.row_count(), t.row_count());
    }

    #[test]
    fn the_catalog_is_saved_in_one_commit_into_a_reserved_namespace() {
        let t = noisy_lofar(3);
        let mut db = DurableDb::new(lawsdb_storage::SimulatedDevice::new(256));
        db.recover().unwrap();
        let reserved = Table::new("lawsdb_models", t.schema().clone(), t.columns().to_vec());
        let reserved = reserved.unwrap();
        let refused = |r: Result<()>| matches!(r, Err(CoreError::ReservedTableName { .. }));
        assert!(refused(db.store_table(&reserved)));
        assert!(refused(db.replace_table(&reserved)));
        assert!(refused(db.drop_table("lawsdb_model_1")));
        let models = ModelCatalog::new();
        models.store(fitted(&t));
        models.store(fitted(&t));
        db.save_models(&models).unwrap();
        assert_eq!(db.seq(), 1, "one commit");
        let names = ["lawsdb_model_1", "lawsdb_model_2", "lawsdb_model_domains", "lawsdb_models"];
        assert_eq!(db.table_names(), names);
        // A catalog that no longer names a version drops its table in
        // the same commit.
        let one = ModelCatalog::new();
        one.store(fitted(&t));
        db.save_models(&one).unwrap();
        assert_eq!(db.seq(), 2);
        assert!(!db.table_names().contains(&"lawsdb_model_2".to_string()));
        assert_eq!(db.load_models().unwrap().len(), 1);
    }

    #[test]
    fn the_loader_refuses_a_predicate_that_does_not_parse() {
        let t = noisy_lofar(3);
        let mut db = DurableDb::new(lawsdb_storage::SimulatedDevice::new(256));
        db.recover().unwrap();
        let save_and_load = |db: &mut DurableDb<_>, coverage: &str, legal: &str| {
            let mut m = fitted(&t).with_legal_filter(legal);
            m.coverage.predicate = Some(coverage.to_string());
            let models = ModelCatalog::new();
            models.store(m);
            db.save_models(&models).unwrap();
            db.load_models()
        };
        let loaded = save_and_load(&mut db, "nu >= 0.15", "source != 2 AND nu < 0.3").unwrap();
        let m = &loaded.all()[0];
        assert_eq!(m.coverage.predicate.as_deref(), Some("nu >= 0.15"));
        assert_eq!(m.legal_filter.as_deref(), Some("source != 2 AND nu < 0.3"));
        // Formula-language text is not SQL, in either column.
        let formula_text = [("nu >= 0.15 && nu < 0.3", "nu < 0.3"), ("nu >= 0.15", "!(nu > 1)")];
        for (coverage, legal) in formula_text {
            let err = save_and_load(&mut db, coverage, legal).map(|_| ()).unwrap_err();
            assert!(matches!(err, CoreError::Query(_)), "{coverage} / {legal}: {err}");
        }
    }

    #[test]
    fn better_fit_compresses_better() {
        // Same data, one model fitted on clean data, one deliberately
        // poisoned by refitting against shuffled responses.
        let t = noisy_lofar(8);
        let good = fitted(&t);
        // Build a "bad model" by fitting against a scrambled copy.
        let scrambled = {
            let src = t.column("source").unwrap().clone();
            let nu = t.column("nu").unwrap().clone();
            let intensity = t.column("intensity").unwrap().f64_data().unwrap();
            let mut shuffled = intensity.to_vec();
            shuffled.rotate_left(intensity.len() / 3);
            let mut b = TableBuilder::new("measurements");
            b.add_column(
                lawsdb_storage::schema::Field::new(
                    "source",
                    lawsdb_storage::DataType::Int64,
                ),
                src,
            );
            b.add_column(
                lawsdb_storage::schema::Field::new("nu", lawsdb_storage::DataType::Float64),
                nu,
            );
            b.add_f64("intensity", shuffled);
            b.build().unwrap()
        };
        let bad = fitted(&scrambled);
        let cg = compress_column(&good, &t, CompressionMode::Lossless).unwrap();
        let cb = compress_column(&bad, &t, CompressionMode::Lossless).unwrap();
        assert!(
            cg.compressed_bytes() < cb.compressed_bytes(),
            "good {} vs bad {}",
            cg.compressed_bytes(),
            cb.compressed_bytes()
        );
    }
}
