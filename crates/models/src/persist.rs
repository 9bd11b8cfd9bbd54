//! Model-catalog persistence.
//!
//! "We can store the models in their source code form inside the
//! database" (Section 3) — and across restarts. The format leans on
//! that insight: the model *body* is persisted as its formula source
//! text and re-parsed on load (the parser is the schema), while the
//! fitted numbers travel as little-endian scalars with varint framing.
//!
//! Layout (all integers varint unless noted):
//!
//! ```text
//! magic "LAWM" | crc32 u32-le of everything after it |
//! format version | next_id | model count
//! per model:
//!   id | version | state u8 | overall_r2 f64 |
//!   max_abs_residual (tag u8, f64 when present) |
//!   formula source | optional legal-filter source |
//!   coverage { table | response | variables | rows_at_fit |
//!              optional predicate | domains } |
//!   params: tag u8 (0 global, 1 grouped) { … }
//! ```
//!
//! The whole-image checksum (format v2) means *any* truncation or byte
//! flip of a stored image is a structured [`ModelError`], never a
//! silently wrong model — the property the root `tests/hostile_bytes.rs`
//! driver pins down. For crash safety the image rides the storage
//! durability layer via [`ModelCatalog::save_to_store`] /
//! [`ModelCatalog::load_from_store`].

use crate::catalog::ModelCatalog;
use crate::error::{ModelError, Result};
use crate::model::{CapturedModel, Coverage, GroupParams, ModelId, ModelParams, ModelState};
use lawsdb_storage::codec::Reader;
use lawsdb_storage::compress::varint;
use std::collections::HashMap;

const MAGIC: &[u8; 4] = b"LAWM";
const FORMAT_VERSION: u64 = 3;
/// Byte offset where the checksummed region starts (magic + crc32).
const BODY_START: usize = 8;

fn put_str(out: &mut Vec<u8>, s: &str) {
    varint::put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn get_str(r: &mut Reader<'_>) -> Result<String> {
    let len = r.varint_u64()? as usize;
    Ok(r.utf8(len, "string")?)
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn get_opt_str(r: &mut Reader<'_>) -> Result<Option<String>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_str(r)?)),
        other => Err(r.corrupt(format!("bad option tag {other}")).into()),
    }
}

/// A varint element count; anything beyond the bytes left is bogus
/// (every element takes at least one), so reject before allocating.
fn get_count(r: &mut Reader<'_>, what: &str) -> Result<usize> {
    let n = r.varint_u64()?;
    Ok(r.claim(n, 1, what)?)
}

fn encode_model(out: &mut Vec<u8>, m: &CapturedModel) {
    varint::put_u64(out, m.id.0);
    varint::put_u64(out, m.version as u64);
    out.push(match m.state {
        ModelState::Active => 0,
        ModelState::Stale => 1,
        ModelState::Retired => 2,
    });
    put_f64(out, m.overall_r2);
    match m.max_abs_residual {
        None => out.push(0),
        Some(b) => {
            out.push(1);
            put_f64(out, b);
        }
    }
    put_str(out, &m.formula_source);
    put_opt_str(out, m.legal_filter.as_ref().map(|e| e.to_string()).as_deref());
    // Coverage.
    put_str(out, &m.coverage.table);
    put_str(out, &m.coverage.response);
    varint::put_u64(out, m.coverage.variables.len() as u64);
    for v in &m.coverage.variables {
        put_str(out, v);
    }
    varint::put_u64(out, m.coverage.rows_at_fit as u64);
    put_opt_str(out, m.coverage.predicate.as_deref());
    varint::put_u64(out, m.coverage.domains.len() as u64);
    for (name, vals) in &m.coverage.domains {
        put_str(out, name);
        varint::put_u64(out, vals.len() as u64);
        for &v in vals {
            put_f64(out, v);
        }
    }
    // Params.
    match &m.params {
        ModelParams::Global { names, values, residual_se, r2, n } => {
            out.push(0);
            varint::put_u64(out, names.len() as u64);
            for (name, &v) in names.iter().zip(values) {
                put_str(out, name);
                put_f64(out, v);
            }
            put_f64(out, *residual_se);
            put_f64(out, *r2);
            varint::put_u64(out, *n as u64);
        }
        ModelParams::Grouped { group_column, names, groups } => {
            out.push(1);
            put_str(out, group_column);
            varint::put_u64(out, names.len() as u64);
            for name in names {
                put_str(out, name);
            }
            varint::put_u64(out, groups.len() as u64);
            let mut keys: Vec<i64> = groups.keys().copied().collect();
            keys.sort_unstable();
            for k in keys {
                let g = &groups[&k];
                varint::put_i64(out, k);
                for &v in &g.values {
                    put_f64(out, v);
                }
                put_f64(out, g.residual_se);
                put_f64(out, g.r2);
                varint::put_u64(out, g.n as u64);
            }
        }
    }
}

fn decode_model(r: &mut Reader<'_>) -> Result<CapturedModel> {
    let id = ModelId(r.varint_u64()?);
    let version = r.varint_u64()? as u32;
    let state = match r.u8()? {
        0 => ModelState::Active,
        1 => ModelState::Stale,
        2 => ModelState::Retired,
        other => return Err(r.corrupt(format!("bad state tag {other}")).into()),
    };
    let overall_r2 = r.f64()?;
    let max_abs_residual = match r.u8()? {
        0 => None,
        1 => Some(r.f64()?),
        other => return Err(r.corrupt(format!("bad residual-bound tag {other}")).into()),
    };
    let formula_source = get_str(r)?;
    let legal_src = get_opt_str(r)?;
    let formula = lawsdb_expr::parse_formula(&formula_source)?;
    let legal_filter = match legal_src {
        None => None,
        Some(src) => Some(lawsdb_expr::parse_expr(&src)?),
    };
    // Coverage.
    let table = get_str(r)?;
    let response = get_str(r)?;
    let nvars = get_count(r, "variable")?;
    let mut variables = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        variables.push(get_str(r)?);
    }
    let rows_at_fit = r.varint_u64()? as usize;
    let predicate = get_opt_str(r)?;
    let ndomains = get_count(r, "domain")?;
    let mut domains = Vec::with_capacity(ndomains);
    for _ in 0..ndomains {
        let name = get_str(r)?;
        let nvals = r.varint_u64()? as usize;
        domains.push((name, r.vec8(nvals, "domain values", f64::from_le_bytes)?));
    }
    // Params.
    let params = match r.u8()? {
        0 => {
            let np = get_count(r, "param")?;
            let mut names = Vec::with_capacity(np);
            let mut values = Vec::with_capacity(np);
            for _ in 0..np {
                names.push(get_str(r)?);
                values.push(r.f64()?);
            }
            let residual_se = r.f64()?;
            let r2 = r.f64()?;
            let n = r.varint_u64()? as usize;
            ModelParams::Global { names, values, residual_se, r2, n }
        }
        1 => {
            let group_column = get_str(r)?;
            let np = get_count(r, "param")?;
            let mut names = Vec::with_capacity(np);
            for _ in 0..np {
                names.push(get_str(r)?);
            }
            let ngroups = get_count(r, "group")?;
            let mut groups = HashMap::with_capacity(ngroups);
            for _ in 0..ngroups {
                let key = r.varint_i64()?;
                let values = r.vec8(np, "group params", f64::from_le_bytes)?;
                let residual_se = r.f64()?;
                let r2 = r.f64()?;
                let n = r.varint_u64()? as usize;
                groups.insert(key, GroupParams { values, residual_se, r2, n });
            }
            ModelParams::Grouped { group_column, names, groups }
        }
        other => return Err(r.corrupt(format!("bad params tag {other}")).into()),
    };
    Ok(CapturedModel {
        id,
        version,
        formula_source,
        rhs: formula.rhs,
        params,
        coverage: Coverage { table, response, variables, rows_at_fit, predicate, domains },
        overall_r2,
        max_abs_residual,
        state,
        legal_filter,
        observed_combos: None,
    })
}

impl ModelCatalog {
    /// Serialize the whole catalog (all versions, all states).
    pub fn to_bytes(&self) -> Vec<u8> {
        let (next_id, models) = self.snapshot();
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&[0; 4]); // crc placeholder
        varint::put_u64(&mut out, FORMAT_VERSION);
        varint::put_u64(&mut out, next_id);
        varint::put_u64(&mut out, models.len() as u64);
        for m in &models {
            encode_model(&mut out, m);
        }
        let crc = lawsdb_storage::crc32(&out[BODY_START..]).to_le_bytes();
        out[4..BODY_START].copy_from_slice(&crc);
        out
    }

    /// Rebuild a catalog from [`ModelCatalog::to_bytes`] output.
    pub fn from_bytes(buf: &[u8]) -> Result<ModelCatalog> {
        let bad = |d: &str| ModelError::BadConstruction { detail: d.to_string() };
        if buf.len() < BODY_START || &buf[..4] != MAGIC {
            return Err(bad("missing LAWM magic"));
        }
        let stored = u32::from_le_bytes(buf[4..BODY_START].try_into().expect("4 bytes"));
        if lawsdb_storage::crc32(&buf[BODY_START..]) != stored {
            return Err(bad("catalog image checksum mismatch"));
        }
        let mut r = Reader::new("model catalog", &buf[BODY_START..]);
        let version = r.varint_u64()?;
        if version != FORMAT_VERSION {
            return Err(bad(&format!("unsupported format version {version}")));
        }
        let next_id = r.varint_u64()?;
        let count = get_count(&mut r, "model")?;
        let mut models = Vec::with_capacity(count);
        for _ in 0..count {
            models.push(decode_model(&mut r)?);
        }
        Ok(ModelCatalog::restore(next_id, models))
    }

    /// Write the catalog to a file.
    pub fn save_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Load a catalog from a file written by [`ModelCatalog::save_to`].
    pub fn load_from(path: &std::path::Path) -> Result<ModelCatalog> {
        let bytes = std::fs::read(path).map_err(|e| ModelError::BadConstruction {
            detail: format!("cannot read {}: {e}", path.display()),
        })?;
        ModelCatalog::from_bytes(&bytes)
    }

    /// Persist the catalog image into a crash-safe store as one atomic
    /// commit — the durable counterpart of [`ModelCatalog::save_to`].
    pub fn save_to_store<D: lawsdb_storage::BlockDevice>(
        &self,
        store: &mut lawsdb_storage::DurableStore<D>,
    ) -> Result<()> {
        store.put_catalog(&self.to_bytes()).map_err(ModelError::Storage)
    }

    /// Load the catalog image a crash-safe store recovered to; an empty
    /// catalog if none was ever committed.
    pub fn load_from_store<D: lawsdb_storage::BlockDevice>(
        store: &lawsdb_storage::DurableStore<D>,
    ) -> Result<ModelCatalog> {
        match store.catalog().map_err(ModelError::Storage)? {
            Some(bytes) => ModelCatalog::from_bytes(&bytes),
            None => Ok(ModelCatalog::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_fit::FitOptions;
    use lawsdb_models_test_helpers::lofar_model;

    /// Local helper namespace (kept in-file to avoid a test-support crate).
    mod lawsdb_models_test_helpers {
        use crate::bridge::fit_table_grouped;
        use crate::CapturedModel;
        use lawsdb_fit::FitOptions;
        use lawsdb_storage::TableBuilder;

        pub fn lofar_model(options: &FitOptions) -> CapturedModel {
            let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
            let mut src = Vec::new();
            let mut nu = Vec::new();
            let mut intensity = Vec::new();
            for s in 0..5i64 {
                let (p, a) = (1.0 + s as f64 * 0.4, -0.6 - s as f64 * 0.1);
                for i in 0..40 {
                    src.push(s);
                    nu.push(freqs[i % 4]);
                    intensity.push(p * freqs[i % 4].powf(a));
                }
            }
            let mut b = TableBuilder::new("measurements");
            b.add_i64("source", src);
            b.add_f64("nu", nu);
            b.add_f64("intensity", intensity);
            fit_table_grouped(
                &b.build().unwrap(),
                "intensity ~ p * nu ^ alpha",
                "source",
                options,
                1,
            )
            .unwrap()
            .0
        }
    }

    #[test]
    fn catalog_roundtrips_through_bytes() {
        let catalog = ModelCatalog::new();
        let opts = FitOptions::default().with_initial("alpha", -0.7);
        let m1 = catalog.store(lofar_model(&opts));
        let m2 = catalog.store(
            lofar_model(&opts)
                .with_legal_filter("nu >= 0.12 && nu <= 0.18")
                .unwrap(),
        );
        catalog.set_state(m1.id, ModelState::Retired).unwrap();

        let bytes = catalog.to_bytes();
        let restored = ModelCatalog::from_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), 2);

        let r1 = restored.get(m1.id).unwrap();
        assert_eq!(r1.state, ModelState::Retired);
        assert_eq!(r1.formula_source, m1.formula_source);
        assert_eq!(r1.params, m1.params);
        assert_eq!(r1.coverage, m1.coverage);

        let r2m = restored.get(m2.id).unwrap();
        assert!(r2m.legal_filter.is_some());
        // The restored model predicts identically.
        let a = m2.predict_scalar(Some(3), &[("nu", 0.14)]).unwrap();
        let b = r2m.predict_scalar(Some(3), &[("nu", 0.14)]).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        // Id allocation continues where it left off.
        let m3 = restored.store(lofar_model(&opts));
        assert!(m3.id.0 > m2.id.0);
    }

    #[test]
    fn file_roundtrip() {
        let catalog = ModelCatalog::new();
        let opts = FitOptions::default().with_initial("alpha", -0.7);
        catalog.store(lofar_model(&opts));
        let dir = std::env::temp_dir().join("lawsdb_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.lawm");
        catalog.save_to(&path).unwrap();
        let restored = ModelCatalog::load_from(&path).unwrap();
        assert_eq!(restored.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_bytes_are_rejected_not_panicking() {
        assert!(ModelCatalog::from_bytes(b"").is_err());
        assert!(ModelCatalog::from_bytes(b"XXXX").is_err());
        let catalog = ModelCatalog::new();
        let opts = FitOptions::default().with_initial("alpha", -0.7);
        catalog.store(lofar_model(&opts));
        let bytes = catalog.to_bytes();
        // Truncations at every prefix must error, never panic.
        for cut in [5, 10, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(ModelCatalog::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // The whole-image checksum catches any single-byte flip.
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x01;
            assert!(ModelCatalog::from_bytes(&flipped).is_err(), "byte {i}");
        }
    }

    #[test]
    fn catalog_rides_the_durable_store() {
        use lawsdb_storage::{DurableStore, SimulatedDevice};
        let catalog = ModelCatalog::new();
        let opts = FitOptions::default().with_initial("alpha", -0.7);
        let m = catalog.store(lofar_model(&opts));
        let mut store = DurableStore::new(SimulatedDevice::new(256), 8);
        store.recover().unwrap();
        catalog.save_to_store(&mut store).unwrap();
        // Simulate a restart: re-open the device and recover.
        let mut store = DurableStore::new(store.into_device(), 8);
        store.recover().unwrap();
        let restored = ModelCatalog::load_from_store(&store).unwrap();
        assert_eq!(restored.len(), 1);
        let r = restored.get(m.id).unwrap();
        let a = m.predict_scalar(Some(2), &[("nu", 0.15)]).unwrap();
        let b = r.predict_scalar(Some(2), &[("nu", 0.15)]).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
        // A store with no catalog loads as empty.
        let mut empty = DurableStore::new(SimulatedDevice::new(256), 8);
        empty.recover().unwrap();
        assert_eq!(ModelCatalog::load_from_store(&empty).unwrap().len(), 0);
    }
}
