//! The seeded fixture and the reference oracle answers are checked
//! against.
//!
//! The fixture is `lawsdb_data::lofar`: one power law per source,
//! ~40.7 observations per source over four bands, 2 % relative noise.
//! The generator seed, the literal pools and every append batch derive
//! from `--seed`; the engine receives only generated tables and SQL.

use crate::rng::Rng;
use crate::workload::Literals;
use lawsdb::data::lofar::{LofarConfig, LofarDataset, PAPER_FREQUENCIES};
use lawsdb::query::{execute_with, ExecOptions};
use lawsdb::server::QueryMode;
use lawsdb::storage::{Catalog, Column, Table};
use std::collections::HashMap;

/// Relative interference noise of the fixture and of appended rows.
pub const NOISE_REL: f64 = 0.02;

/// Rows per `append` op.
pub const APPEND_ROWS: usize = 200;

/// Bytes of user data one append carries (three 8-byte columns).
pub const APPEND_USER_BYTES: u64 = (APPEND_ROWS * 3 * 8) as u64;

/// Fixture size. The full size is the issue's; tests pass a small one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Sources in the fixture (≈ 40.7 rows each).
    pub sources: usize,
    /// Source literals `point` / `src_avg` draw from. Wider than the
    /// engine's 256-entry plan cache, so plan reuse stays low.
    pub source_pool: usize,
}

impl Scale {
    /// 5,000 sources (≈ 204k rows), 1,000 source literals.
    pub const FULL: Scale = Scale { sources: 5_000, source_pool: 1_000 };
}

/// Everything generated from the seed.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// The run's seed.
    pub seed: u64,
    /// The `measurements(source, nu, intensity)` table and its truth.
    pub dataset: LofarDataset,
    /// Literal pools.
    pub literals: Literals,
}

impl Fixture {
    /// Generate the fixture for `seed`.
    pub fn generate(seed: u64, scale: Scale) -> Fixture {
        let config = LofarConfig {
            sources: scale.sources,
            noise_rel: NOISE_REL,
            seed: Rng::new(seed, &[0x10]).next_u64(),
            ..LofarConfig::default()
        };
        Fixture {
            seed,
            dataset: LofarDataset::generate(&config),
            literals: Literals::generate(seed, scale.sources, scale.source_pool),
        }
    }

    /// Batch number `seq` of [`APPEND_ROWS`] new observations: sources
    /// drawn uniformly among those that follow their power law, values
    /// from the source's true law with the fixture's noise, so a refit
    /// model stays as good as the first one.
    pub fn append_batch(&self, seq: u64) -> Vec<Column> {
        let mut rng = Rng::new(self.seed, &[0x12, seq]);
        let truth = &self.dataset.truth;
        let (mut source, mut nu, mut intensity) = (Vec::new(), Vec::new(), Vec::new());
        while source.len() < APPEND_ROWS {
            let t = &truth[rng.below(truth.len())];
            if t.anomaly.is_some() {
                continue;
            }
            let f = PAPER_FREQUENCIES[rng.below(PAPER_FREQUENCIES.len())];
            source.push(t.source);
            nu.push(f);
            intensity.push((t.p * f.powf(t.alpha) * (1.0 + NOISE_REL * rng.normal())).max(0.0));
        }
        vec![Column::from_i64(source), Column::from_f64(nu), Column::from_f64(intensity)]
    }
}

/// 64-bit fingerprint of a result table: schema, row count and every
/// value's bit pattern, in order. Two tables with one fingerprint are
/// bit-identical (up to a 2⁻⁶⁴ collision), and a fingerprint costs
/// eight bytes to keep where the table would cost megabytes of the
/// resident memory the benchmark is measuring.
pub fn fingerprint(table: &Table) -> u64 {
    fn mix(h: u64, x: u64) -> u64 {
        (h.rotate_left(5) ^ x).wrapping_mul(0x517C_C1B7_2722_0A95)
    }
    fn mix_bytes(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(mix(h, bytes.len() as u64), |h, b| mix(h, u64::from(*b)))
    }
    let mut h = mix(0, table.row_count() as u64);
    for (field, column) in table.schema().fields().iter().zip(table.columns()) {
        h = mix_bytes(h, field.name.as_bytes());
        h = mix_bytes(h, format!("{:?}", field.data_type).as_bytes());
        h = match column {
            Column::Int64 { data, .. } => data.as_slice().iter().fold(h, |h, v| mix(h, *v as u64)),
            Column::Float64 { data, .. } => {
                data.as_slice().iter().fold(h, |h, v| mix(h, v.to_bits()))
            }
            Column::Str { data, .. } => {
                data.as_slice().iter().fold(h, |h, v| mix_bytes(h, v.as_bytes()))
            }
            Column::Bool { data, .. } => {
                (0..column.len()).fold(h, |h, i| mix(h, u64::from(data.get(i))))
            }
        };
        let validity = column.validity();
        h = mix(h, validity.count_set() as u64);
        if !validity.all_set() {
            h = (0..column.len()).fold(h, |h, i| mix(h, u64::from(validity.get(i))));
        }
    }
    h
}

/// The reference answer to one SQL text.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Fingerprint of the exact result table.
    pub fingerprint: u64,
    /// Rows in the exact result.
    pub rows: usize,
    /// First column, when the result is keyed (an integer column
    /// followed by others) and values were kept.
    pub keys: Vec<i64>,
    /// Last column as floats — kept only for texts a model may answer.
    pub values: Vec<f64>,
}

/// Options the reference runs under: one thread, pruning off — the
/// naive scan every exact path is held bit-identical to.
fn reference_options() -> ExecOptions {
    ExecOptions { threads: 1, pruning: false, ..ExecOptions::default() }
}

/// Compute the reference for `sql` with the embedded engine.
pub fn reference(catalog: &Catalog, sql: &str, keep_values: bool) -> Result<Reference, String> {
    let result = execute_with(catalog, sql, &reference_options()).map_err(|e| e.to_string())?;
    let table = &result.table;
    let mut reference = Reference {
        fingerprint: fingerprint(table),
        rows: table.row_count(),
        keys: Vec::new(),
        values: Vec::new(),
    };
    if keep_values {
        let (keys, values) = keyed_values(table)?;
        reference.keys = keys;
        reference.values = values;
    }
    Ok(reference)
}

/// `(first column if it is an integer key beside other columns, last
/// column as floats)`.
fn keyed_values(table: &Table) -> Result<(Vec<i64>, Vec<f64>), String> {
    let columns = table.columns();
    let last = columns.last().ok_or("result has no columns")?;
    let values = last.to_f64_lossy().map_err(|e| e.to_string())?;
    let keys = match columns.first() {
        Some(first) if columns.len() > 1 => {
            first.i64_data().map(<[i64]>::to_vec).unwrap_or_default()
        }
        _ => Vec::new(),
    };
    Ok((keys, values))
}

/// Reference answers keyed by SQL text.
#[derive(Debug, Default)]
pub struct Oracle {
    refs: HashMap<String, Reference>,
}

impl Oracle {
    /// Compute the reference of every `(text, mode)` against `catalog`.
    /// Values are kept for the modes a model may answer in.
    pub fn build(catalog: &Catalog, texts: &[(String, QueryMode)]) -> Result<Oracle, String> {
        let mut refs = HashMap::with_capacity(texts.len());
        for (sql, mode) in texts {
            let keep = matches!(mode, QueryMode::Resilient | QueryMode::Adaptive);
            refs.insert(sql.clone(), reference(catalog, sql, keep)?);
        }
        Ok(Oracle { refs })
    }

    /// The reference for `sql`.
    pub fn get(&self, sql: &str) -> Option<&Reference> {
        self.refs.get(sql)
    }
}

/// How far an approximate answer lies from its exact reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxError {
    /// Largest absolute difference over the compared values.
    pub max_abs: f64,
    /// Summed absolute difference over summed absolute reference.
    pub relative: f64,
}

/// Compare an approximate result with the exact reference:
///
/// * keyed results (`GROUP BY`) are joined on the key;
/// * a single approximate row against many exact rows (a point query:
///   the model gives the law's value, the data its noisy repeats) is
///   compared with the mean of the exact rows;
/// * otherwise rows are compared in order.
///
/// `Err` when the two cannot be lined up at all.
pub fn approx_error(reference: &Reference, approx: &Table) -> Result<ApproxError, String> {
    let (keys, values) = keyed_values(approx)?;
    let pairs: Vec<(f64, f64)> = if !keys.is_empty() && !reference.keys.is_empty() {
        let exact: HashMap<i64, f64> =
            reference.keys.iter().copied().zip(reference.values.iter().copied()).collect();
        if keys.len() != reference.keys.len() {
            return Err(format!("{} groups against {} exact", keys.len(), reference.keys.len()));
        }
        keys.iter()
            .zip(&values)
            .map(|(k, v)| {
                exact.get(k).map(|e| (*v, *e)).ok_or(format!("group {k} not in reference"))
            })
            .collect::<Result<_, _>>()?
    } else if values.len() == 1 && !reference.values.is_empty() {
        let mean = reference.values.iter().sum::<f64>() / reference.values.len() as f64;
        vec![(values[0], mean)]
    } else if values.len() == reference.values.len() {
        values.iter().copied().zip(reference.values.iter().copied()).collect()
    } else {
        return Err(format!("{} rows against {} exact", values.len(), reference.values.len()));
    };
    let mut out = ApproxError { max_abs: 0.0, relative: 0.0 };
    let (mut abs_sum, mut ref_sum) = (0.0, 0.0);
    for (a, e) in pairs {
        let d = (a - e).abs();
        if d.is_nan() {
            return Err("NaN in approximate or exact value".to_string());
        }
        out.max_abs = out.max_abs.max(d);
        abs_sum += d;
        ref_sum += e.abs();
    }
    out.relative = if ref_sum > 0.0 { abs_sum / ref_sum } else { 0.0 };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb::storage::TableBuilder;

    fn table(name: &str, keys: &[i64], values: &[f64]) -> Table {
        let mut b = TableBuilder::new(name);
        b.add_i64("k", keys.to_vec());
        b.add_f64("v", values.to_vec());
        b.build().unwrap()
    }

    #[test]
    fn fingerprint_sees_every_bit_and_the_order() {
        let a = table("t", &[1, 2], &[0.5, 0.0]);
        assert_eq!(fingerprint(&a), fingerprint(&table("t", &[1, 2], &[0.5, 0.0])));
        assert_ne!(fingerprint(&a), fingerprint(&table("t", &[1, 2], &[0.5, -0.0])));
        assert_ne!(fingerprint(&a), fingerprint(&table("t", &[2, 1], &[0.0, 0.5])));
        assert_ne!(fingerprint(&a), fingerprint(&table("t", &[1], &[0.5])));
        let next_up = f64::from_bits(0.5f64.to_bits() + 1);
        assert_ne!(fingerprint(&a), fingerprint(&table("t", &[1, 2], &[next_up, 0.0])));
    }

    #[test]
    fn approx_error_joins_groups_on_the_key() {
        let exact = Reference {
            fingerprint: 0,
            rows: 3,
            keys: vec![1, 2, 3],
            values: vec![10.0, 20.0, 30.0],
        };
        let approx = table("a", &[3, 1, 2], &[33.0, 10.0, 19.0]);
        let e = approx_error(&exact, &approx).unwrap();
        assert_eq!(e.max_abs, 3.0);
        assert!((e.relative - 4.0 / 60.0).abs() < 1e-12);
        assert!(approx_error(&exact, &table("a", &[1, 2], &[1.0, 2.0])).is_err());
        assert!(approx_error(&exact, &table("a", &[1, 2, 4], &[1.0, 2.0, 3.0])).is_err());
    }

    #[test]
    fn approx_error_compares_a_point_with_the_mean_of_its_repeats() {
        let exact =
            Reference { fingerprint: 0, rows: 4, keys: vec![], values: vec![1.0, 2.0, 3.0, 2.0] };
        let mut b = TableBuilder::new("a");
        b.add_f64("v", vec![2.5]);
        let e = approx_error(&exact, &b.build().unwrap()).unwrap();
        assert_eq!(e.max_abs, 0.5);
    }

    #[test]
    fn append_batches_repeat_per_seed_and_sequence() {
        let scale = Scale { sources: 50, source_pool: 10 };
        let fx = Fixture::generate(5, scale);
        assert_eq!(fx.append_batch(3), Fixture::generate(5, scale).append_batch(3));
        assert_ne!(fx.append_batch(3), fx.append_batch(4));
        assert_ne!(fx.append_batch(3), Fixture::generate(6, scale).append_batch(3));
        assert_eq!(fx.append_batch(0)[0].len(), APPEND_ROWS);
    }
}
