//! **E9** — parameter-space enumeration and legal combinations
//! (Section 4.2).
//!
//! The paper's second query leaves the source unbound: answering it from
//! the model means enumerating *all* sources at the pinned frequency.
//! We measure that enumeration against the exact scan, and sweep the
//! legal-combination Bloom filter's bits-per-key against its measured
//! false-positive rate (its job: keep enumeration from inventing
//! never-observed tuples).

use crate::Scale;
use lawsdb_models::legal::{build_legal_filter, combo_hash};
use lawsdb_core::LawsDb;
use lawsdb_data::lofar::{LofarConfig, LofarDataset};
use lawsdb_fit::FitOptions;

/// One bits-per-key point of the Bloom sweep.
#[derive(Debug, Clone, Copy)]
pub struct BloomPoint {
    /// Bits per key.
    pub bits_per_key: usize,
    /// Filter size in bytes.
    pub bytes: usize,
    /// Measured false-positive rate on held-out absent combos.
    pub fp_rate: f64,
}

/// Experiment report.
#[derive(Debug, Clone)]
pub struct E9Report {
    /// Base rows.
    pub rows: usize,
    /// Tuples the enumeration reconstructed.
    pub tuples_reconstructed: usize,
    /// Result rows both paths agreed on.
    pub result_rows: usize,
    /// Enumeration time (µs).
    pub enumerate_us: f64,
    /// Exact scan time (µs, CPU only — see E5 for the IO side).
    pub exact_us: f64,
    /// Symmetric difference between exact and enumerated source sets
    /// (should be 0 on clean data).
    pub result_disagreement: usize,
    /// Bloom sweep.
    pub bloom: Vec<BloomPoint>,
}

/// Run the enumeration experiment: the paper's query 2.
pub fn run(scale: Scale) -> E9Report {
    let cfg = LofarConfig {
        noise_rel: 0.005,
        anomaly_fraction: 0.0,
        ..LofarConfig::with_sources(scale.lofar_sources())
    };
    let data = LofarDataset::generate(&cfg);
    let rows = data.rows();
    let table = data.table.clone();
    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(data.table).expect("fresh catalog");
    db.capture_model(
        "measurements",
        "intensity ~ p * nu ^ alpha",
        Some("source"),
        &FitOptions::default().with_initial("alpha", -0.7),
    )
    .expect("capture fits");

    // Threshold chosen to select a minority of sources.
    let sql = "SELECT source, intensity FROM measurements \
               WHERE nu = 0.15 AND intensity > 0.5 ORDER BY source";
    let (exact, exact_us) = crate::time_us(|| db.query(sql).expect("exact"));
    let (approx, enumerate_us) = crate::time_us(|| db.query_approx(sql).expect("model"));

    // Compare the *source sets* (exact has one row per observation,
    // enumeration one per source).
    let exact_sources: std::collections::BTreeSet<i64> = exact
        .table
        .column("source")
        .expect("col")
        .i64_data()
        .expect("i64")
        .iter()
        .copied()
        .collect();
    let approx_sources: std::collections::BTreeSet<i64> = approx
        .table
        .column("source")
        .expect("col")
        .i64_data()
        .expect("i64")
        .iter()
        .copied()
        .collect();
    let result_disagreement = exact_sources.symmetric_difference(&approx_sources).count();

    // Bloom sweep: filter built over observed (source, nu) combos,
    // probed with held-out combos that never occur (shifted sources).
    let src = table.column("source").expect("col").i64_data().expect("i64");
    let nu = table.column("nu").expect("col").f64_data().expect("f64");
    let absent: Vec<u64> = (0..20_000)
        .map(|i| combo_hash(1_000_000 + i as i64, &[0.15]))
        .collect();
    let bloom = [4usize, 6, 8, 10, 12, 16]
        .into_iter()
        .map(|bits_per_key| {
            let bf = build_legal_filter(src.iter().copied().map(Some), &[nu], bits_per_key);
            BloomPoint { bits_per_key, bytes: bf.byte_size(), fp_rate: bf.measure_fp_rate(&absent) }
        })
        .collect();

    E9Report {
        rows,
        tuples_reconstructed: approx.tuples_reconstructed,
        result_rows: approx.table.row_count(),
        enumerate_us,
        exact_us,
        result_disagreement,
        bloom,
    }
}

/// Print the report.
pub fn print(r: &E9Report) {
    println!("=== E9: parameter-space enumeration + legal combinations ===");
    println!(
        "query 2 (unbound source): enumeration reconstructed {} tuples in {} \
         (exact scan of {} rows: {})",
        r.tuples_reconstructed,
        crate::fmt_us(r.enumerate_us),
        r.rows,
        crate::fmt_us(r.exact_us)
    );
    println!(
        "qualifying sources: {} — disagreement with exact: {}",
        r.result_rows, r.result_disagreement
    );
    println!();
    println!("-- legal-combination Bloom filter sweep --");
    println!("bits/key   filter size   false-positive rate");
    for b in &r.bloom {
        println!(
            "{:>8}  {:>11}  {:>18.4}%",
            b.bits_per_key,
            crate::fmt_bytes(b.bytes),
            b.fp_rate * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_matches_exact_source_set() {
        let r = run(Scale::Small);
        // Borderline sources whose noisy observations straddle the
        // threshold may flip; demand near-perfect agreement.
        assert!(
            r.result_disagreement <= r.result_rows / 20 + 2,
            "disagreement {} of {}",
            r.result_disagreement,
            r.result_rows
        );
        assert!(r.tuples_reconstructed > 0);
        assert!(r.tuples_reconstructed < r.rows, "enumeration is smaller than the data");
        // FP rate falls as bits/key rises.
        assert!(r.bloom.first().unwrap().fp_rate > r.bloom.last().unwrap().fp_rate);
        assert!(r.bloom.last().unwrap().fp_rate < 0.005);
    }
}
