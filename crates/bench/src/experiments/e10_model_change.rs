//! **E10** — data and model changes (Section 4.1).
//!
//! "Changing or added observations can change fit of the model
//! dramatically. This could also make a model with a previously poor fit
//! relevant again. A possible solution could be to check these measures
//! for all previous models and switch when appropriate."
//!
//! The experiment: capture a power-law model and semantically compress
//! against it; then append observations of *new* sources the model has
//! never seen; observe the stale marking, the degraded compression (the
//! uncovered rows ride as raw exceptions), the re-fit extending
//! coverage, the model switch (old version retired but kept) and the
//! recovered compression.

use crate::Scale;
use lawsdb_core::storage_mgr::{compress_column, CompressionMode};
use lawsdb_core::LawsDb;
use lawsdb_data::lofar::{LofarConfig, LofarDataset};
use lawsdb_data::rng;
use lawsdb_fit::FitOptions;
use lawsdb_models::ModelState;
use lawsdb_storage::Column;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Experiment report.
#[derive(Debug, Clone)]
pub struct E10Report {
    /// R² of the original capture.
    pub r2_before: f64,
    /// Compressed bytes before the change.
    pub bytes_before: usize,
    /// Stale model count after append.
    pub stale_after_append: usize,
    /// Compressed bytes using the stale model on the changed data.
    pub bytes_stale: usize,
    /// R² after the re-fit.
    pub r2_after: f64,
    /// Compressed bytes after re-fit + recompression.
    pub bytes_refit: usize,
    /// Model versions now in the catalog for the coverage.
    pub versions_kept: usize,
    /// Old model's state after the switch.
    pub old_state: ModelState,
}

/// Quantization step for the compression metric: the lossless XOR codec
/// saturates (any misprediction beyond ~0.1% costs the full mantissa),
/// while quantized bytes grow with log₂ of the residual magnitude —
/// exactly the sensitivity this lifecycle experiment needs.
const EPS: f64 = 1e-4;

/// Run the model-change lifecycle.
pub fn run(scale: Scale) -> E10Report {
    let cfg = LofarConfig {
        sources: scale.lofar_sources().min(1000),
        noise_rel: 0.005,
        anomaly_fraction: 0.0,
        ..LofarConfig::default()
    };
    let data = LofarDataset::generate(&cfg);
    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(data.table).expect("fresh catalog");
    let model = db
        .capture_model(
            "measurements",
            "intensity ~ p * nu ^ alpha",
            Some("source"),
            // The paper: choosing starting parameters that converge is
            // the model author's job; a radio astronomer starts the
            // spectral index near the thermal value.
            &FitOptions::default().with_initial("alpha", -0.7),
        )
        .expect("capture fits");
    let r2_before = model.overall_r2;
    let table = db.table("measurements").expect("registered");
    let bytes_before = compress_column(&model, &table, CompressionMode::Quantized { eps: EPS })
        .expect("compress")
        .compressed_bytes();

    // Append a batch of *new* sources — the transients the survey
    // exists to find. The stale model has no parameters for them, so
    // every new row rides as a raw exception until the re-fit extends
    // coverage ("added observations can change [the] fit … check these
    // measures … and switch when appropriate").
    let mut rng = StdRng::seed_from_u64(77);
    let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
    let base = cfg.sources as i64;
    let mut src = Vec::new();
    let mut nu = Vec::new();
    let mut intensity = Vec::new();
    for t in &data.truth {
        let new_source = base + t.source;
        let (p, alpha) = (t.p * 1.5, t.alpha - 0.3);
        for i in 0..40usize {
            let f = freqs[i % 4];
            src.push(new_source);
            nu.push(f);
            intensity.push(
                p * f.powf(alpha) * (1.0 + rng::normal(&mut rng, 0.0, 0.005)),
            );
        }
    }
    let stale = db
        .append_rows(
            "measurements",
            &[Column::from_i64(src), Column::from_f64(nu), Column::from_f64(intensity)],
        )
        .expect("append");

    // Stale model still *can* compress (compression never consults the
    // model's state), but badly — measure it against the changed table.
    let changed = db.table("measurements").expect("registered");
    let bytes_stale = compress_column(&model, &changed, CompressionMode::Quantized { eps: EPS })
        .expect("compress with stale model")
        .compressed_bytes();

    // Re-fit: new version wins, old is retired but kept.
    let fresh = db.refit(model.id, &FitOptions::default()).expect("refit");
    let bytes_refit = compress_column(&fresh, &changed, CompressionMode::Quantized { eps: EPS })
        .expect("recompress")
        .compressed_bytes();

    let versions_kept = db.models().models_for("measurements", "intensity").len();
    let old_state = db.models().get(model.id).expect("kept").state;

    E10Report {
        r2_before,
        bytes_before,
        stale_after_append: stale.len(),
        bytes_stale,
        r2_after: fresh.overall_r2,
        bytes_refit,
        versions_kept,
        old_state,
    }
}

/// Print the lifecycle.
pub fn print(r: &E10Report) {
    println!("=== E10: data/model changes, re-fit and recompression ===");
    println!("capture:    R² = {:.4}, semantic column = {}", r.r2_before, crate::fmt_bytes(r.bytes_before));
    println!("append drift batch → {} model(s) marked stale", r.stale_after_append);
    println!("stale model on new data: column = {}", crate::fmt_bytes(r.bytes_stale));
    println!(
        "re-fit:     R² = {:.4}, column = {} (old version kept as {:?})",
        r.r2_after,
        crate::fmt_bytes(r.bytes_refit),
        r.old_state
    );
    println!("versions retained for coverage: {}", r.versions_kept);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_degrades_then_recovers() {
        let r = run(Scale::Small);
        assert!(r.r2_before > 0.95);
        assert_eq!(r.stale_after_append, 1);
        // Drifted data compresses worse under the stale model…
        assert!(
            r.bytes_stale > r.bytes_before,
            "stale {} vs before {}",
            r.bytes_stale,
            r.bytes_before
        );
        // …and recovers after the re-fit. The mixed regimes (old + new
        // law per source) fit worse than the clean original, so compare
        // against the stale bytes, not the originals.
        assert!(
            r.bytes_refit < r.bytes_stale,
            "refit {} vs stale {}",
            r.bytes_refit,
            r.bytes_stale
        );
        assert_eq!(r.versions_kept, 2);
        assert_eq!(r.old_state, ModelState::Retired);
    }
}
