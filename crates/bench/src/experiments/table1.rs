//! **E1 / Table 1** — "Example LOFAR observations and approximation".
//!
//! The paper: 1,452,824 measurement rows over 35,692 sources are
//! replaced by a per-source parameter table (spectral index α, constant
//! p, residual SE) — "ca. 11 MB of observations with 640 KB of model
//! parameters, ca. 5% of the original dataset size".

use crate::Scale;
use lawsdb_core::LawsDb;
use lawsdb_data::lofar::{LofarConfig, LofarDataset};
use lawsdb_fit::FitOptions;

/// Measured Table 1 reproduction.
#[derive(Debug, Clone)]
pub struct Table1Report {
    /// Measurement rows generated.
    pub rows: usize,
    /// Sources generated.
    pub sources: usize,
    /// Sources successfully fitted.
    pub sources_fitted: usize,
    /// Raw bytes of the three-column measurements table.
    pub raw_bytes: usize,
    /// Bytes of the stored parameter table.
    pub param_bytes: usize,
    /// Pooled R² of the captured model.
    pub overall_r2: f64,
    /// First few parameter rows: (source, α, p, residual SE).
    pub sample_rows: Vec<(i64, f64, f64, f64)>,
    /// Wall-clock microseconds for the grouped capture.
    pub capture_us: f64,
}

impl Table1Report {
    /// `param_bytes / raw_bytes` — the paper reports ≈ 0.05.
    pub fn ratio(&self) -> f64 {
        self.param_bytes as f64 / self.raw_bytes as f64
    }
}

/// Run the Table 1 experiment.
pub fn run(scale: Scale) -> Table1Report {
    let cfg = match scale {
        Scale::Paper => LofarConfig::paper_scale(),
        other => LofarConfig::with_sources(other.lofar_sources()),
    };
    let data = LofarDataset::generate(&cfg);
    let rows = data.rows();
    let sources = cfg.sources;
    let raw_bytes = data.table.byte_size();

    let db = LawsDb::new();
    // Anomalous sources drag pooled R² — accept what the data gives.
    let db = {
        let mut db = db;
        db.quality.min_r2 = 0.0;
        db
    };
    db.register_table(data.table).expect("fresh catalog");
    let (model, capture_us) = crate::time_us(|| {
        db.capture_model(
            "measurements",
            "intensity ~ p * nu ^ alpha",
            Some("source"),
            // The paper: choosing starting parameters that converge is
            // the model author's job; a radio astronomer starts the
            // spectral index near the thermal value.
            &FitOptions::default().with_initial("alpha", -0.7),
        )
        .expect("LOFAR capture fits")
    });

    let param_bytes = model.params.byte_size();
    // The model's parameters are Table 1: its first rows, in key order.
    let params = &model.params;
    let column = |name: &str| {
        let j = params.names.iter().position(|n| n == name).expect("a parameter of the law");
        &params.values[j]
    };
    let (alpha, p) = (column("alpha"), column("p"));
    let sample_rows = (params.keys.iter().enumerate().take(3))
        .map(|(row, &k)| (k, alpha[row], p[row], params.residual_se[row]))
        .collect();
    Table1Report {
        rows,
        sources,
        sources_fitted: params.rows(),
        raw_bytes,
        param_bytes,
        overall_r2: model.overall_r2,
        sample_rows,
        capture_us,
    }
}

/// Print the paper-style table.
pub fn print(r: &Table1Report) {
    println!("=== E1 / Table 1: LOFAR observations -> model parameters ===");
    println!(
        "observations: {} rows over {} sources ({} raw)",
        r.rows,
        r.sources,
        crate::fmt_bytes(r.raw_bytes)
    );
    println!("grouped fit: {} sources fitted in {}", r.sources_fitted, crate::fmt_us(r.capture_us));
    println!();
    println!("Source  Spectral Index α  Constant p    Residual SE");
    for (s, alpha, p, rse) in &r.sample_rows {
        println!("{s:>6}  {alpha:>16.7}  {p:>10.7}  {rse:>12.9}");
    }
    println!("[{} more rows]", r.sources_fitted.saturating_sub(r.sample_rows.len()));
    println!();
    println!(
        "parameter table: {} — {:.1}% of raw (paper: 640 KB / 11 MB ≈ 5.8%)",
        crate::fmt_bytes(r.param_bytes),
        r.ratio() * 100.0
    );
    println!("pooled R²: {:.4}", r.overall_r2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_reproduces_the_shape() {
        let r = run(Scale::Small);
        assert_eq!(r.sources, 500);
        assert!(r.rows > 10_000);
        // The headline: parameters are a small fraction of raw bytes.
        assert!(r.ratio() < 0.2, "ratio {}", r.ratio());
        // And most sources fit well.
        assert!(r.sources_fitted as f64 > 0.95 * r.sources as f64);
        assert!(r.overall_r2 > 0.35, "pooled R² {}", r.overall_r2);
        assert_eq!(r.sample_rows.len(), 3);
    }
}
