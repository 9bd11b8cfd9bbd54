//! End-to-end integration: the paper's full pipeline on the synthetic
//! LOFAR workload — generate, register, intercept a fit, answer both
//! example queries, compress, detect anomalies.

use lawsdb::approx::anomaly::{rank_anomalies, recall_at_k, MisfitScore};
use lawsdb::core::storage_mgr::{compress_column, decompress_column, CompressionMode};
use lawsdb::core::{AnswerMode, FitOptions};
use lawsdb::data::lofar::{LofarConfig, LofarDataset};
use lawsdb::prelude::*;

fn lofar_db(sources: usize, noise: f64, anomalies: f64) -> (LawsDb, LofarDataset) {
    let cfg = LofarConfig {
        noise_rel: noise,
        anomaly_fraction: anomalies,
        ..LofarConfig::with_sources(sources)
    };
    let data = LofarDataset::generate(&cfg);
    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(data.table.clone()).unwrap();
    (db, data)
}

fn capture(db: &LawsDb) -> lawsdb::core::FitReport {
    let mut session = db.session();
    let frame = session.frame("measurements").unwrap();
    session
        .fit(
            &frame,
            "intensity ~ p * nu ^ alpha",
            FitOptions::grouped_by("source")
                .with_raw(lawsdb::fit::FitOptions::default().with_initial("alpha", -0.7)),
        )
        .unwrap()
}

#[test]
fn paper_pipeline_end_to_end() {
    let (db, data) = lofar_db(300, 0.05, 0.0);
    let report = capture(&db);
    assert!(report.overall_r2 > 0.85, "R² {}", report.overall_r2);
    assert_eq!(report.parameter_vectors, 300);

    // Paper query 1: point reconstruction, zero IO, error-bounded.
    let a1 = db
        .query_approx("SELECT intensity FROM measurements WHERE source = 42 AND nu = 0.14")
        .unwrap();
    assert_eq!(a1.rows_scanned, 0);
    assert_eq!(a1.table.row_count(), 1);
    let v = a1.table.column("intensity").unwrap().f64_data().unwrap()[0];
    let t = &data.truth[42];
    let truth = t.p * 0.14_f64.powf(t.alpha);
    assert!(
        (v - truth).abs() < 0.1 * truth.abs().max(0.01),
        "predicted {v} vs truth {truth}"
    );
    assert!(a1.error_bound.unwrap() > 0.0);

    // Paper query 2: enumeration, compared against exact execution.
    let q2 = "SELECT source, intensity FROM measurements \
              WHERE nu = 0.15 AND intensity > 1.0";
    let approx = db.query_approx(q2).unwrap();
    let exact = db.query(q2).unwrap();
    let approx_sources: std::collections::BTreeSet<i64> = approx
        .table
        .column("source")
        .unwrap()
        .i64_data()
        .unwrap()
        .iter()
        .copied()
        .collect();
    let exact_sources: std::collections::BTreeSet<i64> = exact
        .table
        .column("source")
        .unwrap()
        .i64_data()
        .unwrap()
        .iter()
        .copied()
        .collect();
    let disagree = approx_sources.symmetric_difference(&exact_sources).count();
    // Sources whose noisy intensity straddles the 1.0 threshold flip
    // between the exact (noisy) and model (denoised) answer, so the
    // allowed disagreement is statistical; the slack term absorbs
    // RNG-stream differences across generator implementations.
    assert!(
        disagree <= exact_sources.len() / 10 + 4,
        "sets differ by {disagree} of {}",
        exact_sources.len()
    );
}

#[test]
fn semantic_compression_roundtrip_through_engine() {
    let (db, _) = lofar_db(100, 0.02, 0.0);
    capture(&db);
    let model = db.models().best_for("measurements", "intensity", false).unwrap();
    let table = db.table("measurements").unwrap();
    let compressed = compress_column(&model, &table, CompressionMode::Lossless).unwrap();
    assert!(compressed.ratio() < 1.0);
    let back = decompress_column(&compressed, &model, &table).unwrap();
    let original = table.column("intensity").unwrap().f64_data().unwrap();
    for (a, b) in back.iter().zip(original) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn anomaly_detection_on_planted_transients() {
    let (db, data) = lofar_db(800, 0.08, 0.03);
    capture(&db);
    let model = db.models().best_for("measurements", "intensity", false).unwrap();
    let ranked = rank_anomalies(&model, MisfitScore::OneMinusR2);
    let k = data.anomalies.len();
    assert!(k > 5, "generator should have planted anomalies");
    let recall = recall_at_k(&ranked, &data.anomalies, 2 * k);
    assert!(recall > 0.5, "recall@2k = {recall}");
}

#[test]
fn transparent_answering_switches_paths() {
    let (db, _) = lofar_db(50, 0.05, 0.0);
    let transparent = |sql| db.answer(sql, AnswerMode::Resilient, &db.exec).unwrap().answer;
    // Before capture: exact.
    let before = transparent("SELECT intensity FROM measurements WHERE source = 1 AND nu = 0.15");
    assert!(!before.is_approximate());
    capture(&db);
    // After capture: approximate, zero IO.
    let after = transparent("SELECT intensity FROM measurements WHERE source = 1 AND nu = 0.15");
    assert!(after.is_approximate());
    assert_eq!(after.rows_scanned(), 0);
    // A query no model covers still works exactly (COUNT(*) has no
    // modeled column).
    let exact = transparent("SELECT COUNT(*) FROM measurements");
    assert!(!exact.is_approximate());
}

#[test]
fn data_change_lifecycle() {
    let (db, _) = lofar_db(60, 0.02, 0.0);
    let report = capture(&db);
    // Append rows for a brand-new source.
    let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
    let mut src = Vec::new();
    let mut nu = Vec::new();
    let mut intensity = Vec::new();
    for i in 0..40usize {
        src.push(5000i64);
        nu.push(freqs[i % 4]);
        intensity.push(1.5 * freqs[i % 4].powf(-0.6));
    }
    let stale = db
        .append_rows(
            "measurements",
            &[
                lawsdb::storage::Column::from_i64(src),
                lawsdb::storage::Column::from_f64(nu),
                lawsdb::storage::Column::from_f64(intensity),
            ],
        )
        .unwrap();
    assert_eq!(stale.len(), 1);
    // Stale: no active model answers.
    assert!(db
        .query_approx("SELECT intensity FROM measurements WHERE source = 1 AND nu = 0.15")
        .is_err());
    // Re-fit covers the new source too.
    let fresh = db
        .refit(
            report.model,
            &lawsdb::fit::FitOptions::default().with_initial("alpha", -0.7),
        )
        .unwrap();
    assert_eq!(fresh.params.rows(), 61);
    let a = db
        .query_approx("SELECT intensity FROM measurements WHERE source = 5000 AND nu = 0.15")
        .unwrap();
    let v = a.table.column("intensity").unwrap().f64_data().unwrap()[0];
    assert!((v - 1.5 * 0.15_f64.powf(-0.6)).abs() < 0.05);
}

#[test]
fn concurrent_appends_keep_every_batch() {
    // A base table big enough that copying it takes a while, so an
    // append that read, copied and replaced it without a lock would
    // let another append's batch slip in between and be lost.
    const BASE: usize = 200_000;
    let (threads, appends, rows) = (4i64, 25i64, 10i64);
    let mut b = lawsdb::storage::TableBuilder::new("events");
    b.add_i64("marker", vec![0; BASE]);
    b.add_f64("v", vec![0.5; BASE]);
    let db = LawsDb::new();
    db.register_table(b.build().unwrap()).unwrap();
    std::thread::scope(|s| {
        for t in 0..threads {
            let db = &db;
            s.spawn(move || {
                for a in 0..appends {
                    // Each appended row's marker is unique, so the SUM
                    // tells which batches landed.
                    let marker = (0..rows).map(|r| 1 + (t * appends + a) * rows + r).collect();
                    let batch = [
                        lawsdb::storage::Column::from_i64(marker),
                        lawsdb::storage::Column::from_f64(vec![1.0; rows as usize]),
                    ];
                    db.append_rows("events", &batch).unwrap();
                }
            });
        }
    });
    let n = threads * appends * rows;
    let r = db.query("SELECT COUNT(*) AS n, SUM(marker) AS s FROM events").unwrap();
    let want = vec![Value::Int(BASE as i64 + n), Value::Float((n * (n + 1) / 2) as f64)];
    assert_eq!(r.table.row(0).unwrap(), want);
}
