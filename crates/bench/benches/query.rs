//! Criterion benches for query answering (E3, E5, E6, E7, E9): the
//! exact scan path vs the model-backed zero-IO paths.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lawsdb_core::LawsDb;
use lawsdb_data::lofar::{LofarConfig, LofarDataset};
use lawsdb_data::timeseries::{TimeSeriesConfig, TimeSeriesDataset};
use lawsdb_fit::FitOptions;
use lawsdb_query::{execute_with, ExecOptions};
use lawsdb_storage::{Catalog, TableBuilder};
use std::time::Duration;

fn lofar_db(sources: usize) -> LawsDb {
    let cfg = LofarConfig {
        anomaly_fraction: 0.0,
        noise_rel: 0.05,
        ..LofarConfig::with_sources(sources)
    };
    let data = LofarDataset::generate(&cfg);
    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(data.table).unwrap();
    db.capture_model(
        "measurements",
        "intensity ~ p * nu ^ alpha",
        Some("source"),
        &FitOptions::default().with_initial("alpha", -0.7),
    )
    .unwrap();
    db
}

/// E5: point lookup and band aggregate — exact vs model.
fn bench_e5_zero_io(c: &mut Criterion) {
    let db = lofar_db(500);
    let point = "SELECT intensity FROM measurements WHERE source = 42 AND nu = 0.15";
    let agg = "SELECT AVG(intensity) AS v FROM measurements WHERE nu = 0.15";

    let mut g = c.benchmark_group("e5_zero_io");
    g.bench_function("point_exact_scan", |b| b.iter(|| db.query(point).unwrap().rows_scanned));
    g.bench_function("point_model_lookup", |b| {
        b.iter(|| db.query_approx(point).unwrap().rows_scanned)
    });
    g.bench_function("agg_exact_scan", |b| b.iter(|| db.query(agg).unwrap().rows_scanned));
    g.bench_function("agg_model_enumeration", |b| {
        b.iter(|| db.query_approx(agg).unwrap().tuples_reconstructed)
    });
    g.finish();
}

/// E9: the paper's query 2 — full parameter-space enumeration.
fn bench_e9_enumeration(c: &mut Criterion) {
    let db = lofar_db(1000);
    let sql = "SELECT source, intensity FROM measurements \
               WHERE nu = 0.15 AND intensity > 0.5";
    let mut g = c.benchmark_group("e9_enumeration");
    g.bench_function("exact_scan", |b| b.iter(|| db.query(sql).unwrap().table.row_count()));
    g.bench_function("model_enumeration", |b| {
        b.iter(|| db.query_approx(sql).unwrap().tuples_reconstructed)
    });
    g.finish();
}

/// E7: analytic aggregate vs exact scan on the time-series workload.
fn bench_e7_analytic(c: &mut Criterion) {
    let cfg = TimeSeriesConfig { sensors: 50, ticks: 500, ..Default::default() };
    let data = TimeSeriesDataset::generate(&cfg);
    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(data.table).unwrap();
    db.capture_model("readings", "value ~ a + b * ts", Some("sensor"), &FitOptions::default())
        .unwrap();
    let sql = "SELECT MAX(value) AS v FROM readings";
    let mut g = c.benchmark_group("e7_analytic_agg");
    g.bench_function("exact_scan", |b| b.iter(|| db.query(sql).unwrap().rows_scanned));
    g.bench_function("analytic_closed_form", |b| {
        b.iter(|| db.query_approx(sql).unwrap().tuples_reconstructed)
    });
    g.finish();
}

/// E3: the intercepted fit itself (the in-database side of Figure 2).
fn bench_figure2_interception(c: &mut Criterion) {
    let cfg = LofarConfig {
        anomaly_fraction: 0.0,
        noise_rel: 0.05,
        ..LofarConfig::with_sources(200)
    };
    let data = LofarDataset::generate(&cfg);
    let mut g = c.benchmark_group("figure2_interception");
    g.sample_size(10);
    g.bench_function("session_fit_grouped", |b| {
        b.iter(|| {
            let mut db = LawsDb::new();
            db.quality.min_r2 = 0.0;
            db.register_table(data.table.clone()).unwrap();
            let mut session = db.session();
            let frame = session.frame("measurements").unwrap();
            session
                .fit(
                    &frame,
                    "intensity ~ p * nu ^ alpha",
                    lawsdb_core::FitOptions::grouped_by("source"),
                )
                .unwrap()
                .parameter_vectors
        })
    });
    g.finish();
}

/// The morsel executor's pipeline shapes, as `(label, SQL)`.
const MORSEL_QUERIES: &[(&str, &str)] = &[
    ("filter_scan", "SELECT v FROM points WHERE v > 1.5 AND w < 0.25"),
    (
        "global_agg",
        "SELECT COUNT(*) AS n, SUM(v) AS s, AVG(w) AS a, MIN(v) AS lo, MAX(v) AS hi \
         FROM points WHERE v > 0.2",
    ),
    ("group_agg", "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM points GROUP BY g"),
    ("group_agg_wide", "SELECT h, COUNT(*) AS n, SUM(v) AS s FROM points GROUP BY h"),
];

/// Deterministic synthetic table: `g` (64 groups), `h` (5,000 groups,
/// as many as the benchmark fixture has sources), `v`, `w`. Both keys
/// interleave (`i % groups`), so no run of equal keys helps a kernel.
fn morsel_dataset(rows: usize) -> Catalog {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut g = Vec::with_capacity(rows);
    let mut h = Vec::with_capacity(rows);
    let mut v = Vec::with_capacity(rows);
    let mut w = Vec::with_capacity(rows);
    for i in 0..rows {
        g.push((i % 64) as i64);
        h.push((i % 5000) as i64);
        v.push(next() * 2.0);
        w.push(next());
    }
    let mut b = TableBuilder::new("points");
    b.add_i64("g", g);
    b.add_i64("h", h);
    b.add_f64("v", v);
    b.add_f64("w", w);
    let c = Catalog::new();
    c.register(b.build().expect("build")).expect("register");
    c
}

/// Morsel-driven executor throughput: each pipeline shape at
/// 100k / 1M / 4M rows × 1 / 2 / N worker threads (N = the machine's
/// available parallelism; on a 1-core box 2 still exercises the
/// scoped-pool path, just without physical speedup).
fn bench_morsel_throughput(c: &mut Criterion) {
    let machine = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut thread_counts = vec![1, 2, machine];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    for rows in [100_000usize, 1_000_000, 4_000_000] {
        let catalog = morsel_dataset(rows);
        let mut g = c.benchmark_group(format!("morsel_throughput_{rows}"));
        g.throughput(Throughput::Elements(rows as u64));
        g.sample_size(10);
        g.measurement_time(Duration::from_millis(500));
        for (label, sql) in MORSEL_QUERIES {
            for &threads in &thread_counts {
                let opts = ExecOptions { threads, ..ExecOptions::default() };
                g.bench_function(format!("{label}/t{threads}"), |b| {
                    b.iter(|| execute_with(&catalog, sql, &opts).unwrap().rows_scanned)
                });
            }
        }
        g.finish();
    }
}

criterion_group!(
    benches,
    bench_morsel_throughput,
    bench_e5_zero_io,
    bench_e9_enumeration,
    bench_e7_analytic,
    bench_figure2_interception
);
criterion_main!(benches);
