//! Approximate query answering three ways (Sections 1 and 4.2): the
//! captured model vs uniform sampling vs a histogram synopsis, on the
//! time-series workload — plus the analytic shortcut for linear models.
//!
//! ```text
//! cargo run --release --example approximate_queries
//! ```

use lawsdb::approx::histogram::Histogram;
use lawsdb::approx::sampling::TableSample;
use lawsdb::approx::Strategy;
use lawsdb::data::timeseries::{TimeSeriesConfig, TimeSeriesDataset};
use lawsdb::fit::FitOptions;
use lawsdb::prelude::*;

fn main() {
    let cfg = TimeSeriesConfig { sensors: 100, ticks: 2000, ..Default::default() };
    let data = TimeSeriesDataset::generate(&cfg);
    let table = data.table.clone();
    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(data.table).expect("fresh catalog");
    db.capture_model("readings", "value ~ a + b * ts", Some("sensor"), &FitOptions::default())
        .expect("linear capture");

    let sql = "SELECT AVG(value) AS v FROM readings";
    let exact = db.query(sql).expect("exact").table.column("v").expect("col").f64_data().expect("f64")[0];
    println!("exact AVG(value) over {} rows: {:.4}", table.row_count(), exact);

    // 1. The captured model: analytic closed form, nothing materialized.
    let a = db.query_approx(sql).expect("model answers");
    assert_eq!(a.strategy, Strategy::AnalyticAggregate);
    let model_v = a.table.column("v").expect("col").f64_data().expect("f64")[0];
    println!(
        "model (analytic)  : {:.4}  err {:.4}%  rows scanned 0, tuples materialized 0",
        model_v,
        (model_v - exact).abs() / exact * 100.0
    );

    // 2. Sampling: 1% uniform sample, CLT error bar.
    let sample = TableSample::uniform(&table, 0.01, 42).expect("sample");
    let keep: Vec<usize> = (0..sample.sample.row_count()).collect();
    let est = sample.estimate_avg("value", &keep, 0.95).expect("estimate");
    println!(
        "sampling (1%)     : {:.4}  err {:.4}%  ± {:.4} (95% CI), {} rows kept",
        est.value,
        (est.value - exact).abs() / exact * 100.0,
        est.ci_half_width,
        sample.sample.row_count()
    );

    // 3. Histogram synopsis: 64 equi-depth buckets over the value column.
    let values = table.column("value").expect("col").f64_data().expect("f64");
    let hist = Histogram::equi_depth(values, 64).expect("histogram");
    let (lo, hi) = lawsdb::linalg::ops::min_max(values).expect("non-empty");
    let hist_v = hist.estimate_avg(lo, hi);
    println!(
        "histogram (64)    : {:.4}  err {:.4}%  synopsis {} bytes",
        hist_v,
        (hist_v - exact).abs() / exact * 100.0,
        hist.byte_size()
    );

    // Point queries, where the differences bite hardest.
    let point = "SELECT value FROM readings WHERE sensor = 17 AND ts = 10000";
    let pe = db.query(point).expect("exact").table.column("value").expect("col").f64_data().expect("f64")[0];
    let pa = db.query_approx(point).expect("model");
    let pav = pa.table.column("value").expect("col").f64_data().expect("f64")[0];
    println!(
        "\npoint query: exact {:.4}, model {:.4} ± {:.4} ({:?}, zero IO)",
        pe,
        pav,
        pa.error_bound.unwrap_or(f64::NAN),
        pa.strategy
    );
}
