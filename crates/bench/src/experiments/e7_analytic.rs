//! **E7** — analytic solutions for linear models (Section 4.2).
//!
//! Per-sensor linear laws over enumerable integer timestamps: the
//! analytic path answers MIN/MAX/AVG/SUM/COUNT in closed form (O(groups)
//! work, nothing materialized), compared against the exact scan and
//! against enumeration-based reconstruction. Also carries the
//! QR-vs-normal-equations solver ablation from DESIGN.md §5.

use lawsdb_approx::Strategy;
use lawsdb_core::LawsDb;
use lawsdb_data::timeseries::{TimeSeriesConfig, TimeSeriesDataset};
use lawsdb_fit::{FitOptions, LinearSolver};

/// One aggregate's three-way comparison.
#[derive(Debug, Clone)]
pub struct AggPoint {
    /// Aggregate label.
    pub agg: &'static str,
    /// Exact value (full scan).
    pub exact: f64,
    /// Analytic value.
    pub analytic: f64,
    /// Exact-path time (µs).
    pub exact_us: f64,
    /// Analytic-path time (µs).
    pub analytic_us: f64,
    /// Relative error of the analytic answer.
    pub rel_error: f64,
}

/// Experiment report.
#[derive(Debug, Clone)]
pub struct E7Report {
    /// Rows scanned by the exact path.
    pub rows: usize,
    /// Per-aggregate comparisons.
    pub aggregates: Vec<AggPoint>,
    /// Solver ablation: (QR capture µs, normal-equations capture µs).
    pub solver_ablation_us: (f64, f64),
    /// Max parameter difference between the two solvers.
    pub solver_max_diff: f64,
}

/// Run the analytic-aggregates experiment.
pub fn run() -> E7Report {
    let cfg = TimeSeriesConfig { sensors: 100, ticks: 1000, noise_sd: 0.05, ..Default::default() };
    let data = TimeSeriesDataset::generate(&cfg);
    let rows = data.table.row_count();

    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(data.table.clone()).expect("fresh catalog");
    db.capture_model("readings", "value ~ a + b * ts", Some("sensor"), &FitOptions::default())
        .expect("capture fits");

    let mut aggregates = Vec::new();
    for (agg, sql_agg) in
        [("COUNT", "COUNT(value)"), ("SUM", "SUM(value)"), ("AVG", "AVG(value)"), ("MIN", "MIN(value)"), ("MAX", "MAX(value)")]
    {
        let sql = format!("SELECT {sql_agg} AS v FROM readings");
        let (exact, exact_us) = crate::time_us(|| {
            db.query(&sql)
                .expect("exact")
                .table
                .column("v")
                .expect("col")
                .to_f64_lossy()
                .expect("numeric")[0]
        });
        let (answer, analytic_us) =
            crate::time_us(|| db.query_approx(&sql).expect("analytic answers"));
        assert_eq!(answer.strategy, Strategy::AnalyticAggregate, "{agg} not analytic");
        let analytic = answer.table.column("v").expect("col").to_f64_lossy().expect("numeric")[0];
        let rel_error = if exact != 0.0 { ((analytic - exact) / exact).abs() } else { 0.0 };
        aggregates.push(AggPoint { agg, exact, analytic, exact_us, analytic_us, rel_error });
    }

    // Solver ablation: same grouped linear capture with QR vs normal
    // equations.
    let qr_opts = FitOptions { linear_solver: LinearSolver::Qr, ..Default::default() };
    let ne_opts =
        FitOptions { linear_solver: LinearSolver::NormalEquations, ..Default::default() };
    let (m_qr, qr_us) = crate::time_us(|| {
        lawsdb_models::bridge::fit_table_grouped(&data.table, "value ~ a + b * ts", "sensor", &qr_opts, 1)
            .expect("qr fit")
            .0
    });
    let (m_ne, ne_us) = crate::time_us(|| {
        lawsdb_models::bridge::fit_table_grouped(&data.table, "value ~ a + b * ts", "sensor", &ne_opts, 1)
            .expect("ne fit")
            .0
    });
    let (pa, pb) = (&m_qr.params, &m_ne.params);
    let mut max_diff = 0.0f64;
    for (row, &k) in pa.keys.iter().enumerate() {
        if let Ok(other) = pb.row(Some(k)) {
            for (x, y) in pa.values.iter().zip(&pb.values) {
                max_diff = max_diff.max((x[row] - y[other]).abs());
            }
        }
    }

    E7Report { rows, aggregates, solver_ablation_us: (qr_us, ne_us), solver_max_diff: max_diff }
}

/// Print the comparison.
pub fn print(r: &E7Report) {
    println!("=== E7: analytic aggregates for linear models ===");
    println!("base table: {} rows; analytic path materializes nothing", r.rows);
    println!();
    println!("agg    exact          analytic       err      exact time   analytic time");
    for a in &r.aggregates {
        println!(
            "{:<5}  {:>13.4}  {:>13.4}  {:>6.3}%  {:>10}  {:>12}",
            a.agg,
            a.exact,
            a.analytic,
            a.rel_error * 100.0,
            crate::fmt_us(a.exact_us),
            crate::fmt_us(a.analytic_us)
        );
    }
    println!();
    println!(
        "solver ablation (grouped linear capture): QR {} vs normal equations {}; \
         max |Δparam| = {:.2e}",
        crate::fmt_us(r.solver_ablation_us.0),
        crate::fmt_us(r.solver_ablation_us.1),
        r.solver_max_diff
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_matches_exact_within_noise() {
        let r = run();
        for a in &r.aggregates {
            // COUNT is exact; moments are within the noise envelope.
            let tol = if a.agg == "COUNT" { 1e-12 } else { 0.02 };
            assert!(a.rel_error <= tol, "{}: err {}", a.agg, a.rel_error);
        }
        // Solvers agree to numerical precision.
        assert!(r.solver_max_diff < 1e-6, "{}", r.solver_max_diff);
    }
}
