//! Correctness integration: on noise-free data the model-backed answers
//! must agree with exact execution across many query shapes — the
//! approximate engine is a *rewrite*, and on clean data the rewrite is
//! semantics-preserving over the reconstructed relation.

use lawsdb::approx::Strategy;
use lawsdb::core::{AnswerMode, LawsDb};
use lawsdb::fit::FitOptions;
use lawsdb::prelude::*;

/// Clean multi-source power-law table: one observation per
/// (source, band), so the reconstructed relation equals the base data.
fn clean_db() -> LawsDb {
    let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
    let mut src = Vec::new();
    let mut nu = Vec::new();
    let mut intensity = Vec::new();
    for s in 0..20i64 {
        let p = 0.5 + s as f64 * 0.25;
        let alpha = -1.0 + s as f64 * 0.05;
        for &f in &freqs {
            src.push(s);
            nu.push(f);
            intensity.push(p * f.powf(alpha));
        }
    }
    let mut b = TableBuilder::new("m");
    b.add_i64("source", src);
    b.add_f64("nu", nu);
    b.add_f64("intensity", intensity);
    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(b.build().unwrap()).unwrap();
    db.capture_model(
        "m",
        "intensity ~ p * nu ^ alpha",
        Some("source"),
        &FitOptions::default().with_initial("alpha", -0.7),
    )
    .unwrap();
    db
}

fn both(db: &LawsDb, sql: &str) -> (Vec<Vec<Value>>, Vec<Vec<Value>>) {
    let exact = db.query(sql).unwrap().table;
    let approx = db.query_approx(sql).unwrap().table;
    let to_rows = |t: &lawsdb::storage::Table| {
        (0..t.row_count()).map(|i| t.row(i).unwrap()).collect::<Vec<_>>()
    };
    (to_rows(&exact), to_rows(&approx))
}

fn rows_close(a: &[Vec<Value>], b: &[Vec<Value>]) {
    assert_eq!(a.len(), b.len(), "row counts differ: {} vs {}", a.len(), b.len());
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.len(), rb.len());
        for (va, vb) in ra.iter().zip(rb) {
            match (va.as_f64(), vb.as_f64()) {
                (Some(x), Some(y)) => {
                    assert!(
                        (x - y).abs() <= 1e-6 * (1.0 + x.abs()),
                        "{x} vs {y} in {ra:?} / {rb:?}"
                    )
                }
                _ => assert_eq!(va, vb),
            }
        }
    }
}

#[test]
fn point_select_matches() {
    let db = clean_db();
    let (e, a) = both(&db, "SELECT intensity FROM m WHERE source = 7 AND nu = 0.16");
    rows_close(&e, &a);
}

#[test]
fn predicate_scan_matches() {
    let db = clean_db();
    let (e, a) = both(
        &db,
        "SELECT source, intensity FROM m WHERE nu = 0.15 AND intensity > 2.0 ORDER BY source",
    );
    rows_close(&e, &a);
}

#[test]
fn group_by_aggregate_matches() {
    let db = clean_db();
    let (e, a) = both(
        &db,
        "SELECT source, AVG(intensity) AS m_i, MAX(intensity) AS p_i FROM m \
         GROUP BY source ORDER BY source",
    );
    rows_close(&e, &a);
}

#[test]
fn arithmetic_projection_matches() {
    let db = clean_db();
    let (e, a) = both(
        &db,
        "SELECT source, intensity * 2 + 1 AS scaled FROM m \
         WHERE nu = 0.12 ORDER BY scaled DESC LIMIT 5",
    );
    rows_close(&e, &a);
}

#[test]
fn between_and_disjunction_match() {
    let db = clean_db();
    let (e, a) = both(
        &db,
        "SELECT source, nu, intensity FROM m \
         WHERE nu BETWEEN 0.14 AND 0.17 AND (source = 3 OR source = 12) \
         ORDER BY source, nu",
    );
    rows_close(&e, &a);
}

#[test]
fn global_aggregates_match() {
    let db = clean_db();
    for agg in ["COUNT(intensity)", "SUM(intensity)", "AVG(intensity)", "MIN(intensity)", "MAX(intensity)"] {
        let sql = format!("SELECT {agg} AS v FROM m");
        let e = db.query(&sql).unwrap().table.column("v").unwrap().to_f64_lossy().unwrap()[0];
        let ans = db.query_approx(&sql).unwrap();
        // Either strategy (enumeration or analytic) must agree.
        let a = ans.table.column("v").unwrap().to_f64_lossy().unwrap()[0];
        assert!((e - a).abs() <= 1e-6 * (1.0 + e.abs()), "{agg}: exact {e} vs approx {a}");
    }
}

#[test]
fn order_by_and_limit_match() {
    let db = clean_db();
    let (e, a) = both(
        &db,
        "SELECT source, intensity FROM m WHERE nu = 0.18 \
         ORDER BY intensity DESC LIMIT 3",
    );
    rows_close(&e, &a);
}

/// A linear per-sensor law, `temp = 10(s+1) + 2·hour` over hours 0..24:
/// the model answers global aggregates in closed form instead of
/// reconstructing rows.
fn linear_db() -> LawsDb {
    let (mut sensor, mut hour, mut temp) = (Vec::new(), Vec::new(), Vec::new());
    for s in 0..3i64 {
        for h in 0..24 {
            sensor.push(s);
            hour.push(h as f64);
            temp.push(10.0 * (s + 1) as f64 + 2.0 * h as f64);
        }
    }
    let mut b = TableBuilder::new("load");
    b.add_i64("sensor", sensor);
    b.add_f64("hour", hour);
    b.add_f64("temp", temp);
    let db = LawsDb::new();
    db.register_table(b.build().unwrap()).unwrap();
    db.capture_model("load", "temp ~ a + b * hour", Some("sensor"), &FitOptions::default())
        .unwrap();
    db
}

#[test]
fn analytic_answers_name_and_type_columns_like_the_exact_path() {
    let db = linear_db();
    for sql in [
        "SELECT AVG(temp) AS v FROM load",
        "SELECT MAX(temp) FROM load",
        "SELECT COUNT(temp) AS n FROM load",
    ] {
        let exact = db.query(sql).unwrap().table;
        let approx = db.query_approx(sql).unwrap();
        assert_eq!(approx.strategy, Strategy::AnalyticAggregate, "{sql}");
        assert_eq!(approx.table.schema(), exact.schema(), "{sql}");
    }
}

#[test]
fn an_aggregate_over_no_admitted_point_is_sqls_empty_aggregate() {
    // No hour exceeds 100: the closed form has no domain to range over,
    // so the model answers like SQL over no rows, as the exact path does.
    let db = linear_db();
    for agg in ["AVG(temp)", "SUM(temp)", "MIN(temp)", "COUNT(temp)"] {
        let sql = format!("SELECT {agg} AS v FROM load WHERE hour > 100");
        let exact = db.query(&sql).unwrap().table;
        assert_eq!(db.query_approx(&sql).unwrap().table, exact, "{sql}");
        let r = db.answer(&sql, AnswerMode::Resilient, &db.exec).unwrap();
        assert!(r.answer.is_approximate() && r.degraded.is_empty(), "{sql}");
        assert_eq!(*r.answer.table(), exact, "{sql}");
    }
}

#[test]
fn qualified_column_names_answer_like_plain_ones() {
    let db = clean_db();
    let plain = db.query_approx("SELECT intensity FROM m WHERE source = 7 AND nu = 0.14").unwrap();
    assert_eq!((plain.strategy, plain.tuples_reconstructed), (Strategy::PointLookup, 1));
    let qualified =
        db.query_approx("SELECT intensity FROM m WHERE m.source = 7 AND m.nu = 0.14").unwrap();
    assert_eq!((qualified.strategy, qualified.tuples_reconstructed), (Strategy::PointLookup, 1));
    assert_eq!(qualified.table, plain.table);
}

/// The closed form stands in for the filter it replaces, so it must
/// apply every conjunct exactly; a predicate it cannot (`!=`, a
/// non-sargable conjunct) is answered by enumeration instead. On a
/// noise-free line, `y = 3 + 0.5·x` over x = 0..9 (ten rows each), both
/// strategies then equal the exact answer.
#[test]
fn linear_law_aggregates_apply_every_conjunct() {
    let xs: Vec<f64> = (0..100).map(|i| (i / 10) as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 0.5 * x).collect();
    let mut b = TableBuilder::new("t");
    b.add_f64("x", xs);
    b.add_f64("y", ys);
    let db = LawsDb::new();
    db.register_table(b.build().unwrap()).unwrap();
    db.capture_model("t", "y ~ a + b * x", None, &FitOptions::default()).unwrap();
    for (predicate, want, strategy) in [
        ("x >= 4", 6.25, Strategy::AnalyticAggregate),
        ("x > 3", 6.25, Strategy::AnalyticAggregate),
        ("x > 3 AND x < 7", 5.5, Strategy::AnalyticAggregate),
        ("x != 3", 3.0 + 0.5 * 42.0 / 9.0, Strategy::Enumeration),
        ("x * 2 > 9", 6.5, Strategy::Enumeration),
        ("x < 2 OR x > 7", 3.0 + 0.5 * 18.0 / 4.0, Strategy::Enumeration),
    ] {
        let sql = format!("SELECT AVG(y) AS m FROM t WHERE {predicate}");
        let exact = db.query(&sql).unwrap().table.column("m").unwrap().f64_data().unwrap()[0];
        assert!((exact - want).abs() < 1e-12, "{sql}: exact {exact}");
        let r = db.answer(&sql, AnswerMode::Resilient, &db.exec).unwrap();
        let lawsdb::core::Answer::Approx(a) = &r.answer else {
            panic!("{sql}: answered exactly: {:?}", r.degraded)
        };
        assert_eq!(a.strategy, strategy, "{sql}");
        let got = a.table.column("m").unwrap().f64_data().unwrap()[0];
        assert!((got - want).abs() <= 1e-9 * want, "{sql}: model {got} vs exact {want}");
    }
}
