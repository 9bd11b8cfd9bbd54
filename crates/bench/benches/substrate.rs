//! Criterion micro-benches for the substrates: expression evaluation
//! (tree-walk vs compiled bytecode), dense linear algebra, the SQL
//! front-end, Bloom-filter probes, the anomaly ranking and model-class
//! baselines of E8/E11, and one durable 200-row append.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use lawsdb_expr::{parse_expr, Bindings, CompiledExpr};
use lawsdb_linalg::{Cholesky, Matrix, Qr};
use lawsdb_models::grid::GridView;
use lawsdb_models::piecewise::PiecewisePoly;

/// Expression evaluation: per-row tree walk vs one compiled batch —
/// the zero-IO scan's CPU kernel.
fn bench_expr_eval(c: &mut Criterion) {
    let e = parse_expr("p * nu ^ alpha").unwrap();
    let compiled = CompiledExpr::compile(&e, &["nu"]).unwrap();
    let n = 100_000usize;
    let nus: Vec<f64> = (0..n).map(|i| 0.12 + (i % 4) as f64 * 0.02).collect();

    let mut g = c.benchmark_group("expr_eval_100k");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("tree_walk_per_row", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            let mut bind = Bindings::new();
            bind.set("p", 2.0);
            bind.set("alpha", -0.7);
            for &nu in &nus {
                bind.set("nu", nu);
                acc += e.eval(&bind).unwrap();
            }
            acc
        })
    });
    g.bench_function("compiled_batch", |b| {
        b.iter(|| {
            compiled
                .eval_batch(&[&nus], &[-0.7, 2.0])
                .unwrap()
                .iter()
                .sum::<f64>()
        })
    });
    g.finish();
}

/// Dense solves at fitting-relevant shapes.
fn bench_linalg(c: &mut Criterion) {
    let n_obs = 200;
    let p = 4;
    let x = Matrix::from_fn(n_obs, p, |r, cidx| ((r * 31 + cidx * 7) % 97) as f64 / 97.0 + 0.01);
    let y: Vec<f64> = (0..n_obs).map(|i| (i % 13) as f64).collect();

    let mut g = c.benchmark_group("linalg_least_squares_200x4");
    g.bench_function("qr", |b| {
        b.iter(|| Qr::new(&x).unwrap().solve_least_squares(&y).unwrap()[0])
    });
    g.bench_function("normal_equations_cholesky", |b| {
        b.iter(|| {
            let gram = x.gram();
            let rhs = x.tr_matvec(&y).unwrap();
            Cholesky::new(&gram).unwrap().solve(&rhs).unwrap()[0]
        })
    });
    g.finish();
}

/// SQL front-end: parse + plan + optimize.
fn bench_sql_frontend(c: &mut Criterion) {
    let sql = "SELECT source, AVG(intensity) AS mean_i FROM measurements \
               WHERE nu = 0.15 AND intensity > 3.0 GROUP BY source \
               ORDER BY mean_i DESC LIMIT 10";
    c.bench_function("sql_parse_plan_optimize", |b| {
        b.iter(|| {
            let stmt = lawsdb_query::parse_select(sql).unwrap();
            let plan = lawsdb_query::LogicalPlan::from_statement(&stmt).unwrap();
            lawsdb_query::optimize::optimize(&plan).referenced_columns().len()
        })
    });
}

/// E9 kernel: Bloom filter probes.
fn bench_bloom(c: &mut Criterion) {
    use lawsdb_models::legal::{combo_hash, BloomFilter};
    let mut bf = BloomFilter::with_bits_per_key(100_000, 10);
    for i in 0..100_000u64 {
        bf.insert(combo_hash(i as i64, &[0.15]));
    }
    let mut g = c.benchmark_group("bloom_filter");
    g.throughput(Throughput::Elements(1));
    g.bench_function("probe_hit", |b| {
        b.iter(|| bf.contains(combo_hash(77, &[0.15])))
    });
    g.bench_function("probe_miss", |b| {
        b.iter(|| bf.contains(combo_hash(999_999_999, &[0.15])))
    });
    g.finish();
}

/// E11 kernels: reconstruction through the three model classes.
fn bench_model_classes(c: &mut Criterion) {
    let n = 2000;
    let xs: Vec<f64> = (0..n).map(|i| 0.05 + 0.30 * i as f64 / (n - 1) as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x.powf(-0.7)).collect();
    let pw = PiecewisePoly::fit(&xs, &ys, 16, 2).unwrap();
    let grid = GridView::fit_1d(&xs, &ys, 64).unwrap();
    let queries: Vec<f64> = (0..1000).map(|i| 0.06 + 0.28 * i as f64 / 999.0).collect();

    let mut g = c.benchmark_group("e11_model_classes_1k_queries");
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function("user_model_power_law", |b| {
        b.iter(|| queries.iter().map(|&x| 2.0 * x.powf(-0.7)).sum::<f64>())
    });
    g.bench_function("piecewise_poly", |b| {
        b.iter(|| queries.iter().map(|&x| pw.eval(x)).sum::<f64>())
    });
    g.bench_function("grid_view", |b| {
        b.iter(|| queries.iter().map(|&x| grid.query(&[x]).unwrap()).sum::<f64>())
    });
    g.finish();
}

/// E8 kernel: ranking a large grouped model.
fn bench_anomaly_ranking(c: &mut Criterion) {
    use lawsdb_core::LawsDb;
    use lawsdb_data::lofar::{LofarConfig, LofarDataset};
    let cfg = LofarConfig { anomaly_fraction: 0.03, ..LofarConfig::with_sources(500) };
    let data = LofarDataset::generate(&cfg);
    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(data.table).unwrap();
    let model = db
        .capture_model(
            "measurements",
            "intensity ~ p * nu ^ alpha",
            Some("source"),
            &lawsdb_fit::FitOptions::default(),
        )
        .unwrap();
    c.bench_function("e8_rank_500_sources", |b| {
        b.iter(|| {
            lawsdb_approx::anomaly::rank_anomalies(
                &model,
                lawsdb_approx::anomaly::MisfitScore::OneMinusR2,
            )
            .len()
        })
    });
}

/// One durable append: `LawsDb::append_rows` of 200 rows, then
/// `DurableDb::replace_table` of the grown table. Both are O(batch), so
/// the time should be flat across table sizes. The store is rebuilt
/// every 256 appends (outside the timed span) so its directory and the
/// simulated device stay small.
fn bench_append(c: &mut Criterion) {
    use lawsdb_core::{DurableDb, LawsDb};
    use lawsdb_storage::{Column, SimulatedDevice, TableBuilder};
    use std::time::{Duration, Instant};
    const BATCH: usize = 200;
    let setup = |rows: usize| {
        let mut b = TableBuilder::new("t");
        b.add_i64("source", (0..rows as i64).map(|i| i % 1000).collect());
        b.add_f64("nu", (0..rows).map(|i| 0.12 + 0.02 * (i % 4) as f64).collect());
        b.add_f64("intensity", (0..rows).map(|i| (i as f64).sqrt()).collect());
        let db = LawsDb::new();
        db.register_table(b.build().unwrap()).unwrap();
        let mut durable = DurableDb::new(SimulatedDevice::new(4096));
        durable.recover().unwrap();
        durable.store_table(&db.table("t").unwrap()).unwrap();
        (db, durable)
    };
    let batch = |seq: u64| {
        vec![
            Column::from_i64((0..BATCH as i64).map(|i| (i + seq as i64) % 1000).collect()),
            Column::from_f64(vec![0.15; BATCH]),
            Column::from_f64((0..BATCH).map(|i| i as f64 + seq as f64).collect()),
        ]
    };
    let mut g = c.benchmark_group("append_200_rows");
    g.throughput(Throughput::Elements(BATCH as u64));
    for rows in [50_000, 200_000] {
        g.bench_function(rows, |b| {
            b.iter_custom(|iters| {
                let mut timed = Duration::ZERO;
                let mut done = 0;
                while done < iters {
                    let (db, mut durable) = setup(rows);
                    for seq in done..iters.min(done + 256) {
                        let batch = batch(seq);
                        let started = Instant::now();
                        db.append_rows("t", &batch).unwrap();
                        durable.replace_table(&db.table("t").unwrap()).unwrap();
                        timed += started.elapsed();
                    }
                    done = iters.min(done + 256);
                }
                timed
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_append,
    bench_expr_eval,
    bench_linalg,
    bench_sql_frontend,
    bench_bloom,
    bench_model_classes,
    bench_anomaly_ranking
);
criterion_main!(benches);
