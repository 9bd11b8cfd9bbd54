//! Whole runs at a tiny scale: every workload completes correctly, the
//! same seed gives the same exact counts, and `BENCHMARK.json` lists
//! what the benchmark reports.

use lawsdb_benchmark::fixture::Scale;
use lawsdb_benchmark::json::Json;
use lawsdb_benchmark::metrics::{end_to_end, per_layer};
use lawsdb_benchmark::run::{run_workload, Limit, Plan, Report};
use lawsdb_benchmark::workload::Workload;

/// 200 sources (≈ 8k rows) and a handful of ops per phase.
fn tiny(name: &str) -> Workload {
    let w = Workload::by_name(name).expect("workload exists");
    Workload { warmup_ops: 4, probe_ops: 12, ..w }
}

fn plan(seed: u64, trace: bool) -> Plan {
    Plan {
        seed,
        scale: Scale { sources: 200, source_pool: 40 },
        setups: 1,
        measure: Limit::Ops(24),
        trace,
        out_dir: None,
    }
}

/// The WAL counts its commits in the process-wide registry, which the
/// tests of one binary share: runs that append take turns.
static APPENDING: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn run(name: &str, seed: u64, trace: bool) -> Report {
    let w = tiny(name);
    let _turn = w.durable.then(|| APPENDING.lock().unwrap_or_else(|e| e.into_inner()));
    run_workload(&w, &plan(seed, trace)).expect("run completes")
}

fn metric(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn every_workload_runs_correctly_and_reports_every_metric() {
    for w in Workload::all() {
        for trace in [false, true] {
            let report = run(w.name, 11, trace);
            assert!(report.correct, "{} trace {trace}: {:?}", w.name, report.failures);
            assert_eq!(report.failed, 0);
            assert!(report.attempted > 0);
            let want: Vec<String> = if trace { per_layer() } else { end_to_end() }
                .into_iter()
                .map(|s| s.name)
                .collect();
            let got: Vec<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(got, want, "{} trace {trace}", w.name);
            if !trace {
                assert!(report.metrics.iter().all(|m| m.value > 0.0), "{:?}", report.metrics);
            }
        }
    }
}

#[test]
fn same_seed_repeats_exact_counts_and_another_seed_does_not() {
    for (name, count) in [
        ("serve_wide", "server.result_bytes"),
        ("ingest_refit", "storage.write_amp"),
        ("cluster_scatter", "cluster.fetch_ops_per_query"),
    ] {
        let (a, b, other) = (run(name, 7, true), run(name, 7, true), run(name, 8, true));
        assert!(metric(&a, count) > 0.0, "{name}: {count} is zero");
        assert_eq!(metric(&a, count).to_bits(), metric(&b, count).to_bits(), "{name}: {count}");
        assert_eq!(a.shape_samples, b.shape_samples, "{name}");
        assert_ne!(metric(&a, count).to_bits(), metric(&other, count).to_bits(), "{name}: {count}");
    }
}

#[test]
fn layer_metrics_land_on_the_layers_the_workload_uses() {
    let model = run("serve_model", 3, true);
    // (On a fixture this small the cost model sends a few to the exact plan.)
    assert!(metric(&model, "approx.model_share") > 0.5);
    assert_eq!(metric(&model, "approx.bound_violations"), 0.0);
    assert!(metric(&model, "approx.answer_us") > 0.0);
    assert_eq!(metric(&model, "query.exec_us"), 0.0);
    assert_eq!(metric(&model, "cluster.query_us"), 0.0);

    let ingest = run("ingest_refit", 3, true);
    assert!(metric(&ingest, "storage.write_amp") > 10.0);
    assert_eq!(metric(&ingest, "storage.wal_commits"), 1.0);
    assert!(metric(&ingest, "storage.recover_us") > 0.0);
    assert!(metric(&ingest, "fit.refit_us") > 0.0);
    // Reads behind an append see a stale model, reads behind a refit a fresh one.
    let stale = metric(&ingest, "core.degraded_share");
    assert!(stale > 0.3 && stale < 0.6, "degraded share {stale}");

    let cluster = run("cluster_scatter", 3, true);
    assert_eq!(metric(&cluster, "cluster.shard_queries_per_query"), 4.0);
    assert_eq!(metric(&cluster, "cluster.failovers"), 0.0);
    assert!(metric(&cluster, "trace.fetch_us") > 0.0);
}

/// `BENCHMARK.json` at the root of the repository names the workloads
/// and metrics this crate reports, with the same units, directions and
/// bounds. (The file is outside this crate; a checkout without it has
/// nothing to hold the tables against.)
#[test]
fn benchmark_json_matches_the_tables() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        other => panic!("{key}: {other:?}"),
    };
    let text_of =
        |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();

    let workloads: Vec<String> = list("workloads").iter().map(|w| text_of(w, "name")).collect();
    assert_eq!(workloads, Workload::all().iter().map(|w| w.name).collect::<Vec<_>>());

    for (key, specs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        let listed = list(key);
        assert_eq!(listed.len(), specs.len(), "{key}");
        for (item, spec) in listed.iter().zip(&specs) {
            assert_eq!(text_of(item, "name"), spec.name);
            assert_eq!(text_of(item, "unit"), spec.unit, "{}", spec.name);
            assert_eq!(text_of(item, "better"), spec.better.as_str(), "{}", spec.name);
            if key == "end_to_end" {
                assert_eq!(
                    item.get("bound").and_then(Json::as_f64),
                    Some(spec.bound),
                    "{}",
                    spec.name
                );
            }
        }
    }
}
