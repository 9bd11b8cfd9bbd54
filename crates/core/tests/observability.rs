//! End-to-end acceptance for the unified observability layer: one
//! resilient query under full instrumentation produces a single
//! `TraceNode` tree containing morsel timings, pruning decisions per
//! zone, governor charges, bridged retry/quarantine events and
//! the degradation reason — and a `MockClock` run of the same query is
//! byte-identical across executions.
//!
//! The tests install the process-global tracer, so they serialize on a
//! mutex; this file owns its process.

use lawsdb_core::{AnswerMode, DurableDb, LawsDb, ResilientAnswer};
use lawsdb_fit::FitOptions as RawFitOptions;
use lawsdb_obs::trace::{tracer, FieldValue};
use lawsdb_obs::{MockClock, ProfileCollector, RingBufferSink, TraceNode};
use lawsdb_query::governor::ResourceBudget;
use lawsdb_query::ExecOptions;
use lawsdb_storage::fault::{FaultMode, FaultSchedule, FaultyDevice};
use lawsdb_storage::retry::{RetryPolicy, RetryingDevice};
use lawsdb_storage::{BlockDevice, SimulatedDevice, TableBuilder};
use std::sync::{Arc, Mutex, PoisonError};

static LOCK: Mutex<()> = Mutex::new(());

/// An engine over `t(x, y = 2x)` with a captured linear model (which
/// cannot answer a range scan, so the ladder degrades to the exact
/// rung), budgeted so the governor is armed on every query.
fn zoned_engine(n: usize, exec: ExecOptions) -> LawsDb {
    let mut b = TableBuilder::new("t");
    b.add_f64("x", (0..n).map(|i| i as f64).collect());
    b.add_f64("y", (0..n).map(|i| 2.0 * i as f64).collect());
    let db = LawsDb::new().with_exec_options(ExecOptions {
        budget: ResourceBudget { max_rows: Some(10 * n), ..ResourceBudget::default() },
        ..exec
    });
    db.register_table(b.build().expect("table builds")).expect("registers");
    db.capture_model("t", "y ~ a + b * x", None, &RawFitOptions::default())
        .expect("perfect linear law passes the quality gate");
    db
}

/// The resilient ladder recording into a caller-owned collector, and
/// the tree it assembled.
fn answer_collected(
    db: &LawsDb,
    collector: &Arc<ProfileCollector>,
) -> (ResilientAnswer, TraceNode) {
    let exec = ExecOptions { profile: Some(collector.context()), ..db.exec.clone() };
    let r = db.answer(SQL, AnswerMode::Resilient, &exec).expect("query runs");
    (r, collector.build("query"))
}

/// The paper-shaped range query: `x`'s zones refute the low ranges,
/// `y`'s zones refute the high ones, and the middle zone needs per-row
/// evaluation.
const SQL: &str = "SELECT y FROM t WHERE x >= 15000 AND y <= 32000";

#[test]
fn resilient_query_profile_unifies_every_signal() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let sink = RingBufferSink::new(256);
    tracer().install(Arc::clone(&sink), Arc::new(MockClock::new(1)));

    let db = zoned_engine(20_000, ExecOptions::default());
    let collector = ProfileCollector::new();

    // Storage-layer trouble while the profile is live: a transient read
    // fault that retries to recovery, and a checksum-failed page that
    // gets quarantined. Both bridge into the profile as root points.
    {
        let mut inner = SimulatedDevice::new(64);
        let p = inner.allocate();
        inner.write_page(p, b"payload").expect("writes");
        let d = RetryingDevice::new(
            FaultyDevice::new(inner, FaultSchedule::crash_at(0, FaultMode::Transient, 7)),
            RetryPolicy::default_reads(),
        );
        d.read_page_owned(p).expect("transient fault recovers within budget");
    }
    {
        let mut b = TableBuilder::new("measurements");
        b.add_f64("v", vec![1.0, 2.0, 3.0]);
        let t = b.build().expect("builds");
        let mut ddb = DurableDb::new(SimulatedDevice::new(256));
        ddb.recover().expect("fresh device recovers");
        ddb.store_table(&t).expect("stores");
        let (start, _) = ddb.column_pages("measurements", 0).expect("pages")[0];
        let mut dev = ddb.into_device();
        dev.poke_page(start).expect("page exists")[0] ^= 0xFF;
        let mut ddb = DurableDb::new(dev);
        ddb.recover().expect("recovers");
        assert!(ddb.read_table("measurements").is_err(), "corruption detected");
    }

    let (r, p) = answer_collected(&db, &collector);
    tracer().uninstall();

    assert!(!r.answer.is_approximate(), "range query degrades to exact");
    assert_eq!(p.name, "query");

    // (1) The degradation decision, with its reason.
    let degrades = p.find("resilient.degrade");
    assert_eq!(degrades.len(), 1);
    assert_eq!(
        degrades[0].field("reason").and_then(FieldValue::as_str),
        Some("no_model")
    );

    // (2) Plan-node spans with per-morsel timing leaves under them.
    assert!(!p.find("plan.filter").is_empty(), "{p}");
    let morsels = p.find("morsel");
    assert!(!morsels.is_empty());
    assert!(morsels.iter().all(|m| m.field("duration_us").is_some()));

    // (3) Pruning decisions per zone: x's zones refute the low ranges,
    // y's the high one, and the middle zone is evaluated.
    let decisions: Vec<&str> = p
        .find("zone")
        .iter()
        .filter_map(|z| z.field("decision").and_then(FieldValue::as_str))
        .collect();
    assert_eq!(decisions, ["skip_zonemap", "eval", "skip_zonemap"], "{p}");

    // (4) Governor charges and the end-of-query summary.
    let charges = p.find("governor.rows");
    assert_eq!(charges.len(), 1);
    assert_eq!(charges[0].field("rows").and_then(FieldValue::as_u64), Some(20_000));
    let summary = p.find("governor.summary");
    assert_eq!(summary.len(), 1);
    assert_eq!(
        summary[0].field("rows_admitted").and_then(FieldValue::as_u64),
        Some(20_000)
    );

    // (5) Storage events bridged from far below the executor.
    assert!(!p.find("storage.retry.attempt").is_empty(), "{p}");
    assert!(!p.find("storage.retry.recovered").is_empty(), "{p}");
    assert!(!p.find("storage.page.quarantine").is_empty(), "{p}");

    // The rendered tree carries all of it in one printable artifact.
    let text = p.render();
    for needle in [
        "resilient.degrade",
        "plan.filter",
        "morsel #",
        "skip_zonemap",
        "governor.rows",
        "storage.page.quarantine",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn mock_clock_profiles_are_byte_identical() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    assert!(!tracer().is_enabled(), "determinism run must not bridge events");

    let run = || {
        let db = zoned_engine(
            20_000,
            ExecOptions { threads: 1, morsel_rows: 8192, ..ExecOptions::default() },
        );
        let collector = ProfileCollector::with_clock(Arc::new(MockClock::new(3)));
        answer_collected(&db, &collector).1.render()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same query, same clock, same tree — byte for byte");
    assert!(a.contains("morsel #"), "{a}");
}

#[test]
fn engine_metrics_registry_sees_health_and_pruning() {
    let _g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let db = zoned_engine(20_000, ExecOptions::default());
    let r = db.answer(SQL, AnswerMode::Resilient, &db.exec).expect("runs");
    assert!(!r.answer.is_approximate());

    let snap = db.metrics().snapshot();
    // Health counters are registry counters now.
    assert_eq!(snap.counter("lawsdb_core_exact_fallbacks"), 1);
    assert_eq!(snap.counter("lawsdb_core_approx_answers"), 0);
    // The engine-wide pruning counters saw the same zones the per-query
    // ScanStats reported.
    let exact = match &r.answer {
        lawsdb_core::Answer::Exact(q) => q,
        lawsdb_core::Answer::Approx(_) => unreachable!(),
    };
    assert!(exact.scan_stats.pages_pruned_zonemap > 0);
    assert_eq!(
        snap.counter("lawsdb_query_pages_pruned_zonemap"),
        exact.scan_stats.pages_pruned_zonemap as u64
    );
    assert_eq!(
        snap.counter("lawsdb_query_pages_total"),
        exact.scan_stats.pages_total as u64
    );

    // Both exposition formats render the same counters.
    let prom = db.stats_prometheus();
    assert!(prom.contains("lawsdb_core_exact_fallbacks 1"), "{prom}");
    assert!(prom.contains("# TYPE lawsdb_query_pages_total counter"), "{prom}");
    let json = db.stats_json();
    assert!(json.contains("\"lawsdb_core_exact_fallbacks\":1"), "{json}");
}
