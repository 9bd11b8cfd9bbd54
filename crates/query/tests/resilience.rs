//! The resilience matrix: every failure mode the runtime guards
//! against, each cell ending in a *structured* error or a
//! degraded-but-correct answer — never a process abort.
//!
//! | cell | failure | expected outcome |
//! |------|---------|------------------|
//! | 1 | deadline expires mid-scan | `QueryError::Timeout` |
//! | 2 | cancel mid-query | `QueryError::Cancelled` within one morsel |
//! | 3 | materialization over memory budget | `QueryError::MemoryExceeded` |
//! | 4 | panicking kernel | `QueryError::WorkerPanic`, sibling query unharmed |
//! | 5 | transient device fault | retries recover; exhausted → structured error |
//! | 6 | quarantined page | answered from the covering model, within its bound |
//!
//! Seeded cells print `LAWSDB_FAULT_SEED=<seed>`; re-running with that
//! variable set reproduces the exact scenario.

use lawsdb_query::{
    execute_with, morsel::parallel_morsels, CancelToken, ExecOptions, Governor, QueryError,
    ResourceBudget,
};
use lawsdb_storage::{
    BlockDevice, Catalog, FaultMode, FaultSchedule, FaultyDevice, RetryPolicy, RetryingDevice,
    SimulatedDevice, StorageError, TableBuilder,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

fn seed() -> u64 {
    let s = lawsdb_storage::fault::fault_seed();
    println!("LAWSDB_FAULT_SEED={s}");
    s
}

fn points_catalog(n: usize) -> Catalog {
    let c = Catalog::new();
    let mut b = TableBuilder::new("t");
    b.add_i64("g", (0..n).map(|i| (i % 5) as i64).collect());
    b.add_f64("v", (0..n).map(|i| (i as f64) * 0.5 - 100.0).collect());
    c.register(b.build().unwrap()).unwrap();
    c
}

// ---- cell 1: timeout --------------------------------------------------

#[test]
fn deadline_expires_mid_scan() {
    let catalog = points_catalog(50_000);
    let opts = ExecOptions {
        budget: ResourceBudget::unlimited().with_deadline(Duration::ZERO),
        ..ExecOptions::default()
    };
    let err = execute_with(&catalog, "SELECT g, SUM(v) AS s FROM t GROUP BY g", &opts)
        .unwrap_err();
    match err {
        QueryError::Timeout { budget_ms, .. } => assert_eq!(budget_ms, 0),
        other => panic!("expected Timeout, got {other}"),
    }
    // The same query under no budget completes — the governor, not the
    // data, produced the error.
    assert!(execute_with(
        &catalog,
        "SELECT g, SUM(v) AS s FROM t GROUP BY g",
        &ExecOptions::default()
    )
    .is_ok());
}

// ---- cell 2: cancellation --------------------------------------------

#[test]
fn cancel_before_execution_rejects_immediately() {
    let catalog = points_catalog(10_000);
    let token = CancelToken::new();
    token.cancel();
    let opts = ExecOptions { cancel: Some(token), ..ExecOptions::default() };
    let err =
        execute_with(&catalog, "SELECT g, SUM(v) AS s FROM t GROUP BY g", &opts).unwrap_err();
    assert!(matches!(err, QueryError::Cancelled), "{err}");
}

#[test]
fn cancel_mid_query_stops_within_one_morsel() {
    // Serial execution checks the governor before every morsel, so a
    // cancel raised *inside* morsel k must stop the query before
    // morsel k+1 runs — cancellation latency is one morsel, exactly.
    let token = CancelToken::new();
    let opts = ExecOptions {
        threads: 1,
        morsel_rows: 10,
        governor: Governor::arm(ResourceBudget::unlimited(), Some(token.clone())),
        cancel: Some(token.clone()),
        ..ExecOptions::default()
    };
    let executed = AtomicUsize::new(0);
    let err = parallel_morsels(100, &opts, |offset, _len| {
        executed.fetch_add(1, Ordering::Relaxed);
        token.cancel();
        Ok(offset)
    })
    .unwrap_err();
    assert!(matches!(err, QueryError::Cancelled), "{err}");
    assert_eq!(executed.load(Ordering::Relaxed), 1, "no morsel may start after the cancel");
}

// ---- cell 3: memory budget -------------------------------------------

#[test]
fn memory_budget_rejects_oversized_materialization() {
    let catalog = points_catalog(10_000); // ~160 KiB of column data
    let tight = ExecOptions {
        budget: ResourceBudget::unlimited().with_memory_bytes(4 * 1024),
        ..ExecOptions::default()
    };
    // A pure scan shares the stored buffers — zero-copy is never
    // charged, so even a tight budget admits it.
    let ok = execute_with(&catalog, "SELECT * FROM t", &tight);
    assert!(ok.is_ok(), "zero-copy scans must not be charged: {:?}", ok.err());
    // A filter that keeps every row must materialize ~160 KiB > 4 KiB.
    let err = execute_with(&catalog, "SELECT g, v FROM t WHERE v > -1e18", &tight).unwrap_err();
    match err {
        QueryError::MemoryExceeded { used, budget } => {
            assert!(used > budget, "{used} must exceed {budget}")
        }
        other => panic!("expected MemoryExceeded, got {other}"),
    }
}

#[test]
fn row_budget_rejects_oversized_scans() {
    let catalog = points_catalog(10_000);
    let opts = ExecOptions {
        budget: ResourceBudget::unlimited().with_max_rows(100),
        ..ExecOptions::default()
    };
    let err = execute_with(&catalog, "SELECT * FROM t", &opts).unwrap_err();
    assert!(matches!(err, QueryError::RowLimitExceeded { budget: 100, .. }), "{err}");
}

// ---- cell 4: panic isolation -----------------------------------------

#[test]
fn panicking_kernel_yields_an_error_while_a_sibling_query_completes() {
    // A sibling query starts first and runs concurrently on its own
    // catalog; the panicking kernel must not take it down.
    let sibling = std::thread::spawn(|| {
        let catalog = points_catalog(5_000);
        let opts = ExecOptions { threads: 2, morsel_rows: 256, ..ExecOptions::default() };
        execute_with(&catalog, "SELECT g, SUM(v) AS s FROM t GROUP BY g", &opts)
            .map(|r| r.table.row_count())
    });
    let opts = ExecOptions { threads: 4, morsel_rows: 8, ..ExecOptions::default() };
    let err = parallel_morsels(100, &opts, |offset, _len| {
        if offset == 48 {
            panic!("kernel bug at offset {offset}");
        }
        Ok(offset)
    })
    .unwrap_err();
    match err {
        QueryError::WorkerPanic { detail, offset } => {
            assert!(detail.contains("kernel bug"), "{detail}");
            assert_eq!(offset, 48);
        }
        other => panic!("expected WorkerPanic, got {other}"),
    }
    // The sibling finished with the right answer: 5 groups.
    assert_eq!(sibling.join().expect("sibling must not be poisoned").unwrap(), 5);
}

// ---- cell 5: transient faults + retry --------------------------------

#[test]
fn transient_fault_recovers_under_retry() {
    let seed = seed();
    let mut inner = SimulatedDevice::new(128);
    let p = inner.allocate();
    inner.write_page(p, b"resilient payload").unwrap();
    let d = RetryingDevice::new(
        FaultyDevice::new(inner, FaultSchedule::crash_at(0, FaultMode::Transient, seed)),
        RetryPolicy::default_reads(),
    );
    let page = d.read_page_owned(p).expect("retry must ride out the transient run");
    assert_eq!(&page[..17], b"resilient payload");
    let s = d.retry_stats();
    assert_eq!(s.recovered, 1);
    assert!((1..=3).contains(&s.retries), "worst transient run is 3 failures: {s:?}");
    assert!(d.inner().fault_fired());
    assert!(!d.inner().is_crashed(), "a transient fault heals");
}

#[test]
fn exhausted_retries_surface_a_structured_error() {
    let seed = seed();
    let mut inner = SimulatedDevice::new(128);
    let p = inner.allocate();
    inner.write_page(p, b"resilient payload").unwrap();
    // A *crashing* IO fault fails every attempt; the bounded budget
    // must end in a structured error, not a hang.
    let d = RetryingDevice::new(
        FaultyDevice::new(inner, FaultSchedule::crash_at(0, FaultMode::IoError, seed)),
        RetryPolicy::default_reads(),
    );
    let err = d.read_page_owned(p).unwrap_err();
    assert!(matches!(err, StorageError::Io { op: "read", .. }), "{err}");
    let s = d.retry_stats();
    assert_eq!(s.read_attempts as u32, RetryPolicy::default_reads().max_attempts);
    assert_eq!(s.exhausted, 1);
}

// ---- cell 6: quarantined page answered from the model -----------------

#[test]
fn quarantined_page_is_answered_from_the_model() {
    use lawsdb_core::DurableDb;
    use lawsdb_models::bridge::fit_table_grouped;
    use lawsdb_models::ModelCatalog;

    let seed = seed();
    // Noise-free power-law data: the fitted model reconstructs the
    // response column essentially exactly.
    let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
    let laws: [(f64, f64); 4] = [(2.0, -0.7), (0.5, -1.2), (1.0, 0.3), (3.0, -0.5)];
    let mut src = Vec::new();
    let mut nu = Vec::new();
    let mut intensity = Vec::new();
    for (s, &(p, a)) in laws.iter().enumerate() {
        for i in 0..40 {
            src.push(s as i64);
            nu.push(freqs[i % 4]);
            intensity.push(p * freqs[i % 4].powf(a));
        }
    }
    let mut b = TableBuilder::new("measurements");
    b.add_i64("source", src);
    b.add_f64("nu", nu);
    b.add_f64("intensity", intensity);
    let table = b.build().unwrap();

    let models = ModelCatalog::new();
    models.store(
        fit_table_grouped(
            &table,
            "intensity ~ p * nu ^ alpha",
            "source",
            &lawsdb_fit::FitOptions::default(),
            2,
        )
        .unwrap()
        .0,
    );

    // Store durably, corrupt a seeded byte of the intensity column's
    // extent, reopen.
    let mut db = DurableDb::new(SimulatedDevice::new(256));
    db.recover().unwrap();
    db.store_table(&table).unwrap();
    let (start, _len) = db.column_pages("measurements", 2).unwrap()[0];
    let mut dev = db.into_device();
    dev.poke_page(start).unwrap()[(seed % 256) as usize] ^= 1 << (seed % 8);
    let mut db = DurableDb::new(dev);
    db.recover().unwrap();
    assert!(db.read_table("measurements").is_err(), "corruption must be detected");

    // The resilient read re-derives the column from the model…
    let (salvaged, reasons) = db.read_table_resilient("measurements", &models).unwrap();
    assert_eq!(reasons.len(), 1, "{reasons:?}");

    // …and SQL over the salvaged table answers within the model bound.
    let catalog = Catalog::new();
    catalog.register(salvaged).unwrap();
    let r = execute_with(
        &catalog,
        "SELECT intensity FROM measurements WHERE source = 0 AND nu = 0.15",
        &ExecOptions::default(),
    )
    .unwrap();
    let got = r.table.column("intensity").unwrap().f64_data().unwrap()[0];
    assert!(
        (got - 2.0 * 0.15_f64.powf(-0.7)).abs() < 1e-6,
        "reconstructed answer drifted: {got}"
    );
}
