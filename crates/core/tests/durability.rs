//! End-to-end durability: captured models and their tables survive
//! crashes anywhere in a fit → store → append → re-save workload.
//!
//! This is the engine-level companion of the storage crate's crash
//! matrix: models are fitted once up front (fitting is deterministic),
//! then the workload commits tables and the catalog's tables through
//! [`DurableDb`] over a fault-injecting device. Every device operation
//! is used as a crash point; recovery must land on exactly the pre- or
//! post-commit state, and recovered models must predict bit-identically
//! to the originals.

use lawsdb_core::DurableDb;
use lawsdb_fit::FitOptions;
use lawsdb_models::bridge::fit_table_grouped;
use lawsdb_models::{ModelCatalog, ModelState};
use lawsdb_storage::fault::{FaultMode, FaultSchedule, FaultyDevice};
use lawsdb_storage::io::SimulatedDevice;
use lawsdb_storage::{Column, Table, TableBuilder};

const PAGE_SIZE: usize = 256;

type Step<'a> = &'a dyn Fn(&mut DurableDb<FaultyDevice>) -> lawsdb_core::Result<()>;

fn lofar_table() -> Table {
    let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
    let mut src = Vec::new();
    let mut nu = Vec::new();
    let mut intensity = Vec::new();
    for s in 0..5i64 {
        let (p, a) = (1.0 + s as f64 * 0.4, -0.6 - s as f64 * 0.1);
        for i in 0..40usize {
            src.push(s);
            nu.push(freqs[i % 4]);
            intensity.push(p * freqs[i % 4].powf(a));
        }
    }
    let mut b = TableBuilder::new("measurements");
    b.add_i64("source", src);
    b.add_f64("nu", nu);
    b.add_f64("intensity", intensity);
    b.build().unwrap()
}

fn appended(table: &Table) -> Table {
    let mut t = table.clone();
    t.append_rows(&[
        Column::from_i64(vec![5, 5]),
        Column::from_f64(vec![0.12, 0.18]),
        Column::from_f64(vec![3.5, 3.1]),
    ])
    .unwrap();
    t
}

/// Everything the workload needs, fitted once.
struct Fixture {
    t1: Table,
    t2: Table,
    catalog1: ModelCatalog,
    catalog2: ModelCatalog,
}

fn fixture() -> Fixture {
    let t1 = lofar_table();
    let t2 = appended(&t1);
    let opts = FitOptions::default().with_initial("alpha", -0.7);
    let catalog1 = ModelCatalog::new();
    let m1 = catalog1.store(
        fit_table_grouped(&t1, "intensity ~ p * nu ^ alpha", "source", &opts, 1).unwrap().0,
    );
    // Catalog v2: the v1 model goes stale after the append and a re-fit
    // joins it.
    let catalog2 = ModelCatalog::from_tables(&catalog1.to_tables().unwrap()).unwrap();
    catalog2.set_state(m1.id, ModelState::Stale).unwrap();
    catalog2.store(
        fit_table_grouped(&t2, "intensity ~ p * nu ^ alpha", "source", &opts, 1).unwrap().0,
    );
    Fixture { t1, t2, catalog1, catalog2 }
}

/// Run the 4-step workload under a fault schedule. Returns how many
/// commits completed and the surviving disk image.
fn run_workload(fx: &Fixture, schedule: FaultSchedule) -> (u64, SimulatedDevice, u64) {
    let mut db = DurableDb::new(FaultyDevice::new(SimulatedDevice::new(PAGE_SIZE), schedule));
    let mut commits_ok = 0u64;
    if db.recover().is_ok() {
        let steps: [Step; 4] = [
            &|db| db.store_table(&fx.t1),
            &|db| db.save_models(&fx.catalog1),
            &|db| db.replace_table(&fx.t2),
            &|db| db.save_models(&fx.catalog2),
        ];
        for step in steps {
            match step(&mut db) {
                Ok(()) => commits_ok += 1,
                Err(_) => break,
            }
        }
    }
    let faulty = db.into_device();
    let ops = faulty.op_count();
    (commits_ok, faulty.into_inner(), ops)
}

fn assert_catalogs_match(got: &ModelCatalog, want: &ModelCatalog, context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: catalog size");
    for expected in want.all() {
        let loaded = got.get(expected.id).unwrap_or_else(|e| panic!("{context}: {e}"));
        assert_eq!(loaded.formula_source, expected.formula_source, "{context}");
        assert_eq!(loaded.params, expected.params, "{context}");
        assert_eq!(loaded.state, expected.state, "{context}");
        // The recovered model predicts bit-identically.
        let a = expected.predict_scalar(Some(2), &[("nu", 0.15)]).unwrap();
        let b = loaded.predict_scalar(Some(2), &[("nu", 0.15)]).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: prediction drift");
    }
}

/// Check a recovered image against the expected state for its sequence.
fn assert_state(fx: &Fixture, image: SimulatedDevice, commits_ok: u64, context: &str) {
    let mut db = DurableDb::new(image);
    let report = db.recover().unwrap_or_else(|e| panic!("{context}: clean recovery failed: {e}"));
    let seq = report.seq;
    assert!(
        seq == commits_ok || seq == commits_ok + 1,
        "{context}: recovered seq {seq} after {commits_ok} commits"
    );
    let (want_table, want_catalog): (Option<&Table>, Option<&ModelCatalog>) = match seq {
        0 => (None, None),
        1 => (Some(&fx.t1), None),
        2 => (Some(&fx.t1), Some(&fx.catalog1)),
        3 => (Some(&fx.t2), Some(&fx.catalog1)),
        4 => (Some(&fx.t2), Some(&fx.catalog2)),
        other => panic!("{context}: impossible seq {other}"),
    };
    match want_table {
        None => assert!(db.table_names().is_empty(), "{context}: phantom tables"),
        Some(want) => {
            let got = db
                .read_table("measurements")
                .unwrap_or_else(|e| panic!("{context}: read_table: {e}"));
            assert_eq!(&got, want, "{context}: table content at seq {seq}");
        }
    }
    let loaded = db.load_models().unwrap_or_else(|e| panic!("{context}: load_models: {e}"));
    match want_catalog {
        None => assert_eq!(loaded.len(), 0, "{context}: phantom models"),
        Some(want) => assert_catalogs_match(&loaded, want, context),
    }
}

#[test]
fn fault_free_workload_survives_restart() {
    let fx = fixture();
    let (commits_ok, image, ops) = run_workload(&fx, FaultSchedule::none());
    assert_eq!(commits_ok, 4);
    assert!(ops > 30, "workload is non-trivial ({ops} ops)");
    assert_state(&fx, image, commits_ok, "fault-free");
}

#[test]
fn models_survive_crashes_at_every_device_operation() {
    let fx = fixture();
    let seed = lawsdb_storage::fault::fault_seed();
    println!("LAWSDB_FAULT_SEED={seed} (set to reproduce)");
    let (_, _, total_ops) = run_workload(&fx, FaultSchedule::none());
    println!("engine crash matrix: {total_ops} crash points");
    for crash_op in 0..total_ops {
        let mode = FaultMode::ALL[crash_op as usize % FaultMode::ALL.len()];
        let (commits_ok, image, _) =
            run_workload(&fx, FaultSchedule::crash_at(crash_op, mode, seed));
        assert!(commits_ok < 4, "crash at {crash_op} must interrupt the workload");
        let context = format!("engine crash at op {crash_op} ({mode:?}, seed {seed})");
        assert_state(&fx, image, commits_ok, &context);
    }
}
