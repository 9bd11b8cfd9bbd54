//! The crash matrix: every device operation of a durable workload is a
//! crash point, and recovery from each one must land on exactly the
//! pre- or post-commit state — never a hybrid, never a panic.
//!
//! The harness runs the workload once fault-free to count device
//! operations (the *golden run*), then re-runs it once per operation
//! index with a fault injected there, cycling through all
//! [`FaultMode`]s. After each crash the surviving disk image is
//! re-opened with a clean device and the recovered state is compared
//! against the in-memory expectation for its commit sequence.
//!
//! The base seed is fixed for reproducibility; set `LAWSDB_FAULT_SEED`
//! to explore a different deterministic schedule (CI runs one random
//! seed per build and logs it).

use lawsdb_storage::fault::{FaultMode, FaultSchedule, FaultyDevice};
use lawsdb_storage::io::SimulatedDevice;
use lawsdb_storage::wal::DurableStore;
use lawsdb_storage::{Column, Table, TableBuilder};

const PAGE_SIZE: usize = 256;

type Step = Box<dyn Fn(&mut DurableStore<FaultyDevice>) -> lawsdb_storage::Result<()>>;

fn base_seed() -> u64 {
    let s = lawsdb_storage::fault::fault_seed();
    println!("LAWSDB_FAULT_SEED={s} (set to reproduce)");
    s
}

fn law_table(version: u32) -> Table {
    // A LOFAR-ish measurement table; `version` changes both shape and
    // content so pre/post states are unmistakable.
    let rows = 30 + version as usize * 10;
    let mut b = TableBuilder::new("measurements");
    b.add_i64("source", (0..rows as i64).map(|i| i / 3).collect());
    b.add_f64("intensity", (0..rows).map(|i| (i as f64 + version as f64).ln_1p()).collect());
    b.build().unwrap()
}

fn aux_table() -> Table {
    let mut b = TableBuilder::new("aux");
    b.add_str("name", vec!["cygnus".into(), "cassiopeia".into()]);
    b.add_f64_opt("flux", vec![Some(8.1), None]);
    b.build().unwrap()
}

/// The two tables a multi-table commit puts, by version: a catalog
/// row set and a parameter table beside it.
fn catalog_table(version: u32) -> Table {
    let mut b = TableBuilder::new("catalog");
    b.add_i64("id", (1..=version as i64).collect());
    b.add_str("formula", (0..version).map(|v| format!("y ~ a{v} * x")).collect());
    b.build().unwrap()
}

fn params_table() -> Table {
    let mut b = TableBuilder::new("params");
    b.add_i64("key", (0..40).collect());
    b.add_f64("a", (0..40).map(|i| 1.0 / (1.0 + i as f64)).collect());
    b.build().unwrap()
}

/// `table` grown by `rows` rows through `Table::append_rows`, so the
/// store's commit of it writes one tail segment.
fn appended(table: &Table, rows: usize) -> Table {
    let base = table.row_count() as i64;
    let mut grown = table.clone();
    grown
        .append_rows(&[
            Column::from_i64((base..base + rows as i64).map(|i| i / 3).collect()),
            Column::from_f64((0..rows).map(|i| -(i as f64).sqrt()).collect()),
        ])
        .unwrap();
    grown
}

/// The workload's tables by version: `law_table(2)` and two appends
/// grown from that very instance (a table must descend from the version
/// the store wrote for its append to commit as a tail segment).
fn versions() -> [Table; 3] {
    let v2 = law_table(2);
    let v3 = appended(&v2, 7);
    let v4 = appended(&v3, 12);
    [v2, v3, v4]
}

/// One workload step = one atomic commit attempt. Steps 3 and 7 are
/// multi-table commits, the shape of a model-catalog save: put two
/// tables and drop one, then replace one and drop another.
fn steps() -> Vec<Step> {
    let [v2, v3, v4] = versions();
    vec![
        Box::new(|s| s.store_table(&law_table(1))),
        Box::new(|s| s.store_table(&aux_table())),
        Box::new(|s| s.commit(&[catalog_table(1), params_table()], &["aux"])),
        Box::new(move |s| s.replace_table(&v2)),
        Box::new(move |s| s.replace_table(&v3)),
        Box::new(move |s| s.replace_table(&v4)),
        Box::new(|s| s.commit(&[catalog_table(2)], &["params"])),
    ]
}

/// Commits in the fault-free workload.
const COMMITS: u64 = 7;

/// The exact tables the store must hold at commit sequence `seq`, in
/// name order.
fn expected_state(seq: u64) -> Vec<Table> {
    let [v2, v3, v4] = versions();
    let (catalog, params) = (catalog_table(1), params_table());
    match seq {
        0 => vec![],
        1 => vec![law_table(1)],
        2 => vec![aux_table(), law_table(1)],
        3 => vec![catalog, law_table(1), params],
        4 => vec![catalog, v2, params],
        5 => vec![catalog, v3, params],
        6 => vec![catalog, v4, params],
        7 => vec![catalog_table(2), v4],
        other => panic!("workload never reaches seq {other}"),
    }
}

/// Run the workload under `schedule`; returns (commits that completed,
/// surviving disk image).
fn run_workload(schedule: FaultSchedule) -> (u64, SimulatedDevice, u64) {
    let device = FaultyDevice::new(SimulatedDevice::new(PAGE_SIZE), schedule);
    let mut store = DurableStore::new(device);
    let mut commits_ok = 0u64;
    if store.recover().is_ok() {
        for step in steps() {
            match step(&mut store) {
                Ok(()) => commits_ok += 1,
                Err(_) => break, // crashed: every later op fails too
            }
        }
    }
    let faulty = store.into_device();
    let ops = faulty.op_count();
    (commits_ok, faulty.into_inner(), ops)
}

/// Re-open a surviving image on a clean device and check it against the
/// in-memory expectation for whatever sequence it recovered to.
fn assert_recovers_cleanly(image: SimulatedDevice, commits_ok: u64, context: &str) {
    let mut store = DurableStore::new(image);
    let report = store
        .recover()
        .unwrap_or_else(|e| panic!("{context}: recovery failed on a clean device: {e}"));
    let seq = report.seq;
    // The crashed step either never reached its commit point (state =
    // all completed commits) or crashed after it (state includes the
    // in-flight commit). Nothing else is acceptable.
    assert!(
        seq == commits_ok || seq == commits_ok + 1,
        "{context}: recovered to seq {seq}, but {commits_ok} commits completed"
    );
    let tables = expected_state(seq);
    let names: Vec<String> = tables.iter().map(|t| t.name().to_string()).collect();
    assert_eq!(store.table_names(), names, "{context}: table set at seq {seq}");
    for want in &tables {
        let got = store
            .read_table(want.name())
            .unwrap_or_else(|e| panic!("{context}: reading {:?}: {e}", want.name()));
        assert_eq!(&got, want, "{context}: content of {:?} at seq {seq}", want.name());
    }
    // The appends committed as tail segments beside `law_table(2)`'s.
    if seq >= 4 {
        let segments = store.stored_table("measurements").unwrap().segments.len();
        assert_eq!(segments as u64, seq.min(6) - 3, "{context}: segments at seq {seq}");
    }
}

#[test]
fn golden_run_commits_everything() {
    let (commits_ok, image, ops) = run_workload(FaultSchedule::none());
    assert_eq!(commits_ok, COMMITS, "fault-free run completes all steps");
    assert!(ops > 20, "workload is non-trivial ({ops} ops)");
    assert_recovers_cleanly(image, commits_ok, "golden");
}

#[test]
fn every_crash_point_recovers_to_pre_or_post_state() {
    let seed = base_seed();
    let (_, _, total_ops) = run_workload(FaultSchedule::none());
    println!("crash matrix: {total_ops} crash points, seed {seed}");
    for crash_op in 0..total_ops {
        let mode = FaultMode::ALL[crash_op as usize % FaultMode::ALL.len()];
        let schedule = FaultSchedule::crash_at(crash_op, mode, seed);
        let (commits_ok, image, _) = run_workload(schedule);
        assert!(
            commits_ok < COMMITS,
            "crash at {crash_op} must bite before the workload finishes"
        );
        let context = format!("crash at op {crash_op} ({mode:?}, seed {seed})");
        assert_recovers_cleanly(image, commits_ok, &context);
    }
}

#[test]
fn every_fault_mode_covers_every_crash_point() {
    // The cycling test above gives each op one mode; this denser pass
    // gives every op *every* mode, on a shorter stride to stay fast.
    let seed = base_seed() ^ 0x5EED;
    let (_, _, total_ops) = run_workload(FaultSchedule::none());
    for crash_op in (0..total_ops).step_by(3) {
        for mode in FaultMode::ALL {
            let schedule = FaultSchedule::crash_at(crash_op, mode, seed);
            let (commits_ok, image, _) = run_workload(schedule);
            let context = format!("dense crash at op {crash_op} ({mode:?})");
            assert_recovers_cleanly(image, commits_ok, &context);
        }
    }
}

#[test]
fn double_crash_still_recovers() {
    // Crash once, recover, then crash again at every op of the *next*
    // transaction: recovery must also be crash-safe against a second
    // failure on the already-recovered image.
    let seed = base_seed().rotate_left(17);
    let (_, _, total_ops) = run_workload(FaultSchedule::none());
    let first_crash = total_ops / 2;
    for second_crash in 0..40 {
        let mode = FaultMode::ALL[second_crash as usize % FaultMode::ALL.len()];
        // First crash mid-workload.
        let (_, image, _) =
            run_workload(FaultSchedule::crash_at(first_crash, FaultMode::TornPage, seed));
        // Settle the image once (fault-free) to fix the baseline seq.
        let mut settle = DurableStore::new(image);
        let baseline = settle.recover().expect("first recovery is fault-free").seq;
        // Now run one more commit with a second fault schedule active.
        let device =
            FaultyDevice::new(settle.into_device(), FaultSchedule::crash_at(second_crash, mode, seed));
        let mut store = DurableStore::new(device);
        let mut commits_ok = baseline;
        let puts = [catalog_table(9), params_table()];
        if store.recover().is_ok() && store.commit(&puts, &[]).is_ok() {
            commits_ok += 1;
        }
        let image = store.into_device().into_inner();
        // After the dust settles the image must open cleanly to exactly
        // the pre- or post-commit sequence with intact contents.
        let mut clean = DurableStore::new(image);
        let report = clean
            .recover()
            .unwrap_or_else(|e| panic!("double crash at {second_crash}: {e}"));
        for name in clean.table_names() {
            clean
                .read_table(&name)
                .unwrap_or_else(|e| panic!("double crash at {second_crash}: {name}: {e}"));
        }
        assert!(
            report.seq == commits_ok || report.seq == commits_ok + 1,
            "double crash at {second_crash}: seq {} vs {commits_ok} commits",
            report.seq
        );
    }
}

#[test]
fn a_failed_commit_never_becomes_durable_later() {
    // A transient fault (1–3 clean failures, then the device heals) at
    // each device op of a replace and a drop. A commit that failed
    // before its commit point must leave nothing behind for the next,
    // unrelated commit to persist: after recovery each change is there
    // exactly when the store's seq advanced across it.
    let seed = base_seed();
    let (small, large) = (law_table(1), law_table(5));
    let later = {
        let mut b = TableBuilder::new("later");
        b.add_i64("x", vec![1, 2, 3]);
        b.build().unwrap()
    };
    let setup = |store: &mut DurableStore<FaultyDevice>| {
        store.recover().unwrap();
        store.store_table(&small).unwrap();
        store.store_table(&aux_table()).unwrap();
    };
    let device = FaultyDevice::new(SimulatedDevice::new(PAGE_SIZE), FaultSchedule::none());
    let mut golden = DurableStore::new(device);
    setup(&mut golden);
    let first = golden.device().op_count();
    golden.replace_table(&large).unwrap();
    golden.drop_table("aux").unwrap();
    let last = golden.device().op_count();
    for op in first..last {
        let schedule = FaultSchedule::crash_at(op, FaultMode::Transient, seed);
        let mut store =
            DurableStore::new(FaultyDevice::new(SimulatedDevice::new(PAGE_SIZE), schedule));
        setup(&mut store);
        let seq = store.seq();
        let _ = store.replace_table(&large);
        let replaced = store.seq() > seq;
        let seq = store.seq();
        let _ = store.drop_table("aux");
        let dropped = store.seq() > seq;
        // The device heals within three ops: a later commit lands.
        let seq = store.seq();
        for _ in 0..4 {
            if store.seq() == seq {
                let _ = store.replace_table(&later);
            }
        }
        let context = format!("transient fault at op {op} (seed {seed})");
        assert!(store.seq() > seq, "{context}: the device never healed");
        let mut clean = DurableStore::new(store.into_device().into_inner());
        clean.recover().unwrap_or_else(|e| panic!("{context}: recovery failed: {e}"));
        let rows = clean.read_table("measurements").unwrap().row_count();
        let want = if replaced { large.row_count() } else { small.row_count() };
        assert_eq!(rows, want, "{context}: replace returned with seq advanced = {replaced}");
        let names = clean.table_names();
        assert_eq!(
            names.contains(&"aux".to_string()),
            !dropped,
            "{context}: drop returned with seq advanced = {dropped}"
        );
        assert_eq!(clean.read_table("later").unwrap(), later, "{context}");
    }
}
