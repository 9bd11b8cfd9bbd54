//! One replica of one shard: a crash-safe [`DurableDb`] over a seeded
//! [`FaultyDevice`], the shard it read kept resident, plus the
//! deterministic fault-arming machinery the cluster crash matrix drives.
//! Rebuilding the device (arming a fault, healing) drops the resident
//! copy, so the next fetch reads the store again.
//!
//! Device faults are *read-path* faults here: the replica's table is
//! stored durably at creation, and queries only read. To arm a fault
//! that fires during a later fetch, the replica rebuilds its device
//! with a `crash_at` schedule positioned just past the ops a recovery
//! consumes — measured, not guessed, by probe recoveries on the same
//! device state (recovery is idempotent, so its op count is a constant
//! of the device image once it has run at least once).

use std::sync::Arc;

use lawsdb_core::storage_mgr::DurableDb;
use lawsdb_storage::{FaultMode, FaultSchedule, FaultyDevice, SimulatedDevice, Table};

/// The query phase a coordinator-level failure is injected at.
/// Device-level faults always surface during `Fetch` (the only phase
/// that touches the device); `Execute` and `Gather` failures model a
/// replica dying after shipping rows but before / after computing its
/// partials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Reading the shard's table from the replica's durable store.
    Fetch,
    /// Computing the shard's partial aggregates.
    Execute,
    /// Returning the partials to the coordinator.
    Gather,
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Phase::Fetch => write!(f, "fetch"),
            Phase::Execute => write!(f, "execute"),
            Phase::Gather => write!(f, "gather"),
        }
    }
}

/// Why a single replica attempt failed. Everything here is retryable on
/// another replica; deterministic query errors (bad SQL) never become a
/// `ReplicaError`.
#[derive(Debug)]
pub enum ReplicaError {
    /// The replica was administratively killed (total-loss scenarios).
    Killed,
    /// A coordinator-level failure injected at `phase`.
    Injected(Phase),
    /// The device faulted (or is crashed from an earlier fault).
    Device(String),
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Killed => write!(f, "replica killed"),
            ReplicaError::Injected(p) => write!(f, "injected failure at {p}"),
            ReplicaError::Device(d) => write!(f, "device fault: {d}"),
        }
    }
}

/// Page size every replica device uses. Small on purpose: more pages
/// per table means more device ops, which gives `crash_at` schedules a
/// fine-grained op axis to land faults on.
pub const REPLICA_PAGE_SIZE: usize = 256;

/// One replica: its durable store, the table name it holds, the shard
/// as last read, and the failure knobs the crash matrix turns.
pub struct Replica {
    /// `None` only transiently while re-arming the device.
    db: Option<DurableDb<FaultyDevice>>,
    table: String,
    /// The shard as the store last returned it, synopsis built; dropped
    /// whenever the device is rebuilt.
    resident: Option<Arc<Table>>,
    killed: bool,
    fail_next: Option<Phase>,
}

impl Replica {
    /// Store `table` durably on a fresh fault-free device.
    pub fn create(table: &Table) -> crate::Result<Replica> {
        let device = FaultyDevice::new(SimulatedDevice::new(REPLICA_PAGE_SIZE), FaultSchedule::none());
        let mut db = DurableDb::new(device);
        db.recover().map_err(core_err)?;
        db.store_table(table).map_err(core_err)?;
        Ok(Replica {
            db: Some(db),
            table: table.name().to_string(),
            resident: None,
            killed: false,
            fail_next: None,
        })
    }

    /// The shard's table: the resident copy, or else read from the store
    /// with its synopsis built, and kept. Fails if the replica is killed,
    /// a `Fetch` injection is pending, or the device faults.
    pub fn fetch(&mut self) -> Result<Arc<Table>, ReplicaError> {
        if self.killed {
            return Err(ReplicaError::Killed);
        }
        self.take_injection(Phase::Fetch)?;
        if let Some(table) = &self.resident {
            return Ok(Arc::clone(table));
        }
        let mut table = self.read()?;
        table.rebuild_synopsis();
        Ok(Arc::clone(self.resident.insert(Arc::new(table))))
    }

    fn read(&self) -> Result<Table, ReplicaError> {
        let db = self.db.as_ref().expect("replica device present");
        db.read_table(&self.table)
            .map_err(|e| ReplicaError::Device(e.to_string()))
    }

    /// Administratively kill the replica (every subsequent attempt
    /// fails until [`heal`](Replica::heal)).
    pub fn kill(&mut self) {
        self.killed = true;
    }

    /// Undo [`kill`](Replica::kill) and clear any armed device fault,
    /// so a health probe can succeed.
    pub fn heal(&mut self) -> crate::Result<()> {
        self.killed = false;
        self.fail_next = None;
        self.rebuild(FaultSchedule::none())
    }

    /// Arm a one-shot coordinator-level failure at `phase`.
    pub fn inject(&mut self, phase: Phase) {
        self.fail_next = Some(phase);
    }

    /// Consume a pending injection for `phase`, if any, as its failure.
    pub fn take_injection(&mut self, phase: Phase) -> Result<(), ReplicaError> {
        if self.fail_next == Some(phase) {
            self.fail_next = None;
            return Err(ReplicaError::Injected(phase));
        }
        Ok(())
    }

    /// Did the armed device fault actually fire?
    pub fn fault_fired(&self) -> bool {
        self.db.as_ref().is_some_and(|db| db.device().fault_fired())
    }

    /// The op index of an armed-but-unfired fault, if any.
    pub fn unfired_fault(&self) -> Option<u64> {
        self.db.as_ref().and_then(|db| db.device().unfired_fault())
    }

    /// Device ops the next fetch pays: 0 while the shard is resident,
    /// else one store read, measured without keeping it (so crash
    /// schedules can target the read path precisely).
    pub fn fetch_ops(&self) -> Result<u64, ReplicaError> {
        if self.resident.is_some() {
            return Ok(0);
        }
        let ops = || self.db.as_ref().expect("replica device present").device().op_count();
        let before = ops();
        self.read()?;
        Ok(ops() - before)
    }

    /// Arm a device fault `op_offset` read ops into the *next* fetch.
    ///
    /// The dance: recovery must run on the rebuilt device before it can
    /// serve reads, and recovery itself consumes device ops — so the
    /// schedule's absolute op index is `recover_ops + op_offset`, where
    /// `recover_ops` is measured by two probe recoveries (the first
    /// settles the device into its post-recovery steady state, the
    /// second measures the steady-state cost, and the armed recovery is
    /// the third — identical to the second by idempotence).
    pub fn arm_read_fault(&mut self, mode: FaultMode, seed: u64, op_offset: u64) -> crate::Result<()> {
        let device = self.take_device();
        // Probe 1: settle.
        let mut db = DurableDb::new(FaultyDevice::new(device, FaultSchedule::none()));
        db.recover().map_err(core_err)?;
        let device = db.into_device().into_inner();
        // Probe 2: measure steady-state recovery cost.
        let mut db = DurableDb::new(FaultyDevice::new(device, FaultSchedule::none()));
        db.recover().map_err(core_err)?;
        let recover_ops = db.device().op_count();
        let device = db.into_device().into_inner();
        // Armed rebuild: the fault lands op_offset ops into post-recovery reads.
        let schedule = FaultSchedule::crash_at(recover_ops + op_offset, mode, seed);
        let mut db = DurableDb::new(FaultyDevice::new(device, schedule));
        db.recover().map_err(core_err)?;
        debug_assert!(
            !db.device().fault_fired(),
            "armed fault must not fire during the recovery prefix"
        );
        self.db = Some(db);
        Ok(())
    }

    fn rebuild(&mut self, schedule: FaultSchedule) -> crate::Result<()> {
        let device = self.take_device();
        let mut db = DurableDb::new(FaultyDevice::new(device, schedule));
        db.recover().map_err(core_err)?;
        self.db = Some(db);
        Ok(())
    }

    fn take_device(&mut self) -> SimulatedDevice {
        self.resident = None;
        self.db
            .take()
            .expect("replica device present")
            .into_device()
            .into_inner()
    }
}

fn core_err(e: lawsdb_core::CoreError) -> crate::ClusterError {
    match e {
        lawsdb_core::CoreError::Storage(s) => crate::ClusterError::Storage(s),
        lawsdb_core::CoreError::Query(q) => crate::ClusterError::Query(q),
        other => crate::ClusterError::Unsupported { detail: other.to_string() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_storage::TableBuilder;

    fn fixture() -> Table {
        let mut b = TableBuilder::new("t");
        b.add_i64("g", (0..200).map(|i| i % 4).collect());
        b.add_f64("v", (0..200).map(|i| i as f64 * 0.5).collect());
        b.build().unwrap()
    }

    #[test]
    fn fetch_round_trips_and_kill_heal_works() {
        let t = fixture();
        let mut r = Replica::create(&t).unwrap();
        let got = r.fetch().unwrap();
        assert_eq!(got.row_count(), 200);
        r.kill();
        assert!(matches!(r.fetch(), Err(ReplicaError::Killed)));
        r.heal().unwrap();
        assert_eq!(r.fetch().unwrap().row_count(), 200);
    }

    #[test]
    fn injections_are_one_shot_and_phase_scoped() {
        let t = fixture();
        let mut r = Replica::create(&t).unwrap();
        r.inject(Phase::Execute);
        assert!(r.fetch().is_ok(), "execute injection must not trip fetch");
        assert!(r.take_injection(Phase::Execute).is_err());
        assert!(r.take_injection(Phase::Execute).is_ok(), "one-shot");
        r.inject(Phase::Fetch);
        assert!(matches!(r.fetch(), Err(ReplicaError::Injected(Phase::Fetch))));
        assert!(r.fetch().is_ok(), "consumed");
    }

    #[test]
    fn armed_read_fault_fires_during_fetch_and_heals_away() {
        let t = fixture();
        let mut r = Replica::create(&t).unwrap();
        for mode in FaultMode::ALL {
            r.arm_read_fault(mode, 7, 1).unwrap();
            assert!(!r.fault_fired());
            let err = r.fetch();
            assert!(err.is_err(), "{mode:?}: armed fault must fail the fetch");
            assert!(r.fault_fired(), "{mode:?}: fault consumed by the fetch");
            // Crashed device: every later op fails too.
            assert!(r.fetch().is_err());
            r.heal().unwrap();
            assert_eq!(r.fetch().unwrap().row_count(), 200, "{mode:?}: heal restores reads");
        }
    }

    #[test]
    fn fault_beyond_the_read_window_stays_unfired() {
        let t = fixture();
        let mut r = Replica::create(&t).unwrap();
        r.fetch().unwrap();
        assert_eq!(r.fetch_ops().unwrap(), 0, "a resident shard reads nothing");
        r.heal().unwrap();
        let ops = r.fetch_ops().unwrap();
        r.arm_read_fault(FaultMode::IoError, 7, ops + 1_000).unwrap();
        assert_eq!(r.fetch().unwrap().row_count(), 200);
        assert!(!r.fault_fired());
        assert!(r.unfired_fault().is_some());
        r.heal().unwrap();
    }
}
