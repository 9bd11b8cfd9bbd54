//! Deterministic fault injection, in the spirit of SQLite's test VFS.
//!
//! [`FaultyDevice`] wraps a [`SimulatedDevice`] and executes a seeded
//! [`FaultSchedule`]: at device operation *N* it injects one fault —
//! a short write, a torn page, a bit flip, or a plain IO error — and
//! from that point on every operation fails, simulating the process
//! dying mid-workload. The underlying device survives the "crash"
//! ([`FaultyDevice::into_inner`] recovers the disk image), so a harness
//! can re-open the store over it and assert that recovery lands on
//! exactly the pre- or post-commit state.
//!
//! All randomness (which bytes of a short write land, which sectors of
//! a torn page are old vs new, which bit flips) is a pure function of
//! `(seed, operation index)`, so every failure is replayable from the
//! logged seed alone.

use crate::error::{Result, StorageError};
use crate::io::{BlockDevice, IoStats, SimulatedDevice};
use lawsdb_obs::event;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// What happens at the scheduled crash operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation fails cleanly; no bytes reach the media.
    IoError,
    /// A seeded-length prefix of the new data lands; the rest of the
    /// page keeps its old content.
    ShortWrite,
    /// The page is written in 64-byte sectors and a seeded subset of
    /// them land; the others keep their old content.
    TornPage,
    /// The full write lands with one seeded bit flipped.
    BitFlip,
    /// A seeded run of 1–3 consecutive operations fails cleanly and
    /// then the device heals — the transient-IO model (a glitching
    /// cable, not a dead disk). Unlike every other mode this does NOT
    /// leave the device crashed, so a retrying caller recovers.
    Transient,
}

impl FaultMode {
    /// All *crashing* modes, in the order the crash matrix cycles
    /// through them. `Transient` is deliberately excluded: the crash
    /// matrix asserts the device stays dead after the fault, which a
    /// self-healing fault would violate.
    pub const ALL: [FaultMode; 4] =
        [FaultMode::IoError, FaultMode::ShortWrite, FaultMode::TornPage, FaultMode::BitFlip];

    /// Stable lowercase name, used in structured events and logs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultMode::IoError => "io_error",
            FaultMode::ShortWrite => "short_write",
            FaultMode::TornPage => "torn_page",
            FaultMode::BitFlip => "bit_flip",
            FaultMode::Transient => "transient",
        }
    }
}

/// When and how to fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Zero-based device-operation index at which the fault fires;
    /// `None` never faults (golden run).
    pub crash_at: Option<u64>,
    /// The fault injected at that operation.
    pub mode: FaultMode,
    /// Seed for the fault's internal randomness (short-write length,
    /// torn-sector pattern, flipped bit).
    pub seed: u64,
}

impl FaultSchedule {
    /// A schedule that never faults.
    pub fn none() -> FaultSchedule {
        FaultSchedule { crash_at: None, mode: FaultMode::IoError, seed: 0 }
    }

    /// Fault at operation `op` with `mode`, seeded by `seed`.
    pub fn crash_at(op: u64, mode: FaultMode, seed: u64) -> FaultSchedule {
        FaultSchedule { crash_at: Some(op), mode, seed }
    }
}

/// The seed every seeded test and every deterministic resilience
/// decision derives from: `LAWSDB_FAULT_SEED` when set, `0xC0FFEE`
/// otherwise. The variable takes decimal or `0x`-prefixed hex; seeded
/// tests print it back as `LAWSDB_FAULT_SEED=<decimal>`, so a logged
/// line pasted into the shell reproduces the run.
///
/// # Panics
///
/// When the variable is set but is neither form — a typo must not
/// quietly run the default seed.
pub fn fault_seed() -> u64 {
    match std::env::var("LAWSDB_FAULT_SEED") {
        Ok(s) => parse_seed(&s).unwrap_or_else(|| {
            panic!("LAWSDB_FAULT_SEED={s:?} is neither a decimal nor a 0x-prefixed hex u64")
        }),
        Err(_) => 0xC0FFEE,
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// SplitMix64 — the same deterministic generator the shims use.
fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`SimulatedDevice`] that executes a [`FaultSchedule`].
///
/// Every read and write attempt counts as one operation (allocation is
/// metadata and does not count). Once the scheduled fault has fired the
/// device is *crashed*: all further operations return
/// [`StorageError::Io`], exactly as a dead process would see them.
#[derive(Debug)]
pub struct FaultyDevice {
    inner: SimulatedDevice,
    schedule: FaultSchedule,
    ops: AtomicU64,
    crashed: AtomicBool,
    fired: AtomicBool,
    transient_left: AtomicU64,
}

impl FaultyDevice {
    /// Wrap `inner` under `schedule`.
    pub fn new(inner: SimulatedDevice, schedule: FaultSchedule) -> FaultyDevice {
        if let Some(op) = schedule.crash_at {
            event!(
                "storage.fault.armed",
                op,
                mode = schedule.mode.name(),
                seed = schedule.seed
            );
        }
        FaultyDevice {
            inner,
            schedule,
            ops: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            fired: AtomicBool::new(false),
            transient_left: AtomicU64::new(0),
        }
    }

    /// Total device operations attempted so far (reads + writes,
    /// including the faulted one).
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// True once the scheduled fault has fired. Distinct from
    /// [`is_crashed`](FaultyDevice::is_crashed): a [`FaultMode::Transient`]
    /// fault fires without leaving the device crashed.
    pub fn fault_fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    /// `Some(op)` when the schedule named operation `op` but the
    /// workload stopped after [`op_count`](FaultyDevice::op_count)
    /// operations without ever reaching it. A harness that ignores this
    /// is running a vacuous matrix cell — the fault was scheduled past
    /// the end of the workload and silently never injected.
    pub fn unfired_fault(&self) -> Option<u64> {
        match self.schedule.crash_at {
            Some(op) if !self.fault_fired() => Some(op),
            _ => None,
        }
    }

    /// True once the scheduled fault has fired.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Surrender the underlying device — the disk image that survives
    /// the crash, ready to be re-opened and recovered.
    pub fn into_inner(self) -> SimulatedDevice {
        self.inner
    }

    fn crash_error(op: &'static str, page: u64) -> StorageError {
        StorageError::Io { op, page, detail: "device crashed (injected fault)".to_string() }
    }

    fn transient_error(op: &'static str, page: u64) -> StorageError {
        StorageError::Io { op, page, detail: "transient io error (injected fault)".to_string() }
    }

    /// Claim the next operation slot; `Ok(None)` = run normally,
    /// `Ok(Some(rng))` = this is the fault op, `Err` = already crashed,
    /// mid-transient-run, or a transient fault firing.
    fn next_op(&self, op: &'static str, page: u64) -> Result<Option<u64>> {
        if self.crashed.load(Ordering::Relaxed) {
            // Still bill the attempt: a dead device rejects, but the
            // caller did issue the operation.
            self.ops.fetch_add(1, Ordering::Relaxed);
            return Err(Self::crash_error(op, page));
        }
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        // Drain an in-flight transient run before consulting the
        // schedule; once it hits zero the device has healed.
        if self
            .transient_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| left.checked_sub(1))
            .is_ok()
        {
            return Err(Self::transient_error(op, page));
        }
        if self.schedule.crash_at == Some(n) {
            self.fired.store(true, Ordering::Relaxed);
            event!(
                "storage.fault.fired",
                op = n,
                mode = self.schedule.mode.name(),
                page,
                crashes = self.schedule.mode != FaultMode::Transient
            );
            let rng = splitmix(self.schedule.seed ^ n.wrapping_mul(0xA24B_AED4_963E_E407));
            if self.schedule.mode == FaultMode::Transient {
                // This op plus a seeded 0–2 more fail, then the device
                // heals; `crashed` stays false throughout.
                self.transient_left.store(rng % 3, Ordering::Relaxed);
                return Err(Self::transient_error(op, page));
            }
            self.crashed.store(true, Ordering::Relaxed);
            return Ok(Some(rng));
        }
        Ok(None)
    }
}

impl BlockDevice for FaultyDevice {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn page_count(&self) -> usize {
        self.inner.page_count()
    }

    fn allocate(&mut self) -> u64 {
        self.inner.allocate()
    }

    fn write_page(&mut self, id: u64, data: &[u8]) -> Result<()> {
        let Some(rng) = self.next_op("write", id)? else {
            return self.inner.write_page(id, data);
        };
        // The fault op: corrupt (per mode), then report the crash.
        let ps = self.inner.page_size();
        if data.len() <= ps {
            let old: Vec<u8> =
                self.inner.peek_page(id).map(<[u8]>::to_vec).unwrap_or_else(|| vec![0; ps]);
            let mut new = vec![0u8; ps];
            new[..data.len()].copy_from_slice(data);
            let corrupted: Option<Vec<u8>> = match self.schedule.mode {
                // Transient faults error in `next_op` before reaching
                // here; a crashing IoError leaves the media untouched.
                FaultMode::IoError | FaultMode::Transient => None,
                FaultMode::ShortWrite => {
                    // A prefix of the new bytes lands; the tail keeps
                    // its previous content.
                    let landed = (rng as usize) % (ps + 1);
                    let mut page = old;
                    page[..landed].copy_from_slice(&new[..landed]);
                    Some(page)
                }
                FaultMode::TornPage => {
                    // 64-byte sectors land independently.
                    let mut page = old;
                    let mut r = rng;
                    for (s, chunk) in page.chunks_mut(64).enumerate() {
                        r = splitmix(r ^ s as u64);
                        if r & 1 == 1 {
                            let lo = s * 64;
                            chunk.copy_from_slice(&new[lo..lo + chunk.len()]);
                        }
                    }
                    Some(page)
                }
                FaultMode::BitFlip => {
                    let bit = (rng as usize) % (ps * 8);
                    new[bit / 8] ^= 1 << (bit % 8);
                    Some(new)
                }
            };
            if let Some(page) = corrupted {
                // Bypass our own accounting: this is the same physical
                // write the caller already paid for, not a second one.
                self.inner.write_page(id, &page)?;
            }
        }
        Err(Self::crash_error("write", id))
    }

    fn read_page_owned(&self, id: u64) -> Result<Vec<u8>> {
        // Read faults all degrade to an error: a crashed process never
        // sees the (possibly corrupt) bytes.
        match self.next_op("read", id)? {
            Some(_) => Err(Self::crash_error("read", id)),
            None => self.inner.read_page_owned(id),
        }
    }

    fn stats(&self) -> IoStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device(ps: usize, schedule: FaultSchedule) -> FaultyDevice {
        let mut inner = SimulatedDevice::new(ps);
        inner.allocate();
        inner.allocate();
        FaultyDevice::new(inner, schedule)
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_seed("12648430"), Some(0xC0FFEE));
        assert_eq!(parse_seed(" 0xc0ffee\n"), Some(0xC0FFEE));
        assert_eq!(parse_seed("0XC0FFEE"), Some(0xC0FFEE));
        assert_eq!(parse_seed("c0ffee"), None);
        assert_eq!(parse_seed("-1"), None);
    }

    #[test]
    fn no_schedule_behaves_transparently() {
        let mut d = device(128, FaultSchedule::none());
        d.write_page(0, b"abc").unwrap();
        assert_eq!(&d.read_page_owned(0).unwrap()[..3], b"abc");
        assert_eq!(d.op_count(), 2);
        assert!(!d.is_crashed());
    }

    #[test]
    fn io_error_leaves_old_content() {
        let mut d = device(128, FaultSchedule::crash_at(1, FaultMode::IoError, 7));
        d.write_page(0, &[0xAA; 128]).unwrap();
        assert!(d.write_page(0, &[0xBB; 128]).is_err());
        assert!(d.is_crashed());
        let img = d.into_inner();
        assert!(img.peek_page(0).unwrap().iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn short_write_mixes_prefix_and_old_tail() {
        let mut d = device(128, FaultSchedule::crash_at(1, FaultMode::ShortWrite, 42));
        d.write_page(0, &[0xAA; 128]).unwrap();
        assert!(d.write_page(0, &[0xBB; 128]).is_err());
        let img = d.into_inner();
        let page = img.peek_page(0).unwrap();
        let landed = page.iter().take_while(|&&b| b == 0xBB).count();
        assert!(page[landed..].iter().all(|&b| b == 0xAA), "clean prefix/tail split");
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let mut d = device(128, FaultSchedule::crash_at(0, FaultMode::BitFlip, 3));
        assert!(d.write_page(0, &[0x00; 128]).is_err());
        let img = d.into_inner();
        let ones: u32 = img.peek_page(0).unwrap().iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
    }

    #[test]
    fn torn_page_is_sector_mix_of_old_and_new() {
        let mut d = device(256, FaultSchedule::crash_at(1, FaultMode::TornPage, 9));
        d.write_page(0, &[0xAA; 256]).unwrap();
        assert!(d.write_page(0, &[0xBB; 256]).is_err());
        let img = d.into_inner();
        let page = img.peek_page(0).unwrap();
        for sector in page.chunks(64) {
            let first = sector[0];
            assert!(first == 0xAA || first == 0xBB);
            assert!(sector.iter().all(|&b| b == first), "sectors are atomic");
        }
    }

    #[test]
    fn everything_fails_after_the_crash() {
        let mut d = device(128, FaultSchedule::crash_at(0, FaultMode::IoError, 0));
        assert!(d.read_page_owned(0).is_err());
        assert!(d.read_page_owned(1).is_err());
        assert!(d.write_page(0, b"x").is_err());
        assert_eq!(d.op_count(), 3);
    }

    #[test]
    fn transient_fault_fails_then_heals() {
        let d = device(128, FaultSchedule::crash_at(0, FaultMode::Transient, 11));
        let mut failures = 0;
        while d.read_page_owned(0).is_err() {
            failures += 1;
            assert!(failures <= 3, "a transient run is at most 3 ops");
        }
        assert!((1..=3).contains(&failures));
        assert!(d.fault_fired());
        assert!(!d.is_crashed(), "transient faults never crash the device");
        assert!(d.read_page_owned(0).is_ok(), "healed device stays healthy");
    }

    #[test]
    fn transient_run_length_is_deterministic() {
        let run = |seed| {
            let d = device(128, FaultSchedule::crash_at(0, FaultMode::Transient, seed));
            (0..8).filter(|_| d.read_page_owned(0).is_err()).count()
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn unfired_schedule_is_reported() {
        let mut d = device(128, FaultSchedule::crash_at(100, FaultMode::IoError, 0));
        d.write_page(0, b"abc").unwrap();
        assert!(!d.fault_fired());
        assert_eq!(d.unfired_fault(), Some(100), "workload never reached op 100");
        assert_eq!(d.op_count(), 1);
    }

    #[test]
    fn fired_schedule_is_not_reported_as_unfired() {
        let mut d = device(128, FaultSchedule::crash_at(0, FaultMode::IoError, 0));
        assert!(d.write_page(0, b"abc").is_err());
        assert!(d.fault_fired());
        assert_eq!(d.unfired_fault(), None);
        let d = device(128, FaultSchedule::none());
        assert_eq!(d.unfired_fault(), None, "golden runs schedule nothing");
    }

    #[test]
    fn schedules_are_deterministic() {
        let image = |seed| {
            let mut d = device(128, FaultSchedule::crash_at(1, FaultMode::ShortWrite, seed));
            d.write_page(0, &[0xAA; 128]).unwrap();
            let _ = d.write_page(0, &[0xBB; 128]);
            d.into_inner().peek_page(0).unwrap().to_vec()
        };
        assert_eq!(image(5), image(5));
        assert_ne!(image(5), image(6), "different seeds tear differently");
    }
}
