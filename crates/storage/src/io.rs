//! Simulated block IO device with exact access accounting.
//!
//! The paper frames "zero-IO scans" as turning an IO-bound problem into
//! a CPU-bound one (Section 4.1). The authors' substrate was a disk;
//! ours is a device model: an in-memory block store that *counts* every
//! page read/write and converts the counts into simulated elapsed time
//! under a configurable latency/bandwidth profile. That makes the E5
//! experiment exact and reproducible — the IO cost of a scan is
//! `pages × latency + bytes / bandwidth` by construction, and a
//! model-backed answer is *provably* zero-IO because its page counter
//! stays at zero.

use std::sync::atomic::{AtomicU64, Ordering};

/// Device performance profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    /// Per-operation latency in microseconds (seek/queue cost).
    pub latency_us: f64,
    /// Sustained bandwidth in MB/s.
    pub bandwidth_mb_s: f64,
}

impl DeviceProfile {
    /// A 2015-era spinning disk: ~8 ms seek, 150 MB/s sequential.
    pub fn spinning_disk() -> DeviceProfile {
        DeviceProfile { latency_us: 8000.0, bandwidth_mb_s: 150.0 }
    }

    /// A SATA SSD: ~80 µs, 500 MB/s.
    pub fn sata_ssd() -> DeviceProfile {
        DeviceProfile { latency_us: 80.0, bandwidth_mb_s: 500.0 }
    }

    /// An NVMe SSD: ~20 µs, 3 GB/s.
    pub fn nvme_ssd() -> DeviceProfile {
        DeviceProfile { latency_us: 20.0, bandwidth_mb_s: 3000.0 }
    }

    /// Simulated time to transfer `bytes` in `ops` operations, in
    /// microseconds.
    pub fn cost_us(&self, ops: u64, bytes: u64) -> f64 {
        ops as f64 * self.latency_us + bytes as f64 / self.bandwidth_mb_s
    }
}

/// Cumulative access counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages read from the device.
    pub pages_read: u64,
    /// Pages written.
    pub pages_written: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

impl IoStats {
    /// Simulated elapsed device time under a profile, in microseconds.
    pub fn simulated_us(&self, profile: &DeviceProfile) -> f64 {
        profile.cost_us(self.pages_read + self.pages_written, self.bytes_read + self.bytes_written)
    }
}

/// The block-device abstraction the durability layer writes through.
///
/// [`SimulatedDevice`] is the plain implementation;
/// [`crate::fault::FaultyDevice`] wraps one and injects scheduled
/// faults, which is how the crash-matrix harness exercises every
/// recovery path without a real disk.
pub trait BlockDevice {
    /// Page size in bytes.
    fn page_size(&self) -> usize;

    /// Number of pages ever allocated.
    fn page_count(&self) -> usize;

    /// Allocate a fresh zeroed page, returning its id. Allocation is
    /// metadata (no media access) and is not a fault point.
    fn allocate(&mut self) -> u64;

    /// Write a full page; `data` longer than the page size is an
    /// error, shorter data is zero-padded.
    fn write_page(&mut self, id: u64, data: &[u8]) -> crate::Result<()>;

    /// Read a full page into an owned buffer (counted as one device
    /// operation).
    fn read_page_owned(&self, id: u64) -> crate::Result<Vec<u8>>;

    /// Current access counters.
    fn stats(&self) -> IoStats;

    /// Reset all counters (between benchmark phases).
    fn reset_stats(&self);
}

/// An in-memory "device" of fixed-size pages with atomic counters.
///
/// Thread-safe for counting; page content operations take `&mut self`
/// because the store that owns the device is its only writer.
#[derive(Debug)]
pub struct SimulatedDevice {
    page_size: usize,
    pages: Vec<Vec<u8>>,
    pages_read: AtomicU64,
    pages_written: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl SimulatedDevice {
    /// New empty device with the given page size (bytes).
    pub fn new(page_size: usize) -> SimulatedDevice {
        assert!(page_size >= 64, "page size must be at least 64 bytes");
        SimulatedDevice {
            page_size,
            pages: Vec::new(),
            pages_read: AtomicU64::new(0),
            pages_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages ever allocated.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Allocate a fresh zeroed page, returning its id.
    pub fn allocate(&mut self) -> u64 {
        self.pages.push(vec![0; self.page_size]);
        (self.pages.len() - 1) as u64
    }

    /// Write a full page. `data` longer than the page size is an error;
    /// shorter data is zero-padded.
    pub fn write_page(&mut self, id: u64, data: &[u8]) -> crate::Result<()> {
        let page = self
            .pages
            .get_mut(id as usize)
            .ok_or(crate::StorageError::PageNotFound { page: id })?;
        if data.len() > page.len() {
            return Err(crate::StorageError::Io {
                op: "write",
                page: id,
                detail: format!("write of {} bytes exceeds page size {}", data.len(), page.len()),
            });
        }
        page[..data.len()].copy_from_slice(data);
        page[data.len()..].fill(0);
        self.pages_written.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(self.page_size as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Read a full page (counted as one device operation).
    pub fn read_page(&self, id: u64) -> crate::Result<&[u8]> {
        let page = self
            .pages
            .get(id as usize)
            .ok_or(crate::StorageError::PageNotFound { page: id })?;
        self.pages_read.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(self.page_size as u64, Ordering::Relaxed);
        Ok(page)
    }

    /// Uncounted raw view of a page's current content, if allocated.
    /// Support for fault injection (torn writes must mix old and new
    /// bytes) and post-mortem inspection — never a data path.
    pub fn peek_page(&self, id: u64) -> Option<&[u8]> {
        self.pages.get(id as usize).map(Vec::as_slice)
    }

    /// Uncounted mutable access to a page's raw content — the
    /// fault-injection twin of [`peek_page`](SimulatedDevice::peek_page),
    /// letting a harness corrupt stored bytes behind the store's back.
    /// Never a data path.
    pub fn poke_page(&mut self, id: u64) -> Option<&mut [u8]> {
        self.pages.get_mut(id as usize).map(Vec::as_mut_slice)
    }

    /// Current counters.
    pub fn stats(&self) -> IoStats {
        IoStats {
            pages_read: self.pages_read.load(Ordering::Relaxed),
            pages_written: self.pages_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Reset all counters (between benchmark phases).
    pub fn reset_stats(&self) {
        self.pages_read.store(0, Ordering::Relaxed);
        self.pages_written.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
    }
}

impl BlockDevice for SimulatedDevice {
    fn page_size(&self) -> usize {
        SimulatedDevice::page_size(self)
    }

    fn page_count(&self) -> usize {
        SimulatedDevice::page_count(self)
    }

    fn allocate(&mut self) -> u64 {
        SimulatedDevice::allocate(self)
    }

    fn write_page(&mut self, id: u64, data: &[u8]) -> crate::Result<()> {
        SimulatedDevice::write_page(self, id, data)
    }

    fn read_page_owned(&self, id: u64) -> crate::Result<Vec<u8>> {
        SimulatedDevice::read_page(self, id).map(<[u8]>::to_vec)
    }

    fn stats(&self) -> IoStats {
        SimulatedDevice::stats(self)
    }

    fn reset_stats(&self) {
        SimulatedDevice::reset_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_write_read_roundtrip() {
        let mut d = SimulatedDevice::new(128);
        let p0 = d.allocate();
        let p1 = d.allocate();
        assert_eq!((p0, p1), (0, 1));
        d.write_page(p1, b"hello").unwrap();
        let back = d.read_page(p1).unwrap();
        assert_eq!(&back[..5], b"hello");
        assert!(back[5..].iter().all(|&b| b == 0));
    }

    #[test]
    fn counters_track_operations() {
        let mut d = SimulatedDevice::new(256);
        let p = d.allocate();
        d.write_page(p, &[1; 100]).unwrap();
        d.read_page(p).unwrap();
        d.read_page(p).unwrap();
        let s = d.stats();
        assert_eq!(s.pages_written, 1);
        assert_eq!(s.pages_read, 2);
        assert_eq!(s.bytes_read, 512);
        assert_eq!(s.bytes_written, 256);
        d.reset_stats();
        assert_eq!(d.stats(), IoStats::default());
    }

    #[test]
    fn oversized_write_rejected() {
        let mut d = SimulatedDevice::new(64);
        let p = d.allocate();
        // Must be a structured IO error, and the page must be untouched.
        let err = d.write_page(p, &[7; 65]).unwrap_err();
        assert!(
            matches!(err, crate::StorageError::Io { op: "write", page, .. } if page == p),
            "{err}"
        );
        assert!(d.peek_page(p).unwrap().iter().all(|&b| b == 0));
        // The failed attempt is not billed as a completed write.
        assert_eq!(d.stats().pages_written, 0);
        // An exactly page-sized write is fine.
        assert!(d.write_page(p, &[7; 64]).is_ok());
    }

    #[test]
    fn missing_page_errors() {
        let d = SimulatedDevice::new(64);
        assert!(matches!(d.read_page(0), Err(crate::StorageError::PageNotFound { .. })));
    }

    #[test]
    fn simulated_time_follows_profile() {
        let profile = DeviceProfile { latency_us: 100.0, bandwidth_mb_s: 1.0 };
        let stats = IoStats {
            pages_read: 2,
            pages_written: 0,
            bytes_read: 2_000_000,
            bytes_written: 0,
        };
        // 2 ops × 100 µs + 2 MB / 1 MB/s = 200 + 2,000,000 µs... note
        // bandwidth is MB/s so bytes/bandwidth is in µs when bytes are in
        // MB × 1e6 / 1e6 — cost_us treats bytes/(MB/s) directly.
        let t = stats.simulated_us(&profile);
        assert!((t - (200.0 + 2_000_000.0)).abs() < 1e-9);
    }

    #[test]
    fn device_profiles_are_ordered_sensibly() {
        let hdd = DeviceProfile::spinning_disk();
        let ssd = DeviceProfile::sata_ssd();
        let nvme = DeviceProfile::nvme_ssd();
        let cost = |p: &DeviceProfile| p.cost_us(100, 100 << 20);
        assert!(cost(&hdd) > cost(&ssd));
        assert!(cost(&ssd) > cost(&nvme));
    }
}
