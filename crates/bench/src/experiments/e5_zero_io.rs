//! **E5** — zero-IO scans (Section 4.1).
//!
//! "In the case of approximate queries, we do not even need to access
//! the stored data at all … This allows us to transform an IO-bound
//! problem (scanning a large table on disk) into a CPU-bound problem
//! (recalculating all the values from the model)."
//!
//! The measurements table is stored in the durable store the server and
//! the cluster replicas serve from, on the simulated block device; the
//! exact path reads its pages back (counted exactly by the device), the
//! model path touches zero pages. We report page counts, measured CPU
//! time, and end-to-end time under three device profiles.

use crate::Scale;
use lawsdb_core::{DurableDb, LawsDb};
use lawsdb_data::lofar::{LofarConfig, LofarDataset};
use lawsdb_fit::FitOptions;
use lawsdb_query::{execute_with, ExecOptions};
use lawsdb_storage::io::DeviceProfile;
use lawsdb_storage::{SimulatedDevice, Table};

/// Device page size (8 KiB).
const PAGE_BYTES: usize = 8192;

/// One device profile's end-to-end comparison.
#[derive(Debug, Clone)]
pub struct DevicePoint {
    /// Profile label.
    pub device: &'static str,
    /// Exact path: simulated IO µs + measured CPU µs.
    pub exact_us: f64,
    /// Model path: measured CPU µs (zero IO by construction).
    pub approx_us: f64,
    /// Speedup.
    pub speedup: f64,
}

/// Experiment report.
#[derive(Debug, Clone)]
pub struct E5Report {
    /// Pages the exact scan read.
    pub pages_read_exact: u64,
    /// Pages the model answer read (must be 0).
    pub pages_read_approx: u64,
    /// Measured CPU time of the exact scan (decode + filter), µs.
    pub exact_cpu_us: f64,
    /// Measured CPU time of the model reconstruction, µs.
    pub approx_cpu_us: f64,
    /// Relative error of the approximate aggregate vs exact.
    pub relative_error: f64,
    /// Per-device end-to-end comparison.
    pub devices: Vec<DevicePoint>,
}

fn dataset(scale: Scale) -> LofarDataset {
    let cfg = LofarConfig {
        noise_rel: 0.05,
        anomaly_fraction: 0.0,
        ..LofarConfig::with_sources(scale.lofar_sources())
    };
    LofarDataset::generate(&cfg)
}

/// Store `table` in a freshly recovered durable store. It keeps no page
/// cache, so every read is a device read.
fn durable(table: &Table) -> DurableDb<SimulatedDevice> {
    let mut store = DurableDb::new(SimulatedDevice::new(PAGE_BYTES));
    store.recover().expect("format");
    store.store_table(table).expect("store");
    store
}

/// Run the zero-IO experiment: `SELECT AVG(intensity) … WHERE nu = 0.15`.
pub fn run(scale: Scale) -> E5Report {
    let data = dataset(scale);
    let store = durable(&data.table);

    // Model capture (in-memory engine for the approximate path).
    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(data.table.clone()).expect("fresh catalog");
    db.capture_model(
        "measurements",
        "intensity ~ p * nu ^ alpha",
        Some("source"),
        &FitOptions::default().with_initial("alpha", -0.7),
    )
    .expect("capture fits");

    let sql = "SELECT AVG(intensity) AS v FROM measurements WHERE nu = 0.15";

    // Exact path: read the table's pages back from the store, then execute.
    store.device().reset_stats();
    let (exact_value, exact_cpu_us) = crate::time_us(|| {
        let table = store.read_table("measurements").expect("durable read");
        let catalog = lawsdb_storage::Catalog::new();
        catalog.register(table).expect("fresh");
        let r = execute_with(&catalog, sql, &ExecOptions::default()).expect("exact query");
        r.table.column("v").expect("col").f64_data().expect("f64")[0]
    });
    let io = store.stats();

    // Approximate path, between two reads of the same device counters.
    let (answer, approx_cpu_us) = crate::time_us(|| db.query_approx(sql).expect("model answers"));
    let approx_pages = store.stats().pages_read - io.pages_read;
    let approx_value = answer.table.column("v").expect("col").f64_data().expect("f64")[0];

    let relative_error = ((approx_value - exact_value) / exact_value).abs();

    let devices = [
        ("spinning-disk", DeviceProfile::spinning_disk()),
        ("sata-ssd", DeviceProfile::sata_ssd()),
        ("nvme-ssd", DeviceProfile::nvme_ssd()),
    ]
    .into_iter()
    .map(|(name, profile)| {
        let io_us = profile.cost_us(io.pages_read, io.bytes_read);
        let exact_us = io_us + exact_cpu_us;
        DevicePoint {
            device: name,
            exact_us,
            approx_us: approx_cpu_us,
            speedup: exact_us / approx_cpu_us,
        }
    })
    .collect();

    E5Report {
        pages_read_exact: io.pages_read,
        pages_read_approx: approx_pages,
        exact_cpu_us,
        approx_cpu_us,
        relative_error,
        devices,
    }
}

/// Print the comparison.
pub fn print(r: &E5Report) {
    println!("=== E5: zero-IO scans (AVG over one band) ===");
    println!(
        "exact scan: {} pages read, {} CPU; model answer: {} pages, {} CPU",
        r.pages_read_exact,
        crate::fmt_us(r.exact_cpu_us),
        r.pages_read_approx,
        crate::fmt_us(r.approx_cpu_us)
    );
    println!("approximate relative error: {:.4}%", r.relative_error * 100.0);
    println!();
    println!("device          exact (IO+CPU)   model (CPU)   speedup");
    for d in &r.devices {
        println!(
            "{:<14}  {:>14}  {:>12}  {:>7.1}x",
            d.device,
            crate::fmt_us(d.exact_us),
            crate::fmt_us(d.approx_us),
            d.speedup
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_path_is_zero_io_and_accurate() {
        let r = run(Scale::Small);
        // The exact scan reads every page of every column extent once.
        let data = dataset(Scale::Small);
        let store = durable(&data.table);
        let extent_pages: u64 = (0..data.table.schema().len())
            .flat_map(|i| store.column_pages("measurements", i).unwrap())
            .map(|(_, len)| len.div_ceil(PAGE_BYTES as u64))
            .sum();
        assert!(extent_pages > 0);
        assert_eq!(r.pages_read_exact, extent_pages);
        assert_eq!(r.pages_read_approx, 0);
        assert!(r.relative_error < 0.05, "err {}", r.relative_error);
        // The slower the device, the bigger the win.
        assert!(r.devices[0].speedup >= r.devices[1].speedup);
        assert!(r.devices[1].speedup >= r.devices[2].speedup);
        // On spinning disk the model path must win clearly.
        assert!(r.devices[0].speedup > 1.0, "speedup {}", r.devices[0].speedup);
    }
}
