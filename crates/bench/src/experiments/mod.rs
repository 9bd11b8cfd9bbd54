//! One module per paper exhibit; each exposes `run(scale) -> …Report` (a
//! plain struct of the measured numbers) and `print(&report)` rendering
//! the paper-style table. The `report` binary calls `run`. Performance
//! is measured by the end-to-end `benchmark/` package, not here.

pub mod e10_model_change;
pub mod e11_model_classes;
pub mod e4_compression;
pub mod e5_zero_io;
pub mod e6_accuracy;
pub mod e7_analytic;
pub mod e8_anomaly;
pub mod e9_enumeration;
pub mod figure1;
pub mod figure2;
pub mod table1;
