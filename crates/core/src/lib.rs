//! # lawsdb-core
//!
//! The end-to-end LawsDB system: the paper's vision assembled from the
//! substrate crates.
//!
//! * [`engine::LawsDb`] — tables + model catalog + query engines in one
//!   handle: exact SQL, approximate SQL from captured models, model
//!   capture with quality judgment, data-change invalidation and
//!   re-fitting.
//! * [`session`] — the **interception protocol of Figure 2**: a
//!   [`session::Session`] hands out strawman [`session::RemoteFrame`]
//!   handles; `fit()` calls against a frame execute *inside* the engine
//!   (step 2), return the goodness of fit (step 3), and leave the model
//!   behind in the catalog; later queries are answered from the model
//!   with error bounds (steps 4–5). A configurable
//!   [`session::TransferModel`] prices what shipping the data to the
//!   client would have cost, reproducing the paper's motivation for
//!   in-database fitting.
//! * [`storage_mgr`] — model-based physical storage (Section 4.1):
//!   semantic compression of response columns against captured models
//!   (lossless XOR or bounded-error quantized), recompression after a
//!   re-fit, and byte accounting for the compression experiments; plus
//!   [`storage_mgr::DurableDb`], the crash-safe home for tables and the
//!   model catalog (WAL-backed atomic commits, `recover()` on restart).

pub mod engine;
pub mod error;
pub mod resilience;
pub mod session;
pub mod storage_mgr;

pub use engine::{Answer, AnswerMode, LawsDb, QualityPolicy};
pub use error::{CoreError, Result};
pub use resilience::{DegradeReason, HealthCounters, HealthSnapshot, ResilientAnswer};
pub use session::{FitOptions, FitReport, RemoteFrame, Session, TransferModel};
pub use storage_mgr::{CompressedColumn, CompressionMode, DurableDb};
