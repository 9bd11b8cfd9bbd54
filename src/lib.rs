//! # LawsDB — Capturing the Laws of (Data) Nature
//!
//! Facade crate for the LawsDB workspace, a production-quality Rust
//! reproduction of the CIDR 2015 vision paper *"Capturing the Laws of
//! (Data) Nature"* (Mühleisen, Kersten, Manegold — CWI).
//!
//! LawsDB is a columnar relational engine that **intercepts statistical
//! model fitting** performed against stored data, judges the quality of
//! the fitted models, stores models and parameters in a catalog, and then
//! exploits them for:
//!
//! * **approximate query answering** — answering SQL point, range and
//!   aggregate queries from captured models, with error bounds, without
//!   touching the base data ("zero-IO scans");
//! * **semantic compression** — storing model parameters plus residuals
//!   instead of raw columns, reconstructing losslessly on demand;
//! * **anomaly detection** — surfacing the observations that defy the
//!   captured laws.
//!
//! ## Quickstart
//!
//! ```
//! use lawsdb::prelude::*;
//!
//! // Build an engine, load a tiny power-law data set, capture a model.
//! let mut db = LawsDb::new();
//! let mut tb = TableBuilder::new("measurements");
//! tb.add_i64("source", (0..100).map(|i| i / 10).collect());
//! tb.add_f64("nu", (0..100).map(|i| 0.1 + 0.01 * (i % 10) as f64).collect());
//! tb.add_f64(
//!     "intensity",
//!     (0..100)
//!         .map(|i| {
//!             let nu: f64 = 0.1 + 0.01 * (i % 10) as f64;
//!             2.0 * nu.powf(-0.7)
//!         })
//!         .collect(),
//! );
//! db.register_table(tb.build().unwrap()).unwrap();
//!
//! // An analyst fits a model through the strawman session — LawsDB
//! // intercepts it (Figure 2 of the paper).
//! let mut session = db.session();
//! let frame = session.frame("measurements").unwrap();
//! let report = session
//!     .fit(&frame, "intensity ~ p * nu ^ alpha", FitOptions::grouped_by("source"))
//!     .unwrap();
//! assert!(report.overall_r2 > 0.99);
//!
//! // Later queries can be answered approximately from the model alone.
//! let answer = session
//!     .query_approx("SELECT intensity FROM measurements WHERE source = 4 AND nu = 0.14")
//!     .unwrap();
//! assert!(answer.rows_scanned == 0); // zero-IO
//! ```
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md`
//! for the paper-vs-measured record of every reproduced exhibit.

pub use lawsdb_approx as approx;
pub use lawsdb_cluster as cluster;
pub use lawsdb_core as core;
pub use lawsdb_data as data;
pub use lawsdb_expr as expr;
pub use lawsdb_fit as fit;
pub use lawsdb_linalg as linalg;
pub use lawsdb_models as models;
pub use lawsdb_obs as obs;
pub use lawsdb_query as query;
pub use lawsdb_server as server;
pub use lawsdb_storage as storage;

/// One-stop imports for applications.
pub mod prelude {
    pub use lawsdb_core::engine::LawsDb;
    pub use lawsdb_core::session::{FitOptions, Session};
    pub use lawsdb_data::lofar::{LofarConfig, LofarDataset};
    pub use lawsdb_expr::Expr;
    pub use lawsdb_fit::diagnostics::FitDiagnostics;
    pub use lawsdb_models::catalog::ModelCatalog;
    pub use lawsdb_models::CapturedModel;
    pub use lawsdb_obs::TraceNode;
    pub use lawsdb_query::QueryResult;
    pub use lawsdb_server::{Client, Server, ServerConfig};
    pub use lawsdb_storage::table::{Table, TableBuilder};
    pub use lawsdb_storage::value::Value;
}
