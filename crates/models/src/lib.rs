//! # lawsdb-models
//!
//! Captured models and the model catalog — the paper's central artifact.
//!
//! After the interception layer (in `lawsdb-core`) fits a user model
//! inside the database, the result is a [`CapturedModel`]: the formula
//! *in its source form* ("we can store the models in their source code
//! form inside the database"), the fitted parameters — a columnar
//! parameter table like the paper's Table 1, one row per group (one row
//! for a global model), stored exactly so by [`persist`] — the
//! goodness-of-fit record, and the model's *coverage* (which table,
//! which rows, which value domains).
//!
//! The [`catalog::ModelCatalog`] stores every captured model with
//! versioning, answers "which model can reconstruct column C of table
//! T?", performs **model selection** among overlapping candidates
//! (Section 4.1's "multiple models" challenge — we pick by adjusted R²
//! then AIC), and handles **data-change invalidation** (Section 4.1's
//! "data or model changes": appended rows mark dependent models stale;
//! re-fitting either revalidates or retires them, and retired models are
//! kept — "a model with a previously poor fit [may become] relevant
//! again").
//!
//! [`legal`] holds the legal-combination Bloom filter a captured model
//! carries, so parameter-space enumeration does not invent tuples that
//! never existed.
//!
//! Two related-work baselines live here because they are alternative
//! *model classes*, not query strategies:
//!
//! * [`piecewise`] — FunctionDB-style piecewise polynomial functions;
//! * [`grid`] — MauveDB-style gridded model-based views.

pub mod bridge;
pub mod catalog;
pub mod error;
pub mod grid;
pub mod legal;
pub mod model;
pub mod persist;
pub mod piecewise;

pub use catalog::ModelCatalog;
pub use error::{ModelError, Result};
pub use model::{CapturedModel, Coverage, ModelId, ModelParams, ModelState, Residuals};
