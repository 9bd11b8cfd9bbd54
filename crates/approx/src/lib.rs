//! # lawsdb-approx
//!
//! Approximate query answering from captured models — Section 4.2 of
//! *"Capturing the Laws of (Data) Nature"* — plus the two classical
//! baselines the paper's introduction positions against (sampling and
//! synopses) and the residual-based anomaly detector.
//!
//! * [`answer`] — what a **model-backed answer** carries. The model
//!   path itself is a plan leaf: `lawsdb-query`'s `ModelScan` stands
//!   where a base-table scan would, so the paper's own example queries
//!   (`SELECT intensity FROM measurements WHERE source = 42 AND
//!   wavelength = 0.14`, and the predicate variant answered by
//!   **parameter-space enumeration**) take the engine's one parse, plan
//!   cache and executor. Zero base-table rows are touched; every answer
//!   carries a ±2·SE error bound.
//! * [`analytic`] — closed-form aggregates for **linear** models
//!   ("for the common class of linear models, we can even … calculate
//!   analytic solutions for aggregation queries"): min/max/sum/avg/count
//!   without materializing anything.
//! * [`sampling`] — BlinkDB-style uniform sampling with CLT error bars.
//! * [`histogram`] — equi-width / equi-depth histogram synopses with
//!   uniform-within-bucket reconstruction.
//! * [`anomaly`] — residual-based outlier ranking ("the observations
//!   that do not fit the model are of supreme interest") with
//!   precision/recall scoring against planted ground truth.
//! * [`explore`] — model exploration: rank the parameter space by the
//!   model's gradient magnitude ("find interesting subsets of the data
//!   by analyzing the first derivative of the model function").

// `!(x < y)` guards are NaN-aware in tolerance/interval validation.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod analytic;
pub mod anomaly;
pub mod answer;
pub mod error;
pub mod explore;
pub mod histogram;
pub mod sampling;

pub use answer::{ApproxAnswer, Strategy};
pub use error::{ApproxError, Result};
