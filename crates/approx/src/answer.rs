//! What a model-backed answer carries: the rows, the work it took, and
//! how far the rows may lie from the exact answer.
//!
//! The model path itself is a plan leaf, `ModelScan`, in `lawsdb-query`:
//! the query's one plan enumerates the model's parameter space where a
//! `Scan` would read base rows, and the ordinary executor runs the rest.

use lawsdb_models::model::ModelId;
use lawsdb_storage::Table;

/// How an approximate answer was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// All dimensions pinned by equality: a single model evaluation.
    PointLookup,
    /// Parameter-space enumeration over captured domains.
    Enumeration,
    /// Closed-form linear-model aggregate; nothing materialized.
    AnalyticAggregate,
}

/// An approximate query answer.
#[derive(Debug, Clone)]
pub struct ApproxAnswer {
    /// Result rows.
    pub table: Table,
    /// Base-table rows touched — zero by construction on every model
    /// path (the paper's zero-IO property).
    pub rows_scanned: usize,
    /// Virtual tuples reconstructed from the model (the CPU cost the
    /// paper trades the IO for).
    pub tuples_reconstructed: usize,
    /// ±bound on reconstructed response values (2·max residual SE over
    /// the involved groups), when derivable.
    pub error_bound: Option<f64>,
    /// Which strategy answered the query.
    pub strategy: Strategy,
    /// The model that answered it.
    pub model: ModelId,
}
