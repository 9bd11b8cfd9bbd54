//! Unified error type for the assembled system.

use std::fmt;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors surfaced by the LawsDB engine.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Storage-layer failure.
    Storage(lawsdb_storage::StorageError),
    /// Query-layer failure.
    Query(lawsdb_query::QueryError),
    /// Fit-layer failure.
    Fit(lawsdb_fit::FitError),
    /// Model-layer failure.
    Model(lawsdb_models::ModelError),
    /// Approximate-engine failure.
    Approx(lawsdb_approx::ApproxError),
    /// The captured model failed the quality gate and was retired
    /// immediately; carries the judged R² so the user sees why.
    QualityRejected {
        /// Pooled R² of the rejected fit.
        r2: f64,
        /// The gate that failed.
        min_r2: f64,
    },
    /// A compressed column's metadata went missing or is inconsistent.
    CompressionState {
        /// Explanation.
        detail: String,
    },
    /// A user table named in the model catalog's reserved `lawsdb_model`
    /// namespace.
    ReservedTableName {
        /// The refused name.
        name: String,
    },
    /// A partial model's coverage predicate names a column the model's
    /// relation does not hold: neither its group column nor one of its
    /// variables.
    CoverageColumn {
        /// The column named.
        column: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "{e}"),
            CoreError::Query(e) => write!(f, "{e}"),
            CoreError::Fit(e) => write!(f, "{e}"),
            CoreError::Model(e) => write!(f, "{e}"),
            CoreError::Approx(e) => write!(f, "{e}"),
            CoreError::QualityRejected { r2, min_r2 } => {
                write!(f, "model rejected by quality gate: R² {r2:.4} < required {min_r2:.4}")
            }
            CoreError::CompressionState { detail } => {
                write!(f, "compression state error: {detail}")
            }
            CoreError::ReservedTableName { name } => {
                write!(f, "table name {name:?} is reserved for the model catalog")
            }
            CoreError::CoverageColumn { column } => write!(
                f,
                "coverage predicate names column {column:?}, which is neither the model's \
                 group column nor one of its variables"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            CoreError::Query(e) => Some(e),
            CoreError::Fit(e) => Some(e),
            CoreError::Model(e) => Some(e),
            CoreError::Approx(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lawsdb_storage::StorageError> for CoreError {
    fn from(e: lawsdb_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}
impl From<lawsdb_query::QueryError> for CoreError {
    fn from(e: lawsdb_query::QueryError) -> Self {
        CoreError::Query(e)
    }
}
impl From<lawsdb_fit::FitError> for CoreError {
    fn from(e: lawsdb_fit::FitError) -> Self {
        CoreError::Fit(e)
    }
}
impl From<lawsdb_models::ModelError> for CoreError {
    fn from(e: lawsdb_models::ModelError) -> Self {
        CoreError::Model(e)
    }
}
impl From<lawsdb_approx::ApproxError> for CoreError {
    fn from(e: lawsdb_approx::ApproxError) -> Self {
        CoreError::Approx(e)
    }
}
