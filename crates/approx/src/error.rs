//! Errors for approximate query answering.

use std::fmt;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ApproxError>;

/// Errors produced by the approximate engines.
#[derive(Debug, Clone, PartialEq)]
pub enum ApproxError {
    /// The query cannot be answered from models (no coverage, unbound
    /// non-enumerable dimension, unsupported construct). Carries the
    /// reason so the session layer can fall back to exact execution and
    /// explain why.
    NotAnswerable {
        /// Why the model path refused.
        reason: String,
    },
    /// The enumerated parameter space would exceed the configured cap.
    EnumerationTooLarge {
        /// Tuples the enumeration would produce.
        tuples: usize,
        /// Configured cap.
        cap: usize,
    },
    /// Underlying model failure.
    Model(lawsdb_models::ModelError),
    /// Underlying storage failure.
    Storage(lawsdb_storage::StorageError),
    /// Bad construction parameters (histograms, samples).
    BadInput {
        /// Explanation.
        detail: String,
    },
}

impl fmt::Display for ApproxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApproxError::NotAnswerable { reason } => {
                write!(f, "not answerable from models: {reason}")
            }
            ApproxError::EnumerationTooLarge { tuples, cap } => {
                write!(f, "parameter space of {tuples} tuples exceeds cap {cap}")
            }
            ApproxError::Model(e) => write!(f, "model error: {e}"),
            ApproxError::Storage(e) => write!(f, "storage error: {e}"),
            ApproxError::BadInput { detail } => write!(f, "bad input: {detail}"),
        }
    }
}

impl std::error::Error for ApproxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApproxError::Model(e) => Some(e),
            ApproxError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lawsdb_models::ModelError> for ApproxError {
    fn from(e: lawsdb_models::ModelError) -> Self {
        ApproxError::Model(e)
    }
}
impl From<lawsdb_storage::StorageError> for ApproxError {
    fn from(e: lawsdb_storage::StorageError) -> Self {
        ApproxError::Storage(e)
    }
}
