//! Errors for model capture and catalog operations.

use std::fmt;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ModelError>;

/// Errors produced by the model layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// No captured model covers the requested table/column.
    NoModelFor {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// A model id was not found in the catalog.
    UnknownModel {
        /// The id.
        id: u64,
    },
    /// The model has no parameters for the requested group.
    UnknownGroup {
        /// Group key.
        key: i64,
    },
    /// A prediction was requested without values for required inputs.
    MissingInput {
        /// The missing variable.
        variable: String,
    },
    /// The model is stale (data changed since the fit) and the caller
    /// required freshness.
    Stale {
        /// Model id.
        id: u64,
    },
    /// Underlying fit failure.
    Fit(lawsdb_fit::FitError),
    /// Underlying expression failure.
    Expr(lawsdb_expr::ExprError),
    /// Underlying storage failure.
    Storage(lawsdb_storage::StorageError),
    /// A stored model-catalog table disagrees with itself or with the
    /// other catalog tables.
    BadCatalog {
        /// The table at fault.
        table: String,
        /// Explanation.
        detail: String,
    },
    /// A captured model, piecewise function or grid that cannot be
    /// built from the given parts.
    BadConstruction {
        /// Explanation.
        detail: String,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NoModelFor { table, column } => {
                write!(f, "no captured model covers {table}.{column}")
            }
            ModelError::UnknownModel { id } => write!(f, "no model with id {id}"),
            ModelError::UnknownGroup { key } => {
                write!(f, "model has no parameters for group {key}")
            }
            ModelError::MissingInput { variable } => {
                write!(f, "prediction requires a value for {variable:?}")
            }
            ModelError::Stale { id } => write!(f, "model {id} is stale"),
            ModelError::Fit(e) => write!(f, "fit error: {e}"),
            ModelError::Expr(e) => write!(f, "expression error: {e}"),
            ModelError::Storage(e) => write!(f, "storage error: {e}"),
            ModelError::BadCatalog { table, detail } => {
                write!(f, "model catalog table {table:?}: {detail}")
            }
            ModelError::BadConstruction { detail } => write!(f, "bad construction: {detail}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Fit(e) => Some(e),
            ModelError::Expr(e) => Some(e),
            ModelError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lawsdb_fit::FitError> for ModelError {
    fn from(e: lawsdb_fit::FitError) -> Self {
        ModelError::Fit(e)
    }
}
impl From<lawsdb_expr::ExprError> for ModelError {
    fn from(e: lawsdb_expr::ExprError) -> Self {
        ModelError::Expr(e)
    }
}
impl From<lawsdb_storage::StorageError> for ModelError {
    fn from(e: lawsdb_storage::StorageError) -> Self {
        ModelError::Storage(e)
    }
}
