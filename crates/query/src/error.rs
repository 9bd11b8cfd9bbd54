//! Errors for SQL parsing, planning and execution.

use lawsdb_storage::StorageError;
use std::fmt;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, QueryError>;

/// Errors produced by the query layer.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Lexical error in the SQL text.
    Lex {
        /// Details.
        detail: String,
        /// Byte offset.
        pos: usize,
    },
    /// Syntax error.
    Parse {
        /// What was expected.
        expected: String,
        /// What was found.
        found: String,
        /// Byte offset of the offending token in the source text
        /// (`None` for end-of-input).
        pos: Option<usize>,
    },
    /// A referenced column does not exist in the input schema.
    UnknownColumn {
        /// The missing name.
        name: String,
    },
    /// Aggregates mixed with non-grouped columns, or similar shape
    /// violations.
    InvalidAggregate {
        /// Explanation.
        reason: String,
    },
    /// A type error during evaluation (e.g. arithmetic on strings).
    Type {
        /// Explanation.
        reason: String,
    },
    /// Unsupported SQL construct (kept explicit so callers can tell
    /// "bad query" from "valid SQL we don't do").
    Unsupported {
        /// The construct.
        what: String,
    },
    /// The query ran past its wall-clock budget and was stopped at a
    /// morsel boundary.
    Timeout {
        /// Time actually elapsed when the governor tripped.
        elapsed_ms: u64,
        /// The declared budget.
        budget_ms: u64,
    },
    /// The query materialized more bytes than its memory budget allows.
    MemoryExceeded {
        /// Bytes charged when the governor tripped.
        used: usize,
        /// The declared budget.
        budget: usize,
    },
    /// The query's [`CancelToken`](crate::governor::CancelToken) was
    /// triggered; execution stopped at the next morsel boundary.
    Cancelled,
    /// Table scans admitted more rows than the declared `max_rows`.
    RowLimitExceeded {
        /// Rows admitted when the governor tripped.
        scanned: usize,
        /// The declared budget.
        budget: usize,
    },
    /// A kernel panicked inside a morsel worker. The panic was caught
    /// at the morsel boundary: this query fails with the payload below
    /// while sibling queries and shared state stay healthy.
    WorkerPanic {
        /// The panic payload, stringified.
        detail: String,
        /// Row offset of the morsel that panicked.
        offset: usize,
    },
    /// Underlying storage failure.
    Storage(StorageError),
    /// A model leaf failed to evaluate its captured model.
    Model(lawsdb_models::ModelError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Lex { detail, pos } => write!(f, "lex error at byte {pos}: {detail}"),
            QueryError::Parse { expected, found, pos: Some(pos) } => {
                write!(f, "parse error at byte {pos}: expected {expected}, found {found}")
            }
            QueryError::Parse { expected, found, pos: None } => {
                write!(f, "parse error: expected {expected}, found {found}")
            }
            QueryError::UnknownColumn { name } => write!(f, "unknown column {name:?}"),
            QueryError::InvalidAggregate { reason } => write!(f, "invalid aggregate: {reason}"),
            QueryError::Type { reason } => write!(f, "type error: {reason}"),
            QueryError::Unsupported { what } => write!(f, "unsupported SQL: {what}"),
            QueryError::Timeout { elapsed_ms, budget_ms } => {
                write!(f, "query timed out after {elapsed_ms} ms (budget {budget_ms} ms)")
            }
            QueryError::MemoryExceeded { used, budget } => {
                write!(f, "memory budget exceeded: {used} bytes materialized (budget {budget})")
            }
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::RowLimitExceeded { scanned, budget } => {
                write!(f, "row budget exceeded: {scanned} rows scanned (budget {budget})")
            }
            QueryError::WorkerPanic { detail, offset } => {
                write!(f, "worker panicked in morsel at row {offset}: {detail}")
            }
            QueryError::Storage(e) => write!(f, "storage error: {e}"),
            QueryError::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Storage(e) => Some(e),
            QueryError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Storage(e)
    }
}
