//! Error type for the storage engine.

use std::fmt;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Errors produced by the columnar store, the durable store and codecs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A column was addressed by a name the schema does not contain.
    ColumnNotFound {
        /// The missing column name.
        name: String,
    },
    /// A table was addressed by a name the catalog does not contain.
    TableNotFound {
        /// The missing table name.
        name: String,
    },
    /// A table with this name already exists.
    TableExists {
        /// The duplicate name.
        name: String,
    },
    /// Column lengths within one table differ.
    ColumnLengthMismatch {
        /// Expected row count.
        expected: usize,
        /// Conflicting column name.
        column: String,
        /// Its row count.
        got: usize,
    },
    /// The value's type does not match the column's type.
    TypeMismatch {
        /// What the caller tried to do.
        op: &'static str,
        /// Expected data type name.
        expected: &'static str,
        /// Supplied data type name.
        got: &'static str,
    },
    /// Row index out of range.
    RowOutOfRange {
        /// The requested row.
        row: usize,
        /// Number of rows present.
        len: usize,
    },
    /// A page id was requested that the store has never written.
    PageNotFound {
        /// The missing page id.
        page: u64,
    },
    /// A codec met bytes it cannot decode, or (`codec: "blob"`) a
    /// durable-store extent failed its CRC: its bytes must not be
    /// trusted, and the caller should fall back to model-based
    /// reconstruction or degrade the result.
    CorruptData {
        /// Which codec failed.
        codec: &'static str,
        /// Details.
        detail: String,
    },
    /// Codec input violated a precondition (e.g. residual codec given
    /// mismatched prediction length).
    CodecInput {
        /// Which codec rejected its input.
        codec: &'static str,
        /// Details.
        detail: String,
    },
    /// A duplicate column name within one table.
    DuplicateColumn {
        /// The duplicate name.
        name: String,
    },
    /// An empty schema or other structurally invalid table definition.
    InvalidTable {
        /// Explanation.
        reason: &'static str,
    },
    /// A device-level IO failure: an oversized write, an injected
    /// fault, or any operation attempted after a simulated crash.
    Io {
        /// The operation that failed (`"read"`, `"write"`, …).
        op: &'static str,
        /// The page involved.
        page: u64,
        /// Details.
        detail: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::ColumnNotFound { name } => write!(f, "column {name:?} not found"),
            StorageError::TableNotFound { name } => write!(f, "table {name:?} not found"),
            StorageError::TableExists { name } => write!(f, "table {name:?} already exists"),
            StorageError::ColumnLengthMismatch { expected, column, got } => write!(
                f,
                "column {column:?} has {got} rows, table expects {expected}"
            ),
            StorageError::TypeMismatch { op, expected, got } => {
                write!(f, "{op}: expected {expected}, got {got}")
            }
            StorageError::RowOutOfRange { row, len } => {
                write!(f, "row {row} out of range (table has {len} rows)")
            }
            StorageError::PageNotFound { page } => write!(f, "page {page} not found"),
            StorageError::CorruptData { codec, detail } => {
                write!(f, "corrupt {codec} data: {detail}")
            }
            StorageError::CodecInput { codec, detail } => {
                write!(f, "invalid input to {codec} codec: {detail}")
            }
            StorageError::DuplicateColumn { name } => {
                write!(f, "duplicate column name {name:?}")
            }
            StorageError::InvalidTable { reason } => write!(f, "invalid table: {reason}"),
            StorageError::Io { op, page, detail } => {
                write!(f, "io error during {op} of page {page}: {detail}")
            }
        }
    }
}

impl std::error::Error for StorageError {}
