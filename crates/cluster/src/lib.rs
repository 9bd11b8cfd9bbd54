//! # lawsdb-cluster
//!
//! In-process sharded scatter-gather execution with health-checked
//! replica failover — the paper's models-as-data vision taken to
//! cluster shape. A table partitions into hash or range shards on the
//! group key; every shard is replicated N ways, each replica behind its
//! own crash-safe [`DurableDb`](lawsdb_core::DurableDb) on a seeded
//! [`FaultyDevice`](lawsdb_storage::FaultyDevice). The
//! [`Cluster`] coordinator scatters partial
//! aggregation to the shards and merges the partials; aggregates keep
//! exact sums, so answers are **bit-identical** to the unsharded engine
//! at any shard count, partitioning, replica choice, morsel size or
//! thread count (see `lawsdb_query::partial`).
//!
//! Robustness is the headline: a deterministic, counter-based
//! [`HealthTracker`] drives automatic replica
//! failover; when *every* replica of a shard is down, the coordinator
//! degrades to the shard's captured model (within a configured residual
//! bound, surfaced as
//! [`DegradeReason::ShardModelFallback`](lawsdb_core::DegradeReason))
//! or returns a structured partial-result error — never a panic or a
//! hang. The cluster-level crash matrix in `tests/crash_matrix.rs`
//! exercises every (fault mode × shard × query phase) cell from
//! `LAWSDB_FAULT_SEED`.

pub mod coordinator;
pub mod health;
pub mod partition;
pub mod replica;

pub use coordinator::{Cluster, ClusterAnswer, ClusterConfig, Phase};
pub use health::{HealthTracker, ReplicaState};
pub use partition::{PartitionScheme, RowAssignment};

use lawsdb_query::QueryError;
use lawsdb_storage::StorageError;

/// Structured cluster-level failure. Queries against a degraded cluster
/// end here or in a degraded [`ClusterAnswer`] — never in a panic.
#[derive(Debug)]
pub enum ClusterError {
    /// The query shape is outside the cluster's dialect (joins, or a
    /// second table).
    Unsupported {
        /// What was asked for.
        detail: String,
    },
    /// Every replica of a shard failed and no model fallback was
    /// possible: the structured partial-result error.
    PartialResult {
        /// The shard whose data is missing from the answer.
        shard: usize,
        /// Why the last-resort path could not answer.
        detail: String,
    },
    /// Query-layer failure (parse, plan, or execution).
    Query(QueryError),
    /// Storage-layer failure outside any replica's fault envelope
    /// (partitioning, reassembly).
    Storage(StorageError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Unsupported { detail } => {
                write!(f, "unsupported cluster query: {detail}")
            }
            ClusterError::PartialResult { shard, detail } => write!(
                f,
                "partial result: shard {shard} unavailable and not answerable from a model ({detail})"
            ),
            ClusterError::Query(e) => write!(f, "query error: {e}"),
            ClusterError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<QueryError> for ClusterError {
    fn from(e: QueryError) -> Self {
        ClusterError::Query(e)
    }
}

impl From<StorageError> for ClusterError {
    fn from(e: StorageError) -> Self {
        ClusterError::Storage(e)
    }
}

/// Crate-local result.
pub type Result<T> = std::result::Result<T, ClusterError>;
