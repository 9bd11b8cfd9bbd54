//! # lawsdb-storage
//!
//! Columnar storage engine for LawsDB.
//!
//! This crate is the physical-storage substrate the paper's Section 4.1
//! ("Physical Storage") operates on:
//!
//! * **Typed columns** ([`column::Column`]) with validity bitmaps, in a
//!   row-major-free, scan-friendly layout; tables ([`table::Table`]) and
//!   a concurrent [`catalog::Catalog`].
//! * A **paged layout** ([`page`]: one encoded byte stream per column,
//!   split across fixed-size pages by the durable store below) over a
//!   *simulated IO device* ([`io::SimulatedDevice`]) with configurable
//!   bandwidth and latency and exact page-read accounting. The device
//!   model is what lets the benchmark suite reproduce the paper's
//!   "zero-IO scan" claim quantitatively: an approximate, model-backed
//!   answer touches zero pages, while an exact scan pays
//!   `pages × (latency + size/bandwidth)`.
//! * **Compression codecs** ([`compress`]): zigzag + varint, XOR floats,
//!   an LZSS + Huffman general-purpose baseline (standing in for gzip in
//!   the SPARTAN-style comparison), and the **model-residual codec** —
//!   the paper's "true semantic compression": store residuals between
//!   observed and model-predicted values and recompute the original
//!   data losslessly.
//! * **One read cursor** ([`codec::Reader`]) behind every decoder of
//!   untrusted bytes — page, WAL and table directory, zonemap, the
//!   codecs above and the server's wire protocol — so every length
//!   claim is checked before anything is allocated, in one place.
//! * An **exactly-rounded sum** ([`exact::ExactSum`]) behind every
//!   exact SUM/AVG: the answer is a function of the multiset of inputs,
//!   whatever the order, partitioning or merge tree.
//! * A **durability layer** ([`wal::DurableStore`]), the one stored-table
//!   layout and the one durable format: write-ahead log + shadow paging +
//!   dual CRC-guarded superblocks, so every commit of one or many tables
//!   (the model catalog is stored as tables too) is atomic and
//!   `recover()` lands on exactly the pre- or post-commit state after a
//!   crash. A deterministic fault-injecting
//!   device ([`fault::FaultyDevice`]) crash-tests the protocol at every
//!   device operation.
//!
//! The crate knows nothing about models or queries; the residual codec
//! takes predictions as plain slices, keeping the dependency arrow
//! pointing the right way (models → storage, never back).

// `!(x > y)` guards route NaN into the error branch; codec kernels index
// several co-indexed buffers; `Column::from_str` is a constructor in a
// family (`from_i64`, `from_f64`, ...), not a `FromStr` impl.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::needless_range_loop)]
#![allow(clippy::should_implement_trait)]

pub mod bitmap;
pub mod buffer;
pub mod catalog;
pub mod checksum;
pub mod codec;
pub mod column;
pub mod compress;
pub mod error;
pub mod exact;
pub mod fault;
pub mod io;
pub mod page;
pub mod retry;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;
pub mod wal;
pub mod zonemap;

pub use buffer::Buffer;
pub use catalog::Catalog;
pub use checksum::crc32;
pub use column::Column;
pub use error::{Result, StorageError};
pub use exact::ExactSum;
pub use fault::{FaultMode, FaultSchedule, FaultyDevice};
pub use io::{BlockDevice, DeviceProfile, IoStats, SimulatedDevice};
pub use retry::{RetryPolicy, RetryStats, RetryingDevice};
pub use schema::{DataType, Field, Schema};
pub use table::{Table, TableBuilder};
pub use value::Value;
pub use wal::{DurableStore, RecoveryReport, StoredTable};
pub use zonemap::{ColumnZones, PredOp, TableSynopsis, ZoneEntry, DEFAULT_ZONE_ROWS};
