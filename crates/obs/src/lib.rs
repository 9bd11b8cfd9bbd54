//! LawsDB observability substrate: structured tracing, a metrics
//! registry, and per-query execution profiles.
//!
//! Dependency-free by design — this crate sits below `lawsdb-storage`
//! in the build graph so every layer (durable store, WAL, retry, morsel
//! executor, governor, pruning, fit diagnostics, resilience ladder)
//! reports through the same pipe. Three pillars:
//!
//! - [`trace`]: span/event API over a ring-buffer sink with monotonic
//!   timestamps from a mockable [`Clock`]. Zero cost when no subscriber
//!   is installed: one relaxed atomic load per emit site.
//! - [`metrics`]: named counters/gauges/histograms with sharded atomics
//!   and Prometheus-text + JSON exposition.
//! - [`profile`]: `EXPLAIN ANALYZE`-style [`QueryProfile`] trees
//!   assembled from executor spans, morsel leaves, pruning decisions,
//!   governor charges, and bridged storage events.
//!
//! See DESIGN.md §12 for the span taxonomy and metric naming scheme
//! (`lawsdb_<crate>_<name>`).

#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod clock;
pub mod metrics;
pub mod profile;
pub mod record;
pub mod trace;

pub use clock::{Clock, MockClock, MonotonicClock};
pub use metrics::{
    global as global_metrics, Counter, Gauge, Histogram, HistogramSnapshot,
    MetricsRegistry, RegistrySnapshot,
};
pub use profile::{ProfileCollector, ProfileContext, ProfileSpan, ProfileTreeNode, QueryProfile};
pub use record::{
    attribute_layers, dominant_layer, FlightRecord, FlightRecorder, RecorderConfig,
    TraceNode, LAYERS,
};
pub use trace::{tracer, Event, FieldValue, RingBufferSink, SpanGuard, Tracer};
