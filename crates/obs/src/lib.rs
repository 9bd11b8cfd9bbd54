//! LawsDB observability substrate: structured tracing, a metrics
//! registry, and per-query execution profiles.
//!
//! Dependency-free by design — this crate sits below `lawsdb-storage`
//! in the build graph so every layer (durable store, WAL, retry, morsel
//! executor, governor, pruning, fit diagnostics, resilience ladder)
//! reports through the same pipe. Four parts:
//!
//! - [`trace`]: `event!` points over a ring-buffer sink with monotonic
//!   timestamps from a mockable [`Clock`]. Zero cost when no subscriber
//!   is installed: one relaxed atomic load per emit site.
//! - [`metrics`]: named counters/gauges/histograms with sharded atomics
//!   and Prometheus-text + JSON exposition.
//! - [`profile`]: one query's spans and points, recorded through a
//!   [`ProfileContext`] and assembled by [`ProfileCollector::build`]
//!   into one [`TraceNode`] tree — executor spans, morsel leaves,
//!   pruning decisions, governor charges, bridged storage events, and
//!   on a server the decode/queue/encode spans. `EXPLAIN ANALYZE`
//!   renders it, a traced wire reply carries it, and the flight
//!   recorder keeps it: there is no second tree type.
//! - [`record`]: per-layer attribution of a [`TraceNode`]
//!   ([`attribute_layers`]) and the slow-query [`FlightRecorder`].
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
pub use profile::{ProfileCollector, ProfileContext, ProfileSpan, TraceNode};
pub use record::{
    attribute_layers, dominant_layer, FlightRecord, FlightRecorder, RecorderConfig, LAYERS,
};
pub use trace::{tracer, Event, FieldValue, RingBufferSink, Tracer};
