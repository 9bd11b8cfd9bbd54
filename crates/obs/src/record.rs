//! Slow-query flight recorder: per-layer tail attribution over a
//! query's [`TraceNode`] tree, and a bounded ring of the worst queries a
//! server has served.
//!
//! [`attribute_layers`] folds a trace into per-layer totals (queue,
//! decode, fetch, execute, gather, merge, encode) by summing the
//! top-most span mapped to each layer — children of an attributed span
//! are already inside its duration and are not double-counted. The
//! layer with the largest total is the *dominant* layer: the first
//! place an operator should look when a query lands in the slowlog.
//!
//! The [`FlightRecorder`] keeps complete [`FlightRecord`]s in a bounded
//! ring (`capacity × record size` memory bound); admission is by total
//! latency threshold, with errors always admitted when configured.
//! See DESIGN.md §17.

use crate::profile::TraceNode;
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// Canonical layer order for attribution output and dominant-layer
/// tie-breaks: the order a query moves through the stack.
pub const LAYERS: [&str; 7] =
    ["queue", "decode", "fetch", "execute", "gather", "merge", "encode"];

/// The attribution layer a span name belongs to, if any. `plan.*` spans
/// are engine-local execution (the single-node path); cluster spans map
/// to their scatter-gather phase.
fn layer_of(name: &str) -> Option<&'static str> {
    match name {
        "server.admission" => Some("queue"),
        "server.decode" => Some("decode"),
        "server.encode" => Some("encode"),
        "cluster.fetch" => Some("fetch"),
        "cluster.execute" => Some("execute"),
        "cluster.gather" => Some("gather"),
        "cluster.merge" => Some("merge"),
        n if n.starts_with("plan.") => Some("execute"),
        _ => None,
    }
}

/// Fold a trace into per-layer microsecond totals, in canonical
/// [`LAYERS`] order, omitting layers with no attributed span. An
/// attributed span's subtree is not descended — its children are
/// already inside its duration.
pub fn attribute_layers(trace: &TraceNode) -> Vec<(String, u64)> {
    fn walk(n: &TraceNode, totals: &mut [u64; LAYERS.len()], at_root: bool) {
        // The root's own name ("query") never attributes; only descend.
        if !at_root {
            if let Some(layer) = layer_of(&n.name) {
                if let Some(slot) = LAYERS.iter().position(|l| *l == layer) {
                    totals[slot] += n.duration_us.unwrap_or(0);
                    return;
                }
            }
        }
        for c in &n.children {
            walk(c, totals, false);
        }
    }
    let mut totals = [0u64; LAYERS.len()];
    walk(trace, &mut totals, true);
    LAYERS
        .iter()
        .zip(totals)
        .filter(|(_, us)| *us > 0)
        .map(|(l, us)| (l.to_string(), us))
        .collect()
}

/// The layer with the largest attributed total (ties break toward the
/// earlier canonical layer). `("none", 0)` for an unattributed trace.
pub fn dominant_layer(layers: &[(String, u64)]) -> (String, u64) {
    let mut best: Option<&(String, u64)> = None;
    for l in layers {
        // `layers` is in canonical order, so strict `>` keeps the
        // earliest layer on ties.
        if best.map(|b| l.1 > b.1).unwrap_or(true) {
            best = Some(l);
        }
    }
    best.cloned().unwrap_or_else(|| ("none".to_string(), 0))
}

/// One complete slow-query record: identity, outcome, the per-layer
/// attribution, and the full trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Server-minted query id (also stamped on the wire result).
    pub query_id: u64,
    /// The query text as received.
    pub sql: String,
    /// Execution mode label (`"exact"`, `"cluster"`, ...).
    pub mode: String,
    /// Whole-query duration (the trace root's span length).
    pub total_us: u64,
    /// Structured error text when the query failed.
    pub error: Option<String>,
    /// Per-layer attributed microseconds, canonical order.
    pub layers: Vec<(String, u64)>,
    /// The layer that dominated `total_us`.
    pub dominant_layer: String,
    /// Microseconds attributed to the dominant layer.
    pub dominant_us: u64,
    /// The complete trace tree.
    pub trace: Option<TraceNode>,
}

impl FlightRecord {
    /// Build a record from a finished trace, computing the total from
    /// the root span and the layer attribution from the tree.
    pub fn from_trace(
        query_id: u64,
        sql: impl Into<String>,
        mode: impl Into<String>,
        error: Option<String>,
        trace: TraceNode,
    ) -> FlightRecord {
        let total_us = trace.duration_us.unwrap_or(0);
        let layers = attribute_layers(&trace);
        let (dominant_layer, dominant_us) = dominant_layer(&layers);
        FlightRecord {
            query_id,
            sql: sql.into(),
            mode: mode.into(),
            total_us,
            error,
            layers,
            dominant_layer,
            dominant_us,
            trace: Some(trace),
        }
    }
}

/// Admission policy and memory bound for a [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Ring size; 0 disables recording entirely.
    pub capacity: usize,
    /// Minimum `total_us` for admission (0 records every query).
    pub min_total_us: u64,
    /// Admit failed queries regardless of latency.
    pub record_errors: bool,
}

impl Default for RecorderConfig {
    fn default() -> RecorderConfig {
        RecorderConfig { capacity: 64, min_total_us: 0, record_errors: true }
    }
}

/// A bounded ring of the most recent admitted [`FlightRecord`]s.
/// Memory is bounded by `capacity` complete traces; eviction is FIFO so
/// the ring always holds the *latest* slow queries, while
/// [`worst`](FlightRecorder::worst) ranks them by latency on read.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: RecorderConfig,
    ring: Mutex<VecDeque<FlightRecord>>,
}

impl FlightRecorder {
    /// A recorder with the given admission policy.
    pub fn new(cfg: RecorderConfig) -> FlightRecorder {
        FlightRecorder { ring: Mutex::new(VecDeque::new()), cfg }
    }

    /// The admission policy.
    pub fn config(&self) -> &RecorderConfig {
        &self.cfg
    }

    /// Whether recording is on at all (capacity > 0). Sessions skip
    /// profile collection entirely when the recorder is disabled and
    /// the client did not ask for a trace.
    pub fn enabled(&self) -> bool {
        self.cfg.capacity > 0
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, VecDeque<FlightRecord>> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Offer a record; returns whether the policy admitted it.
    pub fn observe(&self, rec: FlightRecord) -> bool {
        if !self.enabled() {
            return false;
        }
        let admit = (rec.error.is_some() && self.cfg.record_errors)
            || rec.total_us >= self.cfg.min_total_us;
        if !admit {
            return false;
        }
        let mut ring = self.ring();
        while ring.len() >= self.cfg.capacity {
            ring.pop_front();
        }
        ring.push_back(rec);
        true
    }

    /// The `n` worst recorded queries, slowest first (ties by query id
    /// for a deterministic listing).
    pub fn worst(&self, n: usize) -> Vec<FlightRecord> {
        let mut all: Vec<FlightRecord> = self.ring().iter().cloned().collect();
        all.sort_by_key(|r| (std::cmp::Reverse(r.total_us), r.query_id));
        all.truncate(n);
        all
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.ring().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;
    use crate::profile::ProfileCollector;
    use std::sync::Arc;

    fn sample_trace() -> TraceNode {
        let _g = crate::trace::tests::tracer_lock();
        let col = ProfileCollector::with_clock(Arc::new(MockClock::new(7)));
        let ctx = col.context();
        {
            let mut adm = ctx.span("server.admission");
            adm.field("queued", false);
        }
        {
            let exec = ctx.span("plan.filter");
            exec.child().leaf("morsel", 0, crate::fields![rows = 3u64]);
        }
        ctx.point("resilient.degrade", crate::fields![reason = "drift"]);
        col.build("query")
    }

    #[test]
    fn attribution_sums_top_spans_without_double_counting() {
        let mk = |name: &str, dur: u64, children: Vec<TraceNode>| TraceNode {
            name: name.to_string(),
            start_us: 0,
            duration_us: Some(dur),
            index: None,
            fields: Vec::new(),
            children,
        };
        // cluster.execute contains plan.* children — only the outer
        // span's 100us counts toward "execute".
        let trace = mk(
            "query",
            200,
            vec![
                mk("server.admission", 30, vec![]),
                mk("cluster.shard", 150, vec![
                    mk("cluster.fetch", 40, vec![]),
                    mk("cluster.execute", 100, vec![mk("plan.scan", 90, vec![])]),
                ]),
                mk("cluster.merge", 10, vec![]),
            ],
        );
        let layers = attribute_layers(&trace);
        assert_eq!(
            layers,
            vec![
                ("queue".to_string(), 30),
                ("fetch".to_string(), 40),
                ("execute".to_string(), 100),
                ("merge".to_string(), 10),
            ]
        );
        let (dom, us) = dominant_layer(&layers);
        assert_eq!((dom.as_str(), us), ("execute", 100));
    }

    #[test]
    fn dominant_layer_ties_break_toward_the_earlier_layer() {
        let layers =
            vec![("fetch".to_string(), 50), ("gather".to_string(), 50)];
        assert_eq!(dominant_layer(&layers).0, "fetch");
        assert_eq!(dominant_layer(&[]).0, "none");
    }

    #[test]
    fn recorder_ring_is_bounded_and_worst_is_sorted() {
        let rec = FlightRecorder::new(RecorderConfig {
            capacity: 3,
            ..RecorderConfig::default()
        });
        for (id, us) in [(1u64, 50u64), (2, 500), (3, 5), (4, 300)] {
            let mut t = sample_trace();
            t.duration_us = Some(us);
            assert!(rec.observe(FlightRecord::from_trace(id, "SELECT 1", "exact", None, t)));
        }
        // FIFO eviction dropped id 1; worst() ranks the survivors.
        assert_eq!(rec.len(), 3);
        let worst = rec.worst(2);
        assert_eq!(
            worst.iter().map(|r| r.query_id).collect::<Vec<_>>(),
            vec![2, 4]
        );
        assert_eq!(worst[0].total_us, 500);
    }

    #[test]
    fn recorder_threshold_admits_errors_and_slow_queries_only() {
        let rec = FlightRecorder::new(RecorderConfig {
            capacity: 8,
            min_total_us: 100,
            record_errors: true,
        });
        let mut fast = sample_trace();
        fast.duration_us = Some(10);
        let mut slow = fast.clone();
        slow.duration_us = Some(100);
        assert!(!rec.observe(FlightRecord::from_trace(1, "q", "exact", None, fast.clone())));
        assert!(rec.observe(FlightRecord::from_trace(2, "q", "exact", None, slow)));
        assert!(rec.observe(FlightRecord::from_trace(
            3,
            "q",
            "exact",
            Some("boom".to_string()),
            fast
        )));
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let rec = FlightRecorder::new(RecorderConfig {
            capacity: 0,
            ..RecorderConfig::default()
        });
        assert!(!rec.enabled());
        let t = sample_trace();
        assert!(!rec.observe(FlightRecord::from_trace(1, "q", "exact", None, t)));
        assert!(rec.is_empty());
    }
}
