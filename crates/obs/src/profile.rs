//! Per-query execution profiles: `EXPLAIN ANALYZE`-style trees.
//!
//! A [`ProfileCollector`] accumulates flat span/point entries from any
//! thread (workers record morsel leaves through cloned
//! [`ProfileContext`] handles) and [`ProfileCollector::build`]
//! assembles them into one [`QueryProfile`] tree. The collector also
//! remembers the global tracer's cursor at creation, so events emitted
//! far below the executor — storage retries, page quarantines — are
//! bridged into the tree as root-level points.
//!
//! Children sort by `(index, arrival)`: leaves carrying an explicit
//! index (morsel offsets) come first in index order regardless of which
//! worker finished when, so a profile tree is deterministic under any
//! thread count given a deterministic clock.

use crate::clock::{Clock, MonotonicClock};
use crate::trace::{tracer, FieldValue};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Identifier of a span node within one collector. 0 is the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(u64);

/// The implicit root every top-level span/point attaches to.
pub const ROOT: NodeId = NodeId(0);

#[derive(Debug)]
enum Entry {
    Begin { id: NodeId, parent: NodeId, name: &'static str, start_us: u64 },
    End { id: NodeId, end_us: u64, fields: Vec<(&'static str, FieldValue)> },
    Point {
        parent: NodeId,
        name: &'static str,
        at_us: u64,
        index: Option<u64>,
        fields: Vec<(&'static str, FieldValue)>,
    },
}

/// Thread-safe accumulator behind every [`ProfileContext`].
#[derive(Debug)]
pub struct ProfileCollector {
    clock: Arc<dyn Clock>,
    start_us: u64,
    ring_from: u64,
    next_id: AtomicU64,
    entries: Mutex<Vec<Entry>>,
}

impl ProfileCollector {
    /// A collector on the wall clock.
    pub fn new() -> Arc<ProfileCollector> {
        ProfileCollector::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A collector on an explicit clock (tests pass a `MockClock`).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Arc<ProfileCollector> {
        let start_us = clock.now_micros();
        Arc::new(ProfileCollector {
            clock,
            start_us,
            ring_from: tracer().cursor(),
            next_id: AtomicU64::new(1),
            entries: Mutex::new(Vec::new()),
        })
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The root context instrumentation sites record through.
    pub fn context(self: &Arc<ProfileCollector>) -> ProfileContext {
        ProfileContext { collector: Arc::clone(self), parent: ROOT }
    }

    /// A reading of this collector's clock, for callers that time work
    /// themselves (morsel workers) — using the collector clock keeps
    /// profile trees deterministic under a `MockClock`.
    pub fn now_micros(&self) -> u64 {
        self.clock.now_micros()
    }

    fn begin(&self, parent: NodeId, name: &'static str) -> NodeId {
        let id = NodeId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let start_us = self.clock.now_micros();
        self.entries().push(Entry::Begin { id, parent, name, start_us });
        id
    }

    fn end(&self, id: NodeId, fields: Vec<(&'static str, FieldValue)>) {
        let end_us = self.clock.now_micros();
        self.entries().push(Entry::End { id, end_us, fields });
    }

    fn point(
        &self,
        parent: NodeId,
        name: &'static str,
        index: Option<u64>,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        let at_us = self.clock.now_micros();
        self.entries().push(Entry::Point { parent, name, at_us, index, fields });
    }

    /// Assemble everything recorded so far — plus tracer events bridged
    /// since this collector was created — into one tree rooted at
    /// `root_name`.
    pub fn build(&self, root_name: &'static str) -> QueryProfile {
        struct Pending {
            node: ProfileNode,
            parent: NodeId,
            seq: u64,
        }
        let end_us = self.clock.now_micros();
        let entries = self.entries();
        let mut pending: Vec<Pending> = Vec::new();
        let mut by_id: Vec<(NodeId, usize)> = Vec::new();
        for (seq, e) in entries.iter().enumerate() {
            match e {
                Entry::Begin { id, parent, name, start_us } => {
                    by_id.push((*id, pending.len()));
                    pending.push(Pending {
                        node: ProfileNode {
                            name,
                            start_us: *start_us,
                            duration_us: None,
                            index: None,
                            fields: Vec::new(),
                            children: Vec::new(),
                        },
                        parent: *parent,
                        seq: seq as u64,
                    });
                }
                Entry::End { id, end_us, fields } => {
                    if let Some(&(_, slot)) = by_id.iter().find(|(i, _)| i == id) {
                        let p = &mut pending[slot];
                        p.node.duration_us =
                            Some(end_us.saturating_sub(p.node.start_us));
                        p.node.fields = fields.clone();
                    }
                }
                Entry::Point { parent, name, at_us, index, fields } => {
                    pending.push(Pending {
                        node: ProfileNode {
                            name,
                            start_us: *at_us,
                            duration_us: None,
                            index: *index,
                            fields: fields.clone(),
                            children: Vec::new(),
                        },
                        parent: *parent,
                        seq: seq as u64,
                    });
                }
            }
        }
        let bridge_base = entries.len() as u64;
        drop(entries);
        // Bridge tracer events that fired while this profile was live.
        // Their timestamps come from the subscriber's clock (different
        // origin), so they are attached as points and never contribute
        // to the root duration.
        for (i, ev) in tracer().events_since(self.ring_from).into_iter().enumerate() {
            pending.push(Pending {
                node: ProfileNode {
                    name: ev.name,
                    start_us: ev.timestamp_us,
                    duration_us: None,
                    index: None,
                    fields: ev.fields,
                    children: Vec::new(),
                },
                parent: ROOT,
                seq: bridge_base + i as u64,
            });
        }
        // Assemble bottom-up: later entries can only be children of
        // earlier Begins (or the root), so one reverse pass suffices.
        let mut root = ProfileNode {
            name: root_name,
            start_us: self.start_us,
            duration_us: Some(end_us.saturating_sub(self.start_us)),
            index: None,
            fields: Vec::new(),
            children: Vec::new(),
        };
        // Collect children per parent, sorted deterministically.
        let mut order: Vec<usize> = (0..pending.len()).collect();
        order.sort_by_key(|&i| {
            (pending[i].node.index.unwrap_or(u64::MAX), pending[i].seq)
        });
        // Attach deepest-first: a child Begin always has a larger seq
        // than its parent Begin, so walking seq-descending and moving
        // each node into its parent keeps subtrees intact.
        let mut by_seq: Vec<usize> = (0..pending.len()).collect();
        by_seq.sort_by_key(|&i| std::cmp::Reverse(pending[i].seq));
        let rank: std::collections::HashMap<u64, usize> = order
            .iter()
            .enumerate()
            .map(|(rank, &i)| (pending[i].seq, rank))
            .collect();
        for &i in &by_seq {
            let parent = pending[i].parent;
            let node = std::mem::replace(
                &mut pending[i].node,
                ProfileNode {
                    name: "",
                    start_us: 0,
                    duration_us: None,
                    index: None,
                    fields: Vec::new(),
                    children: Vec::new(),
                },
            );
            let seq = pending[i].seq;
            if parent == ROOT {
                root.children.push((node, seq));
            } else if let Some(&(_, slot)) = by_id.iter().find(|(id, _)| *id == parent) {
                pending[slot].node.children.push((node, seq));
            } else {
                root.children.push((node, seq));
            }
        }
        fn finish(
            node: &mut ProfileNode,
            rank: &std::collections::HashMap<u64, usize>,
        ) {
            node.children
                .sort_by_key(|(_, seq)| rank.get(seq).copied().unwrap_or(usize::MAX));
            for (c, _) in &mut node.children {
                finish(c, rank);
            }
        }
        finish(&mut root, &rank);
        QueryProfile { root: root.strip() }
    }
}

/// A cheap, cloneable handle for recording into one collector under a
/// fixed parent. `Send + Sync`, so worker threads record morsel leaves
/// directly.
#[derive(Debug, Clone)]
pub struct ProfileContext {
    collector: Arc<ProfileCollector>,
    parent: NodeId,
}

impl ProfileContext {
    /// The collector this context records into.
    pub fn collector(&self) -> &Arc<ProfileCollector> {
        &self.collector
    }

    /// A reading of the collector's clock (see
    /// [`ProfileCollector::now_micros`]).
    pub fn now_micros(&self) -> u64 {
        self.collector.now_micros()
    }

    /// Open a child span; the guard records its end (and any fields
    /// attached via [`ProfileSpan::field`]) when dropped.
    pub fn span(&self, name: &'static str) -> ProfileSpan {
        let id = self.collector.begin(self.parent, name);
        ProfileSpan {
            collector: Arc::clone(&self.collector),
            id,
            fields: Vec::new(),
        }
    }

    /// Record an instantaneous child point.
    pub fn point(&self, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        self.collector.point(self.parent, name, None, fields);
    }

    /// Record an indexed child leaf (e.g. per-morsel, indexed by row
    /// offset); indexed leaves sort before unindexed siblings, in index
    /// order, making the tree deterministic under parallel execution.
    pub fn leaf(
        &self,
        name: &'static str,
        index: u64,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        self.collector.point(self.parent, name, Some(index), fields);
    }
}

/// RAII guard for an open profile span; records its end on drop.
#[derive(Debug)]
pub struct ProfileSpan {
    collector: Arc<ProfileCollector>,
    id: NodeId,
    fields: Vec<(&'static str, FieldValue)>,
}

impl ProfileSpan {
    /// Attach an outcome field, emitted when the span closes.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.fields.push((key, value.into()));
    }

    /// A context whose spans/points become children of this span.
    pub fn child(&self) -> ProfileContext {
        ProfileContext { collector: Arc::clone(&self.collector), parent: self.id }
    }
}

impl Drop for ProfileSpan {
    fn drop(&mut self) {
        self.collector.end(self.id, std::mem::take(&mut self.fields));
    }
}

/// Internal assembly node: children carry their seq until ordering is
/// finalized, then `strip` removes it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Span/point name from the dotted taxonomy (DESIGN.md §12).
    pub name: &'static str,
    /// Microseconds on the collector clock when this node started.
    pub start_us: u64,
    /// Span length; `None` for points and never-closed spans.
    pub duration_us: Option<u64>,
    /// Explicit sibling ordering key (morsel offset), if any.
    pub index: Option<u64>,
    /// Typed key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Ordered children (seq tags dropped by `strip`).
    children: Vec<(ProfileNode, u64)>,
}

impl ProfileNode {
    fn strip(self) -> ProfileTreeNode {
        ProfileTreeNode {
            name: self.name,
            start_us: self.start_us,
            duration_us: self.duration_us,
            index: self.index,
            fields: self.fields,
            children: self.children.into_iter().map(|(c, _)| c.strip()).collect(),
        }
    }
}

/// One node of a finished [`QueryProfile`] tree.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileTreeNode {
    /// Span/point name from the dotted taxonomy (DESIGN.md §12).
    pub name: &'static str,
    /// Microseconds on the collector clock when this node started.
    pub start_us: u64,
    /// Span length; `None` for points.
    pub duration_us: Option<u64>,
    /// Explicit sibling ordering key (morsel offset), if any.
    pub index: Option<u64>,
    /// Typed key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Children, deterministically ordered.
    pub children: Vec<ProfileTreeNode>,
}

impl ProfileTreeNode {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Every node in this subtree (preorder) named `name`.
    pub fn find<'a>(&'a self, name: &str) -> Vec<&'a ProfileTreeNode> {
        let mut out = Vec::new();
        self.collect(name, &mut out);
        out
    }

    fn collect<'a>(&'a self, name: &str, out: &mut Vec<&'a ProfileTreeNode>) {
        if self.name == name {
            out.push(self);
        }
        for c in &self.children {
            c.collect(name, out);
        }
    }

    fn render(&self, prefix: &str, is_last: bool, is_root: bool, out: &mut String) {
        if is_root {
            out.push_str(self.name);
        } else {
            out.push_str(prefix);
            out.push_str(if is_last { "└─ " } else { "├─ " });
            out.push_str(self.name);
        }
        if let Some(i) = self.index {
            out.push_str(&format!(" #{i}"));
        }
        if let Some(d) = self.duration_us {
            out.push_str(&format!(" ({d} us)"));
        }
        for (k, v) in &self.fields {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        let child_prefix = if is_root {
            String::new()
        } else {
            format!("{prefix}{}", if is_last { "   " } else { "│  " })
        };
        let n = self.children.len();
        for (i, c) in self.children.iter().enumerate() {
            c.render(&child_prefix, i + 1 == n, false, out);
        }
    }
}

/// An `EXPLAIN ANALYZE`-style execution profile: one deterministic tree
/// unifying executor spans, morsel leaves, pruning decisions, governor
/// charges and bridged storage events. `Display` renders the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// The root node (whole-query span).
    pub root: ProfileTreeNode,
}

impl QueryProfile {
    /// Every node named `name`, preorder.
    pub fn find(&self, name: &str) -> Vec<&ProfileTreeNode> {
        self.root.find(name)
    }

    /// The rendered tree (same as `Display`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render("", true, true, &mut out);
        out
    }
}

impl std::fmt::Display for QueryProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Build a `Vec<(&'static str, FieldValue)>` payload:
/// `fields![rows = n, pruned]` (bare identifiers use the variable as
/// both key and value).
#[macro_export]
macro_rules! fields {
    () => { ::std::vec::Vec::new() };
    ($($key:ident $(= $val:expr)?),+ $(,)?) => {
        ::std::vec![
            $((
                stringify!($key),
                $crate::trace::FieldValue::from($crate::__field_value!($key $(= $val)?)),
            )),+
        ]
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::MockClock;

    #[test]
    fn nested_spans_build_a_tree_with_durations() {
        let clock = Arc::new(MockClock::new(10));
        let col = ProfileCollector::with_clock(clock);
        let ctx = col.context();
        {
            let mut outer = ctx.span("exec");
            outer.field("rows", 5u64);
            {
                let inner = outer.child().span("scan");
                inner.child().point("zone", crate::fields![skipped = true]);
            }
        }
        let profile = col.build("query");
        assert_eq!(profile.root.name, "query");
        let exec = &profile.root.children[0];
        assert_eq!(exec.name, "exec");
        assert_eq!(exec.field("rows").and_then(FieldValue::as_u64), Some(5));
        assert!(exec.duration_us.is_some());
        let scan = &exec.children[0];
        assert_eq!(scan.name, "scan");
        assert_eq!(scan.children[0].name, "zone");
        assert_eq!(scan.children[0].duration_us, None);
    }

    #[test]
    fn indexed_leaves_order_by_index_not_arrival() {
        let col = ProfileCollector::with_clock(Arc::new(MockClock::new(1)));
        let ctx = col.context();
        // Simulate out-of-order worker completion.
        ctx.leaf("morsel", 200, crate::fields![rows = 7u64]);
        ctx.leaf("morsel", 0, crate::fields![rows = 9u64]);
        ctx.leaf("morsel", 100, Vec::new());
        ctx.point("note", Vec::new());
        let profile = col.build("query");
        let names: Vec<(&str, Option<u64>)> =
            profile.root.children.iter().map(|c| (c.name, c.index)).collect();
        assert_eq!(
            names,
            vec![
                ("morsel", Some(0)),
                ("morsel", Some(100)),
                ("morsel", Some(200)),
                ("note", None)
            ]
        );
    }

    #[test]
    fn mock_clock_runs_are_byte_identical() {
        let run = || {
            let col = ProfileCollector::with_clock(Arc::new(MockClock::new(3)));
            let ctx = col.context();
            let mut s = ctx.span("exec");
            s.field("rows", 42u64);
            s.child().leaf("morsel", 0, crate::fields![rows = 42u64]);
            drop(s);
            col.build("query").render()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.contains("query"));
        assert!(a.contains("morsel #0"));
    }

    #[test]
    fn bridged_tracer_events_attach_to_root() {
        use crate::trace::{tracer, RingBufferSink};
        let sink = RingBufferSink::new(16);
        tracer().install(Arc::clone(&sink), Arc::new(MockClock::new(1)));
        // An event from *before* the collector existed must not bridge.
        crate::event!("too.early");
        let col = ProfileCollector::with_clock(Arc::new(MockClock::new(1)));
        crate::event!("storage.retry.attempt", attempt = 2u64);
        let profile = col.build("query");
        tracer().uninstall();
        assert!(profile.find("too.early").is_empty());
        let bridged = profile.find("storage.retry.attempt");
        assert_eq!(bridged.len(), 1);
        assert_eq!(bridged[0].field("attempt").and_then(FieldValue::as_u64), Some(2));
    }

    #[test]
    fn render_shows_tree_structure_and_fields() {
        let col = ProfileCollector::with_clock(Arc::new(MockClock::new(5)));
        let ctx = col.context();
        {
            let s = ctx.span("plan.filter");
            s.child().leaf("morsel", 0, crate::fields![rows = 3u64]);
        }
        let text = col.build("query").render();
        assert!(text.contains("query ("), "{text}");
        assert!(text.contains("└─ plan.filter"), "{text}");
        assert!(text.contains("└─ morsel #0 rows=3"), "{text}");
    }
}
