//! Structured tracing: point events over a ring-buffer sink.
//!
//! The global tracer carries only `event!` points — what storage and
//! fit emit far from any query. Timed spans belong to a query's
//! profile ([`ProfileContext::span`](crate::ProfileContext::span)),
//! where they nest into its one tree.
//!
//! The process-wide [`Tracer`] is disabled until a subscriber is
//! installed; every emit site pays exactly one relaxed atomic load on
//! the disabled path — the same zero-cost-when-off discipline as
//! `Governor::arm` returning `None` for unbudgeted queries. Field
//! construction is behind a closure, so a disabled emit allocates
//! nothing.
//!
//! Events land in a fixed-capacity [`RingBufferSink`] with a
//! monotonically increasing sequence number, so readers can take a
//! cursor, run some work, and fetch exactly the events that happened in
//! between (`events_since`) — this is how per-query profiles absorb
//! storage-layer retry and quarantine events emitted far below the
//! executor.

use crate::clock::{Clock, MonotonicClock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// A typed event/span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, sizes, ids).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (R², residuals, ratios).
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text (reasons, modes, names).
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl FieldValue {
    /// The value as u64 when it is one (tests and gates).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as text when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One structured event. `seq` is assigned by the sink and strictly
/// increases across the process lifetime of an installed subscriber.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Dotted taxonomy name, e.g. `storage.retry.attempt`.
    pub name: &'static str,
    /// Sink-assigned sequence number.
    pub seq: u64,
    /// Microseconds on the subscriber's clock.
    pub timestamp_us: u64,
    /// Typed key/value payload.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

struct Ring {
    buf: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

/// Thread-safe fixed-capacity event sink: the oldest events are dropped
/// (and counted) when the buffer is full.
pub struct RingBufferSink {
    cap: usize,
    inner: Mutex<Ring>,
}

impl std::fmt::Debug for RingBufferSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let r = self.ring();
        f.debug_struct("RingBufferSink")
            .field("cap", &self.cap)
            .field("len", &r.buf.len())
            .field("next_seq", &r.next_seq)
            .field("dropped", &r.dropped)
            .finish()
    }
}

impl RingBufferSink {
    /// A sink holding the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> Arc<RingBufferSink> {
        Arc::new(RingBufferSink {
            cap: capacity.max(1),
            inner: Mutex::new(Ring { buf: VecDeque::new(), next_seq: 0, dropped: 0 }),
        })
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, Ring> {
        // A panicking recorder cannot corrupt a push-only ring; keep
        // serving events rather than poisoning the whole subscriber.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Append one event, assigning its sequence number.
    pub fn record(
        &self,
        name: &'static str,
        timestamp_us: u64,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        let mut r = self.ring();
        let seq = r.next_seq;
        r.next_seq += 1;
        if r.buf.len() == self.cap {
            r.buf.pop_front();
            r.dropped += 1;
        }
        r.buf.push_back(Event { name, seq, timestamp_us, fields });
    }

    /// The sequence number the *next* event will get; use as a cursor
    /// for [`RingBufferSink::events_since`].
    pub fn cursor(&self) -> u64 {
        self.ring().next_seq
    }

    /// Events with `seq >= cursor` still held by the ring, oldest first.
    pub fn events_since(&self, cursor: u64) -> Vec<Event> {
        self.ring().buf.iter().filter(|e| e.seq >= cursor).cloned().collect()
    }

    /// Remove and return everything currently buffered.
    pub fn drain(&self) -> Vec<Event> {
        self.ring().buf.drain(..).collect()
    }

    /// Copy of everything currently buffered.
    pub fn snapshot(&self) -> Vec<Event> {
        self.ring().buf.iter().cloned().collect()
    }

    /// Events evicted by capacity pressure so far.
    pub fn dropped(&self) -> u64 {
        self.ring().dropped
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.ring().buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct Installed {
    sink: Arc<RingBufferSink>,
    clock: Arc<dyn Clock>,
}

/// The process-wide event tracer. All emit sites go through
/// [`tracer()`]; with no subscriber installed, [`Tracer::emit`] is a
/// single relaxed atomic load and an immediate return.
pub struct Tracer {
    enabled: AtomicBool,
    inner: RwLock<Option<Installed>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.is_enabled()).finish()
    }
}

impl Tracer {
    /// A disabled tracer (const, so it can be a `static`).
    pub const fn new() -> Tracer {
        Tracer { enabled: AtomicBool::new(false), inner: RwLock::new(None) }
    }

    fn installed(&self) -> std::sync::RwLockReadGuard<'_, Option<Installed>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The disabled-path check every emit site pays: one relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Install a subscriber: events flow to `sink`, stamped by `clock`.
    pub fn install(&self, sink: Arc<RingBufferSink>, clock: Arc<dyn Clock>) {
        *self.inner.write().unwrap_or_else(PoisonError::into_inner) =
            Some(Installed { sink, clock });
        self.enabled.store(true, Ordering::Release);
    }

    /// Install a fresh ring-buffer subscriber on the wall clock and
    /// return it.
    pub fn install_ring(&self, capacity: usize) -> Arc<RingBufferSink> {
        let sink = RingBufferSink::new(capacity);
        self.install(Arc::clone(&sink), Arc::new(MonotonicClock::new()));
        sink
    }

    /// Remove the subscriber; emit sites go back to the single-load
    /// disabled path.
    pub fn uninstall(&self) {
        self.enabled.store(false, Ordering::Release);
        *self.inner.write().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Emit one event. `fields` is only invoked when a subscriber is
    /// installed, so the disabled path allocates nothing.
    #[inline]
    pub fn emit(
        &self,
        name: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, FieldValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.emit_now(name, fields());
    }

    fn emit_now(&self, name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        if let Some(ins) = self.installed().as_ref() {
            ins.sink.record(name, ins.clock.now_micros(), fields);
        }
    }

    /// The installed ring, if any.
    pub fn ring(&self) -> Option<Arc<RingBufferSink>> {
        self.installed().as_ref().map(|i| Arc::clone(&i.sink))
    }

    /// Cursor into the installed ring (0 when disabled).
    pub fn cursor(&self) -> u64 {
        self.installed().as_ref().map_or(0, |i| i.sink.cursor())
    }

    /// Events recorded since `cursor` (empty when disabled).
    pub fn events_since(&self, cursor: u64) -> Vec<Event> {
        self.installed().as_ref().map_or_else(Vec::new, |i| i.sink.events_since(cursor))
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

static GLOBAL: Tracer = Tracer::new();

/// The process-wide tracer every emit site reports through.
pub fn tracer() -> &'static Tracer {
    &GLOBAL
}

/// Emit a structured event through the global tracer.
///
/// `event!("storage.retry.attempt", page = id, attempt)` — a bare
/// identifier uses the variable as both key and value. Zero cost when
/// no subscriber is installed.
#[macro_export]
macro_rules! event {
    ($name:expr $(,)?) => {
        $crate::trace::tracer().emit($name, ::std::vec::Vec::new)
    };
    ($name:expr, $($key:ident $(= $val:expr)?),+ $(,)?) => {
        $crate::trace::tracer().emit($name, || ::std::vec![
            $((
                stringify!($key),
                $crate::trace::FieldValue::from($crate::__field_value!($key $(= $val)?)),
            )),+
        ])
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __field_value {
    ($key:ident) => {
        $key
    };
    ($key:ident = $val:expr) => {
        $val
    };
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::clock::MockClock;

    /// Unit tests share the global tracer: the ones that install it, and
    /// the ones that build profiles (which bridge its events into their
    /// root), serialize here.
    pub(crate) fn tracer_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_tracer_emits_nothing_and_never_calls_fields() {
        let _g = tracer_lock();
        tracer().uninstall();
        let mut called = false;
        tracer().emit("x", || {
            called = true;
            Vec::new()
        });
        assert!(!called, "disabled emit must not build fields");
        assert_eq!(tracer().cursor(), 0);
    }

    #[test]
    fn events_round_trip_with_fields_and_sequence() {
        let _g = tracer_lock();
        let sink = RingBufferSink::new(16);
        tracer().install(Arc::clone(&sink), Arc::new(MockClock::new(5)));
        crate::event!("a", n = 1u64);
        crate::event!("b", ok = true, why = "because");
        tracer().uninstall();
        let evs = sink.drain();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "a");
        assert_eq!(evs[0].timestamp_us, 0);
        assert_eq!(evs[0].field("n"), Some(&FieldValue::U64(1)));
        assert_eq!(evs[1].seq, evs[0].seq + 1);
        assert_eq!(evs[1].field("why").and_then(FieldValue::as_str), Some("because"));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let sink = RingBufferSink::new(2);
        sink.record("a", 0, Vec::new());
        sink.record("b", 1, Vec::new());
        sink.record("c", 2, Vec::new());
        assert_eq!(sink.dropped(), 1);
        let names: Vec<&str> = sink.snapshot().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn cursor_windows_select_only_newer_events() {
        let sink = RingBufferSink::new(16);
        sink.record("old", 0, Vec::new());
        let cur = sink.cursor();
        sink.record("new", 1, Vec::new());
        let evs = sink.events_since(cur);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "new");
    }

    #[test]
    fn bare_identifier_field_shorthand() {
        let _g = tracer_lock();
        let sink = RingBufferSink::new(4);
        tracer().install(Arc::clone(&sink), Arc::new(MockClock::new(1)));
        let pages = 9usize;
        crate::event!("scan", pages);
        tracer().uninstall();
        assert_eq!(sink.drain()[0].field("pages"), Some(&FieldValue::U64(9)));
    }
}
