//! Admission control: the server-side throttle in front of the
//! per-query [`Governor`](lawsdb_query::Governor).
//!
//! The governor bounds what one *running* query may consume; the
//! admission controller bounds how many queries run at once and how
//! much memory their budgets may collectively reserve. A request that
//! cannot start immediately waits in a **bounded queue** with a
//! deadline: when the queue is full it is rejected *now* with a
//! structured retry hint, and when its wait budget expires it fails
//! with a structured timeout — the two shapes a loaded server is
//! allowed to say "no" in. It never hangs and never panics.
//!
//! Every decision is counted in the engine's
//! [`MetricsRegistry`] under the
//! `lawsdb_server_*` namespace: `admitted`, `queued`, `rejected`,
//! `queue_timeout` counters, `active_queries` (+ high-water peak)
//! gauges, and a `queue_wait_us` histogram.

use crate::error::WireError;
use lawsdb_obs::{Counter, Gauge, Histogram, MetricsRegistry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Global caps enforced by the [`AdmissionController`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Queries allowed to run concurrently across all sessions.
    pub max_concurrent_queries: usize,
    /// Requests allowed to wait for a slot; the next one is rejected.
    pub max_queued: usize,
    /// How long a queued request may wait before failing with
    /// [`WireError::QueueTimeout`].
    pub queue_timeout: Duration,
    /// Cap on the summed memory *reservations* of admitted queries
    /// (each query reserves its budget's `memory_bytes`, or
    /// [`AdmissionConfig::default_reserve_bytes`] when unbudgeted).
    /// `None` disables the memory gate.
    pub global_memory_bytes: Option<usize>,
    /// Reservation charged for a query with no memory budget.
    pub default_reserve_bytes: usize,
    /// Ceiling on the `retry_after_ms` backoff hint sent with
    /// [`WireError::Rejected`]. The raw hint is the queue's drain
    /// horizon (`queue_timeout`), which can be many seconds — an
    /// honest drain estimate but a terrible client backoff. Capping the
    /// hint keeps rejected clients probing at a bounded cadence, the
    /// same shape as [`lawsdb_storage::RetryPolicy::max_delay_us`] on
    /// the device-retry path.
    pub max_retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_concurrent_queries: 4,
            max_queued: 32,
            queue_timeout: Duration::from_secs(5),
            global_memory_bytes: Some(256 << 20),
            default_reserve_bytes: 16 << 20,
            max_retry_after_ms: 2_000,
        }
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// Queue already holds `max_queued` waiters.
    QueueFull {
        /// Queries running at rejection time.
        active: usize,
        /// Requests waiting at rejection time.
        queued: usize,
        /// Backoff hint: the configured queue timeout.
        retry_after_ms: u64,
    },
    /// Waited the full queue budget without a slot opening.
    QueueTimeout {
        /// Milliseconds actually waited.
        waited_ms: u64,
        /// The configured wait budget.
        budget_ms: u64,
    },
    /// The request's memory reservation exceeds the global cap on its
    /// own — it could never be admitted, so it fails immediately.
    ReserveTooLarge {
        /// Requested reservation.
        reserve: usize,
        /// The global cap.
        cap: usize,
    },
}

impl AdmissionError {
    /// The wire form of this refusal.
    pub fn to_wire(&self) -> WireError {
        match self {
            AdmissionError::QueueFull { active, queued, retry_after_ms } => WireError::Rejected {
                active: *active as u32,
                queued: *queued as u32,
                retry_after_ms: *retry_after_ms,
            },
            AdmissionError::QueueTimeout { waited_ms, budget_ms } => {
                WireError::QueueTimeout { waited_ms: *waited_ms, budget_ms: *budget_ms }
            }
            AdmissionError::ReserveTooLarge { reserve, cap } => WireError::Server {
                detail: format!(
                    "memory reservation {reserve} bytes exceeds the server's global cap {cap}"
                ),
            },
        }
    }
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_wire())
    }
}

impl std::error::Error for AdmissionError {}

#[derive(Debug, Default)]
struct State {
    active: usize,
    reserved_bytes: usize,
    queued: usize,
}

/// The shared admission gate. One per server; every query round-trips
/// through [`AdmissionController::admit`] and holds the returned
/// [`AdmissionPermit`] for exactly the execution span.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    state: Mutex<State>,
    slot_freed: Condvar,
    admitted: Arc<Counter>,
    queued_total: Arc<Counter>,
    rejected: Arc<Counter>,
    timeouts: Arc<Counter>,
    active_queries: Arc<Gauge>,
    active_peak: Arc<Gauge>,
    queue_wait_us: Arc<Histogram>,
    peak_seen: AtomicUsize,
}

impl AdmissionController {
    /// Build a controller whose counters live in `registry` under
    /// `lawsdb_server_*`.
    pub fn for_registry(cfg: AdmissionConfig, registry: &MetricsRegistry) -> AdmissionController {
        AdmissionController {
            cfg,
            state: Mutex::new(State::default()),
            slot_freed: Condvar::new(),
            admitted: registry.counter("lawsdb_server_admitted"),
            queued_total: registry.counter("lawsdb_server_queued"),
            rejected: registry.counter("lawsdb_server_rejected"),
            timeouts: registry.counter("lawsdb_server_queue_timeout"),
            active_queries: registry.gauge("lawsdb_server_active_queries"),
            active_peak: registry.gauge("lawsdb_server_active_queries_peak"),
            queue_wait_us: registry.histogram("lawsdb_server_queue_wait_us"),
            peak_seen: AtomicUsize::new(0),
        }
    }

    /// The configured caps.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    fn has_capacity(&self, st: &State, reserve: usize) -> bool {
        if st.active >= self.cfg.max_concurrent_queries {
            return false;
        }
        match self.cfg.global_memory_bytes {
            Some(cap) => st.reserved_bytes.saturating_add(reserve) <= cap,
            None => true,
        }
    }

    /// Ask to run a query reserving `reserve` bytes of the global
    /// memory cap. Returns a permit immediately when capacity exists,
    /// waits up to the configured queue timeout when it does not, and
    /// returns a structured [`AdmissionError`] when the queue is full,
    /// the wait expires, or the reservation could never fit.
    pub fn admit(self: &Arc<Self>, reserve: usize) -> Result<AdmissionPermit, AdmissionError> {
        if let Some(cap) = self.cfg.global_memory_bytes {
            if reserve > cap {
                self.rejected.inc();
                return Err(AdmissionError::ReserveTooLarge { reserve, cap });
            }
        }
        let started = Instant::now();
        let deadline = started + self.cfg.queue_timeout;
        let mut st = match self.state.lock() {
            Ok(g) => g,
            // A poisoned admission lock means a panic *while holding
            // it*; the state is a few counters, safe to keep using.
            Err(p) => p.into_inner(),
        };
        if self.has_capacity(&st, reserve) {
            return Ok(self.grant(&mut st, reserve, None));
        }
        if st.queued >= self.cfg.max_queued {
            self.rejected.inc();
            return Err(AdmissionError::QueueFull {
                active: st.active,
                queued: st.queued,
                retry_after_ms: (self.cfg.queue_timeout.as_millis() as u64)
                    .min(self.cfg.max_retry_after_ms),
            });
        }
        st.queued += 1;
        self.queued_total.inc();
        loop {
            let now = Instant::now();
            if now >= deadline {
                st.queued -= 1;
                self.timeouts.inc();
                self.rejected.inc();
                return Err(AdmissionError::QueueTimeout {
                    waited_ms: started.elapsed().as_millis() as u64,
                    budget_ms: self.cfg.queue_timeout.as_millis() as u64,
                });
            }
            let (guard, _timeout) = match self.slot_freed.wait_timeout(st, deadline - now) {
                Ok(r) => r,
                Err(p) => {
                    let g = p.into_inner();
                    (g.0, g.1)
                }
            };
            st = guard;
            if self.has_capacity(&st, reserve) {
                st.queued -= 1;
                return Ok(self.grant(&mut st, reserve, Some(started.elapsed())));
            }
        }
    }

    fn grant(
        self: &Arc<Self>,
        st: &mut State,
        reserve: usize,
        waited: Option<Duration>,
    ) -> AdmissionPermit {
        st.active += 1;
        st.reserved_bytes = st.reserved_bytes.saturating_add(reserve);
        self.admitted.inc();
        self.active_queries.add(1);
        let peak = self.peak_seen.fetch_max(st.active, Ordering::Relaxed).max(st.active);
        self.active_peak.set(peak as i64);
        self.queue_wait_us.observe(waited.unwrap_or(Duration::ZERO).as_micros() as u64);
        AdmissionPermit { controller: Arc::clone(self), reserve }
    }

    fn release(&self, reserve: usize) {
        let mut st = match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        st.active -= 1;
        st.reserved_bytes = st.reserved_bytes.saturating_sub(reserve);
        drop(st);
        self.active_queries.add(-1);
        self.slot_freed.notify_all();
    }

    /// Queries currently running (for tests and stats).
    pub fn active(&self) -> usize {
        match self.state.lock() {
            Ok(g) => g.active,
            Err(p) => p.into_inner().active,
        }
    }

    /// Highest concurrent-query count ever granted.
    pub fn peak_active(&self) -> usize {
        self.peak_seen.load(Ordering::Relaxed)
    }
}

/// RAII admission slot: holding it is the right to run one query;
/// dropping it frees the slot (and its memory reservation) and wakes
/// the queue.
#[derive(Debug)]
pub struct AdmissionPermit {
    controller: Arc<AdmissionController>,
    reserve: usize,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.controller.release(self.reserve);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(cfg: AdmissionConfig) -> (Arc<AdmissionController>, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        (Arc::new(AdmissionController::for_registry(cfg, &registry)), registry)
    }

    #[test]
    fn fast_path_admits_and_releases() {
        let (c, reg) = controller(AdmissionConfig::default());
        let p = c.admit(1024).unwrap();
        assert_eq!(c.active(), 1);
        assert_eq!(reg.snapshot().gauge("lawsdb_server_active_queries"), 1);
        drop(p);
        assert_eq!(c.active(), 0);
        assert_eq!(reg.snapshot().gauge("lawsdb_server_active_queries"), 0);
        assert_eq!(reg.snapshot().counter("lawsdb_server_admitted"), 1);
    }

    #[test]
    fn reservation_larger_than_the_cap_fails_immediately() {
        let (c, _reg) = controller(AdmissionConfig {
            global_memory_bytes: Some(100),
            ..AdmissionConfig::default()
        });
        let err = c.admit(101).unwrap_err();
        assert_eq!(err, AdmissionError::ReserveTooLarge { reserve: 101, cap: 100 });
    }

    #[test]
    fn queue_full_rejects_with_retry_hint() {
        let (c, reg) = controller(AdmissionConfig {
            max_concurrent_queries: 1,
            max_queued: 0,
            queue_timeout: Duration::from_millis(250),
            ..AdmissionConfig::default()
        });
        let _held = c.admit(0).unwrap();
        let err = c.admit(0).unwrap_err();
        assert_eq!(
            err,
            AdmissionError::QueueFull { active: 1, queued: 0, retry_after_ms: 250 }
        );
        assert_eq!(reg.snapshot().counter("lawsdb_server_rejected"), 1);
    }

    #[test]
    fn retry_hint_is_capped_but_short_timeouts_pass_through() {
        // A long drain horizon must not become a multi-second client
        // backoff: the hint is min(queue_timeout, max_retry_after_ms).
        let (c, _reg) = controller(AdmissionConfig {
            max_concurrent_queries: 1,
            max_queued: 0,
            queue_timeout: Duration::from_secs(30),
            max_retry_after_ms: 2_000,
            ..AdmissionConfig::default()
        });
        let _held = c.admit(0).unwrap();
        let err = c.admit(0).unwrap_err();
        assert_eq!(err, AdmissionError::QueueFull { active: 1, queued: 0, retry_after_ms: 2_000 });

        // Timeouts below the cap are honest drain estimates: untouched.
        let (c, _reg) = controller(AdmissionConfig {
            max_concurrent_queries: 1,
            max_queued: 0,
            queue_timeout: Duration::from_millis(40),
            max_retry_after_ms: 2_000,
            ..AdmissionConfig::default()
        });
        let _held = c.admit(0).unwrap();
        let err = c.admit(0).unwrap_err();
        assert_eq!(err, AdmissionError::QueueFull { active: 1, queued: 0, retry_after_ms: 40 });
    }

    #[test]
    fn queue_timeout_is_honored() {
        let (c, reg) = controller(AdmissionConfig {
            max_concurrent_queries: 1,
            max_queued: 4,
            queue_timeout: Duration::from_millis(100),
            ..AdmissionConfig::default()
        });
        let _held = c.admit(0).unwrap();
        let started = Instant::now();
        let err = c.admit(0).unwrap_err();
        let waited = started.elapsed();
        match err {
            AdmissionError::QueueTimeout { waited_ms, budget_ms } => {
                assert_eq!(budget_ms, 100);
                assert!(waited_ms >= 100, "returned before the budget: {waited_ms} ms");
            }
            other => panic!("expected QueueTimeout, got {other:?}"),
        }
        assert!(waited >= Duration::from_millis(100));
        // Generous upper tolerance for a loaded 1-CPU box.
        assert!(waited < Duration::from_secs(5), "waited {waited:?}");
        assert_eq!(reg.snapshot().counter("lawsdb_server_queue_timeout"), 1);
        assert_eq!(reg.snapshot().counter("lawsdb_server_queued"), 1);
    }

    #[test]
    fn queued_request_runs_when_the_slot_frees() {
        let (c, reg) = controller(AdmissionConfig {
            max_concurrent_queries: 1,
            max_queued: 4,
            queue_timeout: Duration::from_secs(10),
            ..AdmissionConfig::default()
        });
        let held = c.admit(0).unwrap();
        let c2 = Arc::clone(&c);
        let waiter = std::thread::spawn(move || c2.admit(0).map(drop).is_ok());
        std::thread::sleep(Duration::from_millis(50));
        drop(held);
        assert!(waiter.join().unwrap(), "queued request must be admitted after release");
        assert_eq!(reg.snapshot().counter("lawsdb_server_admitted"), 2);
        assert_eq!(reg.snapshot().counter("lawsdb_server_queued"), 1);
        assert_eq!(reg.snapshot().counter("lawsdb_server_rejected"), 0);
    }

    #[test]
    fn memory_gate_blocks_until_reservations_drain() {
        let (c, _reg) = controller(AdmissionConfig {
            max_concurrent_queries: 8,
            max_queued: 4,
            queue_timeout: Duration::from_millis(100),
            global_memory_bytes: Some(100),
            default_reserve_bytes: 0,
            ..AdmissionConfig::default()
        });
        let p60 = c.admit(60).unwrap();
        let _p40 = c.admit(40).unwrap();
        // Concurrency slots remain, but the memory cap is exhausted.
        let err = c.admit(1).unwrap_err();
        assert!(matches!(err, AdmissionError::QueueTimeout { .. }), "{err:?}");
        drop(p60);
        assert!(c.admit(1).is_ok());
    }
}
