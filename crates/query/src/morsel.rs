//! Morsel-driven parallel execution primitives.
//!
//! A *morsel* is a contiguous row range of a table. The executor splits
//! pipeline inputs into fixed-size morsels, a small pool of scoped
//! worker threads pulls morsels off a shared atomic counter, and the
//! per-morsel results are merged **in morsel order** — so the output
//! (and any floating-point accumulation) is bit-identical no matter how
//! many workers run or how the OS schedules them. Table slicing is
//! zero-copy ([`lawsdb_storage::Table::slice`] shares value buffers),
//! so fan-out costs O(morsels), not O(rows).

use crate::error::{QueryError, Result};
use crate::governor::{CancelToken, Governor, ResourceBudget};
use crate::pruning::ScanStatsCollector;
use lawsdb_obs::{fields, ProfileContext};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

/// Default rows per morsel: large enough to amortize dispatch, small
/// enough to load-balance skewed predicates.
pub const DEFAULT_MORSEL_ROWS: usize = 64 * 1024;

/// Knobs for the parallel executor.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads; `0` means one per available core. Explicit
    /// counts are clamped to the machine's available parallelism:
    /// oversubscribing cores only adds scheduling overhead (2 threads
    /// on 1 core measured 0.90× on a filter scan).
    pub threads: usize,
    /// Rows per morsel.
    pub morsel_rows: usize,
    /// Consult table synopses (zone maps, model bounds) to skip row
    /// ranges before evaluating predicates. On by default; benchmarks
    /// and equivalence tests turn it off to get the unpruned baseline.
    pub pruning: bool,
    /// Optional shared sink for scan-pruning counters. The executor
    /// always reports per-query [`crate::pruning::ScanStats`] through
    /// [`crate::exec::QueryResult`]; a caller-provided collector
    /// additionally accumulates across queries.
    pub stats: Option<Arc<ScanStatsCollector>>,
    /// Resource limits for each query run under these options. The
    /// executor arms a fresh [`Governor`] per query, so the deadline
    /// clock starts at query start, not options construction.
    pub budget: ResourceBudget,
    /// Cooperative cancellation handle, honored at morsel granularity.
    pub cancel: Option<CancelToken>,
    /// The armed per-query governor. Set by the executor when a query
    /// starts (from `budget` + `cancel`); callers leave it `None`.
    pub governor: Option<Arc<Governor>>,
    /// Execution-profile sink. When set, the executor records plan-node
    /// spans, per-morsel timing leaves, and pruning/governor points
    /// into it; `None` (the default) costs one branch per site.
    pub profile: Option<ProfileContext>,
    /// Server-minted query id, threaded through for observability
    /// (histogram exemplars, flight-recorder traces). `0` means
    /// unattributed. Pure observer identity — excluded from `PartialEq`
    /// so it can never key the plan cache.
    pub query_id: u64,
}

impl PartialEq for ExecOptions {
    fn eq(&self, other: &Self) -> bool {
        // The stats sink, the cancel token, the armed governor, the
        // profile sink and the query id are observers / runtime state,
        // not behavioral knobs.
        self.threads == other.threads
            && self.morsel_rows == other.morsel_rows
            && self.pruning == other.pruning
            && self.budget == other.budget
    }
}

impl Eq for ExecOptions {}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: 0,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            pruning: true,
            stats: None,
            budget: ResourceBudget::default(),
            cancel: None,
            governor: None,
            profile: None,
            query_id: 0,
        }
    }
}

impl ExecOptions {
    /// Single-threaded execution (still morselized, so results match
    /// the parallel path exactly).
    pub fn serial() -> ExecOptions {
        ExecOptions { threads: 1, ..ExecOptions::default() }
    }

    /// Default options with an explicit thread count.
    pub fn with_threads(threads: usize) -> ExecOptions {
        ExecOptions { threads, ..ExecOptions::default() }
    }

    /// Default options with pruning disabled (the exhaustive-scan
    /// baseline every pruned result must match bit-for-bit).
    pub fn unpruned() -> ExecOptions {
        ExecOptions { pruning: false, ..ExecOptions::default() }
    }

    /// The thread count actually used: `threads` clamped to the
    /// machine's available parallelism, or that parallelism itself when
    /// `threads == 0`. Morsel scheduling makes results identical for
    /// any worker count, so clamping never changes output — only the
    /// oversubscription overhead.
    pub fn effective_threads(&self) -> usize {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        if self.threads > 0 {
            self.threads.min(cores)
        } else {
            cores
        }
    }

    /// Default options with a resource budget.
    pub fn with_budget(budget: ResourceBudget) -> ExecOptions {
        ExecOptions { budget, ..ExecOptions::default() }
    }

    /// The morsel-boundary governor check; a no-op without a governor.
    pub fn governor_check(&self) -> Result<()> {
        match &self.governor {
            Some(g) => g.check(),
            None => Ok(()),
        }
    }

    /// Charge scanned rows against the armed governor, if any. With a
    /// profile sink set, every charge becomes a `governor.rows` point
    /// recording the amount and whether the budget admitted it.
    pub fn charge_rows(&self, rows: usize) -> Result<()> {
        match &self.governor {
            Some(g) => {
                let r = g.charge_rows(rows);
                if let Some(ctx) = &self.profile {
                    ctx.point("governor.rows", fields![rows, ok = r.is_ok()]);
                }
                r
            }
            None => Ok(()),
        }
    }

    /// Charge materialized bytes against the armed governor, if any.
    /// Profiled like [`ExecOptions::charge_rows`], as `governor.memory`.
    pub fn charge_memory(&self, bytes: usize) -> Result<()> {
        match &self.governor {
            Some(g) => {
                let r = g.charge_memory(bytes);
                if let Some(ctx) = &self.profile {
                    ctx.point("governor.memory", fields![bytes, ok = r.is_ok()]);
                }
                r
            }
            None => Ok(()),
        }
    }
}

/// Render a caught panic payload (the common `&str` / `String` cases,
/// then a fallback).
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one morsel under panic isolation: a panicking kernel becomes a
/// structured [`QueryError::WorkerPanic`] for *this* query instead of
/// unwinding through the executor and tearing down unrelated work.
fn run_morsel<R>(
    work: &(impl Fn(usize, usize) -> Result<R> + Sync),
    offset: usize,
    len: usize,
) -> Result<R> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(offset, len))) {
        Ok(r) => r,
        Err(payload) => {
            Err(QueryError::WorkerPanic { detail: panic_detail(payload), offset })
        }
    }
}

/// [`run_morsel`], plus a per-morsel timing leaf when a profile sink is
/// set. Timing uses the *collector's* clock (not `Instant` directly) so
/// a `MockClock` run produces the same tree byte for byte; the leaf's
/// `offset` index makes sibling order worker-schedule-independent.
fn run_morsel_profiled<R>(
    work: &(impl Fn(usize, usize) -> Result<R> + Sync),
    profile: Option<&ProfileContext>,
    offset: usize,
    len: usize,
) -> Result<R> {
    let Some(ctx) = profile else {
        return run_morsel(work, offset, len);
    };
    let t0 = ctx.now_micros();
    let r = run_morsel(work, offset, len);
    let duration_us = ctx.now_micros().saturating_sub(t0);
    ctx.leaf("morsel", offset as u64, fields![rows = len, duration_us, ok = r.is_ok()]);
    r
}

/// Split `n_rows` into `(offset, len)` morsel ranges in row order.
pub fn morsel_ranges(n_rows: usize, morsel_rows: usize) -> Vec<(usize, usize)> {
    let step = morsel_rows.max(1);
    (0..n_rows).step_by(step).map(|o| (o, step.min(n_rows - o))).collect()
}

/// Run `work(offset, len)` over every morsel of an `n_rows` input and
/// return the results in morsel order, regardless of which worker
/// produced them or when.
///
/// Workers claim morsels from an atomic counter (work-stealing-free
/// dynamic scheduling); errors are surfaced in morsel order so failures
/// are deterministic too. With one effective thread (or one morsel) the
/// work runs inline on the caller's thread.
pub fn parallel_morsels<R, F>(n_rows: usize, opts: &ExecOptions, work: F) -> Result<Vec<R>>
where
    R: Send,
    F: Fn(usize, usize) -> Result<R> + Sync,
{
    let morsels = morsel_ranges(n_rows, opts.morsel_rows);
    let threads = opts.effective_threads().min(morsels.len());
    if threads <= 1 {
        return morsels
            .into_iter()
            .map(|(o, l)| {
                opts.governor_check()?;
                run_morsel_profiled(&work, opts.profile.as_ref(), o, l)
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<R>)>();
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let morsels = &morsels;
            let work = &work;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(offset, len)) = morsels.get(i) else { break };
                // The budget/cancel check runs before each morsel
                // starts: a cancelled or out-of-time query stops
                // within one morsel, with the error surfacing in
                // deterministic morsel order like any kernel error.
                let r = match opts.governor_check() {
                    Ok(()) => {
                        run_morsel_profiled(&work, opts.profile.as_ref(), offset, len)
                    }
                    Err(e) => Err(e),
                };
                if tx.send((i, r)).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    let mut out: Vec<Option<Result<R>>> = (0..morsels.len()).map(|_| None).collect();
    for (i, r) in rx {
        out[i] = Some(r);
    }
    out.into_iter()
        .map(|r| {
            // catch_unwind means a worker cannot die mid-morsel, so a
            // missing slot is a logic error — still surfaced as a
            // structured error rather than a panic of our own.
            r.unwrap_or_else(|| {
                Err(QueryError::WorkerPanic {
                    detail: "morsel produced no result".to_string(),
                    offset: 0,
                })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::QueryError;

    #[test]
    fn ranges_cover_rows_exactly_once() {
        for (n, m) in [(0, 10), (1, 10), (10, 10), (25, 10), (100, 1), (7, 100)] {
            let ranges = morsel_ranges(n, m);
            let mut next = 0;
            for (o, l) in ranges {
                assert_eq!(o, next);
                assert!(l >= 1 && l <= m);
                next = o + l;
            }
            assert_eq!(next, n, "n={n} m={m}");
        }
    }

    #[test]
    fn zero_morsel_rows_does_not_loop_forever() {
        assert_eq!(morsel_ranges(3, 0), vec![(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn results_come_back_in_morsel_order() {
        let opts = ExecOptions { threads: 4, morsel_rows: 3, ..ExecOptions::default() };
        let got = parallel_morsels(20, &opts, |offset, len| Ok((offset, len))).unwrap();
        assert_eq!(got, morsel_ranges(20, 3));
    }

    #[test]
    fn serial_and_parallel_agree() {
        let work = |offset: usize, len: usize| Ok((offset..offset + len).sum::<usize>());
        let serial =
            parallel_morsels(1000, &ExecOptions { threads: 1, morsel_rows: 17, ..ExecOptions::default() }, work).unwrap();
        let parallel =
            parallel_morsels(1000, &ExecOptions { threads: 8, morsel_rows: 17, ..ExecOptions::default() }, work).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn first_error_in_morsel_order_wins() {
        let opts = ExecOptions { threads: 4, morsel_rows: 1, ..ExecOptions::default() };
        let err = parallel_morsels(10, &opts, |offset, _| {
            if offset >= 3 {
                Err(QueryError::Unsupported { what: format!("morsel {offset}") })
            } else {
                Ok(offset)
            }
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "unsupported SQL: morsel 3");
    }

    #[test]
    fn explicit_thread_counts_clamp_to_available_parallelism() {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(ExecOptions::with_threads(1024).effective_threads(), cores);
        assert_eq!(ExecOptions::with_threads(1).effective_threads(), 1);
        assert_eq!(ExecOptions::default().effective_threads(), cores);
    }

    #[test]
    fn empty_input_yields_no_morsels() {
        let got: Vec<usize> =
            parallel_morsels(0, &ExecOptions::default(), |_, _| Ok(1)).unwrap();
        assert!(got.is_empty());
    }
}
