//! Satellite (c): pin the disabled-path cost. With no subscriber
//! installed, `Tracer::emit` is one relaxed atomic load; a burst of
//! disabled emits must be within a small constant factor of an
//! equivalent burst of plain atomic loads, and must never invoke the
//! field closure. What tracing costs a whole query is the end-to-end
//! benchmark's `trace.overhead_pct`; this test is the functional floor
//! that runs everywhere.

use lawsdb_obs::trace::tracer;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

const ITERS: u64 = 2_000_000;

fn best_of<F: FnMut() -> u128>(mut f: F, trials: usize) -> u128 {
    (0..trials).map(|_| f()).min().unwrap_or(u128::MAX)
}

#[test]
fn disabled_emit_is_a_single_flag_check() {
    // No subscriber installed in this process.
    assert!(!tracer().is_enabled());

    let calls = AtomicU64::new(0);
    let disabled = best_of(
        || {
            let start = Instant::now();
            for i in 0..ITERS {
                tracer().emit("obs.overhead.probe", || {
                    calls.fetch_add(1, Ordering::Relaxed);
                    vec![("i", lawsdb_obs::FieldValue::U64(i))]
                });
            }
            start.elapsed().as_nanos()
        },
        5,
    );
    assert_eq!(calls.load(Ordering::Relaxed), 0, "disabled emit built fields");

    // Baseline: the same loop doing just the relaxed flag load.
    let flag = AtomicBool::new(false);
    let baseline = best_of(
        || {
            let start = Instant::now();
            let mut acc = 0u64;
            for _ in 0..ITERS {
                acc += u64::from(flag.load(Ordering::Relaxed));
            }
            std::hint::black_box(acc);
            start.elapsed().as_nanos()
        },
        5,
    );

    let per_emit_ns = disabled as f64 / ITERS as f64;
    // Generous functional bound: a disabled emit must stay in the
    // few-nanoseconds regime (the bench sweep enforces the real gate).
    assert!(
        per_emit_ns < 50.0,
        "disabled emit cost {per_emit_ns:.2} ns/op (baseline load: {:.2} ns/op)",
        baseline as f64 / ITERS as f64
    );
}
