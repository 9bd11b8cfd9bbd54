//! The fit layer's quality judgments are on the event stream: every
//! `FitDiagnostics::compute` emits one `fit.diagnostics` event carrying
//! the paper's Table 1 columns. This file owns its process, and its
//! tests take turns on the process-global tracer behind [`TRACER`].

use lawsdb_fit::diagnostics::FitDiagnostics;
use lawsdb_obs::trace::{tracer, FieldValue};
use lawsdb_obs::{MockClock, RingBufferSink};
use std::sync::{Arc, Mutex, MutexGuard};

/// The tracer is process-global and the test harness runs tests on
/// parallel threads: one test's install must not overlap another's
/// "nothing is installed" assertion.
static TRACER: Mutex<()> = Mutex::new(());

fn tracer_turn() -> MutexGuard<'static, ()> {
    TRACER.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn every_judged_fit_emits_a_diagnostics_event() {
    let _turn = tracer_turn();
    let sink = RingBufferSink::new(16);
    tracer().install(Arc::clone(&sink), Arc::new(MockClock::new(1)));

    let names = vec!["b0".to_string(), "b1".to_string()];
    let d = FitDiagnostics::compute(5, &names, &[0.0, 1.0], 0.05, 10.0, None);
    tracer().uninstall();

    let events = sink.drain();
    let diag: Vec<_> =
        events.iter().filter(|e| e.name == "fit.diagnostics").collect();
    assert_eq!(diag.len(), 1);
    assert_eq!(diag[0].field("n").and_then(FieldValue::as_u64), Some(5));
    assert_eq!(diag[0].field("p").and_then(FieldValue::as_u64), Some(2));
    let r2 = match diag[0].field("r2") {
        Some(FieldValue::F64(v)) => *v,
        other => panic!("r2 should be an f64 field, got {other:?}"),
    };
    assert_eq!(r2, d.r2);
    assert!(diag[0].field("residual_se").is_some());
    assert!(diag[0].field("f_stat").is_some());
}

#[test]
fn no_subscriber_means_compute_is_silent_and_cheap() {
    let _turn = tracer_turn();
    assert!(!tracer().is_enabled());
    let names = vec!["k".to_string()];
    // Must not panic or allocate event payloads with no subscriber.
    let d = FitDiagnostics::compute(10, &names, &[2.0], 1.0, 100.0, None);
    assert!(d.is_acceptable(0.9, 0.05));
}
