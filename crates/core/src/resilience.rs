//! Graceful model-to-exact degradation: the resilience ladder.
//!
//! The paper's transparent query path answers from a captured model
//! whenever one covers the query. This module makes that path *safe to
//! trust*: before an approximate answer is returned, the engine verifies
//! the answering model is still current (row count unchanged since the
//! fit, sampled residuals within the fitted bound); a model that fails
//! either check is demoted to [`ModelState::Stale`](lawsdb_models::ModelState)
//! and the query transparently re-runs on the exact path. Every such
//! decision is recorded as a [`DegradeReason`] on the returned
//! [`ResilientAnswer`] and counted in the engine's [`HealthCounters`] —
//! degradation is observable, never silent.
//!
//! The same ladder covers storage: a quarantined (checksum-failed) page
//! is first re-derived from a covering model
//! ([`DurableDb::read_table_resilient`](crate::DurableDb::read_table_resilient)),
//! and only if no model covers the lost column does the read degrade to
//! a partial table carrying a warning.
//!
//! The drift sampler is seeded from `LAWSDB_FAULT_SEED` (read by
//! [`lawsdb_storage::fault::fault_seed`]), so every degradation
//! decision is reproducible from a printed seed — the same discipline
//! the crash matrix uses.

use crate::engine::Answer;
use lawsdb_models::model::ModelId;
use lawsdb_obs::{Counter, MetricsRegistry};
use std::sync::Arc;

/// Why a query (or read) was answered by a lower rung of the ladder
/// than the one that was tried first.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradeReason {
    /// No captured model covers the query; answered exactly. The normal
    /// fallback, recorded so callers can tell it from model demotions.
    NoModel {
        /// The approximate engine's refusal, stringified.
        detail: String,
    },
    /// The answering model was fitted against a different row count
    /// than the table now has; demoted to stale, answered exactly.
    StaleRowCount {
        /// The demoted model.
        model: ModelId,
        /// Rows when the model was fitted.
        rows_at_fit: usize,
        /// Rows now.
        rows_now: usize,
    },
    /// Sampled residuals exceeded the model's fitted bound — the data
    /// drifted under the model; demoted to stale, answered exactly.
    ResidualDrift {
        /// The demoted model.
        model: ModelId,
        /// Largest sampled |observed − predicted|.
        observed: f64,
        /// The fitted max |residual| the sample was judged against.
        bound: f64,
        /// Seed the sample rows were drawn from (reproduces the check).
        seed: u64,
    },
    /// A column whose pages failed checksum verification was re-derived
    /// from a covering model instead of being lost.
    ColumnReconstructed {
        /// The lost column.
        column: String,
        /// The model that re-derived it.
        model: ModelId,
        /// ±bound on the reconstructed values, when the model has one.
        error_bound: Option<f64>,
    },
    /// A column failed checksum verification and no model covers it;
    /// the table was returned without it.
    ColumnLost {
        /// The dropped column.
        column: String,
        /// The storage error, stringified.
        detail: String,
    },
    /// Every replica of a cluster shard was down; the shard's slice of
    /// the answer was reconstructed from its captured model instead of
    /// its base rows.
    ShardModelFallback {
        /// The shard whose replicas were all unavailable.
        shard: usize,
        /// ±bound on the reconstructed values, when the model has one.
        error_bound: Option<f64>,
    },
}

impl DegradeReason {
    /// Stable snake_case tag for metrics labels and profile fields.
    pub fn name(&self) -> &'static str {
        match self {
            DegradeReason::NoModel { .. } => "no_model",
            DegradeReason::StaleRowCount { .. } => "stale_row_count",
            DegradeReason::ResidualDrift { .. } => "residual_drift",
            DegradeReason::ColumnReconstructed { .. } => "column_reconstructed",
            DegradeReason::ColumnLost { .. } => "column_lost",
            DegradeReason::ShardModelFallback { .. } => "shard_model_fallback",
        }
    }
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::NoModel { detail } => {
                write!(f, "no covering model ({detail}); answered exactly")
            }
            DegradeReason::StaleRowCount { model, rows_at_fit, rows_now } => write!(
                f,
                "model {} fitted at {rows_at_fit} rows but table has {rows_now}; \
                 demoted to stale, answered exactly",
                model.0
            ),
            DegradeReason::ResidualDrift { model, observed, bound, seed } => write!(
                f,
                "model {} drifted: sampled residual {observed:e} exceeds bound {bound:e} \
                 (seed {seed}); demoted to stale, answered exactly",
                model.0
            ),
            DegradeReason::ColumnReconstructed { column, model, error_bound } => write!(
                f,
                "column {column:?} failed verification; reconstructed from model {}{}",
                model.0,
                match error_bound {
                    Some(b) => format!(" (±{b:e})"),
                    None => String::new(),
                }
            ),
            DegradeReason::ColumnLost { column, detail } => {
                write!(f, "column {column:?} failed verification ({detail}) and no model covers it; dropped")
            }
            DegradeReason::ShardModelFallback { shard, error_bound } => write!(
                f,
                "all replicas of shard {shard} down; answered from its captured model{}",
                match error_bound {
                    Some(b) => format!(" (±{b:e})"),
                    None => String::new(),
                }
            ),
        }
    }
}

/// An answer plus the degradation decisions taken to produce it. An
/// empty `degraded` list means the first-choice path answered.
#[derive(Debug, Clone)]
pub struct ResilientAnswer {
    /// The answer (exact or approximate).
    pub answer: Answer,
    /// Every rung of the ladder that was skipped, in decision order.
    pub degraded: Vec<DegradeReason>,
}

/// Engine-lifetime degradation counters — thin views over named
/// [`MetricsRegistry`] counters (`lawsdb_core_*`), so the engine's
/// health is on the same exposition path as every other metric while
/// the `snapshot()` API callers already use keeps working.
#[derive(Debug)]
pub struct HealthCounters {
    approx_answers: Arc<Counter>,
    exact_fallbacks: Arc<Counter>,
    stale_demotions: Arc<Counter>,
    drift_demotions: Arc<Counter>,
    columns_reconstructed: Arc<Counter>,
    columns_lost: Arc<Counter>,
}

impl Default for HealthCounters {
    /// Standalone counters over a private registry (tests, ad-hoc use);
    /// the engine binds to its own registry via
    /// [`HealthCounters::for_registry`].
    fn default() -> Self {
        HealthCounters::for_registry(&MetricsRegistry::new())
    }
}

/// Point-in-time copy of [`HealthCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthSnapshot {
    /// Queries the model path answered.
    pub approx_answers: u64,
    /// Queries degraded to the exact path (any reason).
    pub exact_fallbacks: u64,
    /// Models demoted for a row-count mismatch.
    pub stale_demotions: u64,
    /// Models demoted for sampled-residual drift.
    pub drift_demotions: u64,
    /// Quarantined columns re-derived from a model.
    pub columns_reconstructed: u64,
    /// Quarantined columns dropped with a warning.
    pub columns_lost: u64,
}

impl HealthCounters {
    /// Bind to named counters in `registry` (`lawsdb_core_*`), so the
    /// same increments feed both [`HealthCounters::snapshot`] and the
    /// registry's Prometheus/JSON exposition.
    pub fn for_registry(registry: &MetricsRegistry) -> HealthCounters {
        HealthCounters {
            approx_answers: registry.counter("lawsdb_core_approx_answers"),
            exact_fallbacks: registry.counter("lawsdb_core_exact_fallbacks"),
            stale_demotions: registry.counter("lawsdb_core_stale_demotions"),
            drift_demotions: registry.counter("lawsdb_core_drift_demotions"),
            columns_reconstructed: registry.counter("lawsdb_core_columns_reconstructed"),
            columns_lost: registry.counter("lawsdb_core_columns_lost"),
        }
    }

    pub(crate) fn record(&self, reason: &DegradeReason) {
        self.exact_fallbacks.inc();
        match reason {
            DegradeReason::NoModel { .. } => {}
            DegradeReason::StaleRowCount { .. } => self.stale_demotions.inc(),
            DegradeReason::ResidualDrift { .. } => self.drift_demotions.inc(),
            DegradeReason::ColumnReconstructed { .. } => {
                self.columns_reconstructed.inc();
            }
            DegradeReason::ColumnLost { .. } => self.columns_lost.inc(),
            // Counted by the cluster's own lawsdb_cluster_model_fallbacks
            // metric; here it only contributes to exact_fallbacks.
            DegradeReason::ShardModelFallback { .. } => {}
        }
    }

    pub(crate) fn record_approx(&self) {
        self.approx_answers.inc();
    }

    /// Current counter values.
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            approx_answers: self.approx_answers.get(),
            exact_fallbacks: self.exact_fallbacks.get(),
            stale_demotions: self.stale_demotions.get(),
            drift_demotions: self.drift_demotions.get(),
            columns_reconstructed: self.columns_reconstructed.get(),
            columns_lost: self.columns_lost.get(),
        }
    }
}

/// SplitMix64 — the same tiny deterministic generator the fault
/// injector uses, so sampled row sets are reproducible from the seed.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Draw `k` distinct row indices in `0..rows`, sorted, from the
/// SplitMix64 stream at `state`, which is left where the draw ended, so
/// a further call draws the stream's next rows (deterministic; at most
/// `rows` indices).
pub(crate) fn sample_rows(state: &mut u64, rows: usize, k: usize) -> Vec<usize> {
    let mut picked = std::collections::BTreeSet::new();
    let want = k.min(rows);
    // 4·k draws always suffice for k ≤ rows/2; fall back to a dense
    // scan for tiny tables where collisions dominate.
    for _ in 0..want * 4 {
        if picked.len() == want {
            break;
        }
        picked.insert((splitmix64(state) % rows as u64) as usize);
    }
    let mut i = 0;
    while picked.len() < want {
        picked.insert(i);
        i += 1;
    }
    picked.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_distinct() {
        let (mut s42, mut again, mut s43) = (42, 42, 43);
        let a = sample_rows(&mut s42, 1000, 16);
        let b = sample_rows(&mut again, 1000, 16);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
        let c = sample_rows(&mut s43, 1000, 16);
        assert_ne!(a, c, "different seeds draw different rows");
        // The stream goes on: the next draw from the same state differs.
        assert_ne!(sample_rows(&mut s42, 1000, 16), a);
    }

    #[test]
    fn sampling_small_tables_covers_everything() {
        assert_eq!(sample_rows(&mut 7, 3, 16), vec![0, 1, 2]);
        assert!(sample_rows(&mut 7, 0, 16).is_empty());
    }

    #[test]
    fn health_counters_attribute_reasons() {
        let h = HealthCounters::default();
        h.record(&DegradeReason::NoModel { detail: "x".into() });
        h.record(&DegradeReason::StaleRowCount {
            model: ModelId(1),
            rows_at_fit: 10,
            rows_now: 11,
        });
        h.record(&DegradeReason::ResidualDrift {
            model: ModelId(1),
            observed: 1.0,
            bound: 0.1,
            seed: 42,
        });
        let s = h.snapshot();
        assert_eq!(s.exact_fallbacks, 3);
        assert_eq!(s.stale_demotions, 1);
        assert_eq!(s.drift_demotions, 1);
        assert_eq!(s.approx_answers, 0);
    }
}
