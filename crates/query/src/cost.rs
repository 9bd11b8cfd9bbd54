//! Per-operator cost constants.
//!
//! The pricing pass ([`crate::physical`]) prices candidate access paths
//! in microseconds using a handful of per-tuple constants. The defaults
//! below are ballpark figures fixed at compile time, so the same
//! statement over the same statistics always prices the same way.
//! Calibrating them is a source edit, measured by the benchmark's
//! `query.plan_us` and `shape.*` rows.

/// Per-operator cost constants, all in microseconds per unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConstants {
    /// Materialising one row out of column storage into a scan chunk.
    pub scan_tuple_us: f64,
    /// Evaluating one predicate conjunct on one row (vectorized kernel).
    pub eval_tuple_us: f64,
    /// Gathering one row from a zone the synopsis accepted wholesale.
    pub accept_tuple_us: f64,
    /// Consulting the zonemap/model synopsis for one zone.
    pub zone_decide_us: f64,
    /// Reconstructing one tuple from a model (approximate path): the
    /// scalar enumeration/prediction machinery, orders of magnitude
    /// heavier per row than the vectorized scan kernels.
    pub reconstruct_tuple_us: f64,
    /// Fixed overhead of one model-path answer: catalog lookup,
    /// coverage match, and the engine's post-hoc freshness check
    /// (which samples base rows and re-predicts them).
    pub model_answer_us: f64,
    /// Folding one row into an aggregate accumulator.
    pub agg_tuple_us: f64,
    /// Folding one zone's materialized aggregate partial
    /// ([`ZoneAgg`](lawsdb_storage::zonemap::ZoneAgg)) into the
    /// accumulator — constant work per zone, independent of zone rows.
    pub agg_zone_fold_us: f64,
    /// One compare-and-move in a sort.
    pub sort_tuple_us: f64,
}

impl Default for CostConstants {
    fn default() -> CostConstants {
        CostConstants {
            scan_tuple_us: 0.004,
            eval_tuple_us: 0.002,
            accept_tuple_us: 0.001,
            zone_decide_us: 0.15,
            reconstruct_tuple_us: 1.5,
            model_answer_us: 40.0,
            agg_tuple_us: 0.004,
            agg_zone_fold_us: 0.02,
            sort_tuple_us: 0.010,
        }
    }
}

impl CostConstants {
    /// Estimated cost of answering from the model catalog instead of
    /// base data: reconstruct `tuples` rows plus the fixed per-answer
    /// fee. The model path is zero-IO but *not* free — it wins when the
    /// scan is large and the reconstructed result is small, and the
    /// constants are deliberately calibrated so tiny in-memory scans
    /// keep beating it.
    pub fn model_answer_cost_us(&self, tuples: f64) -> f64 {
        self.model_answer_us + tuples.max(0.0) * self.reconstruct_tuple_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_answer_cost_scales_with_tuples() {
        let c = CostConstants::default();
        assert!(c.model_answer_cost_us(1000.0) > c.model_answer_cost_us(10.0));
        assert!(c.model_answer_cost_us(0.0) > 0.0);
    }
}
