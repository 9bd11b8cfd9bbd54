//! Data-anomaly detection from fit quality (Section 4.2):
//!
//! > "Often, the observations that do not fit the model are of supreme
//! > interest. These will stand out in the fitting process by for
//! > example showing large residual errors. … In our LOFAR example,
//! > there is a small number of radio sources where the intensity is
//! > seemingly unrelated to the frequency."
//!
//! Ranks grouped-model groups by misfit and scores rankings against
//! planted ground truth (the synthetic LOFAR generator injects known
//! anomalous sources).

use lawsdb_models::CapturedModel;
use std::collections::HashSet;

/// How to score a group's "interestingness".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MisfitScore {
    /// Raw residual standard error (largest = most anomalous). Simple,
    /// but conflates noisy-but-conforming with non-conforming groups.
    ResidualSe,
    /// `1 − R²` — fraction of variance the law fails to explain; the
    /// scale-free measure (a bright source's absolute residuals dwarf a
    /// faint source's even when both follow the law).
    OneMinusR2,
}

/// A ranked anomaly candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anomaly {
    /// Group key.
    pub key: i64,
    /// Misfit score (higher = more anomalous).
    pub score: f64,
}

/// Rank a grouped model's groups worst-fit-first.
///
/// Returns an empty list for global models (nothing to rank).
pub fn rank_anomalies(model: &CapturedModel, score: MisfitScore) -> Vec<Anomaly> {
    let params = &model.params;
    let mut out: Vec<Anomaly> = (params.keys.iter().enumerate())
        .map(|(row, &key)| Anomaly {
            key,
            score: match score {
                MisfitScore::ResidualSe => params.residual_se[row],
                MisfitScore::OneMinusR2 => {
                    let r2 = params.r2[row];
                    if r2.is_nan() {
                        1.0
                    } else {
                        1.0 - r2
                    }
                }
            },
        })
        .collect();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.key.cmp(&b.key))
    });
    out
}

/// Precision@k: fraction of the top-k ranked keys that are true
/// anomalies.
pub fn precision_at_k(ranked: &[Anomaly], truth: &HashSet<i64>, k: usize) -> f64 {
    if k == 0 {
        return f64::NAN;
    }
    let k = k.min(ranked.len());
    if k == 0 {
        return 0.0;
    }
    let hits = ranked[..k].iter().filter(|a| truth.contains(&a.key)).count();
    hits as f64 / k as f64
}

/// Recall@k: fraction of true anomalies found in the top k.
pub fn recall_at_k(ranked: &[Anomaly], truth: &HashSet<i64>, k: usize) -> f64 {
    if truth.is_empty() {
        return f64::NAN;
    }
    let k = k.min(ranked.len());
    let hits = ranked[..k].iter().filter(|a| truth.contains(&a.key)).count();
    hits as f64 / truth.len() as f64
}

/// Average precision over the full ranking (area under the
/// precision-recall curve, the single-number summary E8 reports).
pub fn average_precision(ranked: &[Anomaly], truth: &HashSet<i64>) -> f64 {
    if truth.is_empty() {
        return f64::NAN;
    }
    let mut hits = 0usize;
    let mut sum = 0.0;
    for (i, a) in ranked.iter().enumerate() {
        if truth.contains(&a.key) {
            hits += 1;
            sum += hits as f64 / (i + 1) as f64;
        }
    }
    sum / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use lawsdb_expr::parse_formula;
    use lawsdb_models::model::{Coverage, ModelParams};

    fn coverage() -> Coverage {
        Coverage {
            table: "t".to_string(),
            response: "y".to_string(),
            variables: vec!["x".to_string()],
            rows_at_fit: 0,
            predicate: None,
            domains: Vec::new(),
        }
    }

    /// A grouped model of `(key, residual_se, r2)` rows, keys ascending.
    fn model_with_groups(groups: Vec<(i64, f64, f64)>) -> CapturedModel {
        let rows = groups.len();
        let params = ModelParams {
            group_column: Some("g".to_string()),
            names: vec!["a".to_string(), "p".to_string()],
            keys: groups.iter().map(|g| g.0).collect(),
            values: vec![vec![1.0; rows]; 2],
            residual_se: groups.iter().map(|g| g.1).collect(),
            r2: groups.iter().map(|g| g.2).collect(),
            n: vec![40; rows],
        };
        let f = parse_formula("y ~ p * x ^ a").unwrap();
        CapturedModel::new(f, params, coverage(), 0.9).unwrap()
    }

    #[test]
    fn ranking_orders_by_score_desc() {
        let m = model_with_groups(vec![(1, 0.01, 0.99), (2, 0.5, 0.10), (3, 0.05, 0.90)]);
        let r = rank_anomalies(&m, MisfitScore::ResidualSe);
        assert_eq!(r.iter().map(|a| a.key).collect::<Vec<_>>(), vec![2, 3, 1]);
        let r2 = rank_anomalies(&m, MisfitScore::OneMinusR2);
        assert_eq!(r2[0].key, 2);
        assert!((r2[0].score - 0.9).abs() < 1e-12);
    }

    #[test]
    fn scale_free_score_beats_raw_rse_on_bright_sources() {
        // Group 10 is bright: large absolute residuals but perfect law
        // (high R²). Group 20 is faint but lawless (low R²).
        let m = model_with_groups(vec![(10, 5.0, 0.999), (20, 0.2, 0.05)]);
        let by_rse = rank_anomalies(&m, MisfitScore::ResidualSe);
        assert_eq!(by_rse[0].key, 10, "raw RSE is fooled by brightness");
        let by_r2 = rank_anomalies(&m, MisfitScore::OneMinusR2);
        assert_eq!(by_r2[0].key, 20, "1−R² finds the lawless group");
    }

    #[test]
    fn precision_recall_math() {
        let ranked = vec![
            Anomaly { key: 1, score: 0.9 },
            Anomaly { key: 2, score: 0.8 },
            Anomaly { key: 3, score: 0.7 },
            Anomaly { key: 4, score: 0.6 },
        ];
        let truth: HashSet<i64> = [1, 3].into_iter().collect();
        assert_eq!(precision_at_k(&ranked, &truth, 1), 1.0);
        assert_eq!(precision_at_k(&ranked, &truth, 2), 0.5);
        assert_eq!(recall_at_k(&ranked, &truth, 2), 0.5);
        assert_eq!(recall_at_k(&ranked, &truth, 4), 1.0);
        // AP = (1/1 + 2/3)/2
        assert!((average_precision(&ranked, &truth) - (1.0 + 2.0 / 3.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn edge_cases() {
        let ranked: Vec<Anomaly> = Vec::new();
        let truth: HashSet<i64> = [1].into_iter().collect();
        assert_eq!(precision_at_k(&ranked, &truth, 5), 0.0);
        assert_eq!(recall_at_k(&ranked, &truth, 5), 0.0);
        assert!(precision_at_k(&ranked, &truth, 0).is_nan());
        let empty_truth = HashSet::new();
        assert!(recall_at_k(&ranked, &empty_truth, 1).is_nan());
        assert!(average_precision(&ranked, &empty_truth).is_nan());
    }

    #[test]
    fn global_model_has_no_ranking() {
        let params = ModelParams::global(vec!["a".into(), "p".into()], vec![1.0; 2], 0.1, 0.9, 10);
        let f = parse_formula("y ~ p * x ^ a").unwrap();
        let m = CapturedModel::new(f, params, coverage(), 0.9).unwrap();
        assert!(rank_anomalies(&m, MisfitScore::ResidualSe).is_empty());
    }
}
