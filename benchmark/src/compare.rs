//! `compare <dir-a> <dir-b>`: hold two sets of result files against
//! each other, one workload per row.
//!
//! For every (workload, end-to-end metric) it prints each side's median
//! and quartiles and a verdict:
//!
//! * `unresolved` — either side's run-to-run spread (distance between
//!   its quartiles over its median) is wider than the metric's bound,
//!   so the sets cannot tell a regression of that size from noise;
//! * `worse` — side B's median is worse than side A's by more than the
//!   bound;
//! * `within-bound` — otherwise.

use crate::json::Json;
use crate::metrics::{end_to_end, Better, Spec};
use crate::stats::quartiles;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::path::Path;

/// Values of one side: workload → metric → one value per run.
pub type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// The word `compare` prints.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Read every untraced result file (`*.json`) of a directory.
pub fn read_side(dir: &Path) -> Result<Side, String> {
    let mut side = Side::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let stamp = doc.get("stamp").ok_or(format!("{}: no stamp", path.display()))?;
        if stamp.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = stamp
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{}: stamp names no workload", path.display()))?;
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err(format!("{}: no metrics", path.display()));
        };
        let per_metric = side.entry(workload.to_string()).or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                per_metric.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(side)
}

/// Spread of a set of runs: distance between the quartiles over the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Judge one metric from each side's runs.
pub fn judge(spec: &Spec, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() || spread(a) > spec.bound || spread(b) > spec.bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (quartiles(a).1, quartiles(b).1);
    let worse_by = match spec.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse_by > spec.bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// Compare two directories; returns the printed table and whether every
/// verdict was `within-bound`.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<(String, bool), String> {
    let (a, b) = (read_side(dir_a)?, read_side(dir_b)?);
    let mut out = String::new();
    let mut all_within = true;
    let none = BTreeMap::new();
    for w in Workload::all() {
        let (wa, wb) = (a.get(w.name).unwrap_or(&none), b.get(w.name).unwrap_or(&none));
        if wa.is_empty() && wb.is_empty() {
            continue;
        }
        let mut row = format!("{:<16}", w.name);
        for spec in end_to_end() {
            let empty = Vec::new();
            let (va, vb) =
                (wa.get(&spec.name).unwrap_or(&empty), wb.get(&spec.name).unwrap_or(&empty));
            let verdict = judge(&spec, va, vb);
            all_within &= verdict == Verdict::WithinBound;
            let side = |v: &[f64]| {
                let (q1, q2, q3) = quartiles(v);
                format!("{q2:.4} [{q1:.4} {q3:.4}] n={}", v.len())
            };
            row.push_str(&format!(
                "\n    {:<12} {:<5} A {}  B {}  bound {:.2}  {}",
                spec.name,
                spec.unit,
                side(va),
                side(vb),
                spec.bound,
                verdict.as_str()
            ));
        }
        out.push_str(&row);
        out.push('\n');
    }
    if out.is_empty() {
        return Err("no untraced result files in either directory".to_string());
    }
    Ok((out, all_within))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Spec {
        Spec { name: "p50_us".to_string(), unit: "us", better: Better::Lower, bound }
    }

    #[test]
    fn verdicts_follow_medians_and_spreads() {
        let steady = [100.0, 101.0, 99.0, 100.5, 100.0];
        assert_eq!(judge(&lower(0.10), &steady, &[104.0, 105.0, 103.0]), Verdict::WithinBound);
        assert_eq!(judge(&lower(0.10), &steady, &[114.0, 115.0, 113.0]), Verdict::Worse);
        // An improvement is never "worse".
        assert_eq!(judge(&lower(0.10), &steady, &[50.0, 51.0, 49.0]), Verdict::WithinBound);
        // A set that scatters wider than the bound resolves nothing.
        assert_eq!(judge(&lower(0.10), &steady, &[80.0, 100.0, 120.0, 140.0]), Verdict::Unresolved);
        assert_eq!(judge(&lower(0.10), &steady, &[]), Verdict::Unresolved);
        let higher = Spec { better: Better::Higher, ..lower(0.10) };
        assert_eq!(judge(&higher, &steady, &[85.0, 86.0, 84.0]), Verdict::Worse);
        assert_eq!(judge(&higher, &steady, &[120.0, 121.0, 119.0]), Verdict::WithinBound);
    }
}
