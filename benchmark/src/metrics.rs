//! The metric tables: five end-to-end metrics with their regression
//! bounds, and the per-layer metrics. `BENCHMARK.json` at the root of
//! the repository lists the same names; a test holds the two together.

use crate::workload::Workload;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's name, unit and direction.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// `<layer>.<name>` for layer metrics.
    pub name: String,
    /// `us`, `s`, `1/s`, `MB`, `count`, `share`, `%`, `bytes`.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
    /// Share of the parent's median it may worsen by (end-to-end only).
    pub bound: f64,
}

fn spec(name: &str, unit: &'static str, better: Better) -> Spec {
    Spec { name: name.to_string(), unit, better, bound: 0.0 }
}

/// The five end-to-end metrics, the same on every workload.
///
/// The bounds are what this sandbox can resolve, not what one would
/// wish for. In its quiet spells ten runs of a workload scatter by
/// 2–5 % of their median (quartile distance); in its noisy spells, which
/// last minutes and slow every workload alike, by 12–23 %. A bound has
/// to sit clear of that or every comparison reads `unresolved`, so the
/// timing metrics carry 0.25, the widest a bound may be. Peak RSS does
/// not feel the noise but varies with the seed's data (up to 8 % on
/// `cluster_scatter`).
pub fn end_to_end() -> Vec<Spec> {
    use Better::{Higher, Lower};
    vec![
        Spec { bound: 0.25, ..spec("setup_s", "s", Lower) },
        Spec { bound: 0.25, ..spec("ops_per_s", "1/s", Higher) },
        Spec { bound: 0.25, ..spec("p50_us", "us", Lower) },
        Spec { bound: 0.25, ..spec("p95_us", "us", Lower) },
        Spec { bound: 0.15, ..spec("peak_rss_mb", "MB", Lower) },
    ]
}

/// Every per-layer metric, the same list on every workload (a layer a
/// workload does not use reports 0).
pub fn per_layer() -> Vec<Spec> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    for layer in lawsdb::obs::LAYERS {
        out.push(spec(&format!("trace.{layer}_us"), "us", Lower));
    }
    out.push(spec("trace.overhead_pct", "%", Lower));
    for (name, unit, better) in [
        ("server.result_encode_us", "us", Lower),
        ("server.result_decode_us", "us", Lower),
        ("server.query_encode_us", "us", Lower),
        ("server.result_bytes", "bytes", Lower),
        ("server.service_us", "us", Lower),
        ("server.queue_us", "us", Lower),
        ("server.overhead_us", "us", Lower),
        ("server.rejected", "count", Lower),
        ("query.parse_us", "us", Lower),
        ("query.plan_us", "us", Lower),
        ("query.plan_cache_hit_share", "share", Higher),
        ("query.exec_us", "us", Lower),
        ("query.rows_scanned_per_row", "count", Lower),
        ("query.pages_total", "count", Lower),
        ("query.pages_pruned_zonemap", "count", Higher),
        ("query.pages_pruned_model", "count", Higher),
        ("query.zones_agg_synopsis", "count", Higher),
        ("core.degraded_share", "share", Lower),
        ("core.exact_fallbacks", "count", Lower),
        ("approx.model_share", "share", Higher),
        ("approx.answer_us", "us", Lower),
        ("approx.bound_violations", "count", Lower),
        ("approx.rel_err_p50", "share", Lower),
        ("models.param_bytes", "bytes", Lower),
        ("models.save_us", "us", Lower),
        ("models.load_us", "us", Lower),
        ("fit.capture_us", "us", Lower),
        ("fit.refit_us", "us", Lower),
        ("cluster.query_us", "us", Lower),
        ("cluster.fetch_ops_per_query", "count", Lower),
        ("cluster.shard_queries_per_query", "count", Lower),
        ("cluster.failovers", "count", Lower),
        ("cluster.build_us", "us", Lower),
        ("storage.append_us", "us", Lower),
        ("storage.replace_us", "us", Lower),
        ("storage.write_amp", "count", Lower),
        ("storage.pages_written_per_append", "count", Lower),
        ("storage.wal_commits", "count", Lower),
        ("storage.stored_bytes_per_user_byte", "count", Lower),
        ("storage.recover_us", "us", Lower),
    ] {
        out.push(spec(name, unit, better));
    }
    let mut shapes: Vec<&str> = Vec::new();
    for w in Workload::all() {
        for s in &w.shapes {
            if !shapes.contains(&s.name) {
                shapes.push(s.name);
            }
        }
    }
    for name in shapes {
        out.push(spec(&format!("shape.{name}.p50_us"), "us", Lower));
    }
    out.push(spec("client.p99_us", "us", Lower));
    out
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`end_to_end`] or [`per_layer`].
    pub name: String,
    /// The value as measured, every digit.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Measured values keyed by name, emitted in a spec list's order.
#[derive(Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    /// Record `name = value` (the last write wins).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// One [`Metric`] per spec, 0 where nothing was recorded. A name
    /// recorded but not in `specs` is a bug in the caller.
    pub fn into_metrics(self, specs: &[Spec]) -> Vec<Metric> {
        for (name, _) in &self.0 {
            assert!(specs.iter().any(|s| s.name == *name), "metric {name} is not in the table");
        }
        specs
            .iter()
            .map(|s| Metric {
                name: s.name.clone(),
                value: self.get(&s.name).unwrap_or(0.0),
                unit: s.unit,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> =
            end_to_end().into_iter().chain(per_layer()).map(|s| s.name).collect();
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(per_layer().len() <= 128);
        assert_eq!(per_layer().iter().filter(|s| s.name.starts_with("shape.")).count(), 17);
        assert!(end_to_end().iter().all(|s| s.bound > 0.0 && s.bound <= 0.25));
    }
}
