//! The model catalog: storage, versioning, selection and invalidation
//! of captured models.

use crate::error::{ModelError, Result};
use crate::model::{CapturedModel, ModelId, ModelState};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-safe registry of captured models.
///
/// Models are immutable `Arc` snapshots; state transitions (stale,
/// retired) replace the stored Arc, so concurrent readers keep whatever
/// version they resolved — the same discipline the table catalog uses.
///
/// Like the table catalog, every mutation (store, state transition,
/// invalidation) bumps an *epoch*; plan caches combine it with the
/// table epoch so a refit or demotion invalidates cached access-path
/// choices that assumed a model was (or wasn't) available.
#[derive(Debug, Default)]
pub struct ModelCatalog {
    inner: RwLock<Inner>,
    epoch: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    next_id: u64,
    models: BTreeMap<u64, Arc<CapturedModel>>,
}

impl ModelCatalog {
    /// Empty catalog.
    pub fn new() -> ModelCatalog {
        ModelCatalog::default()
    }

    /// Current model-catalog epoch. Bumped on every `store`,
    /// `set_state` and non-empty `invalidate_table`; never decreases.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Store a captured model, assigning its id and version. Returns the
    /// stored snapshot.
    pub fn store(&self, mut model: CapturedModel) -> Arc<CapturedModel> {
        let mut inner = self.inner.write();
        inner.next_id += 1;
        let id = inner.next_id;
        // Version = 1 + highest version among same-coverage models.
        let version = inner
            .models
            .values()
            .filter(|m| {
                m.coverage.table == model.coverage.table
                    && m.coverage.response == model.coverage.response
            })
            .map(|m| m.version)
            .max()
            .unwrap_or(0)
            + 1;
        model.id = ModelId(id);
        model.version = version;
        let arc = Arc::new(model);
        inner.models.insert(id, Arc::clone(&arc));
        drop(inner);
        self.bump_epoch();
        arc
    }

    /// Model by id.
    pub fn get(&self, id: ModelId) -> Result<Arc<CapturedModel>> {
        self.inner
            .read()
            .models
            .get(&id.0)
            .cloned()
            .ok_or(ModelError::UnknownModel { id: id.0 })
    }

    /// All models, ordered by id.
    pub fn all(&self) -> Vec<Arc<CapturedModel>> {
        self.inner.read().models.values().cloned().collect()
    }

    /// Number of stored models.
    pub fn len(&self) -> usize {
        self.inner.read().models.len()
    }

    /// True when no models are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All models covering `(table, response)`, any state, ordered by id.
    pub fn models_for(&self, table: &str, response: &str) -> Vec<Arc<CapturedModel>> {
        self.inner
            .read()
            .models
            .values()
            .filter(|m| m.coverage.table == table && m.coverage.response == response)
            .cloned()
            .collect()
    }

    /// **Model selection** (Section 4.1, "multiple models"): among the
    /// *active* models that can reconstruct `(table, response)`, pick
    /// the one with the highest pooled R²; ties break to the newest
    /// version. `allow_stale` widens the candidate set to stale models
    /// (an approximate-query caller may accept bounded staleness).
    pub fn best_for(
        &self,
        table: &str,
        response: &str,
        allow_stale: bool,
    ) -> Result<Arc<CapturedModel>> {
        let candidates: Vec<Arc<CapturedModel>> = self
            .models_for(table, response)
            .into_iter()
            .filter(|m| {
                m.state == ModelState::Active
                    || (allow_stale && m.state == ModelState::Stale)
            })
            .collect();
        candidates
            .into_iter()
            .max_by(|a, b| {
                let ra = if a.overall_r2.is_nan() { f64::NEG_INFINITY } else { a.overall_r2 };
                let rb = if b.overall_r2.is_nan() { f64::NEG_INFINITY } else { b.overall_r2 };
                ra.partial_cmp(&rb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.version.cmp(&b.version))
            })
            .ok_or_else(|| ModelError::NoModelFor {
                table: table.to_string(),
                column: response.to_string(),
            })
    }

    /// Data-change hook: mark every active model covering `table` as
    /// stale ("changing or added observations can change \[the\] fit of
    /// the model dramatically"). Returns the affected model ids.
    pub fn invalidate_table(&self, table: &str) -> Vec<ModelId> {
        let mut inner = self.inner.write();
        let mut affected = Vec::new();
        let ids: Vec<u64> = inner.models.keys().copied().collect();
        for id in ids {
            let m = &inner.models[&id];
            if m.coverage.table == table && m.state == ModelState::Active {
                let mut updated = (**m).clone();
                updated.state = ModelState::Stale;
                inner.models.insert(id, Arc::new(updated));
                affected.push(ModelId(id));
            }
        }
        drop(inner);
        if !affected.is_empty() {
            self.bump_epoch();
        }
        affected
    }

    /// Transition a model to a new state (re-fit outcomes: back to
    /// Active, or Retired when superseded).
    pub fn set_state(&self, id: ModelId, state: ModelState) -> Result<()> {
        let mut inner = self.inner.write();
        let m = inner
            .models
            .get(&id.0)
            .ok_or(ModelError::UnknownModel { id: id.0 })?;
        let mut updated = (**m).clone();
        updated.state = state;
        inner.models.insert(id.0, Arc::new(updated));
        drop(inner);
        self.bump_epoch();
        Ok(())
    }

    /// Retire every other model of the winner's (table, response) that
    /// covers what it covers: the same coverage predicate and group
    /// column. Called after a re-fit stores a fresh winner; a model over
    /// another predicate or grouping is not one of its versions and
    /// keeps its state.
    pub fn retire_others(&self, winner: ModelId) -> Result<Vec<ModelId>> {
        let w = self.get(winner)?;
        let same_cover = |m: &CapturedModel| {
            m.coverage.predicate == w.coverage.predicate
                && m.params.group_column == w.params.group_column
        };
        let mut retired = Vec::new();
        for m in self.models_for(&w.coverage.table, &w.coverage.response) {
            if m.id != winner && same_cover(&m) && m.state != ModelState::Retired {
                self.set_state(m.id, ModelState::Retired)?;
                retired.push(m.id);
            }
        }
        Ok(retired)
    }

    /// Rebuild from stored models, ids kept as stored. The next id is
    /// the largest one: the catalog never removes a model, so no id
    /// above it was ever handed out.
    pub(crate) fn restore(models: Vec<CapturedModel>) -> ModelCatalog {
        let catalog = ModelCatalog::new();
        {
            let mut inner = catalog.inner.write();
            inner.next_id = models.iter().map(|m| m.id.0).max().unwrap_or(0);
            for m in models {
                inner.models.insert(m.id.0, Arc::new(m));
            }
        }
        catalog
    }

    /// Total parameter-storage bytes across active models (the
    /// model-side term of the compression accounting).
    pub fn active_parameter_bytes(&self) -> usize {
        self.inner
            .read()
            .models
            .values()
            .filter(|m| m.state == ModelState::Active)
            .map(|m| m.params.byte_size())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Coverage, ModelParams};
    use lawsdb_expr::parse_formula;

    fn model(table: &str, response: &str, r2: f64) -> CapturedModel {
        let f = parse_formula(&format!("{response} ~ a + b * x")).unwrap();
        let params = ModelParams::global(vec!["a".into(), "b".into()], vec![1.0, 2.0], 0.1, r2, 50);
        let coverage = Coverage {
            table: table.to_string(),
            response: response.to_string(),
            variables: vec!["x".to_string()],
            rows_at_fit: 50,
            predicate: None,
            domains: Vec::new(),
        };
        CapturedModel::new(f, params, coverage, r2).unwrap()
    }

    #[test]
    fn store_assigns_ids_and_versions() {
        let c = ModelCatalog::new();
        let m1 = c.store(model("t", "y", 0.9));
        let m2 = c.store(model("t", "y", 0.95));
        let m3 = c.store(model("t", "z", 0.5));
        assert_eq!(m1.id, ModelId(1));
        assert_eq!(m2.id, ModelId(2));
        assert_eq!(m1.version, 1);
        assert_eq!(m2.version, 2); // same coverage → version bump
        assert_eq!(m3.version, 1); // different coverage → fresh line
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn best_for_picks_highest_r2() {
        let c = ModelCatalog::new();
        c.store(model("t", "y", 0.80));
        let best = c.store(model("t", "y", 0.95));
        c.store(model("t", "y", 0.90));
        assert_eq!(c.best_for("t", "y", false).unwrap().id, best.id);
        assert!(matches!(
            c.best_for("t", "zz", false),
            Err(ModelError::NoModelFor { .. })
        ));
    }

    #[test]
    fn invalidation_and_stale_visibility() {
        let c = ModelCatalog::new();
        let m = c.store(model("t", "y", 0.9));
        let affected = c.invalidate_table("t");
        assert_eq!(affected, vec![m.id]);
        // No active model now; stale allowed finds it.
        assert!(c.best_for("t", "y", false).is_err());
        assert_eq!(c.best_for("t", "y", true).unwrap().id, m.id);
        // Other tables untouched.
        assert!(c.invalidate_table("other").is_empty());
    }

    #[test]
    fn refit_then_retire_others() {
        let c = ModelCatalog::new();
        let old = c.store(model("t", "y", 0.9));
        c.invalidate_table("t");
        let fresh = c.store(model("t", "y", 0.93));
        let retired = c.retire_others(fresh.id).unwrap();
        assert_eq!(retired, vec![old.id]);
        assert_eq!(c.get(old.id).unwrap().state, ModelState::Retired);
        assert_eq!(c.best_for("t", "y", false).unwrap().id, fresh.id);
    }

    #[test]
    fn a_refit_retires_only_the_versions_of_its_own_coverage() {
        let c = ModelCatalog::new();
        let over = |predicate: Option<&str>| {
            let mut m = model("t", "y", 0.9);
            m.coverage.predicate = predicate.map(str::to_string);
            m
        };
        let whole = c.store(over(None));
        let low = c.store(over(Some("x < 3")));
        let high = c.store(over(Some("x >= 3")));
        let fresh_whole = c.store(over(None));
        assert_eq!(c.retire_others(fresh_whole.id).unwrap(), vec![whole.id]);
        let fresh_low = c.store(over(Some("x < 3")));
        assert_eq!(c.retire_others(fresh_low.id).unwrap(), vec![low.id]);
        for (id, state) in [
            (fresh_whole.id, ModelState::Active),
            (fresh_low.id, ModelState::Active),
            (high.id, ModelState::Active),
            (low.id, ModelState::Retired),
        ] {
            assert_eq!(c.get(id).unwrap().state, state, "{id:?}");
        }
    }

    #[test]
    fn retired_models_are_kept_not_deleted() {
        let c = ModelCatalog::new();
        let old = c.store(model("t", "y", 0.9));
        let fresh = c.store(model("t", "y", 0.95));
        c.retire_others(fresh.id).unwrap();
        // Still present — "a model with a previously poor fit [may
        // become] relevant again".
        assert_eq!(c.len(), 2);
        assert!(c.get(old.id).is_ok());
        // And can be reactivated.
        c.set_state(old.id, ModelState::Active).unwrap();
        assert_eq!(c.best_for("t", "y", false).unwrap().id, fresh.id);
    }

    #[test]
    fn active_parameter_bytes_ignores_inactive() {
        let c = ModelCatalog::new();
        let a = c.store(model("t", "y", 0.9));
        c.store(model("t", "z", 0.9));
        assert_eq!(c.active_parameter_bytes(), 2 * 24);
        c.set_state(a.id, ModelState::Retired).unwrap();
        assert_eq!(c.active_parameter_bytes(), 24);
    }

    #[test]
    fn epoch_advances_on_store_and_state_changes() {
        let c = ModelCatalog::new();
        let e0 = c.epoch();
        let m = c.store(model("t", "y", 0.9));
        let e1 = c.epoch();
        assert!(e1 > e0);
        c.invalidate_table("t");
        let e2 = c.epoch();
        assert!(e2 > e1);
        // Invalidating a table with no active models is not a change.
        c.invalidate_table("t");
        assert_eq!(c.epoch(), e2);
        c.set_state(m.id, ModelState::Active).unwrap();
        assert!(c.epoch() > e2);
    }

    #[test]
    fn concurrent_store_and_read() {
        let c = Arc::new(ModelCatalog::new());
        std::thread::scope(|s| {
            for i in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for j in 0..50 {
                        c.store(model("t", &format!("y{i}_{j}"), 0.9));
                    }
                });
            }
        });
        assert_eq!(c.len(), 200);
        // Ids are unique.
        let mut ids: Vec<u64> = c.all().iter().map(|m| m.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200);
    }
}
