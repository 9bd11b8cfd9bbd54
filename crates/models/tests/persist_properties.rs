//! Property test for model persistence: over arbitrary catalogs, save
//! through a `DurableDb` on a simulated device → restart → load is the
//! identity (field-for-field, including formula re-parse and bitwise
//! parameter equality). The catalog is stored as tables, so corrupted
//! pages are the store's concern, which the root `tests/hostile_bytes.rs`
//! suite and the crash matrices cover.

use lawsdb_core::DurableDb;
use lawsdb_models::{CapturedModel, Coverage, ModelCatalog, ModelParams, ModelState};
use lawsdb_storage::SimulatedDevice;
use proptest::prelude::*;

/// Parseable formula templates with their parameter and variable names.
/// The power law's names are not sorted, so an order other than a fit's
/// must round-trip too.
/// The formula source *is* the schema (the parser re-derives the body on
/// load), so arbitrary catalogs draw from real grammar.
const TEMPLATES: [(&str, &[&str], &[&str]); 3] = [
    ("y ~ a + b * x", &["a", "b"], &["x"]),
    ("y ~ p * x ^ alpha", &["p", "alpha"], &["x"]),
    ("y ~ a * x + b * z", &["a", "b"], &["x", "z"]),
];

const FILTERS: [&str; 3] = ["x >= 0.1", "x > 0.0 AND x < 100.0", "x <= 1000.0"];

fn clamp_unit(v: f64) -> f64 {
    (v.abs() / 1e6).clamp(0.0, 1.0)
}

#[allow(clippy::type_complexity)]
fn arb_model() -> impl Strategy<Value = CapturedModel> {
    (
        (0usize..3, 0usize..3, any::<bool>(), 0usize..4),
        prop::collection::vec(-1.0e6f64..1.0e6, 12),
        prop::collection::vec(-50i64..50, 1..5),
        ("[a-z]{1,8}", "[a-z]{1,8}", 0u64..100_000),
        // Per variable: its enumerated domain, or none.
        prop::collection::vec((any::<bool>(), prop::collection::vec(-100.0f64..100.0, 1..4)), 2),
    )
        .prop_map(|((ti, state_i, grouped, filt_i), vals, keys, ids, enumerated)| {
            let (formula, param_names, var_names) = TEMPLATES[ti];
            let (table, response, rows) = ids;
            let names: Vec<String> = param_names.iter().map(|s| s.to_string()).collect();
            let np = names.len();
            let n = rows as usize % 5000;
            let params = if grouped {
                // Strictly increasing, as the parameter table holds them.
                let mut keys = keys;
                keys.sort_unstable();
                keys.dedup();
                let column = |offset: usize| -> Vec<f64> {
                    (0..keys.len()).map(|gi| vals[(gi + offset) % vals.len()]).collect()
                };
                ModelParams {
                    group_column: Some("grp".to_string()),
                    values: (0..np).map(column).collect(),
                    residual_se: column(5).iter().map(|v| v.abs()).collect(),
                    r2: column(7).into_iter().map(clamp_unit).collect(),
                    n: vec![n; keys.len()],
                    names,
                    keys,
                }
            } else {
                let (residual_se, r2) = (vals[8].abs(), clamp_unit(vals[9]));
                ModelParams::global(names, vals[..np].to_vec(), residual_se, r2, n)
            };
            let legal_filter = filt_i.checked_sub(1).map(|i| FILTERS[i].to_string());
            let predicate =
                if filt_i % 2 == 1 { Some(format!("{table} > 0.5")) } else { None };
            let domains = var_names
                .iter()
                .zip(enumerated)
                .filter_map(|(v, (on, d))| on.then(|| (v.to_string(), d)))
                .collect();
            let coverage = Coverage {
                table,
                response,
                variables: var_names.iter().map(|s| s.to_string()).collect(),
                rows_at_fit: rows as usize,
                predicate,
                domains,
            };
            let formula = lawsdb_expr::parse_formula(formula).expect("template parses");
            let mut m = CapturedModel::new(formula, params, coverage, clamp_unit(vals[10]))
                .expect("generated parameters hold together");
            m.max_abs_residual = grouped.then(|| vals[11].abs());
            m.state = [ModelState::Active, ModelState::Stale, ModelState::Retired][state_i];
            m.legal_filter = legal_filter;
            m
        })
}

fn build_catalog(models: Vec<CapturedModel>) -> ModelCatalog {
    let catalog = ModelCatalog::new();
    for m in models {
        catalog.store(m);
    }
    catalog
}

/// Save `catalog` into `db`, restart from the device alone, and load.
fn save_restart_load(
    db: DurableDb<SimulatedDevice>,
    catalog: &ModelCatalog,
) -> (DurableDb<SimulatedDevice>, ModelCatalog) {
    let mut db = db;
    db.save_models(catalog).expect("a valid catalog saves");
    let mut db = DurableDb::new(db.into_device());
    db.recover().expect("a clean device recovers");
    let loaded = db.load_models().expect("a saved catalog loads");
    (db, loaded)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn save_restart_load_is_identity(
        first in prop::collection::vec(arb_model(), 0..4),
        models in prop::collection::vec(arb_model(), 0..4),
    ) {
        // Save one catalog, then another over it: the store holds
        // exactly the second, whatever the first left.
        let mut db = DurableDb::new(SimulatedDevice::new(512));
        db.recover().unwrap();
        let (db, _) = save_restart_load(db, &build_catalog(first));
        let catalog = build_catalog(models);
        let (_, restored) = save_restart_load(db, &catalog);
        prop_assert_eq!(restored.len(), catalog.len());
        for original in catalog.all() {
            let r = restored.get(original.id);
            prop_assert!(r.is_ok(), "model {:?} lost in roundtrip", original.id);
            let r = r.unwrap();
            prop_assert_eq!(&r.formula_source, &original.formula_source);
            prop_assert_eq!(r.rhs.to_string(), original.rhs.to_string());
            prop_assert_eq!(&r.params, &original.params);
            prop_assert_eq!(&r.coverage, &original.coverage);
            prop_assert_eq!(r.overall_r2.to_bits(), original.overall_r2.to_bits());
            prop_assert_eq!(
                r.max_abs_residual.map(f64::to_bits),
                original.max_abs_residual.map(f64::to_bits)
            );
            prop_assert_eq!(r.state, original.state);
            prop_assert_eq!(r.version, original.version);
            prop_assert_eq!(&r.legal_filter, &original.legal_filter);
        }
        // Id allocation resumes where it left off: a new model never
        // collides with a restored one.
        let ids: Vec<u64> = restored.all().iter().map(|m| m.id.0).collect();
        if let Some(probe) = catalog.all().first() {
            let fresh = restored.store(CapturedModel::clone(probe));
            prop_assert!(!ids.contains(&fresh.id.0), "fresh id {} collides", fresh.id.0);
        }
    }
}
