//! Model-catalog persistence: the catalog is a set of tables.
//!
//! "We can store the models in their source code form inside the
//! database" (Section 3). The catalog maps onto ordinary [`Table`]s, so
//! it is stored, committed, checksummed and recovered by the page store
//! exactly like the data it describes — one durable format, one
//! decoder, one crash story:
//!
//! * `lawsdb_models` — one row per model version: `id`, `version`,
//!   `state`, `overall_r2`, `max_abs_residual`, the `formula` and
//!   `legal_filter` source, the covered `table_name`, `response`,
//!   `rows_at_fit`, `predicate` and `group_column` (NULL when global).
//! * `lawsdb_model_domains` — each model's input variables in coverage
//!   order: one row per enumerated value, or one row with a NULL
//!   `value` for a variable that was not enumerable.
//! * `lawsdb_model_<id>` — one per version: the group key (named after
//!   the group column) when grouped, one `Float64` column per
//!   parameter, then `$residual_se`, `$r2` and `$n` — names no formula
//!   identifier can take. A global model is one row. This is the
//!   in-memory [`ModelParams`] column for column, so saving and loading
//!   copy whole columns; the loader's checks (one value per row,
//!   strictly increasing keys) are [`CapturedModel::new`]'s.
//!
//! The model body travels as its formula source and is re-parsed on
//! load (the parser is the schema). The coverage `predicate` and the
//! `legal_filter` are SQL source text, kept verbatim: this crate sits
//! below the SQL parser, so `lawsdb-core`'s `DurableDb::load_models`
//! parses both and refuses a catalog where either does not. The next
//! id is the largest stored id, since the catalog never removes a
//! model. `DurableDb::save_models` commits [`ModelCatalog::to_tables`]
//! as one transaction and `load_models` hands the stored tables to
//! [`ModelCatalog::from_tables`], which checks every table against the
//! others and ends in a typed [`ModelError`], never a panic.

use crate::catalog::ModelCatalog;
use crate::error::{ModelError, Result};
use crate::model::{CapturedModel, Coverage, ModelId, ModelParams, ModelState};
use lawsdb_storage::bitmap::Bitmap;
use lawsdb_storage::{Column, DataType, Field, Schema, Table};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Every catalog table's name starts with this prefix, and no other
/// table's may.
pub const CATALOG_PREFIX: &str = "lawsdb_model";
const MODELS: &str = "lawsdb_models";
const DOMAINS: &str = "lawsdb_model_domains";
/// The fit statistics that close every parameter table.
const STATS: [&str; 3] = ["$residual_se", "$r2", "$n"];
const STATES: [(ModelState, &str); 3] = [
    (ModelState::Active, "active"),
    (ModelState::Stale, "stale"),
    (ModelState::Retired, "retired"),
];

fn params_table_name(id: u64) -> String {
    format!("{CATALOG_PREFIX}_{id}")
}

fn bad(table: &str, detail: impl Into<String>) -> ModelError {
    ModelError::BadCatalog { table: table.to_string(), detail: detail.into() }
}

/// A table of `columns`. It gets no zone synopsis: the catalog's
/// tables are read whole, never scanned with a predicate.
fn table(name: &str, columns: Vec<(Field, Column)>) -> Result<Table> {
    let (fields, columns) = columns.into_iter().unzip();
    Ok(Table::new(name, Schema::new(fields), columns)?)
}

fn i64s(name: &str, values: Vec<i64>) -> (Field, Column) {
    (Field::new(name, DataType::Int64), Column::from_i64(values))
}

fn f64s(name: &str, values: Vec<f64>) -> (Field, Column) {
    (Field::new(name, DataType::Float64), Column::from_f64(values))
}

fn strs(name: &str, values: Vec<String>) -> (Field, Column) {
    (Field::new(name, DataType::Str), Column::from_str(values))
}

fn nullable_f64s(name: &str, values: Vec<Option<f64>>) -> (Field, Column) {
    (Field::nullable(name, DataType::Float64), Column::from_f64_opt(values))
}

fn nullable_strs(name: &str, values: impl Iterator<Item = Option<String>>) -> (Field, Column) {
    let (mut data, mut validity) = (Vec::new(), Bitmap::new());
    for v in values {
        validity.push(v.is_some());
        data.push(v.unwrap_or_default());
    }
    (Field::nullable(name, DataType::Str), Column::Str { data: data.into(), validity })
}

fn models_table(models: &[Arc<CapturedModel>]) -> Result<Table> {
    let ints = |name, f: fn(&CapturedModel) -> u64| {
        i64s(name, models.iter().map(|m| f(m) as i64).collect())
    };
    let text =
        |name, f: fn(&CapturedModel) -> String| strs(name, models.iter().map(|m| f(m)).collect());
    let nulls = |name, f: fn(&CapturedModel) -> Option<String>| {
        nullable_strs(name, models.iter().map(|m| f(m)))
    };
    let state = |m: &CapturedModel| STATES.iter().find(|s| s.0 == m.state).expect("all").1.into();
    table(
        MODELS,
        vec![
            ints("id", |m| m.id.0),
            ints("version", |m| m.version.into()),
            text("state", state),
            f64s("overall_r2", models.iter().map(|m| m.overall_r2).collect()),
            nullable_f64s("max_abs_residual", models.iter().map(|m| m.max_abs_residual).collect()),
            text("formula", |m| m.formula_source.clone()),
            nulls("legal_filter", |m| m.legal_filter.clone()),
            text("table_name", |m| m.coverage.table.clone()),
            text("response", |m| m.coverage.response.clone()),
            ints("rows_at_fit", |m| m.coverage.rows_at_fit as u64),
            nulls("predicate", |m| m.coverage.predicate.clone()),
            nulls("group_column", |m| m.params.group_column.clone()),
        ],
    )
}

fn domains_table(models: &[Arc<CapturedModel>]) -> Result<Table> {
    let (mut ids, mut variables, mut values) = (Vec::new(), Vec::new(), Vec::new());
    for m in models {
        // Domains are stored under their variables, so they must be the
        // enumerable variables' own, in coverage order, as capture
        // records them.
        let cov = &m.coverage;
        let enumerable = cov.variables.iter().filter(|v| cov.domain_of(v).is_some());
        if !cov.domains.iter().map(|(v, _)| v).eq(enumerable)
            || cov.domains.iter().any(|d| d.1.is_empty())
        {
            return Err(bad(
                DOMAINS,
                format!("model {}: domains do not follow its variables", m.id.0),
            ));
        }
        for v in &cov.variables {
            let domain =
                cov.domain_of(v).map_or(vec![None], |d| d.iter().copied().map(Some).collect());
            for value in domain {
                ids.push(m.id.0 as i64);
                variables.push(v.clone());
                values.push(value);
            }
        }
    }
    table(
        DOMAINS,
        vec![i64s("model", ids), strs("variable", variables), nullable_f64s("value", values)],
    )
}

fn params_table(m: &CapturedModel) -> Result<Table> {
    let p = &m.params;
    let keys = p.group_column.iter().map(|g| i64s(g, p.keys.clone()));
    let values = p.names.iter().zip(&p.values).map(|(name, v)| f64s(name, v.clone()));
    let n = p.n.iter().map(|&n| n as i64).collect();
    let stats =
        [f64s(STATS[0], p.residual_se.clone()), f64s(STATS[1], p.r2.clone()), i64s(STATS[2], n)];
    table(&params_table_name(m.id.0), keys.chain(values).chain(stats).collect())
}

/// Typed access to one stored catalog table's columns.
struct Cols<'a>(&'a Table);

impl<'a> Cols<'a> {
    fn column(&self, name: &str) -> Result<&'a Column> {
        self.0.column(name).map_err(|_| bad(self.0.name(), format!("no column {name:?}")))
    }

    fn ints(&self, name: &str) -> Result<&'a [i64]> {
        Ok(self.column(name)?.i64_data()?)
    }

    fn floats(&self, name: &str) -> Result<&'a [f64]> {
        Ok(self.column(name)?.f64_data()?)
    }

    fn strs(&self, name: &str) -> Result<&'a [String]> {
        Ok(self.column(name)?.str_data()?)
    }

    /// Whether each row of a nullable column holds a value.
    fn valid(&self, name: &str) -> Result<impl Iterator<Item = bool> + 'a> {
        let validity = self.column(name)?.validity();
        Ok((0..validity.len()).map(|i| validity.get(i)))
    }

    fn opt_floats(&self, name: &str) -> Result<Vec<Option<f64>>> {
        let valid = self.valid(name)?;
        Ok(valid.zip(self.floats(name)?).map(|(ok, &v)| ok.then_some(v)).collect())
    }

    fn opt_strs(&self, name: &str) -> Result<Vec<Option<&'a str>>> {
        let valid = self.valid(name)?;
        Ok(valid.zip(self.strs(name)?).map(|(ok, v)| ok.then_some(v.as_str())).collect())
    }

    /// A stored count or id, which must not be negative.
    fn unsigned(&self, what: &str, v: i64) -> Result<u64> {
        u64::try_from(v).map_err(|_| bad(self.0.name(), format!("negative {what} {v}")))
    }
}

/// One model's variables in coverage order, with their enumerated
/// values (`None`: not enumerable).
type Variables = Vec<(String, Option<Vec<f64>>)>;

/// Each model's [`Variables`], keyed by model id. A value row right
/// after a value row of the same variable extends its domain; any other
/// row starts the next variable.
fn read_domains(t: &Table) -> Result<BTreeMap<u64, Variables>> {
    let c = Cols(t);
    let (ids, variables, values) = (c.ints("model")?, c.strs("variable")?, c.opt_floats("value")?);
    let mut out: BTreeMap<u64, Variables> = BTreeMap::new();
    for ((&id, variable), value) in ids.iter().zip(variables).zip(values) {
        let id = c.unsigned("model id", id)?;
        let vars = out.entry(id).or_default();
        if let (Some((last, Some(domain))), Some(v)) = (vars.last_mut(), value) {
            if last == variable {
                domain.push(v);
                continue;
            }
        }
        if vars.iter().any(|(v, _)| v == variable) {
            return Err(bad(DOMAINS, format!("model {id} lists variable {variable:?} twice")));
        }
        vars.push((variable.clone(), value.map(|v| vec![v])));
    }
    Ok(out)
}

/// The parameters stored in `t`, keyed by `group_column` when grouped,
/// column for column. Whether they hold together (one row when global,
/// strictly increasing keys) is [`CapturedModel::new`]'s to check.
fn read_params(t: &Table, group_column: Option<&str>) -> Result<ModelParams> {
    let c = Cols(t);
    let fields = t.schema().fields();
    let params = match group_column {
        Some(g) if fields.first().is_some_and(|f| f.name == g) => &fields[1..],
        Some(g) => return Err(bad(t.name(), format!("first column is not the group key {g:?}"))),
        None => fields,
    };
    let np = params.len().saturating_sub(STATS.len());
    if !params[np..].iter().map(|f| f.name.as_str()).eq(STATS) {
        return Err(bad(t.name(), format!("columns do not end in {STATS:?}")));
    }
    let names: Vec<String> = params[..np].iter().map(|f| f.name.clone()).collect();
    let values = names.iter().map(|p| Ok(c.floats(p)?.to_vec())).collect::<Result<_>>()?;
    let n = c.ints(STATS[2])?.iter().map(|&v| Ok(c.unsigned("n", v)? as usize));
    let keys = match group_column {
        Some(g) => c.ints(g)?.to_vec(),
        None => Vec::new(),
    };
    Ok(ModelParams {
        group_column: group_column.map(str::to_string),
        keys,
        names,
        values,
        residual_se: c.floats(STATS[0])?.to_vec(),
        r2: c.floats(STATS[1])?.to_vec(),
        n: n.collect::<Result<_>>()?,
    })
}

impl ModelCatalog {
    /// The catalog as tables: `lawsdb_models`, `lawsdb_model_domains`,
    /// then one `lawsdb_model_<id>` per version in id order. Every
    /// version is written, whatever its state.
    pub fn to_tables(&self) -> Result<Vec<Table>> {
        let models = self.all();
        let mut tables = vec![models_table(&models)?, domains_table(&models)?];
        for m in &models {
            tables.push(params_table(m)?);
        }
        Ok(tables)
    }

    /// Rebuild a catalog from the tables [`ModelCatalog::to_tables`]
    /// made; other tables are ignored. Without `lawsdb_models` the
    /// catalog is empty: none was ever stored.
    pub fn from_tables(tables: &[Table]) -> Result<ModelCatalog> {
        let by_name: HashMap<&str, &Table> = tables.iter().map(|t| (t.name(), t)).collect();
        let get =
            |name: &str| by_name.get(name).copied().ok_or_else(|| bad(name, "table is missing"));
        let Some(rows) = by_name.get(MODELS) else {
            return Ok(ModelCatalog::new());
        };
        let mut variables = read_domains(get(DOMAINS)?)?;
        let c = Cols(rows);
        let (ids, versions, states) = (c.ints("id")?, c.ints("version")?, c.strs("state")?);
        let (overall_r2, max_abs_residual) =
            (c.floats("overall_r2")?, c.opt_floats("max_abs_residual")?);
        let (formulas, legal_filters) = (c.strs("formula")?, c.opt_strs("legal_filter")?);
        let (tables, responses) = (c.strs("table_name")?, c.strs("response")?);
        let (rows_at_fit, predicates) = (c.ints("rows_at_fit")?, c.opt_strs("predicate")?);
        let group_columns = c.opt_strs("group_column")?;
        let mut models = BTreeMap::new();
        for i in 0..rows.row_count() {
            let id = c.unsigned("id", ids[i])?;
            let version = u32::try_from(versions[i])
                .map_err(|_| bad(MODELS, format!("bad version {}", versions[i])))?;
            let Some(&(state, _)) = STATES.iter().find(|s| s.1 == states[i]) else {
                return Err(bad(MODELS, format!("model {id}: unknown state {:?}", states[i])));
            };
            let formula = lawsdb_expr::parse_formula(&formulas[i])?;
            let (mut vars, mut domains) = (Vec::new(), Vec::new());
            for (v, domain) in variables.remove(&id).unwrap_or_default() {
                domains.extend(domain.map(|d| (v.clone(), d)));
                vars.push(v);
            }
            let name = params_table_name(id);
            let coverage = Coverage {
                table: tables[i].clone(),
                response: responses[i].clone(),
                variables: vars,
                rows_at_fit: c.unsigned("rows_at_fit", rows_at_fit[i])? as usize,
                predicate: predicates[i].map(str::to_string),
                domains,
            };
            let params = read_params(get(&name)?, group_columns[i])?;
            let mut m = CapturedModel::new(formula, params, coverage, overall_r2[i])
                .map_err(|e| bad(&name, e.to_string()))?;
            m.id = ModelId(id);
            m.version = version;
            m.max_abs_residual = max_abs_residual[i];
            m.state = state;
            m.legal_filter = legal_filters[i].map(str::to_string);
            if models.insert(id, m).is_some() {
                return Err(bad(MODELS, format!("model {id} appears twice")));
            }
        }
        if let Some(id) = variables.keys().next() {
            return Err(bad(DOMAINS, format!("variables of model {id}, which has no row")));
        }
        Ok(ModelCatalog::restore(models.into_values().collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridge::fit_table_grouped;
    use lawsdb_fit::FitOptions;
    use lawsdb_storage::TableBuilder;

    fn lofar_model() -> CapturedModel {
        let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
        let (mut src, mut nu, mut intensity) = (Vec::new(), Vec::new(), Vec::new());
        for s in 0..5i64 {
            let (p, a) = (1.0 + s as f64 * 0.4, -0.6 - s as f64 * 0.1);
            for i in 0..40 {
                src.push(s);
                nu.push(freqs[i % 4]);
                intensity.push(p * freqs[i % 4].powf(a));
            }
        }
        let mut b = TableBuilder::new("measurements");
        b.add_i64("source", src);
        b.add_f64("nu", nu);
        b.add_f64("intensity", intensity);
        let options = FitOptions::default().with_initial("alpha", -0.7);
        let table = b.build().unwrap();
        fit_table_grouped(&table, "intensity ~ p * nu ^ alpha", "source", &options, 1).unwrap().0
    }

    /// Two grouped versions, the first retired, the second with a legal
    /// filter.
    fn two_versions() -> (ModelCatalog, Arc<CapturedModel>, Arc<CapturedModel>) {
        let catalog = ModelCatalog::new();
        let m1 = catalog.store(lofar_model());
        let m2 =
            catalog.store(lofar_model().with_legal_filter("nu >= 0.12 AND nu <= 0.18"));
        catalog.set_state(m1.id, ModelState::Retired).unwrap();
        let m1 = catalog.get(m1.id).unwrap();
        (catalog, m1, m2)
    }

    fn find<'a>(tables: &'a [Table], name: &str) -> &'a Table {
        tables.iter().find(|t| t.name() == name).unwrap()
    }

    /// `tables` with `name` swapped for `f` of it.
    fn edited(tables: &[Table], name: &str, f: impl Fn(&Table) -> Table) -> Vec<Table> {
        tables.iter().map(|t| if t.name() == name { f(t) } else { t.clone() }).collect()
    }

    /// `t` with column `name` replaced by `column`.
    fn with_column(t: &Table, name: &str, column: Column) -> Table {
        let mut columns = t.columns().to_vec();
        columns[t.schema().index_of(name).unwrap()] = column;
        Table::new(t.name(), t.schema().clone(), columns).unwrap()
    }

    #[test]
    fn catalog_roundtrips_through_tables() {
        let (catalog, m1, m2) = two_versions();
        let restored = ModelCatalog::from_tables(&catalog.to_tables().unwrap()).unwrap();
        assert_eq!(restored.len(), 2);
        for want in [&m1, &m2] {
            let got = restored.get(want.id).unwrap();
            assert_eq!(got.state, want.state);
            assert_eq!(got.version, want.version);
            assert_eq!(got.formula_source, want.formula_source);
            assert_eq!(got.params, want.params);
            assert_eq!(got.coverage, want.coverage);
            assert_eq!(got.overall_r2.to_bits(), want.overall_r2.to_bits());
            assert_eq!(
                got.max_abs_residual.map(f64::to_bits),
                want.max_abs_residual.map(f64::to_bits)
            );
            assert_eq!(got.legal_filter, want.legal_filter);
            let a = want.predict_scalar(Some(3), &[("nu", 0.14)]).unwrap();
            let b = got.predict_scalar(Some(3), &[("nu", 0.14)]).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Id allocation continues where it left off.
        assert!(restored.store(lofar_model()).id.0 > m2.id.0);
        // No catalog table at all is an empty catalog.
        assert!(ModelCatalog::from_tables(&[]).unwrap().is_empty());
    }

    #[test]
    fn the_tables_are_plain_data() {
        let (catalog, m1, _) = two_versions();
        let tables = catalog.to_tables().unwrap();
        let names: Vec<&str> = tables.iter().map(Table::name).collect();
        assert_eq!(names, [MODELS, DOMAINS, "lawsdb_model_1", "lawsdb_model_2"]);
        assert!(names.iter().all(|n| n.starts_with(CATALOG_PREFIX)));
        let models = find(&tables, MODELS);
        assert_eq!(models.row_count(), 2);
        assert_eq!(models.column("state").unwrap().str_data().unwrap(), ["retired", "active"]);
        let params = find(&tables, "lawsdb_model_1");
        assert_eq!(params.schema().names(), ["source", "alpha", "p", STATS[0], STATS[1], STATS[2]]);
        assert_eq!(params.column("source").unwrap().i64_data().unwrap(), m1.params.keys);
        // One enumerated variable: its four frequencies, per model.
        let domains = find(&tables, DOMAINS);
        assert_eq!(domains.column("model").unwrap().i64_data().unwrap(), [1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn the_loader_never_panics_on_inconsistent_tables() {
        let (catalog, _, _) = two_versions();
        let tables = catalog.to_tables().unwrap();
        let load = |tables: &[Table]| ModelCatalog::from_tables(tables).map(|_| ()).unwrap_err();
        let catalog_error = |e: &ModelError, table: &str| {
            assert!(matches!(e, ModelError::BadCatalog { table: t, .. } if t == table), "{e}")
        };
        // A version row naming a missing params table.
        let missing: Vec<Table> =
            tables.iter().filter(|t| t.name() != "lawsdb_model_2").cloned().collect();
        catalog_error(&load(&missing), "lawsdb_model_2");
        // An unknown state.
        let states = Column::from_str(vec!["active".into(), "zombie".into()]);
        catalog_error(
            &load(&edited(&tables, MODELS, |t| with_column(t, "state", states.clone()))),
            MODELS,
        );
        // An unparseable formula.
        let formulas = Column::from_str(vec!["intensity ~ p *".into(), "y ~ (".into()]);
        let err = load(&edited(&tables, MODELS, |t| with_column(t, "formula", formulas.clone())));
        assert!(matches!(err, ModelError::Expr(_)), "{err}");
        // A params table missing a parameter column.
        let no_p =
            |t: &Table| t.project(&["source", "alpha", STATS[0], STATS[1], STATS[2]]).unwrap();
        catalog_error(&load(&edited(&tables, "lawsdb_model_1", no_p)), "lawsdb_model_1");
        // A repeated group key, and keys out of order: the keys must
        // strictly increase.
        let twice = |t: &Table| t.take(&[0, 1, 1, 2]).unwrap();
        catalog_error(&load(&edited(&tables, "lawsdb_model_2", twice)), "lawsdb_model_2");
        let swapped = |t: &Table| t.take(&[0, 2, 1, 3, 4]).unwrap();
        catalog_error(&load(&edited(&tables, "lawsdb_model_2", swapped)), "lawsdb_model_2");
        // A global model with a table of five rows.
        let global = |t: &Table| t.project(&["alpha", "p", STATS[0], STATS[1], STATS[2]]).unwrap();
        let groups = nullable_strs("group_column", [Some("source".into()), None].into_iter()).1;
        let global_2 = edited(&tables, MODELS, |t| with_column(t, "group_column", groups.clone()));
        catalog_error(&load(&edited(&global_2, "lawsdb_model_2", global)), "lawsdb_model_2");
        // A negative n, and a negative id.
        let n = |t: &Table| with_column(t, STATS[2], Column::from_i64(vec![40, -1, 40, 40, 40]));
        catalog_error(&load(&edited(&tables, "lawsdb_model_1", n)), "lawsdb_model_1");
        let ids = Column::from_i64(vec![1, -2]);
        catalog_error(
            &load(&edited(&tables, MODELS, |t| with_column(t, "id", ids.clone()))),
            MODELS,
        );
        // A wrongly typed column is the storage layer's typed error.
        let r2 = |t: &Table| {
            let mut b = TableBuilder::new(t.name());
            for (f, c) in t.schema().fields().iter().zip(t.columns()) {
                if f.name == STATS[1] {
                    b.add_i64(STATS[1], vec![0; t.row_count()]);
                } else {
                    b.add_column(f.clone(), c.clone());
                }
            }
            b.build().unwrap()
        };
        let err = load(&edited(&tables, "lawsdb_model_2", r2));
        assert!(matches!(err, ModelError::Storage(_)), "{err}");
        // Domain rows of a model with no version row.
        let domains = |t: &Table| {
            let t = t.take(&[0, 1, 2, 3, 4, 5, 6, 7, 0]).unwrap();
            with_column(&t, "model", Column::from_i64(vec![1, 1, 1, 1, 2, 2, 2, 2, 9]))
        };
        catalog_error(&load(&edited(&tables, DOMAINS, domains)), DOMAINS);
    }

    #[test]
    fn a_model_the_tables_cannot_hold_is_refused_at_save() {
        let catalog = ModelCatalog::new();
        let mut m = lofar_model();
        m.coverage.domains.push(("elsewhere".to_string(), vec![1.0]));
        catalog.store(m);
        assert!(matches!(catalog.to_tables(), Err(ModelError::BadCatalog { .. })));
    }
}
