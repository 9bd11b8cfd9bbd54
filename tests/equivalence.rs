//! One seeded driver holds every exact path to the naive interpreter in
//! `oracle/`.
//!
//! Each case is a generated table and a list of generated queries. Every
//! query runs through:
//!
//! 1. `execute_with`, unpruned, on one thread;
//! 2. `execute_with`, pruned, on 1 and 4 threads, at the case's morsel
//!    size and zone grid;
//! 3. `plan_physical` + `execute_physical_with`, whose annotated EXPLAIN
//!    must be the logical EXPLAIN plus suffixes;
//! 4. `LawsDb::query` twice, the second a plan-cache hit;
//! 5. `LawsDb::answer` in `Resilient` and in `Adaptive` mode;
//! 6. the wire (`Client` → `PipeStream` → `Server`) in `Exact` and in
//!    `Cluster` mode;
//! 7. a `Cluster` on hash or range shards, 1–8 of them, with replica 0
//!    killed per a mask and one failure injected at a random phase.
//!
//! Besides the generated queries, every case runs an unfiltered
//! aggregate and two global aggregates behind equality on the hash key,
//! one the cluster routes to a single shard and one it must scatter.
//!
//! It runs all seven again after `capture_model`, which must leave the
//! unfiltered aggregate answering from zone partials. Then, the full
//! model retired meanwhile, it runs paths 4–6 for the statements over
//! `y` (the only ones a model answers) over three more models,
//! one at a time: two partial models whose SQL coverage on `x` is
//! conjunctive and then disjunctive, and a linear law, which answers
//! single aggregates of `y` in closed form. Last come paths 4–6 after an
//! append. Every exact answer must carry the oracle's bits and column
//! types, and `rows_scanned` must agree across the single-engine paths.
//! A model's point lookup must land within its `max_abs_residual` of the
//! oracle. A closed-form aggregate must land within a relative 1e-9 of
//! the oracle over the model's relation (closed form and summation
//! round differently), and every other model answer must carry the
//! oracle's bits over it, and every model answer the same bits on 1
//! and 4 threads at 1, 7 and the default cells per morsel. The
//! relation is rebuilt here one cell at a
//! time: group keys × enumerated domain, `predict_scalar`, and the
//! oracle's own `WHERE` over the model's coverage and legal filter. A
//! query naming a column the model does not reconstruct must degrade to
//! the exact rung with `NoModel`.
//!
//! Seeded: `LAWSDB_FAULT_SEED=<seed>` is printed, and a failure names
//! the seed, the case and the SQL.

mod oracle;

use lawsdb::approx::Strategy;
use lawsdb::cluster::{Cluster, ClusterConfig, PartitionScheme, Phase};
use lawsdb::core::{Answer, AnswerMode, CoreError, DegradeReason, LawsDb};
use lawsdb::fit::FitOptions;
use lawsdb::models::legal::combo_hash;
use lawsdb::models::model::ModelId;
use lawsdb::models::{CapturedModel, ModelState};
use lawsdb::obs::MetricsRegistry;
use lawsdb::query::optimize::optimize;
use lawsdb::query::{
    execute_physical_with, execute_with, parse_predicate, parse_select, plan_physical,
    CostConstants, ExecOptions, LogicalPlan, ScalarExpr, ScanStatsCollector,
};
use lawsdb::server::{Client, PipeStream, QueryMode, Server, ServerConfig};
use lawsdb::storage::fault::fault_seed;
use lawsdb::storage::{Column, Field, Table, TableBuilder, Value};
use std::sync::Arc;

const CASES: u64 = 32;

#[test]
fn every_exact_path_returns_the_oracles_bits() {
    let seed = fault_seed();
    println!("LAWSDB_FAULT_SEED={seed} (set to reproduce)");
    let checks = (0..CASES)
        .map(|case| run_case(seed, case))
        .fold([0; 3], |sum, case| [0, 1, 2].map(|i| sum[i] + case[i]));
    println!("model answers checked: {checks:?} (point lookups, enumerations, closed forms)");
    assert!(checks[0] > 0, "no model point lookup was checked");
    assert!(checks[1] > 0, "no model enumeration was checked");
    assert!(checks[2] > 0, "no closed-form aggregate was checked");
}

// ------------------------------------------------------------ generator

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The variable's domain; `y` follows a power law in it per group.
const X: [f64; 8] = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
const GROUPS: usize = 5;
const COLUMNS: [&str; 5] = ["k", "g", "v", "x", "y"];

/// One generated case: a table, an append batch, the knobs, the SQL.
struct Case {
    table: Table,
    append: Vec<Column>,
    exec: ExecOptions,
    shards: Shards,
    sql: Vec<String>,
}

/// A cluster layout and the faults it runs under.
struct Shards {
    config: ClusterConfig,
    kill_mask: u32,
    inject: (usize, Phase),
}

impl Case {
    fn generate(r: &mut Rng) -> Case {
        let n = if r.one_in(8) { r.below(8) } else { r.below(321) };
        let zone_rows = 1 + r.below(48);
        let laws: Vec<(f64, f64)> =
            (0..GROUPS).map(|_| (1.0 + 4.0 * r.unit(), -1.0 + 0.6 * r.unit())).collect();
        let mut b = TableBuilder::new("t");
        for (name, col) in COLUMNS.iter().zip(rows(r, n, &laws, zone_rows, true)) {
            b.add_column(Field::nullable(*name, col.data_type()), col);
        }
        let mut table = b.build().unwrap();
        table.rebuild_synopsis_with(zone_rows);
        let append = 2 + r.below(11);
        let shards = 1 + r.below(8);
        let scheme = if r.one_in(2) {
            PartitionScheme::Hash { key: "g".to_string() }
        } else {
            PartitionScheme::Range
        };
        Case {
            table,
            append: rows(r, append, &laws, 1, false),
            exec: ExecOptions {
                threads: *r.pick(&[1, 4]),
                morsel_rows: 1 + r.below(80),
                ..ExecOptions::default()
            },
            shards: Shards {
                config: ClusterConfig {
                    shards,
                    replicas: 2,
                    scheme,
                    fail_threshold: 1,
                    probe_after: 0,
                    ..ClusterConfig::default()
                },
                kill_mask: r.next() as u32 & ((1 << shards) - 1),
                inject: (r.below(shards), *r.pick(&[Phase::Fetch, Phase::Execute, Phase::Gather])),
            },
            sql: [PUSHED.to_string(), routed(r.below(GROUPS + 1) as f64), routed(1.5)]
                .into_iter()
                .chain((0..8).map(|_| query(r)))
                .collect(),
        }
    }
}

/// `k` sorted or not, `g` a small domain, `v` with NULL, NaN of both
/// signs, ±0.0, the odd ±inf, all-NULL zones and constant zones (one
/// zone in five each), and a clean power-law response `y` over `x`.
fn rows(r: &mut Rng, n: usize, laws: &[(f64, f64)], zone_rows: usize, sorted: bool) -> Vec<Column> {
    let mut k: Vec<i64> = (0..n).map(|_| r.below(64) as i64).collect();
    if sorted {
        k.sort_unstable();
    }
    let g: Vec<usize> = (0..n).map(|_| r.below(laws.len())).collect();
    let shift = r.below(5);
    let v = (0..n)
        .map(|i| match (i / zone_rows + shift) % 5 {
            0 => None,
            1 => Some(7.5),
            _ => match r.below(16) {
                0 => None,
                1 => Some(f64::NAN),
                2 => Some(-f64::NAN),
                3 => Some(0.0),
                4 => Some(-0.0),
                5 if r.one_in(4) => Some(*r.pick(&[f64::INFINITY, f64::NEG_INFINITY])),
                6..=10 => Some((r.below(101) as f64 - 50.0) / 2.0),
                _ => Some(200.0 * r.unit() - 100.0),
            },
        })
        .collect();
    let x: Vec<f64> = (0..n).map(|_| *r.pick(&X)).collect();
    let y = g
        .iter()
        .zip(&x)
        .map(|(&g, &x)| laws[g].0 * x.powf(laws[g].1) * (1.0 + 0.01 * (r.unit() - 0.5)))
        .collect();
    vec![
        Column::from_i64(k),
        Column::from_i64(g.iter().map(|&g| g as i64).collect()),
        Column::from_f64_opt(v),
        Column::from_f64(x),
        Column::from_f64(y),
    ]
}

/// An unfiltered aggregate of bare columns, the captured response `y`
/// among them: at default morsels it must answer from zone partials
/// alone, before capture and after.
const PUSHED: &str = "SELECT COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS s, AVG(v) AS m, \
                      MIN(v) AS lo, MAX(v) AS hi, SUM(k) AS sk, MIN(k) AS klo, MAX(k) AS khi, \
                      SUM(y) AS sy, MAX(y) AS yhi FROM t";

/// A global aggregate behind equality on `g`, the hash key when a case
/// shards by hash: the cluster asks only the shard that owns `g`.
/// `g = GROUPS` matches no row, and `g = 1.5` is a literal an integer
/// key must not route on.
fn routed(g: f64) -> String {
    format!("SELECT COUNT(*) AS n, SUM(v) AS s, AVG(y) AS m FROM t WHERE g = {g}")
}

#[rustfmt::skip]
const AGGS: [&str; 12] = [
    "COUNT(*)", "COUNT(v)", "SUM(v)", "AVG(v)", "MIN(v)", "MAX(v)", "SUM(k)", "MIN(k)", "MAX(k)",
    "AVG(x)", "SUM(v * 2)", "MAX(-v)",
];

/// `(SELECT item, output name)`.
#[rustfmt::skip]
const ITEMS: [(&str, &str); 7] = [
    ("k", "k"), ("g", "g"), ("v", "v"), ("x", "x"),
    ("k + 1 AS k1", "k1"), ("v * 2 + g AS e", "e"), ("-v AS nv", "nv"),
];

/// The grammar: a projection (`*` or up to three items, maybe DISTINCT)
/// or an aggregate (up to four, maybe grouped), a WHERE of up to three
/// conjuncts, then maybe ORDER BY and LIMIT over the output columns.
fn query(r: &mut Rng) -> String {
    let filter = filter(r);
    if r.one_in(2) {
        let (select, outputs): (Vec<&str>, Vec<&str>) = if r.one_in(8) {
            (vec!["*"], COLUMNS.to_vec())
        } else {
            let mut items = ITEMS.to_vec();
            (0..1 + r.below(3)).map(|_| items.remove(r.below(items.len()))).unzip()
        };
        let distinct = if r.one_in(4) { "DISTINCT " } else { "" };
        format!("SELECT {distinct}{} FROM t{filter}{}", select.join(", "), tail(r, &outputs))
    } else {
        #[rustfmt::skip]
        let groups: [&[&str]; 9] = [
            &[], &[], &["g"], &["k"], &["v"], &["x"], &["g", "k"], &["v", "g"], &["g", "k", "v"],
        ];
        let group = *r.pick(&groups);
        // `(SELECT item, output name)`: the group columns, then the
        // aggregates, or in half the cases each group column placed
        // anywhere in the list or left out.
        let mut items: Vec<(String, String)> =
            group.iter().map(|g| (g.to_string(), g.to_string())).collect();
        items.extend(
            (0..1 + r.below(4)).map(|i| (format!("{} AS a{i}", r.pick(&AGGS)), format!("a{i}"))),
        );
        if r.one_in(2) {
            for g in items.drain(..group.len()).collect::<Vec<_>>() {
                if !r.one_in(3) {
                    let at = r.below(items.len() + 1);
                    items.insert(at, g);
                }
            }
        }
        let select: Vec<&str> = items.iter().map(|(item, _)| item.as_str()).collect();
        let outputs: Vec<&str> = items.iter().map(|(_, name)| name.as_str()).collect();
        let group_by = if group.is_empty() {
            String::new()
        } else {
            format!(" GROUP BY {}", group.join(", "))
        };
        format!("SELECT {} FROM t{filter}{group_by}{}", select.join(", "), tail(r, &outputs))
    }
}

fn literal(r: &mut Rng, column: &str) -> f64 {
    match column {
        "k" => r.below(70) as f64,
        "g" => r.below(GROUPS + 1) as f64,
        "x" => *r.pick(&X),
        _ => (r.below(241) as f64 - 120.0) / 2.0,
    }
}

fn comparison(r: &mut Rng) -> String {
    let column = *r.pick(&["k", "k", "g", "v", "v", "x"]);
    let op = r.pick(&["<", "<=", ">", ">=", "=", "!="]);
    format!("{column} {op} {}", literal(r, column))
}

fn filter(r: &mut Rng) -> String {
    let conjuncts: Vec<String> = (0..r.below(4))
        .map(|_| match r.below(8) {
            0 => format!("NOT ({})", comparison(r)),
            1 => format!("({} OR {})", comparison(r), comparison(r)),
            2 => {
                let column = *r.pick(&["k", "v"]);
                let (a, b) = (literal(r, column), literal(r, column));
                format!("{column} BETWEEN {} AND {}", a.min(b), a.max(b))
            }
            3 => format!("k * 2 < {}", r.below(140)),
            _ => comparison(r),
        })
        .collect();
    if conjuncts.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conjuncts.join(" AND "))
    }
}

fn tail(r: &mut Rng, outputs: &[&str]) -> String {
    let mut out = String::new();
    if r.one_in(2) {
        let keys: Vec<String> = (0..1 + r.below(2))
            .map(|_| format!("{}{}", r.pick(outputs), r.pick(&["", " ASC", " DESC"])))
            .collect();
        out += &format!(" ORDER BY {}", keys.join(", "));
    }
    if r.one_in(3) {
        out += &format!(" LIMIT {}", r.pick(&[0, 1, 7, 50]));
    }
    out
}

/// Shapes over the captured response: point aggregates at observed
/// `(g, x)` pairs, which a model answers by one lookup, filters on the
/// response, and last an aggregate that also names `k`, which the model
/// does not reconstruct.
fn model_queries(r: &mut Rng, t: &Table) -> Vec<String> {
    let mut sql: Vec<String> = (0..2)
        .map(|_| {
            let row = t.row(r.below(t.row_count())).unwrap();
            format!("SELECT AVG(y) AS a FROM t WHERE g = {} AND x = {}", row[1], row[3])
        })
        .collect();
    let bound = 0.5 + 8.0 * r.unit();
    sql.push(format!("SELECT g, x, y FROM t WHERE y > {bound:.2} ORDER BY y DESC LIMIT 7"));
    sql.push(format!("SELECT COUNT(*) AS n, MAX(y) AS hi FROM t WHERE y < {bound:.2}"));
    sql.push(format!("SELECT g, SUM(y) AS s FROM t WHERE k >= {} GROUP BY g", r.below(64)));
    sql
}

/// Single aggregates of `y`, which a linear law answers in closed form
/// when the WHERE is sargable conjuncts on `g` and `x` and no `!=`, and
/// by enumeration otherwise. `x` is never pinned by `=`: with `g` pinned
/// too, that would be a point lookup, which the model answers even where
/// no row was observed.
fn linear_queries(r: &mut Rng) -> Vec<String> {
    (0..4)
        .map(|_| {
            let agg = r.pick(&["COUNT(y)", "SUM(y)", "AVG(y)", "MIN(y)", "MAX(y)"]);
            let conjuncts: Vec<String> = (0..r.below(3))
                .map(|_| {
                    let column = *r.pick(&["g", "x", "x"]);
                    let literal = literal(r, column);
                    match r.below(6) {
                        0 => format!("{column} != {literal}"),
                        1 => format!("{column} * 2 > {}", 2.0 * literal),
                        2 => format!("({column} < {literal} OR g = {})", r.below(GROUPS)),
                        _ if column == "x" => {
                            format!("x {} {literal}", r.pick(&["<", "<=", ">", ">="]))
                        }
                        _ => format!("g {} {literal}", r.pick(&["<", "<=", ">", ">=", "="])),
                    }
                })
                .collect();
            let filter = match conjuncts.is_empty() {
                true => String::new(),
                false => format!(" WHERE {}", conjuncts.join(" AND ")),
            };
            format!("SELECT {agg} AS a FROM t{filter}")
        })
        .collect()
}

// --------------------------------------------------------------- driver

impl Shards {
    /// A cluster over `table`: replica 0 killed on the masked shards,
    /// and one failure armed on replica 0 of one shard.
    fn build(&self, table: &Table) -> Arc<Cluster> {
        let cluster = Cluster::new(table, self.config.clone(), &MetricsRegistry::new()).unwrap();
        for s in (0..self.config.shards).filter(|s| self.kill_mask & 1 << s != 0) {
            cluster.kill_replica(s, 0);
        }
        cluster.inject_failure(self.inject.0, 0, self.inject.1);
        Arc::new(cluster)
    }
}

/// Where one case stands: the engine with its server and cluster, and
/// the table the oracle reads.
struct Run {
    seed: u64,
    case: u64,
    db: Arc<LawsDb>,
    server: Arc<Server>,
    client: Client<PipeStream>,
    cluster: Arc<Cluster>,
    table: Table,
    exec: ExecOptions,
    /// The captured model's `max_abs_residual` while it is current.
    bound: Option<f64>,
    point_checks: usize,
    relation_checks: usize,
    closed_checks: usize,
}

/// Runs one case; returns the model point lookups, enumerations and
/// closed-form aggregates it checked.
fn run_case(seed: u64, case: u64) -> [usize; 3] {
    let mut r = Rng(seed ^ case.wrapping_mul(0xA076_1D64_78BD_642F));
    let c = Case::generate(&mut r);
    let mut db = LawsDb::new();
    db.quality.min_r2 = 0.0;
    db.register_table(c.table.clone()).unwrap();
    let db = Arc::new(db);
    let server = Server::new(Arc::clone(&db), ServerConfig::default());
    let cluster = c.shards.build(&c.table);
    server.attach_cluster(Arc::clone(&cluster));
    let client = Client::connect(server.connect()).unwrap();
    let table = c.table.clone();
    let (bound, point_checks, relation_checks, closed_checks) = (None, 0, 0, 0);
    let exec = c.exec;
    let mut run = Run {
        seed,
        case,
        db,
        server,
        client,
        cluster,
        table,
        exec,
        bound,
        point_checks,
        relation_checks,
        closed_checks,
    };

    for sql in &c.sql {
        run.every_path(sql);
    }
    if run.table.row_count() > 0 {
        run.pushed_from_zone_partials();
    }
    let mut sql = c.sql;
    let mut point = None;
    if run.table.row_count() >= 40 {
        let options = FitOptions::default().with_initial("alpha", -0.7);
        let m = run.db.capture_model("t", "y ~ p * x ^ alpha", Some("g"), &options);
        let m = run.ok("capture", "", m);
        run.bound = Some(m.max_abs_residual.unwrap_or_else(|| run.fail("capture", "", "no bound")));
        run.pushed_from_zone_partials();
        let extra = model_queries(&mut r, &run.table);
        point = Some(extra[0].clone());
        let unmodelled = extra[extra.len() - 1].clone();
        sql.extend(extra.iter().cloned());
        for s in &sql {
            run.every_path(s);
        }
        // The model cannot answer it, so the ladder degrades, exactly.
        let path = "5 Resilient, unmodelled column";
        let a = run.db.answer(&unmodelled, AnswerMode::Resilient, &run.db.exec);
        let a = run.ok(path, &unmodelled, a);
        if !matches!(a.degraded.as_slice(), [DegradeReason::NoModel { .. }]) {
            run.fail(path, &unmodelled, &format!("{:?}", a.degraded));
        }
        let (lo, hi) = (r.below(4), 4 + r.below(4));
        let others = [
            ("y ~ p * x ^ alpha", Some(format!("x >= {} AND x <= {}", X[lo], X[hi]))),
            ("y ~ p * x ^ alpha", Some(format!("x < {} OR x > {}", X[lo], X[hi]))),
            ("y ~ a + b * x", None),
        ];
        let linear = linear_queries(&mut r);
        run.other_models(m.id, &others, &options, extra.iter().chain(&linear));
    }

    let mut batch = c.append;
    run.bound = None;
    if let Some(point) = point {
        // One row behind the engine's invalidation hook: the model is
        // still active, and the freshness guard must catch it.
        let first: Vec<Column> = batch.iter().map(|col| col.slice(0, 1).unwrap()).collect();
        batch = batch.iter().map(|col| col.slice(1, col.len() - 1).unwrap()).collect();
        run.table.append_rows(&first).unwrap();
        let mut grown = (*run.db.table("t").unwrap()).clone();
        grown.append_rows(&first).unwrap();
        run.db.tables().replace(grown);
        let a = run.db.answer(&point, AnswerMode::Resilient, &run.db.exec);
        let a = run.ok("5 Resilient, stale", &point, a);
        if !matches!(a.degraded.as_slice(), [DegradeReason::StaleRowCount { .. }]) {
            run.fail("5 Resilient, stale", &point, &format!("{:?}", a.degraded));
        }
        run.same("5 Resilient, stale", &point, &run.want(&point), a.answer.table());
    }
    run.table.append_rows(&batch).unwrap();
    run.db.append_rows("t", &batch).unwrap();
    run.cluster = c.shards.build(&run.table);
    run.server.attach_cluster(Arc::clone(&run.cluster));
    for s in &sql {
        let want = run.want(s);
        run.served_paths(s, &want, None);
    }
    run.client.close().unwrap();
    [run.point_checks, run.relation_checks, run.closed_checks]
}

impl Run {
    /// Paths 4–6 over each of `models` (formula, SQL coverage) in turn,
    /// the live model `live` retired meanwhile. A fit the quality gate
    /// rejects (none of its groups fitted) is skipped.
    fn other_models<'s>(
        &mut self,
        live: ModelId,
        models: &[(&str, Option<String>)],
        options: &FitOptions,
        sql: impl Iterator<Item = &'s String> + Clone,
    ) {
        let catalog = Arc::clone(self.db.models());
        let set = |id, state| catalog.set_state(id, state).expect("the model is stored");
        set(live, ModelState::Retired);
        let saved = self.bound;
        for (formula, coverage) in models {
            let path = format!("capture {formula} where {coverage:?}");
            let m = match coverage {
                Some(c) => self.db.capture_model_where("t", formula, Some("g"), c, options),
                None => self.db.capture_model("t", formula, Some("g"), options),
            };
            let m = match m {
                Err(CoreError::QualityRejected { .. }) => continue,
                m => self.ok(&path, "", m),
            };
            let bound = m.max_abs_residual.unwrap_or_else(|| self.fail(&path, "", "no bound"));
            self.bound = Some(bound);
            for s in sql.clone() {
                let want = self.want(s);
                self.served_paths(s, &want, None);
            }
            set(m.id, ModelState::Retired);
        }
        set(live, ModelState::Active);
        self.bound = saved;
    }

    fn fail(&self, path: &str, sql: &str, msg: &str) -> ! {
        panic!("LAWSDB_FAULT_SEED={} case {} path {path}\n  {sql}\n{msg}", self.seed, self.case)
    }

    fn ok<T, E: std::fmt::Display>(&self, path: &str, sql: &str, r: Result<T, E>) -> T {
        r.unwrap_or_else(|e| self.fail(path, sql, &e.to_string()))
    }

    fn want(&self, sql: &str) -> String {
        oracle::answer(&self.table, sql).fingerprint()
    }

    fn same(&self, path: &str, sql: &str, want: &str, got: &Table) {
        let got = oracle::fingerprint(got);
        if got != want {
            let (w, g): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
            let at = w.iter().zip(&g).position(|(a, b)| a != b).unwrap_or(w.len().min(g.len()));
            let (nw, ng, lw, lg) = (w.len(), g.len(), w.get(at), g.get(at));
            let msg = format!("{nw} vs {ng} lines; line {at}:\n  oracle {lw:?}\n  engine {lg:?}");
            self.fail(path, sql, &msg);
        }
    }

    /// A one-cell answer within a relative 1e-9 of `want`'s, with its
    /// name and type.
    fn close(&self, path: &str, sql: &str, want: &oracle::Relation, got: &Table) {
        let (w, g) = (want.fingerprint(), oracle::fingerprint(got));
        let header = |f: &str| f.lines().next().map(str::to_string);
        let cell = |r: &oracle::Relation| r.rows.first().and_then(|row| row.first()).cloned();
        let (wv, gv) = (cell(want), cell(&oracle::Relation::of(got)));
        let number = |v: &Option<Value>| v.as_ref().and_then(Value::as_f64);
        let near = match (number(&wv), number(&gv)) {
            (Some(a), Some(b)) => (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            _ => wv == gv,
        };
        let one_row = want.rows.len() == 1 && got.row_count() == 1;
        if header(&w) != header(&g) || !one_row || !near {
            self.fail(path, sql, &format!("closed form {gv:?} vs relation {wv:?}\n{g}\n{w}"));
        }
    }

    fn same_rows(&self, path: &str, sql: &str, want: usize, got: usize) {
        if want != got {
            self.fail(path, sql, &format!("rows_scanned {got}, path 1 scanned {want}"));
        }
    }

    /// Paths 1–7.
    fn every_path(&mut self, sql: &str) {
        let want = self.want(sql);
        let catalog = self.db.tables();
        let unpruned = ExecOptions { threads: 1, pruning: false, ..ExecOptions::default() };
        let base = self.ok("1 unpruned", sql, execute_with(catalog, sql, &unpruned));
        self.same("1 unpruned", sql, &want, &base.table);
        for threads in [1, 4] {
            let path = format!("2 pruned, {threads} threads");
            let opts = ExecOptions { threads, ..self.exec.clone() };
            let r = self.ok(&path, sql, execute_with(catalog, sql, &opts));
            self.same(&path, sql, &want, &r.table);
            self.same_rows(&path, sql, base.rows_scanned, r.rows_scanned);
        }

        let stmt = self.ok("3 physical", sql, parse_select(sql));
        let logical = optimize(&self.ok("3 physical", sql, LogicalPlan::from_statement(&stmt)));
        let physical = plan_physical(catalog, &logical, &CostConstants::default());
        let (annotated, bare) = (physical.explain(), physical.logical().explain());
        // Cut an annotated line back to what the logical renderer prints.
        let strip = |line: &str| -> String {
            let cut = [" · est_", " zones["].iter().filter_map(|m| line.find(m)).min();
            line[..cut.unwrap_or(line.len())].to_string()
        };
        let annotated_right = physical.notes().len() == nodes(physical.logical())
            && annotated.lines().count() == bare.lines().count()
            && annotated.lines().zip(bare.lines()).all(|(a, b)| {
                strip(a) == b && a.contains(" · est_") != b.trim_start().starts_with("Pruning")
            });
        if !annotated_right {
            self.fail("3 explain", sql, &format!("{annotated}\n-- logical --\n{bare}"));
        }
        let r = self.ok("3 physical", sql, execute_physical_with(catalog, &physical, &self.exec));
        self.same("3 physical", sql, &want, &r.table);
        self.same_rows("3 physical", sql, base.rows_scanned, r.rows_scanned);

        let a = self.ok("7 cluster", sql, self.cluster.query(sql, &self.exec));
        if a.approximate {
            self.fail("7 cluster", sql, "approximate under single-replica failures");
        }
        self.same("7 cluster", sql, &want, &a.table);
        self.served_paths(sql, &want, Some(base.rows_scanned));
    }

    /// Paths 4–6. `rows` is what path 1 scanned, when it ran.
    fn served_paths(&mut self, sql: &str, want: &str, rows: Option<usize>) {
        let first = self.ok("4 query", sql, self.db.query(sql));
        let rows = rows.unwrap_or(first.rows_scanned);
        let hits = self.db.plan_cache().hit_count();
        let second = self.ok("4 query, cached", sql, self.db.query(sql));
        if self.db.plan_cache().hit_count() != hits + 1 {
            self.fail("4 query, cached", sql, "the second call missed the plan cache");
        }
        for (path, r) in [("4 query", &first), ("4 query, cached", &second)] {
            self.same(path, sql, want, &r.table);
            self.same_rows(path, sql, rows, r.rows_scanned);
        }

        for mode in [AnswerMode::Resilient, AnswerMode::Adaptive] {
            let path = format!("5 {mode:?}");
            let a = self.ok(&path, sql, self.db.answer(sql, mode, &self.db.exec));
            match (&a.answer, self.bound) {
                (Answer::Exact(r), _) => {
                    self.same(&path, sql, want, &r.table);
                    self.same_rows(&path, sql, rows, r.rows_scanned);
                }
                (Answer::Approx(x), Some(bound)) if x.strategy == Strategy::PointLookup => {
                    let got = x.table.row(0).unwrap()[0].as_f64().unwrap();
                    let exact = oracle::answer(&self.table, sql).rows[0][0].as_f64().unwrap();
                    let err = (got - exact).abs();
                    if err.is_nan() || err > bound {
                        let msg = format!("model {got} vs exact {exact}, max_abs_residual {bound}");
                        self.fail(&path, sql, &msg);
                    }
                    self.point_checks += 1;
                }
                (Answer::Approx(x), Some(_)) => {
                    let model = self.ok(&path, sql, self.db.models().get(x.model));
                    let relation = oracle::answer(&reconstruction(&model), sql);
                    let path = format!("{path}, model relation");
                    if x.strategy == Strategy::AnalyticAggregate {
                        self.close(&path, sql, &relation, &x.table);
                        self.closed_checks += 1;
                    } else {
                        self.same(&path, sql, &relation.fingerprint(), &x.table);
                        self.relation_checks += 1;
                    }
                }
                (Answer::Approx(_), None) => self.fail(&path, sql, "approximate with no model"),
            }
            if let Answer::Approx(x) = &a.answer {
                self.approx_under_any_options(&path, sql, mode, &x.table);
            }
        }

        let w = self.client.query(QueryMode::Exact, sql);
        let w = self.ok("6 wire", sql, w);
        self.same("6 wire", sql, want, &w.table);
        self.same_rows("6 wire", sql, rows, w.rows_scanned as usize);
        let w = self.client.query(QueryMode::Cluster, sql);
        let w = self.ok("6 wire cluster", sql, w);
        if w.approximate {
            self.fail("6 wire cluster", sql, "approximate under single-replica failures");
        }
        self.same("6 wire cluster", sql, want, &w.table);
    }

    /// An approximate answer has the same bits on 1 and 4 threads, at
    /// 1, 7 and the default cells per morsel.
    fn approx_under_any_options(&self, path: &str, sql: &str, mode: AnswerMode, want: &Table) {
        let want = oracle::fingerprint(want);
        for threads in [1, 4] {
            for morsel_rows in [1, 7, ExecOptions::default().morsel_rows] {
                let path = format!("{path}, {threads} threads, {morsel_rows} per morsel");
                let opts = ExecOptions { threads, morsel_rows, ..self.db.exec.clone() };
                match self.ok(&path, sql, self.db.answer(sql, mode, &opts)).answer {
                    Answer::Approx(x) => self.same(&path, sql, &want, &x.table),
                    Answer::Exact(_) => self.fail(&path, sql, "exact under other options"),
                }
            }
        }
    }

    /// At default morsels, the unfiltered aggregate of bare columns
    /// reads zone partials and no page.
    fn pushed_from_zone_partials(&self) {
        let stats = Arc::new(ScanStatsCollector::default());
        let opts = ExecOptions { stats: Some(Arc::clone(&stats)), ..ExecOptions::default() };
        let r = self.ok("2 pushed", PUSHED, execute_with(self.db.tables(), PUSHED, &opts));
        self.same("2 pushed", PUSHED, &self.want(PUSHED), &r.table);
        let s = stats.snapshot();
        if s.zones_agg_synopsis == 0 || s.pages_total != 0 {
            self.fail("2 pushed", PUSHED, &format!("not answered from zone partials: {s:?}"));
        }
    }
}

/// The relation a model answers over, one cell at a time: every group
/// key × every enumerated point of the variables, in that order, with
/// the response from `predict_scalar`, kept when the Bloom filter of
/// combinations observed at capture holds the point, and then the rows
/// the oracle's `WHERE` keeps under the model's coverage and legal
/// filter. A query pinning a variable to a value outside its domain is
/// not rebuilt here; the grammar pins the variable only in point
/// lookups.
fn reconstruction(model: &CapturedModel) -> Table {
    let vars = &model.coverage.variables;
    let group = &model.params.group_column;
    let keys: Vec<Option<i64>> = match group {
        Some(_) => model.params.keys.iter().copied().map(Some).collect(),
        None => vec![None],
    };
    let domains: Vec<&[f64]> = vars.iter().map(|v| model.coverage.domain_of(v).unwrap()).collect();
    let points = domains.iter().fold(vec![Vec::new()], |acc, d| {
        acc.iter().flat_map(|p| d.iter().map(move |&v| [p.clone(), vec![v]].concat())).collect()
    });
    let (mut gs, mut xs, mut ys) = (Vec::new(), vec![Vec::new(); vars.len()], Vec::new());
    for key in keys {
        for point in &points {
            let mut inputs: Vec<(&str, f64)> =
                vars.iter().map(String::as_str).zip(point.iter().copied()).collect();
            if let (Some(g), Some(k)) = (group, key) {
                inputs.push((g.as_str(), k as f64));
            }
            let observed = model
                .observed_combos
                .as_ref()
                .is_none_or(|bf| bf.contains(combo_hash(key.unwrap_or(0), point)));
            if !observed {
                continue;
            }
            gs.push(key.unwrap_or(0));
            for (col, v) in xs.iter_mut().zip(point) {
                col.push(*v);
            }
            ys.push(model.predict_scalar(key, &inputs).unwrap());
        }
    }
    let mut b = TableBuilder::new(model.coverage.table.clone());
    if let Some(g) = group {
        b.add_i64(g.clone(), gs);
    }
    for (var, col) in vars.iter().zip(xs) {
        b.add_f64(var.clone(), col);
    }
    b.add_f64(model.coverage.response.clone(), ys);
    let relation = b.build().unwrap();
    let clip = [&model.coverage.predicate, &model.legal_filter]
        .into_iter()
        .flatten()
        .map(|src| parse_predicate(src).unwrap())
        .reduce(|a, b| ScalarExpr::And(Box::new(a), Box::new(b)));
    match clip {
        Some(p) => relation.take(&oracle::rows_where(&relation, &p)).unwrap(),
        None => relation,
    }
}

fn nodes(plan: &LogicalPlan) -> usize {
    1 + plan.inputs().into_iter().map(nodes).sum::<usize>()
}
