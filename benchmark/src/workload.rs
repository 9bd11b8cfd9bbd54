//! The five workloads: their shapes, their mix, and the seeded op
//! stream each client draws from.
//!
//! **Mix rule.** Ops come in blocks of [`BLOCK_OPS`]. In every block at
//! least 60 % of the ops are *light*, exactly 10 % are *heavy* and the
//! rest are *mid*. With the heavy class the slowest tenth, the pooled
//! median falls inside the light class and the pooled 95th percentile
//! is the heavy class's own median, so neither sits on a class
//! boundary where a small shift would move it by a whole class.

use crate::rng::Rng;
use lawsdb::server::QueryMode;

/// Ops per block — the unit the mix rule holds over, and one
/// `ingest_refit` cycle.
pub const BLOCK_OPS: usize = 100;

/// The fixture's only table.
pub const TABLE: &str = "measurements";

/// Cost class of a shape (see the mix rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// At least 60 % of ops; holds the pooled median.
    Light,
    /// Whatever light and heavy leave.
    Mid,
    /// Exactly 10 % of ops; its median is the pooled p95.
    Heavy,
}

/// What running an op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Send SQL over the wire in this mode and wait for the reply.
    Query(QueryMode),
    /// One acknowledged durable append (`append_rows` + `replace_table`).
    Append,
    /// `LawsDb::refit` + `DurableDb::save_models`.
    Refit,
}

/// The SQL a shape sends; literals come from the seeded pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// `intensity` of one source in one band.
    Point,
    /// `AVG(intensity)` of one source.
    SrcAvg,
    /// COUNT/SUM/AVG over the bands above 0.13.
    FiltAgg,
    /// Two columns of one band above an intensity threshold.
    Thresh,
    /// `AVG(intensity)` per source — as many groups as sources.
    GroupAgg,
    /// Two columns for a 7 % range of sources.
    Range,
    /// One column of one band above an intensity threshold.
    Band,
    /// Every column of every row.
    Full,
    /// `AVG(intensity)` of the table.
    GlobalAvg,
    /// `AVG(intensity)` of one band.
    BandAvg,
    /// Not a query (append, refit).
    NoSql,
}

/// One named kind of op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    /// Name, unique across workloads unless the SQL is the same too.
    pub name: &'static str,
    /// Cost class.
    pub class: Class,
    /// Ops of this shape in every block.
    pub per_block: usize,
    /// What the op does.
    pub action: Action,
    /// The SQL it sends.
    pub template: Template,
}

/// Seeded literal pools. A pool wider than the plan cache (256 plans)
/// keeps plan reuse low; a narrow one keeps it high.
#[derive(Debug, Clone, PartialEq)]
pub struct Literals {
    /// Source ids for `point` / `src_avg`, drawn without replacement.
    pub sources: Vec<i64>,
    /// Intensity thresholds for `thresh` / `band`, as they appear in SQL.
    pub thresholds: Vec<String>,
    /// First source of each `range`.
    pub range_starts: Vec<i64>,
    /// Sources per `range` (7 % of all sources).
    pub range_width: i64,
}

impl Literals {
    /// Draw the pools for a fixture of `sources` sources.
    pub fn generate(seed: u64, sources: usize, source_pool: usize) -> Literals {
        let mut rng = Rng::new(seed, &[0x11]);
        let mut all: Vec<i64> = (0..sources as i64).collect();
        rng.shuffle(&mut all);
        all.truncate(source_pool.min(sources));
        let thresholds = (0..32).map(|_| format!("{:.3}", 0.3 + 0.7 * rng.unit())).collect();
        let range_width = (sources as i64 * 7 / 100).max(1);
        let span = (sources as i64 - range_width).max(1) as usize;
        let range_starts = (0..64).map(|_| rng.below(span) as i64).collect();
        Literals { sources: all, thresholds, range_starts, range_width }
    }
}

impl Template {
    /// How many distinct texts this template has over `lits`.
    fn variants(self, lits: &Literals) -> usize {
        match self {
            Template::Point | Template::SrcAvg => lits.sources.len(),
            Template::Thresh | Template::Band => lits.thresholds.len(),
            Template::Range => lits.range_starts.len(),
            Template::NoSql => 0,
            _ => 1,
        }
    }

    /// The `i`-th text of this template.
    fn text(self, lits: &Literals, i: usize) -> String {
        match self {
            Template::Point => format!(
                "SELECT intensity FROM {TABLE} WHERE source = {} AND nu = 0.15",
                lits.sources[i]
            ),
            Template::SrcAvg => format!(
                "SELECT AVG(intensity) AS m FROM {TABLE} WHERE source = {}",
                lits.sources[i]
            ),
            Template::FiltAgg => format!(
                "SELECT COUNT(*) AS n, SUM(intensity) AS s, AVG(intensity) AS m \
                 FROM {TABLE} WHERE nu > 0.13"
            ),
            Template::Thresh => format!(
                "SELECT source, intensity FROM {TABLE} WHERE nu = 0.15 AND intensity > {}",
                lits.thresholds[i]
            ),
            Template::GroupAgg => {
                format!("SELECT source, AVG(intensity) AS m FROM {TABLE} GROUP BY source")
            }
            Template::Range => format!(
                "SELECT source, intensity FROM {TABLE} WHERE source >= {} AND source < {}",
                lits.range_starts[i],
                lits.range_starts[i] + lits.range_width
            ),
            Template::Band => format!(
                "SELECT intensity FROM {TABLE} WHERE nu = 0.15 AND intensity > {}",
                lits.thresholds[i]
            ),
            Template::Full => format!("SELECT source, nu, intensity FROM {TABLE}"),
            Template::GlobalAvg => format!("SELECT AVG(intensity) AS m FROM {TABLE}"),
            Template::BandAvg => format!("SELECT AVG(intensity) AS m FROM {TABLE} WHERE nu = 0.15"),
            Template::NoSql => String::new(),
        }
    }
}

/// One op of a client's stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Index into the workload's shapes.
    pub shape: usize,
    /// SQL text (empty for append / refit).
    pub sql: String,
    /// For an append, its sequence number (seeds the batch).
    pub seq: u64,
}

/// A workload: shapes, mix, the system it needs and its fixed sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on why it exists.
    pub why: &'static str,
    /// Shapes, light first.
    pub shapes: Vec<Shape>,
    /// Closed-loop client connections, one OS thread each.
    pub clients: usize,
    /// Blocks run in the fixed `ingest_refit` cycle order instead of
    /// shuffled, and phases end on whole blocks.
    pub cycle: bool,
    /// Capture `intensity ~ p * nu ^ alpha` per source in set-up.
    pub fit_model: bool,
    /// Build and attach the 4 × 2 cluster in set-up.
    pub cluster: bool,
    /// Keep a durable copy on a simulated device, restarted at the end.
    pub durable: bool,
    /// Ops per client run and discarded before timing (a whole block
    /// for a cycle workload, so the cycle ends on a fresh model).
    pub warmup_ops: usize,
    /// Ops the probe phase times layer by layer.
    pub probe_ops: usize,
    /// Blocks after which the timed phase ends even if `--seconds` has
    /// not passed; `None` for no cap. Only a workload whose memory
    /// grows with the work done sets it (see `ingest_refit`).
    pub max_timed_blocks: Option<u64>,
}

fn shape(
    name: &'static str,
    class: Class,
    per_block: usize,
    action: Action,
    template: Template,
) -> Shape {
    Shape { name, class, per_block, action, template }
}

impl Workload {
    /// The five workloads, in reporting order.
    pub fn all() -> Vec<Workload> {
        use Action::Query;
        use Class::{Heavy, Light, Mid};
        use QueryMode::{Adaptive, Cluster, Exact, Resilient};
        let serve = Workload {
            name: "",
            why: "",
            shapes: Vec::new(),
            clients: 2,
            cycle: false,
            fit_model: false,
            cluster: false,
            durable: false,
            warmup_ops: 100,
            probe_ops: 200,
            max_timed_blocks: None,
        };
        vec![
            Workload {
                name: "serve_exact",
                why: "exact point, filter and group-by queries: parse, plan cache, pruning and \
                      the morsel executor do the work; cluster, approx and the WAL do none",
                shapes: vec![
                    shape("point", Light, 35, Query(Exact), Template::Point),
                    shape("src_avg", Light, 35, Query(Exact), Template::SrcAvg),
                    shape("filt_agg", Mid, 10, Query(Exact), Template::FiltAgg),
                    shape("thresh", Mid, 10, Query(Exact), Template::Thresh),
                    shape("group_agg", Heavy, 10, Query(Exact), Template::GroupAgg),
                ],
                ..serve.clone()
            },
            Workload {
                name: "serve_wide",
                why: "wide result sets: protocol encode/decode and the pipe move most of the \
                      bytes, so a wire change shows here and an exec-kernel change barely does",
                shapes: vec![
                    shape("range", Light, 70, Query(Exact), Template::Range),
                    shape("band", Mid, 20, Query(Exact), Template::Band),
                    shape("full", Heavy, 10, Query(Exact), Template::Full),
                ],
                warmup_ops: 50,
                probe_ops: 100,
                ..serve.clone()
            },
            Workload {
                name: "serve_model",
                why: "the paper's path: the same aggregates as serve_exact answered from the \
                      captured model with zero rows scanned, each checked against its bound",
                shapes: vec![
                    shape("m_point", Light, 35, Query(Resilient), Template::Point),
                    shape("m_src_avg", Light, 35, Query(Resilient), Template::SrcAvg),
                    shape("m_global_avg", Mid, 10, Query(Adaptive), Template::GlobalAvg),
                    shape("m_band_avg", Mid, 10, Query(Adaptive), Template::BandAvg),
                    shape("m_group_avg", Heavy, 10, Query(Adaptive), Template::GroupAgg),
                ],
                fit_model: true,
                ..serve.clone()
            },
            Workload {
                name: "cluster_scatter",
                why: "serve_exact's aggregates through 4 hash shards x 2 replicas: replica \
                      fetch, gather and merge dominate, so the cluster's fetch tax shows here",
                shapes: vec![
                    shape("src_avg", Light, 70, Query(Cluster), Template::SrcAvg),
                    shape("filt_agg", Mid, 20, Query(Cluster), Template::FiltAgg),
                    shape("group_agg", Heavy, 10, Query(Cluster), Template::GroupAgg),
                ],
                cluster: true,
                warmup_ops: 10,
                probe_ops: 20,
                ..serve.clone()
            },
            Workload {
                name: "ingest_refit",
                why: "durable appends and refits beside model reads: a read-side gain bought \
                      with resident copies or bigger synopses shows as write cost or RSS here",
                shapes: vec![
                    shape("read_stale", Light, 40, Query(Resilient), Template::SrcAvg),
                    shape("read_fresh", Light, 49, Query(Resilient), Template::SrcAvg),
                    shape("append", Heavy, 10, Action::Append, Template::NoSql),
                    shape("refit", Mid, 1, Action::Refit, Template::NoSql),
                ],
                clients: 1,
                cycle: true,
                fit_model: true,
                durable: true,
                warmup_ops: BLOCK_OPS,
                probe_ops: 100,
                // The durable store never reuses a page and the simulated
                // device is memory: every append adds the whole table
                // (≈ 5 MB) to the process. Past ≈ 450 MB this sandbox's
                // page faults get four times dearer, `append_rows` with
                // them, and a machine that got further would report
                // slower appends. Seven cycles with the warm-up stay
                // well below that.
                max_timed_blocks: Some(6),
                ..serve
            },
        ]
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// Ops per block in each class: `(light, mid, heavy)`.
    pub fn mix(&self) -> (usize, usize, usize) {
        let count = |class| {
            self.shapes.iter().filter(|s| s.class == class).map(|s| s.per_block).sum::<usize>()
        };
        (count(Class::Light), count(Class::Mid), count(Class::Heavy))
    }

    /// Index of a shape by name.
    pub fn shape_index(&self, name: &str) -> Option<usize> {
        self.shapes.iter().position(|s| s.name == name)
    }

    /// Shape order of one block: shuffled, or the fixed ingest cycle —
    /// ten times (`append`, four `read_stale`), one `refit`, then the
    /// `read_fresh` reads.
    fn block_order(&self, rng: &mut Rng) -> Vec<usize> {
        if self.cycle {
            let of = |name| self.shape_index(name).expect("cycle shape");
            let (stale, fresh, append, refit) =
                (of("read_stale"), of("read_fresh"), of("append"), of("refit"));
            let appends = self.shapes[append].per_block;
            let stale_per_append = self.shapes[stale].per_block / appends;
            let mut order = Vec::with_capacity(BLOCK_OPS);
            for _ in 0..appends {
                order.push(append);
                order.extend(std::iter::repeat_n(stale, stale_per_append));
            }
            order.push(refit);
            order.extend(std::iter::repeat_n(fresh, self.shapes[fresh].per_block));
            order
        } else {
            let mut order: Vec<usize> = self
                .shapes
                .iter()
                .enumerate()
                .flat_map(|(i, s)| std::iter::repeat_n(i, s.per_block))
                .collect();
            rng.shuffle(&mut order);
            order
        }
    }

    /// Block `block` of client `client`'s stream: a pure function of
    /// the seed, so a stream can be replayed or continued at any block.
    pub fn block(&self, lits: &Literals, seed: u64, client: usize, block: u64) -> Vec<Op> {
        let stream = self.name.bytes().fold(0u64, |h, b| h.wrapping_mul(31) + u64::from(b));
        let mut rng = Rng::new(seed, &[stream, client as u64, block]);
        let mut appends = 0u64;
        self.block_order(&mut rng)
            .into_iter()
            .map(|shape| {
                let s = &self.shapes[shape];
                let variants = s.template.variants(lits);
                let sql = match variants {
                    0 => String::new(),
                    n => s.template.text(lits, rng.below(n)),
                };
                let seq = match s.action {
                    Action::Append => {
                        appends += 1;
                        block * self.shapes[shape].per_block as u64 + appends - 1
                    }
                    _ => 0,
                };
                Op { shape, sql, seq }
            })
            .collect()
    }

    /// The ops a client warms the system with: from block 0 of its
    /// stream, the first ops of each shape in proportion to the mix
    /// (at least one of each), `warmup_ops` in all, shape by shape in
    /// the workload's shape order (a cycle keeps its own order). The
    /// seed picks the literals only: which shapes run, how often and in
    /// what order is the same for every seed, and so is the sequence
    /// of allocations that decides the peak RSS of a set-up.
    pub fn warmup(&self, lits: &Literals, seed: u64, client: usize) -> Vec<Op> {
        let mut left: Vec<usize> = self
            .shapes
            .iter()
            .map(|s| (s.per_block * self.warmup_ops).div_ceil(BLOCK_OPS))
            .collect();
        let mut ops: Vec<Op> = self
            .block(lits, seed, client, 0)
            .into_iter()
            .filter(|op| {
                let take = left[op.shape] > 0;
                left[op.shape] -= usize::from(take);
                take
            })
            .collect();
        if !self.cycle {
            ops.sort_by_key(|op| op.shape);
        }
        ops
    }

    /// Every SQL text the workload can send with the mode it is sent
    /// in — what the reference oracle must cover.
    pub fn texts(&self, lits: &Literals) -> Vec<(String, QueryMode)> {
        let mut out = Vec::new();
        for s in &self.shapes {
            if let Action::Query(mode) = s.action {
                for i in 0..s.template.variants(lits) {
                    out.push((s.template.text(lits, i), mode));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_obeys_the_mix_rule() {
        for w in Workload::all() {
            let (light, mid, heavy) = w.mix();
            assert_eq!(light + mid + heavy, BLOCK_OPS, "{}", w.name);
            assert!(light * 100 >= 60 * BLOCK_OPS, "{}: light {light}", w.name);
            assert_eq!(heavy * 100, 10 * BLOCK_OPS, "{}: heavy {heavy}", w.name);
            let lits = Literals::generate(1, 200, 50);
            for block in 0..3 {
                let ops = w.block(&lits, 1, 0, block);
                assert_eq!(ops.len(), BLOCK_OPS);
                for (i, s) in w.shapes.iter().enumerate() {
                    let n = ops.iter().filter(|o| o.shape == i).count();
                    assert_eq!(n, s.per_block, "{} {}", w.name, s.name);
                }
            }
        }
    }

    #[test]
    fn ingest_cycle_interleaves_appends_with_stale_reads() {
        let w = Workload::by_name("ingest_refit").unwrap();
        let lits = Literals::generate(1, 200, 50);
        let ops = w.block(&lits, 1, 0, 2);
        let names: Vec<&str> = ops.iter().map(|o| w.shapes[o.shape].name).collect();
        assert_eq!(
            &names[..6],
            ["append", "read_stale", "read_stale", "read_stale", "read_stale", "append"]
        );
        assert_eq!(names[50], "refit");
        assert!(names[51..].iter().all(|n| *n == "read_fresh"));
        // Append sequence numbers continue from block to block.
        let seqs: Vec<u64> =
            ops.iter().filter(|o| w.shapes[o.shape].name == "append").map(|o| o.seq).collect();
        assert_eq!(seqs, (20..30).collect::<Vec<u64>>());
    }

    #[test]
    fn same_seed_same_stream_and_another_seed_another() {
        let lits = Literals::generate(9, 500, 100);
        for w in Workload::all() {
            assert_eq!(w.block(&lits, 9, 1, 4), w.block(&lits, 9, 1, 4), "{}", w.name);
            assert_ne!(w.block(&lits, 9, 1, 4), w.block(&lits, 10, 1, 4), "{}", w.name);
            if w.clients > 1 {
                assert_ne!(w.block(&lits, 9, 0, 4), w.block(&lits, 9, 1, 4), "{}", w.name);
            }
        }
        assert_eq!(Literals::generate(9, 500, 100), lits);
        assert_ne!(Literals::generate(10, 500, 100), lits);
    }

    #[test]
    fn warmup_holds_every_shape_in_proportion() {
        let lits = Literals::generate(2, 300, 40);
        for w in Workload::all() {
            let ops = w.warmup(&lits, 2, 0);
            assert!(
                ops.len() >= w.warmup_ops && ops.len() <= w.warmup_ops + w.shapes.len(),
                "{}",
                w.name
            );
            for i in 0..w.shapes.len() {
                assert!(ops.iter().any(|o| o.shape == i), "{}: {}", w.name, w.shapes[i].name);
            }
            if w.cycle {
                assert_eq!(ops, w.block(&lits, 2, 0, 0));
            }
        }
    }

    #[test]
    fn texts_cover_every_op_a_stream_can_draw() {
        let lits = Literals::generate(3, 300, 40);
        for w in Workload::all() {
            let texts: Vec<String> = w.texts(&lits).into_iter().map(|(t, _)| t).collect();
            for op in w.block(&lits, 3, 0, 1) {
                assert!(op.sql.is_empty() || texts.contains(&op.sql), "{}: {}", w.name, op.sql);
            }
        }
    }
}
