//! One workload's run: set-up, warm-up, the timed phase with tracing
//! off, and — in a traced run — the traced and probe phases that give
//! the per-layer numbers.
//!
//! **Load model.** Closed loop: each client is one connection on one OS
//! thread and sends its next request only after the previous reply has
//! arrived and been checked. Latency is what the client's stopwatch
//! sees around the request; checking happens outside it.

use crate::fixture::{Fixture, Oracle, Scale, APPEND_USER_BYTES};
use crate::metrics::{end_to_end, per_layer, Metric, Values};
use crate::spans::SpanLog;
use crate::stats::{mean, median, percentile, samples_beyond, sort};
use crate::system::{simulated_restart, ClientRun, Restart, Sample, System, Tally, PAGE_SIZE};
use crate::workload::{Action, Class, Workload, BLOCK_OPS};
use lawsdb::core::DurableDb;
use lawsdb::obs::LAYERS;
use lawsdb::query::ExecOptions;
use lawsdb::server::{Frame, QueryMode, WireResult};
use lawsdb::storage::SimulatedDevice;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Instant;

/// How long a phase runs, per client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// This many ops (tests pass tiny counts).
    Ops(usize),
    /// This many seconds; the op in flight at the deadline completes.
    Seconds(f64),
}

impl Limit {
    fn reached(self, ops_done: usize, started: Instant) -> bool {
        match self {
            Limit::Ops(n) => ops_done >= n,
            Limit::Seconds(s) => started.elapsed().as_secs_f64() >= s,
        }
    }

    fn scaled(self, share: f64) -> Limit {
        match self {
            Limit::Ops(n) => Limit::Ops(((n as f64 * share).ceil() as usize).max(1)),
            Limit::Seconds(s) => Limit::Seconds(s * share),
        }
    }
}

/// Everything a run is given.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Seeds the fixture, the literal pools, op order and append batches.
    pub seed: u64,
    /// Fixture size.
    pub scale: Scale,
    /// Times set-up runs in an untraced run; `setup_s` is the median.
    /// The first is the system measured, the others follow the timed
    /// phase.
    pub setups: usize,
    /// How long the run measures.
    pub measure: Limit,
    /// `false`: one timed phase, end-to-end metrics. `true`: a shorter
    /// timed phase, a traced phase and a probe phase, per-layer metrics.
    pub trace: bool,
    /// Where `<workload>.spans.jsonl` goes (traced runs); `None` keeps
    /// spans in memory only.
    pub out_dir: Option<PathBuf>,
}

/// What a run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The workload's name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub trace: bool,
    /// No op failed and every end-of-run check held.
    pub correct: bool,
    /// Ops issued, warm-up included.
    pub attempted: u64,
    /// Ops that errored or disagreed with the reference.
    pub failed: u64,
    /// The first few failures, each naming its shape.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Ops in the timed phase, per shape, in the workload's shape order.
    pub shape_samples: Vec<(&'static str, usize)>,
    /// Latency samples beyond the reported p95.
    pub samples_beyond_p95: usize,
    /// Rows in the fixture table at the start.
    pub fixture_rows: usize,
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one phase produced.
struct Phase {
    /// Samples per client, in issue order.
    samples: Vec<Vec<Sample>>,
    spans: Option<SpanLog>,
    tally: Tally,
    /// First block no client of this phase touched.
    next_block: u64,
}

impl Phase {
    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().flatten()
    }

    fn attempted(&self) -> u64 {
        self.samples.iter().map(|s| s.len() as u64).sum()
    }
}

/// Which ops a phase's clients run.
enum Draw {
    /// [`Workload::warmup`], the clients taking turns instead of
    /// running side by side: no two ops overlap, so what the phase
    /// allocates does not depend on thread timing.
    Warmup,
    /// Each client's stream from `first_block` on, until `limit` or for
    /// `max_blocks` blocks, all clients starting together.
    Stream { first_block: u64, limit: Limit, max_blocks: Option<u64> },
}

struct PhaseSpec {
    draw: Draw,
    /// Compare answers with the reference.
    check: bool,
    /// Ask the server for trace trees.
    traced: bool,
    /// Keep the benchmark's own spans.
    spans: bool,
}

/// One client's ops. Returns the samples and the first block of its
/// stream the phase did not draw.
fn client_loop(
    w: &Workload,
    fx: &Fixture,
    spec: &PhaseSpec,
    client: usize,
    run: &mut ClientRun<'_>,
) -> (Vec<Sample>, u64) {
    let op_id =
        |block: u64, i: usize| ((client as u64) << 40) | (block * BLOCK_OPS as u64 + i as u64);
    let (first_block, limit, max_blocks) = match spec.draw {
        Draw::Warmup => {
            let ops = w.warmup(&fx.literals, fx.seed, client);
            let samples = ops
                .iter()
                .enumerate()
                .map(|(i, op)| run.run(op, op_id(0, i), spec.check, spec.traced));
            return (samples.collect(), 1);
        }
        Draw::Stream { first_block, limit, max_blocks } => (first_block, limit, max_blocks),
    };
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut block = first_block;
    loop {
        // A cycle workload ends on whole blocks, so the model is fresh
        // whenever a phase ends.
        let capped = max_blocks.is_some_and(|max| block - first_block >= max);
        if capped || (w.cycle && limit.reached(samples.len(), started)) {
            return (samples, block);
        }
        for (i, op) in w.block(&fx.literals, fx.seed, client, block).iter().enumerate() {
            if !w.cycle && limit.reached(samples.len(), started) {
                return (samples, block + 1);
            }
            samples.push(run.run(op, op_id(block, i), spec.check, spec.traced));
        }
        block += 1;
    }
}

/// Run one phase over fresh client connections.
fn run_phase(
    sys: &System,
    w: &Workload,
    fx: &Fixture,
    oracle: &Oracle,
    origin: Instant,
    spec: &PhaseSpec,
) -> Result<Phase, String> {
    // Connect before any thread starts: a refused connection is then an
    // error, not a client missing from the barrier.
    let mut runs = (0..w.clients)
        .map(|_| ClientRun::connect(sys, w, fx, oracle, spec.spans.then(|| SpanLog::new(origin))))
        .collect::<Result<Vec<_>, String>>()?;
    let looped: Vec<(Vec<Sample>, u64)> = if matches!(spec.draw, Draw::Warmup) {
        runs.iter_mut()
            .enumerate()
            .map(|(client, run)| client_loop(w, fx, spec, client, run))
            .collect()
    } else {
        let barrier = Barrier::new(w.clients);
        std::thread::scope(|scope| {
            let handles: Vec<_> = runs
                .iter_mut()
                .enumerate()
                .map(|(client, run)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        client_loop(w, fx, spec, client, run)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
                .collect::<Result<Vec<_>, String>>()
        })?
    };
    let mut phase = Phase {
        samples: Vec::new(),
        spans: spec.spans.then(|| SpanLog::new(origin)),
        tally: Tally::default(),
        next_block: 0,
    };
    for (run, (samples, next_block)) in runs.into_iter().zip(looped) {
        let (spans, tally) = run.close();
        phase.samples.push(samples);
        if let (Some(all), Some(spans)) = (phase.spans.as_mut(), spans) {
            all.merge(spans);
        }
        phase.tally.absorb(tally);
        phase.next_block = phase.next_block.max(next_block);
    }
    Ok(phase)
}

/// Latencies of `samples` in microseconds, ascending.
fn latencies_us<'a>(samples: impl Iterator<Item = &'a Sample>) -> Vec<f64> {
    let mut v: Vec<f64> = samples.map(|s| s.latency_ns as f64 / 1_000.0).collect();
    sort(&mut v);
    v
}

/// Correct ops per second of a closed loop with no think time: each
/// client's correct ops over the time it spent waiting for replies,
/// summed over clients. Checking answers is the benchmark's own work
/// and sits outside that time.
fn ops_per_s(phase: &Phase) -> f64 {
    phase
        .samples
        .iter()
        .map(|client| {
            let busy_s = client.iter().map(|s| s.latency_ns).sum::<u64>() as f64 / 1e9;
            let correct = client.iter().filter(|s| s.ok).count() as f64;
            if busy_s > 0.0 {
                correct / busy_s
            } else {
                0.0
            }
        })
        .sum()
}

/// One set-up: the system, warmed, and how long it took.
struct SetUp {
    fx: Fixture,
    sys: System,
    /// First block of each client's stream the warm-up did not use.
    first_block: u64,
    seconds: f64,
    warmed: Phase,
}

/// Set up: generate the fixture, stand the system up as the workload
/// needs it, connect, and warm it with the first ops of each client's
/// stream (errors count, answers are not checked, timings discarded).
fn set_up(w: &Workload, plan: &Plan, origin: Instant) -> Result<SetUp, String> {
    let started = Instant::now();
    let fx = Fixture::generate(plan.seed, plan.scale);
    let sys = System::build(w, &fx)?;
    let warm = PhaseSpec { draw: Draw::Warmup, check: false, traced: false, spans: false };
    let warmed = run_phase(&sys, w, &fx, &Oracle::default(), origin, &warm)?;
    let seconds = started.elapsed().as_secs_f64();
    Ok(SetUp { fx, sys, first_block: warmed.next_block, seconds, warmed })
}

/// Run `w` under `plan`.
pub fn run_workload(w: &Workload, plan: &Plan) -> Result<Report, String> {
    let origin = Instant::now();
    let SetUp { fx, sys, first_block, seconds, warmed } = set_up(w, plan, origin)?;
    // Peak RSS is read here, before anything runs side by side: one
    // system in a fresh process after a fixed sequence of ops, every
    // shape among them. (Read later, it would depend on which ops of
    // the two clients happened to overlap, and on how far the machine
    // got in the window.)
    let rss_mb = peak_rss_mb();
    let mut setup_s = vec![seconds];
    let mut attempted = warmed.attempted();
    let mut tally = warmed.tally;

    // The reference: every text the workload can send, answered by the
    // embedded engine on one thread with pruning off, from the very
    // catalog the server reads (a captured model re-zones the table,
    // which moves the float fold order the exact paths reproduce).
    let oracle = if w.cycle {
        Oracle::default()
    } else {
        Oracle::build(sys.db.tables(), &w.texts(&fx.literals))?
    };

    // A traced run splits the window: half timed, a quarter traced.
    let timed_share = if plan.trace { 0.5 } else { 1.0 };
    let max_blocks =
        |share: f64| w.max_timed_blocks.map(|max| ((max as f64 * share).ceil() as u64).max(1));
    let counters_before = Counters::read(&sys);
    let mut timed = run_phase(
        &sys,
        w,
        &fx,
        &oracle,
        origin,
        &PhaseSpec {
            draw: Draw::Stream {
                first_block,
                limit: plan.measure.scaled(timed_share),
                max_blocks: max_blocks(timed_share),
            },
            check: true,
            traced: false,
            spans: plan.trace,
        },
    )?;
    let counters = Counters::read(&sys).since(&counters_before);
    attempted += timed.attempted();

    let pooled = latencies_us(timed.all());
    let mut report = Report {
        workload: w.name,
        trace: plan.trace,
        correct: false,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        shape_samples: w
            .shapes
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name, timed.all().filter(|x| x.shape == i).count()))
            .collect(),
        samples_beyond_p95: samples_beyond(&pooled, 0.95),
        fixture_rows: fx.dataset.rows(),
    };

    let mut values = Values::default();
    let restart;
    if plan.trace {
        let mut traced = run_phase(
            &sys,
            w,
            &fx,
            &oracle,
            origin,
            &PhaseSpec {
                draw: Draw::Stream {
                    first_block: timed.next_block,
                    limit: plan.measure.scaled(0.25),
                    max_blocks: max_blocks(0.25),
                },
                check: true,
                traced: true,
                spans: true,
            },
        )?;
        attempted += traced.attempted();
        // One log for the whole run: the timed and traced phases' spans,
        // then the probe's.
        let mut spans = SpanLog::new(origin);
        for log in [timed.spans.take(), traced.spans.take()].into_iter().flatten() {
            spans.merge(log);
        }
        let probed = probe(&sys, w, &fx, &mut spans)?;
        restart = w.durable.then(|| simulated_restart(&sys));
        layer_values(
            &mut values,
            &LayerInputs {
                w,
                sys: &sys,
                timed: &timed,
                traced: &traced,
                probed: &probed,
                spans: &spans,
                counters,
                restart: restart.as_ref().and_then(|r| r.as_ref().ok()),
            },
        );
        if let Some(dir) = &plan.out_dir {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            spans
                .write_jsonl(&dir.join(format!("{}.spans.jsonl", w.name)))
                .map_err(|e| e.to_string())?;
        }
        tally.absorb(timed.tally);
        tally.absorb(traced.tally);
        report.metrics = values.into_metrics(&per_layer());
    } else {
        values.set("ops_per_s", ops_per_s(&timed));
        values.set("p50_us", percentile(&pooled, 0.50));
        values.set("p95_us", percentile(&pooled, 0.95));
        values.set("peak_rss_mb", rss_mb);
        restart = w.durable.then(|| simulated_restart(&sys));
        tally.absorb(timed.tally);
        // The remaining set-ups, each after the one before it is dropped.
        drop((sys, fx, oracle));
        for _ in 1..plan.setups {
            let again = set_up(w, plan, origin)?;
            setup_s.push(again.seconds);
            attempted += again.warmed.attempted();
            tally.absorb(again.warmed.tally);
        }
        values.set("setup_s", median(&setup_s));
        report.metrics = values.into_metrics(&end_to_end());
    }
    if let Some(Err(e)) = restart {
        tally.failed += 1;
        tally.failures.push(format!("restart: {e}"));
    }
    report.attempted = attempted;
    report.failed = tally.failed;
    report.failures = tally.failures;
    report.correct = report.failed == 0 && report.attempted > 0;
    Ok(report)
}

/// Registry counters whose movement over the timed phase is a layer
/// metric.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    rejected: u64,
    plan_hits: u64,
    plan_misses: u64,
    exact_fallbacks: u64,
}

impl Counters {
    fn read(sys: &System) -> Counters {
        let snapshot = sys.db.metrics().snapshot();
        Counters {
            rejected: snapshot.counter("lawsdb_server_rejected")
                + snapshot.counter("lawsdb_server_queue_timeout"),
            plan_hits: sys.db.plan_cache().hit_count(),
            plan_misses: sys.db.plan_cache().miss_count(),
            exact_fallbacks: snapshot.counter("lawsdb_core_exact_fallbacks"),
        }
    }

    fn since(&self, before: &Counters) -> Counters {
        Counters {
            rejected: self.rejected - before.rejected,
            plan_hits: self.plan_hits - before.plan_hits,
            plan_misses: self.plan_misses - before.plan_misses,
            exact_fallbacks: self.exact_fallbacks - before.exact_fallbacks,
        }
    }
}

/// What the probe phase counted (its timings are in its spans). Every
/// figure is over a fixed number of ops of a seeded stream on one
/// thread, so for one seed they repeat exactly.
#[derive(Debug, Default)]
struct Probed {
    ops: u64,
    result_bytes: u64,
    rows_returned: u64,
    rows_scanned: u64,
    pages_total: u64,
    pages_pruned_zonemap: u64,
    pages_pruned_model: u64,
    zones_agg_synopsis: u64,
    shard_queries: u64,
    failovers: u64,
    fetch_ops_per_query: u64,
}

/// Where in client 0's stream the probe phase draws its ops: a fixed
/// block no timed phase reaches, so the probed ops do not depend on how
/// far the machine got.
const PROBE_BLOCK: u64 = 1 << 32;

/// Time each layer's public entry point on `probe_ops` query ops of
/// client 0's stream, one thread, no wire: encode the request, parse,
/// plan a text the plan cache has not seen, execute embedded, encode
/// and decode the result.
fn probe(sys: &System, w: &Workload, fx: &Fixture, spans: &mut SpanLog) -> Result<Probed, String> {
    let exec = ExecOptions { threads: 1, ..ExecOptions::default() };
    let mut out = Probed::default();
    let counter = |name: &str| sys.counter(name);
    let scan_counters = [
        "lawsdb_query_pages_total",
        "lawsdb_query_pages_pruned_zonemap",
        "lawsdb_query_pages_pruned_model",
        "lawsdb_query_zones_agg_synopsis",
        "lawsdb_cluster_shard_queries",
        "lawsdb_cluster_failovers",
    ];
    let before: Vec<u64> = scan_counters.iter().map(|n| counter(n)).collect();
    let mut block = PROBE_BLOCK;
    'stream: loop {
        for (i, op) in w.block(&fx.literals, fx.seed, 0, block).iter().enumerate() {
            if out.ops as usize >= w.probe_ops {
                break 'stream;
            }
            let Action::Query(mode) = w.shapes[op.shape].action else {
                continue;
            };
            let op_id = block * BLOCK_OPS as u64 + i as u64;
            let root = spans.begin("probe.op", None, op_id);
            let parent = Some(root);
            let request = Frame::Query { mode, sql: op.sql.clone(), trace: false };
            std::hint::black_box(
                spans.time("server.query_encode", parent, op_id, || request.encode()),
            );
            spans
                .time("query.parse", parent, op_id, || lawsdb::query::parse_select(&op.sql))
                .map_err(|e| e.to_string())?;
            // A fresh text: nothing of it may be in the plan cache.
            sys.db.plan_cache().clear();
            spans
                .time("query.plan", parent, op_id, || sys.db.physical_plan(&op.sql))
                .map_err(|e| e.to_string())?;
            let modelled = matches!(mode, QueryMode::Resilient | QueryMode::Adaptive)
                .then(|| {
                    spans.time("approx.answer", parent, op_id, || sys.db.query_approx(&op.sql))
                })
                .and_then(Result::ok);
            let (table, rows_scanned, approximate, error_bound) = match (modelled, &sys.cluster) {
                (Some(a), _) => (a.table, a.rows_scanned, true, a.error_bound),
                (None, Some(cluster)) if mode == QueryMode::Cluster => {
                    let a = spans
                        .time("cluster.query", parent, op_id, || cluster.query(&op.sql, &exec))
                        .map_err(|e| e.to_string())?;
                    (a.table, a.rows_scanned, a.approximate, a.error_bound)
                }
                _ => {
                    let r = spans
                        .time("query.exec", parent, op_id, || sys.db.query_with(&op.sql, &exec))
                        .map_err(|e| e.to_string())?;
                    (r.table, r.rows_scanned, false, None)
                }
            };
            out.ops += 1;
            out.rows_returned += (table.row_count() as u64).max(1);
            out.rows_scanned += rows_scanned as u64;
            let reply = Frame::ResultSet(Box::new(WireResult {
                table,
                rows_scanned: rows_scanned as u64,
                approximate,
                error_bound,
                degraded: Vec::new(),
                service_us: 0,
                queue_us: 0,
                query_id: 0,
                trace: None,
            }));
            let bytes = spans.time("server.result_encode", parent, op_id, || reply.encode());
            out.result_bytes += bytes.len() as u64;
            spans
                .time("server.result_decode", parent, op_id, || Frame::decode(&bytes))
                .map_err(|e| e.to_string())?;
            spans.end(root);
        }
        block += 1;
    }
    let after: Vec<u64> = scan_counters.iter().map(|n| counter(n)).collect();
    let delta = |i: usize| after[i] - before[i];
    out.pages_total = delta(0);
    out.pages_pruned_zonemap = delta(1);
    out.pages_pruned_model = delta(2);
    out.zones_agg_synopsis = delta(3);
    out.shard_queries = delta(4);
    out.failovers = delta(5);
    if let Some(cluster) = &sys.cluster {
        // Device ops a query pays to fetch every shard from one replica.
        for shard in 0..cluster.config().shards {
            out.fetch_ops_per_query += cluster.fetch_ops(shard, 0).map_err(|e| e.to_string())?;
        }
    }
    if w.fit_model && !w.durable {
        // `ingest_refit` times these on its own store as it goes; a
        // workload without one gets a scratch device.
        let mut store = DurableDb::new(SimulatedDevice::new(PAGE_SIZE));
        store.recover().map_err(|e| e.to_string())?;
        for rep in 0..5 {
            spans
                .time("models.save", None, rep, || store.save_models(sys.db.models()))
                .map_err(|e| e.to_string())?;
            spans
                .time("models.load", None, rep, || store.load_models())
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(out)
}

struct LayerInputs<'a> {
    w: &'a Workload,
    sys: &'a System,
    timed: &'a Phase,
    traced: &'a Phase,
    probed: &'a Probed,
    spans: &'a SpanLog,
    counters: Counters,
    restart: Option<&'a Restart>,
}

fn share(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Fill in every per-layer metric the run can speak to.
fn layer_values(values: &mut Values, input: &LayerInputs<'_>) {
    let LayerInputs { w, sys, timed, traced, probed, spans, counters, restart } = input;

    // Client side, timed phase: one median per shape, the advisory tail.
    for (i, s) in w.shapes.iter().enumerate() {
        let lat = latencies_us(timed.all().filter(|x| x.shape == i));
        values.set(&format!("shape.{}.p50_us", s.name), percentile(&lat, 0.5));
    }
    values.set("client.p99_us", percentile(&latencies_us(timed.all()), 0.99));

    // Trace phase: the seven canonical layers as the client's own trace
    // tree attributes them, mean per traced op.
    let trees: Vec<&[u64; LAYERS.len()]> = traced.all().filter_map(|s| s.layers.as_ref()).collect();
    for (i, layer) in LAYERS.iter().enumerate() {
        let us: Vec<f64> = trees.iter().map(|t| t[i] as f64).collect();
        values.set(&format!("trace.{layer}_us"), mean(&us));
    }
    // Tracing overhead: traced latency over untraced latency of the
    // same mix of shapes — per-shape medians, each weighted by how
    // often the traced phase drew the shape.
    let (mut traced_us, mut untraced_us) = (0.0, 0.0);
    for i in 0..w.shapes.len() {
        let of = |phase: &Phase| latencies_us(phase.all().filter(|s| s.shape == i && s.is_query));
        let (t, u) = (of(traced), of(timed));
        if !t.is_empty() && !u.is_empty() {
            traced_us += percentile(&t, 0.5) * t.len() as f64;
            untraced_us += percentile(&u, 0.5) * t.len() as f64;
        }
    }
    if untraced_us > 0.0 {
        values.set("trace.overhead_pct", (traced_us / untraced_us - 1.0) * 100.0);
    }

    // Server, as the reply's own fields tell it.
    let queries: Vec<&Sample> = timed.all().filter(|s| s.is_query).collect();
    let field =
        |f: fn(&Sample) -> u64| -> Vec<f64> { queries.iter().map(|s| f(s) as f64).collect() };
    values.set("server.service_us", mean(&field(|s| s.service_us)));
    values.set("server.queue_us", mean(&field(|s| s.queue_us)));
    let light: Vec<&Sample> =
        queries.iter().copied().filter(|s| w.shapes[s.shape].class == Class::Light).collect();
    let light_service: Vec<f64> = light.iter().map(|s| s.service_us as f64).collect();
    values.set(
        "server.overhead_us",
        percentile(&latencies_us(light.iter().copied()), 0.5) - median(&light_service),
    );
    values.set("server.rejected", counters.rejected as f64);

    // The benchmark's own stopwatches around each layer's entry point.
    for (name, us) in &spans.self_us_by_name() {
        match *name {
            "server.query_encode"
            | "server.result_encode"
            | "server.result_decode"
            | "query.parse"
            | "query.plan"
            | "query.exec"
            | "approx.answer"
            | "cluster.query"
            | "models.save"
            | "models.load" => values.set(&format!("{name}_us"), mean(us)),
            "storage.append" | "storage.replace" | "fit.refit" => {
                values.set(&format!("{name}_us"), median(us))
            }
            _ => {}
        }
    }
    let per_probe = |count: u64| share(count as usize, probed.ops as usize);
    values.set("server.result_bytes", per_probe(probed.result_bytes));
    values.set(
        "query.rows_scanned_per_row",
        share(probed.rows_scanned as usize, probed.rows_returned as usize),
    );
    values.set("query.pages_total", per_probe(probed.pages_total));
    values.set("query.pages_pruned_zonemap", per_probe(probed.pages_pruned_zonemap));
    values.set("query.pages_pruned_model", per_probe(probed.pages_pruned_model));
    values.set("query.zones_agg_synopsis", per_probe(probed.zones_agg_synopsis));
    values.set(
        "query.plan_cache_hit_share",
        share(counters.plan_hits as usize, (counters.plan_hits + counters.plan_misses) as usize),
    );

    // The ladder and the model path, from the timed phase's replies.
    let ladder: Vec<&Sample> = queries
        .iter()
        .copied()
        .filter(|s| {
            matches!(
                w.shapes[s.shape].action,
                Action::Query(QueryMode::Resilient | QueryMode::Adaptive)
            )
        })
        .collect();
    let resilient = ladder
        .iter()
        .filter(|s| matches!(w.shapes[s.shape].action, Action::Query(QueryMode::Resilient)));
    let (degraded, asked) =
        resilient.fold((0, 0), |(d, n), s| (d + usize::from(s.degraded), n + 1));
    values.set("core.degraded_share", share(degraded, asked));
    values.set("core.exact_fallbacks", share(counters.exact_fallbacks as usize, queries.len()));
    values.set(
        "approx.model_share",
        share(ladder.iter().filter(|s| s.approximate).count(), ladder.len()),
    );
    values
        .set("approx.bound_violations", ladder.iter().filter(|s| s.bound_violation).count() as f64);
    let rel_err: Vec<f64> = ladder.iter().filter_map(|s| s.rel_err).collect();
    values.set("approx.rel_err_p50", median(&rel_err));
    values.set("models.param_bytes", sys.db.model_parameter_bytes() as f64);
    values.set("fit.capture_us", sys.timings.fit_capture_us);

    // Cluster.
    values.set("cluster.build_us", sys.timings.cluster_build_us);
    values.set("cluster.fetch_ops_per_query", probed.fetch_ops_per_query as f64);
    values.set("cluster.shard_queries_per_query", per_probe(probed.shard_queries));
    values.set("cluster.failovers", probed.failovers as f64);

    // Storage: exact counts over the timed phase's first appends.
    let ingest = timed.tally.ingest;
    if ingest.appends > 0 {
        let user_bytes = (ingest.appends * APPEND_USER_BYTES) as f64;
        values.set("storage.write_amp", ingest.bytes_written as f64 / user_bytes);
        values.set(
            "storage.pages_written_per_append",
            ingest.pages_written as f64 / ingest.appends as f64,
        );
        values.set("storage.wal_commits", ingest.wal_commits as f64 / ingest.appends as f64);
    }
    if let Some(restart) = restart {
        values.set("storage.recover_us", restart.recover_us);
        values.set("storage.stored_bytes_per_user_byte", restart.stored_bytes_per_user_byte);
        values.set("models.load_us", restart.load_models_us);
    }
}
