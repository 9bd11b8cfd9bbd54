//! The cluster-level crash matrix: every (fault mode × shard × query
//! phase) cell, reproducible from `LAWSDB_FAULT_SEED`.
//!
//! Per cell, one replica of the target shard is broken — `Fetch` cells
//! arm a real device fault (the mode) at a seed-chosen op inside a cold
//! replica's read window, on a replica warmed after measuring it, and
//! arming drops the resident shard, so the fault fires on the next query; `Execute`/`Gather` cells arm a
//! coordinator-level injection (device modes cannot fire there: those
//! phases never touch the device) — and the query must fail over and
//! return **bit-identical** answers. Total-loss cells kill every
//! replica of a shard: an AVG query degrades to the shard's captured
//! model within the residual bound, a SUM query returns the structured
//! partial-result error.
//! Nothing ever panics or hangs.

use lawsdb_cluster::{Cluster, ClusterConfig, ClusterError, PartitionScheme, Phase};
use lawsdb_core::DegradeReason;
use lawsdb_obs::MetricsRegistry;
use lawsdb_query::{execute_with, ExecOptions};
use lawsdb_storage::{Catalog, FaultMode, Table, TableBuilder, Value};

fn seed() -> u64 {
    let s = lawsdb_storage::fault::fault_seed();
    println!("LAWSDB_FAULT_SEED={s} (set to reproduce)");
    s
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Noise-free power-law measurements (the paper's running example):
/// the per-shard fitted models reconstruct intensity essentially
/// exactly, which is what makes total-loss degradation sound.
fn lofar() -> Table {
    let freqs: [f64; 4] = [0.12, 0.15, 0.16, 0.18];
    let laws: [(f64, f64); 4] = [(2.0, -0.7), (0.5, -1.2), (1.0, 0.3), (3.0, -0.5)];
    let mut src = Vec::new();
    let mut nu = Vec::new();
    let mut intensity = Vec::new();
    for (s, &(p, a)) in laws.iter().enumerate() {
        for i in 0..40 {
            src.push(s as i64);
            nu.push(freqs[i % 4]);
            intensity.push(p * freqs[i % 4].powf(a));
        }
    }
    let mut b = TableBuilder::new("measurements");
    b.add_i64("source", src);
    b.add_f64("nu", nu);
    b.add_f64("intensity", intensity);
    let mut t = b.build().unwrap();
    t.rebuild_synopsis_with(16);
    t
}

fn cluster(table: &Table) -> (Cluster, MetricsRegistry) {
    let registry = MetricsRegistry::new();
    let cfg = ClusterConfig {
        shards: 3,
        replicas: 2,
        scheme: PartitionScheme::Hash { key: "source".to_string() },
        fail_threshold: 1,
        probe_after: 1,
        max_abs_residual: 1e-6,
    };
    let c = Cluster::new(table, cfg, &registry).unwrap();
    c.capture_models("intensity ~ p * nu ^ alpha", "source", &lawsdb_fit::FitOptions::default(), 2)
        .unwrap();
    (c, registry)
}

fn render(t: &Table) -> String {
    let mut out = String::new();
    for row in 0..t.row_count() {
        for c in t.columns() {
            match c.value(row).unwrap() {
                Value::Null => out.push_str("∅ "),
                Value::Int(i) => out.push_str(&format!("i{i} ")),
                Value::Float(x) => out.push_str(&format!("f{:016x} ", x.to_bits())),
                Value::Str(s) => out.push_str(&format!("s{s:?} ")),
                Value::Bool(b) => out.push_str(&format!("b{b} ")),
            }
        }
        out.push('\n');
    }
    out
}

const AVG_SQL: &str =
    "SELECT source, AVG(intensity) AS m FROM measurements GROUP BY source ORDER BY source";
const SUM_SQL: &str =
    "SELECT source, SUM(intensity) AS s FROM measurements GROUP BY source ORDER BY source";
const GLOBAL_AVG_SQL: &str = "SELECT AVG(intensity) FROM measurements";

/// Single-replica failure: every (mode × shard × phase) cell fails over
/// to the healthy replica and answers bit-identically.
#[test]
fn single_replica_failure_cells_are_bit_identical() {
    let mut state = seed();
    let table = lofar();
    let catalog = Catalog::new();
    catalog.register(lofar()).unwrap();
    let opts = ExecOptions { threads: 2, morsel_rows: 32, ..ExecOptions::default() };
    let baseline = render(&execute_with(&catalog, AVG_SQL, &opts).unwrap().table);

    let (cluster, registry) = cluster(&table);
    let mut cells = 0;
    for mode in FaultMode::ALL {
        for s in 0..cluster.config().shards {
            if cluster.shard_rows(s) == 0 {
                continue;
            }
            for phase in [Phase::Fetch, Phase::Execute, Phase::Gather] {
                let before = registry.snapshot().counter("lawsdb_cluster_failovers");
                match phase {
                    Phase::Fetch => {
                        // A real device fault, landing at a seed-chosen
                        // op inside the read window of a cold replica
                        // (a resident one reads nothing). The window is
                        // measured cold, then the replica is warmed, so
                        // the fault can only fire if arming drops the
                        // resident shard.
                        cluster.heal_replica(s, 0).unwrap();
                        let window = cluster.fetch_ops(s, 0).unwrap();
                        cluster.query(AVG_SQL, &opts).unwrap();
                        assert_eq!(cluster.fetch_ops(s, 0).unwrap(), 0, "shard{s}: warm before arming");
                        let offset = splitmix64(&mut state) % window;
                        cluster.arm_read_fault(s, 0, mode, splitmix64(&mut state), offset).unwrap();
                    }
                    _ => cluster.inject_failure(s, 0, phase),
                }
                let ans = cluster.query(AVG_SQL, &opts).unwrap_or_else(|e| {
                    panic!("{mode:?}×shard{s}×{phase:?}: query failed: {e}")
                });
                assert!(!ans.approximate, "{mode:?}×shard{s}×{phase:?}: exact path expected");
                assert_eq!(
                    render(&ans.table),
                    baseline,
                    "{mode:?}×shard{s}×{phase:?}: bits diverged under failover"
                );
                let after = registry.snapshot().counter("lawsdb_cluster_failovers");
                assert!(after > before, "{mode:?}×shard{s}×{phase:?}: failover not counted");
                if phase == Phase::Fetch {
                    // Fired on a replica that was warm when armed, so
                    // arming dropped the resident shard.
                    assert!(
                        cluster.replica_fault_fired(s, 0),
                        "{mode:?}×shard{s}: armed device fault never fired"
                    );
                }
                cluster.heal_replica(s, 0).unwrap();
                // Let the probe window elapse and the replica recover
                // to Up before the next cell re-breaks it.
                cluster.query(AVG_SQL, &opts).unwrap();
                cluster.query(AVG_SQL, &opts).unwrap();
                cells += 1;
            }
        }
    }
    println!("single-replica cells passed: {cells}");
    assert!(cells > 0);
}

/// Total shard loss: AVG degrades to the shard's captured model within
/// the residual bound; SUM (unsound from a reconstructed model) returns
/// the structured partial-result error. Never a panic, never a hang.
#[test]
fn total_shard_loss_degrades_soundly() {
    seed();
    let table = lofar();
    let catalog = Catalog::new();
    catalog.register(lofar()).unwrap();
    let opts = ExecOptions { threads: 2, morsel_rows: 32, ..ExecOptions::default() };
    let exact = execute_with(&catalog, AVG_SQL, &opts).unwrap().table;

    let (cluster, registry) = cluster(&table);
    for s in 0..cluster.config().shards {
        if cluster.shard_rows(s) == 0 {
            continue;
        }
        cluster.kill_shard(s);

        // AVG: answered, approximate, surfaced as a degrade reason.
        let ans = cluster.query(AVG_SQL, &opts).unwrap();
        assert!(ans.approximate, "shard {s}: fallback must be flagged approximate");
        assert!(
            ans.degraded
                .iter()
                .any(|d| matches!(d, DegradeReason::ShardModelFallback { shard, .. } if *shard == s)),
            "shard {s}: missing ShardModelFallback degrade reason"
        );
        assert_eq!(ans.table.row_count(), exact.row_count(), "shard {s}: all groups present");
        // Sound within the captured residual envelope: noise-free fits
        // reconstruct the response essentially exactly.
        let got = ans.table.column("m").unwrap();
        let want = exact.column("m").unwrap();
        for row in 0..exact.row_count() {
            let (Value::Float(a), Value::Float(b)) =
                (got.value(row).unwrap(), want.value(row).unwrap())
            else {
                panic!("AVG must be float")
            };
            assert!(
                (a - b).abs() <= 1e-6,
                "shard {s} row {row}: model answer {a} vs exact {b}"
            );
        }

        // SUM: refused with the structured error, not a wrong answer.
        match cluster.query(SUM_SQL, &opts) {
            Err(ClusterError::PartialResult { shard, detail }) => {
                assert_eq!(shard, s);
                assert!(detail.contains("SUM"), "detail should name the unsound aggregate: {detail}");
            }
            other => panic!("shard {s}: SUM under total loss must be PartialResult, got {other:?}"),
        }

        // Global AVG: its one group spans every shard, so the lost
        // shard's model rows would land as a second row. Refused.
        match cluster.query(GLOBAL_AVG_SQL, &opts) {
            Err(ClusterError::PartialResult { shard, .. }) => assert_eq!(shard, s),
            other => panic!("shard {s}: global AVG under total loss must be PartialResult, got {other:?}"),
        }

        // Heal the shard for the next iteration.
        for r in 0..cluster.config().replicas {
            cluster.heal_replica(s, r).unwrap();
        }
        cluster.query(AVG_SQL, &opts).unwrap();
        cluster.query(AVG_SQL, &opts).unwrap();
    }
    let snap = registry.snapshot();
    assert!(snap.counter("lawsdb_cluster_model_fallbacks") >= 1);
    assert!(snap.counter("lawsdb_cluster_partial_results") >= 1);
}

/// A query's own cancel token holds on the shard-model fallback: a
/// routed AVG that finds its one shard lost ends cancelled, not
/// answered from the model or refused as a partial result.
#[test]
fn the_shard_model_fallback_honours_the_query_cancel_token() {
    let table = lofar();
    let (cluster, _registry) = cluster(&table);
    let sql =
        "SELECT source, AVG(intensity) AS m FROM measurements WHERE source = 1 GROUP BY source";
    let opts = ExecOptions::default();
    let live = cluster.query(sql, &opts).unwrap();
    assert!(!live.approximate);
    let s = (0..cluster.config().shards).find(|&s| {
        cluster.kill_shard(s);
        let lost = cluster.query(sql, &opts).is_ok_and(|a| a.approximate);
        (0..cluster.config().replicas).for_each(|r| cluster.heal_replica(s, r).unwrap());
        lost
    });
    let s = s.expect("some shard owns source 1 and falls back to its model");
    cluster.kill_shard(s);
    let token = lawsdb_query::CancelToken::new();
    token.cancel();
    let cancelled = ExecOptions { cancel: Some(token), ..ExecOptions::default() };
    match cluster.query(sql, &cancelled) {
        Err(ClusterError::Query(lawsdb_query::QueryError::Cancelled)) => {}
        other => panic!("a cancelled query must end cancelled, got {other:?}"),
    }
}

/// The health tracker's probe cycle: a downed replica is skipped, then
/// probed, then restored to Up once it heals — all observable through
/// the per-shard gauges.
#[test]
fn health_probe_restores_a_healed_replica() {
    seed();
    let table = lofar();
    let (cluster, registry) = cluster(&table);
    let opts = ExecOptions { threads: 1, morsel_rows: 32, ..ExecOptions::default() };
    let s = (0..cluster.config().shards).find(|&s| cluster.shard_rows(s) > 0).unwrap();

    cluster.kill_replica(s, 0);
    cluster.query(AVG_SQL, &opts).unwrap();
    assert_eq!(cluster.replicas_up(s), 1, "failed replica marked Down");
    assert_eq!(
        registry.snapshot().gauge(&format!("lawsdb_cluster_shard_{s}_replicas_up")),
        1
    );
    assert!(registry.snapshot().gauge("lawsdb_cluster_replicas_down") >= 1);

    cluster.heal_replica(s, 0).unwrap();
    // First query skips the Down replica (probe window), the next
    // probes it successfully.
    cluster.query(AVG_SQL, &opts).unwrap();
    cluster.query(AVG_SQL, &opts).unwrap();
    assert_eq!(cluster.replicas_up(s), 2, "probe restored the healed replica");
    assert_eq!(registry.snapshot().gauge("lawsdb_cluster_replicas_down"), 0);
}
