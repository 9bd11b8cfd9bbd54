//! Pins the `lawsdb-stats` CLI output shape: the demo subcommands are
//! the repo's operator-facing documentation, so their structure (not
//! the wall-clock numbers) must stay stable. The `slowlog` subcommand
//! runs under a `MockClock`, so its output is pinned byte-identical
//! across invocations.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lawsdb-stats"))
        .args(args)
        .output()
        .expect("lawsdb-stats runs")
}

fn stdout(args: &[&str]) -> String {
    let out = run(args);
    assert!(out.status.success(), "lawsdb-stats {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn cluster_walks_the_failure_ladder_and_prints_health() {
    let text = stdout(&["cluster"]);
    for needle in [
        "-- healthy: 4 rows, approximate=false",
        "-- replica 0.0 dead (failover): 4 rows, approximate=false",
        "-- shard 1 fully dead (model fallback): 4 rows, approximate=true",
        "degraded: shard_model_fallback",
        "per-shard health:",
        "shard 1: 100 rows, 0/2 replicas up  [r0=down r1=down]",
        "lawsdb_cluster_failovers",
        "lawsdb_cluster_model_fallbacks 2",
    ] {
        assert!(text.contains(needle), "cluster output missing {needle:?}:\n{text}");
    }
}

#[test]
fn plan_prints_the_cost_annotated_tree() {
    let text = stdout(&["plan"]);
    for needle in ["Project [y AS y]", "est_rows=", "est_cost=", "Filter", "Scan t [x, y]"] {
        assert!(text.contains(needle), "plan output missing {needle:?}:\n{text}");
    }
}

#[test]
fn explain_prints_zone_verdicts() {
    // README's EXPLAIN ANALYZE sample is this command's output.
    let text = stdout(&["explain"]);
    let decisions: Vec<&str> = text
        .split("decision=")
        .skip(1)
        .filter_map(|rest| rest.split_whitespace().next())
        .collect();
    assert!(decisions.contains(&"skip_zonemap") && decisions.contains(&"eval"), "{text}");
    let verdicts = ["skip_zonemap", "accept_all", "eval"];
    assert!(decisions.iter().all(|d| verdicts.contains(d)), "{text}");
    let stats = text.lines().find(|l| l.contains("scan.stats ")).expect("a scan.stats line");
    let fields: Vec<&str> =
        stats.split_whitespace().filter_map(|w| w.split_once('=').map(|(k, _)| k)).collect();
    assert_eq!(fields, ["pages_total", "pruned_zonemap", "accepted", "zones_agg_synopsis"]);
}

#[test]
fn slowlog_prints_deterministic_flight_records_with_an_in_trace_failover() {
    let text = stdout(&["slowlog"]);
    for needle in [
        "slow queries (worst first):",
        // Worst first: the faulted cluster query outranks the exact one.
        "#1 query 1  mode=cluster",
        "#2 query 2  mode=exact",
        // Layer attribution with a canonical dominant layer.
        "layers: queue=",
        "dominant=execute",
        // The trace tree carries every layer plus both fault events.
        "server.admission",
        "server.decode",
        "server.encode",
        "cluster.fetch",
        "cluster.execute",
        "cluster.gather",
        "cluster.merge",
        "cluster.attempt.fail replica=0 error=replica killed",
        "cluster.failover replica=1",
        "cluster.model_fallback reason=shard_model_fallback",
        "morsel #",
    ] {
        assert!(text.contains(needle), "slowlog output missing {needle:?}:\n{text}");
    }
    // MockClock-timed: the whole transcript is reproducible bytes.
    assert_eq!(text, stdout(&["slowlog"]), "slowlog output must be byte-identical");
}

#[test]
fn unknown_subcommands_exit_with_usage() {
    let out = run(&["bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(err.contains("usage: lawsdb-stats"), "missing usage text:\n{err}");
    assert!(err.contains("slowlog"), "usage must list the slowlog subcommand:\n{err}");
}
