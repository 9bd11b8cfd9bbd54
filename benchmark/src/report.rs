//! What a run prints and writes: the run stamp, the metrics by name
//! with their units, the result file `compare` reads, and the one-line
//! JSON result the driver reads.

use crate::json::Json;
use crate::run::{Plan, Report};
use crate::workload::Workload;
use std::path::{Path, PathBuf};

/// The commit checked out in the current directory, read straight from
/// `.git` (no process is started); `"unknown"` outside a repository.
pub fn commit_hash(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            let packed = read(git.join("packed-refs"))?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            Some(line.split_whitespace().next()?.to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run stamp: what was run, on what, with which inputs.
pub fn stamp(w: &Workload, plan: &Plan, seconds: f64, report: &Report) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("commit", Json::str(commit_hash(Path::new(".")))),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(plan.seed as f64)),
        ("trace", Json::Num(f64::from(u8::from(plan.trace)))),
        ("seconds", Json::Num(seconds)),
        ("setups", Json::Num(plan.setups as f64)),
        ("clients", Json::Num(w.clients as f64)),
        ("transport", Json::str("pipe")),
        ("flush_policy", Json::str("DurableDb commit per append")),
        ("fixture_rows", Json::Num(report.fixture_rows as f64)),
        ("warmup_ops_per_client", Json::Num(w.warmup_ops as f64)),
        ("probe_ops", Json::Num(w.probe_ops as f64)),
        (
            "timed_ops",
            Json::obj(report.shape_samples.iter().map(|(name, n)| (*name, Json::Num(*n as f64)))),
        ),
        ("timed_samples", Json::Num(report.shape_samples.iter().map(|(_, n)| *n as f64).sum())),
        ("samples_beyond_p95", Json::Num(report.samples_beyond_p95 as f64)),
    ])
}

/// The driver's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(report: &Report) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            Json::obj(report.metrics.iter().map(|m| {
                (
                    m.name.as_str(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
}

/// Print the stamp and every metric by name with its unit, then — as
/// the last line — the driver's result object.
pub fn print(report: &Report, stamp: &Json) {
    println!("# {} (trace {}) stamp {}", report.workload, u8::from(report.trace), stamp.render());
    for m in &report.metrics {
        println!("{:<16} {:<36} {:>16.4} {}", report.workload, m.name, m.value, m.unit);
    }
    println!("{:<16} {:<36} {:>16} ops", report.workload, "attempted", report.attempted);
    println!("{:<16} {:<36} {:>16} ops", report.workload, "failed", report.failed);
    for failure in &report.failures {
        println!("{:<16} FAILED {failure}", report.workload);
    }
    println!("{}", result_json(report).render());
}

/// Write the result file `compare` reads: the stamp beside the result.
/// The name carries the time and the process id, so runs never
/// overwrite one another.
pub fn write_result(dir: &Path, report: &Report, stamp: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = dir.join(format!(
        "{}.trace{}.{now}-{}.json",
        report.workload,
        u8::from(report.trace),
        std::process::id()
    ));
    let mut doc = vec![("stamp".to_string(), stamp.clone())];
    if let Json::Obj(pairs) = result_json(report) {
        doc.extend(pairs);
    }
    doc.push(("failures".to_string(), Json::Arr(report.failures.iter().map(Json::str).collect())));
    std::fs::write(&path, Json::Obj(doc).render() + "\n")?;
    Ok(path)
}
