//! Command line of the LawsDB benchmark.
//!
//! ```text
//! lawsdb-benchmark --seed N [--seconds S] [--out DIR]
//!     every workload, untraced then traced, each in its own child process
//! lawsdb-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR]
//!     one run in this process; the last line of stdout is the result object
//! lawsdb-benchmark compare DIR_A DIR_B
//!     hold two sets of result files against each other
//! ```

use lawsdb_benchmark::compare::compare;
use lawsdb_benchmark::fixture::Scale;
use lawsdb_benchmark::report;
use lawsdb_benchmark::run::{run_workload, Limit, Plan};
use lawsdb_benchmark::workload::Workload;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Seconds a run measures when `--seconds` is not given — the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

const USAGE: &str = "usage:
  lawsdb-benchmark --seed N [--seconds S] [--out DIR]
  lawsdb-benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR]
  lawsdb-benchmark compare DIR_A DIR_B
workloads: serve_exact serve_wide serve_model cluster_scatter ingest_refit";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut seed_given = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                parsed.workload =
                    Some(Workload::by_name(value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => {
                parsed.seed = value.parse().map_err(|_| format!("bad seed {value}"))?;
                seed_given = true;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !seed_given {
        return Err("--seed is required".to_string());
    }
    Ok(parsed)
}

/// One run in this process.
fn run_one(w: &Workload, args: &Args) -> Result<bool, String> {
    let plan = Plan {
        seed: args.seed,
        scale: Scale::FULL,
        setups: if args.trace { 1 } else { SETUPS },
        measure: Limit::Seconds(args.seconds),
        trace: args.trace,
        out_dir: Some(args.out.clone()),
    };
    let report = run_workload(w, &plan)?;
    let stamp = report::stamp(w, &plan, args.seconds, &report);
    report::write_result(&args.out, &report, &stamp).map_err(|e| e.to_string())?;
    report::print(&report, &stamp);
    Ok(report.correct)
}

/// Every workload, untraced then traced, each in a child process of its
/// own so no run inherits another's heap, caches or peak RSS.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for w in Workload::all() {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&args.out)
                .status()
                .map_err(|e| e.to_string())?;
            if !status.success() {
                eprintln!("{} (trace {trace}) failed: {status}", w.name);
                all_correct = false;
            }
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().is_some_and(|a| a == "compare") {
        match &args[1..] {
            [a, b] => compare(Path::new(a), Path::new(b)).map(|(table, all_within)| {
                print!("{table}");
                all_within
            }),
            _ => Err("compare takes two directories".to_string()),
        }
    } else {
        match parse(&args) {
            Ok(parsed) => match &parsed.workload {
                Some(w) => run_one(w, &parsed),
                None => run_all(&parsed),
            },
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
