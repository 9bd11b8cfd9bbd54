//! The experiment report runner.
//!
//! ```text
//! cargo run --release -p lawsdb-bench --bin report -- all --scale small
//! cargo run --release -p lawsdb-bench --bin report -- table1 --scale paper
//! ```
//!
//! Experiments: `table1` (E1), `figure1` (E2), `figure2` (E3), and
//! `e4`…`e11`; `all` runs the suite. Scale: `small` (default),
//! `medium`, or `paper` (the full 35,692-source LOFAR scale).

use lawsdb_bench::experiments as exp;
use lawsdb_bench::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which = "all".to_string();
    let mut scale = Scale::Small;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("--scale takes small|medium|paper"));
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other if !other.starts_with('-') => which = other.to_string(),
            other => die(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    let run_one = |name: &str| match name {
        "table1" | "e1" => exp::table1::print(&exp::table1::run(scale)),
        "figure1" | "e2" => exp::figure1::print(&exp::figure1::run()),
        "figure2" | "e3" => exp::figure2::print(&exp::figure2::run(scale)),
        "e4" => exp::e4_compression::print(&exp::e4_compression::run(scale)),
        "e5" => exp::e5_zero_io::print(&exp::e5_zero_io::run(scale)),
        "e6" => exp::e6_accuracy::print(&exp::e6_accuracy::run(scale)),
        "e7" => exp::e7_analytic::print(&exp::e7_analytic::run()),
        "e8" => exp::e8_anomaly::print(&exp::e8_anomaly::run(scale)),
        "e9" => exp::e9_enumeration::print(&exp::e9_enumeration::run(scale)),
        "e10" => exp::e10_model_change::print(&exp::e10_model_change::run(scale)),
        "e11" => exp::e11_model_classes::print(&exp::e11_model_classes::run()),
        other => die(&format!("unknown experiment {other:?}")),
    };

    if which == "all" {
        for name in
            ["table1", "figure1", "figure2", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11"]
        {
            run_one(name);
            println!();
        }
    } else {
        run_one(&which);
    }
}

fn usage() {
    println!(
        "usage: report [all|table1|figure1|figure2|e4|e5|e6|e7|e8|e9|e10|e11] \
         [--scale small|medium|paper]"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage();
    std::process::exit(2)
}
