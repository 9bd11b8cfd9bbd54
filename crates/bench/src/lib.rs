//! # lawsdb-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation, plus the quantitative experiments implied by its
//! Section 4 claims. See `DESIGN.md` §4 for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results. Performance
//! claims are made against the end-to-end `benchmark/` package instead
//! (`DESIGN.md` §18).
//!
//! Entry points:
//!
//! * the **`report` binary** (`cargo run --release -p lawsdb-bench --bin
//!   report -- <experiment> [--scale paper]`) prints each exhibit's
//!   rows/series in paper-style text tables;
//! * the **`lawsdb-stats` binary** renders the engine's metrics, plans
//!   and profile trees from the command line;
//! * the **Criterion benches** (`cargo bench -p lawsdb-bench`) time
//!   kernels — the bottom row under the end-to-end numbers.

pub mod experiments;

/// Workload scale for the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast versions for CI and Criterion.
    Small,
    /// Intermediate scale.
    Medium,
    /// The paper's full LOFAR scale (35,692 sources, 1.45M rows).
    Paper,
}

impl Scale {
    /// LOFAR source count at this scale.
    pub fn lofar_sources(self) -> usize {
        match self {
            Scale::Small => 500,
            Scale::Medium => 5_000,
            Scale::Paper => 35_692,
        }
    }

    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Wall-clock time of a closure, in microseconds, with the result.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// Format bytes human-readably (KB/MB with one decimal).
pub fn fmt_bytes(bytes: usize) -> String {
    if bytes >= 1_000_000 {
        format!("{:.1} MB", bytes as f64 / 1e6)
    } else if bytes >= 1_000 {
        format!("{:.1} KB", bytes as f64 / 1e3)
    } else {
        format!("{bytes} B")
    }
}

/// Format microseconds human-readably.
pub fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2} s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{us:.1} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::Paper.lofar_sources(), 35_692);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(11_000_000), "11.0 MB");
        assert_eq!(fmt_bytes(640_000), "640.0 KB");
        assert_eq!(fmt_us(1500.0), "1.50 ms");
        assert_eq!(fmt_us(2_500_000.0), "2.50 s");
    }

    #[test]
    fn time_us_returns_result() {
        let (v, t) = time_us(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
    }
}
