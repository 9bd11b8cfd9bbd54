//! Minimal offline stand-in for the `criterion` crate.
//!
//! Keeps the same authoring surface (`criterion_group!`, groups,
//! `bench_function`, `bench_with_input`, `iter`, `iter_custom`,
//! `Throughput`) but measures
//! with a plain wall-clock loop: a short warm-up, then timed batches
//! until a time budget is reached. Results are printed one line per
//! benchmark as `group/name: mean <time> (<iters> iters)` plus
//! throughput when configured.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation; used to derive a rate from the mean time.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Two-part benchmark id (`function` / `parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        Self { name: format!("{function}/{parameter}") }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        Self { name: parameter.to_string() }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name)
    }
}

/// Timing driver handed to benchmark closures.
pub struct Bencher {
    /// Mean seconds per iteration of the last `iter` call.
    mean_secs: f64,
    iters_run: u64,
    budget: Duration,
}

impl Bencher {
    fn new(budget: Duration) -> Self {
        Self { mean_secs: f64::NAN, iters_run: 0, budget }
    }

    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: run once to pull code/data into caches and get a
        // per-iteration estimate for batch sizing.
        let start = Instant::now();
        black_box(f());
        let first = start.elapsed().max(Duration::from_nanos(1));

        let mut total = first;
        let mut iters: u64 = 1;
        while total < self.budget {
            let batch = ((self.budget.as_secs_f64() / 4.0 / first.as_secs_f64()) as u64)
                .clamp(1, 1_000_000);
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            total += start.elapsed();
            iters += batch;
        }
        self.mean_secs = total.as_secs_f64() / iters as f64;
        self.iters_run = iters;
    }
}

impl Bencher {
    /// Time a routine that runs `iters` iterations and returns how long
    /// they took, as criterion's `iter_custom` does: the routine may
    /// leave its own setup out of the time it returns.
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut routine: F) {
        let first = routine(1).max(Duration::from_nanos(1));
        let mut total = first;
        let mut iters: u64 = 1;
        while total < self.budget {
            let batch = ((self.budget.as_secs_f64() / 4.0 / first.as_secs_f64()) as u64)
                .clamp(1, 1_000_000);
            total += routine(batch);
            iters += batch;
        }
        self.mean_secs = total.as_secs_f64() / iters as f64;
        self.iters_run = iters;
    }
}

fn human_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

fn report(label: &str, b: &Bencher, throughput: Option<Throughput>) {
    let mut line = format!("{label}: mean {} ({} iters)", human_time(b.mean_secs), b.iters_run);
    match throughput {
        Some(Throughput::Bytes(n)) => {
            let rate = n as f64 / b.mean_secs / (1 << 20) as f64;
            line.push_str(&format!(", {rate:.1} MiB/s"));
        }
        Some(Throughput::Elements(n)) => {
            let rate = n as f64 / b.mean_secs;
            line.push_str(&format!(", {rate:.0} elem/s"));
        }
        None => {}
    }
    println!("{line}");
}

/// A named collection of benchmarks sharing throughput/sample config.
pub struct BenchmarkGroup<'c> {
    name: String,
    throughput: Option<Throughput>,
    budget: Duration,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        // Fewer samples → shorter budget, mirroring criterion's intent.
        self.budget = Duration::from_millis((20 * n.max(5)) as u64).min(Duration::from_secs(2));
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.budget = d;
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.budget);
        f(&mut b);
        report(&format!("{}/{}", self.name, id), &b, self.throughput);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::new(self.budget);
        f(&mut b, input);
        report(&format!("{}/{}", self.name, id), &b, self.throughput);
        self
    }

    pub fn finish(self) {}
}

/// Top-level harness entry point.
pub struct Criterion {
    budget: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self { budget: Duration::from_millis(500) }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let budget = self.budget;
        BenchmarkGroup { name: name.into(), throughput: None, budget, _criterion: self }
    }

    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.budget);
        f(&mut b);
        report(&id.to_string(), &b, None);
        self
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $(
                $target(&mut criterion);
            )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $(
                $group();
            )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.sample_size(5);
        g.throughput(Throughput::Elements(100));
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.bench_with_input(BenchmarkId::new("sum_n", 50), &50u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn harness_runs() {
        benches();
    }
}
