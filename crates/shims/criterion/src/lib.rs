//! Offline stand-in for the `criterion` crate.
//!
//! Implements the API subset used by `crates/bench/benches/*` — groups,
//! `bench_function` / `bench_with_input`, `Throughput::Elements`,
//! `BenchmarkId`, and the `criterion_group!` / `criterion_main!` macros —
//! with a simple but honest measurement loop: each benchmark is warmed
//! up, then timed over `sample_size` samples whose iteration counts are
//! auto-calibrated to a per-sample time budget. Results print as
//! `name  time: [median]  thrpt: [...]`, close enough to criterion's
//! format for eyeballing and for line-oriented extraction scripts.
//!
//! No statistics beyond min/median/max, no HTML reports, no comparison
//! against saved baselines.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation for a benchmark group.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// A benchmark identifier: `name` or `name/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// The timing loop handed to benchmark closures.
pub struct Bencher {
    /// Median nanoseconds per iteration, filled in by `iter`.
    median_ns: f64,
    samples: usize,
    sample_budget: Duration,
}

impl Bencher {
    /// Times `f`, storing the median over the configured samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate: how many iterations fit the per-sample budget?
        let mut iters = 1u64;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.sample_budget / 4 || iters >= 1 << 24 {
                break;
            }
            iters = (iters * 4).min(1 << 24);
        }
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        self.median_ns = per_iter[per_iter.len() / 2];
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

fn fmt_rate(per_sec: f64, unit: &str) -> String {
    if per_sec >= 1_000_000.0 {
        format!("{:.2} M{unit}/s", per_sec / 1_000_000.0)
    } else if per_sec >= 1_000.0 {
        format!("{:.2} K{unit}/s", per_sec / 1_000.0)
    } else {
        format!("{per_sec:.1} {unit}/s")
    }
}

/// The top-level harness.
pub struct Criterion {
    samples: usize,
    sample_budget: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            samples: 11,
            sample_budget: Duration::from_millis(40),
        }
    }
}

impl Criterion {
    pub fn configure_from_args(self) -> Self {
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
            samples_override: None,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, f: F) {
        let id = id.into();
        run_one(id.label.clone(), self.samples, self.sample_budget, None, f);
    }

    pub fn final_summary(&self) {}
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    samples_override: Option<usize>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples_override = Some(n.clamp(3, 101));
        self
    }

    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, f: F) {
        let id = id.into();
        run_one(
            format!("{}/{}", self.name, id.label),
            self.samples_override.unwrap_or(self.criterion.samples),
            self.criterion.sample_budget,
            self.throughput,
            f,
        );
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) {
        self.bench_function(id, |b| f(b, input));
    }

    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    label: String,
    samples: usize,
    sample_budget: Duration,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let mut bencher = Bencher {
        median_ns: f64::NAN,
        samples,
        sample_budget,
    };
    f(&mut bencher);
    let ns = bencher.median_ns;
    let thrpt = match throughput {
        Some(Throughput::Elements(n)) if ns > 0.0 => {
            format!("   thrpt: [{}]", fmt_rate(n as f64 * 1e9 / ns, "elem"))
        }
        Some(Throughput::Bytes(n)) if ns > 0.0 => {
            format!("   thrpt: [{}]", fmt_rate(n as f64 * 1e9 / ns, "B"))
        }
        _ => String::new(),
    };
    println!("{label:<48} time: [{}]{thrpt}", fmt_ns(ns));
}

/// Groups benchmark functions under one callable.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
    (name = $group:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::Criterion) {
            let _ = $cfg;
            $($target(c);)+
        }
    };
}

/// Entry point running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($group(&mut criterion);)+
            criterion.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion {
            samples: 3,
            sample_budget: Duration::from_millis(2),
        };
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        g.throughput(Throughput::Elements(100));
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        g.bench_with_input(BenchmarkId::from_parameter(7u32), &7u32, |b, &x| {
            b.iter(|| x * 2)
        });
        g.finish();
    }

    #[test]
    fn ids_format() {
        assert_eq!(BenchmarkId::new("a", 5).label, "a/5");
        assert_eq!(BenchmarkId::from_parameter(9).label, "9");
    }
}
