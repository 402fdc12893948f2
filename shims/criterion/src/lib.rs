//! Minimal criterion-compatible shim.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! the benchmarking surface it uses: `Criterion::bench_function`,
//! `benchmark_group` with chainable `sample_size`/`measurement_time`,
//! `Bencher::iter`, and the `criterion_group!`/`criterion_main!` macros
//! (plain form). Timing is a simple best-of-samples wall-clock loop
//! printed to stdout — enough to run `cargo bench`/`cargo test --benches`
//! and compare configurations, with none of the statistics machinery.
//! As in criterion, the arguments that do not start with `--` filter the
//! benches: one runs when its full name contains any of them
//! (`cargo bench --bench micro -- bs_price_256`); flags are ignored.

use std::time::{Duration, Instant};

/// The benchmark driver.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    filters: Vec<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        let filters = std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect();
        Criterion { sample_size: 10, measurement_time: Duration::from_secs(3), filters }
    }
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl std::fmt::Display,
        f: F,
    ) -> &mut Self {
        self.run_bench(&name.to_string(), self.sample_size, self.measurement_time, f);
        self
    }

    /// Opens a named group; settings apply to benches registered on it.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
            sample_size: 10,
            measurement_time: Duration::from_secs(3),
        }
    }

    /// Runs `f` as the bench `name` unless the filters leave it out.
    fn run_bench<F: FnMut(&mut Bencher)>(
        &self,
        name: &str,
        sample_size: usize,
        budget: Duration,
        mut f: F,
    ) {
        if !self.filters.is_empty() && !self.filters.iter().any(|p| name.contains(p.as_str())) {
            return;
        }
        let mut b = Bencher { sample_size, budget, best: None, iters: 0 };
        f(&mut b);
        match b.best {
            Some(best) => println!("bench {name}: best {best:?} over {} iters", b.iters),
            None => println!("bench {name}: no measurements"),
        }
    }
}

/// A named group of benchmarks with shared settings.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl<'a> BenchmarkGroup<'a> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn measurement_time(&mut self, t: Duration) -> &mut Self {
        self.measurement_time = t;
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl std::fmt::Display,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, name);
        self.parent.run_bench(&full, self.sample_size, self.measurement_time, f);
        self
    }

    pub fn finish(self) {}
}

/// Passed to each benchmark closure; `iter` measures the routine.
pub struct Bencher {
    sample_size: usize,
    budget: Duration,
    best: Option<Duration>,
    iters: u64,
}

impl Bencher {
    /// Runs `routine` repeatedly, recording the best per-iteration time.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let started = Instant::now();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            let out = routine();
            let dt = t0.elapsed();
            drop(out);
            self.iters += 1;
            self.best = Some(match self.best {
                Some(best) if best <= dt => best,
                _ => dt,
            });
            if started.elapsed() > self.budget {
                break;
            }
        }
    }
}

/// Registers benchmark functions under a group name (plain form only).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Emits `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
