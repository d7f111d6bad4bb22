//! Offline stand-in for the `criterion` crate.
//!
//! Keeps the `criterion_group!`/`criterion_main!`/`benchmark_group`/
//! `bench_function` surface, but measures with a simple fixed-sample
//! wall-clock loop and prints mean time per iteration. `--test` (passed by
//! `cargo test --benches`) runs each routine once for smoke coverage.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Re-export of the standard black box, used to defeat dead-code elimination.
pub use std::hint::black_box;

/// How `iter_batched` amortizes setup cost; only a hint in this stand-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs; many per batch.
    SmallInput,
    /// Large per-iteration inputs; few per batch.
    LargeInput,
    /// Fresh setup for every routine call.
    PerIteration,
}

/// Passed to benchmark closures; runs and times the routine.
pub struct Bencher {
    /// Number of timed iterations per sample (1 in `--test` mode).
    iterations: u64,
    last_mean: Option<Duration>,
}

impl Bencher {
    /// Times `routine`, called `iterations` times.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iterations {
            black_box(routine());
        }
        self.last_mean = Some(start.elapsed() / self.iterations as u32);
    }

    /// Times `routine` on inputs produced by `setup`; setup time excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        for _ in 0..self.iterations {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.last_mean = Some(total / self.iterations as u32);
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
}

impl<'c> BenchmarkGroup<'c> {
    /// Sets how many samples to take per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark and prints its mean time per iteration.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let iterations = if self.criterion.test_mode {
            1
        } else {
            self.sample_size as u64
        };
        let mut bencher = Bencher {
            iterations,
            last_mean: None,
        };
        f(&mut bencher);
        match bencher.last_mean {
            Some(mean) => println!("bench: {}/{id} ... {mean:>12.3?}/iter", self.name),
            None => println!("bench: {}/{id} ... no measurement", self.name),
        }
        self
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(&mut self) {}
}

/// Top-level benchmark driver handed to every target function.
pub struct Criterion {
    test_mode: bool,
}

impl Default for Criterion {
    /// Reads the CLI arguments `cargo bench`/`cargo test --benches` pass:
    /// `--test` selects one-shot smoke mode; everything else is ignored.
    fn default() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        Criterion { test_mode }
    }
}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Runs a standalone benchmark outside any group.
    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group("default").bench_function(id, f);
        self
    }
}

/// Declares a group-runner function invoking each benchmark target.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        $crate::criterion_group!($name, $($target),+);
    };
}

/// Declares `main` running every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_api_runs() {
        let mut c = Criterion { test_mode: true };
        let mut calls = 0u32;
        {
            let mut group = c.benchmark_group("g");
            group.sample_size(3);
            group.bench_function("iter", |b| b.iter(|| 1 + 1));
            group.bench_function("batched", |b| {
                b.iter_batched(|| vec![1, 2, 3], |v| v.len(), BatchSize::LargeInput)
            });
            group.finish();
        }
        calls += 1;
        assert_eq!(calls, 1);
    }
}
