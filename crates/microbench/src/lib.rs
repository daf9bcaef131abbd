//! A minimal, dependency-free stand-in for the `criterion` benchmark
//! harness.
//!
//! Offline builds of this workspace cannot download crates, so this
//! vendored crate implements exactly the API surface the `odcfp-bench`
//! benchmarks use: [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`Bencher::iter`] and the
//! [`criterion_group!`]/[`criterion_main!`] macros. Timing is a simple
//! warm-up plus median-of-samples wall-clock measurement — good enough to
//! compare runs on one machine, with no statistics beyond that.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Target wall-clock time spent measuring one benchmark.
const MEASURE_BUDGET: Duration = Duration::from_millis(500);
/// Warm-up time before measuring.
const WARMUP_BUDGET: Duration = Duration::from_millis(100);

/// The top-level benchmark driver handed to every registered function.
pub struct Criterion {
    sample_size: usize,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench -- <filter>` passes the filter as a free argument;
        // flags the real criterion accepts (e.g. `--bench`) are ignored.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion {
            sample_size: 30,
            filter,
        }
    }
}

impl Criterion {
    /// Runs one benchmark and prints its median iteration time.
    pub fn bench_function<F>(&mut self, name: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(
            &name.to_string(),
            self.sample_size,
            self.filter.as_deref(),
            f,
        );
        self
    }

    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl std::fmt::Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            prefix: name.to_string(),
            sample_size: self.sample_size,
            parent: self,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    prefix: String,
    sample_size: usize,
    parent: &'a Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets how many samples to take per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark inside the group.
    pub fn bench_function<F>(&mut self, name: impl std::fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{name}", self.prefix);
        run_one(&full, self.sample_size, self.parent.filter.as_deref(), f);
        self
    }

    /// Ends the group (drop would do; kept for API compatibility).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; [`Bencher::iter`] runs the payload.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Measures `f`: warm-up, then `sample_size` timed samples (each sample
    /// runs enough iterations to be timeable).
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        let warm_start = Instant::now();
        let mut iters_per_sample: u32 = 0;
        while warm_start.elapsed() < WARMUP_BUDGET || iters_per_sample == 0 {
            std::hint::black_box(f());
            iters_per_sample += 1;
            if iters_per_sample >= 1_000_000 {
                break;
            }
        }
        // Aim for sample_size samples inside the measurement budget.
        let per_iter = warm_start.elapsed() / iters_per_sample;
        let budget_per_sample = MEASURE_BUDGET / self.sample_size as u32;
        let iters = if per_iter.is_zero() {
            iters_per_sample.max(1)
        } else {
            (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u32
        };
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            self.samples.push(t.elapsed() / iters);
        }
    }
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, sample_size: usize, filter: Option<&str>, mut f: F) {
    if let Some(pat) = filter {
        if !name.contains(pat) {
            return;
        }
    }
    let mut b = Bencher {
        samples: Vec::new(),
        sample_size: sample_size.max(1),
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{name:<40} (no samples)");
        return;
    }
    b.samples.sort_unstable();
    let median = b.samples[b.samples.len() / 2];
    let min = b.samples[0];
    let max = b.samples[b.samples.len() - 1];
    println!(
        "{name:<40} median {:>12?}  (min {min:?}, max {max:?}, {} samples)",
        median,
        b.samples.len()
    );
}

/// Registers benchmark functions under a group name, mirroring criterion.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Generates `main` running the listed groups, mirroring criterion.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_payload() {
        let mut ran = 0u64;
        let mut c = Criterion {
            sample_size: 2,
            filter: None,
        };
        c.bench_function("smoke", |b| b.iter(|| ran += 1));
        assert!(ran > 0);
    }

    #[test]
    fn groups_and_filters() {
        let mut c = Criterion {
            sample_size: 2,
            filter: Some("nomatch".into()),
        };
        let mut g = c.benchmark_group("g");
        let mut ran = false;
        g.sample_size(2).bench_function("skipped", |b| {
            ran = true;
            b.iter(|| 1 + 1)
        });
        g.finish();
        assert!(!ran, "filtered-out benchmarks must not run");
    }
}
