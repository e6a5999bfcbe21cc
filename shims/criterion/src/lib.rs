//! Offline shim for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this vendored crate
//! provides the subset of the criterion API the workspace's benches use:
//! [`Criterion::benchmark_group`], group configuration (sample size, warm-up
//! and measurement time, throughput), [`BenchmarkGroup::bench_with_input`] /
//! [`BenchmarkGroup::bench_function`], [`BenchmarkId`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is simple wall-clock sampling: after a warm-up period, each
//! sample runs a batch of iterations sized so one sample lasts roughly
//! `measurement_time / sample_size`; the per-iteration mean, median, and
//! min/max over the samples are printed in a criterion-like format. There
//! are no statistical refinements, plots, or baselines — just honest,
//! reproducible timings for relative comparisons.

use std::time::{Duration, Instant};

/// Benchmark identifier: a function name plus an optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter rendering.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id that is only a parameter (used inside a named group).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            name: s.to_string(),
        }
    }
}

/// Throughput annotation (printed alongside timings).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Per-iteration timing loop handed to the bench closure.
pub struct Bencher {
    iters_per_sample: u64,
    samples: Vec<Duration>,
    sample_count: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Bencher {
    /// Times `f`, running it repeatedly; called once per bench target.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: also estimates the per-iteration cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up_time {
            std::hint::black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters.max(1) as f64;
        let per_sample = self.measurement_time.as_secs_f64() / self.sample_count as f64;
        self.iters_per_sample = ((per_sample / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000);

        self.samples.clear();
        for _ in 0..self.sample_count {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                std::hint::black_box(f());
            }
            self.samples
                .push(start.elapsed() / self.iters_per_sample as u32);
        }
    }
}

/// Summary statistics of one bench target, in seconds per iteration.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Full bench id (`group/function/parameter`).
    pub id: String,
    /// Minimum over samples.
    pub min: f64,
    /// Mean over samples.
    pub mean: f64,
    /// Median over samples.
    pub median: f64,
    /// Maximum over samples.
    pub max: f64,
}

fn summarize(id: String, samples: &[Duration]) -> Summary {
    let mut secs: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    secs.sort_by(f64::total_cmp);
    let mean = secs.iter().sum::<f64>() / secs.len().max(1) as f64;
    Summary {
        id,
        min: secs.first().copied().unwrap_or(0.0),
        mean,
        median: secs.get(secs.len() / 2).copied().unwrap_or(0.0),
        max: secs.last().copied().unwrap_or(0.0),
    }
}

fn format_duration(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.4} s")
    } else if secs >= 1e-3 {
        format!("{:.4} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.4} µs", secs * 1e6)
    } else {
        format!("{:.4} ns", secs * 1e9)
    }
}

/// A named group of related bench targets with shared configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_count: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of samples per target.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_count = n.max(2);
        self
    }

    /// Warm-up duration before measuring.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Total measurement budget per target.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Annotates subsequent targets with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmarks `f` with an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher {
            iters_per_sample: 1,
            samples: Vec::new(),
            sample_count: self.sample_count,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
        };
        f(&mut b, input);
        self.report(id, &b);
        self
    }

    /// Benchmarks `f` without an input value.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            iters_per_sample: 1,
            samples: Vec::new(),
            sample_count: self.sample_count,
            warm_up_time: self.warm_up_time,
            measurement_time: self.measurement_time,
        };
        f(&mut b);
        self.report(id, &b);
        self
    }

    fn report(&mut self, id: BenchmarkId, b: &Bencher) {
        let full = format!("{}/{}", self.name, id.name);
        let s = summarize(full, &b.samples);
        let mut line = format!(
            "{:<56} time: [{} {} {}]",
            s.id,
            format_duration(s.min),
            format_duration(s.median),
            format_duration(s.max),
        );
        if let Some(Throughput::Elements(n)) = self.throughput {
            let eps = n as f64 / s.median.max(1e-12);
            line.push_str(&format!("  thrpt: {eps:.0} elem/s"));
        }
        if let Some(Throughput::Bytes(n)) = self.throughput {
            let bps = n as f64 / s.median.max(1e-12);
            line.push_str(&format!("  thrpt: {bps:.0} B/s"));
        }
        println!("{line}");
        self.criterion.summaries.push(s);
    }

    /// Ends the group (separator line, matching criterion's output rhythm).
    pub fn finish(&mut self) {
        println!();
    }
}

/// The bench harness entry point.
#[derive(Debug, Default)]
pub struct Criterion {
    summaries: Vec<Summary>,
}

impl Criterion {
    /// Opens a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("group: {name}");
        BenchmarkGroup {
            criterion: self,
            name,
            sample_count: 10,
            warm_up_time: Duration::from_millis(500),
            measurement_time: Duration::from_secs(2),
            throughput: None,
        }
    }

    /// Benchmarks a single function outside a group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.benchmark_group(name.to_string())
            .bench_function(BenchmarkId::from(""), f);
        self
    }

    /// All summaries recorded so far (used by benches that emit JSON
    /// reports).
    pub fn summaries(&self) -> &[Summary] {
        &self.summaries
    }
}

/// Declares a bench group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the bench `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_produces_summary() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3)
                .warm_up_time(Duration::from_millis(1))
                .measurement_time(Duration::from_millis(5));
            g.throughput(Throughput::Elements(10));
            g.bench_with_input(BenchmarkId::new("f", 10), &10u64, |b, &n| {
                // Opaque per element: an optimized build would otherwise
                // fold the sum to a sub-nanosecond closed form, and samples
                // (whole nanoseconds per iteration) would all read zero.
                b.iter(|| (0..n).map(std::hint::black_box).sum::<u64>());
            });
            g.finish();
        }
        assert_eq!(c.summaries().len(), 1);
        let s = &c.summaries()[0];
        assert_eq!(s.id, "g/f/10");
        assert!(s.min <= s.median && s.median <= s.max);
        assert!(s.mean > 0.0);
    }

    #[test]
    fn duration_formatting() {
        assert!(format_duration(2.0).ends_with(" s"));
        assert!(format_duration(2e-3).ends_with(" ms"));
        assert!(format_duration(2e-6).ends_with(" µs"));
        assert!(format_duration(2e-9).ends_with(" ns"));
    }
}
