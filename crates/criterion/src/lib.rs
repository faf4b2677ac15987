//! A minimal, dependency-free subset of the `criterion` crate API.
//!
//! The workspace builds without network access, so the real `criterion`
//! cannot be vendored. This stub keeps the `benches/` targets compiling
//! and producing useful (if statistically unsophisticated) numbers under
//! `cargo bench`: each benchmark runs a short warmup, then reports the
//! minimum and mean wall-clock time per iteration over a fixed sample.
//!
//! As with the real crate, the first argument that is not a flag filters
//! benchmarks by substring of their `group/name`
//! (`cargo bench --bench fast_forward -- paper_regimes`); the others are
//! skipped before their closure runs.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Opaque value barrier — prevents the optimizer from deleting the
/// benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation for a benchmark group (reported per element or
/// per byte).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Runs closures handed to [`Bencher::iter`] and measures them.
pub struct Bencher {
    samples: u32,
    /// Best (minimum) per-iteration time observed.
    best: Duration,
    /// Mean per-iteration time.
    mean: Duration,
}

impl Bencher {
    fn new(samples: u32) -> Bencher {
        Bencher {
            samples,
            best: Duration::ZERO,
            mean: Duration::ZERO,
        }
    }

    /// Measure `f`, recording per-iteration timing.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        // Warmup: one call, and size the inner batch so one sample takes
        // roughly a millisecond.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let batch = (Duration::from_millis(1).as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;

        let mut best = Duration::MAX;
        let mut total = Duration::ZERO;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let per_iter = start.elapsed() / batch;
            best = best.min(per_iter);
            total += per_iter;
        }
        self.best = best;
        self.mean = total / self.samples;
    }
}

fn report(name: &str, b: &Bencher, throughput: Option<Throughput>) {
    let mut line = format!("{name:<48} best {:>12?}  mean {:>12?}", b.best, b.mean);
    if let Some(tp) = throughput {
        let (n, unit) = match tp {
            Throughput::Elements(n) => (n, "elem"),
            Throughput::Bytes(n) => (n, "B"),
        };
        if b.best > Duration::ZERO {
            let rate = n as f64 / b.best.as_secs_f64();
            line.push_str(&format!("  {rate:>14.0} {unit}/s"));
        }
    }
    println!("{line}");
}

/// The name filter in a bench binary's arguments: the first one that does
/// not start with `-` (cargo passes `--bench` ahead of it).
fn name_filter(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

/// Whether the benchmark `id` (`group/name`, or `name` outside a group)
/// passes `filter`.
fn selected(filter: Option<&str>, id: &str) -> bool {
    filter.map_or(true, |f| id.contains(f))
}

/// The benchmark driver.
pub struct Criterion {
    samples: u32,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            samples: 10,
            filter: name_filter(std::env::args().skip(1)),
        }
    }
}

impl Criterion {
    /// Number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Criterion {
        self.samples = (n as u32).max(1);
        self
    }

    /// Run a single named benchmark.
    pub fn bench_function(
        &mut self,
        name: impl AsRef<str>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Criterion {
        if !selected(self.filter.as_deref(), name.as_ref()) {
            return self;
        }
        let mut f = f;
        let mut b = Bencher::new(self.samples);
        f(&mut b);
        report(name.as_ref(), &b, None);
        self
    }

    /// Open a named group of benchmarks. Its header prints before the
    /// first benchmark the name filter selects.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            header_printed: false,
            throughput: None,
            samples: None,
        }
    }
}

/// A group of related benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    header_printed: bool,
    throughput: Option<Throughput>,
    samples: Option<u32>,
}

impl BenchmarkGroup<'_> {
    /// Annotate the group with a throughput unit.
    pub fn throughput(&mut self, tp: Throughput) -> &mut Self {
        self.throughput = Some(tp);
        self
    }

    /// Override the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = Some((n as u32).max(1));
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function(
        &mut self,
        name: impl AsRef<str>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = format!("{}/{}", self.name, name.as_ref());
        if !selected(self.criterion.filter.as_deref(), &id) {
            return self;
        }
        if !self.header_printed {
            println!("group {}:", self.name);
            self.header_printed = true;
        }
        let mut f = f;
        let mut b = Bencher::new(self.samples.unwrap_or(self.criterion.samples));
        f(&mut b);
        report(&format!("  {}", name.as_ref()), &b, self.throughput);
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

/// Collect benchmark functions into a callable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo test` invokes bench targets with `--test`; there is
            // nothing to test here, so only run when benchmarking.
            if std::env::args().any(|a| a == "--test") {
                return;
            }
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn filter_is_the_first_non_flag_argument() {
        assert_eq!(name_filter(args(&["--bench"])), None);
        assert_eq!(
            name_filter(args(&["--bench", "paper_regimes", "x"])).as_deref(),
            Some("paper_regimes")
        );
    }

    #[test]
    fn filter_matches_a_substring_of_group_and_name() {
        assert!(selected(None, "fast_forward/latency/reference"));
        assert!(selected(Some("paper_regimes"), "paper_regimes/btmz/btmz"));
        assert!(selected(Some("regimes/btmz"), "paper_regimes/btmz/btmz"));
        assert!(!selected(
            Some("paper_regimes"),
            "fast_forward/latency/reference"
        ));
    }

    #[test]
    fn unselected_benchmarks_never_run() {
        let mut c = Criterion {
            samples: 1,
            filter: Some("keep".into()),
        };
        let mut ran = Vec::new();
        let mut g = c.benchmark_group("grp");
        g.bench_function("skip", |b| {
            ran.push("skip");
            b.iter(|| 1)
        });
        g.bench_function("keep", |b| {
            ran.push("keep");
            b.iter(|| 1)
        });
        g.finish();
        assert_eq!(ran, ["keep"]);
    }
}
