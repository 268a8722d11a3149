//! Offline stand-in for the `criterion` crate.
//!
//! Provides the API subset the `paotr-bench` benches use, with honest but
//! coarse measurement: each benchmark runs a short warm-up, then a fixed
//! number of timed batches, and prints mean wall-time per iteration. No
//! statistics, plots, or baselines — just enough to compile the bench
//! suite offline and get order-of-magnitude numbers.

#![forbid(unsafe_code)]
//! Two knobs support CI smoke runs:
//!
//! * passing `--smoke` to the bench binary (i.e. `cargo bench -- --smoke`)
//!   or setting `CRITERION_SMOKE=1` drops the sample count to 2, so a
//!   whole bench suite finishes in seconds;
//! * setting `CRITERION_JSON=<path>` makes [`write_json_results`] (called
//!   by `criterion_main!` after all groups ran) dump every measurement as
//!   a JSON array — the artifact CI archives to track the perf
//!   trajectory.

use std::fmt::Display;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use std::hint::black_box;

/// True when the benches were invoked in smoke mode (`--smoke` argument
/// or `CRITERION_SMOKE=1`).
pub(crate) fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke") || std::env::var_os("CRITERION_SMOKE").is_some()
}

/// One recorded measurement: `(name, mean seconds/iter, median
/// seconds/iter)`. The median is taken over the timed batches, so a
/// single slow outlier (page fault, scheduler hiccup) does not skew the
/// number CI regression-checks against.
type Row = (String, f64, f64);

fn results() -> &'static Mutex<Vec<Row>> {
    static RESULTS: OnceLock<Mutex<Vec<Row>>> = OnceLock::new();
    RESULTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Writes every recorded measurement to the path in `CRITERION_JSON`
/// (no-op when the variable is unset) as
/// `[{"name": ..., "mean_ns": ...}, ...]`. `criterion_main!` calls this
/// after all groups have run. When the file already holds rows from an
/// earlier bench binary of the same `cargo bench` invocation, the new
/// rows are appended to them instead of truncating the file — delete
/// the file between runs for a fresh artifact.
pub fn write_json_results() {
    let Some(path) = std::env::var_os("CRITERION_JSON") else {
        return;
    };
    // Recover rows a previous bench target wrote (same line format we
    // emit below), so multi-target `cargo bench` runs accumulate.
    let mut lines: Vec<String> = std::fs::read_to_string(&path)
        .ok()
        .map(|existing| {
            existing
                .lines()
                .filter(|l| l.trim_start().starts_with('{'))
                .map(|l| l.trim().trim_end_matches(',').to_string())
                .collect()
        })
        .unwrap_or_default();
    {
        let rows = results()
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for (name, mean, median) in rows.iter() {
            lines.push(format!(
                "{{\"name\": \"{}\", \"mean_ns\": {:.1}, \"median_ns\": {:.1}}}",
                name.replace('\\', "\\\\").replace('"', "\\\""),
                mean * 1e9,
                median * 1e9
            ));
        }
    }
    let mut out = String::from("[\n");
    for (i, line) in lines.iter().enumerate() {
        let comma = if i + 1 == lines.len() { "" } else { "," };
        out.push_str(&format!("  {line}{comma}\n"));
    }
    out.push_str("]\n");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("criterion shim: cannot write {path:?}: {e}");
    }
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Display, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Timing harness handed to the benchmark closure.
pub struct Bencher {
    /// Timed batches; the recorded median is the median batch time.
    batches: u64,
    /// Iterations per batch.
    iters: u64,
    /// Per-iteration seconds, one entry per batch.
    samples: Vec<f64>,
}

impl Bencher {
    /// Times `f`, discarding one warm-up call, then timing `batches`
    /// batches of `iters` calls each (mean per batch; the reported
    /// median is the median over batches). `iters == 0` auto-calibrates
    /// from the warm-up call so each batch runs long enough (~2 ms)
    /// for the median to be meaningful on fast benchmarks.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let warmup_start = Instant::now();
        black_box(f());
        let warmup = warmup_start.elapsed().as_secs_f64();
        if self.iters == 0 {
            const TARGET_BATCH_SECS: f64 = 2e-3;
            self.iters = if warmup > 0.0 {
                ((TARGET_BATCH_SECS / warmup).ceil() as u64).clamp(1, 4096)
            } else {
                4096
            };
        }
        self.samples.clear();
        for _ in 0..self.batches {
            let start = Instant::now();
            for _ in 0..self.iters {
                black_box(f());
            }
            self.samples
                .push(start.elapsed().as_secs_f64() / self.iters as f64);
        }
    }
}

fn run_one(name: &str, sample_size: u64, f: &mut dyn FnMut(&mut Bencher)) {
    // Smoke mode: 7 auto-calibrated batches (`iters == 0` makes the
    // Bencher size each batch to ~400 µs, so fast benchmarks still get
    // noise-resistant medians while a whole suite stays in the seconds
    // range); normal mode splits `sample_size` calls over 5 batches.
    let (batches, iters) = if smoke_mode() {
        (7, 0)
    } else {
        (5, (sample_size / 5).max(1))
    };
    let mut b = Bencher {
        batches,
        iters,
        samples: Vec::with_capacity(batches as usize),
    };
    f(&mut b);
    let mut sorted = b.samples.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median = sorted.get(sorted.len() / 2).copied().unwrap_or(0.0);
    let mean = if b.samples.is_empty() {
        0.0
    } else {
        b.samples.iter().sum::<f64>() / b.samples.len() as f64
    };
    println!(
        "{name:<60} {:>12.3} µs/iter median ({:.3} µs mean, {} x {} iters)",
        median * 1e6,
        mean * 1e6,
        batches,
        b.iters
    );
    results()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push((name.to_string(), mean, median));
}

/// Entry point mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: u64,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(name, self.sample_size, &mut f);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: u64,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n as u64;
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id), self.sample_size, &mut f);
        self
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Display,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        run_one(
            &format!("{}/{}", self.name, id),
            self.sample_size,
            &mut |b| f(b, input),
        );
        self
    }

    pub fn finish(self) {}
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $config;
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench binary's `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_json_results();
        }
    };
}
