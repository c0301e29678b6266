//! A lightweight wall-clock benchmark harness.
//!
//! Replaces the `criterion` dependency for the workspace's
//! `harness = false` bench targets. Each benchmark function is warmed up,
//! then timed over `samples` batches of auto-sized iterations; the
//! **median** batch time is reported (robust against scheduler noise).
//! A machine-readable report is written to `BENCH_<suite>.json` in the
//! working directory so perf PRs can diff runs.
//!
//! Environment knobs:
//!
//! * `NCPU_BENCH_SAMPLES` — batches per benchmark (default 11).
//! * `NCPU_BENCH_SAMPLE_MS` — target wall time per batch (default 20 ms).
//!
//! # Examples
//!
//! ```no_run
//! use ncpu_testkit::bench::Bench;
//!
//! let mut b = Bench::new("demo");
//! b.bench("sum_1k", || (0..1000u64).sum::<u64>());
//! b.throughput(1000);
//! b.bench("sum_1k_throughput", || (0..1000u64).sum::<u64>());
//! b.finish(); // prints a table and writes BENCH_demo.json
//! ```

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Result of one benchmark: batch statistics in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (unique within the suite).
    pub name: String,
    /// Median nanoseconds per iteration over all samples.
    pub median_ns: f64,
    /// Fastest sample's nanoseconds per iteration.
    pub min_ns: f64,
    /// Slowest sample's nanoseconds per iteration.
    pub max_ns: f64,
    /// Batches timed.
    pub samples: usize,
    /// Iterations per batch.
    pub iters_per_sample: u64,
    /// Declared elements processed per iteration (0 = undeclared).
    pub elements: u64,
}

impl BenchResult {
    /// Elements per second at the median, if a throughput was declared.
    pub fn elems_per_sec(&self) -> Option<f64> {
        (self.elements > 0).then(|| self.elements as f64 * 1e9 / self.median_ns)
    }
}

/// A benchmark suite: times closures and renders/writes a report.
#[derive(Debug)]
pub struct Bench {
    suite: String,
    samples: usize,
    sample_target: Duration,
    next_elements: u64,
    results: Vec<BenchResult>,
}

impl Bench {
    /// Creates a suite named `suite` (the JSON lands in
    /// `BENCH_<suite>.json`).
    pub fn new(suite: &str) -> Bench {
        let samples = std::env::var("NCPU_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n >= 3)
            .unwrap_or(11);
        let ms = std::env::var("NCPU_BENCH_SAMPLE_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(20u64);
        Bench {
            suite: suite.to_string(),
            samples,
            sample_target: Duration::from_millis(ms),
            next_elements: 0,
            results: Vec::new(),
        }
    }

    /// Declares the elements processed per iteration of the *next*
    /// [`Bench::bench`] call, for elements/second reporting.
    pub fn throughput(&mut self, elements: u64) {
        self.next_elements = elements;
    }

    /// Times `f`, consuming any pending [`Bench::throughput`] declaration.
    ///
    /// The return value of `f` is passed through [`black_box`] so the
    /// computation cannot be optimized away.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, mut f: F) {
        let elements = std::mem::take(&mut self.next_elements);

        // Warmup: run until ~a quarter of one sample target, at least 3x.
        let warmup_budget = self.sample_target / 4;
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_iters < 3 || warmup_start.elapsed() < warmup_budget {
            black_box(f());
            warmup_iters += 1;
            if warmup_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = warmup_start.elapsed().as_nanos() as f64 / warmup_iters as f64;
        let iters_per_sample =
            ((self.sample_target.as_nanos() as f64 / per_iter.max(1.0)).ceil() as u64).max(1);

        let per_iter_ns: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters_per_sample {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters_per_sample as f64
            })
            .collect();
        self.push(name, per_iter_ns, iters_per_sample, elements);
    }

    /// Times one run of `f` per sample, each on a fresh input from
    /// `setup`, which runs outside the timed region: a cold start, timed
    /// without the cost of building what it starts from. Consumes any
    /// pending [`Bench::throughput`] declaration.
    pub fn bench_cold<S, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) {
        let elements = std::mem::take(&mut self.next_elements);
        let per_iter_ns = (0..self.samples)
            .map(|_| {
                let input = setup();
                let start = Instant::now();
                black_box(f(input));
                start.elapsed().as_nanos() as f64
            })
            .collect();
        self.push(name, per_iter_ns, 1, elements);
    }

    fn push(&mut self, name: &str, mut per_iter_ns: Vec<f64>, iters_per_sample: u64, elems: u64) {
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let result = BenchResult {
            name: name.to_string(),
            median_ns: per_iter_ns[per_iter_ns.len() / 2],
            min_ns: per_iter_ns[0],
            max_ns: per_iter_ns[per_iter_ns.len() - 1],
            samples: self.samples,
            iters_per_sample,
            elements: elems,
        };
        println!("{}", render_line(&self.suite, &result));
        self.results.push(result);
    }

    /// Records an externally timed result (for one-shot regenerations
    /// where an iteration loop makes no sense).
    pub fn record_once(&mut self, name: &str, elapsed: Duration) {
        let ns = elapsed.as_nanos() as f64;
        let result = BenchResult {
            name: name.to_string(),
            median_ns: ns,
            min_ns: ns,
            max_ns: ns,
            samples: 1,
            iters_per_sample: 1,
            elements: 0,
        };
        println!("{}", render_line(&self.suite, &result));
        self.results.push(result);
    }

    /// The results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Serializes the suite report as JSON (no external serializer; the
    /// schema is flat numbers and strings).
    ///
    /// The header records the host shape the numbers were measured on —
    /// available hardware parallelism plus the `NCPU_THREADS` worker
    /// count in effect — so a regression gate (`bench_diff`) can refuse
    /// to compare reports from different machines: a committed 1-core
    /// baseline says nothing about a 16-core run.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"suite\": {},\n", json_string(&self.suite)));
        out.push_str(&format!("  \"host_parallelism\": {},\n", host_parallelism()));
        out.push_str(&format!("  \"ncpu_threads\": {},\n", ncpu_threads()));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \
                 \"samples\": {}, \"iters_per_sample\": {}, \"elements\": {}, \"elems_per_sec\": {}}}{}\n",
                json_string(&r.name),
                r.median_ns,
                r.min_ns,
                r.max_ns,
                r.samples,
                r.iters_per_sample,
                r.elements,
                r.elems_per_sec().map_or("null".to_string(), |e| format!("{e:.1}")),
                if i + 1 < self.results.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `BENCH_<suite>.json` into the working directory and returns
    /// its path.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written (a benchmark run whose report
    /// vanishes silently is worse than a crash).
    pub fn finish(self) -> std::path::PathBuf {
        let path = std::path::PathBuf::from(format!("BENCH_{}.json", self.suite));
        std::fs::write(&path, self.to_json())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("[bench report: {}]", path.display());
        path
    }
}

/// Hardware threads the host offers (1 if the OS will not say).
fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker count the `NCPU_THREADS` convention resolves to: the
/// variable's value when set and nonzero, otherwise the host
/// parallelism (mirroring `ncpu-par`, without depending on it).
fn ncpu_threads() -> usize {
    match std::env::var("NCPU_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => host_parallelism(),
    }
}

fn render_line(suite: &str, r: &BenchResult) -> String {
    let mut line = format!(
        "{suite}/{:<32} median {:>12}  (min {}, max {}, {}x{} iters)",
        r.name,
        fmt_ns(r.median_ns),
        fmt_ns(r.min_ns),
        fmt_ns(r.max_ns),
        r.samples,
        r.iters_per_sample,
    );
    if let Some(eps) = r.elems_per_sec() {
        line.push_str(&format!("  {:.2} Melem/s", eps / 1e6));
    }
    line
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_between_min_and_max() {
        std::env::set_var("NCPU_BENCH_SAMPLE_MS", "1");
        let mut b = Bench::new("unit");
        b.throughput(64);
        b.bench("spin", || (0..64u64).map(black_box).sum::<u64>());
        let r = &b.results()[0];
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert!(r.elems_per_sec().expect("throughput declared") > 0.0);
        assert_eq!(r.elements, 64);
    }

    #[test]
    fn json_schema_is_stable() {
        let mut b = Bench::new("unit-json");
        b.record_once("one_shot", Duration::from_millis(5));
        let json = b.to_json();
        assert!(json.contains("\"suite\": \"unit-json\""), "{json}");
        assert!(json.contains("\"name\": \"one_shot\""), "{json}");
        assert!(json.contains("\"median_ns\": 5000000.0"), "{json}");
        assert!(json.contains("\"elems_per_sec\": null"), "{json}");
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn throughput_applies_to_next_bench_only() {
        std::env::set_var("NCPU_BENCH_SAMPLE_MS", "1");
        let mut b = Bench::new("unit-tp");
        b.throughput(10);
        b.bench("with", || black_box(1));
        b.bench("without", || black_box(1));
        assert_eq!(b.results()[0].elements, 10);
        assert_eq!(b.results()[1].elements, 0);
    }
}
