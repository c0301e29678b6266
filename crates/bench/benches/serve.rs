//! Fleet-service benchmark: cold vs warm serving of a 16-scenario
//! sweep through the full line protocol, at 1 and 4 workers. Writes
//! `BENCH_serve.json`.
//!
//! * `cold_*` rows build a fresh fleet per iteration and pay spec
//!   parsing, scenario construction, and simulation for all 16
//!   scenarios (`elements = 16`, so `elems_per_sec` is cold
//!   scenarios/second).
//! * `warm_*` rows replay the identical request lines against the
//!   warmed fleet: every request is a content-addressed cache hit
//!   serving the exact cached bytes.
//! * `warm_p50` / `warm_p99` are nearest-rank percentiles of 1,024
//!   single-request round-trip latencies (one line in, one line out)
//!   over the warm cache, each the median of 5 such rounds: ten
//!   requests sit above a round's p99, so one preempted request cannot
//!   decide it, and a burst of contention that slows one round cannot
//!   decide the median.
//! * `first_line_b16_w1` times a cold 16-scenario batch at 1 worker from
//!   handing it to `serve_lines` until the first response line reaches
//!   the writer, the median of 21 fresh fleets. A flush streams, so the
//!   first line waits for its own simulation, not for all 16.
//!
//! The committed artifact must show warm throughput at least 10x cold —
//! that is the service's reason to exist — so this harness asserts it.

use std::io::Write;
use std::time::{Duration, Instant};

use ncpu_serve::{serve_lines, Fleet, ServeConfig};
use ncpu_testkit::bench::Bench;

/// 16 distinct steady-state scenarios (4 fractions x 2 batches x 2 core
/// counts), as protocol lines. Small enough to keep the cold side
/// tractable under `NCPU_BENCH_SAMPLES`, large enough to exercise the
/// batch planner.
fn sweep_lines() -> String {
    let mut lines = String::new();
    for frac in [2, 4, 6, 8] {
        for batch in [2, 4] {
            for cores in [1, 2] {
                lines.push_str(&format!(
                    "{{\"cpu_fraction\":0.{frac},\"batch\":{batch},\"cores\":{cores},\"model_input\":64}}\n"
                ));
            }
        }
    }
    lines
}

const SWEEP: usize = 16;

/// Warm single-request round trips each latency percentile is taken over.
const LATENCY_REQUESTS: usize = 1024;

/// Rounds of `LATENCY_REQUESTS`; each latency row is the median round's.
const LATENCY_ROUNDS: usize = 5;

/// Fresh fleets the first-line row is the median of.
const FIRST_LINE_ROUNDS: usize = 21;

/// A response sink that notes when the first line is complete.
struct FirstLine {
    start: Instant,
    first: Option<Duration>,
}

impl Write for FirstLine {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        if self.first.is_none() && bytes.contains(&b'\n') {
            self.first = Some(self.start.elapsed());
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn serve_all(fleet: &mut Fleet, input: &str) -> usize {
    let mut out = Vec::new();
    serve_lines(fleet, input.as_bytes(), &mut out, &ServeConfig::default())
        .expect("in-memory serve cannot fail");
    out.len()
}

fn main() {
    let mut bench = Bench::new("serve");
    let lines = sweep_lines();
    assert_eq!(lines.lines().count(), SWEEP);

    let mut medians: Vec<(String, f64)> = Vec::new();
    for workers in [1usize, 4] {
        bench.throughput(SWEEP as u64);
        bench.bench(&format!("cold_b16_w{workers}"), || {
            let mut fleet = Fleet::new(workers, 1024);
            serve_all(&mut fleet, &lines)
        });

        let mut warm = Fleet::new(workers, 1024);
        serve_all(&mut warm, &lines);
        bench.throughput(SWEEP as u64);
        bench.bench(&format!("warm_b16_w{workers}"), || serve_all(&mut warm, &lines));

        let results = bench.results();
        let (cold, hot) = (&results[results.len() - 2], &results[results.len() - 1]);
        println!(
            "serve w{workers}: cold {:.0} scen/s, warm {:.0} scen/s ({:.0}x)",
            1e9 * SWEEP as f64 / cold.median_ns,
            1e9 * SWEEP as f64 / hot.median_ns,
            cold.median_ns / hot.median_ns
        );
        medians.push((format!("w{workers}"), cold.median_ns / hot.median_ns));
    }

    // First response line of a cold batch.
    let mut first_lines: Vec<Duration> = (0..FIRST_LINE_ROUNDS)
        .map(|_| {
            let mut fleet = Fleet::new(1, 1024);
            let mut sink = FirstLine { start: Instant::now(), first: None };
            serve_lines(&mut fleet, lines.as_bytes(), &mut sink, &ServeConfig::default())
                .expect("in-memory serve cannot fail");
            sink.first.expect("the batch answers its first request")
        })
        .collect();
    first_lines.sort_unstable();
    bench.record_once("first_line_b16_w1", first_lines[FIRST_LINE_ROUNDS / 2]);

    // Single-request round-trip latency over the warm cache.
    let mut warm = Fleet::new(1, 1024);
    serve_all(&mut warm, &lines);
    let requests: Vec<String> = lines.lines().map(|line| format!("{line}\n")).collect();
    let mut rounds: Vec<(Duration, Duration)> = (0..LATENCY_ROUNDS)
        .map(|_| {
            let mut latencies: Vec<Duration> = (0..LATENCY_REQUESTS)
                .map(|i| {
                    let start = Instant::now();
                    serve_all(&mut warm, &requests[i % SWEEP]);
                    start.elapsed()
                })
                .collect();
            latencies.sort_unstable();
            let nearest_rank = |q: f64| latencies[(q * LATENCY_REQUESTS as f64).ceil() as usize - 1];
            (nearest_rank(0.50), nearest_rank(0.99))
        })
        .collect();
    rounds.sort_unstable_by_key(|&(p50, _)| p50);
    bench.record_once("warm_p50", rounds[LATENCY_ROUNDS / 2].0);
    rounds.sort_unstable_by_key(|&(_, p99)| p99);
    bench.record_once("warm_p99", rounds[LATENCY_ROUNDS / 2].1);

    bench.finish();

    for (tag, ratio) in &medians {
        assert!(
            *ratio >= 10.0,
            "{tag}: warm serving must be >=10x cold (content-addressed cache), got {ratio:.1}x"
        );
    }
}
