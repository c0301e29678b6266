//! The repository's end-to-end benchmark: seeded request streams served
//! in process through `ncpu_serve::serve_lines` by a one-worker fleet.
//!
//! ```text
//! servebench --workload <trained_cold|steady_sweep|repeat_mix> --seed <n>
//!            [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! With `--trace 0` the run times the workload's stream for `--seconds`
//! and reports the end-to-end metrics; with `--trace 1` it serves a
//! fixed seeded prefix twice (untraced, then traced) and reports the
//! per-layer metrics. Either way every response is checked, and the
//! last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! See `README.md` for the workloads and the metric table.

mod check;
mod feed;
mod gen;
mod trace;

use std::time::{Duration, Instant};

use ncpu_serve::Fleet;

use check::{recompute, Checker};
use feed::{serve_pass, Source};
use gen::{Group, Stream, Workload, CACHE_CAPACITY};

/// Simulation workers in the fleet. One: a second worker measured no
/// faster on the 2-core reference host, and one keeps every
/// self-profiler span on the serving thread.
const WORKERS: usize = 1;

/// Fleet set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Every end-to-end metric, with its unit, in report order.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// A fresh fleet that has served the warm-up groups, with the checker
/// that checked them.
fn setup(warm: &[Group]) -> (Fleet, Checker) {
    let mut fleet = Fleet::new(WORKERS, CACHE_CAPACITY);
    let (checker, _) = serve_pass(&mut fleet, Source::Fixed(warm.iter()), Checker::default());
    (fleet, checker)
}

/// Nearest-rank percentile of `sorted` (ascending).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

/// The process's high-water resident set, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, if it is a git work tree.
fn commit() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        None => "none".to_string(),
        Some(head) => match head.strip_prefix("ref: ") {
            None => head,
            Some(reference) => read(&format!(".git/{reference}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .map(str::to_string)
                })
                .unwrap_or_else(|| head.clone()),
        },
    }
}

/// FNV-1a over the measured program's sources (`crates/` plus the root
/// manifest and lock file), so runs of a checkout without git can still
/// be matched to the code they measured.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&file).unwrap_or_default());
    }
    format!("{:016x}", ncpu_soc::fnv1a_64(&bytes))
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    ncpu_obs::selfprof::set_enabled(false);

    let props = gen::properties(args.workload, args.seed);
    println!("{}", gen::Properties::HEADER);
    println!("{}", props.row(args.workload));

    let mut stream = Stream::new(args.workload, args.seed);
    let warm = stream.warmup();

    if args.trace {
        let groups = stream.groups_for(args.workload.traced_requests());
        let traced = trace::traced_run(|| setup(&warm), &warm, &groups);
        print_context(&args, traced.attempted);
        for message in &traced.messages {
            eprintln!("servebench: FAILED {message}");
        }
        print_result(
            traced.failed == 0,
            traced.attempted,
            traced.failed,
            &traced.metrics,
        );
        return;
    }

    // Set-up: fleet construction plus the warm-up pass, repeated; the
    // last fleet serves the timed pass.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut warm_failed = 0;
    let mut messages = Vec::new();
    let mut kept: Option<(Fleet, Checker)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((fleet, checker)) = kept.take() {
            drop(fleet);
            warm_failed += checker.failed;
            messages.extend(checker.messages);
        }
        let start = Instant::now();
        kept = Some(setup(&warm));
        setups.push(start.elapsed().as_secs_f64());
    }
    let (mut fleet, mut checker) = kept.expect("at least one set-up");
    checker.counting = true;

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut checker, pass) = serve_pass(&mut fleet, Source::Until(&mut stream, deadline), checker);
    let rss = peak_rss_mb();
    drop(fleet);

    // Outside the timed window: the recomputation sample.
    for sample in std::mem::take(&mut checker.samples) {
        if let Err(e) = recompute(&sample) {
            checker.fail(e);
        }
    }
    messages.extend(checker.messages.iter().cloned());
    for message in &messages {
        eprintln!("servebench: FAILED {message}");
    }

    let mut latencies: Vec<f64> = checker
        .latencies
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    setups.sort_by(f64::total_cmp);
    let values = [
        pass.served as f64 / pass.wall.as_secs_f64(),
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.9),
        percentile(&setups, 0.5),
        rss,
    ];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), value)| (*name, value, *unit))
        .collect();
    print_context(&args, checker.attempted);
    let failed = checker.failed + warm_failed;
    print_result(
        failed == 0 && checker.attempted > 0,
        checker.attempted,
        failed,
        &metrics,
    );
}

fn print_context(args: &Args, requests: u64) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "context {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"workers\": {WORKERS}, \"cache_capacity\": {CACHE_CAPACITY}, \"setup_reps\": {SETUP_REPS}, \
         \"requests\": {requests}, \"rustc\": \"{}\", \"commit\": \"{}\", \"source_fnv\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("SERVEBENCH_RUSTC"),
        commit(),
        source_digest(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncpu_obs::json::{self, Json};

    /// The metric lists the program reports are the lists
    /// `BENCHMARK.json` declares, names and units alike.
    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |section: &str| -> Vec<(String, String)> {
            doc.get(section)
                .and_then(Json::as_arr)
                .expect("metric section")
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&trace::LAYER_METRICS));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 5.0);
        assert_eq!(percentile(&sorted, 0.9), 9.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
