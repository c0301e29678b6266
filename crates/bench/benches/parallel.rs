//! Parallel-speedup benchmark for the `ncpu-par` execution layer.
//!
//! Regenerates a set of paper figures with `NCPU_THREADS=1` and
//! `NCPU_THREADS=4`, records both wall-clock times into
//! `BENCH_parallel.json`, and — the determinism contract — asserts that
//! the concatenated report bytes are identical at both thread counts.
//!
//! The recorded names carry the host's `available_parallelism` (e.g.
//! `figures/threads4_host1`): on a single-hardware-thread machine the
//! 4-worker run cannot be faster, and the artifact says so instead of
//! pretending. Speedup = `threads1` median over `threads4` median.
//!
//! By default the training-heavy figures (table1/table3/fig18) are
//! skipped so the bench stays in seconds; set `NCPU_BENCH_FULL=1` for
//! the full `paper` binary id list.

use std::time::Instant;

use ncpu_obs::CycleHistogram;
use ncpu_soc::{Engine, EventDriven, Scenario, SystemConfig, UseCase};
use ncpu_testkit::bench::Bench;

/// The parallelized fast figures: every one fans its sweep/config grid
/// out through the pool, so together they exercise each integration
/// point of `ncpu_par` in the bench layer.
const FAST_PARALLEL_IDS: [&str; 8] = [
    "fig09",
    "fig12",
    "fig13",
    "fig14",
    "ablation_switch",
    "ablation_pipelining",
    "ablation_offload",
    "ablation_interface",
];

fn regenerate(ids: &[&str]) -> String {
    let mut out = String::new();
    for id in ids {
        let report = ncpu_bench::experiments::run_by_id(id).expect("known id");
        out.push_str(&report.to_string());
        out.push('\n');
    }
    out
}

/// Merges every scenario's `item.latency_cycles` histogram into one
/// fleet-wide histogram via [`ncpu_par::Pool::par_map_fold`]: the map
/// (one engine run per scenario) fans out across workers, the merge
/// folds in scenario index order. Returns the merged histogram's JSON.
fn fleet_latency_json(workers: usize) -> String {
    let scenarios: Vec<Scenario> = (1..=4)
        .map(|cores| {
            Scenario::new(UseCase::image(8, 30, 10), SystemConfig::ncpu(cores))
        })
        .collect();
    let pool = ncpu_par::Pool::with_workers(workers);
    let fleet = pool.par_map_fold(
        scenarios,
        |_, s| {
            let (report, _) = EventDriven.run(&s);
            report.metrics.get("item.latency_cycles").cloned().unwrap_or_default()
        },
        CycleHistogram::new(),
        |mut acc, h| {
            acc.merge(&h);
            acc
        },
    );
    assert!(!fleet.is_empty(), "fleet histogram must observe every item");
    fleet.to_json()
}

fn main() {
    let full = std::env::var("NCPU_BENCH_FULL").is_ok_and(|v| v == "1");
    let ids: Vec<&str> = if full {
        ncpu_bench::experiments::ALL_IDS.to_vec()
    } else {
        FAST_PARALLEL_IDS.to_vec()
    };
    let host = ncpu_par::host_parallelism();
    let mut bench = Bench::new("parallel");
    let mut outputs: Vec<(usize, String)> = Vec::new();
    for threads in [1usize, 4] {
        std::env::set_var(ncpu_par::THREADS_ENV, threads.to_string());
        let start = Instant::now();
        let text = regenerate(&ids);
        bench.record_once(&format!("figures/threads{threads}_host{host}"), start.elapsed());
        outputs.push((threads, text));
    }
    std::env::remove_var(ncpu_par::THREADS_ENV);

    let (t1, t4) = (&bench.results()[0], &bench.results()[1]);
    println!(
        "parallel/speedup: {:.2}x at 4 workers ({} figure ids, {host} host hardware threads)",
        t1.median_ns / t4.median_ns,
        ids.len()
    );
    for window in outputs.windows(2) {
        let (ta, a) = &window[0];
        let (tb, b) = &window[1];
        assert_eq!(
            a, b,
            "figure bytes differ between NCPU_THREADS={ta} and NCPU_THREADS={tb}: \
             the determinism contract is broken"
        );
    }
    println!("parallel/determinism: outputs byte-identical across thread counts");

    // The ordered-fold reduction: a fleet latency histogram merged across
    // scenarios must be byte-identical for any worker count.
    let mut fleet_jsons: Vec<(usize, String)> = Vec::new();
    for workers in [1usize, 4] {
        let start = Instant::now();
        let json = fleet_latency_json(workers);
        bench.record_once(&format!("fleet_hist/workers{workers}_host{host}"), start.elapsed());
        fleet_jsons.push((workers, json));
    }
    assert_eq!(
        fleet_jsons[0].1, fleet_jsons[1].1,
        "fleet latency histogram differs between 1 and 4 workers: \
         the ordered-fold determinism contract is broken"
    );
    println!("parallel/fleet_hist: merged latency histogram byte-identical across worker counts");
    bench.finish();
}
