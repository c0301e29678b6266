//! Runs every experiment in paper order (`cargo run --release -p
//! ncpu-bench --bin paper`), or a subset by id.
//!
//! With `NCPU_TRACE=counters|full` it additionally re-runs the flagship
//! dual-NCPU image-classification case traced and writes `RUN_image.json`
//! + `TRACE_image.json` into `NCPU_TRACE_DIR` (default `.`).
//!
//! With `NCPU_SELFPROF=1` the binary profiles its own wall-clock time —
//! one span per experiment plus the engine/fabric spans the simulators
//! emit — and writes `PROF_paper.folded` (flamegraph collapsed-stack
//! input), `PROF_paper.visits.folded` (visit counts: deterministic
//! across runs), and `PROF_paper.json` into `NCPU_TRACE_DIR`. The
//! profiler's tree is thread-local, so run with `NCPU_THREADS=1` to see
//! experiment spans nested under the main thread; with workers > 1 only
//! main-thread spans land in the report.
use std::env;

use ncpu_obs::{selfprof, TraceLevel};

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() {
        ncpu_bench::experiments::ALL_IDS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    let prof_all = selfprof::span("paper");
    // Experiments are independent pure functions of their seeds, so they
    // fan out across the pool (`NCPU_THREADS`); reports come back in
    // request order and print serially, so stdout is byte-identical to
    // the sequential loop for every worker count.
    let reports = ncpu_par::par_map_indexed(ids, |_, id| {
        let _prof = selfprof::span(&format!("experiment.{id}"));
        (id, ncpu_bench::experiments::run_by_id(id))
    });
    for (id, report) in reports {
        match report {
            Some(report) => println!("{report}"),
            None => eprintln!(
                "unknown experiment `{id}` (known: {:?})",
                ncpu_bench::experiments::ALL_IDS
            ),
        }
    }

    write_traced_artifacts();

    if selfprof::enabled() {
        drop(prof_all); // close the root span so its wall time is recorded
        match selfprof::take().write_artifacts("paper") {
            Ok(paths) => {
                for p in paths {
                    eprintln!("selfprof artifact: {}", p.display());
                }
            }
            Err(e) => eprintln!("failed to write selfprof artifacts: {e}"),
        }
    }
}

/// The `NCPU_TRACE`-gated flagship traced re-run (moved out of `main` so
/// the self-profiler span around it has a stable name).
fn write_traced_artifacts() {
    let level = TraceLevel::from_env();
    if level != TraceLevel::Off {
        let _prof = selfprof::span("paper.traced_rerun");
        use ncpu_soc::Engine;
        let scenario = ncpu_soc::Scenario::new(
            ncpu_soc::UseCase::image(4, 60, 25),
            ncpu_soc::SystemConfig::ncpu(2),
        )
        .with_trace(level);
        let (report, rec) = ncpu_soc::EventDriven.run(&scenario);
        let artifact = report.artifact(scenario.usecase().name(), &rec);
        match ncpu_obs::write_artifacts(&artifact, &rec, &report.thread_names()) {
            Ok((run_path, trace_path)) => {
                eprintln!("trace artifacts: {} and {}", run_path.display(), trace_path.display());
            }
            Err(e) => eprintln!("failed to write trace artifacts: {e}"),
        }
    }
}
