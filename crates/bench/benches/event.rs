//! Engine benchmark: the event-driven scheduler against the per-cycle
//! lock-step walk, on the same end-to-end scenarios. Writes
//! `BENCH_event.json` with one `<group>_lockstep` / `<group>_event`
//! pair per scenario; the speedup column is the ratio of the medians.
//!
//! Every pair is also checked for report equality before timing — a
//! benchmark of a divergent engine would be meaningless — so this
//! doubles as a release-mode equivalence smoke.

use ncpu_soc::{
    pseudo_model, Engine, EventDriven, FaultPlan, Lockstep, Scenario, SystemConfig, UseCase,
};
use ncpu_testkit::bench::Bench;
use std::hint::black_box;
use std::time::Instant;

/// Alternating lock-step/event runs behind the watchdog gate.
const WATCHDOG_ROUNDS: usize = 41;

fn scenarios() -> Vec<(&'static str, Scenario)> {
    vec![
        // Steady-state heavy: a long batch where almost every item after
        // the first replays from the memo cache.
        (
            "endtoend/parametric_b128_2core",
            Scenario::new(
                UseCase::parametric(0.8, 128, pseudo_model(784, 30, 10)),
                SystemConfig::ncpu(2),
            ),
        ),
        // Staged-DMA path with a trained model (image pipeline): every
        // item runs functionally, priced from its program's block table
        // (measured by the first run; see the `_cold` row for a fresh
        // use case).
        (
            "endtoend/image_2core",
            Scenario::new(UseCase::image(4, 2, 1), SystemConfig::ncpu(2)),
        ),
        // A watchdog short enough to abort every image item mid-flight
        // (retried once, then dropped). Both engines step every aborted
        // cycle; the event engine saves only the lock-step walk's
        // per-cycle overhead, and never falls back to Lockstep.
        (
            "endtoend/image_2core_watchdog",
            Scenario::new(UseCase::image(4, 2, 1), SystemConfig::ncpu(2)).with_faults(FaultPlan {
                watchdog_cycles: 3_000,
                max_retries: 1,
                backoff_cycles: 16,
                ..FaultPlan::none()
            }),
        ),
        // The N-core generalization under shared-L2 contention.
        (
            "smoke/parametric_b16_4core",
            Scenario::new(
                UseCase::parametric(0.5, 16, pseudo_model(256, 20, 10)),
                SystemConfig::ncpu(4),
            ),
        ),
    ]
}

fn main() {
    let mut bench = Bench::new("event");
    let mut speedups = Vec::new();
    let mut watchdog = None;
    for (group, scenario) in scenarios() {
        // Equivalence gate first (also warms both engines' code paths).
        let lockstep = Lockstep.report(&scenario);
        let event = EventDriven.report(&scenario);
        assert_eq!(
            format!("{event:?}"),
            format!("{lockstep:?}"),
            "{group}: engines diverged — benchmark aborted"
        );

        // Each run processes the full batch, so the throughput column
        // (`elements` / `elems_per_sec`) is items per engine invocation.
        let items = scenario.usecase().items().len() as u64;
        bench.throughput(items);
        bench.bench(&format!("{group}_lockstep"), || Lockstep.report(&scenario));
        bench.throughput(items);
        bench.bench(&format!("{group}_event"), || EventDriven.report(&scenario));
        let results = bench.results();
        let (ls, ev) = (&results[results.len() - 2], &results[results.len() - 1]);
        let speedup = ls.median_ns / ev.median_ns;
        if group == "endtoend/image_2core_watchdog" {
            watchdog = Some(scenario.clone());
        }
        println!("{group}: event engine {speedup:.1}x faster than lockstep");
        speedups.push((group, speedup));
    }
    // The image pair on a fresh use case per run, built (and trained)
    // outside the timed region: its programs measure every block they
    // price. Evidence beside the warm row above, not a gated ratio.
    bench.throughput(4);
    bench.bench_cold(
        "endtoend/image_2core_event_cold",
        || Scenario::new(UseCase::image(4, 2, 1), SystemConfig::ncpu(2)),
        |scenario| EventDriven.report(&scenario),
    );
    let results = bench.results();
    let (cold, warm) = (&results[results.len() - 1], &results[3]);
    assert_eq!(warm.name, "endtoend/image_2core_event");
    let ratio = cold.median_ns / warm.median_ns;
    println!("endtoend/image_2core: cold event run {ratio:.2}x the warm one");
    bench.finish();
    // The headline claim this artifact exists to back: jumping between
    // events plus steady-state replay is an order-of-magnitude win on at
    // least one end-to-end group.
    let best = speedups
        .iter()
        .filter(|(g, _)| g.starts_with("endtoend/"))
        .map(|&(_, s)| s)
        .fold(0.0f64, f64::max);
    assert!(best >= 5.0, "expected >=5x on an endtoend group, best was {best:.1}x");
    // Distinct staged images replay their path's timing: the image
    // pipeline must clear the same bar on its own.
    let image = speedups
        .iter()
        .find(|(g, _)| *g == "endtoend/image_2core")
        .map_or(0.0, |&(_, s)| s);
    assert!(image >= 5.0, "expected >=5x on endtoend/image_2core, got {image:.1}x");
    // Mid-item watchdog aborts never send the event engine down to
    // lock-step speed. Both engines step every aborted cycle, so the
    // margin is thin (~1.1x): rather than the few samples above, time
    // many single runs in alternation, so load from other processes
    // hits both engines alike, and compare each engine's fastest run,
    // which that load can only slow down.
    let scenario = watchdog.expect("the watchdog scenario is benched above");
    let fastest = fastest_interleaved(&scenario, WATCHDOG_ROUNDS);
    println!(
        "endtoend/image_2core_watchdog: event engine {fastest:.2}x faster than lockstep \
         (fastest of {WATCHDOG_ROUNDS} alternating runs)"
    );
    assert!(
        fastest >= 1.0,
        "expected event <= lockstep on endtoend/image_2core_watchdog, got {fastest:.2}x"
    );
}

/// Lock-step over event-engine time, each engine's fastest of `rounds`
/// single runs taken in alternation.
fn fastest_interleaved(scenario: &Scenario, rounds: usize) -> f64 {
    let time = |engine: &dyn Engine| {
        let start = Instant::now();
        black_box(engine.report(scenario));
        start.elapsed().as_nanos() as f64
    };
    let (mut lockstep, mut event) = (f64::MAX, f64::MAX);
    for _ in 0..rounds {
        lockstep = lockstep.min(time(&Lockstep));
        event = event.min(time(&EventDriven));
    }
    lockstep / event
}
