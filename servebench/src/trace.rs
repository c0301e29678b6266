//! The traced pass: per-layer times and counts, measured from outside
//! the program.
//!
//! * `run_batch` time comes from the [`Timed`](crate::feed::Timed)
//!   wrapper around the fleet;
//! * engine, event simulate/replay and `fabric.run_item` times come from
//!   the spans the engines already open in `ncpu_obs::selfprof`;
//! * parse, build and key times come from calling the same public
//!   functions again on the same request lines, with the fleet's build
//!   memo mirrored so exactly the builds the fleet did are re-timed;
//! * serialisation time comes from the recomputation sample;
//! * counts come from the served reports and `Fleet::counters()`.
//!
//! Times ending in `_ms` are totals over the traced pass (a fixed,
//! seeded request count per workload); times ending in `_us` are means
//! per call.

use std::time::{Duration, Instant};

use ncpu_obs::json;
use ncpu_obs::selfprof::{self, ProfReport};
use ncpu_serve::cache::Lru;
use ncpu_serve::{Fleet, ScenarioSpec, WorkloadSpec};
use ncpu_soc::Scenario;

use crate::check::{recompute, Checker};
use crate::feed::{serve_pass, PassStats, Source, Timed};
use crate::gen::Group;

/// The fleet's bound on its scenario-construction memo, mirrored so the
/// re-timed builds are the builds the fleet did.
const BUILD_MEMO_CAP: usize = 64;

/// Recomputed misses whose serialisation the traced pass times.
pub const TRACE_SAMPLES: usize = 24;

/// Every per-layer metric, with its unit, in report order.
pub const LAYER_METRICS: [(&str, &str); 43] = [
    ("server.self_ms", "ms"),
    ("spec.parse_us", "us"),
    ("spec.rejected", "count"),
    ("spec.build_ms", "ms"),
    ("spec.builds", "count"),
    ("canonical.key_us", "us"),
    ("fleet.run_batch_ms", "ms"),
    ("fleet.self_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("engine.lockstep_ms", "ms"),
    ("engine.event_ms", "ms"),
    ("engine.analytic_ms", "ms"),
    ("engine.host_ns_per_sim_cycle", "ns/cycle"),
    ("engine.sim_minstr_per_s", "Minstr/s"),
    ("event.simulate_ms", "ms"),
    ("event.replay_ms", "ms"),
    ("event.self_ms", "ms"),
    ("event.replay_ratio", "ratio"),
    ("fabric.run_item_ms", "ms"),
    ("fabric.items", "count"),
    ("report.serialize_us", "us"),
    ("pipeline.retired", "count"),
    ("pipeline.cycles", "cycles"),
    ("pipeline.ipc", "ratio"),
    ("pipeline.stall.flush", "cycles"),
    ("pipeline.stall.load_use", "cycles"),
    ("pipeline.stall.ex", "cycles"),
    ("pipeline.stall.mem", "cycles"),
    ("accel.images_inferred", "count"),
    ("accel.bnn_cycles", "cycles"),
    ("dma.bytes", "bytes"),
    ("dma.transfers", "count"),
    ("l2.conflict_cycles", "cycles"),
    ("fault.injected", "count"),
    ("fault.retries", "count"),
    ("fault.recovery_cycles", "cycles"),
    ("model.makespan_cycles", "cycles"),
    ("trace.requests", "count"),
    ("trace.serve_ms", "ms"),
    ("trace.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Parse, build and key times from re-running the public calls.
#[derive(Debug, Default)]
struct Retimed {
    parse: Duration,
    parses: u64,
    rejected: u64,
    build: Duration,
    builds: u64,
    key: Duration,
    keys: u64,
}

/// Re-times parse, build and key over `warm` then `traced`, timing only
/// the traced lines. The warm-up lines run first because they leave the
/// build memo in the state the traced pass found it in.
fn retime(warm: &[Group], traced: &[Group]) -> Retimed {
    let mut memo: Lru<String, Scenario> = Lru::new(BUILD_MEMO_CAP);
    let mut out = Retimed::default();
    let lines = warm.iter().flatten().map(|r| (r, false));
    for (req, timed) in lines.chain(traced.iter().flatten().map(|r| (r, true))) {
        let start = Instant::now();
        let spec = json::parse(&req.line)
            .map_err(|e| e.to_string())
            .and_then(|doc| ScenarioSpec::parse(&doc));
        let parse = start.elapsed();
        let spec = match spec {
            Ok(spec) if !req.invalid => spec,
            // Rejected by the parser, or by the router (never built).
            parsed => {
                if timed {
                    out.parse += parse;
                    out.parses += 1;
                    out.rejected += u64::from(parsed.is_err());
                }
                continue;
            }
        };
        let start = Instant::now();
        let mut trained_build = false;
        let scenario = if matches!(spec.workload, WorkloadSpec::Parametric { .. }) {
            spec.build()
        } else {
            let memo_key = spec.memo_key();
            match memo.get(&memo_key) {
                Some(scenario) => scenario.clone(),
                None => {
                    trained_build = true;
                    let scenario = spec.build();
                    memo.insert(memo_key, scenario.clone());
                    scenario
                }
            }
        };
        let build = start.elapsed();
        let start = Instant::now();
        std::hint::black_box(scenario.cache_key());
        let key = start.elapsed();
        if timed {
            out.parse += parse;
            out.parses += 1;
            out.build += build;
            out.builds += u64::from(trained_build);
            out.key += key;
            out.keys += 1;
        }
    }
    out
}

/// Wall and exclusive nanoseconds and visits of every stack ending in
/// `label`.
fn span(prof: &ProfReport, label: &str) -> (f64, f64, u64) {
    prof.entries
        .iter()
        .filter(|e| e.stack.last().is_some_and(|l| l == label))
        .fold((0.0, 0.0, 0), |(wall, excl, visits), e| {
            (
                wall + e.wall_ns as f64,
                excl + e.excl_ns as f64,
                visits + e.visits,
            )
        })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The traced run's outcome.
pub struct Traced {
    /// `(name, value, unit)` for every entry of [`LAYER_METRICS`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Requests checked in both passes.
    pub attempted: u64,
    /// Failed requests in both passes (warm-ups and recomputation
    /// included).
    pub failed: u64,
    /// The first failure messages.
    pub messages: Vec<String>,
}

/// Runs the untraced reference pass and the traced pass over the same
/// `groups`, each on a fresh fleet warmed by `warm`, and derives every
/// per-layer metric.
pub fn traced_run(
    setup: impl Fn() -> (Fleet, Checker),
    warm: &[Group],
    groups: &[Group],
) -> Traced {
    let (mut fleet, mut checker) = setup();
    checker.counting = true;
    let (reference, untraced) = serve_pass(&mut fleet, Source::Fixed(groups.iter()), checker);
    drop(fleet);

    let (mut fleet, mut checker) = setup();
    checker.counting = true;
    checker.max_samples = TRACE_SAMPLES;
    let before = fleet.counters();
    selfprof::set_enabled(true);
    drop(selfprof::take());
    let mut timed = Timed::new(&mut fleet);
    let (mut checker, traced) = serve_pass(&mut timed, Source::Fixed(groups.iter()), checker);
    let prof = selfprof::take();
    selfprof::set_enabled(false);
    let run_batch = timed.run_batch;
    let after = fleet.counters();
    drop(fleet);

    let retimed = retime(warm, groups);
    let mut serialize = Vec::new();
    for sample in std::mem::take(&mut checker.samples) {
        match recompute(&sample) {
            Ok(d) => serialize.push(d),
            Err(e) => checker.fail(e),
        }
    }
    let metrics = layer_metrics(
        &checker,
        &prof,
        traced,
        untraced,
        run_batch,
        &retimed,
        &serialize,
        |name| after.get(name) - before.get(name),
    );
    let mut messages = reference.messages.clone();
    messages.extend(checker.messages.iter().cloned());
    Traced {
        metrics,
        attempted: reference.attempted + checker.attempted,
        failed: reference.failed + checker.failed,
        messages,
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    checker: &Checker,
    prof: &ProfReport,
    traced: PassStats,
    untraced: PassStats,
    run_batch: Duration,
    retimed: &Retimed,
    serialize: &[Duration],
    counter: impl Fn(&str) -> u64,
) -> Vec<(&'static str, f64, &'static str)> {
    let (lockstep, _, _) = span(prof, "engine.lockstep");
    let (event, event_self, _) = span(prof, "engine.event");
    let (analytic, _, _) = span(prof, "engine.analytic");
    let (simulate, _, simulated) = span(prof, "event.simulate");
    let (replay, _, replayed) = span(prof, "event.replay");
    let (run_item, _, items) = span(prof, "fabric.run_item");
    let engine_ns = lockstep + event + analytic;
    let cosim_ns = lockstep + event;
    let cosim = |name: &str| checker.tally.cosim.get(name).copied().unwrap_or(0) as f64;
    let all = |name: &str| checker.tally.get(name) as f64;
    let serve_ns = traced.wall.as_nanos() as f64;
    let serialize_ns = ratio(
        serialize.iter().map(|d| d.as_nanos() as f64).sum(),
        serialize.len() as f64,
    );
    let misses = counter("serve.cache.misses") as f64;
    let hits = counter("serve.cache.hits") as f64;
    let covered = retimed.parse.as_nanos() as f64
        + retimed.build.as_nanos() as f64
        + retimed.key.as_nanos() as f64
        + engine_ns
        + serialize_ns * misses;
    let values: Vec<f64> = vec![
        ms(traced.wall.saturating_sub(run_batch)),
        ratio(retimed.parse.as_nanos() as f64, retimed.parses as f64) / 1e3,
        retimed.rejected as f64,
        ms(retimed.build),
        retimed.builds as f64,
        ratio(retimed.key.as_nanos() as f64, retimed.keys as f64) / 1e3,
        ms(run_batch),
        (run_batch.as_nanos() as f64 - engine_ns) / 1e6,
        ratio(hits, hits + misses),
        misses,
        counter("serve.cache.evictions") as f64,
        lockstep / 1e6,
        event / 1e6,
        analytic / 1e6,
        ratio(
            cosim_ns,
            cosim("pipeline.cycles") + cosim("accel.bnn_cycles"),
        ),
        ratio(cosim("pipeline.retired"), cosim_ns / 1e9) / 1e6,
        simulate / 1e6,
        replay / 1e6,
        event_self / 1e6,
        ratio(replayed as f64, (replayed + simulated) as f64),
        run_item / 1e6,
        items as f64,
        serialize_ns / 1e3,
        all("pipeline.retired"),
        all("pipeline.cycles"),
        ratio(all("pipeline.retired"), all("pipeline.cycles")),
        all("pipeline.stall.flush"),
        all("pipeline.stall.load_use"),
        all("pipeline.stall.ex"),
        all("pipeline.stall.mem"),
        all("accel.images_inferred"),
        all("accel.bnn_cycles"),
        all("dma.bytes"),
        all("dma.transfers"),
        all("l2.conflict_cycles"),
        all("fault.injected"),
        all("fault.retries"),
        all("fault.recovery_cycles"),
        all("model.makespan_cycles"),
        traced.served as f64,
        serve_ns / 1e6,
        ratio(serve_ns - covered, serve_ns),
        ratio(traced.wall.as_secs_f64(), untraced.wall.as_secs_f64()) - 1.0,
    ];
    assert_eq!(
        values.len(),
        LAYER_METRICS.len(),
        "one value per layer metric"
    );
    LAYER_METRICS
        .iter()
        .zip(values)
        .map(|((name, unit), value)| (*name, value, *unit))
        .collect()
}
