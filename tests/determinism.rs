//! Reproducibility: every simulated and trained quantity is a pure
//! function of its seeds — two runs of anything give identical bytes.

use ncpu::prelude::*;
use ncpu::soc::RunReport;

/// The default-fabric Analytic report of `uc` under `system`.
fn analytic(uc: &UseCase, system: SystemConfig) -> RunReport {
    Analytic.report(&Scenario::new(uc.clone(), system))
}

/// A fully traced Analytic run of `uc` on two NCPU cores.
fn traced_dual(uc: &UseCase) -> (RunReport, ncpu::obs::Recorder) {
    Analytic.run(
        &Scenario::new(uc.clone(), SystemConfig::ncpu(2)).with_trace(TraceLevel::Full),
    )
}

#[test]
fn soc_runs_are_bit_reproducible() {
    let mk = || {
        let uc = UseCase::motion(2, 4, 2);
        let base = analytic(&uc, SystemConfig::Heterogeneous);
        let dual = analytic(&uc, SystemConfig::ncpu(2));
        (base.makespan, dual.makespan, base.predictions, dual.predictions)
    };
    assert_eq!(mk(), mk());
}

/// Both paper use cases, end to end, from fresh state: the *entire* report
/// (every core's busy time, every prediction, every label — via the Debug
/// rendering) must come out byte-identical across runs.
#[test]
fn image_use_case_reports_are_byte_identical() {
    let mk = || {
        let uc = UseCase::image(3, 4, 2);
        let base = analytic(&uc, SystemConfig::Heterogeneous);
        let dual = analytic(&uc, SystemConfig::ncpu(2));
        format!("{base:?}\n{dual:?}")
    };
    assert_eq!(mk(), mk(), "image-classification reports must be byte-identical");
}

#[test]
fn motion_use_case_reports_are_byte_identical() {
    let mk = || {
        let uc = UseCase::motion(3, 4, 2);
        let base = analytic(&uc, SystemConfig::Heterogeneous);
        let dual = analytic(&uc, SystemConfig::ncpu(2));
        format!("{base:?}\n{dual:?}")
    };
    assert_eq!(mk(), mk(), "motion-detection reports must be byte-identical");
}

/// The exported observability artifacts are part of the reproducibility
/// contract: two identical traced runs must render byte-identical
/// `RUN_*.json` and Chrome-trace documents.
#[test]
fn trace_artifacts_are_byte_identical() {
    let mk = || {
        let uc = UseCase::motion(2, 4, 2);
        let (dual, rec) = traced_dual(&uc);
        let artifact = dual.artifact(uc.name(), &rec);
        (artifact.to_json(), ncpu::obs::chrome_trace(&rec, &dual.thread_names()))
    };
    let (run_a, trace_a) = mk();
    let (run_b, trace_b) = mk();
    assert_eq!(run_a, run_b, "RUN_*.json must be byte-identical across runs");
    assert_eq!(trace_a, trace_b, "Chrome trace must be byte-identical across runs");
}

#[test]
fn training_is_bit_reproducible() {
    use ncpu::bnn::data::Dataset;
    use ncpu::bnn::train::{train, TrainConfig};
    let inputs: Vec<BitVec> =
        (0..30u32).map(|i| BitVec::from_bools((0..12).map(move |b| (i >> b) & 1 == 1))).collect();
    let labels: Vec<usize> = inputs.iter().map(|x| (x.count_ones() > 6) as usize).collect();
    let data = Dataset::new(inputs, labels, 2);
    let topo = Topology::new(12, vec![6], 2);
    let cfg = TrainConfig { epochs: 5, ..TrainConfig::default() };
    let a = ncpu::bnn::io::to_bytes(&train(&topo, &data, &cfg));
    let b = ncpu::bnn::io::to_bytes(&train(&topo, &data, &cfg));
    assert_eq!(a, b, "trained artifacts must be byte-identical");
}

/// Parallel minibatch training reduces per-sample gradients in fixed
/// sample order, so the exported model must be byte-identical for any
/// worker count — `NCPU_THREADS=1` (pure serial, no threads spawned)
/// versus `NCPU_THREADS=8` here.
///
/// Flipping the process-global `NCPU_THREADS` mid-suite is safe precisely
/// because of the property under test: no output in this workspace may
/// depend on it.
#[test]
fn training_is_thread_count_invariant() {
    use ncpu::bnn::data::Dataset;
    use ncpu::bnn::train::{train, TrainConfig};
    let inputs: Vec<BitVec> =
        (0..40u32).map(|i| BitVec::from_bools((0..24).map(move |b| (i >> (b % 6)) & 1 == 1))).collect();
    let labels: Vec<usize> = inputs.iter().map(|x| (x.count_ones() % 3 == 0) as usize).collect();
    let data = Dataset::new(inputs, labels, 2);
    let topo = Topology::new(24, vec![12, 8], 2);
    let cfg = TrainConfig { epochs: 4, ..TrainConfig::default() };
    let at = |threads: &str| {
        std::env::set_var("NCPU_THREADS", threads);
        let bytes = ncpu::bnn::io::to_bytes(&train(&topo, &data, &cfg));
        std::env::remove_var("NCPU_THREADS");
        bytes
    };
    assert_eq!(
        at("1"),
        at("8"),
        "trained artifacts must not depend on the worker count"
    );
}

/// FNV-1a of a model's exported bytes: what the accelerator stores, and
/// what trained use cases' cache keys hash.
fn model_digest(model: &BnnModel) -> u64 {
    ncpu::soc::fnv1a_64(&ncpu::bnn::io::to_bytes(model))
}

/// The trained models `ncpu serve` builds for its image (`image(·, 2, 1)`)
/// and motion (`motion(·, 4, 2)`) requests, pinned to their exported
/// bytes; ci.sh runs this file at `NCPU_THREADS=1` and `4`. An exported
/// model keeps only weight signs and rounded biases, so a reassociated
/// float sum may not move these pins: `ncpu-bnn`'s
/// `shadow_state_is_pinned` sees those low bits.
#[test]
fn serve_trained_models_are_pinned() {
    let image = model_digest(UseCase::image(1, 2, 1).model());
    let motion = model_digest(UseCase::motion(1, 4, 2).model());
    assert_eq!(
        (image, motion),
        (0x204741d013a3777f, 0x9069177a5a76e053),
        "{image:#018x} {motion:#018x}"
    );
}

/// The items `ncpu serve` stages for its image (`image(8, 2, 1)`) and
/// motion (`motion(8, 4, 2)`) requests, pinned to FNV-1a over every
/// item's staged bytes and label. Together with the model pins above
/// this covers every byte a trained use case feeds the simulator.
#[test]
fn trained_use_case_items_are_pinned() {
    let digest = |uc: UseCase| {
        let mut bytes = Vec::new();
        for item in uc.items() {
            bytes.extend_from_slice(&item.staged);
            bytes.extend_from_slice(&(item.label as u64).to_le_bytes());
        }
        ncpu::soc::fnv1a_64(&bytes)
    };
    let (image, motion) = (digest(UseCase::image(8, 2, 1)), digest(UseCase::motion(8, 4, 2)));
    assert_eq!(
        (image, motion),
        (0x34da1f4c0429c3b5, 0xf236416c146dbacc),
        "{image:#018x} {motion:#018x}"
    );
}

/// The digits classifier of Fig. 18 at its narrowest and widest arrays,
/// trained for one epoch on a small synthetic set, pinned to its exported
/// bytes.
#[test]
fn digits_models_are_pinned() {
    use ncpu::bnn::data::digits;
    use ncpu::bnn::train::{train, TrainConfig};
    let small =
        digits::DigitsConfig { train_per_class: 4, test_per_class: 1, ..Default::default() };
    let (train_set, _) = digits::generate(&small);
    let one_epoch = TrainConfig { epochs: 1, ..TrainConfig::default() };
    let digest = |neurons| {
        let topo = Topology::paper(digits::PIXELS, neurons, digits::CLASSES);
        model_digest(&train(&topo, &train_set, &one_epoch))
    };
    let (narrow, wide) = (digest(50), digest(400));
    assert_eq!(
        (narrow, wide),
        (0x9695b6bac90fe04e, 0x44a2fd866130c9c3),
        "{narrow:#018x} {wide:#018x}"
    );
}

/// Runs `f` once under each `NCPU_THREADS` value and asserts the two
/// outputs are byte-identical, restoring whatever value the suite was
/// launched with (ci.sh runs this file under both `NCPU_THREADS=1` and
/// `NCPU_THREADS=4`).
fn thread_count_invariant<F: Fn() -> String>(a: &str, b: &str, f: F) {
    let prev = std::env::var("NCPU_THREADS").ok();
    std::env::set_var("NCPU_THREADS", a);
    let out_a = f();
    std::env::set_var("NCPU_THREADS", b);
    let out_b = f();
    match prev {
        Some(v) => std::env::set_var("NCPU_THREADS", v),
        None => std::env::remove_var("NCPU_THREADS"),
    }
    assert_eq!(out_a, out_b, "output differs between NCPU_THREADS={a} and NCPU_THREADS={b}");
}

/// Fig. 13 fans its latency sweep out through the pool; the rendered
/// figure must be byte-identical whether the pool is one worker (pure
/// serial, no threads spawned) or eight.
#[test]
fn fig13_report_is_thread_count_invariant() {
    thread_count_invariant("1", "8", || {
        ncpu_bench::experiments::run_by_id("fig13").expect("known id").to_string()
    });
}

/// The exported RUN_*.json and Chrome-trace artifacts must not depend on
/// the worker count either — pool parallelism lives strictly outside the
/// traced simulation.
#[test]
fn trace_artifacts_are_thread_count_invariant() {
    thread_count_invariant("1", "8", || {
        let uc = UseCase::motion(2, 4, 2);
        let (dual, rec) = traced_dual(&uc);
        let artifact = dual.artifact(uc.name(), &rec);
        format!(
            "{}\n{}",
            artifact.to_json(),
            ncpu::obs::chrome_trace(&rec, &dual.thread_names())
        )
    });
}

/// The metrics block of the run artifact — per-item latency, service,
/// queue-depth, and per-core utilization histograms — must be
/// byte-identical across worker counts and across the lockstep and
/// event-driven engines (the analytic path is covered by the artifact
/// test above; lockstep/event equivalence is fuzzed in
/// `engine_differential.rs`, and pinned here on a fixed workload).
#[test]
fn metrics_histograms_are_thread_count_invariant() {
    use ncpu::soc::{Engine, EventDriven, Lockstep};
    thread_count_invariant("1", "4", || {
        let uc = UseCase::motion(2, 4, 2);
        let scenario = Scenario::new(uc, SystemConfig::ncpu(2));
        let (_, ls_rec) = Lockstep.run(&scenario);
        let (_, ev_rec) = EventDriven.run(&scenario);
        let (ls, ev) = (ls_rec.metrics().to_json(), ev_rec.metrics().to_json());
        assert_eq!(ls, ev, "lockstep and event metrics must agree");
        assert!(ls.contains("item.latency_cycles"), "latency histogram missing");
        assert!(ls.contains("core.util_permille"), "utilization histogram missing");
        ls
    });
}

/// A faulted run is as reproducible as a clean one: with a seeded
/// fault plan attached, the full report, the fault counters, and the
/// recovery histograms must come out byte-identical across runs and
/// across worker counts, for every engine that simulates recovery.
#[test]
fn faulted_runs_are_byte_identical_across_thread_counts() {
    use ncpu::soc::{Analytic, Engine, EventDriven, Lockstep};
    let plan = FaultPlan {
        seed: 21,
        sram_flip_ppm: 250_000,
        dma_stall_ppm: 150_000,
        dma_stall_cycles: 48,
        dma_truncate_ppm: 150_000,
        core_hang_ppm: 80_000,
        watchdog_cycles: 20_000_000,
        max_retries: 2,
        backoff_cycles: 32,
        quarantine_after: 4,
    };
    thread_count_invariant("1", "4", || {
        let uc = UseCase::image(4, 2, 1);
        let scenario = Scenario::new(uc, SystemConfig::ncpu(4))
            .with_trace(TraceLevel::Full)
            .with_operating_point(0.9)
            .with_faults(plan);
        let (an_report, an_rec) = Analytic.run(&scenario);
        let (ls_report, ls_rec) = Lockstep.run(&scenario);
        let (ev_report, ev_rec) = EventDriven.run(&scenario);
        assert!(
            ls_rec.counters().get("fault.injected.sram_flip")
                + ls_rec.counters().get("fault.injected.dma_stall")
                + ls_rec.counters().get("fault.injected.dma_truncate")
                + ls_rec.counters().get("fault.injected.core_hang")
                > 0,
            "the plan must inject something for this test to mean anything"
        );
        format!(
            "{an_report:?}\n{}\n{}\n{ls_report:?}\n{}\n{}\n{ev_report:?}\n{}\n{}",
            an_rec.counters().to_json(),
            an_rec.metrics().to_json(),
            ls_rec.counters().to_json(),
            ls_rec.metrics().to_json(),
            ev_rec.counters().to_json(),
            ev_rec.metrics().to_json(),
        )
    });
}

/// A fleet histogram — per-scenario latency histograms merged through
/// `Pool::par_map_fold` — must come out byte-identical for any worker
/// count: the map fans out, the fold stays in scenario index order. The
/// fold also streams: at one worker the map and fold calls interleave
/// item by item, and with more workers the last scenario's map waits
/// until scenario 0 has been folded.
#[test]
fn merged_fleet_histogram_is_worker_count_invariant() {
    use ncpu::soc::{Analytic, Engine};
    use std::sync::{mpsc, Mutex};
    use std::time::Duration;
    let merged = |workers: usize| {
        let scenarios: Vec<Scenario> = (1..=3)
            .map(|cores| {
                let uc = UseCase::parametric(0.5, 4, crate_pseudo_model());
                Scenario::new(uc, SystemConfig::ncpu(cores))
            })
            .collect();
        let last = scenarios.len() - 1;
        let calls = Mutex::new(Vec::new());
        let (folded_first, first_folded) = mpsc::channel();
        let first_folded = Mutex::new(first_folded);
        let histogram = ncpu_par::Pool::with_workers(workers).par_map_fold(
            scenarios,
            |i, s| {
                if workers > 1 && i == last {
                    // A fold that waited for every output would never
                    // send this: the wait times out and the test fails.
                    first_folded
                        .lock()
                        .unwrap()
                        .recv_timeout(Duration::from_secs(30))
                        .expect("scenario 0 is folded while the last one is mapped");
                }
                let (report, _) = Analytic.run(&s);
                calls.lock().unwrap().push(format!("m{i}"));
                (i, report.metrics.get("item.latency_cycles").cloned().unwrap_or_default())
            },
            ncpu::obs::CycleHistogram::new(),
            |mut acc, (i, h)| {
                calls.lock().unwrap().push(format!("f{i}"));
                if i == 0 {
                    folded_first.send(()).expect("the map side holds the receiver");
                }
                acc.merge(&h);
                acc
            },
        );
        (histogram, calls.into_inner().unwrap())
    };
    let (serial, calls) = merged(1);
    assert!(!serial.is_empty(), "fleet histogram must observe items");
    assert_eq!(calls, ["m0", "f0", "m1", "f1", "m2", "f2"], "one worker interleaves");
    for workers in [2, 4, 8] {
        let (histogram, calls) = merged(workers);
        assert_eq!(serial.to_json(), histogram.to_json(), "workers={workers}");
        let folds: Vec<&String> = calls.iter().filter(|c| c.starts_with('f')).collect();
        assert_eq!(folds, ["f0", "f1", "f2"], "workers={workers}: folds in index order");
        let at = |call: String| calls.iter().position(|c| *c == call).expect("every call is logged");
        for i in 0..3 {
            assert!(at(format!("m{i}")) < at(format!("f{i}")), "workers={workers}: {calls:?}");
        }
    }
}

/// The soc crate's canonical deterministic pseudo model, small enough
/// for a sweep of scenarios.
fn crate_pseudo_model() -> BnnModel {
    ncpu::soc::pseudo_model(64, 10, 10)
}

/// The full fleet-service transcript — request ids, cache verdicts,
/// counters, and every report byte — must be identical whether the
/// fleet runs one worker or four. The 8-request input holds 4
/// duplicates, so this also pins that warm (cached) responses carry
/// exactly the bytes of their cold (fresh) twins at both worker counts.
#[test]
fn serve_transcripts_are_thread_count_invariant() {
    use ncpu::serve::{serve_lines, Fleet, ServeConfig};
    let input = "{\"cpu_fraction\":0.25,\"batch\":2,\"cores\":1}\n\
                 {\"cpu_fraction\":0.75,\"batch\":2,\"cores\":2}\n\
                 {\"cpu_fraction\":0.25,\"batch\":2,\"cores\":1}\n\
                 {\"workload\":\"motion\",\"batch\":2,\"train_per_class\":4,\"epochs\":2}\n\
                 {\"cpu_fraction\":0.75,\"batch\":2,\"cores\":2}\n\
                 {\"scenario\":{\"cpu_fraction\":0.25,\"batch\":2,\"cores\":1}}\n\
                 {\"workload\":\"motion\",\"batch\":2,\"train_per_class\":4,\"epochs\":2}\n\
                 {\"cpu_fraction\":0.25,\"batch\":2,\"cores\":1,\"engine\":\"lockstep\"}\n\
                 {\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n";
    let transcript = || {
        let mut fleet = Fleet::from_env(64);
        let mut out = Vec::new();
        serve_lines(&mut fleet, input.as_bytes(), &mut out, &ServeConfig::default())
            .expect("in-memory serve cannot fail");
        String::from_utf8(out).expect("responses are UTF-8")
    };
    thread_count_invariant("1", "4", transcript);

    // Cold/warm byte identity inside one transcript: requests 3, 5, 6,
    // and 8 duplicate earlier scenarios (8 via nesting, field order,
    // and an explicit engine pin inside the lockstep/event class).
    let out = transcript();
    let report = |line: &str| line.split_once("\"report\":").map(|(_, r)| r.to_string());
    let lines: Vec<&str> = out.lines().collect();
    assert!(lines[0].contains("\"cache\":\"miss\"") && lines[2].contains("\"cache\":\"hit\""));
    assert_eq!(report(lines[0]), report(lines[2]));
    assert_eq!(report(lines[1]), report(lines[4]));
    assert_eq!(report(lines[3]), report(lines[6]));
    assert_eq!(report(lines[0]), report(lines[5]));
    assert_eq!(report(lines[0]), report(lines[7]));
    assert!(lines[8].contains("\"serve.cache.hits\":5"), "stats line: {}", lines[8]);
    assert!(lines[8].contains("\"serve.cache.misses\":3"), "stats line: {}", lines[8]);
}

#[test]
fn power_model_is_pure() {
    let pm = PowerModel::default();
    let am = AreaModel::default();
    let areas = am.ncpu_core(100);
    let probe = |v: f64| {
        (
            pm.dvfs.freq_hz(v, CoreKind::NcpuBnnMode).to_bits(),
            pm.total_mw(CoreKind::NcpuBnnMode, &areas, v, 1.0).to_bits(),
        )
    };
    assert_eq!(probe(0.6), probe(0.6));
}
