//! The observability exporters, end to end: the Chrome-trace format is
//! pinned against a golden file, and a traced dual-NCPU run produces
//! artifacts that survive the in-tree well-formedness checkers while
//! reproducing the ≥99% utilization pinned in `golden_values.rs`.

use ncpu::obs::{self, EventKind, Mode, Recorder, StallCause, TraceLevel};
use ncpu::prelude::*;

/// A tiny hand-built two-core run exercising every event shape the
/// exporter emits (phases, DMA, inference, and all four instant kinds).
fn tiny_two_core_recorder() -> Recorder {
    let mut rec = Recorder::new(TraceLevel::Full);
    rec.phase(0, "cpu", 0, 10);
    rec.phase(1, "cpu", 1, 9);
    rec.phase(0, "bnn", 10, 30);
    rec.phase(1, "bnn", 9, 29);
    rec.emit(2, 2, EventKind::Dma { bytes: 64, end: 18 });
    rec.emit(0, 3, EventKind::Retire { pc: 8 });
    rec.emit(0, 11, EventKind::ModeSwitch { to: Mode::Bnn });
    rec.emit(1, 12, EventKind::Stall { cause: StallCause::LoadUse });
    rec.emit(0, 13, EventKind::L2Access { addr: 64, is_store: false });
    rec.emit(1, 14, EventKind::Inference { images: 2, end: 29 });
    rec
}

#[test]
fn chrome_trace_matches_golden_file() {
    let rec = tiny_two_core_recorder();
    let names =
        vec![(0u16, "ncpu0".to_string()), (1, "ncpu1".to_string()), (2, "dma".to_string())];
    let actual = obs::chrome_trace(&rec, &names);
    let expected = include_str!("golden/trace_tiny.json");
    assert_eq!(actual, expected, "Chrome trace format drifted from the pinned golden file");
}

#[test]
fn traced_dual_run_artifacts_validate_and_pin_utilization() {
    let model = ncpu::bnn::BnnModel::zeros(&Topology::paper(784, 100, 10));
    let uc = UseCase::parametric(0.76, 2, model);
    let (dual, rec) = EventDriven.run(
        &Scenario::new(uc.clone(), SystemConfig::ncpu(2)).with_trace(TraceLevel::Full),
    );
    let artifact = dual.artifact(uc.name(), &rec);

    let dir = std::env::temp_dir().join(format!("ncpu-obs-export-{}", std::process::id()));
    let (run_path, trace_path) =
        obs::write_artifacts_to(&dir, &artifact, &rec, &dual.thread_names())
            .expect("artifacts written");

    let run_doc = obs::json::parse(&std::fs::read_to_string(&run_path).expect("RUN file"))
        .expect("RUN json parses");
    obs::json::validate_run_artifact(&run_doc).expect("RUN artifact well-formed");
    let trace_doc = obs::json::parse(&std::fs::read_to_string(&trace_path).expect("TRACE file"))
        .expect("TRACE json parses");
    obs::json::validate_chrome_trace(&trace_doc).expect("Chrome trace well-formed");

    // Table IV's headline, visible in the artifact itself: both NCPU
    // lanes sustain ≥99% utilization at the paper's operating point.
    let cores = run_doc.get("cores").and_then(|c| c.as_arr()).expect("cores array");
    assert_eq!(cores.len(), 2);
    for core in cores {
        let util = core.get("utilization").and_then(|u| u.as_num()).expect("utilization");
        assert!(util >= 0.99, "artifact utilization {util:.4} below the pinned 0.99");
    }
    // The counter registry made it into the artifact under stable names.
    let counters = run_doc.get("counters").expect("counters object");
    for name in ["core0.retired", "core1.retired", "dma.transfers", "run.makespan_cycles"] {
        assert!(counters.get(name).is_some(), "missing counter {name}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_trace_carries_instants_for_both_cores() {
    let model = ncpu::bnn::BnnModel::zeros(&Topology::paper(784, 50, 10));
    let uc = UseCase::parametric(0.5, 4, model);
    let (_, rec) = EventDriven
        .run(&Scenario::new(uc, SystemConfig::ncpu(2)).with_trace(TraceLevel::Full));
    for core in [0u16, 1] {
        assert!(
            rec.events()
                .iter()
                .any(|e| e.core == core && matches!(e.kind, EventKind::Retire { .. })),
            "core {core} has no retire instants"
        );
        assert!(
            rec.events()
                .iter()
                .any(|e| e.core == core && matches!(e.kind, EventKind::ModeSwitch { .. })),
            "core {core} has no mode-switch instants"
        );
    }
    assert_eq!(rec.dropped(), 0, "tiny run must not hit the event capacity");
}

/// The one-pass compact writer equals the old `to_json → parse →
/// render_compact` chain on real run artifacts: every workload, the NCPU
/// engines and the baseline, counter and full tracing, clean and faulted.
#[test]
fn compact_artifacts_equal_the_parse_round_trip_across_the_grid() {
    let plan = FaultPlan {
        seed: 9,
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
    let parametric = UseCase::parametric(0.6, 4, ncpu::soc::pseudo_model(64, 20, 10));
    let use_cases = [UseCase::image(4, 2, 1), UseCase::motion(4, 2, 1), parametric];
    let engines: [(&str, &dyn Engine); 2] = [("lockstep", &Lockstep), ("event", &EventDriven)];
    let mut runs = 0;
    for uc in &use_cases {
        let systems = [
            (SystemConfig::ncpu(2), &engines[..]),
            (SystemConfig::Heterogeneous, &engines[1..]),
        ];
        for (system, engines) in systems {
            for (name, engine) in engines {
                for level in [TraceLevel::Counters, TraceLevel::Full] {
                    for faults in [FaultPlan::none(), plan] {
                        let scenario = Scenario::new(uc.clone(), system.clone())
                            .with_trace(level)
                            .with_faults(faults);
                        let (report, rec) = engine.run(&scenario);
                        let artifact = report.artifact(uc.name(), &rec);
                        let pretty = obs::json::parse(&artifact.to_json()).expect("pretty parses");
                        assert_eq!(
                            artifact.to_compact_json(),
                            obs::json::render_compact(&pretty),
                            "{} on {system:?} via {}, {level:?}, faults {}",
                            uc.name(),
                            name,
                            faults.is_active()
                        );
                        runs += 1;
                    }
                }
            }
        }
    }
    assert_eq!(runs, 3 * (2 + 1) * 2 * 2);
}
