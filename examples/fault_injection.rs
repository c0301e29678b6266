//! Deterministic fault injection, detection, and recovery, end to end.
//!
//! Attaches a seeded [`FaultPlan`] to a four-core image scenario at a
//! lowered operating point (a lower supply raises the SRAM soft-error
//! rate), runs it through the [`Lockstep`] and [`EventDriven`] engines,
//! prints the injection/detection/recovery counters side by side, and
//! asserts the two engines agree **byte for byte** — faults included. It
//! then runs the same batch under a 3,000-cycle watchdog, which aborts
//! ordinary items mid-flight, and asserts both engines' reports and
//! counters agree byte for byte there too. This example doubles as the
//! CI fault smoke:
//!
//! ```text
//! NCPU_TRACE=full NCPU_TRACE_DIR=out cargo run --release --example fault_injection
//! ```
//!
//! which also exports `RUN_fault.json`/`TRACE_fault.json` artifacts
//! carrying the fault instants for the trace checker.

use ncpu::prelude::*;
use ncpu::obs::Recorder;
use ncpu::soc::{RunReport, DROPPED_PREDICTION};

/// The counters the fault layer exports from every engine.
const FAULT_COUNTERS: [&str; 9] = [
    "fault.injected.sram_flip",
    "fault.injected.dma_stall",
    "fault.injected.dma_truncate",
    "fault.injected.core_hang",
    "fault.detected.parity",
    "fault.detected.watchdog",
    "fault.retries",
    "fault.items_dropped",
    "fault.cores_quarantined",
];

/// Prints the fault counters and makespans of both engines' runs.
fn print_counters(runs: &[(RunReport, Recorder); 2]) {
    println!("\n{:<28} {:>10} {:>10}", "counter", "lockstep", "event");
    for name in FAULT_COUNTERS {
        let [l, e] = runs.each_ref().map(|(_, rec)| rec.counters().get(name));
        println!("{name:<28} {l:>10} {e:>10}");
    }
    let [l, e] = runs.each_ref().map(|(report, _)| report.makespan);
    println!("{:<28} {l:>10} {e:>10}", "makespan");
}

fn main() {
    let cores = 4;
    let level = TraceLevel::from_env();
    println!("building image use case (batch 8, training a small classifier)…");
    let uc = UseCase::image(8, 2, 1);
    let plan = FaultPlan {
        seed: 7,
        sram_flip_ppm: 200_000,
        dma_stall_ppm: 150_000,
        dma_stall_cycles: 48,
        dma_truncate_ppm: 150_000,
        core_hang_ppm: 100_000,
        watchdog_cycles: 20_000_000,
        max_retries: 3,
        backoff_cycles: 32,
        quarantine_after: 6,
    };
    let scenario = Scenario::new(uc.clone(), SystemConfig::ncpu(cores))
        .with_trace(level)
        .with_operating_point(0.9)
        .with_faults(plan);

    let runs = [Lockstep.run(&scenario), EventDriven.run(&scenario)];

    println!(
        "\nfault plan: seed {}, {} mV, flip {} ppm, stall {} ppm, truncate {} ppm, hang {} ppm",
        plan.seed,
        scenario.millivolts(),
        plan.sram_flip_ppm,
        plan.dma_stall_ppm,
        plan.dma_truncate_ppm,
        plan.core_hang_ppm,
    );
    print_counters(&runs);
    let [(lockstep, ls_rec), (event, ev_rec)] = runs;
    let dropped = lockstep.predictions.iter().filter(|&&p| p == DROPPED_PREDICTION).count();
    println!(
        "items: {} total, {} dropped by the recovery policy",
        lockstep.predictions.len(),
        dropped
    );

    // The plan must actually exercise the fault layer…
    let injected: u64 = FAULT_COUNTERS[..4]
        .iter()
        .map(|name| ls_rec.counters().get(name))
        .sum();
    assert!(injected > 0, "the seeded plan must inject faults");
    assert!(
        ls_rec.counters().get("fault.detected.parity")
            + ls_rec.counters().get("fault.detected.watchdog")
            > 0,
        "detection must fire"
    );
    // …and the two engines must agree on every byte of it.
    assert_eq!(
        format!("{event:?}"),
        format!("{lockstep:?}"),
        "event and lockstep reports diverged under faults"
    );
    assert_eq!(
        ev_rec.counters().to_json(),
        ls_rec.counters().to_json(),
        "fault counters diverged"
    );
    assert_eq!(
        ev_rec.metrics().to_json(),
        ls_rec.metrics().to_json(),
        "recovery histograms diverged"
    );
    println!("event == lockstep under faults at {cores} cores: ok");

    if level != TraceLevel::Off {
        let artifact = event.artifact("fault", &ev_rec);
        match ncpu::obs::write_artifacts(&artifact, &ev_rec, &event.thread_names()) {
            Ok((run_path, trace_path)) => println!(
                "trace artifacts: {} and {}",
                run_path.display(),
                trace_path.display()
            ),
            Err(e) => eprintln!("failed to write trace artifacts: {e}"),
        }
    }

    // The same batch under a watchdog short enough to abort ordinary
    // items mid-flight: each engine prices the abort on its own, and
    // both must still agree on every byte.
    let short = FaultPlan { watchdog_cycles: 3_000, ..plan };
    println!("\nsame batch, {}-cycle watchdog:", short.watchdog_cycles);
    let scenario = scenario.with_faults(short);
    let runs = [Lockstep.run(&scenario), EventDriven.run(&scenario)];
    print_counters(&runs);
    let [(lockstep, ls_rec), (event, ev_rec)] = &runs;
    assert!(
        ls_rec.counters().get("fault.detected.watchdog") > 0,
        "a 3,000-cycle watchdog must abort image items"
    );
    assert_eq!(
        format!("{event:?}"),
        format!("{lockstep:?}"),
        "event and lockstep reports diverged"
    );
    assert_eq!(
        ev_rec.counters().to_json(),
        ls_rec.counters().to_json(),
        "event and lockstep counters diverged"
    );
    println!("lockstep == event under a short watchdog: ok");
}
