//! Engine matrix: one scenario, every engine, any core count.
//!
//! Runs the same parametric use case through the [`Analytic`],
//! [`Lockstep`], and [`EventDriven`] engines at the requested core count
//! and prints the makespans side by side. All three must produce the
//! same report and counters **byte for byte** — this example doubles as
//! the CI smoke for the event-driven scheduler at four cores:
//!
//! ```text
//! cargo run --release --example engine_matrix 4
//! ```

use ncpu::prelude::*;
use ncpu::soc::pseudo_model;

fn main() {
    let requested: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4);
    let uc = UseCase::parametric(0.6, 2 * requested.max(1), pseudo_model(784, 30, 10));
    let scenario = Scenario::new(uc, SystemConfig::ncpu(requested));

    let (analytic, an_rec) = Analytic.run(&scenario);
    let (lockstep, ls_rec) = Lockstep.run(&scenario);
    let (event, ev_rec) = EventDriven.run(&scenario);
    // The fleet that ran (a request for 0 cores builds one).
    let cores = lockstep.cores.len();

    println!("engine matrix — {} cores, batch {}", cores, analytic.predictions.len());
    println!("{:<12} {:>12}  predictions", "engine", "makespan");
    for (name, report) in
        [("analytic", &analytic), ("lockstep", &lockstep), ("event", &event)]
    {
        println!("{:<12} {:>12}  {:?}", name, report.makespan, report.predictions);
    }

    let reference = format!("{lockstep:?}");
    for (name, report, rec) in [("analytic", &analytic, &an_rec), ("event", &event, &ev_rec)] {
        assert_eq!(format!("{report:?}"), reference, "{name} and lockstep reports diverged");
        assert_eq!(
            rec.counters().to_json(),
            ls_rec.counters().to_json(),
            "{name} and lockstep counters diverged"
        );
    }
    println!("analytic == lockstep == event at {cores} cores: ok");
}
