//! Engine matrix: one scenario, both engines, any core count.
//!
//! Runs the same parametric use case through the [`Lockstep`] and
//! [`EventDriven`] engines at the requested core count and prints the
//! makespans side by side. Both must produce the same report and
//! counters **byte for byte** — this example doubles as the CI smoke for
//! the event-driven scheduler at four cores:
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

    let (lockstep, ls_rec) = Lockstep.run(&scenario);
    let (event, ev_rec) = EventDriven.run(&scenario);
    // The fleet that ran (a request for 0 cores builds one).
    let cores = lockstep.cores.len();

    println!("engine matrix — {} cores, batch {}", cores, event.predictions.len());
    println!("{:<12} {:>12}  predictions", "engine", "makespan");
    for (name, report) in [("lockstep", &lockstep), ("event", &event)] {
        println!("{:<12} {:>12}  {:?}", name, report.makespan, report.predictions);
    }

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
    println!("lockstep == event at {cores} cores: ok");
}
