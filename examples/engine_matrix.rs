//! Engine matrix: one scenario, every engine, any core count.
//!
//! Runs the same parametric use case through the [`Analytic`],
//! [`Lockstep`], and [`EventDriven`] engines at the requested core count
//! and prints the makespans side by side. The two co-simulating engines
//! must agree **exactly** — this example doubles as the CI smoke for the
//! event-driven scheduler at four cores:
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

    let analytic = Analytic.report(&scenario);
    let lockstep = Lockstep.report(&scenario);
    let event = EventDriven.report(&scenario);
    // The fleet that ran (a request for 0 cores builds one).
    let cores = lockstep.cores.len();

    println!("engine matrix — {} cores, batch {}", cores, analytic.predictions.len());
    println!("{:<12} {:>12}  predictions", "engine", "makespan");
    for (name, report) in
        [("analytic", &analytic), ("lockstep", &lockstep), ("event", &event)]
    {
        println!("{:<12} {:>12}  {:?}", name, report.makespan, report.predictions);
    }

    assert_eq!(
        event.makespan, lockstep.makespan,
        "the event-driven engine must match lock-step cycle for cycle"
    );
    assert_eq!(event.predictions, lockstep.predictions, "classification drift");
    assert_eq!(analytic.predictions, lockstep.predictions, "classification drift");
    println!("event == lockstep at {cores} cores: ok");
}
