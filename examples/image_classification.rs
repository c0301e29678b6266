//! The paper's real-time image-classification use case, end to end.
//!
//! Builds one [`Scenario`] per system — the heterogeneous CPU+accelerator
//! baseline, one NCPU, and the two-core NCPU SoC — runs them through the
//! [`EventDriven`] engine, and prints latency, utilization, and the power
//! picture.
//!
//! Run with: `cargo run --release --example image_classification [batch]`

use ncpu::prelude::*;
use ncpu::soc::energy;

fn main() {
    let batch: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4);
    let level = TraceLevel::from_env();
    println!("building image use case (batch {batch}, training a small classifier)…");
    let uc = UseCase::image(batch, 60, 25);
    let scenario = |system| {
        Scenario::new(uc.clone(), system).with_trace(level).with_operating_point(1.0)
    };

    let base = EventDriven.report(&scenario(SystemConfig::Heterogeneous));
    let single = EventDriven.report(&scenario(SystemConfig::ncpu(1)));
    let dual_scenario = scenario(SystemConfig::ncpu(2));
    let (dual, rec) = EventDriven.run(&dual_scenario);

    println!("\nclassification accuracy over the batch: {:.0}%", dual.accuracy() * 100.0);
    println!("\n{:<16} {:>12} {:>10}", "system", "cycles", "vs base");
    for r in [&base, &single, &dual] {
        println!(
            "{:<16} {:>12} {:>9.1}%",
            r.config,
            r.makespan,
            (1.0 - r.makespan as f64 / base.makespan as f64) * 100.0
        );
    }

    println!("\ncore utilization:");
    for r in [&base, &dual] {
        for core in &r.cores {
            println!("  {:<14} {:<10} {:5.1}%", r.config, core.role, core.utilization(r.makespan) * 100.0);
        }
    }

    let pm = PowerModel::default();
    let am = AreaModel::default();
    let volts = dual_scenario.volts();
    println!(
        "\nenergy at {volts} V: baseline {:.2} µJ, 2×NCPU {:.2} µJ; at matched latency \
         the 2×NCPU system saves {:.0}% by voltage scaling",
        energy::run_energy_uj(&base, &pm, &am, 100, volts),
        energy::run_energy_uj(&dual, &pm, &am, 100, volts),
        energy::equivalent_energy_saving(&dual, &base, &pm, &am, 100, volts) * 100.0
    );
    println!(
        "predictions agree across systems: {}",
        base.predictions == dual.predictions && base.predictions == single.predictions
    );

    if level != TraceLevel::Off {
        let artifact = dual.artifact(dual_scenario.usecase().name(), &rec);
        match ncpu::obs::write_artifacts(&artifact, &rec, &dual.thread_names()) {
            Ok((run_path, trace_path)) => println!(
                "\ntrace artifacts: {} and {} (open the latter in Perfetto)",
                run_path.display(),
                trace_path.display()
            ),
            Err(e) => eprintln!("failed to write trace artifacts: {e}"),
        }
    }
}
