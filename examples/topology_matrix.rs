//! Topology matrix: one mixed-role fleet, both engines.
//!
//! Builds a heterogeneous 4-core fleet — a nominal reconfigurable core
//! on a wide L2 bank, a 0.7 V reconfigurable core on a narrow bank, a
//! fixed BNN array, and a CPU-only core — and drives the same workloads
//! through the engines:
//!
//! * the [`Lockstep`] and [`EventDriven`] twins run an item batch and
//!   must agree **byte for byte** (reports and counters);
//! * the [`EventDriven`] engine runs an 8-layer model on the same fleet
//!   in series mode and must place one segment per BNN-capable core.
//!
//! This is the CI smoke for the heterogeneous fabric:
//!
//! ```text
//! cargo run --release --example topology_matrix
//! ```

use ncpu::prelude::*;
use ncpu::soc::pseudo_model;
use ncpu::soc::topology::{CoreRole, CoreSpec, Topology};
use ncpu::soc::L2_BYTES;

fn mixed_fleet() -> Topology {
    let mut specs = vec![CoreSpec::reconfigurable(); 4];
    specs[1].operating_point = Some(0.7);
    specs[1].bank = 1;
    specs[2].role = CoreRole::BnnOnly;
    specs[3].role = CoreRole::CpuOnly;
    Topology::from_specs(specs, vec![3 * L2_BYTES / 4, L2_BYTES / 4])
        .expect("mixed fleet is structurally valid")
}

fn main() {
    let uc = UseCase::parametric(0.6, 8, pseudo_model(784, 30, 10));
    println!("topology matrix — mixed 4-core fleet [{}]", mixed_fleet().label());
    println!("{:<14} {:>12}  roles", "engine", "makespan");
    let scenario = Scenario::new(uc, SystemConfig::Ncpu(mixed_fleet()));
    let (lockstep, ls_rec) = Lockstep.run(&scenario);
    let (event, ev_rec) = EventDriven.run(&scenario);
    for (name, report) in [("lockstep", &lockstep), ("event", &event)] {
        let roles: Vec<&str> = report.cores.iter().map(|c| c.role.as_str()).collect();
        println!("{:<14} {:>12}  {:?}", name, report.makespan, roles);
    }
    assert_eq!(
        format!("{event:?}"),
        format!("{lockstep:?}"),
        "the twin engines must agree byte for byte on the mixed fleet"
    );
    assert_eq!(
        ev_rec.counters().to_json(),
        ls_rec.counters().to_json(),
        "counter registries diverged"
    );
    assert_eq!(lockstep.cores[2].busy_cycles, 0, "a fixed BNN array runs no items");
    assert_eq!(lockstep.cores[3].busy_cycles, 0, "a CPU-only core runs no items");

    // A deep model on the same fleet: 3 BNN-capable cores, 3 segments.
    let model = ncpu::soc::pseudo_deep_model(64, 12, 8, 8);
    let inputs: Vec<BitVec> =
        (0..4).map(|k| BitVec::from_bools((0..64).map(|i| (i * 5 + k) % 3 == 0))).collect();
    let deep_uc = UseCase::deep(model, &inputs);
    let scenario = Scenario::new(deep_uc, SystemConfig::Ncpu(mixed_fleet()));
    let report = EventDriven.report(&scenario);
    let roles: Vec<&str> = report.cores.iter().map(|c| c.role.as_str()).collect();
    println!("{:<14} {:>12}  {:?}", "deep", report.makespan, roles);
    assert_eq!(roles, ["seg0@core0", "seg1@core1", "seg2@core2"], "segment placement");

    println!("lockstep == event on the mixed fleet, deep placed {} segments: ok", roles.len());
}
