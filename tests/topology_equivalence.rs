//! Topology equivalence on heterogeneous fabrics: on genuinely mixed
//! fleets the twin engines stay byte-identical to each other,
//! fixed-function cores stay out of the item plan, and a deep model's
//! segments go on BNN-capable cores only. (The homogeneous default
//! is pinned by `golden_equivalence.rs`.)

use ncpu::prelude::*;
use ncpu::soc::topology::{CoreRole, CoreSpec, Topology as FleetTopology};
use ncpu::soc::{EventDriven as EventEngine, Lockstep as LockstepEngine, L2_BYTES};

use ncpu::soc::{pseudo_deep_model, pseudo_model};

/// A genuinely mixed fleet: one nominal reconfigurable core, one 0.7 V
/// reconfigurable core on its own narrow L2 bank, a fixed BNN array,
/// and a CPU-only core. Both twin engines.
fn mixed_fleet() -> FleetTopology {
    let mut specs = vec![CoreSpec::reconfigurable(); 4];
    specs[1].operating_point = Some(0.7);
    specs[1].bank = 1;
    specs[2].role = CoreRole::BnnOnly;
    specs[3].role = CoreRole::CpuOnly;
    FleetTopology::from_specs(specs, vec![3 * L2_BYTES / 4, L2_BYTES / 4])
        .expect("mixed fleet is structurally valid")
}

#[test]
fn twin_engines_stay_byte_identical_on_mixed_fleets() {
    let uc = UseCase::parametric(0.6, 6, pseudo_model(256, 16, 10));
    let scenario = Scenario::new(uc, SystemConfig::Ncpu(mixed_fleet()));
    let (ls, ls_rec) = LockstepEngine.run(&scenario);
    let (ev, ev_rec) = EventEngine.run(&scenario);
    assert_eq!(format!("{ev:?}"), format!("{ls:?}"), "twin engines diverged on the mixed fleet");
    assert_eq!(ev_rec.counters().to_json(), ls_rec.counters().to_json(), "counters diverged");
    // Roles are visible in the report, and fixed-function cores never
    // enter the item plan.
    let roles: Vec<&str> = ls.cores.iter().map(|c| c.role.as_str()).collect();
    assert_eq!(roles, ["ncpu0", "ncpu1", "bnn2", "cpu3"]);
    assert_eq!(ls.cores[2].busy_cycles, 0, "a fixed BNN array runs no items");
    assert_eq!(ls.cores[3].busy_cycles, 0, "a CPU-only core runs no items");
    assert_eq!(ls.predictions, EventEngine.report(&scenario).predictions);
}

/// The deep body maps model segments onto BNN-capable cores only:
/// a CPU-only core holds no segment, and the placement is recorded in
/// the `deep.seg*.core` counters and `seg{s}@core{c}` roles.
#[test]
fn deep_engine_places_segments_on_bnn_capable_cores_only() {
    let model = pseudo_deep_model(64, 12, 8, 8);
    let inputs: Vec<BitVec> =
        (0..6).map(|k| BitVec::from_bools((0..64).map(|i| (i * 5 + k) % 3 == 0))).collect();
    let uc = UseCase::deep(model, &inputs);

    // Homogeneous 3-core reference: three segments, seg0..seg2.
    let reference = EventEngine.report(&Scenario::new(uc.clone(), SystemConfig::ncpu(3)));

    // A 4-core fleet with one CPU-only core still has three BNN-capable
    // cores, so the pipeline shape — and every prediction — matches.
    let mut specs = vec![CoreSpec::reconfigurable(); 4];
    specs[1].role = CoreRole::BnnOnly;
    specs[3].role = CoreRole::CpuOnly;
    let topo =
        FleetTopology::from_specs(specs, vec![L2_BYTES]).expect("deep fleet is structurally valid");
    let scenario = Scenario::new(uc, SystemConfig::Ncpu(topo));
    let (report, rec) = EventEngine.run(&scenario);
    assert_eq!(report.predictions, reference.predictions);
    assert_eq!(report.makespan, reference.makespan, "placement must not shift the pipeline");
    let roles: Vec<&str> = report.cores.iter().map(|c| c.role.as_str()).collect();
    assert_eq!(roles, ["seg0@core0", "seg1@core1", "seg2@core2"]);
    assert_eq!(rec.counters().get("deep.seg0.core"), 0);
    assert_eq!(rec.counters().get("deep.seg1.core"), 1);
    assert_eq!(rec.counters().get("deep.seg2.core"), 2);
}
