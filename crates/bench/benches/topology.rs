//! Topology sweep: {homogeneous 4R, big.LITTLE 1R+3R@0.7V, BNN-heavy
//! 2R+2B} on end-to-end workloads, reporting area / energy / makespan
//! into `BENCH_topology.json`. Row names keep the `_static` suffix of
//! the round-robin dispatch plan so the committed baseline still lines
//! up row for row.
//!
//! Unlike the wall-clock suites, every row here is a *deterministic
//! model metric* recorded through `record_once` (cycles, nanojoules,
//! square micrometres encoded as nanoseconds), so the committed
//! baseline is host-independent and the `bench_diff` gate pins the
//! model itself rather than machine noise.
//!
//! Before any row is recorded, each (workload, topology) cell is run
//! through both twin engines and checked for report
//! equality — a release-mode heterogeneous-fleet equivalence smoke.

use std::time::Duration;

use ncpu_power::{AreaModel, PowerModel};
use ncpu_soc::energy::run_energy_uj_topo;
use ncpu_soc::topology::{CoreRole, CoreSpec, Topology};
use ncpu_soc::{
    pseudo_model, Engine, EventDriven, Lockstep, Scenario, SystemConfig, UseCase, L2_BYTES,
};
use ncpu_testkit::bench::Bench;

/// Neuron count fed to the area/power models, matching the other
/// experiment harnesses.
const NEURONS: usize = 100;

fn topologies() -> Vec<(&'static str, Topology)> {
    let homogeneous = Topology::homogeneous(4);

    // One nominal-voltage big core with its own wide L2 bank, three
    // 0.7 V littles sharing a narrow bank.
    let mut specs = vec![CoreSpec::reconfigurable(); 4];
    for spec in specs.iter_mut().skip(1) {
        spec.operating_point = Some(0.7);
        spec.bank = 1;
    }
    let biglittle = Topology::from_specs(specs, vec![3 * L2_BYTES / 4, L2_BYTES / 4])
        .expect("big.LITTLE topology is structural");

    // Two reconfigurable cores plus two fixed BNN arrays (idle in item
    // engines: area/leakage only).
    let mut specs = vec![CoreSpec::reconfigurable(); 4];
    specs[2].role = CoreRole::BnnOnly;
    specs[3].role = CoreRole::BnnOnly;
    let bnnheavy =
        Topology::from_specs(specs, vec![L2_BYTES]).expect("BNN-heavy topology is structural");

    vec![("homogeneous_4r", homogeneous), ("biglittle_1p3", biglittle), ("bnnheavy_2p2", bnnheavy)]
}

fn fleet_area_mm2(am: &AreaModel, topo: &Topology) -> f64 {
    topo.specs()
        .iter()
        .map(|spec| match spec.role {
            CoreRole::Reconfigurable => am.ncpu_core(NEURONS).total_mm2(),
            CoreRole::BnnOnly => am.bnn_core(NEURONS).total_mm2(),
            CoreRole::CpuOnly => am.cpu_core().total_mm2(),
        })
        .sum()
}

fn main() {
    let mut bench = Bench::new("topology");
    let pm = PowerModel::default();
    let am = AreaModel::default();
    let workloads: Vec<(&str, UseCase)> = vec![
        ("parametric_b48", UseCase::parametric(0.6, 48, pseudo_model(256, 20, 10))),
        ("image_b8", UseCase::image(8, 2, 1)),
    ];

    // (workload, topology) -> (makespan, energy_uj)
    let mut cells: Vec<(String, u64, f64)> = Vec::new();
    for (wl, uc) in &workloads {
        for (tname, topo) in topologies() {
            let scenario = Scenario::new(uc.clone(), SystemConfig::Ncpu(topo.clone()));

            // Twin-engine equivalence gate on the heterogeneous fleet
            // before anything is recorded.
            let lockstep = Lockstep.report(&scenario);
            let event = EventDriven.report(&scenario);
            assert_eq!(
                format!("{event:?}"),
                format!("{lockstep:?}"),
                "{wl}/{tname}: engines diverged on a heterogeneous fleet"
            );

            let cell = format!("{wl}/{tname}_static");
            let energy_uj = run_energy_uj_topo(&event, &pm, &am, NEURONS, 1.0, &topo);
            bench.record_once(
                &format!("{cell}/makespan_cycles"),
                Duration::from_nanos(event.makespan),
            );
            bench.record_once(
                &format!("{cell}/energy_nj"),
                Duration::from_nanos((energy_uj * 1.0e3).round() as u64),
            );
            bench.record_once(
                &format!("{cell}/area_um2"),
                Duration::from_nanos((fleet_area_mm2(&am, &topo) * 1.0e6).round() as u64),
            );
            println!(
                "{cell}: makespan {} cycles, energy {energy_uj:.1} uJ, area {:.2} mm2 [{}]",
                event.makespan,
                fleet_area_mm2(&am, &topo),
                topo.label()
            );
            cells.push((cell, event.makespan, energy_uj));
        }
    }
    bench.finish();

    // The crossover this artifact exists to document: for each
    // workload, the 1+3 big.LITTLE fleet (round-robin dispatched, so the
    // plan — and therefore the cycle makespan — is identical to the
    // homogeneous fleet's) runs at strictly lower energy because three
    // cores integrate at 0.7 V.
    let find = |name: &str| {
        cells.iter().find(|(n, _, _)| n == name).unwrap_or_else(|| panic!("row {name} missing"))
    };
    let mut crossed = false;
    for (wl, _) in &workloads {
        let homog = find(&format!("{wl}/homogeneous_4r_static"));
        let bl = find(&format!("{wl}/biglittle_1p3_static"));
        assert_eq!(
            bl.1, homog.1,
            "{wl}: big.LITTLE must match the homogeneous plan cycle-for-cycle"
        );
        if bl.2 < homog.2 {
            println!(
                "{wl}: big.LITTLE crossover — same {} cycle makespan at {:.1} uJ vs {:.1} uJ \
                 homogeneous ({:.0}% energy saving)",
                homog.1,
                bl.2,
                homog.2,
                100.0 * (1.0 - bl.2 / homog.2)
            );
            crossed = true;
        }
    }
    assert!(crossed, "no mixed topology beat homogeneous on energy or makespan");
}
