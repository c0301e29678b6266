//! Topology equivalence: the heterogeneous-fabric refactor must be
//! invisible until asked for.
//!
//! * An explicit `Topology::homogeneous(n)` is **byte-identical** to
//!   leaving the topology unset — same `RunReport`, same counter
//!   registry, same `ncpu-scenario-v2` cache key — across the analytic,
//!   lock-step, and event-driven engines (a seeded property, not one
//!   example).
//! * The pre-refactor golden cosim pins (`golden_equivalence.rs`) hold
//!   under an explicit default topology too.
//! * On genuinely mixed fleets the twin engines stay byte-identical to
//!   each other, fixed-function cores stay out of the item plan, and
//!   the deep engine places segments on BNN-capable cores only.

use ncpu::prelude::*;
use ncpu::soc::topology::{CoreRole, CoreSpec, Topology as FleetTopology};
use ncpu::soc::{Deep, EventDriven as EventEngine, Lockstep as LockstepEngine, RunReport, L2_BYTES};
use ncpu_testkit::prop::Prop;
use ncpu_testkit::prop_assert_eq;

use ncpu::soc::{pseudo_deep_model, pseudo_model};

/// (fraction %, batch, wide input?, core selector, op selector, full trace?)
type Draw = (u8, u8, bool, u8, u8, bool);

fn scenario_from(draw: &Draw, topology: Option<FleetTopology>) -> Scenario {
    let &(frac, batch, wide, cores_sel, op_sel, full_trace) = draw;
    let cores = [1usize, 2, 4][cores_sel as usize % 3];
    let input = if wide { 256 } else { 64 };
    let uc = UseCase::parametric(
        f64::from(5 + u32::from(frac) % 81) / 100.0,
        1 + batch as usize % 4,
        pseudo_model(input, 12, 10),
    );
    let mut scenario = Scenario::new(uc, SystemConfig::Ncpu { cores })
        .with_trace(if full_trace { TraceLevel::Full } else { TraceLevel::Counters });
    if op_sel % 4 != 0 {
        scenario = scenario.with_operating_point(0.6 + f64::from(op_sel % 4) / 10.0);
    }
    if let Some(topo) = topology {
        scenario = scenario.with_topology(topo);
    }
    scenario
}

/// An explicit homogeneous default must not move a byte anywhere: not
/// in the reports, not in the counter registries, not in the v2 cache
/// key — for every engine that can run the scenario.
#[test]
fn explicit_homogeneous_topology_is_byte_identical_to_the_default() {
    Prop::new("explicit_homogeneous_topology_is_byte_identical_to_the_default").cases(48).run(
        |rng| {
            (
                rng.gen_range(0..=255u32) as u8,
                rng.gen_range(0..=255u32) as u8,
                rng.gen_bool(0.5),
                rng.gen_range(0..=255u32) as u8,
                rng.gen_range(0..=255u32) as u8,
                rng.gen_bool(0.5),
            )
        },
        |draw| {
            let unset = scenario_from(draw, None);
            let cores = [1usize, 2, 4][draw.3 as usize % 3];
            let explicit = scenario_from(draw, Some(FleetTopology::homogeneous(cores)));
            prop_assert_eq!(unset.cache_key(), explicit.cache_key(), "v2 cache key moved");
            for engine in [
                &Analytic as &dyn Engine,
                &LockstepEngine as &dyn Engine,
                &EventEngine as &dyn Engine,
            ] {
                let (r0, rec0) = engine.run(&unset);
                let (r1, rec1) = engine.run(&explicit);
                prop_assert_eq!(
                    format!("{r1:?}"),
                    format!("{r0:?}"),
                    "{}: RunReport moved",
                    engine.name()
                );
                prop_assert_eq!(
                    rec1.counters().to_json(),
                    rec0.counters().to_json(),
                    "{}: counters moved",
                    engine.name()
                );
            }
            Ok(())
        },
    );
}

/// The `golden_equivalence.rs` cosim pins, replayed with the topology
/// spelled out: the refactor's default path is the historical path.
#[test]
fn golden_cosim_pins_hold_under_an_explicit_default_topology() {
    let uc = UseCase::parametric(0.6, 4, pseudo_model(784, 30, 10));
    let scenario = Scenario::new(uc, SystemConfig::Ncpu { cores: 2 })
        .with_topology(FleetTopology::homogeneous(2));
    for (report, rec, config) in [
        {
            let (r, rec) = LockstepEngine.run(&scenario);
            (r, rec, "2x ncpu (lockstep)")
        },
        {
            let (r, rec) = EventEngine.run(&scenario);
            (r, rec, "2x ncpu (event)")
        },
    ] {
        assert_eq!(report.makespan, 4414, "{config}: golden makespan");
        assert_eq!(report.predictions, [2, 2, 2, 2], "{config}: golden predictions");
        let busy: Vec<u64> = report.cores.iter().map(|c| c.busy_cycles).collect();
        assert_eq!(busy, [4414, 4414], "{config}: golden busy cycles");
        assert_eq!(report.config, config);
        assert_eq!(rec.counters().get("soc.l2_conflict_cycles"), 2, "{config}: conflicts");
    }
}

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

fn normalized(report: &RunReport, tag: &str) -> String {
    assert!(report.config.ends_with(tag), "{} should end with {tag}", report.config);
    format!("{report:?}").replace(tag, "(engine)")
}

#[test]
fn twin_engines_stay_byte_identical_on_mixed_fleets() {
    let uc = UseCase::parametric(0.6, 6, pseudo_model(256, 16, 10));
    let scenario =
        Scenario::new(uc, SystemConfig::Ncpu { cores: 4 }).with_topology(mixed_fleet());
    let (ls, ls_rec) = LockstepEngine.run(&scenario);
    let (ev, ev_rec) = EventEngine.run(&scenario);
    assert_eq!(
        normalized(&ev, "(event)"),
        normalized(&ls, "(lockstep)"),
        "twin engines diverged on the mixed fleet"
    );
    assert_eq!(ev_rec.counters().to_json(), ls_rec.counters().to_json(), "counters diverged");
    // Roles are visible in the report, and fixed-function cores never
    // enter the item plan.
    let roles: Vec<&str> = ls.cores.iter().map(|c| c.role.as_str()).collect();
    assert_eq!(roles, ["ncpu0", "ncpu1", "bnn2", "cpu3"]);
    assert_eq!(ls.cores[2].busy_cycles, 0, "a fixed BNN array runs no items");
    assert_eq!(ls.cores[3].busy_cycles, 0, "a CPU-only core runs no items");
    assert_eq!(ls.predictions, EventEngine.report(&scenario).predictions);
}

/// The deep engine maps model segments onto BNN-capable cores only:
/// a CPU-only core holds no segment, and the placement is recorded in
/// the `deep.seg*.core` counters and `seg{s}@core{c}` roles.
#[test]
fn deep_engine_places_segments_on_bnn_capable_cores_only() {
    let model = pseudo_deep_model(64, 12, 8, 8);
    let inputs: Vec<BitVec> =
        (0..6).map(|k| BitVec::from_bools((0..64).map(|i| (i * 5 + k) % 3 == 0))).collect();
    let uc = UseCase::deep(model, &inputs);

    // Homogeneous 3-core reference: three segments, seg0..seg2.
    let reference = Deep.report(
        &Scenario::new(uc.clone(), SystemConfig::Ncpu { cores: 3 }),
    );

    // A 4-core fleet with one CPU-only core still has three BNN-capable
    // cores, so the pipeline shape — and every prediction — matches.
    let mut specs = vec![CoreSpec::reconfigurable(); 4];
    specs[1].role = CoreRole::BnnOnly;
    specs[3].role = CoreRole::CpuOnly;
    let topo =
        FleetTopology::from_specs(specs, vec![L2_BYTES]).expect("deep fleet is structurally valid");
    let scenario =
        Scenario::new(uc, SystemConfig::Ncpu { cores: 4 }).with_topology(topo);
    let (report, rec) = Deep.run(&scenario);
    assert_eq!(report.predictions, reference.predictions);
    assert_eq!(report.makespan, reference.makespan, "placement must not shift the pipeline");
    let roles: Vec<&str> = report.cores.iter().map(|c| c.role.as_str()).collect();
    assert_eq!(roles, ["seg0@core0", "seg1@core1", "seg2@core2"]);
    assert_eq!(rec.counters().get("deep.seg0.core"), 0);
    assert_eq!(rec.counters().get("deep.seg1.core"), 1);
    assert_eq!(rec.counters().get("deep.seg2.core"), 2);
}
