//! Golden equivalence: the Scenario/Engine refactor must reproduce the
//! pre-refactor `RunReport`s **exactly** for the paper's configurations.
//!
//! Every number below was captured by running the seed (pre-`fabric`)
//! code on these exact inputs. Unlike `golden_values.rs` (banded paper
//! numbers), these are byte-identity pins: the refactored engines share
//! one fabric, and sharing must not shift a single cycle. If a future
//! change moves one of these on purpose (e.g. a scheduler fix), update
//! the pins in the same commit with a note on why.

use ncpu::prelude::*;
use ncpu::soc::RunReport;

/// The soc crate's internal deterministic test model, replicated: 4
/// hidden layers of `neurons`, weights `(i*7 + j*3 + l) % 5 < 2`, biases
/// `(j % 3) - 1`.
fn pseudo_model(input: usize, neurons: usize, classes: usize) -> BnnModel {
    let topo = Topology::new(input, vec![neurons; 4], classes);
    let layers = (0..4)
        .map(|l| {
            let n_in = topo.layer_input(l);
            let rows: Vec<BitVec> = (0..neurons)
                .map(|j| BitVec::from_bools((0..n_in).map(|i| (i * 7 + j * 3 + l) % 5 < 2)))
                .collect();
            let bias = (0..neurons).map(|j| (j as i32 % 3) - 1).collect();
            ncpu::bnn::BnnLayer::new(rows, bias)
        })
        .collect();
    BnnModel::new(topo, layers)
}

fn check(report: &RunReport, makespan: u64, predictions: &[usize], busy: &[u64]) {
    assert_eq!(report.makespan, makespan, "{}: makespan", report.config);
    assert_eq!(report.predictions, predictions, "{}: predictions", report.config);
    let got: Vec<u64> = report.cores.iter().map(|c| c.busy_cycles).collect();
    assert_eq!(got, busy, "{}: per-core busy cycles", report.config);
}

#[test]
fn analytic_engine_reproduces_pre_refactor_parametric_reports() {
    let model = pseudo_model(784, 100, 10);
    // (fraction, het, ncpu1, ncpu2) — makespans captured from the seed.
    let table = [
        (0.7, (6180, [5052, 2176]), 7266, 3633),
        (0.76, (8004, [6876, 2176]), 9090, 4545),
    ];
    for (fraction, (het_makespan, het_busy), n1, n2) in table {
        let uc = UseCase::parametric(fraction, 2, model.clone());
        let het = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::Heterogeneous));
        check(&het, het_makespan, &[2, 2], &het_busy);
        let one = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::ncpu(1)));
        check(&one, n1, &[2, 2], &[n1]);
        let two = EventDriven.report(&Scenario::new(uc, SystemConfig::ncpu(2)));
        check(&two, n2, &[2, 2], &[n2, n2]);
        assert_eq!(
            fraction == 0.7,
            (two.improvement_over(&het) - 0.412).abs() < 0.01,
            "paper Fig. 13 band"
        );
    }
}

#[test]
fn analytic_engine_reproduces_pre_refactor_motion_report() {
    let uc = UseCase::motion(2, 4, 2);
    let het = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::Heterogeneous));
    check(&het, 43866, &[3, 2], &[42502, 1040]);
    let two = EventDriven.report(&Scenario::new(uc, SystemConfig::ncpu(2)));
    check(&two, 22591, &[3, 2], &[21791, 21791]);
}

#[test]
fn lockstep_engine_reproduces_pre_refactor_cosim_report() {
    let uc = UseCase::parametric(0.6, 4, pseudo_model(784, 30, 10));
    let scenario = Scenario::new(uc, SystemConfig::ncpu(2));
    let (report, rec) = Lockstep.run(&scenario);
    check(&report, 4414, &[2, 2, 2, 2], &[4414, 4414]);
    assert_eq!(report.config, "2x ncpu");
    assert_eq!(rec.counters().get("soc.l2_conflict_cycles"), 2, "arbitration conflicts");
}

/// The event-driven engine is pinned to the *same* pre-refactor goldens
/// as the lock-step engine: jumping between events and replaying
/// steady-state items must not shift a single cycle.
#[test]
fn event_engine_reproduces_pre_refactor_cosim_report() {
    let uc = UseCase::parametric(0.6, 4, pseudo_model(784, 30, 10));
    let scenario = Scenario::new(uc, SystemConfig::ncpu(2));
    let (report, rec) = EventDriven.run(&scenario);
    check(&report, 4414, &[2, 2, 2, 2], &[4414, 4414]);
    assert_eq!(report.config, "2x ncpu");
    assert_eq!(rec.counters().get("soc.l2_conflict_cycles"), 2, "arbitration conflicts");
}

/// `R+R@0.7V+R` over asymmetric L2 banks: core 1 is undervolted and
/// alone on a narrow bank.
fn mixed_static_fleet() -> ncpu::soc::topology::Topology {
    use ncpu::soc::topology::{CoreSpec, Topology as Fleet};
    let mut specs = vec![CoreSpec::reconfigurable(); 3];
    specs[1].operating_point = Some(0.7);
    specs[1].bank = 1;
    let l2 = ncpu::soc::L2_BYTES;
    Fleet::from_specs(specs, vec![3 * l2 / 4, l2 / 4]).expect("mixed fleet is structural")
}

/// FNV-1a of `text`'s bytes.
fn fnv(text: &str) -> u64 {
    ncpu::soc::fnv1a_64(text.as_bytes())
}

/// Pins a full EventDriven run: the report fields of [`check`] plus FNV-1a
/// hashes of the counter registry's and the metrics block's JSON.
fn check_event_run(
    scenario: &Scenario,
    makespan: u64,
    predictions: &[usize],
    busy: &[u64],
    (counters, metrics): (u64, u64),
) {
    let (report, rec) = EventDriven.run(scenario);
    check(&report, makespan, predictions, busy);
    let tag = &report.config;
    assert_eq!(fnv(&rec.counters().to_json()), counters, "{tag}: counter registry drifted");
    assert_eq!(fnv(&rec.metrics().to_json()), metrics, "{tag}: metrics block drifted");
}

/// The fast scheduler on a mixed static fleet and under an active fault
/// plan. Captured from the tree that still had a separate fault-free
/// analytic loop, so the single loop must reproduce both. Since NCPU
/// fleets run on the event clock, the counter registries carry its
/// `"soc.l2_conflict_cycles":0`; removing that one key gives back the
/// bytes the earlier pins hashed.
#[test]
fn analytic_engine_reproduces_mixed_fleet_and_faulted_reports() {
    let fleet = mixed_static_fleet();
    assert_eq!(fleet.label(), "R+R@0.7V+R");
    let image = Scenario::new(UseCase::image(13, 2, 1), SystemConfig::Ncpu(fleet.clone()));
    check_event_run(
        &image,
        605_480,
        &[7, 7, 6, 6, 8, 1, 7, 7, 3, 5, 7, 3, 5],
        &[593_640, 474_912, 474_912],
        (0x05c5_f184_7c49_337c, 0x0d11_f2ba_736d_3122),
    );
    let motion = Scenario::new(UseCase::motion(13, 4, 2), SystemConfig::Ncpu(fleet));
    check_event_run(
        &motion,
        110_955,
        &[3, 2, 0, 2, 2, 0, 3, 1, 2, 5, 2, 2, 1],
        &[108_955, 87_164, 87_164],
        (0xaf7e_956a_b13e_b461, 0x3b51_a09b_5b73_7e4c),
    );
    let plan = FaultPlan {
        seed: 21,
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
    let faulted = Scenario::new(UseCase::image(4, 2, 1), SystemConfig::ncpu(4))
        .with_operating_point(0.9)
        .with_faults(plan);
    check_event_run(
        &faulted,
        135_480,
        &[ncpu::soc::DROPPED_PREDICTION, 7, 6, 6],
        &[0, 118_728, 118_728, 118_728],
        (0xaa6a_b342_598f_e099, 0x97aa_a6fc_066c_e0f9),
    );
}

/// FNV-1a hashes of a run's counter registry, metrics block, and raw
/// span and instant streams.
fn recorder_fnvs(rec: &ncpu::obs::Recorder) -> [u64; 3] {
    [
        fnv(&rec.counters().to_json()),
        fnv(&rec.metrics().to_json()),
        fnv(&format!("{:?}{:?}", rec.spans(), rec.events())),
    ]
}

/// The deep modes' staging prologue under two active fault plans, on
/// one core (rollback) and two (series): flips, truncations and stalls
/// with retries and drops, and a hang plan whose `quarantine_after` the
/// deep body must ignore (every core holds a resident segment, so
/// there is nowhere to re-schedule to). Captured before the prologue
/// moved onto the shared fault-recovery path.
#[test]
fn deep_engine_reproduces_faulted_prologue_reports() {
    let model = ncpu::soc::pseudo_deep_model(64, 12, 8, 8);
    let inputs: Vec<BitVec> =
        (0..8).map(|k| BitVec::from_bools((0..64).map(|i| (i * 5 + k) % 3 == 0))).collect();
    let uc = UseCase::deep(model, &inputs);
    let mixed = FaultPlan {
        seed: 9,
        sram_flip_ppm: 300_000,
        dma_stall_ppm: 200_000,
        dma_stall_cycles: 48,
        dma_truncate_ppm: 200_000,
        core_hang_ppm: 0,
        watchdog_cycles: 0,
        max_retries: 1,
        backoff_cycles: 32,
        quarantine_after: 0,
    };
    let hang = FaultPlan {
        seed: 4,
        sram_flip_ppm: 0,
        dma_stall_ppm: 0,
        dma_stall_cycles: 0,
        dma_truncate_ppm: 0,
        core_hang_ppm: 400_000,
        watchdog_cycles: 5_000,
        max_retries: 2,
        backoff_cycles: 16,
        quarantine_after: 1,
    };
    let d = ncpu::soc::DROPPED_PREDICTION;
    let mixed_predictions = [d, 2, d, d, 2, d, 2, 2];
    // `(plan, cores, makespan, predictions, [counters, metrics, events])`.
    let pins = [
        (mixed, 1, 555, mixed_predictions, [
            0x98ae_0bc7_39f4_b923,
            0xcfbd_79db_b2f7_cb91,
            0x7398_d33e_4da5_41e8,
        ]),
        (mixed, 2, 416, mixed_predictions, [
            0xf281_50fe_505e_c0ad,
            0x521e_a657_3ca0_1a30,
            0x5465_7f6d_e85e_3c8c,
        ]),
        (hang, 1, 5874, [2; 8], [
            0x083e_cc7f_c4d0_0597,
            0x390c_d390_f71e_bba7,
            0x4805_c5b4_1d15_ef53,
        ]),
        (hang, 2, 5579, [2; 8], [
            0x1d09_30d0_0393_be32,
            0x4c86_3151_7f30_c0aa,
            0xa5ed_cd44_7f51_602b,
        ]),
    ];
    for (plan, cores, makespan, predictions, fnvs) in pins {
        let scenario = Scenario::new(uc.clone(), SystemConfig::ncpu(cores))
            .with_trace(TraceLevel::Full)
            .with_operating_point(0.9)
            .with_faults(plan);
        let (report, rec) = EventDriven.run(&scenario);
        let tag = format!("seed {} on {cores} core(s)", plan.seed);
        assert_eq!(report.makespan, makespan, "{tag}: makespan");
        assert_eq!(report.predictions, predictions, "{tag}: predictions");
        assert_eq!(recorder_fnvs(&rec), fnvs, "{tag}: counters, metrics, events");
    }
}
