//! The paper's headline claims, asserted as tests (relative quantities;
//! see EXPERIMENTS.md for the full paper-vs-measured record).

use ncpu::prelude::*;

fn pseudo_image_model(neurons: usize) -> BnnModel {
    let topo = Topology::paper(784, neurons, 10);
    let layers = (0..4)
        .map(|l| {
            let n_in = topo.layer_input(l);
            let rows: Vec<BitVec> = (0..neurons)
                .map(|j| BitVec::from_bools((0..n_in).map(|i| (i * 13 + j * 3 + l) % 5 < 2)))
                .collect();
            ncpu::bnn::BnnLayer::new(rows, vec![0; neurons])
        })
        .collect();
    BnnModel::new(topo, layers)
}

/// "a single NCPU achieves 35% area reduction" (abstract).
#[test]
fn claim_area_reduction_35pct() {
    let am = AreaModel::default();
    let saving = am.area_saving(100);
    assert!((0.32..0.40).contains(&saving), "area saving {saving} vs paper 0.357");
}

/// "13.1% core overhead … 2.7% including SRAM" (Fig. 10).
#[test]
fn claim_small_reconfiguration_overhead() {
    let am = AreaModel::default();
    assert!((am.core_logic_overhead(100) - 0.131).abs() < 0.005);
    assert!((0.01..0.05).contains(&am.total_overhead(100)));
}

/// "41.2% end-to-end improvement at 70% CPU fraction, 28.5% at 40%"
/// (Fig. 13) — the quantitative centerpiece.
#[test]
fn claim_fig13_improvements() {
    let model = pseudo_image_model(100);
    for (fraction, expect) in [(0.7, 0.412), (0.4, 0.285)] {
        let uc = UseCase::parametric(fraction, 2, model.clone());
        let base = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::Heterogeneous));
        let dual = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::ncpu(2)));
        let improvement = dual.improvement_over(&base);
        assert!(
            (improvement - expect).abs() < 0.06,
            "fraction {fraction}: {improvement} vs paper {expect}"
        );
    }
}

/// "1.6 TOPS/W at 1 V and a peak of 6.0 TOPS/W at 0.4 V" (Fig. 9).
#[test]
fn claim_tops_per_watt() {
    let pm = PowerModel::default();
    assert!((1.3..1.9).contains(&pm.bnn_tops_per_watt(1.0, 400)));
    assert!((5.0..7.0).contains(&pm.bnn_tops_per_watt(0.4, 400)));
}

/// "energy overhead at 1 V … 12.6% energy saving at 0.4 V" with a
/// crossover below 0.6 V (Fig. 12(b)).
#[test]
fn claim_energy_crossover() {
    let pm = PowerModel::default();
    let am = AreaModel::default();
    let ncpu = am.ncpu_core(100);
    let hetero = am.heterogeneous(100);
    let saving = |v: f64| {
        let e_n = (pm.dynamic_mw(CoreKind::NcpuBnnMode, v, 1.0) + pm.leakage_mw(&ncpu, v))
            / pm.dvfs.freq_hz(v, CoreKind::NcpuBnnMode);
        let e_b = (pm.dynamic_mw(CoreKind::StandaloneBnn, v, 1.0) + pm.leakage_mw(&hetero, v))
            / pm.dvfs.freq_hz(v, CoreKind::StandaloneBnn);
        1.0 - e_n / e_b
    };
    assert!(saving(1.0) < 0.0, "NCPU pays an energy overhead at nominal voltage");
    assert!(saving(0.4) > 0.08, "the area saving converts to energy saving at 0.4 V");
    assert!(saving(0.55) > saving(0.7), "saving grows as voltage drops");
}

/// "smooth switching … to realize full utilization of the cores"
/// (abstract) — and batching sustains it (Fig. 14).
#[test]
fn claim_full_utilization_across_batches() {
    let model = pseudo_image_model(50);
    for batch in [2usize, 10, 30] {
        let uc = UseCase::parametric(0.6, batch, model.clone());
        let dual = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::ncpu(2)));
        for core in &dual.cores {
            assert!(
                core.utilization(dual.makespan) > 0.95,
                "batch {batch}: {} at {:.3}",
                core.role,
                core.utilization(dual.makespan)
            );
        }
    }
}

/// Table II context: the CPU mode is a competitive 32-bit 5-stage MCU-class
/// core (DMIPS/MHz within the commercial band).
#[test]
fn claim_cpu_mode_is_mcu_class() {
    let iters = 100;
    let program = ncpu::workloads::dhrystone::program(iters);
    let mut cpu = Pipeline::new(program, FlatMem::new(2048));
    let cycles = cpu.run(50_000_000).unwrap();
    let score = ncpu::workloads::dhrystone::dmips_per_mhz(iters, cycles);
    assert!((0.25..2.5).contains(&score), "DMIPS/MHz {score} outside the Table II band");
}

/// Fig. 18 claim: the area-saving benefit shrinks as the accelerator
/// grows — the design point balances accuracy against the saving.
#[test]
fn claim_area_saving_shrinks_with_accelerator_size() {
    let am = AreaModel::default();
    let s: Vec<f64> = [50, 100, 200, 400].iter().map(|&n| am.area_saving(n)).collect();
    assert!(s.windows(2).all(|w| w[0] > w[1]), "monotone decreasing: {s:?}");
}
