//! Voltage explorer: walk the calibrated 65nm model across the paper's
//! 0.4–1.0 V operating range.
//!
//! Run with: `cargo run --release --example voltage_explorer [volts]`
//! (prints the full sweep, or the detailed picture at one voltage).

use ncpu::prelude::*;
use ncpu::soc::energy;

fn detail(v: f64) {
    let pm = PowerModel::default();
    let am = AreaModel::default();
    let areas = am.ncpu_core(100);
    println!("NCPU core at {v:.2} V:");
    for (label, kind) in
        [("CPU mode", CoreKind::NcpuCpuMode), ("BNN mode", CoreKind::NcpuBnnMode)]
    {
        let f = pm.dvfs.freq_hz(v, kind);
        println!(
            "  {label}: {:7.1} MHz, {:8.3} mW total ({:.3} dynamic + {:.3} leakage), \
             {:6.1} pJ/cycle",
            f / 1e6,
            pm.total_mw(kind, &areas, v, 1.0),
            pm.dynamic_mw(kind, v, 1.0),
            pm.leakage_mw(&areas, v),
            pm.energy_per_cycle_pj(kind, &areas, v, 1.0),
        );
    }
    println!("  BNN efficiency: {:.2} TOPS/W", pm.bnn_tops_per_watt(v, 400));
    let interval = 785u64; // 784-bit layer + sign
    let f = pm.dvfs.freq_hz(v, CoreKind::NcpuBnnMode);
    println!(
        "  image throughput: {:.0} classifications/s (1 per {interval} cycles)",
        f / interval as f64
    );

    // The same operating point threaded through a whole-SoC scenario:
    // run a small parametric batch end to end and price it at this
    // voltage via the scenario's DVFS knob.
    let model = ncpu_bench::context::pseudo_model(216, 30, 8);
    let uc = UseCase::parametric(0.3, 2, model);
    let scenario = |system| Scenario::new(uc.clone(), system).with_operating_point(v);
    let dual_scenario = scenario(SystemConfig::ncpu(2));
    let base = EventDriven.report(&scenario(SystemConfig::Heterogeneous));
    let dual = EventDriven.report(&dual_scenario);
    let volts = dual_scenario.volts();
    let (e_base, e_dual) = (
        energy::run_energy_uj(&base, &pm, &am, 30, volts),
        energy::run_energy_uj(&dual, &pm, &am, 30, volts),
    );
    println!(
        "  end-to-end 2-item batch at {volts:.2} V: heterogeneous {e_base:.3} µJ, \
         2×NCPU {e_dual:.3} µJ ({:+.1}%)",
        (e_dual / e_base - 1.0) * 100.0
    );
}

fn main() {
    if let Some(v) = std::env::args().nth(1).and_then(|a| a.parse::<f64>().ok()) {
        detail(v);
        return;
    }
    let pm = PowerModel::default();
    let am = AreaModel::default();
    let areas = am.ncpu_core(100);
    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "V", "f (MHz)", "BNN mW", "CPU mW", "CPU pJ/cyc", "TOPS/W"
    );
    for step in 0..=12 {
        let v = 0.4 + step as f64 * 0.05;
        println!(
            "{v:>5.2} {:>10.1} {:>10.2} {:>10.2} {:>12.1} {:>10.2}",
            pm.dvfs.freq_hz(v, CoreKind::NcpuBnnMode) / 1e6,
            pm.total_mw(CoreKind::NcpuBnnMode, &areas, v, 1.0),
            pm.total_mw(CoreKind::NcpuCpuMode, &areas, v, 1.0),
            pm.energy_per_cycle_pj(CoreKind::NcpuCpuMode, &areas, v, 1.0),
            pm.bnn_tops_per_watt(v, 400),
        );
    }
    println!("\n(re-run with a voltage argument for the detailed view, e.g. 0.4)");
}
