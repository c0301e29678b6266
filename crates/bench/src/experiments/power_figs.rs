//! Power/area experiments: Fig. 9, Fig. 10, Fig. 11, Fig. 12.

use ncpu_power::{
    instruction_energy_factor, ncpu_instruction_overhead, AreaModel, CoreKind, PowerModel,
};
use ncpu_workloads::kernels;

use crate::context::{mhz, pct, voltage_grid};
use crate::Report;

/// Fig. 9: measured power, frequency, energy and BNN efficiency vs supply
/// voltage for both operating modes.
pub fn fig09() -> Report {
    let pm = PowerModel::default();
    let am = AreaModel::default();
    let areas = am.ncpu_core(100);
    let mut lines = vec![format!(
        "{:>5} {:>10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "V", "freq", "P_bnn mW", "P_cpu mW", "E_bnn pJ/cy", "E_cpu pJ/cy", "TOPS/W"
    )];
    // One pool task per grid voltage, rows collected in grid order.
    let rows = ncpu_par::par_map_indexed(voltage_grid(), |_, v| {
        let f = pm.dvfs.freq_hz(v, CoreKind::NcpuBnnMode);
        let p_bnn = pm.total_mw(CoreKind::NcpuBnnMode, &areas, v, 1.0);
        let p_cpu = pm.total_mw(CoreKind::NcpuCpuMode, &areas, v, 1.0);
        let e_bnn = pm.energy_per_cycle_pj(CoreKind::NcpuBnnMode, &areas, v, 1.0);
        let e_cpu = pm.energy_per_cycle_pj(CoreKind::NcpuCpuMode, &areas, v, 1.0);
        let tops = pm.bnn_tops_per_watt(v, 400);
        let row = format!(
            "{v:>5.2} {:>10} {p_bnn:>12.2} {p_cpu:>12.2} {e_bnn:>12.1} {e_cpu:>12.1} {tops:>10.2}",
            mhz(f)
        );
        ((v, e_cpu), row)
    });
    let mut cpu_energy = Vec::with_capacity(rows.len());
    for ((v, e_cpu), row) in rows {
        cpu_energy.push((v, e_cpu));
        lines.push(row);
    }
    let mep = cpu_energy
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("nonempty")
        .0;
    lines.push(format!(
        "CPU-mode minimum-energy point: {mep:.2} V (paper: 0.5 V); BNN energy \
         falls monotonically to 0.4 V (paper: no MEP above malfunction)"
    ));
    lines.push(format!(
        "anchors: {} / {:.0} mW BNN @1V (paper 960 MHz / 241 mW); {:.2} TOPS/W @1V, \
         {:.2} @0.4V (paper 1.6 / 6.0)",
        mhz(pm.dvfs.freq_hz(1.0, CoreKind::StandaloneBnn)),
        pm.dynamic_mw(CoreKind::StandaloneBnn, 1.0, 1.0),
        pm.bnn_tops_per_watt(1.0, 400),
        pm.bnn_tops_per_watt(0.4, 400),
    ));
    Report { id: "fig09", title: "power/frequency/energy/efficiency vs supply voltage", lines }
}

/// Fig. 10: NCPU area overhead per neural stage and fmax degradation.
pub fn fig10() -> Report {
    let am = AreaModel::default();
    let pm = PowerModel::default();
    let o = am.ncpu_stage_overhead(100);
    let base = am.bnn_logic_mm2(100);
    let mut lines = vec!["added logic per stage (vs bare BNN core logic):".to_string()];
    for (name, mm2) in [
        ("NeuroPC", o.pc_mm2),
        ("NeuroIF", o.if_mm2),
        ("NeuroID", o.id_mm2),
        ("NeuroEX", o.ex_mm2),
        ("NeuroMEM", o.mem_mm2),
    ] {
        lines.push(format!("  {name:<9} {:>8.4} mm²  ({})", mm2, pct(mm2 / base)));
    }
    lines.push(format!(
        "core overhead {} (paper 13.1%); with SRAM {} (paper 2.7%)",
        pct(am.core_logic_overhead(100)),
        pct(am.total_overhead(100)),
    ));
    let f = |k| pm.dvfs.freq_hz(1.0, k);
    lines.push(format!(
        "fmax: BNN mode {} vs standalone {} (−4.1%); CPU mode {} (−5.2%)",
        mhz(f(CoreKind::NcpuBnnMode)),
        mhz(f(CoreKind::StandaloneBnn)),
        mhz(f(CoreKind::NcpuCpuMode)),
    ));
    Report { id: "fig10", title: "NCPU area overhead and fmax degradation", lines }
}

/// Fig. 11: power overhead of the NCPU vs the standalone cores — BNN mode,
/// MiBench-style kernels, and per-instruction breakdown.
pub fn fig11() -> Report {
    let pm = PowerModel::default();
    let mut lines = vec![format!(
        "BNN mode (MNIST inference): +{} dynamic power vs standalone accelerator (paper +5.8%)",
        pct(pm.ncpu_bnn_overhead)
    )];
    lines.push("CPU mode, per kernel (retire-mix-weighted):".to_string());
    let mut total_base = 0.0;
    let mut total_ncpu = 0.0;
    for kernel in kernels::all() {
        let (_, stats) = kernel.run();
        let (mut e_base, mut e_ncpu) = (0.0f64, 0.0f64);
        for (mnemonic, count) in stats.per_instr.iter() {
            let e = instruction_energy_factor(mnemonic) * count as f64;
            e_base += e;
            e_ncpu += e * ncpu_instruction_overhead(mnemonic);
        }
        total_base += e_base;
        total_ncpu += e_ncpu;
        lines.push(format!(
            "  {:<13} +{}",
            kernel.name,
            pct(e_ncpu / e_base - 1.0)
        ));
    }
    lines.push(format!(
        "  kernel average +{} (paper ~15%)",
        pct(total_ncpu / total_base - 1.0)
    ));
    lines.push("per-instruction overhead (paper Fig. 11(b), avg 14.7%):".to_string());
    let mut avg = 0.0;
    for chunk in ncpu_isa::Instruction::RV32I_BASE_MNEMONICS.chunks(10) {
        let row: Vec<String> = chunk
            .iter()
            .map(|m| format!("{m}:{}", pct(ncpu_instruction_overhead(m) - 1.0)))
            .collect();
        lines.push(format!("  {}", row.join(" ")));
    }
    for m in ncpu_isa::Instruction::RV32I_BASE_MNEMONICS {
        avg += ncpu_instruction_overhead(m) - 1.0;
    }
    lines.push(format!("  average +{}", pct(avg / 37.0)));
    Report { id: "fig11", title: "NCPU power overhead vs standalone cores", lines }
}

/// Fig. 12: area reduction vs the heterogeneous pair, and task energy
/// saving vs voltage (crossover near 0.6 V).
pub fn fig12() -> Report {
    let am = AreaModel::default();
    let pm = PowerModel::default();
    let bnn = am.bnn_core(100);
    let cpu = am.cpu_core();
    let hetero = am.heterogeneous(100);
    let ncpu = am.ncpu_core(100);
    let mut lines = vec!["(a) area (compute + SRAM), mm²:".to_string()];
    for (name, a) in [("BNN", bnn), ("CPU", cpu), ("CPU+BNN", hetero), ("NCPU", ncpu)] {
        lines.push(format!(
            "  {name:<8} {:>6.3} = {:.3} logic + {:.3} SRAM",
            a.total_mm2(),
            a.logic_mm2,
            a.sram_mm2
        ));
    }
    lines.push(format!(
        "  NCPU saves {} vs CPU+BNN (paper 35.7%)",
        pct(am.area_saving(100))
    ));

    lines.push("(b) MNIST-inference energy saving of NCPU vs heterogeneous:".to_string());
    // One inference occupies the array for its full latency; the baseline
    // keeps both cores powered (the idle CPU leaks).
    let cycles = 785 + 3 * 101;
    // One pool task per grid voltage, collected in grid order.
    let savings: Vec<(f64, f64)> = ncpu_par::par_map_indexed(voltage_grid(), |_, v| {
            let f_ncpu = pm.dvfs.freq_hz(v, CoreKind::NcpuBnnMode);
            let f_base = pm.dvfs.freq_hz(v, CoreKind::StandaloneBnn);
            let e_ncpu = (pm.dynamic_mw(CoreKind::NcpuBnnMode, v, 1.0)
                + pm.leakage_mw(&ncpu, v))
                / f_ncpu
                * cycles as f64;
            let e_base = (pm.dynamic_mw(CoreKind::StandaloneBnn, v, 1.0)
                + pm.leakage_mw(&hetero, v))
                / f_base
                * cycles as f64;
            (v, 1.0 - e_ncpu / e_base)
    });
    for &(v, saving) in &savings {
        lines.push(format!("  {v:.2} V: saving {:>7}", pct(saving)));
    }
    if let Some(&(v, _)) = savings.iter().find(|&&(_, s)| s <= 0.0) {
        lines.push(format!(
            "  crossover ≈ {v:.2} V (paper: −7.2% at 1 V turning into +12.6% at 0.4 V, \
             crossing near 0.6 V)"
        ));
    }
    Report { id: "fig12", title: "area reduction and energy saving vs heterogeneous", lines }
}
