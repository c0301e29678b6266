//! Tables I–III.

use ncpu_accel::{AccelConfig, Accelerator};
use ncpu_bnn::data::motion;
use ncpu_pipeline::{FlatMem, Pipeline};
use ncpu_power::{AreaModel, CoreKind, PowerModel};
use ncpu_soc::energy::task_energy_uj;
use ncpu_soc::{Engine, EventDriven, Scenario, SystemConfig, UseCase};
use ncpu_workloads::{dhrystone, motion as motion_prog, softbnn, Tail};
use ncpu_testkit::rng::Rng;

use crate::context::{digits_datasets, mhz, pct, trained_digits, trained_motion};
use crate::Report;

/// Table I: one motion detection with the 5 ms real-time deadline —
/// standalone CPU vs CPU + BNN accelerator, at 0.4 V.
pub fn table1() -> Report {
    let (model, acc) = trained_motion();
    let mut rng = Rng::seed_from_u64(55);
    let window = motion::generate_window(3, motion::MotionConfig::default().noise, &mut rng);

    // Feature extraction on the CPU (common to both systems).
    let layout = motion_prog::MotionLayout::default();
    let fe_program = motion_prog::feature_program(&layout, layout.pack, Tail::Halt);
    let mut cpu = Pipeline::new(fe_program, FlatMem::new(4096));
    cpu.mem_mut().local_mut()[..motion_prog::STAGE_BYTES]
        .copy_from_slice(&motion_prog::stage_bytes(&window));
    let feature_cycles = cpu.run(100_000_000).expect("feature extraction");
    let input = motion::window_to_input(&window);

    // Standalone CPU: software BNN inference.
    let soft = softbnn::build(&model);
    let mut cpu2 = Pipeline::new(soft.program.clone(), FlatMem::new(32 * 1024));
    cpu2.mem_mut().local_mut()[..soft.data.len()].copy_from_slice(&soft.data);
    let staged = softbnn::stage_input(&input);
    let at = soft.layout.input as usize;
    cpu2.mem_mut().local_mut()[at..at + staged.len()].copy_from_slice(&staged);
    let soft_cycles = cpu2.run(500_000_000).expect("software BNN");
    let cpu_only_cycles = feature_cycles + soft_cycles;

    // CPU + accelerator.
    let mut accel = Accelerator::new(model.clone(), AccelConfig::default());
    let (_, accel_cycles) = accel.infer(&input);
    let hetero_cycles = feature_cycles + accel_cycles;

    let pm = PowerModel::default();
    let am = AreaModel::default();
    let v = 0.4;
    let f = pm.dvfs.freq_hz(v, CoreKind::StandaloneCpu);
    let ms = |cycles: u64| cycles as f64 / f * 1.0e3;

    let cpu_area = am.cpu_core();
    let both = am.heterogeneous(100);
    let e_cpu_only = task_energy_uj(&pm, CoreKind::StandaloneCpu, &cpu_area, cpu_only_cycles, v);
    // Heterogeneous: CPU active during features, accelerator during
    // inference; both cores leak throughout.
    let e_hetero = task_energy_uj(&pm, CoreKind::StandaloneCpu, &both, feature_cycles, v)
        + task_energy_uj(&pm, CoreKind::StandaloneBnn, &both, accel_cycles, v);

    let lines = vec![
        format!("motion classifier accuracy: {} (paper 74%)", pct(acc)),
        format!("operating point: {v} V, {}", mhz(f)),
        format!(
            "standalone CPU : {:>9} cycles = {:>7.2} ms, {:>7.2} µJ  {}",
            cpu_only_cycles,
            ms(cpu_only_cycles),
            e_cpu_only,
            if ms(cpu_only_cycles) > 5.0 { "(misses 5 ms deadline)" } else { "" }
        ),
        format!(
            "CPU w/ BNN acc.: {:>9} cycles = {:>7.2} ms, {:>7.2} µJ  {}",
            hetero_cycles,
            ms(hetero_cycles),
            e_hetero,
            if ms(hetero_cycles) <= 5.0 { "(meets 5 ms deadline)" } else { "" }
        ),
        format!(
            "speedup {:.0}× (paper 59×), energy reduction {:.0}× (paper 36×)",
            cpu_only_cycles as f64 / hetero_cycles as f64,
            e_cpu_only / e_hetero
        ),
    ];
    Report { id: "table1", title: "motion detection vs the 5 ms real-time budget", lines }
}

/// Table II: CPU mode vs commercial microcontrollers.
pub fn table2() -> Report {
    let iters = 500u32;
    let program = dhrystone::program(iters);
    let mut cpu = Pipeline::new(program, FlatMem::new(2048));
    let cycles = cpu.run(100_000_000).expect("dhrystone");
    let score = dhrystone::dmips_per_mhz(iters, cycles);
    let ipc = cpu.stats().ipc();

    let pm = PowerModel::default();
    let am = AreaModel::default();
    let areas = am.ncpu_core(100);
    let f04 = pm.dvfs.freq_hz(0.4, CoreKind::NcpuCpuMode);
    let f1 = pm.dvfs.freq_hz(1.0, CoreKind::NcpuCpuMode);
    let p04 = pm.total_mw(CoreKind::NcpuCpuMode, &areas, 0.4, 1.0);
    let p1 = pm.total_mw(CoreKind::NcpuCpuMode, &areas, 1.0, 1.0);
    let dmips_04 = score * f04 / 1.0e6;

    let mut lines = vec![format!(
        "{:<22} {:>9} {:>7} {:>11} {:>12} {:>14} {:>14}",
        "core", "datapath", "stages", "voltage", "freq (MHz)", "DMIPS/MHz", "DMIPS/mW"
    )];
    // Datasheet rows the paper cites (Table II).
    for (name, dp, st, v, f, d, e) in [
        ("Microchip PIC18 [53]", "8b", 2, "3", 64.0, 0.25, 0.43),
        ("TI MSP432 [54]", "32b", 3, "3", 48.0, 1.22, 2.57),
        ("Microchip SAMA5 [55]", "32b", 8, "1.26", 600.0, 1.57, 4.11),
        ("SiFive E31 [56]", "32b", 5, "1", 250.0, 1.61, 2.68),
    ] {
        lines.push(format!(
            "{name:<22} {dp:>9} {st:>7} {v:>11} {f:>12.0} {d:>14.2} {e:>14.2}"
        ));
    }
    lines.push(format!(
        "{:<22} {:>9} {:>7} {:>11} {:>12.1} {:>14.2} {:>14.2}",
        "NCPU (this repro)",
        "32b",
        5,
        "0.4-1",
        f04 / 1.0e6,
        score,
        dmips_04 / p04
    ));
    lines.push(format!(
        "measured: {cycles} cycles / {iters} iterations, IPC {ipc:.2}; \
         {:.1}-{:.0} MHz and {p04:.2}-{p1:.0} mW across 0.4-1 V \
         (paper: 0.86 DMIPS/MHz, 8.26 DMIPS/mW)",
        f04 / 1.0e6,
        f1 / 1.0e6
    ));
    Report { id: "table2", title: "CPU mode vs commercial microcontrollers", lines }
}

/// Table III: BNN mode vs published ML accelerators.
pub fn table3() -> Report {
    let (model, acc) = trained_digits(100);
    let (_, _, dataset) = digits_datasets();
    let accel = Accelerator::new(model, AccelConfig::default());
    let pm = PowerModel::default();
    let mut lines = vec![format!(
        "{:<22} {:>8} {:>9} {:>9} {:>10} {:>12}",
        "design", "process", "datapath", "dataset", "accuracy", "TOPS/W"
    )];
    for (name, process, dp, ds, a, eff) in [
        ("ISSCC'17 [2]", "28nm", "8b", "MNIST", "98.36%", "1.2"),
        ("ISSCC'19 [44]", "65nm", "8b", "MNIST", "98.06%", "3.42"),
        ("JSSC'18 [40]", "65nm", "1b", "MNIST", "90.1%", "6.0"),
        ("ISSCC'18 [41]", "28nm", "1b", "CIFAR-10", "86.05%", "532"),
    ] {
        lines.push(format!(
            "{name:<22} {process:>8} {dp:>9} {ds:>9} {a:>10} {eff:>12}"
        ));
    }
    lines.push(format!(
        "{:<22} {:>8} {:>9} {:>9} {:>10} {:>12}",
        "NCPU (this repro)",
        "65nm*",
        "1b",
        if dataset == "MNIST" { "MNIST" } else { "digits*" },
        pct(acc),
        format!("{:.1}/{:.1}", pm.bnn_tops_per_watt(1.0, 400), pm.bnn_tops_per_watt(0.4, 400))
    ));
    let interval = accel.pipelined_interval();
    lines.push(format!(
        "* modeled 65nm; dataset = {dataset} (drop IDX files in data/mnist/ or set \
         NCPU_MNIST_DIR for the real thing); paper: 94.8% MNIST, 1.6 TOPS/W @1V, \
         6.0 @0.4V; throughput 1 image / {interval} cycles"
    ));
    Report { id: "table3", title: "BNN mode vs published accelerators", lines }
}

/// Extension of Table I: the lowest supply voltage at which each system
/// still meets the 5 ms motion-detection deadline, and the energy per
/// detection at that operating point — the paper's real-time argument
/// turned into a voltage/energy frontier.
pub fn ext_realtime() -> Report {
    let deadline_s = 5.0e-3;
    // Timing does not depend on trained weights; use the canonical shapes.
    let model = crate::context::motion_pseudo_model();
    let mut rng = Rng::seed_from_u64(55);
    let window = motion::generate_window(3, motion::MotionConfig::default().noise, &mut rng);

    let layout = motion_prog::MotionLayout::default();
    let fe_program = motion_prog::feature_program(&layout, layout.pack, Tail::Halt);
    let mut cpu = Pipeline::new(fe_program, FlatMem::new(4096));
    cpu.mem_mut().local_mut()[..motion_prog::STAGE_BYTES]
        .copy_from_slice(&motion_prog::stage_bytes(&window));
    let feature_cycles = cpu.run(100_000_000).expect("feature extraction");

    let soft = softbnn::build(&model);
    let mut cpu2 = Pipeline::new(soft.program.clone(), FlatMem::new(32 * 1024));
    cpu2.mem_mut().local_mut()[..soft.data.len()].copy_from_slice(&soft.data);
    let input = motion::window_to_input(&window);
    let staged = softbnn::stage_input(&input);
    let at = soft.layout.input as usize;
    cpu2.mem_mut().local_mut()[at..at + staged.len()].copy_from_slice(&staged);
    let soft_cycles = cpu2.run(500_000_000).expect("software BNN");

    // The accelerated systems' cycle counts come from real end-to-end
    // scenario runs of a one-window motion batch (DMA staging, offload,
    // and mode switches included), not a hand-summed estimate.
    let uc = UseCase::motion(1, 4, 2);
    let hetero_cycles =
        EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::Heterogeneous)).makespan;
    let ncpu_cycles =
        EventDriven.report(&Scenario::new(uc, SystemConfig::ncpu(1))).makespan;

    let pm = PowerModel::default();
    let am = AreaModel::default();
    let systems: [(&str, u64, CoreKind, ncpu_power::SystemAreas); 3] = [
        ("standalone CPU", feature_cycles + soft_cycles, CoreKind::StandaloneCpu, am.cpu_core()),
        ("CPU + BNN accel", hetero_cycles, CoreKind::StandaloneCpu, am.heterogeneous(100)),
        ("NCPU (1 core)", ncpu_cycles, CoreKind::NcpuCpuMode, am.ncpu_core(100)),
    ];
    let mut lines = vec![format!(
        "{:<16} {:>10} {:>8} {:>11} {:>12}",
        "system", "cycles", "Vmin", "latency", "energy/det"
    )];
    for (name, cycles, kind, areas) in systems {
        // Lowest grid voltage meeting the deadline (None if even 1 V misses).
        let vmin = (0..=60)
            .map(|i| 0.4 + 0.01 * i as f64)
            .find(|&v| cycles as f64 / pm.dvfs.freq_hz(v, kind) <= deadline_s);
        match vmin {
            Some(v) => {
                let latency_ms = cycles as f64 / pm.dvfs.freq_hz(v, kind) * 1e3;
                let energy = task_energy_uj(&pm, kind, &areas, cycles, v);
                lines.push(format!(
                    "{name:<16} {cycles:>10} {v:>7.2}V {latency_ms:>9.2}ms {energy:>10.2}µJ"
                ));
            }
            None => lines.push(format!(
                "{name:<16} {cycles:>10} {:>8} {:>11} {:>12}",
                "—", "misses", "—"
            )),
        }
    }
    lines.push(
        "the accelerated systems meet the deadline at the 0.4 V floor; the \
         software-only CPU must climb to ~0.7 V and burns ~60× the energy per \
         detection — and the single NCPU beats the heterogeneous pair outright \
         (one core's leakage instead of two). Paper context: at the fixed 18 MHz \
         / 0.4 V point of Table I the software CPU misses the deadline entirely."
            .to_string(),
    );
    Report { id: "ext_realtime", title: "minimum deadline-meeting voltage (5 ms motion)", lines }
}
