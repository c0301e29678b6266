//! End-to-end experiments: Fig. 1, Figs. 13–17 and Table IV.
//!
//! Every system run is described by a [`Scenario`] and executed through
//! the [`Engine`] trait (the fast [`EventDriven`] engine here), so the
//! `ncpu-par` fan-outs hand whole scenarios to the pool instead of
//! ad-hoc tuples — see EXPERIMENTS.md for the figure → scenario map.

use ncpu_bnn::data::{digits, motion};
use ncpu_power::{AreaModel, PowerModel};
use ncpu_soc::topology::Topology;
use ncpu_soc::{energy, phases, Engine, EventDriven, Scenario, SystemConfig, UseCase};
use ncpu_workloads::{image, motion as motion_prog, Tail};
use ncpu_testkit::rng::Rng;

use crate::context::{image_pseudo_model, motion_pseudo_model, pct};
use crate::Report;

/// Cycles one image/window spends in the accelerator array.
fn infer_cycles(model: &ncpu_bnn::BnnModel) -> u64 {
    let topo = model.topology();
    (0..topo.layers().len())
        .map(|l| topo.layer_input(l) as u64 + ncpu_accel::SIGN_CYCLES)
        .sum()
}

/// The baseline-vs-dual pair of scenarios every headline figure runs.
fn versus_dual(uc: &UseCase) -> [Scenario; 2] {
    [
        Scenario::new(uc.clone(), SystemConfig::Heterogeneous),
        Scenario::new(uc.clone(), SystemConfig::ncpu(2)),
    ]
}

/// Measured CPU pre-processing cycles of each use case.
fn preprocess_cycles() -> (u64, u64) {
    let mut rng = Rng::seed_from_u64(3);
    let raw = digits::render_raw(4, 0.1, &mut rng);
    let layout = image::ImageLayout::default();
    let program = image::preprocess_program(&layout, layout.pack, Tail::Halt);
    let img = phases::measure_program(program, &image::stage_bytes(&raw), 16 * 1024);

    let w = motion::generate_window(2, 9000.0, &mut rng);
    let layout = motion_prog::MotionLayout::default();
    let program = motion_prog::feature_program(&layout, layout.pack, Tail::Halt);
    let mot = phases::measure_program(program, &motion_prog::stage_bytes(&w), 4096);
    (img.total_cycles, mot.total_cycles)
}

/// Fig. 1: CPU pre-processing dominates end-to-end runtime.
pub fn fig01() -> Report {
    let (img_cpu, mot_cpu) = preprocess_cycles();
    let img_bnn = infer_cycles(&image_pseudo_model(100));
    let mot_bnn = infer_cycles(&motion_pseudo_model());
    let mut lines = vec!["CPU pre-processing share of end-to-end runtime:".to_string()];
    lines.push(format!(
        "  this work, image classification: {} ({img_cpu} CPU / {img_bnn} BNN cycles)",
        pct(img_cpu as f64 / (img_cpu + img_bnn) as f64)
    ));
    lines.push(format!(
        "  this work, motion detection:     {} ({mot_cpu} CPU / {mot_bnn} BNN cycles)",
        pct(mot_cpu as f64 / (mot_cpu + mot_bnn) as f64)
    ));
    lines.push("  literature values cited by the paper (Fig. 1):".to_string());
    for (label, share) in [
        ("ISSCC'18 [12]", 0.93),
        ("ISSCC'19 [13]", 0.80),
        ("ISCA'17 [8]", 0.62),
        ("NIPS'18 [22]", 0.67),
    ] {
        lines.push(format!("    {label:<14} {}", pct(share)));
    }
    lines.push(
        "note: our accelerator model is faster relative to the CPU than the paper's \
         silicon, so our shares sit above the cited 60-90% band"
            .to_string(),
    );
    Report { id: "fig01", title: "low accelerator utilization in heterogeneous SoCs", lines }
}

/// Fig. 13: end-to-end gain at CPU workload fractions 40% and 70%.
pub fn fig13() -> Report {
    let model = image_pseudo_model(100);
    let points = [(0.4, 0.285), (0.7, 0.412)];
    // One pool task per scenario (baseline and dual for each fraction);
    // reports come back in sweep order.
    let scenarios: Vec<Scenario> = points
        .iter()
        .flat_map(|&(fraction, _)| versus_dual(&UseCase::parametric(fraction, 2, model.clone())))
        .collect();
    let reports = ncpu_par::par_map_indexed(scenarios, |_, s| EventDriven.report(&s));
    let mut lines = Vec::new();
    for (k, &(fraction, paper)) in points.iter().enumerate() {
        let (base, dual) = (&reports[2 * k], &reports[2 * k + 1]);
        lines.push(format!(
            "CPU fraction {}: baseline {} cy, 2×NCPU {} cy → improvement {} (paper {})",
            pct(fraction),
            base.makespan,
            dual.makespan,
            pct(dual.improvement_over(base)),
            pct(paper)
        ));
        for core in &base.cores {
            lines.push(format!(
                "  baseline {:<10} util {}",
                core.role,
                pct(core.utilization(base.makespan))
            ));
        }
        for core in &dual.cores {
            lines.push(format!(
                "  ncpu     {:<10} util {}",
                core.role,
                pct(core.utilization(dual.makespan))
            ));
        }
    }
    Report { id: "fig13", title: "core utilization and gain vs CPU workload fraction", lines }
}

/// Fig. 14: end-to-end benefit vs image batch size at 70% CPU fraction.
pub fn fig14() -> Report {
    let model = image_pseudo_model(100);
    let batches = [2usize, 6, 10, 20, 50, 100];
    let mut lines =
        vec![format!("{:>6} {:>12} {:>12} {:>12}", "batch", "baseline cy", "2xNCPU cy", "gain")];
    // One pool task per scenario, rows assembled in sweep order.
    let scenarios: Vec<Scenario> = batches
        .iter()
        .flat_map(|&batch| versus_dual(&UseCase::parametric(0.7, batch, model.clone())))
        .collect();
    let reports = ncpu_par::par_map_indexed(scenarios, |_, s| EventDriven.report(&s));
    for (k, batch) in batches.iter().enumerate() {
        let (base, dual) = (&reports[2 * k], &reports[2 * k + 1]);
        lines.push(format!(
            "{batch:>6} {:>12} {:>12} {:>12}",
            base.makespan,
            dual.makespan,
            pct(dual.improvement_over(base))
        ));
    }
    lines.push("paper: gain declines with batch but stays above 37% at batch 100".to_string());
    Report { id: "fig14", title: "end-to-end benefit vs image batch size", lines }
}

/// Fig. 15: runtime breakdown of both use cases.
pub fn fig15() -> Report {
    let mut rng = Rng::seed_from_u64(3);
    let mut lines = Vec::new();

    let raw = digits::render_raw(4, 0.1, &mut rng);
    let layout = image::ImageLayout::default();
    let program = image::preprocess_program(&layout, layout.pack, Tail::Halt);
    let b = phases::measure_program(program, &image::stage_bytes(&raw), 16 * 1024);
    let bnn = infer_cycles(&image_pseudo_model(100));
    let total = b.total_cycles + bnn;
    lines.push("image classification (paper: resize 30%, filter 32%, norm 12%, BNN 24%):".into());
    for (label, id) in [
        ("resize", image::phase::RESIZE_DONE),
        ("grayscale filter", image::phase::FILTER_DONE),
        ("normalization", image::phase::NORMALIZE_DONE),
    ] {
        lines.push(format!("  {label:<17} {}", pct(b.share_of(id, total))));
    }
    lines.push(format!("  {:<17} {}", "BNN inference", pct(bnn as f64 / total as f64)));

    let w = motion::generate_window(2, 9000.0, &mut rng);
    let layout = motion_prog::MotionLayout::default();
    let program = motion_prog::feature_program(&layout, layout.pack, Tail::Halt);
    let b = phases::measure_program(program, &motion_prog::stage_bytes(&w), 4096);
    let bnn = infer_cycles(&motion_pseudo_model());
    let total = b.total_cycles + bnn;
    lines.push("motion detection (paper: mean 22%, histogram 46%, BNN 32%):".into());
    for (label, id) in [
        ("mean", motion_prog::phase::MEAN_DONE),
        ("histogram", motion_prog::phase::HIST_DONE),
        ("encode/pack", motion_prog::phase::ENCODE_DONE),
    ] {
        lines.push(format!("  {label:<17} {}", pct(b.share_of(id, total))));
    }
    lines.push(format!("  {:<17} {}", "BNN inference", pct(bnn as f64 / total as f64)));
    lines.push(
        "shapes hold (filter > resize > norm; histogram > mean); our BNN share is \
         smaller because the modeled array outruns the paper's silicon relative to the CPU"
            .to_string(),
    );
    Report { id: "fig15", title: "runtime CPU/BNN workload breakdown", lines }
}

/// Fig. 16: power traces of the image use case, baseline vs two NCPUs.
pub fn fig16() -> Report {
    let uc = UseCase::image(2, 2, 1); // timing-only: tiny training
    let [s_base, s_dual] = versus_dual(&uc).map(|s| s.with_operating_point(1.0));
    let base = EventDriven.report(&s_base);
    let dual = EventDriven.report(&s_dual);
    let pm = PowerModel::default();
    let am = AreaModel::default();
    let mut lines = vec![format!(
        "baseline {} cy vs 2×NCPU {} cy → {} speedup (paper 43%)",
        base.makespan,
        dual.makespan,
        pct(dual.improvement_over(&base))
    )];
    for (name, scenario, report) in [("baseline", &s_base, &base), ("2x ncpu", &s_dual, &dual)] {
        let bucket = (report.makespan / 24).max(1);
        let traces = energy::power_traces(report, &pm, &am, 100, scenario.volts(), bucket);
        for (core, trace) in report.cores.iter().zip(&traces) {
            let samples = trace.samples();
            let peak = samples.iter().cloned().fold(1.0e-9, f64::max);
            let bars: String = samples
                .iter()
                .map(|&s| {
                    let level = (s / peak * 7.0).round() as usize;
                    [' ', '.', ':', '-', '=', '+', '*', '#'][level.min(7)]
                })
                .collect();
            lines.push(format!("  {name:<9} {:<10} |{bars}|", core.role));
        }
    }
    lines.push("power trace @1 V, one column per time bucket (# = peak draw)".to_string());
    Report { id: "fig16", title: "measured power traces, image classification", lines }
}

/// Table IV: core utilization rates for the Fig. 16 runs.
pub fn table4() -> Report {
    let mut lines = vec!["core utilization over the end-to-end run:".to_string()];
    // (a) the real image use case as implemented here.
    let uc = UseCase::image(2, 2, 1);
    // (b) the parametric workload at the paper's CPU/BNN balance (the
    // paper's image pipeline leaves ~24% of the work to the BNN; ours
    // leaves ~1%, so the balanced run is the comparable row).
    let balanced = UseCase::parametric(0.76, 2, image_pseudo_model(100));
    for (tag, uc) in [("image use case", &uc), ("paper's CPU/BNN balance", &balanced)] {
        let [base, dual] = versus_dual(uc).map(|s| EventDriven.report(&s));
        lines.push(format!("{tag}:"));
        for (name, report) in [("baseline", &base), ("2x ncpu", &dual)] {
            for core in &report.cores {
                lines.push(format!(
                    "  {name:<9} {:<10} {}",
                    core.role,
                    pct(core.utilization(report.makespan))
                ));
            }
        }
    }
    lines.push(
        "paper: baseline CPU 80.2% / BNN 39.4%; NCPUs 99.3% each — same shape: \
         busy CPU, starved accelerator, saturated NCPUs"
            .to_string(),
    );
    Report { id: "table4", title: "core utilization rates", lines }
}

/// Fig. 17: normalized end-to-end latency of both use cases on the three
/// configurations, plus the equivalent-energy conversion.
pub fn fig17() -> Report {
    let pm = PowerModel::default();
    let am = AreaModel::default();
    let mut lines = Vec::new();
    for (name, uc, paper_gain, paper_single) in [
        ("image", UseCase::image(2, 2, 1), 0.43, 0.138),
        ("motion", UseCase::motion(2, 4, 1), 0.35, 0.018),
    ] {
        let nominal = Scenario::new(uc, SystemConfig::Heterogeneous).with_operating_point(1.0);
        let base = EventDriven.report(&nominal);
        let single = EventDriven
            .report(&Scenario::new(nominal.usecase().clone(), SystemConfig::ncpu(1)));
        let dual = EventDriven
            .report(&Scenario::new(nominal.usecase().clone(), SystemConfig::ncpu(2)));
        let single_delta = single.makespan as f64 / base.makespan as f64 - 1.0;
        lines.push(format!(
            "{name}: normalized latency — 1 NCPU {:.3} (paper +{:.1}%), CPU+BNN 1.000, \
             2 NCPU {:.3} (paper −{:.0}%)",
            1.0 + single_delta,
            paper_single * 100.0,
            dual.makespan as f64 / base.makespan as f64,
            paper_gain * 100.0
        ));
        lines.push(format!(
            "  2×NCPU gain {}; equivalent energy saving at matched latency: {} \
             (paper: up to 74%; our measured-fit f(V) curve is shallower above \
             0.7 V, so the voltage-scaling conversion yields less)",
            pct(dual.improvement_over(&base)),
            pct(energy::equivalent_energy_saving(&dual, &base, &pm, &am, 100, nominal.volts()))
        ));
    }
    Report { id: "fig17", title: "end-to-end improvement for the two use cases", lines }
}

/// Extension (paper Section VI-A): the two NCPU cores running *different*
/// tasks concurrently — image classification on core 0, motion detection
/// on core 1, sharing the L2 and DMA fabric in one independent scenario
/// — versus time-multiplexing a heterogeneous pair.
pub fn ext_multiprogram() -> Report {
    let image = UseCase::image(2, 2, 1);
    let motion = UseCase::motion(2, 4, 1);
    let workloads = vec![image.clone(), motion.clone()];
    let both = Scenario::independent(workloads, Topology::homogeneous(2))
        .expect("two workloads fit two cores");
    let dual = EventDriven.report(&both);
    // Each core is active until its own queue drains.
    let finish = |c: usize| dual.cores[c].timeline.total_cycles();
    let util = |c: usize| pct(dual.cores[c].utilization(finish(c)));
    // Heterogeneous comparison: the single CPU+accelerator pair must run
    // the two task batches back to back.
    let h_img = EventDriven.report(&Scenario::new(image, SystemConfig::Heterogeneous));
    let h_mot = EventDriven.report(&Scenario::new(motion, SystemConfig::Heterogeneous));
    let serial = h_img.makespan + h_mot.makespan;
    let concurrent = dual.makespan;
    let lines = vec![
        format!("core 0 (image):  {} cycles, util {} while active", finish(0), util(0)),
        format!(
            "core 1 (motion): {} cycles, util {} while active (idle once its queue drains)",
            finish(1),
            util(1)
        ),
        format!(
            "2×NCPU concurrent makespan {} vs heterogeneous back-to-back {} → {} faster",
            concurrent,
            serial,
            pct(1.0 - concurrent as f64 / serial as f64)
        ),
        "paper: the cores 'operate independently for different workload tasks' — \
         mixed workloads need no accelerator arbitration at all"
            .to_string(),
    ];
    Report { id: "ext_multiprogram", title: "two cores, two different tasks", lines }
}
