//! The paper's motivating experiment (Table I): why the accelerator is
//! indispensable for real-time motion detection.
//!
//! Classifies one sensor window under a 5 ms deadline two ways: entirely
//! on the RISC-V CPU (feature extraction + naive software BNN), and with
//! the BNN accelerator — both at the 0.4 V ultra-low-power point.
//!
//! Run with: `cargo run --release --example motion_detection`

use ncpu::prelude::*;
use ncpu::bnn::data::motion;
use ncpu::bnn::train::{train, TrainConfig};
use ncpu::workloads::{motion as motion_prog, softbnn, Tail};
use ncpu_testkit::rng::Rng;

fn main() {
    println!("training the motion classifier on synthetic 6-channel windows…");
    let cfg = motion::MotionConfig { train_per_class: 80, ..Default::default() };
    let (train_w, test_w) = motion::generate(&cfg);
    let topo = Topology::paper(motion::INPUT_BITS, 100, motion::CLASSES);
    let model = train(
        &topo,
        &motion::to_dataset(&train_w),
        &TrainConfig { epochs: 30, ..TrainConfig::default() },
    );
    let acc = ncpu::bnn::metrics::accuracy(&model, &motion::to_dataset(&test_w));
    println!("accuracy: {:.1}% (paper: 74%)", acc * 100.0);

    // One gesture window to classify.
    let mut rng = Rng::seed_from_u64(9);
    let window = motion::generate_window(5, cfg.noise, &mut rng);

    // Feature extraction on the CPU pipeline (both systems pay this).
    let layout = motion_prog::MotionLayout::default();
    let program = motion_prog::feature_program(&layout, layout.pack, Tail::Halt);
    let mut cpu = Pipeline::new(program, FlatMem::new(4096));
    cpu.set_obs_level(TraceLevel::from_env());
    cpu.mem_mut().local_mut()[..motion_prog::STAGE_BYTES]
        .copy_from_slice(&motion_prog::stage_bytes(&window));
    let feature_cycles = cpu.run(10_000_000).expect("feature extraction");
    if cpu.obs().level() == TraceLevel::Full {
        println!(
            "(NCPU_TRACE=full: {} pipeline events during feature extraction)",
            cpu.obs().events().len()
        );
    }

    // (a) software BNN on the same CPU.
    let input = motion::window_to_input(&window);
    let soft = softbnn::build(&model);
    let mut cpu2 = Pipeline::new(soft.program.clone(), FlatMem::new(32 * 1024));
    cpu2.mem_mut().local_mut()[..soft.data.len()].copy_from_slice(&soft.data);
    let staged = softbnn::stage_input(&input);
    let at = soft.layout.input as usize;
    cpu2.mem_mut().local_mut()[at..at + staged.len()].copy_from_slice(&staged);
    let soft_cycles = cpu2.run(500_000_000).expect("software BNN");

    // (b) the accelerator.
    let mut accel = Accelerator::new(model.clone(), AccelConfig::default());
    let (class, accel_cycles) = accel.infer(&input);

    let pm = PowerModel::default();
    let f = pm.dvfs.freq_hz(0.4, CoreKind::StandaloneCpu);
    let ms = |c: u64| c as f64 / f * 1e3;
    println!("\nat 0.4 V ({:.1} MHz), 5 ms real-time budget:", f / 1e6);
    println!(
        "  standalone CPU : {:>9} cycles = {:6.2} ms  {}",
        feature_cycles + soft_cycles,
        ms(feature_cycles + soft_cycles),
        if ms(feature_cycles + soft_cycles) > 5.0 { "✗ deadline missed" } else { "✓" }
    );
    println!(
        "  CPU + BNN accel: {:>9} cycles = {:6.2} ms  {}",
        feature_cycles + accel_cycles,
        ms(feature_cycles + accel_cycles),
        if ms(feature_cycles + accel_cycles) <= 5.0 { "✓ deadline met" } else { "✗" }
    );
    println!(
        "  speedup {:.0}× (paper: 59×); both agree on class {class} \
         (software said {})",
        (feature_cycles + soft_cycles) as f64 / (feature_cycles + accel_cycles) as f64,
        cpu2.reg(Reg::A0)
    );

    // The same comparison through the SoC scenario layer: one Scenario
    // per system, so the end-to-end path (DMA staging, mode switches,
    // scheduling) is costed instead of hand-summed from probes.
    let uc = UseCase::motion(1, 4, 2);
    let scenario = |system| Scenario::new(uc.clone(), system).with_operating_point(0.4);
    let hetero = EventDriven.report(&scenario(SystemConfig::Heterogeneous));
    let ncpu = EventDriven.report(&scenario(SystemConfig::ncpu(1)));
    println!("\nend-to-end per window through the scenario layer:");
    for r in [&hetero, &ncpu] {
        println!("  {:<16} {:>9} cycles = {:6.2} ms", r.config, r.makespan, ms(r.makespan));
    }
}
