//! Micro-benchmarks of the simulator substrate itself: how fast the
//! reproduction simulates, not what the paper measures. Runs on the
//! workspace's own `ncpu_testkit::bench` harness (no criterion); the
//! report lands in `BENCH_micro.json`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ncpu_accel::{AccelConfig, Accelerator};
use ncpu_bnn::BitVec;
use ncpu_isa::{asm, decode};
use ncpu_pipeline::{FlatMem, Pipeline};
use ncpu_testkit::bench::Bench;

fn bench_isa(b: &mut Bench) {
    let words = asm::assemble(
        "loop: addi t0, t0, 1
               mul t1, t0, t0
               lw a0, 0(sp)
               beq a0, t1, loop
               ebreak",
    )
    .unwrap();
    b.throughput(words.len() as u64);
    b.bench("isa/decode", || {
        for &w in &words {
            black_box(decode(black_box(w)).unwrap());
        }
    });
    // One assembly takes about a microsecond and allocates, so on a
    // shared host a neighbour's load slows a whole 5 ms sample of them
    // by 2-3x. The row is instead the median of `ASSEMBLE_ROUNDS`
    // rounds, each the nearest-rank 10th percentile of `ASSEMBLE_CALLS`
    // singly timed calls: a slowed or preempted call lands in a round's
    // slow tail, and a burst that slows a few rounds cannot decide the
    // median. The call itself is deterministic, so on a quiet host its
    // 10th percentile and median agree within a few percent.
    let src = "li t0, 100\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak";
    let mut rounds: Vec<Duration> = (0..ASSEMBLE_ROUNDS)
        .map(|_| {
            let mut calls: Vec<Duration> = (0..ASSEMBLE_CALLS)
                .map(|_| {
                    let start = Instant::now();
                    black_box(asm::assemble(black_box(src)).expect("assembles"));
                    start.elapsed()
                })
                .collect();
            calls.sort_unstable();
            calls[ASSEMBLE_CALLS / 10]
        })
        .collect();
    rounds.sort_unstable();
    b.record_once("isa/assemble_small_program", rounds[ASSEMBLE_ROUNDS / 2]);
}

/// Singly timed assemblies per round of `isa/assemble_small_program`.
const ASSEMBLE_CALLS: usize = 255;

/// Rounds of `ASSEMBLE_CALLS`; the row is the median round's 10th
/// percentile.
const ASSEMBLE_ROUNDS: usize = 9;

fn bench_pipeline(b: &mut Bench) {
    let program = ncpu_workloads::spin::spin_program(100_000);
    b.throughput(100_000);
    b.bench("pipeline/cycles_per_second", || {
        let mut cpu = Pipeline::new(program.clone(), FlatMem::new(64));
        cpu.run(1_000_000).unwrap()
    });
}

/// One staged image item through the functional mode: the image
/// pre-processing program plus its in-place classification, re-staged
/// every iteration, its clock priced from the program's block table.
/// `elements` is the instructions one item retires, so the row reads
/// instructions per second.
fn bench_functional_image_item(b: &mut Bench) {
    use ncpu_bnn::data::digits;
    use ncpu_core::{NcpuCore, SwitchPolicy};
    use ncpu_pipeline::Program;
    use ncpu_workloads::{image, Tail};

    let mut core = NcpuCore::new(
        ncpu_bench::context::image_pseudo_model(100),
        AccelConfig::default(),
        SwitchPolicy::ZeroLatency,
    );
    let tail = Tail::NcpuClassify { output_base: core.output_base(), result_l2: 0x40 };
    let program = Program::new(image::preprocess_program(
        &image::ImageLayout::default(),
        core.image_base(),
        tail,
    ));
    let raw = digits::render_raw(3, 0.1, &mut ncpu_testkit::rng::Rng::seed_from_u64(77));
    let staged = image::stage_bytes(&raw);
    let mut item = move || {
        let banks = core.pipeline_mut().mem_mut().accel_mut().banks_mut();
        let (bank, off) = banks.resolve(0).expect("data cache starts at 0");
        banks.bank_mut(bank).load(off as usize, &staged);
        core.load_program(&program);
        core.run_functional(u64::MAX)
            .expect("image item runs")
            .expect("image item reads no L2")
    };
    b.throughput(item());
    b.bench("pipeline/functional_image_item", item);
}

fn bench_bnn(b: &mut Bench) {
    let a = BitVec::from_bools((0..784).map(|i| i % 3 == 0));
    let b2 = BitVec::from_bools((0..784).map(|i| i % 5 == 0));
    b.bench("bnn/dot_784", || black_box(a.dot(&b2)));
    let model = ncpu_bench::context::image_pseudo_model(100);
    b.bench("bnn/reference_inference", || black_box(model.classify(&a)));
    let mut accel = Accelerator::new(model.clone(), AccelConfig::default());
    b.bench("bnn/accelerator_inference", move || accel.infer(&a));
}

fn bench_endtoend(b: &mut Bench) {
    use ncpu_soc::{Engine, EventDriven, Scenario, SystemConfig};
    let model = ncpu_bench::context::image_pseudo_model(100);
    let uc = ncpu_soc::UseCase::parametric(0.7, 4, model);
    let baseline = Scenario::new(uc.clone(), SystemConfig::Heterogeneous);
    b.bench("endtoend/heterogeneous_baseline", || black_box(EventDriven.report(&baseline)));
    let dual = Scenario::new(uc, SystemConfig::ncpu(2));
    b.bench("endtoend/dual_ncpu", || black_box(EventDriven.report(&dual)));
}

fn main() {
    // Respect `cargo bench -- <filter>` the way criterion used to.
    let filter: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with('-')).collect();
    let wants = |group: &str| filter.is_empty() || filter.iter().any(|f| group.contains(f.as_str()));
    let mut b = Bench::new("micro");
    if wants("isa") {
        bench_isa(&mut b);
    }
    if wants("pipeline") {
        bench_pipeline(&mut b);
        bench_functional_image_item(&mut b);
    }
    if wants("bnn") {
        bench_bnn(&mut b);
    }
    if wants("endtoend") {
        bench_endtoend(&mut b);
    }
    b.finish();
}
