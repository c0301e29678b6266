//! Micro-benchmarks of the simulator substrate itself: how fast the
//! reproduction simulates, not what the paper measures. Runs on the
//! workspace's own `ncpu_testkit::bench` harness (no criterion); the
//! report lands in `BENCH_micro.json`.

use std::hint::black_box;

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
    b.bench("isa/assemble_small_program", || {
        asm::assemble(black_box("li t0, 100\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak"))
    });
}

fn bench_pipeline(b: &mut Bench) {
    let program = ncpu_workloads::spin::spin_program(100_000);
    b.throughput(100_000);
    b.bench("pipeline/cycles_per_second", || {
        let mut cpu = Pipeline::new(program.clone(), FlatMem::new(64));
        cpu.run(1_000_000).unwrap()
    });
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
    use ncpu_soc::{Analytic, Engine, Scenario, SystemConfig};
    let model = ncpu_bench::context::image_pseudo_model(100);
    let uc = ncpu_soc::UseCase::parametric(0.7, 4, model);
    let baseline = Scenario::new(uc.clone(), SystemConfig::Heterogeneous);
    b.bench("endtoend/heterogeneous_baseline", || black_box(Analytic.report(&baseline)));
    let dual = Scenario::new(uc, SystemConfig::ncpu(2));
    b.bench("endtoend/dual_ncpu", || black_box(Analytic.report(&dual)));
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
    }
    if wants("bnn") {
        bench_bnn(&mut b);
    }
    if wants("endtoend") {
        bench_endtoend(&mut b);
    }
    b.finish();
}
