//! Quickstart: program an NCPU core end to end.
//!
//! Trains a tiny binary classifier, loads it into a reconfigurable NCPU
//! core, and runs a RISC-V program that pre-processes data in CPU mode,
//! switches to BNN mode with `trans_bnn`, and reads the classification
//! back — the full single-core story of the paper in ~50 lines.
//!
//! Run with: `cargo run --release --example quickstart`

use ncpu::prelude::*;
use ncpu_bnn::data::Dataset;
use ncpu_bnn::train::{train, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Train a 16-bit, 2-class BNN: "is the majority of bits set?"
    let inputs: Vec<BitVec> = (0..200u32)
        .map(|i| BitVec::from_bools((0..16).map(move |b| (i.wrapping_mul(2654435761) >> b) & 1 == 1)))
        .collect();
    let labels: Vec<usize> = inputs.iter().map(|x| (x.count_ones() > 8) as usize).collect();
    let data = Dataset::new(inputs, labels, 2);
    let topo = Topology::new(16, vec![16, 16], 2);
    let model = train(&topo, &data, &TrainConfig::default());
    println!("trained model accuracy: {:.1}%", ncpu::bnn::metrics::accuracy(&model, &data) * 100.0);

    // 2. Build the core and a program around its memory map.
    let mut core = NcpuCore::new(model.clone(), AccelConfig::default(), SwitchPolicy::ZeroLatency);
    let sample = 0b1111_0110_1101_0111u32; // 12 ones -> class 1
    let program = asm::assemble(&format!(
        "li   t0, {img}        # image memory (reused SRAM bank)
         li   t1, {sample}
         sh   t1, 0(t0)        # store the 16 input bits
         li   t2, 1
         mv_neu t2, 0          # configure: one image
         trans_bnn             # CPU -> BNN, zero-latency
         li   t3, {out}
         lw   a0, 0(t3)        # classification result, already local
         ebreak",
        img = core.image_base(),
        out = core.output_base(),
    ))?;

    // 3. Run and inspect.
    core.set_obs_level(TraceLevel::from_env());
    core.load_program(program);
    core.run(1_000_000)?;
    let predicted = core.pipeline().reg(Reg::A0);
    println!("input 0x{sample:04x} -> class {predicted} (reference: {})", {
        model.classify(&BitVec::from_bytes(&(sample as u16).to_le_bytes(), 16))
    });
    println!(
        "total {} cycles: {} switches, {} switch-overhead cycles (zero-latency)",
        core.total_cycles(),
        core.stats().switches,
        core.stats().switch_overhead_cycles
    );
    for span in core.timeline().spans() {
        println!("  [{:>6}..{:>6}) {}", span.start, span.end, span.label);
    }
    if core.obs().level() == TraceLevel::Full {
        println!("NCPU_TRACE=full: captured {} instant events", core.obs().events().len());
    }

    // 4. Scale out: the core above is one instance of an N-core SoC
    //    scenario — same model, batch of items, round-robin schedule.
    let uc = ncpu::soc::UseCase::parametric(0.5, 4, model);
    let dual = EventDriven.report(&Scenario::new(uc, SystemConfig::ncpu(2)));
    println!(
        "scaled out as a scenario: {} classifies a 4-image batch in {} cycles",
        dual.config, dual.makespan
    );
    Ok(())
}
