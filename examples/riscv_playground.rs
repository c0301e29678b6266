//! RISC-V playground: assemble, disassemble and run a program on the
//! cycle-accurate pipeline, then inspect its microarchitectural behavior.
//!
//! Run with: `cargo run --release --example riscv_playground [file.s]`
//! (without an argument it runs a built-in Fibonacci program).

use ncpu::prelude::*;

const DEMO: &str = "
        # iterative fibonacci: a0 = F(20)
        li   t0, 20
        li   a0, 0
        li   a1, 1
loop:   add  t1, a0, a1
        mv   a0, a1
        mv   a1, t1
        addi t0, t0, -1
        bnez t0, loop
        ebreak
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let src = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(path)?,
        None => DEMO.to_string(),
    };
    let words = asm::assemble(&src)?;

    println!("assembled {} instructions:", words.len());
    for (i, &w) in words.iter().enumerate() {
        println!("  {:#06x}: {w:08x}  {}", i * 4, decode(w)?);
    }

    let mut cpu = Pipeline::new(words, FlatMem::new(64 * 1024));
    cpu.set_trace_capacity(32);
    cpu.set_obs_level(TraceLevel::from_env());
    let cycles = match cpu.run(50_000_000) {
        Ok(cycles) => cycles,
        Err(trap) => {
            eprintln!("\ntrapped after {} cycles: {trap}", cpu.stats().cycles);
            eprintln!("last retired instructions before the trap:");
            eprint!("{}", cpu.trace().render());
            return Err(trap.into());
        }
    };
    let s = cpu.stats();
    println!("\nhalted after {cycles} cycles, {} instructions (IPC {:.3})", s.retired, s.ipc());
    println!(
        "stalls: {} load-use, {} flush cycles, {} EX stalls, {} MEM stalls",
        s.load_use_stalls, s.flush_cycles, s.ex_stall_cycles, s.mem_stall_cycles
    );
    println!("\nregister file:");
    for reg in Reg::all() {
        let v = cpu.reg(reg);
        if v != 0 {
            println!("  {:<5} = {v:#010x} ({})", reg.to_string(), v as i32);
        }
    }
    println!("\ntop retired mnemonics:");
    let mut counts: Vec<_> = s.per_instr.iter().collect();
    counts.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    for (m, c) in counts.iter().take(8) {
        println!("  {m:<6} {c}");
    }
    println!("\nlast retired instructions (up to EBREAK):");
    print!("{}", cpu.trace().render());
    if cpu.obs().level() == TraceLevel::Full {
        println!("\nNCPU_TRACE=full: captured {} instant events", cpu.obs().events().len());
    }

    // This pipeline is the CPU half of the SoC scenarios. Pair the
    // measured cost of this program with one BNN inference per item and
    // let the two-core schedule overlap them.
    let model = ncpu_bench::context::pseudo_model(216, 30, 8);
    let topo = model.topology();
    let infer: u64 = (0..topo.layers().len())
        .map(|l| topo.layer_input(l) as u64 + ncpu::accel::SIGN_CYCLES)
        .sum();
    let frac = cycles as f64 / (cycles + infer) as f64;
    let uc = ncpu::soc::UseCase::parametric(frac, 4, model);
    let dual = EventDriven.report(&Scenario::new(uc, SystemConfig::ncpu(2)));
    println!(
        "\nas the CPU phase of a 4-item scenario ({:.0}% CPU work per item), \
         {} finishes in {} cycles",
        frac * 100.0,
        dual.config,
        dual.makespan
    );
    Ok(())
}
