//! Differential tests: the cycle-accurate pipeline and its functional
//! mode must both produce exactly the architectural state of the
//! functional golden model (`ncpu_isa::interp`) for identical programs —
//! and the functional mode must also retire the golden model's PC
//! stream, instruction by instruction, and price its blocks to exactly
//! the timed pipeline's counters.

use ncpu_isa::asm::assemble;
use ncpu_isa::interp::{Event, ExecError, Interp};
use ncpu_isa::{Instruction, Reg};
use ncpu_pipeline::{FlatMem, FunctionalStop, MemFault, MemPort, PipeError, PipeStats, Pipeline};
use ncpu_sim::{AddressArbiter, SramBank};
use ncpu_testkit::prop::{Prop, Shrink};
use ncpu_testkit::rng::Rng;
use ncpu_testkit::{prop_assert, prop_assert_eq};

/// Runs a program on both models and compares register files plus the data
/// memory window `[4096, 8192)` (kept clear of code in the golden model's
/// unified address space). Returns `Err` so the property harness can shrink.
fn check_equivalent(src: &str) -> Result<(), String> {
    let program = assemble(src).map_err(|e| format!("assembly failed: {e}\n{src}"))?;
    let mut gold = Interp::with_program(&program, 8192);
    gold.run(1_000_000).map_err(|e| format!("golden model failed: {e}\n{src}"))?;

    let mut cpu = Pipeline::new(program.clone(), FlatMem::new(8192));
    cpu.run(5_000_000).map_err(|e| format!("pipeline failed: {e}\n{src}"))?;

    for reg in Reg::all() {
        prop_assert_eq!(cpu.reg(reg), gold.reg(reg), "register {} differs\n{}", reg, src);
    }
    prop_assert_eq!(
        &cpu.mem().local()[4096..8192],
        &gold.mem()[4096..8192],
        "data memory differs\n{}",
        src
    );
    prop_assert_eq!(cpu.stats().retired, gold.retired(), "retire count differs\n{}", src);
    check_functional(&program, cpu.stats(), src)
}

/// The functional mode against the golden model: stepped one instruction
/// per call, its PC stream must be the golden model's; run in one call,
/// it must reach the same registers, memory and retire count. Both runs
/// must price exactly the counters of the `timed` run. An `lw_l2` ends
/// the comparison where the functional mode stops at it.
fn check_functional(program: &[u32], timed: &PipeStats, src: &str) -> Result<(), String> {
    let mut gold = Interp::with_program(program, 8192);
    let mut gold_pcs = Vec::new();
    while !gold.is_halted() {
        gold_pcs.push(gold.pc());
        gold.step().map_err(|e| format!("golden model failed: {e}\n{src}"))?;
    }

    let mut stepped = Pipeline::new(program.to_vec(), FlatMem::new(8192));
    let mut pcs = Vec::new();
    let mut retired = 0;
    let l2_read = loop {
        let pc = stepped.pc();
        match stepped.run_functional(1) {
            Ok((FunctionalStop::L2Read, n)) => {
                prop_assert_eq!(n, 0, "an lw_l2 stop retires nothing\n{}", src);
                let word = program[(pc / 4) as usize];
                prop_assert_eq!(
                    ncpu_isa::decode(word).ok().map(|i| matches!(i, Instruction::LwL2 { .. })),
                    Some(true),
                    "stopped at pc {:#x}, which is no lw_l2\n{}",
                    pc,
                    src
                );
                break true;
            }
            Ok((stop, n)) => {
                prop_assert_eq!(n, 1, "one instruction per unit budget\n{}", src);
                pcs.push(pc);
                retired += n;
                if stop == FunctionalStop::Event(Event::Halted) {
                    break false;
                }
            }
            Err(e) => return Err(format!("functional mode failed: {e}\n{src}")),
        }
    };
    prop_assert_eq!(&pcs[..], &gold_pcs[..pcs.len()], "PC stream differs\n{}", src);
    if l2_read {
        return Ok(());
    }
    prop_assert_eq!(pcs.len(), gold_pcs.len(), "functional run stopped early\n{}", src);
    prop_assert_eq!(retired, gold.retired(), "functional retire count differs\n{}", src);
    prop_assert!(stepped.is_halted(), "ebreak halts the functional run\n{}", src);

    let mut whole = Pipeline::new(program.to_vec(), FlatMem::new(8192));
    let mut whole_retired = 0;
    loop {
        match whole.run_functional(u64::MAX) {
            Ok((FunctionalStop::Event(Event::Halted), n)) => {
                whole_retired += n;
                break;
            }
            Ok((_, n)) => whole_retired += n,
            Err(e) => return Err(format!("functional mode failed: {e}\n{src}")),
        }
    }
    prop_assert_eq!(whole_retired, gold.retired(), "retire count differs in one call\n{}", src);
    for (model, name) in [(&stepped, "stepped"), (&whole, "whole")] {
        prop_assert_eq!(model.stats(), timed, "{} priced counters differ\n{}", name, src);
        for reg in Reg::all() {
            prop_assert_eq!(model.reg(reg), gold.reg(reg), "{} register {} differs\n{}", name, reg, src);
        }
        prop_assert_eq!(
            &model.mem().local()[4096..8192],
            &gold.mem()[4096..8192],
            "{} data memory differs\n{}",
            name,
            src
        );
        prop_assert_eq!(model.pc(), gold.pc(), "{} resume PC differs\n{}", name, src);
    }
    Ok(())
}

fn assert_equivalent(src: &str) {
    check_equivalent(src).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn loops_and_arithmetic() {
    assert_equivalent(
        "      li t0, 37
               li t1, 1
               li t2, 0
        loop:  add t2, t2, t0
               mul t1, t1, t0
               srli t3, t2, 1
               xor t4, t3, t1
               addi t0, t0, -1
               bnez t0, loop
               ebreak",
    );
}

#[test]
fn memory_widths_and_signs() {
    assert_equivalent(
        "li s0, 4096
         li t0, -12345
         sw t0, 0(s0)
         sh t0, 4(s0)
         sb t0, 6(s0)
         lb a0, 0(s0)
         lbu a1, 0(s0)
         lh a2, 0(s0)
         lhu a3, 4(s0)
         lw a4, 0(s0)
         ebreak",
    );
}

#[test]
fn function_calls_with_stack() {
    assert_equivalent(
        "        li sp, 8192
                 li a0, 10
                 jal ra, fib
                 j done
        fib:     addi t0, zero, 2
                 blt a0, t0, base
                 addi sp, sp, -12
                 sw ra, 0(sp)
                 sw a0, 4(sp)
                 addi a0, a0, -1
                 jal ra, fib
                 sw a0, 8(sp)
                 lw a0, 4(sp)
                 addi a0, a0, -2
                 jal ra, fib
                 lw t1, 8(sp)
                 add a0, a0, t1
                 lw ra, 0(sp)
                 addi sp, sp, 12
        base:    ret
        done:    ebreak",
    );
}

#[test]
fn insertion_sort_in_memory() {
    assert_equivalent(
        "        li s0, 4096
                 # fill 16 pseudo-random words
                 li t0, 16
                 li t1, 12345
        fill:    mul t1, t1, t1
                 srli t2, t1, 7
                 xor t1, t1, t2
                 andi t3, t1, 1023
                 sw t3, 0(s0)
                 addi s0, s0, 4
                 addi t0, t0, -1
                 bnez t0, fill
                 # insertion sort
                 li s0, 4096
                 li s1, 1
        outer:   li t6, 16
                 bge s1, t6, done
                 slli t0, s1, 2
                 add t0, t0, s0
                 lw t1, 0(t0)
        inner:   beq t0, s0, place
                 lw t2, -4(t0)
                 bge t1, t2, place
                 sw t2, 0(t0)
                 addi t0, t0, -4
                 j inner
        place:   sw t1, 0(t0)
                 addi s1, s1, 1
                 j outer
        done:    ebreak",
    );
}

#[test]
fn l2_round_trip_matches() {
    assert_equivalent(
        "li t0, 256
         li t1, 0xabcd
         sw_l2 t1, 0(t0)
         lw_l2 a0, 0(t0)
         addi a0, a0, 1
         ebreak",
    );
}

#[test]
fn hazard_heavy_sequences() {
    assert_equivalent(
        "li s0, 4096
         li t0, 3
         sw t0, 0(s0)
         lw t1, 0(s0)
         add t2, t1, t1
         lw t3, 0(s0)
         add t4, t3, t2
         sw t4, 4(s0)
         lw t5, 4(s0)
         add t6, t5, t5
         ebreak",
    );
}

/// Every lowered op, each on operands that tell it apart from its
/// neighbours (negative values for the signed ops and arithmetic
/// shifts, shift amounts above 31 for the register shifts).
#[test]
fn every_lowered_op_matches_golden_model() {
    assert_equivalent(
        "li s0, 4096
         li t0, -1234567
         li t1, 37
         li t2, 0x80000001
         lui a0, 0xfffff
         auipc a1, 0x12345
         addi a2, t0, -2048
         slti a3, t0, -5
         sltiu a4, t0, 5
         xori a5, t0, -1
         ori a6, t0, 0x7ff
         andi a7, t0, -16
         slli s2, t0, 7
         srli s3, t0, 7
         srai s4, t0, 7
         add s5, t0, t2
         sub s6, t0, t2
         sll s7, t2, t1
         slt s8, t0, t1
         sltu s9, t0, t1
         xor s10, t0, t2
         srl s11, t2, t1
         sra t3, t2, t1
         or t4, t0, t2
         and t5, t0, t2
         mul t6, t0, t2
         sw t0, 0(s0)
         sh t2, 4(s0)
         sb t0, 6(s0)
         lb a0, 0(s0)
         lh a1, 0(s0)
         lw a2, 0(s0)
         lbu a3, 0(s0)
         lhu a4, 4(s0)
         li a5, 0
         beq t0, t0, n1
         addi a5, a5, 1
n1:       bne t0, t1, n2
         addi a5, a5, 2
n2:       blt t0, t1, n3
         addi a5, a5, 4
n3:       bge t1, t0, n4
         addi a5, a5, 8
n4:       bltu t1, t0, n5
         addi a5, a5, 16
n5:       bgeu t0, t1, n6
         addi a5, a5, 32
n6:       beq t0, t1, n7
         bne t0, t0, n7
         blt t1, t0, n7
         bge t0, t1, n7
         bltu t0, t1, n7
         bgeu t1, t0, n7
         addi a5, a5, 64
n7:       jal ra, n8
         addi a5, a5, 128
n8:       auipc t1, 0
         jalr ra, 12(t1)
         addi a5, a5, 256
         ebreak",
    );
}

/// Every op class with `x0` as its destination, each followed by a
/// read of `x0`: the functional loop writes `x0` freely and must zero it
/// again before the next op, on straight-line ops and across jumps.
#[test]
fn x0_destinations_stay_zero() {
    assert_equivalent(
        "li s0, 4096
         li t0, -77
         sw t0, 0(s0)
         lui zero, 0x12345
         add a0, a0, zero
         auipc zero, 1
         add a0, a0, zero
         addi zero, t0, 7
         add a0, a0, zero
         srai zero, t0, 1
         add a0, a0, zero
         sub zero, t0, s0
         add a0, a0, zero
         mul zero, t0, t0
         add a0, a0, zero
         lw zero, 0(s0)
         add a0, a0, zero
         lbu zero, 0(s0)
         sw zero, 4(s0)
         jal zero, n1
n1:       add a0, a0, zero
         auipc t1, 0
         jalr zero, 12(t1)
         li a1, 99
         add a0, a0, zero
         bne zero, zero, n2
         sw zero, 8(s0)
n2:       ebreak",
    );
}

/// A fault case: the timed run and the functional run (resumed across
/// every non-fault stop) must fail with the same [`PipeError`] — same
/// variant, same PC, same fault address or decode error — and the
/// functional run must leave the golden model's registers, data memory
/// and PC at the faulting instruction. Returns the error.
fn check_fault(program: &[u32], what: &str) -> PipeError {
    let mut timed = Pipeline::new(program.to_vec(), FlatMem::new(8192));
    let timed_err = timed.run(1_000_000).expect_err(what);
    let mut functional = Pipeline::new(program.to_vec(), FlatMem::new(8192));
    let err = loop {
        match functional.run_functional(u64::MAX) {
            Err(e) => break e,
            Ok((FunctionalStop::Event(Event::Halted) | FunctionalStop::L2Read, _)) => {
                panic!("{what}: the functional run did not fault")
            }
            Ok(_) => {}
        }
    };
    assert_eq!(err, timed_err, "{what}: functional and timed faults differ");
    let pc = match err {
        PipeError::Decode { pc, .. } | PipeError::PcOutOfRange { pc } | PipeError::Mem { pc, .. } => {
            pc
        }
        PipeError::CycleLimit { .. } => panic!("{what}: no fault within the budget"),
    };
    assert_eq!(functional.pc(), pc, "{what}: the PC stays on the fault");

    let mut gold = Interp::with_program(program, 8192);
    for _ in 0..10_000 {
        if gold.pc() == pc {
            break;
        }
        gold.step().unwrap_or_else(|e| panic!("{what}: golden model failed early: {e}"));
    }
    assert_eq!(gold.pc(), pc, "{what}: the golden model never reaches the fault");
    for reg in Reg::all() {
        assert_eq!(functional.reg(reg), gold.reg(reg), "{what}: register {reg} differs");
    }
    assert_eq!(
        &functional.mem().local()[4096..8192],
        &gold.mem()[4096..8192],
        "{what}: data memory differs"
    );
    // Where the golden model faults too, it faults alike.
    match (&err, gold.step()) {
        (PipeError::Decode { source, .. }, Err(ExecError::Decode { pc: at, source: gold_source })) => {
            assert_eq!((at, gold_source), (pc, *source), "{what}");
        }
        (PipeError::Mem { source, .. }, Err(ExecError::MemOutOfBounds { pc: at, addr })) => {
            assert_eq!((at, addr), (pc, source.addr), "{what}");
        }
        (PipeError::PcOutOfRange { .. }, _) => {}
        (err, gold) => {
            panic!("{what}: golden model gives {gold:?} where the pipeline gives {err:?}")
        }
    }
    err
}

fn assembled(src: &str) -> Vec<u32> {
    assemble(src).unwrap_or_else(|e| panic!("assembly failed: {e}\n{src}"))
}

#[test]
fn reached_non_decoding_words_fault_alike() {
    // Mid-block, as a branch target, and after an event the run resumes
    // from; a bad word skipped by a taken branch never faults.
    for (src, pc) in [
        ("li a0, 3\naddi a1, a0, 1\n.word 0xffffffff\nebreak", 8),
        ("li a0, 3\nj n1\n.word 0\nn1: .word 0\nebreak", 12),
        ("li a0, 3\necall\nmv_neu a0, 2\n.word 0x0000707f\nebreak", 12),
        ("li a0, 3\nbnez a0, n1\n.word 0\nn1: addi a0, a0, 1\n.word 0\nebreak", 16),
    ] {
        let err = check_fault(&assembled(src), src);
        assert!(matches!(err, PipeError::Decode { pc: at, .. } if at == pc), "{src}: {err:?}");
    }
}

#[test]
fn pcs_outside_the_program_fault_alike() {
    for (src, pc) in [
        // `jalr` clears bit 0 only: 6 stays misaligned.
        ("li t0, 7\njalr zero, 0(t0)\nebreak", 6),
        ("li t0, 2\njalr ra, 4(t0)\nebreak", 6),
        ("li t0, 4000\njr t0\nebreak", 4000),
        ("li t0, -4\njalr ra, 0(t0)\nebreak", 0xffff_fffc),
        ("beq zero, zero, .+6\nebreak", 6),
        ("j .+64\nebreak", 64),
        // Running off the end.
        ("li a0, 1\naddi a0, a0, 1", 8),
    ] {
        let err = check_fault(&assembled(src), src);
        assert_eq!(err, PipeError::PcOutOfRange { pc }, "{src}");
    }
}

#[test]
fn local_memory_faults_at_every_width_fault_alike() {
    for (access, base) in [
        ("lb a0, 0(s0)", 8192),
        ("lbu a0, 0(s0)", 8192),
        ("lh a0, 0(s0)", 8191),
        ("lhu a0, 0(s0)", 8191),
        ("lw a0, 0(s0)", 8190),
        ("lw a0, 0(s0)", -4),
        ("sb t1, 0(s0)", 8192),
        ("sh t1, 0(s0)", 8191),
        ("sw t1, 0(s0)", 8189),
    ] {
        let src = format!(
            "li s0, 4096\nli t1, -3\nsw t1, 0(s0)\nlw a1, 0(s0)\nli s0, {base}\n{access}\nebreak"
        );
        let program = assembled(&src);
        let err = check_fault(&program, &src);
        let (pc, addr) = (4 * (program.len() as u32 - 2), base as u32);
        assert!(
            matches!(err, PipeError::Mem { pc: at, source } if at == pc && source.addr == addr),
            "{src}: {err:?}"
        );
    }
    // The L2 window faults through the same path.
    let src = "li a0, 5\nli t0, 0x10000\nsw_l2 a0, 0(t0)\nebreak";
    let err = check_fault(&assembled(src), src);
    assert!(matches!(err, PipeError::Mem { pc: 8, source } if source.addr == 0x10000), "{err:?}");
}

/// Runs `program` under every budget in `budgets`, resuming after each
/// stop: each stop must leave the golden model's PC and registers after
/// as many steps, and the run must reach its final state, retire count
/// and one-call priced counters, which equal a timed run's.
fn check_budget_sweep(program: &[u32], budgets: std::ops::RangeInclusive<u64>) {
    let mut gold = Interp::with_program(program, 8192);
    gold.run(1_000_000).expect("golden model halts");
    let mut whole = Pipeline::new(program.to_vec(), FlatMem::new(8192));
    assert!(matches!(
        whole.run_functional(u64::MAX),
        Ok((FunctionalStop::Event(Event::Halted), _))
    ));
    let mut timed = Pipeline::new(program.to_vec(), FlatMem::new(8192));
    timed.run(1_000_000).expect("the timed run halts");
    assert_eq!(whole.stats(), timed.stats(), "priced and timed counters differ");
    for budget in budgets {
        let mut cpu = Pipeline::new(program.to_vec(), FlatMem::new(8192));
        let mut stepped = Interp::with_program(program, 8192);
        let mut retired = 0;
        loop {
            let (stop, n) = cpu.run_functional(budget).expect("no fault");
            retired += n;
            for _ in 0..n {
                stepped.step().expect("golden model steps");
            }
            assert_eq!(cpu.pc(), stepped.pc(), "budget {budget}: resume PC after {retired}");
            for reg in Reg::all() {
                assert_eq!(cpu.reg(reg), stepped.reg(reg), "budget {budget}: {reg} after {retired}");
            }
            match stop {
                FunctionalStop::Budget => assert_eq!(n, budget, "budget {budget}"),
                FunctionalStop::Event(Event::Halted) => break,
                other => panic!("budget {budget}: unexpected stop {other:?}"),
            }
        }
        assert_eq!(retired, gold.retired(), "budget {budget}");
        assert_eq!(cpu.stats(), whole.stats(), "budget {budget}: counters depend on the budget");
        assert_eq!(&cpu.mem().local()[4096..8192], &gold.mem()[4096..8192], "budget {budget}");
    }
}

/// Budget stops inside a loop, at every budget from 1 to 13 and so at
/// every position inside and across its blocks.
#[test]
fn budget_stops_inside_a_loop_resume_exactly() {
    let program = assembled(
        "      li s0, 4096
               li t0, 9
               li t1, 0
        loop:  lw t2, 0(s0)
               add t1, t1, t0
               addi t2, t2, 3
               sw t2, 0(s0)
               andi t3, t0, 1
               beqz t3, skip
               xori t1, t1, 5
        skip:  addi t0, t0, -1
               bnez t0, loop
               sw t1, 4(s0)
               ebreak",
    );
    check_budget_sweep(&program, 1..=13);
}

// ---- fused pairs ----

/// Every fused form (see `Program`), each on operands that tell it from
/// its two halves run apart or in the other order: the second half reads
/// or overwrites the first's destination, or the first overwrites the
/// second's source; loads zero-extend a byte with its top bit set; and
/// each terminator branches both ways, `blt` on values whose signed and
/// unsigned orders differ. No branch targets a pair's second word, so
/// every pair here is fused.
const FUSED_FORMS: &str = "
        li s0, 4096
        li t0, 0x80
        sb t0, 0(s0)
        li t0, 7
        sb t0, 1(s0)
        li t5, 40
        # addi + addi
        addi t1, t0, 5
        addi t2, t1, -3
        addi t3, t0, 1
        addi t3, t3, 1
        addi t4, t5, 1
        addi t5, t4, 2
        # lbu + lbu
        lbu a0, 0(s0)
        lbu a1, 1(s0)
        lbu a2, 0(s0)
        lbu a2, 1(s0)
        # add + add
        add a3, a0, a1
        add a3, a3, t1
        add a4, a1, a2
        add a1, a4, a4
        # addi + bne, a counter closing a loop
        li s1, 3
loop1:  add s2, s2, s1
        addi s1, s1, -1
        bnez s1, loop1
        # addi + bne, an li of the compared value: taken, then not
        li t0, 7
        bne a1, t0, skip1
        addi s3, s3, 100
skip1:  li t0, 28
        bne a1, t0, skip2
        addi s3, s3, 1
        # addi + blt, an li of the bound: taken only as signed, then not
skip2:  li t1, -5
        li t0, -1
        blt t1, t0, skip3
        addi s4, s4, 100
skip3:  li t0, -6
        blt t1, t0, skip4
        addi s4, s4, 1
        # addi + blt closing a loop
skip4:  addi s5, s5, 1
        li t0, 5
        blt s5, t0, skip4
        # x0 as the destination of either half
        li t0, 9
        addi zero, t0, 5
        addi a5, zero, 1
        addi a6, t0, 1
        addi zero, a6, 1
        lbu zero, 0(s0)
        lbu a7, 1(s0)
        lbu s6, 0(s0)
        lbu zero, 1(s0)
        add zero, t0, t0
        add s7, zero, t0
        add s8, t0, t0
        add zero, s8, s8
        addi zero, zero, 1
        bnez zero, bad
        li zero, 5
        bne zero, t0, good
bad:    addi s9, s9, 1000
good:   sw s9, 8(s0)
        ebreak";

#[test]
fn fused_forms_match_golden_model() {
    assert_equivalent(FUSED_FORMS);
}

/// Budget stops at every position of the fused forms' program, between
/// the two halves of each pair included, resume exactly.
#[test]
fn budget_stops_between_fused_halves_resume_exactly() {
    check_budget_sweep(&assembled(FUSED_FORMS), 1..=24);
}

/// A `jalr` may land on the second word of a fused pair, which then runs
/// alone: here the first `addi` is skipped, and the pair after the
/// landing word still runs whole.
#[test]
fn a_jalr_onto_a_pairs_second_word_runs_it_alone() {
    assert_equivalent(
        "      auipc t1, 0
               jalr ra, 12(t1)
               addi a0, a0, 1
               addi a1, a0, 2
               addi a2, a1, 3
               addi a3, a2, 4
               ebreak",
    );
}

/// A memory fault in either half of a fused load pair: the PC is the
/// faulting word's, and a fault in the second half leaves the first
/// half retired (its destination written).
#[test]
fn faults_in_either_half_of_a_pair_fault_alike() {
    for (first, second, at) in [("0(s0)", "0(s1)", 20), ("0(s1)", "0(s0)", 16)] {
        let src = format!(
            "li s0, 4096\nli s1, 8192\nli t0, 5\nsb t0, 0(s0)\nlbu a0, {first}\nlbu a1, {second}\nebreak"
        );
        let program = assembled(&src);
        let err = check_fault(&program, &src);
        assert!(
            matches!(err, PipeError::Mem { pc, source } if pc == at && source.addr == 8192),
            "{src}: {err:?}"
        );
    }
}

// ---- the data-cache port ----

/// A banked port like the NCPU core's: SRAM banks behind an address
/// arbiter, the first registered one its data cache, mapped at 4096
/// (so in-bank offsets differ from addresses), with a second bank above
/// it. L2 accesses go to a flat L2.
#[derive(Debug, Clone)]
struct Banked {
    banks: AddressArbiter,
    l2: FlatMem,
}

/// A bank's bytes, reads, writes and generation.
type BankState = (Vec<u8>, u64, u64, u64);

impl Banked {
    fn new() -> Banked {
        let mut banks = AddressArbiter::new();
        banks.add_bank("cache", 4096, 2048);
        banks.add_bank("other", 6144, 2048);
        Banked { banks, l2: FlatMem::with_l2(0, 256) }
    }

    /// Each bank's bytes, read and write counts and generation, and the
    /// L2 access count.
    fn state(&self) -> (Vec<BankState>, u64) {
        let banks = self.banks.iter();
        let banks = banks.map(|(_, b)| (b.bytes().to_vec(), b.reads(), b.writes(), b.generation()));
        (banks.collect(), self.l2.l2_accesses())
    }
}

impl MemPort for Banked {
    fn read_local(&mut self, addr: u32, width: u32) -> Result<u32, MemFault> {
        self.banks.read(addr, width).map_err(|_| MemFault { addr })
    }

    fn write_local(&mut self, addr: u32, width: u32, value: u32) -> Result<(), MemFault> {
        self.banks.write(addr, width, value).map_err(|_| MemFault { addr })
    }

    fn read_l2(&mut self, addr: u32) -> Result<u32, MemFault> {
        self.l2.read_l2(addr)
    }

    fn write_l2(&mut self, addr: u32, value: u32) -> Result<(), MemFault> {
        self.l2.write_l2(addr, value)
    }

    fn data_cache(&mut self) -> Option<(u32, &mut SramBank)> {
        self.banks.iter_mut().next()
    }
}

/// Runs `src` on the banked port timed, functionally in one call, and
/// functionally one instruction per call: all three must end with the
/// same bank bytes, per-bank read and write counts and generations, and
/// L2 accesses, and fail with the same error if they fail. The
/// functional runs must also end with the same registers, PC and
/// counters; without a fault, so must the timed run. Returns the error.
fn check_banked(src: &str) -> Option<PipeError> {
    let program = assembled(src);
    let mut timed = Pipeline::new(program.clone(), Banked::new());
    let timed_err = timed.run(1_000_000).err();
    let mut ends = Vec::new();
    for budget in [u64::MAX, 1] {
        let mut cpu = Pipeline::new(program.clone(), Banked::new());
        let err = loop {
            match cpu.run_functional(budget) {
                Ok((FunctionalStop::Event(Event::Halted), _)) => break None,
                Ok((FunctionalStop::L2Read, _)) => panic!("{src}: no lw_l2 here"),
                Ok(_) => {}
                Err(e) => break Some(e),
            }
        };
        assert_eq!(err, timed_err, "budget {budget}: {src}");
        assert_eq!(cpu.mem().state(), timed.mem().state(), "budget {budget}: {src}");
        for (_, bank) in cpu.mem().banks.iter() {
            assert_eq!(bank.generation(), bank.writes(), "every write bumps the generation");
        }
        let regs: Vec<u32> = Reg::all().map(|reg| cpu.reg(reg)).collect();
        if err.is_none() {
            assert_eq!(cpu.pc(), timed.pc(), "budget {budget}: {src}");
            assert_eq!(regs, Reg::all().map(|reg| timed.reg(reg)).collect::<Vec<_>>(), "{src}");
            assert_eq!(cpu.stats(), timed.stats(), "budget {budget}: {src}");
        }
        ends.push((regs, cpu.pc(), *cpu.stats()));
    }
    assert_eq!(ends[0], ends[1], "{src}");
    timed_err
}

/// In-window loads and stores of every width, at both edges of the
/// data-cache bank, next to accesses of the bank above it and an
/// `sw_l2`, count alike through the direct port and the arbiter.
#[test]
fn data_cache_accesses_count_like_the_port() {
    let err = check_banked(
        "li s0, 4096
         li s1, 6140
         li t0, -3
         sw t0, 0(s0)
         sh t0, 4(s0)
         sb t0, 7(s0)
         lw a0, 0(s0)
         lh a1, 4(s0)
         lhu a2, 4(s0)
         lb a3, 7(s0)
         lbu a4, 7(s0)
         lbu a5, 0(s0)
         sw t0, 0(s1)
         lw a6, 0(s1)
         sb t0, 3(s1)
         lbu a7, 3(s1)
         sh t0, 2(s1)
         sb t0, 4(s1)
         lbu s2, 4(s1)
         lw s3, 4(s1)
         sw s3, 8(s1)
         li t1, 64
         sw_l2 t0, 0(t1)
         ebreak",
    );
    assert_eq!(err, None);
}

/// Accesses that start in the data-cache bank and cross its end, and
/// accesses no bank maps, fault alike through either path with the same
/// counts and generations behind them.
#[test]
fn accesses_across_the_data_cache_edge_fault_alike() {
    for (access, base) in [
        ("lw a0, 0(s0)", 6142),
        ("lh a0, 0(s0)", 6143),
        ("lhu a0, 0(s0)", 6143),
        ("sw t1, 0(s0)", 6141),
        ("sh t1, 0(s0)", 6143),
        ("lw a0, 0(s0)", 8190),
        ("lbu a0, 0(s0)", 4095),
        ("sb t1, 0(s0)", 8192),
    ] {
        let src = format!(
            "li s1, 4096\nli t1, -3\nsw t1, 0(s1)\nlw a1, 0(s1)\nli s0, {base}\n{access}\nebreak"
        );
        let err = check_banked(&src);
        assert!(
            matches!(err, Some(PipeError::Mem { source, .. }) if source.addr == base as u32),
            "{src}: {err:?}"
        );
    }
}

// ---- property-based differential testing ----

const REGS: [&str; 8] = ["t0", "t1", "t2", "a0", "a1", "a2", "s2", "s3"];
const ALU_R: [&str; 11] =
    ["add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and", "mul"];
const ALU_I: [&str; 9] =
    ["addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai"];

#[derive(Debug, Clone)]
enum Stmt {
    AluR(usize, usize, usize, usize),
    AluI(usize, usize, usize, i32),
    Store(u32, usize, u32),
    Load(u32, usize, u32),
    SkipIf(usize, usize, usize, bool),
}

/// Field-wise shrinking; every field shrinks toward 0 and stays inside the
/// range `render` accepts (it re-maps out-of-range values defensively).
impl Shrink for Stmt {
    fn shrink(&self) -> Vec<Stmt> {
        match self.clone() {
            Stmt::AluR(a, b, c, d) => {
                (a, b, c, d).shrink().into_iter().map(|(a, b, c, d)| Stmt::AluR(a, b, c, d)).collect()
            }
            Stmt::AluI(a, b, c, d) => {
                (a, b, c, d).shrink().into_iter().map(|(a, b, c, d)| Stmt::AluI(a, b, c, d)).collect()
            }
            Stmt::Store(a, b, c) => {
                (a, b, c).shrink().into_iter().map(|(a, b, c)| Stmt::Store(a, b, c)).collect()
            }
            Stmt::Load(a, b, c) => {
                (a, b, c).shrink().into_iter().map(|(a, b, c)| Stmt::Load(a, b, c)).collect()
            }
            Stmt::SkipIf(a, b, c, d) => {
                (a, b, c, d).shrink().into_iter().map(|(a, b, c, d)| Stmt::SkipIf(a, b, c, d)).collect()
            }
        }
    }
}

fn any_stmt(rng: &mut Rng) -> Stmt {
    match rng.gen_range(0u32..5) {
        0 => Stmt::AluR(
            rng.gen_range(0..ALU_R.len()),
            rng.gen_range(0..8usize),
            rng.gen_range(0..8usize),
            rng.gen_range(0..8usize),
        ),
        1 => Stmt::AluI(
            rng.gen_range(0..ALU_I.len()),
            rng.gen_range(0..8usize),
            rng.gen_range(0..8usize),
            rng.gen_range(-2048i32..=2047),
        ),
        2 => Stmt::Store(rng.gen_range(0u32..256), rng.gen_range(0..8usize), rng.gen_range(0u32..3)),
        3 => Stmt::Load(rng.gen_range(0u32..256), rng.gen_range(0..8usize), rng.gen_range(0u32..5)),
        _ => Stmt::SkipIf(
            rng.gen_range(0..8usize),
            rng.gen_range(0..8usize),
            rng.gen_range(1..3usize),
            rng.gen::<bool>(),
        ),
    }
}

fn render(stmts: &[Stmt]) -> String {
    let mut src = String::from("li s0, 4096\n");
    // Give registers distinct initial values.
    for (i, r) in REGS.iter().enumerate() {
        src.push_str(&format!("li {r}, {}\n", (i as i64 + 1) * 1103515245 % 9973));
    }
    let mut label = 0usize;
    let mut pending: Vec<(usize, usize)> = Vec::new(); // (label, stmts remaining)
    for stmt in stmts {
        match stmt {
            Stmt::AluR(op, rd, rs1, rs2) => {
                // Shift amounts must stay in range; mask the source first.
                let m = ALU_R[*op % ALU_R.len()];
                if matches!(m, "sll" | "srl" | "sra") {
                    src.push_str(&format!("andi {}, {}, 31\n", REGS[*rs2 % 8], REGS[*rs2 % 8]));
                }
                src.push_str(&format!(
                    "{m} {}, {}, {}\n",
                    REGS[*rd % 8],
                    REGS[*rs1 % 8],
                    REGS[*rs2 % 8]
                ));
            }
            Stmt::AluI(op, rd, rs1, imm) => {
                let m = ALU_I[*op % ALU_I.len()];
                let imm = if matches!(m, "slli" | "srli" | "srai") {
                    imm & 31
                } else {
                    (*imm).clamp(-2048, 2047)
                };
                src.push_str(&format!("{m} {}, {}, {imm}\n", REGS[*rd % 8], REGS[*rs1 % 8]));
            }
            Stmt::Store(slot, rs, w) => {
                let w = (*w % 3) as usize;
                let op = ["sb", "sh", "sw"][w];
                let align = [1u32, 2, 4][w];
                src.push_str(&format!("{op} {}, {}(s0)\n", REGS[*rs % 8], (slot % 256) * align));
            }
            Stmt::Load(slot, rd, w) => {
                let w = (*w % 5) as usize;
                let op = ["lb", "lh", "lw", "lbu", "lhu"][w];
                let align = [1u32, 2, 4, 1, 2][w];
                src.push_str(&format!("{op} {}, {}(s0)\n", REGS[*rd % 8], (slot % 256) * align));
            }
            Stmt::SkipIf(a, b, skip, eq) => {
                let op = if *eq { "beq" } else { "bne" };
                src.push_str(&format!("{op} {}, {}, lbl{label}\n", REGS[*a % 8], REGS[*b % 8]));
                pending.push((label, *skip));
                label += 1;
            }
        }
        // Close any branch whose skip window has elapsed.
        for entry in pending.iter_mut() {
            if entry.1 == 0 {
                src.push_str(&format!("lbl{}:\n", entry.0));
            }
            entry.1 = entry.1.wrapping_sub(1);
        }
        pending.retain(|e| e.1 != usize::MAX);
    }
    for (lbl, _) in pending {
        src.push_str(&format!("lbl{lbl}:\n"));
    }
    src.push_str("ebreak\n");
    src
}

/// The minimal counterexample proptest once found and persisted for this
/// suite (`differential.proptest-regressions`, since retired): a single
/// `add t0, t0, t0`, which shook out a writeback-forwarding bug. Pinned
/// explicitly so it outlives the harness that discovered it.
#[test]
fn regression_minimal_alu_r() {
    assert_equivalent(&render(&[Stmt::AluR(0, 0, 0, 0)]));
}

/// Random programs of ALU ops, memory accesses and forward branches
/// produce identical state on the pipeline and the golden model.
#[test]
fn random_programs_match_golden_model() {
    Prop::new("pipeline::random_programs_match_golden_model")
        .corpus(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/differential.seeds"))
        .run(
            |rng| {
                let n = rng.gen_range(1usize..40);
                (0..n).map(|_| any_stmt(rng)).collect::<Vec<Stmt>>()
            },
            |stmts| check_equivalent(&render(stmts)),
        );
}
