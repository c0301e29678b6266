//! The predecoded instruction memory faults exactly like decoding on
//! demand: an undecodable word faults only when it reaches ID, with the
//! same `pc`, at the same cycle, and never when it is only fetched
//! speculatively or not fetched at all. The expected cycles are those of
//! the earlier pipeline that decoded every fetched word in ID.

use ncpu_isa::asm::assemble;
use ncpu_isa::{BranchOp, DecodeError, Instruction, Reg};
use ncpu_pipeline::{FlatMem, PipeError, Pipeline, Program};

/// Opcode `0x7f` is no instruction.
const BAD: u32 = 0xffff_ffff;

fn run(program: Vec<u32>) -> (Result<u64, PipeError>, Pipeline<FlatMem>) {
    let mut cpu = Pipeline::new(program, FlatMem::new(64));
    let result = cpu.run(1_000);
    (result, cpu)
}

#[test]
fn undecodable_word_after_ebreak_never_faults() {
    let mut program = assemble("li a0, 1\nebreak").unwrap();
    program.push(BAD);
    let (result, cpu) = run(program);
    assert_eq!(result, Ok(6));
    assert_eq!((cpu.stats().retired, cpu.reg(Reg::A0)), (2, 1));
}

#[test]
fn undecodable_words_in_a_taken_branch_shadow_never_fault() {
    let skip = Instruction::Branch { op: BranchOp::Eq, rs1: Reg::ZERO, rs2: Reg::ZERO, offset: 12 };
    let mut program = vec![skip.encode().unwrap(), BAD, BAD];
    program.extend(assemble("li a0, 7\nebreak").unwrap());
    let (result, cpu) = run(program);
    assert_eq!(result, Ok(9));
    assert_eq!((cpu.stats().retired, cpu.reg(Reg::A0)), (3, 7));
}

#[test]
fn undecodable_word_reaching_id_faults_at_its_pc_and_cycle() {
    let mut program = assemble("li a0, 1\nli a1, 2\nadd a2, a0, a1").unwrap();
    program.push(BAD);
    program.extend(assemble("ebreak").unwrap());
    let (result, cpu) = run(program);
    let source = DecodeError::UnknownOpcode { word: BAD, opcode: 0x7f };
    assert_eq!(result, Err(PipeError::Decode { pc: 12, source }));
    assert_eq!((cpu.stats().cycles, cpu.stats().retired), (5, 1));
}

#[test]
fn fall_through_after_a_loop_faults_when_it_reaches_id() {
    let mut program = assemble("li a0, 3\nloop: addi a0, a0, -1\nbnez a0, loop").unwrap();
    program.push(0);
    let (result, cpu) = run(program);
    let source = DecodeError::UnknownOpcode { word: 0, opcode: 0 };
    assert_eq!(result, Err(PipeError::Decode { pc: 12, source }));
    assert_eq!((cpu.stats().cycles, cpu.stats().retired), (13, 5));
}

#[test]
fn a_shared_program_image_runs_like_its_words() {
    let words = assemble("li a0, 20\nadd a0, a0, a0\nebreak").unwrap();
    let program = Program::new(words.clone());
    let mut shared = Pipeline::new(&program, FlatMem::new(64));
    let mut fresh = Pipeline::new(words.clone(), FlatMem::new(64));
    assert_eq!(shared.run(100), fresh.run(100));
    assert_eq!(shared.reg(Reg::A0), 40);
    assert_eq!(shared.imem(), &words[..]);
    assert_eq!(shared.stats(), fresh.stats());
}
