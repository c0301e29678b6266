//! Predecoded instruction memory, and its lowering for the functional
//! mode.
//!
//! [`Program`] decodes every word once. For
//! [`Pipeline::run_functional`](crate::Pipeline::run_functional) it also
//! lowers the program into a table of micro-ops, one slot per word:
//!
//! * Each word's slot holds its own operation, with register indices as
//!   bytes and with everything the word's address fixes (`auipc`
//!   values, link addresses, `jal` and branch targets) computed.
//! * A destination of `x0` is lowered to [`SINK`], a slot past the 32
//!   architectural registers that nothing reads. Reads of `x0` read
//!   slot 0, which no op writes, so the loop never re-zeroes `x0`.
//! * Inside each basic block, chosen adjacent pairs of words are fused:
//!   the first word's slot holds the pair as one op. Pairs are chosen
//!   from the block's end backwards, so a loop-closing `addi` + `bne`
//!   or `blt` (a counter's step, or an `li` of the bound) always fuses
//!   into one compare-and-branch terminator. No pair spans a jump or branch
//!   target. The second word's slot keeps its own op, so execution that
//!   enters there (a `jalr` target, a resumed budget stop) runs it
//!   alone, and the pairing of the rest of the block does not depend on
//!   where execution entered.
//!
//! The functional mode prices its execution from the program's block
//! table, filled on first use (see [`Program::block_timing`]).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use ncpu_isa::{decode, AluOp, BranchOp, DecodeError, Instruction, LoadOp, Reg, StoreOp};

use crate::core::PipelineConfig;
use crate::stats::PipeStats;

/// A program image decoded once: the raw words next to each word's
/// decode result, which the pipeline's ID stage takes instead of calling
/// [`decode`] on every fetch, and the micro-op table the functional mode
/// dispatches on: one slot per word, with `x0` destinations lowered to a
/// sink and adjacent pairs fused inside each basic block.
///
/// A word that fails to decode is kept as its [`DecodeError`] and faults
/// only if it reaches ID (or, functionally, is executed), exactly like
/// decoding on demand — data or padding words that are never executed
/// never fault.
///
/// Cloning shares the image (reference-counted), so an engine that runs
/// the same program for every item decodes and lowers it once and hands
/// each load a handle, and every clone shares one block table.
#[derive(Debug, Clone)]
pub struct Program(Arc<Image>);

struct Image {
    words: Vec<u32>,
    decoded: Vec<Result<Instruction, DecodeError>>,
    ops: Vec<Op>,
    blocks: Mutex<HashMap<BlockKey, Arc<BlockTiming>>>,
}

impl fmt::Debug for Image {
    /// Leaves the block table out: it is a cache, not part of the
    /// program's value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Image")
            .field("words", &self.words)
            .field("decoded", &self.decoded)
            .field("ops", &self.ops)
            .finish_non_exhaustive()
    }
}

/// How the pipeline entered a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Entry {
    /// From a drained pipeline: a restart, or the instruction after a
    /// serializing `trans_bnn` or `trans_cpu` retired.
    Drained,
    /// By a taken jump or branch, which redirects fetch in EX: when it
    /// retires two cycles later, the target is fetched and decoded.
    Taken,
}

/// A block of the program's table: the straight-line run of words
/// `first..=last` that ends at a taken transfer or a serializing
/// instruction (every conditional branch before `last` falls through),
/// entered as `entry` on a pipeline with latencies `config`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BlockKey {
    pub(crate) first: u32,
    pub(crate) last: u32,
    pub(crate) entry: Entry,
    pub(crate) config: PipelineConfig,
}

/// What one visit of a block adds to the timed pipeline, from the
/// retirement that ends the previous block (or the restart) to its own
/// last retirement.
#[derive(Debug)]
pub(crate) struct BlockTiming {
    /// Counter deltas; `cycles` is the visit's length.
    pub(crate) stats: PipeStats,
    /// L2 touch cycles, relative to the visit's start.
    pub(crate) touches: Box<[u64]>,
}

impl Program {
    /// Decodes and lowers every word of `words`.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit the 32-bit address space.
    pub fn new(words: Vec<u32>) -> Program {
        assert!(words.len() <= 1 << 30, "program exceeds the 32-bit address space");
        let decoded: Vec<_> = words.iter().map(|&w| decode(w)).collect();
        let singles: Vec<Op> = decoded
            .iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Ok(instr) => Op::lower(*instr, i as u32 * 4),
                Err(source) => Op::Invalid(*source),
            })
            .collect();
        let ops = fuse_blocks(&singles);
        Program(Arc::new(Image { words, decoded, ops, blocks: Mutex::default() }))
    }

    /// The raw instruction words.
    pub fn words(&self) -> &[u32] {
        &self.0.words
    }

    /// Whether any word lowers to an `lw_l2`: the program may read the
    /// shared L2. (A word that does not decode reads nothing.)
    pub fn reads_l2(&self) -> bool {
        self.0.ops.contains(&Op::LwL2)
    }

    /// The decode result of word `index`, if it exists.
    pub(crate) fn decoded(&self, index: usize) -> Option<Result<Instruction, DecodeError>> {
        self.0.decoded.get(index).copied()
    }

    /// Every word's micro-op, indexed by word: the word's own op, or at
    /// the first word of a fused pair, the pair.
    pub(crate) fn ops(&self) -> &[Op] {
        &self.0.ops
    }

    /// The timing of one visit of block `key`, measured on the timed
    /// pipeline the first time any clone of this program asks for it.
    /// Entries never change once inserted, so a lock poisoned by a
    /// panicking holder still guards a consistent table.
    pub(crate) fn block_timing(&self, key: BlockKey) -> Arc<BlockTiming> {
        let table = || self.0.blocks.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(timing) = table().get(&key) {
            return Arc::clone(timing);
        }
        let timing = Arc::new(crate::core::measure_block(self, key));
        Arc::clone(table().entry(key).or_insert(timing))
    }
}

impl From<Vec<u32>> for Program {
    fn from(words: Vec<u32>) -> Program {
        Program::new(words)
    }
}

impl From<&Program> for Program {
    /// Shares the decoded image (no copy, no decode).
    fn from(program: &Program) -> Program {
        program.clone()
    }
}

/// The register slot that `x0` destinations write: past the 32
/// architectural registers, so nothing reads it back.
pub(crate) const SINK: u8 = 32;

/// Fuses pairs of adjacent words inside each basic block, walking every
/// block from its end backwards, and returns the table: the first word
/// of each fused pair holds the pair, every other word its own op.
///
/// A block starts at every jump or branch target; a pair never spans
/// one, so entering a block at its first word always runs its pairs.
/// A pair never starts with a control transfer, so no pair spans the
/// other block boundary (the word after a jump or a stop) either.
fn fuse_blocks(singles: &[Op]) -> Vec<Op> {
    let mut target = vec![false; singles.len()];
    for op in singles {
        if let Some(t) = op.target() {
            if t.is_multiple_of(4) && ((t / 4) as usize) < singles.len() {
                target[(t / 4) as usize] = true;
            }
        }
    }
    let mut ops = singles.to_vec();
    // `next` is the word after the candidate pair `(next - 2, next - 1)`.
    let mut next = singles.len();
    while next > 1 {
        let first = next - 2;
        let pair = if target[first + 1] { None } else { singles[first].fuse(singles[first + 1]) };
        match pair {
            Some(pair) => {
                ops[first] = pair;
                next -= 2;
            }
            None => next -= 1,
        }
    }
    ops
}

/// One slot of the functional mode's micro-op table: one variant per
/// concrete operation, register indices as plain bytes (a destination
/// of `x0` as [`SINK`]), immediates sign-extended to `u32`, and
/// everything the instruction's own address fixes (`auipc` values, link
/// addresses, `jal` and branch targets) computed at lowering, so
/// executing it takes a single `match`.
///
/// The fused variants run two adjacent words: the first word's op, then
/// the second's, with the first's fields numbered 1 and the second's 2
/// (a terminator's branch fields keep their single names). Their 12-bit
/// immediates are kept as `i16`, which keeps the slot at 12 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Lui { rd: u8, value: u32 },
    /// `value` is the instruction's address plus its immediate.
    Auipc { rd: u8, value: u32 },
    Jal { rd: u8, link: u32, target: u32 },
    Jalr { rd: u8, rs1: u8, offset: u32, link: u32 },
    Beq { rs1: u8, rs2: u8, target: u32 },
    Bne { rs1: u8, rs2: u8, target: u32 },
    Blt { rs1: u8, rs2: u8, target: u32 },
    Bge { rs1: u8, rs2: u8, target: u32 },
    Bltu { rs1: u8, rs2: u8, target: u32 },
    Bgeu { rs1: u8, rs2: u8, target: u32 },
    Lb { rd: u8, rs1: u8, offset: u32 },
    Lh { rd: u8, rs1: u8, offset: u32 },
    Lw { rd: u8, rs1: u8, offset: u32 },
    Lbu { rd: u8, rs1: u8, offset: u32 },
    Lhu { rd: u8, rs1: u8, offset: u32 },
    Sb { rs1: u8, rs2: u8, offset: u32 },
    Sh { rs1: u8, rs2: u8, offset: u32 },
    Sw { rs1: u8, rs2: u8, offset: u32 },
    Addi { rd: u8, rs1: u8, imm: u32 },
    Slti { rd: u8, rs1: u8, imm: u32 },
    Sltiu { rd: u8, rs1: u8, imm: u32 },
    Xori { rd: u8, rs1: u8, imm: u32 },
    Ori { rd: u8, rs1: u8, imm: u32 },
    Andi { rd: u8, rs1: u8, imm: u32 },
    /// Shift immediates are already masked to five bits.
    Slli { rd: u8, rs1: u8, shamt: u32 },
    Srli { rd: u8, rs1: u8, shamt: u32 },
    Srai { rd: u8, rs1: u8, shamt: u32 },
    Add { rd: u8, rs1: u8, rs2: u8 },
    Sub { rd: u8, rs1: u8, rs2: u8 },
    Sll { rd: u8, rs1: u8, rs2: u8 },
    Slt { rd: u8, rs1: u8, rs2: u8 },
    Sltu { rd: u8, rs1: u8, rs2: u8 },
    Xor { rd: u8, rs1: u8, rs2: u8 },
    Srl { rd: u8, rs1: u8, rs2: u8 },
    Sra { rd: u8, rs1: u8, rs2: u8 },
    Or { rd: u8, rs1: u8, rs2: u8 },
    And { rd: u8, rs1: u8, rs2: u8 },
    Mul { rd: u8, rs1: u8, rs2: u8 },
    Ecall,
    Ebreak,
    MvNeu { rs1: u8, neuron: u16 },
    TransBnn,
    TransCpu,
    TriggerBnn,
    SwL2 { rs1: u8, rs2: u8, offset: u32 },
    /// The functional mode stops before an `lw_l2`, so it keeps no operands.
    LwL2,
    /// A word that does not decode; executing it reports this error.
    Invalid(DecodeError),
    /// `addi` then `addi`.
    AddiAddi { rd1: u8, rs1: u8, imm1: i16, rd2: u8, rs2: u8, imm2: i16 },
    /// `lbu` then `lbu`.
    LbuLbu { rd1: u8, rs1: u8, offset1: i16, rd2: u8, rs2: u8, offset2: i16 },
    /// `add` then `add`: `rd1 = a1 + b1`, then `rd2 = a2 + b2`.
    AddAdd { rd1: u8, a1: u8, b1: u8, rd2: u8, a2: u8, b2: u8 },
    /// `addi` then `bne`: a loop counter's step and its test, or an `li`
    /// of the compared value and the compare.
    AddiBne { rd: u8, rs: u8, imm: i16, rs1: u8, rs2: u8, target: u32 },
    /// `addi` then `blt`: an `li` of the bound and the compare.
    AddiBlt { rd: u8, rs: u8, imm: i16, rs1: u8, rs2: u8, target: u32 },
}

impl Op {
    /// Lowers `instr`, located at byte address `pc`.
    ///
    /// # Panics
    ///
    /// Panics on an `OP-IMM` form of `sub` or `mul`, which [`decode`]
    /// never yields (neither has an immediate encoding).
    fn lower(instr: Instruction, pc: u32) -> Op {
        let r = |reg: Reg| reg.index() as u8;
        // A destination: `x0` writes go to the sink.
        let w = |reg: Reg| if reg == Reg::ZERO { SINK } else { r(reg) };
        match instr {
            Instruction::Lui { rd, imm } => Op::Lui { rd: w(rd), value: imm as u32 },
            Instruction::Auipc { rd, imm } => {
                Op::Auipc { rd: w(rd), value: pc.wrapping_add(imm as u32) }
            }
            Instruction::Jal { rd, offset } => Op::Jal {
                rd: w(rd),
                link: pc.wrapping_add(4),
                target: pc.wrapping_add(offset as u32),
            },
            Instruction::Jalr { rd, rs1, offset } => Op::Jalr {
                rd: w(rd),
                rs1: r(rs1),
                offset: offset as u32,
                link: pc.wrapping_add(4),
            },
            Instruction::Branch { op, rs1, rs2, offset } => {
                let (rs1, rs2, target) = (r(rs1), r(rs2), pc.wrapping_add(offset as u32));
                match op {
                    BranchOp::Eq => Op::Beq { rs1, rs2, target },
                    BranchOp::Ne => Op::Bne { rs1, rs2, target },
                    BranchOp::Lt => Op::Blt { rs1, rs2, target },
                    BranchOp::Ge => Op::Bge { rs1, rs2, target },
                    BranchOp::Ltu => Op::Bltu { rs1, rs2, target },
                    BranchOp::Geu => Op::Bgeu { rs1, rs2, target },
                }
            }
            Instruction::Load { op, rd, rs1, offset } => {
                let (rd, rs1, offset) = (w(rd), r(rs1), offset as u32);
                match op {
                    LoadOp::Byte => Op::Lb { rd, rs1, offset },
                    LoadOp::Half => Op::Lh { rd, rs1, offset },
                    LoadOp::Word => Op::Lw { rd, rs1, offset },
                    LoadOp::ByteU => Op::Lbu { rd, rs1, offset },
                    LoadOp::HalfU => Op::Lhu { rd, rs1, offset },
                }
            }
            Instruction::Store { op, rs1, rs2, offset } => {
                let (rs1, rs2, offset) = (r(rs1), r(rs2), offset as u32);
                match op {
                    StoreOp::Byte => Op::Sb { rs1, rs2, offset },
                    StoreOp::Half => Op::Sh { rs1, rs2, offset },
                    StoreOp::Word => Op::Sw { rs1, rs2, offset },
                }
            }
            Instruction::OpImm { op, rd, rs1, imm } => {
                let (rd, rs1, imm) = (w(rd), r(rs1), imm as u32);
                let shamt = imm & 0x1f;
                match op {
                    AluOp::Add => Op::Addi { rd, rs1, imm },
                    AluOp::Slt => Op::Slti { rd, rs1, imm },
                    AluOp::Sltu => Op::Sltiu { rd, rs1, imm },
                    AluOp::Xor => Op::Xori { rd, rs1, imm },
                    AluOp::Or => Op::Ori { rd, rs1, imm },
                    AluOp::And => Op::Andi { rd, rs1, imm },
                    AluOp::Sll => Op::Slli { rd, rs1, shamt },
                    AluOp::Srl => Op::Srli { rd, rs1, shamt },
                    AluOp::Sra => Op::Srai { rd, rs1, shamt },
                    AluOp::Sub | AluOp::Mul => unreachable!("decode yields no {op:?} immediate"),
                }
            }
            Instruction::Op { op, rd, rs1, rs2 } => {
                let (rd, rs1, rs2) = (w(rd), r(rs1), r(rs2));
                match op {
                    AluOp::Add => Op::Add { rd, rs1, rs2 },
                    AluOp::Sub => Op::Sub { rd, rs1, rs2 },
                    AluOp::Sll => Op::Sll { rd, rs1, rs2 },
                    AluOp::Slt => Op::Slt { rd, rs1, rs2 },
                    AluOp::Sltu => Op::Sltu { rd, rs1, rs2 },
                    AluOp::Xor => Op::Xor { rd, rs1, rs2 },
                    AluOp::Srl => Op::Srl { rd, rs1, rs2 },
                    AluOp::Sra => Op::Sra { rd, rs1, rs2 },
                    AluOp::Or => Op::Or { rd, rs1, rs2 },
                    AluOp::And => Op::And { rd, rs1, rs2 },
                    AluOp::Mul => Op::Mul { rd, rs1, rs2 },
                }
            }
            Instruction::Ecall => Op::Ecall,
            Instruction::Ebreak => Op::Ebreak,
            Instruction::MvNeu { rs1, neuron } => Op::MvNeu { rs1: r(rs1), neuron },
            Instruction::TransBnn => Op::TransBnn,
            Instruction::TransCpu => Op::TransCpu,
            Instruction::TriggerBnn => Op::TriggerBnn,
            Instruction::SwL2 { rs1, rs2, offset } => {
                Op::SwL2 { rs1: r(rs1), rs2: r(rs2), offset: offset as u32 }
            }
            Instruction::LwL2 { .. } => Op::LwL2,
        }
    }

    /// The target of a `jal` or a conditional branch.
    fn target(self) -> Option<u32> {
        match self {
            Op::Jal { target, .. }
            | Op::Beq { target, .. }
            | Op::Bne { target, .. }
            | Op::Blt { target, .. }
            | Op::Bge { target, .. }
            | Op::Bltu { target, .. }
            | Op::Bgeu { target, .. } => Some(target),
            _ => None,
        }
    }

    /// The fused op that runs `self` and then `next`, if the pair is one
    /// of the fused kinds.
    fn fuse(self, next: Op) -> Option<Op> {
        // Every 12-bit immediate fits; a wider one is never fused.
        let short = |imm: u32| i16::try_from(imm as i32).ok();
        Some(match (self, next) {
            (Op::Addi { rd: rd1, rs1, imm: imm1 }, Op::Addi { rd: rd2, rs1: rs2, imm: imm2 }) => {
                Op::AddiAddi { rd1, rs1, imm1: short(imm1)?, rd2, rs2, imm2: short(imm2)? }
            }
            (
                Op::Lbu { rd: rd1, rs1, offset: offset1 },
                Op::Lbu { rd: rd2, rs1: rs2, offset: offset2 },
            ) => Op::LbuLbu {
                rd1,
                rs1,
                offset1: short(offset1)?,
                rd2,
                rs2,
                offset2: short(offset2)?,
            },
            (Op::Add { rd: rd1, rs1: a1, rs2: b1 }, Op::Add { rd: rd2, rs1: a2, rs2: b2 }) => {
                Op::AddAdd { rd1, a1, b1, rd2, a2, b2 }
            }
            (Op::Addi { rd, rs1: rs, imm }, Op::Bne { rs1, rs2, target }) => {
                Op::AddiBne { rd, rs, imm: short(imm)?, rs1, rs2, target }
            }
            (Op::Addi { rd, rs1: rs, imm }, Op::Blt { rs1, rs2, target }) => {
                Op::AddiBlt { rd, rs, imm: short(imm)?, rs1, rs2, target }
            }
            _ => return None,
        })
    }

    /// The first word's op of a fused pair, or `self` unfused: what runs
    /// when the budget ends between a pair's two words.
    pub(crate) fn first(self) -> Op {
        match self {
            Op::AddiAddi { rd1: rd, rs1, imm1: imm, .. }
            | Op::AddiBne { rd, rs: rs1, imm, .. }
            | Op::AddiBlt { rd, rs: rs1, imm, .. } => Op::Addi { rd, rs1, imm: imm as u32 },
            Op::LbuLbu { rd1: rd, rs1, offset1: offset, .. } => {
                Op::Lbu { rd, rs1, offset: offset as u32 }
            }
            Op::AddAdd { rd1: rd, a1: rs1, b1: rs2, .. } => Op::Add { rd, rs1, rs2 },
            single => single,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncpu_isa::asm::assemble;

    /// `reads_l2` sees an `lw_l2` anywhere in the image, executed or not,
    /// and nothing else: an `sw_l2` writes the L2 without reading it.
    #[test]
    fn reads_l2_finds_any_lw_l2_word() {
        let program = |src: &str| Program::new(assemble(src).unwrap());
        assert!(program("li t0, 64\nlw_l2 a0, 0(t0)\nebreak").reads_l2());
        assert!(program("ebreak\nlw_l2 a0, 0(zero)").reads_l2());
        assert!(!program("li t0, 64\nsw_l2 a0, 0(t0)\nebreak").reads_l2());
        assert!(!Program::new(vec![0xffff_ffff]).reads_l2());
    }

    /// The name of each slot's variant, `-` for a pair's second word.
    fn slots(src: &str) -> Vec<String> {
        let program = Program::new(assemble(src).unwrap());
        let mut names = Vec::new();
        let mut ops = program.ops().iter();
        while let Some(op) = ops.next() {
            let name = format!("{op:?}");
            names.push(name.split([' ', '(']).next().unwrap().to_string());
            if op.first() != *op {
                ops.next();
                names.push("-".to_string());
            }
        }
        names
    }

    /// Pairs are chosen from each block's end backwards, so the loop's
    /// closing `addi` + `bnez` fuses even where the run of `addi`s before
    /// it is odd, and no pair spans a branch target.
    #[test]
    fn pairs_fuse_backwards_from_each_block_end() {
        let got = slots(
            "      li s0, 4096
             loop: lbu t2, 0(s0)
                   lbu t3, 1(s0)
                   add t2, t2, t3
                   add t4, t2, t2
                   addi s0, s0, 1
                   addi s1, s1, 1
                   addi s3, s3, 2
                   addi s2, s2, -1
                   bnez s2, loop
                   li t0, 9
                   blt s1, t0, loop
                   addi a0, a0, 1
             mid:  addi a1, a1, 1
                   beqz a1, mid
                   ebreak",
        );
        let want = [
            "Lui", "LbuLbu", "-", "AddAdd", "-", "Addi", "AddiAddi", "-", "AddiBne", "-",
            "AddiBlt", "-", "Addi", "Addi", "Beq", "Ebreak",
        ];
        assert_eq!(got, want);
    }

    /// `x0` destinations go to the sink; `x0` sources stay slot 0.
    #[test]
    fn x0_destinations_lower_to_the_sink() {
        let program = Program::new(assemble("addi zero, zero, 1\nlw zero, 0(zero)").unwrap());
        assert_eq!(program.ops()[1], Op::Lw { rd: SINK, rs1: 0, offset: 0 });
        assert_eq!(program.ops()[0].first(), Op::Addi { rd: SINK, rs1: 0, imm: 1 });
        assert_eq!(std::mem::size_of::<Op>(), 12, "a fused slot stays as small as a jump");
    }
}
