//! Predecoded instruction memory.

use std::sync::Arc;

use ncpu_isa::{decode, AluOp, BranchOp, DecodeError, Instruction, LoadOp, Reg, StoreOp};

/// A program image decoded once: the raw words next to each word's
/// decode result, which the pipeline's ID stage takes instead of calling
/// [`decode`] on every fetch, and each word lowered to the flat micro-op
/// the functional mode dispatches on.
///
/// A word that fails to decode is kept as its [`DecodeError`] and faults
/// only if it reaches ID (or, functionally, is executed), exactly like
/// decoding on demand — data or padding words that are never executed
/// never fault.
///
/// Cloning shares the image (reference-counted), so an engine that runs
/// the same program for every item decodes and lowers it once and hands
/// each load a handle.
#[derive(Debug, Clone)]
pub struct Program(Arc<Image>);

#[derive(Debug)]
struct Image {
    words: Vec<u32>,
    decoded: Vec<Result<Instruction, DecodeError>>,
    ops: Vec<Op>,
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
        let ops = decoded
            .iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Ok(instr) => Op::lower(*instr, i as u32 * 4),
                Err(source) => Op::Invalid(*source),
            })
            .collect();
        Program(Arc::new(Image { words, decoded, ops }))
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

    /// Every word's micro-op, indexed by word.
    pub(crate) fn ops(&self) -> &[Op] {
        &self.0.ops
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

/// One instruction lowered for the functional mode: one variant per
/// concrete operation, register indices as plain bytes, immediates
/// sign-extended to `u32`, and everything the instruction's own address
/// fixes (`auipc` values, link addresses, `jal` and branch targets)
/// computed at lowering, so executing it takes a single `match`.
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
        match instr {
            Instruction::Lui { rd, imm } => Op::Lui { rd: r(rd), value: imm as u32 },
            Instruction::Auipc { rd, imm } => {
                Op::Auipc { rd: r(rd), value: pc.wrapping_add(imm as u32) }
            }
            Instruction::Jal { rd, offset } => Op::Jal {
                rd: r(rd),
                link: pc.wrapping_add(4),
                target: pc.wrapping_add(offset as u32),
            },
            Instruction::Jalr { rd, rs1, offset } => Op::Jalr {
                rd: r(rd),
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
                let (rd, rs1, offset) = (r(rd), r(rs1), offset as u32);
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
                let (rd, rs1, imm) = (r(rd), r(rs1), imm as u32);
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
                let (rd, rs1, rs2) = (r(rd), r(rs1), r(rs2));
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
}
