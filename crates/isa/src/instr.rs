use crate::reg::Reg;

/// Arithmetic/logic operation selector shared by `OP` and `OP-IMM` formats.
///
/// `Sub` and `Mul` are only valid in the register-register [`Instruction::Op`]
/// form; [`Instruction::encode`](crate::Instruction::encode) rejects them in
/// the immediate form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (`add`/`addi`). Also subtraction when used as `Sub`.
    Add,
    /// Subtraction (`sub`, register form only).
    Sub,
    /// Logical left shift (`sll`/`slli`).
    Sll,
    /// Signed set-less-than (`slt`/`slti`).
    Slt,
    /// Unsigned set-less-than (`sltu`/`sltiu`).
    Sltu,
    /// Bitwise exclusive or (`xor`/`xori`).
    Xor,
    /// Logical right shift (`srl`/`srli`).
    Srl,
    /// Arithmetic right shift (`sra`/`srai`).
    Sra,
    /// Bitwise or (`or`/`ori`).
    Or,
    /// Bitwise and (`and`/`andi`).
    And,
    /// Multiplication low word (`mul`, register form only; the paper recovers
    /// a multiplier in the NeuroEX stage from the neuron adders).
    Mul,
}

impl AluOp {
    /// Evaluates the operation on two 32-bit operands.
    ///
    /// Shift amounts use the low five bits of `b`, as RV32I specifies.
    ///
    /// # Examples
    ///
    /// ```
    /// use ncpu_isa::AluOp;
    /// assert_eq!(AluOp::Add.eval(2, 3), 5);
    /// assert_eq!(AluOp::Sra.eval(0x8000_0000, 31), 0xffff_ffff);
    /// ```
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Sll => a.wrapping_shl(b & 0x1f),
            AluOp::Slt => ((a as i32) < (b as i32)) as u32,
            AluOp::Sltu => (a < b) as u32,
            AluOp::Xor => a ^ b,
            AluOp::Srl => a.wrapping_shr(b & 0x1f),
            AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1f)) as u32,
            AluOp::Or => a | b,
            AluOp::And => a & b,
            AluOp::Mul => a.wrapping_mul(b),
        }
    }

    /// Whether the operation exists in the immediate (`OP-IMM`) form.
    pub const fn has_immediate_form(self) -> bool {
        !matches!(self, AluOp::Sub | AluOp::Mul)
    }

    /// Whether the operation is a shift (immediate form uses a 5-bit shamt).
    pub const fn is_shift(self) -> bool {
        matches!(self, AluOp::Sll | AluOp::Srl | AluOp::Sra)
    }
}

/// Conditional-branch comparison selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// Branch if equal (`beq`).
    Eq,
    /// Branch if not equal (`bne`).
    Ne,
    /// Branch if less than, signed (`blt`).
    Lt,
    /// Branch if greater or equal, signed (`bge`).
    Ge,
    /// Branch if less than, unsigned (`bltu`).
    Ltu,
    /// Branch if greater or equal, unsigned (`bgeu`).
    Geu,
}

impl BranchOp {
    /// Evaluates the branch condition.
    ///
    /// # Examples
    ///
    /// ```
    /// use ncpu_isa::BranchOp;
    /// assert!(BranchOp::Lt.taken(u32::MAX, 0)); // -1 < 0 signed
    /// assert!(!BranchOp::Ltu.taken(u32::MAX, 0));
    /// ```
    #[inline]
    pub fn taken(self, a: u32, b: u32) -> bool {
        match self {
            BranchOp::Eq => a == b,
            BranchOp::Ne => a != b,
            BranchOp::Lt => (a as i32) < (b as i32),
            BranchOp::Ge => (a as i32) >= (b as i32),
            BranchOp::Ltu => a < b,
            BranchOp::Geu => a >= b,
        }
    }
}

/// Load width/extension selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// Load byte, sign extended (`lb`).
    Byte,
    /// Load halfword, sign extended (`lh`).
    Half,
    /// Load word (`lw`).
    Word,
    /// Load byte, zero extended (`lbu`).
    ByteU,
    /// Load halfword, zero extended (`lhu`).
    HalfU,
}

impl LoadOp {
    /// Number of bytes accessed.
    pub const fn width(self) -> u32 {
        match self {
            LoadOp::Byte | LoadOp::ByteU => 1,
            LoadOp::Half | LoadOp::HalfU => 2,
            LoadOp::Word => 4,
        }
    }

    /// Extends a raw little-endian value of [`width`](Self::width) bytes to 32 bits.
    #[inline]
    pub fn extend(self, raw: u32) -> u32 {
        match self {
            LoadOp::Byte => raw as u8 as i8 as i32 as u32,
            LoadOp::Half => raw as u16 as i16 as i32 as u32,
            LoadOp::Word => raw,
            LoadOp::ByteU => raw as u8 as u32,
            LoadOp::HalfU => raw as u16 as u32,
        }
    }
}

/// Store width selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// Store byte (`sb`).
    Byte,
    /// Store halfword (`sh`).
    Half,
    /// Store word (`sw`).
    Word,
}

impl StoreOp {
    /// Number of bytes written.
    pub const fn width(self) -> u32 {
        match self {
            StoreOp::Byte => 1,
            StoreOp::Half => 2,
            StoreOp::Word => 4,
        }
    }
}

/// A decoded instruction: RV32I base, `MUL`, and the NCPU custom extension.
///
/// Immediates are stored sign-extended. Branch and jump offsets are relative
/// to the instruction's own address, in bytes (always even; the encoder
/// enforces the ISA's 2-byte alignment and rejects out-of-range values).
///
/// The five customized NCPU instructions (paper Section V-B) are encoded in
/// the `SYSTEM` opcode space (`0b1110011`), distinguished by `funct3`; see
/// `DESIGN.md` for the exact layout this reproduction assigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Load upper immediate: `rd = imm` where `imm` has its low 12 bits zero.
    Lui {
        /// Destination register.
        rd: Reg,
        /// Full 32-bit value with low 12 bits zero.
        imm: i32,
    },
    /// Add upper immediate to PC: `rd = pc + imm`.
    Auipc {
        /// Destination register.
        rd: Reg,
        /// Full 32-bit value with low 12 bits zero.
        imm: i32,
    },
    /// Jump and link: `rd = pc + 4; pc += offset`.
    Jal {
        /// Link register (often `ra` or `zero`).
        rd: Reg,
        /// Signed byte offset from this instruction (±1 MiB, even).
        offset: i32,
    },
    /// Jump and link register: `rd = pc + 4; pc = (rs1 + offset) & !1`.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// Conditional branch: `if cond(rs1, rs2) pc += offset`.
    Branch {
        /// Comparison performed.
        op: BranchOp,
        /// Left operand register.
        rs1: Reg,
        /// Right operand register.
        rs2: Reg,
        /// Signed byte offset from this instruction (±4 KiB, even).
        offset: i32,
    },
    /// Memory load: `rd = ext(mem[rs1 + offset])`.
    Load {
        /// Width and extension.
        op: LoadOp,
        /// Destination register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// Memory store: `mem[rs1 + offset] = rs2`.
    Store {
        /// Width.
        op: StoreOp,
        /// Base address register.
        rs1: Reg,
        /// Source data register.
        rs2: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// Register-immediate ALU operation: `rd = op(rs1, imm)`.
    OpImm {
        /// Operation (must satisfy [`AluOp::has_immediate_form`]).
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Signed 12-bit immediate (5-bit shamt for shifts).
        imm: i32,
    },
    /// Register-register ALU operation: `rd = op(rs1, rs2)`.
    Op {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Left source register.
        rs1: Reg,
        /// Right source register.
        rs2: Reg,
    },
    /// Environment call. The simulators treat it as a host hook.
    Ecall,
    /// Breakpoint. The simulators treat it as "halt".
    Ebreak,
    /// NCPU `Mv_Neu`: move `rs1` into transition neuron `neuron`
    /// (configuration storage read by the next BNN run).
    MvNeu {
        /// Source register holding the configuration value.
        rs1: Reg,
        /// Transition-neuron index (0..4096).
        neuron: u16,
    },
    /// NCPU `Trans_BNN`: reconfigure this core from CPU mode to BNN mode.
    TransBnn,
    /// NCPU `Trans_CPU`: reconfigure this core from BNN mode back to CPU
    /// mode (issued by the sequence controller at end of inference).
    TransCpu,
    /// NCPU `Trigger_BNN`: start a *separate* BNN accelerator core, i.e. the
    /// conventional heterogeneous offload used for the baseline evaluation.
    TriggerBnn,
    /// NCPU `Sw_L2`: write-through word store directly to the global L2.
    SwL2 {
        /// Base address register (L2 address space).
        rs1: Reg,
        /// Source data register.
        rs2: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
    /// NCPU `Lw_L2`: word load directly from the global L2.
    LwL2 {
        /// Destination register.
        rd: Reg,
        /// Base address register (L2 address space).
        rs1: Reg,
        /// Signed 12-bit byte offset.
        offset: i32,
    },
}

impl Instruction {
    /// The register written by this instruction, if any (never `x0`).
    #[inline]
    pub fn dest(&self) -> Option<Reg> {
        let rd = match *self {
            Instruction::Lui { rd, .. }
            | Instruction::Auipc { rd, .. }
            | Instruction::Jal { rd, .. }
            | Instruction::Jalr { rd, .. }
            | Instruction::Load { rd, .. }
            | Instruction::OpImm { rd, .. }
            | Instruction::Op { rd, .. }
            | Instruction::LwL2 { rd, .. } => rd,
            _ => return None,
        };
        (rd != Reg::ZERO).then_some(rd)
    }

    /// The registers read by this instruction (up to two).
    #[inline]
    pub fn sources(&self) -> (Option<Reg>, Option<Reg>) {
        match *self {
            Instruction::Jalr { rs1, .. }
            | Instruction::Load { rs1, .. }
            | Instruction::OpImm { rs1, .. }
            | Instruction::LwL2 { rs1, .. } => (Some(rs1), None),
            Instruction::MvNeu { rs1, .. } => (Some(rs1), None),
            Instruction::Branch { rs1, rs2, .. }
            | Instruction::Store { rs1, rs2, .. }
            | Instruction::Op { rs1, rs2, .. }
            | Instruction::SwL2 { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
            _ => (None, None),
        }
    }

    /// Whether this is one of the five customized NCPU instructions.
    pub const fn is_ncpu_custom(&self) -> bool {
        matches!(
            self,
            Instruction::MvNeu { .. }
                | Instruction::TransBnn
                | Instruction::TransCpu
                | Instruction::TriggerBnn
                | Instruction::SwL2 { .. }
                | Instruction::LwL2 { .. }
        )
    }

    /// Whether the instruction accesses data memory (local or L2).
    pub const fn is_memory_access(&self) -> bool {
        matches!(
            self,
            Instruction::Load { .. }
                | Instruction::Store { .. }
                | Instruction::SwL2 { .. }
                | Instruction::LwL2 { .. }
        )
    }

    /// A short stable mnemonic, e.g. `"add"`, `"bltu"`, `"trans_bnn"`.
    ///
    /// Used as the key for per-instruction statistics and the Fig. 11
    /// per-instruction power table.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instruction::Lui { .. } => "lui",
            Instruction::Auipc { .. } => "auipc",
            Instruction::Jal { .. } => "jal",
            Instruction::Jalr { .. } => "jalr",
            Instruction::Branch { op, .. } => match op {
                BranchOp::Eq => "beq",
                BranchOp::Ne => "bne",
                BranchOp::Lt => "blt",
                BranchOp::Ge => "bge",
                BranchOp::Ltu => "bltu",
                BranchOp::Geu => "bgeu",
            },
            Instruction::Load { op, .. } => match op {
                LoadOp::Byte => "lb",
                LoadOp::Half => "lh",
                LoadOp::Word => "lw",
                LoadOp::ByteU => "lbu",
                LoadOp::HalfU => "lhu",
            },
            Instruction::Store { op, .. } => match op {
                StoreOp::Byte => "sb",
                StoreOp::Half => "sh",
                StoreOp::Word => "sw",
            },
            Instruction::OpImm { op, .. } => match op {
                AluOp::Add => "addi",
                AluOp::Sll => "slli",
                AluOp::Slt => "slti",
                AluOp::Sltu => "sltiu",
                AluOp::Xor => "xori",
                AluOp::Srl => "srli",
                AluOp::Sra => "srai",
                AluOp::Or => "ori",
                AluOp::And => "andi",
                // No immediate form exists; the encoder rejects these, but
                // `mnemonic` must stay total for error reporting.
                AluOp::Sub => "sub",
                AluOp::Mul => "mul",
            },
            Instruction::Op { op, .. } => match op {
                AluOp::Add => "add",
                AluOp::Sub => "sub",
                AluOp::Sll => "sll",
                AluOp::Slt => "slt",
                AluOp::Sltu => "sltu",
                AluOp::Xor => "xor",
                AluOp::Srl => "srl",
                AluOp::Sra => "sra",
                AluOp::Or => "or",
                AluOp::And => "and",
                AluOp::Mul => "mul",
            },
            Instruction::Ecall => "ecall",
            Instruction::Ebreak => "ebreak",
            Instruction::MvNeu { .. } => "mv_neu",
            Instruction::TransBnn => "trans_bnn",
            Instruction::TransCpu => "trans_cpu",
            Instruction::TriggerBnn => "trigger_bnn",
            Instruction::SwL2 { .. } => "sw_l2",
            Instruction::LwL2 { .. } => "lw_l2",
        }
    }

    /// Every distinct [`mnemonic`](Self::mnemonic), indexed by
    /// [`mnemonic_index`](Self::mnemonic_index): the 37 RV32I base
    /// mnemonics in [`RV32I_BASE_MNEMONICS`](Self::RV32I_BASE_MNEMONICS)
    /// order, then `mul`, `ecall`, `ebreak` and the six NCPU custom
    /// instructions.
    pub const MNEMONICS: [&'static str; 46] = [
        "lui", "auipc", "jal", "jalr", "beq", "bne", "blt", "bge", "bltu", "bgeu", "lb", "lh",
        "lw", "lbu", "lhu", "sb", "sh", "sw", "addi", "slti", "sltiu", "xori", "ori", "andi",
        "slli", "srli", "srai", "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or",
        "and", "mul", "ecall", "ebreak", "mv_neu", "trans_bnn", "trans_cpu", "trigger_bnn",
        "sw_l2", "lw_l2",
    ];

    /// The position of [`mnemonic`](Self::mnemonic) in
    /// [`MNEMONICS`](Self::MNEMONICS), found by matching the variant (no
    /// string compare), so per-mnemonic counters can be a dense array.
    #[inline]
    pub const fn mnemonic_index(&self) -> usize {
        match self {
            Instruction::Lui { .. } => 0,
            Instruction::Auipc { .. } => 1,
            Instruction::Jal { .. } => 2,
            Instruction::Jalr { .. } => 3,
            Instruction::Branch { op, .. } => match op {
                BranchOp::Eq => 4,
                BranchOp::Ne => 5,
                BranchOp::Lt => 6,
                BranchOp::Ge => 7,
                BranchOp::Ltu => 8,
                BranchOp::Geu => 9,
            },
            Instruction::Load { op, .. } => match op {
                LoadOp::Byte => 10,
                LoadOp::Half => 11,
                LoadOp::Word => 12,
                LoadOp::ByteU => 13,
                LoadOp::HalfU => 14,
            },
            Instruction::Store { op, .. } => match op {
                StoreOp::Byte => 15,
                StoreOp::Half => 16,
                StoreOp::Word => 17,
            },
            Instruction::OpImm { op, .. } => match op {
                AluOp::Add => 18,
                AluOp::Slt => 19,
                AluOp::Sltu => 20,
                AluOp::Xor => 21,
                AluOp::Or => 22,
                AluOp::And => 23,
                AluOp::Sll => 24,
                AluOp::Srl => 25,
                AluOp::Sra => 26,
                // No immediate form: shares the register form's mnemonic.
                AluOp::Sub => 28,
                AluOp::Mul => 37,
            },
            Instruction::Op { op, .. } => match op {
                AluOp::Add => 27,
                AluOp::Sub => 28,
                AluOp::Sll => 29,
                AluOp::Slt => 30,
                AluOp::Sltu => 31,
                AluOp::Xor => 32,
                AluOp::Srl => 33,
                AluOp::Sra => 34,
                AluOp::Or => 35,
                AluOp::And => 36,
                AluOp::Mul => 37,
            },
            Instruction::Ecall => 38,
            Instruction::Ebreak => 39,
            Instruction::MvNeu { .. } => 40,
            Instruction::TransBnn => 41,
            Instruction::TransCpu => 42,
            Instruction::TriggerBnn => 43,
            Instruction::SwL2 { .. } => 44,
            Instruction::LwL2 { .. } => 45,
        }
    }

    /// The 37 RV32I base-instruction mnemonics in the order of paper Fig. 11(b).
    pub const RV32I_BASE_MNEMONICS: [&'static str; 37] = [
        "lui", "auipc", "jal", "jalr", "beq", "bne", "blt", "bge", "bltu", "bgeu", "lb", "lh",
        "lw", "lbu", "lhu", "sb", "sh", "sw", "addi", "slti", "sltiu", "xori", "ori", "andi",
        "slli", "srli", "srai", "add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or",
        "and",
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_eval_matches_reference_semantics() {
        assert_eq!(AluOp::Add.eval(u32::MAX, 1), 0);
        assert_eq!(AluOp::Sub.eval(0, 1), u32::MAX);
        assert_eq!(AluOp::Sll.eval(1, 33), 2, "shift amount masked to 5 bits");
        assert_eq!(AluOp::Slt.eval(u32::MAX, 0), 1);
        assert_eq!(AluOp::Sltu.eval(u32::MAX, 0), 0);
        assert_eq!(AluOp::Xor.eval(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Srl.eval(0x8000_0000, 4), 0x0800_0000);
        assert_eq!(AluOp::Sra.eval(0x8000_0000, 4), 0xf800_0000);
        assert_eq!(AluOp::Or.eval(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::And.eval(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Mul.eval(0x1_0000, 0x1_0000), 0);
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchOp::Eq.taken(7, 7));
        assert!(BranchOp::Ne.taken(7, 8));
        assert!(BranchOp::Ge.taken(0, u32::MAX), "0 >= -1 signed");
        assert!(BranchOp::Geu.taken(u32::MAX, 0));
        assert!(!BranchOp::Geu.taken(0, u32::MAX));
    }

    #[test]
    fn load_extension() {
        assert_eq!(LoadOp::Byte.extend(0x80), 0xffff_ff80);
        assert_eq!(LoadOp::ByteU.extend(0x80), 0x80);
        assert_eq!(LoadOp::Half.extend(0x8000), 0xffff_8000);
        assert_eq!(LoadOp::HalfU.extend(0x8000), 0x8000);
        assert_eq!(LoadOp::Word.extend(0xdead_beef), 0xdead_beef);
    }

    #[test]
    fn dest_never_reports_x0() {
        let i = Instruction::OpImm { op: AluOp::Add, rd: Reg::ZERO, rs1: Reg::ZERO, imm: 0 };
        assert_eq!(i.dest(), None);
    }

    #[test]
    fn base_mnemonic_list_has_37_unique_entries() {
        let mut set = std::collections::HashSet::new();
        for m in Instruction::RV32I_BASE_MNEMONICS {
            assert!(set.insert(m), "duplicate mnemonic {m}");
        }
        assert_eq!(set.len(), 37);
    }

    /// Every variant and every op, with fixed operands.
    fn all_shapes() -> Vec<Instruction> {
        let (r, o) = (Reg::A0, 0);
        let alu = [
            AluOp::Add, AluOp::Sub, AluOp::Sll, AluOp::Slt, AluOp::Sltu, AluOp::Xor,
            AluOp::Srl, AluOp::Sra, AluOp::Or, AluOp::And, AluOp::Mul,
        ];
        let branch =
            [BranchOp::Eq, BranchOp::Ne, BranchOp::Lt, BranchOp::Ge, BranchOp::Ltu, BranchOp::Geu];
        let load = [LoadOp::Byte, LoadOp::Half, LoadOp::Word, LoadOp::ByteU, LoadOp::HalfU];
        let store = [StoreOp::Byte, StoreOp::Half, StoreOp::Word];
        let mut all = vec![
            Instruction::Lui { rd: r, imm: o },
            Instruction::Auipc { rd: r, imm: o },
            Instruction::Jal { rd: r, offset: o },
            Instruction::Jalr { rd: r, rs1: r, offset: o },
            Instruction::Ecall,
            Instruction::Ebreak,
            Instruction::MvNeu { rs1: r, neuron: 0 },
            Instruction::TransBnn,
            Instruction::TransCpu,
            Instruction::TriggerBnn,
            Instruction::SwL2 { rs1: r, rs2: r, offset: o },
            Instruction::LwL2 { rd: r, rs1: r, offset: o },
        ];
        all.extend(branch.map(|op| Instruction::Branch { op, rs1: r, rs2: r, offset: o }));
        all.extend(load.map(|op| Instruction::Load { op, rd: r, rs1: r, offset: o }));
        all.extend(store.map(|op| Instruction::Store { op, rs1: r, rs2: r, offset: o }));
        all.extend(alu.map(|op| Instruction::OpImm { op, rd: r, rs1: r, imm: o }));
        all.extend(alu.map(|op| Instruction::Op { op, rd: r, rs1: r, rs2: r }));
        all
    }

    #[test]
    fn mnemonic_index_agrees_with_mnemonic_for_every_shape() {
        let mut seen = std::collections::HashSet::new();
        for i in all_shapes() {
            assert_eq!(Instruction::MNEMONICS[i.mnemonic_index()], i.mnemonic(), "{i:?}");
            seen.insert(i.mnemonic_index());
        }
        assert_eq!(seen.len(), Instruction::MNEMONICS.len(), "every slot is reachable");
        let unique: std::collections::HashSet<_> = Instruction::MNEMONICS.into_iter().collect();
        assert_eq!(unique.len(), Instruction::MNEMONICS.len(), "no duplicate mnemonic");
        for m in Instruction::RV32I_BASE_MNEMONICS {
            assert!(Instruction::MNEMONICS.contains(&m), "{m} missing from MNEMONICS");
        }
    }

    #[test]
    fn custom_instructions_are_flagged() {
        assert!(Instruction::TransBnn.is_ncpu_custom());
        assert!(!Instruction::Ebreak.is_ncpu_custom());
        assert!(Instruction::SwL2 { rs1: Reg::A0, rs2: Reg::A1, offset: 0 }.is_memory_access());
    }
}
