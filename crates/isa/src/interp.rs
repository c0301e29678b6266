//! Functional golden-model interpreter for RV32I + NCPU extension.
//!
//! [`Interp`] executes one instruction per [`step`](Interp::step) with no
//! timing model. The cycle-accurate pipeline in `ncpu-pipeline` is
//! differential-tested against it: both must produce identical
//! architectural state for identical programs.
//!
//! NCPU custom instructions have no architectural effect here beyond their
//! register writes; they are surfaced to the host as [`Event`]s so that
//! higher layers (the NCPU core model) can attach semantics.

use std::error::Error;
use std::fmt;

use crate::decode;
use crate::error::DecodeError;
use crate::instr::Instruction;
use crate::reg::Reg;

/// What a [`step`](Interp::step) produced, beyond ordinary state updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An ordinary instruction retired.
    Retired,
    /// `ebreak` retired — the program is done.
    Halted,
    /// `ecall` retired (the reproduction gives it no semantics).
    EnvCall,
    /// `mv_neu rs1, n` retired; carries the value and target neuron.
    MvNeu {
        /// Value moved from the register file.
        value: u32,
        /// Destination transition-neuron index.
        neuron: u16,
    },
    /// `trans_bnn` retired — the core asks to enter BNN mode.
    TransBnn,
    /// `trans_cpu` retired — the core asks to re-enter CPU mode.
    TransCpu,
    /// `trigger_bnn` retired — heterogeneous-baseline accelerator start.
    TriggerBnn,
    /// `sw_l2`/`lw_l2` retired; carries the L2 address accessed.
    L2Access {
        /// Byte address within the global L2 space.
        addr: u32,
        /// `true` for `sw_l2`.
        is_store: bool,
    },
}

/// Error raised during interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The word at `pc` failed to decode.
    Decode {
        /// Faulting program counter.
        pc: u32,
        /// Underlying decode failure.
        source: DecodeError,
    },
    /// A data access fell outside memory.
    MemOutOfBounds {
        /// Faulting program counter.
        pc: u32,
        /// Faulting byte address.
        addr: u32,
    },
    /// `pc` fell outside the loaded program.
    PcOutOfBounds {
        /// Faulting program counter.
        pc: u32,
    },
    /// [`Interp::run`] exceeded its step budget without halting.
    StepLimit {
        /// The budget that was exhausted.
        limit: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Decode { pc, source } => write!(f, "at pc={pc:#x}: {source}"),
            ExecError::MemOutOfBounds { pc, addr } => {
                write!(f, "at pc={pc:#x}: memory access out of bounds at {addr:#x}")
            }
            ExecError::PcOutOfBounds { pc } => write!(f, "pc {pc:#x} outside program"),
            ExecError::StepLimit { limit } => {
                write!(f, "program did not halt within {limit} steps")
            }
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Decode { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Functional RV32I interpreter over a flat byte memory.
///
/// Instruction and data share one address space (the interpreter is a
/// golden model, not a microarchitecture). `x0` is architecturally zero.
///
/// # Examples
///
/// ```
/// use ncpu_isa::{asm, interp::Interp, Reg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = asm::assemble("li a0, 21\nadd a0, a0, a0\nebreak")?;
/// let mut m = Interp::with_program(&program, 4096);
/// m.run(1000)?;
/// assert_eq!(m.reg(Reg::A0), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Interp {
    regs: [u32; 32],
    pc: u32,
    mem: Vec<u8>,
    retired: u64,
    halted: bool,
    /// Global L2 backing store for `sw_l2`/`lw_l2` (64-KiB default).
    l2: Vec<u8>,
}

impl Interp {
    /// Creates an interpreter with `mem_bytes` of zeroed memory.
    pub fn new(mem_bytes: usize) -> Interp {
        Interp {
            regs: [0; 32],
            pc: 0,
            mem: vec![0; mem_bytes],
            retired: 0,
            halted: false,
            l2: vec![0; 64 * 1024],
        }
    }

    /// Creates an interpreter, loads `program` at address 0, and ensures at
    /// least `mem_bytes` of memory.
    pub fn with_program(program: &[u32], mem_bytes: usize) -> Interp {
        let needed = program.len() * 4;
        let mut m = Interp::new(needed.max(mem_bytes));
        m.load_program(0, program);
        m
    }

    /// Copies `program` words into memory at `base` (little-endian).
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit in memory.
    pub fn load_program(&mut self, base: u32, program: &[u32]) {
        for (i, word) in program.iter().enumerate() {
            let addr = base as usize + i * 4;
            self.mem[addr..addr + 4].copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Reads register `reg` (always 0 for `x0`).
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs[reg.index()]
    }

    /// Writes register `reg` (writes to `x0` are ignored).
    pub fn set_reg(&mut self, reg: Reg, value: u32) {
        if reg != Reg::ZERO {
            self.regs[reg.index()] = value;
        }
    }

    /// Current program counter.
    pub const fn pc(&self) -> u32 {
        self.pc
    }

    /// Number of retired instructions.
    pub const fn retired(&self) -> u64 {
        self.retired
    }

    /// Whether `ebreak` has retired.
    pub const fn is_halted(&self) -> bool {
        self.halted
    }

    /// Data memory as a byte slice.
    pub fn mem(&self) -> &[u8] {
        &self.mem
    }

    /// Mutable access to data memory (for preloading inputs).
    pub fn mem_mut(&mut self) -> &mut [u8] {
        &mut self.mem
    }

    /// Global L2 backing store used by `sw_l2`/`lw_l2`.
    pub fn l2(&self) -> &[u8] {
        &self.l2
    }

    /// Reads a little-endian word from data memory (helper for tests).
    ///
    /// # Panics
    ///
    /// Panics if `addr + 4` exceeds memory.
    pub fn read_word(&self, addr: u32) -> u32 {
        let a = addr as usize;
        u32::from_le_bytes(self.mem[a..a + 4].try_into().expect("4 bytes"))
    }

    /// Writes a little-endian word to data memory (helper for tests).
    ///
    /// # Panics
    ///
    /// Panics if `addr + 4` exceeds memory.
    pub fn write_word(&mut self, addr: u32, value: u32) {
        let a = addr as usize;
        self.mem[a..a + 4].copy_from_slice(&value.to_le_bytes());
    }

    fn load(&self, pc: u32, addr: u32, width: u32) -> Result<u32, ExecError> {
        let end = addr as usize + width as usize;
        if end > self.mem.len() {
            return Err(ExecError::MemOutOfBounds { pc, addr });
        }
        let mut raw = 0u32;
        for i in 0..width as usize {
            raw |= (self.mem[addr as usize + i] as u32) << (8 * i);
        }
        Ok(raw)
    }

    fn store(&mut self, pc: u32, addr: u32, width: u32, value: u32) -> Result<(), ExecError> {
        let end = addr as usize + width as usize;
        if end > self.mem.len() {
            return Err(ExecError::MemOutOfBounds { pc, addr });
        }
        for i in 0..width as usize {
            self.mem[addr as usize + i] = (value >> (8 * i)) as u8;
        }
        Ok(())
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on decode failures and out-of-bounds accesses.
    pub fn step(&mut self) -> Result<Event, ExecError> {
        let pc = self.pc;
        if pc as usize + 4 > self.mem.len() {
            return Err(ExecError::PcOutOfBounds { pc });
        }
        let word = self.read_word(pc);
        let instr = decode(word).map_err(|source| ExecError::Decode { pc, source })?;
        let mut next_pc = pc.wrapping_add(4);
        let mut event = Event::Retired;
        match instr {
            Instruction::Lui { rd, imm } => self.set_reg(rd, imm as u32),
            Instruction::Auipc { rd, imm } => self.set_reg(rd, pc.wrapping_add(imm as u32)),
            Instruction::Jal { rd, offset } => {
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = pc.wrapping_add(offset as u32);
            }
            Instruction::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.set_reg(rd, pc.wrapping_add(4));
                next_pc = target;
            }
            Instruction::Branch { op, rs1, rs2, offset } => {
                if op.taken(self.reg(rs1), self.reg(rs2)) {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Instruction::Load { op, rd, rs1, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let raw = self.load(pc, addr, op.width())?;
                self.set_reg(rd, op.extend(raw));
            }
            Instruction::Store { op, rs1, rs2, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                self.store(pc, addr, op.width(), self.reg(rs2))?;
            }
            Instruction::OpImm { op, rd, rs1, imm } => {
                self.set_reg(rd, op.eval(self.reg(rs1), imm as u32));
            }
            Instruction::Op { op, rd, rs1, rs2 } => {
                self.set_reg(rd, op.eval(self.reg(rs1), self.reg(rs2)));
            }
            Instruction::Ecall => event = Event::EnvCall,
            Instruction::Ebreak => {
                self.halted = true;
                event = Event::Halted;
            }
            Instruction::MvNeu { rs1, neuron } => {
                event = Event::MvNeu { value: self.reg(rs1), neuron };
            }
            Instruction::TransBnn => event = Event::TransBnn,
            Instruction::TransCpu => event = Event::TransCpu,
            Instruction::TriggerBnn => event = Event::TriggerBnn,
            Instruction::SwL2 { rs1, rs2, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let end = addr as usize + 4;
                if end > self.l2.len() {
                    return Err(ExecError::MemOutOfBounds { pc, addr });
                }
                let v = self.reg(rs2);
                self.l2[addr as usize..end].copy_from_slice(&v.to_le_bytes());
                event = Event::L2Access { addr, is_store: true };
            }
            Instruction::LwL2 { rd, rs1, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let end = addr as usize + 4;
                if end > self.l2.len() {
                    return Err(ExecError::MemOutOfBounds { pc, addr });
                }
                let v = u32::from_le_bytes(self.l2[addr as usize..end].try_into().expect("4"));
                self.set_reg(rd, v);
                event = Event::L2Access { addr, is_store: false };
            }
        }
        self.pc = next_pc;
        self.retired += 1;
        Ok(event)
    }

    /// Runs until `ebreak` or until `max_steps` instructions retire.
    ///
    /// Returns the number of retired instructions in this call.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StepLimit`] if the budget is exhausted, or any
    /// error from [`step`](Interp::step).
    pub fn run(&mut self, max_steps: u64) -> Result<u64, ExecError> {
        let start = self.retired;
        while !self.halted {
            if self.retired - start >= max_steps {
                return Err(ExecError::StepLimit { limit: max_steps });
            }
            self.step()?;
        }
        Ok(self.retired - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str) -> Interp {
        let words = assemble(src).unwrap();
        let mut m = Interp::with_program(&words, 65536);
        m.run(1_000_000).unwrap();
        m
    }

    #[test]
    fn arithmetic_loop_sums() {
        let m = run("      li t0, 100
                           li t1, 0
                    loop:  add t1, t1, t0
                           addi t0, t0, -1
                           bnez t0, loop
                           ebreak");
        assert_eq!(m.reg(Reg::T1), 5050);
    }

    #[test]
    fn memory_round_trip_all_widths() {
        let m = run("li t0, 1024
                     li t1, -2
                     sw t1, 0(t0)
                     lb a0, 0(t0)
                     lbu a1, 0(t0)
                     lh a2, 0(t0)
                     lhu a3, 0(t0)
                     lw a4, 0(t0)
                     sb t1, 8(t0)
                     lw a5, 8(t0)
                     ebreak");
        assert_eq!(m.reg(Reg::A0), -2i32 as u32);
        assert_eq!(m.reg(Reg::A1), 0xfe);
        assert_eq!(m.reg(Reg::A2), -2i32 as u32);
        assert_eq!(m.reg(Reg::A3), 0xfffe);
        assert_eq!(m.reg(Reg::A4), -2i32 as u32);
        assert_eq!(m.reg(Reg::A5), 0xfe);
    }

    #[test]
    fn jalr_call_and_return() {
        let m = run("    li sp, 4096
                         jal ra, func
                         li a1, 7
                         ebreak
                   func: li a0, 99
                         ret");
        assert_eq!(m.reg(Reg::A0), 99);
        assert_eq!(m.reg(Reg::A1), 7, "execution resumed after the call");
    }

    #[test]
    fn x0_stays_zero() {
        let m = run("li t0, 5\nadd zero, t0, t0\nebreak");
        assert_eq!(m.reg(Reg::ZERO), 0);
    }

    #[test]
    fn auipc_is_pc_relative() {
        let m = run("nop\nauipc a0, 1\nebreak");
        assert_eq!(m.reg(Reg::A0), 4 + 0x1000);
    }

    #[test]
    fn l2_instructions_move_data() {
        let words = assemble(
            "li t0, 128
             li t1, 0xabcd
             sw_l2 t1, 0(t0)
             lw_l2 a0, 0(t0)
             ebreak",
        )
        .unwrap();
        let mut m = Interp::with_program(&words, 4096);
        m.run(100).unwrap();
        assert_eq!(m.reg(Reg::A0), 0xabcd);
        assert_eq!(&m.l2()[128..132], &0xabcdu32.to_le_bytes());
    }

    #[test]
    fn custom_instructions_surface_events() {
        let words = assemble("li a0, 42\nmv_neu a0, 7\ntrans_bnn\nebreak").unwrap();
        let mut m = Interp::with_program(&words, 4096);
        m.step().unwrap();
        assert_eq!(m.step().unwrap(), Event::MvNeu { value: 42, neuron: 7 });
        assert_eq!(m.step().unwrap(), Event::TransBnn);
        assert_eq!(m.step().unwrap(), Event::Halted);
        assert!(m.is_halted());
    }

    #[test]
    fn step_limit_reported() {
        let words = assemble("loop: j loop").unwrap();
        let mut m = Interp::with_program(&words, 256);
        assert_eq!(m.run(10), Err(ExecError::StepLimit { limit: 10 }));
    }

    #[test]
    fn out_of_bounds_access_reported() {
        let words = assemble("li t0, 0x7fffffff\nlw a0, 0(t0)\nebreak").unwrap();
        let mut m = Interp::with_program(&words, 256);
        assert!(matches!(m.run(10), Err(ExecError::MemOutOfBounds { .. })));
    }

    #[test]
    fn decode_error_carries_pc() {
        let mut m = Interp::with_program(&[0xffff_ffff], 256);
        match m.step() {
            Err(ExecError::Decode { pc, .. }) => assert_eq!(pc, 0),
            other => panic!("expected decode error, got {other:?}"),
        }
    }
}
