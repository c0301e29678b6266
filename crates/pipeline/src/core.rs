//! The latch-level 5-stage pipeline model.

use std::error::Error;
use std::fmt;

use ncpu_isa::interp::Event;
use ncpu_isa::{DecodeError, Instruction, Reg};
use ncpu_obs::{EventKind as ObsEvent, Recorder, StallCause, TraceLevel};
use ncpu_sim::SramBank;

use crate::functional::{FunctionalStop, PathLog};
use crate::memport::{MemFault, MemPort};
use crate::program::{Op, Program};
use crate::stats::PipeStats;
use crate::trace::{RetireTrace, TraceEntry};

/// Timing parameters of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Extra EX-stage cycles for `mul` (the paper realizes the multiplier
    /// from neuron adders, so it is multi-cycle).
    pub mul_extra_cycles: u64,
    /// Extra MEM-stage cycles for `lw_l2`/`sw_l2` (bus + shared-L2 access).
    pub l2_extra_cycles: u64,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig { mul_extra_cycles: 2, l2_extra_cycles: 8 }
    }
}

/// Error raised by the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipeError {
    /// The fetched word failed to decode.
    Decode {
        /// Faulting program counter.
        pc: u32,
        /// Underlying decode failure.
        source: DecodeError,
    },
    /// The program counter left the instruction memory.
    PcOutOfRange {
        /// Faulting program counter.
        pc: u32,
    },
    /// A data access faulted.
    Mem {
        /// PC of the faulting instruction.
        pc: u32,
        /// Underlying fault.
        source: MemFault,
    },
    /// [`Pipeline::run`] exhausted its cycle budget without halting.
    CycleLimit {
        /// The exhausted budget.
        limit: u64,
    },
}

impl fmt::Display for PipeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipeError::Decode { pc, source } => write!(f, "at pc={pc:#x}: {source}"),
            PipeError::PcOutOfRange { pc } => write!(f, "pc {pc:#x} outside instruction memory"),
            PipeError::Mem { pc, source } => write!(f, "at pc={pc:#x}: {source}"),
            PipeError::CycleLimit { limit } => write!(f, "no halt within {limit} cycles"),
        }
    }
}

impl Error for PipeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipeError::Decode { source, .. } => Some(source),
            PipeError::Mem { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Fetched {
    pc: u32,
    /// The predecoded word; an error surfaces only if it reaches ID.
    instr: Result<Instruction, DecodeError>,
}

#[derive(Debug, Clone, Copy)]
struct Decoded {
    pc: u32,
    instr: Instruction,
}

/// Result of the EX stage, parked in the EX/MEM latch.
#[derive(Debug, Clone, Copy)]
struct Executed {
    pc: u32,
    instr: Instruction,
    dest: Option<Reg>,
    /// ALU result / link address / value to forward (not loads).
    value: u32,
    /// Effective address for memory operations.
    addr: u32,
    /// Store data (after forwarding).
    store_val: u32,
    /// Captured `rs1` for `mv_neu`.
    mv_value: u32,
    /// Remaining extra MEM cycles (L2 accesses).
    mem_remaining: u64,
}

#[derive(Debug, Clone, Copy)]
struct WbEntry {
    pc: u32,
    instr: Instruction,
    dest: Option<Reg>,
    value: u32,
    addr: u32,
    mv_value: u32,
}

/// Cycle-accurate 5-stage in-order RV32I pipeline over a [`MemPort`].
///
/// See the [crate documentation](crate) for the microarchitecture and an
/// end-to-end example.
#[derive(Debug, Clone)]
pub struct Pipeline<M> {
    imem: Program,
    mem: M,
    regs: [u32; 32],
    pc: u32,
    if_id: Option<Fetched>,
    id_ex: Option<Decoded>,
    ex_mem: Option<Executed>,
    mem_wb: Option<WbEntry>,
    /// Cycles already spent stalling the current multi-cycle EX op.
    ex_busy: u64,
    fetch_halted: bool,
    halted: bool,
    stats: PipeStats,
    config: PipelineConfig,
    trace: RetireTrace,
    obs: Recorder,
    /// When set, the cycle of every actual L2 data access (the MEM-stage
    /// read/write, not the later WB retirement) is appended to
    /// `l2_touches`. Off by default — the log exists for engines that
    /// resolve shared-L2 port arbitration after the fact instead of
    /// observing access-counter deltas every cycle.
    l2_touch_log: bool,
    l2_touches: Vec<u64>,
}

impl<M: MemPort> Pipeline<M> {
    /// Creates a pipeline with `program` loaded at PC 0.
    pub fn new(program: impl Into<Program>, mem: M) -> Pipeline<M> {
        Pipeline::with_config(program, mem, PipelineConfig::default())
    }

    /// Creates a pipeline with explicit timing parameters.
    pub fn with_config(
        program: impl Into<Program>,
        mem: M,
        config: PipelineConfig,
    ) -> Pipeline<M> {
        Pipeline {
            imem: program.into(),
            mem,
            regs: [0; 32],
            pc: 0,
            if_id: None,
            id_ex: None,
            ex_mem: None,
            mem_wb: None,
            ex_busy: 0,
            fetch_halted: false,
            halted: false,
            stats: PipeStats::default(),
            config,
            trace: RetireTrace::default(),
            obs: Recorder::disabled(),
            l2_touch_log: false,
            l2_touches: Vec::new(),
        }
    }

    /// Enables (or disables) the L2 touch log: while on, every MEM-stage
    /// L2 data access appends its pipeline cycle to an internal list,
    /// drained by [`Pipeline::take_l2_touches`]. The log observes the
    /// cycle the shared port is actually occupied — the WB-stage
    /// [`ncpu_obs::EventKind::L2Access`] instant retires one cycle later.
    pub fn set_l2_touch_log(&mut self, on: bool) {
        self.l2_touch_log = on;
        if !on {
            self.l2_touches.clear();
        }
    }

    /// Drains the cycles logged since the last call (empty unless
    /// [`Pipeline::set_l2_touch_log`] is on).
    pub fn take_l2_touches(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.l2_touches)
    }

    /// Folds an externally simulated execution's statistics into this
    /// pipeline's counters (including the per-mnemonic retire counts).
    /// Used by replaying engines that skip re-simulating an item whose
    /// outcome is already known: the architectural state is restored
    /// separately, and the monotonic counters advance by `delta` so the
    /// final stat snapshots match a full simulation byte for byte.
    pub fn apply_replay_stats(&mut self, delta: &PipeStats) {
        self.stats.merge(delta);
    }

    /// The architectural register file (x0–x31), for state fingerprints.
    pub fn regs(&self) -> &[u32; 32] {
        &self.regs
    }

    /// Mutable register file, for replaying engines restoring a captured
    /// architectural state. Writes to x0 are the caller's bug — the
    /// pipeline itself never reads a restored nonzero x0 because every
    /// captured state was produced by execution, which keeps x0 zero.
    pub fn regs_mut(&mut self) -> &mut [u32; 32] {
        &mut self.regs
    }

    /// Enables event recording at `level`. Events are stamped with the
    /// pipeline-internal cycle count and core id 0; an embedding core
    /// re-bases them when it absorbs this shard.
    pub fn set_obs_level(&mut self, level: TraceLevel) {
        self.obs.set_level(level);
    }

    /// The pipeline's recorder shard.
    pub fn obs(&self) -> &Recorder {
        &self.obs
    }

    /// Mutable recorder shard, for an embedding core to absorb.
    pub fn obs_mut(&mut self) -> &mut Recorder {
        &mut self.obs
    }

    /// Enables retirement tracing, keeping the last `capacity` retired
    /// instructions (0 disables; disabled by default).
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace = RetireTrace::new(capacity);
    }

    /// The retirement trace (empty unless enabled).
    pub fn trace(&self) -> &RetireTrace {
        &self.trace
    }

    /// Reads register `reg` (always 0 for `x0`).
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs[reg.index()]
    }

    /// Writes register `reg` (ignored for `x0`).
    pub fn set_reg(&mut self, reg: Reg, value: u32) {
        if reg != Reg::ZERO {
            self.regs[reg.index()] = value;
        }
    }

    /// Next fetch address.
    pub const fn pc(&self) -> u32 {
        self.pc
    }

    /// Whether `ebreak` has retired.
    pub const fn is_halted(&self) -> bool {
        self.halted
    }

    /// Whether fetch is parked after a serializing instruction
    /// (`ebreak`, `trans_bnn`, `trans_cpu`).
    pub const fn is_fetch_halted(&self) -> bool {
        self.fetch_halted
    }

    /// Performance counters.
    pub fn stats(&self) -> &PipeStats {
        &self.stats
    }

    /// The data-memory port.
    pub fn mem(&self) -> &M {
        &self.mem
    }

    /// Mutable access to the data-memory port (preload workload data).
    pub fn mem_mut(&mut self) -> &mut M {
        &mut self.mem
    }

    /// Instruction memory contents.
    pub fn imem(&self) -> &[u32] {
        self.imem.words()
    }

    /// Replaces the instruction memory (new task on the same core). A
    /// `&Program` shares an already decoded image; a `Vec<u32>` is
    /// decoded here, once.
    pub fn load_program(&mut self, program: impl Into<Program>) {
        self.imem = program.into();
    }

    /// Restarts control flow at `pc`, clearing all stage latches and the
    /// halt flags. Architectural registers and memory are preserved.
    pub fn restart_at(&mut self, pc: u32) {
        self.pc = pc;
        self.if_id = None;
        self.id_ex = None;
        self.ex_mem = None;
        self.mem_wb = None;
        self.ex_busy = 0;
        self.fetch_halted = false;
        self.halted = false;
    }

    /// Resumes fetching after a serializing instruction parked the core
    /// (used by the NCPU core on a BNN→CPU mode switch).
    pub fn resume(&mut self) {
        self.fetch_halted = false;
        self.halted = false;
    }

    /// Whether all stage latches are empty (the pipeline has drained).
    pub fn is_drained(&self) -> bool {
        self.if_id.is_none() && self.id_ex.is_none() && self.ex_mem.is_none()
            && self.mem_wb.is_none()
    }

    fn resolve(&self, reg: Reg) -> u32 {
        if reg == Reg::ZERO {
            return 0;
        }
        // Forward from the instruction that just finished MEM this cycle
        // (EX/MEM result of the previous cycle), then from the retiring
        // instruction's value, then the register file.
        if let Some(wb) = &self.mem_wb {
            if wb.dest == Some(reg) {
                return wb.value;
            }
        }
        self.regs[reg.index()]
    }

    /// Advances one clock cycle.
    ///
    /// Returns the retirement event of the instruction (if any) that left
    /// the WB stage this cycle.
    ///
    /// # Errors
    ///
    /// Returns [`PipeError`] for decode failures, fetch out of range, or
    /// data-memory faults.
    pub fn step(&mut self) -> Result<Option<Event>, PipeError> {
        self.stats.cycles += 1;
        let mut squash_fetch = false;

        // Load-use hazard source: a load completing MEM *this* cycle.
        let loaduse_dest = match &self.ex_mem {
            Some(ex)
                if ex.mem_remaining == 0
                    && matches!(
                        ex.instr,
                        Instruction::Load { .. } | Instruction::LwL2 { .. }
                    ) =>
            {
                ex.dest
            }
            _ => None,
        };

        // ---- WB ----
        let mut event = None;
        if let Some(wb) = self.mem_wb.take() {
            if let Some(rd) = wb.dest {
                self.regs[rd.index()] = wb.value;
            }
            self.stats.retired += 1;
            self.stats.per_instr.record(&wb.instr);
            if self.trace.is_enabled() {
                self.trace.push(TraceEntry {
                    cycle: self.stats.cycles,
                    pc: wb.pc,
                    instr: wb.instr,
                    wrote: wb.dest.map(|rd| (rd, wb.value)),
                });
            }
            if self.obs.wants_events() {
                self.obs.emit(0, self.stats.cycles, ObsEvent::Retire { pc: wb.pc });
                match wb.instr {
                    Instruction::SwL2 { .. } => self.obs.emit(
                        0,
                        self.stats.cycles,
                        ObsEvent::L2Access { addr: wb.addr, is_store: true },
                    ),
                    Instruction::LwL2 { .. } => self.obs.emit(
                        0,
                        self.stats.cycles,
                        ObsEvent::L2Access { addr: wb.addr, is_store: false },
                    ),
                    _ => {}
                }
            }
            let ev = match wb.instr {
                Instruction::Ebreak => {
                    self.halted = true;
                    Event::Halted
                }
                Instruction::Ecall => Event::EnvCall,
                Instruction::MvNeu { neuron, .. } => {
                    Event::MvNeu { value: wb.mv_value, neuron }
                }
                Instruction::TransBnn => Event::TransBnn,
                Instruction::TransCpu => Event::TransCpu,
                Instruction::TriggerBnn => Event::TriggerBnn,
                Instruction::SwL2 { .. } => Event::L2Access { addr: wb.addr, is_store: true },
                Instruction::LwL2 { .. } => Event::L2Access { addr: wb.addr, is_store: false },
                _ => Event::Retired,
            };
            event = Some(ev);
        }

        // ---- MEM ----
        if let Some(ex) = &mut self.ex_mem {
            if ex.mem_remaining > 0 {
                ex.mem_remaining -= 1;
                self.stats.mem_stall_cycles += 1;
                if self.obs.wants_events() {
                    self.obs.emit(
                        0,
                        self.stats.cycles,
                        ObsEvent::Stall { cause: StallCause::Mem },
                    );
                }
            } else {
                let ex = self.ex_mem.take().expect("checked above");
                let mut value = ex.value;
                match ex.instr {
                    Instruction::Load { op, .. } => {
                        let raw = self
                            .mem
                            .read_local(ex.addr, op.width())
                            .map_err(|source| PipeError::Mem { pc: ex.pc, source })?;
                        value = op.extend(raw);
                    }
                    Instruction::Store { op, .. } => {
                        self.mem
                            .write_local(ex.addr, op.width(), ex.store_val)
                            .map_err(|source| PipeError::Mem { pc: ex.pc, source })?;
                    }
                    Instruction::LwL2 { .. } => {
                        value = self
                            .mem
                            .read_l2(ex.addr)
                            .map_err(|source| PipeError::Mem { pc: ex.pc, source })?;
                        if self.l2_touch_log {
                            self.l2_touches.push(self.stats.cycles);
                        }
                    }
                    Instruction::SwL2 { .. } => {
                        self.mem
                            .write_l2(ex.addr, ex.store_val)
                            .map_err(|source| PipeError::Mem { pc: ex.pc, source })?;
                        if self.l2_touch_log {
                            self.l2_touches.push(self.stats.cycles);
                        }
                    }
                    _ => {}
                }
                self.mem_wb = Some(WbEntry {
                    pc: ex.pc,
                    instr: ex.instr,
                    dest: ex.dest,
                    value,
                    addr: ex.addr,
                    mv_value: ex.mv_value,
                });
            }
        }

        // ---- EX ----
        if self.ex_mem.is_none() {
            if let Some(id) = self.id_ex {
                let (s1, s2) = id.instr.sources();
                let load_use = loaduse_dest
                    .is_some_and(|d| s1 == Some(d) || s2 == Some(d));
                let mul_wait = matches!(id.instr, Instruction::Op { op: ncpu_isa::AluOp::Mul, .. })
                    && self.ex_busy < self.config.mul_extra_cycles;
                if load_use {
                    self.stats.load_use_stalls += 1;
                    if self.obs.wants_events() {
                        self.obs.emit(
                            0,
                            self.stats.cycles,
                            ObsEvent::Stall { cause: StallCause::LoadUse },
                        );
                    }
                } else if mul_wait {
                    self.ex_busy += 1;
                    self.stats.ex_stall_cycles += 1;
                    if self.obs.wants_events() {
                        self.obs.emit(
                            0,
                            self.stats.cycles,
                            ObsEvent::Stall { cause: StallCause::Ex },
                        );
                    }
                } else {
                    self.ex_busy = 0;
                    self.id_ex = None;
                    self.execute(id, &mut squash_fetch)?;
                }
            }
        }

        // ---- ID ----
        if self.id_ex.is_none() {
            if let Some(f) = self.if_id.take() {
                let instr =
                    f.instr.map_err(|source| PipeError::Decode { pc: f.pc, source })?;
                self.id_ex = Some(Decoded { pc: f.pc, instr });
            }
        }

        // ---- IF ----
        if self.if_id.is_none() && !self.fetch_halted && !squash_fetch {
            let fetched = if self.pc.is_multiple_of(4) {
                self.imem.decoded((self.pc / 4) as usize)
            } else {
                None
            };
            if let Some(instr) = fetched {
                self.if_id = Some(Fetched { pc: self.pc, instr });
                self.pc = self.pc.wrapping_add(4);
            } else if self.is_drained() && !self.halted {
                // Speculative over-fetch past the program end is squashed by
                // an in-flight `ebreak` or redirect; only a *drained*
                // pipeline with nowhere to fetch from has truly run off the
                // end of instruction memory.
                return Err(PipeError::PcOutOfRange { pc: self.pc });
            }
        }

        Ok(event)
    }

    /// Executes `id` in the EX stage, writing the EX/MEM latch and handling
    /// control flow.
    fn execute(&mut self, id: Decoded, squash_fetch: &mut bool) -> Result<(), PipeError> {
        let pc = id.pc;
        let mut dest = id.instr.dest();
        let mut value = 0u32;
        let mut addr = 0u32;
        let mut store_val = 0u32;
        let mut mv_value = 0u32;
        let mut mem_remaining = 0u64;

        let redirect = |this: &mut Self, target: u32, squash: &mut bool| {
            this.pc = target;
            this.if_id = None;
            this.stats.flush_cycles += 2;
            if this.obs.wants_events() {
                this.obs.emit(0, this.stats.cycles, ObsEvent::Stall { cause: StallCause::Flush });
            }
            *squash = true;
        };

        match id.instr {
            Instruction::Lui { imm, .. } => value = imm as u32,
            Instruction::Auipc { imm, .. } => value = pc.wrapping_add(imm as u32),
            Instruction::Jal { offset, .. } => {
                value = pc.wrapping_add(4);
                redirect(self, pc.wrapping_add(offset as u32), squash_fetch);
            }
            Instruction::Jalr { rs1, offset, .. } => {
                let target = self.resolve(rs1).wrapping_add(offset as u32) & !1;
                value = pc.wrapping_add(4);
                redirect(self, target, squash_fetch);
            }
            Instruction::Branch { op, rs1, rs2, offset } => {
                if op.taken(self.resolve(rs1), self.resolve(rs2)) {
                    redirect(self, pc.wrapping_add(offset as u32), squash_fetch);
                }
            }
            Instruction::Load { rs1, offset, .. } => {
                addr = self.resolve(rs1).wrapping_add(offset as u32);
            }
            Instruction::Store { rs1, rs2, offset, .. } => {
                addr = self.resolve(rs1).wrapping_add(offset as u32);
                store_val = self.resolve(rs2);
            }
            Instruction::OpImm { op, rs1, imm, .. } => {
                value = op.eval(self.resolve(rs1), imm as u32);
            }
            Instruction::Op { op, rs1, rs2, .. } => {
                value = op.eval(self.resolve(rs1), self.resolve(rs2));
            }
            Instruction::Ecall => {}
            Instruction::Ebreak | Instruction::TransBnn | Instruction::TransCpu => {
                // Serializing: park fetch; `pc` already points past us if no
                // younger fetch happened, so rewind to the precise resume
                // point.
                self.pc = pc.wrapping_add(4);
                self.if_id = None;
                self.fetch_halted = true;
                *squash_fetch = true;
            }
            Instruction::TriggerBnn => {}
            Instruction::MvNeu { rs1, .. } => {
                mv_value = self.resolve(rs1);
            }
            Instruction::SwL2 { rs1, rs2, offset } => {
                addr = self.resolve(rs1).wrapping_add(offset as u32);
                store_val = self.resolve(rs2);
                mem_remaining = self.config.l2_extra_cycles;
            }
            Instruction::LwL2 { rs1, offset, .. } => {
                addr = self.resolve(rs1).wrapping_add(offset as u32);
                mem_remaining = self.config.l2_extra_cycles;
            }
        }
        if dest == Some(Reg::ZERO) {
            dest = None;
        }
        self.ex_mem = Some(Executed {
            pc,
            instr: id.instr,
            dest,
            value,
            addr,
            store_val,
            mv_value,
            mem_remaining,
        });
        Ok(())
    }

    /// Executes the program from the current PC without timing: the
    /// program's micro-op table (see [`Program`]), checking the budget
    /// and the PC only on entry and after taken jumps, with exactly the
    /// data accesses the MEM stage would perform, recording every
    /// data-dependent choice into `path` (see [`PathLog`]). Returns why
    /// it stopped and how many instructions retired.
    ///
    /// Registers, memory, the PC and (at `ebreak`) the halt flags end as
    /// a [`run`](Self::run) over the same instructions leaves them. The
    /// mode touches nothing else of the pipeline: cycle and retire
    /// counters, the retire trace, recorder events and the L2 touch log
    /// stay as they were, and a caller that needs them replays them from
    /// a timed execution of the same path.
    ///
    /// Behind the port it touches what the MEM stage's accesses touch.
    /// A local access that lies wholly inside the port's
    /// [`data_cache`](MemPort::data_cache) bank goes to that bank
    /// directly, and every other access (and every `sw_l2`) through the
    /// port's methods. Either way, for a banked port each local access
    /// counts one bank read or write, each write bumps the bank's
    /// generation, and each `sw_l2` counts as the port counts it.
    ///
    /// Call it on a drained pipeline (after [`restart_at`](Self::restart_at)
    /// or a completed run): in-flight latches are not consulted.
    ///
    /// # Errors
    ///
    /// The faults a timed run of the same path raises:
    /// [`PipeError::Decode`] for a bad word it would execute,
    /// [`PipeError::PcOutOfRange`] for a PC outside the program, and
    /// [`PipeError::Mem`] for an unmapped access.
    pub fn run_functional(
        &mut self,
        budget: u64,
        path: &mut PathLog,
    ) -> Result<(FunctionalStop, u64), PipeError> {
        debug_assert!(self.is_drained(), "functional execution starts from a drained pipeline");
        let image = self.imem.clone();
        let ops = image.ops();
        // The 32 registers, then the `x0` sink (slot `SINK`) and spare
        // slots up to 256, so a byte index needs no bounds check. Slot 0
        // is never written: `x0` reads zero.
        let mut regs = [0u32; 256];
        regs[..32].copy_from_slice(&self.regs);
        // The branch outcomes go into a local word, handed to `path`
        // when full and at the end of the call.
        let (mut word, mut fill) = path.open_branches();
        // The data-cache bank and its base; a port without one gets an
        // empty bank, which no access lies inside. Re-taken after every
        // access through the port, which needs the port back.
        let mut no_cache = SramBank::new("", 0);
        let (mut cache_base, mut cache) = self.mem.data_cache().unwrap_or((0, &mut no_cache));
        let mut pc = self.pc;
        let mut retired = 0u64;
        macro_rules! x {
            ($r:expr) => {
                regs[usize::from($r)]
            };
        }
        let outcome = 'block: loop {
            // Block head, on entry and after every taken jump: the only
            // place the budget and the PC are checked. The block runs on
            // in straight-line order to the program's end or the budget,
            // whichever comes first; its ops sit at consecutive PCs
            // inside the program, so none needs a check of its own.
            if retired == budget {
                break Ok(FunctionalStop::Budget);
            }
            let start = if pc.is_multiple_of(4) { (pc / 4) as usize } else { usize::MAX };
            if start >= ops.len() {
                break Err(PipeError::PcOutOfRange { pc });
            }
            let end = start + ((ops.len() - start) as u64).min(budget - retired) as usize;
            // Every slot before the block's last word runs whole, a
            // pair's second word included; at the last word only the
            // first word's op of a pair runs.
            let last = end - 1;
            let whole = &ops[..last];
            // The op at word `i` has `base + i` instructions retired
            // before it; its PC is `4 * i`.
            let base = retired.wrapping_sub(start as u64);
            let mut i = start;
            loop {
                let op = match whole.get(i) {
                    Some(&op) => op,
                    None if i == last => ops[last].first(),
                    None => break,
                };
                // Word `k` of this slot (0, or 1 for a pair's second word).
                macro_rules! at {
                    ($k:expr) => {
                        ((i + $k) as u32).wrapping_mul(4)
                    };
                }
                // A taken jump retires word `k` and opens a block at `target`.
                macro_rules! jump {
                    ($k:expr, $target:expr) => {{
                        retired = base.wrapping_add((i + $k + 1) as u64);
                        pc = $target;
                        continue 'block;
                    }};
                }
                // A conditional branch records its outcome; taken, it redirects.
                macro_rules! branch {
                    ($k:expr, $taken:expr, $target:expr) => {{
                        let taken = $taken;
                        word |= u64::from(taken) << fill;
                        fill += 1;
                        if fill == 64 {
                            path.push_branch_word(word);
                            (word, fill) = (0, 0);
                        }
                        if taken {
                            jump!($k, $target)
                        }
                    }};
                }
                // An instruction whose effect lies outside the pipeline
                // retires and ends the call.
                macro_rules! stop {
                    ($event:expr) => {{
                        retired = base.wrapping_add((i + 1) as u64);
                        pc = at!(1);
                        break 'block Ok(FunctionalStop::Event($event));
                    }};
                }
                // A fault at word `k` retires the words before it and
                // leaves the PC on it.
                macro_rules! fault {
                    ($k:expr, $error:expr) => {{
                        retired = base.wrapping_add((i + $k) as u64);
                        pc = at!($k);
                        break 'block Err($error);
                    }};
                }
                // A local access through the port, at word `k`; the
                // port's faults become this word's.
                macro_rules! port {
                    ($k:expr, $access:expr) => {{
                        let result = $access;
                        (cache_base, cache) = self.mem.data_cache().unwrap_or((0, &mut no_cache));
                        match result {
                            Ok(value) => value,
                            Err(source) => fault!($k, PipeError::Mem { pc: at!($k), source }),
                        }
                    }};
                }
                // A `width`-byte load at word `k`: from the data-cache
                // bank when it lies wholly inside it, else through the port.
                macro_rules! load {
                    ($k:expr, $addr:expr, $width:expr) => {{
                        let addr: u32 = $addr;
                        let offset = addr.wrapping_sub(cache_base);
                        let past = offset as usize + $width;
                        let hit = if past <= cache.capacity() {
                            cache.read(offset, $width).ok()
                        } else {
                            None
                        };
                        match hit {
                            Some(raw) => raw,
                            None => port!($k, self.mem.read_local(addr, $width)),
                        }
                    }};
                }
                macro_rules! store {
                    ($k:expr, $addr:expr, $width:expr, $value:expr) => {{
                        let (addr, value): (u32, u32) = ($addr, $value);
                        let offset = addr.wrapping_sub(cache_base);
                        let past = offset as usize + $width;
                        let hit = past <= cache.capacity()
                            && cache.write(offset, $width, value).is_ok();
                        if !hit {
                            port!($k, self.mem.write_local(addr, $width, value))
                        }
                    }};
                }
                match op {
                    Op::Lui { rd, value } | Op::Auipc { rd, value } => x!(rd) = value,
                    Op::Jal { rd, link, target } => {
                        x!(rd) = link;
                        jump!(0, target)
                    }
                    Op::Jalr { rd, rs1, offset, link } => {
                        let target = x!(rs1).wrapping_add(offset) & !1;
                        path.push_value(target);
                        x!(rd) = link;
                        jump!(0, target)
                    }
                    Op::Beq { rs1, rs2, target } => branch!(0, x!(rs1) == x!(rs2), target),
                    Op::Bne { rs1, rs2, target } => branch!(0, x!(rs1) != x!(rs2), target),
                    Op::Blt { rs1, rs2, target } => {
                        branch!(0, (x!(rs1) as i32) < (x!(rs2) as i32), target)
                    }
                    Op::Bge { rs1, rs2, target } => {
                        branch!(0, (x!(rs1) as i32) >= (x!(rs2) as i32), target)
                    }
                    Op::Bltu { rs1, rs2, target } => branch!(0, x!(rs1) < x!(rs2), target),
                    Op::Bgeu { rs1, rs2, target } => branch!(0, x!(rs1) >= x!(rs2), target),
                    Op::Lb { rd, rs1, offset } => {
                        let raw = load!(0, x!(rs1).wrapping_add(offset), 1);
                        x!(rd) = raw as u8 as i8 as i32 as u32;
                    }
                    Op::Lh { rd, rs1, offset } => {
                        let raw = load!(0, x!(rs1).wrapping_add(offset), 2);
                        x!(rd) = raw as u16 as i16 as i32 as u32;
                    }
                    Op::Lw { rd, rs1, offset } => {
                        x!(rd) = load!(0, x!(rs1).wrapping_add(offset), 4);
                    }
                    Op::Lbu { rd, rs1, offset } => {
                        x!(rd) = load!(0, x!(rs1).wrapping_add(offset), 1);
                    }
                    Op::Lhu { rd, rs1, offset } => {
                        x!(rd) = load!(0, x!(rs1).wrapping_add(offset), 2);
                    }
                    Op::Sb { rs1, rs2, offset } => {
                        store!(0, x!(rs1).wrapping_add(offset), 1, x!(rs2));
                    }
                    Op::Sh { rs1, rs2, offset } => {
                        store!(0, x!(rs1).wrapping_add(offset), 2, x!(rs2));
                    }
                    Op::Sw { rs1, rs2, offset } => {
                        store!(0, x!(rs1).wrapping_add(offset), 4, x!(rs2));
                    }
                    Op::Addi { rd, rs1, imm } => x!(rd) = x!(rs1).wrapping_add(imm),
                    Op::Slti { rd, rs1, imm } => {
                        x!(rd) = u32::from((x!(rs1) as i32) < (imm as i32));
                    }
                    Op::Sltiu { rd, rs1, imm } => x!(rd) = u32::from(x!(rs1) < imm),
                    Op::Xori { rd, rs1, imm } => x!(rd) = x!(rs1) ^ imm,
                    Op::Ori { rd, rs1, imm } => x!(rd) = x!(rs1) | imm,
                    Op::Andi { rd, rs1, imm } => x!(rd) = x!(rs1) & imm,
                    Op::Slli { rd, rs1, shamt } => x!(rd) = x!(rs1).wrapping_shl(shamt),
                    Op::Srli { rd, rs1, shamt } => x!(rd) = x!(rs1).wrapping_shr(shamt),
                    Op::Srai { rd, rs1, shamt } => {
                        x!(rd) = (x!(rs1) as i32).wrapping_shr(shamt) as u32;
                    }
                    Op::Add { rd, rs1, rs2 } => x!(rd) = x!(rs1).wrapping_add(x!(rs2)),
                    Op::Sub { rd, rs1, rs2 } => x!(rd) = x!(rs1).wrapping_sub(x!(rs2)),
                    Op::Sll { rd, rs1, rs2 } => x!(rd) = x!(rs1).wrapping_shl(x!(rs2)),
                    Op::Slt { rd, rs1, rs2 } => {
                        x!(rd) = u32::from((x!(rs1) as i32) < (x!(rs2) as i32));
                    }
                    Op::Sltu { rd, rs1, rs2 } => x!(rd) = u32::from(x!(rs1) < x!(rs2)),
                    Op::Xor { rd, rs1, rs2 } => x!(rd) = x!(rs1) ^ x!(rs2),
                    Op::Srl { rd, rs1, rs2 } => x!(rd) = x!(rs1).wrapping_shr(x!(rs2)),
                    Op::Sra { rd, rs1, rs2 } => {
                        x!(rd) = (x!(rs1) as i32).wrapping_shr(x!(rs2)) as u32;
                    }
                    Op::Or { rd, rs1, rs2 } => x!(rd) = x!(rs1) | x!(rs2),
                    Op::And { rd, rs1, rs2 } => x!(rd) = x!(rs1) & x!(rs2),
                    Op::Mul { rd, rs1, rs2 } => x!(rd) = x!(rs1).wrapping_mul(x!(rs2)),
                    Op::Ecall => stop!(Event::EnvCall),
                    Op::Ebreak => {
                        self.halted = true;
                        self.fetch_halted = true;
                        stop!(Event::Halted)
                    }
                    Op::MvNeu { rs1, neuron } => stop!(Event::MvNeu { value: x!(rs1), neuron }),
                    Op::TransBnn => stop!(Event::TransBnn),
                    Op::TransCpu => stop!(Event::TransCpu),
                    Op::TriggerBnn => stop!(Event::TriggerBnn),
                    Op::SwL2 { rs1, rs2, offset } => {
                        let addr = x!(rs1).wrapping_add(offset);
                        port!(0, self.mem.write_l2(addr, x!(rs2)));
                        path.push_value(addr);
                    }
                    Op::LwL2 => {
                        retired = base.wrapping_add(i as u64);
                        pc = at!(0);
                        break 'block Ok(FunctionalStop::L2Read);
                    }
                    Op::Invalid(source) => fault!(0, PipeError::Decode { pc: at!(0), source }),
                    // Fused pairs: the first word's op, then the second's.
                    Op::AddiAddi { rd1, rs1, imm1, rd2, rs2, imm2 } => {
                        x!(rd1) = x!(rs1).wrapping_add(imm1 as u32);
                        x!(rd2) = x!(rs2).wrapping_add(imm2 as u32);
                        i += 1;
                    }
                    Op::LbuLbu { rd1, rs1, offset1, rd2, rs2, offset2 } => {
                        x!(rd1) = load!(0, x!(rs1).wrapping_add(offset1 as u32), 1);
                        x!(rd2) = load!(1, x!(rs2).wrapping_add(offset2 as u32), 1);
                        i += 1;
                    }
                    Op::AddAdd { rd1, a1, b1, rd2, a2, b2 } => {
                        x!(rd1) = x!(a1).wrapping_add(x!(b1));
                        x!(rd2) = x!(a2).wrapping_add(x!(b2));
                        i += 1;
                    }
                    Op::AddiBne { rd, rs, imm, rs1, rs2, target } => {
                        x!(rd) = x!(rs).wrapping_add(imm as u32);
                        branch!(1, x!(rs1) != x!(rs2), target);
                        i += 1;
                    }
                    Op::AddiBlt { rd, rs, imm, rs1, rs2, target } => {
                        x!(rd) = x!(rs).wrapping_add(imm as u32);
                        branch!(1, (x!(rs1) as i32) < (x!(rs2) as i32), target);
                        i += 1;
                    }
                }
                i += 1;
            }
            // The block ran out: past the program's last word or at the
            // budget, which the next head reports.
            retired = base.wrapping_add(end as u64);
            pc = (end as u32).wrapping_mul(4);
        };
        path.close_branches(word, fill);
        self.regs.copy_from_slice(&regs[..32]);
        self.pc = pc;
        outcome.map(|stop| (stop, retired))
    }

    /// Runs until `ebreak` retires or `max_cycles` elapse; returns the
    /// number of cycles consumed by this call.
    ///
    /// # Errors
    ///
    /// Returns [`PipeError::CycleLimit`] on budget exhaustion, or any error
    /// from [`step`](Self::step).
    pub fn run(&mut self, max_cycles: u64) -> Result<u64, PipeError> {
        let start = self.stats.cycles;
        while !self.halted {
            if self.stats.cycles - start >= max_cycles {
                return Err(PipeError::CycleLimit { limit: max_cycles });
            }
            self.step()?;
        }
        Ok(self.stats.cycles - start)
    }

    /// Runs until any of the mode-switch events (`trans_bnn`, `trans_cpu`,
    /// `trigger_bnn`) or `ebreak` retires; returns that event.
    ///
    /// # Errors
    ///
    /// Returns [`PipeError::CycleLimit`] on budget exhaustion, or any error
    /// from [`step`](Self::step).
    pub fn run_until_event(&mut self, max_cycles: u64) -> Result<Event, PipeError> {
        let start = self.stats.cycles;
        loop {
            if self.stats.cycles - start >= max_cycles {
                return Err(PipeError::CycleLimit { limit: max_cycles });
            }
            if let Some(ev) = self.step()? {
                match ev {
                    Event::Halted | Event::TransBnn | Event::TransCpu | Event::TriggerBnn => {
                        return Ok(ev)
                    }
                    _ => {}
                }
            }
        }
    }
}
