//! Pipeline performance counters.

use ncpu_isa::Instruction;

/// Retire counts per mnemonic: one dense slot per entry of
/// [`Instruction::MNEMONICS`], indexed by
/// [`Instruction::mnemonic_index`], so counting a retirement is one array
/// increment and merging or diffing two blocks is elementwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrCounts([u64; Instruction::MNEMONICS.len()]);

impl Default for InstrCounts {
    fn default() -> InstrCounts {
        InstrCounts([0; Instruction::MNEMONICS.len()])
    }
}

impl InstrCounts {
    /// Counts one retirement of `instr`.
    pub(crate) fn record(&mut self, instr: &Instruction) {
        self.0[instr.mnemonic_index()] += 1;
    }

    /// Retire count for one mnemonic (0 for a string that is no mnemonic).
    pub fn get(&self, mnemonic: &str) -> u64 {
        Instruction::MNEMONICS
            .iter()
            .position(|&m| m == mnemonic)
            .map_or(0, |i| self.0[i])
    }

    /// The nonzero counts, in [`Instruction::MNEMONICS`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Instruction::MNEMONICS.into_iter().zip(self.0).filter(|&(_, n)| n > 0)
    }

    fn add(&mut self, other: &InstrCounts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    fn sub(&self, earlier: &InstrCounts) -> InstrCounts {
        let mut delta = *self;
        for (a, b) in delta.0.iter_mut().zip(earlier.0) {
            *a -= b;
        }
        delta
    }
}

/// Performance counters accumulated by the pipeline.
///
/// `per_instr` counts retirements per stable mnemonic from
/// [`Instruction::mnemonic`]; the Fig. 11(b) per-instruction power
/// breakdown is computed from these retire counts. The block is `Copy`:
/// snapshotting it allocates nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipeStats {
    /// Elapsed clock cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// Cycles lost to load-use interlocks.
    pub load_use_stalls: u64,
    /// Cycles lost to control-flow flushes (2 per taken redirect).
    pub flush_cycles: u64,
    /// Extra cycles spent waiting on multi-cycle EX operations (`mul`).
    pub ex_stall_cycles: u64,
    /// Extra cycles spent waiting on L2 accesses (`lw_l2`/`sw_l2`).
    pub mem_stall_cycles: u64,
    /// Retire count per mnemonic.
    pub per_instr: InstrCounts,
}

impl PipeStats {
    /// Instructions per cycle (0 when no cycles have elapsed).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Retire count for one mnemonic.
    pub fn count(&self, mnemonic: &str) -> u64 {
        self.per_instr.get(mnemonic)
    }

    /// Adds another stats block (used when a core alternates modes, and
    /// by replaying engines advancing counters by a recorded delta).
    pub fn merge(&mut self, other: &PipeStats) {
        self.cycles += other.cycles;
        self.retired += other.retired;
        self.load_use_stalls += other.load_use_stalls;
        self.flush_cycles += other.flush_cycles;
        self.ex_stall_cycles += other.ex_stall_cycles;
        self.mem_stall_cycles += other.mem_stall_cycles;
        self.per_instr.add(&other.per_instr);
    }

    /// Fieldwise `self - earlier`: the counters one execution added
    /// between the `earlier` snapshot and this one.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any counter of `earlier` exceeds this
    /// block's — counters only grow.
    pub fn diff(&self, earlier: &PipeStats) -> PipeStats {
        PipeStats {
            cycles: self.cycles - earlier.cycles,
            retired: self.retired - earlier.retired,
            load_use_stalls: self.load_use_stalls - earlier.load_use_stalls,
            flush_cycles: self.flush_cycles - earlier.flush_cycles,
            ex_stall_cycles: self.ex_stall_cycles - earlier.ex_stall_cycles,
            mem_stall_cycles: self.mem_stall_cycles - earlier.mem_stall_cycles,
            per_instr: self.per_instr.sub(&earlier.per_instr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncpu_isa::{AluOp, LoadOp, Reg};

    const ADD: Instruction =
        Instruction::Op { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A0, rs2: Reg::A1 };
    const LW: Instruction =
        Instruction::Load { op: LoadOp::Word, rd: Reg::A0, rs1: Reg::A0, offset: 0 };

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(PipeStats::default().ipc(), 0.0);
    }

    fn pair() -> (PipeStats, PipeStats) {
        let mut a = PipeStats { cycles: 10, retired: 8, ..Default::default() };
        (0..3).for_each(|_| a.per_instr.record(&ADD));
        let mut b = PipeStats { cycles: 5, retired: 5, ..Default::default() };
        (0..2).for_each(|_| b.per_instr.record(&ADD));
        b.per_instr.record(&LW);
        (a, b)
    }

    #[test]
    fn merge_accumulates() {
        let (mut a, b) = pair();
        a.merge(&b);
        assert_eq!(a.cycles, 15);
        assert_eq!(a.count("add"), 5);
        assert_eq!(a.count("lw"), 1);
        assert_eq!(a.count("sw"), 0);
        assert_eq!(a.count("not-a-mnemonic"), 0);
    }

    #[test]
    fn diff_inverts_merge() {
        let (mut a, b) = pair();
        let before = a;
        a.merge(&b);
        assert_eq!(a.diff(&before), b);
    }

    #[test]
    fn iteration_yields_nonzero_counts_in_mnemonic_order() {
        let mut c = InstrCounts::default();
        c.record(&LW);
        c.record(&ADD);
        c.record(&LW);
        assert_eq!(c.iter().collect::<Vec<_>>(), [("lw", 2), ("add", 1)]);
    }
}
