//! The functional (untimed) execution mode's path record.
//!
//! [`Pipeline::run_functional`](crate::Pipeline::run_functional) executes
//! the program's micro-op table (see [`Program`](crate::Program)): one
//! op per word, adjacent pairs fused inside each basic block, and `x0`
//! destinations lowered to a sink. It checks the budget and the PC only
//! on entry and after taken jumps, and derives an op's PC and retire
//! count from its word index only when a stop or fault needs them. It
//! makes the data accesses the MEM stage makes, but keeps no latches,
//! hazards or pipeline counters. What the port counts per access (an
//! SRAM bank's reads, writes and generation) still advances, whether
//! the access goes to the port's
//! [`data_cache`](crate::MemPort::data_cache) bank directly or through
//! the port. What it leaves behind besides the architectural state is a
//! [`PathLog`]: every data-dependent choice the execution made. The
//! pipeline's timing is a function of the program and that log alone —
//! which instructions issue in which order decides every hazard, flush
//! and multi-cycle wait — so two executions of one program with equal
//! logs take the same cycles, stalls and L2 touch offsets.

use ncpu_isa::interp::Event;

/// Every data-dependent choice one functional execution made, in
/// execution order:
///
/// * each conditional branch's outcome, one bit;
/// * each `jalr` target;
/// * each `sw_l2` address (it appears in the full trace's L2 events);
/// * any value an embedding layer appends through
///   [`push_value`](Self::push_value) (the NCPU core logs each
///   `trans_bnn`'s image count there).
///
/// Which stream the next entry comes from is fixed by the instruction
/// the program reaches, so the two streams together identify the path
/// exactly. Logs compare byte for byte; a log is never reduced to a
/// hash.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PathLog {
    /// Branch outcomes so far.
    branches: u64,
    /// Outcome `i` is bit `i % 64` of word `i / 64` (taken = 1).
    bits: Vec<u64>,
    /// `jalr` targets, `sw_l2` addresses and appended values.
    values: Vec<u32>,
}

impl PathLog {
    /// An empty log.
    pub fn new() -> PathLog {
        PathLog::default()
    }

    /// Records one conditional-branch outcome.
    #[inline]
    pub fn push_branch(&mut self, taken: bool) {
        let (word, fill) = self.open_branches();
        self.close_branches(word | u64::from(taken) << fill, fill + 1);
    }

    /// Takes the branch stream's last word and how many outcomes it
    /// holds (0 to 63; a full word stays), for a caller that appends
    /// outcomes in a local and hands them back through
    /// [`push_branch_word`](Self::push_branch_word) and
    /// [`close_branches`](Self::close_branches).
    #[inline]
    pub(crate) fn open_branches(&mut self) -> (u64, u32) {
        let fill = (self.branches % 64) as u32;
        if fill == 0 {
            return (0, 0);
        }
        self.branches -= u64::from(fill);
        (self.bits.pop().expect("a partly filled word"), fill)
    }

    /// Appends a full word of 64 outcomes.
    #[inline]
    pub(crate) fn push_branch_word(&mut self, word: u64) {
        self.bits.push(word);
        self.branches += 64;
    }

    /// Appends the `fill` outcomes of `word` (low bits first) after an
    /// [`open_branches`](Self::open_branches); 64 outcomes make a full
    /// word.
    #[inline]
    pub(crate) fn close_branches(&mut self, word: u64, fill: u32) {
        if fill > 0 {
            self.bits.push(word);
            self.branches += u64::from(fill);
        }
    }

    /// Records one data-dependent value (a `jalr` target, an `sw_l2`
    /// address, or an embedding layer's own choice).
    #[inline]
    pub fn push_value(&mut self, value: u32) {
        self.values.push(value);
    }

    /// Heap bytes the log holds (for memo size bounds).
    pub fn heap_bytes(&self) -> usize {
        self.bits.len() * 8 + self.values.len() * 4
    }
}

/// Why [`Pipeline::run_functional`](crate::Pipeline::run_functional)
/// returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunctionalStop {
    /// An instruction whose effect lies outside the pipeline retired:
    /// `ecall`, `ebreak` ([`Event::Halted`]), `mv_neu`, `trans_bnn`,
    /// `trans_cpu` or `trigger_bnn`. The PC points past it.
    Event(Event),
    /// The next instruction is an `lw_l2`, which the functional mode
    /// does not execute: what it reads may depend on other cores. The
    /// PC points at it.
    L2Read,
    /// The instruction budget is spent; the PC points at the next
    /// instruction, so a further call resumes exactly there.
    Budget,
}
