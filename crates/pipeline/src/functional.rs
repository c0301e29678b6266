//! The functional execution mode's stop reasons.
//!
//! [`Pipeline::run_functional`](crate::Pipeline::run_functional) executes
//! the program's micro-op table (see [`Program`](crate::Program)): one
//! op per word, adjacent pairs fused inside each basic block, and `x0`
//! destinations lowered to a sink. It checks the budget and the PC only
//! on entry and after taken jumps, and derives an op's PC and retire
//! count from its word index only when a stop or fault needs them. It
//! makes the data accesses the MEM stage makes, but keeps no latches or
//! hazards. What the port counts per access (an SRAM bank's reads,
//! writes and generation) still advances, whether the access goes to
//! the port's [`data_cache`](crate::MemPort::data_cache) bank directly
//! or through the port.
//!
//! Its clock is priced by the block. The pipeline is in order with
//! fixed latencies, so which instructions issue in which order decides
//! every hazard, flush and multi-cycle wait, and a taken transfer or a
//! serializing instruction leaves nothing in flight behind it. A
//! straight-line run of words that ends at one of them therefore takes
//! the same cycles, stalls and L2 touch offsets on every visit with the
//! same entry, and the timed pipeline measures each such block once per
//! program.

use ncpu_isa::interp::Event;

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
