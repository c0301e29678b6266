//! Cycle-accurate 5-stage in-order RV32I pipeline.
//!
//! This is the standalone-CPU baseline of the NCPU paper: an in-house
//! 5-stage (IF/ID/EX/MEM/WB) in-order pipeline "similar to the RISC-V
//! Rocket core". The model is latch-level — each [`step`](Pipeline::step)
//! advances one clock cycle, moving instructions between stage latches —
//! with:
//!
//! * full operand forwarding (EX/MEM → EX and MEM/WB → EX),
//! * a one-cycle load-use interlock,
//! * branches and jumps resolved in EX with a two-cycle flush,
//! * a multi-cycle multiplier (the paper builds MUL from neuron adders),
//! * stalling `lw_l2`/`sw_l2` accesses to the shared L2,
//! * per-mnemonic retire counters feeding the Fig. 11(b) power breakdown,
//!   one dense array slot per mnemonic,
//! * a predecoded instruction memory ([`Program`]): each word is decoded
//!   once at load, and a word that fails to decode faults only if it
//!   reaches ID,
//! * a functional mode ([`Pipeline::run_functional`]) that executes the
//!   same program untimed — each word lowered once, at load, to a flat
//!   micro-op dispatched by a single `match`, adjacent pairs fused per
//!   basic block, with the budget and PC checked only on entry and after
//!   taken jumps, and data-cache accesses made on the bank in place —
//!   whose counters and clock are priced by the block from a table each
//!   [`Program`] fills on the timed pipeline.
//!
//! Architectural results are differential-tested against the functional
//! golden model in [`ncpu_isa::interp`].
//!
//! # Examples
//!
//! ```
//! use ncpu_isa::asm;
//! use ncpu_pipeline::{FlatMem, Pipeline};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = asm::assemble("li a0, 21\nadd a0, a0, a0\nebreak")?;
//! let mut cpu = Pipeline::new(program, FlatMem::new(4096));
//! cpu.run(1_000)?;
//! assert_eq!(cpu.reg(ncpu_isa::Reg::A0), 42);
//! assert!(cpu.stats().cycles >= cpu.stats().retired);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core;
mod functional;
mod memport;
mod program;
mod stats;
mod trace;

pub use crate::core::{Pipeline, PipelineConfig, PipeError};
pub use functional::FunctionalStop;
pub use memport::{FlatMem, MemFault, MemPort};
pub use program::Program;
pub use stats::{InstrCounts, PipeStats};
pub use trace::{RetireTrace, TraceEntry};
