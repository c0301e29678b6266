//! The Neural CPU (NCPU): the paper's primary contribution.
//!
//! A single reconfigurable core that runs both as an in-order RV32I CPU
//! and as a 4-layer BNN accelerator, with the accelerator's SRAM banks
//! reused as the CPU's data cache so mode switches move **no data**:
//!
//! * CPU mode executes on the cycle-accurate pipeline from
//!   `ncpu-pipeline`, with data accesses routed through the accelerator's
//!   weight/image/output banks via the address arbiter (paper Fig. 4),
//! * the customized instructions drive reconfiguration: `mv_neu` loads
//!   transition neurons with BNN run configuration, `trans_bnn` switches
//!   to inference on whatever the program left in the image memory, and
//!   results land in the output memory for post-processing after the
//!   automatic switch back,
//! * the zero-latency switch protocol (paper Fig. 5) keeps layer-1
//!   weights resident and hides deeper-layer weight loads behind
//!   inference; the naive alternative (used by the switch-cost ablation)
//!   pays an explicit weight-reload stall,
//! * [`NcpuCore::run_functional`] runs a program without stepping the
//!   pipeline to the end state [`NcpuCore::run`] reaches — clock,
//!   counters, spans and L2 touches included — pricing its cycles block
//!   by block and serving each `trans_bnn` where it retires.
//!
//! # Examples
//!
//! ```
//! use ncpu_core::{NcpuCore, SwitchPolicy};
//! use ncpu_accel::AccelConfig;
//! use ncpu_bnn::{BnnModel, Topology};
//! use ncpu_isa::asm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = BnnModel::zeros(&Topology::new(32, vec![8, 8], 4));
//! let mut core = NcpuCore::new(model, AccelConfig::default(), SwitchPolicy::ZeroLatency);
//! // Write a 32-bit image to the image memory, then classify it.
//! let img = core.image_base();
//! let program = asm::assemble(&format!(
//!     "li t0, {img}
//!      li t1, 0x0f0f0f0f
//!      sw t1, 0(t0)
//!      li t2, 1
//!      mv_neu t2, 0      # one image
//!      trans_bnn
//!      li t3, {out}
//!      lw a0, 0(t3)      # classification result
//!      ebreak",
//!     out = core.output_base(),
//! ))?;
//! core.load_program(program);
//! core.run(1_000_000)?;
//! assert!(core.pipeline().reg(ncpu_isa::Reg::A0) < 4);
//! assert_eq!(core.stats().images_inferred, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod l2;
mod mem;
mod ncpu;

pub use l2::{BankPorts, SharedL2};
pub use mem::NcpuMem;
pub use ncpu::{
    CoreError, CoreStats, NcpuCore, ReplayDelta, ReplayState, StepOutcome, SwitchDma,
    SwitchPolicy, TRANSITION_NEURONS,
};
