//! # NCPU — a reproduction of the Neural CPU architecture (MICRO 2020)
//!
//! This workspace reproduces *"NCPU: An Embedded Neural CPU Architecture
//! on Resource-Constrained Low Power Devices for Real-time End-to-End
//! Performance"* (Jia, Ju, Joseph, Gu — MICRO 2020) in Rust: a
//! cycle-level simulator of the reconfigurable RISC-V/BNN core, every
//! substrate it depends on, and the paper's full evaluation.
//!
//! This crate is the facade: it re-exports the workspace's crates under
//! one name and hosts the runnable examples and cross-crate integration
//! tests. The subsystems are:
//!
//! * [`isa`] — RV32I + the five customized NCPU instructions: encoder,
//!   decoder, assembler, golden-model interpreter,
//! * [`bnn`] — binarized neural networks: packed ±1 vectors, training,
//!   synthetic datasets (MNIST/Ninapro stand-ins),
//! * [`sim`] — SRAM banks, address arbiter, DMA, statistics, power traces,
//! * [`obs`] — cycle-stamped event tracing, counters, and run artifacts
//!   (`NCPU_TRACE=off|counters|full`, `NCPU_TRACE_DIR=<dir>`),
//! * [`pipeline`] — the cycle-accurate 5-stage in-order RV32I pipeline,
//! * [`accel`] — the cycle-level layer-pipelined BNN accelerator,
//! * [`core`] — **the paper's contribution**: the unified NCPU core with
//!   zero-latency mode switching and in-place memory reuse,
//! * [`soc`] — the N-core SoC, the heterogeneous baseline, the
//!   end-to-end use cases, and the `Scenario`/`Engine` layer that runs
//!   them,
//! * [`serve`] — the scenario fleet service: batched simulation serving
//!   over line-delimited JSON with a content-addressed result cache
//!   (`ncpu serve`),
//! * [`power`] — the calibrated 65nm DVFS/power/area model,
//! * [`workloads`] — the RV32I programs (image pipeline, motion features,
//!   software BNN, Dhrystone-class benchmark, MiBench-class kernels),
//! * [`nalu`] — the Neural-ALU counter-experiment.
//!
//! # Quick start
//!
//! ```
//! use ncpu::core::{NcpuCore, SwitchPolicy};
//! use ncpu::accel::AccelConfig;
//! use ncpu::bnn::{BnnModel, Topology};
//! use ncpu::isa::asm;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A core serving a (untrained) 32-bit/4-class model.
//! let model = BnnModel::zeros(&Topology::new(32, vec![8, 8], 4));
//! let mut core = NcpuCore::new(model, AccelConfig::default(), SwitchPolicy::ZeroLatency);
//!
//! // A RISC-V program: write an image, reconfigure, classify, read back.
//! let program = asm::assemble(&format!(
//!     "li t0, {img}
//!      li t1, 0x0f0f0f0f
//!      sw t1, 0(t0)
//!      li t2, 1
//!      mv_neu t2, 0
//!      trans_bnn
//!      li t3, {out}
//!      lw a0, 0(t3)
//!      ebreak",
//!     img = core.image_base(),
//!     out = core.output_base(),
//! ))?;
//! core.load_program(program);
//! core.run(1_000_000)?;
//! assert!(core.pipeline().reg(ncpu::isa::Reg::A0) < 4);
//! # Ok(())
//! # }
//! ```
//!
//! # Reproducing the paper
//!
//! Every table and figure has a regeneration target; see `DESIGN.md` for
//! the index and `EXPERIMENTS.md` for paper-vs-measured results:
//!
//! ```text
//! cargo run --release -p ncpu-bench --bin paper    # everything
//! cargo run --release -p ncpu-bench --bin paper fig13  # one experiment
//! cargo bench                                      # fast set + micro-benches
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ncpu_accel as accel;
pub use ncpu_bnn as bnn;
pub use ncpu_core as core;
pub use ncpu_isa as isa;
pub use ncpu_nalu as nalu;
pub use ncpu_obs as obs;
pub use ncpu_pipeline as pipeline;
pub use ncpu_power as power;
pub use ncpu_serve as serve;
pub use ncpu_sim as sim;
pub use ncpu_soc as soc;
pub use ncpu_workloads as workloads;

/// Commonly used items, one `use` away.
pub mod prelude {
    pub use ncpu_accel::{AccelConfig, Accelerator};
    pub use ncpu_bnn::{BitVec, BnnModel, Topology};
    pub use ncpu_core::{NcpuCore, SwitchPolicy};
    pub use ncpu_isa::{asm, decode, Instruction, Reg};
    pub use ncpu_obs::TraceLevel;
    pub use ncpu_pipeline::{FlatMem, Pipeline};
    pub use ncpu_power::{AreaModel, CoreKind, PowerModel};
    pub use ncpu_soc::{
        Engine, EventDriven, FaultPlan, Lockstep, Scenario, SocConfig, SystemConfig, UseCase,
    };
}
