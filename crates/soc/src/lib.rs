//! The N-core NCPU SoC and the conventional heterogeneous baseline.
//!
//! Reproduces the end-to-end system of paper Section VI/VII: a shared
//! incoherent L2, a DMA engine, and either
//!
//! * the **heterogeneous baseline** — one standalone 5-stage CPU that
//!   pre-processes each item, offloads the packed BNN input over the
//!   L2/DMA path (`trigger_bnn`), and a standalone layer-pipelined BNN
//!   accelerator that classifies as inputs arrive, or
//! * **N ≥ 1 NCPU cores** (the paper builds 1 and 2) — each core
//!   pre-processes with data written straight into its local image
//!   memory, switches modes with zero latency, classifies in place, and
//!   switches back.
//!
//! A [`Scenario`] describes one run (use case × system × fabric × trace
//! × operating point × fault plan; an NCPU system is its
//! [`topology::Topology`]; [`Scenario::independent`] gives a fleet's
//! cores different use cases, paper Section VI-A) and [`Engine::run`]
//! executes it on one of two engines, one per clock, returning a
//! [`RunReport`] with the makespan, per-core busy/mode timelines,
//! utilizations, predicted classes and energy — everything the paper's
//! Figs. 13–17 and Table IV are made of — plus the run's
//! [`obs::Recorder`]. Both engines run every scenario: the baseline and
//! the deep modes have one body each, and the engine picks only the
//! clock an NCPU fleet's item batches run on. [`Lockstep`] walks every
//! cycle; [`EventDriven`] is its byte-identical fast twin (one wakeup
//! slot per core, jumping between observable actions), so the fast
//! engine is exact and a report does not name the engine that produced
//! it. Both engines are built on one shared `fabric` module, so result
//! mailboxes, program construction, DMA staging, and report assembly
//! cannot drift apart. [`Engine::run`] is the crate's only run function.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
mod deep;
pub mod energy;
mod eventdriven;
mod fabric;
mod lockstep;
pub mod phases;
mod report;
mod scenario;
mod system;
mod timing;
pub mod topology;
mod usecase;

pub use canonical::{cache_key, canonical_bytes, fnv1a_64};
pub use fabric::{result_addr, DROPPED_PREDICTION, ITEM_BUDGET, L2_BYTES};
pub use report::{CoreReport, RunReport};
// The fast engine's former name, kept only because `servebench` (built
// outside this workspace) still imports it.
#[doc(hidden)]
pub use scenario::EventDriven as Analytic;
pub use scenario::{Engine, EventDriven, Lockstep, Scenario};
pub use system::{SocConfig, SystemConfig};
pub use usecase::{pseudo_deep_model, pseudo_model, UseCase, UseCaseKind};

/// The fault-injection plan a [`Scenario`] carries (re-exported from
/// `ncpu-fault`; attach one with [`Scenario::with_faults`]).
pub use ncpu_fault::FaultPlan;

/// The observability layer the SoC records into ([`Engine::run`]
/// returns its [`obs::Recorder`]).
pub use ncpu_obs as obs;
