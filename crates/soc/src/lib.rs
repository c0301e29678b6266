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
//! [`topology::Topology`]) and [`Engine::run`]
//! executes it on the [`Analytic`], [`Lockstep`], [`EventDriven`], or
//! [`Deep`] engine, returning a [`RunReport`] with the makespan,
//! per-core busy/mode timelines, utilizations, predicted classes and
//! energy — everything the paper's Figs. 13–17 and Table IV are made
//! of — plus the run's [`obs::Recorder`]. All engines are built on one
//! shared `fabric` module, so result mailboxes, program construction,
//! DMA staging, and report assembly cannot drift apart. [`EventDriven`]
//! is the byte-identical fast twin of [`Lockstep`]: an event-queue
//! scheduler that jumps between observable actions instead of walking
//! every cycle; [`Analytic`] runs NCPU fleets on it too, so the fast
//! engine is exact. [`run_independent`] runs two different use cases
//! side by side on one shared fabric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
mod deep;
pub mod energy;
mod event_queue;
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
pub use scenario::{Analytic, Deep, Engine, EventDriven, Lockstep, Scenario};
pub use system::{run_independent, SocConfig, SystemConfig};
pub use usecase::{pseudo_deep_model, pseudo_model, UseCase, UseCaseKind};

/// The fault-injection plan a [`Scenario`] carries (re-exported from
/// `ncpu-fault`; attach one with [`Scenario::with_faults`]).
pub use ncpu_fault::FaultPlan;

/// The observability layer the SoC records into ([`Engine::run`]
/// returns its [`obs::Recorder`]).
pub use ncpu_obs as obs;
