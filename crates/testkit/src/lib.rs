//! Hermetic test substrate for the NCPU workspace.
//!
//! The tier-1 verify of this repository must run **offline**: no crates.io
//! registry access, no vendored third-party code. This crate replaces the
//! three external crates the workspace previously depended on with
//! dependency-free equivalents that cover exactly the API surface the
//! workspace uses:
//!
//! * [`rng`] replaces `rand` — a SplitMix64-seeded xoshiro256\*\* PRNG with
//!   `seed_from_u64`, `gen`, `gen_range`, `gen_bool`, `shuffle` and a
//!   Box–Muller `normal` sampler. Every stream is a pure function of its
//!   seed, so experiment outputs stay bit-reproducible.
//! * [`prop`] replaces `proptest` — a shrinking property-test harness:
//!   cases are generated from per-case seeds, failures are greedily shrunk
//!   via the [`prop::Shrink`] trait, the failing seed is reported (and can
//!   be persisted to a regression-seed corpus file that is replayed before
//!   novel cases, like proptest's `.proptest-regressions`).
//! * [`bench`](mod@bench) replaces `criterion` — warmup, median-of-N wall-clock
//!   sampling, throughput accounting, and machine-readable JSON reports
//!   written to `BENCH_<suite>.json`.
//!
//! Nothing in this crate depends on any other workspace crate, so every
//! crate (including `ncpu-isa` at the bottom of the graph) can use it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod prop;
pub mod rng;
