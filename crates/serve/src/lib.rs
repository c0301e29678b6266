//! `ncpu-serve` — the scenario fleet service.
//!
//! A long-running front end over the simulation stack: clients submit
//! [`Scenario`](ncpu_soc::Scenario) specs as line-delimited JSON (over
//! stdin or TCP), the service batches them across an `ncpu-par` worker
//! fleet, and streams back finished `RunReport` artifacts — one
//! response line per request line, in request order.
//!
//! The headline mechanism is the **content-addressed result cache**:
//! every request is canonicalized by `ncpu-soc`'s
//! [`cache_key`](ncpu_soc::cache_key) (stable field order, normalized
//! operating point, engine-invariant fields excluded), so semantically
//! identical requests — regardless of field order, spelling of
//! defaults, or requested engine within the byte-identical
//! lockstep/event pair — share one entry and duplicate requests are
//! answered with the exact cached bytes. Hits, misses, and evictions
//! are pinned counters in the `ncpu-obs` registry, observable live via
//! the `stats` op.
//!
//! Module map:
//!
//! * [`spec`] — the JSON request surface and its hardened parser
//!   (fault knobs share `ncpu-fault`'s `NCPU_FAULT_*` code path);
//! * [`cache`] — deterministic bounded LRU keyed by canonical hash;
//! * [`fleet`] — batch planner, engine router (every NCPU workload →
//!   event-driven unless lockstep is pinned, heterogeneous → analytic),
//!   and the order-preserving parallel executor;
//! * [`server`] — the line protocol and the stdin/TCP front ends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod fleet;
pub mod server;
pub mod spec;

pub use cache::{CacheEntry, ResultCache};
pub use fleet::{Fleet, RunOutcome, COUNTER_NAMES};
pub use server::{serve_lines, serve_tcp, FleetAccess, ServeConfig};
pub use spec::{EnginePref, ScenarioSpec, WorkloadSpec};
