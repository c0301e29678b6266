//! The `Scenario`/`Engine` layer: one description of *what* to run, four
//! interchangeable simulators for *how* to run it.
//!
//! A [`Scenario`] bundles everything a run needs — the [`UseCase`], the
//! [`SystemConfig`] (for an NCPU fleet, its [`Topology`]: N ≥ 1 core
//! specs and the L2 banking), the [`SocConfig`] fabric parameters, the
//! [`TraceLevel`], an optional DVFS operating point, and a fault plan —
//! so experiments, the `paper` binary, and `ncpu-par` fan-out all pass
//! one value instead of ad-hoc tuples. [`Engine::run`]
//! is the only way to run a single use case; `run_independent` (two
//! different use cases sharing one fabric) is the only other entry
//! point.
//!
//! An [`Engine`] turns a scenario into a `(RunReport, Recorder)` pair.
//! Four engines exist, all built on the shared `fabric` module:
//!
//! * [`Analytic`] — the fast engine for every figure/table sweep. An
//!   NCPU fleet runs on the event engine below, under the plain
//!   `"{N}x ncpu"` label, so its reports are exact against `Lockstep`;
//!   the heterogeneous baseline has a scheduler of its own.
//! * [`Lockstep`] — the cycle-stepped co-simulation with real N-way L2
//!   port arbitration: the reference the fast engine is held to; NCPU
//!   systems only.
//! * [`EventDriven`] — the event-queue twin of `Lockstep`:
//!   byte-identical reports, counters, and event streams (pinned by
//!   `tests/engine_differential.rs`), but it jumps between observable
//!   actions and replays memoized item timing instead of walking every
//!   cycle. `Analytic`'s NCPU run, labeled `(event)`; NCPU systems only.
//! * [`Deep`] — the beyond-4-layer modes of paper Section VIII-A: one
//!   BNN-capable core rolls layers back onto one physical array, N ≥ 2
//!   connect in series. [`UseCaseKind::Deep`] use cases only.
//!
//! N-core semantics are uniform across engines: the item engines
//! (`Analytic`, `Lockstep`, `EventDriven`) dispatch items round-robin
//! over the item-capable cores ([`Topology::plan`]; `item i → core
//! i % N` on the homogeneous default), while `Deep` places one series
//! segment on each BNN-capable core.
//!
//! [`Topology`]: crate::topology::Topology
//! [`Topology::plan`]: crate::topology::Topology::plan

use ncpu_fault::FaultPlan;
use ncpu_obs::{Recorder, TraceLevel};

use crate::report::RunReport;
use crate::system::{SocConfig, SystemConfig};
use crate::usecase::{UseCase, UseCaseKind};

/// A complete, self-contained description of one end-to-end run.
#[derive(Debug, Clone)]
pub struct Scenario {
    usecase: UseCase,
    system: SystemConfig,
    soc: SocConfig,
    trace: TraceLevel,
    operating_point: Option<f64>,
    fault: FaultPlan,
}

impl Scenario {
    /// Builds a scenario with the default fabric ([`SocConfig::default`]),
    /// counter-level tracing, no DVFS operating point, and the inert
    /// fault plan.
    pub fn new(usecase: UseCase, system: SystemConfig) -> Scenario {
        Scenario {
            usecase,
            system,
            soc: SocConfig::default(),
            trace: TraceLevel::Counters,
            operating_point: None,
            fault: FaultPlan::none(),
        }
    }

    /// Replaces the fabric parameters.
    #[must_use]
    pub fn with_soc(mut self, soc: SocConfig) -> Scenario {
        self.soc = soc;
        self
    }

    /// Replaces the trace level.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceLevel) -> Scenario {
        self.trace = trace;
        self
    }

    /// Pins the DVFS operating point (supply voltage in volts) used by
    /// energy post-processing — and, when a fault plan is set, by the
    /// voltage-dependent SRAM soft-error rate.
    #[must_use]
    pub fn with_operating_point(mut self, volts: f64) -> Scenario {
        self.operating_point = Some(volts);
        self
    }

    /// Replaces the fault plan. The default ([`FaultPlan::none`]) is
    /// inert: every engine takes its exact pre-fault code path.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Scenario {
        self.fault = plan;
        self
    }

    /// The workload.
    pub fn usecase(&self) -> &UseCase {
        &self.usecase
    }

    /// The system configuration (for an NCPU fleet, its topology).
    pub const fn system(&self) -> &SystemConfig {
        &self.system
    }

    /// The fabric parameters.
    pub const fn soc(&self) -> &SocConfig {
        &self.soc
    }

    /// The trace level engines run at.
    pub const fn trace(&self) -> TraceLevel {
        self.trace
    }

    /// The DVFS operating point, if pinned.
    pub const fn operating_point(&self) -> Option<f64> {
        self.operating_point
    }

    /// Supply voltage for energy post-processing: the pinned operating
    /// point, or the nominal 1.0 V.
    pub fn volts(&self) -> f64 {
        self.operating_point.unwrap_or(1.0)
    }

    /// The fault plan (inert by default).
    pub const fn fault(&self) -> &FaultPlan {
        &self.fault
    }

    /// The operating point in millivolts — the integer form the fault
    /// layer's voltage-dependent soft-error scaling consumes.
    pub fn millivolts(&self) -> u32 {
        (self.volts() * 1000.0).round() as u32
    }

    /// The content-addressed cache key of this scenario: a 64-bit
    /// FNV-1a over [`crate::canonical::canonical_bytes`]. Equal keys
    /// mean the lockstep/event engine class produces byte-identical
    /// reports; the trace level and engine choice are deliberately
    /// excluded (see [`crate::canonical`]).
    pub fn cache_key(&self) -> u64 {
        crate::canonical::cache_key(self)
    }
}

/// A simulator that can execute a [`Scenario`].
///
/// All engines return the standard [`RunReport`] plus the root
/// [`Recorder`] (counters always populated; span/instant events per the
/// scenario's trace level), so callers swap engines without touching
/// their reporting code.
pub trait Engine {
    /// Stable short name (artifact/log tag).
    fn name(&self) -> &'static str;

    /// Runs the scenario to completion.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is outside the engine's domain (see each
    /// engine's docs) or a generated program faults.
    fn run(&self, scenario: &Scenario) -> (RunReport, Recorder);

    /// Convenience: runs and keeps only the report.
    fn report(&self, scenario: &Scenario) -> RunReport {
        self.run(scenario).0
    }
}

/// The fast engine — handles every [`SystemConfig`] and every non-deep
/// [`UseCaseKind`]: NCPU fleets on the event engine (exact against
/// [`Lockstep`]), the heterogeneous baseline on its own scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Analytic;

impl Engine for Analytic {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn run(&self, scenario: &Scenario) -> (RunReport, Recorder) {
        let _prof = ncpu_obs::selfprof::span("engine.analytic");
        crate::system::run(scenario)
    }
}

/// The cycle-stepped co-simulation with real L2 arbitration — NCPU
/// systems only.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lockstep;

impl Engine for Lockstep {
    fn name(&self) -> &'static str {
        "lockstep"
    }

    fn run(&self, scenario: &Scenario) -> (RunReport, Recorder) {
        let _prof = ncpu_obs::selfprof::span("engine.lockstep");
        let SystemConfig::Ncpu(topo) = &scenario.system else {
            panic!("the lock-step engine co-simulates NCPU cores, not the baseline");
        };
        crate::lockstep::run(scenario, topo)
    }
}

/// The event-driven co-simulation — byte-identical to [`Lockstep`] but
/// orders of magnitude faster on steady-state workloads; NCPU systems
/// only.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventDriven;

impl Engine for EventDriven {
    fn name(&self) -> &'static str {
        "event"
    }

    fn run(&self, scenario: &Scenario) -> (RunReport, Recorder) {
        let _prof = ncpu_obs::selfprof::span("engine.event");
        let SystemConfig::Ncpu(topo) = &scenario.system else {
            panic!("the event-driven engine co-simulates NCPU cores, not the baseline");
        };
        crate::eventdriven::run(scenario, topo)
    }
}

/// The beyond-4-layer deep-network engine: rollback on one core, series
/// pipeline on N ≥ 2 — [`UseCaseKind::Deep`] use cases only.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deep;

impl Engine for Deep {
    fn name(&self) -> &'static str {
        "deep"
    }

    fn run(&self, scenario: &Scenario) -> (RunReport, Recorder) {
        let _prof = ncpu_obs::selfprof::span("engine.deep");
        assert_eq!(
            scenario.usecase.kind(),
            UseCaseKind::Deep,
            "the deep engine runs UseCase::deep workloads"
        );
        let SystemConfig::Ncpu(topo) = &scenario.system else {
            panic!("the deep engine schedules NCPU cores, not the baseline");
        };
        crate::deep::run(scenario, topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::pseudo_model;

    #[test]
    fn scenario_carries_every_knob() {
        let uc = UseCase::parametric(0.5, 2, pseudo_model(784, 20, 10));
        let soc = SocConfig { dma_bytes_per_cycle: 8, ..SocConfig::default() };
        let plan = FaultPlan { seed: 9, sram_flip_ppm: 1_000, ..FaultPlan::none() };
        let s = Scenario::new(uc, SystemConfig::ncpu(4))
            .with_soc(soc)
            .with_trace(TraceLevel::Full)
            .with_operating_point(0.6)
            .with_faults(plan);
        assert_eq!(s.system(), &SystemConfig::ncpu(4));
        assert_eq!(s.soc().dma_bytes_per_cycle, 8);
        assert_eq!(s.trace(), TraceLevel::Full);
        assert_eq!(s.operating_point(), Some(0.6));
        assert!((s.volts() - 0.6).abs() < 1e-12);
        assert_eq!(s.fault(), &plan);
        assert_eq!(s.millivolts(), 600);
        let hetero = Scenario::new(
            UseCase::parametric(0.5, 2, pseudo_model(784, 20, 10)),
            SystemConfig::Heterogeneous,
        );
        assert!((hetero.volts() - 1.0).abs() < 1e-12);
        assert_eq!(hetero.millivolts(), 1000);
        // The default plan is the inert one: no injection, no watchdog.
        assert!(!hetero.fault().is_active());
    }

    #[test]
    fn engines_are_interchangeable_behind_the_trait() {
        let uc = UseCase::parametric(0.6, 4, pseudo_model(784, 20, 10));
        let s = Scenario::new(uc, SystemConfig::ncpu(2));
        let engines: Vec<Box<dyn Engine>> = vec![Box::new(Analytic), Box::new(Lockstep)];
        let reports: Vec<RunReport> = engines.iter().map(|e| e.report(&s)).collect();
        assert_eq!(reports[0].predictions, reports[1].predictions);
        assert_eq!(reports[0].cores.len(), reports[1].cores.len());
    }

    #[test]
    #[should_panic(expected = "NCPU cores")]
    fn lockstep_rejects_heterogeneous() {
        let uc = UseCase::parametric(0.6, 2, pseudo_model(784, 20, 10));
        Lockstep.run(&Scenario::new(uc, SystemConfig::Heterogeneous));
    }

    #[test]
    #[should_panic(expected = "deep engine")]
    fn deep_rejects_non_deep_use_cases() {
        let uc = UseCase::parametric(0.6, 2, pseudo_model(784, 20, 10));
        Deep.run(&Scenario::new(uc, SystemConfig::ncpu(1)));
    }

    #[test]
    fn deep_engine_rolls_back_and_pipelines_in_series() {
        let model = crate::deep::tests::deep_model(8);
        let ins = crate::deep::tests::inputs(6);
        let uc = UseCase::deep(model, &ins);
        let reference: Vec<usize> = uc.items().iter().map(|i| i.label).collect();
        let rolled = Deep.report(&Scenario::new(uc.clone(), SystemConfig::ncpu(1)));
        assert_eq!(rolled.config, "deep rollback (1 core)");
        assert_eq!(rolled.predictions, reference);
        assert_eq!(rolled.cores.len(), 1);
        for cores in [2usize, 4] {
            let (report, rec) =
                Deep.run(&Scenario::new(uc.clone(), SystemConfig::ncpu(cores)));
            assert_eq!(report.config, format!("{cores}x ncpu (series)"));
            assert_eq!(report.predictions, reference, "{cores} segments");
            assert_eq!(report.cores.len(), cores);
            assert!(report.cores.iter().all(|c| c.busy_cycles > 0));
            assert!(report.makespan <= rolled.makespan);
            assert!(rec.counters().get("deep.steady_interval") > 0);
        }
    }

    #[test]
    fn deep_engine_prices_faults_and_drops_items() {
        let model = crate::deep::tests::deep_model(8);
        let ins = crate::deep::tests::inputs(8);
        let uc = UseCase::deep(model, &ins);
        let total = uc.items().len();
        let plan = FaultPlan {
            seed: 13,
            sram_flip_ppm: 400_000,
            dma_stall_ppm: 200_000,
            dma_stall_cycles: 400,
            dma_truncate_ppm: 200_000,
            max_retries: 1,
            backoff_cycles: 64,
            ..FaultPlan::none()
        };
        for cores in [1usize, 2] {
            let clean = Deep.report(&Scenario::new(uc.clone(), SystemConfig::ncpu(cores)));
            let scenario = Scenario::new(uc.clone(), SystemConfig::ncpu(cores))
                .with_operating_point(0.8)
                .with_trace(TraceLevel::Full)
                .with_faults(plan);
            let (report, rec) = Deep.run(&scenario);
            let (again, rec2) = Deep.run(&scenario);
            assert_eq!(report.makespan, again.makespan, "faulted deep run is deterministic");
            assert_eq!(report.predictions, again.predictions);
            assert_eq!(rec.metrics().to_json(), rec2.metrics().to_json());
            let injected = rec.counters().get("fault.injected.sram_flip")
                + rec.counters().get("fault.injected.dma_stall")
                + rec.counters().get("fault.injected.dma_truncate");
            assert!(injected > 0, "aggressive plan must inject ({cores} cores)");
            let dropped = rec.counters().get("fault.items_dropped");
            assert!(dropped > 0, "max_retries 1 at 800 mV must drop something");
            // Every item keeps a prediction slot; dropped ones hold the
            // sentinel, surviving ones classify exactly as the clean run.
            assert_eq!(report.predictions.len(), total);
            let sentinels = report
                .predictions
                .iter()
                .filter(|&&p| p == crate::fabric::DROPPED_PREDICTION)
                .count() as u64;
            assert_eq!(sentinels, dropped);
            for (faulted, clean) in report.predictions.iter().zip(&clean.predictions) {
                if *faulted != crate::fabric::DROPPED_PREDICTION {
                    assert_eq!(faulted, clean);
                }
            }
            assert_eq!(rec.counters().get("run.items"), total as u64);
            // The makespan covers the fault layer's whole story: no
            // detection or recovery instant may land past it. (It can
            // still be *shorter* than the clean run — dropped images
            // never occupy the array.)
            let last_fault_event = rec
                .events()
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        ncpu_obs::EventKind::Fault { .. }
                            | ncpu_obs::EventKind::Detect { .. }
                            | ncpu_obs::EventKind::Recover { .. }
                    )
                })
                .map(|e| e.cycle)
                .max()
                .expect("aggressive plan must leave fault events");
            assert!(report.makespan >= last_fault_event);
            assert_eq!(rec.counters().get("run.makespan_cycles"), report.makespan);
            assert_eq!(rec.counters().get("fault.cores_quarantined"), 0);
        }
    }
}
