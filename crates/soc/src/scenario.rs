//! The `Scenario`/`Engine` layer: one description of *what* to run, two
//! interchangeable simulators, one per clock, for *how* to run it.
//!
//! A [`Scenario`] bundles everything a run needs — the workloads (one
//! [`UseCase`], or with [`Scenario::independent`] several that share one
//! NCPU fleet), the [`SystemConfig`] (for an NCPU fleet, its
//! [`Topology`]: N ≥ 1 core specs and the L2 banking), the [`SocConfig`]
//! fabric parameters, the [`TraceLevel`], an optional DVFS operating
//! point, and a fault plan — so experiments, the `paper` binary, and
//! `ncpu-par` fan-out all pass one value instead of ad-hoc tuples.
//! [`Engine::run`] is the only way to run a simulation.
//!
//! An [`Engine`] turns a scenario into a `(RunReport, Recorder)` pair.
//! Both engines run every scenario, and one private dispatcher picks the
//! body from the system and the use-case kind:
//!
//! * the heterogeneous baseline runs its own scheduler;
//! * a [`UseCaseKind::Deep`] use case on an NCPU fleet runs the
//!   beyond-4-layer modes of paper Section VIII-A: one BNN-capable core
//!   rolls layers back onto one physical array, N ≥ 2 connect in series;
//! * image, motion and parametric batches on an NCPU fleet run on the
//!   engine's item clock: [`Lockstep`] walks one global cycle at a time
//!   with real N-way L2 port arbitration, and [`EventDriven`] jumps
//!   between observable actions and replays memoized item timing
//!   instead.
//!
//! The baseline and deep bodies are the only exact model of their
//! systems, and the two item clocks give byte-identical reports,
//! counters, metrics and event streams (pinned by
//! `tests/engine_differential.rs`), so a report does not name the engine
//! that produced it. The one observable difference is that only the
//! event-driven clock fills the use case's timing memo.
//!
//! N-core semantics are uniform: item batches dispatch round-robin over
//! the item-capable cores (`item i → core i % N` on the homogeneous
//! default), while a deep model places one series segment on each
//! BNN-capable core. Paper Section VI-A's mixed workloads, where the cores
//! "operate independently for different workload tasks", are one
//! scenario too: item-capable core *j* runs workload *j* mod *W*, and each
//! workload's items go round-robin over its own cores, all on one shared
//! L2 and DMA fabric. The heterogeneous baseline has no deep mode: a deep
//! use case there panics in the dispatcher.

use ncpu_fault::FaultPlan;
use ncpu_obs::{Recorder, TraceLevel};

use crate::report::RunReport;
use crate::system::{SocConfig, SystemConfig};
use crate::topology::Topology;
use crate::usecase::{UseCase, UseCaseKind};

/// A complete, self-contained description of one end-to-end run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Never empty; a deep use case only ever alone.
    workloads: Vec<UseCase>,
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
            workloads: vec![usecase],
            system,
            soc: SocConfig::default(),
            trace: TraceLevel::Counters,
            operating_point: None,
            fault: FaultPlan::none(),
        }
    }

    /// Several workloads sharing one NCPU fleet (paper Section VI-A):
    /// item-capable core *j*, in core-id order, runs workload *j* mod *W*,
    /// each workload's items go round-robin over its own cores, and item
    /// indices, predictions and labels follow workload order. One
    /// workload is exactly [`Scenario::new`] on the same topology.
    /// Otherwise as [`Scenario::new`]: default fabric, counter-level
    /// tracing, no operating point, the inert fault plan.
    ///
    /// # Errors
    ///
    /// An empty list, a deep workload (deep models run no items), or more
    /// workloads than the topology has item-capable cores.
    pub fn independent(workloads: Vec<UseCase>, topology: Topology) -> Result<Scenario, String> {
        if workloads.is_empty() {
            return Err("scenario: at least one workload".to_string());
        }
        if let Some(w) = workloads.iter().position(|uc| uc.kind() == UseCaseKind::Deep) {
            return Err(format!("scenario: workload {w} is a deep model, which runs no items"));
        }
        let (n, cores) = (workloads.len(), topology.item_cores().len());
        if n > cores {
            return Err(format!(
                "scenario: {n} workloads need {n} item-capable cores, the topology has {cores}"
            ));
        }
        let mut workloads = workloads.into_iter();
        let first = workloads.next().expect("checked non-empty");
        let mut scenario = Scenario::new(first, SystemConfig::Ncpu(topology));
        scenario.workloads.extend(workloads);
        Ok(scenario)
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

    /// The first workload: the only one unless the scenario was built by
    /// [`Scenario::independent`].
    pub fn usecase(&self) -> &UseCase {
        &self.workloads[0]
    }

    /// Every workload, in the order item-capable cores take them.
    pub fn workloads(&self) -> &[UseCase] {
        &self.workloads
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
/// their reporting code. Both engines run every scenario, and the report
/// does not say which engine ran it: the engine picks only the clock an
/// NCPU fleet's item workloads run on.
pub trait Engine {
    /// Runs the scenario to completion.
    ///
    /// # Panics
    ///
    /// Panics on a deep use case on the heterogeneous baseline, which has
    /// no deep-network mode, or if a generated program faults.
    fn run(&self, scenario: &Scenario) -> (RunReport, Recorder);

    /// Convenience: runs and keeps only the report.
    fn report(&self, scenario: &Scenario) -> RunReport {
        self.run(scenario).0
    }
}

/// The clock an NCPU fleet's item workloads run on.
type ItemClock = fn(&Scenario, &Topology) -> (RunReport, Recorder);

/// Picks the body from the system and the use-case kind. The baseline and
/// the deep modes each have one exact model with no shared-L2 arbitration
/// for a second clock to differ on, so both engines run them the same
/// way; only image, motion and parametric batches on an NCPU fleet run on
/// the engine's `item_clock`.
fn dispatch(scenario: &Scenario, item_clock: ItemClock) -> (RunReport, Recorder) {
    match (&scenario.system, scenario.usecase().kind()) {
        (SystemConfig::Heterogeneous, UseCaseKind::Deep) => {
            panic!("the heterogeneous baseline has no deep-network mode")
        }
        (SystemConfig::Heterogeneous, _) => {
            crate::system::run_heterogeneous(scenario.usecase(), &scenario.soc, scenario.trace)
        }
        (SystemConfig::Ncpu(topo), UseCaseKind::Deep) => crate::deep::run(scenario, topo),
        (SystemConfig::Ncpu(topo), _) => item_clock(scenario, topo),
    }
}

/// The cycle-stepped co-simulation with real L2 arbitration: NCPU item
/// batches walk every cycle of one global clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lockstep;

impl Engine for Lockstep {
    fn run(&self, scenario: &Scenario) -> (RunReport, Recorder) {
        let _prof = ncpu_obs::selfprof::span("engine.lockstep");
        dispatch(scenario, crate::lockstep::run)
    }
}

/// The event-driven co-simulation, and the engine for every figure and
/// table sweep: byte-identical to [`Lockstep`] but orders of magnitude
/// faster on steady-state workloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventDriven;

impl Engine for EventDriven {
    fn run(&self, scenario: &Scenario) -> (RunReport, Recorder) {
        let _prof = ncpu_obs::selfprof::span("engine.event");
        dispatch(scenario, crate::eventdriven::run)
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

    /// Runs `s` on both engines and asserts the same report, counters,
    /// metrics and raw event streams; returns the lock-step run.
    fn same_bytes_on_every_engine(s: &Scenario) -> (RunReport, Recorder) {
        let tag = format!("{} on {:?}", s.usecase().name(), s.system());
        let (reference, ref_rec) = Lockstep.run(s);
        let engines: [&dyn Engine; 2] = [&Lockstep, &EventDriven];
        for engine in engines {
            let (report, rec) = engine.run(s);
            assert_eq!(format!("{report:?}"), format!("{reference:?}"), "{tag}");
            assert_eq!(rec.counters().to_json(), ref_rec.counters().to_json(), "{tag}");
            assert_eq!(rec.metrics().to_json(), ref_rec.metrics().to_json(), "{tag}");
            assert_eq!(rec.spans(), ref_rec.spans(), "{tag}");
            assert_eq!(rec.events(), ref_rec.events(), "{tag}");
        }
        (reference, ref_rec)
    }

    /// Image on core 0 beside motion on core 1 (paper Section VI-A).
    fn image_beside_motion() -> Scenario {
        let workloads = vec![UseCase::image(2, 2, 1), UseCase::motion(2, 4, 1)];
        Scenario::independent(workloads, Topology::homogeneous(2)).expect("two cores, two tasks")
    }

    /// Both engines run the baseline, NCPU item batches, independent
    /// workloads and deep models, fully traced, to the same bytes: the
    /// engine is not visible in what a run produces.
    #[test]
    fn every_engine_runs_every_scenario_to_the_same_bytes() {
        let parametric = UseCase::parametric(0.6, 3, pseudo_model(784, 20, 10));
        let image = UseCase::image(2, 2, 1);
        let deep = UseCase::deep(
            crate::deep::tests::deep_model(8),
            &crate::deep::tests::inputs(4),
        );
        let scenarios = [
            Scenario::new(parametric.clone(), SystemConfig::Heterogeneous),
            Scenario::new(image.clone(), SystemConfig::Heterogeneous),
            Scenario::new(image, SystemConfig::ncpu(2)),
            Scenario::new(parametric, SystemConfig::ncpu(2)),
            image_beside_motion(),
            Scenario::new(deep.clone(), SystemConfig::ncpu(1)),
            Scenario::new(deep, SystemConfig::ncpu(2)),
        ];
        for scenario in scenarios {
            same_bytes_on_every_engine(&scenario.with_trace(TraceLevel::Full));
        }
    }

    /// Independent workloads share one L2 and DMA: the per-core finish,
    /// busy cycles and predictions are those of the two-task scheduler
    /// this scenario replaced (a solo motion run finishes at 44,382
    /// cycles instead). A watchdog that only image items overrun then
    /// quarantines the image core; its items move only to cores that
    /// run image, of which there are none, so both drop on the spot and
    /// the motion core keeps its clean schedule.
    #[test]
    fn independent_workloads_keep_to_their_own_cores() {
        let clean = EventDriven.report(&image_beside_motion());
        let finish = |r: &RunReport| -> Vec<u64> {
            r.cores.iter().map(|c| c.timeline.total_cycles()).collect()
        };
        let busy = |r: &RunReport| -> Vec<u64> { r.cores.iter().map(|c| c.busy_cycles).collect() };
        assert_eq!(finish(&clean), [242_192, 46_750]);
        assert_eq!(busy(&clean), [237_456, 43_582]);
        assert_eq!(clean.predictions, [7, 7, 3, 2]);
        let plan = FaultPlan { watchdog_cycles: 60_000, quarantine_after: 1, ..FaultPlan::none() };
        let faulted = image_beside_motion().with_faults(plan).with_trace(TraceLevel::Full);
        let (report, rec) = same_bytes_on_every_engine(&faulted);
        assert_eq!(rec.counters().get("fault.cores_quarantined"), 1);
        let dropped = crate::fabric::DROPPED_PREDICTION;
        assert_eq!(report.predictions, [dropped, dropped, 3, 2]);
        assert_eq!((finish(&report)[1], busy(&report)[1]), (46_750, 43_582));
    }

    #[test]
    fn independent_rejects_what_it_cannot_place() {
        let p = || UseCase::parametric(0.5, 2, pseudo_model(64, 10, 10));
        let deep = UseCase::deep(crate::deep::tests::deep_model(8), &crate::deep::tests::inputs(2));
        let err = |workloads, cores| Scenario::independent(workloads, cores).unwrap_err();
        assert!(err(vec![], Topology::homogeneous(2)).contains("at least one workload"));
        assert!(err(vec![p(), deep], Topology::homogeneous(2)).contains("workload 1 is a deep"));
        assert!(err(vec![p(), p(), p()], Topology::homogeneous(2)).contains("3 workloads"));
        let mut specs = vec![crate::topology::CoreSpec::reconfigurable(); 2];
        specs[1].role = crate::topology::CoreRole::BnnOnly;
        let one_item_core = Topology::from_specs(specs, vec![1024]).expect("structural");
        assert!(err(vec![p(), p()], one_item_core).contains("the topology has 1"));
        // One workload is `Scenario::new` on the same topology.
        let one = Scenario::independent(vec![p()], Topology::homogeneous(2)).expect("fits");
        assert_eq!(one.cache_key(), Scenario::new(p(), SystemConfig::ncpu(2)).cache_key());
    }

    /// The one observable difference between the two item clocks: the
    /// lock-step walk never records item timing, the event-driven clock
    /// fills the use case's memo.
    #[test]
    fn only_the_event_clock_fills_the_timing_memo() {
        let uc = UseCase::image(2, 2, 1);
        let s = Scenario::new(uc.clone(), SystemConfig::ncpu(1));
        Lockstep.run(&s);
        assert_eq!(uc.timing().len(), 0, "lock-step records nothing");
        EventDriven.run(&s);
        assert!(uc.timing().len() > 0, "the event clock records the item's timing");
    }

    #[test]
    fn deep_engine_rolls_back_and_pipelines_in_series() {
        let model = crate::deep::tests::deep_model(8);
        let ins = crate::deep::tests::inputs(6);
        let uc = UseCase::deep(model, &ins);
        let reference: Vec<usize> = uc.items().iter().map(|i| i.label).collect();
        let rolled = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::ncpu(1)));
        assert_eq!(rolled.config, "deep rollback (1 core)");
        assert_eq!(rolled.predictions, reference);
        assert_eq!(rolled.cores.len(), 1);
        for cores in [2usize, 4] {
            let (report, rec) =
                EventDriven.run(&Scenario::new(uc.clone(), SystemConfig::ncpu(cores)));
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
            let clean = EventDriven.report(&Scenario::new(uc.clone(), SystemConfig::ncpu(cores)));
            let scenario = Scenario::new(uc.clone(), SystemConfig::ncpu(cores))
                .with_operating_point(0.8)
                .with_trace(TraceLevel::Full)
                .with_faults(plan);
            let (report, rec) = EventDriven.run(&scenario);
            let (again, rec2) = EventDriven.run(&scenario);
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
