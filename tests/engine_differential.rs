//! Differential fuzz suite: the event-driven engine must be
//! **byte-identical** to the lock-step engine on every scenario — same
//! `RunReport`, same counter registry, same raw and sorted `ncpu-obs`
//! event streams. Random scenarios cover the full matrix (switch policy
//! × 1/2/4 cores × use-case kind × DMA operating point × trace level ×
//! DVFS point × heterogeneous topology — mixed roles, asymmetric L2
//! banks, per-core undervolting × a second, independent workload on its
//! own cores — image beside motion, or two parametric workloads with
//! different CPU fractions), seeded and shrinking via `ncpu-testkit`.
//!
//! A second property checks the jump contract the engine is built on:
//! driving a core by `next_event_in`-sized `step_n` jumps never lands a
//! shared-L2 touch inside a multi-cycle jump — contended windows are
//! only ever crossed one cycle at a time.

use std::sync::OnceLock;

use ncpu::prelude::*;
use ncpu::soc::topology::{CoreRole, CoreSpec, Topology as FleetTopology};
use ncpu::soc::{EventDriven as EventEngine, Lockstep as LockstepEngine, RunReport, L2_BYTES};
use ncpu::core::StepOutcome;
use ncpu_testkit::prop::{Prop, Shrink};
use ncpu_testkit::prop_assert_eq;
use ncpu_testkit::rng::Rng;

/// The soc crate's deterministic test model (replicated here as in
/// `golden_equivalence.rs`): 4 hidden layers of `neurons`, weights
/// `(i*7 + j*3 + l) % 5 < 2`, biases `(j % 3) - 1`.
fn pseudo_model(input: usize, neurons: usize, classes: usize) -> BnnModel {
    let topo = Topology::new(input, vec![neurons; 4], classes);
    let layers = (0..4)
        .map(|l| {
            let n_in = topo.layer_input(l);
            let rows: Vec<BitVec> = (0..neurons)
                .map(|j| BitVec::from_bools((0..n_in).map(|i| (i * 7 + j * 3 + l) % 5 < 2)))
                .collect();
            let bias = (0..neurons).map(|j| (j as i32 % 3) - 1).collect();
            ncpu::bnn::BnnLayer::new(rows, bias)
        })
        .collect();
    BnnModel::new(topo, layers)
}

/// The non-parametric workloads train real models — build them once.
fn image_usecase() -> &'static UseCase {
    static UC: OnceLock<UseCase> = OnceLock::new();
    UC.get_or_init(|| UseCase::image(2, 2, 1))
}

fn motion_usecase() -> &'static UseCase {
    static UC: OnceLock<UseCase> = OnceLock::new();
    UC.get_or_init(|| UseCase::motion(2, 4, 2))
}

#[derive(Debug, Clone, PartialEq)]
enum Workload {
    /// CPU fraction in percent, batch size, hidden width, input bits.
    Parametric { fraction_pct: u32, batch: usize, neurons: usize, input: usize },
    Image,
    Motion,
}

/// Random fault-plan knobs. Rates are aggressive on purpose — a plan
/// that never fires exercises nothing.
#[derive(Debug, Clone, PartialEq)]
struct FaultCase {
    seed: u64,
    flip_ppm: u32,
    stall_ppm: u32,
    truncate_ppm: u32,
    hang_ppm: u32,
    /// A 3k-cycle watchdog trips on ordinary items, which the event
    /// engine must abort mid-item exactly as the lock-step walk does;
    /// the 20M default only catches injected hangs.
    watchdog_short: bool,
    max_retries: u32,
    backoff_cycles: u64,
    quarantine_after: u32,
}

impl FaultCase {
    fn plan(&self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            sram_flip_ppm: self.flip_ppm,
            dma_stall_ppm: self.stall_ppm,
            dma_stall_cycles: 48,
            dma_truncate_ppm: self.truncate_ppm,
            core_hang_ppm: self.hang_ppm,
            watchdog_cycles: if self.watchdog_short { 3_000 } else { 20_000_000 },
            max_retries: self.max_retries,
            backoff_cycles: self.backoff_cycles,
            quarantine_after: self.quarantine_after,
        }
    }
}

/// Heterogeneous-fleet knobs layered on top of the core count. The
/// concrete `soc::topology::Topology` is derived deterministically in
/// [`Case::fleet_topology`] so the knobs stay shrinkable one at a time.
#[derive(Debug, Clone, PartialEq)]
struct TopologyCase {
    /// Core 1 becomes a fixed BNN array and (on 4-core fleets) the last
    /// core CPU-only, so the dispatch plan must route around them.
    mixed_roles: bool,
    /// Split the L2 into a wide bank 0 and a narrow bank 1, odd cores
    /// on the narrow bank — per-bank port arbitration differs from the
    /// historical single port.
    asymmetric_banks: bool,
    /// Every core except core 0 runs at 0.7 V (weights the energy
    /// model, never the clock).
    undervolt_littles: bool,
}

#[derive(Debug, Clone)]
struct Case {
    workload: Workload,
    cores: usize,
    naive_switch: bool,
    dma_bytes_per_cycle: u32,
    dma_setup_cycles: u64,
    full_trace: bool,
    /// DVFS operating point in tenths of a volt (`None` = nominal).
    operating_point: Option<u32>,
    /// Fault plan the scenario carries (`None` = inert plan).
    fault: Option<FaultCase>,
    /// Heterogeneous topology (`None` = the homogeneous default).
    topology: Option<TopologyCase>,
    /// A second workload sharing the fleet (`None` = one workload): the
    /// scenario is then independent, every other item-capable core
    /// running it.
    second: Option<Workload>,
}

impl Case {
    fn generate(rng: &mut Rng) -> Case {
        // Weight toward small parametric workloads: they explore the
        // timing space (spin length, batch, model size) cheaply, while
        // image/motion exercise the staged-DMA path.
        let workload = match rng.gen_range(0..10u32) {
            0 => Workload::Image,
            1 => Workload::Motion,
            _ => Workload::Parametric {
                fraction_pct: rng.gen_range(5..=85u32),
                batch: rng.gen_range(1..=5usize),
                neurons: rng.gen_range(10..=30usize),
                input: *[64usize, 256, 784].get(rng.gen_range(0..3usize)).unwrap(),
            },
        };
        Case {
            workload: workload.clone(),
            cores: *[1usize, 2, 4].get(rng.gen_range(0..3usize)).unwrap(),
            naive_switch: rng.gen_bool(0.5),
            dma_bytes_per_cycle: *[1u32, 2, 4, 8].get(rng.gen_range(0..4usize)).unwrap(),
            dma_setup_cycles: *[0u64, 3, 16, 32].get(rng.gen_range(0..4usize)).unwrap(),
            full_trace: rng.gen_bool(0.5),
            operating_point: rng.gen_bool(0.3).then(|| rng.gen_range(6..=12u32)),
            // Drawn after the prefix so the corpus's earlier seeds
            // still decode the same prefix of the case.
            fault: rng.gen_bool(0.5).then(|| FaultCase {
                seed: rng.gen_range(0..1_000_000u64),
                flip_ppm: rng.gen_range(0..400_000u32),
                stall_ppm: rng.gen_range(0..300_000u32),
                truncate_ppm: rng.gen_range(0..300_000u32),
                hang_ppm: rng.gen_range(0..200_000u32),
                watchdog_short: rng.gen_bool(0.15),
                max_retries: rng.gen_range(0..=3u32),
                backoff_cycles: *[8u64, 32, 128].get(rng.gen_range(0..3usize)).unwrap(),
                quarantine_after: rng.gen_range(0..=3u32),
            }),
            // Drawn LAST (after the fault block) so every pre-topology
            // corpus seed still decodes byte-for-byte.
            topology: rng.gen_bool(0.5).then(|| TopologyCase {
                mixed_roles: rng.gen_bool(0.5),
                asymmetric_banks: rng.gen_bool(0.5),
                undervolt_littles: rng.gen_bool(0.5),
            }),
            // Drawn after the topology, for the same reason: image pairs
            // with motion, a parametric workload with another fraction.
            second: rng.gen_bool(0.3).then(|| match workload {
                Workload::Image => Workload::Motion,
                Workload::Motion => Workload::Image,
                Workload::Parametric { fraction_pct, .. } => Workload::Parametric {
                    fraction_pct: 5 + (fraction_pct - 5 + rng.gen_range(1..=80u32)) % 81,
                    batch: rng.gen_range(1..=4usize),
                    neurons: rng.gen_range(10..=30usize),
                    input: *[64usize, 256, 784].get(rng.gen_range(0..3usize)).unwrap(),
                },
            }),
        }
    }

    /// Item-capable cores the workloads need: one each.
    fn workloads(&self) -> usize {
        1 + usize::from(self.second.is_some())
    }

    /// The fleet width: the drawn core count, widened to fit the
    /// workloads.
    fn fleet_cores(&self) -> usize {
        self.cores.max(self.workloads())
    }

    /// The concrete topology the knobs describe on this fleet. Core 0
    /// always stays reconfigurable, and fixed-function roles leave a
    /// reconfigurable core for every workload.
    fn fleet_topology(&self) -> FleetTopology {
        let cores = self.fleet_cores();
        let Some(t) = self.topology.as_ref() else {
            return FleetTopology::homogeneous(cores);
        };
        let mut specs = vec![CoreSpec::reconfigurable(); cores];
        if t.mixed_roles && cores > self.workloads() {
            specs[1].role = CoreRole::BnnOnly;
            if cores > 2 {
                specs[cores - 1].role = CoreRole::CpuOnly;
            }
        }
        if t.undervolt_littles {
            for spec in specs.iter_mut().skip(1) {
                spec.operating_point = Some(0.7);
            }
        }
        let banks = if t.asymmetric_banks {
            for (c, spec) in specs.iter_mut().enumerate() {
                spec.bank = c % 2;
            }
            vec![3 * L2_BYTES / 4, L2_BYTES / 4]
        } else {
            vec![L2_BYTES]
        };
        FleetTopology::from_specs(specs, banks).expect("generated topology is valid")
    }

    fn scenario(&self) -> Scenario {
        let usecase = |workload: &Workload| match workload {
            Workload::Parametric { fraction_pct, batch, neurons, input } => UseCase::parametric(
                f64::from(*fraction_pct) / 100.0,
                *batch,
                pseudo_model(*input, *neurons, 10),
            ),
            Workload::Image => image_usecase().clone(),
            Workload::Motion => motion_usecase().clone(),
        };
        let workloads = std::iter::once(&self.workload).chain(&self.second).map(usecase).collect();
        let soc = SocConfig {
            dma_bytes_per_cycle: self.dma_bytes_per_cycle,
            dma_setup_cycles: self.dma_setup_cycles,
            switch_policy: if self.naive_switch {
                SwitchPolicy::Naive
            } else {
                SwitchPolicy::ZeroLatency
            },
            ..SocConfig::default()
        };
        let mut scenario = Scenario::independent(workloads, self.fleet_topology())
            .expect("every drawn fleet fits its workloads")
            .with_soc(soc)
            .with_trace(if self.full_trace { TraceLevel::Full } else { TraceLevel::Counters });
        if let Some(tenths) = self.operating_point {
            scenario = scenario.with_operating_point(f64::from(tenths) / 10.0);
        }
        if let Some(fault) = &self.fault {
            scenario = scenario.with_faults(fault.plan());
        }
        scenario
    }
}

impl Shrink for Case {
    fn shrink(&self) -> Vec<Case> {
        let mut out = Vec::new();
        let mut push = |c: Case| out.push(c);
        // Dropping the second workload first: a divergence that needs it
        // is a per-core workload bug.
        if let Some(second) = &self.second {
            push(Case { second: None, ..self.clone() });
            if let Workload::Parametric { batch: 2.., fraction_pct, neurons, input } = *second {
                let second = Workload::Parametric { fraction_pct, batch: 1, neurons, input };
                push(Case { second: Some(second), ..self.clone() });
            }
        }
        // Dropping the topology first: a divergence that needs a
        // heterogeneous fleet is a topology-threading bug, and the
        // minimal repro should say so by keeping only the guilty knob.
        if let Some(topo) = &self.topology {
            push(Case { topology: None, ..self.clone() });
            if topo.mixed_roles {
                push(Case {
                    topology: Some(TopologyCase { mixed_roles: false, ..topo.clone() }),
                    ..self.clone()
                });
            }
            if topo.asymmetric_banks {
                push(Case {
                    topology: Some(TopologyCase { asymmetric_banks: false, ..topo.clone() }),
                    ..self.clone()
                });
            }
            if topo.undervolt_littles {
                push(Case {
                    topology: Some(TopologyCase { undervolt_littles: false, ..topo.clone() }),
                    ..self.clone()
                });
            }
        }
        // Dropping the fault plan next: most divergences that involve
        // one are simplest to debug when the plan itself is the cause.
        if let Some(fault) = &self.fault {
            push(Case { fault: None, ..self.clone() });
            if fault.watchdog_short {
                push(Case {
                    fault: Some(FaultCase { watchdog_short: false, ..fault.clone() }),
                    ..self.clone()
                });
            }
            if fault.quarantine_after > 0 {
                push(Case {
                    fault: Some(FaultCase { quarantine_after: 0, ..fault.clone() }),
                    ..self.clone()
                });
            }
        }
        if self.cores > 1 {
            push(Case { cores: self.cores / 2, ..self.clone() });
        }
        match &self.workload {
            Workload::Parametric { fraction_pct, batch, neurons, input } => {
                if *batch > 1 {
                    push(Case {
                        workload: Workload::Parametric {
                            fraction_pct: *fraction_pct,
                            batch: batch - 1,
                            neurons: *neurons,
                            input: *input,
                        },
                        ..self.clone()
                    });
                }
                if *neurons > 10 {
                    push(Case {
                        workload: Workload::Parametric {
                            fraction_pct: *fraction_pct,
                            batch: *batch,
                            neurons: 10,
                            input: *input,
                        },
                        ..self.clone()
                    });
                }
                if *input > 64 {
                    push(Case {
                        workload: Workload::Parametric {
                            fraction_pct: *fraction_pct,
                            batch: *batch,
                            neurons: *neurons,
                            input: 64,
                        },
                        ..self.clone()
                    });
                }
                if *fraction_pct != 50 {
                    push(Case {
                        workload: Workload::Parametric {
                            fraction_pct: 50,
                            batch: *batch,
                            neurons: *neurons,
                            input: *input,
                        },
                        ..self.clone()
                    });
                }
            }
            _ => push(Case {
                workload: Workload::Parametric {
                    fraction_pct: 50,
                    batch: 2,
                    neurons: 10,
                    input: 64,
                },
                ..self.clone()
            }),
        }
        if self.naive_switch {
            push(Case { naive_switch: false, ..self.clone() });
        }
        if self.dma_bytes_per_cycle != 4 || self.dma_setup_cycles != 16 {
            push(Case { dma_bytes_per_cycle: 4, dma_setup_cycles: 16, ..self.clone() });
        }
        if self.full_trace {
            push(Case { full_trace: false, ..self.clone() });
        }
        if self.operating_point.is_some() {
            push(Case { operating_point: None, ..self.clone() });
        }
        out
    }
}

fn check_case(case: &Case) -> Result<(), String> {
    let scenario = case.scenario();
    let (ls_report, ls_rec) = LockstepEngine.run(&scenario);
    let (ev_report, ev_rec) = EventEngine.run(&scenario);

    // The full report, byte for byte.
    prop_assert_eq!(format!("{ev_report:?}"), format!("{ls_report:?}"), "RunReport diverged");
    // The counter registries (includes soc.l2_conflict_cycles, per-core
    // pipeline/core counters, DMA and run counters).
    prop_assert_eq!(
        ev_rec.counters().to_json(),
        ls_rec.counters().to_json(),
        "counter registry diverged"
    );
    // The metrics block (latency/service/queue-depth/utilization
    // histograms), compared in its exported JSON form so the byte-level
    // artifact contract is what is actually pinned.
    prop_assert_eq!(
        ev_rec.metrics().to_json(),
        ls_rec.metrics().to_json(),
        "metrics histograms diverged"
    );
    // Raw emission-order streams and the exporter view.
    prop_assert_eq!(ev_rec.spans(), ls_rec.spans(), "span stream diverged");
    prop_assert_eq!(ev_rec.events(), ls_rec.events(), "instant stream diverged");
    prop_assert_eq!(ev_rec.dropped(), ls_rec.dropped(), "capacity drops diverged");
    prop_assert_eq!(
        ev_rec.sorted_events(),
        ls_rec.sorted_events(),
        "sorted event stream diverged"
    );
    if case.fault.is_some() {
        for (engine, report, rec) in [
            ("lockstep", &ls_report, &ls_rec),
            ("event", &ev_report, &ev_rec),
        ] {
            check_termination(engine, report, rec)?;
        }
    }
    Ok(())
}

/// Every item terminates exactly once, whichever engine ran it: one
/// `item.retries` sample per item, one sentinel prediction per counted
/// drop, and one `item.latency_cycles` sample per completed item.
fn check_termination(
    engine: &str,
    report: &RunReport,
    rec: &ncpu::obs::Recorder,
) -> Result<(), String> {
    let samples =
        |name: &str| rec.metrics().get(name).map_or(0, ncpu::obs::CycleHistogram::count);
    let items = report.predictions.len() as u64;
    let dropped = rec.counters().get("fault.items_dropped");
    let sentinels =
        report.predictions.iter().filter(|&&p| p == ncpu::soc::DROPPED_PREDICTION).count();
    prop_assert_eq!(samples("item.retries"), items, "{engine}: item.retries samples");
    prop_assert_eq!(sentinels as u64, dropped, "{engine}: sentinels vs fault.items_dropped");
    prop_assert_eq!(
        samples("item.latency_cycles"),
        items - dropped,
        "{engine}: item.latency_cycles samples"
    );
    Ok(())
}

/// 256 seeded, shrinking scenarios, about 30% of them independent:
/// EventDriven ≡ Lockstep.
#[test]
fn event_engine_is_byte_identical_to_lockstep() {
    Prop::new("event_engine_is_byte_identical_to_lockstep")
        .cases(256)
        // Known interesting corners: 4-core contention with naive
        // switching, a staged (image) workload on the DMA path, and two
        // faulted independent scenarios (image beside motion, and two
        // parametric workloads with a quarantine limit of 1).
        .pin(&[7, 42, 12_335_554_291_965_279_225, 476_781_342_147_750_950])
        .corpus(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/engine_differential.seeds"))
        .run(Case::generate, check_case);
}

/// The jump contract behind the event engine: driving a core by
/// `next_event_in`-sized `step_n` jumps reproduces the cycle-by-cycle
/// touch trace exactly, and no L2 touch ever lands inside a multi-cycle
/// jump (contended windows are crossed one observable cycle at a time).
#[test]
fn queue_driven_jumps_never_overshoot_l2_windows() {
    #[derive(Debug, Clone)]
    struct TouchCase {
        stores: Vec<u32>,
        spin: u32,
        naive_switch: bool,
    }
    impl Shrink for TouchCase {
        fn shrink(&self) -> Vec<TouchCase> {
            let mut out = Vec::new();
            if !self.stores.is_empty() {
                let mut fewer = self.clone();
                fewer.stores.pop();
                out.push(fewer);
            }
            if self.spin > 0 {
                out.push(TouchCase { spin: self.spin / 2, ..self.clone() });
            }
            if self.naive_switch {
                out.push(TouchCase { naive_switch: false, ..self.clone() });
            }
            out
        }
    }

    fn build_core(case: &TouchCase) -> NcpuCore {
        let policy = if case.naive_switch {
            SwitchPolicy::Naive
        } else {
            SwitchPolicy::ZeroLatency
        };
        NcpuCore::new(pseudo_model(32, 8, 4), AccelConfig::default(), policy)
    }

    fn program(core: &NcpuCore, case: &TouchCase) -> Vec<u32> {
        // L2 stores before and after a trans_bnn busy region, separated
        // by spin loops, so touches interleave with every region kind.
        let mut src = String::new();
        src.push_str("li s0, 0\nli s1, 0xbeef\n");
        for (i, off) in case.stores.iter().enumerate() {
            src.push_str(&format!("sw_l2 s1, {off}(s0)\n"));
            if i == case.stores.len() / 2 {
                src.push_str(&format!(
                    "li t0, {img}\nli t1, 0x0f0f0f0f\nsw t1, 0(t0)\n\
                     li t2, 1\nmv_neu t2, 0\ntrans_bnn\n",
                    img = core.image_base()
                ));
            }
        }
        for _ in 0..case.spin {
            src.push_str("addi s2, s2, 1\n");
        }
        src.push_str("ebreak\n");
        asm::assemble(&src).expect("valid touch program")
    }

    Prop::new("queue_driven_jumps_never_overshoot_l2_windows")
        .cases(64)
        .run(
            |rng| TouchCase {
                stores: (0..rng.gen_range(1..=6usize))
                    .map(|_| rng.gen_range(0..64u32) * 4)
                    .collect(),
                spin: rng.gen_range(0..40u32),
                naive_switch: rng.gen_bool(0.5),
            },
            |case| {
                // Reference: cycle-by-cycle walk.
                let mut reference = build_core(case);
                reference.set_l2_touch_log(true);
                reference.load_program(program(&reference, case));
                while !matches!(
                    reference.step_one().map_err(|e| e.to_string())?,
                    StepOutcome::Halted
                ) {}
                let expected = reference.take_l2_touch_cycles();

                // Jump-driven walk, recording each jump's busy window.
                let mut jumper = build_core(case);
                jumper.set_l2_touch_log(true);
                jumper.load_program(program(&jumper, case));
                let mut busy_windows: Vec<(u64, u64)> = Vec::new();
                while let Some(jump) = jumper.next_event_in() {
                    let start = jumper.total_cycles();
                    let (_, consumed) = jumper.step_n(jump).map_err(|e| e.to_string())?;
                    prop_assert_eq!(consumed, jump, "a jump must consume its full length");
                    if jump > 1 {
                        // Multi-cycle jumps only happen inside a BNN busy
                        // region; CPU-mode wakeups are always 1 cycle.
                        busy_windows.push((start + 1, start + consumed));
                    }
                }
                let got = jumper.take_l2_touch_cycles();
                prop_assert_eq!(&got, &expected, "touch traces diverged");
                prop_assert_eq!(jumper.total_cycles(), reference.total_cycles(), "clocks");
                for touch in &got {
                    let inside_busy =
                        busy_windows.iter().any(|(lo, hi)| touch >= lo && touch <= hi);
                    if inside_busy {
                        return Err(format!(
                            "touch at cycle {touch} landed inside a busy jump {busy_windows:?}"
                        ));
                    }
                }
                Ok(())
            },
        );
}
