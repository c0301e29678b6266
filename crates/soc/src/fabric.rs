//! The shared SoC fabric: everything the run paths have in common.
//!
//! Before the Scenario/Engine refactor the analytic scheduler
//! (`system.rs`), the lock-step co-simulation (`lockstep.rs`) and the
//! deep-network series mode (`deep.rs`) each carried private copies of
//! the result-mailbox layout, program construction, DMA staging, cycle
//! budgets and report assembly. This module is the single owner of all
//! of it, so the engines cannot drift:
//!
//! * [`result_addr`] — the per-core L2 result mailbox layout,
//! * [`ncpu_program`] / [`hetero_program`] — program construction for
//!   every [`UseCaseKind`],
//! * [`run_item`] — DMA staging plus one program execution under the
//!   shared [`ITEM_BUDGET`],
//! * [`ncpu_pool`] / [`ncpu_core`] — core construction, wired to the
//!   `SocConfig` (shared L2, trace level, naive-switch DMA parameters),
//! * [`Ledger`] — every per-item fact of an NCPU-fleet run (each core's
//!   queue and cursor, dispatch cycle and queue depth, busy and finish
//!   cycles, predictions), what a completion, a drop and a quarantine do
//!   to them, and the final report assembly. The two NCPU item engines
//!   (the lock-step walk, and the per-core wakeup table that
//!   `Analytic` and `EventDriven` run) keep only their clocks and drive
//!   one ledger each,
//! * [`FaultCtl`] with [`resolve_dispatch`] and [`recovery_decision`] —
//!   the one fault-recovery path: detection pricing, retry with
//!   exponential backoff, drop and quarantine, for all four engines
//!   (`Deep` resolves its input staging through it too).

use std::sync::Arc;

use ncpu_accel::AccelConfig;
use ncpu_core::{NcpuCore, SharedL2, SwitchDma};
use ncpu_fault::{Fault, FaultPlan, FaultSession};
use ncpu_isa::asm;
use ncpu_obs::Recorder;
use ncpu_obs::TraceLevel;
use ncpu_obs::{Detector, EventKind, FaultClass, Recovery};
use ncpu_pipeline::Program;
use ncpu_sim::stats::Timeline;
use ncpu_sim::DmaEngine;
use ncpu_workloads::{image, motion as motion_prog, Tail};

use crate::report::{CoreReport, RunReport};
use crate::scenario::Scenario;
use crate::system::SocConfig;
use crate::topology::{CoreRole, Topology};
use crate::usecase::{UseCase, UseCaseKind};

/// Cycle budget per item (well above the heaviest program).
pub const ITEM_BUDGET: u64 = 200_000_000;

/// Bytes of the shared L2 every engine attaches its cores to.
pub const L2_BYTES: usize = 256 * 1024;

/// L2 address where core `c` writes its classification results — the
/// one mailbox layout every engine shares.
pub const fn result_addr(core: usize) -> u32 {
    0x40 + core as u32 * 4
}

/// The accelerator configuration the SoC's cores run with.
pub(crate) fn accel_config(soc: &SocConfig) -> AccelConfig {
    AccelConfig { layer_pipelining: soc.layer_pipelining, ..AccelConfig::default() }
}

/// The fabric DMA engine, traced at `Counters` or above so report
/// timelines can always show the DMA lane.
pub(crate) fn new_dma(soc: &SocConfig, level: TraceLevel) -> DmaEngine {
    let mut dma = DmaEngine::new(soc.dma_bytes_per_cycle, soc.dma_setup_cycles);
    dma.set_trace_level(level.at_least_counters());
    dma
}

/// Builds one NCPU core attached to `l2`, wired to the SoC config: obs
/// level set, and the naive-switch reload cost tracking the fabric's
/// DMA parameters (instead of the core's built-in default).
pub(crate) fn ncpu_core(
    uc: &UseCase,
    soc: &SocConfig,
    level: TraceLevel,
    l2: SharedL2,
) -> NcpuCore {
    let model = Arc::clone(uc.shared_model());
    let mut core = NcpuCore::with_l2(model, accel_config(soc), soc.switch_policy, l2);
    core.set_obs_level(level);
    core.set_switch_dma(SwitchDma {
        bytes_per_cycle: soc.dma_bytes_per_cycle,
        setup_cycles: soc.dma_setup_cycles,
    });
    core
}

/// Builds the `cores`-way NCPU pool on a fresh shared L2, plus each
/// core's program targeting its [`result_addr`] mailbox.
pub(crate) fn ncpu_pool(
    uc: &UseCase,
    soc: &SocConfig,
    level: TraceLevel,
    cores: usize,
) -> (SharedL2, Vec<NcpuCore>, Vec<Program>) {
    assert!(cores >= 1, "need at least one core");
    let l2 = SharedL2::new(L2_BYTES);
    let pool: Vec<NcpuCore> =
        (0..cores).map(|_| ncpu_core(uc, soc, level, l2.clone())).collect();
    let programs: Vec<Program> = pool
        .iter()
        .enumerate()
        .map(|(c, core)| ncpu_program(uc, core, result_addr(c)))
        .collect();
    (l2, pool, programs)
}

/// Builds the NCPU-mode program for `uc`: pre-process, classify in
/// place, write the result word to the `result_l2` mailbox. The program
/// is assembled, decoded and lowered once per use case and mailbox (the
/// use case's [`ProgramMemo`](crate::usecase::ProgramMemo)); every
/// core, run and item loads the shared image.
///
/// # Panics
///
/// Panics on [`UseCaseKind::Deep`] — deep use cases run on the `Deep`
/// engine, which schedules the accelerator arrays directly.
pub(crate) fn ncpu_program(uc: &UseCase, core: &NcpuCore, result_l2: u32) -> Program {
    let key = (core.image_base(), core.output_base(), result_l2);
    uc.programs().get_or_build(key, || assemble_ncpu_program(uc, key))
}

fn assemble_ncpu_program(
    uc: &UseCase,
    (image_base, output_base, result_l2): (u32, u32, u32),
) -> Program {
    let tail = Tail::NcpuClassify { output_base, result_l2 };
    let words = match uc.kind() {
        UseCaseKind::Image => {
            image::preprocess_program(&image::ImageLayout::default(), image_base, tail)
        }
        UseCaseKind::Motion => {
            motion_prog::feature_program(&motion_prog::MotionLayout::default(), image_base, tail)
        }
        UseCaseKind::Parametric => {
            let src = format!(
                "{}\n{}",
                uc.spin_source().expect("parametric use case"),
                tail.asm(0)
            );
            asm::assemble(&src).expect("parametric NCPU program")
        }
        UseCaseKind::Deep => panic!("deep use cases run on the Deep engine"),
    };
    Program::new(words)
}

/// Builds the heterogeneous-baseline program for `uc`: pre-process on
/// the standalone CPU, then offload the packed input.
///
/// # Panics
///
/// Panics on [`UseCaseKind::Deep`] — deep use cases run on the `Deep`
/// engine.
pub(crate) fn hetero_program(uc: &UseCase) -> Vec<u32> {
    let tail = Tail::Offload;
    match uc.kind() {
        UseCaseKind::Image => {
            let layout = image::ImageLayout::default();
            image::preprocess_program(&layout, layout.pack, tail)
        }
        UseCaseKind::Motion => {
            let layout = motion_prog::MotionLayout::default();
            motion_prog::feature_program(&layout, layout.pack, tail)
        }
        UseCaseKind::Parametric => {
            let src = format!(
                "{}\n{}",
                uc.spin_source().expect("parametric use case"),
                tail.asm(0)
            );
            asm::assemble(&src).expect("parametric offload program")
        }
        UseCaseKind::Deep => panic!("deep use cases run on the Deep engine"),
    }
}

/// Local address where the heterogeneous CPU program packs the BNN
/// input.
pub(crate) fn hetero_pack_offset(uc: &UseCase) -> u32 {
    match uc.kind() {
        UseCaseKind::Image => image::ImageLayout::default().pack,
        UseCaseKind::Motion => motion_prog::MotionLayout::default().pack,
        UseCaseKind::Parametric => 0,
        UseCaseKind::Deep => panic!("deep use cases run on the Deep engine"),
    }
}

/// Stages one item and runs one program to completion on `core`,
/// starting no earlier than `now` (global cycles). Returns
/// `(end_time, used)` and drains the core's recorder shard into `rec`
/// as lane `lane`, re-based to global time.
pub(crate) fn run_item(
    core: &mut NcpuCore,
    program: &Program,
    staged: &[u8],
    now: u64,
    dma: &mut DmaEngine,
    rec: &mut Recorder,
    lane: u16,
) -> (u64, u64) {
    let _prof = ncpu_obs::selfprof::span("fabric.run_item");
    let start = if staged.is_empty() { now } else { stage_item(core, staged, now, dma) };
    let internal_before = core.total_cycles();
    core.load_program(program);
    core.run(ITEM_BUDGET).expect("NCPU program must complete");
    let used = core.total_cycles() - internal_before;
    // The core's shard holds only this item's events (earlier items were
    // drained), all stamped ≥ internal_before on the core's unified
    // clock; shift them onto the global clock.
    let offset = start as i64 - internal_before as i64;
    rec.absorb(core.obs_mut(), lane, offset);
    (start + used, used)
}

/// Books the fabric DMA transfer for `staged` starting no earlier than
/// `now` and loads the bytes into the core's data banks; returns the
/// delivery cycle.
pub(crate) fn stage_item(
    core: &mut NcpuCore,
    staged: &[u8],
    now: u64,
    dma: &mut DmaEngine,
) -> u64 {
    let delivered = dma.schedule(now, staged.len() as u32);
    let banks = core.pipeline_mut().mem_mut().accel_mut().banks_mut();
    let (bank, off) = banks.resolve(0).expect("data cache starts at 0");
    banks.bank_mut(bank).load(off as usize, staged);
    delivered
}

/// Writes the per-core counter snapshot (`core{c}.*` namespace) from the
/// core's cheap stat structs — counters are sampled at collection points,
/// never updated on the simulation hot path.
///
/// It reads only the pipeline and core stats because only those are
/// replayed (the event engine's skipped and path-memo items advance them
/// by recorded deltas): reading `Accelerator::stats` or SRAM bank access
/// counts would break lockstep≡event, which every Analytic NCPU run rides.
fn snapshot_core_counters(rec: &mut Recorder, c: usize, core: &NcpuCore) {
    let ps = core.pipeline().stats();
    rec.set_counter(format!("core{c}.cycles"), ps.cycles);
    rec.set_counter(format!("core{c}.retired"), ps.retired);
    rec.set_counter(format!("core{c}.stall.load_use"), ps.load_use_stalls);
    rec.set_counter(format!("core{c}.stall.flush"), ps.flush_cycles);
    rec.set_counter(format!("core{c}.stall.ex"), ps.ex_stall_cycles);
    rec.set_counter(format!("core{c}.stall.mem"), ps.mem_stall_cycles);
    let cs = core.stats();
    rec.set_counter(format!("core{c}.switches"), cs.switches);
    rec.set_counter(format!("core{c}.images_inferred"), cs.images_inferred);
    rec.set_counter(format!("core{c}.bnn_cycles"), cs.bnn_cycles);
    rec.set_counter(format!("core{c}.switch_overhead_cycles"), cs.switch_overhead_cycles);
}

/// Writes the DMA lane snapshot and absorbs its span events onto lane
/// `lane` (global cycles, so offset 0).
pub(crate) fn snapshot_dma(rec: &mut Recorder, dma: &mut DmaEngine, lane: u16) {
    rec.set_counter("dma.transfers", dma.transfers());
    rec.set_counter("dma.bytes", dma.bytes_moved());
    rec.absorb(dma.obs_mut(), lane, 0);
}

/// Sets the run-level counters every engine reports, including the
/// dropped-instant count from the bounded event buffer (so silent
/// truncation of a `Full` trace is visible in `RUN_*.json` — the
/// `trace_check` binary warns when it is nonzero).
pub(crate) fn set_run_counters(rec: &mut Recorder, makespan: u64, items: usize) {
    rec.set_counter("run.makespan_cycles", makespan);
    rec.set_counter("run.items", items as u64);
    let dropped = rec.dropped();
    rec.set_counter("obs.dropped_instants", dropped);
}

/// Records one core's utilization over the run into the
/// `core.util_permille` histogram (busy cycles per 1000 makespan
/// cycles; one sample per core, so the histogram *is* the fleet's
/// utilization distribution).
pub(crate) fn record_util_metric(rec: &mut Recorder, busy: u64, makespan: u64) {
    if let Some(util) = (busy * 1000).checked_div(makespan) {
        rec.metric("core.util_permille", util);
    }
}

/// Records the per-item scheduling metrics every engine shares:
/// `latency` = completion minus dispatch (the cycle the scheduler
/// first attempted the item, before any DMA stall), `service` =
/// cycles the core actually executed, `depth` = items still waiting
/// behind this one on the same core at dispatch.
pub(crate) fn record_item_metrics(rec: &mut Recorder, latency: u64, service: u64, depth: u64) {
    rec.metric("item.latency_cycles", latency);
    rec.metric("item.service_cycles", service);
    rec.metric("item.queue_depth", depth);
}

/// Prediction sentinel for an item the fault layer dropped: it never
/// produced a classification, so it can never match its label.
pub const DROPPED_PREDICTION: usize = usize::MAX;

/// One core's share of a [`Ledger`].
#[derive(Default)]
struct CoreLedger {
    /// Items assigned to this core: `(item index, available_from)`.
    /// Planned items are available from cycle 0; items re-scheduled off
    /// a quarantined core from the cycle after the quarantine decision.
    queue: Vec<(usize, u64)>,
    /// Position of the current item within `queue`.
    at: usize,
    /// Cycle the scheduler first attempted the current item (before any
    /// DMA staging stall) — the latency clock start.
    dispatch: u64,
    /// Items waiting behind the current one, captured at dispatch: a
    /// quarantined peer can re-schedule work onto this queue mid-item,
    /// and the simulating engines observe that push at different walk
    /// points, so completion-time depth would diverge.
    depth: u64,
    /// Cycles spent executing items.
    busy: u64,
    /// Cycle of the last completion or recovery decision.
    finished_at: u64,
}

/// Every per-item fact of one NCPU-fleet run: each core's queue and
/// cursor, the dispatch cycle and queue depth of its current item, busy
/// and finish cycles, and the prediction vector — plus the run's fault
/// control (`None` under the inert plan: no draws, no `item.retries`
/// samples, no `fault.*` counters). The two NCPU item clocks differ
/// only in how they advance; each reports dispatches,
/// execution and terminal points (completion, drop, quarantine) here,
/// so what those do to an item cannot drift between engines.
pub(crate) struct Ledger<'a> {
    usecase: &'a UseCase,
    topo: &'a Topology,
    pub(crate) ctl: Option<FaultCtl>,
    cores: Vec<CoreLedger>,
    /// Written at each item's terminal point: items finish out of order
    /// once drops and re-scheduling kick in.
    predictions: Vec<usize>,
}

impl<'a> Ledger<'a> {
    /// The ledger of `scenario` on `topo`: each core's queue holds its
    /// share of the topology's dispatch plan.
    pub(crate) fn new(scenario: &'a Scenario, topo: &'a Topology) -> Ledger<'a> {
        let usecase = scenario.usecase();
        let items = usecase.items().len();
        let faults = scenario.fault();
        let mut cores: Vec<CoreLedger> = (0..topo.cores()).map(|_| CoreLedger::default()).collect();
        for (item, c) in topo.plan(items).into_iter().enumerate() {
            cores[c].queue.push((item, 0));
        }
        let millivolts = scenario.millivolts();
        Ledger {
            usecase,
            topo,
            ctl: faults.is_active().then(|| FaultCtl::new(faults, millivolts, items, topo)),
            cores,
            predictions: vec![0; items],
        }
    }

    /// Core `c`'s current item and the cycle it becomes available, or
    /// `None` once the core is parked (drained or quarantined).
    pub(crate) fn head(&self, c: usize) -> Option<(usize, u64)> {
        let core = &self.cores[c];
        core.queue.get(core.at).copied()
    }

    /// Cycle of core `c`'s last completion or recovery decision.
    pub(crate) fn finished_at(&self, c: usize) -> u64 {
        self.cores[c].finished_at
    }

    /// Starts the latency clock of core `c`'s current item at `now` and
    /// captures the queue depth behind it. A re-dispatch after a
    /// mid-item watchdog abort skips this and keeps both.
    pub(crate) fn begin(&mut self, c: usize, now: u64) {
        let core = &mut self.cores[c];
        core.dispatch = now;
        core.depth = (core.queue.len() - core.at - 1) as u64;
    }

    /// Charges `cycles` of execution to core `c`.
    pub(crate) fn charge(&mut self, c: usize, cycles: u64) {
        self.cores[c].busy += cycles;
    }

    /// Core `c`'s current item completed at `end` after `service` cycles
    /// of execution, classifying as `prediction`.
    pub(crate) fn complete(
        &mut self,
        c: usize,
        end: u64,
        service: u64,
        prediction: usize,
        rec: &mut Recorder,
    ) {
        let core = &mut self.cores[c];
        core.finished_at = end;
        record_item_metrics(rec, end - core.dispatch, service, core.depth);
        let (item, _) = core.queue[core.at];
        core.at += 1;
        self.terminate(item, prediction, rec);
    }

    /// The fault layer dropped core `c`'s current item at cycle `at`.
    pub(crate) fn drop_current(&mut self, c: usize, at: u64, rec: &mut Recorder) {
        let core = &mut self.cores[c];
        core.finished_at = core.finished_at.max(at);
        let (item, _) = core.queue[core.at];
        core.at += 1;
        self.terminate(item, DROPPED_PREDICTION, rec);
    }

    /// Core `c` was quarantined at cycle `at`: its outstanding items
    /// (current first) re-schedule round-robin over the healthy
    /// item-capable cores, available from `at + 1`. An item that finds
    /// no healthy core is dropped on the spot: counted and stamped with
    /// a `recover.drop` on core `c`'s lane at `at`. Returns each core
    /// that received items, in first-receipt order, and whether it was
    /// parked before — a parked event-engine core has no pending wakeup.
    pub(crate) fn quarantine(
        &mut self,
        c: usize,
        at: u64,
        rec: &mut Recorder,
        defer: &mut Option<&mut Vec<(u64, EventKind)>>,
    ) -> Vec<(usize, bool)> {
        let core = &mut self.cores[c];
        core.finished_at = core.finished_at.max(at);
        let moved = core.queue.split_off(core.at);
        let mut received: Vec<(usize, bool)> = Vec::new();
        for (item, _) in moved {
            let ctl = self.ctl.as_mut().expect("only an active fault plan quarantines cores");
            match ctl.next_healthy() {
                Some(t) => {
                    if received.iter().all(|&(r, _)| r != t) {
                        received.push((t, self.head(t).is_none()));
                    }
                    self.cores[t].queue.push((item, at + 1));
                }
                None => {
                    ctl.items_dropped += 1;
                    note(rec, defer, c as u16, at, EventKind::Recover { action: Recovery::Drop });
                    self.terminate(item, DROPPED_PREDICTION, rec);
                }
            }
        }
        received
    }

    /// An item's terminal point — reached exactly once per item: its
    /// prediction, and under an active plan its `item.retries` sample.
    fn terminate(&mut self, item: usize, prediction: usize, rec: &mut Recorder) {
        self.predictions[item] = prediction;
        if let Some(ctl) = &self.ctl {
            rec.metric("item.retries", ctl.item_retries(item));
        }
    }

    /// Closes the run and assembles its report: the fault counters
    /// (active plan only, so inert runs stay byte-identical to pre-fault
    /// reports), every core's counters and the DMA lane, the run
    /// counters with the makespan (the latest finish), per-core
    /// utilization, and one [`CoreReport`] per core from the recorder's
    /// span stream. Roles are topology-aware — `ncpu{c}` for
    /// reconfigurable cores (the historical name), `cpu{c}`/`bnn{c}` for
    /// fixed-function ones — which is what the energy layer keys its
    /// area and power models on.
    pub(crate) fn finish(
        self,
        config: String,
        pool: &[NcpuCore],
        dma: &mut DmaEngine,
        rec: &mut Recorder,
    ) -> RunReport {
        if let Some(ctl) = &self.ctl {
            ctl.write_counters(rec);
        }
        let makespan = self.cores.iter().map(|core| core.finished_at).max().unwrap_or(0);
        for (c, core) in pool.iter().enumerate() {
            snapshot_core_counters(rec, c, core);
        }
        snapshot_dma(rec, dma, pool.len() as u16);
        set_run_counters(rec, makespan, self.predictions.len());
        for core in &self.cores {
            record_util_metric(rec, core.busy, makespan);
        }
        let cores = self
            .cores
            .iter()
            .enumerate()
            .map(|(c, core)| CoreReport {
                role: match self.topo.spec(c).role {
                    CoreRole::Reconfigurable => format!("ncpu{c}"),
                    CoreRole::CpuOnly => format!("cpu{c}"),
                    CoreRole::BnnOnly => format!("bnn{c}"),
                },
                timeline: Timeline::from_obs_events(rec.spans(), c as u16),
                busy_cycles: core.busy,
            })
            .collect();
        RunReport {
            config,
            makespan,
            cores,
            predictions: self.predictions,
            labels: self.usecase.items().iter().map(|i| i.label).collect(),
            metrics: rec.metrics().clone(),
        }
    }
}

/// How a dispatch attempt resolved after the fault layer had its say.
pub(crate) enum Resolution {
    /// Execute the item; staging (if any) delivers at `exec_start`.
    Run {
        /// Cycle execution may begin (≥ the dispatch cycle).
        exec_start: u64,
    },
    /// The item exhausted its retry budget at cycle `at`; skip it.
    Dropped {
        /// Cycle the final recovery decision was taken.
        at: u64,
    },
    /// The core hit its consecutive-fault limit at cycle `at`; park it
    /// and re-schedule its queue (current item included) elsewhere.
    Quarantined {
        /// Cycle the quarantine decision was taken.
        at: u64,
    },
}

/// What [`recovery_decision`] chose for one detected fault.
pub(crate) enum Decision {
    /// Re-stage and retry the item, resuming at the given cycle.
    RetryAt(u64),
    /// Drop the item at the given cycle.
    Drop(u64),
    /// Quarantine the core at the given cycle.
    Quarantine(u64),
}

/// What one attempt's fault draw did to an item's delivery.
pub(crate) enum Draw {
    /// No fault: deliver as usual.
    Clean,
    /// A benign DMA stall: the delivery lands this many cycles late.
    Stalled(u64),
    /// A fault detected at the given cycle; the recovery policy decides
    /// what happens next.
    Detected(u64),
}

/// Shared fault-injection state for one run: the bound [`FaultSession`],
/// per-item attempt cursors, per-core quarantine bookkeeping, and the
/// counters every engine exports. Both simulating engines mutate it at
/// identical `(cycle, core)` dispatch slots in identical lexicographic
/// order, which is the determinism argument for byte-equal reports
/// (DESIGN §14).
pub(crate) struct FaultCtl {
    plan: FaultPlan,
    session: FaultSession,
    /// Per-item attempt cursor. It advances monotonically over the
    /// item's whole lifetime — retries and re-dispatches after a
    /// quarantine included — so no RNG stream is ever reused.
    attempts: Vec<u32>,
    /// Consecutive faults per core; any clean delivery resets it.
    consecutive: Vec<u32>,
    quarantined: Vec<bool>,
    /// Which cores can run whole items at all (reconfigurable role).
    /// Fixed-function cores are never re-scheduling targets.
    item_capable: Vec<bool>,
    /// Faults within the current dispatch of each core's current item;
    /// drives the retry budget and the backoff exponent.
    dispatch_faults: Vec<u32>,
    /// Round-robin cursor for re-scheduling a quarantined core's queue.
    rr: usize,
    injected_flip: u64,
    injected_stall: u64,
    injected_truncate: u64,
    injected_hang: u64,
    detected_parity: u64,
    detected_watchdog: u64,
    retries: u64,
    items_dropped: u64,
    cores_quarantined: u64,
}

impl FaultCtl {
    /// Binds `plan` to the operating point for a run of `items` items on
    /// `topo`'s cores.
    pub(crate) fn new(
        plan: &FaultPlan,
        millivolts: u32,
        items: usize,
        topo: &Topology,
    ) -> FaultCtl {
        let cores = topo.cores();
        FaultCtl {
            plan: *plan,
            session: FaultSession::new(plan, millivolts),
            attempts: vec![0; items],
            consecutive: vec![0; cores],
            quarantined: vec![false; cores],
            item_capable: (0..cores).map(|c| topo.item_capable(c)).collect(),
            dispatch_faults: vec![0; cores],
            rr: 0,
            injected_flip: 0,
            injected_stall: 0,
            injected_truncate: 0,
            injected_hang: 0,
            detected_parity: 0,
            detected_watchdog: 0,
            retries: 0,
            items_dropped: 0,
            cores_quarantined: 0,
        }
    }

    /// The plan's per-item watchdog budget (0 = disabled).
    pub(crate) fn watchdog(&self) -> u64 {
        self.plan.watchdog_cycles
    }

    /// A fresh dispatch on core `core_idx`: its retry budget and backoff
    /// exponent start over.
    pub(crate) fn begin_dispatch(&mut self, core_idx: usize) {
        self.dispatch_faults[core_idx] = 0;
    }

    /// Retries item `item` has consumed so far (attempts beyond the
    /// first); sampled into the `item.retries` histogram at the item's
    /// terminal point — completion or drop — exactly once.
    pub(crate) fn item_retries(&self, item: usize) -> u64 {
        u64::from(self.attempts[item].saturating_sub(1))
    }

    /// Next healthy item-capable core in round-robin order, or `None`
    /// when every eligible core is quarantined.
    fn next_healthy(&mut self) -> Option<usize> {
        let n = self.quarantined.len();
        for k in 0..n {
            let c = (self.rr + k) % n;
            if !self.quarantined[c] && self.item_capable[c] {
                self.rr = (c + 1) % n;
                return Some(c);
            }
        }
        None
    }

    /// Draws the next attempt of delivering item `item` (`bytes` staged
    /// bytes) to core `core_idx` at cycle `now`, and counts and notes
    /// what it injected. Detectable faults are priced here, the one
    /// place for every engine: a flip's corrupted copy still crosses
    /// the fabric in full and parity catches it at delivery; a
    /// truncation delivers only its prefix and the length check catches
    /// it at delivery; a hang moves nothing and the watchdog notices a
    /// full budget later. `deliver(bytes)` books a broken delivery of
    /// `bytes` bytes starting at `now` and returns its delivery cycle —
    /// a fabric DMA booking in the SoC engines, a priced transfer in
    /// the deep engine's staging prologue.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn detect(
        &mut self,
        core_idx: usize,
        item: usize,
        bytes: usize,
        now: u64,
        deliver: impl FnOnce(u32) -> u64,
        rec: &mut Recorder,
        defer: &mut Option<&mut Vec<(u64, EventKind)>>,
    ) -> Draw {
        let lane = core_idx as u16;
        let attempt = self.attempts[item];
        self.attempts[item] += 1;
        let (class, detect_at, by) = match self.session.draw(item as u64, attempt, bytes) {
            None => {
                self.consecutive[core_idx] = 0;
                return Draw::Clean;
            }
            Some(Fault::DmaStall { extra_cycles }) => {
                // Benign: the transfer completes, just late. Nothing to
                // detect or retry.
                self.injected_stall += 1;
                note(rec, defer, lane, now, EventKind::Fault { class: FaultClass::DmaStall });
                self.consecutive[core_idx] = 0;
                return Draw::Stalled(extra_cycles);
            }
            Some(Fault::SramFlip { .. }) => {
                // Certain detection — see ncpu-fault's parity proof
                // test. The copy is discarded, so nothing is loaded.
                self.injected_flip += 1;
                (FaultClass::SramFlip, deliver(bytes as u32), Detector::Parity)
            }
            Some(Fault::DmaTruncate { bytes: prefix }) => {
                self.injected_truncate += 1;
                (FaultClass::DmaTruncate, deliver(prefix), Detector::Parity)
            }
            Some(Fault::CoreHang) => {
                self.injected_hang += 1;
                (FaultClass::CoreHang, now + self.plan.watchdog_cycles, Detector::Watchdog)
            }
        };
        match by {
            Detector::Parity => self.detected_parity += 1,
            Detector::Watchdog => self.detected_watchdog += 1,
        }
        note(rec, defer, lane, now, EventKind::Fault { class });
        note(rec, defer, lane, detect_at, EventKind::Detect { by });
        Draw::Detected(detect_at)
    }

    /// Exports the fault counters. Called once per run, only when a
    /// plan is active, so inert runs stay byte-identical to pre-fault
    /// reports.
    pub(crate) fn write_counters(&self, rec: &mut Recorder) {
        rec.set_counter("fault.injected.sram_flip", self.injected_flip);
        rec.set_counter("fault.injected.dma_stall", self.injected_stall);
        rec.set_counter("fault.injected.dma_truncate", self.injected_truncate);
        rec.set_counter("fault.injected.core_hang", self.injected_hang);
        rec.set_counter("fault.detected.parity", self.detected_parity);
        rec.set_counter("fault.detected.watchdog", self.detected_watchdog);
        rec.set_counter("fault.retries", self.retries);
        rec.set_counter("fault.items_dropped", self.items_dropped);
        rec.set_counter("fault.cores_quarantined", self.cores_quarantined);
    }
}

/// Routes a fault-layer event either straight into the recorder (the
/// lock-step engine emits inline at its walk slot) or into a deferral
/// buffer (the event engine replays it at the same slot's sort key, so
/// the raw streams stay byte-identical; the deep engine emits its
/// staging prologue's events sorted on a lane of their own).
fn note(
    rec: &mut Recorder,
    defer: &mut Option<&mut Vec<(u64, EventKind)>>,
    lane: u16,
    cycle: u64,
    kind: EventKind,
) {
    match defer.as_deref_mut() {
        Some(buf) => buf.push((cycle, kind)),
        None => rec.emit(lane, cycle, kind),
    }
}

/// Resolves one dispatch of item `item` on core `core_idx` at cycle
/// `dispatch` against the fault layer.
///
/// With no fault control (`ctl` = `None`, the `FaultPlan::none()` fast
/// path) this is exactly the pre-fault staging: book the DMA, load the
/// banks, run — no draws, no counters, no events, byte-identical to the
/// old engines. With faults, each attempt draws from its own split RNG
/// stream ([`FaultCtl::detect`]); benign faults (stalls) delay
/// delivery, detected faults charge the recovery policy
/// ([`recovery_decision`]) — bounded retry with exponential backoff,
/// then drop, with quarantine once a core's consecutive-fault count
/// hits the plan's limit. Re-staged retries book their DMA occupancy
/// eagerly at resolution time; both simulating engines do the same, in
/// the same order, which keeps the fabric byte-deterministic (DESIGN
/// §14 records the physical approximation).
///
/// `fresh` is false only when re-dispatching after a mid-item watchdog
/// abort: the retry budget and the item's latency anchor survive the
/// abort.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resolve_dispatch(
    ctl: Option<&mut FaultCtl>,
    core_idx: usize,
    item: usize,
    staged: &[u8],
    dispatch: u64,
    fresh: bool,
    core: &mut NcpuCore,
    dma: &mut DmaEngine,
    rec: &mut Recorder,
    mut defer: Option<&mut Vec<(u64, EventKind)>>,
) -> Resolution {
    let stage = |core: &mut NcpuCore, dma: &mut DmaEngine, now: u64| {
        if staged.is_empty() {
            now
        } else {
            stage_item(core, staged, now, dma)
        }
    };
    let Some(ctl) = ctl else {
        return Resolution::Run { exec_start: stage(core, dma, dispatch) };
    };
    if fresh {
        ctl.begin_dispatch(core_idx);
    }
    let mut now = dispatch;
    loop {
        let deliver = |bytes: u32| dma.schedule(now, bytes);
        match ctl.detect(core_idx, item, staged.len(), now, deliver, rec, &mut defer) {
            Draw::Clean => return Resolution::Run { exec_start: stage(core, dma, now) },
            Draw::Stalled(extra) => {
                return Resolution::Run { exec_start: stage(core, dma, now) + extra };
            }
            Draw::Detected(detect_at) => {
                match recovery_decision(ctl, core_idx, now, detect_at, rec, &mut defer) {
                    Decision::RetryAt(resume) => now = resume,
                    Decision::Drop(at) => return Resolution::Dropped { at },
                    Decision::Quarantine(at) => return Resolution::Quarantined { at },
                }
            }
        }
    }
}

/// The recovery state machine for one detected fault on `core_idx`:
/// quarantine once the core's consecutive-fault count reaches the
/// plan's limit, drop once the dispatch exhausts `max_retries`,
/// otherwise retry after exponential backoff. Also invoked by the
/// simulating engines' mid-item watchdog abort (where `fault_at` is the
/// aborted item's start, so `fault.recovery_cycles` prices the wasted
/// execution plus the backoff) and by the deep engine's staging
/// prologue.
pub(crate) fn recovery_decision(
    ctl: &mut FaultCtl,
    core_idx: usize,
    fault_at: u64,
    detect_at: u64,
    rec: &mut Recorder,
    defer: &mut Option<&mut Vec<(u64, EventKind)>>,
) -> Decision {
    let lane = core_idx as u16;
    ctl.consecutive[core_idx] += 1;
    ctl.dispatch_faults[core_idx] += 1;
    let limit = ctl.plan.quarantine_after;
    if limit > 0 && ctl.consecutive[core_idx] >= limit {
        ctl.quarantined[core_idx] = true;
        ctl.cores_quarantined += 1;
        note(rec, defer, lane, detect_at, EventKind::Recover { action: Recovery::Quarantine });
        rec.metric("fault.recovery_cycles", detect_at - fault_at);
        return Decision::Quarantine(detect_at);
    }
    if ctl.dispatch_faults[core_idx] > ctl.plan.max_retries {
        ctl.items_dropped += 1;
        note(rec, defer, lane, detect_at, EventKind::Recover { action: Recovery::Drop });
        rec.metric("fault.recovery_cycles", detect_at - fault_at);
        return Decision::Drop(detect_at);
    }
    ctl.retries += 1;
    note(rec, defer, lane, detect_at, EventKind::Recover { action: Recovery::Retry });
    let exp = (ctl.dispatch_faults[core_idx] - 1).min(16);
    let resume = detect_at.saturating_add(ctl.plan.backoff_cycles.saturating_mul(1 << exp));
    rec.metric("fault.recovery_cycles", resume - fault_at);
    Decision::RetryAt(resume)
}

/// The simulating engines' mid-item watchdog: detection at `clock`,
/// then the shared recovery state machine, with the aborted item's
/// start as the fault anchor; [`note`] routes the instants.
pub(crate) fn watchdog_abort(
    ctl: &mut FaultCtl,
    core_idx: usize,
    item_start: u64,
    clock: u64,
    rec: &mut Recorder,
    defer: &mut Option<&mut Vec<(u64, EventKind)>>,
) -> Decision {
    ctl.detected_watchdog += 1;
    note(rec, defer, core_idx as u16, clock, EventKind::Detect { by: Detector::Watchdog });
    recovery_decision(ctl, core_idx, item_start, clock, rec, defer)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every generated NCPU program keeps its data in core-local banks
    /// and only writes the L2, so the event engine may memoize its items.
    #[test]
    fn generated_ncpu_programs_never_read_the_l2() {
        let usecases = [
            UseCase::image(2, 2, 1),
            UseCase::motion(2, 2, 1),
            UseCase::parametric(0.6, 2, crate::system::tests::pseudo_model(784, 30, 10)),
        ];
        for uc in &usecases {
            let (_, _, programs) = ncpu_pool(uc, &SocConfig::default(), TraceLevel::Counters, 2);
            assert!(!programs.iter().any(Program::reads_l2), "{:?}", uc.kind());
        }
    }
}
