//! Lock-step co-simulation of the N-core SoC.
//!
//! The [`crate::Analytic`] engine simulates cores one item at a time with
//! analytic fabric costs — fast, but it cannot see cycle-level interactions
//! between the cores. This module steps every core one cycle at a time on
//! a single global clock and arbitrates the shared L2 port for real:
//!
//! * each core advances via [`NcpuCore::step_one`],
//! * when several cores touch the L2 in the same cycle, the lowest-
//!   numbered one wins the port and every other toucher replays the cycle
//!   (single-ported L2 + fixed priority),
//! * item staging pays the same DMA cost as the analytic scheduler, via
//!   the shared [`crate::fabric`].
//!
//! The `lockstep_agrees_with_analytic_scheduler` matrix is the point: for
//! the paper's workloads (local data, one result word written through per
//! item), contention is negligible and the analytic model is sound — at
//! any core count.

use ncpu_core::{BankPorts, NcpuCore, SharedL2, StepOutcome};
use ncpu_obs::{EventKind, Recorder, StallCause};
use ncpu_pipeline::Program;

use crate::fabric;
use crate::report::RunReport;
use crate::scenario::Scenario;
use crate::topology::Topology;

/// The lock-step engine: co-simulates `scenario`'s NCPU fleet one
/// global cycle at a time and returns the report with the root
/// [`Recorder`]. On top of the per-core events, the arbiter emits a
/// `stall.l2_conflict` instant (at [`ncpu_obs::TraceLevel::Full`]) every
/// time a core replays a cycle because its L2 bank port was taken, and
/// sets the `soc.l2_conflict_cycles` counter.
///
/// Items follow the topology's dispatch plan, only reconfigurable cores
/// receive them, and L2 arbitration is per bank — cores in different
/// banks never conflict. An inert fault plan takes the exact pre-fault
/// code path. An active plan resolves every dispatch through
/// `fabric::resolve_dispatch` (parity detection at DMA delivery, retry
/// with backoff, drop, quarantine with re-scheduling) and arms a
/// mid-item watchdog that aborts and resets a core whose item overruns
/// the plan's cycle budget.
///
/// # Panics
///
/// Panics if a generated program faults (a workspace bug), the run
/// exceeds an internal cycle bound, or an item workload is given a
/// topology with no reconfigurable core.
pub(crate) fn run(scenario: &Scenario, topo: &Topology) -> (RunReport, Recorder) {
    let (usecase, soc, level) = (scenario.usecase(), scenario.soc(), scenario.trace());
    let plan = scenario.fault();
    let millivolts = scenario.millivolts();
    let cores = topo.cores();
    let mut rec = Recorder::new(level.at_least_counters());
    let l2 = SharedL2::new(fabric::L2_BYTES);
    let mut ctl = plan
        .is_active()
        .then(|| fabric::FaultCtl::new(plan, millivolts, usecase.items().len(), topo));

    struct CoreState {
        core: NcpuCore,
        program: Program,
        /// Items assigned to this core: `(item index, available_from)` —
        /// initial round-robin items are available from cycle 0; items
        /// re-scheduled off a quarantined core from the cycle after the
        /// quarantine decision.
        queue: Vec<(usize, u64)>,
        /// Position within `queue`.
        at: usize,
        /// Global cycle before which the core does nothing (DMA staging
        /// delivery, fault backoff, or a drop/quarantine decision point).
        wake_at: u64,
        /// An item is staged and waiting for `wake_at` to begin executing.
        pending_exec: bool,
        /// The next dispatch re-attempts the current item after a
        /// watchdog abort: keep the latency anchor and retry budget.
        redispatch: bool,
        /// Whether an item is currently executing.
        active: bool,
        /// Global cycle the scheduler first attempted the current item
        /// (before any DMA staging stall) — the latency clock start.
        dispatch: u64,
        /// Items waiting behind the current one on this core, captured
        /// at dispatch: a quarantined peer can re-schedule work onto
        /// this queue mid-item, and the two simulating engines observe
        /// that push at different walk points, so completion-time depth
        /// would diverge.
        depth: u64,
        /// Global cycle the current/last item started.
        item_start: u64,
        /// Core-internal cycle count when the current item started.
        internal_start: u64,
        busy: u64,
        finished_at: u64,
        predictions: Vec<(usize, usize)>,
    }

    let mut dma = fabric::new_dma(soc, level);
    let dispatch_plan = topo.plan(usecase.items().len());
    let mut states: Vec<CoreState> = (0..cores)
        .map(|c| {
            let core = fabric::ncpu_core(usecase, soc, level, l2.clone());
            let program = fabric::ncpu_program(usecase, &core, fabric::result_addr(c));
            CoreState {
                core,
                program,
                queue: (0..usecase.items().len())
                    .filter(|&i| dispatch_plan[i] == c)
                    .map(|i| (i, 0))
                    .collect(),
                at: 0,
                wake_at: 0,
                pending_exec: false,
                redispatch: false,
                active: false,
                dispatch: 0,
                depth: 0,
                item_start: 0,
                internal_start: 0,
                busy: 0,
                finished_at: 0,
                predictions: Vec::new(),
            }
        })
        .collect();

    let watchdog = ctl.as_ref().map_or(0, |ctl| ctl.watchdog());
    let mut clock = 0u64;
    let mut l2_conflicts = 0u64;
    let mut ports = BankPorts::new(topo.banks());
    let budget = 2_000_000_000u64;
    loop {
        // Idle-region fast-forward: when every unfinished core is either
        // waiting out a DMA staging stall or counting down a BNN busy
        // region, no core can touch the L2 port and no event is emitted
        // until the earliest of those regions ends — busy cycles are pure
        // countdown and stalled cores do not step at all. Each active
        // core reports that distance via `NcpuCore::next_event_in` (the
        // same contract the event-driven engine schedules by), capped at
        // its watchdog deadline when one is armed; jumping the global
        // clock there in one step is byte-identical to the cycle-by-cycle
        // loop, only faster.
        let mut skip = u64::MAX;
        let mut idle_bound = false;
        for st in &states {
            let distance = if st.active {
                let mut d = st.core.next_event_in().expect("an active core is not halted");
                if watchdog > 0 {
                    d = d.min((st.item_start + watchdog).saturating_sub(clock));
                }
                d
            } else {
                if st.at >= st.queue.len() {
                    continue; // parked for good: no bound
                }
                let (_, avail) = st.queue[st.at];
                st.wake_at.max(avail).saturating_sub(clock)
            };
            idle_bound = true;
            skip = skip.min(distance);
            if skip <= 1 {
                break; // some core acts this or next cycle: nothing to gain
            }
        }
        if idle_bound && skip > 1 {
            for st in states.iter_mut() {
                if st.active {
                    st.core.step_n(skip).expect("busy countdown cannot fault");
                    st.busy += skip;
                }
            }
            clock += skip;
            assert!(clock < budget, "lock-step run exceeded {budget} cycles");
            continue;
        }

        let mut all_done = true;
        ports.reset();
        for c in 0..cores {
            // Start the next item if idle. The inner loop exists for the
            // fault layer: a drop decided at this very cycle lets the
            // *next* queued item dispatch in the same walk slot, matching
            // the event engine's same-cycle re-arm.
            if !states[c].active {
                loop {
                    let st = &mut states[c];
                    if st.at >= st.queue.len() {
                        break;
                    }
                    all_done = false;
                    if clock < st.wake_at {
                        break;
                    }
                    if st.pending_exec {
                        st.core.load_program(&st.program);
                        st.active = true;
                        st.item_start = clock;
                        st.internal_start = st.core.total_cycles();
                        st.pending_exec = false;
                        break;
                    }
                    let (idx, avail) = st.queue[st.at];
                    if clock < avail {
                        break;
                    }
                    let fresh = !st.redispatch;
                    st.redispatch = false;
                    if fresh {
                        st.dispatch = clock;
                        st.depth = (st.queue.len() - st.at - 1) as u64;
                    }
                    let staged = &usecase.items()[idx].staged;
                    match fabric::resolve_dispatch(
                        ctl.as_mut(),
                        c,
                        idx,
                        staged,
                        clock,
                        fresh,
                        &mut st.core,
                        &mut dma,
                        &mut rec,
                        None,
                    ) {
                        fabric::Resolution::Run { exec_start } => {
                            if exec_start > clock {
                                st.pending_exec = true;
                                st.wake_at = exec_start;
                            } else {
                                st.core.load_program(&st.program);
                                st.active = true;
                                st.item_start = clock;
                                st.internal_start = st.core.total_cycles();
                            }
                            break;
                        }
                        fabric::Resolution::Dropped { at } => {
                            st.predictions.push((idx, fabric::DROPPED_PREDICTION));
                            st.finished_at = st.finished_at.max(at);
                            st.at += 1;
                            st.wake_at = at;
                            if let Some(ctl) = &ctl {
                                rec.metric("item.retries", ctl.item_retries(idx));
                            }
                            // No break: if `at == clock`, the next item
                            // dispatches in this same slot.
                        }
                        fabric::Resolution::Quarantined { at } => {
                            let moved: Vec<usize> =
                                st.queue.split_off(st.at).into_iter().map(|(i, _)| i).collect();
                            st.finished_at = st.finished_at.max(at);
                            let ctl = ctl.as_mut().expect("quarantine requires fault control");
                            let mut defer = None;
                            let homes =
                                fabric::reassign_items(ctl, c, &moved, at, &mut rec, &mut defer);
                            for (item, target) in homes {
                                match target {
                                    Some(t) => {
                                        all_done = false;
                                        states[t].queue.push((item, at + 1));
                                    }
                                    None => states[c]
                                        .predictions
                                        .push((item, fabric::DROPPED_PREDICTION)),
                                }
                            }
                            break;
                        }
                    }
                }
                if !states[c].active {
                    continue;
                }
            }
            all_done = false;
            let st = &mut states[c];

            // Mid-item watchdog: an item that overruns the budget is
            // aborted and its core reset — the partial execution's trace
            // shard and counters are discarded with the rebuilt core
            // (busy cycles already burned stay counted).
            if watchdog > 0 && clock.saturating_sub(st.item_start) >= watchdog {
                let ctl = ctl.as_mut().expect("watchdog requires fault control");
                let decision = fabric::watchdog_abort(ctl, c, st.item_start, clock, &mut rec);
                st.core = fabric::ncpu_core(usecase, soc, level, l2.clone());
                st.active = false;
                st.pending_exec = false;
                match decision {
                    fabric::Decision::RetryAt(resume) => {
                        st.redispatch = true;
                        st.wake_at = resume;
                    }
                    fabric::Decision::Drop(at) => {
                        let (idx, _) = st.queue[st.at];
                        st.predictions.push((idx, fabric::DROPPED_PREDICTION));
                        st.finished_at = st.finished_at.max(at);
                        st.at += 1;
                        st.wake_at = at;
                        rec.metric("item.retries", ctl.item_retries(idx));
                    }
                    fabric::Decision::Quarantine(at) => {
                        let moved: Vec<usize> =
                            st.queue.split_off(st.at).into_iter().map(|(i, _)| i).collect();
                        st.finished_at = st.finished_at.max(at);
                        let mut defer = None;
                        let homes =
                            fabric::reassign_items(ctl, c, &moved, at, &mut rec, &mut defer);
                        for (item, target) in homes {
                            match target {
                                Some(t) => states[t].queue.push((item, at + 1)),
                                None => states[c]
                                    .predictions
                                    .push((item, fabric::DROPPED_PREDICTION)),
                            }
                        }
                    }
                }
                continue;
            }

            // Arbitrate the core's L2 bank port: observe access deltas.
            let (r0, w0) = st.core.pipeline().mem().l2().accesses();
            let outcome = st.core.step_one().expect("lock-step program must not fault");
            let (r1, w1) = st.core.pipeline().mem().l2().accesses();
            let touched_l2 = r1 + w1 > r0 + w0;
            if touched_l2 && !ports.claim(topo.bank_of(c)) {
                // Bank port busy: this core replays the cycle
                // (approximated as one extra global cycle of stall).
                l2_conflicts += 1;
                if rec.wants_events() {
                    rec.emit(
                        c as u16,
                        clock,
                        EventKind::Stall { cause: StallCause::L2Conflict },
                    );
                }
            }
            st.busy += 1;

            if matches!(outcome, StepOutcome::Halted) {
                // Item finished: drain its events re-based to global time.
                let offset = st.item_start as i64 - st.internal_start as i64;
                rec.absorb(st.core.obs_mut(), c as u16, offset);
                let (idx, _) = st.queue[st.at];
                // The executing core's own mailbox: its program targets
                // `result_addr(c)`, wherever the item was planned or
                // re-scheduled to. (Equal to the historical
                // `result_addr(idx % cores)` under the static plan.)
                let addr = fabric::result_addr(c);
                st.predictions
                    .push((idx, l2.read_word(addr).expect("result written") as usize));
                st.finished_at = clock + 1;
                fabric::record_item_metrics(
                    &mut rec,
                    st.finished_at - st.dispatch,
                    st.finished_at - st.item_start,
                    st.depth,
                );
                if let Some(ctl) = &ctl {
                    rec.metric("item.retries", ctl.item_retries(idx));
                }
                st.at += 1;
                st.active = false;
                st.wake_at = 0;
            }
        }
        if all_done {
            break;
        }
        clock += 1;
        assert!(clock < budget, "lock-step run exceeded {budget} cycles");
    }

    let makespan = states.iter().map(|s| s.finished_at).max().unwrap_or(0);
    let mut predictions = vec![0usize; usecase.items().len()];
    let mut pool = Vec::with_capacity(cores);
    let mut busy = Vec::with_capacity(cores);
    for st in states {
        for (idx, pred) in &st.predictions {
            predictions[*idx] = *pred;
        }
        pool.push(st.core);
        busy.push(st.busy);
    }
    rec.set_counter("soc.l2_conflict_cycles", l2_conflicts);
    if let Some(ctl) = &ctl {
        ctl.write_counters(&mut rec);
    }
    let report = fabric::assemble_ncpu_report(
        &mut rec,
        &mut dma,
        &pool,
        &busy,
        usecase,
        topo,
        fabric::RunOutcome {
            config: format!("{cores}x ncpu (lockstep)"),
            makespan,
            predictions,
        },
    );
    (report, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Analytic, Engine, Lockstep};
    use crate::system::{SocConfig, SystemConfig};
    use crate::usecase::UseCase;
    use ncpu_core::SwitchPolicy;

    fn parametric(batch: usize) -> UseCase {
        UseCase::parametric(0.6, batch, crate::system::tests::pseudo_model(784, 30, 10))
    }

    /// The whole point of this module: the fast analytic scheduler and the
    /// cycle-stepped co-simulation agree (small DMA-granularity slack) —
    /// across switch policies, core counts, and real workload kinds,
    /// driven through the `Engine` trait.
    #[test]
    fn lockstep_agrees_with_analytic_scheduler() {
        let usecases = [UseCase::image(4, 2, 1), UseCase::motion(4, 4, 2)];
        for uc in &usecases {
            for policy in [SwitchPolicy::ZeroLatency, SwitchPolicy::Naive] {
                for cores in [1usize, 2, 4] {
                    let soc = SocConfig { switch_policy: policy, ..SocConfig::default() };
                    let scenario = Scenario::new(uc.clone(), SystemConfig::ncpu(cores))
                        .with_soc(soc);
                    let (analytic, _) = Analytic.run(&scenario);
                    let (lockstep, _) = Lockstep.run(&scenario);
                    let tag = format!("{} {policy:?} {cores} cores", uc.name());
                    assert_eq!(
                        lockstep.predictions, analytic.predictions,
                        "{tag}: same answers"
                    );
                    let a = analytic.makespan as f64;
                    let l = lockstep.makespan as f64;
                    assert!(
                        (l - a).abs() / a < 0.02,
                        "{tag}: lockstep {l} vs analytic {a}"
                    );
                }
            }
        }
    }

    #[test]
    fn contention_is_negligible_for_local_data_workloads() {
        let (_, rec) = Lockstep.run(&Scenario::new(parametric(6), SystemConfig::ncpu(2)));
        // One result word per item is the only shared-L2 traffic.
        let conflicts = rec.counters().get("soc.l2_conflict_cycles");
        assert!(conflicts < 20, "conflicts {conflicts}");
    }

    #[test]
    fn four_way_arbitration_completes_and_agrees() {
        let scenario = Scenario::new(parametric(8), SystemConfig::ncpu(4));
        let lockstep = Lockstep.report(&scenario);
        let analytic = Analytic.report(&scenario);
        assert_eq!(lockstep.predictions, analytic.predictions);
        assert_eq!(lockstep.cores.len(), 4);
        for core in &lockstep.cores {
            assert!(core.busy_cycles > 0, "{} never ran", core.role);
        }
    }
}
