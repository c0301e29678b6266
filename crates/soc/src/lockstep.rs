//! Lock-step co-simulation of the N-core SoC: the cycle-level reference
//! the fast engine is held to.
//!
//! This module steps every core one cycle at a time on a single global
//! clock and arbitrates the shared L2 port for real:
//!
//! * each core advances via [`NcpuCore::step_one`],
//! * when several cores touch an L2 bank in the same cycle, the lowest-
//!   numbered one wins the bank's port (single-ported banks + fixed
//!   priority); every other toucher's conflict is counted and traced,
//!   and its timing is unchanged,
//! * item staging books the fabric DMA, and every item's queue
//!   position, metrics and terminal point go through the shared
//!   [`fabric::Ledger`].
//!
//! The event engine reproduces this walk byte for byte without stepping
//! every cycle: `lockstep_agrees_with_the_event_clock` holds the reports
//! equal across policies, core counts, workloads and a short watchdog,
//! and `tests/engine_differential.rs` fuzzes the pair.

use ncpu_core::{BankPorts, NcpuCore, StepOutcome};
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
/// time a core touches the L2 in a cycle its bank's port was already
/// taken, and counts those conflicts in `soc.l2_conflict_cycles`.
///
/// Items follow the ledger's dispatch plan, only reconfigurable cores
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
    let (soc, level) = (scenario.soc(), scenario.trace());
    let cores = topo.cores();
    let mut rec = Recorder::new(level.at_least_counters());
    let mut ledger = fabric::Ledger::new(scenario, topo);
    let (l2, mut pool, programs) = fabric::ncpu_pool(&ledger, soc, level);
    let mut dma = fabric::new_dma(soc, level);

    /// One core's position on the global clock.
    #[derive(Default)]
    struct CoreClock {
        /// Global cycle before which the core does nothing (DMA staging
        /// delivery, fault backoff, or a drop decision point).
        wake_at: u64,
        /// An item is staged and waiting for `wake_at` to begin executing.
        pending_exec: bool,
        /// The next dispatch re-attempts the current item after a
        /// watchdog abort: keep the latency anchor and retry budget.
        redispatch: bool,
        /// Whether an item is currently executing.
        active: bool,
        /// Global cycle the current/last item started.
        item_start: u64,
        /// Core-internal cycle count when the current item started.
        internal_start: u64,
    }
    let mut clocks: Vec<CoreClock> = (0..cores).map(|_| CoreClock::default()).collect();
    let start = |st: &mut CoreClock, core: &mut NcpuCore, program: &Program, clock: u64| {
        core.load_program(program);
        st.active = true;
        st.pending_exec = false;
        st.item_start = clock;
        st.internal_start = core.total_cycles();
    };

    let watchdog = ledger.ctl.as_ref().map_or(0, fabric::FaultCtl::watchdog);
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
        for (c, st) in clocks.iter().enumerate() {
            let distance = if st.active {
                let mut d = pool[c].next_event_in().expect("an active core is not halted");
                if watchdog > 0 {
                    d = d.min((st.item_start + watchdog).saturating_sub(clock));
                }
                d
            } else {
                let Some((_, avail)) = ledger.head(c) else {
                    continue; // parked for good: no bound
                };
                st.wake_at.max(avail).saturating_sub(clock)
            };
            idle_bound = true;
            skip = skip.min(distance);
            if skip <= 1 {
                break; // some core acts this or next cycle: nothing to gain
            }
        }
        if idle_bound && skip > 1 {
            for (c, st) in clocks.iter().enumerate() {
                if st.active {
                    pool[c].step_n(skip).expect("busy countdown cannot fault");
                    ledger.charge(c, skip);
                }
            }
            clock += skip;
            assert!(clock < budget, "lock-step run exceeded {budget} cycles");
            continue;
        }

        let mut all_done = true;
        ports.reset();
        for c in 0..cores {
            let st = &mut clocks[c];
            // Start the next item if idle. The inner loop exists for the
            // fault layer: a drop decided at this very cycle lets the
            // *next* queued item dispatch in the same walk slot, matching
            // the event engine's same-cycle re-arm.
            if !st.active {
                while let Some((item, avail)) = ledger.head(c) {
                    all_done = false;
                    if clock < st.wake_at {
                        break;
                    }
                    if st.pending_exec {
                        start(st, &mut pool[c], &programs[c], clock);
                        break;
                    }
                    if clock < avail {
                        break;
                    }
                    let fresh = !std::mem::take(&mut st.redispatch);
                    if fresh {
                        ledger.begin(c, clock);
                    }
                    let staged = ledger.staged(item);
                    match fabric::resolve_dispatch(
                        ledger.ctl.as_mut(),
                        c,
                        item,
                        staged,
                        clock,
                        fresh,
                        &mut pool[c],
                        &mut dma,
                        &mut rec,
                        None,
                    ) {
                        fabric::Resolution::Run { exec_start } => {
                            if exec_start > clock {
                                st.pending_exec = true;
                                st.wake_at = exec_start;
                            } else {
                                start(st, &mut pool[c], &programs[c], clock);
                            }
                            break;
                        }
                        fabric::Resolution::Dropped { at } => {
                            ledger.drop_current(c, at, &mut rec);
                            st.wake_at = at;
                            // No break: if `at == clock`, the next item
                            // dispatches in this same slot.
                        }
                        fabric::Resolution::Quarantined { at } => {
                            ledger.quarantine(c, at, &mut rec, &mut None);
                            break;
                        }
                    }
                }
                if !st.active {
                    continue;
                }
            }
            all_done = false;

            // Mid-item watchdog: an item that overruns the budget is
            // aborted and its core reset — the partial execution's trace
            // shard and counters are discarded with the rebuilt core
            // (busy cycles already burned stay counted).
            if watchdog > 0 && clock.saturating_sub(st.item_start) >= watchdog {
                let ctl = ledger.ctl.as_mut().expect("watchdog requires fault control");
                let decision = fabric::watchdog_abort(ctl, c, st.item_start, clock, &mut rec, &mut None);
                pool[c] = fabric::ncpu_core(ledger.usecase(c), soc, level, l2.clone());
                st.active = false;
                match decision {
                    fabric::Decision::RetryAt(resume) => {
                        st.redispatch = true;
                        st.wake_at = resume;
                    }
                    fabric::Decision::Drop(at) => {
                        ledger.drop_current(c, at, &mut rec);
                        st.wake_at = at;
                    }
                    fabric::Decision::Quarantine(at) => {
                        ledger.quarantine(c, at, &mut rec, &mut None);
                    }
                }
                continue;
            }

            // Arbitrate the core's L2 bank port: observe access deltas.
            let core = &mut pool[c];
            let (r0, w0) = core.pipeline().mem().l2().accesses();
            let outcome = core.step_one().expect("lock-step program must not fault");
            let (r1, w1) = core.pipeline().mem().l2().accesses();
            let touched_l2 = r1 + w1 > r0 + w0;
            if touched_l2 && !ports.claim(topo.bank_of(c)) {
                // Bank port busy: the conflict is counted and traced,
                // but the loser's timing is unchanged.
                l2_conflicts += 1;
                if rec.wants_events() {
                    rec.emit(
                        c as u16,
                        clock,
                        EventKind::Stall { cause: StallCause::L2Conflict },
                    );
                }
            }
            ledger.charge(c, 1);

            if matches!(outcome, StepOutcome::Halted) {
                // Item finished: drain its events re-based to global time.
                let offset = st.item_start as i64 - st.internal_start as i64;
                rec.absorb(core.obs_mut(), c as u16, offset);
                // The executing core's own mailbox: its program targets
                // `result_addr(c)`, wherever the item was planned or
                // re-scheduled to.
                let prediction =
                    l2.read_word(fabric::result_addr(c)).expect("result written") as usize;
                let end = clock + 1;
                ledger.complete(c, end, end - st.item_start, prediction, &mut rec);
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

    rec.set_counter("soc.l2_conflict_cycles", l2_conflicts);
    let report = ledger.finish(&pool, &mut dma, &mut rec);
    (report, rec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Engine, EventDriven, Lockstep};
    use crate::system::{SocConfig, SystemConfig};
    use crate::usecase::UseCase;
    use ncpu_core::SwitchPolicy;
    use ncpu_fault::FaultPlan;

    fn parametric(batch: usize) -> UseCase {
        UseCase::parametric(0.6, batch, crate::system::tests::pseudo_model(784, 30, 10))
    }

    /// The fast engine and the cycle-stepped co-simulation produce the
    /// same report, byte for byte — across switch
    /// policies, core counts, real workload kinds and a watchdog short
    /// enough to abort items mid-flight, driven through the `Engine`
    /// trait.
    #[test]
    fn lockstep_agrees_with_the_event_clock() {
        let usecases = [UseCase::image(4, 2, 1), UseCase::motion(4, 4, 2)];
        let short_watchdog = FaultPlan {
            watchdog_cycles: 3_000,
            max_retries: 1,
            backoff_cycles: 16,
            ..FaultPlan::none()
        };
        for uc in &usecases {
            for policy in [SwitchPolicy::ZeroLatency, SwitchPolicy::Naive] {
                for cores in [1usize, 2, 4] {
                    for plan in [FaultPlan::none(), short_watchdog] {
                        let soc = SocConfig { switch_policy: policy, ..SocConfig::default() };
                        let scenario = Scenario::new(uc.clone(), SystemConfig::ncpu(cores))
                            .with_soc(soc)
                            .with_faults(plan);
                        let event = EventDriven.report(&scenario);
                        let lockstep = Lockstep.report(&scenario);
                        assert_eq!(
                            format!("{lockstep:?}"),
                            format!("{event:?}"),
                            "{} {policy:?} {cores} cores {plan:?}",
                            uc.name()
                        );
                    }
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
        let event = EventDriven.report(&scenario);
        assert_eq!(lockstep.predictions, event.predictions);
        assert_eq!(lockstep.cores.len(), 4);
        for core in &lockstep.cores {
            assert!(core.busy_cycles > 0, "{} never ran", core.role);
        }
    }
}
