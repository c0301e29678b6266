//! Event-driven co-simulation of the N-core SoC — byte-identical to the
//! lock-step engine, orders of magnitude faster.
//!
//! # Why jumping is sound
//!
//! The lock-step engine ([`crate::lockstep`]) walks a global clock one
//! cycle at a time so it can arbitrate the shared single-ported L2.
//! But its own arbitration rule makes that walk unnecessary:
//!
//! * A core that *loses* the L2 port replays nothing — the conflict is
//!   counted (`soc.l2_conflict_cycles`, a `stall.l2_conflict` event) but
//!   the loser's timing is unchanged.
//! * Cores share no other cycle-level state: item programs keep data in
//!   core-local banks and only *write* one result word through to their
//!   private L2 mailbox. (The engine verifies the no-L2-read part at
//!   run time rather than trusting it; see below.)
//!
//! So cross-core coupling reduces to (a) the order DMA staging
//! transfers are booked in and (b) which same-cycle L2 touches count as
//! conflicts. Both are replicated exactly without a global cycle walk:
//!
//! * Each core posts its next wakeup (item start, DMA delivery) into a
//!   deterministic [`EventQueue`] ordered by `(cycle, core)` — the same
//!   order the lock-step per-cycle core walk books DMA transfers in.
//! * Each item executes atomically via [`NcpuCore::run`] (proven
//!   byte-identical to the `step_one` walk by the core's own tests),
//!   with the core's L2 touch log recording which cycles touched the
//!   port. Arbitration is resolved *post hoc*: collect every touch,
//!   sort, and charge every same-cycle toucher except the
//!   lowest-numbered core — exactly the lock-step priority rule.
//! * Event/span emission into the root recorder is deferred and sorted
//!   by `(cycle, core, stall-before-absorb)`, reproducing the raw
//!   emission order (and capacity-drop behavior) of the per-cycle walk.
//!
//! What happens to an item — its queue slot, dispatch, completion, drop
//! or quarantine — is the same [`fabric::Ledger`] the lock-step engine
//! drives; this module keeps only its clock: the event queue and the
//! replay memo.
//!
//! # Steady-state replay
//!
//! Items on one core are usually identical: same program, same staged
//! bytes, same architectural starting state. The engine memoizes each
//! simulated item keyed by its full [`ReplayState`] (registers,
//! transition neurons, bank contents) and *replays* matches: counters
//! advance by the recorded deltas, the end state is restored, the
//! recorded events and L2 touches are re-based onto the new start
//! cycle. Determinism makes this exact.
//!
//! Finding a match copies nothing and hashes nothing:
//!
//! * **Generation-proven.** A core remembers which memo entry's start
//!   state it is provably in, and the summed bank write generation
//!   ([`NcpuCore::bank_generation`]) at that moment. It learns this
//!   after simulating an item that ends where it started, and after
//!   replaying such an entry. While the generation is unchanged no bank
//!   was written, loaded or (un)gated, so a steady-state hit costs a
//!   generation compare plus the register, staged-byte and core-spec
//!   compares.
//! * **Compared in place.** Any other lookup (after DMA staging moved
//!   the generation, or after a replay restored a different end state)
//!   scans the memo and compares the live banks against each entry's
//!   start state in place ([`NcpuCore::matches_replay_state`]).
//!
//! A [`ReplayState`] is captured only for items that are simulated, and
//! a capture copies only the banks written since their previous capture
//! (the others share that copy).
//!
//! The one escape hatch: a program that *reads* the shared L2 could
//! observe content a skipped re-execution did not write, so an item
//! whose simulation performed any L2 read is never cached — and if one
//! shows up after a replay already happened, the whole run restarts
//! with memoization off. Fabric-generated programs never read the L2,
//! so the restart exists for soundness, not for the paper's workloads.

use ncpu_core::{BankPorts, NcpuCore, ReplayDelta, ReplayState};
use ncpu_obs::{EventKind, Recorder, StallCause};

use crate::event_queue::EventQueue;
use crate::fabric;
use crate::report::RunReport;
use crate::scenario::Scenario;
use crate::topology::Topology;

/// The event-driven engine: co-simulates `scenario`'s NCPU fleet and
/// returns the report with the root [`Recorder`] — byte-identical
/// (events, spans, counters) to [`crate::lockstep::run`] on the same
/// scenario, except for the engine name in the report's `config`.
///
/// Item dispatch follows the topology's plan, fixed-function cores sit
/// idle, and L2 arbitration is per bank. An inert fault plan takes the
/// exact pre-fault code path. An active plan resolves every dispatch
/// through `fabric::resolve_dispatch` at the same `(cycle, core)` slots
/// the lock-step engine does — with one exception the engine cannot
/// simulate: a *mid-item* watchdog expiry. Items execute atomically
/// here, so when any item overruns the plan's watchdog budget the whole
/// run restarts on the lock-step engine (the generalization of the
/// memo-unsoundness restart), which aborts the item for real; only the
/// engine name in the report's `config` betrays the fallback.
///
/// # Panics
///
/// Panics if a generated program faults (a workspace bug), the run
/// exceeds an internal cycle bound, or the topology has no item-capable
/// core.
pub(crate) fn run(scenario: &Scenario, topo: &Topology) -> (RunReport, Recorder) {
    match run_attempt(scenario, topo, true) {
        Ok((report, rec, _)) => (report, rec),
        // An item read the shared L2 after a replay already skipped a
        // write: replay is unsound for this workload, simulate all items.
        Err(Restart::MemoUnsound) => match run_attempt(scenario, topo, false) {
            Ok((report, rec, _)) => (report, rec),
            Err(Restart::MemoUnsound) => {
                unreachable!("memoization disabled: nothing to invalidate")
            }
            Err(Restart::Watchdog) => lockstep_fallback(scenario, topo),
        },
        Err(Restart::Watchdog) => lockstep_fallback(scenario, topo),
    }
}

/// An item overran the fault plan's watchdog: atomic item execution
/// cannot abort mid-item, so the run re-executes on the lock-step
/// engine, which can. Byte-identical by definition — it *is* the
/// lock-step run, relabeled.
fn lockstep_fallback(scenario: &Scenario, topo: &Topology) -> (RunReport, Recorder) {
    let (mut report, rec) = crate::lockstep::run(scenario, topo);
    report.config = report.config.replace("(lockstep)", "(event)");
    (report, rec)
}

/// The run must start over on a different strategy.
enum Restart {
    /// Replay would be unsound: restart without the cache.
    MemoUnsound,
    /// An item overran the watchdog budget mid-execution: restart on
    /// the lock-step engine, which can abort mid-item.
    Watchdog,
}

/// How one [`run_attempt`] served its items (engine instrumentation;
/// not part of the report counters, which must match the lock-step
/// engine's).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct MemoStats {
    /// Replays whose start state the bank generation proved.
    proven: usize,
    /// Replays found by comparing the live banks in place.
    compared: usize,
    /// Items simulated cycle by cycle.
    simulated: usize,
}

impl MemoStats {
    const fn replayed(&self) -> usize {
        self.proven + self.compared
    }
}

/// One memoized item execution.
struct Cached {
    staged: Vec<u8>,
    /// Memo key of the [`crate::topology::CoreSpec`] the item ran under.
    /// The cache is per-core, so this is constant within one run — it
    /// exists so a replay can never cross core specs if the cache is
    /// ever shared or a spec ever changes mid-run.
    spec_key: u64,
    pre: ReplayState,
    used: u64,
    delta: ReplayDelta,
    /// `None` when the item ends in exactly its starting state (the
    /// steady-state common case) — restoring is then a no-op.
    post: Option<ReplayState>,
    /// The item's events/spans, cycles re-based to the item start.
    shard: Recorder,
    /// L2 touch cycles relative to the item start (1-based: a touch at
    /// `rel` happened during global cycle `start + rel - 1`).
    touches_rel: Vec<u64>,
    prediction: usize,
}

/// A deferred recorder operation, replayed in lock-step emission order.
enum Emission {
    /// The fault layer's injection/detection/recovery instants resolved
    /// at one dispatch slot. The lock-step walk emits them in its
    /// dispatch phase, before stepping the core — so they sort before
    /// any same-slot stall or absorb.
    Fault { cycle: u64, core: u16, events: Vec<(u64, EventKind)> },
    /// `stall.l2_conflict` instant for a core that lost the L2 port.
    Stall { cycle: u64, core: u16 },
    /// An item's drained shard, absorbed with the given cycle offset.
    /// Ordered at the item's halt cycle, after any same-cycle stall.
    Absorb { cycle: u64, core: u16, shard: Recorder, offset: i64 },
}

impl Emission {
    fn key(&self) -> (u64, u16, u8) {
        match self {
            Emission::Fault { cycle, core, .. } => (*cycle, *core, 0),
            Emission::Stall { cycle, core } => (*cycle, *core, 1),
            Emission::Absorb { cycle, core, .. } => (*cycle, *core, 2),
        }
    }
}

/// One core's replay memo.
#[derive(Default)]
struct Memo {
    cache: Vec<Cached>,
    /// `(entry, generation)`: the core is provably in `cache[entry].pre`
    /// for as long as its [`NcpuCore::bank_generation`] still equals
    /// `generation` — the banks have not been touched since they were
    /// known equal. Registers are still compared on use.
    proven: Option<(usize, u64)>,
}

impl Memo {
    /// The memo entry the item about to run on `core` replays, and
    /// whether the generation proved its banks (`true`) or they were
    /// compared in place (`false`). At most one entry can match: an
    /// entry is only added when no existing one did.
    fn lookup(&mut self, core: &NcpuCore, spec_key: u64, staged: &[u8]) -> Option<(usize, bool)> {
        let applies = |e: &Cached| e.spec_key == spec_key && e.staged == staged;
        if let Some((entry, generation)) = self.proven {
            if generation != core.bank_generation() {
                self.proven = None;
            } else if applies(&self.cache[entry])
                && core.matches_replay_registers(&self.cache[entry].pre)
            {
                return Some((entry, true));
            }
        }
        self.cache
            .iter()
            .position(|e| applies(e) && core.matches_replay_state(&e.pre))
            .map(|entry| (entry, false))
    }

    /// Records that `core` now sits in `cache[entry].pre`.
    fn prove(&mut self, core: &NcpuCore, entry: usize) {
        self.proven = Some((entry, core.bank_generation()));
    }
}

/// One simulation pass over `scenario`, with or without the replay
/// cache. On success also returns how its items were served.
fn run_attempt(
    scenario: &Scenario,
    topo: &Topology,
    mut memoize: bool,
) -> Result<(RunReport, Recorder, MemoStats), Restart> {
    let (usecase, soc, level) = (scenario.usecase(), scenario.soc(), scenario.trace());
    let cores = topo.cores();
    let mut rec = Recorder::new(level.at_least_counters());
    let (l2, mut pool, programs) = fabric::ncpu_pool(usecase, soc, level, cores);
    for core in &mut pool {
        core.set_l2_touch_log(true);
    }
    let mut dma = fabric::new_dma(soc, level);
    let mut ledger = fabric::Ledger::new(scenario, topo);
    let watchdog = ledger.ctl.as_ref().map_or(0, fabric::FaultCtl::watchdog);
    let mut memos: Vec<Memo> = (0..cores).map(|_| Memo::default()).collect();
    // The pending wakeup of each core begins its staged item (banks
    // already loaded) rather than attempting the next item start.
    let mut pending_exec = vec![false; cores];

    let mut queue = EventQueue::new(cores);
    for c in 0..cores {
        if ledger.head(c).is_some() {
            queue.arm(c as u16, 0);
        }
    }

    let mut emissions: Vec<Emission> = Vec::new();
    let mut touches: Vec<(u64, u16)> = Vec::new();
    let mut stats = MemoStats::default();
    let budget = 2_000_000_000u64;
    'pop: while let Some((now, c)) = queue.pop() {
        assert!(now < budget, "event-driven run exceeded {budget} cycles");
        let ci = c as usize;
        if !std::mem::take(&mut pending_exec[ci]) {
            // Dispatch phase: resolve the next item against the fault
            // layer at this exact `(cycle, core)` slot — the same slot
            // the lock-step walk resolves it at, so DMA bookings, RNG
            // cursors and recovery decisions land in identical order.
            // The inner loop exists for the fault layer: a drop decided
            // at this very cycle lets the *next* queued item dispatch
            // in the same slot, matching the lock-step walk.
            let mut batch: Vec<(u64, EventKind)> = Vec::new();
            let run_now = loop {
                let Some((item, avail)) = ledger.head(ci) else {
                    break false; // parked (drained or quarantined)
                };
                if avail > now {
                    queue.arm(c, avail);
                    break false;
                }
                ledger.begin(ci, now);
                match fabric::resolve_dispatch(
                    ledger.ctl.as_mut(),
                    ci,
                    item,
                    &usecase.items()[item].staged,
                    now,
                    true,
                    &mut pool[ci],
                    &mut dma,
                    &mut rec,
                    Some(&mut batch),
                ) {
                    fabric::Resolution::Run { exec_start } => {
                        if exec_start > now {
                            // Banks are loaded; sleep until delivery.
                            pending_exec[ci] = true;
                            queue.arm(c, exec_start);
                            break false;
                        }
                        break true;
                    }
                    fabric::Resolution::Dropped { at } => {
                        ledger.drop_current(ci, at, &mut rec);
                        if at > now {
                            if ledger.head(ci).is_some() {
                                queue.arm(c, at);
                            }
                            break false;
                        }
                        // `at == now`: the next item dispatches in this
                        // same slot.
                    }
                    fabric::Resolution::Quarantined { at } => {
                        // A parked target has no pending wakeup; re-arm
                        // it where the lock-step scheduler would next
                        // dispatch.
                        let received = ledger.quarantine(ci, at, &mut rec, &mut Some(&mut batch));
                        for (t, parked) in received {
                            if parked {
                                queue.arm(t as u16, ledger.finished_at(t).max(at + 1));
                            }
                        }
                        break false;
                    }
                }
            };
            if !batch.is_empty() {
                emissions.push(Emission::Fault { cycle: now, core: c, events: batch });
            }
            if !run_now {
                continue 'pop;
            }
        }

        // Execute (or replay) the item starting at `now`.
        let (core, memo) = (&mut pool[ci], &mut memos[ci]);
        let (idx, _) = ledger.head(ci).expect("a dispatched item is at the queue head");
        let staged = &usecase.items()[idx].staged;
        let spec_key = topo.spec(ci).memo_key();
        let hit = if memoize { memo.lookup(core, spec_key, staged) } else { None };
        let (used, prediction) = if let Some((entry, proven)) = hit {
            let _prof = ncpu_obs::selfprof::span("event.replay");
            let hit = &memo.cache[entry];
            for &rel in &hit.touches_rel {
                touches.push((now + rel - 1, c));
            }
            emissions.push(Emission::Absorb {
                cycle: now + hit.used - 1,
                core: c,
                shard: hit.shard.clone(),
                offset: now as i64,
            });
            let served = (hit.used, hit.prediction);
            core.apply_replay(&hit.delta);
            if let Some(post) = &hit.post {
                core.restore_replay_state(post);
                memo.proven = None;
            } else {
                memo.prove(core, entry);
            }
            if proven {
                stats.proven += 1;
            } else {
                stats.compared += 1;
            }
            served
        } else {
            stats.simulated += 1;
            let pre = if memoize { Some(core.replay_state()) } else { None };
            let _prof = ncpu_obs::selfprof::span("event.simulate");
            let (reads_before, _) = l2.accesses();
            let pipe_before = *core.pipeline().stats();
            let core_before = *core.stats();
            let internal_before = core.total_cycles();
            let extra_before = internal_before - pipe_before.cycles;
            core.load_program(&programs[ci]);
            core.run(fabric::ITEM_BUDGET).expect("NCPU program must complete");
            let used = core.total_cycles() - internal_before;
            let (reads_after, _) = l2.accesses();
            let touches_rel: Vec<u64> = core
                .take_l2_touch_cycles()
                .into_iter()
                .map(|t| t - internal_before)
                .collect();
            for &rel in &touches_rel {
                touches.push((now + rel - 1, c));
            }
            // Drain this item's events onto an item-relative clock so a
            // replay can re-base them anywhere.
            let mut shard = Recorder::with_capacity(level.at_least_counters(), usize::MAX);
            shard.absorb(core.obs_mut(), 0, -(internal_before as i64));
            emissions.push(Emission::Absorb {
                cycle: now + used - 1,
                core: c,
                shard: shard.clone(),
                offset: now as i64,
            });
            // The owning core's mailbox: its program writes
            // `result_addr(c)`, and under the static homogeneous plan
            // `c == idx % cores` — the historical read, byte for byte.
            let prediction =
                l2.read_word(fabric::result_addr(ci)).expect("result written") as usize;
            memo.proven = None;
            if reads_after > reads_before {
                // The program read the shared L2: its outcome may depend
                // on content a skipped replay did not write.
                if stats.replayed() > 0 {
                    return Err(Restart::MemoUnsound);
                }
                memoize = false;
                memo.cache.clear();
            } else if let Some(pre) = pre {
                let after = core.pipeline().stats();
                let delta = ReplayDelta {
                    pipe: after.diff(&pipe_before),
                    core: core_diff(&core_before, core.stats()),
                    extra_cycles: (core.total_cycles() - after.cycles) - extra_before,
                };
                let steady = core.matches_replay_state(&pre);
                memo.cache.push(Cached {
                    staged: staged.clone(),
                    spec_key,
                    post: (!steady).then(|| core.replay_state()),
                    pre,
                    used,
                    delta,
                    shard,
                    touches_rel,
                    prediction,
                });
                if steady {
                    memo.prove(core, memo.cache.len() - 1);
                }
            }
            (used, prediction)
        };

        // A mid-item watchdog expiry cannot be simulated by an atomic
        // item execution: the lock-step engine aborts and resets the
        // core partway through. Restart there instead.
        if watchdog > 0 && used > watchdog {
            return Err(Restart::Watchdog);
        }

        ledger.charge(ci, used);
        ledger.complete(ci, now + used, used, prediction, &mut rec);
        if ledger.head(ci).is_some() {
            queue.arm(c, now + used);
        }
    }

    // Post-hoc L2 arbitration: per bank, same-cycle touches lose to the
    // lowest-numbered core — the same [`BankPorts`] rule the lock-step
    // walk applies inline (with one bank: every later toucher loses).
    touches.sort_unstable();
    let mut ports = BankPorts::new(topo.banks());
    let mut l2_conflicts = 0u64;
    let mut i = 0;
    while i < touches.len() {
        let cycle = touches[i].0;
        ports.reset();
        let mut j = i;
        while j < touches.len() && touches[j].0 == cycle {
            let core = touches[j].1;
            if !ports.claim(topo.bank_of(core as usize)) {
                l2_conflicts += 1;
                if rec.wants_events() {
                    emissions.push(Emission::Stall { cycle, core });
                }
            }
            j += 1;
        }
        i = j;
    }

    // Replay the deferred recorder operations in the order the per-cycle
    // walk would have performed them: by cycle, then core, stalls before
    // the same core's item absorb.
    emissions.sort_by_key(Emission::key);
    for emission in emissions {
        match emission {
            Emission::Fault { core, events, .. } => {
                // Replayed through `emit` so capacity accounting matches
                // the lock-step engine's inline emission exactly.
                for (cycle, kind) in events {
                    rec.emit(core, cycle, kind);
                }
            }
            Emission::Stall { cycle, core } => {
                rec.emit(core, cycle, EventKind::Stall { cause: StallCause::L2Conflict });
            }
            Emission::Absorb { core, mut shard, offset, .. } => {
                rec.absorb(&mut shard, core, offset);
            }
        }
    }

    rec.set_counter("soc.l2_conflict_cycles", l2_conflicts);
    let report = ledger.finish(format!("{cores}x ncpu (event)"), &pool, &mut dma, &mut rec);
    Ok((report, rec, stats))
}

/// Fieldwise `after - before` of the core counters.
fn core_diff(
    before: &ncpu_core::CoreStats,
    after: &ncpu_core::CoreStats,
) -> ncpu_core::CoreStats {
    ncpu_core::CoreStats {
        switches: after.switches - before.switches,
        images_inferred: after.images_inferred - before.images_inferred,
        bnn_cycles: after.bnn_cycles - before.bnn_cycles,
        switch_overhead_cycles: after.switch_overhead_cycles - before.switch_overhead_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Engine, EventDriven, Lockstep};
    use crate::system::{SocConfig, SystemConfig};
    use crate::usecase::UseCase;
    use ncpu_core::SwitchPolicy;
    use ncpu_fault::FaultPlan;
    use ncpu_obs::TraceLevel;

    fn parametric(batch: usize) -> UseCase {
        UseCase::parametric(0.6, batch, crate::system::tests::pseudo_model(784, 30, 10))
    }

    fn ncpu(uc: &UseCase, cores: usize, soc: SocConfig, level: TraceLevel) -> Scenario {
        Scenario::new(uc.clone(), SystemConfig::ncpu(cores)).with_soc(soc).with_trace(level)
    }

    /// The memoizing first pass over `scenario`'s fleet.
    fn first_pass(scenario: &Scenario) -> Result<(RunReport, Recorder, MemoStats), Restart> {
        let SystemConfig::Ncpu(topo) = scenario.system() else {
            unreachable!("the tests build NCPU scenarios")
        };
        run_attempt(scenario, topo, true)
    }

    /// How the memoizing first pass served its items.
    fn memo_stats(scenario: &Scenario) -> MemoStats {
        match first_pass(scenario) {
            Ok((_, _, stats)) => stats,
            Err(_) => panic!("the first pass must complete without a restart"),
        }
    }

    /// The headline property on one fixed configuration (the fuzz suite
    /// in `tests/engine_differential.rs` covers the matrix): reports,
    /// counters, and raw event/span streams are byte-identical.
    #[test]
    fn event_engine_matches_lockstep_bytes() {
        let uc = parametric(5);
        for level in [TraceLevel::Counters, TraceLevel::Full] {
            let s = ncpu(&uc, 2, SocConfig::default(), level);
            let (ls, ls_rec) = Lockstep.run(&s);
            let (ev, ev_rec) = EventDriven.run(&s);
            assert_eq!(ev.makespan, ls.makespan);
            assert_eq!(ev.predictions, ls.predictions);
            assert_eq!(
                ev.cores.iter().map(|c| c.busy_cycles).collect::<Vec<_>>(),
                ls.cores.iter().map(|c| c.busy_cycles).collect::<Vec<_>>(),
            );
            assert_eq!(ev_rec.spans(), ls_rec.spans(), "{level:?}: raw span stream");
            assert_eq!(ev_rec.events(), ls_rec.events(), "{level:?}: raw instant stream");
            assert_eq!(
                ev_rec.counters().to_json(),
                ls_rec.counters().to_json(),
                "{level:?}: counter registry"
            );
            assert!(memo_stats(&s).replayed() > 0, "steady-state items must replay");
        }
    }

    /// Replay accelerates without changing a single byte: batch 16 on
    /// two cores simulates two items per core (the cold first item, then
    /// the first steady-state one) and replays the rest — every replay
    /// proven by the bank generation, none needing a bank compare.
    #[test]
    fn steady_state_items_replay() {
        let s = ncpu(&parametric(16), 2, SocConfig::default(), TraceLevel::Counters);
        assert_eq!(memo_stats(&s), MemoStats { proven: 12, compared: 0, simulated: 4 });
        let ev = EventDriven.report(&s);
        let ls = Lockstep.report(&s);
        assert_eq!(ev.makespan, ls.makespan);
        assert_eq!(ev.predictions, ls.predictions);
    }

    /// DMA staging loads the banks before every image item, which moves
    /// the bank generation: no replay can be generation-proven, so every
    /// hit goes through the in-place compare — and the run still matches
    /// the lock-step engine byte for byte. Each image appears four times
    /// in a row on one core: the first two runs simulate (cold, then
    /// steady), the last two replay.
    #[test]
    fn staged_items_replay_through_the_in_place_compare() {
        let uc = UseCase::image(4, 2, 1).with_repeated_items(4);
        for level in [TraceLevel::Counters, TraceLevel::Full] {
            let s = ncpu(&uc, 1, SocConfig::default(), level);
            assert_eq!(memo_stats(&s), MemoStats { proven: 0, compared: 8, simulated: 8 });
            let (ls, ls_rec) = Lockstep.run(&s);
            let (ev, ev_rec) = EventDriven.run(&s);
            assert_eq!(ev.makespan, ls.makespan, "{level:?}");
            assert_eq!(ev.predictions, ls.predictions);
            assert_eq!(ev_rec.spans(), ls_rec.spans(), "{level:?}: raw span stream");
            assert_eq!(ev_rec.events(), ls_rec.events(), "{level:?}: raw instant stream");
            assert_eq!(ev_rec.counters().to_json(), ls_rec.counters().to_json());
            assert_eq!(ev_rec.metrics().to_json(), ls_rec.metrics().to_json());
        }
    }

    /// The heterogeneous-style staged workloads exercise the DMA wakeup
    /// path (begin event at the delivery cycle).
    #[test]
    fn staged_items_wait_for_dma_delivery() {
        let uc = UseCase::image(4, 2, 1);
        for cores in [1usize, 2] {
            let s = ncpu(&uc, cores, SocConfig::default(), TraceLevel::Counters);
            let (ev, ev_rec) = EventDriven.run(&s);
            let (ls, ls_rec) = Lockstep.run(&s);
            assert_eq!(ev.makespan, ls.makespan, "{cores} cores");
            assert_eq!(ev.predictions, ls.predictions);
            assert_eq!(
                ev_rec.counters().get("soc.l2_conflict_cycles"),
                ls_rec.counters().get("soc.l2_conflict_cycles")
            );
        }
    }

    /// Naive switching produces long busy regions — the case the event
    /// jump targets — and must still match to the cycle.
    #[test]
    fn naive_policy_matches_lockstep() {
        let soc = SocConfig { switch_policy: SwitchPolicy::Naive, ..SocConfig::default() };
        let s = ncpu(&parametric(4), 4, soc, TraceLevel::Full);
        let (ev, ev_rec) = EventDriven.run(&s);
        let (ls, ls_rec) = Lockstep.run(&s);
        assert_eq!(ev.makespan, ls.makespan);
        assert_eq!(ev_rec.events(), ls_rec.events());
        assert_eq!(ev_rec.spans(), ls_rec.spans());
    }

    /// An aggressive fault plan on a staged workload: injections,
    /// parity detections, retries, drops and quarantines all fire, and
    /// the event engine still matches the lock-step engine byte for
    /// byte — reports, fault counters, histograms, raw trace streams.
    #[test]
    fn faulted_event_matches_lockstep_bytes() {
        let uc = UseCase::image(8, 2, 1);
        let plan = FaultPlan {
            seed: 7,
            sram_flip_ppm: 200_000,
            dma_stall_ppm: 150_000,
            dma_stall_cycles: 48,
            dma_truncate_ppm: 150_000,
            core_hang_ppm: 100_000,
            watchdog_cycles: 20_000_000,
            max_retries: 3,
            backoff_cycles: 32,
            quarantine_after: 6,
        };
        // The repeated batch on one core gives the memo hits to find;
        // staging (and a flip's discarded delivery) never lets the bank
        // generation prove one, so they all go through the compare.
        let repeated = UseCase::image(4, 2, 1).with_repeated_items(4);
        // `(use case, cores, level, least compared replays)`.
        let runs = [
            (&uc, 2, TraceLevel::Counters, 0),
            (&uc, 2, TraceLevel::Full, 0),
            (&repeated, 1, TraceLevel::Full, 1),
        ];
        for (uc, cores, level, least_compared) in runs {
            let s = ncpu(uc, cores, SocConfig::default(), level)
                .with_operating_point(0.9)
                .with_faults(plan);
            let stats = memo_stats(&s);
            assert_eq!(stats.proven, 0, "{level:?}: staging moves the generation");
            assert!(stats.compared >= least_compared, "{cores} cores, {level:?}: {stats:?}");
            let (ls, ls_rec) = Lockstep.run(&s);
            let (ev, ev_rec) = EventDriven.run(&s);
            assert_eq!(ev.makespan, ls.makespan, "{level:?}");
            assert_eq!(ev.predictions, ls.predictions);
            assert_eq!(
                ev.cores.iter().map(|c| c.busy_cycles).collect::<Vec<_>>(),
                ls.cores.iter().map(|c| c.busy_cycles).collect::<Vec<_>>(),
            );
            assert_eq!(ev_rec.spans(), ls_rec.spans(), "{level:?}: raw span stream");
            assert_eq!(ev_rec.events(), ls_rec.events(), "{level:?}: raw instant stream");
            assert_eq!(ev_rec.counters().to_json(), ls_rec.counters().to_json());
            assert_eq!(ev_rec.metrics().to_json(), ls_rec.metrics().to_json());
            let injected = ev_rec.counters().get("fault.injected.sram_flip")
                + ev_rec.counters().get("fault.injected.dma_stall")
                + ev_rec.counters().get("fault.injected.dma_truncate")
                + ev_rec.counters().get("fault.injected.core_hang");
            assert!(injected > 0, "{level:?}: plan this hot must inject");
        }
    }

    /// `max_retries: 0` drops every faulted item on its first detected
    /// fault; dropped items carry the sentinel prediction and the drop
    /// counter — identically on both engines.
    #[test]
    fn exhausted_retries_drop_items_identically() {
        let plan = FaultPlan {
            seed: 11,
            sram_flip_ppm: 600_000,
            watchdog_cycles: 20_000_000,
            max_retries: 0,
            ..FaultPlan::none()
        };
        let s = ncpu(&UseCase::image(8, 2, 1), 2, SocConfig::default(), TraceLevel::Full)
            .with_faults(plan);
        let (ls, ls_rec) = Lockstep.run(&s);
        let (ev, ev_rec) = EventDriven.run(&s);
        assert_eq!(ev.predictions, ls.predictions);
        assert_eq!(ev_rec.events(), ls_rec.events());
        assert_eq!(ev_rec.counters().to_json(), ls_rec.counters().to_json());
        let dropped = ev_rec.counters().get("fault.items_dropped");
        assert!(dropped > 0, "a 60% flip rate with no retries must drop");
        let sentinels =
            ev.predictions.iter().filter(|&&p| p == fabric::DROPPED_PREDICTION).count();
        assert_eq!(sentinels as u64, dropped);
    }

    /// An item that overruns the watchdog mid-execution cannot be
    /// aborted by an atomic-item engine: the run restarts on the
    /// lock-step engine and is relabeled — the fallback the fault plan
    /// requires for EventDriven.
    #[test]
    fn watchdog_overrun_falls_back_to_lockstep() {
        // No injection at all: the watchdog alone fires on genuinely
        // long items (a parametric item runs ~2.2k cycles).
        let plan = FaultPlan {
            watchdog_cycles: 1_000,
            backoff_cycles: 16,
            max_retries: 1,
            ..FaultPlan::none()
        };
        let s = ncpu(&parametric(4), 2, SocConfig::default(), TraceLevel::Full).with_faults(plan);
        let (ls, ls_rec) = Lockstep.run(&s);
        let (ev, ev_rec) = EventDriven.run(&s);
        assert_eq!(ev.config, "2x ncpu (event)", "fallback keeps the engine label");
        assert!(
            matches!(first_pass(&s), Err(Restart::Watchdog)),
            "fallback bypasses the replay cache"
        );
        assert!(
            ev_rec.counters().get("fault.detected.watchdog") > 0,
            "the watchdog must have fired"
        );
        assert_eq!(ev.makespan, ls.makespan);
        assert_eq!(ev.predictions, ls.predictions);
        assert_eq!(ev_rec.events(), ls_rec.events());
        assert_eq!(ev_rec.spans(), ls_rec.spans());
        assert_eq!(ev_rec.counters().to_json(), ls_rec.counters().to_json());
    }

    /// Drives the engine through the `Engine` trait like any other.
    #[test]
    fn engine_trait_runs_event() {
        let s = Scenario::new(parametric(3), SystemConfig::ncpu(2));
        let report = EventDriven.report(&s);
        assert_eq!(report.config, "2x ncpu (event)");
        assert_eq!(EventDriven.name(), "event");
    }
}
