//! Event-driven co-simulation of the N-core SoC — byte-identical to the
//! lock-step engine, orders of magnitude faster. The one fast NCPU
//! engine: `EventDriven` runs it, and so does `Analytic` on an NCPU
//! fleet (under a label without the engine name).
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
//! drives; this module keeps only its clock: the event queue, the
//! steady-state replay and the path-keyed timing memo.
//!
//! # Steady-state replay
//!
//! Parametric items on one core are usually identical: same program,
//! same architectural starting state. When an item ends exactly where it
//! started ([`NcpuCore::matches_replay_state`] against the state
//! captured before it), the core remembers that steady state, its
//! summed bank write generation ([`NcpuCore::bank_generation`]) and the
//! item's timing. The next item is *skipped outright* while the
//! generation is unchanged — no bank was written, loaded or (un)gated —
//! and the registers, transition neurons, pending triggers and busy
//! countdown still compare equal ([`NcpuCore::matches_replay_registers`]):
//! counters advance by the recorded deltas and the recorded events and
//! L2 touches are re-based onto the new start cycle. A skip copies and
//! hashes nothing.
//!
//! DMA staging loads the banks before every image and motion item, so
//! those items never skip; they take the path below instead.
//!
//! # Path-keyed timing
//!
//! Every other item runs *functionally* first ([`NcpuCore::run_functional`]:
//! the program's lowered micro-ops, no pipeline, with the BNN batch's
//! data half), which produces the item's exact
//! architectural effects — registers, banks, the L2 result word — and a
//! [`PathLog`]: each conditional-branch outcome, `jalr` target and
//! `sw_l2` address, and each `trans_bnn`'s image count. That log is the
//! only data-dependent input to the item's timing:
//!
//! * the pipeline's hazards, flushes and multi-cycle waits depend only
//!   on which instructions issue in which order — fixed by the program,
//!   the branch outcomes and the `jalr` targets — and on the static
//!   multiply wait and the fixed `l2_extra_cycles` of each L2 access;
//!   local loads and stores never stall;
//! * a BNN batch's cycles depend only on its image count, the model's
//!   shape and the accelerator configuration, and the naive switch
//!   policy's reloads only on the model's size and the DMA point;
//! * the full trace's events carry PCs (path), stall causes (path),
//!   `sw_l2` addresses (logged) and image counts (logged).
//!
//! So the item's timing is looked up in the use case's timing memo
//! under a [`TimingKey`](crate::timing) of: the program words, the
//! core spec's memo key, the timing fields of [`SocConfig`](crate::SocConfig)
//! (DMA bytes per cycle and setup, switch policy, layer pipelining), the
//! trace level, the model topology, the timing entry state
//! (`busy_remaining`, `pending_triggers`; everything else a timed run
//! reads at entry is reset by `load_program`) and the path log, compared
//! byte for byte. A hit applies the recorded cycles, counter deltas,
//! event shard and L2 touches on top of the functional post-state; a
//! miss restores the captured entry state, simulates the item cycle by
//! cycle and records it. Entries are pure functions of their keys, so
//! the memo lives on the [`UseCase`](crate::UseCase), behind an `Arc`
//! every clone shares: every scenario, engine run and serve worker
//! built from one use case shares it. It keeps at most 256 entries and
//! about 16 MiB (oldest first out); a `Counters`-level image or motion
//! entry is a few KiB, a `Full`-level one several MiB. Path hits are
//! profiled under the `event.replay` span, misses (functional pass
//! included) under `event.simulate`.
//!
//! The one escape hatch: an `lw_l2` could observe content another core
//! has not written yet in this atomic-item schedule, so the functional
//! pass stops at one and the item is simulated; a simulated item that
//! read the L2 is never cached, and if one shows up after a skipped item
//! already happened (a skip does not redo its L2 write), the whole run
//! restarts with memoization off. Path hits perform every write
//! themselves. Fabric-generated programs never read the L2, so the
//! restart exists for soundness, not for the paper's workloads.
//!
//! # Mid-item watchdog
//!
//! An item that would overrun an active plan's watchdog is never replayed
//! or memoized: it is simulated for exactly `watchdog` cycles and its core
//! rebuilt; [`fabric::watchdog_abort`] decides at the expiry cycle's slot.

use std::sync::Arc;

use ncpu_core::{BankPorts, NcpuCore, ReplayDelta, ReplayState, SharedL2, StepOutcome};
use ncpu_obs::{EventKind, Recorder, StallCause, TraceLevel};
use ncpu_pipeline::{PathLog, Program};

use crate::event_queue::EventQueue;
use crate::fabric;
use crate::report::RunReport;
use crate::scenario::Scenario;
use crate::timing::{TimingKey, TimingRecord};
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
/// the lock-step engine does, and aborts an item that overruns the
/// plan's watchdog mid-flight, as it does.
///
/// # Panics
///
/// Panics if a generated program faults (a workspace bug), the run
/// exceeds an internal cycle bound, or the topology has no item-capable
/// core.
pub(crate) fn run(scenario: &Scenario, topo: &Topology) -> (RunReport, Recorder) {
    // An item read the shared L2 after its content diverged from the
    // lock-step walk's: replay is unsound here, simulate every item.
    let (report, rec, _) = run_attempt(scenario, topo, true)
        .or_else(|Restart::MemoUnsound| run_attempt(scenario, topo, false))
        .unwrap_or_else(|_| unreachable!("memoization disabled: nothing to invalidate"));
    (report, rec)
}

/// The run must start over on a different strategy.
enum Restart {
    /// Replay would be unsound: restart without the cache.
    MemoUnsound,
}

/// How one [`run_attempt`] served its items (engine instrumentation;
/// not part of the report counters, which must match the lock-step
/// engine's).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct MemoStats {
    /// Items skipped outright: the core provably sat in a steady state.
    replayed: usize,
    /// Items run functionally whose timing came from the use case's
    /// timing memo.
    path: usize,
    /// Items simulated cycle by cycle.
    simulated: usize,
}

/// An item that ended exactly where it started, and the proof that a
/// core still sits in that state.
struct Steady {
    /// The item's start (and end) state.
    state: ReplayState,
    /// The core's [`NcpuCore::bank_generation`] when its banks were
    /// compared equal to `state`'s: while it is unchanged no bank was
    /// written, loaded or (un)gated. Registers are still compared on use.
    generation: u64,
    /// Cycles, counter deltas, event shard and L2 touches — shared with
    /// the use case's timing memo.
    timing: Arc<TimingRecord>,
    prediction: usize,
}

impl Steady {
    /// The steady state `core` reached if the item that took it from
    /// `pre` to where it is now ended where it started.
    fn reached(
        core: &NcpuCore,
        pre: ReplayState,
        timing: Arc<TimingRecord>,
        prediction: usize,
    ) -> Option<Steady> {
        core.matches_replay_state(&pre).then(|| Steady {
            state: pre,
            generation: core.bank_generation(),
            timing,
            prediction,
        })
    }

    /// Whether `core` provably still sits in this state.
    fn holds(&self, core: &NcpuCore) -> bool {
        self.generation == core.bank_generation() && core.matches_replay_registers(&self.state)
    }
}

/// What a core's pending wakeup does, mirroring the lock-step walk's
/// per-core state at that slot.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Wake {
    /// Dispatch the core's next item (or wait for it to be available).
    Dispatch,
    /// Re-dispatch the current item after a watchdog abort, keeping its
    /// latency anchor and retry budget.
    Redispatch,
    /// Begin the staged item (banks already loaded).
    Exec,
    /// The watchdog expires on the item that began at this cycle.
    Abort(u64),
}

/// A deferred recorder operation, replayed in lock-step emission order.
enum Emission {
    /// The fault layer's injection/detection/recovery instants resolved
    /// at one dispatch or watchdog-abort slot. The lock-step walk emits
    /// them before stepping the core — so they sort before any same-slot
    /// stall or absorb.
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
    let mut steady: Vec<Option<Steady>> = (0..cores).map(|_| None).collect();
    let mut wake = vec![Wake::Dispatch; cores];

    let mut queue = EventQueue::new(cores);
    for c in 0..cores {
        if ledger.head(c).is_some() {
            queue.arm(c as u16, 0);
        }
    }

    let mut emissions: Vec<Emission> = Vec::new();
    let mut touches: Vec<(u64, u16)> = Vec::new();
    let mut stats = MemoStats::default();
    // Whether the shared L2 may differ from the lock-step walk's: a skip
    // does not redo its write, an aborted functional pass wrote past it.
    let mut l2_diverged = false;
    // An instruction takes at least a cycle: a functional pass retiring
    // more instructions than the watchdog has cycles overruns for sure.
    let limit = if watchdog > 0 { watchdog } else { fabric::ITEM_BUDGET };
    let budget = 2_000_000_000u64;
    'pop: while let Some((now, c)) = queue.pop() {
        assert!(now < budget, "event-driven run exceeded {budget} cycles");
        let ci = c as usize;
        match wake[ci] {
            Wake::Exec => wake[ci] = Wake::Dispatch,
            Wake::Abort(start) => {
                // The lock-step walk's watchdog check at this slot; the walk
                // `continue`s past it, so the core acts again a cycle later.
                let mut batch: Vec<(u64, EventKind)> = Vec::new();
                let ctl = ledger.ctl.as_mut().expect("only an active fault plan arms the watchdog");
                wake[ci] = match fabric::watchdog_abort(ctl, ci, start, now, &mut rec, &mut Some(&mut batch)) {
                    fabric::Decision::RetryAt(resume) => {
                        queue.arm(c, resume.max(now + 1));
                        Wake::Redispatch
                    }
                    fabric::Decision::Drop(at) => {
                        ledger.drop_current(ci, at, &mut rec);
                        queue.arm(c, now + 1);
                        Wake::Dispatch
                    }
                    fabric::Decision::Quarantine(at) => {
                        quarantine(&mut ledger, &mut queue, ci, at, &mut rec, &mut batch);
                        Wake::Dispatch
                    }
                };
                emissions.push(Emission::Fault { cycle: now, core: c, events: batch });
                continue 'pop;
            }
            Wake::Dispatch | Wake::Redispatch => {
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
                    let fresh = std::mem::replace(&mut wake[ci], Wake::Dispatch) == Wake::Dispatch;
                    if fresh {
                        ledger.begin(ci, now);
                    }
                    match fabric::resolve_dispatch(
                        ledger.ctl.as_mut(),
                        ci,
                        item,
                        &usecase.items()[item].staged,
                        now,
                        fresh,
                        &mut pool[ci],
                        &mut dma,
                        &mut rec,
                        Some(&mut batch),
                    ) {
                        fabric::Resolution::Run { exec_start } => {
                            if exec_start > now {
                                // Banks are loaded; sleep until delivery.
                                wake[ci] = Wake::Exec;
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
                            quarantine(&mut ledger, &mut queue, ci, at, &mut rec, &mut batch);
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
        }

        // Execute (or replay) the item starting at `now`. An item known
        // to overrun the watchdog is never replayed: it takes the
        // simulation path, which stops where the watchdog does.
        let core = &mut pool[ci];
        let hit = steady[ci].as_ref().filter(|s| memoize && s.timing.used <= limit && s.holds(core));
        let executed = if let Some(hit) = hit {
            let _prof = ncpu_obs::selfprof::span("event.replay");
            replay_timing(&hit.timing, now, c, &mut touches, &mut emissions);
            core.apply_replay(&hit.timing.delta);
            stats.replayed += 1;
            l2_diverged = true;
            Ok((hit.timing.used, hit.prediction))
        } else {
            // Run the item functionally and look its path up in the use
            // case's timing memo; a miss restores the entry state and
            // times the item cycle by cycle.
            let mut prof = ncpu_obs::selfprof::span("event.replay");
            let pre = memoize.then(|| core.replay_state());
            #[cfg(test)]
            let twin = (pre.is_some() && tests::twin_checks()).then(|| core.clone());
            let mut key = None;
            let mut timed = None;
            if let Some(pre) = &pre {
                let entry = (core.busy_remaining(), core.pending_triggers());
                core.load_program(&programs[ci]);
                let mut path = PathLog::new();
                if let Ok(Some(_)) = core.run_functional(limit, &mut path) {
                    let spec_key = topo.spec(ci).memo_key();
                    let shape = usecase.model().topology();
                    let probe =
                        TimingKey::new(&programs[ci], spec_key, soc, level, shape, entry, path);
                    timed = usecase.timing().get(&probe).filter(|t| t.used <= limit);
                    key = Some(probe);
                }
                if timed.is_none() {
                    core.restore_replay_state(pre);
                }
            }
            if let Some(timing) = timed {
                stats.path += 1;
                replay_timing(&timing, now, c, &mut touches, &mut emissions);
                core.apply_replay(&timing.delta);
                #[cfg(test)]
                if let Some(twin) = twin {
                    tests::check_twin(twin, &programs[ci], level, &timing, core);
                }
                let (used, prediction) = (timing.used, read_prediction(&l2, ci));
                steady[ci] = pre.and_then(|pre| Steady::reached(core, pre, timing, prediction));
                Ok((used, prediction))
            } else {
                prof.relabel("event.simulate");
                stats.simulated += 1;
                let (reads_before, _) = l2.accesses();
                let simulated = simulate(core, &programs[ci], level, watchdog);
                let (reads_after, _) = l2.accesses();
                if reads_after > reads_before {
                    // The program read the shared L2: its outcome may depend
                    // on content the lock-step walk's L2 would not hold.
                    if l2_diverged {
                        return Err(Restart::MemoUnsound);
                    }
                    memoize = false;
                }
                // An aborted item's functional pass ran past the abort.
                l2_diverged |= simulated.is_err() && pre.is_some();
                simulated.map(|timing| {
                    let timing = Arc::new(timing);
                    replay_timing(&timing, now, c, &mut touches, &mut emissions);
                    if let Some(key) = key.filter(|_| memoize) {
                        usecase.timing().insert(key, Arc::clone(&timing));
                    }
                    let (used, prediction) = (timing.used, read_prediction(&l2, ci));
                    steady[ci] = pre
                        .filter(|_| memoize)
                        .and_then(|pre| Steady::reached(core, pre, timing, prediction));
                    (used, prediction)
                })
            }
        };

        match executed {
            Ok((used, prediction)) => {
                ledger.charge(ci, used);
                ledger.complete(ci, now + used, used, prediction, &mut rec);
                if ledger.head(ci).is_some() {
                    queue.arm(c, now + used);
                }
            }
            Err(partial) => {
                // Aborted `watchdog` cycles in, as in the lock-step walk: the
                // partial run's touches contend, its cycles are charged, the
                // core is rebuilt, and the decision waits for the expiry slot.
                push_touches(&partial, now, c, &mut touches);
                ledger.charge(ci, watchdog);
                pool[ci] = fabric::ncpu_core(usecase, soc, level, l2.clone());
                pool[ci].set_l2_touch_log(true);
                steady[ci] = None;
                wake[ci] = Wake::Abort(now);
                queue.arm(c, now + watchdog);
            }
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

/// Quarantines core `c` at cycle `at` and wakes each parked core that
/// received its items where the lock-step walk would next dispatch it.
fn quarantine(
    ledger: &mut fabric::Ledger,
    queue: &mut EventQueue,
    c: usize,
    at: u64,
    rec: &mut Recorder,
    batch: &mut Vec<(u64, EventKind)>,
) {
    for (t, parked) in ledger.quarantine(c, at, rec, &mut Some(batch)) {
        if parked {
            queue.arm(t as u16, ledger.finished_at(t).max(at + 1));
        }
    }
}

/// Queues L2 touches stamped on an item-relative clock (see
/// [`TimingRecord::touches_rel`]) for the post-hoc arbitration of an
/// item that began at `now` on core `c`.
fn push_touches(touches_rel: &[u64], now: u64, c: u16, touches: &mut Vec<(u64, u16)>) {
    touches.extend(touches_rel.iter().map(|&rel| (now + rel - 1, c)));
}

/// Queues an item's recorded timing at start cycle `now` on core `c`:
/// its L2 touches for the post-hoc arbitration and its event shard,
/// absorbed at the item's halt cycle.
fn replay_timing(
    timing: &TimingRecord,
    now: u64,
    c: u16,
    touches: &mut Vec<(u64, u16)>,
    emissions: &mut Vec<Emission>,
) {
    push_touches(&timing.touches_rel, now, c, touches);
    emissions.push(Emission::Absorb {
        cycle: now + timing.used - 1,
        core: c,
        shard: timing.shard.clone(),
        offset: now as i64,
    });
}

/// The class core `ci`'s program wrote to its mailbox. Under the static
/// homogeneous plan `ci == idx % cores` — the historical read, byte for
/// byte.
fn read_prediction(l2: &SharedL2, ci: usize) -> usize {
    l2.read_word(fabric::result_addr(ci)).expect("result written") as usize
}

/// Runs `program` on `core` cycle by cycle and returns what the run
/// added on top of its architectural effects, with its events drained
/// onto an item-relative clock so a replay can re-base them anywhere.
///
/// An armed watchdog stops the run after exactly `watchdog` cycles, as
/// the lock-step walk's abort does (`step_n`; `run`, the faster loop
/// otherwise, could overshoot inside a BNN batch); an item still running
/// then is `Err` with its L2 touches so far, item-relative.
fn simulate(
    core: &mut NcpuCore,
    program: &Program,
    level: TraceLevel,
    watchdog: u64,
) -> Result<TimingRecord, Vec<u64>> {
    let pipe_before = *core.pipeline().stats();
    let core_before = *core.stats();
    let internal_before = core.total_cycles();
    let extra_before = internal_before - pipe_before.cycles;
    core.load_program(program);
    let halted = if watchdog > 0 {
        core.step_n(watchdog).expect("NCPU program must not fault").0 == StepOutcome::Halted
    } else {
        core.run(fabric::ITEM_BUDGET).expect("NCPU program must complete");
        true
    };
    let touches_rel =
        core.take_l2_touch_cycles().into_iter().map(|t| t - internal_before).collect();
    if !halted {
        return Err(touches_rel);
    }
    let used = core.total_cycles() - internal_before;
    let mut shard = Recorder::with_capacity(level.at_least_counters(), usize::MAX);
    shard.absorb(core.obs_mut(), 0, -(internal_before as i64));
    let after = core.pipeline().stats();
    let delta = ReplayDelta {
        pipe: after.diff(&pipe_before),
        core: core_diff(&core_before, core.stats()),
        extra_cycles: (core.total_cycles() - after.cycles) - extra_before,
    };
    Ok(TimingRecord { used, delta, shard, touches_rel })
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
    use std::cell::{Cell, RefCell};

    thread_local! {
        /// Whether path hits on this thread are also simulated on a twin.
        static TWIN_CHECKS: Cell<bool> = const { Cell::new(false) };
        /// Path hits twin-checked, and the first mismatch seen.
        static TWIN_LOG: RefCell<(usize, Option<String>)> = const { RefCell::new((0, None)) };
    }

    pub(super) fn twin_checks() -> bool {
        TWIN_CHECKS.with(Cell::get)
    }

    /// Cycle-simulates a path hit on `twin` — the core as it entered the
    /// item — and checks the twin ends exactly where the functional run
    /// plus the replayed timing left `core`: architectural state,
    /// counters and clock, event shard and L2 touches. Mismatches are
    /// logged, not panicked, so the property harness can shrink.
    pub(super) fn check_twin(
        mut twin: NcpuCore,
        program: &Program,
        level: TraceLevel,
        timing: &TimingRecord,
        core: &NcpuCore,
    ) {
        let simulated = simulate(&mut twin, program, level, 0).expect("an unarmed run halts");
        let checks = [
            ("replay state", twin.replay_state() == core.replay_state()),
            ("pipeline counters", twin.pipeline().stats() == core.pipeline().stats()),
            ("core counters", twin.stats() == core.stats()),
            ("clock", twin.total_cycles() == core.total_cycles()),
            ("used", simulated.used == timing.used),
            ("spans", simulated.shard.spans() == timing.shard.spans()),
            ("events", simulated.shard.events() == timing.shard.events()),
            ("touches", simulated.touches_rel == timing.touches_rel),
        ];
        TWIN_LOG.with(|log| {
            let mut log = log.borrow_mut();
            log.0 += 1;
            if let (None, Some((what, _))) = (&log.1, checks.iter().find(|(_, ok)| !ok)) {
                log.1 = Some(format!("path hit {}: {what} differs from a twin simulation", log.0));
            }
        });
    }

    /// Runs `f` with every path hit twin-checked; returns `f`'s value and
    /// how many hits were checked, or the first mismatch.
    fn twin_checked<T>(f: impl FnOnce() -> T) -> Result<(T, usize), String> {
        TWIN_LOG.with(|log| *log.borrow_mut() = (0, None));
        TWIN_CHECKS.with(|on| on.set(true));
        let value = f();
        TWIN_CHECKS.with(|on| on.set(false));
        let (checked, failure) = TWIN_LOG.with(|log| log.borrow_mut().clone());
        failure.map_or(Ok((value, checked)), Err)
    }

    fn parametric(batch: usize) -> UseCase {
        UseCase::parametric(0.6, batch, crate::system::tests::pseudo_model(784, 30, 10))
    }

    fn ncpu(uc: &UseCase, cores: usize, soc: SocConfig, level: TraceLevel) -> Scenario {
        Scenario::new(uc.clone(), SystemConfig::ncpu(cores)).with_soc(soc).with_trace(level)
    }

    /// How the memoizing first pass over `scenario`'s fleet served its
    /// items; it must complete without a restart.
    fn memo_stats(scenario: &Scenario) -> MemoStats {
        let SystemConfig::Ncpu(topo) = scenario.system() else {
            unreachable!("the tests build NCPU scenarios")
        };
        match run_attempt(scenario, topo, true) {
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
            assert_same_bytes(&s);
            assert!(memo_stats(&s).replayed > 0, "steady-state items must replay");
        }
    }

    /// Replay accelerates without changing a single byte: batch 16 on
    /// two cores simulates the cold first item per core, runs the first
    /// steady-state one functionally (it follows the cold item's path,
    /// so the timing memo supplies its cycles) and skips the rest, each
    /// proven by the bank generation.
    #[test]
    fn steady_state_items_replay() {
        let s = ncpu(&parametric(16), 2, SocConfig::default(), TraceLevel::Counters);
        assert_eq!(memo_stats(&s), MemoStats { replayed: 12, path: 2, simulated: 2 });
        assert_same_bytes(&s);
    }

    /// Every digit follows one path through the pre-processing program:
    /// of four distinct images on one core only the first is simulated
    /// cycle by cycle, the other three run functionally and take their
    /// timing from the memo — and a second run of the same use case
    /// simulates nothing. DMA staging moves the bank generation before
    /// every item, so none is skipped outright. Both runs match the
    /// lock-step engine byte for byte at both trace levels; a new trace
    /// level is a new timing key.
    #[test]
    fn distinct_images_take_their_timing_from_the_path_memo() {
        let uc = UseCase::image(4, 2, 1);
        for level in [TraceLevel::Counters, TraceLevel::Full] {
            let s = ncpu(&uc, 1, SocConfig::default(), level);
            let cold = MemoStats { replayed: 0, path: 3, simulated: 1 };
            let warm = MemoStats { path: 4, simulated: 0, ..cold };
            assert_eq!(memo_stats(&s), cold, "{level:?}");
            assert_eq!(memo_stats(&s), warm, "{level:?}");
            assert_same_bytes(&s);
        }
        assert_eq!(uc.timing().len(), 2, "one entry per trace level");
    }

    /// Asserts equal reports, raw span and instant streams, counters and
    /// metrics of both engines on `s`; returns the event engine's run.
    fn assert_same_bytes(s: &Scenario) -> (RunReport, Recorder) {
        let (ls, ls_rec) = Lockstep.run(s);
        let (ev, ev_rec) = EventDriven.run(s);
        assert_eq!(
            format!("{ev:?}").replace("(event)", "(engine)"),
            format!("{ls:?}").replace("(lockstep)", "(engine)"),
        );
        assert_eq!(ev_rec.spans(), ls_rec.spans(), "raw span stream");
        assert_eq!(ev_rec.events(), ls_rec.events(), "raw instant stream");
        assert_eq!(ev_rec.counters().to_json(), ls_rec.counters().to_json());
        assert_eq!(ev_rec.metrics().to_json(), ls_rec.metrics().to_json());
        (ev, ev_rec)
    }

    /// One use case, so one timing memo, under every timing-relevant
    /// axis in turn: each `SocConfig` field, both trace levels, an
    /// operating point and a topology. A key missing an axis would hand
    /// a run the timing recorded under another value of it; every run
    /// must instead match the lock-step engine byte for byte, and the
    /// repeat of each run must take all its timing from the memo.
    #[test]
    fn one_shared_use_case_stays_lockstep_identical_on_every_timing_axis() {
        let uc = UseCase::motion(6, 2, 1);
        let naive = SocConfig { switch_policy: SwitchPolicy::Naive, ..SocConfig::default() };
        let socs = [
            SocConfig::default(),
            naive,
            SocConfig { dma_bytes_per_cycle: 8, ..naive },
            SocConfig { dma_setup_cycles: 40, ..naive },
            SocConfig { layer_pipelining: false, ..SocConfig::default() },
        ];
        let mixed = Topology::from_specs(
            vec![
                crate::topology::CoreSpec::reconfigurable(),
                crate::topology::CoreSpec {
                    operating_point: Some(0.7),
                    bank: 1,
                    ..crate::topology::CoreSpec::reconfigurable()
                },
            ],
            vec![fabric::L2_BYTES / 2, fabric::L2_BYTES / 2],
        )
        .expect("valid topology");
        let mut scenarios = Vec::new();
        for level in [TraceLevel::Counters, TraceLevel::Full] {
            for soc in socs {
                scenarios.push(ncpu(&uc, 2, soc, level));
            }
            scenarios.push(ncpu(&uc, 2, SocConfig::default(), level).with_operating_point(0.8));
            scenarios.push(
                Scenario::new(uc.clone(), SystemConfig::Ncpu(mixed.clone())).with_trace(level),
            );
        }
        for s in &scenarios {
            assert_same_bytes(s);
            let warm = memo_stats(s);
            assert_eq!(warm.simulated, 0, "{:?}: {warm:?}", s.soc());
            assert_same_bytes(s);
        }
    }

    static TWIN_IMAGE: std::sync::OnceLock<UseCase> = std::sync::OnceLock::new();
    static TWIN_MOTION: std::sync::OnceLock<UseCase> = std::sync::OnceLock::new();
    static TWIN_PARAMETRIC: std::sync::OnceLock<UseCase> = std::sync::OnceLock::new();

    /// Soundness of the path memo on drawn scenarios: every path hit is
    /// also simulated cycle by cycle on a twin of the core, which must
    /// end in the same replay state, counters and clock, with the same
    /// event shard and L2 touches; the run's report must equal the
    /// lock-step engine's. Use cases are shared across cases, so later
    /// cases hit entries earlier ones recorded under other configs.
    /// Draw: `(workload, cores, soc variant, full trace, fault plan)`.
    #[test]
    fn path_hits_match_a_twin_simulation() {
        use ncpu_testkit::prop::Prop;
        let usecase = |kind: u8| match kind % 3 {
            0 => TWIN_IMAGE.get_or_init(|| UseCase::image(3, 2, 1)),
            1 => TWIN_MOTION.get_or_init(|| UseCase::motion(4, 2, 1)),
            _ => TWIN_PARAMETRIC.get_or_init(|| parametric(4)),
        };
        let checked = Cell::new(0);
        Prop::new("eventdriven::path_hits_match_a_twin_simulation").cases(24).run(
            |rng| {
                (
                    rng.gen_range(0u8..3),
                    rng.gen_range(1usize..=3),
                    rng.gen_range(0u8..4),
                    rng.gen_bool(0.3),
                    rng.gen_bool(0.3),
                )
            },
            |&(kind, cores, variant, full, faulted)| {
                let soc = match variant % 4 {
                    0 => SocConfig::default(),
                    1 => SocConfig { switch_policy: SwitchPolicy::Naive, ..SocConfig::default() },
                    2 => SocConfig { layer_pipelining: false, ..SocConfig::default() },
                    _ => SocConfig { dma_bytes_per_cycle: 2, ..SocConfig::default() },
                };
                let level = if full { TraceLevel::Full } else { TraceLevel::Counters };
                let mut s = ncpu(usecase(kind), cores.max(1), soc, level);
                if faulted {
                    s = s.with_faults(FaultPlan {
                        seed: 5,
                        sram_flip_ppm: 150_000,
                        dma_stall_ppm: 100_000,
                        dma_stall_cycles: 24,
                        watchdog_cycles: 20_000_000,
                        max_retries: 2,
                        backoff_cycles: 16,
                        ..FaultPlan::none()
                    });
                }
                let (ev, hits) = twin_checked(|| EventDriven.report(&s))?;
                checked.set(checked.get() + hits);
                let ls = Lockstep.report(&s);
                ncpu_testkit::prop_assert_eq!(
                    format!("{ev:?}").replace("(event)", "(engine)"),
                    format!("{ls:?}").replace("(lockstep)", "(engine)")
                );
                Ok(())
            },
        );
        assert!(checked.get() > 0, "the drawn scenarios must produce path hits");
    }

    /// The heterogeneous-style staged workloads exercise the DMA wakeup
    /// path (begin event at the delivery cycle).
    #[test]
    fn staged_items_wait_for_dma_delivery() {
        let uc = UseCase::image(4, 2, 1);
        for cores in [1usize, 2] {
            assert_same_bytes(&ncpu(&uc, cores, SocConfig::default(), TraceLevel::Counters));
        }
    }

    /// Naive switching produces long busy regions — the case the event
    /// jump targets — and must still match to the cycle.
    #[test]
    fn naive_policy_matches_lockstep() {
        let soc = SocConfig { switch_policy: SwitchPolicy::Naive, ..SocConfig::default() };
        assert_same_bytes(&ncpu(&parametric(4), 4, soc, TraceLevel::Full));
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
        // The repeated batch on one core gives the timing memo hits to
        // find; staging (and a flip's discarded delivery) moves the bank
        // generation, so no item is skipped outright.
        let repeated = UseCase::image(4, 2, 1).with_repeated_items(4);
        // `(use case, cores, level, least path hits)`.
        let runs = [
            (&uc, 2, TraceLevel::Counters, 0),
            (&uc, 2, TraceLevel::Full, 0),
            (&repeated, 1, TraceLevel::Full, 1),
        ];
        for (uc, cores, level, least_path) in runs {
            let s = ncpu(uc, cores, SocConfig::default(), level)
                .with_operating_point(0.9)
                .with_faults(plan);
            let stats = memo_stats(&s);
            assert_eq!(stats.replayed, 0, "{level:?}: staging moves the generation");
            assert!(stats.path >= least_path, "{cores} cores, {level:?}: {stats:?}");
            let (_, ev_rec) = assert_same_bytes(&s);
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
        let (ev, ev_rec) = assert_same_bytes(&s);
        let dropped = ev_rec.counters().get("fault.items_dropped");
        assert!(dropped > 0, "a 60% flip rate with no retries must drop");
        let sentinels =
            ev.predictions.iter().filter(|&&p| p == fabric::DROPPED_PREDICTION).count();
        assert_eq!(sentinels as u64, dropped);
    }

    /// Items that overrun the watchdog are aborted inside the event
    /// engine exactly as the lock-step walk aborts them: `watchdog`
    /// cycles in, with the partial run's L2 touches contending, the core
    /// rebuilt and the recovery decision taken at the expiry slot. The
    /// first pass completes without a restart and every byte matches.
    #[test]
    fn watchdog_overrun_aborts_inside_the_event_engine() {
        // No injection at all: the watchdog alone fires on genuinely
        // long items (a parametric item runs ~2.2k cycles, an image item
        // far more than 3k).
        let short = |watchdog_cycles, max_retries, quarantine_after| FaultPlan {
            watchdog_cycles,
            backoff_cycles: 16,
            max_retries,
            quarantine_after,
            ..FaultPlan::none()
        };
        let image = UseCase::image(4, 2, 1);
        let full = |uc: &UseCase, cores| ncpu(uc, cores, SocConfig::default(), TraceLevel::Full);
        let mut scenarios = vec![
            full(&parametric(4), 2).with_faults(short(1_000, 1, 0)),
            full(&image, 2).with_faults(short(3_000, 2, 1)),
        ];
        for cores in [1, 2] {
            for level in [TraceLevel::Counters, TraceLevel::Full] {
                let s = ncpu(&image, cores, SocConfig::default(), level);
                scenarios.push(s.with_faults(short(3_000, 1, 0)));
            }
        }
        // One cycle past the watchdog, twin items' result writes land in
        // their partial runs, in the same cycle: they must still contend.
        let twins = parametric(2);
        let used = Lockstep.report(&full(&twins, 2)).cores[0].busy_cycles;
        scenarios.push(full(&twins, 2).with_faults(short(used - 1, 0, 0)));
        for s in &scenarios {
            memo_stats(s); // the first pass completes without a restart
            let (_, rec) = assert_same_bytes(s);
            let tag = format!("{:?} {:?}", s.system(), s.fault());
            let counter = |name| rec.counters().get(name);
            assert!(counter("fault.detected.watchdog") > 0, "{tag}: must fire");
            if s.fault().quarantine_after > 0 {
                assert!(counter("fault.cores_quarantined") > 0, "{tag}: quarantines");
            }
            if s.fault().max_retries == 0 {
                assert!(counter("soc.l2_conflict_cycles") > 0, "{tag}: partial runs contend");
            }
        }
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
