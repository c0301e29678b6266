//! The reconfigurable NCPU core: CPU pipeline + BNN accelerator in one.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use ncpu_accel::{packed_row_bytes, AccelConfig, Accelerator};
use ncpu_bnn::{BitVec, BnnModel};
use ncpu_isa::interp::Event;
use ncpu_obs::{EventKind as ObsEvent, Mode, Recorder, TraceLevel};
use ncpu_pipeline::{
    FunctionalStop, PathLog, PipeError, PipeStats, Pipeline, PipelineConfig, Program,
};
use ncpu_sim::stats::Timeline;

use crate::l2::SharedL2;
use crate::mem::NcpuMem;

/// Number of transition-neuron configuration registers (paper Section V-B:
/// "several special transition neuron cells built at each neural layer").
pub const TRANSITION_NEURONS: usize = 16;

/// How mode switches are costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchPolicy {
    /// The paper's zero-latency scheme (Fig. 5): layer-1 weights stay
    /// resident, deeper weights stream in behind inference, and the data
    /// cache is preloaded before the switch back — no stall cycles.
    ZeroLatency,
    /// Naive reconfiguration (the ablation baseline): every switch reloads
    /// all packed weights over the DMA and reloads the data cache on the
    /// way back.
    Naive,
}

/// Data-cache working set the naive policy reloads after BNN→CPU.
const NAIVE_DCACHE_PRELOAD_BYTES: u64 = 1024;

/// DMA parameters the [`SwitchPolicy::Naive`] reloads pay, mirroring the
/// SoC fabric's DMA engine (`setup + ceil(bytes / bandwidth)` per
/// transfer) so the switch-cost ablation tracks the configured fabric
/// instead of a hardcoded bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchDma {
    /// Bytes per cycle one reload transfer sustains.
    pub bytes_per_cycle: u32,
    /// Per-transfer setup latency in cycles.
    pub setup_cycles: u64,
}

impl Default for SwitchDma {
    /// The SoC fabric's default DMA operating point (4 B/cy, 16-cycle
    /// setup).
    fn default() -> SwitchDma {
        SwitchDma { bytes_per_cycle: 4, setup_cycles: 16 }
    }
}

impl SwitchDma {
    /// Cycles one reload of `bytes` occupies: setup plus streaming at the
    /// configured bandwidth.
    pub const fn transfer_cycles(&self, bytes: u64) -> u64 {
        self.setup_cycles + bytes.div_ceil(self.bytes_per_cycle as u64)
    }
}

/// Counters of one NCPU core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Completed CPU→BNN→CPU round trips.
    pub switches: u64,
    /// Images classified in BNN mode.
    pub images_inferred: u64,
    /// Cycles spent in BNN mode (inference only).
    pub bnn_cycles: u64,
    /// Cycles lost to mode-switch reconfiguration (zero under
    /// [`SwitchPolicy::ZeroLatency`]).
    pub switch_overhead_cycles: u64,
}

/// Error raised by the NCPU core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The CPU pipeline faulted.
    Pipe(PipeError),
    /// `trans_bnn` was issued with more images configured than the image
    /// memory holds.
    ImageCapacity {
        /// Images requested via the transition neurons.
        images: usize,
        /// Images the image memory can hold.
        capacity: usize,
    },
    /// The cycle budget of [`NcpuCore::run`] was exhausted.
    CycleLimit {
        /// The exhausted budget.
        limit: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Pipe(e) => write!(f, "pipeline: {e}"),
            CoreError::ImageCapacity { images, capacity } => {
                write!(f, "{images} images configured but image memory holds {capacity}")
            }
            CoreError::CycleLimit { limit } => write!(f, "no halt within {limit} cycles"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Pipe(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PipeError> for CoreError {
    fn from(e: PipeError) -> CoreError {
        CoreError::Pipe(e)
    }
}

/// What one [`NcpuCore::step_one`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One CPU-mode pipeline cycle executed.
    Executing,
    /// The core is in BNN mode; `remaining` busy cycles left.
    BnnBusy {
        /// Cycles until the switch back to CPU mode.
        remaining: u64,
    },
    /// `ebreak` has retired; the core is parked.
    Halted,
}

/// The architectural state one program execution on an [`NcpuCore`]
/// depends on, captured for replay caches: two items whose captured
/// states (and staged inputs) are equal execute identically, because
/// everything else a program can observe — PC, pipeline latches, halt
/// flag — is reset by [`NcpuCore::load_program`] before the item runs.
///
/// Capturing copies each accelerator bank written since that bank's
/// previous capture (unchanged banks share one copy); a replay cache
/// still captures only for executions it actually simulates. To test
/// whether the live core is in a captured state, use
/// [`NcpuCore::matches_replay_state`], which compares in place and skips
/// banks still holding the captured copy; to skip even that, note
/// [`NcpuCore::bank_generation`] when equality is known and compare
/// the registers alone ([`NcpuCore::matches_replay_registers`]) while
/// the generation is unchanged.
///
/// Deliberately excluded: monotonic counters (cycle counts, stats,
/// retire traces, SRAM access counters) and the recorder shards — they
/// advance, but never feed back into execution. Shared-L2 *content* is
/// also excluded; a replaying engine must know the execution reads no
/// L2 before treating it as replayable (the SoC's event engine checks
/// each program for an `lw_l2` before its run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayState {
    regs: [u32; 32],
    transition: [u32; TRANSITION_NEURONS],
    pending_triggers: u64,
    busy_remaining: u64,
    /// Per accelerator bank, in registration order: enable flag and raw
    /// contents (image/weight/output memories double as the CPU-mode data
    /// cache, so programs read and write them). Contents are
    /// [`SramBank::snapshot`](ncpu_sim::SramBank::snapshot)s, shared
    /// with every other capture that saw the bank unchanged.
    banks: Vec<(bool, Arc<[u8]>)>,
}

/// The monotonic-counter deltas one program execution produced, applied
/// by [`NcpuCore::apply_replay`] when the execution itself is skipped.
#[derive(Debug, Clone, Copy)]
pub struct ReplayDelta {
    /// Pipeline counter deltas (cycles, retired, stalls, per-mnemonic).
    pub pipe: PipeStats,
    /// Core counter deltas (switches, inferences, BNN/switch cycles).
    pub core: CoreStats,
    /// Unified-clock cycles spent outside the pipeline (BNN + switches).
    pub extra_cycles: u64,
}

/// One reconfigurable Neural CPU core.
///
/// See the [crate documentation](crate) for the programming model and a
/// complete example.
#[derive(Debug, Clone)]
pub struct NcpuCore {
    pipeline: Pipeline<NcpuMem>,
    policy: SwitchPolicy,
    /// DMA operating point the naive switch policy reloads pay.
    switch_dma: SwitchDma,
    transition: [u32; TRANSITION_NEURONS],
    stats: CoreStats,
    /// Cycles spent outside the pipeline clock (BNN phases + switch costs).
    extra_cycles: u64,
    /// The core's shard of the event bus. Held at `Counters` or above so
    /// mode phases are always recorded — the pre-obs `Timeline` was
    /// unconditional, and run reports are derived from these spans.
    obs: Recorder,
    /// Start of the current CPU-mode span, in unified cycles.
    span_start: u64,
    /// `trigger_bnn` retirements so far.
    pending_triggers: u64,
    /// Remaining BNN-mode busy cycles when stepped incrementally.
    busy_remaining: u64,
    /// Shared-L2 touch cycles (unified clock) drained from the pipeline's
    /// touch log; populated only while the log is enabled via
    /// [`NcpuCore::set_l2_touch_log`].
    l2_touches: Vec<u64>,
}

impl NcpuCore {
    /// Creates a core with a private 64-KiB L2. Pass an `Arc<BnnModel>`
    /// to share one model among many cores without copying it.
    pub fn new(
        model: impl Into<Arc<BnnModel>>,
        config: AccelConfig,
        policy: SwitchPolicy,
    ) -> NcpuCore {
        NcpuCore::with_l2(model, config, policy, SharedL2::new(64 * 1024))
    }

    /// Creates a core attached to a shared L2 (two-core SoC configuration).
    pub fn with_l2(
        model: impl Into<Arc<BnnModel>>,
        config: AccelConfig,
        policy: SwitchPolicy,
        l2: SharedL2,
    ) -> NcpuCore {
        let accel = Accelerator::new(model, config);
        let mem = NcpuMem::new(accel, l2);
        NcpuCore {
            pipeline: Pipeline::with_config(Vec::new(), mem, PipelineConfig::default()),
            policy,
            switch_dma: SwitchDma::default(),
            transition: [0; TRANSITION_NEURONS],
            stats: CoreStats::default(),
            extra_cycles: 0,
            obs: Recorder::new(TraceLevel::Counters),
            span_start: 0,
            pending_triggers: 0,
            busy_remaining: 0,
            l2_touches: Vec::new(),
        }
    }

    /// The CPU pipeline (registers, performance counters).
    pub fn pipeline(&self) -> &Pipeline<NcpuMem> {
        &self.pipeline
    }

    /// Mutable access to the CPU pipeline (preload registers or data).
    pub fn pipeline_mut(&mut self) -> &mut Pipeline<NcpuMem> {
        &mut self.pipeline
    }

    /// The embedded accelerator.
    pub fn accel(&self) -> &Accelerator {
        self.pipeline.mem().accel()
    }

    /// The switch policy in force.
    pub const fn policy(&self) -> SwitchPolicy {
        self.policy
    }

    /// The DMA operating point charged by [`SwitchPolicy::Naive`] reloads.
    pub const fn switch_dma(&self) -> SwitchDma {
        self.switch_dma
    }

    /// Sets the DMA operating point for naive-switch reloads. The SoC
    /// layer calls this with its fabric DMA parameters so the ablation
    /// tracks `SocConfig`; no effect under [`SwitchPolicy::ZeroLatency`].
    pub fn set_switch_dma(&mut self, dma: SwitchDma) {
        self.switch_dma = dma;
    }

    /// Core counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Mode timeline (`"cpu"`/`"bnn"`/`"switch"` spans in unified cycles),
    /// derived from the core's event stream.
    pub fn timeline(&self) -> Timeline {
        Timeline::from_obs_events(self.obs.spans(), 0)
    }

    /// Raises the trace level: the core shard stays at `Counters` or
    /// above (phases are always recorded), the embedded pipeline follows
    /// `level` exactly (its instant events only exist at `Full`).
    pub fn set_obs_level(&mut self, level: TraceLevel) {
        self.obs.set_level(level.at_least_counters());
        self.pipeline.set_obs_level(level);
    }

    /// The core's recorder shard (spans in unified core cycles).
    pub fn obs(&self) -> &Recorder {
        &self.obs
    }

    /// Mutable recorder shard, for the SoC layer to absorb. Pipeline
    /// events are synced into it at mode switches and at halt.
    pub fn obs_mut(&mut self) -> &mut Recorder {
        &mut self.obs
    }

    /// Drains the pipeline shard into the core shard, re-basing pipeline
    /// cycles onto the unified clock. Correct only when called before
    /// `extra_cycles` moves past the drained events — i.e. at `trans_bnn`
    /// service and at halt.
    fn sync_pipeline_obs(&mut self) {
        let offset = self.extra_cycles as i64;
        let NcpuCore { pipeline, obs, l2_touches, .. } = self;
        // Drain the pipeline's L2 touch log onto the unified clock first:
        // the log is filled at `Counters` too, where the event shard below
        // is empty and the early return fires.
        l2_touches.extend(pipeline.take_l2_touches().into_iter().map(|t| t + offset as u64));
        let shard = pipeline.obs_mut();
        if shard.events().is_empty() && shard.spans().is_empty() {
            return;
        }
        obs.absorb(shard, 0, offset);
    }

    /// Base address of the image memory in the CPU-mode address space.
    pub fn image_base(&self) -> u32 {
        self.accel().image_base()
    }

    /// Base address of the output memory in the CPU-mode address space.
    pub fn output_base(&self) -> u32 {
        self.accel().output_base()
    }

    /// Byte stride between consecutive packed images in the image memory.
    pub fn image_stride(&self) -> usize {
        packed_row_bytes(self.accel().model().topology().input())
    }

    /// Unified cycle count: pipeline cycles plus BNN-mode and switch time.
    pub fn total_cycles(&self) -> u64 {
        self.pipeline.stats().cycles + self.extra_cycles
    }

    /// Loads a program into the instruction cache and restarts at PC 0.
    /// Pass `&Program` to reuse an image decoded once for many items.
    pub fn load_program(&mut self, program: impl Into<Program>) {
        self.pipeline.load_program(program);
        self.pipeline.restart_at(0);
    }

    /// Reads one transition-neuron configuration register.
    ///
    /// # Panics
    ///
    /// Panics if `index >= TRANSITION_NEURONS`.
    pub fn transition_neuron(&self, index: usize) -> u32 {
        self.transition[index]
    }

    /// Enables or disables the shared-L2 touch log. While on, every
    /// MEM-stage `lw_l2`/`sw_l2` access records its cycle; the SoC
    /// engines use these to find contended L2 windows without observing
    /// every cycle. Turning the log off clears it.
    pub fn set_l2_touch_log(&mut self, on: bool) {
        self.pipeline.set_l2_touch_log(on);
        if !on {
            self.l2_touches.clear();
        }
    }

    /// Drains the logged L2 touch cycles, stamped on the unified clock.
    /// A touch stamped `u` belongs to the step that advanced the core
    /// from cycle `u - 1` to `u`. Complete at any point, mid-program
    /// too: touches the pipeline logged since the last mode switch are
    /// still on its own clock, which trails the unified one by the
    /// cycles spent outside the pipeline so far.
    pub fn take_l2_touch_cycles(&mut self) -> Vec<u64> {
        let offset = self.extra_cycles;
        let pending = self.pipeline.take_l2_touches();
        self.l2_touches.extend(pending.into_iter().map(|t| t + offset));
        std::mem::take(&mut self.l2_touches)
    }

    /// Cycles until this core next does something an SoC scheduler must
    /// observe: `None` once halted (the core will never act again),
    /// the remaining busy-region length in BNN mode (pure countdown —
    /// no memory traffic, no events until it ends), and `1` in CPU mode,
    /// where any cycle may touch shared state. An event-driven scheduler
    /// may therefore sleep this core for exactly the returned number of
    /// cycles without missing an observable action.
    pub fn next_event_in(&self) -> Option<u64> {
        if self.pipeline.is_halted() {
            None
        } else if self.busy_remaining > 0 {
            Some(self.busy_remaining)
        } else {
            Some(1)
        }
    }

    /// Captures the [`ReplayState`] of this core (see its docs for what
    /// is and is not included).
    pub fn replay_state(&self) -> ReplayState {
        ReplayState {
            regs: *self.pipeline.regs(),
            transition: self.transition,
            pending_triggers: self.pending_triggers,
            busy_remaining: self.busy_remaining,
            banks: self
                .pipeline
                .mem()
                .accel()
                .banks()
                .iter()
                .map(|(_, bank)| (bank.is_enabled(), bank.snapshot()))
                .collect(),
        }
    }

    /// Whether this core is in `state`, compared in place: exactly
    /// `self.replay_state() == *state`, without copying a bank, and
    /// without comparing the bytes of a bank that still holds the copy
    /// `state` captured.
    pub fn matches_replay_state(&self, state: &ReplayState) -> bool {
        let banks = self.pipeline.mem().accel().banks();
        self.matches_replay_registers(state)
            && banks.bank_count() == state.banks.len()
            && banks.iter().zip(&state.banks).all(|((_, bank), (enabled, bytes))| {
                bank.is_enabled() == *enabled && bank.holds(bytes)
            })
    }

    /// Whether this core's registers, transition neurons, pending
    /// triggers and busy countdown equal `state`'s — the part of
    /// [`matches_replay_state`](Self::matches_replay_state) that is not
    /// bank contents.
    pub fn matches_replay_registers(&self, state: &ReplayState) -> bool {
        *self.pipeline.regs() == state.regs
            && self.transition == state.transition
            && self.pending_triggers == state.pending_triggers
            && self.busy_remaining == state.busy_remaining
    }

    /// The accelerator banks' summed write generation
    /// ([`SramBank::generation`](ncpu_sim::SramBank::generation)). Bank
    /// generations only grow, so an unchanged sum means no bank was
    /// written, loaded or (un)gated in between: bank contents known to
    /// equal a [`ReplayState`]'s then still do.
    pub fn bank_generation(&self) -> u64 {
        self.pipeline.mem().accel().banks().iter().map(|(_, bank)| bank.generation()).sum()
    }

    /// Restores a captured [`ReplayState`]. Bank contents are restored
    /// with uncounted bulk loads so access counters keep their replay
    /// deltas (applied separately via [`apply_replay`](Self::apply_replay)).
    /// A bank that still holds its captured contents and enable flag is
    /// left alone, so its [`generation`](Self::bank_generation) and the
    /// snapshot it shares with `state` survive: restoring after a run
    /// copies back only the banks that run wrote.
    ///
    /// # Panics
    ///
    /// Panics if `state` was captured on a core with a different bank
    /// layout.
    pub fn restore_replay_state(&mut self, state: &ReplayState) {
        *self.pipeline.regs_mut() = state.regs;
        self.transition = state.transition;
        self.pending_triggers = state.pending_triggers;
        self.busy_remaining = state.busy_remaining;
        let banks = self.pipeline.mem_mut().accel_mut().banks_mut();
        assert_eq!(banks.bank_count(), state.banks.len(), "bank layout mismatch");
        for ((_, bank), (enabled, bytes)) in banks.iter_mut().zip(&state.banks) {
            if bank.is_enabled() != *enabled {
                bank.set_enabled(*enabled);
            }
            if !bank.holds(bytes) {
                bank.load(0, bytes);
            }
        }
    }

    /// Advances the monotonic counters and the unified clock as if the
    /// execution that produced `delta` had been simulated again, without
    /// simulating it. The caller restores the architectural end state via
    /// [`restore_replay_state`](Self::restore_replay_state) and replays
    /// the recorded events itself; afterwards the core is byte-identical
    /// (in everything the SoC layer observes) to a core that executed
    /// the item.
    pub fn apply_replay(&mut self, delta: &ReplayDelta) {
        self.pipeline.apply_replay_stats(&delta.pipe);
        self.stats.switches += delta.core.switches;
        self.stats.images_inferred += delta.core.images_inferred;
        self.stats.bnn_cycles += delta.core.bnn_cycles;
        self.stats.switch_overhead_cycles += delta.core.switch_overhead_cycles;
        self.extra_cycles += delta.extra_cycles;
        // A completed execution always ends with `span_start` caught up
        // to the clock (see `run`'s tail).
        self.span_start = self.total_cycles();
    }

    /// Runs until `ebreak` retires, serving every mode switch on the way.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on pipeline faults, invalid BNN configuration,
    /// or cycle-budget exhaustion.
    pub fn run(&mut self, max_cycles: u64) -> Result<(), CoreError> {
        let deadline = self.total_cycles() + max_cycles;
        while !self.pipeline.is_halted() {
            if self.total_cycles() >= deadline {
                return Err(CoreError::CycleLimit { limit: max_cycles });
            }
            if let Some(event) = self.pipeline.step()? {
                match event {
                    Event::MvNeu { value, neuron } if (neuron as usize) < TRANSITION_NEURONS => {
                        self.transition[neuron as usize] = value;
                    }
                    Event::MvNeu { .. } => {}
                    Event::TransBnn => {
                        let stall = self.serve_bnn()?;
                        self.extra_cycles += stall;
                        self.span_start = self.total_cycles();
                        self.pipeline.resume();
                    }
                    Event::TransCpu => {
                        // Already in CPU mode: architecturally a no-op, but
                        // the serializing semantics parked fetch.
                        self.pipeline.resume();
                    }
                    Event::TriggerBnn => self.pending_triggers += 1,
                    Event::Halted => break,
                    _ => {}
                }
            }
        }
        let now = self.total_cycles();
        if now > self.span_start {
            self.obs.phase(0, "cpu", self.span_start, now);
            self.span_start = now;
        }
        self.sync_pipeline_obs();
        Ok(())
    }

    /// Runs the loaded program to `ebreak` without timing — the
    /// functional twin of [`run`](Self::run). Registers, transition
    /// neurons, pending triggers, bank contents (BNN results included)
    /// and shared-L2 writes end exactly as `run` leaves them, and the
    /// accelerator runs only its data half (see `serve_bnn`).
    ///
    /// Of the counters it advances exactly what those data accesses
    /// advance: each SRAM bank's read and write counts and write
    /// generation (every local load and store, and a batch's output
    /// writes), the accelerator's activity counters
    /// ([`Accelerator::stats`]) and the shared L2's access counts (every
    /// `sw_l2`). The clock, [`CoreStats`], pipeline counters, recorder
    /// shards and L2 touch log are not touched.
    ///
    /// Each `trans_bnn`'s image count is appended to `path` after the
    /// pipeline's own entries (see [`PathLog`]), which makes the log the
    /// whole data-dependent input to `run`'s timing.
    ///
    /// Returns `Ok(None)` without executing an `lw_l2`: what it reads may
    /// depend on other cores, so the item needs a timed run. Otherwise
    /// returns the instructions retired.
    ///
    /// # Errors
    ///
    /// The [`CoreError`] a timed run of the same path raises, except that
    /// the budget counts instructions: [`CoreError::CycleLimit`] once
    /// `max_instructions` retire without a halt. Every instruction takes
    /// at least one cycle, so a program that halts within
    /// `max_instructions` cycles under [`run`](Self::run) halts here too.
    pub fn run_functional(
        &mut self,
        max_instructions: u64,
        path: &mut PathLog,
    ) -> Result<Option<u64>, CoreError> {
        let mut retired = 0;
        loop {
            let (stop, n) = self.pipeline.run_functional(max_instructions - retired, path)?;
            retired += n;
            match stop {
                FunctionalStop::Event(Event::MvNeu { value, neuron })
                    if (neuron as usize) < TRANSITION_NEURONS =>
                {
                    self.transition[neuron as usize] = value;
                }
                FunctionalStop::Event(Event::TransBnn) => {
                    let (images, _) = self.bnn_data()?;
                    path.push_value(images as u32);
                }
                FunctionalStop::Event(Event::TriggerBnn) => self.pending_triggers += 1,
                FunctionalStop::Event(Event::Halted) => return Ok(Some(retired)),
                FunctionalStop::Event(_) => {}
                FunctionalStop::L2Read => return Ok(None),
                FunctionalStop::Budget => {
                    return Err(CoreError::CycleLimit { limit: max_instructions })
                }
            }
        }
    }

    /// The data half of a `trans_bnn`: classify the configured number of
    /// images sitting in the image memory and write the classes to the
    /// output memory. Returns the image count and the batch's BNN cycles,
    /// which depend only on that count, the model's shape and the
    /// accelerator configuration. Shared by the timed and the functional
    /// runs.
    fn bnn_data(&mut self) -> Result<(usize, u64), CoreError> {
        let images = (self.transition[0].max(1)) as usize;
        let stride = self.image_stride();
        let input_bits = self.accel().model().topology().input();
        let image_bytes = self.accel().config().banks.image;
        let capacity = image_bytes / stride;
        if images > capacity {
            return Err(CoreError::ImageCapacity { images, capacity });
        }

        // Read packed images straight out of the image bank — the data the
        // CPU program just wrote, in place.
        let image_base = self.image_base();
        let output_base = self.output_base();
        let mem = self.pipeline.mem_mut();
        let (bank_id, base_off) = mem
            .accel_mut()
            .banks_mut()
            .resolve(image_base)
            .expect("image bank is always mapped");
        let inputs: Vec<BitVec> = {
            let bytes = mem.accel().banks().bank(bank_id).bytes();
            (0..images)
                .map(|i| {
                    let off = base_off as usize + i * stride;
                    BitVec::from_bytes(&bytes[off..off + stride], input_bits)
                })
                .collect()
        };

        let run = mem.accel_mut().run_batch(&inputs);

        // Results land in the output memory for CPU post-processing.
        for (i, &class) in run.outputs.iter().enumerate() {
            mem.accel_mut()
                .banks_mut()
                .write(output_base + 4 * i as u32, 4, class as u32)
                .expect("output bank holds one word per image");
        }
        Ok((images, run.total_cycles))
    }

    /// Serves one `trans_bnn` in a timed run: the data half
    /// ([`bnn_data`](Self::bnn_data)), then the accounting half — the
    /// CPU, switch and BNN spans, the mode-switch and inference events,
    /// and the core counters. Returns the stall cycles the
    /// reconfiguration + inference occupy; the caller decides whether to
    /// charge them at once ([`run`](Self::run)) or count them down
    /// ([`step_one`](Self::step_one)).
    fn serve_bnn(&mut self) -> Result<u64, CoreError> {
        let (images, bnn_cycles) = self.bnn_data()?;

        // Close the CPU span and pull the pipeline's events onto the
        // unified clock while `extra_cycles` still matches their epoch.
        self.sync_pipeline_obs();
        let switch_at = self.total_cycles();
        if switch_at > self.span_start {
            self.obs.phase(0, "cpu", self.span_start, switch_at);
        }

        // Naive policy: reload every packed weight before inference, one
        // DMA transfer at the configured fabric operating point.
        let switch_in = match self.policy {
            SwitchPolicy::ZeroLatency => 0,
            SwitchPolicy::Naive => {
                self.switch_dma.transfer_cycles(self.accel().packed_weight_bytes() as u64)
            }
        };
        if switch_in > 0 {
            self.obs.phase(0, "switch", switch_at, switch_at + switch_in);
        }

        let bnn_start = switch_at + switch_in;
        let bnn_end = bnn_start + bnn_cycles;
        if self.obs.wants_events() {
            self.obs.emit(0, bnn_start, ObsEvent::ModeSwitch { to: Mode::Bnn });
        }
        self.obs.phase(0, "bnn", bnn_start, bnn_end);
        self.obs.emit(
            0,
            bnn_start,
            ObsEvent::Inference { images: images as u32, end: bnn_end },
        );

        // Switch back: naive policy reloads the data cache.
        let switch_back = match self.policy {
            SwitchPolicy::ZeroLatency => 0,
            SwitchPolicy::Naive => self.switch_dma.transfer_cycles(NAIVE_DCACHE_PRELOAD_BYTES),
        };
        if switch_back > 0 {
            self.obs.phase(0, "switch", bnn_end, bnn_end + switch_back);
        }
        if self.obs.wants_events() {
            self.obs.emit(0, bnn_end + switch_back, ObsEvent::ModeSwitch { to: Mode::Cpu });
        }

        self.stats.switches += 1;
        self.stats.images_inferred += images as u64;
        self.stats.bnn_cycles += bnn_cycles;
        self.stats.switch_overhead_cycles += switch_in + switch_back;
        Ok(switch_in + bnn_cycles + switch_back)
    }

    /// Advances the core by exactly one cycle — the lock-step interface the
    /// co-simulated SoC uses. CPU-mode cycles step the pipeline; BNN-mode
    /// cycles count down the inference the `trans_bnn` started.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on pipeline faults or invalid BNN
    /// configuration.
    pub fn step_one(&mut self) -> Result<StepOutcome, CoreError> {
        if self.pipeline.is_halted() {
            return Ok(StepOutcome::Halted);
        }
        if self.busy_remaining > 0 {
            self.busy_remaining -= 1;
            self.extra_cycles += 1;
            if self.busy_remaining == 0 {
                self.span_start = self.total_cycles();
                self.pipeline.resume();
            }
            return Ok(StepOutcome::BnnBusy { remaining: self.busy_remaining });
        }
        self.cpu_cycle()
    }

    /// One CPU-mode cycle of a core that is neither halted nor in a BNN
    /// busy region: the body [`step_one`](Self::step_one) and
    /// [`step_n`](Self::step_n) share.
    fn cpu_cycle(&mut self) -> Result<StepOutcome, CoreError> {
        if let Some(event) = self.pipeline.step()? {
            match event {
                Event::MvNeu { value, neuron } if (neuron as usize) < TRANSITION_NEURONS => {
                    self.transition[neuron as usize] = value;
                }
                Event::MvNeu { .. } => {}
                Event::TransBnn => {
                    let stall = self.serve_bnn()?;
                    if stall == 0 {
                        self.span_start = self.total_cycles();
                        self.pipeline.resume();
                    } else {
                        self.busy_remaining = stall;
                    }
                    return Ok(StepOutcome::BnnBusy { remaining: self.busy_remaining });
                }
                Event::TransCpu => self.pipeline.resume(),
                Event::TriggerBnn => self.pending_triggers += 1,
                Event::Halted => {
                    let now = self.total_cycles();
                    if now > self.span_start {
                        self.obs.phase(0, "cpu", self.span_start, now);
                        self.span_start = now;
                    }
                    self.sync_pipeline_obs();
                    return Ok(StepOutcome::Halted);
                }
                _ => {}
            }
        }
        Ok(StepOutcome::Executing)
    }

    /// Advances the core by up to `n` cycles in one call.
    ///
    /// Inside a BNN busy region this consumes `min(budget, remaining)`
    /// cycles with a single bookkeeping update instead of a per-cycle
    /// loop; the resulting state (cycle counts, spans, stats, pipeline)
    /// is byte-identical to calling [`step_one`](Self::step_one) that
    /// many times, because busy cycles decrement a counter and do
    /// nothing else. CPU-mode cycles step one at a time, so the call
    /// crosses region boundaries — CPU stretch into busy region and back
    /// — until the budget is spent or the core halts.
    ///
    /// A busy region that ends exactly on the budget boundary consumes
    /// exactly the budget: the final countdown cycle is not followed by
    /// an extra pipeline step (an earlier revision double-counted here
    /// by unconditionally falling through to `step_one`; the
    /// `budget_boundary_*` regression tests pin the fix).
    ///
    /// Returns the outcome after the advance and the cycles actually
    /// consumed (0 when already halted, `1..=n` otherwise — fewer than
    /// `n` only when the core halts mid-budget).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on pipeline faults or invalid BNN
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn step_n(&mut self, n: u64) -> Result<(StepOutcome, u64), CoreError> {
        assert!(n > 0, "step_n of zero cycles");
        // Only a retiring `ebreak` halts the pipeline, and that cycle
        // reports `Halted` and ends the loop: halt is checked once here.
        if self.pipeline.is_halted() {
            return Ok((StepOutcome::Halted, 0));
        }
        let mut consumed = 0u64;
        let mut outcome = StepOutcome::Executing;
        while consumed < n {
            if self.busy_remaining > 0 {
                let k = (n - consumed).min(self.busy_remaining);
                self.busy_remaining -= k;
                self.extra_cycles += k;
                consumed += k;
                if self.busy_remaining == 0 {
                    self.span_start = self.total_cycles();
                    self.pipeline.resume();
                }
                outcome = StepOutcome::BnnBusy { remaining: self.busy_remaining };
            } else {
                outcome = self.cpu_cycle()?;
                consumed += 1;
                if matches!(outcome, StepOutcome::Halted) {
                    break;
                }
            }
        }
        Ok((outcome, consumed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncpu_bnn::Topology;
    use ncpu_isa::{asm, Reg};

    fn small_model() -> BnnModel {
        // Pseudo-random deterministic weights over a 32-bit input.
        let topo = Topology::new(32, vec![8, 8], 4);
        let mut layers = Vec::new();
        for l in 0..2 {
            let inputs = topo.layer_input(l);
            let rows: Vec<BitVec> = (0..8)
                .map(|j| BitVec::from_bools((0..inputs).map(|i| (i * 3 + j + l) % 4 < 2)))
                .collect();
            layers.push(ncpu_bnn::BnnLayer::new(rows, vec![0; 8]));
        }
        BnnModel::new(topo, layers)
    }

    fn classify_program(core: &NcpuCore, image_word: u32, images: u32) -> Vec<u32> {
        asm::assemble(&format!(
            "li t0, {img}
             li t1, {image_word}
             sw t1, 0(t0)
             li t2, {images}
             mv_neu t2, 0
             trans_bnn
             li t3, {out}
             lw a0, 0(t3)
             ebreak",
            img = core.image_base(),
            out = core.output_base(),
        ))
        .expect("valid program")
    }

    #[test]
    fn end_to_end_classification_matches_reference() {
        let model = small_model();
        let mut core = NcpuCore::new(model.clone(), AccelConfig::default(), SwitchPolicy::ZeroLatency);
        let image_word = 0x0f0f_0f0fu32;
        let program = classify_program(&core, image_word, 1);
        core.load_program(program);
        core.run(1_000_000).unwrap();
        let expect = model.classify(&BitVec::from_bytes(&image_word.to_le_bytes(), 32));
        assert_eq!(core.pipeline().reg(Reg::A0), expect as u32);
        assert_eq!(core.stats().switches, 1);
        assert_eq!(core.stats().images_inferred, 1);
    }

    #[test]
    fn zero_latency_switch_has_no_overhead() {
        let mut core =
            NcpuCore::new(small_model(), AccelConfig::default(), SwitchPolicy::ZeroLatency);
        let program = classify_program(&core, 0x1234_5678, 1);
        core.load_program(program);
        core.run(1_000_000).unwrap();
        assert_eq!(core.stats().switch_overhead_cycles, 0);
    }

    #[test]
    fn naive_switch_pays_weight_reload() {
        let mk = |policy| {
            let mut core = NcpuCore::new(small_model(), AccelConfig::default(), policy);
            let program = classify_program(&core, 0x1234_5678, 1);
            core.load_program(program);
            core.run(10_000_000).unwrap();
            core
        };
        let zero = mk(SwitchPolicy::ZeroLatency);
        let naive = mk(SwitchPolicy::Naive);
        assert!(naive.stats().switch_overhead_cycles > 0);
        assert_eq!(
            naive.total_cycles() - zero.total_cycles(),
            naive.stats().switch_overhead_cycles,
            "identical except for the reconfiguration stalls"
        );
        assert_eq!(
            zero.pipeline().reg(Reg::A0),
            naive.pipeline().reg(Reg::A0),
            "policy never changes results"
        );
    }

    #[test]
    fn naive_switch_cost_tracks_dma_parameters() {
        let mk = |dma| {
            let mut core =
                NcpuCore::new(small_model(), AccelConfig::default(), SwitchPolicy::Naive);
            core.set_switch_dma(dma);
            let program = classify_program(&core, 0x1234_5678, 1);
            core.load_program(program);
            core.run(10_000_000).unwrap();
            core
        };
        let narrow = mk(SwitchDma { bytes_per_cycle: 4, setup_cycles: 16 });
        let wide = mk(SwitchDma { bytes_per_cycle: 32, setup_cycles: 4 });
        assert!(
            wide.stats().switch_overhead_cycles < narrow.stats().switch_overhead_cycles,
            "a wider, cheaper DMA must shrink the naive reload stall"
        );
        // The charged stall is exactly two transfers at the configured
        // operating point: weights in, data cache back.
        let bytes = narrow.accel().packed_weight_bytes() as u64;
        for core in [&narrow, &wide] {
            let dma = core.switch_dma();
            assert_eq!(
                core.stats().switch_overhead_cycles,
                dma.transfer_cycles(bytes) + dma.transfer_cycles(1024)
            );
        }
    }

    #[test]
    fn timeline_alternates_modes() {
        let mut core =
            NcpuCore::new(small_model(), AccelConfig::default(), SwitchPolicy::ZeroLatency);
        let program = classify_program(&core, 7, 1);
        core.load_program(program);
        core.run(1_000_000).unwrap();
        let timeline = core.timeline();
        let labels: Vec<&str> = timeline.spans().iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["cpu", "bnn", "cpu"]);
        assert_eq!(timeline.total_cycles(), core.total_cycles());
    }

    #[test]
    fn transition_neurons_configure_batch() {
        let model = small_model();
        let mut core = NcpuCore::new(model.clone(), AccelConfig::default(), SwitchPolicy::ZeroLatency);
        // Two images written at stride 4.
        let program = asm::assemble(&format!(
            "li t0, {img}
             li t1, 0x0f0f0f0f
             sw t1, 0(t0)
             li t1, 0xf0f0f0f0
             sw t1, 4(t0)
             li t2, 2
             mv_neu t2, 0
             trans_bnn
             li t3, {out}
             lw a0, 0(t3)
             lw a1, 4(t3)
             ebreak",
            img = core.image_base(),
            out = core.output_base(),
        ))
        .unwrap();
        core.load_program(program);
        core.run(1_000_000).unwrap();
        assert_eq!(core.transition_neuron(0), 2);
        assert_eq!(core.stats().images_inferred, 2);
        let a = model.classify(&BitVec::from_bytes(&0x0f0f_0f0fu32.to_le_bytes(), 32));
        let b = model.classify(&BitVec::from_bytes(&0xf0f0_f0f0u32.to_le_bytes(), 32));
        assert_eq!(core.pipeline().reg(Reg::A0), a as u32);
        assert_eq!(core.pipeline().reg(Reg::A1), b as u32);
    }

    #[test]
    fn full_trace_unifies_pipeline_and_mode_events() {
        let mut core =
            NcpuCore::new(small_model(), AccelConfig::default(), SwitchPolicy::Naive);
        core.set_obs_level(ncpu_obs::TraceLevel::Full);
        let program = classify_program(&core, 7, 1);
        core.load_program(program);
        core.run(10_000_000).unwrap();
        let events = core.obs().events();
        // Mode switches bracket the BNN phase.
        let switches: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                ObsEvent::ModeSwitch { to } => Some((to, e.cycle)),
                _ => None,
            })
            .collect();
        assert_eq!(switches.len(), 2);
        assert_eq!(switches[0].0, Mode::Bnn);
        assert_eq!(switches[1].0, Mode::Cpu);
        assert!(switches[0].1 < switches[1].1);
        // Pipeline retirements were re-based onto the unified clock: every
        // event must land inside the run.
        let retires: Vec<u64> = events
            .iter()
            .filter_map(|e| match e.kind {
                ObsEvent::Retire { .. } => Some(e.cycle),
                _ => None,
            })
            .collect();
        assert_eq!(retires.len() as u64, core.pipeline().stats().retired);
        assert!(retires.iter().all(|&c| c <= core.total_cycles()));
        // Retirements after the switch carry the BNN offset, so the last
        // one must land after the BNN phase ended.
        let timeline = core.timeline();
        let bnn_end = timeline.spans().iter().find(|s| s.label == "bnn").unwrap().end;
        assert!(*retires.last().unwrap() > bnn_end);
    }

    #[test]
    fn image_capacity_checked() {
        let mut core =
            NcpuCore::new(small_model(), AccelConfig::default(), SwitchPolicy::ZeroLatency);
        let program = asm::assemble(
            "li t2, 100000
             mv_neu t2, 0
             trans_bnn
             ebreak",
        )
        .unwrap();
        core.load_program(program);
        let err = core.run(1_000_000).unwrap_err();
        assert!(matches!(err, CoreError::ImageCapacity { .. }));
    }

    #[test]
    fn cycle_budget_enforced() {
        let mut core =
            NcpuCore::new(small_model(), AccelConfig::default(), SwitchPolicy::ZeroLatency);
        core.load_program(asm::assemble("loop: j loop").unwrap());
        assert!(matches!(core.run(100), Err(CoreError::CycleLimit { .. })));
    }

    #[test]
    fn data_stays_local_across_modes() {
        // Write a marker into the W2 bank (data cache in CPU mode), switch
        // modes, and confirm it survived — nothing was transferred or
        // clobbered.
        let mut core =
            NcpuCore::new(small_model(), AccelConfig::default(), SwitchPolicy::ZeroLatency);
        let w2_base = AccelConfig::default().banks.w1 as u32;
        let program = asm::assemble(&format!(
            "li t0, {w2}
             li t1, 0xcafe
             sw t1, 256(t0)
             li t2, 1
             mv_neu t2, 0
             trans_bnn
             lw a0, 256(t0)
             ebreak",
            w2 = w2_base,
        ))
        .unwrap();
        core.load_program(program);
        core.run(1_000_000).unwrap();
        assert_eq!(core.pipeline().reg(Reg::A0), 0xcafe);
    }
}

#[cfg(test)]
mod step_tests {
    use super::*;
    use ncpu_bnn::Topology;
    use ncpu_isa::{asm, Reg};

    fn small_model() -> BnnModel {
        let topo = Topology::new(32, vec![8, 8], 4);
        let mut layers = Vec::new();
        for l in 0..2 {
            let inputs = topo.layer_input(l);
            let rows: Vec<BitVec> = (0..8)
                .map(|j| BitVec::from_bools((0..inputs).map(|i| (i * 3 + j + l) % 4 < 2)))
                .collect();
            layers.push(ncpu_bnn::BnnLayer::new(rows, vec![0; 8]));
        }
        BnnModel::new(topo, layers)
    }

    fn program(core: &NcpuCore) -> Vec<u32> {
        asm::assemble(&format!(
            "li t0, {img}
             li t1, 0xa5a5a5a5
             sw t1, 0(t0)
             li t2, 1
             mv_neu t2, 0
             trans_bnn
             li t3, {out}
             lw a0, 0(t3)
             ebreak",
            img = core.image_base(),
            out = core.output_base(),
        ))
        .expect("valid program")
    }

    /// `step_one` must reach exactly the same architectural state and
    /// unified cycle count as `run`.
    #[test]
    fn step_one_is_equivalent_to_run() {
        let mk = || {
            let mut c = NcpuCore::new(
                small_model(),
                ncpu_accel::AccelConfig::default(),
                SwitchPolicy::ZeroLatency,
            );
            let p = program(&c);
            c.load_program(p);
            c
        };
        let mut atomic = mk();
        atomic.run(1_000_000).unwrap();

        let mut stepped = mk();
        let mut saw_busy = false;
        loop {
            match stepped.step_one().unwrap() {
                StepOutcome::Halted => break,
                StepOutcome::BnnBusy { .. } => saw_busy = true,
                StepOutcome::Executing => {}
            }
        }
        assert!(saw_busy, "the mode switch must surface as busy cycles");
        assert_eq!(stepped.total_cycles(), atomic.total_cycles());
        assert_eq!(
            stepped.pipeline().reg(Reg::A0),
            atomic.pipeline().reg(Reg::A0)
        );
        assert_eq!(stepped.stats(), atomic.stats());
        assert_eq!(
            stepped.timeline().spans(),
            atomic.timeline().spans(),
            "mode timelines must agree"
        );
    }

    /// `step_n` is a bulk fast-forward: driving the core with large jumps
    /// must land in exactly the state a cycle-by-cycle `step_one` loop
    /// reaches — same clock, registers, stats, and mode timeline.
    #[test]
    fn step_n_is_equivalent_to_step_one() {
        let mk = || {
            let mut c = NcpuCore::new(
                small_model(),
                ncpu_accel::AccelConfig::default(),
                SwitchPolicy::Naive, // nonzero switch cost ⇒ long busy regions
            );
            let p = program(&c);
            c.load_program(p);
            c
        };
        let mut single = mk();
        loop {
            if matches!(single.step_one().unwrap(), StepOutcome::Halted) {
                break;
            }
        }
        for jump in [2u64, 7, 1_000_000] {
            let mut bulk = mk();
            let mut consumed = 0u64;
            loop {
                let (outcome, k) = bulk.step_n(jump).unwrap();
                consumed += k;
                if matches!(outcome, StepOutcome::Halted) {
                    break;
                }
            }
            assert_eq!(bulk.total_cycles(), single.total_cycles(), "jump={jump}");
            assert_eq!(consumed, bulk.total_cycles(), "every cycle accounted, jump={jump}");
            assert_eq!(bulk.pipeline().reg(Reg::A0), single.pipeline().reg(Reg::A0));
            assert_eq!(bulk.stats(), single.stats());
            assert_eq!(bulk.timeline().spans(), single.timeline().spans());
        }
    }

    /// Regression: a busy region ending exactly on the `step_n` budget
    /// boundary must consume exactly the budget — not fall through to an
    /// extra pipeline step that double-counts the final cycle.
    #[test]
    fn budget_boundary_consumes_exactly_the_region() {
        let mut core = NcpuCore::new(
            small_model(),
            ncpu_accel::AccelConfig::default(),
            SwitchPolicy::Naive, // nonzero switch cost ⇒ long busy region
        );
        let p = program(&core);
        core.load_program(p);
        // Step up to the trans_bnn service.
        let remaining = loop {
            if let StepOutcome::BnnBusy { remaining } = core.step_one().unwrap() {
                break remaining;
            }
        };
        assert!(remaining > 1, "naive switch must cost cycles");
        let before = core.total_cycles();
        let (outcome, consumed) = core.step_n(remaining).unwrap();
        assert_eq!(consumed, remaining, "budget == region length");
        assert_eq!(outcome, StepOutcome::BnnBusy { remaining: 0 });
        assert_eq!(core.total_cycles(), before + remaining, "no double-counted cycle");
        // The pipeline itself did not advance past the region.
        assert!(!core.pipeline().is_halted());
        assert_eq!(core.step_one().unwrap(), StepOutcome::Executing);
    }

    /// `step_n` crosses region boundaries: one big budget drives the
    /// whole program, and the halt stops consumption mid-budget.
    #[test]
    fn budget_boundary_crosses_regions_and_stops_at_halt() {
        let mk = || {
            let mut c = NcpuCore::new(
                small_model(),
                ncpu_accel::AccelConfig::default(),
                SwitchPolicy::Naive,
            );
            let p = program(&c);
            c.load_program(p);
            c
        };
        let mut single = mk();
        while !matches!(single.step_one().unwrap(), StepOutcome::Halted) {}
        let mut bulk = mk();
        let (outcome, consumed) = bulk.step_n(u64::MAX).unwrap();
        assert_eq!(outcome, StepOutcome::Halted);
        assert_eq!(consumed, single.total_cycles(), "halt stops the budget");
        assert_eq!(bulk.total_cycles(), single.total_cycles());
        assert_eq!(bulk.stats(), single.stats());
        assert_eq!(bulk.timeline().spans(), single.timeline().spans());
        // Parked: further budget consumes nothing.
        assert_eq!(bulk.step_n(10).unwrap(), (StepOutcome::Halted, 0));
    }

    /// `next_event_in` reports the exact sleep distance: 1 in CPU mode,
    /// the busy-region remainder in BNN mode, `None` at halt.
    #[test]
    fn next_event_in_tracks_mode() {
        let mut core = NcpuCore::new(
            small_model(),
            ncpu_accel::AccelConfig::default(),
            SwitchPolicy::Naive,
        );
        let p = program(&core);
        core.load_program(p);
        assert_eq!(core.next_event_in(), Some(1), "CPU mode steps every cycle");
        let remaining = loop {
            if let StepOutcome::BnnBusy { remaining } = core.step_one().unwrap() {
                break remaining;
            }
            assert_eq!(core.next_event_in(), Some(1));
        };
        assert_eq!(core.next_event_in(), Some(remaining));
        // Sleeping exactly that long lands on the region end, no further.
        let (_, consumed) = core.step_n(remaining).unwrap();
        assert_eq!(consumed, remaining);
        assert_eq!(core.next_event_in(), Some(1), "back in CPU mode");
        while !matches!(core.step_one().unwrap(), StepOutcome::Halted) {}
        assert_eq!(core.next_event_in(), None, "halted cores never act");
    }

    /// Stepping past halt stays halted without advancing the clock.
    #[test]
    fn step_one_parks_at_halt() {
        let mut core = NcpuCore::new(
            small_model(),
            ncpu_accel::AccelConfig::default(),
            SwitchPolicy::ZeroLatency,
        );
        core.load_program(asm::assemble("ebreak").unwrap());
        while !matches!(core.step_one().unwrap(), StepOutcome::Halted) {}
        let at = core.total_cycles();
        assert_eq!(core.step_one().unwrap(), StepOutcome::Halted);
        assert_eq!(core.total_cycles(), at);
    }
}
