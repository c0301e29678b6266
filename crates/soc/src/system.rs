//! The system descriptions and the heterogeneous baseline's scheduler.
//!
//! Everything the run paths share — program construction, result
//! mailboxes, DMA staging, cycle budgets, report assembly — lives in
//! [`crate::fabric`]. Every [`crate::Engine`] runs a
//! [`SystemConfig::Heterogeneous`] scenario on [`run_heterogeneous`].

use ncpu_accel::Accelerator;
use ncpu_bnn::BitVec;
use ncpu_core::SwitchPolicy;
use ncpu_isa::interp::Event;
use ncpu_obs::{Recorder, TraceLevel};
use ncpu_pipeline::{FlatMem, Pipeline};
use ncpu_sim::stats::Timeline;

use ncpu_workloads::Tail;

use crate::fabric;
use crate::report::{CoreReport, RunReport};
use crate::topology::Topology;
use crate::usecase::UseCase;

/// Shared-fabric parameters of the SoC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocConfig {
    /// DMA bandwidth in bytes per cycle.
    pub dma_bytes_per_cycle: u32,
    /// DMA per-transfer setup latency in cycles.
    pub dma_setup_cycles: u64,
    /// NCPU mode-switch policy (the ablation flips this to `Naive`).
    pub switch_policy: SwitchPolicy,
    /// Whether the accelerator pipelines layers across images (ablation).
    pub layer_pipelining: bool,
}

impl Default for SocConfig {
    fn default() -> SocConfig {
        SocConfig {
            dma_bytes_per_cycle: 4,
            dma_setup_cycles: 16,
            switch_policy: SwitchPolicy::ZeroLatency,
            layer_pipelining: true,
        }
    }
}

/// Which system runs the use case.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemConfig {
    /// Conventional heterogeneous pair: standalone CPU + BNN accelerator
    /// with DMA offload through the shared L2.
    Heterogeneous,
    /// A fleet of NCPU cores described by its [`Topology`] (the paper
    /// builds 1 and 2 identical reconfigurable cores; the schedulers
    /// accept any N ≥ 1 and any mix of roles).
    Ncpu(Topology),
}

impl SystemConfig {
    /// `n` identical reconfigurable cores: [`Topology::homogeneous`],
    /// which counts `0` as one core.
    pub fn ncpu(n: usize) -> SystemConfig {
        SystemConfig::Ncpu(Topology::homogeneous(n))
    }
}

/// The heterogeneous baseline: runs `usecase` on the standalone CPU and
/// BNN accelerator and returns the report together with the root
/// [`Recorder`] (the CPU and accelerator lanes, the DMA lane, the counter
/// registry, and at [`TraceLevel::Full`] per-cycle instant events). The
/// recorder always runs at `Counters` or above — report timelines are
/// derived from its span events. Every engine runs the baseline here; it
/// ignores the fault plan (the paper's reliability story is about the
/// NCPU's low-voltage SRAM operating points).
///
/// # Panics
///
/// Panics if a generated program faults — the programs are produced by
/// this workspace, so a fault is a bug, not an input condition.
pub(crate) fn run_heterogeneous(
    usecase: &UseCase,
    soc: &SocConfig,
    level: TraceLevel,
) -> (RunReport, Recorder) {
    let mut rec = Recorder::new(level.at_least_counters());
    let (program, pack_at) = fabric::item_program(usecase, None, Tail::Offload);
    let mut cpu = Pipeline::new(program, FlatMem::with_l2(16 * 1024, fabric::L2_BYTES));
    cpu.set_obs_level(level);
    let model = std::sync::Arc::clone(usecase.shared_model());
    let mut accel = Accelerator::new(model, fabric::accel_config(soc));
    // The batch runs on globally-stamped availability times, so the
    // accelerator's spans need no re-basing when absorbed below.
    accel.set_obs_level(level.at_least_counters());
    let mut dma = fabric::new_dma(soc, level);

    let input_bits = usecase.model().topology().input();
    let packed_bytes = input_bits.div_ceil(8);

    let mut t_cpu = 0u64;
    let mut cpu_busy = 0u64;
    let mut queued: Vec<(BitVec, u64)> = Vec::new();
    let mut dispatches: Vec<u64> = Vec::new();

    for item in usecase.items() {
        // The scheduler turns to this item as soon as the CPU frees up.
        dispatches.push(t_cpu);
        // Stage the raw item (same DMA the NCPU flow uses).
        let start = if item.staged.is_empty() {
            t_cpu
        } else {
            let delivered = dma.schedule(t_cpu, item.staged.len() as u32);
            cpu.mem_mut().local_mut()[..item.staged.len()].copy_from_slice(&item.staged);
            delivered
        };
        cpu.restart_at(0);
        let before = cpu.stats().cycles;
        // Pre-process + copy-out, up to the offload trigger…
        let ev = cpu.run_until_event(fabric::ITEM_BUDGET).expect("offload program runs");
        assert_eq!(ev, Event::TriggerBnn, "offload program must trigger the accelerator");
        let t_trigger = start + (cpu.stats().cycles - before);
        // …then drain to halt.
        cpu.resume();
        cpu.run(fabric::ITEM_BUDGET).expect("offload program halts");
        let used = cpu.stats().cycles - before;
        rec.phase(0, "cpu", start, start + used);
        rec.absorb(cpu.obs_mut(), 0, start as i64 - before as i64);
        cpu_busy += used;
        t_cpu = start + used;

        // DMA the packed input from the CPU's local memory through the L2
        // into the accelerator image memory (the conventional offload).
        let delivered = dma.schedule(t_trigger, packed_bytes as u32);
        let local = &cpu.mem().local()[pack_at as usize..];
        let input = BitVec::from_bytes(&local[..packed_bytes], input_bits);
        queued.push((input, delivered));
    }

    let batch = accel.run_batch_timed(&queued);
    rec.absorb(accel.obs_mut(), 1, 0);
    let makespan = t_cpu.max(batch.total_cycles);

    // Per-item metrics: an item is done when its accelerator traversal
    // finishes; it was in service from CPU pre-processing dispatch until
    // then, and `depth` counts the items queued behind it.
    let items = usecase.items().len();
    for (i, &(accel_start, accel_end)) in batch.spans.iter().enumerate() {
        let latency = accel_end - dispatches[i];
        let service = accel_end - accel_start;
        let depth = (items - 1 - i) as u64;
        fabric::record_item_metrics(&mut rec, latency, service, depth);
    }

    let ps = cpu.stats();
    rec.set_counter("cpu.cycles", ps.cycles);
    rec.set_counter("cpu.retired", ps.retired);
    rec.set_counter("cpu.stall.load_use", ps.load_use_stalls);
    rec.set_counter("cpu.stall.flush", ps.flush_cycles);
    rec.set_counter("cpu.stall.ex", ps.ex_stall_cycles);
    rec.set_counter("cpu.stall.mem", ps.mem_stall_cycles);
    let accel_stats = accel.stats();
    rec.set_counter("accel.images_inferred", accel_stats.images);
    rec.set_counter("accel.busy_cycles", accel_stats.busy_cycles);
    rec.set_counter("accel.macs", accel_stats.macs);
    fabric::snapshot_dma(&mut rec, &mut dma, 2);
    fabric::set_run_counters(&mut rec, makespan, usecase.items().len());
    fabric::record_util_metric(&mut rec, cpu_busy, makespan);
    fabric::record_util_metric(&mut rec, accel_stats.busy_cycles, makespan);

    let report = RunReport {
        config: "heterogeneous".to_string(),
        makespan,
        cores: vec![
            CoreReport {
                role: "cpu".to_string(),
                timeline: Timeline::from_obs_events(rec.spans(), 0),
                busy_cycles: cpu_busy,
            },
            CoreReport {
                role: "bnn-accel".to_string(),
                timeline: Timeline::from_obs_events(rec.spans(), 1),
                busy_cycles: accel_stats.busy_cycles,
            },
        ],
        predictions: batch.outputs,
        labels: usecase.items().iter().map(|i| i.label).collect(),
        metrics: rec.metrics().clone(),
    };
    (report, rec)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scenario::{Engine, EventDriven, Scenario};
    use crate::usecase::UseCase;

    pub(crate) use crate::usecase::pseudo_model;

    /// The default-fabric EventDriven report of `uc` under `system`.
    pub(crate) fn event_report(uc: &UseCase, system: SystemConfig) -> RunReport {
        EventDriven.report(&Scenario::new(uc.clone(), system))
    }

    #[test]
    fn parametric_two_ncpu_beats_baseline_per_paper_fig13() {
        let model = pseudo_model(784, 100, 10);
        for (fraction, expect) in [(0.4, 0.285), (0.7, 0.412)] {
            let uc = UseCase::parametric(fraction, 2, model.clone());
            let base = event_report(&uc, SystemConfig::Heterogeneous);
            let dual = event_report(&uc, SystemConfig::ncpu(2));
            let imp = dual.improvement_over(&base);
            assert!(
                (imp - expect).abs() < 0.06,
                "fraction {fraction}: improvement {imp:.3} vs paper {expect}"
            );
        }
    }

    #[test]
    fn predictions_agree_across_systems() {
        let model = pseudo_model(784, 20, 10);
        let uc = UseCase::parametric(0.5, 4, model);
        let a = event_report(&uc, SystemConfig::Heterogeneous);
        let b = event_report(&uc, SystemConfig::ncpu(1));
        let c = event_report(&uc, SystemConfig::ncpu(2));
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.predictions, c.predictions);
    }

    #[test]
    fn dual_ncpu_sustains_high_utilization() {
        let model = pseudo_model(784, 50, 10);
        let uc = UseCase::parametric(0.7, 8, model);
        let dual = event_report(&uc, SystemConfig::ncpu(2));
        for core in &dual.cores {
            assert!(
                core.utilization(dual.makespan) > 0.95,
                "{} utilization {:.3}",
                core.role,
                core.utilization(dual.makespan)
            );
        }
        let base = event_report(&uc, SystemConfig::Heterogeneous);
        let cpu_util = base.cores[0].utilization(base.makespan);
        let accel_util = base.cores[1].utilization(base.makespan);
        assert!(cpu_util > accel_util, "baseline accelerator must be under-utilized");
    }

    #[test]
    fn four_ncpu_cores_scale_the_parametric_sweep() {
        let model = pseudo_model(784, 50, 10);
        let uc = UseCase::parametric(0.7, 8, model);
        let two = event_report(&uc, SystemConfig::ncpu(2));
        let four = event_report(&uc, SystemConfig::ncpu(4));
        assert_eq!(two.predictions, four.predictions, "same answers at any width");
        assert_eq!(four.cores.len(), 4);
        // 8 items over 4 cores halve the 2-core makespan (modulo DMA
        // staging skew, which the parametric use case does not have).
        assert!(
            four.makespan < two.makespan,
            "4 cores {} vs 2 cores {}",
            four.makespan,
            two.makespan
        );
    }

    #[test]
    fn single_ncpu_is_modestly_slower_than_baseline() {
        let model = pseudo_model(784, 100, 10);
        let uc = UseCase::parametric(0.7, 2, model);
        let base = event_report(&uc, SystemConfig::Heterogeneous);
        let single = event_report(&uc, SystemConfig::ncpu(1));
        let delta = single.makespan as f64 / base.makespan as f64 - 1.0;
        // Paper Fig. 17: +13.8% for the image case at batch 2.
        assert!((0.0..0.35).contains(&delta), "single-NCPU delta {delta}");
    }

    #[test]
    fn traced_run_matches_plain_run_and_snapshots_counters() {
        let model = pseudo_model(784, 20, 10);
        let uc = UseCase::parametric(0.5, 2, model);
        let scenario =
            Scenario::new(uc.clone(), SystemConfig::ncpu(2)).with_trace(TraceLevel::Full);
        let (report, rec) = EventDriven.run(&scenario);
        assert_eq!(rec.counters().get("run.makespan_cycles"), report.makespan);
        assert_eq!(rec.counters().get("run.items"), 2);
        assert!(rec.counters().get("core0.retired") > 0);
        assert!(rec.counters().get("core1.cycles") > 0);
        assert!(
            rec.events()
                .iter()
                .any(|e| matches!(e.kind, ncpu_obs::EventKind::Retire { .. })),
            "Full level must carry retire instants"
        );
        // Report timelines are views over the same span stream.
        for (c, core) in report.cores.iter().enumerate() {
            let tl = Timeline::from_obs_events(rec.spans(), c as u16);
            assert_eq!(core.timeline.spans().len(), tl.spans().len());
            assert!(!core.timeline.spans().is_empty());
        }
        // Tracing must not perturb the simulation itself.
        let plain = event_report(&uc, SystemConfig::ncpu(2));
        assert_eq!(plain.makespan, report.makespan);
        assert_eq!(plain.predictions, report.predictions);
    }

    #[test]
    fn traced_heterogeneous_records_both_lanes_and_dma() {
        let model = pseudo_model(784, 20, 10);
        let uc = UseCase::parametric(0.5, 2, model);
        let (report, rec) = EventDriven.run(&Scenario::new(uc, SystemConfig::Heterogeneous));
        assert!(!report.cores[0].timeline.spans().is_empty(), "cpu lane");
        assert!(!report.cores[1].timeline.spans().is_empty(), "accel lane");
        assert!(rec.counters().get("cpu.retired") > 0);
        assert_eq!(rec.counters().get("accel.images_inferred"), 2);
        assert!(
            rec.spans()
                .iter()
                .any(|e| matches!(e.kind, ncpu_obs::EventKind::Dma { .. })),
            "offload DMA must appear on the trace"
        );
    }

    #[test]
    fn motion_use_case_end_to_end() {
        let uc = UseCase::motion(2, 6, 3);
        let base = event_report(&uc, SystemConfig::Heterogeneous);
        let dual = event_report(&uc, SystemConfig::ncpu(2));
        assert_eq!(base.predictions.len(), 2);
        assert_eq!(base.predictions, dual.predictions, "same classifier, same answers");
        assert!(dual.makespan < base.makespan, "two cores beat the baseline");
    }
}
