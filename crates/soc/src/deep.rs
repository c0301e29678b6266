//! Deeper networks than the physical array (paper Section VIII-A):
//! single-core layer rollback vs NCPU cores connected in series.
//!
//! "In our NCPU SoC, deeper BNN with more layers can be supported by
//! rolling back the BNN operation or connecting two cores in series."
//! Rollback re-uses one core's four physical layers for all logical
//! layers (half the throughput); series mode splits the network across
//! N cores so each image streams segment 0 → link → … → segment N−1.
//! The paper builds the two-core split; [`series`] generalizes it to any
//! segment count. [`run`] is every engine's body for a deep use case.

use std::fmt;

use ncpu_accel::{Accelerator, BatchRun};
use ncpu_bnn::{BitVec, BnnLayer, BnnModel, Topology};
use ncpu_fault::FaultPlan;
use ncpu_obs::{EventKind, Recorder, TraceLevel};

use ncpu_sim::stats::Timeline;

use crate::fabric;
use crate::report::{CoreReport, RunReport};
use crate::scenario::Scenario;
use crate::system::SocConfig;

/// Structured error for the deep series path — the conditions that used
/// to surface as `expect`/`assert` panics deep inside the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DeepError {
    /// The requested segment count is outside `2..=layers`.
    SegmentsOutOfRange {
        /// Requested segment count.
        segments: usize,
        /// Layers the model actually has.
        layers: usize,
    },
    /// An input image's width does not match the model's input layer.
    InputWidthMismatch {
        /// Index of the offending image.
        image: usize,
        /// The model's input width in bits.
        expected: usize,
        /// The image's width in bits.
        got: usize,
    },
    /// A series segment ended up with no layers, so it cannot produce
    /// link activations (defensive: unreachable for models built via
    /// [`ncpu_bnn::Topology::new`], which rejects empty layer lists).
    EmptySegment {
        /// Index of the offending segment.
        segment: usize,
    },
}

impl fmt::Display for DeepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeepError::SegmentsOutOfRange { segments, layers } => write!(
                f,
                "series mode needs 2..={layers} segments for a {layers}-layer model, got {segments}"
            ),
            DeepError::InputWidthMismatch { image, expected, got } => write!(
                f,
                "input image {image} is {got} bits wide, the model expects {expected}"
            ),
            DeepError::EmptySegment { segment } => {
                write!(f, "series segment {segment} has no layers")
            }
        }
    }
}

/// Splits a deep model into `(front, back)` halves for series execution.
///
/// The front half's "classes" are its full final layer (every activation
/// bit crosses the inter-core link).
///
/// # Panics
///
/// Panics if the model has fewer than 2 layers or `split` is not inside
/// `1..layers`.
fn split_model(deep: &BnnModel, split: usize) -> (BnnModel, BnnModel) {
    let layers = deep.layers();
    assert!(layers.len() >= 2, "need at least two layers to split");
    assert!((1..layers.len()).contains(&split), "split must be interior");
    let front_layers: Vec<BnnLayer> = layers[..split].to_vec();
    let back_layers: Vec<BnnLayer> = layers[split..].to_vec();
    let front_widths: Vec<usize> = front_layers.iter().map(BnnLayer::neurons).collect();
    let back_widths: Vec<usize> = back_layers.iter().map(BnnLayer::neurons).collect();
    let front = BnnModel::new(
        Topology::new(
            deep.topology().input(),
            front_widths.clone(),
            *front_widths.last().expect("nonempty"),
        ),
        front_layers,
    );
    let back = BnnModel::new(
        Topology::new(
            *front_widths.last().expect("nonempty"),
            back_widths,
            deep.topology().classes(),
        ),
        back_layers,
    );
    (front, back)
}

/// Splits a deep model into `segments` contiguous sub-models for N-core
/// series execution. Segment boundaries fall at `layers * i / segments`,
/// so `segments == 2` reproduces [`split_model`] at `layers / 2` exactly.
/// Interior segments' "classes" are their full final layer (every
/// activation bit crosses the link).
///
/// # Panics
///
/// Panics unless `1 ≤ segments ≤ layers`.
fn split_model_n(deep: &BnnModel, segments: usize) -> Vec<BnnModel> {
    let layers = deep.layers().len();
    assert!(
        (1..=layers).contains(&segments),
        "need 1..=({layers}) segments, got {segments}"
    );
    if segments == 1 {
        return vec![deep.clone()];
    }
    let mut parts = Vec::with_capacity(segments);
    let mut rest = deep.clone();
    for s in 0..segments - 1 {
        // Boundary between global layer indices, re-based onto `rest`.
        let done = layers * s / segments;
        let cut = layers * (s + 1) / segments - done;
        let (seg, tail) = split_model(&rest, cut);
        parts.push(seg);
        rest = tail;
    }
    parts.push(rest);
    parts
}

/// Outcome of a deep-model batch run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DeepRun {
    /// Predicted class per image.
    pub outputs: Vec<usize>,
    /// Makespan in cycles.
    pub total_cycles: u64,
    /// Latency of the first image.
    pub first_latency: u64,
    /// Steady-state cycles between completions (0 for batches < 2).
    pub steady_interval: u64,
}

impl From<BatchRun> for DeepRun {
    fn from(run: BatchRun) -> DeepRun {
        DeepRun {
            first_latency: run.first_latency(),
            steady_interval: run.steady_interval(),
            outputs: run.outputs,
            total_cycles: run.total_cycles,
        }
    }
}

/// Runs `deep` on one core by rolling logical layers onto the physical
/// array, returning the recorder with the rolled core's per-image `bnn`
/// spans on lane 0 and the run counters. `arrivals` holds one arrival
/// cycle per image (the fault layer's staging prologue delays
/// deliveries; a clean run is all zeros). Latency metrics stay anchored
/// at cycle 0 — an arrival delay is recovery time the image spent in
/// service.
///
/// # Panics
///
/// Panics if `arrivals` is not parallel to `inputs`.
fn rolled(
    deep: &BnnModel,
    inputs: &[BitVec],
    arrivals: &[u64],
    soc: &SocConfig,
    level: TraceLevel,
) -> (DeepRun, Recorder) {
    assert_eq!(inputs.len(), arrivals.len(), "one arrival per image");
    let mut rec = Recorder::new(level.at_least_counters());
    // The physical array: the paper's 4 × (widest layer) configuration.
    let widest = deep.layers().iter().map(BnnLayer::neurons).max().expect("layers");
    let physical = BnnModel::zeros(&Topology::paper(
        deep.topology().input(),
        widest,
        deep.topology().classes().min(widest),
    ));
    let mut accel = Accelerator::new(physical, fabric::accel_config(soc));
    accel.set_obs_level(level.at_least_counters());
    let timed: Vec<(BitVec, u64)> =
        inputs.iter().zip(arrivals).map(|(i, &at)| (i.clone(), at)).collect();
    let batch = accel.run_batch_deep(deep, &timed);
    // Latency is anchored at cycle 0 (arrival delays included); service
    // is the image's traversal of the rolled array.
    for (i, &(start, end)) in batch.spans.iter().enumerate() {
        fabric::record_item_metrics(&mut rec, end, end - start, (inputs.len() - 1 - i) as u64);
    }
    let run: DeepRun = batch.into();
    rec.absorb(accel.obs_mut(), 0, 0);
    rec.set_counter("accel.busy_cycles", accel.stats().busy_cycles);
    fabric::set_run_counters(&mut rec, run.total_cycles, inputs.len());
    fabric::record_util_metric(&mut rec, accel.stats().busy_cycles, run.total_cycles);
    (run, rec)
}

/// Runs `deep` split across `segments` NCPU cores in series: each image
/// streams through segment 0, crosses the shared inter-core link
/// (DMA-costed), and so on until the final segment classifies it, with
/// every segment pipelining across images. `arrivals` is as for
/// [`rolled`].
///
/// The recorder carries one phase lane per segment — labelled `front`,
/// `mid`…, `back` — the link's DMA spans on lane `segments`, per-segment
/// `core{s}.busy_cycles` counters, and the total `deep.link_bytes`.
///
/// # Errors
///
/// Invalid segment counts, mismatched input widths, and (defensively)
/// empty segments come back as a [`DeepError`].
///
/// # Panics
///
/// Panics if `arrivals` is not parallel to `inputs`.
fn series(
    deep: &BnnModel,
    inputs: &[BitVec],
    arrivals: &[u64],
    soc: &SocConfig,
    segments: usize,
    level: TraceLevel,
) -> Result<(DeepRun, Recorder), DeepError> {
    assert_eq!(inputs.len(), arrivals.len(), "one arrival per image");
    let layers = deep.layers().len();
    if !(2..=layers).contains(&segments) {
        return Err(DeepError::SegmentsOutOfRange { segments, layers });
    }
    let expected = deep.topology().input();
    for (image, input) in inputs.iter().enumerate() {
        if input.len() != expected {
            return Err(DeepError::InputWidthMismatch { image, expected, got: input.len() });
        }
    }
    let mut rec = Recorder::new(level.at_least_counters());
    let parts = split_model_n(deep, segments);
    let mut link = fabric::new_dma(soc, level);

    let mut timed: Vec<(BitVec, u64)> =
        inputs.iter().zip(arrivals).map(|(i, &at)| (i.clone(), at)).collect();
    let mut total_link_bytes = 0u64;
    let mut last_run: Option<BatchRun> = None;
    let mut front_starts: Vec<u64> = Vec::new();
    let mut seg_busy: Vec<u64> = Vec::new();
    for (s, part) in parts.iter().enumerate() {
        let mut accel = Accelerator::new(part.clone(), fabric::accel_config(soc));
        let run = accel.run_batch_timed(&timed);
        let label = if s == 0 {
            "front"
        } else if s == parts.len() - 1 {
            "back"
        } else {
            "mid"
        };
        for &(start, end) in &run.spans {
            rec.phase(s as u16, label, start, end);
        }
        if s == 0 {
            front_starts = run.spans.iter().map(|&(start, _)| start).collect();
        }
        rec.set_counter(format!("core{s}.busy_cycles"), accel.stats().busy_cycles);
        seg_busy.push(accel.stats().busy_cycles);
        if s < parts.len() - 1 {
            // This segment's activations (computed functionally) cross the
            // link as each image completes, in image order.
            let width =
                part.topology().layers().last().ok_or(DeepError::EmptySegment { segment: s })?;
            let link_bytes = width.div_ceil(8) as u32;
            total_link_bytes += u64::from(link_bytes) * inputs.len() as u64;
            let mut next = Vec::with_capacity(timed.len());
            for ((input, _), &(_, end)) in timed.iter().zip(&run.spans) {
                let acts = part
                    .layer_outputs(input)
                    .last()
                    .ok_or(DeepError::EmptySegment { segment: s })?
                    .clone();
                let delivered = link.schedule(end, link_bytes);
                next.push((acts, delivered));
            }
            timed = next;
        }
        last_run = Some(run);
    }
    let back_run = last_run.expect("at least two segments");
    rec.set_counter("deep.link_bytes", total_link_bytes);
    fabric::snapshot_dma(&mut rec, &mut link, segments as u16);
    fabric::set_run_counters(&mut rec, back_run.total_cycles, inputs.len());
    // All images arrive at cycle 0, so latency is the final-segment
    // completion cycle; service is the image's residency in the series
    // pipeline (first-segment entry to last-segment exit).
    for (i, &(_, end)) in back_run.spans.iter().enumerate() {
        let service = end - front_starts[i];
        fabric::record_item_metrics(&mut rec, end, service, (inputs.len() - 1 - i) as u64);
    }
    for &busy in &seg_busy {
        fabric::record_util_metric(&mut rec, busy, back_run.total_cycles);
    }

    // Functional check: the series result must equal the whole model.
    debug_assert!(back_run
        .outputs
        .iter()
        .zip(inputs)
        .all(|(&o, i)| o == deep.classify(i)));

    let run = DeepRun {
        outputs: back_run.outputs.clone(),
        total_cycles: back_run.total_cycles,
        first_latency: back_run.spans.first().map_or(0, |&(_, e)| e),
        steady_interval: back_run.steady_interval(),
    };
    Ok((run, rec))
}

/// Every engine's body for a deep use case: rollback on one BNN-capable
/// core, a series pipeline over N ≥ 2 of them, with the fault layer
/// resolved against input staging first.
pub(crate) fn run(scenario: &Scenario, topo: &crate::topology::Topology) -> (RunReport, Recorder) {
    // Roles map to segment placement: every BNN-capable core
    // (reconfigurable or fixed BNN array) holds one resident model
    // segment, in core-id order; CPU-only cores hold none. The
    // homogeneous default keeps the historical "N cores = N
    // segments" exactly.
    let segment_cores = topo.bnn_cores();
    assert!(!segment_cores.is_empty(), "a deep model needs at least one BNN-capable core");
    let cores = segment_cores.len();
    let model = scenario.usecase().model();
    let width = model.topology().input();
    let items = scenario.usecase().items();
    // The fault prologue resolves the plan against input staging
    // before the accelerator sees any image: surviving images get
    // delayed arrivals, dropped ones never enter the batch. The
    // deep body has no spare cores (every core holds a resident
    // model segment), so quarantine is structurally disabled.
    let mut prologue = scenario.fault().is_active().then(|| {
        let sizes: Vec<usize> = items.iter().map(|i| i.staged.len()).collect();
        deep_fault_prologue(scenario.fault(), scenario.millivolts(), &sizes, scenario.soc())
    });
    let (inputs, arrivals): (Vec<BitVec>, Vec<u64>) = match &prologue {
        Some(p) => p
            .kept
            .iter()
            .zip(&p.arrivals)
            .map(|(&i, &at)| (BitVec::from_bytes(&items[i].staged, width), at))
            .unzip(),
        None => items.iter().map(|item| (BitVec::from_bytes(&item.staged, width), 0)).unzip(),
    };
    let (run, mut rec, config, roles) = if cores == 1 {
        let (run, rec) = rolled(model, &inputs, &arrivals, scenario.soc(), scenario.trace());
        let busy = rec.counters().get("accel.busy_cycles");
        (run, rec, "deep rollback (1 core)".to_string(), vec![("deep".to_string(), busy)])
    } else {
        let (run, rec) = series(model, &inputs, &arrivals, scenario.soc(), cores, scenario.trace())
            .unwrap_or_else(|e| panic!("{e}"));
        let roles = (0..cores)
            .map(|s| {
                let role = if topo.is_homogeneous() {
                    format!("seg{s}")
                } else {
                    format!("seg{s}@core{}", segment_cores[s])
                };
                (role, rec.counters().get(&format!("core{s}.busy_cycles")))
            })
            .collect();
        (run, rec, format!("{cores}x ncpu (series)"), roles)
    };
    if !topo.is_homogeneous() {
        for (s, &c) in segment_cores.iter().enumerate() {
            rec.set_counter(format!("deep.seg{s}.core"), c as u64);
        }
    }
    rec.set_counter("deep.first_latency", run.first_latency);
    rec.set_counter("deep.steady_interval", run.steady_interval);
    let mut makespan = run.total_cycles;
    let mut predictions = run.outputs.clone();
    if let Some(p) = &mut prologue {
        // Fault instants go on a dedicated lane (past the segment
        // phase lanes and the link's DMA lane), pre-sorted so the
        // per-lane timestamp order the validator enforces holds.
        let fault_lane = if cores == 1 { 1 } else { cores as u16 + 1 };
        for (cycle, kind) in &p.events {
            rec.emit(fault_lane, *cycle, kind.clone());
        }
        rec.absorb(&mut p.rec, fault_lane, 0);
        // A dropped image's detection can outlast the batch; the
        // batch itself only saw the surviving images.
        makespan = makespan.max(p.horizon);
        rec.set_counter("run.makespan_cycles", makespan);
        rec.set_counter("run.items", items.len() as u64);
        debug_assert_eq!(p.kept.len() + p.dropped.len(), items.len());
        let mut full = vec![fabric::DROPPED_PREDICTION; items.len()];
        for (k, &orig) in p.kept.iter().enumerate() {
            full[orig] = run.outputs[k];
        }
        predictions = full;
    }
    let report = RunReport {
        config,
        makespan,
        cores: roles
            .into_iter()
            .enumerate()
            .map(|(lane, (role, busy))| CoreReport {
                role,
                timeline: Timeline::from_obs_events(rec.spans(), lane as u16),
                busy_cycles: busy,
            })
            .collect(),
        predictions,
        labels: items.iter().map(|i| i.label).collect(),
        metrics: rec.metrics().clone(),
    };
    (report, rec)
}

/// What the fault prologue decided for one deep batch: per-image
/// staging delays, dropped images, and the fault-layer bookkeeping the
/// caller merges into the run's recorder after the batch executes.
///
/// The deep body has no spare cores to re-schedule onto (every core
/// holds a resident model segment), so quarantine is structurally
/// disabled here: recovery is retry-with-backoff, then drop.
struct DeepPrologue {
    /// Arrival cycle per *surviving* image, parallel to `kept`.
    arrivals: Vec<u64>,
    /// Original item indices that survived staging, in order.
    kept: Vec<usize>,
    /// Original item indices the recovery policy dropped.
    dropped: Vec<usize>,
    /// Fault-layer instants, sorted by cycle — emit them on one
    /// dedicated lane so per-lane timestamp order holds.
    events: Vec<(u64, EventKind)>,
    /// The `fault.*` counters, and the `fault.recovery_cycles` and
    /// `item.retries` (one sample per item) histograms.
    rec: Recorder,
    /// Cycle of the last fault-layer event (0 when none): a dropped
    /// item's detection can outlast every surviving completion, so the
    /// run's makespan is the max of the batch and this horizon.
    horizon: u64,
}

/// Resolves the fault plan against a deep batch's input staging, before
/// the accelerator sees any image, on the same fault-recovery path the
/// SoC engines use: each image's delivery draws from the same
/// per-(item, attempt) split RNG streams ([`fabric::FaultCtl::detect`],
/// with a detected fault priced at its transfer's delivery cycle), and
/// [`fabric::recovery_decision`] retries with exponential backoff until
/// the plan's budget drops the image. Every image starts staging at
/// cycle 0 on one stream; a clean delivery arrives at once, a benign
/// stall late.
fn deep_fault_prologue(
    plan: &FaultPlan,
    millivolts: u32,
    staged_sizes: &[usize],
    soc: &SocConfig,
) -> DeepPrologue {
    let no_quarantine = FaultPlan { quarantine_after: 0, ..*plan };
    let items = staged_sizes.len();
    let mut ctl = fabric::FaultCtl::new(&no_quarantine, millivolts, items, 1);
    let cost = |bytes: u32| {
        soc.dma_setup_cycles + u64::from(bytes).div_ceil(u64::from(soc.dma_bytes_per_cycle.max(1)))
    };
    let mut rec = Recorder::new(TraceLevel::Counters);
    let mut events: Vec<(u64, EventKind)> = Vec::new();
    let (mut arrivals, mut kept, mut dropped) = (Vec::new(), Vec::new(), Vec::new());
    for (i, &bytes) in staged_sizes.iter().enumerate() {
        ctl.begin_dispatch(0);
        let mut now = 0;
        // `Some(arrival)` once staging succeeds, `None` once dropped.
        let outcome = loop {
            let mut defer = Some(&mut events);
            let deliver = |bytes| now + cost(bytes);
            match ctl.detect(0, i, bytes, now, deliver, &mut rec, &mut defer) {
                fabric::Draw::Clean => break Some(now),
                fabric::Draw::Stalled(extra) => break Some(now + extra),
                fabric::Draw::Detected(at) => {
                    match fabric::recovery_decision(&mut ctl, 0, now, at, &mut rec, &mut defer) {
                        fabric::Decision::RetryAt(resume) => now = resume,
                        fabric::Decision::Drop(_) => break None,
                        fabric::Decision::Quarantine(_) => unreachable!("quarantine is disabled"),
                    }
                }
            }
        };
        rec.metric("item.retries", ctl.item_retries(i));
        match outcome {
            Some(arrival) => {
                arrivals.push(arrival);
                kept.push(i);
            }
            None => dropped.push(i),
        }
    }
    ctl.write_counters(&mut rec);
    let horizon = events.iter().map(|&(cycle, _)| cycle).max().unwrap_or(0);
    events.sort_by_key(|&(cycle, _)| cycle);
    DeepPrologue { arrivals, kept, dropped, events, rec, horizon }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn deep_model(layers: usize) -> BnnModel {
        let topo = Topology::new(48, vec![20; layers], 8);
        let built = (0..layers)
            .map(|l| {
                let n_in = topo.layer_input(l);
                let rows: Vec<BitVec> = (0..20)
                    .map(|j| {
                        BitVec::from_bools((0..n_in).map(|i| (i * 7 + j * 3 + l) % 5 < 2))
                    })
                    .collect();
                BnnLayer::new(rows, (0..20).map(|j| (j % 3) - 1).collect())
            })
            .collect();
        BnnModel::new(topo, built)
    }

    pub(crate) fn inputs(n: usize) -> Vec<BitVec> {
        (0..n).map(|k| BitVec::from_bools((0..48).map(|i| (i + k) % 3 == 0))).collect()
    }

    /// [`rolled`] with every image arriving at cycle 0.
    fn rolled_at_zero(deep: &BnnModel, inputs: &[BitVec]) -> DeepRun {
        rolled(deep, inputs, &vec![0; inputs.len()], &SocConfig::default(), TraceLevel::Off).0
    }

    /// [`series`] with every image arriving at cycle 0.
    fn series_at_zero(
        deep: &BnnModel,
        inputs: &[BitVec],
        segments: usize,
    ) -> Result<(DeepRun, Recorder), DeepError> {
        let arrivals = vec![0; inputs.len()];
        series(deep, inputs, &arrivals, &SocConfig::default(), segments, TraceLevel::Counters)
    }

    #[test]
    fn split_preserves_function() {
        let deep = deep_model(8);
        let (front, back) = split_model(&deep, 4);
        for input in inputs(6) {
            let acts = front.layer_outputs(&input).last().unwrap().clone();
            assert_eq!(back.classify(&acts), deep.classify(&input));
        }
    }

    #[test]
    fn split_n_matches_two_way_split_and_preserves_function() {
        let deep = deep_model(8);
        let parts = split_model_n(&deep, 2);
        let (front, back) = split_model(&deep, 4);
        assert_eq!(parts[0].topology().layers(), front.topology().layers());
        assert_eq!(parts[1].topology().layers(), back.topology().layers());
        for segments in [1usize, 2, 3, 4] {
            let parts = split_model_n(&deep, segments);
            assert_eq!(parts.len(), segments);
            assert_eq!(
                parts.iter().map(|p| p.layers().len()).sum::<usize>(),
                deep.layers().len()
            );
            for input in inputs(3) {
                let mut acts = input.clone();
                for part in &parts[..segments - 1] {
                    acts = part.layer_outputs(&acts).last().unwrap().clone();
                }
                assert_eq!(
                    parts.last().unwrap().classify(&acts),
                    deep.classify(&input),
                    "{segments} segments"
                );
            }
        }
    }

    #[test]
    fn rolled_and_series_agree_functionally() {
        let deep = deep_model(8);
        let ins = inputs(5);
        let rolled = rolled_at_zero(&deep, &ins);
        let (series, _) = series_at_zero(&deep, &ins, 2).unwrap();
        let reference: Vec<usize> = ins.iter().map(|i| deep.classify(i)).collect();
        assert_eq!(rolled.outputs, reference);
        assert_eq!(series.outputs, reference);
    }

    #[test]
    fn series_doubles_throughput_over_rollback() {
        let deep = deep_model(8);
        let ins = inputs(16);
        let rolled = rolled_at_zero(&deep, &ins);
        let (series, _) = series_at_zero(&deep, &ins, 2).unwrap();
        // Two cores hold all 8 layers resident: roughly 2× the rollback
        // throughput at steady state.
        assert!(
            series.steady_interval < rolled.steady_interval,
            "series {} vs rolled {}",
            series.steady_interval,
            rolled.steady_interval
        );
        assert!(series.total_cycles < rolled.total_cycles);
    }

    #[test]
    fn four_segment_series_pipelines_deeper() {
        let deep = deep_model(8);
        let ins = inputs(12);
        let (two, _) = series_at_zero(&deep, &ins, 2).unwrap();
        let (four, rec) = series_at_zero(&deep, &ins, 4).unwrap();
        let reference: Vec<usize> = ins.iter().map(|i| deep.classify(i)).collect();
        assert_eq!(four.outputs, reference);
        // Shorter segments drain faster between completions.
        assert!(
            four.steady_interval <= two.steady_interval,
            "4-seg {} vs 2-seg {}",
            four.steady_interval,
            two.steady_interval
        );
        // One phase lane per segment plus the link lane, with mid labels.
        assert!(rec.counters().get("core3.busy_cycles") > 0);
        assert!(rec
            .spans()
            .iter()
            .any(|e| matches!(&e.kind, ncpu_obs::EventKind::Phase { label, .. } if label == "mid")));
    }

    #[test]
    #[should_panic(expected = "interior")]
    fn split_bounds_checked() {
        split_model(&deep_model(4), 4);
    }

    #[test]
    fn bad_segment_counts_return_structured_errors() {
        let deep = deep_model(8);
        let ins = inputs(2);
        for segments in [0usize, 1, 9, 100] {
            let err = series_at_zero(&deep, &ins, segments)
                .expect_err("out-of-range segment count must not run");
            assert_eq!(err, DeepError::SegmentsOutOfRange { segments, layers: 8 });
        }
        let msg = DeepError::SegmentsOutOfRange { segments: 9, layers: 8 }.to_string();
        assert_eq!(msg, "series mode needs 2..=8 segments for a 8-layer model, got 9");
    }

    #[test]
    fn mismatched_input_width_returns_structured_error() {
        let deep = deep_model(8);
        let mut ins = inputs(3);
        ins[1] = BitVec::from_bools((0..32).map(|i| i % 2 == 0));
        let err = series_at_zero(&deep, &ins, 2).expect_err("width mismatch must not run");
        assert_eq!(err, DeepError::InputWidthMismatch { image: 1, expected: 48, got: 32 });
        assert_eq!(err.to_string(), "input image 1 is 32 bits wide, the model expects 48");
    }

    fn stall_only_plan() -> FaultPlan {
        FaultPlan {
            seed: 5,
            sram_flip_ppm: 0,
            dma_stall_ppm: 1_000_000,
            dma_stall_cycles: 500,
            dma_truncate_ppm: 0,
            core_hang_ppm: 0,
            watchdog_cycles: 0,
            max_retries: 3,
            backoff_cycles: 32,
            quarantine_after: 0,
        }
    }

    #[test]
    fn prologue_is_deterministic() {
        let plan = FaultPlan {
            sram_flip_ppm: 300_000,
            dma_truncate_ppm: 200_000,
            ..stall_only_plan()
        };
        let sizes = [64usize, 96, 128, 64];
        let soc = SocConfig::default();
        let a = deep_fault_prologue(&plan, 850, &sizes, &soc);
        let b = deep_fault_prologue(&plan, 850, &sizes, &soc);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.kept, b.kept);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.events, b.events);
        assert_eq!(a.rec.counters().to_json(), b.rec.counters().to_json());
        assert_eq!(a.horizon, b.horizon);
    }

    #[test]
    fn prologue_stalls_delay_but_never_drop() {
        let sizes = [64usize; 5];
        let pro = deep_fault_prologue(&stall_only_plan(), 1000, &sizes, &SocConfig::default());
        assert_eq!(pro.kept, vec![0, 1, 2, 3, 4]);
        assert!(pro.dropped.is_empty());
        // A stall is benign: every image arrives, exactly one stall late.
        assert_eq!(pro.arrivals, vec![500; 5]);
        assert_eq!(pro.rec.counters().get("fault.injected.dma_stall"), 5);
        assert_eq!(pro.rec.counters().get("fault.items_dropped"), 0);
    }

    #[test]
    fn prologue_exhausted_retries_drop_every_image() {
        let plan = FaultPlan {
            sram_flip_ppm: 1_000_000,
            dma_stall_ppm: 0,
            dma_stall_cycles: 0,
            max_retries: 0,
            ..stall_only_plan()
        };
        let sizes = [64usize; 4];
        let pro = deep_fault_prologue(&plan, 900, &sizes, &SocConfig::default());
        assert!(pro.kept.is_empty());
        assert_eq!(pro.dropped, vec![0, 1, 2, 3]);
        assert_eq!(pro.rec.counters().get("fault.items_dropped"), 4);
        assert_eq!(pro.rec.counters().get("fault.retries"), 0);
        // Parity detection happens at the priced delivery cycle, so the
        // horizon extends past cycle 0 even though nothing ran.
        assert!(pro.horizon > 0);
        assert!(pro.events.windows(2).all(|w| w[0].0 <= w[1].0), "events sorted");
    }
}
