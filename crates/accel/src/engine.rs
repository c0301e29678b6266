//! The accelerator engine: functional inference + systolic timing.

use std::sync::Arc;

use ncpu_bnn::{BitVec, BnnModel};
use ncpu_obs::{EventKind, Recorder, TraceLevel};
use ncpu_sim::{AddressArbiter, BankId};

use crate::config::{AccelConfig, SIGN_CYCLES};
use crate::packing::pack_layer_weights;

/// Activity counters of the accelerator (inputs to the power model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccelStats {
    /// Images classified.
    pub images: u64,
    /// Cycles during which at least one layer was computing.
    pub busy_cycles: u64,
    /// ±1 multiply-accumulate operations performed.
    pub macs: u64,
    /// 32-bit words read from the weight banks.
    pub weight_word_reads: u64,
    /// 32-bit words read from the image memory.
    pub image_word_reads: u64,
    /// Result words written to the output memory.
    pub output_writes: u64,
}

/// Timing and results of one batch inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRun {
    /// Predicted class per image.
    pub outputs: Vec<usize>,
    /// `(start, end)` cycle of each image's traversal of the array.
    pub spans: Vec<(u64, u64)>,
    /// Cycle the last image completed.
    pub total_cycles: u64,
}

impl BatchRun {
    /// Latency of the first image in cycles.
    pub fn first_latency(&self) -> u64 {
        self.spans.first().map_or(0, |&(s, e)| e - s)
    }

    /// Steady-state initiation interval (cycles between consecutive image
    /// completions; 0 for batches of one).
    pub fn steady_interval(&self) -> u64 {
        if self.spans.len() < 2 {
            return 0;
        }
        let (_, e1) = self.spans[self.spans.len() - 2];
        let (_, e2) = self.spans[self.spans.len() - 1];
        e2 - e1
    }
}

/// Cycle-level BNN accelerator over a trained model.
///
/// See the [crate documentation](crate) for the model and an example.
#[derive(Debug, Clone)]
pub struct Accelerator {
    /// Shared, never mutated: every core built from one model holds the
    /// same allocation.
    model: Arc<BnnModel>,
    config: AccelConfig,
    banks: AddressArbiter,
    weight_bank_ids: Vec<BankId>,
    stats: AccelStats,
    obs: Recorder,
}

impl Accelerator {
    /// Builds an accelerator and loads `model`'s weights into its banks.
    /// Pass an `Arc<BnnModel>` to share one model among many
    /// accelerators without copying it.
    ///
    /// # Panics
    ///
    /// Panics if the model's packed weights exceed the configured bank
    /// sizes (the paper's banks fit a 784→100×4 network).
    pub fn new(model: impl Into<Arc<BnnModel>>, config: AccelConfig) -> Accelerator {
        let model = model.into();
        let mut banks = AddressArbiter::new();
        let mut weight_bank_ids = Vec::new();
        let mut base = 0u32;
        for (l, layer) in model.layers().iter().enumerate() {
            let cap = if l == 0 { config.banks.w1 } else { config.banks.w_deep };
            let packed = pack_layer_weights(layer);
            assert!(packed.len() <= cap, "layer {l} weights ({} B) exceed bank ({cap} B)", packed.len());
            let id = banks.add_bank(format!("w{}", l + 1), base, cap);
            banks.bank_mut(id).load(0, &packed);
            weight_bank_ids.push(id);
            base += cap as u32;
        }
        banks.add_bank("image", base, config.banks.image);
        banks.add_bank("output", base + config.banks.image as u32, config.banks.output);
        Accelerator {
            model,
            config,
            banks,
            weight_bank_ids,
            stats: AccelStats::default(),
            obs: Recorder::disabled(),
        }
    }

    /// Enables event recording at `level`: each image becomes a `bnn`
    /// phase span and each batch an inference event, stamped in the
    /// caller's cycle domain (batch `avail` times are caller cycles).
    pub fn set_obs_level(&mut self, level: TraceLevel) {
        self.obs.set_level(level);
    }

    /// The accelerator's recorder shard, for the embedding SoC to absorb.
    pub fn obs_mut(&mut self) -> &mut Recorder {
        &mut self.obs
    }

    /// The model being served.
    pub fn model(&self) -> &BnnModel {
        &self.model
    }

    /// The configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Activity counters.
    pub fn stats(&self) -> &AccelStats {
        &self.stats
    }

    /// The SRAM banks (weights, image, output) for inspection.
    pub fn banks(&self) -> &AddressArbiter {
        &self.banks
    }

    /// Mutable access to the SRAM banks. The NCPU core routes CPU-mode
    /// data-cache accesses through here — the memory-reuse scheme of paper
    /// Fig. 4 — so data written by the CPU is readable by the accelerator
    /// in place.
    #[inline]
    pub fn banks_mut(&mut self) -> &mut AddressArbiter {
        &mut self.banks
    }

    /// Base address of the image memory within the bank address space.
    pub fn image_base(&self) -> u32 {
        let layers = self.model.layers().len();
        (self.config.banks.w1 + self.config.banks.w_deep * (layers - 1)) as u32
    }

    /// Base address of the output (result) memory.
    pub fn output_base(&self) -> u32 {
        self.image_base() + self.config.banks.image as u32
    }

    /// Total packed weight bytes (what a naive mode switch would reload).
    pub fn packed_weight_bytes(&self) -> usize {
        self.model
            .layers()
            .iter()
            .map(|l| l.neurons() * crate::packing::packed_row_bytes(l.input_len()))
            .sum()
    }

    /// Cycles one image spends in layer `l`: one broadcast cycle per input
    /// bit plus the sign stage.
    pub fn layer_cycles(&self, l: usize) -> u64 {
        self.model.topology().layer_input(l) as u64 + SIGN_CYCLES
    }

    /// Latency of a single image through all layers.
    pub fn image_latency(&self) -> u64 {
        (0..self.model.layers().len()).map(|l| self.layer_cycles(l)).sum()
    }

    /// Steady-state initiation interval under layer pipelining: the longest
    /// single layer pass (the first layer for the paper's 784-input net).
    pub fn pipelined_interval(&self) -> u64 {
        (0..self.model.layers().len())
            .map(|l| self.layer_cycles(l))
            .max()
            .unwrap_or(0)
    }

    /// Classifies one image; returns `(class, latency_cycles)`.
    pub fn infer(&mut self, input: &BitVec) -> (usize, u64) {
        let run = self.run_batch(std::slice::from_ref(input));
        (run.outputs[0], run.total_cycles)
    }

    /// Classifies a batch, all images available at cycle 0.
    pub fn run_batch(&mut self, inputs: &[BitVec]) -> BatchRun {
        let avail: Vec<(BitVec, u64)> = inputs.iter().map(|i| (i.clone(), 0)).collect();
        self.run_batch_timed(&avail)
    }

    /// Classifies a batch where image `i` becomes available in the image
    /// memory at cycle `avail_i` (e.g. as DMA delivers it).
    ///
    /// Functional results are computed with the reference model; timing
    /// follows the systolic recurrence (see the crate docs).
    pub fn run_batch_timed(&mut self, inputs: &[(BitVec, u64)]) -> BatchRun {
        let layers = self.model.layers().len();
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut spans = Vec::with_capacity(inputs.len());
        // end[l] = cycle layer l last freed up.
        let mut layer_free = vec![0u64; layers];
        let mut last_end = 0u64;
        let mut prev_busy_end = 0u64;

        for (input, avail) in inputs {
            // ---- functional ----
            outputs.push(self.model.classify(input));
            self.count_activity(input);

            // ---- timing ----
            let mut t = *avail;
            let start;
            if self.config.layer_pipelining {
                let mut entry = t.max(layer_free[0]);
                start = entry;
                for (l, free) in layer_free.iter_mut().enumerate() {
                    let begin = entry.max(*free);
                    let end = begin + self.layer_cycles(l);
                    *free = end;
                    entry = end;
                }
                t = entry;
            } else {
                // Ablation: one image occupies the whole array at a time.
                start = t.max(last_end);
                t = start + self.image_latency();
                for f in layer_free.iter_mut() {
                    *f = t;
                }
            }
            last_end = t;
            spans.push((start, t));
            // Busy accounting: the array is busy from each image's start to
            // end; overlaps (pipelining) are not double-counted.
            let busy_start = start.max(prev_busy_end);
            self.stats.busy_cycles += t.saturating_sub(busy_start);
            prev_busy_end = prev_busy_end.max(t);
        }
        self.record_batch(&spans, last_end);
        BatchRun { outputs, spans, total_cycles: last_end }
    }

    /// Classifies a batch with a model *deeper* than the physical array by
    /// wrapping outputs back to the first layer (paper Section VIII-A:
    /// "deeper BNN with more layers can be supported by rolling back the
    /// BNN operation").
    ///
    /// Logical layer `l` executes on physical layer `l % depth`, so an
    /// image's second pass contends with the next image's first pass; the
    /// systolic recurrence accounts for that occupancy.
    ///
    /// # Panics
    ///
    /// Panics if any logical layer is wider than the physical array or
    /// wider than its physical weight bank allows.
    pub fn run_batch_deep(&mut self, deep: &BnnModel, inputs: &[(BitVec, u64)]) -> BatchRun {
        let phys = self.model.layers().len();
        let phys_neurons = self.model.layers()[0].neurons();
        for (l, layer) in deep.layers().iter().enumerate() {
            assert!(
                layer.neurons() <= phys_neurons,
                "logical layer {l} ({} neurons) exceeds the {phys_neurons}-neuron array",
                layer.neurons()
            );
            let cap = if l % phys == 0 { self.config.banks.w1 } else { self.config.banks.w_deep };
            let bytes = layer.neurons() * crate::packing::packed_row_bytes(layer.input_len());
            assert!(bytes <= cap, "logical layer {l} weights exceed bank capacity");
        }
        let mut outputs = Vec::with_capacity(inputs.len());
        let mut spans = Vec::with_capacity(inputs.len());
        let mut phys_free = vec![0u64; phys];
        let mut last_end = 0u64;
        let mut prev_busy_end = 0u64;
        for (input, avail) in inputs {
            outputs.push(deep.classify(input));
            self.stats.images += 1;
            self.stats.macs += deep.topology().macs() as u64;
            let mut entry = (*avail).max(phys_free[0]);
            let start = entry;
            for (l, _) in deep.layers().iter().enumerate() {
                let p = l % phys;
                let begin = entry.max(phys_free[p]);
                let end = begin + deep.topology().layer_input(l) as u64 + SIGN_CYCLES;
                phys_free[p] = end;
                entry = end;
            }
            last_end = entry;
            spans.push((start, entry));
            let busy_start = start.max(prev_busy_end);
            self.stats.busy_cycles += entry.saturating_sub(busy_start);
            prev_busy_end = prev_busy_end.max(entry);
        }
        self.record_batch(&spans, last_end);
        BatchRun { outputs, spans, total_cycles: last_end }
    }

    fn record_batch(&mut self, spans: &[(u64, u64)], last_end: u64) {
        if !self.obs.wants_spans() || spans.is_empty() {
            return;
        }
        for &(start, end) in spans {
            self.obs.phase(0, "bnn", start, end);
        }
        self.obs.emit(
            0,
            spans[0].0,
            EventKind::Inference { images: spans.len() as u32, end: last_end },
        );
    }

    fn count_activity(&mut self, input: &BitVec) {
        let topo = self.model.topology().clone();
        self.stats.images += 1;
        self.stats.macs += topo.macs() as u64;
        self.stats.image_word_reads += (input.len() as u64).div_ceil(32);
        self.stats.output_writes += topo.classes() as u64;
        for l in 0..self.weight_bank_ids.len() {
            let words =
                (topo.layer_input(l) as u64 * topo.layers()[l] as u64).div_ceil(32);
            self.stats.weight_word_reads += words;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncpu_bnn::Topology;

    fn tiny_model() -> BnnModel {
        // Deterministic pseudo-random weights, nonzero biases.
        let topo = Topology::new(24, vec![10, 10], 4);
        let mut layers = Vec::new();
        for l in 0..2 {
            let inputs = topo.layer_input(l);
            let rows: Vec<BitVec> = (0..10)
                .map(|j| BitVec::from_bools((0..inputs).map(|i| (i * 7 + j * 3 + l) % 5 < 2)))
                .collect();
            let bias = (0..10).map(|j| (j % 3) - 1).collect();
            layers.push(ncpu_bnn::BnnLayer::new(rows, bias));
        }
        BnnModel::new(topo, layers)
    }

    #[test]
    fn functional_matches_reference() {
        let model = tiny_model();
        let mut acc = Accelerator::new(model.clone(), AccelConfig::default());
        for k in 0..20 {
            let input = BitVec::from_bools((0..24).map(|i| (i + k) % 3 == 0));
            let (class, _) = acc.infer(&input);
            assert_eq!(class, model.classify(&input), "image {k}");
        }
        assert_eq!(acc.stats().images, 20);
    }

    #[test]
    fn single_image_latency_is_sum_of_layers() {
        let mut acc = Accelerator::new(tiny_model(), AccelConfig::default());
        let run = acc.run_batch(&[BitVec::zeros(24)]);
        // Layer 1: 24+1, layer 2: 10+1 -> 36 cycles.
        assert_eq!(run.total_cycles, 36);
        assert_eq!(run.first_latency(), 36);
        assert_eq!(acc.image_latency(), 36);
    }

    #[test]
    fn pipelining_overlaps_images() {
        let inputs: Vec<BitVec> = (0..8).map(|_| BitVec::zeros(24)).collect();
        let mut piped = Accelerator::new(tiny_model(), AccelConfig::default());
        let mut serial = Accelerator::new(
            tiny_model(),
            AccelConfig { layer_pipelining: false, ..Default::default() },
        );
        let p = piped.run_batch(&inputs);
        let s = serial.run_batch(&inputs);
        // Pipelined: 36 + 7×25 (first layer bound) = 211. Serial: 8×36.
        assert_eq!(p.total_cycles, 36 + 7 * 25);
        assert_eq!(s.total_cycles, 8 * 36);
        assert_eq!(p.steady_interval(), piped.pipelined_interval());
        assert_eq!(p.outputs, s.outputs, "timing mode must not change results");
    }

    #[test]
    fn availability_times_delay_entry() {
        let mut acc = Accelerator::new(tiny_model(), AccelConfig::default());
        let run = acc.run_batch_timed(&[(BitVec::zeros(24), 100)]);
        assert_eq!(run.spans[0], (100, 136));
    }

    #[test]
    fn busy_cycles_do_not_exceed_makespan() {
        let inputs: Vec<(BitVec, u64)> =
            (0..5).map(|i| (BitVec::zeros(24), i * 500)).collect();
        let mut acc = Accelerator::new(tiny_model(), AccelConfig::default());
        let run = acc.run_batch_timed(&inputs);
        assert!(acc.stats().busy_cycles <= run.total_cycles);
        // Widely spaced arrivals: no overlap, busy = 5 × 36.
        assert_eq!(acc.stats().busy_cycles, 5 * 36);
    }

    #[test]
    fn traced_batches_emit_image_spans() {
        let mut acc = Accelerator::new(tiny_model(), AccelConfig::default());
        acc.set_obs_level(TraceLevel::Counters);
        let run = acc.run_batch(&[BitVec::zeros(24), BitVec::zeros(24)]);
        let spans = acc.obs_mut().spans().to_vec();
        // Two per-image "bnn" phases plus one batch inference span.
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].kind, EventKind::Phase { label: "bnn".into(), end: run.spans[0].1 });
        assert_eq!(
            spans[2].kind,
            EventKind::Inference { images: 2, end: run.total_cycles }
        );
    }

    #[test]
    fn stats_count_memory_traffic() {
        let mut acc = Accelerator::new(tiny_model(), AccelConfig::default());
        acc.infer(&BitVec::zeros(24));
        let s = acc.stats();
        assert_eq!(s.macs, (24 * 10 + 10 * 10) as u64);
        assert_eq!(s.image_word_reads, 1);
        assert_eq!(s.output_writes, 4);
        assert_eq!(s.weight_word_reads, (240u64).div_ceil(32) + (100u64).div_ceil(32));
    }

    #[test]
    fn deep_rollback_matches_reference_and_slows_throughput() {
        // An 8-layer logical model on the 2-physical-layer tiny array.
        let topo = Topology::new(24, vec![10; 8], 4);
        let mut layers = Vec::new();
        for l in 0..8 {
            let inputs = topo.layer_input(l);
            let rows: Vec<BitVec> = (0..10)
                .map(|j| BitVec::from_bools((0..inputs).map(|i| (i * 3 + j + l) % 5 < 2)))
                .collect();
            layers.push(ncpu_bnn::BnnLayer::new(rows, vec![0; 10]));
        }
        let deep = BnnModel::new(topo, layers);
        let mut acc = Accelerator::new(tiny_model(), AccelConfig::default());
        let inputs: Vec<(BitVec, u64)> =
            (0..4).map(|k| (BitVec::from_bools((0..24).map(|i| (i + k) % 3 == 0)), 0)).collect();
        let run = acc.run_batch_deep(&deep, &inputs);
        for (k, (input, _)) in inputs.iter().enumerate() {
            assert_eq!(run.outputs[k], deep.classify(input), "image {k}");
        }
        // Latency of one image = sum of all logical layer passes.
        let single: u64 = (0..8).map(|l| deep.topology().layer_input(l) as u64 + 1).sum();
        assert_eq!(run.first_latency(), single);
        // Throughput: wrapping halves the effective pipeline depth, so the
        // steady interval exceeds the plain 2-layer interval.
        let plain_interval = acc.pipelined_interval();
        assert!(run.steady_interval() > plain_interval);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn deep_rollback_checks_width() {
        let topo = Topology::new(24, vec![512; 4], 4);
        let deep = BnnModel::zeros(&topo);
        let mut acc = Accelerator::new(tiny_model(), AccelConfig::default());
        acc.run_batch_deep(&deep, &[(BitVec::zeros(24), 0)]);
    }

    #[test]
    fn paper_network_fits_default_banks() {
        let topo = Topology::paper(784, 100, 10);
        let model = BnnModel::zeros(&topo);
        let acc = Accelerator::new(model, AccelConfig::default());
        // Throughput interval = first layer: 784 + 1 cycles.
        assert_eq!(acc.pipelined_interval(), 785);
        assert_eq!(acc.image_latency(), 785 + 3 * 101);
    }
}
