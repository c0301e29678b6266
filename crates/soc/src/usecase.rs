//! Use-case definitions: what runs end to end.

use ncpu_bnn::data::{digits, motion};
use ncpu_bnn::train::{train, TrainConfig};
use ncpu_bnn::{BitVec, BnnLayer, BnnModel, Topology};
use ncpu_workloads::{image, motion as motion_prog, spin};
use ncpu_testkit::rng::Rng;

/// The workspace's deterministic pseudo-model: 4 hidden layers of
/// `neurons` each with a fixed weight/bias pattern — no training, so
/// callers (benches, examples, the serve fleet) start instantly, and
/// every construction with the same dimensions is byte-identical.
///
/// This is the single definition of the construction the soc tests,
/// `benches/event.rs`, and `examples/engine_matrix.rs` previously each
/// carried a private copy of.
pub fn pseudo_model(input: usize, neurons: usize, classes: usize) -> BnnModel {
    pseudo_deep_model(input, neurons, classes, 4)
}

/// The same deterministic weight/bias pattern at an arbitrary hidden
/// depth — `layers > 4` feeds the [`Deep`](crate::Deep) engine's
/// rollback/series schedulers without training anything.
pub fn pseudo_deep_model(
    input: usize,
    neurons: usize,
    classes: usize,
    layers: usize,
) -> BnnModel {
    let topo = Topology::new(input, vec![neurons; layers], classes);
    let built = (0..layers)
        .map(|l| {
            let n_in = topo.layer_input(l);
            let rows: Vec<BitVec> = (0..neurons)
                .map(|j| BitVec::from_bools((0..n_in).map(|i| (i * 7 + j * 3 + l) % 5 < 2)))
                .collect();
            let bias = (0..neurons).map(|j| (j as i32 % 3) - 1).collect();
            BnnLayer::new(rows, bias)
        })
        .collect();
    BnnModel::new(topo, built)
}

/// Which real-time workload a [`UseCase`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UseCaseKind {
    /// Image classification (paper Fig. 15(a)): resize → grayscale filter
    /// → normalization → BNN.
    Image,
    /// Human motion detection (Fig. 15(b)): mean + histogram features →
    /// BNN.
    Motion,
    /// Parametric workload (Figs. 13/14): a calibrated spin loop stands in
    /// for pre-processing so the CPU workload fraction is set exactly.
    Parametric,
    /// Deep network beyond the 4-layer array (paper Section IV-D): runs on
    /// the `Deep` engine via rollback (one core) or a series pipeline of
    /// model segments (N cores); there is no CPU pre-processing phase.
    Deep,
}

/// One item of work: the bytes the DMA stages plus ground truth.
#[derive(Debug, Clone)]
pub struct Item {
    /// Bytes staged into the core's data cache before the CPU phase.
    pub staged: Vec<u8>,
    /// Ground-truth class.
    pub label: usize,
}

/// An end-to-end workload: a trained model plus a batch of items.
#[derive(Debug, Clone)]
pub struct UseCase {
    kind: UseCaseKind,
    model: BnnModel,
    items: Vec<Item>,
    /// For [`UseCaseKind::Parametric`]: requested pre-processing cycles.
    spin_cycles: u64,
}

impl UseCase {
    /// Builds the image-classification use case with `batch` raw frames.
    ///
    /// `train_per_class` controls training-set size (the experiment
    /// binaries use the full default; tests pass something small). The
    /// returned accuracy context lives in the model itself.
    pub fn image(batch: usize, train_per_class: usize, epochs: usize) -> UseCase {
        let noise = digits::DigitsConfig::default().noise;
        // Train on frames that went through the same raw pipeline the
        // use case runs (the 3×3 filter slightly dilates strokes, so
        // training on plain bitmaps would shift the domain).
        let mut rng = Rng::seed_from_u64(76);
        let mut inputs = Vec::with_capacity(train_per_class * digits::CLASSES);
        let mut labels = Vec::with_capacity(train_per_class * digits::CLASSES);
        for digit in 0..digits::CLASSES {
            for _ in 0..train_per_class {
                let raw = digits::render_raw(digit, noise, &mut rng);
                inputs.push(digits::preprocess(&raw));
                labels.push(digit);
            }
        }
        let train_set = ncpu_bnn::data::Dataset::new(inputs, labels, digits::CLASSES);
        let topo = Topology::paper(digits::PIXELS, 100, digits::CLASSES);
        let model =
            train(&topo, &train_set, &TrainConfig { epochs, ..TrainConfig::default() });
        let mut rng = Rng::seed_from_u64(77);
        let items = (0..batch)
            .map(|i| {
                let raw = digits::render_raw(i % digits::CLASSES, noise, &mut rng);
                Item { staged: image::stage_bytes(&raw), label: raw.label() }
            })
            .collect();
        UseCase { kind: UseCaseKind::Image, model, items, spin_cycles: 0 }
    }

    /// Builds the motion-detection use case with `batch` sensor windows.
    pub fn motion(batch: usize, train_per_class: usize, epochs: usize) -> UseCase {
        let cfg = motion::MotionConfig {
            train_per_class,
            test_per_class: 1,
            ..motion::MotionConfig::default()
        };
        let (train_w, _) = motion::generate(&cfg);
        let train_set = motion::to_dataset(&train_w);
        let topo = Topology::paper(motion::INPUT_BITS, 100, motion::CLASSES);
        let model =
            train(&topo, &train_set, &TrainConfig { epochs, ..TrainConfig::default() });
        let mut rng = Rng::seed_from_u64(78);
        let items = (0..batch)
            .map(|i| {
                let w = motion::generate_window(i % motion::CLASSES, cfg.noise, &mut rng);
                Item { staged: motion_prog::stage_bytes(&w), label: w.label() }
            })
            .collect();
        UseCase { kind: UseCaseKind::Motion, model, items, spin_cycles: 0 }
    }

    /// Builds the parametric use case of Figs. 13/14: pre-processing is a
    /// spin loop sized so the CPU workload fraction (CPU cycles over
    /// CPU + BNN cycles) equals `cpu_fraction`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < cpu_fraction < 1`.
    pub fn parametric(cpu_fraction: f64, batch: usize, model: BnnModel) -> UseCase {
        assert!(
            cpu_fraction > 0.0 && cpu_fraction < 1.0,
            "fraction must be in (0, 1)"
        );
        // Inference latency of one image on the layer-pipelined array.
        let infer: u64 = {
            let topo = model.topology();
            (0..topo.layers().len())
                .map(|l| topo.layer_input(l) as u64 + ncpu_accel::SIGN_CYCLES)
                .sum()
        };
        let spin_cycles =
            ((cpu_fraction / (1.0 - cpu_fraction)) * infer as f64).round() as u64;
        let items = (0..batch).map(|_| Item { staged: Vec::new(), label: 0 }).collect();
        UseCase { kind: UseCaseKind::Parametric, model, items, spin_cycles: spin_cycles.max(32) }
    }

    /// Builds a deep-network use case: a model (any depth) plus the raw
    /// input vectors to classify. Labels are the model's own answers —
    /// the deep engines are judged on schedule fidelity, and functional
    /// equivalence between rollback and series modes is asserted against
    /// these reference classifications.
    ///
    /// # Panics
    ///
    /// Panics if any input's width differs from the model's input width.
    pub fn deep(model: BnnModel, inputs: &[ncpu_bnn::BitVec]) -> UseCase {
        let width = model.topology().input();
        let items = inputs
            .iter()
            .map(|input| {
                assert_eq!(input.len(), width, "input width must match the model");
                Item { staged: input.to_bytes(), label: model.classify(input) }
            })
            .collect();
        UseCase { kind: UseCaseKind::Deep, model, items, spin_cycles: 0 }
    }

    /// The workload kind.
    pub const fn kind(&self) -> UseCaseKind {
        self.kind
    }

    /// Stable short name for artifact files (`RUN_<name>.json`).
    pub const fn name(&self) -> &'static str {
        match self.kind {
            UseCaseKind::Image => "image",
            UseCaseKind::Motion => "motion",
            UseCaseKind::Parametric => "parametric",
            UseCaseKind::Deep => "deep",
        }
    }

    /// The trained classifier.
    pub fn model(&self) -> &BnnModel {
        &self.model
    }

    /// The batch of items.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Requested spin cycles (parametric use case only).
    pub const fn spin_cycles(&self) -> u64 {
        self.spin_cycles
    }

    /// Assembly of the pre-processing body (no tail) for this use case.
    pub(crate) fn spin_source(&self) -> Option<String> {
        match self.kind {
            UseCaseKind::Parametric => Some(spin::spin_source(self.spin_cycles)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> BnnModel {
        BnnModel::zeros(&Topology::new(784, vec![100; 4], 10))
    }

    #[test]
    fn parametric_fraction_sets_spin_budget() {
        let m = tiny_model();
        let infer = 785 + 3 * 101;
        let uc = UseCase::parametric(0.7, 2, m);
        let expect = (0.7f64 / 0.3 * infer as f64).round() as u64;
        assert_eq!(uc.spin_cycles(), expect);
        assert_eq!(uc.items().len(), 2);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn parametric_rejects_bad_fraction() {
        UseCase::parametric(1.0, 2, tiny_model());
    }

    #[test]
    fn motion_use_case_builds_quickly_with_tiny_training() {
        let uc = UseCase::motion(2, 4, 2);
        assert_eq!(uc.items().len(), 2);
        assert_eq!(uc.kind(), UseCaseKind::Motion);
        assert_eq!(uc.items()[0].staged.len(), ncpu_workloads::motion::STAGE_BYTES);
    }
}
