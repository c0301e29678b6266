//! Use-case definitions: what runs end to end.

use ncpu_bnn::data::{digits, motion};
use ncpu_bnn::train::{train, TrainConfig};
use ncpu_bnn::{BitVec, BnnLayer, BnnModel, Topology};
use ncpu_workloads::{image, motion as motion_prog, spin};
use ncpu_testkit::rng::Rng;

use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use ncpu_pipeline::Program;

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
/// depth — `layers > 4` feeds the deep modes' rollback/series
/// schedulers without training anything.
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
    /// A deep network beyond the 4-layer array (paper Section IV-D): runs
    /// on either engine via rollback (one core) or a series pipeline of
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
///
/// Clones share the model (every core built from the use case points at
/// it), the NCPU programs assembled for it (a program memo; each program
/// keeps the block timing table the event engine prices items from, so
/// every run of every scenario built from this use case measures a block
/// once) and the hashed prefix of its scenarios' cache keys.
/// [`UseCase::with_batch`] shares all but the prefix. The memos are
/// caches: they never change a result.
#[derive(Debug, Clone)]
pub struct UseCase {
    kind: UseCaseKind,
    model: Arc<BnnModel>,
    items: Vec<Item>,
    /// For [`UseCaseKind::Parametric`]: requested pre-processing cycles.
    spin_cycles: u64,
    programs: Arc<ProgramMemo>,
    key_prefix: Arc<KeyPrefix>,
}

/// The FNV-1a state after the canonical encoding's prefix for a
/// scenario led by this use case (the tag, then the use case's model
/// and staged items; see [`crate::canonical`]). Computed on the first
/// cache key, so a use case that is never keyed never hashes its model.
#[derive(Default)]
pub(crate) struct KeyPrefix(OnceLock<u64>);

impl std::fmt::Debug for KeyPrefix {
    /// Constant: the prefix is a cache, not part of a use case's value.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("KeyPrefix")
    }
}

/// The NCPU programs assembled for one use case, keyed by their tail's
/// `(image_base, output_base, result_l2)` — everything a core adds to
/// the use case's program. Every run and serve worker of the use case
/// then loads the same decoded and lowered image instead of assembling
/// its own. Holds one entry per distinct key (one per result mailbox
/// in use), so it needs no bound.
#[derive(Default)]
pub(crate) struct ProgramMemo {
    programs: Mutex<Vec<(ProgramKey, Program)>>,
}

/// A program tail's `(image_base, output_base, result_l2)`.
type ProgramKey = (u32, u32, u32);

impl std::fmt::Debug for ProgramMemo {
    /// Constant: the memo is a cache, not part of a use case's value.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgramMemo")
    }
}

impl ProgramMemo {
    /// The program stored under `key`, built by `build` (outside the
    /// lock) and stored on the first request. Entries never change once
    /// stored, so a lock poisoned by a panicking holder is taken over.
    pub(crate) fn get_or_build(
        &self,
        key: ProgramKey,
        build: impl FnOnce() -> Program,
    ) -> Program {
        let find = |list: &[(ProgramKey, Program)]| {
            list.iter().find(|(k, _)| *k == key).map(|(_, p)| p.clone())
        };
        let lock = || self.programs.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(program) = find(&lock()) {
            return program;
        }
        let built = build();
        let mut list = lock();
        // A concurrent run may have stored it meanwhile: share that one.
        if let Some(program) = find(&list) {
            return program;
        }
        list.push((key, built.clone()));
        built
    }
}

impl UseCase {
    /// Builds the image-classification use case with `batch` camera frames.
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
        UseCase::build(UseCaseKind::Image, model, staged_items(UseCaseKind::Image, batch), 0)
    }

    /// Builds the motion-detection use case with `batch` sensor windows.
    pub fn motion(batch: usize, train_per_class: usize, epochs: usize) -> UseCase {
        let cfg = motion::MotionConfig {
            train_per_class,
            test_per_class: 0,
            ..motion::MotionConfig::default()
        };
        let (train_w, _) = motion::generate(&cfg);
        let train_set = motion::to_dataset(&train_w);
        let topo = Topology::paper(motion::INPUT_BITS, 100, motion::CLASSES);
        let model =
            train(&topo, &train_set, &TrainConfig { epochs, ..TrainConfig::default() });
        UseCase::build(UseCaseKind::Motion, model, staged_items(UseCaseKind::Motion, batch), 0)
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
        UseCase::build(UseCaseKind::Parametric, model, items, spin_cycles.max(32))
    }

    /// Builds a deep-network use case: a model (any depth) plus the raw
    /// input vectors to classify. Labels are the model's own answers —
    /// the deep modes are judged on schedule fidelity, and functional
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
        UseCase::build(UseCaseKind::Deep, model, items, 0)
    }

    fn build(kind: UseCaseKind, model: BnnModel, items: Vec<Item>, spin_cycles: u64) -> UseCase {
        UseCase {
            kind,
            model: Arc::new(model),
            items,
            spin_cycles,
            programs: Arc::default(),
            key_prefix: Arc::default(),
        }
    }

    /// This trained use case with `batch` items in place of its own.
    ///
    /// Neither the model nor item *i* of [`UseCase::image`] or
    /// [`UseCase::motion`] depends on the batch size, so the result is
    /// byte-identical to a fresh build of the same kind and training
    /// config at `batch`, without training again. It shares this use
    /// case's model and program memo (its entries are
    /// keyed on what they depend on, never on an item index); its
    /// cache-key prefix, which hashes the items, is its own.
    ///
    /// # Panics
    ///
    /// Panics unless the use case is an image or motion one: parametric
    /// and deep items are not generated here.
    pub fn with_batch(&self, batch: usize) -> UseCase {
        UseCase {
            kind: self.kind,
            model: Arc::clone(&self.model),
            items: staged_items(self.kind, batch),
            spin_cycles: self.spin_cycles,
            programs: Arc::clone(&self.programs),
            key_prefix: Arc::default(),
        }
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

    /// The shared handle to the model, for building cores without
    /// copying it.
    pub(crate) fn shared_model(&self) -> &Arc<BnnModel> {
        &self.model
    }

    /// The batch of items.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Test fixture: every item repeated `times` times in place
    /// (`[a, b]` becomes `[a, a, b, b]` for 2), so the same staged bytes
    /// run more than once.
    #[cfg(test)]
    pub(crate) fn with_repeated_items(mut self, times: usize) -> UseCase {
        self.items = self.items.iter().flat_map(|item| vec![item.clone(); times]).collect();
        self.key_prefix = Arc::default();
        self
    }

    /// The FNV-1a state after the cache-key prefix this use case fixes,
    /// hashed on the first call and shared by every clone.
    pub(crate) fn key_prefix(&self) -> u64 {
        *self.key_prefix.0.get_or_init(|| crate::canonical::prefix_state(self))
    }

    /// The program memo every clone of this use case shares.
    pub(crate) fn programs(&self) -> &ProgramMemo {
        &self.programs
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

/// The first `batch` items of a trained use case: camera frames
/// (image) or sensor windows (motion) cycling through the classes, drawn
/// from one fixed seed per kind, so item *i* is the same at every batch
/// size.
///
/// # Panics
///
/// Panics for a parametric or deep `kind`.
fn staged_items(kind: UseCaseKind, batch: usize) -> Vec<Item> {
    match kind {
        UseCaseKind::Image => {
            let noise = digits::DigitsConfig::default().noise;
            let mut rng = Rng::seed_from_u64(77);
            (0..batch)
                .map(|i| {
                    let raw = digits::render_raw(i % digits::CLASSES, noise, &mut rng);
                    Item { staged: image::stage_bytes(&raw), label: raw.label() }
                })
                .collect()
        }
        UseCaseKind::Motion => {
            let noise = motion::MotionConfig::default().noise;
            let mut rng = Rng::seed_from_u64(78);
            (0..batch)
                .map(|i| {
                    let w = motion::generate_window(i % motion::CLASSES, noise, &mut rng);
                    Item { staged: motion_prog::stage_bytes(&w), label: w.label() }
                })
                .collect()
        }
        UseCaseKind::Parametric | UseCaseKind::Deep => {
            panic!("only image and motion items are generated")
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

    /// Every clone of a use case builds each program key once and then
    /// hands out the stored program.
    #[test]
    fn program_memo_builds_each_key_once_for_every_clone() {
        let uc = UseCase::parametric(0.5, 1, tiny_model());
        let clone = uc.clone();
        let builds = std::cell::Cell::new(0);
        let get = |uc: &UseCase, key: ProgramKey| {
            uc.programs().get_or_build(key, || {
                builds.set(builds.get() + 1);
                Program::new(vec![key.2])
            })
        };
        assert_eq!(get(&uc, (1, 2, 0x40)).words(), [0x40]);
        assert_eq!(get(&clone, (1, 2, 0x40)).words(), [0x40]);
        assert_eq!(get(&clone, (1, 2, 0x44)).words(), [0x44]);
        assert_eq!(get(&uc, (1, 2, 0x44)).words(), [0x44]);
        assert_eq!(builds.get(), 2);
    }

    /// Cores built from one use case share its model instead of copying it.
    #[test]
    fn cores_share_the_use_case_model() {
        let uc = UseCase::parametric(0.5, 1, tiny_model());
        let soc = crate::SocConfig::default();
        let level = ncpu_obs::TraceLevel::Counters;
        let l2 = ncpu_core::SharedL2::new(1024);
        let a = crate::fabric::ncpu_core(&uc, &soc, level, l2.clone());
        let b = crate::fabric::ncpu_core(&uc.clone(), &soc, level, l2);
        assert!(std::ptr::eq(a.accel().model(), uc.model()));
        assert!(std::ptr::eq(b.accel().model(), uc.model()));
    }

    /// A rebatched use case stages exactly what a fresh build of that
    /// batch stages and shares the training's model and memos, but
    /// hashes its own cache-key prefix.
    #[test]
    fn with_batch_matches_a_fresh_build_and_shares_the_training() {
        let items = |uc: &UseCase| -> Vec<(Vec<u8>, usize)> {
            uc.items().iter().map(|item| (item.staged.clone(), item.label)).collect()
        };
        for uc in [UseCase::image(3, 1, 1), UseCase::motion(3, 2, 1)] {
            for batch in [0, 1, 5] {
                let fresh = match uc.kind() {
                    UseCaseKind::Image => UseCase::image(batch, 1, 1),
                    _ => UseCase::motion(batch, 2, 1),
                };
                let rebatched = uc.with_batch(batch);
                assert_eq!(items(&rebatched), items(&fresh), "{} {batch}", uc.name());
                assert_eq!(rebatched.model(), fresh.model());
                assert!(Arc::ptr_eq(&rebatched.model, &uc.model));
                assert!(Arc::ptr_eq(&rebatched.programs, &uc.programs));
                assert!(!Arc::ptr_eq(&rebatched.key_prefix, &uc.key_prefix));
            }
        }
    }

    #[test]
    fn motion_use_case_builds_quickly_with_tiny_training() {
        let uc = UseCase::motion(2, 4, 2);
        assert_eq!(uc.items().len(), 2);
        assert_eq!(uc.kind(), UseCaseKind::Motion);
        assert_eq!(uc.items()[0].staged.len(), ncpu_workloads::motion::STAGE_BYTES);
    }
}
