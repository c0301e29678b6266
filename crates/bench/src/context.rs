//! Shared experiment context: models, formatting, and simulation helpers.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use ncpu_bnn::data::{digits, motion};
use ncpu_bnn::train::{train, TrainConfig};
use ncpu_bnn::{BitVec, BnnLayer, BnnModel, Topology};

/// A deterministic pseudo-random model of the paper's shape. Timing-only
/// experiments use this — BNN cycle counts are weight-independent — so
/// they skip minutes of training.
pub fn pseudo_model(input: usize, neurons: usize, classes: usize) -> BnnModel {
    let topo = Topology::paper(input, neurons, classes);
    let mut layers = Vec::new();
    for l in 0..4 {
        let n_in = topo.layer_input(l);
        let rows: Vec<BitVec> = (0..neurons)
            .map(|j| BitVec::from_bools((0..n_in).map(|i| (i * 31 + j * 7 + l * 3) % 11 < 5)))
            .collect();
        let bias = (0..neurons).map(|j| (j as i32 % 7) - 3).collect();
        layers.push(BnnLayer::new(rows, bias));
    }
    BnnModel::new(topo, layers)
}

/// The paper's image model (784 → 4×`neurons` → 10).
pub fn image_pseudo_model(neurons: usize) -> BnnModel {
    pseudo_model(digits::PIXELS, neurons, digits::CLASSES)
}

/// The paper's motion model shape (216 → 4×100 → 8).
pub fn motion_pseudo_model() -> BnnModel {
    pseudo_model(motion::INPUT_BITS, 100, motion::CLASSES)
}

/// The digit datasets: real MNIST when its IDX files are found (set
/// `NCPU_MNIST_DIR`, or drop the four classic files in `data/mnist/`),
/// the synthetic generator otherwise. The third element names the source.
pub fn digits_datasets() -> (ncpu_bnn::data::Dataset, ncpu_bnn::data::Dataset, &'static str) {
    let dir = std::env::var("NCPU_MNIST_DIR").unwrap_or_else(|_| "data/mnist".to_string());
    if let Some((train, test)) = ncpu_bnn::data::idx::load_mnist(&dir) {
        return (train, test, "MNIST");
    }
    let (train, test) = digits::generate(&digits::DigitsConfig::default());
    (train, test, "synthetic digits")
}

/// Trains the digits classifier at `neurons` cells/layer; returns the
/// model and its held-out accuracy. Deterministic, so each width trains
/// once per process: Table III reuses the 100-neuron model Fig. 18 trains.
/// A call waits for a concurrent one training the same width.
pub fn trained_digits(neurons: usize) -> (BnnModel, f64) {
    type Trained = Arc<OnceLock<(BnnModel, f64)>>;
    static MEMO: Mutex<BTreeMap<usize, Trained>> = Mutex::new(BTreeMap::new());
    let cell = MEMO.lock().expect("digits memo lock").entry(neurons).or_default().clone();
    cell.get_or_init(|| {
        let (train_set, test_set, _) = digits_datasets();
        let topo = Topology::paper(digits::PIXELS, neurons, digits::CLASSES);
        // Wide arrays need more epochs to settle (STE noise grows with width).
        let epochs = if neurons >= 400 { 60 } else { 40 };
        let model = train(&topo, &train_set, &TrainConfig { epochs, ..TrainConfig::default() });
        let acc = ncpu_bnn::metrics::accuracy(&model, &test_set);
        (model, acc)
    })
    .clone()
}

/// Trains the motion classifier; returns the model and its accuracy.
pub fn trained_motion() -> (BnnModel, f64) {
    let cfg = motion::MotionConfig::default();
    let (train_w, test_w) = motion::generate(&cfg);
    let train_set = motion::to_dataset(&train_w);
    let test_set = motion::to_dataset(&test_w);
    let topo = Topology::paper(motion::INPUT_BITS, 100, motion::CLASSES);
    let model = train(&topo, &train_set, &TrainConfig::default());
    let acc = ncpu_bnn::metrics::accuracy(&model, &test_set);
    (model, acc)
}

/// The DVFS sweep grid the power figures share: 0.40 V to 1.00 V in
/// 50 mV steps (the paper's measured operating range).
pub fn voltage_grid() -> Vec<f64> {
    (0..=12).map(|i| 0.4 + 0.05 * i as f64).collect()
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a frequency in MHz.
pub fn mhz(f_hz: f64) -> String {
    format!("{:.1} MHz", f_hz / 1.0e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pseudo_models_are_deterministic_and_shaped() {
        let a = image_pseudo_model(100);
        let b = image_pseudo_model(100);
        assert_eq!(a.layers()[0].weight_row(0), b.layers()[0].weight_row(0));
        assert_eq!(a.topology().input(), 784);
        assert_eq!(motion_pseudo_model().topology().input(), 216);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.357), "35.7%");
        assert_eq!(mhz(960.0e6), "960.0 MHz");
    }
}
