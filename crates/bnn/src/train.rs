//! Straight-through-estimator (STE) training for binarized networks.
//!
//! Training follows Hubara et al. (the paper's reference \[39\]): real-valued
//! shadow weights are binarized by sign on the forward pass; gradients flow
//! through the sign function inside a clipped window. Pre-activation sums
//! are normalized by `1/√fan_in` so the clip window and learning rate are
//! layer-size independent. Exported models carry only ±1 weights and
//! integer biases — exactly what the accelerator stores in its weight SRAM.

use ncpu_testkit::rng::Rng;

use crate::bits::BitVec;
use crate::data::Dataset;
use crate::model::{BnnLayer, BnnModel, Topology};

/// Hyper-parameters for [`train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Mini-batch size.
    pub batch: usize,
    /// RNG seed (initialization and shuffling are deterministic in it).
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig { epochs: 40, lr: 0.05, momentum: 0.9, batch: 16, seed: 7 }
    }
}

/// Real-valued shadow parameters of one neuron during training.
#[derive(Debug, Clone)]
struct ShadowRow {
    /// Shadow weights in `[-1, 1]`.
    w: Vec<f32>,
    vw: Vec<f32>,
    b: f32,
    vb: f32,
    /// Sign bits of `w` (`w >= 0` → 1), packed 64 per word with zero
    /// slack: the only weights the forward and `da` kernels read.
    signs: Vec<u64>,
}

/// Real-valued shadow parameters of one layer during training.
#[derive(Debug, Clone)]
struct ShadowLayer {
    rows: Vec<ShadowRow>,
    inputs: usize,
}

impl ShadowLayer {
    fn new(inputs: usize, neurons: usize, rng: &mut Rng) -> ShadowLayer {
        let rows = (0..neurons)
            .map(|_| {
                let w: Vec<f32> = (0..inputs).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
                ShadowRow { signs: pack_signs(&w), vw: vec![0.0; inputs], w, b: 0.0, vb: 0.0 }
            })
            .collect();
        ShadowLayer { rows, inputs }
    }

    fn scale(&self) -> f32 {
        1.0 / (self.inputs as f32).sqrt()
    }

    /// Forward with binarized weights on a ±1 input given as bits:
    /// returns normalized pre-activations.
    ///
    /// Each dot product is `n − 2·popcount(signs XOR x)`: exactly the
    /// integer a float sum of `n` ±1 terms reaches, since no partial sum
    /// exceeds `n` ≤ 2^24.
    fn forward(&self, x: &[u64]) -> Vec<f32> {
        let s = self.scale();
        self.rows
            .iter()
            .map(|row| {
                let disagree: u32 =
                    row.signs.iter().zip(x).map(|(w, x)| (w ^ x).count_ones()).sum();
                let z = self.inputs as i32 - 2 * disagree as i32;
                (z as f32 + row.b) * s
            })
            .collect()
    }

    /// Gradient with respect to the layer input, given the scaled
    /// pre-activation gradient `dz`: `da[i]` sums `±dz[j]` over neurons
    /// in order, the sign that of `w[j][i]`.
    fn input_grad(&self, dz: &[f32]) -> Vec<f32> {
        let terms: Vec<(&[u64], f32)> = self
            .rows
            .iter()
            .zip(dz)
            .filter(|&(_, &d)| d != 0.0)
            .map(|(row, &d)| (&row.signs[..], d))
            .collect();
        (0..self.inputs.div_ceil(8)).flat_map(|k| signed_sum(&terms, k)).take(self.inputs).collect()
    }

    /// Takes one momentum step on this layer's (layer `l`'s) gradient
    /// over `batch`, then repacks the sign bits.
    ///
    /// Neuron `j`'s gradient is summed from the per-sample rank-1 factors,
    /// walking the samples in order: each weight slot receives one
    /// `±dz[j]` per sample whose `dz[j]` is nonzero, the very additions a
    /// dense per-sample accumulation makes, in the same order.
    fn apply(&mut self, l: usize, batch: &[SampleGrad], config: &TrainConfig) {
        let (lr, momentum) = (config.lr, config.momentum);
        let inv_batch = 1.0 / batch.len() as f32;
        for (j, row) in self.rows.iter_mut().enumerate() {
            let terms: Vec<(&[u64], f32)> = batch
                .iter()
                .map(|sample| &sample[l])
                .filter(|(_, dz)| dz[j] != 0.0)
                .map(|(x, dz)| (&x[..], dz[j]))
                .collect();
            let gb = terms.iter().fold(0.0f32, |gb, &(_, d)| gb + d);
            for (k, (w, vw)) in row.w.chunks_mut(8).zip(row.vw.chunks_mut(8)).enumerate() {
                for ((w, v), g) in w.iter_mut().zip(vw).zip(signed_sum(&terms, k)) {
                    *v = momentum * *v - lr * g * inv_batch;
                    // STE weight clipping keeps shadow weights in [-1, 1].
                    *w = (*w + *v).clamp(-1.0, 1.0);
                }
            }
            row.vb = momentum * row.vb - lr * gb * inv_batch;
            row.b += row.vb;
            row.signs = pack_signs(&row.w);
        }
    }

    fn export(&self) -> BnnLayer {
        let rows = self.rows.iter().map(|row| BitVec::from_signs(&row.w)).collect();
        let bias = self.rows.iter().map(|row| row.b.round() as i32).collect();
        BnnLayer::new(rows, bias)
    }
}

/// One sample's gradient, per layer: the layer's ±1 input as sign bits
/// and its scaled pre-activation gradient `dz`. The layer's weight
/// gradient is their outer product `dz ⊗ x`, never stored densely.
type SampleGrad = Vec<(Vec<u64>, Vec<f32>)>;

/// Packs the signs of `values` (`>= 0` → 1), 64 per word, slack bits zero.
fn pack_signs(values: &[f32]) -> Vec<u64> {
    values
        .chunks(64)
        .map(|chunk| {
            chunk.iter().enumerate().fold(0, |word, (k, &v)| word | u64::from(v >= 0.0) << k)
        })
        .collect()
}

/// For each byte of sign bits, the `f32` sign-bit masks of its eight
/// lanes: lane `k` flips (`d` becomes `-d`) where bit `k` is clear.
const SIGN_FLIPS: [[u32; 8]; 256] = {
    let mut table = [[0u32; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut k = 0;
        while k < 8 {
            if byte >> k & 1 == 0 {
                table[byte][k] = 1 << 31;
            }
            k += 1;
        }
        byte += 1;
    }
    table
};

/// Lanes `8k..8k + 8` of `Σ d·x` over `terms`, each a ±1 vector `x`
/// given as bits with a weight `d`, summed in the order of `terms`.
/// Multiplying by ±1 is exact, so each addend is `±d`: `d` with its sign
/// bit flipped by a lookup on byte `k` of the bits.
fn signed_sum(terms: &[(&[u64], f32)], k: usize) -> [f32; 8] {
    let mut sum = [0.0f32; 8];
    for &(bits, d) in terms {
        let byte = (bits[k / 8] >> (k % 8 * 8)) as u8;
        for (s, &flip) in sum.iter_mut().zip(&SIGN_FLIPS[usize::from(byte)]) {
            *s += f32::from_bits(d.to_bits() ^ flip);
        }
    }
    sum
}

/// One sample's forward/backward pass: returns its per-layer rank-1
/// gradient factors.
fn sample_grad(
    layers: &[ShadowLayer],
    topology: &Topology,
    data: &Dataset,
    idx: usize,
) -> SampleGrad {
    let nlayers = layers.len();
    let (input, label) = data.sample(idx);
    assert_eq!(input.len(), topology.input(), "sample width mismatch");
    // ---- forward: every layer input is ±1, kept as bits ----
    let mut xs: Vec<Vec<u64>> = vec![input.words().to_vec()];
    let mut zns: Vec<Vec<f32>> = Vec::with_capacity(nlayers);
    for (l, layer) in layers.iter().enumerate() {
        let zn = layer.forward(&xs[l]);
        // Hidden outputs binarize by sign; the last layer's stay linear,
        // and only its first `classes` are read.
        if l + 1 < nlayers {
            xs.push(pack_signs(&zn));
        }
        zns.push(zn);
    }
    // ---- loss gradient at the output ----
    let classes = topology.classes();
    let probs = softmax(&zns[nlayers - 1][..classes]);
    let mut dzn = vec![0.0f32; topology.layers()[nlayers - 1]];
    for c in 0..classes {
        dzn[c] = probs[c] - if c == label { 1.0 } else { 0.0 };
    }
    // ---- backward ----
    let mut dzs = vec![Vec::new(); nlayers];
    for l in (0..nlayers).rev() {
        let s = layers[l].scale();
        let dz: Vec<f32> = dzn.iter().map(|&d| d * s).collect();
        if l > 0 {
            // Gradient through the hidden sign: clipped STE.
            dzn = layers[l]
                .input_grad(&dz)
                .iter()
                .zip(&zns[l - 1])
                .map(|(&d, &zn)| if zn.abs() <= 1.0 { d } else { 0.0 })
                .collect();
        }
        dzs[l] = dz;
    }
    xs.into_iter().zip(dzs).collect()
}

fn softmax(z: &[f32]) -> Vec<f32> {
    let m = z.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = z.iter().map(|&v| (v - m).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Trains a BNN of shape `topology` on `data` and exports the binary model.
///
/// Training is deterministic in `config.seed`, and the exported model is
/// byte-identical for every `NCPU_THREADS` value: workers map a
/// minibatch's samples to their rank-1 gradient factors, and one reduction
/// on the calling thread then sums each weight's gradient from those
/// factors in sample order, the same additions in the same order for any
/// worker count.
///
/// # Panics
///
/// Panics if the dataset is empty, a sample's width differs from the
/// topology input, or a label is out of range.
///
/// # Examples
///
/// ```
/// use ncpu_bnn::{data::Dataset, train::{train, TrainConfig}, BitVec, Topology};
///
/// // Learn "class = first bit".
/// let inputs: Vec<BitVec> =
///     (0..40).map(|i| BitVec::from_bools((0..8).map(|b| (i + b) % 2 == 0))).collect();
/// let labels: Vec<usize> = inputs.iter().map(|x| x.get(0) as usize).collect();
/// let data = Dataset::new(inputs, labels, 2);
/// let model = train(&Topology::new(8, vec![8], 2), &data, &TrainConfig::default());
/// let acc = ncpu_bnn::metrics::accuracy(&model, &data);
/// assert!(acc > 0.9, "easy task must be learned, got {acc}");
/// ```
pub fn train(topology: &Topology, data: &Dataset, config: &TrainConfig) -> BnnModel {
    let layers = train_shadow(topology, data, config);
    BnnModel::new(topology.clone(), layers.iter().map(ShadowLayer::export).collect())
}

/// [`train`] up to the shadow parameters, before export.
fn train_shadow(topology: &Topology, data: &Dataset, config: &TrainConfig) -> Vec<ShadowLayer> {
    assert!(!data.is_empty(), "empty training set");
    assert!(data.classes() <= topology.classes(), "label range exceeds topology classes");
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut layers: Vec<ShadowLayer> = (0..topology.layers().len())
        .map(|l| ShadowLayer::new(topology.layer_input(l), topology.layers()[l], &mut rng))
        .collect();

    let mut order: Vec<usize> = (0..data.len()).collect();
    let pool = ncpu_par::Pool::from_env();
    for _epoch in 0..config.epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(config.batch) {
            let batch = pool.par_map_indexed(chunk.to_vec(), |_, idx| {
                sample_grad(&layers, topology, data, idx)
            });
            for (l, layer) in layers.iter_mut().enumerate() {
                layer.apply(l, &batch, config);
            }
        }
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;

    fn parity_dataset(n: usize, bits: usize, seed: u64) -> Dataset {
        // Class = majority vote of the bits: linearly separable, noisy-free.
        let mut rng = Rng::seed_from_u64(seed);
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let v: Vec<bool> = (0..bits).map(|_| rng.gen_bool(0.5)).collect();
            let ones = v.iter().filter(|&&b| b).count();
            labels.push((ones * 2 > bits) as usize);
            inputs.push(BitVec::from_bools(v));
        }
        Dataset::new(inputs, labels, 2)
    }

    #[test]
    fn learns_majority_function() {
        let data = parity_dataset(200, 16, 3);
        let topo = Topology::new(16, vec![16, 16], 2);
        let model = train(&topo, &data, &TrainConfig { epochs: 30, ..TrainConfig::default() });
        let acc = accuracy(&model, &data);
        assert!(acc > 0.9, "majority should be learnable, got {acc}");
    }

    #[test]
    fn deterministic_in_seed() {
        let data = parity_dataset(50, 8, 1);
        let topo = Topology::new(8, vec![8], 2);
        let cfg = TrainConfig { epochs: 3, ..TrainConfig::default() };
        let a = train(&topo, &data, &cfg);
        let b = train(&topo, &data, &cfg);
        assert_eq!(a.layers()[0].weight_row(0), b.layers()[0].weight_row(0));
        assert_eq!(a.layers()[0].bias(0), b.layers()[0].bias(0));
    }

    #[test]
    fn different_seeds_differ() {
        let data = parity_dataset(50, 8, 1);
        let topo = Topology::new(8, vec![8], 2);
        let a = train(&topo, &data, &TrainConfig { seed: 1, epochs: 2, ..TrainConfig::default() });
        let b = train(&topo, &data, &TrainConfig { seed: 2, epochs: 2, ..TrainConfig::default() });
        assert_ne!(
            (0..8).map(|j| a.layers()[0].weight_row(j).clone()).collect::<Vec<_>>(),
            (0..8).map(|j| b.layers()[0].weight_row(j).clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn exported_model_is_pure_binary() {
        let data = parity_dataset(30, 8, 9);
        let topo = Topology::new(8, vec![4], 2);
        let model = train(&topo, &data, &TrainConfig { epochs: 1, ..TrainConfig::default() });
        // Shape invariants guaranteed by construction; biases are integers.
        assert_eq!(model.layers()[0].neurons(), 4);
        assert_eq!(model.layers()[0].input_len(), 8);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_dataset_rejected() {
        let topo = Topology::new(8, vec![4], 2);
        train(&topo, &Dataset::new(vec![], vec![], 2), &TrainConfig::default());
    }

    /// FNV-1a over every shadow parameter's bits, per layer in the
    /// order `w` (row-major), `vw`, `b`, `vb`.
    fn shadow_digest(layers: &[ShadowLayer]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for layer in layers {
            let rows = &layer.rows;
            let values = rows
                .iter()
                .flat_map(|r| &r.w)
                .chain(rows.iter().flat_map(|r| &r.vw))
                .chain(rows.iter().map(|r| &r.b))
                .chain(rows.iter().map(|r| &r.vb));
            for v in values {
                for byte in v.to_bits().to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// The shadow parameters after two epochs on 100-bit inputs (rows of
    /// two words, the second with slack), pinned bit for bit. Exported
    /// models keep only signs and rounded biases, so a reassociated float
    /// sum can leave them unchanged; this pin sees every low bit.
    #[test]
    fn shadow_state_is_pinned() {
        let data = parity_dataset(64, 100, 5);
        let topo = Topology::new(100, vec![24, 24], 2);
        let layers =
            train_shadow(&topo, &data, &TrainConfig { epochs: 2, ..TrainConfig::default() });
        assert_eq!(shadow_digest(&layers), 0x49ee_dcd5_f410_4a2c);
    }

    #[test]
    fn softmax_is_normalized() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }
}
