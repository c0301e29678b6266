//! Weight layout in the SRAM banks.
//!
//! Weights are stored neuron-major: one row of `ceil(inputs/8)` bytes per
//! neuron, padded to a 32-bit boundary so each broadcast cycle reads whole
//! words. The same layout is what the NCPU's CPU mode sees when the weight
//! banks are reconfigured as data cache, so it must round-trip exactly.

use ncpu_bnn::{BitVec, BnnLayer};

/// Bytes one padded weight row occupies for a layer with `inputs` inputs.
pub fn packed_row_bytes(inputs: usize) -> usize {
    inputs.div_ceil(8).div_ceil(4) * 4
}

/// Packs a layer's weight rows into the bank image.
///
/// Returns the packed bytes: `neurons × packed_row_bytes(inputs)`.
pub fn pack_layer_weights(layer: &BnnLayer) -> Vec<u8> {
    let row_bytes = packed_row_bytes(layer.input_len());
    let mut out = vec![0u8; layer.neurons() * row_bytes];
    for j in 0..layer.neurons() {
        let row = layer.weight_row(j).to_bytes();
        out[j * row_bytes..j * row_bytes + row.len()].copy_from_slice(&row);
    }
    out
}

/// Recovers weight rows from a packed bank image.
///
/// # Panics
///
/// Panics if `bytes` is shorter than `neurons × packed_row_bytes(inputs)`.
pub fn unpack_layer_weights(bytes: &[u8], inputs: usize, neurons: usize) -> Vec<BitVec> {
    let row_bytes = packed_row_bytes(inputs);
    assert!(bytes.len() >= neurons * row_bytes, "bank image too small");
    (0..neurons)
        .map(|j| BitVec::from_bytes(&bytes[j * row_bytes..(j + 1) * row_bytes], inputs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_padding() {
        assert_eq!(packed_row_bytes(784), 100); // 98 -> 100
        assert_eq!(packed_row_bytes(100), 16); // 13 -> 16
        assert_eq!(packed_row_bytes(32), 4);
        assert_eq!(packed_row_bytes(1), 4);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let rows: Vec<BitVec> = (0..5)
            .map(|j| BitVec::from_bools((0..77).map(|i| (i * 3 + j) % 4 == 0)))
            .collect();
        let layer = BnnLayer::new(rows.clone(), vec![0; 5]);
        let packed = pack_layer_weights(&layer);
        assert_eq!(packed.len(), 5 * packed_row_bytes(77));
        assert_eq!(unpack_layer_weights(&packed, 77, 5), rows);
    }

    #[test]
    fn paper_sizes_fit_their_banks() {
        // Layer 1: 784 inputs × 100 neurons -> 10 000 B ≤ 25 KiB.
        assert!(100 * packed_row_bytes(784) <= 25 * 1024);
        // Layers 2–4: 100 × 100 -> 1 600 B ≤ 6.5 KiB.
        assert!(100 * packed_row_bytes(100) <= 6 * 1024 + 512);
    }
}
