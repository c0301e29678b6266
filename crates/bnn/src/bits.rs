//! Packed ±1 bit vectors with XNOR-popcount arithmetic.

use std::fmt;

/// A fixed-length vector over {-1, +1}, packed 64 values per word.
///
/// Bit value `1` represents `+1`, bit value `0` represents `-1` — the same
/// convention the accelerator's XNOR neurons use. The core operation is
/// [`dot`](BitVec::dot): the exact ±1 dot product computed as
/// `2·popcount(XNOR) − n`.
///
/// # Examples
///
/// ```
/// use ncpu_bnn::BitVec;
///
/// let a = BitVec::from_bools([true, true, false, false]);
/// let b = BitVec::from_bools([true, false, true, false]);
/// // (+1·+1) + (+1·-1) + (-1·+1) + (-1·-1) = 0
/// assert_eq!(a.dot(&b), 0);
/// assert_eq!(a.dot(&a), 4);
/// ```
/// # Representation invariants
///
/// * Slack bits (positions `len..` of the last word) are always **zero**;
///   every constructor and mutator maintains this, so whole-word popcounts
///   need no masking.
/// * `tail_mask` is precomputed at construction: all-ones when `len` is a
///   multiple of 64, else the low `len % 64` bits. The dot-product hot
///   loop applies it to the last XNOR word only — XNOR turns matching
///   slack zeros into ones, and this is the single place a mask is needed.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
    tail_mask: u64,
}

/// Mask selecting the valid bits of the last word of a `len`-bit vector.
const fn tail_mask_for(len: usize) -> u64 {
    if len.is_multiple_of(64) {
        !0
    } else {
        (1u64 << (len % 64)) - 1
    }
}

impl BitVec {
    /// Creates a vector of `len` elements, all −1 (bits clear).
    pub fn zeros(len: usize) -> BitVec {
        BitVec { words: vec![0; len.div_ceil(64)], len, tail_mask: tail_mask_for(len) }
    }

    /// Builds a vector from boolean values (`true` → +1).
    pub fn from_bools<I: IntoIterator<Item = bool>>(bits: I) -> BitVec {
        let mut words = Vec::new();
        let mut len = 0;
        for b in bits {
            if len % 64 == 0 {
                words.push(0u64);
            }
            if b {
                *words.last_mut().expect("pushed above") |= 1 << (len % 64);
            }
            len += 1;
        }
        BitVec { words, len, tail_mask: tail_mask_for(len) }
    }

    /// Builds a vector from the signs of real values (`>= 0` → +1).
    pub fn from_signs<'a, I: IntoIterator<Item = &'a f32>>(values: I) -> BitVec {
        BitVec::from_bools(values.into_iter().map(|&v| v >= 0.0))
    }

    /// Number of elements.
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero elements.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Element `i` as a boolean (`true` → +1).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Element `i` as ±1.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn sign(&self, i: usize) -> i32 {
        if self.get(i) {
            1
        } else {
            -1
        }
    }

    /// Sets element `i` (`true` → +1).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Number of +1 elements.
    ///
    /// Whole-word popcounts with no masking: the slack-bits-zero invariant
    /// makes the stored words exact.
    pub fn count_ones(&self) -> usize {
        debug_assert!(self.slack_bits_clear());
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Exact ±1 dot product via XNOR-popcount.
    ///
    /// The hot kernel of BNN inference: a 4-way unrolled popcount
    /// accumulation over full words, with the precomputed
    /// [`tail_mask`](Self) applied to the last word only (XNOR of matching
    /// slack zeros yields ones, so that single mask is unavoidable).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &BitVec) -> i32 {
        assert_eq!(self.len, other.len, "dot of unequal lengths");
        let n = self.words.len();
        if n == 0 {
            return 0;
        }
        let (head_a, last_a) = self.words.split_at(n - 1);
        let (head_b, last_b) = other.words.split_at(n - 1);
        let mut chunks_a = head_a.chunks_exact(4);
        let mut chunks_b = head_b.chunks_exact(4);
        let mut acc = [0u32; 4];
        for (wa, wb) in chunks_a.by_ref().zip(chunks_b.by_ref()) {
            acc[0] += (!(wa[0] ^ wb[0])).count_ones();
            acc[1] += (!(wa[1] ^ wb[1])).count_ones();
            acc[2] += (!(wa[2] ^ wb[2])).count_ones();
            acc[3] += (!(wa[3] ^ wb[3])).count_ones();
        }
        let mut matches = acc[0] + acc[1] + acc[2] + acc[3];
        for (wa, wb) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
            matches += (!(wa ^ wb)).count_ones();
        }
        matches += (!(last_a[0] ^ last_b[0]) & self.tail_mask).count_ones();
        2 * matches as i32 - self.len as i32
    }

    /// Iterates over elements as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// The packed 64-bit words. Unused high bits of the last word are
    /// guaranteed zero (the slack-bits-zero invariant), so whole-word
    /// popcounts over this slice are exact.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Invariant check: no slack bit of the last word is set.
    fn slack_bits_clear(&self) -> bool {
        self.words.last().is_none_or(|&w| w & !self.tail_mask == 0)
    }

    /// Packs the vector into little-endian bytes (bit i of byte i/8),
    /// the layout the accelerator's image memory uses.
    ///
    /// Word-wise: element `i` is bit `i % 64` of word `i / 64`, so the
    /// little-endian bytes of the words are already this layout, and the
    /// slack-bits-zero invariant makes truncating them to `len.div_ceil(8)`
    /// bytes exact (the last byte's unused high bits are zero either way).
    pub fn to_bytes(&self) -> Vec<u8> {
        debug_assert!(self.slack_bits_clear());
        let mut out: Vec<u8> = self.words.iter().flat_map(|w| w.to_le_bytes()).collect();
        out.truncate(self.len.div_ceil(8));
        out
    }

    /// Unpacks `len` bits from little-endian bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `len` bits.
    pub fn from_bytes(bytes: &[u8], len: usize) -> BitVec {
        assert!(bytes.len() * 8 >= len, "not enough bytes for {len} bits");
        BitVec::from_bools((0..len).map(|i| bytes[i / 8] >> (i % 8) & 1 == 1))
    }

}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        for i in 0..self.len.min(64) {
            f.write_str(if self.get(i) { "+" } else { "-" })?;
        }
        if self.len > 64 {
            write!(f, "… ({} more)", self.len - 64)?;
        }
        f.write_str("]")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> BitVec {
        BitVec::from_bools(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dot(a: &BitVec, b: &BitVec) -> i32 {
        (0..a.len()).map(|i| a.sign(i) * b.sign(i)).sum()
    }

    #[test]
    fn dot_matches_naive_on_varied_lengths() {
        for len in [1usize, 7, 63, 64, 65, 100, 128, 200, 784] {
            let a = BitVec::from_bools((0..len).map(|i| (i * 7) % 3 == 0));
            let b = BitVec::from_bools((0..len).map(|i| (i * 5) % 4 < 2));
            assert_eq!(a.dot(&b), naive_dot(&a, &b), "len={len}");
        }
    }

    #[test]
    fn self_dot_is_len() {
        let v = BitVec::from_bools((0..100).map(|i| i % 2 == 0));
        assert_eq!(v.dot(&v), 100);
    }

    #[test]
    fn set_get_round_trip() {
        let mut v = BitVec::zeros(70);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(69, true);
        assert!(v.get(0) && v.get(63) && v.get(64) && v.get(69));
        assert!(!v.get(1));
        assert_eq!(v.count_ones(), 4);
        v.set(64, false);
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn byte_round_trip() {
        let v = BitVec::from_bools((0..77).map(|i| (i * 13) % 5 < 2));
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), 10);
        assert_eq!(BitVec::from_bytes(&bytes, 77), v);
    }

    #[test]
    fn from_signs_thresholds_at_zero() {
        let v = BitVec::from_signs(&[-0.5f32, 0.0, 0.5]);
        assert!(!v.get(0));
        assert!(v.get(1));
        assert!(v.get(2));
    }

    #[test]
    #[should_panic(expected = "unequal")]
    fn dot_requires_equal_lengths() {
        BitVec::zeros(3).dot(&BitVec::zeros(4));
    }

    #[test]
    fn count_ones_ignores_slack_bits() {
        // Construct via from_bools to leave no stray bits, then check edge.
        let v = BitVec::from_bools((0..65).map(|_| true));
        assert_eq!(v.count_ones(), 65);
        assert_eq!(v.dot(&v), 65);
    }

    #[test]
    fn slack_bits_stay_clear_through_mutation() {
        // The dot/count_ones fast paths rely on slack bits being zero for
        // every construction and mutation sequence.
        for len in [1usize, 63, 64, 65, 127, 130] {
            let mut v = BitVec::from_bools((0..len).map(|_| true));
            assert!(v.slack_bits_clear(), "from_bools len={len}");
            v.set(len - 1, false);
            v.set(len - 1, true);
            assert!(v.slack_bits_clear(), "set len={len}");
            assert_eq!(v.count_ones(), len);
            let rt = BitVec::from_bytes(&v.to_bytes(), len);
            assert!(rt.slack_bits_clear(), "from_bytes len={len}");
            assert_eq!(rt.count_ones(), len);
        }
    }

    /// The per-bit packing `to_bytes` replaced, kept as its reference.
    fn to_bytes_per_bit(v: &BitVec) -> Vec<u8> {
        let mut out = vec![0u8; v.len().div_ceil(8)];
        for i in 0..v.len() {
            if v.get(i) {
                out[i / 8] |= 1 << (i % 8);
            }
        }
        out
    }

    #[test]
    fn to_bytes_matches_the_per_bit_reference_after_every_constructor_and_mutator() {
        let mut rng = ncpu_testkit::rng::Rng::seed_from_u64(0xb17e_5000);
        for len in 0usize..=260 {
            let bits: Vec<bool> = (0..len).map(|_| rng.next_u64() & 1 == 1).collect();
            let signs: Vec<f32> = bits.iter().map(|&b| if b { 0.5 } else { -0.5 }).collect();
            let ones = BitVec::from_bools((0..len).map(|_| true));
            let mut built = vec![
                ("zeros", BitVec::zeros(len)),
                ("from_bools", BitVec::from_bools(bits.iter().copied())),
                ("from_signs", BitVec::from_signs(&signs)),
                ("from_iter", bits.iter().copied().collect()),
                ("from_bytes", BitVec::from_bytes(&to_bytes_per_bit(&ones), len)),
            ];
            if len > 0 {
                let mut set_v = BitVec::zeros(len);
                for (i, &b) in bits.iter().enumerate() {
                    set_v.set(i, b);
                }
                let mut cleared = ones.clone();
                cleared.set(len - 1, false);
                cleared.set(len / 2, false);
                built.push(("set", set_v));
                built.push(("set_clear", cleared));
            }
            for (how, v) in &built {
                assert_eq!(v.to_bytes(), to_bytes_per_bit(v), "{how} len={len}");
            }
        }
    }

    #[test]
    fn dot_unroll_matches_naive_near_chunk_boundaries() {
        // Word counts 1..=10 straddle the 4-word unroll boundary; bit
        // lengths probe full and partial tail words.
        for words in 1usize..=10 {
            for tail in [0usize, 1, 33, 63] {
                let len = match (words * 64).checked_sub(64 - tail) {
                    Some(l) if tail != 0 => l,
                    _ => words * 64,
                };
                let a = BitVec::from_bools((0..len).map(|i| (i * 11) % 7 < 3));
                let b = BitVec::from_bools((0..len).map(|i| (i * 3) % 5 < 2));
                assert_eq!(a.dot(&b), naive_dot(&a, &b), "len={len}");
            }
        }
    }

    #[test]
    fn debug_is_compact() {
        let v = BitVec::from_bools([true, false]);
        assert_eq!(format!("{v:?}"), "BitVec[2; +-]");
    }
}
