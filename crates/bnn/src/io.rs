//! Binary serialization of trained models.
//!
//! A deployed NCPU ships with trained weights in flash; this module defines
//! that artifact. The format is little-endian and self-describing:
//!
//! ```text
//! magic  "NCPUBNN1"                         8 bytes
//! input  u32 · classes u32 · layers u32     header
//! width  u32 × layers                       layer widths
//! per layer: weight rows (ceil(n_in/8) B each, bit i = input i)
//!            biases (i32 × width)
//! crc    u32 (CRC-32 of everything above)
//! ```

use std::error::Error;
use std::fmt;

use crate::bits::BitVec;
use crate::model::{BnnLayer, BnnModel, Topology};

const MAGIC: &[u8; 8] = b"NCPUBNN1";

/// Error raised when decoding a model artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelDecodeError {
    /// The magic prefix is missing or wrong.
    BadMagic,
    /// The byte stream ended before the declared content.
    Truncated {
        /// Bytes needed beyond what was provided.
        missing: usize,
    },
    /// A header field is structurally invalid (zero width, class overflow…).
    BadHeader {
        /// Description of the violated constraint.
        reason: &'static str,
    },
    /// The trailing checksum does not match the content.
    ChecksumMismatch,
}

impl fmt::Display for ModelDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelDecodeError::BadMagic => write!(f, "not an NCPU model artifact"),
            ModelDecodeError::Truncated { missing } => {
                write!(f, "artifact truncated ({missing} bytes missing)")
            }
            ModelDecodeError::BadHeader { reason } => write!(f, "invalid header: {reason}"),
            ModelDecodeError::ChecksumMismatch => write!(f, "checksum mismatch"),
        }
    }
}

impl Error for ModelDecodeError {}

/// Byte-indexed remainders of the reflected CRC-32 polynomial
/// `0xEDB88320`, built at compile time: entry `b` is the register after
/// shifting the byte `b` through eight polynomial steps.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, the zlib/PNG checksum), one table lookup per byte.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Serializes a model into the artifact format.
pub fn to_bytes(model: &BnnModel) -> Vec<u8> {
    let topo = model.topology();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(topo.input() as u32).to_le_bytes());
    out.extend_from_slice(&(topo.classes() as u32).to_le_bytes());
    out.extend_from_slice(&(topo.layers().len() as u32).to_le_bytes());
    for &w in topo.layers() {
        out.extend_from_slice(&(w as u32).to_le_bytes());
    }
    for layer in model.layers() {
        for j in 0..layer.neurons() {
            out.extend_from_slice(&layer.weight_row(j).to_bytes());
        }
        for j in 0..layer.neurons() {
            out.extend_from_slice(&layer.bias(j).to_le_bytes());
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ModelDecodeError> {
        if self.at + n > self.bytes.len() {
            return Err(ModelDecodeError::Truncated { missing: self.at + n - self.bytes.len() });
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, ModelDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
}

/// Maximum layer width / input width accepted (sanity bound against
/// corrupted headers allocating gigabytes).
const MAX_DIM: u32 = 1 << 20;

/// Decodes a model artifact.
///
/// # Errors
///
/// Returns [`ModelDecodeError`] for wrong magic, truncation, structurally
/// invalid headers, or checksum mismatch.
///
/// # Examples
///
/// ```
/// use ncpu_bnn::{io, BnnModel, Topology};
///
/// let model = BnnModel::zeros(&Topology::new(16, vec![4], 2));
/// let bytes = io::to_bytes(&model);
/// assert_eq!(io::from_bytes(&bytes).unwrap(), model);
/// ```
pub fn from_bytes(bytes: &[u8]) -> Result<BnnModel, ModelDecodeError> {
    if bytes.len() < 4 {
        return Err(ModelDecodeError::Truncated { missing: 4 - bytes.len() });
    }
    let (content, tail) = bytes.split_at(bytes.len() - 4);
    let mut r = Reader { bytes: content, at: 0 };
    if r.take(8)? != MAGIC {
        return Err(ModelDecodeError::BadMagic);
    }
    let declared_crc = u32::from_le_bytes(tail.try_into().expect("4 bytes"));
    if crc32(content) != declared_crc {
        return Err(ModelDecodeError::ChecksumMismatch);
    }
    let input = r.u32()?;
    let classes = r.u32()?;
    let n_layers = r.u32()?;
    if input == 0 || input > MAX_DIM {
        return Err(ModelDecodeError::BadHeader { reason: "input width out of range" });
    }
    if n_layers == 0 || n_layers > 64 {
        return Err(ModelDecodeError::BadHeader { reason: "layer count out of range" });
    }
    let mut widths = Vec::with_capacity(n_layers as usize);
    for _ in 0..n_layers {
        let w = r.u32()?;
        if w == 0 || w > MAX_DIM {
            return Err(ModelDecodeError::BadHeader { reason: "layer width out of range" });
        }
        widths.push(w as usize);
    }
    if classes == 0 || classes as usize > *widths.last().expect("nonempty") {
        return Err(ModelDecodeError::BadHeader { reason: "classes exceed final layer" });
    }
    let topo = Topology::new(input as usize, widths, classes as usize);
    let mut layers = Vec::with_capacity(topo.layers().len());
    for l in 0..topo.layers().len() {
        let n_in = topo.layer_input(l);
        let width = topo.layers()[l];
        let row_bytes = n_in.div_ceil(8);
        let mut rows = Vec::with_capacity(width);
        for _ in 0..width {
            rows.push(BitVec::from_bytes(r.take(row_bytes)?, n_in));
        }
        let mut bias = Vec::with_capacity(width);
        for _ in 0..width {
            bias.push(i32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes")));
        }
        layers.push(BnnLayer::new(rows, bias));
    }
    if r.at != content.len() {
        return Err(ModelDecodeError::BadHeader { reason: "trailing bytes after weights" });
    }
    Ok(BnnModel::new(topo, layers))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> BnnModel {
        let topo = Topology::new(37, vec![9, 5], 3);
        let layers = (0..2)
            .map(|l| {
                let n_in = topo.layer_input(l);
                let width = topo.layers()[l];
                let rows: Vec<BitVec> = (0..width)
                    .map(|j| BitVec::from_bools((0..n_in).map(|i| (i * 5 + j + l) % 3 == 0)))
                    .collect();
                BnnLayer::new(rows, (0..width).map(|j| j as i32 * 7 - 11).collect())
            })
            .collect();
        BnnModel::new(topo, layers)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let model = sample_model();
        let decoded = from_bytes(&to_bytes(&model)).unwrap();
        assert_eq!(decoded, model);
        // And behaves identically.
        let x = BitVec::from_bools((0..37).map(|i| i % 2 == 0));
        assert_eq!(decoded.classify(&x), model.classify(&x));
    }

    #[test]
    fn rejects_wrong_magic() {
        let mut bytes = to_bytes(&sample_model());
        bytes[0] = b'X';
        assert_eq!(from_bytes(&bytes), Err(ModelDecodeError::BadMagic));
    }

    #[test]
    fn rejects_bit_flips_via_checksum() {
        let mut bytes = to_bytes(&sample_model());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert_eq!(from_bytes(&bytes), Err(ModelDecodeError::ChecksumMismatch));
    }

    #[test]
    fn rejects_truncation() {
        let bytes = to_bytes(&sample_model());
        for cut in [0usize, 3, 10, bytes.len() - 5] {
            let r = from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = to_bytes(&sample_model());
        let cut = bytes.len() - 4;
        bytes.splice(cut..cut, [0u8; 8]);
        // Content changed → checksum catches it first.
        assert!(from_bytes(&bytes).is_err());
    }

    /// The shift-register definition the table is derived from, kept
    /// here only as the reference the table version must reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_table_matches_the_bitwise_reference() {
        let mut rng = ncpu_testkit::rng::Rng::seed_from_u64(0x0c2c_3200);
        for len in (0..64).chain([255, 256, 257, 1000, 4096]) {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "len={len}");
        }
        let model = to_bytes(&sample_model());
        assert_eq!(crc32(&model), crc32_bitwise(&model));
    }

    #[test]
    fn error_messages_are_informative() {
        assert!(ModelDecodeError::BadMagic.to_string().contains("artifact"));
        assert!(ModelDecodeError::Truncated { missing: 3 }.to_string().contains("3"));
    }
}
