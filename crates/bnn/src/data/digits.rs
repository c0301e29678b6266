//! Procedural digit images: the MNIST stand-in (see `DESIGN.md`).
//!
//! Samples are 28×28 binary images built from a 5×7 glyph font, upscaled,
//! randomly shifted, and corrupted with pixel-flip noise. The module also
//! renders the 224×224×3 RGB camera frames the image-classification use
//! case starts from — keeping only the 56×56 pixels the DMA stages, and
//! drawing and discarding the rest of the jitter — plus the
//! integer-exact [`preprocess`] pipeline (resize → grayscale →
//! normalize) that the CPU-mode RV32I program mirrors instruction for
//! instruction.

use ncpu_testkit::rng::Rng;

use super::Dataset;
use crate::bits::BitVec;

/// Width and height of the classifier input image.
pub const IMG: usize = 28;
/// Number of pixels of the classifier input (the BNN input width).
pub const PIXELS: usize = IMG * IMG;
/// Width and height of the raw sensor frame the use case pre-processes.
pub const RAW: usize = 224;
/// Number of digit classes.
pub const CLASSES: usize = 10;

/// 5×7 glyph font, one row per digit, bit 4..0 = left..right.
const FONT: [[u8; 7]; 10] = [
    [0b01110, 0b10001, 0b10011, 0b10101, 0b11001, 0b10001, 0b01110], // 0
    [0b00100, 0b01100, 0b00100, 0b00100, 0b00100, 0b00100, 0b01110], // 1
    [0b01110, 0b10001, 0b00001, 0b00010, 0b00100, 0b01000, 0b11111], // 2
    [0b11111, 0b00010, 0b00100, 0b00010, 0b00001, 0b10001, 0b01110], // 3
    [0b00010, 0b00110, 0b01010, 0b10010, 0b11111, 0b00010, 0b00010], // 4
    [0b11111, 0b10000, 0b11110, 0b00001, 0b00001, 0b10001, 0b01110], // 5
    [0b00110, 0b01000, 0b10000, 0b11110, 0b10001, 0b10001, 0b01110], // 6
    [0b11111, 0b00001, 0b00010, 0b00100, 0b01000, 0b01000, 0b01000], // 7
    [0b01110, 0b10001, 0b10001, 0b01110, 0b10001, 0b10001, 0b01110], // 8
    [0b01110, 0b10001, 0b10001, 0b01111, 0b00001, 0b00010, 0b01100], // 9
];

/// Configuration of the synthetic digit dataset generator.
#[derive(Debug, Clone, PartialEq)]
pub struct DigitsConfig {
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Probability of flipping each pixel (task difficulty knob; 0.15
    /// places a 100-neuron BNN in the paper's mid-90s accuracy band).
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DigitsConfig {
    fn default() -> DigitsConfig {
        DigitsConfig { train_per_class: 150, test_per_class: 50, noise: 0.15, seed: 42 }
    }
}

/// The 5×7 glyph of `digit` as booleans (`glyph[row][col]`).
///
/// # Panics
///
/// Panics if `digit >= 10`.
pub fn glyph(digit: usize) -> [[bool; 5]; 7] {
    let rows = FONT[digit];
    let mut out = [[false; 5]; 7];
    for (r, &bits) in rows.iter().enumerate() {
        for (c, cell) in out[r].iter_mut().enumerate() {
            *cell = bits >> (4 - c) & 1 == 1;
        }
    }
    out
}

/// Renders one noisy 28×28 binary sample of `digit`.
///
/// The glyph is upscaled 4× (20×28), placed at a random horizontal offset,
/// then each pixel flips with probability `noise`.
///
/// # Panics
///
/// Panics if `digit >= 10` or `noise` is outside `[0, 1]`.
pub fn render_bitmap(digit: usize, noise: f64, rng: &mut Rng) -> BitVec {
    assert!((0.0..=1.0).contains(&noise), "noise must be a probability");
    let g = glyph(digit);
    let x_off = rng.gen_range(0..=IMG - 20);
    let mut bits = vec![false; PIXELS];
    for (y, row) in bits.chunks_mut(IMG).enumerate() {
        for (x, px) in row.iter_mut().enumerate() {
            let on = x >= x_off && x < x_off + 20 && g[y / 4][(x - x_off) / 4];
            *px = on ^ rng.gen_bool(noise);
        }
    }
    BitVec::from_bools(bits)
}

/// Generates `(train, test)` datasets of noisy digit bitmaps.
pub fn generate(config: &DigitsConfig) -> (Dataset, Dataset) {
    let mut rng = Rng::seed_from_u64(config.seed);
    let make = |per_class: usize, rng: &mut Rng| {
        let mut inputs = Vec::with_capacity(per_class * CLASSES);
        let mut labels = Vec::with_capacity(per_class * CLASSES);
        for digit in 0..CLASSES {
            for _ in 0..per_class {
                inputs.push(render_bitmap(digit, config.noise, rng));
                labels.push(digit);
            }
        }
        Dataset::new(inputs, labels, CLASSES)
    };
    let train = make(config.train_per_class, &mut rng);
    let test = make(config.test_per_class, &mut rng);
    (train, test)
}

/// Side of the frame the DMA stages into the core's local memory: every
/// 4th pixel of the 224×224 camera frame in both directions (pure
/// strided data movement, no compute).
pub const STAGED: usize = RAW / 4;

/// A camera frame of the image-classification use case, as the DMA
/// stages it: the 56×56 RGB pixels (`rgb[(y*56 + x)*3 + c]`) at every
/// 4th row and column of the 224×224 sensor frame, the input of CPU
/// pre-processing. The other pixels never leave the sensor, so they are
/// not kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawImage {
    rgb: Vec<u8>,
    label: usize,
}

impl RawImage {
    /// The staged interleaved RGB bytes (length `56·56·3`).
    pub fn rgb(&self) -> &[u8] {
        &self.rgb
    }

    /// Ground-truth digit.
    pub const fn label(&self) -> usize {
        self.label
    }
}

/// Renders a camera frame of `digit`: the noisy bitmap upscaled 8× to
/// 224×224 and colorized (bright foreground on dark background with
/// per-pixel, per-channel jitter), of which the staged pixels are kept.
///
/// The jitter is drawn in raster order over the whole 224×224×3 frame,
/// one draw per byte; the draws of pixels the DMA skips are discarded
/// unscrambled ([`Rng::discard`]), so `rng` ends where rendering every
/// pixel would leave it.
///
/// [`preprocess`] recovers (approximately) the underlying bitmap, so models
/// trained on [`render_bitmap`] outputs transfer to the use-case pipeline.
pub fn render_raw(digit: usize, noise: f64, rng: &mut Rng) -> RawImage {
    let bitmap = render_bitmap(digit, noise, rng);
    let mut rgb = Vec::with_capacity(STAGED * STAGED * 3);
    for y in 0..STAGED {
        for x in 0..STAGED {
            // Raw pixel (4y, 4x) lies in bitmap cell (4y/8, 4x/8).
            let on = bitmap.get((y / 2) * IMG + x / 2);
            let base: i32 = if on { 205 } else { 60 };
            for _ in 0..3 {
                let jitter = rng.gen_range(-25i32..=25);
                rgb.push((base + jitter).clamp(0, 255) as u8);
            }
            // The three skipped pixels to the right.
            rng.discard(3 * 3);
        }
        // The three skipped rows below.
        rng.discard(3 * RAW * 3);
    }
    RawImage { rgb, label: digit }
}

/// Step 1 of the CPU pipeline: 2×2 block-average resize of the staged
/// 56×56×3 frame to 28×28×3. Integer-exact: each channel is
/// `(a + b + c + d) >> 2`, the arithmetic the RV32I program performs.
pub fn resize(staged56: &[u8]) -> Vec<u8> {
    assert_eq!(staged56.len(), STAGED * STAGED * 3, "expected 56x56 RGB");
    let mut out = vec![0u8; PIXELS * 3];
    for oy in 0..IMG {
        for ox in 0..IMG {
            for c in 0..3 {
                let px = |dy: usize, dx: usize| {
                    staged56[((oy * 2 + dy) * STAGED + ox * 2 + dx) * 3 + c] as u32
                };
                let sum = px(0, 0) + px(0, 1) + px(1, 0) + px(1, 1);
                out[(oy * IMG + ox) * 3 + c] = (sum >> 2) as u8;
            }
        }
    }
    out
}

/// Step 3 ("grayscale filtering" includes smoothing): approximate 3×3 box
/// filter — interior pixels become `min(Σ neighbourhood >> 3, 255)`,
/// border pixels pass through. Division-free, exactly as the RV32I
/// program computes it.
pub fn blur3(gray: &[u8]) -> Vec<u8> {
    assert_eq!(gray.len(), PIXELS, "expected 28x28 grayscale");
    let mut out = gray.to_vec();
    for y in 1..IMG - 1 {
        for x in 1..IMG - 1 {
            let mut sum = 0u32;
            for dy in 0..3 {
                for dx in 0..3 {
                    sum += gray[(y + dy - 1) * IMG + (x + dx - 1)] as u32;
                }
            }
            out[y * IMG + x] = (sum >> 3).min(255) as u8;
        }
    }
    out
}

/// The 28×28 grayscale image (step 2): `(77·r + 150·g + 29·b) >> 8`.
pub fn grayscale(rgb28: &[u8]) -> Vec<u8> {
    assert_eq!(rgb28.len(), PIXELS * 3, "expected 28x28 RGB");
    (0..PIXELS)
        .map(|i| {
            let r = rgb28[i * 3] as u32;
            let g = rgb28[i * 3 + 1] as u32;
            let b = rgb28[i * 3 + 2] as u32;
            ((77 * r + 150 * g + 29 * b) >> 8) as u8
        })
        .collect()
}

/// The binarized BNN input (step 3, "data normalization"): pixel `i` maps
/// to +1 iff `gray[i]·784 >= Σ gray` — i.e. above the image mean, written
/// division-free exactly as the RV32I program computes it.
pub fn normalize(gray: &[u8]) -> BitVec {
    assert_eq!(gray.len(), PIXELS, "expected 28x28 grayscale");
    let total: u32 = gray.iter().map(|&g| g as u32).sum();
    BitVec::from_bools(gray.iter().map(|&g| g as u32 * PIXELS as u32 >= total))
}

/// Full use-case pipeline on one staged frame: the CPU steps resize →
/// grayscale → filter → normalize, exactly mirroring the RV32I
/// pre-processing program in `ncpu-workloads`.
pub fn preprocess(raw: &RawImage) -> BitVec {
    normalize(&blur3(&grayscale(&resize(raw.rgb()))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glyphs_are_distinct() {
        let all: Vec<_> = (0..10).map(glyph).collect();
        for i in 0..10 {
            for j in i + 1..10 {
                assert_ne!(all[i], all[j], "glyphs {i} and {j} collide");
            }
        }
    }

    /// The full 224×224×3 frame, drawn pixel by pixel: the reference the
    /// staged render must match byte for byte and draw for draw.
    fn render_full_frame(digit: usize, noise: f64, rng: &mut Rng) -> Vec<u8> {
        let bitmap = render_bitmap(digit, noise, rng);
        let mut rgb = vec![0u8; RAW * RAW * 3];
        for y in 0..RAW {
            for x in 0..RAW {
                let on = bitmap.get((y / 8) * IMG + x / 8);
                let base: [i32; 3] = if on { [205, 205, 205] } else { [60, 60, 60] };
                for c in 0..3 {
                    let jitter = rng.gen_range(-25i32..=25);
                    rgb[(y * RAW + x) * 3 + c] = (base[c] + jitter).clamp(0, 255) as u8;
                }
            }
        }
        rgb
    }

    /// The reference frame's every 4th pixel in both directions.
    fn stride4(rgb: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(STAGED * STAGED * 3);
        for y in 0..STAGED {
            for x in 0..STAGED {
                let at = ((y * 4) * RAW + x * 4) * 3;
                out.extend_from_slice(&rgb[at..at + 3]);
            }
        }
        out
    }

    #[test]
    fn staged_render_matches_the_full_frame_reference() {
        let mut cases = 0;
        for seed in 0..4u64 {
            for digit in 0..CLASSES {
                for noise in [0.0, 0.15, 0.5] {
                    let mut fast = Rng::seed_from_u64(seed * 31 + digit as u64);
                    let mut slow = fast.clone();
                    let raw = render_raw(digit, noise, &mut fast);
                    let want = stride4(&render_full_frame(digit, noise, &mut slow));
                    assert_eq!(raw.rgb(), want, "seed {seed} digit {digit} noise {noise}");
                    assert_eq!(raw.label(), digit);
                    assert_eq!(fast.next_u64(), slow.next_u64(), "the streams stay in step");
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 120);
    }

    #[test]
    fn render_is_deterministic_per_rng_state() {
        let mut a = Rng::seed_from_u64(5);
        let mut b = Rng::seed_from_u64(5);
        assert_eq!(render_bitmap(3, 0.1, &mut a), render_bitmap(3, 0.1, &mut b));
    }

    #[test]
    fn noiseless_render_contains_glyph() {
        let mut rng = Rng::seed_from_u64(0);
        let img = render_bitmap(1, 0.0, &mut rng);
        assert_eq!(img.len(), PIXELS);
        let ones = img.count_ones();
        let font_pixels: usize =
            glyph(1).iter().flatten().filter(|&&b| b).count();
        assert_eq!(ones, font_pixels * 16, "4x upscale preserves pixel count");
    }

    #[test]
    fn generate_shapes_and_labels() {
        let cfg = DigitsConfig { train_per_class: 2, test_per_class: 1, noise: 0.1, seed: 1 };
        let (train, test) = generate(&cfg);
        assert_eq!(train.len(), 20);
        assert_eq!(test.len(), 10);
        assert_eq!(train.input_width(), PIXELS);
        assert_eq!(train.classes(), 10);
    }

    #[test]
    fn preprocess_recovers_clean_bitmap() {
        // The raw pipeline recovers the underlying glyph up to the ~1-pixel
        // stroke dilation the box filter introduces.
        let mut rng = Rng::seed_from_u64(9);
        let raw = render_raw(7, 0.0, &mut rng);
        let recovered = preprocess(&raw);
        let mut reference_rng = Rng::seed_from_u64(9);
        let reference = render_bitmap(7, 0.0, &mut reference_rng);
        // Every glyph pixel survives; extra pixels are bounded dilation.
        let lost = (0..PIXELS)
            .filter(|&i| reference.get(i) && !recovered.get(i))
            .count();
        let gained = (0..PIXELS)
            .filter(|&i| !reference.get(i) && recovered.get(i))
            .count();
        assert!(lost <= PIXELS / 40, "lost {lost} glyph pixels");
        assert!(gained <= PIXELS / 2, "gained {gained} pixels");
    }

    #[test]
    fn resize_averages_blocks() {
        let mut rng = Rng::seed_from_u64(2);
        let raw = render_raw(0, 0.0, &mut rng);
        let small = resize(raw.rgb());
        assert_eq!(small.len(), PIXELS * 3);
        // Averages stay within the raw value range.
        assert!(small.iter().all(|&v| v <= 230));
    }

    #[test]
    fn blur_preserves_borders_and_bounds() {
        let mut gray = vec![100u8; PIXELS];
        gray[0] = 7;
        gray[IMG + 1] = 255; // interior pixel
        let b = blur3(&gray);
        assert_eq!(b[0], 7, "border passes through");
        // Interior (1,1): neighbourhood holds the 7, seven 100s and the
        // 255: (7 + 700 + 255) >> 3 = 120.
        assert_eq!(b[IMG + 1], 120);
    }

    #[test]
    fn blur_saturates_at_255() {
        let gray = vec![255u8; PIXELS];
        let b = blur3(&gray);
        // 9×255 >> 3 = 286 -> clamped.
        assert_eq!(b[IMG + 1], 255);
    }

    #[test]
    fn normalize_is_mean_threshold() {
        let mut gray = vec![10u8; PIXELS];
        gray[0] = 250;
        let bits = normalize(&gray);
        assert!(bits.get(0));
        assert!(!bits.get(1));
    }
}
