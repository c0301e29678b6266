//! The image-classification pre-processing program (paper Fig. 15(a)).
//!
//! Pipeline per frame, mirroring [`ncpu_bnn::data::digits`] bit for bit:
//!
//! 1. the DMA stages a 4×-decimated 56×56×3 frame into the data cache,
//! 2. **resize** — 2×2 block average to 28×28×3,
//! 3. **grayscale filter** — luma conversion then an approximate 3×3 box
//!    filter,
//! 4. **normalization** — threshold against the image mean (computed
//!    division-free as `v·784 ≥ Σv`) and pack the 784 input bits.
//!
//! The program is phase-annotated: each phase ends by writing its id to a
//! phase-marker register (`gp`), which the SoC layer samples to build the
//! Fig. 15 runtime breakdown.

use ncpu_bnn::data::digits::{RawImage, STAGED};
use ncpu_isa::asm;

use crate::Tail;

/// Data-cache layout of the image program (byte offsets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageLayout {
    /// Staged 56×56×3 frame (9408 bytes).
    pub raw56: u32,
    /// Resized 28×28×3 frame (2352 bytes).
    pub rgb28: u32,
    /// Grayscale 28×28 plane (784 bytes).
    pub gray: u32,
    /// Filtered 28×28 plane (784 bytes).
    pub blur: u32,
    /// Packed 784-bit BNN input (98 bytes, padded to 100).
    pub pack: u32,
}

impl Default for ImageLayout {
    fn default() -> ImageLayout {
        ImageLayout { raw56: 0, rgb28: 9600, gray: 12000, blur: 12800, pack: 13600 }
    }
}

impl ImageLayout {
    /// Total bytes of data cache the program touches.
    pub const fn footprint(&self) -> u32 {
        self.pack + 100
    }
}

/// Phase ids written to `gp` at each phase boundary.
pub mod phase {
    /// Resize finished.
    pub const RESIZE_DONE: u32 = 1;
    /// Grayscale + filter finished.
    pub const FILTER_DONE: u32 = 2;
    /// Normalization + packing finished.
    pub const NORMALIZE_DONE: u32 = 3;
}

/// The bytes the DMA stages for one frame (every 4th pixel of the camera
/// frame — data movement only, no compute).
pub fn stage_bytes(raw: &RawImage) -> Vec<u8> {
    raw.rgb().to_vec()
}

/// Number of staged bytes per frame.
pub const STAGE_BYTES: usize = STAGED * STAGED * 3;

/// Builds the pre-processing program.
///
/// `pack_base` is where the packed 784-bit input is written — the NCPU
/// flow passes the image-memory base so the data is *already in place*
/// for the accelerator; the offload flow packs into the local scratch
/// given by `layout.pack`.
///
/// # Panics
///
/// Panics if the generated assembly fails to assemble (programming error).
pub fn preprocess_program(layout: &ImageLayout, pack_base: u32, tail: Tail) -> Vec<u32> {
    let ImageLayout { raw56, rgb28, gray, blur, .. } = *layout;
    let tail_asm = tail.asm(layout.pack);
    let src = format!(
        "# ---- phase 1: resize 56x56x3 -> 28x28x3 (2x2 average) ----
        li   s2, {rgb28}
        li   s3, 0
rs_oy:  li   t0, 336
        mul  t1, s3, t0
        li   t0, {raw56}
        add  s0, t1, t0
        addi s1, s0, 168
        li   s4, 28
rs_ox:  li   s5, 3
rs_c:   lbu  t2, 0(s0)
        lbu  t3, 3(s0)
        lbu  t4, 0(s1)
        lbu  t5, 3(s1)
        add  t2, t2, t3
        add  t4, t4, t5
        add  t2, t2, t4
        srli t2, t2, 2
        sb   t2, 0(s2)
        addi s2, s2, 1
        addi s0, s0, 1
        addi s1, s1, 1
        addi s5, s5, -1
        bnez s5, rs_c
        addi s0, s0, 3
        addi s1, s1, 3
        addi s4, s4, -1
        bnez s4, rs_ox
        addi s3, s3, 1
        li   t0, 28
        blt  s3, t0, rs_oy
        li   gp, {ph_resize}

        # ---- phase 2: grayscale (77/150/29) + 3x3 box filter ----
        li   s0, {rgb28}
        li   s2, {gray}
        li   s3, 784
        li   s6, 77
        li   s7, 150
        li   s8, 29
gs_l:   lbu  t2, 0(s0)
        lbu  t3, 1(s0)
        lbu  t4, 2(s0)
        mul  t2, t2, s6
        mul  t3, t3, s7
        mul  t4, t4, s8
        add  t2, t2, t3
        add  t2, t2, t4
        srli t2, t2, 8
        sb   t2, 0(s2)
        addi s0, s0, 3
        addi s2, s2, 1
        addi s3, s3, -1
        bnez s3, gs_l
        # border copy
        li   s0, {gray}
        li   s2, {blur}
        li   s3, 784
bc_l:   lbu  t2, 0(s0)
        sb   t2, 0(s2)
        addi s0, s0, 1
        addi s2, s2, 1
        addi s3, s3, -1
        bnez s3, bc_l
        # interior 3x3 box: out = min(sum >> 3, 255)
        li   a0, {gray}
        li   a1, {blur}
        li   s3, 1
bl_y:   li   s4, 1
bl_x:   addi t0, s3, -1
        li   t1, 28
        mul  t0, t0, t1
        add  t0, t0, s4
        addi t0, t0, -1
        add  t0, t0, a0
        lbu  t2, 0(t0)
        lbu  t3, 1(t0)
        lbu  t4, 2(t0)
        add  t2, t2, t3
        add  t2, t2, t4
        lbu  t3, 28(t0)
        lbu  t4, 29(t0)
        lbu  t5, 30(t0)
        add  t3, t3, t4
        add  t2, t2, t3
        add  t2, t2, t5
        lbu  t3, 56(t0)
        lbu  t4, 57(t0)
        lbu  t5, 58(t0)
        add  t3, t3, t4
        add  t2, t2, t3
        add  t2, t2, t5
        srli t2, t2, 3
        sltiu t3, t2, 256
        bnez t3, bl_ok
        li   t2, 255
bl_ok:  li   t4, 28
        mul  t3, s3, t4
        add  t3, t3, s4
        add  t3, t3, a1
        sb   t2, 0(t3)
        addi s4, s4, 1
        li   t0, 27
        blt  s4, t0, bl_x
        addi s3, s3, 1
        li   t0, 27
        blt  s3, t0, bl_y
        li   gp, {ph_filter}

        # ---- phase 3: normalization (mean threshold) + bit packing ----
        li   s0, {blur}
        li   s3, 784
        li   s5, 0
nm_s:   lbu  t2, 0(s0)
        add  s5, s5, t2
        addi s0, s0, 1
        addi s3, s3, -1
        bnez s3, nm_s
        li   s0, {blur}
        li   s2, {pack_base}
        li   s3, 784
        li   s6, 0
        li   s7, 0
nm_l:   lbu  t2, 0(s0)
        slli t3, t2, 9
        slli t4, t2, 8
        add  t3, t3, t4
        slli t4, t2, 4
        add  t3, t3, t4
        sltu t4, t3, s5
        xori t4, t4, 1
        sll  t4, t4, s7
        or   s6, s6, t4
        addi s7, s7, 1
        li   t5, 8
        bne  s7, t5, nm_n
        sb   s6, 0(s2)
        addi s2, s2, 1
        li   s6, 0
        li   s7, 0
nm_n:   addi s0, s0, 1
        addi s3, s3, -1
        bnez s3, nm_l
        li   gp, {ph_norm}

        # ---- tail ----
        {tail_asm}",
        ph_resize = phase::RESIZE_DONE,
        ph_filter = phase::FILTER_DONE,
        ph_norm = phase::NORMALIZE_DONE,
    );
    asm::assemble(&src).expect("image preprocess program must assemble")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncpu_bnn::data::digits::{self, DigitsConfig};
    use ncpu_bnn::BitVec;
    use ncpu_pipeline::{FlatMem, Pipeline};
    use ncpu_testkit::rng::Rng;

    /// The RV32I program must produce exactly the host mirror's bits.
    #[test]
    fn program_matches_host_mirror_bit_exactly() {
        let mut rng = Rng::seed_from_u64(11);
        for digit in [0usize, 3, 7] {
            let raw = digits::render_raw(digit, DigitsConfig::default().noise, &mut rng);
            let layout = ImageLayout::default();
            let program = preprocess_program(&layout, layout.pack, Tail::Halt);
            let mut cpu = Pipeline::new(program, FlatMem::new(16 * 1024));
            cpu.mem_mut().local_mut()[..STAGE_BYTES].copy_from_slice(&stage_bytes(&raw));
            cpu.run(50_000_000).unwrap();
            let packed =
                &cpu.mem().local()[layout.pack as usize..layout.pack as usize + 98];
            let got = BitVec::from_bytes(packed, 784);
            let want = digits::preprocess(&raw);
            assert_eq!(got, want, "digit {digit}: program disagrees with host mirror");
        }
    }

    #[test]
    fn phase_markers_progress() {
        let mut rng = Rng::seed_from_u64(3);
        let raw = digits::render_raw(5, 0.1, &mut rng);
        let layout = ImageLayout::default();
        let program = preprocess_program(&layout, layout.pack, Tail::Halt);
        let mut cpu = Pipeline::new(program, FlatMem::new(16 * 1024));
        cpu.mem_mut().local_mut()[..STAGE_BYTES].copy_from_slice(&stage_bytes(&raw));
        cpu.run(50_000_000).unwrap();
        assert_eq!(cpu.reg(ncpu_isa::Reg::GP), phase::NORMALIZE_DONE);
    }

    #[test]
    fn footprint_fits_w1_bank() {
        assert!(ImageLayout::default().footprint() <= 25 * 1024);
    }

    #[test]
    fn offload_tail_triggers_accelerator() {
        let mut rng = Rng::seed_from_u64(4);
        let raw = digits::render_raw(2, 0.1, &mut rng);
        let layout = ImageLayout::default();
        let program = preprocess_program(&layout, layout.pack, Tail::Offload);
        let mut cpu = Pipeline::new(program, FlatMem::new(16 * 1024));
        cpu.mem_mut().local_mut()[..STAGE_BYTES].copy_from_slice(&stage_bytes(&raw));
        let ev = cpu.run_until_event(50_000_000).unwrap();
        assert_eq!(ev, ncpu_isa::interp::Event::TriggerBnn);
        cpu.run(1_000).unwrap();
        // The packed input stays local for the DMA to pick up.
        let want = digits::preprocess(&raw);
        let local = &cpu.mem().local()[layout.pack as usize..layout.pack as usize + 98];
        assert_eq!(BitVec::from_bytes(local, 784), want);
    }
}
