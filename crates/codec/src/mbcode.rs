//! Macroblock coding primitives used by the encoder's macroblock loop
//! and the joint RDE controller's trial coding.
//!
//! These are free functions over explicit references (current frame,
//! prediction reference, output reconstruction, bit writer, op counter)
//! rather than `Encoder` methods, because the zero-allocation loop needs
//! to borrow disjoint encoder fields simultaneously.
//!
//! All coefficient staging lives in fixed stack arrays (`[[i32; 64]; 6]`)
//! — the steady-state encode loop performs no heap allocation here.

use crate::bitstream::BitWriter;
use crate::block::{
    load_block, residual_block, store_block_clamped_with, store_pred, store_pred_plus_residual_with,
};
use crate::blockcode::{block_is_coded, write_coeff_block};
use crate::fused;
use crate::kernels::Kernels;
use crate::mb::{MbMode, SubPelVector};
use crate::mc::{predict_chroma_subpel_with, predict_luma_subpel_with, CHROMA_BLOCK, LUMA_BLOCK};
use crate::ops::OpCounts;
use crate::quant::{dequantize_block, quantize_block, Qp};
use crate::rde::{mc_read_bytes, MB_FOOTPRINT_BYTES};
use crate::vlc;
use crate::zigzag;
use pbpair_media::{Frame, MbIndex};

/// The per-frame coding parameters the block level needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockCodeCfg {
    pub qp: Qp,
    pub half_pel: bool,
    /// Use the fused `dct→quant→zigzag` kernel ([`fused::fdct_quant_scan`]).
    pub fused: bool,
    /// The pixel-kernel tier every block-level loop dispatches through.
    pub kernels: &'static Kernels,
}

/// Transforms one spatial block into zigzag-ordered levels, via either
/// the fused kernel or the separate three-pass pipeline (bit-identical
/// by construction; `tests/kernel_equiv.rs` proves it). Returns the
/// coded-block flag.
#[inline]
fn transform_block(
    cfg: &BlockCodeCfg,
    spatial: &[i32; 64],
    intra: bool,
    zig: &mut [i32; 64],
    ops: &mut OpCounts,
) -> bool {
    ops.dct_blocks += 1;
    ops.quant_blocks += 1;
    if cfg.fused {
        fused::fdct_quant_scan_with(cfg.kernels, spatial, cfg.qp, intra, zig)
    } else {
        let mut freq = [0i32; 64];
        cfg.kernels.fdct8(spatial, &mut freq);
        let quantized = quantize_block(&freq, cfg.qp, intra);
        *zig = zigzag::scan(&quantized);
        block_is_coded(zig, usize::from(intra))
    }
}

/// Codes one intra macroblock (shared by I-frames and forced-intra MBs
/// of P-frames; the caller writes any COD/mode bits first).
pub(crate) fn code_intra_mb(
    cfg: &BlockCodeCfg,
    w: &mut BitWriter,
    frame: &Frame,
    new_recon: &mut Frame,
    mb: MbIndex,
    ops: &mut OpCounts,
) {
    let (lx, ly) = mb.luma_origin();
    let (cx, cy) = mb.chroma_origin();
    ops.recon_write_bytes += MB_FOOTPRINT_BYTES;
    // Block order: Y0 Y1 Y2 Y3 (raster 8×8 quadrants), Cb, Cr.
    let mut levels = [[0i32; 64]; 6];
    let mut cbp = 0u8;
    for (i, (px, py, plane)) in [
        (lx, ly, frame.y()),
        (lx + 8, ly, frame.y()),
        (lx, ly + 8, frame.y()),
        (lx + 8, ly + 8, frame.y()),
        (cx, cy, frame.cb()),
        (cx, cy, frame.cr()),
    ]
    .into_iter()
    .enumerate()
    {
        let spatial = load_block(plane, px, py);
        if transform_block(cfg, &spatial, true, &mut levels[i], ops) {
            cbp |= 1 << (5 - i);
        }
    }

    vlc::write_cbp(w, cbp);
    for (i, zig) in levels.iter().enumerate() {
        w.put_bits(zig[0].clamp(0, 255) as u32, 8); // intra DC carrier
        if cbp & (1 << (5 - i)) != 0 {
            write_coeff_block(w, zig, 1);
        }
    }

    // Reconstruction (identical to the decoder).
    for (i, zig) in levels.iter().enumerate() {
        let quantized = zigzag::unscan(zig);
        let coefs = dequantize_block(&quantized, cfg.qp, true);
        let mut spatial = [0i32; 64];
        cfg.kernels.idct8(&coefs, &mut spatial);
        ops.dequant_blocks += 1;
        ops.idct_blocks += 1;
        let (dx, dy, plane) = match i {
            0 => (lx, ly, new_recon.y_mut()),
            1 => (lx + 8, ly, new_recon.y_mut()),
            2 => (lx, ly + 8, new_recon.y_mut()),
            3 => (lx + 8, ly + 8, new_recon.y_mut()),
            4 => (cx, cy, new_recon.cb_mut()),
            _ => (cx, cy, new_recon.cr_mut()),
        };
        store_block_clamped_with(cfg.kernels, plane, dx, dy, &spatial);
    }
}

/// Codes one inter macroblock, with automatic demotion to skip when the
/// vector is zero and every block quantizes to nothing. Returns the
/// final mode ([`MbMode::Inter`] or [`MbMode::Skip`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn code_inter_mb(
    cfg: &BlockCodeCfg,
    w: &mut BitWriter,
    frame: &Frame,
    reference: &Frame,
    new_recon: &mut Frame,
    mb: MbIndex,
    mv: SubPelVector,
    ops: &mut OpCounts,
) -> MbMode {
    let (lx, ly) = mb.luma_origin();
    let (cx, cy) = mb.chroma_origin();

    // Predictions.
    let mut pred_y = [0u8; LUMA_BLOCK * LUMA_BLOCK];
    predict_luma_subpel_with(cfg.kernels, reference.y(), mb, mv, &mut pred_y);
    let mut pred_cb = [0u8; CHROMA_BLOCK * CHROMA_BLOCK];
    let mut pred_cr = [0u8; CHROMA_BLOCK * CHROMA_BLOCK];
    predict_chroma_subpel_with(cfg.kernels, reference.cb(), mb, mv, &mut pred_cb);
    predict_chroma_subpel_with(cfg.kernels, reference.cr(), mb, mv, &mut pred_cr);
    ops.mc_luma_blocks += 1;
    ops.mc_chroma_blocks += 2;
    ops.ref_read_bytes += mc_read_bytes(mv);
    ops.recon_write_bytes += MB_FOOTPRINT_BYTES;

    // Residual transform per block.
    let sub = [(0usize, 0usize), (8, 0), (0, 8), (8, 8)];
    let mut levels = [[0i32; 64]; 6];
    let mut cbp = 0u8;
    for (i, &(sx, sy)) in sub.iter().enumerate() {
        let resid = residual_block(frame.y(), lx + sx, ly + sy, &pred_y, LUMA_BLOCK, sx, sy);
        if transform_block(cfg, &resid, false, &mut levels[i], ops) {
            cbp |= 1 << (5 - i);
        }
    }
    for (i, (plane, pred)) in [(frame.cb(), &pred_cb), (frame.cr(), &pred_cr)]
        .into_iter()
        .enumerate()
    {
        let resid = residual_block(plane, cx, cy, pred, CHROMA_BLOCK, 0, 0);
        if transform_block(cfg, &resid, false, &mut levels[i + 4], ops) {
            cbp |= 1 << (1 - i);
        }
    }

    if mv.is_zero() && cbp == 0 {
        // Skip: single COD bit, reconstruction = colocated copy.
        w.put_bit(true);
        store_pred(
            new_recon.y_mut(),
            lx,
            ly,
            &pred_y,
            LUMA_BLOCK,
            0,
            0,
            LUMA_BLOCK,
        );
        store_pred(
            new_recon.cb_mut(),
            cx,
            cy,
            &pred_cb,
            CHROMA_BLOCK,
            0,
            0,
            CHROMA_BLOCK,
        );
        store_pred(
            new_recon.cr_mut(),
            cx,
            cy,
            &pred_cr,
            CHROMA_BLOCK,
            0,
            0,
            CHROMA_BLOCK,
        );
        return MbMode::Skip;
    }

    w.put_bit(false); // COD = 0
    w.put_bit(false); // inter
    if cfg.half_pel {
        let (hx, hy) = mv.to_half_units();
        vlc::write_mvd(w, hx);
        vlc::write_mvd(w, hy);
    } else {
        vlc::write_mvd(w, mv.int.x);
        vlc::write_mvd(w, mv.int.y);
    }
    vlc::write_cbp(w, cbp);
    for (i, zig) in levels.iter().enumerate() {
        if cbp & (1 << (5 - i)) != 0 {
            write_coeff_block(w, zig, 0);
        }
    }

    // Reconstruction.
    for (i, zig) in levels.iter().enumerate() {
        let coded = cbp & (1 << (5 - i)) != 0;
        let resid = if coded {
            let quantized = zigzag::unscan(zig);
            let coefs = dequantize_block(&quantized, cfg.qp, false);
            let mut spatial = [0i32; 64];
            cfg.kernels.idct8(&coefs, &mut spatial);
            ops.dequant_blocks += 1;
            ops.idct_blocks += 1;
            spatial
        } else {
            [0i32; 64]
        };
        match i {
            0..=3 => {
                let (sx, sy) = sub[i];
                store_pred_plus_residual_with(
                    cfg.kernels,
                    new_recon.y_mut(),
                    lx + sx,
                    ly + sy,
                    &pred_y,
                    LUMA_BLOCK,
                    sx,
                    sy,
                    &resid,
                );
            }
            4 => store_pred_plus_residual_with(
                cfg.kernels,
                new_recon.cb_mut(),
                cx,
                cy,
                &pred_cb,
                CHROMA_BLOCK,
                0,
                0,
                &resid,
            ),
            _ => store_pred_plus_residual_with(
                cfg.kernels,
                new_recon.cr_mut(),
                cx,
                cy,
                &pred_cr,
                CHROMA_BLOCK,
                0,
                0,
                &resid,
            ),
        }
    }
    MbMode::Inter
}

/// Codes one macroblock as an explicit skip: a single COD bit and a
/// colocated (zero-vector) reference copy into the reconstruction. This
/// is what the RDE controller emits when it *chooses* skip outright — it
/// genuinely performs only the copy, unlike the demotion path of
/// [`code_inter_mb`], which discovers the skip after full transform work.
/// Bit-identical on the wire to a demoted skip.
pub(crate) fn code_skip_mb(
    w: &mut BitWriter,
    reference: &Frame,
    new_recon: &mut Frame,
    mb: MbIndex,
    ops: &mut OpCounts,
) -> MbMode {
    let (lx, ly) = mb.luma_origin();
    let (cx, cy) = mb.chroma_origin();
    w.put_bit(true); // COD = 1: skipped
    for y in 0..16 {
        let row = &reference.y().row(ly + y)[lx..lx + 16];
        new_recon.y_mut().row_mut(ly + y)[lx..lx + 16].copy_from_slice(row);
    }
    for y in 0..8 {
        let cb = &reference.cb().row(cy + y)[cx..cx + 8];
        new_recon.cb_mut().row_mut(cy + y)[cx..cx + 8].copy_from_slice(cb);
        let cr = &reference.cr().row(cy + y)[cx..cx + 8];
        new_recon.cr_mut().row_mut(cy + y)[cx..cx + 8].copy_from_slice(cr);
    }
    ops.mc_luma_blocks += 1;
    ops.mc_chroma_blocks += 2;
    ops.ref_read_bytes += MB_FOOTPRINT_BYTES;
    ops.recon_write_bytes += MB_FOOTPRINT_BYTES;
    MbMode::Skip
}
