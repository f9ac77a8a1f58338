//! Joint rate–distortion–energy (RDE) macroblock mode control.
//!
//! PBPAIR as reproduced saves energy through its intra/inter decisions
//! alone. This module adds the joint controller of ROADMAP item 4: every
//! P-frame macroblock's candidate codings (the baseline policy decision,
//! intra, inter with the searched vector, and outright skip) are *trial
//! coded* and scored by
//!
//! ```text
//! J = D + λ1·R + λ2·E
//! ```
//!
//! where `D` is the reconstruction sum of squared errors against the
//! original, `R` the candidate's actual coded bits (COD/mode prefix
//! included), and `E` the candidate's modeled coding energy in integer
//! picojoules — the op-count model extended with a memory-traffic term
//! (reference-window reads, reconstruction writes). Scoring intra and
//! inter directly at every macroblock subsumes sweeping the paper's
//! `Intra_Th`: each λ point induces exactly the per-MB threshold
//! perturbation that the weighted cost asks for.
//!
//! # Fixed-point formats
//!
//! Everything is integer so decisions are deterministic and identical
//! across worker counts and SIMD kernel tiers:
//!
//! * λ1 and λ2 are unsigned **Q16.16** weights ([`LAMBDA_ONE`] = 1.0 —
//!   one SSE unit per bit / per picojoule);
//! * energy is in integer **picojoules** ([`EnergyPrice`]); the
//!   documented canonical scale is µJ with a fixed `1e-6` resolution,
//!   i.e. [`PJ_PER_UJ`] pJ per µJ. `pbpair-energy` converts its nJ
//!   device profiles exactly (×1000) and a cross-crate test pins the
//!   scales to each other;
//! * costs accumulate in `u128`: `J = (D << 16) + λ1·R + λ2·E` never
//!   overflows (D ≤ 384·255², R and E fit comfortably in 64 bits).
//!
//! # The zero-λ gate
//!
//! At `λ1 = λ2 = 0` the controller is **inert by definition**: the
//! encoder bypasses trial coding entirely and the bitstream is
//! bit-identical to the plain PBPAIR/natural path. A pure distortion
//! argmin would silently change decisions even with both prices at zero;
//! the gate makes "RDE disabled" and "RDE at zero λ" the same encoder,
//! which the metamorphic suite asserts.
//!
//! # Tie-breaking and monotonicity
//!
//! Candidates are evaluated baseline-first in a fixed order, and a later
//! candidate displaces the incumbent only with a strictly smaller `J`.
//! The standard exchange argument then gives, for a fixed reference
//! frame and candidate set, monotonicity in each price: sweeping λ2 up
//! never raises the chosen energy, and sweeping λ1 up never raises the
//! chosen bits. `tests/rde_metamorphic.rs` sweeps the plane and checks
//! both, plus the all-skip floor at extreme λ2 (skip is always the
//! cheapest candidate in `E`, so a large enough λ2 forces it
//! everywhere).
//!
//! # Energy honesty
//!
//! Trial coding is search work, not stream work: its operations are
//! tallied into a scratch counter and discarded, exactly as RDO search
//! bits are never counted as rate. Only the chosen candidate's coding is
//! charged to the encoder's [`OpCounts`]. ME energy is sunk before the
//! controller runs (the search happens either way) and is therefore not
//! part of any candidate's `E`.

use crate::bitstream::BitWriter;
use crate::mb::{MbMode, SubPelVector};
use crate::mbcode::{code_inter_mb, code_intra_mb, code_skip_mb, BlockCodeCfg};
use crate::ops::OpCounts;
use pbpair_media::{Frame, MbIndex};
use serde::{Deserialize, Serialize};

/// Picojoules per microjoule — the canonical fixed-point energy scale.
/// Every crate that prices operations in integers must agree with this
/// constant; `pbpair-energy` asserts it against its own nJ→pJ factor.
pub const PJ_PER_UJ: u64 = 1_000_000;

/// Picojoules per nanojoule (the device profiles are authored in nJ).
pub const PJ_PER_NJ: u64 = 1_000;

/// The Q16.16 fixed-point one for the λ weights.
pub const LAMBDA_ONE: u32 = 1 << 16;

/// Bytes one macroblock occupies across all three planes (16×16 luma +
/// two 8×8 chroma blocks): the reconstruction-write footprint of every
/// coded or skipped macroblock and the reference-read footprint of an
/// integer-pel prediction.
pub const MB_FOOTPRINT_BYTES: u64 = 16 * 16 + 2 * 8 * 8;

/// Reference bytes a motion-compensated prediction reads for one
/// macroblock: the luma and chroma windows, each one sample wider/taller
/// per half-pel component (the interpolator averages two neighbours).
/// Defined purely from the vector, so the count is identical under every
/// SIMD kernel tier — the differential test replays it brute-force.
pub fn mc_read_bytes(mv: SubPelVector) -> u64 {
    let lw = 16 + mv.half_x as u64;
    let lh = 16 + mv.half_y as u64;
    let (chx, chy) = mv.chroma_half_units();
    let cw = 8 + (chx.rem_euclid(2) == 1) as u64;
    let ch = 8 + (chy.rem_euclid(2) == 1) as u64;
    lw * lh + 2 * cw * ch
}

/// Integer per-operation energy prices in picojoules — the fixed-point
/// mirror of `pbpair-energy`'s nJ device profiles, restricted to the
/// operation classes a macroblock coding decision controls. The default
/// is the iPAQ H5555 profile ×[`PJ_PER_NJ`]; `pbpair-energy` provides
/// exact conversions for every profile and a test pinning this default
/// to the float constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnergyPrice {
    /// One forward 8×8 DCT.
    pub dct_block_pj: u64,
    /// One inverse 8×8 DCT.
    pub idct_block_pj: u64,
    /// Quantizing one 8×8 block.
    pub quant_block_pj: u64,
    /// Dequantizing one 8×8 block.
    pub dequant_block_pj: u64,
    /// Motion-compensating one 16×16 luma block.
    pub mc_luma_pj: u64,
    /// Motion-compensating one 8×8 chroma block.
    pub mc_chroma_pj: u64,
    /// Entropy-coding one output bit.
    pub vlc_bit_pj: u64,
    /// Fixed per-macroblock bookkeeping.
    pub mb_overhead_pj: u64,
    /// Reading one reference byte from memory.
    pub mem_read_byte_pj: u64,
    /// Writing one reconstruction byte to memory.
    pub mem_write_byte_pj: u64,
}

impl Default for EnergyPrice {
    /// iPAQ H5555 in picojoules (the profile's nJ constants ×1000).
    fn default() -> Self {
        EnergyPrice {
            dct_block_pj: 1_500_000,
            idct_block_pj: 1_500_000,
            quant_block_pj: 320_000,
            dequant_block_pj: 320_000,
            mc_luma_pj: 640_000,
            mc_chroma_pj: 160_000,
            vlc_bit_pj: 10_000,
            mb_overhead_pj: 625_000,
            mem_read_byte_pj: 2_500,
            mem_write_byte_pj: 3_750,
        }
    }
}

impl EnergyPrice {
    /// Prices one candidate's coding work in integer picojoules: the
    /// transform/MC/overhead op classes of `ops` (a delta for just this
    /// macroblock), the memory-traffic term, and `bits` of entropy
    /// coding. SAD work is deliberately not priced here — motion
    /// estimation is sunk before the mode decision.
    pub fn mb_energy_pj(&self, ops: &OpCounts, bits: u64) -> u64 {
        self.dct_block_pj * ops.dct_blocks
            + self.idct_block_pj * ops.idct_blocks
            + self.quant_block_pj * ops.quant_blocks
            + self.dequant_block_pj * ops.dequant_blocks
            + self.mc_luma_pj * ops.mc_luma_blocks
            + self.mc_chroma_pj * ops.mc_chroma_blocks
            + self.mem_read_byte_pj * ops.ref_read_bytes
            + self.mem_write_byte_pj * ops.recon_write_bytes
            + self.vlc_bit_pj * bits
            + self.mb_overhead_pj
    }
}

/// Configuration of the RDE controller. All-integer (`Eq`, `Copy`) so an
/// [`crate::EncoderConfig`] carrying it stays hashable and serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RdeConfig {
    /// Q16.16 weight on coded bits ([`LAMBDA_ONE`] = one SSE unit/bit).
    #[serde(default)]
    pub lambda1_q16: u32,
    /// Q16.16 weight on picojoules of coding energy.
    #[serde(default)]
    pub lambda2_q16: u32,
    /// Per-operation prices. Defaults to the iPAQ H5555 profile.
    #[serde(default)]
    pub price: EnergyPrice,
}

impl Default for RdeConfig {
    /// Zero λ — the inert configuration (bit-identical to no RDE).
    fn default() -> Self {
        RdeConfig {
            lambda1_q16: 0,
            lambda2_q16: 0,
            price: EnergyPrice::default(),
        }
    }
}

impl RdeConfig {
    /// Whether the controller actually reprices decisions. At zero λ the
    /// encoder bypasses trial coding entirely (the zero-λ gate).
    pub fn is_active(&self) -> bool {
        self.lambda1_q16 != 0 || self.lambda2_q16 != 0
    }

    /// A configuration weighting only bits.
    pub fn rate_weighted(lambda1_q16: u32) -> Self {
        RdeConfig {
            lambda1_q16,
            ..RdeConfig::default()
        }
    }

    /// A configuration weighting only energy.
    pub fn energy_weighted(lambda2_q16: u32) -> Self {
        RdeConfig {
            lambda2_q16,
            ..RdeConfig::default()
        }
    }
}

/// The joint cost `J = (D << 16) + λ1·R + λ2·E` in Q16.16 SSE units.
/// `u128` holds the worst case with > 40 bits of headroom.
pub fn rde_cost(sse: u64, bits: u64, energy_pj: u64, lambda1_q16: u32, lambda2_q16: u32) -> u128 {
    ((sse as u128) << 16)
        + lambda1_q16 as u128 * bits as u128
        + lambda2_q16 as u128 * energy_pj as u128
}

/// Sum of squared errors between the two frames' pixels over one
/// macroblock (16×16 luma plus both 8×8 chroma blocks).
pub fn mb_sse(a: &Frame, b: &Frame, mb: MbIndex) -> u64 {
    let (lx, ly) = mb.luma_origin();
    let (cx, cy) = mb.chroma_origin();
    let mut sse = 0u64;
    for y in 0..16 {
        let ra = &a.y().row(ly + y)[lx..lx + 16];
        let rb = &b.y().row(ly + y)[lx..lx + 16];
        for (pa, pb) in ra.iter().zip(rb) {
            let d = *pa as i64 - *pb as i64;
            sse += (d * d) as u64;
        }
    }
    for (pa, pb) in [(a.cb(), b.cb()), (a.cr(), b.cr())] {
        for y in 0..8 {
            let ra = &pa.row(cy + y)[cx..cx + 8];
            let rb = &pb.row(cy + y)[cx..cx + 8];
            for (va, vb) in ra.iter().zip(rb) {
                let d = *va as i64 - *vb as i64;
                sse += (d * d) as u64;
            }
        }
    }
    sse
}

/// One candidate coding of a P-frame macroblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RdeCandidate {
    /// Intra coding (COD=0, mode=intra prefix included in its rate).
    Intra,
    /// Inter coding with this vector (may demote itself to skip).
    Inter(SubPelVector),
    /// Outright skip: one COD bit, colocated copy.
    Skip,
}

/// Codes `cand` in full — COD/mode prefix plus payload — into `w`,
/// reconstructing into `new_recon` and tallying into `ops`. Returns the
/// mode actually produced (inter may demote to skip).
#[allow(clippy::too_many_arguments)]
fn code_candidate(
    cand: RdeCandidate,
    bcfg: &BlockCodeCfg,
    w: &mut BitWriter,
    frame: &Frame,
    reference: &Frame,
    new_recon: &mut Frame,
    mb: MbIndex,
    ops: &mut OpCounts,
) -> MbMode {
    match cand {
        RdeCandidate::Intra => {
            w.put_bit(false); // COD = 0: coded
            w.put_bit(true); // intra
            code_intra_mb(bcfg, w, frame, new_recon, mb, ops);
            MbMode::Intra
        }
        RdeCandidate::Inter(mv) => code_inter_mb(bcfg, w, frame, reference, new_recon, mb, mv, ops),
        RdeCandidate::Skip => code_skip_mb(w, reference, new_recon, mb, ops),
    }
}

/// Trial-codes every candidate for one P-frame macroblock, scores each
/// by `J = D + λ1·R + λ2·E`, and codes the argmin into the real writer.
///
/// The baseline (the policy/natural decision the plain encoder would
/// have made) is evaluated first and a challenger needs a strictly
/// smaller `J` to displace it, so ties preserve the baseline. Each trial
/// overwrites the macroblock's region of `new_recon` completely, and the
/// winner is coded last, so the reconstruction the next stage sees is
/// the chosen candidate's. Trial operations are tallied into a local
/// scratch and discarded; only the final coding is charged to `ops`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn choose_and_code_mb(
    rde: &RdeConfig,
    bcfg: &BlockCodeCfg,
    w: &mut BitWriter,
    scratch: &mut BitWriter,
    frame: &Frame,
    reference: &Frame,
    new_recon: &mut Frame,
    mb: MbIndex,
    baseline: RdeCandidate,
    ops: &mut OpCounts,
) -> MbMode {
    let mut candidates: [Option<RdeCandidate>; 4] = [Some(baseline), None, None, None];
    let mut n = 1;
    let push = |c: RdeCandidate, cands: &mut [Option<RdeCandidate>; 4], n: &mut usize| {
        if c != baseline {
            cands[*n] = Some(c);
            *n += 1;
        }
    };
    push(RdeCandidate::Intra, &mut candidates, &mut n);
    if let RdeCandidate::Inter(mv) = baseline {
        push(RdeCandidate::Inter(mv), &mut candidates, &mut n);
    }
    push(RdeCandidate::Skip, &mut candidates, &mut n);

    let mut best = baseline;
    let mut best_j = u128::MAX;
    for cand in candidates.iter().take(n).flatten() {
        scratch.reset();
        let mut trial_ops = OpCounts::new();
        code_candidate(
            *cand,
            bcfg,
            scratch,
            frame,
            reference,
            new_recon,
            mb,
            &mut trial_ops,
        );
        let bits = scratch.bit_len();
        let sse = mb_sse(frame, new_recon, mb);
        let energy = rde.price.mb_energy_pj(&trial_ops, bits);
        let j = rde_cost(sse, bits, energy, rde.lambda1_q16, rde.lambda2_q16);
        if j < best_j {
            best_j = j;
            best = *cand;
        }
    }

    code_candidate(best, bcfg, w, frame, reference, new_recon, mb, ops)
}

/// Outcome of [`bisect_min_lambda`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BisectOutcome {
    /// The minimal λ in `[lo, hi]` whose evaluation meets the budget
    /// (minimal up to the interval the iteration cap left open).
    Converged {
        /// The λ found.
        lambda: u32,
        /// `eval(lambda)`, ≤ the budget.
        value: u64,
        /// Evaluations performed.
        iters: u32,
    },
    /// Even `hi` misses the budget: the boundary proof. `value` is
    /// `eval(hi)`, the closest the plane gets.
    Boundary {
        /// The upper bound that still misses.
        lambda: u32,
        /// `eval(lambda)`, > the budget.
        value: u64,
        /// Evaluations performed.
        iters: u32,
    },
}

impl BisectOutcome {
    /// The λ the solver settled on, feasible or boundary.
    pub fn lambda(&self) -> u32 {
        match *self {
            BisectOutcome::Converged { lambda, .. } | BisectOutcome::Boundary { lambda, .. } => {
                lambda
            }
        }
    }

    /// Evaluations the solver spent.
    pub fn iters(&self) -> u32 {
        match *self {
            BisectOutcome::Converged { iters, .. } | BisectOutcome::Boundary { iters, .. } => iters,
        }
    }
}

/// Integer bisection for the λ-plane budget problem: given `eval`
/// non-increasing in λ (a larger price never yields more of the priced
/// quantity — the metamorphic property the test battery pins), finds the
/// minimal `λ ∈ [lo, hi]` with `eval(λ) ≤ budget`.
///
/// The solver is pure and deterministic: same inputs, same λ sequence,
/// regardless of worker count or evaluation backend. It performs at most
/// `⌈log2(hi−lo)⌉ + 2` evaluations and never more than
/// `max_iters.max(2)`; if the cap closes the search early the returned
/// feasible λ is minimal only up to the unexplored interval (the
/// proptest exercises both regimes).
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn bisect_min_lambda(
    lo: u32,
    hi: u32,
    budget: u64,
    max_iters: u32,
    mut eval: impl FnMut(u32) -> u64,
) -> BisectOutcome {
    assert!(lo <= hi, "bisection interval is inverted");
    let mut iters = 0u32;
    let mut eval_counted = |l: u32, iters: &mut u32| {
        *iters += 1;
        eval(l)
    };
    let at_lo = eval_counted(lo, &mut iters);
    if at_lo <= budget {
        return BisectOutcome::Converged {
            lambda: lo,
            value: at_lo,
            iters,
        };
    }
    if lo == hi {
        return BisectOutcome::Boundary {
            lambda: hi,
            value: at_lo,
            iters,
        };
    }
    let at_hi = eval_counted(hi, &mut iters);
    if at_hi > budget {
        return BisectOutcome::Boundary {
            lambda: hi,
            value: at_hi,
            iters,
        };
    }
    // Invariant: eval(infeasible_lo) > budget ≥ eval(feasible_hi).
    let (mut infeasible, mut feasible, mut feasible_value) = (lo, hi, at_hi);
    let cap = max_iters.max(2);
    while feasible - infeasible > 1 && iters < cap {
        let mid = infeasible + (feasible - infeasible) / 2;
        let v = eval_counted(mid, &mut iters);
        if v <= budget {
            feasible = mid;
            feasible_value = v;
        } else {
            infeasible = mid;
        }
    }
    BisectOutcome::Converged {
        lambda: feasible,
        value: feasible_value,
        iters,
    }
}

/// Cross-frame λ adaptation: a closed-loop bracket bisection that uses
/// each frame's *measured* bits or picojoules to refine the λ bracket
/// for the next frame, converging on a per-frame budget without ever
/// re-encoding. Integer-only and sequential, so a fleet of sessions
/// adapting independently stays deterministic at any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameLambdaAdapter {
    /// Largest λ observed infeasible (measurement above budget).
    lo: u32,
    /// Smallest λ observed feasible, or the configured upper bound.
    hi: u32,
    /// λ to apply to the next frame.
    cur: u32,
    /// Per-frame budget in the measured unit (bits or picojoules).
    budget: u64,
}

impl FrameLambdaAdapter {
    /// A new adapter bisecting `[lo, hi]` toward `budget`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: u32, hi: u32, budget: u64) -> Self {
        assert!(lo <= hi, "adapter interval is inverted");
        FrameLambdaAdapter {
            lo,
            hi,
            cur: lo + (hi - lo) / 2,
            budget,
        }
    }

    /// The λ to encode the next frame with.
    pub fn lambda(&self) -> u32 {
        self.cur
    }

    /// The budget being tracked.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Whether the bracket has collapsed (further observations keep λ
    /// pinned at the boundary-or-converged point).
    pub fn settled(&self) -> bool {
        self.hi - self.lo <= 1
    }

    /// Feeds back the measured quantity of the frame just encoded at
    /// [`FrameLambdaAdapter::lambda`] and returns the λ for the next
    /// frame. Over budget → λ must rise (the bracket's low end moves
    /// up); within budget → λ may fall (the high end moves down).
    pub fn observe(&mut self, measured: u64) -> u32 {
        if !self.settled() {
            if measured > self.budget {
                self.lo = self.cur;
            } else {
                self.hi = self.cur;
            }
            self.cur = self.lo + (self.hi - self.lo) / 2;
        } else if measured > self.budget {
            // Settled but still over: pin to the top of the bracket —
            // the boundary answer.
            self.cur = self.hi;
        }
        self.cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbpair_media::VideoFormat;

    #[test]
    fn cost_is_linear_in_each_price() {
        let j0 = rde_cost(100, 50, 1_000, 0, 0);
        assert_eq!(j0, 100 << 16);
        assert_eq!(rde_cost(100, 50, 1_000, LAMBDA_ONE, 0) - j0, 50 << 16);
        assert_eq!(rde_cost(100, 50, 1_000, 0, LAMBDA_ONE) - j0, 1_000 << 16);
    }

    #[test]
    fn mb_sse_is_zero_on_identical_frames_and_counts_all_planes() {
        let a = Frame::flat(VideoFormat::QCIF, 100);
        let mut b = Frame::flat(VideoFormat::QCIF, 100);
        let mb = MbIndex::new(0, 0);
        assert_eq!(mb_sse(&a, &b, mb), 0);
        b.y_mut().set(3, 3, 110); // +10² in luma
        b.cb_mut().set(1, 1, 125); // 128 → 125: +3² in chroma
        assert_eq!(mb_sse(&a, &b, mb), 100 + 9);
        // A pixel outside the MB footprint does not count.
        b.y_mut().set(40, 3, 0);
        assert_eq!(mb_sse(&a, &b, mb), 109);
    }

    #[test]
    fn mc_read_bytes_grows_with_half_pel_components() {
        use crate::mb::MotionVector;
        assert_eq!(mc_read_bytes(SubPelVector::ZERO), MB_FOOTPRINT_BYTES);
        // Even integer components keep chroma on the integer grid.
        assert_eq!(
            mc_read_bytes(SubPelVector::integer(MotionVector::new(-8, 12))),
            MB_FOOTPRINT_BYTES
        );
        // Odd integer components floor-halve to half-pel *chroma*
        // positions, which read one extra chroma row/column each.
        assert_eq!(
            mc_read_bytes(SubPelVector::integer(MotionVector::new(-7, 13))),
            16 * 16 + 2 * 9 * 9
        );
        let half_x = SubPelVector::from_half_units(1, 0);
        assert_eq!(mc_read_bytes(half_x), 17 * 16 + 2 * 8 * 8);
        let half_both = SubPelVector::from_half_units(3, 5);
        // Luma 17×17; chroma half units (1, 2) → x fractional only: 9×8.
        assert_eq!(mc_read_bytes(half_both), 17 * 17 + 2 * 9 * 8);
    }

    #[test]
    fn default_price_is_ipaq_times_1000() {
        let p = EnergyPrice::default();
        assert_eq!(p.dct_block_pj, 1_500 * PJ_PER_NJ);
        assert_eq!(p.vlc_bit_pj, 10 * PJ_PER_NJ);
        assert_eq!(PJ_PER_UJ, 1_000 * PJ_PER_NJ);
    }

    #[test]
    fn zero_lambda_config_is_inert() {
        assert!(!RdeConfig::default().is_active());
        assert!(RdeConfig::rate_weighted(1).is_active());
        assert!(RdeConfig::energy_weighted(1).is_active());
    }

    #[test]
    fn bisection_finds_the_minimal_feasible_lambda() {
        // eval(λ) = 1000 − λ (non-increasing); budget 400 → λ* = 600.
        let out = bisect_min_lambda(0, 1_000, 400, 32, |l| 1_000 - l as u64);
        match out {
            BisectOutcome::Converged { lambda, value, .. } => {
                assert_eq!(lambda, 600);
                assert_eq!(value, 400);
            }
            other => panic!("expected convergence, got {other:?}"),
        }
    }

    #[test]
    fn bisection_proves_the_boundary() {
        let out = bisect_min_lambda(0, 100, 10, 32, |_| 50);
        match out {
            BisectOutcome::Boundary { lambda, value, .. } => {
                assert_eq!(lambda, 100);
                assert_eq!(value, 50);
            }
            other => panic!("expected boundary, got {other:?}"),
        }
    }

    #[test]
    fn adapter_converges_to_the_budget_crossing() {
        // Measured(λ) = 1000 − λ, budget 300 → crossing at λ = 700.
        let mut a = FrameLambdaAdapter::new(0, 1_024, 300);
        for _ in 0..16 {
            let measured = 1_000u64.saturating_sub(a.lambda() as u64);
            a.observe(measured);
        }
        assert!(a.settled());
        let measured = 1_000u64.saturating_sub(a.lambda() as u64);
        assert!(
            measured <= 300,
            "settled λ {} still over budget: {measured}",
            a.lambda()
        );
        assert!(a.lambda() <= 704, "overshot the crossing: {}", a.lambda());
    }
}
