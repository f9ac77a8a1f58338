//! PBPAIR — Probability Based Power Aware Intra Refresh (paper §3).
//!
//! The policy integrates into the encoder at the two points Figure 2
//! identifies:
//!
//! 1. **Encoding mode selection, before motion estimation** (§3.1.1):
//!    a macroblock whose probability of correctness `σ^{k−1}_{i,j}` has
//!    fallen below the user's `Intra_Th` is coded intra *without running
//!    motion estimation at all* — this early decision is where the energy
//!    saving comes from, since ME is the dominant encoder cost.
//! 2. **σ-aware motion estimation** (§3.1.2): every ME candidate pays a
//!    penalty proportional to the expected damage of its reference area,
//!    `λ · (1 − σ_ref(mv)) · penalty_scale`, reconstructing the paper's
//!    Figure-3 behaviour: a low-SAD candidate that probably arrived
//!    corrupted loses to a clean, slightly-worse match. (The paper defers
//!    the exact formulation to its technical report [15], which is not
//!    available; DESIGN.md documents this linear form as our
//!    reconstruction.)
//!
//! After each macroblock the policy applies the Equation 1/2 update to its
//! correctness matrix, and commits the matrix at frame end.

use crate::correctness::{CorrectnessMatrix, SimilarityModel};
use pbpair_codec::{
    FrameContext, FrameKind, FrameStats, MbContext, MbMode, MbOutcome, MotionVector, PreMeDecision,
    RefreshPolicy,
};
use pbpair_media::VideoFormat;
use serde::{Deserialize, Serialize};

/// PBPAIR configuration knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PbpairConfig {
    /// `Intra_Th ∈ [0, 1]`: the user's error-resiliency expectation.
    /// 0 disables refresh entirely; 1 forces every macroblock intra.
    pub intra_th: f64,
    /// `α`: the network packet-loss rate the probability model assumes.
    /// Updated live via [`PbpairPolicy::set_plr`] when feedback arrives.
    pub plr: f64,
    /// Weight of the σ-penalty in the ME cost (λ). 0 disables the σ-aware
    /// search (ablation: plain SAD).
    pub lambda: f64,
    /// SAD-unit scale of a full-damage penalty: a candidate whose
    /// reference is certainly lost costs `λ · penalty_scale` extra.
    pub penalty_scale: f64,
    /// Similarity model for the matrix update (copy concealment by
    /// default; [`SimilarityModel::None`] reproduces Equation 3).
    pub similarity: SimilarityModel,
    /// Which measurement feeds the similarity factor — must match the
    /// decoder's concealment strategy (§3.1.3: the similarity factor
    /// "depends on which error concealment algorithm we use at the
    /// decoder").
    pub similarity_input: SimilarityInput,
    /// Relative per-macroblock dither applied to `Intra_Th` (±fraction,
    /// deterministic per macroblock position). Staggers threshold
    /// crossings of macroblocks with similar σ trajectories. Set to 0.0
    /// for the undithered behaviour.
    pub threshold_jitter: f64,
    /// Maximum fraction of the frame's macroblocks the early decision may
    /// force intra in a single frame (`1.0` = uncapped, the formula as
    /// published). Equation 1's `min(related σ)` spatially couples the
    /// correctness field, so σ values synchronize and cross the threshold
    /// in avalanches — periodic refresh storms that re-create the GOP-like
    /// bit-rate spikes the scheme is meant to avoid (see EXPERIMENTS.md's
    /// congestion section). A cap rations refreshes across frames: excess
    /// macroblocks keep decaying and refresh in the following frames, so
    /// robustness is delayed by a frame or two instead of the bitstream
    /// spiking.
    pub refresh_cap_ratio: f64,
}

/// The SAD measurement the similarity factor is computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SimilarityInput {
    /// SAD against the colocated macroblock of the previous frame — the
    /// quality of **copy** concealment ([`pbpair_codec::Concealment::CopyPrevious`]).
    ColocatedSad,
    /// The motion-compensated residual SAD (the ME output) when
    /// available — the quality of **motion-copy** concealment
    /// ([`pbpair_codec::Concealment::MotionCopy`]): a well-predicted
    /// moving macroblock conceals well under motion extrapolation even
    /// though its colocated difference is large. Falls back to the
    /// colocated SAD for macroblocks that skipped the search.
    MotionResidual,
}

impl Default for PbpairConfig {
    /// `Intra_Th` 0.9, 10% PLR (the paper's evaluation point), λ = 1 with
    /// a 4096-SAD full-damage penalty, copy-concealment similarity.
    fn default() -> Self {
        PbpairConfig {
            intra_th: 0.9,
            plr: 0.10,
            lambda: 1.0,
            penalty_scale: 4096.0,
            similarity: SimilarityModel::default_copy_concealment(),
            similarity_input: SimilarityInput::ColocatedSad,
            threshold_jitter: 0.03,
            refresh_cap_ratio: 1.0,
        }
    }
}

impl PbpairConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.intra_th) {
            return Err(format!("intra_th {} outside [0,1]", self.intra_th));
        }
        if !(0.0..=1.0).contains(&self.plr) {
            return Err(format!("plr {} outside [0,1]", self.plr));
        }
        if self.lambda < 0.0 {
            return Err(format!("lambda {} negative", self.lambda));
        }
        if self.penalty_scale < 0.0 {
            return Err(format!("penalty_scale {} negative", self.penalty_scale));
        }
        if !(0.0..=0.5).contains(&self.threshold_jitter) {
            return Err(format!(
                "threshold_jitter {} outside [0, 0.5]",
                self.threshold_jitter
            ));
        }
        if !(0.0..=1.0).contains(&self.refresh_cap_ratio) || self.refresh_cap_ratio == 0.0 {
            return Err(format!(
                "refresh_cap_ratio {} outside (0, 1]",
                self.refresh_cap_ratio
            ));
        }
        Ok(())
    }
}

/// The PBPAIR refresh policy.
///
/// # Example
///
/// ```rust
/// use pbpair::{PbpairConfig, PbpairPolicy};
/// use pbpair_codec::{Encoder, EncoderConfig};
/// use pbpair_media::{synth::SyntheticSequence, VideoFormat};
///
/// # fn main() -> Result<(), String> {
/// let mut policy = PbpairPolicy::new(VideoFormat::QCIF, PbpairConfig::default())?;
/// let mut enc = Encoder::new(EncoderConfig::default());
/// let mut seq = SyntheticSequence::foreman_class(1);
/// for _ in 0..4 {
///     let e = enc.encode_frame(&seq.next_frame(), &mut policy);
///     assert_eq!(e.stats.total_mbs(), 99);
/// }
/// // The probability model has started tracking degradation:
/// assert!(policy.matrix().mean_sigma() <= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PbpairPolicy {
    cfg: PbpairConfig,
    matrix: CorrectnessMatrix,
    /// Macroblocks forced intra by the early decision in the current
    /// frame (diagnostics; reset every frame).
    forced_intra_this_frame: u32,
}

impl PbpairPolicy {
    /// Creates a PBPAIR policy for the given picture format.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(format: VideoFormat, cfg: PbpairConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(PbpairPolicy {
            matrix: CorrectnessMatrix::new(format, cfg.similarity),
            cfg,
            forced_intra_this_frame: 0,
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &PbpairConfig {
        &self.cfg
    }

    /// Read access to the correctness matrix (reports, tests).
    pub fn matrix(&self) -> &CorrectnessMatrix {
        &self.matrix
    }

    /// Updates the assumed packet-loss rate `α` from network feedback
    /// (§3.2: "based on the feedback information from the network").
    ///
    /// # Panics
    ///
    /// Panics if `plr` is outside `[0, 1]`.
    pub fn set_plr(&mut self, plr: f64) {
        assert!((0.0..=1.0).contains(&plr), "plr must be a probability");
        self.cfg.plr = plr;
    }

    /// Adjusts `Intra_Th` at run time — the knob the power-aware
    /// controller (§3.2) turns.
    ///
    /// # Panics
    ///
    /// Panics if `intra_th` is outside `[0, 1]`.
    pub fn set_intra_th(&mut self, intra_th: f64) {
        assert!((0.0..=1.0).contains(&intra_th), "intra_th must be in [0,1]");
        self.cfg.intra_th = intra_th;
    }

    /// Current `Intra_Th`.
    pub fn intra_th(&self) -> f64 {
        self.cfg.intra_th
    }

    /// Current assumed PLR.
    pub fn plr(&self) -> f64 {
        self.cfg.plr
    }

    /// The dithered threshold for one macroblock (see
    /// [`dithered_threshold`]).
    fn effective_threshold(&self, mb: pbpair_media::MbIndex) -> f64 {
        dithered_threshold(
            self.cfg.intra_th,
            self.cfg.threshold_jitter,
            self.matrix.grid().flat_index(mb),
        )
    }
}

/// `Intra_Th` scaled by a deterministic factor in `[1−j, 1+j]` derived
/// from the macroblock's flat index. The boundary operating points are
/// exempt: 1.0 still forces everything and 0.0 still forces nothing.
/// Shared by [`PbpairPolicy`] and the late-decision ablation so their
/// refresh patterns stay comparable.
pub(crate) fn dithered_threshold(th: f64, j: f64, flat_index: usize) -> f64 {
    if j == 0.0 || th >= 1.0 || th <= 0.0 {
        return th;
    }
    // splitmix64 finalizer over the flat index → uniform in [-1, 1].
    let mut z = (flat_index as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x1234_5678_9abc_def0);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let u = ((z >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
    (th * (1.0 + j * u)).clamp(0.0, 1.0)
}

impl RefreshPolicy for PbpairPolicy {
    fn begin_frame(&mut self, _ctx: &FrameContext) -> FrameKind {
        // PBPAIR never inserts whole I-frames; robustness is distributed
        // across macroblocks (like AIR/PGOP, it avoids the GOP bit-rate
        // spikes of Figure 6(b)).
        self.forced_intra_this_frame = 0;
        FrameKind::Inter
    }

    fn pre_me_mode(&mut self, ctx: &MbContext<'_>) -> PreMeDecision {
        // §3.1.1: σ^{k−1}_{i,j} < Intra_Th → intra, and skip ME. The
        // threshold carries a small deterministic per-MB dither so the
        // refresh phases of macroblocks with similar σ trajectories stay
        // decorrelated (no refresh storms; see `threshold_jitter`).
        let cap = (self.cfg.refresh_cap_ratio * self.matrix.grid().len() as f64).ceil() as u32;
        if self.forced_intra_this_frame < cap
            && self.matrix.sigma(ctx.mb) < self.effective_threshold(ctx.mb)
        {
            self.forced_intra_this_frame += 1;
            PreMeDecision::ForceIntra
        } else {
            PreMeDecision::TryInter
        }
    }

    fn me_bias(&mut self, ctx: &MbContext<'_>, mv: MotionVector) -> i64 {
        if self.cfg.lambda == 0.0 {
            return 0;
        }
        let (ox, oy) = ctx.mb.luma_origin();
        let sigma_ref = self
            .matrix
            .sigma_of_region(ox as isize + mv.x as isize, oy as isize + mv.y as isize);
        (self.cfg.lambda * (1.0 - sigma_ref) * self.cfg.penalty_scale) as i64
    }

    fn mb_coded(&mut self, _ctx: &FrameContext, outcome: &MbOutcome) {
        let sim_sad = match self.cfg.similarity_input {
            SimilarityInput::ColocatedSad => outcome.colocated_sad,
            SimilarityInput::MotionResidual => outcome.sad_mv.unwrap_or(outcome.colocated_sad),
        };
        match outcome.mode {
            MbMode::Intra => self.matrix.update_intra(outcome.mb, sim_sad, self.cfg.plr),
            MbMode::Inter | MbMode::Skip => {
                self.matrix
                    .update_inter(outcome.mb, outcome.mv, sim_sad, self.cfg.plr)
            }
        }
    }

    fn end_frame(&mut self, _ctx: &FrameContext, _stats: &FrameStats) {
        self.matrix.commit_frame();
    }

    fn label(&self) -> String {
        format!(
            "PBPAIR(th={:.2},plr={:.2})",
            self.cfg.intra_th, self.cfg.plr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbpair_codec::{Encoder, EncoderConfig};
    use pbpair_media::synth::SyntheticSequence;

    fn encode_with(cfg: PbpairConfig, frames: usize, seed: u64) -> (Encoder, Vec<f64>) {
        let mut policy = PbpairPolicy::new(VideoFormat::QCIF, cfg).unwrap();
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut seq = SyntheticSequence::foreman_class(seed);
        let mut intra_ratios = Vec::new();
        for _ in 0..frames {
            let e = enc.encode_frame(&seq.next_frame(), &mut policy);
            intra_ratios.push(e.stats.intra_ratio());
        }
        (enc, intra_ratios)
    }

    #[test]
    fn config_validation() {
        assert!(PbpairConfig::default().validate().is_ok());
        let bad = PbpairConfig {
            intra_th: 1.5,
            ..PbpairConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = PbpairConfig {
            plr: -0.1,
            ..PbpairConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = PbpairConfig {
            lambda: -1.0,
            ..PbpairConfig::default()
        };
        assert!(PbpairPolicy::new(VideoFormat::QCIF, bad).is_err());
    }

    #[test]
    fn intra_th_zero_never_forces_refresh() {
        let cfg = PbpairConfig {
            intra_th: 0.0,
            ..PbpairConfig::default()
        };
        let mut policy = PbpairPolicy::new(VideoFormat::QCIF, cfg).unwrap();
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut seq = SyntheticSequence::akiyo_class(3);
        let _ = enc.encode_frame(&seq.next_frame(), &mut policy);
        for _ in 0..4 {
            let _ = enc.encode_frame(&seq.next_frame(), &mut policy);
        }
        assert_eq!(
            policy.forced_intra_this_frame, 0,
            "Intra_Th = 0 must behave like NO"
        );
    }

    #[test]
    fn intra_th_one_forces_everything_intra() {
        // The paper: "if user defined Intra_Th value equals to one, PBPAIR
        // generates all macro blocks as intra macro block."
        let cfg = PbpairConfig {
            intra_th: 1.0,
            ..PbpairConfig::default()
        };
        let mut policy = PbpairPolicy::new(VideoFormat::QCIF, cfg).unwrap();
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut seq = SyntheticSequence::foreman_class(4);
        let _ = enc.encode_frame(&seq.next_frame(), &mut policy); // I-frame
        let e = enc.encode_frame(&seq.next_frame(), &mut policy);
        assert_eq!(e.stats.intra_mbs, 99);
        assert_eq!(e.stats.me_invocations, 0, "no ME at Intra_Th = 1");
    }

    #[test]
    fn higher_intra_th_yields_more_intra_mbs() {
        let ratio = |th: f64| {
            let cfg = PbpairConfig {
                intra_th: th,
                ..PbpairConfig::default()
            };
            let (_, ratios) = encode_with(cfg, 20, 7);
            ratios[1..].iter().sum::<f64>() / (ratios.len() - 1) as f64
        };
        let low = ratio(0.5);
        let high = ratio(0.97);
        assert!(
            high > low,
            "higher Intra_Th must produce more intra MBs: {high} vs {low}"
        );
    }

    #[test]
    fn higher_plr_yields_more_intra_mbs_at_fixed_th() {
        // §3.2: "if PLR increases and Intra_Th is fixed, σ decreases
        // faster. Therefore, the PBPAIR inserts more intra macro blocks."
        let ratio = |plr: f64| {
            let cfg = PbpairConfig {
                intra_th: 0.9,
                plr,
                ..PbpairConfig::default()
            };
            let (_, ratios) = encode_with(cfg, 20, 9);
            ratios[1..].iter().sum::<f64>() / (ratios.len() - 1) as f64
        };
        let low = ratio(0.02);
        let high = ratio(0.3);
        assert!(
            high > low,
            "higher PLR must produce more intra MBs: {high} vs {low}"
        );
    }

    #[test]
    fn pbpair_skips_me_for_forced_intra_mbs() {
        let cfg = PbpairConfig::default();
        let (enc, _) = encode_with(cfg, 20, 11);
        let ops = enc.ops();
        // Every forced-intra MB skipped its search, so invocations must be
        // strictly fewer than the number of P-frame MBs.
        let p_frame_mbs = (20 - 1) * 99;
        assert!(
            ops.me_invocations < p_frame_mbs,
            "expected skipped searches: {} of {p_frame_mbs}",
            ops.me_invocations
        );
    }

    #[test]
    fn me_bias_penalizes_damaged_regions() {
        let mut policy = PbpairPolicy::new(VideoFormat::QCIF, PbpairConfig::default()).unwrap();
        // Manually damage column 0 of the matrix.
        for mb in policy.matrix.grid().iter().collect::<Vec<_>>() {
            if mb.col == 0 {
                policy
                    .matrix
                    .update_inter(mb, MotionVector::ZERO, u64::MAX, 1.0);
            } else {
                policy.matrix.update_intra(mb, 0, 0.0);
            }
        }
        policy.matrix.commit_frame();
        let plane = pbpair_media::Plane::new(176, 144);
        let ctx = MbContext {
            frame_index: 1,
            mb: pbpair_media::MbIndex::new(0, 1),
            cur_luma: &plane,
            ref_luma: &plane,
            colocated_sad: 0,
        };
        // Vector pointing into damaged column 0 vs staying in column 1.
        let into_damage = policy.me_bias(&ctx, MotionVector::new(-16, 0));
        let stay_clean = policy.me_bias(&ctx, MotionVector::ZERO);
        assert!(
            into_damage > stay_clean + 1000,
            "bias must penalize the damaged reference: {into_damage} vs {stay_clean}"
        );
    }

    #[test]
    fn lambda_zero_disables_bias() {
        let cfg = PbpairConfig {
            lambda: 0.0,
            ..PbpairConfig::default()
        };
        let mut policy = PbpairPolicy::new(VideoFormat::QCIF, cfg).unwrap();
        let plane = pbpair_media::Plane::new(176, 144);
        let ctx = MbContext {
            frame_index: 1,
            mb: pbpair_media::MbIndex::new(0, 0),
            cur_luma: &plane,
            ref_luma: &plane,
            colocated_sad: 0,
        };
        assert_eq!(policy.me_bias(&ctx, MotionVector::new(5, 5)), 0);
    }

    #[test]
    fn runtime_knobs_update() {
        let mut policy = PbpairPolicy::new(VideoFormat::QCIF, PbpairConfig::default()).unwrap();
        policy.set_plr(0.25);
        policy.set_intra_th(0.5);
        assert_eq!(policy.plr(), 0.25);
        assert_eq!(policy.intra_th(), 0.5);
        assert!(policy.label().contains("0.50"));
    }

    #[test]
    fn refresh_cap_bounds_forced_intra_per_frame() {
        // Drive the matrix into an avalanche (high α, no cap would storm)
        // and verify the per-frame forced count stays under the cap.
        let cap_ratio = 0.1;
        let cfg = PbpairConfig {
            intra_th: 0.95,
            plr: 0.3,
            refresh_cap_ratio: cap_ratio,
            ..PbpairConfig::default()
        };
        let mut policy = PbpairPolicy::new(VideoFormat::QCIF, cfg).unwrap();
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut seq = SyntheticSequence::foreman_class(31);
        let cap = (cap_ratio * 99.0).ceil() as u32;
        let _ = enc.encode_frame(&seq.next_frame(), &mut policy);
        for _ in 0..15 {
            let e = enc.encode_frame(&seq.next_frame(), &mut policy);
            // Forced refreshes ≤ cap; natural intra may add a few more.
            assert!(
                policy.forced_intra_this_frame <= cap,
                "forced {} exceeds cap {cap}",
                policy.forced_intra_this_frame
            );
            let _ = e;
        }
        // Invalid caps are rejected.
        assert!(PbpairConfig {
            refresh_cap_ratio: 0.0,
            ..PbpairConfig::default()
        }
        .validate()
        .is_err());
        assert!(PbpairConfig {
            refresh_cap_ratio: 1.5,
            ..PbpairConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn motion_residual_similarity_tracks_prediction_quality() {
        // On panning content, motion-compensated residual SAD is far
        // below the colocated SAD, so the MotionResidual input (matched
        // to motion-copy concealment) keeps sigma higher → fewer forced
        // refreshes at the same threshold.
        let run = |input: SimilarityInput| {
            let cfg = PbpairConfig {
                intra_th: 0.93,
                plr: 0.2,
                similarity_input: input,
                ..PbpairConfig::default()
            };
            let mut policy = PbpairPolicy::new(VideoFormat::QCIF, cfg).unwrap();
            let mut enc = Encoder::new(EncoderConfig::default());
            let mut seq = pbpair_media::synth::SyntheticSequence::garden_class(21);
            let mut intra = 0u32;
            for _ in 0..12 {
                intra += enc
                    .encode_frame(&seq.next_frame(), &mut policy)
                    .stats
                    .intra_mbs;
            }
            intra
        };
        let colocated = run(SimilarityInput::ColocatedSad);
        let residual = run(SimilarityInput::MotionResidual);
        assert!(
            residual < colocated,
            "motion-residual similarity must refresh less on a pan: {residual} vs {colocated}"
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn set_plr_validates() {
        let mut policy = PbpairPolicy::new(VideoFormat::QCIF, PbpairConfig::default()).unwrap();
        policy.set_plr(2.0);
    }
}
