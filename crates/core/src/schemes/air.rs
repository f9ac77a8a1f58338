//! AIR-N: adaptive intra refresh (MPEG-4 style, refs [5, 6] of the paper).
//!
//! AIR refreshes, in every P-frame, the N macroblocks with the highest
//! motion activity — "the MBs that have higher difference from the
//! corresponding MBs in the previous frame". It is *content aware* but
//! not network aware, and critically it **decides the encoding mode after
//! motion estimation**: the SAD values that drive the ranking come out of
//! the ME process, so every macroblock still pays for its search. That is
//! why the paper measures AIR's encoding energy at essentially the NO
//! level (Figure 5(d)).
//!
//! The refresh map for frame `k` is ranked from the activity observed
//! while encoding frame `k−1` (the standard refresh-map realization of
//! AIR), with a round-robin tiebreaker so static scenes still cycle
//! through all macroblocks eventually.

use pbpair_codec::{
    FrameContext, FrameKind, MbContext, MbOutcome, MeResult, PostMeDecision, RefreshPolicy,
};
use pbpair_media::{MbGrid, VideoFormat};

/// The AIR-N policy.
///
/// # Example
///
/// ```rust
/// use pbpair::schemes::AirPolicy;
/// use pbpair_codec::{Encoder, EncoderConfig};
/// use pbpair_media::{synth::SyntheticSequence, VideoFormat};
///
/// let mut policy = AirPolicy::new(VideoFormat::QCIF, 24);
/// let mut enc = Encoder::new(EncoderConfig::default());
/// let mut seq = SyntheticSequence::foreman_class(1);
/// let _ = enc.encode_frame(&seq.next_frame(), &mut policy); // I-frame
/// let e = enc.encode_frame(&seq.next_frame(), &mut policy);
/// assert!(e.stats.intra_mbs >= 24); // the refresh set, plus natural intra
/// ```
#[derive(Debug, Clone)]
pub struct AirPolicy {
    grid: MbGrid,
    /// Macroblocks to force intra in the current frame.
    refresh_map: Vec<bool>,
    /// Activity (SAD) observed for each macroblock in the frame being
    /// encoded; becomes the ranking input for the next frame.
    activity: Vec<u64>,
    /// Round-robin cursor for tie-breaking and cold starts.
    cursor: usize,
    n: usize,
}

impl AirPolicy {
    /// Creates AIR-N for the given format. `n` is clamped to the number
    /// of macroblocks per frame.
    pub fn new(format: VideoFormat, n: usize) -> Self {
        let grid = MbGrid::new(format);
        let n = n.min(grid.len());
        AirPolicy {
            refresh_map: vec![false; grid.len()],
            activity: vec![0; grid.len()],
            cursor: 0,
            grid,
            n,
        }
    }

    /// The configured refresh count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rebuilds the refresh map from last frame's activity ranking.
    fn rebuild_map(&mut self) {
        self.refresh_map.iter_mut().for_each(|b| *b = false);
        if self.n == 0 {
            return;
        }
        // Rank by (activity desc, round-robin distance from cursor) so
        // equal-activity MBs rotate rather than starve.
        let len = self.grid.len();
        let cursor = self.cursor;
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_by_key(|&i| {
            let rr = (i + len - cursor) % len;
            (std::cmp::Reverse(self.activity[i]), rr)
        });
        for &i in order.iter().take(self.n) {
            self.refresh_map[i] = true;
        }
        self.cursor = (self.cursor + self.n) % len;
    }
}

impl RefreshPolicy for AirPolicy {
    fn begin_frame(&mut self, ctx: &FrameContext) -> FrameKind {
        if ctx.frame_index > 0 {
            self.rebuild_map();
        }
        FrameKind::Inter
    }

    fn post_me_mode(&mut self, ctx: &MbContext<'_>, _me: &MeResult) -> PostMeDecision {
        // The AIR decision point: after ME, per the paper §2/§4.2.
        if self.refresh_map[self.grid.flat_index(ctx.mb)] {
            PostMeDecision::ForceIntra
        } else {
            PostMeDecision::Keep
        }
    }

    fn mb_coded(&mut self, _ctx: &FrameContext, outcome: &MbOutcome) {
        // Record activity: ME-output SAD when available (the AIR paper's
        // criterion), colocated difference otherwise.
        let idx = self.grid.flat_index(outcome.mb);
        self.activity[idx] = outcome.sad_mv.unwrap_or(outcome.colocated_sad);
    }

    fn label(&self) -> String {
        format!("AIR-{}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbpair_codec::{Encoder, EncoderConfig};
    use pbpair_media::synth::SyntheticSequence;

    fn run(n: usize, frames: usize, seed: u64) -> (Encoder, Vec<pbpair_codec::EncodedFrame>) {
        let mut policy = AirPolicy::new(VideoFormat::QCIF, n);
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut seq = SyntheticSequence::foreman_class(seed);
        let encoded: Vec<_> = (0..frames)
            .map(|_| enc.encode_frame(&seq.next_frame(), &mut policy))
            .collect();
        (enc, encoded)
    }

    #[test]
    fn refreshes_at_least_n_mbs_per_p_frame() {
        let (_, encoded) = run(24, 6, 1);
        for e in &encoded[1..] {
            assert!(
                e.stats.intra_mbs >= 24,
                "frame {}: {} intra MBs",
                e.index,
                e.stats.intra_mbs
            );
        }
    }

    #[test]
    fn air_runs_me_for_every_p_frame_mb() {
        // The energy-defining property: AIR decides after ME, so the
        // search always runs.
        let (_, encoded) = run(24, 6, 2);
        for e in &encoded[1..] {
            assert_eq!(
                e.stats.me_invocations, 99,
                "AIR must search every macroblock"
            );
        }
    }

    #[test]
    fn n_is_clamped_to_frame_size() {
        let p = AirPolicy::new(VideoFormat::QCIF, 1000);
        assert_eq!(p.n(), 99);
    }

    #[test]
    fn static_content_still_cycles_through_mbs() {
        // With zero activity everywhere the round-robin tiebreaker must
        // rotate the refresh set so all MBs get refreshed eventually.
        let mut policy = AirPolicy::new(VideoFormat::QCIF, 10);
        let mut enc = Encoder::new(EncoderConfig::default());
        let flat = pbpair_media::Frame::flat(VideoFormat::QCIF, 100);
        let mut seen = [false; 99];
        let _ = enc.encode_frame(&flat, &mut policy);
        for _ in 0..10 {
            let e = enc.encode_frame(&flat, &mut policy);
            for (i, m) in e.mb_modes.iter().enumerate() {
                if *m == pbpair_codec::MbMode::Intra {
                    seen[i] = true;
                }
            }
        }
        let covered = seen.iter().filter(|s| **s).count();
        assert_eq!(covered, 99, "rotation must cover the frame: {covered}/99");
    }

    #[test]
    fn high_activity_mbs_are_preferred() {
        // Directly exercise the ranking: inject activity and check map.
        let mut policy = AirPolicy::new(VideoFormat::QCIF, 3);
        policy.activity[42] = 1_000_000;
        policy.activity[7] = 900_000;
        policy.activity[63] = 800_000;
        policy.rebuild_map();
        assert!(policy.refresh_map[42]);
        assert!(policy.refresh_map[7]);
        assert!(policy.refresh_map[63]);
        assert_eq!(policy.refresh_map.iter().filter(|b| **b).count(), 3);
    }

    #[test]
    fn label_is_informative() {
        assert_eq!(AirPolicy::new(VideoFormat::QCIF, 24).label(), "AIR-24");
    }
}
