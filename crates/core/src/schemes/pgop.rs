//! PGOP-N: progressive group of pictures (refs [3, 4] of the paper).
//!
//! PGOP distributes the I-frame's refresh across frames by intra-coding N
//! *columns* of macroblocks per frame, sweeping left to right; after the
//! last column the sweep wraps and a new cycle begins. Because a refresh
//! column only guarantees cleanliness behind it, motion vectors that reach
//! from the refreshed region back into not-yet-refreshed columns would
//! re-import propagated errors; PGOP traps these with **stride-back**
//! macroblocks — already-refreshed MBs whose prediction crosses the sweep
//! boundary are re-coded intra. Stride-back detection needs the motion
//! vector, i.e. it happens *after* ME, which is why PGOP pays more ME
//! energy than PBPAIR but less than AIR (the swept columns themselves
//! skip ME).

use pbpair_codec::{
    FrameContext, FrameKind, MbContext, MbOutcome, MeResult, PostMeDecision, PreMeDecision,
    RefreshPolicy,
};
use pbpair_media::{MbGrid, VideoFormat};

/// The PGOP-N policy.
///
/// # Example
///
/// ```rust
/// use pbpair::schemes::PgopPolicy;
/// use pbpair_codec::{Encoder, EncoderConfig};
/// use pbpair_media::{synth::SyntheticSequence, VideoFormat};
///
/// let mut policy = PgopPolicy::new(VideoFormat::QCIF, 3);
/// let mut enc = Encoder::new(EncoderConfig::default());
/// let mut seq = SyntheticSequence::foreman_class(1);
/// let _ = enc.encode_frame(&seq.next_frame(), &mut policy); // I-frame
/// let e = enc.encode_frame(&seq.next_frame(), &mut policy);
/// // Three columns of nine MBs each, plus any stride-back/natural intra.
/// assert!(e.stats.intra_mbs >= 27);
/// ```
#[derive(Debug, Clone)]
pub struct PgopPolicy {
    grid: MbGrid,
    /// First column of the current frame's refresh window.
    sweep_start: usize,
    /// Columns refreshed in the current cycle (true ⇒ already swept).
    refreshed: Vec<bool>,
    /// Refresh window of the frame being encoded: `[win_lo, win_hi)`.
    win_lo: usize,
    win_hi: usize,
    n: usize,
}

impl PgopPolicy {
    /// Creates PGOP-N for the given format. `n` is clamped to the number
    /// of macroblock columns.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(format: VideoFormat, n: usize) -> Self {
        assert!(n > 0, "PGOP-N requires at least one refresh column");
        let grid = MbGrid::new(format);
        let n = n.min(grid.cols());
        PgopPolicy {
            refreshed: vec![false; grid.cols()],
            sweep_start: 0,
            win_lo: 0,
            win_hi: 0,
            grid,
            n,
        }
    }

    /// The configured number of refresh columns per frame.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The refresh window `[lo, hi)` of the frame currently being
    /// encoded.
    pub fn window(&self) -> (usize, usize) {
        (self.win_lo, self.win_hi)
    }
}

impl RefreshPolicy for PgopPolicy {
    fn begin_frame(&mut self, ctx: &FrameContext) -> FrameKind {
        if ctx.frame_index == 0 {
            // The encoder's initial I-frame refreshes everything; the
            // sweep starts fresh on the next frame.
            self.refreshed.iter_mut().for_each(|c| *c = false);
            self.sweep_start = 0;
            self.win_lo = 0;
            self.win_hi = 0;
            return FrameKind::Inter; // overridden to Intra by the encoder
        }
        if self.sweep_start == 0 {
            // New cycle.
            self.refreshed.iter_mut().for_each(|c| *c = false);
        }
        self.win_lo = self.sweep_start;
        self.win_hi = (self.sweep_start + self.n).min(self.grid.cols());
        self.sweep_start = if self.win_hi >= self.grid.cols() {
            0
        } else {
            self.win_hi
        };
        FrameKind::Inter
    }

    fn pre_me_mode(&mut self, ctx: &MbContext<'_>) -> PreMeDecision {
        // MBs inside the refresh window are intra by construction and
        // skip ME (the paper: "PGOP also skips motion estimation for the
        // specific MBs in the refreshing column").
        if (self.win_lo..self.win_hi).contains(&ctx.mb.col) {
            PreMeDecision::ForceIntra
        } else {
            PreMeDecision::TryInter
        }
    }

    fn post_me_mode(&mut self, ctx: &MbContext<'_>, me: &MeResult) -> PostMeDecision {
        // Stride-back: an MB in an already-refreshed column whose chosen
        // vector references any not-yet-refreshed column re-imports
        // contamination — trap it with intra ("it still requires motion
        // estimation for stride back MBs").
        if !self.refreshed[ctx.mb.col] {
            return PostMeDecision::Keep;
        }
        let (ox, _) = ctx.mb.luma_origin();
        let rx0 = ox as isize + me.mv.x as isize;
        let rx1 = rx0 + 15;
        let max_px = (self.grid.cols() * 16 - 1) as isize;
        let c0 = (rx0.clamp(0, max_px) as usize) / 16;
        let c1 = (rx1.clamp(0, max_px) as usize) / 16;
        for col in c0..=c1 {
            let clean_now = self.refreshed[col] || (self.win_lo..self.win_hi).contains(&col);
            if !clean_now {
                return PostMeDecision::ForceIntra;
            }
        }
        PostMeDecision::Keep
    }

    fn mb_coded(&mut self, _ctx: &FrameContext, outcome: &MbOutcome) {
        // When the last MB of a refresh column is coded, mark the column
        // refreshed for stride-back decisions in subsequent rows/frames.
        if (self.win_lo..self.win_hi).contains(&outcome.mb.col)
            && outcome.mb.row + 1 == self.grid.rows()
        {
            self.refreshed[outcome.mb.col] = true;
        }
    }

    fn label(&self) -> String {
        format!("PGOP-{}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbpair_codec::{Encoder, EncoderConfig, MbMode};
    use pbpair_media::synth::SyntheticSequence;

    fn run(n: usize, frames: usize, seed: u64) -> Vec<pbpair_codec::EncodedFrame> {
        let mut policy = PgopPolicy::new(VideoFormat::QCIF, n);
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut seq = SyntheticSequence::foreman_class(seed);
        (0..frames)
            .map(|_| enc.encode_frame(&seq.next_frame(), &mut policy))
            .collect()
    }

    /// The set of columns that are fully intra in a frame.
    fn intra_columns(e: &pbpair_codec::EncodedFrame) -> Vec<usize> {
        (0..11)
            .filter(|col| (0..9).all(|row| e.mb_modes[row * 11 + col] == MbMode::Intra))
            .collect()
    }

    #[test]
    fn sweep_advances_left_to_right_and_wraps() {
        let encoded = run(3, 10, 1);
        // Frame 1 refreshes cols 0..3, frame 2 cols 3..6, frame 3 cols
        // 6..9, frame 4 cols 9..11 (clamped), frame 5 wraps to 0..3.
        assert!(intra_columns(&encoded[1])
            .iter()
            .take(3)
            .eq([0, 1, 2].iter()));
        let f2 = intra_columns(&encoded[2]);
        assert!(f2.contains(&3) && f2.contains(&4) && f2.contains(&5));
        let f4 = intra_columns(&encoded[4]);
        assert!(f4.contains(&9) && f4.contains(&10));
        let f5 = intra_columns(&encoded[5]);
        assert!(
            f5.contains(&0) && f5.contains(&1) && f5.contains(&2),
            "{f5:?}"
        );
    }

    #[test]
    fn window_columns_skip_me() {
        let encoded = run(3, 4, 2);
        for e in &encoded[1..] {
            // 3 columns × 9 rows = 27 MBs never search.
            assert!(
                e.stats.me_invocations <= 99 - 27,
                "frame {}: {} searches",
                e.index,
                e.stats.me_invocations
            );
        }
    }

    #[test]
    fn full_cycle_refreshes_every_column() {
        let encoded = run(2, 8, 3);
        let mut covered = [false; 11];
        for e in &encoded[1..7] {
            for c in intra_columns(e) {
                covered[c] = true;
            }
        }
        assert!(
            covered.iter().all(|c| *c),
            "6 frames of PGOP-2 must sweep all 11 columns: {covered:?}"
        );
    }

    #[test]
    fn stride_back_traps_vectors_into_unrefreshed_area() {
        let mut policy = PgopPolicy::new(VideoFormat::QCIF, 2);
        // Simulate: cycle in progress, columns 0..2 refreshed, window 2..4.
        policy.refreshed[0] = true;
        policy.refreshed[1] = true;
        policy.win_lo = 2;
        policy.win_hi = 4;
        let plane = pbpair_media::Plane::new(176, 144);
        let ctx = MbContext {
            frame_index: 2,
            mb: pbpair_media::MbIndex::new(0, 1),
            cur_luma: &plane,
            ref_luma: &plane,
            colocated_sad: 0,
        };
        let me_into_dirty = MeResult {
            mv: pbpair_codec::MotionVector::new(80, 0), // reaches col 6: unrefreshed
            sad: 0,
            cost: 0,
            candidates: 1,
            sad_ops: 256,
        };
        assert_eq!(
            policy.post_me_mode(&ctx, &me_into_dirty),
            PostMeDecision::ForceIntra
        );
        let me_clean = MeResult {
            mv: pbpair_codec::MotionVector::new(-16, 0), // stays in col 0
            sad: 0,
            cost: 0,
            candidates: 1,
            sad_ops: 256,
        };
        assert_eq!(policy.post_me_mode(&ctx, &me_clean), PostMeDecision::Keep);
        // MBs in unrefreshed columns are never stride-back candidates.
        let ctx_dirty = MbContext {
            frame_index: 2,
            mb: pbpair_media::MbIndex::new(0, 7),
            cur_luma: &plane,
            ref_luma: &plane,
            colocated_sad: 0,
        };
        assert_eq!(
            policy.post_me_mode(&ctx_dirty, &me_into_dirty),
            PostMeDecision::Keep
        );
    }

    #[test]
    fn n_clamps_to_column_count() {
        let p = PgopPolicy::new(VideoFormat::QCIF, 50);
        assert_eq!(p.n(), 11);
    }

    #[test]
    #[should_panic(expected = "at least one refresh column")]
    fn zero_n_rejected() {
        let _ = PgopPolicy::new(VideoFormat::QCIF, 0);
    }

    #[test]
    fn label_is_informative() {
        assert_eq!(PgopPolicy::new(VideoFormat::QCIF, 1).label(), "PGOP-1");
    }
}
