//! GOP-N: periodic I-frame refresh.
//!
//! The classic group-of-pictures structure: one I-frame followed by N
//! P-frames, each GOP independently decodable. The paper's Figure 6 shows
//! its two weaknesses — severe frame-size fluctuation (the periodic
//! I-frame spikes) and catastrophic loss behaviour when the I-frame itself
//! is dropped (event e7: up to N consecutive frames unrecoverable).

use pbpair_codec::{FrameContext, FrameKind, RefreshPolicy};

/// The GOP-N policy. `GOP-N` in the paper's notation means an I:P ratio of
/// 1:N — one I-frame, then N predictive frames.
///
/// # Example
///
/// ```rust
/// use pbpair::schemes::GopPolicy;
/// use pbpair_codec::{Encoder, EncoderConfig, FrameKind};
/// use pbpair_media::synth::SyntheticSequence;
///
/// let mut policy = GopPolicy::new(3);
/// let mut enc = Encoder::new(EncoderConfig::default());
/// let mut seq = SyntheticSequence::akiyo_class(1);
/// let kinds: Vec<FrameKind> = (0..8)
///     .map(|_| enc.encode_frame(&seq.next_frame(), &mut policy).kind)
///     .collect();
/// // I P P P I P P P
/// assert_eq!(kinds[0], FrameKind::Intra);
/// assert_eq!(kinds[4], FrameKind::Intra);
/// assert_eq!(kinds[5], FrameKind::Inter);
/// ```
#[derive(Debug, Clone)]
pub struct GopPolicy {
    /// P-frames per I-frame.
    n: u32,
    /// Frames since the last I-frame (counts the I-frame as 0).
    since_intra: u32,
}

impl GopPolicy {
    /// Creates GOP-N.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (that would be an all-I stream; use
    /// `PbpairConfig { intra_th: 1.0, .. }` for that operating point).
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "GOP-N requires at least one P-frame per GOP");
        GopPolicy { n, since_intra: 0 }
    }

    /// The configured number of P-frames per GOP.
    pub fn n(&self) -> u32 {
        self.n
    }
}

impl RefreshPolicy for GopPolicy {
    fn begin_frame(&mut self, ctx: &FrameContext) -> FrameKind {
        // The encoder forces frame 0 intra; keep the counter in sync by
        // treating it as the start of a GOP.
        if ctx.frame_index == 0 || self.since_intra >= self.n {
            self.since_intra = 0;
            FrameKind::Intra
        } else {
            self.since_intra += 1;
            FrameKind::Inter
        }
    }

    fn label(&self) -> String {
        format!("GOP-{}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbpair_codec::{Encoder, EncoderConfig};
    use pbpair_media::synth::SyntheticSequence;

    #[test]
    fn i_frame_period_is_n_plus_one() {
        let mut policy = GopPolicy::new(8);
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut seq = SyntheticSequence::foreman_class(1);
        let kinds: Vec<_> = (0..20)
            .map(|_| enc.encode_frame(&seq.next_frame(), &mut policy).kind)
            .collect();
        for (i, k) in kinds.iter().enumerate() {
            let expect = if i % 9 == 0 {
                FrameKind::Intra
            } else {
                FrameKind::Inter
            };
            assert_eq!(*k, expect, "frame {i}");
        }
    }

    #[test]
    fn i_frames_are_larger_than_p_frames() {
        // Figure 6(b)'s premise: GOP produces an uneven bitstream.
        let mut policy = GopPolicy::new(4);
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut seq = SyntheticSequence::foreman_class(2);
        let sizes: Vec<u64> = (0..10)
            .map(|_| enc.encode_frame(&seq.next_frame(), &mut policy).stats.bits)
            .collect();
        let i_avg = (sizes[0] + sizes[5]) / 2;
        let p_avg: u64 = sizes
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 5 != 0)
            .map(|(_, s)| *s)
            .sum::<u64>()
            / 8;
        assert!(
            i_avg > p_avg * 2,
            "I-frames ({i_avg}) must dwarf P-frames ({p_avg})"
        );
    }

    #[test]
    #[should_panic(expected = "at least one P-frame")]
    fn zero_n_rejected() {
        let _ = GopPolicy::new(0);
    }

    #[test]
    fn label_is_informative() {
        assert_eq!(GopPolicy::new(3).label(), "GOP-3");
    }
}
