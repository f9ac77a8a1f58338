//! The hybrid video encoder.
//!
//! Pipeline per P-frame macroblock (Figure 1 of the paper):
//!
//! 1. **pre-ME mode selection** — the policy may force intra and skip the
//!    search entirely (PBPAIR's early decision);
//! 2. **motion estimation** — biased cost search
//!    (`SAD + policy.me_bias(mv)`);
//! 3. **natural inter/intra test** — intra when
//!    `SAD_mv > SAD_self + intra_bias` (the paper's
//!    `SAD_mv − SAD_Th > SAD_self` test);
//! 4. **post-ME override** — the policy may still force intra (AIR,
//!    PGOP stride-back);
//! 5. transform / quantize / entropy-code, plus an in-loop reconstruction
//!    identical to the decoder's.
//!
//! All primitive operations are tallied in an [`OpCounts`], the input to
//! the energy model.
//!
//! # Hot-path optimizations
//!
//! [`OptConfig`] gates three optimizations that keep the bitstream
//! **bit-identical** to the retained naive path (the golden-vector tests
//! prove it):
//!
//! * **predicted-MV fast search** — each P-macroblock seeds the search
//!   with the median of its left/top/top-right neighbours, the zero
//!   vector, and its previous-frame colocated vector, and every sweep
//!   candidate's SAD accumulation terminates early once it exceeds the
//!   running best (see [`me::search_fast`]);
//! * **fused transform** — DCT, quantization, and zigzag run as one
//!   kernel with no intermediate 8×8 buffers ([`crate::fused`]);
//! * **zero-allocation steady state** — the bit writer, reconstruction
//!   target, and motion-vector history are persistent scratch reused
//!   across frames, so [`Encoder::encode_frame_into`] performs no heap
//!   allocation after warm-up (a counting-allocator test asserts this).

use crate::bitstream::BitWriter;
use crate::kernels::{KernelChoice, Kernels};
use crate::mb::{FrameStats, MbMode, MotionVector, SubPelVector};
use crate::mbcode::{code_inter_mb, code_intra_mb, BlockCodeCfg};
use crate::mc::LUMA_BLOCK;
use crate::me::{self, MeConfig, MvCandidates};
use crate::ops::OpCounts;
use crate::policy::{
    FrameContext, FrameKind, MbContext, MbOutcome, PostMeDecision, PreMeDecision, RefreshPolicy,
};
use crate::quant::Qp;
use crate::rde::{self, RdeCandidate, RdeConfig};
use pbpair_media::{Frame, MbGrid, MbIndex, VideoFormat};
use pbpair_telemetry::{Counter, Histogram, Stage, Telemetry};
use pbpair_trace::{event as trace_event, Event as TraceEvent, Tracer};
use serde::{Deserialize, Serialize};

/// The 17-bit picture start code (16 zeros and a one, H.263 style).
pub const PICTURE_START_CODE: u32 = 1;
/// Bits in the picture start code.
pub const PICTURE_START_CODE_LEN: u32 = 17;

/// Hot-path optimization switches. Every combination produces the exact
/// same bitstream; these only trade CPU time. Encoding is always one
/// serial raster pass over the macroblocks; the defaults enable both
/// search/transform optimizations and auto kernel dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OptConfig {
    /// Predicted-MV candidate seeding plus SAD early termination in the
    /// motion search ([`me::search_fast`]). Off = the naive exhaustive
    /// accounting path ([`me::search`]).
    #[serde(default)]
    pub fast_me: bool,
    /// The fused `dct→quant→zigzag` block kernel
    /// ([`crate::fused::fdct_quant_scan`]). Off = the separate
    /// three-pass pipeline.
    #[serde(default)]
    pub fused_transform: bool,
    /// Which SIMD pixel-kernel tier to dispatch through
    /// ([`crate::kernels`]). [`KernelChoice::Auto`] (the default) uses
    /// the process-wide active tier — the detected best, or the
    /// `PBPAIR_KERNELS` override; forcing a tier pins this encoder only.
    /// Every tier produces the exact same bitstream.
    #[serde(default)]
    pub kernels: KernelChoice,
}

impl Default for OptConfig {
    /// Fast ME and the fused transform on; auto kernel dispatch.
    fn default() -> Self {
        OptConfig {
            fast_me: true,
            fused_transform: true,
            kernels: KernelChoice::Auto,
        }
    }
}

impl OptConfig {
    /// The retained naive reference path: no fast ME, no fused kernel,
    /// scalar pixel kernels. Benchmarks use this as the speedup
    /// baseline and the differential tests as the ground truth.
    pub fn naive() -> Self {
        OptConfig {
            fast_me: false,
            fused_transform: false,
            kernels: KernelChoice::Scalar,
        }
    }
}

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Picture format of every input frame.
    pub format: VideoFormat,
    /// Quantization parameter used for all frames.
    pub qp: Qp,
    /// Motion-search configuration.
    pub me: MeConfig,
    /// The paper's `SAD_Th`: inter is kept only while
    /// `SAD_mv ≤ SAD_self + intra_bias`. Larger values favor inter.
    pub intra_bias: u32,
    /// Half-pixel motion precision (H.263's default). When set, the
    /// integer search winner is refined over its 8 half-pel neighbours
    /// and vectors travel in half-pel units. The flag is carried in every
    /// picture header so the decoder follows automatically. The paper
    /// experiments keep this off (integer precision) so refresh-scheme
    /// comparisons stay on the configuration DESIGN.md documents.
    pub half_pel: bool,
    /// In-loop deblocking filter (see [`crate::deblock`]). Carried in the
    /// picture header; off in all paper experiments.
    pub deblock: bool,
    /// Hot-path optimization switches (bitstream-neutral).
    #[serde(default)]
    pub opt: OptConfig,
    /// Joint rate–distortion–energy controller ([`crate::rde`]). `None`
    /// — and `Some` with both λ weights zero — leave every decision to
    /// the plain policy path, bit-identically.
    #[serde(default)]
    pub rde: Option<RdeConfig>,
}

impl Default for EncoderConfig {
    /// QCIF, QP 8, ±15 three-step search, `SAD_Th` = 500 (the H.263 TMN
    /// convention).
    fn default() -> Self {
        EncoderConfig {
            format: VideoFormat::QCIF,
            qp: Qp::default(),
            me: MeConfig::default(),
            intra_bias: 500,
            half_pel: false,
            deblock: false,
            opt: OptConfig::default(),
            rde: None,
        }
    }
}

impl EncoderConfig {
    /// The paper's configuration: like [`EncoderConfig::default`] but
    /// with exhaustive ±15 full-search motion estimation, matching the
    /// reference H.263 TMN encoder the paper builds on. This is what the
    /// figure-regeneration experiments use; it makes ME ≈95% of the
    /// encoding energy, the regime in which the paper's energy numbers
    /// live.
    pub fn paper() -> Self {
        EncoderConfig {
            me: MeConfig {
                search_range: 15,
                strategy: crate::me::SearchStrategy::Full,
            },
            ..EncoderConfig::default()
        }
    }
}

/// One encoded frame: the bitstream plus side statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncodedFrame {
    /// 0-based frame index (also carried in the picture header mod 256).
    pub index: u64,
    /// Frame coding type.
    pub kind: FrameKind,
    /// The encoded bitstream, byte-aligned.
    pub data: Vec<u8>,
    /// Per-frame statistics.
    pub stats: FrameStats,
    /// Final mode of each macroblock in raster order (diagnostic side
    /// info; not part of the bitstream).
    pub mb_modes: Vec<MbMode>,
}

impl EncodedFrame {
    /// An empty frame suitable as the reusable output slot of
    /// [`Encoder::encode_frame_into`].
    pub fn empty() -> Self {
        EncodedFrame {
            index: 0,
            kind: FrameKind::Intra,
            data: Vec::new(),
            stats: FrameStats::default(),
            mb_modes: Vec::new(),
        }
    }
}

/// The encoder. Owns the reconstruction loop (its reference frame is the
/// decoder's output for a loss-free channel, bit-exactly).
///
/// # Example
///
/// ```rust
/// use pbpair_codec::{Encoder, EncoderConfig, NaturalPolicy};
/// use pbpair_media::synth::SyntheticSequence;
///
/// let mut enc = Encoder::new(EncoderConfig::default());
/// let mut policy = NaturalPolicy::new();
/// let mut seq = SyntheticSequence::akiyo_class(1);
/// let encoded = enc.encode_frame(&seq.next_frame(), &mut policy);
/// assert!(!encoded.data.is_empty());
/// assert_eq!(encoded.stats.total_mbs(), 99);
/// ```
#[derive(Debug)]
pub struct Encoder {
    cfg: EncoderConfig,
    /// The pixel-kernel tier, resolved once from `cfg.opt.kernels` at
    /// construction; every hot loop (ME, transform, MC, reconstruction)
    /// dispatches through this single table.
    kernels: &'static Kernels,
    grid: MbGrid,
    /// Reconstructed previous frame (the prediction reference).
    recon: Frame,
    /// Original previous frame (similarity measurements).
    prev_original: Frame,
    frame_index: u64,
    ops: OpCounts,
    /// ME searches performed in the frame currently being encoded.
    frame_me_invocations: u32,
    /// Pre-resolved telemetry handles; `None` until
    /// [`Encoder::set_telemetry`] attaches an enabled context. The
    /// flush is one batch of atomic adds per *frame*, so the per-MB hot
    /// loop carries no instrumentation cost at all.
    tel: Option<EncoderTelemetry>,
    /// Trace handle; `None` until [`Encoder::set_tracer`] attaches an
    /// enabled tracer. When attached, every macroblock's coding
    /// decision (mode, motion vector, bitstream range) is recorded as
    /// provenance for the causal replay pass.
    trace: Option<Tracer>,
    /// Integer-pel motion vector of the most recently coded inter MB,
    /// stashed by `code_p_mb` for the provenance event.
    last_mb_mv: MotionVector,
    /// Persistent bit writer, reused across frames (taken at frame start,
    /// restored after `finish_into`). Part of the zero-allocation loop.
    writer: BitWriter,
    /// Scratch writer for RDE trial coding. Untouched when RDE is
    /// inactive.
    rde_scratch: BitWriter,
    /// Reusable reconstruction target: after each frame it holds the
    /// retired two-frames-ago reconstruction, whose every pixel is
    /// overwritten before use (the MB grid tiles the frame exactly).
    scratch_recon: Option<Frame>,
    /// Integer MV of each macroblock of the previous frame (raster
    /// order); seeds the fast search's temporal candidate.
    prev_mvs: Vec<MotionVector>,
    /// Integer MV of each macroblock coded so far in the current frame;
    /// seeds the spatial (left/top/top-right) candidates.
    cur_mvs: Vec<MotionVector>,
}

/// Telemetry handles the encoder flushes once per encoded frame. All
/// quantities are deterministic (mode counts, bits, operation tallies),
/// so instrumented runs reproduce byte-identically.
#[derive(Debug)]
struct EncoderTelemetry {
    /// Stage `"encode"`; virtual units = SAD absolute-difference ops,
    /// the paper's dominant energy term.
    stage: Stage,
    frames: Counter,
    mbs_intra: Counter,
    mbs_inter: Counter,
    mbs_skip: Counter,
    /// ME searches performed.
    me_searches: Counter,
    /// P-frame macroblocks coded without a search — PBPAIR's savings.
    me_skipped: Counter,
    sad_ops: Counter,
    bits: Counter,
    bits_intra: Counter,
    bits_inter: Counter,
    bits_skip: Counter,
    /// Per-frame quantizer levels (QP is 1..=31).
    frame_qp: Histogram,
    /// Per-frame encoded sizes in bits.
    frame_bits: Histogram,
}

impl EncoderTelemetry {
    fn new(tel: &Telemetry) -> Self {
        EncoderTelemetry {
            stage: tel.stage("encode"),
            frames: tel.counter("enc.frames"),
            mbs_intra: tel.counter("enc.mbs_intra"),
            mbs_inter: tel.counter("enc.mbs_inter"),
            mbs_skip: tel.counter("enc.mbs_skip"),
            me_searches: tel.counter("enc.me_searches"),
            me_skipped: tel.counter("enc.me_skipped"),
            sad_ops: tel.counter("enc.sad_ops"),
            bits: tel.counter("enc.bits"),
            bits_intra: tel.counter("enc.bits_intra"),
            bits_inter: tel.counter("enc.bits_inter"),
            bits_skip: tel.counter("enc.bits_skip"),
            frame_qp: tel.histogram("enc.frame_qp", &[2, 4, 8, 12, 16, 22, 31]),
            frame_bits: tel.histogram(
                "enc.frame_bits",
                &[2_000, 8_000, 20_000, 50_000, 100_000, 250_000],
            ),
        }
    }
}

impl Encoder {
    /// Creates an encoder; the first frame passed to
    /// [`Encoder::encode_frame`] is always coded intra.
    pub fn new(cfg: EncoderConfig) -> Self {
        let grid = MbGrid::new(cfg.format);
        let mbs = grid.len();
        Encoder {
            cfg,
            kernels: cfg.opt.kernels.resolve(),
            grid,
            recon: Frame::new(cfg.format),
            prev_original: Frame::new(cfg.format),
            frame_index: 0,
            ops: OpCounts::new(),
            frame_me_invocations: 0,
            tel: None,
            trace: None,
            last_mb_mv: MotionVector::ZERO,
            writer: BitWriter::new(),
            rde_scratch: BitWriter::new(),
            scratch_recon: Some(Frame::new(cfg.format)),
            prev_mvs: vec![MotionVector::ZERO; mbs],
            cur_mvs: vec![MotionVector::ZERO; mbs],
        }
    }

    /// Attaches a telemetry context; subsequent frames flush their
    /// deterministic per-frame statistics into it (`enc.*` metrics and
    /// the `"encode"` stage). A disabled context detaches.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.is_enabled().then(|| EncoderTelemetry::new(tel));
    }

    /// Attaches a tracer; subsequent frames record per-MB provenance
    /// events (mode, motion vector, bitstream bit range). A disabled
    /// tracer detaches.
    pub fn set_tracer(&mut self, tracer: &Tracer) {
        self.trace = tracer.is_enabled().then(|| tracer.clone());
    }

    /// The configuration in effect.
    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// Changes the quantizer for subsequent frames — the hook a rate
    /// controller ([`crate::rate::RateController`]) drives. The QP is
    /// carried per frame in the picture header, so the decoder follows
    /// automatically.
    pub fn set_qp(&mut self, qp: Qp) {
        self.cfg.qp = qp;
    }

    /// Cumulative operation counts since construction (or the last
    /// [`Encoder::take_ops`]).
    pub fn ops(&self) -> &OpCounts {
        &self.ops
    }

    /// Returns and resets the cumulative operation counts.
    pub fn take_ops(&mut self) -> OpCounts {
        std::mem::take(&mut self.ops)
    }

    /// The encoder's current reconstructed reference frame (what a
    /// loss-free decoder would display for the last encoded frame).
    pub fn reconstructed(&self) -> &Frame {
        &self.recon
    }

    /// Index the next encoded frame will get.
    pub fn next_frame_index(&self) -> u64 {
        self.frame_index
    }

    /// Encodes one frame under the given refresh policy.
    ///
    /// # Panics
    ///
    /// Panics if `frame`'s format differs from the configured format.
    pub fn encode_frame(&mut self, frame: &Frame, policy: &mut dyn RefreshPolicy) -> EncodedFrame {
        let mut out = EncodedFrame::empty();
        self.encode_frame_into(frame, policy, &mut out);
        out
    }

    /// Encodes one frame into a caller-owned output slot, reusing its
    /// `data` and `mb_modes` buffers. In steady state (slot capacity
    /// established, no tracer) this performs **no heap allocation** — the
    /// property `tests/alloc_count.rs` asserts with a counting allocator.
    ///
    /// # Panics
    ///
    /// Panics if `frame`'s format differs from the configured format.
    pub fn encode_frame_into(
        &mut self,
        frame: &Frame,
        policy: &mut dyn RefreshPolicy,
        out: &mut EncodedFrame,
    ) {
        assert_eq!(
            frame.format(),
            self.cfg.format,
            "frame format does not match encoder configuration"
        );
        let ops_at_entry = self.ops;
        let span = self.tel.as_ref().map(|t| t.stage.span());
        let fctx = FrameContext {
            frame_index: self.frame_index,
            format: self.cfg.format,
            mb_count: self.grid.len(),
        };
        let kind = if self.frame_index == 0 {
            FrameKind::Intra
        } else {
            policy.begin_frame(&fctx)
        };

        let mut w = std::mem::take(&mut self.writer);
        w.reset();
        w.put_bits(PICTURE_START_CODE, PICTURE_START_CODE_LEN);
        w.put_bits((self.frame_index & 0xFF) as u32, 8);
        w.put_bit(kind == FrameKind::Inter);
        w.put_bits(self.cfg.qp.get() as u32, 5);
        w.put_bit(self.cfg.half_pel);
        w.put_bit(self.cfg.deblock);
        // Source format: 2-bit code for the standard sizes, escape code 3
        // followed by the dimensions in macroblock units. The decoder
        // validates this against its configured format instead of
        // silently mis-parsing a stream of the wrong size.
        match self.cfg.format {
            VideoFormat::SQCIF => w.put_bits(0, 2),
            VideoFormat::QCIF => w.put_bits(1, 2),
            VideoFormat::CIF => w.put_bits(2, 2),
            custom => {
                w.put_bits(3, 2);
                w.put_bits(custom.mb_cols() as u32, 8);
                w.put_bits(custom.mb_rows() as u32, 8);
            }
        }

        // Every pixel of the scratch frame is overwritten below (the MB
        // grid tiles the frame exactly), so stale content is harmless.
        let mut new_recon = self
            .scratch_recon
            .take()
            .unwrap_or_else(|| Frame::new(self.cfg.format));
        let mut stats = FrameStats::default();
        out.mb_modes.clear();

        self.encode_mbs_serial(
            frame,
            policy,
            &fctx,
            kind,
            &mut w,
            &mut new_recon,
            &mut stats,
            out,
        );

        if self.cfg.deblock {
            crate::deblock::deblock_frame(&mut new_recon, self.cfg.qp);
        }

        stats.bits = w.bit_len();
        stats.me_invocations = self.frame_me_invocations;
        self.frame_me_invocations = 0;

        w.finish_into(&mut out.data);
        self.writer = w;
        self.ops.frames += 1;
        self.ops.intra_mbs += stats.intra_mbs as u64;
        self.ops.inter_mbs += stats.inter_mbs as u64;
        self.ops.skip_mbs += stats.skip_mbs as u64;
        self.ops.bits_emitted += stats.bits;

        policy.end_frame(&fctx, &stats);

        if let Some(t) = &self.tel {
            let frame_ops = self.ops - ops_at_entry;
            t.frames.inc(1);
            t.mbs_intra.inc(stats.intra_mbs as u64);
            t.mbs_inter.inc(stats.inter_mbs as u64);
            t.mbs_skip.inc(stats.skip_mbs as u64);
            t.me_searches.inc(stats.me_invocations as u64);
            if kind == FrameKind::Inter {
                t.me_skipped
                    .inc(self.grid.len() as u64 - stats.me_invocations as u64);
            }
            t.sad_ops.inc(frame_ops.sad_ops);
            t.bits.inc(stats.bits);
            t.bits_intra.inc(stats.intra_bits);
            t.bits_inter.inc(stats.inter_bits);
            t.bits_skip.inc(stats.skip_bits);
            t.frame_qp.record(self.cfg.qp.get() as u64);
            t.frame_bits.record(stats.bits);
            if let Some(mut span) = span {
                span.add_units(frame_ops.sad_ops);
            }
        }

        std::mem::swap(&mut self.recon, &mut new_recon);
        self.scratch_recon = Some(new_recon);
        self.prev_original.copy_from(frame);
        std::mem::swap(&mut self.prev_mvs, &mut self.cur_mvs);

        out.index = self.frame_index;
        out.kind = kind;
        out.stats = stats;
        self.frame_index += 1;
    }

    /// The macroblock loop: one raster pass doing pre-ME, search,
    /// post-ME, and block coding per macroblock.
    #[allow(clippy::too_many_arguments)]
    fn encode_mbs_serial(
        &mut self,
        frame: &Frame,
        policy: &mut dyn RefreshPolicy,
        fctx: &FrameContext,
        kind: FrameKind,
        w: &mut BitWriter,
        new_recon: &mut Frame,
        stats: &mut FrameStats,
        out: &mut EncodedFrame,
    ) {
        let (rows, cols) = (self.grid.rows(), self.grid.cols());
        for row in 0..rows {
            for col in 0..cols {
                let mb = MbIndex::new(row, col);
                let flat = row * cols + col;
                let mb_bits_before = w.bit_len();
                let mode = match kind {
                    FrameKind::Intra => {
                        code_intra_mb(&self.block_cfg(), w, frame, new_recon, mb, &mut self.ops);
                        self.cur_mvs[flat] = MotionVector::ZERO;
                        // Policies observe I-frame macroblocks too (GOP
                        // resets its cycle; PBPAIR refreshes its matrix).
                        // The colocated SAD is computed as for P-frames;
                        // for frame 0 the previous original is black, so
                        // similarity-based policies correctly see
                        // "nothing to conceal from".
                        let (ox, oy) = mb.luma_origin();
                        let colocated_sad = frame.y().sad_colocated(
                            self.prev_original.y(),
                            ox,
                            oy,
                            LUMA_BLOCK,
                            LUMA_BLOCK,
                        );
                        self.ops.sad_ops += 256;
                        policy.mb_coded(
                            fctx,
                            &MbOutcome {
                                mb,
                                mode: MbMode::Intra,
                                mv: MotionVector::ZERO,
                                sad_mv: None,
                                me_performed: false,
                                colocated_sad,
                            },
                        );
                        MbMode::Intra
                    }
                    FrameKind::Inter => {
                        let cands = self.predicted_candidates(row, col);
                        let mode = self.code_p_mb(w, frame, new_recon, mb, policy, fctx, &cands);
                        self.cur_mvs[flat] = self.last_mb_mv;
                        mode
                    }
                };
                let mb_bits = w.bit_len() - mb_bits_before;
                if let Some(t) = &self.trace {
                    let (mode_code, mv) = match mode {
                        MbMode::Intra => (trace_event::MODE_INTRA, MotionVector::ZERO),
                        MbMode::Inter => (trace_event::MODE_INTER, self.last_mb_mv),
                        MbMode::Skip => (trace_event::MODE_SKIP, MotionVector::ZERO),
                    };
                    t.emit(TraceEvent::MbCoded {
                        frame: self.frame_index as u32,
                        mb: flat as u16,
                        mode: mode_code,
                        mv_x: mv.x,
                        mv_y: mv.y,
                        bit_start: mb_bits_before as u32,
                        bit_len: mb_bits as u32,
                    });
                }
                match mode {
                    MbMode::Intra => {
                        stats.intra_mbs += 1;
                        stats.intra_bits += mb_bits;
                    }
                    MbMode::Inter => {
                        stats.inter_mbs += 1;
                        stats.inter_bits += mb_bits;
                    }
                    MbMode::Skip => {
                        stats.skip_mbs += 1;
                        stats.skip_bits += mb_bits;
                    }
                }
                out.mb_modes.push(mode);
            }
        }
    }

    /// The RDE configuration, only when it actually reprices decisions
    /// (the zero-λ gate: `None` and zero-λ configs are the same encoder).
    fn active_rde(&self) -> Option<RdeConfig> {
        self.cfg.rde.filter(|r| r.is_active())
    }

    /// The block-coding parameters for the current frame.
    fn block_cfg(&self) -> BlockCodeCfg {
        BlockCodeCfg {
            qp: self.cfg.qp,
            half_pel: self.cfg.half_pel,
            fused: self.cfg.opt.fused_transform,
            kernels: self.kernels,
        }
    }

    /// Builds the fast search's predicted-MV candidate list for the
    /// macroblock at `(row, col)`: the component-wise median of the
    /// left/top/top-right neighbours coded this frame, the zero vector,
    /// and the colocated vector of the previous frame. Empty when fast
    /// ME is off (the naive search takes no prepass).
    fn predicted_candidates(&self, row: usize, col: usize) -> MvCandidates {
        let mut cands = MvCandidates::default();
        if !self.cfg.opt.fast_me {
            return cands;
        }
        let cols = self.grid.cols();
        let flat = row * cols + col;
        let range = self.cfg.me.search_range;
        let zero = MotionVector::ZERO;
        let left = if col > 0 {
            self.cur_mvs[flat - 1]
        } else {
            zero
        };
        let top = if row > 0 {
            self.cur_mvs[flat - cols]
        } else {
            zero
        };
        let top_right = if row > 0 && col + 1 < cols {
            self.cur_mvs[flat - cols + 1]
        } else {
            zero
        };
        cands.push_clamped(me::median_mv(left, top, top_right), range);
        cands.push_clamped(zero, range);
        cands.push_clamped(self.prev_mvs[flat], range);
        cands
    }
}

// The per-frame ME counter lives on the struct to avoid threading it
// through every call; it is reset at each frame end.
impl Encoder {
    #[allow(clippy::too_many_arguments)]
    fn code_p_mb(
        &mut self,
        w: &mut BitWriter,
        frame: &Frame,
        new_recon: &mut Frame,
        mb: MbIndex,
        policy: &mut dyn RefreshPolicy,
        fctx: &FrameContext,
        cands: &MvCandidates,
    ) -> MbMode {
        let (ox, oy) = mb.luma_origin();
        // Content-similarity measurement (SAD against the colocated MB of
        // the previous original frame); one 256-op SAD, charged uniformly.
        let colocated_sad =
            frame
                .y()
                .sad_colocated(self.prev_original.y(), ox, oy, LUMA_BLOCK, LUMA_BLOCK);
        self.ops.sad_ops += 256;

        let ctx = MbContext {
            frame_index: self.frame_index,
            mb,
            cur_luma: frame.y(),
            ref_luma: self.recon.y(),
            colocated_sad,
        };

        let pre = policy.pre_me_mode(&ctx);
        let (mode, mv, sad_mv, me_performed) = if pre == PreMeDecision::ForceIntra {
            (MbMode::Intra, SubPelVector::ZERO, None, false)
        } else {
            let me_result = if self.cfg.opt.fast_me {
                me::search_fast_with(
                    self.kernels,
                    frame.y(),
                    self.recon.y(),
                    mb,
                    self.cfg.me,
                    &mut |mv| policy.me_bias(&ctx, mv),
                    cands,
                )
            } else {
                me::search_with(
                    self.kernels,
                    frame.y(),
                    self.recon.y(),
                    mb,
                    self.cfg.me,
                    &mut |mv| policy.me_bias(&ctx, mv),
                )
            };
            self.ops.me_invocations += 1;
            self.frame_me_invocations += 1;
            self.ops.sad_candidates += me_result.candidates as u64;
            self.ops.sad_ops += me_result.sad_ops;

            let sad_self = me::sad_self(frame.y(), mb);
            self.ops.sad_ops += 512; // mean + deviation pass
            let natural_intra = me_result.sad > sad_self + self.cfg.intra_bias as u64;
            let post = policy.post_me_mode(&ctx, &me_result);
            if natural_intra || post == PostMeDecision::ForceIntra {
                (MbMode::Intra, SubPelVector::ZERO, Some(me_result.sad), true)
            } else if self.cfg.half_pel {
                let refined = me::refine_half_pel_with(
                    self.kernels,
                    frame.y(),
                    self.recon.y(),
                    mb,
                    me_result.mv,
                    me_result.sad,
                );
                self.ops.sad_ops += refined.sad_ops;
                (MbMode::Inter, refined.mv, Some(refined.sad), true)
            } else {
                (
                    MbMode::Inter,
                    SubPelVector::integer(me_result.mv),
                    Some(me_result.sad),
                    true,
                )
            }
        };

        let bcfg = self.block_cfg();
        let final_mode = if let Some(rde_cfg) = self.active_rde() {
            let baseline = match mode {
                MbMode::Intra => RdeCandidate::Intra,
                _ => RdeCandidate::Inter(mv),
            };
            rde::choose_and_code_mb(
                &rde_cfg,
                &bcfg,
                w,
                &mut self.rde_scratch,
                frame,
                &self.recon,
                new_recon,
                mb,
                baseline,
                &mut self.ops,
            )
        } else {
            match mode {
                MbMode::Intra => {
                    w.put_bit(false); // COD = 0: coded
                    w.put_bit(true); // intra
                    code_intra_mb(&bcfg, w, frame, new_recon, mb, &mut self.ops);
                    MbMode::Intra
                }
                _ => code_inter_mb(
                    &bcfg,
                    w,
                    frame,
                    &self.recon,
                    new_recon,
                    mb,
                    mv,
                    &mut self.ops,
                ),
            }
        };

        let outcome_mv = if final_mode == MbMode::Inter {
            mv.int
        } else {
            MotionVector::ZERO
        };
        self.last_mb_mv = outcome_mv;
        policy.mb_coded(
            fctx,
            &MbOutcome {
                mb,
                mode: final_mode,
                mv: outcome_mv,
                sad_mv,
                me_performed,
                colocated_sad,
            },
        );
        final_mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NaturalPolicy;
    use pbpair_media::metrics;
    use pbpair_media::synth::SyntheticSequence;

    fn encode_n(n: usize, seed: u64) -> (Encoder, Vec<EncodedFrame>, Vec<Frame>) {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::foreman_class(seed);
        let mut encoded = Vec::new();
        let mut originals = Vec::new();
        for _ in 0..n {
            let f = seq.next_frame();
            encoded.push(enc.encode_frame(&f, &mut policy));
            originals.push(f);
        }
        (enc, encoded, originals)
    }

    #[test]
    fn first_frame_is_always_intra() {
        let (_, encoded, _) = encode_n(2, 1);
        assert_eq!(encoded[0].kind, FrameKind::Intra);
        assert_eq!(encoded[0].stats.intra_mbs, 99);
        assert_eq!(encoded[1].kind, FrameKind::Inter);
    }

    #[test]
    fn reconstruction_tracks_the_original() {
        let (enc, _, originals) = encode_n(5, 2);
        let p = metrics::psnr_y(originals.last().unwrap(), enc.reconstructed());
        assert!(p > 28.0, "encoder reconstruction PSNR too low: {p}");
    }

    #[test]
    fn p_frames_are_much_smaller_than_i_frames() {
        let (_, encoded, _) = encode_n(4, 3);
        let i_bits = encoded[0].stats.bits;
        let p_bits = encoded[2].stats.bits;
        assert!(
            p_bits * 2 < i_bits,
            "P-frame ({p_bits} bits) should be well under the I-frame ({i_bits} bits)"
        );
    }

    #[test]
    fn ops_are_accounted() {
        let (enc, encoded, _) = encode_n(3, 4);
        let ops = enc.ops();
        assert_eq!(ops.frames, 3);
        assert_eq!(ops.total_mbs(), 3 * 99);
        // I-frame has no ME; P-frames search for non-forced MBs.
        assert!(ops.me_invocations > 0);
        assert!(ops.me_invocations <= 2 * 99);
        assert!(ops.sad_ops > 0);
        assert_eq!(
            ops.bits_emitted,
            encoded.iter().map(|e| e.stats.bits).sum::<u64>()
        );
        // 6 blocks per coded MB are transformed (skip MBs transform too
        // before demotion).
        assert!(ops.dct_blocks >= (ops.intra_mbs + ops.inter_mbs) * 6);
    }

    #[test]
    fn mb_modes_match_stats() {
        let (_, encoded, _) = encode_n(3, 5);
        for e in &encoded {
            let intra = e.mb_modes.iter().filter(|m| **m == MbMode::Intra).count() as u32;
            let inter = e.mb_modes.iter().filter(|m| **m == MbMode::Inter).count() as u32;
            let skip = e.mb_modes.iter().filter(|m| **m == MbMode::Skip).count() as u32;
            assert_eq!(intra, e.stats.intra_mbs);
            assert_eq!(inter, e.stats.inter_mbs);
            assert_eq!(skip, e.stats.skip_mbs);
        }
    }

    #[test]
    fn static_content_produces_skip_mbs() {
        // A perfectly static source (flat frames) must devolve to skip
        // macroblocks after the first frame.
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut policy = NaturalPolicy::new();
        let flat = Frame::flat(VideoFormat::QCIF, 90);
        let _ = enc.encode_frame(&flat, &mut policy);
        let e = enc.encode_frame(&flat, &mut policy);
        assert_eq!(e.stats.skip_mbs, 99, "static frame should fully skip");
        assert!(e.stats.bits < 200, "a fully skipped frame is ~1 bit/MB");
    }

    #[test]
    fn optimizations_do_not_change_the_bitstream() {
        // Fast ME + fused transform vs. the retained naive path: the
        // bitstreams and side info must be identical frame by frame, and
        // the fast path must execute strictly fewer SAD operations.
        let mut fast = Encoder::new(EncoderConfig::default());
        let mut naive = Encoder::new(EncoderConfig {
            opt: OptConfig::naive(),
            ..EncoderConfig::default()
        });
        let mut pf = NaturalPolicy::new();
        let mut pn = NaturalPolicy::new();
        let mut seq_f = SyntheticSequence::foreman_class(11);
        let mut seq_n = SyntheticSequence::foreman_class(11);
        for i in 0..5 {
            let ef = fast.encode_frame(&seq_f.next_frame(), &mut pf);
            let en = naive.encode_frame(&seq_n.next_frame(), &mut pn);
            assert_eq!(ef.data, en.data, "bitstream diverged at frame {i}");
            assert_eq!(ef.stats, en.stats, "stats diverged at frame {i}");
            assert_eq!(ef.mb_modes, en.mb_modes, "modes diverged at frame {i}");
        }
        assert!(
            fast.ops().sad_ops < naive.ops().sad_ops,
            "fast path must save SAD ops: {} vs {}",
            fast.ops().sad_ops,
            naive.ops().sad_ops
        );
    }

    #[test]
    fn encode_frame_into_reuses_the_output_slot() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::foreman_class(6);
        let mut out = EncodedFrame::empty();
        let mut reference = Encoder::new(EncoderConfig::default());
        let mut ref_policy = NaturalPolicy::new();
        let mut ref_seq = SyntheticSequence::foreman_class(6);
        for i in 0..4 {
            enc.encode_frame_into(&seq.next_frame(), &mut policy, &mut out);
            let want = reference.encode_frame(&ref_seq.next_frame(), &mut ref_policy);
            assert_eq!(out, want, "frame {i} diverged between into/owned APIs");
        }
    }

    #[test]
    #[should_panic(expected = "format")]
    fn wrong_format_panics() {
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut policy = NaturalPolicy::new();
        let wrong = Frame::new(VideoFormat::CIF);
        let _ = enc.encode_frame(&wrong, &mut policy);
    }
}
