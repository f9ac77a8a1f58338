//! What the single-thread `stream` and `receiver` workloads share: the
//! rendered source, one replay pass's tallies, the receive tail
//! (resilient decode or concealment, then quality), and the metrics
//! built from the passes of the timed phase.

use crate::host::{self, Timed};
use crate::ledger::{fnv, median, quantile, Guard, Layer, Ledger, FNV_BASIS};
use crate::report::Outcome;
use pbpair_codec::{DecodeReport, Decoder, Kernels};
use pbpair_media::metrics::QualityStats;
use pbpair_media::synth::{MotionClass, SyntheticSequence};
use pbpair_media::Frame;
use pbpair_netsim::Packet;
use pbpair_serve::report::quantile_ms;
use std::time::Instant;

/// Frames per motion-class segment of the rendered source.
pub const SEGMENT: usize = 64;

/// Set-ups per run; `setup_s` is their slow quartile.
pub const SETUPS: usize = 8;

/// The source: equal akiyo, foreman and garden segments, rendered once
/// during set-up so the timed phase spends nothing on synthesis. Like
/// the paper's test clips the content is fixed; the workload seed draws
/// the channels.
pub fn render_source(ledger: &mut Ledger) -> Vec<Frame> {
    let classes = [
        MotionClass::LowAkiyo,
        MotionClass::MediumForeman,
        MotionClass::HighGarden,
    ];
    let mut frames = Vec::with_capacity(classes.len() * SEGMENT);
    for (i, class) in classes.into_iter().enumerate() {
        let mut seq = SyntheticSequence::for_class(class, 2005 + i as u64);
        for _ in 0..SEGMENT {
            frames.push(ledger.span(Layer::Synth, || seq.next_frame()));
        }
    }
    frames
}

/// Everything one replay pass produced. Counts and digests are a pure
/// function of the seed; times are measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Frames attempted.
    pub frames: u64,
    /// Frames on which at least one layer call panicked.
    pub failed: u64,
    /// Per-frame latency of the program's work in the pass so far,
    /// milliseconds; dropped by [`Pass::finish`]. The benchmark's own
    /// digests run between frames, outside every timer.
    latency_ms: Vec<f64>,
    /// p99 of the pass's frame latencies, set by [`Pass::finish`].
    pub p99_ms: f64,
    /// Σ per-frame latency, nanoseconds.
    pub work_ns: u64,
    /// Timing of each finished session.
    pub sessions: Vec<SessionTiming>,
    /// FNV digest of every encoded frame, in order.
    pub bitstream: u64,
    /// FNV digest of every displayed picture, in order.
    pub display: u64,
    /// Quality of the current session's displayed pictures.
    quality: QualityStats,
    /// Σ PSNR and frames scored over finished sessions.
    psnr_sum: f64,
    psnr_frames: usize,
    /// Modeled encoding energy, Joules.
    pub encode_j: f64,
    /// The motion-estimation part of `encode_j`, Joules.
    pub encode_me_j: f64,
    /// Bytes offered to the channel.
    pub wire_bytes: u64,
    /// Packets offered to the channel.
    pub packets: u64,
    /// Packets the channel erased.
    pub erased: u64,
    /// Absolute-difference operations of motion estimation.
    pub sad_ops: u64,
    /// Macroblocks coded intra.
    pub intra_mbs: u64,
    /// Macroblocks coded in total.
    pub total_mbs: u64,
    /// Entropy-coded bits.
    pub bits: u64,
    /// `RefreshPolicy::me_bias` invocations (traced passes).
    pub me_bias_calls: u64,
    /// Resilient-decode accounting.
    pub decode: DecodeReport,
    /// FEC blocks repaired.
    pub blocks_repaired: u64,
    /// GF(256) multiply-accumulated bytes during repair.
    pub gf_mul_bytes: u64,
    /// Span totals (traced passes only).
    pub ledger: Ledger,
    /// Panics caught, by site and message.
    pub guard: Guard,
    /// `guard.total()` when the current frame began.
    panics_at_start: u64,
    /// Process CPU time and first frame of the current session.
    session_cpu: u64,
    session_start: usize,
}

/// One session's timing.
#[derive(Debug, Clone, Copy)]
pub struct SessionTiming {
    /// Frames ÷ Σ frame latency.
    pub fps: f64,
    /// Median frame latency, milliseconds.
    pub p50_ms: f64,
    /// Process CPU time per frame, milliseconds.
    pub cpu_ms_per_frame: f64,
}

impl Pass {
    /// A fresh tally; spans are recorded when `traced`.
    pub fn new(traced: bool) -> Self {
        Pass {
            bitstream: FNV_BASIS,
            display: FNV_BASIS,
            ledger: Ledger::new(traced),
            ..Pass::default()
        }
    }

    /// What the recorded digest of a pass covers.
    pub fn digest(&self) -> String {
        format!(
            "bitstream={:016x} display={:016x}",
            self.bitstream, self.display
        )
    }

    /// Starts a session: one replay of the source through a fresh
    /// pipeline and channel realization.
    pub fn begin_session(&mut self) {
        self.session_cpu = host::process_cpu_ns();
        self.session_start = self.latency_ms.len();
    }

    /// Ends the current session: summarizes its timing and quality.
    pub fn end_session(&mut self) {
        let cpu_ns = host::process_cpu_ns() - self.session_cpu;
        let lat = &self.latency_ms[self.session_start..];
        let n = lat.len() as f64;
        self.sessions.push(SessionTiming {
            fps: n / lat.iter().sum::<f64>() * 1e3,
            p50_ms: quantile_ms(lat, 0.50),
            cpu_ms_per_frame: cpu_ns as f64 / 1e6 / n,
        });
        let quality = std::mem::take(&mut self.quality);
        self.psnr_sum += quality.average_psnr() * quality.frames() as f64;
        self.psnr_frames += quality.frames();
    }

    /// Ends the pass: takes its p99 and drops the per-frame latencies,
    /// so memory does not grow with the number of passes.
    pub fn finish(mut self) -> Self {
        self.p99_ms = quantile_ms(&self.latency_ms, 0.99);
        self.latency_ms = Vec::new();
        self
    }

    /// Mean luma PSNR of every scored picture of the pass.
    pub fn psnr_db(&self) -> f64 {
        self.psnr_sum / self.psnr_frames as f64
    }

    /// Starts a frame: returns its timer.
    pub fn begin_frame(&mut self) -> Instant {
        self.panics_at_start = self.guard.total();
        Instant::now()
    }

    /// Decodes `bytes` resiliently, or conceals the frame when nothing
    /// usable arrived; returns the displayed picture. A panicking
    /// decoder leaves the viewer on the last picture.
    pub fn receive(&mut self, dec: &mut Decoder, bytes: Option<Vec<u8>>) -> Frame {
        let (ledger, guard) = (&mut self.ledger, &mut self.guard);
        let shown = match bytes {
            Some(data) => guard
                .call("codec.decode", || {
                    ledger.span(Layer::Decode, || dec.decode_frame_resilient(&data))
                })
                .map(|(frame, report)| {
                    self.decode.absorb(&report);
                    frame
                }),
            None => guard.call("codec.conceal", || {
                ledger.span(Layer::Conceal, || dec.conceal_lost_frame())
            }),
        };
        shown.unwrap_or_else(|| dec.last_frame().clone())
    }

    /// Records quality of `displayed` against `original`, closes the
    /// frame's timer, then digests the picture outside it.
    pub fn finish_frame(&mut self, original: &Frame, displayed: &Frame, started: Instant) {
        let (ledger, guard, quality) = (&mut self.ledger, &mut self.guard, &mut self.quality);
        // A panic here counts below with the frame's other panics.
        let _ = guard.call("media.metrics", || {
            ledger.span(Layer::Metrics, || quality.record(original, displayed))
        });
        let ns = started.elapsed().as_nanos() as u64;
        self.work_ns += ns;
        self.latency_ms.push(ns as f64 / 1e6);
        self.frames += 1;
        self.failed += u64::from(self.guard.total() > self.panics_at_start);
        for plane in [displayed.y(), displayed.cb(), displayed.cr()] {
            self.display = fnv(self.display, plane.samples());
        }
    }
}

/// Packets of `sent` that never arrived. Counted by sequence number: the
/// channel may also duplicate packets.
pub fn erased(sent: &[Packet], arrived: Option<&Vec<Packet>>) -> u64 {
    let got = arrived.map_or(&[][..], Vec::as_slice);
    sent.iter()
        .filter(|p| !got.iter().any(|g| g.seq == p.seq))
        .count() as u64
}

/// The set-up and timed phase of a pass-based workload. `setup` runs
/// once before a discarded one-session warm-up and again between passes
/// at even intervals of the timed phase, [`SETUPS`] times in all. Like
/// the timings, set-up time follows the host's speed, so it is sampled
/// over the whole run and reported at the slow quartile. Passes of
/// `sessions` sessions follow until `seconds` have elapsed. Returns the
/// first set-up's value and spans, the set-up time, and the timed phase.
pub fn run_passes<T>(
    seconds: f64,
    trace: bool,
    sessions: u64,
    mut setup: impl FnMut() -> (T, f64, Ledger),
    mut pass: impl FnMut(&T, bool, u64) -> Pass,
) -> (T, Ledger, f64, Timed<Pass>) {
    let (value, first_s, ledger) = setup();
    let mut secs = vec![first_s];
    drop(pass(&value, false, 1)); // warm-up, discarded
    let interval = seconds / (SETUPS - 1) as f64;
    let start = Instant::now();
    let timed = host::timed_loop(seconds, trace, |traced| {
        let due = (secs.len() - 1) as f64 * interval;
        if secs.len() < SETUPS && start.elapsed().as_secs_f64() >= due {
            secs.push(setup().1);
        }
        pass(&value, traced, sessions)
    });
    (value, ledger, quantile(&secs, 0.75), timed)
}

/// The end-to-end metrics of a pass-based workload. Quality, energy,
/// wire and failure figures are per pass and identical for every pass.
///
/// Timing figures are taken per session and summarized at the slow
/// 5%: the host's speed drifts between states for seconds at a time,
/// and the rate it sustains in 19 sessions out of 20 repeats far better
/// from run to run than a median does. The tail needs more samples than
/// a session holds, so p99 is taken per pass and reported as the median
/// over passes, which one stalled second of the host cannot set.
pub fn end_to_end(out: &mut Outcome, timed: &Timed<Pass>, setup_s: f64) {
    let first = &timed.plain[0];
    let frames = first.frames as f64;
    let sessions: Vec<&SessionTiming> = timed.plain.iter().flat_map(|p| &p.sessions).collect();
    let of = |f: fn(&SessionTiming) -> f64| sessions.iter().map(|s| f(s)).collect::<Vec<_>>();
    let fps = of(|s| s.fps);
    let p99: Vec<f64> = timed.plain.iter().map(|p| p.p99_ms).collect();
    // Every pass replays the same seed-determined frames, so the counts
    // are one replay's: a function of the seed, not of how many passes
    // the host's speed fit in the time.
    out.check(
        timed
            .all()
            .all(|p| (p.frames, p.failed) == (first.frames, first.failed)),
        "frame or failure count differs between passes of one seed".into(),
    );
    out.attempted = first.frames;
    out.failed = first.failed;
    out.note(format!(
        "{} passes of {} sessions x {} frames; fps, p50 and cpu are the slow 5% over {} \
         sessions; p99 is the median over passes of each pass's p99 ({} frame \
         latencies, {} beyond p99)",
        timed.plain.len(),
        first.sessions.len(),
        first.frames as usize / first.sessions.len(),
        fps.len(),
        first.frames,
        first.frames / 100
    ));
    out.note(format!(
        "per-session fps quartiles {:.1} / {:.1} / {:.1}",
        quantile(&fps, 0.25),
        median(&fps),
        quantile(&fps, 0.75)
    ));
    out.set("fps", quantile(&fps, 0.05));
    out.set("frame_p50_ms", quantile(&of(|s| s.p50_ms), 0.95));
    out.set("frame_p99_ms", median(&p99));
    out.set("setup_s", setup_s);
    out.set(
        "cpu_ms_per_frame",
        quantile(&of(|s| s.cpu_ms_per_frame), 0.95),
    );
    out.set("psnr_db", first.psnr_db());
    out.set("encode_mj_per_frame", first.encode_j * 1e3 / frames);
    out.set("wire_bytes_per_frame", first.wire_bytes as f64 / frames);
    out.set("ok_share", 1.0 - first.failed as f64 / frames);
    out.set("peak_rss_mb", host::peak_rss_mb());
    for (site, n) in &first.guard.panics {
        out.note(format!("contained panic, {n} per pass: {site}"));
    }
}

/// The per-layer metrics of a pass-based workload, from its traced
/// passes. `synth_us` is the source's rendering cost per frame, paid in
/// set-up.
pub fn per_layer(out: &mut Outcome, timed: &Timed<Pass>, synth_us: f64, source: &[Frame]) {
    let mut ledger = Ledger::new(true);
    let (mut frames, mut work_ns) = (0u64, 0u64);
    for p in &timed.traced {
        ledger.absorb(&p.ledger);
        frames += p.frames;
        work_ns += p.work_ns;
    }
    let us = |layer| ledger.ns(layer) as f64 / 1e3 / frames as f64;
    let p = &timed.traced[0];
    let per_frame = |v: u64| v as f64 / p.frames as f64;
    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let encode_self_us = us(Layer::Encode) - us(Layer::Policy);
    out.set("media.synth.us_per_frame", synth_us);
    out.set("media.metrics.us_per_frame", us(Layer::Metrics));
    out.set("core.policy.us_per_frame", us(Layer::Policy));
    out.set(
        "core.policy.me_bias_calls_per_frame",
        per_frame(p.me_bias_calls),
    );
    out.set("codec.encode.us_per_frame", encode_self_us);
    out.set("codec.encode.sad_ops_per_frame", per_frame(p.sad_ops));
    out.set(
        "codec.encode.intra_mb_share",
        share(p.intra_mbs, p.total_mbs),
    );
    out.set("codec.encode.bits_per_frame", per_frame(p.bits));
    out.set(
        "codec.encode.modeled_uj_per_frame",
        p.encode_j * 1e6 / p.frames as f64,
    );
    if p.encode_j > 0.0 {
        out.set("codec.encode.modeled_me_share", p.encode_me_j / p.encode_j);
        let me_us = per_frame(p.sad_ops) * sad_ns_per_op(source) / 1e3;
        out.set("codec.encode.me_time_share_est", me_us / encode_self_us);
    }
    out.set("codec.decode.us_per_frame", us(Layer::Decode));
    out.set("codec.conceal.us_per_frame", us(Layer::Conceal));
    out.set(
        "codec.decode.mbs_concealed_per_frame",
        per_frame(p.decode.mbs_concealed),
    );
    out.set(
        "codec.decode.resyncs_per_frame",
        per_frame(p.decode.resyncs),
    );
    out.set("netsim.packetize.us_per_frame", us(Layer::Packetize));
    out.set("netsim.channel.us_per_frame", us(Layer::Channel));
    out.set("netsim.reassemble.us_per_frame", us(Layer::Reassemble));
    out.set("netsim.packets_per_frame", per_frame(p.packets));
    out.set("netsim.erased_share", share(p.erased, p.packets));
    out.set("fec.recover.us_per_frame", us(Layer::FecRecover));
    out.set(
        "fec.blocks_repaired_per_frame",
        per_frame(p.blocks_repaired),
    );
    out.set("fec.gf_mul_bytes_per_frame", per_frame(p.gf_mul_bytes));
    out.set("fec.recover_panics", p.guard.count("fec.recover") as f64);
    out.set("energy.model.us_per_frame", us(Layer::Energy));
    out.set("host.steal_share", timed.steal_share);
    out.set("host.rq_wait_share", timed.rq_wait_share);
    out.set(
        "explained_share",
        ledger.top_level_ns() as f64 / work_ns as f64,
    );
    out.set(
        "trace_overhead_share",
        trace_overhead(&timed.plain, &timed.traced),
    );
}

/// Overhead of tracing: median traced pass time over median untraced.
fn trace_overhead(plain: &[Pass], traced: &[Pass]) -> f64 {
    let wall = |v: &[Pass]| median(&v.iter().map(|p| p.work_ns as f64).collect::<Vec<_>>());
    wall(traced) / wall(plain) - 1.0
}

/// Measured cost of one absolute-difference operation of the active
/// SAD kernel, in nanoseconds: every 16×16 luma block of the source's
/// first picture against the colocated block of its second, for 20 ms.
fn sad_ns_per_op(source: &[Frame]) -> f64 {
    let k = Kernels::active();
    let (a, b) = (source[0].y(), source[1].y());
    let w = a.width();
    let (mut calls, mut acc) = (0u64, 0u64);
    let t = Instant::now();
    while t.elapsed().as_millis() < 20 {
        for y in (0..a.height() - 15).step_by(16) {
            for x in (0..w - 15).step_by(16) {
                let off = y * w + x;
                acc = acc.wrapping_add(k.sad16(&a.samples()[off..], w, &b.samples()[off..], w));
                calls += 1;
            }
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64 / (calls * 256) as f64
}
