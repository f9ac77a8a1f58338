//! `stream`: one PBPAIR session on one thread, over a source rendered
//! during set-up. Each frame goes encode (Intra_Th 0.9, PLR 0.10) →
//! packetize (default MTU) → uniform 10% loss + 0.2 corruption →
//! reassembly → resilient decode or concealment → PSNR. No FEC.

use crate::ledger::{fnv, sub_seed, Layer, Ledger, TimedPolicy};
use crate::pipeline::{end_to_end, erased, per_layer, render_source, run_passes, Pass};
use crate::report::{Golden, Outcome};
use pbpair::{PbpairConfig, PbpairPolicy};
use pbpair_codec::policy::RefreshPolicy;
use pbpair_codec::{Decoder, Encoder, EncoderConfig};
use pbpair_energy::{EnergyModel, IPAQ_H5555};
use pbpair_media::{Frame, VideoFormat};
use pbpair_netsim::{
    reassemble_frame_damaged, CorruptingChannel, CorruptionProfile, Packetizer, UniformLoss,
    DEFAULT_MTU,
};
use std::time::Instant;

/// Forward-channel packet loss rate, and the PLR PBPAIR assumes.
pub const PLR: f64 = 0.10;
/// Payload corruption intensity.
pub const CORRUPTION: f64 = 0.2;

/// PBPAIR at the paper's default operating point.
pub fn pbpair_policy() -> PbpairPolicy {
    PbpairPolicy::new(
        VideoFormat::QCIF,
        PbpairConfig {
            intra_th: 0.9,
            plr: PLR,
            ..PbpairConfig::default()
        },
    )
    .expect("the default PBPAIR operating point is valid")
}

/// Sessions per pass: independent channel realizations, each through a
/// fresh encoder, channel and decoder, so quality averages over enough
/// loss patterns to repeat closely from seed to seed.
const SESSIONS: u64 = 16;

/// One pass of `sessions` sessions over the source; every pass of a
/// seed produces the same digests.
fn pass(source: &[Frame], seed: u64, traced: bool, sessions: u64) -> Pass {
    let mut p = Pass::new(traced);
    let energy = EnergyModel::new(IPAQ_H5555);
    for r in 0..sessions {
        p.begin_session();
        let mut enc = Encoder::new(EncoderConfig::default());
        let mut pbpair = pbpair_policy();
        let mut timed = TimedPolicy::new(&mut pbpair);
        let mut packetizer = Packetizer::new(DEFAULT_MTU);
        let mut channel = CorruptingChannel::new(
            Box::new(UniformLoss::new(PLR, sub_seed(seed, 100 + r))),
            CorruptionProfile::with_intensity(CORRUPTION),
            sub_seed(seed, 200 + r),
        );
        let mut dec = Decoder::new(VideoFormat::QCIF);
        let mut ops_before = *enc.ops();
        for (i, original) in source.iter().enumerate() {
            let started = p.begin_frame();
            let (ledger, guard) = (&mut p.ledger, &mut p.guard);
            let policy: &mut dyn RefreshPolicy = if traced { &mut timed } else { timed.inner() };
            let encoded = guard.call("codec.encode", || {
                ledger.span(Layer::Encode, || enc.encode_frame(original, policy))
            });
            let ops = *enc.ops() - ops_before;
            ops_before = *enc.ops();
            let energy_j = ledger.span(Layer::Energy, || energy.breakdown(&ops));
            let sent = encoded.as_ref().and_then(|e| {
                guard.call("netsim.packetize", || {
                    ledger.span(Layer::Packetize, || packetizer.packetize(e.index, &e.data))
                })
            });
            channel.on_frame(i as u64);
            let survivors = sent.as_ref().and_then(|sent| {
                guard.call("netsim.channel", || {
                    ledger.span(Layer::Channel, || channel.transmit_packets(sent))
                })
            });
            let bytes = survivors.as_ref().and_then(|s| {
                guard.call("netsim.reassemble", || {
                    ledger.span(Layer::Reassemble, || reassemble_frame_damaged(s))
                })
            });
            let shown = p.receive(&mut dec, bytes.flatten());
            p.finish_frame(original, &shown, started);

            // Outside the frame's timer: tallies and digests.
            p.encode_j += energy_j.total().get();
            p.encode_me_j += energy_j.motion_estimation.get();
            p.sad_ops += ops.sad_ops;
            p.intra_mbs += ops.intra_mbs;
            p.total_mbs += ops.total_mbs();
            p.bits += ops.bits_emitted;
            if let Some(sent) = &sent {
                p.packets += sent.len() as u64;
                p.erased += erased(sent, survivors.as_ref());
                p.wire_bytes += sent.iter().map(|s| s.len() as u64).sum::<u64>();
            }
            if let Some(e) = &encoded {
                p.bitstream = fnv(p.bitstream, &e.data);
            }
        }
        p.me_bias_calls += timed.me_bias_calls;
        p.ledger.add(Layer::Policy, timed.ns);
        p.end_session();
    }
    p.finish()
}

/// Loss-free replay of the source: every frame, delivered intact, must
/// decode to exactly `Encoder::reconstructed()`. Returns the frames that
/// did not.
fn lossless_replay(source: &[Frame]) -> u64 {
    let mut enc = Encoder::new(EncoderConfig::default());
    let mut policy = pbpair_policy();
    let mut dec = Decoder::new(VideoFormat::QCIF);
    let mut mismatched = 0;
    for original in source {
        let e = enc.encode_frame(original, &mut policy);
        let same = dec
            .decode_frame(&e.data)
            .is_ok_and(|(shown, _)| shown == *enc.reconstructed());
        mismatched += u64::from(!same);
    }
    mismatched
}

/// Set-up: render the source and build the codec pair. Returns the
/// source, the set-up time and the rendering spans.
fn setup() -> (Vec<Frame>, f64, Ledger) {
    let mut ledger = Ledger::new(true);
    let t = Instant::now();
    let source = render_source(&mut ledger);
    std::hint::black_box((Encoder::new(EncoderConfig::default()), pbpair_policy()));
    (source, t.elapsed().as_secs_f64(), ledger)
}

/// The digest to record for `seed`.
pub fn digest(seed: u64) -> String {
    let (source, _, _) = setup();
    pass(&source, seed, false, SESSIONS).digest()
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, golden: &Golden) -> Outcome {
    let (source, render, setup_s, timed) = run_passes(
        seconds,
        trace,
        SESSIONS,
        setup,
        |source, traced, sessions| pass(source, seed, traced, sessions),
    );

    let mut out = Outcome::default();
    let digests: Vec<String> = timed.all().map(Pass::digest).collect();
    out.check_digests("stream", seed, golden, &digests);
    let mismatched = lossless_replay(&source);
    out.check(
        mismatched == 0,
        format!(
            "stream: {mismatched} of {} frames delivered intact differ from \
             Encoder::reconstructed()",
            source.len()
        ),
    );
    end_to_end(&mut out, &timed, setup_s);
    if trace {
        let synth_us = render.ns(Layer::Synth) as f64 / 1e3 / source.len() as f64;
        per_layer(&mut out, &timed, synth_us, &source);
    }
    out
}
