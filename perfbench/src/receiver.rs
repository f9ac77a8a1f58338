//! `receiver`: the decoder side of a protected PBPAIR stream. Set-up
//! renders the source, encodes it once (Intra_Th 0.9, PLR 0.10) and
//! protects it with RS(8,2) at a 36-byte MTU. The timed phase replays
//! the packets through Markov burst erasures (mean burst 4, mean guard
//! 28 packets) with 0.2 corruption, then FEC repair, reassembly,
//! resilient decode or concealment and PSNR: the committed `fec` /
//! `scenarios` burst cell. The encoder does no work in the timed phase.

use crate::ledger::{fnv, sub_seed, Layer, Ledger, FNV_BASIS};
use crate::pipeline::{end_to_end, erased, per_layer, render_source, run_passes, Pass};
use crate::report::{Golden, Outcome};
use crate::stream::{pbpair_policy, CORRUPTION};
use pbpair_codec::{Decoder, Encoder, EncoderConfig};
use pbpair_energy::{EnergyModel, IPAQ_H5555};
use pbpair_media::{Frame, VideoFormat};
use pbpair_netsim::{
    reassemble_frame, reassemble_frame_damaged, CorruptingChannel, CorruptionProfile, FecOps,
    FecProtector, FecSpec, MarkovBurstErasure, Packet, Packetizer,
};
use std::time::Instant;

/// Payload MTU: about 15 packets per frame, parity included.
const MTU: usize = 36;
/// The protection every frame carries.
const FEC: FecSpec = FecSpec::Rs { k: 8, r: 2 };
/// Mean erasure-burst and guard lengths, in packets.
const BURST: (f64, f64) = (4.0, 28.0);
/// Sessions per pass: independent channel realizations, each into a
/// fresh decoder.
const SESSIONS: u64 = 32;

/// The protected stream set-up produces.
struct Protected {
    source: Vec<Frame>,
    packets: Vec<Vec<Packet>>,
    bitstream: u64,
    encode_j: f64,
}

/// Set-up: render, encode, packetize and protect. Returns the stream,
/// the set-up time and the rendering spans.
fn setup() -> (Protected, f64, Ledger) {
    let mut ledger = Ledger::new(true);
    let t = Instant::now();
    let source = render_source(&mut ledger);
    let mut enc = Encoder::new(EncoderConfig::default());
    let mut policy = pbpair_policy();
    let mut packetizer = Packetizer::new(MTU);
    let fec = FecProtector::new(FEC).expect("RS(8,2) is a valid code");
    let mut fec_ops = FecOps::default();
    let mut bitstream = FNV_BASIS;
    let packets = source
        .iter()
        .map(|frame| {
            let e = enc.encode_frame(frame, &mut policy);
            bitstream = fnv(bitstream, &e.data);
            fec.protect(&packetizer.packetize(e.index, &e.data), &mut fec_ops)
        })
        .collect();
    let encode_j = EnergyModel::new(IPAQ_H5555)
        .encoding_energy(enc.ops())
        .get();
    let stream = Protected {
        source,
        packets,
        bitstream,
        encode_j,
    };
    (stream, t.elapsed().as_secs_f64(), ledger)
}

/// One pass of `sessions` sessions over the protected stream.
fn pass(s: &Protected, seed: u64, traced: bool, sessions: u64) -> Pass {
    let mut p = Pass::new(traced);
    p.bitstream = s.bitstream;
    let fec = FecProtector::new(FEC).expect("RS(8,2) is a valid code");
    for r in 0..sessions {
        p.begin_session();
        let mut channel = CorruptingChannel::new(
            Box::new(MarkovBurstErasure::new(
                BURST.0,
                BURST.1,
                sub_seed(seed, 100 + r),
            )),
            CorruptionProfile::with_intensity(CORRUPTION),
            sub_seed(seed, 200 + r),
        );
        let mut dec = Decoder::new(VideoFormat::QCIF);
        for (i, (sent, original)) in s.packets.iter().zip(&s.source).enumerate() {
            let started = p.begin_frame();
            let (ledger, guard) = (&mut p.ledger, &mut p.guard);
            let mut ops = FecOps::default();
            channel.on_frame(i as u64);
            let survivors = guard.call("netsim.channel", || {
                ledger.span(Layer::Channel, || channel.transmit_packets(sent))
            });
            let repaired = survivors.as_ref().and_then(|got| {
                guard.call("fec.recover", || {
                    ledger.span(Layer::FecRecover, || fec.recover(got, &mut ops))
                })
            });
            // A panicking repair leaves nothing trustworthy: conceal.
            let bytes = match (&survivors, repaired) {
                (Some(_), Some(Some(rec))) => guard.call("netsim.reassemble", || {
                    ledger.span(Layer::Reassemble, || {
                        if rec.complete {
                            reassemble_frame(&rec.data)
                        } else {
                            reassemble_frame_damaged(&rec.data)
                        }
                    })
                }),
                (Some(got), Some(None)) => guard.call("netsim.reassemble", || {
                    ledger.span(Layer::Reassemble, || reassemble_frame_damaged(got))
                }),
                _ => None,
            };
            let shown = p.receive(&mut dec, bytes.flatten());
            p.finish_frame(original, &shown, started);

            p.packets += sent.len() as u64;
            p.erased += erased(sent, survivors.as_ref());
            p.wire_bytes += sent.iter().map(|s| s.len() as u64).sum::<u64>();
            p.blocks_repaired += ops.blocks_repaired;
            p.gf_mul_bytes += ops.gf_mul_bytes;
        }
        p.end_session();
    }
    p.finish()
}

/// The digest to record for `seed`.
pub fn digest(seed: u64) -> String {
    let (stream, _, _) = setup();
    pass(&stream, seed, false, SESSIONS).digest()
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, golden: &Golden) -> Outcome {
    let (stream, render, setup_s, timed) = run_passes(
        seconds,
        trace,
        SESSIONS,
        setup,
        |stream, traced, sessions| pass(stream, seed, traced, sessions),
    );

    let mut out = Outcome::default();
    let digests: Vec<String> = timed.all().map(Pass::digest).collect();
    out.check_digests("receiver", seed, golden, &digests);
    end_to_end(&mut out, &timed, setup_s);
    let frames = stream.source.len() as f64;
    out.set("encode_mj_per_frame", stream.encode_j * 1e3 / frames);
    if trace {
        let synth_us = render.ns(Layer::Synth) as f64 / 1e3 / frames;
        per_layer(&mut out, &timed, synth_us, &stream.source);
    }
    out
}
