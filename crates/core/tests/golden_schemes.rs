//! Golden bitstream digests for every scheme × motion-search strategy.
//!
//! Each vector encodes a seeded synthetic sequence under one refresh
//! policy and one search strategy and asserts the FNV-1a digest of the
//! length-prefixed bitstream against a committed constant. Before the
//! digest is checked, the same vector is re-encoded under both
//! optimization settings — the naive reference path and the default fast
//! path — and the two bitstreams must be identical. One constant
//! therefore pins the format for the whole optimization matrix.
//!
//! To re-bless after an *intentional* format change, run
//! `PBPAIR_BLESS=1 cargo test -p pbpair --test golden_schemes -- --nocapture`
//! and paste the printed digests into `VECTORS`.

use pbpair::{AirPolicy, GopPolicy, NoPolicy, PbpairConfig, PbpairPolicy, PgopPolicy};
use pbpair_codec::policy::RefreshPolicy;
use pbpair_codec::{
    Decoder, Encoder, EncoderConfig, KernelChoice, Kernels, MeConfig, OpCounts, OptConfig,
    SearchStrategy,
};
use pbpair_media::synth::SyntheticSequence;
use pbpair_media::{Frame, VideoFormat};

const FRAMES: usize = 10;
const SEED: u64 = 77;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn make_policy(scheme: &str) -> Box<dyn RefreshPolicy> {
    match scheme {
        "no" => Box::new(NoPolicy::new()),
        "gop8" => Box::new(GopPolicy::new(8)),
        "air24" => Box::new(AirPolicy::new(VideoFormat::QCIF, 24)),
        "pgop3" => Box::new(PgopPolicy::new(VideoFormat::QCIF, 3)),
        "pbpair" => Box::new(
            PbpairPolicy::new(VideoFormat::QCIF, PbpairConfig::default())
                .expect("default config validates"),
        ),
        other => panic!("unknown scheme {other}"),
    }
}

/// Length-prefixed concatenation of `FRAMES` encoded frames.
fn encode(scheme: &str, strategy: SearchStrategy, opt: OptConfig) -> Vec<u8> {
    encode_with_ops(scheme, strategy, opt).0
}

/// [`encode`] plus the encoder's cumulative operation counts — the SIMD
/// tier sweep asserts these (and therefore the energy model built on
/// them) are tier-invariant, not just the bitstream.
fn encode_with_ops(scheme: &str, strategy: SearchStrategy, opt: OptConfig) -> (Vec<u8>, OpCounts) {
    let mut enc = Encoder::new(EncoderConfig {
        me: MeConfig {
            search_range: 15,
            strategy,
        },
        opt,
        ..EncoderConfig::default()
    });
    let mut policy = make_policy(scheme);
    let mut seq = SyntheticSequence::foreman_class(SEED);
    let mut out = Vec::new();
    for _ in 0..FRAMES {
        let e = enc.encode_frame(&seq.next_frame(), policy.as_mut());
        out.extend_from_slice(&u32::try_from(e.data.len()).expect("fits").to_le_bytes());
        out.extend_from_slice(&e.data);
    }
    (out, *enc.ops())
}

/// Splits a length-prefixed stream back into frames and decodes each with
/// the given kernel tier, returning the decoded frames.
fn decode_all(stream: &[u8], tier: pbpair_codec::KernelTier) -> Vec<Frame> {
    let mut dec = Decoder::new(VideoFormat::QCIF);
    dec.set_kernels(KernelChoice::forced(tier));
    let mut frames = Vec::new();
    let mut rest = stream;
    while !rest.is_empty() {
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        let (frame, _) = dec.decode_frame(&rest[4..4 + len]).expect("decodable");
        frames.push(frame);
        rest = &rest[4 + len..];
    }
    frames
}

struct Vector {
    scheme: &'static str,
    strategy: SearchStrategy,
    digest: u64,
}

const VECTORS: &[Vector] = &[
    Vector {
        scheme: "no",
        strategy: SearchStrategy::Full,
        digest: 0xc1b1_0767_d2a4_7ce1,
    },
    Vector {
        scheme: "no",
        strategy: SearchStrategy::ThreeStep,
        digest: 0x32b8_7636_07e9_5ecf,
    },
    Vector {
        scheme: "gop8",
        strategy: SearchStrategy::Full,
        digest: 0x035e_3191_0088_d539,
    },
    Vector {
        scheme: "gop8",
        strategy: SearchStrategy::ThreeStep,
        digest: 0x4fe3_dc77_e57e_0cfa,
    },
    Vector {
        scheme: "air24",
        strategy: SearchStrategy::Full,
        digest: 0x1b2c_4a48_e647_cdd4,
    },
    Vector {
        scheme: "air24",
        strategy: SearchStrategy::ThreeStep,
        digest: 0x45b6_b01f_f595_4d22,
    },
    Vector {
        scheme: "pgop3",
        strategy: SearchStrategy::Full,
        digest: 0xd599_56a5_0c44_de93,
    },
    Vector {
        scheme: "pgop3",
        strategy: SearchStrategy::ThreeStep,
        digest: 0x478a_9d95_6b6e_be05,
    },
    Vector {
        scheme: "pbpair",
        strategy: SearchStrategy::Full,
        digest: 0xc149_cef4_7714_e29a,
    },
    Vector {
        scheme: "pbpair",
        strategy: SearchStrategy::ThreeStep,
        digest: 0xf807_99b4_3768_4cf9,
    },
];

#[test]
fn every_scheme_and_search_matches_its_golden_digest_under_all_optimizations() {
    let blessing = std::env::var_os("PBPAIR_BLESS").is_some();
    for v in VECTORS {
        let reference = encode(v.scheme, v.strategy, OptConfig::naive());
        let fast = encode(v.scheme, v.strategy, OptConfig::default());
        assert_eq!(
            fast, reference,
            "{} {:?}: fast diverged from the naive reference",
            v.scheme, v.strategy
        );
        let digest = fnv1a(&reference);
        if blessing {
            println!(
                "Vector {{ scheme: \"{}\", strategy: SearchStrategy::{:?}, digest: 0x{:016x} }},",
                v.scheme, v.strategy, digest
            );
        } else {
            assert_eq!(
                digest, v.digest,
                "{} {:?}: bitstream drifted from the committed golden digest",
                v.scheme, v.strategy
            );
        }
    }
}

/// The forced-dispatch kernel matrix: every golden vector re-encoded with
/// every available SIMD tier pinned via [`KernelChoice::forced`] must
/// reproduce the committed digest byte for byte, with identical
/// operation counts (so the paper's energy model sees the same inputs
/// regardless of the host's vector units). Decoder side, every tier must
/// reproduce pixel-identical frames from the golden streams.
#[test]
fn golden_digests_are_kernel_tier_invariant() {
    if std::env::var_os("PBPAIR_BLESS").is_some() {
        return; // Blessing happens against the scalar-checked test above.
    }
    let tiers = Kernels::available();
    assert!(
        tiers.contains(&pbpair_codec::KernelTier::Scalar),
        "the scalar reference tier must always be available"
    );
    for v in VECTORS {
        let mut reference: Option<(Vec<u8>, OpCounts, Vec<Frame>)> = None;
        for &tier in &tiers {
            let opt = OptConfig {
                kernels: KernelChoice::forced(tier),
                ..OptConfig::default()
            };
            let (stream, ops) = encode_with_ops(v.scheme, v.strategy, opt);
            assert_eq!(
                fnv1a(&stream),
                v.digest,
                "{} {:?}: tier {} drifted from the golden digest",
                v.scheme,
                v.strategy,
                tier
            );
            let decoded = decode_all(&stream, tier);
            match &reference {
                None => reference = Some((stream, ops, decoded)),
                Some((want_stream, want_ops, want_frames)) => {
                    assert_eq!(
                        &stream, want_stream,
                        "{} {:?}: tier {} bitstream diverged",
                        v.scheme, v.strategy, tier
                    );
                    assert_eq!(
                        &ops, want_ops,
                        "{} {:?}: tier {} op counts (sad_ops/energy inputs) diverged",
                        v.scheme, v.strategy, tier
                    );
                    assert_eq!(
                        &decoded, want_frames,
                        "{} {:?}: tier {} decoded pixels diverged",
                        v.scheme, v.strategy, tier
                    );
                }
            }
        }
    }
}
