//! Encode hot-path benchmark: frames/sec, SAD ops/frame, and
//! allocations/frame for the retained naive path and the optimized path
//! (both single-threaded), over seeded synthetic clips. Emits JSON in the
//! schema of the committed `BENCH_PR5.json` (enforced by
//! `ci/validate_bench.py`).
//!
//! A second mode (`--kernels`) microbenchmarks the SIMD pixel-kernel
//! tiers against the scalar reference — SAD, bounded SAD, the fused
//! transform, the inverse DCT, and half-pel interpolation — asserting
//! bit-identical results while timing, and emits the JSON committed as
//! `BENCH_PR8.json` (same validator, keyed on `meta.bench`).
//!
//! Usage:
//!   cargo run --release -p pbpair-eval --bin perf              # full run, JSON to stdout
//!   cargo run --release -p pbpair-eval --bin perf -- --smoke   # CI-sized run
//!   cargo run --release -p pbpair-eval --bin perf -- --out BENCH_PR5.json
//!   cargo run --release -p pbpair-eval --bin perf -- --kernels --out BENCH_PR8.json
//!   cargo run --release -p pbpair-eval --bin perf -- --kernels-info  # detected tier to stdout

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pbpair_codec::fused::fdct_quant_scan_with;
use pbpair_codec::{EncodedFrame, Encoder, EncoderConfig, Kernels, NaturalPolicy, OptConfig, Qp};
use pbpair_media::synth::SyntheticSequence;
use pbpair_media::Frame;

/// Counts heap allocations so the benchmark can report allocations per
/// steady-state frame (the zero-allocation claim, measured rather than
/// asserted here).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const WARMUP: usize = 4;

struct Variant {
    name: &'static str,
    opt: OptConfig,
}

fn variants() -> [Variant; 2] {
    [
        Variant {
            name: "naive",
            opt: OptConfig::naive(),
        },
        Variant {
            name: "fast",
            opt: OptConfig::default(),
        },
    ]
}

struct Measurement {
    name: String,
    clip: &'static str,
    frames: usize,
    fps: f64,
    sad_ops_per_frame: f64,
    allocs_per_frame: f64,
    speedup_vs_naive: f64,
}

/// Encodes `frames` pre-generated frames and measures throughput, SAD
/// work, and steady-state allocations. The bitstream digest is returned
/// so the harness can assert all variants agree.
fn run_variant(v: &Variant, clip: &'static str, frames: &[Frame]) -> (Measurement, u64) {
    let mut enc = Encoder::new(EncoderConfig {
        opt: v.opt,
        ..EncoderConfig::paper()
    });
    let mut policy = NaturalPolicy::new();
    let mut out = EncodedFrame::empty();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for frame in &frames[..WARMUP] {
        enc.encode_frame_into(frame, &mut policy, &mut out);
        for &b in &out.data {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let _ = enc.take_ops();
    let measured = &frames[WARMUP..];
    let allocs_before = ALLOCATIONS.load(Ordering::SeqCst);
    let t0 = Instant::now();
    for frame in measured {
        enc.encode_frame_into(frame, &mut policy, &mut out);
        for &b in &out.data {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::SeqCst) - allocs_before;
    let ops = enc.take_ops();
    let n = measured.len() as f64;
    (
        Measurement {
            name: format!("{}/{}", v.name, clip),
            clip,
            frames: measured.len(),
            fps: n / elapsed.max(1e-9),
            sad_ops_per_frame: ops.sad_ops as f64 / n,
            allocs_per_frame: allocs as f64 / n,
            speedup_vs_naive: 0.0, // filled in by the caller
        },
        digest,
    )
}

fn json_escape_is_unneeded(s: &str) -> bool {
    s.chars()
        .all(|c| c.is_ascii_graphic() && c != '"' && c != '\\')
}

fn emit_json(results: &[Measurement], frames_per_clip: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"meta\": {\n");
    let _ = writeln!(out, "    \"bench\": \"pr5-encode-hot-path\",");
    let _ = writeln!(out, "    \"config\": \"paper (full search ±15, QCIF)\",");
    let _ = writeln!(out, "    \"warmup_frames\": {WARMUP},");
    let _ = writeln!(out, "    \"measured_frames_per_clip\": {frames_per_clip}");
    out.push_str("  },\n  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        assert!(json_escape_is_unneeded(&m.name), "unescapable name");
        out.push_str("    {");
        let _ = write!(out, "\"name\": \"{}\", ", m.name);
        // Every variant encodes on one thread (the encoder has a single
        // serial macroblock loop); the field stays for schema stability.
        out.push_str("\"threads\": 1, ");
        let _ = write!(out, "\"clip\": \"{}\", ", m.clip);
        let _ = write!(out, "\"frames\": {}, ", m.frames);
        let _ = write!(out, "\"fps\": {:.2}, ", m.fps);
        let _ = write!(out, "\"sad_ops_per_frame\": {:.1}, ", m.sad_ops_per_frame);
        let _ = write!(out, "\"allocs_per_frame\": {:.3}, ", m.allocs_per_frame);
        let _ = write!(out, "\"speedup_vs_naive\": {:.3}", m.speedup_vs_naive);
        out.push_str(if i + 1 == results.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// `--kernels`: per-tier pixel-kernel microbenchmarks (BENCH_PR8.json).
// ---------------------------------------------------------------------

/// The per-arch detected-best pins committed in BENCH_PR8.json. CI fails
/// if the running host detects a different best tier than its pin (a
/// silent dispatch regression would otherwise bench scalar and call it
/// a day).
const TIER_PINS: &[(&str, &str)] = &[("x86_64", "avx2"), ("aarch64", "neon")];

struct KernelMeasurement {
    kernel: &'static str,
    tier: &'static str,
    ns_per_call: f64,
    speedup_vs_scalar: f64,
}

/// Deterministic byte fill (splitmix-style) — the microbench needs
/// repeatable inputs, not statistical quality.
fn fill_bytes(buf: &mut [u8], mut state: u64) {
    for b in buf {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (state >> 33) as u8;
    }
}

/// Times `iters` calls of `f`, returning (ns/call, checksum). The
/// checksum both defeats dead-code elimination and lets the harness
/// assert every tier computed identical results.
fn timed<F: FnMut(usize) -> u64>(iters: usize, mut f: F) -> (f64, u64) {
    for i in 0..iters / 8 {
        black_box(f(i));
    }
    let mut sum = 0u64;
    let t0 = Instant::now();
    for i in 0..iters {
        sum = sum.wrapping_add(f(i));
    }
    let dt = t0.elapsed().as_secs_f64();
    (dt * 1e9 / iters as f64, sum)
}

fn sum_u8(buf: &[u8]) -> u64 {
    buf.iter().map(|&b| b as u64).sum()
}

fn sum_i32(buf: &[i32]) -> u64 {
    buf.iter()
        .map(|&v| v as i64 as u64)
        .fold(0, u64::wrapping_add)
}

fn bench_kernels(smoke: bool) -> Vec<KernelMeasurement> {
    const STRIDE: usize = 176;
    const ROWS: usize = 144;
    let scale = if smoke { 20 } else { 1 };
    let qp = Qp::new(8).unwrap();

    // Shared inputs: two pseudo-random planes for SAD/half-pel, a pool of
    // residual-range spatial blocks, and legal dequantized coefficient
    // blocks for the inverse transform.
    let mut plane_a = vec![0u8; STRIDE * ROWS];
    let mut plane_b = vec![0u8; STRIDE * ROWS];
    fill_bytes(&mut plane_a, 0x9e3779b97f4a7c15);
    fill_bytes(&mut plane_b, 0xd1b54a32d192ed03);
    // Power-of-two offset pool so the hot loops index with a mask — the
    // harness must not dilute the kernel-to-kernel ratio with division.
    let offsets: [usize; 64] =
        std::array::from_fn(|i| ((i * 23) % (ROWS - 16)) * STRIDE + (i * 37) % (STRIDE - 16));
    let spatial: Vec<[i32; 64]> = (0..32)
        .map(|i| {
            let mut bytes = [0u8; 64];
            fill_bytes(&mut bytes, 0x100 + i as u64);
            std::array::from_fn(|j| bytes[j] as i32 - 128)
        })
        .collect();
    let scalar = Kernels::scalar();
    let coefs: Vec<[i32; 64]> = spatial
        .iter()
        .map(|s| {
            let mut freq = [0i32; 64];
            scalar.fdct8(s, &mut freq);
            let q = pbpair_codec::quant::quantize_block(&freq, qp, false);
            pbpair_codec::quant::dequantize_block(&q, qp, false)
        })
        .collect();

    let mut results = Vec::new();
    let mut scalar_ns: Vec<(&'static str, f64)> = Vec::new();
    let mut checksums: Vec<(&'static str, u64)> = Vec::new();
    for tier in Kernels::available() {
        let k = Kernels::get(tier).expect("available tier resolves");
        let mut record = |name: &'static str, ns: f64, sum: u64| {
            match checksums.iter().find(|(n, _)| *n == name) {
                None => checksums.push((name, sum)),
                Some((_, want)) => assert_eq!(
                    sum, *want,
                    "{name}: tier {tier} computed different results than scalar"
                ),
            }
            let speedup = match scalar_ns.iter().find(|(n, _)| *n == name) {
                None => {
                    scalar_ns.push((name, ns));
                    1.0
                }
                Some((_, base)) => base / ns,
            };
            eprintln!(
                "{:>16}/{:<6} {:9.1} ns/call  {:5.2}x",
                name,
                tier.label(),
                ns,
                speedup
            );
            results.push(KernelMeasurement {
                kernel: name,
                tier: tier.label(),
                ns_per_call: ns,
                speedup_vs_scalar: speedup,
            });
        };

        let (ns, sum) = timed(1_000_000 / scale, |i| {
            k.sad16(
                &plane_a[offsets[i & 63]..],
                STRIDE,
                &plane_b[offsets[(i + 17) & 63]..],
                STRIDE,
            )
        });
        record("sad16", ns, sum);

        let (ns, sum) = timed(1_000_000 / scale, |i| {
            let (acc, ops) = k.sad16_bounded(
                &plane_a[offsets[i & 63]..],
                STRIDE,
                &plane_b[offsets[(i + 29) & 63]..],
                STRIDE,
                2_000,
            );
            acc.wrapping_mul(31).wrapping_add(ops)
        });
        record("sad16_bounded", ns, sum);

        let (ns, sum) = timed(200_000 / scale, |i| {
            let mut zig = [0i32; 64];
            let coded = fdct_quant_scan_with(k, &spatial[i & 31], qp, false, &mut zig);
            sum_i32(&zig).wrapping_add(coded as u64)
        });
        record("fused_transform", ns, sum);

        let (ns, sum) = timed(200_000 / scale, |i| {
            let mut out = [0i32; 64];
            k.idct8(&coefs[i & 31], &mut out);
            sum_i32(&out)
        });
        record("idct8", ns, sum);

        let (ns, sum) = timed(200_000 / scale, |i| {
            let mut out = [0u8; 256];
            k.halfpel(&plane_a[offsets[i & 63]..], STRIDE, 1, 1, &mut out, 16);
            sum_u8(&out)
        });
        record("halfpel16", ns, sum);
    }
    results
}

fn emit_kernels_json(results: &[KernelMeasurement], smoke: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"meta\": {\n");
    let _ = writeln!(out, "    \"bench\": \"pr8_kernels\",");
    let _ = writeln!(out, "    \"arch\": \"{}\",", std::env::consts::ARCH);
    let _ = writeln!(
        out,
        "    \"detected_best\": \"{}\",",
        Kernels::detect_best().label()
    );
    out.push_str("    \"pins\": {");
    for (i, (arch, tier)) in TIER_PINS.iter().enumerate() {
        let _ = write!(out, "\"{arch}\": \"{tier}\"");
        if i + 1 != TIER_PINS.len() {
            out.push_str(", ");
        }
    }
    out.push_str("},\n");
    let _ = writeln!(
        out,
        "    \"scale\": \"{}\"",
        if smoke { "smoke" } else { "full" }
    );
    out.push_str("  },\n  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(out, "\"kernel\": \"{}\", ", m.kernel);
        let _ = write!(out, "\"tier\": \"{}\", ", m.tier);
        let _ = write!(out, "\"ns_per_call\": {:.2}, ", m.ns_per_call);
        let _ = write!(out, "\"speedup_vs_scalar\": {:.3}", m.speedup_vs_scalar);
        out.push_str(if i + 1 == results.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out requires a path").clone());
    if args.iter().any(|a| a == "--kernels-info") {
        // Bare detected-best tier on stdout (CI compares it against the
        // committed pin); the full picture goes to stderr.
        eprintln!(
            "arch={} available={}",
            std::env::consts::ARCH,
            Kernels::available()
                .iter()
                .map(|t| t.label())
                .collect::<Vec<_>>()
                .join(",")
        );
        println!("{}", Kernels::detect_best().label());
        return;
    }
    if args.iter().any(|a| a == "--kernels") {
        let results = bench_kernels(smoke);
        let json = emit_kernels_json(&results, smoke);
        match out_path {
            Some(p) => {
                std::fs::write(&p, &json).expect("write bench JSON");
                eprintln!("wrote {p}");
            }
            None => print!("{json}"),
        }
        return;
    }
    let frames_per_clip = if smoke { 12 } else { 64 } + WARMUP;

    type MakeSeq = fn(u64) -> SyntheticSequence;
    let clips: [(&'static str, MakeSeq, u64); 2] = [
        ("foreman", SyntheticSequence::foreman_class, 42),
        ("akiyo", SyntheticSequence::akiyo_class, 43),
    ];

    let mut results = Vec::new();
    for (clip, make_seq, seed) in &clips {
        let mut seq = make_seq(*seed);
        let frames: Vec<Frame> = (0..frames_per_clip).map(|_| seq.next_frame()).collect();
        let mut naive_fps = 0.0;
        let mut digest0 = None;
        for v in variants() {
            let (mut m, digest) = run_variant(&v, clip, &frames);
            // Every variant must produce the identical bitstream — a
            // benchmark that silently measured a divergent encoder would
            // be meaningless.
            match digest0 {
                None => digest0 = Some(digest),
                Some(d) => assert_eq!(
                    d, digest,
                    "variant {} diverged from the naive bitstream on {clip}",
                    m.name
                ),
            }
            if v.name == "naive" {
                naive_fps = m.fps;
            }
            m.speedup_vs_naive = m.fps / naive_fps;
            eprintln!(
                "{:>20}: {:8.2} fps  {:12.0} sad_ops/frame  {:6.3} allocs/frame  {:5.2}x",
                m.name, m.fps, m.sad_ops_per_frame, m.allocs_per_frame, m.speedup_vs_naive
            );
            results.push(m);
        }
    }

    let json = emit_json(&results, frames_per_clip - WARMUP);
    match out_path {
        Some(p) => {
            std::fs::write(&p, &json).expect("write bench JSON");
            eprintln!("wrote {p}");
        }
        None => print!("{json}"),
    }
}
