//! Runtime-dispatched SIMD pixel kernels.
//!
//! The four hot pixel loops of the codec — SAD ([`crate::me`]), the
//! forward DCT feeding the fused transform ([`crate::fused`]), the
//! inverse DCT ([`crate::dct`]), and motion-compensation interpolation /
//! reconstruction ([`crate::mc`], [`crate::block`]) — are exposed here as
//! a [`Kernels`] vtable: a struct of function pointers with one
//! implementation *tier* per instruction set. The scalar tier is the
//! reference implementation (it delegates to the exact scalar code the
//! rest of the crate has always run); the SSE2/AVX2 tiers (and NEON on
//! `aarch64`) are **bit-identical** replacements proven by the
//! differential proptests in `tests/kernel_equiv.rs` and the forced-tier
//! golden matrix in `crates/core/tests/golden_schemes.rs`.
//!
//! # Dispatch
//!
//! The best tier is detected once per process
//! ([`Kernels::detect_best`], via `is_x86_feature_detected!`) and cached
//! by [`Kernels::active`]. Two overrides exist:
//!
//! * the `PBPAIR_KERNELS` environment variable
//!   (`scalar|sse2|avx2|neon`) pins the process-wide active tier — CI
//!   runs the whole suite under each forced tier;
//! * [`KernelChoice`] on [`crate::OptConfig`] pins a tier per encoder
//!   (and [`crate::Decoder::set_kernels`] per decoder) without touching
//!   process state — the in-process test matrix uses this.
//!
//! # Invariants every tier must uphold
//!
//! * **Bit identity.** Every kernel returns exactly the scalar result
//!   for *every* input, including adversarial ones a corrupt bitstream
//!   can produce. Integer-range-sensitive kernels (the DCT pair) check
//!   their input range and fall back to the scalar path outside it.
//! * **Op-count invariance.** Reported operation counts are *logical*
//!   (one per absolute difference, 16 per SAD row), not lane counts, so
//!   the energy model and `sad_ops` telemetry are identical across
//!   tiers. Concretely: [`Kernels::sad16_bounded`] must evaluate and
//!   test the bound **row-granularly**, abandoning after exactly the
//!   same row the scalar kernel abandons after.
//!
//! A coarser-grained bounded SAD is still *winner-identical* for the
//! motion searches (see [`crate::me::sad_mb_bounded`]'s contract); such
//! a tier would only change op accounting, not bitstreams. The
//! [`Kernels::coarse2_for_tests`] tier exists to prove that property.

use crate::dct::{self, BLOCK_LEN, HALF, Q};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod x86;

#[cfg(target_arch = "aarch64")]
mod neon;

/// One implementation tier of the kernel vtable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelTier {
    /// The scalar reference implementation (always available).
    Scalar,
    /// SSE2: `_mm_sad_epu8` SAD, `pmaddwd` DCT pair, `pavgb`/widening
    /// half-pel, saturating-pack reconstruction (x86-64 baseline).
    Sse2,
    /// AVX2: two-row SAD, splat-multiply 8-lane i32 DCT pair.
    Avx2,
    /// NEON SAD/half-pel/reconstruction (aarch64; DCTs fall back to
    /// scalar).
    Neon,
}

impl KernelTier {
    /// Stable lower-case label (`scalar`, `sse2`, `avx2`, `neon`) —
    /// the vocabulary of `PBPAIR_KERNELS` and the bench JSON.
    pub fn label(&self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
            KernelTier::Neon => "neon",
        }
    }

    /// Parses a [`KernelTier::label`] string.
    pub fn parse(s: &str) -> Option<KernelTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelTier::Scalar),
            "sse2" => Some(KernelTier::Sse2),
            "avx2" => Some(KernelTier::Avx2),
            "neon" => Some(KernelTier::Neon),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which kernel tier an encoder (or decoder) should use — carried on
/// [`crate::OptConfig`] so the dispatch point is configuration, not
/// global state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum KernelChoice {
    /// Use the process-wide active tier ([`Kernels::active`]): the
    /// detected best, or the `PBPAIR_KERNELS` override.
    #[default]
    Auto,
    /// Force the scalar reference tier.
    Scalar,
    /// Force SSE2.
    Sse2,
    /// Force AVX2.
    Avx2,
    /// Force NEON.
    Neon,
}

impl KernelChoice {
    /// Pins a specific tier.
    pub fn forced(tier: KernelTier) -> KernelChoice {
        match tier {
            KernelTier::Scalar => KernelChoice::Scalar,
            KernelTier::Sse2 => KernelChoice::Sse2,
            KernelTier::Avx2 => KernelChoice::Avx2,
            KernelTier::Neon => KernelChoice::Neon,
        }
    }

    /// Resolves this choice to a kernel table.
    ///
    /// # Panics
    ///
    /// Panics if a forced tier is not compiled/available on this host
    /// (misconfiguration should fail loudly, exactly like a bad
    /// `PBPAIR_KERNELS` value).
    pub fn resolve(&self) -> &'static Kernels {
        let tier = match self {
            KernelChoice::Auto => return Kernels::active(),
            KernelChoice::Scalar => KernelTier::Scalar,
            KernelChoice::Sse2 => KernelTier::Sse2,
            KernelChoice::Avx2 => KernelTier::Avx2,
            KernelChoice::Neon => KernelTier::Neon,
        };
        Kernels::get(tier)
            .unwrap_or_else(|| panic!("kernel tier `{tier}` is not available on this host"))
    }
}

/// Bounded-SAD kernel signature:
/// `(a, a_stride, b, b_stride, limit) -> (acc, ops)`.
type SadBoundedFn = fn(&[u8], usize, &[u8], usize, u64) -> (u64, u64);

/// The kernel vtable: one function pointer per hot pixel loop. All
/// pointers are plain `fn` items (`Send + Sync`), so a `&'static
/// Kernels` can be shared freely across threads.
pub struct Kernels {
    tier: KernelTier,
    sad16: fn(&[u8], usize, &[u8], usize) -> u64,
    sad16_bounded: SadBoundedFn,
    fdct8: fn(&[i32; BLOCK_LEN], &mut [i32; BLOCK_LEN]),
    idct8: fn(&[i32; BLOCK_LEN], &mut [i32; BLOCK_LEN]),
    halfpel: fn(&[u8], usize, usize, usize, &mut [u8], usize),
    add_residual8: fn(&mut [u8], &[u8], &[i32]),
    store_clamped8: fn(&mut [u8], &[i32]),
}

impl std::fmt::Debug for Kernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernels").field("tier", &self.tier).finish()
    }
}

impl Kernels {
    /// Which tier this table implements.
    #[inline]
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// SAD of a 16×16 block: `a` and `b` point at the top-left sample of
    /// each block inside a row-major plane with the given strides.
    /// Always performs (and is charged as) 256 logical absolute
    /// differences.
    ///
    /// # Panics
    ///
    /// Panics if either slice is too short for 16 rows at its stride.
    #[inline]
    pub fn sad16(&self, a: &[u8], a_stride: usize, b: &[u8], b_stride: usize) -> u64 {
        assert!(a.len() >= 15 * a_stride + 16 && b.len() >= 15 * b_stride + 16);
        (self.sad16)(a, a_stride, b, b_stride)
    }

    /// Row-granular bounded SAD: accumulates 16-sample rows and abandons
    /// as soon as the partial sum reaches `limit`. Returns `(acc, ops)`
    /// where `ops` counts 16 logical absolute differences per row
    /// visited. `acc` is the exact full SAD **iff** `acc < limit`;
    /// otherwise it is only a lower bound on the true SAD (see
    /// [`crate::me::sad_mb_bounded`] for the caller contract).
    ///
    /// Every production tier abandons after exactly the same row as the
    /// scalar tier, so `(acc, ops)` — not just the winner — is
    /// tier-invariant.
    ///
    /// # Panics
    ///
    /// Panics if either slice is too short for 16 rows at its stride.
    #[inline]
    pub fn sad16_bounded(
        &self,
        a: &[u8],
        a_stride: usize,
        b: &[u8],
        b_stride: usize,
        limit: u64,
    ) -> (u64, u64) {
        assert!(a.len() >= 15 * a_stride + 16 && b.len() >= 15 * b_stride + 16);
        (self.sad16_bounded)(a, a_stride, b, b_stride, limit)
    }

    /// Forward 8×8 DCT, bit-identical to [`crate::dct::forward`] for
    /// every input (SIMD tiers range-check and fall back to the scalar
    /// transform outside their exact domain).
    #[inline]
    pub fn fdct8(&self, input: &[i32; BLOCK_LEN], output: &mut [i32; BLOCK_LEN]) {
        (self.fdct8)(input, output)
    }

    /// Inverse 8×8 DCT, bit-identical to [`crate::dct::inverse`] for
    /// every input — including the oversized coefficients a corrupt
    /// bitstream can dequantize to, which take the scalar fallback.
    #[inline]
    pub fn idct8(&self, input: &[i32; BLOCK_LEN], output: &mut [i32; BLOCK_LEN]) {
        (self.idct8)(input, output)
    }

    /// Half-pel bilinear interpolation with H.263 rounding over a
    /// `side`×`side` block: `region` is the `(side+hx)`×`(side+hy)`
    /// integer-pel source with row stride `region_w`, `(hx, hy)` is the
    /// half-pel phase (not both zero), and `out` is the `side`×`side`
    /// destination. Matches [`crate::mc::predict_luma_subpel`]'s
    /// averaging exactly.
    #[inline]
    pub fn halfpel(
        &self,
        region: &[u8],
        region_w: usize,
        hx: usize,
        hy: usize,
        out: &mut [u8],
        side: usize,
    ) {
        debug_assert!(hx | hy != 0, "integer phase is a plain copy");
        assert!(region.len() >= (side + hy - 1) * region_w + side + hx);
        assert!(out.len() >= side * side);
        (self.halfpel)(region, region_w, hx, hy, out, side)
    }

    /// Reconstruction row: `dst[i] = clamp(pred[i] + resid[i], 0, 255)`
    /// over 8 samples.
    #[inline]
    pub fn add_residual8(&self, dst: &mut [u8], pred: &[u8], resid: &[i32]) {
        assert!(dst.len() >= 8 && pred.len() >= 8 && resid.len() >= 8);
        (self.add_residual8)(dst, pred, resid)
    }

    /// Intra reconstruction row: `dst[i] = clamp(data[i], 0, 255)` over
    /// 8 samples.
    #[inline]
    pub fn store_clamped8(&self, dst: &mut [u8], data: &[i32]) {
        assert!(dst.len() >= 8 && data.len() >= 8);
        (self.store_clamped8)(dst, data)
    }

    /// The scalar reference tier (always available).
    pub fn scalar() -> &'static Kernels {
        &SCALAR
    }

    /// The table for `tier`, if compiled for this architecture *and*
    /// supported by the running CPU.
    pub fn get(tier: KernelTier) -> Option<&'static Kernels> {
        match tier {
            KernelTier::Scalar => Some(&SCALAR),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 => is_x86_feature_detected!("sse2").then_some(x86::sse2_kernels()),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => is_x86_feature_detected!("avx2").then_some(x86::avx2_kernels()),
            #[cfg(target_arch = "aarch64")]
            KernelTier::Neon => {
                std::arch::is_aarch64_feature_detected!("neon").then_some(neon::neon_kernels())
            }
            #[allow(unreachable_patterns)]
            _ => None,
        }
    }

    /// Every tier available on this host, scalar first, fastest last.
    pub fn available() -> Vec<KernelTier> {
        [
            KernelTier::Scalar,
            KernelTier::Sse2,
            KernelTier::Avx2,
            KernelTier::Neon,
        ]
        .into_iter()
        .filter(|&t| Kernels::get(t).is_some())
        .collect()
    }

    /// The fastest tier the running CPU supports.
    pub fn detect_best() -> KernelTier {
        *Kernels::available()
            .last()
            .expect("scalar always available")
    }

    /// The process-wide active table: the `PBPAIR_KERNELS` override if
    /// set, otherwise [`Kernels::detect_best`]. Resolved once and
    /// cached.
    ///
    /// # Panics
    ///
    /// Panics (on first use) if `PBPAIR_KERNELS` names an unknown or
    /// unavailable tier — a forced-dispatch CI run must fail loudly,
    /// never silently fall back.
    pub fn active() -> &'static Kernels {
        static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();
        ACTIVE.get_or_init(|| {
            let tier = match std::env::var("PBPAIR_KERNELS") {
                Ok(s) => KernelTier::parse(&s)
                    .unwrap_or_else(|| panic!("PBPAIR_KERNELS: unknown tier `{s}`")),
                Err(_) => Kernels::detect_best(),
            };
            Kernels::get(tier).unwrap_or_else(|| {
                panic!("PBPAIR_KERNELS: tier `{tier}` is not available on this host")
            })
        })
    }

    /// A deliberately coarser bounded-SAD tier for contract tests: the
    /// bound is only tested every **2** rows (ops are still charged per
    /// row). Exercises the [`crate::me::sad_mb_bounded`] caller
    /// contract — the motion searches must pick the identical winner
    /// under any bound-check granularity, because an abandoned
    /// candidate (`acc ≥ limit`) can never be adopted and a completed
    /// one (`acc < limit`) carries its exact SAD. Only op counts may
    /// differ. Not part of [`Kernels::available`].
    #[doc(hidden)]
    pub fn coarse2_for_tests() -> &'static Kernels {
        static COARSE2: Kernels = Kernels {
            tier: KernelTier::Scalar,
            sad16: sad16_scalar,
            sad16_bounded: sad16_bounded_coarse2,
            fdct8: dct::forward,
            idct8: dct::inverse,
            halfpel: halfpel_scalar,
            add_residual8: add_residual8_scalar,
            store_clamped8: store_clamped8_scalar,
        };
        &COARSE2
    }
}

static SCALAR: Kernels = Kernels {
    tier: KernelTier::Scalar,
    sad16: sad16_scalar,
    sad16_bounded: sad16_bounded_scalar,
    fdct8: dct::forward,
    idct8: dct::inverse,
    halfpel: halfpel_scalar,
    add_residual8: add_residual8_scalar,
    store_clamped8: store_clamped8_scalar,
};

// ---------------------------------------------------------------------
// Scalar tier — the bit-exact reference every SIMD tier is tested
// against. These bodies are the original hot loops of `me.rs` /
// `mc.rs` / `block.rs`, lifted verbatim behind the vtable signatures.
// ---------------------------------------------------------------------

pub(crate) fn sad16_scalar(a: &[u8], a_stride: usize, b: &[u8], b_stride: usize) -> u64 {
    let mut acc = 0u64;
    for y in 0..16 {
        let ra = &a[y * a_stride..y * a_stride + 16];
        let rb = &b[y * b_stride..y * b_stride + 16];
        for (pa, pb) in ra.iter().zip(rb) {
            acc += (*pa as i32 - *pb as i32).unsigned_abs() as u64;
        }
    }
    acc
}

pub(crate) fn sad16_bounded_scalar(
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    limit: u64,
) -> (u64, u64) {
    let mut acc = 0u64;
    let mut ops = 0u64;
    for y in 0..16 {
        let ra = &a[y * a_stride..y * a_stride + 16];
        let rb = &b[y * b_stride..y * b_stride + 16];
        for (pa, pb) in ra.iter().zip(rb) {
            acc += (*pa as i32 - *pb as i32).unsigned_abs() as u64;
        }
        ops += 16;
        if acc >= limit {
            return (acc, ops);
        }
    }
    (acc, ops)
}

/// The 2-row-granularity contract tier (see
/// [`Kernels::coarse2_for_tests`]): identical arithmetic, but the bound
/// is only consulted after odd rows.
fn sad16_bounded_coarse2(
    a: &[u8],
    a_stride: usize,
    b: &[u8],
    b_stride: usize,
    limit: u64,
) -> (u64, u64) {
    let mut acc = 0u64;
    let mut ops = 0u64;
    for y in 0..16 {
        let ra = &a[y * a_stride..y * a_stride + 16];
        let rb = &b[y * b_stride..y * b_stride + 16];
        for (pa, pb) in ra.iter().zip(rb) {
            acc += (*pa as i32 - *pb as i32).unsigned_abs() as u64;
        }
        ops += 16;
        if y % 2 == 1 && acc >= limit {
            return (acc, ops);
        }
    }
    (acc, ops)
}

pub(crate) fn halfpel_scalar(
    region: &[u8],
    rw: usize,
    hx: usize,
    hy: usize,
    out: &mut [u8],
    side: usize,
) {
    for y in 0..side {
        for x in 0..side {
            let a = region[y * rw + x] as u16;
            let v = match (hx, hy) {
                (1, 0) => (a + region[y * rw + x + 1] as u16).div_ceil(2),
                (0, 1) => (a + region[(y + 1) * rw + x] as u16).div_ceil(2),
                _ => {
                    (a + region[y * rw + x + 1] as u16
                        + region[(y + 1) * rw + x] as u16
                        + region[(y + 1) * rw + x + 1] as u16
                        + 2)
                        / 4
                }
            };
            out[y * side + x] = v as u8;
        }
    }
}

pub(crate) fn add_residual8_scalar(dst: &mut [u8], pred: &[u8], resid: &[i32]) {
    for ((d, &p), &r) in dst.iter_mut().zip(pred).zip(resid).take(8) {
        *d = (p as i32 + r).clamp(0, 255) as u8;
    }
}

pub(crate) fn store_clamped8_scalar(dst: &mut [u8], data: &[i32]) {
    for (d, &v) in dst.iter_mut().zip(data).take(8) {
        *d = v.clamp(0, 255) as u8;
    }
}

// ---------------------------------------------------------------------
// Shared DCT range-gating. A SIMD transform is exact only while its
// intermediates fit the lane widths it uses; the gates are derived from
// the actual basis table so the proof is arithmetic, not hopeful.
// ---------------------------------------------------------------------

/// Derived integer-range facts about the Q12 basis, shared by the SIMD
/// DCT implementations to compute their exact-domain gates.
pub(crate) struct DctRange {
    /// `max_k Σ_n |b[k][n]|` — the worst-case 1-D gain at Q12 scale.
    /// Read by the gate-derivation tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub row_abs_sum: i64,
    /// Largest `max|input|` for which a 16-bit-intermediate (`pmaddwd`)
    /// two-stage transform is exact: input and stage-1 output both fit
    /// `i16`, stage-2 accumulators fit `i32`.
    pub gate_i16: i32,
    /// Largest `max|input|` for which a 32-bit-lane two-stage transform
    /// is exact (both stages' accumulators fit `i32`).
    pub gate_i32: i32,
}

pub(crate) fn dct_range() -> &'static DctRange {
    static R: OnceLock<DctRange> = OnceLock::new();
    R.get_or_init(|| {
        let b = dct::basis();
        let row_abs_sum = b
            .iter()
            .map(|row| row.iter().map(|&v| (v as i64).abs()).sum::<i64>())
            .max()
            .unwrap();
        let s = row_abs_sum;
        // Stage-1 output for inputs bounded by g:
        //   tmp_max(g) = (g·s + HALF) >> Q.
        // i16 path: g ≤ i16::MAX, tmp_max ≤ i16::MAX, and the stage-2
        // pmaddwd accumulator tmp_max·s must fit i32 (it does whenever
        // tmp_max fits i16, since i16::MAX·s < 2³¹ for s < 2¹⁶).
        let gate_i16 = ((((i16::MAX as i64) << Q) - HALF) / s).min(i16::MAX as i64) as i32;
        // i32 path: stage-1 accumulator g·s and stage-2 accumulator
        // tmp_max·s must both fit i32.
        let tmp_cap = (i32::MAX as i64) / s;
        let gate_i32 = (((tmp_cap << Q) - HALF) / s).min(i32::MAX as i64) as i32;
        debug_assert!(gate_i16 >= 8192, "i16 DCT gate unexpectedly tight");
        DctRange {
            row_abs_sum,
            gate_i16,
            gate_i32,
        }
    })
}

/// Whether every sample of `block` is within `±gate` — the SIMD DCT
/// exact-domain test.
#[inline]
pub(crate) fn within_gate(block: &[i32; BLOCK_LEN], gate: i32) -> bool {
    block.iter().all(|&v| v.unsigned_abs() <= gate as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for tier in [
            KernelTier::Scalar,
            KernelTier::Sse2,
            KernelTier::Avx2,
            KernelTier::Neon,
        ] {
            assert_eq!(KernelTier::parse(tier.label()), Some(tier));
        }
        assert_eq!(KernelTier::parse("AVX2 "), Some(KernelTier::Avx2));
        assert_eq!(KernelTier::parse("mmx"), None);
    }

    #[test]
    fn scalar_is_always_available_and_first() {
        let tiers = Kernels::available();
        assert_eq!(tiers[0], KernelTier::Scalar);
        for t in tiers {
            assert!(Kernels::get(t).is_some());
            assert_eq!(Kernels::get(t).unwrap().tier(), t);
        }
    }

    #[test]
    fn forced_choice_resolves_to_its_tier() {
        for t in Kernels::available() {
            assert_eq!(KernelChoice::forced(t).resolve().tier(), t);
        }
    }

    #[test]
    fn dct_gates_cover_every_legitimate_coefficient() {
        let r = dct_range();
        // Legitimate dequantized AC magnitude caps at 31·(2·127+1) =
        // 7905 and the intra DC at 255·8 = 2040; the i16 gate must
        // clear both so real streams never hit the scalar fallback.
        assert!(r.gate_i16 >= 7905, "gate_i16 = {}", r.gate_i16);
        assert!(r.gate_i32 >= r.gate_i16);
        // And the gates really are exact domains: a value just inside
        // must satisfy the stage bounds used in their derivation.
        let tmp_max = ((r.gate_i16 as i64 * r.row_abs_sum) + HALF) >> Q;
        assert!(tmp_max <= i16::MAX as i64);
        assert!(tmp_max * r.row_abs_sum <= i32::MAX as i64);
    }

    /// Fast-failing differential smoke over every compiled tier; the
    /// full property-based matrix lives in `tests/kernel_equiv.rs`.
    #[test]
    fn simd_tiers_match_scalar_on_smoke_inputs() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let scalar = Kernels::scalar();
        let stride = 23usize;
        let pa: Vec<u8> = (0..16 * stride).map(|_| rng() as u8).collect();
        let pb: Vec<u8> = (0..16 * stride).map(|_| rng() as u8).collect();
        for tier in Kernels::available() {
            let k = Kernels::get(tier).unwrap();
            assert_eq!(
                k.sad16(&pa, stride, &pb, stride),
                scalar.sad16(&pa, stride, &pb, stride),
                "{tier} sad16"
            );
            let full = scalar.sad16(&pa, stride, &pb, stride);
            for limit in [0, 1, full / 2, full, full + 1, u64::MAX] {
                assert_eq!(
                    k.sad16_bounded(&pa, stride, &pb, stride, limit),
                    scalar.sad16_bounded(&pa, stride, &pb, stride, limit),
                    "{tier} sad16_bounded limit={limit}"
                );
            }
            for round in 0..50 {
                // In-gate pixel/residual-range blocks plus out-of-gate
                // extremes that must hit the scalar fallback.
                let amp: i32 = if round % 5 == 4 { 3_000_000 } else { 255 };
                let blk: [i32; BLOCK_LEN] =
                    std::array::from_fn(|_| (rng() % (2 * amp as u32 + 1)) as i32 - amp);
                let mut want = [0i32; BLOCK_LEN];
                let mut got = [0i32; BLOCK_LEN];
                scalar.fdct8(&blk, &mut want);
                k.fdct8(&blk, &mut got);
                assert_eq!(got, want, "{tier} fdct8 round {round}");
                scalar.idct8(&blk, &mut want);
                k.idct8(&blk, &mut got);
                assert_eq!(got, want, "{tier} idct8 round {round}");
            }
            for side in [8usize, 16] {
                for (hx, hy) in [(1, 0), (0, 1), (1, 1)] {
                    let rw = side + hx;
                    let rh = side + hy;
                    let region: Vec<u8> = (0..rw * rh).map(|_| rng() as u8).collect();
                    let mut want = vec![0u8; side * side];
                    let mut got = vec![0u8; side * side];
                    scalar.halfpel(&region, rw, hx, hy, &mut want, side);
                    k.halfpel(&region, rw, hx, hy, &mut got, side);
                    assert_eq!(got, want, "{tier} halfpel side={side} ({hx},{hy})");
                }
            }
            for _ in 0..50 {
                let pred: [u8; 8] = std::array::from_fn(|_| rng() as u8);
                let resid: [i32; 8] =
                    std::array::from_fn(|_| (rng() % 20_000_001) as i32 - 10_000_000);
                let mut want = [0u8; 8];
                let mut got = [0u8; 8];
                scalar.add_residual8(&mut want, &pred, &resid);
                k.add_residual8(&mut got, &pred, &resid);
                assert_eq!(got, want, "{tier} add_residual8");
                scalar.store_clamped8(&mut want, &resid);
                k.store_clamped8(&mut got, &resid);
                assert_eq!(got, want, "{tier} store_clamped8");
            }
        }
    }

    #[test]
    fn bounded_scalar_matches_unbounded_under_max_limit() {
        let a: Vec<u8> = (0..16 * 20).map(|i| (i * 7 % 251) as u8).collect();
        let b: Vec<u8> = (0..16 * 20).map(|i| (i * 13 % 239) as u8).collect();
        let full = sad16_scalar(&a, 20, &b, 20);
        let (acc, ops) = sad16_bounded_scalar(&a, 20, &b, 20, u64::MAX);
        assert_eq!(acc, full);
        assert_eq!(ops, 256);
        // Coarse tier: same totals when never abandoned.
        let (acc2, ops2) = super::sad16_bounded_coarse2(&a, 20, &b, 20, u64::MAX);
        assert_eq!((acc2, ops2), (acc, ops));
    }
}
