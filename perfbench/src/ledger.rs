//! The benchmark's own instrumentation: spans recorded around calls into
//! each layer's public entry points, a timing adaptor for the refresh
//! policy, panic containment for layer calls, and the small statistics
//! and digest helpers the workloads share. Nothing here lives in the
//! program: every span is taken from outside.

use pbpair_codec::mb::{FrameStats, MotionVector};
use pbpair_codec::me::MeResult;
use pbpair_codec::policy::{
    FrameContext, FrameKind, FrozenMeBias, MbContext, MbOutcome, PostMeDecision, PreMeDecision,
    RefreshPolicy,
};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A layer boundary the benchmark records spans at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `SyntheticSequence::next_frame`.
    Synth,
    /// `QualityStats::record`.
    Metrics,
    /// Every `RefreshPolicy` hook (a child of `Encode`).
    Policy,
    /// `Encoder::encode_frame` (total; self time subtracts `Policy`).
    Encode,
    /// `Decoder::decode_frame_resilient`.
    Decode,
    /// `Decoder::conceal_lost_frame`.
    Conceal,
    /// `Packetizer::packetize`.
    Packetize,
    /// `CorruptingChannel::transmit_packets`.
    Channel,
    /// `reassemble_frame` / `reassemble_frame_damaged`.
    Reassemble,
    /// `FecProtector::recover`.
    FecRecover,
    /// `EnergyModel::breakdown`.
    Energy,
}

const LAYERS: usize = 11;

/// Per-layer span totals of one traced phase. Disabled ledgers call
/// straight through without reading the clock.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    enabled: bool,
    ns: [u64; LAYERS],
}

impl Ledger {
    /// A ledger that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Ledger {
            enabled,
            ns: [0; LAYERS],
        }
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.add(layer, t.elapsed().as_nanos() as u64);
        out
    }

    /// Adds `ns` to `layer`'s total.
    pub fn add(&mut self, layer: Layer, ns: u64) {
        self.ns[layer as usize] += ns;
    }

    /// Total span time of `layer`, nanoseconds.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    /// Sum of every top-level span (policy spans nest inside encode).
    pub fn top_level_ns(&self) -> u64 {
        self.ns.iter().sum::<u64>() - self.ns(Layer::Policy)
    }

    /// Adds another ledger's totals into this one.
    pub fn absorb(&mut self, other: &Ledger) {
        for (a, b) in self.ns.iter_mut().zip(other.ns) {
            *a += b;
        }
    }
}

/// Forwards every [`RefreshPolicy`] hook to `inner`, timing each one;
/// `me_bias` runs per motion-search candidate, so it is only counted.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn RefreshPolicy,
    /// Nanoseconds spent inside timed hooks.
    pub ns: u64,
    /// `me_bias` invocations.
    pub me_bias_calls: u64,
}

impl<'a> TimedPolicy<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn RefreshPolicy) -> Self {
        TimedPolicy {
            inner,
            ns: 0,
            me_bias_calls: 0,
        }
    }

    /// The wrapped policy, for untimed calls.
    pub fn inner(&mut self) -> &mut dyn RefreshPolicy {
        &mut *self.inner
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut dyn RefreshPolicy) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut *self.inner);
        self.ns += t.elapsed().as_nanos() as u64;
        out
    }
}

impl RefreshPolicy for TimedPolicy<'_> {
    fn begin_frame(&mut self, ctx: &FrameContext) -> FrameKind {
        self.timed(|p| p.begin_frame(ctx))
    }

    fn pre_me_mode(&mut self, ctx: &MbContext<'_>) -> PreMeDecision {
        self.timed(|p| p.pre_me_mode(ctx))
    }

    fn me_bias(&mut self, ctx: &MbContext<'_>, mv: MotionVector) -> i64 {
        self.me_bias_calls += 1;
        self.inner.me_bias(ctx, mv)
    }

    fn post_me_mode(&mut self, ctx: &MbContext<'_>, me: &MeResult) -> PostMeDecision {
        self.timed(|p| p.post_me_mode(ctx, me))
    }

    fn frame_frozen_bias(&self, ctx: &FrameContext) -> Option<FrozenMeBias> {
        self.inner.frame_frozen_bias(ctx)
    }

    fn mb_coded(&mut self, ctx: &FrameContext, outcome: &MbOutcome) {
        self.timed(|p| p.mb_coded(ctx, outcome))
    }

    fn end_frame(&mut self, ctx: &FrameContext, stats: &FrameStats) {
        self.timed(|p| p.end_frame(ctx, stats))
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

thread_local! {
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Installs a panic hook that stays silent inside [`Guard::call`] and
/// prints as usual everywhere else.
pub fn install_quiet_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !QUIET.with(Cell::get) {
            default(info);
        }
    }));
}

/// Contains panics of layer calls: a panicking call is counted under
/// its site and message, and the frame it belonged to counts as failed.
#[derive(Debug, Default)]
pub struct Guard {
    /// `"<site>: <message>"` → panics caught.
    pub panics: BTreeMap<String, u64>,
}

impl Guard {
    /// Runs `f`; `None` when it panicked.
    pub fn call<T>(&mut self, site: &str, f: impl FnOnce() -> T) -> Option<T> {
        QUIET.with(|q| q.set(true));
        let out = catch_unwind(AssertUnwindSafe(f));
        QUIET.with(|q| q.set(false));
        match out {
            Ok(v) => Some(v),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".to_string());
                *self.panics.entry(format!("{site}: {msg}")).or_default() += 1;
                None
            }
        }
    }

    /// Panics caught at every site.
    pub fn total(&self) -> u64 {
        self.panics.values().sum()
    }

    /// Panics caught at `site`.
    pub fn count(&self, site: &str) -> u64 {
        self.panics
            .iter()
            .filter(|(k, _)| k.starts_with(site))
            .map(|(_, v)| v)
            .sum()
    }
}

/// FNV-1a over 64-bit little-endian words (the tail zero-padded), then
/// the length: cheap enough to digest every displayed picture.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().expect("chunk of eight"));
        h = h.wrapping_mul(PRIME);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h ^= u64::from_le_bytes(tail);
    h = h.wrapping_mul(PRIME);
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

/// The FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: derives decorrelated sub-seeds from the workload seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Median of `v` (the mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v`, `q` in `[0, 1]`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}
