//! Property tests of the λ-plane bisection and the cross-frame adapter,
//! plus bisection over the real encoder.
//!
//! The solver's contract ([`bisect_min_lambda`]): for any non-increasing
//! `eval`, it terminates within the iteration cap (and within
//! `⌈log2(hi−lo)⌉ + 2` evaluations regardless of the cap), returns
//! either the minimal feasible λ — minimal exactly, whenever the cap did
//! not close the search early — or a boundary proof that even `hi`
//! misses the budget, and is bit-deterministic: the same inputs produce
//! the same evaluation sequence and outcome every time, independent of
//! anything ambient.
//!
//! The evaluation family used by the proptests,
//! `eval(λ) = total − (λ·rate) >> 8` (saturating), covers constants
//! (`rate = 0`, the boundary regime), steep and shallow slopes, and
//! budgets on both sides of the reachable range.

use pbpair_codec::policy::NaturalPolicy;
use pbpair_codec::{
    bisect_min_lambda, BisectOutcome, Encoder, EncoderConfig, FrameLambdaAdapter, RdeConfig,
};
use pbpair_media::synth::SyntheticSequence;
use proptest::prelude::*;

/// The parametric non-increasing family the proptests drive.
fn family(total: u64, rate: u64) -> impl Fn(u32) -> u64 {
    move |l: u32| total.saturating_sub((l as u64 * rate) >> 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Termination, feasibility, minimality (when the cap allowed the
    /// bracket to close), and the boundary proof.
    #[test]
    fn bisection_terminates_and_lands_or_proves_boundary(
        total in 0u64..1_000_000_000,
        rate in 0u64..1_000_000,
        budget in 0u64..1_000_000_000,
        lo in 0u32..=1 << 30,
        span in 0u32..=1 << 30,
        cap in 0u32..=40,
    ) {
        let hi = lo + span;
        let eval = family(total, rate);
        let mut calls = 0u32;
        let out = bisect_min_lambda(lo, hi, budget, cap, |l| {
            calls += 1;
            eval(l)
        });

        // Termination: never more than the cap, never more than the
        // interval's log plus the two endpoint probes.
        let cap_eff = cap.max(2);
        prop_assert!(out.iters() <= cap_eff, "{} evals > cap {cap_eff}", out.iters());
        prop_assert_eq!(calls, out.iters(), "iters misreports the evaluation count");
        let log_bound = if span == 0 { 1 } else { 32 - span.leading_zeros() + 2 };
        prop_assert!(
            out.iters() <= log_bound,
            "{} evals > log bound {log_bound} for span {span}",
            out.iters()
        );

        match out {
            BisectOutcome::Converged { lambda, value, iters } => {
                prop_assert!((lo..=hi).contains(&lambda));
                prop_assert_eq!(value, eval(lambda));
                prop_assert!(value <= budget, "converged λ misses the budget");
                // Minimality holds exactly whenever the bracket closed
                // before the cap did.
                if iters < cap_eff && lambda > lo {
                    prop_assert!(
                        eval(lambda - 1) > budget,
                        "λ {lambda} is not minimal: λ−1 is also feasible"
                    );
                }
            }
            BisectOutcome::Boundary { lambda, value, .. } => {
                prop_assert_eq!(lambda, hi, "boundary must report the upper bound");
                prop_assert_eq!(value, eval(hi));
                prop_assert!(value > budget, "boundary proof with a feasible hi");
                prop_assert!(eval(lo) > budget, "boundary claimed but lo is feasible");
            }
        }
    }

    /// Bit determinism: a second run reproduces the outcome *and* the
    /// exact λ evaluation sequence.
    #[test]
    fn bisection_is_deterministic(
        total in 0u64..1_000_000_000,
        rate in 0u64..1_000_000,
        budget in 0u64..1_000_000_000,
        lo in 0u32..=1 << 30,
        span in 0u32..=1 << 30,
        cap in 0u32..=40,
    ) {
        let eval = family(total, rate);
        let mut seq_a = Vec::new();
        let a = bisect_min_lambda(lo, lo + span, budget, cap, |l| {
            seq_a.push(l);
            eval(l)
        });
        let mut seq_b = Vec::new();
        let b = bisect_min_lambda(lo, lo + span, budget, cap, |l| {
            seq_b.push(l);
            eval(l)
        });
        prop_assert_eq!(a, b);
        prop_assert_eq!(seq_a, seq_b);
    }

    /// The cross-frame adapter settles within `log2(hi) + 1`
    /// observations and, whenever the budget is reachable at all inside
    /// the bracket, parks on a feasible λ; an unreachable budget pins it
    /// to the top of the bracket (the boundary answer). Once settled,
    /// further observations never move it.
    #[test]
    fn adapter_settles_to_a_feasible_or_boundary_lambda(
        total in 0u64..1_000_000_000,
        rate in 0u64..1_000_000,
        budget in 0u64..1_000_000_000,
        hi_exp in 0u32..=20,
    ) {
        let hi = 1u32 << hi_exp;
        let eval = family(total, rate);
        let mut adapter = FrameLambdaAdapter::new(0, hi, budget);
        prop_assert_eq!(adapter.budget(), budget);
        for _ in 0..(hi_exp + 2) {
            let measured = eval(adapter.lambda());
            adapter.observe(measured);
        }
        prop_assert!(adapter.settled(), "bracket still open after log2(hi)+2 frames");
        let settled = adapter.observe(eval(adapter.lambda()));
        if eval(hi) <= budget {
            prop_assert!(
                eval(settled) <= budget,
                "budget reachable at hi={hi} but settled λ {settled} misses it"
            );
        } else {
            prop_assert_eq!(settled, hi, "unreachable budget must pin λ to hi");
        }
        for _ in 0..4 {
            let again = adapter.observe(eval(adapter.lambda()));
            prop_assert_eq!(again, settled, "settled adapter drifted");
        }
    }
}

/// Bisection over the *real* encoder: find the minimal λ2 whose
/// two-frame foreman encode meets an energy budget placed strictly
/// between the floor (saturated λ2) and the near-zero point. The
/// measured energy is monotone in λ2 (the metamorphic suite pins that),
/// so the solver must converge, meet the budget, and be minimal.
#[test]
fn bisection_drives_the_encoder_to_an_energy_budget() {
    let price = RdeConfig::default().price;
    let measure = |l2: u32| {
        let mut enc = Encoder::new(EncoderConfig {
            rde: Some(RdeConfig::energy_weighted(l2)),
            ..EncoderConfig::default()
        });
        let mut policy = NaturalPolicy::new();
        let mut seq = SyntheticSequence::foreman_class(2005);
        let mut bits = 0;
        for _ in 0..2 {
            bits += enc.encode_frame(&seq.next_frame(), &mut policy).stats.bits;
        }
        price.mb_energy_pj(enc.ops(), bits)
    };
    let near_zero = measure(1);
    let floor = measure(u32::MAX);
    assert!(floor < near_zero, "no energy range to bisect over");
    let budget = floor + (near_zero - floor) / 3;
    let out = bisect_min_lambda(1, u32::MAX, budget, 40, measure);
    match out {
        BisectOutcome::Converged {
            lambda,
            value,
            iters,
        } => {
            assert!(value <= budget, "converged λ2 {lambda} misses the budget");
            assert_eq!(value, measure(lambda), "reported value is not eval(λ)");
            assert!(iters <= 34, "{iters} encoder evaluations for a 32-bit span");
            assert!(
                measure(lambda - 1) > budget,
                "λ2 {lambda} is not the minimal feasible price"
            );
        }
        BisectOutcome::Boundary { .. } => {
            panic!("budget was chosen inside the reachable range; boundary is wrong")
        }
    }
}
