//! Property-based tests: a zero-guess smoothing round is the general
//! round from an explicit zero vector, bit for bit.

use distmat::{ParCsr, ParVector, RowDist};
use krylov::{Preconditioner, Sgs2, TwoStageGs};
use parcomm::Comm;
use proptest::prelude::*;
use sparse_kit::Coo;

/// Right-hand-side entries that would expose a shortcut which is not
/// exactly `b − (+0.0)`: signed zeros, negatives, subnormals.
fn rhs_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -4.0f64..4.0,
        2 => Just(-0.0),
        1 => Just(0.0),
        2 => (1u64..1 << 52).prop_map(f64::from_bits),
        1 => (1u64..1 << 52).prop_map(|m| -f64::from_bits(m)),
    ]
}

/// Finite off-diagonal coefficients of both signs, including a stored −0.0.
fn coefficient() -> impl Strategy<Value = f64> {
    prop_oneof![
        6 => (-4.0f64..4.0).prop_map(|v| (v * 8.0).round() / 8.0),
        1 => Just(-0.0),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Preconditioner::apply` (which creates the zero iterate and so runs
    /// its first round as a zero-guess round) against the general
    /// `smooth` on an explicit `ParVector::zeros`, for both two-stage
    /// smoothers at 1–3 ranks.
    #[test]
    fn zero_guess_round_equals_general_round_from_zeros_bitwise(
        (n, offdiag, rhs) in (4u64..20).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec((0..n, 0..n, coefficient()), 0..90),
            proptest::collection::vec(rhs_value(), n as usize),
        ))
    ) {
        for p in 1..=3usize {
            let (offdiag, rhs) = (offdiag.clone(), rhs.clone());
            Comm::run(p, move |rank| {
                let me = rank.rank();
                let dist = RowDist::block(n, p);
                let mut coo = Coo::new();
                for g in dist.start(me)..dist.end(me) {
                    coo.push(g, g, if g % 3 == 0 { 3.0 } else { 5.0 });
                }
                for &(r, c, v) in &offdiag {
                    if r != c && dist.owner(r) == me {
                        coo.push(r, c, v);
                    }
                }
                let a = ParCsr::from_global_coo(rank, dist.clone(), dist.clone(), &coo);
                let b = ParVector::from_fn(rank, dist.clone(), |g| rhs[g as usize]);
                let zeros = || ParVector::zeros(rank, dist.clone());

                for inner in 0..=2 {
                    for outer in 1..=2 {
                        let ts = TwoStageGs::new(&a, inner, outer);
                        let mut x = zeros();
                        ts.smooth(rank, &b, &mut x, outer);
                        assert_eq!(bits(&ts.apply(rank, &b).local), bits(&x.local), "ts {inner}/{outer}");

                        let sgs = Sgs2::with_sweeps(&a, inner, outer);
                        let mut x = zeros();
                        sgs.smooth(rank, &b, &mut x, outer);
                        assert_eq!(bits(&sgs.apply(rank, &b).local), bits(&x.local), "sgs2 {inner}/{outer}");
                    }
                }
            });
        }
    }
}
