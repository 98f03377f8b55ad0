//! Property-based tests: a zero-guess smoothing round is the general
//! round from an explicit zero vector, and a smoother's reused buffers
//! carry nothing from one application to the next — bit for bit.

use distmat::{ParCsr, ParVector, RowDist};
use krylov::{Preconditioner, Sgs2, TwoStageGs};
use parcomm::{Comm, Rank};
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

/// Global sizes for the buffer-reuse test. In release (`ci.sh`) they
/// straddle 1 024, 4 096 and 16 384, so one rank's rows reach the
/// parallel row kernels and BLAS-1 paths; debug runs stay below 4 096.
fn global_size() -> impl Strategy<Value = u64> {
    if cfg!(debug_assertions) {
        prop_oneof![1 => 4u64..64, 1 => 1000u64..1100, 1 => 2040u64..2100]
    } else {
        prop_oneof![1 => 1000u64..1100, 1 => 4060u64..4140, 1 => 16350u64..16450]
    }
}

/// Deterministic value in [-1, 1) from `(seed, i)` (splitmix64); every
/// seventh one is −0.0.
fn unit(seed: u64, i: u64) -> f64 {
    if i % 7 == 3 {
        return -0.0;
    }
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A diagonally dominant banded operator over `n` rows with seeded
/// couplings at distances 1 and 37 (both triangles, across rank
/// boundaries).
fn banded(rank: &Rank, n: u64, seed: u64) -> ParCsr {
    let dist = RowDist::block(n, rank.size());
    let me = rank.rank();
    let mut coo = Coo::new();
    for g in dist.start(me)..dist.end(me) {
        coo.push(g, g, 6.0);
        for (k, d) in [1u64, 37].into_iter().enumerate() {
            let v = unit(seed, 4 * g + k as u64);
            if g >= d {
                coo.push(g, g - d, v);
            }
            if g + d < n {
                coo.push(g, g + d, -v);
            }
        }
    }
    ParCsr::from_global_coo(rank, dist.clone(), dist, &coo)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `smooth_from(.., zero_guess = true)` on `ParVector::zeros` (what
    /// `Sgs2::apply` and an AMG level do) against the general `smooth`
    /// on an explicit `ParVector::zeros`, for both two-stage smoothers at
    /// 1–3 ranks.
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
                        let ts = TwoStageGs::new(&a, inner);
                        let (mut x, mut x0) = (zeros(), zeros());
                        ts.smooth(rank, &a, &b, &mut x, outer);
                        ts.smooth_from(rank, &a, &b, &mut x0, outer, true);
                        assert_eq!(bits(&x0.local), bits(&x.local), "ts {inner}/{outer}");

                        let sgs = Sgs2::with_sweeps(&a, inner, outer);
                        let mut x = zeros();
                        sgs.smooth(rank, &b, &mut x, outer);
                        assert_eq!(bits(&sgs.apply(rank, &b).local), bits(&x.local), "sgs2 {inner}/{outer}");
                    }
                }
            });
        }
    }

    /// One `Sgs2` applied to two different right-hand sides in a row —
    /// and then smoothing a caller's iterate — equals fresh instances,
    /// bit for bit: nothing one call leaves in the smoother's buffers
    /// reaches the next. At 1 and 2 ranks, with and without JR sweeps.
    #[test]
    fn reused_sgs2_equals_fresh_instances_bitwise(
        (n, seed) in (global_size(), 0u64..1 << 20)
    ) {
        for p in 1..=2usize {
            Comm::run(p, move |rank| {
                let a = banded(rank, n, seed);
                let dist = a.row_dist().clone();
                let b1 = ParVector::from_fn(rank, dist.clone(), |g| unit(seed ^ 0xB1, g));
                let b2 = ParVector::from_fn(rank, dist.clone(), |g| unit(seed ^ 0xB2, g));
                for (inner, outer) in [(0, 1), (2, 2)] {
                    let fresh = || Sgs2::with_sweeps(&a, inner, outer);
                    let sgs = fresh();
                    let z1 = sgs.apply(rank, &b1);
                    let z2 = sgs.apply(rank, &b2);
                    let fresh_z1 = fresh().apply(rank, &b1);
                    let fresh_z2 = fresh().apply(rank, &b2);
                    assert_eq!(bits(&z1.local), bits(&fresh_z1.local), "n={n} p={p}");
                    assert_eq!(bits(&z2.local), bits(&fresh_z2.local), "n={n} p={p}");
                    let (mut x, mut x_fresh) = (z1.clone(), z1);
                    sgs.smooth(rank, &b2, &mut x, outer);
                    fresh().smooth(rank, &b2, &mut x_fresh, outer);
                    assert_eq!(bits(&x.local), bits(&x_fresh.local), "n={n} p={p} smooth");
                }
            });
        }
    }
}
