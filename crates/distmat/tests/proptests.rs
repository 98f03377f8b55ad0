//! Property-based tests: distributed operations must agree with their
//! serial references for arbitrary matrices, distributions, and rank
//! counts.

use distmat::{AssemblyPlan, Halo, IjMatrix, IjVector, ParCsr, ParVector, RowDist, VectorPlan};
use std::collections::BTreeMap;
use parcomm::Comm;
use proptest::prelude::*;
use sparse_kit::{Coo, Csr};

/// Strategy: a random sparse square matrix of size n with ~30% fill and a
/// guaranteed nonzero diagonal.
fn sparse_square(n: usize) -> impl Strategy<Value = Csr> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![
                7 => Just(0.0),
                3 => (-4.0f64..4.0).prop_map(|v| (v * 4.0).round() / 4.0),
            ],
            n,
        ),
        n,
    )
    .prop_map(move |mut dense| {
        for (i, row) in dense.iter_mut().enumerate() {
            row[i] = 5.0; // nonzero diagonal
        }
        Csr::from_dense(&dense)
    })
}

/// Values that stress every bit a replay must preserve: signed zeros,
/// arbitrary bit patterns (NaN payloads, infinities, subnormals) and
/// ordinary coefficients whose sums round.
fn tricky_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -4.0f64..4.0,
        1 => Just(-0.0),
        1 => Just(0.0),
        1 => proptest::num::u64::ANY.prop_map(f64::from_bits),
        1 => (1u64..1 << 51).prop_map(|payload| f64::from_bits(0x7ff8_0000_0000_0000 | payload)),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Equal bit for bit, except that a NaN matches any NaN. An entry
/// several ranks contribute to is a sum, and IEEE 754 leaves which
/// operand's payload (and sign) `NaN + NaN` propagates unspecified — the
/// optimiser may commute the add, so a fresh assembly and a plan replay
/// legitimately differ there in release builds. Everything that is not
/// a NaN on both sides (−0.0 vs 0.0, a NaN against a number, one ULP)
/// still has to match exactly.
fn same_bits_or_both_nan(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// [`ParCsr::bitwise_eq`] with value NaNs compared by class: the
/// distributions, both blocks' structure and `col_map_offd` exactly.
fn same_matrix(a: &ParCsr, b: &ParCsr) -> bool {
    let same_block = |x: &Csr, y: &Csr| {
        x.ncols() == y.ncols()
            && x.indptr() == y.indptr()
            && x.indices() == y.indices()
            && same_bits_or_both_nan(x.vals(), y.vals())
    };
    a.row_dist() == b.row_dist()
        && a.col_dist() == b.col_dist()
        && a.col_map_offd() == b.col_map_offd()
        && same_block(&a.diag, &b.diag)
        && same_block(&a.offd, &b.offd)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A recorded plan replays Algorithm 1 / Algorithm 2 bit for bit:
    /// structure, `col_map_offd`, halo package and value bits of the
    /// matrix against `IjMatrix::try_assemble`, the local values of the
    /// vector against `IjVector::assemble`, for two sets of values on
    /// one plan, at 1/2/3/4 ranks. Every case plants an entry all ranks
    /// contribute to (carrying a NaN payload in the second round), and a
    /// −0.0 entry and a −0.0 vector add that only the last rank
    /// contributes, to rank 0.
    #[test]
    fn plan_replay_equals_fresh_assembly_bitwise(
        (n, entries, adds, pool) in (4u64..16).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec((0..n, 0..n, 0usize..4), 0..80),
            proptest::collection::vec((0..n, 0usize..4), 0..60),
            proptest::collection::vec(tricky_f64(), 97),
        ))
    ) {
        for p in 1..=4usize {
            let (entries, adds, pool) = (entries.clone(), adds.clone(), pool.clone());
            Comm::run(p, move |rank| {
                let me = rank.rank();
                let dist = RowDist::block(n, p);
                let value = |k: usize, round: usize| pool[(k + 31 * me + 7 * round) % pool.len()];
                let nan = f64::from_bits(0x7ff8_0000_0000_beef);

                // This rank's pattern (sorted, duplicate-free) with the
                // index of the value each entry draws from the pool.
                let mut pattern: BTreeMap<(u64, u64), usize> = entries
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.2 % p == me)
                    .map(|(k, e)| ((e.0, e.1), k))
                    .collect();
                pattern.insert((0, 0), 1000);
                if me == p - 1 {
                    pattern.insert((0, n - 1), 1001);
                }
                let (owned, shared): (Vec<_>, Vec<_>) =
                    pattern.keys().copied().partition(|&(r, _)| dist.owner(r) == me);
                let plan = AssemblyPlan::build(rank, dist.clone(), dist.clone(), &owned, &shared);

                let my_adds: Vec<(u64, usize)> = adds
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.1 % p == me)
                    .map(|(k, a)| (a.0, k))
                    .chain((me == p - 1).then_some((0, 1001)))
                    .collect();
                let mut vplan: Option<VectorPlan> = None;

                for round in 0..2 {
                    let val_of = |key: (u64, u64)| match pattern[&key] {
                        1000 if me == 1 && round == 1 => nan,
                        1001 => -0.0,
                        k => value(k, round),
                    };
                    let mut ij = IjMatrix::new(rank, dist.clone(), dist.clone());
                    for &key in pattern.keys() {
                        ij.add_value(key.0, key.1, val_of(key));
                    }
                    let fresh = ij.try_assemble(rank).expect("Algorithm 1 assembles");
                    let owned_vals: Vec<f64> = owned.iter().map(|&k| val_of(k)).collect();
                    let shared_vals: Vec<f64> = shared.iter().map(|&k| val_of(k)).collect();
                    let replayed =
                        plan.try_assemble(rank, &owned_vals, &shared_vals).expect("plan replays");
                    assert!(same_matrix(&replayed, &fresh), "p={p} round {round}: matrix differs");
                    assert_eq!(replayed.comm_pkg(), fresh.comm_pkg(), "p={p}: halo package");
                    // The replayed matrix is usable: its halo exchange
                    // and SpMV agree with the fresh one's.
                    let x = ParVector::from_fn(rank, dist.clone(), |g| 1.0 + g as f64);
                    assert!(
                        same_bits_or_both_nan(
                            &replayed.spmv(rank, &x).local,
                            &fresh.spmv(rank, &x).local
                        ),
                        "p={p} round {round}: SpMV differs"
                    );

                    let mut v = IjVector::new(rank, dist.clone());
                    for &(gi, k) in &my_adds {
                        v.add_value(gi, if k == 1001 { -0.0 } else { value(k, round) });
                    }
                    let fresh = v.clone().assemble(rank);
                    let vplan = vplan.get_or_insert_with(|| VectorPlan::build(rank, &v));
                    let replayed = v.try_assemble_planned(rank, vplan).expect("plan replays");
                    assert!(
                        same_bits_or_both_nan(&replayed.local, &fresh.local),
                        "p={p} round {round}: vector differs"
                    );
                }
            });
        }
    }

    /// The split-phase kernels move only the receive: `spmv_into` and the
    /// residual equal, bit for bit, a blocking exchange followed by the
    /// diag pass, the offd pass (skipped when the block stores nothing,
    /// as the kernels skip it) and `b − s` — at 1/2/3 ranks, for square
    /// and rectangular (P/R-shaped) operators, with and without an offd
    /// block.
    #[test]
    fn overlapped_spmv_and_residual_equal_blocking_reference_bitwise(
        (nr, nc, entries, pool) in (3u64..14, 3u64..14).prop_flat_map(|(nr, nc)| (
            Just(nr),
            Just(nc),
            proptest::collection::vec((0..nr, 0..nr.max(nc), tricky_f64()), 0..120),
            proptest::collection::vec(tricky_f64(), 61),
        ))
    ) {
        for p in 1..=3usize {
            for (square, with_offd) in
                [(true, true), (false, true), (true, false), (false, false)]
            {
                let (entries, pool) = (entries.clone(), pool.clone());
                Comm::run(p, move |rank| {
                    let me = rank.rank();
                    let ncols = if square { nr } else { nc };
                    let row_dist = RowDist::block(nr, p);
                    let col_dist = RowDist::block(ncols, p);
                    let mut coo = Coo::new();
                    for &(r, c, v) in &entries {
                        let c = c % ncols;
                        let local = col_dist.owner(c) == me;
                        if row_dist.owner(r) == me && (with_offd || local) {
                            coo.push(r, c, v);
                        }
                    }
                    coo.sort_and_combine();
                    let a = ParCsr::from_global_coo(rank, row_dist.clone(), col_dist.clone(), &coo);
                    if !with_offd {
                        assert_eq!(a.offd.nnz(), 0);
                    }
                    let x = ParVector::from_fn(rank, col_dist, |g| pool[g as usize % pool.len()]);
                    let b = ParVector::from_fn(rank, row_dist.clone(), |g| {
                        pool[(g as usize * 7 + 3) % pool.len()]
                    });

                    let ext = a.try_halo_exchange(rank, &x.local).expect("clean exchange");
                    let mut s = vec![f64::INFINITY; a.local_rows()];
                    a.diag.spmv_into(&x.local, &mut s);
                    if a.offd.nnz() > 0 {
                        a.offd.spmv_add_into(&ext, &mut s);
                    }
                    let r_ref: Vec<f64> = b.local.iter().zip(&s).map(|(bi, si)| bi - si).collect();

                    let mut y = ParVector::from_fn(rank, row_dist, |_| f64::NEG_INFINITY);
                    a.spmv_into(rank, &x, &mut y);
                    assert_eq!(bits(&y.local), bits(&s), "p={p} square={square} spmv");
                    let r = a.residual(rank, &b, &x);
                    assert_eq!(bits(&r.local), bits(&r_ref), "p={p} square={square} residual");
                });
            }
        }
    }

    /// The one neighbour exchange moves values bit for bit: `f64` values
    /// (−0.0, subnormals, NaN payloads, arbitrary bits) and `u64` values
    /// arrive exactly, over random sorted external column maps — rank
    /// 0's always empty — at 1–4 ranks, and `begin_values`, local work
    /// that overwrites the sent buffer, then `finish_values` receives what
    /// the two back to back do.
    #[test]
    fn exchange_delivers_values_bitwise(
        (n, picks, pool) in (4u64..24).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec(proptest::collection::vec(0..n, 0..8), 4),
            proptest::collection::vec(tricky_f64(), 29),
        ))
    ) {
        for p in 1..=4usize {
            let (picks, pool) = (picks.clone(), pool.clone());
            Comm::run(p, move |rank| {
                let me = rank.rank();
                let dist = RowDist::block(n, p);
                let own = dist.start(me)..dist.end(me);
                let mut col_map: Vec<u64> =
                    picks[me].iter().copied().filter(|g| me > 0 && !own.contains(g)).collect();
                col_map.sort_unstable();
                col_map.dedup();
                let halo = Halo::new(rank, &dist, col_map.clone());
                let f = |g: u64| match g % 4 {
                    0 => -0.0,
                    1 => f64::from_bits(g + 1),
                    2 => f64::from_bits(0x7ff8_0000_0000_0000 | (g + 1)),
                    _ => pool[g as usize % pool.len()],
                };
                let u = |g: u64| g.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut local: Vec<f64> = own.clone().map(f).collect();
                let want: Vec<f64> = col_map.iter().map(|&g| f(g)).collect();
                assert_eq!(bits(&halo.try_exchange(rank, &local).unwrap()), bits(&want), "p={p}: f64");
                let local_u: Vec<u64> = own.clone().map(u).collect();
                let want_u: Vec<u64> = col_map.iter().map(|&g| u(g)).collect();
                assert_eq!(halo.try_exchange(rank, &local_u).unwrap(), want_u, "p={p}: u64");

                let (pkg, tag) = (halo.comm_pkg(), rank.alloc_tag());
                let mut back_to_back = Vec::new();
                pkg.begin_values(rank, tag, &local);
                pkg.finish_values(rank, tag, &mut back_to_back, |src, _, _| panic!("from {src}")).unwrap();
                let mut overlapped = vec![f64::NEG_INFINITY];
                pkg.begin_values(rank, tag, &local);
                local.iter_mut().for_each(|v| *v = v.mul_add(2.0, 1.0));
                pkg.finish_values(rank, tag, &mut overlapped, |src, _, _| panic!("from {src}")).unwrap();
                assert_eq!(overlapped.remove(0), f64::NEG_INFINITY, "p={p}: appends");
                assert_eq!(bits(&overlapped), bits(&back_to_back), "p={p}: split phase");
                assert_eq!(bits(&back_to_back), bits(&want), "p={p}: split phase");
            });
        }
    }

    #[test]
    fn distributed_spmv_matches_serial(
        (a, x, p) in (3usize..14).prop_flat_map(|n| (
            sparse_square(n),
            proptest::collection::vec(-2.0f64..2.0, n),
            1usize..4,
        ))
    ) {
        let n = a.nrows();
        let expected = a.spmv(&x);
        let x2 = x.clone();
        let out = Comm::run(p, move |rank| {
            let dist = RowDist::block(n as u64, rank.size());
            let pa = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &a);
            let px = ParVector::from_fn(rank, dist, |g| x2[g as usize]);
            pa.spmv(rank, &px).to_serial(rank)
        });
        for (got, want) in out[0].iter().zip(&expected) {
            prop_assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn ij_assembly_matches_serial_reference(
        (entries, p, n) in (4u64..16, 1usize..4).prop_flat_map(|(n, p)| (
            proptest::collection::vec((0..n, 0..n, -3.0f64..3.0, 0..p), 0..80),
            Just(p),
            Just(n),
        ))
    ) {
        // Each entry is contributed by one specific rank — scattering the
        // same global matrix across contributors arbitrarily.
        let entries2 = entries.clone();
        let out = Comm::run(p, move |rank| {
            let dist = RowDist::block(n, rank.size());
            let mut ij = IjMatrix::new(rank, dist.clone(), dist);
            for &(i, j, v, owner) in &entries2 {
                if owner == rank.rank() {
                    ij.add_value(i, j, v);
                }
            }
            ij.try_assemble(rank).unwrap().to_serial(rank)
        });
        let mut coo = Coo::new();
        for &(i, j, v, _) in &entries {
            coo.push(i, j, v);
        }
        let expected = Csr::from_coo(n as usize, n as usize, &coo);
        for i in 0..n as usize {
            for j in 0..n as usize {
                prop_assert!((out[0].get(i, j) - expected.get(i, j)).abs() < 1e-10,
                    "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn ij_vector_assembly_matches_reference(
        (adds, p, n) in (4u64..16, 1usize..4).prop_flat_map(|(n, p)| (
            proptest::collection::vec((0..n, -3.0f64..3.0, 0..p), 0..60),
            Just(p),
            Just(n),
        ))
    ) {
        let adds2 = adds.clone();
        let out = Comm::run(p, move |rank| {
            let dist = RowDist::block(n, rank.size());
            let mut ij = IjVector::new(rank, dist);
            for &(i, v, owner) in &adds2 {
                if owner == rank.rank() {
                    ij.add_value(i, v);
                }
            }
            ij.assemble(rank).to_serial(rank)
        });
        let mut expected = vec![0.0; n as usize];
        for &(i, v, _) in &adds {
            expected[i as usize] += v;
        }
        for (got, want) in out[0].iter().zip(&expected) {
            prop_assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn distributed_transpose_and_rap_match_serial(
        (a, p) in (4usize..10).prop_flat_map(|n| (sparse_square(n), 1usize..4))
    ) {
        let n = a.nrows();
        // Interpolation: aggregate pairs of rows.
        let nc = n.div_ceil(2);
        let mut pcoo = Coo::new();
        for i in 0..n as u64 {
            pcoo.push(i, (i / 2).min(nc as u64 - 1), 1.0);
        }
        let p_serial = Csr::from_coo(n, nc, &pcoo);
        let expected_t = p_serial.transpose();
        let expected_rap = sparse_kit::rap::galerkin(&a, &p_serial);

        let (p_ref, a_ref) = (p_serial.clone(), a.clone());
        let out = Comm::run(p, move |rank| {
            let rd = RowDist::block(n as u64, rank.size());
            let cd = RowDist::block(nc as u64, rank.size());
            let pa = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &a_ref);
            let pp = ParCsr::from_serial(rank, rd, cd, &p_ref);
            let pt = distmat::ops::par_transpose(rank, &pp).unwrap();
            let rap = distmat::ops::par_spgemm(rank, &pt, &distmat::ops::par_spgemm(rank, &pa, &pp));
            (pt.to_serial(rank), rap.to_serial(rank))
        });
        let (t, rap) = &out[0];
        for i in 0..expected_t.nrows() {
            for j in 0..expected_t.ncols() {
                prop_assert!((t.get(i, j) - expected_t.get(i, j)).abs() < 1e-10);
            }
        }
        for i in 0..nc {
            for j in 0..nc {
                prop_assert!((rap.get(i, j) - expected_rap.get(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn halo_exchange_delivers_exactly_owned_values(
        (a, p) in (4usize..12).prop_flat_map(|n| (sparse_square(n), 2usize..4))
    ) {
        let n = a.nrows();
        Comm::run(p, move |rank| {
            let dist = RowDist::block(n as u64, rank.size());
            let pa = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &a);
            let x: Vec<f64> = (dist.start(rank.rank())..dist.end(rank.rank()))
                .map(|g| g as f64 * 10.0)
                .collect();
            let ext = pa.halo_exchange(rank, &x);
            // Every external value equals 10× its global id.
            for (k, &g) in pa.col_map_offd().iter().enumerate() {
                assert_eq!(ext[k], g as f64 * 10.0);
            }
        });
    }

    /// `ParCsr::bitwise_eq` must see every difference in what is stored
    /// (and only on the rank that stores it), including the ones `==`
    /// on `f64` cannot: −0.0 vs 0.0 and NaN payloads.
    #[test]
    fn bitwise_eq_separates_every_stored_difference(
        (a, p, k) in (3usize..12).prop_flat_map(|n| (sparse_square(n), 1usize..4, 0usize..1000))
    ) {
        let n = a.nrows();
        let mut dense = a.to_dense();
        dense[0][n - 1] = 0.0; // guarantee at least one structural hole
        let holes: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| dense[i][j] == 0.0)
            .collect();
        let (hi, hj) = holes[k % holes.len()];
        let coo_of = |dense: &[Vec<f64>]| {
            let mut coo = Coo::new();
            for (i, row) in dense.iter().enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    if v != 0.0 {
                        coo.push(i as u64, j as u64, v);
                    }
                }
            }
            coo
        };
        let base = coo_of(&dense);
        // One extra explicit zero at the hole.
        let mut extra_zero = base.clone();
        extra_zero.push(hi as u64, hj as u64, 0.0);
        // One flipped index: row `hi`'s diagonal entry moves to the hole.
        let mut moved = dense.clone();
        moved[hi][hj] = moved[hi][hi];
        moved[hi][hi] = 0.0;
        let flipped = coo_of(&moved);

        Comm::run(p, move |rank| {
            let dist = RowDist::block(n as u64, rank.size());
            let build = |coo: &Coo| {
                let serial = Csr::from_coo(n, n, coo);
                ParCsr::from_serial(rank, dist.clone(), dist.clone(), &serial)
            };
            let owns_row = dist.owner(hi as u64) == rank.rank();
            let x = build(&base);
            // A second assembly of the same input is equal (halo tags
            // and comm packages are not part of the stored matrix).
            assert!(x.bitwise_eq(&build(&base)));
            assert!(x.bitwise_eq(&x.clone()));
            // Structural differences show on the owning rank only.
            let z = build(&extra_zero);
            assert_eq!(x.bitwise_eq(&z), !owns_row, "extra explicit zero");
            assert_eq!(x.bitwise_eq(&build(&flipped)), !owns_row, "flipped index");
            // Value-bit differences, planted in the explicit-zero slot
            // (diag or offd block, wherever the hole landed).
            if owns_row {
                let slot_of = |m: &ParCsr| -> (bool, usize) {
                    let li = dist.to_local(rank.rank(), hi as u64);
                    let (d0, d1) = (dist.start(rank.rank()), dist.end(rank.rank()));
                    if (d0..d1).contains(&(hj as u64)) {
                        let lj = hj - d0 as usize;
                        let (cols, _) = m.diag.row(li);
                        (true, m.diag.indptr()[li] + cols.iter().position(|&c| c == lj).unwrap())
                    } else {
                        let cj = m.col_map_offd().binary_search(&(hj as u64)).unwrap();
                        let (cols, _) = m.offd.row(li);
                        (false, m.offd.indptr()[li] + cols.iter().position(|&c| c == cj).unwrap())
                    }
                };
                let with = |v: f64| {
                    let mut m = z.clone();
                    let (in_diag, at) = slot_of(&m);
                    if in_diag {
                        m.diag.vals_mut()[at] = v;
                    } else {
                        m.offd.vals_mut()[at] = v;
                    }
                    m
                };
                assert!(!with(0.0).bitwise_eq(&with(-0.0)), "-0.0 vs 0.0");
                let nan = |payload: u64| f64::from_bits(0x7ff8_0000_0000_0000 | payload);
                assert!(!with(nan(1)).bitwise_eq(&with(nan(2))), "NaN payloads");
                assert!(with(nan(1)).bitwise_eq(&with(nan(1))), "same NaN bits are equal");
            }
        });
    }
}
