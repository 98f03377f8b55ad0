//! Property-based tests for the sparse kernel crate.

use proptest::prelude::*;
use sparse_kit::coo::Coo;
use sparse_kit::csr::Csr;
use sparse_kit::dense;
use sparse_kit::prims;
use sparse_kit::rap::galerkin;
use sparse_kit::sellcs::SellCs;
use sparse_kit::spgemm::{spgemm_esc, spgemm_hash, SpgemmPlan};

/// Random dense matrix strategy with ~35% fill.
fn dense(rows: usize, cols: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![
                3 => Just(0.0),
                2 => (-4.0f64..4.0).prop_map(|v| (v * 8.0).round() / 8.0),
            ],
            cols,
        ),
        rows,
    )
}

fn dense_mul(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let (m, k) = (a.len(), b.len());
    let n = if k == 0 { 0 } else { b[0].len() };
    let mut out = vec![vec![0.0; n]; m];
    for i in 0..m {
        for l in 0..k {
            if a[i][l] != 0.0 {
                for j in 0..n {
                    out[i][j] += a[i][l] * b[l][j];
                }
            }
        }
    }
    out
}

fn close(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.iter()
        .zip(b)
        .all(|(ra, rb)| ra.iter().zip(rb).all(|(x, y)| (x - y).abs() < 1e-9))
}

/// Serial mirror of `prims::reduce_by_key`: runs of equal adjacent keys
/// summed strictly left-to-right, which `reduce_by_key` must reproduce
/// bitwise for any input.
fn reduce_by_key_reference(keys: &[u64], vals: &[f64]) -> (Vec<u64>, Vec<f64>) {
    let mut out_keys = Vec::new();
    let mut out_vals = Vec::new();
    let mut i = 0;
    while i < keys.len() {
        let k = keys[i];
        let mut acc = vals[i];
        let mut j = i + 1;
        while j < keys.len() && keys[j] == k {
            acc += vals[j];
            j += 1;
        }
        out_keys.push(k);
        out_vals.push(acc);
        i = j;
    }
    (out_keys, out_vals)
}

/// Mixed-sign, mixed-magnitude values: any reassociation of a sum over
/// these changes the floating-point rounding, so a bitwise comparison
/// detects reordering.
fn rounding_sensitive_val(i: usize) -> f64 {
    let m = ((i.wrapping_mul(2654435761)) % 1000) as f64 - 499.5;
    m * 10f64.powi((i % 9) as i32 - 4)
}

/// A value set hostile to shortcuts: NaN (poisons anything multiplied
/// into it), -0.0 (lost by `0.0 +` seeding or value-based filtering),
/// and rounding-sensitive reals. Paired with an occupancy flag so
/// structural zeros and stored hazard values are independent.
fn hazard_csr(rows: usize, cols: usize) -> impl Strategy<Value = Csr> {
    proptest::collection::vec(
        proptest::collection::vec(
            (
                proptest::bool::ANY,
                prop_oneof![
                    4 => (-4.0f64..4.0).prop_map(|v| v * 0.37 + 1e-3),
                    1 => Just(-0.0f64),
                    1 => Just(0.0f64),
                    1 => Just(f64::NAN),
                ],
            ),
            cols,
        ),
        rows,
    )
    .prop_map(move |grid| {
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut vals = Vec::new();
        for row in &grid {
            for (c, &(stored, v)) in row.iter().enumerate() {
                if stored {
                    indices.push(c);
                    vals.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Csr::from_parts(rows, cols, indptr, indices, vals)
    })
}

/// Vector with the same hazards for the SpMV input side.
fn hazard_vec(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![
            5 => -3.0f64..3.0,
            1 => Just(-0.0f64),
            1 => Just(f64::NAN),
        ],
        n,
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Vector and matrix sizes for the kernel-shape tests. In release
/// (`ci.sh`) they straddle 1 024 (a slice / dot partial), 4 096 and
/// 16 384 (where `dot` switches to chunked partials); debug runs stay
/// below 4 096.
fn kernel_size() -> impl Strategy<Value = usize> {
    if cfg!(debug_assertions) {
        prop_oneof![1 => 0usize..40, 1 => 1000usize..1050, 1 => 2040usize..2060]
    } else {
        prop_oneof![1 => 1000usize..1050, 1 => 4070usize..4120, 1 => 16360usize..16410]
    }
}

/// Deterministic hash of `(seed, i)` (splitmix64).
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Kernel-test values, by `mode`: 0 and 1 — rounding-sensitive reals
/// with −0.0 (mode 1 then plants one NaN, see [`plant_nan`]); 2 —
/// signed zeros only, all −0.0, all +0.0 or mixed by `seed`, where a
/// sum's starting value shows (a sum of −0.0 products is −0.0 only when
/// folded from −0.0).
fn hazard(mode: u64, seed: u64, i: u64) -> f64 {
    let z = mix(seed, i);
    match (mode, seed % 3) {
        (2, 0) => -0.0,
        (2, 1) => 0.0,
        (2, _) => {
            if z & 1 == 0 {
                0.0
            } else {
                -0.0
            }
        }
        _ if z % 8 == 1 => -0.0,
        _ => rounding_sensitive_val(z as usize % 100_000),
    }
}

/// In mode 1, one NaN of seeded sign and payload at a seeded position.
/// One per case: where two NaNs of different payloads meet, which one
/// an add returns is up to the compiler (operands of a commutative op
/// may be swapped), so only a lone NaN has defined bits to compare.
fn plant_nan(mode: u64, seed: u64, v: &mut [f64]) {
    if mode == 1 && !v.is_empty() {
        let z = mix(seed, 0x4E41);
        let sign = (z & 1) << 63;
        v[(z >> 1) as usize % v.len()] = f64::from_bits(0x7ff8_0000_0000_0000 | sign | (z >> 20));
    }
}

fn hazard_vals(mode: u64, seed: u64, n: usize) -> Vec<f64> {
    (0..n as u64).map(|i| hazard(mode, seed, i)).collect()
}

/// An `n × n` CSR with 0–5 entries per row (so with empty rows) at
/// seeded distinct columns, values as [`hazard`].
fn hazard_rows(mode: u64, seed: u64, n: usize) -> Csr {
    let mut indptr = vec![0usize];
    let (mut indices, mut vals) = (Vec::new(), Vec::new());
    for r in 0..n as u64 {
        let mut cols: Vec<usize> = (0..mix(seed, r) % 6)
            .map(|k| (mix(seed ^ r, k) % n as u64) as usize)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        for c in cols {
            indices.push(c);
            vals.push(hazard(mode, seed ^ 0x5A, indices.len() as u64));
        }
        indptr.push(indices.len());
    }
    Csr::from_parts(n, n, indptr, indices, vals)
}

/// The row sum every SpMV-shaped kernel computes: from `+0.0`, in
/// column order, one `val·x` product at a time.
fn reference_row_sums(a: &Csr, x: &[f64]) -> Vec<f64> {
    (0..a.nrows())
        .map(|r| {
            let mut acc = 0.0;
            for k in a.indptr()[r]..a.indptr()[r + 1] {
                acc += a.vals()[k] * x[a.indices()[k]];
            }
            acc
        })
        .collect()
}

/// `xᵀy` in the order `dense::dot` has always summed: below 16 384
/// elements one `Sum` fold, from there one per 1 024-element chunk,
/// the partials folded in chunk order.
fn reference_dot(x: &[f64], y: &[f64]) -> f64 {
    let fold = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(a, b)| a * b).sum::<f64>();
    if x.len() < 1 << 14 {
        fold(x, y)
    } else {
        x.chunks(1024)
            .zip(y.chunks(1024))
            .map(|(x, y)| fold(x, y))
            .sum()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `dots` against one `dot` per vector, and `dot` against the order
    /// it has always summed in.
    #[test]
    fn multi_dot_equals_separate_dots_bitwise(
        (n, k, mode, seed) in (kernel_size(), 0usize..7, 0u64..3, 0u64..1 << 20)
    ) {
        let mut x = hazard_vals(mode, seed, n);
        plant_nan(mode, seed, &mut x);
        let ys: Vec<Vec<f64>> = (0..k as u64).map(|j| hazard_vals(mode, seed + 1 + j, n)).collect();
        let ys: Vec<&[f64]> = ys.iter().map(|y| &y[..]).collect();
        let mut fused = vec![f64::NAN; k];
        dense::dots(&x, &ys, &mut fused);
        for (j, y) in ys.iter().enumerate() {
            let single = dense::dot(&x, y);
            prop_assert_eq!(fused[j].to_bits(), single.to_bits(), "n={} j={}", n, j);
            let reference = reference_dot(&x, y);
            prop_assert_eq!(single.to_bits(), reference.to_bits(), "n={}", n);
        }
    }

    /// `axpys` against the `axpy` sequence, and `axpy` against the plain
    /// element loop.
    #[test]
    fn multi_axpy_equals_axpy_sequence_bitwise(
        (n, k, mode, seed) in (kernel_size(), 0usize..7, 0u64..3, 0u64..1 << 20)
    ) {
        let mut y0 = hazard_vals(mode, seed, n);
        plant_nan(mode, seed, &mut y0);
        let xs: Vec<Vec<f64>> = (0..k as u64).map(|j| hazard_vals(mode, seed + 1 + j, n)).collect();
        let xs: Vec<&[f64]> = xs.iter().map(|x| &x[..]).collect();
        let a: Vec<f64> = (0..k as u64).map(|j| hazard(mode, seed ^ 0xA, j)).collect();
        let mut reference = y0.clone();
        for (&aj, x) in a.iter().zip(&xs) {
            for (yi, &xi) in reference.iter_mut().zip(x.iter()) {
                *yi += aj * xi;
            }
        }
        let (mut fused, mut seq) = (y0.clone(), y0);
        dense::axpys(&a, &xs, &mut fused);
        for (&aj, x) in a.iter().zip(&xs) {
            dense::axpy(aj, x, &mut seq);
        }
        prop_assert_eq!(bits(&fused), bits(&seq), "n={}", n);
        prop_assert_eq!(bits(&seq), bits(&reference), "n={}", n);
    }

    /// The row kernels against the per-row reference loop, and the fused
    /// last sweep against a sweep followed by `axpy(1.0)`, on matrices
    /// with empty rows.
    #[test]
    fn row_block_kernels_equal_reference_bitwise(
        (n, mode, seed) in (kernel_size(), 0u64..3, 0u64..1 << 20)
    ) {
        let a = hazard_rows(mode, seed, n);
        let mut g = hazard_vals(mode, seed ^ 1, n);
        plant_nan(mode, seed, &mut g);
        let r = hazard_vals(mode, seed ^ 2, n);
        let inv = hazard_vals(mode, seed ^ 3, n);
        let x0 = hazard_vals(mode, seed ^ 4, n);
        let sums = reference_row_sums(&a, &g);
        let spmv_ref = bits(&sums);
        let add_ref: Vec<u64> = x0.iter().zip(&sums).map(|(y, s)| (y + s).to_bits()).collect();
        let jr_ref: Vec<f64> = (0..n).map(|i| (r[i] - sums[i]) * inv[i]).collect();
        let mut y = vec![f64::INFINITY; n];
        a.spmv_into(&g, &mut y);
        prop_assert_eq!(bits(&y), spmv_ref, "spmv n={}", n);
        let mut y = x0.clone();
        a.spmv_add_into(&g, &mut y);
        prop_assert_eq!(bits(&y), add_ref, "spmv_add n={}", n);
        let mut next = vec![f64::INFINITY; n];
        a.jr_sweep_fused(&r, &inv, &g, &mut next);
        prop_assert_eq!(bits(&next), bits(&jr_ref), "jr_sweep_fused n={}", n);
        let mut x_seq = x0.clone();
        dense::axpy(1.0, &next, &mut x_seq);
        let mut x_fused = x0;
        a.jr_sweep_add(&r, &inv, &g, &mut x_fused);
        prop_assert_eq!(bits(&x_fused), bits(&x_seq), "jr_sweep_add n={}", n);
    }
}

proptest! {
    #[test]
    fn sellcs_spmv_bitwise_matches_csr(
        (a, x, sigma) in (1usize..24, 1usize..24).prop_flat_map(|(r, c)| {
            (hazard_csr(r, c), hazard_vec(c), prop_oneof![Just(4usize), Just(8), Just(64)])
        })
    ) {
        // Random matrices include empty rows (all flags false), singleton
        // rows, NaN and -0.0 — the conversion + lane kernel must agree
        // with scalar CSR bit for bit.
        let s = SellCs::from_csr(&a, sigma);
        prop_assert_eq!(s.nnz(), a.nnz());
        let mut y_csr = vec![0.0; a.nrows()];
        a.spmv_into(&x, &mut y_csr);
        let mut y_sell = vec![f64::INFINITY; a.nrows()];
        s.spmv_into(&x, &mut y_sell);
        prop_assert_eq!(bits(&y_sell), bits(&y_csr));
    }

    #[test]
    fn fused_jr_sweep_bitwise_matches_unfused(
        (t, r, g, inv_diag) in (2usize..20,).prop_flat_map(|(n,)| {
            (hazard_csr(n, n), hazard_vec(n), hazard_vec(n), hazard_vec(n))
        })
    ) {
        // Unfused pipeline: lg = T·g, then the element-wise Jacobi update.
        let n = t.nrows();
        let mut lg = vec![0.0; n];
        t.spmv_into(&g, &mut lg);
        let mut g_ref = vec![0.0; n];
        dense::jacobi_update(&r, &lg, &inv_diag, &mut g_ref);
        // Fused single pass.
        let mut g_fused = vec![0.0; n];
        t.jr_sweep_fused(&r, &inv_diag, &g, &mut g_fused);
        prop_assert_eq!(bits(&g_fused), bits(&g_ref));
    }

    #[test]
    fn spgemm_plan_reuse_bitwise_matches_fresh(
        (a, b, new_a_vals, new_b_vals) in (1usize..12, 1usize..12, 1usize..12)
            .prop_flat_map(|(m, k, n)| (hazard_csr(m, k), hazard_csr(k, n)))
            .prop_flat_map(|(a, b)| {
                let (na, nb) = (a.nnz(), b.nnz());
                (Just(a), Just(b), hazard_vec(na), hazard_vec(nb))
            })
    ) {
        let (plan, c0) = SpgemmPlan::new(&a, &b);
        let fresh0 = spgemm_hash(&a, &b);
        prop_assert_eq!(bits(c0.vals()), bits(fresh0.vals()));
        // Value-only update, then replay vs. fresh.
        let mut a2 = a.clone();
        a2.vals_mut().copy_from_slice(&new_a_vals);
        let mut b2 = b.clone();
        b2.vals_mut().copy_from_slice(&new_b_vals);
        prop_assert!(plan.matches(&a2, &b2));
        let fresh = spgemm_hash(&a2, &b2);
        let replay = plan.execute(&a2, &b2);
        prop_assert_eq!(replay.indptr(), fresh.indptr());
        prop_assert_eq!(replay.indices(), fresh.indices());
        prop_assert_eq!(bits(replay.vals()), bits(fresh.vals()));
    }

    #[test]
    fn sort_by_key_matches_std_sort(pairs in proptest::collection::vec((0u64..50, -10i64..10), 0..200)) {
        let mut keys: Vec<u64> = pairs.iter().map(|&(k, _)| k).collect();
        let mut vals: Vec<i64> = pairs.iter().map(|&(_, v)| v).collect();
        prims::stable_sort_by_key(&mut keys, &mut vals);

        let mut reference = pairs.clone();
        reference.sort_by_key(|&(k, _)| k); // stable
        let ref_keys: Vec<u64> = reference.iter().map(|&(k, _)| k).collect();
        let ref_vals: Vec<i64> = reference.iter().map(|&(_, v)| v).collect();
        prop_assert_eq!(keys, ref_keys);
        prop_assert_eq!(vals, ref_vals);
    }

    #[test]
    fn reduce_by_key_preserves_total(keys in proptest::collection::vec(0u64..20, 0..100)) {
        let mut keys = keys;
        keys.sort();
        let vals: Vec<f64> = keys.iter().map(|&k| k as f64 + 0.5).collect();
        let total: f64 = vals.iter().sum();
        let (out_keys, out_vals) = prims::reduce_by_key(&keys, &vals);
        // Totals preserved, keys strictly increasing (all duplicates merged).
        let out_total: f64 = out_vals.iter().sum();
        prop_assert!((total - out_total).abs() < 1e-9);
        prop_assert!(out_keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn coo_combine_preserves_entry_sums(
        triplets in proptest::collection::vec((0u64..8, 0u64..8, -4.0f64..4.0), 0..60)
    ) {
        let mut coo = Coo::new();
        let mut reference = std::collections::HashMap::new();
        for &(r, c, v) in &triplets {
            coo.push(r, c, v);
            *reference.entry((r, c)).or_insert(0.0) += v;
        }
        coo.sort_and_combine();
        prop_assert!(coo.is_sorted_and_combined());
        prop_assert_eq!(coo.len(), reference.len());
        for i in 0..coo.len() {
            let expected = reference[&(coo.rows[i], coo.cols[i])];
            prop_assert!((coo.vals[i] - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn csr_dense_round_trip(d in dense(1, 1).prop_flat_map(|_| (1usize..8, 1usize..8))
        .prop_flat_map(|(r, c)| dense(r, c))) {
        let a = Csr::from_dense(&d);
        prop_assert_eq!(a.to_dense(), d);
    }

    #[test]
    fn spmv_matches_dense((d, x) in (1usize..10, 1usize..10).prop_flat_map(|(r, c)| {
        (dense(r, c), proptest::collection::vec(-3.0f64..3.0, c))
    })) {
        let a = Csr::from_dense(&d);
        let y = a.spmv(&x);
        for (r, row) in d.iter().enumerate() {
            let expected: f64 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
            prop_assert!((y[r] - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn transpose_is_involution(d in (1usize..10, 1usize..10).prop_flat_map(|(r, c)| dense(r, c))) {
        let a = Csr::from_dense(&d);
        prop_assert_eq!(a.transpose().transpose().to_dense(), d);
    }

    #[test]
    fn transpose_swaps_spmv((d, x, y) in (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
        (dense(r, c),
         proptest::collection::vec(-2.0f64..2.0, c),
         proptest::collection::vec(-2.0f64..2.0, r))
    })) {
        // yᵀ(Ax) == (Aᵀy)ᵀx
        let a = Csr::from_dense(&d);
        let ax = a.spmv(&x);
        let aty = a.transpose().spmv(&y);
        let lhs: f64 = y.iter().zip(&ax).map(|(p, q)| p * q).sum();
        let rhs: f64 = aty.iter().zip(&x).map(|(p, q)| p * q).sum();
        prop_assert!((lhs - rhs).abs() < 1e-8);
    }

    #[test]
    fn add_matches_dense((da, db) in (1usize..8, 1usize..8).prop_flat_map(|(r, c)| {
        (dense(r, c), dense(r, c))
    })) {
        let a = Csr::from_dense(&da);
        let b = Csr::from_dense(&db);
        let c = a.add(&b);
        for r in 0..da.len() {
            for j in 0..da[0].len() {
                prop_assert!((c.get(r, j) - (da[r][j] + db[r][j])).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn spgemm_hash_matches_dense((da, db) in (1usize..8, 1usize..8, 1usize..8)
        .prop_flat_map(|(m, k, n)| (dense(m, k), dense(k, n)))) {
        let a = Csr::from_dense(&da);
        let b = Csr::from_dense(&db);
        let c = spgemm_hash(&a, &b);
        prop_assert!(close(&c.to_dense(), &dense_mul(&da, &db)));
    }

    #[test]
    fn spgemm_esc_matches_hash((da, db) in (1usize..8, 1usize..8, 1usize..8)
        .prop_flat_map(|(m, k, n)| (dense(m, k), dense(k, n)))) {
        let a = Csr::from_dense(&da);
        let b = Csr::from_dense(&db);
        let h = spgemm_hash(&a, &b);
        let e = spgemm_esc(&a, &b);
        prop_assert!(close(&h.to_dense(), &e.to_dense()));
    }

    #[test]
    fn galerkin_matches_dense_triple((da, dp) in (2usize..8, 1usize..6)
        .prop_flat_map(|(n, nc)| (dense(n, n), dense(n, nc)))) {
        let a = Csr::from_dense(&da);
        let p = Csr::from_dense(&dp);
        let g = galerkin(&a, &p);
        let pt: Vec<Vec<f64>> = {
            let rows = dp.len();
            let cols = dp[0].len();
            (0..cols).map(|c| (0..rows).map(|r| dp[r][c]).collect()).collect()
        };
        let expected = dense_mul(&pt, &dense_mul(&da, &dp));
        prop_assert!(close(&g.to_dense(), &expected));
    }

    #[test]
    fn reduce_by_key_arbitrary_runs_match_serial_bitwise(
        lens in proptest::collection::vec(0usize..700, 0..32)
    ) {
        // Arbitrary run lengths (empty runs included).
        let mut keys = Vec::new();
        for (k, &l) in lens.iter().enumerate() {
            keys.extend(std::iter::repeat_n(k as u64, l));
        }
        let vals: Vec<f64> = (0..keys.len()).map(rounding_sensitive_val).collect();
        let (pk, pv) = prims::reduce_by_key(&keys, &vals);
        let (sk, sv) = reduce_by_key_reference(&keys, &vals);
        prop_assert_eq!(pk, sk);
        prop_assert_eq!(pv.len(), sv.len());
        for (a, b) in pv.iter().zip(&sv) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn reduce_by_key_all_equal_keys_match_serial_bitwise(n in 0usize..20000) {
        // One run spanning the whole input.
        let keys = vec![3u64; n];
        let vals: Vec<f64> = (0..n).map(rounding_sensitive_val).collect();
        let (pk, pv) = prims::reduce_by_key(&keys, &vals);
        let (sk, sv) = reduce_by_key_reference(&keys, &vals);
        prop_assert_eq!(pk, sk);
        prop_assert_eq!(pv.len(), sv.len());
        for (a, b) in pv.iter().zip(&sv) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lower_upper_diag_decomposition(d in (2usize..8,).prop_flat_map(|(n,)| dense(n, n))) {
        let a = Csr::from_dense(&d);
        let (l, diag, u) = a.split_triangles();
        let rebuilt = l.add(&u).add(&Csr::from_diag(&diag));
        // Same values everywhere.
        for (r, row) in d.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                prop_assert!((rebuilt.get(r, c) - v).abs() < 1e-12);
            }
        }
    }

    /// The one-pass split against the three passes it replaced: a row
    /// filter per triangle and a per-row lookup of the diagonal. Rows
    /// hold 0–5 entries, so some are empty and many lack a diagonal
    /// (read as `0.0`); values carry −0.0 and, in mode 1, one NaN.
    #[test]
    fn split_triangles_equals_filters_and_diag_bitwise(
        (n, mode, seed) in (0usize..80, 0u64..3, 0u64..1 << 20)
    ) {
        let mut a = hazard_rows(mode, seed, n);
        plant_nan(mode, seed, a.vals_mut());
        let (l, diag, u) = a.split_triangles();
        prop_assert_eq!(bits(&diag), bits(&a.diag()));
        let lower: fn(usize, usize) -> bool = |r, c| c < r;
        for (split, keep) in [(&l, lower), (&u, |r, c| c > r)] {
            let mut want = (vec![0usize], Vec::new(), Vec::new());
            for r in 0..n {
                let (cols, vals) = a.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    if keep(r, c) {
                        want.1.push(c);
                        want.2.push(v);
                    }
                }
                want.0.push(want.1.len());
            }
            prop_assert_eq!((split.nrows(), split.ncols()), (n, n));
            prop_assert_eq!(split.indptr(), &want.0[..]);
            prop_assert_eq!(split.indices(), &want.1[..]);
            prop_assert_eq!(bits(split.vals()), bits(&want.2));
        }
    }
}
