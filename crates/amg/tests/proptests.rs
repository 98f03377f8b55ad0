//! Property-based AMG tests: invariants must hold for arbitrary
//! M-matrix-like operators and rank counts, not just the hand-built
//! Laplacians of the unit tests.

use amg::{AmgConfig, AmgHierarchy, InterpType};
use distmat::{ParCsr, ParVector, RowDist};
use parcomm::Comm;
use proptest::prelude::*;
use sparse_kit::{Coo, Csr};

/// Random connected M-matrix: a 1-D Laplacian backbone plus random extra
/// negative couplings, diagonally dominant.
fn random_m_matrix(n: usize, extra: Vec<(usize, usize)>, jitter: Vec<f64>) -> Csr {
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..n - 1 {
        pairs.push((i, i + 1, 1.0 + jitter[i % jitter.len()].abs()));
    }
    for &(a, b) in &extra {
        let (a, b) = (a % n, b % n);
        if a != b {
            pairs.push((a.min(b), a.max(b), 0.5));
        }
    }
    let mut coo = Coo::new();
    let mut diag = vec![0.1; n]; // slight dominance → SPD
    for &(a, b, w) in &pairs {
        coo.push(a as u64, b as u64, -w);
        coo.push(b as u64, a as u64, -w);
        diag[a] += w;
        diag[b] += w;
    }
    for (i, &d) in diag.iter().enumerate() {
        coo.push(i as u64, i as u64, d);
    }
    Csr::from_coo(n, n, &coo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pmis_split_is_valid_on_random_m_matrices(
        (n, extra, jitter, p) in (20usize..60).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec((0usize..60, 0usize..60), 0..20),
            proptest::collection::vec(0.0f64..2.0, 4),
            1usize..4,
        ))
    ) {
        let a = random_m_matrix(n, extra, jitter);
        let a2 = a.clone();
        let out = Comm::run(p, move |rank| {
            let dist = RowDist::block(n as u64, rank.size());
            let pa = ParCsr::from_serial(rank, dist.clone(), dist, &a2);
            let s = amg::strength::classical(rank, &pa, 0.25);
            amg::pmis::pmis(rank, &s, 42).unwrap().coarse_index
        });
        // Stitch the global C-point flags together.
        let coarse: Vec<bool> = out.iter().flatten().map(Option::is_some).collect();
        // No two strongly connected C points (strength ⊆ adjacency, so
        // checking adjacency is sufficient for the 1-D backbone).
        for i in 0..n - 1 {
            let strong_pair = coarse[i] && coarse[i + 1];
            // Backbone couplings are always strong at θ=0.25 unless the
            // row has a much stronger other neighbour; C-C adjacency on a
            // strong edge violates the MIS property.
            if strong_pair {
                let (cols_i, vals_i) = a.row(i);
                let aij = cols_i
                    .iter()
                    .zip(vals_i)
                    .find(|(&c, _)| c == i + 1)
                    .map(|(_, &v)| v)
                    .unwrap_or(0.0);
                let max_off = cols_i
                    .iter()
                    .zip(vals_i)
                    .filter(|(&c, _)| c != i)
                    .map(|(_, &v)| -v)
                    .fold(0.0f64, f64::max);
                prop_assert!(
                    -aij < 0.25 * max_off,
                    "strong C-C pair at ({}, {})", i, i + 1
                );
            }
        }
    }

    #[test]
    fn interpolation_rows_partition_unity_on_zero_rowsum_ops(
        (n, jitter) in (16usize..48).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec(0.0f64..2.0, 4),
        ))
    ) {
        // Pure-Neumann operator (zero row sums): BAMG-direct P rows must
        // sum to 1 wherever interpolation exists.
        let mut coo = Coo::new();
        let mut diag = vec![0.0; n];
        for i in 0..n - 1 {
            let w = 1.0 + jitter[i % jitter.len()].abs();
            coo.push(i as u64, (i + 1) as u64, -w);
            coo.push((i + 1) as u64, i as u64, -w);
            diag[i] += w;
            diag[i + 1] += w;
        }
        for (i, &d) in diag.iter().enumerate() {
            coo.push(i as u64, i as u64, d);
        }
        let a = Csr::from_coo(n, n, &coo);
        let out = Comm::run(2, move |rank| {
            let dist = RowDist::block(n as u64, rank.size());
            let pa = ParCsr::from_serial(rank, dist.clone(), dist, &a);
            let s = amg::strength::classical(rank, &pa, 0.25);
            let split = amg::pmis::pmis(rank, &s, 3).unwrap();
            let p = amg::interp::build_interpolation(
                rank, &pa, &s, &split, InterpType::BamgDirect, 0.0,
            ).unwrap();
            p.to_serial(rank)
        });
        let p = &out[0];
        for i in 0..p.nrows() {
            let (cols, vals) = p.row(i);
            if !cols.is_empty() {
                let sum: f64 = vals.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9, "row {} sums to {}", i, sum);
            }
        }
    }

    #[test]
    fn vcycle_reduces_residual_on_random_spd_systems(
        (n, extra, jitter) in (30usize..80).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec((0usize..80, 0usize..80), 0..12),
            proptest::collection::vec(0.0f64..2.0, 4),
        ))
    ) {
        let a = random_m_matrix(n, extra, jitter);
        let out = Comm::run(2, move |rank| {
            let dist = RowDist::block(n as u64, rank.size());
            let pa = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &a);
            let h = AmgHierarchy::setup(rank, pa, &AmgConfig::standard()).unwrap();
            let b = ParVector::from_fn(rank, dist.clone(), |g| ((g % 5) as f64) - 2.0);
            let mut x = ParVector::zeros(rank, dist);
            h.solve_cycles(rank, &b, &mut x, 6)
        });
        // Six V-cycles must reduce the relative residual substantially on
        // any diagonally dominant M-matrix.
        prop_assert!(out[0] < 0.2, "V-cycles stalled at {}", out[0]);
    }
}
