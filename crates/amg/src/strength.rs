//! Classical strength of connection.
//!
//! "A strength-of-connection matrix S is typically first computed to
//! indicate directions of algebraic smoothness... The construction of S
//! can be performed efficiently on GPUs, because each row of S can be
//! computed independently by selecting entries in the corresponding row
//! of A with a prescribed threshold value θ." — §4.1. No communication is
//! needed: the S pattern is a row-local subset of A's pattern, so S is
//! built on A's own halo (the same `Arc`) and no second one exists.

use distmat::ParCsr;
use parcomm::Rank;
use sparse_kit::Csr;

/// The classical strength pattern of `a` with threshold `theta`: j is
/// strong for i when `-sign(a_ii)·a_ij ≥ θ·max_k (-sign(a_ii)·a_ik)`
/// over off-diagonal k. S is a `ParCsr` on `a`'s distributions and
/// halo, its offd block in `a`'s offd numbering, so the operator's
/// communication structures are reused and interpolation can match S's
/// columns against A's. Values are 1.0 — the pattern doubles as a
/// boolean matrix for the `S² + S` product of aggressive coarsening.
/// Row-local: records one kernel launch and sends no message.
pub fn classical(rank: &Rank, a: &ParCsr, theta: f64) -> ParCsr {
    assert!((0.0..1.0).contains(&theta), "theta must be in [0,1)");
    let n = a.diag.nrows();
    let nnz = a.local_nnz() as u64;
    let k = rank.kernel("strength");
    k.launch(n, (nnz * 16, nnz));

    // Each row of S depends only on the corresponding row of A; the
    // rows are appended in row order.
    let (mut d_indptr, mut d_indices) = (vec![0usize], Vec::new());
    let (mut o_indptr, mut o_indices) = (vec![0usize], Vec::new());
    for i in 0..n {
        let (dc, dv) = a.diag.row(i);
        let (oc, ov) = a.offd.row(i);
        let aii = a.diag.get(i, i);
        let sign = if aii >= 0.0 { 1.0 } else { -1.0 };
        // Max off-diagonal strength measure.
        let mut max_meas = 0.0f64;
        for (&c, &v) in dc.iter().zip(dv) {
            if c != i {
                max_meas = max_meas.max(-sign * v);
            }
        }
        for &v in ov {
            max_meas = max_meas.max(-sign * v);
        }
        let cut = theta * max_meas;
        if max_meas > 0.0 {
            let strong = |v: f64| -sign * v >= cut && -sign * v > 0.0;
            let d_row = dc.iter().zip(dv).filter(|&(&c, &v)| c != i && strong(v));
            d_indices.extend(d_row.map(|(&c, _)| c));
            o_indices.extend(oc.iter().zip(ov).filter(|&(_, &v)| strong(v)).map(|(&c, _)| c));
        }
        d_indptr.push(d_indices.len());
        o_indptr.push(o_indices.len());
    }
    let nd = d_indices.len();
    let no = o_indices.len();
    let sdiag = Csr::from_parts(n, a.diag.ncols(), d_indptr, d_indices, vec![1.0; nd]);
    let soffd = Csr::from_parts(n, a.offd.ncols(), o_indptr, o_indices, vec![1.0; no]);
    ParCsr::with_blocks_on(a, sdiag, soffd)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use distmat::RowDist;
    use parcomm::Comm;
    use sparse_kit::Coo;

    fn one_rank_matrix(rank: &Rank, d: &[Vec<f64>]) -> ParCsr {
        let a = Csr::from_dense(d);
        let dist = RowDist::block(d.len() as u64, rank.size());
        ParCsr::from_serial(rank, dist.clone(), dist, &a)
    }

    #[test]
    fn uniform_laplacian_all_offdiag_strong() {
        Comm::run(1, |rank| {
            let a = one_rank_matrix(
                rank,
                &[
                    vec![2.0, -1.0, 0.0],
                    vec![-1.0, 2.0, -1.0],
                    vec![0.0, -1.0, 2.0],
                ],
            );
            let s = classical(rank, &a, 0.25);
            assert_eq!(s.diag.row(0).0, &[1]);
            assert_eq!(s.diag.row(1).0, &[0, 2]);
            assert_eq!(s.local_nnz(), 4);
        });
    }

    #[test]
    fn anisotropy_filters_weak_direction() {
        // Row couples strongly (-10) in one direction, weakly (-0.1) in
        // the other: θ=0.25 keeps only the strong one.
        Comm::run(1, |rank| {
            let a = one_rank_matrix(
                rank,
                &[
                    vec![10.2, -10.0, -0.1],
                    vec![-10.0, 10.2, -0.1],
                    vec![-0.1, -0.1, 0.3],
                ],
            );
            let s = classical(rank, &a, 0.25);
            assert_eq!(s.diag.row(0).0, &[1]);
            assert_eq!(s.diag.row(1).0, &[0]);
            // Row 2: both connections equal → both strong.
            assert_eq!(s.diag.row(2).0, &[0, 1]);
        });
    }

    #[test]
    fn positive_offdiagonals_are_weak() {
        Comm::run(1, |rank| {
            let a = one_rank_matrix(
                rank,
                &[vec![2.0, 1.0, -1.0], vec![1.0, 2.0, -1.0], vec![-1.0, -1.0, 2.0]],
            );
            let s = classical(rank, &a, 0.25);
            // +1.0 entries must not be strong.
            assert_eq!(s.diag.row(0).0, &[2]);
            assert_eq!(s.diag.row(1).0, &[2]);
        });
    }

    #[test]
    fn negative_diagonal_flips_sign_convention() {
        Comm::run(1, |rank| {
            let a = one_rank_matrix(rank, &[vec![-2.0, 1.0], vec![1.0, -2.0]]);
            let s = classical(rank, &a, 0.25);
            // With a_ii < 0, positive off-diagonals are the strong ones.
            assert_eq!(s.local_nnz(), 2);
        });
    }

    #[test]
    fn diagonal_matrix_has_no_strong_connections() {
        Comm::run(1, |rank| {
            let a = one_rank_matrix(rank, &[vec![2.0, 0.0], vec![0.0, 3.0]]);
            let s = classical(rank, &a, 0.25);
            assert_eq!(s.local_nnz(), 0);
        });
    }

    #[test]
    fn distributed_strength_matches_serial() {
        // 1-D Laplacian across 3 ranks: every interior row has 2 strong
        // neighbours, and offd entries are detected as strong too.
        let n = 9u64;
        let totals = Comm::run(3, move |rank| {
            let mut coo = Coo::new();
            for i in 0..n {
                coo.push(i, i, 2.0);
                if i > 0 {
                    coo.push(i, i - 1, -1.0);
                }
                if i + 1 < n {
                    coo.push(i, i + 1, -1.0);
                }
            }
            let serial = Csr::from_coo(n as usize, n as usize, &coo);
            let dist = RowDist::block(n, 3);
            let a = ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            let s = classical(rank, &a, 0.25);
            s.local_nnz() as u64
        });
        assert_eq!(totals.iter().sum::<u64>(), 16); // 2n - 2 strong links
    }

    #[test]
    fn classical_sends_nothing_and_shares_the_operator_halo() {
        // 1-D Laplacian on 2 ranks plus a weak 0 ↔ 5 coupling: each rank's
        // A has two external columns, and S uses only the strong one.
        Comm::run(2, |rank| {
            let n = 6u64;
            let mut coo = Coo::new();
            for i in 0..n {
                coo.push(i, i, 2.0);
                if i > 0 {
                    coo.push(i, i - 1, -1.0);
                }
                if i + 1 < n {
                    coo.push(i, i + 1, -1.0);
                }
            }
            coo.push(0, 5, -0.01);
            coo.push(5, 0, -0.01);
            let serial = Csr::from_coo(n as usize, n as usize, &coo);
            let dist = RowDist::block(n, 2);
            let a = ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            let before = rank.trace_snapshot().total();
            let s = classical(rank, &a, 0.25);
            let after = rank.trace_snapshot().total();
            assert_eq!((after.msgs, after.collectives), (before.msgs, before.collectives));
            assert!(Arc::ptr_eq(s.halo(), a.halo()));
            assert_eq!(s.col_map_offd().len(), 2);
            assert_eq!(s.offd.nnz(), 1);
            // Gathered: A's strong off-diagonal pattern, with 1.0 values.
            let gathered = s.to_serial(rank);
            for i in 0..n as usize {
                for j in 0..n as usize {
                    let strong = i != j && serial.get(i, j) <= -0.25;
                    assert_eq!(gathered.get(i, j), if strong { 1.0 } else { 0.0 }, "({i},{j})");
                }
            }
        });
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn bad_theta_panics() {
        Comm::run(1, |rank| {
            let a = one_rank_matrix(rank, &[vec![1.0]]);
            classical(rank, &a, 1.5);
        });
    }
}
