//! Interpolation operators (§4.1).
//!
//! - [`direct_interpolation`] — classical direct and the BAMG variant:
//!   the interpolatory set of a fine point `i` is its strong C-neighbours,
//!   so the weights come from the i-th equation alone. The BAMG weights
//!   are the closed-form solution of the local optimization problem (1)
//!   for a constant near-nullspace, Eq. (2): strong-F mass is distributed
//!   equally over the strong C-neighbours and weak mass is lumped into
//!   the diagonal, which preserves constants exactly on zero-row-sum
//!   matrices.
//! - [`mm_ext_interpolation`] — the matrix-matrix extended operator
//!   "MM-ext": `W = −[(D_FF + D_γ)⁻¹(Aˢ_FF + D_β)]·[D_β⁻¹ Aˢ_FC]` with
//!   `D_β = diag(Aˢ_FC·1)` and `D_γ = diag(Aʷ_FF·1 + Aʷ_FC·1)`, built
//!   entirely from distributed sparse products and diagonal scalings —
//!   reaching C-points at distance two without any dynamic pattern
//!   negotiation. The "+i" variant adds a constant-preserving row
//!   rescale.

use distmat::ParCsr;
use parcomm::Rank;
use resilience::SolveError;
use sparse_kit::Coo;

use crate::config::InterpType;
use crate::pmis::{numbering, CfSplit};

/// Pull per-point ids (`None` travels as `u64::MAX`) to A's external
/// columns over A's own halo: one exchange, hosting `socket-drop`.
fn ext_ids(rank: &Rank, a: &ParCsr, ids: &[Option<u64>]) -> Result<Vec<u64>, SolveError> {
    let local: Vec<u64> = ids.iter().map(|id| id.unwrap_or(u64::MAX)).collect();
    a.halo().try_exchange(rank, &local)
}

/// Truncate an interpolation row of `(global col, weight)` pairs: drop
/// weights below `factor · max|w|`, then rescale so the row sum is
/// preserved (hypre's truncation).
fn truncate_row(row: &mut Vec<(u64, f64)>, factor: f64) {
    if factor <= 0.0 || row.is_empty() {
        return;
    }
    let max_abs = row.iter().fold(0.0f64, |m, &(_, v)| m.max(v.abs()));
    let cut = factor * max_abs;
    let old_sum: f64 = row.iter().map(|&(_, v)| v).sum();
    row.retain(|&(_, v)| v.abs() >= cut);
    let new_sum: f64 = row.iter().map(|&(_, v)| v).sum();
    if new_sum != 0.0 && old_sum != 0.0 {
        let scale = old_sum / new_sum;
        for (_, v) in row.iter_mut() {
            *v *= scale;
        }
    }
}

/// Truncate `row`, sort it by column (the order `ParCsr::from_global_coo`
/// takes; the columns are distinct) and append it to `coo` as row `gi`.
fn push_row(coo: &mut Coo, gi: u64, row: &mut Vec<(u64, f64)>, trunc_factor: f64) {
    truncate_row(row, trunc_factor);
    row.sort_unstable_by_key(|&(c, _)| c);
    for &(c, v) in row.iter() {
        coo.push(gi, c, v);
    }
}

/// Build direct (or BAMG-direct) interpolation from a CF splitting and
/// the strength pattern `s` of `a` (offd in `a`'s numbering). Pulls the
/// coarse ids of `a`'s external columns — an external point is coarse
/// iff its id is not `u64::MAX` — in one halo exchange, whose failure
/// (`socket-drop`, a timeout or a corrupted message) is returned.
/// Collective.
pub fn direct_interpolation(
    rank: &Rank,
    a: &ParCsr,
    s: &ParCsr,
    split: &CfSplit,
    bamg: bool,
    trunc_factor: f64,
) -> Result<ParCsr, SolveError> {
    let me = rank.rank();
    let dist = a.row_dist().clone();
    let start = dist.start(me);
    let n = dist.local_n(me);
    let ext_cid = ext_ids(rank, a, &split.coarse_index)?;
    let nnz = a.local_nnz() as u64;
    let k = rank.kernel("interp_direct");
    k.launch(n, (nnz * 16, nnz));

    // Every interpolation row depends only on row i of A/S and the halo
    // info: the Eq.-(2) weights are computed row by row into one buffer,
    // and the rows are emitted in ascending row order.
    let mut coo = Coo::new();
    let mut row: Vec<(u64, f64)> = Vec::new();
    for i in 0..n {
        let gi = start + i as u64;
        if let Some(ci) = split.coarse_index[i] {
            coo.push(gi, ci, 1.0);
            continue;
        }
        // Strong-column membership for this row.
        let (s_dcols, _) = s.diag.row(i);
        let (s_ocols, _) = s.offd.row(i);
        let is_strong_diag = |c: usize| s_dcols.binary_search(&c).is_ok();
        let is_strong_offd = |c: usize| s_ocols.binary_search(&c).is_ok();

        // Pass 1: classify the row; `row` collects (coarse id, a_ij) of
        // the strong C-neighbours.
        row.clear();
        let mut a_ii = 0.0;
        let mut sum_weak = 0.0; // Σ over weak neighbours
        let mut sum_strong_f = 0.0; // Σ over strong F-neighbours
        let mut sum_strong_c = 0.0; // Σ over strong C-neighbours
        let (dc, dv) = a.diag.row(i);
        for (&c, &v) in dc.iter().zip(dv) {
            if c == i {
                a_ii = v;
            } else if is_strong_diag(c) {
                if let Some(cj) = split.coarse_index[c] {
                    sum_strong_c += v;
                    row.push((cj, v));
                } else {
                    sum_strong_f += v;
                }
            } else {
                sum_weak += v;
            }
        }
        let (oc, ov) = a.offd.row(i);
        for (&c, &v) in oc.iter().zip(ov) {
            if is_strong_offd(c) {
                if ext_cid[c] != u64::MAX {
                    sum_strong_c += v;
                    row.push((ext_cid[c], v));
                } else {
                    sum_strong_f += v;
                }
            } else {
                sum_weak += v;
            }
        }
        if row.is_empty() {
            continue; // PMIS F-point without C-neighbours: zero row.
        }
        // Pass 2: weights, in place.
        let n_cs = row.len() as f64;
        if bamg {
            // Eq. (2): w_ij = −(a_ij + β_i/n_Cs)/(a_ii + Σ_weak a_ik),
            // β_i = strong-F mass.
            let denom = a_ii + sum_weak;
            if denom == 0.0 {
                continue;
            }
            for (_, w) in row.iter_mut() {
                *w = -(*w + sum_strong_f / n_cs) / denom;
            }
        } else {
            // Classical direct interpolation (Stüben): w_ij =
            // −α_i·a_ij/a_ii with α = (Σ off-diag)/(Σ strong C).
            if a_ii == 0.0 || sum_strong_c == 0.0 {
                continue;
            }
            let alpha = (sum_weak + sum_strong_f + sum_strong_c) / sum_strong_c;
            for (_, w) in row.iter_mut() {
                *w = -alpha * *w / a_ii;
            }
        }
        push_row(&mut coo, gi, &mut row, trunc_factor);
    }
    drop(k);
    Ok(ParCsr::from_global_coo(rank, dist, split.coarse_dist.clone(), &coo))
}

/// Build the MM-ext (or MM-ext+i) interpolation operator from a CF
/// splitting and the strength pattern `s` of `a`. Pulls the coarse ids
/// and the F ids of `a`'s external columns in two halo exchanges, whose
/// failure is returned. Collective.
pub fn mm_ext_interpolation(
    rank: &Rank,
    a: &ParCsr,
    s: &ParCsr,
    split: &CfSplit,
    plus_i: bool,
    trunc_factor: f64,
) -> Result<ParCsr, SolveError> {
    let me = rank.rank();
    let dist = a.row_dist().clone();
    let start = dist.start(me);
    let n = dist.local_n(me);

    // F-point numbering (contiguous per rank, like the coarse numbering).
    let (f_dist, f_index) = numbering(rank, split.coarse_index.iter().map(Option::is_none).collect());
    let ext_cid = ext_ids(rank, a, &split.coarse_index)?;
    let ext_fid = ext_ids(rank, a, &f_index)?;
    for (c, (&cid, &fid)) in ext_cid.iter().zip(&ext_fid).enumerate() {
        assert_ne!(
            cid == u64::MAX,
            fid == u64::MAX,
            "ext point gid {} has a coarse id and an F id, or neither (cid={cid}, fid={fid})",
            a.global_offd_col(c),
        );
    }

    // Build M1 = (D_FF + D_γ)⁻¹ (Aˢ_FF + D_β) and M2 = D_β⁻¹ Aˢ_FC
    // row by row (all classification and scaling is row-local): each row
    // is sorted in its buffer and appended in row order.
    let nnz = a.local_nnz() as u64;
    let k = rank.kernel("interp_mm_ext");
    k.launch(n, (nnz * 24, nnz * 2));
    let mut m1 = Coo::new();
    let mut m2 = Coo::new();
    let mut m1_row: Vec<(u64, f64)> = Vec::new();
    let mut m2_row: Vec<(u64, f64)> = Vec::new();
    for i in 0..n {
        let Some(fi) = f_index[i] else {
            continue;
        };
        let (s_dcols, _) = s.diag.row(i);
        let (s_ocols, _) = s.offd.row(i);
        let is_strong_diag = |c: usize| s_dcols.binary_search(&c).is_ok();
        let is_strong_offd = |c: usize| s_ocols.binary_search(&c).is_ok();

        // Pass 1: D_β, D_γ, D_FF.
        let mut d_ff = 0.0;
        let mut d_beta = 0.0; // Σ strong FC
        let mut d_gamma = 0.0; // Σ weak FF + weak FC
        let (dc, dv) = a.diag.row(i);
        for (&c, &v) in dc.iter().zip(dv) {
            if c == i {
                d_ff = v;
            } else if is_strong_diag(c) {
                if split.coarse_index[c].is_some() {
                    d_beta += v;
                }
                // strong FF handled in pass 2
            } else {
                d_gamma += v;
            }
        }
        let (oc, ov) = a.offd.row(i);
        for (&c, &v) in oc.iter().zip(ov) {
            if is_strong_offd(c) {
                if ext_cid[c] != u64::MAX {
                    d_beta += v;
                }
            } else {
                d_gamma += v;
            }
        }
        let m1_denom = d_ff + d_gamma;
        if d_beta == 0.0 || m1_denom == 0.0 {
            continue; // no strong C reachable: zero row
        }
        // Pass 2: emit scaled rows.
        // M1 diagonal: D_β/(D_FF + D_γ).
        m1_row.clear();
        m2_row.clear();
        m1_row.push((fi, d_beta / m1_denom));
        for (&c, &v) in dc.iter().zip(dv) {
            if c != i && is_strong_diag(c) {
                if let Some(cj) = split.coarse_index[c] {
                    m2_row.push((cj, v / d_beta));
                } else {
                    m1_row.push((f_index[c].unwrap(), v / m1_denom));
                }
            }
        }
        for (&c, &v) in oc.iter().zip(ov) {
            if is_strong_offd(c) {
                if ext_cid[c] != u64::MAX {
                    m2_row.push((ext_cid[c], v / d_beta));
                } else {
                    m1_row.push((ext_fid[c], v / m1_denom));
                }
            }
        }
        for (coo, row) in [(&mut m1, &mut m1_row), (&mut m2, &mut m2_row)] {
            row.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in row.iter() {
                coo.push(fi, c, v);
            }
        }
    }
    drop(k);
    let m1 = ParCsr::from_global_coo(rank, f_dist.clone(), f_dist.clone(), &m1);
    let m2 = ParCsr::from_global_coo(rank, f_dist.clone(), split.coarse_dist.clone(), &m2);
    let mut w = distmat::ops::par_spgemm(rank, &m1, &m2);
    w.scale(-1.0);

    // Assemble P in one pass over the points: C rows get identity, F rows
    // their W row (optionally "+i"-rescaled to sum to one, preserving
    // constants exactly).
    let mut coo = Coo::new();
    let mut row: Vec<(u64, f64)> = Vec::new();
    let mut lf = 0;
    for (i, ci) in split.coarse_index.iter().enumerate() {
        let gi = start + i as u64;
        if let Some(ci) = ci {
            coo.push(gi, *ci, 1.0);
            continue;
        }
        row.clear();
        let (wc, wv) = w.diag.row(lf);
        row.extend(wc.iter().zip(wv).map(|(&c, &v)| (w.global_diag_col(c), v)));
        let (wc, wv) = w.offd.row(lf);
        row.extend(wc.iter().zip(wv).map(|(&c, &v)| (w.global_offd_col(c), v)));
        lf += 1;
        if plus_i {
            let sum: f64 = row.iter().map(|&(_, v)| v).sum();
            if sum.abs() > 1e-12 {
                let scale = 1.0 / sum;
                for (_, v) in row.iter_mut() {
                    *v *= scale;
                }
            }
        }
        push_row(&mut coo, gi, &mut row, trunc_factor);
    }
    Ok(ParCsr::from_global_coo(rank, dist, split.coarse_dist.clone(), &coo))
}

/// Dispatch on the configured interpolation family; a failed id
/// exchange is returned. Collective.
pub fn build_interpolation(
    rank: &Rank,
    a: &ParCsr,
    s: &ParCsr,
    split: &CfSplit,
    interp: InterpType,
    trunc_factor: f64,
) -> Result<ParCsr, SolveError> {
    match interp {
        InterpType::Direct => direct_interpolation(rank, a, s, split, false, trunc_factor),
        InterpType::BamgDirect => direct_interpolation(rank, a, s, split, true, trunc_factor),
        InterpType::MmExt => mm_ext_interpolation(rank, a, s, split, false, trunc_factor),
        InterpType::MmExtI => mm_ext_interpolation(rank, a, s, split, true, trunc_factor),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pmis::pmis;
    use crate::strength::classical;
    use distmat::RowDist;
    use parcomm::Comm;
    use sparse_kit::{Coo as SCoo, Csr};

    fn laplacian_2d(nx: usize) -> Csr {
        let id = |i: usize, j: usize| (i * nx + j) as u64;
        let mut coo = SCoo::new();
        for i in 0..nx {
            for j in 0..nx {
                let mut diag = 0.0;
                let push = |r: u64, c: u64, coo: &mut SCoo| {
                    coo.push(r, c, -1.0);
                };
                if i > 0 {
                    push(id(i, j), id(i - 1, j), &mut coo);
                    diag += 1.0;
                }
                if i + 1 < nx {
                    push(id(i, j), id(i + 1, j), &mut coo);
                    diag += 1.0;
                }
                if j > 0 {
                    push(id(i, j), id(i, j - 1), &mut coo);
                    diag += 1.0;
                }
                if j + 1 < nx {
                    push(id(i, j), id(i, j + 1), &mut coo);
                    diag += 1.0;
                }
                coo.push(id(i, j), id(i, j), diag);
            }
        }
        let n = nx * nx;
        Csr::from_coo(n, n, &coo)
    }

    /// P gathered, and the global C-point flags.
    fn build_p(serial: Csr, nranks: usize, interp: InterpType) -> (Csr, Vec<bool>) {
        let n = serial.nrows() as u64;
        let out = Comm::run(nranks, move |rank| {
            let dist = RowDist::block(n, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            let s = classical(rank, &a, 0.25);
            let split = pmis(rank, &s, 11).unwrap();
            let p = build_interpolation(rank, &a, &s, &split, interp, 0.0).unwrap();
            (p.to_serial(rank), split.coarse_index)
        });
        let p = out[0].0.clone();
        let coarse = out.iter().flat_map(|(_, ci)| ci.iter().map(Option::is_some)).collect();
        (p, coarse)
    }

    #[test]
    fn c_rows_are_identity_for_all_interp_types() {
        for interp in [
            InterpType::Direct,
            InterpType::BamgDirect,
            InterpType::MmExt,
            InterpType::MmExtI,
        ] {
            let (p, coarse) = build_p(laplacian_2d(6), 2, interp);
            let mut coarse_seen = 0;
            for (i, &c) in coarse.iter().enumerate() {
                if c {
                    let (cols, vals) = p.row(i);
                    assert_eq!(cols.len(), 1, "{interp:?} row {i}");
                    assert_eq!(vals[0], 1.0);
                    coarse_seen += 1;
                }
            }
            assert!(coarse_seen > 0);
            assert_eq!(p.ncols(), coarse_seen);
        }
    }

    #[test]
    fn bamg_rows_sum_to_one_on_zero_rowsum_interior() {
        // Neumann-like zero-row-sum matrix: every F row of P must sum to 1
        // (constants interpolated exactly).
        let (p, coarse) = build_p(laplacian_2d(8), 2, InterpType::BamgDirect);
        for (i, &c) in coarse.iter().enumerate() {
            if !c {
                let sum: f64 = p.row(i).1.iter().sum();
                if !p.row(i).0.is_empty() {
                    assert!((sum - 1.0).abs() < 1e-10, "row {i} sums to {sum}");
                }
            }
        }
    }

    #[test]
    fn mm_ext_plus_i_rows_sum_to_one() {
        let (p, coarse) = build_p(laplacian_2d(8), 3, InterpType::MmExtI);
        for (i, &c) in coarse.iter().enumerate() {
            if !c && !p.row(i).0.is_empty() {
                let sum: f64 = p.row(i).1.iter().sum();
                assert!((sum - 1.0).abs() < 1e-10, "row {i} sums to {sum}");
            }
        }
    }

    #[test]
    fn mm_ext_reaches_distance_two() {
        // MM-ext rows may include C-points at distance 2 (through strong
        // F-F links), so F rows generally have more interpolation points
        // than direct rows.
        let (p_dir, _) = build_p(laplacian_2d(8), 2, InterpType::Direct);
        let (p_ext, _) = build_p(laplacian_2d(8), 2, InterpType::MmExt);
        assert!(
            p_ext.nnz() >= p_dir.nnz(),
            "ext={} dir={}",
            p_ext.nnz(),
            p_dir.nnz()
        );
    }

    #[test]
    fn interpolation_identical_across_rank_counts() {
        for interp in [InterpType::BamgDirect, InterpType::MmExt] {
            let (p1, _) = build_p(laplacian_2d(6), 1, interp);
            let (p3, _) = build_p(laplacian_2d(6), 3, interp);
            let (d1, d3) = (p1.to_dense(), p3.to_dense());
            for (r1, r3) in d1.iter().zip(&d3) {
                for (a, b) in r1.iter().zip(r3) {
                    assert!((a - b).abs() < 1e-12, "{interp:?}");
                }
            }
        }
    }

    /// Point-to-point messages this rank sent while `f` ran.
    fn msgs_sent(rank: &Rank, f: impl FnOnce()) -> u64 {
        let before = rank.trace_snapshot().total().msgs;
        f();
        rank.trace_snapshot().total().msgs - before
    }

    #[test]
    fn interpolation_pulls_one_halo_round_per_id_vector() {
        // On 2 ranks each rank has one neighbour, so a halo round is one
        // message, and so is a new matrix's halo request.
        let serial = laplacian_2d(8);
        let n = serial.nrows() as u64;
        let out = Comm::run(2, move |rank| {
            let dist = RowDist::block(n, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            let s = classical(rank, &a, 0.25);
            let split = pmis(rank, &s, 11).unwrap();
            let round = msgs_sent(rank, || {
                a.halo().try_exchange(rank, &vec![0u64; a.local_rows()]).unwrap();
            });
            let sent = [InterpType::Direct, InterpType::BamgDirect, InterpType::MmExt].map(|interp| {
                msgs_sent(rank, || {
                    build_interpolation(rank, &a, &s, &split, interp, 0.0).unwrap();
                })
            });
            (round, sent)
        });
        for (round, [direct, bamg, mm_ext]) in out {
            assert_eq!(round, 1);
            // Direct: the coarse ids, then P's halo request.
            assert_eq!((direct, bamg), (round + 1, round + 1));
            // MM-ext: the coarse ids and the F ids, then the halo requests
            // of M2, W and P (M1 has no external column on this split, so
            // W fetches no row).
            assert_eq!(mm_ext, 2 * round + 3);
        }
    }

    #[test]
    fn truncation_drops_small_weights_and_preserves_sums() {
        let mut row = vec![(0u64, 0.5), (1, 0.45), (2, 0.04), (3, 0.01)];
        let before: f64 = row.iter().map(|&(_, v)| v).sum();
        truncate_row(&mut row, 0.2);
        assert_eq!(row.iter().map(|&(c, _)| c).collect::<Vec<_>>(), vec![0, 1]);
        let after: f64 = row.iter().map(|&(_, v)| v).sum();
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn truncation_zero_factor_is_noop() {
        let mut row = vec![(0u64, 1.0), (1, 1e-9)];
        truncate_row(&mut row, 0.0);
        assert_eq!(row.len(), 2);
    }

    #[test]
    fn interpolation_recovers_constant_vector() {
        // P·1_c == 1 on F rows with interpolation (Galerkin consistency).
        let (p, _) = build_p(laplacian_2d(8), 2, InterpType::MmExtI);
        let ones = vec![1.0; p.ncols()];
        let px = p.spmv(&ones);
        for (i, v) in px.iter().enumerate() {
            if !p.row(i).0.is_empty() {
                assert!((v - 1.0).abs() < 1e-10, "row {i}: {v}");
            }
        }
    }
}
