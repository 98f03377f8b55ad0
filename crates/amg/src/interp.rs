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

use distmat::{Halo, ParCsr, RowDist};
use parcomm::{KernelKind, Rank};
use rayon::prelude::*;
use sparse_kit::Coo;

use crate::config::InterpType;
use crate::pmis::{CfSplit, CfState};

/// Ext-point info pulled over A's halo: state and coarse id (and, for the
/// MM operators, F id) per external column. All values travel in a single
/// packed exchange so they are mutually consistent by construction.
struct ExtInfo {
    is_coarse: Vec<bool>,
    coarse_id: Vec<u64>,
    f_id: Vec<u64>,
}

fn exchange_ext_info(
    rank: &Rank,
    a: &ParCsr,
    split: &CfSplit,
    f_index: Option<&[Option<u64>]>,
) -> ExtInfo {
    let halo = Halo::new(rank, a.row_dist(), a.col_map_offd.clone());
    // Pack (state, coarse id, f id) into one word triple-exchange: packed
    // as three sequential exchanges over the SAME halo object would also
    // be consistent, but a single packed array removes even the
    // possibility of skew.
    let n = split.states.len();
    let mut packed = vec![0u64; 3 * n];
    for i in 0..n {
        packed[3 * i] = if split.states[i] == CfState::Coarse { 1 } else { 0 };
        packed[3 * i + 1] = split.coarse_index[i].unwrap_or(u64::MAX);
        packed[3 * i + 2] = f_index
            .map(|f| f[i].unwrap_or(u64::MAX))
            .unwrap_or(u64::MAX);
    }
    // Exchange triple-width values by building a halo over a widened view:
    // simplest correct approach — three exchanges over one halo (FIFO per
    // pair on a dedicated tag keeps them aligned).
    let states: Vec<u64> = (0..n).map(|i| packed[3 * i]).collect();
    let cids: Vec<u64> = (0..n).map(|i| packed[3 * i + 1]).collect();
    let fids: Vec<u64> = (0..n).map(|i| packed[3 * i + 2]).collect();
    let ext_states = halo.exchange_u64(rank, &states);
    let ext_cids = halo.exchange_u64(rank, &cids);
    let ext_fids = halo.exchange_u64(rank, &fids);
    // Cross-consistency: a point is Coarse iff it has a coarse id; Fine
    // iff it has an F id (when f ids were provided).
    for c in 0..ext_states.len() {
        let coarse = ext_states[c] == 1;
        assert_eq!(
            coarse,
            ext_cids[c] != u64::MAX,
            "ext point gid {} state/cid mismatch (state={}, cid={})",
            a.global_offd_col(c),
            ext_states[c],
            ext_cids[c],
        );
        if f_index.is_some() {
            assert_eq!(
                !coarse,
                ext_fids[c] != u64::MAX,
                "ext point gid {} state/fid mismatch (state={}, fid={})",
                a.global_offd_col(c),
                ext_states[c],
                ext_fids[c],
            );
        }
    }
    ExtInfo {
        is_coarse: ext_states.iter().map(|&s| s == 1).collect(),
        coarse_id: ext_cids,
        f_id: ext_fids,
    }
}

/// Truncate an interpolation row: drop weights below `factor · max|w|`,
/// then rescale so the row sum is preserved (hypre's truncation).
fn truncate_row(cols: &mut Vec<u64>, vals: &mut Vec<f64>, factor: f64) {
    if factor <= 0.0 || vals.is_empty() {
        return;
    }
    let max_abs = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let cut = factor * max_abs;
    let old_sum: f64 = vals.iter().sum();
    let mut k = 0;
    for i in 0..vals.len() {
        if vals[i].abs() >= cut {
            cols[k] = cols[i];
            vals[k] = vals[i];
            k += 1;
        }
    }
    cols.truncate(k);
    vals.truncate(k);
    let new_sum: f64 = vals.iter().sum();
    if new_sum != 0.0 && old_sum != 0.0 {
        let scale = old_sum / new_sum;
        for v in vals.iter_mut() {
            *v *= scale;
        }
    }
}

/// Build direct (or BAMG-direct) interpolation from a CF splitting.
/// Collective.
pub fn direct_interpolation(
    rank: &Rank,
    a: &ParCsr,
    s: &crate::strength::Strength,
    split: &CfSplit,
    bamg: bool,
    trunc_factor: f64,
) -> ParCsr {
    let me = rank.rank();
    let dist = a.row_dist().clone();
    let start = dist.start(me);
    let n = dist.local_n(me);
    let ext = exchange_ext_info(rank, a, split, None);
    let nnz = a.local_nnz() as u64;
    let k = rank.kernel("interp_direct", KernelKind::Stream);
    k.launch(n, (nnz * 16, nnz));

    // Every interpolation row depends only on row i of A/S and the halo
    // info, so the Eq.-(2) weights are computed in a parallel map; the
    // rows are then emitted in ascending row order for a deterministic
    // operator at any thread count.
    let rows: Vec<Vec<(u64, f64)>> = (0..n)
        .into_par_iter()
        .map(|i| {
        if let Some(ci) = split.coarse_index[i] {
            return vec![(ci, 1.0)];
        }
        // Strong-column membership for this row.
        let (s_dcols, _) = s.sdiag.row(i);
        let (s_ocols, _) = s.soffd.row(i);
        let is_strong_diag = |c: usize| s_dcols.binary_search(&c).is_ok();
        let is_strong_offd = |c: usize| s_ocols.binary_search(&c).is_ok();

        // Pass 1: classify the row.
        let mut a_ii = 0.0;
        let mut sum_weak = 0.0; // Σ over weak neighbours
        let mut sum_strong_f = 0.0; // Σ over strong F-neighbours
        let mut sum_strong_c = 0.0; // Σ over strong C-neighbours
        let mut strong_c: Vec<(u64, f64)> = Vec::new(); // (coarse id, a_ij)
        let (dc, dv) = a.diag.row(i);
        for (&c, &v) in dc.iter().zip(dv) {
            if c == i {
                a_ii = v;
            } else if is_strong_diag(c) {
                if split.states[c] == CfState::Coarse {
                    sum_strong_c += v;
                    strong_c.push((split.coarse_index[c].unwrap(), v));
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
                if ext.is_coarse[c] {
                    sum_strong_c += v;
                    strong_c.push((ext.coarse_id[c], v));
                } else {
                    sum_strong_f += v;
                }
            } else {
                sum_weak += v;
            }
        }
        if strong_c.is_empty() {
            return Vec::new(); // PMIS F-point without C-neighbours: zero row.
        }
        // Pass 2: weights.
        let n_cs = strong_c.len() as f64;
        let mut cols: Vec<u64> = Vec::with_capacity(strong_c.len());
        let mut vals: Vec<f64> = Vec::with_capacity(strong_c.len());
        if bamg {
            // Eq. (2): w_ij = −(a_ij + β_i/n_Cs)/(a_ii + Σ_weak a_ik),
            // β_i = strong-F mass.
            let denom = a_ii + sum_weak;
            if denom == 0.0 {
                return Vec::new();
            }
            for (cid, aij) in strong_c {
                cols.push(cid);
                vals.push(-(aij + sum_strong_f / n_cs) / denom);
            }
        } else {
            // Classical direct interpolation (Stüben): w_ij =
            // −α_i·a_ij/a_ii with α = (Σ off-diag)/(Σ strong C).
            if a_ii == 0.0 || sum_strong_c == 0.0 {
                return Vec::new();
            }
            let alpha = (sum_weak + sum_strong_f + sum_strong_c) / sum_strong_c;
            for (cid, aij) in strong_c {
                cols.push(cid);
                vals.push(-alpha * aij / a_ii);
            }
        }
        truncate_row(&mut cols, &mut vals, trunc_factor);
        cols.into_iter().zip(vals).collect()
        })
        .collect();
    let mut coo = Coo::new();
    for (i, row) in rows.into_iter().enumerate() {
        let gi = start + i as u64;
        for (c, v) in row {
            coo.push(gi, c, v);
        }
    }
    drop(k);
    ParCsr::from_global_coo(rank, dist, split.coarse_dist.clone(), &coo)
}

/// Build the MM-ext (or MM-ext+i) interpolation operator. Collective.
pub fn mm_ext_interpolation(
    rank: &Rank,
    a: &ParCsr,
    s: &crate::strength::Strength,
    split: &CfSplit,
    plus_i: bool,
    trunc_factor: f64,
) -> ParCsr {
    let me = rank.rank();
    let dist = a.row_dist().clone();
    let start = dist.start(me);
    let n = dist.local_n(me);

    // F-point numbering (contiguous per rank, like the coarse numbering).
    let n_f_local = split.states.iter().filter(|s| **s == CfState::Fine).count();
    let f_dist = RowDist::from_local_size(rank, n_f_local);
    let mut next_f = f_dist.start(me);
    let f_index: Vec<Option<u64>> = split
        .states
        .iter()
        .map(|s| {
            if *s == CfState::Fine {
                let id = next_f;
                next_f += 1;
                Some(id)
            } else {
                None
            }
        })
        .collect();
    let ext = exchange_ext_info(rank, a, split, Some(&f_index));
    let ext_fids = &ext.f_id;

    // Build M1 = (D_FF + D_γ)⁻¹ (Aˢ_FF + D_β) and M2 = D_β⁻¹ Aˢ_FC
    // row by row (all classification and scaling is row-local, hence a
    // parallel map; triples are emitted in row order afterwards).
    let nnz = a.local_nnz() as u64;
    let k = rank.kernel("interp_mm_ext", KernelKind::Stream);
    k.launch(n, (nnz * 24, nnz * 2));
    type Triples = Vec<(u64, u64, f64)>;
    let m_rows: Vec<(Triples, Triples)> = (0..n)
        .into_par_iter()
        .map(|i| {
            let mut m1: Triples = Vec::new();
            let mut m2: Triples = Vec::new();
            let Some(fi) = f_index[i] else {
                return (m1, m2);
            };
            let (s_dcols, _) = s.sdiag.row(i);
            let (s_ocols, _) = s.soffd.row(i);
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
                    if split.states[c] == CfState::Coarse {
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
                    if ext.is_coarse[c] {
                        d_beta += v;
                    }
                } else {
                    d_gamma += v;
                }
            }
            let m1_denom = d_ff + d_gamma;
            if d_beta == 0.0 || m1_denom == 0.0 {
                return (m1, m2); // no strong C reachable: zero row
            }
            // Pass 2: emit scaled rows.
            // M1 diagonal: D_β/(D_FF + D_γ).
            m1.push((fi, fi, d_beta / m1_denom));
            for (&c, &v) in dc.iter().zip(dv) {
                if c != i && is_strong_diag(c) {
                    if split.states[c] == CfState::Coarse {
                        m2.push((fi, split.coarse_index[c].unwrap(), v / d_beta));
                    } else {
                        m1.push((fi, f_index[c].unwrap(), v / m1_denom));
                    }
                }
            }
            for (&c, &v) in oc.iter().zip(ov) {
                if is_strong_offd(c) {
                    if ext.is_coarse[c] {
                        m2.push((fi, ext.coarse_id[c], v / d_beta));
                    } else {
                        let fj = ext_fids[c];
                        assert_ne!(
                            fj,
                            u64::MAX,
                            "ext col {} (gid {}) classified F but has no F id",
                            c,
                            a.global_offd_col(c)
                        );
                        m1.push((fi, fj, v / m1_denom));
                    }
                }
            }
            (m1, m2)
        })
        .collect();
    let mut m1 = Coo::new();
    let mut m2 = Coo::new();
    for (t1, t2) in &m_rows {
        for &(r, c, v) in t1 {
            m1.push(r, c, v);
        }
        for &(r, c, v) in t2 {
            m2.push(r, c, v);
        }
    }
    drop(k);
    let m1 = ParCsr::from_global_coo(rank, f_dist.clone(), f_dist.clone(), &m1);
    let m2 = ParCsr::from_global_coo(rank, f_dist.clone(), split.coarse_dist.clone(), &m2);
    let mut w = distmat::ops::par_spgemm(rank, &m1, &m2);
    w.scale(-1.0);

    // Assemble P: C rows get identity, F rows get their W row (optionally
    // "+i"-rescaled to sum to one, preserving constants exactly).
    let f_locals: Vec<usize> = (0..n).filter(|&i| split.states[i] == CfState::Fine).collect();
    let mut coo = Coo::new();
    for i in 0..n {
        if let Some(ci) = split.coarse_index[i] {
            coo.push(start + i as u64, ci, 1.0);
        }
    }
    let f_rows: Vec<Vec<(u64, f64)>> = (0..f_locals.len())
        .into_par_iter()
        .map(|lf| {
            let mut cols: Vec<u64> = Vec::new();
            let mut vals: Vec<f64> = Vec::new();
            let (wc, wv) = w.diag.row(lf);
            for (&c, &v) in wc.iter().zip(wv) {
                cols.push(w.global_diag_col(c));
                vals.push(v);
            }
            let (wc, wv) = w.offd.row(lf);
            for (&c, &v) in wc.iter().zip(wv) {
                cols.push(w.global_offd_col(c));
                vals.push(v);
            }
            if plus_i {
                let sum: f64 = vals.iter().sum();
                if sum.abs() > 1e-12 {
                    let scale = 1.0 / sum;
                    for v in vals.iter_mut() {
                        *v *= scale;
                    }
                }
            }
            truncate_row(&mut cols, &mut vals, trunc_factor);
            cols.into_iter().zip(vals).collect()
        })
        .collect();
    for (lf, &i) in f_locals.iter().enumerate() {
        let gi = start + i as u64;
        for &(c, v) in &f_rows[lf] {
            coo.push(gi, c, v);
        }
    }
    ParCsr::from_global_coo(rank, dist, split.coarse_dist.clone(), &coo)
}

/// Dispatch on the configured interpolation family. Collective.
pub fn build_interpolation(
    rank: &Rank,
    a: &ParCsr,
    s: &crate::strength::Strength,
    split: &CfSplit,
    interp: InterpType,
    trunc_factor: f64,
) -> ParCsr {
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
    use crate::strength::Strength;
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

    fn build_p(serial: Csr, nranks: usize, interp: InterpType) -> (Csr, Vec<CfState>) {
        let n = serial.nrows() as u64;
        let out = Comm::run(nranks, move |rank| {
            let dist = RowDist::block(n, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            let s = Strength::classical(rank, &a, 0.25);
            let split = pmis(rank, &a, &s, 11);
            let p = build_interpolation(rank, &a, &s, &split, interp, 0.0);
            (p.to_serial(rank), split.states)
        });
        let p = out[0].0.clone();
        let states: Vec<CfState> = out.iter().flat_map(|(_, s)| s.clone()).collect();
        (p, states)
    }

    #[test]
    fn c_rows_are_identity_for_all_interp_types() {
        for interp in [
            InterpType::Direct,
            InterpType::BamgDirect,
            InterpType::MmExt,
            InterpType::MmExtI,
        ] {
            let (p, states) = build_p(laplacian_2d(6), 2, interp);
            let mut coarse_seen = 0;
            for (i, st) in states.iter().enumerate() {
                if *st == CfState::Coarse {
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
        let (p, states) = build_p(laplacian_2d(8), 2, InterpType::BamgDirect);
        for (i, st) in states.iter().enumerate() {
            if *st == CfState::Fine {
                let sum: f64 = p.row(i).1.iter().sum();
                if !p.row(i).0.is_empty() {
                    assert!((sum - 1.0).abs() < 1e-10, "row {i} sums to {sum}");
                }
            }
        }
    }

    #[test]
    fn mm_ext_plus_i_rows_sum_to_one() {
        let (p, states) = build_p(laplacian_2d(8), 3, InterpType::MmExtI);
        for (i, st) in states.iter().enumerate() {
            if *st == CfState::Fine && !p.row(i).0.is_empty() {
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

    #[test]
    fn truncation_drops_small_weights_and_preserves_sums() {
        let mut cols = vec![0u64, 1, 2, 3];
        let mut vals = vec![0.5, 0.45, 0.04, 0.01];
        let before: f64 = vals.iter().sum();
        truncate_row(&mut cols, &mut vals, 0.2);
        assert_eq!(cols, vec![0, 1]);
        let after: f64 = vals.iter().sum();
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn truncation_zero_factor_is_noop() {
        let mut cols = vec![0u64, 1];
        let mut vals = vec![1.0, 1e-9];
        truncate_row(&mut cols, &mut vals, 0.0);
        assert_eq!(cols.len(), 2);
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
