//! PMIS coarsening (De Sterck, Yang, Heys [33]) — the only coarsening
//! BoomerAMG provides on GPUs.
//!
//! A modified Luby algorithm: every point gets a measure
//! `λ_i + rand_i` where λ_i counts the points it strongly influences;
//! undecided points that locally maximize the measure over their
//! undecided strong neighbours become C-points simultaneously, and
//! undecided points that strongly depend on a C-point become F-points.
//! The process is massively parallel — each round is a halo exchange plus
//! an independent sweep — which is what makes it "appropriate for GPUs"
//! (§4.1). Randomness is seeded per global id, so any rank count yields
//! the same splitting.

use distmat::{Halo, ParCsr, RowDist};
use parcomm::{KernelKind, Rank};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Result of a coarsening pass: a point is a C-point iff it has a
/// coarse id, and an F-point otherwise.
#[derive(Clone, Debug)]
pub struct CfSplit {
    /// Distribution of the coarse points across ranks.
    pub coarse_dist: RowDist,
    /// Global coarse id of each local point (C-points only).
    pub coarse_index: Vec<Option<u64>>,
}

/// Number the flagged points contiguously per rank, in local order:
/// the distribution of the numbered points and each local point's id
/// (flagged points only). Collective.
pub(crate) fn numbering(rank: &Rank, flagged: Vec<bool>) -> (RowDist, Vec<Option<u64>>) {
    let dist = RowDist::from_local_size(rank, flagged.iter().filter(|&&f| f).count());
    let mut next = dist.start(rank.rank());
    let ids = flagged
        .into_iter()
        .map(|f| {
            f.then(|| {
                next += 1;
                next - 1
            })
        })
        .collect();
    (dist, ids)
}

/// Where a neighbour's data lives.
#[derive(Clone, Copy, Debug)]
enum Loc {
    Local(usize),
    Ext(usize),
}

const UNDECIDED: u64 = 0;
const C_PT: u64 = 1;
const F_PT: u64 = 2;

/// Deterministic per-point random fraction in [0, 1).
fn point_rand(seed: u64, gid: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(gid.wrapping_mul(0xD1B5_4A32_D192_ED03)),
    );
    rng.gen::<f64>()
}

/// Run PMIS on the strength pattern `s` (square, no diagonal entries).
/// Collective.
pub fn pmis(rank: &Rank, s: &ParCsr, seed: u64) -> CfSplit {
    let me = rank.rank();
    let dist = s.row_dist().clone();
    let n = dist.local_n(me);
    let start = dist.start(me);

    // Sᵀ, for the influence counts λ and the symmetrized adjacency.
    let st = distmat::ops::par_transpose(rank, s);

    // λ_i = number of points strongly influenced by i = |row i of Sᵀ|.
    // Per-point and seeded per gid, so any rank count draws the same.
    let k = rank.kernel("pmis_weights", KernelKind::Stream);
    k.launch(n, ((n as u64) * 16, n as u64));
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            let lambda = (st.diag.row(i).0.len() + st.offd.row(i).0.len()) as f64;
            lambda + point_rand(seed, start + i as u64)
        })
        .collect();
    drop(k);

    // Symmetrized adjacency per local row, as (gid, location) pairs, and
    // the dependence set S_i for the F-designation rule.
    let mut ext_gids: Vec<u64> = Vec::new();
    let collect_ext = |gid: u64, ext_gids: &mut Vec<u64>| {
        if dist.owner(gid) != me {
            ext_gids.push(gid);
        }
    };
    for i in 0..n {
        for &c in s.offd.row(i).0 {
            collect_ext(s.global_offd_col(c), &mut ext_gids);
        }
        for &c in st.offd.row(i).0 {
            collect_ext(st.global_offd_col(c), &mut ext_gids);
        }
    }
    ext_gids.sort_unstable();
    ext_gids.dedup();
    let halo = Halo::new(rank, &dist, ext_gids);
    let locate = |gid: u64| -> Loc {
        if dist.owner(gid) == me {
            Loc::Local((gid - start) as usize)
        } else {
            Loc::Ext(halo.col_map().binary_search(&gid).unwrap())
        }
    };

    // Symmetrised neighbours (as `(gid, location)` pairs) and dependence
    // sets S_i (locations) of every point, in two flat arrays with row
    // offsets.
    let (mut sym, mut sym_ptr) = (Vec::new(), vec![0usize]);
    let (mut deps, mut dep_ptr) = (Vec::new(), vec![0usize]);
    let mut nbrs: Vec<u64> = Vec::new();
    for i in 0..n {
        let gi = start + i as u64;
        let strong = s.diag.row(i).0.iter().map(|&c| start + c as u64);
        let strong = strong.chain(s.offd.row(i).0.iter().map(|&c| s.global_offd_col(c)));
        nbrs.extend(strong.clone());
        deps.extend(strong.filter(|&g| g != gi).map(locate));
        dep_ptr.push(deps.len());
        nbrs.extend(st.diag.row(i).0.iter().map(|&c| start + c as u64));
        nbrs.extend(st.offd.row(i).0.iter().map(|&c| st.global_offd_col(c)));
        nbrs.sort_unstable();
        nbrs.dedup();
        sym.extend(nbrs.drain(..).filter(|&g| g != gi).map(|g| (g, locate(g))));
        sym_ptr.push(sym.len());
    }
    let sym_of = |i: usize| &sym[sym_ptr[i]..sym_ptr[i + 1]];

    // Exchange weights once; states every round.
    let ext_w = halo.exchange(rank, &weights);
    let mut states = vec![UNDECIDED; n];
    // Points with no strong neighbours at all are F-points immediately
    // (nothing to interpolate from, smoother handles them).
    for (i, st0) in states.iter_mut().enumerate() {
        if sym_of(i).is_empty() {
            *st0 = F_PT;
        }
    }

    loop {
        let undecided = states.iter().filter(|&&st0| st0 == UNDECIDED).count() as u64;
        if rank.allreduce_sum(undecided) == 0 {
            break;
        }
        let ext_states = halo.exchange(rank, &states);
        let state_of = |loc: Loc, snapshot: &[u64], ext: &[u64]| -> u64 {
            match loc {
                Loc::Local(l) => snapshot[l],
                Loc::Ext(e) => ext[e],
            }
        };
        let weight_of = |loc: Loc| -> f64 {
            match loc {
                Loc::Local(l) => weights[l],
                Loc::Ext(e) => ext_w[e],
            }
        };
        let k = rank.kernel("pmis_round", KernelKind::Stream);
        k.launch(n, ((n as u64) * 24, n as u64));

        // Phase 1 (Jacobi-style on the state snapshot): undecided local
        // maxima among undecided neighbours become C. Every point's new
        // state is a pure function of the snapshot.
        let snapshot = states;
        states = (0..n)
            .map(|i| {
                if snapshot[i] != UNDECIDED {
                    return snapshot[i];
                }
                let gi = start + i as u64;
                let wins = sym_of(i).iter().all(|&(gj, loc)| {
                    if state_of(loc, &snapshot, &ext_states) != UNDECIDED {
                        return true;
                    }
                    let wj = weight_of(loc);
                    (weights[i], gi) > (wj, gj)
                });
                if wins {
                    C_PT
                } else {
                    UNDECIDED
                }
            })
            .collect();
        drop(k);
        // Phase 2: undecided points strongly depending on a C-point (old
        // or freshly chosen — local fresh C visible via the phase-1
        // result; remote fresh C visible next round) become F. Only
        // UNDECIDED→F transitions happen and only C states are read, so
        // sweeping over the phase-1 snapshot is equivalent to the
        // sequential in-place sweep.
        let ext_states2 = halo.exchange(rank, &states);
        let snapshot = states;
        states = (0..n)
            .map(|i| {
                if snapshot[i] != UNDECIDED {
                    return snapshot[i];
                }
                let depends_on_c = deps[dep_ptr[i]..dep_ptr[i + 1]].iter().any(|&loc| match loc {
                    Loc::Local(l) => snapshot[l] == C_PT,
                    Loc::Ext(e) => ext_states2[e] == C_PT,
                });
                if depends_on_c {
                    F_PT
                } else {
                    UNDECIDED
                }
            })
            .collect();
    }

    let (coarse_dist, coarse_index) = numbering(rank, states.iter().map(|&st0| st0 == C_PT).collect());
    CfSplit { coarse_dist, coarse_index }
}

/// Second-pass (A-1 aggressive) coarsening: PMIS on the `S² + S` pattern
/// restricted to the C-points of a first pass. Returns the composed
/// splitting relative to the *original* points: C-points of the result
/// are a subset of `first`'s C-points. Collective.
pub fn pmis_aggressive(rank: &Rank, s: &ParCsr, first: &CfSplit, seed: u64) -> CfSplit {
    let me = rank.rank();
    let dist = s.row_dist().clone();
    let n = dist.local_n(me);

    // S2 = S·S + S as a distributed pattern product.
    let ss = distmat::ops::par_spgemm(rank, s, s);
    let s2 = {
        // Union pattern: S·S + S via IJ assembly of both patterns.
        let mut ij = distmat::IjMatrix::new(rank, dist.clone(), dist.clone());
        let start = dist.start(me);
        for i in 0..n {
            let gi = start + i as u64;
            for &c in ss.diag.row(i).0 {
                ij.add_value(gi, ss.global_diag_col(c), 1.0);
            }
            for &c in ss.offd.row(i).0 {
                ij.add_value(gi, ss.global_offd_col(c), 1.0);
            }
            for &c in s.diag.row(i).0 {
                ij.add_value(gi, s.global_diag_col(c), 1.0);
            }
            for &c in s.offd.row(i).0 {
                ij.add_value(gi, s.global_offd_col(c), 1.0);
            }
        }
        ij.assemble(rank)
    };

    // Restrict the S2 pattern to the CC block in first-pass coarse
    // numbering, building a small ParCsr on the coarse distribution.
    let cdist = first.coarse_dist.clone();
    let start = dist.start(me);
    // Coarse ids of external columns of s2, over its own halo.
    let local_cids: Vec<u64> = first.coarse_index.iter().map(|ci| ci.unwrap_or(u64::MAX)).collect();
    let ext_cids = s2.halo().exchange(rank, &local_cids);
    let mut cc = sparse_kit::Coo::new();
    let mut row: Vec<u64> = Vec::new();
    for i in 0..n {
        let Some(ci) = first.coarse_index[i] else {
            continue;
        };
        for &c in s2.diag.row(i).0 {
            let gj = s2.global_diag_col(c);
            if gj == start + i as u64 {
                continue;
            }
            let lj = (gj - start) as usize;
            row.extend(first.coarse_index[lj]);
        }
        row.extend(s2.offd.row(i).0.iter().map(|&c| ext_cids[c]).filter(|&cj| cj != u64::MAX));
        row.sort_unstable();
        row.drain(..).for_each(|cj| cc.push(ci, cj, 1.0));
    }
    let s2cc = ParCsr::from_global_coo(rank, cdist.clone(), cdist.clone(), &cc);

    // PMIS on the restricted pattern, then compose back onto the
    // original points: a first-pass C-point stays coarse iff the second
    // pass kept it.
    let second = pmis(rank, &s2cc, seed ^ 0xA66);
    let coarse = first
        .coarse_index
        .iter()
        .map(|ci| ci.is_some_and(|ci| second.coarse_index[(ci - cdist.start(me)) as usize].is_some()))
        .collect();
    let (coarse_dist, coarse_index) = numbering(rank, coarse);
    CfSplit { coarse_dist, coarse_index }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strength::classical;
    use parcomm::Comm;
    use sparse_kit::{Coo, Csr};

    fn laplacian_1d(n: usize) -> Csr {
        let mut coo = Coo::new();
        for i in 0..n as u64 {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n as u64 {
                coo.push(i, i + 1, -1.0);
            }
        }
        Csr::from_coo(n, n, &coo)
    }

    fn laplacian_2d(nx: usize) -> Csr {
        let id = |i: usize, j: usize| (i * nx + j) as u64;
        let mut coo = Coo::new();
        for i in 0..nx {
            for j in 0..nx {
                coo.push(id(i, j), id(i, j), 4.0);
                if i > 0 {
                    coo.push(id(i, j), id(i - 1, j), -1.0);
                }
                if i + 1 < nx {
                    coo.push(id(i, j), id(i + 1, j), -1.0);
                }
                if j > 0 {
                    coo.push(id(i, j), id(i, j - 1), -1.0);
                }
                if j + 1 < nx {
                    coo.push(id(i, j), id(i, j + 1), -1.0);
                }
            }
        }
        let n = nx * nx;
        Csr::from_coo(n, n, &coo)
    }

    fn run_pmis(serial: Csr, nranks: usize) -> Vec<Vec<Option<u64>>> {
        let n = serial.nrows() as u64;
        Comm::run(nranks, move |rank| {
            let dist = RowDist::block(n, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            let s = classical(rank, &a, 0.25);
            pmis(rank, &s, 7).coarse_index
        })
    }

    /// Gather the global C-point flags from per-rank coarse ids.
    fn global_coarse(parts: &[Vec<Option<u64>>]) -> Vec<bool> {
        parts.iter().flatten().map(Option::is_some).collect()
    }

    #[test]
    fn pmis_is_independent_set_in_strength_graph() {
        let serial = laplacian_2d(8);
        for p in [1, 2, 4] {
            let coarse = global_coarse(&run_pmis(serial.clone(), p));
            // No two adjacent (strongly connected) points are both C.
            for i in (0..serial.nrows()).filter(|&i| coarse[i]) {
                for &j in serial.row(i).0 {
                    assert!(j == i || !coarse[j], "adjacent C-C pair ({i},{j}) at p={p}");
                }
            }
        }
    }

    #[test]
    fn pmis_is_maximal_every_f_sees_a_c() {
        let serial = laplacian_2d(8);
        let coarse = global_coarse(&run_pmis(serial.clone(), 2));
        for i in (0..serial.nrows()).filter(|&i| !coarse[i]) {
            let sees_c = serial.row(i).0.iter().any(|&j| j != i && coarse[j]);
            assert!(sees_c, "F-point {i} has no C neighbour");
        }
    }

    #[test]
    fn pmis_deterministic_across_rank_counts() {
        let serial = laplacian_1d(20);
        let s1 = global_coarse(&run_pmis(serial.clone(), 1));
        let s2 = global_coarse(&run_pmis(serial.clone(), 2));
        let s4 = global_coarse(&run_pmis(serial, 4));
        assert_eq!(s1, s2);
        assert_eq!(s1, s4);
    }

    #[test]
    fn coarse_indices_are_contiguous_per_rank() {
        let serial = laplacian_1d(16);
        let parts = run_pmis(serial, 2);
        let mut all: Vec<u64> = parts
            .iter()
            .flat_map(|ci| ci.iter().flatten().copied().collect::<Vec<_>>())
            .collect();
        let n_coarse = all.len();
        all.sort();
        let expected: Vec<u64> = (0..n_coarse as u64).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn isolated_points_become_fine() {
        Comm::run(1, |rank| {
            let serial = Csr::from_dense(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
            let dist = RowDist::block(2, 1);
            let a = ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            let s = classical(rank, &a, 0.25);
            let split = pmis(rank, &s, 0);
            assert!(split.coarse_index.iter().all(Option::is_none));
            assert_eq!(split.coarse_dist.global_n(), 0);
        });
    }

    #[test]
    fn aggressive_coarsens_further() {
        let serial = laplacian_2d(10);
        let n = serial.nrows() as u64;
        let out = Comm::run(2, move |rank| {
            let dist = RowDist::block(n, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            let s = classical(rank, &a, 0.25);
            let first = pmis(rank, &s, 7);
            let agg = pmis_aggressive(rank, &s, &first, 7);
            (
                first.coarse_dist.global_n(),
                agg.coarse_dist.global_n(),
            )
        });
        let (n1, n2) = out[0];
        assert!(n1 > 0 && n2 > 0);
        assert!(n2 < n1, "aggressive must coarsen further: {n1} -> {n2}");
        // PMIS on a 2-D Laplacian keeps roughly 1/4 of points; aggressive
        // roughly squares the reduction.
        assert!(n2 as f64 <= 0.6 * n1 as f64, "{n1} -> {n2}");
    }

    #[test]
    fn aggressive_c_points_subset_of_first_pass() {
        let serial = laplacian_2d(8);
        let n = serial.nrows() as u64;
        Comm::run(2, move |rank| {
            let dist = RowDist::block(n, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            let s = classical(rank, &a, 0.25);
            let first = pmis(rank, &s, 3);
            let agg = pmis_aggressive(rank, &s, &first, 3);
            for (f, g) in first.coarse_index.iter().zip(&agg.coarse_index) {
                assert!(g.is_none() || f.is_some());
            }
        });
    }
}
