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
use rayon::prelude::*;

use crate::strength::Strength;

/// Coarse/fine designation of a point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CfState {
    /// Coarse point: survives to the next level.
    Coarse,
    /// Fine point: interpolated from coarse neighbours.
    Fine,
}

/// Result of a coarsening pass.
#[derive(Clone, Debug)]
pub struct CfSplit {
    /// Per-local-point designation.
    pub states: Vec<CfState>,
    /// Distribution of the coarse points across ranks.
    pub coarse_dist: RowDist,
    /// Global coarse id of each local point (C-points only).
    pub coarse_index: Vec<Option<u64>>,
}

impl CfSplit {
    /// Number of local C-points.
    pub fn n_coarse_local(&self) -> usize {
        self.states.iter().filter(|s| **s == CfState::Coarse).count()
    }
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

/// Run PMIS on the strength pattern `s` of `a`. Collective.
pub fn pmis(rank: &Rank, a: &ParCsr, s: &Strength, seed: u64) -> CfSplit {
    let me = rank.rank();
    let dist = a.row_dist().clone();
    let n = dist.local_n(me);
    let start = dist.start(me);

    // Sᵀ, for the influence counts λ and the symmetrized adjacency.
    let sp = s.to_parcsr(rank, a);
    let st = distmat::ops::par_transpose(rank, &sp);

    // λ_i = number of points strongly influenced by i = |row i of Sᵀ|.
    // Per-point and seeded per gid, so the parallel map is deterministic.
    let k = rank.kernel("pmis_weights", KernelKind::Stream);
    k.launch(n, ((n as u64) * 16, n as u64));
    let weights: Vec<f64> = (0..n)
        .into_par_iter()
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
        for &c in s.soffd.row(i).0 {
            collect_ext(a.global_offd_col(c), &mut ext_gids);
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

    // Row-local adjacency construction: a parallel map over points.
    // One point's `(symmetrised neighbours, dependencies)` as `(gid, locator)` lists.
    type AdjRow = (Vec<(u64, Loc)>, Vec<(u64, Loc)>);
    let rows: Vec<AdjRow> = (0..n)
        .into_par_iter()
        .map(|i| {
            let mut nbrs: Vec<u64> = Vec::new();
            let mut dep: Vec<u64> = Vec::new();
            for &c in s.sdiag.row(i).0 {
                let g = start + c as u64;
                nbrs.push(g);
                dep.push(g);
            }
            for &c in s.soffd.row(i).0 {
                let g = a.global_offd_col(c);
                nbrs.push(g);
                dep.push(g);
            }
            for &c in st.diag.row(i).0 {
                nbrs.push(start + c as u64);
            }
            for &c in st.offd.row(i).0 {
                nbrs.push(st.global_offd_col(c));
            }
            nbrs.sort_unstable();
            nbrs.dedup();
            nbrs.retain(|&g| g != start + i as u64);
            dep.retain(|&g| g != start + i as u64);
            (
                nbrs.iter().map(|&g| (g, locate(g))).collect(),
                dep.iter().map(|&g| (g, locate(g))).collect(),
            )
        })
        .collect();
    let mut sym: Vec<Vec<(u64, Loc)>> = Vec::with_capacity(n);
    let mut deps: Vec<Vec<(u64, Loc)>> = Vec::with_capacity(n);
    for (nbrs, dep) in rows {
        sym.push(nbrs);
        deps.push(dep);
    }

    // Exchange weights once; states every round.
    let ext_w = halo.exchange_f64(rank, &weights);
    let mut states = vec![UNDECIDED; n];
    // Points with no strong neighbours at all are F-points immediately
    // (nothing to interpolate from, smoother handles them).
    for i in 0..n {
        if sym[i].is_empty() {
            states[i] = F_PT;
        }
    }

    loop {
        let undecided = states.iter().filter(|&&st0| st0 == UNDECIDED).count() as u64;
        if rank.allreduce_sum(undecided) == 0 {
            break;
        }
        let ext_states = halo.exchange_u64(rank, &states);
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
        // state is a pure function of the snapshot, so the sweep is a
        // parallel map.
        let snapshot = states;
        states = (0..n)
            .into_par_iter()
            .map(|i| {
                if snapshot[i] != UNDECIDED {
                    return snapshot[i];
                }
                let gi = start + i as u64;
                let wins = sym[i].iter().all(|&(gj, loc)| {
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
        let ext_states2 = halo.exchange_u64(rank, &states);
        let snapshot = states;
        states = (0..n)
            .into_par_iter()
            .map(|i| {
                if snapshot[i] != UNDECIDED {
                    return snapshot[i];
                }
                let depends_on_c = deps[i].iter().any(|&(_, loc)| match loc {
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

    // Coarse numbering: contiguous per rank, in local order.
    let n_coarse_local = states.iter().filter(|&&st0| st0 == C_PT).count();
    let coarse_dist = RowDist::from_local_size(rank, n_coarse_local);
    let mut next = coarse_dist.start(me);
    let coarse_index: Vec<Option<u64>> = states
        .iter()
        .map(|&st0| {
            if st0 == C_PT {
                let id = next;
                next += 1;
                Some(id)
            } else {
                None
            }
        })
        .collect();
    CfSplit {
        states: states
            .into_iter()
            .map(|st0| if st0 == C_PT { CfState::Coarse } else { CfState::Fine })
            .collect(),
        coarse_dist,
        coarse_index,
    }
}

/// Second-pass (A-1 aggressive) coarsening: PMIS on the `S² + S` pattern
/// restricted to the C-points of a first pass. Returns the composed
/// splitting relative to the *original* points: C-points of the result
/// are a subset of `first`'s C-points. Collective.
pub fn pmis_aggressive(
    rank: &Rank,
    a: &ParCsr,
    s: &Strength,
    first: &CfSplit,
    seed: u64,
) -> CfSplit {
    let me = rank.rank();
    let dist = a.row_dist().clone();
    let n = dist.local_n(me);

    // S2 = S·S + S as a distributed pattern product.
    let sp = s.to_parcsr(rank, a);
    let ss = distmat::ops::par_spgemm(rank, &sp, &sp);
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
            for &c in s.sdiag.row(i).0 {
                ij.add_value(gi, a.global_diag_col(c), 1.0);
            }
            for &c in s.soffd.row(i).0 {
                ij.add_value(gi, a.global_offd_col(c), 1.0);
            }
        }
        ij.assemble(rank)
    };

    // Restrict the S2 pattern to the CC block in first-pass coarse
    // numbering, building a small ParCsr on the coarse distribution.
    let cdist = first.coarse_dist.clone();
    let start = dist.start(me);
    // Coarse ids of external columns of s2.
    let ext_cids = {
        let halo = Halo::new(rank, &dist, s2.col_map_offd.clone());
        let local_cids: Vec<u64> = first
            .coarse_index
            .iter()
            .map(|ci| ci.map_or(u64::MAX, |c| c))
            .collect();
        halo.exchange_u64(rank, &local_cids)
    };
    let mut cc = sparse_kit::Coo::new();
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
            if let Some(cj) = first.coarse_index[lj] {
                cc.push(ci, cj, 1.0);
            }
        }
        for &c in s2.offd.row(i).0 {
            let cj = ext_cids[c];
            if cj != u64::MAX {
                cc.push(ci, cj, 1.0);
            }
        }
    }
    let s2cc = ParCsr::from_global_coo(rank, cdist.clone(), cdist.clone(), &cc);

    // PMIS on the restricted pattern: reuse the machinery by treating the
    // CC pattern matrix as its own strength pattern.
    let s_cc = Strength {
        sdiag: s2cc.diag.clone(),
        soffd: s2cc.offd.clone(),
    };
    let second = pmis(rank, &s2cc, &s_cc, seed ^ 0xA66);

    // Compose back onto the original points.
    let mut states = vec![CfState::Fine; n];
    let mut n_final = 0usize;
    for (st, ci) in states.iter_mut().zip(&first.coarse_index) {
        if let Some(ci) = ci {
            let lci = (ci - cdist.start(me)) as usize;
            if second.states[lci] == CfState::Coarse {
                *st = CfState::Coarse;
                n_final += 1;
            }
        }
    }
    let final_dist = RowDist::from_local_size(rank, n_final);
    let mut next = final_dist.start(me);
    let coarse_index = states
        .iter()
        .map(|&st0| {
            if st0 == CfState::Coarse {
                let id = next;
                next += 1;
                Some(id)
            } else {
                None
            }
        })
        .collect();
    CfSplit {
        states,
        coarse_dist: final_dist,
        coarse_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn run_pmis(serial: Csr, nranks: usize) -> Vec<(Vec<CfState>, Vec<Option<u64>>)> {
        let n = serial.nrows() as u64;
        Comm::run(nranks, move |rank| {
            let dist = RowDist::block(n, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            let s = Strength::classical(rank, &a, 0.25);
            let split = pmis(rank, &a, &s, 7);
            (split.states, split.coarse_index)
        })
    }

    /// Gather the global CF vector from per-rank outputs.
    fn global_states(parts: &[(Vec<CfState>, Vec<Option<u64>>)]) -> Vec<CfState> {
        parts.iter().flat_map(|(s, _)| s.clone()).collect()
    }

    #[test]
    fn pmis_is_independent_set_in_strength_graph() {
        let serial = laplacian_2d(8);
        for p in [1, 2, 4] {
            let parts = run_pmis(serial.clone(), p);
            let states = global_states(&parts);
            // No two adjacent (strongly connected) points are both C.
            for i in 0..serial.nrows() {
                if states[i] != CfState::Coarse {
                    continue;
                }
                let (cols, _) = serial.row(i);
                for &j in cols {
                    if j != i {
                        assert_ne!(
                            states[j],
                            CfState::Coarse,
                            "adjacent C-C pair ({i},{j}) at p={p}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pmis_is_maximal_every_f_sees_a_c() {
        let serial = laplacian_2d(8);
        let parts = run_pmis(serial.clone(), 2);
        let states = global_states(&parts);
        for i in 0..serial.nrows() {
            if states[i] == CfState::Fine {
                let (cols, _) = serial.row(i);
                let sees_c = cols.iter().any(|&j| j != i && states[j] == CfState::Coarse);
                assert!(sees_c, "F-point {i} has no C neighbour");
            }
        }
    }

    #[test]
    fn pmis_deterministic_across_rank_counts() {
        let serial = laplacian_1d(20);
        let s1 = global_states(&run_pmis(serial.clone(), 1));
        let s2 = global_states(&run_pmis(serial.clone(), 2));
        let s4 = global_states(&run_pmis(serial, 4));
        assert_eq!(s1, s2);
        assert_eq!(s1, s4);
    }

    #[test]
    fn coarse_indices_are_contiguous_per_rank() {
        let serial = laplacian_1d(16);
        let parts = run_pmis(serial, 2);
        let mut all: Vec<u64> = parts
            .iter()
            .flat_map(|(_, ci)| ci.iter().flatten().copied().collect::<Vec<_>>())
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
            let s = Strength::classical(rank, &a, 0.25);
            let split = pmis(rank, &a, &s, 0);
            assert!(split.states.iter().all(|&st0| st0 == CfState::Fine));
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
            let s = Strength::classical(rank, &a, 0.25);
            let first = pmis(rank, &a, &s, 7);
            let agg = pmis_aggressive(rank, &a, &s, &first, 7);
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
            let s = Strength::classical(rank, &a, 0.25);
            let first = pmis(rank, &a, &s, 3);
            let agg = pmis_aggressive(rank, &a, &s, &first, 3);
            for i in 0..agg.states.len() {
                if agg.states[i] == CfState::Coarse {
                    assert_eq!(first.states[i], CfState::Coarse);
                }
            }
        });
    }
}
