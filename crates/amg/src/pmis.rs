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
//!
//! Everything is read from S's own rows, over S's halo (its operator's):
//! λ_i is the number of S's columns that name i, counted where the rows
//! lie and summed at i's owner ([`distmat::Halo::try_sum_to_owners`]),
//! as BoomerAMG does; and each round settles every strong pair once
//! from each row that names the other, sending the losses on external
//! points back to their owners the same way. No Sᵀ is formed.

use distmat::{ParCsr, RowDist};
use parcomm::Rank;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use resilience::SolveError;
use sparse_kit::Csr;

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

/// Run PMIS on the strength pattern `s` (square, no diagonal entries),
/// exchanging per-point values over S's own halo. Collective.
///
/// # Errors
///
/// A [`SolveError`] from a failed exchange (`socket-drop`, a timeout or
/// a corrupted message), on every rank that took part in it.
pub fn pmis(rank: &Rank, s: &ParCsr, seed: u64) -> Result<CfSplit, SolveError> {
    let n = s.local_rows();
    let start = s.row_dist().start(rank.rank());
    let halo = s.halo();
    let gid_ext = halo.col_map();

    // λ_i = number of points strongly influenced by i = how many rows of
    // S name i: counted here for the local rows' columns, then the
    // counts for external columns are added at their owners.
    debug_assert!((0..n).all(|i| !s.diag.row(i).0.contains(&i)), "S has a diagonal entry");
    let k = rank.kernel("pmis_weights");
    k.launch(n, ((n as u64) * 16, n as u64));
    let (mut lambda, mut lambda_ext) = (vec![0u64; n], vec![0u64; gid_ext.len()]);
    s.diag.indices().iter().for_each(|&j| lambda[j] += 1);
    s.offd.indices().iter().for_each(|&c| lambda_ext[c] += 1);
    drop(k);
    halo.try_sum_to_owners(rank, &lambda_ext, &mut lambda)?;
    // Per-point and seeded per gid, so any rank count draws the same.
    let weights: Vec<f64> = (0..n).map(|i| lambda[i] as f64 + point_rand(seed, start + i as u64)).collect();

    // Exchange weights once; states every round.
    let w_ext = halo.try_exchange(rank, &weights)?;
    // Points with no strong neighbours at all (S names none and none
    // names them) are F-points immediately (nothing to interpolate
    // from, smoother handles them).
    let isolated = |i: usize| s.diag.row(i).0.is_empty() && s.offd.row(i).0.is_empty() && lambda[i] == 0;
    let mut states: Vec<u64> = (0..n).map(|i| if isolated(i) { F_PT } else { UNDECIDED }).collect();

    loop {
        let undecided = states.iter().filter(|&&st0| st0 == UNDECIDED).count() as u64;
        if rank.allreduce_sum(undecided) == 0 {
            break;
        }
        let states_ext = halo.try_exchange(rank, &states)?;
        let k = rank.kernel("pmis_round");
        k.launch(n, ((n as u64) * 24, n as u64));

        // Phase 1 (Jacobi-style on the state snapshot): every pair (i, j)
        // of undecided points with j strong for i marks the one with the
        // smaller (weight, gid) as lost, once from each side that owns a
        // row naming the other; external losses are summed at their
        // owners. Undecided points that lost no pair — the local maxima
        // among their undecided neighbours in S and Sᵀ — become C.
        let (mut lost, mut lost_ext) = (vec![0u64; n], vec![0u64; gid_ext.len()]);
        for i in (0..n).filter(|&i| states[i] == UNDECIDED) {
            let mine = (weights[i], start + i as u64);
            for &j in s.diag.row(i).0.iter().filter(|&&j| states[j] == UNDECIDED) {
                let loser = if mine < (weights[j], start + j as u64) { i } else { j };
                lost[loser] = 1;
            }
            for &c in s.offd.row(i).0.iter().filter(|&&c| states_ext[c] == UNDECIDED) {
                if mine < (w_ext[c], gid_ext[c]) {
                    lost[i] = 1;
                } else {
                    lost_ext[c] = 1;
                }
            }
        }
        drop(k);
        halo.try_sum_to_owners(rank, &lost_ext, &mut lost)?;
        for (st0, &l) in states.iter_mut().zip(&lost) {
            if *st0 == UNDECIDED && l == 0 {
                *st0 = C_PT;
            }
        }

        // Phase 2: undecided points strongly depending on a C-point (old
        // or freshly chosen — every fresh C is visible, local ones in
        // `states` and remote ones through this exchange) become F. Only
        // UNDECIDED→F transitions happen and only C states are read, so
        // the in-place sweep equals a sweep over the phase-1 snapshot.
        let states_ext = halo.try_exchange(rank, &states)?;
        for i in 0..n {
            if states[i] == UNDECIDED
                && (s.diag.row(i).0.iter().any(|&j| states[j] == C_PT)
                    || s.offd.row(i).0.iter().any(|&c| states_ext[c] == C_PT))
            {
                states[i] = F_PT;
            }
        }
    }

    let (coarse_dist, coarse_index) = numbering(rank, states.iter().map(|&st0| st0 == C_PT).collect());
    Ok(CfSplit { coarse_dist, coarse_index })
}

/// Second-pass (A-1 aggressive) coarsening: PMIS on the `S² + S` pattern
/// restricted to the C-points of a first pass. Returns the composed
/// splitting relative to the *original* points: C-points of the result
/// are a subset of `first`'s C-points. Collective; fails as [`pmis`]
/// does.
pub fn pmis_aggressive(rank: &Rank, s: &ParCsr, first: &CfSplit, seed: u64) -> Result<CfSplit, SolveError> {
    let n = s.local_rows();

    // S2 = (I + S)·S, whose row i is S_i ∪ (S²)_i, with I + S on S's
    // halo.
    let i_plus_s = ParCsr::with_blocks_on(s, s.diag.add(&Csr::identity(n)), s.offd.clone());
    let s2 = distmat::ops::par_spgemm(rank, &i_plus_s, s);

    // Restrict the S2 pattern to the CC block in first-pass coarse
    // numbering, building a small ParCsr on the coarse distribution.
    let cdist = first.coarse_dist.clone();
    // Coarse ids of external columns of s2, over its own halo.
    let local_cids: Vec<u64> = first.coarse_index.iter().map(|ci| ci.unwrap_or(u64::MAX)).collect();
    let ext_cids = s2.halo().try_exchange(rank, &local_cids)?;
    let mut cc = sparse_kit::Coo::new();
    let mut row: Vec<u64> = Vec::new();
    for i in 0..n {
        let Some(ci) = first.coarse_index[i] else {
            continue;
        };
        row.extend(s2.diag.row(i).0.iter().filter(|&&j| j != i).filter_map(|&j| first.coarse_index[j]));
        row.extend(s2.offd.row(i).0.iter().map(|&c| ext_cids[c]).filter(|&cj| cj != u64::MAX));
        row.sort_unstable();
        row.drain(..).for_each(|cj| cc.push(ci, cj, 1.0));
    }
    let s2cc = ParCsr::from_global_coo(rank, cdist.clone(), cdist.clone(), &cc);

    // PMIS on the restricted pattern, then compose back onto the
    // original points: a first-pass C-point stays coarse iff the second
    // pass kept it.
    let second = pmis(rank, &s2cc, seed ^ 0xA66)?;
    let coarse = first
        .coarse_index
        .iter()
        .map(|ci| ci.is_some_and(|ci| second.coarse_index[(ci - cdist.start(rank.rank())) as usize].is_some()))
        .collect();
    let (coarse_dist, coarse_index) = numbering(rank, coarse);
    Ok(CfSplit { coarse_dist, coarse_index })
}

#[cfg(test)]
pub(crate) mod tests {
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

    /// The 5-point Dirichlet Laplacian on an `nx × nx` grid.
    pub(crate) fn laplacian_2d(nx: usize) -> Csr {
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
            pmis(rank, &s, 7).unwrap().coarse_index
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

    /// This rank's p2p-class sends and allgathers so far: a halo pull
    /// is one allgather of counts plus one request per owner on a p2p
    /// tag, and nothing else here sends on one.
    pub(crate) fn pull_traffic(rank: &Rank) -> [u64; 2] {
        let me = rank.rank();
        rank.telemetry_events().iter().fold([0, 0], |[p2p, gathers], e| match e {
            telemetry::Event::CommEdge { src, class, msgs, .. } if *src == me && class == "p2p" => {
                [p2p + msgs, gathers]
            }
            telemetry::Event::Collective { kind, count, .. } if kind == "allgather" => [p2p, gathers + count],
            _ => [p2p, gathers],
        })
    }

    #[test]
    fn pmis_builds_no_comm_package() {
        // PMIS exchanges over S's halo (A's) in both directions, so it
        // sets up no schedule: no pull request, and its one allgather
        // numbers the coarse points.
        let serial = laplacian_2d(8);
        let n = serial.nrows() as u64;
        let out = Comm::run(2, move |rank| {
            let dist = RowDist::block(n, rank.size());
            let a = ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            let s = classical(rank, &a, 0.25);
            let before = pull_traffic(rank);
            pmis(rank, &s, 7).unwrap();
            let after = pull_traffic(rank);
            [0, 1].map(|k| after[k] - before[k])
        });
        assert_eq!(out, [[0, 1]; 2]);
    }

    #[test]
    fn isolated_points_become_fine() {
        Comm::run(1, |rank| {
            let serial = Csr::from_dense(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
            let dist = RowDist::block(2, 1);
            let a = ParCsr::from_serial(rank, dist.clone(), dist, &serial);
            let s = classical(rank, &a, 0.25);
            let split = pmis(rank, &s, 0).unwrap();
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
            let first = pmis(rank, &s, 7).unwrap();
            let agg = pmis_aggressive(rank, &s, &first, 7).unwrap();
            (first.coarse_dist.global_n(), agg.coarse_dist.global_n())
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
            let first = pmis(rank, &s, 3).unwrap();
            let agg = pmis_aggressive(rank, &s, &first, 3).unwrap();
            for (f, g) in first.coarse_index.iter().zip(&agg.coarse_index) {
                assert!(g.is_none() || f.is_some());
            }
        });
    }
}
