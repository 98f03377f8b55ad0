//! Distributed matrix operations: transpose, SpGEMM, and the Galerkin
//! triple product (hypre's distributed sparse M-M machinery of [28]).

use std::collections::HashMap;
use std::ops::Range;

use parcomm::{KernelKind, Message, Rank};
use sparse_kit::cost;
use sparse_kit::spgemm::spgemm_flops;
use sparse_kit::Coo;

use crate::dist::{owner_requests, RowDist};
use crate::ij::IjMatrix;
use crate::parcsr::ParCsr;

/// Aᵀ distributed: every local entry is routed to the owner of its global
/// column via the Algorithm-1 assembly. Collective.
pub fn par_transpose(rank: &Rank, a: &ParCsr) -> ParCsr {
    let mut ij = IjMatrix::new(rank, a.col_dist().clone(), a.row_dist().clone());
    let row_start = a.row_dist().start(a.rank_id());
    let k = rank.kernel("transpose", KernelKind::Sort);
    k.launch(a.local_rows(), cost::transpose(&a.diag));
    for li in 0..a.local_rows() {
        let gi = row_start + li as u64;
        let (cols, vals) = a.diag.row(li);
        for (&c, &v) in cols.iter().zip(vals) {
            ij.add_value(a.global_diag_col(c), gi, v);
        }
        let (cols, vals) = a.offd.row(li);
        for (&c, &v) in cols.iter().zip(vals) {
            ij.add_value(a.global_offd_col(c), gi, v);
        }
    }
    drop(k);
    ij.assemble(rank)
}

/// Rows of `b` fetched from other ranks, keyed by global row id. Each row
/// is `(global col ids, values)`.
pub type ExtRows = HashMap<u64, (Vec<u64>, Vec<f64>)>;

/// Fetch the rows of `b` whose global ids appear in `needed` (all owned by
/// other ranks). Two sparse exchanges: requests out, rows back. Collective.
pub fn fetch_external_rows(rank: &Rank, b: &ParCsr, needed: &[u64]) -> ExtRows {
    fetch_rows(
        rank,
        b,
        needed,
        |li, (cols, vals): &mut (Vec<u64>, Vec<f64>)| {
            let (dc, dv) = b.diag.row(li);
            let (oc, ov) = b.offd.row(li);
            cols.extend(dc.iter().map(|&c| b.global_diag_col(c)));
            cols.extend(oc.iter().map(|&c| b.global_offd_col(c)));
            vals.extend_from_slice(dv);
            vals.extend_from_slice(ov);
        },
        |(cols, vals), r| (cols[r.clone()].to_vec(), vals[r].to_vec()),
    )
}

/// Fetch only the **values** of external rows of `b`, in exactly the
/// per-row order [`fetch_external_rows`] returns them (diag entries in
/// CSR order, then offd). Used by numeric-only SpGEMM replay, where the
/// column structure is already baked into the plan. Collective.
pub fn fetch_external_vals(rank: &Rank, b: &ParCsr, needed: &[u64]) -> HashMap<u64, Vec<f64>> {
    fetch_rows(
        rank,
        b,
        needed,
        |li, vals: &mut Vec<f64>| {
            vals.extend_from_slice(b.diag.row(li).1);
            vals.extend_from_slice(b.offd.row(li).1);
        },
        |vals, r| vals[r].to_vec(),
    )
}

/// The two sparse exchanges both fetches share: `needed` (sorted, all
/// owned elsewhere) goes to its owners as requests; each owner answers a
/// request with its rows' entry counts and `serve(local row, payload)`
/// per requested row, in request order; `take(payload, range)` cuts each
/// row's entries back out. Collective.
fn fetch_rows<P: Message + Default, R>(
    rank: &Rank,
    b: &ParCsr,
    needed: &[u64],
    serve: impl Fn(usize, &mut P),
    take: impl Fn(&P, Range<usize>) -> R,
) -> HashMap<u64, R> {
    let me = rank.rank();
    let dist = b.row_dist();
    let runs = dist.owner_runs(needed.iter().copied());
    let requests = owner_requests(me, &runs, needed);
    let responses = rank
        .sparse_exchange(requests)
        .into_iter()
        .map(|(src, gids): (usize, Vec<u64>)| {
            let mut counts = Vec::with_capacity(gids.len());
            let mut payload = P::default();
            for gid in gids {
                let li = dist.to_local(me, gid);
                counts.push((b.diag.row(li).0.len() + b.offd.row(li).0.len()) as u64);
                serve(li, &mut payload);
            }
            (src, (counts, payload))
        })
        .collect();
    let by_src: HashMap<usize, (Vec<u64>, P)> = rank.sparse_exchange(responses).into_iter().collect();
    let mut out = HashMap::with_capacity(needed.len());
    for (owner, range) in runs {
        let (counts, payload) = by_src
            .get(&owner)
            .unwrap_or_else(|| panic!("missing response from rank {owner}"));
        let mut at = 0;
        for (&gid, &n) in needed[range].iter().zip(counts) {
            out.insert(gid, take(payload, at..at + n as usize));
            at += n as usize;
        }
    }
    out
}

/// C = A·B distributed, with `a.col_dist() == b.row_dist()`. Gathers the
/// external rows of B referenced by A's offd block, multiplies locally
/// with hash accumulation over global column ids, and reassembles.
/// Collective.
///
/// # Panics
///
/// Panics on distribution mismatch.
pub fn par_spgemm(rank: &Rank, a: &ParCsr, b: &ParCsr) -> ParCsr {
    assert_eq!(
        a.col_dist(),
        b.row_dist(),
        "A columns must be distributed like B rows"
    );
    let ext = fetch_external_rows(rank, b, a.col_map_offd());
    let me = rank.rank();
    let b_col_start = b.col_dist().start(me);

    let mut coo = Coo::new();
    let row_start = a.row_dist().start(me);
    // Expansion (products computed) is known from the inputs; nnz(C) only
    // after the multiply, so the launch is recorded post-loop.
    // `spgemm_flops` counts 2 flops per product — halve it back to the
    // product count the price takes.
    let expansion = spgemm_flops(&a.diag, &b.diag) / 2;
    let k = rank.kernel("spgemm", KernelKind::SpGemm);
    let mut acc: HashMap<u64, f64> = HashMap::new();
    for li in 0..a.local_rows() {
        acc.clear();
        let (dc, dv) = a.diag.row(li);
        for (&k, &av) in dc.iter().zip(dv) {
            // Local row k of B.
            let (bc, bv) = b.diag.row(k);
            for (&j, &bvv) in bc.iter().zip(bv) {
                *acc.entry(b_col_start + j as u64).or_insert(0.0) += av * bvv;
            }
            let (bc, bv) = b.offd.row(k);
            for (&j, &bvv) in bc.iter().zip(bv) {
                *acc.entry(b.global_offd_col(j)).or_insert(0.0) += av * bvv;
            }
        }
        let (oc, ov) = a.offd.row(li);
        for (&k, &av) in oc.iter().zip(ov) {
            let gk = a.global_offd_col(k);
            let (cols, vals) = &ext[&gk];
            for (&gj, &bvv) in cols.iter().zip(vals) {
                *acc.entry(gj).or_insert(0.0) += av * bvv;
            }
        }
        let gi = row_start + li as u64;
        let mut entries: Vec<(u64, f64)> = acc.iter().map(|(&j, &v)| (j, v)).collect();
        entries.sort_unstable_by_key(|&(j, _)| j);
        for (j, v) in entries {
            coo.push(gi, j, v);
        }
    }
    k.launch(a.local_rows(), cost::spgemm(expansion, coo.len()));
    drop(k);
    ParCsr::from_global_coo(rank, a.row_dist().clone(), b.col_dist().clone(), &coo)
}

/// Galerkin coarse operator A_c = Pᵀ·A·P, distributed. Collective.
pub fn par_rap(rank: &Rank, a: &ParCsr, p: &ParCsr) -> ParCsr {
    let ap = par_spgemm(rank, a, p);
    let pt = par_transpose(rank, p);
    par_spgemm(rank, &pt, &ap)
}

/// Structural fingerprint of a [`ParCsr`]: everything that determines a
/// SpGEMM output's sparsity and the expansion order, without the values.
#[derive(Clone, Debug, PartialEq)]
pub struct MatPattern {
    diag_indptr: Vec<usize>,
    diag_indices: Vec<usize>,
    offd_indptr: Vec<usize>,
    offd_indices: Vec<usize>,
    col_map_offd: Vec<u64>,
}

impl MatPattern {
    /// Capture the pattern of `a`.
    pub fn of(a: &ParCsr) -> Self {
        MatPattern {
            diag_indptr: a.diag.indptr().to_vec(),
            diag_indices: a.diag.indices().to_vec(),
            offd_indptr: a.offd.indptr().to_vec(),
            offd_indices: a.offd.indices().to_vec(),
            col_map_offd: a.col_map_offd().to_vec(),
        }
    }

    /// Does `a` still have exactly this structure?
    pub fn matches(&self, a: &ParCsr) -> bool {
        self.diag_indptr == a.diag.indptr()
            && self.diag_indices == a.diag.indices()
            && self.offd_indptr == a.offd.indptr()
            && self.offd_indices == a.offd.indices()
            && self.col_map_offd == a.col_map_offd()
    }
}

/// A recorded symbolic pass of [`par_spgemm`]: the output structure plus
/// one destination slot per expansion product, so later triple products
/// with unchanged structure replay the numeric pass alone — no hash
/// probing, no per-row sort, no COO assembly, no structural reassembly,
/// and only values on the wire for external rows.
///
/// Bitwise contract: [`par_spgemm`] accumulates each output entry with
/// `*acc.entry(j).or_insert(0.0) += a·b` — the first contribution is
/// added to +0.0 — and replay seeds every slot with +0.0 and adds the
/// products in the identical expansion order, so the float sums are
/// reproduced bit for bit (`tests` prove it on -0.0 hazards too).
#[derive(Clone, Debug)]
pub struct ParSpgemmPlan {
    a_pat: MatPattern,
    b_pat: MatPattern,
    /// Structure of C; values are rewritten by every [`Self::execute`].
    template: ParCsr,
    /// One destination per expansion product, in expansion order:
    /// `(flat value index << 1) | is_offd`.
    slots: Vec<u64>,
    /// Products per replay (the flop/traffic driver).
    expansion: u64,
}

impl ParSpgemmPlan {
    /// Do `a` and `b` still match the recorded patterns **on every
    /// rank**? Collective — all ranks must agree before branching
    /// between replay and a fresh multiply, or the sparse exchanges
    /// deadlock.
    pub fn matches(&self, rank: &Rank, a: &ParCsr, b: &ParCsr) -> bool {
        let ok = self.a_pat.matches(a) && self.b_pat.matches(b);
        rank.allreduce_sum(ok as u64) == rank.size() as u64
    }

    /// Expansion products per replay.
    pub fn expansion(&self) -> u64 {
        self.expansion
    }

    /// Numeric-only replay: C = A·B with A, B holding new values in the
    /// recorded structure. Collective.
    pub fn execute(&self, rank: &Rank, a: &ParCsr, b: &ParCsr) -> ParCsr {
        let ext_vals = fetch_external_vals(rank, b, a.col_map_offd());
        let c_nnz = self.template.local_nnz();
        let k = rank.kernel("spgemm_numeric", KernelKind::SpGemm);
        k.launch(a.local_rows(), cost::spgemm(self.expansion, c_nnz));
        // +0.0 seeds: the fresh path's first contribution per entry is
        // `0.0 + a·b` (see the type-level docs), and replay must repeat
        // that exact operation sequence.
        let mut diag_vals = vec![0.0f64; self.template.diag.nnz()];
        let mut offd_vals = vec![0.0f64; self.template.offd.nnz()];
        let mut scatter = |slot: u64, prod: f64| {
            let idx = (slot >> 1) as usize;
            if slot & 1 == 1 {
                offd_vals[idx] += prod;
            } else {
                diag_vals[idx] += prod;
            }
        };
        let mut cursor = 0usize;
        for li in 0..a.local_rows() {
            let (dc, dv) = a.diag.row(li);
            for (&k, &av) in dc.iter().zip(dv) {
                let (_, bv) = b.diag.row(k);
                for &bvv in bv {
                    scatter(self.slots[cursor], av * bvv);
                    cursor += 1;
                }
                let (_, bv) = b.offd.row(k);
                for &bvv in bv {
                    scatter(self.slots[cursor], av * bvv);
                    cursor += 1;
                }
            }
            let (oc, ov) = a.offd.row(li);
            for (&k, &av) in oc.iter().zip(ov) {
                let gk = a.global_offd_col(k);
                for &bvv in &ext_vals[&gk] {
                    scatter(self.slots[cursor], av * bvv);
                    cursor += 1;
                }
            }
        }
        debug_assert_eq!(cursor, self.slots.len(), "plan is stale for these inputs");
        let mut c = self.template.clone();
        c.diag.vals_mut().copy_from_slice(&diag_vals);
        c.offd.vals_mut().copy_from_slice(&offd_vals);
        c
    }
}

/// [`par_spgemm`] plus a recorded plan for numeric-only replays: the
/// fresh multiply runs unchanged, then the expansion is walked once more
/// symbolically to bind every product to its slot in C. Collective.
pub fn par_spgemm_planned(rank: &Rank, a: &ParCsr, b: &ParCsr) -> (ParSpgemmPlan, ParCsr) {
    let c = par_spgemm(rank, a, b);
    let ext = fetch_external_rows(rank, b, a.col_map_offd());
    let me = rank.rank();
    let b_col_start = b.col_dist().start(me);
    let c_col_start = c.col_dist().start(me);
    let c_col_end = c.col_dist().end(me);

    // (local row, global col) → encoded slot, via binary search in the
    // output structure.
    let slot_of = |li: usize, gj: u64| -> u64 {
        if (c_col_start..c_col_end).contains(&gj) {
            let j = (gj - c_col_start) as usize;
            let (lo, hi) = (c.diag.indptr()[li], c.diag.indptr()[li + 1]);
            let pos = c.diag.indices()[lo..hi]
                .binary_search(&j)
                .unwrap_or_else(|_| panic!("diag slot ({li}, {gj}) missing from product"));
            ((lo + pos) as u64) << 1
        } else {
            let cj = c
                .col_map_offd()
                .binary_search(&gj)
                .unwrap_or_else(|_| panic!("offd col {gj} missing from product"));
            let (lo, hi) = (c.offd.indptr()[li], c.offd.indptr()[li + 1]);
            let pos = c.offd.indices()[lo..hi]
                .binary_search(&cj)
                .unwrap_or_else(|_| panic!("offd slot ({li}, {gj}) missing from product"));
            (((lo + pos) as u64) << 1) | 1
        }
    };

    let mut slots = Vec::new();
    for li in 0..a.local_rows() {
        let (dc, _) = a.diag.row(li);
        for &k in dc {
            let (bc, _) = b.diag.row(k);
            for &j in bc {
                slots.push(slot_of(li, b_col_start + j as u64));
            }
            let (bc, _) = b.offd.row(k);
            for &j in bc {
                slots.push(slot_of(li, b.global_offd_col(j)));
            }
        }
        let (oc, _) = a.offd.row(li);
        for &k in oc {
            let gk = a.global_offd_col(k);
            for &gj in &ext[&gk].0 {
                slots.push(slot_of(li, gj));
            }
        }
    }
    let expansion = slots.len() as u64;
    let plan = ParSpgemmPlan {
        a_pat: MatPattern::of(a),
        b_pat: MatPattern::of(b),
        template: c.clone(),
        slots,
        expansion,
    };
    (plan, c)
}

/// Build a distribution that assigns contiguous blocks matching an
/// arbitrary partition vector: vertices are renumbered so each part's
/// vertices are contiguous. Returns (dist, old→new permutation).
pub fn dist_from_partition(part: &[usize], nparts: usize) -> (RowDist, Vec<u64>) {
    let mut counts = vec![0u64; nparts];
    for &p in part {
        counts[p] += 1;
    }
    let mut starts = vec![0u64; nparts + 1];
    for p in 0..nparts {
        starts[p + 1] = starts[p] + counts[p];
    }
    let dist = RowDist::from_starts(starts.clone());
    let mut next = starts;
    let mut perm = vec![0u64; part.len()];
    for (v, &p) in part.iter().enumerate() {
        perm[v] = next[p];
        next[p] += 1;
    }
    (dist, perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::ParVector;
    use parcomm::Comm;
    use sparse_kit::rap::galerkin;
    use sparse_kit::Csr;

    fn laplacian(n: usize) -> Csr {
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

    /// Piecewise-constant interpolation n -> n/2.
    fn half_interp(n: usize) -> Csr {
        let nc = n / 2;
        let mut coo = Coo::new();
        for i in 0..n as u64 {
            coo.push(i, (i / 2).min(nc as u64 - 1), 1.0);
        }
        Csr::from_coo(n, nc, &coo)
    }

    #[test]
    fn transpose_matches_serial() {
        let n = 10;
        let p_serial = half_interp(n);
        for nranks in [1, 2, 3] {
            let p_ref = p_serial.clone();
            let out = Comm::run(nranks, move |rank| {
                let rd = RowDist::block(n as u64, rank.size());
                let cd = RowDist::block((n / 2) as u64, rank.size());
                let p = ParCsr::from_serial(rank, rd, cd, &p_ref);
                par_transpose(rank, &p).to_serial(rank)
            });
            for t in out {
                assert_eq!(t.to_dense(), p_serial.transpose().to_dense());
            }
        }
    }

    #[test]
    fn spgemm_matches_serial() {
        let n = 12;
        let a_serial = laplacian(n);
        let p_serial = half_interp(n);
        for nranks in [1, 2, 4] {
            let (a_ref, p_ref) = (a_serial.clone(), p_serial.clone());
            let out = Comm::run(nranks, move |rank| {
                let rd = RowDist::block(n as u64, rank.size());
                let cd = RowDist::block((n / 2) as u64, rank.size());
                let a = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &a_ref);
                let p = ParCsr::from_serial(rank, rd, cd, &p_ref);
                par_spgemm(rank, &a, &p).to_serial(rank)
            });
            let expected = sparse_kit::spgemm::spgemm_hash(&a_serial, &p_serial);
            for c in out {
                let (cd, ed) = (c.to_dense(), expected.to_dense());
                for (rc, re) in cd.iter().zip(&ed) {
                    for (x, y) in rc.iter().zip(re) {
                        assert!((x - y).abs() < 1e-12, "nranks={nranks}");
                    }
                }
            }
        }
    }

    #[test]
    fn rap_matches_serial_galerkin() {
        let n = 16;
        let a_serial = laplacian(n);
        let p_serial = half_interp(n);
        for nranks in [1, 2, 4] {
            let (a_ref, p_ref) = (a_serial.clone(), p_serial.clone());
            let out = Comm::run(nranks, move |rank| {
                let rd = RowDist::block(n as u64, rank.size());
                let cd = RowDist::block((n / 2) as u64, rank.size());
                let a = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &a_ref);
                let p = ParCsr::from_serial(rank, rd, cd, &p_ref);
                par_rap(rank, &a, &p).to_serial(rank)
            });
            let expected = galerkin(&a_serial, &p_serial);
            for c in out {
                let (cd, ed) = (c.to_dense(), expected.to_dense());
                for (rc, re) in cd.iter().zip(&ed) {
                    for (x, y) in rc.iter().zip(re) {
                        assert!((x - y).abs() < 1e-12, "nranks={nranks}");
                    }
                }
            }
        }
    }

    #[test]
    fn rap_spmv_consistency() {
        // (PᵀAP)·x == Pᵀ(A(P·x)) distributed.
        Comm::run(3, |rank| {
            let n = 18u64;
            let a_serial = laplacian(n as usize);
            let p_serial = half_interp(n as usize);
            let rd = RowDist::block(n, 3);
            let cd = RowDist::block(n / 2, 3);
            let a = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &a_serial);
            let p = ParCsr::from_serial(rank, rd.clone(), cd.clone(), &p_serial);
            let ac = par_rap(rank, &a, &p);
            let pt = par_transpose(rank, &p);

            let xc = ParVector::from_fn(rank, cd, |g| (g as f64 * 0.7).cos());
            let lhs = ac.spmv(rank, &xc).to_serial(rank);
            let px = p.spmv(rank, &xc);
            let apx = a.spmv(rank, &px);
            let rhs = pt.spmv(rank, &apx).to_serial(rank);
            for (x, y) in lhs.iter().zip(&rhs) {
                assert!((x - y).abs() < 1e-10);
            }
        });
    }

    /// Bit pattern of a float vector (bitwise comparisons below).
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn spgemm_plan_replay_is_bitwise_identical_to_fresh() {
        let n = 16;
        for nranks in [1, 2, 3] {
            let out = Comm::run(nranks, move |rank| {
                let rd = RowDist::block(n as u64, rank.size());
                let cd = RowDist::block((n / 2) as u64, rank.size());
                let a = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &laplacian(n));
                let p = ParCsr::from_serial(rank, rd.clone(), cd.clone(), &half_interp(n));
                let (plan, c0) = par_spgemm_planned(rank, &a, &p);
                assert!(plan.matches(rank, &a, &p));
                // Same values: replay must equal the fresh product bit
                // for bit.
                let c1 = plan.execute(rank, &a, &p);
                assert_eq!(bits(c0.diag.vals()), bits(c1.diag.vals()));
                assert_eq!(bits(c0.offd.vals()), bits(c1.offd.vals()));
                // Value-only drift (structure untouched): replay must
                // match a from-scratch multiply bitwise.
                let mut a2 = a.clone();
                a2.scale(1.0 / 3.0);
                let c2 = plan.execute(rank, &a2, &p);
                let c2_fresh = par_spgemm(rank, &a2, &p);
                assert_eq!(bits(c2.diag.vals()), bits(c2_fresh.diag.vals()));
                assert_eq!(bits(c2.offd.vals()), bits(c2_fresh.offd.vals()));
                c2.to_serial(rank)
            });
            for c in out {
                assert_eq!(c.nnz(), sparse_kit::spgemm::spgemm_hash(&laplacian(n), &half_interp(n)).nnz());
            }
        }
    }

    #[test]
    fn spgemm_plan_detects_structure_change_collectively() {
        Comm::run(2, |rank| {
            let n = 12;
            let rd = RowDist::block(n as u64, 2);
            let cd = RowDist::block((n / 2) as u64, 2);
            let a = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &laplacian(n));
            let p = ParCsr::from_serial(rank, rd.clone(), cd.clone(), &half_interp(n));
            let (plan, _) = par_spgemm_planned(rank, &a, &p);
            // A different-structure A (dense band of width 2) must be
            // rejected on every rank.
            let mut coo = Coo::new();
            for i in 0..n as u64 {
                coo.push(i, i, 1.0);
                if i + 2 < n as u64 {
                    coo.push(i, i + 2, 0.5);
                }
            }
            let wide = Csr::from_coo(n, n, &coo);
            let a2 = ParCsr::from_serial(rank, rd.clone(), rd, &wide);
            assert!(!plan.matches(rank, &a2, &p));
        });
    }

    #[test]
    fn fetch_external_rows_returns_exact_rows() {
        Comm::run(2, |rank| {
            let n = 6;
            let a_serial = laplacian(n);
            let rd = RowDist::block(n as u64, 2);
            let a = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &a_serial);
            // Rank 0 asks for row 3 (owned by rank 1) and vice versa.
            let want = if rank.rank() == 0 { vec![3u64] } else { vec![0u64] };
            let ext = fetch_external_rows(rank, &a, &want);
            let (cols, vals) = &ext[&want[0]];
            // Rows arrive diag-cols-then-offd-cols; compare sorted pairs.
            let mut pairs: Vec<(u64, f64)> =
                cols.iter().copied().zip(vals.iter().copied()).collect();
            pairs.sort_by_key(|&(c, _)| c);
            if rank.rank() == 0 {
                assert_eq!(pairs, vec![(2, -1.0), (3, 2.0), (4, -1.0)]);
            } else {
                assert_eq!(pairs, vec![(0, 2.0), (1, -1.0)]);
            }
        });
    }

    #[test]
    fn dist_from_partition_renumbers_contiguously() {
        let part = vec![1, 0, 1, 0, 2];
        let (dist, perm) = dist_from_partition(&part, 3);
        assert_eq!(dist.local_n(0), 2);
        assert_eq!(dist.local_n(1), 2);
        assert_eq!(dist.local_n(2), 1);
        // Old vertices 1, 3 (part 0) become global 0, 1.
        assert_eq!(perm[1], 0);
        assert_eq!(perm[3], 1);
        assert_eq!(perm[0], 2);
        assert_eq!(perm[2], 3);
        assert_eq!(perm[4], 4);
        // Permutation is a bijection.
        let mut sorted = perm.clone();
        sorted.sort();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }
}
