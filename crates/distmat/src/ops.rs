//! Distributed matrix operations: transpose and SpGEMM (hypre's
//! distributed sparse M-M machinery of [28]).
//!
//! Both move whole rows over an operand's own halo, as hypre's
//! `hypre_ParCSRMatrixExtractBExt` does over A's communication package:
//! SpGEMM reads the rows of B that A's external columns name over A's
//! halo, and the transpose sends each external column's entries to its
//! owner over the operand's halo run backwards. Either is one message
//! per neighbour, and neither asks the owners anything or counts a
//! receive with a collective: the only schedule either builds is its
//! output's halo.

use std::ops::Range;

use parcomm::{Rank, Tag};
use resilience::SolveError;
use sparse_kit::cost;
use sparse_kit::spgemm::spgemm_flops;
use sparse_kit::Csr;

use crate::dist::RowDist;
use crate::halo::{corruption, CommPkg};
use crate::ij::assembly_fault_hooks;
use crate::parcsr::ParCsr;

/// Sparse rows on the wire: each row's entry count, then every row's
/// global columns and values, in row order.
type RowsMsg = (Vec<u64>, Vec<u64>, Vec<f64>);

/// The message carrying `row(id)`'s `(global column, value)` entries for
/// every id, in id order.
fn pack_rows<I: Iterator<Item = (u64, f64)>>(ids: &[usize], row: impl Fn(usize) -> I) -> RowsMsg {
    let mut msg: RowsMsg = (Vec::with_capacity(ids.len()), Vec::new(), Vec::new());
    for &id in ids {
        let before = msg.1.len();
        for (c, v) in row(id) {
            msg.1.push(c);
            msg.2.push(v);
        }
        msg.0.push((msg.1.len() - before) as u64);
    }
    msg
}

/// Rows stacked in receive order: row `k` is `cols[ptr[k]..ptr[k + 1]]`
/// with its values.
struct Rows {
    ptr: Vec<usize>,
    cols: Vec<u64>,
    vals: Vec<f64>,
}

impl Rows {
    /// Receive one rows message per source of `pkg` on `tag`, one row
    /// per id of the source's range, and stack them. A message that does
    /// not hold as many counts, and as many columns and values as they
    /// sum to, is a [`SolveError::HaloCorruption`] counting all three.
    fn receive(rank: &Rank, pkg: &CommPkg, tag: Tag) -> Result<Rows, SolveError> {
        let mut rows = Rows { ptr: vec![0], cols: Vec::new(), vals: Vec::new() };
        pkg.finish(rank, tag, |src, range, (counts, cols, vals): RowsMsg| {
            let entries = counts.iter().sum::<u64>() as usize;
            if counts.len() != range.len() || cols.len() != entries || vals.len() != entries {
                return Err(corruption(rank, src, range.len() + 2 * entries, counts.len() + cols.len() + vals.len()));
            }
            counts.iter().for_each(|&n| rows.ptr.push(rows.ptr[rows.ptr.len() - 1] + n as usize));
            rows.cols.extend(cols);
            rows.vals.extend(vals);
            Ok(())
        })?;
        Ok(rows)
    }

    fn range(&self, k: usize) -> Range<usize> {
        self.ptr[k]..self.ptr[k + 1]
    }
}

/// The rows of `b` that `a`'s external columns name, in `a`'s offd column
/// order, read over `a`'s halo: `a.col_dist() == b.row_dist()`, so the
/// local ids each neighbour receives `a`'s values for are the rows of `b`
/// it needs. Each row is its diag entries, then its offd entries, by
/// global column. One message per neighbour.
///
/// # Panics
///
/// As [`par_spgemm`].
fn ext_rows(rank: &Rank, a: &ParCsr, b: &ParCsr) -> Rows {
    assert_eq!(a.col_dist(), b.row_dist(), "A columns must be distributed like B rows");
    let b_row = |li: usize| {
        let ((dc, dv), (oc, ov)) = (b.diag.row(li), b.offd.row(li));
        let diag = dc.iter().map(|&c| b.global_diag_col(c));
        let offd = oc.iter().map(|&c| b.global_offd_col(c));
        diag.chain(offd).zip(dv.iter().chain(ov).copied())
    };
    let (pkg, tag) = (a.comm_pkg(), a.halo().tag());
    pkg.begin(rank, tag, |ids| pack_rows(ids, b_row));
    Rows::receive(rank, pkg, tag).unwrap_or_else(|e| panic!("{e}"))
}

/// Aᵀ distributed, with no arithmetic. The diag block is `a.diag`'s local
/// transpose. Each external column's entries (a row of `a.offd`'s
/// transpose, by global row) travel to the column's owner over `a`'s
/// halo run backwards, one message per neighbour. Stacked as received —
/// by source rank, then by the ids of the forward sends, both ascending
/// — they are the offd block's transpose with its rows relabelled, so
/// two local transposes finish it and no entry is sorted. Hosts the
/// assembly fault hooks once, before any send: `assembly-nan` plants NaN
/// in the first stored diag value, and a `socket-drop` or a failed
/// receive is returned. Collective.
pub fn par_transpose(rank: &Rank, a: &ParCsr) -> Result<ParCsr, SolveError> {
    let nan = assembly_fault_hooks(rank)?;
    let k = rank.kernel("transpose");
    k.launch(a.local_rows(), cost::transpose(&a.diag));
    let (mut diag, offd_t) = (a.diag.transpose(), a.offd.transpose());
    drop(k);
    if let (true, Some(v)) = (nan, diag.vals_mut().first_mut()) {
        *v = f64::NAN;
    }
    let row_start = a.row_dist().start(a.rank_id());
    let t_row = |k: usize| {
        let (rows, vals) = offd_t.row(k);
        rows.iter().map(move |&li| row_start + li as u64).zip(vals.iter().copied())
    };
    let (back, tag) = (a.comm_pkg().reversed(), a.halo().tag());
    back.begin(rank, tag, |ks| pack_rows(ks, t_row));
    let got = Rows::receive(rank, &back, tag)?;
    let ids: Vec<usize> = a.comm_pkg().sends.iter().flat_map(|(_, ids)| ids.iter().copied()).collect();
    let mut ext_cols = got.cols.clone();
    ext_cols.sort_unstable();
    ext_cols.dedup();
    let cols = got.cols.iter().map(|g| ext_cols.binary_search(g).expect("collected above")).collect();
    let (ptr, stacked, vals) = Csr::from_parts(ids.len(), ext_cols.len(), got.ptr, cols, got.vals).transpose().into_parts();
    let offd = Csr::from_parts(ext_cols.len(), diag.nrows(), ptr, stacked.iter().map(|&k| ids[k]).collect(), vals);
    Ok(ParCsr::from_blocks(rank, a.col_dist().clone(), a.row_dist().clone(), diag, offd.transpose(), &ext_cols))
}

/// C = A·B distributed, with `a.col_dist() == b.row_dist()`: a row-by-row
/// Gustavson product. The rows of B that A's offd block references are
/// read first, over A's halo. C's columns are numbered densely — B's
/// owned column range, then every external column that B's offd block
/// or a received row reaches, sorted — and each row of C is summed in a
/// dense accumulator over them (a marker array reused across rows) in
/// one fixed order: A's diag row in column order, each entry through B's
/// diag row and then B's offd row; then A's offd row, each entry through
/// its received row. An entry's first product is added to +0.0, and
/// entries that cancel to zero stay stored. The row's touched columns,
/// sorted, are its diag row and its offd row; the external columns no
/// row touched are dropped. Collective.
///
/// # Panics
///
/// Panics on distribution mismatch, and on a failed or corrupted row
/// message: the signature has no room for the error.
pub fn par_spgemm(rank: &Rank, a: &ParCsr, b: &ParCsr) -> ParCsr {
    multiply(rank, a, b, &ext_rows(rank, a, b))
}

/// [`par_spgemm`] on B's rows `ext` that A's offd columns name.
fn multiply(rank: &Rank, a: &ParCsr, b: &ParCsr, ext: &Rows) -> ParCsr {
    let me = rank.rank();
    let owned = b.col_dist().start(me)..b.col_dist().end(me);
    let n_own = b.diag.ncols();
    let mut ext_cols: Vec<u64> = b.col_map_offd().to_vec();
    ext_cols.extend(ext.cols.iter().filter(|g| !owned.contains(g)));
    ext_cols.sort_unstable();
    ext_cols.dedup();
    let col_of = |g: u64| {
        if owned.contains(&g) {
            (g - owned.start) as usize
        } else {
            n_own + ext_cols.binary_search(&g).expect("collected above")
        }
    };
    let b_offd: Vec<usize> = b.col_map_offd().iter().map(|&g| col_of(g)).collect();
    let fetched: Vec<usize> = ext.cols.iter().map(|&g| col_of(g)).collect();
    // Expansion (products computed) is known from the inputs; nnz(C) only
    // after the multiply, so the launch is recorded post-loop.
    // `spgemm_flops` counts 2 flops per product — halve it back to the
    // product count the price takes.
    let expansion = spgemm_flops(&a.diag, &b.diag) / 2;
    let k = rank.kernel("spgemm");
    let width = n_own + ext_cols.len();
    let (mut acc, mut row_of, mut touched) = (vec![0.0f64; width], vec![usize::MAX; width], Vec::new());
    let mut diag = (vec![0usize], Vec::new(), Vec::new());
    let mut offd = (vec![0usize], Vec::new(), Vec::new());
    for li in 0..a.local_rows() {
        let mut add = |j: usize, v: f64| {
            if row_of[j] != li {
                row_of[j] = li;
                acc[j] = 0.0;
                touched.push(j);
            }
            acc[j] += v;
        };
        let (dc, dv) = a.diag.row(li);
        for (&k, &av) in dc.iter().zip(dv) {
            let (bc, bv) = b.diag.row(k);
            bc.iter().zip(bv).for_each(|(&j, &bvv)| add(j, av * bvv));
            let (bc, bv) = b.offd.row(k);
            bc.iter().zip(bv).for_each(|(&j, &bvv)| add(b_offd[j], av * bvv));
        }
        let (oc, ov) = a.offd.row(li);
        for (&k, &av) in oc.iter().zip(ov) {
            let r = ext.range(k);
            fetched[r.clone()].iter().zip(&ext.vals[r]).for_each(|(&j, &bvv)| add(j, av * bvv));
        }
        touched.sort_unstable();
        for &j in &touched {
            let (block, c) = if j < n_own { (&mut diag, j) } else { (&mut offd, j - n_own) };
            block.1.push(c);
            block.2.push(acc[j]);
        }
        touched.clear();
        diag.0.push(diag.1.len());
        offd.0.push(offd.1.len());
    }
    k.launch(a.local_rows(), cost::spgemm(expansion, diag.1.len() + offd.1.len()));
    drop(k);
    // Level operators and interpolants live as long as their hierarchy:
    // give back the growth slack.
    let [diag, offd] = [(diag, n_own), (offd, ext_cols.len())].map(|((indptr, mut indices, mut vals), ncols)| {
        indices.shrink_to_fit();
        vals.shrink_to_fit();
        Csr::from_parts(a.local_rows(), ncols, indptr, indices, vals)
    });
    ParCsr::from_blocks(rank, a.row_dist().clone(), b.col_dist().clone(), diag, offd, &ext_cols)
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
/// with unchanged structure replay the numeric pass alone — no column
/// numbering, no per-row sort, no structural reassembly, and only
/// values on the wire for external rows.
///
/// Bitwise contract: [`par_spgemm`] starts each output entry at +0.0
/// and adds its products to it — so the first contribution is added to
/// +0.0 — and replay seeds every slot with +0.0 and adds the products in
/// the identical expansion order, so the float sums are reproduced bit
/// for bit (`tests` prove it on -0.0 hazards too).
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
    /// Where each of A's external columns' rows of B starts in a
    /// replay's received values (one more entry than columns).
    ext_ptr: Vec<usize>,
}

impl ParSpgemmPlan {
    /// Do `a` and `b` still match the recorded patterns **on every
    /// rank**? Collective — all ranks must agree before branching
    /// between replay and a fresh multiply, or the row exchanges
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
    /// recorded structure. B's external rows travel as values alone, over
    /// A's halo, in [`par_spgemm`]'s per-row order. Collective.
    ///
    /// # Panics
    ///
    /// Panics on a failed row message, or one whose length the plan does
    /// not expect.
    pub fn execute(&self, rank: &Rank, a: &ParCsr, b: &ParCsr) -> ParCsr {
        let (pkg, tag) = (a.comm_pkg(), a.halo().tag());
        pkg.begin(rank, tag, |ids| {
            ids.iter().flat_map(|&li| b.diag.row(li).1.iter().chain(b.offd.row(li).1)).copied().collect::<Vec<f64>>()
        });
        let mut ext_vals: Vec<f64> = Vec::with_capacity(self.ext_ptr[self.ext_ptr.len() - 1]);
        pkg.finish(rank, tag, |src, range, vals: Vec<f64>| {
            let want = self.ext_ptr[range.end] - self.ext_ptr[range.start];
            if vals.len() != want {
                return Err(corruption(rank, src, want, vals.len()));
            }
            ext_vals.extend(vals);
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{e}"));
        let c_nnz = self.template.local_nnz();
        let k = rank.kernel("spgemm_numeric");
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
                for &bvv in &ext_vals[self.ext_ptr[k]..self.ext_ptr[k + 1]] {
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
/// symbolically, over the same received rows, to bind every product to
/// its slot in C. Collective.
///
/// # Panics
///
/// As [`par_spgemm`].
pub fn par_spgemm_planned(rank: &Rank, a: &ParCsr, b: &ParCsr) -> (ParSpgemmPlan, ParCsr) {
    let ext = ext_rows(rank, a, b);
    let c = multiply(rank, a, b, &ext);
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
            for &gj in &ext.cols[ext.range(k)] {
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
        ext_ptr: ext.ptr,
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
    use parcomm::Comm;
    use sparse_kit::Coo;

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
        // P's rows reach one coarse point, rows 6 and 7 the next one too;
        // values differ in every bit, and explicit −0.0 and 0.0 entries
        // sit in both blocks. At 2 ranks rank 0's offd block is empty.
        let n = 10;
        let val = |x: usize| match x % 7 {
            3 => -0.0,
            5 => 0.0,
            _ => (x as f64 * 0.7).sin() * 10f64.powi(x as i32 % 5),
        };
        let rows: Vec<Vec<(usize, f64)>> =
            (0..n).map(|i| (i / 2..i / 2 + 1 + usize::from((6..8).contains(&i))).map(|c| (c, val(2 * i + c))).collect()).collect();
        let p_serial = csr(&rows, n / 2);
        let pt = p_serial.transpose();
        for nranks in [1, 2, 3] {
            let p_ref = p_serial.clone();
            let out = Comm::run(nranks, move |rank| {
                let rd = RowDist::block(n as u64, rank.size());
                let cd = RowDist::block((n / 2) as u64, rank.size());
                let p = ParCsr::from_serial(rank, rd, cd, &p_ref);
                let t = par_transpose(rank, &p).unwrap().to_serial(rank);
                (t.indptr().to_vec(), t.indices().to_vec(), bits(t.vals()), p.offd.nnz())
            });
            for (r, (indptr, indices, vals, _)) in out.iter().enumerate() {
                assert_eq!((&indptr[..], &indices[..], vals), (pt.indptr(), pt.indices(), &bits(pt.vals())), "nranks={nranks} rank={r}");
            }
            assert!(nranks != 2 || out[0].3 == 0, "rank 0 sends no entry");
        }
    }

    #[test]
    fn transpose_hosts_the_assembly_hooks_once() {
        // `assembly-nan` lands on the first stored diag value, and a
        // `socket-drop` leaves no message behind: the clean retry is the
        // plain transpose.
        Comm::run(2, |rank| {
            let n = 10;
            let rd = RowDist::block(n as u64, 2);
            let cd = RowDist::block((n / 2) as u64, 2);
            let p = ParCsr::from_serial(rank, rd, cd, &half_interp(n));
            let clean = par_transpose(rank, &p).unwrap();
            rank.arm_faults(Some(parcomm::FaultPlan::parse("assembly-nan@t:1;socket-drop@t:2").unwrap()));
            rank.with_phase("t", || {
                let poisoned = par_transpose(rank, &p).unwrap();
                assert!(poisoned.diag.vals()[0].is_nan());
                assert_eq!(bits(&poisoned.diag.vals()[1..]), bits(&clean.diag.vals()[1..]));
                assert!(matches!(par_transpose(rank, &p), Err(SolveError::Comm { .. })));
                assert!(par_transpose(rank, &p).unwrap().bitwise_eq(&clean));
            });
            assert_eq!(rank.fault_counters(), [(3, 1), (3, 1)]);
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

    /// A serial CSR from per-row `(col, value)` lists, every listed entry
    /// stored (explicit zeros and −0.0 included).
    fn csr(rows: &[Vec<(usize, f64)>], ncols: usize) -> Csr {
        let mut indptr = vec![0];
        let (mut indices, mut vals) = (Vec::new(), Vec::new());
        for row in rows {
            indices.extend(row.iter().map(|e| e.0));
            vals.extend(row.iter().map(|e| e.1));
            indptr.push(indices.len());
        }
        Csr::from_parts(rows.len(), ncols, indptr, indices, vals)
    }

    /// Rank `me`'s rows of A·B as sorted `(global col, value bits)`,
    /// summed in `par_spgemm`'s documented order: A's row owned-columns
    /// first, then the rest, each in column order; each entry through
    /// the row of B split the same way by the columns its owner owns;
    /// every output entry starts from +0.0.
    fn reference_rows(a: &Csr, b: &Csr, b_rows: &RowDist, b_cols: &RowDist, rows: Range<u64>, me: usize) -> Vec<Vec<(u64, u64)>> {
        let split = |m: &Csr, r: usize, cols: &RowDist, owner: usize| {
            let own = cols.start(owner)..cols.end(owner);
            let (c, v) = m.row(r);
            let entries: Vec<(u64, f64)> = c.iter().map(|&c| c as u64).zip(v.iter().copied()).collect();
            let (mut mine, rest): (Vec<_>, Vec<_>) = entries.into_iter().partition(|e| own.contains(&e.0));
            mine.extend(rest);
            mine
        };
        rows.map(|gi| {
            let mut acc: std::collections::BTreeMap<u64, f64> = Default::default();
            for (k, av) in split(a, gi as usize, b_rows, me) {
                for (j, bv) in split(b, k as usize, b_cols, b_rows.owner(k)) {
                    *acc.entry(j).or_insert(0.0) += av * bv;
                }
            }
            acc.into_iter().map(|(j, v)| (j, v.to_bits())).collect()
        })
        .collect()
    }

    #[test]
    fn spgemm_equals_the_documented_order_bitwise_on_edge_cases() {
        // A is 9×9, B is 9×6. C[0][0] = 1·1.5 + 1·(−1.5) cancels to 0.0
        // (stored), through B's row 0 (local to row 0's rank) and row 8
        // (received on 2–4 ranks), both into column 0, which rank 0
        // owns. C[4][5]'s only products are −0.0, so it is +0.0. The
        // other values span eight decades, so a change of summation order
        // changes bits.
        let val = |x: usize| (x as f64 * 0.7).sin() * [1.0, 1e-3, 1e5, 3.3][x % 4];
        let a_rows: Vec<Vec<(usize, f64)>> = (0..9)
            .map(|i| match i {
                0 => vec![(0, 1.0), (3, 0.75), (8, 1.0)],
                _ => (0..9).filter(|&k| k == i || (i + 2 * k) % 3 != 0).map(|k| (k, val(9 * i + k))).collect(),
            })
            .collect();
        let b_rows: Vec<Vec<(usize, f64)>> = (0..9)
            .map(|k| {
                let mut row: Vec<(usize, f64)> = (1..5).map(|j| (j, val(100 + 6 * k + j))).collect();
                match k {
                    0 => row.insert(0, (0, 1.5)),
                    8 => row.insert(0, (0, -1.5)),
                    4 => row.push((5, -0.0)),
                    _ => {}
                }
                row
            })
            .collect();
        let (a, b) = (csr(&a_rows, 9), csr(&b_rows, 6));
        for nranks in [1, 2, 3, 4] {
            let (a, b) = (a.clone(), b.clone());
            Comm::run(nranks, move |rank| {
                let me = rank.rank();
                let (rd, cd) = (RowDist::block(9, rank.size()), RowDist::block(6, rank.size()));
                let pa = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &a);
                let pb = ParCsr::from_serial(rank, rd.clone(), cd.clone(), &b);
                let c = par_spgemm(rank, &pa, &pb);
                let got: Vec<Vec<(u64, u64)>> = (0..c.local_rows())
                    .map(|li| {
                        let (dc, dv) = c.diag.row(li);
                        let (oc, ov) = c.offd.row(li);
                        let diag = dc.iter().map(|&j| c.global_diag_col(j)).zip(dv);
                        let offd = oc.iter().map(|&j| c.global_offd_col(j)).zip(ov);
                        let mut row: Vec<(u64, u64)> = diag.chain(offd).map(|(j, v)| (j, v.to_bits())).collect();
                        row.sort_unstable();
                        row
                    })
                    .collect();
                let want = reference_rows(&a, &b, &rd, &cd, rd.start(me)..rd.end(me), me);
                assert_eq!(got, want, "nranks={nranks} rank={me}");
                if rd.owner(0) == me {
                    assert!(want[0].contains(&(0, 0.0f64.to_bits())), "C[0][0] cancels to a stored 0.0");
                }
                if rd.owner(4) == me {
                    let li = (4 - rd.start(me)) as usize;
                    assert!(want[li].contains(&(5, 0.0f64.to_bits())), "C[4][5] is +0.0");
                }
                if nranks > 1 && me == 0 {
                    assert!(pa.col_map_offd().contains(&8) && cd.owner(0) == 0, "row 8 is received into an owned column");
                }
            });
        }
    }

    /// This rank's p2p-class sends and allgathers so far: a halo pull
    /// is one allgather of counts plus one request per owner on a p2p
    /// tag, and nothing else here sends on one.
    fn pull_traffic(rank: &Rank) -> [u64; 2] {
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
    fn spgemm_reads_rows_over_the_operands_halo() {
        // B's rows travel over A's halo, so the one pull (its count
        // allgather and one request per owner C's halo reads from) is
        // C's halo pull, in the fresh product and in a recorded plan's;
        // a replay makes none.
        let n = 12;
        for nranks in [2, 3] {
            Comm::run(nranks, move |rank| {
                let rd = RowDist::block(n as u64, rank.size());
                let cd = RowDist::block((n / 2) as u64, rank.size());
                let a = ParCsr::from_serial(rank, rd.clone(), rd.clone(), &laplacian(n));
                let p = ParCsr::from_serial(rank, rd, cd, &half_interp(n));
                assert!(!a.col_map_offd().is_empty(), "rows must move");
                let counts = |f: &mut dyn FnMut()| {
                    let before = pull_traffic(rank);
                    f();
                    let after = pull_traffic(rank);
                    [0, 1].map(|k| after[k] - before[k])
                };
                let mut c = None;
                let fresh = counts(&mut || c = Some(par_spgemm(rank, &a, &p)));
                let owners = c.unwrap().comm_pkg().recvs.len() as u64;
                assert!(owners > 0, "C has a halo");
                assert_eq!(fresh, [owners, 1], "nranks={nranks}");
                let mut plan = None;
                assert_eq!(counts(&mut || plan = Some(par_spgemm_planned(rank, &a, &p).0)), [owners, 1]);
                assert_eq!(counts(&mut || drop(plan.as_ref().unwrap().execute(rank, &a, &p))), [0, 0]);
            });
        }
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
