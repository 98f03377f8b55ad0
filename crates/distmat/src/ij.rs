//! IJ-interface global assembly: the paper's Algorithm 1 (matrix) and
//! Algorithm 2 (vector).
//!
//! Ranks contribute COO entries by *global* ids; entries for rows owned by
//! other ranks are buffered separately (the paper's `A_send`/`RHS_send`),
//! exchanged, and folded into the owned data with
//! `stable_sort_by_key` + `reduce_by_key`. The receive counts are
//! pre-computed with an allreduce so that buffers can be allocated once up
//! front, exactly as §3.3 prescribes. The final step splits the matrix
//! into diag and offd blocks.
//!
//! Mirrors the hypre API sequence
//! `HYPRE_IJMatrixSetValues2` / `AddToValues2` / `Assemble`.
//!
//! Everything Algorithm 1 computes besides the value sums — receive
//! counts, the sort permutation, the diag/offd split, `col_map_offd`,
//! the halo communication package — is a function of the sparsity
//! pattern alone. [`AssemblyPlan`] runs the algorithm once on a pattern
//! with provenance in place of values and replays it for every later
//! set of values as a gather plus one values-only message per
//! neighbour; [`VectorPlan`] does the same for Algorithm 2. Both replays
//! sum in exactly the order the sort + reduce path does, so they
//! reproduce its result bit for bit.

use std::ops::Range;

use parcomm::{FaultKind, Rank, Tag};
use resilience::SolveError;
use sparse_kit::cost;
use sparse_kit::prims;
use sparse_kit::Coo;

use crate::dist::RowDist;
use crate::halo::{socket_drop_hook, CommPkg};
use crate::parcsr::{ParCsr, ParCsrPattern};
use crate::vector::ParVector;

/// Bytes of one COO triple on the wire (i, j, value).
const TRIPLE_BYTES: u64 = 24;

/// COO triple arrays `(rows, cols, vals)` as sent on the wire.
pub type CooBuffers = (Vec<u64>, Vec<u64>, Vec<f64>);

/// An in-assembly distributed matrix (the IJ interface).
#[derive(Clone, Debug)]
pub struct IjMatrix {
    row_dist: RowDist,
    col_dist: RowDist,
    rank_id: usize,
    owned: Coo,
    shared: Coo,
}

impl IjMatrix {
    /// New empty IJ matrix over the given distributions.
    pub fn new(rank: &Rank, row_dist: RowDist, col_dist: RowDist) -> Self {
        IjMatrix {
            row_dist,
            col_dist,
            rank_id: rank.rank(),
            owned: Coo::new(),
            shared: Coo::new(),
        }
    }

    /// Add a contribution to global entry `(gi, gj)`; duplicates sum.
    /// Entries whose row is owned elsewhere are buffered for the exchange
    /// (the paper's `AddToValues2` path).
    pub fn add_value(&mut self, gi: u64, gj: u64, v: f64) {
        assert!(gi < self.row_dist.global_n(), "row {gi} out of range");
        assert!(gj < self.col_dist.global_n(), "col {gj} out of range");
        if self.row_dist.owner(gi) == self.rank_id {
            self.owned.push(gi, gj, v);
        } else {
            self.shared.push(gi, gj, v);
        }
    }

    /// Algorithm 1: exchange off-rank entries over a [`CommPkg::push`],
    /// sort + reduce, split into diag/offd, with decode failures
    /// (timeout, payload type, a message whose length differs from the
    /// count its source announced) surfaced as a typed [`SolveError`].
    /// Collective.
    /// Hosts the `assembly-nan` fault-injection hook: with a matching
    /// spec armed, one owned COO value is corrupted to NaN before the
    /// exchange — exactly the torn-triple corruption the hypre IJ
    /// interface can see on real hardware.
    pub fn try_assemble(mut self, rank: &Rank) -> Result<ParCsr, SolveError> {
        // Local pre-sort of both buffers (the Nalu-Wind local assembly
        // already guarantees this; duplicates from element contributions
        // combine here).
        let presorted = self.owned.len() + self.shared.len();
        {
            let k = rank.kernel("assembly_sort_reduce");
            k.launch(presorted, cost::sort(presorted, TRIPLE_BYTES));
            self.owned.sort_and_combine();
            self.shared.sort_and_combine();
        }

        if assembly_fault_hooks(rank)? {
            if let Some(v) = self.owned.vals.first_mut() {
                *v = f64::NAN;
            }
        }

        // Pre-compute nnz_recv (paper: MPI_Allreduce after the graph
        // computation) so receive buffers can be sized up front: the
        // push's one collective exchanges the whole sender→receiver
        // count matrix.
        let pkg = CommPkg::push(rank, &self.row_dist, self.shared.rows.iter().copied(), |k| k);
        let tag_mat: Tag = rank.alloc_tag();

        // Exchange A_send: one message per destination rank.
        let shared = &self.shared;
        pkg.begin(rank, tag_mat, |at| (pick(&shared.rows, at), pick(&shared.cols, at), pick(&shared.vals, at)));
        // Stack owned and received into one buffer sized with nnz_recv.
        let mut all = Coo::with_capacity(self.owned.len() + pkg.n_recv());
        all.extend(&self.owned);
        pkg.finish(rank, tag_mat, |src, range, (rows, cols, vals): CooBuffers| {
            entries_announced(src, range.len(), [rows.len(), cols.len(), vals.len()])?;
            for ((r0, c0), v0) in rows.into_iter().zip(cols).zip(vals) {
                all.push(r0, c0, v0);
            }
            Ok(())
        })?;

        // stable_sort_by_key + reduce_by_key over the stacked buffer.
        {
            let k = rank.kernel("assembly_sort_reduce");
            k.launch(all.len(), cost::sort(all.len(), TRIPLE_BYTES));
            k.launch(all.len(), cost::reduce(all.len(), TRIPLE_BYTES));
            all.sort_and_combine();
        }

        // Split into diag/offd and build the ParCSR. Splitting is a
        // single pass; the build communicates, so the launch is recorded
        // without a timed scope around it.
        rank.kernel("assembly_split")
            .launch(all.len(), cost::stream(all.len(), 2));
        Ok(ParCsr::from_global_coo(rank, self.row_dist, self.col_dist, &all))
    }
}

/// The fault hooks a matrix assembly hosts, once per call and before any
/// message is sent: `Ok(true)` when `assembly-nan` fires (the caller sets
/// its first owned value to NaN), an error when `socket-drop` does — the
/// whole exchange is abandoned before anything is in flight (see
/// `FaultKind::SocketDrop`), so a retry after recovery re-runs a
/// complete, clean one. A caller that skips an assembly it would
/// otherwise run calls this in its place, so the occurrence counts of a
/// fault plan do not depend on what was skipped.
pub fn assembly_fault_hooks(rank: &Rank) -> Result<bool, SolveError> {
    let nan = rank.fault(FaultKind::AssemblyNan);
    socket_drop_hook(rank)?;
    Ok(nan)
}

/// The entries of `xs` at positions `at`: one array of an Algorithm 1/2
/// message.
fn pick<T: Copy>(xs: &[T], at: &[usize]) -> Vec<T> {
    at.iter().map(|&k| xs[k]).collect()
}

/// Check that every array of source `src`'s Algorithm 1/2 message holds
/// the `expected` entries the count exchange announced: the receive
/// buffer was sized from those counts.
fn entries_announced<const N: usize>(src: usize, expected: usize, lens: [usize; N]) -> Result<(), SolveError> {
    if lens.iter().all(|&n| n == expected) {
        return Ok(());
    }
    Err(SolveError::Comm {
        detail: format!("assembly message from rank {src}: got {lens:?} entries, {expected} announced"),
    })
}

/// Ordered contribution lists of one value array: entry `e` is
/// `src[first[e]]` plus, in list order, every `src[s]` with `(e, s)` in
/// `extra`. That is the order `stable_sort_by_key` + `reduce_by_key`
/// sum in — the first contribution assigns and the rest add, so −0.0
/// and single-contribution entries keep their bits.
#[derive(Clone, Debug, Default)]
struct Gather {
    first: Vec<u32>,
    extra: Vec<(u32, u32)>,
}

impl Gather {
    /// Append the entry whose contributions sit at `src` positions
    /// `prov`, in summation order.
    fn push_entry(&mut self, prov: &[u32]) {
        let e = self.first.len() as u32;
        self.first.push(prov[0]);
        self.extra.extend(prov[1..].iter().map(|&s| (e, s)));
    }

    fn contribs(&self) -> usize {
        self.first.len() + self.extra.len()
    }

    fn apply(&self, src: &[f64]) -> Vec<f64> {
        let mut out: Vec<f64> = self.first.iter().map(|&s| src[s as usize]).collect();
        for &(e, s) in &self.extra {
            out[e as usize] += src[s as usize];
        }
        out
    }
}

/// Stable-sort `keys` with their positions as provenance and hand each
/// run of equal keys to `entry` as `(key, positions in summation
/// order)`: the `stable_sort_by_key` of Algorithms 1 and 2 with the
/// `reduce_by_key` recorded instead of performed.
fn sorted_runs<K: Ord + Copy>(
    rank: &Rank,
    mut keys: Vec<K>,
    mut entry: impl FnMut(K, &[u32]),
) {
    assert!(keys.len() <= u32::MAX as usize, "plan positions exceed u32");
    let mut prov: Vec<u32> = (0..keys.len() as u32).collect();
    // One sorted item is a key plus its u32 provenance.
    let item_bytes = (std::mem::size_of::<K>() + std::mem::size_of::<u32>()) as u64;
    let k = rank.kernel("assembly_sort_reduce");
    k.launch(keys.len(), cost::sort(keys.len(), item_bytes));
    prims::stable_sort_by_key(&mut keys, &mut prov);
    let mut i = 0;
    while i < keys.len() {
        let mut j = i + 1;
        while j < keys.len() && keys[j] == keys[i] {
            j += 1;
        }
        entry(keys[i], &prov[i..j]);
        i = j;
    }
}

/// A planned message of the wrong length, as a typed error: the gathers
/// index the receive buffer by planned position.
fn plan_mismatch(src: usize, expected: usize, got: usize) -> SolveError {
    SolveError::Comm {
        detail: format!(
            "assembly values message from rank {src}: got {got} values, plan expects {expected}"
        ),
    }
}

/// Algorithm 1 with the structure taken out: built once per sparsity
/// pattern by [`AssemblyPlan::build`], replayed for every set of values
/// by [`AssemblyPlan::try_assemble`] with no sort, no allgather, no ids
/// on the wire and no comm-package exchange.
///
/// The plan is a pure function of the two distributions and the owned
/// and shared patterns of every rank; whoever holds the patterns owns
/// its lifetime.
#[derive(Clone, Debug)]
pub struct AssemblyPlan {
    n_owned: usize,
    /// Sends gather from the shared value array; receives land after
    /// the owned values.
    pkg: CommPkg,
    /// Tag of this plan's values-only messages.
    tag: Tag,
    /// The finished structure — indptr/indices, `col_map_offd`,
    /// `CommPkg`, halo tag — of every replayed matrix.
    pattern: ParCsrPattern,
    /// Contribution lists over `owned values ++ received values` (by
    /// ascending source rank) for the stored entries of `diag` / `offd`.
    diag: Gather,
    offd: Gather,
}

impl AssemblyPlan {
    /// Run Algorithm 1 on a pattern. `owned` holds the (row, col) pairs
    /// this rank contributes to rows it owns, `shared` those for rows
    /// owned elsewhere. Collective.
    ///
    /// # Panics
    ///
    /// Panics if either pattern is not row-major sorted and
    /// duplicate-free, or holds a row on the wrong side of the ownership
    /// split.
    pub fn build(
        rank: &Rank,
        row_dist: RowDist,
        col_dist: RowDist,
        owned: &[(u64, u64)],
        shared: &[(u64, u64)],
    ) -> AssemblyPlan {
        let me = rank.rank();
        for pattern in [owned, shared] {
            assert!(
                pattern.windows(2).all(|w| w[0] < w[1]),
                "plan patterns must be row-major sorted and duplicate-free"
            );
        }
        assert!(owned.iter().all(|&(r, _)| row_dist.owner(r) == me), "owned row not owned");

        let pkg = CommPkg::push(rank, &row_dist, shared.iter().map(|&(r, _)| r), |k| k);
        let key_tag = rank.alloc_tag();
        pkg.begin_values(rank, key_tag, shared);
        let mut keys = owned.to_vec();
        pkg.finish_values(rank, key_tag, &mut keys, plan_mismatch)
            .unwrap_or_else(|e| panic!("pattern exchange: {e}"));

        let my_cols = col_dist.start(me)..col_dist.end(me);
        let mut coo = Coo::with_capacity(keys.len());
        let (mut diag, mut offd) = (Gather::default(), Gather::default());
        sorted_runs(rank, keys, |(r, c), prov| {
            coo.push(r, c, 0.0);
            let block = if my_cols.contains(&c) { &mut diag } else { &mut offd };
            block.push_entry(prov);
        });
        // Both blocks store their entries in (row, global col) order —
        // the local and compressed column maps are monotone — so entry
        // `k` of a gather is stored entry `k` of its block.
        let pattern = ParCsr::from_global_coo(rank, row_dist, col_dist, &coo).into_pattern();
        assert_eq!(
            pattern.nnz(),
            (diag.first.len(), offd.first.len()),
            "gathers out of step with the assembled pattern"
        );
        AssemblyPlan {
            n_owned: owned.len(),
            pkg,
            tag: rank.alloc_tag(),
            pattern,
            diag,
            offd,
        }
    }

    /// Replay: the matrix [`IjMatrix::try_assemble`] builds from the
    /// plan's patterns carrying `owned_vals` / `shared_vals`, bit for
    /// bit. Collective among the ranks that share rows.
    ///
    /// Hosts the same fault hooks as `try_assemble`
    /// ([`assembly_fault_hooks`]): `assembly-nan` corrupts the first
    /// owned value, `socket-drop` aborts the exchange.
    ///
    /// # Panics
    ///
    /// Panics if a value array's length differs from its pattern's.
    pub fn try_assemble(
        &self,
        rank: &Rank,
        owned_vals: &[f64],
        shared_vals: &[f64],
    ) -> Result<ParCsr, SolveError> {
        assert_eq!(owned_vals.len(), self.n_owned, "owned values do not match the plan");
        let n_shared = self.pkg.n_send();
        assert_eq!(shared_vals.len(), n_shared, "shared values do not match the plan");
        let mut stack = Vec::with_capacity(self.n_owned + self.pkg.n_recv());
        stack.extend_from_slice(owned_vals);

        if assembly_fault_hooks(rank)? {
            if let Some(v) = stack.first_mut() {
                *v = f64::NAN;
            }
        }

        {
            // The copy-out is the gather of each send, so the scope's
            // wall time includes the sends' encode + enqueue (also in
            // `transfer_secs`).
            let k = (n_shared > 0).then(|| rank.kernel("assembly_pack"));
            if let Some(k) = &k {
                k.launch(n_shared, cost::stream(n_shared, 2));
            }
            self.pkg.begin_values(rank, self.tag, shared_vals);
        }
        self.pkg.finish_values(rank, self.tag, &mut stack, plan_mismatch)?;

        let entries = self.diag.first.len() + self.offd.first.len();
        let contribs = self.diag.contribs() + self.offd.contribs();
        let k = rank.kernel("assembly_gather");
        k.launch(entries, cost::assembly_gather(entries, contribs));
        Ok(self.pattern.with_values(self.diag.apply(&stack), self.offd.apply(&stack)))
    }
}

/// An in-assembly distributed vector (the IJ interface).
#[derive(Clone, Debug)]
pub struct IjVector {
    dist: RowDist,
    rank_id: usize,
    /// The global ids this rank owns: `owned[gi - start]`.
    own: Range<u64>,
    owned: Vec<f64>,
    shared_ids: Vec<u64>,
    shared_vals: Vec<f64>,
}

impl IjVector {
    /// New zero vector over `dist`.
    pub fn new(rank: &Rank, dist: RowDist) -> Self {
        let me = rank.rank();
        let own = dist.start(me)..dist.end(me);
        IjVector {
            owned: vec![0.0; dist.local_n(me)],
            dist,
            rank_id: me,
            own,
            shared_ids: Vec::new(),
            shared_vals: Vec::new(),
        }
    }

    /// Add to global entry `gi`; off-rank entries are buffered. An owned
    /// id is one range check away from its slot: no owner search.
    pub fn add_value(&mut self, gi: u64, v: f64) {
        if self.own.contains(&gi) {
            self.owned[(gi - self.own.start) as usize] += v;
            return;
        }
        assert!(gi < self.dist.global_n(), "index {gi} out of range");
        self.shared_ids.push(gi);
        self.shared_vals.push(v);
    }

    /// `vs[c].add_value(gi, v[c])` for every component `c` of a field
    /// whose components share one distribution: the id is resolved once
    /// for all of them.
    pub fn add_to_each<const N: usize>(vs: &mut [IjVector; N], gi: u64, v: [f64; N]) {
        let Some(own) = vs.first().map(|x| x.own.clone()) else {
            return;
        };
        debug_assert!(vs.iter().all(|x| x.own == own), "components over different distributions");
        if own.contains(&gi) {
            let i = (gi - own.start) as usize;
            for (x, v) in vs.iter_mut().zip(v) {
                x.owned[i] += v;
            }
        } else {
            for (x, v) in vs.iter_mut().zip(v) {
                x.add_value(gi, v);
            }
        }
    }

    /// Algorithm 2: exchange off-rank entries, sort + reduce **only the
    /// received values** (n_recv ≪ n_own), then scatter-add into the owned
    /// array. Collective.
    ///
    /// # Panics
    ///
    /// Panics, naming the failure, if a message does not arrive whole.
    pub fn assemble(mut self, rank: &Rank) -> ParVector {
        // Group shared entries by owner.
        let mut keys: Vec<u64> = self.shared_ids.clone();
        prims::stable_sort_by_key(&mut keys, &mut self.shared_vals);
        self.shared_ids = keys;

        // Vector entries `(ids, vals)` as sent on the wire: one message
        // per owner, whose size the push's count allgather announces.
        let pkg = CommPkg::push(rank, &self.dist, self.shared_ids.iter().copied(), |k| k);
        let tag = rank.alloc_tag();
        pkg.begin(rank, tag, |at| (pick(&self.shared_ids, at), pick(&self.shared_vals, at)));

        // Stack received values only.
        let mut recv_ids: Vec<u64> = Vec::with_capacity(pkg.n_recv());
        let mut recv_vals: Vec<f64> = Vec::with_capacity(pkg.n_recv());
        pkg.finish(rank, tag, |src, range, (ids, vals): (Vec<u64>, Vec<f64>)| {
            entries_announced(src, range.len(), [ids.len(), vals.len()])?;
            recv_ids.extend(ids);
            recv_vals.extend(vals);
            Ok(())
        })
        .unwrap_or_else(|e| panic!("vector assembly: {e}"));
        // Sort + reduce over the received values only (the paper found
        // this noticeably faster than sorting the whole stacked vector).
        let (ids, vals) = {
            let k = rank.kernel("assembly_sort_reduce");
            k.launch(recv_ids.len(), cost::sort(recv_ids.len(), 16));
            prims::stable_sort_by_key(&mut recv_ids, &mut recv_vals);
            prims::reduce_by_key(&recv_ids, &recv_vals)
        };

        // RHS[i_new] += RHS_new[i_new].
        {
            let k = rank.kernel("rhs_scatter_add");
            k.launch(ids.len(), cost::blas1(ids.len(), 2));
            for (&gi, &v) in ids.iter().zip(&vals) {
                let li = self.dist.to_local(self.rank_id, gi);
                self.owned[li] += v;
            }
        }
        ParVector::from_local(rank, self.dist, self.owned)
    }

    /// Algorithm 2 through a recorded [`VectorPlan`]: the vector
    /// [`IjVector::assemble`] returns, bit for bit, from one values-only
    /// message per neighbour — no sort, no count allgather, no ids on the
    /// wire. Collective among the ranks that share entries.
    ///
    /// # Panics
    ///
    /// Panics if this vector's off-rank ids are not the sequence the
    /// plan was recorded from.
    pub fn try_assemble_planned(
        mut self,
        rank: &Rank,
        plan: &VectorPlan,
    ) -> Result<ParVector, SolveError> {
        assert!(
            self.shared_ids == plan.ids,
            "off-rank id sequence differs from the one the plan was recorded from"
        );
        plan.pkg.begin_values(rank, plan.tag, &self.shared_vals);
        let mut stack = Vec::new();
        plan.pkg.finish_values(rank, plan.tag, &mut stack, plan_mismatch)?;

        // Gather + scatter-add, one fused launch.
        {
            let n = plan.rows.len();
            let (gather, add) = (cost::assembly_gather(n, stack.len()), cost::blas1(n, 2));
            let k = rank.kernel("rhs_gather_add");
            k.launch(n, (gather.0 + add.0, gather.1 + add.1));
            let reduced = plan.gather.apply(&stack);
            for (&li, &v) in plan.rows.iter().zip(&reduced) {
                self.owned[li as usize] += v;
            }
        }
        Ok(ParVector::from_local(rank, self.dist, self.owned))
    }
}

/// Algorithm 2 with the structure taken out, for vectors whose off-rank
/// `add_value` calls always name the same ids in the same order (a
/// right-hand side filled by a fixed loop over a fixed graph). Built once
/// from the first such vector, replayed by
/// [`IjVector::try_assemble_planned`].
#[derive(Clone, Debug)]
pub struct VectorPlan {
    /// The off-rank ids in `add_value` order.
    ids: Vec<u64>,
    /// Sends gather the buffered values in stable id order; receives
    /// fill the value list `gather` reads.
    pkg: CommPkg,
    /// Tag of this plan's values-only messages.
    tag: Tag,
    /// Local index of every distinct received id, ascending, and its
    /// contribution list over the received values (by ascending source).
    rows: Vec<u32>,
    gather: Gather,
}

impl VectorPlan {
    /// Run Algorithm 2 on the off-rank ids of `v`. Collective.
    pub fn build(rank: &Rank, v: &IjVector) -> VectorPlan {
        let me = rank.rank();
        // Positions of the buffered values in stable id order.
        let mut order: Vec<usize> = Vec::with_capacity(v.shared_ids.len());
        sorted_runs(rank, v.shared_ids.clone(), |_, positions| {
            order.extend(positions.iter().map(|&p| p as usize));
        });
        let pkg = CommPkg::push(rank, &v.dist, order.iter().map(|&p| v.shared_ids[p]), |k| order[k]);
        let key_tag = rank.alloc_tag();
        pkg.begin_values(rank, key_tag, &v.shared_ids);
        let mut recv_ids = Vec::new();
        pkg.finish_values(rank, key_tag, &mut recv_ids, plan_mismatch)
            .unwrap_or_else(|e| panic!("id exchange: {e}"));
        let mut rows: Vec<u32> = Vec::new();
        let mut gather = Gather::default();
        sorted_runs(rank, recv_ids, |id, prov| {
            rows.push(v.dist.to_local(me, id) as u32);
            gather.push_entry(prov);
        });
        VectorPlan {
            ids: v.shared_ids.clone(),
            pkg,
            tag: rank.alloc_tag(),
            rows,
            gather,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm::Comm;
    use sparse_kit::Csr;

    #[test]
    fn matrix_assembly_matches_serial_reference() {
        // Every rank contributes to a global 8×8 tridiagonal matrix,
        // including entries in rows owned by neighbours.
        let n = 8u64;
        for p in [1, 2, 4] {
            let out = Comm::run(p, move |rank| {
                let dist = RowDist::block(n, rank.size());
                let mut ij = IjMatrix::new(rank, dist.clone(), dist);
                // Each rank assembles "element" contributions for the
                // edges (i, i+1) where i % size == rank — scattering work
                // across ranks irrespective of row ownership.
                for i in 0..n - 1 {
                    if i as usize % rank.size() == rank.rank() {
                        ij.add_value(i, i, 1.0);
                        ij.add_value(i + 1, i + 1, 1.0);
                        ij.add_value(i, i + 1, -1.0);
                        ij.add_value(i + 1, i, -1.0);
                    }
                }
                ij.try_assemble(rank).unwrap().to_serial(rank)
            });
            // Serial reference: assemble the same edges on one "rank".
            let mut coo = sparse_kit::Coo::new();
            for i in 0..n - 1 {
                coo.push(i, i, 1.0);
                coo.push(i + 1, i + 1, 1.0);
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
            let expected = Csr::from_coo(n as usize, n as usize, &coo);
            for gathered in out {
                assert_eq!(gathered.to_dense(), expected.to_dense(), "p={p}");
            }
        }
    }

    #[test]
    fn duplicate_cross_rank_contributions_sum() {
        let out = Comm::run(3, |rank| {
            let dist = RowDist::block(3, 3);
            let mut ij = IjMatrix::new(rank, dist.clone(), dist);
            // All ranks hit global (0,0).
            ij.add_value(0, 0, 1.0);
            ij.try_assemble(rank).unwrap().to_serial(rank)
        });
        assert_eq!(out[0].get(0, 0), 3.0);
    }

    #[test]
    fn assembly_records_sort_kernels_and_messages() {
        let (sorts, traces) = Comm::run_traced(2, |rank| {
            rank.set_telemetry(telemetry::Telemetry::enabled(rank.rank()));
            let dist = RowDist::block(4, 2);
            let mut ij = IjMatrix::new(rank, dist.clone(), dist);
            rank.with_phase("global assembly", || {
                // Contribute to a row the other rank owns.
                let other_row = if rank.rank() == 0 { 2 } else { 0 };
                ij.add_value(other_row, 0, 1.0);
                ij.add_value(rank.rank() as u64 * 2, 0, 1.0);
                ij.try_assemble(rank).unwrap()
            });
            let calls = |e| match e {
                telemetry::Event::KernelPerf { kernel, calls, .. }
                    if kernel == "assembly_sort_reduce" => calls,
                _ => 0,
            };
            rank.telemetry_events().into_iter().map(calls).sum::<u64>()
        });
        for (t, sorts) in traces.iter().zip(sorts) {
            let phase = t.phase("global assembly");
            assert!(phase.msgs >= 1, "expected off-rank COO message");
            assert!(sorts >= 2, "expected sort kernels");
            assert!(phase.collectives >= 1, "expected nnz_recv allreduce");
        }
    }

    #[test]
    fn vector_assembly_matches_reference() {
        let n = 9u64;
        for p in [1, 3] {
            let out = Comm::run(p, move |rank| {
                let dist = RowDist::block(n, rank.size());
                let mut ij = IjVector::new(rank, dist);
                for i in 0..n {
                    // every rank adds i+1 to entry i
                    ij.add_value(i, (i + 1) as f64);
                }
                ij.assemble(rank).to_serial(rank)
            });
            for v in out {
                let expected: Vec<f64> =
                    (0..n).map(|i| (i + 1) as f64 * p as f64).collect();
                assert_eq!(v, expected, "p={p}");
            }
        }
    }

    #[test]
    fn vector_off_rank_duplicates_sum() {
        let out = Comm::run(2, |rank| {
            let dist = RowDist::block(4, 2);
            let mut ij = IjVector::new(rank, dist);
            if rank.rank() == 1 {
                // Rank 1 contributes twice to rank 0's entry 0.
                ij.add_value(0, 2.0);
                ij.add_value(0, 3.0);
            }
            ij.assemble(rank).to_serial(rank)
        });
        assert_eq!(out[0][0], 5.0);
    }

    #[test]
    fn empty_assembly_yields_zero_structures() {
        Comm::run(2, |rank| {
            let dist = RowDist::block(4, 2);
            let a = IjMatrix::new(rank, dist.clone(), dist.clone()).try_assemble(rank).unwrap();
            assert_eq!(a.local_nnz(), 0);
            let v = IjVector::new(rank, dist).assemble(rank);
            assert!(v.local.iter().all(|&x| x == 0.0));
        });
    }

    #[test]
    fn replay_with_truncated_values_message_is_a_typed_error() {
        // Each rank contributes two entries (and two vector adds) to a
        // row the other owns. Rank 1 then plays a peer whose values
        // messages lost their tail: rank 0's replays must refuse them,
        // and so must the reference Algorithm 1, whose peer announces
        // two entries and sends a triple list short of one value.
        let out = Comm::run(2, |rank| {
            let dist = RowDist::block(4, 2);
            let mine = rank.rank() as u64 * 2;
            let theirs = 2 - mine;
            let plan = AssemblyPlan::build(
                rank,
                dist.clone(),
                dist.clone(),
                &[(mine, mine)],
                &[(theirs, 0), (theirs, 1)],
            );
            let mut v = IjVector::new(rank, dist.clone());
            v.add_value(theirs, 1.0);
            v.add_value(theirs + 1, 2.0);
            let vplan = VectorPlan::build(rank, &v);
            if rank.rank() == 1 {
                rank.send(0, plan.tag, vec![1.0f64]);
                rank.send(0, vplan.tag, vec![1.0f64, 2.0, 3.0]);
                let _: Vec<f64> = rank.recv(0, plan.tag);
                let _: Vec<f64> = rank.recv(0, vplan.tag);
                // What `IjMatrix::try_assemble`'s push runs: the count
                // allgather, then the tag its message rides.
                rank.allgather(vec![2u64, 0]);
                let tag = rank.alloc_tag();
                rank.send(0, tag, (vec![theirs, theirs], vec![0u64, 1], vec![1.0f64]));
                let _: CooBuffers = rank.recv(0, tag);
                return None;
            }
            let a = plan.try_assemble(rank, &[1.0], &[2.0, 3.0]).map(|_| ());
            let b = v.try_assemble_planned(rank, &vplan).map(|_| ());
            let mut ij = IjMatrix::new(rank, dist.clone(), dist);
            ij.add_value(mine, mine, 1.0);
            ij.add_value(theirs, 0, 2.0);
            let c = ij.try_assemble(rank).map(|_| ());
            Some((a, b, c))
        });
        let (a, b, c) = out[0].clone().expect("rank 0 replays");
        for (res, want) in [
            (a, "got 1 values, plan expects 2"),
            (b, "got 3 values, plan expects 2"),
            (c, "from rank 1: got [2, 2, 1] entries, 2 announced"),
        ] {
            match res {
                Err(SolveError::Comm { detail }) => assert!(detail.contains(want), "{detail}"),
                other => panic!("expected a typed comm error, got {other:?}"),
            }
        }
    }

    #[test]
    fn replayed_matrices_share_the_plan_halo() {
        Comm::run(3, |rank| {
            let dist = RowDist::block(6, 3);
            let row = 2 * rank.rank() as u64;
            let next = (row + 2) % 6;
            let mut owned = vec![(row, row), (row, next)];
            owned.sort_unstable();
            let shared = [(next, row)];
            let plan = AssemblyPlan::build(rank, dist.clone(), dist.clone(), &owned, &shared);
            let a = plan.try_assemble(rank, &[1.0, 2.0], &[3.0]).unwrap();
            let b = plan.try_assemble(rank, &[4.0, 5.0], &[6.0]).unwrap();
            assert!(std::sync::Arc::ptr_eq(a.halo(), b.halo()));
            let mut ij = IjMatrix::new(rank, dist.clone(), dist);
            for &(r, c) in owned.iter().chain(&shared) {
                ij.add_value(r, c, 1.0);
            }
            let fresh = ij.try_assemble(rank).unwrap();
            assert!(!fresh.comm_pkg().sends.is_empty());
            assert_eq!(a.comm_pkg(), fresh.comm_pkg());
            assert_eq!(b.comm_pkg(), fresh.comm_pkg());
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_entry_panics() {
        Comm::run(1, |rank| {
            let dist = RowDist::block(2, 1);
            let mut ij = IjMatrix::new(rank, dist.clone(), dist);
            ij.add_value(5, 0, 1.0);
        });
    }

}
