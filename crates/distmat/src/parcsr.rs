//! ParCSR matrices: diag/offd-split distributed CSR with halo exchange.

use parcomm::{KernelKind, Rank, Tag, TagClass};
use resilience::faults::{self, FaultKind};
use resilience::SolveError;
use sparse_kit::cost;
use sparse_kit::policy;
use sparse_kit::{Coo, Csr, SellCs, SellLayout};

use crate::dist::RowDist;
use crate::vector::ParVector;

/// Communication package: who sends what to whom for a halo exchange of
/// vector values aligned with a matrix's column distribution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommPkg {
    /// `(dst rank, local column ids to pack and send)`, sorted by rank.
    pub sends: Vec<(usize, Vec<usize>)>,
    /// `(src rank, range of positions in col_map_offd)`, sorted by rank.
    pub recvs: Vec<(usize, std::ops::Range<usize>)>,
}

impl CommPkg {
    /// Total number of external values received.
    pub fn n_recv(&self) -> usize {
        self.recvs.iter().map(|(_, r)| r.len()).sum()
    }

    /// Total number of values sent.
    pub fn n_send(&self) -> usize {
        self.sends.iter().map(|(_, s)| s.len()).sum()
    }
}

/// A distributed CSR matrix in hypre's ParCSR layout.
///
/// Rows are distributed by `row_dist`; columns by `col_dist` (equal to
/// `row_dist` for square operators, different for interpolation). The
/// local block splits into `diag` (columns owned by this rank, indexed
/// locally) and `offd` (external columns, indexed into `col_map_offd`,
/// which maps them to sorted global ids).
#[derive(Clone, Debug)]
pub struct ParCsr {
    row_dist: RowDist,
    col_dist: RowDist,
    rank_id: usize,
    /// Local rows × local columns.
    pub diag: Csr,
    /// SELL-C-σ mirror of `diag`, built at construction only when the
    /// active [`sparse_kit::KernelPolicy`] is `Sellcs` (`Auto` is CSR).
    /// Always numerically in sync with `diag` (see [`ParCsr::scale`] and
    /// the plan-replay refresh in `ops`); `spmv_into` dispatches on it.
    diag_sell: Option<SellCs>,
    /// Local rows × external columns (compressed).
    pub offd: Csr,
    /// Sorted global ids of the external columns.
    pub col_map_offd: Vec<u64>,
    comm_pkg: CommPkg,
    /// Tag dedicated to this matrix's halo traffic (a per-object
    /// "communicator": messages of different matrices can never match).
    halo_tag: Tag,
}

impl ParCsr {
    /// Build from a local COO whose rows are *global* ids owned by this
    /// rank and whose columns are global ids anywhere. Collective: builds
    /// the halo communication package.
    ///
    /// # Panics
    ///
    /// Panics if any row is not owned by this rank or any column is out
    /// of range.
    pub fn from_global_coo(
        rank: &Rank,
        row_dist: RowDist,
        col_dist: RowDist,
        coo: &Coo,
    ) -> Self {
        let r = rank.rank();
        let my_cols = col_dist.start(r)..col_dist.end(r);
        let local_rows = row_dist.local_n(r);

        // Split into diag and offd triple sets.
        let mut diag_coo = Coo::new();
        let mut offd_cols_global: Vec<u64> = Vec::new();
        let mut offd_triples: Vec<(u64, u64, f64)> = Vec::new();
        for k in 0..coo.len() {
            let (gi, gj, v) = (coo.rows[k], coo.cols[k], coo.vals[k]);
            let li = row_dist.to_local(r, gi) as u64;
            assert!(gj < col_dist.global_n(), "column {gj} out of range");
            if my_cols.contains(&gj) {
                diag_coo.push(li, gj - col_dist.start(r), v);
            } else {
                offd_cols_global.push(gj);
                offd_triples.push((li, gj, v));
            }
        }

        // Compress external columns to a sorted global map.
        offd_cols_global.sort_unstable();
        offd_cols_global.dedup();
        let col_map_offd = offd_cols_global;
        let mut offd_coo = Coo::new();
        for (li, gj, v) in offd_triples {
            let cj = col_map_offd.binary_search(&gj).unwrap() as u64;
            offd_coo.push(li, cj, v);
        }

        let diag = Csr::from_coo(local_rows, col_dist.local_n(r), &diag_coo);
        let offd = Csr::from_coo(local_rows, col_map_offd.len(), &offd_coo);
        let comm_pkg = build_comm_pkg(rank, &col_dist, &col_map_offd);
        let diag_sell = policy::current()
            .builds_sellcs()
            .then(|| SellCs::from_csr(&diag, policy::DEFAULT_SIGMA));
        ParCsr {
            row_dist,
            col_dist,
            rank_id: r,
            diag,
            diag_sell,
            offd,
            col_map_offd,
            comm_pkg,
            halo_tag: rank.alloc_tag_for(TagClass::Halo),
        }
    }

    /// Take this rank's row block of a replicated serial matrix
    /// (tests/generators). Collective.
    pub fn from_serial(rank: &Rank, row_dist: RowDist, col_dist: RowDist, a: &Csr) -> Self {
        assert_eq!(a.nrows() as u64, row_dist.global_n(), "row count mismatch");
        assert_eq!(a.ncols() as u64, col_dist.global_n(), "col count mismatch");
        let r = rank.rank();
        let mut coo = Coo::new();
        for gi in row_dist.start(r)..row_dist.end(r) {
            let (cols, vals) = a.row(gi as usize);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(gi, c as u64, v);
            }
        }
        Self::from_global_coo(rank, row_dist, col_dist, &coo)
    }

    /// Row distribution.
    pub fn row_dist(&self) -> &RowDist {
        &self.row_dist
    }

    /// Column distribution.
    pub fn col_dist(&self) -> &RowDist {
        &self.col_dist
    }

    /// Owning rank id.
    pub fn rank_id(&self) -> usize {
        self.rank_id
    }

    /// Halo communication package.
    pub fn comm_pkg(&self) -> &CommPkg {
        &self.comm_pkg
    }

    /// Rows owned by this rank.
    pub fn local_rows(&self) -> usize {
        self.row_dist.local_n(self.rank_id)
    }

    /// Stored entries on this rank.
    pub fn local_nnz(&self) -> usize {
        self.diag.nnz() + self.offd.nnz()
    }

    /// Total stored entries across ranks. Collective.
    pub fn global_nnz(&self, rank: &Rank) -> u64 {
        rank.allreduce_sum(self.local_nnz() as u64)
    }

    /// Global column id of a local diag column.
    pub fn global_diag_col(&self, j: usize) -> u64 {
        self.col_dist.start(self.rank_id) + j as u64
    }

    /// Global column id of a compressed offd column.
    pub fn global_offd_col(&self, j: usize) -> u64 {
        self.col_map_offd[j]
    }

    /// The global diagonal entries of the locally owned rows (square
    /// operators: the diagonal lives in the diag block).
    pub fn diagonal(&self) -> Vec<f64> {
        assert_eq!(
            self.row_dist, self.col_dist,
            "diagonal requires a square distribution"
        );
        self.diag.diag()
    }

    /// Is this rank's block of `other` the same stored matrix, bit for
    /// bit? Compares distributions, `diag`/`offd` structure,
    /// `col_map_offd` and the value **bits** (so −0.0 ≠ 0.0, NaN
    /// payloads count, and an explicit zero is a structural difference).
    /// Local: a caller that branches into collective code on the verdict
    /// must allreduce it first.
    pub fn bitwise_eq(&self, other: &ParCsr) -> bool {
        let same_block = |a: &Csr, b: &Csr| {
            a.ncols() == b.ncols()
                && a.indptr() == b.indptr()
                && a.indices() == b.indices()
                && a.vals().iter().map(|v| v.to_bits()).eq(b.vals().iter().map(|v| v.to_bits()))
        };
        self.row_dist == other.row_dist
            && self.col_dist == other.col_dist
            && self.col_map_offd == other.col_map_offd
            && same_block(&self.diag, &other.diag)
            && same_block(&self.offd, &other.offd)
    }

    /// Scale every stored value by `s` (local operation).
    pub fn scale(&mut self, s: f64) {
        self.diag.scale(s);
        if let Some(sell) = &mut self.diag_sell {
            sell.scale(s);
        }
        self.offd.scale(s);
    }

    /// The SELL-C-σ mirror of the diag block, if the active kernel
    /// policy built one.
    pub fn diag_sell(&self) -> Option<&SellCs> {
        self.diag_sell.as_ref()
    }

    /// Strip the values, keeping everything construction derived from
    /// the sparsity pattern.
    ///
    /// # Panics
    ///
    /// Panics if a block has more than `u32::MAX` columns.
    pub fn into_pattern(self) -> ParCsrPattern {
        ParCsrPattern {
            diag: BlockPattern::of(&self.diag),
            offd: BlockPattern::of(&self.offd),
            diag_sell: self.diag_sell.map(SellCs::into_layout),
            row_dist: self.row_dist,
            col_dist: self.col_dist,
            rank_id: self.rank_id,
            col_map_offd: self.col_map_offd,
            comm_pkg: self.comm_pkg,
            halo_tag: self.halo_tag,
        }
    }

    /// Re-copy `diag`'s values into the SELL-C-σ mirror (no-op without
    /// one). Callers that overwrite `diag` values in place — numeric
    /// SpGEMM plan replay — must call this before the next SpMV.
    pub fn refresh_diag_sell(&mut self) {
        if let Some(sell) = &mut self.diag_sell {
            sell.refresh_values(&self.diag);
        }
    }

    /// Exchange halo values: returns the external vector aligned with
    /// `col_map_offd`. Collective among neighbouring ranks.
    ///
    /// # Panics
    ///
    /// Panics on a corrupted exchange; see [`ParCsr::try_halo_exchange`]
    /// for the fallible variant.
    pub fn halo_exchange(&self, rank: &Rank, x_local: &[f64]) -> Vec<f64> {
        self.try_halo_exchange(rank, x_local).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ParCsr::halo_exchange`] with decode failures (timeout, payload
    /// type, payload length) surfaced as a typed [`SolveError`]:
    /// [`ParCsr::try_halo_begin`] and [`HaloInFlight::try_finish`] back to
    /// back, with nothing overlapped (AMG setup, probes, tests). The
    /// solve-phase kernels ([`ParCsr::spmv_into`],
    /// [`ParCsr::residual_into`]) put the diag-block pass between the two.
    pub fn try_halo_exchange(
        &self,
        rank: &Rank,
        x_local: &[f64],
    ) -> Result<Vec<f64>, SolveError> {
        self.try_halo_begin(rank, x_local)?.try_finish(rank)
    }

    /// First half of a halo exchange: pack the boundary values of
    /// `x_local` and send them. The receives stay outstanding until
    /// [`HaloInFlight::try_finish`], so whatever the caller does in
    /// between — the diag-block pass, which reads no remote value — runs
    /// while the messages travel.
    ///
    /// Hosts the `socket-drop` fault hook **before any send** (the whole
    /// exchange aborts as a vanished peer would make it, and a retry
    /// finds no stale message on this matrix's halo tag).
    ///
    /// # Panics
    ///
    /// Panics if `x_local` does not match the column distribution.
    pub fn try_halo_begin(
        &self,
        rank: &Rank,
        x_local: &[f64],
    ) -> Result<HaloInFlight<'_>, SolveError> {
        assert_eq!(
            x_local.len(),
            self.col_dist.local_n(self.rank_id),
            "x length does not match column distribution"
        );
        if faults::fire(FaultKind::SocketDrop, || rank.phase_name()) {
            return Err(SolveError::Comm {
                detail: format!("injected socket drop in {}", rank.phase_name()),
            });
        }
        // Pack kernel: gather boundary values into per-destination buffers.
        // The gather is interleaved with the sends, so the scope's wall
        // time includes their encode + enqueue (also in `transfer_secs`).
        let packed_total = self.comm_pkg.n_send();
        let k = (packed_total > 0).then(|| rank.kernel("halo_pack", KernelKind::Stream));
        if let Some(k) = &k {
            k.launch(packed_total, cost::blas1(packed_total, 2));
        }
        for (dst, ids) in &self.comm_pkg.sends {
            let buf: Vec<f64> = ids.iter().map(|&i| x_local[i]).collect();
            rank.send(*dst, self.halo_tag, buf);
        }
        Ok(HaloInFlight { a: self })
    }

    /// y = A·x distributed: `y_local = diag·x_local + offd·x_ext`.
    /// Collective.
    pub fn spmv(&self, rank: &Rank, x: &ParVector) -> ParVector {
        let mut y = ParVector::zeros(rank, self.row_dist.clone());
        self.spmv_into(rank, x, &mut y);
        y
    }

    /// y = A·x into an existing vector, the halo in flight behind the
    /// diag-block pass (see [`ParCsr::residual_into`] for the order).
    /// Collective.
    pub fn spmv_into(&self, rank: &Rank, x: &ParVector, y: &mut ParVector) {
        assert_eq!(
            x.dist(),
            &self.col_dist,
            "x distribution does not match columns"
        );
        self.apply_overlapped(rank, &x.local, None, &mut y.local);
    }

    /// Residual r = b − A·x. Collective.
    pub fn residual(&self, rank: &Rank, b: &ParVector, x: &ParVector) -> ParVector {
        assert_eq!(
            x.dist(),
            &self.col_dist,
            "x distribution does not match columns"
        );
        let mut r = ParVector::zeros(rank, self.row_dist.clone());
        self.residual_into(rank, &b.local, &x.local, &mut r.local);
        r
    }

    /// Local slices of r = b − A·x, the one residual of the solve phase
    /// (GMRES restarts, V-cycle restriction, every smoother round):
    ///
    /// 1. [`ParCsr::try_halo_begin`] — pack and send the boundary of `x`;
    /// 2. diag block (CSR or its SELL-C-σ mirror): `s_i = Σ diag_ij x_j`;
    /// 3. [`HaloInFlight::try_finish`] — receive the external values;
    /// 4. offd block: `s_i += Σ offd_ij ext_j` (skipped when empty);
    /// 5. `r_i = b_i − s_i`.
    ///
    /// Per row that is the operation order of an exchange followed by
    /// `diag`, `offd` and a subtraction (and of the `spmv`, `scale(−1)`,
    /// `axpy(1, b)` sequence, since `(−s) + b ≡ b − s` in IEEE
    /// arithmetic): only the receive moved, behind step 2. Collective.
    ///
    /// # Panics
    ///
    /// Panics on a corrupted exchange, as [`ParCsr::halo_exchange`] does,
    /// or if a slice length does not match the distributions.
    pub fn residual_into(&self, rank: &Rank, b: &[f64], x: &[f64], r: &mut [f64]) {
        assert_eq!(b.len(), r.len(), "b length does not match rows");
        self.apply_overlapped(rank, x, Some(b), r);
    }

    /// `y = A·x`, or `y = b − A·x` when `b` is given. The kernel scopes
    /// cover the compute passes only: the blocking receive is `parcomm`
    /// wait time, not kernel time.
    fn apply_overlapped(&self, rank: &Rank, x: &[f64], b: Option<&[f64]>, y: &mut [f64]) {
        let halo = self.try_halo_begin(rank, x).unwrap_or_else(|e| panic!("{e}"));
        match &self.diag_sell {
            // The `Sellcs` policy mirrored the diag block in SELL-C-σ.
            // The offd block (thin, irregular) stays CSR either way.
            Some(sell) => {
                let k = rank.kernel("spmv_sellcs", KernelKind::SpMV);
                k.launch(sell.nrows(), cost::sellcs_spmv(sell));
                sell.spmv_into(x, y);
            }
            None => {
                let k = rank.kernel("spmv_csr", KernelKind::SpMV);
                k.launch(self.local_rows(), cost::spmv(&self.diag));
                self.diag.spmv_into(x, y);
            }
        }
        let ext = halo.try_finish(rank).unwrap_or_else(|e| panic!("{e}"));
        if self.offd.nnz() > 0 {
            let k = rank.kernel("spmv_csr", KernelKind::SpMV);
            k.launch(self.local_rows(), cost::spmv(&self.offd));
            self.offd.spmv_add_into(&ext, y);
        }
        if let Some(b) = b {
            let k = rank.kernel("residual_sub", KernelKind::Stream);
            k.launch(y.len(), cost::blas1(y.len(), 3));
            for (yi, &bi) in y.iter_mut().zip(b) {
                *yi = bi - *yi;
            }
        }
    }

    /// Reconstruct the full matrix on every rank (tests only). Collective.
    pub fn to_serial(&self, rank: &Rank) -> Csr {
        let mut triples: Vec<(u64, u64, f64)> = Vec::with_capacity(self.local_nnz());
        let start = self.row_dist.start(self.rank_id);
        for li in 0..self.local_rows() {
            let gi = start + li as u64;
            let (cols, vals) = self.diag.row(li);
            for (&c, &v) in cols.iter().zip(vals) {
                triples.push((gi, self.global_diag_col(c), v));
            }
            let (cols, vals) = self.offd.row(li);
            for (&c, &v) in cols.iter().zip(vals) {
                triples.push((gi, self.global_offd_col(c), v));
            }
        }
        let rows: Vec<u64> = triples.iter().map(|t| t.0).collect();
        let cols: Vec<u64> = triples.iter().map(|t| t.1).collect();
        let vals: Vec<f64> = triples.iter().map(|t| t.2).collect();
        let all_rows: Vec<Vec<u64>> = rank.allgather(rows);
        let all_cols: Vec<Vec<u64>> = rank.allgather(cols);
        let all_vals: Vec<Vec<f64>> = rank.allgather(vals);
        let mut coo = Coo::new();
        for ((rs, cs), vs) in all_rows.iter().zip(&all_cols).zip(&all_vals) {
            for ((&r0, &c0), &v0) in rs.iter().zip(cs).zip(vs) {
                coo.push(r0, c0, v0);
            }
        }
        Csr::from_coo(
            self.row_dist.global_n() as usize,
            self.col_dist.global_n() as usize,
            &coo,
        )
    }
}

/// A halo exchange whose sends are posted and whose receives are still
/// outstanding ([`ParCsr::try_halo_begin`]). It owns no buffer: the
/// receive ranges are the matrix's own `CommPkg`.
#[must_use = "an in-flight halo exchange must be finished"]
pub struct HaloInFlight<'a> {
    a: &'a ParCsr,
}

impl HaloInFlight<'_> {
    /// Second half of the exchange: receive from every neighbour and
    /// unpack into the external vector aligned with `col_map_offd`. A
    /// timeout or wrong payload type is a typed [`SolveError::Comm`], a
    /// wrong payload length a [`SolveError::HaloCorruption`]. Hosts the
    /// `halo-nan` fault hook (with a matching spec armed, the first
    /// external value is flipped to NaN after unpack, exactly as a
    /// corrupted wire payload would arrive).
    pub fn try_finish(self, rank: &Rank) -> Result<Vec<f64>, SolveError> {
        let a = self.a;
        let mut ext = vec![0.0; a.col_map_offd.len()];
        for (src, range) in &a.comm_pkg.recvs {
            let buf: Vec<f64> = rank.try_recv(*src, a.halo_tag)?;
            if buf.len() != range.len() {
                return Err(SolveError::HaloCorruption {
                    context: rank.phase_name(),
                    src: *src,
                    detail: format!("expected {} values, got {}", range.len(), buf.len()),
                });
            }
            ext[range.clone()].copy_from_slice(&buf);
        }
        if !ext.is_empty() && faults::fire(FaultKind::HaloNan, || rank.phase_name()) {
            ext[0] = f64::NAN;
        }
        Ok(ext)
    }
}

/// Structure of one local block with compact column ids.
#[derive(Clone, Debug)]
struct BlockPattern {
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
}

impl BlockPattern {
    fn of(a: &Csr) -> BlockPattern {
        assert!(a.ncols() <= u32::MAX as usize, "block columns exceed u32");
        BlockPattern {
            ncols: a.ncols(),
            indptr: a.indptr().to_vec(),
            indices: a.indices().iter().map(|&c| c as u32).collect(),
        }
    }

    fn with_values(&self, vals: Vec<f64>) -> Csr {
        Csr::from_parts(
            self.indptr.len() - 1,
            self.ncols,
            self.indptr.clone(),
            self.indices.iter().map(|&c| c as usize).collect(),
            vals,
        )
    }
}

/// A [`ParCsr`] without its values: the diag/offd structure (column ids
/// narrowed to `u32`), `col_map_offd`, the halo communication package and
/// tag, and the SELL-C-σ layout — everything a collective constructor
/// derives from the sparsity pattern, kept so that further matrices of
/// the same pattern cost one structure copy and no communication.
#[derive(Clone, Debug)]
pub struct ParCsrPattern {
    row_dist: RowDist,
    col_dist: RowDist,
    rank_id: usize,
    diag: BlockPattern,
    diag_sell: Option<SellLayout>,
    offd: BlockPattern,
    col_map_offd: Vec<u64>,
    comm_pkg: CommPkg,
    halo_tag: Tag,
}

impl ParCsrPattern {
    /// Stored entries of the (diag, offd) blocks.
    pub fn nnz(&self) -> (usize, usize) {
        (self.diag.indices.len(), self.offd.indices.len())
    }

    /// A matrix of this pattern carrying `diag_vals` / `offd_vals` (each
    /// in its block's CSR order). Matrices of one pattern share its halo
    /// tag; an exchange is finished before the next begins (only the
    /// diag-block pass runs between `try_halo_begin` and `try_finish`),
    /// so they cannot interleave.
    ///
    /// # Panics
    ///
    /// Panics if a value array's length differs from its block's `nnz`.
    pub fn with_values(&self, diag_vals: Vec<f64>, offd_vals: Vec<f64>) -> ParCsr {
        let diag = self.diag.with_values(diag_vals);
        ParCsr {
            row_dist: self.row_dist.clone(),
            col_dist: self.col_dist.clone(),
            rank_id: self.rank_id,
            diag_sell: self.diag_sell.as_ref().map(|layout| layout.fill(&diag)),
            diag,
            offd: self.offd.with_values(offd_vals),
            col_map_offd: self.col_map_offd.clone(),
            comm_pkg: self.comm_pkg.clone(),
            halo_tag: self.halo_tag,
        }
    }
}

/// Build the halo communication package for an external column map:
/// receives are the owner-grouped ranges of `col_map_offd`; sends are
/// learned by exchanging requests with the owners.
pub fn build_comm_pkg(rank: &Rank, col_dist: &RowDist, col_map_offd: &[u64]) -> CommPkg {
    let r = rank.rank();
    // Group the (sorted) external columns by owner → recv ranges.
    let mut recvs: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    let mut i = 0;
    while i < col_map_offd.len() {
        let owner = col_dist.owner(col_map_offd[i]);
        assert_ne!(owner, r, "own column listed as external");
        let begin = i;
        while i < col_map_offd.len() && col_dist.owner(col_map_offd[i]) == owner {
            i += 1;
        }
        recvs.push((owner, begin..i));
    }
    // Tell each owner which of its columns we need.
    let requests: Vec<(usize, Vec<u64>)> = recvs
        .iter()
        .map(|(owner, range)| (*owner, col_map_offd[range.clone()].to_vec()))
        .collect();
    let received = rank.sparse_exchange(requests);
    let sends: Vec<(usize, Vec<usize>)> = received
        .into_iter()
        .map(|(src, gids)| {
            let lids: Vec<usize> = gids.iter().map(|&g| col_dist.to_local(r, g)).collect();
            (src, lids)
        })
        .collect();
    CommPkg { sends, recvs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm::Comm;

    /// 1-D Laplacian as a serial CSR.
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

    #[test]
    fn from_serial_round_trips() {
        let n = 13;
        let a = laplacian(n);
        for p in [1, 2, 3, 4] {
            let a_ref = a.clone();
            let out = Comm::run(p, move |rank| {
                let dist = RowDist::block(n as u64, rank.size());
                let pa =
                    ParCsr::from_serial(rank, dist.clone(), dist, &a_ref);
                pa.to_serial(rank)
            });
            for gathered in out {
                assert_eq!(gathered.to_dense(), a.to_dense(), "p={p}");
            }
        }
    }

    #[test]
    fn diag_offd_split_is_correct() {
        let n = 6;
        let a = laplacian(n);
        Comm::run(3, move |rank| {
            let dist = RowDist::block(n as u64, 3);
            let pa = ParCsr::from_serial(rank, dist.clone(), dist, &a);
            // Each middle rank has exactly 2 external columns (one on each
            // side); edge ranks have 1.
            let expected_ext = if rank.rank() == 1 { 2 } else { 1 };
            assert_eq!(pa.col_map_offd.len(), expected_ext);
            assert_eq!(pa.diag.nrows(), 2);
            // Diagonal of the Laplacian is all 2s.
            assert_eq!(pa.diagonal(), vec![2.0, 2.0]);
            // col_map_offd is sorted global ids not owned locally.
            let r = rank.rank() as u64;
            for &g in &pa.col_map_offd {
                assert!(!(2 * r..2 * r + 2).contains(&g));
            }
        });
    }

    #[test]
    fn spmv_matches_serial_any_rank_count() {
        let n = 17;
        let a = laplacian(n);
        let x_serial: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let y_expected = a.spmv(&x_serial);
        for p in [1, 2, 3, 5] {
            let a_ref = a.clone();
            let x_ref = x_serial.clone();
            let out = Comm::run(p, move |rank| {
                let dist = RowDist::block(n as u64, rank.size());
                let pa = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &a_ref);
                let x = ParVector::from_fn(rank, dist, |g| x_ref[g as usize]);
                pa.spmv(rank, &x).to_serial(rank)
            });
            for y in out {
                for (a, b) in y.iter().zip(&y_expected) {
                    assert!((a - b).abs() < 1e-12, "p={p}");
                }
            }
        }
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        Comm::run(2, |rank| {
            let n = 8;
            let a = laplacian(n);
            let dist = RowDist::block(n as u64, 2);
            let pa = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &a);
            let x = ParVector::from_fn(rank, dist.clone(), |_| 1.0);
            let b = pa.spmv(rank, &x);
            let r = pa.residual(rank, &b, &x);
            assert!(r.norm2(rank) < 1e-14);
        });
    }

    #[test]
    fn comm_pkg_sends_match_recvs() {
        let n = 12;
        let a = laplacian(n);
        let totals = Comm::run(4, move |rank| {
            let dist = RowDist::block(n as u64, 4);
            let pa = ParCsr::from_serial(rank, dist.clone(), dist, &a);
            let pkg = pa.comm_pkg();
            // recvs align exactly with col_map_offd.
            assert_eq!(pkg.n_recv(), pa.col_map_offd.len());
            (pkg.n_send() as u64, pkg.n_recv() as u64)
        });
        let sent: u64 = totals.iter().map(|t| t.0).sum();
        let recvd: u64 = totals.iter().map(|t| t.1).sum();
        assert_eq!(sent, recvd);
        assert!(sent > 0);
    }

    #[test]
    fn rectangular_matrix_spmv() {
        // 4×2 "interpolation" matrix: rows distributed over 2 ranks,
        // columns over 2 ranks (1 each).
        Comm::run(2, |rank| {
            let row_dist = RowDist::block(4, 2);
            let col_dist = RowDist::block(2, 2);
            let p_serial = Csr::from_dense(&[
                vec![1.0, 0.0],
                vec![0.5, 0.5],
                vec![0.0, 1.0],
                vec![0.25, 0.75],
            ]);
            let p = ParCsr::from_serial(rank, row_dist, col_dist.clone(), &p_serial);
            let xc = ParVector::from_fn(rank, col_dist, |g| (g + 1) as f64);
            let y = p.spmv(rank, &xc).to_serial(rank);
            assert_eq!(y, vec![1.0, 1.5, 2.0, 1.75]);
        });
    }

    #[test]
    fn socket_drop_on_begin_leaves_no_message_in_flight() {
        // The drop fires before any send, on every rank (the counters
        // are replicated): a stale message on the halo tag would be what
        // the clean exchange right after it receives.
        Comm::run(3, |rank| {
            let n = 9;
            let dist = RowDist::block(n as u64, rank.size());
            let pa = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &laplacian(n));
            let me = rank.rank();
            let stale: Vec<f64> = (dist.start(me)..dist.end(me)).map(|g| -(g as f64)).collect();
            let fresh: Vec<f64> = (dist.start(me)..dist.end(me)).map(|g| 10.0 * g as f64).collect();
            let plan = resilience::FaultPlan::parse("socket-drop@halo:1").unwrap();
            let _g = plan.install();
            rank.with_phase("halo", || {
                let err = pa.try_halo_begin(rank, &stale).err().expect("injected drop");
                assert!(matches!(err, SolveError::Comm { .. }), "{err:?}");
                let ext = pa.try_halo_exchange(rank, &fresh).expect("clean retry");
                for (k, &g) in pa.col_map_offd.iter().enumerate() {
                    assert_eq!(ext[k], 10.0 * g as f64);
                }
            });
        });
    }

    #[test]
    fn halo_nan_fires_on_overlapped_spmv() {
        // The hook sits in `try_finish`, so the overlapped kernels host
        // it exactly as the blocking exchange does: the first external
        // value arrives as NaN and poisons the rows that read it.
        Comm::run(2, |rank| {
            let n = 8;
            let dist = RowDist::block(n as u64, 2);
            let pa = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &laplacian(n));
            let x = ParVector::from_fn(rank, dist.clone(), |_| 1.0);
            let clean = pa.spmv(rank, &x);
            assert!(clean.local.iter().all(|v| v.is_finite()));
            let plan = resilience::FaultPlan::parse("halo-nan@spmv:2").unwrap();
            let _g = plan.install();
            rank.with_phase("spmv", || {
                let first = pa.spmv(rank, &x);
                assert_eq!(first.local, clean.local, "occurrence 1 is clean");
                let poisoned = pa.residual(rank, &clean, &x);
                let boundary_row = if rank.rank() == 0 { n / 2 - 1 } else { 0 };
                for (i, v) in poisoned.local.iter().enumerate() {
                    assert_eq!(v.is_nan(), i == boundary_row, "row {i}: {v}");
                }
                assert_eq!(pa.spmv(rank, &x).local, clean.local, "occurrence 3 is clean");
            });
        });
    }

    #[test]
    fn spmv_traffic_is_recorded() {
        let (_, traces) = Comm::run_traced(2, |rank| {
            let n = 10;
            let a = laplacian(n);
            let dist = RowDist::block(n as u64, 2);
            let pa = ParCsr::from_serial(rank, dist.clone(), dist.clone(), &a);
            let x = ParVector::from_fn(rank, dist, |_| 1.0);
            rank.with_phase("spmv", || pa.spmv(rank, &x));
        });
        for t in &traces {
            let spmv = t.phase("spmv");
            assert!(spmv.msgs >= 1, "halo message expected");
            assert!(spmv.kernel_launches >= 2);
            assert_eq!(spmv.msg_bytes, 8); // one boundary f64 each way
        }
    }
}
