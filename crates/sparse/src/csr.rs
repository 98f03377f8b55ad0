//! Compressed sparse row matrices with local (usize) indices.

use crate::coo::Coo;
use crate::prims;

/// CSR matrix. Column indices are sorted within each row and duplicate-free
/// (an invariant every constructor establishes and every operation keeps).
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    vals: Vec<f64>,
}

impl Csr {
    /// Build from raw parts, validating all CSR invariants.
    ///
    /// # Panics
    ///
    /// Panics if `indptr` has the wrong length or is not monotone, if any
    /// column index is out of range, or if a row's columns are unsorted or
    /// duplicated.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(indptr.len(), nrows + 1, "indptr length must be nrows+1");
        assert_eq!(indptr[0], 0, "indptr must start at 0");
        assert_eq!(*indptr.last().unwrap(), indices.len(), "indptr must end at nnz");
        assert_eq!(indices.len(), vals.len(), "indices/vals length mismatch");
        for r in 0..nrows {
            assert!(indptr[r] <= indptr[r + 1], "indptr not monotone at row {r}");
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "row {r} columns unsorted or duplicated");
            }
            if let Some(&last) = row.last() {
                assert!(last < ncols, "row {r} column {last} out of range {ncols}");
            }
        }
        Csr {
            nrows,
            ncols,
            indptr,
            indices,
            vals,
        }
    }

    /// Empty (all-zero) matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Csr {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            vals: vec![1.0; n],
        }
    }

    /// Diagonal matrix from a vector.
    pub fn from_diag(d: &[f64]) -> Self {
        let n = d.len();
        Csr {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            vals: d.to_vec(),
        }
    }

    /// Build from a dense row-major matrix, dropping exact zeros.
    pub fn from_dense(dense: &[Vec<f64>]) -> Self {
        let nrows = dense.len();
        let ncols = dense.first().map_or(0, |r| r.len());
        let mut indptr = Vec::with_capacity(nrows + 1);
        let mut indices = Vec::new();
        let mut vals = Vec::new();
        indptr.push(0);
        for row in dense {
            assert_eq!(row.len(), ncols, "ragged dense matrix");
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    indices.push(j);
                    vals.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Csr {
            nrows,
            ncols,
            indptr,
            indices,
            vals,
        }
    }

    /// Build from a local-index COO matrix (entries may be unsorted and
    /// duplicated; duplicates sum).
    pub fn from_coo(nrows: usize, ncols: usize, coo: &Coo) -> Self {
        let mut sorted = coo.clone();
        sorted.sort_and_combine();
        let mut indptr = vec![0usize; nrows + 1];
        for &r in &sorted.rows {
            let r = r as usize;
            assert!(r < nrows, "row {r} out of range {nrows}");
            indptr[r + 1] += 1;
        }
        for i in 0..nrows {
            indptr[i + 1] += indptr[i];
        }
        let indices: Vec<usize> = sorted
            .cols
            .iter()
            .map(|&c| {
                let c = c as usize;
                assert!(c < ncols, "col {c} out of range {ncols}");
                c
            })
            .collect();
        Csr {
            nrows,
            ncols,
            indptr,
            indices,
            vals: sorted.vals,
        }
    }

    /// Dense row-major copy (tests and tiny systems only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.ncols]; self.nrows];
        for (r, out_row) in out.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                out_row[c] = v;
            }
        }
        out
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row pointer array (length `nrows + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column index array.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Value array.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable value array (sparsity pattern is fixed).
    pub fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Column indices and values of row `r`.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let range = self.indptr[r]..self.indptr[r + 1];
        (&self.indices[range.clone()], &self.vals[range])
    }

    /// Value at `(r, c)`, zero if not stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// y = A x.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// The one loop under every SpMV-shaped kernel: for each row `i`,
    /// `f(i, sᵢ, &mut out[i])` with `sᵢ = Σ_k vals[k]·x[indices[k]]`
    /// folded from `+0.0` in column order over the row's
    /// `indices[lo..hi]` / `vals[lo..hi]` slices.
    fn sweep_rows(&self, x: &[f64], out: &mut [f64], f: impl Fn(usize, f64, &mut f64)) {
        for (i, (o, w)) in out.iter_mut().zip(self.indptr.windows(2)).enumerate() {
            let (cols, vals) = (&self.indices[w[0]..w[1]], &self.vals[w[0]..w[1]]);
            let mut s = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                s += v * x[c];
            }
            f(i, s, o);
        }
    }

    /// y = A x into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length != ncols");
        assert_eq!(y.len(), self.nrows, "y length != nrows");
        self.sweep_rows(x, y, |_, s, y| *y = s);
    }

    /// One fused Jacobi-Richardson sweep over a split-off triangle `T`
    /// (`self`): `g_next[i] = (r[i] - Σ_k T[i,k]·g[k]) · inv_diag[i]`
    /// in a single matrix pass. Operation-for-operation this matches
    /// `spmv_into` followed by `dense::jacobi_update` — same
    /// per-row accumulation order, then one subtract and one multiply —
    /// so the bits are identical; fusing just never materializes the
    /// `T·g` intermediate (one vector write + one read saved per sweep,
    /// see [`crate::cost::jr_sweep_fused`]).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn jr_sweep_fused(&self, r: &[f64], inv_diag: &[f64], g: &[f64], g_next: &mut [f64]) {
        assert_eq!(g.len(), self.ncols, "g length != ncols");
        assert_eq!(g_next.len(), self.nrows, "g_next length != nrows");
        assert_eq!(r.len(), self.nrows, "r length != nrows");
        assert_eq!(inv_diag.len(), self.nrows, "inv_diag length != nrows");
        self.sweep_rows(g, g_next, |i, s, out| *out = (r[i] - s) * inv_diag[i]);
    }

    /// The last sweep of a smoothing round, added straight into the
    /// iterate: `x[i] += (r[i] - Σ_k T[i,k]·g[k]) · inv_diag[i]`. Bit for
    /// bit [`Csr::jr_sweep_fused`] into a scratch vector followed by
    /// `dense::axpy(1.0, ..)` (`1.0·v` is `v` exactly), without the
    /// scratch write and re-read ([`crate::cost::jr_sweep_add`]).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn jr_sweep_add(&self, r: &[f64], inv_diag: &[f64], g: &[f64], x: &mut [f64]) {
        assert_eq!(g.len(), self.ncols, "g length != ncols");
        assert_eq!(x.len(), self.nrows, "x length != nrows");
        assert_eq!(r.len(), self.nrows, "r length != nrows");
        assert_eq!(inv_diag.len(), self.nrows, "inv_diag length != nrows");
        self.sweep_rows(g, x, |i, s, x| *x += (r[i] - s) * inv_diag[i]);
    }

    /// y += A x.
    pub fn spmv_add_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length != ncols");
        assert_eq!(y.len(), self.nrows, "y length != nrows");
        self.sweep_rows(x, y, |_, s, y| *y += s);
    }

    /// Aᵀ, with sorted rows.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols];
        for &c in &self.indices {
            counts[c] += 1;
        }
        let indptr = prims::exclusive_scan(&counts);
        let mut next = indptr.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        // Walking rows in order writes each transposed row's entries in
        // ascending (old row) order, so columns stay sorted.
        for r in 0..self.nrows {
            for k in self.indptr[r]..self.indptr[r + 1] {
                let c = self.indices[k];
                let pos = next[c];
                next[c] += 1;
                indices[pos] = r;
                vals[pos] = self.vals[k];
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            vals,
        }
    }

    /// A + B with matching shapes.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Csr) -> Csr {
        self.add_scaled(other, 1.0)
    }

    /// A + s·B.
    pub fn add_scaled(&self, other: &Csr, s: f64) -> Csr {
        assert_eq!(self.nrows, other.nrows, "row count mismatch");
        assert_eq!(self.ncols, other.ncols, "col count mismatch");
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.nnz() + other.nnz());
        let mut vals = Vec::with_capacity(self.nnz() + other.nnz());
        indptr.push(0);
        for r in 0..self.nrows {
            let (ca, va) = self.row(r);
            let (cb, vb) = other.row(r);
            let (mut i, mut j) = (0, 0);
            while i < ca.len() || j < cb.len() {
                let take_a = j >= cb.len() || (i < ca.len() && ca[i] <= cb[j]);
                let take_b = i >= ca.len() || (j < cb.len() && cb[j] <= ca[i]);
                if take_a && take_b {
                    indices.push(ca[i]);
                    vals.push(va[i] + s * vb[j]);
                    i += 1;
                    j += 1;
                } else if take_a {
                    indices.push(ca[i]);
                    vals.push(va[i]);
                    i += 1;
                } else {
                    indices.push(cb[j]);
                    vals.push(s * vb[j]);
                    j += 1;
                }
            }
            indptr.push(indices.len());
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            vals,
        }
    }

    /// Multiply all values in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.vals {
            *v *= s;
        }
    }

    /// Diagonal entries (zero where not stored).
    pub fn diag(&self) -> Vec<f64> {
        (0..self.nrows).map(|r| self.get(r, r)).collect()
    }

    /// The splitting `A = L + D + U` in one pass over the entries:
    /// `(L, d, U)` with `L` / `U` the strictly lower / upper triangles
    /// (same shape as `A`) and `d[r]` the stored diagonal value of row `r`,
    /// `0.0` where none is stored. Every value is copied, never combined,
    /// so `−0.0` and NaN payloads keep their bits.
    pub fn split_triangles(&self) -> (Csr, Vec<f64>, Csr) {
        let half = self.nnz() / 2;
        let mut lower = (vec![0], Vec::with_capacity(half), Vec::with_capacity(half));
        let mut upper = (vec![0], Vec::with_capacity(half), Vec::with_capacity(half));
        lower.0.reserve(self.nrows);
        upper.0.reserve(self.nrows);
        let mut diag = vec![0.0; self.nrows];
        for (r, d) in diag.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let (_, indices, tri_vals) = match c.cmp(&r) {
                    std::cmp::Ordering::Less => &mut lower,
                    std::cmp::Ordering::Greater => &mut upper,
                    std::cmp::Ordering::Equal => {
                        *d = v;
                        continue;
                    }
                };
                indices.push(c);
                tri_vals.push(v);
            }
            lower.0.push(lower.1.len());
            upper.0.push(upper.1.len());
        }
        let triangle = |(indptr, indices, vals): (Vec<usize>, Vec<usize>, Vec<f64>)| Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            vals,
        };
        (triangle(lower), diag, triangle(upper))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [ 2 -1  0 ]
        // [-1  2 -1 ]
        // [ 0 -1  2 ]
        Csr::from_dense(&[
            vec![2.0, -1.0, 0.0],
            vec![-1.0, 2.0, -1.0],
            vec![0.0, -1.0, 2.0],
        ])
    }

    #[test]
    fn from_dense_round_trip() {
        let a = sample();
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.to_dense()[1], vec![-1.0, 2.0, -1.0]);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.get(2, 1), -1.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let x = vec![1.0, 2.0, 3.0];
        assert_eq!(a.spmv(&x), vec![0.0, 0.0, 4.0]);
    }

    #[test]
    fn spmv_add_accumulates() {
        let a = sample();
        let x = vec![1.0, 0.0, 0.0];
        let mut y = vec![10.0, 10.0, 10.0];
        a.spmv_add_into(&x, &mut y);
        assert_eq!(y, vec![12.0, 9.0, 10.0]);
    }

    #[test]
    fn transpose_involution() {
        let a = Csr::from_dense(&[vec![1.0, 2.0, 0.0], vec![0.0, 0.0, 3.0]]);
        let at = a.transpose();
        assert_eq!(at.nrows(), 3);
        assert_eq!(at.ncols(), 2);
        assert_eq!(at.get(1, 0), 2.0);
        assert_eq!(at.get(2, 1), 3.0);
        assert_eq!(at.transpose().to_dense(), a.to_dense());
    }

    #[test]
    fn add_merges_patterns() {
        let a = Csr::from_dense(&[vec![1.0, 0.0], vec![0.0, 2.0]]);
        let b = Csr::from_dense(&[vec![0.0, 3.0], vec![0.0, 4.0]]);
        let c = a.add(&b);
        assert_eq!(c.to_dense(), vec![vec![1.0, 3.0], vec![0.0, 6.0]]);
        let d = a.add_scaled(&b, -1.0);
        assert_eq!(d.to_dense(), vec![vec![1.0, -3.0], vec![0.0, -2.0]]);
    }

    #[test]
    fn triangular_parts_and_diag() {
        let a = sample();
        assert_eq!(a.diag(), vec![2.0, 2.0, 2.0]);
        let (l, d, u) = a.split_triangles();
        assert_eq!(d, a.diag());
        assert_eq!(l.nnz(), 2);
        assert_eq!(l.get(1, 0), -1.0);
        assert_eq!(u.nnz(), 2);
        assert_eq!(u.get(0, 1), -1.0);
        // L + D + U == A
        let rebuilt = l.add(&u).add(&Csr::from_diag(&d));
        assert_eq!(rebuilt.to_dense(), a.to_dense());
    }

    #[test]
    fn from_coo_sums_duplicates() {
        let mut coo = Coo::new();
        coo.push(0, 1, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 4.0);
        let a = Csr::from_coo(2, 2, &coo);
        assert_eq!(a.get(0, 1), 3.0);
        assert_eq!(a.get(1, 0), 4.0);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn identity_and_zeros() {
        let i = Csr::identity(3);
        let x = vec![4.0, 5.0, 6.0];
        assert_eq!(i.spmv(&x), x);
        let z = Csr::zeros(2, 3);
        assert_eq!(z.spmv(&[1.0; 3]), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "columns unsorted")]
    fn from_parts_rejects_unsorted() {
        Csr::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_parts_rejects_bad_col() {
        Csr::from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
    }

    #[test]
    fn spmv_tridiagonal_laplacian() {
        let n = 4099;
        // Tridiagonal Laplacian.
        let mut dense_indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::new();
        let mut vals = Vec::new();
        dense_indptr.push(0);
        for r in 0..n {
            if r > 0 {
                indices.push(r - 1);
                vals.push(-1.0);
            }
            indices.push(r);
            vals.push(2.0);
            if r + 1 < n {
                indices.push(r + 1);
                vals.push(-1.0);
            }
            dense_indptr.push(indices.len());
        }
        let a = Csr::from_parts(n, n, dense_indptr, indices, vals);
        let y = a.spmv(&vec![1.0; n]);
        assert_eq!(y[0], 1.0);
        assert_eq!(y[n / 2], 0.0);
        assert_eq!(y[n - 1], 1.0);
    }
}
