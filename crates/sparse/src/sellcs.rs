//! SELL-C-σ sparse storage (sliced ELLPACK with row sorting).
//!
//! Kreutzer et al.'s SIMD-friendly format: rows are grouped into chunks
//! of `C = 4`, each chunk stored column-major ("slot-major") and padded
//! to its longest row, so an SpMV walks the chunk with four independent
//! lane accumulators — one row per lane. To bound the padding, rows are
//! first sorted by descending length inside windows of σ rows (σ a
//! multiple of C); the permutation never crosses a window boundary, so
//! a window owns a contiguous output range and windows parallelize
//! without synchronization.
//!
//! Determinism contract: lane `l` of a chunk accumulates exactly the
//! entries of one original row, **in that row's CSR column order**, into
//! a single scalar — the same multiply/add sequence as
//! [`Csr::spmv_into`]. Padding slots are *skipped by a length guard*,
//! never multiplied (an `x` of NaN/∞ against a padded zero must not
//! poison the lane), so `spmv_into` here is bitwise-identical to the
//! scalar CSR path for any input, including NaN and -0.0.
//!
//! Column indices, per-slot row lengths, and the row permutation are
//! `u32` (validated at conversion): versus CSR's `usize` indices this
//! roughly halves index traffic, which is the point — SpMV is
//! bandwidth-bound (see [`crate::cost::sellcs_spmv`]).

use rayon::prelude::*;

use crate::csr::Csr;

/// Chunk height C: rows per chunk, lanes per SpMV inner step.
pub const CHUNK: usize = 4;

/// Row count above which SpMV parallelizes over σ-windows.
const PAR_THRESHOLD: usize = 1 << 12;

/// Marks a padding slot (row index past `nrows`) in `perm`.
const PAD: u32 = u32::MAX;

/// Round a requested σ up to a positive multiple of [`CHUNK`].
pub fn round_sigma(sigma: usize) -> usize {
    sigma.max(CHUNK).div_ceil(CHUNK) * CHUNK
}

/// A sparse matrix in SELL-C-σ layout. Built from (and value-coherent
/// with) a [`Csr`]; structure is immutable after conversion.
#[derive(Clone, Debug)]
pub struct SellCs {
    nrows: usize,
    ncols: usize,
    sigma: usize,
    /// Real (unpadded) entries: the source matrix's nnz, kept because
    /// every SpMV launch prices it.
    nnz: usize,
    /// Chunk `c` occupies `vals[chunk_ptr[c]..chunk_ptr[c + 1]]`
    /// (slot-major: entry `j` of lane `l` lives at `base + j*CHUNK + l`).
    chunk_ptr: Vec<usize>,
    /// Original-row length per slot (0 for padding slots).
    row_len: Vec<u32>,
    /// Slot → original row, [`PAD`] for padding slots. Stays within the
    /// slot's σ-window by construction.
    perm: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl SellCs {
    /// Convert a CSR matrix, sorting rows by descending length within
    /// windows of `sigma` rows (rounded up to a multiple of C).
    ///
    /// # Panics
    ///
    /// Panics if a dimension or row length exceeds `u32` range.
    pub fn from_csr(a: &Csr, sigma: usize) -> SellCs {
        let nrows = a.nrows();
        let ncols = a.ncols();
        assert!(ncols <= u32::MAX as usize, "ncols exceeds u32 index range");
        assert!(nrows < PAD as usize, "nrows exceeds u32 perm range");
        let sigma = round_sigma(sigma);
        let indptr = a.indptr();
        let n_slots = nrows.div_ceil(CHUNK) * CHUNK;
        let n_chunks = n_slots / CHUNK;

        // Stable descending-length sort inside each σ-window; padding
        // slots (length 0) naturally belong at the window's end.
        let mut perm = Vec::with_capacity(n_slots);
        let mut w0 = 0;
        while w0 < nrows {
            let w1 = (w0 + sigma).min(nrows);
            let mut rows: Vec<u32> = (w0 as u32..w1 as u32).collect();
            rows.sort_by_key(|&r| {
                let r = r as usize;
                std::cmp::Reverse(indptr[r + 1] - indptr[r])
            });
            perm.extend_from_slice(&rows);
            w0 = w1;
        }
        perm.resize(n_slots, PAD);

        let row_len: Vec<u32> = perm
            .iter()
            .map(|&p| {
                if p == PAD {
                    0
                } else {
                    let r = p as usize;
                    u32::try_from(indptr[r + 1] - indptr[r]).expect("row length exceeds u32")
                }
            })
            .collect();

        let mut chunk_ptr = Vec::with_capacity(n_chunks + 1);
        chunk_ptr.push(0usize);
        for c in 0..n_chunks {
            let width = (0..CHUNK)
                .map(|l| row_len[c * CHUNK + l] as usize)
                .max()
                .unwrap_or(0);
            chunk_ptr.push(chunk_ptr[c] + width * CHUNK);
        }

        let stored = *chunk_ptr.last().unwrap_or(&0);
        let mut cols = vec![0u32; stored];
        let mut vals = vec![0.0f64; stored];
        let (a_idx, a_vals) = (a.indices(), a.vals());
        for (c, &base) in chunk_ptr.iter().take(n_chunks).enumerate() {
            for l in 0..CHUNK {
                let slot = c * CHUNK + l;
                if perm[slot] == PAD {
                    continue;
                }
                let r = perm[slot] as usize;
                let start = indptr[r];
                for j in 0..row_len[slot] as usize {
                    cols[base + j * CHUNK + l] = a_idx[start + j] as u32;
                    vals[base + j * CHUNK + l] = a_vals[start + j];
                }
            }
        }

        SellCs {
            nrows,
            ncols,
            sigma,
            nnz: a.nnz(),
            chunk_ptr,
            row_len,
            perm,
            cols,
            vals,
        }
    }

    pub fn nrows(&self) -> usize {
        self.nrows
    }

    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The (rounded) σ-window this matrix was built with.
    pub fn sigma(&self) -> usize {
        self.sigma
    }

    /// Number of row chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunk_ptr.len().saturating_sub(1)
    }

    /// Real (unpadded) stored entries.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Stored entries including chunk padding — what SpMV streams.
    pub fn stored(&self) -> usize {
        *self.chunk_ptr.last().unwrap_or(&0)
    }

    /// Scale every value by `s` (keeps a `ParCsr`'s SELL sibling
    /// coherent with `Csr::scale`). Padding values stay 0 and are never
    /// read anyway.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.vals {
            *v *= s;
        }
    }

    /// Re-copy values from a structurally identical CSR (value-only
    /// update after e.g. in-place edits on the CSR side).
    ///
    /// # Panics
    ///
    /// Panics if `a`'s shape does not match this matrix.
    pub fn refresh_values(&mut self, a: &Csr) {
        assert_eq!(a.nrows(), self.nrows, "refresh_values: row mismatch");
        assert_eq!(a.ncols(), self.ncols, "refresh_values: col mismatch");
        let indptr = a.indptr();
        let a_vals = a.vals();
        for c in 0..self.n_chunks() {
            let base = self.chunk_ptr[c];
            for l in 0..CHUNK {
                let slot = c * CHUNK + l;
                if self.perm[slot] == PAD {
                    continue;
                }
                let start = indptr[self.perm[slot] as usize];
                for j in 0..self.row_len[slot] as usize {
                    self.vals[base + j * CHUNK + l] = a_vals[start + j];
                }
            }
        }
    }

    /// One σ-window of chunks: rows `rows.start..` of `y`, chunks
    /// `c0..c1`. Each chunk keeps 4 lane accumulators; the guard on
    /// `row_len` skips padding without touching its (zero) values.
    fn spmv_window(&self, x: &[f64], y: &mut [f64], row0: usize, c0: usize, c1: usize) {
        for c in c0..c1 {
            let base = self.chunk_ptr[c];
            let width = (self.chunk_ptr[c + 1] - base) / CHUNK;
            let lens = [
                self.row_len[c * CHUNK],
                self.row_len[c * CHUNK + 1],
                self.row_len[c * CHUNK + 2],
                self.row_len[c * CHUNK + 3],
            ];
            let mut acc = [0.0f64; CHUNK];
            for j in 0..width {
                let k = base + j * CHUNK;
                for l in 0..CHUNK {
                    if (j as u32) < lens[l] {
                        acc[l] += self.vals[k + l] * x[self.cols[k + l] as usize];
                    }
                }
            }
            for (l, &sum) in acc.iter().enumerate() {
                let p = self.perm[c * CHUNK + l];
                if p != PAD {
                    y[p as usize - row0] = sum;
                }
            }
        }
    }

    /// y = A·x, bitwise-identical to [`Csr::spmv_into`] on the source
    /// matrix (see the module docs for why).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "x length != ncols");
        assert_eq!(y.len(), self.nrows, "y length != nrows");
        let n_chunks = self.n_chunks();
        let chunks_per_window = self.sigma / CHUNK;
        if self.nrows >= PAR_THRESHOLD {
            // A window's rows are exactly y[w*sigma .. w*sigma+len]:
            // perm never crosses the window, so writes are exclusive and
            // the partitioning cannot change any row's accumulation.
            y.par_chunks_mut(self.sigma).enumerate().for_each(|(w, yw)| {
                let c0 = w * chunks_per_window;
                let c1 = (c0 + chunks_per_window).min(n_chunks);
                self.spmv_window(x, yw, w * self.sigma, c0, c1);
            });
        } else {
            self.spmv_window(x, y, 0, 0, n_chunks);
        }
    }

    /// Drop the values and keep the layout, for [`SellLayout::fill`].
    pub fn into_layout(mut self) -> SellLayout {
        self.vals = Vec::new();
        SellLayout(self)
    }

    /// Padding overhead: stored / nnz (1.0 = no padding). Reported in
    /// the kernel-backend docs and useful for Auto-policy diagnostics.
    pub fn fill_ratio(&self) -> f64 {
        let nnz = self.nnz();
        if nnz == 0 {
            1.0
        } else {
            self.stored() as f64 / nnz as f64
        }
    }
}

/// The structure of a [`SellCs`] — σ-window row order, chunk widths,
/// columns — without its values: the part of a conversion that depends
/// only on the source matrix's pattern.
#[derive(Clone, Debug)]
pub struct SellLayout(SellCs);

impl SellLayout {
    /// The SELL-C-σ form of `a`, which must have the pattern this layout
    /// was converted from: [`SellCs::from_csr`] without the row sort.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s shape does not match the layout.
    pub fn fill(&self, a: &Csr) -> SellCs {
        let mut s = self.0.clone();
        s.vals = vec![0.0; s.stored()];
        s.refresh_values(a);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn round_sigma_snaps_to_chunk_multiples() {
        assert_eq!(round_sigma(0), CHUNK);
        assert_eq!(round_sigma(1), CHUNK);
        assert_eq!(round_sigma(4), 4);
        assert_eq!(round_sigma(5), 8);
        assert_eq!(round_sigma(256), 256);
    }

    #[test]
    fn identity_round_trip() {
        let a = Csr::identity(7);
        let s = SellCs::from_csr(&a, 4);
        assert_eq!(s.nnz(), 7);
        // 2 chunks of width 1 → 8 stored slots, one padded.
        assert_eq!(s.stored(), 8);
        let x: Vec<f64> = (0..7).map(|i| i as f64 - 3.0).collect();
        let mut y = vec![0.0; 7];
        s.spmv_into(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn matches_csr_bitwise_on_irregular_matrix() {
        // Rows of very different lengths across several windows, with
        // rounding-sensitive values.
        let n = 37;
        let mut rows = vec![vec![0.0; n]; n];
        for (r, row) in rows.iter_mut().enumerate() {
            for (c, v) in row.iter_mut().enumerate() {
                if (r * 7 + c * 13) % (r % 5 + 2) == 0 {
                    *v = ((r * 31 + c * 17) % 19) as f64 * 0.37 - 3.1;
                }
            }
        }
        rows[5] = vec![0.0; n]; // empty row
        let a = Csr::from_dense(&rows);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.73 - 11.0) * 1e-3).collect();
        let mut y_csr = vec![0.0; n];
        a.spmv_into(&x, &mut y_csr);
        for sigma in [4, 8, 16, 64] {
            let s = SellCs::from_csr(&a, sigma);
            let mut y = vec![f64::NAN; n];
            s.spmv_into(&x, &mut y);
            assert_eq!(bits(&y), bits(&y_csr), "sigma={sigma}");
        }
    }

    #[test]
    fn padding_is_guarded_against_nan_poison() {
        // x full of NaN-adjacent hazards: if a padded slot were
        // multiplied instead of skipped, 0.0 * inf = NaN would leak.
        let a = Csr::from_dense(&[
            vec![1.0, 2.0, 0.0],
            vec![0.0, 0.0, 0.0],
            vec![3.0, 0.0, 0.0],
        ]);
        let s = SellCs::from_csr(&a, 4);
        let x = vec![2.0, -0.0, f64::INFINITY];
        let mut y = vec![0.0; 3];
        s.spmv_into(&x, &mut y);
        let mut y_ref = vec![0.0; 3];
        a.spmv_into(&x, &mut y_ref);
        assert_eq!(bits(&y), bits(&y_ref));
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn parallel_window_path_matches_serial_bitwise() {
        // Past PAR_THRESHOLD rows so the rayon window path runs.
        let n = PAR_THRESHOLD + 123;
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut vals = Vec::new();
        for r in 0..n {
            for d in [-1i64, 0, 1] {
                let c = r as i64 + d;
                if (0..n as i64).contains(&c) {
                    indices.push(c as usize);
                    vals.push(((r * 2654435761 + c as usize) % 1000) as f64 * 1e-2 - 4.9);
                }
            }
            indptr.push(indices.len());
        }
        let a = Csr::from_parts(n, n, indptr, indices, vals);
        let x: Vec<f64> = (0..n).map(|i| ((i * 7919) % 977) as f64 * 1e-3 - 0.5).collect();
        let mut y_ref = vec![0.0; n];
        a.spmv_into(&x, &mut y_ref);
        let s = SellCs::from_csr(&a, 256);
        let mut y = vec![0.0; n];
        s.spmv_into(&x, &mut y);
        assert_eq!(bits(&y), bits(&y_ref));
    }

    #[test]
    fn scale_and_refresh_stay_coherent() {
        let a = Csr::from_dense(&[vec![1.0, 2.0], vec![0.0, 4.0]]);
        let mut s = SellCs::from_csr(&a, 4);
        s.scale(0.5);
        let mut half = a.clone();
        half.scale(0.5);
        let x = vec![1.0, -1.0];
        let (mut y1, mut y2) = (vec![0.0; 2], vec![0.0; 2]);
        s.spmv_into(&x, &mut y1);
        half.spmv_into(&x, &mut y2);
        assert_eq!(bits(&y1), bits(&y2));

        s.refresh_values(&a);
        s.spmv_into(&x, &mut y1);
        a.spmv_into(&x, &mut y2);
        assert_eq!(bits(&y1), bits(&y2));

        // A layout stripped of its values refills to the same matrix.
        let refilled = s.clone().into_layout().fill(&half);
        refilled.spmv_into(&x, &mut y1);
        half.spmv_into(&x, &mut y2);
        assert_eq!(bits(&y1), bits(&y2));
        assert_eq!(refilled.stored(), s.stored());
    }

    #[test]
    fn fill_ratio_reflects_padding() {
        let id = SellCs::from_csr(&Csr::identity(8), 8);
        assert_eq!(id.fill_ratio(), 1.0);
        let skew = Csr::from_dense(&[
            vec![1.0, 1.0, 1.0, 1.0],
            vec![1.0, 0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 0.0],
        ]);
        let s = SellCs::from_csr(&skew, 4);
        assert!(s.fill_ratio() > 1.0);
    }
}
