//! Byte/flop prices of the solver's kernels — the only place a kernel
//! is priced.
//!
//! Callers holding a `parcomm::Rank` hand these `(bytes, flops)` pairs
//! to `rank.kernel(name, kind).launch(..)`, which accumulates each
//! launch once: into the per-phase trace the `machine` crate converts
//! into modeled device time (roofline: `max(bytes / bandwidth, flops /
//! peak)` plus a launch overhead per kernel), and into the per-name
//! `kernel_perf` row of the roofline report. Changing a formula here
//! moves both, and shows as a diff of `results/*.txt`.
//!
//! Conventions: indices are 8 bytes (`usize`), values 8 bytes (`f64`);
//! every array is streamed from memory once per kernel (no cache credit
//! between kernels) and stores are counted once.

use crate::csr::Csr;
use crate::sellcs::SellCs;

const IDX: u64 = std::mem::size_of::<usize>() as u64;
const VAL: u64 = std::mem::size_of::<f64>() as u64;
/// SELL-C-σ stores columns, row lengths, and the permutation as u32.
const IDX32: u64 = std::mem::size_of::<u32>() as u64;

/// (bytes, flops) for y = A·x.
pub fn spmv(a: &Csr) -> (u64, u64) {
    let nnz = a.nnz() as u64;
    let n = a.nrows() as u64;
    // Read indptr + indices + vals + gathered x, write y.
    let bytes = (n + 1) * IDX + nnz * (IDX + 2 * VAL) + n * VAL;
    let flops = 2 * nnz;
    (bytes, flops)
}

/// (bytes, flops) for a BLAS-1 op over `n` elements touching `vectors`
/// arrays (e.g. axpy touches 3: read x, read+write y).
pub fn blas1(n: usize, vectors: u64) -> (u64, u64) {
    (stream(n, vectors).0, 2 * n as u64)
}

/// (bytes, flops) for `y += Σₖ aₖ·xₖ` over `k` vectors of `n` elements
/// in one pass (`dense::axpys`): `y` read and written once, each `xₖ`
/// read once, one multiply-add per term.
pub fn axpys(n: usize, k: usize) -> (u64, u64) {
    let (n, k) = (n as u64, k as u64);
    ((k + 2) * n * VAL, 2 * k * n)
}

/// (bytes, 0) for a flop-free pass over `n` elements touching `vectors`
/// arrays (pack, split, copy).
pub fn stream(n: usize, vectors: u64) -> (u64, u64) {
    ((n as u64) * VAL * vectors, 0)
}

/// (bytes, flops) for a stable sort of `n` (key, value) items —
/// modeled as `ceil(log2 n)` data passes, matching radix/merge behaviour.
pub fn sort(n: usize, item_bytes: u64) -> (u64, u64) {
    if n == 0 {
        return (0, 0);
    }
    let passes = (usize::BITS - (n - 1).leading_zeros()).max(1) as u64;
    ((n as u64) * item_bytes * passes, 0)
}

/// (bytes, flops) for reduce_by_key over `n` items.
pub fn reduce(n: usize, item_bytes: u64) -> (u64, u64) {
    ((n as u64) * item_bytes * 2, n as u64)
}

/// (bytes, flops) for one local leg of the distributed SpGEMM, fresh
/// (`distmat::ops::par_spgemm`) or replayed through a recorded plan:
/// the output C streamed once as (index, value) pairs, one
/// multiply-add per expansion product and one accumulate per output
/// entry. This is the price the `machine` figures were generated with;
/// it ignores the A/B input streams and the hash traffic.
pub fn spgemm(expansion: u64, c_nnz: usize) -> (u64, u64) {
    let c_nnz = c_nnz as u64;
    (c_nnz * (IDX + VAL), 2 * (expansion + c_nnz))
}

/// (bytes, flops) for y = A·x in SELL-C-σ storage: chunk offsets plus
/// u32 row lengths/permutation, then one streamed (col, val, gathered x)
/// triple per *stored* (padding included) slot, and the y write. The
/// u32 indices are the point: compare [`spmv`]'s `nnz * (IDX + 2*VAL)`
/// term.
pub fn sellcs_spmv(m: &SellCs) -> (u64, u64) {
    let rows = m.nrows() as u64;
    let stored = m.stored() as u64;
    let chunks = m.n_chunks() as u64;
    let bytes = (chunks + 1) * IDX + rows * 2 * IDX32 + stored * (IDX32 + 2 * VAL) + rows * VAL;
    let flops = 2 * m.nnz() as u64;
    (bytes, flops)
}

/// (bytes, flops) for an assembly-plan replay: gather `contribs`
/// source values through u32 index lists (index + value read each) and
/// sum them in recorded order into `entries` outputs written once;
/// every contribution past an entry's first costs one add.
pub fn assembly_gather(entries: usize, contribs: usize) -> (u64, u64) {
    let (entries, contribs) = (entries as u64, contribs as u64);
    (contribs * (IDX32 + VAL) + entries * VAL, contribs.saturating_sub(entries))
}

/// (bytes, flops) for one fused Jacobi-Richardson sweep over triangle
/// `t` (`Csr::jr_sweep_fused`): the SpMV pass (its `n*VAL` write is the
/// `g_next` store) plus reads of `r` and `inv_diag`. The unfused
/// pipeline pays two extra vector streams (write + re-read of the
/// `T·g` intermediate).
pub fn jr_sweep_fused(t: &Csr) -> (u64, u64) {
    let (sb, sf) = spmv(t);
    let n = t.nrows() as u64;
    (sb + 2 * n * VAL, sf + 2 * n)
}

/// (bytes, flops) for the last sweep of a smoothing round added into the
/// iterate (`Csr::jr_sweep_add`): [`jr_sweep_fused`] plus the read of
/// `x` (its write is the sweep's store) and one add per row.
pub fn jr_sweep_add(t: &Csr) -> (u64, u64) {
    let (sb, sf) = jr_sweep_fused(t);
    let n = t.nrows() as u64;
    (sb + n * VAL, sf + n)
}

/// (bytes, flops) for transposing `a`.
pub fn transpose(a: &Csr) -> (u64, u64) {
    let nnz = a.nnz() as u64;
    ((nnz * (IDX + VAL)) * 2 + (a.ncols() as u64 + 1) * IDX, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_cost_scales_with_nnz() {
        let small = Csr::identity(10);
        let big = Csr::identity(1000);
        let (bs, fs) = spmv(&small);
        let (bb, fb) = spmv(&big);
        assert!(bb > bs);
        assert_eq!(fs, 20);
        assert_eq!(fb, 2000);
    }

    #[test]
    fn spmv_and_fused_sweep_hand_counted() {
        // 3×3 identity: (3+1)·8 indptr + 3·(8 idx + 8 val + 8 gathered x)
        // + 3·8 write y = 128 bytes, 2 flops per entry.
        let a = Csr::identity(3);
        assert_eq!(spmv(&a), (128, 6));
        // The fused sweep adds the r and D⁻¹ streams and 2 flops per row;
        // adding into x, its read and one more flop per row.
        assert_eq!(jr_sweep_fused(&a), (128 + 2 * 3 * 8, 6 + 6));
        assert_eq!(jr_sweep_add(&a), (128 + 3 * 3 * 8, 6 + 9));
        // Three axpys in one pass over 10 elements: y twice, 3 x reads.
        assert_eq!(axpys(10, 3), (5 * 10 * 8, 60));
        // SpGEMM: 4 output (index, value) pairs, 4 products + 4 accumulates.
        assert_eq!(spgemm(4, 4), (64, 16));
    }

    #[test]
    fn sort_cost_has_log_passes() {
        let (b1, _) = sort(1024, 16);
        let (b2, _) = sort(2048, 16);
        // 10 passes vs 11 passes
        assert_eq!(b1, 1024 * 16 * 10);
        assert_eq!(b2, 2048 * 16 * 11);
        assert_eq!(sort(0, 16), (0, 0));
        assert_eq!(sort(1, 16), (16, 0));
    }

    #[test]
    fn assembly_gather_hand_counted() {
        // 10 entries from 12 contributions: 12 (u32 index, value) reads,
        // 10 writes, 2 adds.
        assert_eq!(assembly_gather(10, 12), (12 * 12 + 10 * 8, 2));
        assert_eq!(assembly_gather(0, 0), (0, 0));
    }

    #[test]
    fn blas1_and_reduce_nonzero() {
        assert_eq!(blas1(100, 3), (2400, 200));
        assert_eq!(stream(100, 2), (1600, 0));
        assert!(reduce(100, 16).0 > 0);
        assert!(transpose(&Csr::identity(5)).0 > 0);
    }
}
