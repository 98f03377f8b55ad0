//! Analytic byte/flop models for the solver's hot kernels.
//!
//! Each model predicts, from matrix dimensions alone, the memory traffic
//! and floating-point work of one kernel invocation. Paired with a
//! measured wall-clock (see [`crate::Telemetry::kernel`]) this turns raw
//! timings into achieved GB/s / GFLOP/s / DOF/s — the paper's Figs. 6–9
//! currency — and, against a measured STREAM baseline (`machine` crate),
//! a "% of achievable bandwidth" roofline position per kernel.
//!
//! Modeling conventions (see DESIGN.md "Observability" for the full
//! derivation):
//!
//! - indices are 8 bytes (`usize`), values 8 bytes (`f64`);
//! - every array is assumed streamed from DRAM once per kernel — no
//!   cache-residency credit between kernels;
//! - stores are counted **once** (streaming/non-temporal store
//!   assumption). Under classic write-allocate semantics every store
//!   also reads its cache line, which would add one extra `VAL` per
//!   written element; we fold that uncertainty into the achieved-%
//!   interpretation rather than the model;
//! - sorts move `items × item_bytes` per pass with `ceil(log2 n)`
//!   passes (radix/merge behaviour), matching `sparse_kit::cost`.
//!
//! This module lives in `telemetry` (the bottom of the crate graph) so
//! every layer — `distmat`, `krylov`, `amg`, `nalu-core` — can price its
//! kernels without new dependencies; it therefore takes plain dimensions
//! rather than matrix types.

/// Bytes per index (row pointer / column id).
pub const IDX: u64 = std::mem::size_of::<usize>() as u64;
/// Bytes per matrix/vector value.
pub const VAL: u64 = std::mem::size_of::<f64>() as u64;
/// Bytes per compact (u32) index — SELL-C-σ columns/lengths/permutation.
pub const IDX32: u64 = std::mem::size_of::<u32>() as u64;

/// Predicted cost of one kernel invocation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelModel {
    /// Bytes moved to/from memory.
    pub bytes: u64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Degrees of freedom processed (rows, vector elements, or COO
    /// items — whatever the kernel's throughput is naturally quoted in).
    pub dofs: u64,
}

impl KernelModel {
    /// Component-wise sum of two models (kernel fusion).
    pub fn plus(self, other: KernelModel) -> KernelModel {
        KernelModel {
            bytes: self.bytes + other.bytes,
            flops: self.flops + other.flops,
            dofs: self.dofs.max(other.dofs),
        }
    }

    /// The same work repeated `n` times inside one timed scope.
    pub fn times(self, n: u64) -> KernelModel {
        KernelModel {
            bytes: self.bytes * n,
            flops: self.flops * n,
            dofs: self.dofs,
        }
    }
}

/// y = A·x for a CSR matrix with `rows` rows and `nnz` stored entries:
/// stream the row pointers, indices, values and gathered x entries,
/// write y once.
pub fn csr_spmv(rows: usize, nnz: usize) -> KernelModel {
    let (rows, nnz) = (rows as u64, nnz as u64);
    KernelModel {
        bytes: (rows + 1) * IDX + nnz * (IDX + 2 * VAL) + rows * VAL,
        flops: 2 * nnz,
        dofs: rows,
    }
}

/// y = A·x in SELL-C-σ storage (`sparse_kit::sellcs`): chunk offsets
/// (`usize`), u32 per-slot row lengths and row permutation, one
/// (u32 col, val, gathered x) triple per **stored** slot — `stored`
/// includes the chunk padding, which is streamed whether used or not —
/// and the y write. `nnz` (real entries) sets the flop count. The win
/// over [`csr_spmv`] is the u32 index stream.
pub fn sellcs_spmv(rows: usize, chunks: usize, stored: usize, nnz: usize) -> KernelModel {
    let (rows, chunks, stored) = (rows as u64, chunks as u64, stored as u64);
    KernelModel {
        bytes: (chunks + 1) * IDX + rows * 2 * IDX32 + stored * (IDX32 + 2 * VAL) + rows * VAL,
        flops: 2 * nnz as u64,
        dofs: rows,
    }
}

/// One Jacobi-Richardson inner iteration of the two-stage smoothers
/// (Eqs. 5–7): a triangular SpMV (`tri_nnz` = nnz of the strict L or U
/// factor) followed by the element-wise Jacobi update
/// `g ← D⁻¹(r − T·g)`, which touches four vectors (r, T·g, D⁻¹, g).
pub fn jr_sweep(rows: usize, tri_nnz: usize) -> KernelModel {
    let spmv = csr_spmv(rows, tri_nnz);
    KernelModel {
        bytes: spmv.bytes + 4 * rows as u64 * VAL,
        flops: spmv.flops + 2 * rows as u64,
        dofs: rows as u64,
    }
}

/// One **fused** Jacobi-Richardson sweep (`Csr::jr_sweep_fused`):
/// `g_next ← D⁻¹(r − T·g)` in a single matrix pass. The SpMV's vector
/// write *is* the `g_next` store, and the `T·g` intermediate is never
/// materialized, so only r and D⁻¹ are extra streams — two fewer than
/// [`jr_sweep`]'s four (the intermediate's write + re-read are gone).
pub fn jr_sweep_fused(rows: usize, tri_nnz: usize) -> KernelModel {
    let spmv = csr_spmv(rows, tri_nnz);
    KernelModel {
        bytes: spmv.bytes + 2 * rows as u64 * VAL,
        flops: spmv.flops + 2 * rows as u64,
        dofs: rows as u64,
    }
}

/// One SGS2 triangular stage (forward L or backward U solve of
/// Eqs. 11–14): the initial diagonal scale (3 vector streams, one
/// multiply per element) plus `inner` Jacobi-Richardson sweeps.
pub fn sgs2_stage(rows: usize, tri_nnz: usize, inner: usize) -> KernelModel {
    let scale = KernelModel {
        bytes: 3 * rows as u64 * VAL,
        flops: rows as u64,
        dofs: rows as u64,
    };
    scale.plus(jr_sweep(rows, tri_nnz).times(inner as u64))
}

/// One SGS2 triangular stage built from **fused** sweeps: the diagonal
/// scale plus `inner` fused Jacobi-Richardson passes.
pub fn sgs2_stage_fused(rows: usize, tri_nnz: usize, inner: usize) -> KernelModel {
    let scale = KernelModel {
        bytes: 3 * rows as u64 * VAL,
        flops: rows as u64,
        dofs: rows as u64,
    };
    scale.plus(jr_sweep_fused(rows, tri_nnz).times(inner as u64))
}

/// Algorithm 1/2 global-assembly `stable_sort_by_key` + `reduce_by_key`
/// over `items` records of `item_bytes` each: `ceil(log2 n)` sort
/// passes plus one read+write reduce pass, with one add per item.
pub fn assembly_sort_reduce(items: usize, item_bytes: u64) -> KernelModel {
    if items == 0 {
        return KernelModel::default();
    }
    let passes = (usize::BITS - (items - 1).leading_zeros()).max(1) as u64;
    KernelModel {
        bytes: items as u64 * item_bytes * (passes + 2),
        flops: items as u64,
        dofs: items as u64,
    }
}

/// Assembly-plan replay: gather `contribs` source values through u32
/// index lists (index + value read each) and sum them in recorded order
/// into `entries` outputs written once; every contribution past an
/// entry's first costs one add.
pub fn assembly_gather(entries: usize, contribs: usize) -> KernelModel {
    KernelModel {
        bytes: contribs as u64 * (IDX32 + VAL) + entries as u64 * VAL,
        flops: contribs.saturating_sub(entries) as u64,
        dofs: entries as u64,
    }
}

/// Hash SpGEMM C = A·B (one leg of the Galerkin triple product):
/// stream A once, read a B entry and update a hash slot per expansion
/// product, stream the C output once.
pub fn spgemm(rows: usize, a_nnz: usize, expansion: u64, c_nnz: usize) -> KernelModel {
    KernelModel {
        bytes: a_nnz as u64 * (IDX + VAL)
            + expansion * (IDX + 2 * VAL)
            + c_nnz as u64 * (IDX + VAL),
        flops: 2 * expansion,
        dofs: rows as u64,
    }
}

/// Numeric-only SpGEMM replay through a recorded plan
/// (`sparse_kit::spgemm::SpgemmPlan::execute`): A streamed with its
/// structure, one (slot index, B value) pair per expansion product, C
/// written once (values only — the structure is already in the plan).
/// No hash probing, no per-row sort, no assembly — the per-call saving
/// versus [`spgemm`] is `expansion·VAL + c_nnz·IDX`.
pub fn spgemm_numeric(rows: usize, a_nnz: usize, expansion: u64, c_nnz: usize) -> KernelModel {
    KernelModel {
        bytes: a_nnz as u64 * (IDX + VAL) + expansion * (IDX + VAL) + c_nnz as u64 * VAL,
        flops: 2 * expansion,
        dofs: rows as u64,
    }
}

/// Halo-exchange pack: gather `n` boundary values through an index list
/// into a contiguous send buffer (read ids, gather-read x, write buf).
pub fn halo_pack(n: usize) -> KernelModel {
    KernelModel {
        bytes: n as u64 * (IDX + 2 * VAL),
        flops: 0,
        dofs: n as u64,
    }
}

/// Halo-exchange unpack: contiguous copy of `n` received values into
/// the external-column vector.
pub fn halo_unpack(n: usize) -> KernelModel {
    KernelModel {
        bytes: 2 * n as u64 * VAL,
        flops: 0,
        dofs: n as u64,
    }
}

/// A BLAS-1-style sweep over `n` elements touching `streams` vector
/// operands with `flops_per_elem` operations each (axpy = 3 streams,
/// 2 flops).
pub fn blas1(n: usize, streams: u64, flops_per_elem: u64) -> KernelModel {
    KernelModel {
        bytes: n as u64 * streams * VAL,
        flops: n as u64 * flops_per_elem,
        dofs: n as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_spmv_hand_counted_3x3() {
        // Dense 3×3 stored as CSR: 9 entries, 3 rows.
        // bytes = (3+1)·8 indptr + 9·(8 idx + 8 val + 8 gathered x)
        //       + 3·8 write y = 32 + 216 + 24 = 272.
        let m = csr_spmv(3, 9);
        assert_eq!(m.bytes, 272);
        assert_eq!(m.flops, 18); // 2 per stored entry
        assert_eq!(m.dofs, 3);
    }

    #[test]
    fn jr_sweep_hand_counted_3x3_strict_lower() {
        // Strict lower triangle of dense 3×3 has 3 entries.
        // SpMV part: 4·8 + 3·24 + 3·8 = 128 bytes, 6 flops.
        // Jacobi update: 4 vectors × 3 rows × 8 = 96 bytes, 2·3 flops.
        let m = jr_sweep(3, 3);
        assert_eq!(m.bytes, 128 + 96);
        assert_eq!(m.flops, 6 + 6);
        assert_eq!(m.dofs, 3);
    }

    #[test]
    fn sgs2_stage_is_scale_plus_inner_sweeps() {
        let one = sgs2_stage(3, 3, 1);
        let two = sgs2_stage(3, 3, 2);
        let sweep = jr_sweep(3, 3);
        assert_eq!(two.bytes - one.bytes, sweep.bytes);
        assert_eq!(two.flops - one.flops, sweep.flops);
        // inner = 0 degenerates to the diagonal scale alone.
        let zero = sgs2_stage(3, 3, 0);
        assert_eq!(zero.bytes, 3 * 3 * 8);
        assert_eq!(zero.flops, 3);
    }

    #[test]
    fn sort_reduce_has_log2_passes() {
        // 1024 items of 24 bytes: 10 sort passes + 2 reduce passes.
        let m = assembly_sort_reduce(1024, 24);
        assert_eq!(m.bytes, 1024 * 24 * 12);
        assert_eq!(m.flops, 1024);
        assert_eq!(assembly_sort_reduce(0, 24), KernelModel::default());
        // A single item still pays one pass + the reduce.
        assert_eq!(assembly_sort_reduce(1, 24).bytes, 24 * 3);
    }

    #[test]
    fn halo_and_blas1_models() {
        // 10 entries from 12 contributions: 12 (u32 index, value) reads,
        // 10 writes, 2 adds.
        let g = assembly_gather(10, 12);
        assert_eq!((g.bytes, g.flops, g.dofs), (12 * 12 + 10 * 8, 2, 10));
        assert_eq!(halo_pack(10).bytes, 10 * 24);
        assert_eq!(halo_unpack(10).bytes, 10 * 16);
        let axpy = blas1(100, 3, 2);
        assert_eq!(axpy.bytes, 2400);
        assert_eq!(axpy.flops, 200);
    }

    #[test]
    fn spgemm_counts_expansion() {
        let m = spgemm(4, 4, 4, 4);
        assert_eq!(m.flops, 8);
        assert_eq!(m.bytes, 4 * 16 + 4 * 24 + 4 * 16);
        assert_eq!(m.dofs, 4);
    }

    #[test]
    fn fused_sweep_saves_two_vector_streams() {
        // Fused drops the T·g intermediate: one write + one read of a
        // `rows`-long vector per sweep, flops unchanged.
        let (rows, nnz) = (100, 480);
        let unfused = jr_sweep(rows, nnz);
        let fused = jr_sweep_fused(rows, nnz);
        assert_eq!(unfused.bytes - fused.bytes, 2 * rows as u64 * VAL);
        assert_eq!(unfused.flops, fused.flops);
        let s2 = sgs2_stage(rows, nnz, 2);
        let s2f = sgs2_stage_fused(rows, nnz, 2);
        assert_eq!(s2.bytes - s2f.bytes, 2 * 2 * rows as u64 * VAL);
        assert_eq!(s2.flops, s2f.flops);
    }

    #[test]
    fn sellcs_spmv_hand_counted() {
        // 8 rows in 2 chunks, 24 real entries padded to 32 stored slots:
        // bytes = 3·8 chunk_ptr + 8·(4+4) len+perm + 32·(4 + 16) + 8·8 y
        //       = 24 + 64 + 640 + 64 = 792.
        let m = sellcs_spmv(8, 2, 32, 24);
        assert_eq!(m.bytes, 792);
        assert_eq!(m.flops, 48);
        assert_eq!(m.dofs, 8);
        // Beats CSR on the same logical matrix once padding is modest:
        // csr_spmv(8, 24) = 9·8 + 24·24 + 8·8 = 712... close; with nnz
        // at scale the u32 stream wins (see the agreement test below).
        let csr = csr_spmv(1000, 7000);
        let sell = sellcs_spmv(1000, 250, 7200, 7000);
        assert!(sell.bytes < csr.bytes);
    }

    #[test]
    fn spgemm_numeric_is_cheaper_than_symbolic() {
        let (rows, a_nnz, expansion, c_nnz) = (100, 700, 3000u64, 900);
        let full = spgemm(rows, a_nnz, expansion, c_nnz);
        let numeric = spgemm_numeric(rows, a_nnz, expansion, c_nnz);
        assert_eq!(
            full.bytes - numeric.bytes,
            expansion * VAL + c_nnz as u64 * IDX
        );
        assert_eq!(full.flops, numeric.flops);
    }

    #[test]
    fn combinators_compose() {
        let a = csr_spmv(3, 9);
        assert_eq!(a.plus(a).bytes, 2 * a.bytes);
        assert_eq!(a.times(3).flops, 3 * a.flops);
        assert_eq!(a.times(3).dofs, a.dofs);
    }
}
