//! Sparse matrix-matrix multiplication (SpGEMM).
//!
//! The paper's AMG setup builds coarse operators with Galerkin triple
//! products, and reports that hypre's **hash-based** SpGEMM has superior
//! throughput to the sort-based cuSPARSE `csrgemm` of the day (§5.1).
//! Both algorithms are implemented here:
//!
//! - [`spgemm_hash`]: per-row open-addressing hash accumulation (hypre's
//!   approach, the default everywhere in this workspace);
//! - [`spgemm_esc`]: expand-sort-compress via the Thrust-style primitives
//!   (the cuSPARSE-style comparator used by the `spgemm` bench).

use crate::coo::Coo;
use crate::csr::Csr;
use crate::prims;

const EMPTY: usize = usize::MAX;

/// Open-addressing accumulator for one output row.
struct HashRow {
    keys: Vec<usize>,
    vals: Vec<f64>,
    mask: usize,
    len: usize,
}

impl HashRow {
    fn with_capacity(expected: usize) -> Self {
        // Load factor 1/2; minimum capacity 16 keeps probes short on the
        // ~8-entries-per-row matrices the application produces.
        let cap = (expected.max(4) * 2).next_power_of_two().max(16);
        HashRow {
            keys: vec![EMPTY; cap],
            vals: vec![0.0; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    #[inline]
    fn insert(&mut self, key: usize, val: f64) {
        if self.len * 2 >= self.keys.len() {
            self.grow();
        }
        // Multiplicative hash; same scheme hypre uses on the GPU.
        let mut slot = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) & self.mask;
        loop {
            let k = self.keys[slot];
            if k == key {
                self.vals[slot] += val;
                return;
            }
            if k == EMPTY {
                self.keys[slot] = key;
                self.vals[slot] = val;
                self.len += 1;
                return;
            }
            slot = (slot + 1) & self.mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; (self.mask + 1) * 2]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0.0; (self.mask + 1) * 2]);
        self.mask = self.keys.len() - 1;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.insert(k, v);
            }
        }
    }

    /// Drain into column-sorted (cols, vals).
    fn into_sorted(self) -> (Vec<usize>, Vec<f64>) {
        let mut pairs: Vec<(usize, f64)> = self
            .keys
            .into_iter()
            .zip(self.vals)
            .filter(|&(k, _)| k != EMPTY)
            .collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        pairs.into_iter().unzip()
    }
}

/// C = A·B using per-row hash accumulation (hypre-style).
///
/// # Panics
///
/// Panics if `a.ncols() != b.nrows()`.
pub fn spgemm_hash(a: &Csr, b: &Csr) -> Csr {
    assert_eq!(a.ncols(), b.nrows(), "inner dimension mismatch");
    let row_product = |r: usize| -> (Vec<usize>, Vec<f64>) {
        let (a_cols, a_vals) = a.row(r);
        // Upper bound on the output row size for table sizing.
        let bound: usize = a_cols
            .iter()
            .map(|&k| b.indptr()[k + 1] - b.indptr()[k])
            .sum();
        if bound == 0 {
            return (Vec::new(), Vec::new());
        }
        let mut acc = HashRow::with_capacity(bound.min(b.ncols()));
        for (&k, &av) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k);
            for (&j, &bv) in b_cols.iter().zip(b_vals) {
                acc.insert(j, av * bv);
            }
        }
        acc.into_sorted()
    };

    let rows: Vec<(Vec<usize>, Vec<f64>)> = (0..a.nrows()).map(row_product).collect();
    assemble_rows(a.nrows(), b.ncols(), rows)
}

/// C = A·B by expand-sort-compress over COO triples (cuSPARSE-style
/// comparator; used by benches, not by the solver path).
pub fn spgemm_esc(a: &Csr, b: &Csr) -> Csr {
    assert_eq!(a.ncols(), b.nrows(), "inner dimension mismatch");
    let mut expanded = Coo::new();
    for r in 0..a.nrows() {
        let (a_cols, a_vals) = a.row(r);
        for (&k, &av) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k);
            for (&j, &bv) in b_cols.iter().zip(b_vals) {
                expanded.push(r as u64, j as u64, av * bv);
            }
        }
    }
    expanded.sort_and_combine();
    Csr::from_coo(a.nrows(), b.ncols(), &expanded)
}

/// Number of multiply-add pairs an SpGEMM performs (the "expansion size"),
/// used both for table sizing heuristics and the cost model.
pub fn spgemm_flops(a: &Csr, b: &Csr) -> u64 {
    let mut ops = 0u64;
    for &k in a.indices() {
        ops += (b.indptr()[k + 1] - b.indptr()[k]) as u64;
    }
    2 * ops
}

/// Symbolic/numeric split for repeated products with fixed structure.
///
/// The Galerkin RAP in AMG setup re-multiplies matrices whose sparsity
/// is unchanged between Picard re-solves — only the values move. A
/// `SpgemmPlan` captures, on the first (fresh) multiply, C's sparsity
/// plus one preassigned output slot per scalar product in expansion
/// order; [`SpgemmPlan::execute`] then skips the whole symbolic phase
/// (hash probing, growth, per-row sort, assembly) and streams values
/// straight into the slots.
///
/// ## Bitwise contract
///
/// `execute` reproduces [`spgemm_hash`] bit-for-bit: the hash path
/// accumulates each output entry in expansion order (A's row entries in
/// CSR order × B's row entries in CSR order; table growth moves partial
/// sums intact, and the final sort permutes entries, not their sums),
/// and the replay performs the same adds in the same order. The one
/// trap is the *first* contribution: `HashRow` **assigns** it, so the
/// replay seeds every slot with `-0.0` — the IEEE additive identity —
/// making `(-0.0) + x` bit-equal to the assignment of `x` even for
/// `x = -0.0`.
///
/// ## Staleness
///
/// A plan is valid only for operands whose patterns match the recorded
/// ones; [`SpgemmPlan::matches`] is the cheap check, and callers fall
/// back to a fresh [`spgemm_hash`] (and re-plan) on mismatch.
pub struct SpgemmPlan {
    a_indptr: Vec<usize>,
    a_indices: Vec<usize>,
    b_indptr: Vec<usize>,
    b_indices: Vec<usize>,
    c_indptr: Vec<usize>,
    c_indices: Vec<usize>,
    c_ncols: usize,
    /// Flat index into C's values for each product, in expansion order.
    slots: Vec<usize>,
}

impl SpgemmPlan {
    /// Fresh multiply + plan capture. Returns the product exactly as
    /// [`spgemm_hash`] would.
    pub fn new(a: &Csr, b: &Csr) -> (SpgemmPlan, Csr) {
        let c = spgemm_hash(a, b);
        let mut slots = Vec::new();
        for r in 0..a.nrows() {
            let (a_cols, _) = a.row(r);
            let (c_cols, _) = c.row(r);
            let c_base = c.indptr()[r];
            for &k in a_cols {
                let (b_cols, _) = b.row(k);
                for &j in b_cols {
                    let pos = c_cols.binary_search(&j).expect("product column missing from C");
                    slots.push(c_base + pos);
                }
            }
        }
        let plan = SpgemmPlan {
            a_indptr: a.indptr().to_vec(),
            a_indices: a.indices().to_vec(),
            b_indptr: b.indptr().to_vec(),
            b_indices: b.indices().to_vec(),
            c_indptr: c.indptr().to_vec(),
            c_indices: c.indices().to_vec(),
            c_ncols: c.ncols(),
            slots,
        };
        (plan, c)
    }

    /// Do `a` and `b` still have the structure this plan was built for?
    pub fn matches(&self, a: &Csr, b: &Csr) -> bool {
        a.indptr() == self.a_indptr.as_slice()
            && a.indices() == self.a_indices.as_slice()
            && b.indptr() == self.b_indptr.as_slice()
            && b.indices() == self.b_indices.as_slice()
    }

    /// Products (multiply-add pairs) the numeric pass performs.
    pub fn expansion(&self) -> usize {
        self.slots.len()
    }

    /// Stored entries of the output.
    pub fn c_nnz(&self) -> usize {
        *self.c_indptr.last().unwrap_or(&0)
    }

    /// Numeric-only multiply into the recorded structure.
    ///
    /// # Panics
    ///
    /// Debug-asserts [`SpgemmPlan::matches`]; callers are expected to
    /// have checked (collectively, in the distributed setting) first.
    pub fn execute(&self, a: &Csr, b: &Csr) -> Csr {
        debug_assert!(self.matches(a, b), "SpgemmPlan executed on stale operands");
        // -0.0 seed: see the bitwise contract in the type docs.
        let mut vals = vec![-0.0f64; self.c_nnz()];
        let mut cursor = 0;
        for r in 0..a.nrows() {
            let (a_cols, a_vals) = a.row(r);
            for (&k, &av) in a_cols.iter().zip(a_vals) {
                let (_, b_vals) = b.row(k);
                for &bv in b_vals {
                    vals[self.slots[cursor]] += av * bv;
                    cursor += 1;
                }
            }
        }
        Csr::from_parts(
            a.nrows(),
            self.c_ncols,
            self.c_indptr.clone(),
            self.c_indices.clone(),
            vals,
        )
    }
}

fn assemble_rows(nrows: usize, ncols: usize, rows: Vec<(Vec<usize>, Vec<f64>)>) -> Csr {
    let counts: Vec<usize> = rows.iter().map(|(c, _)| c.len()).collect();
    let indptr = prims::exclusive_scan(&counts);
    let nnz = *indptr.last().unwrap();
    let mut indices = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for (c, v) in rows {
        indices.extend(c);
        vals.extend(v);
    }
    Csr::from_parts(nrows, ncols, indptr, indices, vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_mul(a: &Csr, b: &Csr) -> Vec<Vec<f64>> {
        let (da, db) = (a.to_dense(), b.to_dense());
        let mut out = vec![vec![0.0; b.ncols()]; a.nrows()];
        for i in 0..a.nrows() {
            for k in 0..a.ncols() {
                if da[i][k] != 0.0 {
                    for j in 0..b.ncols() {
                        out[i][j] += da[i][k] * db[k][j];
                    }
                }
            }
        }
        out
    }

    fn close(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
        a.iter().zip(b).all(|(ra, rb)| {
            ra.iter().zip(rb).all(|(x, y)| (x - y).abs() < 1e-12)
        })
    }

    #[test]
    fn hash_matches_dense_small() {
        let a = Csr::from_dense(&[vec![1.0, 2.0], vec![0.0, 3.0]]);
        let b = Csr::from_dense(&[vec![4.0, 0.0], vec![1.0, 5.0]]);
        let c = spgemm_hash(&a, &b);
        assert!(close(&c.to_dense(), &dense_mul(&a, &b)));
    }

    #[test]
    fn esc_matches_hash() {
        let a = Csr::from_dense(&[
            vec![2.0, -1.0, 0.0, 0.0],
            vec![-1.0, 2.0, -1.0, 0.0],
            vec![0.0, -1.0, 2.0, -1.0],
            vec![0.0, 0.0, -1.0, 2.0],
        ]);
        let h = spgemm_hash(&a, &a);
        let e = spgemm_esc(&a, &a);
        assert_eq!(h.to_dense(), e.to_dense());
    }

    #[test]
    fn identity_is_neutral() {
        let a = Csr::from_dense(&[vec![1.5, 0.0, 2.0], vec![0.0, -3.0, 0.0]]);
        let i3 = Csr::identity(3);
        let i2 = Csr::identity(2);
        assert_eq!(spgemm_hash(&a, &i3).to_dense(), a.to_dense());
        assert_eq!(spgemm_hash(&i2, &a).to_dense(), a.to_dense());
    }

    #[test]
    fn cancellation_keeps_explicit_zero() {
        // a*b produces an entry whose value cancels to 0: both algorithms
        // keep the structural entry (hash) — ESC also keeps it because
        // reduce_by_key sums, it does not drop zeros.
        let a = Csr::from_dense(&[vec![1.0, 1.0]]);
        let b = Csr::from_dense(&[vec![1.0], vec![-1.0]]);
        let c = spgemm_hash(&a, &b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), 0.0);
        let e = spgemm_esc(&a, &b);
        assert_eq!(e.nnz(), 1);
    }

    #[test]
    fn empty_rows_are_fine() {
        let a = Csr::zeros(3, 3);
        let b = Csr::identity(3);
        let c = spgemm_hash(&a, &b);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.nrows(), 3);
    }

    #[test]
    fn rectangular_shapes() {
        let a = Csr::from_dense(&[vec![1.0, 2.0, 3.0]]); // 1x3
        let b = Csr::from_dense(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]); // 3x2
        let c = spgemm_hash(&a, &b);
        assert_eq!(c.nrows(), 1);
        assert_eq!(c.ncols(), 2);
        assert_eq!(c.to_dense(), vec![vec![4.0, 5.0]]);
    }

    #[test]
    fn flops_counts_expansion() {
        let a = Csr::identity(4);
        assert_eq!(spgemm_flops(&a, &a), 8); // 4 products, 2 flops each
    }

    #[test]
    fn hash_row_grows_under_load() {
        let mut h = HashRow::with_capacity(2);
        for k in 0..1000 {
            h.insert(k, 1.0);
        }
        for k in 0..1000 {
            h.insert(k, 1.0);
        }
        let (cols, vals) = h.into_sorted();
        assert_eq!(cols.len(), 1000);
        assert!(cols.windows(2).all(|w| w[0] < w[1]));
        assert!(vals.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn plan_reuse_matches_fresh_hash_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let (m, k, n) = (
                rng.gen_range(1..10),
                rng.gen_range(1..10),
                rng.gen_range(1..10),
            );
            let mk = |rows: usize, cols: usize, rng: &mut rand::rngs::StdRng| {
                Csr::from_dense(
                    &(0..rows)
                        .map(|_| {
                            (0..cols)
                                .map(|_| {
                                    if rng.gen_bool(0.4) {
                                        rng.gen_range(-2.0..2.0)
                                    } else {
                                        0.0
                                    }
                                })
                                .collect::<Vec<f64>>()
                        })
                        .collect::<Vec<_>>(),
                )
            };
            let mut a = mk(m, k, &mut rng);
            let mut b = mk(k, n, &mut rng);
            let (plan, c0) = SpgemmPlan::new(&a, &b);
            assert_eq!(c0.to_dense(), spgemm_hash(&a, &b).to_dense());
            // Value-only update: same structure, new values.
            for v in a.vals_mut() {
                *v = *v * 1.7 - 0.3;
            }
            for v in b.vals_mut() {
                *v = -*v * 0.9 + 0.1;
            }
            assert!(plan.matches(&a, &b));
            let fresh = spgemm_hash(&a, &b);
            let replay = plan.execute(&a, &b);
            assert_eq!(replay.indptr(), fresh.indptr());
            assert_eq!(replay.indices(), fresh.indices());
            let fb: Vec<u64> = fresh.vals().iter().map(|v| v.to_bits()).collect();
            let rb: Vec<u64> = replay.vals().iter().map(|v| v.to_bits()).collect();
            assert_eq!(fb, rb, "plan replay diverged from fresh hash");
        }
    }

    #[test]
    fn plan_preserves_negative_zero_products() {
        // A single product of -1.0 * 0.0 = -0.0 must come out of the
        // replay with its sign bit, exactly like the hash assignment.
        let a = Csr::from_parts(1, 1, vec![0, 1], vec![0], vec![-1.0]);
        let b = Csr::from_parts(1, 1, vec![0, 1], vec![0], vec![0.0]);
        let (plan, c0) = SpgemmPlan::new(&a, &b);
        let replay = plan.execute(&a, &b);
        assert_eq!(c0.vals()[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(replay.vals()[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn plan_detects_structure_change() {
        let a = Csr::identity(3);
        let (plan, _) = SpgemmPlan::new(&a, &a);
        assert!(plan.matches(&a, &a));
        let other = Csr::from_dense(&[
            vec![1.0, 1.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        assert!(!plan.matches(&other, &a));
        assert!(!plan.matches(&a, &other));
        assert_eq!(plan.expansion(), 3);
        assert_eq!(plan.c_nnz(), 3);
    }

    #[test]
    fn random_matrices_agree_with_dense() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let (m, k, n) = (
                rng.gen_range(1..12),
                rng.gen_range(1..12),
                rng.gen_range(1..12),
            );
            let mk_dense = |rows: usize, cols: usize, rng: &mut rand::rngs::StdRng| {
                (0..rows)
                    .map(|_| {
                        (0..cols)
                            .map(|_| {
                                if rng.gen_bool(0.3) {
                                    rng.gen_range(-2.0..2.0)
                                } else {
                                    0.0
                                }
                            })
                            .collect::<Vec<f64>>()
                    })
                    .collect::<Vec<_>>()
            };
            let da = mk_dense(m, k, &mut rng);
            let db = mk_dense(k, n, &mut rng);
            let a = Csr::from_dense(&da);
            let b = Csr::from_dense(&db);
            let c = spgemm_hash(&a, &b);
            assert!(close(&c.to_dense(), &dense_mul(&a, &b)));
        }
    }
}
