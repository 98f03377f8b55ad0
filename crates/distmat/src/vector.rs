//! Distributed vectors in 1-D block-row layout.

use parcomm::Rank;
use sparse_kit::cost;
use sparse_kit::dense;

use crate::dist::RowDist;

/// A vector distributed like the rows of a [`crate::ParCsr`].
#[derive(Clone, Debug, PartialEq)]
pub struct ParVector {
    dist: RowDist,
    rank_id: usize,
    /// The locally owned slice of the global vector.
    pub local: Vec<f64>,
}

impl ParVector {
    /// Zero vector over `dist` on this rank.
    pub fn zeros(rank: &Rank, dist: RowDist) -> Self {
        let n = dist.local_n(rank.rank());
        ParVector {
            dist,
            rank_id: rank.rank(),
            local: vec![0.0; n],
        }
    }

    /// Build from the local values owned by this rank.
    ///
    /// # Panics
    ///
    /// Panics if `local.len()` differs from the distribution's local size.
    pub fn from_local(rank: &Rank, dist: RowDist, local: Vec<f64>) -> Self {
        assert_eq!(
            local.len(),
            dist.local_n(rank.rank()),
            "local length does not match distribution"
        );
        ParVector {
            dist,
            rank_id: rank.rank(),
            local,
        }
    }

    /// Fill from a function of the global index.
    pub fn from_fn(rank: &Rank, dist: RowDist, f: impl Fn(u64) -> f64) -> Self {
        let r = rank.rank();
        let local = (dist.start(r)..dist.end(r)).map(f).collect();
        ParVector {
            dist,
            rank_id: r,
            local,
        }
    }

    /// The row distribution.
    pub fn dist(&self) -> &RowDist {
        &self.dist
    }

    /// Global length.
    pub fn global_n(&self) -> u64 {
        self.dist.global_n()
    }

    /// Global dot product (local dot + allreduce).
    pub fn dot(&self, rank: &Rank, other: &ParVector) -> f64 {
        assert_eq!(self.local.len(), other.local.len(), "length mismatch");
        let local = {
            let k = rank.kernel("dot");
            k.launch(self.local.len(), cost::blas1(self.local.len(), 2));
            dense::dot(&self.local, &other.local)
        };
        rank.allreduce_sum_f64(local)
    }

    /// Global 2-norm.
    pub fn norm2(&self, rank: &Rank) -> f64 {
        self.dot(rank, self).sqrt()
    }

    /// self += a·x (purely local).
    pub fn axpy(&mut self, rank: &Rank, a: f64, x: &ParVector) {
        let k = rank.kernel("axpy");
        k.launch(self.local.len(), cost::blas1(self.local.len(), 3));
        dense::axpy(a, &x.local, &mut self.local);
    }

    /// self += Σₖ a[k]·xs[k] in one recorded pass (purely local): per
    /// element the terms add in `k` order, so the bits are those of the
    /// `axpy` sequence. No launch for an empty sum.
    pub fn axpys(&mut self, rank: &Rank, a: &[f64], xs: &[ParVector]) {
        if xs.is_empty() {
            return;
        }
        let n = self.local.len();
        let k = rank.kernel("fused_axpys");
        k.launch(n, cost::axpys(n, xs.len()));
        let xs: Vec<&[f64]> = xs.iter().map(|x| &x.local[..]).collect();
        dense::axpys(a, &xs, &mut self.local);
    }

    /// self *= a (purely local).
    pub fn scale(&mut self, rank: &Rank, a: f64) {
        let k = rank.kernel("scale");
        k.launch(self.local.len(), cost::blas1(self.local.len(), 2));
        dense::scale(a, &mut self.local);
    }

    /// Gather the full vector on every rank (tests/diagnostics only).
    pub fn to_serial(&self, rank: &Rank) -> Vec<f64> {
        let pieces = rank.allgather(self.local.clone());
        pieces.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm::Comm;

    #[test]
    fn from_fn_and_gather() {
        let out = Comm::run(3, |rank| {
            let dist = RowDist::block(7, 3);
            let v = ParVector::from_fn(rank, dist, |g| g as f64 * 2.0);
            v.to_serial(rank)
        });
        for v in out {
            assert_eq!(v, vec![0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]);
        }
    }

    #[test]
    fn dot_and_norm_match_serial() {
        let out = Comm::run(4, |rank| {
            let dist = RowDist::block(10, 4);
            let x = ParVector::from_fn(rank, dist.clone(), |g| g as f64);
            let y = ParVector::from_fn(rank, dist, |_| 1.0);
            (x.dot(rank, &y), x.norm2(rank))
        });
        let expected_dot = 45.0;
        let expected_norm = (0..10).map(|g| (g * g) as f64).sum::<f64>().sqrt();
        for (d, n) in out {
            assert!((d - expected_dot).abs() < 1e-12);
            assert!((n - expected_norm).abs() < 1e-12);
        }
    }

    #[test]
    fn axpy_scale_local() {
        Comm::run(2, |rank| {
            let dist = RowDist::block(4, 2);
            let mut y = ParVector::from_fn(rank, dist.clone(), |_| 1.0);
            let x = ParVector::from_fn(rank, dist, |g| g as f64);
            y.axpy(rank, 2.0, &x);
            y.scale(rank, 0.5);
            let full = y.to_serial(rank);
            assert_eq!(full, vec![0.5, 1.5, 2.5, 3.5]);
        });
    }

    #[test]
    fn zeros_has_distribution_size() {
        Comm::run(3, |rank| {
            let dist = RowDist::block(8, 3);
            let v = ParVector::zeros(rank, dist.clone());
            assert_eq!(v.local.len(), dist.local_n(rank.rank()));
            assert_eq!(v.global_n(), 8);
        });
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn bad_local_length_panics() {
        Comm::run(1, |rank| {
            let dist = RowDist::block(4, 1);
            ParVector::from_local(rank, dist, vec![0.0; 3]);
        });
    }
}
