//! Coordinate-format sparse matrices with global (u64) indices.
//!
//! The Nalu-Wind local assembly (§3.2 of the paper) produces row-major
//! sorted, duplicate-free COO matrices for both owned and shared rows;
//! this type is that product, and its `sort_and_combine` is the
//! `stable_sort_by_key` + `reduce_by_key` pipeline of Algorithm 1.

use crate::prims;

/// A COO (triplet) matrix with global row/column ids.
///
/// Invariants are *not* enforced on push; call [`Coo::sort_and_combine`]
/// to obtain the row-major sorted, duplicate-free form.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Coo {
    /// Global row ids.
    pub rows: Vec<u64>,
    /// Global column ids.
    pub cols: Vec<u64>,
    /// Values.
    pub vals: Vec<f64>,
}

impl Coo {
    /// Empty COO matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty COO matrix with reserved capacity.
    pub fn with_capacity(nnz: usize) -> Self {
        Coo {
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    /// Append one entry (duplicates allowed; they sum on combine).
    pub fn push(&mut self, row: u64, col: u64, val: f64) {
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Number of stored entries (including not-yet-combined duplicates).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append all entries of `other`.
    pub fn extend(&mut self, other: &Coo) {
        self.rows.extend_from_slice(&other.rows);
        self.cols.extend_from_slice(&other.cols);
        self.vals.extend_from_slice(&other.vals);
    }

    /// Row-major stable sort followed by summation of duplicate (i, j)
    /// entries — `stable_sort_by_key` + `reduce_by_key` of Algorithm 1.
    pub fn sort_and_combine(&mut self) {
        let mut keys: Vec<(u64, u64)> = self.rows.iter().zip(&self.cols).map(|(&r, &c)| (r, c)).collect();
        prims::stable_sort_by_key(&mut keys, &mut self.vals);
        let (keys, vals) = prims::reduce_by_key(&keys, &self.vals);
        self.rows = keys.iter().map(|&(r, _)| r).collect();
        self.cols = keys.iter().map(|&(_, c)| c).collect();
        self.vals = vals;
    }

    /// True when entries are row-major sorted with no duplicate (i, j).
    pub fn is_sorted_and_combined(&self) -> bool {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(self.rows.iter().skip(1).zip(self.cols.iter().skip(1)))
            .all(|((&r0, &c0), (&r1, &c1))| (r0, c0) < (r1, c1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_combine_duplicates() {
        let mut a = Coo::new();
        a.push(1, 2, 1.0);
        a.push(0, 0, 5.0);
        a.push(1, 2, 2.5);
        a.push(1, 0, -1.0);
        a.sort_and_combine();
        assert_eq!(a.rows, vec![0, 1, 1]);
        assert_eq!(a.cols, vec![0, 0, 2]);
        assert_eq!(a.vals, vec![5.0, -1.0, 3.5]);
        assert!(a.is_sorted_and_combined());
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Coo { rows: vec![0], cols: vec![0], vals: vec![1.0] };
        let b = Coo { rows: vec![0], cols: vec![0], vals: vec![2.0] };
        a.extend(&b);
        assert_eq!(a.len(), 2);
        a.sort_and_combine();
        assert_eq!(a.vals, vec![3.0]);
    }

    #[test]
    fn unsorted_is_detected() {
        let a = Coo { rows: vec![1, 0], cols: vec![0, 0], vals: vec![1.0, 1.0] };
        assert!(!a.is_sorted_and_combined());
    }

    #[test]
    fn empty_is_sorted() {
        assert!(Coo::new().is_sorted_and_combined());
        assert!(Coo::new().is_empty());
    }
}
