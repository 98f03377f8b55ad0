//! 1-D block-row distributions.

use std::ops::Range;

use parcomm::Rank;

/// Describes which rank owns each contiguous block of global row ids:
/// rank `r` owns `starts[r]..starts[r+1]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowDist {
    starts: Vec<u64>,
}

impl RowDist {
    /// Build from explicit block starts (length = nranks + 1, monotone).
    ///
    /// # Panics
    ///
    /// Panics if `starts` is not monotone non-decreasing or has < 2 entries.
    pub fn from_starts(starts: Vec<u64>) -> Self {
        assert!(starts.len() >= 2, "need at least one rank");
        assert!(
            starts.windows(2).all(|w| w[0] <= w[1]),
            "starts must be monotone"
        );
        RowDist { starts }
    }

    /// Build collectively from each rank's local row count.
    pub fn from_local_size(rank: &Rank, local_n: usize) -> Self {
        let counts = rank.allgather(local_n as u64);
        let mut starts = Vec::with_capacity(counts.len() + 1);
        let mut acc = 0;
        starts.push(0);
        for c in counts {
            acc += c;
            starts.push(acc);
        }
        RowDist { starts }
    }

    /// Split `n` rows over `p` ranks as evenly as possible (remainder goes
    /// to the first ranks).
    pub fn block(n: u64, p: usize) -> Self {
        let base = n / p as u64;
        let rem = n % p as u64;
        let mut starts = Vec::with_capacity(p + 1);
        let mut acc = 0;
        starts.push(0);
        for r in 0..p as u64 {
            acc += base + u64::from(r < rem);
            starts.push(acc);
        }
        RowDist { starts }
    }

    /// Number of ranks.
    pub fn nranks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of global rows.
    pub fn global_n(&self) -> u64 {
        *self.starts.last().unwrap()
    }

    /// First global row owned by `rank`.
    pub fn start(&self, rank: usize) -> u64 {
        self.starts[rank]
    }

    /// One past the last global row owned by `rank`.
    pub fn end(&self, rank: usize) -> u64 {
        self.starts[rank + 1]
    }

    /// Number of rows owned by `rank`.
    pub fn local_n(&self, rank: usize) -> usize {
        (self.end(rank) - self.start(rank)) as usize
    }

    /// Owner rank of global row `gid` (binary search).
    ///
    /// # Panics
    ///
    /// Panics if `gid >= global_n()`.
    pub fn owner(&self, gid: u64) -> usize {
        assert!(gid < self.global_n(), "gid {gid} out of range");
        // partition_point returns the first index with starts[i] > gid;
        // the owner is that index - 1.
        self.starts.partition_point(|&s| s <= gid) - 1
    }

    /// Convert a global id owned by `rank` to a local index.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is not owned by `rank`.
    pub fn to_local(&self, rank: usize, gid: u64) -> usize {
        assert!(
            gid >= self.start(rank) && gid < self.end(rank),
            "gid {gid} not owned by rank {rank}"
        );
        (gid - self.start(rank)) as usize
    }

    /// The `(owner, range)` runs of a list of global ids whose owners
    /// are non-decreasing (a sorted list, say): `ids[range]` are exactly
    /// the ids `owner` owns, one run per owner, ascending.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range; debug builds also if the owners
    /// decrease.
    pub(crate) fn owner_runs(&self, ids: impl IntoIterator<Item = u64>) -> Vec<(usize, Range<usize>)> {
        let mut runs: Vec<(usize, Range<usize>)> = Vec::new();
        for (k, gid) in ids.into_iter().enumerate() {
            let owner = self.owner(gid);
            match runs.last_mut() {
                Some((o, range)) if *o == owner => range.end = k + 1,
                last => {
                    debug_assert!(last.is_none_or(|(o, _)| *o < owner), "owners decrease");
                    runs.push((owner, k..k + 1));
                }
            }
        }
        runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm::Comm;

    #[test]
    fn block_distribution_splits_remainder() {
        let d = RowDist::block(10, 3);
        assert_eq!(d.local_n(0), 4);
        assert_eq!(d.local_n(1), 3);
        assert_eq!(d.local_n(2), 3);
        assert_eq!(d.global_n(), 10);
        assert_eq!(d.nranks(), 3);
    }

    #[test]
    fn owner_lookup() {
        let d = RowDist::from_starts(vec![0, 4, 4, 10]);
        assert_eq!(d.owner(0), 0);
        assert_eq!(d.owner(3), 0);
        assert_eq!(d.owner(4), 2); // rank 1 owns nothing
        assert_eq!(d.owner(9), 2);
        assert_eq!(d.local_n(1), 0);
    }

    #[test]
    fn local_global_round_trip() {
        let d = RowDist::block(9, 2);
        for r in 0..2 {
            for l in 0..d.local_n(r) {
                let g = d.start(r) + l as u64;
                assert_eq!(d.owner(g), r);
                assert_eq!(d.to_local(r, g), l);
            }
        }
    }

    #[test]
    fn from_local_size_collective() {
        let dists = Comm::run(3, |rank| RowDist::from_local_size(rank, rank.rank() + 1));
        for d in &dists {
            assert_eq!(d.global_n(), 6);
            assert_eq!(d.local_n(0), 1);
            assert_eq!(d.local_n(2), 3);
        }
        assert_eq!(dists[0], dists[2]);
    }

    #[test]
    fn owner_runs_group_by_owner() {
        let d = RowDist::from_starts(vec![0, 4, 4, 10]);
        assert_eq!(d.owner_runs([0, 3, 4, 9]), vec![(0, 0..2), (2, 2..4)]);
        assert_eq!(d.owner_runs([7]), vec![(2, 0..1)]);
        assert!(d.owner_runs([]).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_out_of_range_panics() {
        RowDist::block(4, 2).owner(4);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn to_local_wrong_rank_panics() {
        RowDist::block(4, 2).to_local(0, 3);
    }
}
