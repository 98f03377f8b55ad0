//! The one neighbour exchange of `distmat`.
//!
//! A [`CommPkg`] is an exchange schedule — what to gather and send to
//! each destination, where each source's message lands — and
//! [`CommPkg::begin`] / [`CommPkg::finish`] are the one split-phase pair
//! that moves values through it, for any element type. Every planned
//! exchange calls that pair: the matrix halo ([`crate::ParCsr`] shares
//! its pattern's [`Halo`]), AMG setup's point exchanges (states,
//! weights, coarse numberings, over a matrix's halo or one of their
//! own) and the assembly-plan replays ([`crate::AssemblyPlan`],
//! [`crate::VectorPlan`]).

use std::ops::Range;

use parcomm::{FaultKind, Message, Rank, Tag, TagClass};
use resilience::SolveError;

use crate::dist::{owner_requests, RowDist};

/// Exchange schedule: who sends what to whom, and where it lands.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommPkg {
    /// `(dst rank, local ids to gather and send)`, sorted by rank.
    pub sends: Vec<(usize, Vec<usize>)>,
    /// `(src rank, range of the receive buffer its message fills)`,
    /// sorted by rank; the ranges tile `0..n_recv()` in order.
    pub recvs: Vec<(usize, Range<usize>)>,
}

impl CommPkg {
    /// The halo of an external id list (sorted, none owned here): each
    /// owner's run of `ids` is received from it, and what to send is
    /// learned by telling the owners what we need. Collective.
    pub(crate) fn pull(rank: &Rank, dist: &RowDist, ids: &[u64]) -> CommPkg {
        let me = rank.rank();
        let recvs = dist.owner_runs(ids.iter().copied());
        let requests = owner_requests(me, &recvs, ids);
        let sends = rank
            .sparse_exchange(requests)
            .into_iter()
            .map(|(src, gids)| (src, gids.iter().map(|&g| dist.to_local(me, g)).collect()))
            .collect();
        CommPkg { sends, recvs }
    }

    /// The reverse: send item `k` of a list whose `ids` (none owned here)
    /// have non-decreasing owners to the owner of `ids[k]`, gathering it
    /// from local position `gather(k)`; what to receive is learned with
    /// one count allgather. Collective.
    pub(crate) fn push(
        rank: &Rank,
        dist: &RowDist,
        ids: impl IntoIterator<Item = u64>,
        gather: impl Fn(usize) -> usize,
    ) -> CommPkg {
        let runs = dist.owner_runs(ids);
        let mut counts = vec![0u64; rank.size()];
        for (dst, range) in &runs {
            assert_ne!(*dst, rank.rank(), "own id listed for an owner");
            counts[*dst] = range.len() as u64;
        }
        let mut recvs = Vec::new();
        let mut at = 0;
        for (src, row) in rank.allgather(counts).iter().enumerate() {
            let n = row[rank.rank()] as usize;
            if n > 0 {
                recvs.push((src, at..at + n));
                at += n;
            }
        }
        let sends = runs.into_iter().map(|(dst, range)| (dst, range.map(&gather).collect())).collect();
        CommPkg { sends, recvs }
    }

    /// Total number of values received.
    pub fn n_recv(&self) -> usize {
        self.recvs.last().map_or(0, |(_, r)| r.end)
    }

    /// Total number of values sent.
    pub fn n_send(&self) -> usize {
        self.sends.iter().map(|(_, s)| s.len()).sum()
    }

    /// First half of an exchange: gather `local[id]` for every send id
    /// and post one message per destination on `tag`. The receives stay
    /// outstanding until [`CommPkg::finish`], so local work placed in
    /// between overlaps the messages in flight.
    pub fn begin<T: Message + Copy>(&self, rank: &Rank, tag: Tag, local: &[T]) {
        for (dst, ids) in &self.sends {
            let buf: Vec<T> = ids.iter().map(|&i| local[i]).collect();
            rank.send(*dst, tag, buf);
        }
    }

    /// Second half: receive one message per source on `tag` and append
    /// it to `out`, so each lands at its range offset by `out`'s length
    /// on entry (the caller's own values may come first; nothing is
    /// zero-filled). A timeout or wrong payload type is a
    /// [`SolveError::Comm`]; a message of the wrong length is handed to
    /// `mismatch` as `(src, expected, got)`, whose error is returned.
    pub fn finish<T: Message + Copy>(
        &self,
        rank: &Rank,
        tag: Tag,
        out: &mut Vec<T>,
        mismatch: impl Fn(usize, usize, usize) -> SolveError,
    ) -> Result<(), SolveError> {
        out.reserve(self.n_recv());
        for (src, range) in &self.recvs {
            let buf: Vec<T> = rank.try_recv(*src, tag)?;
            if buf.len() != range.len() {
                return Err(mismatch(*src, range.len(), buf.len()));
            }
            out.extend_from_slice(&buf);
        }
        Ok(())
    }
}

/// The `socket-drop` fault hook, before any send of an exchange: the
/// whole exchange aborts as a vanished peer would make it (see
/// `FaultKind::SocketDrop`), so a retry finds no stale message in flight.
pub(crate) fn socket_drop_hook(rank: &Rank) -> Result<(), SolveError> {
    if rank.fault(FaultKind::SocketDrop) {
        return Err(SolveError::Comm {
            detail: format!("injected socket drop in {}", rank.phase_name()),
        });
    }
    Ok(())
}

/// Per-point values a [`Halo`] moves.
pub trait HaloValue: Message + Copy {
    /// What the `halo-nan` fault hook plants in the first external value
    /// — `None` for values that cannot hold a NaN, whose exchanges do
    /// not host the hook.
    const POISON: Option<Self>;
}

impl HaloValue for f64 {
    const POISON: Option<f64> = Some(f64::NAN);
}

impl HaloValue for u64 {
    const POISON: Option<u64> = None;
}

/// A halo: an external column map, the [`CommPkg`] that fills it and a
/// dedicated tag (a per-object "communicator"). A matrix and every
/// matrix of its pattern share one; AMG setup exchanges per-point
/// values over it, or over one of its own for another column set.
#[derive(Debug)]
pub struct Halo {
    col_map: Vec<u64>,
    pkg: CommPkg,
    tag: Tag,
}

impl Halo {
    /// Build for a sorted, deduplicated list of external global ids, none
    /// of which may be owned by this rank. Collective.
    pub fn new(rank: &Rank, dist: &RowDist, col_map: Vec<u64>) -> Self {
        debug_assert!(col_map.windows(2).all(|w| w[0] < w[1]), "col_map unsorted");
        let pkg = CommPkg::pull(rank, dist, &col_map);
        Halo {
            col_map,
            pkg,
            tag: rank.alloc_tag_for(TagClass::Halo),
        }
    }

    /// The external global ids, in exchange order.
    pub fn col_map(&self) -> &[u64] {
        &self.col_map
    }

    /// The exchange schedule.
    pub fn comm_pkg(&self) -> &CommPkg {
        &self.pkg
    }

    /// Exchange per-point values: returns the external values aligned
    /// with `col_map`. Collective among neighbours.
    ///
    /// # Panics
    ///
    /// Panics on a corrupted exchange; see [`Halo::try_exchange`].
    pub fn exchange<T: HaloValue>(&self, rank: &Rank, local: &[T]) -> Vec<T> {
        self.try_exchange(rank, local).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Halo::exchange`] with decode failures (timeout, payload type,
    /// payload length) surfaced as a typed [`SolveError`]. Hosts the
    /// `socket-drop` fault hook, and `halo-nan` for `f64` values.
    pub fn try_exchange<T: HaloValue>(&self, rank: &Rank, local: &[T]) -> Result<Vec<T>, SolveError> {
        socket_drop_hook(rank)?;
        self.begin(rank, local);
        self.try_finish(rank)
    }

    /// [`CommPkg::begin`] on this halo's tag.
    pub(crate) fn begin<T: HaloValue>(&self, rank: &Rank, local: &[T]) {
        self.pkg.begin(rank, self.tag, local);
    }

    /// [`CommPkg::finish`] into a fresh external vector: a wrong payload
    /// length is a [`SolveError::HaloCorruption`]. Hosts the `halo-nan`
    /// hook for values with a [`HaloValue::POISON`]: with a matching spec
    /// armed, the first external value is flipped after unpack, exactly
    /// as a corrupted wire payload would arrive.
    pub(crate) fn try_finish<T: HaloValue>(&self, rank: &Rank) -> Result<Vec<T>, SolveError> {
        let mut ext = Vec::with_capacity(self.col_map.len());
        self.pkg.finish(rank, self.tag, &mut ext, |src, expected, got| SolveError::HaloCorruption {
            context: rank.phase_name(),
            src,
            detail: format!("expected {expected} values, got {got}"),
        })?;
        if let Some(poison) = T::POISON {
            if !ext.is_empty() && rank.fault(FaultKind::HaloNan) {
                ext[0] = poison;
            }
        }
        Ok(ext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parcomm::Comm;

    #[test]
    fn exchange_pulls_owned_values() {
        // 3 ranks × 2 rows each; every rank asks for the first row of the
        // next rank.
        Comm::run(3, |rank| {
            let dist = RowDist::block(6, 3);
            let next = (rank.rank() + 1) % 3;
            let want = vec![dist.start(next)];
            let halo = Halo::new(rank, &dist, want);
            let local: Vec<f64> = (0..2)
                .map(|l| (dist.start(rank.rank()) + l) as f64 * 10.0)
                .collect();
            let ext = halo.exchange(rank, &local);
            assert_eq!(ext, vec![dist.start(next) as f64 * 10.0]);

            let local_u: Vec<u64> = local.iter().map(|&v| v as u64).collect();
            let ext_u = halo.exchange(rank, &local_u);
            assert_eq!(ext_u, vec![dist.start(next) * 10]);
        });
    }

    #[test]
    fn empty_halo_is_fine() {
        Comm::run(2, |rank| {
            let dist = RowDist::block(4, 2);
            let halo = Halo::new(rank, &dist, vec![]);
            let ext = halo.exchange(rank, &[1.0, 2.0]);
            assert!(ext.is_empty());
        });
    }

    #[test]
    fn asymmetric_requests() {
        // Only rank 0 requests; rank 1 requests nothing.
        Comm::run(2, |rank| {
            let dist = RowDist::block(4, 2);
            let want = if rank.rank() == 0 { vec![2u64, 3] } else { vec![] };
            let halo = Halo::new(rank, &dist, want);
            let local: Vec<f64> = (0..2)
                .map(|l| (dist.start(rank.rank()) + l) as f64)
                .collect();
            let ext = halo.exchange(rank, &local);
            if rank.rank() == 0 {
                assert_eq!(ext, vec![2.0, 3.0]);
            } else {
                assert!(ext.is_empty());
            }
        });
    }
}
