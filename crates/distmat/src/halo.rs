//! The one neighbour exchange of `distmat`.
//!
//! A [`CommPkg`] is an exchange schedule — what to send to each
//! destination, where each source's message lands — and
//! [`CommPkg::begin`] / [`CommPkg::finish`] are the one split-phase pair
//! that moves messages through it: one per neighbour, whose payload is
//! built from that destination's id list. One value per id
//! ([`CommPkg::begin_values`] / [`CommPkg::finish_values`]) is one
//! instance; whole sparse rows are another. Every planned exchange
//! calls that pair: the matrix halo ([`crate::ParCsr`] shares its
//! pattern's [`Halo`]), AMG setup's point exchanges (states, weights,
//! coarse numberings over a matrix's halo, and PMIS's sums back to the
//! owners over the same schedule reversed), the rows SpGEMM reads over
//! its left operand's halo and the transpose sends back over its
//! operand's, and the assembly-plan replays ([`crate::AssemblyPlan`],
//! [`crate::VectorPlan`]).

use std::ops::Range;

use parcomm::{FaultKind, Message, Rank, Tag, TagClass};
use resilience::SolveError;

use crate::dist::RowDist;

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
    /// The halo of an external id list (sorted, none owned here):
    /// [`CommPkg::push`] run backwards. The ids are pushed to their
    /// owners, each owner sends back, in the order asked, the values
    /// of the ids it was pushed, and each owner's run of `ids` is
    /// received from it. Collective.
    ///
    /// # Panics
    ///
    /// Panics, naming the failure, if the requests do not arrive whole
    /// (a dead peer, a malformed request).
    pub(crate) fn pull(rank: &Rank, dist: &RowDist, ids: &[u64]) -> CommPkg {
        let requests = CommPkg::push(rank, dist, ids.iter().copied(), |k| k);
        let tag = rank.alloc_tag();
        requests.begin_values(rank, tag, ids);
        let mut wanted = Vec::new();
        requests
            .finish_values(rank, tag, &mut wanted, |src, expected, got| corruption(rank, src, expected, got))
            .unwrap_or_else(|e| panic!("halo pull: {e}"));
        let CommPkg { sends, recvs } = requests.reversed();
        let me = rank.rank();
        let sends = sends
            .into_iter()
            .map(|(src, at)| (src, at.iter().map(|&k| dist.to_local(me, wanted[k])).collect()))
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

    /// This schedule run backwards (receive ranges become send lists,
    /// send lists receive ranges, in the same order), built locally with
    /// no message.
    pub(crate) fn reversed(&self) -> CommPkg {
        let sends = self.recvs.iter().map(|(src, range)| (*src, range.clone().collect())).collect();
        let mut at = 0;
        let recvs = self.sends.iter().map(|(dst, ids)| {
            at += ids.len();
            (*dst, at - ids.len()..at)
        });
        CommPkg { sends, recvs: recvs.collect() }
    }

    /// Total number of values received.
    pub fn n_recv(&self) -> usize {
        self.recvs.last().map_or(0, |(_, r)| r.end)
    }

    /// Total number of values sent.
    pub fn n_send(&self) -> usize {
        self.sends.iter().map(|(_, s)| s.len()).sum()
    }

    /// First half of an exchange: post one message per destination on
    /// `tag`, the payload `pack` builds from that destination's send
    /// ids. The receives stay outstanding until [`CommPkg::finish`], so
    /// local work placed in between overlaps the messages in flight.
    pub fn begin<P: Message>(&self, rank: &Rank, tag: Tag, mut pack: impl FnMut(&[usize]) -> P) {
        for (dst, ids) in &self.sends {
            rank.send(*dst, tag, pack(ids));
        }
    }

    /// Second half: receive one message per source on `tag`, in source
    /// order, and hand it to `unpack` with the source and its receive
    /// range. A timeout or wrong payload type is a [`SolveError::Comm`];
    /// an error of `unpack`'s (a payload that does not fit its range)
    /// is returned as it is.
    pub fn finish<P: Message>(
        &self,
        rank: &Rank,
        tag: Tag,
        mut unpack: impl FnMut(usize, Range<usize>, P) -> Result<(), SolveError>,
    ) -> Result<(), SolveError> {
        for (src, range) in &self.recvs {
            let msg: P = rank.try_recv(*src, tag)?;
            unpack(*src, range.clone(), msg)?;
        }
        Ok(())
    }

    /// [`CommPkg::begin`] with one value per id: gather `local[id]` for
    /// every send id.
    pub fn begin_values<T: Message + Copy>(&self, rank: &Rank, tag: Tag, local: &[T]) {
        self.begin(rank, tag, |ids| ids.iter().map(|&i| local[i]).collect::<Vec<T>>());
    }

    /// [`CommPkg::finish`] with one value per id: append each source's
    /// values to `out`, so each lands at its range offset by `out`'s
    /// length on entry (the caller's own values may come first; nothing
    /// is zero-filled). A message of the wrong length is handed to
    /// `mismatch` as `(src, expected, got)`, whose error is returned.
    pub fn finish_values<T: Message + Copy>(
        &self,
        rank: &Rank,
        tag: Tag,
        out: &mut Vec<T>,
        mismatch: impl Fn(usize, usize, usize) -> SolveError,
    ) -> Result<(), SolveError> {
        out.reserve(self.n_recv());
        self.finish(rank, tag, |src, range, buf: Vec<T>| {
            if buf.len() != range.len() {
                return Err(mismatch(src, range.len(), buf.len()));
            }
            out.extend_from_slice(&buf);
            Ok(())
        })
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

/// A halo message of the wrong length, as [`CommPkg::finish_values`]'s
/// `mismatch`.
pub(crate) fn corruption(rank: &Rank, src: usize, expected: usize, got: usize) -> SolveError {
    SolveError::HaloCorruption {
        context: rank.phase_name(),
        src,
        detail: format!("expected {expected} values, got {got}"),
    }
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
/// values over it, in both directions.
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
    /// with `col_map`, or the first decode failure (timeout, payload
    /// type, payload length) as a typed [`SolveError`]. Hosts the
    /// `socket-drop` fault hook, and `halo-nan` for `f64` values.
    /// Collective among neighbours.
    pub fn try_exchange<T: HaloValue>(&self, rank: &Rank, local: &[T]) -> Result<Vec<T>, SolveError> {
        socket_drop_hook(rank)?;
        self.begin(rank, local);
        self.try_finish(rank)
    }

    /// The reverse of [`Halo::try_exchange`]: add `ext[k]` into `local`
    /// at the owner of `col_map[k]`. Runs the halo's schedule backwards
    /// on its tag, whose messages keep their order, so forward and
    /// reverse rounds may alternate. Hosts the `socket-drop` fault hook.
    /// Collective among neighbours.
    pub fn try_sum_to_owners(&self, rank: &Rank, ext: &[u64], local: &mut [u64]) -> Result<(), SolveError> {
        assert_eq!(ext.len(), self.col_map.len(), "one value per external id");
        socket_drop_hook(rank)?;
        let back = self.pkg.reversed();
        back.begin_values(rank, self.tag, ext);
        let mut sums: Vec<u64> = Vec::new();
        back.finish_values(rank, self.tag, &mut sums, |src, expected, got| corruption(rank, src, expected, got))?;
        let owned = self.pkg.sends.iter().flat_map(|(_, ids)| ids);
        owned.zip(sums).for_each(|(&i, v)| local[i] += v);
        Ok(())
    }

    /// The halo's tag: whatever else moves over its schedule, forward
    /// or reversed, rides it too.
    pub(crate) fn tag(&self) -> Tag {
        self.tag
    }

    /// [`CommPkg::begin_values`] on this halo's tag.
    pub(crate) fn begin<T: HaloValue>(&self, rank: &Rank, local: &[T]) {
        self.pkg.begin_values(rank, self.tag, local);
    }

    /// [`CommPkg::finish_values`] into a fresh external vector: a wrong payload
    /// length is a [`SolveError::HaloCorruption`]. Hosts the `halo-nan`
    /// hook for values with a [`HaloValue::POISON`]: with a matching spec
    /// armed, the first external value is flipped after unpack, exactly
    /// as a corrupted wire payload would arrive.
    pub(crate) fn try_finish<T: HaloValue>(&self, rank: &Rank) -> Result<Vec<T>, SolveError> {
        let mut ext = Vec::with_capacity(self.col_map.len());
        self.pkg.finish_values(rank, self.tag, &mut ext, |src, expected, got| corruption(rank, src, expected, got))?;
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
            let ext = halo.try_exchange(rank, &local).unwrap();
            assert_eq!(ext, vec![dist.start(next) as f64 * 10.0]);

            let local_u: Vec<u64> = local.iter().map(|&v| v as u64).collect();
            let ext_u = halo.try_exchange(rank, &local_u).unwrap();
            assert_eq!(ext_u, vec![dist.start(next) * 10]);
        });
    }

    #[test]
    fn empty_halo_is_fine() {
        Comm::run(2, |rank| {
            let dist = RowDist::block(4, 2);
            let halo = Halo::new(rank, &dist, vec![]);
            let ext = halo.try_exchange(rank, &[1.0, 2.0]).unwrap();
            assert!(ext.is_empty());
            let mut local = [5, 6];
            halo.try_sum_to_owners(rank, &[], &mut local).unwrap();
            assert_eq!(local, [5, 6]);
        });
    }

    #[test]
    fn reverse_sum_adds_every_requester_at_the_owner() {
        // 3 ranks × 2 rows each; ranks 1 and 2 both hold id 0 (owned by
        // rank 0) in their halos, rank 2 also id 3 (rank 1's).
        let out = Comm::run(3, |rank| {
            let dist = RowDist::block(6, 3);
            let (want, ext): (Vec<u64>, Vec<u64>) = match rank.rank() {
                0 => (vec![], vec![]),
                1 => (vec![0], vec![10]),
                _ => (vec![0, 3], vec![100, 1000]),
            };
            let halo = Halo::new(rank, &dist, want);
            let mut local = [1, 2];
            halo.try_sum_to_owners(rank, &ext, &mut local).unwrap();
            local
        });
        assert_eq!(out, [[111, 2], [1, 1002], [1, 2]]);
    }

    #[test]
    fn asymmetric_requests() {
        // Rank 0 holds ids 2 and 3, rank 1 holds id 0. Each round pulls
        // the values and pushes them back doubled, so rank 1 sends rank 0
        // a forward message of two values and a reverse one of one value
        // back to back on the halo's tag; taking one for the other is a
        // length error or a wrong sum.
        Comm::run(2, |rank| {
            let dist = RowDist::block(4, 2);
            let me = rank.rank();
            let halo = Halo::new(rank, &dist, if me == 0 { vec![2, 3] } else { vec![0] });
            let mut local: Vec<u64> = (1..3).map(|l| dist.start(me) + l).collect();
            for round in 0..3 {
                let ext = halo.try_exchange(rank, &local).unwrap();
                let want: Vec<u64> = if me == 0 { vec![3, 4] } else { vec![1] };
                assert_eq!(ext, want.iter().map(|v| v * 3u64.pow(round)).collect::<Vec<_>>(), "round {round}");
                let back: Vec<u64> = ext.iter().map(|v| 2 * v).collect();
                halo.try_sum_to_owners(rank, &back, &mut local).unwrap();
            }
            assert_eq!(local, if me == 0 { [27, 2] } else { [81, 108] });
        });
    }

    #[test]
    fn pull_from_two_owners_gets_both_runs_back_in_source_order() {
        // 3 ranks × 2 rows each; rank 0 asks ranks 1 and 2, rank 2 asks
        // ranks 0 and 1, rank 1 asks no one. Each owner's run is
        // received from it, and ranges follow the source ranks.
        let out = Comm::run(3, |rank| {
            let dist = RowDist::block(6, 3);
            let me = rank.rank();
            let want = [vec![2, 3, 4], vec![], vec![1, 3]][me].clone();
            let halo = Halo::new(rank, &dist, want);
            let local: Vec<u64> = (0..2).map(|l| (dist.start(me) + l) * 10).collect();
            (halo.comm_pkg().clone(), halo.try_exchange(rank, &local).unwrap())
        });
        let pkg = |sends: Vec<(usize, Vec<usize>)>, recvs: Vec<(usize, Range<usize>)>| CommPkg { sends, recvs };
        assert_eq!(out[0], (pkg(vec![(2, vec![1])], vec![(1, 0..2), (2, 2..3)]), vec![20, 30, 40]));
        assert_eq!(out[1], (pkg(vec![(0, vec![0, 1]), (2, vec![1])], vec![]), vec![]));
        assert_eq!(out[2], (pkg(vec![(0, vec![0])], vec![(0, 0..1), (1, 1..2)]), vec![10, 30]));
    }

    #[test]
    fn pull_requests_ride_a_p2p_tag_with_one_allgather() {
        // Each rank asks the other for one id: one 8-byte request on a
        // p2p edge and one count allgather, the only collective; the
        // values then move on the halo's own tag.
        let out = Comm::run(2, |rank| {
            let dist = RowDist::block(4, 2);
            let other = 1 - rank.rank();
            let halo = Halo::new(rank, &dist, vec![dist.start(other)]);
            let pulled = rank.telemetry_events();
            halo.try_exchange(rank, &[1.0, 2.0]).unwrap();
            (pulled, rank.telemetry_events())
        });
        for (me, (pulled, exchanged)) in out.iter().enumerate() {
            let edges = |events: &[telemetry::Event]| -> Vec<(String, u64, u64)> {
                let sent = events.iter().filter_map(|e| match e {
                    telemetry::Event::CommEdge { src, class, msgs, bytes, .. } if *src == me => {
                        Some((class.clone(), *msgs, *bytes))
                    }
                    _ => None,
                });
                sent.collect()
            };
            let kinds: Vec<(String, u64)> = pulled
                .iter()
                .filter_map(|e| match e {
                    telemetry::Event::Collective { kind, count, .. } => Some((kind.clone(), *count)),
                    _ => None,
                })
                .collect();
            assert_eq!(kinds, [("allgather".to_string(), 1)], "rank {me}");
            let (request, counts) = (("p2p".to_string(), 1, 8), ("coll".to_string(), 1, 16));
            assert_eq!(edges(pulled), [request.clone(), counts.clone()], "rank {me}");
            assert_eq!(edges(exchanged), [request, ("halo".to_string(), 1, 8), counts], "rank {me}");
        }
    }
}
