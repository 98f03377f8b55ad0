//! Collective operations built on the point-to-point layer.
//!
//! All collectives are bulk-synchronous: every rank must call them in the
//! same order. Internally they move data over reserved tags and record a
//! single `collective` perf event per rank.
//!
//! `allreduce` and `allgather` are one hop: every rank sends its own
//! contribution straight to each of the other P−1 ranks and receives one
//! from each, so a call costs one message latency and P−1 sends per rank
//! — nothing is relayed through a root. `allreduce` then folds the P
//! contributions in rank order on every rank, so every rank computes
//! the same bits. That is P(P−1) messages in all, against 2(P−1) for a
//! relay through rank 0, so where ranks far outnumber cores (16–32
//! in-process ranks on two) a call costs more, not less
//! (EXPERIMENTS.md, "one-hop collectives"). The `machine` model still
//! prices a collective at `log2(P)` alpha-beta steps, which is what a
//! real MPI tree/recursive-doubling implementation costs.
//!
//! `barrier` is the same hop with an empty payload, so every global
//! synchronisation takes one code path on both transports: a barrier
//! message is kept apart from user messages by its internal tag, and a
//! peer that dies before it fails the survivors' receive at once.

use crate::comm::Rank;
use crate::message::Message;

impl Rank {
    /// Generic allreduce: combine every rank's `value` with `op` and
    /// return the result on all ranks.
    ///
    /// One hop (see the module docs). Every rank folds the contributions
    /// `v_0 … v_{P−1}` in rank order — `acc = v_0`, then
    /// `acc = op(&acc, &v_r)` for `r = 1 … P−1` — so the result is the
    /// same bits on every rank, NaN payloads and −0.0 included, and `op`
    /// need not be associative or commutative for the ranks to agree.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Message + Clone,
        F: Fn(&T, &T) -> T,
    {
        let bytes = value.wire_bytes() as u64;
        self.collective_scope("allreduce", || {
            self.record_collective(bytes);
            let out = self.exchange_with_all(value).into_iter().reduce(|acc, v| op(&acc, &v));
            (out.expect("a communicator has at least one rank"), bytes)
        })
    }

    /// Allreduce with `+` on `u64`.
    pub fn allreduce_sum(&self, value: u64) -> u64 {
        self.allreduce(value, |a, b| a + b)
    }

    /// Allreduce with `+` on `f64`.
    pub fn allreduce_sum_f64(&self, value: f64) -> f64 {
        self.allreduce(value, |a, b| a + b)
    }

    /// Allreduce with `max` on `f64`.
    pub fn allreduce_max_f64(&self, value: f64) -> f64 {
        self.allreduce(value, |a, b| a.max(*b))
    }

    /// Element-wise sum allreduce over equal-length `f64` vectors.
    ///
    /// # Panics
    ///
    /// Panics if vector lengths differ across ranks.
    pub fn allreduce_vec_sum(&self, value: Vec<f64>) -> Vec<f64> {
        self.allreduce(value, |a, b| {
            assert_eq!(a.len(), b.len(), "allreduce_vec_sum length mismatch");
            a.iter().zip(b).map(|(x, y)| x + y).collect()
        })
    }

    /// Gather one value from every rank onto all ranks, indexed by rank.
    ///
    /// One hop (see the module docs): P−1 sends per rank, each peer's
    /// value received straight from that peer.
    pub fn allgather<T: Message + Clone>(&self, value: T) -> Vec<T> {
        let bytes = value.wire_bytes() as u64;
        self.collective_scope("allgather", || {
            self.record_collective(bytes);
            (self.exchange_with_all(value), bytes)
        })
    }

    /// Synchronize all ranks: the one hop with an empty payload. No rank
    /// returns before every rank has entered.
    ///
    /// # Panics
    ///
    /// Panics at once if a peer is gone, like every collective.
    pub fn barrier(&self) {
        self.collective_scope("barrier", || {
            self.record_collective(0);
            self.exchange_with_all(());
            ((), 0)
        })
    }

    /// The one hop under `allreduce`, `allgather` and `barrier`: send
    /// `value` to every other rank on a fresh internal tag, then receive
    /// one value from each peer. Returns the P values indexed by rank;
    /// this rank's own goes into its slot without a message.
    fn exchange_with_all<T: Message + Clone>(&self, value: T) -> Vec<T> {
        let (me, size) = (self.rank(), self.size());
        let tag = self.next_internal_tag();
        for dst in (0..size).filter(|&dst| dst != me) {
            self.send_internal(dst, tag, value.clone());
        }
        let mut all: Vec<T> = Vec::with_capacity(size);
        all.extend((0..me).map(|src| self.recv_internal::<T>(src, tag)));
        all.push(value);
        all.extend((me + 1..size).map(|src| self.recv_internal::<T>(src, tag)));
        all
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use crate::perf::{EdgeStats, TagClass};
    use crate::transport::TransportKind;
    use crate::Comm;

    const TRANSPORTS: [TransportKind; 2] = [TransportKind::Inproc, TransportKind::Socket];

    /// A sequential left fold of `values` in index (rank) order: what
    /// every rank's allreduce must reproduce bit for bit.
    fn left_fold<T: Clone>(values: &[T], op: impl Fn(&T, &T) -> T) -> T {
        values[1..].iter().fold(values[0].clone(), |acc, v| op(&acc, v))
    }

    #[test]
    fn allreduce_folds_every_contribution_in_rank_order_bitwise() {
        // Order-sensitive sums: 1e16 + 1.0 rounds the 1.0 away, so any
        // other association or order of these terms gives other bits.
        let scalar = |r: usize| match r {
            0 => 1e16,
            1 => 1.0,
            2 => -1e16,
            _ => 0.1 * r as f64,
        };
        // −0.0 on every rank (stays −0.0 only if no +0.0 joins), −0.0 on
        // rank 0 only, subnormals, and one NaN with a payload (a single
        // one: two NaNs meeting in an add pick a payload the compiler
        // may choose).
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let vector = |r: usize, size: usize| {
            vec![
                -0.0,
                if r == 0 { -0.0 } else { 0.0 },
                f64::from_bits(r as u64 + 1),
                f64::MIN_POSITIVE / (r as f64 + 3.0),
                if r == size - 1 { nan } else { r as f64 * 0.3 },
            ]
        };
        // Not commutative: the result pins the rank order.
        let horner = |a: &u64, b: &u64| a.wrapping_mul(31).wrapping_add(*b);
        let tag = |r: usize| (r as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for kind in TRANSPORTS {
            for size in [1, 2, 3, 4, 7] {
                let out = Comm::run_with(kind, size, |rank| {
                    let r = rank.rank();
                    (
                        rank.allreduce_sum_f64(scalar(r)),
                        rank.allreduce_vec_sum(vector(r, size)),
                        rank.allreduce(tag(r), horner),
                        rank.allgather(scalar(r)),
                    )
                });
                let scalars: Vec<f64> = (0..size).map(scalar).collect();
                let vectors: Vec<Vec<f64>> = (0..size).map(|r| vector(r, size)).collect();
                let tags: Vec<u64> = (0..size).map(tag).collect();
                let sum = left_fold(&scalars, |a, b| a + b).to_bits();
                let vec_sum: Vec<u64> = left_fold(&vectors, |a, b| {
                    a.iter().zip(b).map(|(x, y)| x + y).collect()
                })
                .iter()
                .map(|x| x.to_bits())
                .collect();
                let folded = left_fold(&tags, horner);
                let gathered: Vec<u64> = scalars.iter().map(|x| x.to_bits()).collect();
                for (r, (s, v, h, g)) in out.iter().enumerate() {
                    let ctx = format!("{kind:?}, P = {size}, rank {r}");
                    assert_eq!(s.to_bits(), sum, "{ctx}: allreduce_sum_f64");
                    let v: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(v, vec_sum, "{ctx}: allreduce_vec_sum");
                    assert_eq!(*h, folded, "{ctx}: non-commutative allreduce");
                    let g: Vec<u64> = g.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(g, gathered, "{ctx}: allgather");
                }
            }
        }
    }

    #[test]
    fn allreduce_and_allgather_are_one_hop_with_no_relay() {
        const P: usize = 3;
        const N: usize = 5;
        for kind in TRANSPORTS {
            // The recorder's `coll` edges of one collective of an
            // N-element vector, on every rank.
            let reduce = Comm::run_with(kind, P, |rank| {
                rank.allreduce_vec_sum(vec![rank.rank() as f64; N]);
                rank.with_recorder(|rec| rec.edges.clone())
            });
            let gather = Comm::run_with(kind, P, |rank| {
                rank.allgather(vec![rank.rank() as f64; N]);
                rank.with_recorder(|rec| rec.edges.clone())
            });
            let one = EdgeStats { msgs: 1, bytes: 8 * N as u64 };
            for (what, out) in [("allreduce", reduce), ("allgather", gather)] {
                for (me, edges) in out.iter().enumerate() {
                    for (&(src, dst, class), stats) in edges {
                        assert_eq!(class, TagClass::Collective, "{kind:?} {what}");
                        assert!(src == me || dst == me, "{kind:?} {what}: ({src}, {dst})");
                        // One message each way per peer: nothing relayed.
                        assert_eq!(*stats, one, "{kind:?} {what}: rank {me}, ({src}, {dst})");
                    }
                    let sent: Vec<usize> =
                        edges.keys().filter(|k| k.0 == me).map(|k| k.1).collect();
                    let peers: Vec<usize> = (0..P).filter(|&p| p != me).collect();
                    assert_eq!(sent, peers, "{kind:?} {what}: rank {me} sends to every peer");
                    assert_eq!(edges.len(), 2 * (P - 1), "{kind:?} {what}: rank {me}");
                }
            }
        }
    }

    #[test]
    fn allreduce_with_a_dead_peer_fails_at_once_and_the_first_panic_is_raised() {
        for kind in TRANSPORTS {
            let t0 = Instant::now();
            let raised = std::panic::catch_unwind(|| {
                Comm::run_with(kind, 3, |rank| {
                    if rank.rank() == 2 {
                        panic!("rank 2 dies before the allreduce");
                    }
                    rank.allreduce_sum(1);
                })
            });
            let payload = raised.expect_err("the death fails the run");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"rank 2 dies before the allreduce"),
                "{kind:?}"
            );
            assert!(t0.elapsed() < Duration::from_secs(5), "{kind:?} took {:?}", t0.elapsed());
        }
    }

    /// Rank 2 dies before the barrier: the survivors' receives from it
    /// fail at once on both transports, and the run re-raises rank 2's
    /// panic, the first one.
    #[test]
    fn barrier_with_a_dead_peer_fails_at_once_and_the_first_panic_is_raised() {
        for kind in TRANSPORTS {
            let t0 = Instant::now();
            let raised = std::panic::catch_unwind(|| {
                Comm::run_with(kind, 3, |rank| {
                    if rank.rank() == 2 {
                        panic!("rank 2 dies before the barrier");
                    }
                    rank.barrier();
                })
            });
            let payload = raised.expect_err("the death fails the run");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"rank 2 dies before the barrier"),
                "{kind:?}"
            );
            assert!(t0.elapsed() < Duration::from_secs(5), "{kind:?} took {:?}", t0.elapsed());
        }
    }

    #[test]
    fn allreduce_sum_matches() {
        for n in [1, 2, 3, 7] {
            let out = Comm::run(n, |rank| rank.allreduce_sum((rank.rank() + 1) as u64));
            let expected = (n * (n + 1) / 2) as u64;
            assert!(out.iter().all(|&v| v == expected), "n={n}");
        }
    }

    #[test]
    fn allreduce_max() {
        let out = Comm::run(5, |rank| rank.allreduce_max_f64(rank.rank() as f64 * 10.0));
        assert!(out.iter().all(|&mx| mx == 40.0));
    }

    #[test]
    fn allreduce_vec_sum_elementwise() {
        let out = Comm::run(3, |rank| {
            rank.allreduce_vec_sum(vec![rank.rank() as f64, 1.0])
        });
        assert!(out.iter().all(|v| v == &vec![3.0, 3.0]));
    }

    #[test]
    fn allgather_orders_by_rank() {
        let out = Comm::run(4, |rank| rank.allgather(rank.rank() as u64 * 2));
        assert!(out.iter().all(|v| v == &vec![0, 2, 4, 6]));
    }

    #[test]
    fn collective_kinds_count_without_clocks() {
        let out = Comm::run(2, |rank| {
            rank.allreduce_sum(1);
            rank.allgather(1u64);
            rank.barrier();
            rank.with_recorder(|rec| rec.coll_kinds.clone())
        });
        for kinds in &out {
            assert_eq!(kinds["allreduce"].count, 1);
            assert_eq!(kinds["allreduce"].bytes, 8);
            assert_eq!(kinds["allgather"].count, 1);
            assert_eq!(kinds["barrier"].count, 1);
            // No telemetry on these ranks → no clocks → no latency samples.
            assert_eq!(kinds["allreduce"].latency.count(), 0);
        }
    }

    #[test]
    fn collective_latency_sampled_when_telemetry_enabled() {
        let out = Comm::run(2, |rank| {
            rank.set_telemetry(telemetry::Telemetry::enabled(rank.rank()));
            rank.allreduce_sum(1);
            rank.allreduce_sum(2);
            rank.with_recorder(|rec| rec.coll_kinds.clone())
        });
        for kinds in &out {
            let s = &kinds["allreduce"];
            assert_eq!(s.count, 2);
            assert_eq!(s.latency.count(), 2);
        }
    }

    #[test]
    fn collectives_record_events() {
        let (_, traces) = Comm::run_traced(2, |rank| {
            rank.allreduce_sum(1);
            rank.allgather(1u64);
            rank.barrier();
        });
        for t in &traces {
            assert_eq!(t.total().collectives, 3);
        }
        // Internal collective messages must not be counted as p2p traffic.
        assert_eq!(traces[0].total().msgs, 0);
    }
}
