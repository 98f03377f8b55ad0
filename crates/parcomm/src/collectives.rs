//! Collective operations built on the point-to-point layer.
//!
//! All collectives are bulk-synchronous: every rank must call them in the
//! same order. Internally they move data over reserved tags and record a
//! single `collective` perf event per rank (the `machine` model prices a
//! collective at `log2(P)` alpha-beta steps, which is what a real MPI
//! tree/recursive-doubling implementation costs).

use crate::comm::Rank;
use crate::message::Message;
use crate::perf::TagClass;

impl Rank {
    /// Generic allreduce: combine every rank's `value` with `op`
    /// (associative and commutative) and return the result on all ranks.
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Message + Clone,
        F: Fn(&T, &T) -> T,
    {
        let bytes = value.wire_bytes() as u64;
        self.collective_scope("allreduce", || {
            self.record_collective(bytes);
            let tag = self.next_internal_tag();
            // Gather to rank 0, reduce, then broadcast.
            let out = if self.rank() == 0 {
                let mut acc = value;
                for src in 1..self.size() {
                    let v: T = self.recv_internal(src, tag);
                    acc = op(&acc, &v);
                }
                for dst in 1..self.size() {
                    self.send_internal(dst, tag, acc.clone());
                }
                acc
            } else {
                self.send_internal(0, tag, value);
                self.recv_internal(0, tag)
            };
            (out, bytes)
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

    /// Allreduce with `min` on `u64`.
    pub fn allreduce_min(&self, value: u64) -> u64 {
        self.allreduce(value, |a, b| *a.min(b))
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
    pub fn allgather<T: Message + Clone>(&self, value: T) -> Vec<T> {
        let bytes = value.wire_bytes() as u64;
        self.collective_scope("allgather", || {
            self.record_collective(bytes);
            let tag = self.next_internal_tag();
            let out = if self.rank() == 0 {
                let mut all = Vec::with_capacity(self.size());
                all.push(value);
                for src in 1..self.size() {
                    all.push(self.recv_internal(src, tag));
                }
                // Distribute element-wise so `T` itself (not `Vec<T>`) is
                // the only payload type that must implement `Message`.
                for dst in 1..self.size() {
                    for v in &all {
                        self.send_internal(dst, tag, v.clone());
                    }
                }
                all
            } else {
                self.send_internal(0, tag, value);
                (0..self.size()).map(|_| self.recv_internal(0, tag)).collect()
            };
            (out, bytes)
        })
    }

    /// Broadcast `value` from `root` to all ranks. Non-root ranks may pass
    /// `None`.
    ///
    /// # Panics
    ///
    /// Panics if the root passes `None`.
    pub fn broadcast<T: Message + Clone>(&self, root: usize, value: Option<T>) -> T {
        self.collective_scope("broadcast", || {
            let tag = self.next_internal_tag();
            if self.rank() == root {
                let v = value.expect("broadcast root must supply a value");
                let bytes = v.wire_bytes() as u64;
                self.record_collective(bytes);
                for dst in 0..self.size() {
                    if dst != root {
                        self.send_internal(dst, tag, v.clone());
                    }
                }
                (v, bytes)
            } else {
                let v: T = self.recv_internal(root, tag);
                let bytes = v.wire_bytes() as u64;
                self.record_collective(bytes);
                (v, bytes)
            }
        })
    }

    /// Sparse all-to-all exchange: send each `(dst, payload)` pair and
    /// return the `(src, payload)` pairs addressed to this rank, sorted by
    /// source rank. A rank may appear multiple times as destination.
    ///
    /// Mirrors the `MPI_Send`/`MPI_Recv` exchange at the top of the paper's
    /// Algorithms 1 and 2 (the receive counts are established first, like
    /// the paper's `MPI_Allreduce` pre-computation of `nnz_recv`).
    pub fn sparse_exchange<T: Message>(&self, msgs: Vec<(usize, T)>) -> Vec<(usize, T)> {
        // Establish how many messages each rank will receive from each peer.
        let mut counts = vec![0u64; self.size()];
        for (dst, _) in &msgs {
            assert!(*dst < self.size(), "sparse_exchange dst out of range");
            counts[*dst] += 1;
        }
        let all_counts = self.allgather(counts);
        let tag = self.next_internal_tag();
        // Although the exchange rides a reserved tag, it moves *user*
        // payloads — classify its edges as p2p, matching the msgs/msg_bytes
        // accounting below. The latency scope brackets the exchange proper;
        // the counts allgather above is visible separately as "allgather".
        self.classify_tag(tag, TagClass::P2p);
        self.collective_scope("sparse_exchange", || {
            let mut sent_bytes = 0u64;
            for (dst, payload) in msgs {
                sent_bytes += payload.wire_bytes() as u64;
                self.send_internal_recorded(dst, tag, payload);
            }
            let mut received = Vec::new();
            for (src, src_counts) in all_counts.iter().enumerate() {
                let n = src_counts[self.rank()];
                for _ in 0..n {
                    let payload: T = self.recv_internal(src, tag);
                    received.push((src, payload));
                }
            }
            (received, sent_bytes)
        })
    }

    /// Internal send that *is* recorded as point-to-point traffic
    /// (collectives hide their internal sends; sparse exchange is user
    /// traffic in the paper's algorithms).
    fn send_internal_recorded<T: Message>(&self, dst: usize, tag: u32, msg: T) {
        if dst != self.rank() {
            // Count via public path by re-using send's recording behaviour:
            // replicate it here because the tag is in the reserved range.
            self.record_p2p(msg.wire_bytes() as u64);
        }
        self.send_internal(dst, tag, msg);
    }

    pub(crate) fn record_p2p(&self, bytes: u64) {
        // Route through the recorder used by `send`.
        self.with_recorder(|rec| rec.message(bytes));
    }
}

#[cfg(test)]
mod tests {
    use crate::Comm;

    #[test]
    fn allreduce_sum_matches() {
        for n in [1, 2, 3, 7] {
            let out = Comm::run(n, |rank| rank.allreduce_sum((rank.rank() + 1) as u64));
            let expected = (n * (n + 1) / 2) as u64;
            assert!(out.iter().all(|&v| v == expected), "n={n}");
        }
    }

    #[test]
    fn allreduce_max_min() {
        let out = Comm::run(5, |rank| {
            let mx = rank.allreduce_max_f64(rank.rank() as f64 * 10.0);
            let mn = rank.allreduce_min(rank.rank() as u64 * 10 + 3);
            (mx, mn)
        });
        assert!(out.iter().all(|&(mx, mn)| mx == 40.0 && mn == 3));
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
    fn broadcast_from_nonzero_root() {
        let out = Comm::run(4, |rank| {
            let v = if rank.rank() == 2 {
                Some(vec![1.5f64, 2.5])
            } else {
                None
            };
            rank.broadcast(2, v)
        });
        assert!(out.iter().all(|v| v == &vec![1.5, 2.5]));
    }

    #[test]
    fn sparse_exchange_round_trip() {
        // Every rank sends its id to every other rank; everyone receives
        // size-1 messages, sorted by source.
        let n = 4;
        let out = Comm::run(n, |rank| {
            let msgs: Vec<(usize, u64)> = (0..n)
                .filter(|&d| d != rank.rank())
                .map(|d| (d, rank.rank() as u64))
                .collect();
            rank.sparse_exchange(msgs)
        });
        for (r, received) in out.iter().enumerate() {
            let srcs: Vec<usize> = received.iter().map(|(s, _)| *s).collect();
            let expected: Vec<usize> = (0..n).filter(|&s| s != r).collect();
            assert_eq!(srcs, expected);
            assert!(received.iter().all(|&(s, v)| v == s as u64));
        }
    }

    #[test]
    fn sparse_exchange_multiple_to_same_dst() {
        let out = Comm::run(2, |rank| {
            let msgs = if rank.rank() == 0 {
                vec![(1usize, 7u64), (1, 8), (1, 9)]
            } else {
                vec![]
            };
            rank.sparse_exchange(msgs)
        });
        let vals: Vec<u64> = out[1].iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, vec![7, 8, 9]);
        assert!(out[0].is_empty());
    }

    #[test]
    fn sparse_exchange_self_messages() {
        let out = Comm::run(2, |rank| {
            rank.sparse_exchange(vec![(rank.rank(), rank.rank() as u64 + 100)])
        });
        assert_eq!(out[0], vec![(0, 100)]);
        assert_eq!(out[1], vec![(1, 101)]);
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
            // No telemetry on these threads → no clocks → no latency samples.
            assert_eq!(kinds["allreduce"].latency.count(), 0);
        }
    }

    #[test]
    fn collective_latency_sampled_when_telemetry_enabled() {
        let out = Comm::run(2, |rank| {
            let tel = telemetry::Telemetry::enabled(rank.rank());
            let _guard = tel.install();
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
    fn sparse_exchange_edges_are_p2p_class() {
        use crate::perf::TagClass;
        let out = Comm::run(2, |rank| {
            let msgs = if rank.rank() == 0 { vec![(1usize, 7u64)] } else { vec![] };
            rank.sparse_exchange(msgs);
            rank.with_recorder(|rec| rec.edges.clone())
        });
        // The payload edge is p2p; the counts allgather stays collective.
        assert_eq!(out[0][&(0, 1, TagClass::P2p)].bytes, 8);
        assert_eq!(out[1][&(0, 1, TagClass::P2p)].bytes, 8);
        assert!(out[0].keys().any(|&(_, _, c)| c == TagClass::Collective));
    }

    #[test]
    fn collectives_record_events() {
        let (_, traces) = Comm::run_traced(2, |rank| {
            rank.allreduce_sum(1);
            rank.allgather(1u64);
            rank.broadcast(0, Some(1u64));
        });
        for t in &traces {
            assert_eq!(t.total().collectives, 3);
        }
        // Internal collective messages must not be counted as p2p traffic.
        assert_eq!(traces[0].total().msgs, 0);
    }
}
