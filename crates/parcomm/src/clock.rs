//! Startup clock alignment for cross-rank timelines.
//!
//! Every rank's schema-v5 telemetry timestamps count seconds from its
//! own [`telemetry`] epoch — an arbitrary per-thread instant. To merge
//! per-rank streams onto one timeline, [`Rank::clock_sync`] runs a
//! cheap NTP-style handshake over the existing [`Transport`] seam at
//! startup: each rank exchanges [`CLOCK_PROBES`] probe round-trips with
//! rank 0 and keeps the offset estimate from the minimum-round-trip
//! probe (the classic NTP filter — the shortest round trip has the most
//! symmetric delay, so its offset estimate carries the least error,
//! bounded by rtt/2). Rank 0 then gathers one `(offset, rtt)` pair per
//! rank and broadcasts the full table, so every rank leaves the
//! handshake holding the *same* [`ClockSync`] — which rank 0 records in
//! the stream's `run` event.
//!
//! The handshake is strictly telemetry-gated: with telemetry disabled
//! it returns `None` without reading a clock or moving a byte, so
//! telemetry-off runs remain bitwise identical. The internal tag is
//! still allocated on every rank either way, keeping tag counters
//! aligned across mixed configurations.
//!
//! [`Transport`]: crate::transport::Transport

use crate::comm::Rank;

/// Probe round-trips per rank pair. More probes sharpen the minimum-rtt
/// filter; eight is plenty for loopback/in-process transports where a
/// single probe is already microseconds.
pub const CLOCK_PROBES: usize = 8;

/// The clock-alignment table the handshake produces, identical on every
/// rank. `t_global = t_rank + offsets[rank]` maps rank-local epoch
/// seconds onto rank 0's timeline; `rtts[rank]` is the minimum probe
/// round-trip, bounding the offset error by `rtt / 2`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClockSync {
    pub offsets: Vec<f64>,
    pub rtts: Vec<f64>,
}

impl ClockSync {
    /// The table as `(offsets, rtts)`, the shape
    /// `telemetry::run_info` takes.
    pub fn into_tables(self) -> (Vec<f64>, Vec<f64>) {
        (self.offsets, self.rtts)
    }
}

impl Rank {
    /// Collective clock-alignment handshake (see module docs). Must be
    /// called on every rank of the communicator at the same point; rank
    /// 0 is the time reference. Returns `None` — with no clock read and
    /// no message sent — when telemetry is disabled on this thread.
    pub fn clock_sync(&self) -> Option<ClockSync> {
        // Allocated on all ranks unconditionally so internal-tag
        // counters stay aligned whether or not the handshake runs.
        let tag = self.next_internal_tag();
        let now = telemetry::now_secs;
        now()?;
        let n = self.size();
        let me = self.rank();
        if n == 1 {
            return Some(ClockSync { offsets: vec![0.0], rtts: vec![0.0] });
        }
        if me == 0 {
            // Serve each peer's probes in rank order; a later rank's
            // early probes queue in the pending list and simply read as
            // slow round trips, which the minimum filter discards.
            for r in 1..n {
                for _ in 0..CLOCK_PROBES {
                    let _probe: u64 = self.recv_internal(r, tag);
                    let t2 = now()?;
                    let t3 = now()?;
                    self.send_internal(r, tag, vec![t2, t3]);
                }
            }
            let mut offsets = vec![0.0; n];
            let mut rtts = vec![0.0; n];
            for r in 1..n {
                let est: Vec<f64> = self.recv_internal(r, tag);
                offsets[r] = est[0];
                rtts[r] = est[1];
            }
            let mut table = offsets.clone();
            table.extend_from_slice(&rtts);
            for r in 1..n {
                self.send_internal(r, tag, table.clone());
            }
            Some(ClockSync { offsets, rtts })
        } else {
            let mut best_rtt = f64::INFINITY;
            let mut best_offset = 0.0;
            for i in 0..CLOCK_PROBES {
                let t1 = now()?;
                self.send_internal(0, tag, i as u64);
                let reply: Vec<f64> = self.recv_internal(0, tag);
                let t4 = now()?;
                let (t2, t3) = (reply[0], reply[1]);
                // NTP: offset = rank-0 clock minus this rank's clock at
                // the probe midpoint; rtt excludes rank 0's turnaround.
                let rtt = (t4 - t1) - (t3 - t2);
                if rtt < best_rtt {
                    best_rtt = rtt;
                    best_offset = ((t2 - t1) + (t3 - t4)) / 2.0;
                }
            }
            self.send_internal(0, tag, vec![best_offset, best_rtt.max(0.0)]);
            let table: Vec<f64> = self.recv_internal(0, tag);
            debug_assert_eq!(table.len(), 2 * n);
            Some(ClockSync {
                offsets: table[..n].to_vec(),
                rtts: table[n..].to_vec(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::transport::TransportKind;

    fn sync_all(kind: TransportKind, n: usize) -> Vec<Option<ClockSync>> {
        Comm::run_with(kind, n, |rank| {
            let tel = telemetry::Telemetry::enabled(rank.rank());
            let _guard = tel.install();
            rank.clock_sync()
        })
    }

    #[test]
    fn offsets_finite_and_symmetric_on_both_transports() {
        for kind in [TransportKind::Inproc, TransportKind::Socket] {
            let out = sync_all(kind, 4);
            let first = out[0].as_ref().expect("telemetry on → table");
            assert_eq!(first.offsets.len(), 4);
            assert_eq!(first.rtts.len(), 4);
            assert_eq!(first.offsets[0], 0.0, "rank 0 is the reference");
            assert_eq!(first.rtts[0], 0.0);
            for (r, sync) in out.iter().enumerate() {
                let sync = sync.as_ref().unwrap();
                // Symmetric: every rank holds the identical table.
                assert_eq!(sync, first, "rank {r} disagrees ({kind:?})");
                for v in sync.offsets.iter().chain(&sync.rtts) {
                    assert!(v.is_finite(), "rank {r}: non-finite entry ({kind:?})");
                }
                for rtt in &sync.rtts {
                    assert!(*rtt >= 0.0);
                }
            }
            // Threads share a machine: offsets are bounded by the time
            // between the first and last rank reaching `enabled()`
            // (generously, well under a minute).
            for off in &first.offsets {
                assert!(off.abs() < 60.0, "implausible offset {off} ({kind:?})");
            }
        }
    }

    #[test]
    fn disabled_telemetry_skips_the_handshake() {
        let out = Comm::run(2, |rank| {
            let sync = rank.clock_sync();
            let edges = rank.with_recorder(|rec| rec.edges.len());
            (sync, edges)
        });
        for (sync, edges) in &out {
            assert!(sync.is_none());
            assert_eq!(*edges, 0, "handshake must not move bytes when disabled");
        }
    }

    #[test]
    fn single_rank_sync_is_trivial() {
        let out = sync_all(TransportKind::Inproc, 1);
        assert_eq!(
            out[0].as_ref().unwrap(),
            &ClockSync { offsets: vec![0.0], rtts: vec![0.0] }
        );
    }
}
