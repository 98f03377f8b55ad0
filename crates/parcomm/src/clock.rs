//! Startup clock alignment for cross-rank timelines.
//!
//! Every rank's telemetry timestamps count seconds from its own
//! [`telemetry`] epoch. The epoch carries its Unix time, read between
//! two monotonic reads whose midpoint is the epoch, and the width of
//! that bracket (`Telemetry::epoch_anchor` of the rank's recorder). Every rank of a job runs on
//! one host — a thread, a socket thread-mesh rank or an
//! `exawind-launch` worker process — where the wall clock and the
//! monotonic clock are system-wide, so two ranks' anchors differ by
//! exactly the distance between their epochs, up to half of each
//! bracket. [`Rank::clock_sync`] therefore needs one `allgather` of the
//! anchors and no probes: every rank leaves it holding the *same*
//! [`ClockSync`], which rank 0 records in the stream's `run` event.
//!
//! The exchange is strictly telemetry-gated: with telemetry disabled it
//! returns `None` without reading a clock or moving a byte, so
//! telemetry-off runs remain bitwise identical. The internal tag is
//! still allocated on every rank either way, keeping tag counters
//! aligned across mixed configurations.

use crate::comm::Rank;

/// The clock-alignment table, identical on every rank.
/// `t_global = t_rank + offsets[rank]` maps rank-local epoch seconds
/// onto rank 0's timeline; `rtts[rank]` is the width of that rank's
/// anchor bracket, so the offset between ranks `a` and `b` is off by at
/// most `(rtts[a] + rtts[b]) / 2`.
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
    /// Collective clock alignment (see module docs): one `allgather` of
    /// every rank's epoch anchor. Must be called on every rank of the
    /// communicator at the same point; rank 0 is the time reference, and
    /// a single rank has nothing to align (`{[0.0], [0.0]}`). Returns
    /// `None` — with no clock read and no message sent — when telemetry
    /// is disabled on this rank.
    pub fn clock_sync(&self) -> Option<ClockSync> {
        let anchor = self.telemetry().epoch_anchor();
        if anchor.is_none() || self.size() == 1 {
            // The tag the allgather takes, so internal-tag counters stay
            // aligned whether or not it runs.
            self.next_internal_tag();
            return anchor.map(|_| ClockSync { offsets: vec![0.0], rtts: vec![0.0] });
        }
        let anchors = self.allgather(anchor?);
        let (ns0, _) = anchors[0];
        Some(ClockSync {
            offsets: anchors.iter().map(|&(ns, _)| (ns - ns0) as f64 * 1e-9).collect(),
            rtts: anchors.iter().map(|&(_, width)| width).collect(),
        })
    }
}
