//! Message-passing runtime that stands in for MPI.
//!
//! The SC'21 ExaWind paper runs Nalu-Wind/hypre on thousands of MPI ranks.
//! This crate reproduces the *programming model* those algorithms are
//! written against — ranks, point-to-point messages, and collectives —
//! over a pluggable [`Transport`](TransportKind):
//!
//! * **inproc** (default): each rank is an OS thread and messages are
//!   typed values moved over std mpsc channels. No serialization happens,
//!   but every send records the number of bytes an MPI implementation
//!   would have moved, so the communication *volume* seen by the
//!   `machine` performance model is identical to a real distributed run
//!   at the same rank count.
//! * **socket**: ranks are connected by a full mesh of Unix-domain
//!   streams carrying length-prefixed frames with a bit-exact payload
//!   codec, either as threads of one process or as one OS process per
//!   rank under the `exawind-launch` launcher. The same program produces
//!   bitwise-identical results on both backends.
//!
//! A backend only queues events; a rank that has to wait for one does so
//! in one place on both, spinning briefly, then yielding, and only then
//! sleeping (`Rank::wait_next` in `comm.rs`).
//!
//! # Example
//!
//! ```
//! use parcomm::Comm;
//!
//! // Sum rank ids with an allreduce across 4 ranks.
//! let sums = Comm::run(4, |rank| rank.allreduce_sum(rank.rank() as u64));
//! assert_eq!(sums, vec![6, 6, 6, 6]);
//! ```

mod clock;
mod collectives;
mod comm;
mod faults;
mod message;
mod perf;
mod socket;
mod transport;

pub use clock::ClockSync;
pub use comm::{Comm, CommError, KernelScope, Rank, Tag};
pub use faults::{FaultKind, FaultPlan, FaultSpec};
pub use message::{decode_payload, encode_payload, Message, WireCursor, WireError};
pub use perf::{CollectiveStats, EdgeStats, PhaseTrace, TagClass, Trace};
pub use socket::{socket_path, WorkerEnv, SOCKET_PATH_MAX};
pub use transport::{
    read_frame, write_frame, Frame, FrameError, FrameKind, TransportKind, MAX_FRAME_BYTES,
};
