//! The pluggable transport layer under [`crate::Rank`].
//!
//! A [`Transport`] moves opaque envelopes between ranks; everything above
//! it — tag matching, the per-(src, tag) FIFO pending queue, typed
//! encode/decode, collectives, perf recording — is transport-agnostic
//! and lives in `comm.rs`/`collectives.rs`. Two backends exist:
//!
//! * **inproc** (default): one OS thread per rank inside this process,
//!   payloads moved as `Box<dyn Any>` over std mpsc channels. Zero
//!   serialization, exactly the seed behaviour.
//! * **socket**: ranks connected by a full mesh of TCP streams carrying
//!   length-prefixed frames ([`Frame`]) whose payloads use the bit-exact
//!   [`crate::Message`] codec. Runs either as N threads over loopback
//!   (`Comm::run_with(TransportKind::Socket, ..)`) or as N OS *processes*
//!   (one rank each, launched by `exawind-launch`; see `socket.rs`).
//!
//! The same solver code runs unmodified on both, and blocks the same
//! way on both: a backend only says whether an event is queued
//! ([`Transport::try_recv_next`]) and how to sleep until one is
//! ([`Transport::recv_next`]); when to stop polling and sleep is decided
//! once, in `Rank::wait_next` (`comm.rs`).

use std::any::Any;
use std::io::{Read, Write};
use std::time::Duration;

use crate::comm::Tag;

/// Which transport backend [`crate::Comm::run_with`] uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Threads + channels inside one process (the default).
    #[default]
    Inproc,
    /// Length-prefixed TCP streams; supports multi-process ranks.
    Socket,
}

impl TransportKind {
    /// Parse a backend name (`inproc` | `socket`).
    pub fn parse(s: &str) -> Result<TransportKind, String> {
        match s.trim() {
            "inproc" => Ok(TransportKind::Inproc),
            "socket" => Ok(TransportKind::Socket),
            other => Err(format!(
                "unknown transport {other:?} (expected \"inproc\" or \"socket\")"
            )),
        }
    }

    /// Stable name, inverse of [`TransportKind::parse`].
    pub fn label(self) -> &'static str {
        match self {
            TransportKind::Inproc => "inproc",
            TransportKind::Socket => "socket",
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// An encoded payload plus the wire id of its Rust type.
pub(crate) struct WireFrame {
    pub type_id: u32,
    pub bytes: Vec<u8>,
}

/// How a payload travels: by pointer inside one address space, or as
/// encoded bytes across one.
pub(crate) enum Payload {
    Local(Box<dyn Any + Send>),
    Wire(WireFrame),
}

/// One in-flight message.
pub(crate) struct Envelope {
    pub src: usize,
    pub tag: Tag,
    pub payload: Payload,
}

/// What a blocking receive can observe next — the item both backends'
/// event queues carry.
pub(crate) enum RecvEvent {
    /// A message arrived (any source/tag — matching happens above).
    Msg(Envelope),
    /// A peer is gone (its connection dropped, or its thread panicked);
    /// no further messages from it will ever arrive (everything it sent
    /// first has already been queued).
    PeerGone(usize),
}

/// Marker error: no event arrived within the deadlock timeout.
pub(crate) struct RecvTimeout;

/// Moves envelopes between the ranks of one communicator.
///
/// Implementations are handed to [`crate::Rank`], one per rank; a rank
/// thread/process owns its transport exclusively (`Send`, not `Sync`).
pub(crate) trait Transport: Send {
    fn rank(&self) -> usize;
    fn size(&self) -> usize;

    /// True when payloads to remote ranks must be encoded ([`Payload::Wire`]).
    /// Self-sends may stay [`Payload::Local`] on every transport.
    fn is_wire(&self) -> bool;

    /// Deliver to `dst` (self-sends allowed).
    ///
    /// # Panics
    ///
    /// Panics if `dst`'s endpoint is gone: in a bulk-synchronous program
    /// a vanished peer is unrecoverable from the send side (the receive
    /// side surfaces it as a typed error instead).
    fn send(&self, dst: usize, tag: Tag, payload: Payload);

    /// The next incoming event if one is already queued; never blocks.
    fn try_recv_next(&self) -> Option<RecvEvent>;

    /// Sleep until the next incoming event. Only `Rank::wait_next` calls
    /// this, after its polls of [`Transport::try_recv_next`] came up empty.
    fn recv_next(&self, timeout: Duration) -> Result<RecvEvent, RecvTimeout>;

    /// Synchronize all ranks.
    fn barrier(&self);

    /// Orderly teardown after the rank function returns: fence until all
    /// ranks are done sending, then release endpoints. Default: nothing.
    fn finalize(&self) {}
}

// ---------------------------------------------------------------------------
// Socket frame format
// ---------------------------------------------------------------------------

/// Upper bound on a frame body; a length prefix beyond this is treated
/// as stream corruption rather than an allocation request.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

/// Frame header bytes after the length prefix: kind + src + tag + type id.
const FRAME_HEADER_BYTES: u32 = 1 + 4 + 4 + 4;

/// What a socket frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// A user/collective message (payload = encoded [`crate::Message`]).
    Msg = 0,
    /// Barrier traffic (`tag` = barrier generation, empty payload).
    Barrier = 1,
    /// Clean shutdown notice: the peer is done sending forever.
    Goodbye = 2,
}

/// One length-prefixed socket frame:
///
/// ```text
/// u32 len      bytes after this field (= 13 + payload)
/// u8  kind     0 = msg, 1 = barrier, 2 = goodbye
/// u32 src      sender rank
/// u32 tag      message tag / barrier generation
/// u32 type_id  Message::wire_id of the payload ([`FrameKind::Msg`] only)
/// ..  payload  Message::encode bytes
/// ```
///
/// All integers little-endian.
#[derive(Debug)]
pub struct Frame {
    pub kind: FrameKind,
    pub src: u32,
    pub tag: u32,
    pub type_id: u32,
    pub payload: Vec<u8>,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end-of-stream at a frame boundary (peer closed).
    Eof,
    /// The stream died mid-frame.
    Truncated(String),
    /// The bytes read do not describe a frame (bad length or kind); the
    /// stream can no longer be trusted.
    Corrupt(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Eof => f.write_str("end of stream"),
            FrameError::Truncated(d) => write!(f, "stream truncated mid-frame: {d}"),
            FrameError::Corrupt(d) => write!(f, "corrupt frame: {d}"),
        }
    }
}

/// Serialize a frame (length prefix included).
pub fn write_frame(out: &mut Vec<u8>, frame: &Frame) {
    let len = FRAME_HEADER_BYTES + frame.payload.len() as u32;
    out.reserve(4 + len as usize);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(frame.kind as u8);
    out.extend_from_slice(&frame.src.to_le_bytes());
    out.extend_from_slice(&frame.tag.to_le_bytes());
    out.extend_from_slice(&frame.type_id.to_le_bytes());
    out.extend_from_slice(&frame.payload);
}

/// Write a frame directly to a stream.
pub fn send_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let mut buf = Vec::new();
    write_frame(&mut buf, frame);
    w.write_all(&buf)
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8], at_boundary: bool) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_boundary && filled == 0 {
                    FrameError::Eof
                } else {
                    FrameError::Truncated(format!(
                        "EOF after {filled} of {} bytes",
                        buf.len()
                    ))
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(if at_boundary && filled == 0 {
                    FrameError::Eof
                } else {
                    FrameError::Truncated(e.to_string())
                });
            }
        }
    }
    Ok(())
}

/// Read one frame. Split reads are handled (the frame may arrive in any
/// number of TCP segments); a clean close between frames is [`FrameError::Eof`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut len4 = [0u8; 4];
    read_exact_or(r, &mut len4, true)?;
    let len = u32::from_le_bytes(len4);
    if len < FRAME_HEADER_BYTES {
        return Err(FrameError::Corrupt(format!(
            "frame length {len} below the {FRAME_HEADER_BYTES}-byte header"
        )));
    }
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Corrupt(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte bound"
        )));
    }
    let mut body = vec![0u8; len as usize];
    read_exact_or(r, &mut body, false)?;
    let kind = match body[0] {
        0 => FrameKind::Msg,
        1 => FrameKind::Barrier,
        2 => FrameKind::Goodbye,
        k => return Err(FrameError::Corrupt(format!("unknown frame kind {k:#04x}"))),
    };
    let src = u32::from_le_bytes(body[1..5].try_into().unwrap());
    let tag = u32::from_le_bytes(body[5..9].try_into().unwrap());
    let type_id = u32::from_le_bytes(body[9..13].try_into().unwrap());
    let payload = body[13..].to_vec();
    Ok(Frame { kind, src, tag, type_id, payload })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg_frame(payload: Vec<u8>) -> Frame {
        Frame { kind: FrameKind::Msg, src: 3, tag: 77, type_id: 0xDEAD_BEEF, payload }
    }

    #[test]
    fn frame_round_trips() {
        for payload in [vec![], vec![1, 2, 3], vec![0u8; 4096]] {
            let mut buf = Vec::new();
            write_frame(&mut buf, &msg_frame(payload.clone()));
            let back = read_frame(&mut buf.as_slice()).unwrap();
            assert_eq!(back.kind, FrameKind::Msg);
            assert_eq!(back.src, 3);
            assert_eq!(back.tag, 77);
            assert_eq!(back.type_id, 0xDEAD_BEEF);
            assert_eq!(back.payload, payload);
        }
    }

    #[test]
    fn empty_stream_is_clean_eof() {
        assert!(matches!(read_frame(&mut [].as_slice()), Err(FrameError::Eof)));
    }

    #[test]
    fn truncation_is_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg_frame(vec![9; 100]));
        for cut in [2, 4, 10, buf.len() - 1] {
            let res = read_frame(&mut &buf[..cut]);
            assert!(
                matches!(res, Err(FrameError::Truncated(_))),
                "cut at {cut}: {res:?}"
            );
        }
    }

    #[test]
    fn corrupt_length_and_kind_are_rejected() {
        // Length below header size.
        let mut small = Vec::new();
        small.extend_from_slice(&3u32.to_le_bytes());
        small.extend_from_slice(&[0; 3]);
        assert!(matches!(
            read_frame(&mut small.as_slice()),
            Err(FrameError::Corrupt(_))
        ));
        // Length above the bound.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(FrameError::Corrupt(_))
        ));
        // Unknown kind byte.
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg_frame(vec![]));
        buf[4] = 9;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Corrupt(_))
        ));
    }

    #[test]
    fn transport_kind_parses() {
        assert_eq!(TransportKind::parse("inproc").unwrap(), TransportKind::Inproc);
        assert_eq!(TransportKind::parse(" socket ").unwrap(), TransportKind::Socket);
        assert!(TransportKind::parse("mpi").is_err());
        assert_eq!(TransportKind::Socket.label(), "socket");
        assert_eq!(
            TransportKind::parse(TransportKind::Inproc.label()).unwrap(),
            TransportKind::Inproc
        );
    }
}
