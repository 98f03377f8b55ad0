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
//! * **socket**: ranks connected by a full mesh of Unix-domain streams
//!   carrying length-prefixed frames ([`Frame`]) whose payloads use the
//!   bit-exact [`crate::Message`] codec. Runs either as N threads of this
//!   process (`Comm::run_with(TransportKind::Socket, ..)`) or as N OS *processes*
//!   (one rank each, launched by `exawind-launch`; see `socket.rs`).
//!
//! The same solver code runs unmodified on both, and blocks the same
//! way on both: a backend only says whether an event is queued
//! ([`Transport::try_recv_next`]) and how to sleep until one is
//! ([`Transport::recv_next`]); when to stop polling and sleep is decided
//! once, in `Rank::wait_next` (`comm.rs`).

use std::any::Any;
use std::time::Duration;

use crate::comm::Tag;

/// Which transport backend [`crate::Comm::run_with`] uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Threads + channels inside one process (the default).
    #[default]
    Inproc,
    /// Length-prefixed Unix-domain streams; supports multi-process ranks
    /// on one host.
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

    /// The next incoming event if one is already queued or has already
    /// arrived; never blocks.
    fn try_recv_next(&self) -> Option<RecvEvent>;

    /// Sleep until the next incoming event. Only `Rank::wait_next` calls
    /// this, after its polls of [`Transport::try_recv_next`] came up empty.
    fn recv_next(&self, timeout: Duration) -> Result<RecvEvent, RecvTimeout>;

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
    /// Clean shutdown notice: the peer is done sending forever.
    Goodbye = 2,
}

/// One length-prefixed socket frame:
///
/// ```text
/// u32 len      bytes after this field (= 13 + payload)
/// u8  kind     0 = msg, 2 = goodbye
/// u32 src      sender rank
/// u32 tag      message tag ([`FrameKind::Msg`] only)
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

/// The bytes at the front of a stream do not describe a frame (bad
/// length or kind): the stream can no longer be trusted.
#[derive(Debug)]
pub struct FrameError {
    /// Human-readable description of the malformation.
    pub detail: String,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt frame: {}", self.detail)
    }
}

/// Bytes in front of a frame's payload: the length prefix and the header.
pub(crate) const FRAME_PREFIX_BYTES: usize = 4 + FRAME_HEADER_BYTES as usize;

/// The length prefix and header of `frame`: [`write_frame`] without the
/// payload, so a stream write can take the payload from where it is.
pub(crate) fn frame_prefix(frame: &Frame) -> [u8; FRAME_PREFIX_BYTES] {
    let len = FRAME_HEADER_BYTES + frame.payload.len() as u32;
    let mut out = [0u8; FRAME_PREFIX_BYTES];
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4] = frame.kind as u8;
    out[5..9].copy_from_slice(&frame.src.to_le_bytes());
    out[9..13].copy_from_slice(&frame.tag.to_le_bytes());
    out[13..].copy_from_slice(&frame.type_id.to_le_bytes());
    out
}

/// Serialize a frame (length prefix included).
pub fn write_frame(out: &mut Vec<u8>, frame: &Frame) {
    out.reserve(FRAME_PREFIX_BYTES + frame.payload.len());
    out.extend_from_slice(&frame_prefix(frame));
    out.extend_from_slice(&frame.payload);
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Parse the frame at the front of `buf`, the bytes of one stream from a
/// frame boundary on, however they were split into reads.
///
/// `Ok(None)` while `buf` holds only part of a frame (nothing at all
/// included); `Ok(Some((frame, n)))` once it holds all of one, `n` being
/// its length with the prefix. The length prefix is checked against the
/// header size and [`MAX_FRAME_BYTES`] as soon as its 4 bytes are there,
/// and the kind as soon as its byte is, so a corrupt stream is rejected
/// before any payload-sized allocation.
pub fn read_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
    let corrupt = |detail: String| Err(FrameError { detail });
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = le_u32(buf);
    if len < FRAME_HEADER_BYTES {
        return corrupt(format!("frame length {len} below the {FRAME_HEADER_BYTES}-byte header"));
    }
    if len > MAX_FRAME_BYTES {
        return corrupt(format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte bound"));
    }
    let kind = match buf.get(4) {
        None => return Ok(None),
        Some(0) => FrameKind::Msg,
        Some(2) => FrameKind::Goodbye,
        Some(k) => return corrupt(format!("unknown frame kind {k:#04x}")),
    };
    let end = 4 + len as usize;
    let Some(frame) = buf.get(..end) else { return Ok(None) };
    Ok(Some((
        Frame {
            kind,
            src: le_u32(&frame[5..]),
            tag: le_u32(&frame[9..]),
            type_id: le_u32(&frame[13..]),
            payload: frame[FRAME_PREFIX_BYTES..].to_vec(),
        },
        end,
    )))
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
            let one = buf.len();
            write_frame(&mut buf, &msg_frame(vec![7]));
            let (back, n) = read_frame(&buf).unwrap().unwrap();
            assert_eq!(n, one, "the first frame ends where the second begins");
            assert_eq!(back.kind, FrameKind::Msg);
            assert_eq!(back.src, 3);
            assert_eq!(back.tag, 77);
            assert_eq!(back.type_id, 0xDEAD_BEEF);
            assert_eq!(back.payload, payload);
            let (next, m) = read_frame(&buf[n..]).unwrap().unwrap();
            assert_eq!((next.payload, n + m), (vec![7], buf.len()));
        }
    }

    #[test]
    fn every_strict_prefix_is_incomplete() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg_frame(vec![9; 100]));
        for cut in [0, 2, 4, 5, 10, buf.len() - 1] {
            let res = read_frame(&buf[..cut]);
            assert!(matches!(res, Ok(None)), "cut at {cut}: {res:?}");
        }
    }

    #[test]
    fn corrupt_length_and_kind_are_rejected() {
        // Length below header size.
        assert!(read_frame(&3u32.to_le_bytes()).is_err());
        // Length above the bound, before any payload byte is there.
        assert!(read_frame(&(MAX_FRAME_BYTES + 1).to_le_bytes()).is_err());
        // Unknown kind byte, before the rest of the frame is there.
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg_frame(vec![1; 64]));
        buf[4] = 9;
        let err = read_frame(&buf[..5]).unwrap_err();
        assert!(err.to_string().contains("unknown frame kind 0x09"), "{err}");
        // Kind 1 is unassigned (`Goodbye` keeps 2): rejected as well.
        buf[4] = 1;
        let err = read_frame(&buf[..5]).unwrap_err();
        assert!(err.to_string().contains("unknown frame kind 0x01"), "{err}");
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
