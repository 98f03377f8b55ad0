//! Socket backend: ranks connected by a full mesh of Unix-domain
//! streams carrying length-prefixed [`Frame`]s.
//!
//! The backend runs in two shapes behind the same [`SocketTransport`]:
//!
//! * **Thread mesh** ([`thread_mesh`]): N rank threads in this process,
//!   one connected stream pair per pair of ranks. Every payload still
//!   crosses a kernel socket through the full encode → frame → decode
//!   path, so in-test runs exercise exactly the bytes a multi-process
//!   run moves.
//! * **Worker process** ([`run_worker`]): this process hosts *one* rank
//!   of an N-process job launched by `exawind-launch` on this host,
//!   described by a [`WorkerEnv`]: rank, size and the rendezvous path
//!   prefix. Rank *r* listens on [`socket_path`]`(rendezvous, r)`, dials
//!   every rank *j < r* at its path and accepts every *j > r*; a dial
//!   identifies itself with a 4-byte little-endian rank hello. A rank
//!   binds its listener before it dials, and a dial completes in the
//!   listener's backlog whatever the accept order, so set-up cannot
//!   deadlock. Once every higher rank is accepted, the rank unlinks its
//!   socket file.
//!
//! Delivery: each rank thread reads its own streams; there is no other
//! thread. The streams are nonblocking and every peer has one inbound
//! byte buffer. [`Transport::try_recv_next`] pops a queued event, and
//! when none is queued it first reads whatever each open stream already
//! holds and routes every complete frame through the one frame parser
//! ([`read_frame`]): [`FrameKind::Msg`] to the event queue, and
//! [`FrameKind::Goodbye`] closes the peer. Per-peer FIFO order is the
//! stream order, matching the in-process channel semantics. A stream
//! that ends (or turns corrupt) without a goodbye queues
//! [`RecvEvent::PeerGone`] behind everything the peer sent before it →
//! `CommError::Disconnected`; a rank thread that panics drops, and so
//! closes, its streams on the way out, as a dead rank process would.
//! When to stop polling and park is `Rank::wait_next`'s business
//! (`comm.rs`); parking is one poll(2) on the open streams
//! ([`Transport::recv_next`]). A send that finds its stream full moves
//! every peer's inbound bytes into the queues and parks until it has
//! room, so ranks writing large frames at each other cannot deadlock.
//! The transport has no barrier of its own: `Rank::barrier` is a
//! collective on the tagged message path (`collectives.rs`).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::ffi::{c_int, c_short, c_ulong};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::comm::{Rank, Tag, RECV_TIMEOUT};
use crate::transport::{
    frame_prefix, read_frame, Envelope, Frame, FrameKind, Payload, RecvEvent, RecvTimeout,
    Transport, WireFrame, FRAME_PREFIX_BYTES,
};

/// The launcher-provided identity of a worker process: one rank of a
/// `size`-process job. Built by the binary's environment parser and
/// handed to [`crate::Comm::run_worker`]; `rank < size` is the
/// builder's obligation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerEnv {
    pub rank: usize,
    pub size: usize,
    /// Path prefix of the job's per-rank files: rank *r* listens on
    /// [`socket_path`]`(rendezvous, r)`.
    pub rendezvous: PathBuf,
}

/// Bytes a socket path may hold on Linux: `sun_path` less its NUL.
pub const SOCKET_PATH_MAX: usize = 107;

/// The socket rank `rank` of the job under `rendezvous` listens on while
/// the mesh is wired up: `<rendezvous>.sock<r>`.
pub fn socket_path(rendezvous: &Path, rank: usize) -> PathBuf {
    let mut path = rendezvous.as_os_str().to_owned();
    path.push(format!(".sock{rank}"));
    path.into()
}

/// One transport per rank of a `size`-rank job run as threads of this
/// process, in rank order, connected by one stream pair per pair of
/// ranks.
pub(crate) fn thread_mesh(size: usize) -> Vec<Box<dyn Transport>> {
    let mut meshes: Vec<Vec<Option<UnixStream>>> = Vec::with_capacity(size);
    for me in 0..size {
        let mut row: Vec<Option<UnixStream>> = (0..size).map(|_| None).collect();
        for (peer, peer_row) in meshes.iter_mut().enumerate() {
            let (mine, theirs) = UnixStream::pair().expect("socket pair");
            row[peer] = Some(mine);
            peer_row[me] = Some(theirs);
        }
        meshes.push(row);
    }
    let transport = |(id, streams)| -> Box<dyn Transport> {
        Box::new(SocketTransport::new(id, size, streams))
    };
    meshes.into_iter().enumerate().map(transport).collect()
}

/// Run the single rank this worker process hosts; `f`'s result for the
/// local rank is the only result available in-process.
pub(crate) fn run_worker<R>(env: &WorkerEnv, f: impl FnOnce(&Rank) -> R) -> R {
    assert!(env.rank < env.size, "rank {} out of range for {} ranks", env.rank, env.size);
    let streams = worker_streams(env.rank, env.size, &env.rendezvous);
    let rank = Rank::new(Box::new(SocketTransport::new(env.rank, env.size, streams)));
    let out = f(&rank);
    rank.finalize();
    out
}

// ---------------------------------------------------------------------------
// Worker mesh
// ---------------------------------------------------------------------------

/// Dial with retry until the deadlock timeout, backing off
/// exponentially (10 ms doubling to a 500 ms cap): worker processes
/// come up in arbitrary order — and after a rank death an entire
/// supervised cohort may be relaunching — so a peer's listener may not
/// exist yet, possibly for a while.
fn dial_retry(path: &Path) -> UnixStream {
    let deadline = Instant::now() + RECV_TIMEOUT;
    let mut backoff = Duration::from_millis(10);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(e) => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    panic!("dial {}: {e} (gave up after {:?})", path.display(), RECV_TIMEOUT);
                }
                std::thread::sleep(backoff.min(left));
                backoff = (backoff * 2).min(Duration::from_millis(500));
            }
        }
    }
}

/// Accept with a deadline: a peer that dies before dialing must turn
/// mesh construction into a loud, bounded failure rather than a hang a
/// supervisor cannot distinguish from a slow start. The listener is
/// flipped to non-blocking and polled with exponential backoff; the
/// accepted stream is returned in blocking mode.
fn accept_timeout(listener: &UnixListener, me: usize) -> UnixStream {
    let deadline = Instant::now() + RECV_TIMEOUT;
    listener.set_nonblocking(true).expect("listener nonblocking");
    let mut backoff = Duration::from_millis(1);
    let stream = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    panic!(
                        "rank {me}: mesh accept timed out after {:?} — a peer died before dialing",
                        RECV_TIMEOUT
                    );
                }
                std::thread::sleep(backoff.min(left));
                backoff = (backoff * 2).min(Duration::from_millis(100));
            }
            Err(e) => panic!("rank {me}: mesh accept: {e}"),
        }
    };
    stream.set_nonblocking(false).expect("stream blocking");
    stream
}

/// Build worker rank `me`'s mesh (see the module doc). `streams[me]`
/// stays `None`: self-sends never touch a socket.
fn worker_streams(me: usize, size: usize, rendezvous: &Path) -> Vec<Option<UnixStream>> {
    let mut streams: Vec<Option<UnixStream>> = (0..size).map(|_| None).collect();
    if size == 1 {
        return streams;
    }
    let path = socket_path(rendezvous, me);
    let listener = UnixListener::bind(&path)
        .unwrap_or_else(|e| panic!("rank {me}: bind {}: {e}", path.display()));
    for (peer, slot) in streams.iter_mut().enumerate().take(me) {
        let mut s = dial_retry(&socket_path(rendezvous, peer));
        s.write_all(&(me as u32).to_le_bytes())
            .unwrap_or_else(|e| panic!("rank {me}: hello to rank {peer} failed: {e}"));
        *slot = Some(s);
    }
    for _ in me + 1..size {
        let mut s = accept_timeout(&listener, me);
        let mut hello = [0u8; 4];
        s.read_exact(&mut hello)
            .unwrap_or_else(|e| panic!("rank {me}: reading peer hello: {e}"));
        let peer = u32::from_le_bytes(hello) as usize;
        assert!(
            peer > me && peer < size && streams[peer].is_none(),
            "rank {me}: unexpected hello from rank {peer}"
        );
        streams[peer] = Some(s);
    }
    // Every peer that dials this rank has: nobody needs the file again.
    let _ = std::fs::remove_file(&path);
    streams
}

// ---------------------------------------------------------------------------
// The transport
// ---------------------------------------------------------------------------

/// Bytes one read of a stream asks for. Reads land here and are appended
/// to the peer's inbound bytes, so a poll that finds nothing touches no
/// more memory than this, however large the last frame was.
const READ_CHUNK: usize = 64 << 10;

/// `struct pollfd` of poll(2).
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// One rank's endpoint of the socket mesh. See the module doc for the
/// delivery design.
pub(crate) struct SocketTransport {
    rank: usize,
    size: usize,
    /// One nonblocking stream per peer (`None` at `self.rank`), read and
    /// written by the owning rank thread only.
    streams: Vec<Option<UnixStream>>,
    inbound: RefCell<Inbound>,
}

/// What has been read from the streams and not consumed yet.
struct Inbound {
    /// Messages (self-sends included) and peer-gone events, each peer's
    /// in its stream order.
    events: VecDeque<RecvEvent>,
    /// Indexed by rank; the entry at the owning rank stays closed.
    peers: Vec<PeerIn>,
    chunk: Box<[u8]>,
}

/// The inbound side of one peer's stream.
struct PeerIn {
    /// Bytes read from a frame boundary on that are not a whole frame yet.
    bytes: Vec<u8>,
    /// False once the peer said goodbye, hit EOF or sent a corrupt
    /// frame: nothing more is read from it.
    open: bool,
}

impl Inbound {
    /// Move whatever `stream` already holds into `peer`'s bytes and route
    /// every complete frame. EOF, or a read failing for any reason but
    /// "nothing there yet", queues [`RecvEvent::PeerGone`] behind
    /// everything the peer sent before it.
    fn read_from(&mut self, peer: usize, mut stream: &UnixStream) {
        if !self.peers[peer].open {
            return;
        }
        let ended = loop {
            match stream.read(&mut self.chunk) {
                Ok(0) => break true,
                Ok(n) => {
                    self.peers[peer].bytes.extend_from_slice(&self.chunk[..n]);
                    if n < self.chunk.len() {
                        break false;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                Err(_) => break true,
            }
        };
        let corrupt = self.route(peer);
        if (ended || corrupt) && self.peers[peer].open {
            self.peers[peer].open = false;
            self.events.push_back(RecvEvent::PeerGone(peer));
        }
    }

    /// Route every complete frame in `peer`'s bytes through the one frame
    /// parser: messages to the event queue; a goodbye closes the peer.
    /// True if the bytes are corrupt.
    fn route(&mut self, peer: usize) -> bool {
        let p = &mut self.peers[peer];
        let mut at = 0;
        let mut corrupt = false;
        while p.open && !corrupt {
            match read_frame(&p.bytes[at..]) {
                Ok(None) => break,
                Ok(Some((frame, n))) => {
                    at += n;
                    match frame.kind {
                        FrameKind::Msg => self.events.push_back(RecvEvent::Msg(Envelope {
                            src: frame.src as usize,
                            tag: frame.tag,
                            payload: Payload::Wire(WireFrame {
                                type_id: frame.type_id,
                                bytes: frame.payload,
                            }),
                        })),
                        FrameKind::Goodbye => p.open = false,
                    }
                }
                Err(_) => corrupt = true,
            }
        }
        p.bytes.drain(..at);
        if p.bytes.is_empty() {
            // Do not hold on to the buffer of a large frame.
            p.bytes.shrink_to(READ_CHUNK);
        }
        corrupt
    }
}

impl SocketTransport {
    pub(crate) fn new(rank: usize, size: usize, streams: Vec<Option<UnixStream>>) -> SocketTransport {
        assert_eq!(streams.len(), size);
        let peers = streams
            .iter()
            .map(|s| {
                if let Some(s) = s {
                    s.set_nonblocking(true).expect("stream nonblocking");
                }
                PeerIn { bytes: Vec::new(), open: s.is_some() }
            })
            .collect();
        SocketTransport {
            rank,
            size,
            streams,
            inbound: RefCell::new(Inbound {
                events: VecDeque::new(),
                peers,
                chunk: vec![0; READ_CHUNK].into_boxed_slice(),
            }),
        }
    }

    /// Read whatever every open stream already holds.
    fn pump(&self, inbound: &mut Inbound) {
        for (peer, stream) in self.streams.iter().enumerate() {
            if let Some(stream) = stream {
                inbound.read_from(peer, stream);
            }
        }
    }

    /// Sleep in poll(2) until an open stream has something to read (or
    /// has ended), `writable`'s stream has room, or `deadline` passes.
    /// Callers re-check their condition and the deadline afterwards.
    fn park(&self, deadline: Instant, writable: Option<usize>) {
        let mut fds: Vec<PollFd> = {
            let inbound = self.inbound.borrow();
            let streams = self.streams.iter().enumerate();
            streams
                .filter_map(|(peer, s)| {
                    let readable = if inbound.peers[peer].open { POLLIN } else { 0 };
                    let events = readable | if writable == Some(peer) { POLLOUT } else { 0 };
                    let fd = s.as_ref()?.as_raw_fd();
                    (events != 0).then_some(PollFd { fd, events, revents: 0 })
                })
                .collect()
        };
        let left = deadline.saturating_duration_since(Instant::now());
        let ms = c_int::try_from(left.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
        // SAFETY: `fds` is a live array of `fds.len()` pollfd structs that
        // poll(2) may write for the duration of the call, and each fd in
        // it belongs to a stream `self` keeps open. An error (EINTR) is
        // as good as a wake-up: the caller re-checks.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, ms) };
    }

    /// Write one frame to `dst` without blocking. While `dst`'s stream is
    /// full, every peer's inbound bytes are moved into the queues and the
    /// rank parks until `dst` has room or another peer has sent: ranks
    /// writing large frames at each other drain each other rather than
    /// deadlock.
    fn write(&self, dst: usize, frame: &Frame) -> std::io::Result<()> {
        let mut stream = self.streams[dst]
            .as_ref()
            .unwrap_or_else(|| panic!("rank {}: no stream to rank {dst}", self.rank));
        // The payload is written from where it is, not copied behind the
        // prefix: a copy per send reads the 1 MiB probe 0.36–0.42 →
        // 0.24–0.30 GB/s (EXPERIMENTS.md, "each socket rank reads its own
        // streams").
        let prefix = frame_prefix(frame);
        let total = FRAME_PREFIX_BYTES + frame.payload.len();
        let mut done = 0;
        let mut deadline = None;
        while done < total {
            let (p, q) = (done.min(FRAME_PREFIX_BYTES), done.saturating_sub(FRAME_PREFIX_BYTES));
            let parts = [IoSlice::new(&prefix[p..]), IoSlice::new(&frame.payload[q..])];
            match stream.write_vectored(&parts) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => done += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.pump(&mut self.inbound.borrow_mut());
                    let deadline = *deadline.get_or_insert_with(|| Instant::now() + RECV_TIMEOUT);
                    if Instant::now() >= deadline {
                        return Err(ErrorKind::TimedOut.into());
                    }
                    self.park(deadline, Some(dst));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Read the streams, parking in between, until `found` returns
    /// something from what has been read; `None` once `timeout` passes.
    fn wait_for<T>(
        &self,
        timeout: Duration,
        mut found: impl FnMut(&mut Inbound) -> Option<T>,
    ) -> Option<T> {
        let deadline = Instant::now() + timeout;
        loop {
            {
                let mut inbound = self.inbound.borrow_mut();
                self.pump(&mut inbound);
                if let Some(t) = found(&mut inbound) {
                    return Some(t);
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
            self.park(deadline, None);
        }
    }
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn is_wire(&self) -> bool {
        true
    }

    fn send(&self, dst: usize, tag: Tag, payload: Payload) {
        if dst == self.rank {
            let env = Envelope { src: dst, tag, payload };
            self.inbound.borrow_mut().events.push_back(RecvEvent::Msg(env));
            return;
        }
        let Payload::Wire(wire) = payload else {
            unreachable!("remote sends on the socket transport are always encoded")
        };
        let frame = Frame {
            kind: FrameKind::Msg,
            src: self.rank as u32,
            tag,
            type_id: wire.type_id,
            payload: wire.bytes,
        };
        self.write(dst, &frame).unwrap_or_else(|e| {
            panic!("rank {}: send to rank {dst} failed: {e}", self.rank)
        });
    }

    fn try_recv_next(&self) -> Option<RecvEvent> {
        let mut inbound = self.inbound.borrow_mut();
        if inbound.events.is_empty() {
            self.pump(&mut inbound);
        }
        inbound.events.pop_front()
    }

    fn recv_next(&self, timeout: Duration) -> Result<RecvEvent, RecvTimeout> {
        self.wait_for(timeout, |inbound| inbound.events.pop_front()).ok_or(RecvTimeout)
    }

    /// Teardown fence: goodbye to every peer, then read until every peer
    /// has said goodbye or ended. A rank sends nothing after its goodbye
    /// and closes only once every peer has said its own, so no stream
    /// closes while the peer may still write to it, and none closes with
    /// unread bytes (which would reset the connection under the peer's
    /// goodbye). A peer that is gone counts as ended: the survivor
    /// finishes its teardown and returns, and the run fails with the
    /// dead rank's own panic or exit, not with a second one from here.
    fn finalize(&self) {
        if self.size == 1 {
            return;
        }
        let bye = Frame {
            kind: FrameKind::Goodbye,
            src: self.rank as u32,
            tag: 0,
            type_id: 0,
            payload: Vec::new(),
        };
        for peer in (0..self.size).filter(|&p| p != self.rank) {
            let _ = self.write(peer, &bye);
        }
        self.wait_for(RECV_TIMEOUT, |inbound| inbound.peers.iter().all(|p| !p.open).then_some(()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Comm, TransportKind};

    /// Every rank writes its ring neighbour 16 MiB, far more than a
    /// socket buffer holds, and then a burst of 10 000 small frames,
    /// before it receives anything: a rank whose write finds the stream
    /// full must drain what is being written at it, or all of them wait
    /// forever. At 2 ranks the two write at each other.
    #[test]
    fn cross_writes_and_bursts_arrive_bit_exact_without_deadlock() {
        const WORDS: usize = 2 << 20;
        const BURST: u64 = 10_000;
        let big = |r: usize| -> Vec<f64> {
            let salt = (r as u64) << 56;
            let bits = |i: u64| salt ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (0..WORDS as u64).map(|i| f64::from_bits(bits(i))).collect()
        };
        for size in [2, 3] {
            let out = Comm::run_with(TransportKind::Socket, size, |rank| {
                let me = rank.rank();
                let (next, prev) = ((me + 1) % size, (me + size - 1) % size);
                rank.send(next, 1, big(me));
                for i in 0..BURST {
                    rank.send(next, 2, (me as u64) << 32 | i);
                }
                let got: Vec<f64> = rank.recv(prev, 1);
                let want = big(prev);
                let big_ok = got.len() == WORDS
                    && got.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits());
                let burst_ok =
                    (0..BURST).all(|i| rank.recv::<u64>(prev, 2) == (prev as u64) << 32 | i);
                (big_ok, burst_ok)
            });
            assert!(out.iter().all(|&r| r == (true, true)), "{size} ranks: {out:?}");
        }
    }

    /// The goodbye handshake alone fences teardown. Rank 0 returns as
    /// soon as its 16 MiB is written (parked in its own `send` until rank
    /// 1, asleep, reads the stream), so it says goodbye while rank 1 is
    /// still running; rank 1 then writes rank 0 16 MiB that rank 0 never
    /// receives. Neither stream may close under its peer's writes or
    /// with unread bytes: that would fail a send or reset the connection
    /// under a goodbye, and the run would panic or wait out the timeout.
    #[test]
    fn goodbye_handshake_alone_fences_teardown() {
        const WORDS: usize = 2 << 20;
        let big = |salt: u64| -> Vec<f64> {
            let bits = |i: u64| (salt << 56) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (0..WORDS as u64).map(|i| f64::from_bits(bits(i))).collect()
        };
        for size in [2, 3] {
            let t0 = Instant::now();
            let out = Comm::run_with(TransportKind::Socket, size, |rank| match rank.rank() {
                0 => {
                    rank.send(1, 1, big(1));
                    true
                }
                1 => {
                    std::thread::sleep(Duration::from_millis(100));
                    let got: Vec<f64> = rank.recv(0, 1);
                    let ok = got.len() == WORDS
                        && got.iter().zip(&big(1)).all(|(a, b)| a.to_bits() == b.to_bits());
                    rank.send(0, 2, big(2));
                    ok
                }
                _ => true,
            });
            assert!(out.iter().all(|&ok| ok), "{size} ranks: {out:?}");
            assert!(t0.elapsed() < Duration::from_secs(5), "{size} ranks took {:?}", t0.elapsed());
        }
    }
}
