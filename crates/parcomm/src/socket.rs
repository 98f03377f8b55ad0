//! TCP socket backend: ranks connected by a full mesh of streams
//! carrying length-prefixed [`Frame`]s.
//!
//! The backend runs in two shapes behind the same [`SocketTransport`]:
//!
//! * **Thread mesh** ([`run_threads`]): N rank threads in this process,
//!   connected over loopback. Every payload still crosses a real TCP
//!   stream through the full encode → frame → decode path, so in-test
//!   runs exercise exactly the bytes a distributed run would move.
//! * **Worker process** ([`run_worker`]): this process hosts *one* rank
//!   of an N-process job launched by `exawind-launch` on this host,
//!   described by a [`WorkerEnv`]: rank, size and the rendezvous file
//!   path (ephemeral loopback ports coordinated through rank 0).
//!
//! Mesh convention everywhere: rank *i* dials every rank *j < i* and
//! accepts from every *j > i*; every listener is bound before any dial
//! starts, so the TCP backlog absorbs connects regardless of accept
//! order and setup cannot deadlock. Dials identify themselves with a
//! 4-byte little-endian rank hello.
//!
//! Delivery: each rank thread reads its own streams; there is no other
//! thread. The streams are nonblocking and every peer has one inbound
//! byte buffer. [`Transport::try_recv_next`] pops a queued event, and
//! when none is queued it first reads whatever each open stream already
//! holds and routes every complete frame through the one frame parser
//! ([`read_frame`]): [`FrameKind::Msg`] to the event queue, and
//! [`FrameKind::Goodbye`] closes the peer. Per-peer FIFO order is the
//! TCP stream order, matching the in-process channel semantics. A stream
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
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::comm::{FirstPanic, Rank, Tag, RECV_TIMEOUT};
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
    /// Path of the rendezvous file through which rank 0 publishes its
    /// registration endpoint.
    pub rendezvous: PathBuf,
}

/// Run all `size` ranks as threads of this process, connected by a
/// loopback TCP mesh. If ranks panic, the panic raised first is
/// re-raised, not a peer's consequential one.
pub(crate) fn run_threads<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Rank) -> R + Sync,
{
    // Bind every listener before any rank starts dialing (see module doc).
    let listeners: Vec<TcpListener> = (0..size)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback listener"))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("listener address"))
        .collect();

    let first_panic = FirstPanic::new();
    std::thread::scope(|scope| {
        let (addrs, f, first_panic) = (&addrs, &f, &first_panic);
        let handles = listeners.into_iter().enumerate().map(|(id, listener)| {
            scope.spawn(move || {
                let streams = mesh_streams(id, size, 0, |peer| dial(addrs[peer]), &listener);
                let rank = Rank::new(Box::new(SocketTransport::new(id, size, streams)));
                // Declared after `rank`, so it drops first: the claim is
                // made before the rank's streams close under its peers.
                let _claim = PanicClaim { id, first_panic };
                let out = f(&rank);
                rank.finalize();
                out
            })
        });
        first_panic.join(handles.collect())
    })
}

/// Drop guard of one socket rank thread: claims the first panic.
struct PanicClaim<'a> {
    id: usize,
    first_panic: &'a FirstPanic,
}

impl Drop for PanicClaim<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.first_panic.claim(self.id);
        }
    }
}

/// Run the single rank this worker process hosts; `f`'s result for the
/// local rank is the only result available in-process.
pub(crate) fn run_worker<R>(env: &WorkerEnv, f: impl FnOnce(&Rank) -> R) -> R {
    assert!(env.rank < env.size, "rank {} out of range for {} ranks", env.rank, env.size);
    let streams = rendezvous_streams(env.rank, env.size, &env.rendezvous);
    let rank = Rank::new(Box::new(SocketTransport::new(env.rank, env.size, streams)));
    let out = f(&rank);
    rank.finalize();
    out
}

// ---------------------------------------------------------------------------
// Mesh construction
// ---------------------------------------------------------------------------

fn dial(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap_or_else(|e| panic!("dial {addr}: {e}"));
    s.set_nodelay(true).ok();
    s
}

/// Dial with retry until the deadlock timeout, backing off
/// exponentially (10 ms doubling to a 500 ms cap): worker processes
/// come up in arbitrary order — and after a rank death an entire
/// supervised cohort may be relaunching — so a peer's listener may not
/// exist yet, possibly for a while.
fn dial_retry(addr: SocketAddr) -> TcpStream {
    let deadline = Instant::now() + RECV_TIMEOUT;
    let mut backoff = Duration::from_millis(10);
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true).ok();
                return s;
            }
            Err(e) => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    panic!("dial {addr}: {e} (gave up after {:?})", RECV_TIMEOUT);
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
/// flipped to non-blocking and polled with exponential backoff; both
/// the listener and the accepted stream are returned to blocking mode.
fn accept_timeout(listener: &TcpListener, me: usize) -> TcpStream {
    let deadline = Instant::now() + RECV_TIMEOUT;
    listener.set_nonblocking(true).expect("listener nonblocking");
    let mut backoff = Duration::from_millis(1);
    let stream = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
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
    listener.set_nonblocking(false).expect("listener blocking");
    stream.set_nonblocking(false).expect("stream blocking");
    stream
}

fn write_hello(s: &mut TcpStream, me: usize) {
    s.write_all(&(me as u32).to_le_bytes())
        .unwrap_or_else(|e| panic!("rank {me}: hello failed: {e}"));
}

fn read_hello(s: &mut TcpStream) -> usize {
    let mut id = [0u8; 4];
    s.read_exact(&mut id)
        .unwrap_or_else(|e| panic!("reading peer hello: {e}"));
    u32::from_le_bytes(id) as usize
}

/// Build rank `me`'s mesh: dial every rank in `dial_lo..me` through
/// `dial_peer`, accept every higher rank on `listener`. `streams[me]`
/// stays `None` (self-sends never touch a socket). `dial_lo` is 0 except
/// for the rendezvous path, where the rank-0 stream already exists (the
/// registration connection).
fn mesh_streams(
    me: usize,
    size: usize,
    dial_lo: usize,
    dial_peer: impl Fn(usize) -> TcpStream,
    listener: &TcpListener,
) -> Vec<Option<TcpStream>> {
    let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
    for (peer, slot) in streams.iter_mut().enumerate().take(me).skip(dial_lo) {
        let mut s = dial_peer(peer);
        write_hello(&mut s, me);
        *slot = Some(s);
    }
    for _ in me + 1..size {
        let mut s = accept_timeout(listener, me);
        s.set_nodelay(true).ok();
        let peer = read_hello(&mut s);
        assert!(
            peer > me && peer < size && streams[peer].is_none(),
            "rank {me}: unexpected hello from rank {peer}"
        );
        streams[peer] = Some(s);
    }
    streams
}

// ---------------------------------------------------------------------------
// Worker rendezvous
// ---------------------------------------------------------------------------

fn write_addr(s: &mut TcpStream, addr: &str) {
    let bytes = addr.as_bytes();
    let len = u16::try_from(bytes.len()).expect("address fits u16");
    s.write_all(&len.to_le_bytes()).and_then(|_| s.write_all(bytes))
        .unwrap_or_else(|e| panic!("sending endpoint address: {e}"));
}

fn read_addr(s: &mut TcpStream) -> SocketAddr {
    let mut len2 = [0u8; 2];
    s.read_exact(&mut len2)
        .unwrap_or_else(|e| panic!("reading endpoint address: {e}"));
    let mut buf = vec![0u8; u16::from_le_bytes(len2) as usize];
    s.read_exact(&mut buf)
        .unwrap_or_else(|e| panic!("reading endpoint address: {e}"));
    let text = String::from_utf8(buf).expect("endpoint address is UTF-8");
    text.parse()
        .unwrap_or_else(|e| panic!("endpoint address {text:?}: {e}"))
}

/// Ephemeral-port rendezvous through rank 0 (loopback jobs).
///
/// Rank 0 binds `127.0.0.1:0`, publishes the address via `path`
/// (write-to-temp + rename, so pollers never see a partial file), and
/// accepts one *registration* connection per peer — which doubles as the
/// rank-0↔peer mesh stream. Each peer registers its own freshly bound
/// listener address; once all have, rank 0 sends every peer the full
/// endpoint table and the peers complete the mesh among themselves with
/// the usual dial-lower/accept-higher rule.
fn rendezvous_streams(me: usize, size: usize, path: &Path) -> Vec<Option<TcpStream>> {
    let mut streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
    if size == 1 {
        return streams;
    }
    if me == 0 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind rendezvous listener");
        let addr = listener.local_addr().expect("listener address");
        let tmp = path.with_extension("rendezvous-tmp");
        std::fs::write(&tmp, addr.to_string())
            .unwrap_or_else(|e| panic!("writing rendezvous file {}: {e}", tmp.display()));
        std::fs::rename(&tmp, path)
            .unwrap_or_else(|e| panic!("publishing rendezvous file {}: {e}", path.display()));

        let mut table: Vec<Option<SocketAddr>> = (0..size).map(|_| None).collect();
        for _ in 1..size {
            let mut s = accept_timeout(&listener, 0);
            s.set_nodelay(true).ok();
            let peer = read_hello(&mut s);
            assert!(
                peer > 0 && peer < size && streams[peer].is_none(),
                "rank 0: unexpected registration from rank {peer}"
            );
            table[peer] = Some(read_addr(&mut s));
            streams[peer] = Some(s);
        }
        for stream in &mut streams[1..] {
            let s = stream.as_mut().unwrap();
            for addr in &table[1..] {
                write_addr(s, &addr.unwrap().to_string());
            }
        }
    } else {
        // Bound before registering, so higher ranks' dials (which start
        // as soon as they hold the table) land in our backlog.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind mesh listener");
        let my_addr = listener.local_addr().expect("listener address").to_string();

        let root = poll_rendezvous(path);
        let mut s = dial_retry(root);
        write_hello(&mut s, me);
        write_addr(&mut s, &my_addr);
        let mut table: Vec<Option<SocketAddr>> = (0..size).map(|_| None).collect();
        for slot in &mut table[1..] {
            *slot = Some(read_addr(&mut s));
        }
        streams[0] = Some(s);

        let rest =
            mesh_streams(me, size, 1, |peer| dial_retry(table[peer].unwrap()), &listener);
        for (peer, stream) in rest.into_iter().enumerate() {
            if let Some(stream) = stream {
                streams[peer] = Some(stream);
            }
        }
    }
    streams
}

/// Poll for rank 0's published address until the deadlock timeout.
fn poll_rendezvous(path: &Path) -> SocketAddr {
    let deadline = Instant::now() + RECV_TIMEOUT;
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse() {
                return addr;
            }
        }
        if Instant::now() >= deadline {
            panic!(
                "rendezvous file {} did not appear within {:?}",
                path.display(),
                RECV_TIMEOUT
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }
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
    streams: Vec<Option<TcpStream>>,
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
    fn read_from(&mut self, peer: usize, mut stream: &TcpStream) {
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
    pub(crate) fn new(rank: usize, size: usize, streams: Vec<Option<TcpStream>>) -> SocketTransport {
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
