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
//!   of an N-process job launched by `exawind-launch`, described by a
//!   [`WorkerEnv`]: rank, size and either a rendezvous file path
//!   (ephemeral loopback ports coordinated through rank 0) or an
//!   explicit host file (one `host:port` per rank — this is what names
//!   remote endpoints).
//!
//! Mesh convention everywhere: rank *i* dials every rank *j < i* and
//! accepts from every *j > i*; every listener is bound before any dial
//! starts, so the TCP backlog absorbs connects regardless of accept
//! order and setup cannot deadlock. Dials identify themselves with a
//! 4-byte little-endian rank hello.
//!
//! Delivery: one reader thread per peer stream decodes frames and pushes
//! them into the owning rank's event channel ([`FrameKind::Msg`]) or
//! barrier channel ([`FrameKind::Barrier`]); per-peer FIFO order is the
//! TCP stream order, matching the in-process channel semantics. How a
//! blocking receive waits on that channel is not this backend's
//! business: `Rank::wait_next` (`comm.rs`) polls and then parks on
//! either backend's queue. Barriers are centralized through rank 0
//! (gather generation-tagged frames, then broadcast release). A stream
//! that ends without a [`FrameKind::Goodbye`] surfaces as
//! [`RecvEvent::PeerGone`] → `CommError::Disconnected`.

use std::cell::{Cell, RefCell};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::comm::{Rank, Tag, RECV_TIMEOUT};
use crate::transport::{
    read_frame, send_frame, Envelope, Frame, FrameKind, Payload, RecvEvent, RecvTimeout,
    Transport, WireFrame,
};

/// How a worker process finds its peers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireUp {
    /// Path of the rendezvous file through which rank 0 publishes its
    /// registration endpoint (loopback jobs with ephemeral ports).
    Rendezvous(PathBuf),
    /// Path of a host file naming every rank's `host:port` endpoint
    /// explicitly (fixed ports; how remote machines are named).
    Hostfile(PathBuf),
}

/// The launcher-provided identity of a worker process: one rank of a
/// `size`-process job. Built by the binary's environment parser and
/// handed to [`crate::Comm::run_worker`]; `rank < size` is the
/// builder's obligation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerEnv {
    pub rank: usize,
    pub size: usize,
    pub wireup: WireUp,
}

/// Run all `size` ranks as threads of this process, connected by a
/// loopback TCP mesh.
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

    let mut results: Vec<Option<R>> = (0..size).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(size);
        for (id, listener) in listeners.into_iter().enumerate() {
            let addrs = &addrs;
            let f = &f;
            handles.push(scope.spawn(move || {
                let streams = mesh_streams(id, size, 0, |peer| dial(addrs[peer]), &listener);
                let rank = Rank::new(Box::new(SocketTransport::new(id, size, streams)));
                let out = f(&rank);
                rank.finalize();
                out
            }));
        }
        for (id, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(r) => results[id] = Some(r),
                Err(e) => std::panic::resume_unwind(e),
            }
        }
    });
    results.into_iter().map(|r| r.unwrap()).collect()
}

/// Run the single rank this worker process hosts; `f`'s result for the
/// local rank is the only result available in-process.
pub(crate) fn run_worker<R>(env: &WorkerEnv, f: impl FnOnce(&Rank) -> R) -> R {
    assert!(env.rank < env.size, "rank {} out of range for {} ranks", env.rank, env.size);
    let streams = match &env.wireup {
        WireUp::Hostfile(hf) => hostfile_streams(env.rank, env.size, hf),
        WireUp::Rendezvous(rv) => rendezvous_streams(env.rank, env.size, rv),
    };
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

/// Parse a host file: one `host:port` endpoint per rank, in rank order.
/// Blank lines and `#` comments are skipped.
pub(crate) fn parse_hostfile(text: &str, size: usize) -> Result<Vec<String>, String> {
    let endpoints: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect();
    if endpoints.len() < size {
        return Err(format!(
            "host file names {} endpoints but the job has {size} ranks",
            endpoints.len()
        ));
    }
    Ok(endpoints[..size].to_vec())
}

fn resolve(endpoint: &str) -> SocketAddr {
    endpoint
        .to_socket_addrs()
        .unwrap_or_else(|e| panic!("endpoint {endpoint:?}: {e}"))
        .next()
        .unwrap_or_else(|| panic!("endpoint {endpoint:?} resolved to no address"))
}

/// Fixed-endpoint mesh from a host file: rank `me` binds its own line's
/// address and applies the dial-lower/accept-higher rule, with dial
/// retry since workers start in arbitrary order.
fn hostfile_streams(me: usize, size: usize, path: &Path) -> Vec<Option<TcpStream>> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading host file {}: {e}", path.display()));
    let endpoints = parse_hostfile(&text, size).unwrap_or_else(|e| panic!("{e}"));
    let addrs: Vec<SocketAddr> = endpoints.iter().map(|e| resolve(e)).collect();
    let listener = TcpListener::bind(addrs[me])
        .unwrap_or_else(|e| panic!("rank {me}: bind {}: {e}", addrs[me]));
    mesh_streams(me, size, 0, |peer| dial_retry(addrs[peer]), &listener)
}

// ---------------------------------------------------------------------------
// The transport
// ---------------------------------------------------------------------------

/// One rank's endpoint of the socket mesh. See the module doc for the
/// delivery and barrier design.
pub(crate) struct SocketTransport {
    rank: usize,
    size: usize,
    /// Write half per peer (`None` at `self.rank`). `RefCell`, not
    /// `Mutex`: the owning rank thread is the only writer.
    writers: Vec<Option<RefCell<TcpStream>>>,
    /// Loopback for self-sends (keeps them unserialized on this backend
    /// too) — also what keeps `events_rx` from ever disconnecting.
    events_tx: Sender<RecvEvent>,
    events_rx: Receiver<RecvEvent>,
    /// Barrier frames bypass the message queue so a barrier can complete
    /// while ordinary messages sit unconsumed.
    barrier_rx: Receiver<(usize, Tag)>,
    barrier_gen: Cell<Tag>,
    readers: RefCell<Vec<JoinHandle<()>>>,
}

impl SocketTransport {
    pub(crate) fn new(rank: usize, size: usize, streams: Vec<Option<TcpStream>>) -> SocketTransport {
        assert_eq!(streams.len(), size);
        let (events_tx, events_rx) = channel();
        let (barrier_tx, barrier_rx) = channel();
        let mut writers = Vec::with_capacity(size);
        let mut readers = Vec::new();
        for (peer, stream) in streams.into_iter().enumerate() {
            match stream {
                None => writers.push(None),
                Some(stream) => {
                    let rd = stream.try_clone().expect("clone stream for reader");
                    let events = events_tx.clone();
                    let barriers = barrier_tx.clone();
                    readers.push(
                        std::thread::Builder::new()
                            .name(format!("parcomm-read-{rank}-from-{peer}"))
                            .spawn(move || reader_loop(peer, rd, events, barriers))
                            .expect("spawn reader thread"),
                    );
                    writers.push(Some(RefCell::new(stream)));
                }
            }
        }
        SocketTransport {
            rank,
            size,
            writers,
            events_tx,
            events_rx,
            barrier_rx,
            barrier_gen: Cell::new(0),
            readers: RefCell::new(readers),
        }
    }

    fn write(&self, dst: usize, frame: &Frame) -> std::io::Result<()> {
        let w = self.writers[dst]
            .as_ref()
            .unwrap_or_else(|| panic!("rank {}: no stream to rank {dst}", self.rank));
        send_frame(&mut *w.borrow_mut(), frame)
    }

    fn control_frame(&self, kind: FrameKind, tag: Tag) -> Frame {
        Frame { kind, src: self.rank as u32, tag, type_id: 0, payload: Vec::new() }
    }

    fn recv_barrier(&self, gen: Tag) {
        let (src, g) = self.barrier_rx.recv_timeout(RECV_TIMEOUT).unwrap_or_else(|_| {
            panic!("rank {}: barrier generation {gen} timed out — likely deadlock", self.rank)
        });
        // Bulk-synchronous call order + per-peer FIFO make a mismatch
        // impossible unless the program itself diverged across ranks.
        assert_eq!(
            g, gen,
            "rank {}: barrier generation mismatch (got {g} from rank {src}, at {gen})",
            self.rank
        );
    }
}

/// A rank thread that panics closes its connections, as the death of a
/// rank process does: its reader threads hold clones of the streams, so
/// without the shutdown the peers would see no EOF, hence no
/// [`RecvEvent::PeerGone`], and wait out the deadlock timeout.
impl Drop for SocketTransport {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for stream in self.writers.iter().flatten() {
                if let Ok(stream) = stream.try_borrow() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        }
    }
}

/// Decode frames from one peer until goodbye, EOF, or stream failure.
fn reader_loop(
    peer: usize,
    mut stream: TcpStream,
    events: Sender<RecvEvent>,
    barriers: Sender<(usize, Tag)>,
) {
    loop {
        match read_frame(&mut stream) {
            Ok(frame) => match frame.kind {
                FrameKind::Msg => {
                    let env = Envelope {
                        src: frame.src as usize,
                        tag: frame.tag,
                        payload: Payload::Wire(WireFrame {
                            type_id: frame.type_id,
                            bytes: frame.payload,
                        }),
                    };
                    if events.send(RecvEvent::Msg(env)).is_err() {
                        return; // owning rank is gone; nothing to deliver to
                    }
                }
                FrameKind::Barrier => {
                    if barriers.send((frame.src as usize, frame.tag)).is_err() {
                        return;
                    }
                }
                FrameKind::Goodbye => return,
            },
            // EOF without a goodbye is a peer death, exactly like a
            // mid-frame truncation: everything the peer did send is
            // already queued ahead of this event.
            Err(_) => {
                let _ = events.send(RecvEvent::PeerGone(peer));
                return;
            }
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
            self.events_tx
                .send(RecvEvent::Msg(Envelope { src: dst, tag, payload }))
                .expect("self-send");
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
        self.events_rx.try_recv().ok()
    }

    fn recv_next(&self, timeout: Duration) -> Result<RecvEvent, RecvTimeout> {
        self.events_rx.recv_timeout(timeout).map_err(|_| RecvTimeout)
    }

    /// Centralized two-phase barrier: every rank sends a generation-
    /// tagged frame to rank 0, which releases everyone once all arrive.
    fn barrier(&self) {
        let gen = self.barrier_gen.get();
        self.barrier_gen.set(gen.wrapping_add(1));
        if self.size == 1 {
            return;
        }
        let frame = self.control_frame(FrameKind::Barrier, gen);
        if self.rank == 0 {
            for _ in 1..self.size {
                self.recv_barrier(gen);
            }
            for peer in 1..self.size {
                self.write(peer, &frame).unwrap_or_else(|e| {
                    panic!("rank 0: barrier release to rank {peer} failed: {e}")
                });
            }
        } else {
            self.write(0, &frame)
                .unwrap_or_else(|e| panic!("rank {}: barrier send failed: {e}", self.rank));
            self.recv_barrier(gen);
        }
    }

    /// Teardown fence: barrier (no rank closes streams while another
    /// might still send), goodbye to every peer, then join the readers
    /// (each exits on the peer's goodbye).
    fn finalize(&self) {
        if self.size > 1 {
            self.barrier();
            let bye = self.control_frame(FrameKind::Goodbye, 0);
            for peer in 0..self.size {
                if peer != self.rank {
                    // A peer that died early cannot be waved goodbye.
                    let _ = self.write(peer, &bye);
                }
            }
        }
        for handle in self.readers.borrow_mut().drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hostfile_parses_in_rank_order() {
        let text = "# rank endpoints\n127.0.0.1:9000\n\n127.0.0.1:9001\n127.0.0.1:9002\n";
        let eps = parse_hostfile(text, 2).unwrap();
        assert_eq!(eps, vec!["127.0.0.1:9000", "127.0.0.1:9001"]);
        assert!(parse_hostfile(text, 4).is_err());
    }
}
