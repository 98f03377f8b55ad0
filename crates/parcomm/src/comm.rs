//! The communicator and per-rank handle.
//!
//! `Rank` owns everything transport-*independent*: typed send/receive,
//! per-(src, tag) FIFO matching with a pending queue, tag allocation,
//! and perf recording. The actual movement of bytes is delegated to a
//! [`Transport`] backend — in-process channels or Unix-domain sockets (see
//! `transport.rs`/`socket.rs`).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::faults::Rule;
use crate::message::{encode_payload, Message};
use crate::perf::{PerfRecorder, PhaseTrace, TagClass};
use crate::socket::{self, WorkerEnv};
use crate::transport::{
    Envelope, Payload, RecvEvent, RecvTimeout, Transport, TransportKind, WireFrame,
};

/// Message tag. User tags must be below [`Tag::MAX`]` >> 8`; the top of the
/// tag space is reserved for internal collective traffic.
pub type Tag = u32;

pub(crate) const INTERNAL_TAG_BASE: Tag = 1 << 24;

/// How long a blocking receive waits before declaring a deadlock.
pub(crate) const RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// Polls of the event queue before a blocking receive parks, and how
/// many of them pass between two that yield the CPU; the others wait on
/// a spin hint ([`Rank::wait_next`]). Measured on the 2-vCPU reference
/// host (EXPERIMENTS.md, "one wait loop"): the window is ≈ 65 µs
/// in-process when nothing else wants the core (longer over sockets,
/// where a poll that finds nothing queued reads each open stream). A
/// message between two running ranks is picked up by the next poll
/// (in-process ping-pong 35 → ~1 µs; parking at once costs a futex wake
/// per message, 15–35 µs). The yield is what lets a thread without a
/// core of its own run within a microsecond. Since the socket backend
/// lost its reader threads (EXPERIMENTS.md, "each socket rank reads its
/// own streams") that is only the rank being waited for when ranks
/// outnumber cores, as under `cargo test`: with an unbroken 512-poll
/// spin phase in front of the yields (measured while reader threads
/// still existed) the socket allreduce read 13 → 58 µs, the socket
/// workload lost 8 of 10 pairs (+5 %) and tier-1 `cargo test` took +7 %.
const POLLS_BEFORE_PARK: usize = 2048;
const POLLS_PER_YIELD: usize = 32;

/// Typed failure of a point-to-point receive, for callers that prefer a
/// recoverable error over the default deadlock/type-confusion panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommError {
    /// No matching message arrived within the deadlock timeout.
    Timeout { rank: usize, src: usize, tag: Tag },
    /// The matching message's payload had a different Rust type.
    TypeMismatch { rank: usize, src: usize, tag: Tag },
    /// The matching message's bytes failed to decode as the expected
    /// type (socket transport: truncated or corrupt payload).
    Decode {
        rank: usize,
        src: usize,
        tag: Tag,
        detail: String,
    },
    /// The peer's endpoint vanished (process death, dropped connection)
    /// before a matching message arrived.
    Disconnected { rank: usize, peer: usize },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { rank, src, tag } => write!(
                f,
                "rank {rank}: recv(src={src}, tag={tag}) timed out — likely deadlock"
            ),
            CommError::TypeMismatch { rank, src, tag } => write!(
                f,
                "rank {rank}: message from {src} tag {tag} had unexpected payload type"
            ),
            CommError::Decode { rank, src, tag, detail } => write!(
                f,
                "rank {rank}: message from {src} tag {tag} failed to decode: {detail}"
            ),
            CommError::Disconnected { rank, peer } => write!(
                f,
                "rank {rank}: peer rank {peer} disconnected mid-exchange"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// A group of simulated MPI ranks.
///
/// [`Comm::run`] spawns one thread per rank, hands each a [`Rank`] handle,
/// and collects the per-rank results in rank order, over in-process
/// channels; [`Comm::run_with`] picks the transport, and
/// [`Comm::run_worker`] hosts one rank of a multi-process job.
pub struct Comm;

impl Comm {
    /// Run `f` on `size` ranks over the in-process transport and return
    /// each rank's result, indexed by rank.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0` or if any rank panics.
    pub fn run<R, F>(size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Rank) -> R + Sync,
    {
        Self::run_with(TransportKind::Inproc, size, f)
    }

    /// [`Comm::run`] over an explicit transport backend; every rank is
    /// a thread of this process on either.
    pub fn run_with<R, F>(kind: TransportKind, size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Rank) -> R + Sync,
    {
        assert!(size > 0, "communicator must have at least one rank");
        let transports = match kind {
            TransportKind::Inproc => InprocTransport::mesh(size),
            TransportKind::Socket => socket::thread_mesh(size),
        };
        run_ranks(transports, f)
    }

    /// Run `f` on the one rank this process hosts of the multi-process
    /// socket job `env` describes (as arranged by `exawind-launch`) and
    /// return that rank's result.
    pub fn run_worker<R>(env: &WorkerEnv, f: impl FnOnce(&Rank) -> R) -> R {
        socket::run_worker(env, f)
    }

    /// Run `f` on `size` ranks, returning per-rank results *and* per-rank
    /// operation traces (for the machine performance model).
    pub fn run_traced<R, F>(size: usize, f: F) -> (Vec<R>, Vec<PhaseTrace>)
    where
        R: Send,
        F: Fn(&Rank) -> R + Sync,
    {
        let pairs = Comm::run(size, |rank| {
            let r = f(rank);
            let trace = rank.perf.borrow().snapshot();
            (r, trace)
        });
        let mut results = Vec::with_capacity(pairs.len());
        let mut traces = Vec::with_capacity(pairs.len());
        for (r, t) in pairs {
            results.push(r);
            traces.push(t);
        }
        (results, traces)
    }
}

/// Run `f` on one thread per transport, the transport of rank `r` at
/// index `r`, and return the results in rank order. A rank that panics
/// fences its peers: its transport, dropped while the thread unwinds,
/// tells every peer it is gone (the in-process one queues
/// [`RecvEvent::PeerGone`], a socket's streams close), so a receive
/// pending on it fails with [`CommError::Disconnected`] within
/// milliseconds instead of waiting out [`RECV_TIMEOUT`]. The panic
/// re-raised here is the first one, not a peer's "disconnected" that it
/// caused.
fn run_ranks<R, F>(transports: Vec<Box<dyn Transport>>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Rank) -> R + Sync,
{
    let first_panic = FirstPanic(AtomicUsize::new(usize::MAX));
    std::thread::scope(|scope| {
        let (f, first_panic) = (&f, &first_panic);
        let handles = transports.into_iter().enumerate().map(|(id, transport)| {
            scope.spawn(move || {
                let rank = Rank::new(transport);
                // Declared after `rank`, so it drops first: the claim is
                // made before the rank's transport tells its peers that
                // it is gone.
                let _claim = PanicClaim { id, first_panic };
                let out = f(&rank);
                rank.finalize();
                out
            })
        });
        first_panic.join(handles.collect())
    })
}

/// Which rank of a job run as threads of this process panicked first:
/// the panic to re-raise, since a rank that dies makes its peers fail
/// too, and one of them may be joined before it.
struct FirstPanic(AtomicUsize);

impl FirstPanic {
    /// Record rank `id` as panicking unless another rank already is. A
    /// rank's drop guard calls this while unwinding, before its peers
    /// can learn that it is gone: the rest are (or may be) consequences.
    fn claim(&self, id: usize) {
        let _ = self.0.compare_exchange(usize::MAX, id, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Join every rank thread and return the results in rank order, or
    /// re-raise the first claimed panic (the first joined one if no rank
    /// claimed, i.e. it died before its guard existed).
    fn join<R>(&self, handles: Vec<std::thread::ScopedJoinHandle<'_, R>>) -> Vec<R> {
        let mut results = Vec::with_capacity(handles.len());
        let mut panics = Vec::new();
        for (id, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(r) => results.push(r),
                Err(e) => panics.push((id, e)),
            }
        }
        if !panics.is_empty() {
            let first = self.0.load(Ordering::SeqCst);
            let at = panics.iter().position(|(id, _)| *id == first).unwrap_or(0);
            std::panic::resume_unwind(panics.swap_remove(at).1);
        }
        results
    }
}

/// Drop guard of one rank thread (see [`run_ranks`]): claims the first
/// panic.
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

/// The in-process backend: payloads move as `Box<dyn Any>` over std mpsc
/// channels. No bytes are ever serialized.
struct InprocTransport {
    rank: usize,
    size: usize,
    txs: Arc<Vec<Sender<RecvEvent>>>,
    rx: Receiver<RecvEvent>,
}

impl InprocTransport {
    /// One transport per rank of a `size`-rank job, in rank order: one
    /// channel per rank, whose senders every rank holds.
    fn mesh(size: usize) -> Vec<Box<dyn Transport>> {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..size).map(|_| channel::<RecvEvent>()).unzip();
        let txs = Arc::new(txs);
        let transport = |(rank, rx)| -> Box<dyn Transport> {
            Box::new(InprocTransport { rank, size, txs: Arc::clone(&txs), rx })
        };
        rxs.into_iter().enumerate().map(transport).collect()
    }
}

/// A rank whose thread panics fences its peers from here: the event
/// queues behind every message it sent (same sender thread). A peer that
/// is gone itself has no receiver left; nothing to tell it.
impl Drop for InprocTransport {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for (peer, tx) in self.txs.iter().enumerate() {
                if peer != self.rank {
                    let _ = tx.send(RecvEvent::PeerGone(self.rank));
                }
            }
        }
    }
}

impl Transport for InprocTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn is_wire(&self) -> bool {
        false
    }

    fn send(&self, dst: usize, tag: Tag, payload: Payload) {
        let env = Envelope { src: self.rank, tag, payload };
        // Receivers only disappear if the destination rank has panicked;
        // propagating a panic of our own is the clearest failure mode.
        self.txs[dst]
            .send(RecvEvent::Msg(env))
            .unwrap_or_else(|_| panic!("rank {}: send to dead rank {dst}", self.rank));
    }

    fn try_recv_next(&self) -> Option<RecvEvent> {
        self.rx.try_recv().ok()
    }

    fn recv_next(&self, timeout: Duration) -> Result<RecvEvent, RecvTimeout> {
        // A disconnected channel cannot happen while this rank holds its
        // own sender (it does, in `txs`); map it to a timeout for safety.
        self.rx.recv_timeout(timeout).map_err(|_| RecvTimeout)
    }
}

/// Handle to one simulated MPI rank. Not `Sync`: each rank thread owns its
/// handle exclusively, exactly like an MPI process owns its communicator.
/// It is also the rank's one context: its phase label and perf ledger,
/// its telemetry recorder and its armed fault plan live here, and every
/// instrumented layer reaches them through the `&Rank` it already takes.
pub struct Rank {
    transport: Box<dyn Transport>,
    pending: RefCell<Vec<Envelope>>,
    /// Peers whose `PeerGone` event has been consumed. Because a
    /// transport queues everything a peer sent *before* its gone-event,
    /// a peer in this set can never produce a new match: later receives
    /// from it fail fast instead of waiting out the deadlock timeout.
    dead: RefCell<Vec<usize>>,
    coll_seq: Cell<Tag>,
    user_tag_seq: Cell<Tag>,
    perf: RefCell<PerfRecorder>,
    /// User tags allocated with a non-default [`TagClass`] (halo tags).
    /// Tags agree across ranks (collective allocation order), so both
    /// endpoints classify an edge identically.
    tag_classes: RefCell<HashMap<Tag, TagClass>>,
    /// This rank's recorder (disabled = no-op, and no clock is read).
    telemetry: RefCell<telemetry::Telemetry>,
    /// The armed fault plan (see `faults.rs`); `None` = no faults.
    pub(crate) faults: RefCell<Option<Vec<Rule>>>,
}

impl Rank {
    pub(crate) fn new(transport: Box<dyn Transport>) -> Rank {
        Rank {
            transport,
            pending: RefCell::new(Vec::new()),
            dead: RefCell::new(Vec::new()),
            coll_seq: Cell::new(0),
            user_tag_seq: Cell::new(0),
            perf: RefCell::new(PerfRecorder::new()),
            tag_classes: RefCell::new(HashMap::new()),
            telemetry: RefCell::new(telemetry::Telemetry::disabled()),
            faults: RefCell::new(None),
        }
    }

    pub(crate) fn finalize(&self) {
        self.transport.finalize();
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// Send a typed message to `dst`. Self-sends are allowed and are not
    /// counted as network traffic.
    pub fn send<T: Message>(&self, dst: usize, tag: Tag, msg: T) {
        assert!(tag < INTERNAL_TAG_BASE, "user tag {tag} is in the reserved range");
        self.send_raw(dst, tag, msg, true);
    }

    fn send_raw<T: Message>(&self, dst: usize, tag: Tag, msg: T, record: bool) {
        let me = self.rank();
        assert!(dst < self.size(), "send to rank {dst} out of range 0..{}", self.size());
        if dst != me {
            let bytes = msg.wire_bytes() as u64;
            let mut rec = self.perf.borrow_mut();
            if record {
                rec.message(bytes);
            }
            // The comm matrix sees *every* off-rank message, including
            // collective-internal traffic (classified by tag), unlike the
            // legacy msgs/msg_bytes counters which collectives hide.
            rec.edge(me, dst, self.class_of(tag), bytes);
            // Send-initiation timestamp for the timeline (schema v5);
            // only read when telemetry is enabled on this rank.
            if let Some(t) = self.now_secs() {
                rec.edge_stamp(me, dst, self.class_of(tag), t);
            }
        }
        let clock = if dst != me { self.comm_clock() } else { None };
        // Self-sends never cross an address space: keep them local (and
        // unserialized) on every transport.
        let payload = if self.transport.is_wire() && dst != me {
            Payload::Wire(WireFrame {
                type_id: T::wire_id(),
                bytes: encode_payload(&msg),
            })
        } else {
            Payload::Local(Box::new(msg))
        };
        self.transport.send(dst, tag, payload);
        if let Some(t0) = clock {
            self.perf.borrow_mut().comm_transfer(t0.elapsed().as_secs_f64());
        }
    }

    /// Blocking receive of a typed message from `src` with matching `tag`.
    ///
    /// # Panics
    ///
    /// Panics if the matching message's payload has a different type or
    /// fails to decode, if the peer disconnects, or if no message arrives
    /// within the deadlock timeout. Use [`Rank::try_recv`] to surface
    /// those failures as a [`CommError`] instead.
    pub fn recv<T: Message>(&self, src: usize, tag: Tag) -> T {
        self.try_recv(src, tag).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Blocking receive that surfaces timeout, decode, and disconnect
    /// failures as a typed [`CommError`] instead of panicking, so they
    /// can feed the solver's resilience layer.
    pub fn try_recv<T: Message>(&self, src: usize, tag: Tag) -> Result<T, CommError> {
        self.recv_within(src, tag, RECV_TIMEOUT)
    }

    /// The receive under [`Rank::try_recv`] and the collectives. The
    /// deadlock timeout is a parameter so that a test can reach the
    /// timeout path in milliseconds; everything else passes
    /// [`RECV_TIMEOUT`].
    pub(crate) fn recv_within<T: Message>(
        &self,
        src: usize,
        tag: Tag,
        timeout: Duration,
    ) -> Result<T, CommError> {
        // Check messages that arrived earlier but did not match then.
        // `remove` (not `swap_remove`!) keeps the queue in arrival order:
        // per-(src, tag) FIFO is what lets repeated exchanges on one tag
        // match up — the same ordering guarantee MPI gives.
        {
            let mut pending = self.pending.borrow_mut();
            if let Some(pos) = pending.iter().position(|e| e.src == src && e.tag == tag) {
                let env = pending.remove(pos);
                drop(pending);
                return self.extract(env);
            }
        }
        // A peer already known dead cannot produce new messages; fail
        // fast instead of waiting out the timeout. (Everything it sent
        // before dying was drained into `pending` above.)
        if self.dead.borrow().contains(&src) {
            return Err(CommError::Disconnected { rank: self.rank(), peer: src });
        }
        loop {
            // Wait time is `wait_next` itself, polling included —
            // matching a pending message above costs no wait, and decode
            // time is accounted separately as transfer time in `extract`.
            let clock = self.comm_clock();
            let event = self.wait_next(timeout);
            if let Some(t0) = clock {
                self.perf.borrow_mut().comm_wait(t0.elapsed().as_secs_f64());
            }
            match event {
                Err(RecvTimeout) => {
                    return Err(CommError::Timeout { rank: self.rank(), src, tag });
                }
                Ok(RecvEvent::PeerGone(peer)) => {
                    // Everything the peer sent was queued before this
                    // event, so a match can no longer arrive.
                    self.dead.borrow_mut().push(peer);
                    if peer == src {
                        return Err(CommError::Disconnected { rank: self.rank(), peer });
                    }
                }
                Ok(RecvEvent::Msg(env)) => {
                    if env.src == src && env.tag == tag {
                        return self.extract(env);
                    }
                    self.pending.borrow_mut().push(env);
                }
            }
        }
    }

    /// The one place a rank blocks: every receive — point-to-point, both
    /// halves of a split-phase halo, every hop of a collective, on either
    /// transport — waits here. Poll the event queue, spinning in between
    /// and yielding the CPU at every [`POLLS_PER_YIELD`]-th poll, then
    /// park on it for up to `timeout` (bounds and their measurement:
    /// [`POLLS_BEFORE_PARK`]). No clock is read. The two counters say
    /// afterwards which waits were message latency (satisfied while
    /// polling) and which were another rank running late (parked).
    fn wait_next(&self, timeout: Duration) -> Result<RecvEvent, RecvTimeout> {
        for poll in 1..=POLLS_BEFORE_PARK {
            if let Some(event) = self.transport.try_recv_next() {
                self.telemetry.borrow().counter("parcomm.recv_polled", 1);
                return Ok(event);
            }
            if poll % POLLS_PER_YIELD == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let event = self.transport.recv_next(timeout)?;
        self.telemetry.borrow().counter("parcomm.recv_parked", 1);
        Ok(event)
    }

    /// Unwrap an envelope into the expected payload type: downcast for
    /// in-process payloads, type-id check + bit-exact decode for wire
    /// payloads.
    fn extract<T: Message>(&self, env: Envelope) -> Result<T, CommError> {
        let rank = self.rank();
        let (src, tag) = (env.src, env.tag);
        let clock = if src != rank { self.comm_clock() } else { None };
        let out: Result<T, CommError> = match env.payload {
            Payload::Local(b) => b
                .downcast::<T>()
                .map(|b| *b)
                .map_err(|_| CommError::TypeMismatch { rank, src, tag }),
            Payload::Wire(frame) => {
                if frame.type_id != T::wire_id() {
                    Err(CommError::TypeMismatch { rank, src, tag })
                } else {
                    crate::message::decode_payload(&frame.bytes).map_err(|e| CommError::Decode {
                        rank,
                        src,
                        tag,
                        detail: e.detail,
                    })
                }
            }
        };
        if src != rank {
            let mut rec = self.perf.borrow_mut();
            if let Ok(msg) = &out {
                // Count the typed message's wire_bytes — the same quantity
                // the sender counted, on both transports, so a healthy
                // run's edges are symmetric by construction.
                rec.edge(src, rank, self.class_of(tag), msg.wire_bytes() as u64);
                // Receive-completion timestamp for the timeline.
                if let Some(t) = self.now_secs() {
                    rec.edge_stamp(src, rank, self.class_of(tag), t);
                }
            }
            if let Some(t0) = clock {
                rec.comm_transfer(t0.elapsed().as_secs_f64());
            }
        }
        out
    }

    pub(crate) fn next_internal_tag(&self) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        INTERNAL_TAG_BASE + (seq & 0x00ff_ffff)
    }

    /// Allocate a fresh user tag from a per-rank counter. Objects that
    /// own persistent communication patterns (distributed matrices,
    /// halo-exchange plans) take one at construction; since ranks
    /// construct such objects collectively in the same order, the
    /// resulting tags agree across ranks — the moral equivalent of a
    /// dedicated MPI communicator per object, which prevents messages of
    /// different objects from ever matching each other.
    pub fn alloc_tag(&self) -> Tag {
        let seq = self.user_tag_seq.get();
        self.user_tag_seq.set(seq.wrapping_add(1));
        0x1000 + (seq % (INTERNAL_TAG_BASE - 0x1000))
    }

    /// [`Rank::alloc_tag`], additionally classifying the tag's traffic for
    /// the per-peer communication matrix (e.g. halo-exchange plans
    /// allocate their tag with [`TagClass::Halo`]). Since tags are
    /// allocated collectively in the same order on every rank, both
    /// endpoints of an edge classify it identically.
    pub fn alloc_tag_for(&self, class: TagClass) -> Tag {
        let tag = self.alloc_tag();
        self.tag_classes.borrow_mut().insert(tag, class);
        tag
    }

    /// Traffic class of a tag: a class given at allocation wins, reserved
    /// internal tags are collective traffic, everything else is p2p.
    fn class_of(&self, tag: Tag) -> TagClass {
        if let Some(&c) = self.tag_classes.borrow().get(&tag) {
            return c;
        }
        if tag >= INTERNAL_TAG_BASE {
            TagClass::Collective
        } else {
            TagClass::P2p
        }
    }

    /// Run one collective operation's body, recording per-kind
    /// participation stats and (when comm timing is enabled) the
    /// operation's wall-clock latency. `f` returns the result plus the
    /// bytes this rank contributed.
    pub(crate) fn collective_scope<R>(
        &self,
        kind: &'static str,
        f: impl FnOnce() -> (R, u64),
    ) -> R {
        let clock = self.comm_clock();
        let (out, bytes) = f();
        let secs = clock.map(|t0| t0.elapsed().as_secs_f64());
        let mut rec = self.perf.borrow_mut();
        rec.collective_kind(kind, bytes, secs);
        if let Some(t) = self.now_secs() {
            rec.collective_stamp(kind, t);
        }
        out
    }

    pub(crate) fn send_internal<T: Message>(&self, dst: usize, tag: Tag, msg: T) {
        self.send_raw(dst, tag, msg, false);
    }

    pub(crate) fn recv_internal<T: Message>(&self, src: usize, tag: Tag) -> T {
        // Collective-internal traffic: a failure here is a runtime bug,
        // not a recoverable solver condition — keep the panic.
        self.recv_within(src, tag, RECV_TIMEOUT).unwrap_or_else(|e| panic!("{e}"))
    }

    pub(crate) fn record_collective(&self, bytes: u64) {
        self.perf.borrow_mut().collective(bytes);
    }

    pub(crate) fn with_recorder<R>(&self, f: impl FnOnce(&mut PerfRecorder) -> R) -> R {
        f(&mut self.perf.borrow_mut())
    }

    // ---- telemetry ---------------------------------------------------------

    /// Make `tel` this rank's recorder and return the one it replaces.
    pub fn set_telemetry(&self, tel: telemetry::Telemetry) -> telemetry::Telemetry {
        self.telemetry.replace(tel)
    }

    /// This rank's recorder: a cheap clone of the shared handle.
    pub fn telemetry(&self) -> telemetry::Telemetry {
        self.telemetry.borrow().clone()
    }

    /// Seconds since the recorder's epoch; `None`, with no clock read,
    /// when telemetry is off.
    fn now_secs(&self) -> Option<f64> {
        self.telemetry.borrow().elapsed_secs()
    }

    /// Clock handle for comm wait/transfer and kernel timing. `None` —
    /// no clock is read at all — unless telemetry is enabled on this
    /// rank, which keeps disabled runs free of any timing syscalls (the
    /// determinism discipline shared with the rest of the telemetry
    /// stack).
    fn comm_clock(&self) -> Option<Instant> {
        self.telemetry.borrow().is_enabled().then(Instant::now)
    }

    // ---- performance recording -------------------------------------------

    /// Open a recording scope for kernel `name` — the one way a kernel
    /// enters the perf ledger. Every [`KernelScope::launch`] inside it is
    /// accumulated once, into the phase current at that moment (the
    /// [`PhaseTrace`] the `machine` model prices) and into the name's
    /// `kernel_perf` row; the row also receives the scope's wall time
    /// when telemetry is enabled on this rank (the clock is never read
    /// otherwise). Hold the scope across the work it prices and
    /// nothing else: a blocking receive inside it would be counted as
    /// kernel time, and a send's encode + enqueue is counted twice (here
    /// and in `transfer_secs`) — only the two pack kernels, whose
    /// copy-out is interleaved with their sends, accept that. Do not
    /// open a scope for an empty launch: it reads the clock for nothing.
    pub fn kernel(&self, name: &'static str) -> KernelScope<'_> {
        KernelScope { perf: &self.perf, name, start: self.comm_clock() }
    }

    /// Run `f` with the perf phase label set to `name`, restoring the
    /// previous label afterwards.
    pub fn with_phase<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        let prev = self.perf.borrow_mut().set_phase(name);
        let out = f();
        self.perf.borrow_mut().set_phase(&prev);
        out
    }

    /// Current phase label.
    pub fn phase_name(&self) -> String {
        self.perf.borrow().phase_name().to_string()
    }

    /// Snapshot of this rank's accumulated trace.
    pub fn trace_snapshot(&self) -> PhaseTrace {
        self.perf.borrow().snapshot()
    }

    /// This rank's accumulated perf trace as telemetry events: one
    /// [`telemetry::Event::PhasePerf`] per phase label, one
    /// [`telemetry::Event::CommEdge`] per (src, dst, class) traffic edge
    /// this rank observed, and one [`telemetry::Event::Collective`] per
    /// collective kind — each group in sorted order (so the export is
    /// deterministic regardless of execution order).
    ///
    /// **Label contract** (checked by `telemetry::validate_stream`, which
    /// `exawind-perf validate` runs): a label containing `/` is a
    /// `Phase::trace_label`-style span reference (`continuity/solve`)
    /// and must correspond to a span this rank opened *and closed* —
    /// i.e. emit these events only for phases entered under a matching
    /// telemetry span. Bare labels (the default `other` phase, ad-hoc
    /// `with_phase` scopes) carry no span reference and are exempt.
    ///
    /// With telemetry enabled while kernels ran, one
    /// [`telemetry::Event::KernelPerf`] per kernel name follows the
    /// `phase_perf` rows: the same launches by name, with wall time. Per
    /// rank the two groups sum to identical launches, bytes and flops
    /// (also checked by `validate_stream`).
    pub fn telemetry_events(&self) -> Vec<telemetry::Event> {
        let me = self.rank();
        let trace = self.trace_snapshot();
        let mut events: Vec<telemetry::Event> = trace
            .phase_names()
            .into_iter()
            .map(|label| {
                let t = trace.phase(&label);
                telemetry::Event::PhasePerf {
                    rank: me,
                    label,
                    kernel_launches: t.kernel_launches,
                    kernel_bytes: t.kernel_bytes,
                    kernel_flops: t.kernel_flops,
                    msgs: t.msgs,
                    msg_bytes: t.msg_bytes,
                    collectives: t.collectives,
                    collective_bytes: t.collective_bytes,
                    wait_secs: t.wait_secs,
                    transfer_secs: t.transfer_secs,
                }
            })
            .collect();
        let rec = self.perf.borrow();
        if rec.kernels_timed {
            for (&name, k) in &rec.kernels {
                events.push(telemetry::Event::KernelPerf {
                    rank: me,
                    kernel: name.to_string(),
                    calls: k.calls,
                    secs: k.secs,
                    bytes: k.bytes,
                    flops: k.flops,
                    dofs: k.dofs,
                });
            }
        }
        for (&(src, dst, class), e) in &rec.edges {
            let window = rec.edge_times.get(&(src, dst, class));
            events.push(telemetry::Event::CommEdge {
                rank: me,
                src,
                dst,
                class: class.label().to_string(),
                msgs: e.msgs,
                bytes: e.bytes,
                t_first: window.map(|w| w.0),
                t_last: window.map(|w| w.1),
            });
        }
        for (&kind, s) in &rec.coll_kinds {
            let window = rec.coll_times.get(kind);
            events.push(telemetry::Event::Collective {
                rank: me,
                kind: kind.to_string(),
                count: s.count,
                bytes: s.bytes,
                secs: s.latency.total(),
                buckets: s.latency.buckets(),
                t_first: window.map(|w| w.0),
                t_last: window.map(|w| w.1),
            });
        }
        events
    }
}

/// Recording scope of one named kernel, opened by [`Rank::kernel`].
#[must_use = "a kernel scope records nothing until `launch` is called"]
pub struct KernelScope<'a> {
    perf: &'a RefCell<PerfRecorder>,
    name: &'static str,
    start: Option<Instant>,
}

impl KernelScope<'_> {
    /// Record one launch processing `dofs` degrees of freedom at the
    /// `(bytes, flops)` price `sparse_kit::cost` gives it.
    pub fn launch(&self, dofs: usize, (bytes, flops): (u64, u64)) {
        self.perf.borrow_mut().launch(self.name, dofs as u64, bytes, flops);
    }
}

impl Drop for KernelScope<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            self.perf.borrow_mut().kernel_secs(self.name, t0.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every core Rank test runs over both backends: the transport must
    /// be invisible to correctly written programs.
    fn both_transports(f: impl Fn(TransportKind)) {
        f(TransportKind::Inproc);
        f(TransportKind::Socket);
    }

    #[test]
    fn single_rank_runs() {
        both_transports(|k| {
            let out = Comm::run_with(k, 1, |rank| rank.rank() + rank.size());
            assert_eq!(out, vec![1]);
        });
    }

    #[test]
    fn ring_pass() {
        both_transports(|k| {
            let n = 5;
            let out = Comm::run_with(k, n, |rank| {
                let next = (rank.rank() + 1) % n;
                let prev = (rank.rank() + n - 1) % n;
                rank.send(next, 7, rank.rank() as u64);
                rank.recv::<u64>(prev, 7)
            });
            assert_eq!(out, vec![4, 0, 1, 2, 3]);
        });
    }

    #[test]
    fn same_tag_messages_keep_fifo_order_through_pending_queue() {
        // Regression test: rank 0 sends three same-tag messages plus a
        // decoy; rank 1 first receives the decoy (forcing all three into
        // the pending queue), then must get the three in send order.
        // A swap_remove-based pending queue returns them out of order.
        both_transports(|k| {
            let out = Comm::run_with(k, 2, |rank| {
                if rank.rank() == 0 {
                    rank.send(1, 7, vec![1u64]);
                    rank.send(1, 7, vec![2u64, 2]);
                    rank.send(1, 7, vec![3u64, 3, 3]);
                    rank.send(1, 9, 99u64); // decoy, received first
                    Vec::new()
                } else {
                    let _decoy: u64 = rank.recv(0, 9);
                    let a: Vec<u64> = rank.recv(0, 7);
                    let b: Vec<u64> = rank.recv(0, 7);
                    let c: Vec<u64> = rank.recv(0, 7);
                    vec![a.len(), b.len(), c.len()]
                }
            });
            assert_eq!(out[1], vec![1, 2, 3]);
        });
    }

    #[test]
    fn out_of_order_tags_are_matched() {
        both_transports(|k| {
            let out = Comm::run_with(k, 2, |rank| {
                if rank.rank() == 0 {
                    rank.send(1, 1, 10u64);
                    rank.send(1, 2, 20u64);
                    0
                } else {
                    // Receive in the opposite order from the sends.
                    let b = rank.recv::<u64>(0, 2);
                    let a = rank.recv::<u64>(0, 1);
                    (b * 100 + a) as usize
                }
            });
            assert_eq!(out[1], 2010);
        });
    }

    #[test]
    fn self_send_is_delivered_and_not_counted() {
        both_transports(|k| {
            let out = Comm::run_with(k, 1, |rank| {
                rank.send(0, 3, vec![1.0f64, 2.0]);
                let v = rank.recv::<Vec<f64>>(0, 3);
                let trace = rank.trace_snapshot();
                (v, trace.total().msgs)
            });
            assert_eq!(out[0].0, vec![1.0, 2.0]);
            assert_eq!(out[0].1, 0);
        });
    }

    #[test]
    fn messages_are_traced_with_bytes() {
        let (_, traces) = Comm::run_traced(2, |rank| {
            if rank.rank() == 0 {
                rank.with_phase("xfer", || rank.send(1, 9, vec![0u64; 16]));
            } else {
                let _ = rank.recv::<Vec<u64>>(0, 9);
            }
        });
        let t0 = traces[0].phase("xfer");
        assert_eq!(t0.msgs, 1);
        assert_eq!(t0.msg_bytes, 128);
        assert!(traces[1].total().msgs == 0);
    }

    #[test]
    fn edges_are_recorded_symmetrically() {
        use crate::perf::EdgeStats;
        both_transports(|k| {
            let out = Comm::run_with(k, 2, |rank| {
                if rank.rank() == 0 {
                    rank.send(1, 7, vec![1.0f64; 10]);
                } else {
                    let _: Vec<f64> = rank.recv(0, 7);
                }
                rank.allreduce_sum(1);
                rank.with_recorder(|rec| rec.edges.clone())
            });
            // Sender view (rank 0) and receiver view (rank 1) agree.
            let s = out[0][&(0, 1, TagClass::P2p)];
            let r = out[1][&(0, 1, TagClass::P2p)];
            assert_eq!(s, EdgeStats { msgs: 1, bytes: 80 });
            assert_eq!(s, r);
            // Collective-internal traffic shows up under its own class.
            assert!(out[0].keys().any(|&(_, _, c)| c == TagClass::Collective));
            assert!(out[1].keys().any(|&(_, _, c)| c == TagClass::Collective));
        });
    }

    #[test]
    fn alloc_tag_for_classifies_edge_traffic() {
        use crate::perf::EdgeStats;
        both_transports(|k| {
            let out = Comm::run_with(k, 2, |rank| {
                let tag = rank.alloc_tag_for(TagClass::Halo);
                if rank.rank() == 0 {
                    rank.send(1, tag, 42u64);
                } else {
                    let _: u64 = rank.recv(0, tag);
                }
                rank.with_recorder(|rec| rec.edges.clone())
            });
            let expect = EdgeStats { msgs: 1, bytes: 8 };
            assert_eq!(out[0][&(0, 1, TagClass::Halo)], expect);
            assert_eq!(out[1][&(0, 1, TagClass::Halo)], expect);
        });
    }

    #[test]
    fn telemetry_events_include_comm_edges_and_collectives() {
        let out = Comm::run(2, |rank| {
            if rank.rank() == 0 {
                rank.send(1, 3, 1u64);
            } else {
                let _: u64 = rank.recv(0, 3);
            }
            rank.allreduce_sum(1);
            rank.barrier();
            rank.telemetry_events()
        });
        for events in &out {
            let tags: Vec<&str> = events.iter().map(|e| e.type_tag()).collect();
            assert!(tags.contains(&"comm_edge"), "{tags:?}");
            assert!(tags.contains(&"collective"), "{tags:?}");
        }
    }

    #[test]
    fn comm_timing_stays_zero_without_telemetry() {
        let out = Comm::run(2, |rank| {
            if rank.rank() == 0 {
                rank.send(1, 3, vec![0u64; 64]);
            } else {
                let _: Vec<u64> = rank.recv(0, 3);
            }
            rank.barrier();
            rank.trace_snapshot().total()
        });
        for t in &out {
            assert_eq!(t.wait_secs, 0.0);
            assert_eq!(t.transfer_secs, 0.0);
        }
    }

    #[test]
    fn comm_timing_recorded_when_telemetry_enabled() {
        let out = Comm::run(2, |rank| {
            rank.set_telemetry(telemetry::Telemetry::enabled(rank.rank()));
            if rank.rank() == 0 {
                // Make the receiver measurably wait.
                std::thread::sleep(Duration::from_millis(5));
                rank.send(1, 3, vec![0u64; 4096]);
                let _: u64 = rank.recv(1, 4);
            } else {
                let _: Vec<u64> = rank.recv(0, 3);
                std::thread::sleep(Duration::from_millis(5));
                rank.send(0, 4, 1u64);
            }
            rank.trace_snapshot().total()
        });
        // Each rank blocked ≥5ms in a receive.
        for t in &out {
            assert!(t.wait_secs >= 0.004, "wait_secs = {}", t.wait_secs);
            assert!(t.transfer_secs > 0.0, "transfer_secs = {}", t.transfer_secs);
        }
    }

    /// Counter totals of `tel` so far: receives satisfied while polling,
    /// and after parking.
    fn wait_exits(tel: telemetry::Telemetry) -> (u64, u64) {
        let events = tel.finish();
        let total = |wanted: &str| {
            events
                .iter()
                .filter_map(|e| match e {
                    telemetry::Event::Counter { name, value, .. } if name == wanted => Some(*value),
                    _ => None,
                })
                .sum()
        };
        (total("parcomm.recv_polled"), total("parcomm.recv_parked"))
    }

    #[test]
    fn message_is_delivered_in_fifo_order_wherever_in_the_wait_it_arrives() {
        // Four messages on two interleaved tags reach `wait_next` (i)
        // before the receive begins, (ii) ~50 µs in, while it polls, and
        // (iii) after 20 ms of silence, long after it parked. The delays
        // steer towards a branch, they cannot force one on a loaded host,
        // so only (i) pins its exit: a queued message is found by the
        // first poll and never parks. The arrivals are staged by a barrier
        // outside the transport: a `rank.barrier()` receive would move the
        // queued messages into `pending` before the receives begin.
        both_transports(|k| {
            for delay in [None, Some(Duration::from_micros(50)), Some(Duration::from_millis(20))] {
                let staged = std::sync::Barrier::new(2);
                let out = Comm::run_with(k, 2, |rank| {
                    if rank.rank() == 0 {
                        if let Some(d) = delay {
                            staged.wait();
                            std::thread::sleep(d);
                        }
                        rank.send(1, 3, vec![1.5f64, -0.0]);
                        rank.send(1, 4, 7u64);
                        rank.send(1, 3, vec![2.5f64]);
                        rank.send(1, 4, 8u64);
                        if delay.is_none() {
                            // Released only after all four are sent
                            // (inproc: in rank 1's channel; socket:
                            // written to rank 1's stream).
                            staged.wait();
                        }
                        None
                    } else {
                        staged.wait();
                        rank.set_telemetry(telemetry::Telemetry::enabled(1));
                        // Tag 4 first: the tag-3 message ahead of it goes
                        // through the pending queue.
                        assert_eq!(rank.recv::<u64>(0, 4), 7);
                        let first: Vec<f64> = rank.recv(0, 3);
                        let second: Vec<f64> = rank.recv(0, 3);
                        assert_eq!(rank.recv::<u64>(0, 4), 8);
                        assert_eq!(first.len(), 2);
                        assert_eq!(first[1].to_bits(), (-0.0f64).to_bits());
                        assert_eq!(second, vec![2.5]);
                        let tel = rank.set_telemetry(telemetry::Telemetry::disabled());
                        Some(wait_exits(tel))
                    }
                });
                let (polled, parked) = out[1].unwrap();
                assert_eq!(polled + parked, 4, "{k} {delay:?}: one wait per message");
                if delay.is_none() {
                    assert_eq!(parked, 0, "{k}: a queued message must not park");
                }
            }
        });
    }

    #[test]
    fn oversubscribed_ring_and_allreduce_storm_finishes() {
        // 8 ranks on however few cores the host has (2 on the reference
        // host): a waiting rank's poll window must hand the core to the
        // rank it waits for, neither livelock nor starve it. 300 rounds
        // take ~0.1 s there; the bound is for a loaded CI host.
        both_transports(|k| {
            let n = 8;
            let t0 = Instant::now();
            let out = Comm::run_with(k, n, |rank| {
                let (next, prev) = ((rank.rank() + 1) % n, (rank.rank() + n - 1) % n);
                let mut acc = 0u64;
                for round in 0..300u64 {
                    rank.send(next, 7, round + rank.rank() as u64);
                    acc += rank.recv::<u64>(prev, 7);
                    acc += rank.allreduce_sum(round);
                }
                acc
            });
            let rounds: u64 = (0..300).sum();
            for (r, acc) in out.iter().enumerate() {
                let prev = ((r + n - 1) % n) as u64;
                assert_eq!(*acc, rounds + 300 * prev + n as u64 * rounds);
            }
            let secs = t0.elapsed().as_secs_f64();
            assert!(secs < 30.0, "{k}: 8-rank storm took {secs:.1} s");
        });
    }

    #[test]
    fn receive_with_no_sender_times_out_after_polling_and_parking() {
        both_transports(|k| {
            let out = Comm::run_with(k, 2, |rank| {
                if rank.rank() == 1 {
                    return None;
                }
                let t0 = Instant::now();
                let res = rank.recv_within::<u64>(1, 5, Duration::from_millis(30));
                Some((res, t0.elapsed()))
            });
            let (res, waited) = out[0].clone().unwrap();
            assert_eq!(res, Err(CommError::Timeout { rank: 0, src: 1, tag: 5 }));
            assert!(waited >= Duration::from_millis(30), "{k}: gave up after {waited:?}");
        });
    }

    #[test]
    fn panicking_rank_fences_its_peers_and_its_panic_is_the_one_raised() {
        use std::sync::Mutex;
        both_transports(|k| {
            let seen = Mutex::new(Vec::new());
            let t0 = Instant::now();
            let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Comm::run_with(k, 3, |rank| match rank.rank() {
                    2 => {
                        rank.send(1, 3, 42u64);
                        panic!("rank 2 assertion");
                    }
                    1 => {
                        // What rank 2 sent before it died still arrives;
                        // only then is it gone, and stays gone.
                        let got = rank.try_recv::<u64>(2, 3);
                        let gone = rank.try_recv::<u64>(2, 3);
                        let still = rank.try_recv::<u64>(2, 9);
                        seen.lock().unwrap().push((got, gone, still, t0.elapsed()));
                    }
                    // The panicking receive: a second, consequential panic
                    // on the rank that is joined first.
                    _ => drop(rank.recv::<u64>(2, 3)),
                });
            }));
            let payload = raised.expect_err("the panic propagates");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"rank 2 assertion"), "{k}");
            let gone = Err(CommError::Disconnected { rank: 1, peer: 2 });
            let seen = seen.into_inner().unwrap();
            let (got, first, still, waited) = &seen[0];
            assert_eq!((got, first, still), (&Ok(42), &gone, &gone), "{k}");
            assert!(*waited < Duration::from_secs(1), "{k}: fenced after {waited:?}");
        });
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        both_transports(|k| {
            let counter = AtomicUsize::new(0);
            Comm::run_with(k, 4, |rank| {
                counter.fetch_add(1, Ordering::SeqCst);
                rank.barrier();
                // After the barrier every rank must observe all increments.
                assert_eq!(counter.load(Ordering::SeqCst), 4);
            });
        });
    }

    #[test]
    fn repeated_barriers_stay_aligned() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        both_transports(|k| {
            let counter = AtomicUsize::new(0);
            Comm::run_with(k, 3, |rank| {
                for round in 1..=5 {
                    counter.fetch_add(1, Ordering::SeqCst);
                    rank.barrier();
                    assert!(counter.load(Ordering::SeqCst) >= round * 3);
                    rank.barrier();
                }
            });
        });
    }

    #[test]
    fn try_recv_surfaces_type_mismatch_as_error() {
        both_transports(|k| {
            let out = Comm::run_with(k, 2, |rank| {
                if rank.rank() == 0 {
                    rank.send(1, 7, vec![1.0f64]);
                    None
                } else {
                    // Sent Vec<f64>, received as Vec<u64>: typed error, no panic.
                    Some(rank.try_recv::<Vec<u64>>(0, 7))
                }
            });
            match out[1].as_ref().unwrap() {
                Err(CommError::TypeMismatch { rank: 1, src: 0, tag: 7 }) => {}
                other => panic!("expected TypeMismatch, got {other:?}"),
            }
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_out_of_range_panics() {
        Comm::run(2, |rank| {
            if rank.rank() == 0 {
                rank.send(5, 0, 1u64);
            }
        });
    }

    #[test]
    fn kernel_recording_lands_in_phase() {
        let out = Comm::run(1, |rank| {
            let k = rank.kernel("spmv_csr");
            rank.with_phase("spmv", || k.launch(10, (1000, 250)));
            rank.trace_snapshot()
        });
        let t = out[0].phase("spmv");
        assert_eq!(t.kernel_launches, 1);
        assert_eq!(t.kernel_bytes, 1000);
        assert_eq!(t.kernel_flops, 250);
    }

    #[test]
    fn kernel_scope_feeds_phase_and_name_views_once() {
        let out = Comm::run(1, |rank| {
            rank.set_telemetry(telemetry::Telemetry::enabled(rank.rank()));
            rank.with_phase("solve", || {
                let k = rank.kernel("jr_sweep_fused");
                for _ in 0..3 {
                    k.launch(10, (1000, 250));
                }
            });
            (rank.trace_snapshot(), rank.telemetry_events())
        });
        let (trace, events) = &out[0];
        let solve = trace.phase("solve");
        assert_eq!(solve.kernel_launches, 3);
        assert_eq!((solve.kernel_bytes, solve.kernel_flops), (3000, 750));
        let rows: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                telemetry::Event::KernelPerf { kernel, calls, bytes, flops, dofs, secs, .. } => {
                    Some((kernel.as_str(), *calls, *bytes, *flops, *dofs, *secs))
                }
                _ => None,
            })
            .collect();
        assert_eq!(rows.len(), 1, "{rows:?}");
        let (kernel, calls, bytes, flops, dofs, secs) = rows[0];
        assert_eq!((kernel, calls, bytes, flops, dofs), ("jr_sweep_fused", 3, 3000, 750, 30));
        assert!(secs.is_finite() && secs >= 0.0);
        telemetry::validate_stream(events).unwrap_or_else(|e| panic!("{e:?}"));
    }

    #[test]
    fn kernel_scope_never_reads_the_clock_without_telemetry() {
        let out = Comm::run(1, |rank| {
            {
                let k = rank.kernel("spmv_csr");
                k.launch(10, (1000, 250));
                std::thread::sleep(Duration::from_millis(2));
            }
            let row = rank.with_recorder(|rec| rec.kernels["spmv_csr"]);
            (row, rank.telemetry_events())
        });
        let (row, events) = &out[0];
        assert_eq!((row.calls, row.bytes, row.flops), (1, 1000, 250));
        assert_eq!(row.secs, 0.0);
        assert!(events.iter().all(|e| e.type_tag() != "kernel_perf"));
        assert!(events.iter().any(|e| e.type_tag() == "phase_perf"));
    }

    #[test]
    fn nested_phases_restore() {
        let out = Comm::run(1, |rank| {
            rank.with_phase("outer", || {
                // One scope across the phase switch: each launch lands in
                // the phase current when it is recorded.
                let k = rank.kernel("k");
                k.launch(1, (1, 0));
                rank.with_phase("inner", || k.launch(1, (2, 0)));
                k.launch(1, (4, 0));
            });
            rank.trace_snapshot()
        });
        assert_eq!(out[0].phase("outer").kernel_bytes, 5);
        assert_eq!(out[0].phase("inner").kernel_bytes, 2);
    }
}
