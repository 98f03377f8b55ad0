//! Live monitoring channel between `exawind-launch` and its workers.
//!
//! Workers heartbeat compact progress frames (timestep, picard count,
//! residual, comm counters) to the launcher over a dedicated loopback TCP
//! connection, reusing the transport layer's length-prefixed frame codec
//! ([`crate::transport::Frame`]). The channel is strictly best-effort on
//! the worker side: a missing/unreachable monitor address, a failed dial,
//! or a mid-run disconnect never affects the run — monitoring must not be
//! able to kill a simulation. On the launcher side, missed heartbeats
//! drive stall detection and the last frame per rank feeds the partial
//! comm report printed on abnormal exit.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::Duration;

use crate::message::{decode_payload, encode_payload, Message};
use crate::transport::{read_frame, send_frame, Frame, FrameKind};

/// Number of `u64` words in a heartbeat payload.
const HEARTBEAT_WORDS: usize = 10;

/// One compact progress frame. Workers send one after initialization
/// (`step == 0`) and one after every completed timestep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Heartbeat {
    /// Reporting rank.
    pub rank: usize,
    /// Timesteps completed so far (0 = initialized, not yet stepped).
    pub step: u64,
    /// Picard iterations completed in the most recent step.
    pub picard: u64,
    /// Worst (max over equations) final GMRES relative residual of the
    /// most recent step; 0.0 before the first step.
    pub residual: f64,
    /// Off-rank point-to-point messages sent so far.
    pub msgs: u64,
    /// Bytes moved by those messages.
    pub bytes: u64,
    /// Collective operations entered so far.
    pub collectives: u64,
    /// Newest complete checkpoint `(generation, step)` this rank wrote
    /// or restored from; `None` before the first generation. On the
    /// wire each word travels offset by one (`0` encodes `None`), so an
    /// all-zero tail stays a valid "no checkpoint yet" frame.
    pub checkpoint: Option<(u64, u64)>,
    /// Most recent solver-health degradation verdict as
    /// `(kind code, step it fired at)` — codes from
    /// `telemetry::health::DegradationKind::code`. `None` while the
    /// detector is quiet; same +1 wire offset as `checkpoint`, so the
    /// kind code 0 stays reserved for "no verdict".
    pub health: Option<(u64, u64)>,
}

impl Heartbeat {
    /// Encode as a wire frame: the payload is a `Vec<u64>` through the
    /// same bit-exact message codec the transport uses, with the rank in
    /// the frame's `src` field.
    pub fn to_frame(&self) -> Frame {
        let (ckpt_gen, ckpt_step) = match self.checkpoint {
            Some((g, s)) => (g + 1, s + 1),
            None => (0, 0),
        };
        let (health_kind, health_step) = match self.health {
            Some((k, s)) => (k + 1, s + 1),
            None => (0, 0),
        };
        let words: Vec<u64> = vec![
            self.step,
            self.picard,
            self.residual.to_bits(),
            self.msgs,
            self.bytes,
            self.collectives,
            ckpt_gen,
            ckpt_step,
            health_kind,
            health_step,
        ];
        Frame {
            kind: FrameKind::Msg,
            src: self.rank as u32,
            tag: 0,
            type_id: <Vec<u64>>::wire_id(),
            payload: encode_payload(&words),
        }
    }

    /// Decode from a wire frame. `None` for frames that are not
    /// heartbeats (wrong kind, type id, or word count) — the monitor
    /// channel ignores rather than rejects unknown traffic.
    pub fn from_frame(frame: &Frame) -> Option<Heartbeat> {
        if frame.kind != FrameKind::Msg || frame.type_id != <Vec<u64>>::wire_id() {
            return None;
        }
        let words: Vec<u64> = decode_payload(&frame.payload).ok()?;
        if words.len() != HEARTBEAT_WORDS {
            return None;
        }
        Some(Heartbeat {
            rank: frame.src as usize,
            step: words[0],
            picard: words[1],
            residual: f64::from_bits(words[2]),
            msgs: words[3],
            bytes: words[4],
            collectives: words[5],
            checkpoint: match (words[6], words[7]) {
                (0, _) | (_, 0) => None,
                (g, s) => Some((g - 1, s - 1)),
            },
            health: match (words[8], words[9]) {
                (0, _) | (_, 0) => None,
                (k, s) => Some((k - 1, s - 1)),
            },
        })
    }
}

/// Worker-side monitor connection. All failure modes degrade to "no
/// monitoring" — construction and sends never error and never block the
/// run for more than the short dial timeout.
pub struct MonitorClient {
    stream: Option<TcpStream>,
}

impl MonitorClient {
    /// Dial the launcher's monitor endpoint. Returns a disconnected
    /// (no-op) client when there is none (`None`: not launched under a
    /// monitor) or the dial fails.
    pub fn connect(addr: Option<SocketAddr>) -> MonitorClient {
        MonitorClient { stream: addr.and_then(Self::dial) }
    }

    fn dial(addr: SocketAddr) -> Option<TcpStream> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).ok()?;
        stream.set_nodelay(true).ok();
        // A stuck launcher must not wedge the worker inside `send`.
        stream.set_write_timeout(Some(Duration::from_secs(2))).ok();
        Some(stream)
    }

    /// Best-effort send; a failed write permanently disconnects the
    /// client rather than surfacing an error.
    pub fn send(&mut self, hb: &Heartbeat) {
        if let Some(stream) = self.stream.as_mut() {
            if send_frame(stream, &hb.to_frame()).is_err() {
                self.stream = None;
            }
        }
    }
}

/// Launcher-side monitor endpoint: accepts any number of worker
/// connections on a loopback listener and funnels their heartbeats into
/// one queue, drained non-blockingly by the launcher's poll loop.
pub struct MonitorServer {
    addr: SocketAddr,
    rx: Receiver<Heartbeat>,
}

impl MonitorServer {
    /// Bind on an ephemeral loopback port and start the accept thread.
    pub fn bind() -> std::io::Result<MonitorServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let (tx, rx) = channel();
        // Accept/reader threads are detached: they block on I/O with no
        // shutdown signal and die with the launcher process. End of
        // stream, a corrupt frame, or a closed queue (receiver dropped)
        // just terminates the reader.
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let tx: Sender<Heartbeat> = tx.clone();
                std::thread::spawn(move || read_heartbeats(stream, &tx));
            }
        });
        Ok(MonitorServer { addr, rx })
    }

    /// Address workers should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drain every heartbeat received since the last poll, in arrival
    /// order. Never blocks.
    pub fn poll(&self) -> Vec<Heartbeat> {
        let mut out = Vec::new();
        loop {
            match self.rx.try_recv() {
                Ok(hb) => out.push(hb),
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return out,
            }
        }
    }
}

/// Queue every heartbeat one worker connection carries, until its end.
fn read_heartbeats(mut stream: TcpStream, tx: &Sender<Heartbeat>) {
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        let mut at = 0;
        loop {
            match read_frame(&bytes[at..]) {
                Ok(None) => break,
                Ok(Some((frame, n))) => {
                    at += n;
                    let hb = Heartbeat::from_frame(&frame);
                    if hb.is_some_and(|hb| tx.send(hb).is_err()) {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
        bytes.drain(..at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hb(rank: usize, step: u64) -> Heartbeat {
        Heartbeat {
            rank,
            step,
            picard: 2,
            residual: 1.5e-7,
            msgs: 42,
            bytes: 4096,
            collectives: 9,
            checkpoint: None,
            health: None,
        }
    }

    #[test]
    fn heartbeat_frame_round_trip() {
        let h = hb(3, 17);
        let decoded = Heartbeat::from_frame(&h.to_frame()).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn heartbeat_checkpoint_round_trips_including_generation_zero() {
        for ck in [None, Some((0, 0)), Some((4, 4)), Some((10, 12))] {
            let mut h = hb(1, 5);
            h.checkpoint = ck;
            let decoded = Heartbeat::from_frame(&h.to_frame()).unwrap();
            assert_eq!(decoded.checkpoint, ck, "checkpoint {ck:?} mangled");
        }
    }

    #[test]
    fn heartbeat_health_round_trips_including_step_zero() {
        for health in [None, Some((0, 0)), Some((3, 17))] {
            let mut h = hb(2, 20);
            h.health = health;
            let decoded = Heartbeat::from_frame(&h.to_frame()).unwrap();
            assert_eq!(decoded.health, health, "health {health:?} mangled");
        }
    }

    #[test]
    fn heartbeat_residual_is_bit_exact() {
        for r in [0.0, -0.0, f64::NAN, f64::INFINITY, 1e-300] {
            let mut h = hb(0, 1);
            h.residual = r;
            let decoded = Heartbeat::from_frame(&h.to_frame()).unwrap();
            assert_eq!(decoded.residual.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn non_heartbeat_frames_are_ignored() {
        let mut frame = hb(0, 1).to_frame();
        frame.kind = FrameKind::Goodbye;
        assert!(Heartbeat::from_frame(&frame).is_none());
        let mut frame = hb(0, 1).to_frame();
        frame.type_id ^= 1;
        assert!(Heartbeat::from_frame(&frame).is_none());
    }

    #[test]
    fn server_receives_from_multiple_clients() {
        let server = MonitorServer::bind().unwrap();
        let mut c0 = MonitorClient::connect(Some(server.addr()));
        let mut c1 = MonitorClient::connect(Some(server.addr()));
        assert!(c0.stream.is_some() && c1.stream.is_some());
        c0.send(&hb(0, 1));
        c1.send(&hb(1, 1));
        c0.send(&hb(0, 2));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut got = Vec::new();
        while got.len() < 3 && std::time::Instant::now() < deadline {
            got.extend(server.poll());
            std::thread::sleep(Duration::from_millis(5));
        }
        got.sort_by_key(|h| (h.rank, h.step));
        assert_eq!(got, vec![hb(0, 1), hb(0, 2), hb(1, 1)]);
    }

    #[test]
    fn client_without_address_is_noop() {
        let mut c = MonitorClient::connect(None);
        assert!(c.stream.is_none());
        c.send(&hb(0, 1)); // must not panic
    }
}
