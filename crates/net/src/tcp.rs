//! Real-TCP transport: the same [`Envelope`] fabric as [`SimNet`], but
//! between OS processes over length-prefixed frames on localhost or a real
//! network (§4.4: one symmetric GraphLab process per machine, asynchronous
//! RPC over TCP/IP). The machine's handle is the same [`Endpoint`] as on
//! the sim fabric — socket readers deliver into its inbox — and this module
//! supplies the `TcpLink` its sends leave through.
//!
//! [`TcpNet::connect`] builds a full mesh: every machine listens on its own
//! address and dials every peer, so each ordered (src, dst) pair owns one
//! TCP stream used in one direction. Per-channel FIFO therefore comes from
//! TCP itself — the property [`SimNet`] has to emulate with its deliver-at
//! clamp. The dial side opens each connection with a handshake frame
//! carrying `(magic, version, machine id, cluster size, run id)`; the
//! accept side validates all five and answers with a one-byte ACK before
//! either side puts engine traffic on the wire, so a stray process from
//! another run (or another cluster size) is rejected at the door. It ACKs
//! exactly one stream from each *other* machine — a second stream from a
//! peer, or one that names the receiver itself, gets none — and then
//! closes its listener.
//!
//! Failure semantics are deliberately thinner than the sim fabric's: there
//! is no fault plan, no latency model and no delivery oracle. A channel is
//! one stream, dialled once at mesh setup: a write that fails ends the
//! channel for the rest of the run, and later sends on it are dropped —
//! exactly what a crashed peer looks like from the outside. Deterministic
//! chaos testing stays on [`SimNet`]; `TcpNet` is the honest-wall-clock
//! twin.
//!
//! So the per-channel FIFO contract holds with no exception: a channel's
//! receiver always holds a FIFO prefix of what was sent on it, and a marker
//! that arrives vouches for everything sent before it. That is what the
//! engines' marker barriers (the chromatic step, recovery's `FlushMark`,
//! the locking engine's quiet round), schedule-before-release and the
//! Chandy–Lamport snapshot cut rely on. A peer that dies is the lease's
//! matter: its expiry is the only failure detector over sockets. A stream
//! that breaks between two live machines stalls the barrier that waits on
//! it; no barrier passes with a hole.
//!
//! Traffic accounting matches the sim fabric byte for byte: sends charge
//! [`Envelope::wire_bytes`] (payload + the same [`crate::cluster::HEADER_BYTES`]
//! framing constant) at the send point, receives are charged at actual
//! delivery into the inbox, and per-kind rows attribute batch sub-messages
//! to their real kinds. Each process only observes its own machine's rows —
//! cluster-wide totals are aggregated post-hoc by the spawn harness, the
//! way the paper's system aggregates per-machine logs.
//!
//! [`SimNet`]: crate::cluster::SimNet

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Sender};
use graphlab_graph::MachineId;
use parking_lot::Mutex;

use crate::clock;
use crate::cluster::{charge_delivery, Envelope, NetStats};
use crate::transport::{Endpoint, Link};

/// First handshake field; rejects random port scanners and cross-protocol
/// connects before any state is allocated.
pub const TCP_MAGIC: u32 = 0x474C_4142; // "GLAB"

/// Wire-format version carried in the handshake; bump on incompatible
/// frame-format changes.
pub const TCP_VERSION: u16 = 1;

/// Accept-side handshake reply confirming the connection was validated.
const ACK: u8 = 0xA5;

/// Upper bound on a single frame's payload; a length prefix beyond this is
/// treated as stream corruption and the connection is dropped.
const MAX_FRAME: usize = 256 * 1024 * 1024;

/// The lease period of a run over this transport whose config names none:
/// a crashed peer never announces itself over sockets, so lease expiry,
/// the only failure detector, is on by default.
pub const TCP_LEASE: Duration = Duration::from_secs(5);

/// Configuration of one machine's TCP transport.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcpConfig {
    /// Which machine this process is.
    pub machine: MachineId,
    /// Socket address of every machine, indexed by machine id (`peers.len()`
    /// is the cluster size). This process listens on `peers[machine]`.
    pub peers: Vec<String>,
    /// Cluster-unique run identifier; connections from other runs are
    /// rejected at the handshake.
    pub run_id: u64,
    /// Deadline for establishing the full mesh (listeners of slow-starting
    /// peers are re-dialled until it expires).
    pub connect_timeout: Duration,
}

impl TcpConfig {
    /// A config with the default 30 s mesh-setup deadline.
    pub fn new(machine: MachineId, peers: Vec<String>, run_id: u64) -> Self {
        TcpConfig { machine, peers, run_id, connect_timeout: Duration::from_secs(30) }
    }
}

/// State shared by the endpoint, the owner handle and every I/O thread:
/// the shutdown latch plus clones of all live streams so shutdown can
/// unblock readers from the outside.
struct TcpShared {
    shutdown: AtomicBool,
    conns: Mutex<Vec<TcpStream>>,
}

impl TcpShared {
    fn register(&self, s: &TcpStream) {
        if let Ok(c) = s.try_clone() {
            self.conns.lock().push(c);
        }
    }

    fn close_all(&self, how: Shutdown) {
        for c in self.conns.lock().iter() {
            let _ = c.shutdown(how);
        }
    }
}

/// Registry of live transports in this process, for signal handlers
/// (`graphlab-node` SIGTERM/Ctrl-C) that must close sockets gracefully
/// from outside the engine's call stack.
static ACTIVE: std::sync::Mutex<Vec<Weak<TcpShared>>> = std::sync::Mutex::new(Vec::new());

/// Set once this process's first [`TcpNet::connect`] finishes dialing
/// every peer. Chaos hooks (`graphlab-node --die-after-ms`) key their
/// delay off this instead of process start, so a slow (debug-profile)
/// setup can't turn a kill-mid-run scenario into a kill-during-dial one
/// that strands the peers in mesh setup.
static MESH_UP: AtomicBool = AtomicBool::new(false);

/// True once any [`TcpNet::connect`] in this process has completed its
/// outgoing dials (the mesh is usable; incoming sides may still be
/// completing asynchronously).
pub fn mesh_established() -> bool {
    MESH_UP.load(Ordering::SeqCst)
}

/// Gracefully shuts down every live [`TcpNet`] in this process: further
/// sends stop, write halves are closed (FIN after any queued bytes), and
/// peers observe a clean EOF. Safe to call from a signal-watcher thread.
pub fn shutdown_active() {
    let mut reg = ACTIVE.lock().expect("tcp registry poisoned");
    reg.retain(|w| {
        let Some(shared) = w.upgrade() else { return false };
        shared.shutdown.store(true, Ordering::SeqCst);
        shared.close_all(Shutdown::Write);
        true
    });
}

/// Owner handle of one machine's TCP transport (listener, acceptor and
/// reader threads). Dropping it closes every connection and joins the I/O
/// threads; the paired [`Endpoint`] should be dropped first.
pub struct TcpNet {
    shared: Arc<TcpShared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl TcpNet {
    /// Builds this machine's side of the mesh: binds `peers[machine]`,
    /// accepts and validates one incoming stream from each other machine
    /// in the background, and dials every peer (retrying until
    /// `connect_timeout`) with the handshake. Returns once all outgoing
    /// connections are established — incoming ones complete
    /// asynchronously as peers dial in.
    pub fn connect(cfg: &TcpConfig) -> io::Result<(TcpNet, Endpoint)> {
        let n = cfg.peers.len();
        let me = cfg.machine;
        assert!(n > 0, "cluster needs at least one machine");
        assert!(me.index() < n, "machine id {me} out of range for {n} peers");

        let deadline = clock::now() + cfg.connect_timeout;
        // (A fresh worker may race a port the parent's allocation just freed.)
        let listener = retry_until(deadline, || TcpListener::bind(&cfg.peers[me.index()]))?;
        listener.set_nonblocking(true)?;

        let stats = Arc::new(NetStats::new(n));
        let shared = Arc::new(TcpShared { shutdown: AtomicBool::new(false), conns: Mutex::new(Vec::new()) });
        ACTIVE.lock().expect("tcp registry poisoned").push(Arc::downgrade(&shared));
        let (inbox_tx, rx) = channel::unbounded();
        let threads = Mutex::new(Vec::new());

        let net = TcpNet { shared: Arc::clone(&shared), threads };

        // Acceptor: validates handshakes and spawns one reader per incoming
        // stream, until every other machine has one.
        {
            let shared = Arc::clone(&shared);
            let stats = Arc::clone(&stats);
            let inbox_tx = inbox_tx.clone();
            let run_id = cfg.run_id;
            let acceptor = std::thread::Builder::new()
                .name(format!("tcp-accept-{me}"))
                .spawn(move || accept_peers(listener, me, n as u16, run_id, stats, inbox_tx, shared))
                .expect("spawn tcp acceptor");
            net.threads.lock().push(acceptor);
        }

        // Dial every peer. Peers start in arbitrary order, so each dial
        // retries until the mesh deadline.
        let mut outs: Vec<Mutex<OutLink>> = Vec::with_capacity(n);
        for (j, peer) in cfg.peers.iter().enumerate() {
            if j == me.index() {
                outs.push(Mutex::new(OutLink::new(None)));
                continue;
            }
            let s = dial(peer, me, n as u16, cfg.run_id, deadline)?;
            shared.register(&s);
            outs.push(Mutex::new(OutLink::new(Some(s))));
        }

        let link = TcpLink { outs };
        let ep = Endpoint::new(me, n, stats, rx, inbox_tx, Link::Tcp(link));
        MESH_UP.store(true, Ordering::SeqCst);
        Ok((net, ep))
    }

    /// Graceful shutdown: stops further sends and closes the write half of
    /// every connection (FIN after queued bytes), so peers drain what was
    /// sent and then observe EOF. Reads stay open until drop.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.close_all(Shutdown::Write);
    }
}

impl Drop for TcpNet {
    fn drop(&mut self) {
        self.shutdown();
        // Force blocked readers out of `read` and join everything.
        self.shared.close_all(Shutdown::Both);
        for h in self.threads.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// Outgoing link to one peer: its stream until a write on it fails (or
/// none, for this machine itself).
struct OutLink {
    stream: Option<TcpStream>,
    /// The frame being written (header + payload, one `write`), reused.
    frame: Vec<u8>,
}

impl OutLink {
    fn new(stream: Option<TcpStream>) -> Self {
        OutLink { stream, frame: Vec::new() }
    }
}

/// How an envelope leaves a [`TcpNet`] machine: the [`Endpoint`]'s link
/// over real sockets, one outgoing stream per peer.
pub(crate) struct TcpLink {
    outs: Vec<Mutex<OutLink>>,
}

impl TcpLink {
    /// Writes `env` (already charged, bound for another machine) to its
    /// peer's stream. A write that fails ends the channel: the stream is
    /// dropped for the rest of the run, and this and every later message
    /// to the peer with it, so what the peer received stays a FIFO prefix
    /// of what was sent.
    pub(crate) fn send(&self, env: Envelope) {
        let mut out = self.outs[env.dst.index()].lock();
        let OutLink { stream, frame } = &mut *out;
        if stream.as_mut().is_some_and(|s| write_frame(s, &env, frame).is_err()) {
            *stream = None;
        }
    }
}

// ------------------------------------------------------------------ wire

/// Writes one `[len u32 | kind u16 | payload]` frame. Small frames go out
/// in a single write so `TCP_NODELAY` does not split them into two packets;
/// `frame` is the link's buffer they are assembled in.
fn write_frame(s: &mut TcpStream, env: &Envelope, frame: &mut Vec<u8>) -> io::Result<()> {
    let len = env.payload.len();
    let mut header = [0u8; 6];
    header[..4].copy_from_slice(&(len as u32).to_le_bytes());
    header[4..].copy_from_slice(&env.kind.to_le_bytes());
    if len <= 64 * 1024 {
        frame.clear();
        frame.extend_from_slice(&header);
        frame.extend_from_slice(&env.payload);
        s.write_all(frame)
    } else {
        s.write_all(&header)?;
        s.write_all(&env.payload)
    }
}

/// Reads frames off one incoming stream until EOF/error, charging delivery
/// and handing envelopes to the inbox.
fn reader_loop(
    s: TcpStream,
    src: MachineId,
    dst: MachineId,
    stats: Arc<NetStats>,
    inbox_tx: Sender<Envelope>,
) {
    // Buffered: a burst of small frames costs one `read`, not two each.
    let mut s = BufReader::new(s);
    let mut header = [0u8; 6];
    loop {
        if s.read_exact(&mut header).is_err() {
            return;
        }
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let kind = u16::from_le_bytes(header[4..].try_into().expect("2 bytes"));
        if len > MAX_FRAME {
            return; // corrupt stream
        }
        // (No zero fill: `read_to_end` appends into the reserved space.)
        let mut payload = Vec::with_capacity(len);
        if !matches!(s.by_ref().take(len as u64).read_to_end(&mut payload), Ok(n) if n == len) {
            return;
        }
        let env = Envelope { src, dst, kind, payload: Bytes::from(payload) };
        charge_delivery(&stats, &env);
        if inbox_tx.send(env).is_err() {
            return; // endpoint gone
        }
    }
}

/// Accepts and validates one incoming stream from each other machine and
/// starts its reader; a second stream from a peer, or one naming this
/// machine, gets no ACK. Then drops the listener and joins the readers.
fn accept_peers(
    listener: TcpListener,
    me: MachineId,
    n: u16,
    run_id: u64,
    stats: Arc<NetStats>,
    inbox_tx: Sender<Envelope>,
    shared: Arc<TcpShared>,
) {
    let mut accepted = vec![false; usize::from(n)];
    accepted[me.index()] = true;
    let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while accepted.contains(&false) && !shared.shutdown.load(Ordering::SeqCst) {
        let Ok((mut s, _)) = listener.accept() else {
            clock::sleep(Duration::from_millis(2)); // none pending, or a transient error
            continue;
        };
        let _ = s.set_nodelay(true);
        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
        let src = match read_handshake(&mut s, n, run_id) {
            Ok(src) if !accepted[src.index()] => src,
            _ => continue, // wrong magic/version/run/size, this machine or a second stream: reject
        };
        if s.write_all(&[ACK]).is_err() {
            continue;
        }
        accepted[src.index()] = true;
        let _ = s.set_read_timeout(None);
        shared.register(&s);
        let stats = Arc::clone(&stats);
        let tx = inbox_tx.clone();
        let h = std::thread::Builder::new()
            .name(format!("tcp-read-{me}-from-{src}"))
            .spawn(move || reader_loop(s, src, me, stats, tx))
            .expect("spawn tcp reader");
        readers.push(h);
    }
    drop(listener);
    // Readers exit on EOF or forced close: TcpNet::drop closes every
    // registered stream.
    for h in readers {
        let _ = h.join();
    }
}

/// 16-byte dial-side handshake: magic, version, src machine, cluster size,
/// run id.
fn handshake_bytes(src: MachineId, n: u16, run_id: u64) -> [u8; 16] {
    let mut b = [0u8; 16];
    b[..4].copy_from_slice(&TCP_MAGIC.to_le_bytes());
    b[4..6].copy_from_slice(&TCP_VERSION.to_le_bytes());
    b[6..8].copy_from_slice(&(src.index() as u16).to_le_bytes());
    b[8..10].copy_from_slice(&n.to_le_bytes());
    b[10..].copy_from_slice(&run_id.to_le_bytes()[..6]); // low 48 bits
    b
}

fn read_handshake(s: &mut TcpStream, n: u16, run_id: u64) -> io::Result<MachineId> {
    let mut b = [0u8; 16];
    s.read_exact(&mut b)?;
    let expect = handshake_bytes(MachineId(0), n, run_id);
    let src = u16::from_le_bytes(b[6..8].try_into().expect("2 bytes"));
    if b[..6] != expect[..6] || b[8..] != expect[8..] || src >= n {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "handshake mismatch: wrong magic/version/cluster-size/run-id",
        ));
    }
    Ok(MachineId(src))
}

/// Dials `addr` with retries until `deadline`, performing the handshake and
/// waiting for the accept side's ACK.
fn dial(addr: &str, src: MachineId, n: u16, run_id: u64, deadline: Instant) -> io::Result<TcpStream> {
    let hs = handshake_bytes(src, n, run_id);
    retry_until(deadline, || {
        let mut s = TcpStream::connect(addr)?;
        let _ = s.set_nodelay(true);
        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
        let ok = s.write_all(&hs).is_ok() && {
            let mut ack = [0u8; 1];
            s.read_exact(&mut ack).is_ok() && ack[0] == ACK
        };
        if !ok {
            let why = format!("{addr} rejected handshake");
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, why));
        }
        let _ = s.set_read_timeout(None);
        Ok(s)
    })
}

/// Runs `attempt` until it succeeds, pausing 25 ms between tries; once
/// `deadline` has passed, a failure is returned as it is.
fn retry_until<T>(deadline: Instant, mut attempt: impl FnMut() -> io::Result<T>) -> io::Result<T> {
    loop {
        match attempt() {
            Err(_) if clock::now() < deadline => clock::sleep(Duration::from_millis(25)),
            result => return result,
        }
    }
}

#[cfg(test)]
mod tests {
    //! Each test plays machine 1 of a 2-machine mesh with raw streams
    //! against a real `TcpNet` machine 0.

    use super::*;

    const RUN: u64 = 0x0051;

    /// Machine 0's transport, the address it listens on, the fake machine
    /// 1's listener and the stream machine 0 dialled into it.
    struct Mesh {
        ep: Endpoint,
        _net: TcpNet,
        addr0: String,
        listener1: TcpListener,
        from0: TcpStream,
    }

    /// Starts machine 0 and answers its dial as machine 1.
    fn machine_0_against_a_fake_machine_1() -> Mesh {
        let addr0 = TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr()).expect("a free port");
        let listener1 = TcpListener::bind("127.0.0.1:0").expect("a free port");
        let addr1 = listener1.local_addr().expect("bound");
        let cfg = TcpConfig::new(MachineId(0), vec![addr0.to_string(), addr1.to_string()], RUN);
        let machine0 = std::thread::spawn(move || TcpNet::connect(&cfg));
        let (mut from0, _) = listener1.accept().expect("machine 0 dials machine 1");
        let mut hs = [0u8; 16];
        from0.read_exact(&mut hs).expect("handshake");
        assert_eq!(hs, handshake_bytes(MachineId(0), 2, RUN));
        from0.write_all(&[ACK]).expect("ACK");
        let (net, ep) = machine0.join().expect("no panic").expect("mesh up");
        Mesh { ep, _net: net, addr0: addr0.to_string(), listener1, from0 }
    }

    /// Opens a stream to `addr` with handshake `hs`; the stream, if it was
    /// ACKed.
    fn dial_as(addr: &str, hs: [u8; 16]) -> Option<TcpStream> {
        let mut s = TcpStream::connect(addr).ok()?;
        s.set_read_timeout(Some(Duration::from_secs(2))).expect("set timeout");
        let mut ack = [0u8; 1];
        (s.write_all(&hs).is_ok() && s.read_exact(&mut ack).is_ok() && ack[0] == ACK).then_some(s)
    }

    #[test]
    fn a_broken_stream_ends_its_channel_without_a_redial() {
        let m = machine_0_against_a_fake_machine_1();
        let _to0 = dial_as(&m.addr0, handshake_bytes(MachineId(1), 2, RUN)).expect("machine 0 ACKs machine 1");
        drop(m.from0);
        // The first write after the close may still land in the socket
        // buffer; the peer's reset fails a later one.
        let t0 = clock::now();
        for _ in 0..10 {
            m.ep.send(MachineId(1), 7, Bytes::from_static(b"after the close"));
            clock::sleep(Duration::from_millis(5));
        }
        let took = clock::now() - t0;
        m.listener1.set_nonblocking(true).expect("nonblocking");
        let redialled = m.listener1.accept().is_ok();
        assert!(
            took < Duration::from_secs(1) && !redialled,
            "ten sends took {took:?}; machine 0 dialled machine 1 again: {redialled}"
        );
    }

    #[test]
    fn a_second_stream_from_a_peer_gets_no_ack() {
        let m = machine_0_against_a_fake_machine_1();
        let hs = handshake_bytes(MachineId(1), 2, RUN);
        let _to0 = dial_as(&m.addr0, hs).expect("machine 0 ACKs machine 1");
        assert!(dial_as(&m.addr0, hs).is_none(), "machine 0 ACKed a second stream from machine 1");
    }

    #[test]
    fn a_handshake_naming_the_receiver_gets_no_ack() {
        let m = machine_0_against_a_fake_machine_1();
        assert!(
            dial_as(&m.addr0, handshake_bytes(MachineId(0), 2, RUN)).is_none(),
            "machine 0 ACKed a stream from itself"
        );
        assert!(dial_as(&m.addr0, handshake_bytes(MachineId(1), 2, RUN)).is_some(), "machine 0 ACKs machine 1");
    }
}
