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
//! another run (or another cluster size) is rejected at the door.
//!
//! Failure semantics are deliberately thinner than the sim fabric's: there
//! is no fault plan, no latency model and no delivery oracle. A send that
//! hits a broken stream redials the peer once (reconnect-on-transient-
//! error) and otherwise drops the message — exactly what a crashed peer
//! looks like from the outside. Deterministic chaos testing stays on
//! [`SimNet`]; `TcpNet` is the honest-wall-clock twin.
//!
//! The redial path is outside the per-channel FIFO contract the engines'
//! marker barriers (the chromatic step, the synchronous snapshot,
//! recovery's `FlushMark`), schedule-before-release and the Chandy–Lamport
//! snapshot rely on: a
//! frame can be lost with a broken stream, and the old and new streams'
//! reader threads can each deliver into the inbox. A peer whose stream
//! broke is the lease's matter (a peer death), not the barriers'. (Until
//! PR 25 the chromatic step counted its messages and would have noticed a
//! lost frame, as a 30 s stall; a marker does not.)
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

/// How long a mid-run reconnect attempt may take before the message is
/// declared lost (initial mesh setup uses [`TcpConfig::connect_timeout`]).
const RECONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Smallest safe lease period over this transport. A send to an
/// unresponsive peer can block the engine thread for a full
/// `RECONNECT_TIMEOUT` before the link's fail-fast probation kicks in,
/// and during that stall the machine cannot refresh its own lease. A lease
/// shorter than a couple of those windows turns ordinary redial stalls
/// into false-positive deaths — the master then "adopts" machines that
/// are still alive. The driver clamps any configured period up to this.
pub const MIN_TCP_LEASE: Duration = Duration::from_secs(5);

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
    /// accepts and validates incoming connections in the background, and
    /// dials every peer (retrying until `connect_timeout`) with the
    /// handshake. Returns once all outgoing connections are established —
    /// incoming ones complete asynchronously as peers dial in.
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
        // stream, for the life of the transport (reconnects re-enter here).
        {
            let shared = Arc::clone(&shared);
            let stats = Arc::clone(&stats);
            let inbox_tx = inbox_tx.clone();
            let run_id = cfg.run_id;
            let acceptor = std::thread::Builder::new()
                .name(format!("tcp-accept-{me}"))
                .spawn(move || accept_loop(listener, me, n as u16, run_id, stats, inbox_tx, shared))
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

        let link = TcpLink { run_id: cfg.run_id, peers: cfg.peers.clone(), outs, shared };
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

/// Outgoing link to one peer: the live stream (if any) plus the fail-fast
/// probation marker set when a redial burns its full deadline.
struct OutLink {
    stream: Option<TcpStream>,
    /// After a failed redial, sends to this peer drop immediately until
    /// this instant instead of dialling again. Without the probation a
    /// dead peer costs every send a full `RECONNECT_TIMEOUT` stall,
    /// which blocks the engine thread long enough to starve its own lease
    /// heartbeats — the master then declares *live* machines dead.
    retry_after: Option<Instant>,
    /// The frame being written (header + payload, one `write`), reused.
    frame: Vec<u8>,
}

impl OutLink {
    fn new(stream: Option<TcpStream>) -> Self {
        OutLink { stream, retry_after: None, frame: Vec::new() }
    }
}

/// How an envelope leaves a [`TcpNet`] machine: the [`Endpoint`]'s link
/// over real sockets, one outgoing stream per peer.
pub(crate) struct TcpLink {
    run_id: u64,
    peers: Vec<String>,
    outs: Vec<Mutex<OutLink>>,
    shared: Arc<TcpShared>,
}

impl TcpLink {
    /// Writes `env` (already charged, bound for another machine) to its
    /// peer's stream. A broken stream is redialled once (with a fresh
    /// handshake); if that also fails the message is dropped — the peer is
    /// gone — and the link enters a fail-fast probation: further sends drop
    /// immediately (no dial, no stall) until `RECONNECT_TIMEOUT` has
    /// passed, so a dead peer costs the caller at most one redial deadline
    /// per probation window.
    pub(crate) fn send(&self, env: Envelope) {
        let dst = env.dst.index();
        let mut out = self.outs[dst].lock();
        let OutLink { stream, frame, .. } = &mut *out;
        let sent = match stream {
            Some(s) => write_frame(s, &env, frame).is_ok(),
            None => false,
        };
        if sent {
            return;
        }
        out.stream = None;
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let now = clock::now();
        if out.retry_after.is_some_and(|t| now < t) {
            return; // peer recently unreachable: fail fast, drop the message
        }
        let deadline = now + RECONNECT_TIMEOUT;
        let n = self.peers.len() as u16;
        if let Ok(mut s) = dial(&self.peers[dst], env.src, n, self.run_id, deadline) {
            if write_frame(&mut s, &env, &mut out.frame).is_ok() {
                self.shared.register(&s);
                out.stream = Some(s);
                out.retry_after = None;
                return;
            }
        }
        out.retry_after = Some(clock::now() + RECONNECT_TIMEOUT);
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

/// Accepts, validates and wires up incoming connections until shutdown.
fn accept_loop(
    listener: TcpListener,
    me: MachineId,
    n: u16,
    run_id: u64,
    stats: Arc<NetStats>,
    inbox_tx: Sender<Envelope>,
    shared: Arc<TcpShared>,
) {
    let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut s, _)) => {
                let _ = s.set_nodelay(true);
                let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                match read_handshake(&mut s, n, run_id) {
                    Ok(src) => {
                        if s.write_all(&[ACK]).is_err() {
                            continue;
                        }
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
                    Err(_) => drop(s), // wrong magic/version/run/size: reject
                }
            }
            Err(_) => clock::sleep(Duration::from_millis(2)), // none pending, or a transient error
        }
    }
    // Readers exit on EOF or forced close; TcpNet::drop has closed every
    // registered stream by the time the acceptor sees the latch.
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
