//! The transport seam: the one [`Endpoint`] the engines compile against,
//! over either the deterministic in-process fabric ([`SimNet`]) or real TCP
//! between OS processes ([`TcpNet`]).
//!
//! This is the FoundationDB/MadSim shape: the simulation twin and the real
//! transport have identical semantics — per-channel FIFO, the same
//! [`RecvError`] meanings, free self-sends, delivery-charged [`NetStats`] —
//! so every engine protocol that is correct under chaos testing on
//! [`SimNet`] runs byte-for-byte unchanged over sockets. They have them
//! because they are the same code: both fabrics deliver into an inbox
//! channel, so the receive half, the loopback for self-sends, the send
//! counters and `broadcast` are written once on [`Endpoint`], and the
//! backends differ only in the private `Link` an envelope for another
//! machine leaves through (plus the fault plan's dead-machine gate, which
//! sockets do not have). `Link` is an enum rather than a trait object so
//! endpoints stay `Send`, cheap to move into machine threads, and free of
//! dynamic dispatch on the per-message hot path.
//!
//! The endpoint is also where wall-clock *net-wait* is measured: every
//! blocking receive accumulates its elapsed time into a shared counter
//! ([`Endpoint::net_wait_counter`]), which the driver reads to split a
//! machine's wall clock into setup / compute / net-wait phases without the
//! engines knowing timing exists.
//!
//! [`SimNet`]: crate::cluster::SimNet
//! [`TcpNet`]: crate::tcp::TcpNet

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use graphlab_graph::MachineId;

use crate::clock;
use crate::cluster::{charge_send, Envelope, NetStats, RecvError, SimLink};
use crate::latency::LatencyModel;
use crate::tcp::{TcpConfig, TcpLink};

/// Which fabric a run uses: the deterministic in-process simulator (with
/// its latency model and fault machinery) or real TCP between processes.
#[derive(Clone, Debug)]
pub enum Transport {
    /// In-process [`SimNet`](crate::cluster::SimNet) with the given latency
    /// model. Supports fault plans, chaos schedules and deterministic replay.
    Sim(LatencyModel),
    /// Real sockets via [`TcpNet`](crate::tcp::TcpNet). One OS process per
    /// machine; the config names this process's machine id and every peer's
    /// address.
    Tcp(TcpConfig),
}

impl Default for Transport {
    fn default() -> Self {
        Transport::Sim(LatencyModel::ZERO)
    }
}

impl Transport {
    /// True for the real-socket backend.
    pub fn is_tcp(&self) -> bool {
        matches!(self, Transport::Tcp(_))
    }
}

/// How an envelope leaves this machine — the one thing the two fabrics do
/// differently. Everything else an [`Endpoint`] does is written once.
pub(crate) enum Link {
    /// Delay heap, per-channel FIFO clamp and fault gate ([`crate::cluster`]).
    Sim(SimLink),
    /// One framed socket per peer ([`crate::tcp`]).
    Tcp(TcpLink),
}

impl Link {
    /// SimNet's fault gate at the send point ([`SimLink::admit`]): `None` =
    /// the sender is dead and the send vanishes. Sockets have no plan.
    fn admit(&self, src: MachineId, dst: MachineId) -> Option<(u32, u32)> {
        match self {
            Link::Sim(l) => l.admit(src, dst),
            Link::Tcp(_) => Some((0, 0)),
        }
    }

    /// Puts an admitted, already charged envelope for another machine on
    /// its way.
    fn send(&self, stats: &NetStats, env: Envelope, incs: (u32, u32)) {
        match self {
            Link::Sim(l) => l.send(stats, env, incs),
            Link::Tcp(l) => l.send(env),
        }
    }

    /// [`SimLink::dead_check`]; `None` (alive) over sockets, always.
    fn dead_check(&self, id: MachineId, rx: &Receiver<Envelope>) -> Option<bool> {
        match self {
            Link::Sim(l) => l.dead_check(id, rx),
            Link::Tcp(_) => None,
        }
    }
}

/// One machine's handle on the fabric, the type the engines and
/// [`crate::batch::Batcher`] hold. Ordering, errors, stats and self-send
/// cost are the same code on both fabrics; the private `Link` is where an
/// envelope for another machine goes its own way.
pub struct Endpoint {
    id: MachineId,
    n: usize,
    stats: Arc<NetStats>,
    /// The inbox: the delivery thread / socket readers hold the senders.
    rx: Receiver<Envelope>,
    /// A sender into our own inbox, for self-sends.
    loopback: Sender<Envelope>,
    wait_nanos: Arc<AtomicU64>,
    link: Link,
}

impl Endpoint {
    pub(crate) fn new(
        id: MachineId,
        n: usize,
        stats: Arc<NetStats>,
        rx: Receiver<Envelope>,
        loopback: Sender<Envelope>,
        link: Link,
    ) -> Self {
        Endpoint { id, n, stats, rx, loopback, wait_nanos: Arc::new(AtomicU64::new(0)), link }
    }

    /// This machine's id.
    pub fn id(&self) -> MachineId {
        self.id
    }

    /// Number of machines in the cluster.
    pub fn num_machines(&self) -> usize {
        self.n
    }

    /// The fabric's traffic counters: cluster-global on `SimNet`, this
    /// process's own rows on `TcpNet` (peers account for themselves).
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Sends `payload` to `dst` with application tag `kind`. Self-sends
    /// are delivered through the inbox like any other message (uniform
    /// engine code) and charged zero network bytes.
    pub fn send(&self, dst: MachineId, kind: u16, payload: Bytes) {
        self.put(dst, kind, payload);
    }

    /// The body `send` and `broadcast` share: both public names are on the
    /// fenced-send list (`clippy.toml`), and this is reached only through them.
    fn put(&self, dst: MachineId, kind: u16, payload: Bytes) {
        let Some(incs) = self.link.admit(self.id, dst) else { return };
        let env = Envelope { src: self.id, dst, kind, payload };
        if dst == self.id {
            // Free and always deliverable: we hold the receiver.
            let _ = self.loopback.send(env);
        } else {
            charge_send(&self.stats, &env);
            self.link.send(&self.stats, env, incs);
        }
    }

    /// Sends `payload` to every *other* machine.
    pub fn broadcast(&self, kind: u16, payload: &Bytes) {
        for i in 0..self.n {
            let dst = MachineId::from(i);
            if dst != self.id {
                self.put(dst, kind, payload.clone());
            }
        }
    }

    /// Whether this machine is currently dead under the fault plan, and if
    /// so whether the plan schedules a restart (`Some(true)` = will come
    /// back). An engine that sees [`RecvError::MachineDown`] uses this to
    /// decide between waiting for rebirth and giving up. `None` = alive:
    /// always, when no fault machinery is attached.
    pub fn self_death(&self) -> Option<bool> {
        self.link.dead_check(self.id, &self.rx)
    }

    /// Runs a blocking wait and charges its elapsed time to the net-wait
    /// counter.
    fn charged<T>(&self, wait: impl FnOnce() -> T) -> T {
        let t0 = clock::now();
        let r = wait();
        self.wait_nanos.fetch_add((clock::now() - t0).as_nanos() as u64, Ordering::Relaxed);
        r
    }

    /// Blocking receive; elapsed time is charged to the net-wait counter.
    pub fn recv(&self) -> Result<Envelope, RecvError> {
        self.charged(|| {
            if self.self_death().is_some() {
                return Err(RecvError::MachineDown);
            }
            #[expect(clippy::disallowed_methods, reason = "the transport-layer primitive itself; engines only call recv_timeout (PR 5 termination audit)")]
            self.rx.recv().map_err(|_| RecvError::Disconnected)
        })
    }

    /// Blocking receive with timeout; elapsed time (including timeouts) is
    /// charged to the net-wait counter. When the machine is dead the call
    /// sleeps briefly (bounded by `timeout`) and returns
    /// [`RecvError::MachineDown`], so engine loops poll their way through
    /// the dead window without spinning.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        self.charged(|| {
            if self.self_death().is_some() {
                clock::sleep(timeout.min(Duration::from_millis(5)));
                return Err(RecvError::MachineDown);
            }
            self.rx.recv_timeout(timeout).map_err(|e| match e {
                RecvTimeoutError::Timeout => RecvError::Timeout,
                RecvTimeoutError::Disconnected => RecvError::Disconnected,
            })
        })
    }

    /// Non-blocking receive; not charged as net-wait.
    pub fn try_recv(&self) -> Result<Envelope, RecvError> {
        if self.self_death().is_some() {
            return Err(RecvError::MachineDown);
        }
        self.rx.try_recv().map_err(|e| match e {
            TryRecvError::Empty => RecvError::Timeout,
            TryRecvError::Disconnected => RecvError::Disconnected,
        })
    }

    /// Shared handle on the cumulative time spent blocked in
    /// `recv`/`recv_timeout`, in nanoseconds. The driver clones this before
    /// handing the endpoint to an engine, then reads it afterwards to
    /// compute the net-wait phase.
    pub fn net_wait_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.wait_nanos)
    }
}
