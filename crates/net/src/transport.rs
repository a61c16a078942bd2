//! The transport seam: one [`Endpoint`]/[`Net`] pair the engines compile
//! against, backed by either the deterministic in-process fabric
//! ([`SimNet`]) or real TCP between OS processes ([`TcpNet`]).
//!
//! This is the FoundationDB/MadSim shape: the simulation twin and the real
//! transport sit behind the same seam with identical semantics — per-channel
//! FIFO, the same [`RecvError`] meanings, free self-sends, delivery-charged
//! [`NetStats`] — so every engine protocol that is correct under chaos
//! testing on [`SimNet`] runs byte-for-byte unchanged over sockets. The
//! seam is enum-backed rather than a trait object so endpoints stay `Send`,
//! cheap to move into machine threads, and free of dynamic dispatch on the
//! per-message hot path.
//!
//! The seam is also where wall-clock *net-wait* is measured: every blocking
//! receive accumulates its elapsed time into a shared counter
//! ([`Endpoint::net_wait_counter`]), which the driver reads to split a
//! machine's wall clock into setup / compute / net-wait phases without the
//! engines knowing timing exists.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use graphlab_graph::MachineId;

use crate::cluster::{Envelope, NetStats, RecvError, SimEndpoint, SimNet};
use crate::fault::FaultEvent;
use crate::latency::LatencyModel;
use crate::tcp::{TcpConfig, TcpEndpoint, TcpNet};

/// Which fabric a run uses: the deterministic in-process simulator (with
/// its latency model and fault machinery) or real TCP between processes.
#[derive(Clone, Debug)]
pub enum Transport {
    /// In-process [`SimNet`] with the given latency model. Supports fault
    /// plans, chaos schedules and deterministic replay.
    Sim(LatencyModel),
    /// Real sockets via [`TcpNet`]. One OS process per machine; the config
    /// names this process's machine id and every peer's address.
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

/// Owner handle of a running fabric, either backend.
pub enum Net {
    Sim(SimNet),
    Tcp(TcpNet),
}

impl Net {
    /// The fabric's traffic counters. For TCP this is one process's view
    /// (its own machine's rows); for Sim it is cluster-global.
    pub fn stats(&self) -> &Arc<NetStats> {
        match self {
            Net::Sim(n) => n.stats(),
            Net::Tcp(n) => n.stats(),
        }
    }

    /// The fault-injection trace. Always empty on TCP — chaos machinery is
    /// sim-only.
    pub fn fault_trace(&self) -> Vec<FaultEvent> {
        match self {
            Net::Sim(n) => n.fault_trace(),
            Net::Tcp(_) => Vec::new(),
        }
    }
}

enum Imp {
    Sim(SimEndpoint),
    Tcp(TcpEndpoint),
}

/// One machine's handle on the fabric, over either backend. This is the
/// type the engines and [`crate::batch::Batcher`] hold; everything observable
/// through it (ordering, errors, stats, self-send cost) behaves identically
/// on both backends.
pub struct Endpoint {
    imp: Imp,
    wait_nanos: Arc<AtomicU64>,
}

impl From<SimEndpoint> for Endpoint {
    fn from(e: SimEndpoint) -> Self {
        Endpoint { imp: Imp::Sim(e), wait_nanos: Arc::new(AtomicU64::new(0)) }
    }
}

impl From<TcpEndpoint> for Endpoint {
    fn from(e: TcpEndpoint) -> Self {
        Endpoint { imp: Imp::Tcp(e), wait_nanos: Arc::new(AtomicU64::new(0)) }
    }
}

impl Endpoint {
    /// This machine's id.
    pub fn id(&self) -> MachineId {
        match &self.imp {
            Imp::Sim(e) => e.id(),
            Imp::Tcp(e) => e.id(),
        }
    }

    /// Number of machines in the cluster.
    pub fn num_machines(&self) -> usize {
        match &self.imp {
            Imp::Sim(e) => e.num_machines(),
            Imp::Tcp(e) => e.num_machines(),
        }
    }

    /// The fabric's traffic counters (see [`Net::stats`] for scope).
    pub fn stats(&self) -> &Arc<NetStats> {
        match &self.imp {
            Imp::Sim(e) => e.stats(),
            Imp::Tcp(e) => e.stats(),
        }
    }

    /// Sends `payload` to `dst`. Self-sends are delivered locally and
    /// charged zero network bytes on both backends.
    pub fn send(&self, dst: MachineId, kind: u16, payload: Bytes) {
        match &self.imp {
            Imp::Sim(e) => e.send(dst, kind, payload),
            Imp::Tcp(e) => e.send(dst, kind, payload),
        }
    }

    /// Sends `payload` to every *other* machine.
    pub fn broadcast(&self, kind: u16, payload: &Bytes) {
        match &self.imp {
            Imp::Sim(e) => e.broadcast(kind, payload),
            Imp::Tcp(e) => e.broadcast(kind, payload),
        }
    }

    /// Whether the fault plan has scheduled this machine's death
    /// (`Some(imminent)`); `None` when no fault machinery is attached —
    /// always `None` on TCP.
    pub fn self_death(&self) -> Option<bool> {
        match &self.imp {
            Imp::Sim(e) => e.self_death(),
            Imp::Tcp(e) => e.self_death(),
        }
    }

    /// Blocking receive; elapsed time is charged to the net-wait counter.
    pub fn recv(&self) -> Result<Envelope, RecvError> {
        #[expect(clippy::disallowed_methods, reason = "net-wait phase accounting (EngineMetrics); measurement only")]
        let t0 = Instant::now();
        let r = match &self.imp {
            #[expect(clippy::disallowed_methods, reason = "seam delegation to the backend's blessed blocking primitive (PR 5 termination audit)")]
            Imp::Sim(e) => e.recv(),
            #[expect(clippy::disallowed_methods, reason = "seam delegation to the backend's blessed blocking primitive (PR 5 termination audit)")]
            Imp::Tcp(e) => e.recv(),
        };
        self.wait_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    /// Blocking receive with timeout; elapsed time (including timeouts) is
    /// charged to the net-wait counter.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Envelope, RecvError> {
        #[expect(clippy::disallowed_methods, reason = "net-wait phase accounting (EngineMetrics); measurement only")]
        let t0 = Instant::now();
        let r = match &self.imp {
            Imp::Sim(e) => e.recv_timeout(timeout),
            Imp::Tcp(e) => e.recv_timeout(timeout),
        };
        self.wait_nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    /// Non-blocking receive; not charged as net-wait.
    pub fn try_recv(&self) -> Result<Envelope, RecvError> {
        match &self.imp {
            Imp::Sim(e) => e.try_recv(),
            Imp::Tcp(e) => e.try_recv(),
        }
    }

    /// Shared handle on the cumulative blocked-in-receive time, in
    /// nanoseconds. The driver clones this before handing the endpoint to
    /// an engine, then reads it afterwards to compute the net-wait phase.
    pub fn net_wait_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.wait_nanos)
    }

    /// Total time this endpoint has spent blocked in `recv`/`recv_timeout`.
    pub fn net_wait(&self) -> Duration {
        Duration::from_nanos(self.wait_nanos.load(Ordering::Relaxed))
    }
}
