//! The simulated cluster fabric: message envelopes, delayed delivery,
//! traffic accounting, and the `SimLink` an [`Endpoint`] sends through.
//!
//! A [`SimNet`] wires `n` machine [`Endpoint`]s together: one inbox channel
//! per machine, which the endpoint receives from (the receive half is
//! [`crate::transport`]'s, shared with the TCP fabric) and which this
//! module delivers into. Sending is non-blocking (channels are unbounded,
//! like the paper's asynchronous RPC over TCP). When the [`LatencyModel`]
//! is non-zero a dedicated delivery thread holds messages in a
//! deliver-at-ordered heap; when a [`FaultPlan`] is installed every send
//! and delivery passes its gate ([`crate::fault`]).
//!
//! # Delivery guarantees
//!
//! 1. **Per-channel FIFO.** Messages from machine A to machine B are
//!    delivered in send order under *every* latency model. Each (src, dst)
//!    channel tracks the delivery time of its last-scheduled message and
//!    clamps successors to be no earlier, so a small message can never
//!    overtake a large or unluckily-jittered predecessor on the same
//!    channel — the property TCP gives the paper's RPC layer, and which
//!    both engines' protocols (schedule-before-release, the
//!    Chandy–Lamport snapshot marker, the marker barriers of the chromatic step, the
//!    synchronous snapshot and recovery) depend on.
//! 2. **Bandwidth-serialized links.** A channel transmits one message at a
//!    time: `per_kib` charges *queueing* delay, not just propagation. A
//!    burst of scope-data transfers occupies the link back-to-back and
//!    realistically delays the grants queued behind it.
//! 3. **No cross-channel ordering.** Messages from different senders (or
//!    to different destinations) may interleave arbitrarily, exactly like
//!    independent TCP connections.
//!
//! Traffic accounting: `*_sent` counters are charged at send time,
//! `*_received` at actual delivery into the destination inbox — messages
//! still in flight at shutdown are never counted as received. Per-kind
//! counters ([`NetStats::by_kind`]) follow the same delivery rule; batch
//! envelopes are attributed to the kinds *inside* them (the envelope row
//! keeps only the wire header), while compressed envelopes are opaque and
//! charged to [`K_ZIP`] — run an uncompressed arm when a
//! per-kind breakdown of the savings is wanted.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Buf, Bytes};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use graphlab_graph::MachineId;
use parking_lot::Mutex;

use crate::clock;
use crate::fault::{FaultPlan, FaultState};
use crate::latency::LatencyModel;
use crate::transport::{Endpoint, Link};

/// Shared, lock-protected fault state (present only when a
/// [`FaultPlan`] was installed).
type FaultCtl = Arc<Mutex<FaultState>>;

/// Framing overhead charged per message on top of the payload, emulating
/// TCP/IP + RPC headers (src, dst, kind, length, and transport framing).
pub const HEADER_BYTES: usize = 24;

/// A routed message.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Sending machine.
    pub src: MachineId,
    /// Destination machine.
    pub dst: MachineId,
    /// Application-defined message kind (each subsystem defines its own
    /// tag space).
    pub kind: u16,
    /// Byte-encoded payload (see [`crate::codec::Codec`]).
    pub payload: Bytes,
}

impl Envelope {
    /// Wire size charged to the traffic counters.
    pub fn wire_bytes(&self) -> usize {
        HEADER_BYTES + self.payload.len()
    }
}

/// Per-machine traffic snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MachineTraffic {
    /// Bytes sent by this machine (wire size incl. headers).
    pub bytes_sent: u64,
    /// Bytes received.
    pub bytes_received: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_received: u64,
}

/// Cluster-wide traffic of one message kind (charged at delivery).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTraffic {
    /// Logical messages delivered with this kind (sub-messages of a batch
    /// envelope count individually).
    pub msgs: u64,
    /// Wire bytes attributed to this kind: full wire size for plain
    /// envelopes, per-submessage framing + payload inside batches, and the
    /// bare [`HEADER_BYTES`] for the batch envelope row itself.
    pub bytes: u64,
}

// The transport's own kinds, counted down from `u16::MAX`. Everything else
// is the application's (`graphlab-core::messages::Kind` counts up from 1);
// this crate treats a kind as a number and nothing more.

/// A batch envelope ([`crate::batch::Batcher`]). Application tag spaces
/// must not use it.
pub const K_BATCH: u16 = u16::MAX;
/// A compressed envelope: payload is the original kind (`u16` LE) followed
/// by an LZSS stream ([`crate::compress`]) of the original payload.
pub const K_ZIP: u16 = u16::MAX - 1;
/// Fabric → engines, "machine `m` is down". Payload is a
/// [`crate::fault::DownMsg`].
pub const K_DOWN: u16 = u16::MAX - 2;
/// Fabric → reborn machine, "you are back". Payload is an
/// [`crate::fault::UpMsg`].
pub const K_UP: u16 = u16::MAX - 3;
/// Explicit lease heartbeat (worker → master, sent only when idle past half
/// the lease period). Swallowed by the [`crate::Batcher`]; engines never
/// see it.
pub const K_LEASE: u16 = u16::MAX - 4;

/// Kinds below this bound have a per-kind row of their own: the engines'
/// kinds (below 64) plus 0.
const LOW_KINDS: u16 = 64;

/// First of the transport's own kinds, which have rows too.
const FIRST_NET_KIND: u16 = K_LEASE;

/// The row every kind outside both registry ranges is charged to (tests
/// and ad-hoc tools; no engine sends one), so the rows always add up to
/// the bytes received.
pub const UNREGISTERED_KIND: u16 = LOW_KINDS;

const KIND_SLOTS: usize = LOW_KINDS as usize + 1 + (u16::MAX - FIRST_NET_KIND) as usize + 1;

fn kind_slot(kind: u16) -> usize {
    if kind < LOW_KINDS {
        kind as usize
    } else if kind >= FIRST_NET_KIND {
        (LOW_KINDS + 1 + (kind - FIRST_NET_KIND)) as usize
    } else {
        UNREGISTERED_KIND as usize
    }
}

fn slot_kind(slot: usize) -> u16 {
    if slot <= LOW_KINDS as usize {
        slot as u16
    } else {
        FIRST_NET_KIND + (slot - LOW_KINDS as usize - 1) as u16
    }
}

/// Shared atomic traffic counters for a cluster.
pub struct NetStats {
    bytes_sent: Vec<AtomicU64>,
    bytes_received: Vec<AtomicU64>,
    msgs_sent: Vec<AtomicU64>,
    msgs_received: Vec<AtomicU64>,
    /// Per-kind `(msgs, bytes)`, dense by [`kind_slot`]: kinds are
    /// registry-bounded, so delivery charges a fixed array instead of
    /// locking a cluster-wide map.
    by_kind: Vec<(AtomicU64, AtomicU64)>,
}

impl NetStats {
    pub(crate) fn new(n: usize) -> Self {
        let mk = || (0..n).map(|_| AtomicU64::new(0)).collect();
        NetStats {
            bytes_sent: mk(),
            bytes_received: mk(),
            msgs_sent: mk(),
            msgs_received: mk(),
            by_kind: (0..KIND_SLOTS).map(|_| (AtomicU64::new(0), AtomicU64::new(0))).collect(),
        }
    }

    /// Snapshot of one machine's counters.
    pub fn machine(&self, m: MachineId) -> MachineTraffic {
        let i = m.index();
        MachineTraffic {
            bytes_sent: self.bytes_sent[i].load(Ordering::Relaxed),
            bytes_received: self.bytes_received[i].load(Ordering::Relaxed),
            msgs_sent: self.msgs_sent[i].load(Ordering::Relaxed),
            msgs_received: self.msgs_received[i].load(Ordering::Relaxed),
        }
    }

    /// Snapshot of every machine.
    pub fn all(&self) -> Vec<MachineTraffic> {
        (0..self.bytes_sent.len()).map(|i| self.machine(MachineId::from(i))).collect()
    }

    /// Total bytes sent across the cluster.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    /// Total messages sent across the cluster.
    pub fn total_msgs(&self) -> u64 {
        self.msgs_sent.iter().map(|a| a.load(Ordering::Relaxed)).sum()
    }

    fn row(&self, slot: usize) -> KindTraffic {
        let (msgs, bytes) = &self.by_kind[slot];
        KindTraffic { msgs: msgs.load(Ordering::Relaxed), bytes: bytes.load(Ordering::Relaxed) }
    }

    /// Delivered traffic of one message kind (of every unregistered kind
    /// together, for a kind outside the registry ranges).
    pub fn kind(&self, kind: u16) -> KindTraffic {
        self.row(kind_slot(kind))
    }

    /// Delivered traffic broken down by message kind, sorted by kind; kinds
    /// that saw no traffic have no row.
    pub fn by_kind(&self) -> Vec<(u16, KindTraffic)> {
        (0..KIND_SLOTS)
            .map(|slot| (slot_kind(slot), self.row(slot)))
            .filter(|(_, t)| *t != KindTraffic::default())
            .collect()
    }

    fn charge_kind(&self, kind: u16, bytes: u64, sign: i64) {
        let (m, b) = &self.by_kind[kind_slot(kind)];
        // Two's complement: adding `-x as u64` subtracts x.
        m.fetch_add(sign as u64, Ordering::Relaxed);
        b.fetch_add((sign * bytes as i64) as u64, Ordering::Relaxed);
    }

    /// Charges (`sign = 1`) or rolls back (`sign = -1`) the per-kind rows
    /// of one delivered envelope while walking it. A batch envelope is
    /// split into its sub-messages (framing + payload each), with the
    /// transport header on the envelope row.
    fn charge_kinds(&self, env: &Envelope, sign: i64) {
        use crate::codec::get_uvarint;
        if env.kind != K_BATCH {
            return self.charge_kind(env.kind, env.wire_bytes() as u64, sign);
        }
        self.charge_kind(K_BATCH, HEADER_BYTES as u64, sign);
        let mut buf: &[u8] = &env.payload;
        while buf.has_remaining() {
            let before = buf.remaining();
            let (Some(kind), Some(len)) = (get_uvarint(&mut buf), get_uvarint(&mut buf)) else {
                break; // malformed; charge what parsed
            };
            let header = before - buf.remaining();
            let len = len as usize;
            if buf.remaining() < len {
                break;
            }
            buf.advance(len);
            self.charge_kind(kind as u16, (header + len) as u64, sign);
        }
    }
}

/// Error returned by blocking receives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecvError {
    /// No message arrived within the timeout.
    Timeout,
    /// The fabric was shut down (all senders dropped).
    Disconnected,
    /// This machine has been killed by the fault plan: its inbox is
    /// drained on the floor and nothing can be sent or received until the
    /// scheduled restart (if any) marks it alive again.
    MachineDown,
}

struct Delayed {
    deliver_at: Instant,
    seq: u64,
    env: Envelope,
    /// (src, dst) incarnations at send time: a fault-era check at the
    /// delivery point drops messages from before a crash.
    incs: (u32, u32),
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; reverse for earliest-first.
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Send-side state of one (src, dst) channel: the link is modelled as a
/// serial pipe, so each message queues behind the previous one.
struct ChannelState {
    /// When the link finishes transmitting the last message queued on it.
    free_at: Instant,
    /// Delivery time of the last message scheduled on this channel; every
    /// successor is clamped to be no earlier (per-channel FIFO).
    last_deliver_at: Instant,
}

/// Send-side state shared under one lock: the jitter RNG, the global send
/// sequence (heap tie-break), and one [`ChannelState`] per destination.
struct SendState {
    jitter: u64,
    seq: u64,
    channels: Vec<ChannelState>,
}

/// How an envelope leaves a [`SimNet`] machine: the [`Endpoint`]'s link
/// over the simulated fabric.
pub(crate) struct SimLink {
    /// Every machine's inbox, for zero-latency delivery at the send point.
    direct: Vec<Sender<Envelope>>,
    delay_tx: Option<Sender<Delayed>>,
    latency: LatencyModel,
    faults: Option<FaultCtl>,
    // Send-side state; endpoints are owned by exactly one machine thread.
    send_state: Mutex<SendState>,
}

impl SimLink {
    /// Fault gate at the send point: a dead machine's sends vanish without
    /// touching any counter (the process is gone), while sends *to* a dead
    /// machine are still charged as sent and dropped at the delivery point.
    /// Returns the (src, dst) incarnations at send time.
    pub(crate) fn admit(&self, src: MachineId, dst: MachineId) -> Option<(u32, u32)> {
        let Some(f) = &self.faults else { return Some((0, 0)) };
        let mut st = f.lock();
        st.poll(clock::now());
        st.is_alive(src.index()).then(|| st.incarnations(src.index(), dst.index()))
    }

    /// Schedules `env` (admitted under `incs`, bound for another machine)
    /// on its channel, or delivers it on the spot at zero latency.
    pub(crate) fn send(&self, stats: &NetStats, env: Envelope, incs: (u32, u32)) {
        if let Some(delay) = &self.delay_tx {
            let mut st = self.send_state.lock();
            let now = clock::now();
            let tx = self.latency.transmit_time(env.wire_bytes());
            let prop = self.latency.propagation_delay(&mut st.jitter);
            let seq = st.seq;
            st.seq += 1;
            let ch = &mut st.channels[env.dst.index()];
            // Link serialization: transmission starts when the channel
            // is free, charging queueing delay behind earlier
            // (possibly large) messages.
            let start = ch.free_at.max(now);
            ch.free_at = start + tx;
            // FIFO clamp: jitter must not let this message arrive
            // before its channel predecessor.
            let deliver_at = (ch.free_at + prop).max(ch.last_deliver_at);
            ch.last_deliver_at = deliver_at;
            // The push to the delivery thread stays under the lock:
            // heap-insertion order must match schedule order, or a
            // concurrent sender on the same channel could get its
            // later message delivered while this one is in transit to
            // the heap. Delivery thread gone => shutting down; drop.
            let _ = delay.send(Delayed { deliver_at, seq, env, incs });
        } else if let Some(f) = &self.faults {
            f.lock().on_deliver(env, incs.0, incs.1, clock::now());
        } else {
            deliver(&self.direct, stats, env);
        }
    }

    /// If machine `id` is currently dead, drains its inbox `rx` (a crash
    /// loses volatile state) and reports whether a restart is scheduled.
    /// `None` = alive.
    pub(crate) fn dead_check(&self, id: MachineId, rx: &Receiver<Envelope>) -> Option<bool> {
        let f = self.faults.as_ref()?;
        let mut st = f.lock();
        st.poll(clock::now());
        if st.is_alive(id.index()) {
            return None;
        }
        // Drain under the fault lock: a restart (which injects the K_UP
        // marker) cannot interleave with the drain, so the marker is never
        // swept away.
        while rx.try_recv().is_ok() {}
        Some(st.restart_scheduled(id.index()))
    }
}

/// Builder/owner of the cluster fabric.
pub struct SimNet {
    stats: Arc<NetStats>,
    delivery: Option<std::thread::JoinHandle<()>>,
}

impl SimNet {
    /// Creates a fabric of `n` machines with the given latency model and
    /// returns one endpoint per machine.
    pub fn new(n: usize, latency: LatencyModel) -> (SimNet, Vec<Endpoint>) {
        Self::with_seed(n, latency, 0x9E37_79B9_7F4A_7C15)
    }

    /// As [`SimNet::new`] with an explicit jitter seed.
    pub fn with_seed(n: usize, latency: LatencyModel, seed: u64) -> (SimNet, Vec<Endpoint>) {
        Self::build(n, latency, seed, None)
    }

    /// As [`SimNet::with_seed`], with a [`FaultPlan`] mediating every
    /// delivery (see [`crate::fault`]).
    pub fn with_faults(
        n: usize,
        latency: LatencyModel,
        seed: u64,
        plan: FaultPlan,
    ) -> (SimNet, Vec<Endpoint>) {
        Self::build(n, latency, seed, Some(plan))
    }

    fn build(
        n: usize,
        latency: LatencyModel,
        seed: u64,
        plan: Option<FaultPlan>,
    ) -> (SimNet, Vec<Endpoint>) {
        assert!(n > 0, "cluster needs at least one machine");
        let stats = Arc::new(NetStats::new(n));
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::unbounded();
            txs.push(tx);
            rxs.push(rx);
        }

        let epoch = clock::now();
        let faults: Option<FaultCtl> = plan.map(|p| {
            Arc::new(Mutex::new(FaultState::new(p, n, epoch, txs.clone(), Arc::clone(&stats))))
        });

        let (delay_tx, delivery) = if latency.is_zero() {
            (None, None)
        } else {
            let (dtx, drx) = channel::unbounded::<Delayed>();
            let inboxes = txs.clone();
            let dstats = Arc::clone(&stats);
            let dfaults = faults.clone();
            let handle = std::thread::Builder::new()
                .name("simnet-delivery".into())
                .spawn(move || delivery_loop(drx, inboxes, dstats, dfaults))
                .expect("spawn delivery thread");
            (Some(dtx), Some(handle))
        };

        let endpoints = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let link = SimLink {
                    direct: txs.clone(),
                    delay_tx: delay_tx.clone(),
                    latency,
                    faults: faults.clone(),
                    send_state: Mutex::new(SendState {
                        jitter: seed ^ (i as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407),
                        seq: 0,
                        channels: (0..n)
                            .map(|_| ChannelState { free_at: epoch, last_deliver_at: epoch })
                            .collect(),
                    }),
                };
                let stats = Arc::clone(&stats);
                Endpoint::new(MachineId::from(i), n, stats, rx, txs[i].clone(), Link::Sim(link))
            })
            .collect();

        (SimNet { stats, delivery }, endpoints)
    }

    /// Traffic counters for the cluster.
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }
}

impl Drop for SimNet {
    fn drop(&mut self) {
        // The delivery thread exits once all endpoints (and their delay_tx
        // clones) are dropped; join if it already can be.
        if let Some(h) = self.delivery.take() {
            let _ = h.join();
        }
    }
}

/// Charges one envelope to the send-side counters: [`Endpoint::send`], at
/// the send point (self-sends are free and are not charged).
pub(crate) fn charge_send(stats: &NetStats, env: &Envelope) {
    let src = env.src.index();
    stats.bytes_sent[src].fetch_add(env.wire_bytes() as u64, Ordering::Relaxed);
    stats.msgs_sent[src].fetch_add(1, Ordering::Relaxed);
}

/// Charges one envelope to the receive-side counters (per-machine and
/// per-kind rows). Transports call this exactly once per envelope actually
/// handed to a destination inbox — never for messages lost in flight.
pub(crate) fn charge_delivery(stats: &NetStats, env: &Envelope) {
    let dst = env.dst.index();
    stats.bytes_received[dst].fetch_add(env.wire_bytes() as u64, Ordering::Relaxed);
    stats.msgs_received[dst].fetch_add(1, Ordering::Relaxed);
    stats.charge_kinds(env, 1);
}

/// Hands `env` to its destination inbox and charges the receive counters.
/// Receives are counted here — at actual delivery — not at send time, so
/// undeliverable messages (receiver already gone) never inflate the stats.
/// The counters are bumped *before* the handoff (so a receiver that has the
/// message always observes them) and rolled back if the inbox is gone.
pub(crate) fn deliver(inboxes: &[Sender<Envelope>], stats: &NetStats, env: Envelope) {
    let dst = env.dst.index();
    let wire = env.wire_bytes() as u64;
    charge_delivery(stats, &env);
    // A refused envelope comes back in the error: roll its rows back.
    if let Err(refused) = inboxes[dst].send(env) {
        stats.bytes_received[dst].fetch_sub(wire, Ordering::Relaxed);
        stats.msgs_received[dst].fetch_sub(1, Ordering::Relaxed);
        stats.charge_kinds(&refused.0, -1);
    }
}

fn delivery_loop(
    rx: Receiver<Delayed>,
    inboxes: Vec<Sender<Envelope>>,
    stats: Arc<NetStats>,
    faults: Option<FaultCtl>,
) {
    let mut heap: BinaryHeap<Delayed> = BinaryHeap::new();
    loop {
        // Deliver everything due.
        let now = clock::now();
        while let Some(top) = heap.peek() {
            if top.deliver_at <= now {
                let d = heap.pop().expect("peeked");
                match &faults {
                    Some(f) => f.lock().on_deliver(d.env, d.incs.0, d.incs.1, now),
                    None => deliver(&inboxes, &stats, d.env),
                }
            } else {
                break;
            }
        }
        // Wait for the next due time or a new message.
        let wait = heap
            .peek()
            .map(|d| d.deliver_at.saturating_duration_since(clock::now()))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(wait) {
            Ok(d) => heap.push(d),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // Every endpoint (and with it every inbox receiver) is
                // gone, so nothing in the heap can be received: drop the
                // backlog without counting it as delivered.
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_delivery() {
        let (_net, eps) = SimNet::new(2, LatencyModel::ZERO);
        eps[0].send(MachineId(1), 7, Bytes::from_static(b"hi"));
        let env = eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.src, MachineId(0));
        assert_eq!(env.kind, 7);
        assert_eq!(&env.payload[..], b"hi");
    }

    #[test]
    fn self_send_works_and_is_free() {
        let (net, eps) = SimNet::new(1, LatencyModel::ZERO);
        eps[0].send(MachineId(0), 1, Bytes::from_static(b"loop"));
        let env = eps[0].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.kind, 1);
        assert_eq!(net.stats().total_bytes(), 0);
        assert_eq!(net.stats().total_msgs(), 0);
    }

    #[test]
    fn stats_count_wire_bytes() {
        let (net, eps) = SimNet::new(3, LatencyModel::ZERO);
        eps[0].send(MachineId(1), 0, Bytes::from(vec![0u8; 100]));
        eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
        let t0 = net.stats().machine(MachineId(0));
        let t1 = net.stats().machine(MachineId(1));
        assert_eq!(t0.bytes_sent, (100 + HEADER_BYTES) as u64);
        assert_eq!(t0.msgs_sent, 1);
        assert_eq!(t1.bytes_received, (100 + HEADER_BYTES) as u64);
        assert_eq!(t1.msgs_received, 1);
        assert_eq!(net.stats().machine(MachineId(2)), MachineTraffic::default());
    }

    #[test]
    fn broadcast_reaches_all_others() {
        let (_net, eps) = SimNet::new(4, LatencyModel::ZERO);
        eps[2].broadcast(9, &Bytes::from_static(b"x"));
        for (i, ep) in eps.iter().enumerate() {
            if i == 2 {
                assert_eq!(ep.try_recv().unwrap_err(), RecvError::Timeout);
            } else {
                let env = ep.recv_timeout(Duration::from_secs(1)).unwrap();
                assert_eq!(env.kind, 9);
                assert_eq!(env.src, MachineId(2));
            }
        }
    }

    #[test]
    fn delayed_delivery_takes_time_and_keeps_order() {
        let model = LatencyModel::fixed(Duration::from_millis(20));
        let (_net, eps) = SimNet::new(2, model);
        let start = Instant::now();
        for i in 0..5u8 {
            eps[0].send(MachineId(1), i as u16, Bytes::from(vec![i]));
        }
        for i in 0..5u16 {
            let env = eps[1].recv_timeout(Duration::from_secs(2)).unwrap();
            assert_eq!(env.kind, i, "FIFO preserved under equal latency");
        }
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn small_message_cannot_overtake_large_one() {
        // Regression for the headline ISSUE 2 bug: with a bandwidth term
        // (and jitter), a 64 KiB message used to get a much later
        // deliver-at than the tiny messages sent right after it, so the
        // heap reordered the channel. The FIFO clamp forbids that.
        let model = LatencyModel {
            fixed: Duration::from_micros(100),
            per_kib: Duration::from_micros(50),
            jitter: Duration::from_micros(30),
        };
        let (_net, eps) = SimNet::new(2, model);
        eps[0].send(MachineId(1), 0, Bytes::from(vec![0u8; 64 * 1024]));
        for k in 1..=8u16 {
            eps[0].send(MachineId(1), k, Bytes::new());
        }
        for k in 0..=8u16 {
            let env = eps[1].recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(env.kind, k, "per-channel FIFO violated");
        }
    }

    #[test]
    fn link_serialization_charges_queueing_delay() {
        // Two 8 KiB messages back-to-back on a 1 ms/KiB link: the second
        // transmission starts only when the first ends, so it cannot be
        // delivered before ~16 ms even though its own tx time is 8 ms.
        let model = LatencyModel {
            fixed: Duration::ZERO,
            per_kib: Duration::from_millis(1),
            jitter: Duration::ZERO,
        };
        let (_net, eps) = SimNet::new(2, model);
        let payload = vec![0u8; 8 * 1024 - HEADER_BYTES];
        let start = Instant::now();
        eps[0].send(MachineId(1), 0, Bytes::from(payload.clone()));
        eps[0].send(MachineId(1), 1, Bytes::from(payload));
        let first = eps[1].recv_timeout(Duration::from_secs(10)).unwrap();
        let t_first = start.elapsed();
        let second = eps[1].recv_timeout(Duration::from_secs(10)).unwrap();
        let t_second = start.elapsed();
        assert_eq!((first.kind, second.kind), (0, 1));
        assert!(t_first >= Duration::from_millis(8), "first tx takes 8 ms, got {t_first:?}");
        assert!(t_second >= Duration::from_millis(16), "second queues behind first, got {t_second:?}");
    }

    #[test]
    fn channels_are_independent() {
        // Serialization is per-channel: a huge transfer to machine 1 must
        // not delay a tiny message to machine 2. Deterministic check (no
        // wall-clock upper bound): the tiny message arrives while the big
        // one — whose transmission takes ~2 s of simulated link time — is
        // still undelivered.
        let model = LatencyModel {
            fixed: Duration::ZERO,
            per_kib: Duration::from_millis(2),
            jitter: Duration::ZERO,
        };
        let (_net, eps) = SimNet::new(3, model);
        eps[0].send(MachineId(1), 0, Bytes::from(vec![0u8; 1024 * 1024])); // ~2 s tx
        eps[0].send(MachineId(2), 1, Bytes::new());
        let env = eps[2].recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.kind, 1);
        assert_eq!(
            eps[1].try_recv().unwrap_err(),
            RecvError::Timeout,
            "big transfer should still be in flight: cross-channel head-of-line blocking"
        );
    }

    #[test]
    fn undelivered_messages_are_not_counted_received() {
        // ISSUE 2 satellite: receive counters are charged at delivery, so
        // a message still in the delay heap when the cluster shuts down
        // must not show up as received.
        let (net, mut eps) = SimNet::new(2, LatencyModel::fixed(Duration::from_millis(250)));
        let stats = Arc::clone(net.stats());
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        e0.send(MachineId(1), 3, Bytes::from(vec![0u8; 64]));
        assert_eq!(stats.machine(MachineId(0)).msgs_sent, 1);
        drop(e1); // receiver gone before the 250 ms delivery fires
        drop(e0);
        drop(net); // joins the delivery thread
        let t1 = stats.machine(MachineId(1));
        assert_eq!(t1.msgs_received, 0, "in-flight message counted as received");
        assert_eq!(t1.bytes_received, 0);
    }

    #[test]
    fn delayed_receive_counters_match_after_delivery() {
        let (net, eps) = SimNet::new(2, LatencyModel::fixed(Duration::from_millis(1)));
        eps[0].send(MachineId(1), 0, Bytes::from(vec![0u8; 100]));
        eps[1].recv_timeout(Duration::from_secs(5)).unwrap();
        // The delivery thread bumps the counters before the inbox handoff,
        // so they are visible once recv returns.
        let t1 = net.stats().machine(MachineId(1));
        assert_eq!(t1.msgs_received, 1);
        assert_eq!(t1.bytes_received, (100 + HEADER_BYTES) as u64);
    }

    #[test]
    fn per_kind_counters_charged_at_delivery() {
        let (net, eps) = SimNet::new(2, LatencyModel::ZERO);
        eps[0].send(MachineId(1), 7, Bytes::from(vec![0u8; 10]));
        eps[0].send(MachineId(1), 7, Bytes::from(vec![0u8; 20]));
        eps[0].send(MachineId(1), 9, Bytes::from(vec![0u8; 5]));
        for _ in 0..3 {
            eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
        }
        let k7 = net.stats().kind(7);
        assert_eq!(k7.msgs, 2);
        assert_eq!(k7.bytes, (2 * HEADER_BYTES + 30) as u64);
        assert_eq!(net.stats().kind(9).msgs, 1);
        assert_eq!(net.stats().kind(42), KindTraffic::default());
        let rows = net.stats().by_kind();
        assert_eq!(rows.iter().map(|&(k, _)| k).collect::<Vec<_>>(), vec![7, 9]);
    }

    #[test]
    fn kinds_outside_the_registry_share_one_row() {
        let (net, eps) = SimNet::new(2, LatencyModel::ZERO);
        eps[0].send(MachineId(1), 104, Bytes::from(vec![0u8; 10]));
        eps[0].send(MachineId(1), 30_000, Bytes::from(vec![0u8; 6]));
        eps[0].send(MachineId(1), K_DOWN, Bytes::new());
        for _ in 0..3 {
            eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
        }
        let other = KindTraffic { msgs: 2, bytes: (2 * HEADER_BYTES + 16) as u64 };
        assert_eq!(net.stats().kind(104), other);
        assert_eq!(
            net.stats().by_kind(),
            vec![
                (UNREGISTERED_KIND, other),
                (K_DOWN, KindTraffic { msgs: 1, bytes: HEADER_BYTES as u64 }),
            ]
        );
        let total: u64 = net.stats().by_kind().iter().map(|(_, t)| t.bytes).sum();
        assert_eq!(total, net.stats().machine(MachineId(1)).bytes_received);
    }

    #[test]
    fn batch_envelopes_attribute_inner_kinds() {
        use crate::codec::put_uvarint;
        // Hand-rolled batch envelope: two sub-messages of kinds 3 and 4
        // (varint framing: 1-byte kind + 1-byte length each here).
        let mut buf = bytes::BytesMut::new();
        use bytes::BufMut;
        put_uvarint(&mut buf, 3);
        put_uvarint(&mut buf, 8);
        buf.put_slice(&[0u8; 8]);
        put_uvarint(&mut buf, 4);
        put_uvarint(&mut buf, 2);
        buf.put_slice(&[0u8; 2]);
        let (net, eps) = SimNet::new(2, LatencyModel::ZERO);
        eps[0].send(MachineId(1), K_BATCH, buf.freeze());
        eps[1].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(net.stats().kind(3).bytes, 2 + 8);
        assert_eq!(net.stats().kind(4).bytes, 2 + 2);
        assert_eq!(net.stats().kind(K_BATCH).bytes, HEADER_BYTES as u64);
        // Sub-message bytes + envelope header account for the whole wire.
        let total: u64 = net.stats().by_kind().iter().map(|(_, t)| t.bytes).sum();
        assert_eq!(total, net.stats().machine(MachineId(1)).bytes_received);
    }

    #[test]
    fn undelivered_kinds_are_rolled_back() {
        let (net, mut eps) = SimNet::new(2, LatencyModel::fixed(Duration::from_millis(250)));
        let stats = Arc::clone(net.stats());
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        e0.send(MachineId(1), 3, Bytes::from(vec![0u8; 64]));
        drop(e1);
        drop(e0);
        drop(net);
        assert_eq!(stats.kind(3), KindTraffic::default());
    }

    #[test]
    fn timeout_when_no_message() {
        let (_net, eps) = SimNet::new(2, LatencyModel::ZERO);
        assert_eq!(
            eps[0].recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvError::Timeout
        );
    }

    #[test]
    fn threads_can_converse() {
        let (_net, mut eps) = SimNet::new(2, LatencyModel::fixed(Duration::from_millis(1)));
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let h = std::thread::spawn(move || {
            // Echo server on machine 1.
            for _ in 0..10 {
                let env = e1.recv_timeout(Duration::from_secs(5)).unwrap();
                e1.send(env.src, env.kind + 1, env.payload);
            }
        });
        for i in 0..10u16 {
            e0.send(MachineId(1), i, Bytes::from_static(b"ping"));
            let reply = e0.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(reply.kind, i + 1);
        }
        h.join().unwrap();
    }
}
