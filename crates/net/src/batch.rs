//! Message batching/coalescing on top of the fabric (§4.2.2, and the
//! arXiv version's description of aggregating small lock/schedule RPCs).
//!
//! The engines' hot path is dominated by small control messages — lock
//! chain hops, grants, schedule requests, write-backs — each paying
//! [`crate::cluster::HEADER_BYTES`] of framing and one trip through the
//! delivery heap. A [`Batcher`] wraps an [`Endpoint`] and coalesces
//! messages bound for the same machine into one envelope:
//!
//! - [`Batcher::send_with`] writes the sub-header into the destination's
//!   queue buffer and lets the caller encode the message straight behind it
//!   — the engines' data plane: one copy per message, no buffer of its own —
//!   and flushes the queue when a threshold ([`BATCH_MSGS`] messages or
//!   [`BATCH_BYTES`] bytes) is hit; [`Batcher::send`] takes a finished
//!   [`Bytes`] payload down the same path (control traffic);
//! - oversized payloads flush their queue first (order!) and go out
//!   unbatched;
//! - every *blocking* receive flushes all queues, so a machine never
//!   sleeps on replies to requests it has not put on the wire yet —
//!   batching can therefore never deadlock an engine;
//! - received [`K_BATCH`] envelopes are transparently unpacked, in order,
//!   into the individual messages;
//! - under [`BatchPolicy::Compressed`], outgoing wire payloads at least
//!   [`COMPRESS_MIN`] bytes long are run through the LZSS pass
//!   in [`crate::compress`] and shipped under the reserved [`K_ZIP`] kind
//!   (original kind + compressed body), kept only when it actually
//!   shrinks; receivers decompress transparently before unpacking. The
//!   LZSS table and its output buffer belong to the batcher and are reused
//!   from envelope to envelope.
//!
//! How a message gets into its envelope does not show on the wire: queue
//! bytes, flush points and compressed streams are what they were when every
//! message arrived as a `Bytes`.
//!
//! Because each queue is FIFO and the fabric guarantees per-channel FIFO
//! delivery of the batch envelopes themselves, routing *all* traffic to a
//! destination through the batcher preserves the exact per-channel order
//! the unbatched engines relied on. Compression wraps whole envelopes and
//! so cannot reorder anything either.

use std::collections::VecDeque;
use std::time::Duration;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use graphlab_graph::MachineId;

use crate::clock;
use crate::cluster::{Envelope, RecvError};
use crate::cluster::{K_BATCH, K_DOWN, K_LEASE, K_ZIP};
use crate::fault::DownMsg;
use crate::lease::{LeaseConfig, LeaseState, LEASE_MASTER};
use crate::transport::Endpoint;
use crate::codec::{encode_to_bytes, get_uvarint, patch_len, put_uvarint};
use crate::compress::{self, Lzss};

/// Per-submessage framing inside a batch envelope: varint kind + varint
/// length (2 bytes for typical engine messages, up to this bound).
pub const SUB_HEADER_MAX_BYTES: usize = 3 + 5;

/// Smallest wire payload worth an LZSS attempt: below it the stream's
/// framing eats what a match could save.
pub const COMPRESS_MIN: usize = 96;

/// A destination queue is flushed once its buffered bytes reach this bound;
/// payloads at least this large bypass batching entirely.
pub const BATCH_BYTES: usize = 16 * 1024;

/// A destination queue is flushed once it holds this many messages.
pub const BATCH_MSGS: usize = 64;

/// What a [`Batcher`] does with outgoing messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BatchPolicy {
    /// Pass-through: every message goes out individually and raw.
    Disabled,
    /// Coalesce messages per destination up to [`BATCH_BYTES`] /
    /// [`BATCH_MSGS`]; ship the envelopes raw.
    Uncompressed,
    /// Coalesce, and run outgoing wire payloads (batch envelopes and
    /// oversized singles) of at least [`COMPRESS_MIN`] bytes through the
    /// LZSS pass.
    #[default]
    Compressed,
}

/// Sub-messages framed back to back, waiting for one destination. The
/// buffer stays with the queue: a flush copies out (or compresses) what it
/// ships, so a warm queue never allocates.
struct Queue {
    buf: BytesMut,
    count: usize,
}

/// What [`Batcher::put_wire`] ships: bytes still in a queue buffer, copied
/// out only if they leave raw, or a payload the caller already owns.
enum Wire<'a> {
    Queued(&'a [u8]),
    Owned(Bytes),
}

/// Counters describing what the batcher did (diagnostics; the wire-level
/// truth lives in [`crate::cluster::NetStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchCounters {
    /// Messages that left the machine inside a multi-message batch
    /// envelope (a queued message whose flush unwraps it solo moves to
    /// `unbatched` instead).
    pub queued: u64,
    /// Batch envelopes flushed (with ≥ 2 messages inside).
    pub batches: u64,
    /// Messages sent individually (pass-through, oversized, self-sends,
    /// or single-message flushes).
    pub unbatched: u64,
    /// Wire envelopes that went out compressed ([`K_ZIP`]).
    pub compressed: u64,
    /// Payload bytes fed into the compressor for envelopes it won on.
    pub compress_in: u64,
    /// Wire payload bytes after compression (incl. the 2-byte kind tag).
    pub compress_out: u64,
}

/// A batching send/receive façade over an [`Endpoint`].
pub struct Batcher {
    ep: Endpoint,
    policy: BatchPolicy,
    queues: Vec<Queue>,
    /// Messages unpacked from a received batch, drained before the socket.
    pending: VecDeque<Envelope>,
    counters: BatchCounters,
    /// Compressor state and the [`K_ZIP`] body under construction, reused
    /// from envelope to envelope.
    lzss: Lzss,
    zip: Vec<u8>,
    /// Lease-based failure detection ([`crate::lease`]), when enabled:
    /// received envelopes refresh the sender's lease, blocking waits are
    /// sliced so heartbeats go out and the master's expiry scan runs, and
    /// an expired lease synthesizes the same `K_DOWN` the fault fabric's
    /// oracle would have delivered.
    lease: Option<LeaseState>,
    /// Machines known *permanently* dead: traffic to them is dropped at
    /// the wire hop. On the sim fabric the drop merely mirrors what the
    /// fabric does anyway; on TCP it keeps a survivor from writing to a
    /// peer that no longer reads: once the stream's send buffer fills, a
    /// write to a host that vanished without a reset blocks until TCP
    /// itself gives up. Survives
    /// [`Batcher::clear`] — permanent deaths are cluster-durable facts.
    fenced: Vec<bool>,
}

impl Batcher {
    /// Wraps `ep` with the given flush policy.
    pub fn new(ep: Endpoint, policy: BatchPolicy) -> Self {
        let n = ep.num_machines();
        Batcher {
            ep,
            policy,
            queues: (0..n).map(|_| Queue { buf: BytesMut::new(), count: 0 }).collect(),
            pending: VecDeque::new(),
            counters: BatchCounters::default(),
            lzss: Lzss::default(),
            zip: Vec::new(),
            lease: None,
            fenced: vec![false; n],
        }
    }

    /// Engine hook: `machine` is *permanently* dead — drop all further
    /// traffic to it at the wire hop (restartable kills must NOT be
    /// fenced: the reborn machine needs the post-rollback traffic).
    pub fn fence(&mut self, machine: u16) {
        self.fenced[machine as usize] = true;
    }

    /// Turns on lease-based failure detection with the given policy. The
    /// master (machine 0) starts tracking every machine's lease; workers
    /// start heartbeating when idle. See [`crate::lease`].
    pub fn enable_lease(&mut self, cfg: LeaseConfig) {
        let me = self.ep.id().index() as u16;
        self.lease = Some(LeaseState::new(me, self.ep.num_machines(), cfg, clock::now()));
    }

    /// Engine hook: a death was observed (any detector). Fences the dead
    /// machine out of the lease table so the detector never re-declares
    /// it, and keeps the era monotone.
    pub fn lease_note_death(&mut self, machine: u16, era: u32) {
        if let Some(l) = &mut self.lease {
            l.observe_death(machine as usize, era);
        }
    }

    /// Engine hook: a restart was observed — the machine leases afresh.
    pub fn lease_note_up(&mut self, machine: u16, era: u32) {
        if let Some(l) = &mut self.lease {
            l.observe_up(machine as usize, era, clock::now());
        }
    }

    /// Lease bookkeeping, run between wait slices: workers send an
    /// explicit heartbeat when idle towards the master past half the
    /// period; the master declares expired leases dead and broadcasts the
    /// fabric-shaped `K_DOWN` (restart = false, next era) to everyone it
    /// still believes alive — itself included, so its own engine takes
    /// the same path as the survivors.
    fn lease_tick(&mut self) {
        let Batcher { ep, lease, fenced, .. } = self;
        let Some(l) = lease else { return };
        let now = clock::now();
        if l.is_master() {
            while let Some((victim, era)) = l.expired(now) {
                // A lease expiry is always a permanent declaration.
                fenced[victim as usize] = true;
                let down = DownMsg { machine: victim, restart: false, era };
                let payload = encode_to_bytes(&down);
                for j in 0..ep.num_machines() {
                    if j != victim as usize && !l.is_dead(j) {
                        #[expect(clippy::disallowed_methods, reason = "this IS the fencing machinery: the victim was masked above and the loop skips it and the already-dead")]
                        ep.send(MachineId::from(j), K_DOWN, payload.clone());
                    }
                }
            }
        } else if l.heartbeat_due(now) {
            #[expect(clippy::disallowed_methods, reason = "liveness signal: a heartbeat must never sit in a batch queue, and the lease master is the failure detector itself")]
            ep.send(MachineId::from(LEASE_MASTER), K_LEASE, encode_to_bytes(&l.heartbeat()));
            l.note_sent_to_master(now);
        }
    }

    /// The wrapped endpoint's machine id.
    pub fn id(&self) -> MachineId {
        self.ep.id()
    }

    /// Number of machines in the cluster.
    pub fn num_machines(&self) -> usize {
        self.ep.num_machines()
    }

    /// Batching diagnostics so far.
    pub fn counters(&self) -> BatchCounters {
        self.counters
    }

    /// Queues (or sends) `payload` to `dst`. Messages to one destination
    /// are delivered in send order regardless of how they are packed.
    pub fn send(&mut self, dst: MachineId, kind: u16, payload: Bytes) {
        if self.goes_alone(dst, payload.len()) {
            // An owned payload that is not batched leaves as it is, so the
            // big blob does not get copied.
            self.send_alone(dst, kind, payload);
        } else {
            self.send_with(dst, kind, |buf| buf.put_slice(&payload));
        }
    }

    /// Queues (or sends) to `dst` the message `put` writes: the sub-header
    /// goes into the destination's queue buffer and `put` appends the
    /// payload straight behind it. [`Batcher::send`] is this with a copy for
    /// `put`; the bytes queued, the flush points and the wire are the same.
    pub fn send_with(&mut self, dst: MachineId, kind: u16, put: impl FnOnce(&mut BytesMut)) {
        debug_assert!(
            kind != K_BATCH && kind != K_ZIP,
            "K_BATCH/K_ZIP are reserved for the transport"
        );
        let q = &mut self.queues[dst.index()];
        let start = q.buf.len();
        put_uvarint(&mut q.buf, kind as u64);
        // The length precedes a payload whose size is known only once it is
        // written: hold the one byte nearly every message needs.
        let len_at = q.buf.len();
        q.buf.put_u8(0);
        put(&mut q.buf);
        let len = q.buf.len() - len_at - 1;
        if self.goes_alone(dst, len) {
            let q = &mut self.queues[dst.index()];
            let payload = Bytes::copy_from_slice(&q.buf[len_at + 1..]);
            q.buf.truncate(start);
            return self.send_alone(dst, kind, payload);
        }
        let q = &mut self.queues[dst.index()];
        patch_len(&mut q.buf, len_at, len);
        q.count += 1;
        self.counters.queued += 1;
        if q.count >= BATCH_MSGS || q.buf.len() >= BATCH_BYTES {
            self.flush(dst);
        }
    }

    /// Whether a `len`-byte payload for `dst` bypasses the queue: the
    /// pass-through policy, self-sends, and payloads a queue may not hold.
    fn goes_alone(&self, dst: MachineId, len: usize) -> bool {
        self.policy == BatchPolicy::Disabled || dst == self.ep.id() || len >= BATCH_BYTES
    }

    /// Sends `payload` unbatched, behind everything queued ahead of it
    /// (order!).
    fn send_alone(&mut self, dst: MachineId, kind: u16, payload: Bytes) {
        debug_assert!(
            kind != K_BATCH && kind != K_ZIP,
            "K_BATCH/K_ZIP are reserved for the transport"
        );
        self.flush(dst);
        self.counters.unbatched += 1;
        self.put_wire(dst, kind, Wire::Owned(payload));
    }

    /// Sends `payload` to every *other* machine (through the queues).
    pub fn broadcast(&mut self, kind: u16, payload: &Bytes) {
        for i in 0..self.num_machines() {
            let dst = MachineId::from(i);
            if dst != self.ep.id() {
                self.send(dst, kind, payload.clone());
            }
        }
    }

    /// Puts everything queued for `dst` on the wire.
    pub fn flush(&mut self, dst: MachineId) {
        let q = &mut self.queues[dst.index()];
        if q.count == 0 {
            return;
        }
        let count = std::mem::take(&mut q.count);
        // (Taken for the call only: `put_wire` needs the whole batcher.)
        let mut buf = std::mem::take(&mut q.buf);
        if count == 1 {
            // A batch of one is pure overhead: unwrap it.
            let mut payload: &[u8] = &buf;
            let kind = get_uvarint(&mut payload).expect("own framing") as u16;
            get_uvarint(&mut payload).expect("own framing");
            self.counters.unbatched += 1;
            self.counters.queued -= 1;
            self.put_wire(dst, kind, Wire::Queued(payload));
        } else {
            self.counters.batches += 1;
            self.put_wire(dst, K_BATCH, Wire::Queued(&buf));
        }
        buf.clear();
        self.queues[dst.index()].buf = buf;
    }

    /// Final wire hop: compresses the envelope when the policy asks for it
    /// and it pays off, otherwise ships it raw. Self-sends never compress
    /// (they are free and never touch the wire).
    fn put_wire(&mut self, dst: MachineId, kind: u16, payload: Wire<'_>) {
        if self.fenced[dst.index()] && dst != self.ep.id() {
            return;
        }
        if let Some(l) = &mut self.lease {
            // Piggybacked lease refresh: any traffic towards the master
            // resets the heartbeat clock.
            if dst.index() == LEASE_MASTER && !l.is_master() {
                l.note_sent_to_master(clock::now());
            }
        }
        let body: &[u8] = match &payload {
            Wire::Queued(body) => body,
            Wire::Owned(body) => body,
        };
        if self.policy == BatchPolicy::Compressed && dst != self.ep.id() && body.len() >= COMPRESS_MIN
        {
            // The K_ZIP body, written once: kind tag, then the stream.
            self.zip.clear();
            self.zip.extend_from_slice(&kind.to_le_bytes());
            self.lzss.compress_into(body, &mut self.zip);
            if self.zip.len() < body.len() {
                self.counters.compressed += 1;
                self.counters.compress_in += body.len() as u64;
                self.counters.compress_out += self.zip.len() as u64;
                #[expect(clippy::disallowed_methods, reason = "put_wire IS the fenced path's terminal hop; the fence mask was checked on entry")]
                self.ep.send(dst, K_ZIP, Bytes::copy_from_slice(&self.zip));
                return;
            }
        }
        #[expect(clippy::disallowed_methods, reason = "put_wire IS the fenced path's terminal hop; the fence mask was checked on entry")]
        self.ep.send(dst, kind, match payload {
            Wire::Queued(body) => Bytes::copy_from_slice(body),
            Wire::Owned(body) => body,
        });
    }

    /// Flushes every destination queue.
    pub fn flush_all(&mut self) {
        for i in 0..self.queues.len() {
            self.flush(MachineId::from(i));
        }
    }

    /// Drops everything buffered on both sides: queued unsent messages,
    /// unpacked-but-unread batch contents and what the compressor kept of
    /// the last envelope. Crash-restart semantics — a reborn machine must
    /// not leak pre-crash traffic into its new life.
    pub fn clear(&mut self) {
        for q in &mut self.queues {
            q.buf.clear();
            q.count = 0;
        }
        self.pending.clear();
        self.zip.clear();
        self.lzss.reset();
    }

    /// Whether the wrapped machine is currently dead under the fault plan
    /// (`Some(restart_scheduled)`), see [`Endpoint::self_death`].
    pub fn self_death(&self) -> Option<bool> {
        self.ep.self_death()
    }

    /// Blocking receive with timeout. Flushes all queues before actually
    /// waiting on the socket — a machine about to sleep must have its
    /// outgoing requests on the wire. Returning an already-available
    /// message (pending batch contents or a non-empty inbox) does not
    /// flush, so replies generated across a burst keep coalescing; the
    /// size/count thresholds bound how long they can sit.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Envelope, RecvError> {
        if self.lease.is_none() {
            return self.recv_inner(timeout);
        }
        // Lease detection slices the wait so heartbeats go out and the
        // master's expiry scan runs even while this machine is blocked.
        let deadline = clock::now() + timeout;
        loop {
            self.lease_tick();
            let slice = self.lease.as_ref().expect("lease checked above").config().slice();
            let remaining = deadline.saturating_duration_since(clock::now());
            match self.recv_inner(slice.min(remaining)) {
                // Heartbeats refreshed the sender's lease on receipt; the
                // engines never see them.
                Ok(env) if env.kind == K_LEASE => continue,
                Ok(env) => return Ok(env),
                Err(RecvError::Timeout) if remaining > slice => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// The actual single-wait receive `recv_timeout` is built on.
    fn recv_inner(&mut self, timeout: Duration) -> Result<Envelope, RecvError> {
        if let Some(env) = self.pending.pop_front() {
            return Ok(env);
        }
        match self.ep.try_recv() {
            Ok(env) => return Ok(self.unpack_first(env)),
            Err(RecvError::Timeout) => {}
            Err(e) => return Err(e),
        }
        self.flush_all();
        let env = self.ep.recv_timeout(timeout)?;
        Ok(self.unpack_first(env))
    }

    /// Non-blocking receive (does not flush: callers drain bursts between
    /// blocking receives, which do).
    pub fn try_recv(&mut self) -> Result<Envelope, RecvError> {
        loop {
            let env = match self.pending.pop_front() {
                Some(env) => env,
                None => {
                    let env = self.ep.try_recv()?;
                    self.unpack_first(env)
                }
            };
            if self.lease.is_some() && env.kind == K_LEASE {
                continue;
            }
            return Ok(env);
        }
    }

    fn unpack_first(&mut self, env: Envelope) -> Envelope {
        if let Some(l) = &mut self.lease {
            // Piggybacked refresh: any envelope from a machine proves it
            // alive. `K_DOWN` is exempt — the fabric stamps the *victim*
            // as its source, and a death notice must not refresh the
            // victim's own lease.
            if env.kind != K_DOWN {
                l.refresh(env.src.index(), clock::now());
            }
        }
        let env = if env.kind == K_ZIP {
            let mut buf = env.payload;
            let kind = buf.get_u16_le();
            let payload =
                Bytes::from(compress::decompress(&buf).expect("corrupt compressed envelope"));
            Envelope { src: env.src, dst: env.dst, kind, payload }
        } else {
            env
        };
        if env.kind != K_BATCH {
            return env;
        }
        debug_assert!(self.pending.is_empty());
        let mut buf = env.payload;
        while buf.has_remaining() {
            let kind = get_uvarint(&mut buf).expect("batch framing") as u16;
            let len = get_uvarint(&mut buf).expect("batch framing") as usize;
            let payload = buf.copy_to_bytes(len);
            self.pending.push_back(Envelope { src: env.src, dst: env.dst, kind, payload });
        }
        self.pending.pop_front().expect("batch envelope holds at least one message")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::SimNet;
    use crate::latency::LatencyModel;

    fn pair(policy: BatchPolicy) -> (SimNet, Batcher, Batcher) {
        let (net, mut eps) = SimNet::new(2, LatencyModel::ZERO);
        let b1 = Batcher::new(eps.pop().unwrap(), policy);
        let b0 = Batcher::new(eps.pop().unwrap(), policy);
        (net, b0, b1)
    }

    #[test]
    fn coalesces_and_preserves_order() {
        let (net, mut b0, mut b1) = pair(BatchPolicy::default());
        for k in 0..10u16 {
            b0.send(MachineId(1), k, Bytes::from(vec![k as u8; 8]));
        }
        b0.flush_all();
        for k in 0..10u16 {
            let env = b1.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(env.kind, k);
            assert_eq!(&env.payload[..], &vec![k as u8; 8][..]);
            assert_eq!(env.src, MachineId(0));
        }
        // All ten rode in one envelope.
        assert_eq!(net.stats().total_msgs(), 1);
        assert_eq!(b0.counters().batches, 1);
    }

    #[test]
    fn count_threshold_triggers_flush() {
        let (net, mut b0, _b1) = pair(BatchPolicy::default());
        for k in 1..BATCH_MSGS as u16 {
            b0.send(MachineId(1), k, Bytes::new());
        }
        assert_eq!(net.stats().total_msgs(), 0, "still buffered");
        b0.send(MachineId(1), 0, Bytes::new());
        assert_eq!(net.stats().total_msgs(), 1, "auto-flush at BATCH_MSGS");
    }

    #[test]
    fn byte_threshold_triggers_flush() {
        let (net, mut b0, _b1) = pair(BatchPolicy::default());
        b0.send(MachineId(1), 0, Bytes::from(vec![0u8; BATCH_BYTES * 3 / 5]));
        assert_eq!(net.stats().total_msgs(), 0, "still buffered");
        b0.send(MachineId(1), 1, Bytes::from(vec![0u8; BATCH_BYTES * 3 / 5]));
        assert_eq!(net.stats().total_msgs(), 1, "auto-flush at BATCH_BYTES");
    }

    #[test]
    fn a_flush_leaves_the_queue_its_buffer() {
        let (_net, mut b0, _b1) = pair(BatchPolicy::default());
        for k in 0..3u16 {
            b0.send(MachineId(1), k, Bytes::from(vec![0u8; 40]));
        }
        let (ptr, cap) = (b0.queues[1].buf.as_ptr(), b0.queues[1].buf.capacity());
        b0.flush(MachineId(1));
        let q = &b0.queues[1];
        assert_eq!((q.buf.as_ptr(), q.buf.capacity(), q.buf.len(), q.count), (ptr, cap, 0, 0));
    }

    /// What `send_with` queues and ships is what `send` does, whatever the
    /// payload length does to the sub-header (1- and 2-byte length varints,
    /// up to the longest payload a queue holds) and for payloads that turn
    /// out too big for the queue.
    #[test]
    fn in_place_append_matches_send() {
        let lens = [0usize, 1, 127, 128, 300, BATCH_BYTES - 1, BATCH_BYTES, 25_000, 5];
        let (net_a, mut a0, mut a1) = pair(BatchPolicy::Uncompressed);
        let (net_b, mut b0, mut b1) = pair(BatchPolicy::Uncompressed);
        for (k, &len) in lens.iter().enumerate() {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + k) as u8).collect();
            a0.send(MachineId(1), k as u16, Bytes::from(payload.clone()));
            b0.send_with(MachineId(1), k as u16, |buf| buf.put_slice(&payload));
            assert_eq!(a0.queues[1].buf, b0.queues[1].buf, "after payload {k}");
        }
        a0.flush_all();
        b0.flush_all();
        assert_eq!(a0.counters(), b0.counters());
        assert_eq!(net_a.stats().all(), net_b.stats().all());
        for _ in &lens {
            let (a, b) = (a1.try_recv().unwrap(), b1.try_recv().unwrap());
            assert_eq!((a.kind, &a.payload), (b.kind, &b.payload));
        }
    }

    #[test]
    fn oversized_payload_flushes_queue_first() {
        let (_net, mut b0, mut b1) = pair(BatchPolicy::default());
        b0.send(MachineId(1), 0, Bytes::from(vec![1u8; 8]));
        b0.send(MachineId(1), 1, Bytes::from(vec![2u8; BATCH_BYTES])); // oversized
        b0.flush_all();
        // Order preserved: queued small message first, then the big one.
        let a = b1.recv_timeout(Duration::from_secs(1)).unwrap();
        let b = b1.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!((a.kind, b.kind), (0, 1));
        assert_eq!(b.payload.len(), BATCH_BYTES);
    }

    #[test]
    fn single_message_flush_is_unwrapped() {
        let (net, mut b0, mut b1) = pair(BatchPolicy::default());
        b0.send(MachineId(1), 7, Bytes::from_static(b"solo"));
        b0.flush_all();
        let env = b1.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.kind, 7);
        // No K_BATCH framing was paid for a lone message.
        assert_eq!(
            net.stats().machine(MachineId(0)).bytes_sent,
            (crate::cluster::HEADER_BYTES + 4) as u64
        );
    }

    #[test]
    fn disabled_policy_is_pass_through() {
        let (net, mut b0, mut b1) = pair(BatchPolicy::Disabled);
        for k in 0..5u16 {
            b0.send(MachineId(1), k, Bytes::new());
        }
        assert_eq!(net.stats().total_msgs(), 5);
        for k in 0..5u16 {
            assert_eq!(b1.recv_timeout(Duration::from_secs(1)).unwrap().kind, k);
        }
    }

    #[test]
    fn self_sends_bypass_queues() {
        let (_net, mut b0, _b1) = pair(BatchPolicy::default());
        b0.send(MachineId(0), 9, Bytes::from_static(b"me"));
        let env = b0.try_recv().unwrap();
        assert_eq!(env.kind, 9);
    }

    #[test]
    fn compressible_envelope_shrinks_on_the_wire() {
        // A compressible batch: many near-identical messages.
        let (net, mut b0, mut b1) = pair(BatchPolicy::default());
        let raw_total: usize = (0..40).map(|_| 2 + 64).sum();
        for k in 0..40u16 {
            b0.send(MachineId(1), k, Bytes::from(vec![0xAB; 64]));
        }
        b0.flush_all();
        for k in 0..40u16 {
            let env = b1.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(env.kind, k);
            assert_eq!(&env.payload[..], &[0xAB; 64][..]);
        }
        let sent = net.stats().machine(MachineId(0)).bytes_sent as usize;
        assert!(
            sent < raw_total / 2,
            "compressed envelope still {sent} bytes of {raw_total} raw"
        );
        assert_eq!(b0.counters().compressed, 1);
        assert!(b0.counters().compress_out < b0.counters().compress_in);
    }

    #[test]
    fn incompressible_oversized_payload_ships_raw() {
        // Pseudo-random oversized blob: the compressor cannot win, so the
        // wire carries the original kind, not K_ZIP.
        let (net, mut b0, mut b1) = pair(BatchPolicy::default());
        let mut x = 99u64;
        let blob: Vec<u8> = (0..32 * 1024)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        b0.send(MachineId(1), 3, Bytes::from(blob.clone()));
        let env = b1.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(env.kind, 3);
        assert_eq!(env.payload.len(), blob.len());
        assert_eq!(b0.counters().compressed, 0);
        assert_eq!(
            net.stats().machine(MachineId(0)).bytes_sent,
            (crate::cluster::HEADER_BYTES + blob.len()) as u64
        );
    }

    #[test]
    fn uncompressed_policy_never_zips() {
        let (net, mut b0, mut b1) = pair(BatchPolicy::Uncompressed);
        for k in 0..40u16 {
            b0.send(MachineId(1), k, Bytes::from(vec![0u8; 64]));
        }
        b0.flush_all();
        for _ in 0..40 {
            b1.recv_timeout(Duration::from_secs(1)).unwrap();
        }
        assert_eq!(b0.counters().compressed, 0);
        let sent = net.stats().machine(MachineId(0)).bytes_sent as usize;
        assert!(sent > 40 * 64, "raw envelope must carry full payload bytes");
    }

    /// The lease tests run on the wall clock: a period short enough to be
    /// missed by a thread the scheduler held back for 40 ms made them fail
    /// on a loaded two-CPU host. A quarter of a second cannot be starved
    /// that way; the bounds below are multiples of it.
    const TEST_LEASE: Duration = Duration::from_millis(250);

    #[test]
    fn lease_master_declares_silent_worker_dead() {
        // Worker 1 never services its batcher: no traffic, no heartbeats.
        // The master's sliced wait must synthesize a fabric-shaped K_DOWN
        // (restart = false, era 1) within a bounded number of periods.
        let (_net, mut eps) = SimNet::new(2, LatencyModel::ZERO);
        let _b1 = Batcher::new(eps.pop().unwrap(), BatchPolicy::default());
        let mut b0 = Batcher::new(eps.pop().unwrap(), BatchPolicy::default());
        b0.enable_lease(crate::lease::LeaseConfig::with_period(TEST_LEASE));
        let t0 = std::time::Instant::now();
        let env = b0.recv_timeout(20 * TEST_LEASE).expect("death notice");
        assert_eq!(env.kind, K_DOWN);
        let d: crate::fault::DownMsg =
            crate::codec::decode_from(env.payload).expect("decode DownMsg");
        assert_eq!((d.machine, d.restart, d.era), (1, false, 1));
        assert!(
            t0.elapsed() < 10 * TEST_LEASE,
            "detection latency unbounded: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn lease_heartbeats_prevent_false_positives_when_idle() {
        // Both machines idle in their receive loops; the worker's
        // heartbeats must keep its lease alive for many periods.
        let (_net, mut eps) = SimNet::new(2, LatencyModel::ZERO);
        let mut b1 = Batcher::new(eps.pop().unwrap(), BatchPolicy::default());
        let mut b0 = Batcher::new(eps.pop().unwrap(), BatchPolicy::default());
        let cfg = crate::lease::LeaseConfig::with_period(TEST_LEASE);
        b0.enable_lease(cfg);
        b1.enable_lease(cfg);
        let h = std::thread::spawn(move || {
            // Idle worker: four lease periods of nothing but heartbeats.
            let _ = b1.recv_timeout(4 * TEST_LEASE);
        });
        let got = b0.recv_timeout(4 * TEST_LEASE);
        assert!(
            matches!(got, Err(RecvError::Timeout)),
            "idle worker was declared dead: {got:?}"
        );
        h.join().unwrap();
    }

    #[test]
    fn blocking_recv_flushes_pending_sends() {
        // Two batchers ping-pong: each send sits in a queue until the
        // sender blocks in recv_timeout — no explicit flush calls needed.
        let (_net, mut b0, mut b1) = pair(BatchPolicy::default());
        let h = std::thread::spawn(move || {
            for _ in 0..5 {
                let env = b1.recv_timeout(Duration::from_secs(5)).unwrap();
                b1.send(env.src, env.kind + 100, env.payload);
            }
            // Final replies flush when this side blocks one more time.
            let _ = b1.recv_timeout(Duration::from_millis(10));
        });
        for k in 0..5u16 {
            b0.send(MachineId(1), k, Bytes::from_static(b"ping"));
            let reply = b0.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(reply.kind, k + 100);
        }
        h.join().unwrap();
    }
}
