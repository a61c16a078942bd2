//! # graphlab-net
//!
//! The cluster runtime underlying the distributed GraphLab reproduction
//! (§4.4 "System Design"), behind one **endpoint**.
//!
//! The paper runs one symmetric GraphLab process per EC2 machine,
//! communicating through a custom asynchronous RPC protocol over TCP/IP.
//! This crate offers that fabric twice under one machine handle,
//! [`transport::Endpoint`] (the fabric is selected by
//! [`transport::Transport`]):
//!
//! - [`cluster::SimNet`] — the deterministic in-process twin: every
//!   *machine* is an OS thread, latency is modelled, faults are injected
//!   from a declarative plan, and whole-cluster runs replay bit-identically.
//! - [`tcp::TcpNet`] — real length-prefixed TCP between OS processes
//!   (one per machine, full mesh, handshake-validated), for honest
//!   wall-clock numbers.
//!
//! Both deliver into the endpoint's inbox channel, so receiving, self-sends,
//! `broadcast` and the send counters are one implementation; a fabric
//! contributes only the private `Link` an envelope for another machine
//! leaves through (delay heap + fault gate, or a framed socket write). The
//! semantics are therefore identical — per-channel FIFO, the same
//! [`cluster::RecvError`] meanings, free self-sends, delivery-charged
//! [`cluster::NetStats`] — and pinned by a conformance suite over both, so
//! engine protocols proven under chaos on `SimNet` run byte-for-byte
//! unchanged over sockets (the FoundationDB/MadSim pattern). Three
//! properties keep the fabric honest on either backend:
//!
//! 1. **Share-nothing**: every payload crossing a machine boundary must be
//!    encoded to bytes through the [`codec::Codec`] trait. Machines never
//!    exchange references to each other's state.
//! 2. **Measured**: per-machine sent/received byte and message counters
//!    ([`cluster::NetStats`]) feed the bandwidth figures (Fig. 6(b)).
//! 3. **Latency-aware**: on `SimNet`, an optional delivery thread imposes a
//!    configurable per-message latency (fixed + size-proportional +
//!    deterministic jitter), which is what makes pipelining (§4.2.2)
//!    matter; on `TcpNet` the latency is the real network's.
//!
//! ## Delivery guarantees
//!
//! The fabric models each (src, dst) pair as an independent TCP-like
//! channel and guarantees, under **every** latency model:
//!
//! - **Per-channel FIFO**: messages from A to B arrive in send order. A
//!   channel's messages are clamped so no successor is scheduled to
//!   deliver before its predecessor, even when bandwidth or jitter terms
//!   would say otherwise.
//! - **Bandwidth serialization**: a channel transmits one message at a
//!   time; `per_kib` charges queueing delay behind earlier messages, not
//!   just propagation.
//! - **No cross-channel ordering**: distinct channels interleave freely.
//!
//! Engine protocols may (and do) rely on per-channel ordering: the
//! locking engine's schedule-before-release invariant, the Chandy–Lamport
//! snapshot cut (both snapshot modes), and the three channel flushes
//! — the chromatic step barrier, recovery's and the locking engine's
//! termination round — which are marker barriers with no message counts:
//! a peer's marker proves everything it sent before it has arrived. That
//! assumes **reliable** per-channel FIFO between live machines. `SimNet`
//! enforces it with its deliver-at clamp (see [`cluster`]); `TcpNet` gets
//! it from TCP itself by dedicating one stream, dialled once, to each
//! ordered (src, dst) pair (see [`tcp`]). A stream that breaks ends its
//! channel, so a receiver holds a FIFO prefix of what was sent.
//!
//! ## Wire format
//!
//! Everything crossing a machine boundary is byte-encoded through the
//! [`codec::Codec`] trait. Since ISSUE 3 the scalar encoding is
//! **varint-based**: `u16`/`u32`/`u64`/`usize` are LEB128, `i64` is
//! zig-zag + LEB128, collection lengths are varints, and sorted id lists
//! can be gap-encoded ([`codec::put_id_deltas`]). Floats and single bytes
//! stay fixed-width. Engine traffic is dominated by small ids, versions
//! and lengths, so this roughly halves control-message payloads.
//!
//! On top of the codec, a batching layer ([`batch::Batcher`]) coalesces
//! small control messages bound for the same machine into one envelope
//! (flushed by size/count thresholds and before every blocking receive),
//! preserving per-channel order. Outgoing envelopes at least
//! [`batch::COMPRESS_MIN`] bytes long are additionally run
//! through a dependency-free LZSS pass ([`compress`]) and shipped under a
//! reserved kind when that shrinks them. The crate is otherwise
//! kind-agnostic: a kind is a `u16` the application chooses, except the
//! five the transport keeps for itself, declared together in [`cluster`] —
//! [`K_BATCH`] (`u16::MAX`, batch envelope), [`K_ZIP`] (compressed
//! envelope), [`K_DOWN`]/[`K_UP`] (fault notifications) and [`K_LEASE`]
//! (heartbeat); application tag spaces must stay clear of them.
//!
//! A message costs one copy on its way out and none on its way in. The
//! engines' data plane sends with [`batch::Batcher::send_with`]: the
//! batcher writes the sub-header into the destination's queue buffer and
//! the caller's encoder appends the message behind it — no message buffer,
//! no `Bytes` per message. [`batch::Batcher::send`] (a finished `Bytes`:
//! control traffic, blobs too big to batch) is the same path with a copy
//! for an encoder. A flush compresses the queue where it lies, with an
//! [`compress::Lzss`] table the batcher keeps from envelope to envelope, and
//! received sub-messages are views of the envelope's one buffer, which the
//! engines read in place ([`codec::get_varint`], [`codec::get_blob`],
//! [`codec::decode_with`] for the `Codec::decode` of the same layout).
//! None of this shows on the wire: envelopes, flush points and compressed
//! streams are byte for byte what the `Bytes`-per-message path produced.
//!
//! Traffic is measured by [`cluster::NetStats`]: per-machine send/receive
//! counters plus a per-message-kind breakdown charged at delivery
//! ([`cluster::NetStats::by_kind`]) that attributes batch sub-messages to
//! their real kinds — the instrumentation behind `repro -- abl-bytes`.
//!
//! ## Time
//!
//! This crate and `graphlab-core` read the wall clock and wait on it only
//! through [`clock`]. Time decides when deliveries, heartbeats, expiries and
//! timeouts happen, never what a payload holds.

#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_macros,
    clippy::iter_over_hash_type,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_macros,
        clippy::iter_over_hash_type,
        reason = "unit tests drive raw endpoints and time themselves; the invariants bind shipped code"
    )
)]

pub mod batch;
pub mod clock;
pub mod cluster;
pub mod codec;
pub mod compress;
pub mod fault;
pub mod latency;
pub mod lease;
pub mod tcp;
pub mod transport;

pub use batch::{BatchCounters, BatchPolicy, Batcher};
pub use cluster::{
    Envelope, KindTraffic, MachineTraffic, NetStats, RecvError, SimNet, K_BATCH, K_DOWN, K_LEASE,
    K_UP, K_ZIP,
};
pub use codec::{decode_from, encode_to_bytes, Codec};
pub use fault::{DownMsg, FaultPlan, FaultTrigger, UpMsg};
pub use latency::LatencyModel;
pub use lease::{LeaseConfig, LeaseMsg, LeaseState};
pub use tcp::{mesh_established, shutdown_active, TcpConfig, TcpNet, TCP_LEASE};
pub use transport::{Endpoint, Transport};
