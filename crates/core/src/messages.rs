//! Wire protocol of the distributed engines.
//!
//! Every payload that crosses a machine boundary is defined here with an
//! explicit binary encoding (DESIGN.md D1). The message kinds are declared
//! once, as [`Kind`]: a `#[repr(u16)]` enum per plane that receives them,
//! with the wire numbers as discriminants.
//!
//! - [`ChromKind`], `1..=8` — chromatic engine (§4.2.1): vertex and edge
//!   row blocks (a ghost push at a mirror, a write-back at the owner), one
//!   task set per round and peer that is the step barrier's marker, and
//!   the per-cycle sync partial every machine decides the cycle end from.
//! - [`LockKind`], `20..=38` and `48..=49` — locking engine (§4.2.2):
//!   pipelined lock chains, scope data synchronisation, releases with
//!   piggybacked write-backs, the quiet round's markers and reports and halt
//!   control (termination), background sync, and both snapshot protocols.
//! - [`RecoveryKind`], `40..=47` and the transport's down/up/lease
//!   notifications — the recovery state machine both engines drive.
//!
//! An envelope's `u16` is decoded where it is received (`Kind::of`; a
//! number no plane owns is rejected by [`Kind::from_wire`], nowhere else)
//! and each dispatcher matches its own plane's enum with no catch-all arm,
//! so the compiler holds the registry: a kind cannot be declared without a
//! number and a name, or received without every dispatcher of its plane
//! saying what it does with it. `graphlab-net` stays kind-agnostic (`u16`)
//! and keeps `u16::MAX` and `u16::MAX - 1` for its batch and compressed
//! envelopes, which the [`graphlab_net::batch::Batcher`] unpacks on receive;
//! the engines never see either.
//!
//! User data (`V`/`E`) always travels as pre-encoded [`Bytes`] blobs so the
//! protocol structs stay monomorphic.
//!
//! Each message's layout is written once. A struct whose wire form is its
//! fields' own encodings, in order, lists its fields in [`codec_fields!`]
//! below its definition, and the compiler holds the list to the struct.
//! The rows and the data-plane messages ([`VertexRow`], [`EdgeRow`],
//! [`LockReqMsg`], [`ScopeDataMsg`], [`ReleaseMsg`]) are streamed from
//! borrowed data by their sender and read in place by their receiver, so
//! they have a hand-written `put` / `read` pair that their `Codec` goes
//! through; so do [`ScheduleMsg`] (priorities as `f32`), [`TaskSetMsg`]
//! (gap-encoded ids) and the generic [`StepTagged`].
//!
//! Several protocol invariants assume the fabric's **per-channel FIFO**
//! delivery guarantee (see `graphlab-net`): a [`ScheduleMsg`] emitted
//! during commit must reach the owner before the [`ReleaseMsg`] that
//! unlocks the scope, and every channel flush or cut is a marker barrier —
//! once a machine holds a peer's marker ([`ChromKind::Sched`],
//! [`LockKind::SnapStart`], [`RecoveryKind::FlushMark`],
//! [`LockKind::Quiet`]), it holds everything that peer sent it before the
//! marker.

use bytes::{BufMut, Bytes, BytesMut};
use graphlab_graph::{ConsistencyModel, EdgeId, MachineId, VertexId};
use graphlab_net::codec::{
    decode_from, decode_with, encode_to_bytes, get_array, get_blob, get_varint, put_id_deltas,
    put_uvarint, Codec,
};
use graphlab_net::codec_fields;

/// Encodes one protocol message (the engines' and the recovery machine's
/// single encode point).
pub(crate) fn enc<T: Codec>(v: &T) -> Bytes {
    encode_to_bytes(v)
}

/// Decodes one protocol message from a peer of this same binary.
pub(crate) fn dec<T: Codec>(b: Bytes) -> T {
    decode_from(b).expect("malformed engine message")
}

/// Runs a message's in-place reader over a whole payload from a peer of
/// this same binary (the engines' receive path; `dec` without the structs).
pub(crate) fn read_all<'a, T>(
    payload: &'a [u8],
    read: impl FnOnce(&mut &'a [u8]) -> Option<T>,
) -> T {
    let mut rest = payload;
    read(&mut rest).filter(|_| rest.is_empty()).expect("malformed engine message")
}

/// Decodes a datum a reader left in place in `payload`. (`Codec::decode`
/// wants a `Bytes`: this one is a view of the envelope, not a copy.)
pub(crate) fn dec_in<T: Codec>(payload: &Bytes, data: &[u8]) -> T {
    dec(payload.slice_ref(data))
}

/// Appends `data` as a length-prefixed blob — the wire form of a `Bytes`
/// field, for callers streaming a row out of a reused scratch buffer.
fn put_blob(buf: &mut BytesMut, data: &[u8]) {
    put_uvarint(buf, data.len() as u64);
    buf.put_slice(data);
}

// ---- message kinds ----

/// Declares the wire's kinds, once: a `#[repr(u16)]` enum per receiving
/// plane with each kind's number and traffic-table name, and [`Kind`] over
/// them. Rust rejects a number used twice within a plane; the
/// `kinds_are_pinned` test holds the whole table.
macro_rules! kinds {
    ($(
        $(#[$plane_doc:meta])*
        $plane:ident($sub:ident) {
            $($(#[$doc:meta])* $variant:ident = $wire:expr, $name:literal;)*
        }
    )*) => {
        $(
            $(#[$plane_doc])*
            #[repr(u16)]
            #[derive(Clone, Copy, Debug, PartialEq, Eq)]
            pub enum $sub {
                $($(#[$doc])* $variant = $wire,)*
            }

            impl $sub {
                #[allow(non_upper_case_globals, reason = "the consts reuse the variant idents the macro was given, so they can be match patterns")]
                fn from_wire(kind: u16) -> Option<$sub> {
                    $(const $variant: u16 = $sub::$variant as u16;)*
                    match kind {
                        $($variant => Some($sub::$variant),)*
                        _ => None,
                    }
                }

                /// Name in traffic tables.
                pub fn name(self) -> &'static str {
                    match self {
                        $($sub::$variant => $name,)*
                    }
                }
            }

            impl From<$sub> for Kind {
                fn from(kind: $sub) -> Kind {
                    Kind::$plane(kind)
                }
            }
        )*

        /// A message kind, under the plane that receives it. An envelope's
        /// `u16` becomes a `Kind` once, where it is received
        /// (`Kind::of`); each plane then matches its own enum
        /// exhaustively, so a new kind is one line here and the compiler
        /// lists every dispatcher that must say what it does with it.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Kind {
            $($(#[$plane_doc])* $plane($sub),)*
        }

        impl Kind {
            /// The kind with this wire number — the one place a number no
            /// plane owns is rejected.
            pub fn from_wire(kind: u16) -> Option<Kind> {
                None$(.or_else(|| $sub::from_wire(kind).map(Kind::$plane)))*
            }

            /// The number on the wire.
            pub fn wire(self) -> u16 {
                match self {
                    $(Kind::$plane(kind) => kind as u16,)*
                }
            }

            /// Name in traffic tables.
            pub fn name(self) -> &'static str {
                match self {
                    $(Kind::$plane(kind) => kind.name(),)*
                }
            }
        }
    };
}

kinds! {
    /// Chromatic engine (§4.2.1), `1..=8`: received by
    /// `ChromaticMachine::handle_msg`. 3 and 4 (the write-backs' own kinds,
    /// which now ride 1 and 2: a row that reaches its datum's owner is
    /// one), 6 and 7 (the step's markers: a round ends with its task set,
    /// [`ChromKind::Sched`]), 9 (the master's cycle-end verdict: every
    /// machine decides alike from the partials it holds) and 10 and 11 (a
    /// checkpoint's "part written" vote and the master's resume: the cycle
    /// end is the cut) stay unassigned.
    Chrom(ChromKind) {
        /// Vertex rows, a block of [`VertexRow`]s. At a mirror each is a
        /// ghost push (owner → mirror), applied by version; at the owner a
        /// write-back (mirror → owner; full consistency), applied, bumped
        /// and forwarded to the other mirrors.
        VData = 1, "chrom/vdata";
        /// Edge rows, a block of [`EdgeRow`]s: a ghost push at the mirror,
        /// a write-back at the owner.
        EData = 2, "chrom/edata";
        /// A flush round's end (all → all), a tagged [`TaskSetMsg`]: the
        /// vertices of the receiver that the sender's step scheduled, empty
        /// when there are none and in every round after the step's first.
        /// The sender's blocks of the round are ahead of it on the channel:
        /// in phase 0 its direct rows, in phase 1 (full consistency only)
        /// its forwarded write-backs.
        Sched = 5, "chrom/sched";
        /// Per-cycle sync partial (all → all), a [`SyncPartialMsg`]: the
        /// sender's vote of the cycle end.
        SyncPart = 8, "chrom/sync-part";
    }

    /// Locking engine (§4.2.2), `20..=38` and `48..=49`: received by
    /// `LockingMachine::handle`. 24 (the termination token before the quiet
    /// round), 34 (the asynchronous snapshot's own start, now
    /// [`LockKind::SnapStart`]: every machine reads the mode from its own
    /// config), 30, 31 and 33 (the synchronous snapshot's drained vote,
    /// flush marker and the master's resume: a synchronous snapshot is the
    /// [`LockKind::SnapStart`] marker cut taken with new chains paused, and
    /// each machine resumes once its part is written), 35 (the asynchronous
    /// snapshot's own "part written" vote, now [`LockKind::SnapDone`]), 36
    /// (skipped when the background-sync request landed at 37, never
    /// shipped) and 39 (headroom before the recovery block) stay
    /// unassigned: a decoder for a recycled number would misparse snapshots
    /// and traces recorded before the reuse.
    Lock(LockKind) {
        /// Lock chain request hop.
        Req = 20, "lock/req";
        /// Scope data sync (hop → requester).
        ScopeData = 21, "lock/scope-data";
        /// Lock release + write-backs (requester → hop).
        Release = 22, "lock/release";
        /// Remote schedule request.
        Sched = 23, "lock/sched";
        /// Halt broadcast (master → all).
        Halt = 25, "lock/halt";
        /// Halt acknowledgement (machine → master).
        HaltAck = 26, "lock/halt-ack";
        /// Background sync partial (machine → master).
        SyncPart = 27, "lock/sync-part";
        /// Background sync globals (master → all): the finalized rows
        /// alone.
        SyncGlob = 28, "lock/sync-glob";
        /// Snapshot marker (all → all; the payload is the snapshot id), in
        /// either mode: the master's at the trigger, every other machine's
        /// own broadcast at the first one it receives. The sender's counted
        /// work from before its capture is ahead of it on the channel.
        SnapStart = 29, "snap/start";
        /// The machine's part of a snapshot written, in either mode
        /// (machine → master).
        SnapDone = 32, "snap/done";
        /// Background sync request (master → all); payload is the epoch.
        SyncReq = 37, "lock/sync-req";
        /// Counter-threshold update note (machine → master; the payload is
        /// the sender's cumulative local update count, a `u64`). Sent when
        /// the count crosses a granule of the finest configured trigger
        /// interval (background sync / snapshot cadence), and once more
        /// with the exact count when the machine goes idle. The master's
        /// sync and snapshot triggers read these notes (a quiet round ends
        /// a run), so an idle cluster sends no control traffic. Never sent
        /// when no trigger is configured. Cumulative and therefore
        /// idempotent: the master keeps the max per sender, so duplicates,
        /// reordering across rollbacks (counts never reset) and a dead
        /// peer's last value are all harmless.
        UpdNote = 38, "lock/upd-note";
        /// Quiet-round marker (all → all; the payload is the round): an
        /// idle master opens a round with it, every other machine sends
        /// its own on the first one it receives, once it is idle. The
        /// sender's counted work is ahead of it on the channel.
        Quiet = 48, "lock/quiet";
        /// Quiet-round verdict (machine → master), a [`QuietReportMsg`]:
        /// sent once the machine holds every survivor's marker.
        QuietReport = 49, "lock/quiet-report";
    }

    /// Recovery and fabric control plane (both engines), `40..=47` and the
    /// transport's fault and lease notifications: received by
    /// `recovery::on_recv`. The only traffic a machine emits between
    /// its drain point and its own resume, which is what makes a peer's
    /// barrier message ([`RecoveryKind::FlushMark`] under a rollback,
    /// [`RecoveryKind::AdoptData`] under an adoption) split its channel
    /// exactly: engine traffic ahead of it was sent before that peer
    /// drained, engine traffic behind it after that peer resumed. 42 and 43
    /// (the "recovered" report to the master and its cluster-wide
    /// "resume", which held early resumers back until the split did the
    /// same per channel) stay unassigned.
    Recovery(RecoveryKind) {
        /// Machine has stopped sending engine traffic for the current
        /// fault era (machine → master).
        Ready = 40, "recover/ready";
        /// Roll back to checkpoint `snap` once every survivor's marker is
        /// in (master → all).
        Rollback = 41, "recover/rollback";
        /// Unrecoverable — fail the run with the attached reason
        /// (master → all).
        Abort = 44, "recover/abort";
        /// A rollback's barrier message: the channel marker (all → all,
        /// sent on receiving the rollback order). A machine restores and
        /// resumes once it holds every survivor's marker of the era.
        FlushMark = 45, "recover/flush-mark";
        /// The master's adoption plan (master → survivors). Carries the
        /// re-balanced atom placement survivors rebuild from; dead
        /// machines' atoms have been reassigned, survivors' own atoms stay
        /// put.
        AdoptPlan = 46, "recover/adopt-plan";
        /// An adoption's barrier message: the ghost-rebuild data round
        /// (survivor → survivor, sent once the sender reloaded under the
        /// plan, exactly one per ordered pair even when empty). Carries
        /// the sender's authoritative rows for vertices/edges the receiver
        /// mirrors. A machine resumes once it holds every surviving peer's.
        AdoptData = 47, "recover/adopt-data";
        /// Lease heartbeat ([`graphlab_net::K_LEASE`]); the `Batcher`
        /// consumes it.
        Lease = graphlab_net::K_LEASE, "net/lease";
        /// A machine rose again ([`graphlab_net::K_UP`]), delivered to the
        /// reborn machine only.
        Up = graphlab_net::K_UP, "fault/up";
        /// A machine died ([`graphlab_net::K_DOWN`]), from the fault
        /// fabric's oracle or an expired lease.
        Down = graphlab_net::K_DOWN, "fault/down";
    }
}

impl Kind {
    /// The kind of an envelope from a peer of this same binary.
    pub(crate) fn of(env: &graphlab_net::Envelope) -> Kind {
        Kind::from_wire(env.kind).expect("malformed engine message")
    }
}

impl LockKind {
    /// Whether this kind carries engine *work*: work that dirties a quiet
    /// round (termination, see `crate::coord`). The control kinds,
    /// [`LockKind::UpdNote`] among them, dirty none.
    pub fn is_counted_work(self) -> bool {
        use LockKind::*;
        match self {
            Req | ScopeData | Release | Sched => true,
            Halt | HaltAck | SyncPart | SyncGlob | SyncReq | UpdNote | SnapStart | SnapDone
            | Quiet | QuietReport => false,
        }
    }
}

// The wire numbers `glbench` names (it matches on them and reads
// `EngineMetrics::bytes_by_kind` by them), read off the enums.
/// [`ChromKind::VData`] on the wire.
pub const K_CHROM_VDATA: u16 = ChromKind::VData as u16;
/// [`ChromKind::EData`] on the wire.
pub const K_CHROM_EDATA: u16 = ChromKind::EData as u16;
/// [`LockKind::Req`] on the wire.
pub const K_LOCK_REQ: u16 = LockKind::Req as u16;
/// [`LockKind::ScopeData`] on the wire.
pub const K_SCOPE_DATA: u16 = LockKind::ScopeData as u16;
/// [`LockKind::Release`] on the wire.
pub const K_RELEASE: u16 = LockKind::Release as u16;
/// [`LockKind::Sched`] on the wire.
pub const K_LOCK_SCHED: u16 = LockKind::Sched as u16;

/// Name of a wire number in traffic tables (`repro -- abl-bytes` and the
/// per-kind [`graphlab_net::NetStats`] rows): [`Kind::name`], plus the two
/// envelope kinds the `Batcher` never lets through to an engine.
pub fn kind_name(kind: u16) -> &'static str {
    match Kind::from_wire(kind) {
        Some(kind) => kind.name(),
        None if kind == graphlab_net::K_BATCH => "net/batch",
        None if kind == graphlab_net::K_ZIP => "net/zip",
        None => "unknown",
    }
}

// ---- shared rows ----

/// A versioned vertex datum on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct VertexRow {
    /// Global vertex id.
    pub vid: VertexId,
    /// Owner-side version.
    pub version: u64,
    /// Always 0 (a snapshot colour no engine sets). Kept on the wire so
    /// that the layout, and callers that build a row, stay as they are.
    pub snap: u32,
    /// Encoded `V`.
    pub data: Bytes,
}

impl VertexRow {
    /// Streams one row from its parts (what [`Codec::encode`] writes).
    pub(crate) fn put(buf: &mut BytesMut, vid: VertexId, version: u64, snap: u32, data: &[u8]) {
        vid.encode(buf);
        version.encode(buf);
        snap.encode(buf);
        put_blob(buf, data);
    }

    /// Reads one row into the parts `put` takes; `data` stays where it is
    /// in `buf`.
    pub fn read<'a>(buf: &mut &'a [u8]) -> Option<(VertexId, u64, u32, &'a [u8])> {
        Some((VertexId(get_varint(buf)?), get_varint(buf)?, get_varint(buf)?, get_blob(buf)?))
    }
}

impl Codec for VertexRow {
    fn encode(&self, buf: &mut BytesMut) {
        Self::put(buf, self.vid, self.version, self.snap, &self.data);
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        decode_with(buf, |src, rest| {
            let (vid, version, snap, data) = Self::read(rest)?;
            Some(VertexRow { vid, version, snap, data: src.slice_ref(data) })
        })
    }
}

/// A versioned edge datum on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct EdgeRow {
    /// Global edge id.
    pub eid: EdgeId,
    /// Owner-side version.
    pub version: u64,
    /// Encoded `E`.
    pub data: Bytes,
}

impl EdgeRow {
    /// Streams one row from its parts (what [`Codec::encode`] writes).
    pub(crate) fn put(buf: &mut BytesMut, eid: EdgeId, version: u64, data: &[u8]) {
        eid.encode(buf);
        version.encode(buf);
        put_blob(buf, data);
    }

    /// Reads one row into the parts `put` takes; `data` stays where it is
    /// in `buf`.
    pub fn read<'a>(buf: &mut &'a [u8]) -> Option<(EdgeId, u64, &'a [u8])> {
        Some((EdgeId(get_varint(buf)?), get_varint(buf)?, get_blob(buf)?))
    }
}

impl Codec for EdgeRow {
    fn encode(&self, buf: &mut BytesMut) {
        Self::put(buf, self.eid, self.version, &self.data);
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        decode_with(buf, |src, rest| {
            let (eid, version, data) = Self::read(rest)?;
            Some(EdgeRow { eid, version, data: src.slice_ref(data) })
        })
    }
}

/// Scheduling rows: `(vertex, priority)`.
///
/// Priorities travel as `f32`: they are only a scheduling hint (the FIFO
/// scheduler ignores them entirely, the priority scheduler buckets them by
/// power of two), so half the bytes lose nothing that affects results. A
/// priority beyond the `f32` range arrives as `±∞`, which lands in the
/// same bucket as the extreme finite ones.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleMsg {
    /// Tasks to enqueue at the receiving owner.
    pub tasks: Vec<(VertexId, f64)>,
}

impl ScheduleMsg {
    /// Streams a message from borrowed tasks (what [`Codec::encode`] writes).
    pub(crate) fn put(buf: &mut BytesMut, tasks: &[(VertexId, f64)]) {
        put_uvarint(buf, tasks.len() as u64);
        for &(v, prio) in tasks {
            v.encode(buf);
            (prio as f32).encode(buf);
        }
    }

    /// Reads a message, handing each task to `task` as it is met.
    pub fn read(buf: &mut &[u8], mut task: impl FnMut(VertexId, f64)) -> Option<()> {
        for _ in 0..get_varint::<usize, _>(buf)? {
            task(VertexId(get_varint(buf)?), f32::from_le_bytes(get_array(buf)?) as f64);
        }
        Some(())
    }
}

impl Codec for ScheduleMsg {
    fn encode(&self, buf: &mut BytesMut) {
        Self::put(buf, &self.tasks);
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        let mut tasks = Vec::new();
        decode_with(buf, |_, rest| Self::read(rest, |v, prio| tasks.push((v, prio))))?;
        Some(ScheduleMsg { tasks })
    }
}

// ---- chromatic engine ----
//
// The colour-step is the unit of exchange. Payloads of the three data
// kinds, every one behind the `(step, phase)` tag of [`StepTagged`]:
//
//   ChromKind::VData   step, phase, VertexRow*   (a row block)
//   ChromKind::EData   step, phase, EdgeRow*     (a row block)
//   ChromKind::Sched   step, phase, TaskSetMsg   (the round's end)
//
// A row block carries the tag once and then rows back to back to the end
// of the payload, with no count: a `StepTagged<VertexRow>` is a block of
// one row, and [`StepTagged::read_block`] walks any block in place.

/// Step-tagged data envelope: the `(step, phase)` of the flush round it
/// belongs to, ahead of the round's end or that end itself.
#[derive(Clone, Debug, PartialEq)]
pub struct StepTagged<T> {
    /// Global colour-step counter.
    pub step: u64,
    /// Flush phase the message belongs to (0 = direct, 1 = forwarded).
    pub phase: u8,
    /// Payload.
    pub inner: T,
}

impl<T> StepTagged<T> {
    /// Streams a tagged message whose payload `inner` appends (what
    /// [`Codec::encode`] writes).
    pub(crate) fn put(buf: &mut BytesMut, step: u64, phase: u8, inner: impl FnOnce(&mut BytesMut)) {
        step.encode(buf);
        phase.encode(buf);
        inner(buf);
    }

    /// Reads the `(step, phase)` tag; the payload follows in `buf`.
    pub fn read(buf: &mut &[u8]) -> Option<(u64, u8)> {
        Some((get_varint(buf)?, get_array::<1>(buf)?[0]))
    }

    /// Reads a row block — the tag, then what `read` reads ([`VertexRow::read`]
    /// or [`EdgeRow::read`]) back to back to the end of `buf` — handing
    /// each row to `row` with its step as it is met. Returns the tag.
    pub fn read_block<'a, R>(
        buf: &mut &'a [u8],
        read: impl Fn(&mut &'a [u8]) -> Option<R>,
        mut row: impl FnMut(u64, R),
    ) -> Option<(u64, u8)> {
        let tag = Self::read(buf)?;
        while !buf.is_empty() {
            row(tag.0, read(buf)?);
        }
        Some(tag)
    }
}

impl<T: Codec> Codec for StepTagged<T> {
    fn encode(&self, buf: &mut BytesMut) {
        Self::put(buf, self.step, self.phase, |buf| self.inner.encode(buf));
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        let (step, phase) = decode_with(buf, |_, rest| Self::read(rest))?;
        Some(StepTagged { step, phase, inner: T::decode(buf)? })
    }
}

/// The vertices of one owner that one colour-step's updates on one machine
/// scheduled: a *set*, as the scheduler is (duplicate requests merge,
/// arXiv 1006.4990 §3.4), sent once, as the step's first round's end.
/// Ascending global ids, gap-encoded ([`put_id_deltas`]' layout); no
/// priorities — the chromatic engine executes by colour and never did.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskSetMsg {
    /// Vertices to enqueue at the receiving owner, ascending.
    pub tasks: Vec<VertexId>,
}

impl TaskSetMsg {
    /// Streams a set of `n` ascending ids (what [`Codec::encode`] writes).
    pub(crate) fn put(buf: &mut BytesMut, n: usize, tasks: impl Iterator<Item = VertexId>) {
        put_id_deltas(buf, n, tasks.map(|v| v.0));
    }

    /// Reads a set, handing each vertex to `task` as it is met.
    pub fn read(buf: &mut &[u8], mut task: impl FnMut(VertexId)) -> Option<()> {
        let mut id = 0u32;
        for _ in 0..get_varint::<usize, _>(buf)? {
            id = id.checked_add(get_varint(buf)?)?;
            task(VertexId(id));
        }
        Some(())
    }
}

impl Codec for TaskSetMsg {
    fn encode(&self, buf: &mut BytesMut) {
        Self::put(buf, self.tasks.len(), self.tasks.iter().copied());
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        let mut tasks = Vec::new();
        decode_with(buf, |_, rest| Self::read(rest, |v| tasks.push(v)))?;
        Some(TaskSetMsg { tasks })
    }
}

/// One machine's part of a cycle end (all → all): its sync partials, its
/// pending tasks and its update count. Sent even when no sync ops are
/// registered: it is the sender's vote, and every machine decides the
/// cycle end from every survivor's.
///
/// Partials are `(handle id, codec bytes)` rows: each registered
/// [`crate::Aggregate`]'s typed accumulator travels pre-encoded, tagged by
/// its `Copy` [`crate::GlobalHandle`] id — no names on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct SyncPartialMsg {
    /// Cycle number.
    pub cycle: u64,
    /// `(handle id, encoded accumulator)` per registered sync op, in
    /// registration order.
    pub partials: Vec<(u32, Bytes)>,
    /// Sender's pending task count at cycle end.
    pub pending: u64,
    /// Sender's executed-update count over the whole run.
    pub updates: u64,
}

codec_fields! { SyncPartialMsg { cycle, partials, pending, updates } }

// ---- locking engine ----

/// A pipelined lock-chain request hop (§4.2.2).
///
/// The chain visits `machines` in ascending id order; each hop acquires its
/// local locks sequentially through the callback rwlock, sends fresh
/// [`ScopeDataMsg`] rows to the requester, and forwards the request to the
/// next hop.
///
/// The request names only the scope **centre** and the consistency
/// `model`; it does not ship a lock plan. Earlier revisions forwarded the
/// full plan plus the requester's cached versions on every hop (~80+ bytes
/// per hop per update — the single largest traffic kind). Both are
/// redundant against replicated state:
///
/// - every participating machine owns a scope vertex, hence holds the
///   centre (at least as a ghost) together with every scope edge incident
///   on its owned vertices, so it can **derive its local lock set** from
///   the model exactly as the requester did (same canonical `(owner, v)`
///   order restricted to one machine = ascending vertex id);
/// - version filtering is done by the **owner-side remote-cache table**
///   (`RemoteCacheTable`): each owner remembers the highest version every
///   peer holds (advanced on every row shipped and write-back applied,
///   both FIFO), so requester versions need not travel at all.
#[derive(Clone, Debug, PartialEq)]
pub struct LockReqMsg {
    /// Machine that initiated the chain (owner of the scope's centre).
    pub requester: MachineId,
    /// Requester-unique request id.
    pub reqid: u64,
    /// Central vertex of the scope.
    pub scope_v: VertexId,
    /// Remaining chain, ascending: the receiving machine at the head,
    /// machines still to visit behind it. Each hop pops itself off before
    /// forwarding, so visited hops stop paying wire bytes.
    pub machines: Vec<MachineId>,
    /// Consistency model the scope is locked under (0 = vertex, 1 = edge,
    /// 2 = full; see [`consistency_to_u8`]). `Ablation::Racing` locks under
    /// vertex consistency whatever the engine's model, so the model rides
    /// with the request.
    pub model: u8,
}

/// Encodes a [`ConsistencyModel`] for the wire.
pub fn consistency_to_u8(m: ConsistencyModel) -> u8 {
    match m {
        ConsistencyModel::Vertex => 0,
        ConsistencyModel::Edge => 1,
        ConsistencyModel::Full => 2,
    }
}

/// Decodes a [`ConsistencyModel`] from the wire.
pub fn consistency_from_u8(v: u8) -> Option<ConsistencyModel> {
    match v {
        0 => Some(ConsistencyModel::Vertex),
        1 => Some(ConsistencyModel::Edge),
        2 => Some(ConsistencyModel::Full),
        _ => None,
    }
}

impl LockReqMsg {
    /// Streams a request from its parts (what [`Codec::encode`] writes).
    pub(crate) fn put(
        buf: &mut BytesMut,
        requester: MachineId,
        reqid: u64,
        scope_v: VertexId,
        machines: &[MachineId],
        model: u8,
    ) {
        requester.encode(buf);
        reqid.encode(buf);
        scope_v.encode(buf);
        put_uvarint(buf, machines.len() as u64);
        for m in machines {
            m.encode(buf);
        }
        model.encode(buf);
    }

    /// Reads a request into `(requester, reqid, scope_v, model)`, handing
    /// each chain machine to `machine` as it is met.
    pub fn read(
        buf: &mut &[u8],
        mut machine: impl FnMut(MachineId),
    ) -> Option<(MachineId, u64, VertexId, u8)> {
        let head = (MachineId(get_varint(buf)?), get_varint(buf)?, VertexId(get_varint(buf)?));
        for _ in 0..get_varint::<usize, _>(buf)? {
            machine(MachineId(get_varint(buf)?));
        }
        Some((head.0, head.1, head.2, get_array::<1>(buf)?[0]))
    }
}

impl Codec for LockReqMsg {
    fn encode(&self, buf: &mut BytesMut) {
        Self::put(buf, self.requester, self.reqid, self.scope_v, &self.machines, self.model);
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        let mut machines = Vec::new();
        let (requester, reqid, scope_v, model) =
            decode_with(buf, |_, rest| Self::read(rest, |m| machines.push(m)))?;
        Some(LockReqMsg { requester, reqid, scope_v, machines, model })
    }
}

/// Scope data synchronisation (hop → requester): only rows whose owner
/// version exceeds what the owner's remote-cache table says the requester
/// already holds are included — the versioning system "eliminating the
/// transmission of unchanged data". Skipped data is acknowledged by the
/// compact `vsame`/`esame` **unchanged markers** (one varint count each,
/// typically a single byte): the requester knows exactly which scope data
/// each hop owns, so a count pins the skipped set and lets it verify that
/// rows + markers cover the hop's whole share of the scope.
#[derive(Clone, Debug, PartialEq)]
pub struct ScopeDataMsg {
    /// Request this responds to.
    pub reqid: u64,
    /// Fresh vertex rows.
    pub vrows: Vec<VertexRow>,
    /// Fresh edge rows.
    pub erows: Vec<EdgeRow>,
    /// Owned scope vertices skipped because the requester's cached copy is
    /// already current.
    pub vsame: u32,
    /// Owned scope edges skipped because the requester's cached copy is
    /// already current.
    pub esame: u32,
}

/// What is left of a [`ScopeDataMsg`] once its rows are dealt with:
/// `(reqid, (fresh vertex rows, vsame), (fresh edge rows, esame))`.
pub type ScopeDataHead = (u64, (usize, u32), (usize, u32));

impl ScopeDataMsg {
    /// Streams a response whose rows the caller appends: `vrows` writes
    /// exactly `nv` rows with [`VertexRow::put`], then `erows` exactly `ne`
    /// with [`EdgeRow::put`]; `cx` is the state both writers work on. This
    /// is the message's one wire layout — [`Codec::encode`] goes through it.
    pub(crate) fn put<C>(
        buf: &mut BytesMut,
        cx: &mut C,
        reqid: u64,
        (nv, vsame): (usize, u32),
        vrows: impl FnOnce(&mut C, &mut BytesMut),
        (ne, esame): (usize, u32),
        erows: impl FnOnce(&mut C, &mut BytesMut),
    ) {
        reqid.encode(buf);
        put_uvarint(buf, nv as u64);
        vrows(cx, buf);
        put_uvarint(buf, ne as u64);
        erows(cx, buf);
        vsame.encode(buf);
        esame.encode(buf);
    }

    /// Reads a response, handing each row to `vrow` / `erow` as it is met,
    /// in the parts [`VertexRow::read`] / [`EdgeRow::read`] give; `cx` is
    /// the state both work on.
    pub fn read<'a, C>(
        buf: &mut &'a [u8],
        cx: &mut C,
        mut vrow: impl FnMut(&mut C, VertexId, u64, u32, &'a [u8]),
        mut erow: impl FnMut(&mut C, EdgeId, u64, &'a [u8]),
    ) -> Option<ScopeDataHead> {
        let reqid = get_varint(buf)?;
        let nv = get_varint(buf)?;
        for _ in 0..nv {
            let (vid, version, snap, data) = VertexRow::read(buf)?;
            vrow(cx, vid, version, snap, data);
        }
        let ne = get_varint(buf)?;
        for _ in 0..ne {
            let (eid, version, data) = EdgeRow::read(buf)?;
            erow(cx, eid, version, data);
        }
        Some((reqid, (nv, get_varint(buf)?), (ne, get_varint(buf)?)))
    }
}

impl Codec for ScopeDataMsg {
    fn encode(&self, buf: &mut BytesMut) {
        Self::put(
            buf,
            &mut (),
            self.reqid,
            (self.vrows.len(), self.vsame),
            |_, buf| self.vrows.iter().for_each(|r| r.encode(buf)),
            (self.erows.len(), self.esame),
            |_, buf| self.erows.iter().for_each(|r| r.encode(buf)),
        );
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        decode_with(buf, |src, rest| {
            let mut rows = (Vec::new(), Vec::new());
            let (reqid, (_, vsame), (_, esame)) = Self::read(
                rest,
                &mut rows,
                |rows, vid, version, snap, data| {
                    rows.0.push(VertexRow { vid, version, snap, data: src.slice_ref(data) })
                },
                |rows, eid, version, data| {
                    rows.1.push(EdgeRow { eid, version, data: src.slice_ref(data) })
                },
            )?;
            Some(ScopeDataMsg { reqid, vrows: rows.0, erows: rows.1, vsame, esame })
        })
    }
}

/// Lock release (requester → hop) with piggybacked write-backs of dirty
/// data owned by the receiving machine. Riding the release guarantees the
/// owner applies writes before any later conflicting grant.
///
/// The message does not name the locks to drop: the receiving hop still
/// holds its `HopChain` for `(src, reqid)`, whose derived lock set is
/// exactly what the requester would have listed.
#[derive(Clone, Debug, PartialEq)]
pub struct ReleaseMsg {
    /// Request being released.
    pub reqid: u64,
    /// Dirty vertex data owned by the receiver, each with a snapshot
    /// colour that is always 0 (see [`VertexRow::snap`]).
    pub vwrites: Vec<(VertexId, u32, Bytes)>,
    /// Dirty edge data owned by the receiver.
    pub ewrites: Vec<(EdgeId, Bytes)>,
}

impl ReleaseMsg {
    /// Streams a release whose write-backs the caller appends: `vwrites`
    /// writes exactly `nv` rows with [`Self::put_vwrite`], then `ewrites`
    /// exactly `ne` with [`Self::put_ewrite`]; `cx` is the state both work
    /// on. The message's one wire layout — [`Codec::encode`] goes through it.
    pub(crate) fn put<C>(
        buf: &mut BytesMut,
        cx: &mut C,
        reqid: u64,
        nv: usize,
        vwrites: impl FnOnce(&mut C, &mut BytesMut),
        ne: usize,
        ewrites: impl FnOnce(&mut C, &mut BytesMut),
    ) {
        reqid.encode(buf);
        (nv as u32).encode(buf);
        vwrites(cx, buf);
        (ne as u32).encode(buf);
        ewrites(cx, buf);
    }

    /// One vertex write-back row; the engine writes `snap` as 0.
    pub(crate) fn put_vwrite(buf: &mut BytesMut, v: VertexId, snap: u32, data: &[u8]) {
        v.encode(buf);
        snap.encode(buf);
        put_blob(buf, data);
    }

    /// One edge write-back row.
    pub(crate) fn put_ewrite(buf: &mut BytesMut, e: EdgeId, data: &[u8]) {
        e.encode(buf);
        put_blob(buf, data);
    }

    /// Reads a release, handing each write-back to `vwrite` / `ewrite` as it
    /// is met (its blob stays where it is in `buf`); `cx` is the state both
    /// work on. Returns the request id.
    pub fn read<'a, C>(
        buf: &mut &'a [u8],
        cx: &mut C,
        mut vwrite: impl FnMut(&mut C, VertexId, u32, &'a [u8]),
        mut ewrite: impl FnMut(&mut C, EdgeId, &'a [u8]),
    ) -> Option<u64> {
        let reqid = get_varint(buf)?;
        for _ in 0..get_varint::<u32, _>(buf)? {
            vwrite(cx, VertexId(get_varint(buf)?), get_varint(buf)?, get_blob(buf)?);
        }
        for _ in 0..get_varint::<u32, _>(buf)? {
            ewrite(cx, EdgeId(get_varint(buf)?), get_blob(buf)?);
        }
        Some(reqid)
    }
}

impl Codec for ReleaseMsg {
    fn encode(&self, buf: &mut BytesMut) {
        Self::put(
            buf,
            &mut (),
            self.reqid,
            self.vwrites.len(),
            |_, buf| self.vwrites.iter().for_each(|(v, s, b)| Self::put_vwrite(buf, *v, *s, b)),
            self.ewrites.len(),
            |_, buf| self.ewrites.iter().for_each(|(e, b)| Self::put_ewrite(buf, *e, b)),
        );
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        decode_with(buf, |src, rest| {
            let mut writes = (Vec::new(), Vec::new());
            let reqid = Self::read(
                rest,
                &mut writes,
                |w, v, snap, data| w.0.push((v, snap, src.slice_ref(data))),
                |w, e, data| w.1.push((e, src.slice_ref(data))),
            )?;
            Some(ReleaseMsg { reqid, vwrites: writes.0, ewrites: writes.1 })
        })
    }
}

/// Background sync partial (locking engine).
#[derive(Clone, Debug, PartialEq)]
pub struct LockSyncPartialMsg {
    /// Sync epoch.
    pub epoch: u64,
    /// `(handle id, encoded accumulator)` per registered sync op.
    pub partials: Vec<(u32, Bytes)>,
}

codec_fields! { LockSyncPartialMsg { epoch, partials } }

/// A machine's verdict on quiet round `round` ([`LockKind::QuietReport`],
/// machine → master): `clean` unless counted work reached it between its
/// own marker and the last survivor's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuietReportMsg {
    /// The round reported on.
    pub round: u64,
    /// No work arrived while the round's markers were in flight.
    pub clean: bool,
}

codec_fields! { QuietReportMsg { round, clean } }

// ---- recovery (both engines) ----

/// Master's rollback order: broadcast the era's [`RecoveryKind::FlushMark`] to every
/// peer, and once every peer's marker arrived restore checkpoint `snap`,
/// reset all volatile engine state and resume.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RollbackMsg {
    /// Fault era the rollback resolves.
    pub era: u32,
    /// Checkpoint to restore (the latest complete one).
    pub snap: u64,
}

codec_fields! { RollbackMsg { era, snap } }

/// A recovery step of fault era `era`, named by its kind:
/// - [`RecoveryKind::Ready`], the drain acknowledgement: "I have stopped
///   sending engine traffic for this era" (machine → master; a reborn
///   machine sends it as soon as its fabric `K_UP` arrives);
/// - [`RecoveryKind::FlushMark`], the channel marker (all → all): engine
///   traffic behind it is buffered until its receiver resumes, so late
///   resumers never miss work sent by early ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoverEraMsg {
    /// Fault era being acknowledged or flushed.
    pub era: u32,
}

codec_fields! { RecoverEraMsg { era } }

/// Unrecoverable-failure broadcast: the run fails cleanly with `reason`
/// (e.g. *"no complete checkpoint"*) instead of hanging or panicking.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RecoverAbortMsg {
    /// Fault era the abort resolves.
    pub era: u32,
    /// Human-readable failure reason, surfaced through
    /// [`crate::EngineOutput::failure`].
    pub reason: String,
}

codec_fields! { RecoverAbortMsg { era, reason } }

/// Master's adoption order (master → survivors, [`RecoveryKind::AdoptPlan`]): the
/// re-balanced atom placement after reassigning every dead machine's atoms
/// over the survivors. Survivors rebuild their local graph from this
/// placement's journals, then overlay checkpoint `snap` for the adopted
/// atoms when one is complete (`None` = journal-only adoption: adopted
/// vertices restart from their ingress-initial data and are re-scheduled).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AdoptPlanMsg {
    /// Fault era the adoption resolves.
    pub era: u32,
    /// Machines being adopted away (dead, no restart scheduled).
    pub dead: Vec<u16>,
    /// The new atom → machine assignment.
    pub placement: graphlab_atoms::Placement,
    /// Complete per-atom checkpoint to overlay for adopted atoms, if any.
    pub snap: Option<u64>,
}

codec_fields! { AdoptPlanMsg { era, dead, placement, snap } }

/// Ghost-rebuild round ([`RecoveryKind::AdoptData`], survivor → survivor): the
/// sender's authoritative current data for vertices it owns that the
/// receiver mirrors, and for edges whose replica lives on the receiver.
/// Sent exactly once per ordered survivor pair — an empty one still
/// travels, so the round doubles as a FIFO flush barrier.
#[derive(Clone, Debug, PartialEq)]
pub struct AdoptDataMsg {
    /// Fault era the adoption resolves.
    pub era: u32,
    /// The sender's owned rows, in a checkpoint file's form.
    pub rows: crate::snapshot::SnapshotFile,
}

codec_fields! { AdoptDataMsg { era, rows } }

#[cfg(test)]
mod tests {
    use super::*;
    use graphlab_net::codec::{decode_from, encode_to_bytes};

    fn rt<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let b = encode_to_bytes(&v);
        assert_eq!(decode_from::<T>(b), Some(v));
    }

    #[test]
    fn rows_roundtrip() {
        rt(VertexRow { vid: VertexId(4), version: 9, snap: 1, data: Bytes::from_static(b"xy") });
        rt(EdgeRow { eid: EdgeId(7), version: 3, data: Bytes::new() });
        rt(ScheduleMsg { tasks: vec![(VertexId(1), 0.5), (VertexId(2), 2.0)] });
    }

    #[test]
    fn chromatic_msgs_roundtrip() {
        rt(StepTagged {
            step: 12,
            phase: 1,
            inner: VertexRow { vid: VertexId(0), version: 1, snap: 0, data: Bytes::from_static(b"d") },
        });
        rt(StepTagged { step: 12, phase: 0, inner: TaskSetMsg { tasks: vec![] } });
        rt(TaskSetMsg { tasks: vec![VertexId(0), VertexId(7), VertexId(7), VertexId(u32::MAX)] });
        rt(SyncPartialMsg {
            cycle: 2,
            partials: vec![(0, Bytes::from_static(b"acc")), (7, Bytes::new())],
            pending: 7,
            updates: 4,
        });
    }

    #[test]
    fn task_set_ids_past_u32_are_refused() {
        // Two gaps that sum past the id space: a malformed set, not a wrap.
        let mut buf = BytesMut::new();
        put_id_deltas(&mut buf, 2, [u32::MAX, u32::MAX].into_iter());
        buf[6] = 1; // second gap: 1
        assert_eq!(TaskSetMsg::read(&mut &buf[..], |_| {}), None);
        assert_eq!(decode_from::<TaskSetMsg>(buf.freeze()), None);
    }

    #[test]
    fn locking_msgs_roundtrip() {
        rt(LockReqMsg {
            requester: MachineId(1),
            reqid: 42,
            scope_v: VertexId(5),
            machines: vec![MachineId(0), MachineId(1)],
            model: 1,
        });
        rt(ScopeDataMsg {
            reqid: 42,
            vrows: vec![VertexRow { vid: VertexId(3), version: 3, snap: 0, data: Bytes::from_static(b"v") }],
            erows: vec![EdgeRow { eid: EdgeId(9), version: 2, data: Bytes::from_static(b"e") }],
            vsame: 2,
            esame: 1,
        });
        rt(ReleaseMsg {
            reqid: 42,
            vwrites: vec![(VertexId(3), 1, Bytes::from_static(b"w"))],
            ewrites: vec![(EdgeId(9), Bytes::from_static(b"z"))],
        });
        rt(LockSyncPartialMsg { epoch: 1, partials: vec![(2, Bytes::from_static(b"p"))] });
        rt(QuietReportMsg { round: 4, clean: false });
    }

    #[test]
    fn recovery_msgs_roundtrip() {
        rt(RollbackMsg { era: 2, snap: 1 });
        rt(RecoverEraMsg { era: 3 });
        rt(RecoverAbortMsg { era: 1, reason: "no complete checkpoint".into() });
        rt(AdoptPlanMsg {
            era: 4,
            dead: vec![2],
            placement: graphlab_atoms::Placement::round_robin(8, 3),
            snap: Some(5),
        });
        rt(AdoptPlanMsg {
            era: 1,
            dead: vec![1, 3],
            placement: graphlab_atoms::Placement::round_robin(4, 2),
            snap: None,
        });
        rt(AdoptDataMsg {
            era: 4,
            rows: crate::snapshot::SnapshotFile {
                vrows: vec![(VertexId(3), Bytes::from_static(b"v"))],
                erows: vec![(EdgeId(9), Bytes::new())],
            },
        });
    }

    /// The wire must not move: every number that has a name, with its
    /// name (3, 4, 6, 7, 9, 10, 11, 24, 34, 35, 36, 39, 42 and 43 stay
    /// unassigned).
    #[test]
    fn kinds_are_pinned() {
        const TABLE: [(u16, &str); 29] = [
            (1, "chrom/vdata"),
            (2, "chrom/edata"),
            (5, "chrom/sched"),
            (8, "chrom/sync-part"),
            (20, "lock/req"),
            (21, "lock/scope-data"),
            (22, "lock/release"),
            (23, "lock/sched"),
            (25, "lock/halt"),
            (26, "lock/halt-ack"),
            (27, "lock/sync-part"),
            (28, "lock/sync-glob"),
            (29, "snap/start"),
            (32, "snap/done"),
            (37, "lock/sync-req"),
            (38, "lock/upd-note"),
            (40, "recover/ready"),
            (41, "recover/rollback"),
            (44, "recover/abort"),
            (45, "recover/flush-mark"),
            (46, "recover/adopt-plan"),
            (47, "recover/adopt-data"),
            (48, "lock/quiet"),
            (49, "lock/quiet-report"),
            (65531, "net/lease"),
            (65532, "fault/up"),
            (65533, "fault/down"),
            (65534, "net/zip"),
            (65535, "net/batch"),
        ];
        let named: Vec<(u16, &str)> = (0..=u16::MAX)
            .map(|k| (k, kind_name(k)))
            .filter(|&(_, name)| name != "unknown")
            .collect();
        assert_eq!(named, TABLE);
        let mut names: Vec<&str> = TABLE.iter().map(|&(_, name)| name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TABLE.len(), "a name is used twice");
        // A number is one plane's or nobody's: the two envelope kinds have
        // a name but never reach an engine.
        for (k, name) in (0..=u16::MAX).map(|k| (k, kind_name(k))) {
            match Kind::from_wire(k) {
                Some(kind) => assert_eq!((kind.wire(), kind.name()), (k, name)),
                None => assert!(matches!(name, "unknown" | "net/zip" | "net/batch"), "{k}"),
            }
        }
        // The four kinds that carry work dirty a quiet round; no control
        // kind does.
        let counted: Vec<u16> = (0..=u16::MAX)
            .filter(|&k| matches!(Kind::from_wire(k), Some(Kind::Lock(k)) if k.is_counted_work()))
            .collect();
        assert_eq!(counted, [K_LOCK_REQ, K_SCOPE_DATA, K_RELEASE, K_LOCK_SCHED]);
    }

    #[test]
    fn lock_req_wire_size_is_compact() {
        // A typical 8-neighbour scope request: the v2 format (varints,
        // derived plans — only centre/routing/model travel) must stay far
        // under the old plan-carrying encoding (~250 bytes fixed-width).
        let msg = LockReqMsg {
            requester: MachineId(3),
            reqid: 1000,
            scope_v: VertexId(4321),
            machines: (0..5).map(MachineId).collect(),
            model: 1,
        };
        let bytes = encode_to_bytes(&msg);
        assert!(bytes.len() <= 16, "LockReqMsg encodes to {} bytes", bytes.len());
    }

    #[test]
    fn consistency_wire_mapping() {
        for m in [ConsistencyModel::Vertex, ConsistencyModel::Edge, ConsistencyModel::Full] {
            assert_eq!(consistency_from_u8(consistency_to_u8(m)), Some(m));
        }
        assert_eq!(consistency_from_u8(9), None);
    }
}
