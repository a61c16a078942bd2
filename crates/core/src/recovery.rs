//! The engines' failure-recovery protocol (§4.3; see the
//! [`crate::snapshot`] module docs for the full protocol walkthrough).
//!
//! Both engines drive the one master-coordinated state machine in this
//! module, keyed on the fabric **fault era** (total kills so far, carried
//! by every [`RecoveryKind::Down`]/[`RecoveryKind::Up`] notification; the
//! edges below are [`RecoveryKind`]s):
//!
//! ```text
//! normal --Down--> drain --Rollback--> marker flush --all marks-->
//!   restore+reset ------------------------> await-resume --Resume--> normal
//!                  \-AdoptPlan-> marker flush --all marks-->
//!   reload+reset+overlay --all AdoptData--^
//!
//! any phase --own death--> dead --Up--> drain
//! any phase --newer era--> drain (the round restarts)
//! ```
//!
//! The master orders a **rollback** when every machine of the era reported
//! READY, and an **adoption** when some of them are permanently dead (only
//! possible under [`RecoveryMode::Adopt`]; otherwise a permanent death
//! aborts the run): survivors reload their part under the re-balanced
//! placement, keep their live rows, overlay the latest complete per-atom
//! checkpoint on adopted atoms, and refresh ghosts with one
//! `RecoveryKind::AdoptData` round between every surviving pair.
//!
//! The **marker flush** is what makes the cut exact without any global
//! counters: a machine stops sending engine traffic when it enters the
//! drain (only recovery control flows after — [`RecoveryTracker::send`]
//! asserts it), and broadcasts the era's `RecoveryKind::FlushMark` when the
//! order arrives. Per-channel FIFO then guarantees that once a machine holds the
//! current era's marker from every peer, every pre-drain engine message
//! has already been delivered (and discarded) — nothing stale can surface
//! after the restore. Channels touching the dead machine need no flushing
//! at all: the fabric drops in-flight traffic of dead incarnations, and
//! the reborn machine starts from an empty inbox.
//!
//! # Host seam
//!
//! An engine feeds the machine every recovery-control envelope (and, while
//! a round is in progress, every envelope) through [`on_envelope`], its
//! own death through [`on_self_death`] and idle time through [`tick`], and
//! acts on the returned [`Step`]. The machine reaches back only through
//! [`RecoveryHost`]: the [`Machine`] under the engine — whose tracker,
//! batcher, local graph, DFS handle and placement the protocol drives as
//! plain fields — plus three engine-specific operations: reallocate all
//! volatile scheduling/isolation state at the current local sizes, reseed
//! one owned vertex, handle one engine envelope. Everything else (era
//! arithmetic, survivor-counted barriers, per-phase discard/buffer/replay
//! of engine traffic, the stall deadline) lives here once.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use graphlab_atoms::load_machine_part;
use graphlab_graph::{AtomId, MachineId};
use graphlab_net::clock;
use graphlab_net::codec::Codec;
use graphlab_net::fault::{DownMsg, UpMsg};
use graphlab_net::{Batcher, Envelope};

use crate::config::RecoveryMode;
use crate::driver::MachineSetup;
use crate::local::LocalGraph;
use crate::machine::Machine;
use crate::messages::*;
use crate::snapshot::{
    apply_file, latest_complete_snapshot, prune_snapshots_after, restore_atoms_into_local,
    restore_into_local, SnapshotFile,
};

/// A recovery phase that makes no progress for this long fails the run
/// with a clean error instead of hanging (the chaos suite's "never hangs"
/// guarantee; generous against CI scheduling noise).
pub(crate) const RECOVERY_DEADLINE: Duration = Duration::from_secs(60);

/// The clean failure reason for a permanent (restart-less) kill — shared
/// so every detection site (either engine, survivor or victim) reports
/// the same thing.
pub(crate) fn unrecoverable_down(d: &DownMsg) -> String {
    format!(
        "machine {} lost at fault era {} with no restart scheduled — its owned partition \
         cannot be recovered",
        d.machine, d.era
    )
}

/// The latest checkpoint complete in every part (one per atom in the
/// engines' per-atom layout), torn ones newer than it pruned.
fn latest_checkpoint<V, E>(s: &MachineSetup<V, E>) -> Option<u64> {
    let latest = latest_complete_snapshot(&s.dfs, &s.snap_prefix, s.config.num_atoms);
    prune_snapshots_after(&s.dfs, &s.snap_prefix, latest);
    latest
}

/// Master, all READYs in: prunes torn checkpoints and picks the rollback
/// target. `Ok` is the order to broadcast; `Err` is the abort to broadcast
/// (no complete checkpoint — nothing to roll back to).
fn pick_rollback<V, E>(s: &MachineSetup<V, E>, era: u32) -> Result<RollbackMsg, RecoverAbortMsg> {
    match latest_checkpoint(s) {
        Some(snap) => Ok(RollbackMsg { era, snap }),
        None => Err(RecoverAbortMsg {
            era,
            reason: format!(
                "machine failure at fault era {era} with no complete checkpoint to roll back \
                 to — configure snapshots (SnapshotConfig) to make runs recoverable"
            ),
        }),
    }
}

/// Master, all surviving READYs in under [`crate::RecoveryMode::Adopt`]:
/// computes the adoption order — the re-balanced placement (dead
/// machines' atoms LPT-spread over survivors) plus the latest complete
/// per-atom checkpoint to overlay, if any (`None` degrades to
/// journal-only adoption: adopted vertices restart from ingress-initial
/// data and reconverge through re-scheduling — adoption never *requires*
/// checkpoints the way rollback does).
fn pick_adoption<V, E>(s: &MachineSetup<V, E>, era: u32, dead: &[bool]) -> AdoptPlanMsg {
    AdoptPlanMsg {
        era,
        dead: (0..dead.len()).filter(|&m| dead[m]).map(|m| m as u16).collect(),
        placement: s.placement.adopt(&s.index, dead),
        snap: latest_checkpoint(s),
    }
}

pub(crate) use tally::{Markers, Tally};

/// In a module of its own so that nothing — this file included — can read
/// the count: a quorum is asked for, never computed.
mod tally {
    use graphlab_graph::MachineId;

    /// Votes collected towards a barrier (halt acks, snapshot DONEs, sync
    /// partials, RECOVEREDs). Dead machines never vote, so the one question
    /// a tally answers is [`RecoveryTracker::complete`] — as many votes as
    /// survivors; it compares with nothing else, the static machine count
    /// least of all.
    ///
    /// [`RecoveryTracker::complete`]: super::RecoveryTracker::complete
    #[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
    pub(crate) struct Tally(usize);

    impl Tally {
        /// A tally that starts with the collecting machine's own vote.
        pub(crate) fn with_own_vote() -> Self {
            Tally(1)
        }

        pub(crate) fn vote(&mut self) {
            self.0 += 1;
        }
    }

    /// The FIFO marker barriers' record — the chromatic step's flush
    /// rounds, the synchronous snapshot's, recovery's fault eras, the quiet
    /// round's: per machine, the highest round whose marker arrived from
    /// it. A marker follows everything its sender sent before it on the
    /// channel, so the one question is [`RecoveryTracker::holds`]: has
    /// every survivor's marker of a round arrived?
    ///
    /// [`RecoveryTracker::holds`]: super::RecoveryTracker::holds
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    pub(crate) struct Markers(Vec<Option<u64>>);

    impl Markers {
        /// No marker from any of `slots` machines yet.
        pub(crate) fn new(slots: usize) -> Self {
            Markers(vec![None; slots])
        }

        /// `src`'s marker of `round` arrived; an older one changes nothing.
        pub(crate) fn note(&mut self, src: MachineId, round: u64) {
            let highest = &mut self.0[src.index()];
            *highest = (*highest).max(Some(round));
        }

        /// The first round whose marker from `src` has not arrived.
        pub(crate) fn next(&self, src: MachineId) -> u64 {
            self.0[src.index()].map_or(0, |r| r + 1)
        }
    }

    impl super::RecoveryTracker {
        /// Whether every machine still alive has voted.
        pub(crate) fn complete(&self, votes: &Tally) -> bool {
            votes.0 >= self.survivors()
        }

        /// Whether every surviving peer's marker of `round`, or of a later
        /// one, has arrived. A machine needs no marker from itself, and the
        /// dead owe none: the fabric drops their in-flight traffic.
        pub(crate) fn holds(&self, marks: &Markers, round: u64) -> bool {
            self.all_survivors(|j| j == self.me || marks.0[j] >= Some(round))
        }
    }
}

/// Where a machine stands in the recovery protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecoveryPhase {
    /// No recovery in progress.
    Normal,
    /// This machine is dead (fault plan); waiting for the fabric restart.
    Dead,
    /// Drained and READY sent; waiting for the master's order.
    Drain,
    /// Order received and own marker broadcast; discarding stale traffic
    /// until every peer's flush marker arrived.
    FlushWait,
    /// Adoption applied locally; waiting for every surviving peer's
    /// `RecoveryKind::AdoptData` ghost round.
    AdoptData,
    /// Rolled back (or adopted); waiting for the cluster-wide resume
    /// barrier.
    AwaitResume,
}

/// The master's order for one fault era: roll everyone back to a
/// checkpoint, or have the survivors adopt the dead machines' atoms.
#[derive(Debug)]
enum Order {
    Rollback(RollbackMsg),
    Adopt(AdoptPlanMsg),
}

/// Per-machine recovery state shared by both distributed engines.
#[derive(Debug)]
pub(crate) struct RecoveryTracker {
    me: usize,
    n: usize,
    /// Latest fabric fault era seen (0 = no fault yet).
    pub era: u32,
    /// Completed rollbacks on this machine.
    pub recoveries: u64,
    /// Completed adoption rounds on this machine (restart-free recovery).
    pub adoptions: u64,
    /// Machines known permanently dead (no restart scheduled). Every
    /// collection below counts survivors only; deaths persist across
    /// eras. Restartable kills are *not* recorded here — the rollback
    /// round must wait for the reborn machine's READY.
    dead: Vec<bool>,
    /// Master: machines whose READY arrived for the current era.
    ready: Vec<bool>,
    /// Peers' flush markers, by era.
    marks: Markers,
    /// Master: RecoveryKind::Recovered acknowledgements for the current era.
    recovered: Tally,
    phase: RecoveryPhase,
    /// Entry time of the current phase (stall deadline).
    phase_since: Option<Instant>,
    /// The order being flushed towards (FlushWait).
    order: Option<Order>,
    /// Surviving peers whose ghost round arrived (AdoptData).
    adopt_got: Vec<bool>,
    /// `RecoveryKind::AdoptData` that raced ahead of a slower peer's flush marker —
    /// applied once our own adoption surgery is done.
    adopt_early: Vec<Envelope>,
    /// Post-recovery engine traffic from machines that resumed before us
    /// (AdoptData/AwaitResume) — replayed after `RecoveryKind::Resume`, never dropped.
    resume_buffer: Vec<(Kind, Envelope)>,
}

impl RecoveryTracker {
    pub(crate) fn new(me: usize, n: usize) -> Self {
        RecoveryTracker {
            me,
            n,
            era: 0,
            recoveries: 0,
            adoptions: 0,
            dead: vec![false; n],
            ready: vec![false; n],
            marks: Markers::new(n),
            recovered: Tally::default(),
            phase: RecoveryPhase::Normal,
            phase_since: None,
            order: None,
            adopt_got: Vec::new(),
            adopt_early: Vec::new(),
            resume_buffer: Vec::new(),
        }
    }

    /// The phase this machine is in.
    pub(crate) fn phase(&self) -> RecoveryPhase {
        self.phase
    }

    fn enter(&mut self, phase: RecoveryPhase) {
        self.phase = phase;
        self.phase_since = Some(clock::now());
    }

    /// Crash semantics: everything but the permanent deaths is forgotten.
    /// Those are cluster-durable facts (a real deployment relearns them
    /// from the master) — a reborn machine that forgot them would wait
    /// forever for a dead peer's flush marker.
    fn wipe(&mut self) {
        let dead = std::mem::take(&mut self.dead);
        *self = RecoveryTracker::new(self.me, self.n);
        self.dead = dead;
    }

    /// Single send point for all traffic of a recovering machine.
    /// Recovery correctness depends on a machine sending **no** engine
    /// message between its drain point and the cluster-wide resume — the
    /// flush-marker barrier is only a barrier because everything after a
    /// machine's drain is recovery control; this assert enforces it.
    /// `put` encodes the message straight into `dst`'s batch queue
    /// ([`Batcher::send_with`]).
    pub(crate) fn send_with(
        &self,
        net: &mut Batcher,
        dst: MachineId,
        kind: impl Into<Kind>,
        put: impl FnOnce(&mut BytesMut),
    ) {
        net.send_with(dst, self.may_send(kind.into()), put);
    }

    /// [`Self::send_with`] for a payload already encoded (control traffic,
    /// and blobs too big for a queue, which leave without a copy).
    pub(crate) fn send(
        &self,
        net: &mut Batcher,
        dst: MachineId,
        kind: impl Into<Kind>,
        payload: Bytes,
    ) {
        net.send(dst, self.may_send(kind.into()), payload);
    }

    /// `kind` as the transport takes it, having checked it may leave now.
    fn may_send(&self, kind: Kind) -> u16 {
        debug_assert!(
            self.phase == RecoveryPhase::Normal || matches!(kind, Kind::Recovery(_)),
            "engine message {} sent during recovery phase {:?}",
            kind.name(),
            self.phase
        );
        kind.wire()
    }

    /// Sends `payload` to every surviving peer.
    pub(crate) fn broadcast(&self, net: &mut Batcher, kind: impl Into<Kind>, payload: &Bytes) {
        let kind = kind.into();
        for dst in self.peers() {
            self.send(net, dst, kind, payload.clone());
        }
    }

    /// Records a permanent (restart-less) death: `machine` drops out of
    /// every barrier from here on. Idempotent.
    pub(crate) fn note_death(&mut self, machine: usize) {
        self.dead[machine] = true;
    }

    /// Number of machines still alive. Private: a barrier asks
    /// [`Self::complete`], [`Self::all_survivors`] or [`Self::peers`].
    fn survivors(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Every surviving machine but this one, ascending: whom a broadcast
    /// reaches and who owes this machine a reply.
    pub(crate) fn peers(&self) -> impl Iterator<Item = MachineId> + '_ {
        (0..self.n).filter(|&j| j != self.me && !self.dead[j]).map(MachineId::from)
    }

    /// Whether `holds` of every surviving machine, this one included (the
    /// dead owe nothing).
    pub(crate) fn all_survivors(&self, mut holds: impl FnMut(usize) -> bool) -> bool {
        (0..self.n).all(|j| self.dead[j] || holds(j))
    }

    /// Observes a fault era (from `K_DOWN`, `K_UP`, or — on a reborn
    /// machine — the order itself). Returns `true` when the era advanced:
    /// the caller must (re-)enter the drain phase and send a fresh READY;
    /// all collection state restarts.
    pub(crate) fn observe_era(&mut self, era: u32) -> bool {
        if era <= self.era {
            return false;
        }
        self.era = era;
        self.ready.fill(false);
        self.recovered = Tally::default();
        true
    }

    /// Master: records machine `src`'s READY for `era` (stale ignored).
    pub(crate) fn note_ready(&mut self, src: usize, era: u32) {
        if era == self.era {
            self.ready[src] = true;
        }
    }

    /// Master: whether every *surviving* machine (reborn included — a
    /// restartable kill never enters the dead set) reported READY for the
    /// current era.
    pub(crate) fn all_ready(&self) -> bool {
        self.all_survivors(|j| self.ready[j])
    }

    /// Called when this machine's rollback is applied.
    pub(crate) fn after_rollback(&mut self) {
        self.recoveries += 1;
    }

    /// Called when this machine's adoption round completes.
    pub(crate) fn after_adoption(&mut self) {
        self.adoptions += 1;
    }

    /// Master: counts a RecoveryKind::Recovered for `era`; returns whether every
    /// survivor has recovered and the resume barrier can release.
    pub(crate) fn note_recovered(&mut self, era: u32) -> bool {
        if era == self.era {
            self.recovered.vote();
        }
        self.complete(&self.recovered)
    }
}

/// What the recovery machine needs from the engine it recovers.
pub(crate) trait RecoveryHost {
    type V: Codec;
    type E: Codec;

    /// The machine under the engine: the state the protocol drives.
    fn machine(&mut self) -> &mut Machine<Self::V, Self::E>;

    /// Reallocates every piece of volatile engine state at the *current*
    /// local graph sizes (adoption changes them). Graph data, metrics and
    /// the tracker are untouched; the machine's own share
    /// ([`Machine::reset_engine_state`]) is reset beside it.
    fn reset_engine_state(&mut self);

    /// Schedules owned local vertex `l` (conservative re-seeding:
    /// checkpoints do not capture scheduler state, so every owned vertex
    /// re-runs and self-stabilising programs reconverge).
    fn reseed(&mut self, l: u32);

    /// Handles one engine envelope, decoded as `kind` where it was
    /// received, as in the normal phase (replay of traffic buffered while
    /// waiting for the resume barrier).
    fn replay(&mut self, kind: Kind, env: Envelope);
}

/// What the engine loop does after feeding the machine one event.
#[derive(Debug, PartialEq)]
pub(crate) enum Step {
    /// Keep receiving.
    Continue,
    /// The round completed: data restored or adopted, engine state reset
    /// and reseeded, buffered traffic replayed; the phase is Normal again.
    Resumed,
    /// Permanently dead under [`RecoveryMode::Adopt`]: leave the run
    /// cleanly with no rows to report (the survivors adopt our atoms).
    Exit,
    /// Unrecoverable: fail the run cleanly with this reason.
    Abort(String),
}

/// Routes one envelope, decoded as `kind` where it was received (the one
/// decode of its `u16`). The recovery/fabric control plane is handled in
/// every phase; engine traffic is handled (Normal), discarded (Drain and
/// FlushWait — it precedes its sender's flush marker, and the restore
/// wipes whatever it would have changed), or buffered for replay
/// (AdoptData/AwaitResume — post-recovery work from early resumers). A
/// dead machine ignores everything but its rebirth: a crash loses the
/// pre-crash backlog.
pub(crate) fn on_envelope<H: RecoveryHost>(h: &mut H, kind: Kind, env: Envelope) -> Step {
    let m = h.machine();
    if m.rec.phase == RecoveryPhase::Dead && kind != Kind::Recovery(RecoveryKind::Up) {
        return tick(h);
    }
    let kind = match kind {
        Kind::Recovery(kind) => kind,
        Kind::Chrom(_) | Kind::Lock(_) => {
            match m.rec.phase {
                RecoveryPhase::Normal => h.replay(kind, env),
                RecoveryPhase::AdoptData | RecoveryPhase::AwaitResume => {
                    m.rec.resume_buffer.push((kind, env))
                }
                RecoveryPhase::Drain | RecoveryPhase::FlushWait | RecoveryPhase::Dead => {}
            }
            return tick(h);
        }
    };
    let src = env.src.index();
    match kind {
        RecoveryKind::Down => {
            let d: DownMsg = dec(env.payload);
            return on_down(h, d);
        }
        RecoveryKind::Up => {
            let u: UpMsg = dec(env.payload);
            on_self_up(h, u);
        }
        RecoveryKind::Lease => unreachable!("the Batcher consumes lease heartbeats"),
        RecoveryKind::Ready => {
            let msg: RecoverEraMsg = dec(env.payload);
            if m.rec.me == 0 {
                // The fabric delivers K_UP to the reborn machine only; its
                // READY is the master's cue to lease it afresh (and to
                // lift the expiry fence a restartable kill raised).
                m.net.lease_note_up(env.src.0, msg.era);
                m.rec.note_ready(src, msg.era);
            }
        }
        RecoveryKind::Rollback => {
            let msg: RollbackMsg = dec(env.payload);
            on_order(h, msg.era, Order::Rollback(msg));
        }
        RecoveryKind::AdoptPlan => {
            let msg: AdoptPlanMsg = dec(env.payload);
            on_order(h, msg.era, Order::Adopt(msg));
        }
        RecoveryKind::FlushMark => {
            let msg: RecoverEraMsg = dec(env.payload);
            // Stale eras leave no trace (the era fence).
            if msg.era == m.rec.era {
                m.rec.marks.note(env.src, msg.era.into());
            }
        }
        RecoveryKind::AdoptData => match m.rec.phase {
            // Our own surgery has not run yet: hold the rows until the
            // local graph exists under the new placement.
            RecoveryPhase::Drain | RecoveryPhase::FlushWait => m.rec.adopt_early.push(env),
            RecoveryPhase::AdoptData => {
                apply_adopt_data(h, env);
                return check_adopt_done(h);
            }
            // A round we already completed (a peer cannot start a newer
            // one before our own flush marker, which we have not sent).
            _ => {}
        },
        RecoveryKind::Recovered => {
            let msg: RecoverEraMsg = dec(env.payload);
            // Early finishers are only counted; the barrier releases once
            // the master itself waits at it.
            if m.rec.me == 0
                && m.rec.note_recovered(msg.era)
                && m.rec.phase == RecoveryPhase::AwaitResume
            {
                return release_resume(h);
            }
        }
        RecoveryKind::Resume => {
            let msg: RecoverEraMsg = dec(env.payload);
            return on_resume(h, msg.era);
        }
        RecoveryKind::Abort => {
            let msg: RecoverAbortMsg = dec(env.payload);
            return Step::Abort(msg.reason);
        }
    }
    tick(h)
}

/// Progress that no single message carries: the stall deadline, applying
/// the order once the channels are flushed, and the master's order once
/// every READY is in. Call after every receive timeout while a round is
/// in progress ([`on_envelope`] does so itself).
pub(crate) fn tick<H: RecoveryHost>(h: &mut H) -> Step {
    let rec = &h.machine().rec;
    if rec.phase == RecoveryPhase::Normal {
        return Step::Continue;
    }
    if rec.phase_since.is_some_and(|t| clock::now() - t > RECOVERY_DEADLINE) {
        return Step::Abort(format!(
            "recovery stalled in {:?} at fault era {} (machine {}, dead {:?}, ready {:?}, \
             marks {:?}, recovered {:?})",
            rec.phase, rec.era, rec.me, rec.dead, rec.ready, rec.marks, rec.recovered
        ));
    }
    // Every survivor's marker of the era: no pre-drain engine message can
    // surface any more.
    if rec.phase == RecoveryPhase::FlushWait && rec.holds(&rec.marks, rec.era.into()) {
        return apply_order(h);
    }
    if rec.me == 0 && rec.phase == RecoveryPhase::Drain && rec.all_ready() {
        return master_order(h);
    }
    Step::Continue
}

/// A peer died (or the notification is about ourselves — the fabric's
/// wakeup for a victim that was blocked in `recv` when the kill fired).
/// Enters, or on a newer era restarts, the drain.
fn on_down<H: RecoveryHost>(h: &mut H, d: DownMsg) -> Step {
    let m = h.machine();
    if d.machine as usize == m.rec.me {
        return on_self_death(h);
    }
    // Fence the victim's lease for every kind of death: a restartable
    // victim is silent through its dead window and must not be
    // re-declared by expiry (its READY after rebirth lifts the fence).
    m.net.lease_note_death(d.machine, d.era);
    if !d.restart {
        if m.setup.config.recovery != RecoveryMode::Adopt {
            return Step::Abort(unrecoverable_down(&d));
        }
        m.rec.note_death(d.machine as usize);
        m.net.fence(d.machine);
    }
    tr!("[m{}] PEER_DOWN m{} era={} restart={}", m.rec.me, d.machine, d.era, d.restart);
    if m.rec.observe_era(d.era) {
        enter_drain(h);
    }
    tick(h)
}

/// Fabric notification on the reborn machine itself: rejoin the round for
/// the current era with empty state.
fn on_self_up<H: RecoveryHost>(h: &mut H, u: UpMsg) {
    let rec = &h.machine().rec;
    debug_assert_eq!(u.machine as usize, rec.me, "K_UP is delivered to the reborn machine only");
    tr!("[m{}] SELF_UP era={}", rec.me, u.era);
    if rec.phase != RecoveryPhase::Dead {
        // The dead window passed without this thread ever observing
        // MachineDown (it was busy on its pre-crash inbox backlog):
        // complete the crash now, before rejoining.
        wipe_volatile(h);
    }
    h.machine().rec.observe_era(u.era);
    enter_drain(h);
}

/// This machine was killed (`RecvError::MachineDown`, or a `K_DOWN` about
/// itself): discard all volatile state and wait for the fabric restart —
/// the engine equivalent of a process replacement that will reload from
/// the checkpoint. With no restart scheduled the machine leaves the run:
/// cleanly under adoption, failing fast otherwise (survivors abort on
/// their `K_DOWN{restart: false}` in parallel).
pub(crate) fn on_self_death<H: RecoveryHost>(h: &mut H) -> Step {
    let m = h.machine();
    if m.rec.phase == RecoveryPhase::Dead {
        return tick(h); // still dead; keep polling for rebirth
    }
    let permanent = m.net.self_death() == Some(false);
    if permanent && m.setup.config.recovery != RecoveryMode::Adopt {
        // The kill itself advanced the era past the last one seen here.
        let d = DownMsg { machine: m.rec.me as u16, restart: false, era: m.rec.era + 1 };
        return Step::Abort(unrecoverable_down(&d));
    }
    tr!("[m{}] SELF_DEATH permanent={permanent}", m.rec.me);
    wipe_volatile(h);
    h.machine().rec.enter(RecoveryPhase::Dead);
    if permanent {
        Step::Exit
    } else {
        Step::Continue
    }
}

/// Crash semantics: every piece of volatile state is gone. Graph data is
/// restored (and work re-seeded) by the round that must follow.
fn wipe_volatile<H: RecoveryHost>(h: &mut H) {
    h.machine().net.clear();
    reset_engine_state(h);
    h.machine().rec.wipe();
}

/// All volatile state below the tracker: the machine's share, then the
/// engine's.
fn reset_engine_state<H: RecoveryHost>(h: &mut H) {
    h.machine().reset_engine_state();
    h.reset_engine_state();
}

/// Stops engine work and reports the drain point to the master.
fn enter_drain<H: RecoveryHost>(h: &mut H) {
    let m = h.machine();
    m.rec.enter(RecoveryPhase::Drain);
    m.rec.order = None;
    m.rec.adopt_early.clear();
    m.rec.resume_buffer.clear();
    // Engine sends still sitting in batch queues precede the drain point
    // and must go out ahead of the (future) flush marker on each channel:
    // flush, do not clear.
    m.net.flush_all();
    let era = m.rec.era;
    tr!("[m{}] DRAIN era={era}", m.rec.me);
    if m.rec.me == 0 {
        m.rec.note_ready(0, era);
    } else {
        m.send(MachineId(0), RecoveryKind::Ready, enc(&RecoverEraMsg { era }));
        m.net.flush_all();
    }
}

/// Master, every surviving READY in: a non-empty dead set (possible only
/// under [`RecoveryMode::Adopt`] — any other mode aborts on the `K_DOWN`)
/// means restart-free adoption; a full cluster rolls back to the newest
/// complete checkpoint, or aborts cleanly when there is none.
fn master_order<H: RecoveryHost>(h: &mut H) -> Step {
    let m = h.machine();
    let (era, s) = (m.rec.era, &m.setup);
    let order = if m.rec.dead.contains(&true) {
        let plan = pick_adoption(s, era, &m.rec.dead);
        m.broadcast(RecoveryKind::AdoptPlan, &enc(&plan));
        Order::Adopt(plan)
    } else {
        match pick_rollback(s, era) {
            Ok(msg) => {
                m.broadcast(RecoveryKind::Rollback, &enc(&msg));
                Order::Rollback(msg)
            }
            Err(abort) => {
                m.broadcast(RecoveryKind::Abort, &enc(&abort));
                m.net.flush_all();
                return Step::Abort(abort.reason);
            }
        }
    };
    m.net.flush_all();
    on_order(h, era, order);
    tick(h)
}

/// Order received (or, on the master, just issued): broadcast this era's
/// flush marker — everything this machine sent before it is pre-drain
/// engine traffic, delivered ahead of it by per-channel FIFO — then
/// discard inbound traffic until every survivor's marker arrived.
fn on_order<H: RecoveryHost>(h: &mut H, era: u32, order: Order) {
    let m = h.machine();
    if era < m.rec.era {
        return; // superseded round
    }
    // A reborn machine may have missed intermediate K_DOWNs; the order's
    // era is authoritative.
    m.rec.observe_era(era);
    if let Order::Adopt(plan) = &order {
        // So is the plan about who died (a machine that was itself dead
        // at the time never saw that K_DOWN).
        for &dm in &plan.dead {
            m.rec.note_death(dm as usize);
            m.net.lease_note_death(dm, era);
            m.net.fence(dm);
        }
    }
    tr!("[m{}] ORDER era={era} adopt={}", m.rec.me, matches!(order, Order::Adopt(_)));
    m.broadcast(RecoveryKind::FlushMark, &enc(&RecoverEraMsg { era }));
    m.net.flush_all();
    m.rec.order = Some(order);
    m.rec.enter(RecoveryPhase::FlushWait);
}

/// Channels flushed: apply the order.
fn apply_order<H: RecoveryHost>(h: &mut H) -> Step {
    let m = h.machine();
    match m.rec.order.take().expect("FlushWait holds an order") {
        Order::Rollback(msg) => {
            // Restore the checkpoint, rebuild all volatile state, re-seed.
            let (dfs, prefix) = (&m.setup.dfs, &m.setup.snap_prefix);
            if let Err(e) = restore_into_local(dfs, prefix, msg.snap, &mut m.lg) {
                return Step::Abort(format!(
                    "checkpoint {} unreadable during rollback: {e}",
                    msg.snap
                ));
            }
            reset_engine_state(h);
            let m = h.machine();
            m.snapshots = msg.snap + 1;
            m.rec.after_rollback();
            tr!("[m{}] ROLLED_BACK snap={} era={}", m.rec.me, msg.snap, m.rec.era);
            join_resume_barrier(h)
        }
        Order::Adopt(plan) => adopt(h, plan),
    }
}

/// Restart-free recovery (the §3 elasticity claim made concrete): rebuild
/// this machine under the adopted placement without rolling the cluster
/// back. Own atoms keep their *live* data; adopted atoms overlay the
/// latest complete per-atom checkpoint when one exists (journal-only
/// otherwise — ingress-initial data reconverges through re-scheduling);
/// then one [`RecoveryKind::AdoptData`] ghost round between every surviving pair
/// refreshes replicas and doubles as the FIFO barrier before the resume
/// handshake.
fn adopt<H: RecoveryHost>(h: &mut H, plan: AdoptPlanMsg) -> Step {
    let m = h.machine();
    let me = m.me();
    // Diff against what this machine *currently* holds — the plan's
    // placement is absolute, so adoptions interrupted by overlapping
    // failures compose.
    let old_atoms: std::collections::BTreeSet<AtomId> =
        m.setup.placement.atoms_of(me).into_iter().collect();
    let adopted: Vec<AtomId> =
        plan.placement.atoms_of(me).into_iter().filter(|a| !old_atoms.contains(a)).collect();

    // Keep the live values of everything currently owned, then reload the
    // journals under the adopted placement (new ghost structure, mirror
    // lists and atom spans).
    let live = SnapshotFile::capture(&m.lg);
    match load_machine_part(&m.setup.dfs, &m.setup.index, &plan.placement, me) {
        Ok(init) => m.lg = LocalGraph::from_init(init, m.setup.coloring.as_deref()),
        Err(e) => return Step::Abort(format!("adoption reload failed on machine {}: {e}", me.0)),
    }
    m.setup.placement = Arc::new(plan.placement);
    reset_engine_state(h);

    let m = h.machine();
    // Own rows keep their live values...
    if let Err(e) = apply_file(live, &mut m.lg) {
        return Step::Abort(format!("live data re-apply failed during adoption: {e}"));
    }
    // ...and adopted rows overlay from the checkpoint, when one exists.
    if let (Some(snap), false) = (plan.snap, adopted.is_empty()) {
        let (dfs, prefix) = (&m.setup.dfs, &m.setup.snap_prefix);
        if let Err(e) = restore_atoms_into_local(dfs, prefix, snap, &adopted, &mut m.lg) {
            return Step::Abort(format!("checkpoint {snap} unreadable during adoption: {e}"));
        }
    }
    // Journal-only adoption restarts the snapshot ids from 0.
    m.snapshots = plan.snap.map_or(0, |s| s + 1);
    tr!("[m{}] ADOPTED atoms={adopted:?} era={}", me.0, plan.era);

    send_adopt_data(m, plan.era);
    m.rec.adopt_got = vec![false; m.rec.n];
    m.rec.enter(RecoveryPhase::AdoptData);
    for env in std::mem::take(&mut m.rec.adopt_early) {
        apply_adopt_data(h, env);
    }
    check_adopt_done(h)
}

/// Sends exactly one [`RecoveryKind::AdoptData`] to every surviving peer — even when
/// empty, so receipt of the round is a per-channel barrier — carrying the
/// owned vertex rows mirrored on that peer and the owned edge rows
/// replicated there.
fn send_adopt_data<V: Codec, E: Codec>(m: &mut Machine<V, E>, era: u32) {
    let (me, lg) = (m.me(), &m.lg);
    let mut out = vec![AdoptDataMsg { era, vrows: Vec::new(), erows: Vec::new() }; m.rec.n];
    for &l in lg.owned_vertices() {
        if lg.vertex_mirrors(l).is_empty() {
            continue;
        }
        let row = (lg.vertex_gvid(l), enc(lg.vertex_data(l)));
        for mm in lg.vertex_mirrors(l) {
            out[mm.index()].vrows.push(row.clone());
        }
    }
    for l in (0..lg.num_local_edges() as u32).filter(|&l| lg.owns_edge(l)) {
        let (s, d) = lg.edge_endpoints_local(l);
        let (ms, md) = (lg.vertex_owner(s), lg.vertex_owner(d));
        let other = if ms == me { md } else { ms };
        if other != me {
            out[other.index()].erows.push((lg.edge_geid(l), enc(lg.edge_data(l))));
        }
    }
    for dst in m.rec.peers() {
        m.rec.send(&mut m.net, dst, RecoveryKind::AdoptData, enc(&out[dst.index()]));
    }
    m.net.flush_all();
}

/// One surviving peer's ghost round (AdoptData phase): apply its rows;
/// rounds from superseded eras are dropped.
fn apply_adopt_data<H: RecoveryHost>(h: &mut H, env: Envelope) {
    let m = h.machine();
    let msg: AdoptDataMsg = dec(env.payload);
    if msg.era != m.rec.era {
        return;
    }
    for (v, blob) in msg.vrows {
        if let Some(l) = m.lg.local_vertex(v) {
            *m.lg.vertex_data_mut(l) = dec(blob);
        }
    }
    for (e, blob) in msg.erows {
        if let Some(l) = m.lg.local_edge(e) {
            *m.lg.edge_data_mut(l) = dec(blob);
        }
    }
    m.rec.adopt_got[env.src.index()] = true;
}

/// Every surviving peer's ghost round arrived: join the resume barrier.
fn check_adopt_done<H: RecoveryHost>(h: &mut H) -> Step {
    let rec = &mut h.machine().rec;
    if !rec.all_survivors(|j| j == rec.me || rec.adopt_got[j]) {
        return Step::Continue;
    }
    rec.after_adoption();
    tr!("[m{}] ADOPT_DONE era={}", rec.me, rec.era);
    join_resume_barrier(h)
}

/// Data is in place: re-seed every owned vertex (adopted data may lag
/// surviving live data; re-execution reconverges) and wait at the
/// `Recovered`/`Resume` barrier, which keeps post-recovery work from
/// racing ahead of machines still restoring.
fn join_resume_barrier<H: RecoveryHost>(h: &mut H) -> Step {
    for l in h.machine().lg.owned_vertices().to_vec() {
        h.reseed(l);
    }
    let m = h.machine();
    m.rec.enter(RecoveryPhase::AwaitResume);
    let era = m.rec.era;
    if m.rec.me != 0 {
        m.send(MachineId(0), RecoveryKind::Recovered, enc(&RecoverEraMsg { era }));
        m.net.flush_all();
    } else if m.rec.note_recovered(era) {
        return release_resume(h);
    }
    Step::Continue
}

/// Master: every survivor recovered — release the resume barrier.
fn release_resume<H: RecoveryHost>(h: &mut H) -> Step {
    let m = h.machine();
    let era = m.rec.era;
    m.broadcast(RecoveryKind::Resume, &enc(&RecoverEraMsg { era }));
    m.net.flush_all();
    on_resume(h, era)
}

/// Resume barrier released: back to normal operation, replaying buffered
/// post-recovery traffic in arrival order.
fn on_resume<H: RecoveryHost>(h: &mut H, era: u32) -> Step {
    let rec = &mut h.machine().rec;
    if era != rec.era || rec.phase != RecoveryPhase::AwaitResume {
        return tick(h); // stale
    }
    tr!("[m{}] RESUME era={era} buffered={}", rec.me, rec.resume_buffer.len());
    rec.enter(RecoveryPhase::Normal);
    for (kind, env) in std::mem::take(&mut rec.resume_buffer) {
        h.replay(kind, env);
    }
    Step::Resumed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn era_advance_resets_collection() {
        let mut t = RecoveryTracker::new(0, 3);
        assert!(t.observe_era(1));
        t.note_ready(0, 1);
        t.note_ready(1, 1);
        t.note_ready(2, 1);
        assert!(t.all_ready());
        t.marks.note(MachineId(1), 1);
        t.marks.note(MachineId(2), 1);
        assert!(t.holds(&t.marks, 1));
        // A second failure restarts the round.
        assert!(t.observe_era(2));
        assert!(!t.all_ready());
        assert!(!t.holds(&t.marks, 2));
        assert!(!t.observe_era(2), "same era observed twice is a no-op");
        assert!(!t.observe_era(1), "stale era ignored");
    }

    #[test]
    fn stale_control_is_ignored() {
        let mut t = RecoveryTracker::new(1, 2);
        t.observe_era(3);
        t.note_ready(0, 2); // stale era
        assert!(!t.all_ready());
        t.marks.note(MachineId(0), 2); // stale era
        assert!(!t.holds(&t.marks, 3));
        t.marks.note(MachineId(0), 3);
        assert!(t.holds(&t.marks, 3), "own channel needs no marker");
    }

    #[test]
    fn dead_machines_drop_out_of_every_barrier() {
        let mut t = RecoveryTracker::new(0, 4);
        t.observe_era(1);
        t.note_death(2);
        assert_eq!(t.dead, [false, false, true, false]);
        assert_eq!(t.survivors(), 3);
        t.note_ready(0, 1);
        t.note_ready(1, 1);
        assert!(!t.all_ready(), "machine 3 still owes a READY");
        t.note_ready(3, 1);
        assert!(t.all_ready(), "the dead machine owes nothing");
        t.marks.note(MachineId(1), 1);
        t.marks.note(MachineId(3), 1);
        assert!(t.holds(&t.marks, 1), "no marker expected from the dead");
        assert!(!t.note_recovered(1));
        assert!(!t.note_recovered(1));
        assert!(t.note_recovered(1), "resume releases at 3 survivors");
        // Deaths persist across eras; collection state does not.
        assert!(t.observe_era(2));
        assert!(t.dead[2]);
        assert!(!t.all_ready());
        t.after_adoption();
        assert_eq!(t.adoptions, 1);
        assert_eq!(t.recoveries, 0);
    }

    #[test]
    fn resume_barrier_counts_current_era_only() {
        let mut t = RecoveryTracker::new(0, 2);
        t.observe_era(1);
        assert!(!t.note_recovered(1));
        assert!(!t.note_recovered(0), "stale era not counted");
        assert!(t.note_recovered(1));
        t.after_rollback();
        assert_eq!(t.recoveries, 1);
    }

    // ---- the state machine, driven by scripted envelopes ----
    //
    // Machine 1 of a 3-endpoint zero-latency SimNet runs the protocol
    // against a fake engine on the real `Machine`; machines 0 and 2 are bare
    // endpoints whose inboxes show what the machine sent.

    use graphlab_atoms::{build_atoms, write_atoms, Placement, SimDfs, VertexPartition};
    use graphlab_graph::{GraphBuilder, VertexId};
    use graphlab_net::{BatchPolicy, Endpoint, FaultPlan, FaultTrigger, LatencyModel, SimNet};

    use crate::snapshot::write_snapshot_atoms;

    struct FakeHost {
        core: Machine<f64, f64>,
        resets: usize,
        seeded: Vec<u32>,
        replayed: Vec<Kind>,
    }

    impl RecoveryHost for FakeHost {
        type V = f64;
        type E = f64;
        fn machine(&mut self) -> &mut Machine<f64, f64> {
            &mut self.core
        }
        fn reset_engine_state(&mut self) {
            self.resets += 1;
            self.seeded.clear();
        }
        fn reseed(&mut self, l: u32) {
            self.seeded.push(l);
        }
        fn replay(&mut self, kind: Kind, _: Envelope) {
            self.replayed.push(kind);
        }
    }

    /// A 12-vertex ring with chords in 6 atoms on 3 machines; returns
    /// machine 1's host and the endpoints of machines 0 and 2.
    fn cluster(
        mode: RecoveryMode,
        faults: Option<FaultPlan>,
    ) -> (FakeHost, Endpoint, Endpoint) {
        let (host, [ep0, ep2]) = cluster_of(1, mode, faults);
        (host, ep0, ep2)
    }

    /// The same cluster seen from machine `me`: its host and the other two
    /// machines' endpoints, ascending.
    fn cluster_of(
        me: u16,
        mode: RecoveryMode,
        faults: Option<FaultPlan>,
    ) -> (FakeHost, [Endpoint; 2]) {
        let mut b = GraphBuilder::new();
        let v: Vec<VertexId> = (0..12).map(|i| b.add_vertex(i as f64)).collect();
        for i in 0..12 {
            b.add_edge(v[i], v[(i + 1) % 12], 1.0).unwrap();
            b.add_edge(v[i], v[(i + 5) % 12], 2.0).unwrap();
        }
        let graph = b.build();
        let dfs = SimDfs::new();
        let (atoms, index) = build_atoms(&graph, &VertexPartition::random_hash(12, 6, 7), "graph");
        write_atoms(&dfs, "graph", &atoms, &index);
        let placement = Placement::compute(&index, 3);
        let init = load_machine_part(&dfs, &index, &placement, MachineId(me)).unwrap();
        let (_net, mut eps) = match faults {
            Some(plan) => SimNet::with_faults(3, LatencyModel::ZERO, 1, plan),
            None => SimNet::with_seed(3, LatencyModel::ZERO, 1),
        };
        let mine = eps.remove(me as usize);
        let mut config = crate::EngineConfig::new(3);
        (config.num_atoms, config.recovery, config.batch) = (6, mode, BatchPolicy::disabled());
        let setup = MachineSetup {
            dfs: Arc::new(dfs),
            index: Arc::new(index),
            placement: Arc::new(placement),
            coloring: None,
            syncs: Arc::new(Vec::new()),
            stop: None,
            initial: Arc::new(crate::InitialSchedule::AllVertices),
            config,
            counters: crate::metrics::LiveCounters::new(),
            snap_prefix: "ckpt".to_string(),
        };
        let host = FakeHost {
            core: Machine::new(mine, setup, init),
            resets: 0,
            seeded: Vec::new(),
            replayed: Vec::new(),
        };
        (host, eps.try_into().ok().expect("two other machines"))
    }

    fn env<T: Codec>(src: u16, kind: impl Into<Kind>, msg: &T) -> Envelope {
        let kind = kind.into().wire();
        Envelope { src: MachineId(src), dst: MachineId(1), kind, payload: enc(msg) }
    }

    /// `e` as from the wire: decoded once, where it is received.
    fn feed(h: &mut FakeHost, e: Envelope) -> Step {
        on_envelope(h, Kind::of(&e), e)
    }

    fn down(machine: u16, restart: bool, era: u32) -> Envelope {
        env(0, RecoveryKind::Down, &DownMsg { machine, restart, era })
    }

    /// Everything in `ep`'s inbox, as `(kind, era)` (every recovery
    /// message starts with its era).
    fn inbox(ep: &Endpoint) -> Vec<(RecoveryKind, u32)> {
        std::iter::from_fn(|| ep.try_recv().ok())
            .map(|mut e| {
                let Kind::Recovery(kind) = Kind::of(&e) else { panic!("engine traffic: {e:?}") };
                (kind, u32::decode(&mut e.payload).unwrap())
            })
            .collect()
    }

    #[test]
    fn era_bump_during_flush_wait_redrains_with_a_fresh_ready() {
        let (mut h, ep0, ep2) = cluster(RecoveryMode::Rollback, None);
        assert_eq!(feed(&mut h, down(2, true, 1)), Step::Continue);
        assert_eq!(h.core.rec.phase(), RecoveryPhase::Drain);
        assert_eq!(inbox(&ep0), [(RecoveryKind::Ready, 1)]);
        feed(&mut h, env(0, RecoveryKind::Rollback, &RollbackMsg { era: 1, snap: 0 }));
        assert_eq!(h.core.rec.phase(), RecoveryPhase::FlushWait);
        assert_eq!(inbox(&ep0), [(RecoveryKind::FlushMark, 1)]);
        assert_eq!(
            inbox(&ep2),
            [(RecoveryKind::FlushMark, 1)],
            "a restartable victim still gets the marker"
        );
        // A second failure supersedes the round: back to the drain, the
        // order forgotten, a READY for the new era on the wire.
        assert_eq!(feed(&mut h, down(2, true, 2)), Step::Continue);
        assert_eq!(h.core.rec.phase(), RecoveryPhase::Drain);
        assert_eq!(inbox(&ep0), [(RecoveryKind::Ready, 2)]);
        for src in [0, 2] {
            feed(&mut h, env(src, RecoveryKind::FlushMark, &RecoverEraMsg { era: 2 }));
        }
        assert_eq!(h.core.rec.phase(), RecoveryPhase::Drain, "era-1 order must not apply in era 2");
        assert_eq!(h.resets, 0);
    }

    /// Machine 2 dies for good under adoption; returns the host drained
    /// for era 1, the master's plan, and a vertex the host will mirror
    /// from machine 0 under it.
    fn drained_for_adoption() -> (FakeHost, Endpoint, AdoptPlanMsg, VertexId) {
        let (mut h, ep0, _ep2) = cluster(RecoveryMode::Adopt, None);
        assert_eq!(feed(&mut h, down(2, false, 1)), Step::Continue);
        assert_eq!((h.core.rec.phase(), h.core.rec.survivors()), (RecoveryPhase::Drain, 2));
        let dead = [false, false, true];
        let plan = pick_adoption(&h.core.setup, 1, &dead);
        let init = load_machine_part(&h.core.setup.dfs, &h.core.setup.index, &plan.placement, MachineId(1)).unwrap();
        let lg: LocalGraph<f64, f64> = LocalGraph::from_init(init, None);
        let ghost = (0..lg.num_local_vertices() as u32)
            .find(|&l| lg.vertex_owner(l) == MachineId(0))
            .map(|l| lg.vertex_gvid(l))
            .expect("machine 1 mirrors something of machine 0");
        (h, ep0, plan, ghost)
    }

    #[test]
    fn early_adopt_data_is_held_until_the_local_surgery_ran() {
        let (mut h, ep0, plan, ghost) = drained_for_adoption();
        feed(&mut h, env(0, RecoveryKind::AdoptPlan, &plan));
        assert_eq!(h.core.rec.phase(), RecoveryPhase::FlushWait);
        // With three or more survivors a fast peer's ghost round overtakes
        // a slow peer's marker; with two, scripting the round ahead of the
        // marker forces the same hold.
        let data = AdoptDataMsg { era: 1, vrows: vec![(ghost, enc(&42.0f64))], erows: Vec::new() };
        assert_eq!(feed(&mut h, env(0, RecoveryKind::AdoptData, &data)), Step::Continue);
        assert_eq!((h.core.rec.phase(), h.resets), (RecoveryPhase::FlushWait, 0), "held, not applied");
        feed(&mut h, env(0, RecoveryKind::FlushMark, &RecoverEraMsg { era: 1 }));
        assert_eq!(h.core.rec.phase(), RecoveryPhase::AwaitResume);
        assert_eq!((h.resets, h.core.rec.adoptions, h.core.snapshots), (1, 1, 0));
        assert_eq!(h.seeded, h.core.lg.owned_vertices(), "every owned vertex reseeded after the reset");
        assert_eq!(h.core.setup.placement.atoms_of(MachineId(2)), []);
        let l = h.core.lg.local_vertex(ghost).unwrap();
        assert_eq!(*h.core.lg.vertex_data(l), 42.0, "held rows land in the rebuilt graph");
        use RecoveryKind::*;
        let kinds: Vec<RecoveryKind> = inbox(&ep0).into_iter().map(|(k, _)| k).collect();
        assert_eq!(kinds, [Ready, FlushMark, AdoptData, Recovered]);
    }

    #[test]
    fn engine_traffic_is_discarded_then_buffered_then_replayed_in_order() {
        let (mut h, _ep0, plan, _) = drained_for_adoption();
        let work = |kind: LockKind| env(0, kind, &0u32);
        feed(&mut h, work(LockKind::Req)); // Drain: pre-drain traffic
        feed(&mut h, env(0, RecoveryKind::AdoptPlan, &plan));
        feed(&mut h, work(LockKind::ScopeData)); // FlushWait: precedes the marker
        feed(&mut h, env(0, RecoveryKind::FlushMark, &RecoverEraMsg { era: 1 }));
        assert_eq!(h.core.rec.phase(), RecoveryPhase::AdoptData);
        feed(&mut h, work(LockKind::Release));
        let data = AdoptDataMsg { era: 1, vrows: Vec::new(), erows: Vec::new() };
        feed(&mut h, env(0, RecoveryKind::AdoptData, &data));
        assert_eq!(h.core.rec.phase(), RecoveryPhase::AwaitResume);
        feed(&mut h, work(LockKind::Sched));
        feed(&mut h, work(LockKind::Quiet));
        assert_eq!(h.replayed, [], "nothing reaches the engine before the resume");
        let resume = env(0, RecoveryKind::Resume, &RecoverEraMsg { era: 1 });
        assert_eq!(feed(&mut h, resume), Step::Resumed);
        assert_eq!(h.core.rec.phase(), RecoveryPhase::Normal);
        let after_resume = [LockKind::Release, LockKind::Sched, LockKind::Quiet];
        assert_eq!(h.replayed, after_resume.map(Kind::Lock));
    }

    /// The value only a stale [`AdoptDataMsg`] carries.
    const STALE: f64 = -99.0;

    /// `kind` as `src` would send it in fault era `era`, or `None` for a
    /// kind that cannot be stale. No catch-all arm: a new recovery kind
    /// says here whether it carries an era, and if it does,
    /// [`assert_stale_is_inert`] holds it to the fence.
    fn stamped(h: &FakeHost, src: u16, kind: RecoveryKind, era: u32) -> Option<Envelope> {
        Some(match kind {
            RecoveryKind::Rollback => env(src, kind, &RollbackMsg { era, snap: 4 }),
            RecoveryKind::AdoptPlan => {
                let placement = (*h.core.setup.placement).clone();
                env(src, kind, &AdoptPlanMsg { era, dead: vec![2], placement, snap: None })
            }
            RecoveryKind::Ready
            | RecoveryKind::FlushMark
            | RecoveryKind::Recovered
            | RecoveryKind::Resume => env(src, kind, &RecoverEraMsg { era }),
            RecoveryKind::AdoptData => {
                let vrows = (0..12).map(|v| (VertexId(v), enc(&STALE))).collect();
                env(src, kind, &AdoptDataMsg { era, vrows, erows: Vec::new() })
            }
            RecoveryKind::Down => down(2, true, era),
            // From the local fabric, once per rebirth, to a tracker the
            // crash wiped back to era 0: every era is news to it.
            RecoveryKind::Up => return None,
            // Fails the run in whatever era it is read.
            RecoveryKind::Abort => return None,
            // The Batcher consumes heartbeats.
            RecoveryKind::Lease => return None,
        })
    }

    /// What a message could disturb: the tracker, what the engine saw of it
    /// and the vertex data. Ghost rounds held for the local surgery are set
    /// aside — `apply_adopt_data` checks their era when it applies them, and
    /// the vertex data then shows whether it did.
    fn observable(h: &mut FakeHost) -> String {
        let held = std::mem::take(&mut h.core.rec.adopt_early);
        let data: Vec<f64> =
            (0..h.core.lg.num_local_vertices() as u32).map(|l| *h.core.lg.vertex_data(l)).collect();
        let seen = (h.resets, &h.seeded, &h.replayed, h.core.snapshots, data);
        let all = format!("{:?} {seen:?}", h.core.rec);
        h.core.rec.adopt_early = held;
        all
    }

    /// Delivers a copy from the superseded `era` of every era-carrying
    /// recovery kind in the phase `h` is in, and asserts that none of them
    /// moved the tracker, reached the engine, was answered or took a step.
    fn assert_stale_is_inert(h: &mut FakeHost, others: [&Endpoint; 2], era: u32) {
        let (phase, src) = (h.core.rec.phase(), if h.core.rec.me == 0 { 1 } else { 0 });
        for kind in (0..=u16::MAX).filter_map(Kind::from_wire) {
            let Kind::Recovery(kind) = kind else { continue };
            let Some(stale) = stamped(h, src, kind, era) else { continue };
            let before = observable(h);
            assert_eq!(feed(h, stale), Step::Continue, "stale {kind:?} in {phase:?}");
            assert_eq!(observable(h), before, "stale {kind:?} acted on in {phase:?}");
            for ep in others {
                assert_eq!(inbox(ep), [], "stale {kind:?} answered in {phase:?}");
            }
        }
    }

    #[test]
    fn stale_era_orders_and_resumes_are_ignored() {
        let (mut h, ep0, ep2) = cluster(RecoveryMode::Adopt, None);
        let file = SnapshotFile::capture(&h.core.lg);
        let mine = h.core.setup.placement.atoms_of(MachineId(1));
        write_snapshot_atoms(&h.core.setup.dfs, "ckpt", 4, file, &h.core.lg, &mine);
        feed(&mut h, down(2, true, 2));
        assert_eq!((h.core.rec.phase(), h.core.rec.survivors()), (RecoveryPhase::Drain, 3));
        assert_eq!(inbox(&ep0), [(RecoveryKind::Ready, 2)]);
        assert_stale_is_inert(&mut h, [&ep0, &ep2], 1);
        // The current era's order goes through...
        feed(&mut h, env(0, RecoveryKind::Rollback, &RollbackMsg { era: 2, snap: 4 }));
        assert_eq!(h.core.rec.phase(), RecoveryPhase::FlushWait);
        assert_eq!([inbox(&ep0), inbox(&ep2)], [[(RecoveryKind::FlushMark, 2)]; 2]);
        assert_stale_is_inert(&mut h, [&ep0, &ep2], 1);
        for src in [0, 2] {
            feed(&mut h, env(src, RecoveryKind::FlushMark, &RecoverEraMsg { era: 2 }));
        }
        assert_eq!(h.core.rec.phase(), RecoveryPhase::AwaitResume);
        assert_eq!((h.resets, h.core.rec.recoveries, h.core.snapshots), (1, 1, 5));
        assert_eq!(inbox(&ep0), [(RecoveryKind::Recovered, 2)]);
        // ...and only the current era's resume releases the barrier.
        assert_stale_is_inert(&mut h, [&ep0, &ep2], 1);
        let current = env(0, RecoveryKind::Resume, &RecoverEraMsg { era: 2 });
        assert_eq!(feed(&mut h, current), Step::Resumed);
        assert_stale_is_inert(&mut h, [&ep0, &ep2], 1);
    }

    /// The era fence, phase by phase: an adoption round in era 2 as the
    /// master (machine 0) and as a worker (machine 1) lives it, with a copy
    /// of every era-1 message delivered after each transition.
    #[test]
    fn a_stale_copy_of_every_kind_is_inert_in_every_phase_of_an_adoption() {
        use RecoveryKind::*;
        for me in [0u16, 1] {
            let (mut h, [a, b]) = cluster_of(me, RecoveryMode::Adopt, None);
            let peer = 1 - me;
            let dead = [false, false, true];
            let plan = pick_adoption(&h.core.setup, 2, &dead);
            let now = RecoverEraMsg { era: 2 };
            let rows = AdoptDataMsg { era: 2, vrows: Vec::new(), erows: Vec::new() };
            // What the one surviving peer sends, and where it takes `h`.
            let round = [
                (down(2, false, 2), RecoveryPhase::Drain),
                match me {
                    0 => (env(peer, Ready, &now), RecoveryPhase::FlushWait),
                    _ => (env(peer, AdoptPlan, &plan), RecoveryPhase::FlushWait),
                },
                (env(peer, FlushMark, &now), RecoveryPhase::AdoptData),
                (env(peer, AdoptData, &rows), RecoveryPhase::AwaitResume),
                (env(peer, if me == 0 { Recovered } else { Resume }, &now), RecoveryPhase::Normal),
            ];
            for (msg, phase) in round {
                feed(&mut h, msg);
                assert_eq!(h.core.rec.phase(), phase, "machine {me}");
                let _the_rounds_own_sends = (inbox(&a), inbox(&b));
                assert_stale_is_inert(&mut h, [&a, &b], 1);
            }
            assert_eq!((h.core.rec.adoptions, h.core.rec.recoveries, h.resets), (1, 0, 1));
        }
    }

    #[test]
    fn permanent_self_death_exits_under_adopt_and_aborts_under_rollback() {
        let kill = || Some(FaultPlan::seeded(1).kill(1, FaultTrigger::Deliveries(0)));
        let (mut h, ..) = cluster(RecoveryMode::Adopt, kill());
        assert_eq!(on_self_death(&mut h), Step::Exit);
        assert_eq!((h.core.rec.phase(), h.resets), (RecoveryPhase::Dead, 1));
        assert_eq!(feed(&mut h, down(2, false, 2)), Step::Continue, "the dead hear nothing");
        assert_eq!(h.core.rec.survivors(), 3);

        let (mut h, ..) = cluster(RecoveryMode::Rollback, kill());
        let d = DownMsg { machine: 1, restart: false, era: 1 };
        assert_eq!(on_self_death(&mut h), Step::Abort(unrecoverable_down(&d)));
    }
}
