//! The engines' failure-recovery protocol (§4.3): one pure transition
//! function, [`RecoveryTracker::step`], and the host half that feeds it
//! and applies what it returns.
//!
//! # Failure model
//!
//! Any machine but the master may crash, as the fabric's
//! [`graphlab_net::fault::FaultPlan`] injects it or a lease expiry declares
//! it. It loses all volatile state, the fabric drops everything on the wire
//! to or from it, and every live machine gets a `K_DOWN`
//! ([`RecoveryKind::Down`]) carrying the **fault era**, the number of kills
//! so far. A restartable machine comes back empty and first sees its own
//! `K_UP` ([`RecoveryKind::Up`]) with the current era. Checkpoints and atom
//! journals on the DFS are the only durable state; permanent deaths are
//! the one fact a crash keeps.
//!
//! # The protocol
//!
//! One round per fault era, coordinated by machine 0:
//!
//! ```text
//! normal --Down--> drain --Rollback|AdoptPlan--> flush-wait --every FlushMark-->
//!   rollback: restore ------------------------------> await-resume --Resume--> normal
//!   adoption: reload + overlay --every AdoptData--^
//! any phase --own death--> dead --Up--> drain;  --Down of a newer era--> drain
//! ```
//!
//! 1. **Drain.** A machine stops its engine work, sends no engine message
//!    until the resume ([`RecoveryTracker::wire`] asserts it) and reports
//!    `Ready` to the master; a reborn machine does so on its `Up`.
//! 2. **Order.** With every survivor's `Ready` in, the master reads the
//!    DFS. If a machine is permanently dead (only under
//!    [`RecoveryMode::Adopt`]; otherwise that death aborts the run) it plans
//!    an **adoption**: the dead machines' atoms spread over the survivors,
//!    plus the latest complete checkpoint to overlay, if any. Otherwise it
//!    orders a **rollback** to the latest complete checkpoint, torn ones
//!    pruned, or aborts cleanly when there is none.
//! 3. **Flush.** A machine that has the order broadcasts the era's
//!    `FlushMark` and discards engine traffic until it holds every
//!    survivor's. A marker follows all its sender sent before its drain on
//!    the same FIFO channel, so no pre-drain engine message can surface
//!    after the restore. The dead owe no marker: the fabric drops a dead
//!    incarnation's traffic, and a reborn machine starts with an empty inbox.
//! 4. **Restore.** A rollback restores owned and ghost rows and resets
//!    versions. An adoption reloads the journals under the new placement,
//!    keeps the live rows of what the machine owned, overlays the
//!    checkpoint on adopted atoms and sends every surviving peer one
//!    `AdoptData` ghost round, empty ones too (its receipt is a barrier); a
//!    round that overtook a slower peer's marker waits for the reload. Then
//!    volatile engine state is reset and every owned vertex reseeded.
//! 5. **Resume.** Every survivor reports `Recovered`, then the master
//!    broadcasts `Resume`. Work from early resumers is buffered and
//!    replayed after it.
//!
//! Every message but `Abort` carries its era and is inert outside it.
//! Rolled-back updates re-execute (`EngineMetrics::updates` counts them:
//! Fig. 4's recomputation cost); self-stabilising programs reconverge.
//!
//! # The boundary
//!
//! `step` takes one [`Input`] (a decoded recovery message, an engine
//! envelope, a receive timeout, its own death, the master's order read
//! from the DFS) and appends the [`Output`]s to apply, in order. **The
//! transition function owns every decision; the host half owns every
//! datum and every byte**: [`on_recv`], both engines' one entry point,
//! decodes and applies, and the engine adds what [`RecoveryHost`] asks.
//! Each [`Phase`] carries its own data; what a round heard is a per-era
//! `Round` that an era bump replaces whole, noted for the current era only
//! and asked for by one question, [`RecoveryTracker::holds`]. Buffers are
//! generic, so the explorer in `recovery::tests` runs `step` over ghosts.
//! In every state it reaches:
//!
//! - no work stamped with an era before its receiver's last restore is
//!   handled or replayed; no era regresses; `step` does not panic;
//! - every machine that applies an order of an era applies the same one;
//! - once nothing can move, every live machine is normal at the cluster's
//!   era, or the master has aborted cleanly and no live machine is normal.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use graphlab_atoms::load_machine_part;
use graphlab_graph::{AtomId, MachineId};
use graphlab_net::clock;
use graphlab_net::codec::Codec;
use graphlab_net::fault::{DownMsg, UpMsg};
use graphlab_net::{Envelope, RecvError};

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
const RECOVERY_DEADLINE: Duration = Duration::from_secs(60);

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

pub(crate) use tally::{Markers, Tally};

/// In a module of its own so that nothing — this file included — can read
/// the count: a quorum is asked for, never computed.
mod tally {
    use graphlab_graph::MachineId;

    /// The locking master's votes (`coord.rs`: quiet reports, snapshot
    /// DONEs, sync partials, halt acks). Dead machines never vote, so the
    /// one question a tally answers is [`RecoveryTracker::complete`] — as
    /// many votes as survivors; it compares with nothing else, the static
    /// machine count least of all.
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

    /// The FIFO marker barriers' record — the chromatic engine's flush
    /// rounds and cycle-end votes, the locking engine's synchronous
    /// snapshot, recovery's fault eras, the quiet round: per machine, the
    /// highest round whose marker arrived from it. A marker follows
    /// everything its sender sent before it on the channel, so the one
    /// question is [`RecoveryTracker::holds`]: has every survivor's marker of a round arrived?
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

    impl<W, G> super::RecoveryTracker<W, G> {
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

/// Where a machine stands in the recovery protocol: the name of its
/// [`Phase`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecoveryPhase {
    Normal,
    Dead,
    Drain,
    FlushWait,
    AdoptData,
    AwaitResume,
}

/// Where a machine stands, with what only that phase holds. `W` is engine
/// work, `G` a ghost round's rows.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Phase<W, G> {
    /// No recovery in progress.
    Normal,
    /// Killed; waiting for the fabric restart.
    Dead,
    /// Drained and `Ready` sent; waiting for the master's order.
    Drain,
    /// Own marker out; discarding engine traffic until every survivor's
    /// marker arrived. `held`: ghost rounds of this era that overtook one.
    FlushWait { order: Order, held: Vec<G> },
    /// Adoption applied; waiting for every surviving peer's ghost round.
    /// `buffer`: engine work from machines that resumed first.
    AdoptData { buffer: Vec<W> },
    /// Restored; waiting for the master's `Resume`.
    AwaitResume { buffer: Vec<W> },
}

/// One fault era's round: the era, and from which machines its `Ready`,
/// `FlushMark`, `AdoptData` and `Recovered` arrived. An era bump replaces
/// it whole.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Round {
    era: u32,
    ready: Markers,
    marks: Markers,
    ghosts: Markers,
    recovered: Markers,
}

impl Round {
    fn new(era: u32, slots: usize) -> Self {
        let none = Markers::new(slots);
        Round { era, ready: none.clone(), marks: none.clone(), ghosts: none.clone(), recovered: none }
    }
}

/// The master's order for one fault era: roll everyone back to a
/// checkpoint, or have the survivors adopt the dead machines' atoms.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Order {
    Rollback(RollbackMsg),
    Adopt(AdoptPlanMsg),
}

impl Order {
    fn era(&self) -> u32 {
        match self {
            Order::Rollback(msg) => msg.era,
            Order::Adopt(plan) => plan.era,
        }
    }
}

/// A recovery message with its payload, decoded by the host.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Msg<G> {
    Down(DownMsg),
    Up(UpMsg),
    Ready(u32),
    Order(Order),
    FlushMark(u32),
    /// A ghost round of the era.
    AdoptData(u32, G),
    Recovered(u32),
    Resume(u32),
    Abort(RecoverAbortMsg),
}

/// What happened to the machine.
#[derive(Debug)]
pub(crate) enum Input<W, G> {
    /// A recovery message from a machine.
    Msg(MachineId, Msg<G>),
    /// An engine envelope arrived.
    Work(W),
    /// A receive timed out.
    Timeout,
    /// This machine was killed; `permanent`: no restart is scheduled.
    Died { permanent: bool },
    /// Master: the order the DFS gave for [`Output::Decide`], or the abort
    /// when a rollback has no complete checkpoint.
    Ordered(Result<Order, RecoverAbortMsg>),
}

/// What the host does, in order.
#[derive(Debug, PartialEq)]
pub(crate) enum Output<W, G> {
    /// To one machine, then flushed.
    Send(MachineId, Msg<G>),
    /// To every surviving peer, then flushed.
    Broadcast(Msg<G>),
    /// `machine` died at `era`: fence its lease, and its traffic too when
    /// the death is permanent.
    Fence { machine: u16, era: u32, permanent: bool },
    /// Master: `machine` is back at `era`; lease it afresh.
    Lease { machine: u16, era: u32 },
    /// A crash: drop queued traffic and every piece of volatile state.
    Wipe,
    /// Master: read `era`'s order from the DFS — an adoption of the `dead`
    /// machines' atoms, or (`None`) a rollback — for [`Input::Ordered`].
    Decide { era: u32, dead: Option<Vec<bool>> },
    /// Restore the checkpoint, or reload under the plan; then reset.
    Apply(Order),
    /// Send every surviving peer its ghost round of the era.
    SendGhosts(u32),
    /// Write a peer's ghost round into the graph.
    ApplyGhosts(G),
    /// Schedule every owned vertex.
    Reseed,
    /// Hand engine work to the engine, as in the normal phase.
    Replay(W),
    /// The round is over; the phase is normal again.
    Resumed,
    /// Permanently dead under [`RecoveryMode::Adopt`]: leave the run.
    Exit,
    /// Fail the run with this reason.
    Abort(String),
}

/// Per-machine recovery state shared by both distributed engines: who
/// survives, and the phase of the round in flight.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct RecoveryTracker<W = Work, G = SnapshotFile> {
    me: usize,
    mode: RecoveryMode,
    /// Completed rollbacks on this machine.
    pub recoveries: u64,
    /// Completed adoption rounds on this machine (restart-free recovery).
    pub adoptions: u64,
    /// Machines known permanently dead, one slot per machine. Every barrier
    /// counts survivors only; deaths persist across eras and crashes.
    /// Restartable kills are *not* recorded here — the round must wait for
    /// the reborn machine.
    dead: Vec<bool>,
    round: Round,
    phase: Phase<W, G>,
    /// When the phase or the era last changed (the stall deadline).
    since: Option<Instant>,
}

impl<W, G> RecoveryTracker<W, G> {
    pub(crate) fn new(me: usize, slots: usize, mode: RecoveryMode) -> Self {
        RecoveryTracker {
            me,
            mode,
            recoveries: 0,
            adoptions: 0,
            dead: vec![false; slots],
            round: Round::new(0, slots),
            phase: Phase::Normal,
            since: None,
        }
    }

    /// The phase this machine is in.
    #[inline]
    pub(crate) fn phase(&self) -> RecoveryPhase {
        match self.phase {
            Phase::Normal => RecoveryPhase::Normal,
            Phase::Dead => RecoveryPhase::Dead,
            Phase::Drain => RecoveryPhase::Drain,
            Phase::FlushWait { .. } => RecoveryPhase::FlushWait,
            Phase::AdoptData { .. } => RecoveryPhase::AdoptData,
            Phase::AwaitResume { .. } => RecoveryPhase::AwaitResume,
        }
    }

    /// The latest fault era seen (0: no fault yet).
    pub(crate) fn era(&self) -> u32 {
        self.round.era
    }

    /// `kind` as the transport takes it, checked that it may leave now.
    /// Every send asks, the engines' row sends included: a machine
    /// sends **no** engine message between its drain point and
    /// the cluster-wide resume, or the flush-marker barrier would not be a
    /// barrier — everything after a machine's drain is recovery control.
    pub(crate) fn wire(&self, kind: impl Into<Kind>) -> u16 {
        let kind = kind.into();
        debug_assert!(
            matches!(self.phase, Phase::Normal) || matches!(kind, Kind::Recovery(_)),
            "engine message {} sent during recovery phase {:?}",
            kind.name(),
            self.phase()
        );
        kind.wire()
    }

    /// Number of machines still alive. Private: a barrier asks
    /// [`Self::complete`], [`Self::all_survivors`] or [`Self::peers`].
    fn survivors(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Every surviving machine but this one, ascending: whom a broadcast
    /// reaches and who owes this machine a reply.
    pub(crate) fn peers(&self) -> impl Iterator<Item = MachineId> + '_ {
        (0..self.dead.len()).filter(|&j| j != self.me && !self.dead[j]).map(MachineId::from)
    }

    /// Whether `holds` of every surviving machine, this one included (the
    /// dead owe nothing).
    pub(crate) fn all_survivors(&self, mut holds: impl FnMut(usize) -> bool) -> bool {
        (0..self.dead.len()).all(|j| self.dead[j] || holds(j))
    }

    /// The transition function (module docs, "The boundary"): `input`
    /// taken at `now`, then every step it makes possible; `out` ends with
    /// [`Output::Abort`] or [`Output::Exit`] when the run is over here.
    pub(crate) fn step(&mut self, input: Input<W, G>, now: Instant, out: &mut Vec<Output<W, G>>) {
        let was = (self.phase(), self.round.era);
        match input {
            Input::Msg(src, msg) => self.on_msg(src, msg, out),
            Input::Work(w) => match &mut self.phase {
                Phase::Normal => out.push(Output::Replay(w)),
                // Post-recovery work of an early resumer.
                Phase::AdoptData { buffer } | Phase::AwaitResume { buffer } => buffer.push(w),
                // It precedes its sender's marker, and the restore wipes
                // whatever it would change; a crash loses it.
                Phase::Dead | Phase::Drain | Phase::FlushWait { .. } => {}
            },
            Input::Timeout => {}
            Input::Died { permanent } => self.die(permanent, out),
            Input::Ordered(Ok(order)) => {
                out.push(Output::Broadcast(Msg::Order(order.clone())));
                self.order(order, out);
            }
            Input::Ordered(Err(abort)) => {
                out.push(Output::Broadcast(Msg::Abort(abort.clone())));
                out.push(Output::Abort(abort.reason));
            }
        }
        if matches!(out.last(), Some(Output::Abort(_) | Output::Exit)) {
            return;
        }
        self.advance(out);
        if (self.phase(), self.round.era) != was {
            self.since = Some(now);
        } else if self.phase() != RecoveryPhase::Normal
            && self.since.is_some_and(|t| now - t > RECOVERY_DEADLINE)
        {
            let (phase, era, me) = (self.phase(), self.round.era, self.me);
            let why = format!("recovery stalled in {phase:?} at fault era {era} (machine {me}, {:?})", self.round);
            out.push(Output::Abort(why));
        }
    }

    fn on_msg(&mut self, src: MachineId, msg: Msg<G>, out: &mut Vec<Output<W, G>>) {
        let (era, master) = (self.round.era, self.me == 0);
        match msg {
            Msg::Up(u) => {
                debug_assert_eq!(u.machine as usize, self.me, "K_UP reaches the reborn machine only");
                if !matches!(self.phase, Phase::Dead) {
                    // The dead window passed while this machine was busy on
                    // its pre-crash backlog: complete the crash now.
                    out.push(Output::Wipe);
                }
                self.drain(u.era.max(era), out);
            }
            // The dead hear nothing but their rebirth: a crash loses the
            // pre-crash backlog.
            _ if matches!(self.phase, Phase::Dead) => {}
            // The fabric's wake-up for a victim blocked in `recv`.
            Msg::Down(d) if d.machine as usize == self.me => self.die(!d.restart, out),
            Msg::Down(d) => {
                // Fenced for every kind of death: a restartable victim is
                // silent through its dead window and must not be
                // re-declared by lease expiry (its `Ready` lifts the fence).
                out.push(Output::Fence { machine: d.machine, era: d.era, permanent: !d.restart });
                if !d.restart {
                    if self.mode != RecoveryMode::Adopt {
                        return out.push(Output::Abort(unrecoverable_down(&d)));
                    }
                    self.dead[d.machine as usize] = true;
                }
                if d.era > era {
                    self.drain(d.era, out);
                }
            }
            Msg::Ready(e) if master => {
                // The fabric tells only the reborn machine it is up; its
                // `Ready` is the master's cue to lease it afresh.
                out.push(Output::Lease { machine: src.0, era: e });
                // A peer heard of a death first; its `Down` is on the way.
                if e > era {
                    self.drain(e, out);
                }
                if e == self.round.era {
                    self.round.ready.note(src, e.into());
                }
            }
            Msg::Order(order) => self.order(order, out),
            Msg::FlushMark(e) if e == era => self.round.marks.note(src, e.into()),
            Msg::AdoptData(e, rows) if e == era => match &mut self.phase {
                // Our own reload has not run yet: hold the rows.
                Phase::FlushWait { held, .. } => {
                    self.round.ghosts.note(src, e.into());
                    held.push(rows);
                }
                Phase::AdoptData { .. } => {
                    self.round.ghosts.note(src, e.into());
                    out.push(Output::ApplyGhosts(rows));
                }
                // A peer applies only after our marker, which leaves with
                // our order: a round already completed.
                _ => {}
            },
            Msg::Recovered(e) if master && e == era => self.round.recovered.note(src, e.into()),
            Msg::Resume(e) if e == era => {
                if let Phase::AwaitResume { buffer } = &mut self.phase {
                    let buffer = std::mem::take(buffer);
                    self.resume(buffer, out);
                }
            }
            Msg::Abort(abort) => out.push(Output::Abort(abort.reason)),
            // Superseded eras, and what only the master hears.
            Msg::Ready(_)
            | Msg::FlushMark(_)
            | Msg::AdoptData(..)
            | Msg::Recovered(_)
            | Msg::Resume(_) => {}
        }
    }

    /// Killed: everything volatile goes, permanent deaths excepted. With
    /// no restart scheduled the machine leaves the run, cleanly under
    /// adoption; otherwise the run fails (survivors abort on their own
    /// `Down` in parallel).
    fn die(&mut self, permanent: bool, out: &mut Vec<Output<W, G>>) {
        if matches!(self.phase, Phase::Dead) {
            return;
        }
        if permanent && self.mode != RecoveryMode::Adopt {
            // The kill itself advanced the era past the last one seen here.
            let d = DownMsg { machine: self.me as u16, restart: false, era: self.round.era + 1 };
            return out.push(Output::Abort(unrecoverable_down(&d)));
        }
        out.push(Output::Wipe);
        self.phase = Phase::Dead;
        if permanent {
            out.push(Output::Exit);
        }
    }

    /// A new round, for `era`: stop engine work and tell the master.
    fn drain(&mut self, era: u32, out: &mut Vec<Output<W, G>>) {
        self.round = Round::new(era, self.dead.len());
        self.phase = Phase::Drain;
        if self.me != 0 {
            out.push(Output::Send(MachineId(0), Msg::Ready(era)));
        }
    }

    /// The order received, or on the master issued: this era's marker out,
    /// then flush-wait. The order's era and dead set are authoritative: a
    /// reborn machine may have missed `Down`s.
    fn order(&mut self, order: Order, out: &mut Vec<Output<W, G>>) {
        let era = order.era();
        if era < self.round.era {
            return;
        }
        if era > self.round.era {
            self.round = Round::new(era, self.dead.len());
        }
        if let Order::Adopt(plan) = &order {
            for &machine in &plan.dead {
                self.dead[machine as usize] = true;
                out.push(Output::Fence { machine, era, permanent: true });
            }
        }
        out.push(Output::Broadcast(Msg::FlushMark(era)));
        self.phase = Phase::FlushWait { order, held: Vec::new() };
    }

    /// Progress that no single message carries, taken until none applies:
    /// the master's order once every `Ready` is in, the order applied once
    /// every marker is, the resume joined once every ghost round is, and
    /// the master's resume once every `Recovered` is.
    fn advance(&mut self, out: &mut Vec<Output<W, G>>) {
        let (era, master) = (self.round.era, self.me == 0);
        loop {
            let due = match self.phase {
                Phase::Drain => master && self.holds(&self.round.ready, era.into()),
                Phase::FlushWait { .. } => self.holds(&self.round.marks, era.into()),
                Phase::AdoptData { .. } => self.holds(&self.round.ghosts, era.into()),
                Phase::AwaitResume { .. } => master && self.holds(&self.round.recovered, era.into()),
                Phase::Normal | Phase::Dead => false,
            };
            if !due {
                return;
            }
            match std::mem::replace(&mut self.phase, Phase::Drain) {
                Phase::FlushWait { order: Order::Rollback(msg), .. } => {
                    out.push(Output::Apply(Order::Rollback(msg)));
                    self.recoveries += 1;
                    self.join(Vec::new(), out);
                }
                Phase::FlushWait { order: Order::Adopt(plan), held } => {
                    out.extend([Output::Apply(Order::Adopt(plan)), Output::SendGhosts(era)]);
                    out.extend(held.into_iter().map(Output::ApplyGhosts));
                    self.phase = Phase::AdoptData { buffer: Vec::new() };
                }
                Phase::AdoptData { buffer } => {
                    self.adoptions += 1;
                    self.join(buffer, out);
                }
                Phase::AwaitResume { buffer } => {
                    out.push(Output::Broadcast(Msg::Resume(era)));
                    return self.resume(buffer, out);
                }
                phase => {
                    self.phase = phase;
                    let dead = self.dead.contains(&true).then(|| self.dead.clone());
                    return out.push(Output::Decide { era, dead });
                }
            }
        }
    }

    /// Data in place: reseed (adopted data may lag live data; re-execution
    /// reconverges) and wait at the `Recovered`/`Resume` barrier, which
    /// keeps post-recovery work from racing ahead of machines still
    /// restoring.
    fn join(&mut self, buffer: Vec<W>, out: &mut Vec<Output<W, G>>) {
        out.push(Output::Reseed);
        if self.me != 0 {
            out.push(Output::Send(MachineId(0), Msg::Recovered(self.round.era)));
        }
        self.phase = Phase::AwaitResume { buffer };
    }

    /// Back to normal, replaying buffered work in arrival order.
    fn resume(&mut self, buffer: Vec<W>, out: &mut Vec<Output<W, G>>) {
        self.phase = Phase::Normal;
        out.extend(buffer.into_iter().map(Output::Replay));
        out.push(Output::Resumed);
    }
}

// ---- the host half ----

/// Engine work as the host holds it: an envelope, decoded as its kind where
/// it was received.
pub(crate) type Work = (Kind, Envelope);

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
    /// received, as in the normal phase (traffic buffered for the resume).
    fn replay(&mut self, kind: Kind, env: Envelope);
}

/// What the engine loop does after feeding the machine one event.
#[derive(Debug, PartialEq)]
pub(crate) enum Step {
    /// Keep receiving.
    Continue,
    /// The round completed; the phase is Normal again.
    Resumed,
    /// Permanently dead under [`RecoveryMode::Adopt`]: leave the run
    /// cleanly with no rows to report (the survivors adopt our atoms).
    Exit,
    /// Unrecoverable: fail the run cleanly with this reason.
    Abort(String),
}

/// The engines' one way into recovery: what a receive returned, an
/// envelope decoded as its kind where it was received — every recovery
/// envelope, any envelope or timeout during a round, and `MachineDown`.
pub(crate) fn on_recv<H: RecoveryHost>(h: &mut H, got: Result<Work, RecvError>) -> Step {
    let input = match got {
        Ok((Kind::Recovery(kind), env)) => Input::Msg(env.src, decode(kind, env.payload)),
        Ok(work) => Input::Work(work),
        Err(RecvError::Timeout) => Input::Timeout,
        Err(RecvError::MachineDown) => {
            Input::Died { permanent: h.machine().net.self_death() == Some(false) }
        }
        Err(RecvError::Disconnected) => return Step::Abort("fabric disconnected".into()),
    };
    let mut next = Some(input);
    let mut out = Vec::new();
    while let Some(input) = next.take() {
        let rec = &mut h.machine().rec;
        let was = (rec.phase(), rec.era());
        rec.step(input, clock::now(), &mut out);
        if (rec.phase(), rec.era()) != was {
            tr!("[m{}] RECOVERY {:?} era={}", rec.me, rec.phase(), rec.era());
        }
        for output in out.drain(..) {
            if let Some(step) = apply(h, output, &mut next) {
                return step;
            }
        }
    }
    Step::Continue
}

fn decode(kind: RecoveryKind, p: Bytes) -> Msg<SnapshotFile> {
    let era = |p| dec::<RecoverEraMsg>(p).era;
    match kind {
        RecoveryKind::Down => Msg::Down(dec(p)),
        RecoveryKind::Up => Msg::Up(dec(p)),
        RecoveryKind::Lease => unreachable!("the Batcher consumes lease heartbeats"),
        RecoveryKind::Ready => Msg::Ready(era(p)),
        RecoveryKind::Rollback => Msg::Order(Order::Rollback(dec(p))),
        RecoveryKind::AdoptPlan => Msg::Order(Order::Adopt(dec(p))),
        RecoveryKind::FlushMark => Msg::FlushMark(era(p)),
        RecoveryKind::AdoptData => {
            let msg: AdoptDataMsg = dec(p);
            Msg::AdoptData(msg.era, msg.rows)
        }
        RecoveryKind::Recovered => Msg::Recovered(era(p)),
        RecoveryKind::Resume => Msg::Resume(era(p)),
        RecoveryKind::Abort => Msg::Abort(dec(p)),
    }
}

fn encode(msg: Msg<SnapshotFile>) -> (RecoveryKind, Bytes) {
    let era = |era| enc(&RecoverEraMsg { era });
    match msg {
        Msg::Ready(e) => (RecoveryKind::Ready, era(e)),
        Msg::Order(Order::Rollback(msg)) => (RecoveryKind::Rollback, enc(&msg)),
        Msg::Order(Order::Adopt(plan)) => (RecoveryKind::AdoptPlan, enc(&plan)),
        Msg::FlushMark(e) => (RecoveryKind::FlushMark, era(e)),
        Msg::Recovered(e) => (RecoveryKind::Recovered, era(e)),
        Msg::Resume(e) => (RecoveryKind::Resume, era(e)),
        Msg::Abort(abort) => (RecoveryKind::Abort, enc(&abort)),
        Msg::Down(_) | Msg::Up(_) | Msg::AdoptData(..) => {
            unreachable!("the fabric's notices and the ghost rounds are not sent through `step`")
        }
    }
}

/// Applies one output; `Some` when it ends the event. A master's order
/// read from the DFS is left in `next` for the tracker.
fn apply<H: RecoveryHost>(
    h: &mut H,
    output: Output<Work, SnapshotFile>,
    next: &mut Option<Input<Work, SnapshotFile>>,
) -> Option<Step> {
    let m = h.machine();
    match output {
        Output::Send(dst, msg) => {
            let (kind, payload) = encode(msg);
            m.send(dst, kind, payload);
            m.net.flush_all();
        }
        Output::Broadcast(msg) => {
            let (kind, payload) = encode(msg);
            m.broadcast(kind, &payload);
            m.net.flush_all();
        }
        Output::Fence { machine, era, permanent } => {
            m.net.lease_note_death(machine, era);
            if permanent {
                m.net.fence(machine);
            }
        }
        Output::Lease { machine, era } => m.net.lease_note_up(machine, era),
        Output::Wipe => {
            m.net.clear();
            reset_engine_state(h);
        }
        Output::Decide { era, dead } => {
            let order = match dead {
                Some(dead) => Ok(Order::Adopt(pick_adoption(&m.setup, era, &dead))),
                None => pick_rollback(&m.setup, era).map(Order::Rollback),
            };
            *next = Some(Input::Ordered(order));
        }
        Output::Apply(Order::Rollback(msg)) => {
            let (dfs, prefix) = (&m.setup.dfs, &m.setup.snap_prefix);
            if let Err(e) = restore_into_local(dfs, prefix, msg.snap, &mut m.lg) {
                let why = format!("checkpoint {} unreadable during rollback: {e}", msg.snap);
                return Some(Step::Abort(why));
            }
            m.snapshots = msg.snap + 1;
            reset_engine_state(h);
        }
        Output::Apply(Order::Adopt(plan)) => {
            if let Err(why) = adopt(m, plan) {
                return Some(Step::Abort(why));
            }
            reset_engine_state(h);
        }
        Output::SendGhosts(era) => send_ghosts(m, era),
        Output::ApplyGhosts(rows) => {
            if let Err(e) = apply_file(rows, &mut m.lg) {
                return Some(Step::Abort(format!("ghost round unreadable during adoption: {e}")));
            }
        }
        Output::Reseed => {
            for l in m.lg.owned_vertices().to_vec() {
                h.reseed(l);
            }
        }
        Output::Replay((kind, env)) => h.replay(kind, env),
        Output::Resumed => return Some(Step::Resumed),
        Output::Exit => return Some(Step::Exit),
        Output::Abort(why) => return Some(Step::Abort(why)),
    }
    None
}

/// All volatile state below the tracker: the machine's share, then the
/// engine's.
fn reset_engine_state<H: RecoveryHost>(h: &mut H) {
    h.machine().reset_engine_state();
    h.reset_engine_state();
}

/// The latest checkpoint complete in every part (one per atom in the
/// engines' per-atom layout), torn ones newer than it pruned.
fn latest_checkpoint<V, E>(s: &MachineSetup<V, E>) -> Option<u64> {
    let latest = latest_complete_snapshot(&s.dfs, &s.snap_prefix, s.config.num_atoms);
    prune_snapshots_after(&s.dfs, &s.snap_prefix, latest);
    latest
}

/// Master, all READYs in: prunes torn checkpoints and picks the rollback
/// target. `Err` is the abort to broadcast (no complete checkpoint —
/// nothing to roll back to).
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
/// the re-balanced placement (dead machines' atoms LPT-spread over
/// survivors) plus the latest complete per-atom checkpoint to overlay, if
/// any (`None` degrades to journal-only adoption: adopted vertices restart
/// from ingress-initial data and reconverge through re-scheduling —
/// adoption never *requires* checkpoints the way rollback does).
fn pick_adoption<V, E>(s: &MachineSetup<V, E>, era: u32, dead: &[bool]) -> AdoptPlanMsg {
    AdoptPlanMsg {
        era,
        dead: (0..dead.len()).filter(|&m| dead[m]).map(|m| m as u16).collect(),
        placement: s.placement.adopt(&s.index, dead),
        snap: latest_checkpoint(s),
    }
}

/// Restart-free recovery (the §3 elasticity claim made concrete): rebuild
/// this machine under the adopted placement without rolling the cluster
/// back. Own atoms keep their *live* data; adopted atoms overlay the
/// latest complete per-atom checkpoint when one exists (journal-only
/// otherwise — ingress-initial data reconverges through re-scheduling).
fn adopt<V: Codec, E: Codec>(m: &mut Machine<V, E>, plan: AdoptPlanMsg) -> Result<(), String> {
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
    let init = load_machine_part(&m.setup.dfs, &m.setup.index, &plan.placement, me)
        .map_err(|e| format!("adoption reload failed on machine {}: {e}", me.0))?;
    m.lg = LocalGraph::from_init(init, m.setup.coloring.as_deref());
    m.setup.placement = Arc::new(plan.placement);
    // Own rows keep their live values...
    apply_file(live, &mut m.lg).map_err(|e| format!("live data re-apply failed during adoption: {e}"))?;
    // ...and adopted rows overlay from the checkpoint, when one exists.
    if let (Some(snap), false) = (plan.snap, adopted.is_empty()) {
        let (dfs, prefix) = (&m.setup.dfs, &m.setup.snap_prefix);
        restore_atoms_into_local(dfs, prefix, snap, &adopted, &mut m.lg)
            .map_err(|e| format!("checkpoint {snap} unreadable during adoption: {e}"))?;
    }
    // Journal-only adoption restarts the snapshot ids from 0.
    m.snapshots = plan.snap.map_or(0, |s| s + 1);
    Ok(())
}

/// Sends exactly one [`RecoveryKind::AdoptData`] to every surviving peer —
/// even when empty, so receipt of the round is a per-channel barrier —
/// carrying the owned vertex rows mirrored on that peer and the owned edge
/// rows replicated there.
fn send_ghosts<V: Codec, E: Codec>(m: &mut Machine<V, E>, era: u32) {
    let (me, lg) = (m.me(), &m.lg);
    let mut files = vec![SnapshotFile::default(); m.slots()];
    for &l in lg.owned_vertices() {
        if lg.vertex_mirrors(l).is_empty() {
            continue;
        }
        let row = (lg.vertex_gvid(l), enc(lg.vertex_data(l)));
        for mm in lg.vertex_mirrors(l) {
            files[mm.index()].vrows.push(row.clone());
        }
    }
    for l in (0..lg.num_local_edges() as u32).filter(|&l| lg.owns_edge(l)) {
        let (s, d) = lg.edge_endpoints_local(l);
        let (ms, md) = (lg.vertex_owner(s), lg.vertex_owner(d));
        let other = if ms == me { md } else { ms };
        if other != me {
            files[other.index()].erows.push((lg.edge_geid(l), enc(lg.edge_data(l))));
        }
    }
    let kind = m.rec.wire(RecoveryKind::AdoptData);
    for dst in m.rec.peers() {
        let rows = std::mem::take(&mut files[dst.index()]);
        m.net.send(dst, kind, enc(&AdoptDataMsg { era, rows }));
    }
    m.net.flush_all();
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- the transition function alone ----

    /// A tracker whose work and ghost rounds are bare numbers.
    type Bare = RecoveryTracker<u32, u32>;

    fn feed_bare(t: &mut Bare, input: Input<u32, u32>) -> Vec<Output<u32, u32>> {
        let mut out = Vec::new();
        t.step(input, clock::now(), &mut out);
        out
    }

    fn msg(t: &mut Bare, src: u16, msg: Msg<u32>) -> Vec<Output<u32, u32>> {
        feed_bare(t, Input::Msg(MachineId(src), msg))
    }

    fn down_of(machine: u16, restart: bool, era: u32) -> Msg<u32> {
        Msg::Down(DownMsg { machine, restart, era })
    }

    fn rollback(era: u32) -> Order {
        Order::Rollback(RollbackMsg { era, snap: 0 })
    }

    #[test]
    fn era_advance_resets_collection() {
        let mut t = Bare::new(0, 3, RecoveryMode::Rollback);
        msg(&mut t, 2, down_of(2, true, 1));
        msg(&mut t, 1, Msg::Ready(1));
        let out = msg(&mut t, 2, Msg::Ready(1));
        assert_eq!(out.last(), Some(&Output::Decide { era: 1, dead: None }), "every READY in");
        // A second failure restarts the round: the era-1 READYs are gone.
        msg(&mut t, 2, down_of(2, true, 2));
        assert_eq!((t.phase(), t.era()), (RecoveryPhase::Drain, 2));
        let out = msg(&mut t, 1, Msg::Ready(2));
        assert!(!out.iter().any(|o| matches!(o, Output::Decide { .. })), "machine 2 owes a READY");
        let out = msg(&mut t, 2, down_of(2, true, 2));
        assert!(!out.iter().any(|o| matches!(o, Output::Decide { .. })), "the same era twice is no news");
        let out = msg(&mut t, 2, down_of(2, true, 1));
        assert!(!out.iter().any(|o| matches!(o, Output::Decide { .. })), "a stale era is no news");
        assert_eq!(t.era(), 2);
    }

    #[test]
    fn stale_control_is_ignored() {
        let mut t = Bare::new(1, 3, RecoveryMode::Rollback);
        msg(&mut t, 2, down_of(2, true, 3));
        msg(&mut t, 0, Msg::Order(rollback(3)));
        assert_eq!(t.phase(), RecoveryPhase::FlushWait);
        msg(&mut t, 0, Msg::FlushMark(2)); // stale era
        msg(&mut t, 2, Msg::FlushMark(3));
        assert_eq!(t.phase(), RecoveryPhase::FlushWait, "the stale marker is not machine 0's");
        let out = msg(&mut t, 0, Msg::FlushMark(3));
        assert_eq!(t.phase(), RecoveryPhase::AwaitResume, "own channel needs no marker");
        assert_eq!(out[0], Output::Apply(rollback(3)));
        let out = msg(&mut t, 0, Msg::Resume(2));
        assert_eq!((out, t.phase()), (vec![], RecoveryPhase::AwaitResume), "stale resume");
    }

    #[test]
    fn dead_machines_drop_out_of_every_barrier() {
        let mut t = Bare::new(0, 4, RecoveryMode::Adopt);
        msg(&mut t, 2, down_of(2, false, 1));
        assert_eq!((t.dead.as_slice(), t.survivors()), ([false, false, true, false].as_slice(), 3));
        assert!(msg(&mut t, 1, Msg::Ready(1)).iter().all(|o| !matches!(o, Output::Decide { .. })));
        let dead = Some(vec![false, false, true, false]);
        let out = msg(&mut t, 3, Msg::Ready(1));
        assert_eq!(out.last(), Some(&Output::Decide { era: 1, dead }), "the dead owe no READY");
        let placement = graphlab_atoms::Placement::round_robin(4, 4);
        let plan = AdoptPlanMsg { era: 1, dead: vec![2], placement, snap: None };
        feed_bare(&mut t, Input::Ordered(Ok(Order::Adopt(plan))));
        for src in [1, 3] {
            msg(&mut t, src, Msg::FlushMark(1));
        }
        assert_eq!(t.phase(), RecoveryPhase::AdoptData, "no marker expected from the dead");
        for src in [1, 3] {
            msg(&mut t, src, Msg::AdoptData(1, src.into()));
        }
        msg(&mut t, 1, Msg::Recovered(1));
        let out = msg(&mut t, 3, Msg::Recovered(1));
        assert_eq!(out.last(), Some(&Output::Resumed), "resume releases at 3 survivors");
        // Deaths persist across eras; what a round heard does not.
        msg(&mut t, 1, down_of(1, true, 2));
        assert!(t.dead[2]);
        let out = msg(&mut t, 3, Msg::Ready(2));
        assert!(!out.iter().any(|o| matches!(o, Output::Decide { .. })), "machine 1 owes a READY");
        assert_eq!((t.adoptions, t.recoveries), (1, 0));
    }

    #[test]
    fn resume_barrier_counts_current_era_only() {
        let mut t = Bare::new(0, 2, RecoveryMode::Rollback);
        msg(&mut t, 1, down_of(1, true, 1));
        msg(&mut t, 1, Msg::Ready(1));
        feed_bare(&mut t, Input::Ordered(Ok(rollback(1))));
        msg(&mut t, 1, Msg::FlushMark(1));
        assert_eq!((t.phase(), t.recoveries), (RecoveryPhase::AwaitResume, 1));
        assert_eq!(msg(&mut t, 1, Msg::Recovered(0)), [], "stale era not counted");
        let out = msg(&mut t, 1, Msg::Recovered(1));
        assert_eq!(out, [Output::Broadcast(Msg::Resume(1)), Output::Resumed]);
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
        (config.num_atoms, config.recovery, config.batch) = (6, mode, BatchPolicy::Disabled);
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
        on_recv(h, Ok((Kind::of(&e), e)))
    }

    fn down(machine: u16, restart: bool, era: u32) -> Envelope {
        env(0, RecoveryKind::Down, &DownMsg { machine, restart, era })
    }

    /// A ghost round of `era` carrying `vrows`.
    fn ghosts(era: u32, vrows: Vec<(VertexId, Bytes)>) -> AdoptDataMsg {
        AdoptDataMsg { era, rows: SnapshotFile { vrows, erows: Vec::new() } }
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
        let data = ghosts(1, vec![(ghost, enc(&42.0f64))]);
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
    fn a_corrupt_ghost_round_fails_the_run_cleanly() {
        let (mut h, _ep0, plan, ghost) = drained_for_adoption();
        feed(&mut h, env(0, RecoveryKind::AdoptPlan, &plan));
        feed(&mut h, env(0, RecoveryKind::FlushMark, &RecoverEraMsg { era: 1 }));
        assert_eq!(h.core.rec.phase(), RecoveryPhase::AdoptData);
        // One byte where an `f64` takes eight.
        let torn = ghosts(1, vec![(ghost, Bytes::from_static(b"\x01"))]);
        let step = feed(&mut h, env(0, RecoveryKind::AdoptData, &torn));
        assert_eq!(
            step,
            Step::Abort("ghost round unreadable during adoption: corrupt vertex blob".into())
        );
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
        feed(&mut h, env(0, RecoveryKind::AdoptData, &ghosts(1, Vec::new())));
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
                env(src, kind, &ghosts(era, vrows))
            }
            RecoveryKind::Down => down(2, true, era),
            // From the local fabric, once per rebirth: every rebirth opens
            // a round of its own.
            RecoveryKind::Up => return None,
            // Fails the run in whatever era it is read.
            RecoveryKind::Abort => return None,
            // The Batcher consumes heartbeats.
            RecoveryKind::Lease => return None,
        })
    }

    /// What a message could disturb: the tracker (held ghost rounds
    /// included), what the engine saw of it and the vertex data.
    fn observable(h: &FakeHost) -> String {
        let data: Vec<f64> =
            (0..h.core.lg.num_local_vertices() as u32).map(|l| *h.core.lg.vertex_data(l)).collect();
        let seen = (h.resets, &h.seeded, &h.replayed, h.core.snapshots, data);
        format!("{:?} {seen:?}", h.core.rec)
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
            let rows = ghosts(2, Vec::new());
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
        assert_eq!(on_recv(&mut h, Err(RecvError::MachineDown)), Step::Exit);
        assert_eq!((h.core.rec.phase(), h.resets), (RecoveryPhase::Dead, 1));
        assert_eq!(feed(&mut h, down(2, false, 2)), Step::Continue, "the dead hear nothing");
        assert_eq!(h.core.rec.survivors(), 3);

        let (mut h, ..) = cluster(RecoveryMode::Rollback, kill());
        let d = DownMsg { machine: 1, restart: false, era: 1 };
        assert_eq!(on_recv(&mut h, Err(RecvError::MachineDown)), Step::Abort(unrecoverable_down(&d)));
    }

    mod explorer {
        //! An exhaustive explorer (`crate::explore`) over 2 and 3 machines'
        //! [`RecoveryTracker`]s, every FIFO interleaving of per-ordered-pair
        //! channels, under both [`RecoveryMode`]s. The master is never killed;
        //! at most two kills of workers come at any point, each restartable or,
        //! under `Adopt`, permanent. A kill drops the victim's traffic in
        //! flight both ways and puts a `Down` on its channel to every live
        //! machine, so the `Down` reaches each of them before anything of the
        //! victim's next incarnation and otherwise interleaves freely (the
        //! fabric's guarantee as `graphlab_net::fault` states it). The victim
        //! learns of its death whenever it next receives, or never, if its
        //! restart comes first; a restart, any time after the kill, hands it its
        //! `Up`. The master's order is explored with and without a complete
        //! checkpoint (under `Adopt` the answer is only the plan's overlay,
        //! which the protocol never reads). Up to two units of engine work, each
        //! stamped with its sender's era, leave machines in the normal phase;
        //! ghost rounds are stamped with theirs. The invariants are the module
        //! docs'; a violation prints the shortest schedule as a literal that
        //! [`replay`] takes.

        use std::collections::VecDeque;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        use graphlab_atoms::Placement;

        use super::super::*;
        use crate::explore;

        use Act::*;
        use RecoveryMode::{Adopt, Rollback};

        /// The era a unit of work or a ghost round was sent in.
        type Stamp = u32;

        type Tracker = RecoveryTracker<Stamp, Stamp>;

        /// What a channel carries.
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        enum Wire {
            Msg(Msg<Stamp>),
            Work(Stamp),
        }

        /// A machine as the fabric sees it.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum Life {
            Alive,
            /// Killed; `noticed` once its own death was fed to it.
            Dead { restart: bool, noticed: bool },
            /// Its run is over: `Exit`, or (`true`) `Abort`.
            Ended(bool),
        }

        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct Node {
            rec: Tracker,
            life: Life,
            /// The era of its last restore (rollback or adoption applied).
            restored: u32,
        }

        /// The cluster: machines, channels (`src * n + dst`), the fabric era,
        /// the budgets left, and each era's order as first applied (its era
        /// and dead set).
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        pub(super) struct World {
            nodes: Vec<Node>,
            chans: Vec<VecDeque<Wire>>,
            era: u32,
            kills: u8,
            sends: u8,
            orders: Vec<(u32, Vec<u16>)>,
        }

        /// One step of a schedule.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub(super) enum Act {
            /// Deliver the head of channel `src → dst`; `false`: an order the
            /// master reads from the DFS finds no complete checkpoint.
            Deliver(usize, usize, bool),
            /// Kill worker `i`; `true`: for good.
            Kill(usize, bool),
            /// Killed machine `i` receives and learns it is dead.
            Notice(usize),
            Restart(usize),
            /// Machine `i` sends a unit of engine work to machine `j`.
            Work(usize, usize),
        }

        #[derive(Clone, Copy, Debug)]
        pub(super) struct Bounds {
            pub n: usize,
            pub mode: RecoveryMode,
            pub kills: u8,
            pub sends: u8,
        }

        impl Bounds {
            pub fn new(n: usize, mode: RecoveryMode) -> Self {
                Bounds { n, mode, kills: 2, sends: 2 }
            }
        }

        /// The bounds and the one instant every step is taken at: no stall
        /// deadline ever passes, so a state only a timer would leave is stuck.
        pub(super) struct Model {
            b: Bounds,
            now: Instant,
        }

        impl Model {
            pub fn new(b: Bounds) -> Self {
                Model { b, now: clock::now() }
            }

            /// `wire` onto channel `src → dst`, unless the fabric drops it:
            /// `dst` is dead.
            fn send(&self, w: &mut World, src: usize, dst: usize, wire: Wire) {
                if w.nodes[dst].life == Life::Alive {
                    w.chans[src * self.b.n + dst].push_back(wire);
                }
            }

            /// `input` fed to machine `i` and its outputs applied, the way
            /// `on_recv` applies them, invariants checked. `true`: the master
            /// read a rollback order from the DFS.
            fn feed(
                &self,
                w: &mut World,
                i: usize,
                input: Input<Stamp, Stamp>,
                checkpoint: bool,
            ) -> Result<bool, String> {
                let (mut next, mut decided) = (Some(input), false);
                while let Some(input) = next.take() {
                    let mut out = Vec::new();
                    let era = w.nodes[i].rec.era();
                    let rec = &mut w.nodes[i].rec;
                    let what = format!("{input:?}");
                    catch_unwind(AssertUnwindSafe(|| rec.step(input, self.now, &mut out)))
                        .map_err(|_| format!("m{i} panicked on {what}"))?;
                    if w.nodes[i].rec.era() < era {
                        return Err(format!("m{i}'s era regressed from {era} on {what}"));
                    }
                    for output in out {
                        let node = &w.nodes[i];
                        match output {
                            Output::Send(dst, msg) => self.send(w, i, dst.index(), Wire::Msg(msg)),
                            Output::Broadcast(msg) => {
                                for dst in node.rec.peers().collect::<Vec<_>>() {
                                    self.send(w, i, dst.index(), Wire::Msg(msg.clone()));
                                }
                            }
                            Output::SendGhosts(era) => {
                                for dst in node.rec.peers().collect::<Vec<_>>() {
                                    self.send(w, i, dst.index(), Wire::Msg(Msg::AdoptData(era, era)));
                                }
                            }
                            Output::Decide { era, dead } => {
                                decided = dead.is_none();
                                next = Some(Input::Ordered(match dead {
                                    Some(dead) => Ok(Order::Adopt(AdoptPlanMsg {
                                        era,
                                        dead: (0..dead.len()).filter(|&m| dead[m]).map(|m| m as u16).collect(),
                                        placement: Placement::round_robin(1, 1),
                                        snap: None,
                                    })),
                                    None if checkpoint => Ok(Order::Rollback(RollbackMsg { era, snap: 0 })),
                                    None => Err(RecoverAbortMsg { era, reason: "no checkpoint".into() }),
                                }));
                            }
                            Output::Apply(order) => {
                                let (era, dead) = match order {
                                    Order::Rollback(msg) => (msg.era, Vec::new()),
                                    Order::Adopt(plan) => (plan.era, plan.dead),
                                };
                                w.nodes[i].restored = era;
                                match w.orders.iter().find(|(e, _)| *e == era) {
                                    Some((_, first)) if *first != dead => {
                                        return Err(format!(
                                            "m{i} applied era {era}'s order with dead {dead:?}, \
                                             another machine with {first:?}"
                                        ));
                                    }
                                    Some(_) => {}
                                    None => w.orders.push((era, dead)),
                                }
                            }
                            Output::ApplyGhosts(stamp) | Output::Replay(stamp)
                                if stamp < node.restored =>
                            {
                                return Err(format!(
                                    "m{i} took work or ghost rows of era {stamp} after restoring at \
                                     era {}",
                                    node.restored
                                ));
                            }
                            Output::Exit | Output::Abort(_) => {
                                w.nodes[i].life = Life::Ended(matches!(output, Output::Abort(_)));
                                return Ok(decided);
                            }
                            Output::Fence { .. }
                            | Output::Lease { .. }
                            | Output::Wipe
                            | Output::ApplyGhosts(_)
                            | Output::Replay(_)
                            | Output::Reseed
                            | Output::Resumed => {}
                        }
                    }
                }
                Ok(decided)
            }

            /// `act` taken in `w`; the flag: the master read a rollback order.
            fn take(&self, w: &World, act: Act) -> Result<(World, bool), String> {
                let (mut w, n) = (w.clone(), self.b.n);
                let decided = match act {
                    Deliver(src, dst, checkpoint) => {
                        let wire = w.chans[src * n + dst].pop_front().expect("an empty channel delivered");
                        let input = match wire {
                            Wire::Msg(msg) => Input::Msg(MachineId(src as u16), msg),
                            Wire::Work(stamp) => Input::Work(stamp),
                        };
                        self.feed(&mut w, dst, input, checkpoint)?
                    }
                    Kill(v, permanent) => {
                        w.kills -= 1;
                        w.era += 1;
                        w.nodes[v].life = Life::Dead { restart: !permanent, noticed: false };
                        for j in 0..n {
                            // The victim's inbox goes; a `Down` already handed
                            // to a survivor stays.
                            w.chans[j * n + v].clear();
                            w.chans[v * n + j].retain(|wire| matches!(wire, Wire::Msg(Msg::Down(_))));
                            if j != v {
                                let down = DownMsg { machine: v as u16, restart: !permanent, era: w.era };
                                self.send(&mut w, v, j, Wire::Msg(Msg::Down(down)));
                            }
                        }
                        false
                    }
                    Notice(v) => {
                        let Life::Dead { restart, .. } = w.nodes[v].life else { unreachable!() };
                        w.nodes[v].life = Life::Dead { restart, noticed: true };
                        self.feed(&mut w, v, Input::Died { permanent: !restart }, true)?
                    }
                    Restart(v) => {
                        w.nodes[v].life = Life::Alive;
                        let up = UpMsg { machine: v as u16, era: w.era };
                        self.feed(&mut w, v, Input::Msg(MachineId(v as u16), Msg::Up(up)), true)?
                    }
                    Work(i, j) => {
                        w.sends -= 1;
                        let stamp = w.nodes[i].rec.era();
                        self.send(&mut w, i, j, Wire::Work(stamp));
                        false
                    }
                };
                Ok((w, decided))
            }
        }

        /// Whether `act` is progress the cluster will make on its own.
        fn progress(act: &Act) -> bool {
            matches!(act, Deliver(..) | Notice(_) | Restart(_))
        }

        impl explore::Model for Model {
            type State = World;
            type Act = Act;

            fn start(&self) -> World {
                let n = self.b.n;
                let node = |i| Node { rec: Tracker::new(i, n, self.b.mode), life: Life::Alive, restored: 0 };
                World {
                    nodes: (0..n).map(node).collect(),
                    chans: vec![VecDeque::new(); n * n],
                    era: 0,
                    kills: self.b.kills,
                    sends: self.b.sends,
                    orders: Vec::new(),
                }
            }

            fn enabled(&self, w: &World) -> Vec<Act> {
                let n = self.b.n;
                let mut acts = Vec::new();
                for (c, chan) in w.chans.iter().enumerate() {
                    if !chan.is_empty() && w.nodes[c % n].life == Life::Alive {
                        acts.push(Deliver(c / n, c % n, true));
                    }
                }
                for (i, node) in w.nodes.iter().enumerate() {
                    match node.life {
                        Life::Alive if node.rec.phase() == RecoveryPhase::Normal && w.sends > 0 => {
                            acts.extend((0..n).filter(|&j| j != i).map(|j| Work(i, j)));
                        }
                        Life::Dead { noticed: false, .. } => acts.push(Notice(i)),
                        _ => {}
                    }
                    if let Life::Dead { restart: true, .. } = node.life {
                        acts.push(Restart(i));
                    }
                    if i > 0 && node.life == Life::Alive && w.kills > 0 {
                        acts.push(Kill(i, false));
                        if self.b.mode == Adopt {
                            acts.push(Kill(i, true));
                        }
                    }
                }
                acts
            }

            fn apply(&self, w: &World, act: Act) -> Result<(World, Option<Act>), String> {
                let (next, decided) = self.take(w, act)?;
                Ok((next, match act {
                    Deliver(src, dst, true) if decided => Some(Deliver(src, dst, false)),
                    _ => None,
                }))
            }

            /// Quiescence: every live machine normal at the cluster's era, or
            /// the master's clean abort with no live machine normal.
            fn check(&self, w: &World) -> Result<(), String> {
                if self.enabled(w).iter().any(progress) {
                    return Ok(());
                }
                let live = || w.nodes.iter().filter(|node| node.life == Life::Alive);
                let settled = live().all(|node| {
                    node.rec.phase() == RecoveryPhase::Normal && node.rec.era() == w.era
                }) && !w.nodes.iter().any(|node| node.life == Life::Ended(true));
                let aborted = w.nodes[0].life == Life::Ended(true)
                    && live().all(|node| node.rec.phase() != RecoveryPhase::Normal);
                if settled || aborted {
                    return Ok(());
                }
                let state: Vec<_> =
                    w.nodes.iter().map(|node| (node.life, node.rec.phase(), node.rec.era())).collect();
                Err(format!("stuck at era {}: {state:?}", w.era))
            }

            fn plain(&self, act: Act) -> Act {
                match act {
                    Deliver(src, dst, _) => Deliver(src, dst, true),
                    act => act,
                }
            }
        }

        pub(super) fn replay(b: Bounds, schedule: &[Act]) -> World {
            explore::replay(&Model::new(b), schedule)
        }

        // Each schedule below was printed by the explorer, and is replayed
        // against the code as it is: every step enabled, nothing violated.

        /// Resume only once every survivor's `FlushMark` is in. Mutation:
        /// make the `FlushWait` arm of `advance` due at once, without
        /// `holds(..)`. Then machine 1 restores on the order itself, and
        /// machine 2's work of era 0, sent before its drain, is replayed
        /// after the resume (16 steps). Here that work reaches machine 1
        /// still in flush-wait, which discards it.
        #[test]
        fn replay_work_ahead_of_a_peers_flush_mark() {
            let schedule = [
                Kill(1, false),
                Deliver(1, 0, true),
                Restart(1),
                Deliver(1, 0, true),
                Work(2, 1),
                Deliver(1, 2, true),
                Deliver(2, 0, true),
                Deliver(0, 1, true),
                Deliver(0, 1, true),
                Deliver(0, 2, true),
                Deliver(1, 0, true),
                Deliver(2, 1, true),
            ];
            let w = replay(Bounds::new(3, Rollback), &schedule);
            let m1 = &w.nodes[1];
            assert_eq!((m1.rec.phase(), m1.restored), (RecoveryPhase::FlushWait, 0));
            assert_eq!(w.chans[2 * 3 + 1], [Wire::Msg(Msg::FlushMark(1))]);
        }

        /// A finding: machine 2's `Ready` reaches the master ahead of the
        /// victim's `Down`, which the fabric model allows. A master that
        /// drops a `Ready` of an era it has not seen then waits for it
        /// forever (stuck, 6 steps). SimNet puts a `Down` in every inbox
        /// at once, and a lease's `Down` comes from the master itself, so
        /// neither reaches it; the master now drains on such a `Ready`.
        #[test]
        fn replay_a_ready_ahead_of_the_masters_down() {
            let schedule = [
                Kill(1, false),
                Deliver(1, 2, true),
                Deliver(2, 0, true),
                Deliver(1, 0, true),
                Restart(1),
                Deliver(1, 0, true),
            ];
            let w = replay(Bounds::new(3, Rollback), &schedule);
            assert_eq!((w.nodes[0].rec.phase(), w.nodes[0].rec.era()), (RecoveryPhase::FlushWait, 1));
        }

        /// A finding: the master aborts (no complete checkpoint), the
        /// `Abort` in flight dies with machine 1's second kill, and reborn
        /// machine 1 drains for a master that has left. Only the stall
        /// deadline ends its run (6 steps); quiescence counts that wait as
        /// the clean abort it ends in.
        #[test]
        fn replay_a_kill_after_the_masters_abort() {
            let schedule = [
                Kill(1, false),
                Deliver(1, 0, true),
                Restart(1),
                Deliver(1, 0, false),
                Kill(1, false),
                Restart(1),
            ];
            let w = replay(Bounds::new(2, Rollback), &schedule);
            assert_eq!(w.nodes[0].life, Life::Ended(true));
            let m1 = &w.nodes[1];
            assert_eq!((m1.life, m1.rec.phase(), m1.rec.era()), (Life::Alive, RecoveryPhase::Drain, 2));
        }

        #[test]
        fn the_explorer_finds_no_violation_on_two_and_three_machines() {
            let began = clock::now();
            let mut states = 0;
            for n in [2, 3] {
                for mode in [Rollback, Adopt] {
                    let b = Bounds::new(n, mode);
                    let seen = explore::explore(&Model::new(b), b);
                    println!("{b:?}: {seen} states");
                    states += seen;
                }
            }
            println!("recovery explorer: {states} states in {:.1} s", (clock::now() - began).as_secs_f64());
        }
    }
}
