//! The locking engine's coordination (§4.2.2, §4.3) as one pure
//! transition function: termination by the quiet round, both snapshot
//! modes, background sync epochs and the halt.
//!
//! [`Coord::step`] takes one [`Input`] and the machine's
//! [`RecoveryTracker`], which it asks only whether every survivor has
//! answered a round (`holds`), and appends the [`Output`]s the engine
//! applies, in order.
//! **This module owns every decision; [`crate::locking`] owns every datum
//! and every byte**: the sync accumulators, the saved rows, the graph,
//! the `UpdNote` pacing, every encode and decode. Every barrier here, the
//! master's four votes included, is a `Markers` noted at the round a
//! message answers and asked with `holds`, `crate::recovery`'s rule.
//! `holds` skips the asker, so the master reads its own vote from its own
//! state; its votes, reports and broadcasts are transitions inside `step`,
//! so it decides on the pass its own vote lands.
//!
//! # Termination: the quiet round
//!
//! The run is over when every machine is idle (scheduler, pipeline and
//! ready list empty) and no work is in flight. §4.2.2 evaluates
//! this "using the distributed consensus algorithm described in
//! \[Misra 83\]", which counts nothing: it runs markers over FIFO
//! channels, as every other barrier here does (`recovery::Markers`).
//! Quiet round `k`:
//!
//! - the idle master broadcasts `Quiet(k)` ([`LockKind::Quiet`]); every
//!   other machine broadcasts its own on the first one it receives, but
//!   only once it is idle — a busy machine defers, so the round waits
//!   instead of polling;
//! - a machine is *dirty* if work ([`LockKind::is_counted_work`]) reaches
//!   it after it sent its own marker and before it holds every survivor's;
//! - holding every survivor's, it reports `(k, clean)` to the master
//!   ([`LockKind::QuietReport`]). If every report is clean the master goes
//!   on to the final sync and `Halt`; otherwise it starts round `k + 1`
//!   once it is idle again.
//!
//! Master triggers count as work ("Coordination" below). A death needs
//! nothing of its own: recovery discards the pre-drain traffic,
//! [`Coord::reset`] abandons the round everywhere, and the master opens a
//! fresh one once it is idle after the resume. On a lone survivor the
//! round has no peers and completes at once.
//!
//! **Why a clean round is sound.** Suppose every report of round `k` was
//! clean, and take the first counted message any machine sent after its
//! own marker. Its sender was idle when it sent the marker, so something
//! woke it: a counted message it received after its marker. That message
//! was sent earlier, so before its own sender's marker; by FIFO it arrived
//! ahead of that marker, so its receiver got it after its own marker and
//! before it held every survivor's — the receiver was dirty, which
//! contradicts the clean reports. So no machine sent work after its
//! marker, every machine was idle at its marker, and all work sent before
//! a marker reached its receiver before the receiver's own: the cluster is
//! quiescent.
//!
//! # Coordination
//!
//! Where the master stands in its protocols is one [`Round`]; where a
//! machine stands in a snapshot is one [`Part`]. Their transitions:
//!
//! - `Round` (master): `Idle → Quiet → Idle` (dirty) or `→ Halt` (clean);
//!   `Idle → Snapshot → Idle` once every survivor's part is written.
//!   `Halt` runs the final sync first when syncs are configured, then waits
//!   for the acks. A clean quiet round is the one way into it. A stop
//!   predicate or an update cap only makes the engine stop taking tasks on
//!   every machine, so the chains in flight finish and a later round comes
//!   out clean.
//! - `Part`: `Idle → Cut → Idle`, in either snapshot mode, from the first
//!   `SnapStart` a machine receives (the master: `SnapshotDue`) until it
//!   holds every survivor's; its part written is one `SnapDone` vote.
//!
//! # The cut, in both snapshot modes
//!
//! `SnapStart(id)` is the marker, and every channel is FIFO. A machine's
//! part starts at the first one it receives: before it sends anything else
//! it saves every owned row (`Output::Save`), broadcasts its own
//! `SnapStart(id)` and enters `Part::Cut(id, markers)`. A write-back from
//! a peer whose marker has not arrived yet ([`Coord::pre_cut`]) is pre-cut:
//! the engine saves the row again once it is applied, behind the first
//! copy, and restore applies a file's rows in order, so the last one wins.
//! Holding every survivor's marker, the machine writes its part
//! (`Output::Write`) and votes `SnapDone`. The cut is consistent under edge
//! and full consistency:
//!
//! - a post-cut write reaches a machine only behind its sender's marker, so
//!   after that machine's capture;
//! - a pre-cut writer holds a lock on the datum's vertex until the
//!   `Release` that carries the write, so no post-cut write lands between
//!   the capture and the re-save;
//! - a pre-cut update never reads post-cut data: any `ScopeData` a hop
//!   sends after its capture follows its marker, so the requester captures
//!   before that update runs.
//!
//! The synchronous mode (§4.3: suspend, flush, save, resume) is this cut
//! taken while paused: `Output::Pause` before the save, `Output::Resume`
//! after the write, so no new lock chain starts on a machine between its
//! capture and its part written, and each machine resumes on its own. The
//! argument above does not rest on the pause; the chains in flight at the
//! capture finish under the same rule. The pause keeps the paper's cost
//! model: every machine waits for the slowest peer's marker before it
//! starts new work, so a straggler stalls a synchronous snapshot.
//!
//! A trigger is work (a snapshot wakes machines with no counted message):
//! a quiet round or a snapshot starts only from `Idle`, a quiet round only
//! with no sync epoch out, and no sync epoch starts during a quiet round or
//! the halt. One overlap is allowed: a sync epoch runs beside a snapshot
//! (it is not in the enum), since its partials read the graph as it stands
//! and carry no work. A stop that epoch decides needs nothing of its own:
//! no quiet round opens beside a snapshot, so the run halts only after
//! that snapshot is written.
//!
//! # The chromatic cycle end has no master, and needs no state machine
//!
//! `ChromaticMachine::cycle_end_round` does not fit this `Input` alphabet,
//! and needs none of it. It is one all-to-all round that every machine
//! enters at the end of every colour cycle, not protocols running beside
//! the work: each machine broadcasts its `SyncPartialMsg` and, holding
//! every survivor's, decides with one pure function of them all (globals
//! folded in machine-id order, halt, next checkpoint), so every machine
//! decides alike and nothing is sent back. Termination there is a count
//! (`SyncPartialMsg::pending`, summed) taken at a global barrier, so
//! "counted work arrived" and a pass's `idle` mean nothing; the step
//! barrier is already held when a cycle ends, so a checkpoint needs no
//! markers of its own, no vote and no resume; and sync, halt
//! and checkpoint are one decision per cycle, where the locking master runs
//! three protocols that overlap.
//!
//! `coord::tests` checks all of this by exhaustive search (its docs).
//!
//! [`LockKind::Quiet`]: crate::messages::LockKind::Quiet
//! [`LockKind::QuietReport`]: crate::messages::LockKind::QuietReport
//! [`LockKind::is_counted_work`]: crate::messages::LockKind::is_counted_work

use graphlab_graph::MachineId;

use crate::config::SnapshotMode;
use crate::recovery::{Markers, RecoveryTracker};

/// The machine that runs the master's half of every protocol.
const MASTER: MachineId = MachineId(0);

/// The final sync's epoch: finalizing it ends the run.
pub(crate) const FINAL: u64 = u64::MAX;

/// Where a machine stands in the quiet round (module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Quiet {
    /// Round `k` reported here, or none started yet (`Done(0)`).
    Done(u64),
    /// Round `k` reached this machine; its own marker waits until it is
    /// idle.
    Owed(u64),
    /// Its own marker of round `k` is out; `true` once work arrived since.
    Sent(u64, bool),
}

/// The master's round in flight (module docs, "Coordination").
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Round {
    /// None: a quiet round or a snapshot may start.
    Idle,
    /// A quiet round: the reports got, each at its round `k`, and whether
    /// every one was clean.
    Quiet { reports: Markers, clean: bool },
    /// Snapshot `id`: the `SnapDone` votes, each at `id` (`SnapDone`
    /// carries no id).
    Snapshot { id: u64, votes: Markers },
    /// The run ends: the final sync's epoch is out (`None`), then `Halt`'s
    /// acks at [`FINAL`].
    Halt { acks: Option<Markers> },
}

/// The control half of this machine's part of the snapshot in flight
/// (module docs, "Coordination"); its data is the engine's.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Part {
    /// None in flight, or this machine's part is written.
    Idle,
    /// Snapshot `id`: owned rows saved and its own marker out, with the
    /// survivors' `SnapStart(id)` held so far (module docs, "The cut").
    Cut(u64, Markers),
}

/// A control-plane `LockKind` with its payload, decoded by the engine.
/// `SyncPart`'s partials stay with the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Msg {
    Quiet(u64),
    QuietReport(u64, bool),
    Halt,
    HaltAck,
    SyncReq(u64),
    SyncPart(u64),
    SnapStart(u64),
    SnapDone,
}

/// What happened to the machine.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Input {
    /// A coordination message from a machine.
    Msg(MachineId, Msg),
    /// Counted work arrived.
    Work,
    /// A loop pass ended. `idle`: nothing scheduled, queued, in the
    /// pipeline or ready.
    Pass { idle: bool },
    /// Master: this many updates are known executed cluster-wide; a sync
    /// epoch is due once they reach the cadence's next mark.
    SyncDue(u64),
    /// Master: snapshot `id` is due; fed only while
    /// [`Coord::may_snapshot`].
    SnapshotDue(u64),
}

/// What the engine does, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Output {
    Send(MachineId, Msg),
    /// To every surviving peer.
    Broadcast(Msg),
    /// No new lock chain starts until `Resume`.
    Pause,
    Resume,
    /// Save every owned row into the checkpoint writer. It changes no datum
    /// and no version, so the ghost-cache table stays true.
    Save,
    /// Write the saved rows as this machine's part of checkpoint `id`.
    Write(u64),
    /// This machine's partials of epoch `e`: a worker sends them, the
    /// master keeps them as its own.
    Partials(u64),
    /// Master: fold every survivor's partials of epoch `e` in machine-id
    /// order, finalize them and broadcast the globals.
    Finalize(u64),
    /// This machine's run is over.
    Halt,
}

/// One machine's coordination state (module docs).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Coord {
    me: MachineId,
    /// One per machine, the dead included: a `Markers`' size.
    slots: usize,
    mode: SnapshotMode,
    /// Updates between sync epochs (`Some(0)`: the final sync only; `None`:
    /// no sync configured).
    sync_every: Option<u64>,
    pub(crate) quiet: Quiet,
    pub(crate) quiet_marks: Markers,
    pub(crate) part: Part,
    /// Master: the round in flight; the sync epochs opened, the cadence's
    /// next mark, and the epoch out with the partials got at it.
    pub(crate) round: Round,
    sync_epoch: u64,
    sync_next_at: u64,
    sync: Option<(u64, Markers)>,
}

impl Coord {
    pub(crate) fn new(
        me: MachineId,
        slots: usize,
        mode: SnapshotMode,
        sync_every: Option<u64>,
    ) -> Self {
        Coord {
            me,
            slots,
            mode,
            sync_every,
            quiet: Quiet::Done(0),
            quiet_marks: Markers::new(slots),
            part: Part::Idle,
            round: Round::Idle,
            sync_epoch: 0,
            sync_next_at: sync_every.unwrap_or(0),
            sync: None,
        }
    }

    /// Abandons every protocol in flight (a crash, a rollback, an
    /// adoption); the sync cadence restarts from `updates`.
    pub(crate) fn reset(&mut self, updates: u64) {
        let sync_epoch = self.sync_epoch;
        *self = Coord { sync_epoch, ..Coord::new(self.me, self.slots, self.mode, self.sync_every) };
        self.sync_next_at += updates;
    }

    /// Master: whether a snapshot may start now. Asked before the
    /// snapshot window is consumed, which restarts it.
    pub(crate) fn may_snapshot(&self) -> bool {
        self.round == Round::Idle
    }

    /// The transition function. Inlined, so that the data plane's
    /// `Input::Work` is one comparison.
    #[inline]
    pub(crate) fn step(&mut self, input: Input, rec: &RecoveryTracker, out: &mut Vec<Output>) {
        match input {
            Input::Work => {
                if let Quiet::Sent(k, _) = self.quiet {
                    self.quiet = Quiet::Sent(k, true);
                }
            }
            Input::Msg(src, msg) => self.on_msg(src, msg, rec, out),
            Input::Pass { idle } => self.pass(idle, rec, out),
            Input::SyncDue(updates) => self.sync_due(updates, rec, out),
            Input::SnapshotDue(id) => self.start_snapshot(id, rec, out),
        }
    }

    /// Whether a write-back from `src` is pre-cut: this machine's part is
    /// open and `src`'s marker has not arrived. The engine saves such a row
    /// again once it is applied (module docs, "The cut").
    #[inline]
    pub(crate) fn pre_cut(&self, src: MachineId) -> bool {
        matches!(&self.part, Part::Cut(id, marks) if marks.next(src) <= *id)
    }

    fn on_msg(&mut self, src: MachineId, msg: Msg, rec: &RecoveryTracker, out: &mut Vec<Output>) {
        match msg {
            // This machine's own marker waits for a pass, which sees
            // whatever work arrived ahead of this one.
            Msg::Quiet(k) => {
                self.quiet_marks.note(src, k);
                let (Quiet::Done(seen) | Quiet::Owed(seen) | Quiet::Sent(seen, _)) = self.quiet;
                if k > seen {
                    self.quiet = Quiet::Owed(k);
                }
            }
            Msg::QuietReport(k, clean) => self.collect_quiet(src, k, clean, rec, out),
            Msg::Halt => out.extend([Output::Send(MASTER, Msg::HaltAck), Output::Halt]),
            Msg::HaltAck => {
                let Round::Halt { acks: Some(acks) } = &mut self.round else {
                    unreachable!("an ack of no halt")
                };
                acks.note(src, FINAL);
                if rec.holds(acks, FINAL) {
                    out.push(Output::Halt);
                }
            }
            Msg::SyncReq(e) => out.push(Output::Partials(e)),
            // A partial of an abandoned epoch is stale.
            Msg::SyncPart(e) if self.sync.as_ref().is_some_and(|(open, _)| *open == e) => {
                self.collect_partials(src, rec, out)
            }
            Msg::SyncPart(_) => {}
            Msg::SnapStart(id) => self.marker(src, id, rec, out),
            Msg::SnapDone => self.collect_snap(src, rec),
        }
    }

    /// A vote or report for the master: sent, or — on the master — taken
    /// at once, so that it decides on the pass its own vote lands (an idle
    /// master has nothing else to wake it).
    fn vote(&mut self, msg: Msg, rec: &RecoveryTracker, out: &mut Vec<Output>) {
        match self.me {
            MASTER => self.on_msg(MASTER, msg, rec, out),
            _ => out.push(Output::Send(MASTER, msg)),
        }
    }

    /// The end of a loop pass: the quiet round's local steps — an idle
    /// master opens a round, an idle machine sends the marker it owes, and
    /// one that holds every survivor's marker reports. Taken until none
    /// applies: the master's own report can end a dirty round, which an
    /// idle master follows with the next at once.
    fn pass(&mut self, idle: bool, rec: &RecoveryTracker, out: &mut Vec<Output>) {
        loop {
            match self.quiet {
                Quiet::Done(last)
                    if idle
                        && self.me == MASTER
                        && self.round == Round::Idle
                        && self.sync.is_none() =>
                {
                    self.round = Round::Quiet { reports: Markers::new(self.slots), clean: true };
                    self.quiet = Quiet::Owed(last + 1);
                }
                Quiet::Owed(k) if idle => {
                    out.push(Output::Broadcast(Msg::Quiet(k)));
                    self.quiet = Quiet::Sent(k, false);
                }
                Quiet::Sent(k, dirty) if rec.holds(&self.quiet_marks, k) => {
                    self.quiet = Quiet::Done(k);
                    self.vote(Msg::QuietReport(k, !dirty), rec, out);
                }
                _ => return,
            }
        }
    }

    /// Master: `src`'s verdict on round `k`, the one in flight. Once every
    /// survivor's is in, its own too, the run ends if all were clean — with
    /// syncs configured the final sync first, so that every machine halts
    /// holding the final globals; otherwise the next round opens when the
    /// master is idle again.
    fn collect_quiet(
        &mut self,
        src: MachineId,
        k: u64,
        clean: bool,
        rec: &RecoveryTracker,
        out: &mut Vec<Output>,
    ) {
        debug_assert!(
            matches!(self.quiet, Quiet::Done(r) | Quiet::Owed(r) | Quiet::Sent(r, _) if r == k)
        );
        let Round::Quiet { reports, clean: all } = &mut self.round else {
            unreachable!("a report of no round")
        };
        reports.note(src, k);
        *all &= clean;
        if self.quiet != Quiet::Done(k) || !rec.holds(reports, k) {
            return;
        }
        let clean = *all;
        self.round = Round::Idle;
        if clean && self.sync_every.is_none() {
            self.halt(rec, out);
        } else if clean {
            self.round = Round::Halt { acks: None };
            self.open_epoch(FINAL, rec, out);
        }
    }

    /// Master: `Halt` out; the run is over here once every survivor acked.
    fn halt(&mut self, rec: &RecoveryTracker, out: &mut Vec<Output>) {
        let acks = Markers::new(self.slots);
        out.push(Output::Broadcast(Msg::Halt));
        if rec.holds(&acks, FINAL) {
            out.push(Output::Halt);
        }
        self.round = Round::Halt { acks: Some(acks) };
    }

    /// Master: a background epoch, beside a snapshot but never during a
    /// quiet round or the halt (a trigger is work).
    fn sync_due(&mut self, updates: u64, rec: &RecoveryTracker, out: &mut Vec<Output>) {
        let every = self.sync_every.unwrap_or(0);
        if every > 0
            && self.sync.is_none()
            && matches!(self.round, Round::Idle | Round::Snapshot { .. })
            && updates >= self.sync_next_at
        {
            self.sync_next_at = updates + every;
            self.sync_epoch += 1;
            self.open_epoch(self.sync_epoch, rec, out);
        }
    }

    /// Master: epoch `e` out to every peer, this machine's own partials in.
    fn open_epoch(&mut self, e: u64, rec: &RecoveryTracker, out: &mut Vec<Output>) {
        self.sync = Some((e, Markers::new(self.slots)));
        out.extend([Output::Broadcast(Msg::SyncReq(e)), Output::Partials(e)]);
        self.collect_partials(MASTER, rec, out);
    }

    /// Master: `src`'s partials of the open epoch are in; the epoch is
    /// finalized once every survivor's are, and the final one ends the run.
    fn collect_partials(&mut self, src: MachineId, rec: &RecoveryTracker, out: &mut Vec<Output>) {
        let Some((e, got)) = &mut self.sync else { unreachable!("partials of no epoch") };
        got.note(src, *e);
        if rec.holds(got, *e) {
            out.push(Output::Finalize(*e));
            if self.sync.take().is_some_and(|(e, _)| e == FINAL) {
                self.halt(rec, out);
            }
        }
    }

    /// Master: snapshot `id` begun here, its marker out to every peer.
    fn start_snapshot(&mut self, id: u64, rec: &RecoveryTracker, out: &mut Vec<Output>) {
        debug_assert!(self.may_snapshot(), "a snapshot beside a round");
        self.round = Round::Snapshot { id, votes: Markers::new(self.slots) };
        self.marker(MASTER, id, rec, out);
    }

    /// `src`'s marker of snapshot `id` (the master's own at `SnapshotDue`).
    /// The first one starts this machine's part: new chains paused under
    /// synchronous snapshots, its owned rows saved and its own marker out
    /// before it sends anything else. Holding every survivor's, it writes
    /// the part, resumes and votes.
    fn marker(&mut self, src: MachineId, id: u64, rec: &RecoveryTracker, out: &mut Vec<Output>) {
        let paused = self.mode == SnapshotMode::Synchronous;
        if self.part == Part::Idle {
            if paused {
                out.push(Output::Pause);
            }
            out.extend([Output::Save, Output::Broadcast(Msg::SnapStart(id))]);
            self.part = Part::Cut(id, Markers::new(self.slots));
        }
        let Part::Cut(at, marks) = &mut self.part else { unreachable!("no part open") };
        debug_assert_eq!(*at, id, "a marker of another snapshot");
        marks.note(src, id);
        if rec.holds(marks, id) {
            self.part = Part::Idle;
            out.push(Output::Write(id));
            if paused {
                out.push(Output::Resume);
            }
            self.vote(Msg::SnapDone, rec, out);
        }
    }

    /// Master: `src` wrote its part. Once every survivor's part is written,
    /// the master's too, the snapshot is over.
    fn collect_snap(&mut self, src: MachineId, rec: &RecoveryTracker) {
        let Round::Snapshot { id, votes } = &mut self.round else {
            unreachable!("a vote of no snapshot")
        };
        votes.note(src, *id);
        if self.part == Part::Idle && rec.holds(votes, *id) {
            self.round = Round::Idle;
        }
    }
}

#[cfg(test)]
mod tests {
    //! An exhaustive explorer: breadth-first over every interleaving of
    //! `n` machines' [`Coord`]s that per-channel FIFO permits, with a ghost
    //! workload in place of the engine. Each machine may hold one task; a
    //! task that runs may send one counted `Sched` to a peer (a shared
    //! budget), never while its machine is paused. Under synchronous
    //! snapshots that send is a lock chain's release: `Run(i, Some(j))`
    //! starts the chain and `Commit(i)` releases it, and a machine with a
    //! chain in flight is not idle, so a paused part meets chains still to
    //! release, which finish under the cut's rule (elsewhere the two are one
    //! act, which keeps the explorer's state count down). The master's sync and
    //! snapshot triggers fire within their own budgets. A stop predicate or
    //! an update cap only takes tasks away, which `Run(i, None)` already
    //! does. After each action on a machine, that machine runs one loop
    //! pass; nothing else wakes it (no timer). In every state reached:
    //!
    //! - a halt finds no task anywhere and no counted message in flight;
    //! - no sync epoch is open beside a quiet round;
    //! - the cut, in both snapshot modes: counted work sent after its
    //!   sender's capture is not delivered before its receiver's, and work
    //!   sent before it is delivered before its receiver writes its part
    //!   (what the engine saves again);
    //! - under synchronous snapshots, a machine is paused from its capture
    //!   until its part is written, and only then;
    //! - each worker sends exactly one `SnapDone` per snapshot;
    //! - a halt finds every snapshot part written;
    //! - `step` does not panic;
    //! - no stuck state: with no delivery, task or write left to take,
    //!   every machine has halted — anything else is a wake-up only the
    //!   engine's 500 ms idle backstop would give.
    //!
    //! A violation fails with the shortest schedule that reaches it, as a
    //! literal the replay tests below take.

    use std::collections::VecDeque;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::explore;

    use Act::*;
    use SnapshotMode::{Asynchronous, Synchronous};
    use crate::config::RecoveryMode;

    /// What a channel carries: a coordination message, or counted work
    /// stamped with the captures its sender had taken.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Wire {
        Ctl(Msg),
        Work(u8),
    }

    /// A machine: its coordination and the ghost of its engine.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Node {
        coord: Coord,
        task: bool,
        /// The peer its lock chain in flight releases work to.
        chain: Option<usize>,
        paused: bool,
        halted: bool,
        /// Captures taken (`Output::Save`), and `SnapDone`s sent.
        cuts: u8,
        done: u8,
    }

    /// The cluster: machines, channels (`src * n + dst`), the budgets
    /// left, and the master's snapshots started and closed.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct World {
        nodes: Vec<Node>,
        chans: Vec<VecDeque<Wire>>,
        sends: u8,
        sync_dues: u8,
        snap_dues: u8,
        started: u8,
        closed: u8,
    }

    /// One step of a schedule.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Act {
        /// Deliver the head of channel `src → dst`.
        Deliver(usize, usize),
        /// The same with no pass after it: the engine drains its inbox
        /// before a pass, so this needs another message for `dst` behind.
        Drain(usize, usize),
        /// Machine `i` runs its task, sending counted work to a peer —
        /// under synchronous snapshots, starting a chain that sends it.
        Run(usize, Option<usize>),
        /// Machine `i`'s chain in flight releases: its counted work leaves.
        Commit(usize),
        /// The master's sync cadence is due.
        SyncDue,
        SnapshotDue,
    }

    /// How far the explorer looks.
    #[derive(Clone, Copy, Debug)]
    struct Bounds {
        n: usize,
        mode: SnapshotMode,
        syncs: bool,
        sends: u8,
        sync_dues: u8,
        snap_dues: u8,
    }

    impl Bounds {
        /// Three counted sends, two sync dues (syncs on) and two snapshot
        /// dues (snapshots on).
        fn new(n: usize, mode: SnapshotMode, syncs: bool) -> Self {
            let (sync_dues, snap_dues) =
                (2 * u8::from(syncs), 2 * u8::from(mode != SnapshotMode::None));
            Bounds { n, mode, syncs, sends: 3, sync_dues, snap_dues }
        }
    }

    /// The bounds and the trackers (no machine dies, so they stay out of
    /// the state).
    struct Model {
        b: Bounds,
        recs: Vec<RecoveryTracker>,
    }

    impl Model {
        fn new(b: Bounds) -> Self {
            let recs = (0..b.n).map(|i| RecoveryTracker::new(i, b.n, RecoveryMode::Rollback)).collect();
            Model { b, recs }
        }

        /// `act` taken in `w`, then a pass of the machine it acted on;
        /// `Err` names the invariant broken.
        fn take(&self, w: &World, act: Act) -> Result<World, String> {
            let (mut w, n) = (w.clone(), self.b.n);
            let (i, input) = match act {
                Deliver(src, dst) | Drain(src, dst) => {
                    let wire =
                        w.chans[src * n + dst].pop_front().expect("an empty channel delivered");
                    if w.nodes[dst].halted {
                        return Ok(w);
                    }
                    let input = match wire {
                        Wire::Work(cuts) => {
                            if cuts > w.nodes[dst].cuts {
                                let why = "sent after a capture reached its receiver before it";
                                return Err(format!("cut: m{src}'s work {why}, at m{dst}"));
                            }
                            w.nodes[dst].task = true;
                            Input::Work
                        }
                        Wire::Ctl(msg) => Input::Msg(MachineId(src as u16), msg),
                    };
                    (dst, Some(input))
                }
                Run(i, to) => {
                    w.nodes[i].task = false;
                    if let Some(j) = to {
                        w.sends -= 1;
                        w.nodes[i].chain = Some(j);
                        if self.b.mode != Synchronous {
                            release(&mut w, n, i);
                        }
                    }
                    (i, None)
                }
                Commit(i) => {
                    release(&mut w, n, i);
                    (i, None)
                }
                SyncDue => {
                    w.sync_dues -= 1;
                    (0, Some(Input::SyncDue(w.nodes[0].coord.sync_next_at)))
                }
                SnapshotDue => {
                    w.snap_dues -= 1;
                    w.started += 1;
                    (0, Some(Input::SnapshotDue(u64::from(w.started - 1))))
                }
            };
            if let Some(input) = input {
                self.feed(&mut w, i, input)?;
            }
            if !w.nodes[i].halted && !matches!(act, Drain(..)) {
                let node = &w.nodes[i];
                let pass = Input::Pass { idle: node.chain.is_none() && !node.task };
                self.feed(&mut w, i, pass)?;
            }
            Ok(w)
        }

        /// One input, applied the way the engine applies it, invariants
        /// checked.
        fn feed(&self, w: &mut World, i: usize, input: Input) -> Result<(), String> {
            let n = self.b.n;
            let mut out = Vec::new();
            let snapshot_open = matches!(w.nodes[i].coord.round, Round::Snapshot { .. });
            let coord = &mut w.nodes[i].coord;
            catch_unwind(AssertUnwindSafe(|| coord.step(input, &self.recs[i], &mut out)))
                .map_err(|_| format!("m{i} panicked on {input:?}"))?;
            let master = &w.nodes[0].coord;
            if matches!(master.round, Round::Quiet { .. }) && master.sync.is_some() {
                return Err("a sync epoch is open beside a quiet round".into());
            }
            let closed = i == 0 && snapshot_open && !matches!(master.round, Round::Snapshot { .. });
            for output in out {
                match output {
                    Output::Send(dst, msg) => {
                        if msg == Msg::SnapDone {
                            w.nodes[i].done += 1;
                            if w.nodes[i].done > w.started {
                                return Err(format!("m{i} sent a second SnapDone for one snapshot"));
                            }
                        }
                        w.chans[i * n + dst.index()].push_back(Wire::Ctl(msg));
                    }
                    Output::Broadcast(msg) => {
                        if msg == Msg::Halt {
                            check_halt(w)?;
                        }
                        for j in (0..n).filter(|&j| j != i) {
                            w.chans[i * n + j].push_back(Wire::Ctl(msg));
                        }
                    }
                    Output::Pause => w.nodes[i].paused = true,
                    Output::Resume => w.nodes[i].paused = false,
                    Output::Save => w.nodes[i].cuts += 1,
                    Output::Write(_) => {
                        let cuts = w.nodes[i].cuts;
                        let pre_cut = |m: &Wire| matches!(*m, Wire::Work(c) if c < cuts);
                        let late = (0..n).find(|&s| w.chans[s * n + i].iter().any(pre_cut));
                        if let Some(s) = late {
                            let why = "work from before its capture in flight";
                            return Err(format!("cut: m{i} wrote its part with m{s}'s {why}"));
                        }
                    }
                    Output::Partials(e) if i != 0 => {
                        w.chans[i * n].push_back(Wire::Ctl(Msg::SyncPart(e)))
                    }
                    Output::Halt => w.nodes[i].halted = true,
                    Output::Partials(_) | Output::Finalize(_) => {}
                }
            }
            let node = &w.nodes[i];
            if self.b.mode == Synchronous && node.paused != matches!(node.coord.part, Part::Cut(..)) {
                let part = &node.coord.part;
                return Err(format!("m{i} paused: {}, its part {part:?}", node.paused));
            }
            if closed {
                w.closed += 1;
                if let Some(j) = (1..n).find(|&j| w.nodes[j].done != w.closed) {
                    let done = w.nodes[j].done;
                    return Err(format!(
                        "snapshot {} closed with m{j}'s SnapDone count at {done}",
                        w.closed - 1
                    ));
                }
            }
            Ok(())
        }
    }

    /// Machine `i`'s chain releases its counted work, stamped with the
    /// captures `i` had taken.
    fn release(w: &mut World, n: usize, i: usize) {
        let j = w.nodes[i].chain.take().expect("a release of no chain");
        let cuts = w.nodes[i].cuts;
        w.chans[i * n + j].push_back(Wire::Work(cuts));
    }

    /// The master's `Halt` is going out.
    fn check_halt(w: &World) -> Result<(), String> {
        let unwritten = |i: usize, node: &Node| match node.coord.part {
            Part::Cut(..) => true,
            Part::Idle => i > 0 && node.done < w.started,
        };
        if let Some(j) = w.nodes.iter().enumerate().position(|(i, node)| unwritten(i, node)) {
            return Err(format!("halted with m{j}'s part of snapshot {} unwritten", w.started - 1));
        }
        if let Some(j) = w.nodes.iter().position(|node| node.task || node.chain.is_some()) {
            return Err(format!("halted with a task or a chain on m{j}"));
        }
        if w.chans.iter().any(|chan| chan.iter().any(|m| matches!(m, Wire::Work(_)))) {
            return Err("halted with counted work in flight".into());
        }
        Ok(())
    }

    /// Whether `act` makes progress the engine would wake for (a trigger
    /// needs updates, which need progress).
    fn progress(act: &Act) -> bool {
        matches!(act, Deliver(..) | Drain(..) | Run(..) | Commit(_))
    }

    impl explore::Model for Model {
        type State = World;
        type Act = Act;

        /// Every machine holds a task; nothing is in flight.
        fn start(&self) -> World {
            let n = self.b.n;
            let node = |i: usize| Node {
                coord: Coord::new(MachineId(i as u16), n, self.b.mode, self.b.syncs.then_some(1)),
                task: true,
                chain: None,
                paused: false,
                halted: false,
                cuts: 0,
                done: 0,
            };
            World {
                nodes: (0..n).map(node).collect(),
                chans: vec![VecDeque::new(); n * n],
                sends: self.b.sends,
                sync_dues: self.b.sync_dues,
                snap_dues: self.b.snap_dues,
                started: 0,
                closed: 0,
            }
        }

        /// The actions `w` enables.
        fn enabled(&self, w: &World) -> Vec<Act> {
            let n = self.b.n;
            let mut acts = Vec::new();
            for (c, chan) in w.chans.iter().enumerate() {
                let (src, dst) = (c / n, c % n);
                if !chan.is_empty() {
                    acts.push(Deliver(src, dst));
                }
                let inbox: usize = (0..n).map(|s| w.chans[s * n + dst].len()).sum();
                if !chan.is_empty() && inbox > 1 && !w.nodes[dst].halted {
                    acts.push(Drain(src, dst));
                }
            }
            for (i, node) in w.nodes.iter().enumerate() {
                if node.task && !node.paused && !node.halted {
                    acts.push(Run(i, None));
                    let peers = (0..n).filter(|&j| j != i && w.sends > 0 && node.chain.is_none());
                    acts.extend(peers.map(|j| Run(i, Some(j))));
                }
                if node.chain.is_some() && !node.halted {
                    acts.push(Commit(i));
                }
            }
            let master = &w.nodes[0];
            if !master.halted && w.sync_dues > 0 {
                acts.push(SyncDue);
            }
            if !master.halted && w.snap_dues > 0 && master.coord.may_snapshot() {
                acts.push(SnapshotDue);
            }
            acts
        }

        fn apply(&self, w: &World, act: Act) -> Result<(World, Option<Act>), String> {
            Ok((self.take(w, act)?, None))
        }

        /// `Err` if some machine has not halted and nothing but a timer could
        /// move the cluster on.
        fn check(&self, w: &World) -> Result<(), String> {
            let stuck =
                !self.enabled(w).iter().any(progress) && w.nodes.iter().any(|node| !node.halted);
            if stuck {
                return Err(format!(
                    "stuck: {:?}",
                    w.nodes.iter().map(|node| &node.coord).collect::<Vec<_>>()
                ));
            }
            Ok(())
        }
    }

    fn explore(b: Bounds) -> usize {
        explore::explore(&Model::new(b), b)
    }

    fn replay(b: Bounds, schedule: &[Act]) -> World {
        explore::replay(&Model::new(b), schedule)
    }

    // Five rules, each with the shortest
    // counterexample the explorer printed once the rule's mutation was
    // applied. Replayed against the code as it is, every step is enabled,
    // nothing is violated, and the rule's own outcome holds.

    /// Report a quiet round only once every survivor's marker is held.
    /// Mutation: drop `rec.holds(..)` from the `Quiet::Sent` arm of
    /// `Coord::pass`. Then machine 1's `Sched`, ahead of its marker, finds
    /// the master reported already, and the master halts with the task
    /// unrun (6 steps).
    #[test]
    fn replay_a_report_before_every_marker_arrived() {
        let schedule = [
            Run(0, None),
            Deliver(0, 1),
            Run(1, Some(0)),
            Deliver(1, 0),
            Deliver(1, 0),
            Deliver(1, 0),
        ];
        let w = replay(Bounds::new(2, SnapshotMode::None, false), &schedule);
        assert_eq!(
            (w.nodes[0].coord.quiet, &w.nodes[0].coord.round),
            (Quiet::Done(1), &Round::Idle)
        );
        assert!(w.nodes[0].task && !w.nodes[0].halted, "the dirty round halted the run");
    }

    /// No quiet round opens during a snapshot. Mutation: let the
    /// `Quiet::Done` arm of `Coord::pass` open one during `Round::Snapshot`.
    /// Then the master, idle once its own chain released, opens a round
    /// that takes the snapshot's place, and the snapshot closes without
    /// machine 1's part (3 steps).
    #[test]
    fn replay_a_quiet_round_during_a_snapshot() {
        let schedule = [Run(0, Some(1)), SnapshotDue, Commit(0)];
        let w = replay(Bounds::new(2, Synchronous, false), &schedule);
        assert!(
            matches!(w.nodes[0].coord.round, Round::Snapshot { .. }),
            "{:?}",
            w.nodes[0].coord.round
        );
    }

    /// The master decides on the pass its own report lands. Mutation:
    /// `return` after the report in the `Quiet::Sent` arm of `Coord::pass`.
    /// Then the master's report, the last of a dirty round, leaves an idle
    /// master with no round open and nothing to wake it: stuck (7 steps).
    /// Decided, that pass opens round 2.
    #[test]
    fn replay_the_masters_own_report_landing_last() {
        let schedule = [
            Run(0, None),
            Deliver(0, 1),
            Run(1, Some(0)),
            Deliver(1, 0),
            Run(0, None),
            Drain(1, 0),
            Deliver(1, 0),
        ];
        let w = replay(Bounds::new(2, SnapshotMode::None, false), &schedule);
        assert_eq!(w.nodes[0].coord.quiet, Quiet::Sent(2, false));
        assert_eq!(w.chans[1], [Wire::Ctl(Msg::Quiet(2))]);
    }

    /// A synchronous part pauses new chains from its capture until it is
    /// written. Mutation: drop `Output::Pause` from `Coord::marker`. Then
    /// the master's part is open on a master that may start chains (1
    /// step). Paused, it starts none until it holds machine 1's marker,
    /// and both machines resume on their own once written.
    #[test]
    fn replay_a_synchronous_part_that_does_not_pause() {
        let b = Bounds::new(2, Synchronous, false);
        let w = replay(b, &[SnapshotDue]);
        assert!(w.nodes[0].paused && matches!(w.nodes[0].coord.part, Part::Cut(0, _)));
        let w = replay(b, &[SnapshotDue, Deliver(0, 1), Deliver(1, 0)]);
        assert!(w.nodes.iter().all(|node| !node.paused && node.coord.part == Part::Idle && node.cuts == 1));
        assert_eq!(w.chans[2], [Wire::Ctl(Msg::SnapDone)], "channel 1 → 0");
    }

    /// Every machine broadcasts its own marker at its first. Mutation: in
    /// `Coord::marker`, let only the master broadcast. Then the master
    /// never holds worker 1's marker, its part stays open, and the
    /// snapshot never closes: stuck (5 steps under asynchronous bounds; 4
    /// under synchronous ones, explored first, where the paused master
    /// takes no task). With the broadcast, both parts are written and the
    /// worker's `SnapDone` is on its way.
    #[test]
    fn replay_a_worker_that_does_not_broadcast_its_marker() {
        let schedule = [Run(1, None), SnapshotDue, Deliver(0, 1), Deliver(1, 0), Run(0, None)];
        let w = replay(Bounds::new(2, Asynchronous, false), &schedule);
        assert!(w.nodes.iter().all(|node| node.coord.part == Part::Idle && node.cuts == 1));
        assert_eq!(w.chans[2], [Wire::Ctl(Msg::SnapDone)], "channel 1 → 0");
    }

    /// Each of the master's four vote barriers on three machines: worker
    /// 1's vote delivered twice and worker 2's never leaves the round open.
    #[test]
    fn a_duplicate_vote_does_not_stand_in_for_a_missing_one() {
        let rec = RecoveryTracker::new(0, 3, RecoveryMode::Rollback);
        let coord = |mode, sync_every| Coord::new(MASTER, 3, mode, sync_every);
        let step = |c: &mut Coord, input| {
            let mut out = Vec::new();
            c.step(input, &rec, &mut out);
            out
        };
        let from = |i: u16, msg| Input::Msg(MachineId(i), msg);
        let idle = Input::Pass { idle: true };
        let twice = |c: &mut Coord, msg| [step(c, from(1, msg)), step(c, from(1, msg))].concat();

        // The quiet round: the master reported, worker 1 twice.
        let mut c = coord(SnapshotMode::None, None);
        step(&mut c, idle);
        step(&mut c, from(1, Msg::Quiet(1)));
        step(&mut c, from(2, Msg::Quiet(1)));
        step(&mut c, idle);
        assert_eq!(c.quiet, Quiet::Done(1));
        twice(&mut c, Msg::QuietReport(1, true));
        assert!(matches!(c.round, Round::Quiet { .. }), "{:?}", c.round);

        // The halt's acks, once worker 2's report ends the round clean.
        step(&mut c, from(2, Msg::QuietReport(1, true)));
        assert!(matches!(c.round, Round::Halt { acks: Some(_) }), "{:?}", c.round);
        let out = twice(&mut c, Msg::HaltAck);
        assert!(!out.contains(&Output::Halt), "{out:?}");

        // A snapshot's `SnapDone`s, once the master's own part is written.
        let mut c = coord(Synchronous, None);
        step(&mut c, Input::SnapshotDue(0));
        step(&mut c, from(1, Msg::SnapStart(0)));
        step(&mut c, from(2, Msg::SnapStart(0)));
        assert_eq!(c.part, Part::Idle);
        twice(&mut c, Msg::SnapDone);
        assert!(matches!(c.round, Round::Snapshot { .. }), "{:?}", c.round);
        step(&mut c, from(2, Msg::SnapDone));
        assert_eq!(c.round, Round::Idle);

        // A sync epoch's partials.
        let mut c = coord(SnapshotMode::None, Some(1));
        step(&mut c, Input::SyncDue(1));
        let out = twice(&mut c, Msg::SyncPart(1));
        assert!(!out.contains(&Output::Finalize(1)), "{out:?}");
        assert!(c.sync.is_some());
    }

    #[test]
    fn the_explorer_finds_no_violation_on_one_two_and_three_machines() {
        let began = std::time::Instant::now();
        let mut states = 0;
        for n in 1..=3 {
            for mode in [SnapshotMode::None, Synchronous, Asynchronous] {
                for syncs in [false, true] {
                    let b = Bounds::new(n, mode, syncs);
                    // A debug build, `step`'s assertions live, looks less far.
                    let (sync_dues, snap_dues) = (b.sync_dues.min(1), b.snap_dues.min(1));
                    let b = if cfg!(debug_assertions) {
                        Bounds { sends: 2, sync_dues, snap_dues, ..b }
                    } else {
                        b
                    };
                    let seen = explore(b);
                    println!("{b:?}: {seen} states");
                    states += seen;
                }
            }
        }
        println!("coord explorer: {states} states in {:.1} s", began.elapsed().as_secs_f64());
    }
}
