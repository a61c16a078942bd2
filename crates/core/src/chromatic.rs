//! The chromatic engine (§4.2.1).
//!
//! Given a proper vertex colouring, executing all scheduled vertices of one
//! colour — a *colour-step* — satisfies the edge consistency model, because
//! no two adjacent vertices share a colour (full consistency uses a
//! second-order colouring, vertex consistency a single colour). Changes to
//! ghost data are communicated **asynchronously while the colour-step
//! runs**, and a full communication barrier separates colour-steps.
//!
//! The colour-step is the unit of exchange. Ghost rows and write-backs are
//! collected in one open *block* per (destination, kind) — the
//! `(step, phase)` tag once, then rows back to back — which goes on the
//! wire when it reaches `BLOCK_BYTES` (so communication still overlaps
//! the step), when a row of another `(step, phase)` joins its slot, and at
//! the latest when the round ends. Remote scheduling requests are a *set*
//! per owner (duplicates merge, as in the local queues) sent once when the
//! step has executed.
//!
//! The barrier is two rounds of FIFO markers, like recovery's `FlushMark`:
//! after executing its part of the step, every machine sends every other
//! machine a `FlushA` marker behind its blocks and task sets (round A);
//! write-backs applied during round A may trigger forwards to other
//! mirrors, which go out ahead of the `FlushB` marker (round B). Per-channel
//! FIFO makes a peer's marker proof that everything it sent in the round
//! has arrived, so a machine enters the next colour-step once it holds
//! every surviving peer's markers and all modifications are visible before
//! the next colour begins. The one invariant: **no row outlives its
//! round's marker** — `flush_round` closes every block before it sends
//! the markers.
//!
//! Between colour *cycles* (one pass over all colours) the machines run the
//! sync operations and the master decides halting ("the entire cycle
//! executed zero updates and all schedulers are empty") and snapshot
//! triggers. A worker's sync partial is its vote of round `2·cycle`, its
//! `SnapDone` one of `2·cycle + 1`, in a second `Markers`; the master folds
//! a partial in when it arrives, which may be during the last flush round.
//! Every wait (flush round, cycle end, checkpoint) is one receive loop,
//! `wait`, on what `handle_msg`, the one decode site, recorded.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use graphlab_atoms::LocalGraphInit;
use graphlab_graph::{EdgeId, MachineId, VertexId};
use graphlab_net::codec::Codec;
use graphlab_net::{Endpoint, Envelope, RecvError};

use crate::driver::{MachineResult, MachineSetup};
use crate::machine::Machine;
use crate::messages::*;
use crate::recovery::{self, Markers, RecoveryHost, RecoveryPhase, Step};
use crate::snapshot::SnapshotFile;
use crate::sync::{apply_globals, combine_partials, finalize_into, local_partials};
use crate::update::UpdateFunction;

const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Receive deadline while a recovery round is in progress: stall detection
/// is timer-based (a receive timeout fed to `recovery::on_recv`), so the
/// pump must time out.
const RECOVERY_POLL: Duration = Duration::from_millis(25);

/// An open block goes on the wire once it holds this many bytes: well under
/// `graphlab_net::batch::BATCH_BYTES`, so ghost changes leave while the colour-step
/// still runs (§4.2.1) and blocks share the batcher's envelopes.
const BLOCK_BYTES: usize = 4 * 1024;

/// The kinds that travel as row blocks: one block slot each per
/// destination, at `RowKind as usize`.
#[derive(Clone, Copy)]
enum RowKind {
    VData,
    EData,
    WbV,
    WbE,
}

impl RowKind {
    const ALL: [RowKind; 4] = [RowKind::VData, RowKind::EData, RowKind::WbV, RowKind::WbE];

    fn wire(self) -> ChromKind {
        match self {
            RowKind::VData => ChromKind::VData,
            RowKind::EData => ChromKind::EData,
            RowKind::WbV => ChromKind::WbV,
            RowKind::WbE => ChromKind::WbE,
        }
    }
}

/// Rows of one `(step, phase)` bound for one (destination, kind), in wire
/// form; empty when no block is open.
#[derive(Default)]
struct Block {
    tag: (u64, u8),
    buf: BytesMut,
}

/// The flush round of a `(step, phase)` tag, numbered in the order the
/// machines run them.
fn round((step, phase): (u64, u8)) -> u64 {
    2 * step + phase as u64
}

/// Unwinds the BSP call stack to the top-level run loop with the recovery
/// step that preempted it (`Continue` = a round is in progress). The
/// protocol itself is event-driven and lives in [`crate::recovery`].
struct Interrupt(Step);

pub(crate) struct ChromaticMachine<V, E, U: ?Sized> {
    /// The machine under the engine: everything the locking engine has too.
    core: Machine<V, E>,
    update: Arc<U>,
    num_colors: u32,

    // Task queues, one per colour; `queued` dedups, per local vertex: an
    // owned one is in its colour's queue, a ghost in this step's
    // `remote_tasks`.
    queues: Vec<VecDeque<u32>>,
    queued: Vec<bool>,
    pending_total: u64,
    /// The tasks the running step's updates scheduled on each other
    /// machine's vertices (local ids), sent as one set when it ends. Every
    /// scheduled neighbour has another colour and runs in a later step
    /// either way, so the set executed in each step is what per-update
    /// forwarding gave.
    remote_tasks: Vec<Vec<u32>>,

    step: u64,
    /// Flush markers received, by round `2·step + phase`. A peer runs at
    /// most one round ahead, and its marker of the next round implies the
    /// current one's.
    marks: Markers,
    /// Colour cycles completed since the BSP machinery (re)started.
    cycle: u64,
    /// The cycle end's record. Master: the sync accumulators (made when
    /// the cycle opens) and pending tasks, each partial folded in as it
    /// arrives, and the votes. Worker: the master's verdict and resume.
    accs: Vec<Box<dyn Any + Send>>,
    pend: u64,
    votes: Markers,
    verdict: Option<SyncGlobalsMsg>,
    resumed: bool,
    /// The open row blocks: `blocks[dst][kind as usize]`.
    /// Blocks of one `(step, phase)` leave in slot order, not in the order
    /// their first rows were written, and a row may overtake one of another
    /// kind. That is safe: a proper colouring — first-order for edge,
    /// second-order for full consistency — gives every datum at most one
    /// writer per colour-step, so no two rows of a step carry the same
    /// datum, and every row of a step is applied before the next begins.
    blocks: Vec<[Block; RowKind::ALL.len()]>,

    /// Colour-steps executed across the whole run (unlike `step`, never
    /// reset by a rollback — the metrics source).
    steps_total: u64,
}

impl<V, E, U> ChromaticMachine<V, E, U>
where
    V: Codec + Clone + Send + Sync + 'static,
    E: Codec + Clone + Send + Sync + 'static,
    U: UpdateFunction<V, E> + ?Sized,
{
    pub(crate) fn new(
        ep: Endpoint,
        setup: MachineSetup<V, E>,
        update: Arc<U>,
        init: LocalGraphInit<V, E>,
    ) -> Self {
        let coloring = setup.coloring.as_ref().expect("the chromatic engine runs on a colouring");
        let num_colors = coloring.num_colors().max(1);
        let core = Machine::new(ep, setup, init);
        let (m, nv) = (core.slots(), core.lg.num_local_vertices());
        ChromaticMachine {
            queues: (0..num_colors).map(|_| VecDeque::new()).collect(),
            queued: vec![false; nv],
            pending_total: 0,
            remote_tasks: vec![Vec::new(); m],
            step: 0,
            marks: Markers::new(m),
            cycle: 0,
            accs: Vec::new(),
            pend: 0,
            votes: Markers::new(m),
            verdict: None,
            resumed: false,
            blocks: (0..m).map(|_| Default::default()).collect(),
            steps_total: 0,
            num_colors,
            core,
            update,
        }
    }

    fn enqueue_local(&mut self, l: u32) {
        if !self.queued[l as usize] {
            self.queued[l as usize] = true;
            let c = self.core.lg.vertex_color(l) as usize;
            self.queues[c].push_back(l);
            self.pending_total += 1;
        }
    }

    fn initial_schedule(&mut self) {
        for (l, _) in self.core.initial_tasks() {
            self.enqueue_local(l);
        }
    }

    pub(crate) fn run(mut self) -> MachineResult<V, E> {
        self.initial_schedule();
        while let Err(Interrupt(mut step)) = self.run_cycles() {
            // A recovery round preempted the BSP machinery: pump the shared
            // machine until the round resumes (overlapping failures restart
            // it inside the machine), this machine leaves the run, or the
            // run fails.
            while step == Step::Continue {
                let got = self.core.net.recv_timeout(RECOVERY_POLL).map(|env| (Kind::of(&env), env));
                step = recovery::on_recv(&mut self, got);
            }
            if self.core.ends_run(step) {
                break;
            }
            // Recovered: the BSP machinery restarts at cycle 0.
        }
        // The master's final globals/halt broadcast may still sit in the
        // batch queues; peers are blocked waiting for it.
        self.core.net.flush_all();
        MachineResult { steps: self.steps_total, ..self.core.finish() }
    }

    /// The BSP cycle machinery. Returns `Ok(())` on a normal halt and
    /// unwinds with an [`Interrupt`] when a failure (ours or a peer's)
    /// preempts it.
    fn run_cycles(&mut self) -> Result<(), Interrupt> {
        self.cycle = 0;
        loop {
            self.accs = self.core.setup.syncs.iter().map(|op| op.init_acc()).collect();
            for color in 0..self.num_colors {
                self.execute_color_step(color);
                self.flush_round(0)?;
                self.flush_round(1)?;
                self.step += 1;
                self.steps_total += 1;
                self.core.maybe_straggle();
            }
            let (halt, snapshot) = self.cycle_end_round()?;
            if let Some(snap) = snapshot {
                self.write_snapshot(snap)?;
            }
            if halt {
                return Ok(());
            }
            self.cycle += 1;
        }
    }

    /// Appends to `dst`'s open `kind` block the row `put` builds around the
    /// datum in `rowbuf`, opening the block with its `(step, phase)` tag —
    /// after closing one of another tag — and closing it once it is full.
    fn send_row(
        &mut self,
        dst: MachineId,
        kind: RowKind,
        tag: (u64, u8),
        put: impl FnOnce(&mut BytesMut, &[u8]),
    ) {
        let block = &self.blocks[dst.index()][kind as usize];
        if !block.buf.is_empty() && block.tag != tag {
            self.close_block(dst, kind);
        }
        let block = &mut self.blocks[dst.index()][kind as usize];
        if block.buf.is_empty() {
            block.tag = tag;
            StepTagged::<()>::put(&mut block.buf, tag.0, tag.1, |_| {});
        }
        put(&mut block.buf, &self.core.rowbuf);
        if block.buf.len() >= BLOCK_BYTES {
            self.close_block(dst, kind);
        }
    }

    /// Puts `dst`'s open `kind` block on the wire.
    fn close_block(&mut self, dst: MachineId, kind: RowKind) {
        let Self { blocks, core, .. } = self;
        let block = &mut blocks[dst.index()][kind as usize];
        core.send_with(dst, kind.wire(), |buf| buf.put_slice(&block.buf));
        block.buf.clear();
    }

    /// The one receive loop: handles engine envelopes until `done` yields
    /// what was waited for.
    fn wait<T>(&mut self, mut done: impl FnMut(&mut Self) -> Option<T>) -> Result<T, Interrupt> {
        loop {
            if let Some(got) = done(self) {
                return Ok(got);
            }
            let (kind, env) = self.recv_env()?;
            self.handle_msg(kind, env);
        }
    }

    /// Receives one engine envelope. The fault/recovery control plane is
    /// delegated to the shared machine; anything that starts a round (a
    /// fresh `K_DOWN`, our own death, a `K_UP` on a machine that slept
    /// through its dead window) or ends the run unwinds the BSP stack.
    /// A timeout is a stall (clean failure, never a hang).
    fn recv_env(&mut self) -> Result<(ChromKind, Envelope), Interrupt> {
        loop {
            let step = match self.core.net.recv_timeout(RECV_TIMEOUT).map(|env| (Kind::of(&env), env)) {
                Ok((Kind::Chrom(kind), env)) => return Ok((kind, env)),
                Ok((Kind::Lock(kind), _)) => panic!("{} in the chromatic engine", kind.name()),
                Err(RecvError::Timeout) => Step::Abort(format!(
                    "chromatic engine stalled: machine {} step {} received nothing for {:?}",
                    self.core.me().0,
                    self.step,
                    RECV_TIMEOUT
                )),
                got => recovery::on_recv(self, got),
            };
            // Stale control of a finished round is simply consumed.
            if step != Step::Continue || self.core.rec.phase() != RecoveryPhase::Normal {
                return Err(Interrupt(step));
            }
        }
    }

    /// Executes all queued vertices of `color`, then sends every owner the
    /// set of its vertices they scheduled.
    fn execute_color_step(&mut self, color: u32) {
        // The step executes what its queue held when it began: a vertex
        // that schedules itself meanwhile runs next cycle.
        let mut batch = std::mem::take(&mut self.queues[color as usize]);
        self.pending_total -= batch.len() as u64;
        for &l in &batch {
            self.queued[l as usize] = false;
        }
        for &l in &batch {
            self.core.execute(&*self.update, l);
            self.commit(l);
            // Respect the global update cap: stop executing this step.
            if self.core.capped(self.core.live_updates()) {
                break;
            }
        }
        // The drained queue keeps its buffer.
        batch.clear();
        batch.append(&mut self.queues[color as usize]);
        self.queues[color as usize] = batch;

        let Self { remote_tasks, queued, core, step, .. } = self;
        let Machine { lg, rec, net, .. } = core;
        for (j, tasks) in remote_tasks.iter_mut().enumerate().filter(|(_, t)| !t.is_empty()) {
            // Ascending local ids are ascending global ids.
            tasks.sort_unstable();
            net.send_with(MachineId::from(j), rec.wire(ChromKind::Sched), |buf| {
                StepTagged::<TaskSetMsg>::put(buf, *step, 0, |buf| {
                    TaskSetMsg::put(buf, tasks.len(), tasks.iter().map(|&l| lg.vertex_gvid(l)))
                })
            });
            for l in tasks.drain(..) {
                queued[l as usize] = false;
            }
        }
    }

    /// Applies an update's effects: version bumps, ghost pushes,
    /// write-backs and schedule forwards.
    fn commit(&mut self, l: u32) {
        let me = self.core.me();
        let tag = (self.step, 0);
        let mut effects = std::mem::take(&mut self.core.effects);

        if effects.dirty_self {
            let version = self.core.lg.bump_vertex_version(l);
            self.push_to_mirrors(l, version);
        }

        effects.dirty_edges.sort_unstable();
        effects.dirty_edges.dedup();
        for &le in &effects.dirty_edges {
            if self.core.lg.owns_edge(le) {
                let version = self.core.lg.bump_edge_version(le);
                let (s, d) = self.core.lg.edge_endpoints_local(le);
                let ms = self.core.lg.vertex_owner(s);
                let md = self.core.lg.vertex_owner(d);
                let other = if ms == me { md } else { ms };
                if other != me {
                    let geid = self.encode_edge(le);
                    self.send_row(other, RowKind::EData, tag, |buf, data| {
                        EdgeRow::put(buf, geid, version, data)
                    });
                }
            } else {
                let (owner, geid) = (self.core.lg.edge_owner(le), self.encode_edge(le));
                self.send_row(owner, RowKind::WbE, tag, |buf, data| {
                    EdgeRow::put(buf, geid, 0, data)
                });
            }
        }

        effects.dirty_nbrs.sort_unstable();
        effects.dirty_nbrs.dedup();
        for &ln in &effects.dirty_nbrs {
            if self.core.lg.owns_vertex(ln) {
                let version = self.core.lg.bump_vertex_version(ln);
                self.push_to_mirrors(ln, version);
            } else {
                let (owner, gvid) = (self.core.lg.vertex_owner(ln), self.encode_vertex(ln));
                self.send_row(owner, RowKind::WbV, tag, |buf, data| {
                    VertexRow::put(buf, gvid, 0, 0, data)
                });
            }
        }

        // Scheduling: local tasks enqueue directly, remote ones join their
        // owner's set for this step.
        for &(lv, _) in &effects.scheduled {
            if self.core.lg.owns_vertex(lv) {
                self.enqueue_local(lv);
            } else if !std::mem::replace(&mut self.queued[lv as usize], true) {
                self.remote_tasks[self.core.lg.vertex_owner(lv).index()].push(lv);
            }
        }

        self.core.effects = effects;
    }

    /// Encodes local vertex `l`'s datum into `rowbuf` for [`Self::send_row`].
    fn encode_vertex(&mut self, l: u32) -> VertexId {
        self.core.rowbuf.clear();
        self.core.lg.vertex_data(l).encode(&mut self.core.rowbuf);
        self.core.lg.vertex_gvid(l)
    }

    /// Encodes local edge `le`'s datum into `rowbuf` for [`Self::send_row`].
    fn encode_edge(&mut self, le: u32) -> EdgeId {
        self.core.rowbuf.clear();
        self.core.lg.edge_data(le).encode(&mut self.core.rowbuf);
        self.core.lg.edge_geid(le)
    }

    /// Ghost push of owned vertex `l`, just bumped to `version`, to every
    /// mirror (direct phase).
    fn push_to_mirrors(&mut self, l: u32, version: u64) {
        if self.core.lg.vertex_mirrors(l).is_empty() {
            return;
        }
        let (gvid, tag) = (self.encode_vertex(l), (self.step, 0));
        for k in 0..self.core.lg.vertex_mirrors(l).len() {
            let mm = self.core.lg.vertex_mirrors(l)[k];
            self.send_row(mm, RowKind::VData, tag, |buf, data| {
                VertexRow::put(buf, gvid, version, 0, data)
            });
        }
    }

    /// Closes every open block, sends the markers of `(self.step, phase)`
    /// behind them, then blocks until every surviving peer's marker of the
    /// round arrived — and with it, by per-channel FIFO, all it sent in the
    /// round. Dead machines owe nothing: their atoms were adopted and the
    /// fabric drops their in-flight traffic.
    fn flush_round(&mut self, phase: u8) -> Result<(), Interrupt> {
        let step = self.step;
        debug_assert!(
            self.blocks.iter().flatten().all(|b| b.buf.is_empty() || (b.tag.0 == step && b.tag.1 >= phase)),
            "a row outlived the flush marker of its (step, phase)"
        );
        for (dst, kind) in
            (0..self.blocks.len()).flat_map(|j| RowKind::ALL.map(|k| (MachineId::from(j), k)))
        {
            if !self.blocks[dst.index()][kind as usize].buf.is_empty() {
                self.close_block(dst, kind);
            }
        }
        let kind = if phase == 0 { ChromKind::FlushA } else { ChromKind::FlushB };
        self.core.broadcast(kind, &enc(&step));
        self.wait(|m| m.core.rec.holds(&m.marks, round((step, phase))).then_some(()))
    }

    /// Walks the row block in `env` in place, handing `row` each row with
    /// the block's step as it is met.
    fn on_block<'a, R>(
        &mut self,
        env: &'a Envelope,
        read: impl Fn(&mut &'a [u8]) -> Option<R>,
        mut row: impl FnMut(&mut Self, u64, R),
    ) {
        let tag = read_all(&env.payload, |p| {
            StepTagged::<R>::read_block(p, read, |step, r| row(self, step, r))
        });
        self.debug_assert_ahead_of_marker(env.src, tag);
    }

    /// A block or task set tagged `tag` from `src` travels ahead of its
    /// round's marker on the channel.
    fn debug_assert_ahead_of_marker(&self, src: MachineId, tag: (u64, u8)) {
        debug_assert!(round(tag) >= self.marks.next(src), "machine {} sent {tag:?} behind its marker", src.0);
    }

    /// Handles one engine envelope: the one place its payload is decoded
    /// and what it brings recorded.
    fn handle_msg(&mut self, kind: ChromKind, env: Envelope) {
        match kind {
            ChromKind::VData => {
                self.on_block(&env, VertexRow::read, |this, _, (vid, version, _, data)| {
                    if let Some(l) = this.core.lg.local_vertex(vid) {
                        this.core.lg.apply_vertex_update(l, version, dec_in(&env.payload, data));
                    }
                })
            }
            ChromKind::EData => self.on_block(&env, EdgeRow::read, |this, _, (eid, version, data)| {
                if let Some(l) = this.core.lg.local_edge(eid) {
                    this.core.lg.apply_edge_update(l, version, dec_in(&env.payload, data));
                }
            }),
            ChromKind::WbV => self.on_block(&env, VertexRow::read, |this, step, (vid, _, _, data)| {
                let l = this.core.lg.local_vertex(vid).expect("write-back target owned");
                debug_assert!(this.core.lg.owns_vertex(l));
                *this.core.lg.vertex_data_mut(l) = dec_in(&env.payload, data);
                let version = this.core.lg.bump_vertex_version(l);
                // Forward to every mirror but the writer, which holds what it
                // sent us (phase 1): under full consistency, the only one with
                // write-backs, the datum has no other writer in the step.
                let mut encoded = false;
                for k in 0..this.core.lg.vertex_mirrors(l).len() {
                    let mm = this.core.lg.vertex_mirrors(l)[k];
                    if mm != env.src {
                        if !std::mem::replace(&mut encoded, true) {
                            this.encode_vertex(l);
                        }
                        this.send_row(mm, RowKind::VData, (step, 1), |buf, data| {
                            VertexRow::put(buf, vid, version, 0, data)
                        });
                    }
                }
            }),
            ChromKind::WbE => self.on_block(&env, EdgeRow::read, |this, _, (eid, _, data)| {
                let l = this.core.lg.local_edge(eid).expect("write-back target owned");
                debug_assert!(this.core.lg.owns_edge(l));
                *this.core.lg.edge_data_mut(l) = dec_in(&env.payload, data);
                // An edge has exactly two replicas; the write-back came from
                // the only mirror, so no forward is needed.
                this.core.lg.bump_edge_version(l);
            }),
            ChromKind::Sched => {
                let tag = read_all(&env.payload, |p| {
                    let tag = StepTagged::<TaskSetMsg>::read(p)?;
                    TaskSetMsg::read(p, |gv| {
                        let l = self.core.lg.local_vertex(gv).expect("scheduled vertex is local");
                        debug_assert!(self.core.lg.owns_vertex(l));
                        self.enqueue_local(l);
                    })?;
                    Some(tag)
                });
                self.debug_assert_ahead_of_marker(env.src, tag);
            }
            ChromKind::FlushA | ChromKind::FlushB => {
                let r = round((dec(env.payload), (kind == ChromKind::FlushB) as u8));
                debug_assert_eq!(r, self.marks.next(env.src), "machine {} skipped a flush round", env.src.0);
                self.marks.note(env.src, r);
            }
            ChromKind::SyncPart => {
                debug_assert!(self.core.is_master(), "a sync partial at a worker");
                let p: SyncPartialMsg = dec(env.payload);
                assert_eq!(p.cycle, self.cycle, "sync round out of step");
                self.core.note_peer_updates(env.src, p.updates);
                combine_partials(&self.core.setup.syncs, &mut self.accs, &p.partials);
                self.pend += p.pending;
                self.votes.note(env.src, round((self.cycle, 0)));
            }
            ChromKind::SnapDone => self.votes.note(env.src, round((self.cycle, 1))),
            ChromKind::SyncGlob => {
                debug_assert!(!self.core.is_master(), "a verdict at the master");
                let g: SyncGlobalsMsg = dec(env.payload);
                assert_eq!(g.cycle, self.cycle, "sync verdict out of step");
                self.verdict = Some(g);
            }
            ChromKind::SnapResume => {
                debug_assert!(!self.core.is_master(), "a resume at the master");
                self.resumed = true;
            }
        }
    }

    /// Cycle-end sync + halt + snapshot coordination: the master decides
    /// once it holds every survivor's partial. Returns `(halt, snapshot_id)`.
    fn cycle_end_round(&mut self) -> Result<(bool, Option<u64>), Interrupt> {
        let mine = SyncPartialMsg {
            cycle: self.cycle,
            partials: local_partials(&self.core.setup.syncs, &self.core.lg),
            pending: self.pending_total,
            updates: self.core.updates_local,
        };
        if !self.core.is_master() {
            self.core.send(MachineId(0), ChromKind::SyncPart, enc(&mine));
            // Faster peers may already be executing the next cycle's first
            // colour-step: `wait` absorbs their (step-tagged) traffic.
            let g = self.wait(|m| m.verdict.take())?;
            apply_globals(&self.core.setup.syncs, g.globals, &mut self.core.globals);
            return Ok((g.halt, g.snapshot));
        }
        combine_partials(&self.core.setup.syncs, &mut self.accs, &mine.partials);
        self.pend += mine.pending;
        self.wait(|m| m.core.rec.holds(&m.votes, round((m.cycle, 0))).then_some(()))?;
        let (accs, total) = (std::mem::take(&mut self.accs), self.core.lg.total_vertices());
        let globals = finalize_into(&self.core.setup.syncs, accs, total, &mut self.core.globals);
        // Aggregate-driven termination (§3.5): the stop predicate runs
        // over the just-finalized globals, composing with the cap and
        // the natural no-pending-work halt.
        let (stop_hit, pend) = (self.core.stop_hit(), std::mem::take(&mut self.pend));
        let halt = pend == 0 || self.core.capped(self.core.observed_updates()) || stop_hit;
        let snapshot = if halt { None } else { self.core.snapshot_due() };
        let verdict = SyncGlobalsMsg { cycle: self.cycle, globals, halt, snapshot };
        self.core.broadcast(ChromKind::SyncGlob, &enc(&verdict));
        Ok((halt, snapshot))
    }

    /// Writes this machine's part of checkpoint `snap`; the master resumes
    /// the cluster once it holds every survivor's `SnapDone`.
    fn write_snapshot(&mut self, snap: u64) -> Result<(), Interrupt> {
        self.core.write_checkpoint(snap, SnapshotFile::capture(&self.core.lg));
        if self.core.is_master() {
            self.wait(|m| m.core.rec.holds(&m.votes, round((m.cycle, 1))).then_some(()))?;
            self.core.broadcast(ChromKind::SnapResume, &Bytes::new());
        } else {
            self.core.send(MachineId(0), ChromKind::SnapDone, Bytes::new());
            // Resumed peers may already be racing ahead.
            self.wait(|m| std::mem::take(&mut m.resumed).then_some(()))?;
        }
        Ok(())
    }
}

impl<V, E, U> RecoveryHost for ChromaticMachine<V, E, U>
where
    V: Codec + Clone + Send + Sync + 'static,
    E: Codec + Clone + Send + Sync + 'static,
    U: UpdateFunction<V, E> + ?Sized,
{
    type V = V;
    type E = E;

    fn machine(&mut self) -> &mut Machine<V, E> {
        &mut self.core
    }

    /// Resets all volatile BSP state — colour queues, collected tasks, open
    /// blocks, step, cycle and marker counts, the cycle end's accumulators,
    /// votes and verdict — sized by the current local graph.
    fn reset_engine_state(&mut self) {
        let nv = self.core.lg.num_local_vertices();
        self.queues = (0..self.num_colors).map(|_| VecDeque::new()).collect();
        self.queued = vec![false; nv];
        self.pending_total = 0;
        self.remote_tasks.iter_mut().for_each(Vec::clear);
        self.step = 0;
        self.marks = Markers::new(self.core.slots());
        self.cycle = 0;
        self.accs.clear();
        self.pend = 0;
        self.votes = Markers::new(self.core.slots());
        self.verdict = None;
        self.resumed = false;
        self.blocks.iter_mut().flatten().for_each(|b| b.buf.clear());
    }

    fn reseed(&mut self, l: u32) {
        self.enqueue_local(l);
    }

    fn replay(&mut self, kind: Kind, env: Envelope) {
        match kind {
            Kind::Chrom(kind) => self.handle_msg(kind, env),
            kind @ (Kind::Lock(_) | Kind::Recovery(_)) => {
                panic!("{} replayed into the chromatic engine", kind.name())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::{scripted_machine, NoUpdate};
    use crate::reference::InitialSchedule;
    use graphlab_atoms::VertexPartition;
    use graphlab_graph::{AtomId, GraphBuilder};
    use graphlab_net::BatchPolicy;

    type Machine = ChromaticMachine<f64, f64, NoUpdate>;

    /// Machine 0 of `machines` over `graph`, unbatched — every block is an
    /// envelope of its own on the wire — and the other machines' endpoints
    /// (`peers[j - 1]` is machine `j`'s).
    fn machine0(
        graph: &graphlab_graph::DataGraph<f64, f64>,
        partition: &VertexPartition,
        machines: usize,
    ) -> (Machine, Vec<Endpoint>) {
        let mut config = crate::EngineConfig::new(machines);
        config.batch = BatchPolicy::Disabled;
        let (setup, init, mut eps) =
            scripted_machine(graph, partition, MachineId(0), config, InitialSchedule::AllVertices);
        (ChromaticMachine::new(eps.remove(0), setup, Arc::new(NoUpdate), init), eps)
    }

    /// The complete digraph on three vertices, vertex `i` on machine `i`:
    /// machine 0's vertex has a mirror on both peers.
    fn triangle() -> (Machine, Vec<Endpoint>) {
        let mut b = GraphBuilder::new();
        let v: Vec<VertexId> = (0..3).map(|i| b.add_vertex(i as f64)).collect();
        for (i, j) in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)] {
            b.add_edge(v[i], v[j], 1.0).unwrap();
        }
        let one_each = VertexPartition::from_assignment((0..3).map(AtomId).collect(), 3);
        machine0(&b.build(), &one_each, 3)
    }

    /// The ring on eight vertices over two machines.
    fn ring() -> (Machine, Vec<Endpoint>) {
        let mut b = GraphBuilder::new();
        let v: Vec<VertexId> = (0..8).map(|i| b.add_vertex(i as f64)).collect();
        for i in 0..8 {
            b.add_edge(v[i], v[(i + 1) % 8], 1.0).unwrap();
        }
        machine0(&b.build(), &VertexPartition::random_hash(8, 4, 3), 2)
    }

    /// Machine 0 handles `payload` as a `kind` from machine `src`.
    fn handle_from(m: &mut Machine, src: u16, kind: ChromKind, payload: Bytes) {
        let env = Envelope { src: MachineId(src), dst: MachineId(0), kind: kind as u16, payload };
        m.handle_msg(kind, env);
    }

    /// What the chromatic engine sent `env` as.
    fn kind_of(env: &Envelope) -> ChromKind {
        let Kind::Chrom(kind) = Kind::of(env) else { panic!("not the engine's: {env:?}") };
        kind
    }

    /// A vertex row block off the wire: its kind, its tag and the
    /// `(vertex, version)` of its rows.
    type VertexBlock = (ChromKind, (u64, u8), Vec<(u32, u64)>);

    /// The next envelope at `ep`, read as a vertex row block.
    fn vertex_block(ep: &Endpoint) -> Option<VertexBlock> {
        let env = ep.try_recv().ok()?;
        let mut rows = Vec::new();
        let tag = read_all(&env.payload, |p| {
            StepTagged::<VertexRow>::read_block(p, VertexRow::read, |_, (v, version, _, _)| {
                rows.push((v.0, version))
            })
        });
        Some((kind_of(&env), tag, rows))
    }

    /// The next envelope at `ep` as a flush marker, whose whole payload is
    /// its step: `(kind, step)`.
    fn flush_marker(ep: &Endpoint) -> Option<(ChromKind, u64)> {
        let env = ep.try_recv().ok()?;
        Some((kind_of(&env), dec(env.payload)))
    }

    /// Scripts every peer's marker of `(step, phase)`, so `flush_round`
    /// returns without waiting.
    fn promise(m: &mut Machine, step: u64, phase: u8) {
        let kind = if phase == 0 { ChromKind::FlushA } else { ChromKind::FlushB };
        for j in 1..m.blocks.len() as u16 {
            handle_from(m, j, kind, enc(&step));
        }
    }

    /// Machine 0 as it enters `step` (> 0): every round before it complete.
    fn at_step(m: &mut Machine, step: u64) {
        m.step = step;
        for j in 1..m.blocks.len() as u16 {
            m.marks.note(MachineId(j), round((step, 0)) - 1);
        }
    }

    /// Whether machine 0 holds every peer's marker of `round`.
    fn holds(m: &Machine, round: u64) -> bool {
        m.core.rec.holds(&m.marks, round)
    }

    /// The first round whose marker (or vote) in `marks` machine 0 lacks,
    /// per machine.
    fn next_marks(m: &Machine, marks: &Markers) -> Vec<u64> {
        (0..m.blocks.len() as u16).map(|j| marks.next(MachineId(j))).collect()
    }

    /// Registers one sync on machine 0, the sum of one `f64` per vertex
    /// (1.0 on each of its own), and opens the cycle's accumulators.
    fn with_sum_sync(m: &mut Machine) {
        use crate::sync::{FnSync, RegisteredSync};
        let op = FnSync::new(1, |_, _: &f64| vec![1.0], |acc, _| acc);
        m.core.setup.syncs = Arc::new(vec![Box::new(RegisteredSync { id: 0, op })]);
        m.accs = m.core.setup.syncs.iter().map(|op| op.init_acc()).collect();
    }

    /// A sync partial of `cycle` whose sum is `sum`.
    fn partial(cycle: u64, sum: f64, pending: u64, updates: u64) -> Bytes {
        enc(&SyncPartialMsg { cycle, partials: vec![(0, enc(&vec![sum]))], pending, updates })
    }

    /// A block leaves when it reaches `BLOCK_BYTES`, when a row of another
    /// `(step, phase)` joins its slot, and at the latest when the round
    /// ends — on every peer's channel ahead of its round's marker, which
    /// carries the step and nothing else.
    #[test]
    fn a_block_closes_when_full_on_a_change_of_tag_and_when_the_round_ends() {
        let (mut m, peers) = triangle();
        let l = m.core.lg.local_vertex(VertexId(0)).unwrap();
        let push = |m: &mut Machine| {
            let version = m.core.lg.bump_vertex_version(l);
            m.push_to_mirrors(l, version);
            version
        };

        // Full: rows pile up unsent, then leave together.
        let mut pushed = Vec::new();
        let full = loop {
            pushed.push((0, push(&mut m)));
            if let Some(block) = vertex_block(&peers[0]) {
                break block;
            }
        };
        assert!(pushed.len() > 300, "a 4 KiB block holds hundreds of 12-byte rows");
        assert_eq!(full, (ChromKind::VData, (0, 0), pushed.clone()));
        assert_eq!(vertex_block(&peers[1]), Some(full), "every mirror gets the same rows");

        // Change of tag: a forward for machine 1 closes its direct block;
        // machine 2's stays open.
        let version = push(&mut m);
        m.encode_vertex(l);
        m.send_row(MachineId(1), RowKind::VData, (0, 1), |buf, data| {
            VertexRow::put(buf, VertexId(0), version + 1, 0, data)
        });
        assert_eq!(vertex_block(&peers[0]), Some((ChromKind::VData, (0, 0), vec![(0, version)])));
        assert_eq!(vertex_block(&peers[1]), None);

        // End of the round: what is open leaves ahead of the markers — the
        // forward of round B included.
        promise(&mut m, 0, 0);
        assert!(m.flush_round(0).is_ok());
        let forwarded = (ChromKind::VData, (0, 1), vec![(0, version + 1)]);
        assert_eq!(vertex_block(&peers[0]), Some(forwarded));
        assert_eq!(vertex_block(&peers[1]), Some((ChromKind::VData, (0, 0), vec![(0, version)])));
        assert_eq!(flush_marker(&peers[0]), Some((ChromKind::FlushA, 0)));
        assert_eq!(flush_marker(&peers[1]), Some((ChromKind::FlushA, 0)));
        promise(&mut m, 0, 1);
        assert!(m.flush_round(1).is_ok());
        assert_eq!(flush_marker(&peers[0]), Some((ChromKind::FlushB, 0)));
        assert_eq!(flush_marker(&peers[1]), Some((ChromKind::FlushB, 0)));
        assert!(m.blocks.iter().flatten().all(|b| b.buf.is_empty()));
        assert!(peers.iter().all(|ep| ep.try_recv().is_err()));
    }

    /// A racing peer: machine 1 is already in step 3 while machine 0 still
    /// waits in `cycle_end_round` (or `write_snapshot`) after step 2. Its
    /// write-back is applied at once; the forward to the other mirror waits
    /// in a phase-1 block tagged 3, which leaves when step 3's first round
    /// ends, ahead of both its markers — and never to the writer.
    #[test]
    fn a_write_back_of_the_next_step_is_forwarded_in_that_steps_second_round() {
        let (mut m, peers) = triangle();
        at_step(&mut m, 3);
        let mut wb = BytesMut::new();
        StepTagged::<VertexRow>::put(&mut wb, 3, 0, |buf| {
            VertexRow::put(buf, VertexId(0), 0, 0, &enc(&7.5f64))
        });
        handle_from(&mut m, 1, ChromKind::WbV, wb.freeze());
        let l = m.core.lg.local_vertex(VertexId(0)).unwrap();
        assert_eq!((*m.core.lg.vertex_data(l), m.core.lg.vertex_version(l)), (7.5, 1));
        assert!(peers.iter().all(|ep| ep.try_recv().is_err()), "nothing leaves before the step");

        m.execute_color_step(0);
        promise(&mut m, 3, 0);
        assert!(m.flush_round(0).is_ok());
        assert_eq!(flush_marker(&peers[0]), Some((ChromKind::FlushA, 3)), "not to the writer");
        assert_eq!(vertex_block(&peers[1]), Some((ChromKind::VData, (3, 1), vec![(0, 1)])));
        assert_eq!(flush_marker(&peers[1]), Some((ChromKind::FlushA, 3)));
        promise(&mut m, 3, 1);
        assert!(m.flush_round(1).is_ok());
        assert_eq!(flush_marker(&peers[0]), Some((ChromKind::FlushB, 3)));
        assert_eq!(flush_marker(&peers[1]), Some((ChromKind::FlushB, 3)));
        assert!(peers.iter().all(|ep| ep.try_recv().is_err()));
    }

    /// A peer runs at most one round ahead: its marker of the next round
    /// arrives while machine 0 still waits for a slower peer's, and the
    /// count keeps it for the round it belongs to.
    #[test]
    fn a_marker_of_the_next_round_counts_for_that_round() {
        let (mut m, _peers) = triangle();
        promise(&mut m, 0, 0);
        assert!(holds(&m, 0) && !holds(&m, 1));
        // Machine 1 finished round (0, 1) and sent step 1's first marker;
        // machine 2's (0, 1) marker is still on its way.
        handle_from(&mut m, 1, ChromKind::FlushB, enc(&0u64));
        handle_from(&mut m, 1, ChromKind::FlushA, enc(&1u64));
        assert!(!holds(&m, 1));
        handle_from(&mut m, 2, ChromKind::FlushB, enc(&0u64));
        assert!(holds(&m, 1) && !holds(&m, 2));
        handle_from(&mut m, 2, ChromKind::FlushA, enc(&1u64));
        assert!(holds(&m, 2) && !holds(&m, 3));
        assert_eq!(next_marks(&m, &m.marks), [0, 3, 3]);
    }

    /// The remote tasks of a step are one set per owner: duplicates merge,
    /// the ids ascend, and it is sent once, when the step has executed,
    /// ahead of the step's first marker.
    #[test]
    fn remote_tasks_of_a_step_leave_as_one_ascending_set() {
        let (mut m, peers) = ring();
        let l = m.core.lg.owned_vertices()[0];
        let mut ghosts: Vec<u32> =
            (0..m.core.lg.num_local_vertices() as u32).filter(|&g| !m.core.lg.owns_vertex(g)).collect();
        assert!(ghosts.len() >= 2);
        ghosts.sort_by_key(|&g| std::cmp::Reverse(m.core.lg.vertex_gvid(g)));
        for _ in 0..2 {
            m.core.effects.scheduled = ghosts.iter().map(|&g| (g, 1.0)).chain([(l, 2.0)]).collect();
            m.commit(l);
        }
        assert_eq!((m.pending_total, m.remote_tasks[1].len()), (1, ghosts.len()));
        assert!(peers[0].try_recv().is_err(), "nothing leaves per update");

        at_step(&mut m, 4);
        m.execute_color_step(m.core.lg.vertex_color(l));
        let env = peers[0].try_recv().expect("the step's task set");
        let mut set: Vec<VertexId> = ghosts.iter().map(|&g| m.core.lg.vertex_gvid(g)).collect();
        set.reverse();
        let expected = StepTagged { step: 4, phase: 0, inner: TaskSetMsg { tasks: set } };
        assert_eq!(kind_of(&env), ChromKind::Sched);
        assert_eq!(dec::<StepTagged<TaskSetMsg>>(env.payload), expected);
        assert!(peers[0].try_recv().is_err());
        assert!(m.remote_tasks[1].is_empty() && ghosts.iter().all(|&g| !m.queued[g as usize]));
        promise(&mut m, 4, 0);
        assert!(m.flush_round(0).is_ok());
        assert_eq!(flush_marker(&peers[0]), Some((ChromKind::FlushA, 4)));
        assert!(peers[0].try_recv().is_err());
    }

    /// The master decides the `max_updates` halt and the snapshot trigger
    /// from the counts the sync partials carry — its own plus each peer's
    /// highest — and not from the process's `LiveCounters`, which under
    /// `Transport::Tcp` hold machine 0's updates only (the cap then applied
    /// per machine and snapshots came ~m times late).
    #[test]
    fn the_master_counts_updates_from_the_sync_partials() {
        use crate::config::{SnapshotConfig, SnapshotMode};
        use std::sync::atomic::Ordering;
        let (mut m, peers) = ring();
        m.core.setup.config.max_updates = 100;
        m.core.setup.config.snapshot =
            SnapshotConfig { mode: SnapshotMode::Synchronous, every_updates: 40, max_snapshots: 9 };
        m.pending_total = 1; // work is left: only the cap can halt the run
        m.core.updates_local = 10;
        // One cycle end with machine 1 reporting `updates`: what the master
        // decided, as broadcast.
        let round = |m: &mut Machine, updates: u64| {
            let part = SyncPartialMsg { cycle: m.cycle, partials: Vec::new(), pending: 1, updates };
            handle_from(m, 1, ChromKind::SyncPart, enc(&part));
            assert!(m.cycle_end_round().is_ok());
            m.cycle += 1;
            let env = peers[0].try_recv().expect("the round's globals");
            assert_eq!(kind_of(&env), ChromKind::SyncGlob);
            let g: SyncGlobalsMsg = dec(env.payload);
            (g.halt, g.snapshot)
        };

        // The shared atomic is far past the cap and the interval; the
        // reported 10 + 20 updates are past neither.
        m.core.setup.counters.updates.store(10_000, Ordering::Relaxed);
        assert_eq!(round(&mut m, 20), (false, None));
        // From here the atomic says nothing ran, and the reports decide.
        m.core.setup.counters.updates.store(0, Ordering::Relaxed);
        assert_eq!(round(&mut m, 35), (false, Some(0)), "10 + 35 crosses the interval");
        assert_eq!(round(&mut m, 5), (false, None), "a stale, lower report never lowers the total");
        assert_eq!((m.core.observed_updates(), m.core.last_snap_updates), (45, 45));
        assert_eq!(round(&mut m, 80), (false, Some(0)), "10 + 80: an interval past the last");
        // A rollback re-bases the trigger on the same view.
        m.core.last_snap_updates = 0;
        m.core.reset_engine_state();
        m.reset_engine_state();
        m.pending_total = 1;
        assert_eq!(m.core.last_snap_updates, 90);
        assert_eq!(round(&mut m, 95), (true, None), "10 + 95 crosses the cap");
    }

    /// A partial can overtake the cycle's last flush round: machine 1 ran
    /// the last step and sent its sync partial while machine 0 still waits
    /// in that step's second flush round for machine 2's marker. The
    /// partial is folded as it arrives and counted once, and the cycle end
    /// then waits for machine 2's partial alone.
    #[test]
    fn a_partial_that_overtakes_the_last_flush_round_is_counted_once() {
        let (mut m, peers) = triangle();
        with_sum_sync(&mut m);
        let last = m.num_colors as u64 - 1;
        at_step(&mut m, last);
        promise(&mut m, last, 0);
        let send = |j: usize, kind: ChromKind, payload| peers[j - 1].send(MachineId(0), kind as u16, payload);
        send(1, ChromKind::FlushB, enc(&last));
        send(1, ChromKind::SyncPart, partial(0, 10.0, 2, 7));
        send(2, ChromKind::FlushB, enc(&last));
        assert!(m.flush_round(1).is_ok());
        assert_eq!((m.pend, m.core.observed_updates()), (2, 7), "folded as it arrived");
        assert_eq!(next_marks(&m, &m.votes), [0, 1, 0], "machine 1's vote, and only its");

        send(2, ChromKind::SyncPart, partial(0, 100.0, 0, 4));
        assert_eq!(m.cycle_end_round().ok(), Some((false, None)));
        assert_eq!((m.pend, m.core.observed_updates()), (0, 11));
        for ep in &peers {
            assert_eq!(flush_marker(ep), Some((ChromKind::FlushB, last)));
            let env = ep.try_recv().expect("the verdict");
            assert_eq!(kind_of(&env), ChromKind::SyncGlob);
            let g: SyncGlobalsMsg = dec(env.payload);
            let sum: Vec<f64> = dec(g.globals[0].2.clone());
            assert_eq!((g.cycle, g.halt, sum), (0, false, vec![111.0]), "1 + 10 + 100");
            assert!(ep.try_recv().is_err());
        }
    }

    /// `reset_engine_state` (rollback, crash wipe) drops the cycle end's
    /// record: a partial folded or a vote noted before the crash would
    /// reach the restarted cycle 0 — "sync round out of step", or a stale
    /// partial counted in place of the real one. The same holds for every
    /// engine buffer: a rollback or an adoption must find no pre-crash row,
    /// task, vote or count in one, as `Batcher::clear` guarantees for the
    /// queues.
    #[test]
    fn reset_drops_the_cycle_ends_record_and_every_other_volatile_field() {
        let (mut m, peers) = ring();
        with_sum_sync(&mut m);
        m.initial_schedule();
        at_step(&mut m, 5);
        m.cycle = 3;
        handle_from(&mut m, 1, ChromKind::SyncPart, partial(3, 9.0, 4, 9));
        handle_from(&mut m, 1, ChromKind::SnapDone, Bytes::new());
        assert_eq!((m.pend, next_marks(&m, &m.votes)), (4, vec![0, 8]));
        m.verdict = Some(SyncGlobalsMsg { cycle: 3, globals: Vec::new(), halt: false, snapshot: None });
        m.resumed = true;
        // An update that left a row in an open block and a task in the set
        // for machine 1.
        let l = *m.core.lg.owned_vertices().iter().find(|&&l| !m.core.lg.vertex_mirrors(l).is_empty()).unwrap();
        let ghost = (0..m.core.lg.num_local_vertices() as u32).find(|&g| !m.core.lg.owns_vertex(g)).unwrap();
        m.core.effects.dirty_self = true;
        m.core.effects.scheduled.push((ghost, 1.0));
        m.commit(l);
        assert!(m.blocks.iter().flatten().any(|b| !b.buf.is_empty()));
        assert!(m.queued[ghost as usize] && m.remote_tasks[1] == [ghost]);

        m.reset_engine_state();
        assert_eq!((m.step, m.cycle, m.pending_total, m.pend), (0, 0, 0, 0));
        assert!(m.accs.is_empty(), "a stale partial must not reach the restarted cycle 0");
        assert_eq!(next_marks(&m, &m.votes), [0, 0], "a pre-crash vote survived");
        assert!(m.verdict.is_none() && !m.resumed, "a pre-crash verdict survived");
        assert!(m.queues.iter().all(|q| q.is_empty()) && !m.queued.contains(&true));
        assert_eq!(m.queued.len(), m.core.lg.num_local_vertices());
        assert!(m.blocks.iter().flatten().all(|b| b.buf.is_empty()), "a pre-crash row survived");
        assert!(m.remote_tasks.iter().all(|t| t.is_empty()), "a pre-crash task survived");
        assert_eq!(next_marks(&m, &m.marks), [0, 0], "a pre-crash marker survived");
        assert!(peers[0].try_recv().is_err(), "a reset sends nothing");
    }
}
