//! The chromatic engine (§4.2.1).
//!
//! Given a proper vertex colouring, executing all scheduled vertices of one
//! colour — a *colour-step* — satisfies the edge consistency model, because
//! no two adjacent vertices share a colour (full consistency uses a
//! second-order colouring, vertex consistency a single colour). Changes to
//! ghost data are communicated **asynchronously while the colour-step
//! runs**, and a full communication barrier separates colour-steps.
//!
//! The colour-step is the unit of exchange. Vertex rows and edge rows are
//! collected in one open *block* per (destination, kind) — the
//! `(step, phase)` tag once, then rows back to back — which goes on the
//! wire when it reaches `BLOCK_BYTES` (so communication still overlaps
//! the step), when a row of another `(step, phase)` joins its slot, and at
//! the latest when the round ends.
//!
//! A row's role is the receiver's ownership of its datum (§4.2.1: a
//! writer's change goes to the owner, who passes it to every other
//! replica). A row that reaches a mirror is a ghost push, applied by
//! version; one that reaches the owner is a write-back, applied and
//! bumped, and a vertex's is forwarded to every mirror but its writer.
//!
//! The barrier is rounds of FIFO markers, like recovery's `FlushMark`. A
//! round's end is one message to each peer, the `(step, phase)`-tagged
//! *set* of its vertices the step scheduled (duplicates merge, as in the
//! local queues; often empty). Outside full consistency one round, `s`,
//! ends step `s`; under full consistency, the one model with vertex
//! write-backs, those applied in round `2·s` are forwarded to the other
//! mirrors ahead of round `2·s + 1`'s empty ends. Per-channel FIFO makes a
//! peer's round end proof that all it sent in the round has arrived, so a
//! machine enters the next colour-step once it holds every surviving
//! peer's. The one invariant: **no row outlives its round's end** —
//! `flush_round` closes every block before the task sets.
//!
//! Between colour *cycles* (one pass over all colours) every machine
//! broadcasts its sync partial, its vote of round `cycle` in a second
//! `Markers`. Holding every survivor's, it decides with one pure function
//! of them all in machine-id order, `decide`: the globals, bit for bit the
//! same on every machine, halting ("the entire cycle executed zero updates
//! and all schedulers are empty") and the next checkpoint. There is no
//! master and no verdict. A checkpoint (§4.3's synchronous snapshot:
//! suspend, flush, save) named at cycle `k`'s end is captured after cycle
//! `k + 1`'s last flush round, before the partial leaves: every row of the
//! cycle has arrived, and no peer sends the next cycle's traffic before it
//! holds that partial, so the capture is a cut. It may fall in the cycle
//! that halts. Every wait, a flush round's or the cycle end's, is one
//! receive loop, `wait`, on what `handle_msg` decoded and recorded.
//!
//! A crash loses `Volatile`, which `reset_engine_state` replaces whole; it
//! keeps the `Machine`, the colour count and the run's `steps_total`.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use bytes::{BufMut, BytesMut};
use graphlab_atoms::LocalGraphInit;
use graphlab_graph::{ConsistencyModel, EdgeId, MachineId, VertexId};
use graphlab_net::codec::Codec;
use graphlab_net::{Endpoint, Envelope, RecvError};

use crate::driver::{MachineResult, MachineSetup};
use crate::globals::GlobalRegistry;
use crate::machine::Machine;
use crate::messages::*;
use crate::recovery::{self, Markers, RecoveryHost, RecoveryPhase, Step, RECOVERY_POLL};
use crate::sync::{combine_partials, finalize_into, local_partials};
use crate::update::UpdateFunction;

const RECV_TIMEOUT: Duration = Duration::from_secs(30);

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
}

impl RowKind {
    const ALL: [RowKind; 2] = [RowKind::VData, RowKind::EData];

    fn wire(self) -> ChromKind {
        match self {
            RowKind::VData => ChromKind::VData,
            RowKind::EData => ChromKind::EData,
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

/// Unwinds the BSP call stack to the run loop with the [`crate::recovery`]
/// step that preempted it (`Continue` = a round is in progress).
struct Interrupt(Step);

pub(crate) struct ChromaticMachine<V, E, U: ?Sized> {
    /// The machine under the engine: everything the locking engine has too.
    core: Machine<V, E>,
    update: Arc<U>,
    /// The colouring's, which a crash keeps.
    num_colors: u32,
    /// What a crash loses, replaced whole by `reset_engine_state`.
    vol: Volatile,
    /// Colour-steps executed across the whole run (unlike `vol.step`, never
    /// reset by a rollback — the metrics source).
    steps_total: u64,
}

/// The BSP machinery's state: everything a crash, a rollback or an
/// adoption loses. One constructor builds it at the start and on every
/// reset, so no pre-crash row, task, marker, vote or count can outlive one.
struct Volatile {
    // Task queues, one per colour; `queued` dedups, per local vertex: an
    // owned one is in its colour's queue, a ghost in this step's
    // `remote_tasks`.
    queues: Vec<VecDeque<u32>>,
    queued: Vec<bool>,
    pending_total: u64,
    /// The tasks the running step's updates scheduled on each other
    /// machine's vertices (local ids): one set ends its first round, and
    /// runs in a later step, as per-update forwarding's did.
    remote_tasks: Vec<Vec<u32>>,

    step: u64,
    /// Steps executed since the (re)start: `step + 1` once `step` has run.
    done: u64,
    /// Tasks of step `done` from a peer one step ahead, enqueued once it has
    /// run: under vertex consistency's one colour they would run in it.
    early: Vec<u32>,
    /// Rounds' ends received (a peer's task set of the round), by round
    /// `rounds·step + phase`. A peer runs at most one round ahead, and its
    /// end of the next round implies the current one's.
    marks: Markers,
    /// Colour cycles completed since the BSP machinery (re)started.
    cycle: u64,
    /// The cycle end's record: each machine's partial of this cycle by
    /// sender, this machine's own included, and the votes.
    parts: Vec<Option<SyncPartialMsg>>,
    votes: Markers,
    /// The checkpoint the last cycle end named, captured at this one's.
    snapshot: Option<u64>,
    /// The snapshot window's base, an update total of some cycle end's
    /// partials; `None` from a reset until the next cycle end re-bases it.
    window: Option<u64>,
    /// The open row blocks: `blocks[dst][kind as usize]`. Blocks of one
    /// `(step, phase)` leave in slot order, and a row may overtake one of
    /// another kind. That is safe: a proper colouring gives every datum at
    /// most one writer per colour-step, so no two rows of a step carry the
    /// same datum, and every row of a step is applied before the next.
    blocks: Vec<[Block; RowKind::ALL.len()]>,
}

impl Volatile {
    /// Empty queues, sets and blocks at step 0, cycle 0, sized by `core`'s
    /// local graph and machine count.
    fn new<V, E>(core: &Machine<V, E>, num_colors: u32) -> Self {
        let (m, nv) = (core.slots(), core.lg.num_local_vertices());
        Volatile {
            queues: (0..num_colors).map(|_| VecDeque::new()).collect(),
            queued: vec![false; nv],
            pending_total: 0,
            remote_tasks: vec![Vec::new(); m],
            step: 0,
            done: 0,
            early: Vec::new(),
            marks: Markers::new(m),
            cycle: 0,
            parts: vec![None; m],
            votes: Markers::new(m),
            snapshot: None,
            window: None,
            blocks: (0..m).map(|_| Default::default()).collect(),
        }
    }
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
        // The run opens the snapshot window at 0; a reset re-bases it.
        let vol = Volatile { window: Some(0), ..Volatile::new(&core, num_colors) };
        ChromaticMachine { vol, steps_total: 0, num_colors, core, update }
    }

    fn enqueue_local(&mut self, l: u32) {
        if !self.vol.queued[l as usize] {
            self.vol.queued[l as usize] = true;
            let c = self.core.lg.vertex_color(l) as usize;
            self.vol.queues[c].push_back(l);
            self.vol.pending_total += 1;
        }
    }

    /// The flush rounds of a colour-step: two under full consistency, whose
    /// owners forward write-backs in the second, one otherwise.
    fn rounds(&self) -> u8 {
        1 + u8::from(self.core.setup.config.consistency == ConsistencyModel::Full)
    }

    /// The flush round of a `(step, phase)` tag, in the machines' order.
    fn round(&self, (step, phase): (u64, u8)) -> u64 {
        u64::from(self.rounds()) * step + u64::from(phase)
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
            // Resumed: the BSP machinery restarts at cycle 0.
        }
        // The last partial may still sit in the batch queues, and a peer
        // that has not decided yet waits for it.
        self.core.net.flush_all();
        MachineResult { steps: self.steps_total, ..self.core.finish() }
    }

    /// The BSP cycle machinery. Returns `Ok(())` on a normal halt and
    /// unwinds with an [`Interrupt`] when a failure (ours or a peer's)
    /// preempts it.
    fn run_cycles(&mut self) -> Result<(), Interrupt> {
        loop {
            for color in 0..self.num_colors {
                self.execute_color_step(color);
                for phase in 0..self.rounds() {
                    self.flush_round(phase)?;
                }
                self.vol.step += 1;
                self.steps_total += 1;
                self.core.maybe_straggle();
            }
            if self.cycle_end_round()? {
                return Ok(());
            }
            self.vol.cycle += 1;
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
        let block = &self.vol.blocks[dst.index()][kind as usize];
        if !block.buf.is_empty() && block.tag != tag {
            self.close_block(dst, kind);
        }
        let block = &mut self.vol.blocks[dst.index()][kind as usize];
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
        let Self { vol, core, .. } = self;
        let block = &mut vol.blocks[dst.index()][kind as usize];
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
                    self.vol.step,
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

    /// Executes all queued vertices of `color`, then queues `early`'s tasks.
    fn execute_color_step(&mut self, color: u32) {
        // The step executes what its queue held when it began: a vertex
        // that schedules itself meanwhile runs next cycle.
        let mut batch = std::mem::take(&mut self.vol.queues[color as usize]);
        self.vol.pending_total -= batch.len() as u64;
        for &l in &batch {
            self.vol.queued[l as usize] = false;
        }
        for &l in &batch {
            // Colour steps ignore priorities.
            self.core.execute(&*self.update, l, false);
            self.commit(l);
            // Respect the global update cap: stop executing this step.
            if self.core.capped(self.core.live_updates()) {
                break;
            }
        }
        // The drained queue keeps its buffer.
        batch.clear();
        batch.append(&mut self.vol.queues[color as usize]);
        self.vol.queues[color as usize] = batch;
        self.vol.done = self.vol.step + 1;
        std::mem::take(&mut self.vol.early).into_iter().for_each(|l| self.enqueue_local(l));
    }

    /// Applies an update's effects: version bumps, ghost pushes,
    /// write-backs and schedule forwards.
    fn commit(&mut self, l: u32) {
        let me = self.core.me();
        let tag = (self.vol.step, 0);
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
                self.send_row(owner, RowKind::EData, tag, |buf, data| {
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
                self.send_row(owner, RowKind::VData, tag, |buf, data| {
                    VertexRow::put(buf, gvid, 0, 0, data)
                });
            }
        }

        // Scheduling: local tasks enqueue directly, remote ones join their
        // owner's set for this step.
        for &(lv, _) in &effects.scheduled {
            if self.core.lg.owns_vertex(lv) {
                self.enqueue_local(lv);
            } else if !std::mem::replace(&mut self.vol.queued[lv as usize], true) {
                self.vol.remote_tasks[self.core.lg.vertex_owner(lv).index()].push(lv);
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
        let (gvid, tag) = (self.encode_vertex(l), (self.vol.step, 0));
        for k in 0..self.core.lg.vertex_mirrors(l).len() {
            let mm = self.core.lg.vertex_mirrors(l)[k];
            self.send_row(mm, RowKind::VData, tag, |buf, data| {
                VertexRow::put(buf, gvid, version, 0, data)
            });
        }
    }

    /// Closes every open block, sends each surviving peer the round's end
    /// behind them (its task set, empty after phase 0), then blocks until
    /// every surviving peer's end arrived — and with it, by per-channel
    /// FIFO, all it sent in the round. Dead machines owe nothing: their
    /// atoms were adopted and the fabric drops their in-flight traffic.
    fn flush_round(&mut self, phase: u8) -> Result<(), Interrupt> {
        let step = self.vol.step;
        debug_assert!(
            self.vol.blocks.iter().flatten().all(|b| b.buf.is_empty() || (b.tag.0 == step && b.tag.1 >= phase)),
            "a row outlived the end of its (step, phase)"
        );
        for (dst, kind) in
            (0..self.vol.blocks.len()).flat_map(|j| RowKind::ALL.map(|k| (MachineId::from(j), k)))
        {
            if !self.vol.blocks[dst.index()][kind as usize].buf.is_empty() {
                self.close_block(dst, kind);
            }
        }
        let (Volatile { remote_tasks, queued, .. }, Machine { lg, rec, net, .. }) = (&mut self.vol, &mut self.core);
        for dst in rec.peers() {
            let tasks = &mut remote_tasks[dst.index()];
            // Ascending local ids are ascending global ids.
            tasks.sort_unstable();
            net.send_with(dst, rec.wire(ChromKind::Sched), |buf| {
                StepTagged::<TaskSetMsg>::put(buf, step, phase, |buf| {
                    TaskSetMsg::put(buf, tasks.len(), tasks.iter().map(|&l| lg.vertex_gvid(l)))
                })
            });
            for l in tasks.drain(..) {
                queued[l as usize] = false;
            }
        }
        let r = self.round((step, phase));
        self.wait(|m| m.core.rec.holds(&m.vol.marks, r).then_some(()))
    }

    /// Walks the row block in `env` in place, handing `row` each row with
    /// the block's step as it is met. A block travels ahead of its round's
    /// end on the channel.
    fn on_block<'a, R>(
        &mut self,
        env: &'a Envelope,
        read: impl Fn(&mut &'a [u8]) -> Option<R>,
        mut row: impl FnMut(&mut Self, u64, R),
    ) {
        let tag = read_all(&env.payload, |p| {
            StepTagged::<R>::read_block(p, read, |step, r| row(self, step, r))
        });
        debug_assert!(self.round(tag) >= self.vol.marks.next(env.src), "machine {} sent {tag:?} late", env.src.0);
    }

    /// Handles one engine envelope: the one place its payload is decoded
    /// and what it brings recorded.
    fn handle_msg(&mut self, kind: ChromKind, env: Envelope) {
        match kind {
            ChromKind::VData => self.on_block(&env, VertexRow::read, |this, step, (vid, version, _, data)| {
                let Some(l) = this.core.lg.local_vertex(vid) else { return };
                let datum = dec_in(&env.payload, data);
                if !this.core.lg.owns_vertex(l) {
                    this.core.lg.apply_vertex_update(l, version, datum);
                    return;
                }
                // A write-back. Forward it to every mirror but the writer,
                // which holds what it sent us (phase 1): under full
                // consistency, the only one with write-backs, the datum has
                // no other writer in the step.
                debug_assert_eq!(this.rounds(), 2, "a vertex write-back outside full consistency");
                *this.core.lg.vertex_data_mut(l) = datum;
                let version = this.core.lg.bump_vertex_version(l);
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
            ChromKind::EData => self.on_block(&env, EdgeRow::read, |this, _, (eid, version, data)| {
                let Some(l) = this.core.lg.local_edge(eid) else { return };
                let datum = dec_in(&env.payload, data);
                if this.core.lg.owns_edge(l) {
                    // A write-back. An edge has exactly two replicas and it
                    // came from the other, so no forward is needed.
                    *this.core.lg.edge_data_mut(l) = datum;
                    this.core.lg.bump_edge_version(l);
                } else {
                    this.core.lg.apply_edge_update(l, version, datum);
                }
            }),
            ChromKind::Sched => {
                let tag = read_all(&env.payload, |p| {
                    let tag = StepTagged::<TaskSetMsg>::read(p)?;
                    TaskSetMsg::read(p, |gv| {
                        let l = self.core.lg.local_vertex(gv).expect("scheduled vertex is local");
                        debug_assert!(self.core.lg.owns_vertex(l) && tag.0 <= self.vol.done);
                        if tag.0 < self.vol.done {
                            self.enqueue_local(l);
                        } else {
                            self.vol.early.push(l);
                        }
                    })?;
                    Some(tag)
                });
                let r = self.round(tag);
                debug_assert_eq!(r, self.vol.marks.next(env.src), "machine {} skipped a flush round", env.src.0);
                self.vol.marks.note(env.src, r);
            }
            ChromKind::SyncPart => {
                let p: SyncPartialMsg = dec(env.payload);
                assert_eq!(p.cycle, self.vol.cycle, "sync round out of step");
                self.vol.votes.note(env.src, p.cycle);
                self.vol.parts[env.src.index()] = Some(p);
            }
        }
    }

    /// The cycle end: captures the checkpoint the last one named (the cut),
    /// broadcasts this machine's partial and, holding every survivor's,
    /// decides with them all. Returns whether the run halts.
    fn cycle_end_round(&mut self) -> Result<bool, Interrupt> {
        if let Some(id) = self.vol.snapshot.take() {
            self.core.capture_checkpoint(id);
        }
        let mine = SyncPartialMsg {
            cycle: self.vol.cycle,
            partials: local_partials(&self.core.setup.syncs, &self.core.lg),
            pending: self.vol.pending_total,
            updates: self.core.updates_local,
        };
        self.core.broadcast(ChromKind::SyncPart, &enc(&mine));
        self.vol.parts[self.core.me().index()] = Some(mine);
        self.wait(|m| m.core.rec.holds(&m.vol.votes, m.vol.cycle).then_some(()))?;
        let parts: Vec<SyncPartialMsg> = self.vol.parts.iter_mut().filter_map(Option::take).collect();
        let Machine { setup, lg, snapshots, globals, .. } = &mut self.core;
        let (halt, snapshot) = decide(setup, &parts, lg.total_vertices(), *snapshots, &mut self.vol.window, globals);
        self.vol.snapshot = snapshot;
        Ok(halt)
    }
}

/// The cycle end, a function of the partials (in machine-id order) and of
/// what every survivor holds alike: the setup, the next checkpoint id
/// (recovery's order sets it on all) and the snapshot window's base
/// (`None` after a reset, when each machine's own count differs: re-based
/// here, naming none). Finalizes the syncs into `globals`; halts when no
/// task is pending, the partials' update total reaches the cap or the stop
/// predicate holds (§3.5); else names `snapshots`, to capture at the next
/// cycle end, once the total has moved its interval past the window.
fn decide<V, E>(
    setup: &MachineSetup<V, E>,
    parts: &[SyncPartialMsg],
    total_vertices: u64,
    snapshots: u64,
    window: &mut Option<u64>,
    globals: &mut GlobalRegistry,
) -> (bool, Option<u64>) {
    let mut accs: Vec<_> = setup.syncs.iter().map(|op| op.init_acc()).collect();
    parts.iter().for_each(|p| combine_partials(&setup.syncs, &mut accs, &p.partials));
    finalize_into(&setup.syncs, accs, total_vertices, globals);
    let (updates, cap) = (parts.iter().map(|p| p.updates).sum::<u64>(), setup.config.max_updates);
    let halt = parts.iter().all(|p| p.pending == 0)
        || (cap > 0 && updates >= cap)
        || setup.stop.as_ref().is_some_and(|f| f(globals));
    let snapshot = window.filter(|&w| !halt && setup.config.snapshot.due(snapshots, updates.saturating_sub(w)));
    if snapshot.is_some() || window.is_none() {
        *window = Some(updates);
    }
    (halt, snapshot.map(|_| snapshots))
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

    fn reset_engine_state(&mut self) {
        self.vol = Volatile::new(&self.core, self.num_colors);
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
    use bytes::Bytes;
    use crate::driver::tests::{scripted_machine, NoUpdate};
    use crate::reference::InitialSchedule;
    use crate::snapshot::restore_snapshot;
    use graphlab_atoms::VertexPartition;
    use graphlab_graph::{AtomId, GraphBuilder};
    use graphlab_net::BatchPolicy;

    type Machine = ChromaticMachine<f64, f64, NoUpdate>;

    /// Machine `me` of `machines` over `graph`, unbatched — every block is
    /// an envelope of its own on the wire — and the other machines'
    /// endpoints, ascending (for machine 0, `peers[j - 1]` is machine `j`'s).
    fn machine(
        graph: &graphlab_graph::DataGraph<f64, f64>,
        partition: &VertexPartition,
        machines: usize,
        me: u16,
    ) -> (Machine, Vec<Endpoint>) {
        let mut config = crate::EngineConfig::new(machines);
        config.batch = BatchPolicy::Disabled;
        let (setup, init, mut eps) =
            scripted_machine(graph, partition, MachineId(me), config, InitialSchedule::AllVertices);
        (ChromaticMachine::new(eps.remove(me.into()), setup, Arc::new(NoUpdate), init), eps)
    }

    /// The complete digraph on `n` vertices, vertex `i` holding `i`.
    fn complete_graph(n: usize) -> graphlab_graph::DataGraph<f64, f64> {
        let mut b = GraphBuilder::new();
        let v: Vec<VertexId> = (0..n).map(|i| b.add_vertex(i as f64)).collect();
        for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).filter(|(i, j)| i != j) {
            b.add_edge(v[i], v[j], 1.0).unwrap();
        }
        b.build()
    }

    /// Machine 0 of [`complete_graph`] over `n` machines, vertex `i` on
    /// machine `i`: machine 0's vertex has a mirror on every peer.
    fn complete(n: usize) -> (Machine, Vec<Endpoint>) {
        let one_each = VertexPartition::from_assignment((0..n as u32).map(AtomId).collect(), n);
        machine(&complete_graph(n), &one_each, n, 0)
    }

    /// [`complete`] on three machines.
    fn triangle() -> (Machine, Vec<Endpoint>) {
        complete(3)
    }

    /// [`triangle`] under full consistency, the one model with vertex
    /// write-backs and a second round.
    fn full_triangle() -> (Machine, Vec<Endpoint>) {
        let (mut m, peers) = triangle();
        m.core.setup.config.consistency = ConsistencyModel::Full;
        (m, peers)
    }

    /// The ring on eight vertices, vertex `i` holding `i`.
    fn ring_graph() -> graphlab_graph::DataGraph<f64, f64> {
        let mut b = GraphBuilder::new();
        let v: Vec<VertexId> = (0..8).map(|i| b.add_vertex(i as f64)).collect();
        for i in 0..8 {
            b.add_edge(v[i], v[(i + 1) % 8], 1.0).unwrap();
        }
        b.build()
    }

    /// Machine `me` of [`ring_graph`] over two machines.
    fn ring(me: u16) -> (Machine, Vec<Endpoint>) {
        machine(&ring_graph(), &VertexPartition::random_hash(8, 4, 3), 2, me)
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

    /// A round's end off the wire: its kind and its tagged task set.
    type RoundEnd = (ChromKind, StepTagged<TaskSetMsg>);

    /// The next envelope at `ep`, read as a round's end.
    fn round_end(ep: &Endpoint) -> Option<RoundEnd> {
        let env = ep.try_recv().ok()?;
        Some((kind_of(&env), dec(env.payload)))
    }

    /// The end of round `(step, phase)` carrying `tasks`, as `round_end`
    /// reads it.
    fn end_with(step: u64, phase: u8, tasks: Vec<VertexId>) -> Option<RoundEnd> {
        Some((ChromKind::Sched, StepTagged { step, phase, inner: TaskSetMsg { tasks } }))
    }

    /// The end of round `(step, phase)` with no task.
    fn marker(step: u64, phase: u8) -> Option<RoundEnd> {
        end_with(step, phase, Vec::new())
    }

    /// The end of round `(step, phase)` with no task, on the wire.
    fn end(step: u64, phase: u8) -> Bytes {
        enc(&marker(step, phase).unwrap().1)
    }

    /// Scripts every peer's end of round `(step, phase)`, so `flush_round`
    /// returns without waiting.
    fn promise(m: &mut Machine, step: u64, phase: u8) {
        for j in 1..m.vol.blocks.len() as u16 {
            handle_from(m, j, ChromKind::Sched, end(step, phase));
        }
    }

    /// `m` as it enters `step` (> 0): every round before it complete.
    fn at_step(m: &mut Machine, step: u64) {
        m.vol.step = step;
        let last = m.round((step, 0)) - 1;
        for j in (0..m.vol.blocks.len() as u16).filter(|&j| MachineId(j) != m.core.me()) {
            m.vol.marks.note(MachineId(j), last);
        }
    }

    /// Whether machine 0 holds every peer's marker of `round`.
    fn holds(m: &Machine, round: u64) -> bool {
        m.core.rec.holds(&m.vol.marks, round)
    }

    /// The first round whose marker (or vote) in `marks` machine 0 lacks,
    /// per machine.
    fn next_marks(m: &Machine, marks: &Markers) -> Vec<u64> {
        (0..m.vol.blocks.len() as u16).map(|j| marks.next(MachineId(j))).collect()
    }

    /// The handle of [`with_sum_sync`]'s global.
    const SUM: crate::GlobalHandle<Vec<f64>> = crate::GlobalHandle::new(0);

    /// Registers one sync on `m`, the sum of its vertices' data.
    fn with_sum_sync(m: &mut Machine) {
        use crate::sync::{FnSync, RegisteredSync};
        let op = FnSync::new(1, |_, d: &f64| vec![*d], |acc, _| acc);
        m.core.setup.syncs = Arc::new(vec![Box::new(RegisteredSync { id: SUM.id(), op })]);
    }

    /// A sync partial of `cycle` whose sum is `sum`.
    fn partial(cycle: u64, sum: f64, pending: u64, updates: u64) -> Bytes {
        enc(&SyncPartialMsg { cycle, partials: vec![(SUM.id(), enc(&vec![sum]))], pending, updates })
    }

    /// The partial `m` broadcasts at its cycle end, as it stands.
    fn own_partial(m: &Machine) -> SyncPartialMsg {
        let partials = local_partials(&m.core.setup.syncs, &m.core.lg);
        SyncPartialMsg { cycle: m.vol.cycle, partials, pending: m.vol.pending_total, updates: m.core.updates_local }
    }

    /// What `m` decided at its last cycle end: the bits of [`SUM`], the
    /// halt, the checkpoint named and the window.
    type Decided = (Option<u64>, bool, Option<u64>, Option<u64>);

    /// Runs `m`'s cycle end, every partial it waits for already queued.
    fn decided(m: &mut Machine) -> Decided {
        let Ok(halt) = m.cycle_end_round() else { panic!("a vote was not queued") };
        (m.core.globals.get(SUM).map(|s| s[0].to_bits()), halt, m.vol.snapshot, m.vol.window)
    }

    /// A block leaves when it reaches `BLOCK_BYTES`, when a row of another
    /// `(step, phase)` joins its slot, and at the latest when the round
    /// ends — on every peer's channel ahead of the round's end, here an
    /// empty task set. (Under full consistency: the forward is a phase-1
    /// row.)
    #[test]
    fn a_block_closes_when_full_on_a_change_of_tag_and_when_the_round_ends() {
        let (mut m, peers) = full_triangle();
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

        // End of the round: what is open leaves ahead of the round's end —
        // the forward of round B included.
        promise(&mut m, 0, 0);
        assert!(m.flush_round(0).is_ok());
        let forwarded = (ChromKind::VData, (0, 1), vec![(0, version + 1)]);
        assert_eq!(vertex_block(&peers[0]), Some(forwarded));
        assert_eq!(vertex_block(&peers[1]), Some((ChromKind::VData, (0, 0), vec![(0, version)])));
        assert_eq!(round_end(&peers[0]), marker(0, 0));
        assert_eq!(round_end(&peers[1]), marker(0, 0));
        promise(&mut m, 0, 1);
        assert!(m.flush_round(1).is_ok());
        assert_eq!(round_end(&peers[0]), marker(0, 1));
        assert_eq!(round_end(&peers[1]), marker(0, 1));
        assert!(m.vol.blocks.iter().flatten().all(|b| b.buf.is_empty()));
        assert!(peers.iter().all(|ep| ep.try_recv().is_err()));
    }

    /// A racing peer: machine 1 is already in step 3 while machine 0 has not
    /// begun it (it waits for a slower peer's last marker of step 2, or, at
    /// a cycle end, for a slower peer's partial).
    /// Its write-back is applied at once; the forward to the other mirror waits
    /// in a phase-1 block tagged 3, which leaves when step 3's first round
    /// ends, ahead of both its round ends — and never to the writer.
    #[test]
    fn a_write_back_of_the_next_step_is_forwarded_in_that_steps_second_round() {
        let (mut m, peers) = full_triangle();
        at_step(&mut m, 3);
        let mut wb = BytesMut::new();
        StepTagged::<VertexRow>::put(&mut wb, 3, 0, |buf| {
            VertexRow::put(buf, VertexId(0), 0, 0, &enc(&7.5f64))
        });
        handle_from(&mut m, 1, ChromKind::VData, wb.freeze());
        let l = m.core.lg.local_vertex(VertexId(0)).unwrap();
        assert_eq!((*m.core.lg.vertex_data(l), m.core.lg.vertex_version(l)), (7.5, 1));
        assert!(peers.iter().all(|ep| ep.try_recv().is_err()), "nothing leaves before the step");

        m.execute_color_step(0);
        promise(&mut m, 3, 0);
        assert!(m.flush_round(0).is_ok());
        assert_eq!(round_end(&peers[0]), marker(3, 0), "not to the writer");
        assert_eq!(vertex_block(&peers[1]), Some((ChromKind::VData, (3, 1), vec![(0, 1)])));
        assert_eq!(round_end(&peers[1]), marker(3, 0));
        promise(&mut m, 3, 1);
        assert!(m.flush_round(1).is_ok());
        assert_eq!(round_end(&peers[0]), marker(3, 1));
        assert_eq!(round_end(&peers[1]), marker(3, 1));
        assert!(peers.iter().all(|ep| ep.try_recv().is_err()));
    }

    /// A row's role is the receiver's: one `VData` block from machine 1
    /// holds a ghost push of its own vertex 1, which machine 0 mirrors,
    /// and a write-back of vertex 0, which machine 0 owns. The push is
    /// applied by version (a stale one is not); the write-back is applied,
    /// bumped and forwarded to machine 2 in the step's second round, not
    /// to its writer.
    #[test]
    fn one_vertex_block_carries_a_ghost_push_and_a_write_back() {
        let (mut m, peers) = full_triangle();
        let block = |rows: &[(u32, u64, f64)]| {
            let mut buf = BytesMut::new();
            StepTagged::<VertexRow>::put(&mut buf, 0, 0, |buf| {
                for &(v, version, x) in rows {
                    VertexRow::put(buf, VertexId(v), version, 0, &enc(&x));
                }
            });
            buf.freeze()
        };
        let state = |m: &Machine, v: u32| {
            let l = m.core.lg.local_vertex(VertexId(v)).unwrap();
            (*m.core.lg.vertex_data(l), m.core.lg.vertex_version(l))
        };
        handle_from(&mut m, 1, ChromKind::VData, block(&[(1, 5, 3.5), (0, 0, 7.5)]));
        assert_eq!((state(&m, 1), state(&m, 0)), ((3.5, 5), (7.5, 1)));
        handle_from(&mut m, 1, ChromKind::VData, block(&[(1, 4, 9.0)]));
        assert_eq!(state(&m, 1), (3.5, 5), "a stale push is dropped");

        promise(&mut m, 0, 0);
        assert!(m.flush_round(0).is_ok());
        assert_eq!(round_end(&peers[0]), marker(0, 0), "not to the writer");
        assert_eq!(vertex_block(&peers[1]), Some((ChromKind::VData, (0, 1), vec![(0, 1)])));
        assert_eq!(round_end(&peers[1]), marker(0, 0));
        assert!(peers.iter().all(|ep| ep.try_recv().is_err()));
    }

    /// A peer runs at most one round ahead: its end of the next round
    /// arrives while machine 0 still waits for a slower peer's, and the
    /// count keeps it for the round it belongs to. Under edge consistency
    /// a round is a step, and the early end's task waits until machine 0
    /// has run that step too: under vertex consistency, whose one colour
    /// every step shares, it would run in it (on 3 and 4 machines the
    /// `Halve` cell of `engines.rs`'s machine-count test read 2–3 fewer
    /// updates than on 1).
    #[test]
    fn a_marker_of_the_next_round_counts_for_that_round() {
        let (mut m, _peers) = triangle();
        promise(&mut m, 0, 0);
        m.vol.step = 1;
        m.execute_color_step(1);
        assert!(holds(&m, 0) && !holds(&m, 1));
        // Machine 1 finished step 1 and sent step 2's end, which schedules
        // machine 0's vertex; machine 2's end of step 1 is still on its way.
        handle_from(&mut m, 1, ChromKind::Sched, end(1, 0));
        let task = enc(&end_with(2, 0, vec![VertexId(0)]).unwrap().1);
        handle_from(&mut m, 1, ChromKind::Sched, task);
        assert!(!holds(&m, 1));
        handle_from(&mut m, 2, ChromKind::Sched, end(1, 0));
        assert!(holds(&m, 1) && !holds(&m, 2));
        assert_eq!((m.vol.pending_total, m.vol.early.len()), (0, 1), "held until step 2 has run here");
        m.vol.step = 2;
        m.execute_color_step(2);
        assert_eq!((m.vol.pending_total, m.vol.early.len()), (1, 0), "queued once it has");
        handle_from(&mut m, 2, ChromKind::Sched, end(2, 0));
        assert!(holds(&m, 2) && !holds(&m, 3));
        assert_eq!(next_marks(&m, &m.vol.marks), [0, 3, 3]);
    }

    /// The remote tasks of a step are one set per owner: duplicates merge,
    /// the ids ascend, and it is sent once, as the end of the step's first
    /// round.
    #[test]
    fn remote_tasks_of_a_step_leave_as_one_ascending_set() {
        let (mut m, peers) = ring(0);
        let l = m.core.lg.owned_vertices()[0];
        let mut ghosts: Vec<u32> =
            (0..m.core.lg.num_local_vertices() as u32).filter(|&g| !m.core.lg.owns_vertex(g)).collect();
        assert!(ghosts.len() >= 2);
        ghosts.sort_by_key(|&g| std::cmp::Reverse(m.core.lg.vertex_gvid(g)));
        for _ in 0..2 {
            m.core.effects.scheduled = ghosts.iter().map(|&g| (g, 1.0)).chain([(l, 2.0)]).collect();
            m.commit(l);
        }
        assert_eq!((m.vol.pending_total, m.vol.remote_tasks[1].len()), (1, ghosts.len()));
        assert!(peers[0].try_recv().is_err(), "nothing leaves per update");

        at_step(&mut m, 4);
        m.execute_color_step(m.core.lg.vertex_color(l));
        assert!(peers[0].try_recv().is_err(), "nothing leaves when the step has executed");
        promise(&mut m, 4, 0);
        assert!(m.flush_round(0).is_ok());
        let mut set: Vec<VertexId> = ghosts.iter().map(|&g| m.core.lg.vertex_gvid(g)).collect();
        set.reverse();
        assert_eq!(round_end(&peers[0]), end_with(4, 0, set));
        assert!(peers[0].try_recv().is_err());
        assert!(m.vol.remote_tasks[1].is_empty() && ghosts.iter().all(|&g| !m.vol.queued[g as usize]));
    }

    /// Outside full consistency one message ends a step: after executing
    /// it, machine 0 sends each peer the row block of its pushes and then
    /// the round's end, carrying the peer's vertex the step scheduled, and
    /// step `s`'s round is `s`. Under full consistency a step takes rounds
    /// `2·s` and `2·s + 1`, and the second round's end is empty.
    #[test]
    fn outside_full_consistency_one_message_ends_the_step() {
        for (model, rounds) in [(ConsistencyModel::Vertex, 1), (ConsistencyModel::Edge, 1), (ConsistencyModel::Full, 2)] {
            let (mut m, peers) = triangle();
            m.core.setup.config.consistency = model;
            at_step(&mut m, 5);
            let l = m.core.lg.local_vertex(VertexId(0)).unwrap();
            let ghosts = [1, 2].map(|v| m.core.lg.local_vertex(VertexId(v)).unwrap());
            m.core.effects.dirty_self = true;
            m.core.effects.scheduled = ghosts.iter().map(|&g| (g, 1.0)).collect();
            m.commit(l);
            for phase in 0..rounds {
                promise(&mut m, 5, phase);
                assert!(m.flush_round(phase).is_ok());
            }
            for (j, ep) in peers.iter().enumerate() {
                assert_eq!(vertex_block(ep), Some((ChromKind::VData, (5, 0), vec![(0, 1)])), "{model}");
                assert_eq!(round_end(ep), end_with(5, 0, vec![VertexId(j as u32 + 1)]), "{model}");
                if rounds == 2 {
                    assert_eq!(round_end(ep), marker(5, 1), "{model}");
                }
                assert!(ep.try_recv().is_err(), "{model}: one message per round");
            }
            let r = |s| u64::from(rounds) * s;
            assert_eq!((m.round((5, 0)), m.round((6, 0))), (r(5), r(6)), "{model}");
            assert_eq!(next_marks(&m, &m.vol.marks), [0, r(6), r(6)], "{model}: step 5's rounds held");
        }
    }

    /// Every machine decides the `max_updates` halt and the checkpoint from
    /// the update counts this cycle's partials carry — its own and every
    /// peer's — and not from the process's `LiveCounters`, which under
    /// `Transport::Tcp` hold one machine's updates only (the cap then
    /// applied per machine and snapshots came ~m times late). A checkpoint
    /// named at one cycle end is captured at the next, and a reset drops a
    /// named one and re-bases the window at the first cycle end after it.
    #[test]
    fn every_machine_counts_updates_from_the_cycles_partials() {
        use crate::config::{SnapshotConfig, SnapshotMode};
        use std::sync::atomic::Ordering;
        let (mut m, peers) = ring(0);
        m.core.setup.config.max_updates = 100;
        m.core.setup.config.snapshot =
            SnapshotConfig { mode: SnapshotMode::Synchronous, every_updates: 40, max_snapshots: 9 };
        m.core.updates_local = 10;
        // One cycle end with machine 1 reporting `updates`: what machine 0
        // decided, and its partial on the wire.
        let round = |m: &mut Machine, updates: u64| {
            m.vol.pending_total = 1; // work is left: only the cap can halt the run
            let part = SyncPartialMsg { cycle: m.vol.cycle, partials: Vec::new(), pending: 1, updates };
            handle_from(m, 1, ChromKind::SyncPart, enc(&part));
            let mine = own_partial(m);
            let (_, halt, snapshot, _) = decided(m);
            m.vol.cycle += 1;
            let env = peers[0].try_recv().expect("the partial");
            assert_eq!((kind_of(&env), dec::<SyncPartialMsg>(env.payload)), (ChromKind::SyncPart, mine));
            (halt, snapshot)
        };
        let written = |m: &Machine, id| crate::snapshot::snapshot_exists(&m.core.setup.dfs, "ckpt", id);

        // The shared atomic is far past the cap and the interval; the
        // reported 10 + 20 updates are past neither.
        m.core.setup.counters.updates.store(10_000, Ordering::Relaxed);
        assert_eq!(round(&mut m, 20), (false, None));
        // From here the atomic says nothing ran, and the partials decide.
        m.core.setup.counters.updates.store(0, Ordering::Relaxed);
        assert_eq!(round(&mut m, 35), (false, Some(0)), "10 + 35 crosses the interval");
        assert!(!written(&m, 0), "named, not yet captured");
        assert_eq!(round(&mut m, 40), (false, None), "10 + 40: 5 past the window");
        assert_eq!((written(&m, 0), m.core.snapshots), (true, 1), "captured at the next cycle end");
        assert_eq!(round(&mut m, 80), (false, Some(1)), "10 + 80: an interval past the window");
        // A rollback drops checkpoint 1, named but not captured, and the
        // first cycle end after it re-bases the window on its total.
        m.core.reset_engine_state();
        m.reset_engine_state();
        assert_eq!((m.vol.snapshot, m.vol.window), (None, None));
        assert_eq!(round(&mut m, 85), (false, None), "re-based on 10 + 85");
        assert_eq!((written(&m, 1), m.vol.window), (false, Some(95)));
        assert_eq!(round(&mut m, 95), (true, None), "10 + 95 crosses the cap");
    }

    /// Two machines whose own update counts differ decide every cycle end
    /// alike: globals, halt, checkpoint and window come from the partials
    /// alone. (No per-peer count is there to read: the locking master's
    /// live in `locking.rs`.)
    #[test]
    fn machines_whose_own_counts_differ_decide_alike() {
        use crate::config::{SnapshotConfig, SnapshotMode};
        let (mut ms, _peers): (Vec<Machine>, Vec<_>) = (0..2).map(ring).unzip();
        for (j, m) in ms.iter_mut().enumerate() {
            with_sum_sync(m);
            m.core.setup.config.snapshot =
                SnapshotConfig { mode: SnapshotMode::Synchronous, every_updates: 8, max_snapshots: 9 };
            m.core.reset_engine_state();
            m.reset_engine_state();
            m.vol.pending_total = 1;
            m.core.updates_local = 3 + j as u64;
        }
        let mut seen = Vec::new();
        for updates in [10, 20] {
            let parts = [own_partial(&ms[0]), own_partial(&ms[1])];
            handle_from(&mut ms[0], 1, ChromKind::SyncPart, enc(&parts[1]));
            handle_from(&mut ms[1], 0, ChromKind::SyncPart, enc(&parts[0]));
            let both: Vec<Decided> = ms.iter_mut().map(decided).collect();
            assert_eq!(both[0], both[1], "cycle {}", ms[0].vol.cycle);
            seen.push(both[0]);
            for m in &mut ms {
                m.vol.cycle += 1;
                m.core.updates_local += updates;
            }
        }
        let sum = (0..8).map(f64::from).sum::<f64>().to_bits();
        assert_eq!(seen, [(Some(sum), false, None, Some(7)), (Some(sum), false, Some(0), Some(27))]);
    }

    /// The proptest of the cycle end: `decide` folds the partials in
    /// machine-id order, so their arrival order — a peer's may overtake
    /// the last flush round, this machine's own is recorded when it leaves
    /// — changes no bit of the globals, the halt, the checkpoint or the
    /// window. Partial sums span 44 decades and both signs, so a float
    /// fold in arrival order gives other bits; the update cap, a stop
    /// predicate over the sum and the snapshot window take random values.
    mod order_independence {
        use super::*;
        use crate::config::{SnapshotConfig, SnapshotMode};
        use proptest::prelude::*;

        /// A float of magnitude `10^(e - 22)`, mantissa `1 + k/1000`.
        fn float((e, sign, k): (u32, u32, u32)) -> f64 {
            let x = (1.0 + f64::from(k) / 1000.0) * 10f64.powi(e as i32 - 22);
            if sign == 0 { x } else { -x }
        }

        /// One machine's `(sum, pending, updates)`.
        type Part = ((u32, u32, u32), u64, u64);

        /// Machine 0 of `parts.len()` decides with `setup` applied, each
        /// peer's partial arriving in `order`; the first `early` of them
        /// before its cycle end begins, the rest while it waits.
        fn decide_in(parts: &[Part], setup: &dyn Fn(&mut Machine), order: &[usize], early: usize) -> Decided {
            let (mut m, peers) = complete(parts.len());
            with_sum_sync(&mut m);
            setup(&mut m);
            let l = m.core.lg.owned_vertices()[0];
            let (sum, pending, updates) = parts[0];
            *m.core.lg.vertex_data_mut(l) = float(sum);
            (m.vol.pending_total, m.core.updates_local) = (pending, updates);
            for (i, &j) in order.iter().enumerate() {
                let (sum, pending, updates) = parts[j];
                let payload = partial(0, float(sum), pending, updates);
                if i < early {
                    handle_from(&mut m, j as u16, ChromKind::SyncPart, payload);
                } else {
                    peers[j - 1].send(MachineId(0), ChromKind::SyncPart as u16, payload);
                }
            }
            decided(&mut m)
        }

        proptest! {
            #[test]
            fn the_cycle_end_does_not_depend_on_the_partials_arrival_order(
                parts in proptest::collection::vec(((0u32..44, 0u32..2, 0u32..1000), 0u64..3, 0u64..60), 2..5),
                keys in proptest::collection::vec(0u32..1000, 4..5),
                early in 0usize..4,
                cap in 0u64..200,
                stop_at in (0u32..44, 0u32..2, 0u32..1000),
                every in 1u64..80,
                window in 0u64..100,
                rebase in 0u32..4,
                next_id in 0u64..3,
            ) {
                let n = parts.len();
                let threshold = float(stop_at);
                let window = (rebase > 0).then_some(window);
                let setup = move |m: &mut Machine| {
                    m.core.setup.config.max_updates = cap;
                    m.core.setup.config.snapshot =
                        SnapshotConfig { mode: SnapshotMode::Synchronous, every_updates: every, max_snapshots: 3 };
                    m.core.setup.stop = Some(Arc::new(move |g: &GlobalRegistry| g.get(SUM).is_some_and(|s| s[0] > threshold)));
                    m.core.snapshots = next_id;
                    m.vol.window = window;
                };
                let mut order: Vec<usize> = (1..n).collect();
                order.sort_by_key(|&j| keys[j]);
                let by_id: Vec<usize> = (1..n).collect();
                let want = decide_in(&parts, &setup, &by_id, 0);
                prop_assert_eq!(decide_in(&parts, &setup, &order, early.min(n - 1)), want);
            }
        }
    }

    /// A partial can overtake the cycle's last flush round: machine 1 ran
    /// the last step and sent its sync partial while machine 0 still waits
    /// in that step's flush round for machine 2's round end. The partial is
    /// recorded as it arrives and counted once, and the cycle end then
    /// waits for machine 2's partial alone.
    #[test]
    fn a_partial_that_overtakes_the_last_flush_round_is_counted_once() {
        let (mut m, peers) = triangle();
        with_sum_sync(&mut m);
        let last = m.num_colors as u64 - 1;
        at_step(&mut m, last);
        let send = |j: usize, kind: ChromKind, payload| peers[j - 1].send(MachineId(0), kind as u16, payload);
        send(1, ChromKind::Sched, end(last, 0));
        send(1, ChromKind::SyncPart, partial(0, 10.0, 2, 7));
        send(2, ChromKind::Sched, end(last, 0));
        assert!(m.flush_round(0).is_ok());
        assert_eq!(m.vol.parts[1].as_ref().map(|p| (p.pending, p.updates)), Some((2, 7)), "recorded as it arrived");
        assert_eq!(next_marks(&m, &m.vol.votes), [0, 1, 0], "machine 1's vote, and only its");

        send(2, ChromKind::SyncPart, partial(0, 100.0, 0, 4));
        let mine = own_partial(&m);
        assert_eq!(decided(&mut m), (Some(110f64.to_bits()), false, None, Some(0)), "0 + 10 + 100");
        assert!(m.vol.parts.iter().all(Option::is_none), "the cycle's partials are spent");
        for ep in &peers {
            assert_eq!(round_end(ep), marker(last, 0));
            let env = ep.try_recv().expect("the partial");
            assert_eq!((kind_of(&env), dec::<SyncPartialMsg>(env.payload)), (ChromKind::SyncPart, mine.clone()));
            assert!(ep.try_recv().is_err(), "no verdict");
        }
    }

    /// `reset_engine_state` (rollback, crash wipe) drops the cycle end's
    /// record: a partial or a vote recorded before the crash would reach
    /// the restarted cycle 0 — "sync round out of step", or a stale
    /// partial counted in place of the real one — a named checkpoint is
    /// pre-crash state, and the window was counted on this machine's own.
    /// The same holds for every engine buffer: a rollback or an adoption
    /// must find no pre-crash row, task, vote or count in one, as
    /// `Batcher::clear` guarantees for the queues.
    #[test]
    fn reset_drops_the_cycle_ends_record_and_every_other_volatile_field() {
        let (mut m, peers) = ring(0);
        with_sum_sync(&mut m);
        m.initial_schedule();
        at_step(&mut m, 5);
        m.vol.cycle = 3;
        handle_from(&mut m, 1, ChromKind::SyncPart, partial(3, 9.0, 4, 9));
        assert_eq!((m.vol.parts[1].is_some(), next_marks(&m, &m.vol.votes)), (true, vec![0, 4]));
        (m.vol.snapshot, m.vol.window) = (Some(2), Some(50));
        // An update that left a row in an open block and a task in the set
        // for machine 1.
        let l = *m.core.lg.owned_vertices().iter().find(|&&l| !m.core.lg.vertex_mirrors(l).is_empty()).unwrap();
        let ghost = (0..m.core.lg.num_local_vertices() as u32).find(|&g| !m.core.lg.owns_vertex(g)).unwrap();
        m.core.effects.dirty_self = true;
        m.core.effects.scheduled.push((ghost, 1.0));
        m.commit(l);
        assert!(m.vol.blocks.iter().flatten().any(|b| !b.buf.is_empty()));
        assert!(m.vol.queued[ghost as usize] && m.vol.remote_tasks[1] == [ghost]);

        m.reset_engine_state();
        assert_eq!((m.vol.step, m.vol.cycle, m.vol.pending_total), (0, 0, 0));
        assert!(m.vol.parts.iter().all(Option::is_none), "a stale partial must not reach the restarted cycle 0");
        assert_eq!(next_marks(&m, &m.vol.votes), [0, 0], "a pre-crash vote survived");
        assert_eq!((m.vol.snapshot, m.vol.window), (None, None), "a pre-crash checkpoint or window survived");
        assert!(m.vol.queues.iter().all(|q| q.is_empty()) && !m.vol.queued.contains(&true));
        assert_eq!(m.vol.queued.len(), m.core.lg.num_local_vertices());
        assert!(m.vol.blocks.iter().flatten().all(|b| b.buf.is_empty()), "a pre-crash row survived");
        assert!(m.vol.remote_tasks.iter().all(|t| t.is_empty()), "a pre-crash task survived");
        assert_eq!(next_marks(&m, &m.vol.marks), [0, 0], "a pre-crash marker survived");
        assert!(peers[0].try_recv().is_err(), "a reset sends nothing");
    }

    /// A checkpoint is captured before the partial leaves, which makes it
    /// a cut: on the triangle under full consistency, machine 1 has both
    /// other partials, decided
    /// and sent machine 0 a write-back of the next cycle's first step, to
    /// the vertex machine 0 owns, while machine 2's partial is still on
    /// its way. Machine 0 applies the write-back as it waits, and the
    /// checkpoint the last cycle end named holds the vertex's old value.
    /// Mutation: capture after the decision; the checkpoint then holds the
    /// next cycle's value. (On two machines the peer's next-cycle traffic
    /// follows its partial on the one channel, and `wait` returns at that
    /// partial: it takes a third machine.)
    #[test]
    fn a_checkpoints_rows_are_captured_before_the_partial_leaves() {
        let (mut m, peers) = full_triangle();
        with_sum_sync(&mut m);
        let l = m.core.lg.owned_vertices()[0];
        let v = m.core.lg.vertex_gvid(l);
        let next = m.num_colors as u64;
        at_step(&mut m, next);
        m.vol.snapshot = Some(0);
        let mut wb = BytesMut::new();
        StepTagged::<VertexRow>::put(&mut wb, next, 0, |buf| VertexRow::put(buf, v, 0, 0, &enc(&99.0f64)));
        peers[0].send(MachineId(0), ChromKind::SyncPart as u16, partial(0, 0.0, 1, 0));
        peers[0].send(MachineId(0), ChromKind::VData as u16, wb.freeze());
        peers[1].send(MachineId(0), ChromKind::SyncPart as u16, partial(0, 0.0, 1, 0));

        assert!(!decided(&mut m).1);
        assert_eq!((*m.core.lg.vertex_data(l), m.core.lg.vertex_version(l)), (99.0, 1), "applied as it waited");
        let mut restored = complete_graph(3);
        *restored.vertex_data_mut(v) = f64::NAN;
        restore_snapshot(&m.core.setup.dfs, "ckpt", 0, &mut restored).unwrap();
        assert_eq!(*restored.vertex_data(v), v.0 as f64, "the next cycle's write-back in the checkpoint");
        assert_eq!(m.core.snapshots, 1);
    }
}
