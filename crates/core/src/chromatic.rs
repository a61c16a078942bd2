//! The chromatic engine (§4.2.1).
//!
//! Given a proper vertex colouring, executing all scheduled vertices of one
//! colour — a *colour-step* — satisfies the edge consistency model, because
//! no two adjacent vertices share a colour (full consistency uses a
//! second-order colouring, vertex consistency a single colour). Changes to
//! ghost data are communicated **asynchronously while the colour-step
//! runs**, and a full communication barrier separates colour-steps.
//!
//! The barrier is realised as a two-round counting flush: after executing
//! its part of the step, every machine tells every other machine how many
//! data messages it sent them (round A); write-backs processed during
//! round A may trigger forwards to other mirrors, which are accounted in
//! round B. A machine enters the next colour-step only after receiving
//! every promised message, so all modifications are visible before the
//! next colour begins.
//!
//! Between colour *cycles* (one pass over all colours) the machines run the
//! sync operations and the master decides halting ("the entire cycle
//! executed zero updates and all schedulers are empty") and snapshot
//! triggers.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use graphlab_atoms::LocalGraphInit;
use graphlab_graph::{MachineId, VertexId};
use graphlab_net::codec::Codec;
use graphlab_net::{Batcher, Endpoint, Envelope, LeaseConfig, RecvError};

use crate::driver::{MachineResult, MachineSetup};
use crate::globals::GlobalRegistry;
use crate::local::{LocalGraph, RemoteCacheTable};
use crate::messages::*;
use crate::recovery::{self, Parts, RecoveryHost, RecoveryPhase, RecoveryTracker, Step};
use crate::reference::InitialSchedule;
use crate::snapshot::{write_snapshot_atoms, SnapshotFile};
use crate::update::{UpdateContext, UpdateEffects, UpdateFunction};

const RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Receive deadline while a recovery round is in progress: stall detection
/// is timer-based (`recovery::tick`), so the pump must tick.
const RECOVERY_POLL: Duration = Duration::from_millis(25);

/// Unwinds the BSP call stack to the top-level run loop with the recovery
/// step that preempted it (`Continue` = a round is in progress). The
/// protocol itself is event-driven and lives in [`crate::recovery`].
struct Interrupt(Step);

pub(crate) struct ChromaticMachine<V, E, U: ?Sized> {
    lg: LocalGraph<V, E>,
    net: Batcher,
    setup: MachineSetup<V, E, U>,
    globals: GlobalRegistry,
    num_colors: u32,
    /// Owner-side ghost version table over the exchange path.
    ///
    /// The chromatic exchange is *push-based*: every ghost push follows a
    /// strictly newer version bump, so — unlike the locking engine's
    /// pull-based scope sync — direct pushes are already version-minimal
    /// by construction and carry no guard here. The table earns its keep
    /// on the **write-back fan-out**: a write-back source is noted at the
    /// bumped version, and forwards go only to mirrors whose known version
    /// is older, which is the version-aware generalisation of "do not
    /// bounce the data back to its writer".
    cache: RemoteCacheTable,

    // Task queues, one per colour; `queued` dedups.
    queues: Vec<VecDeque<u32>>,
    queued: Vec<bool>,
    pending_total: u64,

    // Step / flush accounting.
    step: u64,
    /// Received data-message counts bucketed by (src, step, phase).
    recv_buckets: HashMap<(u16, u64, u8), u64>,
    /// Flush promises bucketed by (src, step, phase).
    flush_promises: HashMap<(u16, u64, u8), FlushMsg>,
    /// Sync partials that raced ahead of the master's own cycle end: a
    /// fast peer can finish the cycle's last flush round and send its
    /// partial while we are still collecting flushes from a slower peer.
    /// `handle_msg` stashes them here; `cycle_end_round` drains first.
    sync_stash: VecDeque<Envelope>,
    /// Forward sends per destination accumulated during the current phase-A
    /// wait (write-back propagation).
    fwd_counts: Vec<u64>,

    // Bookkeeping.
    updates_local: u64,
    cycle_updates: u64,
    update_counts: Vec<(VertexId, u64)>,
    // BTreeMap: drained into the run's trace output at finish — iteration
    // order must be deterministic, not the hasher's.
    update_count_map: BTreeMap<VertexId, u64>,
    snapshots_taken: u64,
    last_snap_updates: u64,
    straggled: bool,
    effects: UpdateEffects,
    /// Ghost-row scratch: the datum being encoded, and the tagged row built
    /// around it once and appended to each destination's batch queue.
    rowbuf: BytesMut,
    msgbuf: BytesMut,

    // Failure recovery (§4.3): the shared `crate::recovery` machine's state.
    rec: RecoveryTracker,
    /// Colour-steps executed across the whole run (unlike `step`, never
    /// reset by a rollback — the metrics source).
    steps_total: u64,
    failure: Option<String>,
    /// Permanently dead under adoption: the run ends cleanly with no
    /// owned data (the survivors adopted it).
    dead: bool,
}

impl<V, E, U> ChromaticMachine<V, E, U>
where
    V: Codec + Clone + Send + Sync + 'static,
    E: Codec + Clone + Send + Sync + 'static,
    U: UpdateFunction<V, E> + ?Sized,
{
    pub(crate) fn new(
        ep: Endpoint,
        setup: MachineSetup<V, E, U>,
        init: LocalGraphInit<V, E>,
    ) -> Self {
        let lg = LocalGraph::from_init(init, Some(&setup.coloring));
        let num_colors = setup.coloring.num_colors().max(1);
        let nv = lg.num_local_vertices();
        let m = lg.num_machines();
        let machine = lg.machine();
        let mut net = Batcher::new(ep, setup.config.batch);
        if let Some(period) = setup.config.lease {
            net.enable_lease(LeaseConfig::with_period(period));
        }
        ChromaticMachine {
            // Edge slots unused: edges have exactly two replicas, so an
            // edge write-back never fans out.
            cache: RemoteCacheTable::new(m, nv, 0),
            queues: (0..num_colors).map(|_| VecDeque::new()).collect(),
            queued: vec![false; nv],
            pending_total: 0,
            step: 0,
            recv_buckets: HashMap::new(),
            flush_promises: HashMap::new(),
            sync_stash: VecDeque::new(),
            fwd_counts: vec![0; m],
            updates_local: 0,
            cycle_updates: 0,
            update_counts: Vec::new(),
            update_count_map: BTreeMap::new(),
            snapshots_taken: 0,
            last_snap_updates: 0,
            straggled: false,
            effects: UpdateEffects::default(),
            rowbuf: BytesMut::new(),
            msgbuf: BytesMut::new(),
            rec: RecoveryTracker::new(machine.index(), m),
            steps_total: 0,
            failure: None,
            dead: false,
            globals: GlobalRegistry::new(),
            num_colors,
            lg,
            net,
            setup,
        }
    }

    fn me(&self) -> MachineId {
        self.lg.machine()
    }

    fn num_machines(&self) -> usize {
        self.lg.num_machines()
    }

    fn enqueue_local(&mut self, l: u32) {
        if !self.queued[l as usize] {
            self.queued[l as usize] = true;
            let c = self.lg.vertex_color(l) as usize;
            self.queues[c].push_back(l);
            self.pending_total += 1;
        }
    }

    fn initial_schedule(&mut self) {
        match &*self.setup.initial {
            InitialSchedule::AllVertices => {
                for i in 0..self.lg.owned_vertices().len() {
                    let l = self.lg.owned_vertices()[i];
                    self.enqueue_local(l);
                }
            }
            InitialSchedule::Vertices(vs) => {
                let initial = vs.clone();
                for (v, _) in initial {
                    if let Some(l) = self.lg.local_vertex(v) {
                        if self.lg.owns_vertex(l) {
                            self.enqueue_local(l);
                        }
                    }
                }
            }
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
                step = match self.net.recv_timeout(RECOVERY_POLL) {
                    Ok(env) => recovery::on_envelope(&mut self, env),
                    Err(RecvError::Timeout) => recovery::tick(&mut self),
                    Err(RecvError::MachineDown) => recovery::on_self_death(&mut self),
                    Err(RecvError::Disconnected) => Step::Abort("fabric disconnected".into()),
                };
            }
            match step {
                Step::Exit => {
                    self.dead = true;
                    break;
                }
                Step::Abort(reason) => {
                    self.failure = Some(reason);
                    break;
                }
                // Recovered: the BSP machinery restarts at cycle 0.
                Step::Resumed | Step::Continue => {}
            }
        }
        // The master's final globals/halt broadcast may still sit in the
        // batch queues; peers are blocked waiting for it.
        self.net.flush_all();
        self.finish()
    }

    /// The BSP cycle machinery. Returns `Ok(())` on a normal halt and
    /// unwinds with an [`Interrupt`] when a failure (ours or a peer's)
    /// preempts it.
    fn run_cycles(&mut self) -> Result<(), Interrupt> {
        let mut cycle = 0u64;
        loop {
            self.cycle_updates = 0;
            for color in 0..self.num_colors {
                let direct = self.execute_color_step(color);
                self.flush_round(0, direct)?;
                let zeros = vec![0; self.num_machines()];
                let fwd = std::mem::replace(&mut self.fwd_counts, zeros);
                self.flush_round(1, fwd)?;
                self.step += 1;
                self.steps_total += 1;
                self.maybe_straggle();
            }
            let (halt, snapshot) = self.cycle_end_round(cycle)?;
            if let Some(snap) = snapshot {
                self.write_snapshot(snap)?;
            }
            if halt {
                return Ok(());
            }
            cycle += 1;
        }
    }

    /// Single send point for all engine traffic (see
    /// [`RecoveryTracker::send`] for the invariant it guards).
    fn send_msg(&mut self, dst: MachineId, kind: u16, payload: Bytes) {
        self.rec.send(&mut self.net, dst, kind, payload);
    }

    /// Stages in `msgbuf` the `(step, phase)`-tagged row of local vertex
    /// `l` at `version`, for [`Self::send_staged`].
    fn stage_vertex_row(&mut self, l: u32, step: u64, phase: u8, version: u64) {
        self.rowbuf.clear();
        self.lg.vertex_data(l).encode(&mut self.rowbuf);
        self.msgbuf.clear();
        let (gvid, data) = (self.lg.vertex_gvid(l), &self.rowbuf);
        StepTagged::<VertexRow>::put(&mut self.msgbuf, step, phase, |buf| {
            VertexRow::put(buf, gvid, version, 0, data)
        });
    }

    /// Stages in `msgbuf` the direct-phase row of local edge `le`.
    fn stage_edge_row(&mut self, le: u32, step: u64, version: u64) {
        self.rowbuf.clear();
        self.lg.edge_data(le).encode(&mut self.rowbuf);
        self.msgbuf.clear();
        let (geid, data) = (self.lg.edge_geid(le), &self.rowbuf);
        StepTagged::<EdgeRow>::put(&mut self.msgbuf, step, 0, |buf| {
            EdgeRow::put(buf, geid, version, data)
        });
    }

    /// Appends the staged row to `dst`'s batch queue: a row fanned out to
    /// several mirrors is encoded once.
    fn send_staged(&mut self, dst: MachineId, kind: u16) {
        let row = &self.msgbuf;
        self.rec.send_with(&mut self.net, dst, kind, |buf| buf.put_slice(row));
    }

    /// Receives one engine envelope. The fault/recovery control plane is
    /// delegated to the shared machine; anything that starts a round (a
    /// fresh `K_DOWN`, our own death, a `K_UP` on a machine that slept
    /// through its dead window) or ends the run unwinds the BSP stack.
    /// A timeout is a stall (clean failure, never a hang).
    fn recv_env(&mut self, timeout: Duration) -> Result<Envelope, Interrupt> {
        loop {
            let step = match self.net.recv_timeout(timeout) {
                Ok(env) if !is_recovery_control(env.kind) => return Ok(env),
                Ok(env) => recovery::on_envelope(self, env),
                Err(RecvError::Timeout) => Step::Abort(format!(
                    "chromatic engine stalled: machine {} step {} received nothing for {:?}",
                    self.me().0,
                    self.step,
                    timeout
                )),
                Err(RecvError::MachineDown) => recovery::on_self_death(self),
                Err(RecvError::Disconnected) => Step::Abort("fabric disconnected".into()),
            };
            // Stale control of a finished round is simply consumed.
            if step != Step::Continue || self.rec.phase() != RecoveryPhase::Normal {
                return Err(Interrupt(step));
            }
        }
    }

    /// Executes all queued vertices of `color`; returns data-message send
    /// counts per destination machine.
    fn execute_color_step(&mut self, color: u32) -> Vec<u64> {
        let m = self.num_machines();
        let mut direct = vec![0u64; m];
        let mut batch: Vec<u32> = Vec::with_capacity(self.queues[color as usize].len());
        while let Some(l) = self.queues[color as usize].pop_front() {
            self.queued[l as usize] = false;
            self.pending_total -= 1;
            batch.push(l);
        }
        for l in batch {
            self.effects.clear();
            {
                let mut ctx = UpdateContext::new(
                    &mut self.lg,
                    l,
                    self.setup.config.consistency,
                    &self.globals,
                    &mut self.effects,
                );
                self.setup.update.update(&mut ctx);
            }
            self.updates_local += 1;
            self.cycle_updates += 1;
            self.setup
                .counters
                .updates
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if self.setup.config.trace {
                *self.update_count_map.entry(self.lg.vertex_gvid(l)).or_insert(0) += 1;
            }
            self.commit(l, &mut direct);
            // Respect the global update cap: stop executing this step.
            let cap = self.setup.config.max_updates;
            if cap > 0
                && self.setup.counters.updates.load(std::sync::atomic::Ordering::Relaxed) >= cap
            {
                break;
            }
        }
        direct
    }

    /// Applies an update's effects: version bumps, ghost pushes,
    /// write-backs and schedule forwards.
    fn commit(&mut self, l: u32, direct: &mut [u64]) {
        let me = self.me();
        let step = self.step;
        let effects = std::mem::take(&mut self.effects);

        if effects.dirty_self {
            let version = self.lg.bump_vertex_version(l);
            self.push_to_mirrors(l, step, version, direct);
        }

        let mut dirty_edges = effects.dirty_edges.clone();
        dirty_edges.sort_unstable();
        dirty_edges.dedup();
        for le in dirty_edges {
            if self.lg.owns_edge(le) {
                let version = self.lg.bump_edge_version(le);
                let (s, d) = self.lg.edge_endpoints_local(le);
                let ms = self.lg.vertex_owner(s);
                let md = self.lg.vertex_owner(d);
                let other = if ms == me { md } else { ms };
                if other != me {
                    self.stage_edge_row(le, step, version);
                    self.send_staged(other, K_CHROM_EDATA);
                    direct[other.index()] += 1;
                }
            } else {
                let owner = self.lg.edge_owner(le);
                self.stage_edge_row(le, step, 0);
                self.send_staged(owner, K_CHROM_WB_E);
                direct[owner.index()] += 1;
            }
        }

        let mut dirty_nbrs = effects.dirty_nbrs.clone();
        dirty_nbrs.sort_unstable();
        dirty_nbrs.dedup();
        for ln in dirty_nbrs {
            if self.lg.owns_vertex(ln) {
                let version = self.lg.bump_vertex_version(ln);
                self.push_to_mirrors(ln, step, version, direct);
            } else {
                let owner = self.lg.vertex_owner(ln);
                self.stage_vertex_row(ln, step, 0, 0);
                self.send_staged(owner, K_CHROM_WB_V);
                direct[owner.index()] += 1;
            }
        }

        // Scheduling: local tasks enqueue directly; remote tasks forward to
        // their owner, grouped into one message per machine. BTreeMap so the
        // per-destination send order is machine order, not hash order — the
        // fabric's delivery interleavings (and with them fault traces) must
        // be a function of the seed alone.
        let mut remote: BTreeMap<MachineId, Vec<(VertexId, f64)>> = BTreeMap::new();
        for &(lv, prio) in &effects.scheduled {
            let owner = self.lg.vertex_owner(lv);
            if owner == me {
                self.enqueue_local(lv);
            } else {
                remote.entry(owner).or_default().push((self.lg.vertex_gvid(lv), prio));
            }
        }
        for (mm, tasks) in remote {
            self.rec.send_with(&mut self.net, mm, K_CHROM_SCHED, |buf| {
                StepTagged::<ScheduleMsg>::put(buf, step, 0, |buf| ScheduleMsg::put(buf, &tasks))
            });
            direct[mm.index()] += 1;
        }

        self.effects = effects;
    }

    /// Ghost push of owned vertex `l`, just bumped to `version`, to every
    /// mirror (direct phase).
    fn push_to_mirrors(&mut self, l: u32, step: u64, version: u64, direct: &mut [u64]) {
        if self.lg.vertex_mirrors(l).is_empty() {
            return;
        }
        self.stage_vertex_row(l, step, 0, version);
        for k in 0..self.lg.vertex_mirrors(l).len() {
            let mm = self.lg.vertex_mirrors(l)[k];
            self.send_staged(mm, K_CHROM_VDATA);
            direct[mm.index()] += 1;
        }
    }

    /// Sends flush markers for (self.step, phase) promising `counts`, then
    /// blocks until every peer's flush and all promised data arrived.
    fn flush_round(&mut self, phase: u8, counts: Vec<u64>) -> Result<(), Interrupt> {
        let m = self.num_machines();
        let me = self.me().index();
        let step = self.step;
        for (j, &count) in counts.iter().enumerate().take(m) {
            if j != me && !self.rec.is_dead(j) {
                let msg = FlushMsg {
                    step,
                    count,
                    updates: self.cycle_updates,
                    pending: self.pending_total,
                };
                self.send_msg(
                    MachineId::from(j),
                    if phase == 0 { K_CHROM_FLUSH_A } else { K_CHROM_FLUSH_B },
                    enc(&msg),
                );
            }
        }
        loop {
            // Dead machines owe nothing: their atoms were adopted and the
            // fabric drops their in-flight traffic.
            let complete = (0..m).filter(|&j| j != me && !self.rec.is_dead(j)).all(|j| {
                match self.flush_promises.get(&(j as u16, step, phase)) {
                    None => false,
                    Some(f) => {
                        let got =
                            self.recv_buckets.get(&(j as u16, step, phase)).copied().unwrap_or(0);
                        got >= f.count
                    }
                }
            });
            if complete {
                break;
            }
            let env = self.recv_env(RECV_TIMEOUT)?;
            self.handle_msg(env);
        }
        // Prune accounting of completed steps to keep the maps small.
        if step > 1 {
            self.recv_buckets.retain(|&(_, s, _), _| s + 1 >= step);
            self.flush_promises.retain(|&(_, s, _), _| s + 1 >= step);
        }
        Ok(())
    }

    fn bucket_incr(&mut self, src: MachineId, step: u64, phase: u8) {
        *self.recv_buckets.entry((src.0, step, phase)).or_insert(0) += 1;
    }

    fn handle_msg(&mut self, env: Envelope) {
        match env.kind {
            K_CHROM_VDATA => {
                let ((step, phase), (vid, version, _, data)) = tagged(&env, VertexRow::read);
                if let Some(l) = self.lg.local_vertex(vid) {
                    self.lg.apply_vertex_update(l, version, dec_in(&env.payload, data));
                }
                self.bucket_incr(env.src, step, phase);
            }
            K_CHROM_EDATA => {
                let ((step, phase), (eid, version, data)) = tagged(&env, EdgeRow::read);
                if let Some(l) = self.lg.local_edge(eid) {
                    self.lg.apply_edge_update(l, version, dec_in(&env.payload, data));
                }
                self.bucket_incr(env.src, step, phase);
            }
            K_CHROM_WB_V => {
                let ((step, phase), (vid, _, _, data)) = tagged(&env, VertexRow::read);
                let l = self.lg.local_vertex(vid).expect("write-back target owned");
                debug_assert!(self.lg.owns_vertex(l));
                *self.lg.vertex_data_mut(l) = dec_in(&env.payload, data);
                let version = self.lg.bump_vertex_version(l);
                // The writer holds exactly the data it sent us.
                self.cache.note_v(env.src.index(), l, version);
                // Forward to every mirror whose known version is older
                // (phase 1 accounting) — version-aware exclusion of the
                // writer itself.
                let mut staged = false;
                for k in 0..self.lg.vertex_mirrors(l).len() {
                    let mm = self.lg.vertex_mirrors(l)[k];
                    if self.cache.v_known(mm.index(), l) < version {
                        if !std::mem::replace(&mut staged, true) {
                            self.stage_vertex_row(l, step, 1, version);
                        }
                        self.cache.note_v(mm.index(), l, version);
                        self.send_staged(mm, K_CHROM_VDATA);
                        self.fwd_counts[mm.index()] += 1;
                    }
                }
                self.bucket_incr(env.src, step, phase);
            }
            K_CHROM_WB_E => {
                let ((step, phase), (eid, _, data)) = tagged(&env, EdgeRow::read);
                let l = self.lg.local_edge(eid).expect("write-back target owned");
                debug_assert!(self.lg.owns_edge(l));
                *self.lg.edge_data_mut(l) = dec_in(&env.payload, data);
                self.lg.bump_edge_version(l);
                // An edge has exactly two replicas; the write-back came from
                // the only mirror, so no forward is needed.
                self.bucket_incr(env.src, step, phase);
            }
            K_CHROM_SCHED => {
                let ((step, phase), ()) = tagged(&env, |p| {
                    ScheduleMsg::read(p, |gv, _prio| {
                        let l = self.lg.local_vertex(gv).expect("scheduled vertex is local");
                        debug_assert!(self.lg.owns_vertex(l));
                        self.enqueue_local(l);
                    })
                });
                self.bucket_incr(env.src, step, phase);
            }
            K_CHROM_FLUSH_A => {
                let f: FlushMsg = dec(env.payload);
                self.flush_promises.insert((env.src.0, f.step, 0), f);
            }
            K_CHROM_FLUSH_B => {
                let f: FlushMsg = dec(env.payload);
                self.flush_promises.insert((env.src.0, f.step, 1), f);
            }
            K_CHROM_SYNC_PART => self.sync_stash.push_back(env),
            other => panic!("unexpected message kind {other} in chromatic engine"),
        }
    }

    /// Cycle-end sync + halt + snapshot coordination. Returns
    /// `(halt, snapshot_id)`.
    fn cycle_end_round(&mut self, cycle: u64) -> Result<(bool, Option<u64>), Interrupt> {
        let m = self.num_machines();
        let partials: Vec<(u32, Bytes)> = self
            .setup
            .syncs
            .iter()
            .map(|op| (op.id(), op.local_partial(&self.lg)))
            .collect();
        let my_msg = SyncPartialMsg {
            cycle,
            partials,
            pending: self.pending_total,
            updates: self.updates_local,
        };
        if self.me() == MachineId(0) {
            // Master: collect, combine, decide, broadcast.
            let mut pend = my_msg.pending;
            let mut accs: Vec<Box<dyn std::any::Any + Send>> =
                self.setup.syncs.iter().map(|op| op.init_acc()).collect();
            for (i, (_, part)) in my_msg.partials.iter().enumerate() {
                self.setup.syncs[i].combine(accs[i].as_mut(), part);
            }
            let mut received = 1usize;
            while received < self.rec.survivors() {
                let env = match self.sync_stash.pop_front() {
                    Some(env) => env,
                    None => self.recv_env(RECV_TIMEOUT)?,
                };
                if env.kind == K_CHROM_SYNC_PART {
                    let p: SyncPartialMsg = dec(env.payload);
                    assert_eq!(p.cycle, cycle, "sync round out of step");
                    pend += p.pending;
                    for (i, (id, part)) in p.partials.iter().enumerate() {
                        debug_assert_eq!(*id, self.setup.syncs[i].id());
                        self.setup.syncs[i].combine(accs[i].as_mut(), part);
                    }
                    received += 1;
                } else {
                    return Err(Interrupt(Step::Abort(format!(
                        "unexpected kind {} during sync round",
                        env.kind
                    ))));
                }
            }
            let total = self.lg.total_vertices();
            let mut globals_rows = Vec::new();
            for (op, acc) in self.setup.syncs.iter().zip(accs) {
                let (bytes, typed) = op.finalize(acc, total);
                let ver = self.globals.set(op.id(), typed);
                globals_rows.push((op.id(), ver, bytes));
            }
            let g_updates =
                self.setup.counters.updates.load(std::sync::atomic::Ordering::Relaxed);
            let cap = self.setup.config.max_updates;
            // Aggregate-driven termination (§3.5): the stop predicate runs
            // over the just-finalized globals, composing with the cap and
            // the natural no-pending-work halt.
            let stop_hit = self.setup.stop.as_ref().is_some_and(|f| f(&self.globals));
            let halt = pend == 0 || (cap > 0 && g_updates >= cap) || stop_hit;
            let snap_cfg = self.setup.config.snapshot;
            let snapshot = if !halt
                && snap_cfg.mode != crate::config::SnapshotMode::None
                && self.snapshots_taken < snap_cfg.max_snapshots
                && snap_cfg.every_updates > 0
                && g_updates - self.last_snap_updates >= snap_cfg.every_updates
            {
                self.last_snap_updates = g_updates;
                Some(self.snapshots_taken)
            } else {
                None
            };
            let out = SyncGlobalsMsg { cycle, globals: globals_rows, halt, snapshot };
            let payload = enc(&out);
            for j in 1..m {
                if !self.rec.is_dead(j) {
                    self.send_msg(MachineId::from(j), K_CHROM_SYNC_GLOB, payload.clone());
                }
            }
            Ok((halt, snapshot))
        } else {
            self.send_msg(MachineId(0), K_CHROM_SYNC_PART, enc(&my_msg));
            loop {
                let env = self.recv_env(RECV_TIMEOUT)?;
                if env.kind == K_CHROM_SYNC_GLOB {
                    let g: SyncGlobalsMsg = dec(env.payload);
                    assert_eq!(g.cycle, cycle);
                    for (id, ver, bytes) in g.globals {
                        let op = self
                            .setup
                            .syncs
                            .iter()
                            .find(|s| s.id() == id)
                            .expect("broadcast global matches a registered sync");
                        let typed = op.decode_out(bytes).expect("malformed global value");
                        self.globals.apply(id, ver, typed);
                    }
                    return Ok((g.halt, g.snapshot));
                }
                // Faster peers may already be executing the next cycle's
                // first colour-step: absorb their (step-tagged) data
                // traffic while we wait for our globals.
                self.handle_msg(env);
            }
        }
    }

    fn write_snapshot(&mut self, snap: u64) -> Result<(), Interrupt> {
        let file = SnapshotFile::capture(&self.lg);
        let my_atoms = self.setup.placement.atoms_of(self.me());
        write_snapshot_atoms(
            &self.setup.dfs,
            &self.setup.snap_prefix,
            snap,
            file,
            &self.lg,
            &my_atoms,
        );
        self.snapshots_taken = self.snapshots_taken.max(snap + 1);
        let m = self.num_machines();
        if self.me() == MachineId(0) {
            let mut done = 1usize;
            while done < self.rec.survivors() {
                let env = self.recv_env(RECV_TIMEOUT)?;
                if env.kind == K_CHROM_SNAP_DONE {
                    done += 1;
                } else {
                    return Err(Interrupt(Step::Abort(format!(
                        "unexpected kind {} during snapshot",
                        env.kind
                    ))));
                }
            }
            for j in 1..m {
                if !self.rec.is_dead(j) {
                    self.send_msg(MachineId::from(j), K_CHROM_SNAP_RESUME, Bytes::new());
                }
            }
        } else {
            self.send_msg(MachineId(0), K_CHROM_SNAP_DONE, Bytes::new());
            loop {
                let env = self.recv_env(RECV_TIMEOUT)?;
                if env.kind == K_CHROM_SNAP_RESUME {
                    break;
                }
                // Resumed peers may already be racing ahead.
                self.handle_msg(env);
            }
        }
        Ok(())
    }

    fn maybe_straggle(&mut self) {
        if let Some(s) = self.setup.config.straggler {
            if !self.straggled
                && self.me().0 == s.machine
                && self.setup.counters.updates.load(std::sync::atomic::Ordering::Relaxed)
                    >= s.after_updates
            {
                self.straggled = true;
                std::thread::sleep(s.duration);
            }
        }
    }

    fn finish(mut self) -> MachineResult<V, E> {
        self.update_counts = std::mem::take(&mut self.update_count_map).into_iter().collect();
        let globals = std::mem::take(&mut self.globals);
        let updates = self.updates_local;
        let update_counts = std::mem::take(&mut self.update_counts);
        let snapshots = self.snapshots_taken;
        let recoveries = self.rec.recoveries;
        let adoptions = self.rec.adoptions;
        let failed = self.failure.take();
        let steps = self.steps_total;
        let dead = self.dead;
        // A dead machine's rows are stale by definition (survivors adopted
        // its atoms): it must contribute nothing to the write-back.
        let (vrows, erows) =
            if dead { (Vec::new(), Vec::new()) } else { self.lg.into_owned_data() };
        MachineResult {
            vrows,
            erows,
            globals,
            updates,
            update_counts,
            steps,
            snapshots,
            recoveries,
            adoptions,
            dead,
            failed,
            phase: crate::metrics::PhaseTimes::default(),
            chain_spans: Vec::new(),
            idle_wakeups: 0,
            hot: Default::default(),
        }
    }
}

/// Reads a step-tagged data message in place: the `(step, phase)` tag, then
/// what `inner` reads behind it.
fn tagged<'a, T>(
    env: &'a Envelope,
    inner: impl FnOnce(&mut &'a [u8]) -> Option<T>,
) -> ((u64, u8), T) {
    read_all(&env.payload, |p| Some((StepTagged::<T>::read(p)?, inner(p)?)))
}

impl<V, E, U> RecoveryHost for ChromaticMachine<V, E, U>
where
    V: Codec + Clone + Send + Sync + 'static,
    E: Codec + Clone + Send + Sync + 'static,
    U: UpdateFunction<V, E> + ?Sized,
{
    type V = V;
    type E = E;

    fn parts(&mut self) -> Parts<'_, V, E> {
        Parts {
            rec: &mut self.rec,
            net: &mut self.net,
            lg: &mut self.lg,
            dfs: &self.setup.dfs,
            index: &self.setup.index,
            placement: &mut self.setup.placement,
            coloring: Some(&self.setup.coloring),
            snap_prefix: &self.setup.snap_prefix,
            num_atoms: self.setup.config.num_atoms,
            mode: self.setup.config.recovery,
            snapshots: &mut self.snapshots_taken,
        }
    }

    /// Resets all volatile BSP state — colour queues, step/flush
    /// accounting, stashed sync partials, ghost-cache assumptions — sized
    /// by the current local graph.
    fn reset_engine_state(&mut self) {
        let nv = self.lg.num_local_vertices();
        let m = self.num_machines();
        self.cache = RemoteCacheTable::new(m, nv, 0);
        self.queues = (0..self.num_colors).map(|_| VecDeque::new()).collect();
        self.queued = vec![false; nv];
        self.pending_total = 0;
        self.step = 0;
        self.recv_buckets.clear();
        self.flush_promises.clear();
        self.sync_stash.clear();
        self.fwd_counts = vec![0; m];
        self.cycle_updates = 0;
        self.effects.clear();
        self.last_snap_updates =
            self.setup.counters.updates.load(std::sync::atomic::Ordering::Relaxed);
    }

    fn reseed(&mut self, l: u32) {
        self.enqueue_local(l);
    }

    fn replay(&mut self, env: Envelope) {
        self.handle_msg(env);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlab_atoms::VertexPartition;
    use graphlab_graph::GraphBuilder;

    /// Regression: `reset_engine_state` (rollback, crash wipe) forgot
    /// `sync_stash`, so a `K_CHROM_SYNC_PART` the master stashed while
    /// still in `flush_round` survived a rollback and the restarted
    /// `cycle_end_round(0)` drained it — "sync round out of step", or a
    /// stale partial counted in place of the real one.
    #[test]
    fn reset_drops_stashed_sync_partials_and_every_other_volatile_field() {
        let mut b = GraphBuilder::new();
        let v: Vec<VertexId> = (0..8).map(|i| b.add_vertex(i as f64)).collect();
        for i in 0..8 {
            b.add_edge(v[i], v[(i + 1) % 8], 1.0).unwrap();
        }
        let (setup, init, mut eps) = crate::driver::scripted_machine(
            &b.build(),
            &VertexPartition::random_hash(8, 4, 3),
            MachineId(0),
            crate::EngineConfig::new(2),
            InitialSchedule::AllVertices,
        );
        let mut m = ChromaticMachine::new(eps.swap_remove(0).into(), setup, init);
        m.initial_schedule();
        m.step = 5;
        let stale = SyncPartialMsg { cycle: 3, partials: Vec::new(), pending: 0, updates: 9 };
        m.handle_msg(Envelope {
            src: MachineId(1),
            dst: MachineId(0),
            kind: K_CHROM_SYNC_PART,
            payload: enc(&stale),
        });
        assert_eq!(m.sync_stash.len(), 1);

        m.reset_engine_state();
        assert!(m.sync_stash.is_empty(), "a stale partial must not reach the restarted cycle 0");
        assert_eq!((m.step, m.pending_total), (0, 0));
        assert!(m.queues.iter().all(|q| q.is_empty()) && !m.queued.contains(&true));
        assert_eq!(m.queued.len(), m.lg.num_local_vertices());
        assert_eq!(m.fwd_counts, [0, 0]);
    }
}
