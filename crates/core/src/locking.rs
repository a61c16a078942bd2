//! The distributed locking engine (§4.2.2).
//!
//! Fully asynchronous execution with prioritised dynamic scheduling.
//! Serializability is enforced by associating a readers-writer lock with
//! every vertex: vertex consistency write-locks the centre, edge
//! consistency adds read locks on neighbours, full consistency write-locks
//! the whole scope. Deadlocks are avoided by acquiring locks sequentially
//! in the canonical order `(owner(v), v)`, which also lets all locks on one
//! remote machine be requested in a single message.
//!
//! Two latency-hiding techniques from the paper are implemented:
//!
//! 1. **Ghost caching with versioning** — each lock-chain hop attaches only
//!    the scope data whose owner-side version is newer than what the hop's
//!    [`RemoteCacheTable`] says the requester already caches; skipped data
//!    is acknowledged with compact "unchanged" markers. The table advances
//!    on every row shipped and every write-back applied (both FIFO), so a
//!    skipped row is always already resident at the requester by the time
//!    its scope executes. It is conservatively invalidated at snapshot
//!    boundaries.
//! 2. **Pipelining** — every machine keeps up to `max_pipeline` lock
//!    chains in flight; scopes whose locks and data have arrived are
//!    executed by the machine loop while the rest of the pipeline fills
//!    (Alg. 4). The non-blocking lock table below is the "callback"
//!    readers-writer lock: acquisition never blocks the engine thread,
//!    parked requests are resumed from release processing.
//!
//! Termination uses the marker/token algorithm (Misra \[26\], Safra
//! formulation) from `graphlab-net`. Snapshots (§4.3) come in both
//! flavours: stop-and-flush synchronous, and the asynchronous
//! Chandy-Lamport variant expressed as a prioritised update function
//! (Alg. 5).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::Ordering as AtomicOrdering;
use std::time::Duration;

use bytes::Bytes;
use graphlab_atoms::LocalGraphInit;
use graphlab_graph::{ConsistencyModel, LockType, MachineId, VertexId};
use graphlab_net::codec::Codec;
use graphlab_net::termination::{Safra, SafraAction};
use graphlab_net::{Batcher, Endpoint, Envelope, LeaseConfig, RecvError};

use crate::config::SnapshotMode;
use crate::driver::{MachineResult, MachineSetup};
use crate::globals::GlobalRegistry;
use crate::local::{LocalGraph, RemoteCacheTable};
use crate::messages::*;
use crate::recovery::{self, Parts, RecoveryHost, RecoveryPhase, RecoveryTracker, Step};
use crate::reference::InitialSchedule;
use crate::scheduler::Scheduler;
use crate::snapshot::{write_snapshot_atoms, SnapshotFile};
use crate::update::{UpdateContext, UpdateEffects, UpdateFunction};

/// Priority marking a schedule request as a snapshot task (Alg. 5:
/// "the Snapshot Update is prioritized over other update functions").
pub const SNAPSHOT_PRIORITY: f64 = f64::INFINITY;

/// Receive deadline while the machine is in a recovery phase: recovery
/// stall detection is timer-based, so the loop must tick.
const IDLE_BLOCK: Duration = Duration::from_millis(25);

/// Receive deadline for an idle (or pipeline-full) machine in the normal
/// phase — master included, now that [`K_UPD_NOTE`] announces worker
/// update counts and sync/snapshot/halt triggers are message-driven.
/// Purely a liveness backstop: every state change arrives as a message,
/// which wakes the blocked `recv_timeout` immediately, so a healthy
/// cluster never lets this expire (the idle-cluster regression pins the
/// master's expiry count at zero).
const IDLE_BACKSTOP: Duration = Duration::from_millis(500);

/// Receive deadline for an injected straggler's host machine until its
/// stall fires: the trigger reads the shared update counter, which no
/// message announces, so that one diagnostic path still polls.
const STRAGGLER_POLL: Duration = Duration::from_millis(2);

/// Identifies a lock chain cluster-wide: `(requester machine, reqid)`.
type ChainKey = (u16, u64);

/// Master-side in-flight sync epoch: `(epoch, accumulators, partials got)`.
type SyncEpoch = (u64, Vec<Box<dyn std::any::Any + Send>>, usize);

// ---------------------------------------------------------------------
// Non-blocking callback readers-writer lock table
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct LockState {
    readers: u32,
    writer: bool,
    queue: VecDeque<(ChainKey, LockType)>,
}

impl LockState {
    fn compatible(&self, t: LockType) -> bool {
        match t {
            LockType::Read => !self.writer,
            LockType::Write => !self.writer && self.readers == 0,
        }
    }
    fn grant(&mut self, t: LockType) {
        match t {
            LockType::Read => self.readers += 1,
            LockType::Write => self.writer = true,
        }
    }
    fn ungrant(&mut self, t: LockType) {
        match t {
            LockType::Read => {
                debug_assert!(self.readers > 0);
                self.readers -= 1;
            }
            LockType::Write => {
                debug_assert!(self.writer);
                self.writer = false;
            }
        }
    }
}

/// Per-machine table of vertex locks. FIFO-fair: a request parks behind
/// earlier arrivals even when it would be immediately compatible, which
/// (with ordered acquisition) guarantees liveness.
#[derive(Debug)]
pub(crate) struct LockTable {
    states: Vec<LockState>,
}

impl LockTable {
    pub(crate) fn new(n: usize) -> Self {
        LockTable { states: (0..n).map(|_| LockState::default()).collect() }
    }

    /// Attempts to acquire; returns `true` when granted immediately,
    /// otherwise the request is queued and will surface through
    /// [`LockTable::release`].
    pub(crate) fn acquire(&mut self, v: u32, t: LockType, key: ChainKey) -> bool {
        let st = &mut self.states[v as usize];
        if st.queue.is_empty() && st.compatible(t) {
            st.grant(t);
            true
        } else {
            st.queue.push_back((key, t));
            false
        }
    }

    /// Releases a held lock; returns the chains whose queued request on
    /// this vertex just got granted (readers batch).
    pub(crate) fn release(&mut self, v: u32, t: LockType) -> Vec<ChainKey> {
        let st = &mut self.states[v as usize];
        st.ungrant(t);
        let mut granted = Vec::new();
        while let Some(&(key, ty)) = st.queue.front() {
            if st.compatible(ty) {
                st.grant(ty);
                st.queue.pop_front();
                granted.push(key);
            } else {
                break;
            }
        }
        granted
    }

    #[cfg(test)]
    fn held(&self, v: u32) -> (u32, bool) {
        (self.states[v as usize].readers, self.states[v as usize].writer)
    }
}

// ---------------------------------------------------------------------
// Chain bookkeeping
// ---------------------------------------------------------------------

/// A lock chain resident at this machine (one hop's view).
struct HopChain {
    msg: LockReqMsg,
    /// Plan entries owned by this machine: (local vertex, lock type), in
    /// plan (canonical) order.
    my_locks: Vec<(u32, LockType)>,
    /// Next lock to acquire (sequential acquisition).
    next: usize,
}

/// Requester-side state of an outstanding scope acquisition.
struct OutScope {
    center_l: u32,
    plan: Vec<(VertexId, LockType)>,
    machines: Vec<MachineId>,
    remote_needed: usize,
    data_got: usize,
    has_local_hop: bool,
    local_done: bool,
    is_snapshot: bool,
    queued_ready: bool,
}

impl OutScope {
    /// Becomes true exactly once: when all remote hops delivered their
    /// scope data and the local hop (if any) completed.
    fn now_ready(&mut self) -> bool {
        let ready = self.data_got >= self.remote_needed && (!self.has_local_hop || self.local_done);
        if ready && !self.queued_ready {
            self.queued_ready = true;
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------
// The machine loop
// ---------------------------------------------------------------------

pub(crate) struct LockingMachine<V, E, U: ?Sized> {
    lg: LocalGraph<V, E>,
    net: Batcher,
    setup: MachineSetup<V, E, U>,
    globals: GlobalRegistry,
    scheduler: Scheduler,
    locks: LockTable,
    /// Owner-side ghost-cache version table: what every peer already holds
    /// of this machine's data (delta scope sync, §4.2.2 versioning).
    cache: RemoteCacheTable,
    hop_chains: HashMap<ChainKey, HopChain>,
    out_scopes: HashMap<u64, OutScope>,
    ready: VecDeque<u64>,
    next_reqid: u64,
    safra: Safra,
    halted: bool,
    cap_reached: bool,

    // Counted-work message accounting (snapshot channel flush).
    sent_counts: Vec<u64>,
    recv_counts: Vec<u64>,

    // Snapshot state.
    snap_epoch: Vec<u32>,
    current_snap: u32,
    snap_queue: VecDeque<u32>,
    snap_buffer: SnapshotFile,
    snap_remaining: usize,
    snap_paused: bool,
    snap_ready_sent: bool,
    snap_flush_target: Option<Vec<u64>>,
    snap_written: bool,
    snapshots_written: u64,

    // Master-only coordination state.
    m_snap_in_progress: bool,
    m_snap_ready: Vec<Option<Vec<u64>>>,
    m_snap_done: usize,
    m_async_done: usize,
    m_last_snap_updates: u64,
    m_halt_pending: bool,
    m_halt_sent: bool,
    m_halt_acks: usize,
    m_sync_epoch: u64,
    m_sync_next_at: u64,
    m_sync_outstanding: Option<SyncEpoch>,
    m_final_sync_done: bool,

    // Failure recovery (§4.3): the shared `crate::recovery` machine's state.
    rec: RecoveryTracker,
    /// Clean permanent-death exit under adoption: the survivors absorbed
    /// this machine's atoms; it reports empty rows.
    dead: bool,
    failure: Option<String>,

    // Misc.
    updates_local: u64,
    // BTreeMap: drained into the run's trace output at finish — iteration
    // order must be deterministic, not the hasher's.
    update_count_map: BTreeMap<VertexId, u64>,
    straggled: bool,
    effects: UpdateEffects,

    // Control-plane accounting (`repro -- abl-control`).
    /// Lock-chain span histogram: `chain_spans[s]` counts chains that
    /// touched exactly `s` machines.
    chain_spans: Vec<u64>,
    /// Normal-phase receive deadlines that expired with no message and no
    /// runnable work. Message-driven triggers keep this at zero on an
    /// idle healthy cluster.
    idle_wakeups: u64,
    /// [`K_UPD_NOTE`] granule: a worker notifies the master every
    /// `note_every` local updates. 0 = no counter-driven triggers are
    /// configured, so no notes are ever sent.
    note_every: u64,
    /// Local update count as of the last note sent (workers only).
    last_noted: u64,
    /// Master: highest cumulative update count each peer has announced
    /// via [`K_UPD_NOTE`]. Own slot unused — `updates_local` is
    /// authoritative. Monotonic, so notes are idempotent and survive
    /// rollbacks (local counts never reset).
    m_peer_updates: Vec<u64>,
}

impl<V, E, U> LockingMachine<V, E, U>
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
        let lg = LocalGraph::from_init(init, None);
        let nv = lg.num_local_vertices();
        let ne = lg.num_local_edges();
        let m = lg.num_machines();
        let machine = lg.machine();
        let mut net = Batcher::new(ep, setup.config.batch);
        if let Some(period) = setup.config.lease {
            net.enable_lease(LeaseConfig::with_period(period));
        }
        // K_UPD_NOTE granule: fine enough that the master observes a
        // counter-driven trigger at most ~1/8 interval late across the
        // whole cluster (m-1 peers, each up to a granule behind), coarse
        // enough that notes stay a negligible traffic fraction. No
        // counter-driven triggers configured → no notes, ever.
        let mut finest = u64::MAX;
        if setup.config.sync_interval_updates > 0 && !setup.syncs.is_empty() {
            finest = finest.min(setup.config.sync_interval_updates);
        }
        let snap_cfg = setup.config.snapshot;
        if snap_cfg.mode != SnapshotMode::None
            && snap_cfg.every_updates > 0
            && snap_cfg.max_snapshots > 0
        {
            finest = finest.min(snap_cfg.every_updates);
        }
        let note_every =
            if finest == u64::MAX { 0 } else { (finest / (8 * m as u64)).max(1) };
        LockingMachine {
            scheduler: Scheduler::new(setup.config.scheduler, nv),
            locks: LockTable::new(nv),
            cache: RemoteCacheTable::new(m, nv, ne),
            hop_chains: HashMap::new(),
            out_scopes: HashMap::new(),
            ready: VecDeque::new(),
            next_reqid: 1,
            safra: Safra::new(machine, m),
            halted: false,
            cap_reached: false,
            sent_counts: vec![0; m],
            recv_counts: vec![0; m],
            snap_epoch: vec![0; nv],
            current_snap: 0,
            snap_queue: VecDeque::new(),
            snap_buffer: SnapshotFile::default(),
            snap_remaining: 0,
            snap_paused: false,
            snap_ready_sent: false,
            snap_flush_target: None,
            snap_written: false,
            snapshots_written: 0,
            m_snap_in_progress: false,
            m_snap_ready: vec![None; m],
            m_snap_done: 0,
            m_async_done: 0,
            m_last_snap_updates: 0,
            m_halt_pending: false,
            m_halt_sent: false,
            m_halt_acks: 0,
            m_sync_epoch: 0,
            m_sync_next_at: setup.config.sync_interval_updates,
            m_sync_outstanding: None,
            m_final_sync_done: false,
            rec: RecoveryTracker::new(machine.index(), m),
            dead: false,
            failure: None,
            updates_local: 0,
            update_count_map: BTreeMap::new(),
            straggled: false,
            effects: UpdateEffects::default(),
            chain_spans: Vec::new(),
            idle_wakeups: 0,
            note_every,
            last_noted: 0,
            m_peer_updates: vec![0; m],
            globals: GlobalRegistry::new(),
            lg,
            net,
            setup,
        }
    }

    fn me(&self) -> MachineId {
        self.lg.machine()
    }

    fn is_master(&self) -> bool {
        self.me() == MachineId(0)
    }

    fn num_machines(&self) -> usize {
        self.lg.num_machines()
    }

    /// Machines not recorded permanently dead. Every master-side
    /// coordination barrier (halt acks, snapshot READY/DONE collection,
    /// sync partials) counts against this, not `num_machines`, so the
    /// cluster keeps converging after an adoption.
    fn live_machines(&self) -> usize {
        self.rec.survivors()
    }

    fn global_updates(&self) -> u64 {
        self.setup.counters.updates.load(AtomicOrdering::Relaxed)
    }

    /// The master's message-driven view of the cluster-wide update count:
    /// its own local count plus the highest count each peer announced via
    /// [`K_UPD_NOTE`]. Drives sync/snapshot triggers instead of polling
    /// the shared counter — a lower bound on the true total, at most
    /// ~`finest_interval / 8` behind by the note granule. On non-masters
    /// (all note slots zero) this degenerates to the local count.
    fn observed_updates(&self) -> u64 {
        self.updates_local + self.m_peer_updates.iter().sum::<u64>()
    }

    /// Worker-side half of the message-driven master: announce the local
    /// cumulative update count when it crosses a granule boundary, or
    /// (`flush`) with its exact value on the idle transition, so the
    /// master's last trigger window closes without a timer.
    fn maybe_send_upd_note(&mut self, flush: bool) {
        if self.note_every == 0 || self.is_master() {
            return;
        }
        let due = if flush {
            self.updates_local > self.last_noted
        } else {
            self.updates_local - self.last_noted >= self.note_every
        };
        if due {
            self.last_noted = self.updates_local;
            let msg = UpdNoteMsg { from: self.me(), updates: self.updates_local };
            self.send_msg(MachineId(0), K_UPD_NOTE, enc(&msg));
        }
    }

    /// Single send point for all engine traffic (see
    /// [`RecoveryTracker::send`] for the invariant it guards).
    fn send_msg(&mut self, dst: MachineId, kind: u16, payload: Bytes) {
        self.rec.send(&mut self.net, dst, kind, payload);
    }

    fn broadcast_msg(&mut self, kind: u16, payload: &Bytes) {
        self.rec.broadcast(&mut self.net, kind, payload);
    }

    fn send_counted(&mut self, dst: MachineId, kind: u16, payload: Bytes) {
        debug_assert!(is_counted_work(kind));
        debug_assert!(dst != self.me());
        self.safra.on_message_sent(1);
        self.sent_counts[dst.index()] += 1;
        self.send_msg(dst, kind, payload);
    }

    fn initial_schedule(&mut self) {
        match &*self.setup.initial {
            InitialSchedule::AllVertices => {
                for i in 0..self.lg.owned_vertices().len() {
                    let l = self.lg.owned_vertices()[i];
                    self.scheduler.add(l, 1.0);
                }
            }
            InitialSchedule::Vertices(vs) => {
                for (v, p) in vs.clone() {
                    if let Some(l) = self.lg.local_vertex(v) {
                        if self.lg.owns_vertex(l) {
                            self.scheduler.add(l, p);
                        }
                    }
                }
            }
        }
    }

    pub(crate) fn run(mut self) -> MachineResult<V, E> {
        self.initial_schedule();
        while !self.halted && self.failure.is_none() {
            let normal = self.rec.phase() == RecoveryPhase::Normal;
            if normal {
                self.maybe_straggle();
                if self.is_master() {
                    self.master_triggers();
                }
                self.pump();
                self.execute_ready();
                self.check_snapshot_progress();
                self.update_idle();
                if self.is_master() {
                    // update_idle may have completed Safra termination
                    // (m_halt_pending) — sequence the halt now rather than
                    // after a full idle deadline.
                    self.master_triggers();
                    if self.halted {
                        break;
                    }
                }
            }
            let deadline = if normal { self.next_recv_deadline() } else { IDLE_BLOCK };
            match self.net.recv_timeout(deadline) {
                Ok(env) => {
                    self.dispatch(env);
                    // Drain the inbox without blocking to amortise the
                    // pump/execute overhead across message bursts.
                    for _ in 0..512 {
                        match self.net.try_recv() {
                            Ok(env) => self.dispatch(env),
                            Err(_) => break,
                        }
                    }
                }
                Err(RecvError::Timeout) if normal => {
                    if deadline > Duration::ZERO {
                        self.idle_wakeups += 1;
                    }
                }
                Err(RecvError::Timeout) => {
                    let step = recovery::tick(&mut self);
                    self.on_recovery_step(step);
                }
                Err(RecvError::MachineDown) => {
                    let step = recovery::on_self_death(&mut self);
                    self.on_recovery_step(step);
                }
                Err(RecvError::Disconnected) => break,
            }
        }
        // Halt-era messages (acks, final releases) may still sit in the
        // batch queues; the master is blocked waiting for them.
        self.net.flush_all();
        self.finish()
    }

    /// Routes one envelope: normal-phase engine traffic goes straight to
    /// [`Self::handle`]; the recovery/fabric control plane — and, while a
    /// round is in progress, everything else, to be discarded or buffered
    /// for replay by phase — goes to the shared recovery machine.
    fn dispatch(&mut self, env: Envelope) {
        match env.kind {
            k if is_recovery_control(k) || self.rec.phase() != RecoveryPhase::Normal => {
                let step = recovery::on_envelope(self, env);
                self.on_recovery_step(step);
            }
            _ => self.handle(env),
        }
    }

    /// Acts on the recovery machine's verdict (a resumed round needs
    /// nothing: the loop simply finds the phase normal again).
    fn on_recovery_step(&mut self, step: Step) {
        match step {
            Step::Continue | Step::Resumed => {}
            Step::Exit => {
                self.dead = true;
                self.halted = true;
            }
            Step::Abort(reason) => self.failure = Some(reason),
        }
    }

    /// How long the machine loop may block in `recv_timeout`.
    ///
    /// With runnable local work the loop must not block at all; otherwise
    /// progress is message-driven (lock grants, scope data, releases,
    /// tokens — and, for the master's sync/snapshot/halt triggers,
    /// [`K_UPD_NOTE`] counter announcements — all wake the blocked
    /// receive), so idle and pipeline-full machines sleep on a pure
    /// liveness backstop. The one timed path left is an injected
    /// straggler that has not fired yet: its trigger reads the shared
    /// update counter, which no message announces.
    fn next_recv_deadline(&self) -> Duration {
        if self.has_runnable_work() {
            return Duration::ZERO;
        }
        if let Some(s) = self.setup.config.straggler {
            if s.machine == self.me().0 && !self.straggled {
                return STRAGGLER_POLL;
            }
        }
        IDLE_BACKSTOP
    }

    /// Whether `pump`/`execute_ready` could make progress right now
    /// without receiving anything.
    fn has_runnable_work(&self) -> bool {
        if !self.ready.is_empty() {
            return true;
        }
        if self.snap_paused || self.halted {
            return false;
        }
        if self.out_scopes.len() >= self.setup.config.max_pipeline.max(1) {
            return false;
        }
        if !self.snap_queue.is_empty() {
            return true;
        }
        !self.cap_reached && !self.scheduler.is_empty()
    }

    // ---- pipeline ----

    fn pump(&mut self) {
        if self.snap_paused || self.halted {
            return;
        }
        let cap = self.setup.config.max_updates;
        if cap > 0 && !self.cap_reached && self.global_updates() >= cap {
            // Drop remaining tasks so the cluster can quiesce.
            self.cap_reached = true;
            self.scheduler = Scheduler::new(self.setup.config.scheduler, self.lg.num_local_vertices());
        }
        while self.out_scopes.len() < self.setup.config.max_pipeline.max(1) {
            // Snapshot tasks first (priority), then the app scheduler.
            let (l, is_snap) = if let Some(l) = self.pop_snap_task() {
                (l, true)
            } else if !self.cap_reached {
                match self.scheduler.pop() {
                    Some(l) => (l, false),
                    None => break,
                }
            } else {
                break;
            };
            self.initiate_chain(l, is_snap);
        }
    }

    fn pop_snap_task(&mut self) -> Option<u32> {
        while let Some(l) = self.snap_queue.pop_front() {
            if self.snap_epoch[l as usize] != self.current_snap {
                return Some(l);
            }
        }
        None
    }

    fn initiate_chain(&mut self, l: u32, is_snapshot: bool) {
        let model = if is_snapshot {
            ConsistencyModel::Edge
        } else if self.setup.config.racing {
            // Fig. 1(d): lock only the central vertex; reads of neighbour
            // ghosts race against concurrent writers.
            ConsistencyModel::Vertex
        } else {
            self.setup.config.consistency
        };
        let plan = self.lg.lock_plan(l, model);
        let mut machines: Vec<MachineId> = Vec::new();
        for &(v, _) in &plan {
            let lv = self.lg.local_vertex(v).expect("plan vertex local");
            let owner = self.lg.vertex_owner(lv);
            if machines.last() != Some(&owner) {
                machines.push(owner);
            }
        }
        debug_assert!(machines.windows(2).all(|w| w[0] < w[1]), "plan sorted by owner");

        let span = machines.len();
        if self.chain_spans.len() <= span {
            self.chain_spans.resize(span + 1, 0);
        }
        self.chain_spans[span] += 1;

        let reqid = self.next_reqid;
        self.next_reqid += 1;
        tr!("[m{}] INIT reqid={} center=v{} machines={:?}",
            self.me().0, reqid, self.lg.vertex_gvid(l).0,
            machines.iter().map(|m| m.0).collect::<Vec<_>>());
        let msg = LockReqMsg {
            requester: self.me(),
            reqid,
            scope_v: self.lg.vertex_gvid(l),
            machines: machines.clone(),
            model: consistency_to_u8(model),
        };
        let remote_needed = machines.iter().filter(|&&m| m != self.me()).count();
        let has_local_hop = machines.contains(&self.me());
        self.out_scopes.insert(
            reqid,
            OutScope {
                center_l: l,
                plan,
                machines: machines.clone(),
                remote_needed,
                data_got: 0,
                has_local_hop,
                local_done: false,
                is_snapshot,
                queued_ready: false,
            },
        );
        if machines[0] == self.me() {
            self.start_hop(msg);
        } else {
            let dst = machines[0];
            self.send_counted(dst, K_LOCK_REQ, enc(&msg));
        }
    }

    // ---- hop processing ----

    fn start_hop(&mut self, msg: LockReqMsg) {
        debug_assert_eq!(msg.machines.first(), Some(&self.me()), "chain head is this hop");
        let key: ChainKey = (msg.requester.0, msg.reqid);
        let my_locks: Vec<(u32, LockType)> = if msg.requester == self.me() {
            // The requester kept the authoritative plan in its OutScope.
            let out = self.out_scopes.get(&msg.reqid).expect("own scope");
            out.plan
                .iter()
                .filter_map(|&(v, t)| {
                    let lv = self.lg.local_vertex(v).expect("plan vertex local");
                    self.lg.owns_vertex(lv).then_some((lv, t))
                })
                .collect()
        } else {
            self.derive_local_locks(&msg)
        };
        debug_assert!(!my_locks.is_empty(), "hop visits a machine owning scope vertices");
        self.hop_chains.insert(key, HopChain { msg, my_locks, next: 0 });
        self.advance_chain(key);
    }

    /// Reconstructs this machine's share of the scope's lock plan from
    /// replicated structure — the request ships no plan (derived plans).
    ///
    /// Agreement with the requester's [`LocalGraph::lock_plan`] is exact:
    /// a hop owns a scope vertex only if it is the centre or one of its
    /// neighbours; every edge incident on an owned vertex is local
    /// (ownership invariant), so the owned neighbour set is fully visible
    /// through the ghost centre's local adjacency, and the canonical
    /// `(owner, v)` order restricted to one machine is just ascending
    /// vertex id.
    fn derive_local_locks(&self, msg: &LockReqMsg) -> Vec<(u32, LockType)> {
        let model = consistency_from_u8(msg.model).expect("valid consistency model");
        let c = self.lg.local_vertex(msg.scope_v).expect("scope centre replicated at hop");
        let mut locks: Vec<(u32, LockType)> = Vec::new();
        if self.lg.owns_vertex(c) {
            locks.push((c, model.central_lock()));
        }
        if let Some(nbr_lock) = model.neighbor_lock() {
            for e in self.lg.adj(c) {
                if self.lg.owns_vertex(e.nbr) {
                    locks.push((e.nbr, nbr_lock));
                }
            }
        }
        locks.sort_unstable_by_key(|&(lv, _)| self.lg.vertex_gvid(lv));
        // Parallel edges repeat a neighbour with the same lock type.
        locks.dedup_by_key(|&mut (lv, _)| lv);
        locks
    }

    fn advance_chain(&mut self, key: ChainKey) {
        loop {
            let Some(chain) = self.hop_chains.get_mut(&key) else { return };
            if chain.next < chain.my_locks.len() {
                let (lv, t) = chain.my_locks[chain.next];
                if self.locks.acquire(lv, t, key) {
                    let chain = self.hop_chains.get_mut(&key).expect("still present");
                    chain.next += 1;
                } else {
                    return; // parked; resumed through resume_chain
                }
            } else {
                self.complete_hop(key);
                return;
            }
        }
    }

    /// Resumes a chain whose parked lock was just granted by
    /// [`LockTable::release`]: the lock at `next` is already held, so step
    /// past it before continuing sequential acquisition.
    fn resume_chain(&mut self, key: ChainKey) {
        let chain = self.hop_chains.get_mut(&key).expect("granted chain present");
        chain.next += 1;
        self.advance_chain(key);
    }

    /// All local locks of `key` granted: send fresh scope data to the
    /// requester and forward the chain.
    fn complete_hop(&mut self, key: ChainKey) {
        let chain = self.hop_chains.get(&key).expect("chain present");
        let msg = chain.msg.clone();
        let my_locks = chain.my_locks.clone();
        let requester = msg.requester;

        if requester != self.me() {
            // Version-filtered data sync: "synchronization of locked data is
            // performed immediately as each machine completes its local
            // locks". A row is skipped when the remote-cache table proves
            // the requester already holds the current version (it was
            // either shipped to it, or written *by* it, on this same FIFO
            // channel pair) — a compact marker rides instead. The owned
            // vertex set is the derived lock set; the owned edge set is
            // derived from the ghost centre's adjacency the same way.
            let req = requester.index();
            let filter = !self.setup.config.no_version_filter;
            let mut vrows = Vec::new();
            let mut vsame = 0u32;
            for &(lv, _) in &my_locks {
                debug_assert!(self.lg.owns_vertex(lv));
                let cur = self.lg.vertex_version(lv);
                if filter && self.cache.v_known(req, lv) >= cur {
                    vsame += 1;
                } else {
                    self.cache.note_v(req, lv, cur);
                    vrows.push(VertexRow {
                        vid: self.lg.vertex_gvid(lv),
                        version: cur,
                        snap: self.snap_epoch[lv as usize],
                        data: enc(self.lg.vertex_data(lv)),
                    });
                }
            }
            let c = self.lg.local_vertex(msg.scope_v).expect("scope centre replicated at hop");
            let mut owned_edges: Vec<(graphlab_graph::EdgeId, u32)> = self
                .lg
                .adj(c)
                .iter()
                .filter(|e| self.lg.owns_edge(e.edge))
                .map(|e| (self.lg.edge_geid(e.edge), e.edge))
                .collect();
            owned_edges.sort_unstable();
            owned_edges.dedup();
            let mut erows = Vec::new();
            let mut esame = 0u32;
            for (ge, le) in owned_edges {
                let cur = self.lg.edge_version(le);
                if filter && self.cache.e_known(req, le) >= cur {
                    esame += 1;
                } else {
                    self.cache.note_e(req, le, cur);
                    erows.push(EdgeRow { eid: ge, version: cur, data: enc(self.lg.edge_data(le)) });
                }
            }
            let data = ScopeDataMsg { reqid: msg.reqid, vrows, erows, vsame, esame };
            self.send_counted(requester, K_SCOPE_DATA, enc(&data));
        } else {
            let out = self.out_scopes.get_mut(&msg.reqid).expect("own scope");
            out.local_done = true;
            if out.now_ready() {
                self.ready.push_back(msg.reqid);
            }
        }

        // Continuation passing: forward to the next machine in canonical
        // order, popping this hop off the chain so visited machines stop
        // paying wire bytes.
        if msg.machines.len() > 1 {
            let mut fwd = msg;
            fwd.machines.remove(0);
            let dst = fwd.machines[0];
            if dst == self.me() {
                self.start_hop(fwd);
            } else {
                self.send_counted(dst, K_LOCK_REQ, enc(&fwd));
            }
        }
    }

    // ---- execution ----

    fn execute_ready(&mut self) {
        while let Some(reqid) = self.ready.pop_front() {
            let is_snap = self.out_scopes.get(&reqid).expect("ready scope").is_snapshot;
            if is_snap {
                self.execute_snapshot_update(reqid);
            } else {
                self.execute_update(reqid);
            }
        }
    }

    fn execute_update(&mut self, reqid: u64) {
        let center = self.out_scopes.get(&reqid).expect("scope").center_l;
        self.effects.clear();
        {
            let mut ctx = UpdateContext::new(
                &mut self.lg,
                center,
                self.setup.config.consistency,
                &self.globals,
                &mut self.effects,
            );
            self.setup.update.update(&mut ctx);
        }
        self.updates_local += 1;
        if trace_on() {
            let nbrs: Vec<(u32, u64)> = self
                .lg
                .adj(center)
                .iter()
                .map(|e| (self.lg.vertex_gvid(e.nbr).0, self.lg.vertex_version(e.nbr)))
                .collect();
            tr!("[m{}] EXEC reqid={} v{} dirty={} sched={:?} nbr_vers={:?}",
                self.me().0, reqid, self.lg.vertex_gvid(center).0, self.effects.dirty_self,
                self.effects.scheduled.iter().map(|(v, _)| v.0).collect::<Vec<_>>(), nbrs);
        }
        self.setup.counters.updates.fetch_add(1, AtomicOrdering::Relaxed);
        self.maybe_send_upd_note(false);
        if self.setup.config.trace {
            *self.update_count_map.entry(self.lg.vertex_gvid(center)).or_insert(0) += 1;
        }
        self.commit_and_release(reqid);
    }

    fn commit_and_release(&mut self, reqid: u64) {
        let me = self.me();
        let effects = std::mem::take(&mut self.effects);
        let out = self.out_scopes.remove(&reqid).expect("scope");
        let center = out.center_l;

        // Version bumps for locally-owned dirty data; write-back rows for
        // remotely-owned dirty data, grouped by owner.
        let mut vwrites: HashMap<MachineId, Vec<(VertexId, u32, Bytes)>> = HashMap::new();
        let mut ewrites: HashMap<MachineId, Vec<(graphlab_graph::EdgeId, Bytes)>> = HashMap::new();

        if effects.dirty_self {
            debug_assert!(self.lg.owns_vertex(center));
            self.lg.bump_vertex_version(center);
        }
        let mut dirty_edges = effects.dirty_edges.clone();
        dirty_edges.sort_unstable();
        dirty_edges.dedup();
        for le in dirty_edges {
            if self.lg.owns_edge(le) {
                self.lg.bump_edge_version(le);
            } else {
                let owner = self.lg.edge_owner(le);
                ewrites
                    .entry(owner)
                    .or_default()
                    .push((self.lg.edge_geid(le), enc(self.lg.edge_data(le))));
            }
        }
        let mut dirty_nbrs = effects.dirty_nbrs.clone();
        dirty_nbrs.sort_unstable();
        dirty_nbrs.dedup();
        for ln in dirty_nbrs {
            if self.lg.owns_vertex(ln) {
                self.lg.bump_vertex_version(ln);
            } else {
                let owner = self.lg.vertex_owner(ln);
                vwrites.entry(owner).or_default().push((
                    self.lg.vertex_gvid(ln),
                    self.snap_epoch[ln as usize],
                    enc(self.lg.vertex_data(ln)),
                ));
            }
        }

        // Scheduling — must happen before the scope is unlocked (snapshot
        // correctness condition, and per-channel FIFO makes "before" hold
        // remotely too).
        // BTreeMap: sends fan out in machine order so delivery interleavings
        // are a function of the seed, not the hasher (fault-trace replay).
        let mut remote_sched: BTreeMap<MachineId, Vec<(VertexId, f64)>> = BTreeMap::new();
        for &(gv, prio) in &effects.scheduled {
            let lv = self.lg.local_vertex(gv).expect("scheduled vertex in scope");
            let owner = self.lg.vertex_owner(lv);
            if owner == me {
                if !self.cap_reached {
                    let fresh = self.scheduler.add(lv, prio);
                    tr!("[m{}] SCHED_LOCAL v{} fresh={}", me.0, gv.0, fresh);
                }
            } else {
                remote_sched.entry(owner).or_default().push((gv, prio));
            }
        }
        for (mm, tasks) in remote_sched {
            tr!("[m{}] SCHED_SEND to=m{} {:?}", me.0, mm.0,
                tasks.iter().map(|(v, _)| v.0).collect::<Vec<_>>());
            self.send_counted(mm, K_LOCK_SCHED, enc(&ScheduleMsg { tasks }));
        }

        // Release per machine, with piggybacked write-backs. Remote hops
        // drop their own derived lock set (the release only names the
        // chain); the local hop releases through its HopChain directly.
        for &mm in &out.machines {
            if mm == me {
                let chain = self.hop_chains.remove(&(me.0, reqid)).expect("local hop chain");
                for (lv, t) in chain.my_locks {
                    let granted = self.locks.release(lv, t);
                    for key in granted {
                        self.resume_chain(key);
                    }
                }
            } else {
                let rel = ReleaseMsg {
                    reqid,
                    vwrites: vwrites.remove(&mm).unwrap_or_default(),
                    ewrites: ewrites.remove(&mm).unwrap_or_default(),
                };
                self.send_counted(mm, K_RELEASE, enc(&rel));
            }
        }
        debug_assert!(vwrites.is_empty(), "write-back owner not in lock plan");
        debug_assert!(ewrites.is_empty(), "edge write-back owner not in lock plan");
        self.effects = effects;
    }

    /// Alg. 5: the snapshot update function.
    fn execute_snapshot_update(&mut self, reqid: u64) {
        let center = self.out_scopes.get(&reqid).expect("scope").center_l;
        let snap = self.current_snap;
        if self.snap_epoch[center as usize] != snap {
            // Save D_v.
            self.snap_buffer
                .vrows
                .push((self.lg.vertex_gvid(center), enc(self.lg.vertex_data(center))));
            // Save edges to not-yet-snapshotted neighbours; schedule them.
            let adj: Vec<_> = self.lg.adj(center).to_vec();
            for e in adj {
                if self.snap_epoch[e.nbr as usize] != snap {
                    self.snap_buffer
                        .erows
                        .push((self.lg.edge_geid(e.edge), enc(self.lg.edge_data(e.edge))));
                    self.effects.scheduled.push((self.lg.vertex_gvid(e.nbr), SNAPSHOT_PRIORITY));
                }
            }
            // Mark v as snapshotted; bump the version so the marker
            // propagates with the ordinary scope-data synchronisation.
            self.snap_epoch[center as usize] = snap;
            self.snap_remaining -= 1;
            self.lg.bump_vertex_version(center);
        }
        // Route snapshot schedules: owned → snapshot queue, remote → owner.
        let scheduled = std::mem::take(&mut self.effects.scheduled);
        // BTreeMap: sends fan out in machine order so delivery interleavings
        // are a function of the seed, not the hasher (fault-trace replay).
        let mut remote_sched: BTreeMap<MachineId, Vec<(VertexId, f64)>> = BTreeMap::new();
        for (gv, prio) in scheduled {
            let lv = self.lg.local_vertex(gv).expect("in scope");
            let owner = self.lg.vertex_owner(lv);
            if owner == self.me() {
                if self.snap_epoch[lv as usize] != snap {
                    self.snap_queue.push_back(lv);
                }
            } else {
                remote_sched.entry(owner).or_default().push((gv, prio));
            }
        }
        for (mm, tasks) in remote_sched {
            self.send_counted(mm, K_LOCK_SCHED, enc(&ScheduleMsg { tasks }));
        }
        self.effects.clear();
        self.commit_and_release(reqid);
    }

    // ---- message handling ----

    fn handle(&mut self, env: Envelope) {
        if is_counted_work(env.kind) {
            self.safra.on_message_received(1);
            self.recv_counts[env.src.index()] += 1;
        }
        match env.kind {
            K_LOCK_REQ => {
                let msg: LockReqMsg = dec(env.payload);
                self.start_hop(msg);
            }
            K_SCOPE_DATA => {
                let msg: ScopeDataMsg = dec(env.payload);
                tr!("[m{}] DATA reqid={} rows={}v/{}e same={}v/{}e", self.me().0, msg.reqid,
                    msg.vrows.len(), msg.erows.len(), msg.vsame, msg.esame);
                // Rows + unchanged markers must cover the hop's whole share
                // of the scope's vertices (the requester knows exactly
                // which plan vertices env.src owns).
                debug_assert!(
                    self.out_scopes.get(&msg.reqid).is_none_or(|out| {
                        let owned = out
                            .plan
                            .iter()
                            .filter(|&&(v, _)| {
                                let lv = self.lg.local_vertex(v).expect("plan vertex local");
                                self.lg.vertex_owner(lv) == env.src
                            })
                            .count();
                        msg.vrows.len() + msg.vsame as usize == owned
                    }),
                    "scope response does not cover the hop's owned vertices"
                );
                for row in msg.vrows {
                    if let Some(lv) = self.lg.local_vertex(row.vid) {
                        let applied = self.lg.apply_vertex_update(lv, row.version, dec(row.data));
                        tr!("[m{}] DATA reqid={} v{} ver={} applied={}", self.me().0,
                            msg.reqid, row.vid.0, row.version, applied);
                        if row.snap > self.snap_epoch[lv as usize] {
                            self.snap_epoch[lv as usize] = row.snap;
                        }
                    }
                }
                for row in msg.erows {
                    if let Some(le) = self.lg.local_edge(row.eid) {
                        self.lg.apply_edge_update(le, row.version, dec(row.data));
                    }
                }
                if let Some(out) = self.out_scopes.get_mut(&msg.reqid) {
                    out.data_got += 1;
                    if out.now_ready() {
                        self.ready.push_back(msg.reqid);
                    }
                }
            }
            K_RELEASE => {
                let msg: ReleaseMsg = dec(env.payload);
                for (v, snap, blob) in msg.vwrites {
                    let lv = self.lg.local_vertex(v).expect("write-back target local");
                    debug_assert!(self.lg.owns_vertex(lv));
                    *self.lg.vertex_data_mut(lv) = dec(blob);
                    let ver = self.lg.bump_vertex_version(lv);
                    // The bump invalidates every peer's cache entry; the
                    // writer itself holds exactly the data it wrote.
                    self.cache.note_v(env.src.index(), lv, ver);
                    if snap > self.snap_epoch[lv as usize] {
                        self.snap_epoch[lv as usize] = snap;
                    }
                }
                for (e, blob) in msg.ewrites {
                    let le = self.lg.local_edge(e).expect("write-back target local");
                    debug_assert!(self.lg.owns_edge(le));
                    *self.lg.edge_data_mut(le) = dec(blob);
                    let ver = self.lg.bump_edge_version(le);
                    self.cache.note_e(env.src.index(), le, ver);
                }
                let chain = self
                    .hop_chains
                    .remove(&(env.src.0, msg.reqid))
                    .expect("release for a chain this hop holds");
                for (lv, t) in chain.my_locks {
                    let granted = self.locks.release(lv, t);
                    for key in granted {
                        self.resume_chain(key);
                    }
                }
            }
            K_LOCK_SCHED => {
                let msg: ScheduleMsg = dec(env.payload);
                for (gv, prio) in msg.tasks {
                    if let Some(lv) = self.lg.local_vertex(gv) {
                        debug_assert!(self.lg.owns_vertex(lv));
                        if prio == SNAPSHOT_PRIORITY {
                            if self.current_snap > 0 && self.snap_epoch[lv as usize] != self.current_snap
                            {
                                self.snap_queue.push_back(lv);
                            }
                        } else if !self.cap_reached {
                            let fresh = self.scheduler.add(lv, prio);
                            tr!("[m{}] SCHED_RECV v{} fresh={}", self.me().0, gv.0, fresh);
                        }
                    }
                }
            }
            K_TOKEN => {
                let tok: TokenMsg = dec(env.payload);
                // Re-evaluate idleness *now*: work-bearing messages handled
                // earlier in this same receive batch may have refilled the
                // scheduler since the last `update_idle`, and deciding (or
                // forwarding) on a stale idle flag lets the initiator
                // declare termination with tasks still queued locally.
                self.update_idle();
                let action = self.safra.on_token(tok.0);
                self.apply_safra(action);
            }
            K_HALT => {
                tr!("[m{}] HALT sched_len={} out={} ready={}", self.me().0,
                    self.scheduler.len(), self.out_scopes.len(), self.ready.len());
                self.send_msg(MachineId(0), K_HALT_ACK, Bytes::new());
                self.halted = true;
            }
            K_HALT_ACK => {
                self.m_halt_acks += 1;
            }
            K_LSYNC_PART => {
                let msg: LockSyncPartialMsg = dec(env.payload);
                self.master_collect_sync(msg);
            }
            K_LSYNC_GLOB => {
                let msg: SyncGlobalsMsg = dec(env.payload);
                for (id, ver, bytes) in msg.globals {
                    let op = self
                        .setup
                        .syncs
                        .iter()
                        .find(|s| s.id() == id)
                        .expect("broadcast global matches a registered sync");
                    let typed = op.decode_out(bytes).expect("malformed global value");
                    self.globals.apply(id, ver, typed);
                }
            }
            K_LSYNC_REQ => {
                let epoch: u64 = dec(env.payload);
                let partials: Vec<(u32, Bytes)> = self
                    .setup
                    .syncs
                    .iter()
                    .map(|op| (op.id(), op.local_partial(&self.lg)))
                    .collect();
                self.send_msg(
                    MachineId(0),
                    K_LSYNC_PART,
                    enc(&LockSyncPartialMsg { epoch, partials }),
                );
            }
            K_SNAP_SYNC_START => {
                let _snap: u64 = dec(env.payload);
                self.begin_sync_snapshot();
            }
            K_SNAP_SYNC_READY => {
                let msg: SnapReadyMsg = dec(env.payload);
                self.master_collect_snap_ready(env.src, msg);
            }
            K_SNAP_SYNC_FLUSH => {
                let msg: SnapFlushMsg = dec(env.payload);
                self.snap_flush_target = Some(msg.expect_from);
            }
            K_SNAP_DONE => {
                self.m_snap_done += 1;
            }
            K_SNAP_RESUME => {
                self.snap_paused = false;
                self.snap_ready_sent = false;
                self.snap_flush_target = None;
                self.snap_written = false;
                // Conservative: the checkpoint just cut may be restored
                // into a fresh cluster later; drop residency assumptions so
                // the table never spans a snapshot boundary.
                self.cache.invalidate_all();
            }
            K_SNAP_ASYNC_START => {
                let snap: u64 = dec(env.payload);
                self.begin_async_snapshot(snap as u32);
            }
            K_SNAP_ASYNC_MDONE => {
                self.m_async_done += 1;
            }
            K_UPD_NOTE => {
                let msg: UpdNoteMsg = dec(env.payload);
                if self.is_master() {
                    let slot = &mut self.m_peer_updates[msg.from.index()];
                    *slot = (*slot).max(msg.updates);
                }
            }
            other => panic!("unexpected message kind {other} in locking engine"),
        }
    }

    fn apply_safra(&mut self, action: SafraAction) {
        match action {
            SafraAction::None => {}
            SafraAction::SendToken { to, token } => {
                // Route around permanently-dead ring members: a dead
                // machine is indistinguishable from an idle white peer
                // with zero counters, so skipping it preserves Safra's
                // invariant. When every other member is dead the token is
                // self-delivered (sole-survivor decision); bounded because
                // a self-delivered round whitens us, so the retry decides.
                let n = self.num_machines();
                let mut to = to;
                let mut token = token;
                for _ in 0..4 {
                    while self.rec.is_dead(to.index()) {
                        to = MachineId::from((to.index() + 1) % n);
                    }
                    if to != self.me() {
                        self.send_msg(to, K_TOKEN, enc(&TokenMsg(token)));
                        return;
                    }
                    match self.safra.on_token(token) {
                        SafraAction::SendToken { to: t, token: k } => {
                            to = t;
                            token = k;
                        }
                        other => {
                            self.apply_safra(other);
                            return;
                        }
                    }
                }
                self.failure = Some(
                    "termination probe cannot complete: sole survivor with a nonzero \
                     message balance"
                        .into(),
                );
            }
            SafraAction::Terminated => {
                debug_assert!(self.is_master());
                tr!("[m{}] SAFRA_TERMINATED", self.me().0);
                self.m_halt_pending = true;
            }
        }
    }

    fn update_idle(&mut self) {
        let idle = (self.scheduler.is_empty() || self.cap_reached)
            && self.snap_queue.is_empty()
            && self.out_scopes.is_empty()
            && self.ready.is_empty();
        if idle {
            // Close the master's last trigger window with an exact count
            // before going quiet (notes are not counted work, so Safra's
            // balance is untouched).
            self.maybe_send_upd_note(true);
        }
        let action = self.safra.set_idle(idle);
        self.apply_safra(action);
    }

    // ---- master coordination ----

    fn master_triggers(&mut self) {
        debug_assert!(self.is_master());
        let g_updates = self.observed_updates();

        // Background sync epochs.
        let interval = self.setup.config.sync_interval_updates;
        if interval > 0
            && !self.setup.syncs.is_empty()
            && self.m_sync_outstanding.is_none()
            && g_updates >= self.m_sync_next_at
            && !self.m_halt_sent
        {
            self.m_sync_next_at = g_updates + interval;
            self.start_sync_epoch(false);
        }

        // Snapshot triggers.
        let snap_cfg = self.setup.config.snapshot;
        if snap_cfg.mode != SnapshotMode::None
            && snap_cfg.every_updates > 0
            && !self.m_snap_in_progress
            && (self.snapshots_written) < snap_cfg.max_snapshots
            && g_updates.saturating_sub(self.m_last_snap_updates) >= snap_cfg.every_updates
            && !self.m_halt_pending
            && !self.m_halt_sent
        {
            self.m_last_snap_updates = g_updates;
            self.m_snap_in_progress = true;
            self.m_snap_done = 0;
            self.m_async_done = 0;
            self.m_snap_ready = vec![None; self.num_machines()];
            let id = self.snapshots_written;
            match snap_cfg.mode {
                SnapshotMode::Synchronous => {
                    let payload = enc(&id);
                    self.broadcast_msg(K_SNAP_SYNC_START, &payload);
                    self.begin_sync_snapshot();
                }
                SnapshotMode::Asynchronous => {
                    let payload = enc(&(id + 1));
                    self.broadcast_msg(K_SNAP_ASYNC_START, &payload);
                    self.begin_async_snapshot((id + 1) as u32);
                }
                SnapshotMode::None => unreachable!(),
            }
        }

        // Async snapshot completion.
        if self.m_snap_in_progress
            && self.setup.config.snapshot.mode == SnapshotMode::Asynchronous
            && self.m_async_done >= self.live_machines()
        {
            self.m_snap_in_progress = false;
        }

        // Halt sequencing: optional final sync, then halt broadcast.
        if self.m_halt_pending && !self.m_snap_in_progress && !self.m_halt_sent {
            if !self.setup.syncs.is_empty() && !self.m_final_sync_done {
                if self.m_sync_outstanding.is_none() {
                    self.start_sync_epoch(true);
                }
            } else {
                self.m_halt_sent = true;
                self.m_halt_acks = 1; // self
                self.broadcast_msg(K_HALT, &Bytes::new());
            }
        }
        if self.m_halt_sent && self.m_halt_acks >= self.live_machines() {
            self.halted = true;
        }
    }

    fn start_sync_epoch(&mut self, fin: bool) {
        self.m_sync_epoch += 1;
        let epoch = if fin { u64::MAX } else { self.m_sync_epoch };
        let payload = enc(&epoch);
        self.broadcast_msg(K_LSYNC_REQ, &payload);
        let mut accs: Vec<Box<dyn std::any::Any + Send>> =
            self.setup.syncs.iter().map(|op| op.init_acc()).collect();
        for (i, op) in self.setup.syncs.iter().enumerate() {
            let part = op.local_partial(&self.lg);
            op.combine(accs[i].as_mut(), &part);
        }
        self.m_sync_outstanding = Some((epoch, accs, 1));
        if self.live_machines() == 1 {
            self.finish_sync_epoch();
        }
    }

    fn master_collect_sync(&mut self, msg: LockSyncPartialMsg) {
        let need = self.live_machines();
        let Some((epoch, accs, got)) = self.m_sync_outstanding.as_mut() else {
            return; // stale partial from an abandoned epoch
        };
        if msg.epoch != *epoch {
            return;
        }
        for (i, (id, part)) in msg.partials.iter().enumerate() {
            debug_assert_eq!(*id, self.setup.syncs[i].id());
            self.setup.syncs[i].combine(accs[i].as_mut(), part);
        }
        *got += 1;
        if *got >= need {
            self.finish_sync_epoch();
        }
    }

    fn finish_sync_epoch(&mut self) {
        let (epoch, accs, _) = self.m_sync_outstanding.take().expect("epoch active");
        let total = self.lg.total_vertices();
        let mut rows = Vec::new();
        for (op, acc) in self.setup.syncs.iter().zip(accs) {
            let (bytes, typed) = op.finalize(acc, total);
            let ver = self.globals.set(op.id(), typed);
            rows.push((op.id(), ver, bytes));
        }
        let msg = SyncGlobalsMsg { cycle: epoch, globals: rows, halt: false, snapshot: None };
        let payload = enc(&msg);
        self.broadcast_msg(K_LSYNC_GLOB, &payload);
        if epoch == u64::MAX {
            self.m_final_sync_done = true;
        }
        // Aggregate-driven termination (§3.5): evaluate the stop predicate
        // over the just-finalized globals. The epoch that tripped it doubles
        // as the final sync — everyone already holds these values.
        if !self.m_halt_pending && self.setup.stop.as_ref().is_some_and(|f| f(&self.globals)) {
            tr!("[m{}] STOP_WHEN fired at epoch {}", self.me().0, epoch);
            self.m_halt_pending = true;
            self.m_final_sync_done = true;
        }
    }

    // ---- snapshots ----

    fn begin_sync_snapshot(&mut self) {
        self.snap_paused = true;
        self.snap_ready_sent = false;
        self.snap_flush_target = None;
        self.snap_written = false;
    }

    fn begin_async_snapshot(&mut self, snap: u32) {
        // Snapshot boundary: drop all residency assumptions (see the
        // K_SNAP_RESUME note). Alg. 5's marker propagation additionally
        // relies on version bumps, which this makes unconditionally safe.
        self.cache.invalidate_all();
        self.current_snap = snap;
        self.snap_buffer = SnapshotFile::default();
        self.snap_remaining = self.lg.owned_vertices().len();
        self.snap_queue.clear();
        for i in 0..self.lg.owned_vertices().len() {
            let l = self.lg.owned_vertices()[i];
            self.snap_queue.push_back(l);
        }
        if self.snap_remaining == 0 {
            // No owned vertices: immediately done.
            self.finish_async_snapshot();
        }
    }

    fn finish_async_snapshot(&mut self) {
        let file = std::mem::take(&mut self.snap_buffer);
        write_snapshot_atoms(
            &self.setup.dfs,
            &self.setup.snap_prefix,
            self.current_snap as u64 - 1,
            file,
            &self.lg,
            &self.setup.placement.atoms_of(self.me()),
        );
        self.snapshots_written += 1;
        if self.is_master() {
            self.m_async_done += 1;
        } else {
            self.send_msg(MachineId(0), K_SNAP_ASYNC_MDONE, Bytes::new());
        }
    }

    fn check_snapshot_progress(&mut self) {
        // Asynchronous: machine part complete when every owned vertex is
        // marked.
        if self.current_snap > 0 && self.snap_remaining == 0 && !self.snap_buffer_is_flushed() {
            self.finish_async_snapshot();
        }

        // Synchronous: drained → READY; flush satisfied → write + DONE.
        if self.snap_paused && !self.snap_ready_sent && self.out_scopes.is_empty() && self.ready.is_empty()
        {
            self.snap_ready_sent = true;
            let msg = SnapReadyMsg { snap: self.snapshots_written, sent_to: self.sent_counts.clone() };
            if self.is_master() {
                self.master_collect_snap_ready(MachineId(0), msg);
            } else {
                self.send_msg(MachineId(0), K_SNAP_SYNC_READY, enc(&msg));
            }
        }
        if self.snap_paused && !self.snap_written {
            if let Some(target) = &self.snap_flush_target {
                let flushed = (0..self.num_machines()).all(|j| {
                    j == self.me().index() || self.rec.is_dead(j) || self.recv_counts[j] >= target[j]
                });
                if flushed {
                    self.snap_written = true;
                    let file = SnapshotFile::capture(&self.lg);
                    write_snapshot_atoms(
                        &self.setup.dfs,
                        &self.setup.snap_prefix,
                        self.snapshots_written,
                        file,
                        &self.lg,
                        &self.setup.placement.atoms_of(self.me()),
                    );
                    self.snapshots_written += 1;
                    if self.is_master() {
                        self.m_snap_done += 1;
                        self.master_check_snap_done();
                    } else {
                        self.send_msg(MachineId(0), K_SNAP_DONE, Bytes::new());
                    }
                }
            }
        }
        if self.is_master() {
            self.master_check_snap_done();
        }
    }

    fn snap_buffer_is_flushed(&self) -> bool {
        // After finish_async_snapshot the buffer is empty *and* remaining is
        // zero; use the written counter as the definitive latch.
        self.snap_buffer.vrows.is_empty()
            && self.snap_buffer.erows.is_empty()
            && self.snapshots_written as u32 >= self.current_snap
    }

    fn master_collect_snap_ready(&mut self, src: MachineId, msg: SnapReadyMsg) {
        if !self.is_master() {
            return;
        }
        self.m_snap_ready[src.index()] = Some(msg.sent_to);
        let all_ready = self
            .m_snap_ready
            .iter()
            .enumerate()
            .all(|(j, r)| self.rec.is_dead(j) || r.is_some());
        if all_ready {
            // All survivors drained: broadcast per-machine flush targets
            // (dead machines contribute no counted work: expect zero).
            let m = self.num_machines();
            for i in 0..m {
                let expect_from: Vec<u64> = (0..m)
                    .map(|j| self.m_snap_ready[j].as_ref().map_or(0, |sent| sent[i]))
                    .collect();
                let msg = SnapFlushMsg { snap: self.snapshots_written, expect_from };
                if i == self.me().index() {
                    self.snap_flush_target = Some(msg.expect_from);
                } else if !self.rec.is_dead(i) {
                    self.send_msg(MachineId::from(i), K_SNAP_SYNC_FLUSH, enc(&msg));
                }
            }
            self.m_snap_ready = vec![None; m];
        }
    }

    fn master_check_snap_done(&mut self) {
        if self.m_snap_in_progress
            && self.setup.config.snapshot.mode == SnapshotMode::Synchronous
            && self.m_snap_done >= self.live_machines()
        {
            self.m_snap_in_progress = false;
            self.m_snap_done = 0;
            self.broadcast_msg(K_SNAP_RESUME, &Bytes::new());
            self.snap_paused = false;
            self.snap_ready_sent = false;
            self.snap_flush_target = None;
            self.snap_written = false;
            // The master resumes inline (it never receives its own
            // broadcast): same conservative invalidation as K_SNAP_RESUME.
            self.cache.invalidate_all();
        }
    }

    fn maybe_straggle(&mut self) {
        if let Some(s) = self.setup.config.straggler {
            if !self.straggled && self.me().0 == s.machine && self.global_updates() >= s.after_updates
            {
                self.straggled = true;
                std::thread::sleep(s.duration);
            }
        }
    }

    fn finish(mut self) -> MachineResult<V, E> {
        let update_counts: Vec<(VertexId, u64)> =
            std::mem::take(&mut self.update_count_map).into_iter().collect();
        let globals = std::mem::take(&mut self.globals);
        let updates = self.updates_local;
        let snapshots = self.snapshots_written;
        let recoveries = self.rec.recoveries;
        let adoptions = self.rec.adoptions;
        let failed = self.failure.take();
        let dead = self.dead;
        let (vrows, erows) =
            if dead { (Vec::new(), Vec::new()) } else { self.lg.into_owned_data() };
        MachineResult {
            vrows,
            erows,
            globals,
            updates,
            update_counts,
            steps: 0,
            snapshots,
            recoveries,
            adoptions,
            dead,
            failed,
            phase: crate::metrics::PhaseTimes::default(),
            chain_spans: std::mem::take(&mut self.chain_spans),
            idle_wakeups: self.idle_wakeups,
        }
    }
}

impl<V, E, U> RecoveryHost for LockingMachine<V, E, U>
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
            coloring: None,
            snap_prefix: &self.setup.snap_prefix,
            num_atoms: self.setup.config.num_atoms,
            mode: self.setup.config.recovery,
            snapshots: &mut self.snapshots_written,
        }
    }

    /// Resets every piece of volatile engine state — scheduler, lock
    /// table, chains, termination detector, snapshot and master
    /// coordination state — reallocating everything sized by the local
    /// graph.
    fn reset_engine_state(&mut self) {
        let n = self.num_machines();
        let nv = self.lg.num_local_vertices();
        let ne = self.lg.num_local_edges();
        self.scheduler = Scheduler::new(self.setup.config.scheduler, nv);
        self.locks = LockTable::new(nv);
        self.cache = RemoteCacheTable::new(n, nv, ne);
        self.hop_chains.clear();
        self.out_scopes.clear();
        self.ready.clear();
        // The crash may have taken the ring's only token with it; the
        // cluster-wide reset re-probes from scratch (see
        // `graphlab_net::termination` § Faults).
        self.safra.reset();
        self.cap_reached = false;
        self.sent_counts = vec![0; n];
        self.recv_counts = vec![0; n];
        self.snap_epoch = vec![0; nv];
        self.current_snap = 0;
        self.snap_queue.clear();
        self.snap_buffer = SnapshotFile::default();
        self.snap_remaining = 0;
        self.snap_paused = false;
        self.snap_ready_sent = false;
        self.snap_flush_target = None;
        self.snap_written = false;
        self.m_snap_in_progress = false;
        self.m_snap_ready = vec![None; n];
        self.m_snap_done = 0;
        self.m_async_done = 0;
        // `updates_local` and the K_UPD_NOTE state (`last_noted`,
        // `m_peer_updates`) deliberately survive: counts are cumulative
        // and never reset, which is what makes stale notes idempotent.
        self.m_last_snap_updates = self.observed_updates();
        self.m_halt_pending = false;
        self.m_halt_sent = false;
        self.m_halt_acks = 0;
        self.m_sync_outstanding = None;
        self.m_sync_next_at = self.observed_updates() + self.setup.config.sync_interval_updates;
        self.m_final_sync_done = false;
        self.effects.clear();
    }

    fn reseed(&mut self, l: u32) {
        self.scheduler.add(l, 1.0);
    }

    fn replay(&mut self, env: Envelope) {
        self.handle(env);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KA: ChainKey = (0, 1);
    const KB: ChainKey = (0, 2);
    const KC: ChainKey = (1, 1);

    #[test]
    fn read_locks_share() {
        let mut t = LockTable::new(2);
        assert!(t.acquire(0, LockType::Read, KA));
        assert!(t.acquire(0, LockType::Read, KB));
        assert_eq!(t.held(0), (2, false));
    }

    #[test]
    fn write_excludes() {
        let mut t = LockTable::new(1);
        assert!(t.acquire(0, LockType::Write, KA));
        assert!(!t.acquire(0, LockType::Read, KB));
        assert!(!t.acquire(0, LockType::Write, KC));
        let granted = t.release(0, LockType::Write);
        // FIFO: the read parked first is granted; the write must wait.
        assert_eq!(granted, vec![KB]);
        assert_eq!(t.held(0), (1, false));
        let granted = t.release(0, LockType::Read);
        assert_eq!(granted, vec![KC]);
        assert_eq!(t.held(0), (0, true));
    }

    #[test]
    fn fifo_fairness_blocks_barging_readers() {
        let mut t = LockTable::new(1);
        assert!(t.acquire(0, LockType::Read, KA));
        assert!(!t.acquire(0, LockType::Write, KB)); // queued
        // A new reader may NOT barge past the queued writer.
        assert!(!t.acquire(0, LockType::Read, KC));
        let granted = t.release(0, LockType::Read);
        assert_eq!(granted, vec![KB]);
        let granted = t.release(0, LockType::Write);
        assert_eq!(granted, vec![KC]);
    }

    #[test]
    fn reader_batch_grant() {
        let mut t = LockTable::new(1);
        assert!(t.acquire(0, LockType::Write, KA));
        assert!(!t.acquire(0, LockType::Read, KB));
        assert!(!t.acquire(0, LockType::Read, KC));
        let granted = t.release(0, LockType::Write);
        assert_eq!(granted, vec![KB, KC], "consecutive readers granted together");
        assert_eq!(t.held(0), (2, false));
    }

    #[test]
    fn independent_vertices_do_not_interact() {
        let mut t = LockTable::new(3);
        assert!(t.acquire(0, LockType::Write, KA));
        assert!(t.acquire(1, LockType::Write, KB));
        assert!(t.acquire(2, LockType::Read, KC));
    }

    #[test]
    fn release_empty_queue_grants_nothing() {
        let mut t = LockTable::new(1);
        assert!(t.acquire(0, LockType::Read, KA));
        assert!(t.release(0, LockType::Read).is_empty());
    }
}
