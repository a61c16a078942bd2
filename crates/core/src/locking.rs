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
//!    its scope executes. A snapshot leaves it true: saving a row changes
//!    no datum and no version, in either mode. Every recovery builds a
//!    fresh one.
//! 2. **Pipelining** — every machine keeps up to `max_pipeline` lock
//!    chains in flight; scopes whose locks and data have arrived are
//!    executed by the machine loop while the rest of the pipeline fills
//!    (Alg. 4). The non-blocking lock table below is the "callback"
//!    readers-writer lock: acquisition never blocks the engine thread,
//!    parked requests are resumed from release processing.
//!
//! # Data layout of the hot path
//!
//! Acquiring, executing and releasing a scope hashes nothing, sorts nothing
//! and, once buffers have grown, allocates nothing — its messages included,
//! which cost one copy each: the bytes `put` writes into the envelope.
//!
//! - **Plans** ([`ScopePlans`]): one CSR row per local vertex, built with
//!   the machine and rebuilt when recovery replaces the local graph. A hop
//!   walks `plans.share(..)`, its own run of the centre's row.
//! - **Slabs**: `HopChain`s and `OutScope`s live in `Vec` slabs with free
//!   lists; lock wait queues, the ready list and each scope ↔ local chain
//!   link carry `SlotRef`s (slot + generation) that index straight in.
//! - **Still keyed**, once per *received message* (a slot index cannot ride
//!   the wire without changing it), through [`IdMap`]: a `Release` finds its
//!   chain by `(requester, reqid)`, a `ScopeData` its scope by `reqid`, rows
//!   their datum by global id. Single-machine scopes are never indexed.
//! - **Messages** have no buffer of their own. A send hands the
//!   destination's `Batcher` queue the kind `RecoveryTracker::wire` checked
//!   and the message's `put` from `messages.rs`, which encodes straight
//!   into the queue; a received `Req`, `ScopeData`,
//!   `Release` or `Sched` ([`LockKind`]) is walked in place by the matching
//!   `read`, rows applied as they are met, a datum decoded from a view of
//!   the envelope. `messages.rs` owns every wire layout, both ways.
//! - **Scratch** owned by the machine: per-destination commit output
//!   drained in machine-id order, the woken-chain list, one row buffer (a
//!   datum is encoded there before its length-prefixed row is written) and
//!   the machine lists of released chains, which the next forwarded
//!   requests take over.
//!
//! # Coordination
//!
//! Termination, both snapshot modes (§4.3), sync epochs and the halt are
//! `crate::coord`'s decisions, fed each control message, pass and trigger;
//! this engine applies them to its data. Either snapshot mode is
//! Chandy–Lamport between machines, its markers the `SnapStart`s on the
//! channels every lock chain uses: no snapshot chain runs, and a
//! synchronous snapshot only pauses new chains on a machine from its
//! capture until its part is written. The one datum it needs from the data
//! plane is a `Release`'s sender: a write-back that `Coord::pre_cut` names
//! is saved again once applied (`crate::coord`'s module docs say why the
//! cut holds). The master folds a sync epoch's partials in machine-id
//! order, whatever order they arrived in, so a float global's bits are a
//! function of the partials alone.
//!
//! # What a crash keeps
//!
//! A crash, a rollback or an adoption loses `Volatile`, which
//! `reset_engine_state` replaces whole, beside `Coord::reset` (which keeps
//! the sync epoch). The engine keeps its `Machine`, the metrics, the
//! run-long `next_reqid` and `last_noted`, the master's per-peer update
//! counts and snapshot window, and scratch empty between uses.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use graphlab_atoms::LocalGraphInit;
use graphlab_graph::{ConsistencyModel, IdMap, LockType, MachineId, VertexId};
use graphlab_net::codec::Codec;
use graphlab_net::{Endpoint, Envelope, RecvError};

use crate::config::{Ablation, SnapshotMode};
use crate::coord::{Coord, Input, Msg, Output};
use crate::driver::{MachineResult, MachineSetup};
use crate::local::{scope_lock, RemoteCacheTable, ScopePlans};
use crate::machine::Machine;
use crate::messages::*;
use crate::metrics::HotCounters;
use crate::recovery::{self, RecoveryHost, RecoveryPhase, RECOVERY_POLL};
use crate::scheduler::{Scheduler, SchedulerKind};
use crate::sync::{apply_globals, combine_partials, finalize_into, local_partials};
use crate::update::UpdateFunction;

/// Receive deadline for an idle (or pipeline-full) machine in the normal
/// phase — master included, now that [`LockKind::UpdNote`] announces worker
/// update counts, sync/snapshot triggers are message-driven and the quiet
/// round moves only on its markers and reports.
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

// ---------------------------------------------------------------------
// Non-blocking callback readers-writer lock table
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct LockState {
    readers: u32,
    writer: bool,
    queue: VecDeque<(SlotRef, LockType)>,
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
    pub(crate) fn acquire(&mut self, v: u32, t: LockType, chain: SlotRef) -> bool {
        let st = &mut self.states[v as usize];
        if st.queue.is_empty() && st.compatible(t) {
            st.grant(t);
            true
        } else {
            st.queue.push_back((chain, t));
            false
        }
    }

    /// Releases a held lock, appending to `granted` the chains whose
    /// queued request on this vertex just got granted (readers batch).
    pub(crate) fn release(&mut self, v: u32, t: LockType, granted: &mut Vec<SlotRef>) {
        let st = &mut self.states[v as usize];
        st.ungrant(t);
        while let Some(&(chain, ty)) = st.queue.front() {
            if st.compatible(ty) {
                st.grant(ty);
                st.queue.pop_front();
                granted.push(chain);
            } else {
                break;
            }
        }
    }

    #[cfg(test)]
    fn held(&self, v: u32) -> (u32, bool) {
        (self.states[v as usize].readers, self.states[v as usize].writer)
    }
}

// ---------------------------------------------------------------------
// Chain bookkeeping
// ---------------------------------------------------------------------

/// Names a slab slot. Lock wait queues and the ready list carry these; the
/// generation catches a name that outlived its slot (debug builds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SlotRef {
    slot: u32,
    generation: u32,
}

/// `Vec` slab with a free list (a freed slot keeps its last value until
/// it is reused).
#[derive(Default)]
struct Slab<T> {
    slots: Vec<T>,
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn insert(&mut self, value: T) -> SlotRef {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = value;
                slot
            }
            None => {
                self.slots.push(value);
                self.gens.push(0);
                self.slots.len() as u32 - 1
            }
        };
        SlotRef { slot, generation: self.gens[slot as usize] }
    }

    fn get(&mut self, r: SlotRef) -> &mut T {
        debug_assert_eq!(self.gens[r.slot as usize], r.generation, "stale slab reference");
        &mut self.slots[r.slot as usize]
    }

    fn free(&mut self, r: SlotRef) {
        debug_assert_eq!(self.gens[r.slot as usize], r.generation, "slot freed twice");
        self.gens[r.slot as usize] += 1;
        self.free.push(r.slot);
    }

    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// A lock chain resident at this machine (one hop's view).
#[derive(Default)]
struct HopChain {
    requester: MachineId,
    reqid: u64,
    /// Local id of the scope's centre: the plan row this hop walks.
    center: u32,
    model: ConsistencyModel,
    /// This machine's share of the row ([`ScopePlans::share`]) and the next
    /// lock to acquire in it (sequential acquisition).
    locks: Range<u32>,
    next: u32,
    /// The requester-side scope, when this machine initiated the chain.
    out: SlotRef,
    /// Machines still to visit after this hop, as the request listed them
    /// (a chain this machine initiated reads them off its plan instead).
    rest: Vec<MachineId>,
}

/// Requester-side state of an outstanding scope acquisition.
#[derive(Default)]
struct OutScope {
    reqid: u64,
    center: u32,
    model: ConsistencyModel,
    remote_needed: u32,
    data_got: u32,
    local_done: bool,
    /// The local hop's chain, once it started.
    chain: SlotRef,
}

impl OutScope {
    /// Whether every remote hop delivered its scope data and the local hop
    /// (the centre is ours) completed. Each of those events happens once, so
    /// asked after each, this turns true exactly once: at the last of them.
    fn is_ready(&self) -> bool {
        self.data_got == self.remote_needed && self.local_done
    }
}

/// Dirty data and schedule requests of one commit bound for one machine.
#[derive(Default)]
struct Outbox {
    vwrites: Vec<u32>,
    ewrites: Vec<u32>,
    sched: Vec<(VertexId, f64)>,
}

// ---------------------------------------------------------------------
// The machine loop
// ---------------------------------------------------------------------

pub(crate) struct LockingMachine<V, E, U: ?Sized> {
    /// The machine under the engine: everything the chromatic engine has too.
    core: Machine<V, E>,
    update: Arc<U>,
    /// What a crash loses, replaced whole by `reset_engine_state`.
    vol: Volatile,
    /// Never reused, so `(requester, reqid)` names one chain for the whole
    /// run, a reset included.
    next_reqid: u64,
    /// The run is over here; nothing after it resets the engine.
    halted: bool,

    /// Quiet round, snapshots, sync epochs, halt: what to do is its call;
    /// `todo` holds what it asked for until applied (empty between feeds).
    coord: Coord,
    todo: Vec<Output>,

    // Commit/hop scratch, reused across updates (beside `core.rowbuf`) and
    // empty between them: chains woken by a release, per-destination
    // commit output (by machine id) and the emptied `HopChain::rest`
    // vectors of released chains.
    woken: Vec<SlotRef>,
    outbox: Vec<Outbox>,
    rest_pool: Vec<Vec<MachineId>>,

    // Run-long metrics: the hot path's counters and the control-plane
    // accounting (`repro -- abl-control`).
    hot: HotCounters,
    /// Lock-chain span histogram: `chain_spans[s]` counts chains that
    /// touched exactly `s` machines.
    chain_spans: Vec<u64>,
    /// Normal-phase receive deadlines that expired with no message and no
    /// runnable work. Message-driven triggers keep this at zero on an
    /// idle healthy cluster.
    idle_wakeups: u64,
    /// [`LockKind::UpdNote`] granule: a worker notifies the master every
    /// `note_every` local updates. 0 = no counter-driven triggers are
    /// configured, so no notes are ever sent.
    note_every: u64,
    /// Local update count as of the last note sent (workers only); counts
    /// are cumulative, which makes stale notes idempotent.
    last_noted: u64,
    /// Master: the highest cumulative update count each peer has noted
    /// (own slot unused). Per-peer maxima, so the total stays monotone
    /// across rollbacks and adoptions (a dead peer's last note stands).
    peer_updates: Vec<u64>,
    /// Master: [`Self::observed_updates`] at the last snapshot trigger or
    /// reset.
    last_snap_updates: u64,
}

/// The engine's state that a crash, a rollback or an adoption loses. One
/// constructor builds it at the start and on every reset, sized by the
/// local graph at the time (an adoption changes it).
struct Volatile {
    scheduler: Scheduler,
    locks: LockTable,
    /// Owner-side ghost-cache version table: what every peer already holds
    /// of this machine's data (delta scope sync, §4.2.2 versioning).
    cache: RemoteCacheTable,
    plans: ScopePlans,
    chains: Slab<HopChain>,
    /// Other machines' chains resident here, by `(requester, reqid)`:
    /// looked up once per `LockKind::Release`.
    chain_index: IdMap<ChainKey, SlotRef>,
    outs: Slab<OutScope>,
    /// Own scopes that span other machines, by reqid: looked up once per
    /// `LockKind::ScopeData` (and per `LockKind::Req` reaching its own requester).
    out_index: IdMap<u64, SlotRef>,
    ready: VecDeque<SlotRef>,
    no_more_tasks: bool,
    /// Between `Output::Pause` and `Output::Resume`: no new chain starts.
    paused: bool,
    /// Master: each machine's partials of the open sync epoch, by machine
    /// id (empty: none yet). A worker answers each epoch once and in
    /// order, so at `Output::Finalize` every survivor's slot holds that
    /// epoch's.
    parts: Vec<Vec<(u32, Bytes)>>,
}

impl Volatile {
    /// No task, lock or chain, sized by `core`'s local graph, with the lock
    /// plans built from it.
    fn new<V, E>(core: &Machine<V, E>) -> Self {
        let lg = &core.lg;
        let (nv, ne) = (lg.num_local_vertices(), lg.num_local_edges());
        Volatile {
            scheduler: Scheduler::new(core.setup.config.scheduler, nv),
            locks: LockTable::new(nv),
            cache: RemoteCacheTable::new(core.slots(), nv, ne),
            plans: ScopePlans::build(lg),
            chains: Slab::default(),
            chain_index: IdMap::default(),
            outs: Slab::default(),
            out_index: IdMap::default(),
            ready: VecDeque::new(),
            no_more_tasks: false,
            paused: false,
            parts: vec![Vec::new(); core.slots()],
        }
    }
}

impl<V, E, U> LockingMachine<V, E, U>
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
        let core = Machine::new(ep, setup, init);
        let (setup, m) = (&core.setup, core.slots());
        // LockKind::UpdNote granule: fine enough that the master observes a
        // counter-driven trigger at most ~1/8 interval late across the
        // whole cluster (m-1 peers, each up to a granule behind), coarse
        // enough that notes stay a negligible traffic fraction. No
        // counter-driven triggers configured → no notes, ever.
        let sync_every = (!setup.syncs.is_empty()).then_some(setup.sync_every);
        let snap_cfg = setup.config.snapshot;
        let snap_every = (snap_cfg.mode != SnapshotMode::None && snap_cfg.max_snapshots > 0)
            .then_some(snap_cfg.every_updates);
        let finest = [sync_every, snap_every].into_iter().flatten().filter(|&n| n > 0).min();
        let note_every = finest.map_or(0, |n| (n / (8 * m as u64)).max(1));
        LockingMachine {
            coord: Coord::new(core.lg.machine(), m, snap_cfg.mode, sync_every),
            todo: Vec::new(),
            vol: Volatile::new(&core),
            next_reqid: 1,
            halted: false,
            woken: Vec::new(),
            outbox: (0..m).map(|_| Outbox::default()).collect(),
            rest_pool: Vec::new(),
            hot: HotCounters::default(),
            chain_spans: Vec::new(),
            idle_wakeups: 0,
            note_every,
            last_noted: 0,
            peer_updates: vec![0; m],
            last_snap_updates: 0,
            core,
            update,
        }
    }

    /// Worker-side half of the message-driven master: announce the local
    /// cumulative update count when it crosses a granule boundary, or
    /// (`flush`) with its exact value on the idle transition, so the
    /// master's last trigger window closes without a timer. The master's
    /// [`Self::observed_updates`] — what drives its sync and snapshot
    /// triggers instead of polling the shared counter — is then at most
    /// ~`finest_interval / 8` behind the true total.
    fn maybe_send_upd_note(&mut self, flush: bool) {
        if self.note_every == 0 || self.core.is_master() {
            return;
        }
        let due = if flush {
            self.core.updates_local > self.last_noted
        } else {
            self.core.updates_local - self.last_noted >= self.note_every
        };
        if due {
            self.last_noted = self.core.updates_local;
            self.core.send(MachineId(0), LockKind::UpdNote, enc(&self.core.updates_local));
        }
    }

    pub(crate) fn run(mut self) -> MachineResult<V, E> {
        for (l, p) in self.core.initial_tasks() {
            self.vol.scheduler.add(l, p);
        }
        while !self.halted && self.core.failure.is_none() {
            let normal = self.core.rec.phase() == RecoveryPhase::Normal;
            if normal {
                self.hot.loop_iters += 1;
                self.hot.pipeline_occupancy += self.vol.outs.live() as u64;
                self.core.maybe_straggle();
                if self.core.is_master() {
                    self.master_triggers();
                }
                self.pump();
                self.execute_ready();
                self.end_pass();
                if self.core.is_master() {
                    // The pass may have ended a quiet round (a clean one
                    // halts a lone master): start what is due now rather
                    // than after a full idle deadline.
                    self.master_triggers();
                    if self.halted {
                        break;
                    }
                }
            }
            let deadline = if normal { self.next_recv_deadline() } else { RECOVERY_POLL };
            self.hot.blocking_recvs += u64::from(normal && deadline > Duration::ZERO);
            match self.core.net.recv_timeout(deadline) {
                Ok(env) => {
                    self.dispatch(env);
                    // Drain the inbox without blocking to amortise the
                    // pump/execute overhead across message bursts.
                    for _ in 0..512 {
                        match self.core.net.try_recv() {
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
                Err(RecvError::Disconnected) => break,
                Err(e) => {
                    let step = recovery::on_recv(&mut self, Err(e));
                    self.halted |= self.core.ends_run(step);
                }
            }
        }
        // Halt-era messages (acks, final releases) may still sit in the
        // batch queues; the master is blocked waiting for them.
        self.core.net.flush_all();
        MachineResult {
            chain_spans: self.chain_spans,
            idle_wakeups: self.idle_wakeups,
            hot: self.hot,
            ..self.core.finish()
        }
    }

    /// Routes one envelope: normal-phase engine traffic goes straight to
    /// [`Self::handle`]; the recovery/fabric control plane — and, while a
    /// round is in progress, everything else, to be discarded or buffered
    /// for replay by phase — goes to the shared recovery machine.
    fn dispatch(&mut self, env: Envelope) {
        self.route(Kind::of(&env), env);
    }

    /// [`Self::dispatch`], for an envelope already decoded as `kind`.
    fn route(&mut self, kind: Kind, env: Envelope) {
        match kind {
            Kind::Lock(kind) if self.core.rec.phase() == RecoveryPhase::Normal => {
                self.handle(kind, env)
            }
            Kind::Lock(_) | Kind::Recovery(_) => {
                // A resumed round needs nothing: the loop simply finds the
                // phase normal again.
                let step = recovery::on_recv(self, Ok((kind, env)));
                self.halted |= self.core.ends_run(step);
            }
            Kind::Chrom(kind) => panic!("{} in the locking engine", kind.name()),
        }
    }

    /// How long the machine loop may block in `recv_timeout`.
    ///
    /// With runnable local work the loop must not block at all; otherwise
    /// progress is message-driven (lock grants, scope data, releases, the
    /// quiet round's markers and reports — and, for the master's
    /// sync/snapshot triggers, [`LockKind::UpdNote`] counter announcements
    /// — all wake the blocked receive), so idle and pipeline-full machines
    /// sleep on a pure liveness backstop. The one timed path left is an
    /// injected straggler that has not fired yet: its trigger reads the
    /// shared update counter, which no message announces.
    fn next_recv_deadline(&self) -> Duration {
        if self.has_runnable_work() {
            return Duration::ZERO;
        }
        if self.core.straggler_pending().is_some() {
            return STRAGGLER_POLL;
        }
        IDLE_BACKSTOP
    }

    /// Whether `pump`/`execute_ready` could make progress right now
    /// without receiving anything.
    fn has_runnable_work(&self) -> bool {
        if !self.vol.ready.is_empty() {
            return true;
        }
        if self.vol.paused || self.halted {
            return false;
        }
        self.vol.outs.live() < self.core.setup.config.max_pipeline.max(1) && self.chain_could_start()
    }

    // ---- pipeline ----

    /// Whether a lock chain could start, pipeline room aside: the scheduler
    /// holds a task and still takes them. The one copy of the condition:
    /// `pump` starts chains while it holds, the receive deadline is zero
    /// while it holds, and a pass is idle only once it does not.
    fn chain_could_start(&self) -> bool {
        !self.vol.no_more_tasks && !self.vol.scheduler.is_empty()
    }

    fn pump(&mut self) {
        if self.vol.paused || self.halted {
            return;
        }
        if self.core.capped(self.core.live_updates()) {
            self.take_no_more_tasks();
        }
        while self.vol.outs.live() < self.core.setup.config.max_pipeline.max(1) && self.chain_could_start() {
            if let Some(l) = self.vol.scheduler.pop() {
                self.initiate_chain(l);
            }
        }
    }

    /// The update cap or the stop predicate fired: the tasks go, none is
    /// taken until a reset, and the next clean quiet round ends the run.
    fn take_no_more_tasks(&mut self) {
        if !self.vol.no_more_tasks {
            self.vol.no_more_tasks = true;
            let nv = self.core.lg.num_local_vertices();
            self.vol.scheduler = Scheduler::new(self.core.setup.config.scheduler, nv);
        }
    }

    fn initiate_chain(&mut self, l: u32) {
        let model = if self.core.setup.config.ablation == Ablation::Racing {
            // Fig. 1(d): lock only the central vertex; reads of neighbour
            // ghosts race against concurrent writers.
            ConsistencyModel::Vertex
        } else {
            self.core.setup.config.consistency
        };
        let me = self.core.me();
        let machines = self.vol.plans.lock_owners(l, me, model);
        let (span, first) = (machines.len(), machines[0]);
        if self.chain_spans.len() <= span {
            self.chain_spans.resize(span + 1, 0);
        }
        self.chain_spans[span] += 1;

        let reqid = self.next_reqid;
        self.next_reqid += 1;
        let out = self.vol.outs.insert(OutScope {
            reqid,
            center: l,
            model,
            remote_needed: span as u32 - 1,
            ..OutScope::default()
        });
        if span > 1 {
            self.vol.out_index.insert(reqid, out);
        }
        if first == me {
            let chain = HopChain { requester: me, reqid, center: l, model, out, ..HopChain::default() };
            self.start_hop(chain);
        } else {
            let (scope_v, machines) = (self.core.lg.vertex_gvid(l), self.vol.plans.lock_owners(l, me, model));
            let model = consistency_to_u8(model);
            self.core.send_with(first, LockKind::Req, |buf| {
                LockReqMsg::put(buf, me, reqid, scope_v, machines, model)
            });
        }
    }

    // ---- hop processing ----

    /// Starts this machine's hop of `chain`: its share of the centre's plan
    /// row, taken lock by lock.
    fn start_hop(&mut self, mut chain: HopChain) {
        debug_assert!(self.vol.plans.row_is_current(&self.core.lg, chain.center), "plans outlived their graph");
        let me = self.core.me();
        chain.locks = self.vol.plans.share(chain.center, me, chain.model);
        chain.next = chain.locks.start;
        debug_assert!(!chain.locks.is_empty(), "hop visits a machine owning scope vertices");
        let (requester, reqid, out) = (chain.requester, chain.reqid, chain.out);
        let r = self.vol.chains.insert(chain);
        if requester == me {
            self.vol.outs.get(out).chain = r;
        } else {
            self.vol.chain_index.insert((requester.0, reqid), r);
        }
        self.advance_chain(r);
    }

    fn advance_chain(&mut self, r: SlotRef) {
        let chain = self.vol.chains.get(r);
        while chain.next < chain.locks.end {
            let lv = self.vol.plans.vert(chain.next);
            let t = scope_lock(chain.model, chain.center, lv).expect("planned vertex is locked");
            self.hot.lock_acquires += 1;
            if !self.vol.locks.acquire(lv, t, r) {
                self.hot.lock_parks += 1;
                return; // parked; resumed through resume_chain
            }
            chain.next += 1;
        }
        self.finish_hop(r);
    }

    /// Resumes a chain whose parked lock was just granted by
    /// [`LockTable::release`]: the lock at `next` is already held, so step
    /// past it before continuing sequential acquisition.
    fn resume_chain(&mut self, r: SlotRef) {
        self.vol.chains.get(r).next += 1;
        self.advance_chain(r);
    }

    /// All local locks of chain `r` granted: send fresh scope data to the
    /// requester and forward the chain.
    fn finish_hop(&mut self, r: SlotRef) {
        let me = self.core.me();
        let chain = self.vol.chains.get(r);
        let (requester, reqid, center, model) =
            (chain.requester, chain.reqid, chain.center, chain.model);
        if requester != me {
            let locks = chain.locks.clone();
            self.send_scope_data(requester, reqid, center, locks);
        } else {
            let out = chain.out;
            let scope = self.vol.outs.get(out);
            scope.local_done = true;
            if scope.is_ready() {
                self.vol.ready.push_back(out);
            }
        }

        // Continuation passing: forward to the next machine in canonical
        // order, naming only the machines still to visit so visited hops
        // stop paying wire bytes.
        let rest = if requester == me {
            let machines = self.vol.plans.lock_owners(center, me, model);
            &machines[machines.partition_point(|&m| m <= me)..]
        } else {
            &self.vol.chains.get(r).rest[..]
        };
        if let Some(&dst) = rest.first() {
            debug_assert!(dst > me, "chains visit machines in ascending order");
            let (scope_v, model) = (self.core.lg.vertex_gvid(center), consistency_to_u8(model));
            self.core.send_with(dst, LockKind::Req, |buf| {
                LockReqMsg::put(buf, requester, reqid, scope_v, rest, model)
            });
        }
    }

    /// Version-filtered data sync: "synchronization of locked data is
    /// performed immediately as each machine completes its local locks". A
    /// row is skipped when the remote-cache table proves the requester
    /// already holds the current version (it was either shipped to it, or
    /// written *by* it, on this same FIFO channel pair) — a compact marker
    /// rides instead. The owned vertex set is the hop's lock share; the
    /// owned edge set is the plan row's edge list.
    fn send_scope_data(&mut self, to: MachineId, reqid: u64, center: u32, locks: Range<u32>) {
        let req = to.index();
        let filter = self.core.setup.config.ablation != Ablation::FullScopeResend;
        let (verts, edges) = (self.vol.plans.verts(locks), self.vol.plans.owned_edges(center));
        let lg = &self.core.lg;
        let stale_v = |cache: &RemoteCacheTable, lv| {
            !filter || cache.v_known(req, lv) < lg.vertex_version(lv)
        };
        let stale_e =
            |cache: &RemoteCacheTable, le| !filter || cache.e_known(req, le) < lg.edge_version(le);
        // The fresh-row counts prefix the rows on the wire: count first.
        let nv = verts.iter().filter(|&&lv| stale_v(&self.vol.cache, lv)).count();
        let ne = edges.iter().filter(|&&le| stale_e(&self.vol.cache, le)).count();
        let cx = &mut (&mut self.vol.cache, &mut self.core.rowbuf);
        self.core.net.send_with(to, self.core.rec.wire(LockKind::ScopeData), |buf| {
            ScopeDataMsg::put(
                buf,
                cx,
                reqid,
                (nv, (verts.len() - nv) as u32),
                |(cache, row), buf| {
                    for &lv in verts {
                        debug_assert!(lg.owns_vertex(lv));
                        if stale_v(cache, lv) {
                            let cur = lg.vertex_version(lv);
                            cache.note_v(req, lv, cur);
                            row.clear();
                            lg.vertex_data(lv).encode(row);
                            VertexRow::put(buf, lg.vertex_gvid(lv), cur, 0, row);
                        }
                    }
                },
                (ne, (edges.len() - ne) as u32),
                |(cache, row), buf| {
                    for &le in edges {
                        if stale_e(cache, le) {
                            let cur = lg.edge_version(le);
                            cache.note_e(req, le, cur);
                            row.clear();
                            lg.edge_data(le).encode(row);
                            EdgeRow::put(buf, lg.edge_geid(le), cur, row);
                        }
                    }
                },
            )
        });
    }

    // ---- execution ----

    fn execute_ready(&mut self) {
        while let Some(out) = self.vol.ready.pop_front() {
            let center = self.vol.outs.get(out).center;
            let prioritized = self.vol.scheduler.kind() == SchedulerKind::Priority;
            self.core.execute(&*self.update, center, prioritized);
            self.maybe_send_upd_note(false);
            self.commit_and_release(out);
        }
    }

    /// Enqueues an application task for a vertex this machine owns.
    fn schedule_owned(&mut self, lv: u32, prio: f64) {
        debug_assert!(self.core.lg.owns_vertex(lv));
        if !self.vol.no_more_tasks {
            self.vol.scheduler.add(lv, prio);
        }
    }

    fn commit_and_release(&mut self, out: SlotRef) {
        let me = self.core.me();
        let mut effects = std::mem::take(&mut self.core.effects);
        let scope = self.vol.outs.get(out);
        let (reqid, center, model, chain) = (scope.reqid, scope.center, scope.model, scope.chain);
        if scope.remote_needed > 0 {
            self.vol.out_index.remove(&reqid);
        }
        self.vol.outs.free(out);

        // Version bumps for locally-owned dirty data; remotely-owned dirty
        // data is written back with its owner's release.
        if effects.dirty_self {
            debug_assert!(self.core.lg.owns_vertex(center));
            self.core.lg.bump_vertex_version(center);
        }
        effects.dirty_edges.sort_unstable();
        effects.dirty_edges.dedup();
        for &le in &effects.dirty_edges {
            if self.core.lg.owns_edge(le) {
                self.core.lg.bump_edge_version(le);
            } else {
                self.outbox[self.core.lg.edge_owner(le).index()].ewrites.push(le);
            }
        }
        effects.dirty_nbrs.sort_unstable();
        effects.dirty_nbrs.dedup();
        for &ln in &effects.dirty_nbrs {
            if self.core.lg.owns_vertex(ln) {
                self.core.lg.bump_vertex_version(ln);
            } else {
                self.outbox[self.core.lg.vertex_owner(ln).index()].vwrites.push(ln);
            }
        }

        // Scheduling — must happen before the scope is unlocked (snapshot
        // correctness condition, and per-channel FIFO makes "before" hold
        // remotely too). Sends fan out in machine order so delivery
        // interleavings are a function of the seed;
        // every scheduled vertex is in the scope, so the row's owners cover
        // them under every consistency model.
        for &(lv, prio) in &effects.scheduled {
            let owner = self.core.lg.vertex_owner(lv);
            if owner == me {
                self.schedule_owned(lv, prio);
            } else {
                self.outbox[owner.index()].sched.push((self.core.lg.vertex_gvid(lv), prio));
            }
        }
        for k in 0..self.vol.plans.owners(center).len() {
            let mm = self.vol.plans.owners(center)[k];
            if !self.outbox[mm.index()].sched.is_empty() {
                let tasks = &mut self.outbox[mm.index()].sched;
                self.core.send_with(mm, LockKind::Sched, |buf| ScheduleMsg::put(buf, tasks));
                tasks.clear();
            }
        }

        // Release per machine, with piggybacked write-backs. Remote hops
        // drop their own lock share (the release only names the chain).
        for k in 0..self.vol.plans.lock_owners(center, me, model).len() {
            let mm = self.vol.plans.lock_owners(center, me, model)[k];
            if mm == me {
                self.release_chain(chain);
                continue;
            }
            let (lg, ob) = (&self.core.lg, &mut self.outbox[mm.index()]);
            let rowbuf = &mut self.core.rowbuf;
            self.core.net.send_with(mm, self.core.rec.wire(LockKind::Release), |buf| {
                ReleaseMsg::put(
                    buf,
                    rowbuf,
                    reqid,
                    ob.vwrites.len(),
                    |row, buf| {
                        for lv in ob.vwrites.drain(..) {
                            row.clear();
                            lg.vertex_data(lv).encode(row);
                            ReleaseMsg::put_vwrite(buf, lg.vertex_gvid(lv), 0, row);
                        }
                    },
                    ob.ewrites.len(),
                    |row, buf| {
                        for le in ob.ewrites.drain(..) {
                            row.clear();
                            lg.edge_data(le).encode(row);
                            ReleaseMsg::put_ewrite(buf, lg.edge_geid(le), row);
                        }
                    },
                )
            });
        }
        // Dirty data owned by a machine the chain did not lock (racing
        // writes) has no release to ride: dropped, never left behind for a
        // later scope's release.
        for ob in &mut self.outbox {
            debug_assert!(
                ob.vwrites.len() + ob.ewrites.len() + ob.sched.len() == 0,
                "write-back or schedule owner not in the scope's plan"
            );
            ob.vwrites.clear();
            ob.ewrites.clear();
            ob.sched.clear();
        }
        self.core.effects = effects;
    }

    /// Drops every lock chain `r` holds here, resuming the chains each
    /// release grants before the next lock is released, then frees the slot.
    fn release_chain(&mut self, r: SlotRef) {
        let chain = self.vol.chains.get(r);
        let (locks, center, model) = (chain.locks.clone(), chain.center, chain.model);
        debug_assert_eq!(chain.next, locks.end, "released chain holds its whole share");
        let mut woken = std::mem::take(&mut self.woken);
        for i in locks {
            let lv = self.vol.plans.vert(i);
            let t = scope_lock(model, center, lv).expect("planned vertex is locked");
            self.vol.locks.release(lv, t, &mut woken);
            for w in woken.drain(..) {
                self.resume_chain(w);
            }
        }
        self.woken = woken;
        let mut rest = std::mem::take(&mut self.vol.chains.get(r).rest);
        if rest.capacity() > 0 {
            rest.clear();
            self.rest_pool.push(rest);
        }
        self.vol.chains.free(r);
    }

    // ---- message handling ----

    /// The four data-plane kinds, the globals and the update notes are
    /// handled here; every other kind is decoded for `coord`.
    fn handle(&mut self, kind: LockKind, env: Envelope) {
        if kind.is_counted_work() {
            self.coord.step(Input::Work, &self.core.rec, &mut self.todo);
        }
        let src = env.src;
        match kind {
            LockKind::Req => {
                // The chain's head is this hop; the machines behind it are
                // what the chain keeps (in a released chain's vector).
                let (mut head, mut rest) = (None, self.rest_pool.pop().unwrap_or_default());
                let (requester, reqid, scope_v, model) = read_all(&env.payload, |p| {
                    LockReqMsg::read(p, |m| match head {
                        None => head = Some(m),
                        Some(_) => rest.push(m),
                    })
                });
                debug_assert_eq!(head, Some(self.core.me()), "chain head is this hop");
                let model = consistency_from_u8(model).expect("valid consistency model");
                let center = self.core.lg.local_vertex(scope_v).expect("scope centre replicated at hop");
                let out = if requester == self.core.me() {
                    *self.vol.out_index.get(&reqid).expect("own scope")
                } else {
                    SlotRef::default()
                };
                self.start_hop(HopChain { requester, reqid, center, model, out, rest, ..HopChain::default() });
            }
            LockKind::ScopeData => {
                // Rows are applied as they are read: nothing is built.
                let (src, payload) = (env.src, &env.payload);
                let (reqid, (nv, vsame), _) = read_all(payload, |p| {
                    ScopeDataMsg::read(
                        p,
                        self,
                        |m, vid, version, _, data| {
                            if let Some(lv) = m.core.lg.local_vertex(vid) {
                                m.core.lg.apply_vertex_update(lv, version, dec_in(payload, data));
                            }
                        },
                        |m, eid, version, data| {
                            if let Some(le) = m.core.lg.local_edge(eid) {
                                m.core.lg.apply_edge_update(le, version, dec_in(payload, data));
                            }
                        },
                    )
                });
                let out = self.vol.out_index.get(&reqid).copied();
                // Rows + unchanged markers must cover the hop's whole share
                // of the scope's vertices (the requester's plan row says
                // exactly which of them env.src owns).
                debug_assert!(
                    out.is_none_or(|out| {
                        let (c, model) = (self.vol.outs.get(out).center, self.vol.outs.get(out).model);
                        nv + vsame as usize == self.vol.plans.share(c, src, model).len()
                    }),
                    "scope response does not cover the hop's owned vertices"
                );
                if let Some(out) = out {
                    let scope = self.vol.outs.get(out);
                    scope.data_got += 1;
                    if scope.is_ready() {
                        self.vol.ready.push_back(out);
                    }
                }
            }
            LockKind::Release => {
                let (src, payload) = (env.src.index(), &env.payload);
                // A pre-cut write-back's row is saved again, behind the
                // capture's copy: restore applies the last one.
                let resave = self.coord.pre_cut(env.src);
                let reqid = read_all(payload, |p| {
                    ReleaseMsg::read(
                        p,
                        self,
                        |m, v, _, data| {
                            let lv = m.core.lg.local_vertex(v).expect("write-back target local");
                            debug_assert!(m.core.lg.owns_vertex(lv));
                            *m.core.lg.vertex_data_mut(lv) = dec_in(payload, data);
                            let ver = m.core.lg.bump_vertex_version(lv);
                            // The bump invalidates every peer's cache entry;
                            // the writer itself holds exactly the data it wrote.
                            m.vol.cache.note_v(src, lv, ver);
                            if resave {
                                m.core.ckpt.save_vertex(&m.core.lg, lv);
                            }
                        },
                        |m, e, data| {
                            let le = m.core.lg.local_edge(e).expect("write-back target local");
                            debug_assert!(m.core.lg.owns_edge(le));
                            *m.core.lg.edge_data_mut(le) = dec_in(payload, data);
                            let ver = m.core.lg.bump_edge_version(le);
                            m.vol.cache.note_e(src, le, ver);
                            if resave {
                                m.core.ckpt.save_edge(&m.core.lg, le);
                            }
                        },
                    )
                });
                let chain = self
                    .vol
                    .chain_index
                    .remove(&(env.src.0, reqid))
                    .expect("release for a chain this hop holds");
                self.release_chain(chain);
            }
            LockKind::Sched => read_all(&env.payload, |p| {
                ScheduleMsg::read(p, |gv, prio| {
                    if let Some(lv) = self.core.lg.local_vertex(gv) {
                        self.schedule_owned(lv, prio);
                    }
                })
            }),
            LockKind::SyncGlob => {
                apply_globals(&self.core.setup.syncs, dec(env.payload), &mut self.core.globals);
                if self.core.stop_hit() {
                    self.take_no_more_tasks();
                }
            }
            LockKind::UpdNote => {
                if self.core.is_master() {
                    self.note_peer_updates(src, dec(env.payload));
                }
            }
            LockKind::SyncPart => {
                let LockSyncPartialMsg { epoch, partials } = dec(env.payload);
                self.vol.parts[src.index()] = partials;
                self.feed(Input::Msg(src, Msg::SyncPart(epoch)));
            }
            LockKind::Quiet => self.feed(Input::Msg(src, Msg::Quiet(dec(env.payload)))),
            LockKind::QuietReport => {
                let QuietReportMsg { round, clean } = dec(env.payload);
                self.feed(Input::Msg(src, Msg::QuietReport(round, clean)));
            }
            LockKind::Halt => self.feed(Input::Msg(src, Msg::Halt)),
            LockKind::HaltAck => self.feed(Input::Msg(src, Msg::HaltAck)),
            LockKind::SyncReq => self.feed(Input::Msg(src, Msg::SyncReq(dec(env.payload)))),
            LockKind::SnapStart => self.feed(Input::Msg(src, Msg::SnapStart(dec(env.payload)))),
            LockKind::SnapDone => self.feed(Input::Msg(src, Msg::SnapDone)),
        }
    }

    // ---- coordination: `crate::coord` decides, this applies ----

    /// Master: the triggers, from the counts the notes announce. The
    /// snapshot window is consumed only when a snapshot may start.
    fn master_triggers(&mut self) {
        self.feed(Input::SyncDue(self.observed_updates()));
        if self.coord.may_snapshot() {
            if let Some(id) = self.snapshot_due() {
                self.feed(Input::SnapshotDue(id));
            }
        }
    }

    /// Master: records that `peer` noted `updates` executed so far.
    fn note_peer_updates(&mut self, peer: MachineId, updates: u64) {
        let slot = &mut self.peer_updates[peer.index()];
        *slot = (*slot).max(updates);
    }

    /// Master: a message-driven view of the cluster-wide update count, its
    /// own plus the highest each peer noted — a lower bound on the true
    /// total, and the same over TCP as on SimNet (the process-shared
    /// `LiveCounters` only ever hold the machines of this process).
    fn observed_updates(&self) -> u64 {
        self.core.updates_local + self.peer_updates.iter().sum::<u64>()
    }

    /// Master: the id of the checkpoint to start now, if the configured
    /// interval of [`Self::observed_updates`] has passed since the last
    /// trigger; the window then restarts.
    fn snapshot_due(&mut self) -> Option<u64> {
        let updates = self.observed_updates();
        let since = updates.saturating_sub(self.last_snap_updates);
        let due = self.core.setup.config.snapshot.due(self.core.snapshots, since);
        due.then(|| {
            self.last_snap_updates = updates;
            self.core.snapshots
        })
    }

    /// The end of a loop pass: an idle worker closes the master's trigger
    /// window with an exact count (notes are not work) before `coord` hears.
    fn end_pass(&mut self) {
        let idle = self.vol.outs.live() == 0 && self.vol.ready.is_empty() && !self.chain_could_start();
        if idle {
            self.maybe_send_upd_note(true);
        }
        self.feed(Input::Pass { idle });
    }

    /// Hands `input` to `coord` and applies what it returns, in order.
    fn feed(&mut self, input: Input) {
        let mut todo = std::mem::take(&mut self.todo);
        self.coord.step(input, &self.core.rec, &mut todo);
        for output in todo.drain(..) {
            self.apply(output);
        }
        self.todo = todo;
    }

    fn apply(&mut self, output: Output) {
        match output {
            Output::Send(dst, msg) => {
                let (kind, payload) = wire(msg);
                self.core.send(dst, kind, payload);
            }
            Output::Broadcast(msg) => {
                let (kind, payload) = wire(msg);
                self.core.broadcast(kind, &payload);
            }
            Output::Pause => self.vol.paused = true,
            Output::Resume => self.vol.paused = false,
            Output::Save => self.core.ckpt.save_owned(&self.core.lg),
            Output::Write(id) => self.core.write_checkpoint(id),
            Output::Partials(epoch) => {
                let partials = local_partials(&self.core.setup.syncs, &self.core.lg);
                if self.core.is_master() {
                    self.vol.parts[self.core.me().index()] = partials;
                } else {
                    let msg = LockSyncPartialMsg { epoch, partials };
                    self.core.send(MachineId(0), LockKind::SyncPart, enc(&msg));
                }
            }
            Output::Finalize(_) => {
                let syncs = &self.core.setup.syncs;
                let mut accs: Vec<_> = syncs.iter().map(|op| op.init_acc()).collect();
                for part in &mut self.vol.parts {
                    combine_partials(syncs, &mut accs, &std::mem::take(part));
                }
                let total = self.core.lg.total_vertices();
                let globals = finalize_into(syncs, accs, total, &mut self.core.globals);
                self.core.broadcast(LockKind::SyncGlob, &enc(&globals));
                // §3.5; at the final epoch there is nothing left to drop.
                if self.core.stop_hit() {
                    self.take_no_more_tasks();
                }
            }
            Output::Halt => self.halted = true,
        }
    }
}

/// A coordination message as the wire carries it (a worker's partials
/// leave as `Output::Partials`, with their bytes).
fn wire(msg: Msg) -> (LockKind, Bytes) {
    match msg {
        Msg::Quiet(k) => (LockKind::Quiet, enc(&k)),
        Msg::QuietReport(round, clean) => {
            (LockKind::QuietReport, enc(&QuietReportMsg { round, clean }))
        }
        Msg::Halt => (LockKind::Halt, Bytes::new()),
        Msg::HaltAck => (LockKind::HaltAck, Bytes::new()),
        Msg::SyncReq(epoch) => (LockKind::SyncReq, enc(&epoch)),
        Msg::SyncPart(_) => unreachable!("partials leave with their bytes"),
        Msg::SnapStart(id) => (LockKind::SnapStart, enc(&id)),
        Msg::SnapDone => (LockKind::SnapDone, Bytes::new()),
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

    fn machine(&mut self) -> &mut Machine<V, E> {
        &mut self.core
    }

    /// Every round in flight is abandoned with the rest; the master opens
    /// a fresh quiet round once it is idle after the resume. The sync
    /// cadence and the snapshot window restart from the counts as they
    /// stand: they are cumulative and were not rolled back, which is what
    /// makes stale notes idempotent.
    fn reset_engine_state(&mut self) {
        self.vol = Volatile::new(&self.core);
        self.last_snap_updates = self.observed_updates();
        self.coord.reset(self.last_snap_updates);
    }

    fn reseed(&mut self, l: u32) {
        self.vol.scheduler.add(l, 1.0);
    }

    fn replay(&mut self, kind: Kind, env: Envelope) {
        self.route(kind, env);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::{Part, Quiet, Round};
    use crate::driver::tests::{scripted_machine, NoUpdate};
    use crate::reference::InitialSchedule;
    use crate::snapshot::{restore_snapshot, snapshot_exists};

    const KA: SlotRef = SlotRef { slot: 0, generation: 0 };
    const KB: SlotRef = SlotRef { slot: 1, generation: 0 };
    const KC: SlotRef = SlotRef { slot: 2, generation: 0 };

    fn release(t: &mut LockTable, v: u32, ty: LockType) -> Vec<SlotRef> {
        let mut granted = Vec::new();
        t.release(v, ty, &mut granted);
        granted
    }

    /// The complete digraph on three vertices, vertex `i` holding `i`.
    fn triangle() -> graphlab_graph::DataGraph<f64, f64> {
        let mut b = graphlab_graph::GraphBuilder::new();
        let v: Vec<VertexId> = (0..3).map(|i| b.add_vertex(i as f64)).collect();
        for (i, j) in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)] {
            b.add_edge(v[i], v[j], 1.0).unwrap();
        }
        b.build()
    }

    /// Machine `me` of three over [`triangle`], vertex `i` on machine `i`,
    /// full consistency, unbatched, nothing scheduled; plus the other two
    /// machines' endpoints, ascending, where what machine `me` sends
    /// arrives (for machine 2, `peers[j]` is machine `j`'s).
    fn hop_machine(me: u16) -> (LockingMachine<f64, f64, NoUpdate>, Vec<Endpoint>) {
        let one_each = graphlab_atoms::VertexPartition::from_assignment(
            (0..3).map(graphlab_graph::AtomId).collect(),
            3,
        );
        let mut config = crate::EngineConfig::new(3);
        config.consistency = ConsistencyModel::Full;
        config.batch = graphlab_net::BatchPolicy::Disabled;
        let none = InitialSchedule::Vertices(Vec::new());
        let (setup, init, mut eps) =
            scripted_machine(&triangle(), &one_each, MachineId(me), config, none);
        let update = Arc::new(NoUpdate);
        (LockingMachine::new(eps.remove(me as usize), setup, update, init), eps)
    }

    /// `m` with snapshots in `mode` configured: one, due after an update.
    fn snapshots(m: &mut LockingMachine<f64, f64, NoUpdate>, mode: SnapshotMode) {
        m.core.setup.config.snapshot =
            crate::config::SnapshotConfig { mode, every_updates: 1, max_snapshots: 1 };
        m.coord = Coord::new(m.core.me(), 3, mode, None);
    }

    /// What has arrived at `ep`, as `(kind, payload)`.
    fn inbox(ep: &Endpoint) -> Vec<(LockKind, Bytes)> {
        std::iter::from_fn(|| ep.try_recv().ok())
            .map(|env| match Kind::of(&env) {
                Kind::Lock(kind) => (kind, env.payload),
                kind => panic!("{} is not the locking engine's", kind.name()),
            })
            .collect()
    }

    /// Machine `src`'s `kind` message, handled by `m` as the loop would.
    fn deliver(m: &mut LockingMachine<f64, f64, NoUpdate>, src: u16, kind: LockKind, payload: Bytes) {
        let dst = m.core.me();
        m.dispatch(Envelope { src: MachineId(src), dst, kind: kind as u16, payload });
    }

    /// Termination on the master: a `Sched` queued ahead of machine 1's
    /// `Quiet(1)` reaches it after its own marker and before it holds
    /// every survivor's, so round 1 is dirty and the run does not halt,
    /// though both peers report clean. The master's own report is the last
    /// in, on an idle pass, and that pass opens round 2: nothing else
    /// would wake an idle master.
    #[test]
    fn work_ahead_of_a_peers_quiet_marker_makes_the_round_dirty() {
        let (mut m, peers) = hop_machine(0);
        let quiet = |k: u64| (LockKind::Quiet, enc(&k));
        let clean = enc(&QuietReportMsg { round: 1, clean: true });
        m.end_pass();
        assert_eq!([inbox(&peers[0]), inbox(&peers[1])], [[quiet(1)], [quiet(1)]]);

        let sched = ScheduleMsg { tasks: vec![(VertexId(0), 1.0)] };
        deliver(&mut m, 1, LockKind::Sched, enc(&sched));
        deliver(&mut m, 1, LockKind::Quiet, enc(&1u64));
        deliver(&mut m, 1, LockKind::QuietReport, clean.clone());
        m.end_pass();
        assert_eq!(m.coord.quiet, Quiet::Sent(1, true));
        assert_eq!(m.vol.scheduler.pop(), m.core.lg.local_vertex(VertexId(0)), "the task ran");

        deliver(&mut m, 2, LockKind::Quiet, enc(&1u64));
        deliver(&mut m, 2, LockKind::QuietReport, clean);
        m.end_pass();
        m.master_triggers();
        assert!(!matches!(m.coord.round, Round::Halt { .. }), "a dirty round halted the run");
        assert_eq!(m.coord.quiet, Quiet::Sent(2, false));
        assert_eq!([inbox(&peers[0]), inbox(&peers[1])], [[quiet(2)], [quiet(2)]]);
    }

    /// Termination across a death: `reset_engine_state` abandons the round
    /// in flight — no marker or report from before it counts — and the
    /// master's next idle pass opens a fresh one, which needs every
    /// survivor's marker and report again.
    #[test]
    fn a_reset_abandons_the_quiet_round_and_the_master_opens_a_fresh_one() {
        let (mut m, peers) = hop_machine(0);
        let clean = enc(&QuietReportMsg { round: 1, clean: true });
        m.end_pass();
        deliver(&mut m, 1, LockKind::Quiet, enc(&1u64));
        deliver(&mut m, 1, LockKind::QuietReport, clean.clone());
        assert!(matches!(m.coord.round, Round::Quiet { .. }) && m.coord.quiet_marks.next(MachineId(1)) == 2);

        m.core.reset_engine_state();
        RecoveryHost::reset_engine_state(&mut m);
        assert_eq!(m.coord.quiet, Quiet::Done(0));
        assert_eq!(m.coord.quiet_marks.next(MachineId(1)), 0, "a pre-reset marker survived");
        assert!(matches!(m.coord.round, Round::Idle), "a pre-reset report survived");
        let _round_1 = (inbox(&peers[0]), inbox(&peers[1]));

        m.end_pass();
        let quiet = (LockKind::Quiet, enc(&1u64));
        assert_eq!([inbox(&peers[0]), inbox(&peers[1])], [[quiet.clone()], [quiet]]);
        for src in [1, 2] {
            deliver(&mut m, src, LockKind::Quiet, enc(&1u64));
        }
        deliver(&mut m, 1, LockKind::QuietReport, clean.clone());
        m.end_pass();
        assert!(!matches!(m.coord.round, Round::Halt { .. }), "halted without machine 2's report");
        deliver(&mut m, 2, LockKind::QuietReport, clean);
        assert!(matches!(m.coord.round, Round::Halt { .. }));
    }

    /// A trigger is work: while a synchronous snapshot is in flight an idle
    /// master opens no quiet round, not even once its own part is written.
    /// The last peer's `SnapDone` ends the snapshot where it lands, so the
    /// next idle pass opens round 1.
    #[test]
    fn no_quiet_round_opens_while_a_snapshot_is_in_flight() {
        let (mut m, peers) = hop_machine(0);
        snapshots(&mut m, SnapshotMode::Synchronous);
        m.note_peer_updates(MachineId(1), 1);
        let pass = |m: &mut LockingMachine<f64, f64, NoUpdate>| {
            m.master_triggers();
            m.end_pass();
        };
        let marker = (LockKind::SnapStart, enc(&0u64));
        pass(&mut m);
        assert_eq!([inbox(&peers[0]), inbox(&peers[1])], [[marker.clone()], [marker]]);
        for src in [1, 2] {
            deliver(&mut m, src, LockKind::SnapStart, enc(&0u64));
        }
        pass(&mut m);
        assert!(snapshot_exists(&m.core.setup.dfs, "ckpt", 0), "the master's part");
        deliver(&mut m, 1, LockKind::SnapDone, Bytes::new());
        pass(&mut m);
        assert!(inbox(&peers[0]).is_empty() && inbox(&peers[1]).is_empty(), "a round during a snapshot");

        deliver(&mut m, 2, LockKind::SnapDone, Bytes::new());
        assert!(matches!((&m.coord.round, &m.coord.part), (Round::Idle, Part::Idle)));
        pass(&mut m);
        let quiet = (LockKind::Quiet, enc(&1u64));
        assert_eq!([inbox(&peers[0]), inbox(&peers[1])], [[quiet.clone()], [quiet]]);
    }

    /// The cut on machine 2, a worker, in both snapshot modes. Machine 1's
    /// `SnapStart` overtakes the master's: machine 2 saves its rows at once
    /// and broadcasts its own marker. Machine 0's write-back, ahead of 0's
    /// marker, is pre-cut and saved again; machine 1's, behind 1's marker,
    /// is not, though it lands last. The master's marker, the last
    /// survivor's, writes the part, and exactly one `SnapDone` leaves. A
    /// task that arrives meanwhile starts its chain at once under
    /// Chandy–Lamport; a synchronous part starts none from its capture
    /// until it is written, and one right after. Saving changes no datum
    /// and no version: machine 1 holds vertex 2 as it wrote it, and the
    /// same scope again gets an unchanged marker in place of the row.
    #[test]
    fn a_peers_marker_starts_the_part_and_pre_cut_write_backs_are_saved_again() {
        for mode in [SnapshotMode::Asynchronous, SnapshotMode::Synchronous] {
            let paused = mode == SnapshotMode::Synchronous;
            let (mut m, peers) = hop_machine(2);
            snapshots(&mut m, mode);
            let model = consistency_to_u8(ConsistencyModel::Full);
            let req = |requester: u16, reqid: u64| LockReqMsg {
                requester: MachineId(requester),
                reqid,
                scope_v: VertexId(requester as u32),
                machines: vec![MachineId(2)],
                model,
            };
            let release = |reqid: u64, value: f64| {
                let vwrites = vec![(VertexId(2), 0, enc(&value))];
                enc(&ReleaseMsg { reqid, vwrites, ewrites: vec![] })
            };
            // Chains started here: each sends its request to machine 0 first.
            let started = |m: &mut LockingMachine<f64, f64, NoUpdate>| {
                m.pump();
                (m.vol.outs.live(), m.vol.paused)
            };
            let marker = (LockKind::SnapStart, enc(&0u64));
            // Machine 0's chain holds vertex 2; machine 1's parks behind it.
            deliver(&mut m, 0, LockKind::Req, enc(&req(0, 7)));
            deliver(&mut m, 1, LockKind::Req, enc(&req(1, 9)));
            assert_eq!(inbox(&peers[0]).len(), 1, "chain 7's scope data");

            deliver(&mut m, 1, LockKind::SnapStart, enc(&0u64));
            assert!(matches!(m.coord.part, Part::Cut(0, _)), "{:?}", m.coord.part);
            assert_eq!([inbox(&peers[0]), inbox(&peers[1])], [[marker.clone()], [marker.clone()]]);
            let sched = ScheduleMsg { tasks: vec![(VertexId(2), 1.0)] };
            deliver(&mut m, 1, LockKind::Sched, enc(&sched));
            assert_eq!(started(&mut m), (usize::from(!paused), paused), "{mode:?}");
            let reqs = inbox(&peers[0]);
            assert!(reqs.len() == m.vol.outs.live() && reqs.iter().all(|(kind, _)| *kind == LockKind::Req));

            deliver(&mut m, 0, LockKind::Release, release(7, 42.0));
            assert_eq!(inbox(&peers[1]).len(), 1, "chain 9's scope data");
            deliver(&mut m, 1, LockKind::Release, release(9, 11.0));
            m.end_pass();
            assert!(inbox(&peers[0]).is_empty(), "written before the master's marker");
            assert_eq!(started(&mut m), (usize::from(!paused), paused), "{mode:?}");

            deliver(&mut m, 0, LockKind::SnapStart, enc(&0u64));
            for _ in 0..3 {
                m.end_pass();
            }
            let done = (LockKind::SnapDone, Bytes::new());
            assert_eq!([inbox(&peers[0]), inbox(&peers[1])], [vec![done], vec![]]);
            assert!(matches!(m.coord.part, Part::Idle));
            assert_eq!(started(&mut m), (1, false), "{mode:?}: the chain after the write");
            let w = m.core.lg.local_vertex(VertexId(2)).unwrap();
            assert_eq!(*m.core.lg.vertex_data(w), 11.0);
            let mut restored = triangle();
            let (nv, _) = restore_snapshot(&m.core.setup.dfs, "ckpt", 0, &mut restored).unwrap();
            assert_eq!(nv, 2, "the capture's row and the pre-cut write-back's");
            assert_eq!(*restored.vertex_data(VertexId(2)), 42.0);

            inbox(&peers[0]);
            deliver(&mut m, 1, LockKind::Req, enc(&req(1, 10)));
            let [(LockKind::ScopeData, reply)] = &inbox(&peers[1])[..] else { panic!("one ScopeData") };
            let reply: ScopeDataMsg = dec(reply.clone());
            assert_eq!((reply.reqid, reply.vrows.len(), reply.vsame), (10, 0, 1), "vertex 2 re-shipped");
        }
    }

    /// Registers one sync on `m`, the sum of its vertices' data, with an
    /// epoch due every update; returns its handle.
    fn with_sum_sync(m: &mut LockingMachine<f64, f64, NoUpdate>) -> crate::GlobalHandle<Vec<f64>> {
        use crate::sync::{FnSync, RegisteredSync};
        let sum = crate::GlobalHandle::new(0);
        let op = FnSync::new(1, |_, d: &f64| vec![*d], |acc, _| acc);
        m.core.setup.syncs = Arc::new(vec![Box::new(RegisteredSync { id: sum.id(), op })]);
        m.coord = Coord::new(m.core.me(), 3, SnapshotMode::None, Some(1));
        sum
    }

    /// The master folds a sync epoch's partials in machine-id order. Its
    /// own sum is 10^16, the workers' 1 and −10^16: in machine order the 1
    /// is lost to rounding before −10^16 cancels, so the global is 0
    /// whichever worker's partial arrives first; folded in arrival order,
    /// machine 2's first, it would be 1.
    #[test]
    fn the_master_folds_sync_partials_in_machine_id_order() {
        let global = |order: [u16; 2]| {
            let (mut m, _peers) = hop_machine(0);
            let sum = with_sum_sync(&mut m);
            let l = m.core.lg.local_vertex(VertexId(0)).unwrap();
            *m.core.lg.vertex_data_mut(l) = 1e16;
            m.feed(Input::SyncDue(1));
            for src in order {
                let partials = vec![(sum.id(), enc(&vec![[0.0, 1.0, -1e16][src as usize]]))];
                deliver(&mut m, src, LockKind::SyncPart, enc(&LockSyncPartialMsg { epoch: 1, partials }));
            }
            m.core.globals.get(sum).expect("epoch 1 finalized")[0].to_bits()
        };
        assert_eq!(global([1, 2]), 0f64.to_bits());
        assert_eq!(global([2, 1]), 0f64.to_bits());
    }

    /// The master's snapshot trigger: the window honours the config, counts
    /// each peer's highest note, and restarts at a trigger and at a reset
    /// from the counts as they stand.
    #[test]
    fn the_snapshot_trigger_honours_its_config_and_restarts_its_window_after_a_reset() {
        use crate::config::SnapshotConfig;
        let (mut m, _peers) = hop_machine(0);
        let every = |mode, every_updates, max_snapshots| SnapshotConfig { mode, every_updates, max_snapshots };
        m.core.updates_local = 100;
        for off in [
            every(SnapshotMode::None, 10, 9),
            every(SnapshotMode::Synchronous, 0, 9),
            every(SnapshotMode::Asynchronous, 10, 0),
        ] {
            m.core.setup.config.snapshot = off;
            assert_eq!((m.snapshot_due(), m.last_snap_updates), (None, 0), "{off:?}");
        }

        m.core.setup.config.snapshot = every(SnapshotMode::Synchronous, 40, 2);
        assert_eq!((m.snapshot_due(), m.last_snap_updates), (Some(0), 100));
        assert_eq!(m.snapshot_due(), None, "the window restarted at the trigger");
        m.note_peer_updates(MachineId(1), 39);
        assert_eq!(m.snapshot_due(), None, "100 + 39: one short of the interval");
        m.note_peer_updates(MachineId(1), 40);
        m.note_peer_updates(MachineId(1), 5); // a stale note never lowers the total
        assert_eq!(m.observed_updates(), 140);
        m.core.snapshots = 1; // the first checkpoint was written meanwhile
        assert_eq!((m.snapshot_due(), m.last_snap_updates), (Some(1), 140));

        // A rollback to checkpoint 0 re-bases the window on the counts as
        // they stand: they are cumulative and were not rolled back.
        m.core.updates_local = 200;
        m.core.effects.dirty_self = true;
        m.core.reset_engine_state();
        RecoveryHost::reset_engine_state(&mut m);
        m.core.snapshots = 1;
        assert_eq!((m.last_snap_updates, m.core.effects.dirty_self), (240, false));
        m.core.updates_local = 239;
        assert_eq!(m.snapshot_due(), None);
        m.core.updates_local = 240;
        assert_eq!(m.snapshot_due(), Some(1));
        m.core.snapshots = 2;
        m.core.updates_local = 1_000;
        assert_eq!(m.snapshot_due(), None, "max_snapshots reached");
    }

    /// The interleaving per-channel FIFO cannot rule out: requester 0's
    /// chain `reqid + max_pipeline`, forwarded by machine 1, reaches machine
    /// 2 before 0's direct `LockKind::Release` for `reqid`. The late chain parks,
    /// the release wakes it, and the freed slot is reused while the woken
    /// chain is still live — no aliasing, no lost wake-up.
    #[test]
    fn forwarded_request_overtaking_a_release_parks_and_reuses_the_slot() {
        let (mut m, mut peers) = hop_machine(2);
        let ep0 = peers.remove(0);
        let p = m.core.setup.config.max_pipeline as u64;
        let from0 = |kind: LockKind, payload: Bytes| Envelope {
            src: MachineId(0),
            dst: MachineId(2),
            kind: kind as u16,
            payload,
        };
        let request = |reqid: u64| {
            from0(
                LockKind::Req,
                enc(&LockReqMsg {
                    requester: MachineId(0),
                    reqid,
                    scope_v: VertexId(0),
                    machines: vec![MachineId(2)],
                    model: consistency_to_u8(ConsistencyModel::Full),
                }),
            )
        };
        let release = |reqid: u64| {
            from0(LockKind::Release, enc(&ReleaseMsg { reqid, vwrites: vec![], ewrites: vec![] }))
        };
        let answered = |ep: &Endpoint| -> Option<u64> {
            let env = ep.try_recv().ok()?;
            assert_eq!(Kind::of(&env), Kind::Lock(LockKind::ScopeData));
            Some(dec::<ScopeDataMsg>(env.payload).reqid)
        };
        let w = m.core.lg.local_vertex(VertexId(2)).unwrap();

        m.dispatch(request(1));
        assert_eq!(answered(&ep0), Some(1));
        assert_eq!(m.vol.locks.held(w), (0, true));
        // The overtaking request parks behind chain 1's write lock.
        m.dispatch(request(1 + p));
        assert_eq!(answered(&ep0), None);
        assert_eq!((m.vol.chains.live(), m.hot.lock_parks), (2, 1));
        let first = m.vol.chain_index[&(0, 1)];
        // The release frees chain 1 and wakes the parked chain.
        m.dispatch(release(1));
        assert_eq!(answered(&ep0), Some(1 + p));
        assert_eq!(m.vol.chains.live(), 1);
        // The next request takes over the freed slot under a new generation
        // while the woken chain still holds the lock it waits for.
        m.dispatch(request(2 + p));
        let reused = m.vol.chain_index[&(0, 2 + p)];
        assert_eq!((reused.slot, reused.generation), (first.slot, first.generation + 1));
        assert_eq!(answered(&ep0), None);
        m.dispatch(release(1 + p));
        assert_eq!(answered(&ep0), Some(2 + p));
        m.dispatch(release(2 + p));
        assert_eq!((m.vol.chains.live(), m.vol.chain_index.len()), (0, 0));
        assert_eq!(m.vol.locks.held(w), (0, false));
    }

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
        let granted = release(&mut t, 0, LockType::Write);
        // FIFO: the read parked first is granted; the write must wait.
        assert_eq!(granted, vec![KB]);
        assert_eq!(t.held(0), (1, false));
        let granted = release(&mut t, 0, LockType::Read);
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
        let granted = release(&mut t, 0, LockType::Read);
        assert_eq!(granted, vec![KB]);
        let granted = release(&mut t, 0, LockType::Write);
        assert_eq!(granted, vec![KC]);
    }

    #[test]
    fn reader_batch_grant() {
        let mut t = LockTable::new(1);
        assert!(t.acquire(0, LockType::Write, KA));
        assert!(!t.acquire(0, LockType::Read, KB));
        assert!(!t.acquire(0, LockType::Read, KC));
        let granted = release(&mut t, 0, LockType::Write);
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
        assert!(release(&mut t, 0, LockType::Read).is_empty());
    }
}
