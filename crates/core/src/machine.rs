//! One GraphLab machine (§4.4, Fig. 5(a)): the state and behaviour every
//! machine has whichever engine runs on it — local graph, comms layer, DFS
//! handle and placement, fault-tolerance state, update accounting.
//!
//! The engines ([`crate::chromatic`], [`crate::locking`]) each hold one as
//! `core` and add only how they order and exchange updates;
//! [`crate::recovery`] drives it directly (`RecoveryHost::machine`). What
//! only one engine has — colour queues and blocks, lock table and chains,
//! the sync/snapshot choreography, the locking master's per-peer update
//! counts and snapshot window — does not belong here, and neither does
//! the update function: [`Machine::execute`] borrows it per call.

use std::sync::atomic::Ordering;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use graphlab_atoms::LocalGraphInit;
use graphlab_graph::MachineId;
use graphlab_net::{clock, Batcher, Codec, Endpoint, LeaseConfig};

use crate::config::StragglerConfig;
use crate::driver::{MachineResult, MachineSetup};
use crate::globals::GlobalRegistry;
use crate::local::LocalGraph;
use crate::messages::Kind;
use crate::recovery::{RecoveryTracker, Step};
use crate::reference::InitialSchedule;
use crate::snapshot::CheckpointWriter;
use crate::update::{UpdateContext, UpdateEffects, UpdateFunction};

/// Updates between two samples of a machine's timeline.
const TIMELINE_EVERY: u64 = 64;

pub(crate) struct Machine<V, E> {
    pub lg: LocalGraph<V, E>,
    pub net: Batcher,
    /// What the driver handed over; `placement` is replaced when an
    /// adoption is applied.
    pub setup: MachineSetup<V, E>,
    pub globals: GlobalRegistry,
    /// Failure recovery (§4.3): the shared [`crate::recovery`] machine's state.
    pub rec: RecoveryTracker,
    /// Id of the next checkpoint: continues after a restored or overlaid
    /// one (pruning removed anything newer).
    pub snapshots: u64,
    /// Updates executed here over the whole run (a rollback never resets it,
    /// which keeps the cluster total monotone).
    pub updates_local: u64,
    /// Updates executed here per vertex, indexed by global vertex id: a
    /// dense column, so the counts outlive the `LocalGraph` an adoption
    /// rebuilds. The source of Fig. 1(b).
    update_counts: Vec<u32>,
    /// `(when, updates_local)` at every [`TIMELINE_EVERY`]-th update and at
    /// finish: this machine's part of Fig. 4's updates-against-time series.
    timeline: Vec<(Instant, u64)>,
    straggled: bool,
    /// What the update just executed asked for, until the engine commits it.
    pub effects: UpdateEffects,
    /// Row scratch: the datum of the row being sent, encoded once.
    pub rowbuf: BytesMut,
    /// The rows of the checkpoint being saved, in either snapshot mode;
    /// empty between checkpoints, its buffers kept.
    pub ckpt: CheckpointWriter,
    /// Permanently dead under adoption: the run ends cleanly with no owned
    /// data (the survivors adopted it).
    pub dead: bool,
    pub failure: Option<String>,
}

impl<V, E> Machine<V, E> {
    pub fn new(ep: Endpoint, setup: MachineSetup<V, E>, init: LocalGraphInit<V, E>) -> Self {
        let lg = LocalGraph::from_init(init, setup.coloring.as_deref());
        #[expect(clippy::disallowed_methods, reason = "sizes the RecoveryTracker and the per-machine tables; every later question about membership goes to the tracker")]
        let m = lg.num_machines();
        let mut net = Batcher::new(ep, setup.config.batch);
        if let Some(period) = setup.config.lease {
            net.enable_lease(LeaseConfig::with_period(period));
        }
        Machine {
            rec: RecoveryTracker::new(lg.machine().index(), m, setup.config.recovery),
            globals: GlobalRegistry::new(),
            snapshots: 0,
            updates_local: 0,
            update_counts: vec![0; lg.total_vertices() as usize],
            timeline: Vec::new(),
            straggled: false,
            effects: UpdateEffects::default(),
            rowbuf: BytesMut::new(),
            ckpt: CheckpointWriter::default(),
            dead: false,
            failure: None,
            lg,
            net,
            setup,
        }
    }

    pub fn me(&self) -> MachineId {
        self.lg.machine()
    }

    pub fn is_master(&self) -> bool {
        self.me() == MachineId(0)
    }

    /// Length of a table with one slot per machine, the dead included. Never
    /// a quorum: barriers ask the tracker.
    pub fn slots(&self) -> usize {
        self.rec.slots()
    }

    /// Single send point for all engine traffic (see
    /// [`RecoveryTracker::wire`] for the invariant it guards). A `put`
    /// that reads this machine's graph calls `net.send_with(dst,
    /// rec.wire(kind), put)` with the fields beside it.
    pub fn send_with(
        &mut self,
        dst: MachineId,
        kind: impl Into<Kind>,
        put: impl FnOnce(&mut BytesMut),
    ) {
        self.net.send_with(dst, self.rec.wire(kind), put);
    }

    pub fn send(&mut self, dst: MachineId, kind: impl Into<Kind>, payload: Bytes) {
        self.net.send(dst, self.rec.wire(kind), payload);
    }

    /// Sends `payload` to every surviving peer.
    pub fn broadcast(&mut self, kind: impl Into<Kind>, payload: &Bytes) {
        let kind = self.rec.wire(kind);
        for dst in self.rec.peers() {
            self.net.send(dst, kind, payload.clone());
        }
    }

    /// The initial schedule's tasks on vertices this machine owns, as
    /// `(local id, priority)`.
    pub fn initial_tasks(&self) -> Vec<(u32, f64)> {
        match &*self.setup.initial {
            InitialSchedule::AllVertices => {
                self.lg.owned_vertices().iter().map(|&l| (l, 1.0)).collect()
            }
            InitialSchedule::Vertices(vs) => vs
                .iter()
                .filter_map(|&(v, p)| Some((self.lg.local_vertex(v)?, p)))
                .filter(|&(l, _)| self.lg.owns_vertex(l))
                .collect(),
        }
    }

    /// Runs `update` on owned vertex `l` and books it; what it asked for is
    /// in `effects` for the engine to commit. `prioritized` says whether
    /// the engine pops the tasks it schedules by priority
    /// ([`UpdateContext::prioritized`]).
    pub fn execute<U: UpdateFunction<V, E> + ?Sized>(
        &mut self,
        update: &U,
        l: u32,
        prioritized: bool,
    ) {
        self.effects.clear();
        let mut ctx = UpdateContext::new(
            &mut self.lg,
            l,
            self.setup.config.consistency,
            prioritized,
            &self.globals,
            &mut self.effects,
        );
        update.update(&mut ctx);
        self.updates_local += 1;
        self.setup.counters.updates.fetch_add(1, Ordering::Relaxed);
        self.update_counts[self.lg.vertex_gvid(l).index()] += 1;
        if self.updates_local.is_multiple_of(TIMELINE_EVERY) {
            self.timeline.push((clock::now(), self.updates_local));
        }
    }

    /// Updates executed so far by the machines of this process (all of them
    /// on SimNet, this one over TCP): what the mid-run cap and the straggler
    /// read, where no message can be waited for.
    pub fn live_updates(&self) -> u64 {
        self.setup.counters.updates.load(Ordering::Relaxed)
    }

    /// Whether `updates` has reached the configured cap (0 = no cap).
    pub fn capped(&self, updates: u64) -> bool {
        let cap = self.setup.config.max_updates;
        cap > 0 && updates >= cap
    }

    /// Aggregate-driven termination (§3.5): the stop predicate over the
    /// globals as they stand — the locking master asks right after
    /// finalizing them, and a locking worker right after applying them.
    pub fn stop_hit(&self) -> bool {
        self.setup.stop.as_ref().is_some_and(|f| f(&self.globals))
    }

    /// The injected straggler, while it is this machine's and has not fired.
    pub fn straggler_pending(&self) -> Option<StragglerConfig> {
        self.setup.config.straggler.filter(|s| !self.straggled && s.machine == self.me().0)
    }

    pub fn maybe_straggle(&mut self) {
        let due = self.straggler_pending().filter(|s| self.live_updates() >= s.after_updates);
        if let Some(s) = due {
            self.straggled = true;
            clock::sleep(s.duration);
        }
    }

    /// Writes the rows saved in `ckpt` as this machine's atoms' part of
    /// checkpoint `id`, emptying it.
    pub fn write_checkpoint(&mut self, id: u64) {
        let (me, mine) = (self.me(), self.setup.placement.atoms_of(self.me()));
        self.ckpt.write(&self.setup.dfs, &self.setup.snap_prefix, id, me, &mine);
        self.snapshots = self.snapshots.max(id + 1);
    }

    /// A synchronous checkpoint: saves every owned row and writes them as
    /// checkpoint `id`.
    pub fn capture_checkpoint(&mut self, id: u64)
    where
        V: Codec,
        E: Codec,
    {
        self.ckpt.save_owned(&self.lg);
        self.write_checkpoint(id);
    }

    /// The machine's share of a reset of all volatile state (a crash, a
    /// rollback, an adoption), applied by [`crate::recovery`] beside
    /// `RecoveryHost::reset_engine_state`: nothing of an interrupted update
    /// or checkpoint survives.
    pub fn reset_engine_state(&mut self) {
        self.effects.clear();
        self.ckpt.clear();
    }

    /// Books the recovery machine's verdict; `true` when it ends this
    /// machine's run.
    pub fn ends_run(&mut self, step: Step) -> bool {
        match step {
            Step::Continue | Step::Resumed => return false,
            Step::Exit => self.dead = true,
            Step::Abort(reason) => self.failure = Some(reason),
        }
        true
    }

    /// What this machine hands back at join time; the engine adds its own
    /// counters.
    pub fn finish(mut self) -> MachineResult<V, E> {
        self.timeline.push((clock::now(), self.updates_local));
        // A dead machine's rows are stale by definition (survivors adopted
        // its atoms): it must contribute nothing to the write-back.
        let (vrows, erows) =
            if self.dead { (Vec::new(), Vec::new()) } else { self.lg.into_owned_data() };
        MachineResult {
            vrows,
            erows,
            globals: self.globals,
            updates: self.updates_local,
            update_counts: self.update_counts,
            timeline: self.timeline,
            snapshots: self.snapshots,
            recoveries: self.rec.recoveries,
            adoptions: self.rec.adoptions,
            dead: self.dead,
            failed: self.failure,
            ..MachineResult::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::scripted_machine;
    use graphlab_atoms::VertexPartition;
    use graphlab_graph::{GraphBuilder, VertexId};

    /// Machine 0 of two over the ring on eight vertices, scheduled with
    /// `initial`; machine 1's endpoint is dropped (nothing here receives).
    fn machine0(initial: InitialSchedule) -> Machine<f64, f64> {
        let mut b = GraphBuilder::new();
        let v: Vec<VertexId> = (0..8).map(|i| b.add_vertex(i as f64)).collect();
        for i in 0..8 {
            b.add_edge(v[i], v[(i + 1) % 8], 1.0).unwrap();
        }
        let cut = VertexPartition::random_hash(8, 4, 3);
        let config = crate::EngineConfig::new(2);
        let (setup, init, mut eps) = scripted_machine(&b.build(), &cut, MachineId(0), config, initial);
        Machine::new(eps.remove(0), setup, init)
    }

    #[test]
    fn a_dead_machines_finish_reports_no_rows() {
        let alive = machine0(InitialSchedule::AllVertices);
        let owned = alive.lg.owned_vertices().len();
        let r = alive.finish();
        assert!(owned > 0 && r.vrows.len() == owned && !r.erows.is_empty() && !r.dead);

        let mut m = machine0(InitialSchedule::AllVertices);
        m.updates_local = 7;
        assert!(m.ends_run(Step::Exit), "a permanent death ends the run");
        let r = m.finish();
        assert!(r.dead && r.failed.is_none() && r.vrows.is_empty() && r.erows.is_empty());
        assert_eq!(r.updates, 7, "what it executed before dying still counts");

        let mut m = machine0(InitialSchedule::AllVertices);
        assert!(!m.ends_run(Step::Continue) && !m.ends_run(Step::Resumed));
        assert!(m.ends_run(Step::Abort("why".into())));
        let r = m.finish();
        assert_eq!((r.failed.as_deref(), r.dead, r.vrows.len()), (Some("why"), false, owned));
    }

    #[test]
    fn a_reset_drops_the_rows_of_an_interrupted_checkpoint() {
        use crate::snapshot::SnapshotFile;
        let mut m = machine0(InitialSchedule::AllVertices);
        let files = |m: &Machine<f64, f64>, id: u64| -> Vec<SnapshotFile> {
            let dfs = &m.setup.dfs;
            let dir = format!("{}/snap_{id:06}/", m.setup.snap_prefix);
            let decode = |f: &String| graphlab_net::decode_from(dfs.read(f).unwrap()).unwrap();
            dfs.list_prefix(&dir).iter().map(decode).collect()
        };
        let mine = m.setup.placement.atoms_of(m.me()).len();
        m.capture_checkpoint(0);
        let rows: usize = files(&m, 0).iter().map(|f| f.vrows.len()).sum();
        assert_eq!((files(&m, 0).len(), rows), (mine, m.lg.owned_vertices().len()));

        // Half an asynchronous part, then a rollback: none of it is written.
        let l = m.lg.owned_vertices()[0];
        m.ckpt.save_vertex(&m.lg, l);
        m.reset_engine_state();
        m.write_checkpoint(1);
        assert_eq!(files(&m, 1), vec![SnapshotFile::default(); mine]);
    }

    #[test]
    fn the_initial_schedule_yields_owned_vertices_only() {
        let m = machine0(InitialSchedule::AllVertices);
        let all: Vec<(u32, f64)> = m.lg.owned_vertices().iter().map(|&l| (l, 1.0)).collect();
        assert_eq!(m.initial_tasks(), all);

        // Every vertex of the graph named, with its id as priority: ghosts
        // and vertices machine 0 does not hold at all fall out.
        let named = (0..8).map(|v| (VertexId(v), v as f64)).collect();
        let m = machine0(InitialSchedule::Vertices(named));
        let ghosts = (0..m.lg.num_local_vertices() as u32).filter(|&l| !m.lg.owns_vertex(l)).count();
        assert!(ghosts > 0 && m.lg.num_local_vertices() < 8, "the fixture has ghosts and strangers");
        let expected: Vec<(u32, f64)> =
            m.lg.owned_vertices().iter().map(|&l| (l, m.lg.vertex_gvid(l).0 as f64)).collect();
        assert_eq!(m.initial_tasks(), expected);
    }
}
