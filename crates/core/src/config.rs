//! Engine configuration shared by the chromatic and locking engines.

use std::time::Duration;

use graphlab_atoms::PlacementStrategy;
use graphlab_graph::ConsistencyModel;
use graphlab_net::{BatchPolicy, FaultPlan, Transport};

use crate::scheduler::SchedulerKind;

/// Snapshotting mode (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SnapshotMode {
    /// No fault tolerance.
    #[default]
    None,
    /// Synchronous snapshots: suspend, flush, save, resume. The chromatic
    /// engine saves at a cycle end, where its step barrier has suspended
    /// and flushed; the locking engine takes the asynchronous marker cut
    /// with new lock chains paused on each machine from its save until its
    /// part is written, and each machine resumes on its own (README, "Fault
    /// tolerance").
    Synchronous,
    /// Asynchronous Chandy–Lamport snapshots between machines, the markers
    /// on the same FIFO channels as the lock chains (the paper's Alg. 5
    /// runs it as an update function instead; README, "Fault tolerance").
    Asynchronous,
}

/// Snapshot scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct SnapshotConfig {
    /// Mode.
    pub mode: SnapshotMode,
    /// Trigger a snapshot every this many global updates (0 = never;
    /// Fig. 8(d) uses every |V| updates).
    pub every_updates: u64,
    /// At most this many snapshots per run (Fig. 4 issues exactly one).
    pub max_snapshots: u64,
}

impl SnapshotConfig {
    /// Whether checkpoint `id` is due once `since` updates have run since
    /// the window last restarted.
    pub(crate) fn due(&self, id: u64, since: u64) -> bool {
        self.mode != SnapshotMode::None
            && self.every_updates > 0
            && id < self.max_snapshots
            && since >= self.every_updates
    }
}

/// What the cluster does when a machine dies with no restart scheduled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum RecoveryMode {
    /// Classic checkpoint recovery only: a permanent death fails the run
    /// cleanly ("no restart scheduled"), a death with a scheduled restart
    /// rolls the whole cluster back to the latest complete checkpoint.
    #[default]
    Rollback,
    /// Restart-free elasticity (§3 atom graph): on a permanent death the
    /// master re-balances the dead machine's atoms over the survivors
    /// (k·n over-partitioning makes the shares even), survivors reload
    /// the adopted atoms' journals from the DFS — overlaying the latest
    /// complete per-atom checkpoint when one exists — rebuild ghosts and
    /// re-schedule only the adopted vertices. Surviving machines' own
    /// state is untouched; no cluster-wide rollback. Deaths *with* a
    /// scheduled restart still roll back as in [`RecoveryMode::Rollback`].
    Adopt,
}

/// Fault injection: delays one machine mid-run (Fig. 4(b) halts one
/// process for 15 s after the snapshot begins).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StragglerConfig {
    /// Machine to delay.
    pub machine: u16,
    /// Delay is injected once this many global updates have completed.
    pub after_updates: u64,
    /// Length of the stall.
    pub duration: Duration,
}

/// A deliberately weakened locking-engine run, for the ablation
/// experiments. [`crate::GraphLab::run`] refuses one on any other engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Ablation {
    /// The engine as designed.
    #[default]
    Off,
    /// **Deliberately unsafe** (Fig. 1(d)): acquire only the central
    /// vertex's write lock while still letting the update read neighbour
    /// data — the "non-serializable (racing)" execution the paper shows is
    /// unstable for dynamic ALS.
    Racing,
    /// DESIGN.md D4: no version-aware delta scope sync (the owner-side
    /// remote-cache table and its "unchanged" markers), so every lock
    /// grant re-sends the full scope data even when unchanged.
    FullScopeResend,
}

/// Configuration for a distributed engine run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of simulated machines.
    pub num_machines: usize,
    /// Number of atoms for the two-phase partitioning (defaults to
    /// `8 × num_machines`; must be ≥ `num_machines`).
    pub num_atoms: usize,
    /// Second-phase placement: how the atoms pack onto machines.
    /// [`PlacementStrategy::ReplicationAware`] co-locates connected
    /// meta-graph neighborhoods so lock chains span fewer machines
    /// (`repro -- abl-control` measures the span/byte deltas).
    pub placement: PlacementStrategy,
    /// Consistency model to enforce.
    pub consistency: ConsistencyModel,
    /// Scheduler flavour (locking engine; the chromatic engine is
    /// inherently sweep-within-colour).
    pub scheduler: SchedulerKind,
    /// Transport backend: the deterministic in-process simulator with its
    /// latency model ([`Transport::Sim`], the default), or real TCP between
    /// OS processes ([`Transport::Tcp`]). TCP runs execute only this
    /// process's machine and do not support fault plans.
    pub transport: Transport,
    /// Message batching/coalescing policy: small control messages (lock
    /// hops, grants, schedule requests, write-backs) bound for the same
    /// machine ride one envelope. Flushed by size/count thresholds and
    /// before every blocking receive. The default additionally
    /// LZ-compresses envelopes of at least `graphlab_net::batch::COMPRESS_MIN`
    /// bytes;
    /// `BatchPolicy::Uncompressed` keeps batching but ships raw bytes,
    /// `BatchPolicy::Disabled` sends every message individually and raw
    /// (ablation baselines).
    pub batch: BatchPolicy,
    /// Maximum outstanding lock requests per machine (§4.2.2 pipelining).
    pub max_pipeline: usize,
    /// Snapshot policy.
    pub snapshot: SnapshotConfig,
    /// Optional straggler fault injection.
    pub straggler: Option<StragglerConfig>,
    /// Optional deterministic crash/partition fault injection
    /// ([`graphlab_net::fault`]), which `crate::recovery` survives: a
    /// restart rolls the cluster back to the latest complete checkpoint (so
    /// pair it with a [`SnapshotConfig`]), a permanent death fails the run
    /// or, under [`RecoveryMode::Adopt`], hands its atoms to the survivors.
    /// Machine 0 (the coordination master) must not be a kill target.
    pub faults: Option<FaultPlan>,
    /// Response to a permanent machine death (no restart scheduled):
    /// fail/rollback classically, or adopt the dead machine's atoms.
    pub recovery: RecoveryMode,
    /// Lease-based failure detection: when set, every machine piggybacks
    /// a lease refresh on traffic towards machine 0 (explicit heartbeats
    /// only when idle past half the period) and the master declares a
    /// machine dead when its lease expires — the detector that works on
    /// real TCP, where there is no fault-fabric oracle. `None` disables
    /// the detector on SimNet; TCP runs default it on
    /// ([`graphlab_net::TCP_LEASE`]).
    pub lease: Option<Duration>,
    /// Safety cap on total updates (0 = unlimited). Reaching it drops every
    /// machine's tasks; the run ends once the work in flight has finished.
    /// The chromatic engine counts, at each cycle end, the updates of the
    /// machines alive then: a machine that died for good stops counting,
    /// and the survivors that adopted its atoms count what they redo.
    pub max_updates: u64,
    /// Ablation arm (locking engine only; default [`Ablation::Off`]).
    pub ablation: Ablation,
    /// Seed for partitioning and tie-breaking.
    pub seed: u64,
}

impl EngineConfig {
    /// A sensible default for `m` machines.
    pub fn new(num_machines: usize) -> Self {
        EngineConfig {
            num_machines,
            num_atoms: (8 * num_machines).max(1),
            placement: PlacementStrategy::default(),
            consistency: ConsistencyModel::Edge,
            scheduler: SchedulerKind::Fifo,
            transport: Transport::default(),
            batch: BatchPolicy::default(),
            max_pipeline: 64,
            snapshot: SnapshotConfig::default(),
            straggler: None,
            faults: None,
            recovery: RecoveryMode::default(),
            lease: None,
            max_updates: 0,
            ablation: Ablation::Off,
            seed: 0x5EED,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::new(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = EngineConfig::new(4);
        assert_eq!(c.num_machines, 4);
        assert_eq!(c.num_atoms, 32);
        assert_eq!(c.consistency, ConsistencyModel::Edge);
        assert_eq!(c.placement, PlacementStrategy::Affinity);
        assert!(c.num_atoms >= c.num_machines);
    }

    #[test]
    fn single_machine_has_one_atom_minimum() {
        let c = EngineConfig::new(1);
        assert!(c.num_atoms >= 1);
    }
}
