//! Engine drivers: ingress, machine-thread spawning, and result collection
//! (Fig. 5(a) "System Overview").
//!
//! The single public entry point is the [`crate::GraphLab`] program builder
//! (`crate::program`); this module holds the distributed skeleton it
//! drives. A distributed run mirrors the paper's deployment flow: the data
//! graph is over-partitioned into atoms and written to the DFS
//! (initialisation phase), atoms are placed onto machines via the atom
//! index, each machine loads its part in parallel, the engine executes,
//! and final data is collected. The machine topology depends on the
//! configured [`Transport`]: under [`Transport::Sim`] machines are OS
//! threads communicating through the deterministic [`SimNet`] fabric and
//! results return through thread join; under [`Transport::Tcp`] this
//! process *is* one machine of a multi-process cluster wired by
//! [`TcpNet`], runs only its own machine loop, and writes back only the
//! vertices it owns (the cross-process gather is the spawn harness's job,
//! standing in for the final gather the real system performs through the
//! DFS).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphlab_atoms::{build_atoms, load_machine_part, write_atoms, SimDfs, VertexPartition};
use graphlab_atoms::placement::Placement;
use graphlab_graph::{Coloring, DataGraph, EdgeId, VertexId};
use graphlab_net::codec::Codec;
use graphlab_net::{clock, Batcher, Endpoint, SimNet, TcpNet, Transport};

use crate::chromatic::ChromaticMachine;
use crate::config::EngineConfig;
use crate::globals::GlobalRegistry;
use crate::locking::LockingMachine;
use crate::messages::{enc, Kind, RecoverAbortMsg, RecoveryKind};
use crate::metrics::{fold_timeline, EngineMetrics, HotCounters, LiveCounters, PhaseTimes};
use crate::reference::InitialSchedule;
use crate::sync::SyncList;
use crate::update::UpdateFunction;

/// Which engine executes the program (§3.4 execution model; §4.2 engines).
///
/// All three run the same GraphLab abstraction — data graph + update
/// function + sync + consistency — interchangeably; pick through
/// [`crate::GraphLab::engine`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// The literal sequential execution model (Alg. 2): single-threaded,
    /// the serializability oracle for the distributed engines.
    Sequential,
    /// The chromatic engine (§4.2.1): partially synchronous colour-step
    /// execution driven by a graph colouring (auto-computed from the
    /// consistency model unless one is supplied).
    Chromatic,
    /// The distributed locking engine (§4.2.2): fully asynchronous
    /// pipelined locking with prioritised dynamic scheduling.
    Locking,
}

/// Convergence predicate over finalized globals, evaluated where they are
/// finalized, at sync boundaries (§3.5 aggregate-driven termination).
pub(crate) type StopFn = Arc<dyn Fn(&GlobalRegistry) -> bool + Send + Sync>;

/// How to over-partition the data graph into atoms (phase one of §4.1).
#[derive(Clone)]
pub enum PartitionStrategy {
    /// Random hash partitioning (Table 2: Netflix, NER).
    RandomHash,
    /// BFS region growing + refinement (stands in for Metis; Table 2:
    /// CoSeg's locality-aware partition and the §4.2.2 mesh).
    BfsGrow,
    /// Caller-supplied assignment (domain-specific partitions such as
    /// CoSeg frame blocks, or adversarial partitions for Fig. 8(b)).
    Custom(Arc<VertexPartition>),
}

impl std::fmt::Debug for PartitionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionStrategy::RandomHash => write!(f, "RandomHash"),
            PartitionStrategy::BfsGrow => write!(f, "BfsGrow"),
            PartitionStrategy::Custom(_) => write!(f, "Custom"),
        }
    }
}

/// Result of an engine run. The caller's graph data is updated in place;
/// this carries everything else.
pub struct EngineOutput {
    /// Run metrics.
    pub metrics: EngineMetrics,
    /// Final global values (typed, keyed by [`crate::GlobalHandle`]), from
    /// machine 0 (under [`Transport::Tcp`], this process's): every machine
    /// holds the same, a locking worker by applying its sync master's.
    pub globals: GlobalRegistry,
    /// The simulated DFS used for atoms and snapshots (inspect snapshot
    /// files, restore checkpoints). Fresh and empty for sequential runs.
    pub dfs: Arc<SimDfs>,
    /// `Some(reason)` when the run could not complete — an injected
    /// machine failure proved unrecoverable (no complete checkpoint, a
    /// permanent kill, or a stalled recovery round), or a TCP run failed
    /// to establish its mesh. The graph then holds whatever state the
    /// machines had; do not trust it.
    /// [`crate::GraphLab::run`] panics on this; [`crate::GraphLab::try_run`]
    /// surfaces it as an `Err`.
    pub failure: Option<String>,
    /// `Some(ids)` for a [`Transport::Tcp`] run: the vertices this
    /// process's machine owns — the only ones written back into the
    /// caller's graph. `None` for sim/sequential runs, where the whole
    /// graph is written back.
    pub owned: Option<Vec<VertexId>>,
}

/// What one machine thread hands back at join time.
pub(crate) struct MachineResult<V, E> {
    pub vrows: Vec<(VertexId, V)>,
    pub erows: Vec<(EdgeId, E)>,
    pub globals: GlobalRegistry,
    pub updates: u64,
    /// Updates per vertex, indexed by global vertex id.
    pub update_counts: Vec<u32>,
    /// `(when, cumulative updates)` samples, in time order.
    pub timeline: Vec<(Instant, u64)>,
    pub steps: u64,
    pub snapshots: u64,
    pub recoveries: u64,
    pub adoptions: u64,
    /// Permanently dead under [`crate::RecoveryMode::Adopt`]: this machine
    /// exited cleanly mid-run and its rows (empty by contract) must not
    /// overwrite the survivors' adopted results.
    pub dead: bool,
    pub failed: Option<String>,
    pub phase: PhaseTimes,
    /// Lock-chain span histogram for chains this machine initiated
    /// (`chain_spans[s]` = chains touching `s` machines; empty for the
    /// chromatic engine).
    pub chain_spans: Vec<u64>,
    /// Normal-phase receive deadlines that expired with nothing to do.
    pub idle_wakeups: u64,
    /// Hot-path event counts (locking engine; zero for chromatic).
    pub hot: HotCounters,
}

/// What a machine that executed nothing reports; `Machine::finish` and the
/// engines fill in the rest.
impl<V, E> Default for MachineResult<V, E> {
    fn default() -> Self {
        MachineResult {
            vrows: Vec::new(),
            erows: Vec::new(),
            globals: GlobalRegistry::new(),
            updates: 0,
            update_counts: Vec::new(),
            timeline: Vec::new(),
            steps: 0,
            snapshots: 0,
            recoveries: 0,
            adoptions: 0,
            dead: false,
            failed: None,
            phase: PhaseTimes::default(),
            chain_spans: Vec::new(),
            idle_wakeups: 0,
            hot: HotCounters::default(),
        }
    }
}

/// Everything a machine thread needs at spawn but the update function
/// (the endpoint travels separately so the machine loop can own it).
pub(crate) struct MachineSetup<V, E> {
    pub dfs: Arc<SimDfs>,
    pub index: Arc<graphlab_atoms::AtomIndex>,
    pub placement: Arc<Placement>,
    /// The colouring a (re)loaded local graph is built with: the chromatic
    /// engine's, `None` for the locking engine.
    pub coloring: Option<Arc<Coloring>>,
    pub syncs: SyncList<V, E>,
    pub stop: Option<StopFn>,
    pub initial: Arc<InitialSchedule>,
    pub config: EngineConfig,
    /// Updates between background sync epochs (locking engine): the
    /// finest `SyncCadence::Updates`, 0 for none.
    pub sync_every: u64,
    pub counters: Arc<LiveCounters>,
    pub snap_prefix: String,
}

pub(crate) fn make_partition<V, E>(
    graph: &DataGraph<V, E>,
    strategy: &PartitionStrategy,
    num_atoms: usize,
    seed: u64,
) -> VertexPartition {
    match strategy {
        PartitionStrategy::RandomHash => {
            VertexPartition::random_hash(graph.num_vertices(), num_atoms, seed)
        }
        PartitionStrategy::BfsGrow => VertexPartition::bfs_grow(graph, num_atoms, seed, 2),
        PartitionStrategy::Custom(p) => (**p).clone(),
    }
}

/// Shared distributed skeleton: ingress → spawn `run_machine` per machine
/// → join → write back. `engine` selects which machine loop runs; the
/// sequential engine never enters here.
#[allow(clippy::too_many_arguments, reason = "the builder's one call site passes each part of a program once; a struct would only rename them")]
pub(crate) fn run_distributed<V, E, U>(
    engine: EngineKind,
    graph: &mut DataGraph<V, E>,
    coloring: Option<Coloring>,
    update: Arc<U>,
    initial: InitialSchedule,
    syncs: SyncList<V, E>,
    stop: Option<StopFn>,
    sync_every: u64,
    config: &EngineConfig,
    strategy: &PartitionStrategy,
) -> EngineOutput
where
    V: Codec + Clone + Send + Sync + 'static,
    E: Codec + Clone + Send + Sync + 'static,
    U: UpdateFunction<V, E>,
{
    assert!(engine != EngineKind::Sequential, "sequential runs bypass the distributed skeleton");
    assert!(config.num_machines >= 1);
    assert!(
        config.num_atoms >= config.num_machines,
        "need at least one atom per machine"
    );

    // Over real sockets a crashed peer never announces itself — lease
    // expiry is the only failure detector, so it defaults on.
    let config = &{
        let mut c = config.clone();
        if matches!(c.transport, Transport::Tcp(_)) {
            c.lease.get_or_insert(graphlab_net::TCP_LEASE);
        }
        c
    };

    // Initialisation phase (Fig. 5(a)): atoms onto the DFS.
    let prefix = "graph";
    let partition = make_partition(graph, strategy, config.num_atoms, config.seed);
    let dfs = Arc::new(SimDfs::new());
    let (atoms, index) = build_atoms(graph, &partition, prefix);
    write_atoms(&dfs, prefix, &atoms, &index);
    drop(atoms);
    let placement =
        Arc::new(Placement::with_strategy(&index, config.num_machines, config.placement));
    let index = Arc::new(index);
    let coloring = coloring.map(Arc::new);
    let initial = Arc::new(initial);
    let counters = LiveCounters::new();

    let make_setup = || MachineSetup {
        dfs: Arc::clone(&dfs),
        index: Arc::clone(&index),
        placement: Arc::clone(&placement),
        coloring: coloring.clone(),
        syncs: Arc::clone(&syncs),
        stop: stop.clone(),
        initial: Arc::clone(&initial),
        config: config.clone(),
        sync_every,
        counters: Arc::clone(&counters),
        snap_prefix: "ckpt".to_string(),
    };

    // Open the transport: the endpoints this process holds — every
    // machine's under SimNet, where machines are threads of this process;
    // its own under TCP, where it is exactly one machine of the mesh. The
    // owner handles stay alive until the end of this function.
    let start = clock::now();
    let (opened, _sim, tcp) = match &config.transport {
        Transport::Sim(latency) => {
            let (net, endpoints) = match &config.faults {
                Some(plan) if !plan.is_empty() => {
                    SimNet::with_faults(config.num_machines, *latency, config.seed, plan.clone())
                }
                _ => SimNet::with_seed(config.num_machines, *latency, config.seed),
            };
            (Ok(endpoints), Some(net), None)
        }
        Transport::Tcp(cfg) => {
            assert_eq!(
                cfg.peers.len(),
                config.num_machines,
                "TCP peer list must name every machine"
            );
            match TcpNet::connect(cfg) {
                Ok((net, endpoint)) => (Ok(vec![endpoint]), None, Some(net)),
                Err(e) => {
                    (Err(format!("machine {}: tcp mesh setup failed: {e}", cfg.machine)), None, None)
                }
            }
        }
    };
    // One named thread per endpoint, then join. A process that holds a
    // single endpoint (every TCP run) has nothing to overlap it with and
    // runs it on this thread: a thread of its own measured +21 % peak RSS
    // and +18 % set-up time on `glbench`'s `pr-locking-tcp`.
    let ran = opened.map(|mut endpoints| {
        let stats = Arc::clone(endpoints[0].stats());
        let results: Vec<_> = if endpoints.len() == 1 {
            let endpoint = endpoints.pop().expect("one endpoint");
            let update = Arc::clone(&update);
            vec![(endpoint.id().index(), run_machine(engine, endpoint, make_setup(), update))]
        } else {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|endpoint| {
                    let (id, setup, update) = (endpoint.id(), make_setup(), Arc::clone(&update));
                    let handle = std::thread::Builder::new()
                        .name(format!("machine-{id}"))
                        .spawn(move || run_machine(engine, endpoint, setup, update))
                        .expect("spawn machine thread");
                    (id.index(), handle)
                })
                .collect();
            handles
                .into_iter()
                .map(|(i, h)| (i, h.join().expect("machine thread panicked")))
                .collect()
        };
        (stats, results)
    });
    if let Some(net) = &tcp {
        // Graceful close: FIN after any queued bytes, so slower peers drain
        // our final protocol messages; full teardown happens when `tcp`
        // drops.
        net.shutdown();
    }
    let end = clock::now();
    let (stats, results) = match ran {
        Ok(x) => x,
        Err(failure) => {
            return EngineOutput {
                metrics: EngineMetrics::default(),
                globals: GlobalRegistry::new(),
                dfs,
                failure: Some(failure),
                owned: Some(Vec::new()),
            }
        }
    };

    // Merge the results and write final data back into the caller's graph.
    // A TCP process holds one machine's result and reports which vertices
    // that wrote (the spawn harness merges the per-process outputs); a
    // SimNet run holds them all and writes the whole graph back.
    let mut owned = config.transport.is_tcp().then(Vec::new);
    let mut update_counts = vec![0u64; graph.num_vertices()];
    let mut timelines = Vec::new();
    let mut total_updates = 0u64;
    let mut steps = 0u64;
    let mut snapshots = 0u64;
    let mut recoveries = 0u64;
    let mut adoptions = 0u64;
    let mut failure: Option<String> = None;
    let mut globals = None;
    let mut phases = vec![PhaseTimes::default(); config.num_machines];
    let mut chain_spans: Vec<u64> = Vec::new();
    let mut idle_wakeups = vec![0u64; config.num_machines];
    let mut hot = HotCounters::default();
    for (i, r) in results {
        // A dead machine's rows are stale (the survivors adopted its
        // atoms and carry the authoritative values); write back nothing
        // from it. Its rows are empty by contract — this guards the
        // contract rather than trusting it.
        if !r.dead {
            for (v, d) in r.vrows {
                *graph.vertex_data_mut(v) = d;
                if let Some(owned) = &mut owned {
                    owned.push(v);
                }
            }
            for (e, d) in r.erows {
                *graph.edge_data_mut(e) = d;
            }
        }
        for (total, &c) in update_counts.iter_mut().zip(&r.update_counts) {
            *total += u64::from(c);
        }
        timelines.push(r.timeline);
        total_updates += r.updates;
        steps = steps.max(r.steps);
        snapshots = snapshots.max(r.snapshots);
        recoveries = recoveries.max(r.recoveries);
        adoptions = adoptions.max(r.adoptions);
        if failure.is_none() {
            failure = r.failed;
        }
        // Machine 0's, or under TCP this machine's own.
        globals.get_or_insert(r.globals);
        phases[i] = r.phase;
        if chain_spans.len() < r.chain_spans.len() {
            chain_spans.resize(r.chain_spans.len(), 0);
        }
        for (s, &n) in r.chain_spans.iter().enumerate() {
            chain_spans[s] += n;
        }
        idle_wakeups[i] = r.idle_wakeups;
        hot.add(&r.hot);
    }

    let metrics = EngineMetrics {
        updates: total_updates,
        runtime: end - start,
        update_counts,
        updates_timeline: fold_timeline(start, end, &timelines),
        bytes_sent_per_machine: stats.all().iter().map(|t| t.bytes_sent).collect(),
        total_messages: stats.total_msgs(),
        bytes_by_kind: stats.by_kind(),
        steps,
        snapshots,
        recoveries,
        adoptions,
        phases,
        chain_spans,
        idle_wakeups,
        hot,
    };
    EngineOutput { metrics, globals: globals.unwrap_or_default(), dfs, failure, owned }
}

/// Runs one machine's engine loop on the given (already-connected)
/// endpoint, splitting its wall clock into setup / compute / net-wait at
/// the transport seam.
fn run_machine<V, E, U>(
    kind: EngineKind,
    endpoint: Endpoint,
    setup: MachineSetup<V, E>,
    update: Arc<U>,
) -> MachineResult<V, E>
where
    V: Codec + Clone + Send + Sync + 'static,
    E: Codec + Clone + Send + Sync + 'static,
    U: UpdateFunction<V, E>,
{
    let t0 = clock::now();
    let machine = endpoint.id();
    let wait = endpoint.net_wait_counter();
    let init = match load_machine_part(&setup.dfs, &setup.index, &setup.placement, machine) {
        Ok(init) => init,
        // Journals are outside input. The peers wait for this machine: fail
        // their runs too, with the reason, through the recovery plane.
        Err(e) => {
            let reason = format!("machine {}: ingress: {e}", machine.0);
            let abort = RecoverAbortMsg { era: 0, reason: reason.clone() };
            let mut net = Batcher::new(endpoint, setup.config.batch);
            net.broadcast(Kind::from(RecoveryKind::Abort).wire(), &enc(&abort));
            net.flush_all();
            return MachineResult { failed: Some(reason), ..MachineResult::default() };
        }
    };
    let setup_time = clock::now() - t0;
    let mut r = match kind {
        EngineKind::Chromatic => ChromaticMachine::new(endpoint, setup, update, init).run(),
        EngineKind::Locking => LockingMachine::new(endpoint, setup, update, init).run(),
        EngineKind::Sequential => unreachable!("sequential runs bypass the machine loop"),
    };
    let total = clock::now() - t0;
    let net_wait = Duration::from_nanos(wait.load(Ordering::Relaxed));
    r.phase = PhaseTimes {
        setup: setup_time,
        compute: total.saturating_sub(setup_time).saturating_sub(net_wait),
        net_wait,
    };
    r
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::messages::dec;
    use graphlab_graph::MachineId;

    /// The update function of [`scripted_machine`]s: does nothing.
    pub(crate) struct NoUpdate;

    impl UpdateFunction<f64, f64> for NoUpdate {
        fn update(&self, _ctx: &mut crate::update::UpdateContext<'_, f64, f64>) {}
    }

    /// Unit-test fixture: machine `me`'s setup and ingress part of a
    /// `config.num_machines`-machine cluster over `graph` cut by `partition`
    /// (atom `a` on machine `a mod m`), and every machine's zero-latency SimNet
    /// endpoint — for tests that script envelopes
    /// into one machine loop.
    #[allow(clippy::type_complexity, reason = "a test-only tuple of the three things a scripted machine is built from")]
    pub(crate) fn scripted_machine(
        graph: &DataGraph<f64, f64>,
        partition: &VertexPartition,
        me: MachineId,
        config: EngineConfig,
        initial: InitialSchedule,
    ) -> (MachineSetup<f64, f64>, graphlab_atoms::LocalGraphInit<f64, f64>, Vec<Endpoint>) {
        let dfs = Arc::new(SimDfs::new());
        let (atoms, index) = build_atoms(graph, partition, "graph");
        write_atoms(&dfs, "graph", &atoms, &index);
        let placement = Placement::round_robin(atoms.len(), config.num_machines);
        let init = load_machine_part(&dfs, &index, &placement, me).expect("ingress");
        let (_net, endpoints) =
            SimNet::with_seed(config.num_machines, graphlab_net::LatencyModel::ZERO, 1);
        let setup = MachineSetup {
            dfs,
            index: Arc::new(index),
            placement: Arc::new(placement),
            coloring: Some(Arc::new(graphlab_graph::greedy_coloring(graph))),
            syncs: Arc::new(Vec::new()),
            stop: None,
            initial: Arc::new(initial),
            config,
            sync_every: 0,
            counters: LiveCounters::new(),
            snap_prefix: "ckpt".to_string(),
        };
        (setup, init, endpoints)
    }

    /// ROADMAP 3(a): a journal that cannot be read fails the run through
    /// `failed` — on this machine and, by an `Abort` on the recovery plane,
    /// on the peers that would otherwise wait for it — instead of panicking
    /// the machine thread.
    #[test]
    fn a_missing_journal_fails_the_machine_cleanly_and_tells_the_peers() {
        let mut b = graphlab_graph::GraphBuilder::new();
        let v: Vec<VertexId> = (0..8).map(|i| b.add_vertex(i as f64)).collect();
        for i in 0..8 {
            b.add_edge(v[i], v[(i + 1) % 8], 1.0).unwrap();
        }
        let (setup, _, mut eps) = scripted_machine(
            &b.build(),
            &VertexPartition::random_hash(8, 4, 3),
            MachineId(1),
            EngineConfig::new(2),
            InitialSchedule::AllVertices,
        );
        let mine = setup.placement.atoms_of(MachineId(1))[0];
        assert!(setup.dfs.delete(&setup.index.entry(mine).file));
        let (ep1, ep0) = (eps.pop().unwrap(), eps.pop().unwrap());
        // The failure precedes the choice of engine.
        let r = run_machine(EngineKind::Locking, ep1, setup, Arc::new(NoUpdate));
        let reason = r.failed.expect("the run failed");
        assert!(reason.starts_with("machine 1: ingress: "), "{reason}");
        assert!(r.vrows.is_empty() && r.erows.is_empty() && r.updates == 0);
        let told = ep0.try_recv().expect("the peer is told");
        assert_eq!(Kind::of(&told), Kind::Recovery(RecoveryKind::Abort));
        assert_eq!(dec::<RecoverAbortMsg>(told.payload).reason, reason);
    }
}
