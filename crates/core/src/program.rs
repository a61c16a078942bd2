//! The `GraphLab` program builder — the single typed entry point for
//! running a GraphLab program (§3: data graph + update function + sync +
//! consistency) on any engine.
//!
//! ```
//! use graphlab_core::{EngineKind, GraphLab};
//! use graphlab_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! let v0 = b.add_vertex(1.0f64);
//! let v1 = b.add_vertex(2.0f64);
//! b.add_edge(v0, v1, ()).unwrap();
//! let mut graph = b.build();
//!
//! let out = GraphLab::on(&mut graph)
//!     .engine(EngineKind::Sequential)
//!     .run(|ctx: &mut graphlab_core::UpdateContext<'_, f64, ()>| {
//!         *ctx.vertex_data_mut() += 1.0;
//!     });
//! assert_eq!(out.metrics.updates, 2);
//! ```
//!
//! The same program runs unchanged on the distributed engines by swapping
//! [`GraphLab::engine`]; the chromatic engine's colouring is auto-computed
//! from the consistency model (first-order for edge consistency,
//! second-order for full, single-colour for vertex) and verified, or a
//! known colouring (e.g. bipartite) can be supplied with
//! [`GraphLab::coloring`]. Sync operations register typed [`Aggregate`]s
//! under [`GlobalHandle`]s, and [`GraphLab::stop_when`] makes termination
//! first-class: a predicate over the finalized globals, evaluated at sync
//! boundaries — the paper's aggregate-driven convergence checks — composing
//! with `max_updates`.

use std::sync::Arc;

use graphlab_atoms::PlacementStrategy;
use graphlab_graph::{
    greedy_coloring, second_order_coloring, verify_coloring, Coloring, ConsistencyModel,
    DataGraph,
};
use graphlab_net::codec::Codec;
use graphlab_net::{FaultPlan, LatencyModel, Transport};

use crate::config::{Ablation, EngineConfig, RecoveryMode, SnapshotConfig};
use crate::driver::{run_distributed, EngineKind, EngineOutput, PartitionStrategy, StopFn};
use crate::globals::{GlobalHandle, GlobalRegistry};
use crate::reference::{run_sequential_program, InitialSchedule};
use crate::scheduler::SchedulerKind;
use crate::sync::{Aggregate, ErasedSync, RegisteredSync, SyncList};
use crate::update::UpdateFunction;

/// How often a registered sync operation must be re-evaluated.
///
/// Engines may evaluate *more* often at their natural boundaries: the
/// chromatic engine runs every registered sync between colour cycles
/// regardless of cadence (its cycle barrier makes them free and
/// consistent), and every engine runs a final sync at termination so
/// [`EngineOutput::globals`] is always current.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncCadence {
    /// Only at the engines' natural boundaries (chromatic colour cycles,
    /// run termination) — no background cadence.
    Final,
    /// At least once every `n` cluster-wide updates (`n > 0`). On the
    /// locking engine this drives the paper's background sync; the
    /// finest registered cadence sets the epoch interval and every
    /// registered sync evaluates each epoch.
    Updates(u64),
}

/// Builder for one GraphLab program run. See the [module docs](self).
///
/// Construct with [`GraphLab::on`], chain configuration, finish with
/// [`GraphLab::run`] — which executes the program on the selected engine,
/// mutates the graph's data in place and returns the [`EngineOutput`].
pub struct GraphLab<'g, V, E> {
    graph: &'g mut DataGraph<V, E>,
    engine: EngineKind,
    config: EngineConfig,
    coloring: Option<Coloring>,
    strategy: PartitionStrategy,
    initial: InitialSchedule,
    syncs: Vec<Box<dyn ErasedSync<V, E>>>,
    cadences: Vec<SyncCadence>,
    sync_ids: Vec<u32>,
    stop: Option<StopFn>,
}

impl<'g, V, E> GraphLab<'g, V, E>
where
    V: Codec + Clone + Send + Sync + 'static,
    E: Codec + Clone + Send + Sync + 'static,
{
    /// Starts a program on `graph`. Defaults: sequential engine, one
    /// machine, edge consistency, FIFO scheduler, random-hash
    /// partitioning, all vertices initially scheduled.
    pub fn on(graph: &'g mut DataGraph<V, E>) -> Self {
        GraphLab {
            graph,
            engine: EngineKind::Sequential,
            config: EngineConfig::new(1),
            coloring: None,
            strategy: PartitionStrategy::RandomHash,
            initial: InitialSchedule::AllVertices,
            syncs: Vec::new(),
            cadences: Vec::new(),
            sync_ids: Vec::new(),
            stop: None,
        }
    }

    /// Selects the engine (default: [`EngineKind::Sequential`]).
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Number of simulated machines for the distributed engines. Resets
    /// the atom count to the default `8 × machines`; call
    /// [`GraphLab::configure`] *after* this to customise `num_atoms`.
    pub fn machines(mut self, machines: usize) -> Self {
        self.config.num_machines = machines;
        self.config.num_atoms = (8 * machines).max(1);
        self
    }

    /// Consistency model to enforce (default: edge consistency). For the
    /// chromatic engine this also selects the auto-computed colouring
    /// order: single-colour for vertex, first-order (greedy) for edge,
    /// second-order for full.
    pub fn consistency(mut self, model: ConsistencyModel) -> Self {
        self.config.consistency = model;
        self
    }

    /// Scheduler flavour of the sequential and locking engines (default:
    /// FIFO). The chromatic engine sweeps colour by colour and ignores it.
    pub fn scheduler(mut self, kind: SchedulerKind) -> Self {
        self.config.scheduler = kind;
        self
    }

    /// Atom partitioning strategy (default: random hash).
    pub fn partition(mut self, strategy: PartitionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Atom-to-machine placement strategy (default:
    /// [`PlacementStrategy::Affinity`]).
    /// [`PlacementStrategy::ReplicationAware`] co-locates connected
    /// meta-graph neighborhoods so the locking engine's lock chains span
    /// fewer machines.
    pub fn placement(mut self, strategy: PlacementStrategy) -> Self {
        self.config.placement = strategy;
        self
    }

    /// Supplies a known colouring for the chromatic engine (e.g. the free
    /// bipartite 2-colouring of ALS/CoEM graphs) instead of auto-computing
    /// one. It is still verified against the consistency model's required
    /// order at [`GraphLab::run`].
    pub fn coloring(mut self, coloring: Coloring) -> Self {
        self.coloring = Some(coloring);
        self
    }

    /// Initial task set (default: all vertices at uniform priority).
    pub fn initial(mut self, initial: InitialSchedule) -> Self {
        self.initial = initial;
        self
    }

    /// Safety cap on total updates (0 = unlimited). Composes with
    /// [`GraphLab::stop_when`]: the run halts at whichever fires first, on
    /// the locking engine as the stop does (so the count may pass the cap).
    pub fn max_updates(mut self, cap: u64) -> Self {
        self.config.max_updates = cap;
        self
    }

    /// Transport backend for the distributed engines (default:
    /// [`Transport::Sim`] with zero latency). [`Transport::Tcp`] makes this
    /// process one machine of a real multi-process cluster: it runs only
    /// its own machine loop over sockets and writes back only the vertices
    /// it owns (see [`EngineOutput::owned`]).
    pub fn transport(mut self, transport: Transport) -> Self {
        self.config.transport = transport;
        self
    }

    /// Network latency model for the simulated fabric — shorthand for
    /// `.transport(Transport::Sim(model))`.
    pub fn latency(self, model: LatencyModel) -> Self {
        self.transport(Transport::Sim(model))
    }

    /// Snapshot policy (§4.3).
    pub fn snapshot(mut self, snapshot: SnapshotConfig) -> Self {
        self.config.snapshot = snapshot;
        self
    }

    /// Deterministic fault injection (§4.3 failure model): the fabric
    /// kills/restarts machines per `plan` and the engines recover through
    /// the protocol in `crate::recovery` — a restarted machine rolls the
    /// cluster back to the latest complete checkpoint, a permanent death
    /// fails the run or, under [`RecoveryMode::Adopt`], hands its atoms to
    /// the survivors. Requires a distributed engine; machine 0 (the
    /// coordination master) must not be a kill target. Pair with
    /// [`GraphLab::snapshot`] — without a completed checkpoint a rollback
    /// fails the run with a clean "no complete checkpoint" error
    /// ([`GraphLab::try_run`]).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.faults = Some(plan);
        self
    }

    /// What a permanent (restart-less) machine death does to the run
    /// (default: [`RecoveryMode::Rollback`], which aborts — the lost
    /// partition cannot be rebuilt). [`RecoveryMode::Adopt`] turns it
    /// into restart-free recovery: the survivors adopt the dead machine's
    /// atoms from the DFS journals (plus the latest complete per-atom
    /// checkpoint, when one exists) and the run continues without a
    /// cluster rollback.
    pub fn recovery(mut self, mode: RecoveryMode) -> Self {
        self.config.recovery = mode;
        self
    }

    /// Enables lease-based failure detection with the given lease period:
    /// machines refresh their lease by traffic towards the master
    /// (explicit heartbeats when idle), and the master declares a machine
    /// dead — broadcasting the same `K_DOWN` the fault fabric's oracle
    /// would — when its lease expires. This is how real deployments (and
    /// TCP runs, where it defaults on) detect silent peer loss without a
    /// ground-truth oracle.
    pub fn lease(mut self, period: std::time::Duration) -> Self {
        self.config.lease = Some(period);
        self
    }

    /// Seed for partitioning and tie-breaking.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Escape hatch for the remaining [`EngineConfig`] knobs (batching,
    /// pipelining depth, stragglers, ablation switches, …).
    pub fn configure(mut self, f: impl FnOnce(&mut EngineConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Registers a sync operation (§3.5): `op` maintains the global value
    /// read back through `ctx.global(handle)`, re-evaluated per `cadence`.
    ///
    /// # Panics
    /// If `handle`'s id collides with an earlier registration.
    pub fn sync<A>(mut self, handle: GlobalHandle<A::Out>, op: A, cadence: SyncCadence) -> Self
    where
        A: Aggregate<V, E>,
    {
        assert!(
            !self.sync_ids.contains(&handle.id()),
            "duplicate global handle id {} — every sync needs a distinct handle",
            handle.id()
        );
        if let SyncCadence::Updates(n) = cadence {
            assert!(n > 0, "SyncCadence::Updates cadence must be positive");
        }
        self.sync_ids.push(handle.id());
        self.syncs.push(Box::new(RegisteredSync { id: handle.id(), op }));
        self.cadences.push(cadence);
        self
    }

    /// First-class termination (§3.5): halt when `stop` returns true over
    /// the finalized globals. Evaluated at every sync boundary
    /// (chromatic: each colour cycle; locking/sequential: each sync
    /// epoch), so it requires at least one registered [`sync`] — and, on
    /// the locking/sequential engines, one with a [`SyncCadence::Updates`]
    /// cadence. Every machine asks it, so `stop` must be pure. Where
    /// it holds, every machine stops taking tasks, the lock chains in flight
    /// finish, and the run ends at the next clean quiet round, after the
    /// final sync. Composes with [`GraphLab::max_updates`]. On the locking
    /// engine the stop lands at the first sync epoch that finds it, which
    /// opens only on a loop pass of the master's thread and closes only
    /// once every worker's partial is in: on a host with fewer cores than
    /// machines a run can overshoot its stop by thousands of updates while
    /// the OS runs other threads.
    ///
    /// [`sync`]: GraphLab::sync
    pub fn stop_when(mut self, stop: impl Fn(&GlobalRegistry) -> bool + Send + Sync + 'static) -> Self {
        self.stop = Some(Arc::new(stop));
        self
    }

    /// Executes the program, mutating the graph's data in place.
    ///
    /// # Panics
    /// On an invalid configuration (a supplied colouring that violates the
    /// consistency model's order, a `stop_when` without syncs to drive it,
    /// fewer atoms than machines, an [`Ablation`] off the locking engine),
    /// or when an injected fault proves
    /// unrecoverable — use [`GraphLab::try_run`] when a clean failure is an
    /// expected outcome.
    pub fn run<U>(self, update: U) -> EngineOutput
    where
        U: UpdateFunction<V, E>,
    {
        let out = self.run_inner(update);
        if let Some(reason) = &out.failure {
            panic!("engine run failed: {reason}");
        }
        out
    }

    /// As [`GraphLab::run`], but an unrecoverable injected fault (e.g. a
    /// kill with no complete checkpoint to roll back to) returns
    /// `Err(reason)` instead of panicking. The graph's data is then
    /// whatever partial state the machines held — treat it as garbage.
    pub fn try_run<U>(self, update: U) -> Result<EngineOutput, String>
    where
        U: UpdateFunction<V, E>,
    {
        let out = self.run_inner(update);
        match &out.failure {
            Some(reason) => Err(reason.clone()),
            None => Ok(out),
        }
    }

    fn run_inner<U>(self, update: U) -> EngineOutput
    where
        U: UpdateFunction<V, E>,
    {
        let GraphLab {
            graph,
            engine,
            config,
            coloring,
            strategy,
            initial,
            syncs,
            cadences,
            stop,
            ..
        } = self;

        // The finest registered Updates cadence drives the background sync
        // interval (cadences are "at least every n"); 0 when every
        // registration is Final-only.
        let sync_every = cadences
            .iter()
            .filter_map(|c| match c {
                SyncCadence::Updates(n) => Some(*n),
                SyncCadence::Final => None,
            })
            .min()
            .unwrap_or(0);

        if let Some(plan) = &config.faults {
            if !plan.is_empty() {
                assert!(
                    engine != EngineKind::Sequential,
                    "fault injection requires a distributed engine"
                );
                plan.validate(config.num_machines);
                assert!(
                    plan.kills.iter().all(|k| k.machine != 0),
                    "machine 0 is the recovery master and must not be a kill target \
                     (kill machines 1..)"
                );
            }
        }

        assert!(
            engine == EngineKind::Locking || config.ablation == Ablation::Off,
            "{:?} is a locking-engine ablation; the {engine:?} engine does not read it",
            config.ablation
        );

        if config.transport.is_tcp() {
            assert!(
                engine != EngineKind::Sequential,
                "Transport::Tcp requires a distributed engine (the sequential engine \
                 never touches the network)"
            );
            assert!(
                config.faults.as_ref().is_none_or(|p| p.is_empty()),
                "fault plans are SimNet-only: over TCP the network's faults are real"
            );
        }

        if stop.is_some() {
            assert!(
                !syncs.is_empty(),
                "stop_when requires at least one sync(...): the predicate is evaluated \
                 over finalized globals at sync boundaries"
            );
            if engine != EngineKind::Chromatic {
                assert!(
                    sync_every > 0,
                    "stop_when on the {engine:?} engine requires a SyncCadence::Updates \
                     cadence (the chromatic engine evaluates every colour cycle)"
                );
            }
        }

        let update = Arc::new(update);
        let syncs: SyncList<V, E> = Arc::new(syncs);
        match engine {
            EngineKind::Sequential => {
                run_sequential_program(graph, &*update, initial, &syncs, stop, sync_every, &config)
            }
            EngineKind::Chromatic | EngineKind::Locking => {
                // Only the chromatic engine reads a colouring.
                let coloring = (engine == EngineKind::Chromatic)
                    .then(|| resolve_coloring(graph, coloring, config.consistency));
                run_distributed(
                    engine,
                    graph,
                    coloring,
                    update,
                    initial,
                    syncs,
                    stop,
                    sync_every,
                    &config,
                    &strategy,
                )
            }
        }
    }
}

/// Chromatic colouring resolution: a caller-supplied colouring is
/// verified; otherwise one is computed at the order the consistency model
/// requires (§4.2.1) — and verified too, pinning the generators.
fn resolve_coloring<V, E>(
    graph: &DataGraph<V, E>,
    user: Option<Coloring>,
    model: ConsistencyModel,
) -> Coloring {
    let order = model.required_coloring_order();
    let coloring = user.unwrap_or_else(|| match order {
        0 => Coloring::uniform(graph.num_vertices()),
        1 => greedy_coloring(graph),
        _ => second_order_coloring(graph),
    });
    assert!(
        verify_coloring(graph, &coloring, order),
        "colouring does not satisfy the {model} consistency model"
    );
    coloring
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::UpdateContext;
    use graphlab_graph::GraphBuilder;

    fn ring(n: usize) -> DataGraph<f64, f64> {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n).map(|i| b.add_vertex(i as f64)).collect();
        for i in 0..n {
            b.add_edge(vs[i], vs[(i + 1) % n], 0.0).unwrap();
        }
        b.build()
    }

    struct MaxDiffusion;
    impl UpdateFunction<f64, f64> for MaxDiffusion {
        fn update(&self, ctx: &mut UpdateContext<'_, f64, f64>) {
            let mut best = *ctx.vertex_data();
            for i in 0..ctx.num_neighbors() {
                best = best.max(*ctx.nbr_data(i));
            }
            if best > *ctx.vertex_data() {
                *ctx.vertex_data_mut() = best;
                for i in 0..ctx.num_neighbors() {
                    ctx.schedule_nbr(i, 1.0);
                }
            }
        }
    }

    #[test]
    fn all_three_engines_reach_the_fixpoint() {
        for engine in [EngineKind::Sequential, EngineKind::Chromatic, EngineKind::Locking] {
            let mut g = ring(16);
            let out = GraphLab::on(&mut g).engine(engine).machines(2).run(MaxDiffusion);
            assert!(out.metrics.updates >= 16, "{engine:?}");
            for v in g.vertices() {
                assert_eq!(*g.vertex_data(v), 15.0, "{engine:?}");
            }
        }
    }

    #[test]
    fn chromatic_autocomputes_coloring() {
        // No .coloring(..) call: the builder computes a first-order
        // colouring for edge consistency on its own.
        let mut g = ring(12);
        let out = GraphLab::on(&mut g).engine(EngineKind::Chromatic).machines(2).run(MaxDiffusion);
        assert!(out.metrics.updates >= 12);
        for v in g.vertices() {
            assert_eq!(*g.vertex_data(v), 11.0);
        }
    }

    #[test]
    #[should_panic(expected = "does not satisfy")]
    fn improper_supplied_coloring_rejected() {
        let mut g = ring(6);
        GraphLab::on(&mut g)
            .engine(EngineKind::Chromatic)
            .coloring(Coloring::uniform(6))
            .run(MaxDiffusion);
    }

    #[test]
    #[should_panic(expected = "duplicate global handle")]
    fn duplicate_handles_rejected() {
        const A: GlobalHandle<Vec<f64>> = GlobalHandle::new(1);
        const B: GlobalHandle<Vec<f64>> = GlobalHandle::new(1);
        let mut g = ring(4);
        let _ = GraphLab::on(&mut g)
            .sync(A, crate::FnSync::new(1, |_, d: &f64| vec![*d], |a, _| a), SyncCadence::Final)
            .sync(B, crate::FnSync::new(1, |_, d: &f64| vec![*d], |a, _| a), SyncCadence::Final);
    }

    #[test]
    #[should_panic(expected = "locking-engine ablation")]
    fn ablation_on_the_chromatic_engine_rejected() {
        let mut g = ring(4);
        GraphLab::on(&mut g)
            .engine(EngineKind::Chromatic)
            .configure(|c| c.ablation = Ablation::FullScopeResend)
            .run(MaxDiffusion);
    }

    #[test]
    #[should_panic(expected = "requires at least one sync")]
    fn stop_when_without_syncs_rejected() {
        let mut g = ring(4);
        GraphLab::on(&mut g).stop_when(|_| true).run(MaxDiffusion);
    }

    #[test]
    fn sequential_stop_when_halts_early() {
        const SUM: GlobalHandle<Vec<f64>> = GlobalHandle::new(0);
        let mut g = ring(32);
        let out = GraphLab::on(&mut g)
            .sync(
                SUM,
                crate::FnSync::new(1, |_, d: &f64| vec![*d], |a, _| a),
                SyncCadence::Updates(1),
            )
            // The running sum only grows; stop as soon as any progress shows.
            .stop_when(|globals| globals.get(SUM).is_some_and(|s| s[0] > 0.0))
            .run(MaxDiffusion);
        assert!(out.metrics.updates < 32, "halted after {} updates", out.metrics.updates);
        assert!(out.globals.get(SUM).is_some());
    }
}
