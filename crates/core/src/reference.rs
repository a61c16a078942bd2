//! Sequential reference engine: a literal implementation of the GraphLab
//! execution model (Alg. 2).
//!
//! ```text
//! while T is not empty:
//!     v      ← RemoveNext(T)
//!     (T',S) ← f(v, S_v)
//!     T      ← T ∪ T'
//! ```
//!
//! Every distributed execution must be *serializable*: equivalent to some
//! run of this loop (§3.4). The integration tests use this engine both as
//! the correctness oracle for the distributed engines and as the
//! single-threaded baseline for convergence studies (Fig. 1). It runs
//! behind the same program seam as the distributed engines
//! ([`crate::EngineKind::Sequential`] via [`crate::GraphLab`]): same
//! update functions, same typed syncs, same `stop_when` termination.

use std::sync::Arc;

use graphlab_atoms::SimDfs;
use graphlab_graph::{DataGraph, VertexId};
use graphlab_net::clock;

use crate::config::EngineConfig;
use crate::driver::{EngineOutput, StopFn};
use crate::globals::GlobalRegistry;
use crate::local::LocalGraph;
use crate::metrics::EngineMetrics;
use crate::scheduler::{Scheduler, SchedulerKind};
use crate::sync::{run_local_syncs, ErasedSync};
use crate::update::{UpdateContext, UpdateEffects, UpdateFunction};

/// Initial task set.
#[derive(Clone, Debug)]
pub enum InitialSchedule {
    /// Schedule every vertex (uniform priority 1.0).
    AllVertices,
    /// Schedule the given vertices with priorities.
    Vertices(Vec<(VertexId, f64)>),
}

/// Runs Alg. 2 to completion on `graph`, mutating its data in place.
/// Entered exclusively through [`crate::GraphLab::run`].
pub(crate) fn run_sequential_program<V, E, U>(
    graph: &mut DataGraph<V, E>,
    update: &U,
    initial: InitialSchedule,
    syncs: &[Box<dyn ErasedSync<V, E>>],
    stop: Option<StopFn>,
    sync_every: u64,
    config: &EngineConfig,
) -> EngineOutput
where
    V: Clone + Send + Sync + 'static,
    E: Clone + Send + Sync + 'static,
    U: UpdateFunction<V, E> + ?Sized,
{
    let start = clock::now();
    let mut lg = LocalGraph::single_machine(graph, None);
    let mut globals = GlobalRegistry::new();
    let mut scheduler = Scheduler::new(config.scheduler, lg.num_local_vertices());

    match &initial {
        InitialSchedule::AllVertices => {
            for l in 0..lg.num_local_vertices() as u32 {
                scheduler.add(l, 1.0);
            }
        }
        InitialSchedule::Vertices(vs) => {
            for &(v, p) in vs {
                let l = lg.local_vertex(v).expect("initial vertex exists");
                scheduler.add(l, p);
            }
        }
    }

    run_local_syncs(syncs, &lg, &mut globals);

    let mut updates = 0u64;
    let mut update_counts = vec![0u64; lg.total_vertices() as usize];
    let mut effects = UpdateEffects::default();
    let prioritized = config.scheduler == SchedulerKind::Priority;

    while let Some(l) = scheduler.pop() {
        effects.clear();
        {
            let mut ctx =
                UpdateContext::new(&mut lg, l, config.consistency, prioritized, &globals, &mut effects);
            update.update(&mut ctx);
        }
        updates += 1;
        update_counts[lg.vertex_gvid(l).index()] += 1;
        for &(lv, prio) in &effects.scheduled {
            scheduler.add(lv, prio);
        }
        if sync_every > 0 && updates.is_multiple_of(sync_every) {
            run_local_syncs(syncs, &lg, &mut globals);
            // Aggregate-driven convergence check (§3.5) at the sync
            // boundary, composing with the update cap below.
            if stop.as_ref().is_some_and(|f| f(&globals)) {
                break;
            }
        }
        if config.max_updates > 0 && updates >= config.max_updates {
            break;
        }
    }

    run_local_syncs(syncs, &lg, &mut globals);

    // Write results back into the caller's graph.
    let (vrows, erows) = lg.into_owned_data();
    for (gv, data) in vrows {
        *graph.vertex_data_mut(gv) = data;
    }
    for (ge, data) in erows {
        *graph.edge_data_mut(ge) = data;
    }

    EngineOutput {
        metrics: EngineMetrics {
            updates,
            runtime: clock::now() - start,
            update_counts,
            updates_timeline: Vec::new(),
            bytes_sent_per_machine: vec![0],
            total_messages: 0,
            bytes_by_kind: Vec::new(),
            steps: 0,
            snapshots: 0,
            recoveries: 0,
            adoptions: 0,
            phases: Vec::new(),
            chain_spans: Vec::new(),
            idle_wakeups: Vec::new(),
            hot: Default::default(),
        },
        globals,
        dfs: Arc::new(SimDfs::new()),
        failure: None,
        owned: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{GraphLab, SyncCadence};
    use crate::scheduler::SchedulerKind;
    use crate::EngineKind;
    use graphlab_graph::GraphBuilder;

    /// Toy diffusion: v takes the max of its neighbours; schedules
    /// neighbours when it changes. Converges to the global max everywhere.
    struct MaxDiffusion;
    impl UpdateFunction<f64, ()> for MaxDiffusion {
        fn update(&self, ctx: &mut UpdateContext<'_, f64, ()>) {
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

    fn path(n: usize) -> DataGraph<f64, ()> {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n).map(|i| b.add_vertex(i as f64)).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], ()).unwrap();
        }
        b.build()
    }

    #[test]
    fn max_diffusion_converges() {
        let mut g = path(20);
        let out = GraphLab::on(&mut g).run(MaxDiffusion);
        assert!(out.metrics.updates >= 20);
        for v in g.vertices() {
            assert_eq!(*g.vertex_data(v), 19.0);
        }
    }

    #[test]
    fn initial_subset_only_touches_reachable_work() {
        let mut g = path(5);
        let out = GraphLab::on(&mut g)
            .initial(InitialSchedule::Vertices(vec![(VertexId(0), 1.0)]))
            .run(MaxDiffusion);
        // v0 pulls max(v1)=1.0 and schedules neighbours, cascade follows.
        assert!(out.metrics.updates >= 1);
        assert_eq!(*g.vertex_data(VertexId(0)), 4.0);
    }

    #[test]
    fn max_updates_caps_execution() {
        let mut g = path(50);
        let out = GraphLab::on(&mut g).max_updates(10).run(MaxDiffusion);
        assert_eq!(out.metrics.updates, 10);
    }

    #[test]
    fn counts_updates_per_vertex() {
        let mut g = path(4);
        let out = GraphLab::on(&mut g).run(MaxDiffusion);
        assert_eq!(out.metrics.update_counts.len(), 4);
        assert_eq!(out.metrics.update_counts.iter().sum::<u64>(), out.metrics.updates);
    }

    #[test]
    fn syncs_publish_globals() {
        use crate::globals::GlobalHandle;
        use crate::sync::FnSync;
        const SUM: GlobalHandle<Vec<f64>> = GlobalHandle::new(0);
        let mut g = path(3);
        // The sync runs before the first update, so every update observes it.
        struct CheckGlobal;
        impl UpdateFunction<f64, ()> for CheckGlobal {
            fn update(&self, ctx: &mut UpdateContext<'_, f64, ()>) {
                assert!(ctx.global(SUM).is_some(), "sync ran before updates");
            }
        }
        let out = GraphLab::on(&mut g)
            .sync(SUM, FnSync::new(1, |_, d: &f64| vec![*d], |acc, _| acc), SyncCadence::Updates(1))
            .run(CheckGlobal);
        assert_eq!(out.globals.get(SUM), Some(&vec![3.0]));
    }

    #[test]
    fn priority_scheduler_orders_execution() {
        // Record execution order via vertex data mutation.
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_vertex(0.0f64);
        }
        let mut g: DataGraph<f64, ()> = b.build();

        use std::sync::atomic::{AtomicU64, Ordering};
        let order = Arc::new(AtomicU64::new(1));
        let order2 = Arc::clone(&order);
        let f = move |ctx: &mut UpdateContext<'_, f64, ()>| {
            *ctx.vertex_data_mut() = order2.fetch_add(1, Ordering::Relaxed) as f64;
        };
        GraphLab::on(&mut g)
            .scheduler(SchedulerKind::Priority)
            .initial(InitialSchedule::Vertices(vec![
                (VertexId(0), 1.0),
                (VertexId(1), 100.0),
                (VertexId(2), 10.0),
            ]))
            .run(f);
        assert_eq!(*g.vertex_data(VertexId(1)), 1.0);
        assert_eq!(*g.vertex_data(VertexId(2)), 2.0);
        assert_eq!(*g.vertex_data(VertexId(0)), 3.0);
    }

    #[test]
    fn sequential_engine_kind_is_explicit() {
        let mut g = path(8);
        let out = GraphLab::on(&mut g).engine(EngineKind::Sequential).run(MaxDiffusion);
        assert!(out.metrics.updates >= 8);
        assert_eq!(out.metrics.total_messages, 0, "no fabric traffic sequentially");
    }

}
