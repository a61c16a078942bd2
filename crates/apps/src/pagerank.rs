//! PageRank — the paper's running example (Example 1, Alg. 1).
//!
//! The data graph is the web graph: vertex data is the rank estimate
//! `R(v)`, edge data the link weight `w_{u,v}`. The update recomputes
//!
//! ```text
//! R(v) = α/n + (1 − α) Σ_{u links to v} w_{u,v} · R(u)
//! ```
//!
//! and, when *dynamic*, schedules out-neighbours only if the rank moved by
//! more than `ε` — the adaptive pull model Pregel cannot express (§3.2).
//!
//! Under a priority scheduler an out-neighbour `t` of `v` is scheduled with
//! priority `(1 − α)·w_{v,t}·|ΔR(v)| / R(t)`: the relative change this one
//! contribution makes to `t`'s rank, the residual at the target rather than
//! at the source. An absolute `|ΔR(v)|` ranks every task by the size of
//! its source, so high-rank hubs, whose scopes are the largest, are
//! re-popped again and again while their relative changes are already
//! small; on `web_graph(12 000, 4, ·)` at ε = 1e-9 that took ~40 % more
//! updates than FIFO, where the relative priority takes ~25 % fewer
//! (`repro -- abl-priority`).

use graphlab_core::{Aggregate, GlobalHandle, SyncScope, UpdateContext, UpdateFunction};
use graphlab_graph::{DataGraph, EdgeDir};

/// The PageRank update function.
#[derive(Clone, Debug)]
pub struct PageRank {
    /// Random-jump probability α (the paper's Eq. 1 uses `α/n` as the
    /// teleport mass).
    pub alpha: f64,
    /// Convergence threshold ε: neighbours are rescheduled only when the
    /// rank changes by more than this.
    pub epsilon: f64,
    /// Dynamic (adaptive) scheduling; `false` reschedules unconditionally
    /// never — callers drive rounds themselves (BSP-style baselines).
    pub dynamic: bool,
}

impl Default for PageRank {
    fn default() -> Self {
        PageRank { alpha: 0.15, epsilon: 1e-6, dynamic: true }
    }
}

impl UpdateFunction<f64, f64> for PageRank {
    /// Recomputes `R(v)` from its in-neighbours. If the rank moved by more
    /// than `ε`, schedules every out-neighbour `t`, with priority
    /// `(1 − α)·w_{v,t}·|ΔR(v)| / R(t)` when the engine pops by priority
    /// ([`UpdateContext::prioritized`]; `R(t)` is floored at
    /// `f64::MIN_POSITIVE`, so a zero rank gives no infinity or NaN), and
    /// with `|ΔR(v)|`, which costs no read, where the priority is ignored.
    fn update(&self, ctx: &mut UpdateContext<'_, f64, f64>) {
        let n = ctx.num_vertices() as f64;
        let mut rank = self.alpha / n;
        for i in 0..ctx.num_neighbors() {
            if ctx.nbr_dir(i) == EdgeDir::In {
                rank += (1.0 - self.alpha) * ctx.edge_data(i) * *ctx.nbr_data(i);
            }
        }
        let old = *ctx.vertex_data();
        *ctx.vertex_data_mut() = rank;
        let delta = (rank - old).abs();
        if !(self.dynamic && delta > self.epsilon) {
            return;
        }
        // Out-neighbours depend on R(v): schedule them. Asked once, not per
        // neighbour: the chromatic engine and FIFO ignore the priority, and
        // computing it reads every neighbour's rank.
        if ctx.prioritized() {
            let moved = (1.0 - self.alpha) * delta;
            for i in 0..ctx.num_neighbors() {
                if ctx.nbr_dir(i) == EdgeDir::Out {
                    let target = ctx.nbr_data(i).max(f64::MIN_POSITIVE);
                    ctx.schedule_nbr(i, moved * ctx.edge_data(i) / target);
                }
            }
        } else {
            for i in 0..ctx.num_neighbors() {
                if ctx.nbr_dir(i) == EdgeDir::Out {
                    ctx.schedule_nbr(i, delta);
                }
            }
        }
    }
}

/// Handle of the global maintained by [`RankResidual`]: the summed
/// PageRank-equation residual over all vertices. (`graphlab-apps`
/// handles live in the `100..` range reserved for library aggregates —
/// see [`GlobalHandle`]; ids below 100 are free for application code.)
pub const PAGERANK_RESIDUAL: GlobalHandle<f64> = GlobalHandle::new(100);

/// Sync operation measuring distance to the PageRank fixpoint (§3.5's
/// aggregate-driven convergence check): each scope contributes
/// `|R(v) − (α/n + (1−α) Σ_in w·R(u))|`, summed cluster-wide. Register it
/// with [`graphlab_core::GraphLab::sync`] under [`PAGERANK_RESIDUAL`] and
/// pair with `stop_when(|g| g.get(PAGERANK_RESIDUAL) < tol)` to terminate
/// on convergence instead of a fixed update cap.
#[derive(Clone, Debug)]
pub struct RankResidual {
    /// Random-jump probability α (must match the update function's).
    pub alpha: f64,
}

impl Aggregate<f64, f64> for RankResidual {
    type Acc = f64;
    type Out = f64;

    fn init(&self) -> f64 {
        0.0
    }
    fn map(&self, scope: &SyncScope<'_, f64, f64>) -> f64 {
        let n = scope.num_vertices() as f64;
        let mut rank = self.alpha / n;
        for i in 0..scope.num_neighbors() {
            if scope.nbr_dir(i) == EdgeDir::In {
                rank += (1.0 - self.alpha) * scope.edge_data(i) * scope.nbr_data(i);
            }
        }
        (rank - scope.vertex_data()).abs()
    }
    fn combine(&self, acc: &mut f64, part: f64) {
        *acc += part;
    }
    fn finalize(&self, acc: f64, _total_vertices: u64) -> f64 {
        acc
    }
}

/// Reference power iteration on the full graph (test oracle and the
/// synchronous/BSP baseline curve of Fig. 1(a)).
///
/// Returns the rank vector after `iters` synchronous sweeps.
pub fn exact_pagerank(graph: &DataGraph<f64, f64>, alpha: f64, iters: usize) -> Vec<f64> {
    let n = graph.num_vertices();
    let mut ranks = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    for _ in 0..iters {
        for r in next.iter_mut() {
            *r = alpha / n as f64;
        }
        for e in graph.edges() {
            let (u, v) = graph.edge_endpoints(e);
            next[v.index()] += (1.0 - alpha) * graph.edge_data(e) * ranks[u.index()];
        }
        std::mem::swap(&mut ranks, &mut next);
    }
    ranks
}

/// L1 distance between two rank vectors (the convergence metric of
/// Fig. 1(a)).
pub fn l1_error(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Initialises rank data to the uniform distribution.
pub fn init_ranks(graph: &mut DataGraph<f64, f64>) {
    let n = graph.num_vertices();
    for i in 0..n {
        *graph.vertex_data_mut(graphlab_graph::VertexId::from(i)) = 1.0 / n as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlab_core::{
        EngineKind, GlobalRegistry, GraphLab, LocalGraph, SchedulerKind, SyncCadence,
        UpdateEffects,
    };
    use graphlab_graph::{ConsistencyModel, GraphBuilder, VertexId};
    use graphlab_workloads::web_graph;

    /// Small web graph with out-weight normalisation.
    fn web() -> DataGraph<f64, f64> {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..5).map(|_| b.add_vertex(0.2)).collect();
        let links = [(0, 1), (0, 2), (1, 2), (2, 0), (3, 2), (4, 0), (4, 3), (2, 4)];
        let mut outdeg = [0usize; 5];
        for &(s, _) in &links {
            outdeg[s] += 1;
        }
        for &(s, d) in &links {
            b.add_edge(v[s], v[d], 1.0 / outdeg[s] as f64).unwrap();
        }
        b.build()
    }

    #[test]
    fn dynamic_pagerank_matches_power_iteration() {
        let mut g = web();
        let oracle = exact_pagerank(&g, 0.15, 200);
        init_ranks(&mut g);
        let pr = PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true };
        let out = GraphLab::on(&mut g).run(pr);
        assert!(out.metrics.updates > 5);
        let got: Vec<f64> = g.vertices().map(|v| *g.vertex_data(v)).collect();
        assert!(l1_error(&got, &oracle) < 1e-8, "err {}", l1_error(&got, &oracle));
    }

    #[test]
    fn loose_epsilon_converges_in_fewer_updates() {
        let mut g1 = web();
        init_ranks(&mut g1);
        let tight =
            GraphLab::on(&mut g1).run(PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true });
        let mut g2 = web();
        init_ranks(&mut g2);
        let loose =
            GraphLab::on(&mut g2).run(PageRank { alpha: 0.15, epsilon: 1e-3, dynamic: true });
        assert!(loose.metrics.updates < tight.metrics.updates);
    }

    #[test]
    fn ranks_sum_to_one() {
        let mut g = web();
        init_ranks(&mut g);
        GraphLab::on(&mut g).run(PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true });
        let total: f64 = g.vertices().map(|v| *g.vertex_data(v)).sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn static_variant_runs_once_per_vertex() {
        let mut g = web();
        init_ranks(&mut g);
        let out =
            GraphLab::on(&mut g).run(PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: false });
        assert_eq!(out.metrics.updates, 5);
    }

    #[test]
    fn dangling_teleport_only_graph() {
        // Two vertices, one link; ranks should remain finite and positive.
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(0.5);
        let c = b.add_vertex(0.5);
        b.add_edge(a, c, 1.0).unwrap();
        let mut g = b.build();
        GraphLab::on(&mut g).run(PageRank::default());
        assert!(*g.vertex_data(VertexId(0)) > 0.0);
        assert!(*g.vertex_data(VertexId(1)) > *g.vertex_data(VertexId(0)));
    }

    #[test]
    fn residual_aggregate_vanishes_at_fixpoint() {
        let mut g = web();
        init_ranks(&mut g);
        // Converge tightly, syncing the residual as we go; at termination
        // the published residual must be ~0.
        let out = GraphLab::on(&mut g)
            .sync(PAGERANK_RESIDUAL, RankResidual { alpha: 0.15 }, SyncCadence::Updates(5))
            .run(PageRank { alpha: 0.15, epsilon: 1e-14, dynamic: true });
        let residual = *out.globals.get(PAGERANK_RESIDUAL).expect("published");
        assert!(residual < 1e-10, "residual {residual}");
    }

    #[test]
    fn stop_when_residual_halts_before_cap() {
        let mut g = web();
        init_ranks(&mut g);
        // BSP-style: always reschedule (epsilon below any delta), capped at
        // 200 sweeps; the residual stop fires long before the cap.
        let out = GraphLab::on(&mut g)
            .max_updates(200 * 5)
            .sync(PAGERANK_RESIDUAL, RankResidual { alpha: 0.15 }, SyncCadence::Updates(5))
            .stop_when(|g| g.get(PAGERANK_RESIDUAL).is_some_and(|r| *r < 1e-9))
            .run(PageRank { alpha: 0.15, epsilon: -1.0, dynamic: true });
        assert!(out.metrics.updates < 200 * 5, "halted at {}", out.metrics.updates);
        assert!(*out.globals.get(PAGERANK_RESIDUAL).unwrap() < 1e-9);
    }

    /// Runs `a`'s update on a three-vertex graph `a → b`, `a → c` with
    /// `R(b) = 0.5`, `R(c) = 0` and returns the priorities it scheduled.
    fn priorities_from_a(prioritized: bool) -> Vec<(u32, f64)> {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(0.2);
        let (hi, zero) = (b.add_vertex(0.5), b.add_vertex(0.0));
        b.add_edge(a, hi, 1.0).unwrap();
        b.add_edge(a, zero, 1.0).unwrap();
        let g = b.build();
        let mut lg = LocalGraph::single_machine(&g, None);
        let (globals, mut fx) = (GlobalRegistry::new(), UpdateEffects::default());
        let l = lg.local_vertex(a).unwrap();
        let mut ctx =
            UpdateContext::new(&mut lg, l, ConsistencyModel::Edge, prioritized, &globals, &mut fx);
        PageRank::default().update(&mut ctx);
        fx.scheduled.sort_by_key(|&(v, _)| v);
        fx.scheduled
    }

    #[test]
    fn priority_is_the_relative_change_at_the_target() {
        // R(a): 0.2 → α/3 = 0.05, so |ΔR(a)| = 0.15.
        let delta: f64 = 0.2 - 0.15 / 3.0;
        let got = priorities_from_a(true);
        assert_eq!(got.len(), 2);
        let expect = 0.85 * delta / 0.5;
        assert!((got[0].1 - expect).abs() < 1e-12, "{got:?}");
        // A zero rank at the target gives a huge priority, never inf or NaN.
        assert!(got[1].1.is_finite() && got[1].1 > got[0].1, "{got:?}");
        // Where priorities are not popped, the source's change is passed.
        let plain = priorities_from_a(false);
        assert!(plain.iter().all(|&(_, p)| (p - delta).abs() < 1e-12), "{plain:?}");
    }

    /// Updates to ε = 1e-9 of `engine` under `kind` on `web_graph(3 000, 4,
    /// seed)`, and the result's L1 distance to power iteration.
    fn updates_to_fixpoint(engine: EngineKind, kind: SchedulerKind, seed: u64) -> (u64, f64) {
        let mut g = web_graph(3_000, 4, seed);
        let oracle = exact_pagerank(&g, 0.15, 150);
        init_ranks(&mut g);
        let out = GraphLab::on(&mut g)
            .engine(engine)
            .machines(2)
            .scheduler(kind)
            .run(PageRank { alpha: 0.15, epsilon: 1e-9, dynamic: true });
        let got: Vec<f64> = g.vertices().map(|v| *g.vertex_data(v)).collect();
        (out.metrics.updates, l1_error(&got, &oracle))
    }

    /// `glbench`'s L1 bound on a converged PageRank at ε = 1e-9.
    const L1_BOUND: f64 = 2e-5;

    #[test]
    fn priority_needs_far_fewer_updates_than_fifo_on_the_sequential_engine() {
        let (mut prio, mut fifo) = (0, 0);
        for seed in 1..=4 {
            let arms = [(SchedulerKind::Priority, &mut prio), (SchedulerKind::Fifo, &mut fifo)];
            for (kind, total) in arms {
                let (updates, l1) = updates_to_fixpoint(EngineKind::Sequential, kind, seed);
                assert!(l1 < L1_BOUND, "{kind:?}, seed {seed}: L1 {l1}");
                *total += updates;
            }
        }
        assert!(prio as f64 <= 0.85 * fifo as f64, "priority {prio}, FIFO {fifo}");
    }

    /// The locking engine's count follows the threads' interleaving: a
    /// single run under priority has come out above a FIFO one when other
    /// tests loaded the CPUs, so each graph compares the median of three.
    #[test]
    fn priority_needs_fewer_updates_than_fifo_on_the_locking_engine() {
        let median_of_three = |kind, seed| {
            let mut runs: Vec<u64> = (0..3)
                .map(|_| {
                    let (updates, l1) = updates_to_fixpoint(EngineKind::Locking, kind, seed);
                    assert!(l1 < L1_BOUND, "{kind:?}, seed {seed}: L1 {l1}");
                    updates
                })
                .collect();
            runs.sort_unstable();
            runs[1]
        };
        for seed in 1..=4 {
            let prio = median_of_three(SchedulerKind::Priority, seed);
            let fifo = median_of_three(SchedulerKind::Fifo, seed);
            assert!(prio < fifo, "seed {seed}: priority {prio}, FIFO {fifo}");
        }
    }
}
