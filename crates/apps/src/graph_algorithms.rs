//! Classic graph-analytics update functions: single-source shortest paths
//! and connected components.
//!
//! Not part of the paper's evaluation, but the canonical demonstrations of
//! dynamic scheduling (both converge asymmetrically: most vertices settle
//! after one or two updates while the frontier keeps moving), and the
//! algorithms downstream users of a graph-parallel framework reach for
//! first. Both are *confluent* (unique fixpoint), so they double as
//! serializability test oracles for the engines.

use graphlab_core::{UpdateContext, UpdateFunction};
use graphlab_graph::{DataGraph, EdgeDir, VertexId};

/// SSSP vertex state: current tentative distance (`f64::INFINITY` =
/// unreached).
pub type Distance = f64;

/// Single-source shortest paths over non-negative edge weights.
///
/// Scope semantics: a vertex pulls `min(nbr distance + edge weight)` over
/// in-edges (and out-edges when `undirected`), writes its improved
/// distance, and schedules out-neighbours whose paths may improve —
/// scheduling priority is the size of the improvement.
#[derive(Clone, Debug)]
pub struct Sssp {
    /// Treat every edge as bidirectional.
    pub undirected: bool,
}

impl UpdateFunction<Distance, f64> for Sssp {
    fn update(&self, ctx: &mut UpdateContext<'_, Distance, f64>) {
        let mut best = *ctx.vertex_data();
        for i in 0..ctx.num_neighbors() {
            let usable = self.undirected || ctx.nbr_dir(i) == EdgeDir::In;
            if usable {
                let cand = ctx.nbr_data(i) + ctx.edge_data(i);
                if cand < best {
                    best = cand;
                }
            }
        }
        if best < *ctx.vertex_data() {
            *ctx.vertex_data_mut() = best;
        }
        // Schedule any neighbour whose tentative distance this vertex can
        // still improve (covers the source, whose own distance never
        // changes but whose neighbours must be reached).
        for i in 0..ctx.num_neighbors() {
            let fwd = self.undirected || ctx.nbr_dir(i) == EdgeDir::Out;
            if fwd {
                let gap = *ctx.nbr_data(i) - (best + ctx.edge_data(i));
                if gap > 0.0 {
                    ctx.schedule_nbr(i, gap);
                }
            }
        }
    }
}

/// Initialises distances: 0 at `source`, +∞ elsewhere.
pub fn init_sssp(graph: &mut DataGraph<Distance, f64>, source: VertexId) {
    for i in 0..graph.num_vertices() {
        *graph.vertex_data_mut(VertexId::from(i)) = f64::INFINITY;
    }
    *graph.vertex_data_mut(source) = 0.0;
}

/// Dijkstra reference implementation (test oracle).
pub fn dijkstra(graph: &DataGraph<Distance, f64>, source: VertexId, undirected: bool) -> Vec<f64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = graph.num_vertices();
    let mut dist = vec![f64::INFINITY; n];
    dist[source.index()] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse((ordered_float(0.0), source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        let d = f64::from_bits(d);
        if d > dist[v.index()] {
            continue;
        }
        for e in graph.adj(v) {
            let usable = undirected || e.dir == EdgeDir::Out;
            if usable {
                let nd = d + graph.edge_data(e.edge);
                if nd < dist[e.nbr.index()] {
                    dist[e.nbr.index()] = nd;
                    heap.push(Reverse((ordered_float(nd), e.nbr)));
                }
            }
        }
    }
    dist
}

#[inline]
fn ordered_float(f: f64) -> u64 {
    debug_assert!(f >= 0.0);
    f.to_bits()
}

/// Connected components by label propagation: every vertex adopts the
/// minimum component id in its neighbourhood (ignoring edge direction).
pub struct ConnectedComponents;

impl UpdateFunction<f64, f64> for ConnectedComponents {
    fn update(&self, ctx: &mut UpdateContext<'_, f64, f64>) {
        let mut best = *ctx.vertex_data();
        for i in 0..ctx.num_neighbors() {
            best = best.min(*ctx.nbr_data(i));
        }
        if best < *ctx.vertex_data() {
            *ctx.vertex_data_mut() = best;
            for i in 0..ctx.num_neighbors() {
                ctx.schedule_nbr(i, 1.0);
            }
        }
    }
}

/// Initialises component ids to the vertex id.
pub fn init_components(graph: &mut DataGraph<f64, f64>) {
    for i in 0..graph.num_vertices() {
        *graph.vertex_data_mut(VertexId::from(i)) = i as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlab_core::{GraphLab, InitialSchedule, SchedulerKind};
    use graphlab_graph::GraphBuilder;

    fn weighted_graph() -> DataGraph<f64, f64> {
        // 0 →1→ 1 →2→ 2 ; 0 →10→ 2 ; 2 →1→ 3
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..4).map(|_| b.add_vertex(0.0)).collect();
        b.add_edge(v[0], v[1], 1.0).unwrap();
        b.add_edge(v[1], v[2], 2.0).unwrap();
        b.add_edge(v[0], v[2], 10.0).unwrap();
        b.add_edge(v[2], v[3], 1.0).unwrap();
        b.build()
    }

    #[test]
    fn sssp_matches_dijkstra_directed() {
        let mut g = weighted_graph();
        init_sssp(&mut g, VertexId(0));
        let oracle = dijkstra(&g, VertexId(0), false);
        GraphLab::on(&mut g)
            .scheduler(SchedulerKind::Priority)
            .initial(InitialSchedule::Vertices(vec![(VertexId(0), 1.0)]))
            .run(Sssp { undirected: false });
        for v in g.vertices() {
            assert_eq!(*g.vertex_data(v), oracle[v.index()], "vertex {v}");
        }
        assert_eq!(*g.vertex_data(VertexId(3)), 4.0);
    }

    #[test]
    fn sssp_matches_dijkstra_on_random_graphs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        for trial in 0..10 {
            let n = 30usize;
            let mut b = GraphBuilder::new();
            let vs: Vec<_> = (0..n).map(|_| b.add_vertex(0.0)).collect();
            for _ in 0..80 {
                let s = rng.random_range(0..n);
                let d = rng.random_range(0..n);
                if s != d {
                    b.add_edge(vs[s], vs[d], rng.random_range(1..20) as f64).unwrap();
                }
            }
            let mut g = b.build();
            init_sssp(&mut g, VertexId(0));
            let oracle = dijkstra(&g, VertexId(0), true);
            GraphLab::on(&mut g)
                .initial(InitialSchedule::Vertices(vec![(VertexId(0), 1.0)]))
                .run(Sssp { undirected: true });
            for v in g.vertices() {
                assert_eq!(*g.vertex_data(v), oracle[v.index()], "trial {trial} vertex {v}");
            }
        }
    }

    /// SSSP schedules an unreached neighbour with priority `+inf` (the gap
    /// to an infinite distance), which is also the locking engine's
    /// snapshot-task sentinel: the task must reach the scheduler all the
    /// same, on the owner's machine and across the cut.
    #[test]
    fn sssp_on_the_locking_engine_crosses_infinite_gaps() {
        use graphlab_core::EngineKind;
        for machines in [1, 2] {
            let mut b = GraphBuilder::new();
            let v: Vec<_> = (0..6).map(|_| b.add_vertex(0.0)).collect();
            for w in v.windows(2) {
                b.add_edge(w[0], w[1], 1.0).unwrap();
            }
            let mut g = b.build();
            init_sssp(&mut g, VertexId(0));
            GraphLab::on(&mut g)
                .engine(EngineKind::Locking)
                .machines(machines)
                .scheduler(SchedulerKind::Priority)
                .initial(InitialSchedule::Vertices(vec![(VertexId(0), 1.0)]))
                .run(Sssp { undirected: false });
            let dist: Vec<f64> = g.vertices().map(|v| *g.vertex_data(v)).collect();
            assert_eq!(dist, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0], "{machines} machine(s)");
        }
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(0.0);
        let _lone = b.add_vertex(0.0);
        let c = b.add_vertex(0.0);
        b.add_edge(a, c, 2.0).unwrap();
        let mut g = b.build();
        init_sssp(&mut g, VertexId(0));
        GraphLab::on(&mut g).run(Sssp { undirected: false });
        assert_eq!(*g.vertex_data(VertexId(1)), f64::INFINITY);
        assert_eq!(*g.vertex_data(VertexId(2)), 2.0);
    }

    #[test]
    fn connected_components_two_islands() {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..6).map(|_| b.add_vertex(0.0)).collect();
        // island {0,1,2}, island {3,4,5}
        b.add_edge(vs[0], vs[1], 0.0).unwrap();
        b.add_edge(vs[1], vs[2], 0.0).unwrap();
        b.add_edge(vs[3], vs[4], 0.0).unwrap();
        b.add_edge(vs[4], vs[5], 0.0).unwrap();
        let mut g = b.build();
        init_components(&mut g);
        GraphLab::on(&mut g).run(ConnectedComponents);
        for i in 0..3u32 {
            assert_eq!(*g.vertex_data(VertexId(i)), 0.0);
        }
        for i in 3..6u32 {
            assert_eq!(*g.vertex_data(VertexId(i)), 3.0);
        }
    }
}
