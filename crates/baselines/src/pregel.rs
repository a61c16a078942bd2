//! A Pregel-style bulk-synchronous vertex-centric engine (Malewicz et al.,
//! SIGMOD 2010) — the "Sync (Pregel)" baseline of Fig. 1(a), 1(c), 9(a).
//!
//! Computation proceeds in *supersteps*: every active vertex receives the
//! messages sent to it in the previous superstep, updates its value, sends
//! messages along its edges, and may vote to halt; a halted vertex is
//! reactivated by incoming messages. Unlike GraphLab there is no shared
//! state — a vertex sees **only its messages** — which is exactly the
//! limitation the paper discusses (no pull model, values must be pushed to
//! all neighbours every superstep, `O(|E|)` message state).
//!
//! The engine is multi-threaded (vertices sharded over workers per
//! superstep) and counts encoded message bytes.

use std::time::{Duration, Instant};

use bytes::BytesMut;
use graphlab_graph::{DataGraph, EdgeDir, VertexId};
use graphlab_net::codec::Codec;

/// Configuration.
#[derive(Clone, Copy, Debug)]
pub struct PregelConfig {
    /// Worker threads.
    pub workers: usize,
    /// Hard superstep cap (0 = until global halt).
    pub max_supersteps: u64,
}

impl Default for PregelConfig {
    fn default() -> Self {
        PregelConfig { workers: 4, max_supersteps: 0 }
    }
}

/// Run statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PregelStats {
    /// Supersteps executed.
    pub supersteps: u64,
    /// Vertex-program invocations (the BSP "updates").
    pub updates: u64,
    /// Messages sent.
    pub messages: u64,
    /// Encoded message bytes.
    pub message_bytes: u64,
    /// Wall time.
    pub runtime: Duration,
}

/// Per-vertex context handed to [`VertexProgram::compute`].
pub struct PregelContext<'a, V, E, M> {
    vertex: VertexId,
    value: &'a mut V,
    messages: &'a [M],
    /// `(neighbour, edge data ref, direction)` of every incident edge.
    edges: &'a [(VertexId, &'a E, EdgeDir)],
    outbox: &'a mut Vec<(VertexId, M)>,
    halt: &'a mut bool,
    superstep: u64,
    num_vertices: u64,
}

impl<V, E, M> PregelContext<'_, V, E, M> {
    /// This vertex.
    pub fn vertex(&self) -> VertexId {
        self.vertex
    }
    /// Current superstep (0-based).
    pub fn superstep(&self) -> u64 {
        self.superstep
    }
    /// |V|.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }
    /// Messages delivered this superstep.
    pub fn messages(&self) -> &[M] {
        self.messages
    }
    /// Vertex value (read).
    pub fn value(&self) -> &V {
        self.value
    }
    /// Vertex value (write).
    pub fn value_mut(&mut self) -> &mut V {
        self.value
    }
    /// Incident edges `(neighbour, edge data, direction)`.
    pub fn edges(&self) -> &[(VertexId, &E, EdgeDir)] {
        self.edges
    }
    /// Sends `msg` to `dst` (delivered next superstep).
    pub fn send(&mut self, dst: VertexId, msg: M) {
        self.outbox.push((dst, msg));
    }
    /// Votes to halt; the vertex stays inactive until a message arrives.
    pub fn vote_to_halt(&mut self) {
        *self.halt = true;
    }
}

/// A Pregel vertex program.
pub trait VertexProgram<V, E, M>: Send + Sync {
    /// One superstep of computation on one vertex.
    fn compute(&self, ctx: &mut PregelContext<'_, V, E, M>);
}

/// The BSP engine.
pub struct PregelEngine {
    cfg: PregelConfig,
}

impl PregelEngine {
    /// New engine.
    pub fn new(cfg: PregelConfig) -> Self {
        PregelEngine { cfg }
    }

    /// Runs `program` on `graph` until every vertex halts with no messages
    /// in flight (or the superstep cap). `on_superstep` is invoked after
    /// every superstep with the current values (for convergence traces).
    pub fn run<V, E, M, P>(
        &self,
        graph: &mut DataGraph<V, E>,
        program: &P,
        mut on_superstep: impl FnMut(u64, &[V]),
    ) -> PregelStats
    where
        V: Clone + Send + Sync,
        E: Send + Sync,
        M: Codec + Clone + Send + Sync,
        P: VertexProgram<V, E, M>,
    {
        let start = Instant::now();
        let n = graph.num_vertices();
        let mut values: Vec<V> = graph.vertices().map(|v| graph.vertex_data(v).clone()).collect();
        let mut active = vec![true; n];
        let mut inboxes: Vec<Vec<M>> = (0..n).map(|_| Vec::new()).collect();
        let mut stats = PregelStats::default();

        loop {
            if self.cfg.max_supersteps > 0 && stats.supersteps >= self.cfg.max_supersteps {
                break;
            }
            let any_work = active.iter().any(|&a| a) || inboxes.iter().any(|i| !i.is_empty());
            if !any_work {
                break;
            }

            let inbox_taken: Vec<Vec<M>> = inboxes.iter_mut().map(std::mem::take).collect();
            let workers = self.cfg.workers.max(1);
            let chunk = n.div_ceil(workers).max(1);

            // Shard vertices over workers; each worker returns its outbox
            // and the updated (value, halted) pairs for its shard.
            struct ShardResult<V, M> {
                base: usize,
                values: Vec<V>,
                halted: Vec<bool>,
                ran: u64,
                outbox: Vec<(VertexId, M)>,
            }
            let values_ref = &values;
            let active_ref = &active;
            let inbox_ref = &inbox_taken;
            let graph_ref: &DataGraph<V, E> = graph;
            let superstep = stats.supersteps;
            let mut shard_results: Vec<ShardResult<V, M>> = Vec::new();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .step_by(chunk)
                    .map(|base| {
                        let hi = (base + chunk).min(n);
                        s.spawn(move || {
                            let mut out = ShardResult {
                                base,
                                values: Vec::with_capacity(hi - base),
                                halted: Vec::with_capacity(hi - base),
                                ran: 0,
                                outbox: Vec::new(),
                            };
                            for vi in base..hi {
                                let vid = VertexId::from(vi);
                                let msgs = &inbox_ref[vi];
                                let runs = active_ref[vi] || !msgs.is_empty();
                                let mut value = values_ref[vi].clone();
                                let mut halt = false;
                                if runs {
                                    let edges: Vec<(VertexId, &E, EdgeDir)> = graph_ref
                                        .adj(vid)
                                        .iter()
                                        .map(|e| (e.nbr, graph_ref.edge_data(e.edge), e.dir))
                                        .collect();
                                    let mut ctx = PregelContext {
                                        vertex: vid,
                                        value: &mut value,
                                        messages: msgs,
                                        edges: &edges,
                                        outbox: &mut out.outbox,
                                        halt: &mut halt,
                                        superstep,
                                        num_vertices: n as u64,
                                    };
                                    program.compute(&mut ctx);
                                    out.ran += 1;
                                }
                                out.values.push(value);
                                out.halted.push(if runs { halt } else { true });
                            }
                            out
                        })
                    })
                    .collect();
                for h in handles {
                    shard_results.push(h.join().expect("pregel shard"));
                }
            });

            let mut scratch = BytesMut::new();
            for shard in shard_results {
                for (i, v) in shard.values.into_iter().enumerate() {
                    values[shard.base + i] = v;
                }
                for (i, h) in shard.halted.into_iter().enumerate() {
                    active[shard.base + i] = !h;
                }
                stats.updates += shard.ran;
                for (dst, msg) in shard.outbox {
                    scratch.clear();
                    msg.encode(&mut scratch);
                    stats.messages += 1;
                    stats.message_bytes += (scratch.len() + 4) as u64;
                    inboxes[dst.index()].push(msg);
                }
            }
            stats.supersteps += 1;
            on_superstep(stats.supersteps, &values);
        }

        for (i, v) in values.into_iter().enumerate() {
            *graph.vertex_data_mut(VertexId::from(i)) = v;
        }
        stats.runtime = start.elapsed();
        stats
    }
}

/// Synchronous PageRank as a Pregel program (messages = rank
/// contributions).
pub struct PregelPageRank {
    /// Teleport probability.
    pub alpha: f64,
    /// Halt when the rank change is below this.
    pub epsilon: f64,
}

impl VertexProgram<f64, f64, f64> for PregelPageRank {
    fn compute(&self, ctx: &mut PregelContext<'_, f64, f64, f64>) {
        if ctx.superstep() > 0 {
            let n = ctx.num_vertices() as f64;
            let sum: f64 = ctx.messages().iter().sum();
            let new = self.alpha / n + (1.0 - self.alpha) * sum;
            let delta = (new - *ctx.value()).abs();
            *ctx.value_mut() = new;
            if delta < self.epsilon {
                ctx.vote_to_halt();
            }
        }
        // Push rank mass along out-edges — every superstep, to every
        // neighbour (the O(|E|) data movement GraphLab avoids).
        let rank = *ctx.value();
        let sends: Vec<(VertexId, f64)> = ctx
            .edges()
            .iter()
            .filter(|(_, _, d)| *d == EdgeDir::Out)
            .map(|(nbr, w, _)| (*nbr, **w * rank))
            .collect();
        for (dst, m) in sends {
            ctx.send(dst, m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlab_apps::pagerank::{exact_pagerank, l1_error};
    use graphlab_workloads::web_graph;

    #[test]
    fn pregel_pagerank_matches_power_iteration() {
        let mut g = web_graph(150, 4, 1);
        let oracle = exact_pagerank(&g, 0.15, 30);
        let engine = PregelEngine::new(PregelConfig { workers: 3, max_supersteps: 31 });
        let stats = engine.run(
            &mut g,
            &PregelPageRank { alpha: 0.15, epsilon: 0.0 },
            |_, _| {},
        );
        let got: Vec<f64> = g.vertices().map(|v| *g.vertex_data(v)).collect();
        assert!(l1_error(&got, &oracle) < 1e-9, "err {}", l1_error(&got, &oracle));
        assert_eq!(stats.supersteps, 31);
        assert!(stats.messages > 0);
    }

    #[test]
    fn halt_voting_terminates_run() {
        let mut g = web_graph(100, 3, 2);
        let engine = PregelEngine::new(PregelConfig { workers: 2, max_supersteps: 0 });
        let stats = engine.run(
            &mut g,
            &PregelPageRank { alpha: 0.15, epsilon: 1e-4 },
            |_, _| {},
        );
        assert!(stats.supersteps > 2);
        assert!(stats.supersteps < 200, "converged via halt votes");
    }

    #[test]
    fn superstep_callback_sees_progress() {
        let mut g = web_graph(50, 3, 3);
        let engine = PregelEngine::new(PregelConfig { workers: 2, max_supersteps: 5 });
        let mut steps = Vec::new();
        engine.run(
            &mut g,
            &PregelPageRank { alpha: 0.15, epsilon: 0.0 },
            |s, values| steps.push((s, values.iter().sum::<f64>())),
        );
        assert_eq!(steps.len(), 5);
        assert!(steps.iter().all(|&(_, sum)| sum > 0.0));
    }

    #[test]
    fn message_bytes_counted() {
        let mut g = web_graph(60, 3, 4);
        let engine = PregelEngine::new(PregelConfig { workers: 2, max_supersteps: 3 });
        let stats = engine.run(
            &mut g,
            &PregelPageRank { alpha: 0.15, epsilon: 0.0 },
            |_, _| {},
        );
        assert_eq!(stats.message_bytes, stats.messages * 12);
    }
}
