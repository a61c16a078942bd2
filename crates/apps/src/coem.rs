//! CoEM label propagation for named entity recognition (§5.3).
//!
//! The data graph is bipartite: noun-phrase vertices on one side, context
//! vertices on the other, an edge wherever a noun-phrase occurred in a
//! context, weighted by the co-occurrence count. Starting from a small
//! seed set of pre-labelled noun-phrases, CoEM alternates between
//! estimating the type distribution of each noun-phrase from its contexts
//! and each context from its noun-phrases — which in GraphLab is a single
//! update function: new distribution = count-weighted average of
//! neighbour distributions.
//!
//! Vertex data is deliberately large (the paper's NER vertices are 816
//! bytes: a dense distribution over types) — this is what makes NER the
//! communication-bound worst case of the evaluation (Fig. 6(b)).

use graphlab_core::{UpdateContext, UpdateFunction};
use graphlab_graph::DataGraph;

/// A noun-phrase or context vertex.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct CoemVertex {
    /// Estimated distribution over entity types.
    pub dist: Vec<f64>,
    /// Seed vertices keep their label fixed.
    pub seed: bool,
}

impl CoemVertex {
    /// Unlabelled vertex: uniform over `k` types.
    pub fn unlabeled(k: usize) -> Self {
        CoemVertex { dist: vec![1.0 / k as f64; k], seed: false }
    }

    /// Seed vertex pinned to `label`.
    pub fn seed(k: usize, label: usize) -> Self {
        let mut dist = vec![0.0; k];
        dist[label] = 1.0;
        CoemVertex { dist, seed: true }
    }

    /// Most likely type.
    pub fn argmax(&self) -> usize {
        self.dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

graphlab_net::codec_fields! { CoemVertex { dist, seed } }

/// The CoEM update function.
#[derive(Clone, Debug)]
pub struct Coem {
    /// Number of entity types.
    pub types: usize,
    /// L1-change threshold for rescheduling neighbours.
    pub epsilon: f64,
    /// Dynamic scheduling on/off.
    pub dynamic: bool,
}

impl Default for Coem {
    fn default() -> Self {
        Coem { types: 4, epsilon: 1e-4, dynamic: true }
    }
}

impl UpdateFunction<CoemVertex, f64> for Coem {
    fn update(&self, ctx: &mut UpdateContext<'_, CoemVertex, f64>) {
        if ctx.vertex_data().seed {
            return;
        }
        let deg = ctx.num_neighbors();
        if deg == 0 {
            return;
        }
        let mut dist = vec![0.0; self.types];
        let mut total_w = 0.0;
        for i in 0..deg {
            let w = *ctx.edge_data(i);
            total_w += w;
            for (d, n) in dist.iter_mut().zip(&ctx.nbr_data(i).dist) {
                *d += w * n;
            }
        }
        if total_w <= 0.0 {
            return;
        }
        for d in dist.iter_mut() {
            *d /= total_w;
        }
        let change: f64 =
            dist.iter().zip(&ctx.vertex_data().dist).map(|(a, b)| (a - b).abs()).sum();
        ctx.vertex_data_mut().dist = dist;
        if self.dynamic && change > self.epsilon {
            for i in 0..deg {
                ctx.schedule_nbr(i, change);
            }
        }
    }
}

/// Classification accuracy against ground-truth labels (`usize::MAX`
/// entries are skipped).
pub fn accuracy(graph: &DataGraph<CoemVertex, f64>, truth: &[usize]) -> f64 {
    let mut correct = 0usize;
    let mut counted = 0usize;
    for v in graph.vertices() {
        let t = truth[v.index()];
        if t == usize::MAX {
            continue;
        }
        counted += 1;
        if graph.vertex_data(v).argmax() == t {
            correct += 1;
        }
    }
    if counted == 0 {
        return 1.0;
    }
    correct as f64 / counted as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlab_core::GraphLab;
    use graphlab_graph::GraphBuilder;

    /// Two planted clusters: NPs 0..3 of type 0 (seeded at 0), NPs 4..7 of
    /// type 1 (seeded at 4); contexts connect within clusters.
    fn planted() -> (DataGraph<CoemVertex, f64>, Vec<usize>) {
        let mut b = GraphBuilder::new();
        let k = 2;
        let mut truth = Vec::new();
        // noun phrases
        let nps: Vec<_> = (0..8)
            .map(|i| {
                let t = if i < 4 { 0 } else { 1 };
                truth.push(t);
                if i == 0 || i == 4 {
                    b.add_vertex(CoemVertex::seed(k, t))
                } else {
                    b.add_vertex(CoemVertex::unlabeled(k))
                }
            })
            .collect();
        // contexts: 4 per cluster
        let mut ctxs = Vec::new();
        for c in 0..8 {
            let t = if c < 4 { 0 } else { 1 };
            truth.push(t);
            ctxs.push(b.add_vertex(CoemVertex::unlabeled(k)));
        }
        for (c, &ctx) in ctxs.iter().enumerate().take(8) {
            let cluster = if c < 4 { 0..4 } else { 4..8 };
            for np in cluster {
                b.add_edge(nps[np], ctx, 1.0 + (np % 3) as f64).unwrap();
            }
        }
        (b.build(), truth)
    }

    #[test]
    fn codec_roundtrip() {
        let v = CoemVertex::seed(4, 2);
        let enc = graphlab_net::codec::encode_to_bytes(&v);
        assert_eq!(graphlab_net::codec::decode_from::<CoemVertex>(enc), Some(v));
    }

    #[test]
    fn seeds_propagate_to_clusters() {
        let (mut g, truth) = planted();
        let coem = Coem { types: 2, epsilon: 1e-8, dynamic: true };
        GraphLab::on(&mut g).max_updates(50_000).run(coem);
        assert_eq!(accuracy(&g, &truth), 1.0);
    }

    #[test]
    fn seed_vertices_never_change() {
        let (mut g, _) = planted();
        let coem = Coem { types: 2, epsilon: 1e-8, dynamic: true };
        GraphLab::on(&mut g).max_updates(50_000).run(coem);
        assert_eq!(g.vertex_data(graphlab_graph::VertexId(0)).dist, vec![1.0, 0.0]);
        assert_eq!(g.vertex_data(graphlab_graph::VertexId(4)).dist, vec![0.0, 1.0]);
    }

    #[test]
    fn distributions_stay_normalized() {
        let (mut g, _) = planted();
        let coem = Coem { types: 2, epsilon: 1e-8, dynamic: true };
        GraphLab::on(&mut g).max_updates(50_000).run(coem);
        for v in g.vertices() {
            let s: f64 = g.vertex_data(v).dist.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "vertex {v} sums to {s}");
        }
    }

    #[test]
    fn accuracy_skips_unknown_truth() {
        let (g, mut truth) = planted();
        truth[1] = usize::MAX;
        let a = accuracy(&g, &truth);
        assert!((0.0..=1.0).contains(&a));
    }
}
