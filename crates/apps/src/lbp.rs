//! Loopy belief propagation on pairwise Markov random fields.
//!
//! Used three ways in the paper: the synthetic 3D-mesh experiment driving
//! the locking-engine evaluation (§4.2.2, Fig. 3), the web-spam convergence
//! study (Fig. 1(c)), and the smoothing half of video co-segmentation
//! (§5.2). Vertex data holds the node prior and current belief; edge data
//! holds the two directed messages, so an update owns everything it writes
//! under the edge consistency model.
//!
//! The update recomputes all outgoing messages of a vertex from its prior
//! and incoming messages (sum-product with a Potts/smoothness pairwise
//! potential) and schedules a neighbour with the *residual* (L1 change of
//! the message sent to it) — residual BP [Elidan et al.], the paper's
//! state-of-the-art adaptive schedule for CoSeg.

use graphlab_core::{UpdateContext, UpdateFunction};
use graphlab_graph::{DataGraph, EdgeDir};

/// Vertex state: prior (unnormalised likelihood) and posterior belief over
/// `K` labels.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct BpVertex {
    /// Node potential φ_v (unnormalised).
    pub prior: Vec<f64>,
    /// Current belief estimate (normalised).
    pub belief: Vec<f64>,
}

impl BpVertex {
    /// Uniform-prior vertex over `k` labels.
    pub fn uniform(k: usize) -> Self {
        BpVertex { prior: vec![1.0; k], belief: vec![1.0 / k as f64; k] }
    }

    /// Vertex with the given prior (normalised into the belief too).
    pub fn with_prior(prior: Vec<f64>) -> Self {
        let sum: f64 = prior.iter().sum();
        let belief = prior.iter().map(|p| p / sum).collect();
        BpVertex { prior, belief }
    }

    /// The maximum a-posteriori label.
    pub fn map_label(&self) -> usize {
        self.belief
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite belief"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

graphlab_net::codec_fields! { BpVertex { prior, belief } }

/// Edge state: the two directed messages (normalised distributions).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct BpEdge {
    /// Message source → target.
    pub msg_fwd: Vec<f64>,
    /// Message target → source.
    pub msg_rev: Vec<f64>,
}

impl BpEdge {
    /// Uniform messages over `k` labels.
    pub fn uniform(k: usize) -> Self {
        BpEdge { msg_fwd: vec![1.0 / k as f64; k], msg_rev: vec![1.0 / k as f64; k] }
    }
}

graphlab_net::codec_fields! { BpEdge { msg_fwd, msg_rev } }

/// The loopy BP update function with residual scheduling.
#[derive(Clone, Debug)]
pub struct LoopyBp {
    /// Number of labels `K`.
    pub labels: usize,
    /// Potts smoothing strength: ψ(x, y) = `smoothing` if x == y else 1.
    /// Values > 1 favour agreement.
    pub smoothing: f64,
    /// Residual threshold below which neighbours are not rescheduled.
    pub epsilon: f64,
    /// Dynamic (residual) scheduling on/off — off reproduces the
    /// synchronous sweep baselines of Fig. 1(c).
    pub dynamic: bool,
    /// Message damping in `[0, 1)`; 0 = undamped.
    pub damping: f64,
}

impl Default for LoopyBp {
    fn default() -> Self {
        LoopyBp { labels: 2, smoothing: 2.0, epsilon: 1e-5, dynamic: true, damping: 0.0 }
    }
}

impl LoopyBp {
    fn convolve(&self, inbound: &[f64]) -> Vec<f64> {
        // out(y) = Σ_x ψ(x, y) inbound(x), Potts ψ.
        let total: f64 = inbound.iter().sum();
        inbound
            .iter()
            .map(|&px| total - px + self.smoothing * px)
            .collect()
    }
}

fn normalize(v: &mut [f64]) {
    let s: f64 = v.iter().sum();
    if s > 0.0 {
        for x in v.iter_mut() {
            *x /= s;
        }
    } else {
        let u = 1.0 / v.len() as f64;
        for x in v.iter_mut() {
            *x = u;
        }
    }
}

impl UpdateFunction<BpVertex, BpEdge> for LoopyBp {
    fn update(&self, ctx: &mut UpdateContext<'_, BpVertex, BpEdge>) {
        let k = self.labels;
        let deg = ctx.num_neighbors();

        // Belief: prior × product of incoming messages.
        let mut belief = ctx.vertex_data().prior.clone();
        debug_assert_eq!(belief.len(), k);
        for i in 0..deg {
            let e = ctx.edge_data(i);
            let incoming = if ctx.nbr_dir(i) == EdgeDir::In { &e.msg_fwd } else { &e.msg_rev };
            for (b, m) in belief.iter_mut().zip(incoming) {
                *b *= m;
            }
        }
        normalize(&mut belief);
        ctx.vertex_data_mut().belief = belief.clone();

        // Outgoing messages: cavity = belief / incoming, convolved with ψ.
        for i in 0..deg {
            let (incoming, old_out): (Vec<f64>, Vec<f64>) = {
                let e = ctx.edge_data(i);
                if ctx.nbr_dir(i) == EdgeDir::In {
                    (e.msg_fwd.clone(), e.msg_rev.clone())
                } else {
                    (e.msg_rev.clone(), e.msg_fwd.clone())
                }
            };
            let mut cavity: Vec<f64> = belief
                .iter()
                .zip(&incoming)
                .map(|(&b, &m)| if m > 1e-300 { b / m } else { 0.0 })
                .collect();
            normalize(&mut cavity);
            let mut out = self.convolve(&cavity);
            normalize(&mut out);
            if self.damping > 0.0 {
                for (o, old) in out.iter_mut().zip(&old_out) {
                    *o = (1.0 - self.damping) * *o + self.damping * old;
                }
                normalize(&mut out);
            }
            let residual: f64 = out.iter().zip(&old_out).map(|(a, b)| (a - b).abs()).sum();
            {
                let inbound = ctx.nbr_dir(i) == EdgeDir::In;
                let e = ctx.edge_data_mut(i);
                if inbound {
                    e.msg_rev = out;
                } else {
                    e.msg_fwd = out;
                }
            }
            if self.dynamic && residual > self.epsilon {
                ctx.schedule_nbr(i, residual);
            }
        }
    }
}

/// Total L1 message residual from a fresh sweep — the "Residual" y-axis of
/// Fig. 1(c). Computes, for every directed message, how much one more BP
/// step would change it, and sums.
pub fn total_residual(graph: &DataGraph<BpVertex, BpEdge>, params: &LoopyBp) -> f64 {
    let mut total = 0.0;
    for v in graph.vertices() {
        // Recompute belief.
        let mut belief = graph.vertex_data(v).prior.clone();
        for e in graph.adj(v) {
            let ed = graph.edge_data(e.edge);
            let incoming = if e.dir == EdgeDir::In { &ed.msg_fwd } else { &ed.msg_rev };
            for (b, m) in belief.iter_mut().zip(incoming) {
                *b *= m;
            }
        }
        normalize(&mut belief);
        for e in graph.adj(v) {
            let ed = graph.edge_data(e.edge);
            let (incoming, old_out) =
                if e.dir == EdgeDir::In { (&ed.msg_fwd, &ed.msg_rev) } else { (&ed.msg_rev, &ed.msg_fwd) };
            let mut cavity: Vec<f64> = belief
                .iter()
                .zip(incoming)
                .map(|(&b, &m)| if m > 1e-300 { b / m } else { 0.0 })
                .collect();
            normalize(&mut cavity);
            let mut out = params.convolve(&cavity);
            normalize(&mut out);
            total += out.iter().zip(old_out).map(|(a, b)| (a - b).abs()).sum::<f64>();
        }
    }
    total
}

/// Exact marginals of a chain MRF by brute-force enumeration (test oracle;
/// BP is exact on trees).
pub fn chain_exact_marginals(priors: &[Vec<f64>], smoothing: f64) -> Vec<Vec<f64>> {
    let n = priors.len();
    let k = priors[0].len();
    let mut marginals = vec![vec![0.0; k]; n];
    let mut assignment = vec![0usize; n];
    loop {
        let mut w = 1.0;
        for (i, &a) in assignment.iter().enumerate() {
            w *= priors[i][a];
            if i + 1 < n {
                w *= if assignment[i] == assignment[i + 1] { smoothing } else { 1.0 };
            }
        }
        for (i, &a) in assignment.iter().enumerate() {
            marginals[i][a] += w;
        }
        // Next assignment (odometer).
        let mut pos = 0;
        loop {
            if pos == n {
                for m in marginals.iter_mut() {
                    normalize(m);
                }
                return marginals;
            }
            assignment[pos] += 1;
            if assignment[pos] < k {
                break;
            }
            assignment[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlab_core::{GraphLab, SchedulerKind};
    use graphlab_graph::GraphBuilder;

    fn chain(priors: &[Vec<f64>]) -> DataGraph<BpVertex, BpEdge> {
        let k = priors[0].len();
        let mut b = GraphBuilder::new();
        let vs: Vec<_> =
            priors.iter().map(|p| b.add_vertex(BpVertex::with_prior(p.clone()))).collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], BpEdge::uniform(k)).unwrap();
        }
        b.build()
    }

    #[test]
    fn codec_roundtrips() {
        let v = BpVertex::with_prior(vec![0.3, 0.7]);
        let enc = graphlab_net::codec::encode_to_bytes(&v);
        assert_eq!(graphlab_net::codec::decode_from::<BpVertex>(enc), Some(v));
        let e = BpEdge::uniform(3);
        let enc = graphlab_net::codec::encode_to_bytes(&e);
        assert_eq!(graphlab_net::codec::decode_from::<BpEdge>(enc), Some(e));
    }

    #[test]
    fn bp_exact_on_chain() {
        let priors = vec![
            vec![0.9, 0.1],
            vec![0.5, 0.5],
            vec![0.2, 0.8],
            vec![0.5, 0.5],
            vec![0.6, 0.4],
        ];
        let exact = chain_exact_marginals(&priors, 2.0);
        let mut g = chain(&priors);
        let bp = LoopyBp { labels: 2, smoothing: 2.0, epsilon: 1e-10, dynamic: true, damping: 0.0 };
        GraphLab::on(&mut g).max_updates(10_000).run(bp);
        for (i, v) in g.vertices().enumerate() {
            let belief = &g.vertex_data(v).belief;
            for (a, b) in belief.iter().zip(&exact[i]) {
                assert!((a - b).abs() < 1e-6, "vertex {i}: {belief:?} vs {:?}", exact[i]);
            }
        }
    }

    #[test]
    fn residual_decreases_to_zero() {
        let priors: Vec<Vec<f64>> =
            (0..8).map(|i| vec![1.0 + (i % 3) as f64, 1.0 + ((i + 1) % 2) as f64]).collect();
        let mut g = chain(&priors);
        let bp = LoopyBp { labels: 2, smoothing: 1.5, epsilon: 1e-9, dynamic: true, damping: 0.0 };
        let before = total_residual(&g, &bp);
        GraphLab::on(&mut g).max_updates(10_000).run(bp.clone());
        let after = total_residual(&g, &bp);
        assert!(before > 1e-3);
        assert!(after < 1e-7, "residual after convergence: {after}");
    }

    #[test]
    fn map_label_picks_argmax() {
        let v = BpVertex { prior: vec![1.0, 1.0], belief: vec![0.3, 0.7] };
        assert_eq!(v.map_label(), 1);
    }

    #[test]
    fn priority_scheduling_converges() {
        let priors: Vec<Vec<f64>> = (0..10).map(|i| vec![1.0 + i as f64 * 0.1, 1.0]).collect();
        let mut g = chain(&priors);
        let bp = LoopyBp::default();
        GraphLab::on(&mut g)
            .scheduler(SchedulerKind::Priority)
            .max_updates(10_000)
            .run(bp.clone());
        assert!(total_residual(&g, &bp) < 1e-4);
    }

    #[test]
    fn smoothing_pulls_towards_agreement() {
        // Strong prior on one end, uniform elsewhere; smoothing propagates it.
        let mut priors = vec![vec![10.0, 1.0]];
        priors.extend((0..4).map(|_| vec![1.0, 1.0]));
        let mut g = chain(&priors);
        let bp = LoopyBp { labels: 2, smoothing: 3.0, epsilon: 1e-10, dynamic: true, damping: 0.0 };
        GraphLab::on(&mut g).max_updates(10_000).run(bp);
        for v in g.vertices() {
            assert_eq!(g.vertex_data(v).map_label(), 0, "label at {v}");
        }
    }
}
