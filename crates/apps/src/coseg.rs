//! Video co-segmentation (§5.2).
//!
//! Frames are coarsened to a grid of super-pixels carrying colour/texture
//! statistics (here a scalar feature); super-pixels are connected in space
//! and time into a large 3D grid. Segmentation labels are inferred with
//! loopy BP whose node potentials come from a Gaussian mixture model —
//! jointly estimated through the sync operation ([`crate::gmm::GmmSync`]),
//! forming an EM loop.
//!
//! The update function (a) refreshes the vertex prior from the current
//! GMM globals, (b) runs the residual-BP message update, and (c)
//! reschedules neighbours by residual — exactly the state-of-the-art
//! adaptive schedule the paper deploys on the locking engine with the
//! approximate priority scheduler.

use graphlab_core::{UpdateContext, UpdateFunction};
use graphlab_graph::EdgeDir;

use crate::gmm::{GmmSync, GMM_GLOBAL};
use crate::lbp::BpEdge;

/// A super-pixel vertex.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct CosegVertex {
    /// Observed colour/texture statistic of the super-pixel.
    pub feature: f64,
    /// Node potential (GMM likelihoods, refreshed from globals).
    pub prior: Vec<f64>,
    /// Current belief over segmentation labels.
    pub belief: Vec<f64>,
}

impl CosegVertex {
    /// New super-pixel over `k` labels.
    ///
    /// The initial belief is softly binned by the feature value (component
    /// `k` is centred at `(k + 0.5)/K`): without this symmetry breaking the
    /// EM loop starts with identical mixture components and can never
    /// separate them.
    pub fn new(feature: f64, k: usize) -> Self {
        let mut belief: Vec<f64> = (0..k)
            .map(|i| {
                let center = (i as f64 + 0.5) / k as f64;
                let d = feature - center;
                (-d * d / 0.05).exp().max(1e-6)
            })
            .collect();
        let s: f64 = belief.iter().sum();
        for b in belief.iter_mut() {
            *b /= s;
        }
        CosegVertex { feature, prior: vec![1.0; k], belief }
    }

    /// MAP segmentation label.
    pub fn map_label(&self) -> usize {
        self.belief
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

graphlab_net::codec_fields! { CosegVertex { feature, prior, belief } }

/// The CoSeg update function: GMM-prior refresh + residual BP step.
#[derive(Clone, Debug)]
pub struct CosegUpdate {
    /// Number of segmentation labels.
    pub labels: usize,
    /// Potts smoothing strength (spatial/temporal coherence).
    pub smoothing: f64,
    /// Residual threshold for rescheduling.
    pub epsilon: f64,
}

impl Default for CosegUpdate {
    fn default() -> Self {
        CosegUpdate { labels: 2, smoothing: 2.0, epsilon: 1e-4 }
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

impl UpdateFunction<CosegVertex, BpEdge> for CosegUpdate {
    fn update(&self, ctx: &mut UpdateContext<'_, CosegVertex, BpEdge>) {
        let k = self.labels;

        // (a) refresh the node prior from the GMM globals, if published.
        if let Some(global) = ctx.global(GMM_GLOBAL) {
            let comps = GmmSync::unpack(global.as_slice());
            let feature = ctx.vertex_data().feature;
            let mut prior: Vec<f64> = comps
                .iter()
                .map(|&(w, mean, var)| (w * GmmSync::density(feature, mean, var)).max(1e-12))
                .collect();
            normalize(&mut prior);
            ctx.vertex_data_mut().prior = prior;
        }

        // (b) belief = prior × incoming messages.
        let deg = ctx.num_neighbors();
        let mut belief = ctx.vertex_data().prior.clone();
        for i in 0..deg {
            let e = ctx.edge_data(i);
            let incoming = if ctx.nbr_dir(i) == EdgeDir::In { &e.msg_fwd } else { &e.msg_rev };
            for (b, m) in belief.iter_mut().zip(incoming) {
                *b *= m;
            }
        }
        normalize(&mut belief);
        ctx.vertex_data_mut().belief = belief.clone();

        // (c) outgoing messages with residual scheduling.
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
            // Potts convolution.
            let total: f64 = cavity.iter().sum();
            let mut out: Vec<f64> =
                cavity.iter().map(|&px| total - px + self.smoothing * px).collect();
            normalize(&mut out);
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
            if residual > self.epsilon {
                ctx.schedule_nbr(i, residual);
            }
        }
        let _ = k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmm::{GmmSync, GMM_GLOBAL};
    use graphlab_core::{GraphLab, SyncCadence};
    use graphlab_graph::{DataGraph, GraphBuilder};

    /// A 1-D "video": features near 0.2 (label 0) then near 0.8 (label 1).
    fn strip(n: usize) -> DataGraph<CosegVertex, BpEdge> {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n)
            .map(|i| {
                let f = if i < n / 2 { 0.2 + 0.01 * (i % 3) as f64 } else { 0.8 - 0.01 * (i % 3) as f64 };
                b.add_vertex(CosegVertex::new(f, 2))
            })
            .collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], BpEdge::uniform(2)).unwrap();
        }
        b.build()
    }

    #[test]
    fn codec_roundtrip() {
        let v = CosegVertex::new(0.42, 3);
        let enc = graphlab_net::codec::encode_to_bytes(&v);
        assert_eq!(graphlab_net::codec::decode_from::<CosegVertex>(enc), Some(v));
    }

    #[test]
    fn em_plus_bp_segments_the_strip() {
        let mut g = strip(16);
        let update = CosegUpdate { labels: 2, smoothing: 2.0, epsilon: 1e-6 };
        GraphLab::on(&mut g)
            .sync(GMM_GLOBAL, GmmSync::new(2), SyncCadence::Updates(8))
            .max_updates(20_000)
            .run(update);
        // All left vertices share a label, all right vertices the other.
        let left = g.vertex_data(graphlab_graph::VertexId(0)).map_label();
        let right = g.vertex_data(graphlab_graph::VertexId(15)).map_label();
        assert_ne!(left, right, "two segments must emerge");
        for i in 0..8u32 {
            assert_eq!(g.vertex_data(graphlab_graph::VertexId(i)).map_label(), left, "v{i}");
        }
        for i in 8..16u32 {
            assert_eq!(g.vertex_data(graphlab_graph::VertexId(i)).map_label(), right, "v{i}");
        }
    }

    #[test]
    fn prior_refresh_uses_globals() {
        let mut g = strip(4);
        let update = CosegUpdate::default();
        GraphLab::on(&mut g)
            .sync(GMM_GLOBAL, GmmSync::new(2), SyncCadence::Updates(2))
            .max_updates(100)
            .run(update);
        // Priors should no longer be the uninformative all-ones.
        let p = &g.vertex_data(graphlab_graph::VertexId(0)).prior;
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9, "normalised prior");
        assert!((p[0] - p[1]).abs() > 1e-6, "informative prior");
    }
}
