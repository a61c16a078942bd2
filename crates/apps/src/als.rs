//! Alternating least squares collaborative filtering (§5.1, Netflix).
//!
//! The sparse rating matrix `R` defines a bipartite graph: users on one
//! side, movies on the other, edges carrying ratings. Vertex data is the
//! `d`-dimensional latent factor row of `U` (users) or column of `V`
//! (movies); the update recomputes the factor by solving the regularised
//! least-squares problem over the neighbours' factors:
//!
//! ```text
//! x_v ← argmin_x Σ_{u∈N(v)} (r_uv − xᵀ x_u)² + λ‖x‖²
//!     = (λI + Σ x_u x_uᵀ)⁻¹ (Σ r_uv x_u)
//! ```
//!
//! `O(d³ + deg)` per update (Table 2). The bipartite graph is
//! two-colourable and edge consistency suffices for serializability, so
//! the chromatic engine applies; the *dynamic* variant schedules
//! neighbours by residual (Fig. 9(a)). Running under vertex consistency
//! instead allows races — the instability demonstrated in Fig. 1(d).

use graphlab_core::{UpdateContext, UpdateFunction};
use graphlab_graph::DataGraph;

use crate::linalg::{cholesky_solve, dist2, dot, SymMatrix};

/// Latent factor vector attached to every user/movie vertex.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct AlsVertex {
    /// The `d`-dimensional latent factors.
    pub factors: Vec<f64>,
}

impl AlsVertex {
    /// Deterministic pseudo-random initial factors in `[0, 1/√d]`.
    pub fn seeded(id: u64, d: usize) -> Self {
        let mut state = id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let factors = (0..d)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 11) as f64 / (1u64 << 53) as f64) / (d as f64).sqrt()
            })
            .collect();
        AlsVertex { factors }
    }
}

graphlab_net::codec_fields! { AlsVertex { factors } }

/// The ALS update function.
#[derive(Clone, Debug)]
pub struct Als {
    /// Latent dimensionality `d`.
    pub d: usize,
    /// Ridge regularisation λ.
    pub lambda: f64,
    /// Residual threshold for dynamic scheduling.
    pub epsilon: f64,
    /// Adaptive scheduling (Fig. 9(a) "Dynamic (GraphLab)" vs BSP).
    pub dynamic: bool,
}

impl Default for Als {
    fn default() -> Self {
        Als { d: 5, lambda: 0.05, epsilon: 1e-3, dynamic: true }
    }
}

impl UpdateFunction<AlsVertex, f64> for Als {
    fn update(&self, ctx: &mut UpdateContext<'_, AlsVertex, f64>) {
        let deg = ctx.num_neighbors();
        if deg == 0 {
            return;
        }
        let mut a = SymMatrix::scaled_identity(self.d, self.lambda * deg as f64);
        let mut b = vec![0.0; self.d];
        for i in 0..deg {
            let xu = &ctx.nbr_data(i).factors;
            debug_assert_eq!(xu.len(), self.d);
            a.add_outer(xu);
            let r = *ctx.edge_data(i);
            for (bj, xj) in b.iter_mut().zip(xu) {
                *bj += r * xj;
            }
        }
        if cholesky_solve(a, &mut b).is_err() {
            return; // degenerate neighbourhood; keep the old factors
        }
        let residual = dist2(&b, &ctx.vertex_data().factors).sqrt();
        ctx.vertex_data_mut().factors = b;
        if self.dynamic && residual > self.epsilon {
            for i in 0..deg {
                ctx.schedule_nbr(i, residual);
            }
        }
    }
}

/// Root-mean-square prediction error over all rating edges — the training
/// error curves of Fig. 1(d) / Fig. 9(a).
pub fn train_rmse(graph: &DataGraph<AlsVertex, f64>) -> f64 {
    let mut se = 0.0;
    let mut n = 0usize;
    for e in graph.edges() {
        let (u, v) = graph.edge_endpoints(e);
        let pred = dot(&graph.vertex_data(u).factors, &graph.vertex_data(v).factors);
        let err = graph.edge_data(e) - pred;
        se += err * err;
        n += 1;
    }
    if n == 0 {
        return 0.0;
    }
    (se / n as f64).sqrt()
}

/// RMSE on held-out `(user, movie, rating)` triples (the test error of
/// Fig. 9(a)).
pub fn test_rmse(
    graph: &DataGraph<AlsVertex, f64>,
    held_out: &[(graphlab_graph::VertexId, graphlab_graph::VertexId, f64)],
) -> f64 {
    if held_out.is_empty() {
        return 0.0;
    }
    let se: f64 = held_out
        .iter()
        .map(|&(u, v, r)| {
            let pred = dot(&graph.vertex_data(u).factors, &graph.vertex_data(v).factors);
            (r - pred) * (r - pred)
        })
        .sum();
    (se / held_out.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlab_core::GraphLab;
    use graphlab_graph::GraphBuilder;

    /// Tiny planted rank-1 rating matrix: r_uv = s_u * t_v.
    fn planted(users: usize, movies: usize, d: usize) -> DataGraph<AlsVertex, f64> {
        let mut b = GraphBuilder::new();
        let uids: Vec<_> =
            (0..users).map(|i| b.add_vertex(AlsVertex::seeded(i as u64, d))).collect();
        let mids: Vec<_> = (0..movies)
            .map(|j| b.add_vertex(AlsVertex::seeded(1000 + j as u64, d)))
            .collect();
        for (i, &u) in uids.iter().enumerate() {
            for (j, &m) in mids.iter().enumerate() {
                let s = 1.0 + (i as f64) * 0.3;
                let t = 0.5 + (j as f64) * 0.2;
                b.add_edge(u, m, s * t).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn codec_roundtrip() {
        let v = AlsVertex { factors: vec![1.5, -2.5, 0.0] };
        let enc = graphlab_net::codec::encode_to_bytes(&v);
        assert_eq!(graphlab_net::codec::decode_from::<AlsVertex>(enc), Some(v));
    }

    #[test]
    fn seeded_factors_are_deterministic_and_bounded() {
        let a = AlsVertex::seeded(7, 10);
        let b = AlsVertex::seeded(7, 10);
        assert_eq!(a, b);
        assert!(a.factors.iter().all(|&f| (0.0..=1.0).contains(&f)));
        assert_ne!(AlsVertex::seeded(8, 10), a);
    }

    #[test]
    fn als_drives_training_error_down() {
        let mut g = planted(6, 5, 2);
        let before = train_rmse(&g);
        let als = Als { d: 2, lambda: 0.01, epsilon: 1e-6, dynamic: true };
        let out = GraphLab::on(&mut g).max_updates(5000).run(als);
        let after = train_rmse(&g);
        assert!(out.metrics.updates >= 11);
        assert!(after < before * 0.05, "rmse {before} -> {after}");
        assert!(after < 0.05, "planted rank-1 should be recovered, rmse {after}");
    }

    #[test]
    fn isolated_vertex_is_a_noop() {
        let mut b = GraphBuilder::new();
        b.add_vertex(AlsVertex::seeded(0, 3));
        let mut g: DataGraph<AlsVertex, f64> = b.build();
        let als = Als { d: 3, ..Default::default() };
        let before = g.vertex_data(graphlab_graph::VertexId(0)).clone();
        GraphLab::on(&mut g).run(als);
        assert_eq!(*g.vertex_data(graphlab_graph::VertexId(0)), before);
    }

    #[test]
    fn test_rmse_on_held_out() {
        let mut g = planted(6, 5, 2);
        let als = Als { d: 2, lambda: 0.01, epsilon: 1e-6, dynamic: true };
        GraphLab::on(&mut g).max_updates(5000).run(als);
        // Held-out entries follow the same rank-1 model.
        let held: Vec<_> = (0..3)
            .map(|i| {
                let s = 1.0 + (i as f64) * 0.3;
                let t = 0.5;
                (graphlab_graph::VertexId(i as u32), graphlab_graph::VertexId(6), s * t)
            })
            .collect();
        let rmse = test_rmse(&g, &held);
        assert!(rmse < 0.1, "held-out rmse {rmse}");
    }
}
