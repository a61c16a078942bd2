//! Parallel Gibbs sampling on a pairwise MRF.
//!
//! The paper's §2 calls out Gibbs sampling as an algorithm that **requires
//! serializability for statistical correctness** — two adjacent variables
//! must never resample simultaneously. Under the GraphLab abstraction that
//! is exactly the edge consistency model, and the chromatic engine executes
//! it as the classic *chromatic Gibbs sampler* (Gonzalez et al., AISTATS
//! 2011 \[12\]): all variables of one colour resample in parallel, colours
//! sweep sequentially.
//!
//! Each update draws a new label for its vertex from the conditional
//! distribution given the current neighbour labels (Potts model), using a
//! per-vertex counter-based RNG so execution stays deterministic per
//! (vertex, sample-index) regardless of engine interleaving.

use graphlab_core::{UpdateContext, UpdateFunction};
use graphlab_graph::DataGraph;

/// A Gibbs variable: current label, unary potentials, sample statistics.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct GibbsVertex {
    /// Current sampled label.
    pub label: u32,
    /// Unnormalised unary potential per label.
    pub unary: Vec<f64>,
    /// Number of resamples performed (also the RNG counter).
    pub samples: u64,
    /// Per-label visit counts (marginal estimate accumulator).
    pub counts: Vec<u64>,
}

impl GibbsVertex {
    /// Variable over `k` labels with the given unary potential, started at
    /// the unary argmax.
    pub fn new(unary: Vec<f64>) -> Self {
        let label = unary
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i as u32)
            .unwrap_or(0);
        let k = unary.len();
        GibbsVertex { label, unary, samples: 0, counts: vec![0; k] }
    }

    /// Empirical marginal distribution from the visit counts.
    pub fn marginal(&self) -> Vec<f64> {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            let k = self.counts.len().max(1);
            return vec![1.0 / k as f64; k];
        }
        self.counts.iter().map(|&c| c as f64 / total as f64).collect()
    }
}

graphlab_net::codec_fields! { GibbsVertex { label, unary, samples, counts } }

/// The Gibbs resampling update function.
#[derive(Clone, Debug)]
pub struct GibbsSampler {
    /// Number of labels.
    pub labels: usize,
    /// Potts coupling strength (log-potential for agreeing neighbours).
    pub coupling: f64,
    /// Sweeps to run: each vertex reschedules itself until it has drawn
    /// this many samples.
    pub sweeps: u64,
    /// RNG stream seed (deterministic per (seed, vertex, sample index)).
    pub seed: u64,
}

impl Default for GibbsSampler {
    fn default() -> Self {
        GibbsSampler { labels: 2, coupling: 0.5, sweeps: 100, seed: 0xC0FFEE }
    }
}

#[inline]
fn counter_rng(seed: u64, vertex: u64, sample: u64) -> f64 {
    // SplitMix64 over a combined counter: uniform in [0, 1).
    let mut x = seed ^ vertex.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ sample.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

impl UpdateFunction<GibbsVertex, ()> for GibbsSampler {
    fn update(&self, ctx: &mut UpdateContext<'_, GibbsVertex, ()>) {
        let k = self.labels;
        // Conditional log-potential: unary + coupling × (#agreeing nbrs).
        let mut agree = vec![0u32; k];
        for i in 0..ctx.num_neighbors() {
            let l = ctx.nbr_data(i).label as usize;
            if l < k {
                agree[l] += 1;
            }
        }
        let unary = ctx.vertex_data().unary.clone();
        let mut weights: Vec<f64> = (0..k)
            .map(|l| (unary[l].ln().max(-50.0) + self.coupling * agree[l] as f64).exp())
            .collect();
        let total: f64 = weights.iter().sum();
        for w in weights.iter_mut() {
            *w /= total;
        }
        let (vertex, sample) = (ctx.vertex().0 as u64, ctx.vertex_data().samples);
        let u = counter_rng(self.seed, vertex, sample);
        let mut cum = 0.0;
        let mut drawn = k - 1;
        for (l, w) in weights.iter().enumerate() {
            cum += w;
            if u < cum {
                drawn = l;
                break;
            }
        }
        let data = ctx.vertex_data_mut();
        data.label = drawn as u32;
        data.samples += 1;
        data.counts[drawn] += 1;
        if data.samples < self.sweeps {
            ctx.schedule_self(1.0);
        }
    }
}

/// Mean absolute difference between two marginal tables (chain mixing
/// diagnostics in tests).
pub fn marginal_distance(g: &DataGraph<GibbsVertex, ()>, other: &DataGraph<GibbsVertex, ()>) -> f64 {
    let mut total = 0.0;
    let mut n = 0usize;
    for v in g.vertices() {
        for (a, b) in g.vertex_data(v).marginal().iter().zip(other.vertex_data(v).marginal()) {
            total += (a - b).abs();
            n += 1;
        }
    }
    total / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlab_core::GraphLab;
    use graphlab_graph::GraphBuilder;

    fn chain(n: usize, biased_ends: bool) -> DataGraph<GibbsVertex, ()> {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n)
            .map(|i| {
                let unary = if biased_ends && (i == 0 || i == n - 1) {
                    vec![5.0, 1.0]
                } else {
                    vec![1.0, 1.0]
                };
                b.add_vertex(GibbsVertex::new(unary))
            })
            .collect();
        for w in vs.windows(2) {
            b.add_edge(w[0], w[1], ()).unwrap();
        }
        b.build()
    }

    #[test]
    fn codec_roundtrip() {
        let v = GibbsVertex::new(vec![1.0, 3.0]);
        let enc = graphlab_net::codec::encode_to_bytes(&v);
        assert_eq!(graphlab_net::codec::decode_from::<GibbsVertex>(enc), Some(v));
    }

    #[test]
    fn runs_exactly_sweeps_samples_per_vertex() {
        let mut g = chain(10, false);
        let sampler = GibbsSampler { sweeps: 50, ..Default::default() };
        let out = GraphLab::on(&mut g).run(sampler);
        assert_eq!(out.metrics.updates, 10 * 50);
        for v in g.vertices() {
            assert_eq!(g.vertex_data(v).samples, 50);
            assert_eq!(g.vertex_data(v).counts.iter().sum::<u64>(), 50);
        }
    }

    #[test]
    fn biased_unaries_pull_marginals() {
        let mut g = chain(8, true);
        let sampler = GibbsSampler { sweeps: 400, coupling: 0.8, ..Default::default() };
        GraphLab::on(&mut g).run(sampler);
        // End vertices are strongly biased to label 0; coupling drags the
        // middle along.
        let m0 = g.vertex_data(graphlab_graph::VertexId(0)).marginal();
        assert!(m0[0] > 0.7, "end marginal {m0:?}");
        let mid = g.vertex_data(graphlab_graph::VertexId(4)).marginal();
        assert!(mid[0] > 0.5, "middle marginal {mid:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut g = chain(6, true);
            let sampler = GibbsSampler { sweeps: 100, ..Default::default() };
            GraphLab::on(&mut g).run(sampler);
            g.vertices().map(|v| g.vertex_data(v).counts.clone()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn counter_rng_is_uniformish() {
        let mut below = 0;
        for s in 0..1000u64 {
            if counter_rng(1, 2, s) < 0.5 {
                below += 1;
            }
        }
        assert!((400..600).contains(&below), "{below}");
    }
}
