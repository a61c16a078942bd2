//! MPI-style bulk-synchronous implementations of ALS and CoEM (§5.1, §5.3).
//!
//! "Our MPI implementation of ALS is highly optimized, and uses synchronous
//! MPI collective operations for communication. The computation is broken
//! into super-steps that alternate between recomputing the latent user and
//! movies low rank matrices. Between super-steps the new user and movie
//! values are scattered (using MPI_Alltoall) to the machines that need
//! them."
//!
//! Here ranks are threads with a real barrier between supersteps; the
//! all-to-all exchange is modelled by counting the bytes each rank must
//! ship (updated vectors × consumers) — computation is real, communication
//! volume is measured, transfer time is what the shared-memory fabric
//! provides (i.e. an optimistic, well-tuned baseline, as in the paper).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use graphlab_apps::als::AlsVertex;
use graphlab_apps::coem::CoemVertex;
use graphlab_apps::linalg::{cholesky_solve, SymMatrix};
use graphlab_graph::DataGraph;
use parking_lot::RwLock;

/// Run statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct MpiStats {
    /// Supersteps executed.
    pub supersteps: u64,
    /// Vertex recomputations.
    pub updates: u64,
    /// Bytes exchanged by the all-to-all collectives.
    pub alltoall_bytes: u64,
    /// Wall time.
    pub runtime: Duration,
}

/// ALS with alternating supersteps over `ranks` threads.
///
/// Returns the final factor table and stats.
pub fn als_mpi(
    graph: &DataGraph<AlsVertex, f64>,
    users: usize,
    d: usize,
    lambda: f64,
    iterations: usize,
    ranks: usize,
) -> (Vec<Vec<f64>>, MpiStats) {
    let start = Instant::now();
    let n = graph.num_vertices();
    let factors: Vec<RwLock<Vec<f64>>> =
        graph.vertices().map(|v| RwLock::new(graph.vertex_data(v).factors.clone())).collect();
    let barrier = Barrier::new(ranks);
    let updates = AtomicU64::new(0);
    let bytes = AtomicU64::new(0);
    let mut supersteps = 0u64;

    for _ in 0..iterations {
        for side in 0..2 {
            // side 0 recomputes movies (ids ≥ users), side 1 users.
            let range: Vec<u32> = (0..n as u32)
                .filter(|&v| if side == 0 { (v as usize) >= users } else { (v as usize) < users })
                .collect();
            let chunk = range.len().div_ceil(ranks).max(1);
            std::thread::scope(|s| {
                for shard in range.chunks(chunk) {
                    let factors = &factors;
                    let barrier = &barrier;
                    let updates = &updates;
                    let bytes = &bytes;
                    s.spawn(move || {
                        for &v in shard {
                            let vid = graphlab_graph::VertexId(v);
                            let adj = graph.adj(vid);
                            if adj.is_empty() {
                                continue;
                            }
                            let mut a = SymMatrix::scaled_identity(d, lambda * adj.len() as f64);
                            let mut b = vec![0.0; d];
                            for e in adj {
                                let x = factors[e.nbr.index()].read();
                                a.add_outer(&x);
                                let r = *graph.edge_data(e.edge);
                                for (bj, xj) in b.iter_mut().zip(x.iter()) {
                                    *bj += r * xj;
                                }
                            }
                            if cholesky_solve(a, &mut b).is_ok() {
                                *factors[v as usize].write() = b;
                            }
                            updates.fetch_add(1, Ordering::Relaxed);
                            // All-to-all: the updated vector is shipped to
                            // every rank that owns a neighbour.
                            bytes.fetch_add((d * 8) as u64 * (ranks as u64 - 1), Ordering::Relaxed);
                        }
                        barrier.wait();
                    });
                }
                // Fill unused barrier slots when fewer shards than ranks.
                for _ in range.chunks(chunk).count()..ranks {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                    });
                }
            });
            supersteps += 1;
        }
    }

    let out: Vec<Vec<f64>> = factors.into_iter().map(|l| l.into_inner()).collect();
    (
        out,
        MpiStats {
            supersteps,
            updates: updates.into_inner(),
            alltoall_bytes: bytes.into_inner(),
            runtime: start.elapsed(),
        },
    )
}

/// CoEM with synchronous supersteps over `ranks` threads.
pub fn coem_mpi(
    graph: &DataGraph<CoemVertex, f64>,
    types: usize,
    iterations: usize,
    ranks: usize,
) -> (Vec<Vec<f64>>, MpiStats) {
    let start = Instant::now();
    let n = graph.num_vertices();
    let dists: Vec<RwLock<Vec<f64>>> =
        graph.vertices().map(|v| RwLock::new(graph.vertex_data(v).dist.clone())).collect();
    let seeds: Vec<bool> = graph.vertices().map(|v| graph.vertex_data(v).seed).collect();
    let updates = AtomicU64::new(0);
    let bytes = AtomicU64::new(0);

    for _ in 0..iterations {
        // Double-buffered synchronous sweep.
        let snapshot: Vec<Vec<f64>> = dists.iter().map(|l| l.read().clone()).collect();
        let ids: Vec<u32> = (0..n as u32).collect();
        let chunk = ids.len().div_ceil(ranks).max(1);
        std::thread::scope(|s| {
            for shard in ids.chunks(chunk) {
                let dists = &dists;
                let snapshot = &snapshot;
                let seeds = &seeds;
                let updates = &updates;
                let bytes = &bytes;
                s.spawn(move || {
                    for &v in shard {
                        if seeds[v as usize] {
                            continue;
                        }
                        let vid = graphlab_graph::VertexId(v);
                        let adj = graph.adj(vid);
                        if adj.is_empty() {
                            continue;
                        }
                        let mut acc = vec![0.0; types];
                        let mut total = 0.0;
                        for e in adj {
                            let w = *graph.edge_data(e.edge);
                            total += w;
                            for (a, x) in acc.iter_mut().zip(&snapshot[e.nbr.index()]) {
                                *a += w * x;
                            }
                        }
                        if total > 0.0 {
                            for a in acc.iter_mut() {
                                *a /= total;
                            }
                            *dists[v as usize].write() = acc;
                        }
                        updates.fetch_add(1, Ordering::Relaxed);
                        bytes.fetch_add((types * 8) as u64 * (ranks as u64 - 1), Ordering::Relaxed);
                    }
                });
            }
        });
    }

    let out: Vec<Vec<f64>> = dists.into_iter().map(|l| l.into_inner()).collect();
    (
        out,
        MpiStats {
            supersteps: iterations as u64,
            updates: updates.into_inner(),
            alltoall_bytes: bytes.into_inner(),
            runtime: start.elapsed(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapreduce::factors_rmse;
    use graphlab_workloads::{nell_graph, ratings_graph};

    #[test]
    fn mpi_als_reduces_rmse() {
        let p = ratings_graph(40, 25, 6, 4, 1);
        let initial: Vec<Vec<f64>> =
            p.graph.vertices().map(|v| p.graph.vertex_data(v).factors.clone()).collect();
        let before = factors_rmse(&p.graph, &initial);
        let (factors, stats) = als_mpi(&p.graph, p.users, 4, 0.05, 6, 3);
        let after = factors_rmse(&p.graph, &factors);
        assert!(after < before * 0.5, "{before} -> {after}");
        assert_eq!(stats.supersteps, 12);
        assert!(stats.alltoall_bytes > 0);
    }

    #[test]
    fn mpi_coem_matches_planted_types() {
        let p = nell_graph(60, 20, 2, 5, 0.2, 2);
        let (dists, stats) = coem_mpi(&p.graph, 2, 20, 4);
        let mut correct = 0;
        for (d, &t) in dists.iter().zip(&p.truth).take(60) {
            let arg = usize::from(d[0] < d[1]);
            correct += usize::from(arg == t);
        }
        assert!(correct >= 54, "accuracy {correct}/60");
        assert!(stats.updates > 0);
    }

    #[test]
    fn single_rank_works() {
        let p = ratings_graph(10, 8, 4, 3, 5);
        let (factors, _) = als_mpi(&p.graph, p.users, 3, 0.05, 3, 1);
        assert_eq!(factors.len(), 18);
    }
}
