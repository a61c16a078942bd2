//! Facade smoke test: drive the whole public surface end-to-end through
//! the `graphlab` facade crate — build a graph via `graphlab::graph`,
//! generate a workload, and run the same PageRank program on **all three
//! engines** through the [`GraphLab`] builder, checking they agree with
//! each other and with the power-iteration oracle.

use graphlab::apps::pagerank::{exact_pagerank, init_ranks, l1_error, PageRank};
use graphlab::core::{EngineKind, GraphLab};
use graphlab::graph::{DataGraph, GraphBuilder, VertexId};
use graphlab::workloads::web_graph;

/// A small ring-with-chords graph built by hand through the facade's
/// re-exported `GraphBuilder`, with out-weight-normalised links
/// (PageRank's edge datum is `w_{u,v}` with `Σ_v w_{u,v} = 1`).
fn small_graph() -> DataGraph<f64, f64> {
    let n = 24u32;
    let links: Vec<(u32, u32)> = (0..n)
        .flat_map(|i| {
            let mut out = vec![(i, (i + 1) % n)];
            if i % 3 == 0 {
                out.push((i, (i + 7) % n));
            }
            out
        })
        .collect();
    let mut outdeg = vec![0usize; n as usize];
    for &(s, _) in &links {
        outdeg[s as usize] += 1;
    }
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_vertex(0.0);
    }
    for (s, d) in links {
        b.add_edge(VertexId(s), VertexId(d), 1.0 / outdeg[s as usize] as f64).unwrap();
    }
    b.build()
}

/// One builder chain per engine — the only thing that changes is
/// `.engine(..)`.
fn run_engine(base: &DataGraph<f64, f64>, engine: EngineKind, machines: usize) -> Vec<f64> {
    let mut g = base.clone();
    init_ranks(&mut g);
    GraphLab::on(&mut g)
        .engine(engine)
        .machines(machines)
        .run(PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true });
    g.vertices().map(|v| *g.vertex_data(v)).collect()
}

fn assert_three_engine_agreement(base: &DataGraph<f64, f64>, machines: usize, oracle: &[f64]) {
    let seq = run_engine(base, EngineKind::Sequential, 1);
    let chro = run_engine(base, EngineKind::Chromatic, machines);
    let lock = run_engine(base, EngineKind::Locking, machines);
    assert!(l1_error(&seq, oracle) < 1e-6, "sequential vs oracle: {}", l1_error(&seq, oracle));
    assert!(l1_error(&chro, oracle) < 1e-6, "chromatic vs oracle: {}", l1_error(&chro, oracle));
    assert!(l1_error(&lock, oracle) < 1e-6, "locking vs oracle: {}", l1_error(&lock, oracle));
    assert!(l1_error(&chro, &lock) < 1e-6, "engines disagree: {}", l1_error(&chro, &lock));
    assert!(l1_error(&seq, &chro) < 1e-6, "seq/chromatic disagree: {}", l1_error(&seq, &chro));
}

#[test]
fn pagerank_three_engines_agree_on_handbuilt_graph() {
    let base = small_graph();
    let oracle = exact_pagerank(&base, 0.15, 80);
    assert_three_engine_agreement(&base, 2, &oracle);
}

#[test]
fn pagerank_three_engines_agree_on_powerlaw_workload() {
    let base = web_graph(600, 4, 11);
    let oracle = exact_pagerank(&base, 0.15, 80);
    assert_three_engine_agreement(&base, 3, &oracle);
}
