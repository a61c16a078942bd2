//! Integration tests: the distributed engines against the sequential
//! reference (serializability oracle) and against each other, all driven
//! through the [`GraphLab`] program builder.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use graphlab_core::*;
use graphlab_graph::{Coloring, ConsistencyModel, DataGraph, EdgeDir, GraphBuilder, VertexId};
use graphlab_net::LatencyModel;

/// Max-diffusion: every vertex converges to the global maximum of its
/// connected component — a deterministic fixpoint under any serializable
/// schedule.
struct MaxDiffusion;
impl UpdateFunction<f64, f64> for MaxDiffusion {
    fn update(&self, ctx: &mut UpdateContext<'_, f64, f64>) {
        let mut best = *ctx.vertex_data();
        for i in 0..ctx.num_neighbors() {
            best = best.max(*ctx.nbr_data(i));
        }
        if best > *ctx.vertex_data() {
            *ctx.vertex_data_mut() = best;
            for i in 0..ctx.num_neighbors() {
                ctx.schedule_nbr(i, 1.0);
            }
        }
    }
}

/// Edge-writer: each update stamps all adjacent edges with the max of the
/// endpoint values seen so far (exercises edge writes, ghost-edge
/// write-backs and version propagation). Deterministic fixpoint: every
/// edge = max over the component.
struct EdgeStamp;
impl UpdateFunction<f64, f64> for EdgeStamp {
    fn update(&self, ctx: &mut UpdateContext<'_, f64, f64>) {
        let mut best = *ctx.vertex_data();
        for i in 0..ctx.num_neighbors() {
            best = best.max(*ctx.nbr_data(i));
        }
        let mut changed = best > *ctx.vertex_data();
        *ctx.vertex_data_mut() = best;
        for i in 0..ctx.num_neighbors() {
            if *ctx.edge_data(i) < best {
                *ctx.edge_data_mut(i) = best;
                changed = true;
            }
        }
        if changed {
            for i in 0..ctx.num_neighbors() {
                ctx.schedule_nbr(i, 1.0);
            }
        }
    }
}

/// Edge counter: each update adds one to its vertex and to every adjacent
/// edge, and runs again until its vertex reaches `self.0`. Every edge
/// ends at the number of updates of its two endpoints, so, unlike
/// `EdgeStamp`'s fixpoint, the count shows an edge write-back lost or
/// applied twice.
struct EdgeCount(f64);
impl UpdateFunction<f64, f64> for EdgeCount {
    fn update(&self, ctx: &mut UpdateContext<'_, f64, f64>) {
        *ctx.vertex_data_mut() += 1.0;
        for i in 0..ctx.num_neighbors() {
            *ctx.edge_data_mut(i) += 1.0;
        }
        if *ctx.vertex_data() < self.0 {
            ctx.schedule_self(1.0);
        }
    }
}

/// Halving: each update halves its vertex and, until it falls below
/// `self.0`, schedules itself and every neighbour. It reads and writes its
/// own vertex alone, so it runs under vertex consistency, where remote
/// tasks are the only exchange that shapes the run.
struct Halve(f64);
impl UpdateFunction<f64, f64> for Halve {
    fn update(&self, ctx: &mut UpdateContext<'_, f64, f64>) {
        *ctx.vertex_data_mut() /= 2.0;
        if *ctx.vertex_data() >= self.0 {
            ctx.schedule_self(1.0);
            for i in 0..ctx.num_neighbors() {
                ctx.schedule_nbr(i, 1.0);
            }
        }
    }
}

fn ring(n: usize) -> DataGraph<f64, f64> {
    let mut b = GraphBuilder::new();
    let vs: Vec<_> = (0..n).map(|i| b.add_vertex(((i * 7919) % n) as f64)).collect();
    for i in 0..n {
        b.add_edge(vs[i], vs[(i + 1) % n], 0.0).unwrap();
    }
    b.build()
}

fn grid(w: usize, h: usize) -> DataGraph<f64, f64> {
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = (0..w * h).map(|i| b.add_vertex(((i * 31) % 97) as f64)).collect();
    for y in 0..h {
        for x in 0..w {
            let v = ids[y * w + x];
            if x + 1 < w {
                b.add_edge(v, ids[y * w + x + 1], 0.0).unwrap();
            }
            if y + 1 < h {
                b.add_edge(v, ids[(y + 1) * w + x], 0.0).unwrap();
            }
        }
    }
    b.build()
}

fn expect_all_vertices(g: &DataGraph<f64, f64>, value: f64) {
    for v in g.vertices() {
        assert_eq!(*g.vertex_data(v), value, "vertex {v}");
    }
}

#[test]
fn chromatic_matches_sequential_on_ring() {
    let mut seq = ring(40);
    GraphLab::on(&mut seq).run(MaxDiffusion);

    let mut dist = ring(40);
    let out = GraphLab::on(&mut dist)
        .engine(EngineKind::Chromatic)
        .machines(3)
        .run(MaxDiffusion);
    assert!(out.metrics.updates >= 40);
    for v in dist.vertices() {
        assert_eq!(dist.vertex_data(v), seq.vertex_data(v));
    }
}

#[test]
fn locking_matches_sequential_on_ring() {
    let mut seq = ring(40);
    GraphLab::on(&mut seq).run(MaxDiffusion);

    let mut dist = ring(40);
    let out =
        GraphLab::on(&mut dist).engine(EngineKind::Locking).machines(3).run(MaxDiffusion);
    assert!(out.metrics.updates >= 40);
    for v in dist.vertices() {
        assert_eq!(dist.vertex_data(v), seq.vertex_data(v));
    }
}

#[test]
fn locking_with_latency_and_small_pipeline() {
    let mut dist = grid(8, 8);
    GraphLab::on(&mut dist)
        .engine(EngineKind::Locking)
        .machines(4)
        .latency(LatencyModel::fixed(Duration::from_micros(200)))
        .partition(PartitionStrategy::BfsGrow)
        .configure(|c| c.max_pipeline = 4)
        .run(MaxDiffusion);
    let expected = (0..64).map(|i| ((i * 31) % 97) as f64).fold(f64::MIN, f64::max);
    expect_all_vertices(&dist, expected);
}

/// Three machines on jittered links with a two-deep pipeline, write locks
/// on whole scopes and the hash partition (every chain spans machines):
/// forwarded lock requests and direct releases travel different channels,
/// so slab slots are recycled under every arrival order the fabric allows.
/// The hot-path counters must show the contention the set-up is for.
#[test]
fn locking_jittered_links_recycle_chain_slots() {
    let jittery = LatencyModel {
        fixed: Duration::from_micros(50),
        per_kib: Duration::from_micros(10),
        jitter: Duration::from_micros(300),
    };
    let mut dist = grid(8, 8);
    let out = GraphLab::on(&mut dist)
        .engine(EngineKind::Locking)
        .machines(3)
        .consistency(ConsistencyModel::Full)
        .latency(jittery)
        .configure(|c| c.max_pipeline = 2)
        .run(MaxDiffusion);
    let expected = (0..64).map(|i| ((i * 31) % 97) as f64).fold(f64::MIN, f64::max);
    expect_all_vertices(&dist, expected);
    let hot = out.metrics.hot;
    assert!(hot.lock_acquires >= out.metrics.updates, "every update locks its centre");
    assert!(hot.lock_parks > 0, "no chain ever waited: the test lost its contention");
    assert!(hot.pipeline_occupancy <= 2 * hot.loop_iters, "pipeline deeper than configured");
}

#[test]
fn locking_priority_scheduler() {
    let mut dist = ring(30);
    GraphLab::on(&mut dist)
        .engine(EngineKind::Locking)
        .machines(2)
        .scheduler(SchedulerKind::Priority)
        .run(MaxDiffusion);
    let max = (0..30).map(|i| ((i * 7919) % 30) as f64).fold(f64::MIN, f64::max);
    expect_all_vertices(&dist, max);
}

/// Writes what [`UpdateContext::prioritized`] answered into the vertex.
fn record_prioritized(ctx: &mut UpdateContext<'_, f64, f64>) {
    *ctx.vertex_data_mut() = if ctx.prioritized() { 1.0 } else { -1.0 };
}

/// Every vertex of a ring run once by `engine` under `kind`, and what
/// [`UpdateContext::prioritized`] answered there.
fn prioritized_on(engine: EngineKind, kind: SchedulerKind) -> bool {
    let mut g = ring(12);
    GraphLab::on(&mut g).engine(engine).machines(2).scheduler(kind).run(record_prioritized);
    let answer = *g.vertex_data(VertexId(0)) > 0.0;
    expect_all_vertices(&g, if answer { 1.0 } else { -1.0 });
    answer
}

#[test]
fn prioritized_under_priority_on_the_sequential_and_locking_engines() {
    assert!(prioritized_on(EngineKind::Sequential, SchedulerKind::Priority));
    assert!(prioritized_on(EngineKind::Locking, SchedulerKind::Priority));
}

#[test]
fn not_prioritized_under_fifo() {
    assert!(!prioritized_on(EngineKind::Sequential, SchedulerKind::Fifo));
    assert!(!prioritized_on(EngineKind::Locking, SchedulerKind::Fifo));
}

#[test]
fn not_prioritized_on_the_chromatic_engine() {
    assert!(!prioritized_on(EngineKind::Chromatic, SchedulerKind::Fifo));
    assert!(!prioritized_on(EngineKind::Chromatic, SchedulerKind::Priority));
}

#[test]
fn edge_writes_propagate_across_machines() {
    let mut seq = ring(24);
    GraphLab::on(&mut seq).run(EdgeStamp);

    for m in [1usize, 2, 4] {
        let mut dist = ring(24);
        GraphLab::on(&mut dist).engine(EngineKind::Locking).machines(m).run(EdgeStamp);
        for e in dist.edges() {
            assert_eq!(dist.edge_data(e), seq.edge_data(e), "edge {e} with {m} machines");
        }
    }
}

#[test]
fn chromatic_edge_writes() {
    let mut seq = ring(24);
    GraphLab::on(&mut seq).run(EdgeStamp);

    let mut dist = ring(24);
    GraphLab::on(&mut dist).engine(EngineKind::Chromatic).machines(3).run(EdgeStamp);
    for e in dist.edges() {
        assert_eq!(dist.edge_data(e), seq.edge_data(e), "edge {e}");
    }
}

/// Full consistency: vertices push their value to neighbours (writes
/// neighbour data). Fixpoint: everyone holds the component max.
struct PushMax;
impl UpdateFunction<f64, f64> for PushMax {
    fn update(&self, ctx: &mut UpdateContext<'_, f64, f64>) {
        let mine = *ctx.vertex_data();
        for i in 0..ctx.num_neighbors() {
            if *ctx.nbr_data(i) < mine {
                *ctx.nbr_data_mut(i) = mine;
                ctx.schedule_nbr(i, 1.0);
            }
        }
    }
}

#[test]
fn locking_full_consistency_neighbor_writes() {
    let mut dist = ring(20);
    GraphLab::on(&mut dist)
        .engine(EngineKind::Locking)
        .machines(3)
        .consistency(ConsistencyModel::Full)
        .run(PushMax);
    let max = (0..20).map(|i| ((i * 7919) % 20) as f64).fold(f64::MIN, f64::max);
    expect_all_vertices(&dist, max);
}

#[test]
fn chromatic_full_consistency_autocomputes_second_order_coloring() {
    // No explicit colouring: full consistency selects the second-order
    // generator inside the builder.
    let mut dist = ring(20);
    GraphLab::on(&mut dist)
        .engine(EngineKind::Chromatic)
        .machines(2)
        .consistency(ConsistencyModel::Full)
        .run(PushMax);
    let max = (0..20).map(|i| ((i * 7919) % 20) as f64).fold(f64::MIN, f64::max);
    expect_all_vertices(&dist, max);
}

/// Vertex consistency: self-counter, no neighbour access at all.
struct SelfCount;
impl UpdateFunction<f64, f64> for SelfCount {
    fn update(&self, ctx: &mut UpdateContext<'_, f64, f64>) {
        if *ctx.vertex_data() < 5.0 {
            *ctx.vertex_data_mut() += 1.0;
            ctx.schedule_self(1.0);
        }
    }
}

#[test]
fn vertex_consistency_self_counters() {
    let mut dist = ring(16);
    for i in 0..dist.num_vertices() {
        *dist.vertex_data_mut(VertexId::from(i)) = 0.0;
    }
    let out = GraphLab::on(&mut dist)
        .engine(EngineKind::Locking)
        .machines(2)
        .consistency(ConsistencyModel::Vertex)
        .run(SelfCount);
    expect_all_vertices(&dist, 5.0);
    assert_eq!(out.metrics.updates, 16 * 6); // 5 increments + 1 no-op each
}

const SUM: GlobalHandle<Vec<f64>> = GlobalHandle::new(0);
const COUNT: GlobalHandle<Vec<f64>> = GlobalHandle::new(1);

#[test]
fn sync_op_publishes_globals_chromatic() {
    let mut dist = ring(10);
    let out = GraphLab::on(&mut dist)
        .engine(EngineKind::Chromatic)
        .machines(2)
        .sync(SUM, FnSync::new(1, |_, d: &f64| vec![*d], |acc, _| acc), SyncCadence::Final)
        .run(MaxDiffusion);
    let max = (0..10).map(|i| ((i * 7919) % 10) as f64).fold(f64::MIN, f64::max);
    assert_eq!(out.globals.get(SUM), Some(&vec![max * 10.0]));
}

#[test]
fn sync_op_background_locking() {
    let mut dist = ring(10);
    let out = GraphLab::on(&mut dist)
        .engine(EngineKind::Locking)
        .machines(2)
        .sync(COUNT, FnSync::new(1, |_, _: &f64| vec![1.0], |acc, _| acc), SyncCadence::Updates(5))
        .run(MaxDiffusion);
    assert_eq!(out.globals.get(COUNT), Some(&vec![10.0]));
}

#[test]
fn typed_aggregate_roundtrips_distributed() {
    // A non-Vec<f64> accumulator: (count, sum) as a (u64, f64) tuple,
    // finalized to the mean — exercises the codec-bytes sync path with a
    // custom Acc/Out shape on a real cluster.
    struct Mean;
    impl Aggregate<f64, f64> for Mean {
        type Acc = (u64, f64);
        type Out = f64;
        fn init(&self) -> (u64, f64) {
            (0, 0.0)
        }
        fn map(&self, s: &SyncScope<'_, f64, f64>) -> (u64, f64) {
            (1, *s.vertex_data())
        }
        fn combine(&self, acc: &mut (u64, f64), part: (u64, f64)) {
            acc.0 += part.0;
            acc.1 += part.1;
        }
        fn finalize(&self, acc: (u64, f64), _: u64) -> f64 {
            if acc.0 == 0 { 0.0 } else { acc.1 / acc.0 as f64 }
        }
    }
    const MEAN: GlobalHandle<f64> = GlobalHandle::new(9);
    let mut dist = ring(10);
    let out = GraphLab::on(&mut dist)
        .engine(EngineKind::Locking)
        .machines(3)
        .sync(MEAN, Mean, SyncCadence::Updates(4))
        .run(MaxDiffusion);
    let max = (0..10).map(|i| ((i * 7919) % 10) as f64).fold(f64::MIN, f64::max);
    assert_eq!(out.globals.get(MEAN), Some(&max), "final sync sees the fixpoint");
}

#[test]
fn max_updates_caps_distributed_run() {
    let mut dist = ring(50);
    let max_pipeline = EngineConfig::new(2).max_pipeline;
    let out = GraphLab::on(&mut dist)
        .engine(EngineKind::Locking)
        .machines(2)
        .max_updates(20)
        .run(MaxDiffusion);
    // The cap is approximate (pipelined scopes in flight complete), but the
    // engine must stop well short of convergence-scale work.
    assert!(out.metrics.updates >= 20);
    assert!(out.metrics.updates < 50 + 2 * max_pipeline as u64);
}

#[test]
fn initial_subset_scheduling() {
    let mut dist = ring(30);
    let out = GraphLab::on(&mut dist)
        .engine(EngineKind::Locking)
        .machines(2)
        .initial(InitialSchedule::Vertices(vec![(VertexId(0), 1.0), (VertexId(15), 1.0)]))
        .run(MaxDiffusion);
    // Max diffusion from any seed set that includes schedule cascades still
    // converges everywhere: v0/v15 pull neighbours' values, change, and
    // re-schedule the wave.
    let max = (0..30).map(|i| ((i * 7919) % 30) as f64).fold(f64::MIN, f64::max);
    expect_all_vertices(&dist, max);
    assert!(out.metrics.updates >= 30);
}

/// Every run counts its updates per vertex and, on the distributed
/// engines, over time, with no switch set: on each engine, and on a
/// three-machine locking run whose worker dies and is adopted (its counts
/// outlive the local graph the survivors rebuild).
#[test]
fn every_run_counts_updates_per_vertex_and_over_time() {
    let runs = [
        (EngineKind::Sequential, 1, false),
        (EngineKind::Chromatic, 2, false),
        (EngineKind::Locking, 2, false),
        (EngineKind::Locking, 3, true),
    ];
    for (engine, machines, killed) in runs {
        let mut graph = web(2_000);
        let mut b = GraphLab::on(&mut graph).engine(engine).machines(machines);
        if killed {
            b = b
                .recovery(RecoveryMode::Adopt)
                .faults(FaultPlan::seeded(1).kill(2, FaultTrigger::Deliveries(200)));
        }
        let out = b.run(DynamicPageRank(1e-6));
        let m = &out.metrics;
        let cell = format!("{engine:?} on {machines}, killed: {killed}");
        assert!(!killed || m.adoptions >= 1, "{cell}: the kill must be adopted");
        assert_eq!(m.update_counts.len(), 2_000, "{cell}");
        assert_eq!(m.update_counts.iter().sum::<u64>(), m.updates, "{cell}");
        if engine == EngineKind::Sequential {
            assert!(m.updates_timeline.is_empty(), "{cell}");
            continue;
        }
        assert!(!m.updates_timeline.is_empty(), "{cell}");
        for w in m.updates_timeline.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1, "{cell}: {w:?}");
        }
        // The last point is at the end of the run, after every machine's
        // final sample.
        assert_eq!(m.updates_timeline.last().map(|p| p.1), Some(m.updates), "{cell}");
    }
}

#[test]
fn network_traffic_is_measured() {
    let mut dist = grid(6, 6);
    let out =
        GraphLab::on(&mut dist).engine(EngineKind::Locking).machines(4).run(MaxDiffusion);
    assert_eq!(out.metrics.bytes_sent_per_machine.len(), 4);
    assert!(out.metrics.bytes_sent_per_machine.iter().sum::<u64>() > 0);
    assert!(out.metrics.total_messages > 0);
}

#[test]
fn single_machine_locking_works() {
    let mut dist = ring(20);
    GraphLab::on(&mut dist).engine(EngineKind::Locking).machines(1).run(MaxDiffusion);
    let max = (0..20).map(|i| ((i * 7919) % 20) as f64).fold(f64::MIN, f64::max);
    expect_all_vertices(&dist, max);
}

#[test]
fn sync_snapshot_writes_restorable_checkpoint() {
    let mut dist = grid(6, 6);
    let out = GraphLab::on(&mut dist)
        .engine(EngineKind::Locking)
        .machines(2)
        .snapshot(SnapshotConfig {
            mode: SnapshotMode::Synchronous,
            every_updates: 30,
            max_snapshots: 1,
        })
        .run(MaxDiffusion);
    assert!(out.metrics.snapshots >= 1, "snapshot was taken");
    assert!(snapshot_exists(&out.dfs, "ckpt", 0));

    // Restore into a fresh copy of the original graph and re-run: the same
    // fixpoint must be reached.
    let mut restored = grid(6, 6);
    restore_snapshot(&out.dfs, "ckpt", 0, &mut restored).unwrap();
    GraphLab::on(&mut restored).run(MaxDiffusion);
    for v in restored.vertices() {
        assert_eq!(restored.vertex_data(v), dist.vertex_data(v));
    }
}

#[test]
fn async_snapshot_is_consistent_cut() {
    let mut dist = grid(6, 6);
    let out = GraphLab::on(&mut dist)
        .engine(EngineKind::Locking)
        .machines(3)
        .partition(PartitionStrategy::BfsGrow)
        .snapshot(SnapshotConfig {
            mode: SnapshotMode::Asynchronous,
            every_updates: 30,
            max_snapshots: 1,
        })
        .run(MaxDiffusion);
    assert!(out.metrics.snapshots >= 1);
    assert!(snapshot_exists(&out.dfs, "ckpt", 0));

    let mut restored = grid(6, 6);
    let (nv, _ne) = restore_snapshot(&out.dfs, "ckpt", 0, &mut restored).unwrap();
    assert_eq!(nv, 36, "every vertex captured");
    GraphLab::on(&mut restored).run(MaxDiffusion);
    for v in restored.vertices() {
        assert_eq!(restored.vertex_data(v), dist.vertex_data(v));
    }
}

/// Chip-firing: a vertex holding at least `deg(v)` chips sends one to each
/// neighbour. Every update conserves the total exactly, a game with fewer
/// chips than edges ends, and the stable configuration does not depend on
/// the order the vertices fired in (the abelian property). Max-diffusion
/// cannot see a torn cut — any restored state reaches its fixpoint — but a
/// chip-firing checkpoint that caught a chip in flight holds the wrong total.
struct ChipFiring;
impl UpdateFunction<u64, ()> for ChipFiring {
    fn update(&self, ctx: &mut UpdateContext<'_, u64, ()>) {
        let deg = ctx.num_neighbors() as u64;
        if *ctx.vertex_data() < deg.max(1) {
            return;
        }
        *ctx.vertex_data_mut() -= deg;
        for i in 0..ctx.num_neighbors() {
            *ctx.nbr_data_mut(i) += 1;
            ctx.schedule_nbr(i, 1.0);
        }
        if *ctx.vertex_data() >= deg {
            ctx.schedule_self(1.0);
        }
    }
}

/// A `w × h` grid (one edge per adjacent pair), `c` chips on vertex `i` for
/// each `(i, c)` in `chips` and none elsewhere.
fn chip_grid(w: usize, h: usize, chips: &[(usize, u64)]) -> DataGraph<u64, ()> {
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = (0..w * h).map(|_| b.add_vertex(0u64)).collect();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.add_edge(ids[y * w + x], ids[y * w + x + 1], ()).unwrap();
            }
            if y + 1 < h {
                b.add_edge(ids[y * w + x], ids[(y + 1) * w + x], ()).unwrap();
            }
        }
    }
    let mut g = b.build();
    for &(i, c) in chips {
        *g.vertex_data_mut(ids[i]) = c;
    }
    g
}

fn chips<E>(g: &DataGraph<u64, E>) -> Vec<u64> {
    g.vertices().map(|v| *g.vertex_data(v)).collect()
}

/// Every synchronous checkpoint is a consistent cut: on both engines, at
/// zero and at `ec2_like()` latency, each one restored into a fresh graph
/// holds exactly the chips the run started with — a write-back caught in
/// flight would lose or double one — and the run's fixpoint is the
/// sequential engine's.
#[test]
fn sync_snapshots_of_chip_firing_conserve_every_chip() {
    let (w, h) = (8, 8); // 112 edges
    let placed = [(0, 40), (27, 30), (63, 25)];
    let total: u64 = placed.iter().map(|&(_, c)| c).sum();
    let mut seq = chip_grid(w, h, &placed);
    let full = ConsistencyModel::Full;
    let seq_updates = GraphLab::on(&mut seq).consistency(full).run(ChipFiring).metrics.updates;
    assert_eq!(chips(&seq).iter().sum::<u64>(), total);
    for engine in [EngineKind::Chromatic, EngineKind::Locking] {
        for latency in [LatencyModel::ZERO, LatencyModel::ec2_like()] {
            let cell = format!("{engine:?} at {latency:?}");
            let mut dist = chip_grid(w, h, &placed);
            let out = GraphLab::on(&mut dist)
                .engine(engine)
                .machines(3)
                .consistency(full)
                .latency(latency)
                .snapshot(SnapshotConfig {
                    mode: SnapshotMode::Synchronous,
                    every_updates: seq_updates / 6,
                    max_snapshots: 4,
                })
                .run(ChipFiring);
            assert_eq!(chips(&dist), chips(&seq), "{cell}: fixpoint");
            assert!(out.metrics.snapshots >= 2, "{cell}: {} snapshots", out.metrics.snapshots);
            for id in 0..out.metrics.snapshots {
                let mut restored = chip_grid(w, h, &[]);
                restore_snapshot(&out.dfs, "ckpt", id, &mut restored).unwrap();
                let held: u64 = chips(&restored).iter().sum();
                assert_eq!(held, total, "{cell}: checkpoint {id} is a torn cut");
            }
        }
    }
}

/// Chip-firing with the chips in transit on the edges, under edge
/// consistency: an edge holds `(chips travelling source → target, chips
/// travelling target → source)`. A vertex absorbs what travels toward it,
/// then, holding at least its degree, fires one chip onto each adjacent
/// edge, away from itself. Every update conserves vertex plus edge chips,
/// so a checkpoint that caught a write on one side of a machine boundary
/// and not the other holds the wrong total.
struct EdgeChipFiring;
impl UpdateFunction<u64, (u64, u64)> for EdgeChipFiring {
    fn update(&self, ctx: &mut UpdateContext<'_, u64, (u64, u64)>) {
        for i in 0..ctx.num_neighbors() {
            let mut edge = *ctx.edge_data(i);
            let arrived = std::mem::take(lane(&mut edge, ctx.nbr_dir(i), true));
            if arrived > 0 {
                *ctx.edge_data_mut(i) = edge;
                *ctx.vertex_data_mut() += arrived;
            }
        }
        let deg = ctx.num_neighbors() as u64;
        if *ctx.vertex_data() < deg.max(1) {
            return;
        }
        *ctx.vertex_data_mut() -= deg;
        for i in 0..ctx.num_neighbors() {
            let dir = ctx.nbr_dir(i);
            *lane(ctx.edge_data_mut(i), dir, false) += 1;
            ctx.schedule_nbr(i, 1.0);
        }
        if *ctx.vertex_data() >= deg {
            ctx.schedule_self(1.0);
        }
    }
}

/// The chips on edge datum `e` travelling toward the vertex that sees the
/// edge as `dir` (`inbound`), or away from it.
fn lane(e: &mut (u64, u64), dir: EdgeDir, inbound: bool) -> &mut u64 {
    if (dir == EdgeDir::In) == inbound {
        &mut e.0
    } else {
        &mut e.1
    }
}

/// [`chip_grid`] with empty `(u64, u64)` edges.
fn edge_chip_grid(w: usize, h: usize, chips: &[(usize, u64)]) -> DataGraph<u64, (u64, u64)> {
    let g = chip_grid(w, h, chips);
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = g.vertices().map(|v| b.add_vertex(*g.vertex_data(v))).collect();
    for e in g.edges() {
        let (s, t) = g.edge_endpoints(e);
        b.add_edge(ids[s.0 as usize], ids[t.0 as usize], (0, 0)).unwrap();
    }
    b.build()
}

/// Vertex chips plus the chips in transit on the edges.
fn chips_on_board(g: &DataGraph<u64, (u64, u64)>) -> u64 {
    let on_edges: u64 = g.edges().map(|e| g.edge_data(e).0 + g.edge_data(e).1).sum();
    g.vertices().map(|v| *g.vertex_data(v)).sum::<u64>() + on_edges
}

/// Every asynchronous checkpoint is a consistent cut: on 2 and 3 machines,
/// at zero and at `ec2_like()` latency, each one restored into a fresh
/// graph holds exactly the chips the run started with, on the vertices and
/// in transit, and the run's fixpoint is the sequential engine's.
#[test]
fn async_snapshots_of_edge_chip_firing_conserve_every_chip() {
    edge_chip_firing_checkpoints_hold_every_chip(SnapshotMode::Asynchronous);
}

/// The same for synchronous checkpoints: the locking engine takes the
/// asynchronous cut with new chains paused, so the chains in flight at a
/// capture still write back across it.
#[test]
fn sync_snapshots_of_edge_chip_firing_conserve_every_chip() {
    edge_chip_firing_checkpoints_hold_every_chip(SnapshotMode::Synchronous);
}

fn edge_chip_firing_checkpoints_hold_every_chip(mode: SnapshotMode) {
    let (w, h) = (12, 12); // 264 edges
    let placed = [(0, 60), (77, 60), (143, 60)];
    let total: u64 = placed.iter().map(|&(_, c)| c).sum();
    let mut seq = edge_chip_grid(w, h, &placed);
    let seq_updates = GraphLab::on(&mut seq).run(EdgeChipFiring).metrics.updates;
    assert_eq!(chips_on_board(&seq), total);
    for machines in [2, 3] {
        for latency in [LatencyModel::ZERO, LatencyModel::ec2_like()] {
            let cell = format!("{mode:?}, {machines} machines at {latency:?}");
            let mut dist = edge_chip_grid(w, h, &placed);
            let out = GraphLab::on(&mut dist)
                .engine(EngineKind::Locking)
                .machines(machines)
                .latency(latency)
                .snapshot(SnapshotConfig {
                    mode,
                    every_updates: seq_updates / 8,
                    max_snapshots: 6,
                })
                .run(EdgeChipFiring);
            assert_eq!(chips_on_board(&dist), total, "{cell}: the run lost a chip");
            assert_eq!(chips(&dist), chips(&seq), "{cell}: fixpoint");
            assert!(out.metrics.snapshots >= 2, "{cell}: {} snapshots", out.metrics.snapshots);
            for id in 0..out.metrics.snapshots {
                let mut restored = edge_chip_grid(w, h, &[]);
                restore_snapshot(&out.dfs, "ckpt", id, &mut restored).unwrap();
                let held = chips_on_board(&restored);
                assert_eq!(held, total, "{cell}: checkpoint {id} is a torn cut");
            }
        }
    }
}

#[test]
fn straggler_injection_slows_but_completes() {
    let mut dist = ring(20);
    let out = GraphLab::on(&mut dist)
        .engine(EngineKind::Locking)
        .machines(2)
        .configure(|c| {
            c.straggler = Some(StragglerConfig {
                machine: 1,
                after_updates: 5,
                duration: Duration::from_millis(50),
            })
        })
        .run(MaxDiffusion);
    assert!(out.metrics.runtime >= Duration::from_millis(50));
    let max = (0..20).map(|i| ((i * 7919) % 20) as f64).fold(f64::MIN, f64::max);
    expect_all_vertices(&dist, max);
}

/// The update-counting app: verifies every scheduled vertex executes
/// exactly once when nothing re-schedules (eventual execution guarantee).
struct CountOnce(Arc<AtomicU64>);
impl UpdateFunction<f64, f64> for CountOnce {
    fn update(&self, _ctx: &mut UpdateContext<'_, f64, f64>) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn every_initial_vertex_executes_exactly_once() {
    for m in [1usize, 2, 3] {
        let counter = Arc::new(AtomicU64::new(0));
        let mut dist = ring(25);
        let out = GraphLab::on(&mut dist)
            .engine(EngineKind::Locking)
            .machines(m)
            .run(CountOnce(Arc::clone(&counter)));
        assert_eq!(counter.load(Ordering::Relaxed), 25, "{m} machines");
        assert_eq!(out.metrics.updates, 25);
    }
}

#[test]
fn chromatic_executes_each_scheduled_vertex_once() {
    let counter = Arc::new(AtomicU64::new(0));
    let mut dist = ring(25);
    GraphLab::on(&mut dist)
        .engine(EngineKind::Chromatic)
        .machines(3)
        .run(CountOnce(Arc::clone(&counter)));
    assert_eq!(counter.load(Ordering::Relaxed), 25);
}

#[test]
fn uniform_coloring_rejected_for_edge_consistency() {
    let mut dist = ring(6);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        GraphLab::on(&mut dist)
            .engine(EngineKind::Chromatic)
            .coloring(Coloring::uniform(6))
            .run(MaxDiffusion)
    }));
    assert!(result.is_err(), "improper colouring must be rejected");
}

#[test]
fn stop_when_halts_locking_engine_mid_run() {
    // Counter app re-schedules itself forever; only the stop predicate
    // (updates counted through a sync) can end the run. A snapshot every
    // ~10 updates is usually in flight when the predicate fires: the halt
    // waits until every machine wrote its part, so the last one taken is
    // complete.
    struct Forever;
    impl UpdateFunction<f64, f64> for Forever {
        fn update(&self, ctx: &mut UpdateContext<'_, f64, f64>) {
            *ctx.vertex_data_mut() += 1.0;
            ctx.schedule_self(1.0);
        }
    }
    const TOTAL: GlobalHandle<Vec<f64>> = GlobalHandle::new(5);
    let atoms = EngineConfig::new(2).num_atoms;
    for mode in [SnapshotMode::Synchronous, SnapshotMode::Asynchronous] {
        let mut dist = ring(8);
        for i in 0..8 {
            *dist.vertex_data_mut(VertexId(i)) = 0.0;
        }
        let out = GraphLab::on(&mut dist)
            .engine(EngineKind::Locking)
            .machines(2)
            .snapshot(SnapshotConfig { mode, every_updates: 10, max_snapshots: 64 })
            .sync(TOTAL, FnSync::new(1, |_, d: &f64| vec![*d], |a, _| a), SyncCadence::Updates(10))
            .stop_when(|g| g.get(TOTAL).is_some_and(|t| t[0] >= 40.0))
            .try_run(Forever)
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        assert!(out.metrics.updates >= 40, "{mode:?}: ran until the stop fired");
        assert!(out.globals.get(TOTAL).is_some_and(|t| t[0] >= 40.0));
        assert!(out.metrics.snapshots >= 1, "{mode:?}: no snapshot taken");
        assert_eq!(
            latest_complete_snapshot(&out.dfs, "ckpt", atoms),
            Some(out.metrics.snapshots - 1),
            "{mode:?}: the halt cut the last snapshot short"
        );
    }
}

/// A run stopped mid-flight keeps every update it committed (§3.4 of
/// arXiv 1006.4990): on the locking engine a stop drops the tasks, the
/// chains in flight finish, and the run ends at the next clean quiet
/// round, after the final sync. `EdgeCount` with no bound adds one to its
/// vertex and to every adjacent edge, so an edge off the sum of its
/// endpoints lost a write-back (or applied one twice), and the final sum
/// sync must read the returned graph's vertex sum. On 2, 3 and 4
/// machines, 10 seeds each; beside the stop, the locking engine stopped by
/// `max_updates` and the chromatic engine stopped at a cycle end.
#[test]
fn stop_when_mid_run_loses_no_committed_write_back() {
    const TOTAL: GlobalHandle<Vec<f64>> = GlobalHandle::new(6);
    let arms = [
        (EngineKind::Locking, 2, true),
        (EngineKind::Locking, 3, true),
        (EngineKind::Locking, 4, true),
        (EngineKind::Locking, 3, false),
        (EngineKind::Chromatic, 3, true),
    ];
    let mut failures = Vec::new();
    for (engine, machines, stop) in arms {
        for seed in 0..10 {
            let mut g = grid(12, 12);
            for v in 0..144 {
                *g.vertex_data_mut(VertexId(v)) = 0.0;
            }
            let run = GraphLab::on(&mut g)
                .engine(engine)
                .machines(machines)
                .consistency(ConsistencyModel::Edge)
                .seed(seed)
                .sync(TOTAL, FnSync::new(1, |_, d: &f64| vec![*d], |a, _| a), SyncCadence::Updates(200));
            let run = if stop {
                run.stop_when(|g| g.get(TOTAL).is_some_and(|t| t[0] >= 3000.0))
            } else {
                run.max_updates(3000)
            };
            let arm = format!("{engine:?} on {machines}, stop_when {stop}, seed {seed}");
            let out = run.try_run(EdgeCount(f64::INFINITY)).unwrap_or_else(|e| panic!("{arm}: {e}"));
            let wrong = g
                .edges()
                .filter(|&e| {
                    let (a, b) = g.edge_endpoints(e);
                    *g.edge_data(e) != g.vertex_data(a) + g.vertex_data(b)
                })
                .count();
            let sum: f64 = g.vertices().map(|v| *g.vertex_data(v)).sum();
            let total = out.globals.get(TOTAL).map(|t| t[0]);
            if wrong > 0 || total != Some(sum) {
                failures.push(format!("{arm}: {wrong} edges wrong, globals {total:?}, sum {sum}"));
            }
        }
    }
    assert!(failures.is_empty(), "{} runs lost work:\n{}", failures.len(), failures.join("\n"));
}

// ---- the chromatic engine's colour-step exchange ----

/// Dynamic PageRank (the paper's Alg. 1, α 0.15): out-neighbours are
/// scheduled when the rank moved by more than ε.
struct DynamicPageRank(f64);
impl UpdateFunction<f64, f64> for DynamicPageRank {
    fn update(&self, ctx: &mut UpdateContext<'_, f64, f64>) {
        let mut rank = 0.15 / ctx.num_vertices() as f64;
        for i in 0..ctx.num_neighbors() {
            if ctx.nbr_dir(i) == EdgeDir::In {
                rank += 0.85 * ctx.edge_data(i) * *ctx.nbr_data(i);
            }
        }
        let delta = (rank - *ctx.vertex_data()).abs();
        *ctx.vertex_data_mut() = rank;
        if delta > self.0 {
            for i in 0..ctx.num_neighbors() {
                if ctx.nbr_dir(i) == EdgeDir::Out {
                    ctx.schedule_nbr(i, delta);
                }
            }
        }
    }
}

/// A web-like digraph on `n` pages from a fixed LCG: every page links to up
/// to four others, low ids preferred (hubs), weights `1 / outdeg`.
fn web(n: usize) -> DataGraph<f64, f64> {
    let mut state = 42u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut links: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, out) in links.iter_mut().enumerate() {
        for k in 0..4 {
            let t = if k % 2 == 0 { next() % n } else { (next() % n) * (next() % n) / n };
            if t != v && !out.contains(&t) {
                out.push(t);
            }
        }
    }
    let mut b = GraphBuilder::new();
    let ids: Vec<_> = (0..n).map(|_| b.add_vertex(1.0 / n as f64)).collect();
    for (v, out) in links.iter().enumerate() {
        for &t in out {
            b.add_edge(ids[v], ids[t], 1.0 / out.len() as f64).unwrap();
        }
    }
    b.build()
}

/// The racing ablation locks the centre of a scope and nothing else: one
/// acquisition per update, where an edge-consistent run also takes its
/// neighbours' read locks.
#[test]
fn racing_ablation_locks_only_the_centre() {
    for ablation in [Ablation::Off, Ablation::Racing] {
        let mut graph = web(2_000);
        let out = GraphLab::on(&mut graph)
            .engine(EngineKind::Locking)
            .machines(3)
            .configure(|c| c.ablation = ablation)
            .run(DynamicPageRank(1e-6));
        let (acquires, updates) = (out.metrics.hot.lock_acquires, out.metrics.updates);
        if ablation == Ablation::Racing {
            assert_eq!(acquires, updates, "racing takes the centre lock alone");
        } else {
            assert!(acquires > updates, "{acquires} acquires for {updates} updates");
        }
    }
}

/// What a chromatic run did: updates, colour-steps, every vertex datum and
/// every edge datum to the bit, and the checkpoints taken.
type Outcome = (u64, u64, Vec<u64>, Vec<u64>, u64);

/// A chromatic run's [`Outcome`]. It takes no checkpoint unless
/// `checkpoints`, which registers a sync and takes a synchronous
/// checkpoint every |V| updates.
fn chromatic_outcome(
    mut graph: DataGraph<f64, f64>,
    machines: usize,
    consistency: ConsistencyModel,
    update: impl UpdateFunction<f64, f64> + 'static,
    checkpoints: bool,
) -> Outcome {
    let every_updates = graph.num_vertices() as u64;
    let mut lab = GraphLab::on(&mut graph)
        .engine(EngineKind::Chromatic)
        .machines(machines)
        .consistency(consistency)
        .seed(42);
    if checkpoints {
        lab = lab
            .sync(SUM, FnSync::new(1, |_, d: &f64| vec![*d], |acc, _| acc), SyncCadence::Final)
            .snapshot(SnapshotConfig { mode: SnapshotMode::Synchronous, every_updates, max_snapshots: 1000 });
    }
    let out = lab.run(update);
    let data = graph.vertices().map(|v| graph.vertex_data(v).to_bits()).collect();
    let edges = graph.edges().map(|e| graph.edge_data(e).to_bits()).collect();
    (out.metrics.updates, out.metrics.steps, data, edges, out.metrics.snapshots)
}

/// The set a colour-step executes is a function of the graph and the
/// colouring alone, so the engine's work and every bit of its fixpoint are
/// the same on any number of machines — provided every ghost row,
/// write-back, forward and task arrived before the next step began. This
/// is the exact oracle for the exchange: edge consistency with ghost pushes
/// and remote tasks (PageRank), full consistency with vertex write-backs
/// and their phase-1 forwards (`PushMax`), edge consistency with edge
/// pushes and edge write-backs (`EdgeStamp`, and `EdgeCount`, whose edges
/// count their writes), and vertex consistency, one colour and one round a
/// step, with remote tasks (`Halve`). Synchronous checkpoints and the cycle end's sync
/// fold must change none of them, and the checkpoints taken are
/// themselves a function of the per-cycle update counts.
#[test]
fn chromatic_work_and_fixpoint_do_not_depend_on_the_machine_count() {
    fn check(app: &str, run: impl Fn(usize, bool) -> Outcome) {
        let (updates, steps, data, edges, _) = run(1, false);
        assert!(updates > data.len() as u64 && steps > 2, "{app}: the run is dynamic");
        let mut taken = None;
        for m in [1usize, 2, 3, 4, 8] {
            for checkpoints in [false, true].into_iter().filter(|&c| c || m > 1) {
                let cell = format!("{app} on {m} machines, checkpoints {checkpoints}");
                let (u, s, d, e, n) = run(m, checkpoints);
                assert_eq!((u, s), (updates, steps), "{cell}: updates and steps");
                assert!(d == data, "{cell}: vertex data differs");
                assert!(e == edges, "{cell}: edge data differs");
                if checkpoints {
                    let first = *taken.get_or_insert(n);
                    assert!(n >= 2 && n == first, "{cell}: {n} checkpoints, {first} on 1 machine");
                }
            }
        }
    }
    let (vertex, edge, full) = (ConsistencyModel::Vertex, ConsistencyModel::Edge, ConsistencyModel::Full);
    check("pagerank", |m, c| chromatic_outcome(web(3_000), m, edge, DynamicPageRank(1e-10), c));
    check("push-max on a ring", |m, c| chromatic_outcome(ring(20), m, full, PushMax, c));
    check("push-max on a grid", |m, c| chromatic_outcome(grid(9, 7), m, full, PushMax, c));
    check("edge-stamp on a ring", |m, c| chromatic_outcome(ring(20), m, edge, EdgeStamp, c));
    check("edge-stamp on a grid", |m, c| chromatic_outcome(grid(9, 7), m, edge, EdgeStamp, c));
    check("edge-count on a grid", |m, c| chromatic_outcome(grid(9, 7), m, edge, EdgeCount(100.0), c));
    check("halve on a grid", |m, c| chromatic_outcome(grid(9, 7), m, vertex, Halve(1e-3), c));
}

/// The colour-step is the unit of exchange: under edge consistency a
/// machine sends each peer one task set per step, which ends the step's one
/// round, and a mirror's machine one row block per step plus one per
/// `BLOCK_BYTES` (4 KiB) of rows — not a message per update or per ghost
/// row. (Uncompressed: a compressed envelope hides its sub-messages from
/// `bytes_by_kind`.)
#[test]
fn chromatic_traffic_is_per_step_not_per_update() {
    let mut graph = web(6_000);
    let out = GraphLab::on(&mut graph)
        .engine(EngineKind::Chromatic)
        .machines(2)
        .seed(42)
        .configure(|c| c.batch = BatchPolicy::Uncompressed)
        .run(DynamicPageRank(1e-10));
    let sched = out.metrics.traffic(messages::ChromKind::Sched);
    let vdata = out.metrics.traffic(messages::ChromKind::VData);
    let per_step = out.metrics.steps * 2;
    assert!(out.metrics.updates > 20 * per_step, "too small a run to tell steps from updates");
    assert!(sched.msgs > 0 && vdata.msgs > 0);
    assert_eq!(sched.msgs, per_step, "{} task sets in {} steps", sched.msgs, out.metrics.steps);
    assert!(
        vdata.msgs <= per_step + vdata.bytes / 4096,
        "{} row blocks ({} bytes) in {} steps",
        vdata.msgs,
        vdata.bytes,
        out.metrics.steps
    );
}

// ---- the distributed skeleton over real sockets ----

/// `n` loopback addresses nothing listens on: bound to port 0 for the
/// kernel to pick them, then released (the spawn harness's allocation).
fn free_ports(n: usize) -> Vec<String> {
    let held: Vec<std::net::TcpListener> =
        (0..n).map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind :0")).collect();
    held.iter().map(|l| l.local_addr().expect("bound").to_string()).collect()
}

/// Two `Transport::Tcp` machines — two threads of this process, each with
/// its own copy of the graph, as two OS processes would have — do the work
/// of their SimNet twin and reach its fixpoint to the bit: the engine sees
/// one endpoint, whichever fabric is under it.
#[test]
fn chromatic_over_tcp_matches_its_simnet_twin() {
    let (updates, steps, data, _, _) =
        chromatic_outcome(web(1_500), 2, ConsistencyModel::Edge, DynamicPageRank(1e-10), false);
    let peers = free_ports(2);
    let run_id = u64::from(std::process::id()) << 16 | 0xE9;
    let machines: Vec<_> = (0..2u16)
        .map(|m| {
            let config = TcpConfig::new(graphlab_graph::MachineId(m), peers.clone(), run_id);
            std::thread::spawn(move || {
                let mut graph = web(1_500);
                let out = GraphLab::on(&mut graph)
                    .engine(EngineKind::Chromatic)
                    .machines(2)
                    .consistency(ConsistencyModel::Edge)
                    .seed(42)
                    .transport(Transport::Tcp(config))
                    .try_run(DynamicPageRank(1e-10))
                    .expect("a clean run");
                let owned = out.owned.expect("a TCP run reports what it wrote back");
                let rows: Vec<_> =
                    owned.iter().map(|&v| (v.index(), graph.vertex_data(v).to_bits())).collect();
                (out.metrics.updates, out.metrics.steps, rows)
            })
        })
        .collect();
    let mut merged = vec![None; data.len()];
    let mut total = 0;
    for machine in machines {
        let (u, s, rows) = machine.join().expect("machine thread");
        assert_eq!(s, steps, "colour-steps");
        total += u;
        for (v, bits) in rows {
            assert!(merged[v].replace(bits).is_none(), "vertex {v} written back twice");
        }
    }
    assert_eq!(total, updates, "updates, summed over the machines");
    assert!(merged.iter().map(|b| b.expect("every vertex owned")).eq(data), "fixpoint bits");
}

/// Every machine finalizes the globals itself, folding every machine's
/// partial in machine-id order, so all hold the same bits — under a float
/// sum whose value depends on the fold order: its terms run from 1 to
/// 10^22 in both signs, so a float sum of three partials taken in another
/// order rounds otherwise. Over TCP each machine's `EngineOutput::globals`
/// is its own registry: one thread per machine, as one process each would
/// be. `tag` keeps concurrent runs' ids apart.
fn machines_all_finalize_the_same_float_globals(engine: EngineKind, cadence: SyncCadence, tag: u64) {
    const SPREAD: GlobalHandle<Vec<f64>> = GlobalHandle::new(21);
    let term = |v: VertexId, d: &f64| {
        let sign = if v.0.is_multiple_of(2) { 1.0 } else { -1.0 };
        vec![sign * 10f64.powi((v.0 * 7 % 23) as i32) * (1.0 + d / 3.0)]
    };
    for n in 2..=4u16 {
        let peers = free_ports(n.into());
        let run_id = u64::from(std::process::id()) << 16 | tag << 8 | 0xF0 | u64::from(n);
        let machines: Vec<_> = (0..n)
            .map(|m| {
                let config = TcpConfig::new(graphlab_graph::MachineId(m), peers.clone(), run_id);
                std::thread::spawn(move || {
                    let mut graph = ring(24);
                    let out = GraphLab::on(&mut graph)
                        .engine(engine)
                        .machines(n.into())
                        .seed(42)
                        .sync(SPREAD, FnSync::new(1, term, |acc, _| acc), cadence)
                        .transport(Transport::Tcp(config))
                        .try_run(MaxDiffusion)
                        .expect("a clean run");
                    out.globals.get(SPREAD).expect("finalized").iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                })
            })
            .collect();
        let bits: Vec<Vec<u64>> = machines.into_iter().map(|m| m.join().expect("machine thread")).collect();
        assert!(bits.iter().all(|b| *b == bits[0]), "{engine:?}, {cadence:?}, {n} machines: {bits:x?}");
    }
}

#[test]
fn chromatic_machines_all_finalize_the_same_float_globals() {
    machines_all_finalize_the_same_float_globals(EngineKind::Chromatic, SyncCadence::Final, 0);
}

/// The locking engine's final epoch, and its background epochs every 8
/// updates before it.
#[test]
fn locking_machines_all_finalize_the_same_float_globals() {
    machines_all_finalize_the_same_float_globals(EngineKind::Locking, SyncCadence::Final, 1);
    machines_all_finalize_the_same_float_globals(EngineKind::Locking, SyncCadence::Updates(8), 2);
}

/// A peer that never comes up ends `try_run` in an `Err` at the mesh
/// deadline, not in a panic or a hang.
#[test]
fn tcp_run_with_an_unreachable_peer_fails_cleanly() {
    let mut config = TcpConfig::new(graphlab_graph::MachineId(0), free_ports(2), 7);
    config.connect_timeout = Duration::from_millis(200);
    let mut graph = ring(8);
    let err = GraphLab::on(&mut graph)
        .engine(EngineKind::Chromatic)
        .machines(2)
        .transport(Transport::Tcp(config))
        .try_run(MaxDiffusion)
        .err()
        .expect("no mesh, no run");
    assert!(err.contains("tcp mesh setup failed"), "{err}");
}
