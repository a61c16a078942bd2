//! Workspace-level integration tests: applications × engines × baselines.
//!
//! These validate the claims the benchmark harness relies on: all engines
//! (sequential reference, chromatic, locking — all behind the [`GraphLab`]
//! builder) and all baselines (MapReduce, Pregel, MPI) agree on the
//! *answers*, so the performance comparisons in EXPERIMENTS.md compare
//! equal work.

use graphlab::apps::als::{train_rmse, Als};
use graphlab::apps::coem::{accuracy, Coem};
use graphlab::apps::lbp::{total_residual, LoopyBp};
use graphlab::apps::pagerank::{
    exact_pagerank, init_ranks, l1_error, PageRank, RankResidual, PAGERANK_RESIDUAL,
};
use graphlab::baselines::mapreduce::{coem_mapreduce, pagerank_mapreduce, MapReduceConfig};
use graphlab::baselines::mpi::coem_mpi;
use graphlab::baselines::pregel::{PregelConfig, PregelEngine, PregelPageRank};
use graphlab::core::{
    Ablation, EngineKind, FaultPlan, FaultTrigger, GraphLab, PartitionStrategy, RecoveryMode,
    SchedulerKind, SnapshotConfig, SnapshotMode, SyncCadence,
};
use graphlab::graph::Coloring;
use graphlab::net::LatencyModel;
use graphlab::workloads::{nell_graph, ratings_graph, web_graph, webspam_mrf};

#[test]
fn pagerank_all_systems_agree() {
    let base = web_graph(2_000, 4, 5);
    let oracle = exact_pagerank(&base, 0.15, 60);
    let pr = PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true };

    // Sequential reference.
    let mut seq = base.clone();
    init_ranks(&mut seq);
    GraphLab::on(&mut seq).run(pr.clone());
    let seq_ranks: Vec<f64> = seq.vertices().map(|v| *seq.vertex_data(v)).collect();
    assert!(l1_error(&seq_ranks, &oracle) < 1e-6);

    // Chromatic engine (3 machines, auto-computed colouring).
    let mut chro = base.clone();
    init_ranks(&mut chro);
    GraphLab::on(&mut chro).engine(EngineKind::Chromatic).machines(3).run(pr.clone());
    let chro_ranks: Vec<f64> = chro.vertices().map(|v| *chro.vertex_data(v)).collect();
    assert!(l1_error(&chro_ranks, &oracle) < 1e-6, "chromatic {}", l1_error(&chro_ranks, &oracle));

    // Locking engine (3 machines).
    let mut lock = base.clone();
    init_ranks(&mut lock);
    GraphLab::on(&mut lock)
        .engine(EngineKind::Locking)
        .machines(3)
        .partition(PartitionStrategy::BfsGrow)
        .run(pr);
    let lock_ranks: Vec<f64> = lock.vertices().map(|v| *lock.vertex_data(v)).collect();
    assert!(l1_error(&lock_ranks, &oracle) < 1e-6, "locking {}", l1_error(&lock_ranks, &oracle));

    // MapReduce (power iteration).
    let (mr_ranks, _) = pagerank_mapreduce(
        &base,
        0.15,
        60,
        MapReduceConfig { job_startup: std::time::Duration::from_millis(1), ..Default::default() },
    );
    assert!(l1_error(&mr_ranks, &oracle) < 1e-6, "mapreduce {}", l1_error(&mr_ranks, &oracle));

    // Pregel.
    let mut pregel = base.clone();
    init_ranks(&mut pregel);
    let engine = PregelEngine::new(PregelConfig { workers: 3, max_supersteps: 61 });
    engine.run(&mut pregel, &PregelPageRank { alpha: 0.15, epsilon: 0.0 }, |_, _| {});
    let pregel_ranks: Vec<f64> = pregel.vertices().map(|v| *pregel.vertex_data(v)).collect();
    assert!(l1_error(&pregel_ranks, &oracle) < 1e-6, "pregel {}", l1_error(&pregel_ranks, &oracle));
}

/// Satellite (ISSUE 4): three-engine agreement for ALS through the
/// builder — the same program (graph, update, cap) on the sequential
/// reference, the chromatic engine (free bipartite colouring) and the
/// locking engine (priority scheduler) reaches a comparably good fit.
#[test]
fn als_three_engines_reach_comparable_rmse() {
    let problem = ratings_graph(120, 60, 8, 4, 3);
    let als = Als { d: 4, lambda: 0.05, epsilon: 1e-5, dynamic: true };
    let users = problem.users;

    let mut results = Vec::new();
    for engine in [EngineKind::Sequential, EngineKind::Chromatic, EngineKind::Locking] {
        let mut g = problem.graph.clone();
        let mut b = GraphLab::on(&mut g).engine(engine).max_updates(20_000);
        b = match engine {
            // Users/movies form a bipartition: a free 2-colouring.
            EngineKind::Chromatic => b
                .machines(3)
                .coloring(Coloring::bipartite(problem.graph.num_vertices(), |v| {
                    v.index() >= users
                })),
            EngineKind::Locking => b.machines(3).scheduler(SchedulerKind::Priority),
            EngineKind::Sequential => b,
        };
        b.run(als.clone());
        results.push((engine, train_rmse(&g)));
    }
    // All engines converge to a comparably good fit (λ-regularised floor).
    for (engine, rmse) in &results {
        assert!(*rmse < 0.12, "{engine:?} rmse {rmse}");
    }
    let best = results.iter().map(|(_, r)| *r).fold(f64::MAX, f64::min);
    for (engine, rmse) in &results {
        assert!(*rmse < best * 2.0 + 0.02, "{engine:?} rmse {rmse} vs best {best}");
    }
}

#[test]
fn coem_graphlab_matches_baselines() {
    let problem = nell_graph(120, 40, 2, 6, 0.2, 7);

    let mut g = problem.graph.clone();
    let nps = problem.noun_phrases;
    let bipartite = Coloring::bipartite(g.num_vertices(), |v| v.index() >= nps);
    GraphLab::on(&mut g)
        .engine(EngineKind::Chromatic)
        .machines(3)
        .coloring(bipartite)
        .run(Coem { types: 2, epsilon: 1e-7, dynamic: true });
    let gl_acc = accuracy(&g, &problem.truth);

    let (mpi_dists, _) = coem_mpi(&problem.graph, 2, 30, 3);
    let mut mpi_correct = 0usize;
    for (d, &t) in mpi_dists.iter().zip(&problem.truth).take(nps) {
        mpi_correct += usize::from(usize::from(d[1] > d[0]) == t);
    }
    let mpi_acc = mpi_correct as f64 / nps as f64;

    let (mr_dists, _) = coem_mapreduce(
        &problem.graph,
        2,
        30,
        MapReduceConfig { job_startup: std::time::Duration::from_millis(1), ..Default::default() },
    );
    let mut mr_correct = 0usize;
    for (d, &t) in mr_dists.iter().zip(&problem.truth).take(nps) {
        mr_correct += usize::from(usize::from(d[1] > d[0]) == t);
    }
    let mr_acc = mr_correct as f64 / nps as f64;

    assert!(gl_acc > 0.85, "graphlab {gl_acc}");
    assert!(mpi_acc > 0.85, "mpi {mpi_acc}");
    assert!(mr_acc > 0.85, "mapreduce {mr_acc}");
}

#[test]
fn lbp_distributed_with_latency_converges() {
    let (mut g, truth) = webspam_mrf(400, 4, 0.3, 0.15, 9);
    let n = g.num_vertices() as u64;
    let bp = LoopyBp { labels: 2, smoothing: 2.0, epsilon: 1e-4, dynamic: true, damping: 0.3 };
    GraphLab::on(&mut g)
        .engine(EngineKind::Locking)
        .machines(3)
        .scheduler(SchedulerKind::Priority)
        .latency(LatencyModel::fixed(std::time::Duration::from_micros(100)))
        .max_updates(40 * n)
        .partition(PartitionStrategy::BfsGrow)
        .run(bp.clone());
    assert!(total_residual(&g, &bp) < 1.0, "residual {}", total_residual(&g, &bp));
    let acc = graphlab::workloads::spam::spam_accuracy(&g, &truth);
    assert!(acc > 0.8, "accuracy {acc}");
}

/// ISSUE 4 acceptance: `stop_when` termination on the residual global —
/// PageRank halts once the equation residual falls below tolerance, with
/// **fewer updates** than the fixed-sweep (cap-terminated) baseline and
/// the **same ranks**, on both distributed engines.
#[test]
fn stop_when_converges_with_fewer_updates_than_fixed_sweeps() {
    let base = web_graph(400, 4, 13);
    let n = base.num_vertices() as u64;
    let oracle = exact_pagerank(&base, 0.15, 300);
    // BSP-style update: epsilon -1 reschedules unconditionally, so only
    // the terminator (cap or stop_when) ends the run.
    let pr = PageRank { alpha: 0.15, epsilon: -1.0, dynamic: true };
    // The residual contracts by ~(1−α) per sweep: 1e-6 needs ~85 Jacobi
    // sweeps (async in-place updates need fewer), so a 120-sweep cap
    // leaves the stop predicate a comfortable lead.
    let sweeps = 120u64;
    let tol = 1e-6;

    for engine in [EngineKind::Chromatic, EngineKind::Locking] {
        // Arm 1: fixed-sweep baseline, cap-terminated.
        let mut cap_g = base.clone();
        init_ranks(&mut cap_g);
        let cap_out = GraphLab::on(&mut cap_g)
            .engine(engine)
            .machines(3)
            .max_updates(sweeps * n)
            .run(pr.clone());
        let cap_ranks: Vec<f64> = cap_g.vertices().map(|v| *cap_g.vertex_data(v)).collect();
        assert!(l1_error(&cap_ranks, &oracle) < 1e-5, "{engine:?} cap arm diverged");

        // Arm 2: same program, aggregate-driven termination.
        let mut stop_g = base.clone();
        init_ranks(&mut stop_g);
        let stop_out = GraphLab::on(&mut stop_g)
            .engine(engine)
            .machines(3)
            .max_updates(sweeps * n)
            .sync(PAGERANK_RESIDUAL, RankResidual { alpha: 0.15 }, SyncCadence::Updates(n))
            .stop_when(move |g| g.get(PAGERANK_RESIDUAL).is_some_and(|r| *r < tol))
            .run(pr.clone());
        let stop_ranks: Vec<f64> = stop_g.vertices().map(|v| *stop_g.vertex_data(v)).collect();

        assert!(
            stop_out.metrics.updates < cap_out.metrics.updates,
            "{engine:?}: stop_when must beat the fixed-sweep baseline \
             ({} vs {} updates)",
            stop_out.metrics.updates,
            cap_out.metrics.updates,
        );
        let residual = *stop_out.globals.get(PAGERANK_RESIDUAL).expect("residual published");
        assert!(residual < tol, "{engine:?}: halted at residual {residual}");
        // Converges to the same ranks as the cap-terminated run: the L1
        // gap to the fixpoint is bounded by residual/α ≈ 7e-6 at tol.
        let gap = l1_error(&stop_ranks, &cap_ranks);
        assert!(gap < 1e-4, "{engine:?}: stop vs cap ranks L1 {gap}");
        assert!(l1_error(&stop_ranks, &oracle) < 1e-4, "{engine:?} stop arm vs oracle");
    }
}

#[test]
fn snapshot_recovery_end_to_end() {
    let base = web_graph(600, 4, 17);
    let pr = PageRank { alpha: 0.15, epsilon: 1e-10, dynamic: true };

    let mut full = base.clone();
    init_ranks(&mut full);
    let out = GraphLab::on(&mut full)
        .engine(EngineKind::Locking)
        .machines(2)
        .snapshot(SnapshotConfig {
            mode: SnapshotMode::Asynchronous,
            every_updates: 400,
            max_snapshots: 1,
        })
        .run(pr.clone());
    assert!(out.metrics.snapshots >= 1);

    let mut restored = base.clone();
    graphlab::core::restore_snapshot(&out.dfs, "ckpt", 0, &mut restored).expect("restore");
    GraphLab::on(&mut restored).run(pr);
    for v in full.vertices() {
        assert!(
            (full.vertex_data(v) - restored.vertex_data(v)).abs() < 1e-9,
            "divergence at {v}"
        );
    }
}

/// Regression for the ISSUE 2 headline bug: the asynchronous
/// Chandy–Lamport snapshot assumes per-channel FIFO delivery, and
/// `ec2_like()` (non-zero `per_kib` + jitter) is exactly the model under
/// which the old fabric reordered channels — a small schedule/release
/// overtaking a large scope-data message could tear the snapshot cut.
#[test]
fn async_snapshot_under_ec2_latency_restores_correctly() {
    let base = web_graph(400, 4, 23);
    let pr = PageRank { alpha: 0.15, epsilon: 1e-10, dynamic: true };

    let mut full = base.clone();
    init_ranks(&mut full);
    let out = GraphLab::on(&mut full)
        .engine(EngineKind::Locking)
        .machines(3)
        .latency(LatencyModel::ec2_like())
        .snapshot(SnapshotConfig {
            mode: SnapshotMode::Asynchronous,
            every_updates: 300,
            max_snapshots: 1,
        })
        .run(pr.clone());
    assert!(out.metrics.snapshots >= 1);

    // A consistent checkpoint must converge to the same fixpoint as the
    // uninterrupted run.
    let mut restored = base.clone();
    graphlab::core::restore_snapshot(&out.dfs, "ckpt", 0, &mut restored).expect("restore");
    GraphLab::on(&mut restored).run(pr);
    for v in full.vertices() {
        assert!(
            (full.vertex_data(v) - restored.vertex_data(v)).abs() < 1e-9,
            "divergence at {v}"
        );
    }
}

/// ISSUE 2 acceptance: batching cuts total cluster messages on PageRank
/// (locking engine, 8 machines) by at least 25% without changing the
/// converged ranks.
#[test]
fn batching_reduces_messages_and_preserves_ranks() {
    let base = web_graph(3_000, 4, 31);
    let oracle = exact_pagerank(&base, 0.15, 120);
    let pr = PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true };

    let mut msgs = [0u64; 2];
    for (i, policy) in [graphlab::core::BatchPolicy::Disabled, graphlab::core::BatchPolicy::default()]
        .into_iter()
        .enumerate()
    {
        let mut g = base.clone();
        init_ranks(&mut g);
        let out = GraphLab::on(&mut g)
            .engine(EngineKind::Locking)
            .machines(8)
            .configure(|c| c.batch = policy)
            .run(pr.clone());
        msgs[i] = out.metrics.total_messages;
        let ranks: Vec<f64> = g.vertices().map(|v| *g.vertex_data(v)).collect();
        assert!(l1_error(&ranks, &oracle) < 1e-6, "batch={i} l1 {}", l1_error(&ranks, &oracle));
    }
    assert!(
        (msgs[1] as f64) <= 0.75 * msgs[0] as f64,
        "batching saved only {:.1}% of {} messages",
        100.0 * (1.0 - msgs[1] as f64 / msgs[0] as f64),
        msgs[0],
    );
}

/// ISSUE 3 regression: version-aware delta scope sync + envelope
/// compression must not change what either engine computes under real
/// (`ec2_like`) latency — 8 machines, delta+compression on vs off.
#[test]
fn delta_sync_and_compression_preserve_pagerank_both_engines_under_latency() {
    let base = web_graph(1_200, 4, 19);
    let oracle = exact_pagerank(&base, 0.15, 150);
    let pr = PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true };

    for (arm, ablation, policy) in [
        ("off", Ablation::FullScopeResend, graphlab::core::BatchPolicy::Uncompressed),
        ("on", Ablation::Off, graphlab::core::BatchPolicy::default()),
    ] {
        for engine in [EngineKind::Locking, EngineKind::Chromatic] {
            let mut g = base.clone();
            init_ranks(&mut g);
            GraphLab::on(&mut g)
                .engine(engine)
                .machines(8)
                .latency(LatencyModel::ec2_like())
                .configure(|c| {
                    // The chromatic engine has no scope sync to ablate.
                    if engine == EngineKind::Locking {
                        c.ablation = ablation;
                    }
                    c.batch = policy;
                })
                .run(pr.clone());
            let ranks: Vec<f64> = g.vertices().map(|v| *g.vertex_data(v)).collect();
            let l1 = l1_error(&ranks, &oracle);
            assert!(l1 < 1e-6, "{engine:?} delta/compress {arm}: L1 {l1}");
        }
    }
}

/// ISSUE 3 regression: same on/off comparison for ALS (both engines,
/// `ec2_like`, 8 machines) — converged quality must be unaffected.
#[test]
fn delta_sync_and_compression_preserve_als_under_latency() {
    let problem = ratings_graph(240, 80, 10, 4, 3);
    let als = Als { d: 4, lambda: 0.05, epsilon: 1e-5, dynamic: true };
    let users = problem.users;
    let mut rmses: Vec<f64> = Vec::new();

    for (ablation, policy) in [
        (Ablation::FullScopeResend, graphlab::core::BatchPolicy::Uncompressed),
        (Ablation::Off, graphlab::core::BatchPolicy::default()),
    ] {
        let mut g = problem.graph.clone();
        GraphLab::on(&mut g)
            .engine(EngineKind::Locking)
            .machines(8)
            .latency(LatencyModel::ec2_like())
            .scheduler(SchedulerKind::Priority)
            .max_updates(15_000)
            .configure(|c| {
                c.ablation = ablation;
                c.batch = policy;
            })
            .run(als.clone());
        rmses.push(train_rmse(&g));

        let mut g = problem.graph.clone();
        GraphLab::on(&mut g)
            .engine(EngineKind::Chromatic)
            .machines(8)
            .latency(LatencyModel::ec2_like())
            .coloring(Coloring::bipartite(problem.graph.num_vertices(), |v| v.index() >= users))
            .max_updates(15_000)
            .configure(|c| c.batch = policy)
            .run(als.clone());
        rmses.push(train_rmse(&g));
    }
    for (i, rmse) in rmses.iter().enumerate() {
        assert!(*rmse < 0.12, "arm {i} rmse {rmse}");
    }
    // Locking off vs on and chromatic off vs on each land on comparable
    // fits (execution order differs, the answers must not).
    assert!((rmses[0] - rmses[2]).abs() < 0.03, "locking arms diverged: {rmses:?}");
    assert!((rmses[1] - rmses[3]).abs() < 0.03, "chromatic arms diverged: {rmses:?}");
}

/// ISSUE 3 regression: an asynchronous snapshot cut **mid-run with delta
/// sync + compression on**, restored and re-converged on a fresh cluster
/// (again with delta sync on), must reach the uninterrupted run's
/// fixpoint. A remote-cache invalidation bug would skip a row carrying
/// a write-back the cut must hold or resume a restored cluster against stale
/// residency assumptions — either tears the cut.
#[test]
fn delta_sync_snapshot_restore_mid_run_is_consistent() {
    let base = web_graph(500, 4, 29);
    let pr = PageRank { alpha: 0.15, epsilon: 1e-10, dynamic: true };

    let mut full = base.clone();
    init_ranks(&mut full);
    let out = GraphLab::on(&mut full)
        .engine(EngineKind::Locking)
        .machines(4)
        .latency(LatencyModel::ec2_like())
        .snapshot(SnapshotConfig {
            mode: SnapshotMode::Asynchronous,
            every_updates: 400,
            max_snapshots: 1,
        })
        .run(pr.clone());
    assert!(out.metrics.snapshots >= 1);

    // Restore the mid-run checkpoint and converge it on a *distributed*
    // cluster with delta sync still on (fresh remote-cache tables are the
    // restore-side invalidation).
    let mut restored = base.clone();
    graphlab::core::restore_snapshot(&out.dfs, "ckpt", 0, &mut restored).expect("restore");
    GraphLab::on(&mut restored)
        .engine(EngineKind::Locking)
        .machines(4)
        .latency(LatencyModel::ec2_like())
        .run(pr);
    for v in full.vertices() {
        assert!(
            (full.vertex_data(v) - restored.vertex_data(v)).abs() < 1e-7,
            "divergence at {v}"
        );
    }
}

/// Kill one machine mid-run under `ec2_like()` for all four {chromatic,
/// locking} × {sync, async snapshot} cells. Every cell must detect the
/// death, roll the cluster back to the latest complete checkpoint, and
/// reconverge to the same fixpoint as the undisturbed run.
#[test]
fn kill_mid_run_recovers_all_four_cells() {
    let base = web_graph(500, 4, 17);
    let pr = PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true };
    let oracle = exact_pagerank(&base, 0.15, 200);

    for (engine, mode) in [
        (EngineKind::Locking, SnapshotMode::Synchronous),
        (EngineKind::Locking, SnapshotMode::Asynchronous),
        (EngineKind::Chromatic, SnapshotMode::Synchronous),
        (EngineKind::Chromatic, SnapshotMode::Asynchronous),
    ] {
        let snapshot = SnapshotConfig { mode, every_updates: 400, max_snapshots: 64 };

        let mut undisturbed = base.clone();
        init_ranks(&mut undisturbed);
        let clean = GraphLab::on(&mut undisturbed)
            .engine(engine)
            .machines(4)
            .latency(LatencyModel::ec2_like())
            .snapshot(snapshot)
            .run(pr.clone());
        let base_ranks: Vec<f64> =
            undisturbed.vertices().map(|v| *undisturbed.vertex_data(v)).collect();
        // The first kill lands 2/5 into the undisturbed run's traffic, as
        // `repro abl-recovery` kills; every envelope sent to a peer is one
        // delivery on the `Deliveries` clock. The disturbed run's timing is
        // the host's, so its first checkpoint may not be complete by then,
        // and a kill with nothing to roll back to must end in the clean
        // abort: the program's contract, not a recovery. Only that abort
        // moves the kill on by a tenth of the traffic; any other failure,
        // or no recovering kill point before the run's end, fails the cell.
        let total = clean.metrics.total_messages;
        let mut kill_at = total * 2 / 5;
        let (out, killed) = loop {
            assert!(
                kill_at < total,
                "{engine:?}/{mode:?}: no kill point up to the run's end ({total} deliveries) recovers"
            );
            let mut killed = base.clone();
            init_ranks(&mut killed);
            let run = GraphLab::on(&mut killed)
                .engine(engine)
                .machines(4)
                .latency(LatencyModel::ec2_like())
                .snapshot(snapshot)
                .faults(FaultPlan::seeded(1).kill_and_restart(
                    2,
                    FaultTrigger::Deliveries(kill_at),
                    FaultTrigger::Elapsed(std::time::Duration::from_millis(30)),
                ))
                .try_run(pr.clone());
            match run {
                Ok(out) => break (out, killed),
                Err(why) if why.starts_with("machine failure at fault era 1 with no complete checkpoint") => {
                    kill_at += total / 10
                }
                Err(why) => panic!("{engine:?}/{mode:?}, kill at delivery {kill_at}: {why}"),
            }
        };
        assert!(
            out.metrics.recoveries >= 1,
            "{engine:?}/{mode:?}: the kill at delivery {kill_at} must trigger a rollback"
        );
        let killed_ranks: Vec<f64> = killed.vertices().map(|v| *killed.vertex_data(v)).collect();
        let vs_base = l1_error(&killed_ranks, &base_ranks);
        assert!(
            vs_base < 1e-9,
            "{engine:?}/{mode:?}, kill at delivery {kill_at}: recovered fixpoint drifted from the \
             undisturbed run (L1 {vs_base})"
        );
        assert!(
            l1_error(&killed_ranks, &oracle) < 1e-6,
            "{engine:?}/{mode:?}, kill at delivery {kill_at}: recovered run diverged from the oracle"
        );
    }
}

/// ISSUE 5 acceptance: a kill *before* any checkpoint completed cannot be
/// recovered — the run must fail with the clean "no complete checkpoint"
/// error through `try_run` (never hang, never panic).
#[test]
fn kill_before_first_checkpoint_fails_cleanly() {
    let base = web_graph(400, 4, 17);
    let pr = PageRank { alpha: 0.15, epsilon: 1e-10, dynamic: true };
    for engine in [EngineKind::Locking, EngineKind::Chromatic] {
        let mut g = base.clone();
        init_ranks(&mut g);
        let err = GraphLab::on(&mut g)
            .engine(engine)
            .machines(3)
            // Snapshots enabled but cadenced far beyond the kill point.
            .snapshot(SnapshotConfig {
                mode: SnapshotMode::Asynchronous,
                every_updates: 1_000_000,
                max_snapshots: 8,
            })
            .faults(FaultPlan::seeded(3).kill_and_restart(
                1,
                FaultTrigger::Deliveries(200),
                FaultTrigger::Elapsed(std::time::Duration::from_millis(10)),
            ))
            .try_run(pr.clone())
            .map(|out| out.metrics.recoveries)
            .expect_err("a kill with no checkpoint must fail the run");
        assert!(
            err.contains("no complete checkpoint"),
            "{engine:?}: unexpected failure message: {err}"
        );
    }
}

/// A permanent kill (no restart scheduled) is unrecoverable by design —
/// the victim's owned partition is gone. Every machine, including the
/// victim's own thread, must fail fast with the clean error rather than
/// sitting out the recovery deadline. The kill lands mid-run: the
/// fault-free chromatic run delivers about 330 envelopes.
#[test]
fn permanent_kill_fails_fast_on_both_engines() {
    let base = web_graph(300, 4, 17);
    let pr = PageRank { alpha: 0.15, epsilon: 1e-10, dynamic: true };
    for (engine, kill_at) in [(EngineKind::Locking, 500), (EngineKind::Chromatic, 275)] {
        let start = std::time::Instant::now();
        let mut g = base.clone();
        init_ranks(&mut g);
        let err = GraphLab::on(&mut g)
            .engine(engine)
            .machines(3)
            .snapshot(SnapshotConfig {
                mode: SnapshotMode::Synchronous,
                every_updates: 200,
                max_snapshots: 64,
            })
            .faults(FaultPlan::seeded(5).kill(1, FaultTrigger::Deliveries(kill_at)))
            .try_run(pr.clone())
            .map(|out| out.metrics.recoveries)
            .expect_err("a permanent kill must fail the run");
        assert!(err.contains("no restart scheduled"), "{engine:?}: {err}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(20),
            "{engine:?}: permanent kill must fail fast, took {:?}",
            start.elapsed()
        );
    }
}

/// ISSUE 8 acceptance: under [`RecoveryMode::Adopt`] a permanent kill is
/// no longer fatal — the survivors adopt the dead machine's atoms
/// (reloading them from the DFS ingress journals, overlaying the latest
/// complete per-atom checkpoint) and reconverge to the undisturbed
/// fixpoint with zero cluster rollbacks.
#[test]
fn permanent_kill_adopts_and_reconverges_on_both_engines() {
    let base = web_graph(500, 4, 17);
    let pr = PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true };
    let oracle = exact_pagerank(&base, 0.15, 200);

    for (engine, kill_at) in [(EngineKind::Locking, 4_000u64), (EngineKind::Chromatic, 1_000)] {
        let snapshot =
            SnapshotConfig { mode: SnapshotMode::Synchronous, every_updates: 400, max_snapshots: 64 };

        let mut undisturbed = base.clone();
        init_ranks(&mut undisturbed);
        GraphLab::on(&mut undisturbed)
            .engine(engine)
            .machines(8)
            .latency(LatencyModel::ec2_like())
            .snapshot(snapshot)
            .run(pr.clone());
        let base_ranks: Vec<f64> =
            undisturbed.vertices().map(|v| *undisturbed.vertex_data(v)).collect();

        let mut killed = base.clone();
        init_ranks(&mut killed);
        let out = GraphLab::on(&mut killed)
            .engine(engine)
            .machines(8)
            .latency(LatencyModel::ec2_like())
            .snapshot(snapshot)
            .recovery(RecoveryMode::Adopt)
            .faults(FaultPlan::seeded(1).kill(5, FaultTrigger::Deliveries(kill_at)))
            .run(pr.clone());
        assert!(
            out.metrics.adoptions >= 1,
            "{engine:?}: the permanent kill at delivery {kill_at} must trigger an adoption"
        );
        assert_eq!(
            out.metrics.recoveries, 0,
            "{engine:?}: adoption is restart-free — no rollback may run"
        );
        let killed_ranks: Vec<f64> = killed.vertices().map(|v| *killed.vertex_data(v)).collect();
        let vs_base = l1_error(&killed_ranks, &base_ranks);
        assert!(
            vs_base < 1e-9,
            "{engine:?}: adopted fixpoint drifted from the undisturbed run (L1 {vs_base})"
        );
        assert!(
            l1_error(&killed_ranks, &oracle) < 1e-6,
            "{engine:?}: adopted run diverged from the oracle"
        );
    }
}

/// ISSUE 8 acceptance: with the fabric's oracle `K_DOWN` suppressed,
/// survivors learn of the same kill purely through lease expiry — the
/// master declares the death when the victim's lease runs out and
/// broadcasts the fabric-shaped notification itself — and recover through
/// the identical adoption path.
#[test]
fn lease_expiry_detects_death_without_oracle() {
    let base = web_graph(400, 4, 17);
    let pr = PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true };
    let oracle = exact_pagerank(&base, 0.15, 200);
    for (engine, kill_at) in [(EngineKind::Locking, 3_000u64), (EngineKind::Chromatic, 800)] {
        let mut g = base.clone();
        init_ranks(&mut g);
        let out = GraphLab::on(&mut g)
            .engine(engine)
            .machines(4)
            .snapshot(SnapshotConfig {
                mode: SnapshotMode::Synchronous,
                every_updates: 400,
                max_snapshots: 64,
            })
            .recovery(RecoveryMode::Adopt)
            .lease(std::time::Duration::from_millis(200))
            .faults(
                FaultPlan::seeded(7).kill(2, FaultTrigger::Deliveries(kill_at)).without_oracle(),
            )
            .run(pr.clone());
        assert!(
            out.metrics.adoptions >= 1,
            "{engine:?}: lease expiry must detect the silent death and trigger adoption"
        );
        assert_eq!(out.metrics.recoveries, 0, "{engine:?}: no rollback under adoption");
        let ranks: Vec<f64> = g.vertices().map(|v| *g.vertex_data(v)).collect();
        assert!(
            l1_error(&ranks, &oracle) < 1e-6,
            "{engine:?}: lease-recovered run diverged from the oracle"
        );
    }
}

/// A lone survivor terminates: on two machines under
/// [`RecoveryMode::Adopt`] the worker dies for good, the master adopts
/// every atom (journal-only: no checkpoint), and its quiet round — with no
/// peer's marker to wait for — ends the run at the oracle's fixpoint.
#[test]
fn a_lone_survivor_adopts_every_atom_and_terminates() {
    let base = web_graph(500, 4, 17);
    let oracle = exact_pagerank(&base, 0.15, 200);
    let mut g = base.clone();
    init_ranks(&mut g);
    let out = GraphLab::on(&mut g)
        .engine(EngineKind::Locking)
        .machines(2)
        .recovery(RecoveryMode::Adopt)
        .faults(FaultPlan::seeded(1).kill(1, FaultTrigger::Deliveries(200)))
        .run(PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true });
    assert_eq!((out.metrics.adoptions, out.metrics.recoveries), (1, 0));
    let ranks: Vec<f64> = g.vertices().map(|v| *g.vertex_data(v)).collect();
    assert!(l1_error(&ranks, &oracle) < 1e-6, "the lone survivor's run diverged from the oracle");
}

/// ISSUE 10 (satellite): message-driven masters mean an idle cluster does
/// zero control work. With no counter-driven triggers configured the
/// counter-threshold note (`LockKind::UpdNote`) is never sent and no machine
/// ever expires an idle receive deadline; with a sync cadence the notes
/// appear — that is the mechanism that replaced the master's 2 ms
/// counter poll — and the master still takes zero scheduled wakeups.
#[test]
fn idle_cluster_does_zero_control_work() {
    use graphlab::core::messages::LockKind;

    let base = web_graph(400, 4, 21);
    let n = base.num_vertices() as u64;
    let pr = PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true };

    // Arm 1: no sync, no snapshots → nothing for the master to time.
    let mut g = base.clone();
    init_ranks(&mut g);
    let out = GraphLab::on(&mut g).engine(EngineKind::Locking).machines(8).run(pr.clone());
    assert_eq!(
        out.metrics.idle_wakeups,
        vec![0u64; 8],
        "an idle cluster between work must take zero scheduled wakeups"
    );
    assert!(
        out.metrics.traffic(LockKind::UpdNote).msgs == 0,
        "an update note sent although no counter-driven trigger is configured"
    );

    // Arm 2: a sync cadence makes workers announce their counters.
    let mut g = base.clone();
    init_ranks(&mut g);
    let out = GraphLab::on(&mut g)
        .engine(EngineKind::Locking)
        .machines(8)
        .sync(PAGERANK_RESIDUAL, RankResidual { alpha: 0.15 }, SyncCadence::Updates(n))
        .run(pr);
    assert_eq!(out.metrics.idle_wakeups[0], 0, "master fell back to a timed wakeup");
    assert!(
        out.metrics.traffic(LockKind::UpdNote).msgs > 0,
        "counter notes must drive the master's sync triggers"
    );
}

/// Every message kind is delivered in some run that finishes clean. The
/// dispatchers match their plane's kinds exhaustively and panic on another
/// plane's, so delivered-and-finished means handled: a kind nobody sends
/// any more, or one a dispatcher stopped taking, fails here. The rows are
/// the cells of the tests above at their kill points.
#[test]
fn every_message_kind_is_delivered_in_a_clean_run() {
    use graphlab::core::messages::{Kind, RecoveryKind};
    use graphlab::core::{BatchPolicy, UpdateContext, UpdateFunction};
    use graphlab::graph::{ConsistencyModel, GraphBuilder};
    use std::time::Duration;

    // Cannot be seen delivered in a run that finishes clean.
    let exceptions = [
        // The master's verdict that the run is unrecoverable: it ends in
        // `Err` (`kill_before_first_checkpoint_fails_cleanly`).
        Kind::Recovery(RecoveryKind::Abort),
        // The fabric puts it in the reborn machine's own inbox, a self-send,
        // which `NetStats` does not charge. The restart rows stand in: the
        // master orders no rollback before the reborn machine's `Ready`,
        // which it sends on handling its `Up`.
        Kind::Recovery(RecoveryKind::Up),
    ];

    let mut delivered = std::collections::BTreeSet::new();
    let (sync, asynchronous) = (SnapshotMode::Synchronous, SnapshotMode::Asynchronous);
    let restart = |kill_at| {
        FaultPlan::seeded(1).kill_and_restart(
            2,
            FaultTrigger::Deliveries(kill_at),
            FaultTrigger::Elapsed(Duration::from_millis(30)),
        )
    };
    let silent_death = FaultPlan::seeded(7).kill(2, FaultTrigger::Deliveries(800)).without_oracle();
    let rows = [
        // A kill with rollback; sync snapshots and a background sync.
        (EngineKind::Locking, sync, Some(restart(4_000)), RecoveryMode::Rollback, None),
        // Asynchronous (Chandy-Lamport) snapshots.
        (EngineKind::Locking, asynchronous, None, RecoveryMode::Rollback, None),
        // Its fault-free run delivers about 1 000 envelopes.
        (EngineKind::Chromatic, sync, Some(restart(540)), RecoveryMode::Rollback, None),
        // A permanent kill seen by lease expiry alone, then adoption.
        (
            EngineKind::Chromatic,
            sync,
            Some(silent_death),
            RecoveryMode::Adopt,
            Some(Duration::from_millis(200)),
        ),
    ];
    let web = web_graph(500, 4, 17);
    let n = web.num_vertices() as u64;
    for (engine, mode, faults, recovery, lease) in rows {
        let mut g = web.clone();
        init_ranks(&mut g);
        let mut program = GraphLab::on(&mut g)
            .engine(engine)
            .machines(4)
            .snapshot(SnapshotConfig { mode, every_updates: 400, max_snapshots: 64 })
            .recovery(recovery)
            // A compressed envelope hides the kinds inside it.
            .configure(|c| c.batch = BatchPolicy::Uncompressed)
            .sync(PAGERANK_RESIDUAL, RankResidual { alpha: 0.15 }, SyncCadence::Updates(n));
        let killed = faults.is_some();
        if let Some(plan) = faults {
            program = program.faults(plan);
        }
        if let Some(period) = lease {
            program = program.lease(period);
        }
        let out = program.run(PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true });
        let rounds = out.metrics.recoveries + out.metrics.adoptions;
        assert_eq!(rounds > 0, killed, "{engine:?}/{mode:?}: {rounds} recovery rounds");
        delivered.extend(out.metrics.bytes_by_kind.iter().map(|&(kind, _)| kind));
    }

    // The write-back kinds: under full consistency a vertex writes its
    // neighbours and its edges, some of them another machine's.
    struct PushAndStamp;
    impl UpdateFunction<f64, f64> for PushAndStamp {
        fn update(&self, ctx: &mut UpdateContext<'_, f64, f64>) {
            let mine = *ctx.vertex_data();
            for i in 0..ctx.num_neighbors() {
                if *ctx.edge_data(i) < mine {
                    *ctx.edge_data_mut(i) = mine;
                }
                if *ctx.nbr_data(i) < mine {
                    *ctx.nbr_data_mut(i) = mine;
                    ctx.schedule_nbr(i, 1.0);
                }
            }
        }
    }
    let mut b = GraphBuilder::new();
    let ring: Vec<_> = (0..24).map(|i| b.add_vertex(((i * 7919) % 24) as f64)).collect();
    for i in 0..24 {
        b.add_edge(ring[i], ring[(i + 1) % 24], 0.0).unwrap();
    }
    let mut ring = b.build();
    let out = GraphLab::on(&mut ring)
        .engine(EngineKind::Chromatic)
        .machines(3)
        .consistency(ConsistencyModel::Full)
        .run(PushAndStamp);
    delivered.extend(out.metrics.bytes_by_kind.iter().map(|&(kind, _)| kind));

    let missing: Vec<&str> = (0..=u16::MAX)
        .filter_map(Kind::from_wire)
        .filter(|kind| !exceptions.contains(kind) && !delivered.contains(&kind.wire()))
        .map(Kind::name)
        .collect();
    assert!(missing.is_empty(), "never delivered: {missing:?}");
    for kind in exceptions {
        assert!(!delivered.contains(&kind.wire()), "{} is no exception any more", kind.name());
    }
}
