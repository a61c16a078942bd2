//! Fault tolerance (§4.3): deterministic fault injection + automatic
//! checkpoint recovery.
//!
//! The fabric's [`FaultPlan`] kills a machine mid-run (dropping its
//! volatile state and all in-flight traffic) and restarts it after a dead
//! window; the engines detect the death, roll the whole cluster back to
//! the latest complete snapshot on the simulated DFS, and reconverge to
//! the same answer — no hand-scripted kill/restore required.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use std::time::Duration;

use graphlab::apps::lbp::LoopyBp;
use graphlab::apps::pagerank::{init_ranks, PageRank};
use graphlab::core::{
    snapshot_exists, young_interval, EngineKind, FaultPlan, FaultTrigger, GraphLab,
    PartitionStrategy, SnapshotConfig, SnapshotMode,
};
use graphlab::workloads::{mesh3d_mrf, web_graph};

fn main() {
    // Eq. 3: the optimal checkpoint interval for the paper's deployment.
    let interval = young_interval(120.0, 365.25 * 24.0 * 3600.0, 64);
    println!(
        "Young's optimal checkpoint interval (64 machines, 1-year MTBF, 2-min checkpoint): {:.1} h",
        interval / 3600.0
    );

    // Snapshot construction comparison: synchronous stop-the-world vs the
    // asynchronous Chandy–Lamport snapshot between machines.
    let (mesh, _) = mesh3d_mrf(12, 12, 6, 2, 0.2, 5);
    println!(
        "\nLBP on a {}-vertex 26-connected mesh, one snapshot mid-run:",
        mesh.num_vertices()
    );
    for (name, mode) in
        [("synchronous", SnapshotMode::Synchronous), ("asynchronous", SnapshotMode::Asynchronous)]
    {
        let mut g = mesh.clone();
        let every = g.num_vertices() as u64;
        let out = GraphLab::on(&mut g)
            .engine(EngineKind::Locking)
            .machines(4)
            .partition(PartitionStrategy::BfsGrow)
            .snapshot(SnapshotConfig { mode, every_updates: every, max_snapshots: 1 })
            .run(LoopyBp { labels: 2, smoothing: 2.0, epsilon: 1e-4, dynamic: true, damping: 0.0 });
        println!(
            "  {name:<13}: {} updates in {:?}, snapshots taken: {}, checkpoint on DFS: {}",
            out.metrics.updates,
            out.metrics.runtime,
            out.metrics.snapshots,
            snapshot_exists(&out.dfs, "ckpt", 0),
        );
    }

    // Automatic recovery: the fault plan kills machine 2 mid-run (about
    // 40% into the ~10k-envelope run) and restarts it 25 ms later. The
    // engines do the rest — detect, roll back to the latest complete
    // checkpoint, resume, reconverge.
    println!("\nkill-and-recover check (PageRank, machine 2 dies mid-run):");
    let base = web_graph(3_000, 4, 13);
    let pr = PageRank { alpha: 0.15, epsilon: 1e-10, dynamic: true };

    let mut undisturbed = base.clone();
    init_ranks(&mut undisturbed);
    GraphLab::on(&mut undisturbed)
        .engine(EngineKind::Locking)
        .machines(3)
        .snapshot(SnapshotConfig {
            mode: SnapshotMode::Asynchronous,
            every_updates: 2_000,
            max_snapshots: 64,
        })
        .run(pr.clone());

    let mut killed = base.clone();
    init_ranks(&mut killed);
    let out = GraphLab::on(&mut killed)
        .engine(EngineKind::Locking)
        .machines(3)
        .snapshot(SnapshotConfig {
            mode: SnapshotMode::Asynchronous,
            every_updates: 2_000,
            max_snapshots: 64,
        })
        .faults(FaultPlan::seeded(42).kill_and_restart(
            2,
            FaultTrigger::Deliveries(4_000),
            FaultTrigger::Elapsed(Duration::from_millis(25)),
        ))
        .run(pr.clone());

    let max_rank = undisturbed
        .vertices()
        .map(|v| *undisturbed.vertex_data(v))
        .fold(0.0f64, f64::max);
    let max_diff = undisturbed
        .vertices()
        .map(|v| (undisturbed.vertex_data(v) - killed.vertex_data(v)).abs())
        .fold(0.0f64, f64::max)
        / max_rank;
    println!(
        "  recoveries: {} (cluster rolled back to the latest complete checkpoint)",
        out.metrics.recoveries
    );
    println!("  killed-and-recovered run matches the undisturbed run: max relative diff {max_diff:.2e}");
    assert!(out.metrics.recoveries >= 1, "the kill must trigger a rollback");
    assert!(max_diff < 1e-6);
    println!("  recovery OK");

    // Without a completed checkpoint the same failure is unrecoverable —
    // and reports so cleanly instead of hanging.
    let mut doomed = base.clone();
    init_ranks(&mut doomed);
    let err = GraphLab::on(&mut doomed)
        .engine(EngineKind::Locking)
        .machines(3)
        .faults(FaultPlan::seeded(42).kill_and_restart(
            2,
            FaultTrigger::Deliveries(4_000),
            FaultTrigger::Elapsed(Duration::from_millis(25)),
        ))
        .try_run(pr)
        .map(|_| ())
        .expect_err("no snapshots configured: the kill must fail the run");
    println!("\nwithout snapshots the failure is reported cleanly:\n  {err}");
}
