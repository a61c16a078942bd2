//! End-to-end smoke tests for the multi-process TCP harness: the spawn
//! subcommand must drive both engines across 4 OS processes to the same
//! fixpoint as the in-process SimNet twin, and a worker must die cleanly
//! (graceful FIN, nonzero exit) on SIGTERM.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

fn node_bin() -> &'static str {
    env!("CARGO_BIN_EXE_graphlab-node")
}

/// Each test here spawns a mesh of worker OS processes. Two meshes at
/// once on a small CI machine starve each other's lease heartbeats (and
/// can race over just-released ephemeral ports), so the tests take this
/// lock to run one mesh at a time.
static ONE_MESH_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn mesh_lock() -> std::sync::MutexGuard<'static, ()> {
    ONE_MESH_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("glab-smoke-{}-{tag}", std::process::id()))
}

/// 4 worker processes per engine over localhost TCP, checked against the
/// single-process SimNet fixpoint (L1 < 1e-9 enforced by `--check`).
#[test]
fn four_process_pagerank_matches_simnet_for_both_engines() {
    let _mesh = mesh_lock();
    let bench = temp_path("bench.json");
    let out = Command::new(node_bin())
        .args([
            "spawn",
            "--machines",
            "4",
            "--engine",
            "both",
            "--check",
            "--vertices",
            "240",
            "--edges-per",
            "3",
            "--bench",
        ])
        .arg(&bench)
        .output()
        .expect("run graphlab-node spawn");
    assert!(
        out.status.success(),
        "spawn failed ({:?})\nstdout:\n{}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let json = std::fs::read_to_string(&bench).expect("bench file written");
    for key in ["\"chromatic\"", "\"locking\"", "\"l1_vs_sim\"", "\"net_wait_s\""] {
        assert!(json.contains(key), "bench json missing {key}:\n{json}");
    }
    let _ = std::fs::remove_file(&bench);
}

/// ISSUE 8 acceptance: kill one worker of a 4-process TCP mesh mid-run
/// (abrupt process exit — no FIN handshake, no fault oracle). The master
/// must detect the silence by lease expiry, the survivors must adopt the
/// dead worker's atoms, and the merged survivor results must still cover
/// every vertex of the graph.
#[test]
fn killed_worker_is_adopted_over_tcp() {
    let _mesh = mesh_lock();
    // Sized so that an unkilled run lasts ≥ 5× the victim's death delay
    // below: a release build's engine took 330–440 ms on a 2-vCPU host
    // (12 000 vertices took 75–90 ms, under 2× the delay, and the victim
    // sometimes finished before it died).
    let vertices = 64_000usize;
    let victim = 2u16;
    // Reserve 4 ports the workers re-bind (bind_retry covers the race).
    let ports: Vec<u16> = (0..4)
        .map(|_| {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind :0");
            l.local_addr().expect("local addr").port()
        })
        .collect();
    let peers = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect::<Vec<_>>().join(",");

    let mut children = Vec::new();
    for m in 0..4u16 {
        let out_file = temp_path(&format!("adopt-{m}.out"));
        let _ = std::fs::remove_file(&out_file);
        let mut cmd = Command::new(node_bin());
        cmd.args(["worker", "--machine", &m.to_string(), "--peers", &peers])
            .args(["--run-id", "81", "--engine", "chromatic", "--adopt"])
            .args(["--lease-ms", "5000", "--vertices", &vertices.to_string()])
            .args(["--edges-per", "4", "--out"])
            .arg(&out_file);
        if m == victim {
            // (After the mesh is up; a later death could find the victim
            // already done.)
            cmd.args(["--die-after-ms", "50"]);
        }
        let child = cmd.spawn().expect("spawn worker");
        children.push((m, out_file, child));
    }

    let mut reports = Vec::new();
    for (m, out_file, mut child) in children {
        let status = child.wait().expect("wait worker");
        if m == victim {
            assert_eq!(status.code(), Some(9), "the victim must die its chaos death");
            assert!(!out_file.exists(), "the victim wrote a result despite dying");
            continue;
        }
        assert!(status.success(), "survivor {m} failed: {status}");
        reports.push(graphlab_node::read_report(&out_file).expect("survivor report"));
        let _ = std::fs::remove_file(&out_file);
    }

    // Every survivor went through (at least) one adoption round...
    for r in &reports {
        assert!(r.adoptions >= 1, "survivor {} never adopted (lease missed the death?)", r.machine);
    }
    // ...and the adopted placement covers the whole graph: every vertex
    // is owned by exactly one *survivor*.
    let mut owners = vec![0u32; vertices];
    for r in &reports {
        for &(v, rank) in &r.ranks {
            owners[v as usize] += 1;
            assert!(rank.is_finite());
        }
    }
    assert!(
        owners.iter().all(|&c| c == 1),
        "adopted ownership must partition the graph: {:?}",
        owners.iter().enumerate().filter(|(_, &c)| c != 1).take(5).collect::<Vec<_>>()
    );
}

/// A worker stuck dialing unreachable peers must react to SIGTERM: close
/// its transport gracefully and exit `128 + 15`.
#[test]
fn worker_exits_143_on_sigterm() {
    let _mesh = mesh_lock();
    // Reserve three ports, then release them: the worker re-binds the
    // first as its own listener and dials the other two forever (nobody
    // ever listens there), so it sits in mesh setup until signalled.
    let ports: Vec<u16> = (0..3)
        .map(|_| {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind :0");
            l.local_addr().expect("local addr").port()
        })
        .collect();
    let peers =
        ports.iter().map(|p| format!("127.0.0.1:{p}")).collect::<Vec<_>>().join(",");
    let out_file = temp_path("sigterm.out");
    let mut child = Command::new(node_bin())
        .args(["worker", "--machine", "0", "--peers", &peers, "--run-id", "7", "--engine"])
        .args(["chromatic", "--vertices", "32", "--out"])
        .arg(&out_file)
        .spawn()
        .expect("spawn worker");

    std::thread::sleep(Duration::from_millis(400));
    assert!(child.try_wait().expect("try_wait").is_none(), "worker exited before SIGTERM");
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(kill.success(), "kill -TERM failed");

    // The signal watcher polls every 50ms; allow generous slack.
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(s) = child.try_wait().expect("try_wait") {
            break s;
        }
        assert!(Instant::now() < deadline, "worker ignored SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(128 + 15), "expected killed-by-SIGTERM exit status");
    // Died mid-setup: no result file may claim completion.
    assert!(!out_file.exists(), "worker wrote a result despite being killed");
}
