//! Multi-process GraphLab: the `graphlab-node` worker and its spawn
//! harness (§4.4: one symmetric GraphLab process per machine).
//!
//! Two roles, one binary:
//!
//! - **worker**: one machine of a TCP cluster. Rebuilds the (deterministic)
//!   workload graph from the shared seed, runs the selected distributed
//!   engine over [`Transport::Tcp`], and writes the vertices it owns to a
//!   result file. Ingress is deterministic per process — every worker
//!   derives the identical atom partition and placement from the same
//!   seed, so no graph data ever crosses a process boundary; only results
//!   do (the real system's equivalent is every node loading its atoms from
//!   the shared DFS).
//! - **spawn**: the parent harness. Reserves localhost ports, spawns N
//!   workers, collects and merges their result files, runs the
//!   single-process SimNet twin on the identical workload, and compares
//!   fixpoints — the transport seam's end-to-end guarantee is that the L1
//!   distance is at the PageRank tolerance floor, orders of magnitude
//!   below the 1e-9 acceptance bound.
//!
//! Workers install SIGTERM/Ctrl-C handlers ([`signal`]) that close all
//! TCP connections gracefully (FIN after queued bytes — peers drain what
//! was sent; batched messages are already flushed at every blocking
//! receive, so a quiescent worker has nothing buffered) and exit
//! `128 + signum`.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant, SystemTime};

use graphlab_apps::pagerank::{init_ranks, l1_error, PageRank};
use graphlab_core::{
    EngineKind, EngineOutput, GraphLab, PhaseTimes, RecoveryMode, TcpConfig, Transport,
};
use graphlab_graph::{DataGraph, MachineId, VertexId};
use graphlab_workloads::webgraph::web_graph;

pub mod signal;

/// The deterministic PageRank workload every process of a run rebuilds
/// from the same parameters.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Web-graph vertices.
    pub vertices: usize,
    /// Preferential-attachment out-edges per vertex.
    pub edges_per: usize,
    /// Seed for graph generation, partitioning and tie-breaking.
    pub seed: u64,
    /// PageRank random-jump probability α.
    pub alpha: f64,
    /// Dynamic-scheduling tolerance ε. Two independent schedules of
    /// dynamic PageRank agree within `2·n·ε/(1−α)` in L1, so the default
    /// `1e-14` puts cross-transport divergence near 1e-10 for the default
    /// graph — under the smoke test's 1e-9 bound with margin.
    pub epsilon: f64,
}

impl Default for Workload {
    fn default() -> Self {
        Workload { vertices: 400, edges_per: 4, seed: 0x5EED, alpha: 0.15, epsilon: 1e-14 }
    }
}

impl Workload {
    /// Builds the workload graph with uniform initial ranks.
    pub fn build_graph(&self) -> DataGraph<f64, f64> {
        let mut g = web_graph(self.vertices, self.edges_per, self.seed);
        init_ranks(&mut g);
        g
    }

    fn update_fn(&self) -> PageRank {
        PageRank { alpha: self.alpha, epsilon: self.epsilon, dynamic: true }
    }
}

/// One worker invocation: which machine of which mesh, running what.
#[derive(Clone, Debug)]
pub struct WorkerOpts {
    /// This process's machine id.
    pub machine: u16,
    /// Every machine's listen address, indexed by machine id.
    pub peers: Vec<String>,
    /// Cluster-unique run id (handshake-validated).
    pub run_id: u64,
    /// Distributed engine to run.
    pub engine: EngineKind,
    /// The shared workload.
    pub workload: Workload,
    /// Where to write this machine's result file.
    pub out: PathBuf,
    /// Restart-free recovery: survivors adopt a dead machine's atoms
    /// instead of failing the run (ISSUE 8). Every worker of a mesh must
    /// agree on this.
    pub adopt: bool,
    /// Lease period override for the failure detector (TCP defaults to
    /// 2 s when unset).
    pub lease: Option<Duration>,
    /// Chaos hook for the kill smoke test: this process exits abruptly
    /// (no FIN handshake with the engine, exactly like a machine loss)
    /// after the given delay, measured from the moment the TCP mesh is
    /// established (so the kill always lands mid-run, not mid-dial).
    pub die_after: Option<Duration>,
}

/// What one worker reports back through its result file.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// The worker's machine id.
    pub machine: u16,
    /// Final ranks of the vertices this machine owns.
    pub ranks: Vec<(u32, f64)>,
    /// The worker's wall-clock phase split.
    pub phase: PhaseTimes,
    /// Engine wall clock as the worker measured it.
    pub runtime: Duration,
    /// Update-function executions on this machine.
    pub updates: u64,
    /// Wire bytes this machine sent.
    pub bytes_sent: u64,
    /// Messages this machine sent.
    pub msgs_sent: u64,
    /// Completed adoption rounds (restart-free recovery) on this machine.
    pub adoptions: u64,
}

/// Runs one machine's worth of the workload over TCP and writes the
/// result file. Returns the one-line summary it also logged.
pub fn run_worker(opts: &WorkerOpts) -> Result<String, String> {
    let n = opts.peers.len();
    let mut graph = opts.workload.build_graph();
    let tcp = TcpConfig::new(MachineId(opts.machine), opts.peers.clone(), opts.run_id);
    if let Some(delay) = opts.die_after {
        let tag = opts.machine;
        std::thread::spawn(move || {
            // Dying before the mesh is up would strand the peers in
            // setup rather than exercising recovery — wait for it first
            // (slow debug builds can take longer than the delay just to
            // build the graph and dial).
            while !graphlab_net::mesh_established() {
                std::thread::sleep(Duration::from_millis(10));
            }
            std::thread::sleep(delay);
            eprintln!("graphlab-node[m={tag}]: chaos exit after {delay:?}");
            // Abrupt exit: the OS tears the sockets down mid-stream, the
            // peers' survivors must detect the silence by lease expiry.
            std::process::exit(9);
        });
    }
    let mut builder = GraphLab::on(&mut graph)
        .engine(opts.engine)
        .machines(n)
        .transport(Transport::Tcp(tcp))
        .seed(opts.workload.seed);
    if opts.adopt {
        builder = builder.recovery(RecoveryMode::Adopt);
    }
    if let Some(period) = opts.lease {
        builder = builder.lease(period);
    }
    let out: EngineOutput = builder
        .try_run(opts.workload.update_fn())
        .map_err(|e| format!("machine {}: {e}", opts.machine))?;

    let owned = out.owned.as_deref().unwrap_or_default();
    let me = opts.machine as usize;
    let phase = out.metrics.phases.get(me).copied().unwrap_or_default();
    let traffic = out.metrics.bytes_sent_per_machine.get(me).copied().unwrap_or(0);
    let report = WorkerReport {
        machine: opts.machine,
        ranks: owned.iter().map(|&v| (v.0, *graph.vertex_data(v))).collect(),
        phase,
        runtime: out.metrics.runtime,
        updates: out.metrics.updates,
        bytes_sent: traffic,
        msgs_sent: out.metrics.total_messages,
        adoptions: out.metrics.adoptions,
    };
    write_report(&opts.out, &report)
        .map_err(|e| format!("machine {}: writing {}: {e}", opts.machine, opts.out.display()))?;
    Ok(summary_line(&report, opts.engine))
}

/// The worker's one-line per-phase summary (also what `spawn` tabulates).
pub fn summary_line(r: &WorkerReport, engine: EngineKind) -> String {
    format!(
        "graphlab-node[m={} {:?}]: setup={:.3}s compute={:.3}s net_wait={:.3}s \
         updates={} sent={}B/{}msgs owned={}",
        r.machine,
        engine,
        r.phase.setup.as_secs_f64(),
        r.phase.compute.as_secs_f64(),
        r.phase.net_wait.as_secs_f64(),
        r.updates,
        r.bytes_sent,
        r.msgs_sent,
        r.ranks.len(),
    ) + &if r.adoptions > 0 { format!(" adoptions={}", r.adoptions) } else { String::new() }
}

// Result files are plain text, one record per line, with f64s as exact
// bit patterns (hex) so the merge is byte-faithful:
//   machine <m>
//   phase <setup_hexbits> <compute_hexbits> <net_wait_hexbits> <runtime_hexbits>
//   stats <updates> <bytes_sent> <msgs_sent> <adoptions>
//   v <vertex_id> <rank_hexbits>   (one per owned vertex)
//   ok                             (completeness marker)

fn write_report(path: &Path, r: &WorkerReport) -> std::io::Result<()> {
    let mut buf = String::new();
    buf.push_str(&format!("machine {}\n", r.machine));
    buf.push_str(&format!(
        "phase {:016x} {:016x} {:016x} {:016x}\n",
        r.phase.setup.as_secs_f64().to_bits(),
        r.phase.compute.as_secs_f64().to_bits(),
        r.phase.net_wait.as_secs_f64().to_bits(),
        r.runtime.as_secs_f64().to_bits(),
    ));
    buf.push_str(&format!(
        "stats {} {} {} {}\n",
        r.updates, r.bytes_sent, r.msgs_sent, r.adoptions
    ));
    for &(v, rank) in &r.ranks {
        buf.push_str(&format!("v {} {:016x}\n", v, rank.to_bits()));
    }
    buf.push_str("ok\n");
    let mut f = std::fs::File::create(path)?;
    f.write_all(buf.as_bytes())
}

/// Parses a worker result file; errors on truncated files (no `ok`
/// marker — the worker died mid-write or never finished).
pub fn read_report(path: &Path) -> Result<WorkerReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    let bits = |s: &str| -> Result<f64, String> {
        u64::from_str_radix(s, 16).map(f64::from_bits).map_err(|e| format!("bad hexbits: {e}"))
    };
    let mut r = WorkerReport {
        machine: u16::MAX,
        ranks: Vec::new(),
        phase: PhaseTimes::default(),
        runtime: Duration::ZERO,
        updates: 0,
        bytes_sent: 0,
        msgs_sent: 0,
        adoptions: 0,
    };
    let mut complete = false;
    for line in text.lines() {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("machine") => {
                r.machine = it.next().and_then(|s| s.parse().ok()).ok_or("bad machine line")?;
            }
            Some("phase") => {
                let mut next = || it.next().ok_or("short phase line".to_string());
                r.phase.setup = Duration::from_secs_f64(bits(next()?)?.max(0.0));
                r.phase.compute = Duration::from_secs_f64(bits(next()?)?.max(0.0));
                r.phase.net_wait = Duration::from_secs_f64(bits(next()?)?.max(0.0));
                r.runtime = Duration::from_secs_f64(bits(next()?)?.max(0.0));
            }
            Some("stats") => {
                let mut next = || it.next().ok_or("short stats line".to_string());
                r.updates = next()?.parse().map_err(|e| format!("bad updates: {e}"))?;
                r.bytes_sent = next()?.parse().map_err(|e| format!("bad bytes: {e}"))?;
                r.msgs_sent = next()?.parse().map_err(|e| format!("bad msgs: {e}"))?;
                r.adoptions = next()?.parse().map_err(|e| format!("bad adoptions: {e}"))?;
            }
            Some("v") => {
                let id: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| "bad vertex line".to_string())?;
                let rank = bits(it.next().ok_or("missing rank")?)?;
                r.ranks.push((id, rank));
            }
            Some("ok") => complete = true,
            _ => {}
        }
    }
    if !complete {
        return Err(format!("{}: truncated result file (worker died?)", path.display()));
    }
    if r.machine == u16::MAX {
        return Err(format!("{}: missing machine record", path.display()));
    }
    Ok(r)
}

/// Which engines a spawn run exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineSel {
    Chromatic,
    Locking,
    /// Chromatic then locking, each with its own mesh.
    Both,
}

impl EngineSel {
    /// Parses `chromatic` / `locking` / `both`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "chromatic" => Ok(EngineSel::Chromatic),
            "locking" => Ok(EngineSel::Locking),
            "both" => Ok(EngineSel::Both),
            other => Err(format!("unknown engine {other:?} (chromatic|locking|both)")),
        }
    }

    fn kinds(self) -> Vec<EngineKind> {
        match self {
            EngineSel::Chromatic => vec![EngineKind::Chromatic],
            EngineSel::Locking => vec![EngineKind::Locking],
            EngineSel::Both => vec![EngineKind::Chromatic, EngineKind::Locking],
        }
    }
}

/// Spawn-harness options.
#[derive(Clone, Debug)]
pub struct SpawnOpts {
    /// Worker processes (= machines).
    pub machines: usize,
    /// Engine(s) to run.
    pub engines: EngineSel,
    /// The shared workload.
    pub workload: Workload,
    /// Fail (`Err`) if any engine's TCP-vs-Sim L1 is ≥ this (`None`
    /// disables the gate).
    pub check_l1: Option<f64>,
    /// Where to persist the JSON benchmark record (`None`, the default,
    /// skips it).
    pub bench_out: Option<PathBuf>,
}

impl Default for SpawnOpts {
    fn default() -> Self {
        SpawnOpts {
            machines: 4,
            engines: EngineSel::Both,
            workload: Workload::default(),
            check_l1: None,
            bench_out: None,
        }
    }
}

/// One engine's cross-transport comparison.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Which engine.
    pub engine: EngineKind,
    /// L1 distance between the merged TCP fixpoint and the SimNet twin's.
    pub l1_vs_sim: f64,
    /// Parent-measured wall clock of the whole TCP run (spawn → join).
    pub tcp_wall: Duration,
    /// SimNet twin wall clock (engine runtime).
    pub sim_wall: Duration,
    /// Per-worker phase reports, by machine id.
    pub workers: Vec<WorkerReport>,
    /// Total updates across TCP workers.
    pub tcp_updates: u64,
    /// Updates of the SimNet twin.
    pub sim_updates: u64,
}

/// Reserves `n` distinct localhost ports by binding ephemeral listeners
/// and releasing them for the workers to re-bind (workers retry their
/// bind briefly, covering the handoff race).
pub fn alloc_ports(n: usize) -> std::io::Result<Vec<String>> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()?;
    listeners
        .iter()
        .map(|l| Ok(format!("127.0.0.1:{}", l.local_addr()?.port())))
        .collect()
}

/// Spawns an `opts.machines`-process PageRank cluster per selected
/// engine, merges the workers' fixpoints, and compares each against the
/// single-process SimNet twin. Prints a timing table per engine and
/// persists the JSON benchmark record when `opts.bench_out` names a file.
pub fn spawn_cluster(opts: &SpawnOpts) -> Result<Vec<EngineReport>, String> {
    assert!(opts.machines >= 1);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let base_run = run_id_seed();
    let scratch = std::env::temp_dir().join(format!("graphlab-tcp-{base_run:016x}"));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("mkdir {}: {e}", scratch.display()))?;

    let mut reports = Vec::new();
    for (ei, engine) in opts.engines.kinds().into_iter().enumerate() {
        let run_id = base_run.wrapping_add(ei as u64 + 1);
        let peers = alloc_ports(opts.machines).map_err(|e| format!("port alloc: {e}"))?;
        let peer_list = peers.join(",");
        let engine_name = engine_name(engine);

        let t0 = Instant::now();
        let mut children = Vec::with_capacity(opts.machines);
        for m in 0..opts.machines {
            let out = scratch.join(format!("{engine_name}-{m}.result"));
            let child = Command::new(&exe)
                .args([
                    "worker",
                    "--machine",
                    &m.to_string(),
                    "--peers",
                    &peer_list,
                    "--run-id",
                    &run_id.to_string(),
                    "--engine",
                    engine_name,
                    "--vertices",
                    &opts.workload.vertices.to_string(),
                    "--edges-per",
                    &opts.workload.edges_per.to_string(),
                    "--seed",
                    &opts.workload.seed.to_string(),
                    "--epsilon",
                    &format!("{:e}", opts.workload.epsilon),
                    "--out",
                    &out.to_string_lossy(),
                ])
                .spawn()
                .map_err(|e| format!("spawning worker {m}: {e}"))?;
            children.push((m, out, child));
        }

        let mut workers: Vec<WorkerReport> = Vec::with_capacity(opts.machines);
        let mut failures = Vec::new();
        for (m, out, mut child) in children {
            let status = child.wait().map_err(|e| format!("waiting on worker {m}: {e}"))?;
            if !status.success() {
                failures.push(format!("worker {m} exited with {status}"));
                continue;
            }
            match read_report(&out) {
                Ok(r) => workers.push(r),
                Err(e) => failures.push(e),
            }
        }
        let tcp_wall = t0.elapsed();
        if !failures.is_empty() {
            return Err(format!("{engine_name}: {}", failures.join("; ")));
        }
        workers.sort_by_key(|r| r.machine);

        // Merge: every vertex is owned by exactly one machine.
        let n = opts.workload.vertices;
        let mut tcp_ranks = vec![f64::NAN; n];
        for w in &workers {
            for &(v, rank) in &w.ranks {
                tcp_ranks[v as usize] = rank;
            }
        }
        if let Some(missing) = tcp_ranks.iter().position(|r| r.is_nan()) {
            return Err(format!("{engine_name}: vertex {missing} owned by no worker"));
        }

        // The deterministic twin: identical workload, in-process SimNet.
        let mut sim_graph = opts.workload.build_graph();
        let sim_out = GraphLab::on(&mut sim_graph)
            .engine(engine)
            .machines(opts.machines)
            .seed(opts.workload.seed)
            .run(opts.workload.update_fn());
        let sim_ranks: Vec<f64> =
            (0..n).map(|i| *sim_graph.vertex_data(VertexId(i as u32))).collect();

        let report = EngineReport {
            engine,
            l1_vs_sim: l1_error(&tcp_ranks, &sim_ranks),
            tcp_wall,
            sim_wall: sim_out.metrics.runtime,
            tcp_updates: workers.iter().map(|w| w.updates).sum(),
            sim_updates: sim_out.metrics.updates,
            workers,
        };
        print_engine_report(&report);
        reports.push(report);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    if let Some(path) = &opts.bench_out {
        std::fs::write(path, bench_json(opts, &reports))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    if let Some(bound) = opts.check_l1 {
        for r in &reports {
            if !r.l1_vs_sim.is_finite() || r.l1_vs_sim >= bound {
                return Err(format!(
                    "{}: TCP fixpoint diverges from SimNet: L1 = {:.3e} ≥ {bound:e}",
                    engine_name(r.engine),
                    r.l1_vs_sim
                ));
            }
        }
    }
    Ok(reports)
}

fn print_engine_report(r: &EngineReport) {
    println!(
        "engine={} tcp_wall={:.3}s sim_wall={:.3}s l1_vs_sim={:.3e} updates tcp/sim={}/{}",
        engine_name(r.engine),
        r.tcp_wall.as_secs_f64(),
        r.sim_wall.as_secs_f64(),
        r.l1_vs_sim,
        r.tcp_updates,
        r.sim_updates,
    );
    println!("  machine     setup   compute  net_wait     total");
    for w in &r.workers {
        println!(
            "  {:>7}  {:>7.3}s  {:>7.3}s  {:>7.3}s  {:>7.3}s",
            w.machine,
            w.phase.setup.as_secs_f64(),
            w.phase.compute.as_secs_f64(),
            w.phase.net_wait.as_secs_f64(),
            w.phase.total().as_secs_f64(),
        );
    }
}

/// Engine name as spelled on the CLI.
pub fn engine_name(e: EngineKind) -> &'static str {
    match e {
        EngineKind::Chromatic => "chromatic",
        EngineKind::Locking => "locking",
        EngineKind::Sequential => "sequential",
    }
}

/// Parses a CLI engine name into a distributed [`EngineKind`].
pub fn parse_engine(s: &str) -> Result<EngineKind, String> {
    match s {
        "chromatic" => Ok(EngineKind::Chromatic),
        "locking" => Ok(EngineKind::Locking),
        other => Err(format!("unknown engine {other:?} (chromatic|locking)")),
    }
}

fn run_id_seed() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    nanos ^ ((std::process::id() as u64) << 32)
}

fn bench_json(opts: &SpawnOpts, reports: &[EngineReport]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"workload\": {{\"vertices\": {}, \"edges_per\": {}, \"seed\": {}, \
         \"alpha\": {}, \"epsilon\": {:e}, \"machines\": {}}},\n",
        opts.workload.vertices,
        opts.workload.edges_per,
        opts.workload.seed,
        opts.workload.alpha,
        opts.workload.epsilon,
        opts.machines,
    ));
    s.push_str("  \"engines\": {\n");
    for (i, r) in reports.iter().enumerate() {
        s.push_str(&format!(
            "    \"{}\": {{\n      \"l1_vs_sim\": {:e},\n      \"tcp_wall_s\": {:.6},\n      \
             \"sim_wall_s\": {:.6},\n      \"tcp_updates\": {},\n      \"sim_updates\": {},\n      \
             \"phases\": [\n",
            engine_name(r.engine),
            r.l1_vs_sim,
            r.tcp_wall.as_secs_f64(),
            r.sim_wall.as_secs_f64(),
            r.tcp_updates,
            r.sim_updates,
        ));
        for (j, w) in r.workers.iter().enumerate() {
            s.push_str(&format!(
                "        {{\"machine\": {}, \"setup_s\": {:.6}, \"compute_s\": {:.6}, \
                 \"net_wait_s\": {:.6}, \"bytes_sent\": {}, \"msgs_sent\": {}, \"updates\": {}}}{}\n",
                w.machine,
                w.phase.setup.as_secs_f64(),
                w.phase.compute.as_secs_f64(),
                w.phase.net_wait.as_secs_f64(),
                w.bytes_sent,
                w.msgs_sent,
                w.updates,
                if j + 1 < r.workers.len() { "," } else { "" },
            ));
        }
        s.push_str(&format!("      ]\n    }}{}\n", if i + 1 < reports.len() { "," } else { "" }));
    }
    s.push_str("  }\n}\n");
    s
}
