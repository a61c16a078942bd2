//! One workload's input, oracle and reps. Everything here drives the
//! system through `GraphLab::on(..).try_run(..)` only.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use graphlab_apps::als::{train_rmse, Als, AlsVertex};
use graphlab_apps::pagerank::{exact_pagerank, init_ranks, l1_error, PageRank, RankResidual};
use graphlab_atoms::SimDfs;
use graphlab_core::metrics::EngineMetrics;
use graphlab_core::{
    latest_complete_snapshot, local_partial, EngineKind, EngineOutput, FaultPlan, FaultTrigger,
    FnSync, GraphLab, LocalGraph, RecoveryMode, SchedulerKind, SnapshotConfig, SnapshotMode,
    TcpConfig, Transport, UpdateFunction,
};
use graphlab_graph::{Coloring, DataGraph, MachineId};
use graphlab_net::codec::Codec;
use graphlab_workloads::{ratings_graph, web_graph};

use crate::spec::{Input, Spec, ENGINE_SEED, MACHINES, NUM_ATOMS};

/// Prefix the driver writes checkpoints under.
const SNAP_PREFIX: &str = "ckpt";

/// A generated input with its update function and its oracle.
pub trait Problem: Sync {
    type V: Codec + Clone + Send + Sync + 'static;
    type U: UpdateFunction<Self::V, f64>;

    /// The generated graph in its initial state; every rep runs on a clone.
    fn graph(&self) -> &DataGraph<Self::V, f64>;
    fn update(&self) -> Self::U;
    /// The colouring `try_run` resolves for the chromatic engine: supplied
    /// by the workload, or `None` for the builder's greedy one.
    fn supplied_coloring(&self) -> Option<Coloring>;
    /// Update cap (0 = run to the fixpoint).
    fn max_updates(&self) -> u64;
    /// Checks a finished graph against the oracle; `Ok` carries the
    /// distance it was found at (L1 for PageRank, relative RMSE gap for ALS).
    fn check(&self, after: &DataGraph<Self::V, f64>) -> Result<f64, String>;
    /// One machine's partial of the workload's convergence aggregate.
    fn sync_partial(&self, lg: &LocalGraph<Self::V, f64>) -> f64;
}

pub struct PageRankProblem {
    graph: DataGraph<f64, f64>,
    epsilon: f64,
    oracle: Vec<f64>,
}

const ALPHA: f64 = 0.15;

/// L1 distance to `exact_pagerank(.., 150)` a converged run may show: ten
/// times and more the largest seen over fifty calibration runs (1.3e-6 on
/// the locking workloads at ε 1e-9, 4.6e-7 on `pr-chromatic` at ε 1e-10;
/// the dynamic update stops scheduling below ε per vertex, so the distance
/// is the method's, of the order of |V|·ε·10).
const PAGERANK_L1_BOUND: f64 = 2e-5;

impl PageRankProblem {
    pub fn generate(vertices: usize, epsilon: f64, seed: u64) -> Self {
        let mut graph = web_graph(vertices, 4, seed);
        init_ranks(&mut graph);
        PageRankProblem {
            graph,
            epsilon,
            oracle: Vec::new(),
        }
    }

    pub fn solve_oracle(&mut self) {
        self.oracle = exact_pagerank(&self.graph, ALPHA, 150);
    }
}

impl Problem for PageRankProblem {
    type V = f64;
    type U = PageRank;

    fn graph(&self) -> &DataGraph<f64, f64> {
        &self.graph
    }
    fn update(&self) -> PageRank {
        PageRank {
            alpha: ALPHA,
            epsilon: self.epsilon,
            dynamic: true,
        }
    }
    fn supplied_coloring(&self) -> Option<Coloring> {
        None
    }
    fn max_updates(&self) -> u64 {
        0
    }
    fn check(&self, after: &DataGraph<f64, f64>) -> Result<f64, String> {
        let l1 = l1_error(after.vertex_data_slice(), &self.oracle);
        if l1.is_nan() || l1 > PAGERANK_L1_BOUND {
            return Err(format!(
                "PageRank L1 error {l1:.3e} exceeds {PAGERANK_L1_BOUND:.1e}"
            ));
        }
        Ok(l1)
    }
    fn sync_partial(&self, lg: &LocalGraph<f64, f64>) -> f64 {
        local_partial(&RankResidual { alpha: ALPHA }, lg)
    }
}

pub struct AlsProblem {
    graph: DataGraph<AlsVertex, f64>,
    users: usize,
    d: usize,
    sweeps: u64,
    /// Train RMSE of the sequential engine at the same cap.
    oracle_rmse: f64,
}

impl AlsProblem {
    pub fn generate(input: Input, seed: u64) -> Self {
        let Input::Ratings {
            users,
            movies,
            per_user,
            d,
            sweeps,
        } = input
        else {
            panic!("ALS runs on a ratings input");
        };
        let graph = ratings_graph(users, movies, per_user, d, seed).graph;
        AlsProblem {
            graph,
            users,
            d,
            sweeps,
            oracle_rmse: f64::NAN,
        }
    }

    /// The oracle is the sequential engine's result at the same cap; the
    /// trace reuses the run as its `apps.seq_*` sample.
    pub fn solve_oracle(&mut self, spec: &Spec) -> Result<Rep, String> {
        let (rep, after) = run_unchecked(self, spec, Variant::Sequential)?;
        self.oracle_rmse = train_rmse(&after);
        Ok(rep)
    }
}

impl Problem for AlsProblem {
    type V = AlsVertex;
    type U = Als;

    fn graph(&self) -> &DataGraph<AlsVertex, f64> {
        &self.graph
    }
    fn update(&self) -> Als {
        Als {
            d: self.d,
            lambda: 0.05,
            epsilon: 1e-3,
            dynamic: true,
        }
    }
    fn supplied_coloring(&self) -> Option<Coloring> {
        let users = self.users;
        Some(Coloring::bipartite(self.graph.num_vertices(), move |v| {
            v.index() >= users
        }))
    }
    fn max_updates(&self) -> u64 {
        self.sweeps * self.graph.num_vertices() as u64
    }
    fn check(&self, after: &DataGraph<AlsVertex, f64>) -> Result<f64, String> {
        let rmse = train_rmse(after);
        let off = (rmse - self.oracle_rmse).abs() / self.oracle_rmse;
        if off.is_nan() || off > 0.01 {
            return Err(format!(
                "ALS train RMSE {rmse:.6} is {:.2} % off the sequential engine's {:.6}",
                off * 100.0,
                self.oracle_rmse
            ));
        }
        Ok(off)
    }
    fn sync_partial(&self, lg: &LocalGraph<AlsVertex, f64>) -> f64 {
        let norm = FnSync::new(
            1,
            |_, v: &AlsVertex| vec![v.factors.iter().map(|x| x * x).sum()],
            |acc, _| acc,
        );
        local_partial(&norm, lg)[0]
    }
}

/// How a rep departs from the workload's definition; only the traced run
/// uses anything but `Plain`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Variant {
    Plain,
    /// FIFO instead of the workload's scheduler.
    Fifo,
    /// The workload's engine on one machine (SimNet, no peers).
    OneMachine,
    /// `EngineKind::Sequential` on the same graph and update function.
    Sequential,
    /// Machine 1 dies for good after this many deliveries; the survivor
    /// adopts its atoms.
    KillAt(u64),
}

/// What one `try_run` gave.
pub struct Rep {
    /// When the `try_run` call began.
    pub started: Instant,
    /// Wall clock of the `try_run` call (TCP: of the slower thread).
    pub wall_s: f64,
    /// `runtime − setup` of the slowest machine.
    pub time_to_fixpoint_s: f64,
    /// Cluster-wide metrics (TCP: the two processes' views merged).
    pub metrics: EngineMetrics,
    /// Machine 0's DFS: atoms and checkpoints.
    pub dfs: Arc<SimDfs>,
    /// Distance from the oracle, once [`judge`] has passed the rep.
    pub oracle_distance: f64,
    /// How much slower than undisturbed the CPU was during the call
    /// (`probe::Passes::slowdown`); 1 until a probed run sets it.
    pub slowdown: f64,
}

impl Rep {
    pub fn setup_s(&self) -> f64 {
        self.wall_s - self.time_to_fixpoint_s
    }
    pub fn updates_per_s(&self) -> f64 {
        self.metrics.updates as f64 / self.time_to_fixpoint_s
    }
    pub fn ns_per_update(&self) -> f64 {
        self.time_to_fixpoint_s * 1e9 / self.metrics.updates as f64
    }
    pub fn wire_bytes(&self) -> u64 {
        self.metrics.bytes_sent_per_machine.iter().sum()
    }
    pub fn wire_bytes_per_update(&self) -> f64 {
        self.wire_bytes() as f64 / self.metrics.updates as f64
    }
}

fn builder<'g, P: Problem>(
    p: &P,
    spec: &Spec,
    variant: Variant,
    graph: &'g mut DataGraph<P::V, f64>,
) -> GraphLab<'g, P::V, f64> {
    let vertices = graph.num_vertices() as u64;
    let mut b = GraphLab::on(graph)
        .engine(spec.engine)
        .machines(MACHINES)
        .scheduler(spec.scheduler)
        .max_updates(p.max_updates())
        .seed(ENGINE_SEED);
    if let Some(coloring) = p.supplied_coloring() {
        b = b.coloring(coloring);
    }
    if spec.snapshots {
        b = b.snapshot(SnapshotConfig {
            mode: SnapshotMode::Asynchronous,
            every_updates: vertices,
            max_snapshots: u64::MAX,
        });
    }
    match variant {
        Variant::Plain => b,
        Variant::Fifo => b.scheduler(SchedulerKind::Fifo),
        Variant::OneMachine => b.machines(1),
        Variant::Sequential => b.engine(EngineKind::Sequential),
        Variant::KillAt(deliveries) => b
            .recovery(RecoveryMode::Adopt)
            .faults(FaultPlan::seeded(ENGINE_SEED).kill(1, FaultTrigger::Deliveries(deliveries))),
    }
}

fn time_to_fixpoint(out: &EngineOutput) -> Duration {
    let setup = out
        .metrics
        .phases
        .iter()
        .map(|p| p.setup)
        .max()
        .unwrap_or_default();
    out.metrics.runtime.saturating_sub(setup)
}

/// One `try_run` on a clone of the input, oracle not consulted.
pub fn run_unchecked<P: Problem>(
    p: &P,
    spec: &Spec,
    variant: Variant,
) -> Result<(Rep, DataGraph<P::V, f64>), String> {
    let solo = matches!(variant, Variant::OneMachine | Variant::Sequential);
    if spec.tcp && !solo {
        return run_tcp(p, spec, variant);
    }
    let mut graph = p.graph().clone();
    let b = builder(p, spec, variant, &mut graph);
    let t0 = Instant::now();
    let out = b.try_run(p.update())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let rep = Rep {
        started: t0,
        wall_s,
        time_to_fixpoint_s: time_to_fixpoint(&out).as_secs_f64(),
        metrics: out.metrics,
        dfs: out.dfs,
        oracle_distance: f64::NAN,
        slowdown: 1.0,
    };
    Ok((rep, graph))
}

/// Distinguishes the meshes of one process: a straggler of the previous
/// rep's mesh is refused at the handshake.
static TCP_RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// The same run as two machine threads of this process, each with its own
/// graph clone and `TcpConfig`, talking over loopback sockets. Both threads
/// share this process's allocator and page cache, which two real hosts
/// would not.
fn run_tcp<P: Problem>(
    p: &P,
    spec: &Spec,
    variant: Variant,
) -> Result<(Rep, DataGraph<P::V, f64>), String> {
    // Reserve two free ports by binding to 0, and release them just before
    // the machines bind them again.
    let listeners: Vec<std::net::TcpListener> = (0..MACHINES)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reserving loopback ports: {e}"))?;
    let peers: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("reserving loopback ports: {e}"))?;
    drop(listeners);
    let run_id = (u64::from(std::process::id()) << 32)
        | TCP_RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);

    let mut graphs: Vec<DataGraph<P::V, f64>> = (0..MACHINES).map(|_| p.graph().clone()).collect();
    let start = Barrier::new(MACHINES);
    let started = Instant::now();
    let outs: Vec<Result<(EngineOutput, f64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = graphs
            .iter_mut()
            .enumerate()
            .map(|(m, graph)| {
                let tcp = TcpConfig::new(MachineId::from(m), peers.clone(), run_id);
                let start = &start;
                s.spawn(move || {
                    let b = builder(p, spec, variant, graph).transport(Transport::Tcp(tcp));
                    start.wait();
                    let t0 = Instant::now();
                    let out = b.try_run(p.update())?;
                    Ok((out, t0.elapsed().as_secs_f64()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("machine thread panicked"))
            .collect()
    });

    let outs: Vec<(EngineOutput, f64)> = outs.into_iter().collect::<Result<_, _>>()?;
    let slowest = |f: &dyn Fn(&(EngineOutput, f64)) -> f64| outs.iter().map(f).fold(0.0, f64::max);
    let wall_s = slowest(&|(_, wall_s)| *wall_s);
    let time_to_fixpoint_s = slowest(&|(out, _)| time_to_fixpoint(out).as_secs_f64());

    // Machine 0's graph and metrics, with every other machine's folded in.
    // Each wrote back only what it owns (vertex data; the workloads here
    // never write edges).
    let mut outs = outs.into_iter().map(|(out, _)| out);
    let first = outs.next().expect("machine 0 ran");
    let mut merged = graphs.remove(0);
    let mut metrics = first.metrics;
    for (m, (out, graph)) in (1..).zip(outs.zip(&graphs)) {
        for &v in out.owned.as_deref().unwrap_or_default() {
            *merged.vertex_data_mut(v) = graph.vertex_data(v).clone();
        }
        merge_metrics(&mut metrics, out.metrics, m);
    }
    let rep = Rep {
        started,
        wall_s,
        time_to_fixpoint_s,
        metrics,
        dfs: first.dfs,
        oracle_distance: f64::NAN,
        slowdown: 1.0,
    };
    Ok((rep, merged))
}

/// Folds machine `m`'s process-local view into the cluster view, the way
/// `graphlab-node spawn` merges its workers' reports.
fn merge_metrics(into: &mut EngineMetrics, from: EngineMetrics, m: usize) {
    fn add(into: &mut Vec<u64>, from: &[u64]) {
        if into.len() < from.len() {
            into.resize(from.len(), 0);
        }
        for (a, b) in into.iter_mut().zip(from) {
            *a += b;
        }
    }
    into.updates += from.updates;
    into.runtime = into.runtime.max(from.runtime);
    into.total_messages += from.total_messages;
    into.steps = into.steps.max(from.steps);
    into.snapshots = into.snapshots.max(from.snapshots);
    into.recoveries = into.recoveries.max(from.recoveries);
    into.adoptions = into.adoptions.max(from.adoptions);
    add(
        &mut into.bytes_sent_per_machine,
        &from.bytes_sent_per_machine,
    );
    add(&mut into.chain_spans, &from.chain_spans);
    add(&mut into.idle_wakeups, &from.idle_wakeups);
    into.phases[m] = from.phases[m];
    for (kind, t) in from.bytes_by_kind {
        match into.bytes_by_kind.binary_search_by_key(&kind, |(k, _)| *k) {
            Ok(i) => {
                into.bytes_by_kind[i].1.msgs += t.msgs;
                into.bytes_by_kind[i].1.bytes += t.bytes;
            }
            Err(i) => into.bytes_by_kind.insert(i, (kind, t)),
        }
    }
}

/// Judges a finished rep: the oracle, and for a snapshotting workload that
/// a complete checkpoint exists. `Ok` carries the distance from the oracle.
pub fn judge<P: Problem>(
    p: &P,
    spec: &Spec,
    rep: &Rep,
    after: &DataGraph<P::V, f64>,
) -> Result<f64, String> {
    let distance = p.check(after)?;
    if rep.metrics.updates == 0 {
        return Err("no update ran".into());
    }
    if spec.snapshots {
        if rep.metrics.snapshots == 0 {
            return Err("no snapshot completed".into());
        }
        if latest_complete_snapshot(&rep.dfs, SNAP_PREFIX, NUM_ATOMS).is_none() {
            return Err("no complete snapshot on the DFS".into());
        }
    }
    Ok(distance)
}

/// One rep as the protocol defines it: `try_run`, then the oracle.
pub fn run_checked<P: Problem>(p: &P, spec: &Spec, variant: Variant) -> Result<Rep, String> {
    let (mut rep, after) = run_unchecked(p, spec, variant)?;
    rep.oracle_distance = judge(p, spec, &rep, &after)?;
    Ok(rep)
}

/// Bytes of checkpoint files a run left on its DFS.
pub fn snapshot_bytes(dfs: &SimDfs) -> u64 {
    dfs.list_prefix(&format!("{SNAP_PREFIX}/"))
        .iter()
        .filter_map(|name| dfs.read(name).ok())
        .map(|b| b.len() as u64)
        .sum()
}

/// Reps of one run, failures counted and kept out of the timings.
///
/// A run goes round its workload's graphs: attempt `i` runs on graph
/// `i % graphs`, and `graphs` attempts in a row make a round. One sample of
/// a metric is the mean over a round's reps, so every sample has seen every
/// graph; a round with a failed rep gives no sample.
pub struct Tally {
    graphs: usize,
    exact_updates: bool,
    pub failures: Vec<String>,
    /// Successful reps, each with the number of its attempt.
    pub reps: Vec<(usize, Rep)>,
}

impl Tally {
    /// `exact_updates`: the workload's update count is a function of the
    /// graph (chromatic engine on SimNet), so a rep that disagrees with the
    /// first on its graph has failed.
    pub fn new(graphs: usize, exact_updates: bool) -> Self {
        Tally {
            graphs,
            exact_updates,
            failures: Vec::new(),
            reps: Vec::new(),
        }
    }

    /// Graph the next rep runs on.
    pub fn next_graph(&self) -> usize {
        self.attempted() as usize % self.graphs
    }

    /// Records the rep made on [`Tally::next_graph`].
    pub fn record(&mut self, rep: Result<Rep, String>) {
        let attempt = self.attempted() as usize;
        let graph = attempt % self.graphs;
        let first = self.reps.iter().find(|(i, _)| i % self.graphs == graph);
        let rep = rep.and_then(|rep| match first {
            Some((_, first))
                if self.exact_updates && first.metrics.updates != rep.metrics.updates =>
            {
                Err(format!(
                    "updates {} differ from the first rep's {}",
                    rep.metrics.updates, first.metrics.updates
                ))
            }
            _ => Ok(rep),
        });
        match rep {
            Ok(rep) => self.reps.push((attempt, rep)),
            Err(why) => self.failures.push(why),
        }
    }

    pub fn attempted(&self) -> u64 {
        (self.reps.len() + self.failures.len()) as u64
    }

    /// Complete rounds made so far, failed ones included.
    pub fn rounds(&self) -> u64 {
        self.attempted() / self.graphs as u64
    }

    /// One sample per round whose reps all succeeded: the mean of `f` over
    /// them.
    pub fn samples(&self, f: impl Fn(&Rep) -> f64) -> Vec<f64> {
        self.reps
            .chunk_by(|(a, _), (b, _)| a / self.graphs == b / self.graphs)
            .filter(|round| round.len() == self.graphs)
            .map(|round| round.iter().map(|(_, rep)| f(rep)).sum::<f64>() / self.graphs as f64)
            .collect()
    }
}
