//! The fixed names of the benchmark: five workloads, five end-to-end
//! metrics with their bounds, and the per-layer metrics. `BENCHMARK.json`
//! lists the same names; a test holds the two together.

use graphlab_core::{EngineKind, SchedulerKind};

/// Machines per run. Fixed here, not read from the host, so a result
/// means the same on any box; equals `nproc` of the calibration host, so
/// a run never has more engine threads than cores.
pub const MACHINES: usize = 2;

/// What the `GraphLab` builder derives for [`MACHINES`] (8 atoms each).
pub const NUM_ATOMS: usize = 8 * MACHINES;

/// Sizes and tolerances were tuned on this seed only; 1337 is held out
/// (`glbench all --seed 1337` must pass untouched).
pub const DEFAULT_SEED: u64 = 42;
/// `.seed(..)` of every engine run: partitioning and tie-breaking. Held
/// fixed while `--seed` varies the generated graph, because the hash
/// partition decides which machine the hubs (the lowest vertex ids of a
/// preferential-attachment graph) land on, and with it how many updates the
/// locking engine makes: 81 000 on `pr-locking` under most partition seeds,
/// 97 000 under 108, 125 000 under 109 on its own graph (README,
/// "Calibration"). Following `--seed` it made `time_to_fixpoint_s` spread
/// 29 % across ten seeds while `updates_per_s` spread 9 %.
pub const ENGINE_SEED: u64 = 42;
/// Measuring time of one run; `BENCHMARK.json` `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Seed of a workload's `g`-th graph: `--seed` itself for the first, and
/// for the others a value no neighbouring `--seed` gives any of its graphs.
pub fn graph_seed(seed: u64, g: usize) -> u64 {
    seed ^ (g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Input generator and its frozen size.
#[derive(Clone, Copy, Debug)]
pub enum Input {
    /// `web_graph(vertices, 4, seed)`, dynamic PageRank at α 0.15 run to
    /// `epsilon`.
    Web { vertices: usize, epsilon: f64 },
    /// `ratings_graph(users, movies, per_user, d, seed)`, ALS capped at
    /// `sweeps` × |V| updates.
    Ratings {
        users: usize,
        movies: usize,
        per_user: usize,
        d: usize,
        sweeps: u64,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub input: Input,
    /// Graphs a run generates and goes round. The locking engine's update
    /// count, and with it `time_to_fixpoint_s`, differs by 10 to 25 % from
    /// one generated graph to the next (79 000 to 101 000 on the 12 000
    /// vertices of `pr-locking-snap`); the mean over four differs by half
    /// of that. The chromatic engine's count differs by 0.4 %.
    pub graphs: usize,
    pub engine: EngineKind,
    pub scheduler: SchedulerKind,
    /// Loopback TCP between two machine threads instead of SimNet.
    pub tcp: bool,
    /// Asynchronous Chandy-Lamport snapshot every |V| updates.
    pub snapshots: bool,
}

/// Sizes: the frozen ones the numbers are reported at, or a few hundred
/// vertices for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Frozen,
    Smoke,
}

pub fn specs(scale: Scale) -> [Spec; 5] {
    let smoke = scale == Scale::Smoke;
    let web = |frozen: usize, epsilon: f64| Input::Web {
        vertices: if smoke { 500 } else { frozen },
        epsilon,
    };
    let locking = Spec {
        name: "pr-locking",
        why: "priority-scheduled PageRank on the locking engine: lock chains, Batcher, LZSS, delta scope sync, SimNet",
        input: web(12_000, 1e-9),
        graphs: 4,
        engine: EngineKind::Locking,
        scheduler: SchedulerKind::Priority,
        tcp: false,
        snapshots: false,
    };
    [
        Spec {
            name: "pr-chromatic",
            why: "cheap update on the largest graph: chromatic engine, codec, colouring and atom ingress do the work",
            input: web(100_000, 1e-10),
            graphs: 1,
            engine: EngineKind::Chromatic,
            scheduler: SchedulerKind::Fifo,
            tcp: false,
            snapshots: false,
        },
        locking,
        Spec {
            name: "als-chromatic",
            why: "O(d^3) update, almost no messages: compute-bound, must not move under net or lock changes",
            input: if smoke {
                Input::Ratings { users: 400, movies: 100, per_user: 8, d: 5, sweeps: 3 }
            } else {
                Input::Ratings { users: 6_000, movies: 1_500, per_user: 15, d: 20, sweeps: 10 }
            },
            graphs: 1,
            engine: EngineKind::Chromatic,
            scheduler: SchedulerKind::Fifo,
            tcp: false,
            snapshots: false,
        },
        Spec {
            name: "pr-locking-tcp",
            why: "pr-locking over host-loopback TCP: syscalls, framing and flush-before-recv show here only",
            tcp: true,
            ..locking
        },
        Spec {
            name: "pr-locking-snap",
            why: "pr-locking with an asynchronous snapshot every |V| updates: the same layers also write",
            snapshots: true,
            ..locking
        },
    ]
}

pub fn spec_named(name: &str, scale: Scale) -> Option<Spec> {
    specs(scale).into_iter().find(|s| s.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "time_to_fixpoint_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "updates_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_bytes_per_update",
        unit: "B",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Layer = crate (and module) the number is measured on. Every traced run
/// emits every one; a metric a workload has no part in reads 0 there
/// (`core.chromatic.steps` on a locking workload, `core.recovery.*`
/// anywhere but `pr-locking-snap`).
pub const PER_LAYER: [PerLayer; 61] = [
    layer("workloads.generate_s", "s", Lower),
    layer("workloads.vertices", "count", Higher),
    layer("workloads.edges", "count", Higher),
    layer("graph.coloring_s", "s", Lower),
    layer("graph.colors", "count", Lower),
    layer("atoms.partition_s", "s", Lower),
    layer("atoms.build_atoms_s", "s", Lower),
    layer("atoms.write_atoms_s", "s", Lower),
    layer("atoms.placement_s", "s", Lower),
    layer("atoms.load_part_s", "s", Lower),
    layer("atoms.journal_encode_mb_per_s", "MB/s", Higher),
    layer("atoms.journal_decode_mb_per_s", "MB/s", Higher),
    layer("atoms.cut_edge_share", "ratio", Lower),
    layer("atoms.ghost_ratio", "ratio", Lower),
    layer("net.codec.encode_ns_per_msg", "ns", Lower),
    layer("net.codec.decode_ns_per_msg", "ns", Lower),
    layer("net.codec.bytes_per_msg", "B", Lower),
    layer("net.lzss.compress_mb_per_s", "MB/s", Higher),
    layer("net.lzss.decompress_mb_per_s", "MB/s", Higher),
    layer("net.lzss.ratio", "ratio", Lower),
    layer("net.batcher.msgs_per_s", "1/s", Higher),
    layer("net.batcher.msgs_per_envelope", "count", Higher),
    layer("net.sim.msgs_per_s", "1/s", Higher),
    layer("net.sim.mb_per_s", "MB/s", Higher),
    layer("net.tcp.msgs_per_s", "1/s", Higher),
    layer("net.tcp.mb_per_s", "MB/s", Higher),
    layer("net.tcp.rtt_us", "us", Lower),
    layer("net.tcp.connect_s", "s", Lower),
    layer("net.wire_msgs_per_update", "ratio", Lower),
    layer("net.wait_share", "ratio", Lower),
    layer("net.wait_share_max", "ratio", Lower),
    layer("net.scope_bytes_share", "ratio", Lower),
    layer("net.lock_ctrl_bytes_share", "ratio", Lower),
    layer("net.zip_bytes_share", "ratio", Higher),
    layer("core.scheduler.fifo_ns_per_op", "ns", Lower),
    layer("core.scheduler.priority_ns_per_op", "ns", Lower),
    layer("core.scheduler.fifo_run_s", "s", Lower),
    layer("core.cache_table.ns_per_op", "ns", Lower),
    layer("core.local_graph.from_init_s", "s", Lower),
    layer("core.engine_m1.ns_per_update", "ns", Lower),
    layer("core.engine_tax_ns_per_update", "ns", Lower),
    layer("core.updates_to_fixpoint", "count", Lower),
    layer("core.compute_share", "ratio", Higher),
    layer("core.chromatic.steps", "count", Lower),
    layer("core.lock.chain_span_mean", "count", Lower),
    layer("core.lock.local_chain_share", "ratio", Higher),
    layer("core.sync.local_partial_s", "s", Lower),
    layer("core.snapshot.capture_s", "s", Lower),
    layer("core.snapshot.write_mb_per_s", "MB/s", Higher),
    layer("core.snapshot.restore_s", "s", Lower),
    layer("core.snapshot.count", "count", Lower),
    layer("core.snapshot.dfs_bytes", "B", Lower),
    layer("core.recovery.adopt_run_s", "s", Lower),
    layer("core.recovery.adoptions", "count", Lower),
    layer("apps.seq_ns_per_update", "ns", Lower),
    layer("apps.seq_updates_to_fixpoint", "count", Lower),
    // The traced rep and the replayed ingress against the untraced
    // protocol: tracing overhead and replay fidelity as numbers.
    layer("trace.time_to_fixpoint_s", "s", Lower),
    layer("trace.engine_setup_s", "s", Lower),
    layer("trace.setup_s", "s", Lower),
    layer("trace.setup_children_s", "s", Lower),
    layer("trace.total_s", "s", Lower),
];
