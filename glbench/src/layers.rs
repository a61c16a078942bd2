//! The traced run: every per-layer metric of one workload.
//!
//! The benchmark cannot see inside `try_run`, so it replays the layers
//! around it through their public functions: the driver's own ingress
//! sequence with the same arguments (`setup` and its children), one
//! opaque `engine.run`, and one `replay.<layer>` micro-driver per layer,
//! fed with the workload's own graph and cut scopes.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use graphlab_atoms::{
    build_atoms, load_machine_part, write_atoms, Atom, Placement, PlacementStrategy, SimDfs,
    VertexPartition,
};
use graphlab_core::messages::{
    EdgeRow, LockReqMsg, ReleaseMsg, ScheduleMsg, ScopeDataMsg, VertexRow, K_CHROM_EDATA,
    K_CHROM_VDATA, K_LOCK_REQ, K_LOCK_SCHED, K_RELEASE, K_SCOPE_DATA,
};
use graphlab_core::snapshot::{restore_atoms_into_local, write_snapshot_atoms};
use graphlab_core::{
    EngineKind, LocalGraph, RemoteCacheTable, Scheduler, SchedulerKind, SnapshotFile, TcpConfig,
};
use graphlab_graph::{
    greedy_coloring, verify_coloring, Coloring, DataGraph, EdgeDir, MachineId, VertexId,
};
use graphlab_net::cluster::HEADER_BYTES;
use graphlab_net::codec::{decode_from, encode_to_bytes};
use graphlab_net::{compress, BatchPolicy, Batcher, LatencyModel, SimNet, TcpNet, K_ZIP};

use crate::json::Json;
use crate::problem::{
    run_checked, run_unchecked, snapshot_bytes, AlsProblem, PageRankProblem, Problem, Rep, Variant,
};
use crate::result::{Metric, RunResult};
use crate::spec::{self, Input, Spec, ENGINE_SEED, MACHINES, NUM_ATOMS};
use crate::trace::{SpanId, Tracer};

/// Cut scopes the message corpus is built from (five messages each).
const CORPUS_SCOPES: usize = 4_096;
/// Envelope size the LZSS corpus is packed into: `BatchPolicy::max_bytes`.
const ENVELOPE_BYTES: usize = 16 * 1024;
/// Share of the machine-1-killed rep's deliveries after which it dies.
const KILL_AT_SHARE: f64 = 0.4;

/// Repeats `f` until `slice` has passed; returns passes made and seconds
/// taken. A micro-driver measures for its slice, not for a fixed count, so
/// a faster layer gives a steadier number, not a shorter run.
fn repeat_for(slice: Duration, mut f: impl FnMut()) -> (u64, f64) {
    let t0 = Instant::now();
    let mut passes = 0;
    loop {
        f();
        passes += 1;
        let elapsed = t0.elapsed();
        if elapsed >= slice {
            return (passes, elapsed.as_secs_f64());
        }
    }
}

/// xorshift64: the seeded stream behind the priority and version inputs.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Engine runs the trace makes besides `engine.run`, each counted in
/// `attempted`/`failed`.
pub struct Runs {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Runs {
    fn take(&mut self, what: &str, rep: Result<Rep, String>) -> Option<Rep> {
        self.attempted += 1;
        rep.map_err(|why| self.failures.push(format!("{what}: {why}")))
            .ok()
    }
}

/// Generates the workload and records every span and count of its traced
/// run.
pub fn trace_spans(spec: &Spec, seed: u64, seconds: f64) -> (Tracer, Runs) {
    let t = Tracer::new();
    let mut runs = Runs {
        attempted: 0,
        failures: Vec::new(),
    };
    // About thirty timed loops share the run with seven engine runs.
    let slice = Duration::from_secs_f64(seconds / 60.0);
    t.timed("trace", None, "trace.total_s", |root| match spec.input {
        Input::Web { vertices, epsilon } => {
            let mut p = generate(&t, root, || {
                PageRankProblem::generate(vertices, epsilon, seed)
            });
            t.span("harness.oracle", Some(root), |_| p.solve_oracle());
            trace_problem(&t, root, &p, spec, seed, slice, None, &mut runs);
        }
        Input::Ratings { .. } => {
            let mut p = generate(&t, root, || AlsProblem::generate(spec.input, seed));
            let seq = t.span("harness.oracle", Some(root), |_| p.solve_oracle(spec));
            let seq = runs.take("sequential oracle", seq);
            trace_problem(&t, root, &p, spec, seed, slice, seq, &mut runs);
        }
    });
    (t, runs)
}

/// The traced run of one workload: the result (every per-layer metric,
/// one sample each; 0 where the workload has no part in it) and the trace
/// file's content.
pub fn trace_workload(spec: &Spec, seed: u64, seconds: f64) -> (RunResult, Json) {
    let (t, runs) = trace_spans(spec, seed, seconds);
    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| Metric::new(m.name, m.unit, vec![t.value(m.name).unwrap_or(0.0)]))
        .collect();
    let result = RunResult {
        workload: spec.name.to_string(),
        seed,
        attempted: runs.attempted,
        failures: runs.failures,
        updates: t.value("core.updates_to_fixpoint").into_iter().collect(),
        oracle_distance: t.value("harness.oracle_distance").into_iter().collect(),
        // Per-layer numbers are wall clock as measured: no bound rests on them.
        host_slowdown: Vec::new(),
        metrics,
    };
    let trace = Json::obj([
        ("workload", Json::Str(spec.name.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("spans", t.to_json()),
    ]);
    (result, trace)
}

fn generate<P: Problem>(t: &Tracer, root: SpanId, make: impl FnOnce() -> P) -> P {
    t.timed(
        "workloads.generate",
        Some(root),
        "workloads.generate_s",
        |id| {
            let p = make();
            t.count(id, "workloads.vertices", p.graph().num_vertices() as f64);
            t.count(id, "workloads.edges", p.graph().num_edges() as f64);
            p
        },
    )
}

#[allow(clippy::too_many_arguments)]
fn trace_problem<P: Problem>(
    t: &Tracer,
    root: SpanId,
    p: &P,
    spec: &Spec,
    seed: u64,
    slice: Duration,
    seq_from_oracle: Option<Rep>,
    runs: &mut Runs,
) {
    let graph = p.graph();
    // As in the untraced run, the rep that counts follows a warm-up, and
    // so does the replayed ingress: both would otherwise pay the process's
    // first page faults, which no untraced rep does.
    let warm = t.span("harness.warmup", Some(root), |_| {
        run_checked(p, spec, Variant::Plain)
    });
    runs.take("warm-up", warm);
    let run = t.span("engine.run", Some(root), |id| {
        let rep = run_checked(p, spec, Variant::Plain);
        if let Ok(rep) = &rep {
            engine_counts(t, id, rep);
        }
        rep
    });
    let run = runs.take("engine.run", run);

    let ingress = replay_ingress(t, root, p, spec);

    t.span("replay.atoms", Some(root), |id| {
        replay_journals(t, id, &ingress.atoms, slice)
    });
    let corpus = Corpus::from_cut_scopes(graph, &ingress);
    t.span("replay.net.codec", Some(root), |id| {
        replay_codec(t, id, &corpus, slice)
    });
    t.span("replay.net.lzss", Some(root), |id| {
        replay_lzss(t, id, &corpus, slice)
    });
    t.span("replay.net.batcher", Some(root), |id| {
        replay_batcher(t, id, &corpus, slice)
    });
    t.span("replay.net.sim", Some(root), |id| {
        replay_sim(t, id, &corpus, slice)
    });
    t.span("replay.net.tcp", Some(root), |id| {
        replay_tcp(t, id, &corpus, slice)
    });
    t.span("replay.core.scheduler", Some(root), |id| {
        replay_scheduler(t, id, graph.num_vertices(), seed, slice)
    });
    let mut lg0 = ingress.locals.into_iter().next().expect("machine 0 loaded");
    t.span("replay.core.cache_table", Some(root), |id| {
        replay_cache_table(t, id, &lg0, seed, slice)
    });
    t.timed(
        "replay.core.sync",
        Some(root),
        "core.sync.local_partial_s",
        |_| {
            black_box(p.sync_partial(&lg0));
        },
    );
    t.span("replay.core.snapshot", Some(root), |id| {
        replay_snapshot(t, id, &mut lg0, &ingress.placement)
    });
    drop(lg0);

    // The same program on the sequential engine and on one machine: what
    // an update costs with no engine around it, and with no peer.
    let seq = t.span("replay.apps.seq", Some(root), |id| {
        let seq = match seq_from_oracle {
            Some(rep) => Some(rep),
            None => {
                let rep = run_unchecked(p, spec, Variant::Sequential).map(|(rep, _)| rep);
                runs.take("sequential engine", rep)
            }
        }?;
        let ns = seq.ns_per_update();
        t.count(id, "apps.seq_ns_per_update", ns);
        t.count(
            id,
            "apps.seq_updates_to_fixpoint",
            seq.metrics.updates as f64,
        );
        Some(ns)
    });
    t.span("replay.core.engine_m1", Some(root), |id| {
        let rep = run_unchecked(p, spec, Variant::OneMachine).map(|(rep, _)| rep);
        let Some(m1) = runs.take("one-machine engine", rep) else {
            return;
        };
        let ns = m1.ns_per_update();
        t.count(id, "core.engine_m1.ns_per_update", ns);
        if let Some(seq_ns) = seq {
            t.count(id, "core.engine_tax_ns_per_update", ns - seq_ns);
        }
    });
    if spec.engine == EngineKind::Locking {
        t.span("replay.core.scheduler.fifo_run", Some(root), |id| {
            let rep = run_checked(p, spec, Variant::Fifo);
            if let Some(rep) = runs.take("FIFO run", rep) {
                t.count(id, "core.scheduler.fifo_run_s", rep.time_to_fixpoint_s);
            }
        });
    }
    if let (true, Some(run)) = (spec.snapshots, &run) {
        t.span("replay.core.recovery", Some(root), |id| {
            let kill_at = (run.metrics.total_messages as f64 * KILL_AT_SHARE) as u64;
            let rep = run_checked(p, spec, Variant::KillAt(kill_at));
            if let Some(rep) = runs.take("adoption run", rep) {
                t.count(id, "core.recovery.adopt_run_s", rep.time_to_fixpoint_s);
                t.count(id, "core.recovery.adoptions", rep.metrics.adoptions as f64);
            }
        });
    }
}

/// What the replayed ingress leaves for the micro-drivers.
struct Ingress<V> {
    atoms: Vec<Atom<V, f64>>,
    partition: VertexPartition,
    placement: Placement,
    locals: Vec<LocalGraph<V, f64>>,
}

impl<V> Ingress<V> {
    fn machine_of(&self, v: VertexId) -> MachineId {
        self.placement.machine_of(self.partition.atom_of(v))
    }
}

/// `program::run_inner` + `driver::run_distributed` up to the machine
/// loop, call for call: colouring, partition, atoms onto the DFS,
/// placement, and per machine (in parallel, as the driver's machine
/// threads do) journal playback and the local graph. The driver drops the
/// atoms after writing them; the replay keeps them for `replay.atoms`.
fn replay_ingress<P: Problem>(t: &Tracer, root: SpanId, p: &P, spec: &Spec) -> Ingress<P::V> {
    let graph = p.graph();
    t.timed("setup", Some(root), "trace.setup_s", |setup| {
        let coloring = t.timed("graph.coloring", Some(setup), "graph.coloring_s", |id| {
            let coloring = match spec.engine {
                EngineKind::Chromatic => {
                    let c = p
                        .supplied_coloring()
                        .unwrap_or_else(|| greedy_coloring(graph));
                    assert!(verify_coloring(graph, &c, 1), "edge-consistent colouring");
                    c
                }
                _ => Coloring::uniform(graph.num_vertices()),
            };
            t.count(id, "graph.colors", f64::from(coloring.num_colors()));
            coloring
        });
        let partition = t.timed("atoms.partition", Some(setup), "atoms.partition_s", |_| {
            VertexPartition::random_hash(graph.num_vertices(), NUM_ATOMS, ENGINE_SEED)
        });
        let (atoms, index) = t.timed(
            "atoms.build_atoms",
            Some(setup),
            "atoms.build_atoms_s",
            |_| build_atoms(graph, &partition, "graph"),
        );
        let dfs = SimDfs::new();
        t.timed(
            "atoms.write_atoms",
            Some(setup),
            "atoms.write_atoms_s",
            |_| write_atoms(&dfs, "graph", &atoms, &index),
        );
        let placement = t.timed("atoms.placement", Some(setup), "atoms.placement_s", |_| {
            Placement::with_strategy(&index, MACHINES, PlacementStrategy::default())
        });

        let coloring = (spec.engine == EngineKind::Chromatic).then_some(&coloring);
        let (dfs, index, placement_ref) = (&dfs, &index, &placement);
        let locals: Vec<LocalGraph<P::V, f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..MACHINES)
                .map(|m| {
                    s.spawn(move || {
                        let load = format!("atoms.load_part[{m}]");
                        let init = t.timed(&load, Some(setup), "atoms.load_part_s", |_| {
                            load_machine_part::<P::V, f64>(
                                dfs,
                                index,
                                placement_ref,
                                MachineId::from(m),
                            )
                            .expect("ingress of atoms just written")
                        });
                        let ghosts = init
                            .vertices
                            .iter()
                            .filter(|v| v.owner != init.machine)
                            .count();
                        let from_init = format!("core.local_graph.from_init[{m}]");
                        let lg = t.timed(
                            &from_init,
                            Some(setup),
                            "core.local_graph.from_init_s",
                            |_| LocalGraph::from_init(init, coloring),
                        );
                        (lg, ghosts)
                    })
                })
                .collect();
            let loaded: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("ingress thread panicked"))
                .collect();
            let ghosts: usize = loaded.iter().map(|(_, g)| g).sum();
            t.count(
                setup,
                "atoms.ghost_ratio",
                ghosts as f64 / graph.num_vertices() as f64,
            );
            loaded.into_iter().map(|(lg, _)| lg).collect()
        });

        let ingress = Ingress {
            atoms,
            partition,
            placement,
            locals,
        };
        let cut = graph
            .edges()
            .filter(|&e| {
                let (u, v) = graph.edge_endpoints(e);
                ingress.machine_of(u) != ingress.machine_of(v)
            })
            .count();
        t.count(
            setup,
            "atoms.cut_edge_share",
            cut as f64 / graph.num_edges() as f64,
        );

        // What `setup_s` covers of this: everything but the local graphs,
        // which the machine loop builds after its `setup` phase ends.
        let children = [
            "graph.coloring_s",
            "atoms.partition_s",
            "atoms.build_atoms_s",
            "atoms.write_atoms_s",
            "atoms.placement_s",
            "atoms.load_part_s",
        ];
        let sum: f64 = children.iter().filter_map(|m| t.value(m)).sum();
        t.count(setup, "trace.setup_children_s", sum);
        ingress
    })
}

/// The per-layer numbers `EngineMetrics` of the traced rep carries.
fn engine_counts(t: &Tracer, id: SpanId, rep: &Rep) {
    let m = &rep.metrics;
    let updates = m.updates as f64;
    t.count(id, "trace.time_to_fixpoint_s", rep.time_to_fixpoint_s);
    t.count(id, "trace.engine_setup_s", rep.setup_s());
    t.count(id, "harness.oracle_distance", rep.oracle_distance);
    t.count(id, "core.updates_to_fixpoint", updates);
    t.count(id, "core.chromatic.steps", m.steps as f64);
    t.count(
        id,
        "net.wire_msgs_per_update",
        m.total_messages as f64 / updates,
    );

    let share = |part: Duration, whole: Duration| part.as_secs_f64() / whole.as_secs_f64();
    let waits: Vec<f64> = m
        .phases
        .iter()
        .map(|p| share(p.net_wait, p.total()))
        .collect();
    t.count(
        id,
        "net.wait_share",
        waits.iter().sum::<f64>() / waits.len() as f64,
    );
    t.count(
        id,
        "net.wait_share_max",
        waits.iter().copied().fold(0.0, f64::max),
    );
    let compute: Duration = m.phases.iter().map(|p| p.compute).sum();
    let total: Duration = m.phases.iter().map(|p| p.total()).sum();
    t.count(id, "core.compute_share", share(compute, total));

    let bytes_of = |kinds: &[u16]| -> f64 {
        let of_kinds = m.bytes_by_kind.iter().filter(|(k, _)| kinds.contains(k));
        // `+ 0.0`: an empty float sum is -0.0.
        of_kinds.map(|(_, t)| t.bytes as f64).sum::<f64>() + 0.0
    };
    let all_bytes: f64 = m.bytes_by_kind.iter().map(|(_, t)| t.bytes as f64).sum();
    let scope = bytes_of(&[K_SCOPE_DATA, K_CHROM_VDATA, K_CHROM_EDATA]);
    t.count(id, "net.scope_bytes_share", scope / all_bytes);
    let ctrl = bytes_of(&[K_LOCK_REQ, K_RELEASE, K_LOCK_SCHED]);
    t.count(id, "net.lock_ctrl_bytes_share", ctrl / all_bytes);
    t.count(id, "net.zip_bytes_share", bytes_of(&[K_ZIP]) / all_bytes);

    let chains: u64 = m.chain_spans.iter().sum();
    t.count(id, "core.lock.chain_span_mean", m.mean_chain_span());
    if chains > 0 {
        let local = m.chain_spans.get(1).copied().unwrap_or(0);
        t.count(
            id,
            "core.lock.local_chain_share",
            local as f64 / chains as f64,
        );
    }
    t.count(id, "core.snapshot.count", m.snapshots as f64);
    t.count(
        id,
        "core.snapshot.dfs_bytes",
        snapshot_bytes(&rep.dfs) as f64,
    );
}

fn replay_journals<V: graphlab_net::Codec>(
    t: &Tracer,
    id: SpanId,
    atoms: &[Atom<V, f64>],
    slice: Duration,
) {
    let mut journals: Vec<Bytes> = Vec::new();
    let (passes, secs) = repeat_for(slice, || {
        journals = atoms.iter().map(|a| a.encode_journal()).collect();
    });
    let mb = journals.iter().map(Bytes::len).sum::<usize>() as f64 / 1e6;
    t.count(
        id,
        "atoms.journal_encode_mb_per_s",
        mb * passes as f64 / secs,
    );
    let (passes, secs) = repeat_for(slice, || {
        for j in &journals {
            black_box(Atom::<V, f64>::decode_journal(j.clone()).expect("journal just encoded"));
        }
    });
    t.count(
        id,
        "atoms.journal_decode_mb_per_s",
        mb * passes as f64 / secs,
    );
}

/// One message of the corpus, in the engines' own wire types.
enum Msg {
    Row(VertexRow),
    Scope(ScopeDataMsg),
    Lock(LockReqMsg),
    Release(ReleaseMsg),
    Schedule(ScheduleMsg),
}

impl Msg {
    fn kind(&self) -> u16 {
        match self {
            Msg::Row(_) => K_CHROM_VDATA,
            Msg::Scope(_) => K_SCOPE_DATA,
            Msg::Lock(_) => K_LOCK_REQ,
            Msg::Release(_) => K_RELEASE,
            Msg::Schedule(_) => K_LOCK_SCHED,
        }
    }

    fn encode(&self) -> Bytes {
        match self {
            Msg::Row(m) => encode_to_bytes(m),
            Msg::Scope(m) => encode_to_bytes(m),
            Msg::Lock(m) => encode_to_bytes(m),
            Msg::Release(m) => encode_to_bytes(m),
            Msg::Schedule(m) => encode_to_bytes(m),
        }
    }

    fn decode(kind: u16, bytes: Bytes) -> Option<Msg> {
        Some(match kind {
            K_CHROM_VDATA => Msg::Row(decode_from(bytes)?),
            K_SCOPE_DATA => Msg::Scope(decode_from(bytes)?),
            K_LOCK_REQ => Msg::Lock(decode_from(bytes)?),
            K_RELEASE => Msg::Release(decode_from(bytes)?),
            K_LOCK_SCHED => Msg::Schedule(decode_from(bytes)?),
            _ => return None,
        })
    }
}

/// The messages a locked update of a cut scope puts on the wire, built
/// from the workload's own graph: the lock request to the other machine,
/// the scope data it answers with (rows of everything it owns in the
/// scope), the release, the schedule request for the out-neighbours it
/// owns, and the centre's own row as a ghost push carries it.
struct Corpus {
    msgs: Vec<Msg>,
    wire: Vec<(u16, Bytes)>,
}

impl Corpus {
    fn from_cut_scopes<V: graphlab_net::Codec>(
        graph: &DataGraph<V, f64>,
        ing: &Ingress<V>,
    ) -> Self {
        let mut msgs = Vec::new();
        let row = |v: VertexId, version: u64| VertexRow {
            vid: v,
            version,
            snap: 0,
            data: encode_to_bytes(graph.vertex_data(v)),
        };
        for v in graph.vertices() {
            let home = ing.machine_of(v);
            let Some(remote) = graph
                .adj(v)
                .iter()
                .map(|e| ing.machine_of(e.nbr))
                .find(|&m| m != home)
            else {
                continue;
            };
            let reqid = msgs.len() as u64;
            let version = 1 + reqid % 7;
            let theirs = || {
                graph
                    .adj(v)
                    .iter()
                    .filter(|e| ing.machine_of(e.nbr) == remote)
            };
            let mut vrows: Vec<VertexRow> = theirs().map(|e| row(e.nbr, version)).collect();
            vrows.sort_by_key(|r| r.vid);
            vrows.dedup_by_key(|r| r.vid);
            // An edge belongs to the machine owning its target.
            let erows = theirs()
                .filter(|e| e.dir == EdgeDir::Out)
                .map(|e| EdgeRow {
                    eid: e.edge,
                    version,
                    data: encode_to_bytes(graph.edge_data(e.edge)),
                })
                .collect();
            let tasks = theirs()
                .filter(|e| e.dir == EdgeDir::Out)
                .map(|e| (e.nbr, 1e-3 / version as f64))
                .collect();
            msgs.push(Msg::Lock(LockReqMsg {
                requester: home,
                reqid,
                scope_v: v,
                machines: vec![remote],
                model: 1,
            }));
            msgs.push(Msg::Scope(ScopeDataMsg {
                reqid,
                vrows,
                erows,
                vsame: 0,
                esame: 0,
            }));
            // The workloads write the centre only, which the requester owns.
            msgs.push(Msg::Release(ReleaseMsg {
                reqid,
                vwrites: Vec::new(),
                ewrites: Vec::new(),
            }));
            msgs.push(Msg::Schedule(ScheduleMsg { tasks }));
            msgs.push(Msg::Row(row(v, version)));
            if msgs.len() >= 5 * CORPUS_SCOPES {
                break;
            }
        }
        assert!(
            !msgs.is_empty(),
            "a two-machine hash partition cuts some scope"
        );
        let wire = msgs.iter().map(|m| (m.kind(), m.encode())).collect();
        Corpus { msgs, wire }
    }

    fn wire_mb(&self) -> f64 {
        self.wire
            .iter()
            .map(|(_, b)| HEADER_BYTES + b.len())
            .sum::<usize>() as f64
            / 1e6
    }
}

fn replay_codec(t: &Tracer, id: SpanId, corpus: &Corpus, slice: Duration) {
    let n = corpus.msgs.len() as f64;
    let (passes, secs) = repeat_for(slice, || {
        for m in &corpus.msgs {
            black_box(m.encode());
        }
    });
    t.count(
        id,
        "net.codec.encode_ns_per_msg",
        secs * 1e9 / (passes as f64 * n),
    );
    let (passes, secs) = repeat_for(slice, || {
        for (kind, bytes) in &corpus.wire {
            black_box(Msg::decode(*kind, bytes.clone()).expect("message just encoded"));
        }
    });
    t.count(
        id,
        "net.codec.decode_ns_per_msg",
        secs * 1e9 / (passes as f64 * n),
    );
    let bytes: usize = corpus.wire.iter().map(|(_, b)| b.len()).sum();
    t.count(id, "net.codec.bytes_per_msg", bytes as f64 / n);
}

fn replay_lzss(t: &Tracer, id: SpanId, corpus: &Corpus, slice: Duration) {
    // Batch envelopes as the Batcher fills them: sub-messages back to back
    // up to `max_bytes`.
    let mut envelopes: Vec<Vec<u8>> = vec![Vec::new()];
    for (kind, bytes) in &corpus.wire {
        if envelopes.last().expect("never empty").len() + bytes.len() > ENVELOPE_BYTES {
            envelopes.push(Vec::new());
        }
        let env = envelopes.last_mut().expect("never empty");
        env.extend_from_slice(&kind.to_le_bytes());
        env.extend_from_slice(bytes);
    }
    let raw_mb = envelopes.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    let mut packed: Vec<Vec<u8>> = Vec::new();
    let (passes, secs) = repeat_for(slice, || {
        packed = envelopes.iter().map(|e| compress::compress(e)).collect();
    });
    t.count(
        id,
        "net.lzss.compress_mb_per_s",
        raw_mb * passes as f64 / secs,
    );
    let packed_mb = packed.iter().map(Vec::len).sum::<usize>() as f64 / 1e6;
    t.count(id, "net.lzss.ratio", packed_mb / raw_mb);
    let (passes, secs) = repeat_for(slice, || {
        for (z, raw) in packed.iter().zip(&envelopes) {
            let back = compress::decompress(z).expect("envelope just compressed");
            assert_eq!(back.len(), raw.len());
        }
    });
    t.count(
        id,
        "net.lzss.decompress_mb_per_s",
        raw_mb * passes as f64 / secs,
    );
}

fn replay_batcher(t: &Tracer, id: SpanId, corpus: &Corpus, slice: Duration) {
    let (_net, endpoints) = SimNet::new(2, LatencyModel::ZERO);
    let mut batchers: Vec<Batcher> = endpoints
        .into_iter()
        .map(|e| Batcher::new(e.into(), BatchPolicy::default()))
        .collect();
    let (mut tx, mut rx) = {
        let rx = batchers.pop().expect("two endpoints");
        (batchers.pop().expect("two endpoints"), rx)
    };
    let dst = rx.id();
    let (passes, secs) = repeat_for(slice, || {
        for (kind, bytes) in &corpus.wire {
            tx.send(dst, *kind, bytes.clone());
        }
        tx.flush_all();
        let mut got = 0;
        while rx.try_recv().is_ok() {
            got += 1;
        }
        assert_eq!(
            got,
            corpus.wire.len(),
            "the batcher delivers what it was sent"
        );
    });
    let sent = (passes as usize * corpus.wire.len()) as f64;
    t.count(id, "net.batcher.msgs_per_s", sent / secs);
    let c = tx.counters();
    t.count(
        id,
        "net.batcher.msgs_per_envelope",
        sent / (c.batches + c.unbatched) as f64,
    );
}

fn replay_sim(t: &Tracer, id: SpanId, corpus: &Corpus, slice: Duration) {
    let (_net, mut endpoints) = SimNet::new(2, LatencyModel::ZERO);
    let rx = endpoints.pop().expect("two endpoints");
    let tx = endpoints.pop().expect("two endpoints");
    let (passes, secs) = repeat_for(slice, || {
        for (kind, bytes) in &corpus.wire {
            tx.send(rx.id(), *kind, bytes.clone());
        }
        let mut got = 0;
        while rx.try_recv().is_ok() {
            got += 1;
        }
        assert_eq!(got, corpus.wire.len(), "SimNet delivers what it was sent");
    });
    t.count(
        id,
        "net.sim.msgs_per_s",
        (passes as usize * corpus.wire.len()) as f64 / secs,
    );
    t.count(
        id,
        "net.sim.mb_per_s",
        corpus.wire_mb() * passes as f64 / secs,
    );
}

const K_PING: u16 = 1;
const K_END: u16 = 2;
const K_DATA: u16 = 3;
const K_QUIT: u16 = 4;

/// A `TcpNet::connect` pair on the host's loopback: machine 1 echoes
/// pings and end-of-pass markers, machine 0 measures.
fn replay_tcp(t: &Tracer, id: SpanId, corpus: &Corpus, slice: Duration) {
    let listeners: Vec<std::net::TcpListener> = (0..2)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("a free loopback port"))
        .collect();
    let peers: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().expect("bound").to_string())
        .collect();
    drop(listeners);
    let run_id = u64::from(std::process::id()) << 32 | 0xFFFF_FFFF;
    let config = |m: usize| TcpConfig::new(MachineId::from(m), peers.clone(), run_id);

    std::thread::scope(|s| {
        let echo = s.spawn(|| {
            let (net, ep) = TcpNet::connect(&config(1)).expect("loopback mesh");
            // An endpoint's inbox never disconnects (it holds a sender for
            // self-sends), so the loop ends on a message, not on EOF.
            loop {
                let env = ep.recv().expect("inbox open while the endpoint lives");
                match env.kind {
                    K_PING | K_END => ep.send(env.src, env.kind, env.payload),
                    K_QUIT => break,
                    _ => {}
                }
            }
            net.shutdown();
            drop(ep);
            drop(net);
        });
        let t0 = Instant::now();
        let (net, ep) = TcpNet::connect(&config(0)).expect("loopback mesh");
        let peer = MachineId::from(1usize);
        // The first round trip completes once machine 1 has dialled back.
        ep.send(peer, K_PING, Bytes::new());
        ep.recv().expect("first echo");
        t.count(id, "net.tcp.connect_s", t0.elapsed().as_secs_f64());

        let (pings, secs) = repeat_for(slice, || {
            ep.send(peer, K_PING, Bytes::new());
            ep.recv().expect("echo");
        });
        t.count(id, "net.tcp.rtt_us", secs * 1e6 / pings as f64);

        let (passes, secs) = repeat_for(slice, || {
            for (_, bytes) in &corpus.wire {
                ep.send(peer, K_DATA, bytes.clone());
            }
            // Per-channel FIFO: the marker's echo means all of it arrived.
            ep.send(peer, K_END, Bytes::new());
            ep.recv().expect("end-of-pass echo");
        });
        t.count(
            id,
            "net.tcp.msgs_per_s",
            (passes as usize * corpus.wire.len()) as f64 / secs,
        );
        t.count(
            id,
            "net.tcp.mb_per_s",
            corpus.wire_mb() * passes as f64 / secs,
        );

        ep.send(peer, K_QUIT, Bytes::new());
        net.shutdown();
        drop(ep);
        drop(net);
        echo.join().expect("echo thread panicked");
    });
}

/// Add then pop every vertex of a |V|-sized scheduler, priorities spread
/// over eight decades the way PageRank residuals are.
fn replay_scheduler(t: &Tracer, id: SpanId, vertices: usize, seed: u64, slice: Duration) {
    let mut state = seed | 1;
    let priorities: Vec<f64> = (0..vertices)
        .map(|_| 10f64.powf(-8.0 * (next(&mut state) >> 11) as f64 / (1u64 << 53) as f64))
        .collect();
    for (kind, metric) in [
        (SchedulerKind::Fifo, "core.scheduler.fifo_ns_per_op"),
        (SchedulerKind::Priority, "core.scheduler.priority_ns_per_op"),
    ] {
        let mut scheduler = Scheduler::new(kind, vertices);
        let (passes, secs) = repeat_for(slice, || {
            for (v, &p) in priorities.iter().enumerate() {
                scheduler.add(v as u32, p);
            }
            while let Some(v) = scheduler.pop() {
                black_box(v);
            }
        });
        t.count(
            id,
            metric,
            secs * 1e9 / (passes as f64 * 2.0 * vertices as f64),
        );
    }
}

/// The owner-side delta filter of scope sync: per row shipped, one
/// `v_known` and one `note_v`, at random local vertices.
fn replay_cache_table<V>(
    t: &Tracer,
    id: SpanId,
    lg: &LocalGraph<V, f64>,
    seed: u64,
    slice: Duration,
) {
    let (nv, ne) = (lg.num_local_vertices(), lg.num_local_edges());
    let mut table = RemoteCacheTable::new(MACHINES, nv, ne);
    let mut state = seed | 1;
    let probes: Vec<(u32, u64)> = (0..nv)
        .map(|_| ((next(&mut state) % nv as u64) as u32, next(&mut state) % 64))
        .collect();
    let (passes, secs) = repeat_for(slice, || {
        let mut fresh = 0u64;
        for &(lv, version) in &probes {
            if table.v_known(1, lv) < version {
                table.note_v(1, lv, version);
                fresh += 1;
            }
        }
        black_box(fresh);
        table.invalidate_all();
    });
    t.count(
        id,
        "core.cache_table.ns_per_op",
        secs * 1e9 / (passes as f64 * nv as f64),
    );
}

/// A synchronous checkpoint of machine 0: capture, per-atom write,
/// restore into the same local graph.
fn replay_snapshot<V: graphlab_net::Codec>(
    t: &Tracer,
    id: SpanId,
    lg: &mut LocalGraph<V, f64>,
    placement: &Placement,
) {
    let dfs = Arc::new(SimDfs::new());
    let atoms = placement.atoms_of(lg.machine());
    let rows = t.timed(
        "core.snapshot.capture",
        Some(id),
        "core.snapshot.capture_s",
        |_| SnapshotFile::capture(lg),
    );
    let t0 = Instant::now();
    t.span("core.snapshot.write", Some(id), |_| {
        write_snapshot_atoms(&dfs, "replay", 1, rows, lg, &atoms)
    });
    let secs = t0.elapsed().as_secs_f64();
    t.count(
        id,
        "core.snapshot.write_mb_per_s",
        dfs.total_size() as f64 / 1e6 / secs,
    );
    t.timed(
        "core.snapshot.restore",
        Some(id),
        "core.snapshot.restore_s",
        |_| restore_atoms_into_local(&dfs, "replay", 1, &atoms, lg).expect("snapshot just written"),
    );
}
