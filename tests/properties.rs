//! Property-based tests (proptest) over the core data structures and
//! distributed invariants.

use proptest::prelude::*;

use graphlab::atoms::{
    build_atoms, load_machine_part, write_atoms, Atom, AtomIndex, InitEdge, InitVertex,
    JournalWriter, LocalGraphInit, SimDfs, VertexPartition,
};
use graphlab::atoms::placement::Placement;
use graphlab::graph::{
    greedy_coloring, second_order_coloring, verify_coloring, DataGraph, GraphBuilder, MachineId,
    VertexId,
};
use graphlab::net::codec::{decode_from, encode_to_bytes};

/// Random graph strategy: `n` vertices with arbitrary f64 data, edge list
/// over them.
fn arb_graph() -> impl Strategy<Value = DataGraph<f64, f64>> {
    (2usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n, -100.0f64..100.0), 0..120);
        edges.prop_map(move |edges| {
            let mut b = GraphBuilder::new();
            for i in 0..n {
                b.add_vertex(i as f64 * 0.5);
            }
            for (s, d, w) in edges {
                if s != d {
                    b.add_edge(VertexId(s as u32), VertexId(d as u32), w).unwrap();
                }
            }
            b.build()
        })
    })
}

/// Reference model of `load_machine_part`: the map-based algorithm it ran
/// until PR 23, over whole decoded [`Atom`]s and ordered maps. Owned records
/// win over ghost records, a ghost's first record wins over later ones, an
/// edge belongs to the machine of its target's atom, and every copy of an
/// edge collapses into one.
fn reference_machine_part(
    dfs: &SimDfs,
    index: &AtomIndex,
    placement: &Placement,
    machine: MachineId,
) -> LocalGraphInit<f64, f64> {
    use std::collections::BTreeMap;
    let decoded: Vec<Atom<f64, f64>> = placement
        .atoms_of(machine)
        .iter()
        .map(|&a| Atom::decode_journal(dfs.read(&index.entry(a).file).unwrap()).unwrap())
        .collect();

    let mut vertices = BTreeMap::new();
    let mut owner_atom = BTreeMap::new();
    for atom in &decoded {
        for ov in &atom.owned_vertices {
            let mut mirrors: Vec<MachineId> = ov
                .mirrors
                .iter()
                .map(|&ma| placement.machine_of(ma))
                .filter(|&m| m != machine)
                .collect();
            mirrors.sort_unstable();
            mirrors.dedup();
            owner_atom.insert(ov.gvid, atom.id);
            vertices.insert(
                ov.gvid,
                InitVertex { gvid: ov.gvid, atom: atom.id, owner: machine, mirrors, data: ov.data },
            );
        }
    }
    for gv in decoded.iter().flat_map(|atom| &atom.ghost_vertices) {
        owner_atom.entry(gv.gvid).or_insert(gv.owner_atom);
        vertices.entry(gv.gvid).or_insert_with(|| InitVertex {
            gvid: gv.gvid,
            atom: gv.owner_atom,
            owner: placement.machine_of(gv.owner_atom),
            mirrors: Vec::new(),
            data: gv.data,
        });
    }
    let mut edges = BTreeMap::new();
    for ae in decoded.iter().flat_map(|atom| &atom.edges) {
        let owner = placement.machine_of(owner_atom[&ae.dst]);
        edges.entry(ae.geid).or_insert(InitEdge {
            geid: ae.geid,
            src: ae.src,
            dst: ae.dst,
            owner,
            data: ae.data,
        });
    }
    LocalGraphInit {
        machine,
        num_machines: placement.num_machines(),
        vertices: vertices.into_values().collect(),
        edges: edges.into_values().collect(),
        total_vertices: index.total_vertices,
        total_edges: index.total_edges,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_roundtrip_vecs(v in proptest::collection::vec(-1e12f64..1e12, 0..64)) {
        let enc = encode_to_bytes(&v);
        prop_assert_eq!(decode_from::<Vec<f64>>(enc), Some(v));
    }

    #[test]
    fn codec_roundtrip_pairs(v in proptest::collection::vec((0u32..u32::MAX, -1e6f64..1e6), 0..32)) {
        let tagged: Vec<(VertexId, f64)> = v.into_iter().map(|(a, b)| (VertexId(a), b)).collect();
        let enc = encode_to_bytes(&tagged);
        prop_assert_eq!(decode_from::<Vec<(VertexId, f64)>>(enc), Some(tagged));
    }

    #[test]
    fn greedy_coloring_is_always_proper(g in arb_graph()) {
        let c = greedy_coloring(&g);
        prop_assert!(verify_coloring(&g, &c, 1));
    }

    #[test]
    fn second_order_coloring_is_distance2_proper(g in arb_graph()) {
        let c = second_order_coloring(&g);
        prop_assert!(verify_coloring(&g, &c, 2));
    }

    #[test]
    fn csr_adjacency_is_consistent(g in arb_graph()) {
        // Every edge appears exactly once in each endpoint's adjacency.
        let mut counts = vec![0usize; g.num_edges()];
        for v in g.vertices() {
            for e in g.adj(v) {
                counts[e.edge.index()] += 1;
            }
        }
        prop_assert!(counts.iter().all(|&c| c == 2));
    }

    #[test]
    fn random_partition_covers_and_balances(n in 1usize..500, k in 1usize..17, seed in 0u64..1000) {
        let p = VertexPartition::random_hash(n, k, seed);
        prop_assert_eq!(p.atom_sizes().iter().sum::<usize>(), n);
        prop_assert_eq!(p.len(), n);
    }

    #[test]
    fn refinement_never_increases_cut(g in arb_graph(), k in 2usize..6, seed in 0u64..100) {
        let mut p = VertexPartition::random_hash(g.num_vertices(), k, seed);
        let before = p.cut_edges(&g);
        p.refine(&g, 2, 1.3);
        prop_assert!(p.cut_edges(&g) <= before);
        prop_assert_eq!(p.atom_sizes().iter().sum::<usize>(), g.num_vertices());
    }

    #[test]
    fn atom_ingress_reconstructs_graph(g in arb_graph(), k in 1usize..8, machines in 1usize..5) {
        let p = VertexPartition::random_hash(g.num_vertices(), k, 7);
        let dfs = SimDfs::new();
        let (atoms, index) = build_atoms(&g, &p, "t");
        write_atoms(&dfs, "t", &atoms, &index);
        let placement = Placement::compute(&index, machines);

        let mut vertex_owned = vec![0usize; g.num_vertices()];
        let mut edge_owned = vec![0usize; g.num_edges()];
        for m in 0..machines {
            let part = load_machine_part::<f64, f64>(&dfs, &index, &placement, MachineId::from(m)).unwrap();
            for v in &part.vertices {
                if v.owner == part.machine {
                    vertex_owned[v.gvid.index()] += 1;
                    // Owned data matches the source graph.
                    prop_assert_eq!(*g.vertex_data(v.gvid), v.data);
                }
            }
            for e in &part.edges {
                if e.owner == part.machine {
                    edge_owned[e.geid.index()] += 1;
                }
                prop_assert_eq!(g.edge_endpoints(e.geid), (e.src, e.dst));
            }
            // Local scopes complete: every owned vertex sees all its edges.
            let local_edges: std::collections::HashSet<_> = part.edges.iter().map(|e| e.geid).collect();
            for v in part.vertices.iter().filter(|v| v.owner == part.machine) {
                for adj in g.adj(v.gvid) {
                    prop_assert!(local_edges.contains(&adj.edge));
                }
            }
        }
        prop_assert!(vertex_owned.iter().all(|&c| c == 1), "each vertex owned exactly once");
        prop_assert!(edge_owned.iter().all(|&c| c == 1), "each edge owned exactly once");
    }

    #[test]
    fn atom_ingress_matches_the_reference_model(
        g in arb_graph(),
        k in 1usize..12,
        machines in 0usize..12,
        strategy in 0usize..3,
        dead in 0usize..12,
    ) {
        let machines = 1 + machines % k; // 1..=k
        let p = VertexPartition::random_hash(g.num_vertices(), k, 7);
        let (atoms, index) = build_atoms(&g, &p, "t");
        let dfs = SimDfs::new();
        write_atoms(&dfs, "t", &atoms, &index);
        // The same atoms, every journal written backwards: edges first.
        let backwards = SimDfs::new();
        for atom in &atoms {
            let mut w = JournalWriter::new(atom.id);
            for e in atom.edges.iter().rev() {
                w.add_edge(e.geid, e.src, e.dst, e.owned, &e.data);
            }
            for gv in atom.ghost_vertices.iter().rev() {
                w.add_ghost(gv.gvid, gv.owner_atom, &gv.data);
            }
            for ov in atom.owned_vertices.iter().rev() {
                w.add_vertex(ov.gvid, &ov.mirrors, &ov.data);
            }
            backwards.write(&index.entry(atom.id).file, w.finish());
        }
        let placement = match strategy {
            0 => Placement::compute(&index, machines),
            1 => Placement::round_robin(k, machines),
            // One machine dead and its atoms adopted: sibling atoms that
            // were placed apart now shadow each other's ghosts.
            _ => {
                let mut down = vec![false; machines];
                down[dead % machines] = machines > 1;
                Placement::compute(&index, machines).adopt(&index, &down)
            }
        };

        for m in (0..machines).map(MachineId::from) {
            let model = reference_machine_part(&dfs, &index, &placement, m);
            for dfs in [&dfs, &backwards] {
                let part = load_machine_part::<f64, f64>(dfs, &index, &placement, m).unwrap();
                prop_assert_eq!(&part.vertices, &model.vertices);
                prop_assert_eq!(&part.edges, &model.edges);
                prop_assert_eq!(
                    (part.machine, part.num_machines, part.total_vertices, part.total_edges),
                    (model.machine, model.num_machines, model.total_vertices, model.total_edges)
                );
                prop_assert!(part.vertices.windows(2).all(|w| w[0].gvid < w[1].gvid));
                prop_assert!(part.edges.windows(2).all(|w| w[0].geid < w[1].geid));
            }
        }
    }

    /// `LocalGraph`'s global → local lookup against its definition: an id's
    /// local id is its position in the `gvid`/`geid` column, and an id not
    /// there — past the column's end, `u32::MAX` — has none. Parts on 8
    /// machines are sparse, so their index buckets span several ids.
    #[test]
    fn local_lookup_is_the_rank_of_the_id(g in arb_graph(), k in 8usize..17) {
        use graphlab::core::LocalGraph;
        use graphlab::graph::EdgeId;
        let (atoms, index) = build_atoms(&g, &VertexPartition::random_hash(g.num_vertices(), k, 7), "t");
        let dfs = SimDfs::new();
        write_atoms(&dfs, "t", &atoms, &index);
        let mut parts = vec![LocalGraphInit {
            machine: MachineId(0),
            num_machines: 1,
            vertices: Vec::new(),
            edges: Vec::new(),
            total_vertices: 0,
            total_edges: 0,
        }];
        for machines in [1, 2, 8] {
            let placement = Placement::compute(&index, machines);
            for m in (0..machines).map(MachineId::from) {
                parts.push(load_machine_part::<f64, f64>(&dfs, &index, &placement, m).unwrap());
            }
        }
        let past_every_id = g.num_vertices().max(g.num_edges()) as u32 + 64;
        for part in parts {
            let lg = LocalGraph::from_init(part, None);
            let gvid: Vec<VertexId> = (0..lg.num_local_vertices() as u32).map(|l| lg.vertex_gvid(l)).collect();
            let geid: Vec<EdgeId> = (0..lg.num_local_edges() as u32).map(|l| lg.edge_geid(l)).collect();
            for id in (0..=past_every_id).chain([u32::MAX]) {
                let position = |found: Option<usize>| found.map(|l| l as u32);
                prop_assert_eq!(lg.local_vertex(VertexId(id)), position(gvid.iter().position(|&v| v == VertexId(id))));
                prop_assert_eq!(lg.local_edge(EdgeId(id)), position(geid.iter().position(|&e| e == EdgeId(id))));
            }
        }
    }

    #[test]
    fn journal_roundtrip_arbitrary_atoms(
        vdata in proptest::collection::vec(-1e9f64..1e9, 1..20),
        k in 1usize..5,
    ) {
        let mut b = GraphBuilder::new();
        for &d in &vdata {
            b.add_vertex(d);
        }
        for i in 1..vdata.len() {
            b.add_edge(VertexId((i - 1) as u32), VertexId(i as u32), i as f64).unwrap();
        }
        let g: DataGraph<f64, f64> = b.build();
        let p = VertexPartition::random_hash(g.num_vertices(), k, 3);
        let (atoms, _) = build_atoms(&g, &p, "t");
        for atom in atoms {
            let bytes = atom.encode_journal();
            let back = graphlab::atoms::Atom::<f64, f64>::decode_journal(bytes).unwrap();
            prop_assert_eq!(back, atom);
        }
    }
}

/// Checkpoint files: the in-place [`CheckpointWriter`] against the regroup
/// `write_snapshot_atoms` ran before the writer — rows captured as a whole
/// [`SnapshotFile`], split by atom through an ordered map, each atom's file
/// its `encode_to_bytes`.
mod checkpoint_files {
    use std::collections::BTreeMap;

    use bytes::Bytes;
    use graphlab::core::snapshot::{
        atom_snap_file_name, restore_snapshot, write_snapshot_atoms, CheckpointWriter, SnapshotFile,
    };
    use graphlab::core::LocalGraph;
    use graphlab::graph::{AtomId, EdgeId};
    use proptest::prelude::*;

    use super::*;

    type Lg = LocalGraph<Vec<f64>, f64>;

    /// Vertex data of 0 to 39 floats, so a row's length takes one varint
    /// byte or two.
    fn arb_wide_graph() -> impl Strategy<Value = DataGraph<Vec<f64>, f64>> {
        (2usize..40).prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n, 0..n, -100.0f64..100.0), 0..120);
            edges.prop_map(move |edges| {
                let mut b = GraphBuilder::new();
                for i in 0..n {
                    b.add_vertex(vec![i as f64; i * 13 % 40]);
                }
                for (s, d, w) in edges {
                    if s != d {
                        b.add_edge(VertexId(s as u32), VertexId(d as u32), w).unwrap();
                    }
                }
                b.build()
            })
        })
    }

    /// The reference model: the files `lg`'s machine writes for snapshot
    /// `id`, by name. Owned atoms get a file even when empty.
    fn reference_files(
        rows: SnapshotFile,
        lg: &Lg,
        id: u64,
        mine: &[AtomId],
    ) -> BTreeMap<String, Bytes> {
        let mut by_atom: BTreeMap<AtomId, SnapshotFile> =
            mine.iter().map(|&a| (a, SnapshotFile::default())).collect();
        for (v, blob) in rows.vrows {
            let atom = lg.vertex_atom(lg.local_vertex(v).unwrap());
            by_atom.get_mut(&atom).expect("a row of an owned atom").vrows.push((v, blob));
        }
        for (e, blob) in rows.erows {
            let atom = lg.edge_atom(lg.local_edge(e).unwrap());
            by_atom.get_mut(&atom).expect("a row of an owned atom").erows.push((e, blob));
        }
        by_atom
            .into_iter()
            .map(|(atom, file)| (atom_snap_file_name("ckpt", id, atom, lg.machine()), encode_to_bytes(&file)))
            .collect()
    }

    fn files(dfs: &SimDfs) -> BTreeMap<String, Bytes> {
        dfs.list_prefix("ckpt/").into_iter().map(|name| (name.clone(), dfs.read(&name).unwrap())).collect()
    }

    proptest! {
        /// Every machine saves a random sequence of rows — its owned
        /// vertices and edges, in any order, repeats allowed — twice, through one writer reused across
        /// machines and snapshots. Every file equals the reference model's,
        /// byte for byte, and so do the files of the `SnapshotFile`
        /// adapter; restoring either set gives the same graph.
        #[test]
        fn the_writer_writes_the_bytes_of_the_regrouped_snapshot_file(
            g in arb_wide_graph(),
            k in 1usize..12,
            machines in 1usize..5,
            saves in proptest::collection::vec((0u8..2, 0u32..u32::MAX), 0..160),
        ) {
            let machines = 1 + (machines - 1) % k;
            let p = VertexPartition::random_hash(g.num_vertices(), k, 7);
            let (atoms, index) = build_atoms(&g, &p, "t");
            let graph_dfs = SimDfs::new();
            write_atoms(&graph_dfs, "t", &atoms, &index);
            let placement = Placement::compute(&index, machines);

            let (written, adapted, reference) = (SimDfs::new(), SimDfs::new(), SimDfs::new());
            let mut writer = CheckpointWriter::default();
            for id in 0..2u64 {
                for m in (0..machines).map(MachineId::from) {
                    let part = load_machine_part(&graph_dfs, &index, &placement, m).unwrap();
                    let lg: Lg = LocalGraph::from_init(part, None);
                    let mine = placement.atoms_of(m);
                    let owned_edges: Vec<u32> =
                        (0..lg.num_local_edges() as u32).filter(|&l| lg.owns_edge(l)).collect();
                    let mut rows = SnapshotFile::default();
                    // Each snapshot saves another slice of the sequence.
                    for &(edge, pick) in saves.iter().skip(id as usize * saves.len() / 2) {
                        let owned = lg.owned_vertices();
                        if edge == 1 && !owned_edges.is_empty() {
                            let l = owned_edges[pick as usize % owned_edges.len()];
                            writer.save_edge(&lg, l);
                            rows.erows.push((lg.edge_geid(l), encode_to_bytes(lg.edge_data(l))));
                        } else if !owned.is_empty() {
                            let l = owned[pick as usize % owned.len()];
                            writer.save_vertex(&lg, l);
                            rows.vrows.push((lg.vertex_gvid(l), encode_to_bytes(lg.vertex_data(l))));
                        }
                    }
                    writer.write(&written, "ckpt", id, m, &mine);
                    write_snapshot_atoms(&adapted, "ckpt", id, rows.clone(), &lg, &mine);
                    for (name, bytes) in reference_files(rows, &lg, id, &mine) {
                        reference.write(&name, bytes);
                    }
                }
            }
            let want = files(&reference);
            prop_assert!(want.keys().any(|name| name.contains("/atom_")), "owned atoms always get a file");
            prop_assert_eq!(&files(&written), &want);
            prop_assert_eq!(&files(&adapted), &want);

            for id in 0..2 {
                let restored: Vec<DataGraph<Vec<f64>, f64>> = [&written, &reference]
                    .into_iter()
                    .map(|dfs| {
                        let mut h = g.clone();
                        for v in 0..h.num_vertices() as u32 {
                            h.vertex_data_mut(VertexId(v)).clear();
                        }
                        for e in 0..h.num_edges() as u32 {
                            *h.edge_data_mut(EdgeId(e)) = f64::NAN;
                        }
                        restore_snapshot(dfs, "ckpt", id, &mut h).unwrap();
                        h
                    })
                    .collect();
                for v in (0..g.num_vertices() as u32).map(VertexId) {
                    prop_assert_eq!(restored[0].vertex_data(v), restored[1].vertex_data(v));
                }
                for e in 0..g.num_edges() as u32 {
                    let [a, b] = [&restored[0], &restored[1]].map(|h| h.edge_data(EdgeId(e)).to_bits());
                    prop_assert_eq!(a, b);
                }
            }
            // Writing emptied the writer: one more write is the owned
            // atoms' empty files alone.
            let (tail, mine) = (SimDfs::new(), placement.atoms_of(MachineId(0)));
            writer.write(&tail, "ckpt", 2, MachineId(0), &mine);
            let empty = encode_to_bytes(&SnapshotFile::default());
            prop_assert_eq!(files(&tail).len(), mine.len());
            prop_assert!(files(&tail).values().all(|f| *f == empty));
        }
    }
}

/// Fabric delivery-order property (ISSUE 2): per-(src, dst) delivery is
/// FIFO under *arbitrary* latency models — fixed, bandwidth-proportional
/// and jittered terms in any combination. Before the per-channel FIFO
/// clamp, any model with `per_kib` or `jitter` non-zero let a small later
/// message overtake an earlier large one.
mod fabric {
    use super::*;
    use graphlab::net::{LatencyModel, SimNet};
    use std::time::Duration;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn per_channel_delivery_is_fifo_under_any_latency(
            fixed_us in 0u64..200,
            per_kib_us in 0u64..100,
            jitter_us in 0u64..100,
            sizes in proptest::collection::vec(0usize..4096, 1..20),
            seed in 1u64..1_000,
        ) {
            let model = LatencyModel {
                fixed: Duration::from_micros(fixed_us),
                per_kib: Duration::from_micros(per_kib_us),
                jitter: Duration::from_micros(jitter_us),
            };
            let n = 3usize;
            let (_net, eps) = SimNet::with_seed(n, model, seed);
            // Every machine sends the same indexed sequence (kind = index,
            // payload sizes varied to provoke bandwidth-term reorders) to
            // every other machine.
            for (i, ep) in eps.iter().enumerate() {
                for (k, &sz) in sizes.iter().enumerate() {
                    for j in 0..n {
                        if i != j {
                            ep.send(
                                MachineId::from(j),
                                k as u16,
                                bytes::Bytes::from(vec![0u8; sz]),
                            );
                        }
                    }
                }
            }
            // Each receiver must observe every sender's sequence in order.
            for (j, ep) in eps.iter().enumerate() {
                let mut next = vec![0u16; n];
                for _ in 0..sizes.len() * (n - 1) {
                    let env = ep.recv_timeout(Duration::from_secs(20)).expect("delivery");
                    prop_assert_eq!(
                        env.kind, next[env.src.index()],
                        "reorder on channel m{} -> m{}", env.src.index(), j
                    );
                    next[env.src.index()] += 1;
                }
            }
        }
    }
}

/// ISSUE 3: exhaustive wire-codec property suite. Every `Codec` impl in
/// `graphlab_core::messages` round-trips on arbitrary payloads, versions
/// and `Bytes` lengths, as do the varint/zigzag/gap-encoding primitives
/// they are built from.
mod wire_codec {
    use super::*;
    use bytes::{Bytes, BytesMut};
    use graphlab::core::messages::*;
    use graphlab::graph::{EdgeId, MachineId};
    use graphlab::net::codec::{
        get_id_deltas, get_uvarint, put_id_deltas, put_uvarint, unzigzag, zigzag,
    };
    use graphlab::net::Codec;

    fn rt<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let enc = encode_to_bytes(&v);
        let dec = decode_from::<T>(enc);
        assert_eq!(dec.as_ref(), Some(&v), "roundtrip failed");
    }

    fn arb_bytes() -> impl Strategy<Value = Bytes> {
        proptest::collection::vec(0u32..256, 0..48)
            .prop_map(|v| Bytes::from(v.into_iter().map(|b| b as u8).collect::<Vec<u8>>()))
    }

    fn arb_vrow() -> impl Strategy<Value = VertexRow> {
        (0u32..u32::MAX, 0u64..u64::MAX, 0u32..u32::MAX, arb_bytes()).prop_map(
            |(vid, version, snap, data)| VertexRow { vid: VertexId(vid), version, snap, data },
        )
    }

    fn arb_erow() -> impl Strategy<Value = EdgeRow> {
        (0u32..u32::MAX, 0u64..u64::MAX, arb_bytes())
            .prop_map(|(eid, version, data)| EdgeRow { eid: EdgeId(eid), version, data })
    }

    /// A colour-step's task set: ascending ids, duplicates allowed on the
    /// wire (the engine never writes one).
    fn arb_task_set() -> impl Strategy<Value = TaskSetMsg> {
        proptest::collection::vec(0u32..u32::MAX, 0..24).prop_map(|mut ids| {
            ids.sort_unstable();
            TaskSetMsg { tasks: ids.into_iter().map(VertexId).collect() }
        })
    }

    /// Schedule priorities travel as f32 by design; generate exactly
    /// f32-representable values so equality round-trips.
    fn arb_sched() -> impl Strategy<Value = ScheduleMsg> {
        proptest::collection::vec((0u32..u32::MAX, -1e30f32..1e30), 0..16).prop_map(|tasks| {
            ScheduleMsg {
                tasks: tasks.into_iter().map(|(v, p)| (VertexId(v), p as f64)).collect(),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn uvarint_roundtrips(v in 0u64..u64::MAX) {
            let mut buf = BytesMut::new();
            put_uvarint(&mut buf, v);
            prop_assert!(buf.len() <= 10);
            let mut b = buf.freeze();
            prop_assert_eq!(get_uvarint(&mut b), Some(v));
            prop_assert!(b.is_empty());
        }

        #[test]
        fn zigzag_roundtrips(v in i64::MIN..i64::MAX) {
            prop_assert_eq!(unzigzag(zigzag(v)), v);
            let enc = encode_to_bytes(&v);
            prop_assert_eq!(decode_from::<i64>(enc), Some(v));
        }

        #[test]
        fn scalar_codecs_roundtrip(
            a in 0u32..u32::MAX,
            b in 0u64..u64::MAX,
            c in 0u32..65536,
            f in -1e300f64..1e300,
        ) {
            let enc = encode_to_bytes(&a);
            prop_assert_eq!(decode_from::<u32>(enc), Some(a));
            let enc = encode_to_bytes(&b);
            prop_assert_eq!(decode_from::<u64>(enc), Some(b));
            let c = c as u16;
            let enc = encode_to_bytes(&c);
            prop_assert_eq!(decode_from::<u16>(enc), Some(c));
            let enc = encode_to_bytes(&f);
            prop_assert_eq!(decode_from::<f64>(enc), Some(f));
        }

        #[test]
        fn id_deltas_roundtrip_sorted(ids in proptest::collection::vec(0u32..u32::MAX, 0..64)) {
            let mut ids = ids;
            ids.sort_unstable();
            let mut buf = BytesMut::new();
            put_id_deltas(&mut buf, ids.len(), ids.iter().copied());
            // Gap encoding beats one varint per id on dense sorted runs and
            // never exceeds ~5 bytes per id.
            prop_assert!(buf.len() <= 5 + ids.len() * 5);
            let mut b = buf.freeze();
            prop_assert_eq!(get_id_deltas(&mut b), Some(ids));
            prop_assert!(b.is_empty());
        }

        #[test]
        fn vertex_rows_roundtrip(row in arb_vrow()) { rt(row); }

        #[test]
        fn edge_rows_roundtrip(row in arb_erow()) { rt(row); }

        #[test]
        fn schedule_msgs_roundtrip(msg in arb_sched()) { rt(msg); }

        #[test]
        fn task_sets_roundtrip(step in 0u64..u64::MAX, set in arb_task_set()) {
            rt(set.clone());
            rt(StepTagged { step, phase: 0, inner: set });
        }

        #[test]
        fn step_tagged_roundtrip(
            step in 0u64..u64::MAX,
            phase in 0u32..2,
            row in arb_vrow(),
            erow in arb_erow(),
            sched in arb_sched(),
        ) {
            rt(StepTagged { step, phase: phase as u8, inner: row });
            rt(StepTagged { step, phase: phase as u8, inner: erow });
            rt(StepTagged { step, phase: phase as u8, inner: sched });
        }

        #[test]
        fn sync_partial_msgs_roundtrip(
            cycle in 0u64..u64::MAX,
            partials in proptest::collection::vec((0u32..u32::MAX, arb_bytes()), 0..5),
            pending in 0u64..u64::MAX,
            updates in 0u64..u64::MAX,
        ) {
            rt(SyncPartialMsg { cycle, partials: partials.clone(), pending, updates });
            rt(LockSyncPartialMsg { epoch: cycle, partials });
        }

        #[test]
        fn lock_req_msgs_roundtrip(
            requester in 0u32..u32::MAX,
            reqid in 0u64..u64::MAX,
            scope_v in 0u32..u32::MAX,
            machines in proptest::collection::vec(0u32..u32::MAX, 0..10),
            model in 0u32..3,
        ) {
            rt(LockReqMsg {
                requester: MachineId(requester as u16),
                reqid,
                scope_v: VertexId(scope_v),
                machines: machines.into_iter().map(|m| MachineId(m as u16)).collect(),
                model: model as u8,
            });
        }

        #[test]
        fn scope_data_msgs_roundtrip(
            reqid in 0u64..u64::MAX,
            vrows in proptest::collection::vec(arb_vrow(), 0..8),
            erows in proptest::collection::vec(arb_erow(), 0..8),
            vsame in 0u32..u32::MAX,
            esame in 0u32..u32::MAX,
        ) {
            rt(ScopeDataMsg { reqid, vrows, erows, vsame, esame });
        }

        #[test]
        fn release_msgs_roundtrip(
            reqid in 0u64..u64::MAX,
            vwrites in proptest::collection::vec((0u32..u32::MAX, 0u32..u32::MAX, arb_bytes()), 0..8),
            ewrites in proptest::collection::vec((0u32..u32::MAX, arb_bytes()), 0..8),
        ) {
            rt(ReleaseMsg {
                reqid,
                vwrites: vwrites.into_iter().map(|(v, s, b)| (VertexId(v), s, b)).collect(),
                ewrites: ewrites.into_iter().map(|(e, b)| (EdgeId(e), b)).collect(),
            });
        }

        /// The quiet round's messages: the marker is its round alone, the
        /// report its round and verdict.
        #[test]
        fn quiet_msgs_roundtrip(round in 0u64..u64::MAX, clean in 0u32..2) {
            rt(round);
            rt(QuietReportMsg { round, clean: clean == 1 });
        }

        #[test]
        fn recovery_msgs_roundtrip(
            era in 0u32..u32::MAX,
            snap in 0u64..u64::MAX,
            reason_bytes in proptest::collection::vec(32u32..127, 0..48),
        ) {
            rt(RollbackMsg { era, snap });
            rt(RecoverEraMsg { era });
            let reason: String = reason_bytes.into_iter().map(|b| b as u8 as char).collect();
            rt(RecoverAbortMsg { era, reason });
        }

        /// ISSUE 8: the adoption order (`AdoptPlanMsg`) and ghost round
        /// (`AdoptDataMsg`) roundtrip for arbitrary placements and rows.
        #[test]
        fn adoption_msgs_roundtrip(
            era in 0u32..u32::MAX,
            dead in proptest::collection::vec(0u32..u32::MAX, 0..6),
            atoms in 1usize..64,
            machines in 1usize..12,
            snap in 0u64..u64::MAX,
            has_snap in 0u32..2,
            vrows in proptest::collection::vec((0u32..u32::MAX, arb_bytes()), 0..8),
            erows in proptest::collection::vec((0u32..u32::MAX, arb_bytes()), 0..8),
        ) {
            rt(AdoptPlanMsg {
                era,
                dead: dead.into_iter().map(|d| d as u16).collect(),
                placement: graphlab::atoms::placement::Placement::round_robin(atoms, machines),
                snap: if has_snap == 1 { Some(snap) } else { None },
            });
            rt(AdoptDataMsg {
                era,
                rows: graphlab::core::snapshot::SnapshotFile {
                    vrows: vrows.into_iter().map(|(v, b)| (VertexId(v), b)).collect(),
                    erows: erows.into_iter().map(|(e, b)| (EdgeId(e), b)).collect(),
                },
            });
        }
    }

    #[test]
    fn schedule_priority_infinity_survives_f32_wire() {
        // An infinite priority (SSSP schedules an unreached vertex with an
        // infinite gap) must survive the f32 wire representation.
        rt(ScheduleMsg { tasks: vec![(VertexId(1), f64::INFINITY)] });
    }

    /// An adoption plan's placement is read off the wire and then indexed
    /// and sized by: a machine count a `MachineId` cannot name, or an atom
    /// on a machine past it, decodes to `None`, alone and inside the plan.
    #[test]
    fn placement_decode_refuses_machines_out_of_range() {
        let placement = |ids: &[u16], machines: u32| {
            let mut buf = BytesMut::new();
            ids.to_vec().encode(&mut buf);
            machines.encode(&mut buf);
            buf.freeze()
        };
        let in_plan = |wire: Bytes| {
            let mut buf = BytesMut::new();
            (4u32, vec![2u16]).encode(&mut buf);
            buf.extend_from_slice(&wire);
            Some(6u64).encode(&mut buf);
            decode_from::<AdoptPlanMsg>(buf.freeze())
        };
        let rr = Placement::round_robin(5, 3);
        assert_eq!(decode_from(placement(&[0, 1, 2, 0, 1], 3)), Some(rr.clone()));
        assert!(in_plan(placement(&[0, 1, 2, 0, 1], 3)).is_some_and(|p| p.placement == rr));
        assert!(decode_from::<Placement>(placement(&[u16::MAX], 65_536)).is_some(), "the largest cluster");
        for (ids, machines) in [
            (&[0, 3][..], 3),
            (&[][..], 0),
            (&[0][..], 0),
            (&[0][..], 65_537),
            (&[0][..], u32::MAX),
            (&[u16::MAX][..], 65_535),
        ] {
            let wire = placement(ids, machines);
            assert_eq!(decode_from::<Placement>(wire.clone()), None, "{ids:?} on {machines}");
            assert_eq!(in_plan(wire), None, "{ids:?} on {machines} in a plan");
        }
    }

    // ---- ISSUE 17: the in-place readers and the in-place append ----
    //
    // The engines no longer build these messages: they append them to the
    // Batcher's envelope with `put` and walk received ones with `read`.
    // Each reader below rebuilds the owned message from what `read` hands
    // out, so it can be held against `Codec::decode`.

    fn own(data: &[u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    fn read_vrow(p: &mut &[u8]) -> Option<VertexRow> {
        let (vid, version, snap, data) = VertexRow::read(p)?;
        Some(VertexRow { vid, version, snap, data: own(data) })
    }

    fn read_erow(p: &mut &[u8]) -> Option<EdgeRow> {
        let (eid, version, data) = EdgeRow::read(p)?;
        Some(EdgeRow { eid, version, data: own(data) })
    }

    fn read_sched(p: &mut &[u8]) -> Option<ScheduleMsg> {
        let mut tasks = Vec::new();
        ScheduleMsg::read(p, |v, prio| tasks.push((v, prio)))?;
        Some(ScheduleMsg { tasks })
    }

    fn read_lock_req(p: &mut &[u8]) -> Option<LockReqMsg> {
        let mut machines = Vec::new();
        let (requester, reqid, scope_v, model) = LockReqMsg::read(p, |m| machines.push(m))?;
        Some(LockReqMsg { requester, reqid, scope_v, machines, model })
    }

    fn read_scope_data(p: &mut &[u8]) -> Option<ScopeDataMsg> {
        let mut rows = (Vec::new(), Vec::new());
        let (reqid, (nv, vsame), (ne, esame)) = ScopeDataMsg::read(
            p,
            &mut rows,
            |r, vid, version, snap, data| r.0.push(VertexRow { vid, version, snap, data: own(data) }),
            |r, eid, version, data| r.1.push(EdgeRow { eid, version, data: own(data) }),
        )?;
        assert_eq!((nv, ne), (rows.0.len(), rows.1.len()), "counts are the rows handed out");
        Some(ScopeDataMsg { reqid, vrows: rows.0, erows: rows.1, vsame, esame })
    }

    fn read_release(p: &mut &[u8]) -> Option<ReleaseMsg> {
        let mut w = (Vec::new(), Vec::new());
        let reqid = ReleaseMsg::read(
            p,
            &mut w,
            |w, v, snap, data| w.0.push((v, snap, own(data))),
            |w, e, data| w.1.push((e, own(data))),
        )?;
        Some(ReleaseMsg { reqid, vwrites: w.0, ewrites: w.1 })
    }

    fn read_tagged<T>(
        inner: impl Fn(&mut &[u8]) -> Option<T>,
    ) -> impl Fn(&mut &[u8]) -> Option<StepTagged<T>> {
        move |p| {
            let (step, phase) = StepTagged::<T>::read(p)?;
            Some(StepTagged { step, phase, inner: inner(p)? })
        }
    }

    /// The payload the receiver gets for a message `put` appends in place to
    /// a batch envelope (behind another message, so the framing is real).
    fn appended_in_place(put: impl FnOnce(&mut BytesMut)) -> Bytes {
        use graphlab::net::{BatchPolicy, Batcher, LatencyModel, SimNet};
        let (_net, mut eps) = SimNet::new(2, LatencyModel::ZERO);
        let mut rx = Batcher::new(eps.pop().unwrap(), BatchPolicy::default());
        let mut tx = Batcher::new(eps.pop().unwrap(), BatchPolicy::default());
        tx.send(MachineId(1), 1, Bytes::from_static(b"ahead"));
        tx.send_with(MachineId(1), 2, put);
        tx.flush_all();
        assert_eq!(&rx.try_recv().expect("first message").payload[..], b"ahead");
        let env = rx.try_recv().expect("second message");
        assert_eq!(env.kind, 2);
        env.payload
    }

    /// `read` is the inverse of `put` (= `Codec::encode`), agrees with
    /// `Codec::decode` on every truncation of the encoding (both refuse),
    /// on the encoding with one byte overwritten and on `junk`, and an
    /// in-place append puts `encode_to_bytes`' bytes in the envelope.
    fn in_place<T: Codec + PartialEq + std::fmt::Debug>(
        v: &T,
        read: impl Fn(&mut &[u8]) -> Option<T>,
        (at, byte): (usize, u32),
        junk: &Bytes,
    ) {
        let whole = |bytes: &[u8]| {
            let mut p = bytes;
            read(&mut p).filter(|_| p.is_empty())
        };
        let enc = encode_to_bytes(v);
        assert_eq!(whole(&enc).as_ref(), Some(v), "read . put is not the identity");
        for cut in 0..enc.len() {
            assert_eq!(whole(&enc[..cut]), None, "reader took a truncated message (cut {cut})");
            assert_eq!(decode_from::<T>(enc.slice(..cut)), None, "decode took one (cut {cut})");
        }
        let mut bent = enc.to_vec();
        if !bent.is_empty() {
            let at = at % bent.len();
            bent[at] = byte as u8;
        }
        for bytes in [Bytes::from(bent), junk.clone()] {
            assert_eq!(whole(&bytes), decode_from::<T>(bytes.clone()), "reader and decode differ");
        }
        assert_eq!(appended_in_place(|buf| v.encode(buf)), enc, "in-place append");
    }

    fn read_task_set(p: &mut &[u8]) -> Option<TaskSetMsg> {
        let mut tasks = Vec::new();
        TaskSetMsg::read(p, |v| tasks.push(v))?;
        Some(TaskSetMsg { tasks })
    }

    // ---- ISSUE 19: row blocks ----
    //
    // The chromatic engine never builds a block as a value: it appends rows
    // to a buffer behind one tag and walks a received block with
    // `StepTagged::read_block`. `Block` is the owned message written out the
    // long way — the tag, then `Codec::decode` row by row to the end of the
    // payload — as the oracle for that walk.

    #[derive(Clone, Debug, PartialEq)]
    struct Block<T> {
        step: u64,
        phase: u8,
        rows: Vec<T>,
    }

    impl<T: Codec> Codec for Block<T> {
        fn encode(&self, buf: &mut BytesMut) {
            StepTagged { step: self.step, phase: self.phase, inner: () }.encode(buf);
            self.rows.iter().for_each(|r| r.encode(buf));
        }
        fn decode(buf: &mut Bytes) -> Option<Self> {
            let StepTagged { step, phase, inner: () } = StepTagged::decode(buf)?;
            let mut rows = Vec::new();
            while !buf.is_empty() {
                rows.push(T::decode(buf)?);
            }
            Some(Block { step, phase, rows })
        }
    }

    /// A block read in place with `StepTagged::read_block` agrees with the
    /// owned decode: on the encoding, on every truncation of it — a prefix
    /// of the rows when the cut falls between two rows, `None` everywhere
    /// else, never a panic — and with `junk` behind it; a block of one row
    /// is, byte for byte, the `StepTagged<T>` message it replaces; and an
    /// in-place append puts the same bytes in the envelope.
    fn block_in_place<T: Codec + Clone + PartialEq + std::fmt::Debug>(
        block: &Block<T>,
        read: impl Fn(&mut &[u8]) -> Option<T>,
        junk: &Bytes,
    ) {
        let walk = |bytes: &[u8]| {
            let (mut p, mut rows) = (bytes, Vec::new());
            let (step, phase) = StepTagged::<T>::read_block(&mut p, &read, |s, r| rows.push((s, r)))?;
            assert!(p.is_empty() && rows.iter().all(|(s, _)| *s == step), "walks to the end");
            Some(Block { step, phase, rows: rows.into_iter().map(|(_, r)| r).collect() })
        };
        let enc = encode_to_bytes(block);
        assert_eq!(walk(&enc).as_ref(), Some(block), "read_block . put is not the identity");
        let mut prefixes = 0;
        for cut in 0..enc.len() {
            let got = walk(&enc[..cut]);
            assert_eq!(got, decode_from(enc.slice(..cut)), "walk and decode differ (cut {cut})");
            if let Some(b) = got {
                assert_eq!(b.rows[..], block.rows[..b.rows.len()], "not a prefix (cut {cut})");
                assert_eq!(encode_to_bytes(&b).len(), cut, "a row cut short was taken (cut {cut})");
                prefixes += 1;
            }
        }
        assert_eq!(prefixes, block.rows.len(), "one row boundary per row, the tag's included");
        let mut suffixed = enc.to_vec();
        suffixed.extend_from_slice(junk);
        assert_eq!(walk(&suffixed), decode_from(Bytes::from(suffixed)), "junk suffix");
        if let [row] = &block.rows[..] {
            let tagged = StepTagged { step: block.step, phase: block.phase, inner: row.clone() };
            assert_eq!(enc, encode_to_bytes(&tagged), "a one-row block is the old message");
        }
        assert_eq!(appended_in_place(|buf| block.encode(buf)), enc, "in-place append");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn row_blocks_read_in_place(
            step in 0u64..u64::MAX,
            phase in 0u32..256,
            vrows in proptest::collection::vec(arb_vrow(), 0..6),
            erows in proptest::collection::vec(arb_erow(), 0..6),
            junk in arb_bytes(),
        ) {
            let phase = phase as u8;
            block_in_place(&Block { step, phase, rows: vrows[..vrows.len().min(1)].to_vec() }, read_vrow, &junk);
            block_in_place(&Block { step, phase, rows: vrows }, read_vrow, &junk);
            block_in_place(&Block { step, phase, rows: erows }, read_erow, &junk);
        }

        #[test]
        fn task_sets_read_in_place(
            step in 0u64..u64::MAX,
            phase in 0u32..256,
            set in arb_task_set(),
            bend in (0usize..4096, 0u32..256),
            junk in arb_bytes(),
        ) {
            in_place(&set, read_task_set, bend, &junk);
            // The set is delimited by its count: what follows it is not read.
            let mut suffixed = encode_to_bytes(&set).to_vec();
            suffixed.extend_from_slice(&junk);
            let mut p = &suffixed[..];
            prop_assert_eq!(read_task_set(&mut p).as_ref(), Some(&set));
            prop_assert_eq!(p, &junk[..]);
            let tagged = StepTagged { step, phase: phase as u8, inner: set };
            in_place(&tagged, read_tagged(read_task_set), bend, &junk);
        }

        #[test]
        fn rows_and_tagged_rows_read_in_place(
            step in 0u64..u64::MAX,
            phase in 0u32..256,
            row in arb_vrow(),
            erow in arb_erow(),
            sched in arb_sched(),
            bend in (0usize..4096, 0u32..256),
            junk in arb_bytes(),
        ) {
            in_place(&row, read_vrow, bend, &junk);
            in_place(&erow, read_erow, bend, &junk);
            in_place(&sched, read_sched, bend, &junk);
            let phase = phase as u8;
            in_place(&StepTagged { step, phase, inner: row }, read_tagged(read_vrow), bend, &junk);
            in_place(&StepTagged { step, phase, inner: erow }, read_tagged(read_erow), bend, &junk);
            in_place(&StepTagged { step, phase, inner: sched }, read_tagged(read_sched), bend, &junk);
        }

        #[test]
        fn lock_engine_msgs_read_in_place(
            ids in (0u32..65536, 0u64..u64::MAX, 0u32..u32::MAX, 0u32..256),
            machines in proptest::collection::vec(0u32..65536, 0..10),
            vrows in proptest::collection::vec(arb_vrow(), 0..6),
            erows in proptest::collection::vec(arb_erow(), 0..6),
            same in (0u32..u32::MAX, 0u32..u32::MAX),
            bend in (0usize..4096, 0u32..256),
            junk in arb_bytes(),
        ) {
            let (requester, reqid, scope_v, model) = ids;
            let req = LockReqMsg {
                requester: MachineId(requester as u16),
                reqid,
                scope_v: VertexId(scope_v),
                machines: machines.into_iter().map(|m| MachineId(m as u16)).collect(),
                model: model as u8,
            };
            in_place(&req, read_lock_req, bend, &junk);
            let release = ReleaseMsg {
                reqid,
                vwrites: vrows.iter().map(|r| (r.vid, r.snap, r.data.clone())).collect(),
                ewrites: erows.iter().map(|r| (r.eid, r.data.clone())).collect(),
            };
            in_place(&release, read_release, bend, &junk);
            let data = ScopeDataMsg { reqid, vrows, erows, vsame: same.0, esame: same.1 };
            in_place(&data, read_scope_data, bend, &junk);
        }
    }
}

/// Every wire type in `core/src/messages.rs` — an `impl Codec for` line or
/// a type a `codec_fields!` invocation lists — is named inside
/// `mod wire_codec` above: a wire type cannot land without a roundtrip
/// property beside the others.
#[test]
fn every_codec_impl_in_messages_has_a_wire_codec_property() {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let src = include_str!("../crates/core/src/messages.rs");
    let mut impls: Vec<String> = src
        .lines()
        .filter(|l| l.starts_with("impl"))
        .filter_map(|l| l.split_once(" Codec for "))
        .map(|(_, ty)| ty.split(|c| !ident(c)).next().expect("split yields one item").to_owned())
        .collect();
    // `codec_fields! { A { a, b } B { c } }`: the types are the names
    // outside the field lists.
    for invocation in src.split("\ncodec_fields! {").skip(1) {
        let (mut depth, mut outside) = (1, String::new());
        for c in invocation.chars() {
            depth += i32::from(c == '{') - i32::from(c == '}');
            match depth {
                0 => break,
                1 if ident(c) => outside.push(c),
                _ => outside.push(' '),
            }
        }
        impls.extend(outside.split_whitespace().map(str::to_owned));
    }
    assert!(impls.len() >= 16, "the scan lost the types it used to find: {impls:?}");
    let suite = include_str!("properties.rs")
        .split_once("\nmod wire_codec {")
        .and_then(|(_, rest)| rest.split_once("\n}\n"))
        .expect("tests/properties.rs has a `mod wire_codec`")
        .0;
    let covered: std::collections::BTreeSet<&str> = suite.split(|c| !ident(c)).collect();
    let missing: Vec<&String> = impls.iter().filter(|ty| !covered.contains(ty.as_str())).collect();
    assert!(missing.is_empty(), "wire type without a wire_codec property: {missing:?}");
}

/// The bytes every field-list wire type writes, one fixed value each: a
/// round-trip cannot see two fields listed in the wrong order, the wire and
/// the on-disk atom index and checkpoint formats can. The hex was recorded
/// from the hand-written impls the `codec_fields!` lists replaced.
#[test]
fn wire_bytes_are_pinned() {
    use bytes::Bytes;
    use graphlab::apps::{AlsVertex, BpEdge, BpVertex, CoemVertex, CosegVertex, GibbsVertex};
    use graphlab::atoms::AtomIndexEntry;
    use graphlab::core::messages::*;
    use graphlab::core::snapshot::SnapshotFile;
    use graphlab::graph::{AtomId, EdgeId};
    use graphlab::net::{Codec, DownMsg, LeaseMsg, UpMsg};

    /// `v`'s type, its hex now and the pinned hex, if the two differ.
    fn drift<T: Codec + PartialEq + std::fmt::Debug>(v: T, pin: &str) -> Option<(&str, String, &str)> {
        let enc = encode_to_bytes(&v);
        assert_eq!(decode_from::<T>(enc.clone()).as_ref(), Some(&v), "roundtrip");
        let now: String = enc.iter().map(|b| format!("{b:02x}")).collect();
        (now != pin).then(|| (std::any::type_name::<T>(), now, pin))
    }
    let b = Bytes::from_static;
    let entry = |atom, file: &str| AtomIndexEntry {
        atom: AtomId(atom),
        owned_vertices: 200 + atom as u64,
        owned_edges: 70_000,
        file: file.into(),
        neighbors: vec![(AtomId(atom + 1), 3), (AtomId(300), 129)],
    };
    let partials = vec![(5, b(b"acc")), (1 << 20, b(b""))];
    let vrows = vec![(VertexId(3), b(b"v")), (VertexId(200), b(b""))];
    let placement = Placement::round_robin(5, 3);
    let entries = vec![entry(0, "a"), entry(1, "b")];
    let moved: Vec<_> = [
        drift(SyncPartialMsg { cycle: 300, partials, pending: 7, updates: 70_000 },
            "ac020205036163638080400007f0a204"),
        drift(LockSyncPartialMsg { epoch: 9, partials: vec![(200, b(b"p"))] }, "0901c8010170"),
        drift(QuietReportMsg { round: 130, clean: true }, "820101"),
        drift(RollbackMsg { era: 2, snap: 1 << 35 }, "02808080808001"),
        drift(RecoverEraMsg { era: 300 }, "ac02"),
        drift(RecoverAbortMsg { era: 1, reason: "no complete checkpoint".into() },
            "01166e6f20636f6d706c65746520636865636b706f696e74"),
        drift(AdoptPlanMsg { era: 4, dead: vec![2, 300], placement, snap: Some(6) },
            "040202ac02050001020001030106"),
        drift(AdoptDataMsg { era: 5, rows: SnapshotFile { vrows, erows: vec![(EdgeId(9), b(b"ee"))] } },
            "0502030176c801000109026565"),
        drift(SnapshotFile {
            vrows: vec![(VertexId(1), b(b"x")), (VertexId(128), b(b"yz"))],
            erows: vec![(EdgeId(70_000), b(b""))],
        }, "02010178800102797a01f0a20400"),
        drift(DownMsg { machine: 300, restart: true, era: 7 }, "ac020107"),
        drift(UpMsg { machine: 2, era: 129 }, "028101"),
        drift(LeaseMsg { machine: 1, incarnation: 300, era: 8 }, "01ac0208"),
        drift(entry(7, "g/atom_000007"), "07cf01f0a2040d672f61746f6d5f303030303037020803ac028101"),
        drift(AtomIndex { entries, total_vertices: 401, total_edges: 140_000 },
            "0200c801f0a2040161020103ac02810101c901f0a2040162020203ac0281019103e0c508"),
        drift(CosegVertex { feature: 0.5, prior: vec![1.0, 2.0], belief: vec![0.25] },
            "000000000000e03f02000000000000f03f000000000000004001000000000000d03f"),
        drift(CoemVertex { dist: vec![0.5, -1.0], seed: true }, "02000000000000e03f000000000000f0bf01"),
        drift(AlsVertex { factors: vec![1.5, -0.25, 3.0] },
            "03000000000000f83f000000000000d0bf0000000000000840"),
        drift(BpVertex { prior: vec![2.0], belief: vec![0.75, 0.125] },
            "01000000000000004002000000000000e83f000000000000c03f"),
        drift(BpEdge { msg_fwd: vec![0.5, 4.0], msg_rev: vec![] }, "02000000000000e03f000000000000104000"),
        drift(GibbsVertex { label: 3, unary: vec![1.0, 0.5], samples: 300, counts: vec![1, 129] },
            "0302000000000000f03f000000000000e03fac0202018101"),
    ]
    .into_iter()
    .flatten()
    .collect();
    assert!(moved.is_empty(), "wire bytes moved (type, now, pinned): {moved:#?}");
}

/// ISSUE 3: the LZSS pass under the batch envelopes decompresses to
/// exactly what was compressed, for every byte string, and the batcher's
/// compressed envelopes deliver the original messages in order.
mod compression {
    use super::*;
    use bytes::Bytes;
    use graphlab::graph::MachineId;
    use bytes::BufMut;
    use graphlab::net::compress::{compress, decompress, Lzss, MAX_DISTANCE, MAX_MATCH, MIN_MATCH};
    use graphlab::net::{BatchPolicy, Batcher, LatencyModel, SimNet};
    use std::time::Duration;

    /// The compressor as it stood before ISSUE 17 (a fresh table per input,
    /// `u32::MAX` for "empty", byte-wise match extension), kept as the oracle
    /// for "the wire did not change": the reusable [`Lzss`] state and its
    /// faster loops must write these bytes for every input.
    fn reference_compress(data: &[u8]) -> Vec<u8> {
        let hash4 = |i: usize| {
            let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
            (v.wrapping_mul(0x9E37_79B1) >> (32 - 13)) as usize
        };
        let mut out = Vec::new();
        let mut v = data.len() as u64;
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
        let mut head = vec![u32::MAX; 1 << 13];
        let (mut ctrl_pos, mut ctrl_left, mut i) = (0usize, 0u32, 0usize);
        while i < data.len() {
            let (mut match_len, mut match_dist) = (0usize, 0usize);
            if i + MIN_MATCH <= data.len() {
                let h = hash4(i);
                let cand = head[h] as usize;
                head[h] = i as u32;
                if cand != u32::MAX as usize && i - cand <= MAX_DISTANCE {
                    let limit = (data.len() - i).min(MAX_MATCH);
                    let mut l = 0usize;
                    while l < limit && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l >= MIN_MATCH {
                        (match_len, match_dist) = (l, i - cand);
                    }
                }
            }
            if ctrl_left == 0 {
                ctrl_pos = out.len();
                out.push(0);
                ctrl_left = 8;
            }
            if match_len == 0 {
                out[ctrl_pos] |= 1 << (8 - ctrl_left);
                out.push(data[i]);
                i += 1;
            } else {
                out.extend_from_slice(&(match_dist as u16).to_le_bytes());
                out.push((match_len - MIN_MATCH) as u8);
                let end = i + match_len;
                i += 1;
                while i < end {
                    if i + MIN_MATCH <= data.len() {
                        head[hash4(i)] = i as u32;
                    }
                    i += 1;
                }
            }
            ctrl_left -= 1;
        }
        out
    }

    /// One received message: `(kind, payload)`.
    type Got = (u16, Vec<u8>);

    /// Sends `msgs` (`(in place?, fill, size)`) machine 0 → 1 under
    /// `policy`, each through `send_with` or `send` as `in_place` decides,
    /// and returns what arrived plus the bytes and envelopes it took.
    fn deliver(
        policy: BatchPolicy,
        msgs: &[(bool, u32, usize)],
        in_place: impl Fn(bool) -> bool,
    ) -> (Vec<Got>, u64, u64) {
        let (net, mut eps) = SimNet::new(2, LatencyModel::ZERO);
        let mut rx = Batcher::new(eps.pop().unwrap(), policy);
        let mut tx = Batcher::new(eps.pop().unwrap(), policy);
        for (k, &(flag, fill, size)) in msgs.iter().enumerate() {
            // Half constant fill, half a counter: some of it compresses.
            let payload: Vec<u8> =
                (0..size).map(|i| if i % 2 == 0 { fill as u8 } else { (i / 2) as u8 }).collect();
            if in_place(flag) {
                tx.send_with(MachineId(1), k as u16, |buf| buf.put_slice(&payload));
            } else {
                tx.send(MachineId(1), k as u16, Bytes::from(payload));
            }
        }
        tx.flush_all();
        let got = std::iter::from_fn(|| rx.try_recv().ok())
            .map(|env| (env.kind, env.payload.to_vec()))
            .collect();
        let sent = net.stats().machine(MachineId(0));
        (got, sent.bytes_sent, sent.msgs_sent)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn compress_roundtrips_arbitrary_bytes(data in proptest::collection::vec(0u32..256, 0..2000)) {
            let data: Vec<u8> = data.into_iter().map(|b| b as u8).collect();
            let packed = compress(&data);
            prop_assert_eq!(decompress(&packed).as_deref(), Some(&data[..]));
        }

        #[test]
        fn compress_roundtrips_repetitive_structures(
            unit in proptest::collection::vec(0u32..256, 1..24),
            reps in 1usize..200,
        ) {
            // Highly repetitive input exercises the match/overlap paths.
            let unit: Vec<u8> = unit.into_iter().map(|b| b as u8).collect();
            let data: Vec<u8> = std::iter::repeat_n(unit.iter().copied(), reps).flatten().collect();
            let packed = compress(&data);
            prop_assert_eq!(decompress(&packed).as_deref(), Some(&data[..]));
            if data.len() > 256 {
                prop_assert!(packed.len() < data.len(), "repetitive data must shrink");
            }
        }

        /// ISSUE 17: one `Lzss` state reused over a sequence of inputs
        /// writes, input by input, the stream a fresh state writes. Every
        /// input is cut from the same material, so whatever an earlier one
        /// left in the table is a tempting (and wrong) match for the next.
        #[test]
        fn reused_lzss_state_never_matches_into_an_earlier_input(
            unit in proptest::collection::vec(0u32..256, 1..24),
            inputs in proptest::collection::vec(
                (0usize..60, proptest::collection::vec(0u32..256, 0..80), 0usize..24),
                1..10,
            ),
        ) {
            let mut state = Lzss::default();
            let mut out = vec![0xEE; 3];
            for (reps, noise, skip) in inputs {
                let data: Vec<u8> = std::iter::repeat_n(unit.iter(), reps)
                    .flatten()
                    .chain(&noise)
                    .skip(skip)
                    .map(|&b| b as u8)
                    .collect();
                out.truncate(3);
                state.compress_into(&data, &mut out);
                prop_assert_eq!(&out[..3], &[0xEE; 3], "compress_into appends");
                let fresh = compress(&data);
                prop_assert_eq!(&out[3..], &fresh[..], "a stale table entry showed");
                prop_assert_eq!(&fresh, &reference_compress(&data), "the stream changed");
                prop_assert_eq!(decompress(&fresh).as_deref(), Some(&data[..]));
            }
        }

        /// ISSUE 17: interleaving in-place appends with `send(Bytes)` calls
        /// delivers what the all-`send` path delivers, in the same order,
        /// in the same envelopes and wire bytes — with compression on and
        /// off, oversized payloads (which leave alone) included.
        #[test]
        fn in_place_appends_and_sends_share_one_path(
            msgs in proptest::collection::vec((0u32..2, 0u32..256, 0usize..700), 1..90),
            big in (0usize..90, 16_000usize..20_000),
        ) {
            let mut msgs: Vec<(bool, u32, usize)> =
                msgs.into_iter().map(|(flag, fill, size)| (flag == 1, fill, size)).collect();
            let at = big.0 % msgs.len();
            msgs[at].2 = big.1;
            for policy in [BatchPolicy::default(), BatchPolicy::Uncompressed] {
                let all_send = deliver(policy, &msgs, |_| false);
                prop_assert_eq!(all_send.0.len(), msgs.len());
                prop_assert_eq!(&deliver(policy, &msgs, |flag| flag), &all_send);
                prop_assert_eq!(&deliver(policy, &msgs, |_| true), &all_send);
            }
        }

        #[test]
        fn batcher_delivers_compressed_envelopes_intact(
            payloads in proptest::collection::vec((0u32..256, 0usize..900), 1..40),
        ) {
            // Mixed compressible (constant-fill) payload sizes through a
            // compressing batcher: contents and order must be preserved.
            let (_net, mut eps) = SimNet::new(2, LatencyModel::ZERO);
            let mut b1 = Batcher::new(eps.pop().unwrap(), BatchPolicy::default());
            let mut b0 = Batcher::new(eps.pop().unwrap(), BatchPolicy::default());
            for (k, (fill, size)) in payloads.iter().enumerate() {
                b0.send(MachineId(1), k as u16, Bytes::from(vec![*fill as u8; *size]));
            }
            b0.flush_all();
            for (k, (fill, size)) in payloads.iter().enumerate() {
                let env = b1.recv_timeout(Duration::from_secs(5)).expect("delivery");
                prop_assert_eq!(env.kind, k as u16);
                prop_assert_eq!(env.payload.len(), *size);
                prop_assert!(env.payload.iter().all(|&b| b == *fill as u8));
            }
        }
    }
}

/// Serializability property: the locking engine's fixpoint equals the
/// sequential engine's fixpoint for a confluent update function
/// (max-diffusion), on random graphs and cluster sizes — both driven
/// through the builder.
mod serializability {
    use super::*;
    use graphlab::core::{EngineKind, GraphLab, UpdateContext, UpdateFunction};

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn locking_engine_fixpoint_matches_sequential(g in arb_graph(), machines in 1usize..4) {
            let mut seq = g.clone();
            GraphLab::on(&mut seq).run(MaxDiffusion);
            let mut dist = g.clone();
            GraphLab::on(&mut dist)
                .engine(EngineKind::Locking)
                .machines(machines)
                .run(MaxDiffusion);
            for v in g.vertices() {
                prop_assert_eq!(seq.vertex_data(v), dist.vertex_data(v));
            }
        }
    }
}

/// ISSUE 16: the precomputed lock plans (`ScopePlans`) against the
/// per-scope derivations they replaced. The old `LocalGraph::lock_plan`,
/// the locking engine's `derive_local_locks` and its owned-edge sort live
/// on here, as oracles only.
mod scope_plans {
    use super::*;
    use graphlab::atoms::{InitEdge, InitVertex, LocalGraphInit};
    use graphlab::core::local::{scope_lock, ScopePlans};
    use graphlab::core::LocalGraph;
    use graphlab::graph::{AtomId, ConsistencyModel, EdgeId, LockType};

    type Lg = LocalGraph<f64, f64>;

    /// Oracle: the requester's plan, as the engine used to build it per
    /// scope — sort by `(owner, v)`, merge duplicates to the strongest lock.
    fn lock_plan(lg: &Lg, l: u32, model: ConsistencyModel) -> Vec<(VertexId, LockType)> {
        let mut plan = vec![(lg.vertex_owner(l), lg.vertex_gvid(l), model.central_lock())];
        if let Some(nbr_lock) = model.neighbor_lock() {
            for e in lg.adj(l) {
                plan.push((lg.vertex_owner(e.nbr), lg.vertex_gvid(e.nbr), nbr_lock));
            }
        }
        plan.sort_unstable();
        plan.dedup_by(|next, prev| {
            if prev.1 == next.1 {
                if next.2 == LockType::Write {
                    prev.2 = LockType::Write;
                }
                true
            } else {
                false
            }
        });
        plan.into_iter().map(|(_, v, t)| (v, t)).collect()
    }

    /// Oracle: a remote hop's share, as it used to be derived per hop from
    /// the ghost centre's adjacency. (The engine only ran it where the
    /// centre is a ghost; skipping the centre's self-loop entries lets it
    /// stand in for the owner's own hop too.)
    fn derive_local_locks(lg: &Lg, c: u32, model: ConsistencyModel) -> Vec<(u32, LockType)> {
        let mut locks = Vec::new();
        if lg.owns_vertex(c) {
            locks.push((c, model.central_lock()));
        }
        if let Some(nbr_lock) = model.neighbor_lock() {
            for e in lg.adj(c) {
                if lg.owns_vertex(e.nbr) && e.nbr != c {
                    locks.push((e.nbr, nbr_lock));
                }
            }
        }
        locks.sort_unstable_by_key(|&(lv, _)| lg.vertex_gvid(lv));
        locks.dedup_by_key(|&mut (lv, _)| lv);
        locks
    }

    /// Oracle: a hop's share of the scope's edges, by global edge id.
    fn owned_edges(lg: &Lg, c: u32) -> Vec<u32> {
        let mut owned: Vec<(EdgeId, u32)> = lg
            .adj(c)
            .iter()
            .filter(|e| lg.owns_edge(e.edge))
            .map(|e| (lg.edge_geid(e.edge), e.edge))
            .collect();
        owned.sort_unstable();
        owned.dedup();
        owned.into_iter().map(|(_, le)| le).collect()
    }

    /// Every machine's local graph of a multigraph given as an edge list
    /// and a vertex → machine map, built the way atom ingress would (owned
    /// vertices with their whole adjacency, the far ends as ghosts; an edge
    /// belongs to its target's machine) but admitting self-loops, which
    /// `GraphBuilder` rejects and the plans must still get right.
    fn local_graphs(n: usize, machines: usize, edges: &[(usize, usize)], owner: &[usize]) -> Vec<Lg> {
        (0..machines)
            .map(|m| {
                let mine: Vec<usize> = (0..edges.len())
                    .filter(|&e| owner[edges[e].0] == m || owner[edges[e].1] == m)
                    .collect();
                let mut present: Vec<bool> = owner.iter().map(|&o| o == m).collect();
                for &e in &mine {
                    present[edges[e].0] = true;
                    present[edges[e].1] = true;
                }
                LocalGraph::from_init(
                    LocalGraphInit {
                        machine: MachineId::from(m),
                        num_machines: machines,
                        vertices: (0..n)
                            .filter(|&v| present[v])
                            .map(|v| InitVertex {
                                gvid: VertexId(v as u32),
                                atom: AtomId(owner[v] as u32),
                                owner: MachineId::from(owner[v]),
                                mirrors: Vec::new(),
                                data: 0.0,
                            })
                            .collect(),
                        edges: mine
                            .iter()
                            .map(|&e| InitEdge {
                                geid: EdgeId(e as u32),
                                src: VertexId(edges[e].0 as u32),
                                dst: VertexId(edges[e].1 as u32),
                                owner: MachineId::from(owner[edges[e].1]),
                                data: 0.0,
                            })
                            .collect(),
                        total_vertices: n as u64,
                        total_edges: edges.len() as u64,
                    },
                    None,
                )
            })
            .collect()
    }

    /// `(n, machines, edges, owner)`: endpoints drawn from `0..2n` fold
    /// their upper half onto vertices 0 and 1, so those are hubs and carry
    /// parallel edges and self-loops.
    #[allow(clippy::type_complexity, reason = "a strategy over the tuple the doc comment spells out")]
    fn arb_cluster() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize)>, Vec<usize>)> {
        (2usize..24, 1usize..5).prop_flat_map(|(n, machines)| {
            let end = move |x: usize| if x < n { x } else { x % 2 };
            (
                Just(n),
                Just(machines),
                proptest::collection::vec((0..2 * n, 0..2 * n), 0..90)
                    .prop_map(move |es| es.into_iter().map(|(s, d)| (end(s), end(d))).collect()),
                proptest::collection::vec(0..machines, n..n + 1),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn plans_agree_with_the_per_scope_derivations(cluster in arb_cluster()) {
            let (n, machines, edges, owner) = cluster;
            let lgs = local_graphs(n, machines, &edges, &owner);
            let plans: Vec<ScopePlans> = lgs.iter().map(ScopePlans::build).collect();
            let with_locks = |lg: &Lg, c: u32, model, verts: &[u32]| -> Vec<(VertexId, LockType)> {
                verts.iter().map(|&lv| (lg.vertex_gvid(lv), scope_lock(model, c, lv).unwrap())).collect()
            };
            for model in [ConsistencyModel::Vertex, ConsistencyModel::Edge, ConsistencyModel::Full] {
                for (m, (lg, p)) in lgs.iter().zip(&plans).enumerate() {
                    let me = MachineId::from(m);
                    for c in 0..lg.num_local_vertices() as u32 {
                        prop_assert!(p.row_is_current(lg, c));
                        // Every hop's share, owner or ghost side.
                        let share = with_locks(lg, c, model, p.verts(p.share(c, me, model)));
                        let derived: Vec<_> = derive_local_locks(lg, c, model)
                            .into_iter()
                            .map(|(lv, t)| (lg.vertex_gvid(lv), t))
                            .collect();
                        prop_assert_eq!(&share, &derived);
                        prop_assert_eq!(p.owned_edges(c), &owned_edges(lg, c)[..]);
                        if !lg.owns_vertex(c) {
                            continue;
                        }
                        // The requester's plan: its whole row (the centre
                        // alone under vertex consistency) ...
                        let old = lock_plan(lg, c, model);
                        if model == ConsistencyModel::Vertex {
                            prop_assert_eq!(&share, &old);
                        } else {
                            prop_assert_eq!(&with_locks(lg, c, model, p.verts(p.row(c))), &old);
                        }
                        // ... which the hops' own shares, each taken from
                        // the hop's local graph, tile in machine order.
                        let gc = lg.vertex_gvid(c);
                        let mut tiled = Vec::new();
                        for &h in p.lock_owners(c, me, model) {
                            let (hlg, hp) = (&lgs[h.index()], &plans[h.index()]);
                            let hc = hlg.local_vertex(gc).expect("hop holds the centre");
                            let hop = hp.share(hc, h, model);
                            prop_assert!(!hop.is_empty(), "chain visits a machine owning nothing");
                            tiled.extend(with_locks(hlg, hc, model, hp.verts(hop)));
                        }
                        prop_assert_eq!(&tiled, &old);
                    }
                }
            }
        }
    }
}

/// ISSUE 4: typed-aggregate codec roundtrip properties. The sync plumbing
/// ships accumulators as codec bytes tagged by `Copy` handle ids; these
/// pin (a) that arbitrary accumulator shapes survive the wire and (b)
/// that folding encoded partials in any machine order reproduces the
/// typed fold (associativity/commutativity of the combine over the codec
/// boundary).
mod typed_sync {
    use super::*;
    use graphlab::core::{Aggregate, EngineKind, FnSync, GlobalHandle, GraphLab, SyncCadence, SyncScope};

    /// The custom accumulator shape used by the distributed mean test:
    /// (count, sum) pairs, finalized to a scalar.
    struct Moments;
    impl Aggregate<f64, f64> for Moments {
        type Acc = (u64, Vec<f64>);
        type Out = Vec<f64>;
        fn init(&self) -> (u64, Vec<f64>) {
            (0, vec![0.0, 0.0])
        }
        fn map(&self, s: &SyncScope<'_, f64, f64>) -> (u64, Vec<f64>) {
            let x = *s.vertex_data();
            (1, vec![x, x * x])
        }
        fn combine(&self, acc: &mut (u64, Vec<f64>), part: (u64, Vec<f64>)) {
            acc.0 += part.0;
            for (a, p) in acc.1.iter_mut().zip(part.1) {
                *a += p;
            }
        }
        fn finalize(&self, acc: (u64, Vec<f64>), _: u64) -> Vec<f64> {
            let n = acc.0.max(1) as f64;
            vec![acc.1[0] / n, acc.1[1] / n]
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn accumulator_shapes_roundtrip(
            count in 0u64..u64::MAX,
            moments in proptest::collection::vec(-1e12f64..1e12, 0..8),
        ) {
            let acc = (count, moments);
            let enc = encode_to_bytes(&acc);
            prop_assert_eq!(decode_from::<(u64, Vec<f64>)>(enc), Some(acc));
        }

        #[test]
        fn encoded_partial_fold_is_order_independent(
            parts in proptest::collection::vec(
                (1u64..1000, proptest::collection::vec(-1e6f64..1e6, 2..3)),
                1..6,
            ),
            perm_seed in 0u64..1000,
        ) {
            let op = Moments;
            // Typed fold in listed order.
            let mut direct = op.init();
            for p in &parts {
                op.combine(&mut direct, p.clone());
            }
            // Fold through the codec boundary in a permuted (machine
            // arrival) order.
            let mut order: Vec<usize> = (0..parts.len()).collect();
            let mut x = perm_seed.wrapping_add(0x9E3779B9);
            for i in (1..order.len()).rev() {
                x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                order.swap(i, (x % (i as u64 + 1)) as usize);
            }
            let mut wired = op.init();
            for &i in &order {
                let bytes = encode_to_bytes(&parts[i]);
                let decoded = decode_from::<(u64, Vec<f64>)>(bytes).expect("roundtrip");
                op.combine(&mut wired, decoded);
            }
            prop_assert_eq!(direct.0, wired.0);
            for (a, b) in direct.1.iter().zip(&wired.1) {
                prop_assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0));
            }
        }

        /// End to end: the typed mean published by a distributed run equals
        /// the mean computed directly from the final graph data.
        #[test]
        fn distributed_typed_aggregate_matches_direct_computation(
            g in arb_graph(),
            machines in 1usize..4,
        ) {
            const MOMENTS: GlobalHandle<Vec<f64>> = GlobalHandle::new(3);
            let mut dist = g.clone();
            let out = GraphLab::on(&mut dist)
                .engine(EngineKind::Locking)
                .machines(machines)
                .sync(MOMENTS, Moments, SyncCadence::Final)
                .run(|_ctx: &mut graphlab::core::UpdateContext<'_, f64, f64>| {});
            let n = dist.num_vertices() as f64;
            let mean: f64 = dist.vertices().map(|v| *dist.vertex_data(v)).sum::<f64>() / n;
            let got = out.globals.get(MOMENTS).expect("published");
            prop_assert!((got[0] - mean).abs() < 1e-9, "mean {} vs {}", got[0], mean);
        }

        /// FnSync (the sum-shaped adapter) through the erased path equals a
        /// direct sum.
        #[test]
        fn fnsync_sum_matches_direct(g in arb_graph()) {
            const SUM: GlobalHandle<Vec<f64>> = GlobalHandle::new(0);
            let mut dist = g.clone();
            let out = GraphLab::on(&mut dist)
                .sync(SUM, FnSync::new(1, |_, d: &f64| vec![*d], |a, _| a), SyncCadence::Final)
                .run(|_ctx: &mut graphlab::core::UpdateContext<'_, f64, f64>| {});
            let direct: f64 = dist.vertices().map(|v| *dist.vertex_data(v)).sum();
            let got = out.globals.get(SUM).expect("published");
            prop_assert!((got[0] - direct).abs() < 1e-9);
        }
    }
}

/// ISSUE 5: chaos suite for the fault-injection fabric + checkpoint
/// recovery. Random seeded `FaultPlan`s (kill point as a fraction of the
/// fault-free run's traffic, victim, dead-window length, snapshot mode and
/// cadence) on small PageRank instances: every run either reconverges to
/// the fault-free ranks or fails with the clean "no complete checkpoint"
/// error — it never hangs, never panics, and never returns a wrong
/// fixpoint. Failing seeds shrink and reprint via proptest as usual.
mod recovery {
    use super::*;
    use graphlab::apps::pagerank::{exact_pagerank, init_ranks, l1_error, PageRank};
    use graphlab::core::{
        EngineKind, FaultPlan, FaultTrigger, GraphLab, RecoveryMode, SnapshotConfig, SnapshotMode,
    };
    use graphlab::workloads::web_graph;
    use std::time::Duration;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn killed_runs_converge_or_fail_cleanly(
            graph_seed in 0u64..1_000,
            plan_seed in 0u64..1_000,
            engine_pick in 0u8..2,
            victim in 1u16..3,
            kill_frac in 0.05f64..0.45,
            dead_window_ms in 5u64..40,
            snap_pick in 0u8..2,
            snap_every in 100u64..400,
        ) {
            let engine = if engine_pick == 0 { EngineKind::Locking } else { EngineKind::Chromatic };
            let mode =
                if snap_pick == 0 { SnapshotMode::Asynchronous } else { SnapshotMode::Synchronous };
            let base = web_graph(120, 3, graph_seed);
            let oracle = exact_pagerank(&base, 0.15, 200);
            let pr = PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true };
            let snapshot = SnapshotConfig { mode, every_updates: snap_every, max_snapshots: 1_000 };

            // Fault-free arm: the reference ranks and the traffic volume
            // the kill point is scaled against.
            let mut clean = base.clone();
            init_ranks(&mut clean);
            let clean_out = GraphLab::on(&mut clean)
                .engine(engine)
                .machines(3)
                .snapshot(snapshot)
                .run(pr.clone());
            let clean_ranks: Vec<f64> = clean.vertices().map(|v| *clean.vertex_data(v)).collect();
            prop_assert!(l1_error(&clean_ranks, &oracle) < 1e-6);

            // Chaos arm: kill mid-run (the faulty run sends at least as
            // much as the clean one, so the trigger always fires), restart
            // after a short dead window.
            let kill_at = ((clean_out.metrics.total_messages as f64 * kill_frac) as u64).max(10);
            let mut chaos = base.clone();
            init_ranks(&mut chaos);
            let result = GraphLab::on(&mut chaos)
                .engine(engine)
                .machines(3)
                .snapshot(snapshot)
                .faults(FaultPlan::seeded(plan_seed).kill_and_restart(
                    victim,
                    FaultTrigger::Deliveries(kill_at),
                    FaultTrigger::Elapsed(Duration::from_millis(dead_window_ms)),
                ))
                .try_run(pr.clone());
            match result {
                Ok(out) => {
                    prop_assert!(
                        out.metrics.recoveries >= 1,
                        "kill at delivery {} of ~{} fired mid-run but no rollback happened",
                        kill_at, clean_out.metrics.total_messages
                    );
                    let ranks: Vec<f64> = chaos.vertices().map(|v| *chaos.vertex_data(v)).collect();
                    let l1 = l1_error(&ranks, &clean_ranks);
                    prop_assert!(
                        l1 < 1e-6,
                        "recovered run diverged from the fault-free ranks (L1 {l1})"
                    );
                }
                Err(reason) => {
                    // Legal only when the kill beat the first checkpoint.
                    prop_assert!(
                        reason.contains("no complete checkpoint"),
                        "unexpected failure: {reason}"
                    );
                }
            }
        }

        /// ISSUE 8: under [`RecoveryMode::Adopt`] a permanent kill (no
        /// restart ever) reconverges through atom adoption — never a
        /// rollback, never a failure — regardless of whether the kill
        /// beat the first checkpoint (adoption degrades to journal-only).
        #[test]
        fn permanent_kills_adopt_and_reconverge(
            graph_seed in 0u64..1_000,
            plan_seed in 0u64..1_000,
            engine_pick in 0u8..2,
            victim in 1u16..3,
            kill_frac in 0.05f64..0.45,
            snap_every in 100u64..400,
        ) {
            let engine = if engine_pick == 0 { EngineKind::Locking } else { EngineKind::Chromatic };
            let base = web_graph(120, 3, graph_seed);
            let pr = PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true };
            let snapshot = SnapshotConfig {
                mode: SnapshotMode::Synchronous,
                every_updates: snap_every,
                max_snapshots: 1_000,
            };

            let mut clean = base.clone();
            init_ranks(&mut clean);
            let clean_out = GraphLab::on(&mut clean)
                .engine(engine)
                .machines(3)
                .snapshot(snapshot)
                .run(pr.clone());
            let clean_ranks: Vec<f64> = clean.vertices().map(|v| *clean.vertex_data(v)).collect();

            let kill_at = ((clean_out.metrics.total_messages as f64 * kill_frac) as u64).max(10);
            let mut chaos = base.clone();
            init_ranks(&mut chaos);
            let result = GraphLab::on(&mut chaos)
                .engine(engine)
                .machines(3)
                .snapshot(snapshot)
                .recovery(RecoveryMode::Adopt)
                .faults(
                    FaultPlan::seeded(plan_seed).kill(victim, FaultTrigger::Deliveries(kill_at)),
                )
                .try_run(pr.clone());
            prop_assert!(
                result.is_ok(),
                "adoption must never fail the run: {:?}", result.as_ref().err()
            );
            let out = result.unwrap();
            prop_assert!(
                out.metrics.adoptions >= 1,
                "kill at delivery {} of ~{} fired mid-run but no adoption happened",
                kill_at, clean_out.metrics.total_messages
            );
            prop_assert_eq!(out.metrics.recoveries, 0, "adoption is restart-free");
            let ranks: Vec<f64> = chaos.vertices().map(|v| *chaos.vertex_data(v)).collect();
            let l1 = l1_error(&ranks, &clean_ranks);
            prop_assert!(l1 < 1e-6, "adopted run diverged from the fault-free ranks (L1 {l1})");
        }

        /// ISSUE 8: a network partition that heals *within* the lease
        /// period must cause zero false-positive deaths — no adoptions,
        /// no rollbacks, same fixpoint — even with the fabric's oracle
        /// disabled (lease expiry is the only death detector).
        #[test]
        fn partitions_healing_within_lease_cause_no_deaths(
            graph_seed in 0u64..1_000,
            plan_seed in 0u64..1_000,
            engine_pick in 0u8..2,
            cut_member in 1u16..3,
            cut_at in 50u64..500,
            cut_ms in 5u64..40,
        ) {
            let engine = if engine_pick == 0 { EngineKind::Locking } else { EngineKind::Chromatic };
            let base = web_graph(120, 3, graph_seed);
            let oracle = exact_pagerank(&base, 0.15, 200);
            let pr = PageRank { alpha: 0.15, epsilon: 1e-12, dynamic: true };

            let mut g = base.clone();
            init_ranks(&mut g);
            let result = GraphLab::on(&mut g)
                .engine(engine)
                .machines(3)
                .recovery(RecoveryMode::Adopt)
                // Lease period 10–80× the stall: expiry would be a
                // detector false positive, not a real death.
                .lease(Duration::from_millis(400))
                .faults(
                    FaultPlan::seeded(plan_seed)
                        .partition(
                            &[cut_member],
                            FaultTrigger::Deliveries(cut_at),
                            FaultTrigger::Elapsed(Duration::from_millis(cut_ms)),
                        )
                        .without_oracle(),
                )
                .try_run(pr.clone());
            prop_assert!(
                result.is_ok(),
                "a healed partition must not fail the run: {:?}", result.as_ref().err()
            );
            let out = result.unwrap();
            prop_assert_eq!(out.metrics.adoptions, 0, "false-positive death adopted");
            prop_assert_eq!(out.metrics.recoveries, 0, "false-positive death rolled back");
            let ranks: Vec<f64> = g.vertices().map(|v| *g.vertex_data(v)).collect();
            let l1 = l1_error(&ranks, &oracle);
            prop_assert!(l1 < 1e-6, "partitioned run diverged from the oracle (L1 {l1})");
        }
    }
}

/// ISSUE 10: replication-aware placement invariants. Placement runs
/// inside adoption plans, which must replay identically on every
/// survivor, so it has to be a deterministic pure function of the index
/// (byte-identical across calls), place every atom exactly once, and —
/// composed with the restart-free adoption path behind
/// `RecoveryMode::Adopt` — never leave an atom on a fenced machine.
mod placement_props {
    use super::*;
    use graphlab::atoms::PlacementStrategy;
    use graphlab::graph::AtomId;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn replication_aware_is_deterministic_and_total(
            g in arb_graph(),
            k in 1usize..10,
            machines in 1usize..9,
            seed in 0u64..1_000,
        ) {
            let p = VertexPartition::random_hash(g.num_vertices(), k, seed);
            let (_, index) = build_atoms(&g, &p, "t");
            let a = Placement::with_strategy(&index, machines, PlacementStrategy::ReplicationAware);
            let b = Placement::with_strategy(&index, machines, PlacementStrategy::ReplicationAware);
            prop_assert_eq!(
                encode_to_bytes(&a),
                encode_to_bytes(&b),
                "same index, same machine count: byte-identical assignment"
            );
            let mut covered = 0usize;
            for m in 0..machines {
                covered += a.atoms_of(MachineId::from(m)).len();
            }
            prop_assert_eq!(covered, index.num_atoms(), "every atom placed exactly once");
            let loads = a.loads(&index);
            prop_assert_eq!(
                loads.iter().sum::<u64>(),
                g.num_vertices() as u64,
                "every owned vertex accounted for"
            );
        }

        #[test]
        fn adoption_never_leaves_atoms_on_fenced_machines(
            g in arb_graph(),
            k in 1usize..10,
            machines in 2usize..9,
            seed in 0u64..1_000,
            dead_bits in 1u32..256,
        ) {
            let p = VertexPartition::random_hash(g.num_vertices(), k, seed);
            let (_, index) = build_atoms(&g, &p, "t");
            let placed =
                Placement::with_strategy(&index, machines, PlacementStrategy::ReplicationAware);
            let mut dead: Vec<bool> = (0..machines).map(|m| dead_bits >> m & 1 == 1).collect();
            if dead.iter().all(|&d| d) {
                dead[0] = false; // adoption needs a survivor
            }
            let q = placed.adopt(&index, &dead);
            for a in 0..index.num_atoms() {
                let atom = AtomId(a as u32);
                prop_assert!(
                    !dead[q.machine_of(atom).index()],
                    "atom {} left on fenced machine {}", a, q.machine_of(atom).0
                );
                if !dead[placed.machine_of(atom).index()] {
                    prop_assert_eq!(
                        q.machine_of(atom),
                        placed.machine_of(atom),
                        "survivor atoms stay put"
                    );
                }
            }
        }
    }
}
