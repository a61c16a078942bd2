//! Atom construction and distributed loading (§4.1, Fig. 5(a)).
//!
//! **Construction** ([`build_atoms`]) cuts a [`DataGraph`] along a
//! [`VertexPartition`] into [`Atom`]s: each atom receives its owned
//! vertices (with mirror-atom lists), *every* edge adjacent to an owned
//! vertex (owned copies where the atom owns the edge's target, ghost
//! copies otherwise), and redundant ghost-vertex records for boundary
//! neighbours. The connectivity of the atoms is summarised in an
//! [`AtomIndex`].
//!
//! **Loading** ([`load_machine_part`]) is what each machine does at launch,
//! and again whenever the placement changes (adoption): fetch the journals
//! of its placed atoms from the DFS and play their records straight into the
//! two vectors of a [`LocalGraphInit`] — no [`Atom`] is rebuilt and nothing
//! is keyed by hash. Ownership is remapped through the [`Placement`] on the
//! way: a record that is a ghost at atom granularity is owned at machine
//! granularity when its owner atom is a sibling on the same machine, and is
//! then dropped in favour of the sibling's owned record; an edge's owned
//! copy is kept, its ghost copy only when the owned one is on another
//! machine.
//!
//! The one piece of scratch is a dense table of 4 bytes per global vertex
//! id, up to the largest id a local journal names and never beyond
//! `index.total_vertices` (the shared colouring costs as much), freed on
//! return: which vertices the part holds so far, and the atom owning each.
//! Vertex records fill it as they come and edge copies are resolved against
//! it only after every journal is in, so the order of records inside a
//! journal does not matter. Each atom's records ascend as [`build_atoms`]
//! writes them, so the stable sorts that put the part in ascending global-id
//! order merge a few runs.
//!
//! Journals and index come from outside the process. A journal that fails
//! its checksum or does not decode is a [`JournalError`]; one that decodes
//! but names a vertex, edge or atom the index and placement do not know, a
//! vertex two records give different owners, or an edge whose endpoints no
//! local journal holds, is [`IngressError::Inconsistent`] — in whatever order
//! its records come, and never a panic. The index's counts only size the
//! output, and no further than the journals' bytes could fill.

use bytes::Bytes;
use graphlab_graph::{AtomId, DataGraph, EdgeId, MachineId, VertexId};
use graphlab_net::codec::Codec;

use crate::atom::{Atom, AtomEdge, GhostVertex, OwnedVertex};
use crate::dfs::{DfsError, SimDfs};
use crate::index::{AtomIndex, AtomIndexEntry};
use crate::journal::{JournalError, JournalReader, JournalRecord};
use crate::partition::VertexPartition;
use crate::placement::Placement;

/// One vertex of a machine's local graph part.
#[derive(Clone, Debug, PartialEq)]
pub struct InitVertex<V> {
    /// Global vertex id.
    pub gvid: VertexId,
    /// Atom owning the vertex — the unit of checkpointing and adoption
    /// (a vertex's checkpoint rows live in its atom's file, and adoption
    /// reassigns whole atoms). Set for ghosts too (their owner atom).
    pub atom: AtomId,
    /// Machine owning the vertex (may be this machine).
    pub owner: MachineId,
    /// For *owned* vertices: other machines holding a ghost of it. Empty
    /// for ghosts.
    pub mirrors: Vec<MachineId>,
    /// Initial data.
    pub data: V,
}

/// One edge of a machine's local graph part.
#[derive(Clone, Debug, PartialEq)]
pub struct InitEdge<E> {
    /// Global edge id.
    pub geid: EdgeId,
    /// Source endpoint.
    pub src: VertexId,
    /// Target endpoint.
    pub dst: VertexId,
    /// Machine owning the edge (the machine owning the target's atom).
    pub owner: MachineId,
    /// Initial data.
    pub data: E,
}

/// Everything a machine needs to instantiate its local portion of the
/// distributed data graph.
#[derive(Clone, Debug)]
pub struct LocalGraphInit<V, E> {
    /// This machine.
    pub machine: MachineId,
    /// Cluster size.
    pub num_machines: usize,
    /// Local vertices, owned and ghost (check `owner`), each once.
    /// [`load_machine_part`] returns them strictly ascending by `gvid`; a
    /// consumer must accept any order but may be faster on this one.
    pub vertices: Vec<InitVertex<V>>,
    /// Local edges (owned and ghost copies), each once, both endpoints in
    /// `vertices`. [`load_machine_part`] returns them strictly ascending by
    /// `geid`; as for `vertices`, any order is valid input downstream.
    pub edges: Vec<InitEdge<E>>,
    /// |V| of the full graph.
    pub total_vertices: u64,
    /// |E| of the full graph.
    pub total_edges: u64,
}

/// Cuts `graph` into atoms along `partition` and builds the atom index.
///
/// Edge ownership rule: an edge belongs to the atom owning its **target**
/// vertex; the source's atom (when different) receives a ghost copy so
/// scopes on the source side are locally complete.
pub fn build_atoms<V, E>(
    graph: &DataGraph<V, E>,
    partition: &VertexPartition,
    file_prefix: &str,
) -> (Vec<Atom<V, E>>, AtomIndex)
where
    V: Codec + Clone,
    E: Codec + Clone,
{
    assert_eq!(partition.len(), graph.num_vertices(), "partition covers the graph");
    let k = partition.num_atoms();
    let mut atoms: Vec<Atom<V, E>> = (0..k).map(|a| Atom::new(AtomId(a as u32))).collect();

    // Owned vertices + mirror atom lists. A vertex is a ghost in exactly
    // its mirror atoms, so the ghost records fall out of the same lists.
    let mut mirror_scratch: Vec<AtomId> = Vec::new();
    for v in graph.vertices() {
        let a = partition.atom_of(v);
        mirror_scratch.clear();
        for e in graph.adj(v) {
            let na = partition.atom_of(e.nbr);
            if na != a {
                mirror_scratch.push(na);
            }
        }
        mirror_scratch.sort_unstable();
        mirror_scratch.dedup();
        let data = graph.vertex_data(v);
        for m in &mirror_scratch {
            atoms[m.index()].ghost_vertices.push(GhostVertex {
                gvid: v,
                owner_atom: a,
                data: data.clone(),
            });
        }
        atoms[a.index()].owned_vertices.push(OwnedVertex {
            gvid: v,
            mirrors: mirror_scratch.clone(),
            data: data.clone(),
        });
    }

    // Edges, and the meta-graph's weights: `cross[a * k + b]`, `a < b`,
    // counts the edges between atoms `a` and `b`.
    let mut cross = vec![0u64; k * k];
    let mut owned_edges = vec![0u64; k];
    for e in graph.edges() {
        let (s, d) = graph.edge_endpoints(e);
        let (sa, da) = (partition.atom_of(s), partition.atom_of(d));
        let data = graph.edge_data(e);
        // Owner copy at the target's atom.
        atoms[da.index()].edges.push(AtomEdge { geid: e, src: s, dst: d, owned: true, data: data.clone() });
        owned_edges[da.index()] += 1;
        if sa != da {
            // Ghost copy at the source's atom.
            atoms[sa.index()].edges.push(AtomEdge { geid: e, src: s, dst: d, owned: false, data: data.clone() });
            cross[sa.min(da).index() * k + sa.max(da).index()] += 1;
        }
    }

    let entries = atoms
        .iter()
        .enumerate()
        .map(|(i, atom)| AtomIndexEntry {
            atom: atom.id,
            owned_vertices: atom.owned_vertices.len() as u64,
            owned_edges: owned_edges[i],
            file: AtomIndex::atom_file_name(file_prefix, atom.id),
            neighbors: (0..k)
                .map(|j| (AtomId(j as u32), cross[i.min(j) * k + i.max(j)]))
                .filter(|&(_, w)| w > 0)
                .collect(),
        })
        .collect();

    let index = AtomIndex {
        entries,
        total_vertices: graph.num_vertices() as u64,
        total_edges: graph.num_edges() as u64,
    };
    (atoms, index)
}

/// Writes atom journals plus the index to the DFS under `prefix`.
pub fn write_atoms<V, E>(dfs: &SimDfs, prefix: &str, atoms: &[Atom<V, E>], index: &AtomIndex)
where
    V: Codec,
    E: Codec,
{
    for atom in atoms {
        dfs.write(&AtomIndex::atom_file_name(prefix, atom.id), atom.encode_journal());
    }
    dfs.write(
        &AtomIndex::index_file_name(prefix),
        graphlab_net::codec::encode_to_bytes(index),
    );
}

/// Reads the atom index back from the DFS.
pub fn read_index(dfs: &SimDfs, prefix: &str) -> Result<AtomIndex, IngressError> {
    let bytes = dfs.read(&AtomIndex::index_file_name(prefix))?;
    graphlab_net::codec::decode_from(bytes).ok_or(IngressError::BadIndex)
}

/// Errors raised while loading a machine's part.
#[derive(Debug)]
pub enum IngressError {
    /// DFS-level failure.
    Dfs(DfsError),
    /// Journal decode failure.
    Journal(JournalError),
    /// The atom index failed to decode.
    BadIndex,
    /// A journal that decodes disagrees with the index, the placement or
    /// the other journals of the part.
    Inconsistent(&'static str),
}

impl From<DfsError> for IngressError {
    fn from(e: DfsError) -> Self {
        IngressError::Dfs(e)
    }
}

impl From<JournalError> for IngressError {
    fn from(e: JournalError) -> Self {
        IngressError::Journal(e)
    }
}

impl std::fmt::Display for IngressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngressError::Dfs(e) => write!(f, "ingress dfs error: {e}"),
            IngressError::Journal(e) => write!(f, "ingress journal error: {e}"),
            IngressError::BadIndex => write!(f, "atom index failed to decode"),
            IngressError::Inconsistent(what) => write!(f, "inconsistent atom journal: {what}"),
        }
    }
}

impl std::error::Error for IngressError {}

/// Loads and merges the atoms placed on `machine`: journal playback,
/// deduplication, and atom→machine ownership remapping. Vertices come back
/// strictly ascending by global vertex id, edges by global edge id.
pub fn load_machine_part<V, E>(
    dfs: &SimDfs,
    index: &AtomIndex,
    placement: &Placement,
    machine: MachineId,
) -> Result<LocalGraphInit<V, E>, IngressError>
where
    V: Codec,
    E: Codec,
{
    /// `owner_atom` of a vertex the part does not hold (yet).
    const ABSENT: u32 = u32::MAX;
    /// Bytes the shortest vertex record takes (tag, id, mirror count, blob
    /// length), and the shortest edge record (tag, three ids, flag, length).
    const MIN_VERTEX_RECORD: usize = 4;
    const MIN_EDGE_RECORD: usize = 6;
    const TWO_OWNERS: IngressError = IngressError::Inconsistent("vertex with two owners");
    /// The slot of `v` in `owner_atom`, which grows to the largest id a
    /// journal names and never beyond the index's total.
    fn slot(owner_atom: &mut Vec<u32>, v: VertexId, total: u64) -> Result<&mut u32, IngressError> {
        if v.0 as u64 >= total {
            return Err(IngressError::Inconsistent("vertex id beyond the index's total"));
        }
        if v.index() >= owner_atom.len() {
            owner_atom.resize(v.index() + 1, ABSENT);
        }
        Ok(&mut owner_atom[v.index()])
    }
    let machine_of = |atom: AtomId| {
        let known = atom.index() < placement.num_atoms();
        known
            .then(|| placement.machine_of(atom))
            .ok_or(IngressError::Inconsistent("atom id unknown to the placement"))
    };
    let my_atoms = placement.atoms_of(machine);
    let journals: Vec<Bytes> =
        my_atoms.iter().map(|&a| dfs.read(&index.entry(a).file)).collect::<Result<_, _>>()?;
    // The index's counts size the output, capped by what the journals' bytes
    // can hold: the index comes from outside the process too.
    let bytes: usize = journals.iter().map(Bytes::len).sum();
    let room = |count: fn(&AtomIndexEntry) -> u64, min_record: usize| {
        let declared = my_atoms.iter().fold(0u64, |n, &a| n.saturating_add(count(index.entry(a))));
        usize::try_from(declared).unwrap_or(usize::MAX).min(bytes / min_record)
    };
    let mut vertices: Vec<InitVertex<V>> =
        Vec::with_capacity(room(|e| e.owned_vertices, MIN_VERTEX_RECORD));
    let mut edges: Vec<InitEdge<E>> = Vec::with_capacity(room(|e| e.owned_edges, MIN_EDGE_RECORD));
    // Ghost copies of edges, until every journal is in and says where their
    // targets live.
    let mut ghost_edges: Vec<InitEdge<E>> = Vec::new();
    // Owner atom of every vertex in `vertices`, by global id.
    let mut owner_atom: Vec<u32> = Vec::new();

    for (&a, bytes) in my_atoms.iter().zip(journals) {
        let mut journal = JournalReader::<V, E>::open(bytes)?;
        if journal.atom() != a {
            return Err(IngressError::Inconsistent("journal of another atom"));
        }
        while let Some(record) = journal.next_record()? {
            match record {
                // Owned records are disjoint across atoms, and no ghost
                // record kept so far may name the vertex.
                JournalRecord::Vertex { gvid, mirrors, data } => {
                    let slot = slot(&mut owner_atom, gvid, index.total_vertices)?;
                    if *slot != ABSENT {
                        return Err(TWO_OWNERS);
                    }
                    *slot = a.0;
                    let mut on = Vec::new();
                    for atom in mirrors {
                        let m = machine_of(atom)?;
                        if m != machine {
                            on.push(m);
                        }
                    }
                    on.sort_unstable();
                    on.dedup();
                    vertices.push(InitVertex { gvid, atom: a, owner: machine, mirrors: on, data });
                }
                // A ghost of a sibling atom's vertex is shadowed by that
                // atom's owned record; any other is kept on first sight.
                JournalRecord::Ghost { gvid, owner_atom: atom, data } => {
                    let owner = machine_of(atom)?;
                    let slot = slot(&mut owner_atom, gvid, index.total_vertices)?;
                    if *slot != ABSENT && *slot != atom.0 {
                        return Err(TWO_OWNERS);
                    }
                    if owner != machine && *slot == ABSENT {
                        *slot = atom.0;
                        vertices.push(InitVertex { gvid, atom, owner, mirrors: Vec::new(), data });
                    }
                }
                JournalRecord::Edge { geid, src, dst, owned, data } => {
                    if geid.0 as u64 >= index.total_edges {
                        return Err(IngressError::Inconsistent("edge id beyond the index's total"));
                    }
                    let copies = if owned { &mut edges } else { &mut ghost_edges };
                    copies.push(InitEdge { geid, src, dst, owner: machine, data });
                }
            }
        }
    }

    // An edge belongs to the machine of its target's atom, and both its
    // endpoints must be in the part. A ghost copy is kept iff that machine is
    // another one: otherwise the target's atom is local and its journal has
    // brought the owned copy.
    let atom_of = |v: VertexId| {
        let atom = owner_atom.get(v.index()).copied().filter(|&a| a != ABSENT);
        atom.map(AtomId).ok_or(IngressError::Inconsistent("edge endpoint named by no local journal"))
    };
    for e in &mut edges {
        atom_of(e.src)?;
        e.owner = placement.machine_of(atom_of(e.dst)?);
    }
    for mut e in ghost_edges {
        atom_of(e.src)?;
        e.owner = placement.machine_of(atom_of(e.dst)?);
        if e.owner != machine {
            edges.push(e);
        }
    }

    // Each atom's records ascend already: a stable sort merges the runs. A
    // vertex is in `vertices` once (its slot was absent when it was pushed);
    // copies of an edge collapse into the first.
    vertices.sort_by_key(|v| v.gvid);
    edges.sort_by_key(|e| e.geid);
    edges.dedup_by_key(|e| e.geid);

    Ok(LocalGraphInit {
        machine,
        num_machines: placement.num_machines(),
        vertices,
        edges,
        total_vertices: index.total_vertices,
        total_edges: index.total_edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalWriter;
    use graphlab_graph::GraphBuilder;

    /// A ring of `n` weighted vertices.
    fn ring(n: usize) -> DataGraph<f64, u32> {
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..n).map(|i| b.add_vertex(i as f64)).collect();
        for i in 0..n {
            b.add_edge(vs[i], vs[(i + 1) % n], i as u32).unwrap();
        }
        b.build()
    }

    #[test]
    fn atoms_partition_ownership() {
        let g = ring(20);
        let p = VertexPartition::random_hash(20, 4, 1);
        let (atoms, index) = build_atoms(&g, &p, "t");

        let owned: usize = atoms.iter().map(|a| a.num_owned()).sum();
        assert_eq!(owned, 20);
        let owned_edges: usize = atoms.iter().map(|a| a.num_owned_edges()).sum();
        assert_eq!(owned_edges, 20, "every edge owned exactly once");
        assert_eq!(index.total_vertices, 20);
        assert_eq!(index.total_edges, 20);
    }

    #[test]
    fn index_neighbors_symmetric() {
        let g = ring(30);
        let p = VertexPartition::random_hash(30, 5, 2);
        let (_, index) = build_atoms(&g, &p, "t");
        for e in &index.entries {
            for &(nbr, w) in &e.neighbors {
                let back = index
                    .entry(nbr)
                    .neighbors
                    .iter()
                    .find(|&&(a, _)| a == e.atom)
                    .expect("symmetric meta edge");
                assert_eq!(back.1, w);
            }
        }
    }

    #[test]
    fn mirrors_are_neighbor_atoms() {
        let g = ring(12);
        let p = VertexPartition::random_hash(12, 3, 7);
        let (atoms, _) = build_atoms(&g, &p, "t");
        for atom in &atoms {
            for ov in &atom.owned_vertices {
                let expected: std::collections::BTreeSet<AtomId> = g
                    .adj(ov.gvid)
                    .iter()
                    .map(|e| p.atom_of(e.nbr))
                    .filter(|&a| a != atom.id)
                    .collect();
                let got: std::collections::BTreeSet<AtomId> = ov.mirrors.iter().copied().collect();
                assert_eq!(got, expected);
            }
        }
    }

    #[test]
    fn ghosts_are_the_mirror_lists_and_weights_sum_to_the_cut() {
        // A ring with chords and a parallel pair (a `DataGraph` has no
        // self-loops).
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..40).map(|i| b.add_vertex(i as f64)).collect();
        for i in 0..40 {
            b.add_edge(vs[i], vs[(i + 1) % 40], 0u32).unwrap();
            b.add_edge(vs[i], vs[(i * 7 + 3) % 40], 1).unwrap();
        }
        b.add_edge(vs[0], vs[1], 2).unwrap();
        let g = b.build();
        let p = VertexPartition::random_hash(40, 6, 9);
        let (atoms, index) = build_atoms(&g, &p, "t");

        for atom in &atoms {
            let ghosts: Vec<_> = atom.ghost_vertices.iter().map(|gv| (gv.gvid, gv.owner_atom)).collect();
            let expected: Vec<_> = atoms
                .iter()
                .flat_map(|owner| owner.owned_vertices.iter().map(move |ov| (ov, owner.id)))
                .filter(|(ov, _)| ov.mirrors.contains(&atom.id))
                .map(|(ov, owner)| (ov.gvid, owner))
                .collect();
            let sorted = |mut v: Vec<(VertexId, AtomId)>| {
                v.sort_unstable();
                v
            };
            assert_eq!(sorted(ghosts), sorted(expected), "ghosts of {:?}, each once", atom.id);
            for gv in &atom.ghost_vertices {
                assert_eq!(gv.data, *g.vertex_data(gv.gvid));
            }
        }

        let pairs: u64 = index
            .entries
            .iter()
            .flat_map(|e| e.neighbors.iter().filter(|&&(nbr, _)| e.atom < nbr).map(|&(_, w)| w))
            .sum();
        assert_eq!(pairs, p.cut_edges(&g) as u64);
        for e in &index.entries {
            assert!(e.neighbors.is_sorted(), "meta-graph adjacency ascends by atom");
            assert!(e.neighbors.iter().all(|&(nbr, w)| nbr != e.atom && w > 0));
            assert_eq!(e.owned_edges, atoms[e.atom.index()].num_owned_edges() as u64);
        }
    }

    #[test]
    fn full_ingress_covers_graph() {
        let g = ring(24);
        let p = VertexPartition::random_hash(24, 6, 3);
        let dfs = SimDfs::new();
        let (atoms, index) = build_atoms(&g, &p, "ring");
        write_atoms(&dfs, "ring", &atoms, &index);
        let index2 = read_index(&dfs, "ring").unwrap();
        assert_eq!(index2, index);

        let placement = Placement::compute(&index, 3);
        let mut owned_seen = [false; 24];
        let mut edge_owner_count = vec![0usize; 24];
        for m in 0..3 {
            let part: LocalGraphInit<f64, u32> =
                load_machine_part(&dfs, &index, &placement, MachineId::from(m)).unwrap();
            assert_eq!(part.total_vertices, 24);
            for v in &part.vertices {
                if v.owner == part.machine {
                    assert!(!owned_seen[v.gvid.index()], "vertex owned once");
                    owned_seen[v.gvid.index()] = true;
                    assert_eq!(*g.vertex_data(v.gvid), v.data);
                    assert!(!v.mirrors.contains(&part.machine));
                } else {
                    assert!(v.mirrors.is_empty());
                }
            }
            for e in &part.edges {
                if e.owner == part.machine {
                    edge_owner_count[e.geid.index()] += 1;
                }
                assert_eq!(*g.edge_data(e.geid), e.data);
                assert_eq!(g.edge_endpoints(e.geid), (e.src, e.dst));
            }
        }
        assert!(owned_seen.iter().all(|&s| s), "every vertex owned somewhere");
        assert!(
            edge_owner_count.iter().all(|&c| c == 1),
            "every edge owned exactly once: {edge_owner_count:?}"
        );
    }

    #[test]
    fn local_scopes_are_complete() {
        // Every owned vertex must see its full global adjacency locally.
        let g = ring(18);
        let p = VertexPartition::bfs_grow(&g, 6, 11, 1);
        let dfs = SimDfs::new();
        let (atoms, index) = build_atoms(&g, &p, "x");
        write_atoms(&dfs, "x", &atoms, &index);
        let placement = Placement::compute(&index, 2);
        for m in 0..2 {
            let part: LocalGraphInit<f64, u32> =
                load_machine_part(&dfs, &index, &placement, MachineId::from(m)).unwrap();
            let local_vertices: std::collections::BTreeSet<_> =
                part.vertices.iter().map(|v| v.gvid).collect();
            let local_edges: std::collections::BTreeSet<_> =
                part.edges.iter().map(|e| e.geid).collect();
            for v in part.vertices.iter().filter(|v| v.owner == part.machine) {
                for adj in g.adj(v.gvid) {
                    assert!(local_edges.contains(&adj.edge), "edge {} present", adj.edge);
                    assert!(local_vertices.contains(&adj.nbr), "nbr {} present", adj.nbr);
                }
            }
        }
    }

    #[test]
    fn mirror_machines_match_ghosts() {
        let g = ring(16);
        let p = VertexPartition::random_hash(16, 8, 5);
        let dfs = SimDfs::new();
        let (atoms, index) = build_atoms(&g, &p, "x");
        write_atoms(&dfs, "x", &atoms, &index);
        let placement = Placement::compute(&index, 4);
        let parts: Vec<LocalGraphInit<f64, u32>> = (0..4)
            .map(|m| load_machine_part(&dfs, &index, &placement, MachineId::from(m)).unwrap())
            .collect();
        // ghosts[m] = vertices machine m holds but does not own
        let ghosts: Vec<std::collections::BTreeSet<VertexId>> = parts
            .iter()
            .map(|p| p.vertices.iter().filter(|v| v.owner != p.machine).map(|v| v.gvid).collect())
            .collect();
        for part in &parts {
            for v in part.vertices.iter().filter(|v| v.owner == part.machine) {
                let expected: std::collections::BTreeSet<MachineId> = (0..4)
                    .map(MachineId::from)
                    .filter(|&m| m != part.machine && ghosts[m.index()].contains(&v.gvid))
                    .collect();
                let got: std::collections::BTreeSet<MachineId> = v.mirrors.iter().copied().collect();
                assert_eq!(got, expected, "mirrors of {}", v.gvid);
            }
        }
    }

    #[test]
    fn single_machine_has_no_ghosts() {
        let g = ring(10);
        let p = VertexPartition::random_hash(10, 4, 2);
        let dfs = SimDfs::new();
        let (atoms, index) = build_atoms(&g, &p, "s");
        write_atoms(&dfs, "s", &atoms, &index);
        let placement = Placement::compute(&index, 1);
        let part: LocalGraphInit<f64, u32> =
            load_machine_part(&dfs, &index, &placement, MachineId(0)).unwrap();
        assert_eq!(part.vertices.len(), 10);
        assert!(part.vertices.iter().all(|v| v.owner == MachineId(0)));
        assert!(part.vertices.iter().all(|v| v.mirrors.is_empty()));
        assert_eq!(part.edges.len(), 10);
        assert!(part.edges.iter().all(|e| e.owner == MachineId(0)));
    }
    /// Machine 0's part of a graph in two atoms, one per machine, where
    /// `write` hand-writes atom 0's journal and the index gives `count` for
    /// every count it holds.
    fn load_hand_written_under(
        count: u64,
        write: impl FnOnce(&mut JournalWriter),
    ) -> Result<LocalGraphInit<f64, f64>, IngressError> {
        let dfs = SimDfs::new();
        let entry = |a: u32| AtomIndexEntry {
            atom: AtomId(a),
            owned_vertices: count,
            owned_edges: count,
            file: AtomIndex::atom_file_name("h", AtomId(a)),
            neighbors: Vec::new(),
        };
        let index = AtomIndex { entries: vec![entry(0), entry(1)], total_vertices: count, total_edges: count };
        let mut w = JournalWriter::new(AtomId(0));
        write(&mut w);
        dfs.write(&index.entries[0].file, w.finish());
        let placement = Placement::round_robin(2, 2);
        load_machine_part(&dfs, &index, &placement, MachineId(0))
    }

    /// The same under the index of a 4-vertex, 4-edge graph.
    fn load_hand_written(write: impl FnOnce(&mut JournalWriter)) -> Result<(), IngressError> {
        load_hand_written_under(4, write).map(|_| ())
    }

    fn inconsistency(write: impl FnOnce(&mut JournalWriter)) -> &'static str {
        match load_hand_written(write) {
            Err(IngressError::Inconsistent(what)) => what,
            other => panic!("expected an inconsistency, got {other:?}"),
        }
    }

    #[test]
    fn a_consistent_hand_written_journal_loads() {
        load_hand_written(|w| {
            w.add_edge(EdgeId(3), VertexId(1), VertexId(0), true, &0.5);
            w.add_edge(EdgeId(0), VertexId(0), VertexId(1), false, &0.5);
            w.add_ghost(VertexId(1), AtomId(1), &1.0);
            w.add_vertex(VertexId(0), &[AtomId(1)], &0.0);
        })
        .unwrap();
    }

    #[test]
    fn counts_no_journal_can_fill_reserve_nothing() {
        // An index is outside input too: what it declares sizes the part
        // only as far as the journals' bytes and ids bear it out.
        let write = |w: &mut JournalWriter| {
            w.add_vertex(VertexId(0), &[AtomId(1)], &0.0);
            w.add_ghost(VertexId(1), AtomId(1), &1.0);
            w.add_edge(EdgeId(3), VertexId(1), VertexId(0), true, &0.5);
        };
        let small = load_hand_written_under(4, write).unwrap();
        let huge = load_hand_written_under(u64::MAX, write).unwrap();
        assert_eq!((&huge.vertices, &huge.edges), (&small.vertices, &small.edges));
        assert_eq!((small.vertices.len(), small.edges.len()), (2, 1));
    }

    #[test]
    fn vertex_with_two_owners_is_inconsistent() {
        type Write = fn(&mut JournalWriter);
        let cases: [Write; 4] = [
            // Ghosted from machine 1 and owned here, in either order.
            |w| {
                w.add_ghost(VertexId(1), AtomId(1), &1.0);
                w.add_vertex(VertexId(1), &[], &1.0);
            },
            |w| {
                w.add_vertex(VertexId(1), &[], &1.0);
                w.add_ghost(VertexId(1), AtomId(1), &1.0);
            },
            // Owned twice.
            |w| {
                w.add_vertex(VertexId(1), &[], &1.0);
                w.add_vertex(VertexId(1), &[], &1.0);
            },
            // Ghosted from machine 1 and from a sibling atom.
            |w| {
                w.add_ghost(VertexId(1), AtomId(1), &1.0);
                w.add_ghost(VertexId(1), AtomId(0), &1.0);
            },
        ];
        for write in cases {
            assert_eq!(inconsistency(write), "vertex with two owners");
        }
        // A ghost record met twice is one ghost.
        let part = load_hand_written_under(4, |w| {
            w.add_ghost(VertexId(1), AtomId(1), &1.0);
            w.add_ghost(VertexId(1), AtomId(1), &1.0);
        });
        assert_eq!(part.unwrap().vertices.len(), 1);
    }

    #[test]
    fn owned_vertex_beyond_the_total_is_inconsistent() {
        let what = inconsistency(|w| w.add_vertex(VertexId(4), &[], &0.0));
        assert_eq!(what, "vertex id beyond the index's total");
    }

    #[test]
    fn ghost_vertex_beyond_the_total_is_inconsistent() {
        let what = inconsistency(|w| w.add_ghost(VertexId(u32::MAX), AtomId(1), &0.0));
        assert_eq!(what, "vertex id beyond the index's total");
    }

    #[test]
    fn edge_beyond_the_total_is_inconsistent() {
        let what = inconsistency(|w| {
            w.add_vertex(VertexId(0), &[], &0.0);
            w.add_edge(EdgeId(4), VertexId(0), VertexId(0), true, &0.5);
        });
        assert_eq!(what, "edge id beyond the index's total");
    }

    #[test]
    fn ghost_of_an_unknown_atom_is_inconsistent() {
        let what = inconsistency(|w| w.add_ghost(VertexId(1), AtomId(2), &0.0));
        assert_eq!(what, "atom id unknown to the placement");
    }

    #[test]
    fn mirror_on_an_unknown_atom_is_inconsistent() {
        let what = inconsistency(|w| w.add_vertex(VertexId(0), &[AtomId(1), AtomId(9)], &0.0));
        assert_eq!(what, "atom id unknown to the placement");
    }

    #[test]
    fn edge_whose_target_no_journal_names_is_inconsistent() {
        for owned in [true, false] {
            let what = inconsistency(|w| {
                w.add_vertex(VertexId(0), &[], &0.0);
                w.add_edge(EdgeId(0), VertexId(0), VertexId(1), owned, &0.5);
            });
            assert_eq!(what, "edge endpoint named by no local journal");
        }
    }

    #[test]
    fn edge_whose_source_no_journal_names_is_inconsistent() {
        let what = inconsistency(|w| {
            w.add_ghost(VertexId(1), AtomId(1), &0.0);
            w.add_edge(EdgeId(0), VertexId(0), VertexId(1), false, &0.5);
        });
        assert_eq!(what, "edge endpoint named by no local journal");
    }

    #[test]
    fn journal_of_another_atom_is_inconsistent() {
        let dfs = SimDfs::new();
        let g = ring(8);
        let (atoms, index) = build_atoms(&g, &VertexPartition::random_hash(8, 2, 1), "x");
        write_atoms(&dfs, "x", &atoms, &index);
        dfs.write(&index.entries[0].file, atoms[1].encode_journal());
        let loaded =
            load_machine_part::<f64, u32>(&dfs, &index, &Placement::round_robin(2, 2), MachineId(0));
        assert!(matches!(loaded, Err(IngressError::Inconsistent("journal of another atom"))));
    }
}
