//! The atom index file (§4.1): a *meta-graph* with one vertex per atom and
//! weighted edges encoding atom connectivity, plus per-atom sizes and file
//! locations. Placement (phase two of the two-phase scheme) runs on this
//! tiny graph instead of the full data graph.

use graphlab_graph::AtomId;

/// Per-atom metadata in the index.
#[derive(Clone, Debug, PartialEq)]
pub struct AtomIndexEntry {
    /// The atom.
    pub atom: AtomId,
    /// Number of vertices the atom owns.
    pub owned_vertices: u64,
    /// Number of edges the atom owns.
    pub owned_edges: u64,
    /// DFS file name holding the atom journal.
    pub file: String,
    /// Meta-graph adjacency: `(neighbour atom, cross-edge count)`.
    pub neighbors: Vec<(AtomId, u64)>,
}

graphlab_net::codec_fields! { AtomIndexEntry { atom, owned_vertices, owned_edges, file, neighbors } }

/// The atom index: the meta-graph over all `k` atoms.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct AtomIndex {
    /// Entries, one per atom, sorted by atom id.
    pub entries: Vec<AtomIndexEntry>,
    /// Total vertices in the full graph.
    pub total_vertices: u64,
    /// Total edges in the full graph.
    pub total_edges: u64,
}

graphlab_net::codec_fields! { AtomIndex { entries, total_vertices, total_edges } }

impl AtomIndex {
    /// Number of atoms.
    pub fn num_atoms(&self) -> usize {
        self.entries.len()
    }

    /// Entry lookup by atom id (entries are dense and sorted).
    pub fn entry(&self, atom: AtomId) -> &AtomIndexEntry {
        debug_assert_eq!(self.entries[atom.index()].atom, atom);
        &self.entries[atom.index()]
    }

    /// Conventional DFS file name of the index itself.
    pub fn index_file_name(prefix: &str) -> String {
        format!("{prefix}/atom_index")
    }

    /// Conventional DFS file name of one atom journal.
    pub fn atom_file_name(prefix: &str, atom: AtomId) -> String {
        format!("{prefix}/atom_{:06}", atom.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlab_net::codec::{decode_from, encode_to_bytes};

    fn sample() -> AtomIndex {
        AtomIndex {
            entries: vec![
                AtomIndexEntry {
                    atom: AtomId(0),
                    owned_vertices: 10,
                    owned_edges: 25,
                    file: "g/atom_000000".into(),
                    neighbors: vec![(AtomId(1), 5)],
                },
                AtomIndexEntry {
                    atom: AtomId(1),
                    owned_vertices: 12,
                    owned_edges: 30,
                    file: "g/atom_000001".into(),
                    neighbors: vec![(AtomId(0), 5)],
                },
            ],
            total_vertices: 22,
            total_edges: 55,
        }
    }

    #[test]
    fn codec_roundtrip() {
        let idx = sample();
        let bytes = encode_to_bytes(&idx);
        assert_eq!(decode_from::<AtomIndex>(bytes), Some(idx));
    }

    #[test]
    fn entry_lookup() {
        let idx = sample();
        assert_eq!(idx.entry(AtomId(1)).owned_vertices, 12);
        assert_eq!(idx.num_atoms(), 2);
    }

    #[test]
    fn file_names() {
        assert_eq!(AtomIndex::index_file_name("web"), "web/atom_index");
        assert_eq!(AtomIndex::atom_file_name("web", AtomId(7)), "web/atom_000007");
    }
}
