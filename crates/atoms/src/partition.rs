//! First phase of the two-phase partitioning (§4.1): over-partition the
//! data graph into `k` atoms, `k ≫ #machines`.
//!
//! Two partitioners are provided, matching the paper's options:
//!
//! - [`VertexPartition::random_hash`] — the "Random Hashing" baseline:
//!   stateless, instant, poor locality (used by the Netflix/NER
//!   experiments, Table 2).
//! - [`VertexPartition::bfs_grow`] — a locality-aware heuristic standing in
//!   for ParMetis: multi-source BFS region growing (always extending the
//!   currently smallest atom) followed by greedy boundary refinement that
//!   moves vertices to the neighbouring atom with the highest cut gain
//!   subject to a balance constraint.
//!
//! Domain-specific partitions (e.g. CoSeg "frame blocks", §5.2) are
//! injected through [`VertexPartition::from_assignment`].

use graphlab_graph::{AtomId, DataGraph, VertexId};

/// Assignment of every vertex to an atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexPartition {
    atom_of: Vec<AtomId>,
    num_atoms: usize,
}

#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl VertexPartition {
    /// Wraps an explicit assignment. Panics if an atom id is out of range.
    pub fn from_assignment(atom_of: Vec<AtomId>, num_atoms: usize) -> Self {
        assert!(
            atom_of.iter().all(|a| a.index() < num_atoms),
            "atom id out of range"
        );
        VertexPartition { atom_of, num_atoms }
    }

    /// Random hash partitioning of `n` vertices into `k` atoms.
    pub fn random_hash(n: usize, k: usize, seed: u64) -> Self {
        assert!(k > 0);
        let atom_of = (0..n)
            .map(|v| AtomId((splitmix64(seed ^ (v as u64)) % k as u64) as u32))
            .collect();
        VertexPartition { atom_of, num_atoms: k }
    }

    /// Locality-aware partitioning: BFS region growing + boundary
    /// refinement. `refine_passes` greedy sweeps are applied afterwards
    /// (2 is usually plenty).
    pub fn bfs_grow<V, E>(graph: &DataGraph<V, E>, k: usize, seed: u64, refine_passes: usize) -> Self {
        assert!(k > 0);
        let n = graph.num_vertices();
        let unassigned = AtomId(u32::MAX);
        let mut atom_of = vec![unassigned; n];
        if n == 0 {
            return VertexPartition { atom_of, num_atoms: k };
        }

        // Seed selection: k distinct pseudo-random vertices.
        let mut frontiers: Vec<Vec<VertexId>> = vec![Vec::new(); k];
        let mut sizes = vec![0usize; k];
        let mut assigned = 0usize;
        for (a, frontier) in frontiers.iter_mut().enumerate() {
            if assigned >= n {
                break;
            }
            // Probe for an unassigned seed.
            let mut v = (splitmix64(seed ^ a as u64) % n as u64) as usize;
            while atom_of[v] != unassigned {
                v = (v + 1) % n;
            }
            atom_of[v] = AtomId(a as u32);
            sizes[a] += 1;
            assigned += 1;
            frontier.extend(graph.adj(VertexId::from(v)).iter().map(|e| e.nbr));
        }

        // Grow the currently smallest atom (under the balance cap) with a
        // non-empty frontier. The cap keeps one region from enclosing its
        // neighbours and eating the rest of the graph; enclosed regions are
        // re-seeded at fresh unassigned vertices instead.
        let cap = ((n as f64 / k as f64) * 1.05).ceil() as usize + 1;
        while assigned < n {
            let mut best: Option<usize> = None;
            for a in 0..k {
                if sizes[a] < cap
                    && !frontiers[a].is_empty()
                    && best.is_none_or(|b| sizes[a] < sizes[b])
                {
                    best = Some(a);
                }
            }
            let Some(a) = best else {
                // No growable region: re-seed the smallest atom at the next
                // unassigned vertex (handles enclosure and disconnected
                // remainders alike).
                let a = (0..k).min_by_key(|&a| sizes[a]).expect("k > 0");
                let v = atom_of
                    .iter()
                    .position(|&x| x == unassigned)
                    .expect("assigned < n");
                atom_of[v] = AtomId(a as u32);
                sizes[a] += 1;
                assigned += 1;
                frontiers[a].extend(graph.adj(VertexId::from(v)).iter().map(|e| e.nbr));
                continue;
            };
            let Some(v) = frontiers[a].pop() else { continue };
            if atom_of[v.index()] != unassigned {
                continue;
            }
            atom_of[v.index()] = AtomId(a as u32);
            sizes[a] += 1;
            assigned += 1;
            frontiers[a].extend(graph.adj(v).iter().map(|e| e.nbr));
        }

        let mut part = VertexPartition { atom_of, num_atoms: k };
        part.refine(graph, refine_passes, 1.10);
        part
    }

    /// Greedy boundary refinement: for each vertex, move it to the
    /// neighbouring atom that removes the most cut edges, provided the
    /// target stays under `balance_slack × (n/k)` vertices and the source
    /// does not empty out. `passes` full sweeps are applied.
    pub fn refine<V, E>(&mut self, graph: &DataGraph<V, E>, passes: usize, balance_slack: f64) {
        let n = graph.num_vertices();
        if n == 0 || self.num_atoms <= 1 {
            return;
        }
        let cap = ((n as f64 / self.num_atoms as f64) * balance_slack).ceil() as usize;
        let mut sizes = self.atom_sizes();
        // Scratch: per-pass counts of adjacent atoms, keyed by atom id.
        let mut counts: Vec<u32> = vec![0; self.num_atoms];
        let mut touched: Vec<usize> = Vec::new();
        for _ in 0..passes {
            let mut moved = 0usize;
            for vi in 0..n {
                let v = VertexId::from(vi);
                let cur = self.atom_of[vi];
                if sizes[cur.index()] <= 1 {
                    continue;
                }
                touched.clear();
                for e in graph.adj(v) {
                    let a = self.atom_of[e.nbr.index()].index();
                    if counts[a] == 0 {
                        touched.push(a);
                    }
                    counts[a] += 1;
                }
                let here = counts[cur.index()];
                let mut best_atom = cur.index();
                let mut best_count = here;
                for &a in &touched {
                    if a != cur.index() && counts[a] > best_count && sizes[a] < cap {
                        best_atom = a;
                        best_count = counts[a];
                    }
                }
                for &a in &touched {
                    counts[a] = 0;
                }
                if best_atom != cur.index() {
                    self.atom_of[vi] = AtomId(best_atom as u32);
                    sizes[cur.index()] -= 1;
                    sizes[best_atom] += 1;
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }
    }

    /// Atom of a vertex.
    #[inline]
    pub fn atom_of(&self, v: VertexId) -> AtomId {
        self.atom_of[v.index()]
    }

    /// Number of atoms (`k`).
    pub fn num_atoms(&self) -> usize {
        self.num_atoms
    }

    /// Number of partitioned vertices.
    pub fn len(&self) -> usize {
        self.atom_of.len()
    }

    /// True when no vertices are partitioned.
    pub fn is_empty(&self) -> bool {
        self.atom_of.is_empty()
    }

    /// Vertices per atom.
    pub fn atom_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_atoms];
        for a in &self.atom_of {
            sizes[a.index()] += 1;
        }
        sizes
    }

    /// Number of edges whose endpoints land in different atoms.
    pub fn cut_edges<V, E>(&self, graph: &DataGraph<V, E>) -> usize {
        graph
            .edges()
            .filter(|&e| {
                let (s, d) = graph.edge_endpoints(e);
                self.atom_of(s) != self.atom_of(d)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlab_graph::GraphBuilder;

    /// 2D grid graph, useful because it has obvious locality.
    fn grid(w: usize, h: usize) -> DataGraph<(), ()> {
        let mut b = GraphBuilder::new();
        let ids: Vec<_> = (0..w * h).map(|_| b.add_vertex(())).collect();
        for y in 0..h {
            for x in 0..w {
                let v = ids[y * w + x];
                if x + 1 < w {
                    b.add_edge(v, ids[y * w + x + 1], ()).unwrap();
                }
                if y + 1 < h {
                    b.add_edge(v, ids[(y + 1) * w + x], ()).unwrap();
                }
            }
        }
        b.build()
    }

    #[test]
    fn random_hash_assigns_all_within_range() {
        let p = VertexPartition::random_hash(1000, 16, 7);
        assert_eq!(p.len(), 1000);
        assert_eq!(p.num_atoms(), 16);
        let sizes = p.atom_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        assert!(sizes.iter().all(|&s| s > 20), "roughly uniform: {sizes:?}");
    }

    #[test]
    fn random_hash_is_deterministic() {
        let a = VertexPartition::random_hash(100, 4, 42);
        let b = VertexPartition::random_hash(100, 4, 42);
        assert_eq!(a, b);
        let c = VertexPartition::random_hash(100, 4, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn bfs_grow_covers_everything_balanced() {
        let g = grid(20, 20);
        let p = VertexPartition::bfs_grow(&g, 8, 1, 2);
        let sizes = p.atom_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 400);
        // Largest atom under 1.5x the mean of 400 / 8.
        assert!(sizes.iter().all(|&s| s < 75), "unbalanced: {sizes:?}");
    }

    #[test]
    fn bfs_grow_beats_random_on_grid_cut() {
        let g = grid(30, 30);
        let random = VertexPartition::random_hash(g.num_vertices(), 9, 5);
        let grown = VertexPartition::bfs_grow(&g, 9, 5, 2);
        assert!(
            grown.cut_edges(&g) * 2 < random.cut_edges(&g),
            "bfs {} vs random {}",
            grown.cut_edges(&g),
            random.cut_edges(&g)
        );
    }

    #[test]
    fn refine_never_worsens_cut() {
        let g = grid(15, 15);
        let mut p = VertexPartition::random_hash(g.num_vertices(), 5, 3);
        let before = p.cut_edges(&g);
        p.refine(&g, 3, 1.2);
        let after = p.cut_edges(&g);
        assert!(after <= before, "{after} > {before}");
        assert_eq!(p.atom_sizes().iter().sum::<usize>(), 225);
    }

    #[test]
    fn disconnected_graph_fully_assigned() {
        // 3 isolated vertices + a 4-cycle, 4 atoms.
        let mut b = GraphBuilder::<(), ()>::new();
        for _ in 0..3 {
            b.add_vertex(());
        }
        let c: Vec<_> = (0..4).map(|_| b.add_vertex(())).collect();
        for i in 0..4 {
            b.add_edge(c[i], c[(i + 1) % 4], ()).unwrap();
        }
        let g = b.build();
        let p = VertexPartition::bfs_grow(&g, 4, 9, 1);
        assert_eq!(p.atom_sizes().iter().sum::<usize>(), 7);
    }

    #[test]
    fn from_assignment_validates() {
        let p = VertexPartition::from_assignment(vec![AtomId(0), AtomId(1)], 2);
        assert_eq!(p.atom_of(VertexId(1)), AtomId(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_assignment_rejects_out_of_range() {
        VertexPartition::from_assignment(vec![AtomId(5)], 2);
    }

    #[test]
    fn cut_edges_zero_for_single_atom() {
        let g = grid(5, 5);
        let p = VertexPartition::random_hash(25, 1, 0);
        assert_eq!(p.cut_edges(&g), 0);
    }
}
