//! The data graph `G = (V, E, D)` (§3.1).
//!
//! The graph is *structurally static*: it is assembled once through a
//! [`GraphBuilder`] and never changes shape afterwards, while the vertex and
//! edge data remain mutable. This mirrors the paper's contract ("while the
//! graph data is mutable, the structure is static and cannot be changed
//! during execution").
//!
//! Internally the builder produces a CSR (compressed sparse row) layout with
//! three adjacency views per vertex:
//!
//! - out-edges `v → u`,
//! - in-edges `u → v`,
//! - the *combined* adjacency `N[v]` (both directions, sorted by neighbour
//!   id) that scopes (§3.2), lock plans (§4.2.2) and colouring (§4.2.1)
//!   operate on.

use std::fmt;

use crate::ids::{EdgeId, VertexId};

/// Direction of an edge relative to the vertex whose adjacency list it
/// appears in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EdgeDir {
    /// The edge leaves this vertex (`v → nbr`).
    Out,
    /// The edge enters this vertex (`nbr → v`).
    In,
}

/// One entry of a vertex's combined adjacency list.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NeighborEntry {
    /// The adjacent vertex.
    pub nbr: VertexId,
    /// The directed edge connecting the two vertices.
    pub edge: EdgeId,
    /// Whether `edge` leaves (`Out`) or enters (`In`) the owning vertex.
    pub dir: EdgeDir,
}

/// Errors raised while assembling a graph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum GraphError {
    /// An edge referenced a vertex id that was never added.
    UnknownVertex(VertexId),
    /// Self edges are rejected: the GraphLab scope of `v` would alias the
    /// central vertex with one of its own neighbours, which breaks the
    /// locking protocols.
    SelfEdge(VertexId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::UnknownVertex(v) => write!(f, "unknown vertex {v}"),
            GraphError::SelfEdge(v) => write!(f, "self edge on {v} is not allowed"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Builder assembling the static structure plus initial data of a
/// [`DataGraph`].
pub struct GraphBuilder<V, E> {
    vertex_data: Vec<V>,
    edges: Vec<(VertexId, VertexId)>,
    edge_data: Vec<E>,
}

impl<V, E> Default for GraphBuilder<V, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, E> GraphBuilder<V, E> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder { vertex_data: Vec::new(), edges: Vec::new(), edge_data: Vec::new() }
    }

    /// Creates a builder with pre-reserved capacity.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        GraphBuilder {
            vertex_data: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
            edge_data: Vec::with_capacity(edges),
        }
    }

    /// Adds a vertex carrying `data` and returns its id.
    pub fn add_vertex(&mut self, data: V) -> VertexId {
        let id = VertexId::from(self.vertex_data.len());
        self.vertex_data.push(data);
        id
    }

    /// Adds the directed edge `src → dst` carrying `data`.
    ///
    /// Parallel edges are permitted (they carry independent data); self
    /// edges are rejected.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, data: E) -> Result<EdgeId, GraphError> {
        if src == dst {
            return Err(GraphError::SelfEdge(src));
        }
        let n = self.vertex_data.len();
        for v in [src, dst] {
            if v.index() >= n {
                return Err(GraphError::UnknownVertex(v));
            }
        }
        let id = EdgeId::from(self.edges.len());
        self.edges.push((src, dst));
        self.edge_data.push(data);
        Ok(id)
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.vertex_data.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalises the structure into an immutable-shape [`DataGraph`].
    pub fn build(self) -> DataGraph<V, E> {
        let n = self.vertex_data.len();
        let m = self.edges.len();

        // Combined adjacency: every directed edge contributes one entry to
        // each endpoint. Counting pass, then prefix sums, then a fill pass —
        // the standard two-pass CSR construction.
        let mut counts = vec![0u32; n + 1];
        for &(s, d) in &self.edges {
            counts[s.index() + 1] += 1;
            counts[d.index() + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut entries = vec![
            NeighborEntry { nbr: VertexId(0), edge: EdgeId(0), dir: EdgeDir::Out };
            2 * m
        ];
        for (eidx, &(s, d)) in self.edges.iter().enumerate() {
            let e = EdgeId::from(eidx);
            let cs = cursor[s.index()] as usize;
            entries[cs] = NeighborEntry { nbr: d, edge: e, dir: EdgeDir::Out };
            cursor[s.index()] += 1;
            let cd = cursor[d.index()] as usize;
            entries[cd] = NeighborEntry { nbr: s, edge: e, dir: EdgeDir::In };
            cursor[d.index()] += 1;
        }
        // Sort each vertex's slice by (neighbour, edge) so lock plans and
        // deterministic iteration come for free.
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            entries[lo..hi].sort_unstable_by_key(|e| (e.nbr, e.edge));
        }

        DataGraph {
            vertex_data: self.vertex_data,
            edges: self.edges,
            edge_data: self.edge_data,
            adj_offsets: offsets,
            adj_entries: entries,
        }
    }
}

/// The GraphLab data graph: static directed structure plus mutable
/// user-defined vertex data `D_v` and edge data `D_{u→v}`.
pub struct DataGraph<V, E> {
    vertex_data: Vec<V>,
    edges: Vec<(VertexId, VertexId)>,
    edge_data: Vec<E>,
    /// CSR offsets into `adj_entries`, length `n + 1`.
    adj_offsets: Vec<u32>,
    /// Combined adjacency entries, `2m` total.
    adj_entries: Vec<NeighborEntry>,
}

impl<V, E> DataGraph<V, E> {
    /// Convenience constructor for an empty builder.
    pub fn builder() -> GraphBuilder<V, E> {
        GraphBuilder::new()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.vertex_data.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> + '_ {
        (0..self.vertex_data.len()).map(VertexId::from)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId::from)
    }

    /// The `(source, target)` endpoints of a directed edge.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e.index()]
    }

    /// Immutable access to a vertex's data.
    #[inline]
    pub fn vertex_data(&self, v: VertexId) -> &V {
        &self.vertex_data[v.index()]
    }

    /// Mutable access to a vertex's data.
    #[inline]
    pub fn vertex_data_mut(&mut self, v: VertexId) -> &mut V {
        &mut self.vertex_data[v.index()]
    }

    /// Immutable access to an edge's data.
    #[inline]
    pub fn edge_data(&self, e: EdgeId) -> &E {
        &self.edge_data[e.index()]
    }

    /// Mutable access to an edge's data.
    #[inline]
    pub fn edge_data_mut(&mut self, e: EdgeId) -> &mut E {
        &mut self.edge_data[e.index()]
    }

    /// The combined adjacency `N[v]`: every edge incident to `v` in either
    /// direction, sorted by `(neighbour, edge)`.
    #[inline]
    pub fn adj(&self, v: VertexId) -> &[NeighborEntry] {
        let lo = self.adj_offsets[v.index()] as usize;
        let hi = self.adj_offsets[v.index() + 1] as usize;
        &self.adj_entries[lo..hi]
    }

    /// Total degree (in + out) of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj(v).len()
    }

    /// Out-edges of `v`.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = NeighborEntry> + '_ {
        self.adj(v).iter().copied().filter(|e| e.dir == EdgeDir::Out)
    }

    /// In-edges of `v`.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = NeighborEntry> + '_ {
        self.adj(v).iter().copied().filter(|e| e.dir == EdgeDir::In)
    }

    /// The distinct neighbours of `v` (parallel edges deduplicated).
    pub fn distinct_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        let adj = self.adj(v);
        adj.iter().enumerate().filter_map(move |(i, e)| {
            if i == 0 || adj[i - 1].nbr != e.nbr {
                Some(e.nbr)
            } else {
                None
            }
        })
    }

    /// Borrow all vertex data as a slice (index = vertex id).
    pub fn vertex_data_slice(&self) -> &[V] {
        &self.vertex_data
    }

    /// Applies `f` to every vertex's data.
    pub fn map_vertex_data<V2>(self, f: impl FnMut(VertexId, V) -> V2) -> DataGraph<V2, E> {
        let mut f = f;
        DataGraph {
            vertex_data: self
                .vertex_data
                .into_iter()
                .enumerate()
                .map(|(i, v)| f(VertexId::from(i), v))
                .collect(),
            edges: self.edges,
            edge_data: self.edge_data,
            adj_offsets: self.adj_offsets,
            adj_entries: self.adj_entries,
        }
    }
}

impl<V, E> std::fmt::Debug for DataGraph<V, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DataGraph")
            .field("vertices", &self.num_vertices())
            .field("edges", &self.num_edges())
            .finish_non_exhaustive()
    }
}

impl<V: Clone, E: Clone> Clone for DataGraph<V, E> {
    fn clone(&self) -> Self {
        DataGraph {
            vertex_data: self.vertex_data.clone(),
            edges: self.edges.clone(),
            edge_data: self.edge_data.clone(),
            adj_offsets: self.adj_offsets.clone(),
            adj_entries: self.adj_entries.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DataGraph<u32, &'static str> {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.add_vertex(i * 10)).collect();
        b.add_edge(v[0], v[1], "01").unwrap();
        b.add_edge(v[0], v[2], "02").unwrap();
        b.add_edge(v[1], v[3], "13").unwrap();
        b.add_edge(v[2], v[3], "23").unwrap();
        b.build()
    }

    #[test]
    fn builds_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.degree(VertexId(3)), 2);
    }

    #[test]
    fn adjacency_has_both_directions() {
        let g = diamond();
        let a1: Vec<_> = g.adj(VertexId(1)).to_vec();
        assert_eq!(a1.len(), 2);
        assert_eq!(a1[0].nbr, VertexId(0));
        assert_eq!(a1[0].dir, EdgeDir::In);
        assert_eq!(a1[1].nbr, VertexId(3));
        assert_eq!(a1[1].dir, EdgeDir::Out);
    }

    #[test]
    fn adjacency_sorted_by_neighbor() {
        let g = diamond();
        for v in g.vertices() {
            let adj = g.adj(v);
            assert!(adj.windows(2).all(|w| (w[0].nbr, w[0].edge) <= (w[1].nbr, w[1].edge)));
        }
    }

    #[test]
    fn out_and_in_edges_partition_adj() {
        let g = diamond();
        for v in g.vertices() {
            let outs = g.out_edges(v).count();
            let ins = g.in_edges(v).count();
            assert_eq!(outs + ins, g.degree(v));
        }
        assert_eq!(g.out_edges(VertexId(0)).count(), 2);
        assert_eq!(g.in_edges(VertexId(3)).count(), 2);
    }

    #[test]
    fn self_edge_rejected() {
        let mut b = GraphBuilder::<(), ()>::new();
        let v = b.add_vertex(());
        assert_eq!(b.add_edge(v, v, ()), Err(GraphError::SelfEdge(v)));
    }

    #[test]
    fn unknown_vertex_rejected() {
        let mut b = GraphBuilder::<(), ()>::new();
        let v = b.add_vertex(());
        assert_eq!(
            b.add_edge(v, VertexId(9), ()),
            Err(GraphError::UnknownVertex(VertexId(9)))
        );
    }

    #[test]
    fn parallel_edges_keep_distinct_data() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(());
        let c = b.add_vertex(());
        let e1 = b.add_edge(a, c, 1).unwrap();
        let e2 = b.add_edge(a, c, 2).unwrap();
        let g = b.build();
        assert_eq!(*g.edge_data(e1), 1);
        assert_eq!(*g.edge_data(e2), 2);
        assert_eq!(g.distinct_neighbors(a).collect::<Vec<_>>(), vec![c]);
        assert_eq!(g.degree(a), 2);
    }

    #[test]
    fn data_is_mutable_structure_is_not() {
        let mut g = diamond();
        *g.vertex_data_mut(VertexId(2)) = 99;
        assert_eq!(*g.vertex_data(VertexId(2)), 99);
        *g.edge_data_mut(EdgeId(0)) = "changed";
        assert_eq!(*g.edge_data(EdgeId(0)), "changed");
    }

    #[test]
    fn edge_endpoints_match_insertion() {
        let g = diamond();
        assert_eq!(g.edge_endpoints(EdgeId(0)), (VertexId(0), VertexId(1)));
        assert_eq!(g.edge_endpoints(EdgeId(3)), (VertexId(2), VertexId(3)));
    }

    #[test]
    fn map_vertex_data_preserves_structure() {
        let g = diamond();
        let g2 = g.map_vertex_data(|v, d| (v.0, d as f64));
        assert_eq!(g2.num_edges(), 4);
        assert_eq!(*g2.vertex_data(VertexId(3)), (3, 30.0));
    }
}
