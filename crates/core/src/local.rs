//! Machine-local storage of a partition of the distributed data graph.
//!
//! Each machine materialises its [`LocalGraphInit`] (owned vertices/edges
//! plus ghosts, §4.1) into a [`LocalGraph`]: dense columns indexed by
//! *local* ids, a local CSR adjacency, and a data *version* per datum
//! implementing the ghost cache coherence scheme ("cache coherence is
//! managed using a simple versioning system, eliminating the transmission
//! of unchanged or constant data").
//!
//! Local ids are the ranks of the global ids, so the `gvid` and `geid`
//! columns ascend strictly and global → local is a rank query on them,
//! answered through a `RankIndex` per column — no hash map.
//!
//! Invariant: every **owned** vertex has its complete global adjacency
//! locally (guaranteed by atom construction), so update functions always
//! run against full scopes. Ghost vertices have partial adjacency.

use std::ops::Range;

use graphlab_graph::{
    AtomId, Coloring, ConsistencyModel, DataGraph, EdgeDir, EdgeId, LockType, MachineId, VertexId,
};
use graphlab_atoms::{InitEdge, InitVertex, LocalGraphInit};

/// Entry of a local adjacency list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalAdjEntry {
    /// Local index of the neighbour vertex.
    pub nbr: u32,
    /// Local index of the connecting edge.
    pub edge: u32,
    /// Direction of the edge relative to the list's owner.
    pub dir: EdgeDir,
}

/// Global → local over a strictly ascending id column. `start[b]` is the
/// first local id whose global id is at least `b << shift`, so bucket `b`
/// of the column is `start[b]..start[b + 1]`. `shift` is the smallest that
/// leaves no more buckets than ids: at most one `u32` per id, plus two.
struct RankIndex {
    shift: u32,
    start: Vec<u32>,
}

impl RankIndex {
    /// Indexes `col` in one pass; `raw` is an id's integer value.
    fn new<T: Copy>(col: &[T], raw: impl Fn(T) -> u32) -> Self {
        let (n, max) = (col.len() as u64, col.last().map_or(0, |&g| u64::from(raw(g))));
        let shift = (0..32).find(|&s| max >> s < n).unwrap_or(32);
        let buckets = (max >> shift) as usize + 1;
        let mut start = Vec::with_capacity(buckets + 1);
        for (l, &g) in col.iter().enumerate() {
            // The buckets up to `g`'s that have no start yet start here.
            start.resize((u64::from(raw(g)) >> shift) as usize + 1, l as u32);
        }
        start.resize(buckets + 1, n as u32);
        RankIndex { shift, start }
    }

    /// The position of `g` (raw value `raw`) in the indexed `col`, if there.
    #[inline]
    fn rank<T: Ord>(&self, col: &[T], g: T, raw: u32) -> Option<u32> {
        let b = (u64::from(raw) >> self.shift) as usize;
        let hi = *self.start.get(b + 1)? as usize;
        let lo = self.start[b] as usize;
        col[lo..hi].binary_search(&g).ok().map(|i| (lo + i) as u32)
    }
}

/// One machine's portion of the data graph.
pub struct LocalGraph<V, E> {
    machine: MachineId,
    num_machines: usize,
    total_vertices: u64,
    total_edges: u64,

    // Vertex columns (local index).
    gvid: Vec<VertexId>,
    vowner: Vec<MachineId>,
    vdata: Vec<V>,
    vversion: Vec<u64>,
    vcolor: Vec<u32>,
    /// Owner atom of each local vertex (ghosts included) — the unit of
    /// per-atom checkpointing and adoption.
    vatom: Vec<AtomId>,
    /// For owned vertices: machines holding a ghost copy.
    vmirrors: Vec<Vec<MachineId>>,

    // Edge columns (local index).
    geid: Vec<EdgeId>,
    esrc: Vec<u32>,
    edst: Vec<u32>,
    eowner: Vec<MachineId>,
    edata: Vec<E>,
    eversion: Vec<u64>,

    // Local CSR adjacency over local vertices.
    adj_off: Vec<u32>,
    adj: Vec<LocalAdjEntry>,

    // Global → local over `gvid` and `geid`.
    vrank: RankIndex,
    erank: RankIndex,

    /// Local indices of owned vertices, ascending by global id.
    owned: Vec<u32>,
}

impl<V, E> LocalGraph<V, E> {
    /// Materialises an ingress part. `coloring`, when present, attaches a
    /// colour to every local vertex (chromatic engine).
    ///
    /// Local ids are the ranks of the global ids, so an `init` ascending by
    /// global id — what [`graphlab_atoms::load_machine_part`] returns — is
    /// taken as it is; any other order is sorted first.
    pub fn from_init(init: LocalGraphInit<V, E>, coloring: Option<&Coloring>) -> Self {
        let LocalGraphInit {
            machine,
            num_machines,
            mut vertices,
            mut edges,
            total_vertices,
            total_edges,
        } = init;
        // (Asked first: the stable sort would set up its merge buffer even
        // for sorted input.)
        if !vertices.is_sorted_by_key(|v| v.gvid) {
            vertices.sort_by_key(|v| v.gvid);
        }
        if !edges.is_sorted_by_key(|e| e.geid) {
            edges.sort_by_key(|e| e.geid);
        }
        // The rank indexes and every sort by local id rely on this.
        debug_assert!(
            vertices.is_sorted_by(|a, b| a.gvid < b.gvid) && edges.is_sorted_by(|a, b| a.geid < b.geid),
            "global ids are unique in a part"
        );
        let nv = vertices.len();
        let ne = edges.len();

        let mut gvid = Vec::with_capacity(nv);
        let mut vowner = Vec::with_capacity(nv);
        let mut vdata = Vec::with_capacity(nv);
        let mut vmirrors = Vec::with_capacity(nv);
        let mut vcolor = Vec::with_capacity(nv);
        let mut vatom = Vec::with_capacity(nv);
        for InitVertex { gvid: g, atom, owner, mirrors, data } in vertices {
            gvid.push(g);
            vowner.push(owner);
            vdata.push(data);
            vmirrors.push(mirrors);
            vcolor.push(coloring.map_or(0, |c| c.color(g)));
            vatom.push(atom);
        }
        let vrank = RankIndex::new(&gvid, |v| v.0);
        let local_of = |g: VertexId| {
            vrank.rank(&gvid, g, g.0).unwrap_or_else(|| panic!("edge endpoint {g} locally present"))
        };

        let mut geid = Vec::with_capacity(ne);
        let mut esrc = Vec::with_capacity(ne);
        let mut edst = Vec::with_capacity(ne);
        let mut eowner = Vec::with_capacity(ne);
        let mut edata = Vec::with_capacity(ne);
        for InitEdge { geid: g, src, dst, owner, data } in edges {
            geid.push(g);
            esrc.push(local_of(src));
            edst.push(local_of(dst));
            eowner.push(owner);
            edata.push(data);
        }
        let erank = RankIndex::new(&geid, |e| e.0);

        // CSR over local vertices.
        let mut counts = vec![0u32; nv + 1];
        for i in 0..ne {
            counts[esrc[i] as usize + 1] += 1;
            counts[edst[i] as usize + 1] += 1;
        }
        for i in 0..nv {
            counts[i + 1] += counts[i];
        }
        let adj_off = counts;
        let mut cursor: Vec<u32> = adj_off[..nv].to_vec();
        let mut adj = vec![LocalAdjEntry { nbr: 0, edge: 0, dir: EdgeDir::Out }; 2 * ne];
        for e in 0..ne {
            let (s, d) = (esrc[e], edst[e]);
            adj[cursor[s as usize] as usize] =
                LocalAdjEntry { nbr: d, edge: e as u32, dir: EdgeDir::Out };
            cursor[s as usize] += 1;
            adj[cursor[d as usize] as usize] =
                LocalAdjEntry { nbr: s, edge: e as u32, dir: EdgeDir::In };
            cursor[d as usize] += 1;
        }
        // Deterministic order: each slice by (global nbr id, global edge id),
        // which is the order of the local ids.
        for vi in 0..nv {
            let (lo, hi) = (adj_off[vi] as usize, adj_off[vi + 1] as usize);
            adj[lo..hi].sort_unstable_by_key(|e| (e.nbr, e.edge));
        }

        let owned: Vec<u32> = (0..nv as u32).filter(|&i| vowner[i as usize] == machine).collect();

        LocalGraph {
            machine,
            num_machines,
            total_vertices,
            total_edges,
            gvid,
            vowner,
            vdata,
            vversion: vec![0; nv],
            vcolor,
            vatom,
            vmirrors,
            geid,
            esrc,
            edst,
            eowner,
            edata,
            eversion: vec![0; ne],
            adj_off,
            adj,
            vrank,
            erank,
            owned,
        }
    }

    /// Builds the whole graph as a single machine's local graph (sequential
    /// reference engine, single-machine runs).
    pub fn single_machine(graph: &DataGraph<V, E>, coloring: Option<&Coloring>) -> Self
    where
        V: Clone,
        E: Clone,
    {
        let init = LocalGraphInit {
            machine: MachineId(0),
            num_machines: 1,
            vertices: graph
                .vertices()
                .map(|v| InitVertex {
                    gvid: v,
                    atom: AtomId(0),
                    owner: MachineId(0),
                    mirrors: Vec::new(),
                    data: graph.vertex_data(v).clone(),
                })
                .collect(),
            edges: graph
                .edges()
                .map(|e| {
                    let (src, dst) = graph.edge_endpoints(e);
                    InitEdge {
                        geid: e,
                        src,
                        dst,
                        owner: MachineId(0),
                        data: graph.edge_data(e).clone(),
                    }
                })
                .collect(),
            total_vertices: graph.num_vertices() as u64,
            total_edges: graph.num_edges() as u64,
        };
        LocalGraph::from_init(init, coloring)
    }

    // ---- identity & sizes ----

    /// This machine.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Cluster size.
    pub fn num_machines(&self) -> usize {
        self.num_machines
    }

    /// |V| of the full distributed graph.
    pub fn total_vertices(&self) -> u64 {
        self.total_vertices
    }

    /// |E| of the full distributed graph.
    pub fn total_edges(&self) -> u64 {
        self.total_edges
    }

    /// Number of local (owned + ghost) vertices.
    pub fn num_local_vertices(&self) -> usize {
        self.gvid.len()
    }

    /// Number of local edges.
    pub fn num_local_edges(&self) -> usize {
        self.geid.len()
    }

    /// Local indices of owned vertices.
    pub fn owned_vertices(&self) -> &[u32] {
        &self.owned
    }

    // ---- id mapping ----

    /// Local index of a global vertex id, if present.
    #[inline]
    pub fn local_vertex(&self, g: VertexId) -> Option<u32> {
        self.vrank.rank(&self.gvid, g, g.0)
    }

    /// Local index of a global edge id, if present.
    #[inline]
    pub fn local_edge(&self, g: EdgeId) -> Option<u32> {
        self.erank.rank(&self.geid, g, g.0)
    }

    /// Global id of a local vertex.
    #[inline]
    pub fn vertex_gvid(&self, l: u32) -> VertexId {
        self.gvid[l as usize]
    }

    /// Global id of a local edge.
    #[inline]
    pub fn edge_geid(&self, l: u32) -> EdgeId {
        self.geid[l as usize]
    }

    // ---- ownership / coherence ----

    /// Owner machine of a local vertex.
    #[inline]
    pub fn vertex_owner(&self, l: u32) -> MachineId {
        self.vowner[l as usize]
    }

    /// Whether this machine owns the vertex.
    #[inline]
    pub fn owns_vertex(&self, l: u32) -> bool {
        self.vowner[l as usize] == self.machine
    }

    /// Owner machine of a local edge.
    #[inline]
    pub fn edge_owner(&self, l: u32) -> MachineId {
        self.eowner[l as usize]
    }

    /// Whether this machine owns the edge.
    #[inline]
    pub fn owns_edge(&self, l: u32) -> bool {
        self.eowner[l as usize] == self.machine
    }

    /// Machines holding ghosts of an owned vertex.
    #[inline]
    pub fn vertex_mirrors(&self, l: u32) -> &[MachineId] {
        &self.vmirrors[l as usize]
    }

    /// Owner atom of a local vertex (ghosts included). Edges belong to
    /// the atom of their **target** vertex (the atom-construction edge
    /// ownership rule), so this also keys per-atom edge grouping.
    #[inline]
    pub fn vertex_atom(&self, l: u32) -> AtomId {
        self.vatom[l as usize]
    }

    /// Owner atom of a local edge: the atom of its target vertex.
    #[inline]
    pub fn edge_atom(&self, l: u32) -> AtomId {
        self.vatom[self.edst[l as usize] as usize]
    }

    /// Current version of a vertex datum (authoritative on the owner,
    /// cached elsewhere).
    #[inline]
    pub fn vertex_version(&self, l: u32) -> u64 {
        self.vversion[l as usize]
    }

    /// Current version of an edge datum.
    #[inline]
    pub fn edge_version(&self, l: u32) -> u64 {
        self.eversion[l as usize]
    }

    /// Owner-side version bump after a local write; returns the new version.
    #[inline]
    pub fn bump_vertex_version(&mut self, l: u32) -> u64 {
        debug_assert!(self.owns_vertex(l));
        self.vversion[l as usize] += 1;
        self.vversion[l as usize]
    }

    /// Owner-side edge version bump; returns the new version.
    #[inline]
    pub fn bump_edge_version(&mut self, l: u32) -> u64 {
        debug_assert!(self.owns_edge(l));
        self.eversion[l as usize] += 1;
        self.eversion[l as usize]
    }

    /// Applies a ghost-cache update if `version` is newer. Returns whether
    /// the payload was applied.
    pub fn apply_vertex_update(&mut self, l: u32, version: u64, data: V) -> bool {
        if version > self.vversion[l as usize] {
            self.vversion[l as usize] = version;
            self.vdata[l as usize] = data;
            true
        } else {
            false
        }
    }

    /// Edge counterpart of [`LocalGraph::apply_vertex_update`].
    pub fn apply_edge_update(&mut self, l: u32, version: u64, data: E) -> bool {
        if version > self.eversion[l as usize] {
            self.eversion[l as usize] = version;
            self.edata[l as usize] = data;
            true
        } else {
            false
        }
    }

    /// Resets every datum version to 0 — the checkpoint-rollback ground
    /// state. Valid only when the whole cluster resets together against
    /// identical restored data (version 0 means "the value every machine
    /// already holds", the same convention ingress establishes).
    pub fn reset_versions(&mut self) {
        self.vversion.fill(0);
        self.eversion.fill(0);
    }

    // ---- colours ----

    /// Colour of a local vertex (0 when no colouring was supplied).
    #[inline]
    pub fn vertex_color(&self, l: u32) -> u32 {
        self.vcolor[l as usize]
    }

    // ---- data access ----

    /// Vertex data (local index).
    #[inline]
    pub fn vertex_data(&self, l: u32) -> &V {
        &self.vdata[l as usize]
    }

    /// Mutable vertex data (local index). Engines are responsible for the
    /// consistency protocol; user code goes through `UpdateContext`.
    #[inline]
    pub fn vertex_data_mut(&mut self, l: u32) -> &mut V {
        &mut self.vdata[l as usize]
    }

    /// Edge data (local index).
    #[inline]
    pub fn edge_data(&self, l: u32) -> &E {
        &self.edata[l as usize]
    }

    /// Mutable edge data (local index).
    #[inline]
    pub fn edge_data_mut(&mut self, l: u32) -> &mut E {
        &mut self.edata[l as usize]
    }

    /// Endpoints of a local edge as local indices `(src, dst)`.
    #[inline]
    pub fn edge_endpoints_local(&self, l: u32) -> (u32, u32) {
        (self.esrc[l as usize], self.edst[l as usize])
    }

    /// Local adjacency of a local vertex.
    #[inline]
    pub fn adj(&self, l: u32) -> &[LocalAdjEntry] {
        let lo = self.adj_off[l as usize] as usize;
        let hi = self.adj_off[l as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Consumes the local graph, returning the owned data for result
    /// collection: `(vertex rows, edge rows)` with global ids.
    #[allow(clippy::type_complexity, reason = "two row lists with global ids; the doc comment names them")]
    pub fn into_owned_data(mut self) -> (Vec<(VertexId, V)>, Vec<(EdgeId, E)>) {
        let mut vrows = Vec::with_capacity(self.owned.len());
        // Drain in descending local index so swap_remove-like moves stay valid.
        let owned = std::mem::take(&mut self.owned);
        let mut vdata: Vec<Option<V>> = self.vdata.into_iter().map(Some).collect();
        for &l in &owned {
            vrows.push((self.gvid[l as usize], vdata[l as usize].take().expect("owned data")));
        }
        let mut erows = Vec::new();
        let mut edata: Vec<Option<E>> = self.edata.into_iter().map(Some).collect();
        for (l, &geid) in self.geid.iter().enumerate() {
            if self.eowner[l] == self.machine {
                erows.push((geid, edata[l].take().expect("owned edge data")));
            }
        }
        (vrows, erows)
    }
}

/// Precomputed lock plans of the locking engine (§4.2.2): one CSR row per
/// local vertex `c` (owned or ghost) holding its scope — `c` and its local
/// adjacency as local ids, deduplicated, in the canonical deadlock-avoidance
/// order `(owner(v), gvid(v))` — cut into per-owner runs, plus the edges of
/// `c`'s adjacency this machine owns, by global edge id.
///
/// Rows are model-independent. The requester's plan is the whole row of
/// its (owned, hence fully adjacent) centre; a remote hop's share is the
/// `owner == me` run of the *ghost* centre's row, which agrees with the
/// requester's because every edge incident on an owned vertex is local; the
/// chain's machine list is the run owners. The lock type is applied at use
/// ([`scope_lock`]); vertex consistency narrows every range to the centre.
pub struct ScopePlans {
    verts: Vec<u32>,
    /// Row `c` is runs `run_off[c]..run_off[c + 1]`; run `k` is owned by
    /// `run_owner[k]` and spans `verts[run_start[k]..run_start[k + 1]]`.
    run_off: Vec<u32>,
    run_owner: Vec<MachineId>,
    run_start: Vec<u32>,
    edge_off: Vec<u32>,
    edges: Vec<u32>,
}

/// The lock a scope of centre `c` under `model` takes on its row vertex
/// `lv` (`None`: vertex consistency leaves neighbours unlocked). A centre
/// with a self-loop is write-locked once — the strongest lock wins.
#[inline]
pub fn scope_lock(model: ConsistencyModel, c: u32, lv: u32) -> Option<LockType> {
    if lv == c {
        Some(model.central_lock())
    } else {
        model.neighbor_lock()
    }
}

/// `c`'s scope as local ids in canonical order, duplicates merged.
fn scope_row<V, E>(lg: &LocalGraph<V, E>, c: u32, row: &mut Vec<u32>) {
    row.clear();
    row.push(c);
    row.extend(lg.adj(c).iter().map(|e| e.nbr));
    // Local ids ascend with global ids: this is the order `(owner, gvid)`.
    row.sort_unstable_by_key(|&l| (lg.vertex_owner(l), l));
    row.dedup();
}

impl ScopePlans {
    /// Builds every row of `lg`: O(|E_local| log d) time, about
    /// `4·(|V_local| + 2|E_local|)` bytes.
    pub fn build<V, E>(lg: &LocalGraph<V, E>) -> Self {
        let nv = lg.num_local_vertices();
        let mut p = ScopePlans {
            verts: Vec::with_capacity(nv + lg.adj.len()),
            run_off: Vec::with_capacity(nv + 1),
            run_owner: Vec::new(),
            run_start: Vec::new(),
            edge_off: Vec::with_capacity(nv + 1),
            edges: Vec::new(),
        };
        let (mut row, mut owned) = (Vec::new(), Vec::new());
        for c in 0..nv as u32 {
            p.run_off.push(p.run_owner.len() as u32);
            p.edge_off.push(p.edges.len() as u32);
            scope_row(lg, c, &mut row);
            for (i, &l) in row.iter().enumerate() {
                let owner = lg.vertex_owner(l);
                if i == 0 || lg.vertex_owner(row[i - 1]) != owner {
                    p.run_owner.push(owner);
                    p.run_start.push(p.verts.len() as u32);
                }
                p.verts.push(l);
            }
            // A self-loop lists its edge twice in `adj(c)`.
            owned.clear();
            owned.extend(lg.adj(c).iter().map(|e| e.edge).filter(|&e| lg.owns_edge(e)));
            owned.sort_unstable();
            owned.dedup();
            p.edges.extend_from_slice(&owned);
        }
        p.run_off.push(p.run_owner.len() as u32);
        p.run_start.push(p.verts.len() as u32);
        p.edge_off.push(p.edges.len() as u32);
        p
    }

    /// Local vertex ids of an index range handed out by this type.
    #[inline]
    pub fn verts(&self, r: Range<u32>) -> &[u32] {
        &self.verts[r.start as usize..r.end as usize]
    }

    /// The local vertex id at index `i` of the vertex array.
    #[inline]
    pub fn vert(&self, i: u32) -> u32 {
        self.verts[i as usize]
    }

    fn runs(&self, c: u32) -> Range<usize> {
        self.run_off[c as usize] as usize..self.run_off[c as usize + 1] as usize
    }

    /// `c`'s whole row: the requester's plan under edge/full consistency.
    pub fn row(&self, c: u32) -> Range<u32> {
        let runs = self.runs(c);
        self.run_start[runs.start]..self.run_start[runs.end]
    }

    /// The machines owning a vertex of `c`'s row, ascending — under
    /// edge/full consistency the machines its lock chain visits.
    #[inline]
    pub fn owners(&self, c: u32) -> &[MachineId] {
        &self.run_owner[self.runs(c)]
    }

    /// The machines a chain for `c` (owned by `owner`) visits under
    /// `model`: every owner, or only the centre's under vertex consistency.
    pub fn lock_owners(&self, c: u32, owner: MachineId, model: ConsistencyModel) -> &[MachineId] {
        let owners = self.owners(c);
        if model.neighbor_lock().is_some() {
            return owners;
        }
        let k = owners.binary_search(&owner).expect("centre is in its own row");
        &owners[k..=k]
    }

    /// Machine `m`'s share of the locks of `c`'s scope under `model`, in
    /// acquisition order (empty when `m` owns none of them).
    pub fn share(&self, c: u32, m: MachineId, model: ConsistencyModel) -> Range<u32> {
        let Ok(k) = self.owners(c).binary_search(&m) else { return 0..0 };
        let k = self.runs(c).start + k;
        let run = self.run_start[k]..self.run_start[k + 1];
        if model.neighbor_lock().is_some() {
            return run;
        }
        // Vertex consistency: the centre alone, on the machine owning it.
        match self.verts(run.clone()).iter().position(|&l| l == c) {
            Some(i) => run.start + i as u32..run.start + i as u32 + 1,
            None => 0..0,
        }
    }

    /// The edges of `c`'s adjacency this machine owns, ascending by global
    /// edge id — a hop's share of the scope's edge data.
    #[inline]
    pub fn owned_edges(&self, c: u32) -> &[u32] {
        &self.edges[self.edge_off[c as usize] as usize..self.edge_off[c as usize + 1] as usize]
    }

    /// Whether `c`'s stored row still describes `lg` — false when the
    /// local graph was rebuilt (rollback, adoption) without its plans.
    pub fn row_is_current<V, E>(&self, lg: &LocalGraph<V, E>, c: u32) -> bool {
        let mut row = Vec::new();
        scope_row(lg, c, &mut row);
        self.run_off.len() == lg.num_local_vertices() + 1 && row == self.verts(self.row(c))
    }
}

/// Owner-side table of the highest data version each remote machine is
/// known to hold for each locally-stored datum — the responder half of the
/// §4.2.2 ghost-cache versioning scheme ("eliminating the transmission of
/// unchanged or constant data").
///
/// Entries are advanced on exactly two events, both of which ride FIFO
/// channels so the remote copy is guaranteed current by the time any later
/// message from this machine is processed there:
///
/// 1. a scope-data row is shipped to machine `m` (it will apply it before
///    executing the scope that requested it), and
/// 2. a write-back from machine `m` is applied (the writer holds exactly
///    the data it wrote).
///
/// **Invalidation**: local writes bump the datum's version, which makes
/// every machine's entry stale automatically (entry < current ⇒ resend),
/// and nothing else is needed. A snapshot, in either mode, saves rows and
/// changes no datum and no version. Recovery,
/// which replaces data, builds a fresh table. Entries start at 0, which is
/// *valid* knowledge: version-0 data is the ingress-loaded initial value
/// every machine already holds.
#[derive(Debug)]
pub struct RemoteCacheTable {
    nv: usize,
    ne: usize,
    v: Vec<u64>,
    e: Vec<u64>,
}

impl RemoteCacheTable {
    /// A table for `machines` peers over `nv` local vertices and `ne`
    /// local edges, all initialised to version 0.
    pub fn new(machines: usize, nv: usize, ne: usize) -> Self {
        RemoteCacheTable { nv, ne, v: vec![0; machines * nv], e: vec![0; machines * ne] }
    }

    /// Highest vertex version machine `m` is known to hold for local
    /// vertex `lv`.
    #[inline]
    pub fn v_known(&self, m: usize, lv: u32) -> u64 {
        self.v[m * self.nv + lv as usize]
    }

    /// Records that machine `m` holds at least version `ver` of `lv`.
    #[inline]
    pub fn note_v(&mut self, m: usize, lv: u32, ver: u64) {
        let slot = &mut self.v[m * self.nv + lv as usize];
        if ver > *slot {
            *slot = ver;
        }
    }

    /// Highest edge version machine `m` is known to hold for local edge
    /// `le`.
    #[inline]
    pub fn e_known(&self, m: usize, le: u32) -> u64 {
        self.e[m * self.ne + le as usize]
    }

    /// Records that machine `m` holds at least version `ver` of `le`.
    #[inline]
    pub fn note_e(&mut self, m: usize, le: u32, ver: u64) {
        let slot = &mut self.e[m * self.ne + le as usize];
        if ver > *slot {
            *slot = ver;
        }
    }

    /// Forgets everything: every subsequent sync re-sends ground truth.
    /// No engine needs it (see "Invalidation" above); the `glbench`
    /// cache-table layer resets a table with it between passes.
    pub fn invalidate_all(&mut self) {
        self.v.fill(0);
        self.e.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlab_graph::GraphBuilder;

    fn path3() -> DataGraph<f64, f64> {
        // v0 -> v1 -> v2
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..3).map(|i| b.add_vertex(i as f64)).collect();
        b.add_edge(v[0], v[1], 0.1).unwrap();
        b.add_edge(v[1], v[2], 0.2).unwrap();
        b.build()
    }

    /// The requester's plan of `l` under `model` as `(vertex, lock)` pairs:
    /// every visited machine's share, in chain order.
    fn plan(
        lg: &LocalGraph<f64, f64>,
        l: u32,
        model: ConsistencyModel,
    ) -> Vec<(VertexId, LockType)> {
        let plans = ScopePlans::build(lg);
        assert!(plans.row_is_current(lg, l));
        plans
            .lock_owners(l, lg.vertex_owner(l), model)
            .iter()
            .flat_map(|&m| plans.verts(plans.share(l, m, model)).to_vec())
            .map(|lv| (lg.vertex_gvid(lv), scope_lock(model, l, lv).expect("planned vertex")))
            .collect()
    }

    #[test]
    fn single_machine_mirrors_graph() {
        let g = path3();
        let lg = LocalGraph::single_machine(&g, None);
        assert_eq!(lg.num_local_vertices(), 3);
        assert_eq!(lg.num_local_edges(), 2);
        assert_eq!(lg.owned_vertices().len(), 3);
        assert_eq!(lg.total_vertices(), 3);
        let l1 = lg.local_vertex(VertexId(1)).unwrap();
        assert_eq!(lg.adj(l1).len(), 2);
        assert!(lg.owns_vertex(l1));
    }

    #[test]
    fn from_init_does_not_depend_on_the_order_of_its_input() {
        use graphlab_atoms::{build_atoms, load_machine_part, write_atoms, Placement, SimDfs, VertexPartition};
        // A ring with chords and a parallel pair, cut into 5 atoms on 2
        // machines: owned vertices, ghosts, owned and ghost edge copies.
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..30).map(|i| b.add_vertex(i as f64)).collect();
        for i in 0..30 {
            b.add_edge(v[i], v[(i + 1) % 30], i as f64).unwrap();
            b.add_edge(v[(i * 7 + 3) % 30], v[i], 0.5).unwrap();
        }
        b.add_edge(v[0], v[1], 9.0).unwrap();
        let g = b.build();
        let coloring = graphlab_graph::greedy_coloring(&g);
        let dfs = SimDfs::new();
        let (atoms, index) = build_atoms(&g, &VertexPartition::random_hash(30, 5, 3), "g");
        write_atoms(&dfs, "g", &atoms, &index);
        let placement = Placement::compute(&index, 2);

        for m in [MachineId(0), MachineId(1)] {
            let sorted = load_machine_part::<f64, f64>(&dfs, &index, &placement, m).unwrap();
            let mut shuffled = sorted.clone();
            shuffled.vertices.sort_by_key(|v| v.gvid.0.wrapping_mul(2_654_435_761));
            shuffled.edges.sort_by_key(|e| e.geid.0.wrapping_mul(2_654_435_761));
            assert!(!shuffled.vertices.is_sorted_by_key(|v| v.gvid));
            assert!(!shuffled.edges.is_sorted_by_key(|e| e.geid));

            let a = LocalGraph::from_init(sorted, Some(&coloring));
            let b = LocalGraph::from_init(shuffled, Some(&coloring));
            for gv in g.vertices() {
                assert_eq!(a.local_vertex(gv), b.local_vertex(gv));
            }
            for ge in g.edges() {
                assert_eq!(a.local_edge(ge), b.local_edge(ge));
            }
            // Local ids agree, so every column can be compared directly.
            assert!(a.num_local_vertices() > a.owned_vertices().len(), "the part has ghosts");
            assert_eq!(a.owned_vertices(), b.owned_vertices());
            for l in 0..a.num_local_vertices() as u32 {
                assert_eq!(a.vertex_gvid(l), b.vertex_gvid(l));
                assert_eq!(a.adj(l), b.adj(l));
                assert_eq!(a.vertex_owner(l), b.vertex_owner(l));
                assert_eq!(a.vertex_atom(l), b.vertex_atom(l));
                assert_eq!(a.vertex_mirrors(l), b.vertex_mirrors(l));
                assert_eq!(a.vertex_color(l), coloring.color(a.vertex_gvid(l)));
                assert_eq!(a.vertex_color(l), b.vertex_color(l));
                assert_eq!(a.vertex_data(l), b.vertex_data(l));
                // Each list ascends by (global neighbour id, global edge id).
                let key = |e: &LocalAdjEntry| (a.vertex_gvid(e.nbr), a.edge_geid(e.edge));
                assert!(a.adj(l).is_sorted_by_key(key));
            }
            for l in 0..a.num_local_edges() as u32 {
                assert_eq!(a.edge_geid(l), b.edge_geid(l));
                assert_eq!(a.edge_endpoints_local(l), b.edge_endpoints_local(l));
                assert_eq!(a.edge_owner(l), b.edge_owner(l));
                assert_eq!(a.edge_data(l), b.edge_data(l));
            }
        }
    }

    #[test]
    fn lock_plan_edge_consistency_sorted_dedup() {
        let g = path3();
        let lg = LocalGraph::single_machine(&g, None);
        let l1 = lg.local_vertex(VertexId(1)).unwrap();
        let plan = plan(&lg, l1, ConsistencyModel::Edge);
        assert_eq!(
            plan,
            vec![
                (VertexId(0), LockType::Read),
                (VertexId(1), LockType::Write),
                (VertexId(2), LockType::Read),
            ]
        );
    }

    #[test]
    fn lock_plan_vertex_consistency_is_central_only() {
        let g = path3();
        let lg = LocalGraph::single_machine(&g, None);
        let l1 = lg.local_vertex(VertexId(1)).unwrap();
        assert_eq!(
            plan(&lg, l1, ConsistencyModel::Vertex),
            vec![(VertexId(1), LockType::Write)]
        );
    }

    #[test]
    fn lock_plan_full_consistency_write_locks_neighbors() {
        let g = path3();
        let lg = LocalGraph::single_machine(&g, None);
        let l0 = lg.local_vertex(VertexId(0)).unwrap();
        assert_eq!(
            plan(&lg, l0, ConsistencyModel::Full),
            vec![(VertexId(0), LockType::Write), (VertexId(1), LockType::Write)]
        );
    }

    #[test]
    fn parallel_edges_dedup_to_strongest_lock() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(0.0f64);
        let c = b.add_vertex(1.0f64);
        b.add_edge(a, c, 1.0f64).unwrap();
        b.add_edge(c, a, 2.0).unwrap();
        let g = b.build();
        let lg = LocalGraph::single_machine(&g, None);
        let la = lg.local_vertex(VertexId(0)).unwrap();
        let plan = plan(&lg, la, ConsistencyModel::Edge);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0], (VertexId(0), LockType::Write));
        assert_eq!(plan[1], (VertexId(1), LockType::Read));
    }

    #[test]
    fn version_updates_apply_monotonically() {
        let g = path3();
        let mut lg = LocalGraph::single_machine(&g, None);
        assert!(lg.apply_vertex_update(0, 3, 99.0));
        assert_eq!(*lg.vertex_data(0), 99.0);
        assert!(!lg.apply_vertex_update(0, 2, 11.0), "stale update dropped");
        assert_eq!(*lg.vertex_data(0), 99.0);
        assert!(lg.apply_edge_update(1, 1, 0.9));
        assert_eq!(*lg.edge_data(1), 0.9);
    }

    #[test]
    fn bump_versions_increment() {
        let g = path3();
        let mut lg = LocalGraph::single_machine(&g, None);
        assert_eq!(lg.bump_vertex_version(0), 1);
        assert_eq!(lg.bump_vertex_version(0), 2);
        assert_eq!(lg.bump_edge_version(0), 1);
        assert_eq!(lg.vertex_version(0), 2);
    }

    #[test]
    fn into_owned_data_returns_everything_single_machine() {
        let g = path3();
        let lg = LocalGraph::single_machine(&g, None);
        let (vs, es) = lg.into_owned_data();
        assert_eq!(vs.len(), 3);
        assert_eq!(es.len(), 2);
    }

    #[test]
    fn remote_cache_table_notes_are_monotone() {
        let mut t = RemoteCacheTable::new(3, 4, 2);
        assert_eq!(t.v_known(1, 2), 0);
        t.note_v(1, 2, 5);
        assert_eq!(t.v_known(1, 2), 5);
        t.note_v(1, 2, 3); // stale note ignored
        assert_eq!(t.v_known(1, 2), 5);
        t.note_v(1, 2, 9);
        assert_eq!(t.v_known(1, 2), 9);
        // Other machines and other vertices are independent.
        assert_eq!(t.v_known(0, 2), 0);
        assert_eq!(t.v_known(1, 3), 0);
        t.note_e(2, 1, 7);
        assert_eq!(t.e_known(2, 1), 7);
        assert_eq!(t.e_known(2, 0), 0);
        t.invalidate_all();
        assert_eq!(t.v_known(1, 2), 0);
        assert_eq!(t.e_known(2, 1), 0);
    }

    #[test]
    fn colors_attached() {
        let g = path3();
        let coloring = graphlab_graph::greedy_coloring(&g);
        let lg = LocalGraph::single_machine(&g, Some(&coloring));
        for l in 0..3u32 {
            assert_eq!(lg.vertex_color(l), coloring.color(lg.vertex_gvid(l)));
        }
    }
}
