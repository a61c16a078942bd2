//! Update functions and their execution contexts (§3.2).
//!
//! An update function is a *stateless* procedure
//! `f(v, S_v) → (S_v, T)` that transforms the data in the scope of a vertex
//! and returns the set of vertices to be executed in the future. The
//! [`UpdateContext`] is the concrete realisation of the scope `S_v`: it
//! exposes the central vertex, adjacent edges and adjacent vertices with
//! exactly the read/write permissions of the configured
//! [`ConsistencyModel`] (Fig. 2(b)) — violations panic, which is how the
//! "enforce consistency" property of Table 1 is realised.
//!
//! The same context type is used by every engine (sequential reference,
//! chromatic, locking), so application code is engine-agnostic.

use graphlab_graph::{ConsistencyModel, EdgeDir, VertexId};

use crate::globals::{GlobalHandle, GlobalRegistry};
use crate::local::LocalGraph;

/// User computation: the GraphLab update function.
pub trait UpdateFunction<V, E>: Send + Sync + 'static {
    /// Executes on the scope of `ctx.vertex()`. Mutate data through the
    /// context; call [`UpdateContext::schedule`] /
    /// [`UpdateContext::schedule_nbr`] to produce the returned task set `T`.
    fn update(&self, ctx: &mut UpdateContext<'_, V, E>);
}

impl<V, E, F> UpdateFunction<V, E> for F
where
    F: Fn(&mut UpdateContext<'_, V, E>) + Send + Sync + 'static,
{
    fn update(&self, ctx: &mut UpdateContext<'_, V, E>) {
        self(ctx)
    }
}

/// Shared update functions are update functions: callers that reuse one
/// across runs can hand [`crate::GraphLab::run`] an `Arc` clone directly.
impl<V, E, U> UpdateFunction<V, E> for std::sync::Arc<U>
where
    U: UpdateFunction<V, E> + ?Sized,
{
    fn update(&self, ctx: &mut UpdateContext<'_, V, E>) {
        (**self).update(ctx)
    }
}

/// Side effects recorded while an update executes; consumed by the engine
/// at commit time.
#[derive(Debug, Default)]
pub struct UpdateEffects {
    /// Vertices scheduled for future execution (local indices + priority).
    pub scheduled: Vec<(u32, f64)>,
    /// Central vertex datum was written.
    pub dirty_self: bool,
    /// Local edge indices whose data was written.
    pub dirty_edges: Vec<u32>,
    /// Local vertex indices of neighbours whose data was written (full
    /// consistency only).
    pub dirty_nbrs: Vec<u32>,
}

impl UpdateEffects {
    /// Clears for reuse.
    pub fn clear(&mut self) {
        self.scheduled.clear();
        self.dirty_self = false;
        self.dirty_edges.clear();
        self.dirty_nbrs.clear();
    }
}

/// The scope `S_v` handed to an update function.
pub struct UpdateContext<'a, V, E> {
    lg: &'a mut LocalGraph<V, E>,
    /// Local index of the central vertex.
    v: u32,
    consistency: ConsistencyModel,
    prioritized: bool,
    globals: &'a GlobalRegistry,
    effects: &'a mut UpdateEffects,
}

impl<'a, V, E> UpdateContext<'a, V, E> {
    /// Builds a context. `v` is the central vertex's local index; it must
    /// be owned by the machine. `prioritized` is what
    /// [`Self::prioritized`] answers.
    pub fn new(
        lg: &'a mut LocalGraph<V, E>,
        v: u32,
        consistency: ConsistencyModel,
        prioritized: bool,
        globals: &'a GlobalRegistry,
        effects: &'a mut UpdateEffects,
    ) -> Self {
        debug_assert!(lg.owns_vertex(v), "updates execute on locally owned vertices");
        UpdateContext { lg, v, consistency, prioritized, globals, effects }
    }

    // ---- identity ----

    /// Global id of the central vertex.
    #[inline]
    pub fn vertex(&self) -> VertexId {
        self.lg.vertex_gvid(self.v)
    }

    /// Number of vertices in the *global* graph (`n` in PageRank's α/n).
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.lg.total_vertices()
    }

    /// The consistency model this execution runs under.
    #[inline]
    pub fn consistency(&self) -> ConsistencyModel {
        self.consistency
    }

    // ---- central vertex data ----
    //
    // The scope accessors are `#[inline(always)]`. Under `#[inline]` LLVM
    // kept `nbr_data` and `edge_data` out of line once an update called
    // each from two loops (PageRank's rank sum and its prioritized
    // scheduling), and an update cost ~50 % more on the sequential and
    // chromatic engines.

    /// Read the central vertex datum.
    #[inline(always)]
    pub fn vertex_data(&self) -> &V {
        self.lg.vertex_data(self.v)
    }

    /// Write the central vertex datum (allowed in every model).
    #[inline(always)]
    pub fn vertex_data_mut(&mut self) -> &mut V {
        self.effects.dirty_self = true;
        self.lg.vertex_data_mut(self.v)
    }

    // ---- neighbourhood ----

    /// Number of adjacent edges (parallel edges counted individually).
    #[inline(always)]
    pub fn num_neighbors(&self) -> usize {
        self.lg.adj(self.v).len()
    }

    /// Global id of the `i`-th neighbour.
    #[inline]
    pub fn nbr(&self, i: usize) -> VertexId {
        self.lg.vertex_gvid(self.lg.adj(self.v)[i].nbr)
    }

    /// Direction of the `i`-th adjacent edge relative to the centre.
    #[inline(always)]
    pub fn nbr_dir(&self, i: usize) -> EdgeDir {
        self.lg.adj(self.v)[i].dir
    }

    /// Read the `i`-th neighbour's vertex datum.
    ///
    /// # Panics
    /// Under vertex consistency (no read access to neighbours, Fig. 2(b)).
    #[inline(always)]
    pub fn nbr_data(&self, i: usize) -> &V {
        assert!(
            self.consistency.can_read_neighbors(),
            "{} consistency forbids reading neighbour data",
            self.consistency
        );
        self.lg.vertex_data(self.lg.adj(self.v)[i].nbr)
    }

    /// Write the `i`-th neighbour's vertex datum.
    ///
    /// # Panics
    /// Unless running under full consistency.
    #[inline(always)]
    pub fn nbr_data_mut(&mut self, i: usize) -> &mut V {
        assert!(
            self.consistency.can_write_neighbors(),
            "{} consistency forbids writing neighbour data",
            self.consistency
        );
        let nbr = self.lg.adj(self.v)[i].nbr;
        self.effects.dirty_nbrs.push(nbr);
        self.lg.vertex_data_mut(nbr)
    }

    /// Read the `i`-th adjacent edge's datum.
    ///
    /// # Panics
    /// Under vertex consistency.
    #[inline(always)]
    pub fn edge_data(&self, i: usize) -> &E {
        assert!(
            self.consistency.can_access_edges(),
            "{} consistency forbids accessing edge data",
            self.consistency
        );
        self.lg.edge_data(self.lg.adj(self.v)[i].edge)
    }

    /// Write the `i`-th adjacent edge's datum.
    ///
    /// # Panics
    /// Under vertex consistency.
    #[inline(always)]
    pub fn edge_data_mut(&mut self, i: usize) -> &mut E {
        assert!(
            self.consistency.can_access_edges(),
            "{} consistency forbids accessing edge data",
            self.consistency
        );
        let edge = self.lg.adj(self.v)[i].edge;
        self.effects.dirty_edges.push(edge);
        self.lg.edge_data_mut(edge)
    }

    // ---- scheduling ----

    /// Whether the tasks this update schedules pop by priority: true on
    /// the sequential and locking engines under
    /// [`crate::SchedulerKind::Priority`], false under FIFO and on the
    /// chromatic engine, which sweeps colour by colour. An update whose
    /// priority costs work to compute (a read per scheduled neighbour, a
    /// division) asks this once, outside its scheduling loop, and passes
    /// any priority when it is false.
    #[inline]
    pub fn prioritized(&self) -> bool {
        self.prioritized
    }

    /// Schedules the `i`-th neighbour with `priority` (higher = sooner
    /// under the priority scheduler; ignored by FIFO/sweep).
    #[inline(always)]
    pub fn schedule_nbr(&mut self, i: usize, priority: f64) {
        let l = self.lg.adj(self.v)[i].nbr;
        self.effects.scheduled.push((l, priority));
    }

    /// Re-schedules the central vertex itself.
    #[inline(always)]
    pub fn schedule_self(&mut self, priority: f64) {
        self.effects.scheduled.push((self.v, priority));
    }

    /// Schedules an arbitrary vertex of the scope by global id (must be the
    /// centre or an adjacent vertex — GraphLab update functions can only
    /// reach their scope).
    pub fn schedule(&mut self, v: VertexId, priority: f64) {
        debug_assert!(
            v == self.vertex() || (0..self.num_neighbors()).any(|i| self.nbr(i) == v),
            "scheduled vertex {v} outside the scope of {}",
            self.vertex()
        );
        let l = self.lg.local_vertex(v).expect("scheduled vertex is in the scope");
        self.effects.scheduled.push((l, priority));
    }

    // ---- globals (§3.5) ----

    /// Typed read of a global value maintained by a sync operation,
    /// keyed by the [`GlobalHandle`] it was registered under
    /// ([`crate::GraphLab::sync`]). `None` until the sync first runs.
    pub fn global<T: 'static>(&self, handle: GlobalHandle<T>) -> Option<&T> {
        self.globals.get(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlab_graph::{DataGraph, GraphBuilder};

    fn tri() -> DataGraph<f64, f64> {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..3).map(|i| b.add_vertex(i as f64)).collect();
        b.add_edge(v[0], v[1], 0.5).unwrap();
        b.add_edge(v[1], v[2], 1.5).unwrap();
        b.add_edge(v[2], v[0], 2.5).unwrap();
        b.build()
    }

    fn ctx_fixture(
        lg: &mut LocalGraph<f64, f64>,
        v: u32,
        model: ConsistencyModel,
        globals: &GlobalRegistry,
        effects: &mut UpdateEffects,
        f: impl FnOnce(&mut UpdateContext<'_, f64, f64>),
    ) {
        let mut ctx = UpdateContext::new(lg, v, model, false, globals, effects);
        f(&mut ctx);
    }

    #[test]
    fn edge_consistency_read_neighbors_write_edges() {
        let g = tri();
        let mut lg = LocalGraph::single_machine(&g, None);
        let globals = GlobalRegistry::new();
        let mut fx = UpdateEffects::default();
        ctx_fixture(&mut lg, 0, ConsistencyModel::Edge, &globals, &mut fx, |ctx| {
            assert_eq!(ctx.vertex(), VertexId(0));
            assert_eq!(ctx.num_neighbors(), 2);
            let total: f64 = (0..ctx.num_neighbors()).map(|i| ctx.nbr_data(i)).sum();
            assert_eq!(total, 3.0);
            *ctx.edge_data_mut(0) += 1.0;
            *ctx.vertex_data_mut() = 42.0;
            ctx.schedule_nbr(1, 2.0);
        });
        assert!(fx.dirty_self);
        assert_eq!(fx.dirty_edges.len(), 1);
        assert_eq!(fx.scheduled.len(), 1);
        assert_eq!(*lg.vertex_data(0), 42.0);
    }

    #[test]
    #[should_panic(expected = "forbids writing neighbour")]
    fn edge_consistency_rejects_neighbor_write() {
        let g = tri();
        let mut lg = LocalGraph::single_machine(&g, None);
        let globals = GlobalRegistry::new();
        let mut fx = UpdateEffects::default();
        ctx_fixture(&mut lg, 0, ConsistencyModel::Edge, &globals, &mut fx, |ctx| {
            *ctx.nbr_data_mut(0) = 1.0;
        });
    }

    #[test]
    #[should_panic(expected = "forbids reading neighbour")]
    fn vertex_consistency_rejects_neighbor_read() {
        let g = tri();
        let mut lg = LocalGraph::single_machine(&g, None);
        let globals = GlobalRegistry::new();
        let mut fx = UpdateEffects::default();
        ctx_fixture(&mut lg, 0, ConsistencyModel::Vertex, &globals, &mut fx, |ctx| {
            let _ = ctx.nbr_data(0);
        });
    }

    #[test]
    #[should_panic(expected = "forbids accessing edge")]
    fn vertex_consistency_rejects_edge_access() {
        let g = tri();
        let mut lg = LocalGraph::single_machine(&g, None);
        let globals = GlobalRegistry::new();
        let mut fx = UpdateEffects::default();
        ctx_fixture(&mut lg, 0, ConsistencyModel::Vertex, &globals, &mut fx, |ctx| {
            let _ = ctx.edge_data(0);
        });
    }

    #[test]
    fn full_consistency_allows_neighbor_write() {
        let g = tri();
        let mut lg = LocalGraph::single_machine(&g, None);
        let globals = GlobalRegistry::new();
        let mut fx = UpdateEffects::default();
        ctx_fixture(&mut lg, 1, ConsistencyModel::Full, &globals, &mut fx, |ctx| {
            *ctx.nbr_data_mut(0) = -5.0;
        });
        assert_eq!(fx.dirty_nbrs.len(), 1);
    }

    #[test]
    fn globals_visible() {
        const NORM: GlobalHandle<Vec<f64>> = GlobalHandle::new(1);
        const MISSING: GlobalHandle<f64> = GlobalHandle::new(2);
        let g = tri();
        let mut lg = LocalGraph::single_machine(&g, None);
        let mut globals = GlobalRegistry::new();
        globals.set(NORM.id(), std::sync::Arc::new(vec![2.5, 3.5]));
        let mut fx = UpdateEffects::default();
        ctx_fixture(&mut lg, 0, ConsistencyModel::Edge, &globals, &mut fx, |ctx| {
            assert_eq!(ctx.global(NORM), Some(&vec![2.5, 3.5]));
            assert_eq!(ctx.global(MISSING), None);
        });
    }

    #[test]
    fn closures_are_update_functions() {
        fn takes_update<V, E, U: UpdateFunction<V, E>>(_u: &U) {}
        let f = |ctx: &mut UpdateContext<'_, f64, f64>| {
            let _ = ctx.vertex();
        };
        takes_update(&f);
    }
}
