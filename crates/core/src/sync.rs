//! The sync operation (§3.5): associative-commutative aggregation over the
//! graph producing global values,
//!
//! ```text
//! Z = Finalize( ⊕_{v ∈ V} Map(S_v) )
//! ```
//!
//! An [`Aggregate`] maps every vertex **scope** to a typed, codec-encodable
//! accumulator; partial accumulators are combined and finalised into every
//! machine's [`crate::GlobalRegistry`] under the [`crate::GlobalHandle`] the
//! program registered it with — by every machine itself, in machine order,
//! at a chromatic cycle end, and by the locking master, which broadcasts
//! the result. Update functions read it back with
//! [`crate::UpdateContext::global`] — a typed read keyed by a `Copy` id, so
//! no names travel on the wire and nothing allocates per evaluation.
//!
//! In the chromatic engine syncs run between colour cycles (trivially
//! consistent); the locking engine interleaves them with computation ("runs
//! continuously in the background") at the program's update cadence, which
//! corresponds to the paper's *inconsistent* sync mode — adequate for the
//! statistics the applications maintain. The map sees the full scope
//! `S_v` (centre, adjacent edges, adjacent vertices), exactly as §3.5
//! defines it; under the locking engine's background mode those neighbour
//! reads may observe slightly stale ghosts.

use std::any::Any;
use std::sync::Arc;

use bytes::Bytes;
use graphlab_graph::{EdgeDir, VertexId};
use graphlab_net::codec::{decode_from, encode_to_bytes, Codec};

use crate::local::LocalGraph;

// ---------------------------------------------------------------------
// Scope view
// ---------------------------------------------------------------------

/// Read-only view of one vertex scope `S_v` handed to [`Aggregate::map`].
///
/// Unlike [`crate::UpdateContext`] this view enforces no consistency model:
/// the sync operation reads whatever is resident (the paper's background
/// sync mode); between chromatic colour cycles that is fully consistent.
pub struct SyncScope<'a, V, E> {
    lg: &'a LocalGraph<V, E>,
    v: u32,
}

impl<'a, V, E> SyncScope<'a, V, E> {
    pub(crate) fn new(lg: &'a LocalGraph<V, E>, v: u32) -> Self {
        SyncScope { lg, v }
    }

    /// Global id of the scope's central vertex.
    #[inline]
    pub fn vertex(&self) -> VertexId {
        self.lg.vertex_gvid(self.v)
    }

    /// The central vertex datum.
    #[inline]
    pub fn vertex_data(&self) -> &V {
        self.lg.vertex_data(self.v)
    }

    /// Number of vertices in the global graph.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.lg.total_vertices()
    }

    /// Number of adjacent edges (parallel edges counted individually).
    #[inline]
    pub fn num_neighbors(&self) -> usize {
        self.lg.adj(self.v).len()
    }

    /// Global id of the `i`-th neighbour.
    #[inline]
    pub fn nbr(&self, i: usize) -> VertexId {
        self.lg.vertex_gvid(self.lg.adj(self.v)[i].nbr)
    }

    /// Direction of the `i`-th adjacent edge relative to the centre.
    #[inline]
    pub fn nbr_dir(&self, i: usize) -> EdgeDir {
        self.lg.adj(self.v)[i].dir
    }

    /// The `i`-th neighbour's vertex datum.
    #[inline]
    pub fn nbr_data(&self, i: usize) -> &V {
        self.lg.vertex_data(self.lg.adj(self.v)[i].nbr)
    }

    /// The `i`-th adjacent edge's datum.
    #[inline]
    pub fn edge_data(&self, i: usize) -> &E {
        self.lg.edge_data(self.lg.adj(self.v)[i].edge)
    }
}

// ---------------------------------------------------------------------
// The typed aggregate
// ---------------------------------------------------------------------

/// A typed sync operation: Fold/Apply aggregation over vertex scopes.
///
/// `map` produces one accumulator per vertex scope, `combine` folds them
/// (must be associative and commutative — partials combine in machine
/// order, not vertex order), and `finalize` turns the cluster-wide
/// accumulator into the published global value (e.g. normalisation). Both
/// the accumulator and the output are [`Codec`]-encodable: partials and
/// finalized values travel as codec bytes tagged with the handle id.
pub trait Aggregate<V, E>: Send + Sync + 'static {
    /// Partial accumulator exchanged between machines.
    type Acc: Codec + Clone + Send + Sync + 'static;
    /// Finalized global value, readable through
    /// [`crate::UpdateContext::global`].
    type Out: Codec + Clone + Send + Sync + 'static;

    /// Identity accumulator.
    fn init(&self) -> Self::Acc;
    /// Maps one vertex scope to an accumulator.
    fn map(&self, scope: &SyncScope<'_, V, E>) -> Self::Acc;
    /// Folds `part` into `acc` (associative, commutative).
    fn combine(&self, acc: &mut Self::Acc, part: Self::Acc);
    /// Finalisation (normalisation etc.); `total_vertices` is |V|.
    fn finalize(&self, acc: Self::Acc, total_vertices: u64) -> Self::Out;
}

/// Element-wise sum sync op: publishes `finalize(Σ map(v))`. The most
/// common shape (convergence estimators, counters, GMM sufficient
/// statistics); constructed from plain functions over the central vertex
/// datum.
#[allow(clippy::type_complexity, reason = "two boxed closures whose signatures are the sync op's contract")]
pub struct FnSync<V> {
    width: usize,
    map: Box<dyn Fn(VertexId, &V) -> Vec<f64> + Send + Sync>,
    finalize: Box<dyn Fn(Vec<f64>, u64) -> Vec<f64> + Send + Sync>,
}

impl<V> FnSync<V> {
    /// Builds a sum-combined sync op over `width`-wide accumulators.
    pub fn new(
        width: usize,
        map: impl Fn(VertexId, &V) -> Vec<f64> + Send + Sync + 'static,
        finalize: impl Fn(Vec<f64>, u64) -> Vec<f64> + Send + Sync + 'static,
    ) -> Self {
        FnSync { width, map: Box::new(map), finalize: Box::new(finalize) }
    }
}

impl<V: Send + Sync + 'static, E: 'static> Aggregate<V, E> for FnSync<V> {
    type Acc = Vec<f64>;
    type Out = Vec<f64>;

    fn init(&self) -> Vec<f64> {
        vec![0.0; self.width]
    }
    fn map(&self, scope: &SyncScope<'_, V, E>) -> Vec<f64> {
        (self.map)(scope.vertex(), scope.vertex_data())
    }
    fn combine(&self, acc: &mut Vec<f64>, part: Vec<f64>) {
        debug_assert_eq!(acc.len(), part.len());
        for (a, p) in acc.iter_mut().zip(part) {
            *a += p;
        }
    }
    fn finalize(&self, acc: Vec<f64>, total_vertices: u64) -> Vec<f64> {
        (self.finalize)(acc, total_vertices)
    }
}

/// Computes one machine's typed partial accumulator over its owned
/// vertices.
pub fn local_partial<V, E, A: Aggregate<V, E>>(op: &A, lg: &LocalGraph<V, E>) -> A::Acc {
    let mut acc = op.init();
    for &l in lg.owned_vertices() {
        let part = op.map(&SyncScope::new(lg, l));
        op.combine(&mut acc, part);
    }
    acc
}

// ---------------------------------------------------------------------
// Type-erased plumbing (engine side)
// ---------------------------------------------------------------------

/// Object-safe seam between the engines and the typed [`Aggregate`]s the
/// program registered: accumulators cross it as codec [`Bytes`] (the wire
/// shape) or `dyn Any` (a fold in progress), tagged by the `Copy` handle
/// id.
pub(crate) trait ErasedSync<V, E>: Send + Sync {
    /// Handle id the finalized value publishes under.
    fn id(&self) -> u32;
    /// One machine's encoded partial over its owned vertices.
    fn local_partial(&self, lg: &LocalGraph<V, E>) -> Bytes;
    /// Fresh identity accumulator for a fold.
    fn init_acc(&self) -> Box<dyn Any + Send>;
    /// Decodes `part` and folds it into `acc`.
    fn combine(&self, acc: &mut dyn Any, part: &Bytes);
    /// Finalizes: returns the encoded value (for broadcast) and the typed
    /// value (for the finalizing machine's own registry).
    fn finalize(&self, acc: Box<dyn Any + Send>, total_vertices: u64)
        -> (Bytes, Arc<dyn Any + Send + Sync>);
    /// Decodes a broadcast finalized value into its typed form.
    fn decode_out(&self, bytes: Bytes) -> Option<Arc<dyn Any + Send + Sync>>;
    /// Single-machine evaluation: typed map → combine → finalize with no
    /// codec roundtrip (the `Bytes` shape is only needed on the wire).
    fn run_local(&self, lg: &LocalGraph<V, E>) -> Arc<dyn Any + Send + Sync>;
}

/// An [`Aggregate`] registered under a handle id.
pub(crate) struct RegisteredSync<A> {
    pub(crate) id: u32,
    pub(crate) op: A,
}

impl<V, E, A> ErasedSync<V, E> for RegisteredSync<A>
where
    A: Aggregate<V, E>,
{
    fn id(&self) -> u32 {
        self.id
    }
    fn local_partial(&self, lg: &LocalGraph<V, E>) -> Bytes {
        encode_to_bytes(&local_partial(&self.op, lg))
    }
    fn init_acc(&self) -> Box<dyn Any + Send> {
        Box::new(self.op.init())
    }
    fn combine(&self, acc: &mut dyn Any, part: &Bytes) {
        let acc = acc.downcast_mut::<A::Acc>().expect("accumulator type");
        let part = decode_from::<A::Acc>(part.clone()).expect("malformed sync partial");
        self.op.combine(acc, part);
    }
    fn finalize(
        &self,
        acc: Box<dyn Any + Send>,
        total_vertices: u64,
    ) -> (Bytes, Arc<dyn Any + Send + Sync>) {
        let acc = *acc.downcast::<A::Acc>().expect("accumulator type");
        let out = self.op.finalize(acc, total_vertices);
        (encode_to_bytes(&out), Arc::new(out))
    }
    fn decode_out(&self, bytes: Bytes) -> Option<Arc<dyn Any + Send + Sync>> {
        decode_from::<A::Out>(bytes).map(|v| Arc::new(v) as Arc<dyn Any + Send + Sync>)
    }
    fn run_local(&self, lg: &LocalGraph<V, E>) -> Arc<dyn Any + Send + Sync> {
        let acc = local_partial(&self.op, lg);
        Arc::new(self.op.finalize(acc, lg.total_vertices()))
    }
}

/// The engines' shared sync list.
pub(crate) type SyncList<V, E> = Arc<Vec<Box<dyn ErasedSync<V, E>>>>;

/// Every sync's partial over this machine's owned vertices, in wire shape.
pub(crate) fn local_partials<V, E>(
    syncs: &[Box<dyn ErasedSync<V, E>>],
    lg: &LocalGraph<V, E>,
) -> Vec<(u32, Bytes)> {
    syncs.iter().map(|op| (op.id(), op.local_partial(lg))).collect()
}

/// Folds one machine's partials into a fold's accumulators (`accs[i]` from
/// `syncs[i].init_acc()`).
pub(crate) fn combine_partials<V, E>(
    syncs: &[Box<dyn ErasedSync<V, E>>],
    accs: &mut [Box<dyn Any + Send>],
    partials: &[(u32, Bytes)],
) {
    for (i, (id, part)) in partials.iter().enumerate() {
        debug_assert_eq!(*id, syncs[i].id());
        syncs[i].combine(accs[i].as_mut(), part);
    }
}

/// Finalizes the accumulators into this machine's `globals` and returns
/// the `(handle id, version, encoded value)` rows the locking master
/// broadcasts.
pub(crate) fn finalize_into<V, E>(
    syncs: &[Box<dyn ErasedSync<V, E>>],
    accs: Vec<Box<dyn Any + Send>>,
    total_vertices: u64,
    globals: &mut crate::globals::GlobalRegistry,
) -> Vec<(u32, u64, Bytes)> {
    let mut rows = Vec::with_capacity(syncs.len());
    for (op, acc) in syncs.iter().zip(accs) {
        let (bytes, typed) = op.finalize(acc, total_vertices);
        rows.push((op.id(), globals.set(op.id(), typed), bytes));
    }
    rows
}

/// Applies the rows the locking master broadcast to this machine's
/// `globals`.
pub(crate) fn apply_globals<V, E>(
    syncs: &[Box<dyn ErasedSync<V, E>>],
    rows: Vec<(u32, u64, Bytes)>,
    globals: &mut crate::globals::GlobalRegistry,
) {
    for (id, ver, bytes) in rows {
        let op = syncs
            .iter()
            .find(|s| s.id() == id)
            .expect("broadcast global matches a registered sync");
        globals.apply(id, ver, op.decode_out(bytes).expect("malformed global value"));
    }
}

/// Runs every registered sync locally (single-machine path: the
/// sequential engine), staying typed end to end — no codec roundtrip.
pub(crate) fn run_local_syncs<V, E>(
    syncs: &[Box<dyn ErasedSync<V, E>>],
    lg: &LocalGraph<V, E>,
    globals: &mut crate::globals::GlobalRegistry,
) {
    for op in syncs {
        let typed = op.run_local(lg);
        globals.set(op.id(), typed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlab_graph::{DataGraph, GraphBuilder};

    fn graph() -> DataGraph<f64, ()> {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.add_vertex(i as f64 + 1.0)).collect();
        b.add_edge(v[0], v[1], ()).unwrap();
        b.build()
    }

    #[test]
    fn sum_sync_over_single_machine() {
        let g = graph();
        let lg = LocalGraph::single_machine(&g, None);
        let op: FnSync<f64> = FnSync::new(1, |_, d| vec![*d], |acc, _| acc);
        let partial = local_partial::<f64, (), _>(&op, &lg);
        assert_eq!(partial, vec![10.0]);
        let final_val = Aggregate::<f64, ()>::finalize(&op, partial, 4);
        assert_eq!(final_val, vec![10.0]);
    }

    #[test]
    fn finalize_can_normalize() {
        let g = graph();
        let lg = LocalGraph::single_machine(&g, None);
        let op: FnSync<f64> = FnSync::new(
            1,
            |_, d| vec![*d],
            |acc, n| acc.into_iter().map(|x| x / n as f64).collect(),
        );
        let partial = local_partial::<f64, (), _>(&op, &lg);
        assert_eq!(Aggregate::<f64, ()>::finalize(&op, partial, 4), vec![2.5]);
    }

    #[test]
    fn combine_is_elementwise_sum() {
        let op: FnSync<f64> = FnSync::new(2, |_, _| vec![0.0, 0.0], |acc, _| acc);
        let mut acc = vec![1.0, 2.0];
        Aggregate::<f64, ()>::combine(&op, &mut acc, vec![0.5, 0.5]);
        assert_eq!(acc, vec![1.5, 2.5]);
    }

    /// A scope-reading aggregate: sums |v - mean(neighbours)| — exercises
    /// the neighbour access path of `SyncScope`.
    struct NbrGap;
    impl Aggregate<f64, ()> for NbrGap {
        type Acc = f64;
        type Out = f64;
        fn init(&self) -> f64 {
            0.0
        }
        fn map(&self, s: &SyncScope<'_, f64, ()>) -> f64 {
            let deg = s.num_neighbors();
            if deg == 0 {
                return 0.0;
            }
            let mean: f64 = (0..deg).map(|i| *s.nbr_data(i)).sum::<f64>() / deg as f64;
            (s.vertex_data() - mean).abs()
        }
        fn combine(&self, acc: &mut f64, part: f64) {
            *acc += part;
        }
        fn finalize(&self, acc: f64, _: u64) -> f64 {
            acc
        }
    }

    #[test]
    fn scope_map_reads_neighbours() {
        let g = graph(); // v0=1, v1=2 connected; v2, v3 isolated
        let lg = LocalGraph::single_machine(&g, None);
        let total = local_partial(&NbrGap, &lg);
        // |1-2| + |2-1| = 2
        assert_eq!(total, 2.0);
    }

    #[test]
    fn erased_path_matches_typed_path() {
        let g = graph();
        let lg = LocalGraph::single_machine(&g, None);
        let erased: Box<dyn ErasedSync<f64, ()>> = Box::new(RegisteredSync {
            id: 3,
            op: FnSync::new(1, |_, d: &f64| vec![*d], |acc, n| vec![acc[0] / n as f64]),
        });
        let mut globals = crate::globals::GlobalRegistry::new();
        run_local_syncs(std::slice::from_ref(&erased), &lg, &mut globals);
        let h: crate::globals::GlobalHandle<Vec<f64>> = crate::globals::GlobalHandle::new(3);
        assert_eq!(globals.get(h), Some(&vec![2.5]));
        assert_eq!(globals.version(3), 1);
    }

    #[test]
    fn erased_combine_decodes_partials() {
        let erased: Box<dyn ErasedSync<f64, ()>> = Box::new(RegisteredSync {
            id: 0,
            op: FnSync::new(2, |_, _: &f64| vec![0.0, 0.0], |acc, _| acc),
        });
        let mut acc = erased.init_acc();
        erased.combine(acc.as_mut(), &encode_to_bytes(&vec![1.0f64, 2.0]));
        erased.combine(acc.as_mut(), &encode_to_bytes(&vec![0.5f64, 0.5]));
        let (bytes, typed) = erased.finalize(acc, 4);
        assert_eq!(decode_from::<Vec<f64>>(bytes), Some(vec![1.5, 2.5]));
        assert_eq!(typed.downcast_ref::<Vec<f64>>(), Some(&vec![1.5, 2.5]));
    }
}
