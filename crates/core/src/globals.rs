//! Typed global values (§3.5).
//!
//! Global values are *read* by update functions and *written* by sync
//! operations. Each value is registered under a [`GlobalHandle<T>`] — a
//! cheap `Copy` id carrying the value's type — and stored type-erased
//! behind `Arc<dyn Any>`, so `ctx.global(handle)` is a typed read with no
//! string lookup and no per-read decoding. Every value carries a version
//! that increases on every write, so machines can reject stale
//! re-broadcasts from the sync master.

use std::any::Any;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// Typed identity of a global value maintained by a sync operation.
///
/// A handle is just a `Copy` integer id plus the value's type; declare them
/// as constants next to the aggregate that maintains them:
///
/// ```
/// use graphlab_core::GlobalHandle;
/// const RESIDUAL: GlobalHandle<f64> = GlobalHandle::new(0);
/// ```
///
/// Ids must be unique within one program; [`crate::GraphLab::sync`] panics
/// on a duplicate registration. Convention: ids `0..100` belong to
/// application code, `100..` to library-provided aggregates (the
/// `graphlab-apps` crate's `PAGERANK_RESIDUAL`/`GMM_GLOBAL` live there),
/// so composing your own syncs with library ones never collides.
pub struct GlobalHandle<T> {
    id: u32,
    _type: PhantomData<fn() -> T>,
}

impl<T> GlobalHandle<T> {
    /// Creates a handle with the given program-unique id.
    pub const fn new(id: u32) -> Self {
        GlobalHandle { id, _type: PhantomData }
    }

    /// The raw id (wire identity of the value).
    #[inline]
    pub const fn id(self) -> u32 {
        self.id
    }
}

// Manual impls: `T` need not be `Clone`/`Copy` for the handle to be.
impl<T> Clone for GlobalHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for GlobalHandle<T> {}
impl<T> std::fmt::Debug for GlobalHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "GlobalHandle#{}", self.id)
    }
}
impl<T> PartialEq for GlobalHandle<T> {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl<T> Eq for GlobalHandle<T> {}

/// A type-erased global value: version + the finalized value.
type Slot = (u64, Arc<dyn Any + Send + Sync>);

/// Registry of global values on one machine, keyed by handle id.
#[derive(Default)]
pub struct GlobalRegistry {
    values: HashMap<u32, Slot>,
}

impl GlobalRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Typed read of a global value. `None` until its sync first ran (or if
    /// the handle's type does not match what the registered aggregate
    /// finalizes to).
    pub fn get<T: 'static>(&self, handle: GlobalHandle<T>) -> Option<&T> {
        self.values.get(&handle.id).and_then(|(_, v)| v.downcast_ref::<T>())
    }

    /// Version of a value (0 = never set).
    pub fn version(&self, id: u32) -> u64 {
        self.values.get(&id).map_or(0, |(ver, _)| *ver)
    }

    /// Writes a value (a machine that finalized its sync), bumping its
    /// version.
    pub fn set(&mut self, id: u32, value: Arc<dyn Any + Send + Sync>) -> u64 {
        let entry = self.values.entry(id).or_insert_with(|| (0, Arc::new(())));
        entry.0 += 1;
        entry.1 = value;
        entry.0
    }

    /// Applies a replicated value if `version` is newer (machines receiving
    /// broadcasts from the sync master use this).
    pub fn apply(&mut self, id: u32, version: u64, value: Arc<dyn Any + Send + Sync>) -> bool {
        let entry = self.values.entry(id).or_insert_with(|| (0, Arc::new(())));
        if version > entry.0 {
            entry.0 = version;
            entry.1 = value;
            true
        } else {
            false
        }
    }

    /// Number of registered values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no value has been published yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Ids of all published values, sorted.
    pub fn ids(&self) -> Vec<u32> {
        #[expect(clippy::disallowed_methods, reason = "sorted on the next line before anything can observe the order")]
        let mut ids: Vec<u32> = self.values.keys().copied().collect();
        ids.sort_unstable();
        ids
    }
}

impl std::fmt::Debug for GlobalRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalRegistry").field("ids", &self.ids()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: GlobalHandle<f64> = GlobalHandle::new(7);
    const V: GlobalHandle<Vec<f64>> = GlobalHandle::new(9);

    #[test]
    fn set_and_typed_get() {
        let mut r = GlobalRegistry::new();
        assert_eq!(r.get(X), None);
        assert_eq!(r.set(X.id(), Arc::new(1.5f64)), 1);
        assert_eq!(r.get(X), Some(&1.5));
        assert_eq!(r.set(X.id(), Arc::new(2.5f64)), 2);
        assert_eq!(r.version(X.id()), 2);
        assert_eq!(r.get(X), Some(&2.5));
    }

    #[test]
    fn apply_respects_versions() {
        let mut r = GlobalRegistry::new();
        assert!(r.apply(V.id(), 5, Arc::new(vec![9.0f64])));
        assert!(!r.apply(V.id(), 4, Arc::new(vec![1.0f64])), "stale rejected");
        assert_eq!(r.get(V), Some(&vec![9.0]));
        assert!(r.apply(V.id(), 6, Arc::new(vec![2.0f64])));
        assert_eq!(r.get(V), Some(&vec![2.0]));
    }

    #[test]
    fn wrong_type_reads_none() {
        let mut r = GlobalRegistry::new();
        r.set(7, Arc::new(vec![1.0f64]));
        // X expects f64 at id 7 but a Vec<f64> is stored.
        assert_eq!(r.get(X), None);
    }

    #[test]
    fn ids_sorted() {
        let mut r = GlobalRegistry::new();
        r.set(3, Arc::new(0.0f64));
        r.set(1, Arc::new(0.0f64));
        assert_eq!(r.ids(), vec![1, 3]);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn handles_are_copy_and_comparable() {
        let a = X;
        let b = a; // copy
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), "GlobalHandle#7");
    }
}
