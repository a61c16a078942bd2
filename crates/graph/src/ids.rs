//! Strongly-typed identifiers shared across the workspace.
//!
//! Identifiers are thin wrappers over small integers (see the perf-book
//! guidance on smaller integer types): vertex and edge ids are `u32`
//! (4 billion vertices/edges is far beyond the in-memory scale this
//! simulator targets), machine ids are `u16`.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for maps keyed by this program's own integer ids
/// (vertex/edge ids, `(machine, request)` pairs). Such keys come from our
/// own partitioner and counters, never from outside input, so there is no
/// HashDoS surface and SipHash's cost buys nothing.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Integer keys arrive as one word of at most 8 bytes each.
        for word in bytes.chunks(8) {
            let mut le = [0u8; 8];
            le[..word.len()].copy_from_slice(word);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(le)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's entropy sits in its high bits; tables index with
        // the low ones.
        self.0 ^ (self.0 >> 32)
    }
}

/// A hash map over integer ids under [`IdHasher`]. Iteration order is the
/// hasher's: protocol code looks keys up, it never iterates one.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Identifier of a vertex in a [`crate::DataGraph`].
///
/// Vertex ids are dense: a graph with `n` vertices uses ids `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct VertexId(pub u32);

/// Identifier of a *directed* edge in a [`crate::DataGraph`].
///
/// Edge ids are dense: a graph with `m` directed edges uses ids `0..m`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct EdgeId(pub u32);

/// Identifier of an *atom*: one part of the two-phase over-partitioning of
/// the data graph (§4.1). `k` atoms are created with `k ≫ #machines`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct AtomId(pub u32);

/// Identifier of a (simulated) physical machine in the cluster.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct MachineId(pub u16);

macro_rules! impl_id {
    ($t:ty, $prefix:literal) => {
        impl $t {
            /// The raw index value.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

impl_id!(VertexId, "v");
impl_id!(EdgeId, "e");
impl_id!(AtomId, "a");
impl_id!(MachineId, "m");

impl From<usize> for VertexId {
    #[inline]
    fn from(v: usize) -> Self {
        debug_assert!(v <= u32::MAX as usize);
        VertexId(v as u32)
    }
}

impl From<usize> for EdgeId {
    #[inline]
    fn from(v: usize) -> Self {
        debug_assert!(v <= u32::MAX as usize);
        EdgeId(v as u32)
    }
}

impl From<usize> for AtomId {
    #[inline]
    fn from(v: usize) -> Self {
        debug_assert!(v <= u32::MAX as usize);
        AtomId(v as u32)
    }
}

impl From<usize> for MachineId {
    #[inline]
    fn from(v: usize) -> Self {
        debug_assert!(v <= u16::MAX as usize);
        MachineId(v as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_hasher_spreads_dense_ids_over_the_low_bits() {
        use std::hash::Hash;
        fn bucket<T: Hash>(key: T) -> u64 {
            let mut h = IdHasher::default();
            key.hash(&mut h);
            h.finish() & 0xfff
        }
        // 4096 keys into 4096 buckets: a random function fills ~63 %.
        let filled = |keys: &mut dyn Iterator<Item = u64>| {
            keys.collect::<std::collections::BTreeSet<u64>>().len()
        };
        assert!(filled(&mut (0..4096u32).map(|i| bucket(VertexId(i)))) > 2048);
        assert!(filled(&mut (0..4096u32).map(|i| bucket(EdgeId(i * 1024)))) > 2048);
        assert!(filled(&mut (0..4096u64).map(|i| bucket((1u16, i + 1)))) > 2048);
        let mut m: IdMap<VertexId, u32> = IdMap::default();
        m.extend((0..1000).map(|i| (VertexId(i), i)));
        assert!((0..1000).all(|i| m.get(&VertexId(i)) == Some(&i)));
    }

    #[test]
    fn display_uses_prefixes() {
        assert_eq!(VertexId(3).to_string(), "v3");
        assert_eq!(EdgeId(7).to_string(), "e7");
        assert_eq!(AtomId(1).to_string(), "a1");
        assert_eq!(MachineId(0).to_string(), "m0");
    }

    #[test]
    fn index_roundtrip() {
        assert_eq!(VertexId::from(42usize).index(), 42);
        assert_eq!(EdgeId::from(9usize).index(), 9);
        assert_eq!(MachineId::from(3usize).index(), 3);
    }

    #[test]
    fn ordering_is_by_raw_value() {
        assert!(VertexId(1) < VertexId(2));
        assert!(MachineId(0) < MachineId(5));
    }
}
