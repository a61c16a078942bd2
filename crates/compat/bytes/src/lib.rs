//! Offline, API-compatible subset of the `bytes` crate.
//!
//! [`Bytes`] is a cheaply-cloneable immutable byte buffer (shared storage
//! plus a view window); [`BytesMut`] is a growable buffer that
//! [`BytesMut::freeze`]s into one by moving its vector, not copying it. The
//! [`Buf`]/[`BufMut`] traits carry the little-endian cursor read/write
//! methods the codecs use.
//! Vendored because the build environment cannot reach crates.io.

use std::fmt;
use std::ops::{Deref, DerefMut, RangeBounds};
use std::sync::Arc;

macro_rules! fmt_bytes_debug {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "b\"")?;
            for &b in self.as_ref().iter() {
                if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\x{b:02x}")?;
                }
            }
            write!(f, "\"")
        }
    };
}

/// What a [`Bytes`] views.
#[derive(Clone)]
enum Storage {
    /// `'static` data (empties, literals): no allocation.
    Static(&'static [u8]),
    /// A vector moved in by [`BytesMut::freeze`] / `From<Vec<u8>>`.
    Shared(Arc<Vec<u8>>),
}

/// Immutable, cheaply-cloneable byte buffer. Reading through [`Buf`]
/// advances a cursor without copying the backing storage.
#[derive(Clone)]
pub struct Bytes {
    data: Storage,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Bytes {
    pub const fn new() -> Self {
        Bytes::from_static(b"")
    }

    pub const fn from_static(data: &'static [u8]) -> Self {
        Bytes { data: Storage::Static(data), start: 0, end: data.len() }
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the same backing storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let len = self.len();
        let begin = match range.start_bound() {
            std::ops::Bound::Included(&n) => n,
            std::ops::Bound::Excluded(&n) => n + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&n) => n + 1,
            std::ops::Bound::Excluded(&n) => n,
            std::ops::Bound::Unbounded => len,
        };
        assert!(begin <= end && end <= len, "slice out of bounds");
        Bytes { data: self.data.clone(), start: self.start + begin, end: self.start + end }
    }

    /// The view of `self` that `subset` — a slice borrowed from `self` —
    /// covers, sharing the backing storage. Panics when `subset` lies
    /// outside `self`.
    pub fn slice_ref(&self, subset: &[u8]) -> Self {
        if subset.is_empty() {
            return Bytes::new();
        }
        let (base, sub) = (self.as_slice().as_ptr() as usize, subset.as_ptr() as usize);
        assert!(
            base <= sub && sub + subset.len() <= base + self.len(),
            "slice_ref: subset is not within self"
        );
        self.slice(sub - base..sub - base + subset.len())
    }

    /// Splits off and returns the first `at` bytes, advancing `self`.
    pub fn split_to(&mut self, at: usize) -> Self {
        let head = self.slice(..at);
        self.start += at;
        head
    }

    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        let all: &[u8] = match &self.data {
            Storage::Static(s) => s,
            Storage::Shared(v) => v,
        };
        &all[self.start..self.end]
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    /// Moves the vector: the bytes are not copied. Spare capacity is handed
    /// back first — frozen buffers are long-lived (snapshot rows, DFS files)
    /// and a doubling ladder leaves up to half of one unused; without this
    /// `pr-locking-snap` peaks 18 % higher in `glbench`.
    fn from(mut v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        v.shrink_to_fit();
        let end = v.len();
        Bytes { data: Storage::Shared(Arc::new(v)), start: 0, end }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fmt_bytes_debug!();
}

/// Growable byte buffer; writing goes through [`BufMut`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut { data: Vec::with_capacity(cap) }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    #[inline]
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    #[inline]
    pub fn clear(&mut self) {
        self.data.clear();
    }

    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.data.clone()
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for BytesMut {
    fmt_bytes_debug!();
}

macro_rules! buf_get {
    ($($fn_name:ident -> $t:ty),* $(,)?) => {$(
        fn $fn_name(&mut self) -> $t {
            const N: usize = std::mem::size_of::<$t>();
            let chunk = self.chunk();
            assert!(chunk.len() >= N, concat!(stringify!($fn_name), ": buffer underflow"));
            let v = <$t>::from_le_bytes(chunk[..N].try_into().unwrap());
            self.advance(N);
            v
        }
    )*};
}

/// Cursor-style reads from the front of a buffer (little-endian).
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn get_u8(&mut self) -> u8 {
        let chunk = self.chunk();
        assert!(!chunk.is_empty(), "get_u8: buffer underflow");
        let v = chunk[0];
        self.advance(1);
        v
    }

    buf_get! {
        get_u16_le -> u16,
        get_u32_le -> u32,
        get_u64_le -> u64,
        get_i64_le -> i64,
        get_f32_le -> f32,
        get_f64_le -> f64,
    }

    /// Consumes `len` bytes and returns them as a `Bytes`.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "copy_to_bytes: buffer underflow");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds");
        self.start += cnt;
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        // Zero-copy: share the backing allocation.
        assert!(len <= self.len(), "copy_to_bytes: buffer underflow");
        self.split_to(len)
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

macro_rules! buf_put {
    ($($fn_name:ident($t:ty)),* $(,)?) => {$(
        fn $fn_name(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

/// Appending writes to the back of a buffer (little-endian).
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    buf_put! {
        put_u16_le(u16),
        put_u32_le(u32),
        put_u64_le(u64),
        put_i64_le(i64),
        put_f32_le(f32),
        put_f64_le(f64),
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        /// Allocations made by the current thread (tests run in parallel).
        static ALLOCS: Cell<usize> = const { Cell::new(0) };
    }

    struct CountingAlloc;

    // SAFETY: every operation is forwarded unchanged to `System`, which
    // upholds the `GlobalAlloc` contract; the counter is a plain
    // const-initialised thread-local `Cell` that itself never allocates.
    unsafe impl GlobalAlloc for CountingAlloc {
        // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract (non-zero
        // size), which is exactly what `System.alloc` requires.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            // SAFETY: same layout the caller vouched for.
            unsafe { System.alloc(layout) }
        }
        // SAFETY: callers uphold `GlobalAlloc::dealloc`'s contract: `ptr`
        // was returned by `alloc` above, i.e. by `System`, for `layout`.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System.alloc` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    fn allocs_during(f: impl FnOnce()) -> usize {
        let before = ALLOCS.with(Cell::get);
        f();
        ALLOCS.with(Cell::get) - before
    }

    #[test]
    fn freeze_and_from_vec_keep_the_vectors_buffer() {
        // (Exactly full, so that freezing has no spare capacity to return
        // and the allocator no reason to move anything.)
        let mut w = BytesMut::with_capacity(8);
        w.put_slice(b"eight by");
        assert_eq!(w.capacity(), 8);
        let ptr = w.as_ptr();
        let frozen = w.freeze();
        assert_eq!(frozen.as_ptr(), ptr, "freeze copied the buffer");
        assert_eq!(frozen.as_slice(), b"eight by");

        let v = vec![9u8; 1000];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), ptr, "From<Vec<u8>> copied the buffer");
        // Views share it, and outlive the value they were cut from.
        let (view, clone) = (b.slice(10..20), b.clone());
        drop(b);
        assert_eq!(view.as_ptr(), ptr.wrapping_add(10));
        assert_eq!((view.as_slice(), clone.len()), (&[9u8; 10][..], 1000));
    }

    #[test]
    fn empties_and_statics_do_not_allocate() {
        let n = allocs_during(|| {
            let a = Bytes::new();
            let b = Bytes::default();
            let c = Bytes::from_static(b"literal");
            let d = Bytes::from(Vec::new());
            let e = BytesMut::new().freeze();
            let f = Bytes::copy_from_slice(&[]);
            assert!(a.is_empty() && b.is_empty() && d.is_empty() && e.is_empty() && f.is_empty());
            assert_eq!(c.clone().as_slice(), b"literal");
        });
        assert_eq!(n, 0, "empty/static Bytes allocated");
        // The counter is live: a copy does allocate (the vector and its `Arc`).
        assert_eq!(allocs_during(|| drop(Bytes::copy_from_slice(b"x"))), 2);
    }

    #[test]
    fn write_freeze_read_roundtrip() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u32_le(0xDEADBEEF);
        w.put_f64_le(-2.5);
        w.put_slice(b"xyz");
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 1 + 4 + 8 + 3);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEADBEEF);
        assert_eq!(r.get_f64_le(), -2.5);
        assert_eq!(r.copy_to_bytes(3).as_slice(), b"xyz");
        assert!(!r.has_remaining());
    }

    #[test]
    fn slice_and_split_share_storage() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(s.as_slice(), &[2, 3, 4]);
        let mut m = b.clone();
        let head = m.split_to(2);
        assert_eq!(head.as_slice(), &[0, 1]);
        assert_eq!(m.as_slice(), &[2, 3, 4, 5]);
        assert_eq!(b.len(), 6);
    }

    #[test]
    fn slice_ref_shares_storage_and_rejects_foreign_slices() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let view = b.slice(1..);
        let n = allocs_during(|| {
            let s = view.slice_ref(&view[2..4]);
            assert_eq!((s.as_slice(), s.as_ptr()), (&[3u8, 4][..], b.as_ptr().wrapping_add(3)));
            assert!(view.slice_ref(&view[3..3]).is_empty());
        });
        assert_eq!(n, 0, "slice_ref allocated");
        let other = [3u8, 4];
        assert!(std::panic::catch_unwind(|| view.slice_ref(&other)).is_err());
    }

    #[test]
    fn bytes_mut_patches_and_truncates_in_place() {
        let mut w = BytesMut::new();
        w.put_slice(b"a?cdef");
        w[1] = b'b';
        w.copy_within(2..6, 1);
        w.truncate(5);
        assert_eq!(&w[..], b"acdef");
    }

    #[test]
    fn advance_moves_window() {
        let mut b = Bytes::from_static(b"abcdef");
        b.advance(4);
        assert_eq!(b.as_slice(), b"ef");
        assert_eq!(b.slice(..1).as_slice(), b"e");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn short_read_panics() {
        let mut b = Bytes::from_static(&[1, 2]);
        let _ = b.get_u32_le();
    }
}
