//! Binary encoding of everything that crosses a machine boundary.
//!
//! All cross-machine payloads — lock chain requests, ghost synchronisation
//! deltas, scheduling forwards, sync-operation partials, snapshot records —
//! are encoded through this trait into [`bytes::Bytes`] buffers. This is
//! deliberate (DESIGN.md D1): it forces the engines to behave like a real
//! distributed system and makes the byte counters truthful.
//!
//! # Wire format (v2, ISSUE 3)
//!
//! Integers are **LEB128 varints**: `u16`/`u32`/`u64`/`usize` encode 7 bits
//! per byte, low group first, continuation in the high bit; `i64` is
//! zig-zag-mapped first so small magnitudes of either sign stay short.
//! Message traffic is dominated by small ids, versions and lengths, so this
//! roughly halves control-message size versus the old fixed-width format.
//! `u8`, `bool`, `f32` and `f64` remain fixed-width. Collections are a
//! varint length prefix followed by elements. Sorted id sequences can
//! additionally be gap-encoded with [`put_id_deltas`]/[`get_id_deltas`].
//! (The atom journal in `graphlab-atoms` uses a separate varint format
//! tuned for on-disk size.)
//!
//! # Declaring a wire type
//!
//! A struct whose wire form is its fields' own encodings, one after the
//! other, names its fields once, in [`codec_fields!`](crate::codec_fields):
//! `codec_fields! { RollbackMsg { era, snap } }` is its [`Codec`]. Both
//! directions go through that one list and take the struct apart or build
//! it without `..`, so a field left out of it, or a field added to the
//! struct and not to it, does not compile. The order of the list is the
//! wire order.
//!
//! A type whose wire form differs from its fields' — priorities narrowed to
//! `f32`, gap-encoded ids, rows its sender streams from borrowed data and
//! its receiver walks in place — writes a `put` / `read` pair by hand, and
//! its `Codec` goes through them (`decode` by [`decode_with`]), so it too
//! has one layout.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use graphlab_graph::{AtomId, EdgeId, MachineId, VertexId};

/// A type that can serialise itself to bytes and back.
///
/// Implementations must roundtrip: `decode(encode(x)) == x`.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decodes a value from the front of `buf`, consuming its bytes.
    ///
    /// Returns `None` when the buffer does not hold a valid encoding (short
    /// reads included).
    fn decode(buf: &mut Bytes) -> Option<Self>;
}

/// Encodes a value into a fresh buffer.
pub fn encode_to_bytes<T: Codec>(value: &T) -> Bytes {
    let mut buf = BytesMut::new();
    value.encode(&mut buf);
    buf.freeze()
}

/// Decodes a value from a buffer, requiring full consumption.
pub fn decode_from<T: Codec>(bytes: Bytes) -> Option<T> {
    let mut bytes = bytes;
    let v = T::decode(&mut bytes)?;
    if bytes.has_remaining() {
        return None;
    }
    Some(v)
}

/// Implements [`Codec`] for each struct listed, from its field names:
/// `encode` writes the fields in list order and `decode` reads them back in
/// that order, each through its own type's `Codec`. Both take the struct
/// apart or build it without `..`, so the list must name every field (see
/// "Declaring a wire type" in [`codec`](crate::codec)). Like any `Codec`
/// impl, the expansion names `bytes`, so the calling crate depends on it.
#[macro_export]
macro_rules! codec_fields {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl $crate::codec::Codec for $ty {
            fn encode(&self, buf: &mut ::bytes::BytesMut) {
                let $ty { $($field),* } = self;
                $($crate::codec::Codec::encode($field, buf);)*
            }
            fn decode(buf: &mut ::bytes::Bytes) -> Option<Self> {
                Some($ty { $($field: $crate::codec::Codec::decode(buf)?),* })
            }
        }
    )*};
}

// ---- varint primitives ----

/// Appends `v` as an LEB128 varint (1–10 bytes; values < 128 take one).
#[inline]
pub fn put_uvarint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(b);
            return;
        }
        buf.put_u8(b | 0x80);
    }
}

/// Reads an LEB128 varint from the front of `buf` (a [`Bytes`] cursor or a
/// plain `&[u8]`). Returns `None` on a short read or a >64-bit overflow.
#[inline]
pub fn get_uvarint<B: Buf>(buf: &mut B) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return None;
        }
        let b = buf.get_u8();
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            // Only a tenth byte can carry bits beyond the 64th.
            return (shift < 63 || b <= 1).then_some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Writes `len` as the varint at `at`, where one placeholder byte stands
/// before the `len` payload bytes that end `buf`: how a length prefix is
/// written when the payload is encoded in place behind it. A varint of more
/// than one byte moves the payload up to make room.
#[inline]
pub fn patch_len(buf: &mut BytesMut, at: usize, len: usize) {
    let width = (usize::BITS - (len | 1).leading_zeros()).div_ceil(7) as usize;
    if width > 1 {
        buf.put_slice(&[0; 9][..width - 1]);
        buf[at + 1..].rotate_right(width - 1);
    }
    for (k, b) in buf[at..at + width].iter_mut().enumerate() {
        *b = (len >> (7 * k)) as u8 & 0x7f | if k + 1 < width { 0x80 } else { 0 };
    }
}

/// Reads a varint that must fit `T` (`None` also when it does not).
#[inline]
pub fn get_varint<T: TryFrom<u64>, B: Buf>(buf: &mut B) -> Option<T> {
    T::try_from(get_uvarint(buf)?).ok()
}

// ---- reading in place ----
//
// A message reader takes `&mut &[u8]`, a cursor over a borrowed slice of the
// received envelope, and returns `None` on short or malformed input.

/// Reads `N` fixed bytes off the front of `buf`.
#[inline]
pub fn get_array<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>()?;
    *buf = rest;
    Some(*head)
}

/// Reads a length-prefixed blob — the wire form of a [`Bytes`] field —
/// without copying it.
#[inline]
pub fn get_blob<'a>(buf: &mut &'a [u8]) -> Option<&'a [u8]> {
    let len = get_varint::<usize, _>(buf)?;
    let (blob, rest) = buf.split_at_checked(len)?;
    *buf = rest;
    Some(blob)
}

/// Runs a message reader over the front of `buf` and consumes what it read:
/// how a [`Codec::decode`] is built on the message's in-place reader, so the
/// message has one layout. The reader also gets the buffer itself, to cut
/// owned views of what it borrowed ([`Bytes::slice_ref`]).
pub fn decode_with<T>(
    buf: &mut Bytes,
    read: impl for<'a> FnOnce(&'a Bytes, &mut &'a [u8]) -> Option<T>,
) -> Option<T> {
    let mut rest: &[u8] = buf;
    let value = read(buf, &mut rest)?;
    let used = buf.len() - rest.len();
    buf.advance(used);
    Some(value)
}

/// Zig-zag maps a signed value so small magnitudes varint-encode short.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes a **non-decreasing** sequence of `n` u32 ids as varint gaps
/// from the previous id (first gap is from 0). Sorted scope-vertex and
/// edge-id lists shrink to ~1 byte per id this way.
#[inline]
pub fn put_id_deltas(buf: &mut BytesMut, n: usize, ids: impl Iterator<Item = u32>) {
    put_uvarint(buf, n as u64);
    let mut prev = 0u32;
    for id in ids {
        debug_assert!(id >= prev, "id sequence must be non-decreasing");
        put_uvarint(buf, (id - prev) as u64);
        prev = id;
    }
}

/// Decodes a gap-encoded id sequence written by [`put_id_deltas`].
pub fn get_id_deltas(buf: &mut Bytes) -> Option<Vec<u32>> {
    let n = get_uvarint(buf)? as usize;
    // Every gap takes a byte at least: a count the buffer cannot back sizes
    // nothing beyond it.
    let mut out = Vec::with_capacity(n.min(buf.remaining()));
    let mut prev = 0u64;
    for _ in 0..n {
        let gap = get_uvarint(buf)?;
        let id = prev + gap;
        if id > u32::MAX as u64 {
            return None;
        }
        out.push(id as u32);
        prev = id;
    }
    Some(out)
}

// ---- scalar impls ----

macro_rules! impl_codec_fixed {
    ($t:ty, $put:ident, $get:ident, $len:expr) => {
        impl Codec for $t {
            #[inline]
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            #[inline]
            fn decode(buf: &mut Bytes) -> Option<Self> {
                if buf.remaining() < $len {
                    return None;
                }
                Some(buf.$get())
            }
        }
    };
}

impl_codec_fixed!(u8, put_u8, get_u8, 1);
impl_codec_fixed!(f32, put_f32_le, get_f32_le, 4);
impl_codec_fixed!(f64, put_f64_le, get_f64_le, 8);

macro_rules! impl_codec_uvarint {
    ($t:ty) => {
        impl Codec for $t {
            #[inline]
            fn encode(&self, buf: &mut BytesMut) {
                put_uvarint(buf, *self as u64);
            }
            #[inline]
            fn decode(buf: &mut Bytes) -> Option<Self> {
                get_varint(buf)
            }
        }
    };
}

impl_codec_uvarint!(u16);
impl_codec_uvarint!(u32);
impl_codec_uvarint!(u64);
impl_codec_uvarint!(usize);

impl Codec for i64 {
    #[inline]
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, zigzag(*self));
    }
    #[inline]
    fn decode(buf: &mut Bytes) -> Option<Self> {
        get_uvarint(buf).map(unzigzag)
    }
}

impl Codec for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Codec for () {
    fn encode(&self, _buf: &mut BytesMut) {}
    fn decode(_buf: &mut Bytes) -> Option<Self> {
        Some(())
    }
}

macro_rules! impl_codec_id {
    ($($id:ident($inner:ty)),*) => {$(
        impl Codec for $id {
            #[inline]
            fn encode(&self, buf: &mut BytesMut) {
                self.0.encode(buf);
            }
            #[inline]
            fn decode(buf: &mut Bytes) -> Option<Self> {
                <$inner>::decode(buf).map($id)
            }
        }
    )*};
}

impl_codec_id!(VertexId(u32), EdgeId(u32), AtomId(u32), MachineId(u16));

impl Codec for String {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        let len = get_uvarint(buf)? as usize;
        if buf.remaining() < len {
            return None;
        }
        let raw = buf.copy_to_bytes(len);
        String::from_utf8(raw.to_vec()).ok()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        let len = get_uvarint(buf)? as usize;
        // Every element that needs memory takes a byte at least: a length
        // the buffer cannot back sizes nothing beyond it.
        let mut out = Vec::with_capacity(len.min(buf.remaining()));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Some(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(None),
            1 => Some(Some(T::decode(buf)?)),
            _ => None,
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        Some((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

impl Codec for Bytes {
    fn encode(&self, buf: &mut BytesMut) {
        put_uvarint(buf, self.len() as u64);
        buf.put_slice(self);
    }
    fn decode(buf: &mut Bytes) -> Option<Self> {
        let len = get_uvarint(buf)? as usize;
        if buf.remaining() < len {
            return None;
        }
        Some(buf.copy_to_bytes(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let enc = encode_to_bytes(&v);
        let dec: T = decode_from(enc).expect("decode");
        assert_eq!(dec, v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(65535u16);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(i64::MIN);
        roundtrip(i64::MAX);
        roundtrip(3.25f32);
        roundtrip(f64::MIN_POSITIVE);
        roundtrip(true);
        roundtrip(false);
        roundtrip(12345usize);
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 129, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_uvarint(&mut buf, v);
            let mut b = buf.freeze();
            assert_eq!(get_uvarint(&mut b), Some(v));
            assert!(!b.has_remaining());
        }
    }

    #[test]
    fn varint_lengths_match_leb128() {
        let cases = [(0u64, 1usize), (127, 1), (128, 2), (16383, 2), (16384, 3), (u64::MAX, 10)];
        for (v, len) in cases {
            let mut buf = BytesMut::new();
            put_uvarint(&mut buf, v);
            assert_eq!(buf.len(), len, "value {v}");
        }
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes can never be a valid u64.
        let bytes = Bytes::from(vec![0x80u8; 11]);
        let mut b = bytes;
        assert_eq!(get_uvarint(&mut b), None);
        // A 10-byte encoding whose last group sets bits beyond the 64th.
        let mut overflow = vec![0xffu8; 9];
        overflow.push(0x02);
        let mut b = Bytes::from(overflow);
        assert_eq!(get_uvarint(&mut b), None);
    }

    #[test]
    fn zigzag_mapping() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn id_deltas_roundtrip() {
        for ids in [vec![], vec![0u32], vec![0, 0, 1, 5, 5, 100], vec![7, 8, 1000, u32::MAX]] {
            let mut buf = BytesMut::new();
            put_id_deltas(&mut buf, ids.len(), ids.iter().copied());
            let mut b = buf.freeze();
            assert_eq!(get_id_deltas(&mut b), Some(ids));
            assert!(!b.has_remaining());
        }
    }

    #[test]
    fn id_deltas_overflow_rejected() {
        // Two max gaps exceed u32.
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 2);
        put_uvarint(&mut buf, u32::MAX as u64);
        put_uvarint(&mut buf, 1);
        let mut b = buf.freeze();
        assert_eq!(get_id_deltas(&mut b), None);
    }

    #[test]
    fn ids_roundtrip() {
        roundtrip(VertexId(7));
        roundtrip(EdgeId(u32::MAX));
        roundtrip(AtomId(3));
        roundtrip(MachineId(12));
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip(Some(9.5f64));
        roundtrip(Option::<u32>::None);
        roundtrip((VertexId(1), 2.5f64));
        roundtrip((MachineId(1), VertexId(2), 3u64));
        roundtrip("hello GraphLab".to_string());
        roundtrip(String::new());
        roundtrip(Bytes::from_static(b"raw"));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = BytesMut::new();
        1u32.encode(&mut buf);
        0u8.encode(&mut buf);
        assert!(decode_from::<u32>(buf.freeze()).is_none());
    }

    #[test]
    fn short_read_rejected() {
        let enc = encode_to_bytes(&u64::MAX);
        let short = enc.slice(0..4);
        assert!(decode_from::<u64>(short).is_none());
    }

    #[test]
    fn narrow_type_range_enforced() {
        // A varint holding a value > u16::MAX must not decode as u16.
        let enc = encode_to_bytes(&(u16::MAX as u32 + 1));
        assert!(decode_from::<u16>(enc).is_none());
        let enc = encode_to_bytes(&(u32::MAX as u64 + 1));
        assert!(decode_from::<u32>(enc).is_none());
    }

    #[test]
    fn invalid_bool_rejected() {
        let bytes = Bytes::from_static(&[2]);
        assert!(decode_from::<bool>(bytes).is_none());
    }

    #[test]
    fn nested_vec_roundtrip() {
        roundtrip(vec![vec![1u16, 2], vec![], vec![3]]);
    }

    #[test]
    fn small_ids_are_one_byte() {
        // The whole point of the v2 format: typical ids/versions are tiny.
        assert_eq!(encode_to_bytes(&VertexId(90)).len(), 1);
        assert_eq!(encode_to_bytes(&MachineId(7)).len(), 1);
        assert_eq!(encode_to_bytes(&5u64).len(), 1);
    }
}
