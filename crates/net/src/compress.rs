//! LZ-style envelope compression for the batching layer.
//!
//! Scope-data payloads dominate cluster bytes (ISSUE 3): a 16 KiB batch
//! envelope full of `ScopeDataMsg` rows repeats ids, version patterns and
//! framing constantly, which a byte-oriented LZSS pass removes cheaply and
//! without any external dependency.
//!
//! Format: `uvarint(raw_len)` followed by token groups — a control byte
//! whose bits (LSB first) flag the next eight tokens, `1` = one literal
//! byte, `0` = a back-reference of `u16` little-endian distance (1..=65535,
//! relative to the current output position) and one length byte encoding
//! `MIN_MATCH ..= MIN_MATCH + 255` bytes. Overlapping matches are allowed
//! (distance < length acts as run-length encoding).
//!
//! The compressor is greedy with a single-entry hash table over 4-byte
//! prefixes — no chains, no lazy matching — tuned for "fast and always
//! correct" rather than maximal ratio. The table lives in an [`Lzss`] that a
//! caller with many inputs reuses; [`compress`] is the same pass from a fresh
//! one. Compression never fails; [`decompress`] validates every reference
//! and returns `None` on malformed input. `decompress(compress(x)) == x` for
//! every byte string (pinned by the workspace proptest suite).

/// Matches shorter than this are emitted as literals.
pub const MIN_MATCH: usize = 4;
/// Longest back-reference one token can encode.
pub const MAX_MATCH: usize = MIN_MATCH + 255;
/// Furthest back a reference can reach.
pub const MAX_DISTANCE: usize = u16::MAX as usize;

const HASH_BITS: u32 = 13;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes(data[i..i + 4].try_into().expect("4 bytes"));
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, up to
/// `limit` bytes (`a < b`, `b + limit <= data.len()`), eight bytes a step.
#[inline]
fn common_prefix(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let (x, y) = (&data[a..a + limit], &data[b..b + limit]);
    let mut l = 0;
    while l + 8 <= limit {
        let word = |s: &[u8]| u64::from_le_bytes(s[l..l + 8].try_into().expect("8 bytes"));
        let diff = word(x) ^ word(y);
        if diff != 0 {
            return l + diff.trailing_zeros() as usize / 8;
        }
        l += 8;
    }
    while l < limit && x[l] == y[l] {
        l += 1;
    }
    l
}

fn put_uvarint_vec(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_uvarint_slice(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data.get(*pos)?;
        *pos += 1;
        if shift == 63 && (b & 0x7f) > 1 {
            return None;
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Compresses `data` from a fresh state. The output always decompresses back
/// exactly; it is *not* guaranteed to be smaller (callers keep the raw form
/// when it wins).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    Lzss::default().compress_into(data, &mut out);
    out
}

/// The compressor's match table, kept between inputs so that a caller with
/// many small inputs (the `Batcher`: one envelope after another) neither
/// allocates nor fills 32 KiB per input. The stream written for an input
/// does not depend on what the table saw before: it is byte for byte what
/// [`compress`] writes from a fresh state.
pub struct Lzss {
    /// Last position seen per 4-byte-prefix hash, as `base + offset`.
    head: Box<[u32; 1 << HASH_BITS]>,
    /// Table value of the current input's offset 0. Every input takes the
    /// positions after its predecessor's, so an entry left by an earlier
    /// input is below `base` and reads as empty: no clearing between inputs.
    base: u32,
}

impl Default for Lzss {
    /// A fresh state (the zeroed table holds no position: `base` is 1).
    fn default() -> Self {
        let head = vec![0; 1 << HASH_BITS].into_boxed_slice();
        Lzss { head: head.try_into().expect("table size"), base: 1 }
    }
}

impl Lzss {
    /// Forgets every position seen so far.
    pub fn reset(&mut self) {
        self.head.fill(0);
        self.base = 1;
    }

    /// Appends the compressed stream of `data` to `out`.
    pub fn compress_into(&mut self, data: &[u8], out: &mut Vec<u8>) {
        let len = u32::try_from(data.len()).expect("LZSS inputs are envelopes, far below 4 GiB");
        if self.base.checked_add(len).is_none() {
            self.reset(); // positions would wrap into live ones
        }
        let base = self.base;
        self.base += len;
        let head = &mut *self.head;
        // Worst case — every byte a literal, one control byte per eight — so
        // that no input grows `out` half-way, and equal lengths never do.
        out.reserve(10 + data.len() + data.len() / 8 + 1);
        put_uvarint_vec(out, data.len() as u64);

        let mut ctrl_pos = 0usize;
        let mut ctrl_left = 0u32;
        let mut i = 0usize;

        macro_rules! begin_token {
            ($is_literal:expr) => {{
                if ctrl_left == 0 {
                    ctrl_pos = out.len();
                    out.push(0);
                    ctrl_left = 8;
                }
                if $is_literal {
                    out[ctrl_pos] |= 1 << (8 - ctrl_left);
                }
                ctrl_left -= 1;
            }};
        }

        while i < data.len() {
            let mut match_len = 0usize;
            let mut match_dist = 0usize;
            if i + MIN_MATCH <= data.len() {
                let h = hash4(data, i);
                let seen = head[h];
                head[h] = base + i as u32;
                if seen >= base && i - (seen - base) as usize <= MAX_DISTANCE {
                    let cand = (seen - base) as usize;
                    let l = common_prefix(data, cand, i, (data.len() - i).min(MAX_MATCH));
                    if l >= MIN_MATCH {
                        match_len = l;
                        match_dist = i - cand;
                    }
                }
            }
            if match_len > 0 {
                begin_token!(false);
                out.extend_from_slice(&(match_dist as u16).to_le_bytes());
                out.push((match_len - MIN_MATCH) as u8);
                // Seed the table inside the matched region so later data can
                // reference it too.
                let end = i + match_len;
                i += 1;
                while i < end {
                    if i + MIN_MATCH <= data.len() {
                        head[hash4(data, i)] = base + i as u32;
                    }
                    i += 1;
                }
            } else {
                begin_token!(true);
                out.push(data[i]);
                i += 1;
            }
        }
    }
}

/// Decompresses a [`compress`] output. Returns `None` on any malformed
/// input: bad length header, truncated tokens, out-of-window references or
/// trailing garbage.
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    let mut pos = 0usize;
    let raw_len = get_uvarint_slice(data, &mut pos)? as usize;
    // Defensive bound: nothing in this system compresses gigabyte blobs.
    if raw_len > (1 << 30) {
        return None;
    }
    let mut out = Vec::with_capacity(raw_len);
    while out.len() < raw_len {
        let ctrl = *data.get(pos)?;
        pos += 1;
        for bit in 0..8 {
            if out.len() == raw_len {
                break;
            }
            if ctrl >> bit & 1 == 1 {
                out.push(*data.get(pos)?);
                pos += 1;
            } else {
                let lo = *data.get(pos)?;
                let hi = *data.get(pos + 1)?;
                let len = *data.get(pos + 2)? as usize + MIN_MATCH;
                pos += 3;
                let dist = u16::from_le_bytes([lo, hi]) as usize;
                if dist == 0 || dist > out.len() || out.len() + len > raw_len {
                    return None;
                }
                let start = out.len() - dist;
                if dist >= len {
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping: the reference reads what it writes.
                    for k in 0..len {
                        let b = out[start + k];
                        out.push(b);
                    }
                }
            }
        }
    }
    if pos != data.len() {
        return None; // trailing garbage
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let packed = compress(data);
        assert_eq!(decompress(&packed).as_deref(), Some(data), "roundtrip failed");
        packed.len()
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn incompressible_random_bytes() {
        // Deterministic pseudo-random stream: no 4-byte repeats likely.
        let mut x = 0x1234_5678u64;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn runs_compress_well() {
        let data = vec![0u8; 10_000];
        let n = roundtrip(&data);
        assert!(n < 200, "run of zeros compressed to {n} bytes");
    }

    #[test]
    fn repeated_structure_compresses() {
        // Simulates a batch of similar rows: id, version, 8-byte payload.
        let mut data = Vec::new();
        for i in 0..500u32 {
            data.extend_from_slice(&i.to_le_bytes());
            data.extend_from_slice(&[1, 0]);
            data.extend_from_slice(&1.0f64.to_le_bytes());
        }
        let n = roundtrip(&data);
        assert!(n < data.len() / 2, "structured rows: {n} of {}", data.len());
    }

    #[test]
    fn overlapping_matches() {
        let data = b"abababababababababababab";
        roundtrip(data);
        let data: Vec<u8> = std::iter::repeat_n(b"xyz".iter().copied(), 100).flatten().collect();
        roundtrip(&data);
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert_eq!(decompress(&[]), None);
        // Length says 4 bytes but no tokens follow.
        assert_eq!(decompress(&[4]), None);
        // Back-reference before the start of output.
        // raw_len=4, ctrl=0 (match), dist=9 len_code=0 -> dist > produced.
        assert_eq!(decompress(&[4, 0x00, 9, 0, 0]), None);
        // Zero distance is invalid.
        assert_eq!(decompress(&[4, 0x00, 0, 0, 0]), None);
        // Trailing garbage after a complete stream.
        let mut ok = compress(b"hello world hello world");
        assert!(decompress(&ok).is_some());
        ok.push(0);
        assert_eq!(decompress(&ok), None);
    }

    #[test]
    fn reused_state_writes_what_a_fresh_one_does() {
        // Each input repeats its predecessor, so every stale table entry is
        // a tempting match; the last one forces the position wrap-around.
        let inputs: [&[u8]; 5] =
            [b"abcdabcdabcdabcd", b"abcdabcdabcdabcd", b"", b"xabcdabcdabcd", b"abcdabcd-abcd"];
        let mut state = Lzss::default();
        let mut out = Vec::new();
        for (k, data) in inputs.iter().enumerate() {
            if k == inputs.len() - 1 {
                state.base = u32::MAX - 5;
            }
            out.clear();
            state.compress_into(data, &mut out);
            assert_eq!(out, compress(data), "input {k}");
        }
        assert_eq!(state.base, 1 + inputs[4].len() as u32, "the wrap reset the table");
    }

    #[test]
    fn match_length_bounds() {
        // A run exactly at MAX_MATCH and one over.
        for n in [MAX_MATCH, MAX_MATCH + 1, 3 * MAX_MATCH + 7] {
            roundtrip(&vec![7u8; n]);
        }
    }
}
