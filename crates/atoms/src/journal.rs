//! Binary journal encoding for atom files.
//!
//! Per §4.1 an atom file is "a simple binary compressed journal of graph
//! generating commands such as `AddVertex(5000, vdata)` and
//! `AddEdge(42 → 314, edata)`". We use a compact tag + LEB128-varint
//! format with a checksum trailer so corruption is detected when the journal
//! is opened; the format favours small on-disk size (ids are varints, data
//! blobs are length-prefixed).
//!
//! Record grammar (version 2):
//!
//! ```text
//! journal   := header record* end
//! header    := MAGIC(4) version:u8 atom_id:varint
//! record    := vertex | ghost | edge
//! vertex    := 0x01 gvid:varint mirror_count:varint mirror_atom:varint* data:blob
//! ghost     := 0x02 gvid:varint owner_atom:varint data:blob
//! edge      := 0x03 geid:varint src:varint dst:varint owned:u8 data:blob
//! end       := 0xFF checksum:u64le
//! blob      := len:varint bytes
//! ```
//!
//! Every id fits 32 bits, and records may come in any order. The checksum
//! (xor-multiply-rotate over 8-byte words) covers every byte before the end
//! tag — header and records — and their count; [`JournalReader::open`]
//! verifies it before a record is read. Version 1 differed in the checksum alone (FNV-1a, a byte
//! per step) and is refused: no journal outlives the process that wrote it.
//!
//! A blob is written and read in place: the writer encodes the datum behind
//! a placeholder length and patches it, the reader decodes from the journal
//! body and requires the decoder to have consumed exactly `len` bytes.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use graphlab_graph::{AtomId, EdgeId, VertexId};
use graphlab_net::codec::{get_array, get_varint, patch_len, put_uvarint, Codec};

const MAGIC: &[u8; 4] = b"GLAT";
const VERSION: u8 = 2;

const TAG_VERTEX: u8 = 0x01;
const TAG_GHOST: u8 = 0x02;
const TAG_EDGE: u8 = 0x03;
const TAG_END: u8 = 0xFF;

/// End tag + checksum.
const TRAILER: usize = 1 + 8;

/// Errors raised while reading a journal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JournalError {
    /// The magic/version header was wrong.
    BadHeader,
    /// A record tag was unknown, an id did not fit 32 bits or the journal
    /// was truncated.
    Corrupt(&'static str),
    /// The checksum trailer did not match the content.
    ChecksumMismatch,
    /// A user data blob failed to decode, or decoded from more or fewer
    /// bytes than its length prefix declares.
    BadData,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::BadHeader => write!(f, "bad journal header"),
            JournalError::Corrupt(what) => write!(f, "corrupt journal: {what}"),
            JournalError::ChecksumMismatch => write!(f, "journal checksum mismatch"),
            JournalError::BadData => write!(f, "journal user-data blob failed to decode"),
        }
    }
}

impl std::error::Error for JournalError {}

/// The journal's 64-bit checksum: xor-multiply-rotate over little-endian
/// 8-byte words, the tail a byte per step, the byte count last. A step is a
/// bijection of the state for a given word and of the word for a given
/// state, so two contents that differ in one word never collide.
fn checksum(bytes: &[u8]) -> u64 {
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(0x9E37_79B1_85EB_CA87).rotate_left(31);
    let mut words = bytes.chunks_exact(8);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")));
    }
    for &b in words.remainder() {
        h = step(h, b as u64);
    }
    step(h, bytes.len() as u64)
}

/// Streaming journal writer.
pub struct JournalWriter {
    buf: BytesMut,
}

impl JournalWriter {
    /// Starts a journal for `atom`.
    pub fn new(atom: AtomId) -> Self {
        let mut buf = BytesMut::with_capacity(256);
        buf.put_slice(MAGIC);
        buf.put_u8(VERSION);
        put_uvarint(&mut buf, atom.0 as u64);
        JournalWriter { buf }
    }

    fn put_blob<T: Codec>(&mut self, data: &T) {
        let at = self.buf.len();
        self.buf.put_u8(0);
        data.encode(&mut self.buf);
        let len = self.buf.len() - at - 1;
        patch_len(&mut self.buf, at, len);
    }

    /// Appends an `AddVertex` command for an *owned* vertex, with the list
    /// of atoms that hold a ghost of it (its mirrors).
    pub fn add_vertex<V: Codec>(&mut self, gvid: VertexId, mirrors: &[AtomId], data: &V) {
        self.buf.put_u8(TAG_VERTEX);
        put_uvarint(&mut self.buf, gvid.0 as u64);
        put_uvarint(&mut self.buf, mirrors.len() as u64);
        for m in mirrors {
            put_uvarint(&mut self.buf, m.0 as u64);
        }
        self.put_blob(data);
    }

    /// Appends a ghost-vertex record (a boundary vertex owned by
    /// `owner_atom`, stored redundantly with its initial data so playback
    /// needs no remote fetch).
    pub fn add_ghost<V: Codec>(&mut self, gvid: VertexId, owner_atom: AtomId, data: &V) {
        self.buf.put_u8(TAG_GHOST);
        put_uvarint(&mut self.buf, gvid.0 as u64);
        put_uvarint(&mut self.buf, owner_atom.0 as u64);
        self.put_blob(data);
    }

    /// Appends an `AddEdge` command. `owned` is false when this atom holds
    /// only a ghost copy of the edge (its owner is the target's atom).
    pub fn add_edge<E: Codec>(
        &mut self,
        geid: EdgeId,
        src: VertexId,
        dst: VertexId,
        owned: bool,
        data: &E,
    ) {
        self.buf.put_u8(TAG_EDGE);
        put_uvarint(&mut self.buf, geid.0 as u64);
        put_uvarint(&mut self.buf, src.0 as u64);
        put_uvarint(&mut self.buf, dst.0 as u64);
        self.buf.put_u8(owned as u8);
        self.put_blob(data);
    }

    /// Seals the journal with its checksum and returns the bytes.
    pub fn finish(mut self) -> Bytes {
        let checksum = checksum(&self.buf);
        self.buf.put_u8(TAG_END);
        self.buf.put_u64_le(checksum);
        self.buf.freeze()
    }
}

/// One decoded journal record.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord<V, E> {
    /// Owned vertex with mirror atoms.
    Vertex {
        /// Global vertex id.
        gvid: VertexId,
        /// Atoms holding ghosts of this vertex.
        mirrors: Vec<AtomId>,
        /// Initial vertex data.
        data: V,
    },
    /// Ghost (boundary) vertex owned elsewhere.
    Ghost {
        /// Global vertex id.
        gvid: VertexId,
        /// Atom that owns the vertex.
        owner_atom: AtomId,
        /// Initial vertex data (redundant copy).
        data: V,
    },
    /// Edge adjacent to an owned vertex.
    Edge {
        /// Global edge id.
        geid: EdgeId,
        /// Source endpoint.
        src: VertexId,
        /// Target endpoint.
        dst: VertexId,
        /// Whether this atom owns the edge.
        owned: bool,
        /// Initial edge data.
        data: E,
    },
}

/// Journal playback: validates header + checksum, then iterates records.
pub struct JournalReader<V, E> {
    body: Bytes,
    atom: AtomId,
    _marker: std::marker::PhantomData<(V, E)>,
}

/// Reads an id: a varint that fits 32 bits.
#[inline]
fn get_id(buf: &mut &[u8], what: &'static str) -> Result<u32, JournalError> {
    get_varint(buf).ok_or(JournalError::Corrupt(what))
}

/// A record up to its data blob.
enum Head {
    Vertex { gvid: VertexId, mirrors: Vec<AtomId> },
    Ghost { gvid: VertexId, owner_atom: AtomId },
    Edge { geid: EdgeId, src: VertexId, dst: VertexId, owned: bool },
}

impl Head {
    /// Reads the next record's head off `buf`, or `None` at end of journal.
    fn read(buf: &mut &[u8]) -> Result<Option<Head>, JournalError> {
        let Some([tag]) = get_array(buf) else { return Ok(None) };
        match tag {
            TAG_VERTEX => {
                let gvid = VertexId(get_id(buf, "gvid")?);
                // A mirror takes at least a byte: a count the rest of the
                // journal cannot hold is refused before it is reserved.
                let count = get_varint::<usize, _>(buf)
                    .filter(|&n| n <= buf.len())
                    .ok_or(JournalError::Corrupt("mirrors"))?;
                let mut mirrors = Vec::with_capacity(count);
                for _ in 0..count {
                    mirrors.push(AtomId(get_id(buf, "mirror")?));
                }
                Ok(Some(Head::Vertex { gvid, mirrors }))
            }
            TAG_GHOST => {
                let gvid = VertexId(get_id(buf, "gvid")?);
                let owner_atom = AtomId(get_id(buf, "owner")?);
                Ok(Some(Head::Ghost { gvid, owner_atom }))
            }
            TAG_EDGE => {
                let geid = EdgeId(get_id(buf, "geid")?);
                let src = VertexId(get_id(buf, "src")?);
                let dst = VertexId(get_id(buf, "dst")?);
                let owned = match get_array(buf) {
                    Some([0]) => false,
                    Some([1]) => true,
                    Some(_) => return Err(JournalError::Corrupt("owned flag value")),
                    None => return Err(JournalError::Corrupt("owned flag")),
                };
                Ok(Some(Head::Edge { geid, src, dst, owned }))
            }
            _ => Err(JournalError::Corrupt("unknown tag")),
        }
    }
}

impl<V: Codec, E: Codec> JournalReader<V, E> {
    /// Validates framing and checksum; does not yet decode records.
    pub fn open(bytes: Bytes) -> Result<Self, JournalError> {
        if bytes.len() < MAGIC.len() + 1 + 1 + TRAILER {
            return Err(JournalError::Corrupt("too short"));
        }
        let (content, trailer) = bytes.split_at(bytes.len() - TRAILER);
        if trailer[0] != TAG_END {
            return Err(JournalError::Corrupt("missing end tag"));
        }
        let stored = u64::from_le_bytes(trailer[1..].try_into().expect("8 bytes"));
        if checksum(content) != stored {
            return Err(JournalError::ChecksumMismatch);
        }
        let mut records = content;
        if get_array(&mut records) != Some(*MAGIC) || get_array(&mut records) != Some([VERSION]) {
            return Err(JournalError::BadHeader);
        }
        let atom = AtomId(get_id(&mut records, "atom id")?);
        let body = bytes.slice_ref(records);
        Ok(JournalReader { body, atom, _marker: std::marker::PhantomData })
    }

    /// The atom this journal describes.
    pub fn atom(&self) -> AtomId {
        self.atom
    }

    /// Decodes the blob at the front of the body, in place.
    fn get_blob<T: Codec>(&mut self) -> Result<T, JournalError> {
        let len: usize = get_varint(&mut self.body).ok_or(JournalError::Corrupt("blob len"))?;
        let before = self.body.len();
        if before < len {
            return Err(JournalError::Corrupt("blob body"));
        }
        let v = T::decode(&mut self.body).ok_or(JournalError::BadData)?;
        // The decoder sees the records behind its blob too: one that stops
        // short of the declared length or reads past it is refused here.
        if before - self.body.len() != len {
            return Err(JournalError::BadData);
        }
        Ok(v)
    }

    /// Reads the next record, or `None` at end of journal.
    pub fn next_record(&mut self) -> Result<Option<JournalRecord<V, E>>, JournalError> {
        // A record's head is read off a borrowed slice of the body, which
        // then moves past it; the blob is read by the datum's decoder off the
        // body itself.
        let mut rest: &[u8] = &self.body;
        let Some(head) = Head::read(&mut rest)? else { return Ok(None) };
        let read = self.body.len() - rest.len();
        self.body.advance(read);
        Ok(Some(match head {
            Head::Vertex { gvid, mirrors } => JournalRecord::Vertex { gvid, mirrors, data: self.get_blob()? },
            Head::Ghost { gvid, owner_atom } => JournalRecord::Ghost { gvid, owner_atom, data: self.get_blob()? },
            Head::Edge { geid, src, dst, owned } => {
                JournalRecord::Edge { geid, src, dst, owned, data: self.get_blob()? }
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The journal `roundtrip_small_journal` pins.
    fn small_journal() -> Bytes {
        let mut w = JournalWriter::new(AtomId(7));
        w.add_vertex(VertexId(5000), &[AtomId(1), AtomId(2)], &1.5f64);
        w.add_ghost(VertexId(42), AtomId(3), &2.5f64);
        w.add_edge(EdgeId(9), VertexId(42), VertexId(5000), true, &0.25f64);
        w.finish()
    }

    /// Opens `raw` and plays every record.
    fn play<V: Codec, E: Codec>(raw: &[u8]) -> Result<Vec<JournalRecord<V, E>>, JournalError> {
        let mut r = JournalReader::<V, E>::open(Bytes::copy_from_slice(raw))?;
        let mut records = Vec::new();
        while let Some(record) = r.next_record()? {
            records.push(record);
        }
        Ok(records)
    }

    /// Rewrites the trailer of `raw` for its (edited) content, so that only
    /// the checks behind the checksum can fire.
    fn reseal(raw: &mut [u8]) {
        let content = raw.len() - 8;
        let sum = checksum(&raw[..content - 1]);
        raw[content..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn roundtrip_small_journal() {
        let bytes = small_journal();
        // The on-DFS format, byte for byte (ids as LEB128 varints: 5000 is
        // `136, 39`), ending in the end tag and the checksum.
        #[rustfmt::skip]
        let pinned = [
            71, 76, 65, 84, 2, 7,
            1, 136, 39, 2, 1, 2, 8, 0, 0, 0, 0, 0, 0, 248, 63,
            2, 42, 3, 8, 0, 0, 0, 0, 0, 0, 4, 64,
            3, 9, 42, 136, 39, 1, 8, 0, 0, 0, 0, 0, 0, 208, 63,
            255, 68, 139, 146, 15, 7, 192, 114, 251,
        ];
        assert_eq!(bytes[..], pinned);

        let mut r = JournalReader::<f64, f64>::open(bytes).unwrap();
        assert_eq!(r.atom(), AtomId(7));
        assert_eq!(
            r.next_record().unwrap(),
            Some(JournalRecord::Vertex {
                gvid: VertexId(5000),
                mirrors: vec![AtomId(1), AtomId(2)],
                data: 1.5
            })
        );
        assert_eq!(
            r.next_record().unwrap(),
            Some(JournalRecord::Ghost { gvid: VertexId(42), owner_atom: AtomId(3), data: 2.5 })
        );
        assert_eq!(
            r.next_record().unwrap(),
            Some(JournalRecord::Edge {
                geid: EdgeId(9),
                src: VertexId(42),
                dst: VertexId(5000),
                owned: true,
                data: 0.25
            })
        );
        assert_eq!(r.next_record().unwrap(), None);
    }

    #[test]
    fn hostile_bytes_end_in_err() {
        let good = small_journal().to_vec();
        assert_eq!(play::<f64, f64>(&good).map(|r| r.len()), Ok(3));
        // Every bit of every byte, and the byte as a whole.
        for at in 0..good.len() {
            for mask in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
                let mut raw = good.clone();
                raw[at] ^= mask;
                assert!(play::<f64, f64>(&raw).is_err(), "byte {at} ^ {mask:#04x} went unnoticed");
            }
        }
        for len in 0..good.len() {
            assert!(play::<f64, f64>(&good[..len]).is_err(), "truncation to {len} went unnoticed");
        }
        // Any two aligned 8-byte words of the content that differ, swapped.
        let words = (good.len() - TRAILER) / 8;
        for (i, j) in (0..words).flat_map(|i| (i + 1..words).map(move |j| (i, j))) {
            let mut raw = good.clone();
            let (head, tail) = raw.split_at_mut(8 * j);
            head[8 * i..8 * i + 8].swap_with_slice(&mut tail[..8]);
            if raw != good {
                assert!(play::<f64, f64>(&raw).is_err(), "words {i} and {j} swapped unnoticed");
            }
        }
    }

    #[test]
    fn checksum_detects_flip() {
        let mut raw = small_journal().to_vec();
        raw[8] ^= 0x40;
        assert_eq!(play::<f64, f64>(&raw).err(), Some(JournalError::ChecksumMismatch));
    }

    #[test]
    fn bad_magic_and_old_version_are_bad_headers() {
        // (byte, value): the magic's first letter, and version 1's number.
        for (at, value) in [(0, b'X'), (4, 1)] {
            let mut raw = small_journal().to_vec();
            raw[at] = value;
            reseal(&mut raw);
            assert_eq!(play::<f64, f64>(&raw).err(), Some(JournalError::BadHeader), "byte {at}");
        }
    }

    #[test]
    fn varint_overflowing_64_bits_is_corrupt() {
        // A 10-byte varint whose last byte carries more than the 64th bit.
        let mut raw = MAGIC.to_vec();
        raw.push(VERSION);
        raw.extend([0xff; 9]);
        raw.push(0x02);
        raw.extend([TAG_END, 0, 0, 0, 0, 0, 0, 0, 0]);
        reseal(&mut raw);
        assert_eq!(play::<u64, u64>(&raw).err(), Some(JournalError::Corrupt("atom id")));
    }

    #[test]
    fn ids_and_counts_a_journal_cannot_hold_are_corrupt() {
        /// `record` as the only one of atom 0's journal, sealed.
        fn sealed(record: &[u8]) -> Vec<u8> {
            let mut raw = [&MAGIC[..], &[VERSION, 0], record, &[TAG_END, 0, 0, 0, 0, 0, 0, 0, 0]].concat();
            reseal(&mut raw);
            raw
        }
        let mut id = BytesMut::new();
        put_uvarint(&mut id, u32::MAX as u64 + 1);
        let mut count = BytesMut::new();
        put_uvarint(&mut count, 1 << 60);
        let blob = [1, 7];

        let cases: [(Vec<u8>, &str); 8] = [
            ([&[TAG_VERTEX][..], &id, &[0], &blob].concat(), "gvid"),
            ([&[TAG_VERTEX, 5][..], &count, &blob].concat(), "mirrors"),
            ([&[TAG_VERTEX, 5, 5, 1, 1][..], &blob].concat(), "mirrors"),
            ([&[TAG_VERTEX, 5, 1][..], &id, &blob].concat(), "mirror"),
            ([&[TAG_GHOST, 5][..], &id, &blob].concat(), "owner"),
            ([&[TAG_EDGE][..], &id, &[1, 2, 1], &blob].concat(), "geid"),
            ([&[TAG_EDGE, 0][..], &id, &[2, 1], &blob].concat(), "src"),
            ([&[TAG_EDGE, 0, 1][..], &id, &[1], &blob].concat(), "dst"),
        ];
        for (record, what) in cases {
            assert_eq!(play::<u8, u8>(&sealed(&record)).err(), Some(JournalError::Corrupt(what)));
        }
        // The same records with ids that fit are fine.
        assert!(play::<u8, u8>(&sealed(&[TAG_VERTEX, 5, 1, 9, 1, 7])).is_ok());
        // The header's atom id is an id like any other.
        let mut raw = [&MAGIC[..], &[VERSION], &id, &[TAG_END, 0, 0, 0, 0, 0, 0, 0, 0]].concat();
        reseal(&mut raw);
        assert_eq!(play::<u8, u8>(&raw).err(), Some(JournalError::Corrupt("atom id")));
    }

    /// Encodes `WRITES` bytes and decodes `READS`: a datum whose decoder
    /// does not stop where its blob does.
    #[derive(Debug, PartialEq)]
    struct Sloppy<const WRITES: usize, const READS: usize>;

    impl<const WRITES: usize, const READS: usize> Codec for Sloppy<WRITES, READS> {
        fn encode(&self, buf: &mut BytesMut) {
            buf.put_slice(&[0; WRITES]);
        }
        fn decode(buf: &mut Bytes) -> Option<Self> {
            (buf.remaining() >= READS).then(|| buf.advance(READS)).map(|()| Sloppy)
        }
    }

    #[test]
    fn a_decoder_that_leaves_its_blob_is_bad_data() {
        fn journal<const W: usize, const R: usize>() -> Vec<u8> {
            let mut w = JournalWriter::new(AtomId(0));
            w.add_ghost(VertexId(1), AtomId(1), &Sloppy::<W, R>);
            w.add_ghost(VertexId(2), AtomId(1), &Sloppy::<W, R>);
            w.finish().to_vec()
        }
        assert_eq!(play::<Sloppy<2, 2>, u8>(&journal::<2, 2>()).map(|r| r.len()), Ok(2));
        // Past the blob, into the next record; and short of its end.
        assert_eq!(play::<Sloppy<2, 3>, u8>(&journal::<2, 3>()).err(), Some(JournalError::BadData));
        assert_eq!(play::<Sloppy<2, 1>, u8>(&journal::<2, 1>()).err(), Some(JournalError::BadData));
        // Past the last blob there is nothing to read: the decoder fails.
        assert_eq!(play::<Sloppy<0, 40>, u8>(&journal::<0, 40>()).err(), Some(JournalError::BadData));
    }

    #[test]
    fn long_blobs_get_a_longer_length_prefix() {
        let data: Vec<f64> = (0..40).map(f64::from).collect();
        let mut w = JournalWriter::new(AtomId(0));
        w.add_ghost(VertexId(1), AtomId(1), &data);
        w.add_ghost(VertexId(2), AtomId(1), &Vec::<f64>::new());
        let records = play::<Vec<f64>, u8>(&w.finish()).unwrap();
        assert_eq!(
            records,
            [
                JournalRecord::Ghost { gvid: VertexId(1), owner_atom: AtomId(1), data },
                JournalRecord::Ghost { gvid: VertexId(2), owner_atom: AtomId(1), data: vec![] },
            ]
        );
    }

    #[test]
    fn empty_journal_roundtrip() {
        let w = JournalWriter::new(AtomId(11));
        let bytes = w.finish();
        let mut r = JournalReader::<u32, u32>::open(bytes).unwrap();
        assert_eq!(r.atom(), AtomId(11));
        assert_eq!(r.next_record().unwrap(), None);
    }
}
