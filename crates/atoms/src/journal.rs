//! Binary journal encoding for atom files.
//!
//! Per §4.1 an atom file is "a simple binary compressed journal of graph
//! generating commands such as `AddVertex(5000, vdata)` and
//! `AddEdge(42 → 314, edata)`". We use a compact tag + LEB128-varint
//! format with a FNV-1a checksum trailer so corruption is detected at
//! playback time; the format favours small on-disk size (ids are varints,
//! data blobs are length-prefixed).
//!
//! Record grammar:
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

use bytes::{Buf, BufMut, Bytes, BytesMut};
use graphlab_graph::{AtomId, EdgeId, VertexId};
use graphlab_net::codec::{get_uvarint, put_uvarint, Codec};

const MAGIC: &[u8; 4] = b"GLAT";
const VERSION: u8 = 1;

const TAG_VERTEX: u8 = 0x01;
const TAG_GHOST: u8 = 0x02;
const TAG_EDGE: u8 = 0x03;
const TAG_END: u8 = 0xFF;

/// Errors raised while reading a journal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JournalError {
    /// The magic/version header was wrong.
    BadHeader,
    /// A record tag was unknown or the journal was truncated.
    Corrupt(&'static str),
    /// The checksum trailer did not match the content.
    ChecksumMismatch,
    /// A user data blob failed to decode.
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

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
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
        let mut tmp = BytesMut::new();
        data.encode(&mut tmp);
        put_uvarint(&mut self.buf, tmp.len() as u64);
        self.buf.put_slice(&tmp);
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
        let checksum = fnv1a(&self.buf);
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

impl<V: Codec, E: Codec> JournalReader<V, E> {
    /// Validates framing and checksum; does not yet decode records.
    pub fn open(bytes: Bytes) -> Result<Self, JournalError> {
        if bytes.len() < MAGIC.len() + 1 + 1 + 9 {
            return Err(JournalError::Corrupt("too short"));
        }
        let (content, trailer) = bytes.split_at(bytes.len() - 9);
        if trailer[0] != TAG_END {
            return Err(JournalError::Corrupt("missing end tag"));
        }
        let stored = u64::from_le_bytes(trailer[1..9].try_into().expect("8 bytes"));
        if fnv1a(content) != stored {
            return Err(JournalError::ChecksumMismatch);
        }
        let mut body = bytes.slice(0..bytes.len() - 9);
        if body.len() < 5 || &body[..4] != MAGIC {
            return Err(JournalError::BadHeader);
        }
        body.advance(4);
        if body.get_u8() != VERSION {
            return Err(JournalError::BadHeader);
        }
        let atom = get_uvarint(&mut body).ok_or(JournalError::Corrupt("atom id"))? as u32;
        Ok(JournalReader { body, atom: AtomId(atom), _marker: std::marker::PhantomData })
    }

    /// The atom this journal describes.
    pub fn atom(&self) -> AtomId {
        self.atom
    }

    fn get_blob<T: Codec>(&mut self) -> Result<T, JournalError> {
        let len = get_uvarint(&mut self.body).ok_or(JournalError::Corrupt("blob len"))? as usize;
        if self.body.remaining() < len {
            return Err(JournalError::Corrupt("blob body"));
        }
        let mut blob = self.body.split_to(len);
        let v = T::decode(&mut blob).ok_or(JournalError::BadData)?;
        if blob.has_remaining() {
            return Err(JournalError::BadData);
        }
        Ok(v)
    }

    /// Reads the next record, or `None` at end of journal.
    pub fn next_record(&mut self) -> Result<Option<JournalRecord<V, E>>, JournalError> {
        if !self.body.has_remaining() {
            return Ok(None);
        }
        let tag = self.body.get_u8();
        match tag {
            TAG_VERTEX => {
                let gvid = get_uvarint(&mut self.body).ok_or(JournalError::Corrupt("gvid"))?;
                let nm = get_uvarint(&mut self.body).ok_or(JournalError::Corrupt("mirrors"))?;
                let mut mirrors = Vec::with_capacity(nm as usize);
                for _ in 0..nm {
                    let a = get_uvarint(&mut self.body).ok_or(JournalError::Corrupt("mirror"))?;
                    mirrors.push(AtomId(a as u32));
                }
                let data = self.get_blob()?;
                Ok(Some(JournalRecord::Vertex { gvid: VertexId(gvid as u32), mirrors, data }))
            }
            TAG_GHOST => {
                let gvid = get_uvarint(&mut self.body).ok_or(JournalError::Corrupt("gvid"))?;
                let owner = get_uvarint(&mut self.body).ok_or(JournalError::Corrupt("owner"))?;
                let data = self.get_blob()?;
                Ok(Some(JournalRecord::Ghost {
                    gvid: VertexId(gvid as u32),
                    owner_atom: AtomId(owner as u32),
                    data,
                }))
            }
            TAG_EDGE => {
                let geid = get_uvarint(&mut self.body).ok_or(JournalError::Corrupt("geid"))?;
                let src = get_uvarint(&mut self.body).ok_or(JournalError::Corrupt("src"))?;
                let dst = get_uvarint(&mut self.body).ok_or(JournalError::Corrupt("dst"))?;
                if !self.body.has_remaining() {
                    return Err(JournalError::Corrupt("owned flag"));
                }
                let owned = match self.body.get_u8() {
                    0 => false,
                    1 => true,
                    _ => return Err(JournalError::Corrupt("owned flag value")),
                };
                let data = self.get_blob()?;
                Ok(Some(JournalRecord::Edge {
                    geid: EdgeId(geid as u32),
                    src: VertexId(src as u32),
                    dst: VertexId(dst as u32),
                    owned,
                    data,
                }))
            }
            _ => Err(JournalError::Corrupt("unknown tag")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small_journal() {
        let mut w = JournalWriter::new(AtomId(7));
        w.add_vertex(VertexId(5000), &[AtomId(1), AtomId(2)], &1.5f64);
        w.add_ghost(VertexId(42), AtomId(3), &2.5f64);
        w.add_edge(EdgeId(9), VertexId(42), VertexId(5000), true, &0.25f64);
        let bytes = w.finish();
        // The on-DFS format, byte for byte (ids as LEB128 varints: 5000 is
        // `136, 39`), ending in the end tag and the FNV-1a checksum.
        #[rustfmt::skip]
        let pinned = [
            71, 76, 65, 84, 1, 7,
            1, 136, 39, 2, 1, 2, 8, 0, 0, 0, 0, 0, 0, 248, 63,
            2, 42, 3, 8, 0, 0, 0, 0, 0, 0, 4, 64,
            3, 9, 42, 136, 39, 1, 8, 0, 0, 0, 0, 0, 0, 208, 63,
            255, 93, 37, 163, 171, 151, 65, 80, 59,
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
    fn checksum_detects_flip() {
        let mut w = JournalWriter::new(AtomId(0));
        w.add_vertex(VertexId(1), &[], &7u64);
        let bytes = w.finish();
        let mut raw = bytes.to_vec();
        raw[8] ^= 0x40;
        assert_eq!(
            JournalReader::<u64, u64>::open(Bytes::from(raw)).err(),
            Some(JournalError::ChecksumMismatch)
        );
    }

    #[test]
    fn truncation_detected() {
        let mut w = JournalWriter::new(AtomId(0));
        w.add_vertex(VertexId(1), &[], &7u64);
        let bytes = w.finish();
        let truncated = bytes.slice(0..bytes.len() - 1);
        assert!(JournalReader::<u64, u64>::open(truncated).is_err());
    }

    #[test]
    fn bad_magic_detected() {
        let mut w = JournalWriter::new(AtomId(0));
        w.add_vertex(VertexId(1), &[], &7u64);
        let bytes = w.finish();
        let mut raw = bytes.to_vec();
        raw[0] = b'X';
        // checksum recomputed so only the header check fires
        let csum = fnv1a(&raw[..raw.len() - 9]);
        let n = raw.len();
        raw[n - 8..].copy_from_slice(&csum.to_le_bytes());
        assert_eq!(
            JournalReader::<u64, u64>::open(Bytes::from(raw)).err(),
            Some(JournalError::BadHeader)
        );
    }

    #[test]
    fn varint_overflowing_64_bits_is_corrupt() {
        // A 10-byte varint whose last byte carries more than the 64th bit.
        let mut raw = MAGIC.to_vec();
        raw.push(VERSION);
        raw.extend([0xff; 9]);
        raw.push(0x02);
        let csum = fnv1a(&raw);
        raw.push(TAG_END);
        raw.extend(csum.to_le_bytes());
        assert_eq!(
            JournalReader::<u64, u64>::open(Bytes::from(raw)).err(),
            Some(JournalError::Corrupt("atom id"))
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
