//! Fault tolerance through distributed checkpoints (§4.3).
//!
//! Two snapshot constructions are implemented inside the engines:
//!
//! - **Synchronous**: suspend update execution, flush all communication
//!   channels, save all owned data. The chromatic engine does this at a
//!   cycle boundary, whose last step barrier has already suspended and
//!   flushed: the end of one cycle names the checkpoint, and every machine
//!   saves at the end of the next, after its last flush round and before
//!   its sync partial leaves, with no vote and no resume (no peer sends
//!   anything of the following cycle before it holds that partial). So a
//!   checkpoint may be captured in the cycle that halts. The locking
//!   engine takes the asynchronous cut below with new lock chains paused
//!   on each machine from its save until its part is written: pause,
//!   marker cut, and each machine resumes on its own (README, "Fault
//!   tolerance", on this departure). Saving changes no datum and no
//!   version, so the locking engine's ghost-cache table stays true across
//!   it, in either mode.
//! - **Asynchronous** (locking engine): Chandy–Lamport between machines,
//!   over the per-channel FIFO links the lock chains use; the paper's Alg. 5
//!   runs the same algorithm as an update function, one lock chain per
//!   vertex (README, "Fault tolerance", says why this one does not). A
//!   machine's part starts at the first `SnapStart` marker it receives (the
//!   master's at the trigger): before it sends anything else it saves every
//!   owned row and broadcasts its own marker. A write-back from a peer whose
//!   marker has not arrived is pre-cut: its row is saved again once applied,
//!   behind the first copy, and restore applies a file's rows in order, so
//!   the last one wins. Holding every survivor's marker, the machine writes
//!   its part. The cut is consistent under edge and full consistency
//!   because:
//!   - a post-cut write reaches a machine only behind its sender's marker,
//!     so after that machine's capture;
//!   - a pre-cut writer holds a lock on the datum's vertex until the
//!     `Release` that carries the write, so no post-cut write can land
//!     between the capture and the re-save;
//!   - a pre-cut update never reads post-cut data: any `ScopeData` a hop
//!     sends after its capture follows its marker, so the requester
//!     captures before that update runs.
//!
//! Restoring a checkpoint after a crash, and adopting a dead machine's
//! atoms instead, is `crate::recovery`'s protocol; its module docs walk
//! through it.
//!
//! This module holds what the engines share: the checkpoint file format on
//! the DFS, the one way a checkpoint is written, restoration,
//! completeness scanning/pruning, and Young's first-order optimal
//! checkpoint interval (Eq. 3).
//!
//! Every checkpoint is written through a [`CheckpointWriter`]: every
//! snapshot saves every owned row into it at its capture (the locking
//! engine's also each pre-cut write-back's row), and each row is encoded once,
//! straight into the body of the file of its atom.
//! [`write_snapshot_atoms`] feeds a whole [`SnapshotFile`] through the same
//! writer.

use bytes::{BufMut, Bytes, BytesMut};
use graphlab_graph::{AtomId, DataGraph, EdgeId, MachineId, VertexId};
use graphlab_net::codec::{decode_from, encode_to_bytes, patch_len, put_uvarint, Codec};
use graphlab_atoms::SimDfs;

use crate::local::LocalGraph;

/// A checkpoint file's contents: one file per atom per snapshot, written
/// by the atom's owner. Also the payload of adoption's ghost exchange.
///
/// Vertex/edge data are stored as encoded blobs so the file format is
/// independent of the user types. [`CheckpointWriter`] writes the same
/// bytes without building one.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SnapshotFile {
    /// Saved vertex rows `(vertex, encoded data)`.
    pub vrows: Vec<(VertexId, Bytes)>,
    /// Saved edge rows `(edge, encoded data)`.
    pub erows: Vec<(EdgeId, Bytes)>,
}

// A torn or corrupt checkpoint cannot size an allocation: `Vec`'s decode
// reserves no more rows than bytes are left.
graphlab_net::codec_fields! { SnapshotFile { vrows, erows } }

impl SnapshotFile {
    /// Captures all owned data of a local graph (synchronous snapshots save
    /// the complete owned state).
    pub fn capture<V: Codec, E: Codec>(lg: &LocalGraph<V, E>) -> SnapshotFile {
        let mut vrows = Vec::with_capacity(lg.owned_vertices().len());
        for &l in lg.owned_vertices() {
            vrows.push((lg.vertex_gvid(l), encode_to_bytes(lg.vertex_data(l))));
        }
        let mut erows = Vec::new();
        for l in 0..lg.num_local_edges() as u32 {
            if lg.owns_edge(l) {
                erows.push((lg.edge_geid(l), encode_to_bytes(lg.edge_data(l))));
            }
        }
        SnapshotFile { vrows, erows }
    }
}

/// DFS directory of snapshot `id`. Padding is cosmetic only: every
/// comparison parses ids numerically, so names written at different
/// padding widths (or past the width, e.g. id 10000 under the historical
/// 4-digit scheme) still order correctly.
fn snap_dir(prefix: &str, id: u64) -> String {
    format!("{prefix}/snap_{id:06}")
}

/// DFS file name of `machine`'s rows for `atom` in snapshot `id` — the
/// per-atom checkpoint layout adoption restores from. Written only by the
/// atom's **owner**; these are the files completeness counting demands,
/// and no other name counts.
pub fn atom_snap_file_name(prefix: &str, id: u64, atom: AtomId, machine: MachineId) -> String {
    format!("{}/atom_{:06}_m{:06}", snap_dir(prefix, id), atom.0, machine.0)
}

/// Whether any file of snapshot `id` exists.
pub fn snapshot_exists(dfs: &SimDfs, prefix: &str, id: u64) -> bool {
    let dir = format!("{}/", snap_dir(prefix, id));
    !dfs.list_prefix(&dir).is_empty()
}

/// Parses `"<prefix>/snap_<ID>/<part>"` into its **numeric** snapshot id,
/// whatever the padding width the name was written at.
fn parse_snap_id(prefix: &str, name: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_prefix("/snap_")?;
    let (id, _part) = rest.split_once('/')?;
    id.parse().ok()
}

/// The part an [`atom_snap_file_name`] file contributes: an atom's rows in
/// one snapshot.
struct SnapPart {
    id: u64,
    atom: u64,
}

/// `None` for any name [`atom_snap_file_name`] did not make.
fn parse_snap_part(prefix: &str, name: &str) -> Option<SnapPart> {
    let rest = name.strip_prefix(prefix)?.strip_prefix("/snap_")?;
    let (id, part) = rest.split_once('/')?;
    let id: u64 = id.parse().ok()?;
    let atom = part.strip_prefix("atom_")?;
    let atom = atom.split_once("_m").map_or(atom, |(a, _)| a).parse().ok()?;
    Some(SnapPart { id, atom })
}

/// The newest snapshot id for which all `parts` distinct atoms have their
/// owner's file — the only kind of checkpoint recovery may restore (a
/// partial set is a torn cut: some machine died mid-write). A file of any
/// other name never counts. Ids compare numerically, never
/// lexicographically.
pub fn latest_complete_snapshot(dfs: &SimDfs, prefix: &str, parts: usize) -> Option<u64> {
    let mut seen: std::collections::BTreeMap<u64, std::collections::BTreeSet<u64>> =
        std::collections::BTreeMap::new();
    for name in dfs.list_prefix(&format!("{prefix}/snap_")) {
        if let Some(p) = parse_snap_part(prefix, &name) {
            seen.entry(p.id).or_default().insert(p.atom);
        }
    }
    seen.into_iter().rev().find(|(_, s)| s.len() >= parts).map(|(id, _)| id)
}

/// Deletes every snapshot file newer than `keep_through` (all files when
/// `None`). Recovery runs this before rolling back so a half-written
/// snapshot from before the failure can never be completed by post-rollback
/// writes into a mixed-era (corrupt) cut.
pub fn prune_snapshots_after(dfs: &SimDfs, prefix: &str, keep_through: Option<u64>) -> usize {
    let mut pruned = 0;
    for name in dfs.list_prefix(&format!("{prefix}/snap_")) {
        if let Some(id) = parse_snap_id(prefix, &name) {
            if keep_through.is_none_or(|k| id > k) && dfs.delete(&name) {
                pruned += 1;
            }
        }
    }
    pruned
}

/// Restores snapshot `id` into one machine's [`LocalGraph`]: reads every
/// machine's checkpoint file and applies each row that is locally present
/// (owned **or** ghost — ghosts are restored from their owner's file, so
/// the whole cluster resumes from one consistent cut), then resets all
/// data versions to zero, the post-rollback ground state every machine
/// agrees on. Returns `(vertex rows applied, edge rows applied)`.
pub fn restore_into_local<V, E>(
    dfs: &SimDfs,
    prefix: &str,
    id: u64,
    lg: &mut LocalGraph<V, E>,
) -> Result<(usize, usize), String>
where
    V: Codec,
    E: Codec,
{
    let applied = apply_files(dfs, snapshot_files(dfs, prefix, id)?, |file| apply_file(file, lg))?;
    lg.reset_versions();
    Ok(applied)
}

/// Every file of snapshot `id`, which must exist.
fn snapshot_files(dfs: &SimDfs, prefix: &str, id: u64) -> Result<Vec<String>, String> {
    let files = dfs.list_prefix(&format!("{}/", snap_dir(prefix, id)));
    if files.is_empty() {
        return Err(format!("snapshot {id} not found under {prefix}"));
    }
    Ok(files)
}

/// Reads and decodes each of `files` and hands it to `apply`; returns the
/// sum of the `(vertex, edge)` row counts `apply` reports.
fn apply_files(
    dfs: &SimDfs,
    files: impl IntoIterator<Item = String>,
    mut apply: impl FnMut(SnapshotFile) -> Result<(usize, usize), String>,
) -> Result<(usize, usize), String> {
    let mut applied = (0, 0);
    for name in files {
        let bytes = dfs.read(&name).map_err(|e| e.to_string())?;
        let (nv, ne) = apply(decode_from(bytes).ok_or("corrupt snapshot file")?)?;
        applied.0 += nv;
        applied.1 += ne;
    }
    Ok(applied)
}

/// Applies one checkpoint file's locally-present rows; returns the counts.
/// Also used by adoption to re-apply a survivor's own live rows after the
/// local graph is rebuilt under the adopted placement.
pub(crate) fn apply_file<V: Codec, E: Codec>(
    file: SnapshotFile,
    lg: &mut LocalGraph<V, E>,
) -> Result<(usize, usize), String> {
    let mut nv = 0;
    let mut ne = 0;
    for (v, blob) in file.vrows {
        if let Some(l) = lg.local_vertex(v) {
            *lg.vertex_data_mut(l) = decode_from(blob).ok_or("corrupt vertex blob")?;
            nv += 1;
        }
    }
    for (e, blob) in file.erows {
        if let Some(l) = lg.local_edge(e) {
            *lg.edge_data_mut(l) = decode_from(blob).ok_or("corrupt edge blob")?;
            ne += 1;
        }
    }
    Ok((nv, ne))
}

/// One machine's rows of one checkpoint, encoded as they are saved: per
/// atom, a vertex body and an edge body, each row `id ‖ len ‖ datum` — the
/// wire form of a `(VertexId, Bytes)` or `(EdgeId, Bytes)` — written in
/// place behind a held length byte, as `Batcher::send_with` writes a
/// message. A row's atom is its local id's (an edge's is its target's), so
/// saving looks nothing up.
///
/// [`CheckpointWriter::write`] turns each atom's bodies into its file,
/// `count ‖ vrows ‖ count ‖ erows`, byte for byte the
/// [`encode_to_bytes`] of the [`SnapshotFile`] of the same rows in the same
/// order, and empties the writer but keeps its buffers: a warm writer
/// allocates per file, never per row.
#[derive(Debug, Default)]
pub struct CheckpointWriter {
    /// Indexed by atom id; grown on the first row of an atom.
    atoms: Vec<AtomRows>,
}

#[derive(Debug, Default)]
struct AtomRows {
    v: Rows,
    e: Rows,
}

/// The body of a `Vec<(id, Bytes)>`: its rows without their count.
#[derive(Debug, Default)]
struct Rows {
    count: u64,
    body: BytesMut,
}

impl Rows {
    fn put(&mut self, id: u32, datum: impl FnOnce(&mut BytesMut)) {
        put_uvarint(&mut self.body, id as u64);
        let at = self.body.len();
        self.body.put_u8(0);
        datum(&mut self.body);
        let len = self.body.len() - at - 1;
        patch_len(&mut self.body, at, len);
        self.count += 1;
    }

    /// Appends `count ‖ body` to `file` and empties the rows.
    fn drain_into(&mut self, file: &mut BytesMut) {
        put_uvarint(file, self.count);
        file.put_slice(&self.body);
        self.clear();
    }

    fn clear(&mut self) {
        self.count = 0;
        self.body.clear();
    }
}

impl AtomRows {
    fn is_empty(&self) -> bool {
        self.v.count == 0 && self.e.count == 0
    }

    /// The atom's file, in [`SnapshotFile`]'s encoding; empties the rows.
    fn take_file(&mut self) -> Bytes {
        let mut file = BytesMut::with_capacity(20 + self.v.body.len() + self.e.body.len());
        self.v.drain_into(&mut file);
        self.e.drain_into(&mut file);
        file.freeze()
    }
}

impl CheckpointWriter {
    fn rows(&mut self, atom: AtomId) -> &mut AtomRows {
        let i = atom.0 as usize;
        if i >= self.atoms.len() {
            self.atoms.resize_with(i + 1, AtomRows::default);
        }
        &mut self.atoms[i]
    }

    /// Saves local vertex `l`'s datum.
    pub fn save_vertex<V: Codec, E>(&mut self, lg: &LocalGraph<V, E>, l: u32) {
        let data = lg.vertex_data(l);
        self.rows(lg.vertex_atom(l)).v.put(lg.vertex_gvid(l).0, |buf| data.encode(buf));
    }

    /// Saves local edge `l`'s datum.
    pub fn save_edge<V, E: Codec>(&mut self, lg: &LocalGraph<V, E>, l: u32) {
        let data = lg.edge_data(l);
        self.rows(lg.edge_atom(l)).e.put(lg.edge_geid(l).0, |buf| data.encode(buf));
    }

    /// Saves every owned row — a synchronous snapshot's part, in
    /// [`SnapshotFile::capture`]'s order.
    pub fn save_owned<V: Codec, E: Codec>(&mut self, lg: &LocalGraph<V, E>) {
        for &l in lg.owned_vertices() {
            self.save_vertex(lg, l);
        }
        for l in (0..lg.num_local_edges() as u32).filter(|&l| lg.owns_edge(l)) {
            self.save_edge(lg, l);
        }
    }

    /// Drops every saved row, keeping the buffers.
    pub fn clear(&mut self) {
        for rows in &mut self.atoms {
            rows.v.clear();
            rows.e.clear();
        }
    }

    /// Writes `machine`'s part of checkpoint `id` as **per-atom** files and
    /// empties the writer. Every atom in `mine` gets its file *even when
    /// empty*, so completeness counting ([`latest_complete_snapshot`] with
    /// `parts = num_atoms`) can demand every atom without special-casing
    /// atoms that own nothing.
    ///
    /// # Panics
    ///
    /// On a saved row of an atom outside `mine`. Every snapshot saves owned
    /// rows only, so such a row is a bug in this process, and dropping it
    /// would leave a checkpoint short of a row it was given.
    pub fn write(
        &mut self,
        dfs: &SimDfs,
        prefix: &str,
        id: u64,
        machine: MachineId,
        mine: &[AtomId],
    ) {
        for &atom in mine {
            let file = self.rows(atom).take_file();
            dfs.write(&atom_snap_file_name(prefix, id, atom, machine), file);
        }
        let foreign = self.atoms.iter().position(|rows| !rows.is_empty());
        assert!(
            foreign.is_none(),
            "bug in this process: checkpoint {id} saved rows of atom {}, which machine {} does not own",
            foreign.unwrap_or_default(),
            machine.0
        );
    }
}

/// Writes `rows` (typically [`SnapshotFile::capture`] of the whole
/// machine) as one machine's part of checkpoint `id`: each row goes to the
/// atom of its vertex (an edge to its target's), and
/// [`CheckpointWriter::write`] writes the files. Every row must be of an
/// atom in `my_atoms`: `write` panics on one that is not.
pub fn write_snapshot_atoms<V, E>(
    dfs: &SimDfs,
    prefix: &str,
    id: u64,
    rows: SnapshotFile,
    lg: &LocalGraph<V, E>,
    my_atoms: &[AtomId],
) {
    let mut writer = CheckpointWriter::default();
    for (v, blob) in &rows.vrows {
        let atom = lg.vertex_atom(lg.local_vertex(*v).expect("saved vertex is local"));
        writer.rows(atom).v.put(v.0, |buf| buf.put_slice(blob));
    }
    for (e, blob) in &rows.erows {
        let atom = lg.edge_atom(lg.local_edge(*e).expect("saved edge is local"));
        writer.rows(atom).e.put(e.0, |buf| buf.put_slice(blob));
    }
    writer.write(dfs, prefix, id, lg.machine(), my_atoms);
}

/// Adoption overlay: applies snapshot `id`'s rows of exactly the given
/// `atoms` (their owners' files) into `lg`. Used by a
/// survivor after it reloaded an adopted atom's journal — the checkpoint
/// rows advance the adopted vertices from their ingress-initial data to
/// the last checkpointed cut without touching any other atom's state.
/// Versions are *not* reset; adoption runs against a freshly rebuilt
/// (all-zero-version) local graph.
pub fn restore_atoms_into_local<V, E>(
    dfs: &SimDfs,
    prefix: &str,
    id: u64,
    atoms: &[AtomId],
    lg: &mut LocalGraph<V, E>,
) -> Result<(usize, usize), String>
where
    V: Codec,
    E: Codec,
{
    let wanted: std::collections::BTreeSet<u64> = atoms.iter().map(|a| a.0 as u64).collect();
    let files = dfs.list_prefix(&format!("{}/", snap_dir(prefix, id))).into_iter().filter(|name| {
        matches!(parse_snap_part(prefix, name), Some(SnapPart { atom, .. }) if wanted.contains(&atom))
    });
    apply_files(dfs, files, |file| apply_file(file, lg))
}

/// Restores snapshot `id` into `graph` (which must share the structure the
/// snapshot was taken from). Returns the number of vertex and edge records
/// applied.
///
/// Records are applied in file order, so a row saved again (an
/// asynchronous snapshot's pre-cut write-back) overrides its first copy.
pub fn restore_snapshot<V, E>(
    dfs: &SimDfs,
    prefix: &str,
    id: u64,
    graph: &mut DataGraph<V, E>,
) -> Result<(usize, usize), String>
where
    V: Codec,
    E: Codec,
{
    apply_files(dfs, snapshot_files(dfs, prefix, id)?, |file| {
        let applied = (file.vrows.len(), file.erows.len());
        for (v, blob) in file.vrows {
            *graph.vertex_data_mut(v) = decode_from(blob).ok_or("corrupt vertex blob")?;
        }
        for (e, blob) in file.erows {
            *graph.edge_data_mut(e) = decode_from(blob).ok_or("corrupt edge blob")?;
        }
        Ok(applied)
    })
}

/// Young's first-order approximation of the optimal checkpoint interval
/// (Eq. 3): `T_interval = sqrt(2 · T_checkpoint · T_mtbf)`.
///
/// `mtbf_per_machine_secs` is the per-machine mean time between failures;
/// the cluster MTBF is `mtbf_per_machine_secs / machines`.
pub fn young_interval(checkpoint_secs: f64, mtbf_per_machine_secs: f64, machines: u32) -> f64 {
    assert!(machines >= 1);
    assert!(checkpoint_secs >= 0.0 && mtbf_per_machine_secs >= 0.0);
    let cluster_mtbf = mtbf_per_machine_secs / machines as f64;
    (2.0 * checkpoint_secs * cluster_mtbf).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use graphlab_graph::GraphBuilder;

    fn graph() -> DataGraph<f64, u32> {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.add_vertex(i as f64)).collect();
        b.add_edge(v[0], v[1], 10).unwrap();
        b.add_edge(v[1], v[2], 11).unwrap();
        b.add_edge(v[2], v[3], 12).unwrap();
        b.build()
    }

    #[test]
    fn snapshot_file_roundtrip() {
        let g = graph();
        let lg = LocalGraph::single_machine(&g, None);
        let f = SnapshotFile::capture(&lg);
        assert_eq!(f.vrows.len(), 4);
        assert_eq!(f.erows.len(), 3);
        let enc = encode_to_bytes(&f);
        assert_eq!(decode_from::<SnapshotFile>(enc), Some(f));
    }

    #[test]
    fn an_inflated_row_count_is_refused_before_it_sizes_an_allocation() {
        let f = SnapshotFile { vrows: vec![(VertexId(1), Bytes::from_static(b"x"))], erows: vec![] };
        for field in 0..2 {
            // A count no file this short could hold, in place of the
            // vertex count and then of the edge count.
            let mut torn = BytesMut::new();
            if field == 1 {
                1u32.encode(&mut torn);
                f.vrows[0].0.encode(&mut torn);
                f.vrows[0].1.encode(&mut torn);
            }
            u32::MAX.encode(&mut torn);
            torn.extend_from_slice(&[0; 8]);
            assert_eq!(decode_from::<SnapshotFile>(torn.freeze()), None, "count field {field}");
        }
        // The bound is exact: the smallest rows there are still decode.
        let tight = SnapshotFile { vrows: vec![(VertexId(0), Bytes::new()); 3], erows: vec![] };
        assert_eq!(decode_from::<SnapshotFile>(encode_to_bytes(&tight)), Some(tight));
    }

    #[test]
    fn capture_restore_roundtrips_state() {
        let mut g = graph();
        // Mutate, capture, mutate again, restore: original mutation returns.
        *g.vertex_data_mut(VertexId(2)) = 99.0;
        *g.edge_data_mut(EdgeId(0)) = 77;
        let lg = LocalGraph::single_machine(&g, None);
        let dfs = SimDfs::new();
        dfs.write(
            &atom_snap_file_name("ckpt", 0, AtomId(0), MachineId(0)),
            encode_to_bytes(&SnapshotFile::capture(&lg)),
        );
        assert!(snapshot_exists(&dfs, "ckpt", 0));
        *g.vertex_data_mut(VertexId(2)) = -1.0;
        *g.edge_data_mut(EdgeId(0)) = 0;
        let (nv, ne) = restore_snapshot(&dfs, "ckpt", 0, &mut g).unwrap();
        assert_eq!((nv, ne), (4, 3));
        assert_eq!(*g.vertex_data(VertexId(2)), 99.0);
        assert_eq!(*g.edge_data(EdgeId(0)), 77);
    }

    #[test]
    fn missing_snapshot_errors() {
        let mut g = graph();
        let dfs = SimDfs::new();
        assert!(restore_snapshot(&dfs, "ckpt", 3, &mut g).is_err());
        assert!(!snapshot_exists(&dfs, "ckpt", 3));
    }

    #[test]
    fn youngs_interval_matches_paper_example() {
        // §4.3: 64 machines, per-machine MTBF 1 year, checkpoint 2 min
        // → interval ≈ 3 hours.
        let t = young_interval(120.0, 365.25 * 24.0 * 3600.0, 64);
        let hours = t / 3600.0;
        assert!((2.5..3.5).contains(&hours), "got {hours} hours");
    }

    #[test]
    fn interval_grows_with_mtbf() {
        let a = young_interval(60.0, 1e6, 8);
        let b = young_interval(60.0, 4e6, 8);
        assert!((b / a - 2.0).abs() < 1e-9, "sqrt scaling");
    }

    #[test]
    fn young_interval_known_inputs() {
        // sqrt(2 * 2 s * (100 s / 1 machine)) = sqrt(400) = 20 s.
        assert!((young_interval(2.0, 100.0, 1) - 20.0).abs() < 1e-12);
        // 4 machines quarter the cluster MTBF: sqrt(2*2*25) = 10 s.
        assert!((young_interval(2.0, 100.0, 4) - 10.0).abs() < 1e-12);
        // Zero checkpoint cost => checkpoint continuously.
        assert_eq!(young_interval(0.0, 1e9, 16), 0.0);
    }

    #[test]
    fn young_interval_is_monotone_in_mtbf_and_checkpoint_cost() {
        let mut last = 0.0;
        for mtbf in [1e2, 1e3, 1e4, 1e5, 1e6, 1e7] {
            let t = young_interval(60.0, mtbf, 8);
            assert!(t > last, "interval must grow with MTBF ({mtbf})");
            last = t;
        }
        let mut last = 0.0;
        for ck in [1.0, 10.0, 100.0, 1000.0] {
            let t = young_interval(ck, 1e6, 8);
            assert!(t > last, "interval must grow with checkpoint cost ({ck})");
            last = t;
        }
        // ... and shrink as the cluster grows (more machines, more failures).
        assert!(young_interval(60.0, 1e6, 64) < young_interval(60.0, 1e6, 8));
    }

    #[test]
    fn latest_complete_snapshot_ignores_partial_cuts() {
        let dfs = SimDfs::new();
        let blob = || encode_to_bytes(&SnapshotFile::default());
        // Snapshot 0: complete over 3 atoms, one per machine.
        let part = |id, m| atom_snap_file_name("ckpt", id, AtomId(m), MachineId(m as u16));
        for m in 0..3 {
            dfs.write(&part(0, m), blob());
        }
        // Snapshot 1: torn (machine 2 died mid-write).
        for m in 0..2 {
            dfs.write(&part(1, m), blob());
        }
        assert_eq!(latest_complete_snapshot(&dfs, "ckpt", 3), Some(0));
        // Completing snapshot 1 moves the answer forward.
        dfs.write(&part(1, 2), blob());
        assert_eq!(latest_complete_snapshot(&dfs, "ckpt", 3), Some(1));
        // No checkpoint at all.
        assert_eq!(latest_complete_snapshot(&dfs, "none", 3), None);
        // A single-machine "cluster" accepts its own lone file.
        assert_eq!(latest_complete_snapshot(&dfs, "ckpt", 1), Some(1));
    }

    #[test]
    fn prune_deletes_only_newer_snapshots() {
        let dfs = SimDfs::new();
        let blob = || encode_to_bytes(&SnapshotFile::default());
        for id in 0..3u64 {
            for m in 0..2 {
                dfs.write(&atom_snap_file_name("ckpt", id, AtomId(m), MachineId(0)), blob());
            }
        }
        assert_eq!(prune_snapshots_after(&dfs, "ckpt", Some(0)), 4);
        assert!(snapshot_exists(&dfs, "ckpt", 0));
        assert!(!snapshot_exists(&dfs, "ckpt", 1));
        assert!(!snapshot_exists(&dfs, "ckpt", 2));
        assert_eq!(prune_snapshots_after(&dfs, "ckpt", None), 2);
        assert!(!snapshot_exists(&dfs, "ckpt", 0));
    }

    #[test]
    fn snapshot_ids_compare_numerically_across_padding_widths() {
        // Regression (9999 → 10000): the historical 4-digit padding emits
        // id 10000 unpadded, and lexicographically "snap_10000" sorts
        // *before* "snap_9999" — a string-ordered latest/prune would pick
        // the wrong snapshot. Hand-written mixed-width names pin that every
        // comparison is numeric, whatever width a file was written at.
        let dfs = SimDfs::new();
        let blob = || encode_to_bytes(&SnapshotFile::default());
        dfs.write("ckpt/snap_9999/atom_0000_m0000", blob());
        dfs.write("ckpt/snap_10000/atom_0000_m0000", blob());
        assert_eq!(latest_complete_snapshot(&dfs, "ckpt", 1), Some(10000));
        assert_eq!(prune_snapshots_after(&dfs, "ckpt", Some(9999)), 1);
        assert!(dfs.exists("ckpt/snap_9999/atom_0000_m0000"), "9999 kept");
        assert!(!dfs.exists("ckpt/snap_10000/atom_0000_m0000"), "10000 pruned");
    }

    #[test]
    fn snapshot_naming_survives_the_padding_boundary() {
        // Same property through the real naming fns, crossing the current
        // 6-digit width at 999999 → 1000000.
        let dfs = SimDfs::new();
        let blob = || encode_to_bytes(&SnapshotFile::default());
        for id in [999_999, 1_000_000] {
            dfs.write(&atom_snap_file_name("ckpt", id, AtomId(0), MachineId(0)), blob());
        }
        assert!(snapshot_exists(&dfs, "ckpt", 1_000_000));
        assert_eq!(latest_complete_snapshot(&dfs, "ckpt", 1), Some(1_000_000));
        assert_eq!(prune_snapshots_after(&dfs, "ckpt", Some(999_999)), 1);
        assert_eq!(latest_complete_snapshot(&dfs, "ckpt", 1), Some(999_999));
    }

    #[test]
    fn per_atom_completeness_counts_distinct_atoms() {
        let dfs = SimDfs::new();
        let blob = || encode_to_bytes(&SnapshotFile::default());
        // 4 atoms over 2 machines; machine ids never alias atom ids.
        for (atom, m) in [(0u32, 0u16), (1, 0), (2, 1)] {
            dfs.write(&atom_snap_file_name("ckpt", 0, AtomId(atom), MachineId(m)), blob());
        }
        assert_eq!(latest_complete_snapshot(&dfs, "ckpt", 4), None, "atom 3 missing");
        // A file of another name for the missing atom (as non-owners once
        // wrote foreign rows) must NOT complete the snapshot: only the
        // owner's write proves the atom finished its cut.
        dfs.write("ckpt/snap_000000/ghost_000003_m000000", blob());
        assert_eq!(latest_complete_snapshot(&dfs, "ckpt", 4), None, "ghost file spoofed an atom");
        dfs.write(&atom_snap_file_name("ckpt", 0, AtomId(3), MachineId(1)), blob());
        assert_eq!(latest_complete_snapshot(&dfs, "ckpt", 4), Some(0));
        // A snapshot covering only one atom (owner file + a duplicate
        // owner-side write) is still incomplete.
        dfs.write(&atom_snap_file_name("ckpt", 1, AtomId(3), MachineId(0)), blob());
        dfs.write(&atom_snap_file_name("ckpt", 1, AtomId(3), MachineId(1)), blob());
        assert_eq!(latest_complete_snapshot(&dfs, "ckpt", 4), Some(0), "id 1 covers one atom");
    }

    #[test]
    fn write_and_adopt_per_atom_checkpoints() {
        use graphlab_atoms::{build_atoms, load_machine_part, write_atoms, VertexPartition};

        // A 12-ring cut into 4 atoms on 2 machines.
        let mut b = GraphBuilder::new();
        let vs: Vec<_> = (0..12).map(|i| b.add_vertex(i as f64)).collect();
        for i in 0..12 {
            b.add_edge(vs[i], vs[(i + 1) % 12], i as u32).unwrap();
        }
        let g = b.build();
        let part = VertexPartition::random_hash(12, 4, 7);
        let dfs = SimDfs::new();
        let (atoms, index) = build_atoms(&g, &part, "ring");
        write_atoms(&dfs, "ring", &atoms, &index);
        let placement = graphlab_atoms::Placement::compute(&index, 2);

        // Both machines mutate their owned vertices, then checkpoint
        // per-atom.
        let mut lgs: Vec<LocalGraph<f64, u32>> = (0..2)
            .map(|m| {
                let init =
                    load_machine_part(&dfs, &index, &placement, MachineId(m)).unwrap();
                LocalGraph::from_init(init, None)
            })
            .collect();
        for lg in &mut lgs {
            for &l in &lg.owned_vertices().to_vec() {
                *lg.vertex_data_mut(l) += 100.0;
            }
        }
        for lg in &lgs {
            write_snapshot_atoms(
                &dfs,
                "ckpt",
                0,
                SnapshotFile::capture(lg),
                lg,
                &placement.atoms_of(lg.machine()),
            );
        }
        assert_eq!(latest_complete_snapshot(&dfs, "ckpt", 4), Some(0));

        // Machine 1 dies; machine 0 adopts its atoms: rebuild from the
        // adopted placement's journals, then overlay only the adopted
        // atoms' checkpoint rows.
        let adopted_placement = placement.adopt(&index, &[false, true]);
        let adopted_atoms = placement.atoms_of(MachineId(1));
        let init = load_machine_part(&dfs, &index, &adopted_placement, MachineId(0)).unwrap();
        let mut lg: LocalGraph<f64, u32> = LocalGraph::from_init(init, None);
        // Survivor re-applies its own live state (untouched by adoption).
        for &l in &lg.owned_vertices().to_vec() {
            if placement.machine_of(lg.vertex_atom(l)) == MachineId(0) {
                *lg.vertex_data_mut(l) += 100.0;
            }
        }
        let (nv, _) = restore_atoms_into_local(&dfs, "ckpt", 0, &adopted_atoms, &mut lg).unwrap();
        assert!(nv > 0, "adopted atoms had checkpoint rows");
        // Every vertex now carries the checkpointed value, whichever side
        // it was adopted from.
        for &l in lg.owned_vertices() {
            let want = lg.vertex_gvid(l).0 as f64 + 100.0;
            assert_eq!(*lg.vertex_data(l), want, "vertex {}", lg.vertex_gvid(l));
        }
    }

    #[test]
    fn restore_into_local_applies_rows_and_resets_versions() {
        let mut g = graph();
        let mut lg = LocalGraph::single_machine(&g, None);
        *lg.vertex_data_mut(2) = 42.0;
        lg.bump_vertex_version(2);
        lg.bump_edge_version(0);
        let dfs = SimDfs::new();
        dfs.write(
            &atom_snap_file_name("ckpt", 0, AtomId(0), MachineId(0)),
            encode_to_bytes(&SnapshotFile::capture(&lg)),
        );
        // Wreck the live state, then roll back.
        *lg.vertex_data_mut(2) = -1.0;
        let (nv, ne) = restore_into_local(&dfs, "ckpt", 0, &mut lg).unwrap();
        assert_eq!((nv, ne), (4, 3));
        assert_eq!(*lg.vertex_data(2), 42.0);
        assert_eq!(lg.vertex_version(2), 0, "versions reset to the ground state");
        assert_eq!(lg.edge_version(0), 0);
        // Missing snapshot errors cleanly.
        assert!(restore_into_local(&dfs, "ckpt", 9, &mut lg).is_err());
        let _ = g.vertex_data_mut(VertexId(0));
    }
}
