//! Allocation regression test for the checkpoint write path: once its
//! buffers are warm, a [`CheckpointWriter`] saves a row without touching the
//! heap — each row is encoded in place into its atom's body — and writing
//! costs a small fixed number of allocations per file, never one per row.
//! (Its own test binary: a `#[global_allocator]` is per binary.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use graphlab_atoms::{build_atoms, load_machine_part, write_atoms, Placement, SimDfs, VertexPartition};
use graphlab_core::snapshot::CheckpointWriter;
use graphlab_core::LocalGraph;
use graphlab_graph::{AtomId, GraphBuilder, MachineId, VertexId};

thread_local! {
    /// Allocations made by the current thread (tests run in parallel).
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain const-initialised
// thread-local `Cell` that itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract (non-zero
    // size), which is exactly what `System.alloc` requires.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: callers uphold `GlobalAlloc::dealloc`'s contract: `ptr` was
    // returned by `alloc` above, i.e. by `System`, for `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: callers uphold `GlobalAlloc::realloc`'s contract, which is
    // `System.realloc`'s; a buffer that grows counts as an allocation.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// What writing one file may allocate, measured at nine: five for its name
/// (the snapshot directory's, then the name's as it grows), the file's
/// buffer and the `Arc` sharing it, the DFS's copy of the name and its map
/// node; and the map's inner nodes now and then.
const PER_FILE: usize = 10;

/// The allocations `f` made on this thread.
fn allocs(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_warm_checkpoint_allocates_per_file_not_per_row() {
    // A 6 000-vertex ring with chords, cut into 16 atoms on 2 machines.
    let n = 6_000u32;
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_vertex(i as f64);
    }
    for i in 0..n {
        b.add_edge(VertexId(i), VertexId((i + 1) % n), 1.0).unwrap();
        b.add_edge(VertexId(i), VertexId((i * 7 + 3) % n), 0.5).unwrap();
    }
    let g = b.build();
    let (atoms, index) = build_atoms(&g, &VertexPartition::random_hash(n as usize, 16, 7), "g");
    let dfs = SimDfs::new();
    write_atoms(&dfs, "g", &atoms, &index);
    let placement = Placement::compute(&index, 2);
    let lg: LocalGraph<f64, f64> =
        LocalGraph::from_init(load_machine_part(&dfs, &index, &placement, MachineId(0)).unwrap(), None);
    let mine: Vec<AtomId> = placement.atoms_of(lg.machine());

    // Every owned row, as every snapshot saves them.
    let save = |w: &mut CheckpointWriter| w.save_owned(&lg);
    let owned_edges = (0..lg.num_local_edges() as u32).filter(|&l| lg.owns_edge(l)).count();
    let rows = lg.owned_vertices().len() + owned_edges;
    assert!(rows >= 5_000, "{rows} rows");

    let mut w = CheckpointWriter::default();
    let cold = allocs(|| {
        save(&mut w);
        w.write(&dfs, "ckpt", 0, lg.machine(), &mine);
    });
    assert!(cold > rows / 64, "the counter is live: the cold checkpoint made {cold} allocations");
    for id in 1..=3 {
        let saving = allocs(|| save(&mut w));
        assert_eq!(saving, 0, "checkpoint {id}: saving {rows} rows into a warm writer allocated");
        let writing = allocs(|| w.write(&dfs, "ckpt", id, lg.machine(), &mine));
        let files = dfs.list_prefix(&format!("ckpt/snap_{id:06}/")).len();
        assert_eq!(files, mine.len(), "checkpoint {id}: one file per owned atom");
        assert!(
            writing <= PER_FILE * files,
            "checkpoint {id}: {writing} allocations for {files} files of {rows} rows; \
             the write may allocate {PER_FILE} per file and none per row"
        );
    }
}

