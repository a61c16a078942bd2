//! Allocation regression test for the message path: once buffers are warm,
//! a message encoded in place into its `Batcher` envelope, shipped, unpacked
//! and read in place costs **no** heap allocation — only the envelope does,
//! a small fixed number of times; and a length prefix a peer inflates sizes
//! no allocation beyond the payload behind it. (Its own test binary: a
//! `#[global_allocator]` is per binary.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::Bytes;
use graphlab_graph::MachineId;
use graphlab_net::codec::{get_id_deltas, get_uvarint, put_uvarint};
use graphlab_net::{BatchPolicy, Batcher, Codec, LatencyModel, SimNet};

thread_local! {
    /// Allocations made by the current thread (tests run in parallel).
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes the current thread asked for, a grown buffer's new size included.
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Books one allocation of `size` bytes.
fn count(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size));
}

struct CountingAlloc;

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain const-initialised
// thread-local `Cell`s that themselves never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: callers uphold `GlobalAlloc::alloc`'s contract (non-zero
    // size), which is exactly what `System.alloc` requires.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
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
        count(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

const K_REQ: u16 = 20;
/// Messages per envelope.
const MSGS: u64 = graphlab_net::batch::BATCH_MSGS as u64;
/// What one envelope may allocate: the wire body leaving the sender (its
/// buffer and the `Arc` sharing it) and, when it was compressed, the
/// decompressed envelope at the receiver (buffer and `Arc` again). The
/// sub-messages are views of that one buffer.
const PER_ENVELOPE: usize = 4;

/// Sends one envelope of lock-request-sized messages (six varint fields,
/// ~10 bytes) machine 0 → 1, receives it and reads every field back in
/// place; returns the allocations all of that made.
fn envelope_round(tx: &mut Batcher, rx: &mut Batcher, round: u64) -> usize {
    // (Every round's messages are as long as the warm-up round's.)
    let fields = |i: u64| [1, 1_000 + round * MSGS + i, 4_000 + 31 * i, 2, 0, 1];
    let before = ALLOCS.with(Cell::get);
    for i in 0..MSGS {
        tx.send_with(MachineId(1), K_REQ, |buf| {
            for f in fields(i) {
                put_uvarint(buf, f);
            }
        });
    }
    tx.flush_all();
    for i in 0..MSGS {
        let env = rx.try_recv().expect("the envelope was delivered");
        assert_eq!(env.kind, K_REQ);
        let mut p: &[u8] = &env.payload;
        for f in fields(i) {
            assert_eq!(get_uvarint(&mut p), Some(f));
        }
        assert!(p.is_empty());
    }
    assert!(rx.try_recv().is_err());
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_warm_message_path_allocates_per_envelope_not_per_message() {
    for policy in [BatchPolicy::default(), BatchPolicy::Uncompressed] {
        let (_net, mut eps) = SimNet::new(2, LatencyModel::ZERO);
        let mut rx = Batcher::new(eps.pop().expect("two endpoints"), policy);
        let mut tx = Batcher::new(eps.pop().expect("two endpoints"), policy);
        // Warm-up: queue buffer, LZSS output, inbox and unpack queue grow.
        let cold = envelope_round(&mut tx, &mut rx, 0);
        assert!(cold > PER_ENVELOPE, "the counter is live: the cold round made {cold} allocations");
        let compress = policy == BatchPolicy::Compressed;
        assert_eq!(tx.counters().compressed, u64::from(compress), "corpus compresses");
        for round in 1..=4 {
            let n = envelope_round(&mut tx, &mut rx, round);
            assert!(
                n <= PER_ENVELOPE,
                "round {round} ({policy:?}): {n} allocations for one envelope of {MSGS} \
                 messages; the path may allocate {PER_ENVELOPE} per envelope and none per message"
            );
        }
        assert_eq!(tx.counters().batches, 5);
    }
}

/// What `f` returns, and the bytes it asked the allocator for.
fn bytes_requested<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

#[test]
fn an_inflated_length_prefix_reserves_no_more_than_its_payload() {
    // Four bytes, a varint 2^20 and one more, that claim 2^20 elements:
    // rows of the widest kind the sync rounds decode, `(handle, version,
    // blob)` (tens of MB reserved before the first row fails, were the claim
    // believed), and gap-encoded ids.
    type Row = (u32, u64, Bytes);
    let hostile = Bytes::from_static(&[0x80, 0x80, 0x40, 0]);
    let (mut rows, mut ids) = (hostile.clone(), hostile.clone());
    let (decoded, asked) = bytes_requested(|| Vec::<Row>::decode(&mut rows));
    assert_eq!(decoded, None);
    assert!(asked <= hostile.len() * size_of::<Row>(), "{asked} bytes asked for rows");
    let (decoded, asked) = bytes_requested(|| get_id_deltas(&mut ids));
    assert_eq!(decoded, None);
    assert!(asked <= hostile.len() * size_of::<u32>(), "{asked} bytes asked for ids");
}
