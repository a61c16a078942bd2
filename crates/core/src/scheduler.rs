//! Per-machine vertex schedulers maintaining the task set `T` (§3.3).
//!
//! "The only requirement imposed by the GraphLab abstraction is that all
//! vertices in T are eventually executed"; duplicates are ignored. This
//! paper relaxes the original shared-memory ordering guarantees to enable
//! efficient distributed FIFO and priority scheduling, which is exactly
//! what we provide:
//!
//! - [`SchedulerKind::Fifo`] — queue order.
//! - [`SchedulerKind::Priority`] — *approximate* priority: 64 power-of-two
//!   buckets popped hottest-first (the C++ implementation's approximate
//!   priority queue; §5.2 uses it for residual BP). Re-scheduling an
//!   enqueued vertex with a higher priority promotes it.
//!
//! Both are one queue discipline. FIFO is the bucket queue with every
//! priority in bucket 0: one bucket keeps insertion order, nothing is ever
//! promoted and so no entry goes stale.
//!
//! The queue is a **lazy-delete bucket queue**: promotion pushes
//! a second entry into the hotter bucket and the stale one is skipped at
//! pop time, and a 64-bit occupancy mask over the buckets makes finding
//! the hottest non-empty bucket one `leading_zeros` instead of a scan —
//! the pop hot path is O(1) + amortised stale-skips, where the previous
//! implementation walked all 64 buckets top-down on every pop (the
//! scheduler churn visible in high-fan-in profiles; see ROADMAP).
//!
//! Vertices are tracked by *local* index; the engine translates remote
//! schedule requests before insertion.

use std::collections::VecDeque;

/// Scheduler flavour.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SchedulerKind {
    /// First-in first-out.
    #[default]
    Fifo,
    /// Approximate priority (bucketed, highest first). An application's
    /// priority should estimate how much running the task moves the
    /// result *at the scheduled vertex*: its residual, in the units the
    /// convergence test uses — PageRank's relative change of the target's
    /// rank, residual BP's message change. A priority that measures the
    /// scheduling vertex instead keeps re-running whatever is large (a
    /// hub), and can take more updates than FIFO.
    Priority,
}

const NUM_BUCKETS: usize = 64;
/// Bucket for a priority: log2-spaced, clamped. Higher bucket = hotter.
#[inline]
fn bucket_of(priority: f64) -> u8 {
    if priority.is_nan() || priority <= 0.0 {
        return 0;
    }
    if priority.is_infinite() {
        return (NUM_BUCKETS - 1) as u8;
    }
    // log2(priority) in [-32, 31] -> bucket [0, 63]
    let l = priority.log2().floor();
    (l.clamp(-32.0, 31.0) as i32 + 32) as u8
}

/// A per-machine scheduler over `n` local vertices.
#[derive(Debug)]
pub struct Scheduler {
    kind: SchedulerKind,
    /// Dedup flag: vertex currently scheduled.
    queued: Vec<bool>,
    /// Current bucket of a queued vertex (detects stale bucket entries
    /// after promotion).
    bucket: Vec<u8>,
    buckets: Vec<VecDeque<u32>>,
    /// Occupancy mask: bit `b` set ⇔ `buckets[b]` is non-empty (stale
    /// entries count — they are discovered and discarded at pop time).
    occupied: u64,
    len: usize,
}

impl Scheduler {
    /// Creates a scheduler for `n` local vertices.
    pub fn new(kind: SchedulerKind, n: usize) -> Self {
        Scheduler {
            kind,
            queued: vec![false; n],
            bucket: vec![0; n],
            buckets: (0..NUM_BUCKETS).map(|_| VecDeque::new()).collect(),
            occupied: 0,
            len: 0,
        }
    }

    /// Scheduler flavour.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Number of distinct scheduled vertices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the task set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds local vertex `v` with `priority`. Duplicates are ignored
    /// (priority scheduler: promoted if the new priority is hotter).
    /// Returns true if the vertex was newly inserted.
    pub fn add(&mut self, v: u32, priority: f64) -> bool {
        let vi = v as usize;
        let b = match self.kind {
            SchedulerKind::Fifo => 0,
            SchedulerKind::Priority => bucket_of(priority),
        };
        let fresh = !self.queued[vi];
        if fresh {
            self.queued[vi] = true;
            self.len += 1;
        } else if b <= self.bucket[vi] {
            return false;
        }
        // A fresh entry, or a promotion: the entry in the colder bucket
        // goes stale and is skipped at pop time via the bucket check.
        self.bucket[vi] = b;
        self.buckets[b as usize].push_back(v);
        self.occupied |= 1 << b;
        fresh
    }

    /// Removes and returns the next vertex, or `None` when empty.
    pub fn pop(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        // Hottest occupied bucket in O(1) via the occupancy mask; stale
        // (promoted/popped) entries are lazily discarded.
        while self.occupied != 0 {
            let b = 63 - self.occupied.leading_zeros() as usize;
            while let Some(v) = self.buckets[b].pop_front() {
                let vi = v as usize;
                if self.buckets[b].is_empty() {
                    self.occupied &= !(1 << b);
                }
                if self.queued[vi] && self.bucket[vi] == b as u8 {
                    self.queued[vi] = false;
                    self.len -= 1;
                    return Some(v);
                }
                // stale entry (promoted or already popped): skip
            }
            self.occupied &= !(1 << b);
        }
        unreachable!("len > 0 but no live entry found");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_dedup() {
        let mut s = Scheduler::new(SchedulerKind::Fifo, 5);
        assert!(s.add(3, 1.0));
        assert!(s.add(1, 1.0));
        assert!(!s.add(3, 9.0), "duplicate ignored");
        assert_eq!(s.len(), 2);
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn reinsert_after_pop_allowed() {
        let mut s = Scheduler::new(SchedulerKind::Fifo, 2);
        s.add(0, 1.0);
        assert_eq!(s.pop(), Some(0));
        assert!(s.add(0, 1.0));
        assert_eq!(s.pop(), Some(0));
    }

    #[test]
    fn priority_pops_hottest_first() {
        let mut s = Scheduler::new(SchedulerKind::Priority, 10);
        s.add(1, 0.001);
        s.add(2, 100.0);
        s.add(3, 1.0);
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(1));
    }

    #[test]
    fn priority_promotion() {
        let mut s = Scheduler::new(SchedulerKind::Priority, 10);
        s.add(1, 0.001);
        s.add(2, 1.0);
        // Promote 1 above 2.
        assert!(!s.add(1, 1000.0));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), None);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn priority_demotion_is_ignored() {
        let mut s = Scheduler::new(SchedulerKind::Priority, 4);
        s.add(0, 100.0);
        s.add(1, 50.0);
        s.add(0, 0.0001); // lower: ignored
        assert_eq!(s.pop(), Some(0));
        assert_eq!(s.pop(), Some(1));
    }

    #[test]
    fn bucket_function_monotone() {
        assert!(bucket_of(2.0) > bucket_of(1.0));
        assert!(bucket_of(1.0) > bucket_of(0.25));
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(f64::NAN), 0);
        assert_eq!(bucket_of(f64::INFINITY), 63);
        assert_eq!(bucket_of(1e300), 63);
        assert_eq!(bucket_of(1e-300), 0);
    }

    #[test]
    fn zero_priority_still_schedulable() {
        let mut s = Scheduler::new(SchedulerKind::Priority, 2);
        s.add(0, 0.0);
        assert_eq!(s.pop(), Some(0));
    }

    // ---- contract pins (ISSUE 3 satellite): the exact add/pop semantics a
    // pairing-heap / lazy-delete replacement must preserve ----

    #[test]
    fn fifo_duplicate_add_keeps_original_position() {
        let mut s = Scheduler::new(SchedulerKind::Fifo, 4);
        s.add(0, 1.0);
        s.add(1, 1.0);
        assert!(!s.add(0, 1.0), "re-add of a queued vertex is a no-op");
        assert_eq!(s.len(), 2);
        // Vertex 0 pops first: the duplicate did not move it to the back.
        assert_eq!(s.pop(), Some(0));
        assert_eq!(s.pop(), Some(1));
    }

    #[test]
    fn priority_same_bucket_is_fifo() {
        let mut s = Scheduler::new(SchedulerKind::Priority, 8);
        // 1.0 and 1.5 land in the same power-of-two bucket: insertion order
        // breaks the tie.
        s.add(3, 1.0);
        s.add(5, 1.5);
        s.add(1, 1.2);
        assert_eq!(s.pop(), Some(3));
        assert_eq!(s.pop(), Some(5));
        assert_eq!(s.pop(), Some(1));
    }

    #[test]
    fn priority_same_bucket_readd_does_not_promote() {
        let mut s = Scheduler::new(SchedulerKind::Priority, 4);
        s.add(0, 1.0);
        s.add(1, 1.0);
        // 1.9 is hotter than 1.0 but stays in the same log2 bucket: the
        // approximate priority queue must not reorder.
        assert!(!s.add(1, 1.9));
        assert_eq!(s.pop(), Some(0));
        assert_eq!(s.pop(), Some(1));
    }

    #[test]
    fn priority_promotion_leaves_no_ghost_entry() {
        let mut s = Scheduler::new(SchedulerKind::Priority, 4);
        s.add(0, 1.0);
        assert!(!s.add(0, 1000.0), "promotion is not an insertion");
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop(), Some(0));
        // The stale low-bucket entry must not resurface as a second pop.
        assert_eq!(s.pop(), None);
        assert_eq!(s.len(), 0);
        // Re-adding afterwards works and pops exactly once again.
        assert!(s.add(0, 2.0));
        assert_eq!(s.pop(), Some(0));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn pop_then_readd_cycles_indefinitely() {
        for kind in [SchedulerKind::Fifo, SchedulerKind::Priority] {
            let mut s = Scheduler::new(kind, 3);
            for round in 0..5 {
                assert!(s.add(2, 1.0), "round {round}: fresh insert after pop ({kind:?})");
                assert_eq!(s.len(), 1);
                assert_eq!(s.pop(), Some(2));
                assert!(s.is_empty());
            }
        }
    }

    #[test]
    fn interleaved_model_check_all_kinds() {
        // Model: a scheduler is exactly a set with kind-specific pop order;
        // add returns whether the vertex was newly inserted. Drive every
        // kind through a deterministic interleaving of adds and pops and
        // check set semantics (dedup, len, total pops) against the model.
        for kind in [SchedulerKind::Fifo, SchedulerKind::Priority] {
            let n = 16u32;
            let mut s = Scheduler::new(kind, n as usize);
            let mut queued = vec![false; n as usize];
            let mut popped = 0usize;
            let mut x = 0x5EEDu64;
            for step in 0..500 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if !x.is_multiple_of(3) {
                    let v = (x >> 8) as u32 % n;
                    let prio = ((x >> 16) % 1000) as f64 / 10.0;
                    let fresh = s.add(v, prio);
                    assert_eq!(fresh, !queued[v as usize], "step {step} ({kind:?})");
                    queued[v as usize] = true;
                } else if let Some(v) = s.pop() {
                    assert!(queued[v as usize], "popped unqueued vertex ({kind:?})");
                    queued[v as usize] = false;
                    popped += 1;
                }
                assert_eq!(s.len(), queued.iter().filter(|&&q| q).count(), "({kind:?})");
                assert_eq!(s.is_empty(), queued.iter().all(|&q| !q));
            }
            // Drain: every queued vertex pops exactly once.
            while let Some(v) = s.pop() {
                assert!(queued[v as usize]);
                queued[v as usize] = false;
                popped += 1;
            }
            assert!(queued.iter().all(|&q| !q), "({kind:?})");
            assert!(popped > 0);
        }
    }

    #[test]
    fn occupancy_mask_tracks_buckets() {
        let mut s = Scheduler::new(SchedulerKind::Priority, 8);
        assert_eq!(s.occupied, 0);
        s.add(0, 1.0); // bucket 32
        s.add(1, 4.0); // bucket 34
        assert_eq!(s.occupied, (1 << 32) | (1 << 34));
        // Promotion leaves a stale entry in bucket 32 and sets bucket 40.
        s.add(0, 256.0);
        assert_eq!(s.occupied, (1 << 32) | (1 << 34) | (1 << 40));
        assert_eq!(s.pop(), Some(0));
        assert_eq!(s.pop(), Some(1));
        assert_eq!(s.pop(), None);
        // Lazy delete: vertex 0's stale bucket-32 entry may outlive the
        // drain (len hit 0 before it was visited) — it must be skipped,
        // not resurfaced, once live work arrives below it.
        s.add(2, 0.25); // bucket 30, colder than the stale entry
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), None);
        assert_eq!(s.occupied & !(1 << 32), 0, "only the stale bucket may stay flagged");
    }

    #[test]
    fn stress_priority_consistency() {
        let mut s = Scheduler::new(SchedulerKind::Priority, 100);
        let mut expected = 0usize;
        for i in 0..100u32 {
            if s.add(i % 50, (i % 7) as f64 + 0.5) {
                expected += 1;
            }
        }
        let mut popped = 0;
        while s.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, expected);
        assert_eq!(s.len(), 0);
    }
}
