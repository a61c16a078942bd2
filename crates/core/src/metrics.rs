//! Engine instrumentation backing the paper's evaluation figures.
//!
//! Every machine measures itself, whatever the configuration: it counts
//! its updates per vertex (Fig. 1(b)) and samples its cumulative update
//! count against the clock (Fig. 4), and hands both over at finish; the
//! driver sums the counts and merges the samples with `fold_timeline`
//! into [`EngineMetrics`].
//!
//! [`LiveCounters`] is the exception: a shared atomic that bypasses the
//! share-nothing message rule (the real system would aggregate post-hoc
//! from per-machine logs) and holds only the machines of this process —
//! one, under `Transport::Tcp`. Nothing is measured through it, and the
//! masters' halt, sync and snapshot decisions do not read it (both engines
//! count updates from the messages they get). What still reads it is where
//! no message can be waited for, each a per-machine approximation over
//! TCP: the update cap — the `max_updates` break in the middle of a
//! chromatic colour-step (the cycle end decides the halt) and the same cap
//! in the locking engine's `pump` — and the one-shot
//! `EngineConfig::straggler` trigger.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live counters shared by all machine threads of one engine run.
#[derive(Debug)]
pub struct LiveCounters {
    /// Total update-function executions.
    pub updates: AtomicU64,
}

impl LiveCounters {
    /// Fresh counters.
    pub fn new() -> Arc<Self> {
        Arc::new(LiveCounters { updates: AtomicU64::new(0) })
    }
}

/// The grid of [`EngineMetrics::updates_timeline`].
const TIMELINE_STEP: Duration = Duration::from_millis(5);

/// Folds the machines' timelines — each its `(when, cumulative updates)`
/// samples in time order — into the cluster's `(seconds since start,
/// cumulative updates)` series behind Fig. 4: a point every
/// [`TIMELINE_STEP`] from `start` and a last one at `end`, each the sum of
/// every machine's latest sample at or before it (0 for a machine with
/// none yet).
pub(crate) fn fold_timeline(
    start: Instant,
    end: Instant,
    machines: &[Vec<(Instant, u64)>],
) -> Vec<(f64, u64)> {
    let mut next = vec![0usize; machines.len()];
    let mut latest = vec![0u64; machines.len()];
    let mut series = Vec::new();
    let mut t = start;
    loop {
        for (i, samples) in machines.iter().enumerate() {
            while let Some(&(_, n)) = samples.get(next[i]).filter(|&&(when, _)| when <= t) {
                latest[i] = n;
                next[i] += 1;
            }
        }
        series.push(((t - start).as_secs_f64(), latest.iter().sum()));
        if t >= end {
            return series;
        }
        t = (t + TIMELINE_STEP).min(end);
    }
}

/// Wall-clock breakdown of one machine's run: where its time actually
/// went. Measured at the transport seam and the driver, not inside the
/// engines — `net_wait` is time blocked in `recv`/`recv_timeout`, `setup`
/// is graph partitioning/loading, and `compute` is the remainder of the
/// machine's wall clock. Meaningful for both backends, but only TCP runs
/// put real network latency in `net_wait`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Ingress: loading this machine's part of the graph. `LocalGraph::from_init`
    /// runs after it, inside the engine, so its cost counts in `compute`.
    pub setup: Duration,
    /// Engine time not spent blocked on the network.
    pub compute: Duration,
    /// Time blocked in `recv`/`recv_timeout` at the transport seam.
    pub net_wait: Duration,
}

impl PhaseTimes {
    /// Total wall clock of the machine's run.
    pub fn total(&self) -> Duration {
        self.setup + self.compute + self.net_wait
    }
}

/// Event counts on the locking engine's hot path (counters, not timers:
/// reading the clock there would cost more than the work it times). The
/// ratios explain a run: `lock_acquires / updates` is the per-update
/// locking work, `pipeline_occupancy / loop_iters` the mean number of
/// scopes in flight, `updates / loop_iters` the work done per wake-up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotCounters {
    /// Normal-phase passes of the machine loop.
    pub loop_iters: u64,
    /// Receives the loop was willing to block in (nothing runnable).
    pub blocking_recvs: u64,
    /// Lock acquisitions attempted (granted at once or parked).
    pub lock_acquires: u64,
    /// Acquisitions that parked behind a conflicting holder or waiter.
    pub lock_parks: u64,
    /// Outstanding scopes summed over loop passes.
    pub pipeline_occupancy: u64,
}

impl HotCounters {
    /// Adds another machine's counts.
    pub fn add(&mut self, other: &HotCounters) {
        self.loop_iters += other.loop_iters;
        self.blocking_recvs += other.blocking_recvs;
        self.lock_acquires += other.lock_acquires;
        self.lock_parks += other.lock_parks;
        self.pipeline_occupancy += other.pipeline_occupancy;
    }
}

/// Final metrics of an engine run.
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    /// Total update-function executions.
    pub updates: u64,
    /// Wall-clock runtime (including snapshotting, excluding ingress).
    pub runtime: Duration,
    /// Per-vertex update counts indexed by global vertex id, always filled
    /// (one entry per vertex; they sum to `updates`) — the histogram source
    /// of Fig. 1(b). Over TCP, this process's machine's counts only.
    pub update_counts: Vec<u64>,
    /// `(seconds since the run started, cumulative updates)` on a 5 ms grid
    /// and at the end, always filled on the distributed engines (empty on
    /// the sequential one) — Fig. 4. Over TCP, this process's machine only.
    pub updates_timeline: Vec<(f64, u64)>,
    /// Wire bytes sent per machine — Fig. 6(b).
    pub bytes_sent_per_machine: Vec<u64>,
    /// Total messages across the cluster.
    pub total_messages: u64,
    /// Delivered traffic by message kind (`(kind, traffic)` sorted by
    /// kind; batch sub-messages attributed to their real kinds, compressed
    /// envelopes to `K_ZIP`) — the `repro -- abl-bytes` breakdown.
    pub bytes_by_kind: Vec<(u16, graphlab_net::KindTraffic)>,
    /// Colour-steps of a chromatic run; 0 on the other engines.
    pub steps: u64,
    /// Snapshots completed during the run.
    pub snapshots: u64,
    /// Checkpoint rollbacks completed after injected machine failures
    /// (§4.3 recovery). Updates executed before a rollback re-execute, so
    /// `updates` includes the recomputation cost a failure causes.
    pub recoveries: u64,
    /// Restart-free adoption rounds completed (a permanent machine death
    /// under [`crate::RecoveryMode::Adopt`]: the survivors absorbed the
    /// dead machine's atoms without rolling the cluster back). Counted
    /// per round, not per machine.
    pub adoptions: u64,
    /// Per-machine wall-clock phase breakdown (setup/compute/net-wait),
    /// indexed by machine id. In a TCP run each process fills only its own
    /// row; the spawn harness merges them.
    pub phases: Vec<PhaseTimes>,
    /// Lock-chain span histogram (locking engine): `chain_spans[s]` counts
    /// distributed lock chains that touched exactly `s` machines. Span 1
    /// is a chain resolved entirely on the initiator; placement quality
    /// shows up directly here (`repro -- abl-control`).
    pub chain_spans: Vec<u64>,
    /// Per-machine count of timed receive deadlines that expired with no
    /// message and no runnable work (locking engine, normal phase only),
    /// indexed by machine id. With message-driven master triggers an idle
    /// cluster takes zero — pinned by the idle-cluster regression.
    pub idle_wakeups: Vec<u64>,
    /// Hot-path event counts summed over machines (locking engine; zero
    /// otherwise). Printed by `repro -- phases`.
    pub hot: HotCounters,
}

/// Delivered traffic of wire number `kind` among per-kind rows such as
/// [`EngineMetrics::bytes_by_kind`]; zero when none arrived.
pub fn traffic_of(rows: &[(u16, graphlab_net::KindTraffic)], kind: u16) -> graphlab_net::KindTraffic {
    rows.iter().find(|&&(k, _)| k == kind).map(|&(_, t)| t).unwrap_or_default()
}

impl EngineMetrics {
    /// Delivered traffic of one message kind, from
    /// [`bytes_by_kind`](Self::bytes_by_kind); zero when none arrived.
    pub fn traffic(&self, kind: impl Into<crate::messages::Kind>) -> graphlab_net::KindTraffic {
        traffic_of(&self.bytes_by_kind, kind.into().wire())
    }

    /// Aggregate throughput in updates per second.
    pub fn updates_per_second(&self) -> f64 {
        let secs = self.runtime.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.updates as f64 / secs
    }

    /// Mean number of machines a distributed lock chain touched (0.0 when
    /// no chains were recorded — e.g. chromatic runs).
    pub fn mean_chain_span(&self) -> f64 {
        let chains: u64 = self.chain_spans.iter().sum();
        if chains == 0 {
            return 0.0;
        }
        let weighted: u64 =
            self.chain_spans.iter().enumerate().map(|(s, &n)| s as u64 * n).sum();
        weighted as f64 / chains as f64
    }

    /// Mean per-machine bandwidth in MB/s (Fig. 6(b)'s y-axis).
    pub fn mbps_per_machine(&self) -> f64 {
        if self.bytes_sent_per_machine.is_empty() || self.runtime.is_zero() {
            return 0.0;
        }
        let mean_bytes = self.bytes_sent_per_machine.iter().sum::<u64>() as f64
            / self.bytes_sent_per_machine.len() as f64;
        mean_bytes / 1_000_000.0 / self.runtime.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_math() {
        let m = EngineMetrics {
            updates: 1000,
            runtime: Duration::from_secs(2),
            bytes_sent_per_machine: vec![4_000_000, 8_000_000],
            ..Default::default()
        };
        assert_eq!(m.updates_per_second(), 500.0);
        assert!((m.mbps_per_machine() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn zero_runtime_is_safe() {
        let m = EngineMetrics::default();
        assert_eq!(m.updates_per_second(), 0.0);
        assert_eq!(m.mbps_per_machine(), 0.0);
        assert_eq!(m.mean_chain_span(), 0.0);
    }

    #[test]
    fn mean_chain_span_weights_by_count() {
        // 3 chains of span 1, 1 chain of span 3 → mean (3·1 + 1·3)/4 = 1.5.
        let m = EngineMetrics { chain_spans: vec![0, 3, 0, 1], ..Default::default() };
        assert!((m.mean_chain_span() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn the_fold_sums_each_machines_latest_sample_on_the_grid() {
        let start = Instant::now();
        let ms = |k| start + Duration::from_millis(k);
        // Machine 0 stands still from 2 ms to 12 ms.
        let m0 = vec![(ms(1), 64), (ms(2), 128), (ms(12), 192)];
        let m1 = vec![(ms(4), 64), (ms(14), 100)];
        let series = fold_timeline(start, ms(14), &[m0, m1]);
        assert_eq!(series, vec![(0.0, 0), (0.005, 192), (0.010, 192), (0.014, 292)]);
        // An end on the grid is not repeated; a machine with no samples adds 0.
        let series = fold_timeline(start, ms(10), &[vec![(ms(3), 7)], vec![]]);
        assert_eq!(series, vec![(0.0, 0), (0.005, 7), (0.010, 7)]);
    }
}
