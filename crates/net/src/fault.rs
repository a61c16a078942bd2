//! Deterministic fault injection for the simulated fabric.
//!
//! FoundationDB-style simulation testing works because the *simulator*
//! owns every failure: a declarative [`FaultPlan`] decides ahead of time
//! which machine dies when, whether it comes back, and which machine
//! groups are partitioned — and the same plan replays the same faults. The
//! fabric mediates every delivery through the plan, so fault points are
//! exact (after the *n*-th delivery, not "roughly around then") and a
//! failing chaos case reproduces.
//!
//! The failure model is the paper's (§4.3): machines fail by stopping, and
//! channels between live machines are reliable and FIFO. Every flush in
//! the engines is a marker barrier that rests on it, so the plan can kill
//! and partition but never lose a message between live machines.
//!
//! Semantics of a **kill**:
//!
//! - the machine's endpoint starts returning
//!   [`RecvError::MachineDown`](crate::RecvError::MachineDown) and its
//!   inbox is drained on the floor (volatile state is gone);
//! - everything in flight to or from it is dropped, and all later sends
//!   to/from it are dropped while it stays dead (messages "on the wire"
//!   from a previous incarnation can never be delivered after the fabric
//!   announced the death — the incarnation tag enforces it);
//! - every surviving machine is notified with a [`K_DOWN`] control
//!   envelope carrying the victim, whether a restart is scheduled, and
//!   the fault *era* (total kills so far — the cluster-wide epoch the
//!   engines' recovery protocol is keyed on);
//! - an optional **restart** marks the machine alive again with an empty
//!   inbox and delivers a [`K_UP`] envelope *to the reborn machine* so it
//!   learns the current era and rejoins recovery.
//!
//! A **transient partition** buffers (not drops — TCP would retransmit)
//! traffic between a machine group and its complement and releases it in
//! channel order when the partition heals.
//!
//! All decisions are taken under one lock at the delivery point, which
//! orders every kill, restart and heal against every delivery.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::cluster::{K_DOWN, K_UP};

/// Payload of a [`K_DOWN`] notification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DownMsg {
    /// The machine that died.
    pub machine: u16,
    /// Whether the plan schedules a restart (recovery can wait for it).
    pub restart: bool,
    /// Fault era: total kills so far, including this one. The engines'
    /// recovery rounds are keyed on it.
    pub era: u32,
}

crate::codec_fields! { DownMsg { machine, restart, era } }

/// Payload of a [`K_UP`] notification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct UpMsg {
    /// The machine that restarted (always the receiver).
    pub machine: u16,
    /// Current fault era at restart time.
    pub era: u32,
}

crate::codec_fields! { UpMsg { machine, era } }

/// When a fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTrigger {
    /// After this many envelope deliveries have been attempted cluster-wide
    /// (the deterministic trigger: exact under any thread interleaving of a
    /// fixed per-channel workload).
    Deliveries(u64),
    /// After this much time since fabric creation (convenient, but only as
    /// deterministic as the run's timing).
    Elapsed(Duration),
}

/// One scheduled machine kill.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// Victim machine.
    pub machine: u16,
    /// When the kill fires.
    pub at: FaultTrigger,
    /// When (if ever) the machine restarts with empty state, **measured
    /// from the kill**: `Deliveries(k)` = after `k` further deliveries,
    /// `Elapsed(d)` = after a dead window of `d`.
    pub restart_at: Option<FaultTrigger>,
}

/// One transient network partition: traffic between `group` and its
/// complement is buffered from `from` until `until`, then released in
/// channel order (a long stall, as TCP would present it — not a loss).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSpec {
    /// One side of the partition; the other side is the complement.
    pub group: Vec<u16>,
    /// When the partition starts.
    pub from: FaultTrigger,
    /// When it heals.
    pub until: FaultTrigger,
}

/// A declarative fault schedule for one [`crate::SimNet`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// A label naming the plan (a chaos case's seed, say). No fault
    /// decision reads it: the kills and partitions are the whole schedule.
    pub seed: u64,
    /// Scheduled kills.
    pub kills: Vec<KillSpec>,
    /// Scheduled transient partitions.
    pub partitions: Vec<PartitionSpec>,
    /// Suppress the fabric's oracle `K_DOWN` notification to survivors on
    /// a kill. The victim itself is still notified (a dead thread blocked
    /// in a long receive must wake), but the *survivors* only learn of the
    /// death through lease expiry ([`crate::lease`]) — this demotes the
    /// oracle to a test-only ground truth the detector is checked against.
    pub no_oracle: bool,
}

impl FaultPlan {
    /// An empty plan labelled `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Schedules a permanent kill (no restart — an engine run can only
    /// fail cleanly, since the victim's owned data is gone for good).
    pub fn kill(mut self, machine: u16, at: FaultTrigger) -> Self {
        self.kills.push(KillSpec { machine, at, restart_at: None });
        self
    }

    /// Schedules a kill with a later restart (the recoverable fault the
    /// engines' checkpoint rollback handles). `restart_at` is measured
    /// from the kill (the length of the dead window).
    pub fn kill_and_restart(mut self, machine: u16, at: FaultTrigger, restart_at: FaultTrigger) -> Self {
        self.kills.push(KillSpec { machine, at, restart_at: Some(restart_at) });
        self
    }

    /// Schedules a transient partition.
    pub fn partition(mut self, group: &[u16], from: FaultTrigger, until: FaultTrigger) -> Self {
        self.partitions.push(PartitionSpec { group: group.to_vec(), from, until });
        self
    }

    /// Disables the oracle `K_DOWN` notification to survivors — deaths
    /// must then be detected by lease expiry (see [`FaultPlan::no_oracle`]).
    pub fn without_oracle(mut self) -> Self {
        self.no_oracle = true;
        self
    }

    /// Whether the plan injects any fault at all.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.partitions.is_empty()
    }

    /// Panics unless every referenced machine id is `< n`.
    pub fn validate(&self, n: usize) {
        for k in &self.kills {
            assert!((k.machine as usize) < n, "kill targets unknown machine {}", k.machine);
        }
        for p in &self.partitions {
            for &m in &p.group {
                assert!((m as usize) < n, "partition names unknown machine {m}");
            }
        }
    }
}

struct PendingPartition {
    spec: PartitionSpec,
    active: bool,
    done: bool,
}

/// A kill-relative [`FaultTrigger`] anchored to an absolute clock value.
#[derive(Clone, Copy, Debug)]
enum ResolvedTrigger {
    AtDeliveries(u64),
    AtTime(Instant),
}

/// An envelope buffered by an active partition, with the incarnations it
/// was sent under.
struct HeldMsg {
    env: crate::cluster::Envelope,
    src_inc: u32,
    dst_inc: u32,
}

/// The live fault state shared by every endpoint and the delivery thread.
/// All fault decisions are serialized under one lock, so a kill lands
/// between two deliveries, never inside one.
pub(crate) struct FaultState {
    start: Instant,
    /// [`FaultPlan::no_oracle`].
    no_oracle: bool,
    /// Total envelope delivery attempts so far (the `Deliveries` clock).
    deliveries: u64,
    /// Total kills so far (the fault era).
    era: u32,
    alive: Vec<bool>,
    /// Bumped at every kill of the machine; envelopes remember the
    /// incarnations they were sent under and stale ones are dropped.
    incarnation: Vec<u32>,
    restart_scheduled: Vec<bool>,
    kills: Vec<KillSpec>,
    /// Pending restarts, resolved to absolute triggers at kill time.
    restarts: Vec<(u16, ResolvedTrigger)>,
    partitions: Vec<PendingPartition>,
    held: VecDeque<HeldMsg>,
    inboxes: Vec<crossbeam::channel::Sender<crate::cluster::Envelope>>,
    stats: std::sync::Arc<crate::cluster::NetStats>,
}

impl FaultState {
    /// State for an `n`-machine fabric; `Elapsed` triggers count from `start`.
    pub(crate) fn new(
        plan: FaultPlan,
        n: usize,
        start: Instant,
        inboxes: Vec<crossbeam::channel::Sender<crate::cluster::Envelope>>,
        stats: std::sync::Arc<crate::cluster::NetStats>,
    ) -> Self {
        plan.validate(n);
        let partitions = plan
            .partitions
            .into_iter()
            .map(|spec| PendingPartition { spec, active: false, done: false })
            .collect();
        FaultState {
            start,
            no_oracle: plan.no_oracle,
            deliveries: 0,
            era: 0,
            alive: vec![true; n],
            incarnation: vec![0; n],
            restart_scheduled: vec![false; n],
            kills: plan.kills,
            restarts: Vec::new(),
            partitions,
            held: VecDeque::new(),
            inboxes,
            stats,
        }
    }

    fn due(&self, t: &FaultTrigger, now: Instant) -> bool {
        match *t {
            FaultTrigger::Deliveries(n) => self.deliveries >= n,
            FaultTrigger::Elapsed(d) => now.duration_since(self.start) >= d,
        }
    }

    /// Fires every due event: kills, restarts, partition transitions.
    pub(crate) fn poll(&mut self, now: Instant) {
        // Kills.
        let mut i = 0;
        while i < self.kills.len() {
            if self.due(&self.kills[i].at, now) {
                let k = self.kills.swap_remove(i);
                self.fire_kill(k, now);
            } else {
                i += 1;
            }
        }
        // Restarts.
        let mut i = 0;
        while i < self.restarts.len() {
            let fire = match self.restarts[i].1 {
                ResolvedTrigger::AtDeliveries(n) => self.deliveries >= n,
                ResolvedTrigger::AtTime(t) => now >= t,
            };
            if fire {
                let (m, _) = self.restarts.swap_remove(i);
                self.fire_restart(m);
            } else {
                i += 1;
            }
        }
        // Partitions.
        let mut flush = false;
        for i in 0..self.partitions.len() {
            let (from, until) = (self.partitions[i].spec.from, self.partitions[i].spec.until);
            if !self.partitions[i].done && !self.partitions[i].active && self.due(&from, now) {
                self.partitions[i].active = true;
            }
            if self.partitions[i].active && self.due(&until, now) {
                self.partitions[i].active = false;
                self.partitions[i].done = true;
                flush = true;
            }
        }
        if flush {
            self.flush_held();
        }
    }

    fn fire_kill(&mut self, k: KillSpec, now: Instant) {
        let m = k.machine as usize;
        if !self.alive[m] {
            return; // already dead; ignore the duplicate
        }
        self.alive[m] = false;
        self.incarnation[m] += 1;
        self.era += 1;
        self.restart_scheduled[m] = k.restart_at.is_some();
        if let Some(at) = k.restart_at {
            // Anchor the kill-relative restart trigger to the kill.
            let resolved = match at {
                FaultTrigger::Deliveries(n) => ResolvedTrigger::AtDeliveries(self.deliveries + n),
                FaultTrigger::Elapsed(d) => ResolvedTrigger::AtTime(now + d),
            };
            self.restarts.push((k.machine, resolved));
        }
        // Partition buffers to/from the victim die with it.
        self.held.retain(|h| {
            h.env.src.index() != m && h.env.dst.index() != m
        });
        // Tell every survivor. The injection happens under the fault lock,
        // after every envelope the victim ever got delivered and before any
        // later delivery can be processed — so "messages from m after
        // K_DOWN" is impossible by construction.
        //
        // The victim gets the notification too: a thread already *blocked*
        // in a long `recv_timeout` when the kill fires would otherwise
        // sleep the full timeout (nothing else ever lands in a dead
        // inbox). Receiving a K_DOWN about yourself means "you are dead";
        // any recv the victim makes while dead drains it harmlessly.
        //
        // Under `no_oracle` the survivor notifications are suppressed —
        // only the victim's own wake-up stays — so survivors must detect
        // the death by lease expiry, exactly as they would over TCP.
        let msg = DownMsg { machine: k.machine, restart: k.restart_at.is_some(), era: self.era };
        let payload = crate::codec::encode_to_bytes(&msg);
        for j in 0..self.inboxes.len() {
            if self.no_oracle && j != m {
                continue;
            }
            if j == m || self.alive[j] {
                let _ = self.inboxes[j].send(crate::cluster::Envelope {
                    src: graphlab_graph::MachineId::from(m),
                    dst: graphlab_graph::MachineId::from(j),
                    kind: K_DOWN,
                    payload: payload.clone(),
                });
            }
        }
    }

    fn fire_restart(&mut self, machine: u16) {
        let m = machine as usize;
        if self.alive[m] {
            return;
        }
        self.alive[m] = true;
        self.restart_scheduled[m] = false;
        // The reborn machine's inbox was drained while dead; the first
        // thing it sees is its own K_UP carrying the current era.
        let msg = UpMsg { machine, era: self.era };
        let _ = self.inboxes[m].send(crate::cluster::Envelope {
            src: graphlab_graph::MachineId::from(m),
            dst: graphlab_graph::MachineId::from(m),
            kind: K_UP,
            payload: crate::codec::encode_to_bytes(&msg),
        });
    }

    fn partitioned(&self, src: usize, dst: usize) -> bool {
        self.partitions.iter().any(|p| {
            p.active && {
                let a = p.spec.group.iter().any(|&g| g as usize == src);
                let b = p.spec.group.iter().any(|&g| g as usize == dst);
                a != b
            }
        })
    }

    /// Re-attempts every held envelope, in arrival order (per-channel FIFO
    /// is preserved: holds and releases both happen under this lock).
    fn flush_held(&mut self) {
        for h in std::mem::take(&mut self.held) {
            self.check_and_route(h.env, h.src_inc, h.dst_inc);
        }
    }

    /// The delivery point: every engine envelope lands here exactly once
    /// (zero-latency sends inline, delayed sends at heap pop, held sends
    /// at partition heal — the latter without re-advancing the clock).
    pub(crate) fn on_deliver(
        &mut self,
        env: crate::cluster::Envelope,
        src_inc: u32,
        dst_inc: u32,
        now: Instant,
    ) {
        self.poll(now);
        self.deliveries += 1;
        self.check_and_route(env, src_inc, dst_inc);
        // Delivery-count triggers land *after* the envelope that advanced
        // the clock, so "kill after n deliveries" lets the n-th through.
        self.poll(now);
    }

    /// Applies the current fault state to one envelope: drop, hold, or
    /// deliver.
    fn check_and_route(&mut self, env: crate::cluster::Envelope, src_inc: u32, dst_inc: u32) {
        let (s, d) = (env.src.index(), env.dst.index());
        let live = |m: usize, inc: u32| self.alive[m] && inc == self.incarnation[m];
        if !live(d, dst_inc) || !live(s, src_inc) {
            return; // an end died since the send: the envelope is lost
        }
        if self.partitioned(s, d) {
            self.held.push_back(HeldMsg { env, src_inc, dst_inc });
        } else {
            crate::cluster::deliver(&self.inboxes, &self.stats, env);
        }
    }

    pub(crate) fn is_alive(&self, m: usize) -> bool {
        self.alive[m]
    }

    pub(crate) fn incarnations(&self, src: usize, dst: usize) -> (u32, u32) {
        (self.incarnation[src], self.incarnation[dst])
    }

    pub(crate) fn restart_scheduled(&self, m: usize) -> bool {
        self.restart_scheduled[m]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{RecvError, SimNet};
    use crate::codec::decode_from;
    use crate::latency::LatencyModel;
    use bytes::Bytes;
    use graphlab_graph::MachineId;

    const T: Duration = Duration::from_secs(2);

    #[test]
    fn kill_notifies_survivors_and_fences_the_victim() {
        let plan = FaultPlan::seeded(7).kill(2, FaultTrigger::Deliveries(2));
        let (_net, eps) = SimNet::with_faults(3, LatencyModel::ZERO, 1, plan);
        eps[0].send(MachineId(1), 5, Bytes::from_static(b"a")); // delivery 1
        eps[0].send(MachineId(1), 6, Bytes::from_static(b"b")); // delivery 2 -> kill fires
        assert_eq!(eps[1].recv_timeout(T).unwrap().kind, 5);
        assert_eq!(eps[1].recv_timeout(T).unwrap().kind, 6);
        // Both survivors got the K_DOWN notification.
        for ep in [&eps[0], &eps[1]] {
            let env = ep.recv_timeout(T).unwrap();
            assert_eq!(env.kind, K_DOWN);
            let msg: DownMsg = decode_from(env.payload).unwrap();
            assert_eq!(msg, DownMsg { machine: 2, restart: false, era: 1 });
        }
        // The victim is fenced: receives report MachineDown (no restart
        // scheduled), sends to it vanish, sends from it vanish.
        assert_eq!(eps[2].recv_timeout(Duration::from_millis(10)).unwrap_err(), RecvError::MachineDown);
        assert_eq!(eps[2].self_death(), Some(false));
        eps[0].send(MachineId(2), 9, Bytes::new());
        eps[2].send(MachineId(0), 9, Bytes::new());
        assert_eq!(eps[0].recv_timeout(Duration::from_millis(10)).unwrap_err(), RecvError::Timeout);
    }

    #[test]
    fn restart_delivers_up_marker_and_reopens_traffic() {
        let plan = FaultPlan::seeded(7)
            .kill_and_restart(1, FaultTrigger::Deliveries(1), FaultTrigger::Deliveries(2));
        let (_net, eps) = SimNet::with_faults(2, LatencyModel::ZERO, 1, plan);
        eps[0].send(MachineId(1), 1, Bytes::new()); // delivery 1 -> kill
        assert_eq!(eps[1].recv_timeout(Duration::from_millis(10)).unwrap_err(), RecvError::MachineDown);
        assert_eq!(eps[1].self_death(), Some(true), "restart is scheduled");
        eps[0].send(MachineId(1), 2, Bytes::new()); // delivery 2: dropped (dead)
        eps[0].send(MachineId(1), 3, Bytes::new()); // delivery 3 = kill + 2 -> restart fires
        // First thing the reborn machine sees is its own K_UP with the era.
        let env = eps[1].recv_timeout(T).unwrap();
        assert_eq!(env.kind, K_UP);
        let msg: UpMsg = decode_from(env.payload).unwrap();
        assert_eq!(msg, UpMsg { machine: 1, era: 1 });
        // Traffic flows again.
        eps[0].send(MachineId(1), 4, Bytes::new());
        assert_eq!(eps[1].recv_timeout(T).unwrap().kind, 4);
        // The K_DOWN the survivor got carries restart = true.
        let down = eps[0].recv_timeout(T).unwrap();
        assert_eq!(down.kind, K_DOWN);
        let d: DownMsg = decode_from(down.payload).unwrap();
        assert!(d.restart);
    }

    #[test]
    fn in_flight_messages_from_a_previous_incarnation_never_arrive() {
        // 20 ms latency, kill after 5 ms, 10 ms dead window: the message
        // is on the wire when the machine dies and is due (~20 ms) *after*
        // the victim is alive again (~15 ms) — the incarnation check still
        // fences the old life.
        let plan = FaultPlan::seeded(3)
            .kill_and_restart(
                1,
                FaultTrigger::Elapsed(Duration::from_millis(5)),
                FaultTrigger::Elapsed(Duration::from_millis(10)),
            );
        let (net, eps) = SimNet::with_faults(2, LatencyModel::fixed(Duration::from_millis(20)), 1, plan);
        eps[0].send(MachineId(1), 42, Bytes::from_static(b"stale"));
        // Wait out the dead window.
        std::thread::sleep(Duration::from_millis(15));
        // Drain the dead-window state: the victim sees K_UP, then nothing.
        let mut kinds = Vec::new();
        let deadline = Instant::now() + Duration::from_millis(200);
        while Instant::now() < deadline {
            match eps[1].recv_timeout(Duration::from_millis(20)) {
                Ok(env) => kinds.push(env.kind),
                Err(RecvError::MachineDown) => continue,
                Err(_) => {}
            }
        }
        assert_eq!(kinds, vec![K_UP], "stale incarnation message leaked: {kinds:?}");
        assert_eq!(net.stats().machine(MachineId(1)).msgs_received, 0);
    }

    #[test]
    fn elapsed_triggers_fire_exactly_on_time_and_a_restart_counts_from_the_kill() {
        let (d, r, ns) = (Duration::from_secs(10), Duration::from_secs(5), Duration::from_nanos(1));
        let plan = FaultPlan::seeded(1)
            .kill_and_restart(1, FaultTrigger::Elapsed(d), FaultTrigger::Elapsed(r));
        let (txs, _rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| crossbeam::channel::unbounded()).unzip();
        let start = Instant::now();
        let stats = std::sync::Arc::new(crate::cluster::NetStats::new(2));
        let mut st = FaultState::new(plan, 2, start, txs, stats);
        st.poll(start + d - ns);
        assert!(st.is_alive(1), "killed before its time");
        st.poll(start + d);
        assert!(!st.is_alive(1) && st.restart_scheduled(1));
        st.poll(start + d + r - ns);
        assert!(!st.is_alive(1), "restarted before the dead window ended");
        st.poll(start + d + r);
        assert!(st.is_alive(1), "the restart is due at kill + r");
    }

    #[test]
    fn transient_partition_buffers_and_releases_in_order() {
        let plan = FaultPlan::seeded(1).partition(
            &[0],
            FaultTrigger::Deliveries(0),
            FaultTrigger::Deliveries(4),
        );
        let (_net, eps) = SimNet::with_faults(2, LatencyModel::ZERO, 1, plan);
        for k in 0..4u16 {
            eps[0].send(MachineId(1), k, Bytes::new());
        }
        // Deliveries 1..=3 are held; the 4th advance heals the partition
        // and flushes everything in channel order.
        for k in 0..4u16 {
            let env = eps[1].recv_timeout(T).unwrap();
            assert_eq!(env.kind, k, "partition flush must preserve FIFO");
        }
    }

    #[test]
    fn partition_does_not_hold_intra_group_traffic() {
        let plan = FaultPlan::seeded(1).partition(
            &[0, 1],
            FaultTrigger::Deliveries(0),
            FaultTrigger::Deliveries(1_000),
        );
        let (_net, eps) = SimNet::with_faults(3, LatencyModel::ZERO, 1, plan);
        eps[0].send(MachineId(1), 7, Bytes::new()); // same side: flows
        eps[0].send(MachineId(2), 8, Bytes::new()); // across: held
        assert_eq!(eps[1].recv_timeout(T).unwrap().kind, 7);
        assert_eq!(eps[2].recv_timeout(Duration::from_millis(10)).unwrap_err(), RecvError::Timeout);
    }

    #[test]
    fn plan_validation_rejects_unknown_machines() {
        let plan = FaultPlan::seeded(1).kill(9, FaultTrigger::Deliveries(1));
        assert!(std::panic::catch_unwind(|| plan.validate(3)).is_err());
    }
}
