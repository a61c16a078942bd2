//! Lease-based failure detection (ROADMAP item 2, the glimpser-rs
//! distributed-locking shape: lease expiry, instance ids, idempotent
//! takeover).
//!
//! Every machine holds an implicit *lease* with the coordination master
//! (machine 0): any envelope it puts on the wire towards the master
//! refreshes the lease, and when a machine has been idle towards the
//! master for more than half the lease period it sends an explicit
//! [`crate::K_LEASE`] heartbeat. The master scans its lease table whenever it
//! waits on the network; a machine whose lease has expired is declared
//! dead **once** (the declaration is fenced by the recovery era, so a
//! duplicate declaration — e.g. the SimNet oracle racing the detector —
//! is idempotent), and the master broadcasts the same `K_DOWN` payload
//! the fault fabric uses, so every engine's existing death handling
//! fires unchanged.
//!
//! This is what makes recovery transport-independent: on [`crate::SimNet`]
//! the fabric's oracle notification becomes a test-only ground truth the
//! chaos suite checks the detector *against*, and on [`crate::tcp::TcpNet`]
//! — where a crashed peer otherwise only ever surfaces as a failed write,
//! which silently ends that one channel — lease expiry is the *only*
//! detector.
//!
//! A lease is a promise about real time: [`LeaseState`] decides on the
//! `now` its caller reads from [`crate::clock`], and only whether a
//! `K_DOWN` is synthesized, never what a payload holds.

use std::time::{Duration, Instant};

/// The machine that owns the lease table and declares deaths. Machine 0
/// is the coordination/recovery master throughout the engines and may
/// not die (ROADMAP invariant), so it is also the failure detector.
pub const LEASE_MASTER: usize = 0;

/// Lease policy: one knob, the lease period. Heartbeats go out at half
/// the period; the master's expiry scan runs at least every
/// [`LeaseConfig::slice`] while it waits on the network, bounding
/// detection latency to roughly `period + slice`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaseConfig {
    /// How long a machine may stay silent (towards the master) before it
    /// is declared dead.
    pub period: Duration,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig { period: Duration::from_secs(1) }
    }
}

impl LeaseConfig {
    /// A lease with the given period.
    pub fn with_period(period: Duration) -> Self {
        LeaseConfig { period }
    }

    /// How long a machine may go without sending to the master before an
    /// explicit heartbeat is due.
    pub fn heartbeat_every(&self) -> Duration {
        self.period / 2
    }

    /// The pacing of lease bookkeeping while blocked in a receive: waits
    /// are sliced to this so heartbeats go out and expiry is noticed even
    /// mid-block.
    pub fn slice(&self) -> Duration {
        (self.period / 8).max(Duration::from_millis(1))
    }
}

/// The explicit heartbeat payload. `incarnation` and `era` fence stale
/// heartbeats the same way the fault fabric fences stale traffic: a
/// machine the master has already declared dead can never refresh its
/// lease again (idempotent takeover — adoption of its atoms proceeds
/// even if a delayed heartbeat surfaces later).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaseMsg {
    /// The heartbeating machine.
    pub machine: u16,
    /// The sender's incarnation (0 until a restart machinery sets it).
    pub incarnation: u32,
    /// The highest recovery era the sender has observed.
    pub era: u32,
}

crate::codec_fields! { LeaseMsg { machine, incarnation, era } }

/// One machine's lease bookkeeping. Workers track only when they last
/// talked to the master; the master additionally tracks when it last
/// heard from each machine and which machines it has declared dead.
pub struct LeaseState {
    me: u16,
    cfg: LeaseConfig,
    era: u32,
    /// Master side: last time each machine's lease was refreshed.
    last_seen: Vec<Instant>,
    /// Machines known dead (declared by expiry here, or observed via a
    /// `K_DOWN` from any source). Dead machines can never refresh.
    dead: Vec<bool>,
    /// Worker side: last time anything went out towards the master.
    last_beat: Instant,
}

impl LeaseState {
    /// Fresh lease state for machine `me` of `n`; every lease starts
    /// refreshed at `now` (the cluster is alive at ingress).
    pub fn new(me: u16, n: usize, cfg: LeaseConfig, now: Instant) -> Self {
        LeaseState { me, cfg, era: 0, last_seen: vec![now; n], dead: vec![false; n], last_beat: now }
    }

    /// The configured policy.
    pub fn config(&self) -> LeaseConfig {
        self.cfg
    }

    /// Whether this machine owns the lease table.
    pub fn is_master(&self) -> bool {
        self.me as usize == LEASE_MASTER
    }

    /// The highest recovery era observed so far.
    pub fn era(&self) -> u32 {
        self.era
    }

    /// Whether `machine` has been declared or observed dead.
    pub fn is_dead(&self, machine: usize) -> bool {
        self.dead[machine]
    }

    /// Any envelope from `src` proves it alive at `now` — the piggybacked
    /// refresh. Machines already declared dead are fenced out: a delayed
    /// heartbeat cannot resurrect them.
    pub fn refresh(&mut self, src: usize, now: Instant) {
        if !self.dead[src] {
            self.last_seen[src] = now;
        }
    }

    /// An engine observed a death (from any detector). Idempotent; keeps
    /// the era monotone so a later expiry declaration is fenced above it.
    pub fn observe_death(&mut self, machine: usize, era: u32) {
        self.dead[machine] = true;
        self.era = self.era.max(era);
    }

    /// An engine observed a restart: the machine leases afresh from `now`.
    pub fn observe_up(&mut self, machine: usize, era: u32, now: Instant) {
        self.dead[machine] = false;
        self.last_seen[machine] = now;
        self.era = self.era.max(era);
    }

    /// Worker side: whether an explicit heartbeat to the master is due
    /// (idle towards the master for half the lease period by `now`).
    pub fn heartbeat_due(&self, now: Instant) -> bool {
        !self.is_master() && now - self.last_beat >= self.cfg.heartbeat_every()
    }

    /// Worker side: something went out towards the master at `now`
    /// (piggybacked refresh) or an explicit heartbeat was just sent.
    pub fn note_sent_to_master(&mut self, now: Instant) {
        self.last_beat = now;
    }

    /// The heartbeat payload this machine would send.
    pub fn heartbeat(&self) -> LeaseMsg {
        LeaseMsg { machine: self.me, incarnation: 0, era: self.era }
    }

    /// Master side: declares the next machine whose lease has expired by
    /// `now` dead, if any. Marks it dead, advances the era past everything
    /// observed, and returns `(victim, era)` for the `K_DOWN` broadcast.
    /// Each victim is declared exactly once.
    pub fn expired(&mut self, now: Instant) -> Option<(u16, u32)> {
        if !self.is_master() {
            return None;
        }
        let n = self.last_seen.len();
        for j in 0..n {
            if j == self.me as usize || self.dead[j] {
                continue;
            }
            if now - self.last_seen[j] > self.cfg.period {
                self.dead[j] = true;
                self.era += 1;
                return Some((j as u16, self.era));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_from, encode_to_bytes};

    #[test]
    fn lease_msg_roundtrips() {
        let m = LeaseMsg { machine: 7, incarnation: 3, era: 12 };
        assert_eq!(decode_from::<LeaseMsg>(encode_to_bytes(&m)), Some(m));
    }

    #[test]
    fn a_heartbeat_naming_a_machine_past_u16_is_refused() {
        let mut buf = bytes::BytesMut::new();
        for field in [1 << 16, 0, 0] {
            crate::codec::put_uvarint(&mut buf, field);
        }
        assert_eq!(decode_from::<LeaseMsg>(buf.freeze()), None);
    }

    const NS: Duration = Duration::from_nanos(1);

    #[test]
    fn refresh_keeps_lease_alive_and_expiry_fires_once() {
        let period = Duration::from_millis(40);
        let t0 = Instant::now();
        let mut l = LeaseState::new(0, 3, LeaseConfig::with_period(period), t0);
        let talked = t0 + Duration::from_millis(25);
        l.refresh(1, talked); // machine 1 talked; machine 2 stays silent
        assert_eq!(l.expired(t0 + period), None, "a lease holds for its whole period");
        assert_eq!(l.expired(t0 + period + NS), Some((2, 1)));
        assert!(l.is_dead(2));
        assert_eq!(l.expired(t0 + period + NS), None, "a death is declared exactly once");
        assert_eq!(l.expired(talked + period), None, "the refresh restarted machine 1's lease");
        assert_eq!(l.expired(talked + period + NS), Some((1, 2)), "next victim gets the next era");
    }

    #[test]
    fn dead_machines_cannot_refresh() {
        let cfg = LeaseConfig::with_period(Duration::from_millis(20));
        let t0 = Instant::now();
        let mut l = LeaseState::new(0, 2, cfg, t0);
        l.observe_death(1, 5);
        let later = t0 + Duration::from_secs(1);
        l.refresh(1, later); // delayed heartbeat from the corpse
        assert!(l.is_dead(1));
        assert_eq!(l.era(), 5);
        assert_eq!(l.expired(later), None, "already dead: no duplicate declaration");
    }

    #[test]
    fn heartbeat_cadence_is_half_period() {
        let half = Duration::from_millis(15);
        let t0 = Instant::now();
        let mut l = LeaseState::new(1, 2, LeaseConfig::with_period(2 * half), t0);
        assert!(!l.heartbeat_due(t0 + half - NS));
        assert!(l.heartbeat_due(t0 + half));
        l.note_sent_to_master(t0 + half);
        assert!(!l.heartbeat_due(t0 + 2 * half - NS));
        assert!(l.heartbeat_due(t0 + 2 * half));
    }

    #[test]
    fn workers_never_declare_deaths() {
        let t0 = Instant::now();
        let mut l = LeaseState::new(1, 3, LeaseConfig::with_period(Duration::from_millis(1)), t0);
        assert_eq!(l.expired(t0 + Duration::from_secs(3600)), None);
    }
}
