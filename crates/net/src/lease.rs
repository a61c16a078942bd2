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
//! — where a crashed peer otherwise only ever surfaces as reconnect
//! timeouts — lease expiry is the *only* detector.
//!
//! Timing here is wall-clock by nature (a lease is a promise about real
//! time); none of it ever influences wire payload *contents*, only
//! whether a `K_DOWN` is synthesized.

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

/// Wall-clock read for lease bookkeeping, kept in one place.
fn now() -> Instant {
    #[expect(clippy::disallowed_methods, reason = "leases are promises about real time; timestamps never enter wire payloads")]
    Instant::now()
}

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
    /// refreshed (the cluster is alive at ingress).
    pub fn new(me: u16, n: usize, cfg: LeaseConfig) -> Self {
        let t = now();
        LeaseState { me, cfg, era: 0, last_seen: vec![t; n], dead: vec![false; n], last_beat: t }
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

    /// Any envelope from `src` proves it alive *now* — the piggybacked
    /// refresh. Machines already declared dead are fenced out: a delayed
    /// heartbeat cannot resurrect them.
    pub fn refresh(&mut self, src: usize) {
        if !self.dead[src] {
            self.last_seen[src] = now();
        }
    }

    /// An engine observed a death (from any detector). Idempotent; keeps
    /// the era monotone so a later expiry declaration is fenced above it.
    pub fn observe_death(&mut self, machine: usize, era: u32) {
        self.dead[machine] = true;
        self.era = self.era.max(era);
    }

    /// An engine observed a restart: the machine leases afresh.
    pub fn observe_up(&mut self, machine: usize, era: u32) {
        self.dead[machine] = false;
        self.last_seen[machine] = now();
        self.era = self.era.max(era);
    }

    /// Worker side: whether an explicit heartbeat to the master is due
    /// (idle towards the master past half the lease period).
    pub fn heartbeat_due(&self) -> bool {
        !self.is_master() && self.last_beat.elapsed() >= self.cfg.heartbeat_every()
    }

    /// Worker side: something went out towards the master (piggybacked
    /// refresh) or an explicit heartbeat was just sent.
    pub fn note_sent_to_master(&mut self) {
        self.last_beat = now();
    }

    /// The heartbeat payload this machine would send.
    pub fn heartbeat(&self) -> LeaseMsg {
        LeaseMsg { machine: self.me, incarnation: 0, era: self.era }
    }

    /// Master side: declares the next expired machine dead, if any.
    /// Marks it dead, advances the era past everything observed, and
    /// returns `(victim, era)` for the `K_DOWN` broadcast. Each victim is
    /// declared exactly once.
    pub fn expired(&mut self) -> Option<(u16, u32)> {
        if !self.is_master() {
            return None;
        }
        let n = self.last_seen.len();
        for j in 0..n {
            if j == self.me as usize || self.dead[j] {
                continue;
            }
            if self.last_seen[j].elapsed() > self.cfg.period {
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

    #[test]
    fn refresh_keeps_lease_alive_and_expiry_fires_once() {
        let cfg = LeaseConfig::with_period(Duration::from_millis(40));
        let mut l = LeaseState::new(0, 3, cfg);
        std::thread::sleep(Duration::from_millis(25));
        l.refresh(1); // machine 1 talked; machine 2 stays silent
        assert_eq!(l.expired(), None, "nothing expired yet");
        std::thread::sleep(Duration::from_millis(25));
        // Machine 2 has now been silent for ~50ms > 40ms; machine 1 for ~25ms.
        assert_eq!(l.expired(), Some((2, 1)));
        assert!(l.is_dead(2));
        assert_eq!(l.expired(), None, "a death is declared exactly once");
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(l.expired(), Some((1, 2)), "next victim gets the next era");
    }

    #[test]
    fn dead_machines_cannot_refresh() {
        let cfg = LeaseConfig::with_period(Duration::from_millis(20));
        let mut l = LeaseState::new(0, 2, cfg);
        l.observe_death(1, 5);
        l.refresh(1); // delayed heartbeat from the corpse
        assert!(l.is_dead(1));
        assert_eq!(l.era(), 5);
        assert_eq!(l.expired(), None, "already dead: no duplicate declaration");
    }

    #[test]
    fn heartbeat_cadence_is_half_period() {
        let cfg = LeaseConfig::with_period(Duration::from_millis(30));
        let mut l = LeaseState::new(1, 2, cfg);
        assert!(!l.heartbeat_due());
        std::thread::sleep(Duration::from_millis(16));
        assert!(l.heartbeat_due());
        l.note_sent_to_master();
        assert!(!l.heartbeat_due());
    }

    #[test]
    fn workers_never_declare_deaths() {
        let cfg = LeaseConfig::with_period(Duration::from_millis(1));
        let mut l = LeaseState::new(1, 3, cfg);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(l.expired(), None);
    }
}
