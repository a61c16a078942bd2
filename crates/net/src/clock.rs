//! The wall clock of `net` and `core`: every read of it and every wait on it
//! in the two crates' shipped code is [`now`] or [`sleep`], and clippy refuses
//! `Instant::now`, `Instant::elapsed` and `thread::sleep` anywhere else.
//! Reading it is sound because time decides only *when* something happens (a
//! delivery, a heartbeat, an expiry, a dial retry, a timeout) and how long a phase
//! took, never *what* crosses the wire: no timestamp enters a payload or a
//! checkpoint, and message order is pinned by per-channel
//! FIFO. A state machine that decides on time takes `now` as an argument
//! (`FaultState::poll`, [`crate::lease::LeaseState`]), so its tests pass exact
//! instants. An elapsed time is written `clock::now() - t`.

use std::time::{Duration, Instant};

/// The current time.
#[inline]
pub fn now() -> Instant {
    #[expect(clippy::disallowed_methods, reason = "the one wall-clock read; see the module docs")]
    Instant::now()
}

/// Blocks the calling thread for `d`.
#[inline]
pub fn sleep(d: Duration) {
    #[expect(clippy::disallowed_methods, reason = "the one wall-clock wait; see the module docs")]
    std::thread::sleep(d)
}
