//! Offline, API-compatible subset of the `crossbeam` crate: [`channel`],
//! cloneable unbounded MPMC channels with `recv_timeout`/`try_recv` and
//! disconnect detection, backed by a `Mutex<VecDeque>` + `Condvar`.
//!
//! Vendored because the build environment cannot reach crates.io.

pub mod channel;
