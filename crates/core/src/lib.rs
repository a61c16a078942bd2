//! # graphlab-core
//!
//! The Distributed GraphLab engines (Low et al., VLDB 2012) — the paper's
//! primary contribution.
//!
//! The abstraction has three parts: the *data graph* holding mutable user
//! data on a static structure (provided by `graphlab-graph` +
//! `graphlab-atoms`), *update functions* transforming vertex scopes and
//! scheduling further work ([`update`]), and the *sync operation*
//! maintaining typed global aggregates ([`sync`]). A program is assembled
//! and run through the [`GraphLab`] builder ([`program`]) — the single
//! entry point selecting one of three engines behind the same seam:
//!
//! - the **sequential reference** ([`mod@reference`]): the literal execution
//!   model (Alg. 2), the serializability oracle for all distributed runs;
//! - the **chromatic engine** ([`chromatic`]): partially synchronous
//!   colour-step execution driven by a graph colouring (§4.2.1), which
//!   the builder auto-computes from the consistency model;
//! - the **locking engine** ([`locking`]): fully asynchronous pipelined
//!   distributed locking with prioritised dynamic scheduling (§4.2.2).
//!
//! Under both distributed engines sits one `machine::Machine` — the paper's
//! symmetric per-machine process (§4.4, Fig. 5(a)): local graph
//! ([`local`]), batched comms layer, DFS handle and placement, the
//! fault-tolerance state the one `recovery` protocol drives, update
//! accounting and the snapshot trigger. The engines add only how they order
//! and exchange updates.
//!
//! Termination is first-class: [`GraphLab::stop_when`] predicates over
//! finalized globals run at sync boundaries (the paper's aggregate-driven
//! convergence checks), composing with update caps. Fault tolerance
//! (§4.3) is provided by synchronous stop-the-world snapshots and the
//! fully asynchronous Chandy-Lamport variant expressed as a GraphLab
//! update function ([`snapshot`]).

#![deny(
    clippy::disallowed_methods,
    clippy::disallowed_macros,
    clippy::iter_over_hash_type,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(
    test,
    allow(
        clippy::disallowed_methods,
        clippy::disallowed_macros,
        clippy::iter_over_hash_type,
        reason = "unit tests script raw endpoints, time themselves and print the explorers' state counts; the invariants bind shipped code"
    )
)]

pub mod chromatic;
pub mod config;
pub(crate) mod coord;
pub mod driver;
mod explore;
pub mod globals;
pub mod local;
pub mod locking;
pub(crate) mod machine;
pub mod messages;
pub mod metrics;
pub mod program;
pub(crate) mod recovery;
pub mod reference;
pub mod scheduler;
pub mod snapshot;
pub mod sync;
pub mod update;

pub use config::{
    Ablation, EngineConfig, RecoveryMode, SnapshotConfig, SnapshotMode, StragglerConfig,
};
pub use graphlab_atoms::PlacementStrategy;
pub use graphlab_net::{BatchPolicy, FaultPlan, FaultTrigger, TcpConfig, Transport};
pub use driver::{EngineKind, EngineOutput, PartitionStrategy};
pub use globals::{GlobalHandle, GlobalRegistry};
pub use local::{LocalAdjEntry, LocalGraph, RemoteCacheTable, ScopePlans};
pub use metrics::{EngineMetrics, HotCounters, PhaseTimes};
pub use program::{GraphLab, SyncCadence};
pub use reference::InitialSchedule;
pub use scheduler::{Scheduler, SchedulerKind};
pub use snapshot::{
    latest_complete_snapshot, restore_snapshot, snapshot_exists,
    young_interval, SnapshotFile,
};
pub use sync::{local_partial, Aggregate, FnSync, SyncScope};
pub use update::{UpdateContext, UpdateEffects, UpdateFunction};
