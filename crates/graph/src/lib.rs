//! # graphlab-graph
//!
//! The *data graph* layer of the Distributed GraphLab reproduction
//! (Low et al., VLDB 2012, §3.1).
//!
//! The data graph `G = (V, E, D)` is a directed graph container that manages
//! user-defined, mutable data attached to every vertex (`D_v`) and every
//! directed edge (`D_{u→v}`), while the *structure* of the graph is static
//! and cannot change during execution.
//!
//! This crate provides:
//!
//! - strongly-typed identifiers ([`VertexId`], [`EdgeId`], [`AtomId`],
//!   [`MachineId`]) shared across the workspace,
//! - [`DataGraph`] and [`GraphBuilder`]: a compressed sparse row (CSR)
//!   representation with a combined (both-direction) adjacency view that
//!   scopes and lock planning are built on,
//! - [`ConsistencyModel`] and the lock requirements each model induces
//!   (§3.4, Fig. 2),
//! - graph colouring heuristics used by the chromatic engine (§4.2.1):
//!   first-order greedy colouring for edge consistency and second-order
//!   colouring for full consistency.

pub mod coloring;
pub mod consistency;
pub mod graph;
pub mod ids;
pub mod stats;

pub use coloring::{greedy_coloring, second_order_coloring, verify_coloring, Coloring};
pub use consistency::{ConsistencyModel, LockType};
pub use graph::{DataGraph, EdgeDir, GraphBuilder, GraphError, NeighborEntry};
pub use ids::{AtomId, EdgeId, IdHasher, IdMap, MachineId, VertexId};
pub use stats::GraphStats;
