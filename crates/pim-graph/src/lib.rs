//! Dataflow graphs of NN training steps — the TensorFlow substitute.
//!
//! A [`graph::Graph`] holds the operations of one training step with
//! dependencies implied by tensor production/consumption, exactly the
//! information the paper's runtime scheduler consumes. The crate provides:
//!
//! * [`node`] — operation kinds with the paper's TensorFlow display names,
//! * [`graph`] — the DAG with validation, topological ordering,
//!   dependency queries, the memoized per-graph cost and adjacency
//!   tables every simulation of the graph borrows, and the memoized
//!   structural hash every cache key reads,
//! * [`builder`] — a layer-level API that also auto-generates the backward
//!   pass and optimizer updates,
//! * [`cost`] — per-node analytic cost dispatch,
//! * [`export`] — DOT rendering and structural statistics,
//! * [`liveness`] — peak-live-memory analysis of a step,
//! * [`executor`] — an eager interpreter that really trains (used by the
//!   functional examples).
//!
//! # Examples
//!
//! ```
//! use pim_graph::builder::{NetBuilder, OptimizerKind};
//! use pim_graph::cost::graph_costs;
//!
//! # fn main() -> pim_common::Result<()> {
//! let mut net = NetBuilder::new("demo");
//! let x = net.input(4, 3, 16, 16);
//! let x = net.conv2d(x, 8, 3, 1, 1)?;
//! let x = net.relu(x)?;
//! let x = net.flatten(x)?;
//! let logits = net.dense(x, 10)?;
//! let graph = net.finish_classifier(logits, OptimizerKind::Adam)?;
//!
//! // Every op has an analytic cost profile the scheduler can consume.
//! let costs = graph_costs(&graph)?;
//! assert_eq!(costs.len(), graph.op_count());
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]

pub mod builder;
pub mod cost;
pub mod executor;
pub mod export;
pub mod gen;
pub mod graph;
pub mod liveness;
pub mod node;

pub use builder::{NetBuilder, OptimizerKind};
pub use graph::Graph;
pub use node::{OpKind, OpNode, TensorInfo, TensorRole};
