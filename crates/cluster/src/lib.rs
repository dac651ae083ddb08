//! Distributed-CPU cluster cost model for the cuMF paper's baselines.
//!
//! The paper compares cuMF against NOMAD (32-node AWS and 64-node HPC
//! clusters), Spark MLlib ALS (50 × m3.2xlarge), Factorbird (50 nodes
//! comparable to c3.2xlarge) and Facebook's Giraph solution (50 workers).
//! None of those systems can be run here, so this crate models them the way
//! the paper itself prices them: per-iteration time from an analytic
//! compute + communication model **calibrated against the numbers the
//! respective papers publish**, and monetary cost as
//! `price/node/hour × nodes × time` (Table 1's formula).
//!
//! * [`node`] — CPU node specifications and cloud prices.
//! * [`network`] — cluster-level communication primitives (broadcast,
//!   all-reduce, shuffle).
//! * [`models`] — per-iteration time models for the four baseline systems
//!   plus a multi-core single-machine model for libMF/NOMAD-1-node.
//! * [`pricing`] — run-cost computation and the speed/cost comparison rows
//!   of Table 1.

#![forbid(unsafe_code)]
pub mod models;
pub mod network;
pub mod node;
pub mod pricing;

pub use models::{BaselineSystem, IterationEstimate};
pub use network::ClusterNetwork;
pub use node::NodeSpec;
pub use pricing::CostComparison;
