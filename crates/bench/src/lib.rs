//! Reproduction harness for `cumf-rs`.
//!
//! This crate is the top of the dependency DAG: it pulls every other
//! `cumf-*` crate together and turns them into the paper's evaluation.
//!
//! * [`experiments`] — one function per table/figure of the cuMF paper
//!   ([`experiments::table1`], [`experiments::fig6`] … [`experiments::fig11`],
//!   plus the §4.2 [`experiments::reduction_ablation`] and §3.3
//!   [`experiments::bin_ablation`]).  Each returns structured data
//!   (convergence series, cost rows) rather than printing, so tests and
//!   future tooling can assert on the numbers.
//! * `src/bin/repro.rs` — the `repro` binary: prints any experiment (or
//!   `all`) as text tables; `--quick` shrinks the convergence runs for CI.
//! * `examples/` — runnable walkthroughs of the public API: `quickstart`,
//!   `movie_recommender`, `multi_gpu_scaling`, `out_of_core_planning`.
//! * `tests/` — the workspace's end-to-end integration tests (full
//!   train/evaluate cycles and experiment smoke runs).
//!
//! Performance is measured elsewhere: the stand-alone `perf/` crate at the
//! repository root times every workload end to end and layer by layer.
//!
//! Scaled-down convergence runs are *numerically real* (the solvers execute
//! on the host); wall-clock numbers at paper scale come from the analytic
//! cost models in `cumf-core` and `cumf-cluster`, priced with the simulated
//! hardware in `cumf-gpu-sim`.

#![forbid(unsafe_code)]
pub mod experiments;

pub use experiments::*;
