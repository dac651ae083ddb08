//! # cumf-core — cuMF's ALS matrix factorization in Rust
//!
//! This crate is the Rust reproduction of the paper's contribution: a
//! scalable Alternating Least Squares (ALS) solver for sparse matrix
//! factorization `R ≈ X·Θᵀ` designed around GPU architectural
//! characteristics.  The physical GPU is replaced by the performance model in
//! [`cumf_gpu_sim`]; the numerics are exact and run on host threads.
//!
//! The layers match the paper's structure:
//!
//! * [`als::base`] — the one ALS engine, [`als::AlsEngine`]: Algorithm 1's
//!   update (`get_hermitian` + `batch_solve`) through one row loop
//!   ([`als::kernels`]), with an optional simulated cluster and a
//!   [`als::Placement`] that decide only what a sweep is priced at.
//! * [`als::mo`] — Algorithm 2 **MO-ALS**, the resident single-GPU pricing.
//!   Toggles for texture caching, register accumulation and the
//!   shared-memory `bin` size change the simulated traffic and therefore the
//!   simulated time, reproducing §3.3–3.4 and Figures 7–8.
//! * [`als::su`] — Algorithm 3 **SU-ALS**, the multi-GPU grid pricing:
//!   data parallelism (grid-partitioned `R`, vertically partitioned `Θᵀ`,
//!   whose partial Hermitians the row loop sums per row) and cross-GPU
//!   reduction, reproducing §4 and Figures 9–11.
//! * [`reduce`] — the one-phase and two-phase (topology-aware) parallel
//!   reduction schemes of §4.2.
//! * [`planner`] — the memory-capacity partition planner of §4.3 (equation 8).
//! * [`checkpoint`] — fault-tolerance checkpointing of §4.4, including
//!   delta records that journal incremental fold-ins between full
//!   checkpoints.
//! * [`engine`] — the unified [`Engine`] / [`IncrementalEngine`] trait pair
//!   every factorization engine (the ALS variants, [`sgd::SgdEngine`], the
//!   baseline solvers) implements; the trainer and the online serving loop
//!   dispatch through it.
//! * [`foldin`] — incremental user fold-in: solving new-or-updated users
//!   against frozen item factors (the training half of `cumf-serve`'s
//!   delta-publication path), including the segmented variant that folds
//!   straight against the serving tier's item store.
//! * [`costmodel`] — the analytic compute/footprint model of Table 3, used
//!   to price iterations at full paper scale (Figure 11, Table 1).
//! * [`instrument`] — trainer-side observability: wait-free
//!   [`cumf_obs`] latency histograms splitting each solved row into its
//!   Hermitian-assembly and solve phases (the host analogue of
//!   `get_hermitian` / `batch_solve`), plus whole-call and fold-in-batch
//!   timings, with a `train_*` Prometheus/JSON exporter.
//! * [`trainer`] — the high-level [`trainer::MatrixFactorizer`] API
//!   (fit / predict / recommend) that examples and benches drive.
//!
//! ## Quick start
//!
//! ```
//! use cumf_core::config::AlsConfig;
//! use cumf_core::trainer::{Backend, MatrixFactorizer};
//! use cumf_data::synth::SyntheticConfig;
//! use cumf_data::train_test_split;
//!
//! // A small synthetic data set with a genuine low-rank structure.
//! let data = SyntheticConfig { m: 400, n: 200, nnz: 12_000, ..Default::default() }.generate();
//! let split = train_test_split(&data.ratings, 0.1, 7);
//!
//! let config = AlsConfig { f: 16, lambda: 0.05, iterations: 5, ..Default::default() };
//! let mut model = MatrixFactorizer::new(config, Backend::single_gpu());
//! let report = model.fit(&split.train, &split.test);
//! assert!(report.final_test_rmse() < 1.0);
//! ```

#![forbid(unsafe_code)]
pub mod als;
pub mod checkpoint;
pub mod config;
pub mod costmodel;
pub mod engine;
pub mod foldin;
pub mod instrument;
pub mod loss;
pub mod planner;
pub mod reduce;
pub mod sgd;
pub mod trainer;

pub use config::{AlsConfig, MemoryOptConfig};
pub use engine::{Engine, IncrementalEngine};
pub use instrument::{Phase, TrainMetrics, TrainMetricsReport};
pub use trainer::{Backend, MatrixFactorizer, TrainReport};
