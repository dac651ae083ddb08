//! SparkALS-style ALS with partial `Θ` replication.
//!
//! Spark MLlib's ALS improves on PALS by sending each `X` partition only the
//! `θ_v` columns its rows actually reference (§2.2 of the cuMF paper).  The
//! cuMF paper criticizes exactly this step: building the per-partition
//! column sets is a graph-partitioning-like task, the transfers are large
//! when `Nz ≫ m`, and a partition's working set may still not fit on one
//! device.  This solver reproduces the algorithm and *measures* that
//! communication volume so the claims can be checked quantitatively.
//!
//! A row's solve reads only the `θ_v` of its own ratings, all of which its
//! partition receives, so the sweep is the reference
//! [`cumf_core::als::AlsEngine`]'s, bit for bit; what is SparkALS's own is
//! the shuffle.  `R` never changes, so neither does the shuffle: it is
//! counted once, when the solver is built.

use crate::als_util;
use cumf_core::als::AlsEngine;
use cumf_core::{Engine, TrainMetrics};
use cumf_linalg::FactorMatrix;
use cumf_sparse::{split_ranges, Csr, Entry};
use std::sync::Arc;

/// Hyper-parameters of the SparkALS-style solver.
#[derive(Debug, Clone, PartialEq)]
pub struct SparkAlsConfig {
    /// Latent dimension `f`.
    pub f: usize,
    /// Weighted-λ regularization.
    pub lambda: f32,
    /// Number of partitions ("executors").
    pub partitions: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SparkAlsConfig {
    fn default() -> Self {
        Self {
            f: 32,
            lambda: 0.05,
            partitions: 4,
            seed: 42,
        }
    }
}

/// Communication statistics of one ALS iteration (both side updates).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShuffleStats {
    /// Total factor vectors shipped to partitions (with duplicates across
    /// partitions — the partial-replication overhead).
    pub vectors_shipped: u64,
    /// The same quantity in bytes.
    pub bytes_shipped: u64,
    /// Number of distinct vectors that would have sufficed with no
    /// replication (i.e. the size of the fixed factor matrix).
    pub distinct_vectors: u64,
}

/// SparkALS-style solver with partial replication.
pub struct SparkAlsStyle {
    engine: AlsEngine,
    train_entries: Vec<Entry>,
    /// What one iteration ships, both halves.
    shuffle: ShuffleStats,
    last_shuffle: ShuffleStats,
}

/// Factor vectors shipped to `partitions` row partitions of `r`: each gets
/// the distinct columns its rows reference (the "graph partitioning" step
/// the paper criticizes).
fn vectors_shipped(r: &Csr, partitions: usize) -> u64 {
    let partitions = partitions.min(r.n_rows().max(1) as usize);
    let row_ptr = r.row_ptr();
    split_ranges(r.n_rows(), partitions)
        .expect("row partition")
        .iter()
        .map(|&(start, end)| {
            let mut needed = r.col_idx()[row_ptr[start as usize]..row_ptr[end as usize]].to_vec();
            needed.sort_unstable();
            needed.dedup();
            needed.len() as u64
        })
        .sum()
}

impl SparkAlsStyle {
    /// Builds the solver.
    pub fn new(config: SparkAlsConfig, r: &Csr) -> Self {
        // Update-X ships Θ to the row partitions of R, update-Θ ships X to
        // those of Rᵀ.
        let vectors = vectors_shipped(r, config.partitions)
            + vectors_shipped(&r.transpose(), config.partitions);
        let shuffle = ShuffleStats {
            vectors_shipped: vectors,
            bytes_shipped: vectors * config.f as u64 * 4,
            distinct_vectors: u64::from(r.n_cols()) + u64::from(r.n_rows()),
        };
        Self {
            engine: als_util::als_engine(config.f, config.lambda, config.seed, r),
            train_entries: r.iter().collect(),
            shuffle,
            last_shuffle: ShuffleStats::default(),
        }
    }

    /// Communication statistics of the most recent iteration.
    pub fn last_shuffle(&self) -> ShuffleStats {
        self.last_shuffle
    }

    /// One full ALS iteration with partial replication in both halves.
    pub fn als_iteration(&mut self) {
        self.engine.iterate();
        self.last_shuffle = self.shuffle;
    }
}

impl Engine for SparkAlsStyle {
    fn name(&self) -> &'static str {
        "SparkALS (partial replication)"
    }

    fn train_sweep(&mut self) -> f64 {
        self.als_iteration();
        0.0
    }

    fn x(&self) -> &FactorMatrix {
        self.engine.x()
    }

    fn theta(&self) -> &FactorMatrix {
        self.engine.theta()
    }

    fn set_factors(&mut self, x: FactorMatrix, theta: FactorMatrix) {
        self.engine.set_factors(x, theta);
    }

    fn attach_metrics(&mut self, _metrics: Arc<TrainMetrics>) {}

    fn train_rmse(&self) -> f64 {
        self.rmse(&self.train_entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pals::{Pals, PalsConfig};
    use cumf_data::synth::SyntheticConfig;

    fn ratings() -> Csr {
        SyntheticConfig {
            m: 150,
            n: 90,
            nnz: 5000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate()
        .to_csr()
    }

    #[test]
    fn spark_als_converges_and_matches_pals() {
        let r = ratings();
        let mut spark = SparkAlsStyle::new(
            SparkAlsConfig {
                f: 8,
                partitions: 4,
                ..Default::default()
            },
            &r,
        );
        let mut pals = Pals::new(
            PalsConfig {
                f: 8,
                workers: 4,
                ..Default::default()
            },
            &r,
        );
        for _ in 0..2 {
            spark.train_sweep();
            pals.train_sweep();
        }
        // Partial replication must not change the ALS result.
        assert!(spark.x().max_abs_diff(pals.x()) < 1e-3);
        assert!(spark.train_rmse() < 0.5);
    }

    #[test]
    fn shuffle_statistics_are_recorded() {
        let r = ratings();
        let mut spark = SparkAlsStyle::new(
            SparkAlsConfig {
                f: 8,
                partitions: 4,
                ..Default::default()
            },
            &r,
        );
        spark.train_sweep();
        let s = spark.last_shuffle();
        assert!(s.vectors_shipped > 0);
        assert_eq!(s.bytes_shipped, s.vectors_shipped * 8 * 4);
        assert!(s.vectors_shipped >= s.distinct_vectors);
    }

    #[test]
    fn more_partitions_means_more_replication() {
        // The cuMF paper's point: partial replication still duplicates
        // popular columns, and it gets worse with more partitions.
        let r = ratings();
        let mut p2 = SparkAlsStyle::new(
            SparkAlsConfig {
                partitions: 2,
                ..Default::default()
            },
            &r,
        );
        let mut p8 = SparkAlsStyle::new(
            SparkAlsConfig {
                partitions: 8,
                ..Default::default()
            },
            &r,
        );
        p2.train_sweep();
        p8.train_sweep();
        assert!(p8.last_shuffle().vectors_shipped > p2.last_shuffle().vectors_shipped);
    }

    #[test]
    fn single_partition_ships_each_vector_once() {
        let r = ratings();
        let mut p1 = SparkAlsStyle::new(
            SparkAlsConfig {
                partitions: 1,
                ..Default::default()
            },
            &r,
        );
        p1.train_sweep();
        // With one partition the replication factor collapses to ≤ 1
        // (every referenced vector shipped exactly once).
        let s = p1.last_shuffle();
        assert!(s.vectors_shipped <= s.distinct_vectors);
    }
}
