//! libMF-style blocked parallel SGD.
//!
//! libMF (and DSGD before it) partitions `R` into a `T × T` grid and runs
//! `T` conflict-free blocks at a time: in rotation `s`, thread `t` owns row
//! block `t` and column block `(t + s) mod T`, so no two threads ever touch
//! the same row of `X` or the same column of `Θ`.  One epoch performs `T`
//! rotations and therefore visits every rating exactly once.

use crate::als_util;
use cumf_core::sgd::sgd_step;
use cumf_core::{Engine, TrainMetrics};
use cumf_linalg::FactorMatrix;
use cumf_sparse::{split_ranges, Csr, Entry};
use rand::prelude::*;
use std::sync::Arc;

/// Hyper-parameters of the blocked SGD solver.
#[derive(Debug, Clone, PartialEq)]
pub struct LibMfConfig {
    /// Latent dimension `f`.
    pub f: usize,
    /// Initial learning rate.
    pub learning_rate: f32,
    /// L2 regularization.
    pub lambda: f32,
    /// Multiplicative learning-rate decay per epoch.
    pub decay: f32,
    /// Number of worker threads (= grid dimension `T`).
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LibMfConfig {
    fn default() -> Self {
        Self {
            f: 32,
            // 0.05 closes the init→mean gap of the recalibrated full-span
            // ratings in a handful of epochs (0.02 was tuned when ratings
            // concentrated near 2.0 and needed smaller steps).
            learning_rate: 0.05,
            lambda: 0.05,
            decay: 0.9,
            threads: 4,
            seed: 42,
        }
    }
}

/// A rating expressed in block-local coordinates.
#[derive(Debug, Clone, Copy)]
struct LocalRating {
    row: u32,
    col: u32,
    val: f32,
}

/// libMF-style blocked SGD solver.
pub struct LibMfSgd {
    config: LibMfConfig,
    train_entries: Vec<Entry>,
    x: FactorMatrix,
    theta: FactorMatrix,
    row_ranges: Vec<(u32, u32)>,
    col_ranges: Vec<(u32, u32)>,
    /// blocks[t][c]: ratings of row block `t` × column block `c`.
    blocks: Vec<Vec<Vec<LocalRating>>>,
    epoch: usize,
}

impl LibMfSgd {
    /// Builds the solver, pre-partitioning the ratings into the `T × T` grid.
    pub fn new(config: LibMfConfig, r: &Csr) -> Self {
        assert!(config.threads >= 1, "at least one thread required");
        let t = config
            .threads
            .min(r.n_rows().max(1) as usize)
            .min(r.n_cols().max(1) as usize);
        let row_ranges = split_ranges(r.n_rows(), t).expect("row partition");
        let col_ranges = split_ranges(r.n_cols(), t).expect("column partition");

        let mut blocks = vec![vec![Vec::new(); t]; t];
        for e in r.iter() {
            let bi = row_ranges.partition_point(|&(_, end)| end <= e.row);
            let bj = col_ranges.partition_point(|&(_, end)| end <= e.col);
            blocks[bi][bj].push(LocalRating {
                row: e.row - row_ranges[bi].0,
                col: e.col - col_ranges[bj].0,
                val: e.val,
            });
        }
        // Shuffle each block once so SGD does not sweep in row-major order.
        let mut rng = StdRng::seed_from_u64(config.seed);
        for row in &mut blocks {
            for block in row {
                for i in (1..block.len()).rev() {
                    let j = rng.random_range(0..=i);
                    block.swap(i, j);
                }
            }
        }

        let mean = als_util::mean_rating(r);
        let x = als_util::init_factors_to_mean(r.n_rows() as usize, config.f, config.seed, mean);
        let theta = als_util::init_factors_to_mean(
            r.n_cols() as usize,
            config.f,
            config.seed ^ 0x5151,
            mean,
        );
        Self {
            config,
            train_entries: r.iter().collect(),
            x,
            theta,
            row_ranges,
            col_ranges,
            blocks,
            epoch: 0,
        }
    }

    /// Number of grid partitions per dimension actually used.
    fn grid_dim(&self) -> usize {
        self.row_ranges.len()
    }

    fn split_by_ranges<'a>(
        data: &'a mut [f32],
        ranges: &[(u32, u32)],
        f: usize,
    ) -> Vec<&'a mut [f32]> {
        let mut out = Vec::with_capacity(ranges.len());
        let mut rest = data;
        for &(start, end) in ranges {
            let len = (end - start) as usize * f;
            let (head, tail) = rest.split_at_mut(len);
            out.push(head);
            rest = tail;
        }
        out
    }

    /// One epoch: `T` conflict-free rotations over the block grid.
    fn epoch(&mut self) {
        let t = self.grid_dim();
        let f = self.config.f;
        let alpha = self.config.learning_rate * self.config.decay.powi(self.epoch as i32);
        let lambda = self.config.lambda;

        for s in 0..t {
            let x_chunks = Self::split_by_ranges(self.x.data_mut(), &self.row_ranges, f);
            let mut theta_chunks: Vec<Option<&mut [f32]>> =
                Self::split_by_ranges(self.theta.data_mut(), &self.col_ranges, f)
                    .into_iter()
                    .map(Some)
                    .collect();
            std::thread::scope(|scope| {
                for (ti, x_chunk) in x_chunks.into_iter().enumerate() {
                    let cj = (ti + s) % t;
                    let theta_chunk = theta_chunks[cj]
                        .take()
                        .expect("each column block used once per rotation");
                    let block = &self.blocks[ti][cj];
                    scope.spawn(move || {
                        for rating in block {
                            let xo = rating.row as usize * f;
                            let to = rating.col as usize * f;
                            let x_u = &mut x_chunk[xo..xo + f];
                            let theta_v = &mut theta_chunk[to..to + f];
                            sgd_step(x_u, theta_v, rating.val, alpha, lambda);
                        }
                    });
                }
            });
        }
        self.epoch += 1;
    }
}

impl Engine for LibMfSgd {
    fn name(&self) -> &'static str {
        "libMF (blocked SGD)"
    }

    fn train_sweep(&mut self) -> f64 {
        self.epoch();
        0.0
    }

    fn x(&self) -> &FactorMatrix {
        &self.x
    }

    fn theta(&self) -> &FactorMatrix {
        &self.theta
    }

    fn set_factors(&mut self, x: FactorMatrix, theta: FactorMatrix) {
        assert_eq!(x.len(), self.x.len(), "X has the wrong number of rows");
        assert_eq!(
            theta.len(),
            self.theta.len(),
            "Θ has the wrong number of rows"
        );
        assert_eq!(x.rank(), self.config.f, "X has the wrong rank");
        assert_eq!(theta.rank(), self.config.f, "Θ has the wrong rank");
        self.x = x;
        self.theta = theta;
    }

    fn attach_metrics(&mut self, _metrics: Arc<TrainMetrics>) {}

    fn train_rmse(&self) -> f64 {
        self.rmse(&self.train_entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_data::synth::SyntheticConfig;

    fn ratings() -> Csr {
        SyntheticConfig {
            m: 200,
            n: 120,
            nnz: 8000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate()
        .to_csr()
    }

    #[test]
    fn training_error_decreases_over_epochs() {
        let r = ratings();
        let mut solver = LibMfSgd::new(
            LibMfConfig {
                f: 8,
                threads: 4,
                ..Default::default()
            },
            &r,
        );
        let before = solver.train_rmse();
        for _ in 0..10 {
            solver.train_sweep();
        }
        let after = solver.train_rmse();
        assert!(
            after < before * 0.7,
            "libMF should converge: {before} -> {after}"
        );
    }

    #[test]
    fn thread_count_does_not_break_convergence() {
        let r = ratings();
        for threads in [1, 2, 8] {
            let mut solver = LibMfSgd::new(
                LibMfConfig {
                    f: 8,
                    threads,
                    ..Default::default()
                },
                &r,
            );
            for _ in 0..6 {
                solver.train_sweep();
            }
            assert!(
                solver.train_rmse() < 0.6,
                "{threads}-thread run failed to converge"
            );
        }
    }

    #[test]
    fn grid_dim_is_clamped_to_matrix_size() {
        let r = SyntheticConfig {
            m: 3,
            n: 100,
            nnz: 200,
            ..Default::default()
        }
        .generate()
        .to_csr();
        let solver = LibMfSgd::new(
            LibMfConfig {
                threads: 16,
                ..Default::default()
            },
            &r,
        );
        assert!(solver.grid_dim() <= 3);
    }

    #[test]
    fn blocks_cover_every_rating_exactly_once() {
        let r = ratings();
        let solver = LibMfSgd::new(
            LibMfConfig {
                threads: 5,
                ..Default::default()
            },
            &r,
        );
        let total: usize = solver
            .blocks
            .iter()
            .flat_map(|row| row.iter().map(|b| b.len()))
            .sum();
        assert_eq!(total, r.nnz());
    }

    #[test]
    fn solver_name_is_stable() {
        let r = ratings();
        let solver = LibMfSgd::new(LibMfConfig::default(), &r);
        assert!(solver.name().contains("libMF"));
    }
}
