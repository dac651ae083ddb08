//! NOMAD-style asynchronous SGD.
//!
//! NOMAD (Yun et al., VLDB 2014 — the paper's strongest CPU baseline)
//! partitions the *rows* of `R` across workers and circulates *column
//! ownership* as lightweight tokens: whichever worker holds item `v`'s token
//! may update `θ_v` together with its own rows' `x_u`, then passes the token
//! on.  No locks are needed because a column is only ever owned by one
//! worker at a time, and row factors are private to their worker.
//!
//! This implementation reproduces that structure with OS threads and
//! crossbeam channels arranged in a ring.

use crate::als_util;
use crossbeam::channel::{unbounded, Receiver, Sender};
use cumf_core::sgd::sgd_step;
use cumf_core::{Engine, TrainMetrics};
use cumf_linalg::FactorMatrix;
use cumf_sparse::{split_ranges, Csc, Csr, Entry};
use rand::prelude::*;
use std::sync::Arc;

/// Hyper-parameters of the NOMAD solver.
#[derive(Debug, Clone, PartialEq)]
pub struct NomadConfig {
    /// Latent dimension `f`.
    pub f: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// L2 regularization.
    pub lambda: f32,
    /// Multiplicative learning-rate decay per epoch.
    pub decay: f32,
    /// Number of workers (threads).
    pub workers: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NomadConfig {
    fn default() -> Self {
        Self {
            f: 32,
            // 0.05 closes the init→mean gap of the recalibrated full-span
            // ratings in a handful of epochs (0.02 was tuned when ratings
            // concentrated near 2.0 and needed smaller steps).
            learning_rate: 0.05,
            lambda: 0.05,
            decay: 0.9,
            workers: 4,
            seed: 42,
        }
    }
}

/// A column token: the item index, its factor vector and how many workers it
/// has visited this epoch.
struct ColumnToken {
    col: u32,
    theta_v: Vec<f32>,
    hops: usize,
}

/// Per-worker static data: for each column, the ratings `(local_row, value)`
/// owned by this worker (row indices are local to the worker's contiguous
/// row range, whose offset lives in `NomadSgd::row_ranges`).
struct WorkerData {
    /// ratings_by_col[v] lists this worker's ratings in column v.
    ratings_by_col: Vec<Vec<(u32, f32)>>,
}

/// NOMAD-style asynchronous SGD solver.
pub struct NomadSgd {
    config: NomadConfig,
    train_entries: Vec<Entry>,
    workers_data: Vec<WorkerData>,
    row_ranges: Vec<(u32, u32)>,
    x: FactorMatrix,
    theta: FactorMatrix,
    epoch: usize,
}

impl NomadSgd {
    /// Builds the solver, assigning each worker a contiguous range of rows.
    pub fn new(config: NomadConfig, r: &Csr) -> Self {
        assert!(config.workers >= 1, "at least one worker required");
        let workers = config.workers.min(r.n_rows().max(1) as usize);
        let row_ranges = split_ranges(r.n_rows(), workers).expect("row partition");
        let csc = Csc::from_csr(r);

        let workers_data: Vec<WorkerData> = row_ranges
            .iter()
            .map(|&(start, end)| {
                let mut ratings_by_col = vec![Vec::new(); r.n_cols() as usize];
                for v in 0..r.n_cols() {
                    let (rows, vals) = csc.col(v);
                    for (&u, &val) in rows.iter().zip(vals.iter()) {
                        if u >= start && u < end {
                            ratings_by_col[v as usize].push((u - start, val));
                        }
                    }
                }
                WorkerData { ratings_by_col }
            })
            .collect();

        let mean = als_util::mean_rating(r);
        let x = als_util::init_factors_to_mean(r.n_rows() as usize, config.f, config.seed, mean);
        let theta =
            als_util::init_factors_to_mean(r.n_cols() as usize, config.f, config.seed ^ 0x99, mean);
        Self {
            config,
            train_entries: r.iter().collect(),
            workers_data,
            row_ranges,
            x,
            theta,
            epoch: 0,
        }
    }

    /// Number of workers actually used.
    pub fn n_workers(&self) -> usize {
        self.row_ranges.len()
    }

    /// One epoch: every column token makes one full circle around the ring,
    /// so every rating is visited exactly once.
    fn epoch(&mut self) {
        let workers = self.n_workers();
        let f = self.config.f;
        let alpha = self.config.learning_rate * self.config.decay.powi(self.epoch as i32);
        let lambda = self.config.lambda;

        // Ring channels plus a collector for finished tokens.
        let (senders, receivers): (Vec<Sender<ColumnToken>>, Vec<Receiver<ColumnToken>>) =
            (0..workers).map(|_| unbounded()).unzip();
        let (done_tx, done_rx) = unbounded::<ColumnToken>();

        // Seed tokens round-robin, starting at a rotating offset so columns
        // do not always start at the same worker.
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ (self.epoch as u64 + 1));
        for v in 0..self.theta.len() as u32 {
            let start = rng.random_range(0..workers);
            let token = ColumnToken {
                col: v,
                theta_v: self.theta.vector(v as usize).to_vec(),
                hops: 0,
            };
            senders[start].send(token).expect("ring channel open");
        }

        // Split X into per-worker mutable chunks.
        let x_chunks: Vec<&mut [f32]> = {
            let mut out = Vec::with_capacity(workers);
            let mut rest = self.x.data_mut();
            for &(start, end) in &self.row_ranges {
                let len = (end - start) as usize * f;
                let (head, tail) = rest.split_at_mut(len);
                out.push(head);
                rest = tail;
            }
            out
        };

        let n_cols = self.theta.len();
        std::thread::scope(|scope| {
            for (w, x_chunk) in x_chunks.into_iter().enumerate() {
                let rx = receivers[w].clone();
                let next_tx = senders[(w + 1) % workers].clone();
                let done_tx = done_tx.clone();
                let data = &self.workers_data[w];
                scope.spawn(move || {
                    // Every token visits every worker exactly once per epoch,
                    // so each worker processes exactly n_cols tokens and then
                    // exits — no shutdown signalling needed.
                    for _ in 0..n_cols {
                        let Ok(mut token) = rx.recv() else { break };
                        let ratings = &data.ratings_by_col[token.col as usize];
                        for &(local_row, val) in ratings {
                            let xo = local_row as usize * f;
                            let x_u = &mut x_chunk[xo..xo + f];
                            sgd_step(x_u, &mut token.theta_v, val, alpha, lambda);
                        }
                        token.hops += 1;
                        if token.hops >= workers {
                            done_tx.send(token).ok();
                        } else {
                            next_tx.send(token).ok();
                        }
                    }
                });
            }
            // Collector: once every column's token has completed its circle,
            // write the updated θ back and drop the senders so workers exit.
            let mut collected = 0usize;
            while collected < n_cols {
                let token = done_rx.recv().expect("all tokens eventually finish");
                self.theta
                    .vector_mut(token.col as usize)
                    .copy_from_slice(&token.theta_v);
                collected += 1;
            }
            drop(senders);
        });

        self.epoch += 1;
    }
}

impl Engine for NomadSgd {
    fn name(&self) -> &'static str {
        "NOMAD (async SGD)"
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
            n: 100,
            nnz: 7000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate()
        .to_csr()
    }

    #[test]
    fn nomad_converges() {
        let r = ratings();
        let mut solver = NomadSgd::new(
            NomadConfig {
                f: 8,
                workers: 4,
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
            "NOMAD should converge: {before} -> {after}"
        );
    }

    #[test]
    fn single_worker_matches_plain_sgd_behaviour() {
        let r = ratings();
        let mut solver = NomadSgd::new(
            NomadConfig {
                f: 8,
                workers: 1,
                ..Default::default()
            },
            &r,
        );
        for _ in 0..5 {
            solver.train_sweep();
        }
        assert!(solver.train_rmse() < 0.6);
        assert_eq!(solver.n_workers(), 1);
    }

    #[test]
    fn worker_count_is_clamped() {
        let r = SyntheticConfig {
            m: 3,
            n: 50,
            nnz: 100,
            ..Default::default()
        }
        .generate()
        .to_csr();
        let solver = NomadSgd::new(
            NomadConfig {
                workers: 64,
                ..Default::default()
            },
            &r,
        );
        assert!(solver.n_workers() <= 3);
    }

    #[test]
    fn every_rating_is_indexed_once() {
        let r = ratings();
        let solver = NomadSgd::new(
            NomadConfig {
                workers: 4,
                ..Default::default()
            },
            &r,
        );
        let total: usize = solver
            .workers_data
            .iter()
            .flat_map(|w| w.ratings_by_col.iter().map(|c| c.len()))
            .sum();
        assert_eq!(total, r.nnz());
    }

    #[test]
    fn factors_stay_finite() {
        let r = ratings();
        let mut solver = NomadSgd::new(
            NomadConfig {
                f: 8,
                workers: 3,
                ..Default::default()
            },
            &r,
        );
        for _ in 0..5 {
            solver.train_sweep();
        }
        assert!(solver.x().data().iter().all(|v| v.is_finite()));
        assert!(solver.theta().data().iter().all(|v| v.is_finite()));
    }
}
