//! CCD++ cyclic coordinate descent (Yu et al., ICDM 2012).
//!
//! CCD++ updates one latent dimension at a time: with all other dimensions
//! fixed, the rank-one sub-problem for dimension `k` has a closed-form
//! coordinate update.  Keeping an explicit residual over the observed
//! entries makes each full sweep `O(Nz · f)` — cheaper per iteration than
//! ALS's `O(Nz · f²)`, at the price of less progress per iteration (the
//! trade-off §6.2 of the cuMF paper describes).

use crate::als_util;
use cumf_core::{Engine, TrainMetrics};
use cumf_linalg::FactorMatrix;
use cumf_sparse::{Csc, Csr, Entry};
use rayon::prelude::*;
use std::sync::Arc;

/// Hyper-parameters of the CCD++ solver.
#[derive(Debug, Clone, PartialEq)]
pub struct CcdConfig {
    /// Latent dimension `f`.
    pub f: usize,
    /// L2 regularization.
    pub lambda: f32,
    /// Inner sweeps per rank-one sub-problem.
    pub inner_iterations: usize,
    /// RNG seed for initialization.
    pub seed: u64,
}

impl Default for CcdConfig {
    fn default() -> Self {
        Self {
            f: 32,
            lambda: 0.05,
            inner_iterations: 2,
            seed: 42,
        }
    }
}

/// CCD++ solver with an explicitly maintained residual.
pub struct CcdPlusPlus {
    config: CcdConfig,
    r: Csr,
    r_t: Csc,
    x: FactorMatrix,
    theta: FactorMatrix,
    /// Residual `r_uv − x_uᵀθ_v` aligned with `r`'s value array.
    residual: Vec<f32>,
}

impl CcdPlusPlus {
    /// Builds the solver and initializes the residual from the (random)
    /// initial factors.
    pub fn new(config: CcdConfig, r: &Csr) -> Self {
        let mean = als_util::mean_rating(r);
        let x = als_util::init_factors_to_mean(r.n_rows() as usize, config.f, config.seed, mean);
        let theta =
            als_util::init_factors_to_mean(r.n_cols() as usize, config.f, config.seed ^ 0x33, mean);
        let r_t = r.to_csc();
        let mut solver = Self {
            config,
            r: r.clone(),
            r_t,
            x,
            theta,
            residual: vec![0.0; r.nnz()],
        };
        solver.recompute_residual();
        solver
    }

    fn recompute_residual(&mut self) {
        let x = &self.x;
        let theta = &self.theta;
        let r = &self.r;
        let mut residual = vec![0.0f32; r.nnz()];
        let row_ptr = r.row_ptr().to_vec();
        residual.par_iter_mut().enumerate().for_each(|(idx, res)| {
            // Find the row of this entry by binary search in row_ptr.
            let u = row_ptr.partition_point(|&p| p <= idx) - 1;
            let v = r.col_idx()[idx] as usize;
            *res = r.values()[idx] - cumf_linalg::blas::dot(x.vector(u), theta.vector(v));
        });
        self.residual = residual;
    }

    /// Index of entry `(u, idx_in_row)` in the CSR value array.
    fn entry_index(&self, u: u32, pos_in_row: usize) -> usize {
        self.r.row_ptr()[u as usize] + pos_in_row
    }

    /// One full CCD++ iteration: a sweep over all `f` latent dimensions.
    fn sweep(&mut self) {
        let f = self.config.f;
        let lambda = self.config.lambda;

        for k in 0..f {
            // Add the rank-one contribution of dimension k back into the
            // residual: residual += u_k(u) * v_k(v).
            self.add_rank_one_to_residual(k, 1.0);

            for _ in 0..self.config.inner_iterations {
                // Update u_k for every row.
                for u in 0..self.r.n_rows() {
                    let (cols, _) = self.r.row(u);
                    if cols.is_empty() {
                        continue;
                    }
                    let mut num = 0.0f64;
                    let mut den = lambda as f64 * cols.len() as f64;
                    for (pos, &v) in cols.iter().enumerate() {
                        let idx = self.entry_index(u, pos);
                        let vk = self.theta.vector(v as usize)[k] as f64;
                        num += self.residual[idx] as f64 * vk;
                        den += vk * vk;
                    }
                    self.x.vector_mut(u as usize)[k] = (num / den) as f32;
                }
                // Update v_k for every column (walking the CSC mirror).
                for v in 0..self.r_t.n_cols() {
                    let (rows, _) = self.r_t.col(v);
                    if rows.is_empty() {
                        continue;
                    }
                    let mut num = 0.0f64;
                    let mut den = lambda as f64 * rows.len() as f64;
                    for &u in rows {
                        let (cols, _) = self.r.row(u);
                        let pos = cols.binary_search(&v).expect("entry exists in both views");
                        let idx = self.entry_index(u, pos);
                        let uk = self.x.vector(u as usize)[k] as f64;
                        num += self.residual[idx] as f64 * uk;
                        den += uk * uk;
                    }
                    self.theta.vector_mut(v as usize)[k] = (num / den) as f32;
                }
            }

            // Remove the (updated) rank-one contribution from the residual.
            self.add_rank_one_to_residual(k, -1.0);
        }
    }

    fn add_rank_one_to_residual(&mut self, k: usize, sign: f32) {
        let r = &self.r;
        let x = &self.x;
        let theta = &self.theta;
        for u in 0..r.n_rows() {
            let (cols, _) = r.row(u);
            let uk = x.vector(u as usize)[k];
            for (pos, &v) in cols.iter().enumerate() {
                let idx = r.row_ptr()[u as usize] + pos;
                self.residual[idx] += sign * uk * theta.vector(v as usize)[k];
            }
        }
    }
}

impl Engine for CcdPlusPlus {
    fn name(&self) -> &'static str {
        "CCD++"
    }

    fn train_sweep(&mut self) -> f64 {
        self.sweep();
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
        // The residual caches r − XΘᵀ, so replacing the factors invalidates
        // it; CCD++'s correctness depends on it being exact.
        self.recompute_residual();
    }

    fn attach_metrics(&mut self, _metrics: Arc<TrainMetrics>) {}

    fn train_rmse(&self) -> f64 {
        let entries: Vec<Entry> = self.r.iter().collect();
        self.rmse(&entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_data::synth::SyntheticConfig;

    /// Root-mean-square of the maintained residual (training RMSE computed
    /// incrementally).
    fn residual_rmse(solver: &CcdPlusPlus) -> f64 {
        if solver.residual.is_empty() {
            return 0.0;
        }
        let se: f64 = solver
            .residual
            .iter()
            .map(|&r| (r as f64) * (r as f64))
            .sum();
        (se / solver.residual.len() as f64).sqrt()
    }

    fn ratings() -> Csr {
        SyntheticConfig {
            m: 120,
            n: 80,
            nnz: 4000,
            rank: 4,
            noise_std: 0.05,
            ..Default::default()
        }
        .generate()
        .to_csr()
    }

    #[test]
    fn ccd_converges() {
        let r = ratings();
        let mut solver = CcdPlusPlus::new(
            CcdConfig {
                f: 8,
                ..Default::default()
            },
            &r,
        );
        let before = solver.train_rmse();
        for _ in 0..5 {
            solver.train_sweep();
        }
        let after = solver.train_rmse();
        assert!(
            after < before * 0.6,
            "CCD++ should converge: {before} -> {after}"
        );
    }

    #[test]
    fn maintained_residual_matches_recomputed_rmse() {
        let r = ratings();
        let mut solver = CcdPlusPlus::new(
            CcdConfig {
                f: 6,
                ..Default::default()
            },
            &r,
        );
        solver.train_sweep();
        let maintained = residual_rmse(&solver);
        let recomputed = solver.train_rmse();
        assert!(
            (maintained - recomputed).abs() < 1e-3,
            "residual bookkeeping drifted: {maintained} vs {recomputed}"
        );
    }

    #[test]
    fn initial_residual_matches_initial_rmse() {
        let r = ratings();
        let solver = CcdPlusPlus::new(
            CcdConfig {
                f: 6,
                ..Default::default()
            },
            &r,
        );
        assert!((residual_rmse(&solver) - solver.train_rmse()).abs() < 1e-3);
    }

    #[test]
    fn more_inner_iterations_do_not_hurt() {
        let r = ratings();
        let mut one = CcdPlusPlus::new(
            CcdConfig {
                f: 8,
                inner_iterations: 1,
                ..Default::default()
            },
            &r,
        );
        let mut three = CcdPlusPlus::new(
            CcdConfig {
                f: 8,
                inner_iterations: 3,
                ..Default::default()
            },
            &r,
        );
        for _ in 0..3 {
            one.train_sweep();
            three.train_sweep();
        }
        assert!(three.train_rmse() <= one.train_rmse() * 1.05);
    }
}
