//! Starts shared by the baselines, and the one engine behind both ALS
//! baselines.
//!
//! The baselines are schedules over `cumf-core`'s update rules: PALS and
//! SparkALS sweep with the reference [`AlsEngine`] (no simulated cluster),
//! HOGWILD! is an [`cumf_core::sgd::SgdEngine`], and libMF and NOMAD call
//! [`cumf_core::sgd::sgd_step`].  What each keeps for itself is its start
//! (below), its schedule and its replication accounting; CCD++ also keeps
//! its coordinate update, which no core engine runs.

use cumf_core::als::AlsEngine;
use cumf_core::AlsConfig;
use cumf_linalg::FactorMatrix;
use cumf_sparse::Csr;

/// Random factor initialization shared by the baselines (same scaling as the
/// core engines so convergence curves are comparable).
fn init_factors(n: usize, f: usize, seed: u64) -> FactorMatrix {
    FactorMatrix::random(n, f, 1.0 / (f as f32).sqrt(), seed)
}

/// The reference ALS engine over `r` with weighted-λ `lambda`, started from
/// [`init_factors`] seeded `seed` (`X`) and `seed ^ 0x7e7a` (`Θ`): the ALS
/// baselines' start.
///
/// # Panics
/// Panics if `f` is 0 or `lambda` is negative ([`AlsConfig::validate`]).
pub(crate) fn als_engine(f: usize, lambda: f32, seed: u64, r: &Csr) -> AlsEngine {
    let config = AlsConfig {
        f,
        lambda,
        iterations: 1,
        seed,
        ..Default::default()
    };
    let mut engine = AlsEngine::new(config, r.clone());
    engine.set_factors(
        init_factors(r.n_rows() as usize, f, seed),
        init_factors(r.n_cols() as usize, f, seed ^ 0x7e7a),
    );
    engine
}

/// Mean of the stored ratings (1.0 for an empty matrix).
pub(crate) fn mean_rating(r: &Csr) -> f32 {
    if r.nnz() == 0 {
        return 1.0;
    }
    let sum: f64 = r.values().iter().map(|&v| v as f64).sum();
    (sum / r.nnz() as f64) as f32
}

/// Random factor initialization whose initial predictions center on `mean`:
/// entries uniform in `[0, 2·√(mean/f))`, so `E[x·θ] = mean`.  The SGD-style
/// baselines (libMF, NOMAD, HOGWILD!, CCD++) start this way — as the real
/// libMF does — because gradient steps close the gap to the rating mean
/// slowly, unlike an ALS sweep which jumps there in one solve.
pub(crate) fn init_factors_to_mean(n: usize, f: usize, seed: u64, mean: f32) -> FactorMatrix {
    let scale = 2.0 * (mean.max(0.0) / f as f32).sqrt();
    FactorMatrix::random(n, f, scale.max(1e-3), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_factors_is_seeded() {
        assert_eq!(init_factors(10, 4, 7), init_factors(10, 4, 7));
        assert_ne!(init_factors(10, 4, 7), init_factors(10, 4, 8));
    }
}
