//! Convergence-trajectory pin for the single-precision row solver (the
//! paper's fig. 6 asks the same question of its FP32 `batch_solve`): ALS
//! trained through the production f32 Cholesky must follow, sweep by sweep,
//! the RMSE of the same sweeps with every row solved in f64.

use cumf_core::als::AlsEngine;
use cumf_core::config::AlsConfig;
use cumf_core::loss::rmse_csr;
use cumf_data::synth::SyntheticConfig;
use cumf_linalg::blas::{add_diagonal, syr_axpy};
use cumf_linalg::FactorMatrix;
use cumf_sparse::Csr;

/// `A·x = b` by Cholesky with every value held in f64 (only the lower
/// triangle of `a` is read); `None` where a pivot is not positive.
fn solve_f64(a: &[f32], f: usize, b: &[f32]) -> Option<Vec<f32>> {
    let mut l: Vec<f64> = a.iter().map(|&v| v as f64).collect();
    let mut x: Vec<f64> = b.iter().map(|&v| v as f64).collect();
    for j in 0..f {
        let d = (0..j).fold(l[j * f + j], |d, k| d - l[j * f + k] * l[j * f + k]);
        if d <= 0.0 || !d.is_finite() {
            return None;
        }
        l[j * f + j] = d.sqrt();
        for i in (j + 1)..f {
            let s = (0..j).fold(l[i * f + j], |s, k| s - l[i * f + k] * l[j * f + k]);
            l[i * f + j] = s / l[j * f + j];
        }
    }
    for i in 0..f {
        x[i] = (0..i).fold(x[i], |s, k| s - l[i * f + k] * x[k]) / l[i * f + i];
    }
    for i in (0..f).rev() {
        x[i] = ((i + 1)..f).fold(x[i], |s, k| s - l[k * f + i] * x[k]) / l[i * f + i];
    }
    Some(x.into_iter().map(|v| v as f32).collect())
}

/// One ALS half-iteration with the oracle solve: the production assembly
/// and ridge, then [`solve_f64`]; empty and non-SPD rows stay zero.
fn solve_side_f64(r: &Csr, fixed: &FactorMatrix, lambda: f32) -> FactorMatrix {
    let f = fixed.rank();
    let mut out = FactorMatrix::zeros(r.n_rows() as usize, f);
    for u in 0..r.n_rows() {
        let (cols, vals) = r.row(u);
        if cols.is_empty() {
            continue;
        }
        let (mut a, mut b) = (vec![0.0f32; f * f], vec![0.0f32; f]);
        for (&v, &val) in cols.iter().zip(vals) {
            syr_axpy(&mut a, &mut b, fixed.vector(v as usize), val);
        }
        add_diagonal(&mut a, f, lambda * cols.len() as f32);
        if let Some(x) = solve_f64(&a, f, &b) {
            out.vector_mut(u as usize).copy_from_slice(&x);
        }
    }
    out
}

fn zeroed_rows(m: &FactorMatrix) -> usize {
    (0..m.len())
        .filter(|&u| m.vector(u).iter().all(|&v| v == 0.0))
        .count()
}

#[test]
fn f32_solver_follows_the_f64_trajectory() {
    // Sparse enough that most rows have fewer ratings than `f` (the ridge
    // alone makes them SPD) and a few items have none at all.
    let r = SyntheticConfig {
        m: 400,
        n: 150,
        nnz: 1400,
        rank: 6,
        noise_std: 0.1,
        seed: 17,
        ..Default::default()
    }
    .generate()
    .to_csr();
    let r_t = r.transpose();
    for f in [32usize, 64] {
        let config = AlsConfig {
            f,
            lambda: 0.05,
            iterations: 4,
            seed: 5,
            ..Default::default()
        };
        let mut engine = AlsEngine::on_titan_x(config.clone(), r.clone());
        let mut theta = engine.theta().clone();
        for sweep in 1..=4 {
            engine.iterate();
            let x = solve_side_f64(&r, &theta, config.lambda);
            theta = solve_side_f64(&r_t, &x, config.lambda);

            let (got, want) = (engine.train_rmse(), rmse_csr(&x, &theta, &r));
            assert!(
                (got - want).abs() < 1e-4,
                "f {f} sweep {sweep}: f32 rmse {got} vs f64 rmse {want}"
            );
            assert_eq!(zeroed_rows(engine.x()), zeroed_rows(&x), "f {f} X");
            assert_eq!(zeroed_rows(engine.theta()), zeroed_rows(&theta), "f {f} Θ");
        }
        assert!(zeroed_rows(&theta) > 0, "the problem has unrated items");
    }
}
