//! Micro-benchmarks of the ALS kernels (the building blocks of Table 3):
//! the fused `get_hermitian` + solve, the same row loop summing SU-ALS's
//! partial Hermitians over column partitions, and the group Cholesky
//! solve standing in for the paper's batched `batch_solve`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cumf_core::als::kernels::{solve_rows, solve_side};
use cumf_data::synth::SyntheticConfig;
use cumf_linalg::blas::{add_diagonal, axpy, syr_axpy, syr_axpy_bin, syr_full};
use cumf_linalg::cholesky::{GroupSolver, GROUP};
use cumf_linalg::{cholesky_solve, FactorMatrix};
use cumf_sparse::Csr;
use std::hint::black_box;

fn workload(m: u32, n: u32, nnz: usize) -> (Csr, FactorMatrix) {
    let data = SyntheticConfig {
        m,
        n,
        nnz,
        rank: 8,
        seed: 7,
        ..Default::default()
    }
    .generate();
    let r = data.to_csr();
    let theta = FactorMatrix::random(n as usize, 32, 0.2, 3);
    (r, theta)
}

fn bench_get_hermitian(c: &mut Criterion) {
    let mut group = c.benchmark_group("get_hermitian_solve");
    group.sample_size(10);
    for &nnz in &[20_000usize, 80_000] {
        let (r, theta) = workload(2_000, 500, nnz);
        // One iteration processes every stored rating once.
        group.throughput(Throughput::Elements(r.nnz() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(nnz), &nnz, |b, _| {
            b.iter(|| black_box(solve_side(&r, &theta, 0.05, None)));
        });
    }
    group.finish();
}

/// The full-matrix reference (`syr_full` + `axpy`, `f²` multiplies per
/// rating) against the triangular kernel training runs (`syr_axpy`,
/// `f(f+1)/2`) on the identical assembly stream — the per-rating body of
/// `get_hermitian`, isolated from the Cholesky solve.  The two agree bit for
/// bit on the lower triangle (pinned in cumf-linalg and cumf-core); this
/// rung prices the triangle on its own, and then the register-tiled form
/// `als::kernels::assemble` feeds bins of 64 gathered `θ_v` into (same bits
/// again) at `f = 32` and `f = 64`, the two training workloads' ranks.
fn bench_hermitian_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("hermitian_assembly");
    let f = 32usize;
    let updates = 4_096usize;
    let vectors = FactorMatrix::random(updates, f, 0.5, 17);
    let vals: Vec<f32> = (0..updates).map(|i| 0.1 + (i % 5) as f32).collect();
    group.throughput(Throughput::Elements(updates as u64));
    group.bench_function("reference_syr_full_axpy_f32", |b| {
        b.iter(|| {
            let mut a = vec![0.0f32; f * f];
            let mut rhs = vec![0.0f32; f];
            for (i, &val) in vals.iter().enumerate() {
                let x = vectors.vector(i);
                syr_full(&mut a, x);
                axpy(val, x, &mut rhs);
            }
            black_box((a, rhs))
        });
    });
    group.bench_function("triangular_syr_axpy_f32", |b| {
        b.iter(|| {
            let mut a = vec![0.0f32; f * f];
            let mut rhs = vec![0.0f32; f];
            for (i, &val) in vals.iter().enumerate() {
                syr_axpy(&mut a, &mut rhs, vectors.vector(i), val);
            }
            black_box((a, rhs))
        });
    });
    for f in [32usize, 64] {
        let vectors = FactorMatrix::random(updates, f, 0.5, 17);
        group.bench_with_input(BenchmarkId::new("tiled_bins_of_64_f", f), &f, |b, &f| {
            b.iter(|| {
                let mut a = vec![0.0f32; f * f];
                let mut rhs = vec![0.0f32; f];
                for (bin, v) in vectors.data().chunks(64 * f).zip(vals.chunks(64)) {
                    syr_axpy_bin(&mut a, &mut rhs, bin, v);
                }
                black_box((a, rhs))
            });
        });
    }
    group.finish();
}

fn bench_partitioned_solve(c: &mut Criterion) {
    // SU-ALS's row loop: each row's Hermitian summed over p = 4 column
    // partitions (equation (5)), next to the same rows uncut.
    let mut group = c.benchmark_group("partitioned_solve");
    group.sample_size(10);
    let (r, theta) = workload(1_000, 400, 40_000);
    group.throughput(Throughput::Elements(r.nnz() as u64));
    for (name, cuts) in [
        ("1000x400_40k_f32_p1", &[][..]),
        ("1000x400_40k_f32_p4", &[100, 200, 300]),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(solve_rows(
                    &r,
                    32,
                    |v| theta.vector(v as usize),
                    cuts,
                    0.05,
                    None,
                ))
            });
        });
    }
    group.finish();
}

fn bench_batch_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_solve");
    group.sample_size(10);
    for &f in &[16usize, 32, 64] {
        let batch = 1_000usize;
        // Build SPD systems once; clone per iteration inside the timing loop.
        let mut hermitians = vec![0.0f32; batch * f * f];
        let gen = FactorMatrix::random(batch * 2, f, 1.0, 11);
        for i in 0..batch {
            let a = &mut hermitians[i * f * f..(i + 1) * f * f];
            syr_full(a, gen.vector(2 * i));
            syr_full(a, gen.vector(2 * i + 1));
            add_diagonal(a, f, 0.5);
        }
        let rhs = vec![1.0f32; batch * f];
        // One iteration solves `batch` independent SPD systems on one
        // thread: four per pass of the lane-interleaved group solver the
        // ALS row loop runs, then one at a time through the single-system
        // front door.
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(BenchmarkId::new("1000_systems_f", f), &f, |b, &f| {
            let mut solver = GroupSolver::new(f);
            b.iter(|| {
                let mut x = rhs.clone();
                let groups = hermitians
                    .chunks(GROUP * f * f)
                    .zip(x.chunks_mut(GROUP * f));
                for (a, x) in groups {
                    let status = solver.solve(a, x);
                    assert!(status.iter().all(Result::is_ok), "ridged systems factor");
                }
                black_box(x)
            });
        });
        group.bench_with_input(
            BenchmarkId::new("per_system_one_thread_f", f),
            &f,
            |b, &f| {
                b.iter(|| {
                    let mut a = hermitians.clone();
                    let mut x = rhs.clone();
                    for (a, x) in a.chunks_exact_mut(f * f).zip(x.chunks_exact_mut(f)) {
                        cholesky_solve(a, f, x).expect("ridged systems factor");
                    }
                    black_box(x)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_get_hermitian,
    bench_hermitian_assembly,
    bench_partitioned_solve,
    bench_batch_solve
);
criterion_main!(kernels);
