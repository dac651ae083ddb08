//! End-to-end engine benchmarks: one full ALS iteration of the reference
//! engine, MO-ALS (with and without memory optimizations — the wall-clock
//! companion of Figures 7/8) and SU-ALS on 1–4 simulated GPUs (the
//! wall-clock companion of Figure 9).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cumf_core::als::{AlsEngine, Placement};
use cumf_core::config::{AlsConfig, MemoryOptConfig};
use cumf_core::planner::PartitionPlan;
use cumf_core::reduce::ReductionScheme;
use cumf_data::synth::SyntheticConfig;
use cumf_gpu_sim::GpuCluster;
use cumf_sparse::Csr;
use std::hint::black_box;

fn ratings() -> Csr {
    SyntheticConfig {
        m: 3_000,
        n: 800,
        nnz: 120_000,
        rank: 8,
        seed: 5,
        ..Default::default()
    }
    .generate()
    .to_csr()
}

fn config(opts: MemoryOptConfig) -> AlsConfig {
    AlsConfig {
        f: 32,
        lambda: 0.05,
        iterations: 1,
        memory_opt: opts,
        track_rmse: false,
        ..Default::default()
    }
}

fn bench_reference_iteration(c: &mut Criterion) {
    let r = ratings();
    let mut group = c.benchmark_group("engine_iteration");
    group.sample_size(10);
    group.bench_function("reference_als", |b| {
        b.iter(|| {
            let mut engine = AlsEngine::new(config(MemoryOptConfig::optimized()), r.clone());
            engine.iterate();
            black_box(engine.train_rmse());
        });
    });
    group.finish();
}

fn bench_mo_als_ablation(c: &mut Criterion) {
    // Figures 7/8 wall-clock companion: the numerics are identical, so the
    // wall time is flat across configurations — the *simulated* time (what
    // `repro fig7`/`fig8` prints) is where the paper's effect shows up.
    let r = ratings();
    let mut group = c.benchmark_group("fig7_fig8_mo_als");
    group.sample_size(10);
    for (name, opts) in [
        ("optimized", MemoryOptConfig::optimized()),
        ("no_registers", MemoryOptConfig::without_registers()),
        ("no_texture", MemoryOptConfig::without_texture()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &opts, |b, &opts| {
            b.iter(|| {
                let mut engine = AlsEngine::on_titan_x(config(opts), r.clone());
                black_box(engine.iterate());
            });
        });
    }
    group.finish();
}

fn bench_su_als_scaling(c: &mut Criterion) {
    // Figure 9 wall-clock companion: the host CPU does the same numerics
    // regardless of the simulated GPU count; the simulated speedup is
    // reported by `repro fig9`.
    let r = ratings();
    let mut group = c.benchmark_group("fig9_su_als");
    group.sample_size(10);
    for &n_gpus in &[1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(n_gpus),
            &n_gpus,
            |b, &n_gpus| {
                b.iter(|| {
                    let cluster = GpuCluster::titan_x_flat(n_gpus);
                    let placement = Placement::Grid {
                        reduction: ReductionScheme::OnePhase,
                        plan: Some(PartitionPlan { p: n_gpus, q: 2 }),
                    };
                    let config = config(MemoryOptConfig::optimized());
                    let mut engine = AlsEngine::on_cluster(config, r.clone(), cluster, placement);
                    black_box(engine.iterate());
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    engines,
    bench_reference_iteration,
    bench_mo_als_ablation,
    bench_su_als_scaling
);
criterion_main!(engines);
