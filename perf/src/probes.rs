//! Probes that time one public function of a layer on pinned inputs, and
//! the two host ceilings they are compared with.
//!
//! The host numbers exist to diagnose, not to normalise: on a shared box
//! the memory-bound scan and an L1-resident loop drift by different
//! amounts, so no single calibration factor corrects a run.

use crate::api::{self, Histogram};
use crate::stats::{median, Rng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Median over `reps` timings of `body`, in seconds.
fn median_s(reps: usize, mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// Multiply-adds per second of an L1-resident loop the compiler
    /// vectorizes as it does the repository's kernels (safe Rust, default
    /// target features), in GFLOP/s.
    pub fma_gflops: f64,
    /// Read bandwidth over an array several times any cache here, in GB/s.
    pub stream_gbps: f64,
}

pub fn host() -> Host {
    const LANES: usize = 64;
    const STEPS: usize = 400_000;
    let mut acc = [1.0f32; LANES];
    let fma_s = median_s(5, || {
        let (a, b) = (black_box(0.999_999f32), black_box(1e-6f32));
        for _ in 0..STEPS {
            for x in acc.iter_mut() {
                *x = *x * a + b;
            }
        }
        black_box(&mut acc);
    });

    // 64 MiB: at least four times the last-level cache of the boxes this
    // runs on; the traced child that owns it reports no `peak_rss_mb`.
    const WORDS: usize = 16 << 20;
    let big: Vec<f32> = (0..WORDS).map(|i| i as f32).collect();
    let stream_s = median_s(5, || {
        let mut sums = [0.0f32; 16];
        for chunk in black_box(&big).chunks_exact(16) {
            for (s, v) in sums.iter_mut().zip(chunk) {
                *s += v;
            }
        }
        black_box(sums);
    });
    Host {
        fma_gflops: (2 * LANES * STEPS) as f64 / fma_s / 1e9,
        stream_gbps: (WORDS * 4) as f64 / stream_s / 1e9,
    }
}

/// The larger relative change between two host readings.
pub fn drift(before: Host, after: Host) -> f64 {
    let rel = |a: f64, b: f64| (b - a).abs() / a;
    rel(before.fma_gflops, after.fma_gflops).max(rel(before.stream_gbps, after.stream_gbps))
}

fn random_rows(rows: usize, f: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::new(seed, 0x6b65726e);
    (0..rows * f).map(|_| 2.0 * rng.unit() - 1.0).collect()
}

/// `syr_axpy` over the rows of a 600-row factor matrix (the item side of
/// `train_dense`; L2-resident), into one Hermitian that stays in L1.
fn syr_axpy_gflops(f: usize, seed: u64) -> f64 {
    const ROWS: usize = 600;
    const PASSES: usize = 40;
    let theta = random_rows(ROWS, f, seed);
    let (mut a, mut b) = (vec![0.0f32; f * f], vec![0.0f32; f]);
    let s = median_s(5, || {
        for _ in 0..PASSES {
            for row in theta.chunks_exact(f) {
                api::syr_axpy(&mut a, &mut b, black_box(row), 0.5);
            }
        }
        black_box((&mut a, &mut b));
    });
    (PASSES * ROWS * (2 * f * f + 2 * f)) as f64 / s / 1e9
}

/// One `cholesky_solve` of a well-conditioned `f × f` system, in µs.
fn cholesky_solve_us(f: usize, seed: u64) -> f64 {
    const SOLVES: usize = 200;
    let rows = random_rows(2 * f, f, seed);
    let mut spd = vec![0.0f32; f * f];
    let mut rhs = vec![0.0f32; f];
    for row in rows.chunks_exact(f) {
        api::syr_axpy(&mut spd, &mut rhs, row, 1.0);
    }
    for i in 0..f {
        spd[i * f + i] += f as f32;
    }
    let s = median_s(5, || {
        for _ in 0..SOLVES {
            let (mut a, mut b) = (spd.clone(), rhs.clone());
            api::cholesky_solve(&mut a, f, &mut b)
                .expect("the probe's system is positive definite");
            black_box(b);
        }
    });
    s / SOLVES as f64 * 1e6
}

/// `score_dot` of one query against every row of a 100 000 × 32 catalog (the
/// size `serve_scan` streams: 12.8 MB, from memory).
fn dot_gflops(seed: u64) -> f64 {
    const ROWS: usize = 100_000;
    const F: usize = 32;
    let catalog = random_rows(ROWS, F, seed);
    let query = random_rows(1, F, seed ^ 1);
    let s = median_s(7, || {
        let mut best = f32::MIN;
        for row in catalog.chunks_exact(F) {
            best = best.max(api::score_dot(&query, row));
        }
        black_box(best);
    });
    (ROWS * 2 * F) as f64 / s / 1e9
}

fn histogram_record_ns() -> f64 {
    const RECORDS: u64 = 1_000_000;
    let histogram = Histogram::new();
    let s = median_s(5, || {
        for i in 0..RECORDS {
            histogram.record_ns(black_box(1_000 + (i & 0xFFFF)));
        }
    });
    black_box(histogram.count());
    s / RECORDS as f64 * 1e9
}

/// The `linalg.*` and `obs.histogram_record_ns` values, given the host
/// ceilings measured in the same run.
pub fn kernels(host: Host, seed: u64) -> BTreeMap<&'static str, f64> {
    let r32 = syr_axpy_gflops(32, seed);
    // The roofline of one syr_axpy call at f = 32: 2f² + 2f operations for
    // the 4f bytes of the row that must come from memory (the Hermitian
    // stays in cache), against the two ceilings measured above.
    let flops_per_byte = (2.0 * 32.0 * 32.0 + 2.0 * 32.0) / (4.0 * 32.0);
    let roofline = host.fma_gflops.min(host.stream_gbps * flops_per_byte);
    BTreeMap::from([
        ("linalg.syr_axpy_gflops_r32", r32),
        ("linalg.syr_axpy_gflops_r64", syr_axpy_gflops(64, seed)),
        ("linalg.syr_axpy_roofline_frac_r32", r32 / roofline),
        ("linalg.cholesky_solve_us_r32", cholesky_solve_us(32, seed)),
        ("linalg.cholesky_solve_us_r64", cholesky_solve_us(64, seed)),
        ("linalg.dot_gflops_r32", dot_gflops(seed)),
        ("obs.histogram_record_ns", histogram_record_ns()),
    ])
}
