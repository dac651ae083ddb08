//! Every backend's bits, pinned.  A fixed problem is trained for three
//! sweeps from each backend's own seeded start: every backend at `f = 12`,
//! and the reference and the optimized single GPU also at the two training
//! workloads' ranks, `f = 32` and `f = 64`.  After each sweep the test
//! hashes the `to_bits` of `X` and of `Θ` (FNV-1a) and takes the f64 bits
//! of the simulated seconds the sweep was priced at.  Any change to the
//! numerics — summation order included — or to the cost model changes a
//! pinned value.
//!
//! The run goes through [`MatrixFactorizer`], so the test names only the
//! public `Backend` enum and none of the engine types behind it.

use cumf_core::config::{AlsConfig, MemoryOptConfig};
use cumf_core::planner::PartitionPlan;
use cumf_core::reduce::ReductionScheme;
use cumf_core::trainer::{Backend, MatrixFactorizer};
use cumf_data::synth::SyntheticConfig;
use cumf_gpu_sim::TopologyKind;
use cumf_linalg::FactorMatrix;
use cumf_sparse::Csr;

/// `[X hash, Θ hash, simulated-seconds bits]` after sweeps 1, 2 and 3.
type Pin = [[u64; 3]; 3];

fn ratings() -> Csr {
    SyntheticConfig {
        m: 300,
        n: 170,
        nnz: 9_000,
        rank: 4,
        seed: 5,
        ..Default::default()
    }
    .generate()
    .to_csr()
}

fn fnv1a(m: &FactorMatrix) -> u64 {
    m.data()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, byte| {
            (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn multi(
    n_gpus: usize,
    topology: TopologyKind,
    reduction: ReductionScheme,
    plan: Option<(usize, usize)>,
) -> Backend {
    Backend::MultiGpu {
        n_gpus,
        topology,
        reduction,
        plan: plan.map(|(p, q)| PartitionPlan { p, q }),
    }
}

/// `(name, backend, memory options, f)` for every pinned leg.
fn backends() -> Vec<(&'static str, Backend, MemoryOptConfig, usize)> {
    use ReductionScheme::{OnePhase, TwoPhase};
    use TopologyKind::{DualSocket, FlatPcie};
    let opt = MemoryOptConfig::optimized();
    vec![
        ("reference", Backend::Reference, opt, 12),
        ("single-gpu optimized", Backend::SingleGpu, opt, 12),
        (
            "single-gpu naive",
            Backend::SingleGpu,
            MemoryOptConfig::naive(),
            12,
        ),
        (
            "2 gpus, one-phase, planner",
            multi(2, FlatPcie, OnePhase, None),
            opt,
            12,
        ),
        (
            "4 gpus, one-phase, planner",
            multi(4, FlatPcie, OnePhase, None),
            opt,
            12,
        ),
        (
            "1 gpu, (1, 3)",
            multi(1, FlatPcie, OnePhase, Some((1, 3))),
            opt,
            12,
        ),
        (
            "2 gpus, (7, 1)",
            multi(2, FlatPcie, OnePhase, Some((7, 1))),
            opt,
            12,
        ),
        (
            "4 gpus, two-phase, (4, 2)",
            multi(4, FlatPcie, TwoPhase, Some((4, 2))),
            opt,
            12,
        ),
        (
            "4 gpus, dual socket, two-phase, (3, 5)",
            multi(4, DualSocket, TwoPhase, Some((3, 5))),
            opt,
            12,
        ),
        ("reference, f = 32", Backend::Reference, opt, 32),
        ("single-gpu optimized, f = 32", Backend::SingleGpu, opt, 32),
        ("reference, f = 64", Backend::Reference, opt, 64),
        ("single-gpu optimized, f = 64", Backend::SingleGpu, opt, 64),
    ]
}

/// Trains `backend` at rank `f` for one, two and three sweeps (each from
/// the seeded start) and pins the state after the last sweep of each run.
fn pin(r: &Csr, backend: &Backend, memory_opt: MemoryOptConfig, f: usize) -> Pin {
    let mut out = [[0u64; 3]; 3];
    for (sweeps, row) in (1..=3).zip(&mut out) {
        let config = AlsConfig {
            f,
            lambda: 0.05,
            iterations: sweeps,
            seed: 5,
            memory_opt,
            track_rmse: false,
        };
        let mut model = MatrixFactorizer::new(config, backend.clone());
        let report = model.fit(r, &[]);
        let sim_s = report.iterations[sweeps - 1].sim_time_s;
        *row = [fnv1a(model.x()), fnv1a(model.theta()), sim_s.to_bits()];
    }
    out
}

#[rustfmt::skip]
const PINS: [Pin; 13] = [
    // reference
    [[0x5522f5bc2a1e3e4e, 0x04985950d5a02fd0, 0x0000000000000000], [0x468ca8a124c2b93f, 0x7b23038cf739436c, 0x0000000000000000], [0x4def3e808b424410, 0x4672638da2e5aed6, 0x0000000000000000]],
    // single-gpu optimized
    [[0x5522f5bc2a1e3e4e, 0x04985950d5a02fd0, 0x3f05841db1b2985b], [0x468ca8a124c2b93f, 0x7b23038cf739436c, 0x3f05841db1b2985b], [0x4def3e808b424410, 0x4672638da2e5aed6, 0x3f05841db1b2985b]],
    // single-gpu naive
    [[0x5522f5bc2a1e3e4e, 0x04985950d5a02fd0, 0x3f130d86482d699e], [0x468ca8a124c2b93f, 0x7b23038cf739436c, 0x3f130d86482d699e], [0x4def3e808b424410, 0x4672638da2e5aed6, 0x3f130d86482d699e]],
    // 2 gpus, one-phase, planner
    [[0x5522f5bc2a1e3e4e, 0x04985950d5a02fd0, 0x3f10f1f341fd6d07], [0x468ca8a124c2b93f, 0x7b23038cf739436c, 0x3f10f1f341fd6d07], [0x4def3e808b424410, 0x4672638da2e5aed6, 0x3f10f1f341fd6d07]],
    // 4 gpus, one-phase, planner
    [[0x5522f5bc2a1e3e4e, 0x04985950d5a02fd0, 0x3f10dbbdcc0a7f34], [0x468ca8a124c2b93f, 0x7b23038cf739436c, 0x3f10dbbdcc0a7f34], [0x4def3e808b424410, 0x4672638da2e5aed6, 0x3f10dbbdcc0a7f34]],
    // 1 gpu, (1, 3)
    [[0x5522f5bc2a1e3e4e, 0x04985950d5a02fd0, 0x3f223194bde6ce6c], [0x468ca8a124c2b93f, 0x7b23038cf739436c, 0x3f223194bde6ce6c], [0x4def3e808b424410, 0x4672638da2e5aed6, 0x3f223194bde6ce6c]],
    // 2 gpus, (7, 1)
    [[0xada68de1c23652ef, 0x3b4d56d0c9d7c5c9, 0x3f29ef2d41e1b009], [0x291c32bc2199a586, 0xd7e5ff734521ad2b, 0x3f29ef2d41e1b009], [0xc45a63dce51ab225, 0xb6bcb01e2c6721c3, 0x3f29ef2d41e1b009]],
    // 4 gpus, two-phase, (4, 2)
    [[0x0a97c747dbcb9530, 0x215c3b4badc8ef60, 0x3f23d2f2ea78080e], [0x71b69363130ed303, 0xb11c0be9cd327d02, 0x3f23d2f2ea78080e], [0x94ecd6ef416208ab, 0x8b8b589decb6cf9b, 0x3f23d2f2ea78080e]],
    // 4 gpus, dual socket, two-phase, (3, 5)
    [[0x389c9a6acbfb4aa7, 0x1953094ab9ff923c, 0x3f3bfd45dbf52134], [0x388d99faa354a99e, 0x28455c16d5dce6ab, 0x3f3bfd45dbf52134], [0x8b57240b0af24195, 0x5f431bde56ddd38c, 0x3f3bfd45dbf52134]],
    // reference, f = 32
    [[0xf327245518848e85, 0x9ef87e1b79c95774, 0x0000000000000000], [0xa4e37a597d0dee34, 0xb9a800efa0f733f0, 0x0000000000000000], [0x5bff61cdeeddca58, 0xcd9fef98cf3a1e41, 0x0000000000000000]],
    // single-gpu optimized, f = 32
    [[0xf327245518848e85, 0x9ef87e1b79c95774, 0x3f0d2f89fdf5adc5], [0xa4e37a597d0dee34, 0xb9a800efa0f733f0, 0x3f0d2f89fdf5adc5], [0x5bff61cdeeddca58, 0xcd9fef98cf3a1e41, 0x3f0d2f89fdf5adc5]],
    // reference, f = 64
    [[0x2e303dc5e603b1c1, 0x06cc4adff8e60ca4, 0x0000000000000000], [0xccff502a5b6894cb, 0xe1e96f0e63a32ad5, 0x0000000000000000], [0x68f6adfe1c0c04d9, 0xd84127eb340194bb, 0x0000000000000000]],
    // single-gpu optimized, f = 64
    [[0x2e303dc5e603b1c1, 0x06cc4adff8e60ca4, 0x3f1e5868c64a8541], [0xccff502a5b6894cb, 0xe1e96f0e63a32ad5, 0x3f1e5868c64a8541], [0x68f6adfe1c0c04d9, 0xd84127eb340194bb, 0x3f1e5868c64a8541]],
];

#[test]
fn every_backend_reproduces_its_pinned_bits() {
    let r = ratings();
    let got: Vec<Pin> = backends()
        .iter()
        .map(|(_, backend, opts, f)| pin(&r, backend, *opts, *f))
        .collect();
    let table: String = got
        .iter()
        .zip(backends())
        .map(|(p, (name, ..))| {
            let rows: Vec<String> = p
                .iter()
                .map(|[x, t, s]| format!("[{x:#018x}, {t:#018x}, {s:#018x}]"))
                .collect();
            format!("    // {name}\n    [{}],\n", rows.join(", "))
        })
        .collect();
    for ((want, have), (name, ..)) in PINS.iter().zip(&got).zip(backends()) {
        assert_eq!(
            want, have,
            "{name}: factors or simulated seconds moved; the whole table now reads\n{table}"
        );
    }
}
