//! Out-of-core planning, the priced streaming and fault tolerance (§4.3–4.4
//! of the paper) on the very large Table 5 workloads.
//!
//! This example does three things:
//!
//! 1. asks the partition planner (equation (8)) how each paper-scale data
//!    set would be split across four 12 GB GPUs;
//! 2. prices one Facebook-scale iteration, whose exposed transfers are what
//!    `price_side`'s double-buffered waves leave uncovered by compute (a
//!    model: nothing is streamed);
//! 3. demonstrates checkpoint / restart by interrupting a training run and
//!    resuming it from the latest checkpoint.
//!
//! Run with:
//! ```text
//! cargo run --release --example out_of_core_planning
//! ```

use cumf_core::als::AlsEngine;
use cumf_core::checkpoint::{Checkpoint, CheckpointManager};
use cumf_core::config::AlsConfig;
use cumf_core::costmodel::{cumf_iteration_cost, ClusterConfig};
use cumf_core::planner::{plan, ProblemDims};
use cumf_data::datasets::PaperDataset;
use cumf_data::synth::SyntheticConfig;
use cumf_gpu_sim::DeviceSpec;

fn main() {
    // --- 1. Partition plans for the paper-scale problems -------------------
    println!("partition plans on four 12 GB GK210s (equation (8), 500 MB headroom):\n");
    println!("data set        |    m        |    n        |     Nz       |  f  |  p |    q");
    println!("----------------+-------------+-------------+--------------+-----+----+------");
    for ds in PaperDataset::all() {
        let s = ds.spec();
        let dims = ProblemDims::new(s.m, s.n, s.nz, s.f as u64);
        let p = plan(&dims, &DeviceSpec::gk210(), 4);
        println!(
            "{:<15} | {:>11} | {:>11} | {:>12} | {:>3} | {:>2} | {:>4}",
            s.name, s.m, s.n, s.nz, s.f, p.p, p.q
        );
    }

    // --- 2. One priced iteration at Facebook scale ---------------------------
    let spec = PaperDataset::Facebook.spec();
    let dims = ProblemDims::new(spec.m, spec.n, spec.nz, spec.f as u64);
    let cost = cumf_iteration_cost(&dims, &ClusterConfig::four_k80());
    let kernels_s: f64 = cost
        .sides
        .iter()
        .map(|s| s.get_hermitian_s + s.batch_solve_s)
        .sum();
    println!(
        "\nFacebook-scale iteration on 4 x GK210: {:.0} s total ({:.0} s kernels, {:.0} s reduces, {:.0} s exposed transfers)",
        cost.total_s(),
        kernels_s,
        cost.sides.iter().map(|s| s.reduce_s).sum::<f64>(),
        cost.sides.iter().map(|s| s.transfer_s).sum::<f64>()
    );

    // --- 3. Checkpoint / restart -------------------------------------------
    let data = SyntheticConfig {
        m: 400,
        n: 200,
        nnz: 12_000,
        rank: 6,
        ..Default::default()
    }
    .generate();
    let ratings = data.to_csr();
    let config = AlsConfig {
        f: 16,
        lambda: 0.05,
        iterations: 6,
        ..Default::default()
    };
    let dir = std::env::temp_dir().join(format!("cumf_oocore_example_{}", std::process::id()));
    let manager = CheckpointManager::new(&dir).expect("create checkpoint dir");

    // Run three iterations, checkpointing each one, then "crash".
    let mut engine = AlsEngine::new(config.clone(), ratings.clone());
    for iter in 1..=3u64 {
        engine.iterate();
        manager
            .save(&Checkpoint {
                iteration: iter,
                x: engine.x().clone(),
                theta: engine.theta().clone(),
            })
            .expect("checkpoint");
    }
    let rmse_at_crash = engine.train_rmse();
    drop(engine);

    // Restart from the latest checkpoint and finish the remaining iterations.
    let latest = manager
        .load_latest()
        .expect("read checkpoints")
        .expect("checkpoint exists");
    println!(
        "\nrestarting from checkpoint after iteration {} (train RMSE {:.4})",
        latest.iteration, rmse_at_crash
    );
    let mut resumed = AlsEngine::new(config, ratings);
    resumed.set_factors(latest.x, latest.theta);
    for _ in latest.iteration as usize..6 {
        resumed.iterate();
    }
    println!(
        "after resuming to iteration 6: train RMSE {:.4}",
        resumed.train_rmse()
    );

    std::fs::remove_dir_all(&dir).ok();
}
