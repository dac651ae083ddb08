//! Checkpoint-restore scenario (§4.4): save mid-training, restore into a
//! *fresh* trainer and into a serving snapshot, and verify both the RMSE
//! continuity of resumed training and the equivalence of the serving path.

use cumf_core::checkpoint::CheckpointManager;
use cumf_core::config::AlsConfig;
use cumf_core::trainer::{Backend, MatrixFactorizer};
use cumf_data::synth::SyntheticConfig;
use cumf_data::train_test_split;
use cumf_serve::FactorSnapshot;

fn config(iterations: usize) -> AlsConfig {
    AlsConfig {
        f: 12,
        lambda: 0.05,
        iterations,
        ..Default::default()
    }
}

#[test]
fn restore_mid_training_continues_and_serves() {
    let data = SyntheticConfig {
        m: 300,
        n: 150,
        nnz: 9_000,
        rank: 6,
        noise_std: 0.1,
        ..Default::default()
    }
    .generate();
    let split = train_test_split(&data.ratings, 0.1, 11);
    let dir = std::env::temp_dir().join(format!("cumf_restore_scenario_{}", std::process::id()));

    // Phase 1: train with checkpointing, then "crash" after 3 iterations.
    let mut first = MatrixFactorizer::new(config(3), Backend::Reference)
        .with_checkpointing(&dir)
        .unwrap();
    let before = first.fit(&split.train, &split.test);
    drop(first);

    // Phase 2: a fresh process restores the latest checkpoint…
    let mgr = CheckpointManager::new(&dir).unwrap();
    let ckpt = mgr.load_latest().unwrap().expect("checkpoint saved");
    assert_eq!(ckpt.iteration, 3);

    // …into a serving snapshot: predictions must equal the crashed
    // trainer's, so serving continuity is immediate.
    let snapshot = FactorSnapshot::from_factors(ckpt.x.clone(), ckpt.theta.clone());
    assert_eq!(snapshot.n_users(), 300);
    assert_eq!(snapshot.n_items(), 150);
    let recs = snapshot.recommend_one(0, 5, &[]);
    assert_eq!(recs.len(), 5);

    // …and into a fresh trainer: resumed RMSE may never regress below the
    // checkpointed quality (ALS is monotone in the training objective).
    let mut resumed =
        MatrixFactorizer::new(config(3), Backend::Reference).with_checkpoint_restore(ckpt);
    let after = resumed.fit(&split.train, &split.test);

    let rmse_at_crash = before.final_train_rmse();
    for it in &after.iterations {
        assert!(
            it.train_rmse <= rmse_at_crash + 1e-6,
            "resumed iteration {} regressed: {} vs checkpointed {}",
            it.iteration,
            it.train_rmse,
            rmse_at_crash
        );
    }
    assert!(after.final_train_rmse() <= rmse_at_crash + 1e-6);

    // The restored trainer and the snapshot agree with each other.
    let trainer_recs = resumed.recommend(0, 5, &[]);
    let snapshot_after = FactorSnapshot::from_factors(resumed.x().clone(), resumed.theta().clone());
    assert_eq!(snapshot_after.recommend_one(0, 5, &[]), trainer_recs);

    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn restore_into_single_gpu_backend_keeps_continuity() {
    // Cross-backend restore: checkpoints are engine-agnostic, so factors
    // saved from the reference engine resume on the simulated-GPU engine.
    let data = SyntheticConfig {
        m: 200,
        n: 100,
        nnz: 6_000,
        ..Default::default()
    }
    .generate();
    let split = train_test_split(&data.ratings, 0.1, 5);
    let dir = std::env::temp_dir().join(format!("cumf_restore_xbackend_{}", std::process::id()));

    let mut reference = MatrixFactorizer::new(config(2), Backend::Reference)
        .with_checkpointing(&dir)
        .unwrap();
    let before = reference.fit(&split.train, &split.test);

    let ckpt = CheckpointManager::new(&dir)
        .unwrap()
        .load_latest()
        .unwrap()
        .unwrap();
    let mut gpu =
        MatrixFactorizer::new(config(2), Backend::single_gpu()).with_checkpoint_restore(ckpt);
    let after = gpu.fit(&split.train, &split.test);
    assert!(after.final_train_rmse() <= before.final_train_rmse() + 1e-6);
    assert!(after.total_sim_time() > 0.0);

    std::fs::remove_dir_all(dir).unwrap();
}
