//! Train/test splitting of a rating matrix.
//!
//! The paper's convergence figures (6–10) plot *test* RMSE, so every
//! convergence experiment holds out a fraction of the ratings before
//! training.

use cumf_sparse::{Coo, Csr, Entry};
use rand::prelude::*;

/// A train/test split of a rating matrix.
#[derive(Debug, Clone)]
pub struct TrainTest {
    /// Training ratings in CSR form.
    pub train: Csr,
    /// Held-out test ratings.
    pub test: Vec<Entry>,
}

/// Randomly splits `ratings` into a training matrix and a held-out test set.
///
/// Each entry lands in the test set independently with probability
/// `test_frac`, except that the *first* rating of every row and of every
/// column is always kept in training, so no user or item is entirely unseen
/// at training time (the usual protocol for rating prediction).
pub fn train_test_split(ratings: &Coo, test_frac: f64, seed: u64) -> TrainTest {
    assert!(
        (0.0..1.0).contains(&test_frac),
        "test fraction must be in [0, 1)"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = Coo::with_capacity(ratings.n_rows(), ratings.n_cols(), ratings.nnz());
    let mut test = Vec::new();
    let mut row_seen = vec![false; ratings.n_rows() as usize];
    let mut col_seen = vec![false; ratings.n_cols() as usize];
    for e in ratings.entries() {
        let must_train = !row_seen[e.row as usize] || !col_seen[e.col as usize];
        if must_train || rng.random::<f64>() >= test_frac {
            train
                .push(e.row, e.col, e.val)
                .expect("entry indices already validated");
            row_seen[e.row as usize] = true;
            col_seen[e.col as usize] = true;
        } else {
            test.push(*e);
        }
    }
    TrainTest {
        train: train.to_csr(),
        test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SyntheticConfig;

    fn sample() -> Coo {
        SyntheticConfig {
            m: 300,
            n: 120,
            nnz: 9000,
            ..Default::default()
        }
        .generate()
        .ratings
    }

    #[test]
    fn split_partitions_all_entries() {
        let ratings = sample();
        let tt = train_test_split(&ratings, 0.2, 1);
        assert_eq!(tt.train.nnz() + tt.test.len(), ratings.nnz());
    }

    #[test]
    fn test_fraction_is_close_to_requested() {
        let ratings = sample();
        let tt = train_test_split(&ratings, 0.2, 2);
        let frac = tt.test.len() as f64 / ratings.nnz() as f64;
        assert!(frac > 0.12 && frac < 0.25, "fraction = {frac}");
    }

    #[test]
    fn zero_fraction_keeps_everything_in_train() {
        let ratings = sample();
        let tt = train_test_split(&ratings, 0.0, 3);
        assert!(tt.test.is_empty());
        assert_eq!(tt.train.nnz(), ratings.nnz());
    }

    #[test]
    fn every_row_and_col_with_ratings_appears_in_train() {
        let ratings = sample();
        let tt = train_test_split(&ratings, 0.5, 4);
        let train_rows: std::collections::HashSet<u32> = tt.train.iter().map(|e| e.row).collect();
        let train_cols: std::collections::HashSet<u32> = tt.train.iter().map(|e| e.col).collect();
        let all_rows: std::collections::HashSet<u32> =
            ratings.entries().iter().map(|e| e.row).collect();
        let all_cols: std::collections::HashSet<u32> =
            ratings.entries().iter().map(|e| e.col).collect();
        assert_eq!(train_rows, all_rows);
        assert_eq!(train_cols, all_cols);
    }

    #[test]
    fn split_is_deterministic_in_the_seed() {
        let ratings = sample();
        let a = train_test_split(&ratings, 0.3, 9);
        let b = train_test_split(&ratings, 0.3, 9);
        assert_eq!(a.test, b.test);
        let c = train_test_split(&ratings, 0.3, 10);
        assert_ne!(a.test, c.test);
    }

    #[test]
    #[should_panic(expected = "test fraction")]
    fn invalid_fraction_panics() {
        train_test_split(&sample(), 1.0, 0);
    }
}
