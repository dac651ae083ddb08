//! Synthetic rating-matrix generator.
//!
//! The generator follows the structure the paper's data sets share:
//!
//! * ratings are explained by a low-rank model plus noise (this is the whole
//!   premise of MF), so ALS on the synthetic data converges the way it does
//!   on the real data;
//! * item popularity and user activity follow power laws (the "skewed
//!   ratings" the paper warns about for SparkALS-style partial replication),
//!   controlled by Zipf exponents;
//! * the very large Table 5 workloads were themselves synthesized by the
//!   original authors by duplicating the Amazon Reviews data, so a synthetic
//!   stand-in is faithful to the paper's own methodology (§5.1).

use crate::datasets::DatasetSpec;
use cumf_linalg::blas::dot;
use cumf_linalg::FactorMatrix;
use cumf_sparse::{Coo, Csr};
use rand::prelude::*;
use rayon::prelude::*;
use std::collections::HashSet;

/// Parameters of the synthetic generator.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of users (rows of `R`).
    pub m: u32,
    /// Number of items (columns of `R`).
    pub n: u32,
    /// Target number of ratings; the generated count may differ by a few
    /// per cent because degrees are drawn per user.
    pub nnz: usize,
    /// Rank of the ground-truth model.
    pub rank: usize,
    /// Standard deviation of the additive Gaussian noise on each rating.
    pub noise_std: f32,
    /// Zipf exponent of item popularity (0 = uniform; ~1 = strongly skewed).
    pub item_zipf: f64,
    /// Zipf exponent of user activity.
    pub user_zipf: f64,
    /// Smallest possible rating value.
    pub rating_min: f32,
    /// Largest possible rating value.
    pub rating_max: f32,
    /// RNG seed; the same seed always produces the same data set.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            m: 1000,
            n: 500,
            nnz: 50_000,
            rank: 8,
            noise_std: 0.1,
            item_zipf: 0.8,
            user_zipf: 0.6,
            rating_min: 1.0,
            rating_max: 5.0,
            seed: 42,
        }
    }
}

impl SyntheticConfig {
    /// Builds a generator configuration from a (scaled) Table 5 descriptor.
    ///
    /// The descriptor's `m`, `n` and `Nz` are taken verbatim, so pass a
    /// [`DatasetSpec::scaled`] instance for anything larger than a few
    /// million ratings.
    pub fn from_spec(spec: &DatasetSpec, seed: u64) -> Self {
        Self {
            m: u32::try_from(spec.m).expect("scale the dataset down before generating"),
            n: u32::try_from(spec.n).expect("scale the dataset down before generating"),
            nnz: usize::try_from(spec.nz).expect("scale the dataset down before generating"),
            rank: 8,
            seed,
            ..Self::default()
        }
    }

    /// Generates the data set.
    pub fn generate(&self) -> SyntheticDataset {
        assert!(self.m > 0 && self.n > 0, "matrix must be non-empty");
        assert!(self.rank > 0, "ground-truth rank must be positive");
        assert!(
            self.nnz as u64 <= self.m as u64 * self.n as u64,
            "cannot place more ratings than cells"
        );

        // Zero-mean ground-truth factors sized so that `x·θ` has standard
        // deviation ≈ span/4: ratings center on the midpoint of
        // `[rating_min, rating_max]` and ±2σ reaches both ends of the range
        // (the tails clamp).  Earlier revisions anchored ratings at
        // `rating_min + E[x·θ]` ≈ 2.0, which left the upper range almost
        // unused and ranking metrics with near-empty relevant sets.
        let half_width = self.factor_half_width();
        let true_x = FactorMatrix::random_centered(
            self.m as usize,
            self.rank,
            half_width,
            self.seed ^ 0x9e37,
        );
        let true_theta = FactorMatrix::random_centered(
            self.n as usize,
            self.rank,
            half_width,
            self.seed ^ 0x7f4a_7c15,
        );

        // Per-user degrees proportional to Zipf weights over a shuffled rank
        // order (so user ids are not correlated with activity).
        let degrees = self.sample_degrees();

        // Item-popularity distribution as a Walker/Vose alias table: O(n)
        // to build once, O(1) per draw.  The per-user rejection loop below
        // draws up to 20× the row degree, so the draw cost dominates
        // generation; the binary search over a cumulative distribution this
        // replaces made every draw O(log n) and was the remaining serial
        // hot spot *within* each user's row of the integration suites.
        let item_dist = AliasTable::from_zipf(self.n as usize, self.item_zipf);

        // Generate each user's ratings independently over rayon
        // (deterministic per-row seeding keeps the result identical
        // regardless of thread count or split points).
        let rows: Vec<Vec<(u32, f32)>> = (0..self.m as usize)
            .into_par_iter()
            .map(|u| {
                let mut rng = StdRng::seed_from_u64(
                    self.seed ^ (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let degree = degrees[u].min(self.n as usize);
                let mut cols: HashSet<u32> = HashSet::with_capacity(degree * 2);
                // Rejection-sample distinct columns from the popularity
                // table; fall back to uniform once the row is nearly full.
                let mut attempts = 0usize;
                while cols.len() < degree {
                    let v = if attempts < degree * 20 {
                        item_dist.sample(&mut rng)
                    } else {
                        rng.random_range(0..self.n)
                    };
                    cols.insert(v);
                    attempts += 1;
                    if attempts > degree * 40 + self.n as usize {
                        break;
                    }
                }
                // Sort the chosen columns before drawing noise so the result
                // is independent of HashSet iteration order.
                let mut chosen: Vec<u32> = cols.into_iter().collect();
                chosen.sort_unstable();
                chosen
                    .into_iter()
                    .map(|v| {
                        let mean =
                            self.mean_rating(dot(true_x.vector(u), true_theta.vector(v as usize)));
                        let noise = gaussian(&mut rng) * self.noise_std;
                        let r = (mean + noise).clamp(self.rating_min, self.rating_max);
                        (v, r)
                    })
                    .collect()
            })
            .collect();

        let mut coo = Coo::with_capacity(self.m, self.n, rows.iter().map(Vec::len).sum());
        for (u, row) in rows.iter().enumerate() {
            for &(v, r) in row {
                coo.push(u as u32, v, r)
                    .expect("generated indices are in range");
            }
        }

        SyntheticDataset {
            ratings: coo,
            true_x,
            true_theta,
            config: self.clone(),
        }
    }

    /// The rating implied by a ground-truth dot product, before noise and
    /// clamping: the midpoint of the rating range plus the (zero-mean) dot.
    pub(crate) fn mean_rating(&self, dot: f32) -> f32 {
        (self.rating_min + self.rating_max) / 2.0 + dot
    }

    /// Half-width of the centered uniform factor entries: chosen so the
    /// rank-term dot product has standard deviation ≈ a quarter of the
    /// rating span (entries uniform on `[-a, a)` give
    /// `Var(x·θ) = rank · a⁴ / 9`).
    pub(crate) fn factor_half_width(&self) -> f32 {
        let span = (self.rating_max - self.rating_min).max(1e-3);
        (3.0 * span / (4.0 * (self.rank as f32).sqrt())).sqrt()
    }

    /// Draws per-user degrees whose sum approximates `nnz`.
    fn sample_degrees(&self) -> Vec<usize> {
        let m = self.m as usize;
        let mut weights: Vec<f64> = (0..m)
            .map(|k| 1.0 / ((k + 1) as f64).powf(self.user_zipf))
            .collect();
        // Shuffle so user id does not encode activity.
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xA5A5);
        for i in (1..m).rev() {
            let j = rng.random_range(0..=i);
            weights.swap(i, j);
        }
        let total: f64 = weights.iter().sum();
        weights
            .iter()
            .map(|w| {
                let d = (w / total * self.nnz as f64).round() as usize;
                d.clamp(1, self.n as usize)
            })
            .collect()
    }
}

/// A generated data set: the sparse ratings plus the ground truth that
/// produced them (useful for checking that MF recovers the model).
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The generated ratings.
    pub ratings: Coo,
    /// Ground-truth user factors.
    pub true_x: FactorMatrix,
    /// Ground-truth item factors.
    pub true_theta: FactorMatrix,
    /// The configuration that generated this data set.
    pub config: SyntheticConfig,
}

impl SyntheticDataset {
    /// The ratings in CSR form.
    pub fn to_csr(&self) -> Csr {
        self.ratings.to_csr()
    }

    /// Root-mean-square error of the *ground-truth* model on the generated
    /// ratings — the noise floor no factorization can beat on average.
    pub fn noise_floor_rmse(&self) -> f64 {
        let mut se = 0.0f64;
        let mut count = 0usize;
        for e in self.ratings.entries() {
            let pred = self.config.mean_rating(dot(
                self.true_x.vector(e.row as usize),
                self.true_theta.vector(e.col as usize),
            ));
            let pred = pred.clamp(self.config.rating_min, self.config.rating_max);
            se += ((e.val - pred) as f64).powi(2);
            count += 1;
        }
        if count == 0 {
            0.0
        } else {
            (se / count as f64).sqrt()
        }
    }
}

/// Walker/Vose alias table: draws from an arbitrary discrete distribution
/// in O(1) per sample (one uniform, one table probe) after an O(n) build.
///
/// Replaces inverse-CDF binary search on the generator's hot path; the two
/// methods sample the *same* distribution, though a given RNG stream maps
/// to different items, so regenerated data sets differ from pre-alias
/// revisions (determinism per seed is unaffected).
#[derive(Debug, Clone)]
pub(crate) struct AliasTable {
    /// Per-cell acceptance threshold in `[0, 1]`.
    prob: Vec<f64>,
    /// Donor index used when a cell rejects.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table for `weights` (need not be normalized; must be
    /// non-empty with a positive sum).
    pub(crate) fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one weight");
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "alias table needs a positive weight sum");
        let mut scaled: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
        let mut prob = vec![0.0f64; n];
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let Some(s) = small.pop() {
            let Some(l) = large.pop() else {
                // Numerical leftover: an effectively exactly-1 cell.
                prob[s as usize] = 1.0;
                continue;
            };
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] -= 1.0 - scaled[s as usize];
            if scaled[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Remaining large cells are exactly-1 cells.
        for i in large {
            prob[i as usize] = 1.0;
        }
        Self { prob, alias }
    }

    /// The table for a Zipf distribution over `n` items with the given
    /// exponent (0 = uniform).
    pub(crate) fn from_zipf(n: usize, exponent: f64) -> Self {
        let weights: Vec<f64> = (0..n)
            .map(|k| 1.0 / ((k + 1) as f64).powf(exponent))
            .collect();
        Self::new(&weights)
    }

    /// Draws one index using a single uniform: the integer part picks the
    /// cell, the fractional part decides cell-vs-alias.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> u32 {
        let n = self.prob.len();
        let r = rng.random::<f64>() * n as f64;
        let i = (r as usize).min(n - 1);
        let frac = r - i as f64;
        if frac < self.prob[i] {
            i as u32
        } else {
            self.alias[i]
        }
    }
}

/// A standard-normal sample via Box–Muller (avoids an extra dependency).
pub(crate) fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::PaperDataset;
    use cumf_sparse::stats;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticConfig {
            m: 200,
            n: 100,
            nnz: 4000,
            ..Default::default()
        };
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.ratings.entries(), b.ratings.entries());
        assert_eq!(a.true_x, b.true_x);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = SyntheticConfig {
            m: 200,
            n: 100,
            nnz: 4000,
            ..Default::default()
        };
        let other = SyntheticConfig {
            seed: 7,
            ..cfg.clone()
        };
        assert_ne!(
            cfg.generate().ratings.entries(),
            other.generate().ratings.entries()
        );
    }

    #[test]
    fn nnz_is_close_to_target() {
        let cfg = SyntheticConfig {
            m: 500,
            n: 300,
            nnz: 20_000,
            ..Default::default()
        };
        let d = cfg.generate();
        let got = d.ratings.nnz() as f64;
        assert!(got > 15_000.0 && got < 25_000.0, "nnz = {got}");
    }

    #[test]
    fn ratings_are_within_range_and_indices_valid() {
        let cfg = SyntheticConfig {
            m: 300,
            n: 150,
            nnz: 9000,
            ..Default::default()
        };
        let d = cfg.generate();
        for e in d.ratings.entries() {
            assert!(e.row < cfg.m && e.col < cfg.n);
            assert!(e.val >= cfg.rating_min && e.val <= cfg.rating_max);
        }
    }

    #[test]
    fn no_duplicate_coordinates_within_a_row() {
        let cfg = SyntheticConfig {
            m: 100,
            n: 60,
            nnz: 3000,
            ..Default::default()
        };
        let csr = cfg.generate().to_csr();
        for u in 0..csr.n_rows() {
            let (cols, _) = csr.row(u);
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "duplicate or unsorted column in row {u}");
            }
        }
    }

    #[test]
    fn item_popularity_is_skewed() {
        let cfg = SyntheticConfig {
            m: 2000,
            n: 500,
            nnz: 60_000,
            item_zipf: 1.0,
            ..Default::default()
        };
        let csr = cfg.generate().to_csr();
        let degrees = stats::col_degrees(&csr);
        let max = *degrees.iter().max().unwrap() as f64;
        let mean = csr.nnz() as f64 / cfg.n as f64;
        assert!(
            max > 4.0 * mean,
            "max {max} vs mean {mean}: popularity should be skewed"
        );
    }

    #[test]
    fn every_user_has_at_least_one_rating() {
        let cfg = SyntheticConfig {
            m: 400,
            n: 200,
            nnz: 8000,
            ..Default::default()
        };
        let csr = cfg.generate().to_csr();
        assert!(stats::row_degrees(&csr).iter().all(|&d| d > 0));
    }

    #[test]
    fn ratings_span_the_whole_rating_range() {
        let cfg = SyntheticConfig {
            m: 500,
            n: 250,
            nnz: 20_000,
            ..Default::default()
        };
        let d = cfg.generate();
        let vals: Vec<f32> = d.ratings.entries().iter().map(|e| e.val).collect();
        let mean = vals.iter().sum::<f32>() / vals.len() as f32;
        let mid = (cfg.rating_min + cfg.rating_max) / 2.0;
        let span = cfg.rating_max - cfg.rating_min;
        assert!(
            (mean - mid).abs() < 0.15 * span,
            "ratings should center on the midpoint: mean {mean} vs mid {mid}"
        );
        // Both the bottom and top quarters of the range are populated.
        let low = vals
            .iter()
            .filter(|&&v| v < cfg.rating_min + 0.25 * span)
            .count();
        let high = vals
            .iter()
            .filter(|&&v| v > cfg.rating_max - 0.25 * span)
            .count();
        let n = vals.len();
        assert!(low * 20 > n, "only {low}/{n} ratings in the bottom quarter");
        assert!(high * 20 > n, "only {high}/{n} ratings in the top quarter");
        // And the extremes are actually reachable.
        assert!(vals.contains(&cfg.rating_min));
        assert!(vals.contains(&cfg.rating_max));
    }

    #[test]
    fn noise_floor_tracks_noise_std() {
        let quiet = SyntheticConfig {
            m: 300,
            n: 150,
            nnz: 10_000,
            noise_std: 0.01,
            ..Default::default()
        };
        let loud = SyntheticConfig {
            m: 300,
            n: 150,
            nnz: 10_000,
            noise_std: 0.5,
            ..Default::default()
        };
        let rq = quiet.generate().noise_floor_rmse();
        let rl = loud.generate().noise_floor_rmse();
        assert!(rq < 0.05, "quiet noise floor {rq}");
        assert!(rl > rq * 3.0, "loud {rl} vs quiet {rq}");
    }

    #[test]
    fn from_spec_uses_scaled_dimensions() {
        let spec = PaperDataset::Netflix.spec().scaled(0.002);
        let cfg = SyntheticConfig::from_spec(&spec, 1);
        assert_eq!(cfg.m as u64, spec.m);
        assert_eq!(cfg.n as u64, spec.n);
        assert_eq!(cfg.nnz as u64, spec.nz);
        let d = cfg.generate();
        assert!(d.ratings.nnz() > 0);
    }

    #[test]
    fn alias_table_cells_are_consistent() {
        let table = AliasTable::from_zipf(100, 0.9);
        assert_eq!(table.prob.len(), 100);
        for (i, &p) in table.prob.iter().enumerate() {
            assert!((0.0..=1.0 + 1e-9).contains(&p), "cell {i}: {p}");
            assert!((table.alias[i] as usize) < 100);
        }
        // Per-cell masses reassemble the normalized weights exactly: cell i
        // contributes prob[i]/n to item i and (1-prob[i])/n to alias[i].
        let n = 100usize;
        let mut mass = vec![0.0f64; n];
        for i in 0..n {
            mass[i] += table.prob[i] / n as f64;
            mass[table.alias[i] as usize] += (1.0 - table.prob[i]) / n as f64;
        }
        let total: f64 = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(0.9)).sum();
        for (k, &m) in mass.iter().enumerate() {
            let expect = 1.0 / ((k + 1) as f64).powf(0.9) / total;
            assert!((m - expect).abs() < 1e-12, "item {k}: {m} vs {expect}");
        }
    }

    #[test]
    fn alias_sampling_tracks_the_zipf_weights() {
        let table = AliasTable::from_zipf(50, 1.0);
        let mut rng = StdRng::seed_from_u64(77);
        let mut counts = [0u32; 50];
        let draws = 200_000;
        for _ in 0..draws {
            counts[table.sample(&mut rng) as usize] += 1;
        }
        let total: f64 = (0..50).map(|k| 1.0 / (k + 1) as f64).sum();
        for k in [0usize, 1, 5, 20] {
            let expect = 1.0 / (k + 1) as f64 / total * draws as f64;
            let got = counts[k] as f64;
            assert!(
                (got - expect).abs() < 0.1 * expect + 30.0,
                "item {k}: {got} draws vs expected {expect}"
            );
        }
        // Sampling is deterministic per RNG stream.
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(table.sample(&mut a), table.sample(&mut b));
        }
    }

    #[test]
    fn alias_table_handles_degenerate_weights() {
        // A single item always wins; an all-equal table is uniform.
        let one = AliasTable::new(&[3.0]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(one.sample(&mut rng), 0);
        }
        let flat = AliasTable::new(&[1.0; 8]);
        for p in &flat.prob {
            assert!((p - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "cannot place more ratings")]
    fn too_many_ratings_panics() {
        SyntheticConfig {
            m: 10,
            n: 10,
            nnz: 101,
            ..Default::default()
        }
        .generate();
    }
}
