//! Descriptors of the paper's data sets (Table 5).
//!
//! Each descriptor carries the *full-scale* problem dimensions as reported
//! in the paper; these drive the analytic cost model (Table 3, Figure 11,
//! Table 1).  Convergence runs use [`DatasetSpec::scaled`] to obtain a
//! laptop-sized instance with the same mean ratings-per-user.

/// The named data sets of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperDataset {
    /// Netflix Prize: 480 K users × 17.8 K items, 99 M ratings, f = 100.
    Netflix,
    /// Yahoo! Music KDD-Cup'11: 1 M users × 625 K items, 252.8 M ratings.
    YahooMusic,
    /// Hugewiki: 50 M rows × 39.8 K columns, 3.1 B non-zeros.
    Hugewiki,
    /// SparkALS benchmark (100×1 duplicated Amazon Reviews): 660 M × 2.4 M, 3.5 B.
    SparkAls,
    /// Factorbird benchmark: 229 M × 195 M, 38.5 B, f = 5.
    Factorbird,
    /// Facebook-scale workload: 1 B × 48 M, 112 B, f = 16.
    Facebook,
    /// The paper's largest run: the Facebook matrix with f = 100.
    CumfLargest,
}

impl PaperDataset {
    /// All Table 5 rows, in the paper's order.
    pub fn all() -> [PaperDataset; 7] {
        [
            PaperDataset::Netflix,
            PaperDataset::YahooMusic,
            PaperDataset::Hugewiki,
            PaperDataset::SparkAls,
            PaperDataset::Factorbird,
            PaperDataset::Facebook,
            PaperDataset::CumfLargest,
        ]
    }

    /// The descriptor for this data set.
    pub fn spec(self) -> DatasetSpec {
        match self {
            PaperDataset::Netflix => DatasetSpec {
                name: "Netflix",
                m: 480_189,
                n: 17_770,
                nz: 99_000_000,
                f: 100,
                lambda: 0.05,
            },
            PaperDataset::YahooMusic => DatasetSpec {
                name: "YahooMusic",
                m: 1_000_990,
                n: 624_961,
                nz: 252_800_000,
                f: 100,
                lambda: 1.4,
            },
            PaperDataset::Hugewiki => DatasetSpec {
                name: "Hugewiki",
                m: 50_082_603,
                n: 39_780,
                nz: 3_100_000_000,
                f: 100,
                lambda: 0.05,
            },
            PaperDataset::SparkAls => DatasetSpec {
                name: "SparkALS",
                m: 660_000_000,
                n: 2_400_000,
                nz: 3_500_000_000,
                f: 10,
                lambda: 0.05,
            },
            PaperDataset::Factorbird => DatasetSpec {
                name: "Factorbird",
                m: 229_000_000,
                n: 195_000_000,
                nz: 38_500_000_000,
                f: 5,
                lambda: 0.05,
            },
            PaperDataset::Facebook => DatasetSpec {
                name: "Facebook",
                m: 1_056_000_000,
                n: 48_000_000,
                nz: 112_000_000_000,
                f: 16,
                lambda: 0.05,
            },
            PaperDataset::CumfLargest => DatasetSpec {
                name: "cuMF (largest)",
                m: 1_056_000_000,
                n: 48_000_000,
                nz: 112_000_000_000,
                f: 100,
                lambda: 0.05,
            },
        }
    }
}

/// Full-scale dimensions of one data set, as in Table 5 of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Data set name.
    pub name: &'static str,
    /// Number of rows (users) `m`.
    pub m: u64,
    /// Number of columns (items) `n`.
    pub n: u64,
    /// Number of ratings `Nz`.
    pub nz: u64,
    /// Latent dimension `f` used by the paper for this data set.
    pub f: u32,
    /// Regularization `λ`.
    pub lambda: f32,
}

impl DatasetSpec {
    /// Number of model parameters `(m + n)·f` — the x-axis of Figure 2.
    pub fn model_parameters(&self) -> u64 {
        (self.m + self.n) * self.f as u64
    }

    /// A scaled-down instance suitable for running real numerics.
    ///
    /// Rows, columns and non-zeros are all scaled by `scale` (clamped so
    /// that at least 32 rows/columns and 256 ratings survive), which keeps
    /// the mean ratings-per-row of the original.  `f` and `λ` are preserved
    /// unless overridden by the caller afterwards.
    pub fn scaled(&self, scale: f64) -> DatasetSpec {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let m = ((self.m as f64 * scale).round() as u64).max(32);
        let n = ((self.n as f64 * scale).round() as u64).max(32);
        let nz_uncapped = ((self.nz as f64 * scale).round() as u64).max(256);
        // Never request more ratings than distinct cells.
        let nz = nz_uncapped.min(m * n);
        DatasetSpec {
            name: self.name,
            m,
            n,
            nz,
            f: self.f,
            lambda: self.lambda,
        }
    }

    /// Memory footprint in single-precision words of the CSR ratings plus
    /// both factor matrices — a quick feasibility check used by examples.
    pub fn footprint_words(&self) -> u64 {
        2 * self.nz + self.m + 1 + (self.m + self.n) * self.f as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean ratings per user, `Nz / m`.
    fn mean_ratings_per_row(d: &DatasetSpec) -> f64 {
        d.nz as f64 / d.m as f64
    }

    /// Density `Nz / (m·n)`.
    fn density(d: &DatasetSpec) -> f64 {
        d.nz as f64 / (d.m as f64 * d.n as f64)
    }

    #[test]
    fn table5_rows_match_the_paper() {
        let netflix = PaperDataset::Netflix.spec();
        assert_eq!(netflix.m, 480_189);
        assert_eq!(netflix.n, 17_770);
        assert_eq!(netflix.f, 100);
        assert!((netflix.lambda - 0.05).abs() < 1e-6);

        let yahoo = PaperDataset::YahooMusic.spec();
        assert_eq!(yahoo.m, 1_000_990);
        assert!((yahoo.lambda - 1.4).abs() < 1e-6);

        let fb = PaperDataset::Facebook.spec();
        assert_eq!(fb.f, 16);
        assert_eq!(fb.nz, 112_000_000_000);

        let largest = PaperDataset::CumfLargest.spec();
        assert_eq!(largest.f, 100);
        assert_eq!(largest.m, fb.m);
    }

    #[test]
    fn netflix_mean_ratings_per_user_is_about_200() {
        // §2.2: "one user rates around 200 items on average".
        let netflix = PaperDataset::Netflix.spec();
        let mean = mean_ratings_per_row(&netflix);
        assert!(mean > 150.0 && mean < 250.0, "mean = {mean}");
    }

    #[test]
    fn yahoomusic_is_sparser_than_netflix() {
        // §5.3 attributes YahooMusic's smaller register/texture penalty to
        // its sparser rating matrix.
        let netflix = PaperDataset::Netflix.spec();
        let yahoo = PaperDataset::YahooMusic.spec();
        assert!(density(&yahoo) < density(&netflix));
    }

    #[test]
    fn figure2_ordering_by_ratings() {
        // Facebook has the most ratings; Netflix the fewest of the Table 5 sets.
        let all = PaperDataset::all();
        let nz: Vec<u64> = all.iter().map(|d| d.spec().nz).collect();
        assert_eq!(nz.iter().min(), Some(&PaperDataset::Netflix.spec().nz));
        assert_eq!(nz.iter().max(), Some(&PaperDataset::Facebook.spec().nz));
    }

    #[test]
    fn scaled_preserves_mean_degree_and_caps_nz() {
        let netflix = PaperDataset::Netflix.spec();
        let small = netflix.scaled(0.05);
        let ratio = mean_ratings_per_row(&small) / mean_ratings_per_row(&netflix);
        assert!(ratio > 0.9 && ratio < 1.1, "ratio = {ratio}");
        assert!(small.nz <= small.m * small.n);
        assert_eq!(small.f, netflix.f);
    }

    #[test]
    fn scaled_has_floor_sizes() {
        let tiny = PaperDataset::Netflix.spec().scaled(1e-9);
        assert!(tiny.m >= 32);
        assert!(tiny.n >= 32);
        assert!(tiny.nz >= 256 || tiny.nz == tiny.m * tiny.n);
    }

    #[test]
    #[should_panic(expected = "scale must be in (0, 1]")]
    fn scale_zero_panics() {
        PaperDataset::Netflix.spec().scaled(0.0);
    }

    #[test]
    fn model_parameters_matches_formula() {
        let d = PaperDataset::Netflix.spec();
        assert_eq!(d.model_parameters(), (480_189 + 17_770) * 100);
    }
}
