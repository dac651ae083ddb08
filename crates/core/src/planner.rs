//! Partition planner (§4.3 of the paper, equation (8)).
//!
//! SU-ALS must choose `p` (vertical partitions of `Θᵀ`, one per GPU in the
//! data-parallel phase) and `q` (horizontal batches of `X`) so that one
//! GPU can simultaneously hold its share of every operand:
//!
//! ```text
//!   m·f/q  +  n·f/p  +  |R^(ij)|  +  (m/q)·f²  +  (m/q)·f  +  ε  <  C
//! ```
//!
//! with `C` the device capacity in single-precision words and `ε` a headroom
//! for miscellaneous buffers (the paper uses 500 MB for a 12 GB card).

use cumf_gpu_sim::DeviceSpec;
use std::fmt;

/// Full-scale problem dimensions the planner works with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProblemDims {
    /// Number of rows (users) `m`.
    pub m: u64,
    /// Number of columns (items) `n`.
    pub n: u64,
    /// Number of ratings `Nz`.
    pub nz: u64,
    /// Latent dimension `f`.
    pub f: u64,
}

impl ProblemDims {
    /// Dimensions of a concrete sparse matrix with the given rank.
    pub fn new(m: u64, n: u64, nz: u64, f: u64) -> Self {
        Self { m, n, nz, f }
    }
}

/// A feasible `(p, q)` partitioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Number of vertical `Θᵀ` partitions (data parallelism width).
    pub p: usize,
    /// Number of horizontal `X` batches (model-parallel batches solved in
    /// sequence).
    pub q: usize,
}

impl PartitionPlan {
    /// Total number of `R` grid blocks.
    pub fn blocks(&self) -> usize {
        self.p * self.q
    }

    /// The plan with `p` and `q` in `1..=n` and `1..=m`: no partition
    /// without a column, no batch without a row.
    pub(crate) fn clamped(self, dims: &ProblemDims) -> Self {
        Self {
            p: self.p.clamp(1, dims.n.max(1) as usize),
            q: self.q.clamp(1, dims.m.max(1) as usize),
        }
    }
}

impl Default for PartitionPlan {
    /// The trivial plan: everything on one GPU in one batch.
    fn default() -> Self {
        Self { p: 1, q: 1 }
    }
}

/// Error returned when no feasible partitioning exists within the caller's
/// limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError {
    /// Largest `p` tried.
    pub max_p: usize,
    /// Largest `q` tried.
    pub max_q: usize,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no feasible (p ≤ {}, q ≤ {}) partitioning found",
            self.max_p, self.max_q
        )
    }
}

impl std::error::Error for PlanError {}

/// Default headroom ε: 500 MB expressed in single-precision words.
pub const DEFAULT_HEADROOM_WORDS: u64 = 500 * 1024 * 1024 / 4;

/// Left-hand side of equation (8) in words for a given `(p, q)`.
pub fn footprint_words(dims: &ProblemDims, p: usize, q: usize) -> u64 {
    let p = p as u64;
    let q = q as u64;
    let x_batch = dims.m.div_ceil(q) * dims.f;
    let theta_part = dims.n.div_ceil(p) * dims.f;
    let r_block = 2 * dims.nz.div_ceil(p * q) + dims.m.div_ceil(q) + 1;
    let hermitians = dims.m.div_ceil(q) * dims.f * dims.f;
    let rhs = dims.m.div_ceil(q) * dims.f;
    x_batch + theta_part + r_block + hermitians + rhs
}

/// Checks equation (8) for a given `(p, q)`.
pub fn feasible(
    dims: &ProblemDims,
    p: usize,
    q: usize,
    capacity_words: u64,
    headroom_words: u64,
) -> bool {
    if p == 0 || q == 0 {
        return false;
    }
    let budget = capacity_words.saturating_sub(headroom_words);
    footprint_words(dims, p, q) < budget
}

/// The `(p, q)` of one side update of a `dims.m × dims.n` matrix on
/// `n_gpus` devices like `device`, the one planner behind every simulated
/// sweep:
///
/// 1. the equation (8) search of [`plan_with_capacity`] against the
///    device's capacity, with `p ≤ 64·n_gpus` and `q ≤ 2²⁴`, or `(n_gpus,
///    n_gpus)` when nothing there fits;
/// 2. elasticity (§4.4): `q` rounds up to a multiple of `n_gpus / p`, so
///    every GPU has a batch to solve and the waves of batches are even;
/// 3. the plan is clamped to the matrix: `p ≤ n`, `q ≤ m`.
pub fn plan(dims: &ProblemDims, device: &DeviceSpec, n_gpus: usize) -> PartitionPlan {
    let n_gpus = n_gpus.max(1);
    let capacity = device.global_mem_f32_capacity();
    let mut plan = plan_with_capacity(dims, capacity, DEFAULT_HEADROOM_WORDS, n_gpus * 64, 1 << 24)
        .unwrap_or(PartitionPlan {
            p: n_gpus,
            q: n_gpus,
        });
    let lanes = (n_gpus / plan.p).max(1);
    plan.q = plan.q.div_ceil(lanes) * lanes;
    plan.clamped(dims)
}

/// The equation (8) search, following the paper's best practices:
///
/// 1. if everything fits with `p = 1, q = 1`, use a single GPU;
/// 2. otherwise start from the smallest `p` such that `Θᵀ`'s partition is
///    about half the device (`n·f/p ≈ C/2`) and pick the smallest `q`
///    satisfying equation (8);
/// 3. grow `p` (up to `max_p`) if even very large `q` cannot satisfy it.
pub fn plan_with_capacity(
    dims: &ProblemDims,
    capacity_words: u64,
    headroom_words: u64,
    max_p: usize,
    max_q: usize,
) -> Result<PartitionPlan, PlanError> {
    assert!(
        max_p >= 1 && max_q >= 1,
        "partition limits must be at least 1"
    );
    if feasible(dims, 1, 1, capacity_words, headroom_words) {
        return Ok(PartitionPlan { p: 1, q: 1 });
    }
    let budget = capacity_words.saturating_sub(headroom_words);
    // Best practice 3: start from p with n·f/p ≈ C/2.
    let theta_words = dims.n * dims.f;
    let p_start = (2 * theta_words).div_ceil(budget.max(1)).max(1) as usize;
    for p in p_start..=max_p {
        for q in 1..=max_q {
            if feasible(dims, p, q, capacity_words, headroom_words) {
                return Ok(PartitionPlan { p, q });
            }
            // The q-dependent terms shrink as q grows; once they are already
            // tiny, growing q further cannot help — move on to a larger p.
            let residual = footprint_words(dims, p, q) - dims.n.div_ceil(p as u64) * dims.f;
            if residual < budget / 64 {
                break;
            }
        }
    }
    Err(PlanError { max_p, max_q })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumf_data::datasets::PaperDataset;

    fn dims_of(d: PaperDataset, f: u64) -> ProblemDims {
        let s = d.spec();
        ProblemDims::new(s.m, s.n, s.nz, f)
    }

    #[test]
    fn netflix_needs_batching_but_only_one_theta_partition() {
        // §2.2: m·f² for Netflix at f=100 exceeds a 12 GB card, so q > 1;
        // Θᵀ is tiny (17 770 × 100 floats), so p = 1 suffices.
        let dims = dims_of(PaperDataset::Netflix, 100);
        let plan = plan(&dims, &DeviceSpec::titan_x(), 1);
        assert_eq!(plan.p, 1);
        assert!(
            plan.q > 1,
            "Netflix must be solved in batches, got q = {}",
            plan.q
        );
    }

    #[test]
    fn hugewiki_fits_with_four_partitions() {
        // §5.4 runs Hugewiki on four GPUs with data parallelism.
        let dims = dims_of(PaperDataset::Hugewiki, 100);
        let plan = plan(&dims, &DeviceSpec::titan_x(), 4);
        assert!(plan.p <= 4);
        assert!(plan.q >= 1);
        assert!(feasible(
            &dims,
            plan.p,
            plan.q,
            DeviceSpec::titan_x().global_mem_f32_capacity(),
            DEFAULT_HEADROOM_WORDS
        ));
    }

    #[test]
    fn small_problem_runs_on_a_single_gpu() {
        let dims = ProblemDims::new(10_000, 2_000, 500_000, 32);
        let plan = plan(&dims, &DeviceSpec::titan_x(), 1);
        assert_eq!(plan, PartitionPlan { p: 1, q: 1 });
        assert_eq!(plan.blocks(), 1);
        // On four GPUs the same problem is four batches, one per GPU (§4.4).
        let four = super::plan(&dims, &DeviceSpec::titan_x(), 4);
        assert_eq!(four, PartitionPlan { p: 1, q: 4 });
    }

    #[test]
    fn facebook_scale_is_feasible_with_enough_batches() {
        // §5.5: the 112-billion-rating Facebook matrix is solved out of core
        // with many batches on 4 GPUs.
        let dims = dims_of(PaperDataset::Facebook, 16);
        let plan = plan(&dims, &DeviceSpec::gk210(), 4);
        assert!(plan.q > 10, "expected many batches, got q = {}", plan.q);
    }

    #[test]
    fn infeasible_when_theta_partition_alone_exceeds_memory() {
        // Θᵀ bigger than p_max cards can hold in total.
        let dims = ProblemDims::new(1_000, 10_000_000_000, 1_000_000, 100);
        let capacity = DeviceSpec::titan_x().global_mem_f32_capacity();
        let err = plan_with_capacity(&dims, capacity, DEFAULT_HEADROOM_WORDS, 4, 1024).unwrap_err();
        assert!(err.to_string().contains("no feasible"));
        // The planner then falls back to one partition and one batch per
        // GPU.
        let fallback = plan(&dims, &DeviceSpec::titan_x(), 4);
        assert_eq!(fallback, PartitionPlan { p: 4, q: 4 });
    }

    #[test]
    fn feasibility_is_monotone_in_q() {
        let dims = dims_of(PaperDataset::Netflix, 100);
        let cap = DeviceSpec::titan_x().global_mem_f32_capacity();
        let mut seen_feasible = false;
        for q in 1..=64 {
            let ok = feasible(&dims, 1, q, cap, DEFAULT_HEADROOM_WORDS);
            if seen_feasible {
                assert!(ok, "feasibility must not flip back at q = {q}");
            }
            seen_feasible |= ok;
        }
        assert!(seen_feasible);
    }

    #[test]
    fn footprint_decreases_with_more_partitions() {
        let dims = dims_of(PaperDataset::Hugewiki, 100);
        assert!(footprint_words(&dims, 2, 8) < footprint_words(&dims, 1, 8));
        assert!(footprint_words(&dims, 2, 16) < footprint_words(&dims, 2, 8));
    }

    #[test]
    fn plan_with_tiny_capacity_fails() {
        let dims = ProblemDims::new(1000, 1000, 10_000, 16);
        assert!(plan_with_capacity(&dims, 1000, 0, 8, 64).is_err());
    }
}
