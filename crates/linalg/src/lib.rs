//! Small dense linear algebra for `cumf-rs`.
//!
//! The ALS inner loop solves, for every user `u`, a small regularized
//! Hermitian (symmetric positive definite) system
//!
//! ```text
//!   A_u · x_u = B_u,      A_u = Σ_{r_uv ≠ 0} (θ_v θ_vᵀ + λ n_{x_u} I),   B_u = Θᵀ R_{u*}ᵀ
//! ```
//!
//! with `f` in the tens-to-hundreds.  The paper offloads the batched solve to
//! cuBLAS (its `batch_solve` phase); here we provide the equivalent building
//! blocks:
//!
//! * [`dense::DenseMatrix`] and [`dense::FactorMatrix`] — row-major dense
//!   storage for `X`, `Θ` and the per-row Hermitians.
//! * [`blas`] — the `get_hermitian` kernels: the register-tiled Hermitian
//!   assembly over a bin of ratings ([`blas::syr_axpy_bin`]), its
//!   one-rating form, and `gemv`, `dot`, `axpy`.
//! * [`cholesky`] — a single-precision blocked Cholesky / forward-backward
//!   solver, in place on the lower triangle of the SPD `f × f` systems, and
//!   the lane-interleaved [`cholesky::GroupSolver`] that factors four such
//!   systems per pass, one per SIMD lane, bit-identically — the stand-in
//!   for the cuBLAS batched routines.
//! * [`batch`] — the blocked retrieval-time scoring kernel
//!   ([`batch::batch_score_block`]) and the segment view the scan walks.
//! * [`quant`] — f16 / i8 storage of item factors, decoded tile by tile
//!   into the same scoring kernel.
//! * [`topk`] — bounded-heap top-k selection and [`topk::scan_top_k`], the
//!   one blocked, pruned scan behind `recommend()` and every serving path.

#![forbid(unsafe_code)]
pub mod batch;
pub mod blas;
pub mod cholesky;
pub mod dense;
pub mod quant;
pub mod topk;

pub use batch::{batch_score_block, score_dot, SegmentView};
pub use cholesky::{cholesky_factor, cholesky_solve, CholeskyError};
pub use dense::{DenseMatrix, FactorMatrix};
pub use quant::{
    batch_score_rows_quant, f16_bits_to_f32, f32_to_f16_bits, EncodedSlab, Precision, F16_REL_ERR,
    F16_SUBNORMAL_ABS,
};
pub use topk::{
    block_max_norms, item_norms, merge_top_k, scan_top_k, ApproxPolicy, PruneStats, ScoreKind,
    TopK, DEFAULT_APPROX_EPSILON,
};
