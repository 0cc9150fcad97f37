#![warn(missing_docs)]

//! Dense linear algebra for the BPMF reproduction.
//!
//! This crate replaces the role Eigen plays in the paper's C++ implementation:
//! it provides exactly the kernels the BPMF Gibbs sampler is built from,
//! tuned for the small-to-medium square matrices (`K × K`, `K` typically
//! 8–128) that dominate its runtime:
//!
//! * [`Mat`] — a row-major dense matrix with the usual constructors and
//!   element-wise operations,
//! * serial Cholesky factorization ([`Cholesky`]) — right-looking, blocked
//!   by eight columns, its trailing update on the panel kernels' register
//!   tile,
//! * a blocked, multi-threaded Cholesky ([`cholesky_in_place_parallel`]) used
//!   for items with very many ratings (paper, Fig. 2),
//! * blocked panel kernels ([`syrk_ld_lower`], [`gemv_t_acc`]) that fold a
//!   gathered `d × K` panel of counterpart rows into the item precision and
//!   information vector as one rank-d update (the mid/heavy item hot path),
//! * a register-tiled, cache-blocked GEMM ([`gemm_into`], module
//!   [`gemm`]) — the multi-user micro-batch serving engine behind
//!   `Recommender::score_block`,
//! * one shared runtime SIMD dispatch layer ([`simd`]): every explicitly
//!   vectorized kernel (GEMM, the panel kernels, the Cholesky and the
//!   triangular solves, `Mat::matvec_t_into`) picks its scalar, AVX2+FMA or
//!   AVX-512 arm from [`simd::simd_level`], and `BPMF_NO_SIMD=1` forces the
//!   scalar arms process-wide,
//! * a persistent fork-join pool ([`kernel_pool`]) for intra-item
//!   parallelism without per-item thread spawns,
//! * triangular solves and the vector helpers ([`vecops`]) the sampler's hot
//!   loops use.
//!
//! Everything is `f64`; the paper's workloads are well inside `f64` range and
//! the Gibbs sampler is sensitive to the conditioning of the precision
//! matrices, so no `f32` path is offered.
//!
//! # Example
//!
//! ```
//! use bpmf_linalg::{Mat, Cholesky};
//!
//! // Solve the SPD system (A + I) x = b with a Cholesky factorization.
//! let mut a = Mat::identity(3);
//! a[(0, 1)] = 0.5;
//! a[(1, 0)] = 0.5;
//! let chol = Cholesky::factor(&a).unwrap();
//! let mut x = vec![1.0, 2.0, 3.0];
//! chol.solve_in_place(&mut x);
//! let r = a.matvec(&x);
//! assert!((r[0] - 1.0).abs() < 1e-12);
//! ```

mod arm;
mod chol;
mod chol_par;
mod error;
pub mod gemm;
mod mat;
mod matwriter;
mod panel;
mod pool;
pub mod simd;
mod tri;
pub mod vecops;

pub use chol::cholesky_in_place;
pub use chol::Cholesky;
pub use chol_par::{cholesky_in_place_parallel, DEFAULT_BLOCK};
pub use error::LinalgError;
pub use gemm::{
    gemm_gathered_rows_packed, gemm_into, gemm_into_scalar, gemm_packed_into, PackedB, GEMM_KC,
    GEMM_NC,
};
pub use mat::Mat;
pub use matwriter::MatWriter;
pub use panel::{gemv_t_acc, gemv_t_acc_scalar, syrk_ld_lower, syrk_ld_lower_scalar, PANEL_BLOCK};
pub use pool::{kernel_pool, KernelPool};
pub use simd::simd_enabled;
pub use tri::{solve_lower, solve_lower_transpose};
