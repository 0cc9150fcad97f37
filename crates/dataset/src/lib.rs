#![warn(missing_docs)]

//! Synthetic rating workloads shaped like the paper's datasets.
//!
//! The paper evaluates on ChEMBL v20 (483 500 compounds × 5 775 targets,
//! ~1.02 M IC50 measurements) and MovieLens ml-20m (138 493 users × 27 278
//! movies, 20 M ratings). Neither can be redistributed here, so this crate
//! generates matrices with the same *mechanical* properties — the ones the
//! paper's engineering actually responds to:
//!
//! * a planted low-rank model `R = U*V*ᵀ + ε` so RMSE has a known floor
//!   (`noise_sd`) and convergence is checkable,
//! * power-law row/column popularity, which creates the items with ≫1000
//!   ratings that motivate the adaptive kernel (Fig. 2) and the workload
//!   model (§IV-B),
//! * matching shape and density at any `scale`, so the layered benchmark
//!   and `gen_mtx` can dial workload size to the host machine.
//!
//! Users with the real exports can load them through
//! [`bpmf_sparse::read_matrix_market`] and wrap them in a [`Dataset`] with
//! [`Dataset::from_train_test`].

mod split;
mod synthetic;

pub use split::split_train_test;
pub use synthetic::{chembl_like, movielens_like, Dataset, SyntheticConfig};
