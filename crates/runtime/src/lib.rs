//! MPI-like SPMD runtime over OS threads.
//!
//! The paper handles parallel data access with MPI and MPI-IO (§III-D):
//! each process fetches and processes a subset of blocks, then the root
//! gathers results. Thin MPI bindings are unavailable here, so this
//! crate substitutes a rank-per-thread runtime with the same collective
//! surface the executor needs: [`spmd`] launches `n` ranks, each
//! receiving a [`Comm`] with `barrier` and a root `gather`.
//!
//! [`assign`] implements the paper's *column-order* block assignment:
//! equal block counts per rank, with blocks of the same bin packed onto
//! the same rank so each process opens the fewest bin files.
//!
//! [`pool`] is the scoped worker pool behind the parallel write path:
//! [`parallel_map`] fans independent items across a bounded work queue
//! and returns results in input order, so output stays deterministic
//! for any thread count.

//! # Example
//!
//! ```
//! use mloc_runtime::{column_order, spmd};
//!
//! // Four ranks gather their ids at the root, MPI-style.
//! let out = spmd(4, |comm| comm.gather(comm.rank()));
//! assert_eq!(out[0], Some(vec![0, 1, 2, 3]));
//! assert!(out[1..].iter().all(Option::is_none));
//!
//! // Column-order assignment keeps each rank inside few bins.
//! let bins = vec![0, 0, 1, 1, 2, 2];
//! let a = column_order(&bins, 3);
//! assert!(a.per_rank.iter().all(|units| units.len() == 2));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod assign;
pub mod comm;
pub mod pool;

pub use assign::{column_order, distinct_groups_per_rank, round_robin, Assignment};
pub use comm::{spmd, Comm};
pub use pool::parallel_map;
