//! Storage substrate for MLOC: backends plus a simulated parallel
//! file system.
//!
//! The paper evaluates on the Lens cluster's Lustre file system with
//! 2012-era spinning disks; query response times are dominated by
//! seeks, transferred bytes, and contention between processes on a
//! fixed set of Object Storage Targets (OSTs). We do not have that
//! hardware, so this crate substitutes it with:
//!
//! * [`MemBackend`] / [`DirBackend`] — real byte storage (in memory or
//!   in a local directory) for contents;
//! * [`RankIo`] — a per-rank I/O handle that records every read as a
//!   [`ReadOp`] trace while serving bytes from the backend;
//! * [`sim`] — a discrete-event simulator that replays the traces of
//!   all ranks against a [`CostModel`] (striping, per-OST seek cost and
//!   sequential bandwidth, FIFO contention) and charges each rank its
//!   simulated I/O seconds.
//!
//! Because the simulator holds no cache state between queries, every
//! query pays full disk costs — matching the paper's protocol of
//! clearing the system file cache between rounds.

//! # Example
//!
//! ```
//! use mloc_pfs::{simulate_reads, CostModel, MemBackend, RankIo, StorageBackend};
//!
//! let be = MemBackend::new();
//! be.append("data.bin", &[0u8; 4096]).unwrap();
//!
//! // A rank reads through a tracing handle …
//! let mut io = RankIo::new(&be);
//! io.read("data.bin", 0, 1024).unwrap();
//! io.read("data.bin", 2048, 1024).unwrap();
//!
//! // … and the simulator prices the trace on 2012 hardware.
//! let report = simulate_reads(&[io.into_trace()], &CostModel::lens_2012());
//! assert!(report.elapsed() > 0.0);
//! assert_eq!(report.total_bytes, 2048);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod backend;
pub mod cost;
pub mod fault;
pub mod localdir;
pub mod mem;
pub mod retry;
pub mod shard;
pub mod sim;

pub use backend::{RankIo, ReadOp, ReadRequest, ReplicaAccess, StorageBackend};
pub use cost::CostModel;
pub use fault::{BitFlip, CrashBackend, CrashPlan, FaultBackend, FaultPlan, FaultStats};
pub use localdir::DirBackend;
pub use mem::MemBackend;
pub use retry::{op_token, RetryPolicy};
pub use shard::{stable_name_hash, ShardRouter};
pub use sim::{simulate_reads, RankIoBreakdown, SimReport};

/// Errors from storage backends.
#[derive(Debug)]
pub enum PfsError {
    /// The named file does not exist.
    NotFound(String),
    /// Read past the end of a file.
    OutOfBounds {
        /// File being read.
        file: String,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual file size.
        size: u64,
    },
    /// Transient device error: the same read may succeed if retried.
    /// Injected by [`FaultBackend`]; a real PFS surfaces these as EIO /
    /// EAGAIN from a flaky OST.
    Transient {
        /// File being read.
        file: String,
        /// Requested offset.
        offset: u64,
        /// How many attempts the caller had made when this was raised
        /// (1 = first try).
        attempt: u32,
    },
    /// A transient error outlived the caller's retry budget: the op
    /// was retried until the accumulated simulated backoff hit
    /// [`RetryPolicy::max_total_backoff_s`]. Not itself transient —
    /// the budget is spent — so callers stop instead of backing off
    /// unboundedly.
    RetriesExhausted {
        /// File being read.
        file: String,
        /// Requested offset.
        offset: u64,
        /// Attempts made before the budget ran out.
        attempts: u32,
        /// Simulated backoff accumulated when retrying stopped.
        waited_s: f64,
    },
    /// Underlying OS error (directory backend only).
    Io(std::io::Error),
}

impl PfsError {
    /// Whether retrying the same operation may succeed. Permanent
    /// classes (missing file, out-of-bounds, OS errors) return false.
    pub fn is_transient(&self) -> bool {
        matches!(self, PfsError::Transient { .. })
    }

    /// Whether this error reports an exhausted retry budget.
    pub fn is_retries_exhausted(&self) -> bool {
        matches!(self, PfsError::RetriesExhausted { .. })
    }

    /// A batch request the backend returned no result for: a backend
    /// bug, reported as a failed read rather than a panic.
    pub(crate) fn unanswered() -> Self {
        PfsError::Io(std::io::Error::other(
            "backend returned no result for a batch request",
        ))
    }
}

impl std::fmt::Display for PfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PfsError::NotFound(name) => write!(f, "file not found: {name}"),
            PfsError::OutOfBounds {
                file,
                offset,
                len,
                size,
            } => write!(
                f,
                "read [{offset}, {offset}+{len}) past end of {file} (size {size})"
            ),
            PfsError::Transient {
                file,
                offset,
                attempt,
            } => write!(
                f,
                "transient read error on {file} at offset {offset} (attempt {attempt})"
            ),
            PfsError::RetriesExhausted {
                file,
                offset,
                attempts,
                waited_s,
            } => write!(
                f,
                "retry budget exhausted reading {file} at offset {offset} \
                 ({attempts} attempts, {waited_s:.6}s simulated backoff)"
            ),
            PfsError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for PfsError {}

/// An error is handed to every party that waited on the failed
/// operation, so it can be copied; an OS error copies as its kind and
/// message (`std::io::Error` itself is not `Clone`).
impl Clone for PfsError {
    fn clone(&self) -> Self {
        match self {
            PfsError::NotFound(name) => PfsError::NotFound(name.clone()),
            &PfsError::OutOfBounds {
                ref file,
                offset,
                len,
                size,
            } => PfsError::OutOfBounds {
                file: file.clone(),
                offset,
                len,
                size,
            },
            &PfsError::Transient {
                ref file,
                offset,
                attempt,
            } => PfsError::Transient {
                file: file.clone(),
                offset,
                attempt,
            },
            &PfsError::RetriesExhausted {
                ref file,
                offset,
                attempts,
                waited_s,
            } => PfsError::RetriesExhausted {
                file: file.clone(),
                offset,
                attempts,
                waited_s,
            },
            PfsError::Io(e) => PfsError::Io(std::io::Error::new(e.kind(), e.to_string())),
        }
    }
}

impl From<std::io::Error> for PfsError {
    fn from(e: std::io::Error) -> Self {
        PfsError::Io(e)
    }
}
