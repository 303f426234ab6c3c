//! MLOC: a multi-level layout optimization framework for compressed
//! scientific data exploration with heterogeneous access patterns.
//!
//! This crate reproduces the system of Gong et al. (ICPP 2012). A
//! dataset of double-precision points over a multi-dimensional grid is
//! reorganized through a pipeline of *layout levels*, each optimizing
//! one access pattern:
//!
//! * **V — value binning** ([`binning`]): points are placed into
//!   equal-frequency value bins, one file per bin holding its index and
//!   its data ([`binfile`]; the paper's "subfiling", §III-C, keeps them
//!   in two files — see [`fileorg`] for why this does not). Region
//!   queries with value constraints read only the relevant bins, and
//!   *aligned* bins are answered from the index alone.
//! * **S — spatial chunking** ([`array`], `mloc-hilbert`): the domain
//!   is chunked and chunks are laid out in Hilbert order, so spatially
//!   constrained queries read contiguous extents.
//! * **M — multi-resolution** ([`plod`]): each double is split into 7
//!   byte-groups (2+1+1+1+1+1+1); storing same-position bytes together
//!   lets a query fetch only a precision prefix (PLoD). Subset-based
//!   multi-resolution via hierarchical Hilbert ordering is also
//!   supported.
//! * **C — compression** (`mloc-compress`): every storage unit is
//!   compressed with a pluggable codec (DEFLATE-style byte columns for
//!   MLOC-COL, ISOBAR for MLOC-ISO, ISABELA for MLOC-ISA).
//!
//! The nesting order of the levels inside each bin file is configurable
//! ([`config::LevelOrder`]: V-M-S or V-S-M, Table VII). Queries run
//! serially or over the MPI-like runtime with column-order block
//! assignment (§III-D), and every query reports its I/O /
//! decompression / reconstruction component times (Fig. 6).
//!
//! # Quickstart
//!
//! ```
//! use mloc::prelude::*;
//! use mloc_pfs::MemBackend;
//!
//! // An 8x8 toy field.
//! let values: Vec<f64> = (0..64).map(|i| i as f64).collect();
//! let backend = MemBackend::new();
//! let config = MlocConfig::builder(vec![8, 8])
//!     .chunk_shape(vec![4, 4])
//!     .num_bins(4)
//!     .build();
//! build_variable(&backend, "demo", "temp", &values, &config).unwrap();
//!
//! let store = MlocStore::open(&backend, "demo", "temp").unwrap();
//! // Region query: where is the value in [10, 20)?
//! let query = Query::region(10.0, 20.0);
//! let result = store.query_serial(&query).unwrap();
//! assert_eq!(result.positions().len(), 10);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod array;
pub mod binfile;
pub mod binning;
pub mod build;
pub mod cache;
pub mod config;
pub mod dataset;
pub mod degrade;
pub mod exec;
pub mod fileorg;
pub mod fusion;
pub mod index;
pub mod integrity;
pub mod metrics;
pub mod plod;
pub mod progressive;
pub mod query;
pub mod repair;
pub mod store;
pub mod upgrade;
pub mod verify;
mod wire;

pub use array::{ChunkGrid, Region};
pub use binning::BinSpec;
pub use build::{build_variable, BuildReport, StreamingBuilder};
pub use cache::{BlockCache, ByteView, CacheStats};
pub use config::{ConfigBuilder, LevelOrder, MlocConfig, PlodLevel};
pub use dataset::Dataset;
pub use degrade::{DegradationEvent, DegradationReport};
pub use exec::{ExecOutput, ExecRequest, ParallelExecutor};
pub use fusion::{ExtentFuser, FusionStats};
pub use integrity::ExtentFooter;
pub use metrics::QueryMetrics;
pub use progressive::{ProgressiveQuery, ProgressiveStep};
pub use query::{Query, QueryKind, QueryOutput, QueryResult};
pub use store::MlocStore;
pub use verify::{verify_dataset, verify_variable, ExtentDamage, VerifyReport};

/// Observability re-export: span/counter/histogram profiles
/// ([`obs::Profile`]) returned in [`ExecOutput`] by a profiled executor
/// and embedded in [`build::BuildReport`].
pub use mloc_bitmap as bitmap;
pub use mloc_obs as obs;

/// Convenient glob import for typical users.
pub mod prelude {
    pub use crate::array::Region;
    pub use crate::build::build_variable;
    pub use crate::cache::{BlockCache, CacheStats};
    pub use crate::config::{LevelOrder, MlocConfig, PlodLevel};
    pub use crate::degrade::{DegradationEvent, DegradationReport};
    pub use crate::exec::{ExecOutput, ExecRequest, ParallelExecutor};
    pub use crate::fusion::{ExtentFuser, FusionStats};
    pub use crate::progressive::{ProgressiveQuery, ProgressiveStep};
    pub use crate::query::{Query, QueryOutput, QueryResult};
    pub use crate::store::MlocStore;
    pub use crate::verify::{verify_dataset, verify_variable, VerifyReport};
}

/// Errors from building or querying MLOC datasets. `Clone`, because a
/// rank that failed to fetch a bin's shared blocks hands its error to
/// every rank waiting on them.
#[derive(Debug, Clone)]
pub enum MlocError {
    /// Storage failure.
    Pfs(mloc_pfs::PfsError),
    /// Compressed-stream failure.
    Codec(mloc_compress::CodecError),
    /// Bitmap decode failure.
    Bitmap(mloc_bitmap::wah::BitmapError),
    /// Structurally invalid metadata or index.
    Corrupt(&'static str),
    /// A stored extent failed its checksum (or the checksum footer
    /// itself is damaged). Carries enough context to pinpoint the
    /// damage on disk.
    CorruptExtent {
        /// File containing the bad extent.
        file: String,
        /// Byte offset of the extent.
        offset: u64,
        /// Length of the extent in bytes.
        len: u64,
        /// What failed (checksum mismatch, torn footer, ...).
        what: String,
    },
    /// Invalid user input (query or configuration).
    Invalid(String),
    /// A file of a format before v7: v6, which only `mloc upgrade`
    /// ([`upgrade`]) reads, or one before it, which an older `mloc
    /// upgrade` copies out as v6 first.
    NeedsUpgrade {
        /// The file that gave the store away.
        file: String,
        /// Its format version (2 for a v1/v2 file, whose meta says 2).
        version: u8,
    },
    /// A set chunk's unit part that compressed to no bytes: the bin
    /// file would have no data-table row to locate it by
    /// ([`binfile`]), so it is never built.
    EmptyUnit {
        /// The bin being built.
        bin: u32,
        /// The chunk's curve rank.
        chunk_rank: usize,
        /// The empty part.
        part: usize,
    },
}

impl MlocError {
    /// Whether this error indicates damaged stored data (as opposed to
    /// a storage-layer failure or bad user input).
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            MlocError::Corrupt(_) | MlocError::CorruptExtent { .. } | MlocError::Bitmap(_)
        )
    }
}

impl std::fmt::Display for MlocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlocError::Pfs(e) => write!(f, "storage error: {e}"),
            MlocError::Codec(e) => write!(f, "codec error: {e}"),
            MlocError::Bitmap(e) => write!(f, "bitmap error: {e}"),
            MlocError::Corrupt(why) => write!(f, "corrupt dataset: {why}"),
            MlocError::CorruptExtent {
                file,
                offset,
                len,
                what,
            } => write!(
                f,
                "corrupt extent [{offset}, {offset}+{len}) in {file}: {what}"
            ),
            MlocError::Invalid(why) => write!(f, "invalid request: {why}"),
            MlocError::NeedsUpgrade { file, version: 6 } => write!(
                f,
                "{file} is of format v6, which only `mloc upgrade` reads: copy the dataset \
                 out as v7 with `mloc upgrade --dir OLD --name NAME --out NEW`"
            ),
            MlocError::NeedsUpgrade { file, .. } => write!(
                f,
                "{file} is of a format before v6: copy the dataset out as v6 with `mloc \
                 upgrade` of the CLI at commit a0307bd, then as v7 with this CLI's `mloc \
                 upgrade --dir OLD --name NAME --out NEW`"
            ),
            MlocError::EmptyUnit {
                bin,
                chunk_rank,
                part,
            } => write!(
                f,
                "bin {bin}: part {part} of chunk rank {chunk_rank} compressed to no bytes"
            ),
        }
    }
}

impl std::error::Error for MlocError {}

impl From<mloc_pfs::PfsError> for MlocError {
    fn from(e: mloc_pfs::PfsError) -> Self {
        MlocError::Pfs(e)
    }
}

impl From<mloc_compress::CodecError> for MlocError {
    fn from(e: mloc_compress::CodecError) -> Self {
        MlocError::Codec(e)
    }
}

impl From<mloc_bitmap::wah::BitmapError> for MlocError {
    fn from(e: mloc_bitmap::wah::BitmapError) -> Self {
        MlocError::Bitmap(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MlocError>;

/// The checked-in datasets of the formats nothing writes any more
/// (`tests/golden/v{1,2,3,4,5}_dataset`), the inputs of [`upgrade`]: dataset
/// `fmt`, variable `v`, a `gts_like_2d(64, 64, 41)` field in 16² chunks,
/// 8 bins, deflate with PLoD byte columns.
#[cfg(test)]
pub(crate) mod fixtures {
    use mloc_pfs::{DirBackend, MemBackend, StorageBackend};

    /// The directory of the version-`version` dataset.
    pub fn dir(version: u8) -> String {
        format!(
            "{}/../../tests/golden/v{version}_dataset",
            env!("CARGO_MANIFEST_DIR")
        )
    }

    /// The version-`version` dataset, copied into memory.
    pub fn mem(version: u8) -> MemBackend {
        let dir = DirBackend::uncached(dir(version)).unwrap();
        let mem = MemBackend::new();
        for f in dir.list() {
            mem.create(&f).unwrap();
            mem.append(&f, &dir.read(&f, 0, dir.len(&f).unwrap()).unwrap())
                .unwrap();
        }
        mem
    }
}

/// Lets the shared test oracle name this crate as its integration-test
/// users do.
#[cfg(test)]
extern crate self as mloc;

/// What a query must answer, from the raw field alone: the oracle the
/// unit and integration tests share.
#[cfg(test)]
#[path = "../tests/support/oracle.rs"]
pub(crate) mod oracle;
