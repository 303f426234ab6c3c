//! Opening a built variable: metadata and the query-time view.

use crate::array::ChunkGrid;
use crate::binning::BinSpec;
use crate::cache::BlockCache;
use crate::config::MlocConfig;
use crate::exec::ParallelExecutor;
use crate::fileorg;
use crate::fusion::ExtentFuser;
use crate::metrics::QueryMetrics;
use crate::query::{Query, QueryResult};
use crate::wire::{Reader, Writer};
use crate::{MlocError, Result};
use mloc_hilbert::GridOrder;
use mloc_pfs::StorageBackend;
use std::sync::Arc;

const MAGIC: u32 = 0x5445_4D4D; // "MMET"
/// The meta's version, the bin files' format: 4 since a bitmap is
/// stored as its run list. A version-2 meta (formats v1/v2, two files
/// per bin) or version-3 one (WAH bitmaps) is read by
/// [`crate::upgrade`] alone.
pub(crate) const VERSION: u8 = 4;

/// Serialized per-variable metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableMeta {
    /// Variable name.
    pub var: String,
    /// Build configuration.
    pub config: MlocConfig,
    /// Equal-frequency bin boundaries.
    pub bin_bounds: Vec<f64>,
    /// Total number of points.
    pub total_points: u64,
}

impl VariableMeta {
    /// Serialize to the meta-file byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(MAGIC);
        w.u8(VERSION);
        w.string(&self.var);
        self.config.encode_into(&mut w);
        w.f64_vec(&self.bin_bounds);
        w.u64(self.total_points);
        w.finish()
    }

    /// Parse bytes produced by [`Self::encode`]. A version-2 or -3
    /// meta fails with the error that names `mloc upgrade`.
    pub fn decode(data: &[u8]) -> Result<VariableMeta> {
        Self::decode_current(data, "meta")
    }

    /// [`Self::decode`], naming `file` in the upgrade error.
    fn decode_current(data: &[u8], file: &str) -> Result<VariableMeta> {
        match Self::decode_any(data)? {
            (VERSION, meta) => Ok(meta),
            _ => Err(crate::upgrade::needed(file)),
        }
    }

    /// Parse a meta of any version, and say which: versions 2 and 3
    /// differ from 4 in their version byte alone.
    pub(crate) fn decode_any(data: &[u8]) -> Result<(u8, VariableMeta)> {
        let mut r = Reader::new(data);
        if r.u32()? != MAGIC {
            return Err(MlocError::Corrupt("bad meta magic"));
        }
        let version = r.u8()?;
        if !(2..=VERSION).contains(&version) {
            return Err(MlocError::Corrupt("unsupported meta version"));
        }
        let var = r.string()?;
        let config = MlocConfig::decode_from(&mut r)?;
        let bin_bounds = r.f64_vec()?;
        let total_points = r.u64()?;
        if bin_bounds.len() != config.num_bins + 1 {
            return Err(MlocError::Corrupt("bin bound count mismatch"));
        }
        let meta = VariableMeta {
            var,
            config,
            bin_bounds,
            total_points,
        };
        Ok((version, meta))
    }

    /// Decode a whole meta file as stored: its checksum footer, then
    /// the payload. The footer's valid trailer doubles as the build's
    /// commit marker (it is written last), so a torn or bit-flipped
    /// meta fails here instead of parsing garbage.
    pub(crate) fn from_file(raw: &[u8], file: &str) -> Result<VariableMeta> {
        let payload = crate::integrity::ExtentFooter::split_verified(raw, file)?;
        VariableMeta::decode_current(payload, file)
    }
}

/// A built MLOC variable, opened for querying.
pub struct MlocStore<'a> {
    backend: &'a dyn StorageBackend,
    dataset: String,
    meta: VariableMeta,
    grid: ChunkGrid,
    order: GridOrder,
    spec: BinSpec,
    cache: Option<Arc<BlockCache>>,
    cache_scope: Arc<str>,
    fuser: Option<Arc<ExtentFuser>>,
    /// Per bin: the name of its file. Named once, at open: every
    /// request, retry and trace record of a file clones the pointer.
    files: Vec<Arc<str>>,
}

impl<'a> MlocStore<'a> {
    /// Open `dataset/var` from a backend by reading its metadata.
    pub fn open(
        backend: &'a dyn StorageBackend,
        dataset: &str,
        var: &str,
    ) -> Result<MlocStore<'a>> {
        let meta_name = fileorg::meta_file(dataset, var);
        let meta = VariableMeta::from_file(&fileorg::read_file(backend, &meta_name)?, &meta_name)?;
        let grid = ChunkGrid::new(meta.config.shape.clone(), meta.config.chunk_shape.clone());
        let order = meta.config.chunk_order(&grid);
        let spec = BinSpec::from_bounds(meta.bin_bounds.clone())?;
        let cache_scope = Arc::from(format!("{dataset}/{}", meta.var).as_str());
        let var = meta.var.as_str();
        let files = (0..meta.config.num_bins)
            .map(|bin| Arc::from(fileorg::bin_file(dataset, var, bin)))
            .collect();
        Ok(MlocStore {
            backend,
            dataset: dataset.to_string(),
            meta,
            grid,
            order,
            spec,
            cache: None,
            cache_scope,
            fuser: None,
            files,
        })
    }

    /// Attach a decompressed-block cache ([`crate::cache`]). Queries
    /// through this store probe it before the backend; blocks under the
    /// same cache can be shared across stores, variables and threads.
    /// A built variable is immutable, so cached blocks never go stale —
    /// rebuilding under the same `dataset/var` names needs a new cache.
    pub fn with_cache(mut self, cache: Arc<BlockCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attach or detach the block cache in place.
    pub fn set_cache(&mut self, cache: Option<Arc<BlockCache>>) {
        self.cache = cache;
    }

    /// The attached block cache, if any.
    pub fn cache(&self) -> Option<&Arc<BlockCache>> {
        self.cache.as_ref()
    }

    /// The `dataset/var` scope string cache keys carry.
    pub fn cache_scope(&self) -> &Arc<str> {
        &self.cache_scope
    }

    /// Attach a cross-session extent fuser ([`crate::fusion`]): merged
    /// reads through this store are shared with every other store of
    /// the same admission window that holds the same fuser. The caller
    /// rotates windows via [`ExtentFuser::begin_window`].
    pub fn with_fusion(mut self, fuser: Arc<ExtentFuser>) -> Self {
        self.fuser = Some(fuser);
        self
    }

    /// Attach or detach the extent fuser in place.
    pub fn set_fusion(&mut self, fuser: Option<Arc<ExtentFuser>>) {
        self.fuser = fuser;
    }

    /// The attached extent fuser, if any.
    pub fn fuser(&self) -> Option<&Arc<ExtentFuser>> {
        self.fuser.as_ref()
    }

    /// The storage backend.
    pub fn backend(&self) -> &'a dyn StorageBackend {
        self.backend
    }

    /// Dataset name.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// Variable name.
    pub fn var(&self) -> &str {
        &self.meta.var
    }

    /// Build configuration.
    pub fn config(&self) -> &MlocConfig {
        &self.meta.config
    }

    /// Total number of points.
    pub fn total_points(&self) -> u64 {
        self.meta.total_points
    }

    /// Chunk geometry.
    pub fn grid(&self) -> &ChunkGrid {
        &self.grid
    }

    /// Chunk curve ordering.
    pub fn order(&self) -> &GridOrder {
        &self.order
    }

    /// Value-bin specification.
    pub fn bins(&self) -> &BinSpec {
        &self.spec
    }

    /// Name of a bin's file.
    ///
    /// # Panics
    /// Panics when `bin` is not below the variable's bin count.
    pub fn bin_file(&self, bin: usize) -> &Arc<str> {
        &self.files[bin]
    }

    /// Run a query on a single rank with the default cost model and
    /// return just the result.
    pub fn query_serial(&self, query: &Query) -> Result<QueryResult> {
        Ok(self.query_with_metrics(query)?.0)
    }

    /// Run a query on a single rank and return result plus metrics.
    pub fn query_with_metrics(&self, query: &Query) -> Result<(QueryResult, QueryMetrics)> {
        ParallelExecutor::serial().execute(self, query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip() {
        let config = MlocConfig::builder(vec![64, 32])
            .chunk_shape(vec![16, 16])
            .num_bins(10)
            .build();
        let meta = VariableMeta {
            var: "temperature".into(),
            config,
            bin_bounds: (0..=10).map(|i| i as f64 * 3.5).collect(),
            total_points: 2048,
        };
        let decoded = VariableMeta::decode(&meta.encode()).unwrap();
        assert_eq!(decoded, meta);
    }

    #[test]
    fn meta_rejects_corruption() {
        let config = MlocConfig::builder(vec![8, 8])
            .chunk_shape(vec![4, 4])
            .num_bins(2)
            .build();
        let meta = VariableMeta {
            var: "v".into(),
            config,
            bin_bounds: vec![0.0, 1.0, 2.0],
            total_points: 64,
        };
        let bytes = meta.encode();
        assert!(VariableMeta::decode(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(VariableMeta::decode(&bad).is_err());
    }
}
