//! Opening a built variable: metadata and the query-time view.

use crate::array::ChunkGrid;
use crate::binning::BinSpec;
use crate::cache::BlockCache;
use crate::config::MlocConfig;
use crate::exec::ParallelExecutor;
use crate::fileorg;
use crate::fusion::ExtentFuser;
use crate::index::Summaries;
use crate::metrics::QueryMetrics;
use crate::query::{Query, QueryResult};
use crate::wire::{Reader, Writer};
use crate::{MlocError, Result};
use mloc_hilbert::GridOrder;
use mloc_pfs::StorageBackend;
use std::sync::Arc;

const MAGIC: u32 = 0x5445_4D4D; // "MMET"
/// The meta's version, the bin files' format: 7 since a unit part is
/// its payload alone. A version-6 meta — laid out as this one, over bin
/// files whose parts are self-describing streams — is read by
/// [`crate::upgrade`] alone; versions 2 to 5 (the formats before v6) by
/// nothing here.
pub(crate) const VERSION: u8 = 7;
/// The version before [`VERSION`], `mloc upgrade`'s one input.
pub(crate) const PREVIOUS: u8 = 6;

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
    /// Every bin's chunk summaries: the index's coarse level, which the
    /// planner culls with before it opens a bin file. Empty in a meta
    /// of the formats before v6, whose bin files held them.
    pub summaries: Summaries,
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
        w.bytes(self.summaries.as_bytes());
        w.finish()
    }

    /// Parse bytes produced by [`Self::encode`]. A meta of versions 2
    /// to 6 fails with the error that names `mloc upgrade`.
    pub fn decode(data: &[u8]) -> Result<VariableMeta> {
        Self::decode_current(data, "meta")
    }

    /// [`Self::decode`], naming `file` in the upgrade error.
    fn decode_current(data: &[u8], file: &str) -> Result<VariableMeta> {
        match Self::decode_any(data)? {
            (VERSION, meta) => Ok(meta),
            (version, _) => Err(crate::upgrade::needed(file, version)),
        }
    }

    /// Parse a meta of any version, and say which: versions 2 to 5
    /// differ from 7 in their version byte and in holding no summaries,
    /// which a version-6 or -7 meta ends with — one section per bin,
    /// each checked as a query reads it.
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
        let rest = r.remaining();
        let summaries = if version >= PREVIOUS {
            // The chunk count of the configuration's grid, with checked
            // arithmetic: a damaged meta may state any shape.
            let ceil = |(&s, &c): (&usize, &usize)| (c > 0).then(|| s.div_ceil(c));
            let mut extents = config.shape.iter().zip(&config.chunk_shape).map(ceil);
            let num_chunks = extents
                .try_fold(1usize, |n, e| n.checked_mul(e?))
                .filter(|_| config.shape.len() == config.chunk_shape.len())
                .ok_or(MlocError::Corrupt("bad chunk grid"))?;
            Summaries::parse(rest.to_vec(), config.num_bins, num_chunks)?
        } else {
            Summaries::none()
        };
        let meta = VariableMeta {
            var,
            config,
            bin_bounds,
            total_points,
            summaries,
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

    /// Every bin's chunk summaries, from the meta.
    pub fn summaries(&self) -> &Summaries {
        &self.meta.summaries
    }

    /// Bin `bin`'s fixed blocks parsed in place from `raw`, its file
    /// from the start at least to the end of its data table, by the
    /// bin's summaries — unverified, for tools that inspect a file
    /// ([`crate::binfile::parse_fixed`]).
    ///
    /// # Panics
    /// Panics when `bin` is not below the variable's bin count.
    pub fn parse_fixed(&self, bin: usize, raw: &[u8]) -> Result<crate::cache::FixedBlocks> {
        let (parts, order) = (self.config().num_parts(), self.config().level_order);
        let summaries = self.summaries().bin(bin);
        crate::binfile::parse_fixed(raw, &summaries, parts, order, self.bin_file(bin))
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
    use crate::index::{encode_summaries, ChunkSummary};

    /// `bins` sections of `chunks` empty chunks, and one point in chunk
    /// 0 of bin 0.
    fn summaries(bins: usize, chunks: usize) -> Summaries {
        let mut w = Writer::new();
        for bin in 0..bins {
            let mut records = vec![ChunkSummary::EMPTY; chunks];
            if bin == 0 {
                records[0] = ChunkSummary {
                    count: 1,
                    min_pos: 3,
                    max_pos: 3,
                    all_of_chunk: false,
                };
            }
            encode_summaries(&records, &mut w);
        }
        Summaries::parse(w.finish(), bins, chunks).unwrap()
    }

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
            summaries: summaries(10, 8),
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
            summaries: summaries(2, 4),
        };
        let bytes = meta.encode();
        assert!(VariableMeta::decode(&bytes[..10]).is_err());
        // A summary section cut short, or one byte too many.
        assert!(VariableMeta::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(VariableMeta::decode(&[&bytes[..], &[0]].concat()).is_err());
        let mut bad = bytes.clone();
        bad[0] ^= 1;
        assert!(VariableMeta::decode(&bad).is_err());
    }
}
