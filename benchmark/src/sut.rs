//! The system under test, as the harness sees it.
//!
//! This is the **only** file of the benchmark that names `mloc*`
//! items: one thin function per call the harness makes. A change that
//! claims a gain may not edit `benchmark/`, so everything listed here
//! must keep compiling (same paths, same signatures as used below):
//!
//! * `mloc_datagen::gts_like_2d(rows, cols, seed) -> Field`, `Field::into_values`
//! * `mloc_pfs::{StorageBackend, ReadRequest, PfsError, DirBackend, CostModel}` —
//!   the nine verbs `create, append, read, read_batch, sync, remove, len,
//!   exists, list`; `DirBackend::{new, uncached, open_count}`
//! * `mloc::{MlocConfig, Dataset, MlocStore, BlockCache, ParallelExecutor,
//!   Query, QueryResult, QueryMetrics, Region, ChunkGrid, BinSpec, PlodLevel}` —
//!   `MlocConfig::builder(..).chunk_shape(..).num_bins(..).codec(..)
//!   .build_threads(..).build()`, `Dataset::{create, add_variable}`,
//!   `BuildReport.{data_bytes, index_bytes, meta_bytes, raw_bytes,
//!   encode_seconds, layout_seconds, write_seconds}`,
//!   `MlocStore::{open, with_cache, cache}`, `BlockCache::{with_budget_mb,
//!   with_budget_bytes, get, insert, stats}`, `CacheStats.{hits, misses,
//!   evictions, resident_bytes}`,
//!   `ParallelExecutor::{new, execute_plan, progressive}`,
//!   `mloc::query::plan::{make_plan, Plan}`, the `QueryMetrics` fields
//!   copied into [`OpMetrics`], `ProgressiveQuery::{run_to_target_error,
//!   into_outcome}`, `ProgressiveStep.{error_bound, logical_bytes()}`,
//!   `mloc::repair::fsck`, `mloc::verify_dataset`,
//!   `mloc::plod::{split, assemble, relative_error_bound}`,
//!   `mloc::cache::{BlockKey, BlockPart, CachedBlock, ByteView}`
//! * `mloc_serve::{QueryServer, ServeConfig, SessionSpec, SessionReport}` —
//!   `QueryServer::{new, run, cache_stats, fusion_stats}`,
//!   `FusionStats.{physical_reads, fused_reads}`
//! * `mloc_compress::CodecKind::{byte_codec, float_codec}`
//! * `mloc_bitmap::{WahBitmap, RankSelectDir}` — `from_sorted_positions,
//!   as_ref().for_each_one_run, rank, size_in_bytes, rank_with`
//! * `mloc_hilbert::{CurveKind, GridOrder}`, `mloc_hilbert::grid::contiguous_runs`
//! * `mloc_runtime::{parallel_map, spmd}`, `Comm::gather`
//! * `mloc_obs::Collector::{new, begin, end}`

use crate::gen::QuerySpec;
use crate::trace::{self, Recorder};
use mloc::cache::{BlockKey, BlockPart, ByteView, CachedBlock};
use mloc::query::plan::{make_plan, Plan};
use mloc::{
    BinSpec, BlockCache, ChunkGrid, Dataset, MlocConfig, MlocStore, ParallelExecutor, PlodLevel,
    ProgressiveQuery, Query, QueryMetrics, QueryResult, Region,
};
use mloc_bitmap::{RankSelectDir, WahBitmap};
use mloc_compress::CodecKind;
use mloc_hilbert::{CurveKind, GridOrder};
use mloc_pfs::{CostModel, DirBackend, PfsError, ReadRequest, StorageBackend};
use mloc_serve::{QueryServer, ServeConfig, SessionReport, SessionSpec};
use std::path::Path;
use std::sync::Arc;

/// Seed of the generated field — fixed; `--seed` drives only queries.
pub const FIELD_SEED: u64 = 11;
/// Variable name used inside every dataset.
pub const VAR: &str = "v";
/// ISABELA point-wise relative error bound of MLOC-ISA (0.1 %).
pub const ISA_ERROR_BOUND: f64 = 0.001;

/// GTS-like 2-D field, row-major.
pub fn gen_field(n: usize) -> Vec<f64> {
    mloc_datagen::gts_like_2d(n, n, FIELD_SEED).into_values()
}

// ---------------------------------------------------------------------
// Storage

/// `DirBackend` with a span and a byte count around each of the nine
/// storage verbs. Defined here, outside the program; it forwards every
/// call unchanged.
pub struct TimedBackend {
    inner: DirBackend,
    rec: Arc<Recorder>,
}

fn result_bytes<T>(r: &Result<T, PfsError>, bytes: impl FnOnce(&T) -> u64) -> (u64, u64) {
    match r {
        Ok(v) => (bytes(v), 0),
        Err(_) => (0, 1),
    }
}

impl StorageBackend for TimedBackend {
    fn create(&self, name: &str) -> Result<(), PfsError> {
        self.rec.verb(
            trace::CREATE,
            || self.inner.create(name),
            |r| result_bytes(r, |_| 0),
        )
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PfsError> {
        self.rec.verb(
            trace::APPEND,
            || self.inner.append(name, data),
            |r| result_bytes(r, |_| data.len() as u64),
        )
    }

    fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
        self.rec.touch_file(name);
        self.rec.verb(
            trace::READ,
            || self.inner.read(name, offset, len),
            |r| result_bytes(r, |v| v.len() as u64),
        )
    }

    fn read_batch(&self, requests: &[ReadRequest]) -> Vec<Result<Vec<u8>, PfsError>> {
        for r in requests {
            self.rec.touch_file(&r.file);
        }
        self.rec.batch_depth(requests.len());
        self.rec.verb(
            trace::READ_BATCH,
            || self.inner.read_batch(requests),
            |rs| {
                let bytes = rs.iter().flatten().map(|v| v.len() as u64).sum();
                (bytes, rs.iter().filter(|r| r.is_err()).count() as u64)
            },
        )
    }

    fn sync(&self, name: &str) -> Result<(), PfsError> {
        self.rec.verb(
            trace::SYNC,
            || self.inner.sync(name),
            |r| result_bytes(r, |_| 0),
        )
    }

    fn remove(&self, name: &str) -> Result<(), PfsError> {
        self.rec.verb(
            trace::REMOVE,
            || self.inner.remove(name),
            |r| result_bytes(r, |_| 0),
        )
    }

    fn len(&self, name: &str) -> Result<u64, PfsError> {
        self.rec.verb(
            trace::LEN,
            || self.inner.len(name),
            |r| result_bytes(r, |_| 0),
        )
    }

    fn exists(&self, name: &str) -> bool {
        self.rec
            .verb(trace::EXISTS, || self.inner.exists(name), |_| (0, 0))
    }

    fn list(&self) -> Vec<String> {
        self.rec.verb(trace::LIST, || self.inner.list(), |_| (0, 0))
    }
}

/// A directory backend, plain (untraced runs) or behind the timing
/// shim (traced runs).
pub enum Backend {
    Plain(DirBackend),
    Timed(TimedBackend),
}

impl Backend {
    fn wrap(
        inner: Result<DirBackend, PfsError>,
        rec: Option<Arc<Recorder>>,
    ) -> Result<Backend, String> {
        let inner = inner.map_err(|e| e.to_string())?;
        Ok(match rec {
            Some(rec) => Backend::Timed(TimedBackend { inner, rec }),
            None => Backend::Plain(inner),
        })
    }

    /// Open `dir` (created if missing); `rec` selects the timed shim.
    pub fn open(dir: &Path, rec: Option<Arc<Recorder>>) -> Result<Backend, String> {
        Backend::wrap(DirBackend::new(dir), rec)
    }

    /// The reopen-per-operation variant: every read is one `open`.
    #[cfg(test)]
    pub fn open_uncached(dir: &Path, rec: Option<Arc<Recorder>>) -> Result<Backend, String> {
        Backend::wrap(DirBackend::uncached(dir), rec)
    }

    fn as_dyn(&self) -> &dyn StorageBackend {
        match self {
            Backend::Plain(b) => b,
            Backend::Timed(b) => b,
        }
    }

    fn dir(&self) -> &DirBackend {
        match self {
            Backend::Plain(b) => b,
            Backend::Timed(b) => &b.inner,
        }
    }

    /// Files actually `open`ed so far (racy under concurrent readers).
    pub fn opens(&self) -> u64 {
        self.dir().open_count()
    }

    /// Raw verbs, for the shim's own tests.
    #[cfg(test)]
    pub fn append(&self, name: &str, data: &[u8]) -> Result<u64, String> {
        self.as_dyn().append(name, data).map_err(|e| e.to_string())
    }

    #[cfg(test)]
    pub fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, String> {
        self.as_dyn()
            .read(name, offset, len)
            .map_err(|e| e.to_string())
    }

    #[cfg(test)]
    pub fn read_batch(&self, requests: &[(&str, u64, u64)]) -> Vec<Result<Vec<u8>, String>> {
        let reqs: Vec<ReadRequest> = requests
            .iter()
            .map(|&(f, o, l)| ReadRequest::new(f, o, l))
            .collect();
        self.as_dyn()
            .read_batch(&reqs)
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect()
    }

    #[cfg(test)]
    pub fn len(&self, name: &str) -> Result<u64, String> {
        self.as_dyn().len(name).map_err(|e| e.to_string())
    }

    #[cfg(test)]
    pub fn list(&self) -> Vec<String> {
        self.as_dyn().list()
    }
}

// ---------------------------------------------------------------------
// Build, fsck, verify

/// The three MLOC configurations the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// V-M-S, PLoD byte columns, DEFLATE-style codec.
    Col,
    /// ISOBAR lossless, whole-value units.
    Iso,
    /// ISABELA lossy (0.1 %), whole-value units.
    Isa,
}

impl Variant {
    pub const ALL: [Variant; 3] = [Variant::Col, Variant::Iso, Variant::Isa];

    /// Dataset name on storage and metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Col => "col",
            Variant::Iso => "iso",
            Variant::Isa => "isa",
        }
    }

    fn codec(self) -> CodecKind {
        match self {
            Variant::Col => CodecKind::Deflate,
            Variant::Iso => CodecKind::Isobar,
            Variant::Isa => CodecKind::Isabela {
                error_bound: ISA_ERROR_BOUND,
            },
        }
    }
}

/// Grid geometry shared by every variant of one field.
#[derive(Debug, Clone)]
pub struct Geometry {
    pub shape: Vec<usize>,
    pub chunk: Vec<usize>,
    pub bins: usize,
}

/// What one build reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    pub stored_bytes: u64,
    pub raw_bytes: u64,
    pub encode_s: f64,
    pub layout_s: f64,
    pub write_s: f64,
}

/// `Dataset::create` + `add_variable` (fsynced catalog chain).
pub fn build(
    backend: &Backend,
    variant: Variant,
    geo: &Geometry,
    threads: usize,
    values: &[f64],
) -> Result<BuildStats, String> {
    let config = MlocConfig::builder(geo.shape.clone())
        .chunk_shape(geo.chunk.clone())
        .num_bins(geo.bins)
        .codec(variant.codec())
        .build_threads(threads)
        .build();
    let ds =
        Dataset::create(backend.as_dyn(), variant.name(), config).map_err(|e| e.to_string())?;
    let r = ds.add_variable(VAR, values).map_err(|e| e.to_string())?;
    Ok(BuildStats {
        stored_bytes: r.data_bytes + r.index_bytes + r.meta_bytes,
        raw_bytes: r.raw_bytes,
        encode_s: r.encode_seconds,
        layout_s: r.layout_seconds,
        write_s: r.write_seconds,
    })
}

/// Read-only consistency check; `Ok(true)` when the dataset is clean.
pub fn fsck(backend: &Backend, variant: Variant) -> Result<bool, String> {
    mloc::repair::fsck(backend.as_dyn(), variant.name())
        .map(|r| r.is_clean())
        .map_err(|e| e.to_string())
}

/// Checksum verification of every extent; `Ok(true)` when undamaged.
pub fn verify(backend: &Backend, variant: Variant) -> Result<bool, String> {
    mloc::verify_dataset(backend.as_dyn(), variant.name())
        .map(|r| r.is_clean() && r.extents_checked > 0)
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Query

/// Block-cache counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub resident_bytes: u64,
}

fn cache_counters(s: mloc::CacheStats) -> CacheCounters {
    CacheCounters {
        hits: s.hits,
        misses: s.misses,
        evictions: s.evictions,
        resident_bytes: s.resident_bytes,
    }
}

/// An opened variable.
pub struct Store<'a>(MlocStore<'a>);

/// Open a built variant, optionally behind a fresh block cache.
pub fn open<'a>(
    backend: &'a Backend,
    variant: Variant,
    cache_mb: Option<u64>,
) -> Result<Store<'a>, String> {
    let store =
        MlocStore::open(backend.as_dyn(), variant.name(), VAR).map_err(|e| e.to_string())?;
    Ok(Store(match cache_mb {
        Some(mb) => store.with_cache(Arc::new(BlockCache::with_budget_mb(mb))),
        None => store,
    }))
}

impl Store<'_> {
    pub fn cache(&self) -> Option<CacheCounters> {
        self.0.cache().map(|c| cache_counters(c.stats()))
    }
}

/// A query in the program's own type, built outside the timed call.
pub struct Prepared(Query);

pub fn prepare(q: &QuerySpec) -> Prepared {
    let mut query = match (&q.points, q.vc) {
        (Some(points), Some((lo, hi))) => Query::membership_where(lo, hi, points.clone()),
        (Some(points), None) => Query::membership(points.clone()),
        (None, vc) => Query::new(
            vc,
            q.sc.clone().map(Region::new),
            PlodLevel::FULL,
            mloc::QueryOutput::Positions,
        ),
    };
    if q.values {
        query = query.with_values();
    }
    Prepared(query.with_plod(PlodLevel::new(q.plod).expect("PLoD level 1..=7")))
}

/// A query plan and its shape counters.
pub struct Planned(Plan);

impl Planned {
    pub fn units(&self) -> usize {
        self.0.units.len()
    }
    pub fn bins(&self) -> usize {
        self.0.bins_touched
    }
    pub fn aligned_bins(&self) -> usize {
        self.0.aligned_bins
    }
    pub fn chunks(&self) -> usize {
        self.0.chunks_touched
    }
}

/// What a completed query reported about itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpMetrics {
    pub io_s: f64,
    pub decompress_s: f64,
    pub reconstruct_s: f64,
    pub bytes_read: u64,
    pub index_bytes: u64,
    pub data_bytes: u64,
    pub seeks: u64,
    pub bytes_saved: u64,
    pub fused_bytes_saved: u64,
}

fn op_metrics(m: &QueryMetrics) -> OpMetrics {
    OpMetrics {
        io_s: m.io_s,
        decompress_s: m.decompress_s,
        reconstruct_s: m.reconstruct_s,
        bytes_read: m.bytes_read,
        index_bytes: m.index_bytes,
        data_bytes: m.data_bytes,
        seeks: m.seeks,
        bytes_saved: m.bytes_saved,
        fused_bytes_saved: m.fused_bytes_saved,
    }
}

/// A query answer: sorted positions, optionally with values.
pub struct Answer(QueryResult);

impl Answer {
    pub fn positions(&self) -> &[u64] {
        self.0.positions()
    }
    pub fn values(&self) -> Option<&[f64]> {
        self.0.values()
    }
}

/// Single-rank replay executor with the default (Lens-like) PFS model.
pub struct Exec(ParallelExecutor);

impl Exec {
    pub fn one_rank() -> Exec {
        Exec(ParallelExecutor::new(1, CostModel::default()))
    }
}

pub fn plan(store: &Store<'_>, q: &Prepared) -> Result<Planned, String> {
    make_plan(&store.0, &q.0)
        .map(Planned)
        .map_err(|e| e.to_string())
}

pub fn execute(
    exec: &Exec,
    store: &Store<'_>,
    q: &Prepared,
    plan: &Planned,
) -> Result<(Answer, OpMetrics), String> {
    exec.0
        .execute_plan(&store.0, &q.0, &plan.0, None)
        .map(|(r, m)| (Answer(r), op_metrics(&m)))
        .map_err(|e| e.to_string())
}

/// One step of a progressive ladder.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Bytes the step needed: read, or served by the cache or fuser.
    pub logical_bytes: u64,
    pub error_bound: f64,
}

fn steps_of(steps: &[mloc::ProgressiveStep]) -> Vec<Step> {
    steps
        .iter()
        .map(|s| Step {
            logical_bytes: s.logical_bytes(),
            error_bound: s.error_bound,
        })
        .collect()
}

/// A started progressive query: step 0 is already served.
pub struct Ladder<'s, 'a>(ProgressiveQuery<'s, 'a>);

pub fn progressive<'s, 'a>(
    exec: &Exec,
    store: &'s Store<'a>,
    q: &Prepared,
) -> Result<Ladder<'s, 'a>, String> {
    exec.0
        .progressive(&store.0, &q.0)
        .map(Ladder)
        .map_err(|e| e.to_string())
}

impl Ladder<'_, '_> {
    /// Pull refinements until the error bound is at most `eps`.
    pub fn run_to(&mut self, eps: f64) -> Result<(), String> {
        self.0.run_to_target_error(eps).map_err(|e| e.to_string())
    }

    pub fn finish(self) -> (Answer, OpMetrics, Vec<Step>) {
        let (r, m, steps, _) = self.0.into_outcome();
        (Answer(r), op_metrics(&m), steps_of(&steps))
    }
}

/// Worst-case relative error of values kept at PLoD `level`.
pub fn plod_error_bound(level: u8) -> f64 {
    mloc::plod::relative_error_bound(PlodLevel::new(level).expect("PLoD level 1..=7"))
}

// ---------------------------------------------------------------------
// Serve

/// The server settings the `storm` workload fixes.
#[derive(Debug, Clone, Copy)]
pub struct ServerCfg {
    pub workers: usize,
    pub window: usize,
    pub fusion: bool,
    pub cache_mb: u64,
}

pub struct Server<'a>(QueryServer<'a>);

/// Sessions to submit together, in the program's own type.
#[derive(Default)]
pub struct Batch(Vec<SessionSpec>);

impl Batch {
    /// Append one session; `progressive_eps` makes it a progressive
    /// ladder that stops at that error bound.
    pub fn push(
        &mut self,
        tenant: &str,
        variant: Variant,
        q: &QuerySpec,
        progressive_eps: Option<f64>,
    ) {
        let spec = SessionSpec::new(tenant, variant.name(), VAR, prepare(q).0);
        self.0.push(match progressive_eps {
            Some(eps) => spec.with_target_error(eps),
            None => spec,
        });
    }

    /// The sessions `range` of this batch as a batch of their own.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Batch {
        Batch(self.0[range].to_vec())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// One session's report.
pub struct SessionOut(SessionReport);

impl SessionOut {
    pub fn wall_s(&self) -> f64 {
        self.0.wall_s
    }
    pub fn metrics(&self) -> Option<OpMetrics> {
        self.0.metrics.as_ref().map(op_metrics)
    }
    pub fn steps(&self) -> Option<Vec<Step>> {
        self.0.steps.as_deref().map(steps_of)
    }
    /// Positions and values of a completed session, or why it failed.
    pub fn answer(&self) -> Result<(&[u64], Option<&[f64]>), String> {
        match &self.0.outcome {
            Ok(r) => Ok((r.positions(), r.values())),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Fused-read counters of a server.
#[derive(Debug, Clone, Copy, Default)]
pub struct FusionCounters {
    pub physical_reads: u64,
    pub fused_reads: u64,
}

impl<'a> Server<'a> {
    /// A resident server: single-rank sessions, no budgets.
    pub fn new(backend: &'a Backend, cfg: ServerCfg) -> Server<'a> {
        Server(QueryServer::new(
            backend.as_dyn(),
            ServeConfig {
                workers: cfg.workers,
                window: cfg.window,
                fusion: cfg.fusion,
                cache_mb: cfg.cache_mb,
                nranks: 1,
                ..ServeConfig::default()
            },
        ))
    }

    /// Run one batch to completion (a closed-loop batch API).
    pub fn run(&self, batch: &Batch) -> Vec<SessionOut> {
        self.0.run(&batch.0).into_iter().map(SessionOut).collect()
    }

    pub fn cache(&self) -> CacheCounters {
        self.0.cache_stats().map(cache_counters).unwrap_or_default()
    }

    pub fn fusion(&self) -> FusionCounters {
        self.0
            .fusion_stats()
            .map(|f| FusionCounters {
                physical_reads: f.physical_reads,
                fused_reads: f.fused_reads,
            })
            .unwrap_or_default()
    }
}

// ---------------------------------------------------------------------
// Kernel probes: one public function of one layer per call.

/// Encode one storage unit the way the build path does: PLoD byte
/// columns through the byte codec (COL), or the whole-value stream
/// through the float codec (ISO, ISA).
pub fn codec_encode(variant: Variant, values: &[f64]) -> Vec<Vec<u8>> {
    match variant {
        Variant::Col => {
            let codec = variant.codec().byte_codec();
            mloc::plod::split(values)
                .iter()
                .map(|part| codec.compress(part))
                .collect()
        }
        _ => vec![variant.codec().float_codec().compress_f64(values)],
    }
}

/// Decode what [`codec_encode`] produced; returns decoded bytes.
pub fn codec_decode(variant: Variant, streams: &[Vec<u8>]) -> Result<usize, String> {
    match variant {
        Variant::Col => {
            let codec = variant.codec().byte_codec();
            let mut n = 0;
            for s in streams {
                n += codec.decompress(s).map_err(|e| e.to_string())?.len();
            }
            Ok(n)
        }
        _ => {
            let codec = variant.codec().float_codec();
            let mut n = 0;
            for s in streams {
                n += 8 * codec.decompress_f64(s).map_err(|e| e.to_string())?.len();
            }
            Ok(n)
        }
    }
}

pub fn plod_split(values: &[f64]) -> Vec<Vec<u8>> {
    mloc::plod::split(values)
}

pub fn plod_assemble(parts: &[Vec<u8>], level: u8) -> Vec<f64> {
    let refs: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
    mloc::plod::assemble(&refs, PlodLevel::new(level).expect("PLoD level 1..=7"))
}

/// A positional bitmap with its sampled rank directory.
pub struct Bitmap {
    wah: WahBitmap,
    dir: RankSelectDir,
}

pub fn bitmap_build(num_bits: u64, sorted_positions: &[u64]) -> Bitmap {
    let wah = WahBitmap::from_sorted_positions(num_bits, sorted_positions);
    let dir = RankSelectDir::build(wah.as_ref());
    Bitmap { wah, dir }
}

impl Bitmap {
    /// Visit every run of ones; returns the number of set bits seen.
    pub fn scan(&self) -> u64 {
        let mut ones = 0;
        self.wah.as_ref().for_each_one_run(|_, _, len| ones += len);
        ones
    }
    pub fn rank(&self, pos: u64) -> u64 {
        self.wah.rank(pos)
    }
    /// Rank through the sampled directory (the index probe path).
    pub fn rank_sampled(&self, pos: u64) -> u64 {
        self.wah.as_ref().rank_with(&self.dir, pos)
    }
    pub fn bytes(&self) -> usize {
        self.wah.size_in_bytes()
    }
}

/// Equal-frequency bins over a sample.
pub struct Bins(BinSpec);

pub fn bins_build(sample: &[f64], bins: usize) -> Bins {
    Bins(BinSpec::equal_frequency(sample, bins))
}

impl Bins {
    pub fn bin_of(&self, v: f64) -> usize {
        self.0.bin_of(v)
    }
}

/// The curve names the ledger reports.
pub const CURVES: [&str; 3] = ["hilbert", "zorder", "rowmajor"];

/// A chunk-grid ordering along one space-filling curve.
pub struct Curve(GridOrder);

pub fn curve_build(extents: &[usize], curve: &str) -> Curve {
    let kind = match curve {
        "hilbert" => CurveKind::Hilbert,
        "zorder" => CurveKind::ZOrder,
        "rowmajor" => CurveKind::RowMajor,
        other => panic!("unknown curve {other}"),
    };
    Curve(GridOrder::new(extents, kind))
}

impl Curve {
    /// Contiguous runs (= seeks) the cells form in curve order.
    pub fn runs(&self, cells: &[usize]) -> usize {
        mloc_hilbert::grid::contiguous_runs(cells.iter().map(|&c| self.0.rank_of(c)).collect())
    }
}

/// Row-major ids of the chunks a region touches.
pub fn chunks_in_region(shape: &[usize], chunk: &[usize], region: &[(usize, usize)]) -> Vec<usize> {
    ChunkGrid::new(shape.to_vec(), chunk.to_vec())
        .chunks_intersecting(&Region::new(region.to_vec()))
}

/// `parallel_map` over `items` no-op items on `threads` workers.
pub fn pmap_noop(threads: usize, items: usize) -> usize {
    mloc_runtime::parallel_map(threads, (0..items).collect(), |_, i: usize| i)
        .into_iter()
        .sum()
}

/// One `spmd` launch whose ranks gather a word at the root.
pub fn spmd_gather(ranks: usize) -> usize {
    mloc_runtime::spmd(ranks, |comm| {
        comm.gather(comm.rank()).map_or(0, |all| all.len())
    })
    .into_iter()
    .sum()
}

/// `n` begin/end pairs on a collector.
pub fn obs_spans(enabled: bool, n: usize) {
    let mut c = mloc_obs::Collector::new(enabled);
    for _ in 0..n {
        c.begin("probe");
        c.end();
    }
    std::hint::black_box(c.finish());
}

/// A standalone block cache for the get/insert probes.
pub struct ProbeCache {
    cache: BlockCache,
    scope: Arc<str>,
}

pub fn probe_cache(budget_bytes: u64) -> ProbeCache {
    ProbeCache {
        cache: BlockCache::with_budget_bytes(budget_bytes),
        scope: Arc::from("probe/v"),
    }
}

impl ProbeCache {
    fn key(&self, i: u32) -> BlockKey {
        BlockKey {
            scope: Arc::clone(&self.scope),
            bin: i % 100,
            chunk_rank: i / 100,
            part: BlockPart::PlodPart(0),
        }
    }
    pub fn insert(&self, i: u32, block: &Arc<Vec<u8>>) -> bool {
        self.cache.insert(
            self.key(i),
            CachedBlock::Bytes(ByteView::new(Arc::clone(block))),
        )
    }
    pub fn get(&self, i: u32) -> bool {
        self.cache.get(&self.key(i)).is_some()
    }
}
