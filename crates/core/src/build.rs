//! The write path: reorganize a raw variable into the MLOC layout.
//!
//! Figure 1's pipeline, bottom of §III-B.5: the dataset is divided into
//! the smallest units (the bytes of the values of one chunk within one
//! bin within one byte group) and those units are arranged by the
//! configured level priority — bins become files (V is outermost), and
//! inside each bin file units are ordered part-major (V-M-S) or
//! chunk-major (V-S-M), with chunks following the space-filling curve.
//!
//! Two entry points:
//!
//! * [`build_variable`] — one-shot build from a resident row-major
//!   array.
//! * [`StreamingBuilder`] — the *in-situ* pipeline (§I contribution 4):
//!   chunks are pushed one at a time, in any order, as a running
//!   simulation or staging service emits them; bin bounds come from a
//!   sample (the paper computes them "from partial dataset"), and the
//!   final layout is written on [`StreamingBuilder::finish`].
//!
//! # Parallelism
//!
//! Both entry points fan the hot stages across a scoped worker pool
//! ([`mloc_runtime::parallel_map`], sized by
//! [`MlocConfig::build_threads`]) in three pipeline stages:
//!
//! 1. **encode** — per-chunk bin partition → run list → PLoD split →
//!    per-part codec compression. Chunks are independent, so
//!    [`build_variable`] encodes all of them concurrently and
//!    [`StreamingBuilder::push_chunks`] does the same for each batch a
//!    simulation flushes.
//! 2. **layout** — per-bin unit ordering (V-M-S / V-S-M) plus bin file
//!    assembly ([`crate::binfile`]), one worker per bin.
//! 3. **write** — one `create`, `append` and `sync` per bin file, one
//!    worker per bin (bins are separate files, so writes never
//!    interleave), then the meta, the commit record
//!    ([`write_variable`], which `mloc upgrade` commits through too).
//!
//! Output is *byte-identical for any thread count*: encoding is a pure
//! function of a chunk's values, encoded chunks are merged back in
//! curve-rank order before layout, and `parallel_map` returns results
//! in input order. [`BuildReport`] exposes the per-stage wall times so
//! the speedup is observable.

use crate::array::ChunkGrid;
use crate::binfile::{BinFile, BinFileBuilder};
use crate::binning::BinSpec;
use crate::config::MlocConfig;
use crate::fileorg;
use crate::index::{summary_size, Summaries};
use crate::store::VariableMeta;
use crate::{plod, MlocError, Result};
use mloc_bitmap::RunList;
use mloc_compress::{Codec, FloatCodec};
use mloc_hilbert::GridOrder;
use mloc_obs::{Label, Profile, Registry};
use mloc_pfs::StorageBackend;
use mloc_runtime::parallel_map;
use std::time::Instant;

/// Maximum number of values sampled for computing bin bounds (the
/// paper computes bounds "from partial dataset" and applies them to
/// the whole).
const BIN_SAMPLE: usize = 1 << 16;

/// Sizes and statistics of a completed build.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildReport {
    /// Bytes of every bin file's data section: the compressed units and
    /// their checksum table.
    pub data_bytes: u64,
    /// Bytes of the index: every bin file's index section (header,
    /// index checksum table, bitmaps and end marker) and the chunk
    /// summaries, which the meta holds.
    pub index_bytes: u64,
    /// The meta's other bytes. The three fields sum to the bytes on
    /// disk.
    pub meta_bytes: u64,
    /// Raw (uncompressed) size of the variable.
    pub raw_bytes: u64,
    /// Wall-clock build time in seconds (first push to finish).
    pub build_seconds: f64,
    /// Wall-clock seconds spent encoding chunks (bin partition, run
    /// lists, PLoD split, codec compression), summed over pushes.
    pub encode_seconds: f64,
    /// Wall-clock seconds of the per-bin layout + index stage.
    pub layout_seconds: f64,
    /// Wall-clock seconds of the write stage: the bin files, then the
    /// meta.
    pub write_seconds: f64,
    /// Points per bin (load-balance diagnostic).
    pub per_bin_points: Vec<u64>,
    /// Span/counter/histogram profile of the build: the stage times as
    /// a `build` span tree plus a per-codec compression-ratio histogram
    /// observed per storage unit (from the encode workers).
    pub profile: Profile,
}

impl BuildReport {
    /// data + index, as reported in the paper's Table I.
    pub fn total_bytes(&self) -> u64 {
        self.data_bytes + self.index_bytes + self.meta_bytes
    }

    /// `total / raw` (1.0 = same as raw).
    pub fn total_ratio(&self) -> f64 {
        self.total_bytes() as f64 / self.raw_bytes as f64
    }
}

/// One chunk's contribution to one bin, before layout.
struct PendingUnit {
    rank: usize,
    runs: RunList,
    /// Compressed bytes per part.
    parts: Vec<Vec<u8>>,
}

/// One chunk's encoded contribution to one bin (no rank yet: encoding
/// is independent of where the chunk lands on the curve).
struct EncodedUnit {
    bin: usize,
    count: u64,
    runs: RunList,
    parts: Vec<Vec<u8>>,
}

/// Everything a chunk's encoding depends on: the bin bounds, the codecs
/// and whether units are stored as PLoD byte columns, plus the registry
/// the encode workers observe compression ratios into. Shared by
/// reference across the worker pool.
struct Encoder {
    spec: BinSpec,
    plod: bool,
    byte_codec: Box<dyn Codec>,
    float_codec: Box<dyn FloatCodec>,
    codec_name: &'static str,
    obs: Registry,
}

impl Encoder {
    /// Encode one chunk: partition its points by bin, encode each bin's
    /// positional bitmap as a run list, and compress each unit (PLoD
    /// byte columns or the whole-value stream). Pure but for `obs`,
    /// which only accumulates commutative statistics — identical input
    /// produces identical bytes, which is what makes the parallel
    /// fan-out deterministic.
    fn chunk(&self, values: &[f64]) -> Vec<EncodedUnit> {
        let num_bins = self.spec.num_bins();
        let chunk_points = values.len();
        // Counting sort by bin: one pass to size every bin, one to fill a
        // single permutation of the chunk, so nothing grows per bin.
        let bins: Vec<u32> = values.iter().map(|&v| self.spec.bin_of(v) as u32).collect();
        let mut starts = vec![0usize; num_bins + 1];
        for &bin in &bins {
            starts[bin as usize + 1] += 1;
        }
        for bin in 0..num_bins {
            starts[bin + 1] += starts[bin];
        }
        let mut cursor = starts[..num_bins].to_vec();
        let mut locals = vec![0u64; chunk_points];
        let mut sorted = vec![0f64; chunk_points];
        for (local, (&v, &bin)) in values.iter().zip(&bins).enumerate() {
            let at = &mut cursor[bin as usize];
            locals[*at] = local as u64;
            sorted[*at] = v;
            *at += 1;
        }

        // Byte columns of the whole permuted chunk at once: a part is
        // contiguous per value, so a bin's share of it is a sub-slice.
        let columns = self.plod.then(|| plod::split(&sorted));

        let occupied = starts.windows(2).filter(|w| w[0] < w[1]).count();
        let mut units = Vec::with_capacity(occupied);
        for bin in 0..num_bins {
            let span = starts[bin]..starts[bin + 1];
            if span.is_empty() {
                continue;
            }
            let bin_locals = &locals[span.clone()];
            let runs = RunList::from_sorted_positions(chunk_points as u64, bin_locals);
            let parts: Vec<Vec<u8>> = match &columns {
                Some(columns) => columns
                    .iter()
                    .zip(plod::PART_BYTES)
                    .map(|(column, width)| {
                        self.byte_codec
                            .encode(&column[span.start * width..span.end * width])
                    })
                    .collect(),
                None => vec![self.float_codec.encode_f64(&sorted[span])],
            };
            // One ratio observation per storage unit, recorded from
            // whichever worker encoded it. Bucket counts, min and max are
            // order-independent, so they match under any thread count; the
            // float `sum` may differ in its last bits with arrival order.
            let raw = (bin_locals.len() * 8) as f64;
            let compressed: usize = parts.iter().map(Vec::len).sum();
            self.obs.observe(
                "compress.ratio",
                Label::Name(self.codec_name),
                compressed as f64 / raw,
            );
            units.push(EncodedUnit {
                bin,
                count: bin_locals.len() as u64,
                runs,
                parts,
            });
        }
        units
    }
}

/// Incremental (in-situ) builder: push chunks as they are produced.
pub struct StreamingBuilder<'a> {
    backend: &'a dyn StorageBackend,
    dataset: String,
    var: String,
    config: MlocConfig,
    grid: ChunkGrid,
    order: GridOrder,
    enc: Encoder,
    pending: Vec<Vec<PendingUnit>>,
    per_bin_points: Vec<u64>,
    pushed: Vec<bool>,
    pushed_count: usize,
    encode_seconds: f64,
    start: Instant,
}

impl<'a> StreamingBuilder<'a> {
    /// Start a build. `sample` is any representative subset of the
    /// values; equal-frequency bin bounds are derived from it and then
    /// applied to every pushed chunk.
    pub fn new(
        backend: &'a dyn StorageBackend,
        dataset: &str,
        var: &str,
        config: &MlocConfig,
        sample: &[f64],
    ) -> Result<StreamingBuilder<'a>> {
        config.validate()?;
        // Bin bounds need at least one number: an empty or all-NaN
        // sample has none.
        if sample.iter().all(|v| v.is_nan()) {
            return Err(MlocError::Invalid(
                "binning sample is empty or all NaN".into(),
            ));
        }
        let grid = ChunkGrid::new(config.shape.clone(), config.chunk_shape.clone());
        let order = config.chunk_order(&grid);
        let enc = Encoder {
            spec: BinSpec::equal_frequency(sample, config.num_bins),
            plod: config.plod,
            byte_codec: config.codec.byte_codec(),
            float_codec: config.codec.float_codec(),
            codec_name: config.codec.name(),
            obs: Registry::default(),
        };
        Ok(StreamingBuilder {
            backend,
            dataset: dataset.to_string(),
            var: var.to_string(),
            pending: (0..config.num_bins).map(|_| Vec::new()).collect(),
            per_bin_points: vec![0u64; config.num_bins],
            pushed: vec![false; grid.num_chunks()],
            pushed_count: 0,
            encode_seconds: 0.0,
            start: Instant::now(),
            config: config.clone(),
            grid,
            order,
            enc,
        })
    }

    /// The bin specification in force.
    pub fn bins(&self) -> &BinSpec {
        &self.enc.spec
    }

    /// The chunk geometry.
    pub fn grid(&self) -> &ChunkGrid {
        &self.grid
    }

    /// Number of chunks pushed so far.
    pub fn chunks_pushed(&self) -> usize {
        self.pushed_count
    }

    /// Reject out-of-range, duplicate, or wrong-sized pushes without
    /// mutating any state (so a failed push leaves the builder usable).
    fn validate_push(&self, chunk_id: usize, value_count: usize) -> Result<()> {
        if chunk_id >= self.grid.num_chunks() {
            return Err(MlocError::Invalid(format!("chunk {chunk_id} out of range")));
        }
        if self.pushed[chunk_id] {
            return Err(MlocError::Invalid(format!("chunk {chunk_id} pushed twice")));
        }
        let chunk_points = self.grid.chunk_points(chunk_id);
        if value_count != chunk_points {
            return Err(MlocError::Invalid(format!(
                "chunk {chunk_id}: expected {chunk_points} values, got {value_count}"
            )));
        }
        Ok(())
    }

    /// File an encoded chunk under its curve rank. Callers must have
    /// validated the push first.
    fn ingest(&mut self, chunk_id: usize, units: Vec<EncodedUnit>) {
        debug_assert!(!self.pushed[chunk_id]);
        self.pushed[chunk_id] = true;
        self.pushed_count += 1;
        let rank = self.order.rank_of(chunk_id);
        for u in units {
            self.per_bin_points[u.bin] += u.count;
            self.pending[u.bin].push(PendingUnit {
                rank,
                runs: u.runs,
                parts: u.parts,
            });
        }
    }

    /// Push one chunk's values (chunk-local row-major order over the
    /// chunk's clamped region). Chunks may arrive in any order; each
    /// must be pushed exactly once.
    pub fn push_chunk(&mut self, chunk_id: usize, values: &[f64]) -> Result<()> {
        self.validate_push(chunk_id, values.len())?;
        let t = Instant::now();
        let units = self.enc.chunk(values);
        self.encode_seconds += t.elapsed().as_secs_f64();
        self.ingest(chunk_id, units);
        Ok(())
    }

    /// Push a batch of chunks, encoding them across the worker pool.
    /// This is the in-situ fast path: a staging service hands over the
    /// wave of chunks a simulation just flushed and all of them are
    /// partitioned, bitmapped, and compressed concurrently. The whole
    /// batch is validated before any chunk is filed, so an invalid
    /// batch leaves the builder untouched.
    pub fn push_chunks(&mut self, batch: Vec<(usize, Vec<f64>)>) -> Result<()> {
        let mut seen = std::collections::HashSet::new();
        for (chunk_id, values) in &batch {
            self.validate_push(*chunk_id, values.len())?;
            if !seen.insert(*chunk_id) {
                return Err(MlocError::Invalid(format!(
                    "chunk {chunk_id} appears twice in batch"
                )));
            }
        }
        let t = Instant::now();
        let enc = &self.enc;
        let encoded = parallel_map(
            self.config.effective_build_threads(),
            batch,
            |_, (chunk_id, values)| (chunk_id, enc.chunk(&values)),
        );
        self.encode_seconds += t.elapsed().as_secs_f64();
        for (chunk_id, units) in encoded {
            self.ingest(chunk_id, units);
        }
        Ok(())
    }

    /// Finish: lay out every bin's units by the level order and write
    /// the bin files and the meta. Layout and writes fan out
    /// across the worker pool, one bin per task.
    ///
    /// Fails unless every chunk has been pushed.
    pub fn finish(mut self) -> Result<BuildReport> {
        if self.pushed_count != self.grid.num_chunks() {
            return Err(MlocError::Invalid(format!(
                "{} of {} chunks pushed",
                self.pushed_count,
                self.grid.num_chunks()
            )));
        }
        let num_chunks = self.grid.num_chunks();
        let num_parts = self.config.num_parts();
        let threads = self.config.effective_build_threads();
        let level_order = self.config.level_order;

        // Stage 1 — layout: order each bin's units and assemble its
        // file. Bins are independent; within a bin the physical layout
        // is always curve-rank order, no matter how chunks arrived.
        let t_layout = Instant::now();
        let pending = std::mem::take(&mut self.pending);
        let assembled = parallel_map(threads, pending, |bin, mut units| {
            units.sort_unstable_by_key(|u| u.rank);
            let mut file = BinFileBuilder::new(bin as u32, num_chunks, num_parts, level_order);
            for u in &units {
                let parts: Vec<&[u8]> = u.parts.iter().map(Vec::as_slice).collect();
                file.set_chunk(u.rank, u.runs.as_ref(), &parts);
            }
            file.finish()
        });
        let assembled = assembled.into_iter().collect::<Result<Vec<BinFile>>>()?;
        let layout_seconds = t_layout.elapsed().as_secs_f64();

        // Stage 2 — write, then commit.
        let data_bytes: u64 = assembled.iter().map(|f| f.data_bytes).sum();
        let (files, summaries) = into_meta_parts(assembled, num_chunks)?;
        let summary_bytes = summaries.as_bytes().len() as u64;
        let files_bytes = files.iter().map(|f| f.len() as u64).sum::<u64>();
        let index_bytes = files_bytes - data_bytes + summary_bytes;
        let t_write = Instant::now();
        let total_points = self.grid.num_points() as u64;
        let meta = VariableMeta {
            var: self.var.clone(),
            config: self.config.clone(),
            bin_bounds: self.enc.spec.bounds().to_vec(),
            total_points,
            summaries,
        };
        let meta_bytes =
            write_variable(self.backend, &self.dataset, &meta, files, threads)? - summary_bytes;
        let write_seconds = t_write.elapsed().as_secs_f64();

        let build_seconds = self.start.elapsed().as_secs_f64();
        // The registry holds the encode workers' per-unit histogram
        // observations; the stage spans mirror the report's wall-clock
        // fields exactly so the two views always reconcile.
        let mut profile = self.enc.obs.finish();
        profile.record_path(&["build"], build_seconds);
        profile.record_path(&["build", "encode"], self.encode_seconds);
        profile.record_path(&["build", "layout"], layout_seconds);
        profile.record_path(&["build", "write"], write_seconds);
        profile.add_counter("build.data.bytes", Label::None, data_bytes);
        profile.add_counter("build.index.bytes", Label::None, index_bytes);
        profile.add_counter("build.meta.bytes", Label::None, meta_bytes);
        profile.add_counter("build.raw.bytes", Label::None, total_points * 8);

        Ok(BuildReport {
            data_bytes,
            index_bytes,
            meta_bytes,
            raw_bytes: total_points * 8,
            build_seconds,
            encode_seconds: self.encode_seconds,
            layout_seconds,
            write_seconds,
            per_bin_points: self.per_bin_points,
            profile,
        })
    }
}

/// Split finished bin files, in bin order, into their bytes and the
/// meta's summary sections, back to back.
pub(crate) fn into_meta_parts(
    files: Vec<BinFile>,
    num_chunks: usize,
) -> Result<(Vec<Vec<u8>>, Summaries)> {
    let num_bins = files.len();
    let mut sections = Vec::with_capacity(num_bins * summary_size(num_chunks) as usize);
    let bytes = files
        .into_iter()
        .map(|f| {
            sections.extend_from_slice(&f.summary);
            f.bytes
        })
        .collect();
    Ok((bytes, Summaries::parse(sections, num_bins, num_chunks)?))
}

/// The write stage every variable is committed through — a build's,
/// and `mloc upgrade`'s copy of an old one: `files`, the variable's
/// bin files in bin order, each with one `create`, one `append` and one
/// `sync` (bins are separate files, so the writes fan out over
/// `threads` workers and never interleave); then, only after every bin
/// file is synced, the meta with its single-extent checksum footer.
/// The meta is the commit record: a write that died before it left no
/// meta or a torn one, and both fail verification at open time; a bin
/// file torn by a crash lacks its end marker and fails its checksums,
/// so it can never pass for complete. Returns the meta's stored bytes.
pub(crate) fn write_variable(
    backend: &dyn StorageBackend,
    dataset: &str,
    meta: &VariableMeta,
    files: Vec<Vec<u8>>,
    threads: usize,
) -> Result<u64> {
    let var = &meta.var;
    let written = parallel_map(threads, files, |bin, bytes| {
        let name = fileorg::bin_file(dataset, var, bin);
        backend.create(&name)?;
        backend.append(&name, &bytes)?;
        backend.sync(&name)
    });
    written
        .into_iter()
        .collect::<std::result::Result<(), _>>()?;
    let mut meta_data = meta.encode();
    let footer = crate::integrity::ExtentFooter::compute(&meta_data, &[meta_data.len() as u32]);
    meta_data.extend_from_slice(&footer.encode());
    let meta_name = fileorg::meta_file(dataset, var);
    backend.create(&meta_name)?;
    backend.append(&meta_name, &meta_data)?;
    backend.sync(&meta_name)?;
    Ok(meta_data.len() as u64)
}

/// Build the MLOC layout for `values` (row-major over `config.shape`)
/// and write it to `backend` under `dataset/var`. Chunk encoding fans
/// out across [`MlocConfig::build_threads`] workers, each reading its
/// chunk straight out of `values`; the result is byte-identical to a
/// serial build.
pub fn build_variable(
    backend: &dyn StorageBackend,
    dataset: &str,
    var: &str,
    values: &[f64],
    config: &MlocConfig,
) -> Result<BuildReport> {
    config.validate()?;
    let grid = ChunkGrid::new(config.shape.clone(), config.chunk_shape.clone());
    assert_eq!(
        values.len(),
        grid.num_points(),
        "value count does not match the configured shape"
    );

    // Bin bounds from a strided sample (paper §IV-A).
    let stride = (values.len() / BIN_SAMPLE).max(1);
    let sample: Vec<f64> = values.iter().step_by(stride).copied().collect();

    let mut builder = StreamingBuilder::new(backend, dataset, var, config, &sample)?;
    let t = Instant::now();
    let enc = &builder.enc;
    let encoded = parallel_map(
        config.effective_build_threads(),
        (0..grid.num_chunks()).collect(),
        |_, chunk| {
            let chunk_values: Vec<f64> = grid
                .chunk_linear_indices(chunk)
                .iter()
                .map(|&l| values[l as usize])
                .collect();
            enc.chunk(&chunk_values)
        },
    );
    builder.encode_seconds += t.elapsed().as_secs_f64();
    for (chunk, units) in encoded.into_iter().enumerate() {
        builder.ingest(chunk, units);
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{LevelOrder, MlocConfig};
    use mloc_compress::CodecKind;
    use mloc_pfs::MemBackend;

    fn toy_values(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.7).sin() * 100.0 + i as f64 * 0.01)
            .collect()
    }

    fn toy_config() -> MlocConfig {
        MlocConfig::builder(vec![32, 32])
            .chunk_shape(vec![8, 8])
            .num_bins(8)
            .build()
    }

    #[test]
    fn build_writes_all_files() {
        let be = MemBackend::new();
        let report = build_variable(&be, "ds", "t", &toy_values(1024), &toy_config()).unwrap();
        assert_eq!(report.raw_bytes, 8192);
        assert_eq!(report.per_bin_points.iter().sum::<u64>(), 1024);
        // 8 bin files + meta, whose bytes the report accounts for.
        assert_eq!(be.list().len(), 9);
        assert!(report.data_bytes > 0 && report.index_bytes > 0);
        assert!(be.exists("ds/t/bin0000.bin"));
        assert!(be.exists("ds/t/bin0007.bin"));
        assert!(be.exists("ds/t/meta"));
        let on_disk: u64 = be.list().iter().map(|f| be.len(f).unwrap()).sum();
        assert_eq!(report.total_bytes(), on_disk);
    }

    #[test]
    fn report_breaks_down_stage_times() {
        let be = MemBackend::new();
        let report = build_variable(&be, "ds", "t", &toy_values(1024), &toy_config()).unwrap();
        assert!(report.encode_seconds > 0.0, "encode stage untimed");
        assert!(report.layout_seconds > 0.0, "layout stage untimed");
        assert!(report.write_seconds > 0.0, "write stage untimed");
        // Stage walls never exceed the total build wall.
        assert!(report.encode_seconds <= report.build_seconds);
        assert!(report.layout_seconds + report.write_seconds <= report.build_seconds);
    }

    #[test]
    fn report_profile_mirrors_stages_and_ratios() {
        let be = MemBackend::new();
        let report = build_variable(&be, "ds", "t", &toy_values(1024), &toy_config()).unwrap();
        let p = &report.profile;
        // Stage spans mirror the report fields bit-for-bit.
        assert_eq!(p.span(&["build"]).unwrap().seconds, report.build_seconds);
        assert_eq!(
            p.span(&["build", "encode"]).unwrap().seconds,
            report.encode_seconds
        );
        assert_eq!(
            p.span(&["build", "layout"]).unwrap().seconds,
            report.layout_seconds
        );
        assert_eq!(
            p.span(&["build", "write"]).unwrap().seconds,
            report.write_seconds
        );
        assert_eq!(p.counter_total("build.data.bytes"), report.data_bytes);
        assert_eq!(p.counter_total("build.index.bytes"), report.index_bytes);
        assert_eq!(p.counter_total("build.meta.bytes"), report.meta_bytes);
        // One compression-ratio observation per storage unit, under the
        // configured codec's label.
        let hist = p
            .histogram("compress.ratio", Label::Name(toy_config().codec.name()))
            .expect("ratio histogram missing");
        assert!(hist.count() > 0);
        assert!(hist.mean() > 0.0);
    }

    #[test]
    fn parallel_build_profiles_share_histograms() {
        // Bucket counts, observation count, min and max are
        // order-independent, so they match no matter how many encode
        // workers ran (only the float `sum` may drift in its last bits
        // with the workers' arrival order).
        let values = toy_values(1024);
        let mut c1 = toy_config();
        c1.build_threads = 1;
        let mut c8 = toy_config();
        c8.build_threads = 8;
        let be1 = MemBackend::new();
        let be8 = MemBackend::new();
        let r1 = build_variable(&be1, "ds", "t", &values, &c1).unwrap();
        let r8 = build_variable(&be8, "ds", "t", &values, &c8).unwrap();
        assert_eq!(r1.profile.histograms.len(), r8.profile.histograms.len());
        for (h1, h8) in r1.profile.histograms.iter().zip(&r8.profile.histograms) {
            assert_eq!((h1.name, h1.label), (h8.name, h8.label));
            assert_eq!(h1.histogram.buckets(), h8.histogram.buckets());
            assert_eq!(h1.histogram.count(), h8.histogram.count());
            assert_eq!(h1.histogram.min(), h8.histogram.min());
            assert_eq!(h1.histogram.max(), h8.histogram.max());
        }
        assert_eq!(r1.profile.structure(), r8.profile.structure());
    }

    #[test]
    fn equal_frequency_bins_are_balanced() {
        let be = MemBackend::new();
        let report = build_variable(&be, "ds", "t", &toy_values(1024), &toy_config()).unwrap();
        let max = *report.per_bin_points.iter().max().unwrap();
        let min = *report.per_bin_points.iter().min().unwrap();
        assert!(
            max < min * 2 + 64,
            "bins unbalanced: {:?}",
            report.per_bin_points
        );
    }

    #[test]
    fn vms_and_vsm_store_same_bytes() {
        let values = toy_values(1024);
        let be1 = MemBackend::new();
        let be2 = MemBackend::new();
        let c1 = toy_config();
        let mut c2 = toy_config();
        c2.level_order = LevelOrder::Vsm;
        let r1 = build_variable(&be1, "ds", "t", &values, &c1).unwrap();
        let r2 = build_variable(&be2, "ds", "t", &values, &c2).unwrap();
        // Same units, different order: byte totals match exactly.
        assert_eq!(r1.data_bytes, r2.data_bytes);
        assert_eq!(r1.index_bytes, r2.index_bytes);
        // But the files differ (layout moved).
        let bin0 = "ds/t/bin0000.bin";
        assert_ne!(
            be1.read(bin0, 0, be1.len(bin0).unwrap()).unwrap(),
            be2.read(bin0, 0, be2.len(bin0).unwrap()).unwrap()
        );
    }

    #[test]
    fn float_codec_build() {
        let be = MemBackend::new();
        let mut config = toy_config();
        config.codec = CodecKind::Isabela { error_bound: 0.001 };
        config.plod = false;
        let report = build_variable(&be, "ds", "t", &toy_values(1024), &config).unwrap();
        assert!(report.data_bytes > 0);
    }

    #[test]
    #[should_panic]
    fn wrong_value_count_panics() {
        let be = MemBackend::new();
        let _ = build_variable(&be, "ds", "t", &toy_values(100), &toy_config());
    }

    // ---- streaming (in-situ) builder ----

    fn chunk_values(values: &[f64], grid: &ChunkGrid, chunk: usize) -> Vec<f64> {
        grid.chunk_linear_indices(chunk)
            .iter()
            .map(|&l| values[l as usize])
            .collect()
    }

    #[test]
    fn streaming_build_matches_one_shot_bytewise() {
        let values = toy_values(1024);
        let config = toy_config();
        let grid = ChunkGrid::new(config.shape.clone(), config.chunk_shape.clone());

        let be1 = MemBackend::new();
        build_variable(&be1, "ds", "t", &values, &config).unwrap();

        // Same sample ⇒ same bin bounds ⇒ identical files, even though
        // chunks arrive in reverse order.
        let stride = (values.len() / BIN_SAMPLE).max(1);
        let sample: Vec<f64> = values.iter().step_by(stride).copied().collect();
        let be2 = MemBackend::new();
        let mut b = StreamingBuilder::new(&be2, "ds", "t", &config, &sample).unwrap();
        for chunk in (0..grid.num_chunks()).rev() {
            b.push_chunk(chunk, &chunk_values(&values, &grid, chunk))
                .unwrap();
        }
        assert_eq!(b.chunks_pushed(), grid.num_chunks());
        b.finish().unwrap();

        for f in be1.list() {
            let a = be1.read(&f, 0, be1.len(&f).unwrap()).unwrap();
            let c = be2.read(&f, 0, be2.len(&f).unwrap()).unwrap();
            assert_eq!(a, c, "file {f} differs between one-shot and streaming");
        }
    }

    #[test]
    fn batched_push_matches_chunkwise_push_bytewise() {
        let values = toy_values(1024);
        let config = toy_config();
        let grid = ChunkGrid::new(config.shape.clone(), config.chunk_shape.clone());
        let sample: Vec<f64> = values.clone();

        let be1 = MemBackend::new();
        let mut one = StreamingBuilder::new(&be1, "ds", "t", &config, &sample).unwrap();
        for chunk in 0..grid.num_chunks() {
            one.push_chunk(chunk, &chunk_values(&values, &grid, chunk))
                .unwrap();
        }
        one.finish().unwrap();

        // The whole wave in one batch, shuffled.
        let be2 = MemBackend::new();
        let mut batched = StreamingBuilder::new(&be2, "ds", "t", &config, &sample).unwrap();
        let mut wave: Vec<(usize, Vec<f64>)> = (0..grid.num_chunks())
            .map(|c| (c, chunk_values(&values, &grid, c)))
            .collect();
        wave.reverse();
        batched.push_chunks(wave).unwrap();
        batched.finish().unwrap();

        for f in be1.list() {
            let a = be1.read(&f, 0, be1.len(&f).unwrap()).unwrap();
            let c = be2.read(&f, 0, be2.len(&f).unwrap()).unwrap();
            assert_eq!(a, c, "file {f} differs between chunk-wise and batched");
        }
    }

    #[test]
    fn batch_with_duplicate_or_invalid_chunk_is_rejected_whole() {
        let values = toy_values(1024);
        let config = toy_config();
        let grid = ChunkGrid::new(config.shape.clone(), config.chunk_shape.clone());
        let be = MemBackend::new();
        let mut b = StreamingBuilder::new(&be, "ds", "t", &config, &values).unwrap();

        let cv = chunk_values(&values, &grid, 0);
        // Duplicate inside the batch.
        assert!(b
            .push_chunks(vec![(0, cv.clone()), (0, cv.clone())])
            .is_err());
        // Invalid id in the middle of an otherwise fine batch.
        assert!(b
            .push_chunks(vec![
                (1, chunk_values(&values, &grid, 1)),
                (999, cv.clone())
            ])
            .is_err());
        // Nothing was filed: every chunk can still be pushed normally.
        assert_eq!(b.chunks_pushed(), 0);
        b.push_chunk(0, &cv).unwrap();
        assert_eq!(b.chunks_pushed(), 1);
    }

    #[test]
    fn streaming_rejects_misuse() {
        let config = toy_config();
        let values = toy_values(1024);
        let grid = ChunkGrid::new(config.shape.clone(), config.chunk_shape.clone());
        let be = MemBackend::new();
        let mut b = StreamingBuilder::new(&be, "ds", "t", &config, &values).unwrap();

        // Wrong size.
        assert!(b.push_chunk(0, &values[..5]).is_err());
        // Out of range.
        assert!(b.push_chunk(999, &chunk_values(&values, &grid, 0)).is_err());
        // Double push.
        b.push_chunk(0, &chunk_values(&values, &grid, 0)).unwrap();
        assert!(b.push_chunk(0, &chunk_values(&values, &grid, 0)).is_err());
        // Finish with missing chunks.
        assert!(b.finish().is_err());

        // Empty or all-NaN sample.
        assert!(StreamingBuilder::new(&be, "ds", "u", &config, &[]).is_err());
        assert!(StreamingBuilder::new(&be, "ds", "u", &config, &[f64::NAN; 4]).is_err());
    }
}
