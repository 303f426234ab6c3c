//! Per-rank query execution, one module per stage of the paper's
//! Fig. 5 pipeline: [`fetch`] reads index and data extents (through
//! the block cache and extent fuser), [`decode`] decompresses them,
//! [`reconstruct`] filters and maps them to global positions. This
//! module drives a rank's work units through the three, bin by bin.
//!
//! The hot path is zero-copy (see `DESIGN.md`, "hot-path memory
//! discipline"): coalesced reads hand out [`ByteView`]s into shared
//! extent buffers instead of per-want copies.

mod decode;
mod fetch;
mod reconstruct;

pub(crate) use decode::Decoder;
pub use fetch::FetchReport;
pub(crate) use fetch::{Fetcher, UnitBlock, UnitRuns, Want};

use crate::cache::{BlockPart, ByteView, CachedBlock, FixedBlocks};
use crate::config::NUM_PARTS;
use crate::degrade::{DegradationEvent, DegradationReport};
use crate::exec::ExecRequest;
use crate::index::SummaryView;
use crate::query::plan::WorkUnit;
use crate::query::Landing;
use crate::store::MlocStore;
use crate::{MlocError, Result};
use mloc_bitmap::{RunList, RunListBuf, RunListRef};
use mloc_obs::{Collector, Label};
use mloc_pfs::RetryPolicy;
use reconstruct::Reconstructor;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// One rank's partial result plus its CPU component times.
#[derive(Debug, Default)]
pub struct RankOutput {
    /// Matching global positions, strictly rising: every unit defers
    /// to its chunk's scatter, and one emission walks the chunks' rows
    /// in position order.
    pub positions: Vec<u64>,
    /// Values aligned with positions (empty for position-only output).
    pub values: Vec<f64>,
    /// Seconds spent in codec decompression.
    pub decompress_s: f64,
    /// Seconds spent assembling/filtering results.
    pub reconstruct_s: f64,
    /// What the rank's fetches cost, with its read trace.
    pub io: FetchReport,
    /// Extent losses this rank worked around by reducing PLoD
    /// precision (empty = full fidelity).
    pub degradation: DegradationReport,
    /// Refinement state captured for a progressive query (empty unless
    /// the request asked for capture).
    pub refine: Refinement,
}

/// What a progressive query remembers after its step-0 pass, so later
/// refinement pulls read only the next byte-group extents: index
/// headers, bitmaps, positions and checksum tables are never re-read.
/// Step 0 runs as the one-shot engine does — every refinable unit
/// defers to its chunk's scatter — and the deferred walk and emission
/// record, per captured point, where its tail bytes are and where its
/// value is, unit by unit.
#[derive(Debug, Default)]
pub struct Refinement {
    /// Every refinable unit, in the order it was captured.
    pub units: Vec<RefineUnit>,
    /// Per captured point: its rank within its unit's values (the byte
    /// index inside each tail part).
    pub val_idx: Vec<u32>,
    /// Per captured point: its index in the answer (in the rank's
    /// output until the gather translates it).
    pub result_idx: Vec<usize>,
}

impl Refinement {
    /// Take in `part`, captured by part `k` of a merge that put its
    /// entries where `landing` says.
    pub(crate) fn absorb(&mut self, mut part: Refinement, landing: &Landing, k: usize) {
        landing.translate(k, &mut part.result_idx);
        if self.val_idx.is_empty() && self.units.is_empty() {
            *self = part;
            return;
        }
        let shift = self.val_idx.len();
        self.units.extend(part.units.into_iter().map(|mut u| {
            u.points = u.points.start + shift..u.points.end + shift;
            u
        }));
        self.val_idx.append(&mut part.val_idx);
        self.result_idx.append(&mut part.result_idx);
    }
}

/// One refinable work unit: PLoD data-bearing, values wanted, no value
/// filter, no position filter.
#[derive(Debug, Clone)]
pub struct RefineUnit {
    /// Value bin (names the bin file).
    pub bin: usize,
    /// Chunk rank within the bin.
    pub chunk_rank: usize,
    /// Points stored in the unit — the byte length of each one-byte
    /// tail part.
    pub count: u32,
    /// The bin's fixed blocks, shared with step 0: their rows locate
    /// every part's extent, the data table verifies it.
    pub fixed: Arc<FixedBlocks>,
    /// The unit's captured points, as a range of
    /// [`Refinement::val_idx`] and [`Refinement::result_idx`].
    pub points: Range<usize>,
}

/// One rank's share of a request, and the executor's rules for it.
pub struct RankJob<'j, 'a> {
    pub store: &'j MlocStore<'a>,
    pub req: ExecRequest<'j>,
    /// This rank's work units, grouped by bin and ordered by chunk
    /// rank within a bin (the plan and the column-order assignment
    /// both preserve this).
    pub units: &'j [WorkUnit],
    pub retry: RetryPolicy,
    /// See [`crate::ParallelExecutor::allow_degraded`].
    pub allow_degraded: bool,
}

/// One bin's blocks as the fetch and decode stages fill them in;
/// the per-unit vectors are indexed like the rank's units of the bin.
pub(crate) struct BinBlocks {
    /// The name of the bin's file.
    pub file: Arc<str>,
    /// The bin's fixed blocks: the chunk summaries, read in place from
    /// the fetched (or cached) bytes, the index checksum table, the
    /// data checksum table, fetched iff a unit of the bin reads data,
    /// and the rows derived from them that locate every extent.
    pub fixed: Arc<FixedBlocks>,
    /// Per unit with points: where its run list is — its stored run
    /// list, checked once against its summary count, or a full chunk's
    /// one run.
    runs: Vec<Option<UnitRuns>>,
    /// The run lists of this bin no cache entry holds: every one when
    /// the store has no cache (the buffer is reused from bin to bin).
    local: RunListBuf,
    /// Per unit: the summary said "all of chunk", so the bitmap was
    /// never read and its run list is the whole chunk.
    pub full: Vec<bool>,
    /// Unit-major `units × n_parts` slots: the decoded data blocks —
    /// PLoD byte groups, or the one whole-value block — of the units
    /// that read data; empty when no unit of the bin does.
    parts: Vec<Option<CachedBlock>>,
    /// Parts of a data-bearing unit the query uses (the slot stride).
    n_parts: usize,
    /// Per unit: the leading parts usable for assembly — the query's
    /// count, or fewer when a lost extent degraded the unit.
    pub eff_parts: Vec<usize>,
}

impl BinBlocks {
    /// Unit `gi`'s run list (`None` for a unit with no points).
    pub fn runs(&self, gi: usize) -> Option<RunListRef<'_>> {
        match self.runs.get(gi)?.as_ref()? {
            UnitRuns::Cached(list) => Some(RunList::as_ref(list)),
            UnitRuns::Local(at) => self.local.get(*at),
        }
    }

    /// Unit `gi`'s part slots (empty when the bin read no data).
    pub fn unit_parts(&self, gi: usize) -> &[Option<CachedBlock>] {
        self.parts
            .get(gi * self.n_parts..(gi + 1) * self.n_parts)
            .unwrap_or(&[])
    }
}

/// The three stages' per-rank state.
struct Rank<'j, 'a> {
    job: &'j RankJob<'j, 'a>,
    fetcher: Fetcher<'j, 'a>,
    decoder: Decoder,
    recon: Reconstructor<'j, 'a>,
    out: RankOutput,
    /// The run-list buffer each bin's blocks borrow in turn.
    local: RunListBuf,
    // Two-level-index accounting: chunks whose bitmap read the
    // summary made unnecessary (full chunks), and chunks that still
    // needed their bitmap.
    summary_skips: u64,
    summary_hits: u64,
}

/// Process one rank's work units.
///
/// `obs` records what this rank measures and the metrics do not carry:
/// each decompress and reconstruct interval (the one measurement,
/// recorded into its span and into [`RankOutput`]), per-bin and
/// index counters, and copy bytes; each `index-read` and `data-read` span
/// carries a `verify` child with the seconds its extents' checksum
/// checks took. Pass [`Collector::disabled`] to skip all recording —
/// and every clock read that serves only the profile — at the cost of
/// one branch per call site.
pub fn process_units<'j>(job: &'j RankJob<'j, '_>, obs: &mut Collector) -> Result<RankOutput> {
    let mut rank = Rank {
        job,
        fetcher: Fetcher::new(job.store, job.retry, obs.is_enabled()),
        decoder: Decoder::new(job.store.config().codec),
        recon: Reconstructor::new(job),
        out: RankOutput::default(),
        local: RunListBuf::new(),
        summary_skips: 0,
        summary_hits: 0,
    };
    for group in job.units.chunk_by(|a, b| a.bin == b.bin) {
        let bin = Label::Index(group[0].bin as u32);
        obs.count_labeled("bin.units", bin, group.len() as u64);
        let mut blocks = rank.read_index(group, obs)?;
        rank.read_data(group, &mut blocks, obs)?;
        rank.reconstruct(group, &blocks, obs)?;
        rank.local = blocks.local;
    }
    Ok(rank.finish(obs))
}

/// Whether a unit makes its rank read the bin's data section: the plan
/// asks for data and the chunk has points in the bin.
fn reads_data(summaries: &SummaryView<ByteView>, u: &WorkUnit) -> bool {
    u.needs_data && summaries.count(u.chunk_rank) > 0
}

impl Rank<'_, '_> {
    /// Close an `index-read` / `data-read` span: its `verify` child,
    /// and the bytes it read under the bin's label.
    fn end_read(&mut self, obs: &mut Collector, counter: &'static str, bin: usize, bytes: u64) {
        self.fetcher.record_verify(obs);
        obs.end();
        obs.count_labeled(counter, Label::Index(bin as u32), bytes);
    }

    /// Fetch one bin's index blocks: its fixed blocks, then the
    /// bitmaps of this rank's chunks.
    fn read_index(&mut self, group: &[WorkUnit], obs: &mut Collector) -> Result<BinBlocks> {
        let bin = group[0].bin;
        let bytes_before = self.fetcher.report.index_bytes;
        let data_before = self.fetcher.report.data_bytes;
        obs.begin("index-read");
        let fixed = self.fetcher.fixed(bin, |summaries| {
            group.iter().any(|u| reads_data(summaries, u))
        })?;
        let file = self.fetcher.bin_file(bin);

        // Positional bitmaps for this rank's chunks, as one want-list.
        let (grid, order) = (self.job.store.grid(), self.job.store.order());
        let mut local = std::mem::take(&mut self.local);
        local.clear();
        let mut runs: Vec<Option<UnitRuns>> = vec![None; group.len()];
        let mut full = vec![false; group.len()];
        let mut wants: Vec<Want> = Vec::new();
        let mut slots: Vec<usize> = Vec::new(); // unit idx in group
        for (gi, u) in group.iter().enumerate() {
            let Some((offset, len)) = fixed.bitmap(u.chunk_rank) else {
                continue;
            };
            let count = fixed.count(u.chunk_rank);
            // Summary classification: a full chunk's bitmap is all ones
            // — one run — so it is never read; partial chunks still
            // fetch their bitmap.
            if fixed.summaries.get(u.chunk_rank).all_of_chunk {
                let points = grid.chunk_points(order.cell_at(u.chunk_rank)) as u64;
                if u64::from(count) != points {
                    return Err(MlocError::Corrupt("index bitmap inconsistent"));
                }
                full[gi] = true;
                runs[gi] = Some(UnitRuns::Local(local.push_full(points)));
                self.summary_skips += 1;
                continue;
            }
            self.summary_hits += 1;
            wants.push(Want {
                key: self.fetcher.key(bin, u.chunk_rank, BlockPart::Bitmap),
                offset,
                len,
                count,
            });
            slots.push(gi);
        }
        let footer = Some(&*fixed.footer);
        self.fetcher
            .wants(&file, &wants, footer, &mut local, |k, got| {
                runs[slots[k]] = Some(got?);
                Ok(())
            })?;
        let bytes = self.fetcher.report.index_bytes - bytes_before;
        self.end_read(obs, "bin.index.bytes", bin, bytes);
        // A bin's data checksum table comes with its fixed blocks, in
        // `index-read`, and counts under the bin's data bytes.
        let table = self.fetcher.report.data_bytes - data_before;
        if table > 0 {
            obs.count_labeled("bin.data.bytes", Label::Index(bin as u32), table);
        }
        Ok(BinBlocks {
            file,
            fixed,
            runs,
            local,
            full,
            parts: Vec::new(),
            n_parts: self.recon.n_parts,
            eff_parts: vec![self.recon.n_parts; group.len()],
        })
    }

    /// Fetch and decode one bin's data units (only for units that
    /// need data). A unit is one cache probe: the block found serves
    /// the unit's leading parts — a PLoD level-k query reuses parts
    /// 0..k of any earlier query over the same chunk, whatever its
    /// level — and the rest are read, decoded, and published as the
    /// longer prefix.
    fn read_data(
        &mut self,
        group: &[WorkUnit],
        blocks: &mut BinBlocks,
        obs: &mut Collector,
    ) -> Result<()> {
        let (store, n_parts) = (self.job.store, self.recon.n_parts);
        let config = store.config();
        let bin = group[0].bin;
        obs.begin("data-read");
        let file = Arc::clone(&blocks.file);
        let bytes_before = self.fetcher.report.data_bytes;
        // The data's checksum table came with the bin's fixed blocks,
        // fetched on this same condition — which depends only on the
        // plan and the index, never on cache state, so cold and warm
        // runs of the same query access it identically.
        let fixed = Arc::clone(&blocks.fixed);
        let reads_data = |u: &WorkUnit| reads_data(&fixed.summaries, u);
        if group.iter().any(reads_data) {
            blocks.parts = vec![None; group.len() * n_parts];
        }
        // Per unit, the parts its cached prefix held (cached PLoD runs
        // only: a float block is published where it is decoded).
        let mut held = if config.plod && self.fetcher.caches() {
            vec![0; group.len()]
        } else {
            Vec::new()
        };
        let mut extents: Vec<(u64, u32)> = Vec::new();
        let mut slots: Vec<(usize, usize)> = Vec::new(); // (unit idx, part)
        for (gi, u) in group.iter().enumerate().filter(|(_, u)| reads_data(u)) {
            let count = fixed.count(u.chunk_rank) as usize;
            let block = self.fetcher.unit_block(bin, u.chunk_rank, count);
            let served = block.as_ref().map_or(0, UnitBlock::parts);
            for p in 0..n_parts {
                let loc = fixed
                    .unit(u.chunk_rank, p)
                    .ok_or(MlocError::Corrupt("unit part not in the data table"))?;
                match &block {
                    Some(block) if p < served => {
                        self.fetcher.served(&file, loc.offset, u64::from(loc.clen));
                        blocks.parts[gi * n_parts + p] = Some(block.part(p));
                    }
                    _ => {
                        extents.push((loc.offset, loc.clen));
                        slots.push((gi, p));
                    }
                }
            }
            if let Some(h) = held.get_mut(gi) {
                *h = served;
            }
        }

        // Sort the per-extent outcomes: stored bytes queue for
        // decompression; a failed read is fatal unless it is degradable
        // — a non-base PLoD part of a unit with no value filter
        // (degrading a filtered unit could silently change which points
        // match). A unit's extents arrive in part order, so its first
        // loss is its lowest: everything from that part on is dropped
        // at reconstruction.
        let mut stored: Vec<(usize, ByteView)> = Vec::new(); // (extent idx, bytes)
        let degrade = self.job.allow_degraded && config.plod;
        let footer = blocks.fixed.data.as_deref();
        let reads = self.fetcher.read(&file, &extents, footer, false);
        for (k, got) in reads.into_iter().enumerate() {
            let (gi, p) = slots[k];
            let e = match got {
                Ok(view) => {
                    stored.push((k, view));
                    continue;
                }
                Err(e) => e,
            };
            if !(degrade && p > 0 && !group[gi].value_filter) {
                return Err(e);
            }
            if p < blocks.eff_parts[gi] {
                blocks.eff_parts[gi] = p;
                self.out.degradation.events.push(DegradationEvent {
                    bin,
                    chunk_rank: group[gi].chunk_rank,
                    lost_part: p,
                    points: u64::from(fixed.count(group[gi].chunk_rank)),
                    reason: e.to_string(),
                });
            }
        }
        let bytes = self.fetcher.report.data_bytes - bytes_before;
        self.end_read(obs, "bin.data.bytes", bin, bytes);
        let codec = Label::Name(config.codec.name());
        obs.count_labeled("decompress.units", codec, stored.len() as u64);

        // Decompress the fetched parts (timed); cache hits above skip
        // this entirely, which is where warm-session time goes to ~0.
        let t = Instant::now();
        for (k, view) in stored {
            let (gi, p) = slots[k];
            let chunk_rank = group[gi].chunk_rank;
            let count = fixed.count(chunk_rank) as usize;
            let block = if config.plod {
                CachedBlock::Bytes(self.decoder.part(&view, p, count)?)
            } else {
                let unit = (bin, chunk_rank);
                self.decoder.floats(&mut self.fetcher, unit, &view, count)?
            };
            blocks.parts[gi * n_parts + p] = Some(block);
        }
        // Publish each PLoD unit's parts before its first loss, once,
        // when they go past what its cached block held.
        for (gi, &had) in held.iter().enumerate() {
            let eff = blocks.eff_parts[gi];
            if eff <= had || !reads_data(&group[gi]) {
                continue;
            }
            let mut parts: [&[u8]; NUM_PARTS] = [&[]; NUM_PARTS];
            for (part, slot) in parts.iter_mut().zip(blocks.unit_parts(gi)).take(eff) {
                let bytes = slot.as_ref().and_then(CachedBlock::as_bytes);
                *part = bytes.ok_or(MlocError::Corrupt("missing PLoD part"))?;
            }
            let block = self.decoder.prefix(&parts[..eff]);
            self.fetcher.publish_unit(bin, group[gi].chunk_rank, block);
        }
        // The profile span gets the same float as the metric, so the
        // two reports reconcile exactly, not just "within noise".
        let dt = t.elapsed().as_secs_f64();
        self.out.decompress_s += dt;
        obs.record("decompress", dt);
        Ok(())
    }

    /// Reconstruct one bin's units: walk their runs, and assemble and
    /// filter their values into their chunks' scatters (timed); the
    /// positions are emitted after the last bin.
    fn reconstruct(
        &mut self,
        group: &[WorkUnit],
        blocks: &BinBlocks,
        obs: &mut Collector,
    ) -> Result<()> {
        let t = Instant::now();
        for (gi, u) in group.iter().enumerate() {
            self.recon.unit(gi, u, blocks, &mut self.out.refine)?;
        }
        let dt = t.elapsed().as_secs_f64();
        self.out.reconstruct_s += dt;
        obs.record("reconstruct", dt);
        Ok(())
    }

    /// Emit the deferred chunks, publish the rank's counters, and
    /// close its I/O.
    fn finish(mut self, obs: &mut Collector) -> RankOutput {
        if self.recon.has_deferred() {
            let t = Instant::now();
            self.recon.emit_deferred(&mut self.out);
            let dt = t.elapsed().as_secs_f64();
            self.out.reconstruct_s += dt;
            obs.record("reconstruct", dt);
        }
        obs.count("index.summary_hits", self.summary_hits);
        obs.count("index.summary_skips", self.summary_skips);
        obs.count("index.rank_calls", self.recon.rank_calls);
        let copy_bytes = self.decoder.copy_bytes + self.recon.copy_bytes;
        obs.count("hotpath.copy_bytes", copy_bytes);
        self.out.io = self.fetcher.finish();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use crate::binfile::{front_lens, parse_fixed, reseal_index};
    use crate::build::build_variable;
    use crate::config::LevelOrder;
    use crate::config::MlocConfig;
    use crate::query::Query;
    use crate::store::MlocStore;
    use crate::MlocError;
    use mloc_pfs::{MemBackend, StorageBackend};

    /// A header that parses and passes its checksum but describes
    /// another geometry — here 40 chunks × 2 parts, where the store's
    /// is 16 × 7 — is refused where it is read, instead of sending
    /// plan-derived ranks and parts out of range.
    #[test]
    fn a_header_of_another_geometry_is_corrupt_not_a_panic() {
        let be = MemBackend::new();
        let values: Vec<f64> = (0..4096).map(|i| ((i * 37) % 4096) as f64 * 0.25).collect();
        let config = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .num_bins(4)
            .build();
        build_variable(&be, "ds", "v", &values, &config).unwrap();
        let store = MlocStore::open(&be, "ds", "v").unwrap();
        let query = Query::values_where(0.0, 2000.0);
        store.query_serial(&query).unwrap();

        let file = store.bin_file(1);
        let mut raw = be.read(file, 0, be.len(file).unwrap()).unwrap();
        raw[9..13].copy_from_slice(&40u32.to_le_bytes());
        raw[13] = 2;
        reseal_index(&mut raw, (16, 7), front_lens, file);
        be.create(file).unwrap();
        be.append(file, &raw).unwrap();

        let err = store.query_serial(&query).unwrap_err();
        assert!(
            matches!(err, MlocError::Corrupt("index geometry mismatch")),
            "got {err}"
        );
    }

    /// The key of the run list `store`'s cache would hold of chunk
    /// rank `rank`'s bitmap in `bin`.
    fn bitmap_key(store: &MlocStore<'_>, bin: usize, rank: usize) -> crate::cache::BlockKey {
        crate::cache::BlockKey {
            scope: std::sync::Arc::clone(store.cache_scope()),
            bin: bin as u32,
            chunk_rank: rank as u32,
            part: crate::cache::BlockPart::Bitmap,
        }
    }

    /// A chunk the region straddles, with one set bit added to its
    /// run list past the last row of the region's box under a resealed
    /// index table: the list's runs no longer sum to its summary's
    /// count, which admission checks before any walk, so a one-shot
    /// query and a progressive ladder's step 0 both refuse the unit,
    /// cold, and warm from the blocks the failed run cached — and its
    /// run list is never cached.
    #[test]
    fn an_extra_bit_outside_the_box_is_corrupt_cold_and_warm() {
        use crate::array::Region;
        use crate::cache::BlockCache;
        use std::sync::Arc;

        let be = MemBackend::new();
        let values: Vec<f64> = (0..4096).map(|i| ((i * 37) % 4096) as f64 * 0.25).collect();
        let config = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .num_bins(4)
            .build();
        build_variable(&be, "ds", "v", &values, &config).unwrap();
        // Rows 10..20 × columns 20..30: chunk (1, 1) holds the box's
        // local rows 0..4 and columns 4..14.
        let region = Region::new(vec![(10, 20), (20, 30)]);
        let store = MlocStore::open(&be, "ds", "v").unwrap();
        let rank = store.order().rank_of_coords(&[1, 1]);
        let outside = |p: u64| p / 16 >= 4;

        // The first bin whose run list of the chunk ends on a clear
        // position past the box, in a one-byte last length: lengthen
        // the last run by that one position.
        let edited = (0..4).find(|&bin| {
            let file = store.bin_file(bin);
            let mut raw = be.read(file, 0, be.len(file).unwrap()).unwrap();
            let located = parse_fixed(&raw, (16, 7), LevelOrder::Vms, file).unwrap();
            let Some((at, len)) = located.bitmap(rank) else {
                return false;
            };
            let (at, end) = (at as usize, (at + u64::from(len)) as usize);
            let count = u64::from(located.count(rank));
            let mut runs = mloc_bitmap::RunListBuf::new();
            let Ok(i) = runs.push_stored(&raw[at..end], count, 256) else {
                return false;
            };
            let Some((start, _, len)) = runs.get(i).unwrap().iter().last() else {
                return false;
            };
            if start + len >= 256 || !outside(start + len) || raw[end - 1] >= 0x7F {
                return false;
            }
            raw[end - 1] += 1;
            reseal_index(&mut raw, (16, 7), front_lens, file);
            be.create(file).unwrap();
            be.append(file, &raw).unwrap();
            true
        });
        let bin = edited.expect("no run ending past the box");

        let q = Query::values_in(region);
        let inconsistent = |tag: &str, err: MlocError| {
            assert!(
                matches!(&err, MlocError::CorruptExtent { what, .. }
                    if what.starts_with("run list disagrees with its count")),
                "{tag}: got {err}"
            );
        };
        let cache = Arc::new(BlockCache::with_budget_mb(8));
        let cached = MlocStore::open(&be, "ds", "v")
            .unwrap()
            .with_cache(Arc::clone(&cache));
        for (mode, store) in [("cold", &store), ("cache fill", &cached), ("warm", &cached)] {
            inconsistent(mode, store.query_serial(&q).unwrap_err());
            let ladder = store.query_progressive(&q).map(drop);
            inconsistent(&format!("{mode} ladder"), ladder.unwrap_err());
            let damaged = bitmap_key(&cached, bin, rank);
            assert!(
                cache.get(&damaged).is_none(),
                "{mode}: the bitmap was cached"
            );
        }
        assert!(cache.stats().hits > 0, "the warm runs were served");
    }

    /// A chunk's run list edited in place under a resealed checksum
    /// table, no longer one encoding of a position set inside the
    /// chunk: a gap grown so a run passes the chunk's end, a value
    /// spelled in a byte too many, or two runs merged by a zero gap. Admission refuses it as a corrupt index
    /// instead of panicking, cold and behind a cache, and never caches
    /// it.
    #[test]
    fn a_bitmap_that_disagrees_with_itself_is_corrupt_not_a_panic() {
        use crate::cache::BlockCache;
        use std::sync::Arc;

        // One 64 × 64 chunk, 4 bins: `values` picks what the run lists
        // look like; `edit` damages one bin's chunk run list in place
        // and says whether it found something to damage.
        let check = |values: Vec<f64>, edit: &dyn Fn(&mut [u8]) -> bool| {
            let be = MemBackend::new();
            let config = MlocConfig::builder(vec![64, 64])
                .chunk_shape(vec![64, 64])
                .num_bins(4)
                .build();
            build_variable(&be, "ds", "v", &values, &config).unwrap();
            let store = MlocStore::open(&be, "ds", "v").unwrap();
            let query = Query::membership((0..4096).collect()).with_values();
            store.query_serial(&query).unwrap();
            let edited = (0..4).find(|&bin| {
                let file = store.bin_file(bin);
                let mut raw = be.read(file, 0, be.len(file).unwrap()).unwrap();
                let located = parse_fixed(&raw, (1, 7), LevelOrder::Vms, file).unwrap();
                let Some((at, len)) = located.bitmap(0) else {
                    return false;
                };
                let (at, end) = (at as usize, (at + u64::from(len)) as usize);
                if !edit(&mut raw[at..end]) {
                    return false;
                }
                reseal_index(&mut raw, (1, 7), front_lens, file);
                be.create(file).unwrap();
                be.append(file, &raw).unwrap();
                true
            });
            let bin = edited.expect("no bitmap to edit");
            let cache = Arc::new(BlockCache::with_budget_mb(8));
            let cached = MlocStore::open(&be, "ds", "v")
                .unwrap()
                .with_cache(Arc::clone(&cache));
            for (mode, store) in [("cold", &store), ("cache fill", &cached), ("warm", &cached)] {
                let err = store.query_serial(&query).unwrap_err();
                assert!(
                    matches!(&err, MlocError::CorruptExtent { what, .. } if what.starts_with("run list")),
                    "{mode}: got {err}"
                );
                let damaged = bitmap_key(&cached, bin, 0);
                assert!(
                    cache.get(&damaged).is_none(),
                    "{mode}: the bitmap was cached"
                );
            }
        };
        // Bins are bands of rows, each one run of 1,024 positions. A
        // band after the first opens with a two-byte gap: grow its high
        // byte so the run passes the chunk.
        let rows: Vec<f64> = (0..4096).map(|i| (i / 64) as f64).collect();
        check(rows.clone(), &|pairs| {
            let two_byte_gap = pairs.len() == 4 && pairs[0] & 0x80 != 0;
            if two_byte_gap {
                pairs[1] = 0x7E;
            }
            two_byte_gap
        });
        // The first band opens with a one-byte zero gap, then its
        // length: spell the gap in two bytes, the second zero — an
        // overlong value.
        check(rows, &|pairs| {
            let first_band = pairs.len() == 3 && pairs[0] == 0;
            if first_band {
                pairs[..2].copy_from_slice(&[0x80, 0x00]);
            }
            first_band
        });
        // Scattered values: one-byte pairs throughout. Zero the second
        // run's gap: it merges into the first.
        let scattered = (0..4096u64)
            .map(|i| (i.wrapping_mul(2_654_435_761) % 4096) as f64)
            .collect();
        check(scattered, &|pairs| {
            let one_byte = pairs.len() >= 4 && pairs[..4].iter().all(|&b| b < 0x80);
            if one_byte {
                pairs[2] = 0;
            }
            one_byte
        });
    }
}
