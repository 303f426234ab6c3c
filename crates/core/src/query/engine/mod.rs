//! Per-rank query execution, one module per stage of the paper's
//! Fig. 5 pipeline: `fetch` reads index and data extents (through
//! the block cache and extent fuser), `decode` decompresses them,
//! `reconstruct` filters and maps them to global positions. This
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
pub(crate) use fetch::Fetcher;
use fetch::{UnitBlock, UnitRuns, Want};

use crate::cache::{BlockPart, ByteView, CachedBlock, FixedBlocks};
use crate::config::NUM_PARTS;
use crate::degrade::{DegradationEvent, DegradationReport};
use crate::exec::ExecRequest;
use crate::index::Summaries;
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
    /// The bin's fixed blocks: the index checksum table, the data
    /// checksum table, fetched iff a unit of the bin reads data, and the
    /// rows, derived from the store's summaries, that locate every
    /// extent.
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
/// asks for data and the chunk has points in the bin (every unit of a
/// query's plan does; a caller's own plan may hold units that do not).
fn reads_data(summaries: &Summaries, u: &WorkUnit) -> bool {
    u.needs_data && summaries.get(u.bin, u.chunk_rank).count > 0
}

impl Rank<'_, '_> {
    /// Fetch one bin's index blocks: its fixed blocks, then the
    /// bitmaps of this rank's chunks.
    fn read_index(&mut self, group: &[WorkUnit], obs: &mut Collector) -> Result<BinBlocks> {
        let bin = group[0].bin;
        let bytes_before = self.fetcher.report.index_bytes;
        let data_before = self.fetcher.report.data_bytes;
        obs.begin("index-read");
        let summaries = self.job.store.summaries();
        let data = group.iter().any(|u| reads_data(summaries, u));
        let fixed = self.fetcher.fixed(bin, data)?;
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
            let summary = summaries.get(bin, u.chunk_rank);
            let count = summary.count;
            // Summary classification: a full chunk's bitmap is all ones
            // — one run — so it is never read; partial chunks still
            // fetch their bitmap.
            if summary.all_of_chunk {
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
        self.fetcher.record_verify(obs);
        obs.end();
        obs.count_labeled("bin.index.bytes", Label::Index(bin as u32), bytes);
        // A bin's data checksum table comes with its fixed blocks, in
        // `index-read`, and counts under the bin's data bytes.
        let table = self.fetcher.report.data_bytes - data_before;
        if table > 0 {
            obs.count_labeled("bin.data.bytes", Label::Index(bin as u32), table);
        }
        Ok(BinBlocks {
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
    /// need data): the data stage over all the query's parts.
    fn read_data(
        &mut self,
        group: &[WorkUnit],
        blocks: &mut BinBlocks,
        obs: &mut Collector,
    ) -> Result<()> {
        let bin = group[0].bin;
        obs.begin("data-read");
        let bytes_before = self.fetcher.report.data_bytes;
        // The data's checksum table came with the bin's fixed blocks,
        // fetched on this same condition — which depends only on the
        // plan and the index, never on cache state, so cold and warm
        // runs of the same query access it identically.
        let fixed = Arc::clone(&blocks.fixed);
        let summaries = self.job.store.summaries();
        let units = (group.iter().enumerate()).filter(|(_, u)| reads_data(summaries, u));
        if units.clone().next().is_some() {
            blocks.parts = vec![None; group.len() * blocks.n_parts];
        }
        let range = PartRange {
            bin,
            fixed: &fixed,
            parts: 0..blocks.n_parts,
            allow_degraded: self.job.allow_degraded,
            out: &mut blocks.parts,
            eff: &mut blocks.eff_parts,
            degradation: &mut self.out.degradation,
        };
        let units = units.map(|(slot, u)| (slot, u.chunk_rank, u.value_filter));
        let codec = Label::Name(self.job.store.config().codec.name());
        // The `data-read` span ends, with its `verify` child, before
        // the decode.
        let on_read = |f: &mut Fetcher<'_, '_>, decoded: usize| {
            f.record_verify(obs);
            obs.end();
            let bytes = f.report.data_bytes - bytes_before;
            obs.count_labeled("bin.data.bytes", Label::Index(bin as u32), bytes);
            obs.count_labeled("decompress.units", codec, decoded as u64);
        };
        let dt = read_parts(&mut self.fetcher, &mut self.decoder, range, units, on_read)?;
        // The profile span gets the same float as the metric, so the
        // two reports reconcile exactly, not just "within noise".
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

/// One call of the data stage: parts `parts` of units of `bin`, whose
/// fixed blocks locate and verify every extent, and where what it finds
/// goes, by unit slot.
pub(crate) struct PartRange<'r> {
    pub bin: usize,
    pub fixed: &'r FixedBlocks,
    pub parts: Range<usize>,
    /// See [`crate::ParallelExecutor::allow_degraded`].
    pub allow_degraded: bool,
    /// Slot-major `slots × parts.len()`: the decoded blocks — PLoD byte
    /// groups, or the one whole-value block.
    pub out: &'r mut [Option<CachedBlock>],
    /// Per slot: the end of its usable parts, `parts.end` until a loss.
    pub eff: &'r mut [usize],
    pub degradation: &'r mut DegradationReport,
}

/// The data stage: fetch and decode parts `lo..hi` of one bin's
/// `units` — `(slot, chunk rank, value filter)` — for a one-shot query
/// `0..n_parts`, for a refinement pull `p..p + 1`. A unit is one cache
/// probe: the block found serves the leading parts it holds (a PLoD
/// level-k query reuses parts `0..k` of any earlier query over the same
/// chunk), and the rest are read in one coalesced read checked against
/// the bin's data table. A failed read is fatal unless degradable: a
/// non-base PLoD part of a unit with no value filter (degrading a
/// filtered unit could silently change which points match), when
/// degradation is allowed; a unit is unusable from its lowest loss on.
/// A unit whose cached prefix covered `0..lo` publishes the longer
/// prefix, up to its first loss. `on_read` runs once the reads are in,
/// with the number of extents to decode; the decode and publish seconds
/// are returned.
pub(crate) fn read_parts(
    fetcher: &mut Fetcher<'_, '_>,
    decoder: &mut Decoder,
    range: PartRange<'_>,
    units: impl Iterator<Item = (usize, usize, bool)>,
    on_read: impl FnOnce(&mut Fetcher<'_, '_>, usize),
) -> Result<f64> {
    let PartRange { bin, fixed, .. } = range;
    let Range { start: lo, end: hi } = range.parts;
    let at = |slot: usize, p: usize| slot * (hi - lo) + p - lo;
    let store = fetcher.store();
    let plod = store.config().plod;
    let count = |rank: usize| store.summaries().get(bin, rank).count;
    let file = fetcher.bin_file(bin);
    let mut extents: Vec<(u64, u32)> = Vec::new();
    // (slot, chunk rank, value filter, part) of every extent to read.
    let mut wanted: Vec<(usize, usize, bool, usize)> = Vec::new();
    // Units whose cached prefix grows: PLoD units only (a float block
    // is published as it is decoded).
    let mut grow: Vec<(usize, usize, Option<UnitBlock>)> = Vec::new();
    for (slot, rank, filtered) in units {
        let block = fetcher.unit_block(bin, rank, count(rank) as usize);
        let held = block.as_ref().map_or(0, UnitBlock::parts);
        for p in lo..hi {
            let loc = fixed
                .unit(rank, p)
                .ok_or(MlocError::Corrupt("unit part not in the data table"))?;
            match &block {
                Some(block) if p < held => {
                    fetcher.served(&file, loc.offset, u64::from(loc.clen));
                    range.out[at(slot, p)] = Some(block.part(p));
                }
                _ => {
                    extents.push((loc.offset, loc.clen));
                    wanted.push((slot, rank, filtered, p));
                }
            }
        }
        if plod && fetcher.caches() && (lo..hi).contains(&held) {
            grow.push((slot, rank, block));
        }
    }

    // A unit's extents arrive in part order: its first loss is its lowest.
    let mut stored: Vec<(usize, usize, usize, ByteView)> = Vec::new();
    let reads = fetcher.read(&file, &extents, fixed.data.as_deref(), false);
    for (&(slot, rank, filtered, p), got) in wanted.iter().zip(reads) {
        match got {
            Ok(view) => stored.push((slot, rank, p, view)),
            Err(e) if !(range.allow_degraded && plod && p > 0 && !filtered) => return Err(e),
            Err(e) if p < range.eff[slot] => {
                range.eff[slot] = p;
                range.degradation.events.push(DegradationEvent {
                    bin,
                    chunk_rank: rank,
                    lost_part: p,
                    points: u64::from(count(rank)),
                    reason: e.to_string(),
                });
            }
            Err(_) => {}
        }
    }
    on_read(fetcher, stored.len());

    // Decompress what was read; cache hits above skip this entirely,
    // which is where warm-session time goes to ~0.
    let t = Instant::now();
    for (slot, rank, p, view) in stored {
        let count = count(rank) as usize;
        range.out[at(slot, p)] = Some(if plod {
            CachedBlock::Bytes(decoder.part(view, p, count)?)
        } else {
            let block = decoder.floats(&view, count)?;
            fetcher.publish_unit(bin, rank, block.clone());
            block
        });
    }
    for (slot, rank, block) in grow {
        let (held, eff) = (block.as_ref().map_or(0, UnitBlock::parts), range.eff[slot]);
        if eff <= held {
            continue;
        }
        let mut parts: [&[u8]; NUM_PARTS + 1] = [&[]; NUM_PARTS + 1];
        parts[0] = block.as_ref().map_or(&[], UnitBlock::bytes);
        for (part, p) in parts[1..].iter_mut().zip(held..eff) {
            let bytes = range.out[at(slot, p)]
                .as_ref()
                .and_then(CachedBlock::as_bytes);
            *part = bytes.ok_or(MlocError::Corrupt("missing PLoD part"))?;
        }
        let prefix = decoder.prefix(&parts[..=eff - held]);
        fetcher.publish_unit(bin, rank, prefix);
    }
    Ok(t.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use crate::binfile::reseal_index;
    use crate::build::build_variable;
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
        let tables = store.parse_fixed(1, &raw).unwrap().tables();
        raw[9..13].copy_from_slice(&40u32.to_le_bytes());
        raw[13] = 2;
        reseal_index(&mut raw, tables, file);
        be.create(file).unwrap();
        be.append(file, &raw).unwrap();

        let err = store.query_serial(&query).unwrap_err();
        assert!(
            matches!(err, MlocError::Corrupt("index geometry mismatch")),
            "got {err}"
        );
    }

    /// The data stage over a part range. With a cached prefix of `k`
    /// parts, a request for `lo..hi` probes once, serves parts
    /// `lo..min(k, hi)` from the prefix, reads exactly `max(lo, k)..hi`,
    /// decodes them as a cold read does, and publishes the prefix
    /// `0..hi` only when the cached one covered `0..lo` — and, when a
    /// part is lost, nothing from that part on.
    #[test]
    fn a_part_range_reads_past_its_cached_prefix_and_extends_it_only_from_lo() {
        use super::{read_parts, Decoder, Fetcher, PartRange};
        use crate::cache::{BlockCache, BlockPart, CachedBlock};
        use crate::degrade::DegradationReport;
        use crate::plod::prefix_parts;
        use crate::Result;
        use mloc_pfs::RetryPolicy;
        use std::ops::Range;
        use std::sync::Arc;

        const BIN: usize = 1;
        let be = MemBackend::new();
        let values: Vec<f64> = (0..4096).map(|i| ((i * 37) % 4096) as f64 * 0.25).collect();
        let config = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .num_bins(4)
            .build();
        build_variable(&be, "ds", "v", &values, &config).unwrap();
        let plain = MlocStore::open(&be, "ds", "v").unwrap();
        let fixed = Fetcher::new(&plain, RetryPolicy::none(), false)
            .fixed(BIN, true)
            .unwrap();
        let count_of = |r: usize| plain.summaries().get(BIN, r).count as usize;
        let r = (0..16).find(|&r| count_of(r) > 0).unwrap();
        let count = count_of(r);
        let stored = |parts: Range<usize>| -> u64 {
            parts
                .map(|p| u64::from(fixed.unit(r, p).unwrap().clen))
                .sum()
        };
        // Run the stage for unit `r` over `parts`: what it fetched, the
        // bytes of each part it decoded, its usable end, its events.
        type Staged = (super::FetchReport, Vec<Vec<u8>>, usize, DegradationReport);
        let stage = |store: &MlocStore<'_>, parts: Range<usize>, degrade: bool| -> Result<Staged> {
            let mut fetcher = Fetcher::new(store, RetryPolicy::none(), false);
            let mut decoder = Decoder::new(store.config().codec);
            let (mut slots, mut eff) = (vec![None; parts.len()], vec![parts.end]);
            let mut degradation = DegradationReport::default();
            let lo = parts.start;
            let range = PartRange {
                bin: BIN,
                fixed: &fixed,
                parts,
                allow_degraded: degrade,
                out: &mut slots,
                eff: &mut eff,
                degradation: &mut degradation,
            };
            let unit = [(0, r, false)].into_iter();
            read_parts(&mut fetcher, &mut decoder, range, unit, |_, _| {})?;
            let bytes = (slots.iter().take(eff[0] - lo))
                .map(|b| b.as_ref().and_then(CachedBlock::as_bytes).unwrap().to_vec())
                .collect();
            Ok((fetcher.finish(), bytes, eff[0], degradation))
        };
        // The parts `cache` holds of the unit's prefix.
        let held = |cache: &BlockCache| {
            let key = crate::cache::BlockKey {
                scope: Arc::clone(plain.cache_scope()),
                bin: BIN as u32,
                chunk_rank: r as u32,
                part: BlockPart::PlodUnit,
            };
            cache.get(&key).map_or(0, |b| {
                prefix_parts(count, b.as_bytes().unwrap().len()).unwrap()
            })
        };
        // A store whose cache holds the unit's parts `0..k`.
        let cached_at = |k: usize| {
            let cache = Arc::new(BlockCache::with_budget_mb(8));
            let store = MlocStore::open(&be, "ds", "v")
                .unwrap()
                .with_cache(Arc::clone(&cache));
            if k > 0 {
                stage(&store, 0..k, false).unwrap();
            }
            assert_eq!(held(&cache), k);
            (store, cache)
        };

        // (k, lo..hi): k < lo, k = lo, k > lo, and a prefix past hi.
        for (k, parts) in [(1, 2..5), (2, 2..5), (3, 1..5), (6, 1..4)] {
            let tag = format!("k = {k}, parts {parts:?}");
            let (store, cache) = cached_at(k);
            let (lo, hi) = (parts.start, parts.end);
            let (io, bytes, eff, events) = stage(&store, parts.clone(), false).unwrap();
            assert_eq!(io.cache_hits + io.cache_misses, 1, "{tag}: one probe");
            assert_eq!(io.data_bytes, stored(lo.max(k)..hi), "{tag}: read");
            assert_eq!(io.bytes_saved, stored(lo..k.clamp(lo, hi)), "{tag}: served");
            assert_eq!((eff, events.events.len()), (hi, 0), "{tag}");
            let cold = stage(&plain, parts, false).unwrap();
            assert_eq!(cold.0.data_bytes, stored(lo..hi), "{tag}: cold");
            assert_eq!(bytes, cold.1, "{tag}: the parts a cold read decodes");
            let extended = (lo..hi).contains(&k);
            assert_eq!(held(&cache), if extended { hi } else { k }, "{tag}");
        }

        // Part 4 lost: a damaged byte fails its extent's checksum. The
        // prefixes are cached first, from the intact file.
        // (k, the prefix cached after): a prefix past part 4 serves it.
        let cases = [(2, 4), (1, 1), (5, 6)].map(|(k, after)| (k, after, cached_at(k)));
        let file = plain.bin_file(BIN);
        let mut raw = be.read(file, 0, be.len(file).unwrap()).unwrap();
        raw[fixed.unit(r, 4).unwrap().offset as usize] ^= 0x10;
        be.create(file).unwrap();
        be.append(file, &raw).unwrap();
        for (k, after, (store, cache)) in cases {
            let tag = format!("part 4 lost, k = {k}");
            let strict = stage(&store, 2..6, false);
            assert_eq!(strict.is_err(), k <= 4, "{tag}: strict");
            let (_, bytes, eff, report) = stage(&store, 2..6, true).unwrap();
            let lost: Vec<usize> = report.events.iter().map(|e| e.lost_part).collect();
            let want_lost: &[usize] = if k > 4 { &[] } else { &[4] };
            assert_eq!(lost, want_lost, "{tag}");
            assert_eq!(eff, if k > 4 { 6 } else { 4 }, "{tag}");
            assert_eq!(bytes.len(), eff - 2, "{tag}");
            assert_eq!(held(&cache), after, "{tag}: published");
        }
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
            let located = store.parse_fixed(bin, &raw).unwrap();
            let Some((at, len)) = located.bitmap(rank) else {
                return false;
            };
            let (at, end) = (at as usize, (at + u64::from(len)) as usize);
            let count = u64::from(store.summaries().get(bin, rank).count);
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
            reseal_index(&mut raw, located.tables(), file);
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
                let located = store.parse_fixed(bin, &raw).unwrap();
                let Some((at, len)) = located.bitmap(0) else {
                    return false;
                };
                let (at, end) = (at as usize, (at + u64::from(len)) as usize);
                if !edit(&mut raw[at..end]) {
                    return false;
                }
                reseal_index(&mut raw, located.tables(), file);
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
