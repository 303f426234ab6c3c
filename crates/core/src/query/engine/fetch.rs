//! Stage 1 — fetch: every stored byte a rank touches enters through
//! a [`Fetcher`], so a cache hit, a fused want and a physical read of
//! the same extent are traced, verified and counted in one place.
//! Three operations, each one cache probe per block the cache keeps: a
//! bin's fixed blocks ([`Fetcher::fixed`]: header, index table and —
//! when the bin's units read data — data table, read in one read from
//! the file's front, sized by the bin's chunk summaries, which the
//! store holds from its meta; verified, parsed, their rows derived, and
//! cached as one entry; a warm bin replays their span as a cached
//! record), a coalesced want-list of bitmaps ([`Fetcher::wants`], one
//! probe per bitmap; a read bitmap is decoded once into a run list and
//! checked against its summary count before anything is cached), and a
//! data unit ([`Fetcher::unit_block`], one probe whatever number of its
//! extents the block found serves; the extents it did not serve are
//! read by [`Fetcher::read`]). A cold bin's header is read with the
//! tables that vouch for it and is decided on only once they have.

use crate::binfile::{refused_runs, Rows};
use crate::cache::{BlockKey, BlockPart, ByteView, CachedBlock, FixedBlocks};
use crate::fusion::coalesced_read_results;
use crate::index::{check_header, HEADER_LEN};
use crate::integrity::{corrupt_extent, ExtentFooter};
use crate::plod;
use crate::store::MlocStore;
use crate::{MlocError, Result};
use mloc_bitmap::{RunList, RunListBuf};
use mloc_obs::Collector;
use mloc_pfs::{PfsError, RankIo, ReadOp, RetryPolicy};
use std::sync::Arc;

/// What one rank's fetches cost, by where the bytes came from.
#[derive(Debug, Clone, Default)]
pub struct FetchReport {
    /// Bytes read from bin files' index sections.
    pub index_bytes: u64,
    /// Bytes read from bin files' data sections.
    pub data_bytes: u64,
    /// Block-cache probes that found their block (0 without a cache).
    /// A data unit's block may serve several extents for one hit.
    pub cache_hits: u64,
    /// Block-cache probes that did not (0 without a cache).
    pub cache_misses: u64,
    /// Compressed bytes served from the cache instead of the PFS: the
    /// stored length of every extent a cached block stood in for.
    pub bytes_saved: u64,
    /// Cache inserts the budget turned away.
    pub cache_rejected: u64,
    /// Wants served by another session's physical read through the
    /// extent fuser (0 without fusion).
    pub fused_reads: u64,
    /// Bytes of those fused wants — kept off the PFS and excluded from
    /// `index_bytes`/`data_bytes`, like cache-served bytes.
    pub fused_bytes: u64,
    /// Transient-read retries performed.
    pub retries: u64,
    /// Simulated backoff seconds accumulated by those retries.
    pub retry_wait_s: f64,
    /// Every logical read in issue order; the PFS simulator prices it.
    pub trace: Vec<ReadOp>,
    /// Request counts of the submitted read batches, in order.
    pub batch_depths: Vec<u64>,
}

/// One bitmap of a coalesced want-list: the cache key of its run list
/// (whose chunk rank names the chunk it must cover), its extent's byte
/// offset in the file and stored length, and the set-bit count its
/// summary declares — the unit's point count.
pub(crate) struct Want {
    pub key: BlockKey,
    pub offset: u64,
    pub len: u32,
    pub count: u32,
}

/// Where a unit's run list is: the cache entry that holds it, or its
/// index in the bin's run-list buffer.
#[derive(Clone)]
pub(crate) enum UnitRuns {
    Cached(Arc<RunList>),
    Local(usize),
}

/// The decoded data block the cache holds of one unit, and how many of
/// the unit's leading parts it serves: a PLoD unit's prefix of parts
/// `0..k`, or a whole-value unit's float block (one part).
pub(crate) struct UnitBlock {
    block: CachedBlock,
    parts: usize,
    count: usize,
}

impl UnitBlock {
    /// The leading parts the block holds.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Part `p < self.parts()`, a view into the block.
    pub fn part(&self, p: usize) -> CachedBlock {
        match &self.block {
            CachedBlock::Bytes(b) => {
                let at = plod::part_range(self.count, p);
                CachedBlock::Bytes(b.sub(at.start, at.len()))
            }
            whole => whole.clone(),
        }
    }

    /// A PLoD prefix's bytes: its parts back to back.
    pub fn bytes(&self) -> &[u8] {
        self.block.as_bytes().map_or(&[], |b| b.as_slice())
    }
}

/// Per-rank fetch state: the I/O handle, the store (for its cache,
/// fuser, cache scope and file names), and all byte / hit / miss /
/// fused / rejected / retry accounting.
pub(crate) struct Fetcher<'s, 'a> {
    store: &'s MlocStore<'a>,
    io: RankIo<'a>,
    /// Seconds spent checking extents against their footers since the
    /// last [`Self::record_verify`]; `None` (no clock is ever read)
    /// unless the rank is profiled.
    verify_s: Option<f64>,
    /// Counters so far ([`Self::finish`] adds retries and the trace).
    pub report: FetchReport,
}

impl<'s, 'a> Fetcher<'s, 'a> {
    /// `profiled` is whether the rank's [`Collector`] records: only
    /// then is integrity-check time measured.
    pub fn new(store: &'s MlocStore<'a>, retry: RetryPolicy, profiled: bool) -> Self {
        Fetcher {
            store,
            io: RankIo::with_retry(store.backend(), retry),
            verify_s: profiled.then_some(0.0),
            report: FetchReport::default(),
        }
    }

    /// Record the integrity-check seconds accumulated since the last
    /// call as a `verify` span under `obs`'s innermost open span. The
    /// span is recorded even at zero seconds, so a profile's shape
    /// does not depend on what the cache or the fuser absorbed.
    pub fn record_verify(&mut self, obs: &mut Collector) {
        if let Some(s) = &mut self.verify_s {
            obs.record("verify", std::mem::take(s));
        }
    }

    /// Name of a bin's file: the store's one allocation of it, shared
    /// by every request, retry and trace record of the file.
    pub fn bin_file(&self, bin: usize) -> Arc<str> {
        Arc::clone(self.store.bin_file(bin))
    }

    /// Cache key of one block of this store's variable.
    pub fn key(&self, bin: usize, chunk_rank: usize, part: BlockPart) -> BlockKey {
        BlockKey {
            scope: Arc::clone(self.store.cache_scope()),
            bin: bin as u32,
            chunk_rank: chunk_rank as u32,
            part,
        }
    }

    /// Probe the cache, counting the probe as the cache does: a hit
    /// iff it found a block. A block of the wrong kind for its key is
    /// then of no use — read, never a wrong answer.
    fn probe(&mut self, key: &BlockKey) -> Option<CachedBlock> {
        let found = self.store.cache()?.get(key);
        match found {
            Some(_) => self.report.cache_hits += 1,
            None => self.report.cache_misses += 1,
        }
        found.filter(|b| match key.part {
            BlockPart::Fixed => matches!(b, CachedBlock::Fixed(_)),
            BlockPart::Bitmap => matches!(b, CachedBlock::Runs(_)),
            BlockPart::Floats => b.as_floats().is_some(),
            _ => b.as_bytes().is_some(),
        })
    }

    /// Account the extent `[off, off + len)` a cached block served: it
    /// stays visible in the trace (flagged cached) at zero simulated
    /// cost.
    pub fn served(&mut self, file: &Arc<str>, off: u64, len: u64) {
        self.io.record_cached(Arc::clone(file), off, len);
        self.report.bytes_saved += len;
    }

    /// The store the fetches read.
    pub fn store(&self) -> &'s MlocStore<'a> {
        self.store
    }

    /// Whether the store has a block cache.
    pub fn caches(&self) -> bool {
        self.store.cache().is_some()
    }

    /// The key of unit `chunk_rank` of `bin`'s decoded data block.
    fn unit_key(&self, bin: usize, chunk_rank: usize) -> BlockKey {
        let part = if self.store.config().plod {
            BlockPart::PlodUnit
        } else {
            BlockPart::Floats
        };
        self.key(bin, chunk_rank, part)
    }

    /// Probe the cache, once, for the decoded data block of unit
    /// `chunk_rank` of `bin`, a unit of `count` points. Without a cache
    /// no key is built and nothing is probed. A block whose length does
    /// not fit the unit is a hit that serves nothing.
    pub fn unit_block(&mut self, bin: usize, chunk_rank: usize, count: usize) -> Option<UnitBlock> {
        if !self.caches() {
            return None;
        }
        let block = self.probe(&self.unit_key(bin, chunk_rank))?;
        let parts = match &block {
            CachedBlock::Bytes(b) => plod::prefix_parts(count, b.len())?,
            CachedBlock::Floats(f) if f.len() == count => 1,
            _ => return None,
        };
        Some(UnitBlock {
            block,
            parts,
            count,
        })
    }

    /// Offer unit `chunk_rank` of `bin`'s decoded data block to the
    /// cache (a no-op, building no key, without one).
    pub fn publish_unit(&mut self, bin: usize, chunk_rank: usize, block: CachedBlock) {
        if self.caches() {
            self.publish(self.unit_key(bin, chunk_rank), block);
        }
    }

    /// Offer a block to the cache (a no-op without one).
    pub fn publish(&mut self, key: BlockKey, block: CachedBlock) {
        if let Some(c) = self.store.cache() {
            if !c.insert(key, block) {
                self.report.cache_rejected += 1;
            }
        }
    }

    /// `bin`'s fixed blocks, verified and parsed, with its data table
    /// iff `data` — a unit of the bin reads data. One cache probe: a hit
    /// replays each block it serves — header, index table, data table —
    /// as a cached record, as it does every extent it serves; an entry
    /// without the data table a query now needs reads that table alone.
    /// What was read is cached, as one entry, only once every block in
    /// it has passed its checks. Any damage is a hard error: without
    /// these blocks nothing in the bin can be trusted.
    pub fn fixed(&mut self, bin: usize, data: bool) -> Result<Arc<FixedBlocks>> {
        let key = self.key(bin, 0, BlockPart::Fixed);
        let fixed = match self.probe(&key) {
            Some(CachedBlock::Fixed(hit)) => {
                let file = self.bin_file(bin);
                for (off, len) in hit.index_spans() {
                    self.served(&file, off, len);
                }
                if !data {
                    return Ok(hit);
                }
                if let Some(table) = &hit.data {
                    let (off, len) = table.span();
                    self.served(&file, off, len);
                    return Ok(hit);
                }
                // Built by a query that read no data: the table alone.
                let table = self.data_table(&file, &hit)?;
                FixedBlocks {
                    data: Some(table),
                    ..FixedBlocks::clone(&hit)
                }
            }
            _ => self.fetch_fixed(bin, data)?,
        };
        let fixed = Arc::new(fixed);
        self.publish(key, CachedBlock::Fixed(Arc::clone(&fixed)));
        Ok(fixed)
    }

    /// Read, verify and parse `bin`'s fixed blocks. The bin's summaries,
    /// from the store's meta, give every bitmap's and unit part's table
    /// row and so the tables' sizes: the header and the tables come in
    /// one read from the file's front, the tables are checked against
    /// their own CRCs, and the header — read ahead of the table that
    /// vouches for it — against the index table.
    fn fetch_fixed(&mut self, bin: usize, data: bool) -> Result<FixedBlocks> {
        // The geometry must be the store's: every rank and part index
        // the engine uses comes from the plan.
        let store = self.store;
        let geometry = (store.grid().num_chunks(), store.config().num_parts());
        let file = self.bin_file(bin);
        let summaries = store.summaries().bin(bin);
        let rows = Rows::derive(&summaries, geometry.1, store.config().level_order);
        let tables = rows.tables();
        let (index_span, data_span) = (tables.index_span(), tables.data_span());
        let end = data_span.0 + if data { data_span.1 } else { 0 };
        let raw = self.read_fixed(&file, 0, end)?;
        let at = |(off, len): (u64, u64)| &raw[off as usize..(off + len) as usize];
        let footer = tables.decode_index(at(index_span), &file)?;
        self.report.index_bytes += index_span.1;
        let data = if data {
            let table = tables.decode_data(at(data_span), &footer, &file)?;
            self.report.data_bytes += data_span.1;
            Some(Arc::new(table))
        } else {
            None
        };
        self.admit(&file, &footer, 0, &raw[..HEADER_LEN as usize])?;
        check_header(&raw, geometry)?;
        Ok(FixedBlocks {
            footer: Arc::new(footer),
            data,
            rows,
        })
    }

    /// Read `len` bytes of `file`'s fixed blocks from `off`.
    fn read_fixed(&mut self, file: &Arc<str>, off: u64, len: u64) -> Result<Vec<u8>> {
        let read = self.io.read(Arc::clone(file), off, len);
        read.map_err(|e| stored_extent(e.into(), file, off, len))
    }

    /// Verify index bytes read ahead at `off` against their file's
    /// `footer`; only then are they counted.
    fn admit(&mut self, file: &str, footer: &ExtentFooter, off: u64, raw: &[u8]) -> Result<()> {
        footer.verify_timed(file, off, raw, self.verify_s.as_mut())?;
        self.report.index_bytes += raw.len() as u64;
        Ok(())
    }

    /// Read the data table of `fixed`'s file alone, for an entry cached
    /// without it. A table that fails its own CRC is a hard error.
    fn data_table(&mut self, file: &Arc<str>, fixed: &FixedBlocks) -> Result<Arc<ExtentFooter>> {
        let tables = fixed.tables();
        let (at, len) = tables.data_span();
        let raw = self.read_fixed(file, at, len)?;
        let table = tables.decode_data(&raw, &fixed.footer, file)?;
        self.report.data_bytes += len;
        Ok(Arc::new(table))
    }

    /// Fetch a want-list of bitmaps from one file, handing `sink` each
    /// want's index and where its run list is: cache hits first, in want
    /// order (traced at zero cost), then the misses, in want order, as
    /// [`Self::read`] gets them, each decoded into `local` and admitted
    /// ([`Self::admit_runs`]). Failures are per want; the sink decides
    /// which are fatal by returning them.
    pub fn wants(
        &mut self,
        file: &Arc<str>,
        wants: &[Want],
        footer: Option<&ExtentFooter>,
        local: &mut RunListBuf,
        mut sink: impl FnMut(usize, Result<UnitRuns>) -> Result<()>,
    ) -> Result<()> {
        let mut missed: Vec<usize> = Vec::new();
        for (i, want) in wants.iter().enumerate() {
            match self.probe(&want.key) {
                Some(CachedBlock::Runs(runs)) => {
                    self.served(file, want.offset, u64::from(want.len));
                    sink(i, Ok(UnitRuns::Cached(runs)))?;
                }
                _ => missed.push(i),
            }
        }
        if missed.is_empty() {
            return Ok(());
        }
        let extents: Vec<(u64, u32)> = missed
            .iter()
            .map(|&i| (wants[i].offset, wants[i].len))
            .collect();
        let reads = self.read(file, &extents, footer, true);
        for (i, got) in missed.into_iter().zip(reads) {
            let runs = got.and_then(|view| self.admit_runs(file, &wants[i], &view, local));
            sink(i, runs)?;
        }
        Ok(())
    }

    /// Take a verified bitmap extent into `local` as its chunk's run
    /// list, after one validating walk against its summary count: as
    /// many set bits as the unit has points, inside its chunk, one
    /// encoding of them ([`RunListBuf::push_stored`]). Only then is it
    /// offered to the cache, as a run list of its own. An extent the
    /// walk refuses holds positions no walk can trust: it fails as a
    /// corrupt extent, as `verify` names it.
    fn admit_runs(
        &mut self,
        file: &str,
        want: &Want,
        extent: &[u8],
        local: &mut RunListBuf,
    ) -> Result<UnitRuns> {
        let cell = self.store.order().cell_at(want.key.chunk_rank as usize);
        let points = self.store.grid().chunk_points(cell) as u64;
        let at = local
            .push_stored(extent, u64::from(want.count), points)
            .map_err(|e| refused_runs(file, (want.offset, want.len), e, want.count, points))?;
        if let Some(runs) = local.get(at).filter(|_| self.caches()) {
            let list = CachedBlock::Runs(Arc::new(runs.to_list()));
            self.publish(want.key.clone(), list);
        }
        Ok(UnitRuns::Local(at))
    }

    /// Read `extents` — `(offset, stored length)` — of one file,
    /// coalesced into as few physical reads as possible or fused with a
    /// concurrent session's: each outcome, in extent order, a verified
    /// view into the merged extent with no per-extent copy. Counted as
    /// index bytes when `index`, else as data bytes. Nothing is probed
    /// or offered to the cache.
    pub fn read(
        &mut self,
        file: &Arc<str>,
        extents: &[(u64, u32)],
        footer: Option<&ExtentFooter>,
        index: bool,
    ) -> Vec<Result<ByteView>> {
        if extents.is_empty() {
            return Vec::new();
        }
        let reads = coalesced_read_results(
            &mut self.io,
            file,
            extents,
            footer,
            self.store.fuser().map(Arc::as_ref),
            self.verify_s.as_mut(),
        );
        let report = &mut self.report;
        let counted = if index {
            &mut report.index_bytes
        } else {
            &mut report.data_bytes
        };
        reads
            .into_iter()
            .zip(extents)
            .map(|(read, &(off, len))| {
                let len = u64::from(len);
                if read.res.is_ok() {
                    if read.fused {
                        report.fused_reads += 1;
                        report.fused_bytes += len;
                    } else {
                        *counted += len;
                    }
                }
                read.res.map_err(|e| stored_extent(e, file, off, len))
            })
            .collect()
    }

    /// Close the rank's I/O: the full report with the read trace.
    pub fn finish(self) -> FetchReport {
        let mut r = self.report;
        r.retries = self.io.retries();
        r.retry_wait_s = self.io.retry_wait_s();
        r.batch_depths = self.io.batch_depths().to_vec();
        r.trace = self.io.into_trace();
        r
    }
}

/// A failed read of the stored extent `[off, off + len)` of `file`: one
/// past the end of a torn file is named as `verify` names it.
fn stored_extent(e: MlocError, file: &str, off: u64, len: u64) -> MlocError {
    match e {
        MlocError::Pfs(PfsError::OutOfBounds { .. }) => {
            corrupt_extent(file, off, len, "extent past end of file (torn write?)")
        }
        e => e,
    }
}

#[cfg(test)]
mod tests {
    use super::super::Decoder;
    use super::*;
    use crate::binfile::Tables;
    use crate::build::build_variable;
    use crate::cache::BlockCache;
    use crate::config::MlocConfig;
    use crate::fusion::ExtentFuser;
    use mloc_pfs::{MemBackend, ReadOp, StorageBackend};

    const BIN: usize = 1;

    /// CRC-32 of [`fill_then_values`]'s text (format v7: the summaries
    /// in the meta, every bin's fixed blocks one read, no unit planned
    /// that cannot hold a hit, and unit parts that are bare payloads).
    const PARITY_DIGEST: u32 = 0xBACE_E02A;

    /// The field and geometry the fetch tests build: 64², 16² chunks (a
    /// 4 × 4 grid), 4 bins, PLoD byte columns.
    fn build(be: &MemBackend) {
        let values: Vec<f64> = (0..4096).map(|i| ((i * 37) % 4096) as f64 * 0.25).collect();
        let config = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .num_bins(4)
            .build();
        build_variable(be, "ds", "v", &values, &config).unwrap();
    }

    /// Bin `BIN`'s fixed blocks with both tables, fetched through a
    /// store and a fetcher of their own so they stay out of `store`'s
    /// cache and out of any report.
    fn fixed_of(store: &MlocStore<'_>) -> Arc<FixedBlocks> {
        let store = MlocStore::open(store.backend(), store.dataset(), store.var()).unwrap();
        let mut g = Fetcher::new(&store, RetryPolicy::none(), false);
        g.fixed(BIN, true).unwrap()
    }

    /// Where bin `BIN`'s tables are.
    fn tables_of(store: &MlocStore<'_>) -> Tables {
        fixed_of(store).tables()
    }

    /// Bin `bin` of `store`, a whole file in `be`, parsed in place.
    fn located_in(store: &MlocStore<'_>, raw: &[u8], bin: usize) -> FixedBlocks {
        store.parse_fixed(bin, raw).unwrap()
    }

    /// The bin whose file is `file`.
    fn bin_of(store: &MlocStore<'_>, file: &str) -> usize {
        let bins = 0..store.config().num_bins;
        bins.into_iter()
            .find(|&bin| &**store.bin_file(bin) == file)
            .unwrap()
    }

    /// Fetch the block `part` of chunk rank `r` through the operation
    /// the engine uses for its kind; returns the fetcher's report.
    /// `Fixed` is the bin's fixed blocks as a positions-only query
    /// needs them (no data table); `PlodUnit` is the unit's part 0,
    /// served by its unit block or read, decoded and published as one.
    fn fetch(store: &MlocStore<'_>, fixed: &FixedBlocks, r: usize, part: BlockPart) -> FetchReport {
        let mut f = Fetcher::new(store, RetryPolicy::none(), false);
        let file = f.bin_file(BIN);
        let key = f.key(BIN, r, part);
        let data_table = fixed.data.as_deref().unwrap();
        match part {
            BlockPart::Fixed => drop(f.fixed(BIN, false).unwrap()),
            BlockPart::Bitmap => {
                let (offset, len) = fixed.bitmap(r).unwrap();
                let want = Want {
                    key,
                    offset,
                    len,
                    count: store.summaries().get(BIN, r).count,
                };
                let mut local = RunListBuf::new();
                f.wants(&file, &[want], Some(&fixed.footer), &mut local, |_, got| {
                    got.map(drop)
                })
                .unwrap();
            }
            BlockPart::PlodUnit => {
                let count = store.summaries().get(BIN, r).count as usize;
                let loc = fixed.unit(r, 0).unwrap();
                match f.unit_block(BIN, r, count) {
                    Some(block) if block.parts() > 0 => {
                        f.served(&file, loc.offset, u64::from(loc.clen))
                    }
                    _ => {
                        let extent = (loc.offset, loc.clen);
                        let raw = f.read(&file, &[extent], Some(data_table), false);
                        let raw = raw.into_iter().next().unwrap().unwrap();
                        let mut decoder = Decoder::new(store.config().codec);
                        let part = decoder.part(raw, 0, count).unwrap();
                        let block = decoder.prefix(&[&part]);
                        f.publish_unit(BIN, r, block);
                    }
                }
            }
            BlockPart::Floats | BlockPart::PlodPart(_) => {
                unreachable!("not a block the engine keys")
            }
        }
        f.finish()
    }

    /// The logical footprint of a report, and the file span its trace
    /// covers with whether the simulator is charged for it.
    fn shape(r: &FetchReport) -> (u64, String, u64, u64, bool) {
        let footprint = r.index_bytes + r.data_bytes + r.bytes_saved + r.fused_bytes;
        let off = r.trace.iter().map(|op| op.offset).min().unwrap();
        let len = r.trace.iter().map(|op| op.len).sum();
        assert!(r.trace.iter().all(|op| op.file == r.trace[0].file));
        let charged = r.trace.iter().any(|op| !op.cached);
        assert_eq!(charged, r.trace.iter().all(|op| !op.cached));
        (footprint, r.trace[0].file.to_string(), off, len, charged)
    }

    #[test]
    fn every_block_kind_has_one_footprint_cold_warm_and_fused() {
        let be = MemBackend::new();
        build(&be);
        let open = || MlocStore::open(&be, "ds", "v").unwrap();
        let plain = open();

        // Locate the extents from the fixed blocks themselves.
        let file = plain.bin_file(BIN);
        let index = fixed_of(&plain);
        let summaries = plain.summaries().bin(BIN);
        // A partial chunk: it has a bitmap to read and a data unit.
        let r = (0..summaries.num_chunks())
            .find(|&r| summaries.count(r) > 0 && !summaries.get(r).all_of_chunk)
            .expect("a partially covered chunk");
        let part0 = index.unit(r, 0).unwrap();
        // Header and index table: one span from the front.
        let (table_at, table_len) = index.tables().index_span();
        // A bitmap is cached as the run list it is stored as, charged
        // its stored bytes.
        let (bitmap_at, bitmap_len) = index.bitmap(r).unwrap();
        let bitmap_len = u64::from(bitmap_len);
        // (part, offset, stored length, coalesced, cache charge)
        let table: [(BlockPart, u64, u64, bool, u64); 3] = [
            (
                BlockPart::Fixed,
                0,
                table_at + table_len,
                false,
                table_at + table_len,
            ),
            (BlockPart::Bitmap, bitmap_at, bitmap_len, true, bitmap_len),
            (
                BlockPart::PlodUnit,
                part0.offset,
                u64::from(part0.clen),
                true,
                crate::plod::part_range(summaries.count(r) as usize, 0).len() as u64,
            ),
        ];

        for (part, off, len, coalesced, charge) in table {
            let want = |charged: bool| (len, file.to_string(), off, len, charged);
            let cold = fetch(&plain, &index, r, part);
            assert_eq!(shape(&cold), want(true), "{part:?} cold");
            assert_eq!(cold.cache_misses + cold.cache_hits + cold.fused_reads, 0);

            let cache = Arc::new(BlockCache::with_budget_mb(8));
            let cached = open().with_cache(Arc::clone(&cache));
            let fill = fetch(&cached, &index, r, part);
            assert_eq!(shape(&fill), want(true), "{part:?} cache fill");
            assert_eq!(cache.stats().resident_bytes, charge, "{part:?} charge");
            let warm = fetch(&cached, &index, r, part);
            assert_eq!(shape(&warm), want(false), "{part:?} warm");
            assert_eq!((warm.cache_hits, warm.bytes_saved), (1, len));

            // Single extents bypass the fuser; want-lists share reads.
            let fuser = Arc::new(ExtentFuser::with_window_mb(8));
            let fusing = open().with_fusion(Arc::clone(&fuser));
            fuser.begin_window();
            let lead = fetch(&fusing, &index, r, part);
            assert_eq!(shape(&lead), want(true), "{part:?} fusion leader");
            let follow = fetch(&fusing, &index, r, part);
            assert_eq!(shape(&follow), want(!coalesced), "{part:?} fusion follower");
            assert_eq!(follow.fused_reads, u64::from(coalesced));
            assert_eq!(follow.fused_bytes, if coalesced { len } else { 0 });
        }
    }

    /// The part count `k` of every unit prefix `cache` holds of the
    /// fixture's store, by `(bin, chunk rank)`.
    fn prefixes(
        store: &MlocStore<'_>,
        cache: &BlockCache,
    ) -> std::collections::BTreeMap<(usize, usize), usize> {
        let mut held = std::collections::BTreeMap::new();
        for bin in 0..store.config().num_bins {
            let summaries = store.summaries().bin(bin);
            for r in 0..summaries.num_chunks() {
                let key = Fetcher::new(store, RetryPolicy::none(), false).unit_key(bin, r);
                if let Some(CachedBlock::Bytes(b)) = cache.get(&key) {
                    let count = summaries.count(r) as usize;
                    held.insert((bin, r), crate::plod::prefix_parts(count, b.len()).unwrap());
                }
            }
        }
        held
    }

    /// A unit's cached prefix only grows: a level-2 query caches parts
    /// 0..2, a full query after it reads parts 2..7 and no more and
    /// replaces the block with all seven, and a level-3 query then
    /// reads nothing and publishes nothing. Each unit stays one probe.
    #[test]
    fn a_units_cached_prefix_only_grows() {
        use crate::array::Region;
        use crate::config::PlodLevel;
        use crate::query::Query;
        let be = MemBackend::new();
        build(&be);
        let plain = MlocStore::open(&be, "ds", "v").unwrap();
        let cache = Arc::new(BlockCache::with_budget_mb(8));
        let store = MlocStore::open(&be, "ds", "v")
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let region = Region::new(vec![(10, 40), (20, 30)]);
        let at = |level| Query::values_in(region.clone()).with_plod(PlodLevel::new(level).unwrap());
        let run = |s: &MlocStore<'_>, level| s.query_with_metrics(&at(level)).unwrap().1;
        let all_at = |k: usize| {
            let held = prefixes(&store, &cache);
            assert!(
                !held.is_empty() && held.values().all(|&n| n == k),
                "{held:?}"
            );
            held.len() as u64
        };

        let level2 = run(&store, 2);
        assert_eq!(level2.data_bytes, run(&plain, 2).data_bytes);
        let units = all_at(2);
        let full = run(&store, 7);
        assert_eq!(
            full.data_bytes,
            run(&plain, 7).data_bytes - level2.data_bytes,
            "only parts 2..7 are read"
        );
        assert_eq!(all_at(7), units);

        let inserted = cache.stats().insertions;
        let level3 = run(&store, 3);
        assert_eq!((level3.bytes_read, level3.cache_misses), (0, 0));
        assert_eq!(cache.stats().insertions, inserted, "nothing shorter");
        assert_eq!(all_at(7), units);
        // One probe per data unit, next to the bins' fixed blocks and
        // bitmaps: the level-3 query hits exactly as often as the
        // level-2 query missed.
        assert_eq!(level3.cache_hits, level2.cache_misses);
    }

    /// A ladder grows the prefix one part a pull: step 0 caches part 0,
    /// each pull reads its part past the cached block and publishes the
    /// block one part longer. A second ladder is served by the blocks.
    #[test]
    fn a_refinement_pull_extends_the_prefix_it_ends() {
        use crate::array::Region;
        use crate::query::Query;
        let be = MemBackend::new();
        build(&be);
        let cache = Arc::new(BlockCache::with_budget_mb(8));
        let store = MlocStore::open(&be, "ds", "v")
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let q = Query::values_in(Region::new(vec![(5, 50), (20, 30)]));
        let all_at = |k: usize| {
            let held = prefixes(&store, &cache);
            assert!(
                !held.is_empty() && held.values().all(|&n| n == k),
                "{held:?}"
            );
        };
        let mut ladder = store.query_progressive(&q).unwrap();
        all_at(1);
        for k in 2..=7 {
            let step = ladder.next_refinement().unwrap().unwrap();
            assert!(step.bytes_read > 0 && step.bytes_saved == 0, "{step:?}");
            all_at(k);
        }
        let inserted = cache.stats().insertions;
        let mut again = store.query_progressive(&q).unwrap();
        again.run_to_completion().unwrap();
        assert!(again.steps().iter().all(|s| s.bytes_read == 0));
        assert_eq!(again.result(), ladder.result());
        assert_eq!(cache.stats().insertions, inserted);
    }

    /// With every block over a shard's budget, each miss's one publish
    /// — a fixed block, a bitmap, a unit's prefix — is turned away and
    /// counted, and a second run reads exactly what the first did.
    #[test]
    fn blocks_over_the_shard_budget_are_counted_rejected() {
        use super::super::{process_units, RankJob};
        use crate::array::Region;
        use crate::exec::ExecRequest;
        use crate::query::plan::make_plan;
        use crate::query::Query;
        let be = MemBackend::new();
        build(&be);
        let cache = Arc::new(BlockCache::with_budget_bytes(
            crate::cache::NUM_SHARDS as u64,
        ));
        let store = MlocStore::open(&be, "ds", "v")
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let query = Query::values_in(Region::new(vec![(10, 40), (20, 30)]));
        let plan = make_plan(&store, &query).unwrap();
        let run = || {
            let job = RankJob {
                store: &store,
                req: ExecRequest::planned(&query, &plan, None),
                units: &plan.units,
                retry: RetryPolicy::none(),
                allow_degraded: false,
            };
            process_units(&job, &mut Collector::disabled()).unwrap().io
        };
        let (first, second) = (run(), run());
        assert!(first.cache_rejected > 0);
        assert_eq!(first.cache_rejected, first.cache_misses);
        assert_eq!(first.cache_hits, 0);
        assert_eq!(
            (second.cache_rejected, second.data_bytes, second.trace.len()),
            (first.cache_rejected, first.data_bytes, first.trace.len())
        );
        assert_eq!(cache.stats().insertions, 0);
    }

    /// A unit whose part 3 is damaged degrades to level 3 and publishes
    /// parts 0..3 only; the other units publish all seven.
    #[test]
    fn a_degraded_unit_publishes_the_parts_before_its_loss() {
        use crate::query::Query;
        let be = MemBackend::new();
        build(&be);
        let file = Arc::clone(MlocStore::open(&be, "ds", "v").unwrap().bin_file(BIN));
        let mut raw = be.read(&file, 0, be.len(&file).unwrap()).unwrap();
        let store = MlocStore::open(&be, "ds", "v").unwrap();
        let index = located_in(&store, &raw, BIN);
        let summaries = store.summaries().bin(BIN);
        let r = (0..summaries.num_chunks())
            .find(|&r| summaries.count(r) > 0)
            .unwrap();
        let at = index.unit(r, 3).unwrap().offset as usize;
        raw[at] ^= 0x40;
        be.create(&file).unwrap();
        be.append(&file, &raw).unwrap();

        let cache = Arc::new(BlockCache::with_budget_mb(8));
        let store = MlocStore::open(&be, "ds", "v")
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let q = Query::values_where(f64::MIN, f64::MAX);
        let exec = crate::ParallelExecutor::serial().allow_degraded(true);
        let out = exec.run(&store, crate::ExecRequest::new(&q)).unwrap();
        assert_eq!(out.metrics.degraded_units, 1);
        let held = prefixes(&store, &cache);
        assert_eq!(held.get(&(BIN, r)), Some(&3));
        assert!(held.iter().all(|(&unit, &k)| k == 7 || unit == (BIN, r)));
    }

    /// The header and both tables come in one read from the front when
    /// nothing is cached; a cached entry without the data table gets the
    /// data table alone, and is replaced by the longer entry; a warm
    /// fetch replays each block it serves as a record of its own. A
    /// damaged table fails the fetch and admits nothing.
    #[test]
    fn tables_are_one_read_and_admitted_together() {
        let be = MemBackend::new();
        build(&be);
        let cache = Arc::new(BlockCache::with_budget_mb(8));
        let store = MlocStore::open(&be, "ds", "v")
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let tables = tables_of(&MlocStore::open(&be, "ds", "v").unwrap());
        let (index_span, data_span) = (tables.index_span(), tables.data_span());
        assert_eq!(index_span.0, HEADER_LEN, "the tables follow the header");
        let (index_end, data_end) = (data_span.0, data_span.0 + data_span.1);
        let run = |store: &MlocStore<'_>, data: bool| {
            let mut f = Fetcher::new(store, RetryPolicy::none(), false);
            f.fixed(BIN, data).unwrap();
            let r = f.finish();
            let ops: Vec<(u64, u64, bool)> = r
                .trace
                .iter()
                .map(|op| (op.offset, op.len, op.cached))
                .collect();
            (
                ops,
                r.index_bytes,
                r.data_bytes,
                r.cache_hits,
                r.cache_misses,
            )
        };
        // The index table alone (a positions-only query), then both:
        // the entry is a hit, and the data table is read alone.
        let want = vec![(0, index_end, false)];
        assert_eq!(run(&store, false), (want, index_end, 0, 0, 1));
        let served = vec![(0, HEADER_LEN, true), (index_span.0, index_span.1, true)];
        let mut want = served.clone();
        want.push((data_span.0, data_span.1, false));
        assert_eq!(run(&store, true), (want, 0, data_span.1, 1, 0));
        // The longer entry serves both, block by block.
        let mut want = served.clone();
        want.push((data_span.0, data_span.1, true));
        assert_eq!(run(&store, true), (want, 0, 0, 1, 0));
        assert_eq!(run(&store, false), (served, 0, 0, 1, 0));
        assert_eq!(cache.stats().resident_bytes, data_end);

        // Cold, both: one read of the header and the two tables.
        let plain = MlocStore::open(&be, "ds", "v").unwrap();
        let want = vec![(0, data_end, false)];
        assert_eq!(run(&plain, true), (want, index_end, data_span.1, 0, 0));

        // A damaged data table fails the fetch and admits nothing.
        let file = store.bin_file(BIN);
        let mut raw = be.read(file, 0, be.len(file).unwrap()).unwrap();
        raw[data_span.0 as usize] ^= 0x01;
        be.create(file).unwrap();
        be.append(file, &raw).unwrap();
        let cache = Arc::new(BlockCache::with_budget_mb(8));
        let store = MlocStore::open(&be, "ds", "v")
            .unwrap()
            .with_cache(Arc::clone(&cache));
        let mut f = Fetcher::new(&store, RetryPolicy::none(), false);
        let err = f.fixed(BIN, true).unwrap_err();
        assert!(err.to_string().contains("checksum table corrupt"), "{err}");
        assert!(cache.get(&f.key(BIN, 0, BlockPart::Fixed)).is_none());
        assert_eq!(cache.stats().insertions, 0);
    }

    /// A cold values query on one rank: each bin file is opened once,
    /// nothing past its last unit is read, and its fixed blocks —
    /// header and both tables — come in its first read, with one seek.
    #[test]
    fn a_cold_values_query_opens_each_bin_file_once_and_seeks_once_for_its_fixed_blocks() {
        use crate::binfile::END_LEN;
        use crate::query::Query;
        use mloc_pfs::{simulate_reads, CostModel};
        let be = MemBackend::new();
        build(&be);
        let store = MlocStore::open(&be, "ds", "v").unwrap();
        let q = Query::values_where(f64::MIN, f64::MAX);
        let out = crate::ParallelExecutor::serial()
            .run(&store, crate::ExecRequest::new(&q))
            .unwrap();
        let trace = &out.traces[0];
        let model = CostModel::default();
        let files: std::collections::BTreeSet<&str> = trace.iter().map(|op| &*op.file).collect();
        assert_eq!(files.len(), 4, "one file per bin");
        assert_eq!(
            simulate_reads(std::slice::from_ref(trace), &model).total_opens,
            4
        );
        for file in files {
            let ops: Vec<ReadOp> = trace
                .iter()
                .filter(|op| &*op.file == file)
                .cloned()
                .collect();
            let flen = be.len(file).unwrap();
            assert!(
                ops.iter().all(|op| op.offset + op.len <= flen - END_LEN),
                "{file}"
            );
            let raw = be.read(file, 0, flen).unwrap();
            let (data_at, data_len) = located_in(&store, &raw, bin_of(&store, file))
                .tables()
                .data_span();
            assert_eq!((ops[0].offset, ops[0].len), (0, data_at + data_len));
            let sim = simulate_reads(&[ops[..1].to_vec()], &model);
            assert_eq!((sim.total_opens, sim.total_seeks), (1, 1), "{file}");
        }
    }

    /// Every trace record (file, offset, length, cached) and the byte
    /// and `io_s` figures of a positions-only query, then a values
    /// query, then the values query again over the same region behind
    /// one cache, at one rank and at three (where ranks share bins and
    /// the cache), as one text; and the one-rank traces.
    fn fill_then_values(be: &MemBackend) -> (String, Vec<Vec<ReadOp>>) {
        use crate::array::Region;
        use crate::config::PlodLevel;
        use crate::query::{Query, QueryOutput};
        use std::fmt::Write;
        let region = Region::new(vec![(5, 60), (10, 50)]);
        let positions = QueryOutput::Positions;
        let queries = [
            Query::new(None, Some(region.clone()), PlodLevel::FULL, positions),
            Query::values_in(region.clone()),
            Query::values_in(region),
        ];
        let (mut log, mut serial) = (String::new(), Vec::new());
        for ranks in [1, 3] {
            let cache = Arc::new(BlockCache::with_budget_mb(8));
            let store = MlocStore::open(be, "ds", "v").unwrap().with_cache(cache);
            let exec = crate::ParallelExecutor::new(ranks, mloc_pfs::CostModel::default());
            for (i, q) in queries.iter().enumerate() {
                let out = exec.run(&store, crate::ExecRequest::new(q)).unwrap();
                let m = &out.metrics;
                let (read, saved, io) = (m.bytes_read, m.bytes_saved, m.io_s.to_bits());
                writeln!(log, "## {ranks} ranks, query {i}: {read} {saved} {io:x}").unwrap();
                for (r, trace) in out.traces.iter().enumerate() {
                    for op in trace {
                        let (file, off, len) = (&op.file, op.offset, op.len);
                        writeln!(log, "{r} {file} {off} {len} {}", op.cached).unwrap();
                    }
                }
                if ranks == 1 {
                    serial.extend(out.traces);
                }
            }
        }
        (log, serial)
    }

    /// A positions-only query caches each bin's fixed blocks without
    /// the data table. A values query over the same region then gets
    /// the data table, alone, as each bin's one uncached fixed-block
    /// read, and the values query again reads nothing. The whole
    /// record is pinned by a digest captured before a bin's fixed
    /// blocks were one cache entry, and re-captured when each rank of
    /// the three-rank runs began to read its bins' fixed blocks itself
    /// (the one-rank records did not move).
    #[test]
    fn a_positions_query_leaves_each_data_table_to_the_first_values_query() {
        let be = MemBackend::new();
        build(&be);
        let (log, serial) = fill_then_values(&be);
        let store = MlocStore::open(&be, "ds", "v").unwrap();
        let data_table = |file: &str| {
            let raw = be.read(file, 0, be.len(file).unwrap()).unwrap();
            let fixed = located_in(&store, &raw, bin_of(&store, file));
            fixed.tables().data_span()
        };
        let front = |op: &&ReadOp| op.offset < data_table(&op.file).0 + data_table(&op.file).1;
        let [_, values, again] = &serial[..] else {
            panic!("three serial traces")
        };
        let read: Vec<(&str, u64, u64)> = values
            .iter()
            .filter(|op| !op.cached)
            .filter(front)
            .map(|op| (&*op.file, op.offset, op.len))
            .collect();
        let files: std::collections::BTreeSet<&str> = values.iter().map(|op| &*op.file).collect();
        let want: Vec<(&str, u64, u64)> = files
            .into_iter()
            .map(|file| (file, data_table(file).0, data_table(file).1))
            .collect();
        assert_eq!(read, want);
        assert!(again.iter().all(|op| op.cached));
        assert_eq!(
            crate::integrity::crc32(log.as_bytes()),
            PARITY_DIGEST,
            "{log}"
        );
    }

    /// Every bit flip, truncation and one-byte extension of a bin
    /// file's fixed blocks — the header and both tables — fails a
    /// positions query and a values query as a named corrupt extent, or
    /// leaves its answer unchanged. Nothing panics, and no read of the
    /// fixed blocks is sized past the bound their geometry gives them
    /// (the meta's counts size them), so no buffer is either.
    #[test]
    fn every_mutation_of_the_fixed_blocks_is_named_or_harmless() {
        use crate::integrity::table_len;
        use crate::query::{Query, QueryResult};
        use crate::MlocError;
        // 32², 16² chunks: a 2 × 2 grid, 2 bins, PLoD byte columns.
        let be = MemBackend::new();
        let values: Vec<f64> = (0..1024).map(|i| ((i * 37) % 1024) as f64 * 0.25).collect();
        let config = MlocConfig::builder(vec![32, 32])
            .chunk_shape(vec![16, 16])
            .num_bins(2)
            .build();
        build_variable(&be, "ds", "v", &values, &config).unwrap();
        let store = MlocStore::open(&be, "ds", "v").unwrap();
        let file = store.bin_file(1).to_string();
        let raw = be.read(&file, 0, be.len(&file).unwrap()).unwrap();
        let (chunks, parts) = (4u32, 7u32);
        let bound = HEADER_LEN + table_len(1 + chunks) + table_len(chunks * parts);
        let fixed_end = {
            let (at, len) = located_in(&store, &raw, 1).tables().data_span();
            (at + len) as usize
        };
        assert!(fixed_end as u64 <= bound);
        let queries = [
            Query::region(f64::MIN, f64::MAX),
            Query::values_where(f64::MIN, f64::MAX),
        ];
        let want: Vec<QueryResult> = queries
            .iter()
            .map(|q| store.query_serial(q).unwrap())
            .collect();
        let attempt = |bytes: &[u8], ctx: &dyn Fn() -> String| {
            be.create(&file).unwrap();
            be.append(&file, bytes).unwrap();
            let store = MlocStore::open(&be, "ds", "v").unwrap();
            for (q, want) in queries.iter().zip(&want) {
                let exec = crate::ParallelExecutor::serial();
                match exec.run(&store, crate::ExecRequest::new(q)) {
                    Ok(out) => {
                        assert_eq!(&out.result, want, "{}", ctx());
                        let fixed = out.traces[0].iter().filter(|op| op.offset < bound);
                        assert!(fixed.clone().all(|op| op.len <= bound), "{}", ctx());
                    }
                    Err(MlocError::CorruptExtent { file: f, .. }) => assert_eq!(f, file),
                    Err(e) => panic!("{}: {e}", ctx()),
                }
            }
        };
        for cut in 0..fixed_end {
            attempt(&raw[..cut], &|| format!("cut at {cut}"));
        }
        for bit in 0..fixed_end * 8 {
            let mut bad = raw.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            attempt(&bad, &|| format!("flip of bit {bit}"));
        }
        for at in 0..=fixed_end {
            let mut longer = raw.clone();
            longer.insert(at, 0x5A);
            attempt(&longer, &|| format!("byte inserted at {at}"));
        }
    }

    /// The whole observable footprint of a rank's fetches, one line per
    /// trace record and one for the counters.
    fn render(label: &str, r: &FetchReport, out: &mut String) {
        use std::fmt::Write;
        writeln!(out, "## {label}").unwrap();
        for op in &r.trace {
            let how = if op.cached { "cached" } else { "read" };
            writeln!(out, "{} {} {} {how}", op.file, op.offset, op.len).unwrap();
        }
        writeln!(
            out,
            "index_bytes={} data_bytes={} cache_hits={} cache_misses={} bytes_saved={} \
             cache_rejected={} fused_reads={} fused_bytes={} retries={} retry_wait_s={} \
             batch_depths={:?}",
            r.index_bytes,
            r.data_bytes,
            r.cache_hits,
            r.cache_misses,
            r.bytes_saved,
            r.cache_rejected,
            r.fused_reads,
            r.fused_bytes,
            r.retries,
            r.retry_wait_s,
            r.batch_depths,
        )
        .unwrap();
    }

    /// One fixed query's full `(file, offset, len, cached)` sequence
    /// and every counter — cold, cache fill, warm, fusion leader and
    /// follower — and one progressive ladder's captured part
    /// locations, against `fetch_golden.txt`, recorded before the
    /// engine read index blocks through views and shared file names.
    #[test]
    fn one_query_fetches_exactly_what_it_did_before_views() {
        use super::super::{process_units, RankJob, RankOutput};
        use crate::array::Region;
        use crate::config::PlodLevel;
        use crate::exec::ExecRequest;
        use crate::query::plan::make_plan;
        use crate::query::Query;
        use std::fmt::Write;

        let be = MemBackend::new();
        build(&be);
        let open = || MlocStore::open(&be, "ds", "v").unwrap();
        let run = |store: &MlocStore<'_>, query: &Query, capture: bool| -> RankOutput {
            let plan = make_plan(store, query).unwrap();
            let mut req = ExecRequest::planned(query, &plan, None);
            req.capture_refine = capture;
            let job = RankJob {
                store,
                req,
                units: &plan.units,
                retry: RetryPolicy::none(),
                allow_degraded: false,
            };
            process_units(&job, &mut Collector::disabled()).unwrap()
        };
        // Two chunks of the 4 x 4 grid, both straddling the region.
        let query = Query::values_in(Region::new(vec![(10, 20), (20, 30)]));
        let mut got = String::new();

        render("cold", &run(&open(), &query, false).io, &mut got);
        let cached = open().with_cache(Arc::new(BlockCache::with_budget_mb(8)));
        render("cache fill", &run(&cached, &query, false).io, &mut got);
        render("warm", &run(&cached, &query, false).io, &mut got);
        let fuser = Arc::new(ExtentFuser::with_window_mb(8));
        let fusing = open().with_fusion(Arc::clone(&fuser));
        fuser.begin_window();
        render("fusion leader", &run(&fusing, &query, false).io, &mut got);
        render("fusion follower", &run(&fusing, &query, false).io, &mut got);

        // Step 0 of a progressive ladder over the same region.
        let base = query.clone().with_plod(PlodLevel::new(1).unwrap());
        let step0 = run(&open(), &base, true);
        render("ladder step 0", &step0.io, &mut got);
        writeln!(got, "## ladder part locations").unwrap();
        for u in &step0.refine.units {
            write!(
                got,
                "bin {} chunk {} count {}:",
                u.bin, u.chunk_rank, u.count
            )
            .unwrap();
            let parts = (0..7).filter_map(|p| u.fixed.unit(u.chunk_rank, p));
            for loc in parts {
                write!(got, " {}+{}", loc.offset, loc.clen).unwrap();
            }
            writeln!(got).unwrap();
        }
        assert_eq!(got, include_str!("fetch_golden.txt"));
    }
}
