//! Stage 1 — fetch: every stored byte a rank touches enters through
//! a [`Fetcher`], so a cache hit, a fused want and a physical read of
//! the same extent are traced, verified and counted in one place.
//! Three operations: a file's checksum footer ([`Fetcher::footer`],
//! one read of exactly the file's tail), one keyed extent
//! ([`Fetcher::hold`] then [`Fetcher::admit`]: the index header and
//! summary are read *before* the footer that vouches for them, and
//! reach the cache and the caller only through `admit`), and a
//! coalesced want-list ([`Fetcher::wants`]). A block a peer rank
//! fetched for the whole query enters through [`Fetcher::peer`].

use crate::cache::{BlockKey, BlockPart, ByteView, CachedBlock};
use crate::fusion::coalesced_read_results;
use crate::integrity::{corrupt_extent, ExtentFooter, TRAILER_LEN};
use crate::store::MlocStore;
use crate::Result;
use mloc_obs::Collector;
use mloc_pfs::{RankIo, ReadOp, RetryPolicy};
use std::sync::Arc;

/// What one rank's fetches cost, by where the bytes came from.
#[derive(Debug, Clone, Default)]
pub struct FetchReport {
    /// Bytes read from index files.
    pub index_bytes: u64,
    /// Bytes read from data files.
    pub data_bytes: u64,
    /// Block-cache hits (0 without a cache).
    pub cache_hits: u64,
    /// Block-cache misses (0 without a cache).
    pub cache_misses: u64,
    /// Compressed bytes served from the cache instead of the PFS.
    pub bytes_saved: u64,
    /// Cache inserts the budget turned away.
    pub cache_rejected: u64,
    /// Wants served by another session's physical read through the
    /// extent fuser, and fixed blocks taken from the peer rank that
    /// fetched them for the query (0 without fusion on one rank).
    pub fused_reads: u64,
    /// Bytes of those fused wants — kept off the PFS and excluded from
    /// `index_bytes`/`data_bytes`, like cache-served bytes.
    pub fused_bytes: u64,
    /// Hinted footer fetches whose hint was wrong: the tail read
    /// started past the footer and a second read fetched the missing
    /// front (0 on well-formed files).
    pub footer_topups: u64,
    /// Transient-read retries performed.
    pub retries: u64,
    /// Simulated backoff seconds accumulated by those retries.
    pub retry_wait_s: f64,
    /// Reads abandoned because the retry backoff budget ran out.
    pub retries_exhausted: u64,
    /// Every logical read in issue order; the PFS simulator prices it.
    pub trace: Vec<ReadOp>,
    /// Request counts of the submitted read batches, in order.
    pub batch_depths: Vec<u64>,
}

/// One keyed extent of a coalesced want-list: the cache key of the
/// block it holds, its byte offset in the file, and its stored length.
pub(crate) type Want = (BlockKey, u64, u32);

/// How a want was served.
pub(crate) enum Fetched {
    /// By the block cache, in its cached (decoded) form.
    Cached(CachedBlock),
    /// As verified stored bytes, off the PFS or a fused read.
    Raw(ByteView),
}

impl Fetched {
    /// The block's bytes, for index blocks (whose stored and cached
    /// forms coincide).
    pub fn into_bytes(self) -> Option<ByteView> {
        match self {
            Fetched::Cached(CachedBlock::Bytes(b)) | Fetched::Raw(b) => Some(b),
            Fetched::Cached(_) => None,
        }
    }
}

/// An index extent in hand but not yet admitted: read ahead of the
/// footer that will vouch for it (or served, already verified, by the
/// cache). Nothing may be decided from its bytes except where to look
/// for that footer.
pub(crate) struct Held {
    key: BlockKey,
    off: u64,
    raw: ByteView,
    /// A cache hit: verified when it was admitted the first time.
    verified: bool,
}

impl Held {
    /// The bytes, for the one use allowed before [`Fetcher::admit`]:
    /// computing a footer hint.
    pub fn unverified(&self) -> &ByteView {
        &self.raw
    }
}

/// Index-file blocks are stored uncompressed, so the bytes read *are*
/// the cached form and count as index bytes; data-file blocks count
/// as data bytes and are cached only once decoded.
fn is_index(part: BlockPart) -> bool {
    match part {
        BlockPart::IndexHeader | BlockPart::Summary | BlockPart::Bitmap => true,
        BlockPart::Footer(which) => which == 0,
        BlockPart::Floats | BlockPart::PlodPart(_) => false,
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

    /// Name of a bin's index file. A rank visits each bin once, so
    /// this is the one allocation of the name on the rank: every
    /// request, retry and trace record of the file clones the pointer.
    pub fn index_file(&self, bin: usize) -> Arc<str> {
        Arc::from(self.store.index_file(bin))
    }

    /// Name of a bin's data file (see [`Self::index_file`]).
    pub fn data_file(&self, bin: usize) -> Arc<str> {
        Arc::from(self.store.data_file(bin))
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

    /// Probe the cache. A block of the wrong kind for its key is a
    /// miss, never a wrong answer.
    fn probe(&mut self, key: &BlockKey) -> Option<CachedBlock> {
        let cache = self.store.cache()?;
        let block = cache.get(key).filter(|b| match key.part {
            BlockPart::Footer(_) => b.as_footer().is_some(),
            BlockPart::Floats => b.as_floats().is_some(),
            _ => b.as_bytes().is_some(),
        });
        if block.is_none() {
            self.report.cache_misses += 1;
        }
        block
    }

    /// Account a cache hit on `[off, off + len)`: the extent stays
    /// visible in the trace (flagged cached) at zero simulated cost.
    fn hit(&mut self, file: &Arc<str>, off: u64, len: u64) {
        self.io.record_cached(Arc::clone(file), off, len);
        self.report.cache_hits += 1;
        self.report.bytes_saved += len;
    }

    fn count_read(&mut self, part: BlockPart, len: u64) {
        if is_index(part) {
            self.report.index_bytes += len;
        } else {
            self.report.data_bytes += len;
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

    /// Get one keyed extent `[off, off + len)` of an index file
    /// (header, summary) without checking it: a cache probe, else one
    /// sequential read. Single extents bypass the fuser.
    pub fn hold(&mut self, file: &Arc<str>, key: BlockKey, (off, len): (u64, u64)) -> Result<Held> {
        let (raw, verified) = match self.probe(&key) {
            Some(CachedBlock::Bytes(b)) => {
                self.hit(file, off, len);
                (b, true)
            }
            _ => {
                let raw = self.io.read(Arc::clone(file), off, len)?;
                (ByteView::new(Arc::new(raw)), false)
            }
        };
        Ok(Held {
            key,
            off,
            raw,
            verified,
        })
    }

    /// Verify a held extent against its file's `footer`; only then is
    /// it counted, offered to the cache and handed out.
    pub fn admit(
        &mut self,
        file: &Arc<str>,
        held: Held,
        footer: &ExtentFooter,
    ) -> Result<ByteView> {
        if !held.verified {
            footer.verify_timed(file, held.off, &held.raw, self.verify_s.as_mut())?;
            self.count_read(held.key.part, held.raw.len() as u64);
            self.publish(held.key, CachedBlock::Bytes(held.raw.clone()));
        }
        Ok(held.raw)
    }

    /// Account a fixed block `[off, off + len)` taken from the peer
    /// rank that fetched and verified it for the whole query: like a
    /// fused want it is kept off the PFS, and its trace record makes
    /// the simulator wait for the peer's own access.
    pub fn peer(&mut self, file: &Arc<str>, off: u64, len: u64) {
        self.io.record_peer(Arc::clone(file), off, len);
        self.report.fused_reads += 1;
        self.report.fused_bytes += len;
    }

    /// Fetch a file's per-extent checksum footer.
    ///
    /// Cold: one untraced `len()` and one traced read from `hint()` —
    /// the offset at which the caller expects the footer to start — to
    /// the end of the file. The trailer at the end of that read states
    /// the true geometry: a read that started early is sliced, one that
    /// started late is topped up by a second read of the missing front,
    /// and with no hint the first read is the trailer alone, so the
    /// top-up is the table. A hint computed from the file's own
    /// directory is exact: one record of [`ExtentFooter::encoded_len`]
    /// bytes at `payload_len`, which is what the warm (cached) record
    /// says too. A footer that cannot be loaded or fails its own CRC is
    /// always a hard error: without it nothing in the file can be
    /// trusted.
    pub fn footer(
        &mut self,
        file: &Arc<str>,
        key: BlockKey,
        hint: impl FnOnce() -> Option<u64>,
    ) -> Result<Arc<ExtentFooter>> {
        if let Some(CachedBlock::Footer(f)) = self.probe(&key) {
            self.hit(file, f.payload_len(), f.encoded_len());
            return Ok(f);
        }
        let flen = self.io.backend().len(file)?;
        if flen < TRAILER_LEN {
            return Err(corrupt_extent(
                file,
                0,
                flen,
                "file shorter than footer trailer",
            ));
        }
        // Wherever the hint points, the read holds the trailer.
        let hint = hint();
        let start = hint.map_or(flen - TRAILER_LEN, |h| h.min(flen - TRAILER_LEN));
        let mut tail = self.io.read(Arc::clone(file), start, flen - start)?;
        let trailer_at = (tail.len() as u64).saturating_sub(TRAILER_LEN) as usize;
        let (payload_len, _) = ExtentFooter::decode_trailer(&tail[trailer_at..], flen, file)?;
        if payload_len < start {
            let mut region = self
                .io
                .read(Arc::clone(file), payload_len, start - payload_len)?;
            region.append(&mut tail);
            tail = region;
            self.report.footer_topups += u64::from(hint.is_some());
        }
        // `tail` now starts at the footer or before it.
        let skip = payload_len - start.min(payload_len);
        let region = tail.get(skip as usize..).unwrap_or(&[]);
        let footer = Arc::new(ExtentFooter::decode(region, flen, file)?);
        self.count_read(key.part, footer.encoded_len());
        self.publish(key, CachedBlock::Footer(Arc::clone(&footer)));
        Ok(footer)
    }

    /// Fetch a want-list from one file, handing `sink` each want's
    /// index and outcome: cache hits first, in want order (traced at
    /// zero cost), then the misses, in want order — coalesced into as
    /// few physical reads as possible, or fused with a concurrent
    /// session's, each a verified view into the merged extent with no
    /// per-want copy. Failures are per want; the sink decides which
    /// are fatal by returning them.
    pub fn wants(
        &mut self,
        file: &Arc<str>,
        wants: &[Want],
        footer: Option<&ExtentFooter>,
        mut sink: impl FnMut(usize, Result<Fetched>) -> Result<()>,
    ) -> Result<()> {
        let mut missed: Vec<usize> = Vec::new();
        for (i, (key, off, len)) in wants.iter().enumerate() {
            match self.probe(key) {
                Some(block) => {
                    self.hit(file, *off, u64::from(*len));
                    sink(i, Ok(Fetched::Cached(block)))?;
                }
                None => missed.push(i),
            }
        }
        if missed.is_empty() {
            return Ok(());
        }
        let extents: Vec<(u64, u32)> = missed.iter().map(|&i| (wants[i].1, wants[i].2)).collect();
        let reads = coalesced_read_results(
            &mut self.io,
            file,
            &extents,
            footer,
            self.store.fuser().map(Arc::as_ref),
            self.verify_s.as_mut(),
        );
        for (i, read) in missed.into_iter().zip(reads) {
            let (key, _, len) = &wants[i];
            let got = read.res.map(|view| {
                if read.fused {
                    self.report.fused_reads += 1;
                    self.report.fused_bytes += u64::from(*len);
                } else {
                    self.count_read(key.part, u64::from(*len));
                }
                if is_index(key.part) {
                    self.publish(key.clone(), CachedBlock::Bytes(view.clone()));
                }
                Fetched::Raw(view)
            });
            sink(i, got)?;
        }
        Ok(())
    }

    /// Close the rank's I/O: emit the cache and fusion counters into
    /// `obs` and hand back the full report with the read trace.
    pub fn finish(self, obs: &mut Collector) -> FetchReport {
        let mut r = self.report;
        obs.count("cache.hits", r.cache_hits);
        obs.count("cache.misses", r.cache_misses);
        obs.count("cache.bytes_saved", r.bytes_saved);
        obs.count("cache.rejected_inserts", r.cache_rejected);
        if r.fused_reads > 0 {
            obs.count("fusion.fused_reads", r.fused_reads);
            obs.count("fusion.bytes_saved", r.fused_bytes);
        }
        if r.footer_topups > 0 {
            obs.count("io.footer_topups", r.footer_topups);
        }
        r.retries = self.io.retries();
        r.retry_wait_s = self.io.retry_wait_s();
        r.retries_exhausted = self.io.retries_exhausted();
        r.batch_depths = self.io.batch_depths().to_vec();
        r.trace = self.io.into_trace();
        r
    }
}

#[cfg(test)]
mod tests {
    use super::super::Decoder;
    use super::*;
    use crate::build::build_variable;
    use crate::cache::BlockCache;
    use crate::config::MlocConfig;
    use crate::fusion::ExtentFuser;
    use crate::index::{header_size, HeaderView, SummaryView};
    use mloc_pfs::{MemBackend, StorageBackend};

    const BIN: usize = 1;

    /// Fetch the block `part` of chunk rank `r` through the operation
    /// the engine uses for its kind, decoding a data part so a cache
    /// can keep it; returns the fetcher's report.
    fn fetch(
        store: &MlocStore<'_>,
        index: &HeaderView<&[u8]>,
        r: usize,
        part: BlockPart,
    ) -> FetchReport {
        let mut f = Fetcher::new(store, RetryPolicy::none(), false);
        let mut quiet = Collector::disabled();
        let idx_file = f.index_file(BIN);
        let key = f.key(BIN, r, part);
        // The file footers every other fetch verifies against come
        // from a fetcher of their own, so they stay out of the report.
        let footer_of = |file: &Arc<str>, which: u8| {
            let mut g = Fetcher::new(store, RetryPolicy::none(), false);
            let key = g.key(BIN, 0, BlockPart::Footer(which));
            g.footer(file, key, || None).unwrap()
        };
        match part {
            BlockPart::Footer(_) => drop(
                f.footer(&idx_file, key, || Some(index.bitmaps_end()))
                    .unwrap(),
            ),
            BlockPart::IndexHeader => {
                let len = header_size(index.num_chunks(), store.config().num_parts());
                let footer = footer_of(&idx_file, 0);
                let held = f.hold(&idx_file, key, (0, len)).unwrap();
                f.admit(&idx_file, held, &footer).unwrap();
            }
            BlockPart::Summary => {
                let span = (index.summary_file_offset(), index.summary_bytes());
                let footer = footer_of(&idx_file, 0);
                let held = f.hold(&idx_file, key, span).unwrap();
                f.admit(&idx_file, held, &footer).unwrap();
            }
            BlockPart::Bitmap => {
                let want = (key, index.bitmap_file_offset(r), index.bitmap_len(r));
                let footer = footer_of(&idx_file, 0);
                f.wants(&idx_file, &[want], Some(&footer), |_, got| got.map(drop))
                    .unwrap();
            }
            BlockPart::PlodPart(p) => {
                let file = f.data_file(BIN);
                let loc = index.unit(r, usize::from(p));
                let footer = footer_of(&file, 1);
                let want = (key.clone(), loc.offset, loc.clen);
                let mut stored = None;
                f.wants(&file, &[want], Some(&footer), |_, got| {
                    if let Fetched::Raw(raw) = got? {
                        stored = Some(raw);
                    }
                    Ok(())
                })
                .unwrap();
                if let Some(raw) = stored {
                    let count = index.count(r) as usize;
                    Decoder::new(store.config().codec)
                        .decode(&mut f, key, &raw, count)
                        .unwrap();
                }
            }
            BlockPart::Floats => unreachable!("the fixture is a PLoD layout"),
        }
        f.finish(&mut quiet)
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
        let values: Vec<f64> = (0..4096).map(|i| ((i * 37) % 4096) as f64 * 0.25).collect();
        let config = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .num_bins(4)
            .build();
        build_variable(&be, "ds", "v", &values, &config).unwrap();
        let open = || MlocStore::open(&be, "ds", "v").unwrap();
        let plain = open();

        // Locate the extents from the index itself.
        let idx_file = plain.index_file(BIN);
        let raw = be.read(&idx_file, 0, be.len(&idx_file).unwrap()).unwrap();
        let index = HeaderView::parse(&raw[..]).unwrap();
        let s0 = index.summary_file_offset() as usize;
        let summaries = SummaryView::parse(&raw[s0..], index.num_chunks()).unwrap();
        // A partial chunk: it has a bitmap to read and a data unit.
        let r = (0..index.num_chunks())
            .find(|&r| index.count(r) > 0 && !summaries.get(r).all_of_chunk)
            .expect("a partially covered chunk");
        let payload_len = ExtentFooter::split_verified(&raw, &idx_file).unwrap().len() as u64;
        let part0 = index.unit(r, 0);
        let hdr_len = header_size(index.num_chunks(), plain.config().num_parts());
        let table: [(BlockPart, String, u64, u64, bool); 5] = [
            (BlockPart::IndexHeader, idx_file.clone(), 0, hdr_len, false),
            (
                BlockPart::Summary,
                idx_file.clone(),
                index.summary_file_offset(),
                index.summary_bytes(),
                false,
            ),
            (
                BlockPart::Bitmap,
                idx_file.clone(),
                index.bitmap_file_offset(r),
                u64::from(index.bitmap_len(r)),
                true,
            ),
            (
                BlockPart::PlodPart(0),
                plain.data_file(BIN),
                part0.offset,
                u64::from(part0.clen),
                true,
            ),
            (
                BlockPart::Footer(0),
                idx_file.clone(),
                payload_len,
                raw.len() as u64 - payload_len,
                false,
            ),
        ];

        for (part, file, off, len, coalesced) in table {
            let want = |charged: bool| (len, file.clone(), off, len, charged);
            let cold = fetch(&plain, &index, r, part);
            assert_eq!(shape(&cold), want(true), "{part:?} cold");
            assert_eq!(cold.cache_misses + cold.cache_hits + cold.fused_reads, 0);

            let cached = open().with_cache(Arc::new(BlockCache::with_budget_mb(8)));
            let fill = fetch(&cached, &index, r, part);
            assert_eq!(shape(&fill), want(true), "{part:?} cache fill");
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

    /// The footer fetch as it was before hints — the trailer, then the
    /// table it locates, then a copy of both into one region — kept as
    /// the oracle every hinted fetch must agree with.
    fn footer_trailer_then_table(be: &MemBackend, file: &str) -> Result<ExtentFooter> {
        let flen = be.len(file)?;
        if flen < TRAILER_LEN {
            return Err(corrupt_extent(
                file,
                0,
                flen,
                "file shorter than footer trailer",
            ));
        }
        let trailer = be.read(file, flen - TRAILER_LEN, TRAILER_LEN)?;
        let (payload_len, table_len) = ExtentFooter::decode_trailer(&trailer, flen, file)?;
        let mut region = be.read(file, payload_len, table_len)?;
        region.extend_from_slice(&trailer);
        ExtentFooter::decode(&region, flen, file)
    }

    /// One built variable plus damaged copies of one of its index
    /// files: a flipped table byte, a flipped `payload_len`, a flipped
    /// magic, a cut inside the table, and a stub shorter than a
    /// trailer. `(file, what was done to it)`.
    fn footer_fixtures(be: &MemBackend) -> Vec<(String, &'static str)> {
        let values: Vec<f64> = (0..4096).map(|i| ((i * 37) % 4096) as f64 * 0.25).collect();
        let config = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .num_bins(4)
            .build();
        build_variable(be, "ds", "v", &values, &config).unwrap();
        let store = MlocStore::open(be, "ds", "v").unwrap();
        let mut files = vec![
            (store.index_file(BIN), "intact index"),
            (store.data_file(BIN), "intact data"),
        ];
        let raw = be
            .read(&files[0].0, 0, be.len(&files[0].0).unwrap())
            .unwrap();
        let n = raw.len();
        let mut damaged = |name: &str, what: &'static str, edit: &dyn Fn(&mut Vec<u8>)| {
            let mut copy = raw.clone();
            edit(&mut copy);
            be.append(name, &copy).unwrap();
            files.push((name.to_string(), what));
        };
        damaged("table-flip", "flipped table byte", &|b| b[n - 40] ^= 0x04);
        damaged("payload-len-flip", "flipped payload_len", &|b| {
            b[n - 19] ^= 0x01
        });
        damaged("magic-flip", "flipped trailer magic", &|b| b[n - 1] ^= 0x80);
        damaged("cut", "cut inside the table", &|b| b.truncate(n - 60));
        damaged("stub", "shorter than a trailer", &|b| b.truncate(10));
        files
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Whatever the hint, the footer (or the error) is the one the
        /// trailer-then-table sequence yields, in at most two reads.
        #[test]
        fn any_hint_yields_the_unhinted_footer_in_at_most_two_reads(
            which in 0usize..7,
            slack in 0u64..=64,
            frac in 0.0f64..1.0,
            exact in proptest::bool::ANY,
        ) {
            let be = MemBackend::new();
            let (file, what) = footer_fixtures(&be).swap_remove(which);
            let store = MlocStore::open(&be, "ds", "v").unwrap();
            let flen = be.len(&file).unwrap();
            let want = footer_trailer_then_table(&be, &file);
            // An exact hint where there is a footer to be exact about,
            // else anywhere in `0..=flen + 64`.
            let hint = match &want {
                Ok(footer) if exact => footer.payload_len(),
                _ => ((flen + slack) as f64 * frac) as u64,
            };
            let file: Arc<str> = Arc::from(file);
            let run = |hint: Option<u64>| {
                let mut f = Fetcher::new(&store, RetryPolicy::none(), false);
                let key = f.key(BIN, 0, BlockPart::Footer(0));
                let got = f.footer(&file, key, || hint);
                (got, f.finish(&mut Collector::disabled()))
            };
            let (got, report) = run(Some(hint));
            let (unhinted, _) = run(None);
            let show = |r: &Result<ExtentFooter>| format!("{r:?}");
            let got = got.map(|f| (*f).clone());
            proptest::prop_assert_eq!(show(&got), show(&want), "{} hint {}", what, hint);
            proptest::prop_assert_eq!(show(&unhinted.map(|f| (*f).clone())), show(&want));
            proptest::prop_assert!(report.trace.len() <= 2);
            if let Ok(footer) = &got {
                let traced: u64 = report.trace.iter().map(|op| op.len).sum();
                proptest::prop_assert_eq!(report.index_bytes, footer.encoded_len());
                proptest::prop_assert_eq!(
                    traced == footer.encoded_len(),
                    hint == footer.payload_len(),
                    "traced {} bytes for a {}-byte footer at {}, hint {}",
                    traced, footer.encoded_len(), footer.payload_len(), hint
                );
                // A hint at or before the footer is one read (sliced
                // when early); one past it is topped up, and counted.
                let late = hint > footer.payload_len();
                proptest::prop_assert_eq!(report.trace.len(), 1 + usize::from(late));
                proptest::prop_assert_eq!(report.footer_topups, u64::from(late));
            }
        }
    }

    /// The whole observable footprint of a rank's fetches, one line per
    /// trace record and one for the counters.
    fn render(label: &str, r: &FetchReport, out: &mut String) {
        use std::fmt::Write;
        writeln!(out, "## {label}").unwrap();
        for op in &r.trace {
            let how = match (op.cached, op.peer) {
                (true, _) => "cached",
                (_, true) => "peer",
                _ => "read",
            };
            writeln!(out, "{} {} {} {how}", op.file, op.offset, op.len).unwrap();
        }
        writeln!(
            out,
            "index_bytes={} data_bytes={} cache_hits={} cache_misses={} bytes_saved={} \
             cache_rejected={} fused_reads={} fused_bytes={} retries={} retry_wait_s={} \
             retries_exhausted={} batch_depths={:?}",
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
            r.retries_exhausted,
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
        let values: Vec<f64> = (0..4096).map(|i| ((i * 37) % 4096) as f64 * 0.25).collect();
        let config = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .num_bins(4)
            .build();
        build_variable(&be, "ds", "v", &values, &config).unwrap();
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
                peers: None,
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
        for u in &step0.refine_units {
            write!(
                got,
                "bin {} chunk {} count {}:",
                u.bin, u.chunk_rank, u.count
            )
            .unwrap();
            for loc in &u.part_locs {
                write!(got, " {}+{}", loc.offset, loc.clen).unwrap();
            }
            writeln!(got).unwrap();
        }
        assert_eq!(got, include_str!("fetch_golden.txt"));
    }
}
