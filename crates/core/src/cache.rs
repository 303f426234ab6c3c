//! Sharded decompressed-block cache for the query path.
//!
//! Exploratory sessions issue overlapping VC/SC/multi-resolution
//! queries that decompress the same (bin, chunk, byte-group) blocks
//! over and over. [`BlockCache`] sits between the query engine and the
//! [`mloc_pfs::StorageBackend`]: it holds *decompressed* blocks —
//! each bin's verified fixed blocks, positional bitmaps as verified run
//! lists, PLoD data units, and whole-value float blocks — keyed by
//! `(dataset/var, bin, chunk, part)`, so a repeated or overlapping query
//! skips both the PFS read and the codec work.
//!
//! Accounting rules (see `DESIGN.md`):
//!
//! * Every extent the cache serves is recorded in the rank's
//!   [`mloc_pfs::RankIo`] trace with the `cached` flag set — the
//!   logical access pattern stays visible — but the PFS simulator
//!   charges it nothing.
//! * A hit is one probe that found its block, whatever number of
//!   extents the block serves. Hits/misses and the compressed bytes
//!   saved surface per query in `QueryMetrics` and globally in
//!   [`BlockCache::stats`].
//!
//! The cache is byte-budgeted and sharded: the budget is split evenly
//! over [`NUM_SHARDS`] independently locked LRU shards
//! (`parking_lot::Mutex`), so concurrent ranks of the threaded
//! executor contend only when their keys collide on a shard. A block
//! larger than one shard's budget is never cached; a zero budget
//! caches nothing and degrades to exactly the uncached read path. A
//! key is hashed once, by a multiplicative word hash: the hash picks
//! the shard and is the key of the shard's map.
//!
//! A PLoD data unit is cached as one *prefix* block
//! ([`BlockPart::PlodUnit`]): its decoded byte-group parts `0..k` back
//! to back, so a warm unit is one probe, not one per part. A query at
//! precision level 2 caches parts 0–1; a later full-precision query
//! reuses them, reads only the missing tail parts, and replaces the
//! block with the longer prefix.
//!
//! A bin's fixed blocks — header, index and data checksum tables —
//! are cached likewise as one entry
//! ([`BlockPart::Fixed`]), verified and parsed ([`FixedBlocks`]), so a
//! warm bin is one probe too.
//!
//! Cached blocks are tied to a built (immutable) variable; rebuilding
//! a variable under the same dataset/var names with different content
//! requires a fresh cache.

use crate::binfile::{Rows, Tables};
use crate::index::{UnitLoc, HEADER_LEN};
use crate::integrity::ExtentFooter;
use mloc_bitmap::RunList;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independently locked LRU shards.
pub const NUM_SHARDS: usize = 16;

/// Which block of a `(bin, chunk)` pair a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockPart {
    /// A bin's verified fixed blocks, as one [`FixedBlocks`] entry
    /// (chunk rank is 0).
    Fixed,
    /// The positional bitmap of one chunk in one bin, as a verified
    /// [`RunList`].
    Bitmap,
    /// A whole-value decompressed float block (non-PLoD layouts).
    Floats,
    /// One decompressed PLoD byte-group part (0 = most significant).
    /// The query engine caches a unit's parts as one
    /// [`BlockPart::PlodUnit`] instead; the key stays for callers that
    /// key blocks of their own.
    PlodPart(u8),
    /// A PLoD data unit's decoded parts `0..k`, back to back: part `p`
    /// of a unit of `count` points at `count × plod::PART_OFFSETS[p]`,
    /// so the block's length says `k` (see [`crate::plod::prefix_parts`]).
    PlodUnit,
}

impl BlockPart {
    /// The part as one word of the key hash.
    fn code(self) -> u64 {
        match self {
            BlockPart::Fixed => 0,
            BlockPart::Bitmap => 2,
            BlockPart::Floats => 3,
            BlockPart::PlodUnit => 4,
            BlockPart::PlodPart(p) => 5 | u64::from(p) << 8,
        }
    }
}

/// Cache key: one decompressed block of one built variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BlockKey {
    /// `dataset/var` scope, shared via `Arc` so probes don't allocate.
    pub scope: Arc<str>,
    /// Value bin.
    pub bin: u32,
    /// Chunk curve rank ([`BlockPart::Fixed`] uses 0).
    pub chunk_rank: u32,
    /// Which block of the pair.
    pub part: BlockPart,
}

/// The odd multiplier of the key hash (2^64 / φ).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl BlockKey {
    /// The key's one hash: the scope eight bytes at a time, then the
    /// coordinates as two words, each folded in by a rotate, xor and
    /// multiply. Not collision-proof and need not be: two keys of one
    /// hash share a map slot, so each only costs the other a miss.
    fn word_hash(&self) -> u64 {
        let mix = |h: u64, w: u64| (h.rotate_left(26) ^ w).wrapping_mul(GOLDEN);
        let scope = self.scope.as_bytes();
        let mut h = mix(0, scope.len() as u64);
        let mut words = scope.chunks_exact(8);
        let mut word = [0u8; 8];
        for w in &mut words {
            word.copy_from_slice(w);
            h = mix(h, u64::from_le_bytes(word));
        }
        let tail = words.remainder();
        word = [0; 8];
        word[..tail.len()].copy_from_slice(tail);
        h = mix(h, u64::from_le_bytes(word));
        h = mix(h, u64::from(self.bin) << 32 | u64::from(self.chunk_rank));
        h = mix(h, self.part.code());
        // The multiply leaves the low bits weakest: fold the high half
        // in, since the shard map indexes its table by them.
        h ^ h >> 32
    }
}

/// The shard index of a key hash: bits clear of both the low bits the
/// shard map indexes its table by and the top bits it tags slots with.
fn shard_index(hash: u64) -> usize {
    (hash >> 40) as usize % NUM_SHARDS
}

/// The shard maps' hasher. Their keys already are key hashes
/// ([`BlockKey::word_hash`]), so it passes a `u64` through.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(GOLDEN);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A zero-copy view of a byte range inside a shared buffer.
///
/// The query hot path reads coalesced extents once and hands out
/// `ByteView`s into them instead of copying every want into its own
/// `Vec<u8>`; cache inserts clone the view (an `Arc` bump plus two
/// integers), never the bytes. Views of the same extent share one
/// backing allocation, so caching every bitmap of a bin read together
/// costs the extent once, not once per bitmap. Coalescing gaps (at
/// most the merge threshold per join) ride along uncharged — the
/// budget charge is the view length, see [`CachedBlock::cost`].
#[derive(Debug, Clone)]
pub struct ByteView {
    buf: Arc<Vec<u8>>,
    start: usize,
    len: usize,
}

impl ByteView {
    /// View of a whole shared buffer.
    pub fn new(buf: Arc<Vec<u8>>) -> Self {
        let len = buf.len();
        ByteView { buf, start: 0, len }
    }

    /// View of `buf[start..start + len]`.
    ///
    /// # Panics
    /// Panics when the range exceeds the buffer.
    pub fn slice(buf: Arc<Vec<u8>>, start: usize, len: usize) -> Self {
        assert!(start + len <= buf.len(), "byte view out of range");
        ByteView { buf, start, len }
    }

    /// An empty view with no backing allocation of its own.
    pub fn empty() -> Self {
        static EMPTY: std::sync::OnceLock<Arc<Vec<u8>>> = std::sync::OnceLock::new();
        ByteView::new(Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new()))))
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }

    /// View of `self[start..start + len]`, sharing the backing buffer.
    ///
    /// # Panics
    /// Panics when the range exceeds the view.
    pub fn sub(&self, start: usize, len: usize) -> Self {
        assert!(start + len <= self.len, "byte view out of range");
        ByteView {
            buf: Arc::clone(&self.buf),
            start: self.start + start,
            len,
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for ByteView {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for ByteView {
    fn from(v: Vec<u8>) -> Self {
        ByteView::new(Arc::new(v))
    }
}

/// A bin's fixed blocks, verified against their checksum tables and
/// parsed: what a bin costs before a single bitmap is read, cached as
/// one entry. A query that reads no data leaves the data table out; a
/// later one that does reads it alone and caches the longer entry.
/// Every bitmap and unit location is derived from them once, at
/// admission ([`Rows`]), and looked up in O(1).
#[derive(Debug, Clone)]
pub struct FixedBlocks {
    /// The bin file's index checksum table.
    pub footer: Arc<ExtentFooter>,
    /// The bin file's data checksum table, once a query needed it.
    pub data: Option<Arc<ExtentFooter>>,
    /// Which table row holds each bitmap and unit part.
    pub rows: Rows,
}

impl FixedBlocks {
    /// Where the bin file's tables are.
    pub fn tables(&self) -> Tables {
        self.rows.tables()
    }

    /// `(offset, len)` of each block the entry holds but the data table
    /// — the header, the index table — in file order. The data table is
    /// [`Self::data`]'s span.
    pub fn index_spans(&self) -> [(u64, u64); 2] {
        [(0, HEADER_LEN), self.footer.span()]
    }

    /// Chunk `rank`'s bitmap extent, `(offset, stored length)`; `None`
    /// when the chunk has no points in the bin.
    pub fn bitmap(&self, rank: usize) -> Option<(u64, u32)> {
        self.rows.bitmap(&self.footer, rank)
    }

    /// Where part `part` of chunk `rank`'s unit is; `None` when the
    /// chunk has no points in the bin or the entry holds no data table.
    pub fn unit(&self, rank: usize, part: usize) -> Option<UnitLoc> {
        self.rows.unit(self.data.as_deref()?, rank, part)
    }

    /// How the bin file's bytes split between its index section
    /// (header, index table, bitmaps, end marker) and its data section
    /// (data table, units): `(index, data)`, from its tables alone;
    /// `None` when the entry holds no data table.
    pub fn section_bytes(&self) -> Option<(u64, u64)> {
        let lens = |t: &ExtentFooter, from: usize| -> u64 {
            (from..t.num_extents())
                .map(|i| u64::from(t.extent(i).1))
                .sum()
        };
        let data = self.data.as_deref()?;
        let (data_at, data_len) = self.tables().data_span();
        let index = data_at + lens(&self.footer, 1) + crate::binfile::END_LEN;
        Some((index, data_len + lens(data, 0)))
    }

    /// Stored bytes of every block the entry holds: the file's front
    /// up to the end of its index table, or of its data table when the
    /// entry holds it.
    fn cost(&self) -> u64 {
        let (at, len) = self.tables().data_span();
        at + if self.data.is_some() { len } else { 0 }
    }
}

/// A cached decompressed block.
#[derive(Debug, Clone)]
pub enum CachedBlock {
    /// Raw bytes: PLoD unit prefixes. Stored as a view so cache inserts
    /// of extent subslices copy nothing.
    Bytes(ByteView),
    /// Decoded doubles: whole-value blocks.
    Floats(Arc<Vec<f64>>),
    /// One bin's verified, parsed fixed blocks.
    Fixed(Arc<FixedBlocks>),
    /// One chunk's positional bitmap, decoded once and checked against
    /// its summary count: a run list, holding no extent buffer.
    Runs(Arc<RunList>),
}

impl CachedBlock {
    /// Budget charge of this block in bytes (the view length for byte
    /// blocks — shared extent backing is charged per view, so a few
    /// coalescing-gap bytes may ride along free; fixed blocks are
    /// charged their stored size; a run list its own heap bytes).
    pub fn cost(&self) -> u64 {
        match self {
            CachedBlock::Bytes(b) => b.len() as u64,
            CachedBlock::Floats(f) => (f.len() * std::mem::size_of::<f64>()) as u64,
            CachedBlock::Fixed(f) => f.cost(),
            CachedBlock::Runs(r) => r.heap_bytes(),
        }
    }

    /// The byte payload, if this is a byte block.
    pub fn as_bytes(&self) -> Option<&ByteView> {
        match self {
            CachedBlock::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// The float payload, if this is a float block.
    pub fn as_floats(&self) -> Option<&Arc<Vec<f64>>> {
        match self {
            CachedBlock::Floats(f) => Some(f),
            _ => None,
        }
    }
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes that found their block.
    pub hits: u64,
    /// Probes that did not.
    pub misses: u64,
    /// Blocks inserted.
    pub insertions: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Blocks currently resident.
    pub resident_blocks: u64,
}

/// The link of a list end; no slot has this index.
const NIL: usize = usize::MAX;

struct Node {
    key: BlockKey,
    /// `key`'s hash: the node's key in the shard map.
    hash: u64,
    value: CachedBlock,
    cost: u64,
    prev: usize,
    next: usize,
}

/// One LRU shard: an intrusive doubly linked list over a slab, plus a
/// key hash → slot map. Head is most recent, tail least. Two keys of
/// one hash share a slot: a probe checks the key, and an insert
/// replaces whichever of the two the slot holds.
struct Shard {
    map: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    slots: Vec<Option<Node>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    used_bytes: u64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            used_bytes: 0,
        }
    }

    /// The node in slot `idx`; `None` for a free slot or [`NIL`], which
    /// is how the list code finds its ends.
    fn node(&mut self, idx: usize) -> Option<&mut Node> {
        self.slots.get_mut(idx)?.as_mut()
    }

    fn unlink(&mut self, idx: usize) {
        let Some(n) = self.node(idx) else {
            return;
        };
        let (prev, next) = (n.prev, n.next);
        match self.node(prev) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.node(next) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        let head = self.head;
        let Some(n) = self.node(idx) else {
            return;
        };
        (n.prev, n.next) = (NIL, head);
        match self.node(head) {
            Some(h) => h.prev = idx,
            None => self.tail = idx,
        }
        self.head = idx;
    }

    fn get(&mut self, hash: u64, key: &BlockKey) -> Option<CachedBlock> {
        let idx = *self.map.get(&hash)?;
        let value = self.node(idx).filter(|n| n.key == *key)?.value.clone();
        self.unlink(idx);
        self.push_front(idx);
        Some(value)
    }

    /// Evict the LRU entry; returns false when empty.
    fn evict_tail(&mut self) -> bool {
        let idx = self.tail;
        self.unlink(idx);
        let Some(node) = self.slots.get_mut(idx).and_then(Option::take) else {
            return false;
        };
        self.map.remove(&node.hash);
        self.used_bytes -= node.cost;
        self.free.push(idx);
        true
    }

    /// Insert (or refresh) an entry under a byte budget. Returns the
    /// number of evictions performed, or `None` when the block itself
    /// exceeds the budget and was rejected.
    fn insert(&mut self, hash: u64, key: BlockKey, value: CachedBlock, budget: u64) -> Option<u64> {
        let cost = value.cost();
        if cost > budget {
            return None;
        }
        let idx = match self.map.get(&hash) {
            // Refresh in place (a key of the same hash takes the slot).
            Some(&idx) => {
                let n = self.node(idx)?;
                let old = n.cost;
                (n.key, n.value, n.cost) = (key, value, cost);
                self.used_bytes = self.used_bytes - old + cost;
                self.unlink(idx);
                idx
            }
            None => {
                let node = Node {
                    key,
                    hash,
                    value,
                    cost,
                    prev: NIL,
                    next: NIL,
                };
                let idx = match self.free.pop() {
                    Some(i) => {
                        self.slots[i] = Some(node);
                        i
                    }
                    None => {
                        self.slots.push(Some(node));
                        self.slots.len() - 1
                    }
                };
                self.map.insert(hash, idx);
                self.used_bytes += cost;
                idx
            }
        };
        self.push_front(idx);
        let mut evicted = 0;
        while self.used_bytes > budget && self.evict_tail() {
            evicted += 1;
        }
        Some(evicted)
    }
}

/// A concurrent, sharded, byte-budgeted LRU cache of decompressed
/// blocks. Cheap to share: wrap in an [`Arc`] and hand clones to every
/// store / rank.
pub struct BlockCache {
    shards: Vec<Mutex<Shard>>,
    shard_budget: u64,
    budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl BlockCache {
    /// A cache with a total byte budget, split evenly over
    /// [`NUM_SHARDS`] shards. A zero budget caches nothing.
    pub fn with_budget_bytes(budget: u64) -> Self {
        BlockCache {
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget: budget / NUM_SHARDS as u64,
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache with a budget in MiB (the CLI's `--cache-mb`).
    pub fn with_budget_mb(mb: u64) -> Self {
        Self::with_budget_bytes(mb << 20)
    }

    /// The configured total byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[shard_index(hash)]
    }

    /// The shard a key lives in, for tests that fill one shard.
    #[cfg(test)]
    fn shard_of(key: &BlockKey) -> usize {
        shard_index(key.word_hash())
    }

    /// Look up a block, marking it most recently used.
    pub fn get(&self, key: &BlockKey) -> Option<CachedBlock> {
        let hash = key.word_hash();
        let found = self.shard(hash).lock().get(hash, key);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Insert a block, evicting LRU entries to fit the budget. Returns
    /// whether the block was accepted (blocks larger than one shard's
    /// budget are rejected).
    pub fn insert(&self, key: BlockKey, value: CachedBlock) -> bool {
        let hash = key.word_hash();
        match self
            .shard(hash)
            .lock()
            .insert(hash, key, value, self.shard_budget)
        {
            Some(evicted) => {
                self.insertions.fetch_add(1, Ordering::Relaxed);
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Snapshot the counters and resident totals.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let s = shard.lock();
            stats.resident_bytes += s.used_bytes;
            stats.resident_blocks += s.map.len() as u64;
        }
        stats
    }

    /// Drop every resident block (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock();
            while s.evict_tail() {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(scope: &Arc<str>, bin: u32, chunk: u32, part: BlockPart) -> BlockKey {
        BlockKey {
            scope: Arc::clone(scope),
            bin,
            chunk_rank: chunk,
            part,
        }
    }

    fn block(n: usize) -> CachedBlock {
        CachedBlock::Bytes(ByteView::from(vec![0xAB; n]))
    }

    #[test]
    fn byte_views_share_backing_without_copying() {
        let extent = Arc::new((0..100u8).collect::<Vec<u8>>());
        let a = ByteView::slice(Arc::clone(&extent), 10, 5);
        let b = ByteView::slice(Arc::clone(&extent), 15, 5);
        assert_eq!(a.as_slice(), &[10, 11, 12, 13, 14]);
        assert_eq!(&b[..], &[15, 16, 17, 18, 19]);
        // Two views + the original: one allocation, three handles.
        assert_eq!(Arc::strong_count(&extent), 3);
        assert!(ByteView::empty().is_empty());
        assert_eq!(CachedBlock::Bytes(a).cost(), 5);
    }

    #[test]
    #[should_panic]
    fn byte_view_out_of_range_panics() {
        ByteView::slice(Arc::new(vec![0u8; 4]), 2, 3);
    }

    #[test]
    fn hit_and_miss_accounting() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = BlockCache::with_budget_bytes(1 << 20);
        let k = key(&scope, 1, 2, BlockPart::PlodPart(0));
        assert!(cache.get(&k).is_none());
        assert!(cache.insert(k.clone(), block(100)));
        assert!(cache.get(&k).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.resident_bytes, 100);
        assert_eq!(s.resident_blocks, 1);
    }

    #[test]
    fn distinct_parts_are_distinct_keys() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = BlockCache::with_budget_bytes(1 << 20);
        cache.insert(key(&scope, 0, 0, BlockPart::PlodPart(0)), block(10));
        cache.insert(key(&scope, 0, 0, BlockPart::PlodPart(1)), block(20));
        cache.insert(key(&scope, 0, 0, BlockPart::Bitmap), block(30));
        cache.insert(key(&scope, 0, 0, BlockPart::Fixed), block(40));
        assert_eq!(cache.stats().resident_blocks, 4);
        // Same coordinates under a different scope are separate too.
        let other: Arc<str> = Arc::from("ds/w");
        assert!(cache.get(&key(&other, 0, 0, BlockPart::Bitmap)).is_none());
    }

    #[test]
    fn lru_eviction_under_budget() {
        let scope: Arc<str> = Arc::from("ds/v");
        // One shard's budget is total / NUM_SHARDS; drive one shard by
        // reusing the same key coordinates with distinct bins until it
        // overflows. Use a budget small enough that a few 64-byte
        // blocks overflow a shard.
        let cache = BlockCache::with_budget_bytes((NUM_SHARDS * 150) as u64);
        for bin in 0..200u32 {
            cache.insert(key(&scope, bin, 0, BlockPart::Floats), block(64));
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "no evictions despite overflow");
        assert!(s.resident_bytes <= (NUM_SHARDS as u64) * 150);
        // Per-shard budget of 150 holds at most two 64-byte blocks.
        for shard in &cache.shards {
            assert!(shard.lock().used_bytes <= 150);
        }
    }

    /// `n` distinct `part` keys that land on one shard.
    fn same_shard(scope: &Arc<str>, part: BlockPart, n: usize) -> Vec<BlockKey> {
        let probe: Vec<BlockKey> = (0..500u32).map(|b| key(scope, b, 7, part)).collect();
        let target = BlockCache::shard_of(&probe[0]);
        let keys: Vec<BlockKey> = probe
            .into_iter()
            .filter(|k| BlockCache::shard_of(k) == target)
            .take(n)
            .collect();
        assert_eq!(keys.len(), n, "500 keys over 16 shards");
        keys
    }

    #[test]
    fn recently_used_survives_eviction() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = BlockCache::with_budget_bytes((NUM_SHARDS * 256) as u64);
        let [a, b, c] = &same_shard(&scope, BlockPart::Floats, 3)[..] else {
            unreachable!()
        };
        // 100-byte blocks, 256-byte shard: two fit, three do not.
        cache.insert(a.clone(), block(100));
        cache.insert(b.clone(), block(100));
        assert!(cache.get(a).is_some(), "a should be resident");
        cache.insert(c.clone(), block(100));
        // b was least recently used; a was touched and must survive.
        assert!(cache.get(a).is_some(), "a evicted despite recent use");
        assert!(cache.get(b).is_none(), "b should have been evicted");
        assert!(cache.get(c).is_some(), "c was just inserted");
    }

    /// A unit's prefix block — seven parts of a 10-point unit, 80
    /// bytes — is one entry: it costs one probe, and it is evicted
    /// whole, once.
    #[test]
    fn a_unit_block_evicts_as_one_entry() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = BlockCache::with_budget_bytes((NUM_SHARDS * 200) as u64);
        let keys = same_shard(&scope, BlockPart::PlodUnit, 4);
        let unit = &keys[0];
        cache.insert(unit.clone(), block(80));
        for k in &keys[1..3] {
            cache.insert(k.clone(), block(60));
        }
        assert_eq!(cache.stats().resident_bytes, 200);
        assert!(cache.get(unit).is_some());
        assert_eq!(cache.stats().hits, 1);
        // Touch the fillers so the unit block is the LRU entry.
        for k in &keys[1..3] {
            assert!(cache.get(k).is_some());
        }
        cache.insert(keys[3].clone(), block(60));
        let s = cache.stats();
        assert_eq!(
            (s.evictions, s.resident_blocks, s.resident_bytes),
            (1, 3, 180)
        );
        assert!(cache.get(unit).is_none(), "the whole unit block went");
    }

    /// A block over one shard's budget is turned away and leaves the
    /// shard as it was; one at the budget is taken.
    #[test]
    fn a_block_over_the_shard_budget_is_rejected() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = BlockCache::with_budget_bytes((NUM_SHARDS * 100) as u64);
        let k = key(&scope, 0, 0, BlockPart::PlodUnit);
        assert!(!cache.insert(k.clone(), block(101)));
        let s = cache.stats();
        assert_eq!((s.insertions, s.resident_blocks), (0, 0));
        assert!(cache.insert(k.clone(), block(100)));
        assert!(cache.get(&k).is_some());
    }

    /// Keys that differ in one field only hash apart, and the hash
    /// spreads them over every shard.
    #[test]
    fn the_key_hash_separates_fields_and_spreads_over_shards() {
        let (a, b): (Arc<str>, Arc<str>) = (Arc::from("ds/v"), Arc::from("ds/w"));
        let base = key(&a, 1, 2, BlockPart::PlodUnit);
        for other in [
            key(&b, 1, 2, BlockPart::PlodUnit),
            key(&a, 2, 2, BlockPart::PlodUnit),
            key(&a, 1, 3, BlockPart::PlodUnit),
            key(&a, 2, 1, BlockPart::PlodUnit),
            key(&a, 1, 2, BlockPart::PlodPart(0)),
            key(&a, 1, 2, BlockPart::Floats),
        ] {
            assert_ne!(base.word_hash(), other.word_hash(), "{other:?}");
        }
        // An equal key under another allocation of the scope is the
        // same key.
        let copy = key(&Arc::from("ds/v"), 1, 2, BlockPart::PlodUnit);
        assert_eq!(base.word_hash(), copy.word_hash());
        let mut per_shard = [0u32; NUM_SHARDS];
        for bin in 0..16u32 {
            for chunk in 0..64u32 {
                per_shard[BlockCache::shard_of(&key(&a, bin, chunk, BlockPart::PlodUnit))] += 1;
            }
        }
        // 1,024 keys, 64 a shard on average.
        assert!(
            per_shard.iter().all(|&n| (32..=96).contains(&n)),
            "{per_shard:?}"
        );
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = BlockCache::with_budget_bytes(0);
        let k = key(&scope, 0, 0, BlockPart::Floats);
        assert!(!cache.insert(k.clone(), block(1)));
        assert!(cache.get(&k).is_none());
        let s = cache.stats();
        assert_eq!(s.insertions, 0);
        assert_eq!(s.resident_bytes, 0);
    }

    #[test]
    fn refresh_updates_cost_in_place() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = BlockCache::with_budget_bytes(1 << 20);
        let k = key(&scope, 3, 4, BlockPart::PlodPart(2));
        cache.insert(k.clone(), block(100));
        cache.insert(k.clone(), block(40));
        let s = cache.stats();
        assert_eq!(s.resident_blocks, 1);
        assert_eq!(s.resident_bytes, 40);
    }

    #[test]
    fn float_blocks_charge_eight_bytes_each() {
        let b = CachedBlock::Floats(Arc::new(vec![1.0; 10]));
        assert_eq!(b.cost(), 80);
        assert!(b.as_floats().is_some());
        assert!(b.as_bytes().is_none());
    }

    #[test]
    fn clear_empties_all_shards() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = BlockCache::with_budget_bytes(1 << 20);
        for bin in 0..64u32 {
            cache.insert(key(&scope, bin, 0, BlockPart::Bitmap), block(16));
        }
        cache.clear();
        let s = cache.stats();
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(s.resident_blocks, 0);
    }

    #[test]
    fn concurrent_mixed_load_is_safe() {
        let scope: Arc<str> = Arc::from("ds/v");
        let cache = Arc::new(BlockCache::with_budget_bytes(64 << 10));
        let handles: Vec<_> = (0..8u32)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let scope = Arc::clone(&scope);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        let k = BlockKey {
                            scope: Arc::clone(&scope),
                            bin: (t + i) % 16,
                            chunk_rank: i % 8,
                            part: BlockPart::PlodPart((i % 3) as u8),
                        };
                        if i % 2 == 0 {
                            cache.insert(k, CachedBlock::Bytes(ByteView::from(vec![0; 128])));
                        } else {
                            let _ = cache.get(&k);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 8 * 250);
        assert!(s.resident_bytes <= 64 << 10);
    }
}
