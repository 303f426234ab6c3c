//! Stage 3 — reconstruct: walk each unit's run list, assemble values,
//! filter, and map chunk-local offsets to global positions.
//!
//! The hot path is run-aware (see `DESIGN.md`, "hot-path memory
//! discipline"): every unit defers to its chunk's scatter, the loops
//! consume runs of set bits, each from the unit's run list (decoded and
//! checked once, when its bitmap was admitted), so a run becomes one
//! bulk range operation, and per-chunk scratch buffers (PLoD floats,
//! coordinates) are reused across work units. A position filter or a
//! membership point set becomes, once per chunk, a rising list of
//! chunk-local offsets that each unit of the chunk merges against its
//! runs.

use super::{BinBlocks, RankJob, RankOutput, RefineUnit, Refinement};
use crate::cache::CachedBlock;
use crate::config::{PlodLevel, NUM_PARTS};
use crate::index::ChunkSummary;
use crate::plod;
use crate::query::plan::{parts_used, WorkUnit};
use crate::{MlocError, Result};
use mloc_bitmap::RunListRef;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The part of a chunk inside the query's region — its box, in
/// chunk-local coordinates — as the pieces of a unit's runs of set
/// bits that lie in it.
///
/// A unit's runs come in chunk-local order, so the box rows they meet
/// come in order too: an odometer over the box's outer coordinates
/// moves forward one box row at a time, with no division. Every piece
/// is cut to the box's last-dimension window, and the next offset the
/// box wants tells the run walk which runs it may skip. A chunk
/// wholly inside the region (`whole`) needs no cursor: its runs are
/// kept as they come ([`for_each_kept`]).
struct Window {
    /// Chunk-local row-major stride per dimension.
    strides: Vec<u64>,
    /// The box, `[lo, hi)` per dimension.
    lo: Vec<u64>,
    hi: Vec<u64>,
    /// Odometer: the box coordinates of the cursor's row (the last
    /// entry is unused).
    c: Vec<u64>,
    /// Chunk-local offset where the cursor's row starts.
    row: u64,
    /// The chunk's row width, and the box's window of each row.
    row_w: u64,
    cols: (u64, u64),
    /// The box's first and last offsets.
    span: (u64, u64),
    /// The box covers the whole chunk.
    whole: bool,
    /// The cursor is past the box's last row.
    done: bool,
}

impl Window {
    fn new(dims: usize) -> Self {
        Window {
            strides: vec![0; dims],
            lo: vec![0; dims],
            hi: vec![0; dims],
            c: vec![0; dims],
            row: 0,
            row_w: 0,
            cols: (0, 0),
            span: (0, u64::MAX),
            whole: true,
            done: false,
        }
    }

    /// Aim at the first box row of a chunk spanning `ranges`, the box
    /// being the chunk's part of `region` (`None`: all of the chunk).
    fn set_chunk(&mut self, ranges: &[(usize, usize)], region: Option<&[(usize, usize)]>) {
        (self.whole, self.done, self.span) = (true, false, (0, u64::MAX));
        let Some(sc) = region else {
            return;
        };
        let last = ranges.len() - 1;
        let (mut stride, mut row, mut end) = (1u64, 0u64, 0u64);
        for d in (0..=last).rev() {
            let (s, e) = ranges[d];
            let (lo, hi) = (sc[d].0.clamp(s, e) - s, sc[d].1.clamp(s, e) - s);
            self.whole &= lo == 0 && hi == e - s;
            self.done |= lo >= hi;
            self.lo[d] = lo as u64;
            self.hi[d] = hi as u64;
            self.c[d] = lo as u64;
            self.strides[d] = stride;
            if d < last {
                row += lo as u64 * stride;
            }
            end += (hi.max(lo + 1) - 1) as u64 * stride;
            stride *= (e - s) as u64;
        }
        self.span = (row + self.lo[last], end);
        self.row = row;
        self.row_w = (ranges[last].1 - ranges[last].0) as u64;
        self.cols = (self.lo[last], self.hi[last]);
    }

    /// Move the cursor to the box's next row.
    #[inline]
    fn next_row(&mut self) {
        let mut d = self.c.len() - 1;
        while d > 0 {
            d -= 1;
            self.c[d] += 1;
            self.row += self.strides[d];
            if self.c[d] < self.hi[d] {
                return;
            }
            self.row -= (self.hi[d] - self.lo[d]) * self.strides[d];
            self.c[d] = self.lo[d];
        }
        self.done = true;
    }

    /// Whether the box can hold a set bit of a unit whose set bits all
    /// lie in `summary`'s span.
    fn meets(&self, summary: ChunkSummary) -> bool {
        let (min, max) = (u64::from(summary.min_pos), u64::from(summary.max_pos));
        !self.done && min <= self.span.1 && max >= self.span.0
    }

    /// The first offset at or after `at` inside the box (moving the
    /// cursor to its row), or `u64::MAX` past the box's last row.
    #[inline]
    fn want(&mut self, at: u64) -> u64 {
        while !self.done {
            if at < self.row + self.cols.0 {
                return self.row + self.cols.0;
            }
            if at < self.row + self.cols.1 {
                return at;
            }
            self.next_row();
        }
        u64::MAX
    }

    /// Call `keep(at, take)` for each piece of the `len` offsets from
    /// `local` that lies in the box, in order. Runs must come in
    /// chunk-local order, none starting before the last [`Self::want`].
    #[inline]
    fn clip(&mut self, local: u64, len: u64, mut keep: impl FnMut(u64, u64)) {
        let end = local + len;
        let mut s = local;
        while !self.done {
            let row_end = self.row + self.row_w;
            if s >= row_end {
                self.next_row();
                continue;
            }
            let (a, b) = (
                s.max(self.row + self.cols.0),
                end.min(self.row + self.cols.1),
            );
            if a < b {
                keep(a, b - a);
            }
            if end <= row_end {
                return;
            }
            s = row_end;
        }
    }
}

/// Walk a unit's runs of set bits through `window` (aimed at the
/// unit's chunk), calling `keep(at, vi, take)` for each kept piece: its
/// chunk-local offset, the index of its first value (the rank of its
/// first bit), and its point count. A chunk wholly inside keeps every
/// run as it comes; otherwise a run wholly outside the box costs one
/// pair decode, and the walk stops at the box's last row.
#[inline]
fn for_each_kept(runs: RunListRef<'_>, window: &mut Window, mut keep: impl FnMut(u64, usize, u64)) {
    if window.whole {
        return runs.for_each_run(|at, ones_before, len| keep(at, ones_before as usize, len));
    }
    let first = window.want(0);
    runs.for_each_run_from(first, |run, ones_before, len| {
        window.clip(run, len, |at, take| {
            keep(at, (ones_before + at - run) as usize, take)
        });
        window.want(run + len)
    })
}

/// Deferred per-chunk gather target: every unit places what it keeps
/// here.
///
/// Bin bitmaps over continuous data are scatter-heavy (isolated set
/// bits), so emitting per unit would pay the row-major cursor *per set
/// bit*. Each unit instead places the values of its points inside the
/// query's region into a chunk-shaped block with pure local arithmetic
/// and marks them in `mask`; after all groups, one pass over the global
/// rows the chunks cover emits whole row segments in bulk, in position
/// order. The mask — rather than assuming full coverage — keeps this
/// correct when a chunk's bins are split across ranks by the
/// column-order assignment. It never holds a point outside the region,
/// nor, under a position filter or a membership point set, one outside
/// it.
///
/// A capturing request (a progressive ladder's step 0) also marks each
/// point a refinable unit keeps with its place in the rank's
/// [`Refinement`], in `slots`, and emission writes each marked point's
/// output index to that place.
#[derive(Default)]
struct ChunkScatter {
    /// Chunk-local values, ordered by local offset (empty when the
    /// query is position-only).
    block: Vec<f64>,
    /// One bit per chunk-local offset: set iff some unit on this rank
    /// kept it.
    mask: Vec<u64>,
    /// Per chunk-local offset: one past the point's index in
    /// [`Refinement::val_idx`], or 0 for a point no refinable unit
    /// kept (empty unless capturing; from [`SLOT_POOL`]).
    slots: Vec<usize>,
    /// The chunk-local offsets of the request's position filter (or
    /// membership point set) inside the chunk and the region's box,
    /// rising; empty when the request has neither.
    probes: Vec<u64>,
}

/// Append to `out` the chunk-local offsets of the points of `filter`
/// (sorted global positions) that lie in the chunk spanning `ranges`
/// and inside `region` (`None`: all of the chunk), in rising order.
/// The box's global rows rise too, so one forward cursor finds each
/// row's points with two binary searches; no point is decoded.
fn probe_offsets(
    filter: &[u64],
    shape: &[usize],
    ranges: &[(usize, usize)],
    region: Option<&[(usize, usize)]>,
    coords: &mut [usize],
    out: &mut Vec<u64>,
) {
    let last = ranges.len() - 1;
    let inside = |d: usize| {
        let (s, e) = ranges[d];
        region.map_or((s, e), |r| (r[d].0.clamp(s, e), r[d].1.clamp(s, e)))
    };
    let (c0, c1) = inside(last);
    let rows: usize = (0..last).map(|d| inside(d).1 - inside(d).0).product();
    let row_w = (ranges[last].1 - ranges[last].0) as u64;
    let mut rest = filter;
    for row in (0..rows).take_while(|_| c0 < c1 && !rest.is_empty()) {
        // The row's outer coordinates, then its first point in the box,
        // as a global position and as a chunk-local offset.
        let mut r = row;
        for d in (0..last).rev() {
            let (lo, hi) = inside(d);
            coords[d] = lo + r % (hi - lo);
            r /= hi - lo;
        }
        let (mut g, mut l) = (0u64, 0u64);
        for d in 0..last {
            g = g * shape[d] as u64 + coords[d] as u64;
            l = l * (ranges[d].1 - ranges[d].0) as u64 + (coords[d] - ranges[d].0) as u64;
        }
        let g = g * shape[last] as u64 + c0 as u64;
        let l = l * row_w + (c0 - ranges[last].0) as u64;
        rest = &rest[rest.partition_point(|&p| p < g)..];
        let n = rest.partition_point(|&p| p < g + (c1 - c0) as u64);
        out.extend(rest[..n].iter().map(|&p| l + (p - g)));
        rest = &rest[n..];
    }
}

/// Merge a unit's runs against its chunk's rising `probes` in one
/// forward pass, calling `hit(at, vi)` for each probe that is a set
/// bit: its chunk-local offset and the index of its value (the rank
/// of its bit).
fn for_each_hit(runs: RunListRef<'_>, probes: &[u64], mut hit: impl FnMut(u64, usize)) {
    let Some(&first) = probes.first() else {
        return;
    };
    let mut i = 0;
    runs.for_each_run_from(first, |start, ones_before, len| {
        while let Some(&p) = probes.get(i).filter(|&&p| p < start + len) {
            if p >= start {
                hit(p, (ones_before + p - start) as usize);
            }
            i += 1;
        }
        probes.get(i).copied().unwrap_or(u64::MAX)
    })
}

/// Set `len` bits of `mask` starting at bit `start`.
#[inline]
fn set_bits(mask: &mut [u64], start: u64, len: u64) {
    let mut w = (start / 64) as usize;
    let mut bit = start % 64;
    let mut rem = len;
    while rem > 0 {
        let take = (64 - bit).min(rem);
        let m = if take == 64 {
            !0u64
        } else {
            ((1u64 << take) - 1) << bit
        };
        mask[w] |= m;
        w += 1;
        bit = 0;
        rem -= take;
    }
}
thread_local! {
    /// Recycled [`ChunkScatter`] buffers. Invariant: every pooled block
    /// and mask is all-zero, so acquiring one skips the full-block
    /// memset — emission re-zeroes exactly the covered ranges
    /// (cache-hot, proportional to result size) before returning
    /// buffers here.
    static SCATTER_POOL: std::cell::RefCell<Vec<ChunkScatter>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Recycled [`ChunkScatter::slots`] arrays, pooled apart so that
    /// only a capturing request's chunks hold one. Invariant: every
    /// pooled array is all-zero — a marked slot is a covered offset,
    /// which emission reads and clears.
    static SLOT_POOL: std::cell::RefCell<Vec<Vec<usize>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Most buffers a thread's pool retains (bounds long-session memory;
/// one block is a chunk's worth of `f64`s).
const SCATTER_POOL_CAP: usize = 64;

/// Most slot arrays a thread's pool retains: a progressive ladder's
/// region meets a few chunks.
const SLOT_POOL_CAP: usize = 8;

/// Where a unit's values come from.
#[derive(Clone, Copy)]
enum Source<'u> {
    /// Nowhere: the unit is answered from the index alone.
    Index,
    /// Its PLoD parts — a degraded unit's only before its first lost
    /// extent.
    Plod(plod::UnitParts<'u>),
    /// The bin's shared float block (borrowed, not taken: the block
    /// must not be freed inside the timed reconstruct loop).
    Floats(&'u [f64]),
}

impl Source<'_> {
    /// Values `first..first + out.len()` of the unit, into `out`;
    /// `false` if the unit holds no such values.
    #[inline]
    fn fill(&self, first: usize, out: &mut [f64]) -> bool {
        match self {
            Source::Plod(parts) => parts.assemble_range(first, out).is_ok(),
            Source::Floats(block) => match block.get(first..first + out.len()) {
                // A kept piece is often one value: a store, not a copy
                // call.
                Some(&[v]) if out.len() == 1 => {
                    out[0] = v;
                    true
                }
                Some(vals) => {
                    out.copy_from_slice(vals);
                    true
                }
                None => false,
            },
            Source::Index => false,
        }
    }

    /// Values `first..first + len` of the unit: read in place from a
    /// float block, assembled into `piece` from PLoD parts.
    #[inline]
    fn piece<'p>(&'p self, first: usize, len: usize, piece: &'p mut Vec<f64>) -> Option<&'p [f64]> {
        if let Source::Floats(block) = self {
            return block.get(first..first + len);
        }
        if piece.len() < len {
            piece.resize(len, 0.0);
        }
        self.fill(first, &mut piece[..len]).then_some(&piece[..len])
    }
}

/// Whether `v` satisfies the half-open value constraint `[lo, hi)`.
#[inline]
fn within((lo, hi): (f64, f64), v: f64) -> bool {
    v >= lo && v < hi
}

/// Buffers reused across every chunk of every bin: the PLoD assembly
/// targets (a whole unit, and a piece a value filter tests), the
/// chunk's clamped ranges, and a row's coordinates.
#[derive(Default)]
struct Scratch {
    values: Vec<f64>,
    piece: Vec<f64>,
    ranges: Vec<(usize, usize)>,
    coords: Vec<usize>,
}

/// One rank's reconstruct stage.
pub(crate) struct Reconstructor<'j, 'a> {
    job: &'j RankJob<'j, 'a>,
    /// Sorted, duplicate-free global positions the output is
    /// restricted to: the caller's filter, else a membership query's
    /// point set (the executor and the planner check the order).
    filter: Option<&'j [u64]>,
    /// Record refinable units for a progressive ladder (see
    /// [`Refinement`]).
    capture: bool,
    /// The value constraint, unbounded when the query has none.
    vc: (f64, f64),
    /// Parts of a data-bearing unit the query's PLoD level uses.
    pub n_parts: usize,
    scratch: Scratch,
    /// Global row-major stride per dimension (from the domain shape).
    strides: Vec<u64>,
    window: Window,
    /// Every unit's scatter target, keyed by row-major chunk id (the
    /// order emission walks them in), emitted in bulk after the last
    /// bin.
    scatter: BTreeMap<usize, ChunkScatter>,
    /// Filter points probed against a stored bitmap's runs (a full
    /// chunk's point needs none).
    pub rank_calls: u64,
    /// Allocation proxy: bytes PLoD assembly materialized, 8 per kept
    /// point.
    pub copy_bytes: u64,
}

impl<'j, 'a> Reconstructor<'j, 'a> {
    pub fn new(job: &'j RankJob<'j, 'a>) -> Self {
        let (grid, req) = (job.store.grid(), &job.req);
        let shape = grid.shape();
        let mut strides = vec![1u64; shape.len()];
        for d in (0..shape.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * shape[d + 1] as u64;
        }
        // An explicit caller filter wins over a membership point set:
        // multivar pre-intersects the point set itself.
        let filter = req.position_filter.or(req.query.points.as_deref());
        Reconstructor {
            job,
            filter,
            capture: req.capture_refine
                && filter.is_none()
                && job.store.config().plod
                && req.query.wants_values(),
            vc: req.query.vc.unwrap_or((f64::MIN, f64::MAX)),
            n_parts: parts_used(job.store.config(), req.query),
            scratch: Scratch {
                coords: vec![0; grid.dims()],
                ..Scratch::default()
            },
            strides,
            window: Window::new(grid.dims()),
            scatter: BTreeMap::new(),
            rank_calls: 0,
            copy_bytes: 0,
        }
    }

    /// The query's region when unit `u`'s chunk straddles it; `None`
    /// when the chunk lies wholly inside (or the query has none).
    fn region(&self, u: &WorkUnit) -> Option<&'j [(usize, usize)]> {
        let region = self.job.req.query.sc.as_ref();
        region.filter(|_| u.spatial_filter).map(|r| r.ranges())
    }

    /// Defer unit `gi` of a bin's group to its chunk's scatter, emitted
    /// by [`Self::emit_deferred`]; a refinable unit of a capturing
    /// request is recorded in `refine`.
    pub fn unit(
        &mut self,
        gi: usize,
        u: &WorkUnit,
        bin: &BinBlocks,
        refine: &mut Refinement,
    ) -> Result<()> {
        // The scratch is lent to the unit for the call, so the walk can
        // borrow `self` whole.
        let mut scratch = std::mem::take(&mut self.scratch);
        let done = self.unit_with(&mut scratch, gi, u, bin, refine);
        self.scratch = scratch;
        done
    }

    fn unit_with(
        &mut self,
        scratch: &mut Scratch,
        gi: usize,
        u: &WorkUnit,
        bin: &BinBlocks,
        refine: &mut Refinement,
    ) -> Result<()> {
        let count = bin.fixed.index.count(u.chunk_rank);
        if count == 0 {
            return Ok(());
        }
        let (store, query) = (self.job.store, self.job.req.query);
        store
            .grid()
            .chunk_ranges_into(store.order().cell_at(u.chunk_rank), &mut scratch.ranges);
        // A refinable unit — PLoD data-bearing, values wanted, no value
        // filter, no position filter — is recorded even when it keeps
        // no point, so a refinement pull reads what a one-shot query at
        // its level would.
        let capture = self.capture && u.needs_data && !u.value_filter;
        if capture {
            let at = refine.val_idx.len();
            refine.units.push(RefineUnit {
                bin: u.bin,
                chunk_rank: u.chunk_rank,
                count,
                fixed: Arc::clone(&bin.fixed),
                points: at..at,
            });
        }
        // A unit keeps only its set bits inside the region: when the
        // chunk's summary puts them all before or after the region's
        // box, it has nothing to walk.
        self.window.set_chunk(&scratch.ranges, self.region(u));
        let summary = bin.fixed.summaries.get(u.chunk_rank);
        if !self.window.meets(summary) {
            return Ok(());
        }
        // The unit's run list was checked against its header entry —
        // its count of set bits, its chunk's length — when its bitmap
        // was admitted, so no run passes the chunk or the unit's values.
        let runs = bin
            .runs(gi)
            .ok_or(MlocError::Corrupt("index bitmap inconsistent"))?;

        // Where the unit's values come from. The invariants "output
        // wants values / value filter ⇒ the unit carries them" are
        // checked once per unit, not per point.
        let parts = bin.unit_parts(gi);
        let src = if !u.needs_data {
            if u.value_filter {
                return Err(MlocError::Corrupt("value filter without values"));
            }
            if query.wants_values() {
                return Err(MlocError::Corrupt("value block required but absent"));
            }
            Source::Index
        } else if store.config().plod {
            // A degraded unit assembles only the parts before its
            // first lost extent — same positions, coarser values, the
            // loss already recorded by the fetch stage.
            let eff = bin.eff_parts[gi];
            let level = if eff == self.n_parts {
                query.plod
            } else {
                PlodLevel::new(eff as u8)
                    .map_err(|_| MlocError::Corrupt("degraded below base precision"))?
            };
            let mut refs: [&[u8]; NUM_PARTS] = [&[]; NUM_PARTS];
            for (r, part) in refs.iter_mut().zip(parts).take(eff) {
                let bytes = part.as_ref().and_then(CachedBlock::as_bytes);
                *r = bytes.ok_or(MlocError::Corrupt("missing PLoD part"))?;
            }
            Source::Plod(plod::UnitParts::new(&refs[..eff], level, count as usize)?)
        } else {
            let floats = parts.first().and_then(|b| b.as_ref()?.as_floats());
            Source::Floats(floats.ok_or(MlocError::Corrupt("missing value block"))?)
        };
        let probed = (summary, bin.full[gi]);
        self.defer(u, runs, src, scratch, probed, capture.then_some(refine))
    }

    /// Defer a unit to its chunk's scatter, with pure local arithmetic:
    /// no row-major cursor per set bit. The window is already aimed at
    /// the unit's chunk.
    ///
    /// With no position filter, each run of set bits is cut to the
    /// query's region ([`Window`]), and each kept piece — a contiguous
    /// range of value indices — lands in its place in the chunk-local
    /// block and is marked in the coverage mask. A unit of a chunk the
    /// region straddles assembles only its kept pieces, straight into
    /// the block; a unit of a chunk wholly inside keeps every set bit,
    /// so it is assembled whole in one pass and read like a float
    /// block. A value filter tests the kept points only (one compare
    /// each) and stores the survivors. A refinable unit of a capturing
    /// request also appends its kept points' value indices to `refine`
    /// and marks each point's slot with its place there.
    ///
    /// Under a position filter or a membership point set, the chunk's
    /// probes inside the unit's summary span (`probed`: the chunk's
    /// summary, and whether the chunk is full) merge against its runs;
    /// each hit assembles its one value when the query tests or keeps
    /// it.
    ///
    /// One bulk emission maps every chunk's survivors to global
    /// positions, in order, after the last bin.
    fn defer(
        &mut self,
        u: &WorkUnit,
        runs: RunListRef<'_>,
        src: Source<'_>,
        scratch: &mut Scratch,
        (summary, full): (ChunkSummary, bool),
        refine: Option<&mut Refinement>,
    ) -> Result<()> {
        let (vc, keep_values, filter) = (self.vc, self.job.req.query.wants_values(), self.filter);
        let Scratch {
            values: whole,
            piece,
            ranges,
            coords,
        } = scratch;
        let plod = matches!(src, Source::Plod(_));
        let src = match src {
            Source::Plod(parts) if self.window.whole && filter.is_none() => {
                parts.assemble_into(whole);
                Source::Floats(whole)
            }
            src => src,
        };
        let (store, capture) = (self.job.store, self.capture);
        let region = self.job.req.query.sc.as_ref().map(|r| r.ranges());
        let chunk_points = ranges.iter().map(|&(s, e)| e - s).product::<usize>();
        let chunk = store.order().cell_at(u.chunk_rank);
        let e = self.scatter.entry(chunk).or_insert_with(|| {
            let mut e = SCATTER_POOL.with_borrow_mut(Vec::pop).unwrap_or_default();
            debug_assert!(e.block.iter().all(|&x| x == 0.0));
            debug_assert!(e.mask.iter().all(|&w| w == 0));
            debug_assert!(e.slots.is_empty() && e.probes.is_empty());
            if keep_values {
                e.block.resize(chunk_points, 0.0);
            }
            e.mask.resize(chunk_points.div_ceil(64), 0);
            if capture {
                e.slots = SLOT_POOL.with_borrow_mut(Vec::pop).unwrap_or_default();
                debug_assert!(e.slots.iter().all(|&s| s == 0));
                e.slots.resize(chunk_points, 0);
            }
            if let Some(filter) = filter {
                let shape = store.grid().shape();
                probe_offsets(filter, shape, ranges, region, coords, &mut e.probes);
            }
            e
        });
        let ChunkScatter {
            block,
            mask,
            slots,
            probes,
        } = e;
        let window = &mut self.window;
        // Every kept piece lies inside the unit (its run list's count was
        // checked against the unit's), so a source refusing one is a
        // damaged store: flagged here, reported once after the walk.
        let (mut kept, mut bad) = (0u64, false);
        if filter.is_some() {
            // The unit's set bits lie in its summary's span; each probe
            // there is a probe of its stored bitmap, unless the chunk is
            // full.
            let probes = &probes[probes.partition_point(|&p| p < u64::from(summary.min_pos))..];
            let probes = &probes[..probes.partition_point(|&p| p <= u64::from(summary.max_pos))];
            self.rank_calls += if full { 0 } else { probes.len() as u64 };
            let tests_value = u.value_filter || keep_values;
            for_each_hit(runs, probes, |at, vi| {
                let mut val = [0.0];
                if tests_value {
                    if !src.fill(vi, &mut val) {
                        bad = true;
                        return;
                    }
                    kept += 1;
                    if u.value_filter && !within(vc, val[0]) {
                        return;
                    }
                    if keep_values {
                        block[at as usize] = val[0];
                    }
                }
                mask[(at / 64) as usize] |= 1u64 << (at % 64);
            })
        } else if u.value_filter {
            // Two loops, not one with a branch on the output kind: this
            // is the per-point hot loop of every value-constrained
            // query.
            if keep_values {
                for_each_kept(runs, window, |at, vi, take| {
                    kept += take;
                    let Some(vals) = src.piece(vi, take as usize, piece) else {
                        bad = true;
                        return;
                    };
                    for (li, &val) in (at..).zip(vals) {
                        if within(vc, val) {
                            block[li as usize] = val;
                            mask[(li / 64) as usize] |= 1u64 << (li % 64);
                        }
                    }
                })
            } else {
                for_each_kept(runs, window, |at, vi, take| {
                    kept += take;
                    let Some(vals) = src.piece(vi, take as usize, piece) else {
                        bad = true;
                        return;
                    };
                    for (li, &val) in (at..).zip(vals) {
                        if within(vc, val) {
                            mask[(li / 64) as usize] |= 1u64 << (li % 64);
                        }
                    }
                })
            }
        } else if let Some(refine) = refine {
            let first = refine.val_idx.len();
            for_each_kept(runs, window, |at, vi, take| {
                kept += take;
                bad |= !src.fill(vi, &mut block[at as usize..(at + take) as usize]);
                set_bits(mask, at, take);
                let (at, len) = (at as usize, take as usize);
                let marks = refine.val_idx.len() + 1..;
                for (slot, mark) in slots[at..at + len].iter_mut().zip(marks) {
                    *slot = mark;
                }
                refine.val_idx.extend((vi..vi + len).map(|i| i as u32));
            });
            // The unit's own entry, pushed before its walk.
            if let Some(unit) = refine.units.last_mut() {
                unit.points = first..refine.val_idx.len();
            }
        } else if keep_values {
            for_each_kept(runs, window, |at, vi, take| {
                kept += take;
                bad |= !src.fill(vi, &mut block[at as usize..(at + take) as usize]);
                set_bits(mask, at, take);
            })
        } else {
            for_each_kept(runs, window, |at, _, take| set_bits(mask, at, take))
        }
        if plod {
            self.copy_bytes += 8 * kept;
        }
        if bad {
            return Err(MlocError::Corrupt("value index past its unit"));
        }
        Ok(())
    }

    /// Whether any unit was deferred to the per-chunk scatter.
    pub fn has_deferred(&self) -> bool {
        !self.scatter.is_empty()
    }

    /// Bulk emission of the deferred chunks as one sorted run: walk
    /// the global rows they cover in row-major order and, in each, let
    /// the chunks covering it emit their covered segments of it from
    /// left to right (see [`RowWalk`]). The output is reserved once,
    /// for every covered offset. A capturing request's marked points get
    /// their output indices on the way ([`Refinement::result_idx`]).
    pub fn emit_deferred(&mut self, out: &mut RankOutput) {
        let (grid, query) = (self.job.store.grid(), self.job.req.query);
        let dims = grid.dims();
        let mut ranges = Vec::with_capacity(self.scatter.len() * dims);
        let mut pending = Vec::with_capacity(self.scatter.len());
        let mut covered = 0usize;
        for (chunk, scatter) in std::mem::take(&mut self.scatter) {
            grid.chunk_ranges_into(chunk, &mut self.scratch.ranges);
            covered += scatter
                .mask
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
            pending.push(Pending {
                scatter,
                at: ranges.len(),
                row: 0,
                points: self
                    .scratch
                    .ranges
                    .iter()
                    .map(|&(s, e)| (e - s) as u64)
                    .product(),
            });
            ranges.extend_from_slice(&self.scratch.ranges);
        }
        out.positions.reserve(covered);
        if query.wants_values() {
            out.values.reserve(covered);
        }
        let walk = RowWalk {
            ranges: &ranges,
            strides: &self.strides,
            keep_values: query.wants_values(),
        };
        let refine = &mut out.refine;
        refine.result_idx.resize(refine.val_idx.len(), 0);
        walk.rows(&mut pending, 0, 0, out);
        SCATTER_POOL.with_borrow_mut(|pool| {
            SLOT_POOL.with_borrow_mut(|slot_pool| {
                for Pending { mut scatter, .. } in pending {
                    scatter.probes.clear();
                    let slots = std::mem::take(&mut scatter.slots);
                    if !slots.is_empty() && slot_pool.len() < SLOT_POOL_CAP {
                        slot_pool.push(slots);
                    }
                    if pool.len() < SCATTER_POOL_CAP {
                        pool.push(scatter);
                    }
                }
            })
        });
    }
}

/// A deferred chunk while [`RowWalk`] emits it.
struct Pending {
    scatter: ChunkScatter,
    /// Where the chunk's clamped ranges start in [`RowWalk::ranges`].
    at: usize,
    /// The chunk's next row (chunk-local, counting every coordinate
    /// but the last); rows are emitted in order, one per visit.
    row: u64,
    /// Offsets the chunk spans.
    points: u64,
}

/// Emits deferred chunks in global row-major order.
///
/// A global row — every coordinate but the last fixed — is covered by
/// the chunks whose outer chunk coordinates contain it, side by side
/// along the last dimension. Sorted by row-major chunk id, the chunks
/// sharing a chunk coordinate in one dimension are neighbours, so the
/// walk fixes one dimension at a time over such bands; at the last
/// dimension it visits the band's chunks left to right, each emitting
/// its segment of the row. Each chunk's own rows come up in its
/// chunk-local row order, which is why a row counter per chunk finds
/// the row's bits in its mask. This is the same for 2-D and 3-D: in
/// 2-D each band is one row of chunks; in 3-D the bands of one outer
/// chunk coordinate interleave row by row.
struct RowWalk<'w> {
    /// Clamped ranges of every pending chunk, one per dimension each.
    ranges: &'w [(usize, usize)],
    /// Global row-major stride per dimension.
    strides: &'w [u64],
    keep_values: bool,
}

/// The first offset in `from..to` whose mask bit is `set`, or `to`.
#[inline]
fn seek_bit(mask: &[u64], from: u64, to: u64, set: bool) -> u64 {
    let flip = if set { 0 } else { !0u64 };
    let mut p = from;
    while p < to {
        let word = (mask[(p / 64) as usize] ^ flip) >> (p % 64);
        if word != 0 {
            return (p + u64::from(word.trailing_zeros())).min(to);
        }
        p = (p / 64 + 1) * 64;
    }
    to
}

impl RowWalk<'_> {
    fn ranges(&self, chunk: &Pending) -> &[(usize, usize)] {
        &self.ranges[chunk.at..chunk.at + self.strides.len()]
    }

    /// Emit, in row-major order, the global rows of `chunks` — every
    /// one of which shares its chunk coordinates before `dim` — whose
    /// coordinates before `dim` are fixed: those rows start at global
    /// position `base`.
    fn rows(&self, chunks: &mut [Pending], dim: usize, base: u64, out: &mut RankOutput) {
        let last = self.strides.len() - 1;
        if dim == last {
            for chunk in chunks {
                self.segment(chunk, base, out);
            }
            return;
        }
        for band in chunks.chunk_by_mut(|a, b| self.ranges(a)[dim] == self.ranges(b)[dim]) {
            let (s, e) = self.ranges(&band[0])[dim];
            for x in s..e {
                self.rows(band, dim + 1, base + x as u64 * self.strides[dim], out);
            }
        }
    }

    /// Emit `chunk`'s next row, whose global row starts at `base`, and
    /// restore the pools' all-zero invariants over it: its covered
    /// values and slots (cache-hot: emission just read them) and the
    /// mask words holding nothing of a later row.
    fn segment(&self, chunk: &mut Pending, base: u64, out: &mut RankOutput) {
        let (c0, c1) = self.ranges(chunk)[self.strides.len() - 1];
        let w = (c1 - c0) as u64;
        // The row's chunk-local offsets.
        let (a, b) = (chunk.row * w, (chunk.row + 1) * w);
        chunk.row += 1;
        let ChunkScatter {
            block, mask, slots, ..
        } = &mut chunk.scatter;
        let mut p = a;
        loop {
            let s = seek_bit(mask, p, b, true);
            if s == b {
                break;
            }
            let e = seek_bit(mask, s, b, false);
            let g = base + c0 as u64 + (s - a);
            // A capturing request's chunk: each marked point's output
            // index goes to its place in the refinement.
            if !slots.is_empty() {
                let at = out.positions.len();
                for (slot, i) in slots[s as usize..e as usize].iter_mut().zip(at..) {
                    if *slot > 0 {
                        out.refine.result_idx[*slot - 1] = i;
                        *slot = 0;
                    }
                }
            }
            out.positions.extend(g..g + (e - s));
            if self.keep_values {
                let covered = &mut block[s as usize..e as usize];
                out.values.extend_from_slice(covered);
                covered.fill(0.0);
            }
            p = e;
        }
        let spent = if b == chunk.points {
            mask.len()
        } else {
            (b / 64) as usize
        };
        mask[(a / 64) as usize..spent].fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ChunkGrid, Region};

    /// Decompose a chunk-local offset into global coordinates (scratch
    /// holds the result).
    fn local_to_coords_into(ranges: &[(usize, usize)], mut local: u64, scratch: &mut [usize]) {
        for d in (0..ranges.len()).rev() {
            let (s, e) = ranges[d];
            let extent = (e - s) as u64;
            scratch[d] = s + (local % extent) as usize;
            local /= extent;
        }
    }

    #[test]
    fn local_to_coords_matches_grid() {
        let grid = ChunkGrid::new(vec![10, 7], vec![4, 3]);
        let mut scratch = vec![0usize; 2];
        for chunk in 0..grid.num_chunks() {
            let ranges = grid.chunk_region(chunk).ranges().to_vec();
            for local in 0..grid.chunk_points(chunk) {
                local_to_coords_into(&ranges, local as u64, &mut scratch);
                assert_eq!(scratch, grid.local_to_coords(chunk, local));
            }
        }
    }

    /// A window keeps exactly the offsets of a chunk's runs that lie in
    /// the box, each piece inside one chunk row unless the box is the
    /// whole chunk — in ragged 1-, 2- and 3-D chunks, for boxes down to
    /// one row or one column thick, chunks the region misses, and runs
    /// of every length from one point to the whole chunk.
    #[test]
    fn a_window_keeps_exactly_the_box() {
        let cases = [
            (vec![16], vec![5], vec![vec![(3, 12)], vec![(7, 8)]]),
            (
                vec![10, 7],
                vec![4, 3],
                vec![
                    vec![(1, 9), (2, 6)],
                    vec![(5, 6), (0, 7)],
                    vec![(0, 10), (4, 5)],
                    vec![(0, 10), (0, 7)],
                ],
            ),
            (
                vec![6, 5, 4],
                vec![4, 2, 3],
                vec![
                    vec![(1, 5), (1, 4), (1, 3)],
                    vec![(2, 3), (0, 5), (3, 4)],
                    vec![(0, 6), (3, 4), (0, 4)],
                ],
            ),
        ];
        for (shape, chunk_shape, regions) in cases {
            let grid = ChunkGrid::new(shape, chunk_shape);
            let mut window = Window::new(grid.dims());
            let mut coords = vec![0usize; grid.dims()];
            for region in regions.into_iter().map(Region::new) {
                for chunk in 0..grid.num_chunks() {
                    let ranges = grid.chunk_region(chunk).ranges().to_vec();
                    let whole = region.contains_region(&grid.chunk_region(chunk));
                    let (c0, c1) = ranges[ranges.len() - 1];
                    let row_w = (c1 - c0) as u64;
                    let points = grid.chunk_points(chunk) as u64;
                    // Runs of `len` every `len + gap` offsets, in order.
                    for (len, gap) in [(1, 0), (1, 2), (3, 1), (5, 4), (points, 0)] {
                        window.set_chunk(&ranges, Some(region.ranges()));
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        let mut start = 0;
                        while start < points {
                            let len = len.min(points - start);
                            window.clip(start, len, |at, take| {
                                assert!(whole || at / row_w == (at + take - 1) / row_w);
                                got.extend(at..at + take);
                            });
                            want.extend((start..start + len).filter(|&l| {
                                local_to_coords_into(&ranges, l, &mut coords);
                                region.contains(&coords)
                            }));
                            start += len + gap;
                        }
                        assert_eq!(got, want, "{region:?}, chunk {chunk}, runs ({len}, {gap})");
                    }
                }
            }
        }
    }

    /// A chunk's probes are exactly the filter's points inside the chunk
    /// and the box, as rising chunk-local offsets — in ragged 1-, 2- and
    /// 3-D chunks, with and without a region, for filters from every
    /// point to every seventh.
    #[test]
    fn probe_offsets_are_the_filter_inside_the_box() {
        let cases = [
            (vec![16], vec![5], vec![(3, 12)]),
            (vec![10, 7], vec![4, 3], vec![(1, 9), (2, 6)]),
            (vec![6, 5, 4], vec![4, 2, 3], vec![(1, 5), (1, 4), (1, 3)]),
        ];
        for (shape, chunk_shape, region) in cases {
            let grid = ChunkGrid::new(shape, chunk_shape);
            let mut coords = vec![0usize; grid.dims()];
            let region = Region::new(region);
            for every in [1, 2, 7] {
                let filter: Vec<u64> = (1..grid.num_points() as u64).step_by(every).collect();
                for chunk in 0..grid.num_chunks() {
                    let ranges = grid.chunk_region(chunk).ranges().to_vec();
                    for boxed in [None, Some(region.ranges())] {
                        let mut got = Vec::new();
                        probe_offsets(&filter, grid.shape(), &ranges, boxed, &mut coords, &mut got);
                        let want: Vec<u64> = (0..grid.chunk_points(chunk) as u64)
                            .filter(|&l| {
                                local_to_coords_into(&ranges, l, &mut coords);
                                let inside = boxed.is_none() || region.contains(&coords);
                                inside && filter.binary_search(&grid.linearize(&coords)).is_ok()
                            })
                            .collect();
                        assert_eq!(got, want, "chunk {chunk}, every {every}, {boxed:?}");
                    }
                }
            }
        }
    }

    /// A unit's hits are the probes that are set bits, each with the
    /// rank of its bit.
    #[test]
    fn hits_are_the_probes_that_are_set_bits() {
        let bits: Vec<u64> = (0..200u64)
            .filter(|x| x % 5 < 2 || (90..130).contains(x))
            .collect();
        let list = mloc_bitmap::RunList::from_sorted_positions(200, &bits);
        let runs = list.as_ref();
        for probes in [
            vec![],
            vec![0, 1, 2, 199],
            (0..200).step_by(3).collect::<Vec<u64>>(),
        ] {
            let mut got = Vec::new();
            for_each_hit(runs, &probes, |at, vi| got.push((at, vi)));
            let want: Vec<(u64, usize)> = (probes.iter())
                .filter_map(|p| bits.binary_search(p).ok().map(|vi| (*p, vi)))
                .collect();
            assert_eq!(got, want, "{probes:?}");
        }
    }
}
