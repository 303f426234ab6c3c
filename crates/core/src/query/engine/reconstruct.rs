//! Stage 3 — reconstruct: walk each unit's run list, assemble values,
//! filter, and map chunk-local offsets to global positions.
//!
//! The hot path is run-aware (see `DESIGN.md`, "hot-path memory
//! discipline"): the loops consume runs of set bits, each from the
//! unit's run list (decoded and checked once, when its bitmap was
//! admitted), so a run becomes one bulk range operation, and per-chunk
//! scratch buffers (PLoD floats, coordinates) are reused across work
//! units. The per-point general path is kept as the differential
//! oracle the bulk paths are tested against.

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

/// Decompose a chunk-local offset into global coordinates without
/// allocating (scratch holds the result).
#[inline]
fn local_to_coords_into(ranges: &[(usize, usize)], mut local: u64, scratch: &mut [usize]) {
    for d in (0..ranges.len()).rev() {
        let (s, e) = ranges[d];
        let extent = (e - s) as u64;
        scratch[d] = s + (local % extent) as usize;
        local /= extent;
    }
}

/// Sorted-slice membership with a monotone cursor: a galloping
/// replacement for the old `HashSet<u64>` position filter. Queries
/// must arrive in non-decreasing order (which reconstruction
/// guarantees per work unit: chunk-local row-major order maps
/// monotonically to global row-major positions).
struct Gallop<'a> {
    sorted: &'a [u64],
    idx: usize,
}

impl<'a> Gallop<'a> {
    fn new(sorted: &'a [u64]) -> Self {
        Gallop { sorted, idx: 0 }
    }

    /// Advance the cursor to the first element `>= x`.
    fn seek(&mut self, x: u64) {
        let s = self.sorted;
        if self.idx >= s.len() || s[self.idx] >= x {
            return;
        }
        // Gallop: double the step until the window brackets x, then
        // binary-search inside it. O(log distance) per call, O(n + m
        // log n/m) over an intersection.
        let mut lo = self.idx; // invariant: s[lo] < x
        let mut step = 1usize;
        while lo + step < s.len() && s[lo + step] < x {
            lo += step;
            step <<= 1;
        }
        let hi = (lo + step + 1).min(s.len());
        self.idx = lo + 1 + s[lo + 1..hi].partition_point(|&v| v < x);
    }

    /// Whether `x` is in the set; advances the cursor.
    fn contains(&mut self, x: u64) -> bool {
        self.seek(x);
        self.idx < self.sorted.len() && self.sorted[self.idx] == x
    }

    /// All elements in `[lo, hi)`; advances the cursor past them.
    fn range(&mut self, lo: u64, hi: u64) -> &'a [u64] {
        self.seek(lo);
        let start = self.idx;
        let end = start + self.sorted[start..].partition_point(|&v| v < hi);
        self.idx = end;
        &self.sorted[start..end]
    }
}

/// Incremental chunk-local → global row-major position cursor.
///
/// Replaces per-point `local_to_coords` + `linearize` (a div/mod plus
/// a multiply/add per dimension per point): the cursor starts at
/// chunk-local offset 0 and only ever moves forward by run lengths, so
/// a whole chunk is walked with additions and odometer carries —
/// no division anywhere, not even per run.
struct ChunkEmitter {
    /// Global row-major stride per dimension (from the domain shape).
    strides: Vec<u64>,
    /// Current chunk's extent per dimension.
    extents: Vec<u64>,
    /// Odometer: chunk-local coordinates of the cursor's row.
    c: Vec<u64>,
    /// Global position of the cursor's row start.
    row_base: u64,
    /// Cursor offset within the current row.
    in_row: u64,
    /// Innermost (contiguous) extent: the chunk row width.
    row_w: u64,
    /// Chunk rows after the cursor's row.
    rows_left: u64,
}

impl ChunkEmitter {
    fn new(shape: &[usize]) -> Self {
        let dims = shape.len();
        let mut strides = vec![1u64; dims];
        for d in (0..dims.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * shape[d + 1] as u64;
        }
        ChunkEmitter {
            strides,
            extents: vec![0; dims],
            c: vec![0; dims],
            row_base: 0,
            in_row: 0,
            row_w: 0,
            rows_left: 0,
        }
    }

    /// Point the cursor at chunk-local offset 0 of a chunk, given its
    /// clamped region ranges.
    fn set_chunk(&mut self, ranges: &[(usize, usize)]) {
        debug_assert_eq!(ranges.len(), self.strides.len());
        self.row_base = 0;
        let mut rows = 1u64;
        for (d, &(s, e)) in ranges.iter().enumerate() {
            self.extents[d] = (e - s) as u64;
            self.c[d] = 0;
            self.row_base += s as u64 * self.strides[d];
            rows *= self.extents[d];
        }
        self.in_row = 0;
        // A chunk of no dimensions would be one point: a row of one.
        self.row_w = self.extents.last().copied().unwrap_or(1);
        self.rows_left = (rows / self.row_w.max(1)).saturating_sub(1);
    }

    /// Carry the odometer into the next chunk row. Must not be called
    /// with `rows_left == 0`.
    #[inline]
    fn next_row(&mut self) {
        self.in_row = 0;
        self.rows_left -= 1;
        let mut d = self.extents.len() - 2;
        loop {
            self.c[d] += 1;
            self.row_base += self.strides[d];
            if self.c[d] < self.extents[d] {
                return;
            }
            self.row_base -= self.extents[d] * self.strides[d];
            self.c[d] = 0;
            d -= 1;
        }
    }

    /// Move the cursor forward by `n` chunk-local offsets (a run of
    /// unset bits). A cursor landing exactly on the chunk end stays
    /// parked past the last row's width.
    fn advance(&mut self, n: u64) {
        self.in_row += n;
        while self.in_row >= self.row_w && self.rows_left > 0 {
            self.in_row -= self.row_w;
            let carry_over = self.in_row;
            self.next_row();
            self.in_row = carry_over;
        }
    }

    /// Walk the next `len` chunk-local offsets (a run of set bits) as
    /// contiguous row segments, calling `f(g0, vi, take)` for each:
    /// `g0` is the segment's first global position, `vi` its first
    /// index into the chunk's reconstructed values (`vi0` + offset
    /// within the run), and `take` its point count. Consecutive global
    /// positions within a segment map to consecutive value indices, so
    /// callers filter and copy sub-slices instead of points. Leaves the
    /// cursor at the end of the run.
    fn walk_run<F>(&mut self, len: u64, vi0: usize, mut f: F)
    where
        F: FnMut(u64, usize, u64),
    {
        let w = self.row_w;
        let mut remaining = len;
        let mut vi = vi0;
        loop {
            // The run covers `take` contiguous global positions of the
            // cursor's chunk row.
            let take = remaining.min(w - self.in_row);
            f(self.row_base + self.in_row, vi, take);
            remaining -= take;
            vi += take as usize;
            self.in_row += take;
            if remaining == 0 {
                // Eagerly carry a row boundary (unless the chunk is
                // exhausted, where the cursor parks past the last row).
                if self.in_row == w && self.rows_left > 0 {
                    self.next_row();
                }
                return;
            }
            self.next_row();
        }
    }
}

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

/// Deferred per-chunk gather target for units with no per-point
/// filter.
///
/// Bin bitmaps over continuous data are scatter-heavy (isolated set
/// bits), so emitting per unit pays the row-major cursor *per set
/// bit*. Units that no position filter restricts instead place the
/// values of their points inside the query's region into a
/// chunk-shaped block with pure local arithmetic and mark them in
/// `mask`; after all groups, one pass over the global rows the chunks
/// cover emits whole row segments in bulk, in position order. The
/// mask — rather than assuming full coverage — keeps this correct when
/// a chunk's bins are split across ranks by the column-order
/// assignment. It never holds a point outside the region.
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

/// What the per-unit emission paths see of one unit: its run list,
/// and — on the position-filtered, membership and general paths —
/// values assembled whole.
struct UnitView<'u> {
    unit: &'u WorkUnit,
    /// The chunk's extent per dimension, clamped at the domain edge.
    ranges: &'u [(usize, usize)],
    runs: RunListRef<'u>,
    /// The unit's values in bitmap rank order, present iff they must
    /// be checked against the value constraint.
    filter_vals: Option<&'u [f64]>,
    /// The same values, present iff the query outputs values.
    out_vals: Option<&'u [f64]>,
}

/// Whether `v` satisfies the half-open value constraint `[lo, hi)`.
#[inline]
fn within((lo, hi): (f64, f64), v: f64) -> bool {
    v >= lo && v < hi
}

/// Buffers reused across every chunk of every bin: the PLoD assembly
/// targets (a whole unit, and a piece a value filter tests) and the
/// chunk's clamped ranges.
#[derive(Default)]
struct Scratch {
    values: Vec<f64>,
    piece: Vec<f64>,
    ranges: Vec<(usize, usize)>,
}

/// One rank's reconstruct stage.
pub(crate) struct Reconstructor<'j, 'a> {
    job: &'j RankJob<'j, 'a>,
    /// Sorted, duplicate-free global positions the output is
    /// restricted to: the caller's filter, else a membership query's
    /// point set.
    filter: Option<&'j [u64]>,
    /// The query is a point-set probe (no caller filter overrides it).
    membership: bool,
    /// Record refinable units for a progressive ladder (see
    /// [`Refinement`]).
    capture: bool,
    /// The value constraint, unbounded when the query has none.
    vc: (f64, f64),
    /// Parts of a data-bearing unit the query's PLoD level uses.
    pub n_parts: usize,
    scratch: Scratch,
    coords: Vec<usize>,
    emitter: ChunkEmitter,
    window: Window,
    /// Scatter targets for filterless units, keyed by row-major chunk
    /// id (the order emission walks them in), emitted in bulk after
    /// the last bin.
    scatter: BTreeMap<usize, ChunkScatter>,
    /// Membership probes answered from a stored bitmap's runs (a full
    /// chunk's point needs none).
    pub rank_calls: u64,
    /// Allocation proxy: bytes PLoD assembly materialized, 8 per kept
    /// point.
    pub copy_bytes: u64,
}

impl<'j, 'a> Reconstructor<'j, 'a> {
    pub fn new(job: &'j RankJob<'j, 'a>) -> Self {
        let (grid, req) = (job.store.grid(), &job.req);
        debug_assert!(
            req.position_filter
                .is_none_or(|f| f.windows(2).all(|w| w[0] < w[1])),
            "position filter must be sorted and duplicate-free"
        );
        Reconstructor {
            job,
            // A membership query routes its sorted point set through
            // the same position-filter machinery as multi-variable
            // retrieval, so every execution mode inherits that path's
            // correctness; an explicit caller filter wins (multivar
            // pre-intersects the point set itself and keeps the
            // streaming gallop route).
            filter: req.position_filter.or(req.query.points.as_deref()),
            membership: req.position_filter.is_none() && req.query.points.is_some(),
            capture: req.capture_refine && job.store.config().plod && req.query.wants_values(),
            vc: req.query.vc.unwrap_or((f64::MIN, f64::MAX)),
            n_parts: parts_used(job.store.config(), req.query),
            scratch: Scratch::default(),
            coords: vec![0; grid.dims()],
            emitter: ChunkEmitter::new(grid.shape()),
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

    /// Whether units defer to the per-chunk scatter (emitted by
    /// [`Self::emit_deferred`]) rather than emit one by one: every unit
    /// of a request no position filter restricts does.
    pub fn defers(&self) -> bool {
        !self.job.req.force_general_reconstruct && self.filter.is_none()
    }

    /// Reconstruct unit `gi` of a bin's group into `out`, or defer it
    /// to the per-chunk scatter ([`Self::emit_deferred`]). A unit
    /// emitted here is one run of `out`: its run walk rises in global
    /// position.
    pub fn unit(
        &mut self,
        gi: usize,
        u: &WorkUnit,
        bin: &BinBlocks,
        out: &mut RankOutput,
    ) -> Result<()> {
        // The scratch is lent to the unit's view for the call, so the
        // paths can borrow `self` whole.
        let mut scratch = std::mem::take(&mut self.scratch);
        let start = out.positions.len();
        let done = self.unit_with(&mut scratch, gi, u, bin, out);
        out.close_run(start);
        self.scratch = scratch;
        done
    }

    fn unit_with(
        &mut self,
        scratch: &mut Scratch,
        gi: usize,
        u: &WorkUnit,
        bin: &BinBlocks,
        out: &mut RankOutput,
    ) -> Result<()> {
        let count = bin.fixed.index.count(u.chunk_rank);
        if count == 0 {
            return Ok(());
        }
        let (store, req) = (self.job.store, &self.job.req);
        let query = req.query;
        let ranges = &mut scratch.ranges;
        store
            .grid()
            .chunk_ranges_into(store.order().cell_at(u.chunk_rank), ranges);
        let chunk_points: u64 = ranges.iter().map(|&(s, e)| (e - s) as u64).product();
        let deferred = self.defers();
        // A refinable unit — PLoD data-bearing, values wanted, no value
        // filter, no position filter — is recorded even when it keeps
        // no point, so a refinement pull reads what a one-shot query at
        // its level would.
        let capture = self.capture && deferred && u.needs_data && !u.value_filter;
        if capture {
            let at = out.refine.val_idx.len();
            out.refine.units.push(RefineUnit {
                bin: u.bin,
                chunk_rank: u.chunk_rank,
                count,
                fixed: Arc::clone(&bin.fixed),
                points: at..at,
            });
        }
        if deferred {
            // A deferred unit keeps only its set bits inside the
            // region: when the chunk's summary puts them all before or
            // after the region's box, it has nothing to walk.
            self.window.set_chunk(ranges, self.region(u));
            let summary = bin.fixed.summaries.as_ref().map(|s| s.get(u.chunk_rank));
            if summary.is_some_and(|s| !self.window.meets(s)) {
                return Ok(());
            }
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

        if deferred {
            let bufs = (&mut scratch.values, &mut scratch.piece);
            let refine = capture.then_some(&mut out.refine);
            return self.defer(u, runs, src, chunk_points, bufs, refine);
        }

        // The other per-unit paths read the unit's values whole.
        let vals: Option<&[f64]> = match src {
            Source::Index => None,
            Source::Plod(parts) => {
                parts.assemble_into(&mut scratch.values);
                self.copy_bytes += std::mem::size_of_val(scratch.values.as_slice()) as u64;
                Some(&scratch.values[..])
            }
            Source::Floats(block) => Some(block),
        };
        let v = UnitView {
            unit: u,
            ranges,
            runs,
            filter_vals: vals.filter(|_| u.value_filter),
            out_vals: vals.filter(|_| query.wants_values()),
        };

        if self.membership && !req.force_general_reconstruct && !u.spatial_filter {
            let summary = bin.fixed.summaries.as_ref().map(|s| s.get(u.chunk_rank));
            self.probe(&v, summary, bin.full[gi], out);
            return Ok(());
        }
        if req.force_general_reconstruct {
            self.general(&v, out);
        } else if let Some(filter) = self.filter {
            self.filtered(&v, filter, out);
        }
        Ok(())
    }

    /// Membership probe path: a point-set query answers only a handful
    /// of probes per chunk. Its points, sorted, rise in chunk-local
    /// order too, so they merge against the unit's runs in one forward
    /// pass: a probe inside a run is present, its value index the run's
    /// rank plus its offset in the run. The general path stays
    /// available as the differential oracle.
    fn probe(
        &mut self,
        v: &UnitView<'_>,
        summary: Option<ChunkSummary>,
        full: bool,
        out: &mut RankOutput,
    ) {
        let (grid, filter) = (self.job.store.grid(), self.filter.unwrap_or(&[]));
        // Points that can fall in this chunk lie between the chunk
        // corners' global linear positions.
        for (d, r) in v.ranges.iter().enumerate() {
            self.coords[d] = r.0;
        }
        let g_lo = grid.linearize(&self.coords);
        for (d, r) in v.ranges.iter().enumerate() {
            self.coords[d] = r.1 - 1;
        }
        let g_hi = grid.linearize(&self.coords);
        let lo_i = filter.partition_point(|&p| p < g_lo);
        let hi_i = filter.partition_point(|&p| p <= g_hi);
        let shape = grid.shape();
        let mut runs = v.runs.iter();
        let mut run = runs.next();
        'probe: for &p in &filter[lo_i..hi_i] {
            // Global position → coordinates → chunk-local offset. The
            // corner window is a superset of the chunk's box, so
            // out-of-box points still occur.
            let mut rem = p;
            for d in (0..shape.len()).rev() {
                self.coords[d] = (rem % shape[d] as u64) as usize;
                rem /= shape[d] as u64;
            }
            let mut local = 0u64;
            for (d, r) in v.ranges.iter().enumerate() {
                let c = self.coords[d];
                if c < r.0 || c >= r.1 {
                    continue 'probe;
                }
                local = local * (r.1 - r.0) as u64 + (c - r.0) as u64;
            }
            // Level-1 cull: the summary bounds the set span.
            if summary.is_some_and(|s| local < u64::from(s.min_pos) || local > u64::from(s.max_pos))
            {
                continue;
            }
            self.rank_calls += u64::from(!full);
            while let Some((start, _, len)) = run {
                if start + len > local {
                    break;
                }
                run = runs.next();
            }
            let Some((start, ones_before, _)) = run.filter(|r| r.0 <= local) else {
                continue;
            };
            let vi = (ones_before + local - start) as usize;
            if v.filter_vals.is_some_and(|f| !within(self.vc, f[vi])) {
                continue;
            }
            out.positions.push(p);
            if let Some(vals) = v.out_vals {
                out.values.push(vals[vi]);
            }
        }
    }

    /// Walk unit `v`'s set bits inside the query's region as global row
    /// segments, in rising position order, calling `f(g0, vi, take)`
    /// for each: its first global position, the index of its first
    /// value, and its point count.
    fn for_each_segment(&mut self, v: &UnitView<'_>, mut f: impl FnMut(u64, usize, u64)) {
        let region = self.region(v.unit);
        self.window.set_chunk(v.ranges, region);
        let (emitter, mut at) = (&mut self.emitter, 0);
        emitter.set_chunk(v.ranges);
        for_each_kept(v.runs, &mut self.window, |li, vi, take| {
            emitter.advance(li - at);
            at = li + take;
            emitter.walk_run(take, vi, &mut f);
        })
    }

    /// Defer a position-filterless unit to its chunk's scatter: each
    /// run of set bits is cut to the query's region ([`Window`]), and
    /// each kept piece — a contiguous range of value indices — lands in
    /// its place in the chunk-local block and is marked in the coverage
    /// mask, with pure local arithmetic: no row-major cursor per set
    /// bit. A unit of a chunk the region straddles assembles only its
    /// kept pieces, straight into the block; a unit of a chunk wholly
    /// inside keeps every set bit, so it is assembled whole in one pass
    /// and read like a float block. A value filter tests the kept
    /// points only (one compare each) and stores the survivors. One
    /// bulk emission maps every chunk's survivors to global positions,
    /// in order, after the last bin. A refinable unit of a capturing
    /// request also appends its kept points' value indices to `refine`
    /// and marks each point's slot with its place there. The window is
    /// already aimed at the unit's chunk.
    fn defer(
        &mut self,
        u: &WorkUnit,
        runs: RunListRef<'_>,
        src: Source<'_>,
        chunk_points: u64,
        (whole, piece): (&mut Vec<f64>, &mut Vec<f64>),
        refine: Option<&mut Refinement>,
    ) -> Result<()> {
        let (vc, keep_values) = (self.vc, self.job.req.query.wants_values());
        let plod = matches!(src, Source::Plod(_));
        let src = match src {
            Source::Plod(parts) if self.window.whole => {
                parts.assemble_into(whole);
                Source::Floats(whole)
            }
            src => src,
        };
        let (chunk, capture) = (self.job.store.order().cell_at(u.chunk_rank), self.capture);
        let e = self.scatter.entry(chunk).or_insert_with(|| {
            let mut e = SCATTER_POOL.with_borrow_mut(Vec::pop).unwrap_or_default();
            debug_assert!(e.block.iter().all(|&x| x == 0.0));
            debug_assert!(e.mask.iter().all(|&w| w == 0));
            debug_assert!(e.slots.is_empty());
            if keep_values {
                e.block.resize(chunk_points as usize, 0.0);
            }
            e.mask.resize((chunk_points as usize).div_ceil(64), 0);
            if capture {
                e.slots = SLOT_POOL.with_borrow_mut(Vec::pop).unwrap_or_default();
                debug_assert!(e.slots.iter().all(|&s| s == 0));
                e.slots.resize(chunk_points as usize, 0);
            }
            e
        });
        let window = &mut self.window;
        // Every kept piece lies inside the unit (its run list's count was
        // checked against the unit's), so a source refusing one is a
        // damaged store: flagged here, reported once after the walk.
        let (mut kept, mut bad) = (0u64, false);
        if u.value_filter {
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
                            e.block[li as usize] = val;
                            e.mask[(li / 64) as usize] |= 1u64 << (li % 64);
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
                            e.mask[(li / 64) as usize] |= 1u64 << (li % 64);
                        }
                    }
                })
            }
        } else if let Some(refine) = refine {
            let first = refine.val_idx.len();
            for_each_kept(runs, window, |at, vi, take| {
                kept += take;
                bad |= !src.fill(vi, &mut e.block[at as usize..(at + take) as usize]);
                set_bits(&mut e.mask, at, take);
                let (at, len) = (at as usize, take as usize);
                let marks = refine.val_idx.len() + 1..;
                for (slot, mark) in e.slots[at..at + len].iter_mut().zip(marks) {
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
                bad |= !src.fill(vi, &mut e.block[at as usize..(at + take) as usize]);
                set_bits(&mut e.mask, at, take);
            })
        } else {
            for_each_kept(runs, window, |at, _, take| set_bits(&mut e.mask, at, take))
        }
        if plod {
            self.copy_bytes += 8 * kept;
        }
        if bad {
            return Err(MlocError::Corrupt("value index past its unit"));
        }
        Ok(())
    }

    /// General path: per-point value/spatial checks. Kept close to the
    /// pre-optimization loop so the bulk paths can be differentially
    /// tested against it.
    fn general(&mut self, v: &UnitView<'_>, out: &mut RankOutput) {
        let mut gallop = self.filter.map(Gallop::new);
        let (grid, query) = (self.job.store.grid(), self.job.req.query);
        let region = query.sc.as_ref().filter(|_| v.unit.spatial_filter);
        let ones = v.runs.iter().flat_map(|(at, ones_before, len)| {
            (0..len).map(move |k| ((ones_before + k) as usize, at + k))
        });
        for (pos_idx, local) in ones {
            if v.filter_vals.is_some_and(|f| !within(self.vc, f[pos_idx])) {
                continue;
            }
            local_to_coords_into(v.ranges, local, &mut self.coords);
            if region.is_some_and(|r| !r.contains(&self.coords)) {
                continue;
            }
            let global = grid.linearize(&self.coords);
            if gallop.as_mut().is_some_and(|g| !g.contains(global)) {
                continue;
            }
            out.positions.push(global);
            if let Some(vals) = v.out_vals {
                out.values.push(vals[pos_idx]);
            }
        }
    }

    /// Position-filtered (multi-variable) path: walk the unit's set
    /// bits inside the region as global row segments, gallop the sorted
    /// filter over each segment, and apply the value constraint to the
    /// survivors.
    fn filtered(&mut self, v: &UnitView<'_>, filter: &[u64], out: &mut RankOutput) {
        let vc = self.vc;
        let mut gallop = Gallop::new(filter);
        self.for_each_segment(v, |g0, vi, take| {
            for &p in gallop.range(g0, g0 + take) {
                let k = (p - g0) as usize;
                if v.filter_vals.is_some_and(|f| !within(vc, f[vi + k])) {
                    continue;
                }
                out.positions.push(p);
                if let Some(vals) = v.out_vals {
                    out.values.push(vals[vi + k]);
                }
            }
        });
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
            strides: &self.emitter.strides,
            keep_values: query.wants_values(),
        };
        let refine = &mut out.refine;
        refine.result_idx.resize(refine.val_idx.len(), 0);
        let start = out.positions.len();
        walk.rows(&mut pending, 0, 0, out);
        out.close_run(start);
        SCATTER_POOL.with_borrow_mut(|pool| {
            SLOT_POOL.with_borrow_mut(|slot_pool| {
                for Pending { mut scatter, .. } in pending {
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
        let ChunkScatter { block, mask, slots } = &mut chunk.scatter;
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

    #[test]
    fn chunk_emitter_matches_per_point_mapping() {
        for (shape, chunk_shape) in [
            (vec![10usize, 7], vec![4usize, 3]),
            (vec![16], vec![5]),
            (vec![6, 5, 4], vec![4, 2, 3]),
        ] {
            let grid = ChunkGrid::new(shape.clone(), chunk_shape);
            let mut emitter = ChunkEmitter::new(grid.shape());
            let mut coords = vec![0usize; grid.dims()];
            for chunk in 0..grid.num_chunks() {
                let region = grid.chunk_region(chunk);
                emitter.set_chunk(region.ranges());
                let points = grid.chunk_points(chunk) as u64;
                // Every (start, len) run inside the chunk.
                for start in 0..points {
                    for len in 1..=(points - start).min(9) {
                        let mut got = Vec::new();
                        emitter.set_chunk(region.ranges());
                        emitter.advance(start);
                        emitter.walk_run(len, 0, |g0, _, take| {
                            got.extend(g0..g0 + take);
                        });
                        let want: Vec<u64> = (start..start + len)
                            .map(|l| {
                                local_to_coords_into(region.ranges(), l, &mut coords);
                                grid.linearize(&coords)
                            })
                            .collect();
                        assert_eq!(
                            got, want,
                            "shape {shape:?} chunk {chunk} run ({start},{len})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_emitter_copies_values_and_filters() {
        let grid = ChunkGrid::new(vec![8, 8], vec![4, 4]);
        let mut emitter = ChunkEmitter::new(grid.shape());
        let region = grid.chunk_region(3); // rows 4..8, cols 4..8
        emitter.set_chunk(region.ranges());
        let vals: Vec<f64> = (0..16).map(|i| i as f64 * 10.0).collect();
        // Run covering the whole chunk, filtered to three positions.
        let all: Vec<u64> = {
            let mut p = Vec::new();
            emitter.walk_run(16, 0, |g0, _, take| p.extend(g0..g0 + take));
            p
        };
        let filter = vec![all[1], all[7], all[14]];
        let mut gallop = Gallop::new(&filter);
        let mut positions = Vec::new();
        let mut values = Vec::new();
        emitter.set_chunk(region.ranges());
        emitter.walk_run(16, 0, |g0, vi, take| {
            for &e in gallop.range(g0, g0 + take) {
                positions.push(e);
                values.push(vals[vi + (e - g0) as usize]);
            }
        });
        assert_eq!(positions, filter);
        assert_eq!(values, vec![10.0, 70.0, 140.0]);
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

    #[test]
    fn gallop_matches_linear_intersection() {
        let sorted: Vec<u64> = (0..1000u64).filter(|x| x % 7 == 0).collect();
        let mut g = Gallop::new(&sorted);
        for x in 0..1000u64 {
            // Monotone probes only.
            if x % 3 != 0 {
                continue;
            }
            assert_eq!(g.contains(x), x % 7 == 0, "x={x}");
        }
        let mut g = Gallop::new(&sorted);
        assert_eq!(g.range(10, 30), &[14, 21, 28]);
        assert_eq!(g.range(30, 36), &[35]);
        assert_eq!(g.range(990, 2000), &[994]);
        assert!(g.range(2000, 3000).is_empty());
    }
}
