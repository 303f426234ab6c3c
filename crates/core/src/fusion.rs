//! Cross-query extent fusion: one physical read serves every
//! concurrently admitted session that wants an overlapping extent.
//!
//! The query engine already coalesces each rank's `(offset, len)`
//! wants into merged runs ([`plan_runs`]) and hands out [`ByteView`]s
//! into the shared run buffer. Fusion extends that sharing *across*
//! sessions: an [`ExtentFuser`] keeps an admission-window table of
//! extents that are in flight or already read, so a run that equals or
//! is contained in another session's run is served from the same
//! `Arc`-backed buffer instead of touching the PFS again.
//!
//! Three rules make this safe and deterministic (see `DESIGN.md` §13):
//!
//! * **Single flight.** The first session to want an extent registers
//!   it and performs the read; concurrent sessions wanting a contained
//!   range block on that read and share its buffer. Waiters only ever
//!   wait on an active physical read, never on each other, so there is
//!   no wait cycle and no deadlock.
//! * **Window persistence.** Completed reads stay in the table for the
//!   rest of the admission window (bounded by a byte budget), so
//!   whether a session fuses depends on *what* was read this window,
//!   not on thread timing. [`ExtentFuser::begin_window`] starts the
//!   next window.
//! * **Fail loudly, fail everyone.** A leader whose read fails
//!   publishes the failure; every waiter (and the leader itself) falls
//!   back to its own per-want reads, so all sessions observe the same
//!   per-want outcome. Every want is CRC-checked ([`ExtentFooter`]) in
//!   the session that slices it, against that session's own checksum
//!   table: a fused want is checked exactly like an unfused one, and no
//!   verdict crosses sessions.
//!
//! Like the block cache, fusion relies on built variables being
//! immutable: two reads of the same extent always see the same bytes,
//! so sharing buffers within a window can never mask a change.

use crate::cache::ByteView;
use crate::integrity::ExtentFooter;
use crate::{MlocError, Result};
use mloc_pfs::{RankIo, ReadRequest};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Reads closer together than this are merged into one request —
/// mirroring what a real PFS client's readahead would do anyway.
pub const COALESCE_GAP: u64 = 4096;

/// One merged read: the half-open byte range `[start, end)` and the
/// indices of the wants it serves, in offset order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WantRun {
    /// First byte of the merged extent.
    pub start: u64,
    /// One past the last byte of the merged extent.
    pub end: u64,
    /// Indices into the original want list, sorted by `(offset, len)`.
    pub wants: Vec<usize>,
}

/// Merge `(offset, len)` wants into the minimal set of runs whose
/// members are within `gap` bytes of the growing run end.
///
/// Zero-length wants are skipped (they resolve to the shared empty
/// view without a read). Every nonzero want lands in exactly one run,
/// runs are sorted and separated by more than `gap` bytes, and each
/// run's bounds are exactly the min offset / max end of its members —
/// the properties the fusion proptests pin down.
pub fn plan_runs(wants: &[(u64, u32)], gap: u64) -> Vec<WantRun> {
    let mut order: Vec<usize> = (0..wants.len()).filter(|&i| wants[i].1 > 0).collect();
    order.sort_unstable_by_key(|&i| wants[i]);
    let mut runs: Vec<WantRun> = Vec::new();
    for i in order {
        let (off, len) = wants[i];
        let end = off + u64::from(len);
        match runs.last_mut() {
            Some(r) if off <= r.end + gap => {
                r.end = r.end.max(end);
                r.wants.push(i);
            }
            _ => runs.push(WantRun {
                start: off,
                end,
                wants: vec![i],
            }),
        }
    }
    runs
}

/// Counters over the fuser's lifetime (never reset by
/// [`ExtentFuser::begin_window`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Physical reads performed by leaders.
    pub physical_reads: u64,
    /// Bytes those physical reads fetched.
    pub physical_bytes: u64,
    /// Runs served from another session's read.
    pub fused_reads: u64,
    /// Bytes of requested ranges served without a physical read.
    pub fused_bytes: u64,
    /// Leader reads that failed (each fans out as a per-want fallback).
    pub failed_reads: u64,
}

/// Result of a leader's physical read, published to its waiters.
enum FlightResult {
    Pending,
    Ready(Arc<Vec<u8>>),
    Failed,
}

/// Rendezvous between one leader and its waiters.
struct Flight {
    result: Mutex<FlightResult>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight {
            result: Mutex::new(FlightResult::Pending),
            cv: Condvar::new(),
        })
    }

    fn publish(&self, result: FlightResult) {
        *lock(&self.result) = result;
        self.cv.notify_all();
    }

    /// Block until the leader publishes; `None` means its read failed.
    fn wait(&self) -> Option<Arc<Vec<u8>>> {
        let mut r = lock(&self.result);
        loop {
            match &*r {
                FlightResult::Pending => {
                    r = self
                        .cv
                        .wait(r)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                }
                FlightResult::Ready(buf) => return Some(Arc::clone(buf)),
                FlightResult::Failed => return None,
            }
        }
    }
}

/// Publishes `Failed` if the leader unwinds before publishing, so
/// waiters are never stranded on a leader that panicked mid-read.
struct FlightGuard<'a> {
    flight: &'a Flight,
    armed: bool,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.flight.publish(FlightResult::Failed);
        }
    }
}

enum SlotState {
    InFlight(Arc<Flight>),
    Done(Arc<Vec<u8>>),
    Failed,
}

/// Outcome of [`ExtentFuser::acquire`]: resolved from the window — the
/// window extent's buffer (`None` when its read failed) and the file
/// offset that buffer starts at — wait on another session's flight to
/// the extent starting at that offset, or lead the physical read
/// yourself.
enum Acquire {
    Ready(Option<Arc<Vec<u8>>>, u64),
    Wait(Arc<Flight>, u64),
    Lead(Arc<Flight>),
}

struct Extent {
    start: u64,
    end: u64,
    /// Insertion order, for oldest-first eviction.
    seq: u64,
    state: SlotState,
}

#[derive(Default)]
struct FuserState {
    /// Per-file extents of the current admission window.
    extents: HashMap<String, Vec<Extent>>,
    /// Bytes held by `Done` extents.
    resident: u64,
    seq: u64,
}

/// Lock a mutex, surviving a poisoned lock (a panicking session must
/// not take the whole server's fusion window down with it).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The admission-window extent table shared by concurrently admitted
/// sessions. Attach one to every [`crate::MlocStore`] of a window via
/// [`crate::MlocStore::with_fusion`]; call [`ExtentFuser::begin_window`]
/// between windows.
pub struct ExtentFuser {
    window_bytes: u64,
    state: Mutex<FuserState>,
    physical_reads: AtomicU64,
    physical_bytes: AtomicU64,
    fused_reads: AtomicU64,
    fused_bytes: AtomicU64,
    failed_reads: AtomicU64,
}

impl std::fmt::Debug for ExtentFuser {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtentFuser")
            .field("window_bytes", &self.window_bytes)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ExtentFuser {
    /// A fuser whose completed-read window retains up to
    /// `window_bytes` of extent buffers (the newest extent may
    /// transiently exceed the budget rather than being unsharable).
    pub fn with_window_bytes(window_bytes: u64) -> Self {
        ExtentFuser {
            window_bytes,
            state: Mutex::new(FuserState::default()),
            physical_reads: AtomicU64::new(0),
            physical_bytes: AtomicU64::new(0),
            fused_reads: AtomicU64::new(0),
            fused_bytes: AtomicU64::new(0),
            failed_reads: AtomicU64::new(0),
        }
    }

    /// [`ExtentFuser::with_window_bytes`] in mebibytes.
    pub fn with_window_mb(mb: u64) -> Self {
        ExtentFuser::with_window_bytes(mb * 1024 * 1024)
    }

    /// Start a new admission window: drop every retained extent.
    /// Counters are cumulative and survive the rotation.
    pub fn begin_window(&self) {
        let mut st = lock(&self.state);
        st.extents.clear();
        st.resident = 0;
    }

    /// Lifetime counters.
    pub fn stats(&self) -> FusionStats {
        FusionStats {
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            physical_bytes: self.physical_bytes.load(Ordering::Relaxed),
            fused_reads: self.fused_reads.load(Ordering::Relaxed),
            fused_bytes: self.fused_bytes.load(Ordering::Relaxed),
            failed_reads: self.failed_reads.load(Ordering::Relaxed),
        }
    }

    /// First phase of a fused read: under one table lock, either
    /// resolve `[start, end)` from the window (done/failed), pick up
    /// the flight to wait on, or register this session as the leader.
    /// Splitting acquisition from the physical read lets a session
    /// acquire a whole window of runs, service every run it leads in
    /// **one** submitted batch, publish, and only then wait on other
    /// sessions' flights — leaders never wait before publishing, so
    /// two sessions leading each other's runs cannot deadlock.
    fn acquire(&self, file: &str, start: u64, end: u64) -> Acquire {
        let mut st = lock(&self.state);
        let found = st
            .extents
            .get(file)
            .and_then(|v| v.iter().find(|e| e.start <= start && end <= e.end));
        match found {
            Some(e) => match &e.state {
                SlotState::Done(buf) => {
                    self.fused_reads.fetch_add(1, Ordering::Relaxed);
                    self.fused_bytes.fetch_add(end - start, Ordering::Relaxed);
                    Acquire::Ready(Some(Arc::clone(buf)), e.start)
                }
                SlotState::Failed => Acquire::Ready(None, start),
                SlotState::InFlight(f) => Acquire::Wait(Arc::clone(f), e.start),
            },
            None => {
                let flight = Flight::new();
                let seq = st.seq;
                st.seq += 1;
                st.extents
                    .entry(file.to_string())
                    .or_default()
                    .push(Extent {
                        start,
                        end,
                        seq,
                        state: SlotState::InFlight(Arc::clone(&flight)),
                    });
                Acquire::Lead(flight)
            }
        }
    }

    /// Leader's second phase: publish the read's outcome to waiters,
    /// settle the table slot, and account the physical read.
    fn finish_lead(
        &self,
        file: &str,
        start: u64,
        end: u64,
        flight: &Arc<Flight>,
        buf: &Option<Arc<Vec<u8>>>,
    ) {
        flight.publish(match buf {
            Some(b) => FlightResult::Ready(Arc::clone(b)),
            None => FlightResult::Failed,
        });
        self.settle(file, start, end, flight, buf);
        match buf {
            Some(b) => {
                self.physical_reads.fetch_add(1, Ordering::Relaxed);
                self.physical_bytes
                    .fetch_add(b.len() as u64, Ordering::Relaxed);
            }
            None => {
                self.failed_reads.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Waiter's second phase: block on the leader's flight and account
    /// the fusion when it delivered bytes.
    fn finish_wait(&self, flight: &Flight, start: u64, end: u64) -> Option<Arc<Vec<u8>>> {
        let buf = flight.wait();
        if buf.is_some() {
            self.fused_reads.fetch_add(1, Ordering::Relaxed);
            self.fused_bytes.fetch_add(end - start, Ordering::Relaxed);
        }
        buf
    }

    /// Swap the leader's in-flight slot for its outcome and evict
    /// oldest completed extents beyond the window budget.
    fn settle(
        &self,
        file: &str,
        start: u64,
        end: u64,
        flight: &Arc<Flight>,
        buf: &Option<Arc<Vec<u8>>>,
    ) {
        let mut st = lock(&self.state);
        let Some(v) = st.extents.get_mut(file) else {
            return; // window rotated underneath the read
        };
        let Some(e) = v.iter_mut().find(|e| {
            e.start == start
                && e.end == end
                && matches!(&e.state, SlotState::InFlight(f) if Arc::ptr_eq(f, flight))
        }) else {
            return;
        };
        let new_seq = e.seq;
        match buf {
            Some(b) => {
                e.state = SlotState::Done(Arc::clone(b));
                st.resident += (end - start).max(b.len() as u64);
            }
            None => e.state = SlotState::Failed,
        }
        while st.resident > self.window_bytes {
            // Oldest completed extent other than the one just settled.
            let mut oldest: Option<(String, u64, u64)> = None; // file, seq, bytes
            for (f, exts) in st.extents.iter() {
                for e in exts {
                    if let SlotState::Done(b) = &e.state {
                        if e.seq != new_seq && oldest.as_ref().is_none_or(|(_, s, _)| e.seq < *s) {
                            oldest =
                                Some((f.clone(), e.seq, (e.end - e.start).max(b.len() as u64)));
                        }
                    }
                }
            }
            let Some((f, seq, bytes)) = oldest else { break };
            if let Some(exts) = st.extents.get_mut(&f) {
                exts.retain(|e| e.seq != seq);
                if exts.is_empty() {
                    st.extents.remove(&f);
                }
            }
            st.resident = st.resident.saturating_sub(bytes);
        }
    }
}

/// One want's outcome from [`coalesced_read_results`].
#[derive(Debug)]
pub struct WantRead {
    /// The verified view, or the per-want failure.
    pub res: Result<ByteView>,
    /// Whether another session's physical read served this want (the
    /// engine excludes fused wants from `bytes_read` and counts them
    /// in `fused_bytes_saved` instead).
    pub fused: bool,
}

/// Check one want's bytes at `off` against the caller's checksum
/// footer, when it has one.
fn verify_want(
    footer: Option<&ExtentFooter>,
    file: &str,
    off: u64,
    view: ByteView,
    verify_s: Option<&mut f64>,
) -> Result<ByteView> {
    match footer {
        Some(f) => f
            .verify_timed(file, off, view.as_slice(), verify_s)
            .map(|()| view),
        None => Ok(view),
    }
}

/// A resolved run: its backing buffer (None if the read failed), the
/// file offset the buffer starts at, and whether another session's
/// in-flight read supplied it.
type ResolvedRun = (Option<Arc<Vec<u8>>>, u64, bool);

/// Coalesce `(offset, len)` wants into merged extents ([`plan_runs`]),
/// read each extent once — or fuse it with a concurrent session's read
/// when `fuser` is supplied — and return a per-want outcome.
///
/// Views of the same extent share one backing buffer, so duplicate
/// `(offset, len)` wants cost one read and zero copies, and
/// zero-length wants resolve to the shared empty view without
/// allocating. A fused run is recorded in the rank's trace with the
/// `cached` flag set (the logical access stays visible; the simulator
/// charges nothing), exactly like a block-cache hit.
///
/// Failures are isolated per want: when a merged read fails — locally
/// or in the session that led it — each of its wants is re-read
/// individually so one bad extent doesn't take down its coalesced
/// neighbors, and when `footer` is supplied every want is CRC-checked
/// so only the extents that are actually damaged come back as
/// [`MlocError::CorruptExtent`]. Every want handed back has passed its
/// check in this call, against `footer`: a fused want is checked
/// exactly like one this session read itself. Callers decide per want
/// whether a failure is fatal or degradable. `verify_s`, when supplied,
/// accumulates the seconds those checks took.
pub fn coalesced_read_results(
    io: &mut RankIo<'_>,
    file: &Arc<str>,
    wants: &[(u64, u32)],
    footer: Option<&ExtentFooter>,
    fuser: Option<&ExtentFuser>,
    mut verify_s: Option<&mut f64>,
) -> Vec<WantRead> {
    let mut out: Vec<WantRead> = wants
        .iter()
        .map(|_| WantRead {
            res: Ok(ByteView::empty()),
            fused: false,
        })
        .collect();
    let runs = plan_runs(wants, COALESCE_GAP);
    if runs.is_empty() {
        return out;
    }
    // Resolve every run to (buffer, buffer base offset, fused): all
    // physical reads of this window go down as submitted batches, not
    // one blocking read per run.
    let resolved: Vec<ResolvedRun> = match fuser {
        None => {
            let reqs: Vec<ReadRequest> = runs
                .iter()
                .map(|r| ReadRequest::new(Arc::clone(file), r.start, r.end - r.start))
                .collect();
            runs.iter()
                .zip(io.read_batch(&reqs))
                .map(|(r, res)| (res.ok().map(Arc::new), r.start, false))
                .collect()
        }
        Some(fu) => {
            // Phase 1 — acquire every run: resolve from the window,
            // note a flight to wait on, or become its leader.
            enum Slot {
                Ready(Option<Arc<Vec<u8>>>, u64, bool),
                Wait(Arc<Flight>, u64),
            }
            let mut slots: Vec<Slot> = Vec::with_capacity(runs.len());
            let mut led: Vec<(usize, Arc<Flight>)> = Vec::new();
            for (k, run) in runs.iter().enumerate() {
                match fu.acquire(file, run.start, run.end) {
                    Acquire::Ready(buf, base) => {
                        if buf.is_some() {
                            io.record_cached(Arc::clone(file), run.start, run.end - run.start);
                        }
                        slots.push(Slot::Ready(buf, base, true));
                    }
                    Acquire::Wait(flight, base) => slots.push(Slot::Wait(flight, base)),
                    Acquire::Lead(flight) => {
                        led.push((k, Arc::clone(&flight)));
                        // Placeholder; overwritten in phase 2.
                        slots.push(Slot::Ready(None, run.start, false));
                    }
                }
            }
            // Phase 2 — one submitted batch services every run this
            // session leads; publish each outcome to its waiters. The
            // guards publish Failed should the batch read unwind.
            if !led.is_empty() {
                let mut guards: Vec<FlightGuard> = led
                    .iter()
                    .map(|(_, f)| FlightGuard {
                        flight: f,
                        armed: true,
                    })
                    .collect();
                let reqs: Vec<ReadRequest> = led
                    .iter()
                    .map(|&(k, _)| {
                        let run = &runs[k];
                        ReadRequest::new(Arc::clone(file), run.start, run.end - run.start)
                    })
                    .collect();
                let results = io.read_batch(&reqs);
                for g in &mut guards {
                    g.armed = false;
                }
                drop(guards);
                for ((k, flight), res) in led.iter().zip(results) {
                    let run = &runs[*k];
                    let buf = res.ok().map(Arc::new);
                    fu.finish_lead(file, run.start, run.end, flight, &buf);
                    slots[*k] = Slot::Ready(buf, run.start, false);
                }
            }
            // Phase 3 — only now block on other sessions' flights.
            // Everything we lead is already published, so waiting
            // cannot participate in a cycle.
            slots
                .into_iter()
                .enumerate()
                .map(|(k, slot)| match slot {
                    Slot::Ready(buf, base, fused) => (buf, base, fused),
                    Slot::Wait(flight, base) => {
                        let run = &runs[k];
                        let buf = fu.finish_wait(&flight, run.start, run.end);
                        if buf.is_some() {
                            io.record_cached(Arc::clone(file), run.start, run.end - run.start);
                        }
                        (buf, base, true)
                    }
                })
                .collect()
        }
    };
    // Slice successful runs into per-want views; collect the wants of
    // failed runs for one batched per-want fallback.
    let mut fallback: Vec<usize> = Vec::new();
    for (run, (buf, base, fused)) in runs.iter().zip(resolved) {
        match buf {
            Some(buf) => {
                for &i in &run.wants {
                    let (off, len) = wants[i];
                    let view =
                        ByteView::slice(Arc::clone(&buf), (off - base) as usize, len as usize);
                    out[i] = WantRead {
                        res: verify_want(footer, file, off, view, verify_s.as_deref_mut()),
                        fused,
                    };
                }
            }
            None => {
                // The merged read failed here or in the leading session
                // (retries exhausted): fall back to per-want reads so
                // only the wants overlapping the damage fail — and so
                // every fused session reaches the same per-want verdict.
                fallback.extend(run.wants.iter().copied());
            }
        }
    }
    if !fallback.is_empty() {
        let reqs: Vec<ReadRequest> = fallback
            .iter()
            .map(|&i| ReadRequest::new(Arc::clone(file), wants[i].0, u64::from(wants[i].1)))
            .collect();
        for (&i, res) in fallback.iter().zip(io.read_batch(&reqs)) {
            out[i] = WantRead {
                res: match res {
                    Ok(b) => verify_want(
                        footer,
                        file,
                        wants[i].0,
                        ByteView::from(b),
                        verify_s.as_deref_mut(),
                    ),
                    Err(e) => Err(MlocError::from(e)),
                },
                fused: false,
            };
        }
    }
    out
}

/// Strict [`coalesced_read_results`] without footer checks: the first
/// failed want fails the whole read. This is the reference the fusion
/// proptests compare fan-out against.
pub fn coalesced_read(
    io: &mut RankIo<'_>,
    file: &str,
    wants: &[(u64, u32)],
    fuser: Option<&ExtentFuser>,
) -> Result<Vec<ByteView>> {
    coalesced_read_results(io, &Arc::from(file), wants, None, fuser, None)
        .into_iter()
        .map(|w| w.res)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mloc_pfs::{MemBackend, StorageBackend};

    #[test]
    fn plan_runs_merges_within_gap() {
        let wants = vec![(10u64, 5u32), (15, 5), (100, 10), (0, 0)];
        let runs = plan_runs(&wants, COALESCE_GAP);
        assert_eq!(runs.len(), 1, "all within one gap");
        assert_eq!((runs[0].start, runs[0].end), (10, 110));
        assert_eq!(runs[0].wants, vec![0, 1, 2]);

        let runs = plan_runs(&[(0, 10), (50_000, 10)], COALESCE_GAP);
        assert_eq!(runs.len(), 2, "distant reads must not merge");
        assert_eq!((runs[1].start, runs[1].end), (50_000, 50_010));
    }

    #[test]
    fn coalesced_read_merges_and_slices() {
        let be = MemBackend::new();
        let data: Vec<u8> = (0..200u8).collect();
        be.append("f", &data).unwrap();
        let mut io = RankIo::new(&be);
        // Three wants: two adjacent (merge), one far (but within gap).
        let wants = vec![(10u64, 5u32), (15, 5), (100, 10), (0, 0)];
        let got = coalesced_read(&mut io, "f", &wants, None).unwrap();
        assert_eq!(&got[0][..], &data[10..15]);
        assert_eq!(&got[1][..], &data[15..20]);
        assert_eq!(&got[2][..], &data[100..110]);
        assert!(got[3].is_empty());
        // All within COALESCE_GAP: a single physical read.
        assert_eq!(io.trace().len(), 1);
    }

    #[test]
    fn coalesced_read_respects_large_gaps() {
        let be = MemBackend::new();
        be.append("f", &vec![7u8; 100_000]).unwrap();
        let mut io = RankIo::new(&be);
        let wants = vec![(0u64, 10u32), (50_000, 10)];
        let got = coalesced_read(&mut io, "f", &wants, None).unwrap();
        assert_eq!(got[0].len(), 10);
        assert_eq!(got[1].len(), 10);
        assert_eq!(io.trace().len(), 2, "distant reads must not merge");
    }

    #[test]
    fn coalesced_read_unsorted_input() {
        let be = MemBackend::new();
        let data: Vec<u8> = (0..100u8).collect();
        be.append("f", &data).unwrap();
        let mut io = RankIo::new(&be);
        let wants = vec![(90u64, 5u32), (0, 5), (40, 5)];
        let got = coalesced_read(&mut io, "f", &wants, None).unwrap();
        assert_eq!(&got[0][..], &data[90..95]);
        assert_eq!(&got[1][..], &data[0..5]);
        assert_eq!(&got[2][..], &data[40..45]);
    }

    #[test]
    fn coalesced_read_dedupes_and_skips_empties() {
        let be = MemBackend::new();
        let data: Vec<u8> = (0..100u8).collect();
        be.append("f", &data).unwrap();
        let mut io = RankIo::new(&be);
        // Duplicate wants, interleaved zero-length wants.
        let wants = vec![(20u64, 8u32), (0, 0), (20, 8), (30, 4), (0, 0)];
        let got = coalesced_read(&mut io, "f", &wants, None).unwrap();
        assert_eq!(&got[0][..], &data[20..28]);
        assert_eq!(&got[2][..], &data[20..28]);
        assert_eq!(&got[3][..], &data[30..34]);
        assert!(got[1].is_empty() && got[4].is_empty());
        // Duplicates share one physical read (and one backing buffer:
        // identical data pointers prove no copy happened).
        assert_eq!(io.trace().len(), 1);
        assert_eq!(got[0].as_slice().as_ptr(), got[2].as_slice().as_ptr());
        // Both empties share the static empty backing.
        assert_eq!(got[1].as_slice().as_ptr(), got[4].as_slice().as_ptr());
    }

    /// One session's read of `wants` from file `f` through `fu`: each
    /// want's outcome, and the session's trace as `(offset, len,
    /// cached)`.
    fn session(
        be: &MemBackend,
        fu: &ExtentFuser,
        wants: &[(u64, u32)],
    ) -> (Vec<WantRead>, Vec<(u64, u64, bool)>) {
        let mut io = RankIo::new(be);
        let got = coalesced_read_results(&mut io, &Arc::from("f"), wants, None, Some(fu), None);
        let trace = io.trace().iter().map(|op| (op.offset, op.len, op.cached));
        (got, trace.collect())
    }

    fn bytes(w: &WantRead) -> &[u8] {
        w.res.as_ref().unwrap().as_slice()
    }

    #[test]
    fn fuser_serves_repeat_and_contained_runs_without_rereads() {
        let be = MemBackend::new();
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        be.append("f", &data).unwrap();
        let fu = ExtentFuser::with_window_mb(4);

        let (first, trace) = session(&be, &fu, &[(100, 500)]);
        assert!(!first[0].fused);
        assert_eq!(bytes(&first[0]), &data[100..600]);
        assert_eq!(trace, vec![(100, 500, false)]);

        // Identical run: fused from the first session's buffer, traced
        // as cached, no physical read.
        let (again, trace) = session(&be, &fu, &[(100, 500)]);
        assert!(again[0].fused);
        assert_eq!(bytes(&again[0]).as_ptr(), bytes(&first[0]).as_ptr());
        assert_eq!(trace, vec![(100, 500, true)]);

        // Contained run: fused from the larger extent.
        let (inner, trace) = session(&be, &fu, &[(200, 100)]);
        assert!(inner[0].fused);
        assert_eq!(bytes(&inner[0]), &data[200..300]);
        assert_eq!(trace, vec![(200, 100, true)]);

        let s = fu.stats();
        assert_eq!(s.physical_reads, 1);
        assert_eq!(s.fused_reads, 2);
        assert_eq!(s.fused_bytes, 500 + 100);

        // A new window forgets the extent.
        fu.begin_window();
        let (fresh, trace) = session(&be, &fu, &[(100, 500)]);
        assert!(!fresh[0].fused);
        assert_eq!(trace, vec![(100, 500, false)]);
        assert_eq!(fu.stats().physical_reads, 2);
    }

    #[test]
    fn failed_leader_fans_out_failure_then_recovers_next_window() {
        let be = MemBackend::new();
        be.append("f", &[1, 2, 3, 4]).unwrap();
        let fu = ExtentFuser::with_window_mb(1);
        // One merged run, [0, 108), past the file's end: the leader's
        // read fails and each want is read alone.
        let wants = [(0u64, 4u32), (100, 8)];
        let (first, trace) = session(&be, &fu, &wants);
        assert_eq!(bytes(&first[0]), &[1, 2, 3, 4]);
        assert!(first[1].res.is_err());
        assert!(!first[0].fused && !first[1].fused);
        assert_eq!(trace, [(0, 108, false), (0, 4, false), (100, 8, false)]);
        assert_eq!(fu.stats().failed_reads, 1);

        // Same window, the file grown since: the failure is remembered,
        // so the next session goes straight to per-want reads.
        be.append("f", &[7; 200]).unwrap();
        let (second, trace) = session(&be, &fu, &wants);
        assert!(second.iter().all(|w| w.res.is_ok() && !w.fused));
        assert_eq!(trace, [(0, 4, false), (100, 8, false)]);
        assert_eq!(fu.stats().physical_reads, 0);

        // Next window retries the merged run for real.
        fu.begin_window();
        let (third, trace) = session(&be, &fu, &wants);
        assert_eq!(bytes(&third[0]), &[1, 2, 3, 4]);
        assert_eq!(bytes(&third[1]), &[7; 8]);
        assert_eq!(trace, [(0, 108, false)]);
        let s = fu.stats();
        assert_eq!((s.physical_reads, s.failed_reads), (1, 1));
    }

    #[test]
    fn concurrent_identical_sessions_share_one_physical_read() {
        let be = MemBackend::new();
        let data: Vec<u8> = (0..200u8).collect();
        be.append("f", &data).unwrap();
        let fu = ExtentFuser::with_window_mb(4);
        let wants = vec![(10u64, 5u32), (15, 5), (100, 10)];

        let views: Vec<Vec<ByteView>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let mut io = RankIo::new(&be);
                        coalesced_read(&mut io, "f", &wants, Some(&fu)).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for v in &views {
            assert_eq!(&v[0][..], &data[10..15]);
            assert_eq!(&v[1][..], &data[15..20]);
            assert_eq!(&v[2][..], &data[100..110]);
        }
        let s = fu.stats();
        assert_eq!(s.physical_reads, 1, "one leader per extent");
        assert_eq!(s.fused_reads, 7);
        // Every session's views share the leader's backing buffer.
        let p0 = views[0][0].as_slice().as_ptr();
        for v in &views {
            assert_eq!(v[0].as_slice().as_ptr(), p0);
        }
    }

    #[test]
    fn window_budget_evicts_oldest_completed_extents() {
        let be = MemBackend::new();
        be.append("f", &vec![9u8; 1_000_000]).unwrap();
        let fu = ExtentFuser::with_window_bytes(25_000);
        for k in 0..4u64 {
            let (got, _) = session(&be, &fu, &[(k * 200_000, 10_000)]);
            assert!(!got[0].fused, "extent {k} must be a fresh read");
        }
        // Extents 0 and 1 were evicted (40k read > 25k budget); 2 and 3
        // remain fusable.
        let (got, trace) = session(&be, &fu, &[(0, 10_000)]);
        assert!(!got[0].fused, "oldest extent should have been evicted");
        assert_eq!(trace, [(0, 10_000, false)]);
        let (got, trace) = session(&be, &fu, &[(600_000, 10_000)]);
        assert!(got[0].fused, "newest must be resident");
        assert_eq!(trace, [(600_000, 10_000, true)]);
    }

    #[test]
    fn every_session_checks_a_fused_want_against_its_own_table() {
        let be = MemBackend::new();
        let data: Vec<u8> = (0..=255u8).cycle().take(600).collect();
        be.append("f", &data).unwrap();
        let file: Arc<str> = Arc::from("f");
        let wants = vec![(0u64, 200u32), (200, 200), (400, 200)];
        let good = ExtentFooter::compute(&data, &[200, 200, 200]);
        // A table that records a wrong CRC for the middle extent only.
        let mut flipped = data.clone();
        flipped[300] ^= 1;
        let bad = ExtentFooter::compute(&flipped, &[200, 200, 200]);
        let fu = ExtentFuser::with_window_mb(1);

        let mut io = RankIo::new(&be);
        let first = coalesced_read_results(&mut io, &file, &wants, Some(&good), Some(&fu), None);
        assert!(first.iter().all(|w| w.res.is_ok() && !w.fused));

        // Same window, same extent: served from the first session's
        // buffer, but checked against this session's table.
        let mut io = RankIo::new(&be);
        let second = coalesced_read_results(&mut io, &file, &wants, Some(&bad), Some(&fu), None);
        assert!(second.iter().all(|w| w.fused));
        assert!(second[0].res.is_ok() && second[2].res.is_ok());
        assert!(matches!(
            &second[1].res,
            Err(MlocError::CorruptExtent { offset: 200, .. })
        ));
        assert_eq!(fu.stats().physical_reads, 1, "the second session fused");
    }
}
