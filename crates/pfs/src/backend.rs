//! The storage backend trait and the per-rank tracing I/O handle.

use crate::retry::{op_token, RetryPolicy};
use crate::PfsError;
use std::sync::Arc;

/// One entry of a submission batch: read `len` bytes of `file` at
/// `offset`. Requests in a batch are independent — they may overlap,
/// repeat, or target different files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRequest {
    /// File name, shared: a caller that builds the name once hands
    /// every request and trace record of that file a pointer clone
    /// instead of a fresh string.
    pub file: Arc<str>,
    /// Byte offset of the read.
    pub offset: u64,
    /// Length of the read in bytes.
    pub len: u64,
}

impl ReadRequest {
    /// Build a request.
    pub fn new(file: impl Into<Arc<str>>, offset: u64, len: u64) -> Self {
        ReadRequest {
            file: file.into(),
            offset,
            len,
        }
    }
}

/// A flat namespace of byte files, shared by all ranks.
///
/// MLOC only ever appends while building and reads while querying, so
/// the interface is the nine verbs below plus one hook. Implementations
/// must be thread-safe: the MPI-like runtime drives one thread per rank.
pub trait StorageBackend: Send + Sync {
    /// Create (or truncate) a file.
    fn create(&self, name: &str) -> Result<(), PfsError>;

    /// Append bytes to a file, returning the offset they landed at.
    /// Creates the file when it does not exist.
    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PfsError>;

    /// Read `len` bytes at `offset`.
    fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError>;

    /// Service a submission batch of reads, returning one result per
    /// request **in submission order**. The default implementation is a
    /// sequential loop over [`Self::read`], so simple and wrapping
    /// backends (memory, simulator, fault injection) behave exactly as
    /// if the caller had issued the reads one by one — same bytes, same
    /// per-request error identity. No backend in this crate overrides
    /// it — [`crate::ShardRouter`] included, whose `read` already masks
    /// a failed replica — and the `Box` forward keeps a batch whole for
    /// a backend outside it that observes whole batches.
    fn read_batch(&self, requests: &[ReadRequest]) -> Vec<Result<Vec<u8>, PfsError>> {
        requests
            .iter()
            .map(|r| self.read(&r.file, r.offset, r.len))
            .collect()
    }

    /// Flush a file's bytes to durable storage. Backends without a
    /// durability boundary (memory, simulator) treat this as a no-op;
    /// the directory backends fsync the handle. The build path calls
    /// this to order extent data before its footer and the meta file
    /// after everything else, extending the commit-marker discipline
    /// down to the device.
    fn sync(&self, _name: &str) -> Result<(), PfsError> {
        Ok(())
    }

    /// Delete a file. Only the repair path removes anything: builds
    /// append, queries read. Backends that cannot delete report an
    /// [`PfsError::Io`] error (the default) so `mloc repair` surfaces
    /// the limitation instead of pretending to roll back.
    fn remove(&self, name: &str) -> Result<(), PfsError> {
        Err(PfsError::Io(std::io::Error::other(format!(
            "backend does not support removing {name}"
        ))))
    }

    /// Size of a file in bytes.
    fn len(&self, name: &str) -> Result<u64, PfsError>;

    /// Whether a file exists.
    fn exists(&self, name: &str) -> bool;

    /// Names of all files, sorted (for inventory/size reports).
    fn list(&self) -> Vec<String>;

    /// The shard/replica view of this backend, if it has one. `None`
    /// (the default) is the single-copy answer and it lives only here:
    /// one shard, one replica, nothing ever masked, and the only
    /// physical copy of a file is what `read`/`len` serve. A wrapper
    /// must forward this to the backend it wraps, or stats, repair and
    /// the read-repair counters silently see a single-copy store.
    fn replica_access(&self) -> Option<&dyn ReplicaAccess> {
        None
    }
}

/// Where a sharded, replicated store physically keeps each file, and
/// direct access to one copy. Only [`crate::ShardRouter`] implements
/// it; every other backend reaches it (or `None`) through
/// [`StorageBackend::replica_access`].
pub trait ReplicaAccess {
    /// How many independent shards files are spread over.
    fn shard_count(&self) -> usize;

    /// Which shard holds the primary copy of `name`, so observability
    /// can attribute traffic per shard.
    fn shard_of(&self, name: &str) -> usize;

    /// How many copies of each file are kept (1 = unreplicated).
    fn replica_count(&self) -> usize;

    /// Which shard holds replica `replica` of `name` (0 is the
    /// primary), so stats and repair can address one physical copy.
    fn replica_shard_of(&self, name: &str, replica: usize) -> usize;

    /// Read straight from one replica, bypassing the fall-through
    /// masking of `read`, so repair can judge each physical copy on
    /// its own.
    fn read_replica(
        &self,
        name: &str,
        replica: usize,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, PfsError>;

    /// Size of one replica of a file (see [`Self::read_replica`]).
    fn len_replica(&self, name: &str, replica: usize) -> Result<u64, PfsError>;

    /// How many reads have been masked by falling through to a replica
    /// after the preferred copy failed. Feeds the `io.read_repair`
    /// observability counter.
    fn read_repair_count(&self) -> u64;
}

/// Boxed backends delegate every method — including the ones with
/// defaults — so a `Box<dyn StorageBackend>` behaves exactly like the
/// backend it holds (batched reads stay batched, shard routing stays
/// visible). This lets callers pick a backend at runtime and still
/// wrap it in [`crate::FaultBackend`] or hand it to generic code.
impl<T: StorageBackend + ?Sized> StorageBackend for Box<T> {
    fn create(&self, name: &str) -> Result<(), PfsError> {
        (**self).create(name)
    }
    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PfsError> {
        (**self).append(name, data)
    }
    fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
        (**self).read(name, offset, len)
    }
    fn read_batch(&self, requests: &[ReadRequest]) -> Vec<Result<Vec<u8>, PfsError>> {
        (**self).read_batch(requests)
    }
    fn sync(&self, name: &str) -> Result<(), PfsError> {
        (**self).sync(name)
    }
    fn remove(&self, name: &str) -> Result<(), PfsError> {
        (**self).remove(name)
    }
    fn len(&self, name: &str) -> Result<u64, PfsError> {
        (**self).len(name)
    }
    fn exists(&self, name: &str) -> bool {
        (**self).exists(name)
    }
    fn list(&self) -> Vec<String> {
        (**self).list()
    }
    fn replica_access(&self) -> Option<&dyn ReplicaAccess> {
        (**self).replica_access()
    }
}

/// One logical read operation, as recorded in a rank's I/O trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOp {
    /// File name (shared with the request it records, see
    /// [`ReadRequest::file`]).
    pub file: Arc<str>,
    /// Byte offset of the read.
    pub offset: u64,
    /// Length of the read in bytes.
    pub len: u64,
    /// Whether the bytes were served from a cache above the PFS. The
    /// access still appears in the trace (the query *logically* needed
    /// the extent), but the simulator charges it nothing: no seek, no
    /// transfer, no open.
    pub cached: bool,
}

impl ReadOp {
    /// An uncached read op.
    pub fn new(file: impl Into<Arc<str>>, offset: u64, len: u64) -> Self {
        ReadOp {
            file: file.into(),
            offset,
            len,
            cached: false,
        }
    }
}

/// Per-rank I/O handle: serves reads from the backend while recording
/// the [`ReadOp`] trace that the simulator later prices.
pub struct RankIo<'a> {
    backend: &'a dyn StorageBackend,
    trace: Vec<ReadOp>,
    retry: RetryPolicy,
    retries: u64,
    retry_wait_s: f64,
    retries_exhausted: u64,
    batch_depths: Vec<u64>,
}

impl<'a> RankIo<'a> {
    /// New handle over a backend, with no retries.
    pub fn new(backend: &'a dyn StorageBackend) -> Self {
        RankIo::with_retry(backend, RetryPolicy::none())
    }

    /// New handle that retries transient read errors per `policy`.
    pub fn with_retry(backend: &'a dyn StorageBackend, policy: RetryPolicy) -> Self {
        RankIo {
            backend,
            trace: Vec::new(),
            retry: policy,
            retries: 0,
            retry_wait_s: 0.0,
            retries_exhausted: 0,
            batch_depths: Vec::new(),
        }
    }

    /// Charge one still-failing request its next retry after `attempt`
    /// attempts: the jittered backoff joins [`Self::retry_wait_s`], or,
    /// when that wait would bust the per-query budget, the request
    /// stops here with a typed error.
    fn charge_retry(
        &mut self,
        file: &str,
        offset: u64,
        len: u64,
        attempt: u32,
    ) -> Result<(), PfsError> {
        let wait = self
            .retry
            .backoff_s_for(attempt + 1, op_token(file, offset, len));
        if self.retry.budget_exceeded(self.retry_wait_s, wait) {
            self.retries_exhausted += 1;
            return Err(PfsError::RetriesExhausted {
                file: file.to_string(),
                offset,
                attempts: attempt,
                waited_s: self.retry_wait_s,
            });
        }
        self.retries += 1;
        self.retry_wait_s += wait;
        Ok(())
    }

    /// Read and record one extent. Transient backend errors are
    /// retried per the handle's [`RetryPolicy`]; the logical read is
    /// traced once regardless of how many attempts it took (retries
    /// are accounted separately via [`Self::retries`] and the
    /// simulated [`Self::retry_wait_s`], never folded into the trace
    /// the cost simulator prices).
    pub fn read(
        &mut self,
        file: impl Into<Arc<str>>,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, PfsError> {
        let file: Arc<str> = file.into();
        self.trace.push(ReadOp::new(Arc::clone(&file), offset, len));
        let first = self.backend.read(&file, offset, len);
        self.retry_read(first, &file, offset, len)
    }

    /// Submit a batch of reads and return one result per request in
    /// submission order. Each logical read is traced once (exactly as
    /// [`Self::read`] would trace it) and the whole batch goes to the
    /// backend once, as submitted; each slot that failed transiently
    /// is then retried in place, in submission order, by the same
    /// loop [`Self::read`] retries with, so both paths charge the same
    /// retries and simulated backoff.
    pub fn read_batch(&mut self, requests: &[ReadRequest]) -> Vec<Result<Vec<u8>, PfsError>> {
        for r in requests {
            self.trace
                .push(ReadOp::new(Arc::clone(&r.file), r.offset, r.len));
        }
        self.batch_depths.push(requests.len() as u64);
        let mut out = self.backend.read_batch(requests);
        debug_assert_eq!(out.len(), requests.len());
        // A backend that answers fewer requests than it was sent leaves
        // slots unresolved: each fails instead of taking a panic.
        out.resize_with(requests.len(), || Err(PfsError::unanswered()));
        for (r, slot) in requests.iter().zip(out.iter_mut()) {
            if matches!(slot, Err(e) if e.is_transient()) {
                let first = std::mem::replace(slot, Ok(Vec::new()));
                *slot = self.retry_read(first, &r.file, r.offset, r.len);
            }
        }
        out
    }

    /// The one retry loop: given a read's first result, re-read while
    /// the error is transient and the policy and the per-query budget
    /// allow, charging each retry through [`Self::charge_retry`].
    fn retry_read(
        &mut self,
        mut res: Result<Vec<u8>, PfsError>,
        file: &str,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, PfsError> {
        let mut attempt = 1u32;
        loop {
            match res {
                Err(e) if e.is_transient() && self.retry.should_retry(attempt) => {
                    self.charge_retry(file, offset, len, attempt)?;
                    attempt += 1;
                    res = self.backend.read(file, offset, len);
                }
                res => return res,
            }
        }
    }

    /// Record an extent that a cache satisfied without touching the
    /// backend. It shows up in the trace (flagged [`ReadOp::cached`])
    /// so access patterns stay analyzable, but costs nothing in the
    /// simulator and is excluded from [`Self::bytes_read`].
    pub fn record_cached(&mut self, file: impl Into<Arc<str>>, offset: u64, len: u64) {
        self.trace.push(ReadOp {
            cached: true,
            ..ReadOp::new(file, offset, len)
        });
    }

    /// Read a whole file and record it as one sequential extent.
    pub fn read_all(&mut self, file: &str) -> Result<Vec<u8>, PfsError> {
        let len = self.backend.len(file)?;
        self.read(file, 0, len)
    }

    /// The backend this handle reads from.
    pub fn backend(&self) -> &'a dyn StorageBackend {
        self.backend
    }

    /// Bytes actually read from the backend so far (cache-served
    /// extents excluded).
    pub fn bytes_read(&self) -> u64 {
        self.trace
            .iter()
            .filter(|op| !op.cached)
            .map(|op| op.len)
            .sum()
    }

    /// Transient-error retries performed so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Reads abandoned because the per-query retry budget ran out
    /// (each surfaced a [`PfsError::RetriesExhausted`]).
    pub fn retries_exhausted(&self) -> u64 {
        self.retries_exhausted
    }

    /// Simulated backoff seconds accumulated by retries. Not part of
    /// the priced I/O trace — reported separately so fault-free and
    /// faulty runs of the same query stay byte- and cost-identical.
    pub fn retry_wait_s(&self) -> f64 {
        self.retry_wait_s
    }

    /// Depths (request counts) of the batches submitted so far, in
    /// submission order. Feeds the `io.batches` / `io.batch_depth`
    /// observability counters without coupling this crate to obs.
    pub fn batch_depths(&self) -> &[u64] {
        &self.batch_depths
    }

    /// Consume the handle and return the recorded trace.
    pub fn into_trace(self) -> Vec<ReadOp> {
        self.trace
    }

    /// Borrow the recorded trace.
    pub fn trace(&self) -> &[ReadOp] {
        &self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemBackend;

    #[test]
    fn rank_io_records_trace() {
        let be = MemBackend::new();
        be.append("f", &[1, 2, 3, 4, 5]).unwrap();
        let mut io = RankIo::new(&be);
        assert_eq!(io.read("f", 1, 3).unwrap(), vec![2, 3, 4]);
        assert_eq!(io.read_all("f").unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(io.bytes_read(), 8);
        let trace = io.into_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0], ReadOp::new("f", 1, 3));
        assert_eq!(trace[1], ReadOp::new("f", 0, 5));
    }

    #[test]
    fn retry_recovers_transient_faults_with_one_trace_entry() {
        use crate::fault::{FaultBackend, FaultPlan};
        let be = MemBackend::new();
        be.append("f", &[3u8; 1024]).unwrap();
        let fb = FaultBackend::new(be, FaultPlan::transient(11, 1.0, 2));

        // Without retries the injected error surfaces.
        let mut io = RankIo::new(&fb);
        assert!(io.read("f", 0, 1024).unwrap_err().is_transient());

        // With a patient policy the same read succeeds, traced once.
        fb.reset_attempts();
        let mut io = RankIo::with_retry(&fb, RetryPolicy::with_attempts(4));
        assert_eq!(io.read("f", 0, 1024).unwrap(), vec![3u8; 1024]);
        assert!(io.retries() >= 1);
        assert!(io.retry_wait_s() > 0.0);
        assert_eq!(io.bytes_read(), 1024);
        assert_eq!(io.trace().len(), 1, "retries must not inflate the trace");
    }

    #[test]
    fn retry_does_not_mask_permanent_errors() {
        let be = MemBackend::new();
        be.append("f", &[0u8; 8]).unwrap();
        let mut io = RankIo::with_retry(&be, RetryPolicy::with_attempts(5));
        let err = io.read("missing", 0, 4).unwrap_err();
        assert!(matches!(err, PfsError::NotFound(_)));
        let err = io.read("f", 4, 100).unwrap_err();
        assert!(matches!(err, PfsError::OutOfBounds { .. }));
        assert_eq!(io.retries(), 0);
    }

    #[test]
    fn batch_matches_sequential_and_traces_once_per_request() {
        let be = MemBackend::new();
        be.append("f", &(0u8..=255).collect::<Vec<_>>()).unwrap();
        let reqs = vec![
            ReadRequest::new("f", 0, 4),
            ReadRequest::new("f", 250, 6),
            ReadRequest::new("f", 0, 4),     // duplicate
            ReadRequest::new("f", 2, 6),     // overlap
            ReadRequest::new("f", 200, 100), // out of range
            ReadRequest::new("ghost", 0, 1), // missing
        ];
        let mut io = RankIo::new(&be);
        let batch = io.read_batch(&reqs);
        assert_eq!(batch.len(), 6);
        assert_eq!(batch[0].as_ref().unwrap(), &vec![0, 1, 2, 3]);
        assert_eq!(batch[2].as_ref().unwrap(), &vec![0, 1, 2, 3]);
        assert!(matches!(batch[4], Err(PfsError::OutOfBounds { .. })));
        assert!(matches!(batch[5], Err(PfsError::NotFound(_))));
        assert_eq!(io.trace().len(), 6, "one trace entry per request");
        assert_eq!(io.batch_depths(), &[6]);
    }

    #[test]
    fn batch_retries_only_failing_requests_with_sequential_accounting() {
        use crate::fault::{FaultBackend, FaultPlan};
        let be = MemBackend::new();
        be.append("f", &[5u8; 8192]).unwrap();
        let plan = FaultPlan::transient(11, 0.5, 2);
        let reqs: Vec<ReadRequest> = (0..16)
            .map(|i| ReadRequest::new("f", i * 512, 64))
            .collect();

        // Sequential reference run.
        let fb = FaultBackend::new(be, plan);
        let mut seq = RankIo::with_retry(&fb, RetryPolicy::with_attempts(4));
        let seq_res: Vec<_> = reqs
            .iter()
            .map(|r| seq.read(Arc::clone(&r.file), r.offset, r.len).unwrap())
            .collect();
        let (seq_retries, seq_wait) = (seq.retries(), seq.retry_wait_s());
        assert!(seq_retries > 0, "plan injected nothing");

        // Batched run over a fresh fault schedule.
        fb.reset_attempts();
        let mut bat = RankIo::with_retry(&fb, RetryPolicy::with_attempts(4));
        let bat_res = bat.read_batch(&reqs);
        for (a, b) in seq_res.iter().zip(&bat_res) {
            assert_eq!(a, b.as_ref().unwrap());
        }
        assert_eq!(bat.retries(), seq_retries);
        assert!((bat.retry_wait_s() - seq_wait).abs() < 1e-12);
        assert_eq!(bat.trace().len(), seq.trace().len());
    }

    #[test]
    fn batch_gives_up_like_sequential_when_retries_exhausted() {
        use crate::fault::{FaultBackend, FaultPlan};
        let be = MemBackend::new();
        be.append("f", &[1u8; 4096]).unwrap();
        let fb = FaultBackend::new(be, FaultPlan::transient(11, 1.0, 3));
        let mut io = RankIo::with_retry(&fb, RetryPolicy::with_attempts(2));
        let res = io.read_batch(&[ReadRequest::new("f", 0, 1024)]);
        assert!(res[0].as_ref().unwrap_err().is_transient());
        assert_eq!(io.retries(), 1, "attempt budget of 2 = one retry");
    }

    #[test]
    fn jittered_batch_accounting_still_matches_sequential() {
        use crate::fault::{FaultBackend, FaultPlan};
        let be = MemBackend::new();
        be.append("f", &[5u8; 8192]).unwrap();
        let plan = FaultPlan::transient(11, 0.5, 2);
        let policy = RetryPolicy::with_attempts(4).with_jitter(97);
        let reqs: Vec<ReadRequest> = (0..16)
            .map(|i| ReadRequest::new("f", i * 512, 64))
            .collect();

        let fb = FaultBackend::new(be, plan);
        let mut seq = RankIo::with_retry(&fb, policy);
        let seq_res: Vec<_> = reqs
            .iter()
            .map(|r| seq.read(Arc::clone(&r.file), r.offset, r.len).unwrap())
            .collect();
        assert!(seq.retries() > 0, "plan injected nothing");

        fb.reset_attempts();
        let mut bat = RankIo::with_retry(&fb, policy);
        let bat_res = bat.read_batch(&reqs);
        for (a, b) in seq_res.iter().zip(&bat_res) {
            assert_eq!(a, b.as_ref().unwrap());
        }
        assert_eq!(bat.retries(), seq.retries());
        assert!(
            (bat.retry_wait_s() - seq.retry_wait_s()).abs() < 1e-12,
            "jittered per-op waits must sum identically across paths"
        );
    }

    #[test]
    fn exhausted_budget_surfaces_typed_error_in_both_paths() {
        use crate::fault::{FaultBackend, FaultPlan};
        let be = MemBackend::new();
        be.append("f", &[1u8; 4096]).unwrap();
        // Every read fails 3 times; the budget only covers the first
        // retry's 1ms backoff, so the second wait busts it.
        let fb = FaultBackend::new(be, FaultPlan::transient(11, 1.0, 3));
        let policy = RetryPolicy::with_attempts(8).with_budget_s(0.0015);

        let mut io = RankIo::with_retry(&fb, policy);
        let err = io.read("f", 0, 1024).unwrap_err();
        assert!(err.is_retries_exhausted(), "got {err}");
        assert!(!err.is_transient(), "budget exhaustion must not re-retry");
        assert_eq!(io.retries_exhausted(), 1);
        assert_eq!(io.retries(), 1, "one retry fit in the budget");

        fb.reset_attempts();
        let mut io = RankIo::with_retry(&fb, policy);
        let res = io.read_batch(&[ReadRequest::new("f", 0, 1024)]);
        assert!(res[0].as_ref().unwrap_err().is_retries_exhausted());
        assert_eq!(io.retries_exhausted(), 1);

        // A generous budget recovers the same read fine.
        fb.reset_attempts();
        let mut io = RankIo::with_retry(&fb, RetryPolicy::with_attempts(8).with_budget_s(1.0));
        assert_eq!(io.read("f", 0, 1024).unwrap(), vec![1u8; 1024]);
        assert_eq!(io.retries_exhausted(), 0);
    }

    #[test]
    fn cached_records_are_traced_but_not_counted() {
        let be = MemBackend::new();
        be.append("f", &[0u8; 64]).unwrap();
        let mut io = RankIo::new(&be);
        io.read("f", 0, 16).unwrap();
        io.record_cached("f", 16, 32);
        assert_eq!(io.bytes_read(), 16);
        let trace = io.into_trace();
        assert_eq!(trace.len(), 2);
        assert!(!trace[0].cached);
        assert!(trace[1].cached);
        assert_eq!(trace[1].len, 32);
    }
}
