//! In-memory span recorder and I/O ledger for the traced run.
//!
//! Spans are recorded from the harness side only — around calls into a
//! layer's public functions and, through the `TimedBackend` shim in
//! `sut.rs`, around the nine storage verbs. Nothing here instruments
//! the program. Spans stay in memory and are written to
//! `benchmark/out/trace-<workload>.jsonl` when the run ends.

use std::collections::HashSet;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The storage verbs the shim times — exactly the set ROADMAP item 3
/// keeps on the backend trait.
pub const VERBS: [&str; 9] = [
    "create",
    "append",
    "read",
    "read_batch",
    "sync",
    "remove",
    "len",
    "exists",
    "list",
];

pub const CREATE: usize = 0;
pub const APPEND: usize = 1;
pub const READ: usize = 2;
pub const READ_BATCH: usize = 3;
pub const SYNC: usize = 4;
pub const REMOVE: usize = 5;
pub const LEN: usize = 6;
pub const EXISTS: usize = 7;
pub const LIST: usize = 8;

/// One recorded span. `parent` is the id of the span that caused it
/// (0 = root); spans of one request share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Bytes moved by the span (storage verbs), else 0.
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct VerbCounters {
    calls: AtomicU64,
    bytes: AtomicU64,
    busy_ns: AtomicU64,
    errors: AtomicU64,
}

/// Totals of one storage verb.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VerbTotals {
    pub calls: u64,
    pub bytes: u64,
    pub busy_ns: u64,
    pub errors: u64,
}

/// Span log plus per-verb counters. Shared (`Arc`) between the harness
/// and the backend shim; the shim may be called from worker threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    /// Innermost open harness span; storage spans hang under it.
    current: AtomicU64,
    current_op: AtomicU64,
    verbs: [VerbCounters; 9],
    /// Requests carried by `read_batch` calls (sum of batch depths).
    batch_requests: AtomicU64,
    /// Distinct files read since the last `take_files`.
    files: Mutex<HashSet<String>>,
}

/// An open harness span; close it with [`Recorder::close`].
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// Run `f` under a harness span named `name` when a recorder is on
/// (the traced arm), bare otherwise.
pub fn span<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let Some(rec) = rec else { return f() };
    let open = rec.open(name);
    let out = f();
    rec.close(open);
    out
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            current_op: AtomicU64::new(0),
            verbs: Default::default(),
            batch_requests: AtomicU64::new(0),
            files: Mutex::new(HashSet::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new request: later spans carry this op id.
    pub fn begin_op(&self, op: u64) {
        self.current_op.store(op, Ordering::Relaxed);
    }

    /// Open a harness span under the innermost open one.
    pub fn open(&self, name: &'static str) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::Relaxed);
        Open {
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Close a harness span and return its duration in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        self.current.store(open.parent, Ordering::Relaxed);
        let span = Span {
            id: open.id,
            parent: open.parent,
            op: self.current_op.load(Ordering::Relaxed),
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            bytes: 0,
        };
        self.spans.lock().expect("span log poisoned").push(span);
        (end_ns - open.start_ns) as f64 * 1e-9
    }

    /// Time one storage verb: run `f`, then record a leaf span and the
    /// verb's counters. `outcome` maps the result to `(bytes, errors)`.
    pub fn verb<T>(
        &self,
        verb: usize,
        f: impl FnOnce() -> T,
        outcome: impl FnOnce(&T) -> (u64, u64),
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let (bytes, errors) = outcome(&out);
        let c = &self.verbs[verb];
        c.calls.fetch_add(1, Ordering::Relaxed);
        c.bytes.fetch_add(bytes, Ordering::Relaxed);
        c.busy_ns.fetch_add(end_ns - start_ns, Ordering::Relaxed);
        c.errors.fetch_add(errors, Ordering::Relaxed);
        let span = Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.current.load(Ordering::Relaxed),
            op: self.current_op.load(Ordering::Relaxed),
            name: VERBS[verb],
            start_ns,
            end_ns,
            bytes,
        };
        self.spans.lock().expect("span log poisoned").push(span);
        out
    }

    /// Note a file touched by a read (for files-per-op).
    pub fn touch_file(&self, name: &str) {
        let mut files = self.files.lock().expect("file set poisoned");
        if !files.contains(name) {
            files.insert(name.to_string());
        }
    }

    /// Note the depth of one `read_batch` submission.
    pub fn batch_depth(&self, requests: usize) {
        self.batch_requests
            .fetch_add(requests as u64, Ordering::Relaxed);
    }

    /// Distinct files read since the previous call; resets the set.
    pub fn take_files(&self) -> usize {
        let mut files = self.files.lock().expect("file set poisoned");
        let n = files.len();
        files.clear();
        n
    }

    pub fn totals(&self, verb: usize) -> VerbTotals {
        let c = &self.verbs[verb];
        VerbTotals {
            calls: c.calls.load(Ordering::Relaxed),
            bytes: c.bytes.load(Ordering::Relaxed),
            busy_ns: c.busy_ns.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
        }
    }

    /// Physical read requests: single reads plus batched requests.
    pub fn read_requests(&self) -> u64 {
        self.totals(READ).calls + self.batch_requests.load(Ordering::Relaxed)
    }

    pub fn batch_requests(&self) -> u64 {
        self.batch_requests.load(Ordering::Relaxed)
    }

    /// Errors over all verbs.
    pub fn errors(&self) -> u64 {
        (0..VERBS.len()).map(|v| self.totals(v).errors).sum()
    }

    /// Nanoseconds `read` + `read_batch` were busy.
    pub fn read_busy_ns(&self) -> u64 {
        self.totals(READ).busy_ns + self.totals(READ_BATCH).busy_ns
    }

    /// Bytes returned by `read` + `read_batch`.
    pub fn read_bytes(&self) -> u64 {
        self.totals(READ).bytes + self.totals(READ_BATCH).bytes
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Self time per span name: duration minus the part its direct
    /// children cover (children of one parent never overlap on the
    /// single-threaded workloads; on `storm` worker reads overlap, so
    /// the subtraction saturates at zero).
    pub fn self_times(&self) -> Vec<(&'static str, f64, u64)> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for s in spans.iter() {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (f64, u64)> = Default::default();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let e = by_name.entry(s.name).or_default();
            e.0 += own as f64 * 1e-9;
            e.1 += 1;
        }
        by_name.into_iter().map(|(n, (s, c))| (n, s, c)).collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(&file);
        for s in self.spans.lock().expect("span log poisoned").iter() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.bytes
            )?;
        }
        w.flush()?;
        drop(w);
        // On disk before the run ends: write-back of a trace must not
        // run into the next benchmark run.
        file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let rec = Recorder::new();
        rec.begin_op(7);
        let outer = rec.open("op");
        let inner = rec.open("execute");
        rec.verb(
            READ,
            || std::thread::sleep(std::time::Duration::from_millis(2)),
            |_| (10, 0),
        );
        rec.close(inner);
        rec.close(outer);
        let spans = rec.spans.lock().unwrap().clone();
        assert_eq!(spans.len(), 3);
        let read = spans.iter().find(|s| s.name == "read").unwrap();
        let exec = spans.iter().find(|s| s.name == "execute").unwrap();
        let op = spans.iter().find(|s| s.name == "op").unwrap();
        assert_eq!(read.parent, exec.id);
        assert_eq!(exec.parent, op.id);
        assert_eq!(op.parent, 0);
        assert!(spans.iter().all(|s| s.op == 7));
        let selfs = rec.self_times();
        let exec_self = selfs.iter().find(|s| s.0 == "execute").unwrap().1;
        let read_self = selfs.iter().find(|s| s.0 == "read").unwrap().1;
        assert!(read_self >= 0.002);
        assert!(exec_self < read_self, "execute self time excludes the read");
        assert_eq!(rec.totals(READ).bytes, 10);
        assert_eq!(rec.read_requests(), 1);
    }

    #[test]
    fn files_are_counted_once_and_reset() {
        let rec = Recorder::new();
        rec.touch_file("a");
        rec.touch_file("a");
        rec.touch_file("b");
        assert_eq!(rec.take_files(), 2);
        assert_eq!(rec.take_files(), 0);
    }
}
