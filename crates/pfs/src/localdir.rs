//! Local-directory storage backends: real files on the host filesystem.
//!
//! Used by examples, the CLI and integration tests to demonstrate that
//! the MLOC on-disk formats are genuinely persistent; experiment timing
//! always comes from the simulator, not from the host disk.
//!
//! Two backends share one substrate:
//!
//! * [`DirBackend`] — the plain blocking backend. It keeps a per-file
//!   handle cache so a read costs one positional `read_at`, not an
//!   `open`/`seek`/`read`/`close` cycle per call (the pre-cache
//!   behavior survives behind [`DirBackend::uncached`] for
//!   regression-testing and as a benchmark baseline).
//! * [`PoolDirBackend`] — an io_uring-style submission-queue emulation:
//!   a bounded worker pool services a whole [`ReadRequest`] batch
//!   concurrently over the same handle cache, returning results in
//!   submission order with per-request error identity.

use crate::backend::{ReadRequest, StorageBackend};
use crate::PfsError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// Cache of open file handles, keyed by escaped path. Handles are
/// opened read+append once and shared; positional reads (`read_at`)
/// need no seek and never move the append cursor. The open counter
/// exists so tests can assert the cache actually prevents reopening.
#[derive(Debug, Default)]
struct HandleCache {
    handles: Mutex<HashMap<PathBuf, Arc<fs::File>>>,
    opens: AtomicU64,
}

impl HandleCache {
    /// Fetch (or open and cache) the handle for `path`. `create`
    /// controls whether a missing file is created (append path) or
    /// reported as [`PfsError::NotFound`] (read path).
    fn get(&self, path: &Path, name: &str, create: bool) -> Result<Arc<fs::File>, PfsError> {
        // The open happens under the map lock: it runs once per file,
        // and threads racing a file's first read then open it once, so
        // `opens` stays exact.
        let mut handles = self.handles.lock();
        if let Some(f) = handles.get(path) {
            return Ok(Arc::clone(f));
        }
        let file = fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(create)
            .open(path)
            .map_err(|e| {
                if e.kind() == std::io::ErrorKind::NotFound {
                    PfsError::NotFound(name.to_string())
                } else {
                    PfsError::Io(e)
                }
            })?;
        self.opens.fetch_add(1, Ordering::Relaxed);
        let file = Arc::new(file);
        handles.insert(path.to_path_buf(), Arc::clone(&file));
        Ok(file)
    }

    fn invalidate(&self, path: &Path) {
        self.handles.lock().remove(path);
    }
}

/// State shared by every view onto one backing directory: the root,
/// the handle cache, and the append serialization lock.
#[derive(Debug)]
struct DirInner {
    root: PathBuf,
    cache: HandleCache,
    // Serializes append/create/sync operations; reads are lock-free.
    write_lock: Mutex<()>,
    // Handle on the root directory itself, fsynced after creating or
    // removing entries on the durable path. Without it a crash can
    // lose the *directory entry* of a file whose footer already
    // claims the extent committed — the bytes survive, the name does
    // not. `None` where directories cannot be opened as files.
    dir_handle: Option<fs::File>,
}

impl DirInner {
    fn path_of(&self, name: &str) -> PathBuf {
        // Logical names may contain '/'; escape to keep a flat dir.
        self.root.join(name.replace('/', "__"))
    }

    /// Flush the directory entry table. Called with the write lock
    /// held, after any operation that adds or removes an entry.
    fn sync_dir(&self) -> Result<(), PfsError> {
        if let Some(d) = &self.dir_handle {
            d.sync_all()?;
        }
        Ok(())
    }

    fn create(&self, name: &str) -> Result<(), PfsError> {
        let _g = self.write_lock.lock();
        let path = self.path_of(name);
        // Truncation changes the inode's size out from under any
        // cached handle's idea of "end", so drop it and reopen lazily.
        self.cache.invalidate(&path);
        fs::File::create(path)?;
        self.sync_dir()?;
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), PfsError> {
        let _g = self.write_lock.lock();
        let path = self.path_of(name);
        self.cache.invalidate(&path);
        fs::remove_file(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                PfsError::NotFound(name.to_string())
            } else {
                PfsError::Io(e)
            }
        })?;
        self.sync_dir()?;
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8], cached: bool) -> Result<u64, PfsError> {
        let _g = self.write_lock.lock();
        let path = self.path_of(name);
        if cached {
            let f = self.cache.get(&path, name, true)?;
            let offset = f.metadata()?.len();
            (&*f).write_all(data)?;
            Ok(offset)
        } else {
            use std::io::{Seek, SeekFrom};
            self.cache.opens.fetch_add(1, Ordering::Relaxed);
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            let offset = f.seek(SeekFrom::End(0))?;
            f.write_all(data)?;
            Ok(offset)
        }
    }

    fn read(&self, name: &str, offset: u64, len: u64, cached: bool) -> Result<Vec<u8>, PfsError> {
        let path = self.path_of(name);
        if cached {
            let f = self.cache.get(&path, name, false)?;
            let size = f.metadata()?.len();
            bounds_check(name, offset, len, size)?;
            let mut buf = vec![0u8; len as usize];
            read_exact_at(&f, &mut buf, offset, &self.write_lock)?;
            Ok(buf)
        } else {
            use std::io::{Read, Seek, SeekFrom};
            self.cache.opens.fetch_add(1, Ordering::Relaxed);
            let mut f = fs::File::open(&path).map_err(|_| PfsError::NotFound(name.to_string()))?;
            let size = f.metadata()?.len();
            bounds_check(name, offset, len, size)?;
            f.seek(SeekFrom::Start(offset))?;
            let mut buf = vec![0u8; len as usize];
            f.read_exact(&mut buf)?;
            Ok(buf)
        }
    }

    fn len(&self, name: &str, cached: bool) -> Result<u64, PfsError> {
        if cached {
            let path = self.path_of(name);
            Ok(self.cache.get(&path, name, false)?.metadata()?.len())
        } else {
            fs::metadata(self.path_of(name))
                .map(|m| m.len())
                .map_err(|_| PfsError::NotFound(name.to_string()))
        }
    }

    fn sync(&self, name: &str) -> Result<(), PfsError> {
        let _g = self.write_lock.lock();
        let path = self.path_of(name);
        let f = self.cache.get(&path, name, false)?;
        f.sync_all()?;
        // An append may have created the file without going through
        // create(); the entry must be durable before the caller takes
        // the sync as a commit point.
        self.sync_dir()?;
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.path_of(name).exists()
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(&self.root)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().is_file())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .map(|n| n.replace("__", "/"))
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }
}

fn bounds_check(name: &str, offset: u64, len: u64, size: u64) -> Result<(), PfsError> {
    if offset.checked_add(len).is_none_or(|e| e > size) {
        return Err(PfsError::OutOfBounds {
            file: name.to_string(),
            offset,
            len,
            size,
        });
    }
    Ok(())
}

#[cfg(unix)]
fn read_exact_at(
    f: &fs::File,
    buf: &mut [u8],
    offset: u64,
    _lock: &Mutex<()>,
) -> Result<(), PfsError> {
    f.read_exact_at(buf, offset)?;
    Ok(())
}

// Non-unix fallback: a shared handle has one cursor, so positional
// reads must serialize against appends and each other.
#[cfg(not(unix))]
fn read_exact_at(
    mut f: &fs::File,
    buf: &mut [u8],
    offset: u64,
    lock: &Mutex<()>,
) -> Result<(), PfsError> {
    use std::io::{Read, Seek, SeekFrom};
    let _g = lock.lock();
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)?;
    Ok(())
}

/// Stores each logical file as `<root>/<escaped name>`, reading through
/// a shared per-file handle cache.
#[derive(Debug)]
pub struct DirBackend {
    inner: Arc<DirInner>,
    cached: bool,
}

impl DirBackend {
    /// Open (creating if needed) a backend rooted at `root`.
    pub fn new(root: impl AsRef<Path>) -> Result<Self, PfsError> {
        Ok(DirBackend {
            inner: DirBackend::open_inner(root)?,
            cached: true,
        })
    }

    /// A backend that reopens the file on every operation — the
    /// pre-handle-cache behavior. Kept as the regression baseline for
    /// the open-count tests and the differential suites; never the
    /// right choice for real use.
    pub fn uncached(root: impl AsRef<Path>) -> Result<Self, PfsError> {
        Ok(DirBackend {
            inner: DirBackend::open_inner(root)?,
            cached: false,
        })
    }

    fn open_inner(root: impl AsRef<Path>) -> Result<Arc<DirInner>, PfsError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        // Best effort: platforms that cannot open a directory as a
        // file (non-unix) skip directory fsync rather than fail.
        let dir_handle = fs::File::open(&root).ok();
        Ok(Arc::new(DirInner {
            root,
            cache: HandleCache::default(),
            write_lock: Mutex::new(()),
            dir_handle,
        }))
    }

    /// Root directory.
    pub fn root(&self) -> &Path {
        &self.inner.root
    }

    /// How many times a file has actually been `open`ed so far. The
    /// handle cache keeps this at one per distinct file regardless of
    /// how many reads/appends are issued.
    pub fn open_count(&self) -> u64 {
        self.inner.cache.opens.load(Ordering::Relaxed)
    }
}

impl StorageBackend for DirBackend {
    fn create(&self, name: &str) -> Result<(), PfsError> {
        self.inner.create(name)
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PfsError> {
        self.inner.append(name, data, self.cached)
    }

    fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
        self.inner.read(name, offset, len, self.cached)
    }

    fn len(&self, name: &str) -> Result<u64, PfsError> {
        self.inner.len(name, self.cached)
    }

    fn sync(&self, name: &str) -> Result<(), PfsError> {
        self.inner.sync(name)
    }

    fn remove(&self, name: &str) -> Result<(), PfsError> {
        self.inner.remove(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

/// A read job travelling to the worker pool: a contiguous slice of
/// the batch starting at `start`. Chunking the batch into one job per
/// pool slot keeps the queue synchronization cost per *batch* (not per
/// request), which matters as much as the handle cache on machines
/// where an `open(2)` is cheaper than a thread wakeup.
struct Job {
    start: usize,
    reqs: Vec<ReadRequest>,
    done: mpsc::Sender<JobResult>,
}

/// A completed job: the chunk's start slot plus one result per request.
type JobResult = (usize, Vec<Result<Vec<u8>, PfsError>>);

/// Submission-queue emulation over a directory: a bounded pool of
/// `depth` workers drains read batches concurrently through the shared
/// handle cache. Writes and metadata operations stay on the caller's
/// thread (the build path is already parallel above this layer).
pub struct PoolDirBackend {
    inner: Arc<DirInner>,
    depth: usize,
    queue: Mutex<Option<mpsc::Sender<Job>>>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for PoolDirBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolDirBackend")
            .field("root", &self.inner.root)
            .field("depth", &self.depth)
            .finish()
    }
}

impl PoolDirBackend {
    /// Open a pool of `depth` workers (clamped to at least 1) over
    /// `root`.
    pub fn new(root: impl AsRef<Path>, depth: usize) -> Result<Self, PfsError> {
        let inner = DirBackend::open_inner(root)?;
        let depth = depth.max(1);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..depth)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || loop {
                    // Hold the receiver lock only while dequeuing, so
                    // the other workers can pick up jobs while this
                    // one reads.
                    let job = match rx.lock().recv() {
                        Ok(job) => job,
                        Err(_) => return,
                    };
                    let results = job
                        .reqs
                        .iter()
                        .map(|r| inner.read(&r.file, r.offset, r.len, true))
                        .collect();
                    // The batch may have been abandoned; that's fine.
                    let _ = job.done.send((job.start, results));
                })
            })
            .collect();
        Ok(PoolDirBackend {
            inner,
            depth,
            queue: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
        })
    }

    /// The pool's queue depth (worker count).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// How many times a file has actually been `open`ed so far.
    pub fn open_count(&self) -> u64 {
        self.inner.cache.opens.load(Ordering::Relaxed)
    }
}

impl Drop for PoolDirBackend {
    fn drop(&mut self) {
        // Closing the channel wakes every worker with RecvError.
        *self.queue.lock() = None;
        for w in self.workers.lock().drain(..) {
            let _ = w.join();
        }
    }
}

impl StorageBackend for PoolDirBackend {
    fn create(&self, name: &str) -> Result<(), PfsError> {
        self.inner.create(name)
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PfsError> {
        self.inner.append(name, data, true)
    }

    fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
        self.inner.read(name, offset, len, true)
    }

    fn read_batch(&self, requests: &[ReadRequest]) -> Vec<Result<Vec<u8>, PfsError>> {
        if requests.len() <= 1 {
            // Nothing to overlap; skip the queue round-trip.
            return requests
                .iter()
                .map(|r| self.inner.read(&r.file, r.offset, r.len, true))
                .collect();
        }
        // One contiguous chunk per pool slot: `depth` queue round
        // trips for the whole batch, each worker draining its chunk
        // through the shared handle cache.
        let chunk = requests.len().div_ceil(self.depth);
        let (done_tx, done_rx) = mpsc::channel();
        {
            let queue = self.queue.lock();
            let tx = queue.as_ref().expect("pool alive while backend exists");
            for (i, reqs) in requests.chunks(chunk).enumerate() {
                tx.send(Job {
                    start: i * chunk,
                    reqs: reqs.to_vec(),
                    done: done_tx.clone(),
                })
                .expect("workers alive while backend exists");
            }
        }
        // Only the jobs hold senders now, so the loop ends when the
        // last one reports (or is dropped by a dying worker).
        drop(done_tx);
        let mut out: Vec<Option<Result<Vec<u8>, PfsError>>> =
            (0..requests.len()).map(|_| None).collect();
        for (start, results) in done_rx {
            for (i, res) in results.into_iter().enumerate() {
                out[start + i] = Some(res);
            }
        }
        out.into_iter()
            .map(|o| o.expect("every submitted job reports"))
            .collect()
    }

    fn len(&self, name: &str) -> Result<u64, PfsError> {
        self.inner.len(name, true)
    }

    fn sync(&self, name: &str) -> Result<(), PfsError> {
        self.inner.sync(name)
    }

    fn remove(&self, name: &str) -> Result<(), PfsError> {
        self.inner.remove(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mloc-pfs-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_on_disk() {
        let root = tmpdir("rt");
        let be = DirBackend::new(&root).unwrap();
        assert_eq!(be.append("bins/bin0.dat", &[1, 2, 3]).unwrap(), 0);
        assert_eq!(be.append("bins/bin0.dat", &[4]).unwrap(), 3);
        assert_eq!(be.read("bins/bin0.dat", 1, 2).unwrap(), vec![2, 3]);
        assert_eq!(be.len("bins/bin0.dat").unwrap(), 4);
        assert!(be.exists("bins/bin0.dat"));
        assert_eq!(be.list(), vec!["bins/bin0.dat".to_string()]);
        assert!(matches!(
            be.read("bins/bin0.dat", 3, 2),
            Err(PfsError::OutOfBounds { .. })
        ));
        be.sync("bins/bin0.dat").unwrap();
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_file_errors() {
        let root = tmpdir("missing");
        let be = DirBackend::new(&root).unwrap();
        assert!(matches!(be.read("ghost", 0, 1), Err(PfsError::NotFound(_))));
        assert!(matches!(be.len("ghost"), Err(PfsError::NotFound(_))));
        let ub = DirBackend::uncached(&root).unwrap();
        assert!(matches!(ub.read("ghost", 0, 1), Err(PfsError::NotFound(_))));
        assert!(matches!(ub.len("ghost"), Err(PfsError::NotFound(_))));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn handle_cache_opens_each_file_once() {
        let root = tmpdir("opens");
        let be = DirBackend::new(&root).unwrap();
        be.append("a.dat", &[0u8; 512]).unwrap();
        be.append("b.dat", &[1u8; 512]).unwrap();
        let after_setup = be.open_count();
        assert_eq!(after_setup, 2, "one open per distinct file");
        for i in 0..100 {
            be.read("a.dat", i % 256, 64).unwrap();
            be.read("b.dat", i % 256, 64).unwrap();
            be.len("a.dat").unwrap();
        }
        be.append("a.dat", &[2u8; 16]).unwrap();
        assert_eq!(
            be.open_count(),
            after_setup,
            "reads/appends/len must reuse cached handles"
        );

        // The uncached (seed-era) mode really does reopen per call.
        let ub = DirBackend::uncached(&root).unwrap();
        let before = ub.open_count();
        for _ in 0..10 {
            ub.read("a.dat", 0, 64).unwrap();
        }
        assert_eq!(ub.open_count() - before, 10);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn racing_first_reads_open_each_file_once() {
        let root = tmpdir("race");
        let writer = DirBackend::new(&root).unwrap();
        for i in 0..64u8 {
            writer.append(&format!("f{i}"), &[i; 32]).unwrap();
        }
        // A fresh backend has nothing cached, and the barrier before
        // each file makes all 8 threads race its first open.
        let be = DirBackend::new(&root).unwrap();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..64u8 {
                        barrier.wait();
                        assert_eq!(be.read(&format!("f{i}"), 0, 32).unwrap(), vec![i; 32]);
                    }
                });
            }
        });
        assert_eq!(be.open_count(), 64, "one counted open per file");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn create_truncates_under_cache() {
        let root = tmpdir("trunc");
        let be = DirBackend::new(&root).unwrap();
        be.append("f", &[9u8; 64]).unwrap();
        assert_eq!(be.len("f").unwrap(), 64);
        be.create("f").unwrap();
        assert_eq!(be.len("f").unwrap(), 0);
        assert_eq!(be.append("f", &[1, 2]).unwrap(), 0);
        assert_eq!(be.read("f", 0, 2).unwrap(), vec![1, 2]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn pool_batch_matches_sequential_and_keeps_error_identity() {
        let root = tmpdir("pool");
        let pool = PoolDirBackend::new(&root, 4).unwrap();
        pool.append(
            "x.dat",
            &(0u16..512).flat_map(u16::to_le_bytes).collect::<Vec<_>>(),
        )
        .unwrap();
        pool.append("y.dat", &[7u8; 256]).unwrap();
        let reqs = vec![
            ReadRequest::new("x.dat", 0, 16),
            ReadRequest::new("y.dat", 100, 56),
            ReadRequest::new("x.dat", 0, 16),    // duplicate
            ReadRequest::new("x.dat", 8, 16),    // overlapping
            ReadRequest::new("ghost", 0, 4),     // missing file
            ReadRequest::new("y.dat", 250, 100), // out of range
        ];
        let batch = pool.read_batch(&reqs);
        assert_eq!(batch.len(), reqs.len());
        for (req, got) in reqs.iter().zip(&batch) {
            match pool.read(&req.file, req.offset, req.len) {
                Ok(want) => assert_eq!(got.as_ref().unwrap(), &want),
                Err(_) => assert!(got.is_err()),
            }
        }
        assert!(matches!(batch[4], Err(PfsError::NotFound(_))));
        assert!(matches!(batch[5], Err(PfsError::OutOfBounds { .. })));
        assert_eq!(pool.depth(), 4);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn remove_deletes_on_disk_and_errors_on_missing() {
        let root = tmpdir("remove");
        let be = DirBackend::new(&root).unwrap();
        be.append("ds/meta", &[1, 2, 3]).unwrap();
        be.sync("ds/meta").unwrap();
        be.remove("ds/meta").unwrap();
        assert!(!be.exists("ds/meta"));
        assert!(matches!(
            be.read("ds/meta", 0, 1),
            Err(PfsError::NotFound(_))
        ));
        assert!(matches!(be.remove("ds/meta"), Err(PfsError::NotFound(_))));
        // Remove invalidates the cached handle: recreating the file
        // starts from scratch.
        be.append("ds/meta", &[9]).unwrap();
        assert_eq!(be.len("ds/meta").unwrap(), 1);
        fs::remove_dir_all(&root).unwrap();
    }
}
