//! Local-directory storage backend: real files on the host filesystem.
//!
//! Used by examples, the CLI and integration tests to demonstrate that
//! the MLOC on-disk formats are genuinely persistent; experiment timing
//! always comes from the simulator, not from the host disk.
//!
//! [`DirBackend`] is a plain blocking backend. It keeps a handle cache
//! keyed by the logical file name, so a read costs one map lookup and
//! one positional `read_at`: no path is built and no `open`, `seek` or
//! `fstat` is issued per call. Each cached handle remembers the file
//! length it last saw — set at open, advanced by this backend's own
//! appends, dropped with the handle when `create` or `remove`
//! invalidates that name. A read inside the known length is bounds
//! checked against it before its buffer is allocated; a read that
//! reaches past it re-reads the length once (another instance may have
//! grown the file) before it fails [`PfsError::OutOfBounds`]; a short
//! read means another instance truncated the file and fails the same
//! way, with the new size. The pre-cache behavior survives behind
//! [`DirBackend::uncached`] for regression-testing and as a benchmark
//! baseline. It spawns no thread: a batch is served in order on the
//! caller's thread, by the trait's default `read_batch`.

use crate::backend::StorageBackend;
use crate::PfsError;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[cfg(unix)]
use std::os::unix::fs::FileExt;

/// One cached file: the handle, opened read+append, and the length
/// this backend last saw. Positional reads (`read_at`) need no seek
/// and never move the append cursor.
#[derive(Debug)]
struct Handle {
    file: fs::File,
    known_len: AtomicU64,
}

impl Handle {
    /// Re-read the file's true length (another instance may have
    /// grown or truncated it) and remember it.
    fn refresh_len(&self) -> Result<u64, PfsError> {
        let len = self.file.metadata()?.len();
        self.known_len.store(len, Ordering::Release);
        Ok(len)
    }
}

/// Cache of open file handles, keyed by logical name. The open counter
/// exists so tests can assert the cache actually prevents reopening.
#[derive(Debug, Default)]
struct HandleCache {
    handles: RwLock<HashMap<String, Arc<Handle>>>,
    opens: AtomicU64,
}

impl HandleCache {
    /// Fetch (or open and cache) the handle for `name`, whose escaped
    /// path is built only when it has to be opened. `create` controls
    /// whether a missing file is created (append path) or reported as
    /// [`PfsError::NotFound`] (read path).
    fn get(&self, root: &Path, name: &str, create: bool) -> Result<Arc<Handle>, PfsError> {
        if let Some(h) = self.handles.read().get(name) {
            return Ok(Arc::clone(h));
        }
        // The open happens under the write lock, after a second look:
        // it runs once per file, and threads racing a file's first read
        // then open it once, so `opens` stays exact.
        let mut handles = self.handles.write();
        if let Some(h) = handles.get(name) {
            return Ok(Arc::clone(h));
        }
        let file = fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(create)
            .open(path_of(root, name))
            .map_err(|e| not_found_or_io(e, name))?;
        self.opens.fetch_add(1, Ordering::Relaxed);
        let known_len = AtomicU64::new(file.metadata()?.len());
        let handle = Arc::new(Handle { file, known_len });
        handles.insert(name.to_string(), Arc::clone(&handle));
        Ok(handle)
    }

    fn invalidate(&self, name: &str) {
        self.handles.write().remove(name);
    }
}

/// Where logical file `name` lives under `root`. Logical names may
/// contain '/'; they are escaped to keep a flat directory.
fn path_of(root: &Path, name: &str) -> PathBuf {
    root.join(name.replace('/', "__"))
}

fn not_found_or_io(e: std::io::Error, name: &str) -> PfsError {
    if e.kind() == std::io::ErrorKind::NotFound {
        PfsError::NotFound(name.to_string())
    } else {
        PfsError::Io(e)
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
) -> std::io::Result<()> {
    f.read_exact_at(buf, offset)
}

// Non-unix fallback: a shared handle has one cursor, so positional
// reads must serialize against appends and each other.
#[cfg(not(unix))]
fn read_exact_at(
    mut f: &fs::File,
    buf: &mut [u8],
    offset: u64,
    lock: &Mutex<()>,
) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let _g = lock.lock();
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// Stores each logical file as `<root>/<escaped name>`, reading through
/// a per-file handle cache.
#[derive(Debug)]
pub struct DirBackend {
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
    cached: bool,
}

impl DirBackend {
    /// Open (creating if needed) a backend rooted at `root`.
    pub fn new(root: impl AsRef<Path>) -> Result<Self, PfsError> {
        DirBackend::open(root, true)
    }

    /// A backend that reopens the file on every operation — the
    /// pre-handle-cache behavior. Kept as the regression baseline for
    /// the open-count tests and the differential suites; never the
    /// right choice for real use.
    pub fn uncached(root: impl AsRef<Path>) -> Result<Self, PfsError> {
        DirBackend::open(root, false)
    }

    fn open(root: impl AsRef<Path>, cached: bool) -> Result<Self, PfsError> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        // Best effort: platforms that cannot open a directory as a
        // file (non-unix) skip directory fsync rather than fail.
        let dir_handle = fs::File::open(&root).ok();
        Ok(DirBackend {
            root,
            cache: HandleCache::default(),
            write_lock: Mutex::new(()),
            dir_handle,
            cached,
        })
    }

    /// Root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// How many times a file has actually been `open`ed so far. The
    /// handle cache keeps this at one per distinct file regardless of
    /// how many reads/appends are issued.
    pub fn open_count(&self) -> u64 {
        self.cache.opens.load(Ordering::Relaxed)
    }

    /// Flush the directory entry table. Called with the write lock
    /// held, after any operation that adds or removes an entry.
    fn sync_dir(&self) -> Result<(), PfsError> {
        if let Some(d) = &self.dir_handle {
            d.sync_all()?;
        }
        Ok(())
    }

    /// A cached read: bounds-check against the handle's known length
    /// (re-read once if the range reaches past it), and only then
    /// allocate the buffer and issue the one `read_at`.
    fn read_cached(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
        let h = self.cache.get(&self.root, name, false)?;
        let known = h.known_len.load(Ordering::Acquire);
        if offset.checked_add(len).is_none_or(|e| e > known) {
            bounds_check(name, offset, len, h.refresh_len()?)?;
        }
        let mut buf = vec![0u8; len as usize];
        match read_exact_at(&h.file, &mut buf, offset, &self.write_lock) {
            Ok(()) => Ok(buf),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                // Another instance truncated the file under the known
                // length: fail with its true size, never stale bytes.
                bounds_check(name, offset, len, h.refresh_len()?)?;
                Err(PfsError::Io(e))
            }
            Err(e) => Err(PfsError::Io(e)),
        }
    }
}

impl StorageBackend for DirBackend {
    fn create(&self, name: &str) -> Result<(), PfsError> {
        let _g = self.write_lock.lock();
        // Truncation changes the file's length out from under a cached
        // handle's known length, so drop it and reopen lazily.
        self.cache.invalidate(name);
        fs::File::create(path_of(&self.root, name))?;
        self.sync_dir()?;
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PfsError> {
        let _g = self.write_lock.lock();
        if self.cached {
            let h = self.cache.get(&self.root, name, true)?;
            // The true end, not the known length: another instance may
            // have appended since, and the write lands at the true end.
            let offset = h.file.metadata()?.len();
            (&h.file).write_all(data)?;
            h.known_len
                .store(offset + data.len() as u64, Ordering::Release);
            Ok(offset)
        } else {
            use std::io::{Seek, SeekFrom};
            self.cache.opens.fetch_add(1, Ordering::Relaxed);
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path_of(&self.root, name))?;
            let offset = f.seek(SeekFrom::End(0))?;
            f.write_all(data)?;
            Ok(offset)
        }
    }

    fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
        if self.cached {
            return self.read_cached(name, offset, len);
        }
        use std::io::{Read, Seek, SeekFrom};
        self.cache.opens.fetch_add(1, Ordering::Relaxed);
        let mut f = fs::File::open(path_of(&self.root, name))
            .map_err(|_| PfsError::NotFound(name.to_string()))?;
        let size = f.metadata()?.len();
        bounds_check(name, offset, len, size)?;
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len as usize];
        f.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn len(&self, name: &str) -> Result<u64, PfsError> {
        if self.cached {
            self.cache.get(&self.root, name, false)?.refresh_len()
        } else {
            fs::metadata(path_of(&self.root, name))
                .map(|m| m.len())
                .map_err(|_| PfsError::NotFound(name.to_string()))
        }
    }

    fn sync(&self, name: &str) -> Result<(), PfsError> {
        let _g = self.write_lock.lock();
        self.cache.get(&self.root, name, false)?.file.sync_all()?;
        // An append may have created the file without going through
        // create(); the entry must be durable before the caller takes
        // the sync as a commit point.
        self.sync_dir()?;
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), PfsError> {
        let _g = self.write_lock.lock();
        self.cache.invalidate(name);
        fs::remove_file(path_of(&self.root, name)).map_err(|e| not_found_or_io(e, name))?;
        self.sync_dir()?;
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        path_of(&self.root, name).exists()
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
    fn a_reader_sees_bytes_another_instance_appended() {
        let root = tmpdir("grow");
        let writer = DirBackend::new(&root).unwrap();
        let reader = DirBackend::new(&root).unwrap();
        writer.append("ds/bin", &[1u8; 16]).unwrap();
        assert_eq!(reader.read("ds/bin", 0, 16).unwrap(), vec![1u8; 16]);
        // The reader's handle knows 16 bytes; the file now has 48.
        writer.append("ds/bin", &[2u8; 32]).unwrap();
        assert_eq!(reader.read("ds/bin", 16, 32).unwrap(), vec![2u8; 32]);
        assert_eq!(reader.read("ds/bin", 8, 16).unwrap()[8..], [2u8; 8]);
        assert!(matches!(
            reader.read("ds/bin", 40, 16),
            Err(PfsError::OutOfBounds { size: 48, .. })
        ));
        assert_eq!(reader.open_count(), 1, "growth needs no reopen");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_file_another_instance_truncated_reads_out_of_bounds() {
        let root = tmpdir("shrink");
        let writer = DirBackend::new(&root).unwrap();
        let reader = DirBackend::new(&root).unwrap();
        writer.append("f", &[1u8; 64]).unwrap();
        assert_eq!(reader.read("f", 0, 64).unwrap(), vec![1u8; 64]);
        // The reader still believes the file holds 64 bytes.
        writer.create("f").unwrap();
        writer.append("f", &[3u8; 8]).unwrap();
        for (offset, len) in [(0, 64), (32, 16), (4, 8)] {
            match reader.read("f", offset, len) {
                Err(PfsError::OutOfBounds { size, .. }) => assert_eq!(size, 8),
                other => panic!("read {offset}+{len}: expected OutOfBounds, got {other:?}"),
            }
        }
        assert_eq!(reader.read("f", 0, 8).unwrap(), vec![3u8; 8]);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn an_oversized_read_fails_before_allocating() {
        let root = tmpdir("huge");
        let be = DirBackend::new(&root).unwrap();
        be.append("f", &[0u8; 100]).unwrap();
        // A 1 TiB buffer cannot be allocated here: reaching the
        // allocation would abort the test, not return an error.
        for be in [be, DirBackend::uncached(&root).unwrap()] {
            assert!(matches!(
                be.read("f", 0, 1 << 40),
                Err(PfsError::OutOfBounds { size: 100, .. })
            ));
            assert!(matches!(
                be.read("f", u64::MAX, 2),
                Err(PfsError::OutOfBounds { size: 100, .. })
            ));
        }
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
