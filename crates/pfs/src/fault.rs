//! Deterministic fault injection for storage backends.
//!
//! [`FaultBackend`] wraps any [`StorageBackend`] and injects failures
//! according to a scriptable [`FaultPlan`]:
//!
//! * **transient read errors** — a seeded hash of (file, offset, len)
//!   decides whether a read fails and how many times, so the same plan
//!   against the same access pattern always fails the same ops; a
//!   retrying caller eventually gets the true bytes.
//! * **permanent file loss** — files matching a pattern behave as if
//!   an OST died: reads and `len` return [`PfsError::NotFound`].
//! * **bit-flip corruption** — targeted bytes are XOR-masked in read
//!   results. The stored bytes are untouched; the reader sees silent
//!   corruption exactly as a bad disk would deliver it.
//!
//! Everything is deterministic given the plan (seed included), which
//! is what makes fault-matrix differential testing possible: replaying
//! a query under the same plan injects the same faults.
//!
//! [`CrashBackend`] covers the *write* path the same way: it emulates
//! a page cache over the wrapped backend, counts every ordered
//! durability step (`create` / `append` / `sync`), and crashes at a
//! scripted step — optionally tearing the crashing append at byte k,
//! or silently dropping fsyncs first — so the build pipeline can be
//! killed at every commit point and the recovery path exercised
//! against exactly what a real crash would leave on disk.

use crate::backend::{ReplicaAccess, StorageBackend};
use crate::PfsError;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One targeted bit-flip: XOR `mask` into the byte at absolute
/// `offset` of any file whose name contains `file`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitFlip {
    /// Substring the file name must contain.
    pub file: String,
    /// Absolute byte offset within the file.
    pub offset: u64,
    /// XOR mask applied to that byte (0 disables the flip).
    pub mask: u8,
}

/// A scriptable, deterministic fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the transient-error hash.
    pub seed: u64,
    /// Fraction of distinct read ops that fail transiently, in [0, 1].
    pub transient_rate: f64,
    /// Most consecutive transient failures a single op can see before
    /// it starts succeeding (so a sufficiently patient retrier always
    /// wins). Must be >= 1 when `transient_rate > 0`.
    pub max_transient: u32,
    /// Name substrings of permanently lost files.
    pub lost_files: Vec<String>,
    /// Targeted read-path corruptions.
    pub flips: Vec<BitFlip>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            transient_rate: 0.0,
            max_transient: 1,
            lost_files: Vec::new(),
            flips: Vec::new(),
        }
    }

    /// A transient-only plan: each distinct read op independently
    /// fails with probability `rate`, at most `max_transient` times.
    pub fn transient(seed: u64, rate: f64, max_transient: u32) -> Self {
        FaultPlan {
            seed,
            transient_rate: rate.clamp(0.0, 1.0),
            max_transient: max_transient.max(1),
            ..FaultPlan::none()
        }
    }

    /// Parse the line-based plan format used by the CLI:
    ///
    /// ```text
    /// # comment
    /// seed = 42
    /// transient_rate = 0.25
    /// max_transient = 2
    /// lose <file-substring>
    /// flip <file-substring> <offset> <xor-mask>
    /// ```
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        scan_plan("fault", text, |line, err| {
            match line {
                PlanLine::Setting("seed", v) => {
                    plan.seed = v.parse().map_err(|_| err("bad seed"))?
                }
                PlanLine::Setting("transient_rate", v) => {
                    let rate: f64 = v.parse().map_err(|_| err("bad rate"))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(err("rate must be in [0, 1]"));
                    }
                    plan.transient_rate = rate;
                }
                PlanLine::Setting("max_transient", v) => {
                    plan.max_transient = v.parse().map_err(|_| err("bad count"))?
                }
                PlanLine::Setting(..) => return Err(err("unknown key")),
                PlanLine::Directive("lose", words) => {
                    let pat = words.next().ok_or_else(|| err("missing file"))?;
                    plan.lost_files.push(pat.to_string());
                }
                PlanLine::Directive("flip", words) => {
                    let file = words.next().ok_or_else(|| err("missing file"))?;
                    let offset = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(|| err("missing/bad offset"))?;
                    let mask = words
                        .next()
                        .and_then(parse_mask)
                        .ok_or_else(|| err("missing/bad mask"))?;
                    plan.flips.push(BitFlip {
                        file: file.to_string(),
                        offset,
                        mask,
                    });
                }
                PlanLine::Directive(..) => return Err(err("unknown directive")),
            }
            Ok(())
        })?;
        plan.max_transient = plan.max_transient.max(1);
        Ok(plan)
    }
}

/// One meaningful line of a plan file.
enum PlanLine<'w, 't> {
    /// `key = value`, both sides trimmed.
    Setting(&'t str, &'t str),
    /// A directive word and its remaining operands.
    Directive(&'t str, &'w mut std::str::SplitWhitespace<'t>),
}

/// The line scanner both plan grammars share: skips blank lines and
/// `#` comments, tells `key = value` lines from directive lines,
/// rejects operands the directive left unread, and hands `on_line` an
/// error builder that prefixes `<kind> plan line N` and quotes the
/// line.
fn scan_plan(
    kind: &str,
    text: &str,
    mut on_line: impl FnMut(PlanLine<'_, '_>, &dyn Fn(&str) -> String) -> Result<(), String>,
) -> Result<(), String> {
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("{kind} plan line {}: {what}: {line}", lineno + 1);
        if let Some((key, value)) = line.split_once('=') {
            on_line(PlanLine::Setting(key.trim(), value.trim()), &err)?;
            continue;
        }
        let mut words = line.split_whitespace();
        let word = words.next().ok_or_else(|| err("no directive"))?;
        on_line(PlanLine::Directive(word, &mut words), &err)?;
        if words.next().is_some() {
            return Err(err("trailing tokens"));
        }
    }
    Ok(())
}

fn parse_mask(w: &str) -> Option<u8> {
    if let Some(hex) = w.strip_prefix("0x").or_else(|| w.strip_prefix("0X")) {
        u8::from_str_radix(hex, 16).ok()
    } else {
        w.parse().ok()
    }
}

/// Injection counters, for asserting that a plan actually fired.
#[derive(Debug, Default)]
pub struct FaultStats {
    transient: AtomicU64,
    flipped: AtomicU64,
    lost_denied: AtomicU64,
}

impl FaultStats {
    /// Transient read errors raised so far.
    pub fn transient_errors(&self) -> u64 {
        self.transient.load(Ordering::Relaxed)
    }

    /// Bytes corrupted in read results so far.
    pub fn bytes_flipped(&self) -> u64 {
        self.flipped.load(Ordering::Relaxed)
    }

    /// Operations denied because the file is in the lost set.
    pub fn lost_denials(&self) -> u64 {
        self.lost_denied.load(Ordering::Relaxed)
    }
}

/// A [`StorageBackend`] wrapper that injects the faults of a
/// [`FaultPlan`] deterministically.
pub struct FaultBackend<B: StorageBackend> {
    inner: B,
    plan: FaultPlan,
    stats: FaultStats,
    /// attempts seen per distinct (file, offset, len) read signature.
    attempts: Mutex<HashMap<(String, u64, u64), u32>>,
}

impl<B: StorageBackend> FaultBackend<B> {
    /// Wrap `inner`, injecting per `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        FaultBackend {
            inner,
            plan,
            stats: FaultStats::default(),
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// Injection counters.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// The wrapped backend (e.g. to corrupt or inspect stored bytes
    /// directly in tests).
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Forget which ops already failed, so the transient schedule
    /// replays from scratch (useful between differential rounds).
    pub fn reset_attempts(&self) {
        self.attempts.lock().clear();
    }

    fn is_lost(&self, name: &str) -> bool {
        self.plan.lost_files.iter().any(|pat| name.contains(pat))
    }

    /// How many times the op with this signature should fail before
    /// succeeding (0 = never fails).
    fn planned_failures(&self, file: &str, offset: u64, len: u64) -> u32 {
        if self.plan.transient_rate <= 0.0 {
            return 0;
        }
        let h = op_hash(self.plan.seed, file, offset, len);
        let threshold = (self.plan.transient_rate * 10_000.0) as u64;
        if h % 10_000 < threshold {
            1 + ((h >> 32) % u64::from(self.plan.max_transient)) as u32
        } else {
            0
        }
    }

    fn apply_flips(&self, name: &str, offset: u64, buf: &mut [u8]) {
        for flip in &self.plan.flips {
            if flip.mask == 0 || !name.contains(flip.file.as_str()) {
                continue;
            }
            if flip.offset >= offset && flip.offset - offset < buf.len() as u64 {
                buf[(flip.offset - offset) as usize] ^= flip.mask;
                self.stats.flipped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl<B: StorageBackend> StorageBackend for FaultBackend<B> {
    fn create(&self, name: &str) -> Result<(), PfsError> {
        self.inner.create(name)
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PfsError> {
        self.inner.append(name, data)
    }

    fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
        if self.is_lost(name) {
            self.stats.lost_denied.fetch_add(1, Ordering::Relaxed);
            return Err(PfsError::NotFound(name.to_string()));
        }
        let planned = self.planned_failures(name, offset, len);
        if planned > 0 {
            let attempt = {
                let mut attempts = self.attempts.lock();
                let n = attempts.entry((name.to_string(), offset, len)).or_insert(0);
                *n += 1;
                *n
            };
            if attempt <= planned {
                self.stats.transient.fetch_add(1, Ordering::Relaxed);
                return Err(PfsError::Transient {
                    file: name.to_string(),
                    offset,
                    attempt,
                });
            }
        }
        let mut buf = self.inner.read(name, offset, len)?;
        self.apply_flips(name, offset, &mut buf);
        Ok(buf)
    }

    fn len(&self, name: &str) -> Result<u64, PfsError> {
        if self.is_lost(name) {
            self.stats.lost_denied.fetch_add(1, Ordering::Relaxed);
            return Err(PfsError::NotFound(name.to_string()));
        }
        self.inner.len(name)
    }

    // read_batch deliberately stays on the default sequential loop:
    // each request must consult the fault schedule through this
    // wrapper's read() so per-op fault identity is preserved.

    // Like append, sync is a write-side op: "lost" files model a dead
    // OST on the *read* path, so a build that wrote the bytes may
    // still flush them.
    fn sync(&self, name: &str) -> Result<(), PfsError> {
        self.inner.sync(name)
    }

    // `remove` is write-side like append/sync.
    fn remove(&self, name: &str) -> Result<(), PfsError> {
        self.inner.remove(name)
    }

    // Replica-direct access models reaching past the faulty device
    // layer (repair judging each physical copy), so faults are not
    // re-applied to it.
    fn replica_access(&self) -> Option<&dyn ReplicaAccess> {
        self.inner.replica_access()
    }

    fn exists(&self, name: &str) -> bool {
        !self.is_lost(name) && self.inner.exists(name)
    }

    fn list(&self) -> Vec<String> {
        self.inner
            .list()
            .into_iter()
            .filter(|f| !self.is_lost(f))
            .collect()
    }
}

/// A scripted write-path crash: at which ordered durability step to
/// die, and how.
///
/// Write ops (`create`, `append`, `sync`, `remove`) are counted in
/// submission order; the op whose 1-based index equals `crash_at`
/// fails, and every write op after it fails too. Un-synced bytes are
/// lost (the emulated page cache empties), files never synced since
/// creation lose their directory entry — exactly the states the
/// footer commit-marker discipline must recover from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CrashPlan {
    /// 1-based index of the write op that crashes (0 = never crash).
    pub crash_at: u64,
    /// If the crashing op is an append, persist this prefix of its
    /// payload durably before dying — a torn write at byte k. `None`
    /// loses the whole crashing append.
    pub torn_keep: Option<u64>,
    /// Name substrings whose `sync` *lies*: it reports success
    /// without flushing, so a later crash (or [`CrashBackend::
    /// power_cut`]) loses bytes the caller believed durable.
    pub drop_syncs: Vec<String>,
}

impl CrashPlan {
    /// A plan that never crashes.
    pub fn none() -> Self {
        CrashPlan::default()
    }

    /// Crash at write op `n` (1-based).
    pub fn at(n: u64) -> Self {
        CrashPlan {
            crash_at: n,
            ..CrashPlan::default()
        }
    }

    /// Crash at write op `n`, tearing the append (if it is one) at
    /// byte `keep`.
    pub fn torn_at(n: u64, keep: u64) -> Self {
        CrashPlan {
            crash_at: n,
            torn_keep: Some(keep),
            ..CrashPlan::default()
        }
    }

    /// Parse the line-based plan format used by the CLI:
    ///
    /// ```text
    /// # crash during the third durability step
    /// crash_at = 3
    /// torn_keep = 512
    /// dropsync bin0000.dat
    /// ```
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = CrashPlan::none();
        scan_plan("crash", text, |line, err| {
            match line {
                PlanLine::Setting("crash_at", v) => {
                    plan.crash_at = v.parse().map_err(|_| err("bad index"))?
                }
                PlanLine::Setting("torn_keep", v) => {
                    plan.torn_keep = Some(v.parse().map_err(|_| err("bad byte count"))?)
                }
                PlanLine::Setting(..) => return Err(err("unknown key")),
                PlanLine::Directive("dropsync", words) => {
                    let pat = words.next().ok_or_else(|| err("missing file"))?;
                    plan.drop_syncs.push(pat.to_string());
                }
                PlanLine::Directive(..) => return Err(err("unknown directive")),
            }
            Ok(())
        })?;
        Ok(plan)
    }
}

/// Un-flushed state of one file in the emulated page cache: `tail`
/// holds bytes appended since the last successful sync; `base_len` is
/// how many durable bytes the wrapped backend already holds; `rebase`
/// means the durable copy must be re-created (truncated) on flush
/// because `create` ran but was never synced.
#[derive(Debug, Default)]
struct VolatileFile {
    base_len: u64,
    tail: Vec<u8>,
    rebase: bool,
}

#[derive(Debug, Default)]
struct CrashState {
    ops: u64,
    crashed: bool,
    overlay: HashMap<String, VolatileFile>,
    /// (op kind, file) per write op, for enumerating durability steps.
    log: Vec<(&'static str, String)>,
}

/// Wraps a [`StorageBackend`] with an emulated page cache and a
/// scripted [`CrashPlan`].
///
/// Before the crash, readers see the composite (durable + volatile)
/// state a running process would; writes buffer until `sync` flushes
/// them down. At the crash the volatile layer vanishes: the wrapped
/// backend is left holding exactly the durable state — torn files,
/// dropped entries and all — and every later write op fails. Recovery
/// code then runs against the wrapped backend directly (see
/// [`Self::inner`] / [`Self::into_inner`]), the same way `mloc
/// repair` runs against a store after a real crash.
pub struct CrashBackend<B: StorageBackend> {
    inner: B,
    plan: CrashPlan,
    state: Mutex<CrashState>,
}

impl<B: StorageBackend> CrashBackend<B> {
    /// Wrap `inner`, crashing per `plan`.
    pub fn new(inner: B, plan: CrashPlan) -> Self {
        CrashBackend {
            inner,
            plan,
            state: Mutex::new(CrashState::default()),
        }
    }

    /// Write ops counted so far — run a build with
    /// [`CrashPlan::none`] to census the durability steps, then replay
    /// with `crash_at` sweeping `1..=write_ops()`.
    pub fn write_ops(&self) -> u64 {
        self.state.lock().ops
    }

    /// The ordered (op kind, file) log of write ops.
    pub fn op_log(&self) -> Vec<(&'static str, String)> {
        self.state.lock().log.clone()
    }

    /// Whether the scripted crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Pull the plug *now*: volatile state vanishes without an error
    /// being returned to anyone. Models power loss after a build that
    /// believed its (possibly dropped) syncs.
    pub fn power_cut(&self) {
        let mut st = self.state.lock();
        st.overlay.clear();
        st.crashed = true;
    }

    /// The wrapped backend — after a crash, exactly the durable state.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwrap to the durable store for recovery.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Count one write op; `Err` if already crashed, `Ok(true)` if
    /// this op is the one that crashes.
    fn count_op(
        &self,
        st: &mut CrashState,
        kind: &'static str,
        name: &str,
    ) -> Result<bool, PfsError> {
        if st.crashed {
            return Err(PfsError::Io(std::io::Error::other(format!(
                "{kind} {name}: backend crashed (injected)"
            ))));
        }
        st.ops += 1;
        st.log.push((kind, name.to_string()));
        Ok(self.plan.crash_at != 0 && st.ops == self.plan.crash_at)
    }

    fn crash_error(kind: &str, name: &str) -> PfsError {
        PfsError::Io(std::io::Error::other(format!(
            "injected crash during {kind} {name}"
        )))
    }

    /// Flush one file's volatile bytes to the wrapped backend.
    fn flush(&self, name: &str, vf: VolatileFile) -> Result<(), PfsError> {
        if vf.rebase {
            self.inner.create(name)?;
        }
        if !vf.tail.is_empty() {
            self.inner.append(name, &vf.tail)?;
        }
        self.inner.sync(name)?;
        Ok(())
    }

    fn logical_len(&self, st: &CrashState, name: &str) -> Option<u64> {
        match st.overlay.get(name) {
            Some(vf) => Some(vf.base_len + vf.tail.len() as u64),
            None => self.inner.len(name).ok(),
        }
    }
}

impl<B: StorageBackend> StorageBackend for CrashBackend<B> {
    fn create(&self, name: &str) -> Result<(), PfsError> {
        let mut st = self.state.lock();
        if self.count_op(&mut st, "create", name)? {
            st.overlay.clear();
            st.crashed = true;
            return Err(Self::crash_error("create", name));
        }
        // Creation (and the truncation it implies) stays volatile
        // until the first sync makes the entry durable.
        st.overlay.insert(
            name.to_string(),
            VolatileFile {
                base_len: 0,
                tail: Vec::new(),
                rebase: true,
            },
        );
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PfsError> {
        let mut st = self.state.lock();
        let crashing = self.count_op(&mut st, "append", name)?;
        if crashing {
            // A torn write persists a prefix of the payload (plus any
            // earlier un-synced tail, in write order) before dying.
            if let Some(keep) = self.plan.torn_keep {
                let keep = (keep as usize).min(data.len());
                let mut vf = st.overlay.remove(name).unwrap_or_else(|| VolatileFile {
                    base_len: self.inner.len(name).unwrap_or(0),
                    ..VolatileFile::default()
                });
                vf.tail.extend_from_slice(&data[..keep]);
                let _ = self.flush(name, vf);
            }
            st.overlay.clear();
            st.crashed = true;
            return Err(Self::crash_error("append", name));
        }
        let vf = st
            .overlay
            .entry(name.to_string())
            .or_insert_with(|| VolatileFile {
                base_len: self.inner.len(name).unwrap_or(0),
                ..VolatileFile::default()
            });
        let offset = vf.base_len + vf.tail.len() as u64;
        vf.tail.extend_from_slice(data);
        Ok(offset)
    }

    fn sync(&self, name: &str) -> Result<(), PfsError> {
        let mut st = self.state.lock();
        if self.count_op(&mut st, "sync", name)? {
            st.overlay.clear();
            st.crashed = true;
            return Err(Self::crash_error("sync", name));
        }
        if self.plan.drop_syncs.iter().any(|pat| name.contains(pat)) {
            // The lie at the heart of the dropped-fsync fault: report
            // success, flush nothing.
            return Ok(());
        }
        match st.overlay.remove(name) {
            Some(vf) => self.flush(name, vf),
            None => self.inner.sync(name),
        }
    }

    fn remove(&self, name: &str) -> Result<(), PfsError> {
        let mut st = self.state.lock();
        if self.count_op(&mut st, "remove", name)? {
            st.overlay.clear();
            st.crashed = true;
            return Err(Self::crash_error("remove", name));
        }
        let had_volatile = st.overlay.remove(name).is_some();
        match self.inner.remove(name) {
            Err(PfsError::NotFound(_)) if had_volatile => Ok(()),
            other => other,
        }
    }

    fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
        let st = self.state.lock();
        let Some(vf) = st.overlay.get(name) else {
            return self.inner.read(name, offset, len);
        };
        let total = vf.base_len + vf.tail.len() as u64;
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= total)
            .ok_or_else(|| PfsError::OutOfBounds {
                file: name.to_string(),
                offset,
                len,
                size: total,
            })?;
        // Stitch the durable base and the volatile tail.
        let mut buf = Vec::with_capacity(len as usize);
        if offset < vf.base_len {
            let base_end = end.min(vf.base_len);
            buf.extend_from_slice(&self.inner.read(name, offset, base_end - offset)?);
        }
        if end > vf.base_len {
            let t0 = offset.saturating_sub(vf.base_len) as usize;
            let t1 = (end - vf.base_len) as usize;
            buf.extend_from_slice(&vf.tail[t0..t1]);
        }
        Ok(buf)
    }

    fn len(&self, name: &str) -> Result<u64, PfsError> {
        let st = self.state.lock();
        self.logical_len(&st, name)
            .ok_or_else(|| PfsError::NotFound(name.to_string()))
    }

    fn exists(&self, name: &str) -> bool {
        let st = self.state.lock();
        st.overlay.contains_key(name) || self.inner.exists(name)
    }

    fn list(&self) -> Vec<String> {
        let st = self.state.lock();
        let mut names = self.inner.list();
        names.extend(st.overlay.keys().cloned());
        names.sort();
        names.dedup();
        names
    }

    // Replica-direct reads see the durable copies only, never the
    // volatile overlay: they are how repair judges what survived.
    fn replica_access(&self) -> Option<&dyn ReplicaAccess> {
        self.inner.replica_access()
    }
}

/// Deterministic per-op hash: FNV-1a over the file name, then a
/// splitmix64-style finalizer mixing in seed/offset/len. Zero-dep and
/// stable across platforms, which is all the fault schedule needs.
fn op_hash(seed: u64, file: &str, offset: u64, len: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in file.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h
        .wrapping_add(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(offset.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(len.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::MemBackend;

    fn seeded(rate: f64, max_transient: u32) -> FaultBackend<MemBackend> {
        let be = MemBackend::new();
        be.append("bin0.dat", &[7u8; 4096]).unwrap();
        be.append("bin1.dat", &[9u8; 4096]).unwrap();
        FaultBackend::new(be, FaultPlan::transient(42, rate, max_transient))
    }

    #[test]
    fn transient_errors_are_deterministic_and_bounded() {
        let fb = seeded(0.5, 3);
        let mut failures_a = Vec::new();
        for off in (0..4096).step_by(256) {
            let mut tries = 0u32;
            loop {
                tries += 1;
                match fb.read("bin0.dat", off, 64) {
                    Ok(buf) => {
                        assert_eq!(buf, vec![7u8; 64]);
                        break;
                    }
                    Err(e) => {
                        assert!(e.is_transient());
                        assert!(tries <= 3, "op failed more than max_transient times");
                    }
                }
            }
            failures_a.push(tries - 1);
        }
        assert!(
            failures_a.iter().any(|&n| n > 0),
            "rate 0.5 over 16 ops injected nothing"
        );
        // Same plan + fresh state => identical schedule.
        let fb2 = seeded(0.5, 3);
        for (i, off) in (0..4096).step_by(256).enumerate() {
            let mut tries = 0u32;
            while fb2.read("bin0.dat", off, 64).is_err() {
                tries += 1;
            }
            assert_eq!(tries, failures_a[i], "schedule not deterministic");
        }
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let fb = seeded(0.0, 3);
        for off in (0..4096).step_by(64) {
            fb.read("bin0.dat", off, 64).unwrap();
        }
        assert_eq!(fb.stats().transient_errors(), 0);
    }

    #[test]
    fn lost_files_vanish_everywhere() {
        let mut plan = FaultPlan::none();
        plan.lost_files.push("bin1".to_string());
        let fb = FaultBackend::new(MemBackend::new(), plan);
        fb.inner().append("bin0.dat", &[1]).unwrap();
        fb.inner().append("bin1.dat", &[2]).unwrap();
        assert!(fb.exists("bin0.dat"));
        assert!(!fb.exists("bin1.dat"));
        assert!(matches!(
            fb.read("bin1.dat", 0, 1),
            Err(PfsError::NotFound(_))
        ));
        assert!(matches!(fb.len("bin1.dat"), Err(PfsError::NotFound(_))));
        assert_eq!(fb.list(), vec!["bin0.dat".to_string()]);
        assert!(fb.stats().lost_denials() >= 2);
    }

    #[test]
    fn bit_flips_corrupt_reads_not_storage() {
        let mut plan = FaultPlan::none();
        plan.flips.push(BitFlip {
            file: "bin0".to_string(),
            offset: 10,
            mask: 0x80,
        });
        let fb = FaultBackend::new(MemBackend::new(), plan);
        fb.inner().append("bin0.dat", &[0u8; 32]).unwrap();
        let buf = fb.read("bin0.dat", 0, 32).unwrap();
        assert_eq!(buf[10], 0x80);
        assert_eq!(buf[9], 0);
        // Reads that miss the offset are untouched.
        assert_eq!(fb.read("bin0.dat", 11, 8).unwrap(), vec![0u8; 8]);
        // Underlying bytes are clean.
        assert_eq!(fb.inner().read("bin0.dat", 10, 1).unwrap(), vec![0]);
        assert_eq!(fb.stats().bytes_flipped(), 1);
    }

    #[test]
    fn crash_backend_buffers_until_sync() {
        let cb = CrashBackend::new(MemBackend::new(), CrashPlan::none());
        cb.create("f").unwrap();
        assert_eq!(cb.append("f", &[1, 2, 3]).unwrap(), 0);
        assert_eq!(cb.append("f", &[4]).unwrap(), 3);
        // Readers through the backend see the composite state …
        assert_eq!(cb.read("f", 1, 3).unwrap(), vec![2, 3, 4]);
        assert_eq!(cb.len("f").unwrap(), 4);
        assert!(cb.exists("f"));
        assert_eq!(cb.list(), vec!["f".to_string()]);
        // … but nothing is durable yet.
        assert!(!cb.inner().exists("f"));
        cb.sync("f").unwrap();
        assert_eq!(cb.inner().read("f", 0, 4).unwrap(), vec![1, 2, 3, 4]);
        // Reads after flush stitch correctly across the durable base.
        cb.append("f", &[5, 6]).unwrap();
        assert_eq!(cb.read("f", 2, 4).unwrap(), vec![3, 4, 5, 6]);
        assert_eq!(cb.inner().len("f").unwrap(), 4);
        assert_eq!(cb.write_ops(), 5);
        assert_eq!(
            cb.op_log().iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec!["create", "append", "append", "sync", "append"]
        );
    }

    #[test]
    fn crash_discards_volatile_and_fails_later_writes() {
        // Ops: 1 create, 2 append, 3 sync, 4 append (crash), …
        let cb = CrashBackend::new(MemBackend::new(), CrashPlan::at(4));
        cb.create("f").unwrap();
        cb.append("f", &[1, 2]).unwrap();
        cb.sync("f").unwrap();
        let err = cb.append("f", &[3, 4]).unwrap_err();
        assert!(err.to_string().contains("injected crash"), "{err}");
        assert!(cb.crashed());
        // Durable state: the synced prefix only.
        assert_eq!(cb.read("f", 0, 2).unwrap(), vec![1, 2]);
        assert_eq!(cb.len("f").unwrap(), 2);
        // Everything after the crash fails.
        assert!(cb.append("f", &[9]).is_err());
        assert!(cb.create("g").is_err());
        assert!(cb.sync("f").is_err());
    }

    #[test]
    fn crash_before_sync_loses_directory_entry() {
        // The file is created and appended but never synced: at the
        // crash its entry was never durable, so it vanishes.
        let cb = CrashBackend::new(MemBackend::new(), CrashPlan::at(3));
        cb.create("f").unwrap();
        cb.append("f", &[1, 2, 3]).unwrap();
        assert!(cb.create("g").is_err()); // op 3 crashes
        assert!(!cb.exists("f"));
        assert!(cb.list().is_empty());
        assert!(!cb.inner().exists("f"));
    }

    #[test]
    fn torn_crash_persists_prefix() {
        // Ops: 1 create, 2 sync (entry durable), 3 append torn at 3.
        let cb = CrashBackend::new(MemBackend::new(), CrashPlan::torn_at(3, 3));
        cb.create("f").unwrap();
        cb.sync("f").unwrap();
        assert!(cb.append("f", &[1, 2, 3, 4, 5, 6, 7, 8]).is_err());
        assert!(cb.crashed());
        assert_eq!(cb.inner().read("f", 0, 3).unwrap(), vec![1, 2, 3]);
        assert_eq!(cb.inner().len("f").unwrap(), 3);
    }

    #[test]
    fn dropped_sync_lies_then_power_cut_loses_bytes() {
        let mut plan = CrashPlan::none();
        plan.drop_syncs.push("bin".to_string());
        let cb = CrashBackend::new(MemBackend::new(), plan);
        cb.create("bin0.dat").unwrap();
        cb.append("bin0.dat", &[7u8; 64]).unwrap();
        cb.sync("bin0.dat").unwrap(); // lies: nothing flushed
        cb.create("meta").unwrap();
        cb.append("meta", &[1u8; 8]).unwrap();
        cb.sync("meta").unwrap(); // honest: flushed
        assert_eq!(cb.len("bin0.dat").unwrap(), 64, "pre-crash view intact");
        cb.power_cut();
        assert!(!cb.inner().exists("bin0.dat"), "dropped sync lost the file");
        assert_eq!(cb.inner().read("meta", 0, 8).unwrap(), vec![1u8; 8]);
    }

    #[test]
    fn crash_plan_parser_round_trip() {
        let plan = CrashPlan::parse(
            "
            # CI drill
            crash_at = 7
            torn_keep = 512
            dropsync bin0000.dat
            ",
        )
        .unwrap();
        assert_eq!(plan.crash_at, 7);
        assert_eq!(plan.torn_keep, Some(512));
        assert_eq!(plan.drop_syncs, vec!["bin0000.dat".to_string()]);
        assert!(CrashPlan::parse("crash_at = x").is_err());
        assert!(CrashPlan::parse("bogus").is_err());
        assert_eq!(CrashPlan::parse("").unwrap(), CrashPlan::none());
    }

    #[test]
    fn plan_parser_round_trip() {
        let text = "
            # schedule for CI
            seed = 7
            transient_rate = 0.25
            max_transient = 2
            lose bin3
            flip v.dat 128 0x80
        ";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.transient_rate, 0.25);
        assert_eq!(plan.max_transient, 2);
        assert_eq!(plan.lost_files, vec!["bin3".to_string()]);
        assert_eq!(
            plan.flips,
            vec![BitFlip {
                file: "v.dat".to_string(),
                offset: 128,
                mask: 0x80
            }]
        );
        assert!(FaultPlan::parse("transient_rate = 1.5").is_err());
        assert!(FaultPlan::parse("flip onlyfile").is_err());
        assert!(FaultPlan::parse("bogus directive").is_err());
        assert!(FaultPlan::parse("torn meta 10").is_err());
    }
}
