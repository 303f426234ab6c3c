//! Dataset sharding: one logical namespace spread over N independent
//! backends, optionally replicated.
//!
//! A [`ShardRouter`] owns a fixed set of shard backends (typically one
//! [`crate::DirBackend`] per shard directory) and routes every file to
//! a *primary* shard by a stable hash of its name. A batch is the
//! trait's default loop over [`ShardRouter::read`], on the caller's
//! thread and in submission order, so callers cannot tell a sharded
//! store from a flat one.
//!
//! With replication factor R ≥ 2 ([`ShardRouter::replicated`]) each
//! file also lives on the R−1 successor shards (chained declustering:
//! replica i sits at `(primary + i) mod N`, distinct while R ≤ N).
//! Writes fan out to every replica; reads try replicas in placement
//! order and fall through on error, so losing any single shard loses
//! nothing. Every masked read bumps the read-repair counter and the
//! first mask per file triggers an inline write-back of the healthy
//! copy onto the failed replicas. Without replication a lost shard
//! behaves exactly like losing the files it owns: reads and `len`
//! return [`PfsError::NotFound`], and `list` simply omits them.

use crate::backend::{ReplicaAccess, StorageBackend};
use crate::PfsError;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Routes a flat file namespace over `N` shard backends by a stable
/// name hash.
pub struct ShardRouter {
    shards: Vec<Box<dyn StorageBackend>>,
    replicas: usize,
    read_repairs: AtomicU64,
    writebacks: AtomicU64,
    /// Files already written back this session, so one degraded file
    /// costs one repair, not one per masked read.
    repaired: Mutex<HashSet<String>>,
}

impl ShardRouter {
    /// Build an unreplicated router over the given shard backends
    /// (at least one).
    pub fn new(shards: Vec<Box<dyn StorageBackend>>) -> Result<Self, PfsError> {
        ShardRouter::replicated(shards, 1)
    }

    /// Build a router keeping `replicas` copies of every file on
    /// distinct shards. Requires `1 <= replicas <= shards.len()`.
    pub fn replicated(
        shards: Vec<Box<dyn StorageBackend>>,
        replicas: usize,
    ) -> Result<Self, PfsError> {
        if shards.is_empty() {
            return Err(PfsError::Io(std::io::Error::other(
                "shard router needs at least one shard",
            )));
        }
        if replicas == 0 || replicas > shards.len() {
            return Err(PfsError::Io(std::io::Error::other(format!(
                "replication factor {replicas} must be in 1..={} (shard count)",
                shards.len()
            ))));
        }
        Ok(ShardRouter {
            shards,
            replicas,
            read_repairs: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
            repaired: Mutex::new(HashSet::new()),
        })
    }

    /// Borrow one shard backend (for per-shard inspection in tests
    /// and stats).
    pub fn shard(&self, i: usize) -> &dyn StorageBackend {
        self.shards[i].as_ref()
    }

    /// Files restored onto a failed replica by read-repair so far.
    pub fn writeback_count(&self) -> u64 {
        self.writebacks.load(Ordering::Relaxed)
    }

    /// Write back the healthy copy of `name` (read from shard
    /// `healthy`) onto the `failed` shards — once per file, best
    /// effort: a write-back that fails leaves the read fall-through
    /// to keep masking.
    fn write_back(&self, name: &str, healthy: usize, failed: &[usize]) {
        if failed.is_empty() || !self.repaired.lock().insert(name.to_string()) {
            return;
        }
        let src = &self.shards[healthy];
        let Ok(len) = src.len(name) else { return };
        let Ok(bytes) = src.read(name, 0, len) else {
            return;
        };
        for &s in failed {
            let dst = &self.shards[s];
            if dst.create(name).is_ok()
                && dst.append(name, &bytes).is_ok()
                && dst.sync(name).is_ok()
            {
                self.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn owner(&self, name: &str) -> &dyn StorageBackend {
        self.shards[self.shard_of(name)].as_ref()
    }
}

/// FNV-1a over the file name: zero-dep, platform-stable, and
/// independent of the fault-injection hash so fault schedules and
/// shard layout never correlate.
pub fn stable_name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl StorageBackend for ShardRouter {
    fn create(&self, name: &str) -> Result<(), PfsError> {
        for k in 0..self.replicas {
            self.shards[self.replica_shard_of(name, k)].create(name)?;
        }
        Ok(())
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<u64, PfsError> {
        let offset = self.owner(name).append(name, data)?;
        for k in 1..self.replicas {
            self.shards[self.replica_shard_of(name, k)].append(name, data)?;
        }
        Ok(offset)
    }

    fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
        let mut first_err = None;
        let mut failed = Vec::new();
        for k in 0..self.replicas {
            let s = self.replica_shard_of(name, k);
            match self.shards[s].read(name, offset, len) {
                Ok(buf) => {
                    if k > 0 {
                        self.read_repairs.fetch_add(1, Ordering::Relaxed);
                        self.write_back(name, s, &failed);
                    }
                    return Ok(buf);
                }
                Err(e) => {
                    failed.push(s);
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        Err(first_err.unwrap_or_else(|| PfsError::NotFound(name.to_string())))
    }

    fn len(&self, name: &str) -> Result<u64, PfsError> {
        let mut first_err = None;
        for k in 0..self.replicas {
            match self.shards[self.replica_shard_of(name, k)].len(name) {
                Ok(n) => return Ok(n),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        Err(first_err.unwrap_or_else(|| PfsError::NotFound(name.to_string())))
    }

    fn sync(&self, name: &str) -> Result<(), PfsError> {
        for k in 0..self.replicas {
            self.shards[self.replica_shard_of(name, k)].sync(name)?;
        }
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), PfsError> {
        let mut removed = false;
        let mut hard_err = None;
        for k in 0..self.replicas {
            match self.shards[self.replica_shard_of(name, k)].remove(name) {
                Ok(()) => removed = true,
                Err(PfsError::NotFound(_)) => {}
                Err(e) => hard_err = hard_err.or(Some(e)),
            }
        }
        match (hard_err, removed) {
            (Some(e), _) => Err(e),
            (None, true) => Ok(()),
            (None, false) => Err(PfsError::NotFound(name.to_string())),
        }
    }

    fn exists(&self, name: &str) -> bool {
        (0..self.replicas).any(|k| self.shards[self.replica_shard_of(name, k)].exists(name))
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shards.iter().flat_map(|s| s.list()).collect();
        names.sort();
        names.dedup();
        names
    }

    fn replica_access(&self) -> Option<&dyn ReplicaAccess> {
        Some(self)
    }
}

impl ReplicaAccess for ShardRouter {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Deterministic and stable across runs and platforms (FNV-1a), so
    /// a dataset written sharded is always read back from the same
    /// layout.
    fn shard_of(&self, name: &str) -> usize {
        (stable_name_hash(name) % self.shards.len() as u64) as usize
    }

    fn replica_count(&self) -> usize {
        self.replicas
    }

    /// Chained declustering: successive replicas on successive shards,
    /// distinct while `replicas <= shards`.
    fn replica_shard_of(&self, name: &str, replica: usize) -> usize {
        (self.shard_of(name) + (replica % self.replicas)) % self.shards.len()
    }

    fn read_replica(
        &self,
        name: &str,
        replica: usize,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, PfsError> {
        self.shards[self.replica_shard_of(name, replica)].read(name, offset, len)
    }

    fn len_replica(&self, name: &str, replica: usize) -> Result<u64, PfsError> {
        self.shards[self.replica_shard_of(name, replica)].len(name)
    }

    fn read_repair_count(&self) -> u64 {
        self.read_repairs.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ReadRequest;
    use crate::fault::{FaultBackend, FaultPlan};
    use crate::mem::MemBackend;
    use std::sync::Arc;

    fn router(n: usize) -> ShardRouter {
        ShardRouter::new((0..n).map(|_| Box::new(MemBackend::new()) as _).collect()).unwrap()
    }

    fn replicated(n: usize, r: usize) -> ShardRouter {
        ShardRouter::replicated(
            (0..n).map(|_| Box::new(MemBackend::new()) as _).collect(),
            r,
        )
        .unwrap()
    }

    /// A router over `n` mem shards where shard `dead` returns
    /// NotFound for every read-side op (writes still land).
    fn router_with_dead_shard(n: usize, r: usize, dead: usize) -> ShardRouter {
        let mut all = FaultPlan::none();
        all.lost_files.push(String::new()); // matches every name
        let shards: Vec<Box<dyn StorageBackend>> = (0..n)
            .map(|s| {
                if s == dead {
                    Box::new(FaultBackend::new(MemBackend::new(), all.clone())) as _
                } else {
                    Box::new(MemBackend::new()) as _
                }
            })
            .collect();
        ShardRouter::replicated(shards, r).unwrap()
    }

    #[test]
    fn routes_every_file_to_exactly_one_shard() {
        let r = router(4);
        for i in 0..64 {
            let name = format!("ds/var/bin{i:04}.dat");
            r.append(&name, &[i as u8; 16]).unwrap();
            let owner = r.shard_of(&name);
            // Exactly the owner holds the bytes.
            for s in 0..4 {
                assert_eq!(r.shard(s).exists(&name), s == owner);
            }
            assert_eq!(r.read(&name, 0, 16).unwrap(), vec![i as u8; 16]);
        }
        assert_eq!(r.shard_count(), 4);
        assert_eq!(r.list().len(), 64);
        // All shards got some share (64 files over 4 shards).
        for s in 0..4 {
            assert!(!r.shard(s).list().is_empty(), "shard {s} owns nothing");
        }
    }

    #[test]
    fn batch_merges_in_submission_order() {
        let r = router(3);
        for i in 0..12 {
            r.append(&format!("f{i}"), &[i as u8; 32]).unwrap();
        }
        let reqs: Vec<ReadRequest> = (0..12)
            .rev()
            .map(|i| ReadRequest::new(format!("f{i}"), 4, 8))
            .collect();
        let results = r.read_batch(&reqs);
        for (req, res) in reqs.iter().zip(&results) {
            let i: u8 = req.file[1..].parse().unwrap();
            assert_eq!(res.as_ref().unwrap(), &vec![i; 8]);
        }
    }

    /// A shard that records which thread each `read` ran on; a file
    /// named `lost*` is denied, so R = 2 routers go a second round.
    struct ThreadProbe {
        inner: MemBackend,
        seen: Arc<Mutex<Vec<std::thread::ThreadId>>>,
    }

    impl StorageBackend for ThreadProbe {
        fn create(&self, name: &str) -> Result<(), PfsError> {
            self.inner.create(name)
        }
        fn append(&self, name: &str, data: &[u8]) -> Result<u64, PfsError> {
            self.inner.append(name, data)
        }
        fn read(&self, name: &str, offset: u64, len: u64) -> Result<Vec<u8>, PfsError> {
            self.seen.lock().push(std::thread::current().id());
            if name.starts_with("lost") {
                return Err(PfsError::NotFound(name.to_string()));
            }
            self.inner.read(name, offset, len)
        }
        fn len(&self, name: &str) -> Result<u64, PfsError> {
            self.inner.len(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
        fn list(&self) -> Vec<String> {
            self.inner.list()
        }
    }

    #[test]
    fn batches_are_served_on_the_callers_thread() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let shards = (0..3)
            .map(|_| {
                Box::new(ThreadProbe {
                    inner: MemBackend::new(),
                    seen: Arc::clone(&seen),
                }) as _
            })
            .collect();
        let r = ShardRouter::replicated(shards, 2).unwrap();
        let names: Vec<String> = (0..12)
            .map(|i| format!("f{i}"))
            .chain((0..3).map(|i| format!("lost{i}")))
            .collect();
        for name in &names {
            r.append(name, &[1u8; 8]).unwrap();
        }
        let reqs: Vec<ReadRequest> = names
            .iter()
            .map(|n| ReadRequest::new(n.as_str(), 0, 8))
            .collect();
        let results = r.read_batch(&reqs);
        assert_eq!(results.iter().filter(|res| res.is_ok()).count(), 12);
        let seen = seen.lock();
        // Round 0 reads all 15 on primaries, round 1 retries the 3
        // denied ones on their replicas.
        assert_eq!(seen.len(), 18);
        let me = std::thread::current().id();
        assert!(
            seen.iter().all(|&id| id == me),
            "a shard read left the caller's thread"
        );
    }

    #[test]
    fn lost_shard_degrades_like_lost_files() {
        use crate::fault::{FaultBackend, FaultPlan};
        // Shard 1 of 2 "dies": every file it owns is lost.
        let mut dead = FaultPlan::none();
        dead.lost_files.push("".to_string()); // matches every name
        let shards: Vec<Box<dyn StorageBackend>> = vec![
            Box::new(MemBackend::new()),
            Box::new(FaultBackend::new(MemBackend::new(), dead)),
        ];
        let r = ShardRouter::new(shards).unwrap();
        let mut live = 0;
        let mut lost = 0;
        for i in 0..32 {
            let name = format!("g{i}");
            let on_dead = r.shard_of(&name) == 1;
            // Writes to the dead shard still land (loss is a read-side
            // fault here), but every read-side op sees NotFound.
            r.append(&name, &[1, 2, 3, 4]).unwrap();
            if on_dead {
                lost += 1;
                assert!(matches!(r.read(&name, 0, 4), Err(PfsError::NotFound(_))));
                assert!(matches!(r.len(&name), Err(PfsError::NotFound(_))));
                assert!(!r.exists(&name));
            } else {
                live += 1;
                assert_eq!(r.read(&name, 0, 4).unwrap(), vec![1, 2, 3, 4]);
            }
        }
        assert!(live > 0 && lost > 0);
        assert_eq!(r.list().len(), live);
        // Batches keep per-request identity: lost-shard slots fail,
        // live slots return bytes.
        let reqs: Vec<ReadRequest> = (0..32)
            .map(|i| ReadRequest::new(format!("g{i}"), 0, 4))
            .collect();
        for (req, res) in reqs.iter().zip(r.read_batch(&reqs)) {
            if r.shard_of(&req.file) == 1 {
                assert!(matches!(res, Err(PfsError::NotFound(_))));
            } else {
                assert_eq!(res.unwrap(), vec![1, 2, 3, 4]);
            }
        }
        assert_eq!(r.read_repair_count(), 0, "nothing to fall through to");
    }

    #[test]
    fn empty_router_rejected() {
        assert!(ShardRouter::new(Vec::new()).is_err());
    }

    #[test]
    fn bad_replication_factors_rejected() {
        let shards = |n: usize| -> Vec<Box<dyn StorageBackend>> {
            (0..n).map(|_| Box::new(MemBackend::new()) as _).collect()
        };
        assert!(ShardRouter::replicated(shards(2), 0).is_err());
        assert!(ShardRouter::replicated(shards(2), 3).is_err());
        assert!(ShardRouter::replicated(shards(2), 2).is_ok());
    }

    #[test]
    fn replicated_writes_fan_out_to_distinct_shards() {
        let r = replicated(3, 2);
        for i in 0..24 {
            let name = format!("f{i}");
            r.append(&name, &[i as u8; 8]).unwrap();
            r.sync(&name).unwrap();
            let homes: Vec<usize> = (0..2).map(|k| r.replica_shard_of(&name, k)).collect();
            assert_ne!(homes[0], homes[1], "replicas must sit on distinct shards");
            for s in 0..3 {
                let holds = r.shard(s).exists(&name);
                assert_eq!(holds, homes.contains(&s), "shard {s} for {name}");
                if holds {
                    assert_eq!(r.shard(s).read(&name, 0, 8).unwrap(), vec![i as u8; 8]);
                }
            }
        }
        // The logical namespace counts each file once.
        assert_eq!(r.list().len(), 24);
        assert_eq!(r.replica_count(), 2);
    }

    #[test]
    fn reads_fall_through_to_replica_and_write_back() {
        // Shard 0 dead on the read side; every file whose primary is
        // shard 0 must still read fine via its replica on shard 1.
        let r = router_with_dead_shard(2, 2, 0);
        let mut masked = 0u64;
        for i in 0..32 {
            let name = format!("f{i}");
            r.append(&name, &[i as u8; 16]).unwrap();
        }
        for i in 0..32 {
            let name = format!("f{i}");
            assert_eq!(r.read(&name, 0, 16).unwrap(), vec![i as u8; 16]);
            assert_eq!(r.len(&name).unwrap(), 16);
            assert!(r.exists(&name));
            if r.shard_of(&name) == 0 {
                masked += 1;
            }
        }
        assert!(masked > 0, "no file landed on the dead primary");
        assert_eq!(
            r.read_repair_count(),
            masked,
            "one masked read per dead-primary file"
        );
        // Write-back ran once per degraded file: the dead shard's
        // *store* (below the fault layer) received the healthy copy.
        assert_eq!(r.writeback_count(), masked);

        // Re-reading keeps masking (the fault layer still denies) and
        // keeps counting, but never re-repairs.
        for i in 0..32 {
            let name = format!("f{i}");
            r.read(&name, 0, 16).unwrap();
        }
        assert_eq!(r.read_repair_count(), 2 * masked);
        assert_eq!(r.writeback_count(), masked, "write-back is once per file");
    }

    #[test]
    fn batch_falls_through_with_exact_accounting() {
        let r = router_with_dead_shard(3, 2, 1);
        for i in 0..48 {
            r.append(&format!("f{i}"), &[i as u8; 32]).unwrap();
        }
        let reqs: Vec<ReadRequest> = (0..48)
            .map(|i| ReadRequest::new(format!("f{i}"), 8, 16))
            .collect();
        let masked = reqs.iter().filter(|q| r.shard_of(&q.file) == 1).count() as u64;
        assert!(masked > 0);
        let results = r.read_batch(&reqs);
        for (req, res) in reqs.iter().zip(&results) {
            let i: u8 = req.file[1..].parse().unwrap();
            assert_eq!(res.as_ref().unwrap(), &vec![i; 16], "slot for {}", req.file);
        }
        assert_eq!(r.read_repair_count(), masked);
    }

    #[test]
    fn double_fault_returns_primary_error() {
        // Both replicas dead: the error identity matches what the
        // unreplicated router reports for a lost file.
        let mut all = FaultPlan::none();
        all.lost_files.push(String::new());
        let shards: Vec<Box<dyn StorageBackend>> = (0..2)
            .map(|_| Box::new(FaultBackend::new(MemBackend::new(), all.clone())) as _)
            .collect();
        let r = ShardRouter::replicated(shards, 2).unwrap();
        r.append("f", &[1, 2, 3]).unwrap();
        assert!(matches!(r.read("f", 0, 3), Err(PfsError::NotFound(_))));
        let res = r.read_batch(&[ReadRequest::new("f", 0, 3)]);
        assert!(matches!(&res[0], Err(PfsError::NotFound(_))));
        assert_eq!(r.read_repair_count(), 0);
    }

    #[test]
    fn remove_deletes_every_replica() {
        let r = replicated(3, 2);
        r.append("f", &[1, 2]).unwrap();
        r.remove("f").unwrap();
        assert!(!r.exists("f"));
        for s in 0..3 {
            assert!(!r.shard(s).exists("f"));
        }
        assert!(matches!(r.remove("f"), Err(PfsError::NotFound(_))));
    }
}
