//! Property-based tests for the PFS simulator: causality, monotonicity
//! and conservation invariants that must hold for any trace — plus the
//! batched-read and shard-routing contracts that must hold for any
//! request list on any backend, the replica hook through every wrapper
//! stack, and the exact wording of both plan grammars' errors.

use std::sync::atomic::{AtomicUsize, Ordering};

use mloc_pfs::{
    simulate_reads, BitFlip, CostModel, CrashBackend, CrashPlan, DirBackend, FaultBackend,
    FaultPlan, MemBackend, PfsError, ReadOp, ReadRequest, ReplicaAccess, ShardRouter,
    StorageBackend,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn op_strategy() -> impl Strategy<Value = ReadOp> {
    (0u8..4, 0u64..(1 << 26), 1u64..(1 << 22))
        .prop_map(|(f, offset, len)| ReadOp::new(format!("f{f}"), offset, len))
}

fn trace_strategy() -> impl Strategy<Value = Vec<Vec<ReadOp>>> {
    proptest::collection::vec(proptest::collection::vec(op_strategy(), 0..6), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simulation_is_deterministic(traces in trace_strategy()) {
        let m = CostModel::lens_2012();
        let a = simulate_reads(&traces, &m);
        let b = simulate_reads(&traces, &m);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn conservation_of_bytes(traces in trace_strategy()) {
        let m = CostModel::lens_2012();
        let rep = simulate_reads(&traces, &m);
        let want: u64 = traces.iter().flatten().map(|o| o.len).sum();
        prop_assert_eq!(rep.total_bytes, want);
    }

    #[test]
    fn time_is_bounded_below_by_physics(traces in trace_strategy()) {
        // No rank can finish faster than its own bytes at full
        // aggregate bandwidth, and the phase cannot beat the total
        // bytes over aggregate bandwidth.
        let m = CostModel::lens_2012();
        let rep = simulate_reads(&traces, &m);
        for (r, trace) in traces.iter().enumerate() {
            let bytes: u64 = trace.iter().map(|o| o.len).sum();
            if bytes > 0 {
                let lower = bytes as f64 / m.aggregate_bw();
                prop_assert!(
                    rep.per_rank_seconds[r] >= lower,
                    "rank {} took {} < physical bound {}",
                    r, rep.per_rank_seconds[r], lower
                );
            }
        }
        let total: u64 = traces.iter().flatten().map(|o| o.len).sum();
        prop_assert!(rep.elapsed() >= total as f64 / m.aggregate_bw());
    }

    #[test]
    fn adding_work_never_speeds_up_the_phase(traces in trace_strategy(), extra in op_strategy()) {
        let m = CostModel::lens_2012();
        let before = simulate_reads(&traces, &m).elapsed();
        let mut more = traces.clone();
        more[0].push(extra);
        let after = simulate_reads(&more, &m).elapsed();
        prop_assert!(after + 1e-12 >= before, "after {after} < before {before}");
    }

    #[test]
    fn seeks_and_opens_are_sane(traces in trace_strategy()) {
        let m = CostModel::lens_2012();
        let rep = simulate_reads(&traces, &m);
        let nonempty_ops = traces.iter().flatten().filter(|o| o.len > 0).count() as u64;
        // At most one open per (rank, file) pair.
        let mut pairs = std::collections::HashSet::new();
        for (r, t) in traces.iter().enumerate() {
            for o in t.iter().filter(|o| o.len > 0) {
                pairs.insert((r, o.file.clone()));
            }
        }
        prop_assert!(rep.total_opens <= pairs.len() as u64);
        // Seeks are bounded by the number of stripe segments.
        let segments: u64 = traces
            .iter()
            .flatten()
            .map(|o| {
                if o.len == 0 {
                    0
                } else {
                    (o.offset + o.len).div_ceil(m.stripe_size) - o.offset / m.stripe_size
                }
            })
            .sum();
        prop_assert!(rep.total_seeks <= segments);
        prop_assert!(nonempty_ops == 0 || rep.total_seeks >= 1);
    }
}

// ---------------------------------------------------------------------
// Batched reads and shard routing
// ---------------------------------------------------------------------

static PROP_DIR_ID: AtomicUsize = AtomicUsize::new(0);

/// A throwaway directory for one proptest case, removed on drop.
struct TempRoot(std::path::PathBuf);

impl TempRoot {
    fn new() -> Self {
        let p = std::env::temp_dir().join(format!(
            "mloc-pfs-prop-{}-{}",
            std::process::id(),
            PROP_DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        TempRoot(p)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Arbitrary file contents over a small name pool (duplicates append).
fn file_set_strategy() -> impl Strategy<Value = Vec<(String, Vec<u8>)>> {
    proptest::collection::vec(
        (0u8..4, proptest::collection::vec(any::<u8>(), 1..160)),
        1..5,
    )
    .prop_map(|files| {
        files
            .into_iter()
            .map(|(i, bytes)| (format!("p{i}"), bytes))
            .collect()
    })
}

/// Arbitrary request lists: overlapping, duplicate, zero-length,
/// out-of-range offsets/lengths, and reads of files that don't exist.
fn request_list_strategy() -> impl Strategy<Value = Vec<ReadRequest>> {
    proptest::collection::vec(
        (0u8..6, 0u64..260, 0u64..260)
            .prop_map(|(f, offset, len)| ReadRequest::new(format!("p{f}"), offset, len)),
        0..24,
    )
}

/// Ok bytes must match exactly; errors must agree on identity (which
/// variant, which file) even when the payloads aren't comparable.
fn normalize(res: &Result<Vec<u8>, PfsError>) -> String {
    match res {
        Ok(bytes) => format!("ok:{bytes:?}"),
        Err(e) => format!("err:{e}"),
    }
}

/// Every backend world the suite guarantees batch/sequential parity
/// for, populated with the same files.
fn make_worlds(
    root: &TempRoot,
    files: &[(String, Vec<u8>)],
) -> Vec<(&'static str, Box<dyn StorageBackend>)> {
    let worlds: Vec<(&'static str, Box<dyn StorageBackend>)> = vec![
        ("mem", Box::new(MemBackend::new())),
        ("dir", Box::new(DirBackend::new(root.0.join("c")).unwrap())),
        (
            "dir-uncached",
            Box::new(DirBackend::uncached(root.0.join("u")).unwrap()),
        ),
        (
            "shard-mem",
            Box::new(
                ShardRouter::new((0..3).map(|_| Box::new(MemBackend::new()) as _).collect())
                    .unwrap(),
            ),
        ),
        (
            "shard-dir",
            Box::new(
                ShardRouter::new(
                    (0..2)
                        .map(|s| {
                            Box::new(DirBackend::new(root.0.join(format!("s{s}"))).unwrap()) as _
                        })
                        .collect(),
                )
                .unwrap(),
            ),
        ),
    ];
    for (_, be) in &worlds {
        for (name, bytes) in files {
            be.append(name, bytes).unwrap();
        }
    }
    worlds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `read_batch` must be observationally identical to a sequential
    /// loop of `read` on every backend, for any request list.
    #[test]
    fn read_batch_matches_sequential_loop(
        files in file_set_strategy(),
        reqs in request_list_strategy(),
    ) {
        let root = TempRoot::new();
        for (tag, be) in make_worlds(&root, &files) {
            let batch = be.read_batch(&reqs);
            prop_assert_eq!(batch.len(), reqs.len(), "{}: wrong batch arity", tag);
            for (i, (req, got)) in reqs.iter().zip(&batch).enumerate() {
                let want = be.read(&req.file, req.offset, req.len);
                prop_assert_eq!(
                    normalize(got),
                    normalize(&want),
                    "{}: slot {} ({:?}@{}+{}) diverged",
                    tag, i, &req.file, req.offset, req.len
                );
            }
        }
        // A degraded replicated world: R = 2 over 3 mem shards, shard 0
        // wiped. The batch runs on one router and the `read` loop on an
        // identically built twin, so a write-back made by one cannot
        // hide a masked read from the other; the counters must agree.
        let degraded = || {
            let router = ShardRouter::replicated(
                (0..3).map(|_| Box::new(MemBackend::new()) as _).collect(),
                2,
            ).unwrap();
            for (name, bytes) in &files {
                router.append(name, bytes).unwrap();
            }
            for f in router.shard(0).list() {
                router.shard(0).remove(&f).unwrap();
            }
            router
        };
        let (batched, looped) = (degraded(), degraded());
        let batch: Vec<String> = batched.read_batch(&reqs).iter().map(normalize).collect();
        let want: Vec<String> = reqs
            .iter()
            .map(|r| normalize(&looped.read(&r.file, r.offset, r.len)))
            .collect();
        prop_assert_eq!(batch, want, "shard-r2-degraded: batch diverged from the loop");
        prop_assert_eq!(batched.read_repair_count(), looped.read_repair_count());
        prop_assert_eq!(batched.writeback_count(), looped.writeback_count());
    }

    /// Shard routing round-trips every file to exactly one owner, and
    /// batches through the router preserve submission order.
    #[test]
    fn shard_routing_round_trips_every_file(
        names in proptest::collection::vec(
            proptest::collection::vec(0u8..26, 1..10)
                .prop_map(|cs| cs.into_iter().map(|c| (b'a' + c) as char).collect::<String>()),
            1..20,
        ),
        nshards in 1usize..5,
    ) {
        let router = ShardRouter::new(
            (0..nshards).map(|_| Box::new(MemBackend::new()) as _).collect(),
        ).unwrap();
        let mut unique: Vec<String> = names;
        unique.sort();
        unique.dedup();
        for name in &unique {
            let payload = name.as_bytes();
            router.append(name, payload).unwrap();
            let owner = router.shard_of(name);
            prop_assert!(owner < nshards);
            for s in 0..nshards {
                prop_assert_eq!(
                    router.shard(s).exists(name),
                    s == owner,
                    "{} landed on the wrong shard", name
                );
            }
            prop_assert_eq!(
                router.read(name, 0, payload.len() as u64).unwrap(),
                payload.to_vec()
            );
        }
        // One batch over all files, reversed: slot order is submission
        // order, not shard order.
        let reqs: Vec<ReadRequest> = unique
            .iter()
            .rev()
            .map(|n| ReadRequest::new(n.clone(), 0, n.len() as u64))
            .collect();
        for (req, res) in reqs.iter().zip(router.read_batch(&reqs)) {
            prop_assert_eq!(res.unwrap(), req.file.as_bytes().to_vec());
        }
        prop_assert_eq!(router.list(), unique);
    }
}

// ---------------------------------------------------------------------
// Replication, shard loss and read-repair
// ---------------------------------------------------------------------

/// Lowercase file names, deduplicated.
fn name_pool_strategy() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        proptest::collection::vec(0u8..26, 1..10).prop_map(|cs| {
            cs.into_iter()
                .map(|c| (b'a' + c) as char)
                .collect::<String>()
        }),
        1..16,
    )
    .prop_map(|mut names| {
        names.sort();
        names.dedup();
        names
    })
}

/// A shard whose read path is permanently dead (every file "lost")
/// while its write path still works, like a re-provisioned blank OST.
fn dead_shard() -> Box<dyn StorageBackend> {
    let mut plan = FaultPlan::none();
    plan.lost_files.push(String::new()); // matches every name
    Box::new(FaultBackend::new(MemBackend::new(), plan))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Replication places every file on exactly R *distinct* shards,
    /// with byte-identical copies, for any name set and any (n, r).
    #[test]
    fn replicated_writes_land_on_r_distinct_shards(
        names in name_pool_strategy(),
        nshards in 2usize..5,
        r in 2usize..4,
    ) {
        let r = r.min(nshards);
        let router = ShardRouter::replicated(
            (0..nshards).map(|_| Box::new(MemBackend::new()) as _).collect(),
            r,
        ).unwrap();
        for name in &names {
            router.append(name, name.as_bytes()).unwrap();
            router.sync(name).unwrap();
            let owners: BTreeSet<usize> =
                (0..r).map(|k| router.replica_shard_of(name, k)).collect();
            prop_assert_eq!(owners.len(), r, "{}: replica placement collided", name);
            for s in 0..nshards {
                let holds = router.shard(s).exists(name);
                prop_assert_eq!(
                    holds,
                    owners.contains(&s),
                    "{} on shard {}: expected the inverse", name, s
                );
                if holds {
                    prop_assert_eq!(
                        router.shard(s).read(name, 0, name.len() as u64).unwrap(),
                        name.as_bytes().to_vec(),
                        "{} copy on shard {} diverged", name, s
                    );
                }
            }
        }
    }

    /// With R = 2, killing ANY single shard's read path leaves every
    /// file readable through the router, and `read_repair_count`
    /// accounts for exactly the reads whose primary copy was masked.
    #[test]
    fn any_single_dead_shard_leaves_every_file_readable(
        names in name_pool_strategy(),
        nshards in 2usize..5,
    ) {
        for dead in 0..nshards {
            let shards = (0..nshards)
                .map(|s| {
                    if s == dead {
                        dead_shard()
                    } else {
                        Box::new(MemBackend::new()) as _
                    }
                })
                .collect();
            let router = ShardRouter::replicated(shards, 2).unwrap();
            for name in &names {
                router.append(name, name.as_bytes()).unwrap();
            }
            for name in &names {
                prop_assert_eq!(
                    router.read(name, 0, name.len() as u64).unwrap(),
                    name.as_bytes().to_vec(),
                    "{} unreadable with shard {} dead", name, dead
                );
            }
            let masked = names
                .iter()
                .filter(|n| router.shard_of(n) == dead)
                .count() as u64;
            prop_assert_eq!(
                router.read_repair_count(),
                masked,
                "shard {} dead: masked reads misaccounted", dead
            );
        }
    }

    /// A lost primary copy is healed by the first read through the
    /// router: the copy reappears on its home shard, byte-identical,
    /// and both the read-repair and write-back counters agree.
    #[test]
    fn read_repair_restores_byte_identical_replicas(
        names in name_pool_strategy(),
        nshards in 2usize..5,
    ) {
        let router = ShardRouter::replicated(
            (0..nshards).map(|_| Box::new(MemBackend::new()) as _).collect(),
            2,
        ).unwrap();
        for name in &names {
            router.append(name, name.as_bytes()).unwrap();
            router.shard(router.shard_of(name)).remove(name).unwrap();
        }
        for name in &names {
            prop_assert_eq!(
                router.read(name, 0, name.len() as u64).unwrap(),
                name.as_bytes().to_vec()
            );
            let home = router.shard_of(name);
            prop_assert_eq!(
                router.shard(home).read(name, 0, name.len() as u64).unwrap(),
                name.as_bytes().to_vec(),
                "{}: primary copy not healed in place", name
            );
        }
        prop_assert_eq!(router.read_repair_count(), names.len() as u64);
        prop_assert_eq!(router.writeback_count(), names.len() as u64);
    }
}

/// A batch drained over a wiped shard under R = 2: the first masked
/// read of each degraded file is its one read-repair and its one
/// write-back, so the later requests of that file in the same batch
/// read the healed primary, and a second drain masks nothing.
#[test]
fn degraded_batch_drain_repairs_once_per_file_then_masks_nothing() {
    let router = ShardRouter::replicated(
        (0..2).map(|_| Box::new(MemBackend::new()) as _).collect(),
        2,
    )
    .unwrap();
    let files: Vec<String> = (0..24).map(|i| format!("f{i}")).collect();
    for (i, f) in files.iter().enumerate() {
        router.append(f, &vec![i as u8; 256]).unwrap();
    }
    // Wipe shard 0.
    for f in router.shard(0).list() {
        router.shard(0).remove(&f).unwrap();
    }
    let reqs: Vec<ReadRequest> = (0..4u64)
        .flat_map(|e| {
            files
                .iter()
                .map(move |f| ReadRequest::new(f.clone(), e * 64, 64))
        })
        .collect();
    let degraded_files = files.iter().filter(|f| router.shard_of(f) == 0).count() as u64;
    assert!(degraded_files > 0 && degraded_files < files.len() as u64);

    let check = |results: Vec<Result<Vec<u8>, PfsError>>| {
        for (req, res) in reqs.iter().zip(results) {
            let i: u8 = req.file[1..].parse().unwrap();
            assert_eq!(res.unwrap(), vec![i; 64], "{}", req.file);
        }
    };
    check(router.read_batch(&reqs));
    assert_eq!(router.read_repair_count(), degraded_files);
    assert_eq!(router.writeback_count(), degraded_files);
    check(router.read_batch(&reqs));
    assert_eq!(
        router.read_repair_count(),
        degraded_files,
        "second drain masked reads"
    );
    assert_eq!(router.writeback_count(), degraded_files);
}

// ---------------------------------------------------------------------
// The replica hook through wrapper stacks
// ---------------------------------------------------------------------

/// What `replica_access()` must report for one storage world.
#[derive(Clone, Copy)]
enum Expect {
    SingleCopy,
    Router { shards: usize, replicas: usize },
}

/// An R = 2 router over two shards that are told apart by what they
/// serve: shard 0 denies every read of a file named `lost*`, shard 1
/// flips the first byte of everything it reads. A copy is therefore
/// recognisable by its bytes, and a read of a `lost*` file whose
/// primary is shard 0 is a masked read.
fn skewed_r2_router() -> ShardRouter {
    let mut deny = FaultPlan::none();
    deny.lost_files.push("lost".into());
    let mut flip = FaultPlan::none();
    flip.flips.push(BitFlip {
        file: String::new(), // matches every name
        offset: 0,
        mask: 0xFF,
    });
    ShardRouter::replicated(
        vec![
            Box::new(FaultBackend::new(MemBackend::new(), deny)),
            Box::new(FaultBackend::new(MemBackend::new(), flip)),
        ],
        2,
    )
    .unwrap()
}

fn check_stack(ctx: &str, be: &dyn StorageBackend, expect: Expect) {
    let (shards, replicas) = match expect {
        Expect::SingleCopy => {
            assert!(be.replica_access().is_none(), "{ctx}: not a router");
            return;
        }
        Expect::Router { shards, replicas } => (shards, replicas),
    };
    let ra = be
        .replica_access()
        .unwrap_or_else(|| panic!("{ctx}: the stack hid the router"));
    assert_eq!(ra.shard_count(), shards, "{ctx}");
    assert_eq!(ra.replica_count(), replicas, "{ctx}");
    if replicas == 1 {
        return;
    }
    // Each physical copy is addressed on its own (skewed_r2_router).
    for i in 0..8u8 {
        let name = format!("f{i}");
        let payload = vec![i + 1; 16];
        be.append(&name, &payload).unwrap();
        be.sync(&name).unwrap();
        assert_ne!(ra.replica_shard_of(&name, 0), ra.replica_shard_of(&name, 1));
        assert_eq!(ra.replica_shard_of(&name, 0), ra.shard_of(&name), "{ctx}");
        for k in 0..2 {
            let mut want = payload.clone();
            if ra.replica_shard_of(&name, k) == 1 {
                want[0] ^= 0xFF;
            }
            assert_eq!(
                ra.len_replica(&name, k).unwrap(),
                16,
                "{ctx}: {name} copy {k}"
            );
            assert_eq!(
                ra.read_replica(&name, k, 0, 16).unwrap(),
                want,
                "{ctx}: {name} copy {k}"
            );
        }
    }
    // A masked read moves the counter the stack reports.
    let lost = (0..)
        .map(|i| format!("lost{i}"))
        .find(|n| ra.shard_of(n) == 0)
        .unwrap();
    be.append(&lost, &[7; 4]).unwrap();
    be.sync(&lost).unwrap();
    assert!(ra.len_replica(&lost, 0).is_err(), "{ctx}: shard 0 denies");
    let before = ra.read_repair_count();
    assert_eq!(
        be.read(&lost, 0, 4).unwrap(),
        vec![7 ^ 0xFF, 7, 7, 7],
        "{ctx}"
    );
    assert_eq!(
        ra.read_repair_count(),
        before + 1,
        "{ctx}: masked read uncounted"
    );
}

/// One world, bare and under each wrapper stack `mloc --fault-plan` /
/// `--crash-plan` can build over it.
fn check_world<B: StorageBackend + 'static>(tag: &str, make: impl Fn() -> B, expect: Expect) {
    let boxed = || Box::new(make()) as Box<dyn StorageBackend>;
    check_stack(&format!("{tag} bare"), &make(), expect);
    check_stack(&format!("{tag} Box<dyn>"), &boxed(), expect);
    check_stack(
        &format!("{tag} Fault<_>"),
        &FaultBackend::new(make(), FaultPlan::none()),
        expect,
    );
    check_stack(
        &format!("{tag} Crash<Fault<Box<dyn>>>"),
        &CrashBackend::new(
            FaultBackend::new(boxed(), FaultPlan::none()),
            CrashPlan::none(),
        ),
        expect,
    );
}

#[test]
fn replica_access_is_the_same_through_every_wrapper_stack() {
    let root = TempRoot::new();
    let fresh_dir = || {
        root.0
            .join(PROP_DIR_ID.fetch_add(1, Ordering::Relaxed).to_string())
    };
    let mem_shards = || (0..2).map(|_| Box::new(MemBackend::new()) as _).collect();
    check_world("mem", MemBackend::new, Expect::SingleCopy);
    check_world(
        "dir",
        || DirBackend::new(fresh_dir()).unwrap(),
        Expect::SingleCopy,
    );
    check_world(
        "router",
        || ShardRouter::new(mem_shards()).unwrap(),
        Expect::Router {
            shards: 2,
            replicas: 1,
        },
    );
    check_world(
        "router-r2",
        skewed_r2_router,
        Expect::Router {
            shards: 2,
            replicas: 2,
        },
    );
}

// ---------------------------------------------------------------------
// Plan grammars: error wording
// ---------------------------------------------------------------------

/// Every malformed-line case of both plan grammars, as `line | reason`.
/// Case i is parsed on line i + 1 of its plan (after i blank lines), and
/// the message must be, as it has always been,
/// `<kind> plan line N: <reason>: <the line, trimmed>`.
#[test]
fn plan_parse_errors_keep_their_wording() {
    const FAULT: &str = "\
seed = x | bad seed
  transient_rate = fast | bad rate
transient_rate = 1.5 | rate must be in [0, 1]
max_transient = -1 | bad count
crash_at = 3 | unknown key
lose a=b | unknown key
lose | missing file
flip | missing file
flip f | missing/bad offset
flip f x 1 | missing/bad offset
flip f 8 | missing/bad mask
flip f 8 0x100 | missing/bad mask
torn meta 10 | unknown directive
dropsync f | unknown directive
\tlose a b   | trailing tokens
flip f 8 0x80 extra | trailing tokens";
    const CRASH: &str = "\
crash_at = x | bad index
torn_keep = -1 | bad byte count
seed = 3 | unknown key
dropsync | missing file
lose f | unknown directive
bogus | unknown directive
 dropsync a b | trailing tokens";
    type Parse = fn(&str) -> Option<String>;
    let grammars: [(&str, &str, Parse); 2] = [
        ("fault", FAULT, |t| FaultPlan::parse(t).err()),
        ("crash", CRASH, |t| CrashPlan::parse(t).err()),
    ];
    for (kind, cases, parse) in grammars {
        for (i, case) in cases.lines().enumerate() {
            let (line, why) = case.split_once(" | ").unwrap();
            let plan = format!("{}# a comment\n{line}", "\n".repeat(i));
            let want = format!("{kind} plan line {}: {why}: {}", i + 2, line.trim());
            assert_eq!(parse(&plan), Some(want), "{kind}: {line:?}");
        }
    }
}
