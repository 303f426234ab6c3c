//! Crash-matrix suite: kill the build at **every** ordered durability
//! step — not a sample of them — and prove the recovery contract end
//! to end:
//!
//! * after `repair`, either the store is byte-identical to a clean
//!   build (possibly after rerunning the interrupted build), or the
//!   loss is reported loudly (`RepairReport::unrepairable`) — never a
//!   silently corrupt store;
//! * the same holds when the crashing append is *torn* at an arbitrary
//!   byte, for every append in the chain;
//! * dropped fsyncs (a device that lies) either lose only what repair
//!   can reconstruct, or surface as reported loss.
//!
//! The write-op census is asserted against the documented durability
//! grammar (catalog header → per bin file create→append→sync → meta
//! → catalog registration), so a new write in the build path that
//! extends the chain shows up here as a failed census, forcing the
//! matrix to grow with it. `mloc upgrade` of the checked-in v6 dataset
//! commits through the same write stage, and its chain is swept too:
//! its census is the build's, and so are its crash states.

use mloc::prelude::*;
use mloc::repair::{fsck, repair};
use mloc::{Dataset, MlocStore};
use mloc_pfs::{CrashBackend, CrashPlan, DirBackend, MemBackend, ShardRouter, StorageBackend};
use std::sync::atomic::{AtomicUsize, Ordering};

const DS: &str = "cm";
const VAR: &str = "temp";
const CATALOG: &str = "cm/catalog";
const NUM_BINS: usize = 4;

fn config() -> MlocConfig {
    MlocConfig::builder(vec![16, 16])
        .chunk_shape(vec![8, 8])
        .num_bins(NUM_BINS)
        .build()
}

fn values() -> Vec<f64> {
    (0..256).map(|i| ((i * 37) % 101) as f64).collect()
}

/// The full build chain whose durability steps the matrix enumerates:
/// dataset creation (catalog header) plus one variable build.
/// `build_threads = 1` makes the write-op order deterministic, so op
/// index `k` means the same durability step in every replay.
fn build(be: &dyn StorageBackend) -> mloc::Result<()> {
    let mut ds = Dataset::create(be, DS, config())?;
    ds.set_build_threads(1);
    ds.add_variable(VAR, &values())?;
    Ok(())
}

/// The variable's build alone, over a dataset that has its catalog.
fn add_variable(be: &dyn StorageBackend) -> mloc::Result<()> {
    let mut ds = Dataset::open(be, DS)?;
    ds.set_build_threads(1);
    ds.add_variable(VAR, &values())?;
    Ok(())
}

/// The upgrade of the checked-in v6 dataset into `be`.
fn upgrade_v6(be: &dyn StorageBackend) -> mloc::Result<()> {
    mloc::upgrade::upgrade(&mloc_integration::fixture(6), be, "fmt").map(drop)
}

/// Remove every file, then upgrade again: what an operator does with
/// the destination of an interrupted upgrade.
fn upgrade_afresh(be: &dyn StorageBackend) -> mloc::Result<()> {
    for f in be.list() {
        be.remove(&f)?;
    }
    upgrade_v6(be)
}

/// A write chain the matrix crashes: the dataset and the variable it
/// commits, its bin count, how to run it, and how to finish it on a
/// repaired store whose variable the repair rolled back.
struct Chain {
    ds: &'static str,
    var: &'static str,
    num_bins: usize,
    run: fn(&dyn StorageBackend) -> mloc::Result<()>,
    rerun: fn(&dyn StorageBackend) -> mloc::Result<()>,
}

const BUILD: Chain = Chain {
    ds: DS,
    var: VAR,
    num_bins: NUM_BINS,
    run: build,
    rerun: add_variable,
};

const UPGRADE: Chain = Chain {
    ds: "fmt",
    var: "v",
    num_bins: 8,
    run: upgrade_v6,
    rerun: upgrade_afresh,
};

/// Every physical copy of every file: replicated worlds compare per
/// shard, unreplicated worlds degrade to the plain file list.
fn snapshot(be: &dyn StorageBackend) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for f in be.list() {
        match be.replica_access() {
            Some(copies) => {
                for r in 0..copies.replica_count() {
                    let len = copies.len_replica(&f, r).unwrap();
                    let bytes = copies.read_replica(&f, r, 0, len).unwrap();
                    out.push((format!("{r}:{f}"), bytes));
                }
            }
            None => {
                let bytes = be.read(&f, 0, be.len(&f).unwrap()).unwrap();
                out.push((format!("0:{f}"), bytes));
            }
        }
    }
    out
}

/// Tier-1 query fingerprints (positions + value bits) over the store.
fn fingerprints(be: &dyn StorageBackend, chain: &Chain) -> Vec<(Vec<u64>, Vec<u64>)> {
    let store = MlocStore::open(be, chain.ds, chain.var).unwrap();
    [
        Query::region(f64::MIN, f64::MAX),
        Query::values_where(f64::MIN, f64::MAX),
        Query::values_where(20.0, 80.0),
    ]
    .iter()
    .map(|q| {
        let res = store.query_serial(q).unwrap();
        (
            res.positions().to_vec(),
            res.values()
                .map(|vs| vs.iter().map(|v| v.to_bits()).collect())
                .unwrap_or_default(),
        )
    })
    .collect()
}

/// Assert the census matches the documented durability grammar, and
/// return the 1-based indices of all append ops (the torn-write
/// sweep targets).
fn assert_census(log: &[(&'static str, String)], chain: &Chain) -> Vec<u64> {
    let (ds, var) = (chain.ds, chain.var);
    let catalog = format!("{ds}/catalog");
    // Catalog header: create, magic append, config append, sync.
    let expected_header = ["create", "append", "append", "sync"];
    for (i, kind) in expected_header.iter().enumerate() {
        assert_eq!(log[i], (*kind, catalog.clone()), "header op {i}");
    }
    // Per bin: its one file written whole and synced. No bin file is a
    // commit marker: the meta below is, and a torn bin file fails its
    // end marker and checksums.
    let mut i = expected_header.len();
    for bin in 0..chain.num_bins {
        let file = format!("{ds}/{var}/bin{bin:04}.bin");
        for kind in ["create", "append", "sync"] {
            assert_eq!(log[i], (kind, file.clone()), "bin {bin} op {i}");
            i += 1;
        }
    }
    // Meta (the variable's commit marker), then the catalog
    // registration line, each synced.
    let meta = format!("{ds}/{var}/meta");
    for (kind, file) in [
        ("create", meta.clone()),
        ("append", meta.clone()),
        ("sync", meta),
        ("append", catalog.clone()),
        ("sync", catalog),
    ] {
        assert_eq!(log[i], (kind, file), "tail op {i}");
        i += 1;
    }
    assert_eq!(i, log.len(), "census has unexpected extra write ops");
    log.iter()
        .enumerate()
        .filter(|(_, (kind, _))| *kind == "append")
        .map(|(i, _)| i as u64 + 1)
        .collect()
}

/// The per-crash-point contract: repair either fully heals (then a
/// rerun of any rolled-back chain converges to the clean bytes), or
/// reports the loss — which in a single-copy world can only be the
/// catalog header, before any data was durable.
fn heal_and_compare(
    durable: &dyn StorageBackend,
    tag: &str,
    chain: &Chain,
    want_files: &[(String, Vec<u8>)],
    want_results: &[(Vec<u64>, Vec<u64>)],
) {
    let ds = chain.ds;
    let report = repair(durable, ds).unwrap();
    if report.is_healthy() {
        let post = fsck(durable, ds).unwrap();
        assert!(post.is_clean(), "{tag}: post-repair fsck dirty: {post}");
        let opened = Dataset::open(durable, ds).unwrap_or_else(|e| panic!("{tag}: open: {e}"));
        if !opened.has_variable(chain.var) {
            // The crash predated the variable's commit point and
            // repair rolled the debris back: the chain reruns cleanly.
            (chain.rerun)(durable).unwrap_or_else(|e| panic!("{tag}: rerun: {e}"));
        }
    } else {
        // Reported loss: only legal before anything was committed —
        // the catalog header itself is unreconstructable without a
        // committed meta. Never a committed variable.
        let catalog = format!("{ds}/catalog");
        assert!(
            report.unrepairable.iter().all(|f| *f == catalog),
            "{tag}: unexpected unrepairable set: {report}"
        );
        assert!(
            report.fsck.committed.is_empty() && report.fsck.unlisted.is_empty(),
            "{tag}: committed data reported unrepairable: {report}"
        );
        for f in durable.list() {
            durable.remove(&f).unwrap();
        }
        (chain.run)(durable).unwrap_or_else(|e| panic!("{tag}: recreate: {e}"));
    }
    assert_eq!(
        snapshot(durable),
        want_files,
        "{tag}: recovered store bytes diverged from the clean run"
    );
    assert_eq!(
        fingerprints(durable, chain),
        want_results,
        "{tag}: query results diverged from the clean run"
    );
}

/// A factory of fresh, empty backends for one scenario world.
type Fresh<'a> = &'a dyn Fn() -> Box<dyn StorageBackend>;

static WORLD_ID: AtomicUsize = AtomicUsize::new(0);

struct DirWorld {
    root: std::path::PathBuf,
    next: AtomicUsize,
}

impl DirWorld {
    fn new() -> Self {
        let root = std::env::temp_dir().join(format!(
            "mloc-crash-matrix-{}-{}",
            std::process::id(),
            WORLD_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        DirWorld {
            root,
            next: AtomicUsize::new(0),
        }
    }

    fn fresh(&self) -> Box<dyn StorageBackend> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        Box::new(DirBackend::new(self.root.join(format!("w{i}"))).unwrap())
    }
}

impl Drop for DirWorld {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Census the chain, then crash at every op index `1..=N`.
fn sweep_every_crash_point(fresh: Fresh, chain: &Chain) {
    let clean = fresh();
    (chain.run)(&*clean).unwrap();
    let want_files = snapshot(&*clean);
    let want_results = fingerprints(&*clean, chain);

    let cb = CrashBackend::new(fresh(), CrashPlan::none());
    (chain.run)(&cb).unwrap();
    assert!(!cb.crashed());
    let log = cb.op_log();
    assert_census(&log, chain);
    let total = cb.write_ops();

    for k in 1..=total {
        let cb = CrashBackend::new(fresh(), CrashPlan::at(k));
        let (kind, file) = &log[k as usize - 1];
        let tag = format!("crash at op {k}/{total} ({kind} {file})");
        assert!((chain.run)(&cb).is_err(), "{tag}: chain survived its crash");
        assert!(cb.crashed(), "{tag}: crash never fired");
        heal_and_compare(&*cb.into_inner(), &tag, chain, &want_files, &want_results);
    }
}

#[test]
fn every_crash_point_repairs_to_byte_identical_state() {
    for chain in [&BUILD, &UPGRADE] {
        sweep_every_crash_point(&|| Box::new(MemBackend::new()), chain);
    }
}

#[test]
fn crash_matrix_holds_on_the_real_directory_backend() {
    let world = DirWorld::new();
    for chain in [&BUILD, &UPGRADE] {
        sweep_every_crash_point(&|| world.fresh(), chain);
    }
}

#[test]
fn crash_matrix_holds_through_a_replicated_shard_router() {
    // The crash overlay sits above the router, so both copies take the
    // same damage — what this adds is repair running its rollback,
    // reattach and catalog paths through replica-aware fan-out.
    let fresh = || -> Box<dyn StorageBackend> {
        Box::new(
            ShardRouter::replicated(
                (0..3).map(|_| Box::new(MemBackend::new()) as _).collect(),
                2,
            )
            .unwrap(),
        )
    };
    sweep_every_crash_point(&fresh, &BUILD);
}

/// Every append in the chain, torn at byte 0 (append fully lost but
/// earlier volatile bytes flush), 1, and 9 (mid-payload / mid-footer).
#[test]
fn every_torn_append_repairs_to_byte_identical_state() {
    for chain in [&BUILD, &UPGRADE] {
        let clean = MemBackend::new();
        (chain.run)(&clean).unwrap();
        let want_files = snapshot(&clean);
        let want_results = fingerprints(&clean, chain);

        let cb = CrashBackend::new(MemBackend::new(), CrashPlan::none());
        (chain.run)(&cb).unwrap();
        let log = cb.op_log();
        let appends = assert_census(&log, chain);
        assert!(!appends.is_empty());

        for &k in &appends {
            for keep in [0u64, 1, 9] {
                let cb = CrashBackend::new(MemBackend::new(), CrashPlan::torn_at(k, keep));
                let (_, file) = &log[k as usize - 1];
                let tag = format!("torn append op {k} ({file}) keep {keep}");
                assert!((chain.run)(&cb).is_err(), "{tag}: chain survived its crash");
                heal_and_compare(&cb.into_inner(), &tag, chain, &want_files, &want_results);
            }
        }
    }
}

/// A device that acknowledges the catalog's fsyncs without flushing:
/// power loss erases the catalog, but every variable's meta embeds the
/// build config, so repair reconstructs the registration from the
/// committed metas alone.
#[test]
fn dropped_catalog_sync_is_reconstructed_from_meta() {
    let mut plan = CrashPlan::none();
    plan.drop_syncs.push("catalog".to_string());
    let cb = CrashBackend::new(MemBackend::new(), plan);
    build(&cb).unwrap();
    cb.power_cut();
    let durable = cb.into_inner();
    assert!(!durable.exists(CATALOG), "dropped syncs still flushed");

    let f = fsck(&durable, DS).unwrap();
    assert!(!f.catalog_ok, "{f}");
    let r = repair(&durable, DS).unwrap();
    assert!(r.is_healthy(), "{r}");
    assert!(r.catalog_rewritten);
    let ds = Dataset::open(&durable, DS).unwrap();
    assert_eq!(ds.variables().unwrap(), vec![VAR.to_string()]);
    assert!(fsck(&durable, DS).unwrap().is_clean());

    // The reconstructed store answers byte-identically to a clean one.
    let clean = MemBackend::new();
    build(&clean).unwrap();
    assert_eq!(fingerprints(&durable, &BUILD), fingerprints(&clean, &BUILD));
}

/// A device that drops one bin file's fsyncs: after power loss the
/// file — the bin's data and its index — is simply gone on a
/// single-copy store. The loss must be loud at every layer — fsck
/// finding, unrepairable report, every query touching the bin failing
/// — never a silently shrunken answer.
#[test]
fn dropped_data_sync_is_loud_loss_on_a_single_copy() {
    let lost = format!("{DS}/{VAR}/bin0002.bin");
    let mut plan = CrashPlan::none();
    plan.drop_syncs.push("bin0002.bin".to_string());
    let cb = CrashBackend::new(MemBackend::new(), plan);
    build(&cb).unwrap();
    cb.power_cut();
    let durable = cb.into_inner();
    assert!(!durable.exists(&lost));

    let f = fsck(&durable, DS).unwrap();
    assert!(!f.is_clean());
    assert!(
        f.findings.iter().any(|d| d.file == lost),
        "missing file not reported: {f}"
    );
    let r = repair(&durable, DS).unwrap();
    assert!(!r.is_healthy(), "loss vanished: {r}");
    assert_eq!(r.unrepairable, vec![lost]);

    // The variable stays committed (never rolled back), and values
    // and index-only queries through the bin both fail loudly; one that
    // stays clear of the bin still answers.
    let store = MlocStore::open(&durable, DS, VAR).unwrap();
    for q in [
        Query::values_where(f64::MIN, f64::MAX),
        Query::region(f64::MIN, f64::MAX),
    ] {
        assert!(store.query_serial(&q).is_err());
    }
    let bounds = store.bins().bounds().to_vec();
    let clear = Query::region(bounds[0], bounds[2]);
    let want = values()
        .iter()
        .filter(|&&v| v >= bounds[0] && v < bounds[2])
        .count();
    assert_eq!(store.query_serial(&clear).unwrap().len(), want);
}

/// The same lying device under replication: the copies live behind the
/// router and the overlay drops the file before the fan-out, so even
/// R = 2 cannot save it — but repair still reports rather than hides
/// it. (Replica copies help when damage hits one shard, which the
/// repair unit tests and the shard-kill differential cover.)
#[test]
fn dropped_meta_sync_rolls_back_cleanly() {
    // Meta never durable + catalog line durable would break the chain;
    // but the catalog registration happens *after* the meta sync, so a
    // lying meta sync plus power cut leaves a listed variable with no
    // meta — repair must reattach nothing and report the meta as the
    // casualty of a committed variable.
    let mut plan = CrashPlan::none();
    plan.drop_syncs.push("meta".to_string());
    let cb = CrashBackend::new(MemBackend::new(), plan);
    build(&cb).unwrap();
    cb.power_cut();
    let durable = cb.into_inner();
    assert!(!durable.exists(&format!("{DS}/{VAR}/meta")));

    let r = repair(&durable, DS).unwrap();
    assert!(!r.is_healthy(), "lost meta vanished: {r}");
    assert_eq!(r.unrepairable, vec![format!("{DS}/{VAR}/meta")]);
}
