//! Differential suite for the batched storage substrate: the same
//! queries must answer byte-identically no matter how the bytes are
//! serviced (sequential open-per-read, cached handles) or laid out
//! (flat directory, 1/2/4 shards), in every execution mode (serial,
//! threaded, cached, fused, progressive).
//!
//! The reference is the in-memory backend under the serial executor;
//! every world/mode pair is compared bit-for-bit against it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mloc::exec::ParallelExecutor;
use mloc::prelude::*;
use mloc::{ExtentFuser, MlocStore};
use mloc_compress::CodecKind;
use mloc_datagen::{gts_like_2d, QueryGen};
use mloc_pfs::{CostModel, DirBackend, MemBackend, ReplicaAccess, ShardRouter, StorageBackend};

const SHAPE: [usize; 2] = [96, 96];
const DS: &str = "iosd";
const VAR: &str = "v";

static ROOT_ID: AtomicUsize = AtomicUsize::new(0);

struct TempRoot(std::path::PathBuf);

impl TempRoot {
    fn new() -> Self {
        let p = std::env::temp_dir().join(format!(
            "mloc-io-shard-diff-{}-{}",
            std::process::id(),
            ROOT_ID.fetch_add(1, Ordering::Relaxed)
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

fn build_into(be: &dyn StorageBackend) -> Vec<f64> {
    let field = gts_like_2d(SHAPE[0], SHAPE[1], 41);
    let config = MlocConfig::builder(SHAPE.to_vec())
        .chunk_shape(vec![24, 24])
        .num_bins(10)
        .codec(CodecKind::Deflate)
        .build();
    build_variable(be, DS, VAR, field.values(), &config).unwrap();
    field.into_values()
}

/// Every storage world under test: the seed's sequential behavior
/// and sharded layouts of 1, 2 and 4 shards (each shard its own
/// handle-cached directory).
fn worlds(root: &TempRoot) -> Vec<(String, Box<dyn StorageBackend>)> {
    let mut out: Vec<(String, Box<dyn StorageBackend>)> = vec![(
        "dir-sequential".into(),
        Box::new(DirBackend::uncached(root.0.join("seq")).unwrap()),
    )];
    for n in [1usize, 2, 4] {
        let shards = (0..n)
            .map(|s| {
                Box::new(DirBackend::new(root.0.join(format!("n{n}s{s}"))).unwrap())
                    as Box<dyn StorageBackend>
            })
            .collect();
        out.push((
            format!("shard-{n}"),
            Box::new(ShardRouter::new(shards).unwrap()),
        ));
    }
    // Replicated layouts (R = 2): replication changes which copy
    // serves the bytes, never the bytes.
    for n in [2usize, 4] {
        let shards = (0..n)
            .map(|s| {
                Box::new(DirBackend::new(root.0.join(format!("n{n}r2s{s}"))).unwrap())
                    as Box<dyn StorageBackend>
            })
            .collect();
        out.push((
            format!("shard-{n}-r2"),
            Box::new(ShardRouter::replicated(shards, 2).unwrap()),
        ));
    }
    out
}

/// Mixed workload with overlap so caches and the fuser see repeats.
fn workload(values: &[f64]) -> Vec<Query> {
    let mut gen = QueryGen::new(values.to_vec(), SHAPE.to_vec(), 11);
    let mut queries = Vec::new();
    for i in 0..2 {
        let (lo, hi) = gen.value_constraint(0.1 + 0.05 * i as f64);
        queries.push(Query::region(lo, hi));
        queries.push(Query::values_where(lo, hi));
        let region = Region::new(gen.region(0.1));
        queries.push(Query::values_where(lo, hi).with_region(region));
    }
    queries
}

fn bitwise_eq(a: &QueryResult, b: &QueryResult, ctx: &str) {
    assert_eq!(a.positions(), b.positions(), "{ctx}: positions");
    match (a.values(), b.values()) {
        (None, None) => {}
        (Some(av), Some(bv)) => {
            assert_eq!(av.len(), bv.len(), "{ctx}: value count");
            for (x, y) in av.iter().zip(bv) {
                assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: value bits");
            }
        }
        _ => panic!("{ctx}: one side has values, the other does not"),
    }
}

#[test]
fn every_backend_and_exec_mode_is_byte_identical() {
    let reference_be = MemBackend::new();
    let values = build_into(&reference_be);
    let reference = MlocStore::open(&reference_be, DS, VAR).unwrap();
    let queries = workload(&values);
    let baselines: Vec<QueryResult> = queries
        .iter()
        .map(|q| reference.query_serial(q).unwrap())
        .collect();

    let root = TempRoot::new();
    let serial = ParallelExecutor::serial();
    let threaded = ParallelExecutor::new(4, CostModel::default()).threaded(true);
    for (world, be) in worlds(&root) {
        build_into(&be);
        let plain = MlocStore::open(&be, DS, VAR).unwrap();
        let cached = MlocStore::open(&be, DS, VAR)
            .unwrap()
            .with_cache(Arc::new(BlockCache::with_budget_mb(64)));
        let fused = MlocStore::open(&be, DS, VAR)
            .unwrap()
            .with_fusion(Arc::new(ExtentFuser::with_window_mb(4)));
        for (i, q) in queries.iter().enumerate() {
            let want = &baselines[i];
            let (s, _) = serial.execute(&plain, q).unwrap();
            bitwise_eq(&s, want, &format!("{world} query {i}: serial"));
            let (t, _) = threaded.execute(&plain, q).unwrap();
            bitwise_eq(&t, want, &format!("{world} query {i}: threaded"));
            // Cold pass fills the cache, warm pass must hit it.
            let (c1, _) = cached.query_with_metrics(q).unwrap();
            bitwise_eq(&c1, want, &format!("{world} query {i}: cached cold"));
            let (c2, m2) = cached.query_with_metrics(q).unwrap();
            bitwise_eq(&c2, want, &format!("{world} query {i}: cached warm"));
            assert!(m2.cache_hits > 0, "{world} query {i}: warm pass no hits");
            let (f, _) = serial.execute(&fused, q).unwrap();
            bitwise_eq(&f, want, &format!("{world} query {i}: fused"));
            // Progressive ladder run to completion equals the direct
            // answer (values queries only; the ladder refines values).
            if q.wants_values() {
                let mut pq = serial.progressive(&plain, q).unwrap();
                pq.run_to_completion().unwrap();
                let (p, _, steps, _) = pq.into_outcome();
                assert!(!steps.is_empty(), "{world} query {i}: no ladder steps");
                bitwise_eq(&p, want, &format!("{world} query {i}: progressive"));
            }
        }
    }
}

/// Every sharded layout services the *same logical reads* as the
/// sequential world: identical trace shapes mean the routing substrate
/// changes where bytes live, never which bytes a query needs.
#[test]
fn sharded_layouts_preserve_io_accounting() {
    let root = TempRoot::new();
    let seq_be = DirBackend::uncached(root.0.join("a")).unwrap();
    let values = build_into(&seq_be);
    let q = Query::values_where(0.2, 0.7);
    let store = MlocStore::open(&seq_be, DS, VAR).unwrap();
    let (_, m_seq) = store.query_with_metrics(&q).unwrap();
    drop(values);

    for n in [2usize, 4] {
        let shards = (0..n)
            .map(|s| {
                Box::new(DirBackend::new(root.0.join(format!("b{n}s{s}"))).unwrap())
                    as Box<dyn StorageBackend>
            })
            .collect();
        let sharded = ShardRouter::new(shards).unwrap();
        build_into(&sharded);
        let store = MlocStore::open(&sharded, DS, VAR).unwrap();
        let (_, m) = store.query_with_metrics(&q).unwrap();
        assert_eq!(m.bytes_read, m_seq.bytes_read, "{n} shards: bytes drifted");
        assert_eq!(
            m.bins_touched, m_seq.bins_touched,
            "{n} shards: bins drifted"
        );
        assert_eq!(
            m.chunks_touched, m_seq.chunks_touched,
            "{n} shards: chunks drifted"
        );
    }
}

/// With R = 2 over two shards, wiping EITHER shard directory leaves
/// every query byte-identical: reads fall through to the surviving
/// replica, `io.read_repair` accounts for exactly the masked reads,
/// and the write-back refills the wiped shard so a follow-up pass
/// needs no masking at all.
#[test]
fn replicated_world_survives_single_shard_loss_byte_identically() {
    let root = TempRoot::new();
    let mk = |root: &TempRoot| {
        let shards = (0..2)
            .map(|s| {
                Box::new(DirBackend::new(root.0.join(format!("k{s}"))).unwrap())
                    as Box<dyn StorageBackend>
            })
            .collect();
        ShardRouter::replicated(shards, 2).unwrap()
    };
    let be = mk(&root);
    // Build through the Dataset layer so fsck/repair apply (they
    // classify against the catalog).
    let field = mloc_datagen::gts_like_2d(SHAPE[0], SHAPE[1], 41);
    let config = MlocConfig::builder(SHAPE.to_vec())
        .chunk_shape(vec![24, 24])
        .num_bins(10)
        .codec(CodecKind::Deflate)
        .build();
    let ds = mloc::Dataset::create(&be, DS, config).unwrap();
    ds.add_variable(VAR, field.values()).unwrap();
    drop(ds);
    let values = field.into_values();
    let queries = workload(&values);
    let store = MlocStore::open(&be, DS, VAR).unwrap();
    let baselines: Vec<QueryResult> = queries
        .iter()
        .map(|q| store.query_serial(q).unwrap())
        .collect();
    let all_files = {
        let mut fs = be.list();
        fs.sort();
        fs
    };
    drop(store);
    drop(be);

    for dead in 0..2usize {
        std::fs::remove_dir_all(root.0.join(format!("k{dead}"))).unwrap();
        let router = mk(&root);

        // Heal pass: one full read per file. Every file whose primary
        // copy lived on the wiped shard is a masked read — the counter
        // must account for each one, no more, no fewer.
        let mut masked = 0u64;
        for f in router.list() {
            let len = router.len(&f).unwrap();
            router.read(&f, 0, len).unwrap();
            if router.shard_of(&f) == dead {
                masked += 1;
            }
        }
        assert!(masked > 0, "shard {dead} held no primary copies");
        assert_eq!(
            router.read_repair_count(),
            masked,
            "shard {dead} wiped: masked reads misaccounted"
        );

        // Reads healed the primary copies; fsck sees a logically
        // healthy store, and `repair` restores the secondary copies
        // the read path cannot reach, refilling the wiped shard
        // completely.
        assert!(
            mloc::repair::fsck(&router, DS).unwrap().is_clean(),
            "shard {dead} wiped: reads did not heal the primaries"
        );
        let rep = mloc::repair::repair(&router, DS).unwrap();
        assert!(rep.is_healthy(), "shard {dead} wiped: {rep}");
        assert_eq!(
            rep.restored.len(),
            all_files.len() - masked as usize,
            "shard {dead} wiped: secondary copies misaccounted"
        );
        for s in 0..2 {
            let mut fs = router.shard(s).list();
            fs.sort();
            assert_eq!(fs, all_files, "shard {s} not fully refilled");
        }

        // Queries are byte-identical with zero further masking.
        let store = MlocStore::open(&router, DS, VAR).unwrap();
        for (i, q) in queries.iter().enumerate() {
            let (res, m) = store.query_with_metrics(q).unwrap();
            bitwise_eq(
                &res,
                &baselines[i],
                &format!("shard {dead} wiped, query {i}"),
            );
            assert_eq!(
                m.read_repairs, 0,
                "shard {dead} wiped, query {i}: heal pass left masked reads"
            );
        }
    }
}
