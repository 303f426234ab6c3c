//! Fault-matrix differential suite: replay the same queries under a
//! deterministic fault schedule and prove the three robustness
//! contracts end to end.
//!
//! * Transient faults + retries ⇒ results byte-identical to the
//!   fault-free run, in serial, threaded, and cached modes.
//! * Corruption (bit flips, lost files, torn writes) ⇒ *detected*:
//!   the query fails with extent context, or completes gracefully
//!   degraded with the loss reported. Never silently wrong.
//! * `verify` pinpoints the damaged extents offline.
//!
//! Every scenario runs in **two worlds**: the in-memory backend and
//! the real directory backend. The fault injector hashes logical file
//! names, so the schedules are identical in both — any divergence is a
//! real-backend bug, not a test artifact.

use std::sync::atomic::{AtomicUsize, Ordering};

use mloc::cache::FixedBlocks;
use mloc::index::HEADER_LEN;
use mloc::prelude::*;
use mloc::{verify_variable, MlocError, MlocStore, QueryMetrics, QueryResult};
use mloc_datagen::gts_like_2d;
use mloc_pfs::{
    CostModel, CrashBackend, CrashPlan, DirBackend, FaultBackend, FaultPlan, MemBackend, ReadOp,
    RetryPolicy, StorageBackend,
};
use mloc_serve::{QueryServer, ServeConfig, ServeError, SessionSpec};

const DS: &str = "fm";
const VAR: &str = "v";

/// A factory of fresh, empty backends for one scenario world.
type Fresh<'a> = &'a dyn Fn() -> Box<dyn StorageBackend>;

/// On-disk world: every `fresh()` is a new subdirectory so scenarios
/// never see each other's files, exactly like a new `MemBackend`.
struct DirWorld {
    root: std::path::PathBuf,
    next: AtomicUsize,
}

static WORLD_ID: AtomicUsize = AtomicUsize::new(0);

impl DirWorld {
    fn new() -> Self {
        let root = std::env::temp_dir().join(format!(
            "mloc-fault-matrix-{}-{}",
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

/// Run one scenario body against the memory world and the real
/// directory world.
fn for_both_worlds(body: impl Fn(Fresh)) {
    body(&|| Box::new(MemBackend::new()));
    let world = DirWorld::new();
    body(&|| world.fresh());
}

fn build_into(be: &dyn StorageBackend) -> Vec<f64> {
    let field = gts_like_2d(64, 64, 17);
    let config = MlocConfig::builder(vec![64, 64])
        .chunk_shape(vec![16, 16])
        .num_bins(6)
        .build();
    build_variable(be, DS, VAR, field.values(), &config).unwrap();
    field.into_values()
}

/// `raw`, the whole file of bin `bin` of the store in `be`, parsed in
/// place.
fn located(be: &dyn StorageBackend, bin: usize, raw: &[u8]) -> FixedBlocks {
    let store = MlocStore::open(be, DS, VAR).unwrap();
    store.parse_fixed(bin, raw).unwrap()
}

/// File offset of bin `bin`'s first compressed unit — the first extent
/// of its data section, a base byte group — in the built store.
fn first_unit(bin: usize) -> u64 {
    let be = MemBackend::new();
    build_into(&be);
    let file = mloc::fileorg::bin_file(DS, VAR, bin);
    let raw = be.read(&file, 0, be.len(&file).unwrap()).unwrap();
    located(&be, bin, &raw).data.unwrap().extent(0).0
}

/// Open the store, retrying transient faults the way a patient caller
/// would (attempt counts accumulate inside the FaultBackend, so the
/// schedule eventually lets the read through).
fn open_retrying<'a>(be: &'a dyn StorageBackend) -> mloc::Result<MlocStore<'a>> {
    let mut attempts = 0;
    loop {
        match MlocStore::open(be, DS, VAR) {
            Err(MlocError::Pfs(e)) if e.is_transient() && attempts < 64 => attempts += 1,
            other => return other,
        }
    }
}

fn full_values_query() -> Query {
    Query::values_where(f64::MIN, f64::MAX)
}

fn fingerprint(res: &QueryResult) -> (Vec<u64>, Vec<u64>) {
    (
        res.positions().to_vec(),
        res.values()
            .map(|vs| vs.iter().map(|v| v.to_bits()).collect())
            .unwrap_or_default(),
    )
}

/// Check a fault-run outcome against the baseline: identical, or
/// degraded within the *reported* error bound. Anything else is a
/// silent-corruption failure.
fn assert_not_silently_wrong(
    tag: &str,
    baseline: &QueryResult,
    res: &QueryResult,
    metrics: &QueryMetrics,
) {
    assert_eq!(
        res.positions(),
        baseline.positions(),
        "{tag}: positions drifted"
    );
    let bound = metrics.degradation.error_bound();
    let base_vals = baseline.values().unwrap();
    for (i, (&got, &want)) in res
        .values()
        .unwrap()
        .iter()
        .zip(base_vals.iter())
        .enumerate()
    {
        if got.to_bits() == want.to_bits() {
            continue;
        }
        assert!(
            metrics.degradation.is_degraded(),
            "{tag}: silent corruption at result {i}: {got} != {want}"
        );
        let rel = if want != 0.0 {
            ((got - want) / want).abs()
        } else {
            got.abs()
        };
        assert!(
            rel <= bound * (1.0 + 1e-9),
            "{tag}: degraded value outside reported bound: {got} vs {want} (rel {rel:e}, bound {bound:e})"
        );
    }
}

fn transient_faults_with_retry_are_byte_identical_in(fresh: Fresh) {
    let clean = fresh();
    build_into(&clean);
    let clean_store = MlocStore::open(&clean, DS, VAR).unwrap();
    let q = full_values_query();
    let baseline = clean_store.query_serial(&q).unwrap();
    let want = fingerprint(&baseline);

    let mut saw_retries = false;
    for seed in [1u64, 7, 23] {
        let fb = FaultBackend::new(fresh(), FaultPlan::transient(seed, 0.4, 3));
        build_into(&fb); // builds only append; transient faults hit reads
        let store = open_retrying(&fb).unwrap();
        let exec = ParallelExecutor::serial().with_retry(RetryPolicy::with_attempts(5));
        let (res, m) = exec.execute(&store, &q).unwrap();
        assert_eq!(fingerprint(&res), want, "seed {seed}: results drifted");
        assert!(
            !m.degradation.is_degraded(),
            "seed {seed}: spurious degradation"
        );
        if m.retries > 0 {
            saw_retries = true;
            assert!(m.retry_wait_s > 0.0, "retries without simulated backoff");
        }

        // Threaded, multi-rank, cached replay under the same schedule.
        fb.reset_attempts();
        let cache = std::sync::Arc::new(BlockCache::with_budget_mb(64));
        let store = open_retrying(&fb).unwrap().with_cache(cache);
        let exec = ParallelExecutor::new(4, CostModel::default())
            .threaded(true)
            .with_retry(RetryPolicy::with_attempts(5));
        for pass in 0..2 {
            let (res, m) = exec.execute(&store, &q).unwrap();
            assert_eq!(
                fingerprint(&res),
                want,
                "seed {seed} threaded pass {pass}: results drifted"
            );
            assert!(!m.degradation.is_degraded());
        }
    }
    assert!(saw_retries, "0.4 transient rate never triggered a retry");
}

#[test]
fn transient_faults_with_retry_are_byte_identical() {
    for_both_worlds(transient_faults_with_retry_are_byte_identical_in);
}

fn bit_flip_matrix_is_detected_or_reported_never_silent_in(fresh: Fresh) {
    let clean = fresh();
    build_into(&clean);
    let q = full_values_query();
    let baseline = MlocStore::open(&clean, DS, VAR)
        .unwrap()
        .query_serial(&q)
        .unwrap();

    let files: Vec<String> = clean
        .list()
        .into_iter()
        .filter(|f| f.ends_with(".bin"))
        .collect();
    let (mut failed, mut degraded, mut harmless) = (0u32, 0u32, 0u32);
    for file in &files {
        let flen = clean.len(file).unwrap();
        for frac in [0.05, 0.3, 0.55, 0.8, 0.97] {
            let offset = ((flen as f64 * frac) as u64).min(flen - 1);
            let mut plan = FaultPlan::none();
            plan.flips.push(mloc_pfs::BitFlip {
                file: file.clone(),
                offset,
                mask: 0x40,
            });
            let fb = FaultBackend::new(fresh(), plan);
            build_into(&fb);
            let tag = format!("{file}@{offset}");
            let store = MlocStore::open(&fb, DS, VAR).unwrap();
            match store.query_with_metrics(&q) {
                Err(e) => {
                    failed += 1;
                    // Corruption must surface as corruption, with the
                    // damaged file named.
                    assert!(e.is_corruption(), "{tag}: wrong error class: {e}");
                    if let MlocError::CorruptExtent { file: f, .. } = &e {
                        assert_eq!(f, file, "{tag}: wrong file in error");
                    }
                }
                Ok((res, m)) => {
                    if m.degradation.is_degraded() {
                        degraded += 1;
                    } else {
                        harmless += 1;
                    }
                    assert_not_silently_wrong(&tag, &baseline, &res, &m);
                }
            }
        }
    }
    // The matrix must exercise both failure modes, not just one.
    assert!(failed > 0, "no flip was detected as corruption");
    assert!(degraded > 0, "no flip produced graceful degradation");
    let _ = harmless; // flips in extents this query never reads
}

#[test]
fn bit_flip_matrix_is_detected_or_reported_never_silent() {
    for_both_worlds(bit_flip_matrix_is_detected_or_reported_never_silent_in);
}

fn verify_pinpoints_injected_flips_in(fresh: Fresh) {
    let clean = fresh();
    build_into(&clean);
    for file in clean.list() {
        if !(file.ends_with(".bin") || file.ends_with("meta")) {
            continue;
        }
        // Flip early in the file: always inside the checksummed
        // payload, never in the footer.
        let offset = (clean.len(&file).unwrap() / 4).min(10);
        let mut plan = FaultPlan::none();
        plan.flips.push(mloc_pfs::BitFlip {
            file: file.clone(),
            offset,
            mask: 0x08,
        });
        let fb = FaultBackend::new(fresh(), plan);
        build_into(&fb);
        let report = verify_variable(&fb, DS, VAR).unwrap();
        assert!(!report.is_clean(), "{file}: flip not detected");
        let hit = report
            .damage
            .iter()
            .find(|d| d.file == file && d.offset <= offset && offset < d.offset + d.len);
        assert!(
            hit.is_some(),
            "{file}: no damage entry covers offset {offset}: {report}"
        );
    }
}

#[test]
fn verify_pinpoints_injected_flips() {
    for_both_worlds(verify_pinpoints_injected_flips_in);
}

/// Where the meta's summary sections are: `(offset, length)` in the
/// meta file of the store in `be`. They end the meta's payload, ahead
/// of its one-entry footer.
fn summary_sections(be: &dyn StorageBackend) -> (u64, u64) {
    let store = MlocStore::open(be, DS, VAR).unwrap();
    let len = store.summaries().as_bytes().len() as u64;
    let meta = be.len(&mloc::fileorg::meta_file(DS, VAR)).unwrap();
    let footer = 8 + mloc::integrity::TRAILER_LEN;
    (meta - footer - len, len)
}

fn flipped_summary_extent_is_detected_and_pinpointed_in(fresh: Fresh) {
    // The chunk summaries steer which units a query plans and which
    // bin files it opens, so damage to them — in the meta — must fail
    // the store loudly and be mapped by offline verification: never
    // silently drop a unit or a bin. Flips across the meta's summary
    // sections: first and last byte, and between.
    let clean = fresh();
    build_into(&clean);
    let meta = mloc::fileorg::meta_file(DS, VAR);
    let (at, len) = summary_sections(&*clean);
    let payload = at + len;
    for offset in [at, at + 1, at + 8, at + len / 3, at + len / 2, payload - 1] {
        let mut plan = FaultPlan::none();
        plan.flips.push(mloc_pfs::BitFlip {
            file: meta.clone(),
            offset,
            mask: 0x10,
        });
        let fb = FaultBackend::new(fresh(), plan);
        build_into(&fb);
        let tag = format!("flip at {offset}");

        // Every mode opens the store, and the open fails with the
        // meta's one extent named.
        let want = (meta.as_str(), 0, payload, "checksum mismatch");
        let failed = |mode: &str, got: mloc::Result<MlocStore<'_>>| match got {
            Ok(_) => panic!("{tag} ({mode}): damage not detected"),
            Err(MlocError::CorruptExtent {
                file,
                offset,
                len,
                what,
            }) => assert_eq!(
                (file.as_str(), offset, len, what.as_str()),
                want,
                "{tag} ({mode})"
            ),
            Err(other) => panic!("{tag} ({mode}): wrong error: {other}"),
        };
        failed("serial", MlocStore::open(&fb, DS, VAR));
        failed("threaded", MlocStore::open(&fb, DS, VAR));
        let cache = std::sync::Arc::new(BlockCache::with_budget_mb(8));
        failed(
            "cached",
            MlocStore::open(&fb, DS, VAR).map(|s| s.with_cache(cache)),
        );
        let fuser = std::sync::Arc::new(ExtentFuser::with_window_mb(8));
        failed(
            "fused",
            MlocStore::open(&fb, DS, VAR).map(|s| s.with_fusion(fuser)),
        );

        // Offline verification lists the meta, and only the meta: the
        // bin files' own tables still locate every extent.
        let report = verify_variable(&fb, DS, VAR).unwrap();
        let found: Vec<_> = report
            .damage
            .iter()
            .map(|d| (&*d.file, d.offset, d.len, &*d.what))
            .collect();
        assert_eq!(
            found,
            [(meta.as_str(), 0, payload, "meta: checksum mismatch")],
            "{tag}: {report}"
        );
    }
}

#[test]
fn flipped_summary_extent_is_detected_and_pinpointed() {
    for_both_worlds(flipped_summary_extent_is_detected_and_pinpointed_in);
}

/// With the meta destroyed, `verify` still pinpoints a flipped byte of
/// a bin file — a bitmap's, a unit part's, a table's: the file's tables,
/// found by their own checksums, locate every extent, and only the
/// labels get coarser (table rows, not chunks).
fn without_the_meta_verify_still_pinpoints_a_flipped_bin_byte_in(fresh: Fresh) {
    let clean = fresh();
    build_into(&clean);
    let file = mloc::fileorg::bin_file(DS, VAR, 2);
    let raw = clean.read(&file, 0, clean.len(&file).unwrap()).unwrap();
    let at = located(&*clean, 2, &raw);
    let rank = (0..16).find(|&r| at.bitmap(r).is_some()).unwrap();
    let (bitmap_at, bitmap_len) = at.bitmap(rank).unwrap();
    let unit = at.unit(rank, 1).unwrap();
    let (table_at, table_len) = at.tables().index_span();
    let rows = [
        (
            bitmap_at + 1,
            (bitmap_at, u64::from(bitmap_len)),
            format!(
                "bitmap in index table row {}: checksum mismatch",
                at.rows.bitmap_row(rank).unwrap()
            ),
        ),
        (
            unit.offset,
            (unit.offset, u64::from(unit.clen)),
            format!(
                "unit part in data table row {}: checksum mismatch",
                at.rows.unit_row(rank, 1).unwrap()
            ),
        ),
        (
            table_at + 3,
            (HEADER_LEN, raw.len() as u64 - HEADER_LEN - 12),
            "index checksum table: checksum tables not found".to_string(),
        ),
    ];
    assert_eq!(table_at, HEADER_LEN);
    let _ = table_len;
    for (offset, (want_at, want_len), what) in rows {
        let mut plan = FaultPlan::none();
        plan.flips.push(mloc_pfs::BitFlip {
            file: file.clone(),
            offset,
            mask: 0x20,
        });
        let fb = FaultBackend::new(fresh(), plan);
        build_into(&fb);
        fb.remove(&mloc::fileorg::meta_file(DS, VAR)).unwrap();
        let report = verify_variable(&fb, DS, VAR).unwrap();
        let found: Vec<_> = (report.damage.iter())
            .filter(|d| d.file == file)
            .map(|d| (d.offset, d.len, d.what.clone()))
            .collect();
        assert_eq!(
            found,
            [(want_at, want_len, what)],
            "flip at {offset}: {report}"
        );
        // The other bin files verify clean; the meta is named missing.
        assert!(
            report
                .damage
                .iter()
                .all(|d| d.file == file || d.file.ends_with("meta")),
            "{report}"
        );
    }
}

#[test]
fn without_the_meta_verify_still_pinpoints_a_flipped_bin_byte() {
    for_both_worlds(without_the_meta_verify_still_pinpoints_a_flipped_bin_byte_in);
}

fn lost_files_fail_loudly_but_index_queries_survive_data_loss_in(fresh: Fresh) {
    let clean = fresh();
    let values = build_into(&clean);

    // Lose one bin file — its data and its index: everything touching
    // that bin fails, loudly...
    let mut plan = FaultPlan::none();
    plan.lost_files.push("bin0002.bin".to_string());
    let fb = FaultBackend::new(fresh(), plan);
    build_into(&fb);
    let store = MlocStore::open(&fb, DS, VAR).unwrap();
    assert!(store.query_serial(&full_values_query()).is_err());
    assert!(store
        .query_serial(&Query::region(f64::MIN, f64::MAX))
        .is_err());
    // ...and a query that stays clear of it still answers.
    let bounds = store.bins().bounds().to_vec();
    let clear = Query::region(bounds[0], bounds[2]);
    let want = values.iter().filter(|&&v| v >= bounds[0] && v < bounds[2]);
    assert_eq!(store.query_serial(&clear).unwrap().len(), want.count());

    // Damage a data extent — a base byte group — instead: a values
    // query must fail (not degradable)...
    let mut plan = FaultPlan::none();
    plan.flips.push(mloc_pfs::BitFlip {
        file: "bin0002.bin".to_string(),
        offset: first_unit(2),
        mask: 0x20,
    });
    let fb = FaultBackend::new(fresh(), plan);
    build_into(&fb);
    let store = MlocStore::open(&fb, DS, VAR).unwrap();
    assert!(store.query_serial(&full_values_query()).is_err());
    // ...but a region query answered from the index alone still works.
    let res = store
        .query_serial(&Query::region(f64::MIN, f64::MAX))
        .unwrap();
    assert_eq!(res.len(), values.len());
}

#[test]
fn lost_files_fail_loudly_but_index_queries_survive_data_loss() {
    for_both_worlds(lost_files_fail_loudly_but_index_queries_survive_data_loss_in);
}

fn torn_meta_write_is_an_incomplete_build_in(fresh: Fresh) {
    // Crash mid-meta-write: the footer trailer (the commit marker,
    // written last) never lands, so the variable must refuse to open.
    let field = gts_like_2d(64, 64, 17);
    let config = MlocConfig::builder(vec![64, 64])
        .chunk_shape(vec![16, 16])
        .num_bins(6)
        .build();
    let build = |be: &dyn StorageBackend| build_variable(be, DS, VAR, field.values(), &config);
    // The census finds the build's first append to its meta file.
    let census = CrashBackend::new(fresh(), CrashPlan::none());
    build(&census).unwrap();
    let log = census.op_log();
    let meta = log
        .iter()
        .position(|(kind, file)| *kind == "append" && file.contains("meta"))
        .expect("the build appends to its meta file");
    let cb = CrashBackend::new(fresh(), CrashPlan::torn_at(meta as u64 + 1, 40));
    // The build observes the crash...
    assert!(build(&cb).is_err());
    assert!(cb.crashed());
    // ...and the torn remnant can never be mistaken for a variable.
    match MlocStore::open(&cb, DS, VAR) {
        Ok(_) => panic!("torn meta opened as a valid variable"),
        Err(err) => assert!(err.is_corruption(), "torn meta opened as: {err}"),
    }
}

#[test]
fn torn_meta_write_is_an_incomplete_build() {
    for_both_worlds(torn_meta_write_is_an_incomplete_build_in);
}

/// A bin file cut 500 bytes short, as a torn write leaves it, loses its
/// end marker and the extents past its new end, and `verify` names each
/// one. A query that may not degrade fails, serial and threaded, cold,
/// cached and fused, as the `CorruptExtent` of one of those extents —
/// never as a bare storage error. One that may degrade answers within
/// its reported bound, each event naming the lost extent.
fn a_truncated_bin_file_is_a_corrupt_extent_in(fresh: Fresh) {
    const TORN: &str = "extent past end of file (torn write?)";
    let clean = fresh();
    build_into(&*clean);
    let q = full_values_query();
    let want = MlocStore::open(&*clean, DS, VAR)
        .unwrap()
        .query_serial(&q)
        .unwrap();
    let be = fresh();
    build_into(&*be);
    let file = mloc::fileorg::bin_file(DS, VAR, SHARED_BIN);
    let raw = be.read(&file, 0, be.len(&file).unwrap()).unwrap();
    be.create(&file).unwrap();
    be.append(&file, &raw[..raw.len() - 500]).unwrap();
    be.sync(&file).unwrap();

    let report = verify_variable(&*be, DS, VAR).unwrap();
    assert!(report.damage.iter().all(|d| d.file == file), "{report}");
    let torn: Vec<(u64, u64)> = (report.damage.iter())
        .filter(|d| d.what.ends_with(TORN))
        .map(|d| (d.offset, d.len))
        .collect();
    assert!(!torn.is_empty(), "{report}");

    let open = || MlocStore::open(&*be, DS, VAR).unwrap();
    let fuser = std::sync::Arc::new(ExtentFuser::with_window_mb(8));
    fuser.begin_window();
    let stores = [
        ("cold", open()),
        (
            "cached",
            open().with_cache(std::sync::Arc::new(BlockCache::with_budget_mb(64))),
        ),
        ("fused", open().with_fusion(std::sync::Arc::clone(&fuser))),
    ];
    let execs = [
        ("serial", ParallelExecutor::serial()),
        (
            "threaded",
            ParallelExecutor::new(4, CostModel::default()).threaded(true),
        ),
    ];
    for (how, store) in &stores {
        for (mode, exec) in &execs {
            for pass in 0..2 {
                let tag = format!("{how} {mode} pass {pass}");
                let strict = exec.clone().allow_degraded(false);
                match strict.run(store, ExecRequest::new(&q)) {
                    Err(MlocError::CorruptExtent {
                        file: f,
                        offset,
                        len,
                        what,
                    }) => {
                        assert_eq!((f.as_str(), what.as_str()), (file.as_str(), TORN), "{tag}");
                        assert!(torn.contains(&(offset, len)), "{tag}: {offset}+{len}");
                    }
                    Ok(_) => panic!("{tag}: the torn extents were served"),
                    Err(other) => panic!("{tag}: wrong error: {other}"),
                }
                let out = exec.run(store, ExecRequest::new(&q)).unwrap();
                let events = &out.metrics.degradation.events;
                assert!(!events.is_empty(), "{tag}: not degraded");
                for e in events {
                    assert!(
                        e.reason.contains(&file) && e.reason.contains(TORN),
                        "{tag}: {e:?}"
                    );
                }
                assert_not_silently_wrong(&tag, &want, &out.result, &out.metrics);
            }
        }
    }
}

#[test]
fn a_truncated_bin_file_is_a_corrupt_extent() {
    for_both_worlds(a_truncated_bin_file_is_a_corrupt_extent_in);
}

/// A fused read that hits a transient fault is retried by the leading
/// session *once on behalf of all waiters*: the summed retry count of
/// K identical fused sessions equals the retry count of a single
/// session running alone under the same fault schedule — and every
/// session's answer is byte-identical to the fault-free baseline.
fn fused_transient_retries_happen_once_for_all_waiters_in(fresh: Fresh) {
    let clean = fresh();
    build_into(&clean);
    let q = full_values_query();
    let want = fingerprint(
        &MlocStore::open(&clean, DS, VAR)
            .unwrap()
            .query_serial(&q)
            .unwrap(),
    );

    let fb = FaultBackend::new(fresh(), FaultPlan::transient(7, 0.4, 3));
    build_into(&fb);

    // Reference: one session alone. The open is burned in separately
    // (catalog/meta signatures are disjoint from the query's reads),
    // so `m_alone.retries` counts exactly the query's own retries.
    fb.reset_attempts();
    open_retrying(&fb).unwrap();
    let store = open_retrying(&fb).unwrap();
    let exec = ParallelExecutor::serial().with_retry(RetryPolicy::with_attempts(5));
    let (res, m_alone) = exec.execute(&store, &q).unwrap();
    assert_eq!(fingerprint(&res), want);
    assert!(m_alone.retries > 0, "schedule produced no retries");

    // Six identical sessions across three tenants, fused, same
    // schedule replayed from scratch. The server's own open is burned
    // in the same way first.
    fb.reset_attempts();
    open_retrying(&fb).unwrap();
    let config = ServeConfig {
        workers: 3,
        window: 6,
        cache_mb: 0,
        fusion: true,
        retry: RetryPolicy::with_attempts(5),
        ..ServeConfig::default()
    };
    let server = QueryServer::new(&fb, config);
    let specs: Vec<SessionSpec> = (0..6)
        .map(|i| SessionSpec::new(["a", "b", "c"][i % 3], DS, VAR, q.clone()))
        .collect();
    let reports = server.run(&specs);
    let mut total_retries = 0u64;
    for r in &reports {
        let res = r
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("session {} failed: {e}", r.index));
        assert_eq!(fingerprint(res), want, "session {} drifted", r.index);
        total_retries += r.metrics.as_ref().unwrap().retries;
    }
    assert_eq!(
        total_retries, m_alone.retries,
        "retries must happen once per physical read, not once per waiter"
    );
    let stats = server.fusion_stats().unwrap();
    assert!(stats.fused_reads > 0, "sessions never fused: {stats:?}");
}

#[test]
fn fused_transient_retries_happen_once_for_all_waiters() {
    for_both_worlds(fused_transient_retries_happen_once_for_all_waiters_in);
}

/// A fused read that hits *permanent* corruption fails every waiting
/// session with the corrupt-extent context — no session may see a
/// silent success just because another session led the read.
fn fused_corruption_fails_every_waiting_session_in(fresh: Fresh) {
    let mut plan = FaultPlan::none();
    plan.flips.push(mloc_pfs::BitFlip {
        file: "bin0002.bin".to_string(),
        offset: first_unit(2) + 4,
        mask: 0x20,
    });
    let fb = FaultBackend::new(fresh(), plan);
    build_into(&fb);

    let config = ServeConfig {
        workers: 3,
        window: 6,
        cache_mb: 0,
        fusion: true,
        ..ServeConfig::default()
    };
    let server = QueryServer::new(&fb, config);
    let q = full_values_query();
    let specs: Vec<SessionSpec> = (0..6)
        .map(|i| SessionSpec::new(["a", "b", "c"][i % 3], DS, VAR, q.clone()))
        .collect();
    let reports = server.run(&specs);
    for r in &reports {
        match &r.outcome {
            Ok(_) => panic!(
                "session {}: corruption silently succeeded through fusion",
                r.index
            ),
            Err(ServeError::Query(e)) => {
                assert!(
                    e.is_corruption(),
                    "session {}: wrong error class: {e}",
                    r.index
                );
                if let MlocError::CorruptExtent { file, .. } = e {
                    assert!(file.ends_with("bin0002.bin"), "session {}: {e}", r.index);
                }
            }
            Err(other) => panic!("session {}: wrong failure kind: {other}", r.index),
        }
    }
    let usage = server.usage();
    assert_eq!(usage.values().map(|u| u.failed).sum::<u64>(), 6);
}

#[test]
fn fused_corruption_fails_every_waiting_session() {
    for_both_worlds(fused_corruption_fails_every_waiting_session_in);
}

fn base_part_corruption_carries_context_in_all_modes_in(fresh: Fresh) {
    // Flip the first data extent (a base byte group): every execution
    // mode must fail with the file and offset, never panic or degrade.
    let flip = first_unit(2) + 4;
    let mut plan = FaultPlan::none();
    plan.flips.push(mloc_pfs::BitFlip {
        file: "bin0002.bin".to_string(),
        offset: flip,
        mask: 0x20,
    });
    let fb = FaultBackend::new(fresh(), plan);
    build_into(&fb);
    let q = full_values_query();
    let cache = std::sync::Arc::new(BlockCache::with_budget_mb(64));
    let execs = [
        ParallelExecutor::serial(),
        ParallelExecutor::new(4, CostModel::default()),
        ParallelExecutor::new(4, CostModel::default()).threaded(true),
    ];
    for (i, exec) in execs.iter().enumerate() {
        for cached in [false, true] {
            let mut store = MlocStore::open(&fb, DS, VAR).unwrap();
            if cached {
                store.set_cache(Some(cache.clone()));
            }
            let err = match exec.execute(&store, &q) {
                Ok(_) => panic!("mode {i} cached={cached}: corruption not detected"),
                Err(e) => e,
            };
            match &err {
                MlocError::CorruptExtent {
                    file, offset, len, ..
                } => {
                    assert!(file.ends_with("bin0002.bin"), "mode {i}: {err}");
                    assert!(
                        *offset <= flip && flip < offset + len,
                        "mode {i}: extent does not cover the flip: {err}"
                    );
                }
                other => panic!("mode {i} cached={cached}: wrong error: {other}"),
            }
        }
    }
}

#[test]
fn base_part_corruption_carries_context_in_all_modes() {
    for_both_worlds(base_part_corruption_carries_context_in_all_modes_in);
}

// ---------------------------------------------------------------------
// A bin's fixed blocks, fetched once per query and shared between ranks.
//
// A bin file's header, summary and two checksum tables come in one
// seek from its front, and every rank that uses the bin reads them.
// Damage to any of them must end in the same `CorruptExtent` in every
// mode, with the bin's fixed-block entry never admitted to the cache.
// ---------------------------------------------------------------------

const SHARED_BIN: usize = 1;

/// Where a scenario's damage is: dataset, bin, and the two rank counts
/// at which that bin is shared between ranks.
type Site<'s> = (&'s str, usize, [usize; 2]);

/// Run `q` over `ds/v` on `be` in every execution mode and hand each
/// outcome to `check` with the mode's name: serial, replay and threaded
/// at the site's two rank counts, behind a cache (twice: whatever the
/// first pass admitted is what the second one is served), and behind an
/// extent fuser (twice in one window).
fn in_every_mode(
    be: &dyn StorageBackend,
    (ds, _, ranks): Site<'_>,
    q: &Query,
    check: &dyn Fn(&str, mloc::Result<ExecOutput>, &MlocStore<'_>),
) {
    let open = || MlocStore::open(be, ds, VAR).unwrap();
    let parallel = |n: usize, threaded: bool| {
        ParallelExecutor::new(n, CostModel::default()).threaded(threaded)
    };
    let store = open();
    check(
        "serial",
        ParallelExecutor::serial().run(&store, ExecRequest::new(q)),
        &store,
    );
    for n in ranks {
        for threaded in [false, true] {
            let mode = format!("{n} ranks threaded={threaded}");
            check(
                &mode,
                parallel(n, threaded).run(&store, ExecRequest::new(q)),
                &store,
            );
        }
    }
    for n in [1, ranks[0], ranks[1]] {
        let cached = open().with_cache(std::sync::Arc::new(BlockCache::with_budget_mb(64)));
        for pass in 0..2 {
            let mode = format!("cached {n} ranks pass {pass}");
            check(
                &mode,
                parallel(n, n > 1).run(&cached, ExecRequest::new(q)),
                &cached,
            );
        }
    }
    let fuser = std::sync::Arc::new(ExtentFuser::with_window_mb(8));
    let fusing = open().with_fusion(std::sync::Arc::clone(&fuser));
    fuser.begin_window();
    for pass in 0..2 {
        let mode = format!("fused pass {pass}");
        check(
            &mode,
            ParallelExecutor::serial().run(&fusing, ExecRequest::new(q)),
            &fusing,
        );
    }
}

fn assert_corrupt_extent(
    tag: &str,
    got: mloc::Result<ExecOutput>,
    (file, offset, len, what): (&str, u64, u64, &str),
) {
    match got {
        Ok(_) => panic!("{tag}: damage not detected"),
        Err(MlocError::CorruptExtent {
            file: f,
            offset: o,
            len: l,
            what: w,
        }) => assert_eq!(
            (f.as_str(), o, l, w.as_str()),
            (file, offset, len, what),
            "{tag}"
        ),
        Err(other) => panic!("{tag}: wrong error: {other}"),
    }
}

/// The cache holds no fixed-block entry of `bin`: the entry holds the
/// bin's header, summary and tables together, so damage to any of them
/// — or to a block it must wait for — keeps all of them out.
fn assert_nothing_admitted(tag: &str, store: &MlocStore<'_>, bin: usize) {
    let Some(cache) = store.cache() else { return };
    let key = mloc::cache::BlockKey {
        scope: std::sync::Arc::clone(store.cache_scope()),
        bin: bin as u32,
        chunk_rank: 0,
        part: mloc::cache::BlockPart::Fixed,
    };
    assert!(
        cache.get(&key).is_none(),
        "{tag}: the fixed blocks were admitted"
    );
}

/// One damage row: what was flipped, in which file, at which offset and
/// with which mask; and the error every mode must end in.
type Row<'r> = (&'r str, &'r str, u64, u8, (&'r str, u64, u64, &'r str));

/// Flip each row's byte in a fresh build, and hold every mode to the
/// row's outcome.
fn run_rows(fresh: Fresh, site: Site<'_>, rows: &[Row<'_>]) {
    let q = full_values_query();
    for &(what, file, offset, mask, want) in rows {
        let mut plan = FaultPlan::none();
        plan.flips.push(mloc_pfs::BitFlip {
            file: file.to_string(),
            offset,
            mask,
        });
        let fb = FaultBackend::new(fresh(), plan);
        build_into(&fb);
        in_every_mode(&fb, site, &q, &|mode, got, store| {
            let tag = format!("{what} ({mode})");
            assert_corrupt_extent(&tag, got, want);
            assert_nothing_admitted(&tag, store, site.1);
        });
    }
}

/// The site's bin really is shared at its two rank counts — more than
/// one rank touches its `file` — and every rank that touches it reads
/// the bin's header, at its front, itself.
fn assert_each_rank_reads_the_header(
    be: &dyn StorageBackend,
    (ds, _, ranks): Site<'_>,
    file: &str,
) {
    for n in ranks {
        let exec = ParallelExecutor::new(n, CostModel::default()).profiled(true);
        let store = MlocStore::open(be, ds, VAR).unwrap();
        let out = exec
            .run(&store, ExecRequest::new(&full_values_query()))
            .unwrap();
        let touching: Vec<(usize, &Vec<ReadOp>)> = (out.traces.iter().enumerate())
            .filter(|(_, trace)| trace.iter().any(|op| &*op.file == file))
            .collect();
        assert!(touching.len() > 1, "{file} is not shared at {n} ranks");
        for (r, trace) in touching {
            let header = |op: &ReadOp| &*op.file == file && op.offset == 0 && !op.cached;
            assert!(
                trace.iter().any(header),
                "rank {r} of {n} uses {file} without reading its header"
            );
        }
    }
}

fn damaged_fixed_blocks_fail_as_they_are_read_in(fresh: Fresh) {
    let clean = fresh();
    build_into(&clean);
    let site = (DS, SHARED_BIN, [4, 8]);
    let file = mloc::fileorg::bin_file(DS, VAR, SHARED_BIN);
    assert_each_rank_reads_the_header(&clean, site, &file);

    let raw = clean.read(&file, 0, clean.len(&file).unwrap()).unwrap();
    let tables = located(&*clean, SHARED_BIN, &raw).tables();
    let (index_at, index_len) = tables.index_span();
    let (data_at, data_len) = tables.data_span();
    assert_eq!(index_at, HEADER_LEN, "the tables follow the header");
    let header_crc = (file.as_str(), 0, HEADER_LEN, "checksum mismatch");
    let rows: [Row; 5] = [
        // A header read ahead of its table fails its checksum once the
        // tables are in. The tables themselves verified on their own.
        ("header bin byte", &file, 6, 0x01, header_crc),
        ("header magic", &file, 0, 0x02, header_crc),
        ("header chunk count", &file, 9, 0x04, header_crc),
        (
            "index table",
            &file,
            index_at + 5,
            0x08,
            (&file, index_at, index_len, "checksum table corrupt"),
        ),
        (
            "data table",
            &file,
            data_at + 5,
            0x08,
            (&file, data_at, data_len, "checksum table corrupt"),
        ),
    ];
    run_rows(fresh, site, &rows);
}

#[test]
fn damaged_fixed_blocks_fail_as_they_are_read() {
    for_both_worlds(damaged_fixed_blocks_fail_as_they_are_read_in);
}

/// Where the interesting bytes of one bin file of the checked-in v6
/// dataset are: its 14-byte header, its two checksum tables — each
/// `{len, crc}` rows, then the rows' CRC — and its last unit part,
/// which ends at the end marker.
struct Anatomy {
    bin: String,
    bin_len: u64,
    /// `(offset, length)` of the index table and of the data table.
    index_table: (u64, u64),
    data_table: (u64, u64),
    /// `(offset, length)` of the last unit part.
    last_unit: (u64, u64),
    meta_len: u64,
}

fn anatomy(be: &dyn StorageBackend, bin: usize) -> Anatomy {
    let name = format!("fmt/v/bin{bin:04}.bin");
    let raw = be.read(&name, 0, be.len(&name).unwrap()).unwrap();
    let le = |at: usize| u32::from_le_bytes(raw[at..at + 4].try_into().unwrap());
    let rows_crc =
        |at: usize, n: usize| mloc::integrity::crc32(&raw[at..at + 8 * n]) == le(at + 8 * n);
    let n_index = (1..=17).find(|&n| rows_crc(14, n)).unwrap();
    let data_at = 14 + 8 * n_index + 4;
    let n_data = 7 * (n_index - 1);
    assert!(rows_crc(data_at, n_data));
    let last_len = u64::from(le(data_at + 8 * (n_data - 1)));
    Anatomy {
        index_table: (14, 8 * n_index as u64 + 4),
        data_table: (data_at as u64, 8 * n_data as u64 + 4),
        last_unit: (raw.len() as u64 - 12 - last_len, last_len),
        bin_len: raw.len() as u64,
        meta_len: be.len("fmt/v/meta").unwrap(),
        bin: name,
    }
}

/// Damage to the checked-in v6 dataset — a header, a unit, the meta's
/// tail footer, the checksum tables — fails `mloc upgrade` with the
/// damaged extent named, and commits nothing: the new store holds no
/// variable.
fn damaged_headers_and_footers_fail_as_they_always_did_in(fresh: Fresh) {
    let clean = fresh();
    mloc_integration::load_fixture(6, &*clean);
    let a = anatomy(&*clean, 2);
    let meta = "fmt/v/meta";
    let header_crc = (a.bin.as_str(), 0, 14, "checksum mismatch");
    let (unit_at, unit_len) = a.last_unit;
    let rows: [Row; 7] = [
        // The chunk count and the part count: the header fails its
        // checksum.
        ("header's chunk count", &a.bin, 9, 0x01, header_crc),
        ("header's part count", &a.bin, 13, 0x40, header_crc),
        // A header that no longer parses.
        ("header magic", &a.bin, 0, 0x02, header_crc),
        // A unit's bytes.
        (
            "last unit",
            &a.bin,
            unit_at + unit_len / 2,
            0x10,
            (&a.bin, unit_at, unit_len, "checksum mismatch"),
        ),
        // The meta trailer's own geometry.
        (
            "meta trailer payload_len",
            meta,
            a.meta_len - 20,
            0x01,
            (
                meta,
                a.meta_len - 24,
                24,
                "footer geometry inconsistent with file size",
            ),
        ),
        // The checksum tables.
        (
            "index table",
            &a.bin,
            a.index_table.0 + 5,
            0x08,
            (
                &a.bin,
                a.index_table.0,
                a.index_table.1,
                "checksum table corrupt",
            ),
        ),
        (
            "data table",
            &a.bin,
            a.data_table.0 + 5,
            0x08,
            (
                &a.bin,
                a.data_table.0,
                a.data_table.1,
                "checksum table corrupt",
            ),
        ),
    ];
    assert!(unit_at + unit_len < a.bin_len);
    for &(what, file, offset, mask, want) in &rows {
        let mut plan = FaultPlan::none();
        plan.flips.push(mloc_pfs::BitFlip {
            file: file.to_string(),
            offset,
            mask,
        });
        let old = FaultBackend::new(fresh(), plan);
        mloc_integration::load_fixture(6, &old);
        let new = fresh();
        let got = mloc::upgrade::upgrade(&old, &*new, "fmt").map(|_| ());
        match got {
            Err(MlocError::CorruptExtent {
                file,
                offset,
                len,
                what: w,
            }) => assert_eq!((file.as_str(), offset, len, w.as_str()), want, "{what}"),
            other => panic!("{what}: {other:?}"),
        }
        let fsck = mloc::repair::fsck(&*new, "fmt").unwrap();
        assert!(
            fsck.committed.is_empty() && fsck.is_clean(),
            "{what}: {fsck}"
        );
    }
}

#[test]
fn damaged_headers_and_footers_fail_as_they_always_did() {
    for_both_worlds(damaged_headers_and_footers_fail_as_they_always_did_in);
}

/// A chunk's run list tampered with and its index checksum table
/// recomputed around it — damage no checksum sees: one run lengthened
/// by a position, so the list no longer sums to its summary's count.
/// Every query mode fails naming the extent, its run list is never
/// cached, and `verify` and `fsck` name it before any query does.
fn a_resealed_run_list_is_named_by_verify_and_every_query_in(fresh: Fresh) {
    use mloc::bitmap::RunListRef;
    let clean = fresh();
    build_into(&clean);
    let site = (DS, SHARED_BIN, [4, 8]);
    let file = mloc::fileorg::bin_file(DS, VAR, SHARED_BIN);
    let raw = clean.read(&file, 0, clean.len(&file).unwrap()).unwrap();
    let store = MlocStore::open(&*clean, DS, VAR).unwrap();
    let header = located(&*clean, SHARED_BIN, &raw);
    let points = |r: usize| store.grid().chunk_points(store.order().cell_at(r)) as u64;
    let count = |r: usize| store.summaries().get(SHARED_BIN, r).count;

    // The first chunk whose last run ends before the chunk does, its
    // length in one byte with room to grow.
    let (rank, at, len) = (0..store.grid().num_chunks())
        .find_map(|r| {
            let (at, len) = header.bitmap(r)?;
            let pairs = &raw[at as usize..(at + u64::from(len)) as usize];
            let list = RunListRef::stored(pairs, count(r).into(), points(r)).ok()?;
            let (start, _, n) = list.iter().last()?;
            let grows = start + n < points(r) && *pairs.last()? < 0x7F;
            grows.then_some((r, at, len))
        })
        .expect("a run list to lengthen");
    let mut tampered = raw.clone();
    let last = (at + u64::from(len) - 1) as usize;
    tampered[last] += 1;

    // Reseal: the extent's entry in the index table, then the table's
    // own checksum. The extent is index extent 1 + its order among the
    // bitmaps, which are laid out in curve-rank order.
    let (table_at, table_len) = header.tables().index_span();
    let k = 1 + (0..rank).filter(|&r| count(r) > 0).count();
    let entry = table_at as usize + 8 * k;
    assert_eq!(
        tampered[entry..entry + 4],
        len.to_le_bytes(),
        "the extent's entry"
    );
    let crc = mloc::integrity::crc32(&tampered[at as usize..=last]);
    tampered[entry + 4..entry + 8].copy_from_slice(&crc.to_le_bytes());
    let entries_end = (table_at + table_len - 4) as usize;
    let table_crc = mloc::integrity::crc32(&tampered[table_at as usize..entries_end]);
    tampered[entries_end..entries_end + 4].copy_from_slice(&table_crc.to_le_bytes());

    let mut plan = FaultPlan::none();
    for (offset, (a, b)) in raw.iter().zip(&tampered).enumerate() {
        if a != b {
            plan.flips.push(mloc_pfs::BitFlip {
                file: file.clone(),
                offset: offset as u64,
                mask: a ^ b,
            });
        }
    }
    let fb = FaultBackend::new(fresh(), plan);
    build_into(&fb);

    let count = count(rank);
    let what = format!(
        "run list disagrees with its count (summary: {count} of {} points)",
        points(rank)
    );
    let report = verify_variable(&fb, DS, VAR).unwrap();
    let labelled = format!("bitmap of chunk rank {rank}: {what}");
    let found: Vec<_> = report
        .damage
        .iter()
        .map(|d| (&*d.file, d.offset, d.len, &*d.what))
        .collect();
    assert_eq!(
        found,
        [(&*file, at, u64::from(len), &*labelled)],
        "{report}"
    );
    let fsck = mloc::repair::fsck(&fb, DS).unwrap();
    assert!(!fsck.is_clean(), "fsck passed a resealed run list: {fsck}");
    assert!(fsck.findings.iter().any(|f| f.file == file), "{fsck}");

    let q = full_values_query();
    in_every_mode(&fb, site, &q, &|mode, got, store| {
        let tag = format!("resealed run list ({mode})");
        assert_corrupt_extent(&tag, got, (&file, at, u64::from(len), &what));
        if let Some(cache) = store.cache() {
            let key = mloc::cache::BlockKey {
                scope: std::sync::Arc::clone(store.cache_scope()),
                bin: SHARED_BIN as u32,
                chunk_rank: rank as u32,
                part: mloc::cache::BlockPart::Bitmap,
            };
            assert!(cache.get(&key).is_none(), "{tag}: the run list was cached");
        }
    });
}

#[test]
fn a_resealed_run_list_is_named_by_verify_and_every_query() {
    for_both_worlds(a_resealed_run_list_is_named_by_verify_and_every_query_in);
}

/// A chunk summary edited in the meta so the bin's tables no longer have
/// one bitmap row per set chunk — a set chunk's count zeroed leaves the
/// file a row too many, an empty chunk given a point a row too few — and
/// the meta's footer resealed around it, so every checksum holds. The
/// summaries size the tables a reader reads, so the bin file's index
/// table, read at the size they give, fails its own checksum: `verify`,
/// `fsck` and every query mode name it, and no mode caches the bin's
/// fixed blocks.
fn a_resealed_table_with_a_row_too_many_or_too_few_is_named_in(fresh: Fresh) {
    let clean = fresh();
    build_into(&clean);
    let site = (DS, SHARED_BIN, [4, 8]);
    let chunks = 16;
    let meta = mloc::fileorg::meta_file(DS, VAR);
    let store = MlocStore::open(&*clean, DS, VAR).unwrap();
    let summaries = store.summaries();
    let counts =
        |bin: usize| -> Vec<u32> { (0..chunks).map(|r| summaries.get(bin, r).count).collect() };
    // A set chunk's count zeroed in the shared bin; an empty chunk's
    // set in the first bin that has one.
    let with_empty = (0..6).find(|&bin| counts(bin).contains(&0));
    let with_empty = with_empty.expect("a bin with a chunk of no points");
    let set_rank = counts(SHARED_BIN).iter().position(|&c| c > 0).unwrap();
    let empty_rank = counts(with_empty).iter().position(|&c| c == 0).unwrap();
    let raw = clean.read(&meta, 0, clean.len(&meta).unwrap()).unwrap();
    let (sections_at, _) = summary_sections(&*clean);
    let section = mloc::index::summary_size(chunks) as usize;
    for (what, bin, rank, count) in [
        ("a row too many", SHARED_BIN, set_rank, 0u32),
        ("a row too few", with_empty, empty_rank, 1),
    ] {
        let file = mloc::fileorg::bin_file(DS, VAR, bin);
        let set = counts(bin).iter().filter(|&&c| c > 0).count();
        let set_now = if count == 0 { set - 1 } else { set + 1 };
        let (table_at, table_len) = mloc::binfile::Tables::of(set_now, 7).index_span();
        // The meta, its count edited and its footer recomputed.
        let payload_len = sections_at as usize + summaries.as_bytes().len();
        let mut payload = raw[..payload_len].to_vec();
        let count_at = sections_at as usize + bin * section + 8 + 13 * rank;
        payload[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        let footer = mloc::ExtentFooter::compute(&payload, &[payload.len() as u32]);
        let tampered = [payload, footer.encode()].concat();
        assert_eq!(tampered.len(), raw.len());

        let mut plan = FaultPlan::none();
        for (offset, (a, b)) in raw.iter().zip(&tampered).enumerate() {
            if a != b {
                plan.flips.push(mloc_pfs::BitFlip {
                    file: meta.clone(),
                    offset: offset as u64,
                    mask: a ^ b,
                });
            }
        }
        let fb = FaultBackend::new(fresh(), plan);
        build_into(&fb);

        let want = "checksum table corrupt";
        let report = verify_variable(&fb, DS, VAR).unwrap();
        let found: Vec<_> = report
            .damage
            .iter()
            .map(|d| (&*d.file, d.offset, d.len, &*d.what))
            .collect();
        let labelled = format!("index checksum table: {want}");
        assert_eq!(
            found,
            [(&*file, table_at, table_len, &*labelled)],
            "{what}: {report}"
        );
        let fsck = mloc::repair::fsck(&fb, DS).unwrap();
        assert!(!fsck.is_clean(), "{what}: fsck passed: {fsck}");
        assert!(fsck.findings.iter().any(|f| f.file == file), "{fsck}");

        let q = full_values_query();
        in_every_mode(&fb, site, &q, &|mode, got, store| {
            let tag = format!("{what} ({mode})");
            assert_corrupt_extent(&tag, got, (&file, table_at, table_len, want));
            assert_nothing_admitted(&tag, store, bin);
        });
    }
}

#[test]
fn a_resealed_table_with_a_row_too_many_or_too_few_is_named() {
    for_both_worlds(a_resealed_table_with_a_row_too_many_or_too_few_is_named_in);
}
