//! Crash recovery (`mloc fsck` / `mloc repair`).
//!
//! A build writes in a strict durability order — every bin file is
//! written and synced (one create, one append, one sync) before the
//! variable's meta file, and the meta is synced before the catalog line
//! that registers the variable. The meta is the build's commit record:
//! a whole meta means every bin file it names was synced first. Whole
//! is judged by one scan of the store (the private `scan` module, which
//! `verify` reports too), and the ordering makes every crash state
//! classifiable from the store alone:
//!
//! * **committed** — the catalog lists the variable and its meta is
//!   whole; bin files are expected to be whole too.
//! * **unlisted** — the meta is whole but the crash hit between the
//!   meta sync and the catalog append. The data is complete; repair
//!   reattaches the catalog line.
//! * **uncommitted** — the meta is absent or damaged and the catalog
//!   never listed the variable. The bin files are build debris
//!   (*orphaned*); repair rolls them back so the build can rerun.
//! * **torn / missing** — a file of a committed variable is damaged
//!   (or is gone). Repair rewrites it from the first replica holding a
//!   whole copy; without one, the damage is reported, never silently
//!   served.
//! * **orphaned** too — a file of a committed variable its layout does
//!   not name: a stray, or a bin file numbered past the bin count.
//!   Repair removes it.
//!
//! [`fsck`] only classifies; [`repair`] acts on the same scan. Both work
//! through any [`StorageBackend`]; replica restore is a no-op on
//! unreplicated stores (no `replica_access()`, or one replica: the scan
//! judged the only copy). A store of the formats before v7 is refused
//! whole, untouched: `mloc upgrade` copies it out.

use crate::binfile;
use crate::dataset::{catalog_header, parse_catalog};
use crate::fileorg;
use crate::scan::{scan, Scan};
use crate::store::VariableMeta;
use crate::Result;
use mloc_pfs::StorageBackend;
use std::collections::BTreeSet;
use std::fmt;

/// How one file came through the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Present but not whole (torn write or corruption).
    Torn,
    /// Expected for a committed variable but absent.
    Missing,
    /// Debris of an uncommitted build (no whole meta, no catalog entry),
    /// or a file the layout does not name.
    Orphaned,
}

impl fmt::Display for FileClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FileClass::Torn => "torn",
            FileClass::Missing => "missing",
            FileClass::Orphaned => "orphaned",
        })
    }
}

/// One non-clean file found by [`fsck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileFinding {
    /// The file.
    pub file: String,
    /// Its classification.
    pub class: FileClass,
    /// Human-readable detail (verification error, expectation).
    pub what: String,
}

impl fmt::Display for FileFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]: {}", self.file, self.class, self.what)
    }
}

/// Classification of a whole dataset after a crash.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Dataset name.
    pub dataset: String,
    /// Whether the catalog header parses and its body is readable.
    pub catalog_ok: bool,
    /// Variables listed in the catalog (a damaged meta is a finding).
    pub committed: Vec<String>,
    /// Variables with a whole meta that the catalog does not list
    /// (crash between meta sync and catalog append).
    pub unlisted: Vec<String>,
    /// Variables with no whole meta and no catalog entry
    /// (interrupted builds).
    pub uncommitted: Vec<String>,
    /// Every file that is not cleanly committed.
    pub findings: Vec<FileFinding>,
    /// Files examined.
    pub files_checked: usize,
}

impl FsckReport {
    /// Whether the store needs no repair: catalog readable, every
    /// variable committed and every file verified.
    pub fn is_clean(&self) -> bool {
        self.catalog_ok && self.findings.is_empty() && self.unlisted.is_empty()
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(
                f,
                "ok: {} file(s) checked, {} committed variable(s)",
                self.files_checked,
                self.committed.len()
            );
        }
        writeln!(
            f,
            "NEEDS REPAIR: {} finding(s) across {} file(s) checked",
            self.findings.len(),
            self.files_checked
        )?;
        if !self.catalog_ok {
            writeln!(f, "  catalog unreadable")?;
        }
        for v in &self.unlisted {
            writeln!(f, "  variable {v}: complete but not in catalog")?;
        }
        for v in &self.uncommitted {
            writeln!(f, "  variable {v}: uncommitted build debris")?;
        }
        for d in &self.findings {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// What [`repair`] changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// The pre-repair classification.
    pub fsck: FsckReport,
    /// Files rewritten from a whole replica copy.
    pub restored: Vec<String>,
    /// Uncommitted variables whose debris was removed.
    pub rolled_back: Vec<String>,
    /// Files removed: rolled-back builds and orphans.
    pub removed_files: usize,
    /// Committed-but-unlisted variables reattached to the catalog.
    pub reattached: Vec<String>,
    /// Whether the catalog file was rewritten.
    pub catalog_rewritten: bool,
    /// Damaged files with no healthy copy on any replica. These stay
    /// as-is: queries fail (or degrade) loudly instead of serving
    /// corrupt bytes.
    pub unrepairable: Vec<String>,
}

impl RepairReport {
    /// Whether the store is fully healthy after repair (no data loss).
    pub fn is_healthy(&self) -> bool {
        self.unrepairable.is_empty()
    }
}

impl fmt::Display for RepairReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "repair: {} restored, {} rolled back ({} file(s) removed), {} reattached{}",
            self.restored.len(),
            self.rolled_back.len(),
            self.removed_files,
            self.reattached.len(),
            if self.catalog_rewritten {
                ", catalog rewritten"
            } else {
                ""
            }
        )?;
        if !self.unrepairable.is_empty() {
            writeln!(f, "\nUNREPAIRABLE ({} file(s)):", self.unrepairable.len())?;
            for file in &self.unrepairable {
                writeln!(f, "  {file}")?;
            }
        }
        Ok(())
    }
}

/// Rewrite `file` with `bytes` — create truncates, and on a
/// replicated backend the write fans out to every replica, so a
/// restore heals all copies at once.
fn rewrite(backend: &dyn StorageBackend, file: &str, bytes: &[u8]) -> Result<()> {
    backend.create(file)?;
    backend.append(file, bytes)?;
    backend.sync(file)?;
    Ok(())
}

/// The first whole copy of `file` on a replicated store, each copy read
/// *directly* and judged by `whole`, the scan's rule for the file. When
/// some copy is not whole — torn, or lost behind the read path's
/// fall-through — `file` is rewritten from that copy, which heals every
/// copy, and recorded in `restored`. `None` when no copy is whole, and
/// on a single-copy store, whose one copy the scan already judged.
fn mend(
    backend: &dyn StorageBackend,
    file: &str,
    whole: impl Fn(&[u8]) -> bool,
    restored: &mut Vec<String>,
) -> Result<Option<Vec<u8>>> {
    let Some(replicas) = backend.replica_access().filter(|r| r.replica_count() > 1) else {
        return Ok(None);
    };
    let (mut good, mut all_whole) = (None, true);
    for k in 0..replicas.replica_count() {
        let copy = (replicas.len_replica(file, k))
            .and_then(|len| replicas.read_replica(file, k, 0, len))
            .ok()
            .filter(|raw| whole(raw));
        match copy {
            Some(raw) => drop(good.get_or_insert(raw)),
            None => all_whole = false,
        }
    }
    if let Some(raw) = good.as_deref().filter(|_| !all_whole) {
        rewrite(backend, file, raw)?;
        restored.push(file.to_string());
    }
    Ok(good)
}

/// Classify every file of dataset `ds` without modifying anything.
pub fn fsck(backend: &dyn StorageBackend, ds: &str) -> Result<FsckReport> {
    Ok(classify(ds, &scan(backend, ds, None)?))
}

/// What `fsck` reports of a scan of dataset `ds`.
fn classify(ds: &str, scan: &Scan) -> FsckReport {
    let mut report = FsckReport {
        dataset: ds.to_string(),
        ..Default::default()
    };
    let mut found = |file: &str, class, what: &str| {
        report.findings.push(FileFinding {
            file: file.to_string(),
            class,
            what: what.to_string(),
        })
    };
    let catalog_file = fileorg::catalog_file(ds);
    let mut catalog = None;
    match &scan.catalog {
        Ok((_, Ok(parsed))) => {
            if !parsed.clean_tail {
                let what = "unterminated trailing registration line";
                found(&catalog_file, FileClass::Torn, what);
            }
            catalog = Some(parsed);
        }
        Ok((_, Err(e))) => found(&catalog_file, FileClass::Torn, &e.to_string()),
        Err(_) => found(&catalog_file, FileClass::Missing, "catalog unreadable"),
    }
    let mut checked = usize::from(scan.catalog.is_ok());
    let (mut committed, mut unlisted, mut uncommitted) = (Vec::new(), Vec::new(), Vec::new());
    for (var, v) in &scan.vars {
        let listed = catalog.is_some_and(|c| c.vars.contains(var));
        let meta = &v.meta;
        checked += usize::from(meta.present);
        let why = meta.damage.first().map(|d| d.what.as_str());
        match (why, listed) {
            (None, true) => committed.push(var.clone()),
            (None, false) => unlisted.push(var.clone()),
            (Some(why), true) => {
                // Listed but broken meta: committed data with damage.
                committed.push(var.clone());
                let class = if meta.present {
                    FileClass::Torn
                } else {
                    FileClass::Missing
                };
                found(&meta.file, class, why);
            }
            (Some(why), false) => {
                uncommitted.push(var.clone());
                if meta.present {
                    let what = format!("uncommitted build: {why}");
                    found(&meta.file, FileClass::Orphaned, &what);
                }
            }
        }
        // A committed variable's bin files must all be there and whole;
        // an uncommitted build's are debris, whole or not.
        let debris = why.is_some() && !listed;
        for (_, bin) in &v.bins {
            checked += usize::from(bin.present);
            let (class, what) = match (bin.present, bin.damage.first()) {
                (false, _) if debris => continue,
                (false, _) => (FileClass::Missing, "expected by committed variable"),
                (true, d) if debris => (
                    FileClass::Orphaned,
                    d.map_or("uncommitted build debris", |d| &d.what),
                ),
                (true, Some(d)) => (FileClass::Torn, d.what.as_str()),
                (true, None) => continue,
            };
            found(&bin.file, class, what);
        }
        for orphan in &v.orphans {
            found(orphan, FileClass::Orphaned, "not part of the layout");
        }
    }
    FsckReport {
        catalog_ok: catalog.is_some(),
        committed,
        unlisted,
        uncommitted,
        files_checked: checked,
        ..report
    }
}

/// Remove `files` (the repair path is the only one that removes
/// anything). Missing files are fine; other removal errors abort. How
/// many were removed.
fn remove<'a>(backend: &dyn StorageBackend, files: impl Iterator<Item = &'a str>) -> Result<usize> {
    let mut removed = 0usize;
    for name in files {
        match backend.remove(name) {
            Ok(()) => removed += 1,
            Err(mloc_pfs::PfsError::NotFound(_)) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(removed)
}

/// Repair dataset `ds` in place: restore torn/missing files from
/// replicas, roll back uncommitted builds, remove the files the layout
/// does not name, and reconcile the catalog with the set of committed
/// variables. Acts on one scan of the dataset, the one `fsck` reports.
/// Returns what changed; damage with no healthy replica is reported in
/// [`RepairReport::unrepairable`], never silently dropped.
pub fn repair(backend: &dyn StorageBackend, ds: &str) -> Result<RepairReport> {
    let scanned = scan(backend, ds, None)?;
    let mut report = RepairReport {
        fsck: classify(ds, &scanned),
        ..Default::default()
    };
    let Scan { catalog, mut vars } = scanned;
    let catalog_file = fileorg::catalog_file(ds);

    // 1. The catalog itself: if it does not parse, any replica copy
    //    that does can rewrite it.
    let parses = |raw: &[u8]| parse_catalog(raw).is_ok();
    let catalog = match catalog {
        Ok((raw, Ok(parsed))) => Some((parsed, raw)),
        _ => (mend(backend, &catalog_file, parses, &mut report.restored)?)
            .and_then(|raw| Some((parse_catalog(&raw).ok()?, raw))),
    };
    let listed = catalog
        .as_ref()
        .map_or_else(Vec::new, |(c, _)| c.vars.clone());
    // A restored catalog may list a variable the store holds no file of.
    let lost = listed.iter().filter(|var| !vars.contains_key(*var));
    report
        .unrepairable
        .extend(lost.map(|var| fileorg::meta_file(ds, var)));

    // 2. Metas: a damaged one gets a replica-restore attempt before the
    //    variable's fate is decided, and the variable is judged again
    //    by the restored meta's layout; a whole one has every copy made
    //    whole.
    let mut committed: BTreeSet<String> = BTreeSet::new();
    let mut rollback: Vec<String> = Vec::new();
    for (var, v) in vars.iter_mut() {
        let whole = |raw: &[u8]| VariableMeta::from_file(raw, &v.meta.file).is_ok();
        let healed = mend(backend, &v.meta.file, whole, &mut report.restored)?.is_some();
        if healed && v.config.is_none() {
            (scan(backend, ds, Some(var))?.vars.into_values()).for_each(|again| *v = again);
        }
        if v.config.is_some() {
            committed.insert(var.clone());
        } else if listed.contains(var) {
            // Registered data we cannot recover: loud loss, no
            // rollback of a committed variable.
            report.unrepairable.push(v.meta.file.clone());
        } else {
            rollback.push(var.clone());
        }
    }

    // 3. Roll back uncommitted builds so they can rerun cleanly, and
    //    remove what the layout of a committed variable does not name.
    for var in rollback {
        report.removed_files += remove(backend, vars[&var].files())?;
        report.rolled_back.push(var);
    }
    for var in &committed {
        report.removed_files += remove(backend, vars[var].orphans.iter().map(String::as_str))?;
    }

    // 4. Bin files of committed variables: restore torn/missing ones
    //    from the first whole replica copy, and make every copy of a
    //    whole one whole.
    for var in &committed {
        let v = &vars[var];
        for (bin, f) in &v.bins {
            let whole =
                |raw: &[u8]| binfile::verified(raw, &f.file, v.layout.as_ref(), *bin).is_ok();
            let healed = mend(backend, &f.file, whole, &mut report.restored)?.is_some();
            if !healed && !f.damage.is_empty() {
                report.unrepairable.push(f.file.clone());
            }
        }
    }

    // 5. Catalog reconciliation: the catalog must list exactly the
    //    committed variables. Order: surviving lines first (original
    //    order), then reattached variables sorted.
    let mut desired: Vec<String> = (listed.iter())
        .filter(|v| committed.contains(*v))
        .cloned()
        .collect();
    for var in &committed {
        if !desired.contains(var) {
            desired.push(var.clone());
            report.reattached.push(var.clone());
        }
    }
    let header = match &catalog {
        // A torn trailing registration line must be truncated even when
        // the committed variable set already matches — a later append
        // would otherwise splice onto the debris.
        Some((parsed, _)) if parsed.vars == desired && parsed.clean_tail => None,
        Some((parsed, raw)) => Some(raw[..parsed.header_len].to_vec()),
        // No readable catalog on any replica. Reconstruct the header
        // from a committed variable's meta (it embeds the shared build
        // config); with no variables either, there is nothing to
        // reconstruct from.
        None => match committed.iter().find_map(|var| vars[var].config.as_ref()) {
            Some(config) => Some(catalog_header(config)),
            None => {
                report.unrepairable.push(catalog_file.clone());
                None
            }
        },
    };
    if let Some(mut out) = header {
        for v in &desired {
            out.extend_from_slice(format!("{v}\n").as_bytes());
        }
        rewrite(backend, &catalog_file, &out)?;
        report.catalog_rewritten = true;
    }
    // The catalog's copies: a rewrite fans out, but an untouched
    // catalog can still hide a lost copy behind the read fall-through.
    if !report.catalog_rewritten && catalog.is_some() {
        mend(backend, &catalog_file, parses, &mut report.restored)?;
    }
    report.reattached.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MlocConfig;
    use crate::dataset::Dataset;
    use crate::integrity::ExtentFooter;
    use crate::verify::verify_dataset;
    use mloc_pfs::{MemBackend, ReplicaAccess, ShardRouter};
    use std::collections::BTreeMap;

    fn config() -> MlocConfig {
        MlocConfig::builder(vec![16, 16])
            .chunk_shape(vec![8, 8])
            .num_bins(4)
            .build()
    }

    fn values(seed: u64) -> Vec<f64> {
        (0..256)
            .map(|i| ((i as u64 * 37 + seed * 911) % 101) as f64)
            .collect()
    }

    fn build(be: &dyn StorageBackend) {
        let ds = Dataset::create(be, "sim", config()).unwrap();
        ds.add_variable("temp", &values(1)).unwrap();
        ds.add_variable("humid", &values(2)).unwrap();
    }

    fn snapshot(be: &dyn StorageBackend) -> Vec<(String, Vec<u8>)> {
        be.list()
            .into_iter()
            .map(|f| {
                let len = be.len(&f).unwrap();
                let bytes = be.read(&f, 0, len).unwrap();
                (f, bytes)
            })
            .collect()
    }

    #[test]
    fn clean_store_fsck_is_clean_and_repair_is_noop() {
        let be = MemBackend::new();
        build(&be);
        let before = snapshot(&be);
        let f = fsck(&be, "sim").unwrap();
        assert!(f.is_clean(), "{f}");
        assert_eq!(f.committed, vec!["humid", "temp"]);
        let r = repair(&be, "sim").unwrap();
        assert!(r.is_healthy());
        assert!(r.restored.is_empty() && r.rolled_back.is_empty());
        assert!(!r.catalog_rewritten);
        assert_eq!(snapshot(&be), before, "no-op repair must not touch bytes");
    }

    #[test]
    fn torn_meta_rolls_back_uncommitted_variable() {
        let be = MemBackend::new();
        build(&be);
        let before = snapshot(&be);
        // Simulate a crash mid-build of a third variable: bins
        // written, meta torn, no catalog line.
        crate::build::build_variable(&be, "sim", "wind", &values(3), &config()).unwrap();
        let meta = "sim/wind/meta";
        let len = be.len(meta).unwrap();
        let torn = be.read(meta, 0, len - 7).unwrap();
        be.create(meta).unwrap();
        be.append(meta, &torn).unwrap();

        let f = fsck(&be, "sim").unwrap();
        assert!(!f.is_clean());
        assert_eq!(f.uncommitted, vec!["wind"]);
        assert!(f
            .findings
            .iter()
            .any(|d| d.file == meta && d.class == FileClass::Orphaned));

        let r = repair(&be, "sim").unwrap();
        assert!(r.is_healthy(), "{r}");
        assert_eq!(r.rolled_back, vec!["wind"]);
        assert!(r.removed_files > 0);
        assert_eq!(
            snapshot(&be),
            before,
            "rollback must restore pre-build state"
        );
        // And the build can rerun.
        let ds = Dataset::open(&be, "sim").unwrap();
        ds.add_variable("wind", &values(3)).unwrap();
        assert!(fsck(&be, "sim").unwrap().is_clean());
    }

    #[test]
    fn unlisted_variable_is_reattached() {
        let be = MemBackend::new();
        build(&be);
        // Crash between meta sync and catalog append: rebuild the
        // catalog without the humid line.
        let cat = "sim/catalog";
        let len = be.len(cat).unwrap();
        let raw = be.read(cat, 0, len).unwrap();
        let catalog = parse_catalog(&raw).unwrap();
        assert_eq!(catalog.vars, vec!["temp", "humid"]);
        assert!(catalog.clean_tail);
        let mut short = raw[..catalog.header_len].to_vec();
        short.extend_from_slice(b"temp\n");
        be.create(cat).unwrap();
        be.append(cat, &short).unwrap();
        let want_catalog = raw;

        let f = fsck(&be, "sim").unwrap();
        assert_eq!(f.unlisted, vec!["humid"]);
        assert!(!f.is_clean());

        let r = repair(&be, "sim").unwrap();
        assert!(r.is_healthy(), "{r}");
        assert_eq!(r.reattached, vec!["humid"]);
        assert!(r.catalog_rewritten);
        let got = be.read(cat, 0, be.len(cat).unwrap()).unwrap();
        assert_eq!(got, want_catalog, "reattach must restore the exact catalog");
        assert!(fsck(&be, "sim").unwrap().is_clean());
    }

    #[test]
    fn torn_bin_without_replica_is_unrepairable() {
        let be = MemBackend::new();
        build(&be);
        let victim = "sim/temp/bin0001.bin";
        let len = be.len(victim).unwrap();
        let torn = be.read(victim, 0, len - 5).unwrap();
        be.create(victim).unwrap();
        be.append(victim, &torn).unwrap();

        let f = fsck(&be, "sim").unwrap();
        assert!(f
            .findings
            .iter()
            .any(|d| d.file == victim && d.class == FileClass::Torn));
        let r = repair(&be, "sim").unwrap();
        assert!(!r.is_healthy());
        assert_eq!(r.unrepairable, vec![victim.to_string()]);
    }

    #[test]
    fn replica_restores_torn_files() {
        let shards: Vec<Box<dyn StorageBackend>> =
            (0..2).map(|_| Box::new(MemBackend::new()) as _).collect();
        let router = ShardRouter::replicated(shards, 2).unwrap();
        build(&router);
        let clean = snapshot(&router);

        // Tear the primary copy of every temp file directly on its
        // shard (behind the router's back).
        let mut torn_files = Vec::new();
        for (f, bytes) in &clean {
            if !f.starts_with("sim/temp/") {
                continue;
            }
            let primary = router.shard_of(f);
            let shard = router.shard(primary);
            shard.create(f).unwrap();
            shard.append(f, &bytes[..bytes.len() - 3]).unwrap();
            torn_files.push(f.clone());
        }
        assert!(!torn_files.is_empty());

        let r = repair(&router, "sim").unwrap();
        assert!(r.is_healthy(), "{r}");
        // The torn primary fails footer verification, so repair pulls
        // the healthy replica and rewrites through the router, healing
        // every copy.
        assert_eq!(r.restored.len(), torn_files.len(), "{r}");
        for f in &torn_files {
            for k in 0..2 {
                let s = router.replica_shard_of(f, k);
                let raw = router
                    .shard(s)
                    .read(f, 0, router.shard(s).len(f).unwrap())
                    .unwrap();
                let whole = match f.ends_with(".bin") {
                    true => binfile::verified(&raw, f, None, 0),
                    false => ExtentFooter::split_verified(&raw, f).map(drop),
                };
                assert!(
                    whole.is_ok(),
                    "shard {s} copy of {f} still torn after repair"
                );
            }
        }
        assert_eq!(snapshot(&router), clean, "logical bytes unchanged");
    }

    #[test]
    fn lost_catalog_is_reconstructed_from_meta() {
        let be = MemBackend::new();
        build(&be);
        let cat = "sim/catalog";
        let want = be.read(cat, 0, be.len(cat).unwrap()).unwrap();
        be.remove(cat).unwrap();
        assert!(Dataset::open(&be, "sim").is_err());

        let f = fsck(&be, "sim").unwrap();
        assert!(!f.catalog_ok);
        let r = repair(&be, "sim").unwrap();
        assert!(r.is_healthy(), "{r}");
        assert!(r.catalog_rewritten);
        let got = be.read(cat, 0, be.len(cat).unwrap()).unwrap();
        // Same header; lines are the committed vars (sorted, since
        // original order is unrecoverable).
        assert_eq!(parse_catalog(&got).unwrap().vars, vec!["humid", "temp"]);
        assert_eq!(got[..want.len() - 11], want[..want.len() - 11]);
        assert!(Dataset::open(&be, "sim").is_ok());
    }

    fn put(be: &dyn StorageBackend, file: &str, raw: &[u8]) {
        be.create(file).unwrap();
        be.append(file, raw).unwrap();
    }

    /// Files the layout of a committed variable does not name — a stray
    /// name, a copy of a bin file numbered past the bin count — are
    /// orphans: fsck flags them, repair removes them, and the healthy
    /// repair leaves fsck clean.
    #[test]
    fn repair_removes_the_orphans_of_a_committed_variable() {
        let be = MemBackend::new();
        build(&be);
        let before = snapshot(&be);
        put(&be, "sim/temp/junk", b"junk");
        let bin = be.read(
            "sim/temp/bin0001.bin",
            0,
            be.len("sim/temp/bin0001.bin").unwrap(),
        );
        put(&be, "sim/temp/bin0009.bin", &bin.unwrap());

        let f = fsck(&be, "sim").unwrap();
        assert!(!f.is_clean(), "{f}");
        let orphans: Vec<(&str, FileClass)> = (f.findings.iter())
            .map(|d| (d.file.as_str(), d.class))
            .collect();
        assert_eq!(
            orphans,
            [
                ("sim/temp/junk", FileClass::Orphaned),
                ("sim/temp/bin0009.bin", FileClass::Orphaned)
            ],
            "{f}"
        );
        assert_eq!(f.committed, vec!["humid", "temp"]);

        let r = repair(&be, "sim").unwrap();
        assert!(r.is_healthy(), "{r}");
        assert_eq!(r.removed_files, 2, "{r}");
        assert!(r.rolled_back.is_empty() && !r.catalog_rewritten, "{r}");
        assert!(fsck(&be, "sim").unwrap().is_clean());
        assert!(verify_dataset(&be, "sim").unwrap().is_clean());
        assert_eq!(snapshot(&be), before);
    }

    /// A flat directory store keeps '/' as "__", so it lists the files
    /// of a variable named `t_` — which builds now refuse, but an older
    /// store may hold — under `t`'s directory, as `sim/t/_meta`. They
    /// are no strays of `t`: with both committed, fsck is clean and
    /// repair removes nothing.
    #[test]
    fn a_flat_directory_alias_is_no_stray() {
        let root = std::env::temp_dir().join(format!("mloc-alias-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let be = mloc_pfs::DirBackend::uncached(&root).unwrap();
        let ds = Dataset::create(&be, "sim", config()).unwrap();
        ds.add_variable("t", &values(1)).unwrap();
        assert!(ds.add_variable("t_", &values(2)).is_err());
        crate::build::build_variable(&be, "sim", "t_", &values(2), &config()).unwrap();
        be.append("sim/catalog", b"t_\n").unwrap();
        assert!(be.list().contains(&"sim/t/_meta".to_string()));
        let before = snapshot(&be);

        let f = fsck(&be, "sim").unwrap();
        assert!(f.is_clean(), "{f}");
        assert_eq!(f.committed, vec!["t", "t_"]);
        assert_eq!(f.files_checked, before.len(), "{f}");
        assert!(verify_dataset(&be, "sim").unwrap().is_clean());
        let r = repair(&be, "sim").unwrap();
        assert!(r.is_healthy(), "{r}");
        assert_eq!(r.removed_files, 0, "{r}");
        assert!(r.rolled_back.is_empty() && !r.catalog_rewritten, "{r}");
        assert_eq!(snapshot(&be), before);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// `raw`, a whole meta, with its payload edited by `edit` and its
    /// footer computed again: every checksum holds.
    fn resealed(raw: &[u8], edit: impl Fn(&mut Vec<u8>)) -> Vec<u8> {
        let mut payload = ExtentFooter::split_verified(raw, "meta").unwrap().to_vec();
        edit(&mut payload);
        let footer = ExtentFooter::compute(&payload, &[payload.len() as u32]);
        payload.extend_from_slice(&footer.encode());
        payload
    }

    /// A meta whose footer holds but whose payload does not decode — one
    /// bin bound too many, or a version this build does not know — is
    /// torn, as `MlocStore::open` finds it: fsck names it, repair
    /// restores it from a replica copy that decodes, and without one
    /// reports it unrepairable.
    #[test]
    fn a_sealed_meta_that_does_not_decode_is_torn() {
        let meta = "sim/temp/meta";
        let edits: [fn(&mut Vec<u8>); 2] = [
            |payload| {
                let mut m = VariableMeta::decode(payload).unwrap();
                m.bin_bounds.push(1e9);
                *payload = m.encode();
            },
            |payload| payload[4] = 9,
        ];
        for edit in edits {
            let be = MemBackend::new();
            build(&be);
            let raw = be.read(meta, 0, be.len(meta).unwrap()).unwrap();
            put(&be, meta, &resealed(&raw, edit));
            assert!(crate::store::MlocStore::open(&be, "sim", "temp").is_err());

            let f = fsck(&be, "sim").unwrap();
            assert!(!f.is_clean(), "{f}");
            let torn = |d: &FileFinding| d.file == meta && d.class == FileClass::Torn;
            assert!(f.findings.iter().any(torn), "{f}");
            let r = repair(&be, "sim").unwrap();
            assert_eq!(r.unrepairable, vec![meta.to_string()], "{r}");

            let shards: Vec<Box<dyn StorageBackend>> =
                (0..2).map(|_| Box::new(MemBackend::new()) as _).collect();
            let router = ShardRouter::replicated(shards, 2).unwrap();
            build(&router);
            let clean = snapshot(&router);
            put(
                router.shard(router.shard_of(meta)),
                meta,
                &resealed(&raw, edit),
            );
            let r = repair(&router, "sim").unwrap();
            assert!(r.is_healthy(), "{r}");
            assert_eq!(r.restored, vec![meta.to_string()], "{r}");
            assert!(fsck(&router, "sim").unwrap().is_clean());
            assert_eq!(snapshot(&router), clean);
        }
    }

    /// A memory store that counts every `read` and the bytes it
    /// returns, per file.
    #[derive(Default)]
    struct Counting {
        inner: MemBackend,
        reads: parking_lot::Mutex<BTreeMap<String, (usize, u64)>>,
    }

    impl Counting {
        /// The reads since the last call, per file: (calls, bytes).
        fn take(&self) -> BTreeMap<String, (usize, u64)> {
            std::mem::take(&mut *self.reads.lock())
        }
    }

    impl StorageBackend for Counting {
        fn create(&self, name: &str) -> std::result::Result<(), mloc_pfs::PfsError> {
            self.inner.create(name)
        }
        fn append(&self, name: &str, data: &[u8]) -> std::result::Result<u64, mloc_pfs::PfsError> {
            self.inner.append(name, data)
        }
        fn read(
            &self,
            name: &str,
            offset: u64,
            len: u64,
        ) -> std::result::Result<Vec<u8>, mloc_pfs::PfsError> {
            let got = self.inner.read(name, offset, len)?;
            let mut reads = self.reads.lock();
            let entry = reads.entry(name.to_string()).or_default();
            *entry = (entry.0 + 1, entry.1 + got.len() as u64);
            Ok(got)
        }
        fn remove(&self, name: &str) -> std::result::Result<(), mloc_pfs::PfsError> {
            self.inner.remove(name)
        }
        fn len(&self, name: &str) -> std::result::Result<u64, mloc_pfs::PfsError> {
            self.inner.len(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
        fn list(&self) -> Vec<String> {
            self.inner.list()
        }
    }

    /// On a clean single-copy store, `fsck`, `verify_dataset` and
    /// `repair` each read every file of the dataset once, whole, and
    /// nothing else; `verify_variable` reads its variable's files once
    /// and the catalog at most once.
    #[test]
    fn each_checker_reads_a_clean_store_once() {
        let be = Counting::default();
        let config = MlocConfig::builder(vec![64, 64])
            .chunk_shape(vec![16, 16])
            .num_bins(8)
            .build();
        let ds = Dataset::create(&be, "sim", config).unwrap();
        for (var, seed) in [("a", 3), ("b", 4)] {
            let field = mloc_datagen::gts_like_2d(64, 64, seed);
            ds.add_variable(var, field.values()).unwrap();
        }
        let stored: BTreeMap<String, (usize, u64)> = be
            .list()
            .into_iter()
            .map(|f| {
                let len = be.len(&f).unwrap();
                (f, (1, len))
            })
            .collect();
        assert_eq!(stored.len(), 19, "catalog, 2 metas, 16 bin files");
        be.take();

        assert!(fsck(&be, "sim").unwrap().is_clean());
        assert_eq!(be.take(), stored, "fsck");
        assert!(crate::verify::verify_dataset(&be, "sim")
            .unwrap()
            .is_clean());
        assert_eq!(be.take(), stored, "verify_dataset");
        assert!(repair(&be, "sim").unwrap().is_healthy());
        assert_eq!(be.take(), stored, "repair");

        assert!(crate::verify::verify_variable(&be, "sim", "a")
            .unwrap()
            .is_clean());
        let mut want = stored.clone();
        want.retain(|f, _| f.starts_with("sim/a/"));
        let mut got = be.take();
        if let Some(catalog) = got.remove("sim/catalog") {
            assert_eq!(catalog, stored["sim/catalog"], "verify_variable");
        }
        assert_eq!(got, want, "verify_variable");
    }
}
