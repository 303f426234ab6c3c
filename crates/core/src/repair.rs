//! Crash recovery (`mloc fsck` / `mloc repair`).
//!
//! A build writes in a strict durability order — every bin file is
//! written and synced (one create, one append, one sync) before the
//! variable's meta file, and the meta is synced before the catalog line
//! that registers the variable. The meta is the build's commit record:
//! a verifying meta means every bin file it names was synced first. A
//! file is whole when every checksum in it holds and its commit marker
//! is where a complete write leaves it — a bin file's end marker, the
//! meta's tail footer. That ordering makes every crash state
//! classifiable from the store alone:
//!
//! * **committed** — the catalog lists the variable and its meta
//!   verifies; bin files are expected to verify too.
//! * **unlisted** — the meta verifies but the crash hit between the
//!   meta sync and the catalog append. The data is complete; repair
//!   reattaches the catalog line.
//! * **uncommitted** — the meta is absent or torn and the catalog
//!   never listed the variable. The bin files are build debris
//!   (*orphaned*); repair rolls them back so the build can rerun.
//! * **torn / missing** — a file of a committed variable fails
//!   verification (or is gone). Repair rewrites it from the first
//!   replica holding a verifying copy; without one, the damage is
//!   reported, never silently served.
//!
//! [`fsck`] only classifies; [`repair`] additionally restores, rolls
//! back, and reconciles the catalog. Both work through any
//! [`StorageBackend`]; replica restore is a no-op on unreplicated
//! stores (no `replica_access()`, or one replica: the only copy is
//! re-checked and nothing else can be tried). A store of the formats
//! before v7 is refused whole, untouched: `mloc upgrade` copies it out.

use crate::binfile::{self, Layout};
use crate::config::MlocConfig;
use crate::dataset::{catalog_header, parse_catalog};
use crate::fileorg::{self, read_file, VarFile};
use crate::integrity::ExtentFooter;
use crate::store::VariableMeta;
use crate::Result;
use mloc_pfs::StorageBackend;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How one file came through the crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Footer verifies: the write committed.
    Committed,
    /// Present but fails footer verification (torn write or
    /// corruption).
    Torn,
    /// Expected for a committed variable but absent.
    Missing,
    /// Debris of an uncommitted build (no verifying meta, no catalog
    /// entry).
    Orphaned,
}

impl fmt::Display for FileClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FileClass::Committed => "committed",
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
    /// Variables listed in the catalog whose meta verifies.
    pub committed: Vec<String>,
    /// Variables with a verifying meta that the catalog does not list
    /// (crash between meta sync and catalog append).
    pub unlisted: Vec<String>,
    /// Variables with no verifying meta and no catalog entry
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
    /// Files rewritten from a verifying replica copy.
    pub restored: Vec<String>,
    /// Uncommitted variables whose debris was removed.
    pub rolled_back: Vec<String>,
    /// Files removed by rollback.
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

/// How a whole stored file is checked.
#[derive(Debug, Clone, Copy)]
enum Whole<'a> {
    /// Bin file `.1`: its front tables — sized by the bin's summaries
    /// when the variable's meta gives them, else found by their own
    /// checksums — every extent, its end marker, and, held to the
    /// variable's layout (from its meta or the catalog), its header's
    /// geometry and its run lists.
    BinFile(Option<&'a Layout>, usize),
    /// The meta: its tail footer and every extent.
    TailFooter,
}

impl Whole<'_> {
    /// Whether `raw`, all of `file`, is whole.
    fn check(self, raw: &[u8], file: &str) -> Result<()> {
        match self {
            Whole::BinFile(layout, bin) => binfile::verified(raw, file, layout, bin),
            Whole::TailFooter => ExtentFooter::split_verified(raw, file).map(drop),
        }
    }
}

/// Whether the file exists and is whole.
fn verifies(
    backend: &dyn StorageBackend,
    file: &str,
    how: Whole,
) -> std::result::Result<(), String> {
    match read_file(backend, file) {
        Err(_) => Err("unreadable".to_string()),
        Ok(raw) => how.check(&raw, file).map_err(|e| e.to_string()),
    }
}

/// A variable's meta, when its file reads, verifies and decodes.
fn read_meta(backend: &dyn StorageBackend, ds: &str, var: &str) -> Option<VariableMeta> {
    let name = fileorg::meta_file(ds, var);
    VariableMeta::from_file(&read_file(backend, &name).ok()?, &name).ok()
}

/// Every physical copy of `file`, read *directly* in placement order
/// (`None` = that copy is unreadable). The router's own read path
/// falls through to a healthy replica on error, so it cannot show one
/// copy's state; a store without replica access has the one copy
/// `read` serves.
fn physical_copies<'a>(
    backend: &'a dyn StorageBackend,
    file: &'a str,
) -> impl Iterator<Item = Option<Vec<u8>>> + 'a {
    let replicas = backend.replica_access();
    (0..replicas.map_or(1, |r| r.replica_count())).map(move |k| match replicas {
        Some(r) => {
            let len = r.len_replica(file, k).ok()?;
            r.read_replica(file, k, 0, len).ok()
        }
        None => read_file(backend, file).ok(),
    })
}

/// The first copy of `file` that passes `check`, as raw bytes.
fn replica_passing(
    backend: &dyn StorageBackend,
    file: &str,
    check: impl Fn(&[u8]) -> bool,
) -> Option<Vec<u8>> {
    physical_copies(backend, file)
        .flatten()
        .find(|raw| check(raw))
}

/// Whether the store keeps more than one copy of each file.
fn is_replicated(backend: &dyn StorageBackend) -> bool {
    backend
        .replica_access()
        .is_some_and(|r| r.replica_count() > 1)
}

/// Whether every copy of `file` passes `check`. A file can verify
/// through `read` while one of its copies is missing — this is how
/// repair notices the degraded redundancy the fall-through masks.
fn all_replicas_pass(
    backend: &dyn StorageBackend,
    file: &str,
    check: impl Fn(&[u8]) -> bool,
) -> bool {
    physical_copies(backend, file).all(|copy| copy.is_some_and(|raw| check(&raw)))
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

/// Per-variable file inventory scraped from the backend listing.
#[derive(Default)]
struct VarFiles {
    has_meta: bool,
    /// bin number -> its file.
    bins: BTreeMap<usize, String>,
    /// Files under the variable's directory that match no known
    /// layout name.
    strays: Vec<String>,
}

/// Scrape `{ds}/{var}/…` files into per-variable inventories.
fn inventory(backend: &dyn StorageBackend, ds: &str) -> BTreeMap<String, VarFiles> {
    let mut vars: BTreeMap<String, VarFiles> = BTreeMap::new();
    for f in backend.list() {
        let Some((var, role)) = fileorg::var_file(ds, &f) else {
            continue;
        };
        let entry = vars.entry(var.to_string()).or_default();
        match role {
            VarFile::Meta => entry.has_meta = true,
            VarFile::Bin(bin) => {
                entry.bins.insert(bin, f.clone());
            }
            VarFile::Stray => entry.strays.push(f.clone()),
        }
    }
    vars
}

/// Classify every file of dataset `ds` without modifying anything.
pub fn fsck(backend: &dyn StorageBackend, ds: &str) -> Result<FsckReport> {
    crate::upgrade::refuse_old(backend, ds)?;
    let mut report = FsckReport {
        dataset: ds.to_string(),
        ..Default::default()
    };

    // Catalog: header + body readable?
    let catalog_file = fileorg::catalog_file(ds);
    let mut catalog_vars: BTreeSet<String> = BTreeSet::new();
    let mut catalog_config: Option<MlocConfig> = None;
    if let Ok(raw) = read_file(backend, &catalog_file) {
        report.files_checked += 1;
        match parse_catalog(&raw) {
            Ok(catalog) => {
                report.catalog_ok = true;
                catalog_vars = catalog.vars.into_iter().collect();
                catalog_config = Some(catalog.config);
                if !catalog.clean_tail {
                    report.findings.push(FileFinding {
                        file: catalog_file.clone(),
                        class: FileClass::Torn,
                        what: "unterminated trailing registration line".to_string(),
                    });
                }
            }
            Err(e) => report.findings.push(FileFinding {
                file: catalog_file.clone(),
                class: FileClass::Torn,
                what: e.to_string(),
            }),
        }
    } else {
        report.findings.push(FileFinding {
            file: catalog_file.clone(),
            class: FileClass::Missing,
            what: "catalog unreadable".to_string(),
        });
    }

    let vars = inventory(backend, ds);

    // A catalog-listed variable with no files at all is still damage.
    let mut all_vars: BTreeSet<String> = vars.keys().cloned().collect();
    all_vars.extend(catalog_vars.iter().cloned());

    for var in all_vars {
        let files = vars.get(&var);
        let meta_name = fileorg::meta_file(ds, &var);
        let meta_state = if files.is_some_and(|f| f.has_meta) {
            report.files_checked += 1;
            verifies(backend, &meta_name, Whole::TailFooter)
        } else {
            Err("absent".to_string())
        };
        let listed = catalog_vars.contains(&var);
        let committed = meta_state.is_ok();
        // The variable's bin count and bin geometry: from its own meta
        // when it verifies, else the shared catalog config.
        let meta = committed.then(|| read_meta(backend, ds, &var)).flatten();
        let config = meta.as_ref().map(|m| &m.config).or(catalog_config.as_ref());
        let expect_bins = config.map(|c| c.num_bins);
        let layout = match meta {
            Some(meta) => Some(Layout::of(&meta.config).with_summaries(meta.summaries)),
            None => config.map(Layout::of),
        };

        match (meta_state.as_ref().err(), listed) {
            (None, true) => report.committed.push(var.clone()),
            (None, false) => report.unlisted.push(var.clone()),
            (Some(why), true) => {
                // Listed but broken meta: committed data with damage.
                report.committed.push(var.clone());
                report.findings.push(FileFinding {
                    file: meta_name.clone(),
                    class: if files.is_some_and(|f| f.has_meta) {
                        FileClass::Torn
                    } else {
                        FileClass::Missing
                    },
                    what: why.clone(),
                });
            }
            (Some(why), false) => {
                report.uncommitted.push(var.clone());
                if files.is_some_and(|f| f.has_meta) {
                    report.findings.push(FileFinding {
                        file: meta_name.clone(),
                        class: FileClass::Orphaned,
                        what: format!("uncommitted build: meta {why}"),
                    });
                }
            }
        }
        let debris = !committed && !listed;

        // Bin files: verify the ones present; for committed variables
        // also demand the full expected set.
        let mut bins: BTreeSet<usize> = files
            .map(|f| f.bins.keys().copied().collect())
            .unwrap_or_default();
        if !debris {
            bins.extend(0..expect_bins.unwrap_or(0));
        }
        for bin in bins {
            let Some(file) = files.and_then(|f| f.bins.get(&bin)).cloned() else {
                report.findings.push(FileFinding {
                    file: fileorg::bin_file(ds, &var, bin),
                    class: FileClass::Missing,
                    what: "expected by committed variable".to_string(),
                });
                continue;
            };
            report.files_checked += 1;
            match verifies(backend, &file, Whole::BinFile(layout.as_ref(), bin)) {
                Ok(()) if debris => report.findings.push(FileFinding {
                    file,
                    class: FileClass::Orphaned,
                    what: "uncommitted build debris".to_string(),
                }),
                Ok(()) => {}
                Err(e) => report.findings.push(FileFinding {
                    file,
                    class: if debris {
                        FileClass::Orphaned
                    } else {
                        FileClass::Torn
                    },
                    what: e,
                }),
            }
        }
        for stray in files.map(|f| f.strays.as_slice()).unwrap_or_default() {
            report.findings.push(FileFinding {
                file: stray.clone(),
                class: FileClass::Orphaned,
                what: "not part of the layout".to_string(),
            });
        }
    }
    Ok(report)
}

/// Remove every stored file of a variable (rollback of an uncommitted
/// build). Missing files are fine; other removal errors abort.
fn remove_var(
    backend: &dyn StorageBackend,
    ds: &str,
    var: &str,
    files: &VarFiles,
) -> Result<usize> {
    let mut removed = 0usize;
    let mut names = Vec::new();
    if files.has_meta {
        names.push(fileorg::meta_file(ds, var));
    }
    names.extend(files.bins.values().cloned());
    names.extend(files.strays.iter().cloned());
    for name in names {
        match backend.remove(&name) {
            Ok(()) => removed += 1,
            Err(mloc_pfs::PfsError::NotFound(_)) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(removed)
}

/// Repair dataset `ds` in place: restore torn/missing files from
/// replicas, roll back uncommitted builds, and reconcile the catalog
/// with the set of committed variables. Returns what changed; damage
/// with no healthy replica is reported in
/// [`RepairReport::unrepairable`], never silently dropped.
pub fn repair(backend: &dyn StorageBackend, ds: &str) -> Result<RepairReport> {
    let mut report = RepairReport {
        fsck: fsck(backend, ds)?,
        ..Default::default()
    };
    let catalog_file = fileorg::catalog_file(ds);

    // 1. The catalog itself: if the primary copy does not parse, any
    //    replica copy that does can rewrite it.
    let mut catalog_raw = read_file(backend, &catalog_file).ok();
    if catalog_raw
        .as_deref()
        .is_none_or(|r| parse_catalog(r).is_err())
    {
        if let Some(raw) = replica_passing(backend, &catalog_file, |r| parse_catalog(r).is_ok()) {
            rewrite(backend, &catalog_file, &raw)?;
            report.restored.push(catalog_file.clone());
            catalog_raw = Some(raw);
        }
    }

    // 2. Metas: every damaged meta gets a replica-restore attempt
    //    before we decide a variable's fate.
    let vars = inventory(backend, ds);
    let meta_is_good = |raw: &[u8], name: &str| VariableMeta::from_file(raw, name).is_ok();
    let mut committed: BTreeSet<String> = BTreeSet::new();
    let mut rollback: Vec<String> = Vec::new();
    let catalog_vars: Vec<String> = catalog_raw
        .as_deref()
        .and_then(|r| parse_catalog(r).ok())
        .map(|c| c.vars)
        .unwrap_or_default();
    let listed: BTreeSet<String> = catalog_vars.iter().cloned().collect();
    let mut all_vars: BTreeSet<String> = vars.keys().cloned().collect();
    all_vars.extend(listed.iter().cloned());
    for var in &all_vars {
        let meta_name = fileorg::meta_file(ds, var);
        if verifies(backend, &meta_name, Whole::TailFooter).is_ok() {
            committed.insert(var.clone());
            // The logical bytes are fine, but a replica copy may be
            // missing or torn behind the read path's fall-through:
            // rewrite fans out and heals every copy.
            if is_replicated(backend)
                && !all_replicas_pass(backend, &meta_name, |r| meta_is_good(r, &meta_name))
            {
                if let Ok(raw) = read_file(backend, &meta_name) {
                    rewrite(backend, &meta_name, &raw)?;
                    report.restored.push(meta_name);
                }
            }
            continue;
        }
        if let Some(raw) = replica_passing(backend, &meta_name, |r| meta_is_good(r, &meta_name)) {
            rewrite(backend, &meta_name, &raw)?;
            report.restored.push(meta_name);
            committed.insert(var.clone());
        } else if listed.contains(var) {
            // Registered data we cannot recover: loud loss, no
            // rollback of a committed variable.
            report.unrepairable.push(meta_name);
        } else {
            rollback.push(var.clone());
        }
    }

    // 3. Roll back uncommitted builds so they can rerun cleanly.
    for var in rollback {
        if let Some(files) = vars.get(&var) {
            report.removed_files += remove_var(backend, ds, &var, files)?;
        }
        report.rolled_back.push(var);
    }

    // 4. Bin files of committed variables: restore torn/missing ones
    //    from the first verifying replica.
    for var in &committed {
        let Some(meta) = read_meta(backend, ds, var) else {
            continue;
        };
        let layout = Layout::of(&meta.config).with_summaries(meta.summaries);
        for bin in 0..meta.config.num_bins {
            let how = Whole::BinFile(Some(&layout), bin);
            let file = fileorg::bin_file(ds, var, bin);
            let whole = |raw: &[u8]| how.check(raw, &file).is_ok();
            if verifies(backend, &file, how).is_ok() {
                if is_replicated(backend) && !all_replicas_pass(backend, &file, whole) {
                    if let Ok(raw) = read_file(backend, &file) {
                        rewrite(backend, &file, &raw)?;
                        report.restored.push(file);
                    }
                }
                continue;
            }
            if let Some(raw) = replica_passing(backend, &file, whole) {
                rewrite(backend, &file, &raw)?;
                report.restored.push(file);
            } else {
                report.unrepairable.push(file);
            }
        }
    }

    // 5. Catalog reconciliation: the catalog must list exactly the
    //    committed variables. Order: surviving lines first (original
    //    order), then reattached variables sorted.
    let desired: Vec<String> = {
        let mut lines: Vec<String> = catalog_vars
            .iter()
            .filter(|v| committed.contains(*v))
            .cloned()
            .collect();
        for var in &committed {
            if !lines.contains(var) {
                lines.push(var.clone());
                report.reattached.push(var.clone());
            }
        }
        lines
    };
    let header = match catalog_raw.as_deref().map(|raw| (raw, parse_catalog(raw))) {
        // A torn trailing registration line must be truncated even when
        // the committed variable set already matches — a later append
        // would otherwise splice onto the debris.
        Some((_, Ok(catalog))) if catalog.vars == desired && catalog.clean_tail => None,
        Some((raw, Ok(catalog))) => Some(raw[..catalog.header_len].to_vec()),
        // No readable catalog on any replica. Reconstruct the header
        // from a committed variable's meta (it embeds the shared build
        // config); with no variables either, there is nothing to
        // reconstruct from.
        _ => match committed.iter().find_map(|var| read_meta(backend, ds, var)) {
            Some(meta) => Some(catalog_header(&meta.config)),
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
    // The catalog's replica copies: reconciliation rewrites fan out,
    // but an untouched catalog can still hide a lost copy behind the
    // read fall-through.
    if !report.catalog_rewritten
        && is_replicated(backend)
        && read_file(backend, &catalog_file).is_ok_and(|r| parse_catalog(&r).is_ok())
        && !all_replicas_pass(backend, &catalog_file, |r| parse_catalog(r).is_ok())
    {
        if let Ok(raw) = read_file(backend, &catalog_file) {
            rewrite(backend, &catalog_file, &raw)?;
            report.restored.push(catalog_file);
        }
    }
    report.reattached.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MlocConfig;
    use crate::dataset::Dataset;
    use mloc_pfs::{MemBackend, ReplicaAccess, ShardRouter};

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
}
