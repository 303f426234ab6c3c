//! One pass over a dataset: what `verify`, `fsck` and `repair` judge it
//! by. It lists the dataset once and reads each file once — the
//! catalog, then per variable its meta and each bin file — judging each
//! by the one rule of its kind:
//!
//! * a **meta** is whole when [`VariableMeta::from_file`] accepts it, as
//!   [`crate::MlocStore::open`] does;
//! * a **bin file** is whole when [`crate::binfile::check`] finds no
//!   damage, held to the variable's layout: its meta's, else the
//!   catalog's. The layout numbers the bin files `0..num_bins`; one
//!   numbered past them, like any name it never writes, is an orphan,
//!   listed and not read;
//! * a file of a format before v7 fails the scan with
//!   [`MlocError::NeedsUpgrade`], by the rules a build is held to
//!   (`upgrade::refuse_old`).
//!
//! A listed name whose base below the variable directory begins with
//! `_` or holds `/` is left alone: it is how `DirBackend` (`/` kept as
//! `__`) lists a file of `t_` or `t__x` under `t`, no stray of `t`. Such
//! a variable is read by the name its catalog gives.
//!
//! Damage is labelled as `verify` reports it while the bytes are at
//! hand; a scan keeps verdicts, not files.

use crate::binfile::Layout;
use crate::config::MlocConfig;
use crate::dataset::{parse_catalog, Catalog};
use crate::fileorg::{self, read_file, VarFile};
use crate::store::VariableMeta;
use crate::upgrade::{needed, old_bin, old_name};
use crate::verify::{self, ExtentDamage};
use crate::{MlocError, Result};
use mloc_pfs::{PfsError, StorageBackend};
use std::collections::{BTreeMap, BTreeSet};

/// A dataset as one scan found it.
pub(crate) struct Scan {
    /// The catalog's bytes and what they parse to, or why they could
    /// not be read.
    pub catalog: std::result::Result<(Vec<u8>, Result<Catalog>), PfsError>,
    /// Every variable the listing or the catalog names.
    pub vars: BTreeMap<String, VarScan>,
}

/// What the listing holds under a variable's directory besides its
/// meta, which is read whether listed or not.
#[derive(Default)]
struct Listed {
    bins: BTreeSet<usize>,
    strays: Vec<String>,
}

/// One variable's files.
pub(crate) struct VarScan {
    /// Its meta.
    pub meta: FileScan,
    /// The meta's build configuration, when the meta is whole.
    pub config: Option<MlocConfig>,
    /// The layout its bin files are held to.
    pub layout: Option<Layout>,
    /// Each bin file the layout numbers, present or not — with no
    /// layout, each one listed.
    pub bins: Vec<(usize, FileScan)>,
    /// Listed files the layout does not name.
    pub orphans: Vec<String>,
}

impl VarScan {
    /// Every file of the variable the store holds.
    pub fn files(&self) -> impl Iterator<Item = &str> {
        let scanned = std::iter::once(&self.meta).chain(self.bins.iter().map(|(_, f)| f));
        (scanned.filter(|f| f.present).map(|f| f.file.as_str()))
            .chain(self.orphans.iter().map(String::as_str))
    }
}

/// One file as the scan judged it.
pub(crate) struct FileScan {
    /// The file.
    pub file: String,
    /// False when the store has no such file.
    pub present: bool,
    /// Extents whose checksum was recomputed.
    pub extents: u64,
    /// Everything wrong with it, labelled: empty when it is whole.
    pub damage: Vec<ExtentDamage>,
}

impl FileScan {
    /// A file that was read: `extents` checked, `damage` found.
    fn read(file: String, extents: u64, damage: Vec<ExtentDamage>) -> FileScan {
        FileScan {
            file,
            present: true,
            extents,
            damage,
        }
    }

    /// A file whose read failed with `e`.
    fn unread(file: String, e: &PfsError) -> FileScan {
        let damage = vec![ExtentDamage::whole(&file, format!("file unreadable: {e}"))];
        let present = !matches!(e, PfsError::NotFound(_));
        FileScan {
            present,
            ..FileScan::read(file, 0, damage)
        }
    }
}

/// Scan dataset `ds`, or only its variable `only`. Fails, with the
/// error naming `mloc upgrade`, at the first file of a format before
/// v7.
pub(crate) fn scan(backend: &dyn StorageBackend, ds: &str, only: Option<&str>) -> Result<Scan> {
    let catalog = read_file(backend, &fileorg::catalog_file(ds)).map(|raw| {
        let parsed = parse_catalog(&raw);
        (raw, parsed)
    });
    let mut listed: BTreeMap<String, Listed> = BTreeMap::new();
    for f in backend.list() {
        let Some((var, role)) = fileorg::var_file(ds, &f) else {
            continue;
        };
        let base = &f[ds.len() + var.len() + 2..];
        if only.is_some_and(|only| only != var) || base.starts_with('_') || base.contains('/') {
            continue;
        }
        let entry = listed.entry(var.to_string()).or_default();
        match role {
            VarFile::Meta => {}
            VarFile::Bin(bin) => drop(entry.bins.insert(bin)),
            VarFile::Stray => match old_name(&f) {
                Some(version) => return Err(needed(&f, version)),
                None => entry.strays.push(f),
            },
        }
    }
    let parsed = catalog.as_ref().ok().and_then(|(_, c)| c.as_ref().ok());
    let named = only.map(|var| vec![var.to_string()]);
    for var in named
        .or_else(|| parsed.map(|c| c.vars.clone()))
        .unwrap_or_default()
    {
        listed.entry(var).or_default();
    }
    let config = parsed.map(|c| &c.config);
    let vars = (listed.into_iter())
        .map(|(var, files)| Ok((var.clone(), judge(backend, ds, &var, files, config)?)))
        .collect::<Result<_>>()?;
    Ok(Scan { catalog, vars })
}

/// Judge variable `var` of dataset `ds`, whose directory holds
/// `listed`: its meta, then each bin file, held to the layout of its
/// meta or else of `catalog`, the dataset's configuration.
fn judge(
    backend: &dyn StorageBackend,
    ds: &str,
    var: &str,
    listed: Listed,
    catalog: Option<&MlocConfig>,
) -> Result<VarScan> {
    let file = fileorg::meta_file(ds, var);
    let (mut meta, decoded) = match read_file(backend, &file) {
        Err(e) => (FileScan::unread(file, &e), None),
        Ok(raw) => match VariableMeta::from_file(&raw, &file) {
            Err(e @ MlocError::NeedsUpgrade { .. }) => return Err(e),
            decoded => {
                let damage = decoded.as_ref().err().map(|e| verify::damage(&file, e));
                (
                    FileScan::read(file, 1, damage.into_iter().collect()),
                    decoded.ok(),
                )
            }
        },
    };
    verify::label_meta(&mut meta.damage);
    let config = decoded.as_ref().map(|m| m.config.clone());
    let layout = match decoded {
        Some(m) => Some(Layout::of(&m.config).with_summaries(m.summaries)),
        None => catalog.map(Layout::of),
    };
    let numbered: BTreeSet<usize> = match config.as_ref().or(catalog) {
        Some(c) => (0..c.num_bins).collect(),
        None => listed.bins.clone(),
    };
    let past = listed.bins.difference(&numbered);
    let orphans = (listed.strays.iter().cloned())
        .chain(past.map(|&bin| fileorg::bin_file(ds, var, bin)))
        .collect();
    let mut bins = Vec::with_capacity(numbered.len());
    for bin in numbered {
        let file = fileorg::bin_file(ds, var, bin);
        let scanned = match read_file(backend, &file) {
            Err(e) => FileScan::unread(file, &e),
            Ok(raw) => {
                if let Some(version) = old_bin(&raw).filter(|_| config.is_none()) {
                    return Err(needed(&file, version));
                }
                let (extents, damage) = verify::bin_damage(&raw, &file, bin, layout.as_ref());
                FileScan::read(file, extents, damage)
            }
        };
        bins.push((bin, scanned));
    }
    Ok(VarScan {
        meta,
        config,
        layout,
        bins,
        orphans,
    })
}
