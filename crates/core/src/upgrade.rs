//! `mloc upgrade`: copy a store of the formats before v4 out as v4.
//!
//! Formats v1 and v2 kept each bin in two files, each ending in a tail
//! checksum footer: an index file (`binNNNN.idx`: the header and
//! directory, v2's chunk summaries, the bitmaps) and a data file
//! (`binNNNN.dat`: the units). Their meta has version 2. Format v3 kept
//! each bin in one file laid out as v4's ([`crate::binfile`]), but for
//! its bitmaps: a WAH stream and its rank/select directory each, where
//! v4 stores the chunk's run list. Its meta has version 3. Nothing else
//! in this crate reads these formats: every other reader, and every
//! build into such a dataset, refuses it with
//! [`MlocError::NeedsUpgrade`], before reading or changing anything.
//!
//! An upgrade reads the old store, never writing to it, and writes the
//! dataset, under the same name, into another backend: the catalog
//! header, then per variable the catalog lists:
//!
//! 1. every old file is verified whole, so damage fails the upgrade
//!    with the damaged extent named before anything of the variable is
//!    written;
//! 2. each bin file is rebuilt by [`BinFileBuilder`]: each chunk's WAH
//!    extent is decoded into its run list
//!    ([`mloc_bitmap::RunListBuf::push_wah`]) and held to its directory
//!    entry, as a query holds a bitmap it reads, and the units are
//!    copied verbatim — no codec re-encodes, so a lossy one loses
//!    nothing more. The builder derives v1's missing summaries from the
//!    runs;
//! 3. the files are committed through the build's own write stage
//!    ([`write_variable`]: bin files synced, then the meta), then the
//!    variable is registered in the catalog.
//!
//! So the new store is byte for byte what a build of the same field
//! writes, and its crash states are a build's, which `fsck` and `repair`
//! already classify. A variable already in v4 (one whose files were
//! copied into an old dataset) is copied after the same whole-file
//! check. The old store is left as it was: remove it once `verify`
//! passes on the new one.

use crate::binfile::{self, BinFileBuilder, Layout};
use crate::build::write_variable;
use crate::dataset::{parse_catalog, register, Dataset};
use crate::fileorg::{self, read_file, VarFile};
use crate::index::{self, header_size, summary_size, HeaderView, UnitLoc};
use crate::integrity::ExtentFooter;
use crate::store::{self, VariableMeta};
use crate::{MlocError, Result};
use mloc_bitmap::RunListBuf;
use mloc_pfs::StorageBackend;
use std::collections::BTreeSet;

/// What an upgrade wrote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpgradeReport {
    /// The variables committed, in catalog order.
    pub variables: Vec<String>,
    /// Bin files written.
    pub bin_files: usize,
}

/// The error every reader but the upgrade gives a file of the formats
/// before v4.
pub(crate) fn needed(file: &str) -> MlocError {
    MlocError::NeedsUpgrade {
        file: file.to_string(),
    }
}

/// The bin-file header version of format v3, the one-file format
/// before v4.
const V3: u8 = 3;

/// Refuse dataset `ds` when any file of it is of the formats before v4
/// — a meta of an older version, a bin's index or data file, or, for a
/// variable with no current meta to say so, a bin file whose header
/// says v3 — so that no checker reads such a store as damage, or
/// repairs it, and no build adds to it.
pub(crate) fn refuse_old(backend: &dyn StorageBackend, ds: &str) -> Result<()> {
    let files = backend.list();
    let mut current = BTreeSet::new();
    for f in &files {
        let Some((var, VarFile::Meta)) = fileorg::var_file(ds, f) else {
            continue;
        };
        let raw = read_file(backend, f).ok();
        let payload = raw
            .as_deref()
            .map(|raw| ExtentFooter::split_verified(raw, f));
        match payload.map(|p| p.and_then(VariableMeta::decode_any)) {
            Some(Ok((store::VERSION, _))) => drop(current.insert(var)),
            Some(Ok(_)) => return Err(needed(f)),
            _ => {}
        }
    }
    for f in &files {
        let old = match fileorg::var_file(ds, f) {
            Some((var, VarFile::Bin(_))) if !current.contains(var) => {
                backend.read(f, 0, 5).is_ok_and(|prologue| {
                    let magic = index::MAGIC.to_le_bytes();
                    prologue.starts_with(&magic) && prologue.get(4) == Some(&V3)
                })
            }
            Some((_, VarFile::Stray)) => {
                let base = f.rsplit('/').next().unwrap_or_default();
                [".idx", ".dat"]
                    .iter()
                    .any(|ext| fileorg::bin_number(base, ext).is_some())
            }
            _ => false,
        };
        if old {
            return Err(needed(f));
        }
    }
    Ok(())
}

/// Copy dataset `ds` of `old` out to `new` as format v4. `new` must not
/// hold the dataset yet. Fails on the first damaged file, naming it; the
/// variables committed before it stay committed in `new`, and nothing
/// of the failing one is.
pub fn upgrade(
    old: &dyn StorageBackend,
    new: &dyn StorageBackend,
    ds: &str,
) -> Result<UpgradeReport> {
    let catalog = parse_catalog(&read_file(old, &fileorg::catalog_file(ds))?)?;
    Dataset::create(new, ds, catalog.config)?;
    let mut report = UpgradeReport::default();
    for var in catalog.vars {
        let meta_name = fileorg::meta_file(ds, &var);
        let raw = read_file(old, &meta_name)?;
        let (version, meta) =
            VariableMeta::decode_any(ExtentFooter::split_verified(&raw, &meta_name)?)?;
        let layout = Layout::of(&meta.config);
        let files = (0..meta.config.num_bins)
            .map(|bin| {
                let file = fileorg::bin_file(ds, &var, bin);
                match version {
                    store::VERSION => current(old, &file, &layout),
                    V3 => from_v3(old, &file, bin, &layout),
                    _ => from_v2(old, &format!("{ds}/{var}/bin{bin:04}"), bin, &layout),
                }
            })
            .collect::<Result<Vec<_>>>()?;
        report.bin_files += files.len();
        // One writer: the same write ops in the same order on every run.
        write_variable(new, ds, &meta, files, 1)?;
        register(new, ds, &var)?;
        report.variables.push(var);
    }
    Ok(report)
}

/// A v4 bin file, verified whole.
fn current(old: &dyn StorageBackend, file: &str, layout: &Layout) -> Result<Vec<u8>> {
    let raw = read_file(old, file)?;
    binfile::verified(&raw, file, Some(layout))?;
    Ok(raw)
}

/// A v3 bin file `file`, verified whole and rebuilt as a v4 bin file.
/// Its header is v4's but for the version; bitmap and unit offsets are
/// absolute, and the units run from where its last bitmap ends.
fn from_v3(old: &dyn StorageBackend, file: &str, bin: usize, layout: &Layout) -> Result<Vec<u8>> {
    let raw = read_file(old, file)?;
    let checked = binfile::check_extents(&raw, file, Some(layout.geometry));
    if let Some(damage) = checked.damage.into_iter().next() {
        return Err(damage);
    }
    let (Some(tables), Some(index), Some(data)) = (checked.tables, checked.index, checked.data)
    else {
        return Err(MlocError::Corrupt("bin file tables unreadable"));
    };
    if raw.get(4) != Some(&V3) {
        return Err(MlocError::Corrupt("unsupported index version"));
    }
    let units_at = index.extents_end().max(tables.bitmaps_at());
    let units = usize::try_from(units_at)
        .ok()
        .and_then(|at| raw.get(at..usize::try_from(data.extents_end().max(units_at)).ok()?))
        .ok_or(MlocError::Corrupt("units past the end of the file"))?;
    let unit_lens: Vec<u32> = (0..data.num_extents()).map(|i| data.extent(i).1).collect();
    let bitmap = |at: u64, len: u32| span(&raw, at, len);
    rebuild(&raw, bitmap, units_at, units, &unit_lens, bin, layout)
}

/// Bin `bin` of a v1/v2 variable, whose files are `{stem}.idx` and
/// `{stem}.dat`, rebuilt as a v4 bin file. The header and directory are
/// v4's but for the version; bitmap offsets count from the bitmap
/// section — after the header and, in v2, the summaries — and unit
/// offsets from the data file's payload.
fn from_v2(old: &dyn StorageBackend, stem: &str, bin: usize, layout: &Layout) -> Result<Vec<u8>> {
    let (idx_name, dat_name) = (format!("{stem}.idx"), format!("{stem}.dat"));
    let idx_raw = read_file(old, &idx_name)?;
    let idx = ExtentFooter::split_verified(&idx_raw, &idx_name)?;
    let dat_raw = read_file(old, &dat_name)?;
    let units = ExtentFooter::split_verified(&dat_raw, &dat_name)?;
    let table = ExtentFooter::decode(&dat_raw[units.len()..], dat_raw.len() as u64, &dat_name)?;
    let unit_lens: Vec<u32> = (0..table.num_extents())
        .map(|i| table.extent(i).1)
        .collect();
    let (num_chunks, num_parts) = layout.geometry;
    let hdr_len = header_size(num_chunks, num_parts);
    let bitmaps_at = match idx.get(4) {
        Some(1) => hdr_len,
        Some(2) => hdr_len + summary_size(num_chunks),
        _ => return Err(MlocError::Corrupt("unsupported index version")),
    };
    let bitmap = |at: u64, len: u32| span(idx, bitmaps_at.saturating_add(at), len);
    rebuild(idx, bitmap, 0, units, &unit_lens, bin, layout)
}

/// `bytes[at..at + len]`, when `bytes` holds all of it.
fn span(bytes: &[u8], at: u64, len: u32) -> Option<&[u8]> {
    let at = usize::try_from(at).ok()?;
    bytes.get(at..at.checked_add(len as usize)?)
}

/// Rebuild bin `bin` from `header` — an old header and directory, as
/// stored — whose chunk `r`'s WAH extent is
/// `bitmap(bitmap_file_offset(r), bitmap_len(r))` and whose unit
/// offsets count from `units_at`, around `units`, the bin's unit section
/// (extents of the lengths `unit_lens`, in file order).
fn rebuild<'b>(
    header: &[u8],
    bitmap: impl Fn(u64, u32) -> Option<&'b [u8]>,
    units_at: u64,
    units: &[u8],
    unit_lens: &[u32],
    bin: usize,
    layout: &Layout,
) -> Result<Vec<u8>> {
    let (num_chunks, num_parts) = layout.geometry;
    let mut header = header
        .get(..header_size(num_chunks, num_parts) as usize)
        .unwrap_or(header)
        .to_vec();
    if let Some(version) = header.get_mut(4) {
        *version = index::VERSION;
    }
    let view = HeaderView::parse(&header[..])?.with_geometry(num_chunks, num_parts)?;

    let mut file = BinFileBuilder::new(bin as u32, num_chunks, num_parts);
    let mut runs = RunListBuf::new();
    let mut locs: Vec<UnitLoc> = Vec::with_capacity(num_parts);
    for rank in (0..num_chunks).filter(|&rank| view.bitmap_len(rank) > 0) {
        let extent = bitmap(view.bitmap_file_offset(rank), view.bitmap_len(rank))
            .ok_or(MlocError::Corrupt("bitmap past its file's payload"))?;
        runs.clear();
        let at = runs.push_wah(extent)?;
        // Held to its entry, as a query holds a bitmap it reads.
        let want = (u64::from(view.count(rank)), layout.points(rank));
        let list = runs
            .get(at)
            .filter(|list| (list.count(), list.len()) == want && list.count() > 0)
            .ok_or(MlocError::Corrupt("index bitmap inconsistent"))?;
        locs.clear();
        for u in view.units(rank) {
            let offset = u.offset.checked_sub(units_at);
            let offset = offset.ok_or(MlocError::Corrupt("unit before the unit section"))?;
            locs.push(UnitLoc { offset, ..u });
        }
        file.set_chunk(rank, list, &locs);
    }
    Ok(file.finish(units, unit_lens).bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::repair::{fsck, repair};
    use crate::store::MlocStore;
    use crate::verify::verify_dataset;
    use mloc_pfs::MemBackend;

    fn snapshot(be: &dyn StorageBackend) -> Vec<(String, Vec<u8>)> {
        let mut names = be.list();
        names.sort();
        names
            .into_iter()
            .map(|f| {
                let raw = read_file(be, &f).unwrap();
                (f, raw)
            })
            .collect()
    }

    fn refused<T: std::fmt::Debug>(got: Result<T>, ctx: &str) {
        match got {
            Err(e @ MlocError::NeedsUpgrade { .. }) => {
                assert!(e.to_string().contains("`mloc upgrade"), "{ctx}: {e}")
            }
            other => panic!("{ctx}: {other:?}"),
        }
    }

    /// Opening, verifying, checking and repairing an old store each fail
    /// with the error naming `mloc upgrade` and change no file — also
    /// once its meta is gone and only the bins' files tell: by their
    /// names (v1/v2), or by their headers' version (v3).
    #[test]
    fn old_stores_are_refused_and_left_untouched() {
        for version in [1, 2, 3] {
            let be = fixtures::mem(version);
            let before = snapshot(&be);
            let ctx = format!("v{version}");
            refused(MlocStore::open(&be, "fmt", "v").map(drop), &ctx);
            refused(verify_dataset(&be, "fmt"), &ctx);
            refused(fsck(&be, "fmt"), &ctx);
            refused(repair(&be, "fmt"), &ctx);
            assert_eq!(snapshot(&be), before, "{ctx}");

            be.remove("fmt/v/meta").unwrap();
            let before = snapshot(&be);
            refused(fsck(&be, "fmt"), &ctx);
            refused(repair(&be, "fmt"), &ctx);
            assert_eq!(snapshot(&be), before, "{ctx}: meta gone");
        }
    }

    /// A build into an old dataset — one-shot or streamed, a variable
    /// or a time step — fails with the error naming `mloc upgrade`
    /// before it writes anything.
    #[test]
    fn builds_into_old_datasets_are_refused_and_write_nothing() {
        let values: Vec<f64> = (0..64 * 64).map(|i| f64::from(i % 97)).collect();
        for version in [1, 2, 3] {
            let be = fixtures::mem(version);
            let before = snapshot(&be);
            let ds = Dataset::open(&be, "fmt").unwrap();
            let ctx = format!("v{version}");
            refused(ds.add_variable("w", &values), &ctx);
            refused(ds.add_timestep("w", 1, &values), &ctx);
            refused(ds.stream_variable("w", &values).map(drop), &ctx);
            refused(ds.stream_timestep("w", 1, &values).map(drop), &ctx);
            assert_eq!(snapshot(&be), before, "{ctx}");
        }
    }

    /// Every fixture upgrades to the same store, which verifies and
    /// checks clean; the old store is read, never written.
    #[test]
    fn every_fixture_upgrades_to_one_v4_store() {
        let mut stores = Vec::new();
        for version in [1, 2, 3] {
            let old = fixtures::mem(version);
            let before = snapshot(&old);
            let new = MemBackend::new();
            let report = upgrade(&old, &new, "fmt").unwrap();
            assert_eq!((report.variables, report.bin_files), (vec!["v".into()], 8));
            assert_eq!(snapshot(&old), before);
            assert!(verify_dataset(&new, "fmt").unwrap().is_clean());
            assert!(fsck(&new, "fmt").unwrap().is_clean());
            stores.push(snapshot(&new));
        }
        assert_eq!(stores[0].len(), 10, "catalog, meta, 8 bin files");
        assert_eq!(stores[0], stores[1]);
        assert_eq!(stores[0], stores[2]);
        // A dataset already in the destination is never overwritten.
        let new = MemBackend::new();
        upgrade(&fixtures::mem(3), &new, "fmt").unwrap();
        assert!(upgrade(&fixtures::mem(3), &new, "fmt").is_err());
    }

    /// A damaged v3 bin file fails the upgrade and commits nothing of
    /// the variable: a flipped header byte by its checksum, naming the
    /// extent; a WAH word edited under a resealed index table — no
    /// checksum sees it — as a bitmap that no longer holds its entry's
    /// count, or whose directory disagrees with it.
    #[test]
    fn a_damaged_v3_bin_file_fails_the_upgrade_and_commits_nothing() {
        let file = "fmt/v/bin0002.bin";
        let damaged = |edit: &dyn Fn(&mut Vec<u8>)| {
            let old = fixtures::mem(3);
            let mut raw = read_file(&old, file).unwrap();
            edit(&mut raw);
            old.create(file).unwrap();
            old.append(file, &raw).unwrap();
            let new = MemBackend::new();
            let got = upgrade(&old, &new, "fmt");
            assert!(fsck(&new, "fmt").unwrap().committed.is_empty());
            got.unwrap_err()
        };
        match damaged(&|raw| raw[20] ^= 0x01) {
            MlocError::CorruptExtent {
                file: f, offset, ..
            } => {
                assert_eq!((f.as_str(), offset), (file, 0))
            }
            other => panic!("{other}"),
        }
        let geometry = (16, 7);
        let reword = |raw: &mut Vec<u8>| {
            // The first chunk with a bitmap: flip the low bit of its
            // first literal word.
            let (at, len) = (0..16usize)
                .map(|rank| {
                    let entry = &raw[crate::index::entry_range(rank, 7)];
                    (
                        index::le_u64(entry, 4) as usize,
                        index::le_u32(entry, 12) as usize,
                    )
                })
                .find(|&(_, len)| len > 0)
                .unwrap();
            let nwords = index::le_u32(raw, at + 12) as usize;
            assert!(16 + 4 * nwords <= len);
            let word = (at + 16..at + 16 + 4 * nwords)
                .step_by(4)
                .find(|&w| raw[w + 3] & 0x80 == 0)
                .expect("a literal word");
            raw[word] ^= 0x01;
            binfile::reseal_index(raw, geometry, file);
        };
        let err = damaged(&reword);
        assert!(err.is_corruption(), "{err}");
    }

    /// A v4 variable whose files sit in an old dataset — copied in at
    /// file level from a build with the dataset's configuration, and
    /// registered in its catalog — is copied as it is, next to the
    /// upgraded one: the upgrade dispatches on each variable's version.
    #[test]
    fn a_v4_variable_of_an_old_dataset_is_copied_as_it_is() {
        let values: Vec<f64> = (0..64 * 64).map(|i| f64::from(i % 97)).collect();
        for version in [1, 2, 3] {
            let old = fixtures::mem(version);
            let built = MemBackend::new();
            let config = Dataset::open(&old, "fmt").unwrap().config().clone();
            let ds = Dataset::create(&built, "fmt", config).unwrap();
            ds.add_variable("w", &values).unwrap();
            let w_files: Vec<String> = built
                .list()
                .into_iter()
                .filter(|f| f.starts_with("fmt/w/"))
                .collect();
            for f in &w_files {
                old.create(f).unwrap();
                old.append(f, &read_file(&built, f).unwrap()).unwrap();
            }
            register(&old, "fmt", "w").unwrap();

            let new = MemBackend::new();
            let report = upgrade(&old, &new, "fmt").unwrap();
            assert_eq!(report.variables, ["v", "w"], "v{version}");
            for f in &w_files {
                assert_eq!(read_file(&new, f).unwrap(), read_file(&built, f).unwrap());
            }
            assert!(verify_dataset(&new, "fmt").unwrap().is_clean());
            let store = MlocStore::open(&new, "fmt", "w").unwrap();
            let got = store
                .query_serial(&crate::Query::region(10.0, 20.0))
                .unwrap();
            let want = values
                .iter()
                .filter(|&&v| (10.0..20.0).contains(&v))
                .count();
            assert_eq!(got.len(), want, "v{version}");
        }
    }
}
