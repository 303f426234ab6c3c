//! `mloc upgrade`: copy a store of the formats before v3 out as v3.
//!
//! Formats v1 and v2 kept each bin in two files, each ending in a tail
//! checksum footer: an index file (`binNNNN.idx`: the header and
//! directory, v2's chunk summaries, the bitmaps) and a data file
//! (`binNNNN.dat`: the units). Their meta has version 2. Nothing else in
//! this crate reads them: every other reader refuses such a store with
//! [`MlocError::NeedsUpgrade`], before reading or changing anything.
//!
//! An upgrade reads the old store, never writing to it, and writes the
//! dataset, under the same name, into another backend: the catalog
//! header, then per variable the catalog lists:
//!
//! 1. every old file is verified whole, so damage fails the upgrade
//!    with the damaged extent named before anything of the variable is
//!    written;
//! 2. each bin file is rebuilt by [`BinFileBuilder`] from the chunks'
//!    WAH bitmaps and unit locations around the data file's payload,
//!    copied verbatim — no codec re-encodes, so a lossy one loses
//!    nothing more. The builder derives v1's missing summaries and
//!    rank/select directories from the bitmaps;
//! 3. the files are committed through the build's own write stage
//!    ([`write_variable`]: bin files synced, then the meta), then the
//!    variable is registered in the catalog.
//!
//! So the new store is byte for byte what a build of the same field
//! writes, and its crash states are a build's, which `fsck` and `repair`
//! already classify. A variable already in v3 (one added to an old
//! dataset by a later build) is copied after the same whole-file check.
//! The old store is left as it was: remove it once `verify` passes on
//! the new one.

use crate::array::ChunkGrid;
use crate::binfile::{self, BinFileBuilder, Geometry};
use crate::build::write_variable;
use crate::dataset::{parse_catalog, register, Dataset};
use crate::fileorg::{self, read_file, VarFile};
use crate::index::{self, header_size, summary_size, HeaderView, UnitLoc};
use crate::integrity::ExtentFooter;
use crate::store::{self, VariableMeta};
use crate::{MlocError, Result};
use mloc_bitmap::WahBitmap;
use mloc_pfs::StorageBackend;

/// What an upgrade wrote.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpgradeReport {
    /// The variables committed, in catalog order.
    pub variables: Vec<String>,
    /// Bin files written.
    pub bin_files: usize,
}

/// The error every reader but the upgrade gives a file of the formats
/// before v3.
pub(crate) fn needed(file: &str) -> MlocError {
    MlocError::NeedsUpgrade {
        file: file.to_string(),
    }
}

/// Refuse dataset `ds` when any file of it is of the formats before v3
/// — a version-2 meta, or a bin's index or data file — so that no
/// checker reads such a store as damage, or repairs it.
pub(crate) fn refuse_old(backend: &dyn StorageBackend, ds: &str) -> Result<()> {
    for f in backend.list() {
        let old = match fileorg::var_file(ds, &f) {
            Some((_, VarFile::Meta)) => read_file(backend, &f).ok().is_some_and(|raw| {
                let payload = ExtentFooter::split_verified(&raw, &f);
                let decoded = payload.and_then(VariableMeta::decode_any);
                decoded.is_ok_and(|(version, _)| version != store::VERSION)
            }),
            Some((_, VarFile::Stray)) => {
                let base = f.rsplit('/').next().unwrap_or_default();
                [".idx", ".dat"]
                    .iter()
                    .any(|ext| fileorg::bin_number(base, ext).is_some())
            }
            _ => false,
        };
        if old {
            return Err(needed(&f));
        }
    }
    Ok(())
}

/// Copy dataset `ds` of `old` out to `new` as format v3. `new` must not
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
        let geometry = binfile::geometry(&meta.config);
        let files = (0..meta.config.num_bins)
            .map(|bin| match version {
                store::VERSION => current(old, &fileorg::bin_file(ds, &var, bin), geometry),
                _ => rebuild(old, &format!("{ds}/{var}/bin{bin:04}"), bin, &meta),
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

/// A v3 bin file, verified whole.
fn current(old: &dyn StorageBackend, file: &str, geometry: Geometry) -> Result<Vec<u8>> {
    let raw = read_file(old, file)?;
    binfile::verified(&raw, file, Some(geometry))?;
    Ok(raw)
}

/// Bin `bin` of a v1/v2 variable, whose files are `{stem}.idx` and
/// `{stem}.dat`, rebuilt as a v3 bin file.
fn rebuild(
    old: &dyn StorageBackend,
    stem: &str,
    bin: usize,
    meta: &VariableMeta,
) -> Result<Vec<u8>> {
    let (idx_name, dat_name) = (format!("{stem}.idx"), format!("{stem}.dat"));
    let idx_raw = read_file(old, &idx_name)?;
    let idx = ExtentFooter::split_verified(&idx_raw, &idx_name)?;
    let dat_raw = read_file(old, &dat_name)?;
    let units = ExtentFooter::split_verified(&dat_raw, &dat_name)?;
    let table = ExtentFooter::decode(&dat_raw[units.len()..], dat_raw.len() as u64, &dat_name)?;
    let unit_lens: Vec<u32> = (0..table.num_extents())
        .map(|i| table.extent(i).1)
        .collect();

    // The header and directory are v3's byte for byte but for the
    // version, and bitmap offsets count from the bitmap section: after
    // the header and, in v2, the summaries.
    let config = &meta.config;
    let (num_chunks, num_parts) = binfile::geometry(config);
    let hdr_len = header_size(num_chunks, num_parts) as usize;
    let mut header = idx.get(..hdr_len).unwrap_or(idx).to_vec();
    let bitmaps_at = match header.get(4) {
        Some(1) => hdr_len as u64,
        Some(2) => hdr_len as u64 + summary_size(num_chunks),
        _ => return Err(MlocError::Corrupt("unsupported index version")),
    };
    header[4] = index::VERSION;
    let view = HeaderView::parse(&header[..])?.with_geometry(num_chunks, num_parts)?;

    let grid = ChunkGrid::new(config.shape.clone(), config.chunk_shape.clone());
    let order = config.chunk_order(&grid);
    let mut file = BinFileBuilder::new(bin as u32, num_chunks, num_parts);
    let mut locs: Vec<UnitLoc> = Vec::with_capacity(num_parts);
    for rank in (0..num_chunks).filter(|&rank| view.bitmap_len(rank) > 0) {
        let extent = usize::try_from(bitmaps_at.saturating_add(view.bitmap_file_offset(rank)))
            .ok()
            .and_then(|at| idx.get(at..at.checked_add(view.bitmap_len(rank) as usize)?))
            .ok_or(MlocError::Corrupt("bitmap past its index file's payload"))?;
        let (bitmap, _) = WahBitmap::from_bytes(extent)?;
        // Held to its entry, as a query holds a bitmap it reads.
        let points = grid.chunk_points(order.cell_at(rank)) as u64;
        if (bitmap.count_ones(), bitmap.len()) != (u64::from(view.count(rank)), points) {
            return Err(MlocError::Corrupt("index bitmap inconsistent"));
        }
        locs.clear();
        locs.extend(view.units(rank));
        file.set_chunk(rank, &bitmap, &locs);
    }
    Ok(file.finish(units, &unit_lens).bytes)
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
    /// once its meta is gone and only the bins' file names tell.
    #[test]
    fn old_stores_are_refused_and_left_untouched() {
        for version in [1, 2] {
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

    /// Both fixtures upgrade to the same store, which verifies and
    /// checks clean; the old store is read, never written.
    #[test]
    fn both_fixtures_upgrade_to_one_v3_store() {
        let mut stores = Vec::new();
        for version in [1, 2] {
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
        // A dataset already in the destination is never overwritten.
        let new = MemBackend::new();
        upgrade(&fixtures::mem(2), &new, "fmt").unwrap();
        assert!(upgrade(&fixtures::mem(2), &new, "fmt").is_err());
    }

    /// A variable a later build added to an old dataset is already v3:
    /// it is copied as it is, next to the upgraded one.
    #[test]
    fn a_v3_variable_of_an_old_dataset_is_copied_as_it_is() {
        let old = fixtures::mem(2);
        let ds = Dataset::open(&old, "fmt").unwrap();
        let values: Vec<f64> = (0..64 * 64).map(|i| f64::from(i % 97)).collect();
        ds.add_variable("w", &values).unwrap();
        let new = MemBackend::new();
        let report = upgrade(&old, &new, "fmt").unwrap();
        assert_eq!(report.variables, ["v", "w"]);
        for f in old.list().into_iter().filter(|f| f.starts_with("fmt/w/")) {
            assert_eq!(read_file(&new, &f).unwrap(), read_file(&old, &f).unwrap());
        }
        let store = MlocStore::open(&new, "fmt", "w").unwrap();
        let got = store
            .query_serial(&crate::Query::region(10.0, 20.0))
            .unwrap();
        assert_eq!(
            got.len(),
            values
                .iter()
                .filter(|&&v| (10.0..20.0).contains(&v))
                .count()
        );
    }
}
