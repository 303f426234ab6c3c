//! `mloc upgrade`: copy a store of the formats before v6 out as v6.
//!
//! Formats v1 and v2 kept each bin in two files, each ending in a tail
//! checksum footer: an index file (`binNNNN.idx`: the header and
//! directory, v2's chunk summaries, the bitmaps) and a data file
//! (`binNNNN.dat`: the units). Their meta has version 2. Formats v3 to
//! v5 kept each bin in one file laid out as v6's ([`crate::binfile`]),
//! but with the bin's summary section and the two table sizes between
//! the header and the tables; v3 and v4 also had a dense chunk directory
//! in the header — each chunk's count, bitmap offset and length, and
//! every unit part's offset and length — and 9-byte summary records
//! without the count. v3's bitmaps were a WAH stream and its rank/select
//! directory each, v4's and v5's the chunk's run list, as v6's are. Their
//! metas have versions 3 to 5. Nothing else in this crate reads these
//! formats: every other reader, and every build into such a dataset,
//! refuses it with [`MlocError::NeedsUpgrade`], before reading or
//! changing anything.
//!
//! An upgrade reads the old store, never writing to it, and writes the
//! dataset, under the same name, into another backend: the catalog
//! header, then per variable the catalog lists:
//!
//! 1. every old file is verified whole, so damage fails the upgrade
//!    with the damaged extent named before anything of the variable is
//!    written;
//! 2. each bin file is rebuilt by [`BinFileBuilder`] from its old
//!    directory, or from v5's summaries and tables: each chunk's bitmap
//!    extent is taken into its run list — a WAH stream decoded
//!    ([`mloc_bitmap::RunListBuf::push_wah`]), a v4 or v5 run list
//!    copied after one validating walk — and held to its count, as a
//!    query holds a bitmap it reads, and the unit parts are copied
//!    verbatim — no codec re-encodes, so a lossy one loses nothing
//!    more. The builder derives v1's missing summaries from the runs,
//!    lays the parts out in the level order, where every old build had
//!    them, and hands every bin's summaries to the meta;
//! 3. the files are committed through the build's own write stage
//!    ([`write_variable`]: bin files synced, then the meta), then the
//!    variable is registered in the catalog.
//!
//! So the new store is byte for byte what a build of the same field
//! writes, and its crash states are a build's, which `fsck` and `repair`
//! already classify. A variable already in v6 (one whose files were
//! copied into an old dataset) is copied after the same whole-file
//! check. The old store is left as it was: remove it once `verify`
//! passes on the new one.

use crate::binfile::{self, BinFile, BinFileBuilder, Geometry, Layout, Rows, Tables};
use crate::build::{into_meta_parts, write_variable};
use crate::dataset::{parse_catalog, register, Dataset};
use crate::fileorg::{self, read_file, VarFile};
use crate::index::{self, le_u32, le_u64, summary_size, SummaryView, HEADER_LEN};
use crate::integrity::{corrupt_extent, ExtentFooter};
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
/// before v6.
pub(crate) fn needed(file: &str) -> MlocError {
    MlocError::NeedsUpgrade {
        file: file.to_string(),
    }
}

/// Whether a bin file's header version is one of the one-file formats
/// before v6: 3 (WAH bitmaps) or 4 (run lists), both with a directory,
/// or 5 (the summaries in the file).
fn one_file_version(version: u8) -> bool {
    matches!(version, 3..=5)
}

/// Refuse dataset `ds` when any file of it is of the formats before v6
/// — a meta of an older version, a bin's index or data file, or, for a
/// variable with no current meta to say so, a bin file whose header
/// says v3, v4 or v5 — so that no checker reads such a store as damage,
/// or repairs it, and no build adds to it.
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
                    prologue.starts_with(&magic)
                        && prologue.get(4).is_some_and(|&v| one_file_version(v))
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

/// Copy dataset `ds` of `old` out to `new` as format v6. `new` must not
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
        let (version, mut meta) =
            VariableMeta::decode_any(ExtentFooter::split_verified(&raw, &meta_name)?)?;
        let layout = Layout::of(&meta.config);
        let (files, summaries) = if version == store::VERSION {
            let layout = layout.with_summaries(meta.summaries.clone());
            let files = (0..meta.config.num_bins)
                .map(|bin| current(old, &fileorg::bin_file(ds, &var, bin), bin, &layout))
                .collect::<Result<Vec<_>>>()?;
            (files, meta.summaries)
        } else {
            let files = (0..meta.config.num_bins)
                .map(|bin| {
                    let file = fileorg::bin_file(ds, &var, bin);
                    match version {
                        v if one_file_version(v) => from_one_file(old, &file, v, bin, &layout),
                        _ => from_v2(old, &format!("{ds}/{var}/bin{bin:04}"), bin, &layout),
                    }
                })
                .collect::<Result<Vec<_>>>()?;
            into_meta_parts(files, layout.geometry.0)?
        };
        meta.summaries = summaries;
        report.bin_files += files.len();
        // One writer: the same write ops in the same order on every run.
        write_variable(new, ds, &meta, files, 1)?;
        register(new, ds, &var)?;
        report.variables.push(var);
    }
    Ok(report)
}

/// A v6 bin file, verified whole against its summaries.
fn current(old: &dyn StorageBackend, file: &str, bin: usize, layout: &Layout) -> Result<Vec<u8>> {
    let raw = read_file(old, file)?;
    binfile::verified(&raw, file, Some(layout), bin)?;
    Ok(raw)
}

/// magic(4) version(1) bin(4) num_chunks(4) num_parts(1): the prologue
/// every format's header starts with.
const PROLOGUE: u64 = 14;
/// Fixed part of a directory entry: count(4) bitmap_off(8) bitmap_len(4)
const ENTRY_FIXED: u64 = 16;
/// One unit locator: offset(8) clen(4)
const UNIT_LOC: u64 = 12;
/// One v2–v4 summary record: min_pos(4) max_pos(4) flags(1)
const OLD_RECORD: u64 = 9;
/// The two checksum tables' entry counts (`u32` each) that end the
/// summary extent of formats v3 to v5.
const TABLE_SIZES: u64 = 8;
/// Index extents in front of the bitmaps in formats v3 to v5: the
/// header and the summary extent.
const OLD_FIXED_EXTENTS: usize = 2;

/// Bytes of a v1–v4 header: the prologue, then one directory entry per
/// chunk.
fn directory_len((num_chunks, num_parts): Geometry) -> u64 {
    PROLOGUE + num_chunks as u64 * (ENTRY_FIXED + num_parts as u64 * UNIT_LOC)
}

/// Bytes of a v2 summary section: magic, chunk count, the records.
fn old_summary_len(num_chunks: usize) -> u64 {
    8 + num_chunks as u64 * OLD_RECORD
}

/// The lengths of a bin file's header and summary extent — the two
/// fixed blocks in front of its tables — in format `version` (3 to 5):
/// v3 and v4 have the directory and 9-byte records, v5 the prologue and
/// 13-byte ones; each summary extent ends in the two table sizes.
pub(crate) fn front_lens(version: u8, geometry: Geometry) -> (u64, u64) {
    match version {
        5 => (HEADER_LEN, summary_size(geometry.0) + TABLE_SIZES),
        _ => (
            directory_len(geometry),
            old_summary_len(geometry.0) + TABLE_SIZES,
        ),
    }
}

/// Where the tables of `raw`, a whole bin file of format `version` (3
/// to 5), are: read off the end of its summary extent, whose two sizes
/// are held to the geometry — besides the header and the summary, at
/// most one index extent per chunk (its bitmap) and one data extent per
/// chunk and part. Sizes past those bounds are damage, never a read size.
pub(crate) fn old_tables(
    raw: &[u8],
    version: u8,
    geometry: Geometry,
    file: &str,
) -> Result<Tables> {
    let (num_chunks, num_parts) = geometry;
    let (header_len, summary_len) = front_lens(version, geometry);
    let Some(summary) = binfile::span(raw, (header_len, summary_len)) else {
        let what = "file shorter than its fixed blocks (torn write?)";
        return Err(corrupt_extent(file, 0, raw.len() as u64, what));
    };
    let corrupt = |what| corrupt_extent(file, header_len, summary_len, what);
    let at = summary.len() - TABLE_SIZES as usize;
    let (n_index, n_data) = (le_u32(summary, at), le_u32(summary, at + 4));
    let index_ok = (2..=2 + num_chunks as u64).contains(&u64::from(n_index));
    if !index_ok || u64::from(n_data) > num_chunks as u64 * num_parts as u64 {
        return Err(corrupt("checksum table sizes out of range"));
    }
    Ok(Tables {
        at: header_len + summary_len,
        n_index,
        n_data,
    })
}

/// Hold `header`, an old bin's header of at least [`PROLOGUE`] bytes,
/// to its magic and to `geometry`, whatever its version.
fn check_prologue(header: &[u8], geometry: Geometry) -> Result<()> {
    if le_u32(header, 0) != index::MAGIC {
        return Err(MlocError::Corrupt("bad index magic"));
    }
    let stated = (le_u32(header, 9) as usize, usize::from(header[13]));
    if stated != geometry {
        return Err(MlocError::Corrupt("index geometry mismatch"));
    }
    Ok(())
}

/// Where an old bin's bitmaps and unit parts are, chunk by chunk.
trait Locations {
    /// Chunk `rank`'s count of set bits.
    fn count(&self, rank: usize) -> u32;
    /// Chunk `rank`'s bitmap extent, `(offset, length)`.
    fn bitmap(&self, rank: usize) -> (u64, u32);
    /// Part `part` of chunk `rank`'s unit, `(offset, length)`.
    fn unit(&self, rank: usize, part: usize) -> (u64, u32);
}

/// The chunk directory of a v1–v4 header, read in place.
struct Directory<'a> {
    header: &'a [u8],
    num_parts: usize,
}

impl<'a> Directory<'a> {
    /// The directory of `header`, whose prologue must state `geometry`.
    fn parse(header: &'a [u8], geometry: Geometry) -> Result<Self> {
        let header = header
            .get(..directory_len(geometry) as usize)
            .ok_or(MlocError::Corrupt("header truncated"))?;
        check_prologue(header, geometry)?;
        Ok(Directory {
            header,
            num_parts: geometry.1,
        })
    }

    /// The entry of chunk `rank`.
    fn entry(&self, rank: usize) -> &'a [u8] {
        let size = (ENTRY_FIXED + self.num_parts as u64 * UNIT_LOC) as usize;
        let at = PROLOGUE as usize + rank * size;
        &self.header[at..at + size]
    }
}

impl Locations for Directory<'_> {
    fn count(&self, rank: usize) -> u32 {
        le_u32(self.entry(rank), 0)
    }

    /// A length of 0 when the chunk has no points.
    fn bitmap(&self, rank: usize) -> (u64, u32) {
        let e = self.entry(rank);
        (le_u64(e, 4), le_u32(e, 12))
    }

    fn unit(&self, rank: usize, part: usize) -> (u64, u32) {
        let at = (ENTRY_FIXED + part as u64 * UNIT_LOC) as usize;
        let e = self.entry(rank);
        (le_u64(e, at), le_u32(e, at + 8))
    }
}

/// A v5 bin file's locations: its summaries' counts, and the rows v6
/// derives from them, one index row further on (v5's summary extent is
/// index extent 1).
struct V5<'a> {
    summaries: SummaryView<&'a [u8]>,
    rows: Rows,
    index: ExtentFooter,
    data: ExtentFooter,
}

impl Locations for V5<'_> {
    fn count(&self, rank: usize) -> u32 {
        self.summaries.count(rank)
    }

    /// A length of 0 when the chunk has no points.
    fn bitmap(&self, rank: usize) -> (u64, u32) {
        let row = self.rows.bitmap_row(rank).map(|row| row + 1);
        row.filter(|&row| row < self.index.num_extents())
            .map_or((0, 0), |row| {
                let (at, len, _) = self.index.extent(row);
                (at, len)
            })
    }

    /// `(0, 0)` when the table has no such row.
    fn unit(&self, rank: usize, part: usize) -> (u64, u32) {
        let row = self.rows.unit_row(rank, part);
        row.filter(|&row| row < self.data.num_extents())
            .map_or((0, 0), |row| {
                let (at, len, _) = self.data.extent(row);
                (at, len)
            })
    }
}

/// A v3, v4 or v5 bin file `file` — header version `version` — verified
/// whole and rebuilt as a v6 bin file. v3's and v4's directory offsets
/// are absolute; v5's locations are its tables' rows.
fn from_one_file(
    old: &dyn StorageBackend,
    file: &str,
    version: u8,
    bin: usize,
    layout: &Layout,
) -> Result<BinFile> {
    let raw = read_file(old, file)?;
    let tables = old_tables(&raw, version, layout.geometry, file);
    let checked = binfile::check_extents(&raw, file, tables, OLD_FIXED_EXTENTS);
    if let Some(damage) = checked.damage.into_iter().next() {
        return Err(damage);
    }
    if raw.get(4) != Some(&version) {
        return Err(MlocError::Corrupt("unsupported index version"));
    }
    let bitmap = |at: u64, len: u32| span(&raw, at, len);
    let stored = (version >= 4).then_some(file);
    if version < 5 {
        let dir = Directory::parse(&raw, layout.geometry)?;
        return rebuild(&dir, bitmap, &raw, stored, bin, layout);
    }
    check_prologue(&raw, layout.geometry)?;
    let (header_len, summary_len) = front_lens(version, layout.geometry);
    let summary = &raw[header_len as usize..(header_len + summary_len) as usize];
    let summaries = SummaryView::parse(summary, layout.geometry.0)?;
    let rows = Rows::derive(&summaries, layout.geometry.1, layout.level_order);
    // The tables must hold a bitmap row per set chunk and a data row per
    // set chunk and part, or the rows locate nothing.
    let n_set = summaries.set_chunks();
    let (Some(index), Some(data)) = (checked.index, checked.data) else {
        return Err(MlocError::Corrupt("checksum tables unreadable"));
    };
    let rows_held =
        index.num_extents() == 2 + n_set && data.num_extents() == n_set * layout.geometry.1;
    if !rows_held {
        let (at, len) = index.span();
        let what = format!("checksum tables do not hold {n_set} set chunks");
        return Err(corrupt_extent(file, at, len, &what));
    }
    let v5 = V5 {
        summaries,
        rows,
        index,
        data,
    };
    rebuild(&v5, bitmap, &raw, stored, bin, layout)
}

/// Bin `bin` of a v1/v2 variable, whose files are `{stem}.idx` and
/// `{stem}.dat`, rebuilt as a v6 bin file. Bitmap offsets count from
/// the bitmap section — after the header and, in v2, the summaries —
/// and unit offsets from the data file's payload.
fn from_v2(old: &dyn StorageBackend, stem: &str, bin: usize, layout: &Layout) -> Result<BinFile> {
    let (idx_name, dat_name) = (format!("{stem}.idx"), format!("{stem}.dat"));
    let idx_raw = read_file(old, &idx_name)?;
    let idx = ExtentFooter::split_verified(&idx_raw, &idx_name)?;
    let dat_raw = read_file(old, &dat_name)?;
    let units = ExtentFooter::split_verified(&dat_raw, &dat_name)?;
    let hdr_len = directory_len(layout.geometry);
    let bitmaps_at = match idx.get(4) {
        Some(1) => hdr_len,
        Some(2) => hdr_len + old_summary_len(layout.geometry.0),
        _ => return Err(MlocError::Corrupt("unsupported index version")),
    };
    let bitmap = |at: u64, len: u32| span(idx, bitmaps_at.saturating_add(at), len);
    let dir = Directory::parse(idx, layout.geometry)?;
    rebuild(&dir, bitmap, units, None, bin, layout)
}

/// `bytes[at..at + len]`, when `bytes` holds all of it.
fn span(bytes: &[u8], at: u64, len: u32) -> Option<&[u8]> {
    let at = usize::try_from(at).ok()?;
    bytes.get(at..at.checked_add(len as usize)?)
}

/// Rebuild bin `bin` from `old`, the locations of an old bin file, whose
/// chunk `r`'s bitmap extent is `bitmap(offset, len)` of its location:
/// a run list when `stored` names the file it is in, else a WAH stream.
/// Each unit part is `units[offset..][..len]` of its location.
fn rebuild<'b, 'u>(
    old: &dyn Locations,
    bitmap: impl Fn(u64, u32) -> Option<&'b [u8]>,
    units: &'u [u8],
    stored: Option<&str>,
    bin: usize,
    layout: &Layout,
) -> Result<BinFile> {
    let (num_chunks, num_parts) = layout.geometry;
    let mut file = BinFileBuilder::new(bin as u32, num_chunks, num_parts, layout.level_order);
    let mut runs = RunListBuf::new();
    let mut parts: Vec<&'u [u8]> = Vec::with_capacity(num_parts);
    for rank in (0..num_chunks).filter(|&rank| old.bitmap(rank).1 > 0) {
        let (at, len) = old.bitmap(rank);
        let extent = bitmap(at, len).ok_or(MlocError::Corrupt("bitmap past its file's payload"))?;
        // Held to its count, as a query holds a bitmap it reads.
        let want = (u64::from(old.count(rank)), layout.points(rank));
        runs.clear();
        let i = match stored {
            Some(file) => runs
                .push_stored(extent, want.0, want.1)
                .map_err(|e| binfile::refused_runs(file, (at, len), e, old.count(rank), want.1))?,
            None => runs.push_wah(extent)?,
        };
        let list = runs
            .get(i)
            .filter(|list| (list.count(), list.len()) == want && list.count() > 0)
            .ok_or(MlocError::Corrupt("index bitmap inconsistent"))?;
        parts.clear();
        for part in 0..num_parts {
            let (offset, len) = old.unit(rank, part);
            let unit = span(units, offset, len);
            parts.push(unit.ok_or(MlocError::Corrupt("unit past its file's payload"))?);
        }
        file.set_chunk(rank, list, &parts);
    }
    file.finish()
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
    /// names (v1/v2), or by their headers' version (v3 to v5).
    #[test]
    fn old_stores_are_refused_and_left_untouched() {
        for version in [1, 2, 3, 4, 5] {
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
        for version in [1, 2, 3, 4, 5] {
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
    fn every_fixture_upgrades_to_one_v6_store() {
        let mut stores = Vec::new();
        for version in [1, 2, 3, 4, 5] {
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
        assert_eq!(stores[0], stores[3]);
        assert_eq!(stores[0], stores[4]);
        // A dataset already in the destination is never overwritten.
        let new = MemBackend::new();
        upgrade(&fixtures::mem(4), &new, "fmt").unwrap();
        assert!(upgrade(&fixtures::mem(4), &new, "fmt").is_err());
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
            let dir = Directory::parse(raw, geometry).unwrap();
            let (at, len) = (0..16usize)
                .map(|rank| dir.bitmap(rank))
                .map(|(at, len)| (at as usize, len as usize))
                .find(|&(_, len)| len > 0)
                .unwrap();
            let nwords = index::le_u32(raw, at + 12) as usize;
            assert!(16 + 4 * nwords <= len);
            let word = (at + 16..at + 16 + 4 * nwords)
                .step_by(4)
                .find(|&w| raw[w + 3] & 0x80 == 0)
                .expect("a literal word");
            raw[word] ^= 0x01;
            let tables = old_tables(raw, 3, geometry, file).unwrap();
            binfile::reseal_index_behind(raw, tables, OLD_FIXED_EXTENTS, file);
        };
        let err = damaged(&reword);
        assert!(err.is_corruption(), "{err}");
    }

    /// A damaged v4 bin file fails the upgrade likewise: a flipped unit
    /// byte by its checksum, and a run list edited under a resealed
    /// index table — no checksum sees it — by the walk that holds it to
    /// its entry, at its extent.
    #[test]
    fn a_damaged_v4_bin_file_fails_the_upgrade_and_commits_nothing() {
        let file = "fmt/v/bin0005.bin";
        let geometry = (16, 7);
        let damaged = |edit: &dyn Fn(&mut Vec<u8>)| {
            let old = fixtures::mem(4);
            let mut raw = read_file(&old, file).unwrap();
            edit(&mut raw);
            old.create(file).unwrap();
            old.append(file, &raw).unwrap();
            let new = MemBackend::new();
            let got = upgrade(&old, &new, "fmt");
            assert!(fsck(&new, "fmt").unwrap().committed.is_empty());
            got.unwrap_err()
        };
        let first = |raw: &[u8]| {
            let dir = Directory::parse(raw, geometry).unwrap();
            let rank = (0..16).find(|&r| dir.bitmap(r).1 > 0).unwrap();
            (dir.bitmap(rank), dir.unit(rank, 6))
        };
        let unit_at = first(&read_file(&fixtures::mem(4), file).unwrap()).1 .0;
        match damaged(&|raw| raw[unit_at as usize] ^= 0x10) {
            MlocError::CorruptExtent { offset, what, .. } => {
                assert_eq!((offset, what.as_str()), (unit_at, "checksum mismatch"))
            }
            other => panic!("{other}"),
        }
        let ((bitmap_at, len), _) = first(&read_file(&fixtures::mem(4), file).unwrap());
        let reword = |raw: &mut Vec<u8>| {
            // The last run one point longer or shorter.
            raw[(bitmap_at + u64::from(len)) as usize - 1] ^= 0x01;
            let tables = old_tables(raw, 4, geometry, file).unwrap();
            binfile::reseal_index_behind(raw, tables, OLD_FIXED_EXTENTS, file);
        };
        match damaged(&reword) {
            MlocError::CorruptExtent { offset, len: n, .. } => {
                assert_eq!((offset, n), (bitmap_at, u64::from(len)))
            }
            other => panic!("{other}"),
        }
    }

    /// A damaged v5 bin file fails the upgrade likewise: a flipped
    /// summary byte by its checksum, naming the extent; a unit's byte by
    /// its own; and a summary count edited under a resealed index table
    /// — no checksum sees it — as tables that no longer hold the set
    /// chunks.
    #[test]
    fn a_damaged_v5_bin_file_fails_the_upgrade_and_commits_nothing() {
        let file = "fmt/v/bin0003.bin";
        let geometry = (16, 7);
        let damaged = |edit: &dyn Fn(&mut Vec<u8>)| {
            let old = fixtures::mem(5);
            let mut raw = read_file(&old, file).unwrap();
            edit(&mut raw);
            old.create(file).unwrap();
            old.append(file, &raw).unwrap();
            let new = MemBackend::new();
            let got = upgrade(&old, &new, "fmt");
            assert!(fsck(&new, "fmt").unwrap().committed.is_empty());
            got.unwrap_err()
        };
        let (summary_at, summary_len) = front_lens(5, geometry);
        match damaged(&|raw| raw[summary_at as usize + 20] ^= 0x04) {
            MlocError::CorruptExtent { offset, what, .. } => {
                assert_eq!((offset, what.as_str()), (summary_at, "checksum mismatch"))
            }
            other => panic!("{other}"),
        }
        let raw = read_file(&fixtures::mem(5), file).unwrap();
        let tables = old_tables(&raw, 5, geometry, file).unwrap();
        let checked = binfile::check_extents(&raw, file, Ok(tables), OLD_FIXED_EXTENTS);
        let unit_at = checked.data.unwrap().extent(0).0;
        match damaged(&|raw| raw[unit_at as usize] ^= 0x10) {
            MlocError::CorruptExtent { offset, what, .. } => {
                assert_eq!((offset, what.as_str()), (unit_at, "checksum mismatch"))
            }
            other => panic!("{other}"),
        }
        let recount = |raw: &mut Vec<u8>| {
            // A set chunk's count zeroed, the index table resealed over
            // the summary extent.
            let summary = &raw[summary_at as usize..(summary_at + summary_len) as usize];
            let view = SummaryView::parse(summary, 16).unwrap();
            let rank = (0..16).find(|&r| view.count(r) > 0).expect("a set chunk");
            let at = (summary_at + 8 + 13 * rank as u64) as usize;
            raw[at..at + 4].fill(0);
            binfile::reseal_index_behind(raw, tables, OLD_FIXED_EXTENTS, file);
        };
        match damaged(&recount) {
            MlocError::CorruptExtent { offset, what, .. } => {
                assert_eq!(offset, tables.index_span().0, "{what}");
                assert!(what.contains("set chunks"), "{what}");
            }
            other => panic!("{other}"),
        }
    }

    /// A v6 variable whose files sit in an old dataset — copied in at
    /// file level from a build with the dataset's configuration, and
    /// registered in its catalog — is copied as it is, next to the
    /// upgraded one: the upgrade dispatches on each variable's version.
    #[test]
    fn a_v6_variable_of_an_old_dataset_is_copied_as_it_is() {
        let values: Vec<f64> = (0..64 * 64).map(|i| f64::from(i % 97)).collect();
        for version in [1, 2, 3, 4, 5] {
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
