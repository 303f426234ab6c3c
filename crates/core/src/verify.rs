//! Offline integrity verification (`mloc verify`).
//!
//! Recomputes every checksum recorded in the checksum tables of a
//! variable's files — meta and every bin file, each read once by the
//! dataset's one scan (the private `scan` module, which `fsck` and
//! `repair` judge by too) — and reports each damaged extent with a
//! human-readable label (which chunk's bitmap, which byte-group part,
//! which table). A bin file the layout numbers that the store lacks is
//! damage naming it, and so is a file of the variable's directory the
//! layout does not name (`fsck`'s orphan). The chunk labels come from the bins' summaries,
//! which the meta holds: with a damaged meta, the bin files' own tables
//! still locate every extent, the labels name table rows instead, and
//! each header is held to the catalog's geometry. Unlike the query path,
//! which stops at the first unreadable extent it needs, verification
//! keeps going and maps *all* the damage, so an operator can decide
//! whether a degraded dataset is worth keeping.

use crate::binfile::{self, Layout, END_LEN};
use crate::index::HEADER_LEN;
use crate::scan::{scan, Scan, VarScan};
use crate::{MlocError, Result};
use mloc_pfs::StorageBackend;
use std::fmt;

/// One damaged (or unreadable) extent found by verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentDamage {
    /// File containing the damage.
    pub file: String,
    /// Byte offset of the damaged extent (0 for whole-file failures).
    pub offset: u64,
    /// Extent length (0 for whole-file failures).
    pub len: u64,
    /// What is damaged, e.g. `bitmap of chunk rank 3` or
    /// `chunk rank 5 byte-group part 2: checksum mismatch`.
    pub what: String,
}

impl ExtentDamage {
    /// Damage to the whole of `file`: one that could not be read or
    /// decoded at all.
    pub(crate) fn whole(file: &str, what: String) -> ExtentDamage {
        ExtentDamage {
            file: file.to_string(),
            offset: 0,
            len: 0,
            what,
        }
    }
}

impl fmt::Display for ExtentDamage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}, {}+{}): {}",
            self.file, self.offset, self.offset, self.len, self.what
        )
    }
}

/// Outcome of verifying a variable or a whole dataset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Files examined.
    pub files_checked: usize,
    /// Extents whose checksum was recomputed.
    pub extents_checked: u64,
    /// Every damaged extent found (empty = clean).
    pub damage: Vec<ExtentDamage>,
}

impl VerifyReport {
    /// Whether no damage was found.
    pub fn is_clean(&self) -> bool {
        self.damage.is_empty()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(
                f,
                "ok: {} file(s), {} extent(s) verified",
                self.files_checked, self.extents_checked
            )
        } else {
            writeln!(
                f,
                "DAMAGED: {} bad extent(s) across {} file(s), {} extent(s) checked",
                self.damage.len(),
                self.files_checked,
                self.extents_checked
            )?;
            for d in &self.damage {
                writeln!(f, "  {d}")?;
            }
            Ok(())
        }
    }
}

/// Damage to `file` as `verify` reports `e`: a corrupt extent where it
/// is, any other failure as the whole file's.
pub(crate) fn damage(file: &str, e: &MlocError) -> ExtentDamage {
    match e {
        MlocError::CorruptExtent {
            file,
            offset,
            len,
            what,
        } => ExtentDamage {
            file: file.clone(),
            offset: *offset,
            len: *len,
            what: what.clone(),
        },
        other => ExtentDamage::whole(file, other.to_string()),
    }
}

/// Prefix the `what` of each entry of `damage`, one file's, with a
/// location label derived from the (intact) index structure.
fn relabel(damage: &mut [ExtentDamage], label: impl Fn(u64) -> Option<String>) {
    for d in damage {
        if let Some(l) = label(d.offset) {
            d.what = format!("{l}: {}", d.what);
        }
    }
}

/// Label the damage of a variable's meta: the one extent of it.
pub(crate) fn label_meta(damage: &mut [ExtentDamage]) {
    relabel(damage, |_| Some("meta".to_string()));
}

/// Check `raw`, the whole file `file` of bin `bin`, and label its
/// damage: the fixed blocks by where the tables are, bitmaps and units
/// by the rows derived from the bin's summaries, or — when the meta that
/// holds them failed — by their table rows. Held to the variable's
/// layout, each bitmap is also taken as a query takes it: a run list of
/// its chunk's count inside its chunk, so one that passes its checksum
/// but not its count is named here, not first by a query. The extents
/// checked, and the damage.
pub(crate) fn bin_damage(
    raw: &[u8],
    file: &str,
    bin: usize,
    layout: Option<&Layout>,
) -> (u64, Vec<ExtentDamage>) {
    let checked = binfile::check(raw, file, layout, bin);
    let mut found: Vec<ExtentDamage> = checked.damage.iter().map(|e| damage(file, e)).collect();
    let end_marker = (raw.len() as u64).saturating_sub(END_LEN);
    let located = |off: u64| {
        let rows = checked.rows.as_ref();
        let bitmap = checked.index.as_ref().and_then(|t| t.position(off));
        if let Some(row) = bitmap.filter(|&i| i > 0) {
            return Some(match rows.and_then(|rows| rows.chunk_of_bitmap(row)) {
                Some(rank) => format!("bitmap of chunk rank {rank}"),
                None => format!("bitmap in index table row {row}"),
            });
        }
        let row = checked.data.as_ref().and_then(|t| t.position(off))?;
        Some(match rows.and_then(|rows| rows.unit_of_row(row)) {
            Some((rank, part)) => format!("chunk rank {rank} byte-group part {part}"),
            None => format!("unit part in data table row {row}"),
        })
    };
    relabel(&mut found, |off| {
        if off == 0 {
            return Some("index header".to_string());
        }
        if off == HEADER_LEN {
            return Some("index checksum table".to_string());
        }
        if let Some(label) = located(off) {
            return Some(label);
        }
        if checked.tables?.data_span().0 == off {
            Some("data checksum table".to_string())
        } else {
            (off == end_marker).then(|| "end marker".to_string())
        }
    });
    (checked.extents, found)
}

/// Add to `report` what verification reports of one variable's scan:
/// its meta, then each bin file its layout numbers — a missing one as
/// damage naming it — then each file of its directory the layout does
/// not name, as damage too: `fsck` calls it orphaned.
fn add(report: &mut VerifyReport, var: VarScan) {
    for f in std::iter::once(var.meta).chain(var.bins.into_iter().map(|(_, f)| f)) {
        report.files_checked += 1;
        report.extents_checked += f.extents;
        report.damage.extend(f.damage);
    }
    let stray = |file: String| ExtentDamage::whole(&file, "not part of the layout".into());
    report.files_checked += var.orphans.len();
    report.damage.extend(var.orphans.into_iter().map(stray));
}

/// Verify every stored extent of one variable, and that each bin file
/// its layout numbers is there. Damaged extents are collected, not
/// fatal: the report lists all of them. Errors are returned only for
/// conditions that prevent verification from running at all: a
/// variable with a file of a format before v7, which `mloc upgrade`
/// copies out and nothing else reads. Unreadable and missing files
/// become damage entries. Reads each file of the variable once, and the
/// catalog, whose configuration holds the bin files to their geometry
/// when the meta is damaged.
pub fn verify_variable(
    backend: &dyn StorageBackend,
    dataset: &str,
    var: &str,
) -> Result<VerifyReport> {
    let mut report = VerifyReport::default();
    (scan(backend, dataset, Some(var))?.vars.into_values()).for_each(|v| add(&mut report, v));
    Ok(report)
}

/// Verify every variable listed in a dataset's catalog, in catalog
/// order, reading each file of the dataset once. Fails only when the
/// catalog itself cannot be read, or a file is of a format before v7;
/// per-variable damage is reported, not fatal.
pub fn verify_dataset(backend: &dyn StorageBackend, name: &str) -> Result<VerifyReport> {
    let Scan { catalog, mut vars } = scan(backend, name, None)?;
    let mut report = VerifyReport::default();
    for scanned in catalog?.1?.vars.iter().filter_map(|var| vars.remove(var)) {
        add(&mut report, scanned);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_variable;
    use crate::config::MlocConfig;
    use mloc_pfs::MemBackend;

    fn build() -> MemBackend {
        let be = MemBackend::new();
        let values: Vec<f64> = (0..256).map(|i| ((i * 37) % 101) as f64).collect();
        let config = MlocConfig::builder(vec![16, 16])
            .chunk_shape(vec![8, 8])
            .num_bins(4)
            .build();
        build_variable(&be, "ds", "v", &values, &config).unwrap();
        be
    }

    /// `raw`, the whole file of bin `bin` of [`build`]'s variable,
    /// parsed in place.
    fn located(be: &MemBackend, bin: usize, raw: &[u8]) -> crate::cache::FixedBlocks {
        let store = crate::store::MlocStore::open(be, "ds", "v").unwrap();
        store.parse_fixed(bin, raw).unwrap()
    }

    /// Chunks of [`build`]'s variable.
    fn num_chunks(be: &MemBackend) -> usize {
        let store = crate::store::MlocStore::open(be, "ds", "v").unwrap();
        store.grid().num_chunks()
    }

    /// Copy every file, flipping one byte of `victim` at `offset`.
    fn corrupt_copy(be: &dyn StorageBackend, victim: &str, offset: u64) -> MemBackend {
        let out = MemBackend::new();
        for f in be.list() {
            let len = be.len(&f).unwrap();
            let mut data = be.read(&f, 0, len).unwrap();
            if f == victim {
                data[offset as usize] ^= 0x20;
            }
            out.create(&f).unwrap();
            out.append(&f, &data).unwrap();
        }
        out
    }

    #[test]
    fn clean_build_verifies() {
        let be = build();
        let report = verify_variable(&be, "ds", "v").unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.files_checked, 5); // meta + 4 bin files
        assert!(report.extents_checked > 9);
        assert!(report.to_string().starts_with("ok:"));
    }

    #[test]
    fn flipped_data_byte_is_pinpointed() {
        let be = build();
        let victim = "ds/v/bin0001.bin";
        let raw = be.read(victim, 0, be.len(victim).unwrap()).unwrap();
        let at = located(&be, 1, &raw);
        let unit = (0..num_chunks(&be))
            .flat_map(|r| (0..7).map(move |p| (r, p)))
            .filter_map(|(r, p)| at.unit(r, p))
            .find(|u| u.clen > 3)
            .unwrap();
        let at = unit.offset + 3;
        let bad = corrupt_copy(&be, victim, at);
        let report = verify_variable(&bad, "ds", "v").unwrap();
        assert_eq!(report.damage.len(), 1, "{report}");
        let d = &report.damage[0];
        assert_eq!(d.file, victim);
        assert!(
            d.what.contains("chunk rank") && d.what.contains("byte-group part"),
            "{}",
            d.what
        );
        assert_eq!((d.offset, d.len), (unit.offset, u64::from(unit.clen)));
    }

    #[test]
    fn flipped_index_header_and_meta_are_labeled() {
        let be = build();
        let header = corrupt_copy(&be, "ds/v/bin0000.bin", 6);
        let r = verify_variable(&header, "ds", "v").unwrap();
        assert_eq!(r.damage.len(), 1, "{r}");
        assert!(
            r.damage[0].what.starts_with("index header"),
            "{}",
            r.damage[0].what
        );

        let meta = corrupt_copy(&be, "ds/v/meta", 9);
        let r = verify_variable(&meta, "ds", "v").unwrap();
        assert_eq!(r.damage.len(), 1, "{r}");
        assert!(r.damage[0].what.starts_with("meta"), "{}", r.damage[0].what);
    }

    /// A flipped byte of a bin's summaries, in the meta, is damage to
    /// the meta; every bin file, its tables found by their own
    /// checksums, verifies clean.
    #[test]
    fn flipped_summary_byte_is_pinpointed() {
        let be = build();
        let victim = "ds/v/meta";
        let len = be.len(victim).unwrap();
        let store = crate::store::MlocStore::open(&be, "ds", "v").unwrap();
        let sections = store.summaries().as_bytes().len() as u64;
        // The summaries end the meta's payload, before its footer.
        let footer = crate::integrity::TRAILER_LEN + 8;
        let at = len - footer - sections / 2;
        let bad = corrupt_copy(&be, victim, at);
        let report = verify_variable(&bad, "ds", "v").unwrap();
        assert_eq!(report.damage.len(), 1, "{report}");
        let d = &report.damage[0];
        assert_eq!((d.file.as_str(), d.offset), (victim, 0));
        assert!(d.what.starts_with("meta"), "{}", d.what);
        assert_eq!(report.files_checked, 5);
    }

    /// A header stating a chunk count near `u32::MAX`, plus a flipped
    /// byte in a later chunk's bitmap, footer not recomputed: both
    /// extents are reported — the bitmap by its chunk, which the meta's
    /// summaries name whatever the header says — and nothing panics or
    /// sizes anything by the stated count.
    #[test]
    fn damaged_header_offsets_never_panic_and_all_damage_is_reported() {
        let be = build();
        let victim = "ds/v/bin0001.bin";
        let raw = be.read(victim, 0, be.len(victim).unwrap()).unwrap();
        let at = located(&be, 1, &raw);
        let with_bitmap: Vec<usize> = (0..num_chunks(&be))
            .filter(|&r| at.bitmap(r).is_some())
            .collect();
        let later = *with_bitmap.last().unwrap();
        assert!(with_bitmap.len() > 1, "two chunks with bitmaps");
        let bitmap_at = at.bitmap(later).unwrap().0;
        let out = corrupt_copy(&be, victim, bitmap_at + 1);
        let mut bad = out.read(victim, 0, raw.len() as u64).unwrap();
        bad[9..13].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        out.create(victim).unwrap();
        out.append(victim, &bad).unwrap();

        let report = verify_variable(&out, "ds", "v").unwrap();
        assert_eq!(report.damage.len(), 2, "{report}");
        assert_eq!(report.damage[0].offset, 0);
        assert!(
            report.damage[0].what.starts_with("index header"),
            "{report}"
        );
        let d = &report.damage[1];
        assert_eq!(d.file, victim);
        assert_eq!(d.offset, bitmap_at);
        let want = format!("bitmap of chunk rank {later}: checksum mismatch");
        assert_eq!(d.what, want);
    }

    /// With the meta gone, a flipped bitmap byte is still pinpointed:
    /// the file's tables, found by their own checksums, locate every
    /// extent, and the label names its table row.
    #[test]
    fn without_the_meta_a_flipped_bitmap_byte_is_pinpointed() {
        let be = build();
        let victim = "ds/v/bin0002.bin";
        let raw = be.read(victim, 0, be.len(victim).unwrap()).unwrap();
        let at = located(&be, 2, &raw);
        let rank = (0..num_chunks(&be))
            .find(|&r| at.bitmap(r).is_some())
            .unwrap();
        let (bitmap_at, len) = at.bitmap(rank).unwrap();
        let row = at.rows.bitmap_row(rank).unwrap();
        let bad = corrupt_copy(&be, victim, bitmap_at);
        bad.remove("ds/v/meta").unwrap();
        let report = verify_variable(&bad, "ds", "v").unwrap();
        let found: Vec<(&str, u64, u64, &str)> = (report.damage.iter())
            .filter(|d| d.file == victim)
            .map(|d| (d.file.as_str(), d.offset, d.len, d.what.as_str()))
            .collect();
        let what = format!("bitmap in index table row {row}: checksum mismatch");
        assert_eq!(found, [(victim, bitmap_at, u64::from(len), what.as_str())]);
    }

    #[test]
    fn torn_file_reported_as_damage() {
        let be = build();
        let victim = "ds/v/bin0002.bin";
        let out = MemBackend::new();
        for f in be.list() {
            let len = be.len(&f).unwrap();
            let keep = if f == victim { len - 13 } else { len };
            let data = be.read(&f, 0, keep).unwrap();
            out.create(&f).unwrap();
            out.append(&f, &data).unwrap();
        }
        // The end marker is gone, and the last unit runs past the end.
        let report = verify_variable(&out, "ds", "v").unwrap();
        assert_eq!(report.damage.len(), 2, "{report}");
        assert!(report.damage.iter().all(|d| d.file == victim), "{report}");
        assert!(
            report.damage[0].what.contains("byte-group part"),
            "{report}"
        );
        assert!(report.damage[1].what.starts_with("end marker"), "{report}");
    }

    /// A bin file the meta numbers but the store lacks is damage naming
    /// the file, whether one variable or the dataset is verified.
    #[test]
    fn a_missing_bin_file_is_damage_naming_it() {
        let be = MemBackend::new();
        let config = MlocConfig::builder(vec![16, 16])
            .chunk_shape(vec![8, 8])
            .num_bins(8)
            .build();
        let ds = crate::dataset::Dataset::create(&be, "ds", config).unwrap();
        let values: Vec<f64> = (0..256).map(|i| ((i * 37) % 101) as f64).collect();
        ds.add_variable("a", &values).unwrap();
        let gone = "ds/a/bin0003.bin";
        be.remove(gone).unwrap();
        for report in [
            verify_variable(&be, "ds", "a").unwrap(),
            verify_dataset(&be, "ds").unwrap(),
        ] {
            assert_eq!(report.files_checked, 9, "{report}");
            let files: Vec<&str> = report.damage.iter().map(|d| d.file.as_str()).collect();
            assert_eq!(files, [gone], "{report}");
        }
    }

    /// A file of the variable's directory its layout does not name — a
    /// stray, a bin file numbered past the bin count — is counted and
    /// named as damage, as `fsck` names it orphaned.
    #[test]
    fn a_file_the_layout_does_not_name_is_damage() {
        let be = build();
        let copy = be.read("ds/v/bin0001.bin", 0, be.len("ds/v/bin0001.bin").unwrap());
        for (file, raw) in [
            ("ds/v/junk", b"junk".to_vec()),
            ("ds/v/bin0009.bin", copy.unwrap()),
        ] {
            be.create(file).unwrap();
            be.append(file, &raw).unwrap();
        }
        let clean = verify_variable(&build(), "ds", "v").unwrap();
        let report = verify_variable(&be, "ds", "v").unwrap();
        assert_eq!(report.files_checked, clean.files_checked + 2, "{report}");
        assert_eq!(report.extents_checked, clean.extents_checked, "{report}");
        let named: Vec<(&str, &str)> = (report.damage.iter())
            .map(|d| (d.file.as_str(), d.what.as_str()))
            .collect();
        assert_eq!(
            named,
            [
                ("ds/v/junk", "not part of the layout"),
                ("ds/v/bin0009.bin", "not part of the layout")
            ],
            "{report}"
        );
    }

    #[test]
    fn dataset_verify_walks_catalog() {
        let be = MemBackend::new();
        let config = MlocConfig::builder(vec![16, 16])
            .chunk_shape(vec![8, 8])
            .num_bins(2)
            .build();
        let ds = crate::dataset::Dataset::create(&be, "sim", config).unwrap();
        let values: Vec<f64> = (0..256).map(|i| i as f64).collect();
        ds.add_variable("a", &values).unwrap();
        ds.add_variable("b", &values).unwrap();
        let report = verify_dataset(&be, "sim").unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.files_checked, 2 * (1 + 2));
    }
}
