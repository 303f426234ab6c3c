//! Offline integrity verification (`mloc verify`).
//!
//! Recomputes every checksum recorded in the extent footers of a
//! variable's files — meta, every bin index, every bin data file — and
//! reports each damaged extent with a human-readable label (which
//! chunk's bitmap, which byte-group part). Unlike the query path,
//! which stops at the first unreadable extent it needs, verification
//! keeps going and maps *all* the damage, so an operator can decide
//! whether a degraded dataset is worth keeping.

use crate::fileorg::{self, VarFile};
use crate::index::HeaderView;
use crate::integrity::{ExtentFooter, TRAILER_LEN};
use crate::{MlocError, Result};
use mloc_pfs::StorageBackend;
use std::collections::BTreeSet;
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

    /// Fold another report into this one.
    pub fn merge(&mut self, other: VerifyReport) {
        self.files_checked += other.files_checked;
        self.extents_checked += other.extents_checked;
        self.damage.extend(other.damage);
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

fn damage_from_error(file: &str, e: &MlocError) -> ExtentDamage {
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
        other => ExtentDamage {
            file: file.to_string(),
            offset: 0,
            len: 0,
            what: other.to_string(),
        },
    }
}

/// Read one file and check every footer extent of it, recording damage
/// instead of stopping. Returns the raw bytes and parsed footer when
/// the footer itself is intact (payload extents may still be bad).
fn check_file(
    backend: &dyn StorageBackend,
    file: &str,
    report: &mut VerifyReport,
) -> Option<(Vec<u8>, ExtentFooter)> {
    report.files_checked += 1;
    let raw = match fileorg::read_file(backend, file) {
        Ok(raw) => raw,
        Err(e) => {
            report.damage.push(ExtentDamage {
                file: file.to_string(),
                offset: 0,
                len: 0,
                what: format!("file unreadable: {e}"),
            });
            return None;
        }
    };
    let file_len = raw.len() as u64;
    if file_len < TRAILER_LEN {
        report.damage.push(ExtentDamage {
            file: file.to_string(),
            offset: 0,
            len: file_len,
            what: "file shorter than footer trailer (torn write?)".to_string(),
        });
        return None;
    }
    let trailer = &raw[raw.len() - TRAILER_LEN as usize..];
    let (payload_len, _) = match ExtentFooter::decode_trailer(trailer, file_len, file) {
        Ok(v) => v,
        Err(e) => {
            report.damage.push(damage_from_error(file, &e));
            return None;
        }
    };
    let footer = match ExtentFooter::decode(&raw[payload_len as usize..], file_len, file) {
        Ok(f) => f,
        Err(e) => {
            report.damage.push(damage_from_error(file, &e));
            return None;
        }
    };
    for i in 0..footer.num_extents() {
        let (off, len, _) = footer.extent(i);
        report.extents_checked += 1;
        let slice = &raw[off as usize..(off + u64::from(len)) as usize];
        if let Err(e) = footer.verify(file, off, slice) {
            report.damage.push(damage_from_error(file, &e));
        }
    }
    Some((raw, footer))
}

/// Rewrite the `what` of damage entries in `file` with a location
/// label derived from the (intact) index structure.
fn relabel(report: &mut VerifyReport, file: &str, label: impl Fn(u64) -> Option<String>) {
    for d in report.damage.iter_mut().filter(|d| d.file == file) {
        if let Some(l) = label(d.offset) {
            d.what = format!("{l}: {}", d.what);
        }
    }
}

/// Verify every stored extent of one variable. Damaged extents are
/// collected, not fatal: the report lists all of them. Errors are
/// returned only for conditions that prevent verification from running
/// at all (none currently — unreadable files become damage entries).
pub fn verify_variable(
    backend: &dyn StorageBackend,
    dataset: &str,
    var: &str,
) -> Result<VerifyReport> {
    let mut report = VerifyReport::default();

    // Enumerate bins from the directory listing rather than the meta
    // file, so a destroyed meta does not hide bin damage.
    let bins: BTreeSet<usize> = backend
        .list()
        .iter()
        .filter_map(|f| match fileorg::var_file(dataset, f) {
            Some((v, VarFile::Data(bin) | VarFile::Index(bin))) if v == var => Some(bin),
            _ => None,
        })
        .collect();

    let meta_name = fileorg::meta_file(dataset, var);
    check_file(backend, &meta_name, &mut report);
    relabel(&mut report, &meta_name, |_| Some("meta".to_string()));

    for bin in bins {
        let idx_file = fileorg::index_file(dataset, var, bin);
        let dat_file = fileorg::data_file(dataset, var, bin);

        // Location labels come only from a header whose own extent
        // (extent 0) verified: a damaged header may say anything.
        let header = check_file(backend, &idx_file, &mut report).and_then(|(mut raw, footer)| {
            let (off, len, _) = (footer.num_extents() > 0).then(|| footer.extent(0))?;
            raw.truncate(len as usize);
            footer.verify(&idx_file, off, &raw).ok()?;
            HeaderView::parse(raw).ok()
        });
        relabel(&mut report, &idx_file, |off| {
            if off == 0 {
                return Some("index header".to_string());
            }
            let idx = header.as_ref()?;
            if idx.summary_bytes() > 0 && off == idx.summary_file_offset() {
                return Some("chunk summary".to_string());
            }
            (0..idx.num_chunks())
                .find(|&r| idx.bitmap_len(r) > 0 && idx.bitmap_file_offset(r) == off)
                .map(|r| format!("bitmap of chunk rank {r}"))
        });

        check_file(backend, &dat_file, &mut report);
        relabel(&mut report, &dat_file, |off| {
            let idx = header.as_ref()?;
            (0..idx.num_chunks()).find_map(|r| {
                let p = idx.units(r).position(|u| u.clen > 0 && u.offset == off)?;
                Some(format!("chunk rank {r} byte-group part {p}"))
            })
        });
    }

    Ok(report)
}

/// Verify every variable listed in a dataset's catalog. Fails only
/// when the catalog itself cannot be read; per-variable damage is
/// reported, not fatal.
pub fn verify_dataset(backend: &dyn StorageBackend, name: &str) -> Result<VerifyReport> {
    let ds = crate::dataset::Dataset::open(backend, name)?;
    let mut report = VerifyReport::default();
    for var in ds.variables()? {
        report.merge(verify_variable(backend, name, &var)?);
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
        assert_eq!(report.files_checked, 9); // meta + 4 × (idx + dat)
        assert!(report.extents_checked > 9);
        assert!(report.to_string().starts_with("ok:"));
    }

    #[test]
    fn flipped_data_byte_is_pinpointed() {
        let be = build();
        let victim = "ds/v/bin0001.dat";
        let bad = corrupt_copy(&be, victim, 3);
        let report = verify_variable(&bad, "ds", "v").unwrap();
        assert_eq!(report.damage.len(), 1, "{report}");
        let d = &report.damage[0];
        assert_eq!(d.file, victim);
        assert!(
            d.what.contains("chunk rank") && d.what.contains("byte-group part"),
            "{}",
            d.what
        );
        assert!(d.offset <= 3 && 3 < d.offset + d.len);
    }

    #[test]
    fn flipped_index_header_and_meta_are_labeled() {
        let be = build();
        let idx = corrupt_copy(&be, "ds/v/bin0000.idx", 6);
        let r = verify_variable(&idx, "ds", "v").unwrap();
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

    #[test]
    fn flipped_summary_byte_is_pinpointed() {
        let be = build();
        let victim = "ds/v/bin0000.idx";
        let len = be.len(victim).unwrap();
        let raw = be.read(victim, 0, len).unwrap();
        let idx = HeaderView::parse(&raw[..]).unwrap();
        assert!(idx.summary_bytes() > 0, "fixture should build v2 indexes");
        let bad = corrupt_copy(&be, victim, idx.summary_file_offset() + 5);
        let report = verify_variable(&bad, "ds", "v").unwrap();
        assert_eq!(report.damage.len(), 1, "{report}");
        let d = &report.damage[0];
        assert!(d.what.starts_with("chunk summary"), "{}", d.what);
        assert_eq!(d.offset, idx.summary_file_offset());
        assert_eq!(d.len, idx.summary_bytes());
    }

    /// A header stating an offset past every file (`u64::MAX`) for one
    /// chunk, plus a flipped byte in a later chunk's bitmap, footer not
    /// recomputed: both extents are reported, the bitmap without a
    /// label (the header that would give it one failed its own
    /// checksum), and nothing panics — labelling once added the stored
    /// offset to the header size unchecked.
    #[test]
    fn damaged_header_offsets_never_panic_and_all_damage_is_reported() {
        let be = build();
        let victim = "ds/v/bin0001.idx";
        let raw = be.read(victim, 0, be.len(victim).unwrap()).unwrap();
        let idx = HeaderView::parse(&raw[..]).unwrap();
        let with_bitmap: Vec<usize> = (0..idx.num_chunks())
            .filter(|&r| idx.bitmap_len(r) > 0)
            .collect();
        let (first, later) = (with_bitmap[0], *with_bitmap.last().unwrap());
        assert!(first < later, "two chunks with bitmaps");
        let flip_at = idx.bitmap_file_offset(later) + 1;
        let parts = crate::store::MlocStore::open(&be, "ds", "v")
            .unwrap()
            .config()
            .num_parts();
        // `bitmap_off` of `first`: prologue, `first` entries, count.
        let field = 14 + first * (16 + 12 * parts) + 4;
        let out = corrupt_copy(&be, victim, flip_at);
        let mut bad = out.read(victim, 0, raw.len() as u64).unwrap();
        bad[field..field + 8].copy_from_slice(&u64::MAX.to_le_bytes());
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
        assert_eq!(d.offset, idx.bitmap_file_offset(later));
        assert!(d.what.starts_with("checksum"), "{}", d.what);
    }

    /// The checked-in v1 dataset (written by the v1 writer that no
    /// longer exists) verifies and fscks clean, read-only off its
    /// directory, and v1 bitmap damage still gets a chunk label.
    #[test]
    fn downgraded_v1_files_verify_clean() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/v1_dataset");
        let be = mloc_pfs::DirBackend::uncached(dir).unwrap();
        let report = verify_dataset(&be, "fmt").unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.files_checked, 17);
        let fsck = crate::repair::fsck(&be, "fmt").unwrap();
        assert!(fsck.is_clean(), "{fsck}");
        assert_eq!(fsck.committed, vec!["v"]);

        let victim = "fmt/v/bin0000.idx";
        let raw = be.read(victim, 0, be.len(victim).unwrap()).unwrap();
        let idx = HeaderView::parse(&raw[..]).unwrap();
        assert_eq!(idx.summary_bytes(), 0, "a v1 file");
        let rank = (0..idx.num_chunks())
            .find(|&r| idx.bitmap_len(r) > 0)
            .unwrap();
        let bad = corrupt_copy(&be, victim, idx.bitmap_file_offset(rank) + 1);
        let r = verify_variable(&bad, "fmt", "v").unwrap();
        assert_eq!(r.damage.len(), 1, "{r}");
        assert!(
            r.damage[0]
                .what
                .starts_with(&format!("bitmap of chunk rank {rank}")),
            "{}",
            r.damage[0].what
        );
    }

    #[test]
    fn torn_file_reported_as_damage() {
        let be = build();
        let victim = "ds/v/bin0002.dat";
        let out = MemBackend::new();
        for f in be.list() {
            let len = be.len(&f).unwrap();
            let keep = if f == victim { len - 10 } else { len };
            let data = be.read(&f, 0, keep).unwrap();
            out.create(&f).unwrap();
            out.append(&f, &data).unwrap();
        }
        let report = verify_variable(&out, "ds", "v").unwrap();
        assert_eq!(report.damage.len(), 1, "{report}");
        assert_eq!(report.damage[0].file, victim);
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
        assert_eq!(report.files_checked, 2 * (1 + 2 * 2));
    }
}
