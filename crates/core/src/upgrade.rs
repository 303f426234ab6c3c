//! `mloc upgrade`: copy a store of format v6 out as v7.
//!
//! A v6 store is laid out as a v7 one — one file per bin, the chunk
//! summaries in the meta ([`crate::binfile`]) — but each unit part is a
//! self-describing stream: a magic, lengths and, for DEFLATE, an
//! Adler-32 in front of the coded bytes ([`mloc_compress::v6`]), where
//! v7 stores the codec's payload alone. Nothing else in this crate
//! reads v6: every other reader, and every build into such a dataset,
//! refuses it with [`MlocError::NeedsUpgrade`], before reading or
//! changing anything. The formats before v6 are refused here too, the
//! error naming the hop: the `mloc upgrade` of the CLI at commit
//! a0307bd copies them out as v6, this one copies that out as v7.
//!
//! An upgrade reads the old store, never writing to it, and writes the
//! dataset, under the same name, into another backend: the catalog
//! header, then per variable the catalog lists:
//!
//! 1. every old bin file is verified whole against its meta's
//!    summaries, as `verify` checks a v7 one, so damage fails the
//!    upgrade with the damaged extent named before anything of the
//!    variable is written;
//! 2. each bin file is rebuilt by [`BinFileBuilder`]: each chunk's run
//!    list is taken as it is stored, held to its count, and each
//!    lossless unit part is decoded by the v6 reader and encoded again
//!    by the v7 encoder — so the file is byte for byte the one a build
//!    of the same field writes. An ISABELA or FPC part, whose stream v7
//!    keeps, is copied verbatim when it is shorter than its raw bytes,
//!    as a v7 build stores it; one that is not is decoded and stored as
//!    the values it decodes to, the raw form v7 gives it;
//! 3. the files are committed through the build's own write stage
//!    ([`write_variable`]: bin files synced, then the meta), then the
//!    variable is registered in the catalog.
//!
//! So the new store's crash states are a build's, which `fsck` and
//! `repair` already classify. A variable already in v7 (one whose files
//! were copied into a v6 dataset) is copied after the same whole-file
//! check. The old store is left as it was: remove it once `verify`
//! passes on the new one.

use crate::binfile::{self, BinFile, BinFileBuilder, Layout};
use crate::build::{into_meta_parts, write_variable};
use crate::config::MlocConfig;
use crate::dataset::{parse_catalog, register, Dataset};
use crate::fileorg::{self, read_file, VarFile};
use crate::index;
use crate::integrity::ExtentFooter;
use crate::plod::PART_BYTES;
use crate::store::{self, VariableMeta};
use crate::{MlocError, Result};
use mloc_bitmap::RunListRef;
use mloc_compress::{v6, CodecKind};
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

/// The error every reader gives `file`, a file of format `version`
/// before the current one — the upgrade too, for one before v6.
pub(crate) fn needed(file: &str, version: u8) -> MlocError {
    MlocError::NeedsUpgrade {
        file: file.to_string(),
        version,
    }
}

/// Refuse dataset `ds` when any file of it is of a format before v7 — a
/// meta of an older version, a bin's index or data file (v1/v2), or,
/// for a variable with no current meta to say so, a bin file whose
/// header says v3 to v6 — so that no checker reads such a store as
/// damage, or repairs it, and no build adds to it.
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
            Some(Ok((version, _))) => return Err(needed(f, version)),
            _ => {}
        }
    }
    for f in &files {
        let old = match fileorg::var_file(ds, f) {
            Some((var, VarFile::Bin(_))) if !current.contains(var) => {
                backend.read(f, 0, 5).ok().and_then(|prologue| {
                    let magic = index::MAGIC.to_le_bytes();
                    let version = prologue.get(4).copied()?;
                    (prologue.starts_with(&magic) && (3..index::VERSION).contains(&version))
                        .then_some(version)
                })
            }
            Some((_, VarFile::Stray)) => {
                let base = f.rsplit('/').next().unwrap_or_default();
                let v2 = [".idx", ".dat"]
                    .iter()
                    .any(|ext| fileorg::bin_number(base, ext).is_some());
                v2.then_some(2)
            }
            _ => None,
        };
        if let Some(version) = old {
            return Err(needed(f, version));
        }
    }
    Ok(())
}

/// Copy dataset `ds` of `old`, a v6 store, out to `new` as format v7.
/// `new` must not hold the dataset yet. Fails on the first damaged
/// file, naming it, and on a variable of a format before v6; the
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
        if version < store::PREVIOUS {
            return Err(needed(&meta_name, version));
        }
        let layout = Layout::of(&meta.config).with_summaries(meta.summaries.clone());
        let bins = 0..meta.config.num_bins;
        let read = |bin| {
            let file = fileorg::bin_file(ds, &var, bin);
            read_file(old, &file).map(|raw| (file, raw))
        };
        let files = if version == store::VERSION {
            let current = |bin| {
                let (file, raw) = read(bin)?;
                binfile::verified(&raw, &file, Some(&layout), bin).map(|()| raw)
            };
            bins.map(current).collect::<Result<Vec<_>>>()?
        } else {
            let rebuilt = |bin| {
                let (file, raw) = read(bin)?;
                from_v6(&raw, &file, bin, &layout, &meta.config)
            };
            let files = bins.map(rebuilt).collect::<Result<Vec<_>>>()?;
            let (files, summaries) = into_meta_parts(files, layout.geometry.0)?;
            meta.summaries = summaries;
            files
        };
        report.bin_files += files.len();
        // One writer: the same write ops in the same order on every run.
        write_variable(new, ds, &meta, files, 1)?;
        register(new, ds, &var)?;
        report.variables.push(var);
    }
    Ok(report)
}

/// `raw`, the v6 bin file `file` of bin `bin`, verified whole and
/// rebuilt as a v7 bin file whose parts `codec` encodes.
fn from_v6(
    raw: &[u8],
    file: &str,
    bin: usize,
    layout: &Layout,
    config: &MlocConfig,
) -> Result<BinFile> {
    let checked = binfile::check_of(raw, file, Some(layout), bin, store::PREVIOUS);
    let (Some(rows), Some(index), Some(data)) = (checked.rows, checked.index, checked.data) else {
        return Err(checked
            .damage
            .into_iter()
            .next()
            .unwrap_or(MlocError::Corrupt("bin file unreadable")));
    };
    if let Some(damage) = checked.damage.into_iter().next() {
        return Err(damage);
    }
    // The check held every extent below to its table and the file.
    const UNREAD: MlocError = MlocError::Corrupt("extent not in the verified file");
    let extent = |loc: Option<(u64, u32)>| {
        loc.and_then(|(at, len)| binfile::span(raw, (at, u64::from(len))))
            .ok_or(UNREAD)
    };
    let (num_chunks, num_parts) = layout.geometry;
    let summaries = layout.summaries(bin).ok_or(UNREAD)?;
    let set = (0..num_chunks).filter(|&rank| summaries.count(rank) > 0);
    // Every set chunk's re-encoded parts, held until the builder lays
    // them out.
    let mut units: Vec<(usize, Vec<Vec<u8>>)> = Vec::new();
    for rank in set {
        let count = summaries.count(rank) as usize;
        let parts = (0..num_parts)
            .map(|part| {
                let loc = rows.unit(&data, rank, part).map(|l| (l.offset, l.clen));
                let width = if config.plod { PART_BYTES[part] } else { 8 };
                reencode(config.codec, config.plod, extent(loc)?, count * width)
            })
            .collect::<Result<Vec<_>>>()?;
        units.push((rank, parts));
    }
    let mut out = BinFileBuilder::new(bin as u32, num_chunks, num_parts, layout.level_order);
    for (rank, parts) in &units {
        let pairs = extent(rows.bitmap(&index, *rank))?;
        let count = summaries.count(*rank).into();
        let runs = RunListRef::stored(pairs, count, layout.points(*rank))
            .map_err(|_| MlocError::Corrupt("index bitmap inconsistent"))?;
        let parts: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        out.set_chunk(*rank, runs, &parts);
    }
    out.finish()
}

/// The v7 payload of `stored`, a v6 part of `raw_len` raw bytes — a
/// PLoD byte part when `plod`, else a whole-value unit — of a
/// variable compressed with `codec`.
fn reencode(codec: CodecKind, plod: bool, stored: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let bytes = match codec {
        CodecKind::Raw => stored.to_vec(),
        CodecKind::Deflate => v6::deflate(stored)?,
        CodecKind::Isobar if plod => v6::isobar_bytes(stored)?,
        CodecKind::Isobar => mloc_compress::f64s_to_bytes(&v6::isobar_f64(stored)?),
        // v7 keeps these streams: a shorter one is its own payload.
        CodecKind::Isabela { .. } | CodecKind::Fpc if stored.len() < raw_len => {
            return Ok(stored.to_vec())
        }
        CodecKind::Isabela { .. } | CodecKind::Fpc => {
            let values = codec.float_codec().expand_f64(stored, raw_len / 8)?;
            mloc_compress::f64s_to_bytes(&values)
        }
    };
    if bytes.len() != raw_len {
        return Err(MlocError::Corrupt("unit length mismatch"));
    }
    Ok(if plod {
        codec.byte_codec().encode(&bytes)
    } else {
        codec
            .float_codec()
            .encode_f64(&mloc_compress::bytes_to_f64s(&bytes)?)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use crate::integrity::ExtentFooter;
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

    fn put(be: &dyn StorageBackend, f: &str, raw: &[u8]) {
        be.create(f).unwrap();
        be.append(f, raw).unwrap();
    }

    /// The error names `mloc upgrade`, and for a format before v6 the
    /// hop through the CLI that still reads it.
    fn refused<T: std::fmt::Debug>(got: Result<T>, ctx: &str, version: u8) {
        match got {
            Err(e @ MlocError::NeedsUpgrade { .. }) => {
                let msg = e.to_string();
                assert!(msg.contains("`mloc upgrade"), "{ctx}: {msg}");
                assert_eq!(msg.contains("a0307bd"), version < 6, "{ctx}: {msg}");
            }
            other => panic!("{ctx}: {other:?}"),
        }
    }

    /// The v6 fixture, and the shapes of the formats before it that a
    /// reader tells by what it reads first: the meta's version byte
    /// (2 to 5, its footer resealed). Each with its format version.
    fn old_stores() -> Vec<(u8, MemBackend)> {
        let mut out = vec![(6, fixtures::mem(6))];
        for version in [2, 3, 4, 5] {
            let be = fixtures::mem(6);
            let raw = read_file(&be, "fmt/v/meta").unwrap();
            let mut meta = ExtentFooter::split_verified(&raw, "meta").unwrap().to_vec();
            meta[4] = version;
            let footer = ExtentFooter::compute(&meta, &[meta.len() as u32]);
            meta.extend_from_slice(&footer.encode());
            put(&be, "fmt/v/meta", &meta);
            out.push((version, be));
        }
        out
    }

    /// With the meta gone, the bin files tell: by their names (v1/v2),
    /// or by their headers' version (v3 to v6).
    fn without_meta(be: &MemBackend, version: u8) {
        be.remove("fmt/v/meta").unwrap();
        match version {
            2 => {
                for bin in 0..8 {
                    be.remove(&format!("fmt/v/bin{bin:04}.bin")).unwrap();
                }
                put(be, "fmt/v/bin0000.idx", b"old");
                put(be, "fmt/v/bin0000.dat", b"old");
            }
            6 => {}
            _ => {
                for bin in 0..8 {
                    let file = format!("fmt/v/bin{bin:04}.bin");
                    let mut raw = read_file(be, &file).unwrap();
                    raw[4] = version;
                    put(be, &file, &raw);
                }
            }
        }
    }

    /// Opening, verifying, checking and repairing an old store each fail
    /// with the error naming `mloc upgrade` and change no file — also
    /// once its meta is gone and only the bins' files tell.
    #[test]
    fn old_stores_are_refused_and_left_untouched() {
        for (version, be) in old_stores() {
            let before = snapshot(&be);
            let ctx = format!("v{version}");
            refused(MlocStore::open(&be, "fmt", "v").map(drop), &ctx, version);
            refused(verify_dataset(&be, "fmt"), &ctx, version);
            refused(fsck(&be, "fmt"), &ctx, version);
            refused(repair(&be, "fmt"), &ctx, version);
            assert_eq!(snapshot(&be), before, "{ctx}");

            without_meta(&be, version);
            let before = snapshot(&be);
            refused(fsck(&be, "fmt"), &ctx, version);
            refused(repair(&be, "fmt"), &ctx, version);
            assert_eq!(snapshot(&be), before, "{ctx}: meta gone");
        }
    }

    /// A build into an old dataset — one-shot or streamed, a variable
    /// or a time step — fails with the error naming `mloc upgrade`
    /// before it writes anything.
    #[test]
    fn builds_into_old_datasets_are_refused_and_write_nothing() {
        let values: Vec<f64> = (0..64 * 64).map(|i| f64::from(i % 97)).collect();
        for (version, be) in old_stores() {
            let before = snapshot(&be);
            let ds = Dataset::open(&be, "fmt").unwrap();
            let ctx = format!("v{version}");
            refused(ds.add_variable("w", &values), &ctx, version);
            refused(ds.add_timestep("w", 1, &values), &ctx, version);
            refused(ds.stream_variable("w", &values).map(drop), &ctx, version);
            refused(ds.stream_timestep("w", 1, &values).map(drop), &ctx, version);
            assert_eq!(snapshot(&be), before, "{ctx}");
        }
    }

    /// The v6 fixture upgrades to a store that verifies and checks
    /// clean, whose meta and bin files say v7; the old store is read,
    /// never written. A store of a format before v6 is refused by the
    /// upgrade too, naming the hop, and nothing of it is committed.
    #[test]
    fn the_v6_fixture_upgrades_to_one_v7_store() {
        let old = fixtures::mem(6);
        let before = snapshot(&old);
        let new = MemBackend::new();
        let report = upgrade(&old, &new, "fmt").unwrap();
        assert_eq!((report.variables, report.bin_files), (vec!["v".into()], 8));
        assert_eq!(snapshot(&old), before);
        assert!(verify_dataset(&new, "fmt").unwrap().is_clean());
        assert!(fsck(&new, "fmt").unwrap().is_clean());
        let upgraded = snapshot(&new);
        assert_eq!(upgraded.len(), 10, "catalog, meta, 8 bin files");
        for (f, raw) in &upgraded {
            if f.ends_with(".bin") {
                assert_eq!(raw[4], index::VERSION, "{f}");
            }
        }
        // The parts shrank; nothing else did.
        let bytes = |files: &[(String, Vec<u8>)]| files.iter().map(|(_, r)| r.len()).sum::<usize>();
        assert!(bytes(&upgraded) < bytes(&before));
        // A dataset already in the destination is never overwritten.
        assert!(upgrade(&fixtures::mem(6), &new, "fmt").is_err());

        for (version, old) in old_stores().into_iter().skip(1) {
            let new = MemBackend::new();
            refused(upgrade(&old, &new, "fmt"), &format!("v{version}"), version);
            assert!(fsck(&new, "fmt").unwrap().committed.is_empty());
        }
    }

    /// A damaged v6 bin file fails the upgrade and commits nothing of
    /// the variable: a flipped header byte or unit byte by its
    /// checksum, naming the extent; a run list edited under a resealed
    /// index table — no checksum sees it — by the walk that holds it to
    /// its summary, at its extent; and a unit part's stream edited under
    /// a resealed data table by the v6 reader's own checksum.
    #[test]
    fn a_damaged_v6_bin_file_fails_the_upgrade_and_commits_nothing() {
        let file = "fmt/v/bin0002.bin";
        let damaged = |edit: &dyn Fn(&mut Vec<u8>)| {
            let old = fixtures::mem(6);
            let mut raw = read_file(&old, file).unwrap();
            edit(&mut raw);
            put(&old, file, &raw);
            let new = MemBackend::new();
            let got = upgrade(&old, &new, "fmt");
            assert!(fsck(&new, "fmt").unwrap().committed.is_empty());
            got.unwrap_err()
        };
        match damaged(&|raw| raw[6] ^= 0x01) {
            MlocError::CorruptExtent {
                file: f, offset, ..
            } => assert_eq!((f.as_str(), offset), (file, 0)),
            other => panic!("{other}"),
        }
        let old = fixtures::mem(6);
        let raw = read_file(&old, file).unwrap();
        let (_, meta) = VariableMeta::decode_any(
            ExtentFooter::split_verified(&read_file(&old, "fmt/v/meta").unwrap(), "meta").unwrap(),
        )
        .unwrap();
        let layout = Layout::of(&meta.config).with_summaries(meta.summaries.clone());
        let checked = binfile::check_of(&raw, file, Some(&layout), 2, store::PREVIOUS);
        assert!(checked.damage.is_empty());
        let (rows, index, data) = (
            checked.rows.unwrap(),
            checked.index.unwrap(),
            checked.data.unwrap(),
        );
        let tables = checked.tables.unwrap();
        let rank = (0..16).find(|&r| rows.bitmap_row(r).is_some()).unwrap();
        let unit = rows.unit(&data, rank, 0).unwrap();
        match damaged(&|raw| raw[unit.offset as usize + 4] ^= 0x10) {
            MlocError::CorruptExtent { offset, what, .. } => {
                assert_eq!((offset, what.as_str()), (unit.offset, "checksum mismatch"))
            }
            other => panic!("{other}"),
        }
        let (bitmap_at, len) = rows.bitmap(&index, rank).unwrap();
        let reword = |raw: &mut Vec<u8>| {
            // The last run one point longer or shorter.
            raw[(bitmap_at + u64::from(len)) as usize - 1] ^= 0x01;
            binfile::reseal_index(raw, tables, file);
        };
        match damaged(&reword) {
            MlocError::CorruptExtent { offset, len: n, .. } => {
                assert_eq!((offset, n), (bitmap_at, u64::from(len)))
            }
            other => panic!("{other}"),
        }
        let restream = |raw: &mut Vec<u8>| {
            // The part's last byte: a stored byte, or the coded
            // symbols' — either way what the stream's Adler-32 covers.
            let at = (unit.offset + u64::from(unit.clen)) as usize - 1;
            raw[at] ^= 0x01;
            let (at, len) = tables.data_span();
            let span = at as usize..(at + len) as usize;
            let lens: Vec<u32> = (0..data.num_extents()).map(|i| data.extent(i).1).collect();
            let units_at = data.extent(0).0;
            let table = ExtentFooter::compute_table(raw, at, &[(0, units_at)], &lens);
            raw[span].copy_from_slice(&table.encode_table());
        };
        let err = damaged(&restream);
        assert!(matches!(err, MlocError::Codec(_)), "{err}");
    }

    /// A v7 variable whose files sit in a v6 dataset — copied in at
    /// file level from a build with the dataset's configuration, and
    /// registered in its catalog — is copied as it is, next to the
    /// upgraded one: the upgrade dispatches on each variable's version.
    #[test]
    fn a_v7_variable_of_a_v6_dataset_is_copied_as_it_is() {
        let values: Vec<f64> = (0..64 * 64).map(|i| f64::from(i % 97)).collect();
        let old = fixtures::mem(6);
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
            put(&old, f, &read_file(&built, f).unwrap());
        }
        register(&old, "fmt", "w").unwrap();

        let new = MemBackend::new();
        let report = upgrade(&old, &new, "fmt").unwrap();
        assert_eq!(report.variables, ["v", "w"]);
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
        assert_eq!(got.len(), want);
    }
}
