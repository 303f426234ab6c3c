//! File organization on the parallel file system (paper §III-C).
//!
//! Each bin of a variable is stored apart from the others, so a query
//! opens only the bins its value constraint selects, reads are
//! lock-free because query files are read-only, and chunk sizes are
//! advised so the smallest accessed unit stays within one PFS stripe.
//!
//! **One file per bin, not two.** The paper's subfiling keeps a bin's
//! compressed data and its index in separate files, and so did formats
//! v1 and v2 here. Since format v3 ([`crate::binfile`], now v4) one
//! file keeps both, with every fixed block at its front, because the
//! traffic decides it. Of every 16 operations of the benchmark's cold mix, 8 are
//! spatially constrained value or PLoD reads: each touches all 100 bins
//! and, with two files, both files of every bin — 2 opens and 5 seeks
//! per bin before anything is decoded (index header, index tail footer,
//! bitmaps, data tail footer, units). One file makes that 1 open and 3
//! seeks (fixed blocks, bitmaps, units): at `--seed 42`, `explore_cold`
//! went from 98.1 files and 364.9 seeks per op to 53.3 and 261.5 (and
//! the files its run opens, from 400 to 200), and its simulated I/O
//! from 3.07 to 2.18 s per op. The
//! index-only operations touch ~3 bins each and never read a data
//! section, so they lose nothing by the sharing. What it costs is that a
//! bin's traffic lands on one OST where its two files usually spread it
//! over two, which the multi-rank figures of EXPERIMENTS.md show: Table
//! II's 1 % MLOC-COL query at 8 ranks, four ranks to a bin, went from
//! 0.044 to 0.131 s and no longer beats the sequential scan. Stores of
//! the two-file formats are not read here: `mloc upgrade`
//! ([`crate::upgrade`]) copies them out as v6.

use mloc_pfs::{PfsError, StorageBackend};

/// Name of a dataset's catalog.
pub fn catalog_file(dataset: &str) -> String {
    format!("{dataset}/catalog")
}

/// Name of the per-variable metadata file.
pub fn meta_file(dataset: &str, var: &str) -> String {
    format!("{dataset}/{var}/meta")
}

/// Name of the one file of a bin (formats v3–v6).
pub fn bin_file(dataset: &str, var: &str, bin: usize) -> String {
    format!("{dataset}/{var}/bin{bin:04}.bin")
}

/// What a file under a variable's directory is to the layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarFile {
    /// The variable's meta file.
    Meta,
    /// The one file of a bin.
    Bin(usize),
    /// A name the layout never writes.
    Stray,
}

/// The bin a file's base name `binNNNN{ext}` numbers — only under the
/// exact name the layout writes: `bin1.bin` numbers nothing.
pub(crate) fn bin_number(base: &str, ext: &str) -> Option<usize> {
    let digits = base.strip_prefix("bin")?.strip_suffix(ext)?;
    let bin: usize = digits.parse().ok()?;
    (format!("{bin:04}") == digits).then_some(bin)
}

/// The inverse of [`meta_file`] and [`bin_file`]: the variable a file
/// of `dataset` belongs to, and what it is. `None` for names outside
/// every variable directory (the catalog, other datasets).
pub(crate) fn var_file<'a>(dataset: &str, name: &'a str) -> Option<(&'a str, VarFile)> {
    let (var, base) = name
        .strip_prefix(dataset)?
        .strip_prefix('/')?
        .split_once('/')?;
    let role = if base == "meta" {
        VarFile::Meta
    } else if let Some(bin) = bin_number(base, ".bin") {
        VarFile::Bin(bin)
    } else {
        VarFile::Stray
    };
    Some((var, role))
}

/// Read a whole stored file.
pub(crate) fn read_file(backend: &dyn StorageBackend, name: &str) -> Result<Vec<u8>, PfsError> {
    backend.read(name, 0, backend.len(name)?)
}

/// Advise a chunk shape for a domain so that, with ~100 bins and the
/// PLoD split, the smallest accessed unit (one chunk's bytes within
/// one bin within one byte group) stays below one stripe while chunks
/// remain large enough to stream efficiently.
///
/// Targets ~32 stripes of raw data per chunk, with power-of-two sides
/// clamped to the domain (the paper uses 2048² for its 2-D dataset and
/// 128³ for its 3-D dataset at 1 MiB stripes, which this reproduces).
pub fn advise_chunk_shape(shape: &[usize], stripe_size: u64) -> Vec<usize> {
    assert!(!shape.is_empty());
    let dims = shape.len() as f64;
    let target_points = (stripe_size.max(1) * 32 / 8) as f64;
    let side = target_points.powf(1.0 / dims);
    // Round down to a power of two, at least 1.
    let pow2 = 1usize << (side.max(1.0).log2().floor() as u32);
    shape.iter().map(|&e| pow2.min(e).max(1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(meta_file("ds", "temp"), "ds/temp/meta");
        assert_eq!(bin_file("ds", "temp", 7), "ds/temp/bin0007.bin");
        assert_eq!(catalog_file("ds"), "ds/catalog");
    }

    #[test]
    fn var_file_inverts_the_names() {
        for (name, want) in [
            (meta_file("ds", "t@3"), ("t@3", VarFile::Meta)),
            (bin_file("ds", "t", 0), ("t", VarFile::Bin(0))),
            (bin_file("ds", "t", 12_345), ("t", VarFile::Bin(12_345))),
        ] {
            assert_eq!(var_file("ds", &name), Some(want), "{name}");
        }
        for stray in [
            "ds/t/bin0001.old",
            "ds/t/bin1.bin",
            "ds/t/bin+001.bin",
            "ds/t/bin0001.tmp",
            "ds/t/x/meta",
        ] {
            assert_eq!(
                var_file("ds", stray),
                Some(("t", VarFile::Stray)),
                "{stray}"
            );
        }
        for outside in [
            catalog_file("ds").as_str(),
            "dsx/t/meta",
            "other/t/meta",
            "ds",
        ] {
            assert_eq!(var_file("ds", outside), None, "{outside}");
        }
    }

    #[test]
    fn advice_matches_paper_scales() {
        // 2-D at 1 MiB stripes → 2048 per side.
        assert_eq!(
            advise_chunk_shape(&[262_144, 262_144], 1 << 20),
            vec![2048, 2048]
        );
        // 3-D at 1 MiB stripes → 128..256 per side (paper used 128³).
        let c3 = advise_chunk_shape(&[4096, 4096, 4096], 1 << 20);
        assert!(c3.iter().all(|&s| s == 128 || s == 256), "{c3:?}");
    }

    #[test]
    fn advice_clamps_to_domain() {
        assert_eq!(advise_chunk_shape(&[100, 20], 1 << 20), vec![100, 20]);
        assert_eq!(advise_chunk_shape(&[1], 1 << 20), vec![1]);
    }
}
