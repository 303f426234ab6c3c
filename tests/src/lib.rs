//! Integration-test package for the MLOC workspace. The tests live in
//! `tests/tests/`; this library holds what several of them share: the
//! checked-in dataset of the format nothing writes any more, which
//! only `mloc upgrade` reads.

use mloc_pfs::{DirBackend, StorageBackend};

/// Directory of the checked-in version-`version` dataset (6):
/// dataset `fmt`, variable `v`, a `gts_like_2d(64, 64, 41)` field in 16²
/// chunks, 8 bins, deflate with PLoD byte columns.
pub fn fixture_dir(version: u8) -> String {
    format!("{}/golden/v{version}_dataset", env!("CARGO_MANIFEST_DIR"))
}

/// The version-`version` dataset, read-only off its directory: an
/// uncached `DirBackend` opens every file for reading only, per call.
pub fn fixture(version: u8) -> DirBackend {
    DirBackend::uncached(fixture_dir(version)).unwrap()
}

/// Copy the version-`version` dataset into `be`.
pub fn load_fixture(version: u8, be: &dyn StorageBackend) {
    let dir = fixture(version);
    for f in dir.list() {
        be.create(&f).unwrap();
        be.append(&f, &dir.read(&f, 0, dir.len(&f).unwrap()).unwrap())
            .unwrap();
    }
}
