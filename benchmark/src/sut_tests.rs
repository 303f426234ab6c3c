//! Tests of the timing shim against the backend it wraps.

use crate::sut::Backend;
use crate::trace::{self, Recorder};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn timed_backend_is_byte_identical_and_counts_every_read() {
    let dir = scratch("shim");
    let plain = Backend::open(&dir, None).unwrap();
    let a: Vec<u8> = (0..=255).cycle().take(10_000).collect();
    let b: Vec<u8> = (0..=255).rev().cycle().take(5_000).collect();
    assert_eq!(plain.append("ds/a", &a).unwrap(), 0);
    assert_eq!(plain.append("ds/b", &b).unwrap(), 0);
    assert_eq!(plain.append("ds/b", &a[..100]).unwrap(), 5_000);

    // The uncached variant opens the file on every read, so its open
    // count is an independent tally of physical reads.
    let rec = Arc::new(Recorder::new());
    let timed = Backend::open_uncached(&dir, Some(Arc::clone(&rec))).unwrap();
    let opens_before = timed.opens();
    let singles = [
        ("ds/a", 0, 10_000),
        ("ds/a", 17, 4_000),
        ("ds/b", 4_990, 110),
    ];
    for &(f, off, len) in &singles {
        assert_eq!(
            timed.read(f, off, len).unwrap(),
            plain.read(f, off, len).unwrap()
        );
    }
    let batch = [("ds/b", 0, 64), ("ds/a", 9_000, 1_000), ("ds/b", 0, 64)];
    let got = timed.read_batch(&batch);
    let want = plain.read_batch(&batch);
    assert_eq!(got, want);
    assert!(got.iter().all(Result::is_ok));
    // Errors pass through unchanged and are counted.
    assert!(timed.read("ds/a", 9_999, 2).is_err());
    assert!(timed.read("ds/missing", 0, 1).is_err());
    assert_eq!(timed.len("ds/b").unwrap(), plain.len("ds/b").unwrap());
    assert_eq!(timed.list(), plain.list());

    let reads = singles.len() as u64 + batch.len() as u64 + 2;
    assert_eq!(rec.read_requests(), reads);
    assert_eq!(timed.opens() - opens_before, reads);
    assert_eq!(rec.totals(trace::READ).calls, singles.len() as u64 + 2);
    assert_eq!(rec.totals(trace::READ).errors, 2);
    assert_eq!(rec.totals(trace::READ_BATCH).calls, 1);
    assert_eq!(rec.batch_requests(), 3);
    assert_eq!(rec.read_bytes(), 10_000 + 4_000 + 110 + 64 + 1_000 + 64);
    assert_eq!(rec.take_files(), 3);
    assert_eq!(rec.totals(trace::LEN).calls, 1);
    assert_eq!(rec.totals(trace::LIST).calls, 1);
    let _ = std::fs::remove_dir_all(&dir);
}
