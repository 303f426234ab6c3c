//! Compressed bitmaps: run lists and Word-Aligned Hybrid (WAH) streams.
//!
//! This is the bitmap substrate used twice in the MLOC reproduction:
//!
//! * MLOC itself represents the per-bin, per-chunk positional indices as
//!   compressed bitmaps ("light-weight and high-performance bitmap
//!   indexing", paper §III-D.4): each is stored as a run list
//!   ([`runs`]), its runs of set bits as LEB128 `(gap, len − 1)` pairs,
//!   validated once as read, then walked run by run.
//! * The FastBit comparator (`mloc-baselines`) builds its binned bitmap
//!   index from WAH bitmaps, and `mloc upgrade` decodes the WAH streams
//!   and rank/select directories a format-v1–v3 store kept.
//!
//! The encoding is classic WAH over 32-bit words: a *literal* word
//! (MSB 0) carries 31 data bits; a *fill* word (MSB 1) carries a fill
//! bit and a 30-bit count of 31-bit groups.

//! # Example
//!
//! ```
//! use mloc_bitmap::{and, WahBitmap};
//!
//! let a = WahBitmap::from_sorted_positions(1_000_000, &[3, 500_000]);
//! let b = WahBitmap::from_sorted_positions(1_000_000, &[3, 4, 999_999]);
//! assert_eq!(and(&a, &b).to_positions(), vec![3]);
//! // A million-bit sparse bitmap stays tiny.
//! assert!(a.size_in_bytes() < 64);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ops;
pub mod runs;
pub mod wah;

pub use ops::{and, andnot, or, or_many};
pub use runs::{RunIter, RunList, RunListBuf, RunListRef, RunsError};
pub use wah::{RankSelectDir, WahBitmap, WahBuilder, WahRef, RANK_SAMPLE_WORDS};
