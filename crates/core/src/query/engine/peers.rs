//! Fixed blocks once per query, not once per rank.
//!
//! A bin's header, summary and checksum tables are the same bytes for
//! every rank that touches the bin, and a bin file smaller than one
//! stripe lives on one OST, so ranks that each fetch them queue behind
//! each other for nothing. In a request of more than one rank the
//! *lowest* rank dealt a unit of the bin fetches and verifies them
//! exactly as a lone rank would and publishes them here; every other
//! rank of the bin takes them from here. Whatever the format, they
//! include the bin's data checksum table — a v3 bin file's data table,
//! a v1/v2 data file's tail footer — whenever any rank's unit of the
//! bin reads data, so one hand-off carries every table a rank needs.
//!
//! Who owns what is a function of the assignment and the verified
//! header alone, and a rank only ever waits on a lower rank: replay
//! (ranks in turn) and threaded execution see the same hand-offs, and
//! neither can deadlock. A rank that fails — or unwinds — releases its
//! waiters with its error, so a damaged shared block fails the whole
//! query instead of stranding it.

use crate::cache::FixedBlocks;
use crate::query::plan::WorkUnit;
use crate::{MlocError, Result};
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A bin's verified fixed blocks, and how their fetcher got them.
#[derive(Clone)]
pub(crate) struct IndexFixed {
    pub blocks: Arc<FixedBlocks>,
    /// `(file, offset, len)` of every access their fetcher traced for
    /// them, in order — what a peer's trace records it waited for. Not
    /// derivable from the blocks' spans: a cold v3 owner reads both
    /// tables in one access, a v1/v2 footer is two accesses, its
    /// trailer and its table; a warm owner's are the spans.
    pub accesses: Arc<[(Arc<str>, u64, u64)]>,
}

/// What the ranks of one request have published so far.
struct Published {
    /// Per bin slot: its fixed blocks.
    index: Vec<Option<IndexFixed>>,
    /// Per rank: `Some` once it has finished, with its error if it
    /// failed — what its waiters are released with.
    exited: Vec<Option<Option<MlocError>>>,
}

/// The request-scoped hand-off table; built by the executor for
/// requests of more than one rank, never for a lone rank.
pub struct PeerTable<'p> {
    /// Every unit of the plan in dealt order: rank by rank, and by bin
    /// within a rank.
    dealt: &'p [WorkUnit],
    /// `dealt[rank_start[r]..rank_start[r + 1]]` are rank `r`'s units.
    rank_start: Vec<usize>,
    /// The bins of the plan, ascending, each with its units' range in
    /// `dealt`; a bin's slot is its position here.
    bins: Vec<(usize, Range<usize>)>,
    published: Mutex<Published>,
    changed: Condvar,
}

impl<'p> PeerTable<'p> {
    /// `dealt` is every rank's units in rank order, `per_rank` how
    /// many each rank got; the units must be grouped by bin in
    /// ascending order, as the column-order assignment deals them.
    pub(crate) fn new(dealt: &'p [WorkUnit], per_rank: impl Iterator<Item = usize>) -> Self {
        let mut rank_start = vec![0];
        for count in per_rank {
            rank_start.push(rank_start[rank_start.len() - 1] + count);
        }
        let mut bins: Vec<(usize, Range<usize>)> = Vec::new();
        for (i, u) in dealt.iter().enumerate() {
            match bins.last_mut() {
                Some((bin, range)) if *bin == u.bin => range.end = i + 1,
                _ => bins.push((u.bin, i..i + 1)),
            }
        }
        debug_assert!(bins.windows(2).all(|w| w[0].0 < w[1].0));
        let published = Published {
            index: vec![None; bins.len()],
            exited: vec![None; rank_start.len() - 1],
        };
        PeerTable {
            dealt,
            rank_start,
            bins,
            published: Mutex::new(published),
            changed: Condvar::new(),
        }
    }

    // The table is built from the very deal the ranks run, so a bin a
    // rank asks about is always one of its slots.
    #[allow(clippy::expect_used)]
    fn slot(&self, bin: usize) -> usize {
        self.bins
            .binary_search_by_key(&bin, |(b, _)| *b)
            .expect("a rank only asks about bins it was dealt")
    }

    fn rank_of(&self, dealt_idx: usize) -> usize {
        self.rank_start.partition_point(|&s| s <= dealt_idx) - 1
    }

    /// The rank that fetches `bin`'s fixed blocks: the lowest one
    /// dealt a unit of the bin.
    pub(crate) fn index_owner(&self, bin: usize) -> usize {
        self.rank_of(self.bins[self.slot(bin)].1.start)
    }

    /// Whether any rank's unit of `bin` `reads_data` (judged on the
    /// bin's header): if none does, the bin's fixed blocks leave out
    /// its data checksum table.
    pub(crate) fn any_reads_data(
        &self,
        bin: usize,
        reads_data: impl Fn(&WorkUnit) -> bool,
    ) -> bool {
        self.dealt[self.bins[self.slot(bin)].1.clone()]
            .iter()
            .any(reads_data)
    }

    /// The bin whose fixed blocks `rank` should fetch before it does
    /// anything else, if there is one: its last bin, when higher ranks
    /// were dealt units of it too and `rank` has other bins to get
    /// through first. (Ranks are dealt contiguous runs: only the last
    /// bin of a rank can reach into a higher one, and a bin that begins
    /// after the rank's first unit begins on this rank.) A rank whose
    /// shared bin is also its first fetches it first anyway.
    pub(crate) fn awaited_bin(&self, rank: usize) -> Option<usize> {
        let (start, end) = (self.rank_start[rank], self.rank_start[rank + 1]);
        let last = self.dealt[start..end].last()?.bin;
        let units = &self.bins[self.slot(last)].1;
        (units.start > start && units.end > end).then_some(last)
    }

    /// What this rank itself published for `bin`, if it already has.
    pub(crate) fn published_index(&self, bin: usize) -> Option<IndexFixed> {
        self.lock().index[self.slot(bin)].clone()
    }

    fn lock(&self) -> MutexGuard<'_, Published> {
        self.published
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn publish_index(&self, bin: usize, blocks: IndexFixed) {
        self.lock().index[self.slot(bin)] = Some(blocks);
        self.changed.notify_all();
    }

    /// `bin`'s fixed blocks: block until their owner has published
    /// them, or has finished without doing so — then with the error it
    /// failed with.
    pub(crate) fn take_index(&self, bin: usize) -> Result<IndexFixed> {
        let (slot, owner) = (self.slot(bin), self.index_owner(bin));
        let mut p = self.lock();
        loop {
            if let Some(found) = &p.index[slot] {
                return Ok(found.clone());
            }
            if let Some(outcome) = &p.exited[owner] {
                return Err(outcome.clone().unwrap_or(MlocError::Corrupt(
                    "a peer rank finished without publishing its shared blocks",
                )));
            }
            p = self.changed.wait(p).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// `rank` is done, with `error` if it failed: whoever still waits
    /// on it is released. The first report of a rank stands.
    pub(crate) fn rank_exited(&self, rank: usize, error: Option<&MlocError>) {
        self.lock().exited[rank].get_or_insert_with(|| error.cloned());
        self.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(bin: usize, chunk_rank: usize, needs_data: bool) -> WorkUnit {
        WorkUnit {
            bin,
            chunk_rank,
            needs_data,
            value_filter: false,
            spatial_filter: false,
        }
    }

    #[test]
    fn owners_follow_the_deal() {
        // Bin 3: ranks 0-1; bin 5: ranks 1-2; bin 9: rank 2.
        let dealt = [
            unit(3, 0, false),
            unit(3, 1, false),
            unit(3, 2, true),
            unit(5, 0, false),
            unit(5, 1, true),
            unit(9, 4, true),
        ];
        let t = PeerTable::new(&dealt, [2, 2, 2].into_iter());
        assert_eq!(
            [3, 5, 9].map(|b| t.index_owner(b)),
            [0, 1, 2],
            "lowest rank dealt a unit of the bin"
        );
        // Rank 1 ends in a bin rank 2 continues, after a unit of
        // another bin; rank 0's shared bin is the only one it has.
        assert_eq!([0, 1, 2].map(|r| t.awaited_bin(r)), [None, Some(5), None]);
        assert!(t.any_reads_data(3, |u| u.needs_data));
        assert!(t.any_reads_data(5, |u| u.needs_data));
        assert!(!t.any_reads_data(5, |_| false));
        assert!(!t.any_reads_data(9, |u| !u.needs_data));
        // An idle rank (more ranks than units) owns nothing.
        let t = PeerTable::new(&dealt[..1], [1, 0, 0].into_iter());
        assert_eq!(t.index_owner(3), 0);
        assert_eq!([0, 1, 2].map(|r| t.awaited_bin(r)), [None; 3]);
        // A bin wider than a rank: whoever starts it has nothing to
        // get through before it, the others own nothing.
        let wide = [unit(1, 0, true), unit(1, 1, true), unit(1, 2, true)];
        let t = PeerTable::new(&wide, [1, 1, 1].into_iter());
        assert_eq!([0, 1, 2].map(|r| t.awaited_bin(r)), [None; 3]);
    }

    #[test]
    fn a_failed_owner_releases_its_waiters_with_its_error() {
        let dealt = [unit(0, 0, true), unit(0, 1, true)];
        let t = PeerTable::new(&dealt, [1, 1].into_iter());
        std::thread::scope(|s| {
            let waiter = s.spawn(|| t.take_index(0));
            t.rank_exited(0, Some(&MlocError::Corrupt("torn")));
            // A later report (the unwind guard's) does not replace it.
            t.rank_exited(0, None);
            let err = waiter.join().unwrap().err().unwrap();
            assert!(matches!(err, MlocError::Corrupt("torn")), "{err}");
        });
        assert!(t.take_index(0).is_err());
    }
}
