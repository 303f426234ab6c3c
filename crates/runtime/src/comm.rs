//! The SPMD launcher and per-rank communicator.

use std::any::Any;
use std::sync::{Arc, Barrier, Mutex, PoisonError};

type Slot = Mutex<Option<Box<dyn Any + Send>>>;

struct Shared {
    barrier: Barrier,
    slots: Vec<Slot>,
}

/// Per-rank communicator handle. Collectives must be called by *every*
/// rank of the [`spmd`] region, in the same order (as with MPI).
pub struct Comm {
    rank: usize,
    size: usize,
    shared: Arc<Shared>,
}

impl Comm {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether this rank is the root (rank 0).
    pub fn is_root(&self) -> bool {
        self.rank == 0
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }

    /// Gather one value from every rank at the root. Returns
    /// `Some(values)` (indexed by rank) at the root, `None` elsewhere.
    ///
    /// # Panics
    /// Panics at the root when the ranks gather values of different
    /// types — collectives must match across ranks, as in MPI.
    // Every rank fills its slot before the first barrier, so the root
    // finds each one full; only a caller's type mismatch is left.
    #[allow(clippy::expect_used)]
    pub fn gather<T: Send + 'static>(&self, value: T) -> Option<Vec<T>> {
        *lock(&self.shared.slots[self.rank]) = Some(Box::new(value));
        self.barrier();
        let result = if self.is_root() {
            Some(
                self.shared
                    .slots
                    .iter()
                    .map(|s| {
                        *lock(s)
                            .take()
                            .expect("rank missing from gather")
                            .downcast::<T>()
                            .expect("gather type mismatch")
                    })
                    .collect(),
            )
        } else {
            None
        };
        // Second barrier so slots are reusable by the next collective.
        self.barrier();
        result
    }
}

/// A slot's lock. A rank that panicked while holding it poisons it,
/// but a slot is only ever assigned or taken whole, so what it holds
/// is still consistent; the panic itself reaches the caller through
/// [`spmd`]'s join.
fn lock(slot: &Slot) -> std::sync::MutexGuard<'_, Option<Box<dyn Any + Send>>> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `f` on `nranks` ranks (one thread each) and return the per-rank
/// results, indexed by rank.
///
/// # Panics
/// Panics if `nranks == 0`; a rank's panic is re-raised, with its own
/// payload, once every rank has stopped.
pub fn spmd<T, F>(nranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    assert!(nranks > 0, "need at least one rank");
    let shared = Arc::new(Shared {
        barrier: Barrier::new(nranks),
        slots: (0..nranks).map(|_| Mutex::new(None)).collect(),
    });
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nranks)
            .map(|rank| {
                let comm = Comm {
                    rank,
                    size: nranks,
                    shared: Arc::clone(&shared),
                };
                let f = &f;
                scope.spawn(move || f(&comm))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_distinct() {
        let mut ranks = spmd(8, |c| c.rank());
        ranks.sort_unstable();
        assert_eq!(ranks, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let results = spmd(6, |c| c.gather(c.rank() * 10));
        for (rank, r) in results.iter().enumerate() {
            if rank == 0 {
                assert_eq!(r.as_ref().unwrap(), &vec![0, 10, 20, 30, 40, 50]);
            } else {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn repeated_collectives_do_not_deadlock() {
        let results = spmd(4, |c| {
            let mut acc = 0usize;
            for round in 0..50 {
                acc += c.gather(c.rank() + round).map_or(0, |all| all.iter().sum());
                c.barrier();
            }
            acc
        });
        // Rank 0 summed 50 rounds of 0+1+2+3 + 4 × round.
        assert_eq!(results, vec![50 * 6 + 4 * (0..50).sum::<usize>(), 0, 0, 0]);
    }

    /// A rank's panic reaches the caller with its own payload, after
    /// the other ranks have stopped.
    #[test]
    #[should_panic(expected = "rank 2 failed")]
    fn a_rank_panic_propagates() {
        spmd(4, |c| {
            if c.rank() == 2 {
                panic!("rank 2 failed");
            }
            c.rank()
        });
    }

    #[test]
    fn single_rank_works() {
        let results = spmd(1, |c| {
            assert_eq!(c.size(), 1);
            c.gather(42).unwrap().into_iter().sum::<i32>()
        });
        assert_eq!(results, vec![42]);
    }

    #[test]
    fn mixed_collectives_in_sequence() {
        let results = spmd(3, |c| {
            let names = c.gather(format!("r{}", c.rank()));
            c.barrier();
            let ids = c.gather(c.rank() as u64);
            (names, ids)
        });
        assert_eq!(
            results[0],
            (
                Some(vec!["r0".to_string(), "r1".to_string(), "r2".to_string()]),
                Some(vec![0, 1, 2])
            )
        );
        assert!(results[1..].iter().all(|r| *r == (None, None)));
    }
}
