//! Scoped worker pool: a deterministic parallel map for CPU-bound
//! fan-out work.
//!
//! [`parallel_map`] runs `f` over a work list on up to `threads`
//! scoped OS threads (no detached threads, no `'static` bounds on the
//! borrowed environment) and returns the results *in input order*, so
//! callers get byte-identical output for any thread count. Work is
//! pulled from a shared bounded queue (one lock around the item
//! iterator), which load-balances uneven items — a worker that drew a
//! cheap item immediately pulls the next one.
//!
//! The build path uses this to fan per-chunk encoding and per-bin
//! layout across cores; anything shaped like "independent items, order
//! matters in the output" fits.

use std::sync::{Mutex, PoisonError};

/// Map `f` over `items` on up to `threads` worker threads, returning
/// the results in input order. `f` receives `(index, item)` so workers
/// can label or seed per-item work without threading state through.
///
/// `threads <= 1` (or a single item) runs inline on the caller's
/// thread with no spawns, guaranteeing the serial path *is* the
/// parallel path with a pool of one.
///
/// # Panics
/// Re-raises a worker's panic, with its own payload, after all workers
/// have stopped.
pub fn parallel_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    // Bounded work queue: the shared iterator hands out (index, item)
    // pairs; each worker keeps its results tagged by index.
    let queue = Mutex::new(items.into_iter().enumerate());
    let tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let queue = &queue;
                let f = &f;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // Take the lock only to draw the next item.
                        // A worker that panicked poisons nothing it
                        // held half-updated: `next` is one call.
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        match next {
                            Some((i, item)) => done.push((i, f(i, item))),
                            None => return done,
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    // Back into input order: every index was drawn exactly once.
    let mut tagged = tagged;
    tagged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(tagged.iter().enumerate().all(|(k, &(i, _))| k == i));
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = parallel_map(threads, items.clone(), |i, x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let out: Vec<u32> = parallel_map(8, Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
        assert_eq!(parallel_map(8, vec![7], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        let seen = Mutex::new(HashSet::new());
        parallel_map(4, (0..256).collect::<Vec<_>>(), |_, _| {
            seen.lock().unwrap().insert(std::thread::current().id());
            // Hold the item long enough that one worker cannot drain
            // the whole queue before the others start.
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
        assert!(seen.lock().unwrap().len() > 1, "all work ran on one thread");
    }

    #[test]
    fn borrows_caller_state() {
        let base = [10, 20, 30, 40];
        let out = parallel_map(2, vec![0usize, 1, 2, 3], |_, i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31, 41]);
    }

    #[test]
    fn uneven_items_load_balance() {
        // One huge item plus many small ones: total wall time must be
        // far below the sum, i.e. small items ran beside the big one.
        let items: Vec<u64> = std::iter::once(400u64).chain((0..64).map(|_| 1)).collect();
        let out = parallel_map(8, items, |_, spins| {
            let mut acc = 0u64;
            for i in 0..spins * 1000 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert_eq!(out.len(), 65);
    }

    /// The worker's own payload reaches the caller.
    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        parallel_map(4, (0..32).collect::<Vec<_>>(), |_, x| {
            if x == 17 {
                panic!("boom");
            }
            x
        });
    }
}
