//! Minimal data-parallel helpers built on `std::thread::scope`.
//!
//! This crate plays the role rayon's `par_iter().map().collect()` would play
//! in the corpus pipeline (the offline build environment cannot fetch
//! rayon). Work distribution is dynamic — each worker claims the next
//! unclaimed index from a shared atomic counter, so long-running items
//! (hard loops hitting their solver budget) don't serialize behind a static
//! partition — and results are returned **in input order**, so parallel
//! runs are bitwise-comparable to serial ones.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Thread count from the environment: `OPTIMOD_THREADS` when set and
/// positive, otherwise [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    match std::env::var("OPTIMOD_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("ignoring invalid OPTIMOD_THREADS={v}");
                available()
            }
        },
        Err(_) => available(),
    }
}

fn available() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on up to `threads` worker threads, returning the
/// results in input order. `f` receives `(index, &item)`.
///
/// `threads == 0` means [`default_threads`]. With one thread (or fewer than
/// two items) no threads are spawned and `f` runs inline, in order.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads
    };
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                // Batch each worker's results locally; one lock per worker.
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                collected
                    .lock()
                    .expect("panic in sibling worker")
                    .extend(local);
            });
        }
    });
    let mut pairs = collected.into_inner().expect("panic in worker");
    pairs.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), items.len());
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map(threads, &items, |i, &x| {
                assert_eq!(i as u64, x);
                x * x
            });
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn zero_means_default() {
        let items: Vec<usize> = (0..16).collect();
        assert_eq!(
            par_map(0, &items, |i, _| i),
            (0..16).collect::<Vec<usize>>()
        );
    }
}
