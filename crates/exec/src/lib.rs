//! # autoax-exec
//!
//! The execution layer of the autoAx reproduction: std-only (no external
//! runtime) parallel primitives and the workspace's one FNV-1a and one
//! SplitMix64 ([`hash`]), shared by every crate above it.
//!
//! The design-space-exploration loop of the paper performs 10⁵–10⁶ model
//! estimates per run; library characterization and real evaluation are
//! embarrassingly parallel as well. Everything here is built around one
//! invariant: **results are byte-identical regardless of the worker-thread
//! count**. Outputs preserve input order, so a reduction over them
//! (`par_map(..).into_iter().reduce(..)`) has a fixed association, and
//! parallelism is purely a throughput knob.
//!
//! ## Thread-count knob
//!
//! The default worker count is [`std::thread::available_parallelism`],
//! overridable with the `AUTOAX_THREADS` environment variable (clamped to
//! at least 1). [`par_map_owned_with`] takes an explicit count, which the
//! island search passes down from its options.
//!
//! ## Execution substrate
//!
//! Both parallel maps run their chunks as a *burst* on one process-wide
//! persistent worker pool ([`fork`]), so a burst pays for no thread
//! spawn. The thread count fixes the chunk boundaries (and hence the
//! results, byte-for-byte) and bounds the parallelism of the burst; it
//! does not resize the pool's worker set, which grows lazily to the
//! largest burst seen. Each chunk hands its results back through its own
//! `Mutex` slot, so the crate's only `unsafe` is the lifetime erasure
//! inside [`fork::run_burst`]. The same pool serves island search,
//! library characterization, real evaluation and the pipelines run by
//! `autoax-serve` jobs; it is the workspace's one thread pool.
//!
//! # Example
//!
//! ```
//! // Order-preserving parallel map: identical output at any thread count.
//! let inputs: Vec<u64> = (0..100).collect();
//! let squares = autoax_exec::par_map(&inputs, |&x| x * x);
//! assert_eq!(squares[7], 49);
//! assert_eq!(squares, inputs.iter().map(|&x| x * x).collect::<Vec<_>>());
//! ```

pub mod fork;
pub mod hash;

pub use fork::pool_workers;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "AUTOAX_THREADS";

/// The default worker-thread count: `AUTOAX_THREADS` if set and parseable
/// (clamped to ≥ 1), otherwise [`std::thread::available_parallelism`].
///
/// Read on every call (not cached) so tests and long-running processes can
/// re-tune; the lookup is two syscalls at worst.
pub fn thread_count() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` in parallel with the default [`thread_count`],
/// one contiguous chunk per worker, from two items up. Results are in
/// input order and identical at any thread count.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_impl(thread_count(), items, f)
}

fn par_map_impl<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if items.len() < 2 || threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads.min(items.len()));
    let slots = empty_slots(items.len().div_ceil(chunk));
    fork::run_burst(slots.len(), |ci| {
        let part = &items[ci * chunk..(ci * chunk + chunk).min(items.len())];
        let out = part.iter().map(&f).collect();
        *lock(&slots[ci]) = out;
    });
    concat(slots)
}

/// [`par_map`] over owned `items` with an explicit thread count: each
/// worker takes ownership of its chunk, as search islands carrying their
/// own RNG need, and the island search passes its own thread count.
pub fn par_map_owned_with<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.into_iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads.min(items.len()));
    let mut items = items.into_iter();
    let parts: Vec<Mutex<Vec<T>>> = std::iter::from_fn(|| {
        let part: Vec<T> = items.by_ref().take(chunk).collect();
        (!part.is_empty()).then(|| Mutex::new(part))
    })
    .collect();
    let slots = empty_slots(parts.len());
    fork::run_burst(parts.len(), |ci| {
        let part = std::mem::take(&mut *lock(&parts[ci]));
        let out = part.into_iter().map(&f).collect();
        *lock(&slots[ci]) = out;
    });
    concat(slots)
}

/// One empty result slot per chunk of a burst.
fn empty_slots<U>(chunks: usize) -> Vec<Mutex<Vec<U>>> {
    (0..chunks).map(|_| Mutex::new(Vec::new())).collect()
}

/// A slot's guard, even if poisoned: a panicking task re-raises on the
/// caller from [`fork::run_burst`], so a poisoned slot is never read.
fn lock<V>(slot: &Mutex<V>) -> MutexGuard<'_, V> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The chunks' results, concatenated in chunk order.
fn concat<U>(slots: Vec<Mutex<Vec<U>>>) -> Vec<U> {
    slots
        .into_iter()
        .flat_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential() {
        let items: Vec<u64> = (0..1000).collect();
        let par = par_map(&items, |x| x * 3 + 1);
        let seq: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn par_map_small_input() {
        let items = vec![1u32, 2, 3];
        assert_eq!(par_map(&items, |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn par_map_order_invariant_across_thread_counts() {
        // Every length up to 70 (empty, single, the short inputs that
        // fan out from two items, every chunk-edge remainder) and one
        // long odd one.
        for len in (0..=70).chain([997]) {
            let items: Vec<u64> = (0..len).collect();
            let expect: Vec<u64> = items.iter().map(|x| x ^ 0xA5).collect();
            for threads in [1, 2, 3, 8, 64] {
                assert_eq!(
                    par_map_impl(threads, &items, |x| x ^ 0xA5),
                    expect,
                    "len={len} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn par_map_owned_preserves_order_and_moves_state() {
        let items: Vec<String> = (0..17).map(|i| format!("v{i}")).collect();
        let expect: Vec<String> = items.iter().map(|s| format!("{s}!")).collect();
        for threads in [1, 2, 5, 32] {
            let out = par_map_owned_with(threads, items.clone(), |s| s + "!");
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_coarse_parallelizes_small_inputs() {
        let items = vec![3u64, 4];
        assert_eq!(par_map(&items, |x| x * x), vec![9, 16]);
        let many: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = many.iter().map(|x| x + 1).collect();
        assert_eq!(par_map(&many, |x| x + 1), expect);
    }

    #[test]
    fn map_reduce_float_sum_is_bitwise_thread_invariant() {
        // Non-associative fold: f64 addition. The fixed left association
        // must give the exact sequential bits at every thread count.
        let items: Vec<f64> = (0..501).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let seq = items
            .iter()
            .map(|&x| x * 1.000001)
            .reduce(|a, b| a + b)
            .unwrap();
        for threads in [1, 2, 3, 7, 16] {
            let par = par_map_impl(threads, &items, |&x| x * 1.000001)
                .into_iter()
                .reduce(|a, b| a + b)
                .unwrap();
            assert_eq!(par.to_bits(), seq.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn map_reduce_two_items_parallelizes() {
        // Two items are enough to fan out.
        let got = par_map_impl(4, &[10u64, 32], |&x| x)
            .into_iter()
            .reduce(|a, b| a + b);
        assert_eq!(got, Some(42));
    }

    #[test]
    fn pooled_primitives_grow_one_shared_worker_set() {
        // Repeated bursts reuse pool threads: after a warm-up round the
        // worker count stays put no matter how many more calls follow.
        let items: Vec<u64> = (0..256).collect();
        let _ = par_map_impl(4, &items, |x| x + 1);
        let after_first = pool_workers();
        assert!(after_first >= 1, "burst must have grown the pool");
        for _ in 0..50 {
            let _ = par_map_impl(4, &items, |x| x + 1);
            let _ = par_map_owned_with(4, items.clone(), |x| x * 2);
        }
        assert!(
            pool_workers() <= after_first.max(3),
            "same-width bursts must not spawn new workers per call"
        );
    }

    #[test]
    fn thread_count_env_override() {
        // Serialized within this test: set, read, restore.
        let prev = std::env::var(THREADS_ENV).ok();
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(thread_count(), 3);
        std::env::set_var(THREADS_ENV, "0"); // clamped up
        assert_eq!(thread_count(), 1);
        std::env::set_var(THREADS_ENV, "not-a-number"); // ignored
        assert!(thread_count() >= 1);
        match prev {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
    }
}
