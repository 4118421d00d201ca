//! # autoax-exec
//!
//! The execution layer of the autoAx reproduction: std-only (scoped
//! threads, no external runtime) parallel primitives shared by the
//! `circuit`, `ml`, `core` and `accel` crates.
//!
//! The design-space-exploration loop of the paper performs 10⁵–10⁶ model
//! estimates per run; library characterization and real evaluation are
//! embarrassingly parallel as well. Everything here is built around one
//! invariant: **results are byte-identical regardless of the worker-thread
//! count** — outputs preserve input order and reductions use a fixed
//! association, so parallelism is purely a throughput knob.
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
//! All data-parallel primitives run their chunks as a *burst* on one
//! process-wide persistent worker pool ([`fork`]), so a search performing
//! thousands of parallel rounds pays for thread spawns once, not per
//! round. The thread-count parameter keeps its exact old meaning — it
//! fixes the chunk boundaries (and hence the results, byte-for-byte) and
//! bounds the parallelism of the burst; it does not resize the pool's
//! worker set, which grows lazily to the largest burst seen. The same
//! pool serves island search, library characterization and the searches
//! spawned by `autoax-serve` jobs (whose connection handling still uses
//! the queue-of-closures [`WorkerPool`]).
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
pub mod pool;

pub use fork::pool_workers;
pub use pool::{SubmitError, WorkerPool};

use fork::Slots;

/// Environment variable overriding the default worker-thread count.
pub const THREADS_ENV: &str = "AUTOAX_THREADS";

/// Inputs shorter than this run sequentially in [`par_map`]: for cheap
/// per-item work the spawn overhead dominates below a few dozen items.
const PAR_MAP_MIN_LEN: usize = 32;

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

/// Maps `f` over `items` in parallel using scoped std threads, with the
/// default [`thread_count`]. Results are in input order.
///
/// Falls back to sequential execution for small inputs (the per-item work
/// is assumed cheap; use [`par_map_coarse`] or [`par_map_owned_with`] for
/// expensive items).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_impl(thread_count(), items, f, PAR_MAP_MIN_LEN)
}

/// [`par_map`] for *coarse-grained* items (whole images, circuits):
/// parallelizes from two items up instead of [`par_map`]'s 32-item floor,
/// because the per-item work is assumed to dwarf the spawn overhead.
/// Results are in input order.
pub fn par_map_coarse<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_impl(thread_count(), items, f, 2)
}

fn par_map_impl<T, U, F>(threads: usize, items: &[T], f: F, min_len: usize) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    if items.len() < min_len || threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(threads.min(items.len()));
    let mut results: Vec<Option<Vec<U>>> = Vec::new();
    results.resize_with(items.len().div_ceil(chunk), || None);
    {
        let slots = Slots::new(&mut results);
        let f = &f;
        fork::run_burst(items.len().div_ceil(chunk), |ci| {
            let part = &items[ci * chunk..(ci * chunk + chunk).min(items.len())];
            let out = part.iter().map(f).collect::<Vec<U>>();
            unsafe { slots.put(ci, Some(out)) };
        });
    }
    results.into_iter().flatten().flatten().collect()
}

/// Block scheduler for batched kernels: maps `f` over successive
/// `block`-sized index ranges of `0..n` in parallel, preserving block
/// order. The block size is part of the *result semantics* of callers
/// like batched forest prediction (fixed blocks keep outputs independent
/// of the worker count), so it is an explicit parameter, never derived
/// from the thread count.
///
/// Unlike slicing + [`par_map`], no intermediate range vector is built;
/// workers receive contiguous spans of block indices.
///
/// # Panics
/// Panics when `block` is zero.
pub fn par_map_range<U, F>(n: usize, block: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(std::ops::Range<usize>) -> U + Sync,
{
    par_map_range_impl(thread_count(), n, block, f)
}

fn par_map_range_impl<U, F>(threads: usize, n: usize, block: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(std::ops::Range<usize>) -> U + Sync,
{
    assert!(block > 0, "block size must be positive");
    let blocks = n.div_ceil(block);
    let range_of = |bi: usize| bi * block..((bi + 1) * block).min(n);
    if blocks < 2 || blocks * block < PAR_MAP_MIN_LEN || threads <= 1 {
        return (0..blocks).map(range_of).map(&f).collect();
    }
    let span = blocks.div_ceil(threads.min(blocks));
    let mut results: Vec<Option<Vec<U>>> = Vec::new();
    results.resize_with(blocks.div_ceil(span), || None);
    {
        let slots = Slots::new(&mut results);
        let f = &f;
        let range_of = &range_of;
        fork::run_burst(blocks.div_ceil(span), |ci| {
            let lo = ci * span;
            let hi = (lo + span).min(blocks);
            let out = (lo..hi).map(range_of).map(f).collect::<Vec<U>>();
            unsafe { slots.put(ci, Some(out)) };
        });
    }
    results.into_iter().flatten().flatten().collect()
}

/// Maps `f` over owned `items` in parallel, preserving order.
///
/// Unlike [`par_map`] this is meant for a *small number of expensive,
/// stateful* tasks (e.g. search islands carrying their own RNG): it
/// parallelizes from two items up and hands each worker ownership of its
/// chunk.
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
    let mut parts: Vec<Vec<T>> = Vec::new();
    let mut it = items.into_iter();
    loop {
        let part: Vec<T> = it.by_ref().take(chunk).collect();
        if part.is_empty() {
            break;
        }
        parts.push(part);
    }
    let mut parts: Vec<Option<Vec<T>>> = parts.into_iter().map(Some).collect();
    let mut results: Vec<Option<Vec<U>>> = Vec::new();
    results.resize_with(parts.len(), || None);
    {
        let part_slots = Slots::new(&mut parts);
        let slots = Slots::new(&mut results);
        let f = &f;
        fork::run_burst(results.len(), |ci| {
            let part = unsafe { part_slots.take(ci) }.expect("owned chunk claimed twice");
            let out = part.into_iter().map(f).collect::<Vec<U>>();
            unsafe { slots.put(ci, Some(out)) };
        });
    }
    results.into_iter().flatten().flatten().collect()
}

/// Chunked parallel map-reduce with the default [`thread_count`]: maps
/// every item, then folds the mapped values **left-associatively in input
/// order**. Returns `None` for empty input.
///
/// Because the fold association is fixed (independent of the thread
/// count), the result is byte-identical to the sequential
/// `items.iter().map(map).reduce(fold)` even for non-associative `fold`
/// operations such as floating-point sums.
pub fn map_reduce<T, U, M, R>(items: &[T], map: M, fold: R) -> Option<U>
where
    T: Sync,
    U: Send,
    M: Fn(&T) -> U + Sync,
    R: Fn(U, U) -> U,
{
    // The map phase is assumed coarse-grained (images, circuits):
    // parallelize from two items up, one contiguous chunk per worker.
    par_map_impl(thread_count(), items, map, 2)
        .into_iter()
        .reduce(fold)
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
        let items: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = items.iter().map(|x| x ^ 0xA5).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(
                par_map_impl(threads, &items, |x| x ^ 0xA5, PAR_MAP_MIN_LEN),
                expect,
                "threads={threads}"
            );
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
        assert_eq!(par_map_coarse(&items, |x| x * x), vec![9, 16]);
        let many: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = many.iter().map(|x| x + 1).collect();
        assert_eq!(par_map_coarse(&many, |x| x + 1), expect);
    }

    #[test]
    fn par_map_range_covers_exactly_and_in_order() {
        let got = par_map_range(103, 8, |r| r);
        let flat: Vec<usize> = got.into_iter().flatten().collect();
        assert_eq!(flat, (0..103).collect::<Vec<_>>());
        // a single block never pays for a thread spawn
        assert_eq!(par_map_range(32, 32, |r| r), vec![0..32]);
        // short tail block is its own range
        let blocks = par_map_range(10, 4, |r| (r.start, r.end));
        assert_eq!(blocks, vec![(0, 4), (4, 8), (8, 10)]);
        assert!(par_map_range(0, 4, |r| r).is_empty());
    }

    #[test]
    fn par_map_range_is_thread_invariant() {
        let expect: Vec<usize> = par_map_range_impl(1, 1000, 7, |r| r.end * 3 - r.start);
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                par_map_range_impl(threads, 1000, 7, |r| r.end * 3 - r.start),
                expect,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn map_reduce_empty_is_none() {
        let items: Vec<u32> = Vec::new();
        assert_eq!(map_reduce(&items, |&x| x, |a, b| a + b), None);
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
            let par = par_map_impl(threads, &items, |&x| x * 1.000001, 2)
                .into_iter()
                .reduce(|a, b| a + b)
                .unwrap();
            assert_eq!(par.to_bits(), seq.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn map_reduce_two_items_parallelizes() {
        // Coarse-grained threshold: two items are enough to fan out.
        let got = par_map_impl(4, &[10u64, 32], |&x| x, 2)
            .into_iter()
            .reduce(|a, b| a + b);
        assert_eq!(got, Some(42));
    }

    #[test]
    fn pooled_primitives_grow_one_shared_worker_set() {
        // Repeated bursts reuse pool threads: after a warm-up round the
        // worker count stays put no matter how many more calls follow.
        let items: Vec<u64> = (0..256).collect();
        let _ = par_map_impl(4, &items, |x| x + 1, PAR_MAP_MIN_LEN);
        let after_first = pool_workers();
        assert!(after_first >= 1, "burst must have grown the pool");
        for _ in 0..50 {
            let _ = par_map_impl(4, &items, |x| x + 1, PAR_MAP_MIN_LEN);
            let _ = par_map_range_impl(4, 256, 8, |r| r.len());
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
