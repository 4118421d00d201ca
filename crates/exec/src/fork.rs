//! Persistent fork-join worker pool behind [`crate::par_map`] and
//! [`crate::par_map_owned_with`].
//!
//! Every parallel map over two or more items is one *burst*. Bursts are
//! counted in tens, not thousands: at two workers a tiny-library build
//! issues 50, a cold Sobel pipeline 14, and a Generic-GF pipeline 26 cold
//! and 6 warm. They are still too many to spawn threads for. On a 2-core VM a two-thread
//! burst costs 22–24 µs on this pool against 32–39 µs for a
//! `std::thread::scope` spawned per burst, and a build that spawned per
//! burst lost the cold Sobel benchmark (`dsebench`'s `cold_sobel`) in 9
//! of 10 alternating pairs, 0.134 → 0.141 s. So this module keeps a
//! process-wide set of long-lived workers behind a condvar-guarded job
//! queue and hands them bursts: a fixed number of index-addressed tasks
//! plus a completion latch.
//!
//! ## Determinism contract
//!
//! The pool never decides *what* a task computes or *where* its result
//! goes — a burst is `f(0), f(1), …, f(tasks-1)` and each `f(i)` writes
//! to a result slot chosen by `i` alone. Workers claim indices with an
//! atomic `fetch_add`, so scheduling only affects *which thread* runs a
//! task, never the task→slot association. Combined with the fixed
//! chunking of the callers (chunk boundaries derive from the requested
//! thread count, not from the pool state), results are byte-identical at
//! every thread count.
//!
//! ## Blocking and nesting
//!
//! The submitting thread participates in its own burst (it claims indices
//! like any worker) and only then waits on the latch. Because of that, a
//! burst always makes progress even when every pool worker is busy — in
//! particular a task may itself submit a nested burst (a parallel map
//! whose per-item work maps in parallel again) without deadlocking: the
//! inner submitter simply runs its own tasks inline if nobody is free.
//!
//! ## Panics
//!
//! A panicking task is caught on the worker (keeping the thread alive for
//! future bursts), recorded on the job, and re-raised on the submitting
//! thread once the burst completes, as joining a panicked thread would.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use autoax_telemetry as telemetry;

/// Pool metrics, registered once and cached. Burst-granular only — never
/// per task — so the subscribed overhead is a few atomics per burst and
/// the unsubscribed overhead is one relaxed load per burst.
struct PoolMetrics {
    workers: telemetry::Gauge,
    busy: telemetry::Gauge,
    bursts: telemetry::Counter,
    burst_tasks: telemetry::Histogram,
    burst_ns: telemetry::Histogram,
}

fn pool_metrics() -> &'static PoolMetrics {
    static M: OnceLock<PoolMetrics> = OnceLock::new();
    M.get_or_init(|| PoolMetrics {
        workers: telemetry::gauge("autoax_pool_workers"),
        busy: telemetry::gauge("autoax_pool_busy_workers"),
        bursts: telemetry::counter("autoax_pool_bursts_total"),
        burst_tasks: telemetry::histogram("autoax_pool_burst_tasks"),
        burst_ns: telemetry::histogram("autoax_pool_burst_ns"),
    })
}

/// Upper bound on pool workers, far above any sane `AUTOAX_THREADS`.
/// Requests beyond it still complete — the submitter runs the overflow
/// tasks itself — there is just no extra parallelism past the cap.
const MAX_WORKERS: usize = 256;

type Task = dyn Fn(usize) + Sync;

/// One fork-join burst: `total` index-addressed tasks over an erased
/// closure, a claim counter, and a completion latch.
struct Job {
    /// Lifetime-erased reference to the burst closure. Safety: the
    /// submitting `run_burst` frame owns the real closure and does not
    /// return until `remaining` reaches zero, and no task can be claimed
    /// once `next >= total`, so every dereference happens while the
    /// closure is alive.
    f: &'static Task,
    total: usize,
    /// Next unclaimed task index; values ≥ `total` mean "drained".
    next: AtomicUsize,
    /// Unfinished-task latch; the last decrement flips `done`.
    remaining: AtomicUsize,
    panicked: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
}

struct Pool {
    /// Active bursts in submission order; workers drain from the front.
    queue: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
    /// Workers spawned so far (grown lazily, never shrunk).
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        wake: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

/// Number of pool workers spawned so far (observability; tests).
pub fn pool_workers() -> usize {
    *pool().spawned.lock().expect("pool spawn lock poisoned")
}

impl Pool {
    /// Grows the worker set to at least `want` threads (capped). Spawn
    /// failure is tolerated: the submitter self-executes, so a smaller
    /// pool only costs parallelism, never correctness.
    fn ensure_workers(&self, want: usize) {
        let want = want.min(MAX_WORKERS);
        let mut spawned = self.spawned.lock().expect("pool spawn lock poisoned");
        while *spawned < want {
            let name = format!("autoax-pool-{}", *spawned);
            let ok = std::thread::Builder::new()
                .name(name)
                .spawn(|| worker_loop(pool()))
                .is_ok();
            if !ok {
                break;
            }
            *spawned += 1;
        }
        if telemetry::metrics_enabled() {
            pool_metrics().workers.set(*spawned as i64);
        }
    }
}

fn worker_loop(pool: &'static Pool) {
    loop {
        let job = {
            let mut q = pool.queue.lock().expect("pool queue lock poisoned");
            loop {
                // Drop drained bursts from the front, claim the first
                // one that still has unclaimed tasks.
                let mut found = None;
                while let Some(j) = q.front() {
                    if j.next.load(Ordering::Relaxed) < j.total {
                        found = Some(Arc::clone(j));
                        break;
                    }
                    q.pop_front();
                }
                if let Some(j) = found {
                    break j;
                }
                q = pool.wake.wait(q).expect("pool queue lock poisoned");
            }
        };
        // Capture the flag once so the inc/dec pair stays balanced even if
        // the registry is toggled mid-burst.
        let track = telemetry::metrics_enabled();
        if track {
            pool_metrics().busy.inc();
        }
        execute(&job);
        if track {
            pool_metrics().busy.dec();
        }
    }
}

/// Claims and runs tasks of `job` until the claim counter drains.
/// Shared by pool workers and the submitting thread.
fn execute(job: &Job) {
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.total {
            return;
        }
        let f = job.f;
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))).is_err() {
            job.panicked.store(true, Ordering::Relaxed);
        }
        // AcqRel: publishes this task's result writes to whoever observes
        // the latch, and (for the final decrement) acquires everyone
        // else's.
        if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = job.done.lock().expect("pool done lock poisoned");
            *done = true;
            job.done_cv.notify_all();
        }
    }
}

/// Runs `f(0), f(1), …, f(tasks-1)` on the persistent pool and returns
/// once all of them completed. The submitting thread participates, so the
/// effective parallelism is up to `tasks` (submitter + `tasks-1` workers)
/// and the call makes progress even with zero free workers — including
/// when invoked from inside another burst's task.
///
/// # Panics
/// Re-raises (as a fresh panic) if any task panicked.
pub fn run_burst<F>(tasks: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    match tasks {
        0 => return,
        1 => {
            f(0);
            return;
        }
        _ => {}
    }
    let pool = pool();
    pool.ensure_workers(tasks - 1);
    // Burst-granular telemetry (0/1-task bursts run inline above and are
    // deliberately uncounted — they never touch the pool).
    let burst_start = if telemetry::metrics_enabled() {
        let m = pool_metrics();
        m.bursts.inc();
        m.burst_tasks.record(tasks as u64);
        Some(std::time::Instant::now())
    } else {
        None
    };

    // Erase the closure lifetime; see the safety note on `Job::f`.
    let f_ref: &(dyn Fn(usize) + Sync + '_) = &f;
    let f_static: &'static Task =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync + '_), &'static Task>(f_ref) };
    let job = Arc::new(Job {
        f: f_static,
        total: tasks,
        next: AtomicUsize::new(0),
        remaining: AtomicUsize::new(tasks),
        panicked: AtomicBool::new(false),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
    });

    {
        let mut q = pool.queue.lock().expect("pool queue lock poisoned");
        q.push_back(Arc::clone(&job));
    }
    // Wake at most as many workers as there are tasks to hand out.
    for _ in 0..tasks - 1 {
        pool.wake.notify_one();
    }

    // Work on our own burst, then wait out stragglers on the latch.
    execute(&job);
    let mut done = job.done.lock().expect("pool done lock poisoned");
    while !*done {
        done = job.done_cv.wait(done).expect("pool done lock poisoned");
    }
    drop(done);

    // The queue self-cleans lazily (workers pop drained fronts), but a
    // burst that no worker ever looked at would linger; remove it now so
    // the erased closure reference never outlives this frame inside the
    // queue.
    {
        let mut q = pool.queue.lock().expect("pool queue lock poisoned");
        if let Some(pos) = q.iter().position(|j| Arc::ptr_eq(j, &job)) {
            q.remove(pos);
        }
    }

    if let Some(t0) = burst_start {
        pool_metrics()
            .burst_ns
            .record(t0.elapsed().as_nanos() as u64);
    }

    if job.panicked.load(Ordering::Relaxed) {
        panic!("pooled burst task panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_runs_every_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        run_burst(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn zero_and_single_task_bursts_run_inline() {
        run_burst(0, |_| panic!("must not run"));
        let ran = AtomicUsize::new(0);
        run_burst(1, |i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn nested_bursts_do_not_deadlock() {
        let total = AtomicUsize::new(0);
        run_burst(4, |_| {
            run_burst(4, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn concurrent_bursts_from_many_threads() {
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..16 {
                        run_burst(5, |_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 16 * 5);
    }

    #[test]
    fn panicking_task_reraises_on_submitter_and_pool_survives() {
        let r = std::panic::catch_unwind(|| {
            run_burst(4, |i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        });
        assert!(r.is_err(), "burst panic must propagate to the submitter");
        // Pool threads survived the contained panic and still serve work.
        let count = AtomicUsize::new(0);
        run_burst(8, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }
}
