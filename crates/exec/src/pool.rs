//! A reusable fixed-size worker pool.
//!
//! The parallel maps in the crate root ([`crate::par_map`] and
//! [`crate::par_map_owned_with`]) run fork-join bursts: the caller blocks
//! until every task of its burst is done. A long-lived service handles an
//! open-ended stream of independent tasks instead (e.g. one task per
//! accepted connection in `autoax-serve`). [`WorkerPool`] keeps `n`
//! threads alive behind a condvar-guarded queue:
//!
//! * [`WorkerPool::submit`] enqueues a boxed closure; a bounded queue
//!   rejects work instead of buffering unboundedly;
//! * [`WorkerPool::shutdown`] is graceful — already-queued tasks drain,
//!   workers then exit and are joined. Submissions after shutdown are
//!   rejected;
//! * dropping the pool shuts it down implicitly.
//!
//! Panics in a task are contained to that task: the worker catches the
//! unwind, counts it, and keeps serving.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use autoax_telemetry as telemetry;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// Service-pool metrics (shared by all [`WorkerPool`] instances — in
/// practice one per process, the `autoax-serve` connection pool).
struct ServiceMetrics {
    busy: telemetry::Gauge,
    tasks: telemetry::Counter,
    task_panics: telemetry::Counter,
}

fn service_metrics() -> &'static ServiceMetrics {
    static M: OnceLock<ServiceMetrics> = OnceLock::new();
    M.get_or_init(|| ServiceMetrics {
        busy: telemetry::gauge("autoax_service_pool_busy_workers"),
        tasks: telemetry::counter("autoax_service_pool_tasks_total"),
        task_panics: telemetry::counter("autoax_service_pool_task_panics_total"),
    })
}

/// Why a [`WorkerPool::submit`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — the caller should shed load.
    QueueFull,
    /// The pool is shutting down (or already shut down).
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "worker pool queue is full"),
            SubmitError::ShuttingDown => write!(f, "worker pool is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Default)]
struct QueueState {
    tasks: VecDeque<Task>,
    shutting_down: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signalled on task arrival and on shutdown.
    wake: Condvar,
    capacity: usize,
    completed: AtomicU64,
    panicked: AtomicU64,
}

/// A fixed-size pool of long-lived worker threads over a bounded queue.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool of `threads` workers (clamped to ≥ 1) with room for
    /// `capacity` queued tasks (clamped to ≥ 1) beyond the ones running.
    pub fn new(threads: usize, capacity: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState::default()),
            wake: Condvar::new(),
            capacity: capacity.max(1),
            completed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("autoax-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a task for execution on some worker.
    ///
    /// # Errors
    /// [`SubmitError::QueueFull`] at capacity, [`SubmitError::ShuttingDown`]
    /// after [`WorkerPool::shutdown`].
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        let mut state = self.shared.state.lock().expect("pool lock poisoned");
        if state.shutting_down {
            return Err(SubmitError::ShuttingDown);
        }
        if state.tasks.len() >= self.shared.capacity {
            return Err(SubmitError::QueueFull);
        }
        state.tasks.push_back(Box::new(task));
        drop(state);
        self.shared.wake.notify_one();
        Ok(())
    }

    /// Tasks completed so far (including panicked ones).
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Relaxed)
    }

    /// Tasks that panicked (contained; the worker survived).
    pub fn panicked(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: rejects new submissions, lets queued tasks
    /// drain, then joins every worker. Idempotent.
    pub fn shutdown(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock poisoned");
            state.shutting_down = true;
        }
        self.shared.wake.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let task = {
            let mut state = shared.state.lock().expect("pool lock poisoned");
            loop {
                if let Some(t) = state.tasks.pop_front() {
                    break t;
                }
                if state.shutting_down {
                    return;
                }
                state = shared.wake.wait(state).expect("pool lock poisoned");
            }
        };
        let track = telemetry::metrics_enabled();
        if track {
            service_metrics().busy.inc();
        }
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task)).is_err();
        if panicked {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
        }
        shared.completed.fetch_add(1, Ordering::Relaxed);
        if track {
            let m = service_metrics();
            m.busy.dec();
            m.tasks.inc();
            if panicked {
                m.task_panics.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_submitted_tasks() {
        let pool = WorkerPool::new(4, 64);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        let mut pool = pool;
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 32);
        assert_eq!(pool.completed(), 32);
        assert_eq!(pool.panicked(), 0);
    }

    #[test]
    fn shutdown_drains_queued_tasks_and_rejects_new_ones() {
        let mut pool = WorkerPool::new(1, 16);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                c.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 8, "queued tasks must drain");
        assert_eq!(pool.submit(|| ()), Err(SubmitError::ShuttingDown));
        pool.shutdown(); // idempotent
    }

    #[test]
    fn bounded_queue_rejects_overflow() {
        let pool = WorkerPool::new(1, 1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Occupy the single worker until released.
        let g = Arc::clone(&gate);
        pool.submit(move || {
            let (lock, cv) = &*g;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        })
        .unwrap();
        // Wait for the worker to pick the blocker up, then fill the queue.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            {
                let state = pool.shared.state.lock().unwrap();
                if state.tasks.is_empty() {
                    break;
                }
            }
            assert!(std::time::Instant::now() < deadline, "worker never started");
            std::thread::yield_now();
        }
        pool.submit(|| ()).unwrap();
        assert_eq!(pool.submit(|| ()), Err(SubmitError::QueueFull));
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let mut pool = WorkerPool::new(1, 8);
        let counter = Arc::new(AtomicUsize::new(0));
        pool.submit(|| panic!("task boom")).unwrap();
        let c = Arc::clone(&counter);
        pool.submit(move || {
            c.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        pool.shutdown();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        assert_eq!(pool.panicked(), 1);
        assert_eq!(pool.completed(), 2);
    }
}
