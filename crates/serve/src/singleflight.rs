//! Single-flight deduplication: concurrent identical jobs collapse onto
//! one computation whose result fans out to every waiter.
//!
//! The API is deliberately **two-phase** so concurrency tests can be
//! deterministic: [`SingleFlight::begin`] registers interest and decides
//! leader vs. follower *without* running anything, and the leader then
//! publishes through [`Leader::complete`] / [`Leader::fail`]. A test can
//! rendezvous N threads between the two phases and assert that exactly
//! one of them computed.
//!
//! Cleanup guarantee: a [`Leader`] dropped without publishing (a panic in
//! the computation) marks the flight failed and wakes every follower —
//! waiters never hang on an abandoned slot, and the key is always
//! removed from the table so a retry starts a fresh flight.
//!
//! A panic under either lock (a key's `Hash`, a value's `Clone`) poisons
//! it, and every later use recovers the guard instead of panicking in
//! turn. That matters most in the leader's drop, which runs while a
//! failed computation unwinds: a second panic there would abort the
//! process. Each update leaves the table valid if it stops part-way.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a panic poisoned it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

enum FlightState<V> {
    Pending,
    Done(V),
    Failed(String),
}

struct Flight<V> {
    state: Mutex<FlightState<V>>,
    ready: Condvar,
}

/// The deduplication table. `V` is cloned once per follower; wrap large
/// results in an `Arc`.
pub struct SingleFlight<K: Eq + Hash + Clone, V: Clone> {
    inflight: Mutex<HashMap<K, Arc<Flight<V>>>>,
}

/// Outcome of [`SingleFlight::begin`].
pub enum Role<'a, K: Eq + Hash + Clone, V: Clone> {
    /// This caller runs the computation and must publish through the
    /// guard.
    Leader(Leader<'a, K, V>),
    /// Another caller is already running it; [`Follower::wait`] blocks
    /// for the published result.
    Follower(Follower<V>),
}

/// Obligation to publish: exactly one of [`Leader::complete`] /
/// [`Leader::fail`]; dropping unpublished fails the flight.
pub struct Leader<'a, K: Eq + Hash + Clone, V: Clone> {
    table: &'a SingleFlight<K, V>,
    key: K,
    flight: Arc<Flight<V>>,
    published: bool,
}

/// A handle on someone else's in-progress computation.
pub struct Follower<V: Clone> {
    flight: Arc<Flight<V>>,
}

impl<K: Eq + Hash + Clone, V: Clone> Default for SingleFlight<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> SingleFlight<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Registers interest in `key`: the first caller becomes the
    /// [`Role::Leader`], every concurrent caller a [`Role::Follower`] of
    /// that leader. Once the leader publishes, the key leaves the table
    /// and the next `begin` starts a fresh flight.
    pub fn begin(&self, key: K) -> Role<'_, K, V> {
        let mut map = lock(&self.inflight);
        if let Some(flight) = map.get(&key) {
            return Role::Follower(Follower {
                flight: Arc::clone(flight),
            });
        }
        let flight = Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            ready: Condvar::new(),
        });
        map.insert(key.clone(), Arc::clone(&flight));
        Role::Leader(Leader {
            table: self,
            key,
            flight,
            published: false,
        })
    }

    /// Keys currently in flight (tests and stats).
    pub fn in_flight(&self) -> usize {
        lock(&self.inflight).len()
    }

    fn publish(&self, key: &K, flight: &Flight<V>, state: FlightState<V>) {
        // Remove first, then publish: a caller that misses the table
        // entry starts a fresh flight, which is correct — the result is
        // (or will be) also in the engine's result cache.
        lock(&self.inflight).remove(key);
        *lock(&flight.state) = state;
        flight.ready.notify_all();
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Leader<'_, K, V> {
    /// Publishes a success to every follower and retires the flight.
    pub fn complete(mut self, value: V) {
        self.published = true;
        self.table
            .publish(&self.key, &self.flight, FlightState::Done(value));
    }

    /// Publishes a failure to every follower and retires the flight.
    pub fn fail(mut self, error: String) {
        self.published = true;
        self.table
            .publish(&self.key, &self.flight, FlightState::Failed(error));
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for Leader<'_, K, V> {
    fn drop(&mut self) {
        if !self.published {
            self.table.publish(
                &self.key,
                &self.flight,
                FlightState::Failed("the computation was abandoned by its leader".into()),
            );
        }
    }
}

impl<V: Clone> Follower<V> {
    /// Blocks until the leader publishes.
    ///
    /// # Errors
    /// The leader's [`Leader::fail`] message (or the abandonment message
    /// if the leader was dropped unpublished).
    pub fn wait(self) -> Result<V, String> {
        let mut state = lock(&self.flight.state);
        loop {
            match &*state {
                FlightState::Pending => {
                    state = self
                        .flight
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                FlightState::Done(v) => return Ok(v.clone()),
                FlightState::Failed(e) => return Err(e.clone()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn leader_then_fresh_flight() {
        let sf: SingleFlight<u32, u64> = SingleFlight::new();
        match sf.begin(7) {
            Role::Leader(l) => l.complete(42),
            Role::Follower(_) => panic!("first begin must lead"),
        }
        assert_eq!(sf.in_flight(), 0);
        // Retired key → a new flight, not a stale follower.
        assert!(matches!(sf.begin(7), Role::Leader(_)));
    }

    #[test]
    fn followers_receive_the_leaders_value() {
        let sf: Arc<SingleFlight<u32, u64>> = Arc::new(SingleFlight::new());
        let n = 6;
        let barrier = Arc::new(Barrier::new(n + 1));
        let leaders = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..n {
            let (sf, barrier, leaders) = (sf.clone(), barrier.clone(), leaders.clone());
            handles.push(std::thread::spawn(move || match sf.begin(1) {
                Role::Leader(l) => {
                    leaders.fetch_add(1, Ordering::SeqCst);
                    barrier.wait(); // everyone has begun
                    l.complete(99);
                    99
                }
                Role::Follower(f) => {
                    barrier.wait();
                    f.wait().unwrap()
                }
            }));
        }
        barrier.wait();
        for h in handles {
            assert_eq!(h.join().unwrap(), 99);
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 1, "exactly one leader");
        assert_eq!(sf.in_flight(), 0, "flight retired");
    }

    #[test]
    fn failure_fans_out() {
        let sf: Arc<SingleFlight<u32, u64>> = Arc::new(SingleFlight::new());
        let leader = match sf.begin(3) {
            Role::Leader(l) => l,
            Role::Follower(_) => unreachable!(),
        };
        let follower = match sf.begin(3) {
            Role::Follower(f) => f,
            Role::Leader(_) => panic!("pending key must follow"),
        };
        leader.fail("boom".into());
        assert_eq!(follower.wait(), Err("boom".into()));
    }

    #[test]
    fn abandoned_leader_cleans_up_and_unblocks_followers() {
        let sf: SingleFlight<u32, u64> = SingleFlight::new();
        let leader = match sf.begin(5) {
            Role::Leader(l) => l,
            Role::Follower(_) => unreachable!(),
        };
        let follower = match sf.begin(5) {
            Role::Follower(f) => f,
            Role::Leader(_) => unreachable!(),
        };
        drop(leader); // simulates a panic in the computation
        let err = follower.wait().unwrap_err();
        assert!(err.contains("abandoned"), "{err}");
        assert_eq!(sf.in_flight(), 0, "abandoned slot must not leak");
    }

    /// Panics while holding `mutex`, poisoning it.
    fn poison<T>(mutex: &Mutex<T>) {
        let held = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mutex.lock().unwrap();
            panic!("panic under a single-flight lock");
        }));
        assert!(held.is_err() && mutex.is_poisoned());
    }

    fn lead(sf: &SingleFlight<u32, u64>, key: u32) -> Leader<'_, u32, u64> {
        match sf.begin(key) {
            Role::Leader(l) => l,
            Role::Follower(_) => panic!("{key} must lead"),
        }
    }

    fn follow(sf: &SingleFlight<u32, u64>, key: u32) -> Follower<u64> {
        match sf.begin(key) {
            Role::Follower(f) => f,
            Role::Leader(_) => panic!("{key} must follow"),
        }
    }

    #[test]
    fn poisoned_locks_still_fly_and_fan_out() {
        let sf: Arc<SingleFlight<u32, u64>> = Arc::new(SingleFlight::new());
        poison(&sf.inflight);
        // A new flight on the poisoned table, with a follower already
        // waiting on another thread when its flight lock gets poisoned.
        let leader = lead(&sf, 1);
        let follower = follow(&sf, 1);
        assert_eq!(sf.in_flight(), 1);
        let waiter = std::thread::spawn(move || follower.wait());
        // Time for the follower to park in the condition wait, so that it
        // wakes to a poisoned lock (had it not parked yet, it would find
        // the lock poisoned on entry, the other recovered path).
        std::thread::sleep(std::time::Duration::from_millis(50));
        poison(&leader.flight.state);
        leader.complete(7);
        assert_eq!(waiter.join().unwrap(), Ok(7));
        assert_eq!(sf.in_flight(), 0);
        // The next flight on the same key, and an abandoned one.
        lead(&sf, 1).complete(8);
        let abandoned = lead(&sf, 2);
        let follower = follow(&sf, 2);
        poison(&abandoned.flight.state);
        drop(abandoned);
        assert!(follower.wait().unwrap_err().contains("abandoned"));
        assert_eq!(sf.in_flight(), 0);
    }

    #[test]
    fn a_leader_dropped_while_unwinding_does_not_abort() {
        let sf: SingleFlight<u32, u64> = SingleFlight::new();
        let follower = {
            let leader = lead(&sf, 3);
            let follower = follow(&sf, 3);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _leader = leader;
                // Poison the table's lock, then unwind through the
                // leader's drop.
                let _map = sf.inflight.lock().unwrap();
                panic!("panic under the single-flight lock");
            }));
            assert!(unwound.is_err());
            follower
        };
        assert!(follower.wait().unwrap_err().contains("abandoned"));
        assert_eq!(sf.in_flight(), 0);
        lead(&sf, 3).complete(1);
    }

    #[test]
    fn distinct_keys_fly_independently() {
        let sf: SingleFlight<u32, u64> = SingleFlight::new();
        let a = match sf.begin(1) {
            Role::Leader(l) => l,
            _ => unreachable!(),
        };
        let b = match sf.begin(2) {
            Role::Leader(l) => l,
            _ => unreachable!(),
        };
        assert_eq!(sf.in_flight(), 2);
        a.complete(1);
        b.complete(2);
        assert_eq!(sf.in_flight(), 0);
    }
}
