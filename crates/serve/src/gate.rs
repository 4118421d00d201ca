//! Admission control with per-tenant fairness: a global cap on
//! concurrently *running* jobs plus a smaller per-tenant cap, so one
//! chatty tenant can saturate neither the worker pool nor the gate —
//! other tenants always have admission slots only they can use.
//!
//! Load is shed, not queued: [`AdmissionGate::try_acquire`] refuses
//! immediately (the HTTP layer answers `429`) instead of parking the
//! connection thread. The bounded queue lives one layer down in
//! [`autoax_exec::WorkerPool`]; the gate bounds what is allowed past it.
//!
//! A panic while the gate's lock is held poisons it, and the gate recovers
//! the guard instead of panicking in turn: a [`Permit`] dropped during
//! unwinding must not panic a second time, which would abort the process.
//! Every update is ordered so that a panic part-way through cannot leak a
//! slot of the global count: admission records the tenant before it
//! counts the job, and release uncounts the job before it releases the
//! tenant.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Why admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The global running-job cap is reached.
    ServerSaturated,
    /// This tenant is already at its per-tenant cap.
    TenantSaturated,
}

impl Refused {
    /// Stable label for the metrics stream
    /// (`autoax_serve_rejections_total{reason=...}`).
    pub fn label(&self) -> &'static str {
        match self {
            Refused::ServerSaturated => "server_saturated",
            Refused::TenantSaturated => "tenant_saturated",
        }
    }
}

impl std::fmt::Display for Refused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Refused::ServerSaturated => write!(f, "server is at its concurrent-job limit"),
            Refused::TenantSaturated => write!(f, "tenant is at its concurrent-job limit"),
        }
    }
}

#[derive(Default)]
struct GateState {
    total: usize,
    per_tenant: HashMap<String, usize>,
}

/// The gate. Clone-free shared use via `Arc`.
pub struct AdmissionGate {
    state: Mutex<GateState>,
    global_cap: usize,
    tenant_cap: usize,
}

/// An admission slot; dropping it releases the slot.
pub struct Permit {
    gate: Arc<AdmissionGate>,
    tenant: String,
}

impl AdmissionGate {
    /// A gate admitting at most `global_cap` jobs overall and
    /// `tenant_cap` per tenant (both clamped to ≥ 1; a `tenant_cap`
    /// above `global_cap` is effectively `global_cap`).
    pub fn new(global_cap: usize, tenant_cap: usize) -> Self {
        AdmissionGate {
            state: Mutex::new(GateState::default()),
            global_cap: global_cap.max(1),
            tenant_cap: tenant_cap.max(1),
        }
    }

    /// Tries to admit one job for `tenant`.
    ///
    /// # Errors
    /// [`Refused`] naming which cap was hit; nothing is held on refusal.
    pub fn try_acquire(self: &Arc<Self>, tenant: &str) -> Result<Permit, Refused> {
        let mut state = self.lock();
        if state.total >= self.global_cap {
            return Err(Refused::ServerSaturated);
        }
        let mine = state.per_tenant.get(tenant).copied().unwrap_or(0);
        if mine >= self.tenant_cap {
            return Err(Refused::TenantSaturated);
        }
        state.per_tenant.insert(tenant.to_string(), mine + 1);
        state.total += 1;
        Ok(Permit {
            gate: Arc::clone(self),
            tenant: tenant.to_string(),
        })
    }

    /// Jobs currently admitted.
    pub fn running(&self) -> usize {
        self.lock().total
    }

    /// The state, recovered if a panic poisoned its lock.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut state = self.gate.lock();
        state.total -= 1;
        match state.per_tenant.get_mut(&self.tenant) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                // Last slot for this tenant: drop the map entry so an
                // open-ended tenant-name space can't grow the map forever.
                state.per_tenant.remove(&self.tenant);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_tenant_cap_leaves_room_for_others() {
        let gate = Arc::new(AdmissionGate::new(4, 2));
        let _a1 = gate.try_acquire("a").unwrap();
        let _a2 = gate.try_acquire("a").unwrap();
        // Tenant a is at its cap, but the server is not.
        assert_eq!(gate.try_acquire("a").err(), Some(Refused::TenantSaturated));
        let _b1 = gate.try_acquire("b").unwrap();
        let _b2 = gate.try_acquire("b").unwrap();
        assert_eq!(gate.running(), 4);
        // Now the global cap bites first, for any tenant.
        assert_eq!(gate.try_acquire("c").err(), Some(Refused::ServerSaturated));
    }

    #[test]
    fn dropping_a_permit_frees_the_slot() {
        let gate = Arc::new(AdmissionGate::new(2, 1));
        let a = gate.try_acquire("a").unwrap();
        assert!(gate.try_acquire("a").is_err());
        drop(a);
        assert_eq!(gate.running(), 0);
        let _again = gate.try_acquire("a").unwrap();
    }

    /// Panics while holding the gate's lock, poisoning it.
    fn poison(gate: &AdmissionGate) {
        let held = std::panic::catch_unwind(|| {
            let _state = gate.state.lock().unwrap();
            panic!("panic under the gate lock");
        });
        assert!(held.is_err() && gate.state.is_poisoned());
    }

    #[test]
    fn a_poisoned_lock_still_admits_and_releases() {
        let gate = Arc::new(AdmissionGate::new(2, 1));
        let held = gate.try_acquire("a").unwrap();
        poison(&gate);
        // A permit taken before the panic releases its slot without
        // panicking, and the gate keeps admitting and counting.
        drop(held);
        assert_eq!(gate.running(), 0);
        let a = gate.try_acquire("a").unwrap();
        assert_eq!(gate.try_acquire("a").err(), Some(Refused::TenantSaturated));
        let b = gate.try_acquire("b").unwrap();
        assert_eq!(gate.running(), 2);
        drop((a, b));
        assert_eq!(gate.running(), 0);
        assert!(gate.lock().per_tenant.is_empty());
    }

    #[test]
    fn a_permit_dropped_while_unwinding_does_not_abort() {
        let gate = Arc::new(AdmissionGate::new(2, 2));
        let unwound = std::panic::catch_unwind(|| {
            let _permit = gate.try_acquire("a").unwrap();
            // Poison the lock, then unwind through the permit's drop.
            let _state = gate.state.lock().unwrap();
            panic!("panic under the gate lock");
        });
        assert!(unwound.is_err());
        assert_eq!(gate.running(), 0);
        let _again = gate.try_acquire("a").unwrap();
    }

    #[test]
    fn tenant_bookkeeping_does_not_leak_names() {
        let gate = Arc::new(AdmissionGate::new(8, 2));
        for i in 0..100 {
            let p = gate.try_acquire(&format!("tenant-{i}")).unwrap();
            drop(p);
        }
        assert!(gate.state.lock().unwrap().per_tenant.is_empty());
    }
}
