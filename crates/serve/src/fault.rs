//! Deterministic fault injection for the serving layer.
//!
//! A [`FaultPlan`] names **sites** in the flush path and arms each with a
//! [`FaultKind`]. The server consults the plan (via
//! [`crate::RankServer::inject_faults`]) at seven fixed sites:
//!
//! | site | where it fires |
//! |---|---|
//! | `"admit"` | in `submit`/`apply`/`subscribe`, before admission |
//! | `"flush-take"` | on a worker, right after it pops a flush |
//! | `"apply"` | on a worker, before each mutation is applied |
//! | `"cache"` | on a worker, before the result cache is purged/consulted |
//! | `"eval"` | on a worker, before the flush's batch evaluates |
//! | `"deliver"` | on a worker, before answers are delivered |
//! | `"worker"` | on a worker, before it starts a flush (kill point) |
//!
//! Tests can additionally route the same plan through hooks *outside* the
//! server — e.g. a [`FaultPlan::consult`] call from a closure armed on
//! `LiveRelation::arm_mutation_probe` turns any custom site name (such as
//! `"mutate"`, between a live relation's plan splice and its generation
//! bump) into part of the same seeded schedule.
//!
//! Injections are **one-shot by default** ([`FaultPlan::once`]) with an
//! optional skip count ([`FaultPlan::after`]), so a seeded chaos schedule
//! fires each fault at a reproducible point. The module is compiled only
//! under `cfg(any(test, feature = "chaos"))`: release servers carry no
//! injection hooks unless the `chaos` feature is enabled explicitly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What an armed injection does when its site is reached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic on the spot (`panic!("injected fault at ...")`). On a worker
    /// this exercises panic isolation: the flush's unstarted entries are
    /// re-queued and the panic is counted, never propagated.
    Panic,
    /// Sleep for the given duration — long delays at `"eval"` make a
    /// worker *stuck*, exercising supervision's compensating respawn.
    Delay(Duration),
    /// Force the call to shed with
    /// [`QueryError::Overloaded`](prf_core::query::QueryError::Overloaded)
    /// (meaningful at `"admit"`; ignored elsewhere).
    Overloaded,
    /// Make the worker thread exit without unwinding (meaningful at
    /// `"worker"`; ignored elsewhere) — exercises dead-worker detection
    /// and respawn.
    KillWorker,
}

/// One armed injection: fires `times` times at `site`, after letting
/// `skip` earlier visits pass.
#[derive(Debug)]
struct Injection {
    site: &'static str,
    kind: FaultKind,
    skip: u64,
    remaining: u64,
}

#[derive(Debug, Default)]
struct PlanInner {
    injections: Mutex<Vec<Injection>>,
    fired: AtomicU64,
}

/// A shared, mutable schedule of injected faults (cheaply cloneable; all
/// clones share the same state, so a test keeps one clone to read
/// [`FaultPlan::fired`] after handing another to the server).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl FaultPlan {
    /// An empty plan: no site fires.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Arms `site` to fire `kind` exactly once, on its next visit.
    pub fn once(self, site: &'static str, kind: FaultKind) -> Self {
        self.arm(site, kind, 0, 1);
        self
    }

    /// Arms `site` to fire `kind` once, after letting `skip` visits pass —
    /// the knob that places a fault at a reproducible depth of a seeded
    /// schedule.
    pub fn after(self, site: &'static str, kind: FaultKind, skip: u64) -> Self {
        self.arm(site, kind, skip, 1);
        self
    }

    /// Arms `site` to fire `kind` on its next `times` visits.
    pub fn times(self, site: &'static str, kind: FaultKind, times: u64) -> Self {
        self.arm(site, kind, 0, times);
        self
    }

    fn arm(&self, site: &'static str, kind: FaultKind, skip: u64, times: u64) {
        self.lock().push(Injection {
            site,
            kind,
            skip,
            remaining: times,
        });
    }

    /// How many injections have fired so far (all sites, all kinds).
    pub fn fired(&self) -> u64 {
        self.inner.fired.load(Ordering::Acquire)
    }

    /// `true` once every armed injection has fired.
    pub fn exhausted(&self) -> bool {
        self.lock().iter().all(|i| i.remaining == 0)
    }

    /// Consults the plan at a caller-defined site, for injection points
    /// *outside* the server's seven built-in ones: returns the armed
    /// [`FaultKind`] when an injection fires there, and leaves acting on
    /// it (panicking, sleeping, …) to the caller. This is how chaos tests
    /// extend a seeded schedule into foreign hooks — e.g. a closure armed
    /// via `LiveRelation::arm_mutation_probe` consulting a `"mutate"` site
    /// and panicking mid-apply when the plan says to.
    pub fn consult(&self, site: &str) -> Option<FaultKind> {
        self.fire(site)
    }

    /// Consults the plan at `site`: decrements skip counts, and returns the
    /// kind to act on when an armed injection fires. Called by the server;
    /// the *action* (panicking, sleeping, …) happens at the call site, off
    /// this lock.
    pub(crate) fn fire(&self, site: &str) -> Option<FaultKind> {
        let mut injections = self.lock();
        for inj in injections.iter_mut() {
            if inj.site != site || inj.remaining == 0 {
                continue;
            }
            if inj.skip > 0 {
                inj.skip -= 1;
                continue;
            }
            inj.remaining -= 1;
            self.inner.fired.fetch_add(1, Ordering::Release);
            return Some(inj.kind.clone());
        }
        None
    }

    #[allow(clippy::disallowed_methods)] // the one blessed raw lock: recovery wants no counter here
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Injection>> {
        self.inner
            .injections
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn once_fires_exactly_once() {
        let plan = FaultPlan::new().once("eval", FaultKind::Panic);
        assert_eq!(plan.fire("apply"), None);
        assert_eq!(plan.fire("eval"), Some(FaultKind::Panic));
        assert_eq!(plan.fire("eval"), None);
        assert_eq!(plan.fired(), 1);
        assert!(plan.exhausted());
    }

    #[test]
    fn after_skips_early_visits() {
        let plan = FaultPlan::new().after("worker", FaultKind::KillWorker, 2);
        assert_eq!(plan.fire("worker"), None);
        assert_eq!(plan.fire("worker"), None);
        assert_eq!(plan.fire("worker"), Some(FaultKind::KillWorker));
        assert_eq!(plan.fire("worker"), None);
    }

    #[test]
    fn clones_share_state() {
        let plan = FaultPlan::new().times("deliver", FaultKind::Delay(Duration::ZERO), 2);
        let server_side = plan.clone();
        assert!(server_side.fire("deliver").is_some());
        assert!(server_side.fire("deliver").is_some());
        assert!(server_side.fire("deliver").is_none());
        assert_eq!(plan.fired(), 2);
    }
}
