//! Flush-worker supervision: heartbeats, dead/stuck detection, respawn.
//!
//! Every flush worker owns a [`WorkerCtl`]: a heartbeat counter it bumps
//! each scheduling round, a `busy` flag set around flush execution, and an
//! `alive` flag cleared by a drop sentinel when the thread exits for *any*
//! reason. The supervisor thread ticks a few times per
//! [`ServeConfig::stuck_after`](crate::ServeConfig::stuck_after) window and
//! compares:
//!
//! - **dead** (`alive == false` outside shutdown): the thread exited —
//!   an injected [`FaultKind::KillWorker`](crate::FaultKind) or an escaped
//!   double panic. The supervisor joins the corpse and spawns a
//!   replacement.
//! - **stuck** (`busy == true` and the heartbeat unchanged for longer than
//!   `stuck_after`): the worker is inside a walk that outlived its budget.
//!   `std` threads cannot be killed, so the supervisor spawns a
//!   *compensating* worker to restore pool throughput and marks the stuck
//!   one **superseded** — if it ever finishes its flush, it exits instead
//!   of rejoining the pool, keeping the worker count at the configured
//!   level.
//!
//! Respawns are counted in
//! [`ServeMetrics::workers_respawned`](crate::ServeMetrics::workers_respawned).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::server::{lock_recover, spawn_named, worker_loop, Shared};

/// Per-worker control block, shared between the worker thread (writer) and
/// the supervisor (reader).
pub(crate) struct WorkerCtl {
    /// Bumped by the worker every scheduling round and around each flush —
    /// a counter that stalls exactly when the worker does.
    pub(crate) beats: AtomicU64,
    /// Set while the worker executes a flush (an idle worker parked on the
    /// condvar is quiet but not stuck).
    pub(crate) busy: AtomicBool,
    /// Cleared by [`AliveSentinel`] when the thread exits, however it
    /// exits.
    pub(crate) alive: AtomicBool,
    /// Set by the supervisor once a compensating worker was spawned for
    /// this (stuck) one; the worker exits at its next scheduling round.
    pub(crate) superseded: AtomicBool,
}

impl WorkerCtl {
    fn new() -> Self {
        WorkerCtl {
            beats: AtomicU64::new(0),
            busy: AtomicBool::new(false),
            alive: AtomicBool::new(true),
            superseded: AtomicBool::new(false),
        }
    }
}

/// Clears `alive` when dropped — the worker's death certificate, filed on
/// normal exit, supersession, an injected kill, and unwinds alike.
struct AliveSentinel(Arc<WorkerCtl>);

impl Drop for AliveSentinel {
    fn drop(&mut self) {
        self.0.alive.store(false, Ordering::Release);
    }
}

/// The supervisor's view of one spawned worker.
pub(crate) struct WorkerEntry {
    ctl: Arc<WorkerCtl>,
    handle: Option<JoinHandle<()>>,
    /// The heartbeat value last observed, and when it last changed.
    last_beat: u64,
    last_progress: Instant,
}

/// The live worker pool: spawned threads plus their control blocks. Owned
/// jointly by the [`RankServer`](crate::RankServer) (for shutdown joins)
/// and the supervisor thread (for respawns).
pub(crate) struct WorkerTable {
    entries: Mutex<Vec<WorkerEntry>>,
    next_id: AtomicUsize,
}

impl WorkerTable {
    pub(crate) fn new() -> Self {
        WorkerTable {
            entries: Mutex::new(Vec::new()),
            next_id: AtomicUsize::new(0),
        }
    }

    /// Spawns a fresh worker thread and registers it.
    pub(crate) fn spawn(&self, shared: &Arc<Shared>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ctl = Arc::new(WorkerCtl::new());
        let handle = {
            let shared = Arc::clone(shared);
            let ctl = Arc::clone(&ctl);
            spawn_named(format!("prf-serve-worker-{id}"), move || {
                let _death_certificate = AliveSentinel(Arc::clone(&ctl));
                worker_loop(&shared, &ctl);
            })
        };
        lock_recover(&self.entries, shared.poisoned()).push(WorkerEntry {
            ctl,
            handle: Some(handle),
            last_beat: 0,
            last_progress: Instant::now(),
        });
    }

    /// Joins every worker at shutdown. A worker that is both *superseded*
    /// and still mid-flush is detached instead of joined — its walk cannot
    /// be interrupted and a compensating worker already replaced it, so
    /// shutdown must not block on it.
    pub(crate) fn join_all(&self, shared: &Arc<Shared>) {
        let entries: Vec<WorkerEntry> = lock_recover(&self.entries, shared.poisoned())
            .drain(..)
            .collect();
        for mut entry in entries {
            let wedged = entry.ctl.superseded.load(Ordering::Acquire)
                && entry.ctl.alive.load(Ordering::Acquire)
                && entry.ctl.busy.load(Ordering::Acquire);
            if let Some(handle) = entry.handle.take() {
                if wedged {
                    drop(handle); // detach: the pool was already compensated
                } else {
                    let _ = handle.join();
                }
            }
        }
    }

    /// One supervision pass: join the dead (respawning non-superseded
    /// ones), spawn compensating workers for the stuck. Returns how many
    /// workers were (re)spawned.
    fn tick(&self, shared: &Arc<Shared>, stuck_after: Duration, stopping: bool) -> u64 {
        let now = Instant::now();
        let mut respawned = 0;
        let mut entries = lock_recover(&self.entries, shared.poisoned());
        let mut i = 0;
        while i < entries.len() {
            let entry = &mut entries[i];
            if !entry.ctl.alive.load(Ordering::Acquire) {
                let superseded = entry.ctl.superseded.load(Ordering::Acquire);
                if let Some(handle) = entry.handle.take() {
                    let _ = handle.join();
                }
                entries.remove(i);
                if !superseded && !stopping {
                    respawned += 1;
                }
                continue;
            }
            let beats = entry.ctl.beats.load(Ordering::Acquire);
            let busy = entry.ctl.busy.load(Ordering::Acquire);
            if beats != entry.last_beat || !busy {
                entry.last_beat = beats;
                entry.last_progress = now;
            } else if now.duration_since(entry.last_progress) > stuck_after
                && !entry.ctl.superseded.load(Ordering::Acquire)
                && !stopping
            {
                // Stuck mid-flush: compensate. The worker itself exits at
                // its next scheduling round (it checks `superseded`).
                entry.ctl.superseded.store(true, Ordering::Release);
                respawned += 1;
            }
            i += 1;
        }
        drop(entries);
        for _ in 0..respawned {
            self.spawn(shared);
        }
        respawned
    }
}

/// The supervisor thread: ticks until the pool stops, detecting dead and
/// stuck workers and restoring the pool. Woken early by the shared condvar
/// so shutdown never waits a full tick.
pub(crate) fn supervisor_loop(shared: &Arc<Shared>, table: &Arc<WorkerTable>) {
    let stuck_after = shared.stuck_after();
    let tick = (stuck_after / 8).clamp(Duration::from_millis(2), Duration::from_millis(250));
    let mut state = shared.lock();
    loop {
        if state.pool_stop {
            return;
        }
        state = shared.wait_timeout(state, tick);
        let stopping = state.pool_stop;
        drop(state);
        let respawned = table.tick(shared, stuck_after, stopping);
        if respawned > 0 {
            shared.count_respawned(respawned);
            shared.notify();
        }
        if stopping {
            return;
        }
        state = shared.lock();
    }
}
