//! The [`RankServer`]: concurrent submission, bounded per-relation queues,
//! the deadline scheduler, and the supervised flush worker pool.
//!
//! # Architecture (v3)
//!
//! Three thread roles share one mutex-guarded [`State`]:
//!
//! - **Clients** call [`RankServer::submit`] / [`RankServer::try_submit`] /
//!   [`RankServer::submit_with`]: the query joins its relation's pending
//!   queue (bounded when [`ServeConfig::max_pending`] is set — `submit`
//!   then applies *backpressure* by blocking until space frees,
//!   `try_submit` *sheds* with [`QueryError::Overloaded`]). A submission
//!   that makes its relation's flush due — a size trigger, a zero
//!   deadline, or a relation flushing at once after a lone flush —
//!   enqueues the flush itself, so the fast path hands work straight to a
//!   worker without a scheduler hop.
//! - The **scheduler** thread only computes deadlines: it sleeps until the
//!   earliest pending deadline, moves due queues onto the work queue, and
//!   never executes a flush itself.
//! - **Workers** (N = [`ServeConfig::workers`]) pop flushes off the work
//!   queue and evaluate them with the lock released. Per-relation FIFO is
//!   preserved by an `in_flight` latch: a relation's next flush is not
//!   enqueued until its previous one completed, so one relation's flushes
//!   never race each other — but a slow relation's walk occupies only one
//!   worker, and every other relation keeps flushing on the rest. A worker
//!   that releases a latch re-checks that relation at once, so work queued
//!   behind the flush goes out without waiting for the scheduler.
//!
//! All three ask one flush predicate per relation: flush when the queue
//! reached [`ServeConfig::max_batch`], when the oldest entry's deadline
//! passed, or — group commit — at once when the relation's previous flush
//! carried a single submission ([`FlushTrigger::Idle`]): that deadline
//! wait gathered no company, so the next one is not paid. A flush carrying
//! two or more turns the wait back on, and a fresh relation starts
//! waiting. The rule is driven by what the last flush showed and adds no
//! configuration option.
//!
//! # Fault tolerance
//!
//! A panic anywhere in a flush is **contained to the flush**, never fatal
//! to the server:
//!
//! - a panic *inside evaluation* is caught per entry by the batch layer and
//!   resolves only that entry's handle to [`QueryError::Internal`];
//! - a panic *escaping the flush* (a dying mutation backend, an injected
//!   fault) is caught by the worker, which **re-queues the flush's
//!   undelivered entries** at the front of their queues for the next flush
//!   — an entry interrupted twice resolves to `Internal` instead of
//!   looping;
//! - a panic while *applying a mutation* additionally calls
//!   [`LiveRelation::repair`](prf_core::live::LiveRelation::repair), so a
//!   half-patched prepared ranking is rebuilt before anything is served
//!   from it.
//!
//! A **supervisor** thread watches worker heartbeats (see
//! [`crate::supervisor`]): dead workers are joined and respawned, stuck
//! workers (no heartbeat for [`ServeConfig::stuck_after`] while mid-flush)
//! are compensated with a fresh worker. [`ServeMetrics`] exposes
//! [`ServeMetrics::panics_caught`] and [`ServeMetrics::workers_respawned`].
//!
//! # Deadline classes
//!
//! [`RankServer::submit_with`] attaches [`SubmitOptions`]: a per-query
//! **deadline** and a **priority class**. [`Priority::Latency`] traffic
//! flushes on [`ServeConfig::max_delay`] — or at once when its relation's
//! previous flush went out alone (the group-commit rule above, which adds
//! no option); [`Priority::Bulk`] traffic waits
//! in a second queue for the (longer) [`ServeConfig::bulk_delay`] cadence
//! and piggybacks on latency flushes already due. A query whose deadline
//! expires before a worker dequeues it is shed with
//! [`QueryError::TimedOut`] **without being evaluated**; mid-walk, the
//! deadline is checked cooperatively by the batch kernels. Dropping a
//! tracked [`ResponseHandle`] trips the same cancellation token.
//!
//! # Live relations and standing queries
//!
//! [`RankServer::register_live`] registers a
//! [`LiveRelation`](prf_core::live::LiveRelation): mutations submitted via
//! [`RankServer::apply`] join the relation's flush pipeline and are applied
//! by the worker **at flush start, under the per-relation FIFO latch** —
//! never concurrently with that relation's query evaluation. Every query
//! batched into the same flush therefore observes every mutation batched
//! with it, and the sequence of flushes is a serialization of all
//! mutations. [`RankServer::subscribe`] registers a **standing query**: it
//! receives an initial ranking snapshot, then a [`RankingDelta`] after
//! every flush that applied mutations to its relation.
//!
//! # Result cache
//!
//! Each registered relation carries a keyed **answer cache**: queries that
//! canonicalize to a [`QueryKey`] (every semantics except `PRF^omega`, and
//! every exact algorithm) are remembered per `(key, generation)` and served
//! on repeat without joining a walk — [`ServeCost::served_from_cache`]
//! marks such answers. Entries are stamped with the relation's
//! [`generation`](ProbabilisticRelation::generation) at evaluation time and
//! consulted **generation-exactly**: any flush that touches the relation's
//! state purges the cache, and a stale entry that survives (e.g. after an
//! offline mutation through a retained handle) is discarded at lookup
//! rather than served. Within one flush, identical untracked queries
//! **coalesce**: one representative joins the walk and the rest alias its
//! answer. [`ServeConfig::cache_entries`] sizes the cache (0 turns it and
//! coalescing off); [`ServeMetrics`] counts hits, misses, and
//! invalidations.

use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prf_core::live::{LiveApply, LiveRelation, MutableRelation, Mutation};
use prf_core::query::{
    panic_reason, CancelToken, FlushTrigger, PreparedRelation, ProbabilisticRelation, QueryBatch,
    QueryError, QueryKey, RankQuery, RankedResult, ServeCost,
};
use prf_core::shard::{ShardError, ShardHandle, ShardedRelation};
use prf_core::TupleId;

#[cfg(any(test, feature = "chaos"))]
use crate::fault::{FaultKind, FaultPlan};
use crate::handle::{
    Answer, DeltaAnswer, MutationAnswer, MutationHandle, QueryId, RankingDelta, ResponseHandle,
    SubscriptionHandle,
};
use crate::supervisor::{supervisor_loop, WorkerCtl, WorkerTable};

/// A relation as the server owns it: shared, type-erased, and usable from
/// both client threads (registration) and the flush workers.
pub type SharedRelation = Arc<dyn ProbabilisticRelation + Send + Sync>;

/// Locks a mutex, recovering from poisoning and counting each recovery in
/// `poisoned` (surfaced as [`ServeMetrics::poisoned_locks`]). The serving
/// layer's only sanctioned way to lock — a panicking thread must never
/// wedge the scheduler, the workers, or a client, and never silently: the
/// counter makes every recovery observable.
pub(crate) fn lock_recover<'a, T>(m: &'a Mutex<T>, poisoned: &AtomicU64) -> MutexGuard<'a, T> {
    #[allow(clippy::disallowed_methods)] // the one sanctioned raw `lock` in this crate
    m.lock().unwrap_or_else(|err| {
        poisoned.fetch_add(1, Ordering::Relaxed);
        err.into_inner()
    })
}

/// Starts one of the server's own threads (scheduler, supervisor, a flush
/// worker). The OS refusing a thread is the one failure the server cannot
/// route through a handle: [`RankServer::new`] has no error path, and a
/// server short of its scheduler or workers would wedge every submission,
/// so it fails loudly here.
#[allow(clippy::expect_used)] // thread-spawn failure: see above
pub(crate) fn spawn_named(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("the OS refused a prf-serve thread")
}

/// Tuning knobs of a [`RankServer`].
///
/// The defaults (2 ms deadline, 20 ms bulk deadline, 64-query batches, 2
/// flush workers, unbounded queues, serial walks, 30 s stuck detection)
/// suit a latency-sensitive serving mix; a zero [`ServeConfig::max_delay`]
/// turns the server into an immediate dispatcher that still batches
/// whatever has accumulated since a worker last took the queue.
///
/// Whatever the deadline, the latency class is work-conserving: a
/// relation whose previous flush carried a single submission flushes its
/// next work at once ([`FlushTrigger::Idle`]), and a flush carrying two or
/// more turns the deadline wait back on. That rule follows the traffic by
/// itself; there is no option for it.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub(crate) max_delay: Duration,
    pub(crate) bulk_delay: Duration,
    pub(crate) max_batch: usize,
    pub(crate) threads: Option<usize>,
    pub(crate) workers: usize,
    pub(crate) max_pending: Option<usize>,
    pub(crate) stuck_after: Duration,
    pub(crate) cache_entries: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_delay: Duration::from_millis(2),
            bulk_delay: Duration::from_millis(20),
            max_batch: 64,
            threads: None,
            workers: 2,
            max_pending: None,
            stuck_after: Duration::from_secs(30),
            cache_entries: 128,
        }
    }
}

impl ServeConfig {
    /// The default configuration (2 ms deadline, 64-query batches, 2 flush
    /// workers, unbounded queues).
    pub fn new() -> Self {
        ServeConfig::default()
    }

    /// How long the oldest pending [`Priority::Latency`] query may wait for
    /// company before its relation's queue is flushed. Zero flushes on
    /// admission. A relation whose previous flush carried a single
    /// submission does not wait at all: its next work flushes at once
    /// ([`FlushTrigger::Idle`]) until a flush carries two or more again —
    /// a rule with no option of its own.
    pub fn max_delay(mut self, deadline: Duration) -> Self {
        self.max_delay = deadline;
        self
    }

    /// How long the oldest pending [`Priority::Bulk`] query may wait before
    /// its relation's bulk queue is flushed (default 20 ms). Bulk queries
    /// also piggyback on any flush of their relation once this deadline has
    /// passed, so the two classes share walks without sharing a cadence.
    pub fn bulk_delay(mut self, deadline: Duration) -> Self {
        self.bulk_delay = deadline;
        self
    }

    /// Queue size that triggers an immediate flush, regardless of the
    /// deadline (clamped to at least 1). Applies to each class queue.
    pub fn max_batch(mut self, size: usize) -> Self {
        self.max_batch = size.max(1);
        self
    }

    /// Requests `threads` workers for each flush's shared walk (forwarded
    /// to [`QueryBatch::parallel`]; the engine degrades small walks to the
    /// serial route, so over-asking costs nothing).
    pub fn parallel(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Number of flush worker threads (clamped to at least 1). Flushes of
    /// *different* relations run concurrently across workers; flushes of
    /// the same relation stay FIFO.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Bounds every relation's pending queue to `cap` queries per class
    /// (clamped to at least 1) — the admission-control knob. At the bound,
    /// [`RankServer::submit`] blocks until a flush frees space
    /// (backpressure) and [`RankServer::try_submit`] sheds with
    /// [`QueryError::Overloaded`]. The default is unbounded.
    pub fn max_pending(mut self, cap: usize) -> Self {
        self.max_pending = Some(cap.max(1));
        self
    }

    /// How long a worker may run one flush without a heartbeat before the
    /// supervisor declares it **stuck** and spawns a compensating worker
    /// (default 30 s). Detection granularity is an eighth of this window,
    /// clamped to 2–250 ms.
    pub fn stuck_after(mut self, window: Duration) -> Self {
        self.stuck_after = window;
        self
    }

    /// Caps each relation's result cache at `entries` distinct query keys
    /// (default 128). At the cap the oldest-inserted key is evicted.
    ///
    /// `0` turns the cache off, and with it the within-flush coalescing of
    /// identical queries, so every submission pays its own share of a walk
    /// — the right setting for benchmarks that repeat a query to measure
    /// evaluation cost.
    pub fn cache_entries(mut self, entries: usize) -> Self {
        self.cache_entries = entries;
        self
    }
}

/// Scheduling class of one submission (see [`SubmitOptions::priority`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Flushes on [`ServeConfig::max_delay`] — the default, and the class
    /// of every [`RankServer::submit`] call.
    #[default]
    Latency,
    /// Waits in a separate queue for [`ServeConfig::bulk_delay`]; joins a
    /// flush only once that longer deadline has passed. Analytics traffic
    /// in this class stops dictating the latency class's cadence.
    Bulk,
}

/// Per-submission options for [`RankServer::submit_with`] /
/// [`RankServer::try_submit_with`]: a deadline and a priority class.
///
/// Every submission made through these carries a cancellation token:
/// dropping the returned [`ResponseHandle`] trips it, and an expired
/// deadline trips it too — either way the query is shed with
/// [`QueryError::TimedOut`] at dequeue instead of being evaluated, and
/// abandoned mid-walk by the cooperative cancellation checks in the batch
/// kernels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    deadline: Option<Duration>,
    priority: Priority,
}

impl SubmitOptions {
    /// Default options: no deadline, [`Priority::Latency`] — but tracked
    /// by a cancellation token (unlike plain [`RankServer::submit`]).
    pub fn new() -> Self {
        SubmitOptions::default()
    }

    /// Shorthand for the latency class.
    pub fn latency() -> Self {
        SubmitOptions::default()
    }

    /// Shorthand for the bulk class.
    pub fn bulk() -> Self {
        SubmitOptions::default().priority(Priority::Bulk)
    }

    /// Sheds the query with [`QueryError::TimedOut`] if it has not been
    /// dequeued within `deadline` of submission (and abandons it mid-walk
    /// at the next cooperative cancellation check).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The scheduling class (default [`Priority::Latency`]).
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// Server-local identifier of a registered relation, returned by
/// [`RankServer::register`] and presented with every submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RelationId(pub(crate) usize);

impl std::fmt::Display for RelationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rel{}", self.0)
    }
}

/// A point-in-time snapshot of the server's serving counters, summed over
/// all registered relations (see [`RankServer::metrics`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Queries waiting in pending queues right now (both classes).
    pub pending: usize,
    /// Relations with a flush currently executing on a worker.
    pub in_flight: usize,
    /// Cumulative submissions shed with [`QueryError::Overloaded`].
    pub shed: u64,
    /// Cumulative completed flushes.
    pub flushes: u64,
    /// Cumulative queries answered through completed flushes.
    pub flushed_queries: u64,
    /// Cumulative mutations applied successfully through
    /// [`RankServer::apply`] (rejected mutations are not counted).
    pub mutations_applied: u64,
    /// Cumulative [`RankingDelta`]s pushed to standing-query subscribers.
    pub deltas_pushed: u64,
    /// Standing-query subscriptions currently registered.
    pub subscribers_live: usize,
    /// Cumulative panics contained by the serving layer: per-entry
    /// evaluation panics resolved as [`QueryError::Internal`], plus panics
    /// that escaped a flush and were caught by its worker.
    pub panics_caught: u64,
    /// Cumulative queries shed with [`QueryError::TimedOut`]: their
    /// deadline expired (or their handle was dropped) before evaluation.
    pub timed_out: u64,
    /// Cumulative workers (re)spawned by the supervisor: replacements for
    /// dead workers plus compensations for stuck ones.
    pub workers_respawned: u64,
    /// Cumulative poisoned-lock recoveries (a thread panicked while
    /// holding a serving-layer mutex; the lock was recovered, not wedged).
    pub poisoned_locks: u64,
    /// Cumulative queries answered straight from a relation's result cache
    /// (same canonical [`QueryKey`], same relation generation) without
    /// joining a walk.
    pub cache_hits: u64,
    /// Cumulative cacheable queries that were *not* served from the cache
    /// (no entry for their key at the relation's current generation) and
    /// went to evaluation instead.
    pub cache_misses: u64,
    /// Cumulative result-cache entries discarded because the relation's
    /// state moved: entries purged by a mutation-applying flush, plus any
    /// stale entry caught by the generation-exact check at lookup.
    pub cache_invalidations: u64,
}

/// One submission waiting in a relation's queue.
struct Pending {
    query: RankQuery,
    submitted_at: Instant,
    /// Queue depth at admission, including this query — the backpressure
    /// signal stamped into [`ServeCost::queue_depth`].
    depth_at_admit: usize,
    class: Priority,
    /// Set when an interrupted flush put this entry back on its queue —
    /// a second interruption resolves it with [`QueryError::Internal`]
    /// instead of re-queueing forever.
    requeued: bool,
    tx: mpsc::Sender<Answer>,
}

impl Pending {
    /// Whether this entry's cancellation token has tripped (deadline
    /// expired, or the client dropped its handle).
    fn cancelled(&self) -> bool {
        self.query
            .cancel_token_ref()
            .is_some_and(CancelToken::is_cancelled)
    }
}

/// One mutation waiting in a relation's pipeline.
struct PendingMut {
    mutation: Mutation,
    submitted_at: Instant,
    /// See [`Pending::requeued`].
    requeued: bool,
    tx: mpsc::Sender<MutationAnswer>,
}

/// One standing query registered on a slot.
struct Subscription {
    id: QueryId,
    query: RankQuery,
    /// The ranking order this subscriber last saw — `None` until its
    /// initial snapshot was pushed.
    last: Option<Vec<TupleId>>,
    /// Sequence number of the next delta to push.
    seq: u64,
    tx: mpsc::Sender<DeltaAnswer>,
}

/// One remembered answer: the result as evaluated, stamped with the
/// relation generation that produced it.
struct CacheEntry {
    result: RankedResult,
    generation: u64,
}

/// What [`ResultCache::lookup`] found for a key (the hit is boxed so the
/// enum stays pointer-sized next to its unit variants).
enum CacheLookup {
    /// A current entry — a clone of the remembered answer, ready to serve.
    Hit(Box<RankedResult>),
    /// An entry existed but its generation is not the relation's current
    /// one; it has been removed (the caller counts it as an invalidation).
    Stale,
    /// No entry for this key.
    Miss,
}

/// A relation's keyed answer cache: canonical [`QueryKey`] → remembered
/// [`RankedResult`], consulted and populated by flush workers under the
/// per-relation FIFO latch.
///
/// Correctness rests on the **generation-exact** lookup, not on eager
/// purging: an entry is served only when its stored generation equals the
/// relation's generation read in the consulting flush, so a purge that is
/// skipped (or raced by an offline mutation through a retained handle)
/// degrades to a lazy discard at lookup, never to a stale answer.
struct ResultCache {
    entries: HashMap<QueryKey, CacheEntry>,
    /// Insertion order of the keys in `entries`, oldest first — the
    /// eviction queue ([`ServeConfig::cache_entries`] caps `entries`).
    order: VecDeque<QueryKey>,
    cap: usize,
}

impl ResultCache {
    fn new(cap: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            order: VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// The remembered answer for `key` at exactly `generation`. A present
    /// entry stamped with any other generation is discarded here rather
    /// than returned.
    fn lookup(&mut self, key: &QueryKey, generation: u64) -> CacheLookup {
        match self.entries.get(key) {
            Some(entry) if entry.generation == generation => {
                CacheLookup::Hit(Box::new(entry.result.clone()))
            }
            Some(_) => {
                self.entries.remove(key);
                self.order.retain(|k| k != key);
                CacheLookup::Stale
            }
            None => CacheLookup::Miss,
        }
    }

    /// Drops every entry (the relation's state moved), returning how many
    /// were discarded.
    fn purge(&mut self) -> u64 {
        let n = self.entries.len() as u64;
        self.entries.clear();
        self.order.clear();
        n
    }

    /// Remembers `result` for `key` as of `generation`, evicting the
    /// oldest-inserted key once the cap is reached.
    fn insert(&mut self, key: QueryKey, generation: u64, result: RankedResult) {
        if self
            .entries
            .insert(key.clone(), CacheEntry { result, generation })
            .is_none()
        {
            self.order.push_back(key);
        }
        while self.entries.len() > self.cap {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&oldest);
        }
    }
}

/// A registered relation plus its pending queues and serving counters.
struct Slot {
    name: String,
    rel: SharedRelation,
    /// The mutation entry point of a live relation ([`RankServer::apply`]
    /// rejects mutations when `None`).
    live: Option<Arc<dyn LiveApply>>,
    /// [`Priority::Latency`] submissions, in admission order.
    queue: Vec<Pending>,
    /// [`Priority::Bulk`] submissions, in admission order — flushed on
    /// their own (longer) cadence.
    bulk: Vec<Pending>,
    /// Mutations awaiting the next flush, in submission order.
    muts: Vec<PendingMut>,
    /// Standing queries registered on this relation.
    subs: Vec<Subscription>,
    /// Set while a subscriber awaits its initial snapshot — makes the slot
    /// due even with empty queues, so the snapshot flush happens within
    /// one deadline.
    sync_since: Option<Instant>,
    /// `true` while a flush of this relation sits on the work queue or
    /// executes on a worker — the per-relation FIFO latch.
    in_flight: bool,
    /// Whether this relation's previous flush carried exactly one
    /// submission (query or mutation). Its next latency-class work then
    /// flushes at once ([`FlushTrigger::Idle`]): the last deadline wait
    /// gathered no company. A flush carrying two or more turns the wait
    /// back on; a fresh relation starts waiting.
    last_flush_lone: bool,
    /// Cumulative submissions shed from this slot's bounded queue.
    shed: u64,
    /// Cumulative completed flushes of this slot.
    flushes: u64,
    /// Cumulative queries answered through this slot's completed flushes.
    flushed_queries: u64,
    /// Cumulative mutations applied successfully on this slot.
    mutations_applied: u64,
    /// Cumulative deltas pushed to this slot's subscribers.
    deltas_pushed: u64,
    /// This relation's result cache, shared with in-flight flushes (the
    /// FIFO latch keeps use single-flush at a time; the mutex makes the
    /// sharing sound).
    cache: Arc<Mutex<ResultCache>>,
}

impl Slot {
    /// Whether this slot has work that must eventually flush.
    fn due(&self) -> bool {
        !self.queue.is_empty()
            || !self.bulk.is_empty()
            || !self.muts.is_empty()
            || self.sync_since.is_some()
    }

    /// Queued latency queries plus queued mutations — the latency-class
    /// size-trigger load.
    fn load(&self) -> usize {
        self.queue.len() + self.muts.len()
    }

    /// The earliest admission instant among queued latency queries, queued
    /// mutations, and a pending initial snapshot — the latency deadline
    /// anchor. Bulk queries have their own anchor ([`Slot::bulk_due_at`]).
    fn anchor(&self) -> Option<Instant> {
        let mut anchor: Option<Instant> = None;
        let candidates = self
            .queue
            .first()
            .map(|p| p.submitted_at)
            .into_iter()
            .chain(self.muts.first().map(|m| m.submitted_at))
            .chain(self.sync_since);
        for t in candidates {
            anchor = Some(anchor.map_or(t, |a| a.min(t)));
        }
        anchor
    }

    /// When the oldest bulk query's cadence deadline passes, if any.
    fn bulk_due_at(&self, bulk_delay: Duration) -> Option<Instant> {
        self.bulk.first().map(|p| p.submitted_at + bulk_delay)
    }

    /// Whether a flush taken *now* should carry the bulk queue along.
    fn take_bulk_now(&self, config: &ServeConfig, now: Instant) -> bool {
        self.bulk.len() >= config.max_batch
            || self
                .bulk_due_at(config.bulk_delay)
                .is_some_and(|d| d <= now)
    }

    /// The earliest deadline among the slot's queues: the latency anchor
    /// plus [`ServeConfig::max_delay`], or the bulk cadence. `None` exactly
    /// when the slot is not [`Slot::due`].
    fn due_at(&self, config: &ServeConfig) -> Option<Instant> {
        self.anchor()
            .map(|a| a + config.max_delay)
            .into_iter()
            .chain(self.bulk_due_at(config.bulk_delay))
            .min()
    }

    /// The flush predicate: what fires a flush of this slot at `now`, if
    /// anything. Admission, the scheduler, and a worker releasing the FIFO
    /// latch all ask it — a latched slot never flushes, a draining server
    /// flushes whatever is queued, and otherwise the size limit, an
    /// expired deadline, or (after a lone flush) any latency-class work.
    fn flush_now(
        &self,
        config: &ServeConfig,
        now: Instant,
        shutdown: bool,
    ) -> Option<FlushTrigger> {
        if self.in_flight || !self.due() {
            None
        } else if shutdown {
            Some(FlushTrigger::Shutdown)
        } else if self.load() >= config.max_batch || self.bulk.len() >= config.max_batch {
            Some(FlushTrigger::SizeLimit)
        } else if self.due_at(config).is_some_and(|d| d <= now) {
            Some(FlushTrigger::Deadline)
        } else if self.last_flush_lone && self.anchor().is_some() {
            Some(FlushTrigger::Idle)
        } else {
            None
        }
    }
}

/// A standing query's snapshot carried into one flush: the worker
/// re-evaluates `query`, diffs against `last`, and pushes the delta; the
/// slot's [`Subscription`] is updated under the lock afterwards.
struct SubTask {
    id: QueryId,
    query: RankQuery,
    last: Option<Vec<TupleId>>,
    seq: u64,
    tx: mpsc::Sender<DeltaAnswer>,
}

/// One flush's worth of work, taken from a slot under the lock and
/// executed by a worker outside it. Entries stay inside until the moment
/// their answer is delivered, so a panic escaping the flush leaves the
/// undelivered remainder here for the worker to re-queue.
struct FlushWork {
    slot: usize,
    rel: SharedRelation,
    live: Option<Arc<dyn LiveApply>>,
    pending: Vec<Pending>,
    /// Mutations to apply before evaluating, in submission order.
    muts: Vec<PendingMut>,
    /// Standing queries to re-evaluate — non-empty only when this flush
    /// carries mutations or a subscriber awaits its initial snapshot.
    subs: Vec<SubTask>,
    trigger: FlushTrigger,
    /// Snapshot of the slot's shed counter when the flush was taken.
    shed: u64,
    /// The slot's result cache (see [`Slot::cache`]).
    cache: Arc<Mutex<ResultCache>>,
}

/// Mutex-guarded server state shared between clients, the scheduler, and
/// the workers.
pub(crate) struct State {
    slots: Vec<Slot>,
    /// Flushes ready for a worker, in take order.
    work: VecDeque<FlushWork>,
    /// Set by [`RankServer::shutdown`] (or a failsafe): rejects new
    /// submissions; the scheduler then drains and stops the pool.
    shutdown: bool,
    /// Set by the scheduler once the drain completed (or by a failsafe):
    /// idle workers and the supervisor exit.
    pub(crate) pool_stop: bool,
}

/// What an armed fault makes the consulting thread do, beyond the panics
/// and delays [`Shared::chaos`] performs on the spot.
// Without injection hooks compiled in, `chaos` is a constant `None` and
// never constructs these.
#[cfg_attr(not(any(test, feature = "chaos")), allow(dead_code))]
enum FaultAction {
    /// Shed the admission with [`QueryError::Overloaded`].
    Overload,
    /// Exit the worker thread (after re-queueing its flush).
    Die,
}

pub(crate) struct Shared {
    config: ServeConfig,
    state: Mutex<State>,
    wake: Condvar,
    /// Cumulative poisoned-lock recoveries (see [`lock_recover`]).
    poisoned: AtomicU64,
    /// Cumulative contained panics (see [`ServeMetrics::panics_caught`]).
    panics_caught: AtomicU64,
    /// Cumulative dequeue-time deadline sheds.
    timed_out: AtomicU64,
    /// Cumulative supervisor respawns.
    respawned: AtomicU64,
    /// Cumulative result-cache hits (see [`ServeMetrics::cache_hits`]).
    cache_hits: AtomicU64,
    /// Cumulative result-cache misses (see [`ServeMetrics::cache_misses`]).
    cache_misses: AtomicU64,
    /// Cumulative result-cache entries discarded (see
    /// [`ServeMetrics::cache_invalidations`]).
    cache_invalidations: AtomicU64,
    /// The armed fault-injection plan (test / `chaos` builds only).
    #[cfg(any(test, feature = "chaos"))]
    faults: Mutex<FaultPlan>,
}

impl Shared {
    pub(crate) fn lock(&self) -> MutexGuard<'_, State> {
        lock_recover(&self.state, &self.poisoned)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.wake
            .wait(guard)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn wait_timeout<'a>(
        &self,
        guard: MutexGuard<'a, State>,
        timeout: Duration,
    ) -> MutexGuard<'a, State> {
        self.wake
            .wait_timeout(guard, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .0
    }

    pub(crate) fn notify(&self) {
        self.wake.notify_all();
    }

    pub(crate) fn poisoned(&self) -> &AtomicU64 {
        &self.poisoned
    }

    pub(crate) fn stuck_after(&self) -> Duration {
        self.config.stuck_after
    }

    pub(crate) fn count_respawned(&self, n: u64) {
        self.respawned.fetch_add(n, Ordering::Relaxed);
    }

    /// Consults the fault plan at `site`. Panics and delays happen right
    /// here; overload and kill actions are returned for the caller to act
    /// on. Release builds without the `chaos` feature compile this to a
    /// constant `None`.
    #[cfg(any(test, feature = "chaos"))]
    #[allow(clippy::panic)] // an armed `FaultKind::Panic` is the point of the hook
    fn chaos(&self, site: &str) -> Option<FaultAction> {
        let plan = lock_recover(&self.faults, &self.poisoned).clone();
        match plan.fire(site)? {
            FaultKind::Panic => panic!("injected fault at `{site}`"),
            FaultKind::Delay(d) => {
                std::thread::sleep(d);
                None
            }
            FaultKind::Overloaded => Some(FaultAction::Overload),
            FaultKind::KillWorker => Some(FaultAction::Die),
        }
    }

    #[cfg(not(any(test, feature = "chaos")))]
    #[inline(always)]
    fn chaos(&self, _site: &str) -> Option<FaultAction> {
        None
    }
}

/// Asks `slot_idx`'s [`Slot::flush_now`] and, when it fires, moves the
/// slot's queues onto the work queue as one flush (setting the FIFO latch
/// and recording whether the flush went out lone). Latency queries and
/// mutations always go; bulk queries only when their own cadence is due
/// (or the server drains). Standing queries are snapshotted into the flush
/// when it carries mutations — their rankings may change — or when a new
/// subscriber awaits its initial snapshot. Returns whether a flush was
/// taken.
fn flush_if_due(state: &mut State, slot_idx: usize, config: &ServeConfig, now: Instant) -> bool {
    let shutdown = state.shutdown;
    let Some(slot) = state.slots.get_mut(slot_idx) else {
        return false;
    };
    let Some(trigger) = slot.flush_now(config, now, shutdown) else {
        return false;
    };
    let take_bulk = trigger == FlushTrigger::Shutdown || slot.take_bulk_now(config, now);
    slot.in_flight = true;
    let muts = std::mem::take(&mut slot.muts);
    let syncing = slot.sync_since.take().is_some();
    let subs = if !muts.is_empty() || syncing {
        slot.subs
            .iter()
            .map(|s| SubTask {
                id: s.id,
                query: s.query.clone(),
                last: s.last.clone(),
                seq: s.seq,
                tx: s.tx.clone(),
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut pending = std::mem::take(&mut slot.queue);
    if take_bulk {
        pending.append(&mut slot.bulk);
    }
    slot.last_flush_lone = pending.len() + muts.len() == 1;
    let work = FlushWork {
        slot: slot_idx,
        rel: Arc::clone(&slot.rel),
        live: slot.live.clone(),
        pending,
        muts,
        subs,
        trigger,
        shed: slot.shed,
        cache: Arc::clone(&slot.cache),
    };
    state.work.push_back(work);
    true
}

/// A concurrent, deadline-batched front end over registered relations: see
/// the [crate docs](crate) for the architecture and a usage example.
///
/// The server is `Sync` — share it across client threads by reference
/// (e.g. `std::thread::scope`) or in an `Arc`. Dropping it shuts it down
/// and drains in-flight queries.
pub struct RankServer {
    shared: Arc<Shared>,
    scheduler: Mutex<Option<JoinHandle<()>>>,
    supervisor: Mutex<Option<JoinHandle<()>>>,
    workers: Arc<WorkerTable>,
    next_query: AtomicU64,
}

impl RankServer {
    /// Starts a server — spawning its scheduler thread,
    /// [`ServeConfig::workers`] flush workers, and the worker supervisor —
    /// with the given configuration.
    pub fn new(config: ServeConfig) -> Self {
        let worker_count = config.workers;
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(State {
                slots: Vec::new(),
                work: VecDeque::new(),
                shutdown: false,
                pool_stop: false,
            }),
            wake: Condvar::new(),
            poisoned: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_invalidations: AtomicU64::new(0),
            #[cfg(any(test, feature = "chaos"))]
            faults: Mutex::new(FaultPlan::new()),
        });
        let scheduler = {
            let shared = Arc::clone(&shared);
            spawn_named("prf-serve-scheduler".into(), move || {
                let _failsafe = Failsafe(&shared);
                scheduler_loop(&shared);
            })
        };
        let workers = Arc::new(WorkerTable::new());
        for _ in 0..worker_count {
            workers.spawn(&shared);
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            let workers = Arc::clone(&workers);
            spawn_named("prf-serve-supervisor".into(), move || {
                supervisor_loop(&shared, &workers)
            })
        };
        RankServer {
            shared,
            scheduler: Mutex::new(Some(scheduler)),
            supervisor: Mutex::new(Some(supervisor)),
            workers,
            next_query: AtomicU64::new(0),
        }
    }

    /// Arms a fault-injection plan: the serving path consults it at seven
    /// named sites (see [`crate::fault`]) and panics, sleeps, sheds, or
    /// kills a worker where the plan says to. Replaces any previous plan.
    /// Available only in test builds and under the `chaos` feature.
    #[cfg(any(test, feature = "chaos"))]
    pub fn inject_faults(&self, plan: FaultPlan) {
        *lock_recover(&self.shared.faults, &self.shared.poisoned) = plan;
    }

    /// Registers a relation under `name`, transferring ownership to the
    /// server. Registration **prepares** the relation — builds its score
    /// sort and evaluation plan once, so every later flush skips them.
    /// Relations may be registered at any time, including while other
    /// threads are already submitting against earlier ones.
    pub fn register(
        &self,
        name: impl Into<String>,
        rel: impl ProbabilisticRelation + Send + Sync + 'static,
    ) -> RelationId {
        self.register_shared(name, Arc::new(rel))
    }

    /// Registers an already-shared relation (the caller keeps its own
    /// `Arc` for direct queries). Prepares it like [`RankServer::register`].
    pub fn register_shared(&self, name: impl Into<String>, rel: SharedRelation) -> RelationId {
        let prepared: SharedRelation = Arc::new(PreparedRelation::new(rel));
        self.push_slot(name.into(), prepared, None)
    }

    /// Assembles a [`ShardedRelation`] over score-contiguous shards and
    /// registers it under `name`. Preparation builds every shard's state
    /// (sort/plan) once; flushes then walk the shards in score order, a
    /// shard that cannot resume the carried walk (a tree) on `workers`
    /// threads (see [`ShardedRelation`]). Generation
    /// tracking is per shard set — a bump in **any** shard's generation
    /// bumps the sharded relation's, so the result cache stays
    /// generation-exact and re-preparation rebuilds exactly the changed
    /// shard states.
    ///
    /// Fails (without registering) if the shards overlap in score or a
    /// shard's backend lacks the presence-GF hook
    /// ([`ProbabilisticRelation::presence_gf`]): a graphical model, or a
    /// sharded relation (shards do not nest).
    pub fn register_sharded(
        &self,
        name: impl Into<String>,
        shards: Vec<ShardHandle>,
        workers: usize,
    ) -> Result<RelationId, ShardError> {
        let sharded = ShardedRelation::new(shards, workers)?;
        Ok(self.register_shared(name, Arc::new(sharded)))
    }

    /// Registers a **live** relation: [`RankServer::apply`] then accepts
    /// mutations against it, and standing queries
    /// ([`RankServer::subscribe`]) receive a [`RankingDelta`] after every
    /// mutated flush. The caller keeps its own `Arc` for direct queries
    /// and offline mutation.
    ///
    /// A `LiveRelation` maintains (and incrementally patches) its own
    /// prepared state, so — unlike [`RankServer::register`] — it is *not*
    /// wrapped in a [`PreparedRelation`].
    ///
    /// Mutating the relation **directly** through a retained `Arc` while
    /// the server is flushing it is not torn-read safe (a flush makes
    /// several backend calls); route mutations through
    /// [`RankServer::apply`], which serializes them with evaluation on the
    /// relation's FIFO flush pipeline.
    pub fn register_live<B>(&self, name: impl Into<String>, rel: Arc<LiveRelation<B>>) -> RelationId
    where
        B: MutableRelation + Send + Sync + 'static,
    {
        let shared_rel: SharedRelation = rel.clone();
        let live: Arc<dyn LiveApply> = rel;
        self.push_slot(name.into(), shared_rel, Some(live))
    }

    fn push_slot(
        &self,
        name: String,
        rel: SharedRelation,
        live: Option<Arc<dyn LiveApply>>,
    ) -> RelationId {
        let mut state = self.shared.lock();
        state.slots.push(Slot {
            name,
            rel,
            live,
            queue: Vec::new(),
            bulk: Vec::new(),
            muts: Vec::new(),
            subs: Vec::new(),
            sync_since: None,
            in_flight: false,
            last_flush_lone: false,
            shed: 0,
            flushes: 0,
            flushed_queries: 0,
            mutations_applied: 0,
            deltas_pushed: 0,
            cache: Arc::new(Mutex::new(ResultCache::new(
                self.shared.config.cache_entries,
            ))),
        });
        RelationId(state.slots.len() - 1)
    }

    /// The registered name of a relation.
    pub fn relation_name(&self, relation: RelationId) -> Option<String> {
        self.shared
            .lock()
            .slots
            .get(relation.0)
            .map(|s| s.name.clone())
    }

    /// Submits a query against a registered relation. Never blocks on
    /// evaluation: the query joins the relation's pending queue and the
    /// returned [`ResponseHandle`] resolves when a flush answers it. When
    /// the queue is bounded ([`ServeConfig::max_pending`]) and full, the
    /// call **blocks until a flush frees space** — backpressure, not
    /// unbounded growth; use [`RankServer::try_submit`] to shed instead.
    ///
    /// Errors immediately with [`QueryError::Shutdown`] after
    /// [`RankServer::shutdown`] (including while blocked on a full queue),
    /// and with [`QueryError::InvalidParameter`] for a [`RelationId`] this
    /// server never issued. Per-query evaluation errors (incompatible
    /// algorithm, no set answer, …) are *not* reported here — they resolve
    /// through the handle, leaving the rest of the flush unharmed.
    pub fn submit(
        &self,
        relation: RelationId,
        query: RankQuery,
    ) -> Result<ResponseHandle, QueryError> {
        self.admit(relation, query, None, true)
    }

    /// Like [`RankServer::submit`], but **never blocks**: a full bounded
    /// queue sheds the query immediately with [`QueryError::Overloaded`]
    /// (counted in [`ServeCost::shed`] / [`ServeMetrics::shed`]). With
    /// unbounded queues it is identical to `submit`.
    pub fn try_submit(
        &self,
        relation: RelationId,
        query: RankQuery,
    ) -> Result<ResponseHandle, QueryError> {
        self.admit(relation, query, None, false)
    }

    /// Like [`RankServer::submit`], with per-submission [`SubmitOptions`]:
    /// a deadline (expired ⇒ shed with [`QueryError::TimedOut`] at
    /// dequeue, without evaluation) and a [`Priority`] class. Submissions
    /// made this way are **tracked**: dropping the returned handle cancels
    /// the query the same way an expired deadline does.
    pub fn submit_with(
        &self,
        relation: RelationId,
        query: RankQuery,
        opts: SubmitOptions,
    ) -> Result<ResponseHandle, QueryError> {
        self.admit(relation, query, Some(opts), true)
    }

    /// Like [`RankServer::submit_with`], but shedding at a full bounded
    /// queue (the [`RankServer::try_submit`] behavior).
    pub fn try_submit_with(
        &self,
        relation: RelationId,
        query: RankQuery,
        opts: SubmitOptions,
    ) -> Result<ResponseHandle, QueryError> {
        self.admit(relation, query, Some(opts), false)
    }

    fn admit(
        &self,
        relation: RelationId,
        query: RankQuery,
        opts: Option<SubmitOptions>,
        block: bool,
    ) -> Result<ResponseHandle, QueryError> {
        if matches!(self.shared.chaos("admit"), Some(FaultAction::Overload)) {
            return Err(QueryError::Overloaded);
        }
        let (cancel, class) = match &opts {
            Some(o) => {
                let token = match o.deadline {
                    Some(d) => CancelToken::with_deadline(Instant::now() + d),
                    None => CancelToken::new(),
                };
                (Some(token), o.priority)
            }
            None => (None, Priority::Latency),
        };
        let query = match &cancel {
            Some(token) => query.cancel_token(token.clone()),
            None => query,
        };
        let (tx, rx) = mpsc::channel();
        let id = QueryId(self.next_query.fetch_add(1, Ordering::Relaxed));
        let mut state = self.shared.lock();
        loop {
            if state.shutdown {
                return Err(QueryError::Shutdown);
            }
            let slot = state.slots.get_mut(relation.0).ok_or_else(|| {
                QueryError::InvalidParameter(format!("unknown relation {relation}"))
            })?;
            let depth = match class {
                Priority::Latency => slot.queue.len(),
                Priority::Bulk => slot.bulk.len(),
            };
            match self.shared.config.max_pending {
                Some(cap) if depth >= cap => {
                    if !block {
                        slot.shed += 1;
                        return Err(QueryError::Overloaded);
                    }
                    // Backpressure: wait for a worker to take the queue
                    // (or for shutdown). Spurious wake-ups just re-check.
                    state = self.shared.wait(state);
                }
                _ => break,
            }
        }
        let slot = &mut state.slots[relation.0];
        let target = match class {
            Priority::Latency => &mut slot.queue,
            Priority::Bulk => &mut slot.bulk,
        };
        let depth_at_admit = target.len() + 1;
        target.push(Pending {
            query,
            submitted_at: Instant::now(),
            depth_at_admit,
            class,
            requeued: false,
            tx,
        });
        flush_if_due(&mut state, relation.0, &self.shared.config, Instant::now());
        drop(state);
        // Wake a worker (flush enqueued) or the scheduler (deadline
        // bookkeeping) — one condvar serves both roles.
        self.shared.notify();
        Ok(ResponseHandle::new(id, rx, cancel))
    }

    /// Submits a mutation against a live relation (see
    /// [`RankServer::register_live`]). Never blocks on application: the
    /// mutation joins the relation's flush pipeline and is applied by a
    /// worker **before** that flush's queries evaluate, so batched queries
    /// observe it and the per-relation FIFO latch serializes it against
    /// every other flush. The returned [`MutationHandle`] resolves to the
    /// backend's [`MutationEffect`](prf_core::live::MutationEffect) — or
    /// the validation error that rejected the mutation, which deliberately
    /// leaves the relation unchanged.
    ///
    /// Errors immediately with [`QueryError::Shutdown`] after
    /// [`RankServer::shutdown`] and with [`QueryError::InvalidParameter`]
    /// for an unknown relation or one not registered via `register_live`.
    /// Mutations are exempt from [`ServeConfig::max_pending`] — they are
    /// lightweight; await the handle for application-level backpressure.
    pub fn apply(
        &self,
        relation: RelationId,
        mutation: Mutation,
    ) -> Result<MutationHandle, QueryError> {
        if matches!(self.shared.chaos("admit"), Some(FaultAction::Overload)) {
            return Err(QueryError::Overloaded);
        }
        let (tx, rx) = mpsc::channel();
        let id = QueryId(self.next_query.fetch_add(1, Ordering::Relaxed));
        let mut state = self.shared.lock();
        if state.shutdown {
            return Err(QueryError::Shutdown);
        }
        let slot = state
            .slots
            .get_mut(relation.0)
            .ok_or_else(|| QueryError::InvalidParameter(format!("unknown relation {relation}")))?;
        if slot.live.is_none() {
            return Err(QueryError::InvalidParameter(format!(
                "relation {relation} (`{}`) is not live; register it with `register_live` \
                 to accept mutations",
                slot.name
            )));
        }
        slot.muts.push(PendingMut {
            mutation,
            submitted_at: Instant::now(),
            requeued: false,
            tx,
        });
        flush_if_due(&mut state, relation.0, &self.shared.config, Instant::now());
        drop(state);
        self.shared.notify();
        Ok(MutationHandle::new(id, rx))
    }

    /// Registers a **standing query** against a relation. The returned
    /// [`SubscriptionHandle`] first receives an initial ranking snapshot
    /// (within one [`ServeConfig::max_delay`] deadline), then a
    /// [`RankingDelta`] after **every** flush that applied mutations to the
    /// relation — even when the ranking did not change, so subscribers can
    /// count mutation batches by counting deltas. Subscribing to a non-live
    /// relation is allowed: the stream delivers the snapshot and then stays
    /// silent until shutdown.
    ///
    /// Dropping the handle **unsubscribes immediately**: the subscription
    /// and its queued deltas are freed at the drop, not at the server's
    /// next push.
    ///
    /// Errors immediately with [`QueryError::Shutdown`] after
    /// [`RankServer::shutdown`] and with [`QueryError::InvalidParameter`]
    /// for an unknown relation. A query that fails to *evaluate* reports
    /// the error through the handle and terminates only its own
    /// subscription.
    pub fn subscribe(
        &self,
        relation: RelationId,
        query: RankQuery,
    ) -> Result<SubscriptionHandle, QueryError> {
        let (tx, rx) = mpsc::channel();
        let id = QueryId(self.next_query.fetch_add(1, Ordering::Relaxed));
        let mut state = self.shared.lock();
        if state.shutdown {
            return Err(QueryError::Shutdown);
        }
        let slot = state
            .slots
            .get_mut(relation.0)
            .ok_or_else(|| QueryError::InvalidParameter(format!("unknown relation {relation}")))?;
        slot.subs.push(Subscription {
            id,
            query,
            last: None,
            seq: 0,
            tx,
        });
        if slot.sync_since.is_none() {
            slot.sync_since = Some(Instant::now());
        }
        flush_if_due(&mut state, relation.0, &self.shared.config, Instant::now());
        drop(state);
        self.shared.notify();
        let unsubscribe = {
            let shared = Arc::downgrade(&self.shared);
            let slot_idx = relation.0;
            Box::new(move || {
                if let Some(shared) = shared.upgrade() {
                    let mut state = shared.lock();
                    if let Some(slot) = state.slots.get_mut(slot_idx) {
                        slot.subs.retain(|s| s.id != id);
                    }
                    drop(state);
                    shared.notify();
                }
            })
        };
        Ok(SubscriptionHandle::new(id, rx, Some(unsubscribe)))
    }

    /// Number of queries currently waiting in the pending queues (both
    /// classes; not counting flushes already handed to workers).
    pub fn pending(&self) -> usize {
        self.shared
            .lock()
            .slots
            .iter()
            .map(|s| s.queue.len() + s.bulk.len())
            .sum()
    }

    /// A point-in-time snapshot of the serving counters, summed over all
    /// registered relations.
    ///
    /// # Consistency
    ///
    /// The per-relation counters (`pending`, `in_flight`, `shed`,
    /// `flushes`, `flushed_queries`, `mutations_applied`, `deltas_pushed`,
    /// `subscribers_live`) are read in **one pass under a single
    /// acquisition of the server's state lock** — the same lock every
    /// flush's completion write-back holds — so they are mutually
    /// consistent: a snapshot observes each flush either entirely before
    /// or entirely after its write-back, never a half-recorded one. The
    /// process-wide counters (`panics_caught`, `timed_out`,
    /// `workers_respawned`, `poisoned_locks`, `cache_*`) are lock-free
    /// atomics updated outside that lock; each is individually monotone,
    /// but they may run ahead of the slot view by whatever an in-flight
    /// flush has already done (e.g. `cache_hits` can count an answer whose
    /// flush has not yet written back to `flushes`).
    pub fn metrics(&self) -> ServeMetrics {
        // The lock is taken first: every slot-derived field below comes
        // from this one critical section.
        let state = self.shared.lock();
        let mut m = ServeMetrics {
            panics_caught: self.shared.panics_caught.load(Ordering::Relaxed),
            timed_out: self.shared.timed_out.load(Ordering::Relaxed),
            workers_respawned: self.shared.respawned.load(Ordering::Relaxed),
            poisoned_locks: self.shared.poisoned.load(Ordering::Relaxed),
            cache_hits: self.shared.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.shared.cache_misses.load(Ordering::Relaxed),
            cache_invalidations: self.shared.cache_invalidations.load(Ordering::Relaxed),
            ..ServeMetrics::default()
        };
        for slot in &state.slots {
            m.pending += slot.queue.len() + slot.bulk.len();
            m.in_flight += slot.in_flight as usize;
            m.shed += slot.shed;
            m.flushes += slot.flushes;
            m.flushed_queries += slot.flushed_queries;
            m.mutations_applied += slot.mutations_applied;
            m.deltas_pushed += slot.deltas_pushed;
            m.subscribers_live += slot.subs.len();
        }
        m
    }

    /// Shuts the server down: rejects new submissions, lets the scheduler
    /// **drain** every pending queue through the worker pool — in-flight
    /// queries are evaluated (their provenance records
    /// [`FlushTrigger::Shutdown`]), not dropped — and joins every thread,
    /// supervisor included. Blocks until the drain completes. Idempotent;
    /// [`Drop`] calls it too.
    pub fn shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.notify();
        let scheduler = lock_recover(&self.scheduler, &self.shared.poisoned).take();
        if let Some(handle) = scheduler {
            // If the scheduler panicked instead of draining, its failsafe
            // already cleared the queues (handles resolve to `Shutdown`)
            // and stopped the pool; nothing to redo here.
            let _ = handle.join();
        }
        let supervisor = lock_recover(&self.supervisor, &self.shared.poisoned).take();
        if let Some(handle) = supervisor {
            let _ = handle.join();
        }
        self.workers.join_all(&self.shared);
    }
}

impl Drop for RankServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for RankServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.lock();
        f.debug_struct("RankServer")
            .field("relations", &state.slots.len())
            .field(
                "pending",
                &state
                    .slots
                    .iter()
                    .map(|s| s.queue.len() + s.bulk.len())
                    .sum::<usize>(),
            )
            .field("workers", &self.shared.config.workers)
            .field("shutdown", &state.shutdown)
            .finish()
    }
}

/// Failsafe for an abnormal **scheduler** death: on unwind, reject future
/// submissions, stop the pool, release every FIFO latch, and drop every
/// queued sender so pending handles resolve to `Shutdown` instead of
/// blocking forever. After a normal exit the drain already emptied the
/// queues and set the flags, so the guard is a no-op. (Workers need no
/// failsafe: their panics are caught and converted into re-queues.)
struct Failsafe<'a>(&'a Shared);

impl Drop for Failsafe<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.shutdown = true;
        state.pool_stop = true;
        state.work.clear();
        for slot in state.slots.iter_mut() {
            slot.queue.clear();
            slot.bulk.clear();
            slot.muts.clear();
            // Dropping the subscriptions' senders disconnects the
            // subscribers' channels: their `recv` resolves to `Shutdown`.
            slot.subs.clear();
            slot.sync_since = None;
            slot.in_flight = false;
        }
        drop(state);
        self.0.notify();
    }
}

/// The scheduler: pure deadline bookkeeping. Flushes every slot whose
/// [`Slot::flush_now`] fires, sleeps until the earliest pending deadline
/// (latency or bulk) of the rest, and hands flushes to the pool — it never
/// evaluates one itself. On shutdown every slot's predicate fires as soon
/// as its latch is free, and the scheduler keeps feeding the pool until
/// every queue is empty and every flush completed, then stops the pool and
/// exits.
fn scheduler_loop(shared: &Shared) {
    let config = &shared.config;
    let mut state = shared.lock();
    loop {
        let now = Instant::now();
        let mut next_due: Option<Instant> = None;
        let mut fed = false;
        for i in 0..state.slots.len() {
            fed |= flush_if_due(&mut state, i, config, now);
            let slot = &state.slots[i];
            if !slot.in_flight {
                next_due = next_due.into_iter().chain(slot.due_at(config)).min();
            }
        }
        if fed {
            shared.notify();
        }
        if state.shutdown
            && state.work.is_empty()
            && state.slots.iter().all(|s| !s.due() && !s.in_flight)
        {
            state.pool_stop = true;
            // End every subscription stream: dropping the senders
            // disconnects the channels, so subscribers' `recv` resolves to
            // `Shutdown` after any final deltas the drain already
            // delivered.
            for slot in state.slots.iter_mut() {
                slot.subs.clear();
            }
            drop(state);
            shared.notify();
            return;
        }
        state = match next_due {
            // Sleep exactly until the earliest pending deadline (spurious
            // wake-ups just re-check). A latched relation is re-checked by
            // its worker on completion, which also wakes this thread.
            Some(due) => shared.wait_timeout(state, due.saturating_duration_since(now)),
            None => shared.wait(state),
        };
    }
}

/// How one worker round ended.
enum WorkerRun {
    /// The flush executed (possibly with per-entry errors contained).
    Done(FlushOutcome),
    /// An injected `KillWorker` fault: re-queue and exit the thread.
    Die,
}

/// Puts an interrupted flush's undelivered entries back at the front of
/// their queues (entries already re-queued once resolve to
/// [`QueryError::Internal`] instead), releases the FIFO latch, and re-arms
/// the initial-snapshot trigger for subscribers whose snapshot never went
/// out. Mutations consumed by the flush were already acknowledged; only
/// unprocessed ones return to the pipeline.
fn requeue_interrupted(state: &mut State, work: &mut FlushWork, reason: &str) {
    let Some(slot) = state.slots.get_mut(work.slot) else {
        return;
    };
    slot.in_flight = false;
    let mut latency = Vec::new();
    let mut bulk = Vec::new();
    for mut p in work.pending.drain(..) {
        if p.requeued {
            let _ = p.tx.send(Err(QueryError::Internal {
                reason: format!("flush interrupted twice: {reason}"),
            }));
        } else {
            p.requeued = true;
            match p.class {
                Priority::Latency => latency.push(p),
                Priority::Bulk => bulk.push(p),
            }
        }
    }
    slot.queue.splice(0..0, latency);
    slot.bulk.splice(0..0, bulk);
    let mut muts = Vec::new();
    for mut m in work.muts.drain(..) {
        if m.requeued {
            let _ = m.tx.send(Err(QueryError::Internal {
                reason: format!("flush interrupted twice: {reason}"),
            }));
        } else {
            m.requeued = true;
            muts.push(m);
        }
    }
    slot.muts.splice(0..0, muts);
    if work.subs.iter().any(|s| s.last.is_none()) && slot.sync_since.is_none() {
        slot.sync_since = Some(Instant::now());
    }
}

/// A flush worker: pops flushes off the work queue, evaluates them with
/// the lock released, releases the relation's FIFO latch, and re-notifies
/// — the scheduler re-checks the (possibly refilled) queue, and blocked
/// submitters re-check the bound. A panic escaping a flush is caught here:
/// the undelivered entries are re-queued and the worker lives on.
pub(crate) fn worker_loop(shared: &Shared, ctl: &WorkerCtl) {
    let mut state = shared.lock();
    loop {
        ctl.beats.fetch_add(1, Ordering::Release);
        if ctl.superseded.load(Ordering::Acquire) {
            // A compensating worker replaced this one while it was stuck;
            // exit to keep the pool at its configured size.
            return;
        }
        if let Some(mut work) = state.work.pop_front() {
            drop(state);
            ctl.busy.store(true, Ordering::Release);
            let run = catch_unwind(AssertUnwindSafe(|| {
                if matches!(shared.chaos("worker"), Some(FaultAction::Die)) {
                    return WorkerRun::Die;
                }
                WorkerRun::Done(execute_flush(&mut work, shared))
            }));
            ctl.busy.store(false, Ordering::Release);
            ctl.beats.fetch_add(1, Ordering::Release);
            state = shared.lock();
            let died = match run {
                Ok(WorkerRun::Done(outcome)) => {
                    if let Some(slot) = state.slots.get_mut(work.slot) {
                        slot.in_flight = false;
                        slot.flushes += 1;
                        slot.flushed_queries += outcome.answered;
                        slot.mutations_applied += outcome.mutations_applied;
                        slot.deltas_pushed += outcome.deltas_pushed;
                        // Write the subscriptions' new sync points back
                        // (the FIFO latch guarantees no other flush touched
                        // them meanwhile); drop subscriptions that errored
                        // or disconnected.
                        for (id, update) in outcome.subs {
                            match update {
                                Some((last, seq)) => {
                                    if let Some(sub) = slot.subs.iter_mut().find(|s| s.id == id) {
                                        sub.last = Some(last);
                                        sub.seq = seq;
                                    }
                                }
                                None => slot.subs.retain(|s| s.id != id),
                            }
                        }
                    }
                    false
                }
                Ok(WorkerRun::Die) => {
                    requeue_interrupted(&mut state, &mut work, "worker killed by injected fault");
                    true
                }
                Err(payload) => {
                    shared.panics_caught.fetch_add(1, Ordering::Relaxed);
                    let reason = panic_reason(payload.as_ref());
                    requeue_interrupted(&mut state, &mut work, &reason);
                    false
                }
            };
            // The latch is free: whatever queued behind this flush goes out
            // now if the predicate says so, without a scheduler hop.
            flush_if_due(&mut state, work.slot, &shared.config, Instant::now());
            drop(state);
            shared.notify();
            if died {
                return;
            }
            state = shared.lock();
            continue;
        }
        if state.pool_stop {
            return;
        }
        state = shared.wait(state);
    }
}

/// Per-subscription write-back entry of a [`FlushOutcome`]:
/// `Some((last_order, next_seq))` keeps the subscription with a new sync
/// point, `None` unregisters it (evaluation error or disconnected handle).
type SubWriteBack = (QueryId, Option<(Vec<TupleId>, u64)>);

/// Where one pending entry's answer comes from in a flush's evaluation.
#[derive(Clone, Copy)]
enum Src {
    /// The entry joined the walk: its answer is the batch result at this
    /// index.
    Eval(usize),
    /// The entry coalesced onto an identical earlier untracked entry; its
    /// answer is a copy of the batch result at this index.
    Alias(usize),
}

/// What one flush did beyond answering its queries, reported back to the
/// slot under the lock.
struct FlushOutcome {
    /// Mutations this flush applied successfully.
    mutations_applied: u64,
    /// Deltas this flush delivered to live subscribers.
    deltas_pushed: u64,
    /// Query answers this flush delivered (evaluated entries, not
    /// deadline sheds).
    answered: u64,
    /// Per-subscription write-back.
    subs: Vec<SubWriteBack>,
}

/// Applies the flush's mutations (acknowledging each through its
/// [`MutationHandle`]; a panicking backend resolves only that mutation to
/// [`QueryError::Internal`] and triggers a prepared-state repair), sheds
/// entries whose deadline expired with [`QueryError::TimedOut`] **before**
/// evaluation, purges and consults the relation's **result cache**
/// (serving current entries without a walk, generation-exactly), compiles
/// the rest **plus** the standing queries into one [`QueryBatch`] —
/// coalescing identical untracked queries onto one walk slot — runs it
/// with per-entry error and panic isolation, remembers cacheable answers,
/// stamps serving provenance, delivers every answer — ignoring channels
/// whose [`ResponseHandle`] was dropped — and pushes ranking deltas to the
/// subscribers.
///
/// Entries stay in `work` until the moment their answer is delivered: if a
/// panic escapes (an injected fault at the eval or deliver site), the
/// caller re-queues whatever remains.
fn execute_flush(work: &mut FlushWork, shared: &Shared) -> FlushOutcome {
    let _ = shared.chaos("flush-take");
    let mut out = FlushOutcome {
        mutations_applied: 0,
        deltas_pushed: 0,
        answered: 0,
        subs: Vec::with_capacity(work.subs.len()),
    };
    // Mutations first: every query evaluated in this flush observes every
    // mutation batched with it. The per-relation FIFO latch means no other
    // flush of this relation runs concurrently, so applying here is
    // serialized against all evaluation. Each application is isolated: a
    // panicking backend costs that one mutation (resolved `Internal`), and
    // the relation's derived state is rebuilt before anything reads it —
    // a mid-patch panic can never serve a half-patched ranking.
    let muts = std::mem::take(&mut work.muts);
    // Whether this flush may have moved the relation's state at all —
    // successful applications *and* panicked ones (a backend may mutate
    // before dying; the repair bumps the generation). Drives the cache
    // purge below, which must never under-trigger.
    let mut relation_touched = false;
    for m in muts {
        let applied = catch_unwind(AssertUnwindSafe(|| {
            let _ = shared.chaos("apply");
            match &work.live {
                Some(live) => live.apply_dyn(&m.mutation),
                // `apply` only admits mutations on live slots; tolerate an
                // impossible mismatch rather than losing the
                // acknowledgement.
                None => Err(QueryError::InvalidParameter(
                    "relation is not live".to_string(),
                )),
            }
        }));
        let result = match applied {
            Ok(result) => result,
            Err(payload) => {
                shared.panics_caught.fetch_add(1, Ordering::Relaxed);
                relation_touched = true;
                if let Some(live) = &work.live {
                    live.repair_dyn();
                }
                Err(QueryError::Internal {
                    reason: panic_reason(payload.as_ref()),
                })
            }
        };
        if result.is_ok() {
            out.mutations_applied += 1;
            relation_touched = true;
        }
        let _ = m.tx.send(result);
    }
    // A failed (rejected) mutation leaves the relation unchanged, so
    // deltas go out only when at least one mutation actually applied —
    // plus initial snapshots, which are pushed unconditionally.
    let mutated = out.mutations_applied > 0;

    // Deadline enforcement at dequeue: an expired (or client-abandoned)
    // entry is shed with `TimedOut` without ever being evaluated.
    work.pending.retain(|p| {
        if p.cancelled() {
            shared.timed_out.fetch_add(1, Ordering::Relaxed);
            let _ = p.tx.send(Err(QueryError::TimedOut));
            false
        } else {
            true
        }
    });

    // Result cache. With the relation's post-mutation generation in hand:
    // purge on any state movement, then serve every entry whose key has a
    // current remembered answer — no walk, no scheduler hop.
    let cache_on = shared.config.cache_entries > 0;
    let _ = shared.chaos("cache");
    let generation = work.rel.generation();
    if relation_touched {
        // Eager purge keeps the cache small and the invalidation counter
        // honest; correctness never rests on it — the lookup below is
        // generation-exact either way, so a skipped purge degrades to a
        // lazy per-key discard, never to a stale answer.
        let purged = lock_recover(&work.cache, &shared.poisoned).purge();
        if purged > 0 {
            shared
                .cache_invalidations
                .fetch_add(purged, Ordering::Relaxed);
        }
    }
    let admitted = work.pending.len();
    if cache_on && admitted > 0 {
        let mut cache = lock_recover(&work.cache, &shared.poisoned);
        let now = Instant::now();
        let mut i = 0;
        // Index loop with immediate delivery: an entry leaves
        // `work.pending` only in the same step that sends its answer, so a
        // panic anywhere here leaves the undelivered remainder in place
        // for the worker to re-queue.
        while i < work.pending.len() {
            let Some(key) = work.pending[i].query.cache_key() else {
                i += 1;
                continue;
            };
            match cache.lookup(&key, generation) {
                CacheLookup::Hit(res) => {
                    let mut res = *res;
                    let p = work.pending.remove(i);
                    res.report.serve = Some(ServeCost {
                        queue_seconds: now.duration_since(p.submitted_at).as_secs_f64(),
                        trigger: work.trigger,
                        flush_size: admitted,
                        queue_depth: p.depth_at_admit,
                        shed: work.shed,
                        served_from_cache: true,
                    });
                    shared.cache_hits.fetch_add(1, Ordering::Relaxed);
                    out.answered += 1;
                    let _ = p.tx.send(Ok(res));
                }
                CacheLookup::Stale => {
                    shared.cache_invalidations.fetch_add(1, Ordering::Relaxed);
                    shared.cache_misses.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
                CacheLookup::Miss => {
                    shared.cache_misses.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            }
        }
    }

    let flush_size = work.pending.len();
    if flush_size == 0 && work.subs.is_empty() {
        // Nothing left to evaluate: a mutation-only flush with no
        // subscribers, one shed whole, or one answered entirely from the
        // cache.
        return out;
    }
    // Compile the walk. Identical untracked queries coalesce: the first
    // occurrence evaluates, later ones alias its result slot. Tracked
    // entries never coalesce (in either role) — each keeps its own
    // cancellation semantics, and an alias must never inherit a sibling's
    // `TimedOut`.
    let mut plan: Vec<Src> = Vec::with_capacity(flush_size);
    let mut keys: Vec<Option<QueryKey>> = Vec::with_capacity(flush_size);
    let mut first_by_key: HashMap<QueryKey, usize> = HashMap::new();
    let mut queries = Vec::with_capacity(flush_size + work.subs.len());
    for p in &work.pending {
        let key = if cache_on { p.query.cache_key() } else { None };
        let untracked = p.query.cancel_token_ref().is_none();
        let alias = key
            .as_ref()
            .filter(|_| untracked)
            .and_then(|k| first_by_key.get(k).copied());
        let src = match alias {
            Some(ri) => Src::Alias(ri),
            None => {
                let ri = queries.len();
                queries.push(p.query.clone());
                if untracked {
                    if let Some(k) = &key {
                        first_by_key.insert(k.clone(), ri);
                    }
                }
                Src::Eval(ri)
            }
        };
        plan.push(src);
        keys.push(key);
    }
    let n_eval = queries.len();
    for s in &work.subs {
        queries.push(s.query.clone());
    }
    let mut batch = QueryBatch::new().add_queries(queries);
    if let Some(threads) = shared.config.threads {
        batch = batch.parallel(threads);
    }
    let flush_start = Instant::now();
    let _ = shared.chaos("eval");
    let mut results = batch.run_isolated(&*work.rel);
    debug_assert_eq!(results.len(), n_eval + work.subs.len());
    let sub_results = results.split_off(n_eval);
    let mut results: Vec<Option<Answer>> = results.into_iter().map(Some).collect();

    // Remember cacheable answers before delivering: a remembered answer is
    // correct for `(key, generation)` whether or not delivery completes.
    // The generation re-read guards the offline edge (a retained handle
    // mutating the relation directly, outside the FIFO latch): a moved
    // generation skips population instead of mislabeling entries.
    if cache_on && work.rel.generation() == generation {
        let mut cache = lock_recover(&work.cache, &shared.poisoned);
        for (key, src) in keys.iter().zip(&plan) {
            let (Some(key), Src::Eval(ri)) = (key, src) else {
                continue;
            };
            if let Some(Some(Ok(res))) = results.get(*ri) {
                cache.insert(key.clone(), generation, res.clone());
            }
        }
    }

    let _ = shared.chaos("deliver");
    // Each walk slot is delivered once per use (its evaluating entry plus
    // any aliases): the last use takes the result, earlier ones clone it.
    let mut uses = vec![0usize; n_eval];
    for src in &plan {
        let (Src::Eval(ri) | Src::Alias(ri)) = src;
        uses[*ri] += 1;
    }
    // `plan` parallels `pending` entry for entry.
    for src in plan {
        if work.pending.is_empty() {
            break;
        }
        let (Src::Eval(ri) | Src::Alias(ri)) = src;
        uses[ri] -= 1;
        let taken = if uses[ri] == 0 {
            results[ri].take()
        } else {
            results[ri].clone()
        };
        // Each walk slot outlives its uses; were one ever short, the entry
        // resolves as an internal error rather than taking the worker down.
        let mut result = taken.unwrap_or_else(|| {
            Err(QueryError::Internal {
                reason: "walk slot delivered past its uses".to_string(),
            })
        });
        let p = work.pending.remove(0);
        match &mut result {
            Ok(res) => {
                res.report.serve = Some(ServeCost {
                    queue_seconds: flush_start.duration_since(p.submitted_at).as_secs_f64(),
                    trigger: work.trigger,
                    flush_size,
                    queue_depth: p.depth_at_admit,
                    shed: work.shed,
                    served_from_cache: false,
                });
            }
            Err(QueryError::Internal { .. }) => {
                // The batch layer converted an evaluation panic into this
                // entry's answer; count it with the contained panics —
                // once per walk slot, so aliases don't multiply the one
                // panic they share.
                if matches!(src, Src::Eval(_)) {
                    shared.panics_caught.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {}
        }
        out.answered += 1;
        // A dropped handle disconnects the channel; the failed send is the
        // intended "discard the answer" path and must not stop the flush.
        let _ = p.tx.send(result);
    }
    for (sub, result) in std::mem::take(&mut work.subs).into_iter().zip(sub_results) {
        match result {
            Err(err) => {
                if matches!(err, QueryError::Internal { .. }) {
                    shared.panics_caught.fetch_add(1, Ordering::Relaxed);
                }
                // A standing query that stops evaluating terminates its
                // own subscription with the error.
                let _ = sub.tx.send(Err(err));
                out.subs.push((sub.id, None));
            }
            Ok(res) => {
                let order = res.ranking.order().to_vec();
                if sub.last.is_none() || mutated {
                    let (entered, left, moved) = diff_orders(sub.last.as_deref(), &order);
                    let delta = RankingDelta {
                        seq: sub.seq,
                        entered,
                        left,
                        moved,
                        ranking: res.ranking,
                    };
                    if sub.tx.send(Ok(delta)).is_ok() {
                        out.deltas_pushed += 1;
                        out.subs.push((sub.id, Some((order, sub.seq + 1))));
                    } else {
                        // The subscriber dropped its handle: unregister.
                        out.subs.push((sub.id, None));
                    }
                } else {
                    // Re-evaluated for a sibling's initial snapshot with no
                    // mutation in between: the ranking is unchanged — no
                    // push, but refresh the sync point.
                    out.subs.push((sub.id, Some((order, sub.seq))));
                }
            }
        }
    }
    out
}

/// The `(entered, left, moved)` payload of a [`RankingDelta`].
type OrderDiff = (Vec<TupleId>, Vec<TupleId>, Vec<(TupleId, usize, usize)>);

/// Position-level diff between a subscriber's previous ranking order and
/// the freshly evaluated one — the payload of a [`RankingDelta`].
fn diff_orders(old: Option<&[TupleId]>, new: &[TupleId]) -> OrderDiff {
    let old = old.unwrap_or(&[]);
    let old_pos: HashMap<TupleId, usize> = old.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let mut entered = Vec::new();
    let mut moved = Vec::new();
    for (i, &t) in new.iter().enumerate() {
        match old_pos.get(&t) {
            None => entered.push(t),
            Some(&j) if j != i => moved.push((t, j, i)),
            _ => {}
        }
    }
    let new_set: HashSet<TupleId> = new.iter().copied().collect();
    let left = old
        .iter()
        .copied()
        .filter(|t| !new_set.contains(t))
        .collect();
    (entered, left, moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prf_pdb::IndependentDb;
    use std::sync::atomic::AtomicBool;

    fn db() -> IndependentDb {
        IndependentDb::from_pairs([
            (10.0, 0.4),
            (9.0, 0.45),
            (8.0, 0.8),
            (7.0, 0.95),
            (6.0, 0.3),
            (5.0, 1.0),
        ])
        .unwrap()
    }

    #[test]
    fn roundtrip_matches_direct_query() {
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_micros(200)));
        let rel = server.register("db", db());
        assert_eq!(server.relation_name(rel).as_deref(), Some("db"));
        let handle = server.submit(rel, RankQuery::pt(2)).unwrap();
        let got = handle.recv().unwrap();
        let want = RankQuery::pt(2).run(&db()).unwrap();
        assert_eq!(got.ranking.order(), want.ranking.order());
        assert_eq!(got.values.as_complex(), want.values.as_complex());
        let serve = got.report.serve.expect("provenance stamped");
        assert!(serve.queue_seconds >= 0.0);
        assert!(serve.flush_size >= 1);
        assert!(serve.queue_depth >= 1);
        assert_eq!(serve.shed, 0);
    }

    #[test]
    fn size_limit_triggers_flush_without_deadline() {
        // A one-hour deadline: only the size limit can flush.
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::from_secs(3600))
                .max_batch(2),
        );
        let rel = server.register("db", db());
        let a = server.submit(rel, RankQuery::pt(1)).unwrap();
        let b = server.submit(rel, RankQuery::prfe(0.9)).unwrap();
        let a = a.recv().unwrap();
        let b = b.recv().unwrap();
        assert_eq!(a.report.serve.unwrap().trigger, FlushTrigger::SizeLimit);
        assert_eq!(b.report.serve.unwrap().flush_size, 2);
        // Both shared one walk.
        assert_eq!(a.report.batch.unwrap().consumers, 2);
        // Admission depths record the queue growing.
        assert_eq!(a.report.serve.unwrap().queue_depth, 1);
        assert_eq!(b.report.serve.unwrap().queue_depth, 2);
    }

    #[test]
    fn unknown_relation_errors_at_submission() {
        let server = RankServer::new(ServeConfig::new());
        let err = server.submit(RelationId(7), RankQuery::pt(1)).unwrap_err();
        assert!(matches!(err, QueryError::InvalidParameter(_)), "{err}");
        let err = server
            .try_submit(RelationId(7), RankQuery::pt(1))
            .unwrap_err();
        assert!(matches!(err, QueryError::InvalidParameter(_)), "{err}");
    }

    #[test]
    fn per_query_errors_resolve_through_the_handle() {
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::ZERO).max_batch(3));
        let rel = server.register("db", db());
        let bad = server
            .submit(
                rel,
                RankQuery::pt(2).algorithm(prf_core::query::Algorithm::LogDomain),
            )
            .unwrap();
        let good = server.submit(rel, RankQuery::pt(2)).unwrap();
        assert!(matches!(
            bad.recv(),
            Err(QueryError::IncompatibleAlgorithm { .. })
        ));
        assert!(good.recv().is_ok());
    }

    #[test]
    fn try_submit_sheds_at_the_bound() {
        // A one-hour deadline and a high batch limit: nothing flushes, so
        // the 2-slot bound must fill and shed.
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::from_secs(3600))
                .max_batch(1000)
                .max_pending(2),
        );
        let rel = server.register("db", db());
        let a = server.try_submit(rel, RankQuery::pt(1)).unwrap();
        let b = server.try_submit(rel, RankQuery::pt(1)).unwrap();
        let shed = server.try_submit(rel, RankQuery::pt(1));
        assert!(matches!(shed, Err(QueryError::Overloaded)), "{shed:?}");
        assert_eq!(server.metrics().shed, 1);
        // The accepted queries still resolve (shutdown drains them) and
        // carry the shed counter in their provenance.
        server.shutdown();
        let a = a.recv().unwrap();
        let b = b.recv().unwrap();
        assert_eq!(a.report.serve.unwrap().trigger, FlushTrigger::Shutdown);
        assert_eq!(a.report.serve.unwrap().shed, 1);
        assert_eq!(b.report.serve.unwrap().shed, 1);
    }

    #[test]
    fn blocked_submit_resumes_after_a_flush_frees_space() {
        let server = Arc::new(RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::from_millis(1))
                .max_pending(1),
        ));
        let rel = server.register("db", db());
        // Saturate the queue, then submit from another thread: the call
        // must block until the deadline flush frees the slot, then admit.
        let first = server.submit(rel, RankQuery::pt(1)).unwrap();
        let blocked = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.submit(rel, RankQuery::pt(2)))
        };
        let second = blocked.join().unwrap().unwrap();
        assert!(first.recv().is_ok());
        assert!(second.recv().is_ok());
    }

    #[test]
    fn panicking_backend_resolves_to_internal_and_server_survives() {
        use prf_core::query::batch::{SharedWalkOut, SharedWalkSpec};
        use prf_core::query::{CorrelationClass, PreparedState, TopkCarry};

        /// A backend whose kernels die — stands in for any bug that makes
        /// evaluation panic. Panic isolation must resolve the doomed
        /// query's handle to `Internal` and leave the server serving.
        struct Poisoned;
        impl ProbabilisticRelation for Poisoned {
            fn n_tuples(&self) -> usize {
                2
            }
            fn tuple_scores(&self) -> Vec<f64> {
                vec![2.0, 1.0]
            }
            fn tuple_marginals(&self) -> Vec<f64> {
                vec![0.5, 0.5]
            }
            fn correlation_class(&self) -> CorrelationClass {
                CorrelationClass::Graphical
            }
            fn run_shared_walk(
                &self,
                _spec: &SharedWalkSpec,
                _carry: &mut TopkCarry,
                _prep: &PreparedState,
            ) -> Option<SharedWalkOut> {
                panic!("injected kernel failure")
            }
        }

        let server = RankServer::new(ServeConfig::new().max_delay(Duration::ZERO));
        let rel = server.register("poisoned", Poisoned);
        let first = server.submit(rel, RankQuery::pt(1)).unwrap();
        // The panic is contained to this entry: its handle resolves to
        // `Internal` (never hangs), and the panic message survives.
        match first.recv() {
            Err(QueryError::Internal { reason }) => {
                assert!(reason.contains("injected kernel failure"), "{reason}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // The server is still alive: healthy relations keep serving, and
        // the doomed one keeps resolving (not hanging) per submission.
        let healthy = server.register("db", db());
        let ok = server.submit(healthy, RankQuery::pt(1)).unwrap();
        assert!(ok.recv().is_ok());
        let again = server.submit(rel, RankQuery::prfe(0.9)).unwrap();
        assert!(matches!(again.recv(), Err(QueryError::Internal { .. })));
        assert!(server.metrics().panics_caught >= 2);
        server.shutdown();
    }

    #[test]
    fn query_ids_are_unique_and_monotone() {
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::ZERO));
        let rel = server.register("db", db());
        let ids: Vec<u64> = (0..5)
            .map(|_| {
                server
                    .submit(rel, RankQuery::escore())
                    .unwrap()
                    .id()
                    .as_u64()
            })
            .collect();
        for w in ids.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn live_mutations_apply_and_notify_subscribers() {
        use prf_core::live::{LiveRelation, Mutation};

        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_micros(200)));
        let live = Arc::new(LiveRelation::new(db()));
        let rel = server.register_live("live", Arc::clone(&live));

        // The subscription's initial snapshot: everything "enters".
        let sub = server.subscribe(rel, RankQuery::pt(3)).unwrap();
        let snapshot = sub.recv().unwrap();
        assert_eq!(snapshot.seq, 0);
        assert_eq!(snapshot.entered.len(), snapshot.ranking.len());
        assert!(snapshot.left.is_empty() && snapshot.moved.is_empty());

        // Push the lowest-probability tuple to certainty: the PT(3) top set
        // must change, and the subscriber must see a delta for it.
        let before = snapshot.ranking.order().to_vec();
        let target = *before.last().unwrap();
        let effect = server
            .apply(rel, Mutation::Reweight(target, 1.0))
            .unwrap()
            .recv()
            .unwrap();
        assert!(matches!(
            effect,
            prf_core::live::MutationEffect::Reweighted { tuple, new_prob, .. }
                if tuple == target && new_prob == 1.0
        ));
        let delta = sub.recv().unwrap();
        assert_eq!(delta.seq, 1);
        assert_ne!(delta.ranking.order(), &before[..]);
        assert!(!delta.is_empty());

        // Ordinary queries against the mutated relation agree with a
        // rebuilt offline copy.
        let served = server
            .submit(rel, RankQuery::pt(3))
            .unwrap()
            .recv()
            .unwrap();
        let rebuilt = RankQuery::pt(3).run(&live.snapshot_backend()).unwrap();
        assert_eq!(served.ranking.order(), rebuilt.ranking.order());
        assert_eq!(delta.ranking.order(), rebuilt.ranking.order());

        let m = server.metrics();
        assert_eq!(m.mutations_applied, 1);
        assert!(m.deltas_pushed >= 2, "{m:?}");
        assert_eq!(m.subscribers_live, 1);
        server.shutdown();
        // Shutdown ends the stream.
        assert!(matches!(sub.recv(), Err(QueryError::Shutdown)));
    }

    #[test]
    fn apply_rejects_non_live_relations() {
        use prf_core::live::Mutation;

        let server = RankServer::new(ServeConfig::new());
        let rel = server.register("static", db());
        let err = server
            .apply(rel, Mutation::Reweight(prf_core::TupleId(0), 0.5))
            .unwrap_err();
        assert!(matches!(err, QueryError::InvalidParameter(_)), "{err}");
        let err = server
            .apply(RelationId(9), Mutation::Reweight(prf_core::TupleId(0), 0.5))
            .unwrap_err();
        assert!(matches!(err, QueryError::InvalidParameter(_)), "{err}");
    }

    #[test]
    fn rejected_mutation_resolves_through_handle_and_pushes_no_delta() {
        use prf_core::live::{LiveRelation, Mutation};

        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_micros(200)));
        let live = Arc::new(LiveRelation::new(db()));
        let rel = server.register_live("live", Arc::clone(&live));
        let sub = server.subscribe(rel, RankQuery::pt(2)).unwrap();
        let snapshot = sub.recv().unwrap();

        // An out-of-range probability: the backend rejects, the relation
        // is unchanged, and subscribers see no delta.
        let ack = server
            .apply(rel, Mutation::Reweight(prf_core::TupleId(0), 1.5))
            .unwrap()
            .recv();
        assert!(
            matches!(ack, Err(QueryError::InvalidParameter(_))),
            "{ack:?}"
        );
        assert!(sub.recv_timeout(Duration::from_millis(50)).is_none());
        assert_eq!(server.metrics().mutations_applied, 0);

        let served = server
            .submit(rel, RankQuery::pt(2))
            .unwrap()
            .recv()
            .unwrap();
        assert_eq!(served.ranking.order(), snapshot.ranking.order());
    }

    #[test]
    fn shutdown_drains_pending_mutations() {
        use prf_core::live::{LiveRelation, Mutation};

        // A one-hour deadline: only the shutdown drain can flush.
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_secs(3600)));
        let live = Arc::new(LiveRelation::new(db()));
        let rel = server.register_live("live", Arc::clone(&live));
        let ack = server
            .apply(
                rel,
                Mutation::Insert {
                    score: 11.0,
                    prob: 0.25,
                },
            )
            .unwrap();
        server.shutdown();
        assert!(ack.recv().is_ok());
        assert_eq!(live.snapshot_backend().len(), 7);
        assert_eq!(server.metrics().mutations_applied, 1);
    }

    #[test]
    fn standing_query_evaluation_error_terminates_only_that_subscription() {
        use prf_core::live::{LiveRelation, Mutation};
        use prf_core::query::Algorithm;

        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_micros(200)));
        let live = Arc::new(LiveRelation::new(db()));
        let rel = server.register_live("live", Arc::clone(&live));
        // PT with a log-domain algorithm is incompatible — the standing
        // query fails at its first evaluation and self-terminates.
        let bad = server
            .subscribe(rel, RankQuery::pt(2).algorithm(Algorithm::LogDomain))
            .unwrap();
        let good = server.subscribe(rel, RankQuery::pt(2)).unwrap();
        assert!(matches!(
            bad.recv(),
            Err(QueryError::IncompatibleAlgorithm { .. })
        ));
        assert!(matches!(bad.recv(), Err(QueryError::Shutdown)));
        assert!(good.recv().is_ok());
        // The healthy subscriber keeps receiving deltas.
        server
            .apply(rel, Mutation::Reweight(prf_core::TupleId(4), 0.9))
            .unwrap()
            .recv()
            .unwrap();
        assert_eq!(good.recv().unwrap().seq, 1);
        assert_eq!(server.metrics().subscribers_live, 1);
    }

    #[test]
    fn metrics_count_flushes_and_queries() {
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::ZERO).workers(3));
        let rel = server.register("db", db());
        let handles: Vec<_> = (0..6)
            .map(|_| server.submit(rel, RankQuery::pt(1)).unwrap())
            .collect();
        for h in handles {
            assert!(h.recv().is_ok());
        }
        server.shutdown();
        let m = server.metrics();
        assert_eq!(m.flushed_queries, 6);
        assert!(m.flushes >= 1 && m.flushes <= 6, "{m:?}");
        assert_eq!(m.pending, 0);
        assert_eq!(m.in_flight, 0);
    }

    #[test]
    fn expired_deadline_sheds_without_evaluation() {
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_millis(1)));
        let rel = server.register("db", db());
        let handle = server
            .submit_with(
                rel,
                RankQuery::pt(2),
                SubmitOptions::new().deadline(Duration::ZERO),
            )
            .unwrap();
        assert!(matches!(handle.recv(), Err(QueryError::TimedOut)));
        let m = server.metrics();
        assert_eq!(m.timed_out, 1);
        // Shed at dequeue: the query was never evaluated.
        assert_eq!(m.flushed_queries, 0);
    }

    #[test]
    fn dropped_tracked_handle_cancels_the_query() {
        // A one-hour deadline: only the shutdown drain dequeues, and by
        // then the handle is gone.
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_secs(3600)));
        let rel = server.register("db", db());
        let handle = server
            .submit_with(rel, RankQuery::pt(2), SubmitOptions::new())
            .unwrap();
        drop(handle); // trips the cancellation token
        server.shutdown();
        let m = server.metrics();
        assert_eq!(m.timed_out, 1);
        assert_eq!(m.flushed_queries, 0);
    }

    #[test]
    fn untracked_submissions_carry_no_cancel_token() {
        // Plain `submit` must stay on the PR 7 fast path: no token, so a
        // dropped handle only discards the answer, never the work.
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_secs(3600)));
        let rel = server.register("db", db());
        let handle = server.submit(rel, RankQuery::pt(2)).unwrap();
        drop(handle);
        server.shutdown();
        let m = server.metrics();
        assert_eq!(m.timed_out, 0);
        assert_eq!(m.flushed_queries, 1);
    }

    #[test]
    fn bulk_class_waits_for_its_own_cadence() {
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::from_micros(200))
                .bulk_delay(Duration::from_secs(3600)),
        );
        let rel = server.register("db", db());
        let mut bulk = server
            .submit_with(rel, RankQuery::pt(2), SubmitOptions::bulk())
            .unwrap();
        // The latency class flushes on its 200 µs deadline; the bulk query
        // does not ride along — its hour-long cadence is nowhere near due.
        let latency = server.submit(rel, RankQuery::pt(1)).unwrap();
        assert!(latency.recv().is_ok());
        assert!(bulk.recv_timeout(Duration::from_millis(50)).is_none());
        // Shutdown still drains the bulk queue.
        server.shutdown();
        let got = bulk.recv().unwrap();
        assert_eq!(got.report.serve.unwrap().trigger, FlushTrigger::Shutdown);
    }

    #[test]
    fn bulk_deadline_flushes_bulk_on_its_own() {
        // Latency deadline an hour out: only the bulk cadence can flush.
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::from_secs(3600))
                .bulk_delay(Duration::from_micros(200)),
        );
        let rel = server.register("db", db());
        let bulk = server
            .submit_with(rel, RankQuery::pt(2), SubmitOptions::bulk())
            .unwrap();
        let got = bulk.recv().unwrap();
        assert_eq!(got.report.serve.unwrap().trigger, FlushTrigger::Deadline);
        let want = RankQuery::pt(2).run(&db()).unwrap();
        assert_eq!(got.ranking.order(), want.ranking.order());
    }

    #[test]
    fn dropping_a_subscription_unsubscribes_immediately() {
        use prf_core::live::LiveRelation;

        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_micros(200)));
        let live = Arc::new(LiveRelation::new(db()));
        let rel = server.register_live("live", Arc::clone(&live));
        let sub = server.subscribe(rel, RankQuery::pt(2)).unwrap();
        assert!(sub.recv().is_ok()); // initial snapshot delivered
        assert_eq!(server.metrics().subscribers_live, 1);
        drop(sub);
        // No flush in between: the drop itself removed the subscription.
        assert_eq!(server.metrics().subscribers_live, 0);
    }

    #[test]
    fn injected_eval_panic_requeues_and_answers() {
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_micros(200)));
        server.inject_faults(FaultPlan::new().once("eval", FaultKind::Panic));
        let rel = server.register("db", db());
        let handle = server.submit(rel, RankQuery::pt(2)).unwrap();
        // The first flush attempt panics at the eval site (escaping the
        // batch layer); the worker re-queues the entry and the retry
        // answers it correctly.
        let got = handle.recv().unwrap();
        let want = RankQuery::pt(2).run(&db()).unwrap();
        assert_eq!(got.ranking.order(), want.ranking.order());
        assert!(server.metrics().panics_caught >= 1);
        server.shutdown();
    }

    #[test]
    fn injected_apply_panic_resolves_mutation_and_repairs() {
        use prf_core::live::{LiveRelation, Mutation};

        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_micros(200)));
        server.inject_faults(FaultPlan::new().once("apply", FaultKind::Panic));
        let live = Arc::new(LiveRelation::new(db()));
        let rel = server.register_live("live", Arc::clone(&live));
        let ack = server
            .apply(
                rel,
                Mutation::Insert {
                    score: 11.0,
                    prob: 0.25,
                },
            )
            .unwrap()
            .recv();
        assert!(matches!(ack, Err(QueryError::Internal { .. })), "{ack:?}");
        // The panic fired before the backend changed, and the prepared
        // state was repaired: served answers still match an offline
        // rebuild of the (unchanged) relation.
        let served = server
            .submit(rel, RankQuery::pt(3))
            .unwrap()
            .recv()
            .unwrap();
        let rebuilt = RankQuery::pt(3).run(&live.snapshot_backend()).unwrap();
        assert_eq!(served.ranking.order(), rebuilt.ranking.order());
        let m = server.metrics();
        assert_eq!(m.mutations_applied, 0);
        assert!(m.panics_caught >= 1);
        server.shutdown();
    }

    #[test]
    fn killed_worker_is_respawned_and_the_flush_retried() {
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::from_micros(200))
                .workers(1)
                .stuck_after(Duration::from_millis(100)),
        );
        server.inject_faults(FaultPlan::new().once("worker", FaultKind::KillWorker));
        let rel = server.register("db", db());
        let handle = server.submit(rel, RankQuery::pt(1)).unwrap();
        // The only worker exits while holding this flush; the supervisor
        // must respawn one, which retries the re-queued entry.
        assert!(handle.recv().is_ok());
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.metrics().workers_respawned == 0 {
            assert!(Instant::now() < deadline, "respawn never observed");
            std::thread::sleep(Duration::from_millis(2));
        }
        server.shutdown();
    }

    #[test]
    fn twice_interrupted_entry_resolves_internal() {
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::from_micros(200))
                .workers(1)
                .stuck_after(Duration::from_millis(100)),
        );
        server.inject_faults(FaultPlan::new().times("worker", FaultKind::KillWorker, 2));
        let rel = server.register("db", db());
        let handle = server.submit(rel, RankQuery::pt(1)).unwrap();
        // First kill re-queues the entry; the second interruption must
        // resolve it to `Internal` instead of re-queueing forever.
        let got = handle.recv();
        assert!(matches!(got, Err(QueryError::Internal { .. })), "{got:?}");
        server.shutdown();
    }

    #[test]
    fn injected_admit_overload_sheds_the_submission() {
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_micros(200)));
        server.inject_faults(FaultPlan::new().once("admit", FaultKind::Overloaded));
        let rel = server.register("db", db());
        let shed = server.submit(rel, RankQuery::pt(1));
        assert!(matches!(shed, Err(QueryError::Overloaded)), "{shed:?}");
        // One-shot: the next submission is admitted and served.
        assert!(server.submit(rel, RankQuery::pt(1)).unwrap().recv().is_ok());
    }

    #[test]
    fn result_cache_is_generation_exact_and_bounded() {
        let res = RankQuery::pt(1).run(&db()).unwrap();
        let key = RankQuery::pt(1).cache_key().unwrap();
        let key2 = RankQuery::pt(2).cache_key().unwrap();
        let mut cache = ResultCache::new(1);
        cache.insert(key.clone(), 3, res.clone());
        assert!(matches!(cache.lookup(&key, 3), CacheLookup::Hit(_)));
        // A generation mismatch discards the entry rather than serving it.
        assert!(matches!(cache.lookup(&key, 4), CacheLookup::Stale));
        assert!(matches!(cache.lookup(&key, 3), CacheLookup::Miss));
        // The cap evicts the oldest-inserted key.
        cache.insert(key.clone(), 5, res.clone());
        cache.insert(key2.clone(), 5, res.clone());
        assert!(matches!(cache.lookup(&key, 5), CacheLookup::Miss));
        assert!(matches!(cache.lookup(&key2, 5), CacheLookup::Hit(_)));
        assert_eq!(cache.purge(), 1);
        assert!(matches!(cache.lookup(&key2, 5), CacheLookup::Miss));
    }

    #[test]
    fn repeated_query_is_served_from_cache() {
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_micros(200)));
        let rel = server.register("db", db());
        let first = server
            .submit(rel, RankQuery::prfe(0.9))
            .unwrap()
            .recv()
            .unwrap();
        assert!(!first.report.serve.unwrap().served_from_cache);
        let second = server
            .submit(rel, RankQuery::prfe(0.9))
            .unwrap()
            .recv()
            .unwrap();
        let serve = second.report.serve.unwrap();
        assert!(
            serve.served_from_cache,
            "repeat of an identical query on an unchanged relation must hit"
        );
        assert!(serve.queue_seconds >= 0.0);
        assert_eq!(second.ranking.order(), first.ranking.order());
        assert_eq!(second.values.as_complex(), first.values.as_complex());
        let m = server.metrics();
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.cache_misses, 1);
        // The hit still counts as a served query.
        server.shutdown();
        assert_eq!(server.metrics().flushed_queries, 2);
    }

    #[test]
    fn mutation_invalidates_the_cache_before_the_next_answer() {
        use prf_core::live::{LiveRelation, Mutation};

        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_micros(200)));
        let live = Arc::new(LiveRelation::new(db()));
        let rel = server.register_live("live", Arc::clone(&live));
        let before = server
            .submit(rel, RankQuery::pt(3))
            .unwrap()
            .recv()
            .unwrap();
        let target = *before.ranking.order().last().unwrap();
        server
            .apply(rel, Mutation::Reweight(target, 1.0))
            .unwrap()
            .recv()
            .unwrap();
        let after = server
            .submit(rel, RankQuery::pt(3))
            .unwrap()
            .recv()
            .unwrap();
        // The mutated flush purged the entry: the repeat re-evaluates and
        // matches a rebuilt offline copy, never the remembered answer.
        assert!(!after.report.serve.unwrap().served_from_cache);
        let rebuilt = RankQuery::pt(3).run(&live.snapshot_backend()).unwrap();
        assert_eq!(after.ranking.order(), rebuilt.ranking.order());
        assert_eq!(after.values.as_complex(), rebuilt.values.as_complex());
        assert!(server.metrics().cache_invalidations >= 1);
        // Unchanged since the mutation: the re-populated entry now hits.
        let again = server
            .submit(rel, RankQuery::pt(3))
            .unwrap()
            .recv()
            .unwrap();
        assert!(again.report.serve.unwrap().served_from_cache);
        assert_eq!(again.values.as_complex(), rebuilt.values.as_complex());
    }

    #[test]
    fn identical_untracked_queries_coalesce_onto_one_walk_slot() {
        // A one-hour deadline with a 4-query size trigger: all four land
        // in one flush. Identical and untracked, they coalesce — the walk
        // sees a single consumer.
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::from_secs(3600))
                .max_batch(4),
        );
        let rel = server.register("db", db());
        let handles: Vec<_> = (0..4)
            .map(|_| server.submit(rel, RankQuery::prfe(0.9)).unwrap())
            .collect();
        let answers: Vec<_> = handles.into_iter().map(|h| h.recv().unwrap()).collect();
        for a in &answers {
            assert_eq!(a.values.as_complex(), answers[0].values.as_complex());
            assert_eq!(a.report.batch.as_ref().unwrap().consumers, 1);
            // Coalesced answers are evaluated answers, not cache hits.
            assert!(!a.report.serve.as_ref().unwrap().served_from_cache);
        }
        // The worker records a flush's count after delivering its answers;
        // shutdown joins it, so the count is final.
        server.shutdown();
        assert_eq!(server.metrics().flushed_queries, 4);
    }

    #[test]
    fn disabling_the_cache_disables_hits_and_coalescing() {
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::from_secs(3600))
                .max_batch(2)
                .cache_entries(0),
        );
        let rel = server.register("db", db());
        let a = server.submit(rel, RankQuery::pt(2)).unwrap();
        let b = server.submit(rel, RankQuery::pt(2)).unwrap();
        let a = a.recv().unwrap();
        let b = b.recv().unwrap();
        // Identical queries in one flush each pay their own walk share.
        assert_eq!(a.report.batch.unwrap().consumers, 2);
        assert_eq!(b.report.batch.unwrap().consumers, 2);
        // And a repeat across flushes re-evaluates.
        let c = server.submit(rel, RankQuery::pt(2)).unwrap();
        let d = server.submit(rel, RankQuery::pt(2)).unwrap();
        assert!(!c.recv().unwrap().report.serve.unwrap().served_from_cache);
        assert!(!d.recv().unwrap().report.serve.unwrap().served_from_cache);
        let m = server.metrics();
        assert_eq!(
            (m.cache_hits, m.cache_misses, m.cache_invalidations),
            (0, 0, 0)
        );
    }

    #[test]
    fn cache_entries_cap_bounds_remembered_keys() {
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::from_micros(200))
                .cache_entries(1),
        );
        let rel = server.register("db", db());
        let roundtrip = |q: RankQuery| server.submit(rel, q).unwrap().recv().unwrap();
        roundtrip(RankQuery::pt(1)); // populate {pt(1)}
        roundtrip(RankQuery::pt(2)); // evict pt(1), populate {pt(2)}
        let repeat = roundtrip(RankQuery::pt(1)); // evicted: a miss again
        assert!(!repeat.report.serve.unwrap().served_from_cache);
        assert_eq!(server.metrics().cache_hits, 0);
        let repeat = roundtrip(RankQuery::pt(1)); // now remembered again
        assert!(repeat.report.serve.unwrap().served_from_cache);
        assert_eq!(server.metrics().cache_hits, 1);
    }

    /// A backend whose walk, while the gate is held, blocks until it is
    /// released, then delegates to [`db`]; it counts the walks it entered.
    /// A held flush keeps its relation's FIFO latch, so a test can queue
    /// work behind it and choose the moment it completes.
    struct Gated {
        inner: IndependentDb,
        held: AtomicBool,
        walks: AtomicU64,
    }

    impl Gated {
        fn new() -> Arc<Self> {
            Arc::new(Gated {
                inner: db(),
                held: AtomicBool::new(false),
                walks: AtomicU64::new(0),
            })
        }

        fn hold(&self) {
            self.held.store(true, Ordering::Release);
        }

        fn release(&self) {
            self.held.store(false, Ordering::Release);
        }

        /// Blocks until at least `n` walks have started.
        fn await_walks(&self, n: u64) {
            while self.walks.load(Ordering::Acquire) < n {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    impl ProbabilisticRelation for Gated {
        fn n_tuples(&self) -> usize {
            self.inner.n_tuples()
        }
        fn tuple_scores(&self) -> Vec<f64> {
            self.inner.tuple_scores()
        }
        fn tuple_marginals(&self) -> Vec<f64> {
            self.inner.tuple_marginals()
        }
        fn correlation_class(&self) -> prf_core::query::CorrelationClass {
            self.inner.correlation_class()
        }
        fn run_shared_walk(
            &self,
            spec: &prf_core::query::batch::SharedWalkSpec,
            carry: &mut prf_core::query::TopkCarry,
            prep: &prf_core::query::PreparedState,
        ) -> Option<prf_core::query::batch::SharedWalkOut> {
            self.walks.fetch_add(1, Ordering::Release);
            while self.held.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            self.inner.run_shared_walk(spec, carry, prep)
        }
    }

    fn serve_cost(handle: ResponseHandle) -> ServeCost {
        handle.recv().unwrap().report.serve.unwrap()
    }

    #[test]
    fn a_fresh_relations_first_lone_query_waits_for_its_deadline() {
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_millis(50)));
        let rel = server.register("db", db());
        let first = serve_cost(server.submit(rel, RankQuery::pt(2)).unwrap());
        assert_eq!(first.trigger, FlushTrigger::Deadline);
        assert!(first.queue_seconds >= 0.049, "{first:?}");
    }

    #[test]
    fn after_a_lone_flush_the_next_lone_query_flushes_at_once() {
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_millis(50)));
        let rel = server.register("db", db());
        let first = serve_cost(server.submit(rel, RankQuery::pt(2)).unwrap());
        assert_eq!(first.trigger, FlushTrigger::Deadline);
        for h in [1, 3] {
            let next = serve_cost(server.submit(rel, RankQuery::pt(h)).unwrap());
            assert_eq!(next.trigger, FlushTrigger::Idle, "{next:?}");
            assert_eq!(next.flush_size, 1);
            assert!(next.queue_seconds < 0.025, "{next:?}");
        }
    }

    #[test]
    fn a_flush_carrying_two_queries_turns_the_wait_back_on() {
        let gated = Gated::new();
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_millis(50)));
        let rel = server.register_shared("gated", gated.clone());
        // A lone first flush switches the relation to flushing at once.
        serve_cost(server.submit(rel, RankQuery::pt(1)).unwrap());
        // The next lone query goes out at once and holds the latch while
        // two more queue behind it; they leave together on completion.
        gated.hold();
        let lone = server.submit(rel, RankQuery::pt(2)).unwrap();
        gated.await_walks(2);
        let a = server.submit(rel, RankQuery::pt(3)).unwrap();
        let b = server.submit(rel, RankQuery::prfe(0.9)).unwrap();
        gated.release();
        assert_eq!(serve_cost(lone).trigger, FlushTrigger::Idle);
        let (a, b) = (serve_cost(a), serve_cost(b));
        assert_eq!((a.flush_size, b.flush_size), (2, 2));
        // That flush had company, so the next lone query waits again.
        let after = serve_cost(server.submit(rel, RankQuery::pt(4)).unwrap());
        assert_eq!(after.trigger, FlushTrigger::Deadline, "{after:?}");
        assert!(after.queue_seconds >= 0.049, "{after:?}");
    }

    #[test]
    fn a_query_behind_a_slow_lone_flush_leaves_when_it_completes() {
        let gated = Gated::new();
        gated.hold();
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_millis(400)));
        let rel = server.register_shared("gated", gated.clone());
        // The fresh relation's lone query waits out its deadline, then
        // holds its walk while a second query queues behind the latch.
        let first = server.submit(rel, RankQuery::pt(1)).unwrap();
        gated.await_walks(1);
        let behind = server.submit(rel, RankQuery::pt(2)).unwrap();
        gated.release();
        assert_eq!(serve_cost(first).trigger, FlushTrigger::Deadline);
        // It leaves as the lone flush completes, not at its own 400 ms
        // deadline.
        let behind = serve_cost(behind);
        assert_eq!(behind.trigger, FlushTrigger::Idle, "{behind:?}");
        assert!(behind.queue_seconds < 0.2, "{behind:?}");
    }

    #[test]
    fn injected_cache_panic_requeues_and_answers() {
        let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_micros(200)));
        server.inject_faults(FaultPlan::new().once("cache", FaultKind::Panic));
        let rel = server.register("db", db());
        // The panic fires before the cache is consulted; the entry is
        // re-queued and the retry answers normally.
        let got = server
            .submit(rel, RankQuery::pt(2))
            .unwrap()
            .recv()
            .unwrap();
        let want = RankQuery::pt(2).run(&db()).unwrap();
        assert_eq!(got.values.as_complex(), want.values.as_complex());
        assert!(server.metrics().panics_caught >= 1);
    }
}
