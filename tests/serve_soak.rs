//! Worker-pool soak tests for the serving layer: multi-relation isolation
//! and admission control under load.
//!
//! The pinned guarantees:
//! * a deliberately **slow relation** (its evaluation sleeps) must not
//!   delay another relation's flush past its deadline plus scheduling
//!   noise — that is exactly what the flush worker pool buys over PR 5's
//!   single flusher thread, and the single-worker control shows the
//!   inverse: with one worker the fast relation *is* stuck behind the
//!   sleeper;
//! * with a bounded per-relation queue, `try_submit` **sheds** with
//!   [`QueryError::Overloaded`] once the bound fills, the shed count is
//!   observable through [`ServeMetrics`], and every *accepted* query still
//!   resolves exactly once;
//! * a mixed multi-relation trace under many clients conserves queries:
//!   `accepted + shed == attempts`, every accepted handle resolves, and
//!   the per-server flush counters agree.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use prf::core::query::batch::{SharedWalkOut, SharedWalkSpec};
use prf::core::query::{CorrelationClass, TopkCarry};
use prf::prelude::*;

fn small_db(n: usize) -> IndependentDb {
    IndependentDb::from_pairs(
        (0..n).map(|i| (100.0 - i as f64, 0.2 + 0.6 * ((i % 5) as f64 / 5.0))),
    )
    .expect("valid pairs")
}

/// A relation whose evaluation sleeps: delegates every view to an inner
/// [`IndependentDb`] but stalls the PRF kernels, so any flush against it
/// occupies its worker for `delay`. `evaluations` counts kernel entries,
/// letting tests confirm the sleeper actually ran.
struct SlowRelation {
    inner: IndependentDb,
    delay: Duration,
    evaluations: AtomicUsize,
}

impl SlowRelation {
    fn new(n: usize, delay: Duration) -> Self {
        Self {
            inner: small_db(n),
            delay,
            evaluations: AtomicUsize::new(0),
        }
    }

    fn stall(&self) {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        thread::sleep(self.delay);
    }
}

impl ProbabilisticRelation for SlowRelation {
    fn n_tuples(&self) -> usize {
        self.inner.n_tuples()
    }
    fn tuple_scores(&self) -> Vec<f64> {
        self.inner.tuple_scores()
    }
    fn tuple_marginals(&self) -> Vec<f64> {
        self.inner.tuple_marginals()
    }
    fn correlation_class(&self) -> CorrelationClass {
        CorrelationClass::Independent
    }
    fn run_shared_walk(
        &self,
        spec: &SharedWalkSpec,
        _carry: &mut TopkCarry,
        prep: &PreparedState,
    ) -> Option<SharedWalkOut> {
        self.stall();
        self.inner.run_shared_walk_prepared(spec, prep)
    }
}

// ---------------------------------------------------------------------
// Worker-pool isolation
// ---------------------------------------------------------------------

/// With two workers, a flush of the sleeping relation occupies one worker
/// while the other keeps serving the fast relation within its deadline.
#[test]
fn slow_relation_does_not_starve_a_fast_relation() {
    let slow = Arc::new(SlowRelation::new(6, Duration::from_secs(2)));
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::from_millis(5))
            .max_batch(64)
            .workers(2),
    );
    let slow_rel = server.register_shared("slow", slow.clone());
    let fast_rel = server.register("fast", small_db(8));

    let slow_handle = server.submit(slow_rel, RankQuery::prfe(0.9)).unwrap();
    // Give the 5 ms deadline time to fire and a worker time to enter the
    // sleeping kernel.
    while slow.evaluations.load(Ordering::Relaxed) == 0 {
        thread::sleep(Duration::from_millis(1));
    }

    // The fast relation's flush must ride the second worker: it resolves
    // in far less than the 2 s the sleeper holds its worker for.
    let started = Instant::now();
    let mut fast_handle = server.submit(fast_rel, RankQuery::pt(3)).unwrap();
    let fast = fast_handle
        .recv_timeout(Duration::from_millis(800))
        .expect("fast relation must flush while the sleeper holds one worker")
        .expect("fast query succeeds");
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "fast flush waited on the sleeper"
    );
    let cost = fast.report.serve.expect("provenance");
    assert!(
        cost.queue_seconds < 1.0,
        "fast query queued {:.3}s behind the slow relation",
        cost.queue_seconds
    );

    // The sleeper still completes.
    let slow_res = slow_handle.recv().expect("slow query completes");
    assert_eq!(slow_res.values.len(), 6);
    server.shutdown();
}

/// The single-worker control: with one worker the sleeper's flush blocks
/// the fast relation — the pool, not luck, is what isolates relations.
#[test]
fn one_worker_serializes_relations_the_pool_isolates() {
    let slow = Arc::new(SlowRelation::new(6, Duration::from_secs(2)));
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::from_millis(5))
            .max_batch(64)
            .workers(1),
    );
    let slow_rel = server.register_shared("slow", slow.clone());
    let fast_rel = server.register("fast", small_db(8));

    let slow_handle = server.submit(slow_rel, RankQuery::prfe(0.9)).unwrap();
    while slow.evaluations.load(Ordering::Relaxed) == 0 {
        thread::sleep(Duration::from_millis(1));
    }

    let mut fast_handle = server.submit(fast_rel, RankQuery::pt(3)).unwrap();
    // The only worker sleeps for ~2 s: the fast flush cannot have run yet.
    assert!(
        fast_handle
            .recv_timeout(Duration::from_millis(300))
            .is_none(),
        "a single worker should still be inside the sleeping flush"
    );
    // Once the sleeper finishes, the fast query drains normally.
    let fast = fast_handle.recv().expect("fast query eventually runs");
    assert!(fast.report.serve.unwrap().queue_seconds > 0.2);
    assert!(slow_handle.recv().is_ok());
    server.shutdown();
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

/// Fill a bounded queue behind a sleeping flush: `try_submit` sheds with
/// `Overloaded`, the shed count surfaces in the metrics, and every
/// accepted query resolves.
#[test]
fn bounded_queue_sheds_with_overloaded_and_accepted_queries_resolve() {
    let slow = Arc::new(SlowRelation::new(5, Duration::from_millis(600)));
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::ZERO) // first submit flushes immediately
            .max_batch(1000)
            .workers(1)
            .max_pending(3),
    );
    let rel = server.register_shared("slow", slow.clone());

    // Occupies the worker for ~600 ms.
    let first = server.try_submit(rel, RankQuery::prfe(0.9)).unwrap();
    while slow.evaluations.load(Ordering::Relaxed) == 0 {
        thread::sleep(Duration::from_millis(1));
    }

    // The worker is asleep: these three fill the bounded queue…
    let queued: Vec<_> = (1..=3)
        .map(|h| server.try_submit(rel, RankQuery::pt(h)).unwrap())
        .collect();
    // …and the fourth must shed.
    let shed = server.try_submit(rel, RankQuery::pt(4));
    assert!(matches!(shed, Err(QueryError::Overloaded)), "{shed:?}");
    assert_eq!(server.metrics().shed, 1);

    // Every accepted query still resolves (exactly once: recv consumes).
    assert!(first.recv().is_ok());
    server.shutdown();
    for handle in queued {
        let res = handle.recv().expect("queued queries drain");
        // The flush that carries them reports the sheds observed so far.
        assert_eq!(res.report.serve.unwrap().shed, 1);
    }
    assert_eq!(server.metrics().shed, 1);
}

/// Blocking `submit` never sheds: it waits for space instead, so under
/// the same overload every submission is eventually accepted and served.
#[test]
fn blocking_submit_backpressures_instead_of_shedding() {
    let slow = Arc::new(SlowRelation::new(5, Duration::from_millis(200)));
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::ZERO)
            .max_batch(1000)
            .workers(1)
            .max_pending(2),
    );
    let rel = server.register_shared("slow", slow);

    let handles: Vec<_> = thread::scope(|s| {
        (0..4)
            .map(|c| {
                let server = &server;
                s.spawn(move || {
                    (0..3)
                        .map(|i| server.submit(rel, RankQuery::pt(1 + (c + i) % 5)).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|w| w.join().expect("client"))
            .collect()
    });
    assert_eq!(server.metrics().shed, 0, "submit must never shed");
    server.shutdown();
    for handle in handles {
        assert!(handle.recv().is_ok(), "backpressured queries all resolve");
    }
}

// ---------------------------------------------------------------------
// Mixed multi-relation soak
// ---------------------------------------------------------------------

/// Many clients hammer three relations (one slow) through a bounded
/// queue, mixing `submit` and `try_submit`. Conservation must hold:
/// every attempt is accepted or shed, every accepted handle resolves to
/// its own relation's answer, and the server's flush counters agree.
#[test]
fn mixed_trace_conserves_queries_under_overload() {
    let slow = Arc::new(SlowRelation::new(4, Duration::from_millis(30)));
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::from_millis(1))
            .max_batch(8)
            .workers(3)
            .max_pending(4),
    );
    let rels = [
        server.register("a", small_db(7)),
        server.register("b", small_db(5)),
        server.register_shared("slow", slow),
    ];
    let sizes = [7usize, 5, 4];

    let (resolved, shed) = thread::scope(|s| {
        let workers: Vec<_> = (0..8)
            .map(|c: usize| {
                let server = &server;
                let rels = &rels;
                s.spawn(move || {
                    let mut accepted = Vec::new();
                    let mut shed = 0usize;
                    for i in 0..30usize {
                        let r = (c + i) % 3;
                        let q = RankQuery::pt(1 + i % sizes[r]);
                        if i % 2 == 0 {
                            accepted.push((r, server.submit(rels[r], q).unwrap()));
                        } else {
                            match server.try_submit(rels[r], q) {
                                Ok(h) => accepted.push((r, h)),
                                Err(QueryError::Overloaded) => shed += 1,
                                Err(e) => panic!("unexpected rejection: {e}"),
                            }
                        }
                    }
                    (accepted, shed)
                })
            })
            .collect();
        let mut resolved = Vec::new();
        let mut shed_total = 0usize;
        for w in workers {
            let (accepted, shed) = w.join().expect("client");
            shed_total += shed;
            resolved.extend(accepted);
        }
        (resolved, shed_total)
    });

    assert_eq!(resolved.len() + shed, 8 * 30, "every attempt accounted for");
    assert_eq!(server.metrics().shed as usize, shed);
    server.shutdown();
    let accepted = resolved.len();
    for (r, handle) in resolved {
        let res = handle.recv().expect("accepted queries resolve");
        assert_eq!(
            res.values.len(),
            sizes[r],
            "answer routed to wrong relation"
        );
    }
    let metrics = server.metrics();
    assert_eq!(metrics.flushed_queries as usize, accepted);
    assert_eq!(metrics.pending, 0);
    assert_eq!(metrics.in_flight, 0);
}

// ---------------------------------------------------------------------
// Injected-fault soak (chaos builds only)
// ---------------------------------------------------------------------

/// Soak the pool with a burst of panics, a mutation-path panic, and two
/// worker kills while many clients submit: **zero wedged handles** — every
/// accepted submission resolves within the timeout, to a sanctioned
/// outcome, and the pool is healthy enough afterwards to serve cleanly.
#[cfg(feature = "chaos")]
#[test]
fn injected_fault_soak_leaves_no_wedged_handles() {
    use prf::serve::{FaultKind, FaultPlan};

    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::from_micros(100))
            .max_batch(8)
            .workers(2)
            .stuck_after(Duration::from_millis(200)),
    );
    server.inject_faults(
        FaultPlan::new()
            .times("eval", FaultKind::Panic, 5)
            .times("deliver", FaultKind::Panic, 3)
            .times("apply", FaultKind::Panic, 2)
            .times("worker", FaultKind::KillWorker, 2)
            .times(
                "flush-take",
                FaultKind::Delay(Duration::from_micros(200)),
                4,
            ),
    );
    let live = Arc::new(LiveRelation::new(small_db(6)));
    let rels = [
        server.register("a", small_db(7)),
        server.register_live("live", Arc::clone(&live)),
    ];

    let (handles, acks) = thread::scope(|s| {
        let workers: Vec<_> = (0..6)
            .map(|c: usize| {
                let server = &server;
                let rels = &rels;
                s.spawn(move || {
                    let mut handles = Vec::new();
                    let mut acks = Vec::new();
                    for i in 0..40usize {
                        if (c + i) % 10 == 0 {
                            let m = Mutation::Reweight(TupleId((i % 6) as u32), 0.5);
                            acks.push(server.apply(rels[1], m).expect("accepted"));
                        } else {
                            let q = RankQuery::pt(1 + i % 6);
                            handles.push(server.submit(rels[(c + i) % 2], q).expect("accepted"));
                        }
                    }
                    (handles, acks)
                })
            })
            .collect();
        let mut handles = Vec::new();
        let mut acks = Vec::new();
        for w in workers {
            let (h, a) = w.join().expect("client");
            handles.extend(h);
            acks.extend(a);
        }
        (handles, acks)
    });

    let mut wedged = 0usize;
    for mut handle in handles {
        match handle.recv_timeout(Duration::from_secs(30)) {
            Some(Ok(_)) | Some(Err(QueryError::Internal { .. })) => {}
            Some(Err(e)) => panic!("soak handle resolved uncleanly: {e}"),
            None => wedged += 1,
        }
    }
    for mut ack in acks {
        match ack.recv_timeout(Duration::from_secs(30)) {
            Some(Ok(_)) | Some(Err(QueryError::Internal { .. })) => {}
            Some(Err(e)) => panic!("soak mutation resolved uncleanly: {e}"),
            None => wedged += 1,
        }
    }
    assert_eq!(wedged, 0, "every handle must resolve under injected faults");

    // The pool recovered: once the (finite) plan exhausts, a clean query
    // round-trips. Early retries may still absorb leftover armed faults.
    let recovered = (0..20).any(|_| {
        let after = server.submit(rels[0], RankQuery::pt(2)).expect("accepted");
        after.recv().is_ok()
    });
    assert!(
        recovered,
        "pool serves cleanly once the fault plan is exhausted"
    );
    assert!(server.metrics().panics_caught >= 1);
    server.shutdown();
}
