//! Concurrency failure-mode tests for the serving layer, plus a
//! schedule-shaking proptest: the `RankServer` has no loom-style model
//! checker available (std-only workspace), so interleaving coverage comes
//! from **repeated seeded schedules** — randomized client counts, submit
//! bursts, deadlines, batch sizes and shutdown points, each derived from a
//! `rand`-shim seed so failures replay deterministically.
//!
//! The invariants under test:
//! * shutdown with in-flight queries **drains** — no hang, every handle
//!   resolves (to a result, or `Shutdown` if the server died abnormally);
//! * a zero deadline flushes immediately;
//! * a dropped [`ResponseHandle`] never wedges the flusher;
//! * submissions after shutdown error cleanly;
//! * no response is ever lost, duplicated, or routed to the wrong query;
//! * mutations racing the shutdown are either rejected cleanly or applied
//!   and acknowledged — never accepted-then-lost.

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use prf::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn small_db(n: usize) -> IndependentDb {
    IndependentDb::from_pairs(
        (0..n).map(|i| (100.0 - i as f64, 0.2 + 0.6 * ((i % 5) as f64 / 5.0))),
    )
    .expect("valid pairs")
}

// ---------------------------------------------------------------------
// Directed failure modes
// ---------------------------------------------------------------------

#[test]
fn shutdown_with_in_flight_queries_drains_without_hanging() {
    // An hour-long deadline and a huge batch size: nothing can flush these
    // five queries except the shutdown drain.
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::from_secs(3600))
            .max_batch(1000),
    );
    let rel = server.register("db", small_db(6));
    let handles: Vec<_> = (1..=5)
        .map(|h| server.submit(rel, RankQuery::pt(h)).unwrap())
        .collect();
    assert_eq!(server.pending(), 5);
    server.shutdown();
    for (i, handle) in handles.into_iter().enumerate() {
        let result = handle.recv().expect("drained queries are evaluated");
        let serve = result.report.serve.expect("provenance");
        assert_eq!(serve.trigger, FlushTrigger::Shutdown, "query {i}");
        assert_eq!(serve.flush_size, 5);
        // The drained flush still shares one walk.
        assert_eq!(result.report.batch.unwrap().consumers, 5);
    }
}

#[test]
fn shutdown_races_with_submitting_clients() {
    // Clients hammer the server while another thread shuts it down:
    // every accepted submission must resolve, every rejected one must be
    // the clean `Shutdown` error.
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::from_micros(100))
            .max_batch(4),
    );
    let rel = server.register("db", small_db(8));
    let outcomes: Vec<Result<Result<RankedResult, QueryError>, QueryError>> = thread::scope(|s| {
        let mut workers = Vec::new();
        for c in 0..4usize {
            let server = &server;
            workers.push(s.spawn(move || {
                let mut out = Vec::new();
                for i in 0..25usize {
                    match server.submit(rel, RankQuery::pt(1 + (c + i) % 8)) {
                        Ok(handle) => out.push(Ok(handle.recv())),
                        Err(e) => out.push(Err(e)),
                    }
                }
                out
            }));
        }
        let stopper = s.spawn(|| {
            thread::yield_now();
            server.shutdown();
        });
        stopper.join().expect("stopper");
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client"))
            .collect()
    });
    assert_eq!(outcomes.len(), 100);
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            // Accepted: must have been answered (drain evaluates).
            Ok(Ok(result)) => assert!(result.report.serve.is_some(), "submission {i}"),
            Ok(Err(e)) => panic!("accepted submission {i} failed: {e}"),
            // Rejected: only the clean shutdown error is acceptable.
            Err(e) => assert_eq!(*e, QueryError::Shutdown, "submission {i}"),
        }
    }
}

#[test]
fn zero_deadline_flushes_immediately() {
    let server = RankServer::new(ServeConfig::new().max_delay(Duration::ZERO).max_batch(1000));
    let rel = server.register("db", small_db(6));
    for _ in 0..5 {
        let mut handle = server.submit(rel, RankQuery::prfe(0.9)).unwrap();
        let result = handle
            .recv_timeout(Duration::from_secs(10))
            .expect("zero deadline must flush without waiting for more load")
            .expect("query succeeds");
        assert_eq!(result.report.serve.unwrap().trigger, FlushTrigger::Deadline);
    }
}

#[test]
fn dropped_response_handle_does_not_wedge_the_flusher() {
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::from_secs(3600))
            .max_batch(3),
    );
    let rel = server.register("db", small_db(6));
    let keep_a = server.submit(rel, RankQuery::pt(2)).unwrap();
    let dropped = server.submit(rel, RankQuery::pt(3)).unwrap();
    drop(dropped); // client went away before the flush
    let keep_b = server.submit(rel, RankQuery::pt(4)).unwrap();
    // The size-3 flush fires and delivers the two live handles.
    assert!(keep_a.recv().is_ok());
    assert!(keep_b.recv().is_ok());
    // The flusher survived the dead channel: the server keeps serving.
    let again = server.submit(rel, RankQuery::erank()).unwrap();
    server.shutdown();
    assert!(again.recv().is_ok());
}

#[test]
fn submissions_after_shutdown_error_cleanly() {
    let server = RankServer::new(ServeConfig::new());
    let rel = server.register("db", small_db(4));
    server.shutdown();
    assert!(matches!(
        server.submit(rel, RankQuery::pt(1)),
        Err(QueryError::Shutdown)
    ));
    // Shutdown is idempotent, and late registrations don't panic either.
    server.shutdown();
    let late = server.register("late", small_db(3));
    assert!(matches!(
        server.submit(late, RankQuery::pt(1)),
        Err(QueryError::Shutdown)
    ));
}

#[test]
fn polling_before_the_flush_then_blocking_still_resolves() {
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::from_secs(3600))
            .max_batch(1000),
    );
    let rel = server.register("db", small_db(6));
    let mut handle = server.submit(rel, RankQuery::escore()).unwrap();
    // Nothing can have flushed yet (hour-long deadline, batch of 1000).
    assert!(handle.try_recv().is_none());
    assert!(handle.recv_timeout(Duration::from_millis(5)).is_none());
    server.shutdown(); // drain answers it
    assert!(handle.recv().is_ok());
}

// ---------------------------------------------------------------------
// Schedule-shaking proptest: seeded random interleavings
// ---------------------------------------------------------------------

/// Every resolved submission of a schedule: the semantics name and
/// relation size the answer must match, plus the answer itself.
type ResolvedSchedule = Vec<(String, usize, Result<RankedResult, QueryError>)>;

/// One seeded schedule: random server config, client count, per-client
/// submission bursts against two relations of different sizes (the first
/// one **live**, with a mutator thread reweighting it mid-schedule), and a
/// shutdown point that may race everything. Returns the resolved
/// submissions plus the count of clean `Shutdown` rejections; accepted
/// mutations are asserted inside (they must all acknowledge).
fn run_schedule(seed: u64) -> (ResolvedSchedule, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let deadline = match rng.gen_range(0..4) {
        0 => Duration::ZERO,
        1 => Duration::from_micros(50),
        2 => Duration::from_millis(1),
        _ => Duration::from_secs(3600), // only size limit / shutdown flush
    };
    let mut config = ServeConfig::new()
        .max_delay(deadline)
        .max_batch(rng.gen_range(1..7));
    if rng.gen_bool(0.25) {
        config = config.parallel(2);
    }
    let clients = rng.gen_range(1..5usize);
    let per_client: Vec<usize> = (0..clients).map(|_| rng.gen_range(0..9)).collect();
    let shutdown_mid = rng.gen_bool(0.5);
    let sizes = [7usize, 4usize];

    let server = RankServer::new(config);
    let live = Arc::new(LiveRelation::new(small_db(sizes[0])));
    let rels = [
        server.register_live("a", Arc::clone(&live)),
        server.register("b", small_db(sizes[1])),
    ];
    // Pre-draw each client's schedule so the worker threads stay free of
    // the (non-Sync) generator: (relation index, PT horizon, yield?).
    let schedules: Vec<Vec<(usize, usize, bool)>> = per_client
        .iter()
        .map(|&count| {
            (0..count)
                .map(|_| {
                    let r = rng.gen_range(0..2usize);
                    (r, rng.gen_range(1..=sizes[r]), rng.gen_bool(0.3))
                })
                .collect()
        })
        .collect();
    // A mutator schedule against the live relation: reweights only, so the
    // tuple count the queries are checked against never changes.
    let mutations: Vec<(usize, f64, bool)> = (0..rng.gen_range(0..7usize))
        .map(|_| {
            (
                rng.gen_range(0..sizes[0]),
                rng.gen_range(0.1..0.9),
                rng.gen_bool(0.3),
            )
        })
        .collect();

    let (answers, rejected, acks) = thread::scope(|s| {
        let mut workers = Vec::new();
        for schedule in &schedules {
            let server = &server;
            let rels = &rels;
            workers.push(s.spawn(move || {
                let mut accepted = Vec::new();
                for &(r, h, pause) in schedule {
                    if pause {
                        thread::yield_now();
                    }
                    match server.submit(rels[r], RankQuery::pt(h)) {
                        Ok(handle) => accepted.push((format!("PT({h})"), r, handle)),
                        Err(e) => assert_eq!(e, QueryError::Shutdown, "only clean rejections"),
                    }
                }
                accepted
            }));
        }
        let mutator = {
            let server = &server;
            let mutations = &mutations;
            s.spawn(move || {
                let mut acks = Vec::new();
                for &(t, p, pause) in mutations {
                    if pause {
                        thread::yield_now();
                    }
                    match server.apply(rels[0], Mutation::Reweight(TupleId(t as u32), p)) {
                        Ok(handle) => acks.push(handle),
                        Err(e) => assert_eq!(e, QueryError::Shutdown, "only clean rejections"),
                    }
                }
                acks
            })
        };
        if shutdown_mid {
            let server = &server;
            s.spawn(move || {
                thread::yield_now();
                server.shutdown();
            });
        }
        let acks = mutator.join().expect("mutator thread");
        let mut answers = Vec::new();
        for w in workers {
            for (name, r, handle) in w.join().expect("client thread") {
                answers.push((name, sizes[r], handle));
            }
        }
        // Workers return only accepted handles; the difference is the
        // count of clean `Shutdown` rejections.
        let total: usize = per_client.iter().sum();
        let rejected = total - answers.len();
        (answers, rejected, acks)
    });
    server.shutdown(); // idempotent; guarantees the drain before recv

    // Accepted mutations must acknowledge even when shutdown raced the
    // schedule: the drain applies pending mutations, never drops them.
    for ack in acks {
        ack.recv()
            .expect("accepted reweights apply (valid tuple, valid probability)");
    }

    let resolved = answers
        .into_iter()
        .map(|(name, n, handle)| (name, n, handle.recv()))
        .collect();
    (resolved, rejected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every accepted submission resolves **exactly once**, to the answer
    /// of *its own* query (checked through the semantics echoed in the
    /// report and the relation's tuple count), and rejections only happen
    /// once shutdown began.
    #[test]
    fn random_interleavings_never_lose_or_misroute_responses(seed in 0u64..100_000) {
        let (resolved, _rejected) = run_schedule(seed);
        for (i, (name, n, answer)) in resolved.iter().enumerate() {
            match answer {
                Ok(result) => {
                    prop_assert_eq!(&result.report.semantics, name, "query {}", i);
                    prop_assert_eq!(result.values.len(), *n, "query {} relation", i);
                    prop_assert!(result.report.serve.is_some(), "query {} provenance", i);
                }
                // Accepted-then-unanswered is only legal if the flusher
                // died; the orderly drain always evaluates. Treat any
                // error as a lost response.
                Err(e) => prop_assert!(false, "query {} lost: {}", i, e),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Paced schedules: lone, coalesced and shutdown flushes interleaved
// ---------------------------------------------------------------------

/// One step of a paced client: sleep past the deadline, submit one query
/// and await it, or submit a burst and then await every answer.
#[derive(Clone, Copy, Debug)]
enum Step {
    Pause(Duration),
    Single(usize, usize),
    Burst(usize, usize, usize),
}

/// What a paced schedule observed: per accepted query its relation index,
/// PT horizon and answer, and the server's count of answered queries
/// after the drain.
struct PacedRun {
    answers: Vec<(usize, usize, Result<RankedResult, QueryError>)>,
    flushed_queries: u64,
}

/// One seeded paced schedule: 1–3 closed-loop clients over two relations,
/// each alternating pauses longer than `max_delay` (so a lone flush can
/// leave at once next time) with single queries and bursts (which
/// coalesce behind the FIFO latch or on a deadline), a shutdown that may
/// race them, and a bulk query on an hour-long cadence that only the
/// shutdown drain can flush.
fn run_paced_schedule(seed: u64) -> PacedRun {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1D1E);
    let max_delay = Duration::from_millis(rng.gen_range(1..3));
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(max_delay)
            .bulk_delay(Duration::from_secs(3600))
            .max_batch(rng.gen_range(2..7))
            .workers(rng.gen_range(1..3)),
    );
    let sizes = [7usize, 4usize];
    let rels = [
        server.register("a", small_db(sizes[0])),
        server.register("b", small_db(sizes[1])),
    ];
    let schedules: Vec<Vec<Step>> = (0..rng.gen_range(1..4usize))
        .map(|_| {
            (0..rng.gen_range(2..7))
                .map(|_| {
                    let r = rng.gen_range(0..2usize);
                    let h = rng.gen_range(1..=sizes[r]);
                    match rng.gen_range(0..3) {
                        0 => Step::Pause(max_delay * rng.gen_range(2..5)),
                        1 => Step::Single(r, h),
                        _ => Step::Burst(r, h, rng.gen_range(2..5)),
                    }
                })
                .collect()
        })
        .collect();
    let shutdown_after = rng
        .gen_bool(0.5)
        .then(|| Duration::from_millis(rng.gen_range(0..12)));

    let mut answers = thread::scope(|s| {
        let clients: Vec<_> = schedules
            .iter()
            .map(|schedule| {
                let server = &server;
                let rels = &rels;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for &step in schedule {
                        let (r, h, count) = match step {
                            Step::Pause(d) => {
                                thread::sleep(d);
                                continue;
                            }
                            Step::Single(r, h) => (r, h, 1),
                            Step::Burst(r, h, k) => (r, h, k),
                        };
                        let handles: Vec<_> = (0..count)
                            .filter_map(|i| {
                                match server.submit(rels[r], RankQuery::pt(1 + (h + i) % sizes[r]))
                                {
                                    Ok(handle) => Some((1 + (h + i) % sizes[r], handle)),
                                    Err(e) => {
                                        assert_eq!(
                                            e,
                                            QueryError::Shutdown,
                                            "only clean rejections"
                                        );
                                        None
                                    }
                                }
                            })
                            .collect();
                        for (h, handle) in handles {
                            out.push((r, h, handle.recv()));
                        }
                    }
                    out
                })
            })
            .collect();
        if let Some(after) = shutdown_after {
            let server = &server;
            s.spawn(move || {
                thread::sleep(after);
                server.shutdown();
            });
        }
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    // The bulk query waits on its hour-long cadence: only the drain below
    // flushes it (unless the racing shutdown already rejected it).
    let bulk = server.submit_with(rels[0], RankQuery::pt(2), SubmitOptions::bulk());
    server.shutdown();
    match bulk {
        Ok(handle) => answers.push((0, 2, handle.recv())),
        Err(e) => assert_eq!(e, QueryError::Shutdown, "only clean rejections"),
    }
    PacedRun {
        answers,
        flushed_queries: server.metrics().flushed_queries,
    }
}

/// Every answer of a paced run is its own query's direct answer at 1e-9,
/// and the server answered each accepted query exactly once.
fn check_paced_run(run: &PacedRun) -> Result<(), TestCaseError> {
    let sizes = [7usize, 4usize];
    prop_assert_eq!(
        run.flushed_queries,
        run.answers.len() as u64,
        "answered once each"
    );
    for (i, (r, h, answer)) in run.answers.iter().enumerate() {
        let got = match answer {
            Ok(got) => got,
            Err(e) => return Err(TestCaseError::fail(format!("query {i} lost: {e}"))),
        };
        let want = RankQuery::pt(*h).run(&small_db(sizes[*r])).expect("direct");
        prop_assert!(got.report.serve.is_some(), "query {} provenance", i);
        prop_assert_eq!(
            got.ranking.order(),
            want.ranking.order(),
            "query {} order",
            i
        );
        let (g, w) = (got.values.as_complex(), want.values.as_complex());
        let (Some(g), Some(w)) = (g, w) else {
            return Err(TestCaseError::fail(format!(
                "query {i}: PT values are complex"
            )));
        };
        prop_assert_eq!(g.len(), w.len(), "query {} relation", i);
        for (a, b) in g.iter().zip(w) {
            prop_assert!((*a - *b).abs() <= 1e-9, "query {}: {} vs {}", i, a, b);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Paced schedules keep the exactly-once and answer-equality
    /// guarantees while lone flushes go out at once (`Idle`), bursts
    /// coalesce, and the shutdown drain takes what is left.
    #[test]
    fn paced_schedules_answer_each_query_once_and_correctly(seed in 0u64..100_000) {
        check_paced_run(&run_paced_schedule(seed))?;
    }
}

/// The paced schedules do exercise all three kinds of flush: over a fixed
/// set of seeds some answer left in an `Idle` flush, some in a flush of
/// two or more, and some in the shutdown drain.
#[test]
fn paced_schedules_interleave_idle_coalesced_and_shutdown_flushes() {
    let (mut idle, mut coalesced, mut drained) = (0, 0, 0);
    for seed in 0..12 {
        let run = run_paced_schedule(seed);
        check_paced_run(&run).expect("paced run is correct");
        for (_, _, answer) in &run.answers {
            let serve = answer
                .as_ref()
                .expect("answered")
                .report
                .serve
                .expect("provenance");
            idle += usize::from(serve.trigger == FlushTrigger::Idle);
            coalesced += usize::from(serve.flush_size >= 2);
            drained += usize::from(serve.trigger == FlushTrigger::Shutdown);
        }
    }
    assert!(
        idle > 0 && coalesced > 0 && drained > 0,
        "idle {idle}, coalesced {coalesced}, drained {drained}"
    );
}

#[test]
fn query_ids_stay_unique_across_concurrent_submitters() {
    let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_micros(100)));
    let rel = server.register("db", small_db(5));
    let ids: Vec<u64> = thread::scope(|s| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let server = &server;
                s.spawn(move || {
                    (0..20)
                        .map(|_| {
                            server
                                .submit(rel, RankQuery::escore())
                                .expect("server is up")
                                .id()
                                .as_u64()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client"))
            .collect()
    });
    let unique: HashSet<u64> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "query ids must never repeat");
}
