//! The `serve` scenario: replays a mixed-semantics query trace through the
//! deadline-batched [`RankServer`] and compares end-to-end throughput with
//! dispatching the same trace as individual queries — the serving-workload
//! experiment the paper's amortization argument (one generating-function
//! walk answering every PRF-family query) predicts and PR 4's batch layer
//! enables. Reports per-client-count wall time, speedup, queue-wait
//! distribution and the flush-trigger mix.
//!
//! The serving-layer-v2 sections measure what the flush worker pool and
//! prepared relations add: a **multi-relation** trace served with 1 vs 4
//! workers (one worker serializes every relation's flushes; the pool
//! overlaps them), and the zero-deadline per-query overhead floor.
//!
//! The result-cache section measures what the per-relation answer cache
//! saves on a repeated query (a cached round trip vs a full walk) and
//! what a mutation costs it (the next answer re-evaluates). The earlier
//! sections run with the cache **off**: their traces repeat query shapes,
//! and the quantities they pin — walk sharing, worker overlap, the
//! per-query overhead floor — are evaluation-path properties.

use std::thread;
use std::time::Duration;

use prf_core::query::{Algorithm, FlushTrigger, RankQuery};
use prf_core::weights::TabulatedWeight;
use prf_datasets::syn_med_tree;
use prf_serve::{RankServer, RelationId, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{fmt, header, timed, Scale, SEED};

/// A seeded mixed-semantics trace: the six shared-walk shapes in random
/// order, as a serving workload would interleave them.
fn trace(len: usize, seed: u64) -> Vec<RankQuery> {
    let omega: Vec<f64> = (0..100).map(|i| 1.0 / (1.0 + i as f64)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.gen_range(0..6) {
            0 => RankQuery::pt(100),
            1 => RankQuery::pt(25 * rng.gen_range(1usize..=4)),
            2 => RankQuery::prf(TabulatedWeight::from_real(&omega)),
            3 => RankQuery::prfe(0.95).algorithm(Algorithm::ExactGf),
            4 => RankQuery::prfe(rng.gen_range(0.5..0.99)).algorithm(Algorithm::ExactGf),
            _ => RankQuery::erank(),
        })
        .collect()
}

/// Replays `(relation, query)` pairs from `clients` threads against an
/// already-registered server; returns (wall seconds, queue-wait seconds
/// per query, queries answered per flush trigger).
fn replay_on(
    server: &RankServer,
    trace: &[(RelationId, RankQuery)],
    clients: usize,
) -> (f64, Vec<f64>, [usize; 3]) {
    let (waits, wall) = timed(|| {
        thread::scope(|s| {
            let workers: Vec<_> = (0..clients)
                .map(|c| {
                    s.spawn(move || {
                        let mut waits = Vec::new();
                        for (i, (rel, q)) in trace.iter().enumerate() {
                            if i % clients != c {
                                continue;
                            }
                            let result = server
                                .submit(*rel, q.clone())
                                .expect("server is up")
                                .recv()
                                .expect("query succeeds");
                            let serve = result.report.serve.expect("provenance");
                            waits.push((serve.queue_seconds, serve.trigger));
                        }
                        waits
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread"))
                .collect::<Vec<_>>()
        })
    });

    let mut triggers = [0usize; 3];
    let mut queue_waits = Vec::with_capacity(waits.len());
    for (wait, trigger) in waits {
        queue_waits.push(wait);
        let slot = match trigger {
            FlushTrigger::Deadline => 0,
            FlushTrigger::SizeLimit => 1,
            FlushTrigger::Shutdown => 2,
        };
        triggers[slot] += 1;
    }
    (wall, queue_waits, triggers)
}

fn p95(waits: &mut [f64]) -> f64 {
    waits.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    waits[((waits.len() as f64 * 0.95).ceil() as usize).clamp(1, waits.len()) - 1]
}

/// Runs the scenario.
pub fn run(scale: Scale) {
    header("serve: deadline-batched RankServer vs single dispatch");
    let n = scale.pick(2_000, 10_000);
    let len = scale.pick(24, 48);
    println!("Syn-MED n = {n}, mixed-semantics trace of {len} queries");
    println!("(deadline 2 ms, max batch 32, serial walks)\n");

    let tree = syn_med_tree(n, 3);
    let queries = trace(len, SEED);

    let (_, t_single) = timed(|| {
        for q in &queries {
            q.run(&tree).expect("single query");
        }
    });
    println!(
        "single dispatch      {:>9} s   ({:.1} q/s)",
        fmt(t_single),
        len as f64 / t_single
    );

    for clients in [1usize, 4, 16] {
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::from_millis(2))
                .max_batch(32)
                .cache_entries(0),
        );
        let rel = server.register("syn-med", tree.clone());
        let paired: Vec<_> = queries.iter().map(|q| (rel, q.clone())).collect();
        let (wall, mut waits, triggers) = replay_on(&server, &paired, clients);
        server.shutdown();
        let mean = waits.iter().sum::<f64>() / waits.len() as f64;
        let p95 = p95(&mut waits);
        println!(
            "served, {clients:>2} clients   {:>9} s   ({:.1} q/s, {:.2}x single) \
             queue wait mean {} s / p95 {} s; triggers: deadline {} size {} shutdown {}",
            fmt(wall),
            len as f64 / wall,
            t_single / wall,
            fmt(mean),
            fmt(p95),
            triggers[0],
            triggers[1],
            triggers[2],
        );
    }
    println!(
        "\n(the 16-client row is the acceptance measurement: batched serving \
         must reach >= 1.5x single-dispatch throughput)"
    );

    // -----------------------------------------------------------------
    // Serving layer v2: multi-relation trace, 1 worker vs 4
    // -----------------------------------------------------------------
    header("serve v2: multi-relation trace, flush worker pool");
    // The same aggregate data size as the single-relation acceptance
    // trace (one Syn-MED n), split across three relations a real server
    // would host side by side.
    let sizes = [n / 2, n / 3, n / 6];
    let total = 3 * len;
    println!(
        "three Syn-MED relations (n = {}, {}, {}; {n} tuples total), \
         {total}-query mixed trace, 16 clients",
        sizes[0], sizes[1], sizes[2]
    );
    println!("(deadline 2 ms, max batch 32, prepared relations)\n");
    let trees: Vec<_> = sizes.iter().map(|&m| syn_med_tree(m, 3)).collect();
    let mixed = trace(total, SEED ^ 1);

    let mut single_worker_wall = None;
    for workers in [1usize, 4] {
        let server = RankServer::new(
            ServeConfig::new()
                .max_delay(Duration::from_millis(2))
                .max_batch(32)
                .workers(workers)
                .cache_entries(0),
        );
        let rels: Vec<_> = trees
            .iter()
            .enumerate()
            .map(|(i, t)| server.register(format!("syn-med-{i}"), t.clone()))
            .collect();
        let paired: Vec<_> = mixed
            .iter()
            .enumerate()
            .map(|(i, q)| (rels[i % 3], q.clone()))
            .collect();
        let (wall, mut waits, triggers) = replay_on(&server, &paired, 16);
        let shed = server.metrics().shed;
        server.shutdown();
        let speedup = match single_worker_wall {
            None => {
                single_worker_wall = Some(wall);
                String::new()
            }
            Some(base) => format!(", {:.2}x one worker", base / wall),
        };
        let mean = waits.iter().sum::<f64>() / waits.len() as f64;
        let p95 = p95(&mut waits);
        println!(
            "{workers} worker{}   {:>9} s   ({:.1} q/s{speedup}) queue wait mean {} s / p95 {} s; \
             triggers: deadline {} size {} shutdown {}; shed {shed}",
            if workers == 1 { " " } else { "s" },
            fmt(wall),
            total as f64 / wall,
            fmt(mean),
            fmt(p95),
            triggers[0],
            triggers[1],
            triggers[2],
        );
    }
    println!(
        "\n(acceptance: the 4-worker row must reach >= 2x the single-flusher \
         16-client acceptance throughput recorded for the serving layer v1 \
         — same aggregate data size, now split across three relations)"
    );

    // -----------------------------------------------------------------
    // Serving layer v2: zero-deadline overhead floor
    // -----------------------------------------------------------------
    header("serve v2: zero-deadline per-query overhead");
    let small = syn_med_tree(scale.pick(500, 2_000), 3);
    let q = RankQuery::prfe(0.9).algorithm(Algorithm::ExactGf);
    let reps = scale.pick(50, 200);
    let (_, t_direct) = timed(|| {
        for _ in 0..reps {
            q.run(&small).expect("direct");
        }
    });
    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::ZERO)
            .cache_entries(0),
    );
    let rel = server.register("small", small.clone());
    let (_, t_served) = timed(|| {
        for _ in 0..reps {
            server
                .submit(rel, q.clone())
                .expect("server is up")
                .recv()
                .expect("query succeeds");
        }
    });
    server.shutdown();
    let overhead_us = (t_served - t_direct) / reps as f64 * 1e6;
    println!(
        "direct {} s, served {} s over {reps} queries: overhead {:.1} us/query",
        fmt(t_direct / reps as f64),
        fmt(t_served / reps as f64),
        overhead_us
    );
    println!("(acceptance: below the PR 5 floor of ~21 us/query)");

    // -----------------------------------------------------------------
    // Result cache: repeated queries, and what a mutation costs
    // -----------------------------------------------------------------
    header("serve: result cache on repeated queries");
    println!("repeated PRF^e(0.9, exact GF) on Syn-MED n = {n}, zero deadline\n");
    let q = RankQuery::prfe(0.9).algorithm(Algorithm::ExactGf);
    let reps = scale.pick(20, 50);

    let server = RankServer::new(
        ServeConfig::new()
            .max_delay(Duration::ZERO)
            .cache_entries(0),
    );
    let rel = server.register("syn-med", tree.clone());
    let (_, t_eval) = timed(|| {
        for _ in 0..reps {
            server
                .submit(rel, q.clone())
                .expect("server is up")
                .recv()
                .expect("query succeeds");
        }
    });
    server.shutdown();

    let server = RankServer::new(ServeConfig::new().max_delay(Duration::ZERO));
    let rel = server.register("syn-med", tree.clone());
    server
        .submit(rel, q.clone())
        .expect("server is up")
        .recv()
        .expect("warm-up succeeds");
    let (_, t_hit) = timed(|| {
        for _ in 0..reps {
            let r = server
                .submit(rel, q.clone())
                .expect("server is up")
                .recv()
                .expect("query succeeds");
            assert!(r.report.serve.expect("provenance").served_from_cache);
        }
    });
    let hits = server.metrics().cache_hits;
    server.shutdown();
    println!(
        "evaluated (cache off) {} s/query; cached repeat {} s/query: {:.0}x faster \
         ({hits} hits counted)",
        fmt(t_eval / reps as f64),
        fmt(t_hit / reps as f64),
        t_eval / t_hit,
    );
    println!("(acceptance: the cached repeat must be >= 10x faster)\n");

    // What a mutation costs the cache: each write invalidates, the next
    // query pays a full walk, the one after that hits again.
    let live = std::sync::Arc::new(prf_serve::LiveRelation::new(
        prf_pdb::IndependentDb::from_pairs((0..n).map(|i| {
            (
                1000.0 + i as f64,
                0.05 + 0.9 * ((i * 7919) % 997) as f64 / 997.0,
            )
        }))
        .expect("valid pairs"),
    ));
    let server = RankServer::new(ServeConfig::new().max_delay(Duration::ZERO));
    let rel = server.register_live("live", std::sync::Arc::clone(&live));
    server
        .submit(rel, q.clone())
        .expect("server is up")
        .recv()
        .expect("warm-up succeeds");
    let rounds = scale.pick(5, 10);
    let (_, t_churn) = timed(|| {
        for i in 0..rounds {
            server
                .apply(
                    rel,
                    prf_serve::Mutation::Reweight(prf_serve::TupleId((i % n) as u32), 0.5),
                )
                .expect("server is up")
                .recv()
                .expect("mutation applies");
            let first = server
                .submit(rel, q.clone())
                .expect("server is up")
                .recv()
                .expect("query succeeds");
            assert!(!first.report.serve.expect("provenance").served_from_cache);
            let repeat = server
                .submit(rel, q.clone())
                .expect("server is up")
                .recv()
                .expect("query succeeds");
            assert!(repeat.report.serve.expect("provenance").served_from_cache);
        }
    });
    let m = server.metrics();
    server.shutdown();
    println!(
        "mutate-query-repeat x{rounds} on a live relation (n = {n}): {} s/round; \
         invalidations {}, hits {}, misses {}",
        fmt(t_churn / rounds as f64),
        m.cache_invalidations,
        m.cache_hits,
        m.cache_misses,
    );
    println!("(every mutation invalidates; the first post-mutation query re-evaluates)");
}
