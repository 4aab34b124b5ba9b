//! Differential suite for live relations: after every mutation,
//! **mutate-then-query** (running queries against the patched
//! [`LiveRelation`]) must agree with **rebuild-then-query** (cloning the
//! mutated backend and evaluating from scratch) to 1e-9 — across both
//! mutable backends (`IndependentDb`, `AndXorTree`), every shared-walk
//! semantics, and all three numeric modes (plain complex, log-domain,
//! scaled).
//!
//! Comparisons are on the Υ *values*, not the orders: probabilities are
//! chosen distinct so rankings agree too, but a value comparison cannot be
//! fooled by a tie broken differently on the two paths.

use prf::prelude::*;

const TOL: f64 = 1e-9;

/// The query battery: every shared-walk semantics, with PRFe exercised in
/// all three numeric modes. Log-domain applies to PRFe with real α only —
/// the other semantics run in their supported modes.
fn battery() -> Vec<(&'static str, RankQuery)> {
    vec![
        (
            "prfe-complex",
            RankQuery::prfe(0.85).algorithm(Algorithm::ExactGf),
        ),
        (
            "prfe-log",
            RankQuery::prfe(0.85).algorithm(Algorithm::LogDomain),
        ),
        (
            "prfe-scaled",
            RankQuery::prfe(0.85).algorithm(Algorithm::Scaled),
        ),
        ("prfe-auto", RankQuery::prfe(0.6)),
        ("pt", RankQuery::pt(5)),
        ("prf-linear", RankQuery::prf(LinearWeight)),
        ("urank", RankQuery::urank(3)),
        ("utop", RankQuery::utop(3)),
        ("erank", RankQuery::erank()),
        ("escore", RankQuery::escore()),
        ("consensus", RankQuery::consensus(3)),
    ]
}

fn close(a: f64, b: f64, ctx: &str) {
    if a.is_infinite() && b.is_infinite() && a.signum() == b.signum() {
        return;
    }
    let err = (a - b).abs() / (1.0 + b.abs());
    assert!(err <= TOL, "{ctx}: {a} vs {b} (rel err {err:.3e})");
}

fn assert_values_close(live: &Values, rebuilt: &Values, ctx: &str) {
    assert_eq!(live.len(), rebuilt.len(), "{ctx}: value count");
    match (live, rebuilt) {
        (Values::Complex(a), Values::Complex(b)) => {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                close(x.re, y.re, &format!("{ctx}[{i}].re"));
                close(x.im, y.im, &format!("{ctx}[{i}].im"));
            }
        }
        (Values::LogDomain(a), Values::LogDomain(b)) => {
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                close(*x, *y, &format!("{ctx}[{i}].ln"));
            }
        }
        (Values::Scaled(a), Values::Scaled(b)) => {
            // Small test relations: the plain value is representable.
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                let (x, y) = (x.to_plain(), y.to_plain());
                close(x.re, y.re, &format!("{ctx}[{i}].re"));
                close(x.im, y.im, &format!("{ctx}[{i}].im"));
            }
        }
        _ => panic!("{ctx}: numeric modes diverged between live and rebuilt"),
    }
}

/// The battery for correlated (tree) backends: same as [`battery`] minus
/// U-Top, whose most-probable-set search on correlated data enumerates
/// exponentially many candidate sets (~20 s at n = 40 in debug builds) —
/// U-Top × mutation coverage comes from the independent script.
fn tree_battery() -> Vec<(&'static str, RankQuery)> {
    battery()
        .into_iter()
        .filter(|(l, _)| *l != "utop")
        .collect()
}

/// The cheap subset used on every churn step (the full battery runs at the
/// structural checkpoints): PRFe in all three numeric modes plus one
/// weight-function semantics.
fn fast_battery() -> Vec<(&'static str, RankQuery)> {
    vec![
        (
            "prfe-complex",
            RankQuery::prfe(0.85).algorithm(Algorithm::ExactGf),
        ),
        (
            "prfe-log",
            RankQuery::prfe(0.85).algorithm(Algorithm::LogDomain),
        ),
        (
            "prfe-scaled",
            RankQuery::prfe(0.85).algorithm(Algorithm::Scaled),
        ),
        ("pt", RankQuery::pt(5)),
    ]
}

/// Runs a query battery against the live wrapper and against a freshly
/// rebuilt backend, comparing values (and, with distinct probabilities,
/// orders).
fn assert_live_matches_rebuild_with<B>(
    live: &LiveRelation<B>,
    ctx: &str,
    queries: Vec<(&'static str, RankQuery)>,
) where
    B: MutableRelation + Clone + Send + Sync,
{
    let rebuilt = live.snapshot_backend();
    for (label, query) in queries {
        let ctx = format!("{ctx}/{label}");
        let via_live = query.clone().run(live);
        let via_rebuild = query.run(&rebuilt);
        match (via_live, via_rebuild) {
            (Ok(l), Ok(r)) => {
                assert_values_close(&l.values, &r.values, &ctx);
                assert_eq!(l.ranking.order(), r.ranking.order(), "{ctx}: ranking order");
            }
            (Err(l), Err(r)) => {
                assert_eq!(l.to_string(), r.to_string(), "{ctx}: errors must match");
            }
            (l, r) => panic!("{ctx}: live {l:?} vs rebuilt {r:?}"),
        }
    }
}

/// The full battery at a structural checkpoint.
fn assert_live_matches_rebuild<B>(live: &LiveRelation<B>, ctx: &str)
where
    B: MutableRelation + Clone + Send + Sync,
{
    assert_live_matches_rebuild_with(live, ctx, battery());
}

/// Distinct scores and probabilities so no tie can mask a diff.
fn seed_db(n: usize) -> IndependentDb {
    IndependentDb::from_pairs((0..n).map(|i| {
        let score = 1000.0 - (i as f64) * 1.37;
        let prob = 0.05 + 0.9 * (((i * 7919) % 997) as f64 / 997.0);
        (score, prob)
    }))
    .expect("valid pairs")
}

#[test]
fn independent_mutation_script_matches_rebuild() {
    let live = LiveRelation::new(seed_db(40));
    assert_live_matches_rebuild(&live, "ind/seed");

    // Reweight (patched in place), including the extremes.
    live.apply(&Mutation::Reweight(TupleId(17), 0.915)).unwrap();
    assert_live_matches_rebuild(&live, "ind/reweight");
    live.apply(&Mutation::Reweight(TupleId(0), 1.0)).unwrap();
    assert_live_matches_rebuild(&live, "ind/reweight-to-one");

    // Inserts at the top, middle, and bottom of the score order.
    live.apply(&Mutation::Insert {
        score: 2000.0,
        prob: 0.33,
    })
    .unwrap();
    live.apply(&Mutation::Insert {
        score: 955.5,
        prob: 0.44,
    })
    .unwrap();
    live.apply(&Mutation::Insert {
        score: -5.0,
        prob: 0.55,
    })
    .unwrap();
    assert_live_matches_rebuild(&live, "ind/insert");

    // Deletes, including a just-inserted tuple (ids renumber densely).
    live.apply(&Mutation::Delete(TupleId(5))).unwrap();
    assert_live_matches_rebuild(&live, "ind/delete");
    let effect = live
        .apply(&Mutation::Insert {
            score: 500.0,
            prob: 0.66,
        })
        .unwrap();
    let MutationEffect::Inserted(fresh) = effect else {
        panic!("insert must report Inserted, got {effect:?}");
    };
    live.apply(&Mutation::Delete(fresh)).unwrap();
    assert_live_matches_rebuild(&live, "ind/insert-then-delete");

    // Interleaved churn.
    for step in 0..10 {
        let n = live.n_tuples();
        match step % 3 {
            0 => {
                let t = TupleId(((step * 13) % n) as u32);
                let p = 0.1 + 0.08 * step as f64;
                live.apply(&Mutation::Reweight(t, p)).unwrap();
            }
            1 => {
                live.apply(&Mutation::Insert {
                    score: 100.0 + 31.7 * step as f64,
                    prob: 0.2 + 0.05 * step as f64,
                })
                .unwrap();
            }
            _ => {
                let t = TupleId(((step * 7) % n) as u32);
                live.apply(&Mutation::Delete(t)).unwrap();
            }
        }
        assert_live_matches_rebuild_with(&live, &format!("ind/churn-{step}"), fast_battery());
    }
    assert_live_matches_rebuild(&live, "ind/final");
}

#[test]
fn tree_mutation_script_matches_rebuild() {
    // A correlated backend: x-tuples (exclusive groups) under an ∧ root.
    let mut builder = TreeBuilder::new(NodeKind::And);
    let root = builder.root();
    let mut leaves = Vec::new();
    for g in 0..12 {
        let group = builder.add_inner(root, NodeKind::Xor, 1.0).unwrap();
        for j in 0..4 {
            let prob = 0.03 + 0.05 * j as f64 + 0.012 * g as f64;
            let score = 500.0 - (g * 4 + j) as f64 * 3.3;
            leaves.push(builder.add_leaf(group, prob, score).unwrap());
        }
    }
    let live = LiveRelation::new(builder.build().expect("valid tree"));
    assert_live_matches_rebuild_with(&live, "tree/seed", tree_battery());

    // Reweight leaves across different exclusive groups.
    live.apply(&Mutation::Reweight(leaves[2], 0.31)).unwrap();
    live.apply(&Mutation::Reweight(leaves[45], 0.012)).unwrap();
    assert_live_matches_rebuild_with(&live, "tree/reweight", tree_battery());

    // Inserts: under an ∧ root each lands as its own fresh singleton group.
    live.apply(&Mutation::Insert {
        score: 1000.0,
        prob: 0.27,
    })
    .unwrap();
    live.apply(&Mutation::Insert {
        score: 250.1,
        prob: 0.61,
    })
    .unwrap();
    assert_live_matches_rebuild_with(&live, "tree/insert", tree_battery());

    // Deletes, then churn mixing all three mutations.
    live.apply(&Mutation::Delete(leaves[7])).unwrap();
    assert_live_matches_rebuild_with(&live, "tree/delete", tree_battery());
    for step in 0..8 {
        let n = live.n_tuples();
        match step % 3 {
            0 => {
                let t = TupleId(((step * 11) % n) as u32);
                live.apply(&Mutation::Reweight(t, 0.02 + 0.01 * step as f64))
                    .unwrap();
            }
            1 => {
                live.apply(&Mutation::Insert {
                    score: 600.0 + 13.3 * step as f64,
                    prob: 0.1 + 0.04 * step as f64,
                })
                .unwrap();
            }
            _ => {
                let t = TupleId(((step * 5) % n) as u32);
                live.apply(&Mutation::Delete(t)).unwrap();
            }
        }
        assert_live_matches_rebuild_with(&live, &format!("tree/churn-{step}"), fast_battery());
    }
    assert_live_matches_rebuild_with(&live, "tree/final", tree_battery());
}

#[test]
fn xor_root_insert_joins_the_exclusive_group() {
    // Under a ∨ root an insert joins the root's exclusive group — the sum
    // constraint must keep holding and queries must match a rebuild.
    let mut builder = TreeBuilder::new(NodeKind::Xor);
    let root = builder.root();
    for j in 0..6 {
        builder
            .add_leaf(root, 0.04 + 0.02 * j as f64, 90.0 - j as f64)
            .unwrap();
    }
    let live = LiveRelation::new(builder.build().expect("valid tree"));
    live.apply(&Mutation::Insert {
        score: 95.0,
        prob: 0.11,
    })
    .unwrap();
    assert_live_matches_rebuild_with(&live, "xor-root/insert", tree_battery());

    // Overfilling the group must be rejected and change nothing.
    let before = live.generation();
    let err = live.apply(&Mutation::Insert {
        score: 99.0,
        prob: 0.95,
    });
    assert!(err.is_err(), "group sum > 1 must be rejected");
    assert_eq!(live.generation(), before, "failed mutation bumps nothing");
    assert_live_matches_rebuild_with(&live, "xor-root/rejected-insert", tree_battery());
}

#[test]
fn served_mutations_match_offline_rebuild() {
    // End-to-end through the server: apply a mutation script via
    // `RankServer::apply`, then check a served query against an offline
    // rebuild of the final backend state.
    use std::time::Duration;

    let server = RankServer::new(ServeConfig::new().max_delay(Duration::from_micros(200)));
    let live = std::sync::Arc::new(LiveRelation::new(seed_db(40)));
    let rel = server.register_live("live", std::sync::Arc::clone(&live));

    for (i, m) in [
        Mutation::Reweight(TupleId(3), 0.77),
        Mutation::Insert {
            score: 1500.0,
            prob: 0.5,
        },
        Mutation::Delete(TupleId(11)),
        Mutation::Reweight(TupleId(0), 0.123),
    ]
    .into_iter()
    .enumerate()
    {
        let effect = server.apply(rel, m).unwrap().recv();
        assert!(effect.is_ok(), "mutation {i} failed: {effect:?}");
    }

    let rebuilt = live.snapshot_backend();
    for (label, query) in battery() {
        let served = server.submit(rel, query.clone()).unwrap().recv();
        let direct = query.run(&rebuilt);
        match (served, direct) {
            (Ok(s), Ok(d)) => {
                assert_values_close(&s.values, &d.values, &format!("served/{label}"));
                assert_eq!(s.ranking.order(), d.ranking.order(), "served/{label}");
            }
            (Err(s), Err(d)) => assert_eq!(s.to_string(), d.to_string(), "served/{label}"),
            (s, d) => panic!("served/{label}: {s:?} vs {d:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn log_prfe_answers_stay_exact_across_cache_patched_churn() {
    // Focused regression for log-domain PRFe under churn: every insert,
    // delete and reweight patches the stored score order in place, and
    // each step's log-domain answer comes from the walk over that patched
    // order. Drive a long churn script through that path and pin each
    // step's answer to a fresh rebuild at 1e-9.
    let live = LiveRelation::new(seed_db(24));
    let log_probe = || {
        vec![(
            "prfe-log",
            RankQuery::prfe(0.85).algorithm(Algorithm::LogDomain),
        )]
    };

    // A log-domain query before the churn, as a serving client would run.
    RankQuery::prfe(0.85)
        .algorithm(Algorithm::LogDomain)
        .run(&live)
        .expect("warm-up query");

    for step in 0..60usize {
        let n = live.n_tuples();
        match step % 4 {
            // Distinct probabilities so ranking ties can't mask a diff.
            0 => {
                let t = TupleId(((step * 13) % n) as u32);
                let p = 0.03 + 0.9 * (((step * 577) % 331) as f64 / 331.0);
                live.apply(&Mutation::Reweight(t, p)).unwrap();
            }
            1 | 2 => {
                live.apply(&Mutation::Insert {
                    score: 2000.0 + 17.3 * step as f64,
                    prob: 0.04 + 0.9 * (((step * 733) % 211) as f64 / 211.0),
                })
                .unwrap();
            }
            _ => {
                let t = TupleId(((step * 7) % n) as u32);
                live.apply(&Mutation::Delete(t)).unwrap();
            }
        }
        assert_live_matches_rebuild_with(&live, &format!("log-churn-{step}"), log_probe());
    }
    // After sixty patches the full battery still agrees.
    assert_live_matches_rebuild(&live, "log-churn/final");
}
