//! Differential suite for batched execution: a [`QueryBatch`] must be
//! **answer-equivalent to the sequence of equivalent single `RankQuery`
//! runs** — same ranking order and value-level agreement within 1e-9 —
//! across semantics mixes × backends (`IndependentDb`, `AndXorTree`,
//! `NetworkRelation`) × algorithms (`Auto`, `ExactGf`, `LogDomain`,
//! `Scaled`), serial and sharded-parallel, including proptest-generated
//! random batches (whose failures shrink, courtesy of the shim).
//!
//! A single query is a batch of one, so this suite pins that *sharing* a
//! walk never changes an entry's answer; `tests/query_equivalence.rs` ties
//! the engine itself to the free-function kernels, which are
//! differential-tested against brute force.

use prf::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-9;

// ---------------------------------------------------------------------
// Seeded random instances (same shapes as tests/query_equivalence.rs)
// ---------------------------------------------------------------------

fn random_db(seed: u64, n: usize) -> IndependentDb {
    let mut rng = StdRng::seed_from_u64(seed);
    IndependentDb::from_pairs((0..n).map(|_| {
        (
            rng.gen_range(0.0..1000.0),
            match rng.gen_range(0..10) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen_range(0.01..1.0),
            },
        )
    }))
    .expect("valid pairs")
}

fn random_xtuple_tree(seed: u64, groups: usize) -> AndXorTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec: Vec<Vec<(f64, f64)>> = (0..groups)
        .map(|_| {
            let alts = rng.gen_range(1..4);
            let mut budget = 1.0f64;
            (0..alts)
                .map(|_| {
                    let p = rng.gen_range(0.0..budget.min(0.7));
                    budget -= p;
                    (rng.gen_range(0.0..1000.0), p)
                })
                .collect()
        })
        .collect();
    AndXorTree::from_x_tuples(&spec).expect("valid groups")
}

fn random_general_tree(seed: u64, target_leaves: usize) -> AndXorTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TreeBuilder::new(NodeKind::And);
    let root = b.root();
    let mut frontier = vec![(root, false, 1.0f64)];
    let mut leaves = 0usize;
    while leaves < target_leaves {
        let idx = rng.gen_range(0..frontier.len());
        let (node, is_xor, budget) = frontier[idx];
        let p = if is_xor {
            let p = rng.gen_range(0.0..budget.min(0.6));
            frontier[idx].2 -= p;
            p
        } else {
            1.0
        };
        if frontier.len() > 6 || rng.gen_bool(0.7) {
            b.add_leaf(node, p, rng.gen_range(0.0..1000.0)).unwrap();
            leaves += 1;
        } else {
            let child_xor = rng.gen_bool(0.5);
            let kind = if child_xor {
                NodeKind::Xor
            } else {
                NodeKind::And
            };
            let child = b.add_inner(node, kind, p).unwrap();
            frontier.push((child, child_xor, 1.0));
        }
    }
    b.build().unwrap()
}

fn random_network(seed: u64, n: usize) -> NetworkRelation {
    use prf::graphical::{Factor, MarkovNetwork, VarId};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors = Vec::new();
    for j in 1..n {
        let parent = rng.gen_range(0..j);
        factors.push(Factor::new(
            vec![VarId(parent as u32), VarId(j as u32)],
            (0..4).map(|_| rng.gen_range(0.05..1.0)).collect(),
        ));
    }
    let net = MarkovNetwork::new(n, factors);
    let scores: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
    NetworkRelation::new(&net, scores).expect("valid scores")
}

// ---------------------------------------------------------------------
// Equivalence assertion: order identical, values within 1e-9
// ---------------------------------------------------------------------

fn assert_equivalent(got: &RankedResult, want: &RankedResult, ctx: &str) {
    assert_eq!(
        got.report.algorithm, want.report.algorithm,
        "{ctx}: resolved algorithm"
    );
    assert_eq!(
        got.ranking.order(),
        want.ranking.order(),
        "{ctx}: ranking order"
    );
    assert_values_equivalent(got, want, ctx);
}

/// Value-level agreement only — used for the serial-vs-parallel batch
/// comparison, where sub-1e-9 float differences between the fast-forward
/// and incremental fold orders can flip *exact ties* in the ranking (the
/// same slack the single-query parallel tests allow).
fn assert_values_equivalent(got: &RankedResult, want: &RankedResult, ctx: &str) {
    assert_eq!(
        got.report.numeric_mode, want.report.numeric_mode,
        "{ctx}: numeric mode"
    );
    match (&got.values, &want.values) {
        (Values::Complex(a), Values::Complex(b)) => {
            assert_eq!(a.len(), b.len(), "{ctx}: length");
            for (t, (x, y)) in a.iter().zip(b).enumerate() {
                assert!(x.approx_eq(*y, TOL), "{ctx}: tuple {t}: {x} vs {y}");
            }
        }
        (Values::LogDomain(a), Values::LogDomain(b)) => {
            assert_eq!(a.len(), b.len(), "{ctx}: length");
            for (t, (x, y)) in a.iter().zip(b).enumerate() {
                let close = (x - y).abs() <= TOL * y.abs().max(1.0)
                    || (x.is_infinite() && y.is_infinite() && x == y);
                assert!(close, "{ctx}: tuple {t}: {x} vs {y}");
            }
        }
        (Values::Scaled(a), Values::Scaled(b)) => {
            assert_eq!(a.len(), b.len(), "{ctx}: length");
            for (t, (x, y)) in a.iter().zip(b).enumerate() {
                let (kx, ky) = (x.magnitude_key(), y.magnitude_key());
                let close = (kx - ky).abs() <= TOL * ky.abs().max(1.0)
                    || (kx.is_infinite() && ky.is_infinite() && kx == ky);
                assert!(close, "{ctx}: tuple {t}: key {kx} vs {ky}");
            }
        }
        (g, w) => panic!(
            "{ctx}: value mode mismatch: batch {:?} vs single {:?}",
            g.numeric_mode(),
            w.numeric_mode()
        ),
    }
    if let (Some(gs), Some(ws)) = (&got.set, &want.set) {
        assert_eq!(gs.members, ws.members, "{ctx}: U-Top set");
        assert!((gs.log_prob - ws.log_prob).abs() < TOL, "{ctx}: U-Top logp");
    } else {
        assert_eq!(got.set.is_some(), want.set.is_some(), "{ctx}: set answer");
    }
}

/// Runs `queries` both as one batch and as singles and compares each pair.
fn assert_batch_equivalent(
    rel: &(impl ProbabilisticRelation + ?Sized),
    queries: &[RankQuery],
    threads: Option<usize>,
    ctx: &str,
) {
    let mut batch = QueryBatch::new().add_queries(queries.iter().cloned());
    if let Some(t) = threads {
        batch = batch.parallel(t);
    }
    let results = batch.run(rel).expect("batch runs");
    assert_eq!(results.len(), queries.len(), "{ctx}: one result per query");
    for (i, (got, q)) in results.iter().zip(queries).enumerate() {
        let mut q = q.clone();
        if let Some(t) = threads {
            q = q.parallel(t);
        }
        let want = q.run(rel).expect("single query runs");
        assert_equivalent(got, &want, &format!("{ctx}[{i}] {}", want.report.semantics));
    }
}

/// The standard semantics mix: ≥ 4 distinct semantics, PRFe at several α,
/// PT at several h, plus E-Rank — the serving-workload shape the batch
/// engine amortizes.
fn standard_mix(n: usize) -> Vec<RankQuery> {
    vec![
        RankQuery::pt(2.min(n.max(1))),
        RankQuery::pt(n.max(1)),
        RankQuery::consensus(3.min(n.max(1))),
        RankQuery::prf(TabulatedWeight::from_real(&[2.0, 1.0, 0.25, 0.125])),
        RankQuery::prfe(0.95),
        RankQuery::prfe(0.4),
        RankQuery::prfe_complex(Complex::new(0.5, 0.3)).algorithm(Algorithm::ExactGf),
        RankQuery::erank(),
        RankQuery::escore(),
    ]
}

// ---------------------------------------------------------------------
// IndependentDb
// ---------------------------------------------------------------------

#[test]
fn batch_equals_sequential_on_independent() {
    for seed in 0..4u64 {
        let db = random_db(seed, 40);
        let mut queries = standard_mix(db.len());
        // Every PRFe numeric mode in one batch.
        queries.push(RankQuery::prfe(0.8).algorithm(Algorithm::ExactGf));
        queries.push(RankQuery::prfe(0.8).algorithm(Algorithm::LogDomain));
        queries.push(RankQuery::prfe(0.8).algorithm(Algorithm::Scaled));
        // Fallback-routed semantics ride along.
        queries.push(RankQuery::urank(5));
        queries.push(RankQuery::utop(3));
        assert_batch_equivalent(&db, &queries, None, &format!("independent seed {seed}"));
    }
}

#[test]
fn batch_equals_sequential_on_large_independent_auto() {
    // Large enough that Auto picks LogDomain for real-α PRFe — the batch
    // must resolve identically and stay equivalent.
    let db = random_db(99, 2000);
    let queries = vec![
        RankQuery::prfe(0.5),
        RankQuery::prfe(0.9),
        RankQuery::pt(100),
        RankQuery::erank(),
    ];
    let results = QueryBatch::new()
        .add_queries(queries.iter().cloned())
        .run(&db)
        .unwrap();
    assert_eq!(results[0].report.algorithm, Algorithm::LogDomain);
    assert!(results[0].report.auto_selected);
    assert_batch_equivalent(&db, &queries, None, "independent 2k auto");
}

// ---------------------------------------------------------------------
// AndXorTree (x-tuple and general), serial and parallel
// ---------------------------------------------------------------------

#[test]
fn batch_equals_sequential_on_trees() {
    for seed in 0..4u64 {
        for (kind, tree) in [
            ("xtuple", random_xtuple_tree(seed + 20, 12)),
            ("general", random_general_tree(seed + 20, 14)),
        ] {
            let queries = standard_mix(tree.n_tuples());
            assert_batch_equivalent(&tree, &queries, None, &format!("{kind} seed {seed}"));
        }
    }
}

#[test]
fn parallel_batch_equals_serial_batch_and_singles() {
    for seed in 0..3u64 {
        let tree = random_general_tree(seed + 40, 16);
        let queries = vec![
            RankQuery::pt(4),
            RankQuery::pt(tree.n_tuples()),
            RankQuery::prfe(0.9),
            RankQuery::erank(),
        ];
        for threads in [2usize, 3, 8] {
            assert_batch_equivalent(
                &tree,
                &queries,
                Some(threads),
                &format!("parallel({threads}) seed {seed}"),
            );
        }
        // Serial batch ≡ parallel batch, value-level.
        let serial = QueryBatch::new()
            .add_queries(queries.iter().cloned())
            .run(&tree)
            .unwrap();
        let parallel = QueryBatch::new()
            .add_queries(queries.iter().cloned())
            .parallel(4)
            .run(&tree)
            .unwrap();
        for (s, p) in serial.iter().zip(&parallel) {
            assert_values_equivalent(p, s, "serial vs parallel batch");
        }
    }
}

#[test]
fn sharded_walk_keeps_xtuple_kernel_answers() {
    // On an x-tuple tree the truncated weights skip the walk for the
    // x-tuple kernel, while PRFe and E-Rank still walk. Large enough that
    // `.parallel(2)` really shards that walk: the shard merge must not
    // overwrite the kernel's answers.
    let tree = random_xtuple_tree(7, 5000);
    let n = tree.n_tuples();
    assert!(
        effective_walk_threads(n, Some(2)) == 2,
        "n = {n} must shard"
    );
    let queries = [
        RankQuery::pt(50),
        RankQuery::pt(3),
        RankQuery::prf(TabulatedWeight::from_real(&[2.0, 1.0, 0.5])),
        RankQuery::prfe(0.9),
        RankQuery::erank(),
    ];
    let serial = QueryBatch::new()
        .add_queries(queries.iter().cloned())
        .run(&tree)
        .unwrap();
    let parallel = QueryBatch::new()
        .add_queries(queries.iter().cloned())
        .parallel(2)
        .run(&tree)
        .unwrap();
    assert_eq!(parallel[3].report.batch.unwrap().consumers, 5);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_values_equivalent(p, s, &format!("x-tuple serial vs parallel [{i}]"));
    }
    let pt = parallel[0].values.as_complex().unwrap();
    assert!(pt.iter().any(|v| v.re > 0.0), "PT answers must survive");
}

#[test]
fn small_batches_gate_to_the_serial_route() {
    // Regression for the ROADMAP item "parallel loses to serial at
    // n = 10⁴": sharding pays a shared prefix sweep plus one snapshot
    // clone per worker, so below `PARALLEL_MIN_SHARD_TUPLES` tuples per
    // shard the engine must
    // degrade a `.parallel(t)` batch to the serial route. The observable
    // is the evaluator accounting — a sharded walk holds `t` concurrent
    // evaluators, so its merged `plan_nodes` is `t×` the serial walk's.
    let tree = random_general_tree(44, 64);
    assert!(tree.n_tuples() / 8 < PARALLEL_MIN_SHARD_TUPLES);
    let serial = QueryBatch::new().add(Semantics::Pt(4)).run(&tree).unwrap();
    let gated = QueryBatch::new()
        .add(Semantics::Pt(4))
        .parallel(8)
        .run(&tree)
        .unwrap();
    let s = serial[0]
        .report
        .memory
        .expect("serial walk accounts memory");
    let g = gated[0].report.memory.expect("gated walk accounts memory");
    assert_eq!(
        g.plan_nodes, s.plan_nodes,
        "a gated batch must hold one evaluator, not one per shard"
    );
    // Values are bit-identical — it literally ran the serial walk.
    assert_eq!(
        serial[0].values.as_complex().unwrap(),
        gated[0].values.as_complex().unwrap()
    );
    // The same request on a relation clearing the floor does shard.
    assert_eq!(
        effective_walk_threads(2 * PARALLEL_MIN_SHARD_TUPLES, Some(2)),
        2
    );
}

// ---------------------------------------------------------------------
// NetworkRelation: the minimal walk (no E-Rank) — the batch must still
// equal the sequential runs, including error behaviour
// ---------------------------------------------------------------------

#[test]
fn batch_equals_sequential_on_graphical() {
    let rel = random_network(7, 6);
    let queries = vec![
        RankQuery::pt(2),
        RankQuery::prfe(0.7).algorithm(Algorithm::ExactGf),
        RankQuery::prf(TabulatedWeight::from_real(&[1.0, 0.5])),
        RankQuery::urank(3),
    ];
    assert_batch_equivalent(&rel, &queries, None, "graphical");
    // The walk consumers share one positional-probability table; U-Rank
    // takes its direct route…
    let results = QueryBatch::new()
        .add_queries(queries.iter().cloned())
        .run(&rel)
        .unwrap();
    for r in &results[..3] {
        assert_eq!(r.report.batch.expect("walk consumer").consumers, 3);
    }
    assert!(
        results[3].report.batch.is_none(),
        "U-Rank is a direct route"
    );
    // …and unsupported semantics error exactly like the sequential run.
    let err = QueryBatch::new()
        .add(Semantics::Pt(2))
        .add(Semantics::ERank)
        .run(&rel)
        .unwrap_err();
    assert!(matches!(err, QueryError::Unsupported { .. }), "{err}");
}

// ---------------------------------------------------------------------
// Degenerate relations
// ---------------------------------------------------------------------

#[test]
fn batch_on_empty_relation() {
    let db = IndependentDb::from_pairs(std::iter::empty::<(f64, f64)>()).unwrap();
    let results = QueryBatch::new()
        .add(Semantics::Pt(3))
        .add(Semantics::Prfe(Complex::real(0.6)))
        .add(Semantics::ERank)
        .run(&db)
        .unwrap();
    for r in &results {
        assert!(r.values.is_empty());
        assert!(r.ranking.is_empty());
    }
}

#[test]
fn batch_shares_cost_attribution() {
    let tree = random_general_tree(3, 12);
    let results = QueryBatch::new()
        .add(Semantics::Pt(4))
        .add(Semantics::Prfe(Complex::real(0.9)))
        .add(Semantics::ERank)
        .add(Semantics::UTop(2))
        .run(&tree)
        .unwrap();
    let cost = results[0].report.batch.expect("shared entry records cost");
    assert_eq!(cost.consumers, 3);
    assert!(cost.walk_seconds >= 0.0);
    assert!(cost.amortized_seconds() <= cost.walk_seconds + f64::EPSILON);
    assert_eq!(results[0].report.kernel_seconds, cost.amortized_seconds());
    // The single-routed U-Top entry records none.
    assert!(results[3].report.batch.is_none());
    // Shared tree entries surface the walk's evaluator accounting.
    assert!(results[0].report.memory.is_some());
}

// ---------------------------------------------------------------------
// Proptest: random batches on random relations (failures shrink)
// ---------------------------------------------------------------------

fn query_from_pick((kind, alpha, h): (u32, f64, usize)) -> RankQuery {
    match kind {
        0 => RankQuery::pt(h),
        1 => RankQuery::prfe(alpha),
        2 => RankQuery::prfe(alpha.min(0.999)).algorithm(Algorithm::LogDomain),
        3 => RankQuery::prfe(alpha).algorithm(Algorithm::Scaled),
        4 => RankQuery::erank(),
        5 => RankQuery::escore(),
        6 => RankQuery::consensus(h),
        _ => RankQuery::prf(TabulatedWeight::from_real(
            &(0..h).map(|i| alpha + i as f64).collect::<Vec<_>>(),
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_batches_match_sequential_on_independent(
        seed in 0u64..5000,
        picks in proptest::collection::vec((0u32..8, 0.01f64..1.0, 1usize..8), 1..7),
    ) {
        let db = random_db(seed, 24);
        let queries: Vec<RankQuery> = picks.into_iter().map(query_from_pick).collect();
        assert_batch_equivalent(&db, &queries, None, &format!("proptest seed {seed}"));
    }

    #[test]
    fn random_batches_match_sequential_on_trees(
        seed in 0u64..5000,
        picks in proptest::collection::vec((0u32..8, 0.01f64..1.0, 1usize..6), 1..6),
    ) {
        let tree = random_general_tree(seed, 10);
        let queries: Vec<RankQuery> = picks.into_iter().map(query_from_pick).collect();
        assert_batch_equivalent(&tree, &queries, None, &format!("proptest tree seed {seed}"));
    }
}
