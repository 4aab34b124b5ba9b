//! Differential suite for [`PreparedRelation`]: wrapping a relation must
//! be **answer-invisible**. Every query — single or batched, any
//! semantics, any numeric mode (`Complex`, `LogDomain`, `Scaled`) — must
//! return the same ranking and values (within 1e-9) through the prepared
//! wrapper as against the raw relation, on every backend:
//!
//! * `IndependentDb` — prepares **nothing**: it stores its score order
//!   from construction on, so its walk ignores the (empty) state;
//! * `AndXorTree` — prepares order, positions, marginals and the
//!   [`EvalPlan`] skeleton;
//! * `NetworkRelation` — prepares **nothing** (the graphical adapter has
//!   no prepared kernels), exercising the foreign/empty-state fallback
//!   path that every backend must keep correct.
//!
//! Reuse is the point of preparation, so the batch tests run the same
//! prepared instance across many flushes and check every flush against
//! the raw relation — a stale or mutated cache would drift.

use prf::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-9;

// ---------------------------------------------------------------------
// Seeded random instances (same shapes as tests/batch_equivalence.rs)
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
// Equivalence assertion (1e-9, mode-aware)
// ---------------------------------------------------------------------

fn assert_equivalent(prepared: &RankedResult, raw: &RankedResult, ctx: &str) {
    assert_eq!(
        prepared.report.numeric_mode, raw.report.numeric_mode,
        "{ctx}: numeric mode"
    );
    assert_eq!(
        prepared.ranking.order(),
        raw.ranking.order(),
        "{ctx}: ranking order"
    );
    match (&prepared.values, &raw.values) {
        (Values::Complex(a), Values::Complex(b)) => {
            assert_eq!(a.len(), b.len(), "{ctx}: length");
            for (t, (x, y)) in a.iter().zip(b).enumerate() {
                assert!(x.approx_eq(*y, TOL), "{ctx}: tuple {t}: {x} vs {y}");
            }
        }
        (Values::LogDomain(a), Values::LogDomain(b)) => {
            for (t, (x, y)) in a.iter().zip(b).enumerate() {
                let close = (x - y).abs() <= TOL * y.abs().max(1.0)
                    || (x.is_infinite() && y.is_infinite() && x == y);
                assert!(close, "{ctx}: tuple {t}: {x} vs {y}");
            }
        }
        (Values::Scaled(a), Values::Scaled(b)) => {
            for (t, (x, y)) in a.iter().zip(b).enumerate() {
                let (kx, ky) = (x.magnitude_key(), y.magnitude_key());
                let close = (kx - ky).abs() <= TOL * ky.abs().max(1.0)
                    || (kx.is_infinite() && ky.is_infinite() && kx == ky);
                assert!(close, "{ctx}: tuple {t}: key {kx} vs {ky}");
            }
        }
        (g, w) => panic!(
            "{ctx}: value mode mismatch: prepared {:?} vs raw {:?}",
            g.numeric_mode(),
            w.numeric_mode()
        ),
    }
    if let (Some(gs), Some(ws)) = (&prepared.set, &raw.set) {
        assert_eq!(gs.members, ws.members, "{ctx}: U-Top set");
        assert!((gs.log_prob - ws.log_prob).abs() < TOL, "{ctx}: U-Top logp");
    } else {
        assert_eq!(prepared.set.is_some(), raw.set.is_some(), "{ctx}: set");
    }
}

/// The query mix: every numeric mode (plain complex, log-domain, scaled),
/// complex α, PRFω, and the set/positional semantics.
fn mode_mix(n: usize) -> Vec<RankQuery> {
    vec![
        RankQuery::prfe_complex(Complex::real(0.85)).algorithm(Algorithm::ExactGf),
        RankQuery::prfe(0.85).algorithm(Algorithm::LogDomain),
        RankQuery::prfe_complex(Complex::real(0.85)).algorithm(Algorithm::Scaled),
        RankQuery::prfe_complex(Complex::new(0.5, 0.3)).algorithm(Algorithm::ExactGf),
        RankQuery::prf(TabulatedWeight::from_real(&[2.0, 1.0, 0.25, 0.125])),
        RankQuery::pt(3.min(n.max(1))),
        RankQuery::erank(),
        RankQuery::escore(),
        RankQuery::consensus(3.min(n.max(1))),
    ]
}

type SharedRel = std::sync::Arc<dyn ProbabilisticRelation + Send + Sync>;

/// Runs every query of the mix singly against the prepared wrapper and
/// the raw relation, comparing each pair.
fn assert_prepared_single_equivalent(rel: SharedRel, queries: &[RankQuery], ctx: &str) {
    let prepared = PreparedRelation::new(rel.clone());
    for (i, q) in queries.iter().enumerate() {
        let got = q.clone().run(&prepared).expect("prepared query runs");
        let want = q.clone().run(rel.as_ref()).expect("raw query runs");
        assert_equivalent(
            &got,
            &want,
            &format!("{ctx}[{i}] {}", want.report.semantics),
        );
    }
}

/// Runs the mix as a batch against the same prepared instance `flushes`
/// times, comparing every flush with a raw-relation batch: reuse across
/// flushes must not drift.
fn assert_prepared_batches_equivalent(
    rel: SharedRel,
    queries: &[RankQuery],
    flushes: usize,
    ctx: &str,
) {
    let prepared = PreparedRelation::new(rel.clone());
    let want = QueryBatch::new()
        .add_queries(queries.iter().cloned())
        .run(rel.as_ref())
        .expect("raw batch runs");
    for flush in 0..flushes {
        let got = QueryBatch::new()
            .add_queries(queries.iter().cloned())
            .run(&prepared)
            .expect("prepared batch runs");
        assert_eq!(got.len(), want.len(), "{ctx}: one result per query");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_equivalent(
                g,
                w,
                &format!("{ctx} flush {flush}[{i}] {}", w.report.semantics),
            );
        }
    }
}

// ---------------------------------------------------------------------
// IndependentDb: prepared score order
// ---------------------------------------------------------------------

#[test]
fn prepared_singles_match_raw_on_independent() {
    for seed in 0..4u64 {
        let db = random_db(seed, 40);
        let mut queries = mode_mix(db.len());
        queries.push(RankQuery::urank(5));
        queries.push(RankQuery::utop(3));
        assert_prepared_single_equivalent(
            std::sync::Arc::new(db),
            &queries,
            &format!("independent seed {seed}"),
        );
    }
}

#[test]
fn prepared_batches_match_raw_on_independent_across_flushes() {
    let db = random_db(11, 60);
    let queries = mode_mix(db.len());
    assert_prepared_batches_equivalent(std::sync::Arc::new(db), &queries, 12, "independent");
}

// ---------------------------------------------------------------------
// AndXorTree: prepared order + positions + marginals + EvalPlan
// ---------------------------------------------------------------------

#[test]
fn prepared_singles_match_raw_on_trees() {
    for seed in 0..4u64 {
        let tree = random_general_tree(seed, 48);
        let queries = mode_mix(AndXorTree::n_tuples(&tree));
        assert_prepared_single_equivalent(
            std::sync::Arc::new(tree),
            &queries,
            &format!("tree seed {seed}"),
        );
    }
}

#[test]
fn prepared_batches_match_raw_on_trees_across_flushes() {
    let tree = random_general_tree(21, 64);
    let queries = mode_mix(AndXorTree::n_tuples(&tree));
    assert_prepared_batches_equivalent(std::sync::Arc::new(tree), &queries, 12, "tree");
}

// ---------------------------------------------------------------------
// NetworkRelation: the empty-state fallback path
// ---------------------------------------------------------------------

#[test]
fn prepared_singles_match_raw_on_networks() {
    for seed in 0..3u64 {
        let net = random_network(seed, 10);
        // The graphical adapter's supported surface (no E-Rank/U-Top).
        let queries = vec![
            RankQuery::prfe_complex(Complex::real(0.85)).algorithm(Algorithm::ExactGf),
            RankQuery::prfe(0.85).algorithm(Algorithm::LogDomain),
            RankQuery::prfe_complex(Complex::real(0.85)).algorithm(Algorithm::Scaled),
            RankQuery::prf(TabulatedWeight::from_real(&[2.0, 1.0, 0.25])),
            RankQuery::pt(3),
            RankQuery::escore(),
            RankQuery::consensus(3),
            RankQuery::urank(4),
        ];
        assert_prepared_single_equivalent(
            std::sync::Arc::new(net),
            &queries,
            &format!("network seed {seed}"),
        );
    }
}

#[test]
fn prepared_batches_match_raw_on_networks_across_flushes() {
    let net = random_network(7, 9);
    let queries = vec![
        RankQuery::prfe(0.9),
        RankQuery::pt(2),
        RankQuery::escore(),
        RankQuery::consensus(2),
    ];
    assert_prepared_batches_equivalent(std::sync::Arc::new(net), &queries, 8, "network");
}

// ---------------------------------------------------------------------
// Prepared state sanity
// ---------------------------------------------------------------------

/// The wrapper actually carries state where the backend supports
/// preparation, and degrades to the empty state (not an error) where it
/// does not.
#[test]
fn prepared_state_presence_matches_backend_support() {
    let db = PreparedRelation::from_relation(random_db(1, 12));
    assert!(
        db.state().is_empty(),
        "independent relations store their score order: nothing to prepare"
    );
    let tree = PreparedRelation::from_relation(random_general_tree(1, 12));
    assert!(!tree.state().is_empty(), "trees prepare");
    let net = PreparedRelation::from_relation(random_network(1, 6));
    assert!(
        net.state().is_empty(),
        "graphical adapter has no prepared kernels"
    );
}

/// A prepared relation wrapped *again* (e.g. re-registered) still answers
/// identically: its own state wins, nothing double-applies.
#[test]
fn double_wrapping_is_idempotent() {
    let tree = random_general_tree(33, 40);
    let once = PreparedRelation::from_relation(tree.clone());
    let twice = PreparedRelation::new(std::sync::Arc::new(once));
    for q in mode_mix(AndXorTree::n_tuples(&tree)) {
        let want = q.clone().run(&tree).expect("raw");
        let got = q.run(&twice).expect("double-wrapped");
        assert_equivalent(&got, &want, "double wrap");
    }
}
