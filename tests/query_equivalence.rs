//! Differential suite: every `Semantics` × `Algorithm` combination through
//! the unified `RankQuery` engine must match the kernel free functions —
//! value-for-value (within numeric tolerance; most comparisons are
//! bit-exact) and with identical `Ranking` order.
//!
//! The legacy side calls the `prf-core` kernel free functions directly
//! (`prf_rank`, `prfe_rank*`, `prf_rank_tree*`, `kernels::*`, …), which
//! never route through the engine, so the comparison is not circular;
//! `tests/unification.rs` separately anchors those kernels to brute-force
//! world enumeration.

use prf::core::independent::{prf_rank, prfe_rank, prfe_rank_log, prfe_rank_scaled};
use prf::core::mixture::approximate_weights;
use prf::core::query::kernels;
use prf::core::tree::{expected_ranks_tree, prf_rank_tree, prfe_rank_tree, prfe_rank_tree_scaled};
use prf::core::xtuple::prf_omega_rank_xtuple;
use prf::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// Seeded random instances
// ---------------------------------------------------------------------

fn random_db(seed: u64, n: usize) -> IndependentDb {
    let mut rng = StdRng::seed_from_u64(seed);
    IndependentDb::from_pairs((0..n).map(|_| {
        (
            rng.gen_range(0.0..1000.0),
            // Include the edge masses 0 and 1 occasionally.
            match rng.gen_range(0..10) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen_range(0.01..1.0),
            },
        )
    }))
    .expect("valid pairs")
}

/// A random x-tuple tree (mutually exclusive groups).
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

/// A random general and/xor tree (nested ∧/∨ — *not* x-tuple form).
fn random_general_tree(seed: u64, target_leaves: usize) -> AndXorTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TreeBuilder::new(NodeKind::And);
    let root = b.root();
    // Frontier of (node, is_xor, remaining xor budget).
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

fn assert_same_order(a: &Ranking, b: &Ranking, ctx: &str) {
    assert_eq!(
        a.order(),
        b.order(),
        "{ctx}: ranking order must be identical"
    );
}

fn assert_values_close(got: &[Complex], want: &[Complex], tol: f64, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (t, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(g.approx_eq(*w, tol), "{ctx}: tuple {t}: {g} vs {w}");
    }
}

// ---------------------------------------------------------------------
// Weight-based semantics (Prf, Pt, Consensus, EScore) — both backends
// ---------------------------------------------------------------------

#[test]
fn weighted_semantics_match_legacy_on_independent() {
    for seed in 0..5u64 {
        let db = random_db(seed, 40);
        let n = db.len();

        // PT(h) ≡ prf_rank with a step weight, ranked by real part.
        for h in [1usize, 3, n] {
            let legacy = prf_rank(&db, &StepWeight { h });
            let legacy_rank = Ranking::from_values(&legacy, ValueOrder::RealPart);
            let got = RankQuery::pt(h).run(&db).unwrap();
            assert_values_close(got.values.as_complex().unwrap(), &legacy, 0.0, "PT values");
            assert_same_order(&got.ranking, &legacy_rank, "PT");
        }

        // Consensus(k) ≡ PT(k) (Theorem 2).
        let cons = RankQuery::consensus(5).run(&db).unwrap();
        let pt5 = RankQuery::pt(5).run(&db).unwrap();
        assert_same_order(&cons.ranking, &pt5.ranking, "Consensus ≡ PT");

        // Generic PRFω with a random tabulated weight.
        let mut rng = StdRng::seed_from_u64(seed + 100);
        let table: Vec<f64> = (0..8).map(|_| rng.gen_range(0.0..2.0)).collect();
        let w = TabulatedWeight::from_real(&table);
        let legacy = prf_rank(&db, &w);
        let legacy_rank = Ranking::from_values(&legacy, ValueOrder::RealPart);
        let got = RankQuery::prf(w)
            .value_order(ValueOrder::RealPart)
            .run(&db)
            .unwrap();
        assert_values_close(
            got.values.as_complex().unwrap(),
            &legacy,
            0.0,
            "PRFω values",
        );
        assert_same_order(&got.ranking, &legacy_rank, "PRFω");

        // E-Score ≡ p·score.
        let legacy: Vec<f64> = db.tuples().iter().map(|t| t.prob * t.score).collect();
        let got = RankQuery::escore().run(&db).unwrap();
        for (t, v) in got.values.as_complex().unwrap().iter().enumerate() {
            assert_eq!(v.re, legacy[t], "E-Score value t{t}");
        }
        assert_same_order(&got.ranking, &Ranking::from_keys(&legacy), "E-Score");
    }
}

#[test]
fn weighted_semantics_match_legacy_on_trees() {
    for seed in 0..4u64 {
        for tree in [random_xtuple_tree(seed, 12), random_general_tree(seed, 14)] {
            let n = tree.n_tuples();
            for h in [2usize, n] {
                let w = StepWeight { h };
                // Legacy dispatch: x-tuple fast path when available, else
                // the symbolic expansion.
                let legacy =
                    prf_omega_rank_xtuple(&tree, &w).unwrap_or_else(|| prf_rank_tree(&tree, &w));
                let legacy_rank = Ranking::from_values(&legacy, ValueOrder::RealPart);
                let got = RankQuery::pt(h).run(&tree).unwrap();
                assert_values_close(
                    got.values.as_complex().unwrap(),
                    &legacy,
                    0.0,
                    "tree PT values",
                );
                assert_same_order(&got.ranking, &legacy_rank, "tree PT");
            }

            // Parallel execution must not change values (beyond nothing —
            // the shards compute identical expansions).
            let w = StepWeight { h: 4 };
            let serial = RankQuery::prf(w).run(&tree).unwrap();
            let parallel = RankQuery::prf(w).parallel(4).run(&tree).unwrap();
            assert_values_close(
                parallel.values.as_complex().unwrap(),
                serial.values.as_complex().unwrap(),
                1e-12,
                "parallel PRFω",
            );
            assert_same_order(&parallel.ranking, &serial.ranking, "parallel PRFω");
        }
    }
}

// ---------------------------------------------------------------------
// PRFe across every numeric mode — both backends
// ---------------------------------------------------------------------

#[test]
fn prfe_algorithms_match_legacy_on_independent() {
    for seed in 0..5u64 {
        let db = random_db(seed + 10, 50);
        for alpha in [0.3f64, 0.9, 1.0] {
            // ExactGf ≡ prfe_rank, |Υ| order.
            let legacy = prfe_rank(&db, Complex::real(alpha));
            let got = RankQuery::prfe(alpha)
                .algorithm(Algorithm::ExactGf)
                .run(&db)
                .unwrap();
            assert_values_close(got.values.as_complex().unwrap(), &legacy, 0.0, "PRFe exact");
            assert_same_order(
                &got.ranking,
                &Ranking::from_values(&legacy, ValueOrder::Magnitude),
                "PRFe exact",
            );

            // LogDomain ≡ prfe_rank_log.
            let legacy_log = prfe_rank_log(&db, alpha).unwrap();
            let got = RankQuery::prfe(alpha)
                .algorithm(Algorithm::LogDomain)
                .run(&db)
                .unwrap();
            assert_eq!(
                got.values.as_log().unwrap(),
                &legacy_log[..],
                "PRFe log keys"
            );
            assert_same_order(&got.ranking, &Ranking::from_keys(&legacy_log), "PRFe log");

            // Scaled ≡ prfe_rank_scaled, magnitude keys.
            let legacy_scaled = prfe_rank_scaled(&db, Complex::real(alpha));
            let got = RankQuery::prfe(alpha)
                .algorithm(Algorithm::Scaled)
                .run(&db)
                .unwrap();
            let keys: Vec<f64> = legacy_scaled.iter().map(|v| v.magnitude_key()).collect();
            assert_same_order(&got.ranking, &Ranking::from_keys(&keys), "PRFe scaled");
            for (t, (g, w)) in got
                .values
                .as_scaled()
                .unwrap()
                .iter()
                .zip(&legacy_scaled)
                .enumerate()
            {
                assert_eq!(g.magnitude_key(), w.magnitude_key(), "PRFe scaled key t{t}");
            }
        }

        // Complex α: exact vs generic PRF with the exponential weight.
        let alpha = Complex::new(0.4, 0.3);
        let got = RankQuery::prfe_complex(alpha)
            .algorithm(Algorithm::ExactGf)
            .run(&db)
            .unwrap();
        let generic = prf_rank(&db, &ExponentialWeight { alpha });
        assert_values_close(
            got.values.as_complex().unwrap(),
            &generic,
            1e-9,
            "complex-α PRFe vs generic PRF",
        );
    }
}

#[test]
fn prfe_algorithms_match_legacy_on_trees() {
    for seed in 0..4u64 {
        for tree in [
            random_xtuple_tree(seed + 20, 10),
            random_general_tree(seed + 20, 12),
        ] {
            for alpha in [0.4f64, 0.95] {
                let legacy: Vec<Complex> = prfe_rank_tree(&tree, Complex::real(alpha));
                let got = RankQuery::prfe(alpha)
                    .algorithm(Algorithm::ExactGf)
                    .run(&tree)
                    .unwrap();
                assert_values_close(
                    got.values.as_complex().unwrap(),
                    &legacy,
                    0.0,
                    "tree PRFe exact",
                );
                assert_same_order(
                    &got.ranking,
                    &Ranking::from_values(&legacy, ValueOrder::Magnitude),
                    "tree PRFe exact",
                );

                // Scaled mode agrees with the recompute oracle within
                // tolerance and reproduces the exact ranking.
                let got_scaled = RankQuery::prfe(alpha)
                    .algorithm(Algorithm::Scaled)
                    .run(&tree)
                    .unwrap();
                let legacy_scaled = prfe_rank_tree_scaled(&tree, Complex::real(alpha));
                let keys: Vec<f64> = legacy_scaled.iter().map(|v| v.magnitude_key()).collect();
                assert_same_order(
                    &got_scaled.ranking,
                    &Ranking::from_keys(&keys),
                    "tree PRFe scaled",
                );

                // LogDomain on trees derives from the scaled magnitudes:
                // values must equal ln Υ within tolerance, order must match
                // the exact ranking.
                let got_log = RankQuery::prfe(alpha)
                    .algorithm(Algorithm::LogDomain)
                    .run(&tree)
                    .unwrap();
                for (t, &key) in got_log.values.as_log().unwrap().iter().enumerate() {
                    let exact = legacy[t].abs();
                    if exact > 0.0 {
                        assert!(
                            (key - exact.ln()).abs() < 1e-9 * exact.ln().abs().max(1.0),
                            "tree PRFe log key t{t}: {key} vs {}",
                            exact.ln()
                        );
                    } else {
                        assert_eq!(key, f64::NEG_INFINITY, "tree PRFe log key t{t}");
                    }
                }
                assert_same_order(&got_log.ranking, &got.ranking, "tree PRFe log");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Set/position/aggregate semantics (URank, UTop, ERank) — both backends
// ---------------------------------------------------------------------

#[test]
fn urank_matches_legacy_on_both_backends() {
    for seed in 0..4u64 {
        let db = random_db(seed + 30, 30);
        for k in [1usize, 5, 10] {
            let legacy: Vec<TupleId> = kernels::positional_candidates_independent(&db, k)
                .select_distinct()
                .into_iter()
                .map(|(_, t)| t)
                .collect();
            let got = RankQuery::urank(k).run(&db).unwrap();
            assert_eq!(got.ranking.order(), &legacy[..], "U-Rank k={k}");
        }
        let tree = random_xtuple_tree(seed + 30, 8);
        for k in [1usize, 4] {
            let legacy: Vec<TupleId> = kernels::positional_candidates_tree(&tree, k)
                .select_distinct()
                .into_iter()
                .map(|(_, t)| t)
                .collect();
            let got = RankQuery::urank(k).run(&tree).unwrap();
            assert_eq!(got.ranking.order(), &legacy[..], "tree U-Rank k={k}");
        }
    }
}

#[test]
fn utop_matches_legacy_and_enumeration() {
    for seed in 0..4u64 {
        let db = random_db(seed + 40, 16);
        for k in [1usize, 3, 6] {
            let legacy = kernels::most_probable_topk_independent(&db, k);
            let got = RankQuery::utop(k).run(&db).ok().and_then(|r| r.set);
            match (legacy, got) {
                (None, None) => {}
                (Some((set, logp)), Some(top)) => {
                    assert_eq!(top.members, set, "U-Top set k={k}");
                    assert!((top.log_prob - logp).abs() < 1e-10, "U-Top logp k={k}");
                }
                (l, g) => panic!("U-Top mismatch k={k}: legacy {l:?} vs engine {g:?}"),
            }
        }
        // Tree backend (exact enumeration) vs the independent sweep on
        // independent-shaped trees.
        let tree = AndXorTree::from_independent(&db);
        let via_tree = RankQuery::utop(3).run(&tree).unwrap().set.unwrap();
        let (set, logp) = kernels::most_probable_topk_independent(&db, 3).unwrap();
        assert_eq!(via_tree.members, set);
        assert!((via_tree.log_prob - logp).abs() < 1e-10);
    }
}

#[test]
fn erank_matches_legacy_on_both_backends() {
    for seed in 0..4u64 {
        let db = random_db(seed + 50, 35);
        let legacy = kernels::expected_ranks_independent(&db);
        let got = RankQuery::erank().run(&db).unwrap();
        for (t, v) in got.values.as_complex().unwrap().iter().enumerate() {
            assert_eq!(-v.re, legacy[t], "E-Rank value t{t}");
        }
        let keys: Vec<f64> = legacy.iter().map(|&e| -e).collect();
        assert_same_order(&got.ranking, &Ranking::from_keys(&keys), "E-Rank");

        let tree = random_general_tree(seed + 50, 10);
        let legacy = expected_ranks_tree(&tree);
        let got = RankQuery::erank().run(&tree).unwrap();
        for (t, v) in got.values.as_complex().unwrap().iter().enumerate() {
            assert_eq!(-v.re, legacy[t], "tree E-Rank value t{t}");
        }
    }
}

// ---------------------------------------------------------------------
// DFT mixture approximation ≡ the legacy ExpMixture pipeline
// ---------------------------------------------------------------------

#[test]
fn dft_approx_matches_legacy_mixture_pipeline() {
    let db = random_db(99, 400);
    let h = 50;
    let cfg = DftApproxConfig::refined(16);

    // Legacy: build the mixture by hand, rank by scaled real part.
    let step = move |i: usize| if i < h { 1.0 } else { 0.0 };
    let mix = approximate_weights(&step, h, &cfg);
    let legacy_rank = mix.ranking_independent(&db);

    let got = RankQuery::pt(h)
        .algorithm(Algorithm::DftApprox(cfg))
        .run(&db)
        .unwrap();
    assert_eq!(got.report.numeric_mode, NumericMode::Scaled);
    assert_same_order(&got.ranking, &legacy_rank, "DFT mixture");

    // Tree backend.
    let tree = random_xtuple_tree(7, 60);
    let legacy_rank = mix.ranking_tree(&tree);
    let got = RankQuery::pt(h)
        .algorithm(Algorithm::DftApprox(cfg))
        .run(&tree)
        .unwrap();
    assert_same_order(&got.ranking, &legacy_rank, "tree DFT mixture");
}

// ---------------------------------------------------------------------
// Graphical backend: PRFω/PRFe through the adapter ≡ prf_rank_junction
// ---------------------------------------------------------------------

#[test]
fn graphical_backend_matches_junction_kernels() {
    use prf::graphical::{Factor, MarkovNetwork, VarId};
    let mut rng = StdRng::seed_from_u64(77);
    let n = 6;
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
    let rel = NetworkRelation::new(&net, scores.clone()).expect("valid scores");
    let jt = net.junction_tree();

    // PT(h) ≡ prf_rank_junction with the step weight.
    let legacy = prf::graphical::prf_rank_junction(&jt, &scores, &StepWeight { h: 2 });
    let got = RankQuery::pt(2).run(&rel).unwrap();
    assert_values_close(
        got.values.as_complex().unwrap(),
        &legacy,
        1e-12,
        "graphical PT",
    );

    // PRFe(α) ≡ prf_rank_junction with the exponential weight.
    let legacy = prf::graphical::prf_rank_junction(&jt, &scores, &ExponentialWeight::real(0.7));
    let got = RankQuery::prfe(0.7)
        .algorithm(Algorithm::ExactGf)
        .run(&rel)
        .unwrap();
    assert_values_close(
        got.values.as_complex().unwrap(),
        &legacy,
        1e-12,
        "graphical PRFe",
    );

    // U-Rank works through the default k-pass reduction…
    let got = RankQuery::urank(3).run(&rel).unwrap();
    assert_eq!(got.ranking.len(), 3);

    // …while the unsupported set/aggregate semantics report errors instead
    // of silently degrading.
    assert!(matches!(
        RankQuery::erank().run(&rel),
        Err(QueryError::Unsupported { .. })
    ));
    assert!(matches!(
        RankQuery::utop(2).run(&rel),
        Err(QueryError::Unsupported { .. })
    ));
}

// ---------------------------------------------------------------------
// Auto never degrades small relations, on any backend
// ---------------------------------------------------------------------

#[test]
fn auto_is_exact_at_small_scale_on_every_backend() {
    let db = random_db(5, 60);
    let tree = random_general_tree(5, 12);
    for (ctx, auto_r, exact_r) in [
        (
            "independent PRFe",
            RankQuery::prfe(0.6).run(&db).unwrap(),
            RankQuery::prfe(0.6)
                .algorithm(Algorithm::ExactGf)
                .run(&db)
                .unwrap(),
        ),
        (
            "tree PT",
            RankQuery::pt(100).run(&tree).unwrap(),
            RankQuery::pt(100)
                .algorithm(Algorithm::ExactGf)
                .run(&tree)
                .unwrap(),
        ),
    ] {
        assert_same_order(&auto_r.ranking, &exact_r.ranking, ctx);
        assert!(auto_r.report.auto_selected);
        assert!(!exact_r.report.auto_selected);
    }
}
