//! Integration tests: the PRF framework *unifies* the prior semantics
//! (Section 3.3's table of special cases), across crate boundaries, and
//! every prior semantics the engine answers (U-Top, U-Rank, E-Rank,
//! E-Score, consensus) plus k-selection agrees with a brute-force oracle
//! over enumerated possible worlds or exhaustive subsets.

#![allow(clippy::needless_range_loop)] // oracle comparisons over parallel arrays

use prf::core::independent::{prf_rank, rank_distributions};
use prf::core::query::{kernels, Algorithm, QueryError, RankQuery};
use prf::core::{
    ConstantWeight, PositionWeight, Ranking, ScoreWeight, StepWeight, TabulatedWeight,
    TopScoreWeight, ValueOrder,
};
use prf::datasets::syn_ind;
use prf::pdb::{AndXorTree, IndependentDb, NodeKind, TreeBuilder, TupleId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn db() -> IndependentDb {
    syn_ind(200, 99)
}

/// The consensus top-k under symmetric difference through the engine — by
/// Theorem 2, PT(k)'s answer.
fn consensus_topk(db: &IndependentDb, k: usize) -> Vec<TupleId> {
    RankQuery::consensus(k)
        .top_k(k)
        .run(db)
        .unwrap()
        .ranking
        .order()
        .to_vec()
}

/// Every k-subset of `n` tuples, as sorted vectors.
fn all_subsets(n: usize, k: usize) -> Vec<Vec<TupleId>> {
    (0u32..(1 << n))
        .filter(|mask| mask.count_ones() as usize == k)
        .map(|mask| {
            (0..n)
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| TupleId(i as u32))
                .collect()
        })
        .collect()
}

/// The best `(probability, tuple)` over `candidates`, ties to the smaller
/// id, skipping zero probabilities — one U-Rank position by brute force.
fn best_at_position(candidates: impl Iterator<Item = (f64, TupleId)>) -> Option<TupleId> {
    candidates
        .filter(|&(p, _)| p > 0.0)
        .max_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(b.1.cmp(&a.1)))
        .map(|(_, t)| t)
}

#[test]
fn constant_weight_ranks_by_probability() {
    let db = db();
    let via_prf = Ranking::from_values(&prf_rank(&db, &ConstantWeight), ValueOrder::RealPart);
    let direct = Ranking::from_keys(&db.probabilities());
    assert_eq!(via_prf.order(), direct.order());
}

#[test]
fn score_weight_is_escore() {
    let db = db();
    let via_prf = Ranking::from_values(&prf_rank(&db, &ScoreWeight), ValueOrder::RealPart);
    let direct = RankQuery::escore().run(&db).unwrap().ranking;
    assert_eq!(via_prf.order(), direct.order());
}

#[test]
fn step_weight_is_pt() {
    let db = db();
    for h in [1usize, 10, 50] {
        let via_prf = Ranking::from_values(&prf_rank(&db, &StepWeight { h }), ValueOrder::RealPart);
        let direct = RankQuery::pt(h)
            .algorithm(Algorithm::ExactGf)
            .run(&db)
            .unwrap()
            .ranking;
        assert_eq!(via_prf.top_k(h), direct.top_k(h), "h = {h}");
    }
}

#[test]
fn position_weights_recover_urank() {
    let db = db();
    let k = 10;
    // Greedy distinct selection over per-position argmaxes must equal the
    // engine's U-Rank.
    let mut chosen: Vec<TupleId> = Vec::new();
    for j in 1..=k {
        let ups = prf_rank(&db, &PositionWeight { j });
        let best = (0..db.len())
            .map(|t| TupleId(t as u32))
            .filter(|t| !chosen.contains(t) && ups[t.index()].re > 0.0)
            .max_by(|a, b| {
                ups[a.index()]
                    .re
                    .partial_cmp(&ups[b.index()].re)
                    .unwrap()
                    .then(b.cmp(a))
            });
        chosen.extend(best);
    }
    let urank = RankQuery::urank(k).run(&db).unwrap().ranking;
    assert_eq!(chosen, urank.order());
}

#[test]
fn top_score_weight_orders_like_selection_value_for_singletons() {
    let db = db();
    // ω(t, i) = δ(i=1)·score(t): Υ(t) = Pr(r(t)=1)·score(t), which is the
    // k-selection objective V({t}) restricted to... V({t}) = p·s; the PRF
    // value additionally weights by the probability nothing outranks t.
    // For k = 1 the k-selection DP maximises p·s directly:
    let (set, v) = kernels::k_selection(&db, 1).unwrap();
    let best_direct = db
        .tuples()
        .iter()
        .max_by(|a, b| {
            (a.prob * a.score)
                .partial_cmp(&(b.prob * b.score))
                .unwrap()
                .then(b.id.cmp(&a.id))
        })
        .unwrap();
    assert_eq!(set[0], best_direct.id);
    assert!((v - best_direct.prob * best_direct.score).abs() < 1e-9);
    // And the TopScoreWeight PRF is the "expected score of t as the best
    // available" — it must never exceed V for the singleton.
    let ups = prf_rank(&db, &TopScoreWeight);
    for t in db.tuples() {
        assert!(ups[t.id.index()].re <= t.prob * t.score + 1e-9);
    }
}

#[test]
fn linear_weight_matches_expected_rank_part() {
    let db = db();
    // er₁(t) = Σᵢ i·Pr(r(t)=i) = −Υ_{PRFℓ}(t); combined with er₂ it is the
    // expected rank.
    let ups = prf_rank(&db, &prf::core::LinearWeight);
    let er = kernels::expected_ranks_independent(&db);
    let c = db.expected_world_size();
    for t in db.tuples() {
        let er1 = -ups[t.id.index()].re;
        let er2 = (1.0 - t.prob) * (c - t.prob);
        assert!(
            (er1 + er2 - er[t.id.index()]).abs() < 1e-9,
            "tuple {}: {} vs {}",
            t.id,
            er1 + er2,
            er[t.id.index()]
        );
    }
}

#[test]
fn consensus_theorems_hold_end_to_end() {
    // Theorem 2/3 verified through the public APIs on a fresh dataset.
    let db = syn_ind(7, 123);
    let worlds = db.enumerate_worlds(1 << 10).unwrap();
    let scores = db.scores();
    let k = 3;
    let consensus = consensus_topk(&db, k);
    let d_star = worlds.expected_symmetric_difference(&consensus, k, &scores);
    // Exhaustive check over all 3-subsets.
    for a in 0..7u32 {
        for b in (a + 1)..7 {
            for c in (b + 1)..7 {
                let cand = vec![TupleId(a), TupleId(b), TupleId(c)];
                let d = worlds.expected_symmetric_difference(&cand, k, &scores);
                assert!(d_star <= d + 1e-9);
            }
        }
    }
}

#[test]
fn prfe_log_scaled_and_plain_agree_on_top_k() {
    let db = syn_ind(5_000, 7);
    let alpha = 0.85;
    let k = 200;
    let plain = Ranking::from_values(
        &prf::core::independent::prfe_rank(&db, prf::numeric::Complex::real(alpha)),
        ValueOrder::Magnitude,
    );
    let logd = Ranking::from_keys(&prf::core::independent::prfe_rank_log(&db, alpha).unwrap());
    let scaled_vals =
        prf::core::independent::prfe_rank_scaled(&db, prf::numeric::Complex::real(alpha));
    let keys: Vec<f64> = scaled_vals.iter().map(|v| v.magnitude_key()).collect();
    let scaled = Ranking::from_keys(&keys);
    assert_eq!(logd.top_k(k), scaled.top_k(k));
    assert_eq!(plain.top_k(k), scaled.top_k(k));
}

// ---------------------------------------------------------------------
// Brute-force oracles for the prior semantics
// ---------------------------------------------------------------------

#[test]
fn pt_values_are_prefix_sums_of_rank_distributions() {
    let db = IndependentDb::from_pairs([(9.0, 0.4), (8.0, 0.8), (7.0, 0.5), (6.0, 0.99)]).unwrap();
    let d = rank_distributions(&db);
    for h in 1..=4 {
        let got = RankQuery::pt(h).run(&db).unwrap();
        let v = got.values.as_complex().unwrap();
        for t in 0..db.len() {
            let want: f64 = d[t][..h].iter().sum();
            assert!((v[t].re - want).abs() < 1e-12, "h={h} t{t}");
        }
    }
}

/// U-Top by exhaustion: the k-subset (score-descending) with the largest
/// probability of being exactly a random world's top-k.
fn brute_utop(db: &IndependentDb, k: usize) -> Option<(Vec<TupleId>, f64)> {
    let worlds = db.enumerate_worlds(1 << 22).unwrap();
    let scores = db.scores();
    let mut best: Option<(Vec<TupleId>, f64)> = None;
    for mut set in all_subsets(db.len(), k) {
        set.sort_by(|a, b| {
            scores[b.index()]
                .partial_cmp(&scores[a.index()])
                .unwrap()
                .then(a.cmp(b))
        });
        let p: f64 = worlds
            .worlds
            .iter()
            .filter(|(w, _)| w.len() >= k && w.top_k(&scores, k) == set)
            .map(|(_, p)| p)
            .sum();
        if p > 0.0 && best.as_ref().is_none_or(|(_, bp)| p > *bp + 1e-15) {
            best = Some((set, p));
        }
    }
    best
}

fn assert_utop_matches_brute(db: &IndependentDb, k: usize) {
    let got = RankQuery::utop(k).run(db).unwrap().set.unwrap();
    let (set, p) = brute_utop(db, k).unwrap();
    assert_eq!(got.members, set, "k={k}");
    assert!(
        (got.log_prob.exp() - p).abs() < 1e-10,
        "k={k}: {} vs {p}",
        got.log_prob.exp()
    );
}

#[test]
fn utop_matches_exhaustive_subsets() {
    let dbs = [
        IndependentDb::from_pairs([(10.0, 0.4), (9.0, 0.9), (8.0, 0.5), (7.0, 0.7)]).unwrap(),
        IndependentDb::from_pairs([(10.0, 0.2), (9.0, 0.2), (8.0, 0.95), (7.0, 0.3), (6.0, 0.8)])
            .unwrap(),
    ];
    for db in &dbs {
        for k in 1..=3 {
            assert_utop_matches_brute(db, k);
        }
    }
    // k beyond the relation has no set answer.
    let single = IndependentDb::from_pairs([(1.0, 0.5)]).unwrap();
    assert_eq!(
        RankQuery::utop(2).run(&single).unwrap_err(),
        QueryError::NoSetAnswer
    );
}

#[test]
fn utop_forces_certain_tuples() {
    let db = IndependentDb::from_pairs([(10.0, 0.1), (9.0, 1.0), (8.0, 0.9), (7.0, 1.0)]).unwrap();
    for k in 2..=3 {
        assert_utop_matches_brute(&db, k);
    }
}

/// U-Rank from the full rank-distribution matrix: per position the most
/// probable tuple, optionally skipping tuples already chosen.
fn brute_urank(db: &IndependentDb, k: usize, distinct: bool) -> Vec<Option<TupleId>> {
    let d = rank_distributions(db);
    let mut chosen: Vec<Option<TupleId>> = Vec::new();
    for j in 0..k {
        let best = best_at_position(
            (0..db.len())
                .map(|t| (d[t][j], TupleId(t as u32)))
                .filter(|(_, t)| !distinct || !chosen.contains(&Some(*t))),
        );
        chosen.push(best);
    }
    chosen
}

fn urank_db() -> IndependentDb {
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
fn urank_distinct_matches_rank_distributions() {
    let db = urank_db();
    let tree = AndXorTree::from_independent(&db);
    for k in 1..=5 {
        let got = RankQuery::urank(k).run(&db).unwrap().ranking;
        let want: Vec<TupleId> = brute_urank(&db, k, true).into_iter().flatten().collect();
        assert_eq!(got.order(), want, "k={k}");
        let via_tree = RankQuery::urank(k).run(&tree).unwrap().ranking;
        assert_eq!(via_tree.order(), want, "tree k={k}");
    }
}

#[test]
fn urank_with_duplicates_matches_rank_distributions() {
    let db = urank_db();
    let got = kernels::positional_candidates_independent(&db, 4).select_with_duplicates();
    assert_eq!(got, brute_urank(&db, 4, false));

    // A dominant-probability tuple can win several positions in the
    // original semantics — the pathology Section 3.2 reports; the distinct
    // form the engine answers never repeats a tuple.
    let db = IndependentDb::from_pairs([(10.0, 0.05), (9.0, 0.05), (8.0, 0.999)]).unwrap();
    let dup = kernels::positional_candidates_independent(&db, 2).select_with_duplicates();
    assert_eq!(dup[0], dup[1], "same tuple at two positions");
    assert_eq!(dup, brute_urank(&db, 2, false));
    let distinct = RankQuery::urank(2).run(&db).unwrap().ranking;
    assert_eq!(distinct.len(), 2);
    assert_ne!(distinct.order()[0], distinct.order()[1]);
}

#[test]
fn urank_on_correlated_tree_matches_enumeration() {
    let tree = AndXorTree::from_x_tuples(&[
        vec![(10.0, 0.5), (6.0, 0.5)],
        vec![(9.0, 0.7)],
        vec![(8.0, 0.2), (7.0, 0.6)],
    ])
    .unwrap();
    let worlds = tree.enumerate_worlds(1 << 12).unwrap();
    let scores = tree.scores();
    let k = 3;
    let mut chosen: Vec<TupleId> = Vec::new();
    for j in 1..=k {
        let best = best_at_position(
            (0..tree.n_tuples())
                .map(|t| TupleId(t as u32))
                .filter(|t| !chosen.contains(t))
                .map(|t| (worlds.positional_probability(t, j, scores), t)),
        );
        chosen.extend(best);
    }
    let got = RankQuery::urank(k).run(&tree).unwrap().ranking;
    assert_eq!(got.order(), chosen);
}

#[test]
fn erank_matches_world_enumeration() {
    let db =
        IndependentDb::from_pairs([(10.0, 0.4), (9.0, 0.9), (8.0, 0.0), (7.0, 1.0), (6.0, 0.35)])
            .unwrap();
    let worlds = db.enumerate_worlds(1 << 20).unwrap();
    let scores = db.scores();
    // An absent tuple is charged the world's size.
    let want: Vec<f64> = (0..db.len())
        .map(|t| {
            worlds
                .worlds
                .iter()
                .map(|(w, p)| p * w.rank_of(TupleId(t as u32), &scores).unwrap_or(w.len()) as f64)
                .sum()
        })
        .collect();
    let tree = AndXorTree::from_independent(&db);
    for got in [
        RankQuery::erank().run(&db).unwrap(),
        RankQuery::erank().run(&tree).unwrap(),
    ] {
        let v = got.values.as_complex().unwrap();
        for t in 0..db.len() {
            assert!(
                (-v[t].re - want[t]).abs() < 1e-9,
                "t{t}: {} vs {}",
                -v[t].re,
                want[t]
            );
        }
        // The ranking is ascending in expected rank.
        for w in got.ranking.order().windows(2) {
            assert!(want[w[0].index()] <= want[w[1].index()] + 1e-12);
        }
    }
}

#[test]
fn erank_section_3_2_pathology_at_scale() {
    // Section 3.2 at Syn-IND scale: the 2nd-highest-score tuple with
    // p = 0.98 is out-ranked by the 1000th-highest-score tuple with
    // p = 0.99, because the absent-tuple penalty (1−p)·C dominates when the
    // expected world size C ≈ 50 000.
    let n = 100_000usize;
    let db = IndependentDb::from_pairs((0..n).map(|i| {
        let prob = match i {
            1 => 0.98,   // "t2": near-top score, slightly less probable
            999 => 0.99, // "t1000": much lower score, slightly more probable
            _ => 0.5,
        };
        ((n - i) as f64, prob)
    }))
    .unwrap();
    let got = RankQuery::erank().run(&db).unwrap();
    let er: Vec<f64> = got
        .values
        .as_complex()
        .unwrap()
        .iter()
        .map(|v| -v.re)
        .collect();
    assert!(
        er[999] < er[1],
        "E-Rank must rank t1000 (er {}) above t2 (er {})",
        er[999],
        er[1]
    );
    // The gap is driven by the (1−p)·C term: ≈ 0.01·C minus the ≈500
    // in-world positions t1000 gives up — small but decisive, exactly the
    // paper's "only slightly more probable" anecdote.
    assert!(er[1] > er[999] + 1.0, "gap should be decisive");
    let order = got.ranking.order();
    let pos = |t: usize| order.iter().position(|&x| x == TupleId(t as u32)).unwrap();
    assert!(pos(999) < pos(1));
}

#[test]
fn escore_is_invariant_to_correlations() {
    // Same marginals, different correlation structure ⇒ same E-Score.
    let correlated = AndXorTree::from_x_tuples(&[vec![(10.0, 0.5), (5.0, 0.5)]]).unwrap();
    let independent = AndXorTree::from_x_tuples(&[vec![(10.0, 0.5)], vec![(5.0, 0.5)]]).unwrap();
    let a = RankQuery::escore().run(&correlated).unwrap();
    let b = RankQuery::escore().run(&independent).unwrap();
    assert_eq!(
        a.values.as_complex().unwrap(),
        b.values.as_complex().unwrap()
    );
    assert_eq!(a.ranking.order(), b.ranking.order());
    // And the values are the PRF special case ω(t, i) = score(t).
    let db = IndependentDb::from_pairs([(10.0, 0.4), (5.0, 0.9), (3.0, 1.0)]).unwrap();
    let direct = RankQuery::escore().run(&db).unwrap();
    let via_prf = prf_rank(&db, &ScoreWeight);
    for (d, p) in direct.values.as_complex().unwrap().iter().zip(&via_prf) {
        assert!((d.re - p.re).abs() < 1e-12);
    }
}

#[test]
fn escore_ties_the_section_3_3_risk_reward_pair() {
    // t1 (score 100, p .5) vs t2 (score 50, p 1.0): E-Score ties them — the
    // knife-edge of the risk/reward trade-off.
    let db = IndependentDb::from_pairs([(100.0, 0.5), (50.0, 1.0)]).unwrap();
    let es = RankQuery::escore().run(&db).unwrap();
    let v = es.values.as_complex().unwrap();
    assert_eq!(v[0], v[1]);
    // Score ranking prefers t1, probability ranking prefers t2.
    assert_eq!(Ranking::from_keys(&db.scores()).order()[0], TupleId(0));
    assert_eq!(
        Ranking::from_keys(&db.probabilities()).order()[0],
        TupleId(1)
    );
}

#[test]
fn k_selection_dp_matches_exhaustive_search() {
    let db = IndependentDb::from_pairs([
        (100.0, 0.2),
        (90.0, 0.5),
        (80.0, 0.9),
        (40.0, 1.0),
        (30.0, 0.7),
    ])
    .unwrap();
    for k in 1..=4 {
        let (mut set, v) = kernels::k_selection(&db, k).unwrap();
        // The first subset attaining the maximum value.
        let mut best: Option<(Vec<TupleId>, f64)> = None;
        for cand in all_subsets(db.len(), k) {
            let cv = kernels::selection_value(&db, &cand);
            if best.as_ref().is_none_or(|(_, bv)| cv > *bv + 1e-15) {
                best = Some((cand, cv));
            }
        }
        let (best_set, best_v) = best.unwrap();
        assert!((v - best_v).abs() < 1e-12, "k={k}: {v} vs {best_v}");
        set.sort_unstable();
        assert_eq!(set, best_set, "k={k}");
    }
}

#[test]
fn selection_value_matches_world_expectation() {
    let db = IndependentDb::from_pairs([(10.0, 0.5), (6.0, 0.8), (2.0, 0.9)]).unwrap();
    let set = vec![TupleId(0), TupleId(2)];
    let worlds = db.enumerate_worlds(1 << 10).unwrap();
    let scores = db.scores();
    // The best present member's score; an empty selection scores 0.
    let expect: f64 = worlds
        .worlds
        .iter()
        .map(|(w, p)| {
            p * set
                .iter()
                .filter(|t| w.contains(**t))
                .map(|t| scores[t.index()])
                .fold(0.0f64, f64::max)
        })
        .sum();
    assert!((kernels::selection_value(&db, &set) - expect).abs() < 1e-12);
}

/// Random independent relations of six tuples for the consensus theorems.
fn consensus_dbs(seed: u64) -> impl Iterator<Item = IndependentDb> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..6).map(move |_| {
        IndependentDb::from_pairs((0..6).map(|i| (100.0 - i as f64, rng.gen_range(0.05..1.0))))
            .unwrap()
    })
}

#[test]
fn consensus_theorem_2_pt_k_minimises_expected_symmetric_difference() {
    for (trial, db) in consensus_dbs(21).enumerate() {
        let worlds = db.enumerate_worlds(1 << 16).unwrap();
        let scores = db.scores();
        for k in 1..=3 {
            let consensus = consensus_topk(&db, k);
            let d_star = worlds.expected_symmetric_difference(&consensus, k, &scores);
            for cand in all_subsets(db.len(), k) {
                let d = worlds.expected_symmetric_difference(&cand, k, &scores);
                assert!(
                    d_star <= d + 1e-9,
                    "trial {trial} k={k}: PT(k) answer {d_star} beaten by {cand:?} at {d}"
                );
            }
        }
    }
}

#[test]
fn consensus_theorem_3_prf_omega_minimises_weighted_distance() {
    let mut rng = StdRng::seed_from_u64(22);
    let k = 3;
    let prf_omega_topk = |db: &IndependentDb, weights: &[f64]| -> Vec<TupleId> {
        RankQuery::prf(TabulatedWeight::from_real(weights))
            .value_order(ValueOrder::RealPart)
            .top_k(weights.len())
            .run(db)
            .unwrap()
            .ranking
            .order()
            .to_vec()
    };
    for (trial, db) in consensus_dbs(23).enumerate() {
        let worlds = db.enumerate_worlds(1 << 16).unwrap();
        let scores = db.scores();
        // Random positive decreasing weights.
        let mut weights: Vec<f64> = (0..k).map(|_| rng.gen_range(0.1..2.0)).collect();
        weights.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let consensus = prf_omega_topk(&db, &weights);
        let d_star = worlds.expected_weighted_symmetric_difference(&consensus, &weights, &scores);
        for cand in all_subsets(db.len(), k) {
            let d = worlds.expected_weighted_symmetric_difference(&cand, &weights, &scores);
            assert!(
                d_star <= d + 1e-9,
                "trial {trial}: PRFω answer {d_star} beaten by {cand:?} at {d}"
            );
        }
        // Unit weights are the unweighted case: the same set as Theorem 2's.
        let mut unit = prf_omega_topk(&db, &vec![1.0; k]);
        let mut pt = consensus_topk(&db, k);
        unit.sort_unstable();
        pt.sort_unstable();
        assert_eq!(unit, pt, "trial {trial}");
    }
}

#[test]
fn consensus_example_6_expected_distance() {
    // Figure 1 database, k = 2, symmetric difference: the most consensus
    // answer is {t2, t5}.
    let mut b = TreeBuilder::new(NodeKind::And);
    let root = b.root();
    let x1 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
    b.add_leaf(x1, 0.4, 120.0).unwrap(); // t1 (id 0)
    let x2 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
    b.add_leaf(x2, 0.7, 130.0).unwrap(); // t2 (id 1)
    b.add_leaf(x2, 0.3, 80.0).unwrap(); // t3 (id 2)
    let x3 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
    b.add_leaf(x3, 0.4, 95.0).unwrap(); // t4 (id 3)
    b.add_leaf(x3, 0.6, 110.0).unwrap(); // t5 (id 4)
    let x4 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
    b.add_leaf(x4, 1.0, 105.0).unwrap(); // t6 (id 5)
    let tree = b.build().unwrap();
    let worlds = tree.enumerate_worlds(1 << 12).unwrap();
    let scores = tree.scores();
    let answer = vec![TupleId(1), TupleId(4)]; // {t2, t5}
    let d = worlds.expected_symmetric_difference(&answer, 2, scores);
    // Example 6 prints .112·2+.168·2+.048·4+.072·4+.168·2+.252·0+.072·4
    // +.108·2 = 1.88, but the pw4 term is a typo in the paper: pw4 =
    // {t1, t5, t6, t3} has top-2 {t1, t5}, whose symmetric difference from
    // {t2, t5} is {t1, t2} — distance 2, not 4. The correct expectation is
    // therefore 1.88 − .072·2 = 1.736.
    let expect = 0.112 * 2.0
        + 0.168 * 2.0
        + 0.048 * 4.0
        + 0.072 * 2.0
        + 0.168 * 2.0
        + 0.252 * 0.0
        + 0.072 * 4.0
        + 0.108 * 2.0;
    assert!((d - expect).abs() < 1e-12, "{d} vs {expect}");
    // And it is the minimum over all 2-subsets.
    for cand in all_subsets(6, 2) {
        let dc = worlds.expected_symmetric_difference(&cand, 2, scores);
        assert!(d <= dc + 1e-12, "{cand:?} at {dc}");
    }
    // The engine's consensus answer on the tree is that set.
    let mut got = RankQuery::consensus(2)
        .top_k(2)
        .run(&tree)
        .unwrap()
        .ranking
        .order()
        .to_vec();
    got.sort_unstable();
    assert_eq!(got, answer);
}
