//! Failure-injection and edge-case tests across the public API: invalid
//! inputs must fail loudly and early, and degenerate-but-valid inputs must
//! produce sensible answers.

use prf::core::independent::{prf_rank, prfe_rank_log};
use prf::core::learn::{learn_prf_omega, learn_prfe_alpha, learn_prfe_alpha_topk, RankLearnConfig};
use prf::core::mixture::{approximate_weights, DftApproxConfig};
use prf::core::query::batch::{SharedRequest, SharedWalkSpec};
use prf::core::query::{kernels, PreparedState};
use prf::core::spectrum::{prfe_ranking_at, spectrum_endpoints};
use prf::core::{
    LiveRelation, ProbabilisticRelation, Ranking, StepWeight, TabulatedWeight, ValueOrder,
};
use prf::pdb::{
    AndXorTree, AttributeUncertainDb, IndependentDb, NodeKind, PdbError, TreeBuilder, TupleId,
    UncertainTuple,
};
use prf::prelude::{
    Algorithm, CancelToken, Complex, NumericMode, PreparedRelation, QueryBatch, QueryError,
    RankQuery, Semantics, Tuple, WeightFunction,
};

// ---------------------------------------------------------------------
// Invalid inputs
// ---------------------------------------------------------------------

#[test]
fn invalid_probabilities_are_rejected_everywhere() {
    assert!(matches!(
        IndependentDb::from_pairs([(1.0, -0.5)]),
        Err(PdbError::InvalidProbability { .. })
    ));
    assert!(matches!(
        IndependentDb::from_pairs([(1.0, f64::INFINITY)]),
        Err(PdbError::InvalidProbability { .. })
    ));
    assert!(matches!(
        UncertainTuple::new(vec![(1.0, f64::NAN)]),
        Err(PdbError::InvalidProbability { .. })
    ));

    let mut b = TreeBuilder::new(NodeKind::Xor);
    let root = b.root();
    assert!(matches!(
        b.add_leaf(root, 1.5, 1.0),
        Err(PdbError::InvalidProbability { .. })
    ));
}

#[test]
fn nan_scores_are_rejected() {
    assert!(matches!(
        IndependentDb::from_pairs([(f64::NAN, 0.5)]),
        Err(PdbError::InvalidScore { .. })
    ));
    let mut b = TreeBuilder::new(NodeKind::And);
    let root = b.root();
    assert!(matches!(
        b.add_leaf(root, 1.0, f64::NAN),
        Err(PdbError::InvalidScore { .. })
    ));
}

/// A NaN score used to be accepted by the junction-tree adapter and then
/// panic the first query; a score count that differs from the variable
/// count used to panic at construction. Both are construction errors now.
#[test]
fn network_relation_validates_its_scores() {
    use prf::graphical::{Factor, MarkovNetwork, NetworkRelation, VarId};
    let net = MarkovNetwork::new(
        2,
        vec![Factor::new(
            vec![VarId(0), VarId(1)],
            vec![0.3, 0.1, 0.1, 0.5],
        )],
    );
    assert!(matches!(
        NetworkRelation::new(&net, vec![f64::NAN, 1.0]),
        Err(PdbError::InvalidScore { .. })
    ));
    assert!(matches!(
        NetworkRelation::new(&net, vec![1.0]),
        Err(PdbError::Structure(_))
    ));
    assert!(matches!(
        NetworkRelation::from_junction(net.junction_tree(), vec![3.0, 2.0, 1.0]),
        Err(PdbError::Structure(_))
    ));
    // Infinite scores are ordered, so they rank.
    let rel = NetworkRelation::new(&net, vec![f64::INFINITY, 1.0]).unwrap();
    let top = RankQuery::pt(1).run(&rel).unwrap();
    assert_eq!(top.ranking.order()[0], TupleId(0));
}

#[test]
fn overfull_xor_nodes_fail_at_build() {
    let mut b = TreeBuilder::new(NodeKind::Xor);
    let root = b.root();
    b.add_leaf(root, 0.6, 1.0).unwrap();
    b.add_leaf(root, 0.6, 2.0).unwrap();
    assert!(matches!(
        b.build(),
        Err(PdbError::XorProbabilityOverflow { .. })
    ));
}

#[test]
fn structural_misuse_is_reported() {
    let mut b = TreeBuilder::new(NodeKind::And);
    let root = b.root();
    let _leaf = b.add_leaf(root, 1.0, 1.0).unwrap();
    // Children under a leaf (node id 1 is the leaf).
    assert!(matches!(
        b.add_inner(prf::pdb::NodeId(1), NodeKind::Xor, 1.0),
        Err(PdbError::Structure(_))
    ));
    // Probability-bearing edge under an ∧ node.
    assert!(matches!(
        b.add_leaf(root, 0.5, 2.0),
        Err(PdbError::Structure(_))
    ));
    // Unknown parent id.
    assert!(matches!(
        b.add_leaf(prf::pdb::NodeId(99), 1.0, 2.0),
        Err(PdbError::Structure(_))
    ));
}

#[test]
fn learners_reject_unusable_user_rankings() {
    let sample = IndependentDb::from_pairs([(3.0, 0.5), (2.0, 0.7), (1.0, 0.9)]).unwrap();
    let cfg = RankLearnConfig {
        h: 2,
        epochs: 2,
        ..Default::default()
    };
    let out_of_range = [TupleId(0), TupleId(3)];
    for ranking in [&[][..], &out_of_range[..]] {
        let errs = [
            learn_prfe_alpha(&sample, ranking, 2).unwrap_err(),
            learn_prfe_alpha_topk(&sample, ranking, 2, 1).unwrap_err(),
            learn_prf_omega(&sample, ranking, &cfg).unwrap_err(),
        ];
        for err in errs {
            assert!(
                matches!(err, QueryError::InvalidParameter(_)),
                "{ranking:?}: {err}"
            );
        }
    }
    // A valid ranking still learns.
    let valid = [TupleId(2), TupleId(1), TupleId(0)];
    assert!((0.0..=1.0).contains(&learn_prfe_alpha(&sample, &valid, 2).unwrap()));
    assert_eq!(learn_prf_omega(&sample, &valid, &cfg).unwrap().len(), 2);
}

#[test]
fn live_log_domain_prfe_rejects_an_invalid_alpha() {
    let live =
        LiveRelation::new(IndependentDb::from_pairs([(3.0, 0.5), (2.0, 0.7), (1.0, 0.9)]).unwrap());
    let query = |alpha| RankQuery::prfe(alpha).algorithm(Algorithm::LogDomain);
    for alpha in [1.5, f64::NAN] {
        let err = query(alpha).run(&live).unwrap_err();
        assert!(
            matches!(err, QueryError::InvalidParameter(_)),
            "α={alpha}: {err}"
        );
    }
    // A valid α is still answered.
    assert_eq!(query(0.5).run(&live).unwrap().ranking.len(), 3);
}

#[test]
fn non_finite_prfe_bases_are_rejected() {
    // n ≥ 2 sends Auto to ExactGf, where NaN Υ values would reach the
    // ranking sort and panic: the base must fail as a parameter error first.
    let db = IndependentDb::from_pairs([(3.0, 0.5), (2.0, 0.7), (1.0, 0.9)]).unwrap();
    let tree = AndXorTree::from_independent(&db);
    let bases = [
        Complex::real(f64::NAN),
        Complex::real(f64::INFINITY),
        Complex::new(0.5, f64::INFINITY),
        Complex::new(f64::NEG_INFINITY, f64::NAN),
    ];
    for alpha in bases {
        for algorithm in [Algorithm::Auto, Algorithm::ExactGf, Algorithm::Scaled] {
            let q = RankQuery::prfe_complex(alpha).algorithm(algorithm);
            for err in [q.run(&db).unwrap_err(), q.run(&tree).unwrap_err()] {
                assert!(
                    matches!(err, QueryError::InvalidParameter(_)),
                    "α={alpha} {algorithm:?}: {err}"
                );
            }
        }
    }
    assert!(matches!(
        RankQuery::prfe(f64::NAN).run(&db).unwrap_err(),
        QueryError::InvalidParameter(_)
    ));
}

#[test]
fn escore_of_an_impossible_tuple_with_infinite_score_is_zero() {
    // 0·∞ would be NaN; a tuple that never exists expects nothing.
    let db =
        IndependentDb::from_pairs([(f64::INFINITY, 0.0), (f64::NEG_INFINITY, 0.0), (2.0, 0.5)])
            .unwrap();
    let r = RankQuery::escore().run(&db).unwrap();
    let vals = r.values.as_complex().unwrap();
    assert_eq!(vals[0], Complex::ZERO);
    assert_eq!(vals[1], Complex::ZERO);
    assert_eq!(vals[2], Complex::real(1.0));
    assert_eq!(r.ranking.order()[0], prf::pdb::TupleId(2));
    // A present tuple with an infinite score still ranks first.
    let db = IndependentDb::from_pairs([(2.0, 0.5), (f64::INFINITY, 0.1)]).unwrap();
    let r = RankQuery::escore().run(&db).unwrap();
    assert_eq!(r.ranking.order()[0], prf::pdb::TupleId(1));
}

#[test]
fn urank_clamps_k_to_the_relation() {
    // Positions beyond n never get candidates: a huge k must neither
    // overflow nor allocate one list per unfillable position.
    let db = IndependentDb::from_pairs([(3.0, 0.5), (2.0, 0.7), (1.0, 0.9)]).unwrap();
    let tree =
        AndXorTree::from_x_tuples(&[vec![(3.0, 0.5), (2.0, 0.4)], vec![(1.0, 0.9)]]).unwrap();
    for k in [usize::MAX, 1 << 40, 4] {
        let a = RankQuery::urank(k).run(&db).unwrap();
        assert_eq!(
            a.ranking.order(),
            RankQuery::urank(3).run(&db).unwrap().ranking.order()
        );
        let b = RankQuery::urank(k).run(&tree).unwrap();
        assert_eq!(
            b.ranking.order(),
            RankQuery::urank(3).run(&tree).unwrap().ranking.order()
        );
        assert!(b.ranking.len() <= tree.n_tuples());
    }
}

#[test]
fn world_enumeration_limits_are_enforced() {
    let db = IndependentDb::from_pairs((0..30).map(|i| (i as f64, 0.5))).unwrap();
    assert!(matches!(
        db.enumerate_worlds(1000),
        Err(PdbError::TooManyWorlds { .. })
    ));
    let tree = AndXorTree::from_independent(&db);
    assert!(matches!(
        tree.enumerate_worlds(1000),
        Err(PdbError::TooManyWorlds { .. })
    ));
}

// ---------------------------------------------------------------------
// Degenerate-but-valid inputs
// ---------------------------------------------------------------------

#[test]
fn empty_relation_everywhere() {
    let db = IndependentDb::from_pairs(std::iter::empty::<(f64, f64)>()).unwrap();
    assert!(prf_rank(&db, &StepWeight { h: 3 }).is_empty());
    assert!(prfe_rank_log(&db, 0.5).unwrap().is_empty());
    assert!(kernels::expected_ranks_independent(&db).is_empty());
    assert_eq!(
        RankQuery::utop(1).run(&db).unwrap_err(),
        QueryError::NoSetAnswer
    );
    assert!(kernels::k_selection(&db, 1).is_none());
    let r = Ranking::from_keys(&[]);
    assert!(r.is_empty());
    assert!(r.top_k(5).is_empty());
}

#[test]
fn all_certain_tuples_rank_by_score() {
    let db = IndependentDb::from_pairs([(3.0, 1.0), (9.0, 1.0), (6.0, 1.0)]).unwrap();
    // Deterministic data: every semantics must agree with the score order.
    let score_order = Ranking::from_keys(&db.scores());
    let pt = Ranking::from_values(&prf_rank(&db, &StepWeight { h: 2 }), ValueOrder::RealPart);
    assert_eq!(pt.top_k(2), score_order.top_k(2));
    let er = RankQuery::erank().run(&db).unwrap().ranking;
    assert_eq!(er.order(), score_order.order());
    let prfe = Ranking::from_keys(&prfe_rank_log(&db, 0.7).unwrap());
    assert_eq!(prfe.order(), score_order.order());
    let utop = RankQuery::utop(2).run(&db).unwrap().set.unwrap();
    assert_eq!(&utop.members, score_order.top_k(2));
    assert!((utop.log_prob.exp() - 1.0).abs() < 1e-12);
}

#[test]
fn all_impossible_tuples() {
    let db = IndependentDb::from_pairs([(3.0, 0.0), (9.0, 0.0)]).unwrap();
    let v = prf_rank(&db, &StepWeight { h: 2 });
    assert!(v.iter().all(|u| u.re == 0.0));
    assert_eq!(
        RankQuery::utop(1).run(&db).unwrap_err(),
        QueryError::NoSetAnswer
    );
    let worlds = db.enumerate_worlds(16).unwrap();
    assert_eq!(worlds.len(), 1);
    assert!(worlds.worlds[0].0.is_empty());
}

#[test]
fn duplicate_scores_rank_deterministically() {
    let db = IndependentDb::from_pairs([(5.0, 0.5), (5.0, 0.5), (5.0, 0.5)]).unwrap();
    let a = Ranking::from_keys(&prfe_rank_log(&db, 0.8).unwrap());
    let b = Ranking::from_keys(&prfe_rank_log(&db, 0.8).unwrap());
    assert_eq!(a.order(), b.order());
    // Tie-break is by tuple id.
    assert_eq!(a.order()[0], prf::pdb::TupleId(0));
}

#[test]
fn attribute_db_with_empty_alternatives() {
    // A tuple with no alternatives never exists; ranking still works.
    let db = AttributeUncertainDb::new(vec![
        UncertainTuple::new(vec![]).unwrap(),
        UncertainTuple::new(vec![(5.0, 0.7)]).unwrap(),
    ]);
    let v = prf::core::attribute::prf_rank_uncertain(&db, &StepWeight { h: 1 }).unwrap();
    assert_eq!(v[0], prf::numeric::Complex::ZERO);
    assert!((v[1].re - 0.7).abs() < 1e-12);
}

#[test]
fn single_tuple_tree() {
    let tree = AndXorTree::from_x_tuples(&[vec![(42.0, 0.25)]]).unwrap();
    let d = prf::core::tree::rank_distributions_tree(&tree);
    assert!((d[0][0] - 0.25).abs() < 1e-12);
    let er = prf::core::tree::expected_ranks_tree(&tree);
    // Present (rank 1) w.p. .25; absent contributes |pw| = 0.
    assert!((er[0] - 0.25).abs() < 1e-12);
}

// ---------------------------------------------------------------------
// Batched queries: API failure modes and degenerate interactions
// ---------------------------------------------------------------------

#[test]
fn empty_batch_is_rejected_loudly() {
    let db = IndependentDb::from_pairs([(1.0, 0.5)]).unwrap();
    // Both compiling and running an empty batch are errors — never an
    // empty answer that a caller could mistake for "no results found".
    assert_eq!(
        QueryBatch::new().run(&db).unwrap_err(),
        QueryError::EmptyBatch
    );
    assert_eq!(
        QueryBatch::new().compile(&db).unwrap_err(),
        QueryError::EmptyBatch
    );
    let tree = AndXorTree::from_independent(&db);
    assert_eq!(
        QueryBatch::new().run(&tree).unwrap_err(),
        QueryError::EmptyBatch
    );
}

#[test]
fn duplicate_semantics_are_answered_independently() {
    let db = IndependentDb::from_pairs([(9.0, 0.4), (8.0, 0.8), (7.0, 0.5)]).unwrap();
    let results = QueryBatch::new()
        .add(Semantics::Pt(2))
        .add(Semantics::Pt(2))
        .add_query(RankQuery::pt(2).top_k(1))
        .run(&db)
        .unwrap();
    assert_eq!(results.len(), 3, "duplicates are not deduplicated");
    assert_eq!(results[0].ranking.order(), results[1].ranking.order());
    assert_eq!(
        results[0].values.as_complex().unwrap(),
        results[1].values.as_complex().unwrap()
    );
    // The third duplicate keeps its own option overrides.
    assert_eq!(results[2].ranking.len(), 1);
}

#[test]
fn batch_mixing_numeric_modes_keeps_each_entry_in_its_mode() {
    let db = IndependentDb::from_pairs([(9.0, 0.4), (8.0, 0.8), (7.0, 0.5)]).unwrap();
    let results = QueryBatch::new()
        .add_query(RankQuery::prfe(0.7).algorithm(Algorithm::ExactGf))
        .add_query(RankQuery::prfe(0.7).algorithm(Algorithm::LogDomain))
        .add_query(RankQuery::prfe(0.7).algorithm(Algorithm::Scaled))
        .run(&db)
        .unwrap();
    assert_eq!(results[0].report.numeric_mode, NumericMode::Complex);
    assert_eq!(results[1].report.numeric_mode, NumericMode::LogDomain);
    assert_eq!(results[2].report.numeric_mode, NumericMode::Scaled);
    // All three modes agree on the ranking, like the single queries do.
    assert_eq!(results[0].ranking.order(), results[1].ranking.order());
    assert_eq!(results[0].ranking.order(), results[2].ranking.order());
    // …and a mode that is invalid for its parameters still fails the whole
    // batch, exactly like the single query would.
    let err = QueryBatch::new()
        .add_query(RankQuery::prfe(0.7))
        .add_query(RankQuery::prfe_complex(Complex::new(0.5, 0.5)).algorithm(Algorithm::LogDomain))
        .run(&db)
        .unwrap_err();
    assert!(matches!(err, QueryError::InvalidParameter(_)), "{err}");
}

#[test]
fn nan_weights_fail_the_query_instead_of_panicking() {
    // A NaN in a weight table makes every Υ NaN; ranking those values is
    // an error of that query, capped or not, alone or in a batch.
    let db = IndependentDb::from_pairs([(3.0, 0.5), (2.0, 0.7), (1.0, 0.9)]).unwrap();
    let query = RankQuery::prf(TabulatedWeight::from_real(&[f64::NAN, 1.0]));
    for q in [query.clone(), query.clone().top_k(1)] {
        let err = q.run(&db).unwrap_err();
        assert!(matches!(err, QueryError::InvalidParameter(_)), "{err}");
    }
    let out = QueryBatch::new()
        .add_query(query)
        .add_query(RankQuery::pt(2))
        .run_isolated(&db);
    assert!(matches!(out[0], Err(QueryError::InvalidParameter(_))));
    assert_eq!(out[1].as_ref().unwrap().ranking.len(), 3);
}

#[test]
fn dft_approx_without_terms_is_a_parameter_error() {
    let db = IndependentDb::from_pairs([(3.0, 0.5), (2.0, 0.7), (1.0, 0.9)]).unwrap();
    let q = RankQuery::pt(2).algorithm(Algorithm::DftApprox(DftApproxConfig::full(0)));
    let err = q.run(&db).unwrap_err();
    assert!(matches!(err, QueryError::InvalidParameter(_)), "{err}");
    let one = RankQuery::pt(2).algorithm(Algorithm::DftApprox(DftApproxConfig::full(1)));
    assert_eq!(one.run(&db).unwrap().ranking.len(), 3);
}

#[test]
fn dft_approx_of_an_infinite_weight_is_a_parameter_error() {
    // ∞ passes the rank-only probe (∞ == ∞); the fit must not see it, even
    // on an empty relation.
    let empty = IndependentDb::from_pairs(std::iter::empty()).unwrap();
    let db = IndependentDb::from_pairs([(3.0, 0.5), (2.0, 0.7), (1.0, 0.9)]).unwrap();
    for table in [[f64::INFINITY, 1.0], [1.0, f64::NEG_INFINITY]] {
        let q = RankQuery::prf(TabulatedWeight::from_real(&table))
            .algorithm(Algorithm::DftApprox(DftApproxConfig::full(2)));
        for rel in [&empty, &db] {
            let err = q.run(rel).unwrap_err();
            assert!(matches!(err, QueryError::InvalidParameter(_)), "{err}");
        }
    }
}

#[test]
fn spectrum_ranking_outside_the_unit_interval_is_an_error() {
    let db = IndependentDb::from_pairs([(9.0, 0.4), (8.0, 0.8), (7.0, 0.5)]).unwrap();
    for alpha in [1.5, -0.1, f64::NAN] {
        assert!(prfe_rank_log(&db, alpha).is_none(), "α = {alpha}");
        assert!(
            matches!(
                prfe_ranking_at(&db, alpha),
                Err(QueryError::InvalidParameter(_))
            ),
            "α = {alpha}"
        );
    }
    assert_eq!(prfe_ranking_at(&db, 0.5).unwrap().len(), 3);
    assert_eq!(
        prfe_ranking_at(&db, 0.0).unwrap(),
        spectrum_endpoints(&db).0
    );
}

#[test]
fn log_walk_outside_the_unit_interval_is_not_served() {
    // The public walk takes any log-domain α. The independent recurrence
    // needs α ∈ [0, 1] and answers "cannot serve" otherwise; the tree walk
    // evaluates the same request in scaled arithmetic. Neither panics.
    let db = IndependentDb::from_pairs([(9.0, 0.4), (8.0, 0.8), (7.0, 0.5)]).unwrap();
    let tree =
        AndXorTree::from_x_tuples(&[vec![(9.0, 0.4), (8.0, 0.5)], vec![(7.0, 0.5)]]).unwrap();
    for alpha in [1.5, -0.1, f64::NAN] {
        let spec = SharedWalkSpec {
            requests: vec![SharedRequest::PrfeLog(alpha)],
            threads: None,
            cancel: None,
        };
        assert!(
            db.run_shared_walk_prepared(&spec, &PreparedState::empty())
                .is_none(),
            "α = {alpha}"
        );
        let answer = tree
            .run_shared_walk_prepared(&spec, &tree.prepare())
            .map(|out| out.answers.len());
        assert_eq!(answer, Some(1), "α = {alpha}");
    }
}

#[test]
fn batch_top_k_interaction() {
    let db = IndependentDb::from_pairs([(9.0, 0.4), (8.0, 0.8), (7.0, 0.5), (6.0, 0.9)]).unwrap();
    let results = QueryBatch::new()
        .add(Semantics::Pt(3)) // inherits the batch default below
        .add_query(RankQuery::prfe(0.8).top_k(1)) // entry override wins
        .add_query(RankQuery::erank().top_k(99)) // clamps to n, like singles
        .top_k(2)
        .run(&db)
        .unwrap();
    assert_eq!(results[0].ranking.len(), 2);
    assert_eq!(results[0].report.truncated_to, Some(2));
    assert_eq!(results[1].ranking.len(), 1);
    assert_eq!(results[1].report.truncated_to, Some(1));
    assert_eq!(results[2].ranking.len(), db.len());
    assert_eq!(results[2].report.truncated_to, Some(99));
    // Values keep one entry per tuple: a capped entry whose walk stopped
    // early holds its worst value beyond the visited prefix, and only the
    // ranking is cut to k.
    assert_eq!(results[1].values.len(), db.len());
}

#[test]
fn parallel_batch_on_single_tuple_relation() {
    // More threads than tuples: the sharded walk must clamp, not panic,
    // and stay answer-equivalent to the serial single queries.
    let tree = AndXorTree::from_x_tuples(&[vec![(42.0, 0.25)]]).unwrap();
    let results = QueryBatch::new()
        .add(Semantics::Pt(1))
        .add(Semantics::Prfe(Complex::real(0.9)))
        .add(Semantics::ERank)
        .parallel(8)
        .run(&tree)
        .unwrap();
    let pt = RankQuery::pt(1).run(&tree).unwrap();
    assert_eq!(
        results[0].values.as_complex().unwrap(),
        pt.values.as_complex().unwrap()
    );
    let er = RankQuery::erank().run(&tree).unwrap();
    assert_eq!(results[2].ranking.order(), er.ranking.order());
    // The same holds on a 1-tuple independent relation.
    let db = IndependentDb::from_pairs([(42.0, 0.25)]).unwrap();
    let results = QueryBatch::new()
        .add(Semantics::Pt(1))
        .add(Semantics::ERank)
        .parallel(8)
        .run(&db)
        .unwrap();
    assert!((results[0].values.as_complex().unwrap()[0].re - 0.25).abs() < 1e-12);
}

#[test]
fn mixture_of_constant_zero_weight() {
    // Approximating the zero function: every Υ is ~0 and ranking is by id.
    let mix = approximate_weights(&|_| 0.0, 16, &DftApproxConfig::refined(4));
    let db = IndependentDb::from_pairs([(2.0, 0.5), (1.0, 0.5)]).unwrap();
    let ups = mix.upsilons_independent_fast(&db);
    for u in &ups {
        assert!(u.abs() < 1e-9);
    }
}

/// A truncated weight that trips `token` the first time it is read.
struct TripsOnFirstRead {
    token: CancelToken,
}

impl WeightFunction for TripsOnFirstRead {
    fn weight(&self, _tuple: &Tuple, _rank: usize) -> Complex {
        self.token.cancel();
        Complex::ONE
    }
    fn truncation(&self) -> Option<usize> {
        Some(3)
    }
}

#[test]
fn the_x_tuple_kernel_polls_cancellation_between_blocks() {
    // The token trips inside the kernel's first block (the weight's first
    // read); the poll before the second block must turn the query into
    // `TimedOut` instead of answering it. Uncapped and capped alike, alone
    // and prepared.
    let groups: Vec<Vec<(f64, f64)>> = (0..100)
        .map(|i| vec![(f64::from(i), 0.3), (f64::from(i) + 0.5, 0.4)])
        .collect();
    let tree = AndXorTree::from_x_tuples(&groups).unwrap();
    let prepared = PreparedRelation::from_relation(tree.clone());
    for top_k in [None, Some(3)] {
        for prepared_route in [false, true] {
            let token = CancelToken::new();
            let mut query = RankQuery::prf(TripsOnFirstRead {
                token: token.clone(),
            })
            .cancel_token(token);
            if let Some(k) = top_k {
                query = query.top_k(k);
            }
            let got = if prepared_route {
                query.run(&prepared)
            } else {
                query.run(&tree)
            };
            assert!(
                matches!(got, Err(QueryError::TimedOut)),
                "top_k {top_k:?}, prepared {prepared_route}: {:?}",
                got.map(|r| r.ranking.len())
            );
        }
    }
}
