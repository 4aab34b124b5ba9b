//! Semantics-conformance suite: Zhang & Chomicki's postulates for top-k
//! answers over probabilistic relations (*Semantics and Evaluation of
//! Top-k Queries in Probabilistic Databases*), checked as properties over
//! **every** [`Semantics`] variant and every backend:
//!
//! * **Exact-k**: a top-k query over a relation with ≥ k tuples answers
//!   with exactly k (distinct) tuples.
//! * **Faithfulness**: if `score(a) > score(b)` and `Pr(a) > Pr(b)` —
//!   `a` *dominates* `b` — then `a` ranks no worse than `b`.
//! * **Stability**: making a winner better (raising its score or
//!   probability) keeps it a winner; making a loser worse keeps it a
//!   loser.
//!
//! The postulates provably hold for the PRF family on **independent**
//! data — that is what the proptests pin, across the independent, x-tuple
//! tree, and graphical backends (the latter two fed independent instances,
//! so every backend faces the same ground truth). They are *not* theorems
//! in general: U-Rank and U-Top genuinely violate exact-k under
//! correlation (a rank that no world occupies), and correlation breaks
//! faithfulness for the whole family (a tuple AND-grouped under a stronger
//! partner can be unreachable at rank 1). Those violations are pinned as
//! counterexample tests below — the suite documents where the postulates
//! end, not just where they hold.

use prf::core::DcgWeight;
use prf::prelude::*;
use proptest::prelude::*;

const TOL: f64 = 1e-9;

// ---------------------------------------------------------------------
// Instance generation: independent ground truth for every backend
// ---------------------------------------------------------------------

/// Scored, open-interval probabilities: every rank ≤ n is occupied with
/// positive probability, so exact-k is well-posed for every semantics.
fn pairs_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0f64..1000.0, 0.05f64..0.95), 2..10).prop_map(|mut v| {
        // Distinct scores (ties are legal but make rank positions
        // ambiguous across backends' tie-breaking).
        for (i, p) in v.iter_mut().enumerate() {
            p.0 += i as f64 * 1e-3;
        }
        v
    })
}

fn independent_db(pairs: &[(f64, f64)]) -> IndependentDb {
    IndependentDb::from_pairs(pairs.iter().copied()).expect("valid pairs")
}

/// The same instance as a degenerate (singleton-group) x-tuple tree: the
/// tree backend fed independent data.
fn singleton_tree(pairs: &[(f64, f64)]) -> AndXorTree {
    AndXorTree::from_x_tuples(&pairs.iter().map(|&(s, p)| vec![(s, p)]).collect::<Vec<_>>())
        .expect("valid tree")
}

/// The same instance as a graphical model with singleton factors: the
/// junction-tree backend fed independent data.
fn singleton_network(pairs: &[(f64, f64)]) -> NetworkRelation {
    use prf::graphical::{Factor, MarkovNetwork, VarId};
    let factors = pairs
        .iter()
        .enumerate()
        .map(|(i, &(_, p))| Factor::singleton(VarId(i as u32), 1.0 - p, p))
        .collect();
    let net = MarkovNetwork::new(pairs.len(), factors);
    NetworkRelation::new(&net, pairs.iter().map(|&(s, _)| s).collect())
        .expect("one finite score per variable")
}

/// Every `Semantics` variant, parameterised for an `n`-tuple relation.
fn all_semantics(n: usize, k: usize) -> Vec<Semantics> {
    vec![
        Semantics::Prf(std::sync::Arc::new(DcgWeight)),
        Semantics::Prfe(Complex::real(0.9)),
        Semantics::Pt(k.min(n)),
        Semantics::UTop(k.min(n)),
        Semantics::URank(k.min(n)),
        Semantics::ERank,
        Semantics::EScore,
        Semantics::Consensus(k.min(n)),
    ]
}

/// The variants whose Υ is monotone under dominance on independent data —
/// the set the faithfulness/stability postulates are theorems for. U-Rank
/// and U-Top are checked separately (they hold on independent data too,
/// but through set/positional arguments rather than value monotonicity).
fn prf_family(n: usize, k: usize) -> Vec<Semantics> {
    vec![
        Semantics::Prf(std::sync::Arc::new(DcgWeight)),
        Semantics::Prfe(Complex::real(0.9)),
        Semantics::Pt(k.min(n)),
        Semantics::ERank,
        Semantics::EScore,
        Semantics::Consensus(k.min(n)),
    ]
}

fn top_k(rel: &(impl ProbabilisticRelation + ?Sized), sem: Semantics, k: usize) -> Vec<TupleId> {
    RankQuery::new(sem)
        .top_k(k)
        .run(rel)
        .expect("query evaluates")
        .ranking
        .order()
        .to_vec()
}

/// Position of `t` in the full ranking (0-based; smaller is better).
fn position(rel: &(impl ProbabilisticRelation + ?Sized), sem: Semantics, t: TupleId) -> usize {
    RankQuery::new(sem)
        .run(rel)
        .expect("query evaluates")
        .ranking
        .order()
        .iter()
        .position(|&x| x == t)
        .expect("every tuple is ranked")
}

// ---------------------------------------------------------------------
// Postulate 1: exact-k — every variant, every backend
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_k_holds_for_every_variant_and_backend(
        pairs in pairs_strategy(),
        k_seed in 1usize..8,
    ) {
        let n = pairs.len();
        let k = 1 + k_seed % n;
        let db = independent_db(&pairs);
        let tree = singleton_tree(&pairs);
        let net = singleton_network(&pairs);
        for sem in all_semantics(n, k) {
            // The graphical backend has no exact E-Rank/U-Top algorithm;
            // everything else must answer on all three backends.
            let on_net = !matches!(sem, Semantics::ERank | Semantics::UTop(_));
            // U-Rank genuinely violates exact-k even on independent data
            // (pinned below): a position's winner may already hold an
            // earlier position, leaving the rank unanswerable. For it we
            // assert the weaker guarantee: never *more* than k, distinct.
            let exact = !matches!(sem, Semantics::URank(_));
            let name = sem.name();
            let order = top_k(&db, sem.clone(), k);
            if exact {
                prop_assert_eq!(order.len(), k, "{} on IndependentDb", &name);
            } else {
                prop_assert!(order.len() <= k, "{} overshot k", &name);
            }
            let mut distinct = order.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), order.len(), "{} distinct members", &name);
            let t_order = top_k(&tree, sem.clone(), k);
            if exact {
                prop_assert_eq!(t_order.len(), k, "{} on AndXorTree", &name);
            }
            if on_net && exact {
                let n_order = top_k(&net, sem.clone(), k);
                prop_assert_eq!(n_order.len(), k, "{} on NetworkRelation", &name);
            }
            // U-Top's *set* answer is exactly k too, not just its ranking.
            if matches!(sem, Semantics::UTop(_)) {
                let set = RankQuery::new(sem).run(&db).unwrap().set.unwrap();
                prop_assert_eq!(set.members.len(), k, "U-Top set size");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Postulate 2: faithfulness — dominance is respected on independent data
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn faithfulness_holds_on_independent_data(
        mut pairs in pairs_strategy(),
        a_seed in 0usize..100,
        b_seed in 0usize..100,
    ) {
        let n = pairs.len();
        let a = a_seed % n;
        let b = {
            let b = b_seed % n;
            if b == a { (b + 1) % n } else { b }
        };
        // Force `a` to dominate `b` with solid margins (no fp ambiguity).
        pairs[a].0 = pairs[b].0 + 10.0;
        pairs[a].1 = (pairs[b].1 + 0.04).min(0.99);
        pairs[b].1 = (pairs[a].1 - 0.04).max(0.01);
        let (ta, tb) = (TupleId(a as u32), TupleId(b as u32));
        let db = independent_db(&pairs);
        let tree = singleton_tree(&pairs);
        let net = singleton_network(&pairs);
        for sem in prf_family(n, 1 + a_seed % n) {
            let name = sem.name();
            prop_assert!(
                position(&db, sem.clone(), ta) < position(&db, sem.clone(), tb),
                "{}: dominated tuple ranked better (IndependentDb)", &name
            );
            prop_assert!(
                position(&tree, sem.clone(), ta) < position(&tree, sem.clone(), tb),
                "{}: dominated tuple ranked better (AndXorTree)", &name
            );
            if !matches!(sem, Semantics::ERank) {
                prop_assert!(
                    position(&net, sem.clone(), ta) < position(&net, sem.clone(), tb),
                    "{}: dominated tuple ranked better (NetworkRelation)", &name
                );
            }
        }
        // (U-Rank is absent here on purpose: its greedy positional
        // selection violates faithfulness even on independent data — the
        // violation is pinned below in `urank_violates_faithfulness`.)
        // U-Top: the most probable top-k set never keeps the dominated
        // tuple while rejecting its dominator.
        for k in 1..=n {
            let set = RankQuery::utop(k).run(&db).unwrap().set.unwrap();
            let has_a = set.members.contains(&ta);
            let has_b = set.members.contains(&tb);
            prop_assert!(
                has_a || !has_b,
                "U-Top({k}): set kept the dominated tuple and dropped its dominator"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Postulate 3: stability — better winners stay in, worse losers stay out
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn stability_holds_on_independent_data(
        pairs in pairs_strategy(),
        k_seed in 1usize..8,
        raise_seed in 0usize..2,
    ) {
        let raise_score = raise_seed == 0;
        let n = pairs.len();
        let k = 1 + k_seed % n;
        let db = independent_db(&pairs);
        let max_score = pairs.iter().map(|p| p.0).fold(f64::MIN, f64::max);
        let min_score = pairs.iter().map(|p| p.0).fold(f64::MAX, f64::min);
        for sem in prf_family(n, k) {
            let name = sem.name();
            let order = top_k(&db, sem.clone(), k);
            // Better the winner: it must stay a winner.
            let winner = order[0];
            let mut raised = pairs.clone();
            if raise_score {
                raised[winner.index()].0 = max_score + 5.0;
            } else {
                raised[winner.index()].1 = (raised[winner.index()].1 + 0.2).min(0.999);
            }
            let after = top_k(&independent_db(&raised), sem.clone(), k);
            prop_assert!(
                after.contains(&winner),
                "{}: bettering the top winner evicted it", &name
            );
            // Worsen a loser: it must stay a loser.
            if k < n {
                let full = RankQuery::new(sem.clone()).run(&db).unwrap();
                let loser = *full.ranking.order().last().unwrap();
                let mut lowered = pairs.clone();
                if raise_score {
                    lowered[loser.index()].0 = min_score - 5.0;
                } else {
                    lowered[loser.index()].1 = (lowered[loser.index()].1 - 0.2).max(0.001);
                }
                let after = top_k(&independent_db(&lowered), sem.clone(), k);
                prop_assert!(
                    !after.contains(&loser),
                    "{}: worsening the bottom loser admitted it", &name
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Where the postulates end: pinned violations (genuine, not bugs)
// ---------------------------------------------------------------------

/// An xor pair leaves rank 3 unoccupied in every world: `{a ⊕ b}` with a
/// certain `c` means every world holds exactly 2 tuples — `Pr(r(t) = 3)`
/// is 0 for every `t`. U-Rank(3) therefore **cannot** answer with 3
/// tuples: exact-k is genuinely violated under correlation.
#[test]
fn urank_violates_exact_k_under_correlation() {
    let tree =
        AndXorTree::from_x_tuples(&[vec![(10.0, 0.5), (9.0, 0.5)], vec![(8.0, 1.0)]]).unwrap();
    let res = RankQuery::urank(3).run(&tree).unwrap();
    assert_eq!(
        res.ranking.order().len(),
        2,
        "only two positions are ever occupied"
    );
    // Sanity: a well-behaved independent instance does fill all three
    // positions — each rank has a distinct most-probable occupant.
    let db = IndependentDb::from_pairs([(10.0, 0.9), (9.0, 0.9), (8.0, 0.9)]).unwrap();
    assert_eq!(
        RankQuery::urank(3).run(&db).unwrap().ranking.order().len(),
        3
    );
}

/// U-Rank falls short of k even on **independent** data: with
/// `(10, 0.5), (9, 0.5), (8, 1.0)` the certain tuple `t2` is the most
/// probable occupant of *both* rank 2 (Pr ½) and rank 3 (Pr ¼); once it
/// takes rank 2, no remaining tuple has positive probability at rank 3
/// (`t0`/`t1` can never be third), so U-Rank(3) answers with 2 tuples.
#[test]
fn urank_falls_short_even_on_independent_data() {
    let db = IndependentDb::from_pairs([(10.0, 0.5), (9.0, 0.5), (8.0, 1.0)]).unwrap();
    let res = RankQuery::urank(3).run(&db).unwrap();
    assert_eq!(res.ranking.order(), &[TupleId(0), TupleId(2)]);
}

/// U-Rank violates faithfulness on independent data: with
/// `a = (3, 0.3)`, `b = (2, 0.25)`, `c = (1, 1.0)`, `a` dominates `b` in
/// both score and probability, yet U-Rank(2) answers `[c, b]` — the
/// certain low-score `c` wins rank 1 (Pr 0.525 vs `a`'s 0.3), and rank 2
/// falls to `b` (Pr 0.075) because `a` at rank 2 is impossible (nothing
/// outscores it). The dominated tuple is in the answer; its dominator is
/// not.
#[test]
fn urank_violates_faithfulness() {
    let db = IndependentDb::from_pairs([(3.0, 0.3), (2.0, 0.25), (1.0, 1.0)]).unwrap();
    let (a, b, c) = (TupleId(0), TupleId(1), TupleId(2));
    let res = RankQuery::urank(2).run(&db).unwrap();
    assert_eq!(res.ranking.order(), &[c, b]);
    assert!(!res.ranking.order().contains(&a));
}

/// Same instance, U-Top(3): no 3-tuple set is ever the exact top-3 (no
/// world holds 3 tuples), so there is no set answer at all.
#[test]
fn utop_violates_exact_k_under_correlation() {
    let tree =
        AndXorTree::from_x_tuples(&[vec![(10.0, 0.5), (9.0, 0.5)], vec![(8.0, 1.0)]]).unwrap();
    let err = RankQuery::utop(3).run(&tree).unwrap_err();
    assert!(matches!(err, QueryError::NoSetAnswer), "{err}");
}

/// Correlation breaks faithfulness for the whole PRF family: `t1`
/// (score 10, marginal 0.5) AND-grouped under `u` (score 20) can never be
/// at rank 1 — `u` outranks it in every world they share — so PT(1) gives
/// it Υ = 0, while the *dominated* independent `t2` (score 5, marginal
/// 0.3) earns Υ = 0.3·0.5 = 0.15 and ranks above it. The postulate's
/// independence assumption is load-bearing.
#[test]
fn correlation_breaks_faithfulness() {
    use prf::pdb::{NodeKind, TreeBuilder};
    let mut b = TreeBuilder::new(NodeKind::And);
    let root = b.root();
    // ⟨u, t1⟩ live and die together (an AND group present with prob 0.5).
    let x1 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
    let grp = b.add_inner(x1, NodeKind::And, 0.5).unwrap();
    let u = b.add_leaf(grp, 1.0, 20.0).unwrap();
    let t1 = b.add_leaf(grp, 1.0, 10.0).unwrap();
    // t2 is independent of the group.
    let x2 = b.add_inner(root, NodeKind::Xor, 1.0).unwrap();
    let t2 = b.add_leaf(x2, 0.3, 5.0).unwrap();
    let tree = b.build().unwrap();

    // t1 dominates t2 in both coordinates…
    let marginals = tree.marginals();
    assert!(tree.scores()[t1.index()] > tree.scores()[t2.index()]);
    assert!(marginals[t1.index()] > marginals[t2.index()]);

    // …yet PT(1) ranks t2 strictly above t1.
    let res = RankQuery::pt(1).run(&tree).unwrap();
    let vals = res.values.as_complex().unwrap();
    assert!(vals[t1.index()].re.abs() < TOL, "t1 can never be rank 1");
    assert!((vals[t2.index()].re - 0.15).abs() < TOL);
    let order = res.ranking.order();
    let pos = |t: TupleId| order.iter().position(|&x| x == t).unwrap();
    assert!(
        pos(t2) < pos(t1),
        "the dominated tuple wins under correlation"
    );
    let _ = u;
}
