//! Cross-crate property-based tests: randomized invariants over the public
//! API.

use proptest::prelude::*;

use prf::core::independent::{prf_rank, prfe_rank, rank_distributions};
use prf::core::{Ranking, StepWeight, ValueOrder};
use prf::metrics::{kendall_topk, kendall_topk_naive, overlap_fraction};
use prf::numeric::Complex;
use prf::pdb::{AndXorTree, IndependentDb, TupleId};

/// Strategy: a small random independent relation.
fn small_db() -> impl Strategy<Value = IndependentDb> {
    proptest::collection::vec((0.0f64..100.0, 0.0f64..=1.0), 1..12)
        .prop_map(|pairs| IndependentDb::from_pairs(pairs).expect("generated pairs are valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Positional probabilities form a sub-distribution summing to the
    /// tuple's existence probability.
    #[test]
    fn rank_distributions_are_subdistributions(db in small_db()) {
        let dists = rank_distributions(&db);
        for (t, dist) in dists.iter().enumerate() {
            let sum: f64 = dist.iter().sum();
            prop_assert!(dist.iter().all(|&p| (-1e-12..=1.0 + 1e-12).contains(&p)));
            prop_assert!((sum - db.tuple(TupleId(t as u32)).prob).abs() < 1e-9);
        }
    }

    /// PT(h) values are monotone in h and bounded by the existence
    /// probability.
    #[test]
    fn pt_values_monotone_in_h(db in small_db()) {
        let n = db.len();
        let mut prev = vec![0.0; n];
        for h in 1..=n {
            let v = prf_rank(&db, &StepWeight { h });
            for t in 0..n {
                prop_assert!(v[t].re + 1e-12 >= prev[t], "h={h} t={t}");
                prop_assert!(v[t].re <= db.tuple(TupleId(t as u32)).prob + 1e-9);
                prev[t] = v[t].re;
            }
        }
    }

    /// PRFe(1) equals the existence probability; PRFe(0) vanishes.
    #[test]
    fn prfe_endpoints(db in small_db()) {
        let at1 = prfe_rank(&db, Complex::ONE);
        for (t, v) in at1.iter().enumerate() {
            prop_assert!((v.re - db.tuple(TupleId(t as u32)).prob).abs() < 1e-9);
            prop_assert!(v.im.abs() < 1e-12);
        }
        let at0 = prfe_rank(&db, Complex::ZERO);
        for v in &at0 {
            prop_assert!(v.re.abs() < 1e-12);
        }
    }

    /// The and/xor-tree embedding of an independent relation preserves every
    /// PRF value.
    #[test]
    fn tree_embedding_preserves_prf(db in small_db(), h in 1usize..6) {
        let tree = AndXorTree::from_independent(&db);
        let w = StepWeight { h };
        let via_db = prf_rank(&db, &w);
        let via_tree = prf::core::tree::prf_rank_tree(&tree, &w);
        for t in 0..db.len() {
            prop_assert!(via_db[t].approx_eq(via_tree[t], 1e-9));
        }
    }

    /// Kendall distance: fast = naive, symmetric, bounded, triangle-ish
    /// overlap bound.
    #[test]
    fn kendall_properties(
        scores_a in proptest::collection::vec(0u32..40, 6..10),
        scores_b in proptest::collection::vec(0u32..40, 6..10),
    ) {
        // Derive duplicate-free top-k lists from the raw draws.
        let mut a: Vec<u32> = scores_a;
        a.sort_unstable();
        a.dedup();
        let mut b: Vec<u32> = scores_b;
        b.sort_unstable();
        b.dedup();
        b.reverse();
        prop_assume!(a.len() >= 3 && b.len() >= 3);
        let k = a.len().min(b.len()).min(5);
        let d = kendall_topk(&a, &b, k);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!((d - kendall_topk(&b, &a, k)).abs() < 1e-12);
        prop_assert!((d - kendall_topk_naive(&a, &b, k)).abs() < 1e-12);
        let overlap = overlap_fraction(&a, &b, k);
        prop_assert!(overlap >= 1.0 - d.sqrt() - 1e-9);
    }

    /// Rankings are permutations and deterministic.
    #[test]
    fn rankings_are_permutations(db in small_db()) {
        let v = prf_rank(&db, &StepWeight { h: 2 });
        let r1 = Ranking::from_values(&v, ValueOrder::RealPart);
        let r2 = Ranking::from_values(&v, ValueOrder::RealPart);
        prop_assert_eq!(r1.order(), r2.order());
        let mut seen: Vec<u32> = r1.order().iter().map(|t| t.0).collect();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..db.len() as u32).collect();
        prop_assert_eq!(seen, expect);
    }

    /// Theorem 4 (single crossing) on random instances, via the public
    /// spectrum API.
    #[test]
    fn prfe_single_crossing(db in small_db()) {
        prop_assume!(db.len() >= 2);
        let a = TupleId(0);
        let b = TupleId(1);
        let flips = prf::core::spectrum::count_order_flips(&db, a, b, 200);
        prop_assert!(flips <= 1, "tuples crossed {flips} times");
    }
}

// ---------------------------------------------------------------------
// The unified query engine: Auto must agree with ExactGf at small n
// ---------------------------------------------------------------------

use prf::prelude::{Algorithm, RankQuery, Semantics};

/// Strategy: a random independent relation with n ≤ 64 (the regime where
/// `Algorithm::Auto` guarantees exactness).
fn medium_db() -> impl Strategy<Value = IndependentDb> {
    proptest::collection::vec((0.0f64..1000.0, 0.0f64..=1.0), 1..65)
        .prop_map(|pairs| IndependentDb::from_pairs(pairs).expect("generated pairs are valid"))
}

/// Every semantics the engine knows, parameterised small enough for any n.
fn all_semantics(k: usize) -> Vec<Semantics> {
    use std::sync::Arc;
    vec![
        Semantics::Prf(Arc::new(prf::prelude::TabulatedWeight::from_real(&[
            1.5, 1.0, 0.25,
        ]))),
        Semantics::Prfe(prf::prelude::Complex::real(0.8)),
        Semantics::Pt(k),
        Semantics::UTop(k),
        Semantics::URank(k),
        Semantics::ERank,
        Semantics::EScore,
        Semantics::Consensus(k),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Algorithm::Auto` agrees with `ExactGf` on the ranking for every
    /// semantics whenever n ≤ 64, on both independent and tree backends.
    #[test]
    fn auto_agrees_with_exact_gf_up_to_64(db in medium_db()) {
        let k = 1 + db.len() / 3;
        let tree = AndXorTree::from_independent(&db);
        for sem in all_semantics(k) {
            let name = sem.name();
            let auto_q = RankQuery::new(sem.clone());
            let exact_q = RankQuery::new(sem).algorithm(Algorithm::ExactGf);

            let auto_r = auto_q.run(&db);
            let exact_r = exact_q.run(&db);
            match (auto_r, exact_r) {
                (Ok(a), Ok(e)) => {
                    prop_assert_eq!(
                        a.ranking.order(), e.ranking.order(),
                        "{} on IndependentDb", name
                    );
                    prop_assert_eq!(a.report.algorithm, Algorithm::ExactGf);
                }
                // U-Top may legitimately have no answer (k > n); both paths
                // must then agree on the error.
                (Err(a), Err(e)) => prop_assert_eq!(a, e, "{} error", name),
                (a, e) => prop_assert!(false, "{name}: auto {a:?} vs exact {e:?}"),
            }

            // Exact U-Top on trees goes through world enumeration, whose
            // cost is exponential in n — probe the tree backend for it only
            // at enumeration-friendly sizes (it is identical machinery at
            // any n below the engine's world budget).
            if matches!(auto_q.semantics(), Semantics::UTop(_)) && db.len() > 12 {
                continue;
            }
            let auto_r = auto_q.run(&tree);
            let exact_r = RankQuery::new(auto_q.semantics().clone())
                .algorithm(Algorithm::ExactGf)
                .run(&tree);
            match (auto_r, exact_r) {
                (Ok(a), Ok(e)) => prop_assert_eq!(
                    a.ranking.order(), e.ranking.order(),
                    "{} on AndXorTree", name
                ),
                (Err(a), Err(e)) => prop_assert_eq!(a, e, "{} tree error", name),
                (a, e) => prop_assert!(false, "{name} tree: auto {a:?} vs exact {e:?}"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// The packed-key sort primitive against the comparator sort it replaced
// ---------------------------------------------------------------------

use prf::pdb::tuple::top_k_desc;
use prf::pdb::Tuple;

/// Adversarial keys: equal runs, both signed zeros, ±∞, subnormals and
/// the extremes of the normal range.
const KEY_POOL: [f64; 12] = [
    f64::NEG_INFINITY,
    -1e308,
    -1.0,
    -5e-324,
    -0.0,
    0.0,
    5e-324,
    f64::MIN_POSITIVE,
    0.5,
    1.0,
    1e308,
    f64::INFINITY,
];

/// The comparator sort the packed primitive replaced: key descending, ties
/// by index ascending.
fn comparator_order(keys: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..keys.len()).collect();
    idx.sort_by(|&a, &b| keys[b].partial_cmp(&keys[a]).unwrap().then(a.cmp(&b)));
    idx
}

/// The comparator sort of tuples by `(score desc, id asc)`.
fn comparator_tuples(tuples: &[Tuple]) -> Vec<Tuple> {
    let scores: Vec<f64> = tuples.iter().map(|t| t.score).collect();
    comparator_order(&scores)
        .into_iter()
        .map(|i| tuples[i])
        .collect()
}

fn tuple_bits(tuples: &[Tuple]) -> Vec<(u32, u64, u64)> {
    tuples
        .iter()
        .map(|t| (t.id.0, t.score.to_bits(), t.prob.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Full sorts and top-k selections at k ∈ {0, 1, n−1, n, n+1} give
    /// exactly the comparator sort's prefix; rankings built on the
    /// primitive report each key with its original bits (so `-0.0` stays
    /// `-0.0` even though it ties with `0.0`).
    #[test]
    fn packed_order_matches_the_comparator_sort(
        picks in proptest::collection::vec(0usize..KEY_POOL.len(), 0..40),
    ) {
        let keys: Vec<f64> = picks.iter().map(|&i| KEY_POOL[i]).collect();
        let n = keys.len();
        let want = comparator_order(&keys);
        for k in [0, 1, n.saturating_sub(1), n, n + 1] {
            let got = top_k_desc(&keys, k, "no NaN");
            prop_assert_eq!(&got[..], &want[..k.min(n)], "k={}", k);
            let ranking = Ranking::from_keys_topk(&keys, k);
            let ids: Vec<usize> = ranking.order().iter().map(|t| t.index()).collect();
            prop_assert_eq!(&ids[..], &want[..k.min(n)], "ranking k={}", k);
            for (pos, &i) in ids.iter().enumerate() {
                prop_assert_eq!(ranking.key_at(pos).to_bits(), keys[i].to_bits());
            }
        }
    }

    /// `IndependentDb`'s stored score order stays exactly the comparator
    /// sort of its tuples through a script of inserts, deletes and
    /// reweights over tied and signed-zero scores.
    #[test]
    fn stored_score_order_survives_mutation_scripts(
        initial in proptest::collection::vec((0usize..KEY_POOL.len(), 0.0f64..=1.0), 0..12),
        script in proptest::collection::vec(
            (0u32..3, 0usize..KEY_POOL.len(), 0.0f64..=1.0, 0usize..1000),
            1..40,
        ),
    ) {
        let mut db = IndependentDb::from_pairs(initial.iter().map(|&(s, p)| (KEY_POOL[s], p)))
            .expect("valid pairs");
        prop_assert_eq!(tuple_bits(db.by_score()), tuple_bits(&comparator_tuples(db.tuples())));
        for (step, &(op, s, p, pick)) in script.iter().enumerate() {
            match op {
                0 => {
                    db.push_tuple(KEY_POOL[s], p).expect("valid tuple");
                }
                _ if db.is_empty() => continue,
                1 => {
                    db.remove_tuple(TupleId((pick % db.len()) as u32)).expect("present");
                }
                _ => {
                    db.set_prob(TupleId((pick % db.len()) as u32), p).expect("present");
                }
            }
            prop_assert_eq!(
                tuple_bits(db.by_score()),
                tuple_bits(&comparator_tuples(db.tuples())),
                "step {}", step
            );
        }
    }
}
