//! Smoke test pinning the crate-level "Thirty-second tour" (`src/lib.rs`)
//! to a deterministic, hand-checkable 3-tuple ranking.

use prf::prelude::*;

#[test]
fn quickstart_tour_is_deterministic() {
    // Identical to the lib.rs doctest: (score, existence probability).
    let db = IndependentDb::from_pairs([
        (100.0, 0.5), // t0: great score, coin-flip existence
        (50.0, 1.0),  // t1: mediocre but certain
        (80.0, 0.8),  // t2
    ])
    .unwrap();

    // PT(2) = Pr(rank ≤ 2), checkable by hand:
    //   t0 ranks first whenever present              → 0.5
    //   t2 ranks ≤ 2 whenever present                → 0.8
    //   t1 ranks ≤ 2 unless both t0 and t2 exist     → 1 − 0.5·0.8 = 0.6
    let pt = RankQuery::pt(2).run(&db).unwrap();
    let v = pt.values.as_complex().expect("exact PT values are complex");
    assert!((v[0].re - 0.5).abs() < 1e-12);
    assert!((v[1].re - 0.6).abs() < 1e-12);
    assert!((v[2].re - 0.8).abs() < 1e-12);
    assert_eq!(pt.ranking.order(), &[TupleId(2), TupleId(1), TupleId(0)]);
    assert_eq!(pt.report.algorithm, Algorithm::ExactGf);
    assert!(pt.report.auto_selected);

    // PRFe(0.9), also checkable by hand (Υ(t) = Σᵢ 0.9^i · Pr(r(t) = i)):
    //   t1: 0.1·0.9 + 0.5·0.81 + 0.4·0.729 = 0.7866
    //   t2: 0.4·0.9 + 0.4·0.81             = 0.684
    //   t0: 0.5·0.9                        = 0.45
    // Its top choice (t1) differs from PT(2)'s (t2) — the paper's point:
    // different ω, different ranking.
    let prfe = RankQuery::prfe(0.9).run(&db).unwrap();
    let v = prfe.values.as_complex().expect("small n stays exact");
    assert!((v[0].re - 0.45).abs() < 1e-12);
    assert!((v[1].re - 0.7866).abs() < 1e-12);
    assert!((v[2].re - 0.684).abs() < 1e-12);
    assert_eq!(prfe.ranking.order(), &[TupleId(1), TupleId(2), TupleId(0)]);

    // The identical query runs unchanged on correlated data and agrees on
    // independent input.
    let tree = AndXorTree::from_independent(&db);
    let correlated = RankQuery::prfe(0.9).run(&tree).unwrap();
    assert_eq!(prfe.ranking.order(), correlated.ranking.order());

    // Both rankings are stable across runs.
    let rerun = RankQuery::prfe(0.9).run(&db).unwrap();
    assert_eq!(prfe.ranking.order(), rerun.ranking.order());

    // The engine's answer is the PT(2) kernel's, ranked.
    let kernel = prf::core::independent::prf_rank(&db, &StepWeight { h: 2 });
    let direct = Ranking::from_values(&kernel, ValueOrder::RealPart);
    assert_eq!(direct.order(), pt.ranking.order());
}
